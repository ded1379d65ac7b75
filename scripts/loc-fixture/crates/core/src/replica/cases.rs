//! Test-only items as rustfmt lays them out, for `scripts/loc.sh`. Every
//! line outside a `#[cfg(test)]` item is blank, starts a comment at its
//! first column or ends in `// counted`, and no line inside one does:
//! `scripts/ci.sh` checks that the script counts exactly those lines.

pub struct Node { // counted
    pub a: u32, // counted
    #[cfg(test)]
    pub probe: u32,
    pub b: u32, // counted
} // counted

#[cfg(test)]
fn long_signature(
    first: u32,
    second: u32,
) -> u32 {
    first + second
}

#[cfg(test)]
fn bounded<T>(value: T) -> T
where
    T: Clone,
    T: Default,
{
    value
}

#[cfg(test)]
use std::collections::{
    BTreeMap,
    HashMap,
};

#[cfg(test)]
const TABLE: &[(u8, u8)] = &[
    (1, 2),
    (3, 4),
];

#[cfg(test)]
impl Node {
    fn sum(&self) -> u32 {
        self.a + self.b
    }
}

pub fn after_the_test_items() -> u32 { // counted
    1 // counted
} // counted

#[cfg(test)]
mod tests {
    #[test]
    fn sums() {}
}
