//! Trace correlation: a request-scoped correlation ID minted at the client
//! and carried across hops.
//!
//! The ID is step data. Each actor step's `xft_simnet::Context` holds the
//! trace ID of the message that started it (0 for timers, control codes,
//! start and recovery), and every send in the step stamps it. The client
//! sets a freshly minted ID on its context before it sends a request;
//! `xft-net`'s runtime encodes a send's ID into the version-2 wire envelope
//! and hands a received envelope's ID to the step it starts. Protocol code
//! labels flight-recorder events with `ctx.trace()`.
//!
//! The ID is observation-only: nothing in protocol state ever reads it, so
//! simulator determinism (`Metrics::fingerprint`) is unaffected. ID `0`
//! means "no trace".

/// Mints a correlation ID from two request-identifying words (client id and
/// request timestamp) with FNV-1a — deterministic, so simulator runs mint
/// the same IDs every time. Never returns 0 (the "no trace" sentinel).
pub fn mint(client: u64, ts: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in client.to_le_bytes().into_iter().chain(ts.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    if h == 0 {
        1
    } else {
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_is_deterministic_and_nonzero() {
        assert_eq!(mint(3, 17), mint(3, 17));
        assert_ne!(mint(3, 17), mint(3, 18));
        assert_ne!(mint(3, 17), 0);
    }
}
