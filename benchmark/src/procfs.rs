//! Process and thread accounting read from `/proc` — the benchmark measures
//! every layer from outside, so CPU time, run-queue wait and peak RSS come
//! from the kernel's own books rather than from counters inside the crates.
//!
//! The *thread ledger* brackets a timed phase with two reads of
//! `/proc/self/task/*/{comm,schedstat}` and attributes the on-CPU and
//! run-queue-wait nanoseconds of every thread to a [`Group`] by thread name.
//! The crates name their threads (`xft-read-<node>`, `xft-write-<node>-<i>`,
//! `xft-accept-<node>`, `xft-fsync`, `xft-evidence`, `xft-crypto-<i>`); the
//! benchmark names its own (`bench-replica-<id>`, `bench-client`).

use std::collections::BTreeMap;
use std::fs;
use std::io;

/// Which replica plays which role in view 0 (the TCP workloads assert that
/// the view never changes, so the roles hold for the whole run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Roles {
    /// Replica id of the view-0 primary.
    pub primary: usize,
    /// Replica id of the view-0 follower.
    pub follower: usize,
}

/// The ledger's attribution groups. Together with [`Group::Unattributed`]
/// they partition the process's threads, so their CPU sums to the process
/// total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Group {
    /// `xft-read-<node>`: socket reads, frame reassembly, decode — of every
    /// node, the load generator's endpoint included (the layer is `xft-net`,
    /// whichever side runs it).
    NetRead,
    /// `xft-write-<node>-<shard>`: the writer pool's socket writes.
    NetWrite,
    /// `xft-accept-<node>`: connection accepts.
    NetAccept,
    /// `bench-replica-<primary>`: the primary's protocol thread.
    CorePrimary,
    /// `bench-replica-<follower>`: the follower's protocol thread.
    CoreFollower,
    /// `bench-replica-<passive>`: the passive replica's protocol thread.
    CorePassive,
    /// `bench-client`: the load generator's actor thread.
    Client,
    /// `xft-fsync`: overlapped WAL fsync threads (data and evidence dirs).
    StoreFsync,
    /// `xft-evidence`: the evidence log's chaining/append worker.
    EvidenceWorker,
    /// `xft-crypto-<i>`: the crypto pool (idle in `FrontMode::Inline`).
    CryptoPool,
    /// The benchmark's coordinating main thread.
    Harness,
    /// Anything no group claims.
    Unattributed,
}

/// Attributes a thread, by its `comm` name, to a ledger group. The kernel
/// truncates `comm` to 15 bytes, so only prefixes — and for the replica
/// threads the digits right after the prefix — are relied on.
pub fn classify(comm: &str, roles: Roles) -> Group {
    if let Some(rest) = comm.strip_prefix("bench-replica-") {
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        return match digits.parse::<usize>() {
            Ok(id) if id == roles.primary => Group::CorePrimary,
            Ok(id) if id == roles.follower => Group::CoreFollower,
            Ok(_) => Group::CorePassive,
            Err(_) => Group::Unattributed,
        };
    }
    [
        ("xft-read-", Group::NetRead),
        ("xft-write-", Group::NetWrite),
        ("xft-accept-", Group::NetAccept),
        ("bench-client", Group::Client),
        ("xft-fsync", Group::StoreFsync),
        ("xft-evidence", Group::EvidenceWorker),
        ("xft-crypto-", Group::CryptoPool),
        ("xft-benchmark", Group::Harness),
    ]
    .into_iter()
    .find(|(prefix, _)| comm.starts_with(prefix))
    .map_or(Group::Unattributed, |(_, group)| group)
}

/// One thread's cumulative scheduler accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadSample {
    /// The thread's name (at most 15 bytes, as the kernel keeps it).
    pub comm: String,
    /// Nanoseconds spent on a CPU.
    pub run_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU.
    pub wait_ns: u64,
}

/// Parses one `schedstat` line: `<on-cpu ns> <run-queue wait ns> <slices>`.
pub fn parse_schedstat(line: &str) -> Option<(u64, u64)> {
    let mut fields = line.split_ascii_whitespace();
    let run = fields.next()?.parse().ok()?;
    let wait = fields.next()?.parse().ok()?;
    Some((run, wait))
}

/// Reads the scheduler accounting of every live thread of this process,
/// keyed by thread id. A thread that exits between the directory listing and
/// the file reads is skipped.
pub fn read_threads() -> io::Result<BTreeMap<u64, ThreadSample>> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir("/proc/self/task")? {
        let entry = entry?;
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let dir = entry.path();
        let (Ok(comm), Ok(stat)) = (
            fs::read_to_string(dir.join("comm")),
            fs::read_to_string(dir.join("schedstat")),
        ) else {
            continue;
        };
        let (run_ns, wait_ns) = parse_schedstat(&stat).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unparseable schedstat for task {tid}: {stat:?}"),
            )
        })?;
        out.insert(
            tid,
            ThreadSample {
                comm: comm.trim_end().to_string(),
                run_ns,
                wait_ns,
            },
        );
    }
    Ok(out)
}

/// CPU and run-queue wait per group between two [`read_threads`] samples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    /// `(on-CPU ns, run-queue wait ns)` per group.
    pub groups: BTreeMap<Group, (u64, u64)>,
}

impl Ledger {
    /// Differences two samples. A thread present only in `after` was born in
    /// between and counts in full; one present only in `before` exited and
    /// its time is lost to the ledger (the timed phases spawn and end no
    /// threads, so neither occurs there).
    pub fn between(
        before: &BTreeMap<u64, ThreadSample>,
        after: &BTreeMap<u64, ThreadSample>,
        roles: Roles,
    ) -> Ledger {
        let mut groups: BTreeMap<Group, (u64, u64)> = BTreeMap::new();
        for (tid, now) in after {
            let (run0, wait0) = before
                .get(tid)
                .map(|b| (b.run_ns, b.wait_ns))
                .unwrap_or((0, 0));
            let slot = groups.entry(classify(&now.comm, roles)).or_default();
            slot.0 += now.run_ns.saturating_sub(run0);
            slot.1 += now.wait_ns.saturating_sub(wait0);
        }
        Ledger { groups }
    }

    /// On-CPU nanoseconds of one group.
    pub fn cpu_ns(&self, group: Group) -> u64 {
        self.groups.get(&group).map_or(0, |g| g.0)
    }

    /// Run-queue wait nanoseconds of one group.
    pub fn wait_ns(&self, group: Group) -> u64 {
        self.groups.get(&group).map_or(0, |g| g.1)
    }

    /// On-CPU nanoseconds of the whole process (every group).
    pub fn total_cpu_ns(&self) -> u64 {
        self.groups.values().map(|g| g.0).sum()
    }
}

/// On-CPU nanoseconds of the whole process so far, summed over live threads.
pub fn process_cpu_ns() -> io::Result<u64> {
    Ok(read_threads()?.values().map(|t| t.run_ns).sum())
}

/// Parses the `VmHWM` (peak resident set) line of `/proc/<pid>/status`, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROLES: Roles = Roles {
        primary: 0,
        follower: 1,
    };

    #[test]
    fn classifies_crate_and_benchmark_threads() {
        assert_eq!(classify("xft-read-0", ROLES), Group::NetRead);
        assert_eq!(classify("xft-write-2-1", ROLES), Group::NetWrite);
        assert_eq!(classify("xft-accept-1", ROLES), Group::NetAccept);
        assert_eq!(classify("bench-replica-0", ROLES), Group::CorePrimary);
        assert_eq!(classify("bench-replica-1", ROLES), Group::CoreFollower);
        assert_eq!(classify("bench-replica-2", ROLES), Group::CorePassive);
        assert_eq!(classify("bench-client", ROLES), Group::Client);
        assert_eq!(classify("xft-fsync", ROLES), Group::StoreFsync);
        assert_eq!(classify("xft-evidence", ROLES), Group::EvidenceWorker);
        assert_eq!(classify("xft-crypto-3", ROLES), Group::CryptoPool);
        assert_eq!(classify("xft-benchmark", ROLES), Group::Harness);
        assert_eq!(classify("something-else", ROLES), Group::Unattributed);
    }

    #[test]
    fn roles_follow_the_view_0_sync_group() {
        let swapped = Roles {
            primary: 2,
            follower: 0,
        };
        assert_eq!(classify("bench-replica-2", swapped), Group::CorePrimary);
        assert_eq!(classify("bench-replica-0", swapped), Group::CoreFollower);
        assert_eq!(classify("bench-replica-1", swapped), Group::CorePassive);
    }

    #[test]
    fn comm_truncated_to_15_bytes_still_classifies() {
        // The kernel keeps 15 bytes: "bench-replica-10" arrives as
        // "bench-replica-1", "xft-write-12-10" fits exactly, and the legacy
        // "xft-send-0-to-10" sender name loses its tail.
        let cut = |s: &str| s[..s.len().min(15)].to_string();
        assert_eq!(cut("bench-replica-0").len(), 15);
        assert_eq!(classify(&cut("bench-replica-0"), ROLES), Group::CorePrimary);
        assert_eq!(classify(&cut("xft-write-12-10"), ROLES), Group::NetWrite);
        assert_eq!(
            classify(&cut("xft-accept-2-long-tail"), ROLES),
            Group::NetAccept
        );
        assert_eq!(
            classify(&cut("xft-send-0-to-10"), ROLES),
            Group::Unattributed
        );
        assert_eq!(
            classify(&cut("xft-evidence-worker"), ROLES),
            Group::EvidenceWorker
        );
    }

    #[test]
    fn parses_schedstat_and_vm_hwm() {
        assert_eq!(parse_schedstat("2037911 96217 2\n"), Some((2037911, 96217)));
        assert_eq!(parse_schedstat("17"), None);
        assert_eq!(parse_schedstat("a b c"), None);
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t    1840 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(1840));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn ledger_differences_by_tid_and_sums_to_total() {
        let t = |comm: &str, run, wait| ThreadSample {
            comm: comm.to_string(),
            run_ns: run,
            wait_ns: wait,
        };
        let before = BTreeMap::from([
            (1, t("xft-benchmark", 100, 10)),
            (2, t("bench-replica-0", 1_000, 50)),
            (3, t("xft-read-0", 500, 5)),
            (9, t("gone", 7, 7)),
        ]);
        let after = BTreeMap::from([
            (1, t("xft-benchmark", 150, 10)),
            (2, t("bench-replica-0", 4_000, 250)),
            (3, t("xft-read-0", 1_500, 25)),
            (4, t("xft-read-1", 300, 3)), // born in between
        ]);
        let ledger = Ledger::between(&before, &after, ROLES);
        assert_eq!(ledger.cpu_ns(Group::Harness), 50);
        assert_eq!(ledger.cpu_ns(Group::CorePrimary), 3_000);
        assert_eq!(ledger.wait_ns(Group::CorePrimary), 200);
        assert_eq!(ledger.cpu_ns(Group::NetRead), 1_300);
        assert_eq!(ledger.wait_ns(Group::NetRead), 23);
        assert_eq!(ledger.cpu_ns(Group::Unattributed), 0);
        assert_eq!(ledger.total_cpu_ns(), 50 + 3_000 + 1_300);
    }

    #[test]
    fn reads_this_process() {
        let threads = read_threads().expect("procfs readable");
        assert!(!threads.is_empty());
        assert!(process_cpu_ns().expect("cpu") > 0);
        assert!(peak_rss_mb().expect("rss") > 0.0);
    }
}
