//! Pre-encoded coordination-service workloads.
//!
//! The simulator's clients, the `xpaxos-client` binary and the loopback-TCP
//! integration test all drive the replicated [`CoordinationService`] with the
//! same operations; generating them here keeps the three consumers in
//! agreement about what "a 1 kB ZooKeeper write" (the paper's Figure 10
//! workload) means.
//!
//! [`CoordinationService`]: crate::service::CoordinationService

use crate::ops::KvOp;
use bytes::Bytes;
use xft_core::client::ClientWorkload;
use xft_simnet::SimDuration;

/// A sequential create under the root, the always-succeeding write the
/// macro-benchmark issues: each application creates a fresh znode
/// `/bench-c<client>-<seq>` holding `payload` bytes.
pub fn bench_create_op(client: u64, payload: usize) -> Bytes {
    KvOp::Create {
        path: format!("/bench-c{client}-"),
        data: Bytes::from(vec![0xAB; payload]),
        ephemeral_owner: None,
        sequential: true,
    }
    .encode()
}

/// The saturating create workload shared by the simulator's clients, the
/// `xpaxos-client` workers and the loopback integration tests: `ops`
/// sequential znode creates of `payload` bytes with zero think time. The
/// client's request *window* comes from the cluster's
/// `XPaxosConfig::pipeline`, so the same workload drives closed-loop
/// (window 1) and open-loop (window > 1) runs.
pub fn bench_workload(client: u64, payload: usize, ops: Option<u64>) -> ClientWorkload {
    ClientWorkload {
        payload_size: payload,
        requests: ops,
        think_time: SimDuration::ZERO,
        op_bytes: Some(bench_create_op(client, payload)),
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::CoordinationService;
    use xft_core::state_machine::StateMachine;

    #[test]
    fn bench_create_always_succeeds_and_grows_state() {
        let mut svc = CoordinationService::new();
        for i in 0..5 {
            let reply = svc.apply(&bench_create_op(7, 64));
            assert_eq!(reply[0], 1, "create {i} succeeded");
        }
        assert_eq!(svc.applied(), 5);
        // Sequential suffixes make every create distinct.
        assert_eq!(svc.tree().children("/").count(), 5);
    }
}
