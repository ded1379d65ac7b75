//! # xft-baselines — the SMR protocols the XFT paper compares against
//!
//! The paper's evaluation (§5) compares XPaxos with a WAN-optimized variant of Paxos,
//! a speculative PBFT variant, Zyzzyva, and (for the ZooKeeper macro-benchmark) the
//! native Zab broadcast protocol. This crate implements the *common-case* message
//! patterns of those protocols (Figure 6) over the same simulator substrate and with
//! the same batching and crypto cost accounting, so that the benchmark harness can
//! regenerate the comparative figures.
//!
//! A single generic engine ([`engine`]) executes any [`spec::ProtocolSpec`]; the specs
//! encode the per-protocol replica counts, cohorts, quorums, fan-outs and client reply
//! requirements, which are the quantities that drive the paper's throughput/latency and
//! CPU comparisons.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod harness;
pub mod messages;
pub mod spec;

pub use engine::{BaselineClient, BaselineConfig, BaselineNode, BaselineReplica};
pub use harness::{BaselineCluster, BaselineClusterBuilder};
pub use messages::BaselineMsg;
pub use spec::{AgreementPattern, BaselineProtocol, ProtocolSpec};
