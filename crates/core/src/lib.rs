//! # xft-core — the XFT model and the XPaxos protocol
//!
//! This crate implements the primary contribution of *XFT: Practical Fault Tolerance
//! Beyond Crashes* (Liu et al., OSDI 2016):
//!
//! * the **XFT fault model** — cross fault tolerance, where safety is guaranteed as
//!   long as a majority of replicas is correct and synchronous ([`model`]);
//! * **XPaxos**, the first XFT state-machine replication protocol, with
//!   * the common-case ordering protocol for `t = 1` (two-replica fast path) and
//!     `t ≥ 2` (PREPARE/COMMIT) — [`replica::common_case`],
//!   * the decentralized, leaderless view change — [`replica::view_change`],
//!   * the fault-detection mechanism — [`replica::fault_detection`],
//!   * checkpointing, lazy replication and batching — [`replica::checkpoint`],
//!   * the client with retransmission (Algorithm 4) — [`client`];
//! * a [`harness`] that builds whole clusters on the `xft-simnet` simulator, with
//!   total-order verification used throughout the test suite.
//!
//! ## Quick start
//!
//! ```
//! use xft_core::harness::{ClusterBuilder, LatencySpec};
//! use xft_core::client::ClientWorkload;
//! use xft_simnet::SimDuration;
//!
//! let mut cluster = ClusterBuilder::new(1, 2) // t = 1 (3 replicas), 2 clients
//!     .with_latency(LatencySpec::Constant(SimDuration::from_millis(10)))
//!     .with_workload(ClientWorkload { payload_size: 1024, requests: Some(10), ..Default::default() })
//!     .build();
//! cluster.run_for(SimDuration::from_secs(10));
//! assert_eq!(cluster.total_committed(), 20);
//! cluster.check_total_order().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
pub mod byzantine;
pub mod client;
pub mod config;
pub mod durable;
pub mod evidence;
pub mod harness;
pub mod log;
pub mod messages;
pub mod model;
pub mod node;
pub mod pipeline;
pub mod replica;
pub mod state_machine;
pub mod sync_group;
pub mod types;
pub mod wire;

pub use byzantine::{ByzantineBehavior, CONTROL_AMNESIA, CONTROL_CORRUPT_WAL, CONTROL_TORN_TAIL};
pub use client::{Client, ClientWorkload, HistoryRecord};
pub use config::XPaxosConfig;
pub use durable::{DurableEvent, ReplicaSnapshot, SealedSnapshot};
pub use evidence::{EvidenceAnchor, EvidenceLog, EvidenceRecord};
pub use harness::{check_total_order, ClusterBuilder, LatencySpec, XPaxosCluster};
pub use messages::XPaxosMsg;
pub use model::{ProtocolModel, ReplicaFaultState, SystemSnapshot};
pub use node::{Node, XPaxosNode};
pub use pipeline::CryptoFront;
pub use replica::durability::RecoveryReport;
pub use replica::{Phase, Replica};
pub use state_machine::{DigestChainService, NullService, StateMachine};
pub use sync_group::SyncGroups;
pub use types::{Batch, ClientId, ReplicaId, Request, SeqNum, ViewNumber};
pub use xft_simnet::PipelineConfig;
