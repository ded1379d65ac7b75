//! # xft-net — a real TCP transport and runtime for live XPaxos clusters
//!
//! Everything before this crate ran XPaxos inside the deterministic
//! `xft-simnet` simulator, passing messages by value. This crate is the
//! deployment backend: the same [`Actor`](xft_simnet::Actor) protocol code,
//! driven by [`TcpRuntime`] over real sockets.
//!
//! Design (the environment is offline, so everything is `std`-only — no tokio):
//!
//! * **one thread per job** over [`std::net`], all of them blocking: one
//!   accept thread and one writer thread per node, one reader thread per
//!   inbound connection;
//! * **canonical frames**: every message is `xft-wire`'s enveloped encoding
//!   inside a length-prefixed frame; connections open with a tiny handshake
//!   announcing the sender's node id;
//! * **per-peer outbound queues** with bounded capacity: a slow or dead peer
//!   drops frames instead of stalling the replica — XPaxos already tolerates
//!   message loss through client retransmission and view changes;
//! * **reconnect** with backoff, routed through a mutable [`AddressBook`], so
//!   a recovered replica can come back on a different port and the cluster
//!   re-finds it (the integration test exercises exactly this);
//! * the **same Actor-driving contract** as the simulator: both backends feed
//!   [`xft_simnet::ActorDriver`] and interpret the returned
//!   [`xft_simnet::StepEffects`], and both implement
//!   [`xft_simnet::Runtime`].
//!
//! The `xpaxos-server` / `xpaxos-client` binaries in this crate run a live
//! cluster on loopback (or any reachable addresses) and report
//! throughput and p50/p90/p99 latency by `xft-telemetry`'s percentile rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod cli;
pub mod cluster;
pub mod metrics_http;
pub mod runtime;
pub mod transport;

pub use address::AddressBook;
pub use cluster::{
    bind_loopback_cluster, deliver_sync_done, parse_node_addrs, register_cluster_keys,
};
pub use metrics_http::MetricsServer;
pub use runtime::{NetConfig, NetHandle, NodeThread, StartMode, TcpRuntime};
pub use xft_core::check_total_order;
