//! # xft — umbrella crate for the XFT / XPaxos reproduction
//!
//! This crate re-exports the workspace members so applications (and the runnable
//! examples under `examples/`) can depend on a single crate:
//!
//! * [`core`] (`xft-core`) — the XFT model and the XPaxos protocol,
//! * [`simnet`] (`xft-simnet`) — the deterministic discrete-event network simulator,
//! * [`crypto`] (`xft-crypto`) — digests, MACs and simulated signatures,
//! * [`wire`] (`xft-wire`) — the canonical wire codec every message (and every
//!   signed digest) goes through,
//! * [`net`] (`xft-net`) — the real TCP transport and runtime for live clusters,
//! * [`baselines`] (`xft-baselines`) — Paxos, PBFT, Zyzzyva and Zab comparison
//!   protocols,
//! * [`chaos`] (`xft-chaos`) — seeded random fault schedules, the
//!   linearizability checker over client histories, and shrinking of failing
//!   schedules to minimal reproducers (the `chaos-explorer` binary),
//! * [`reliability`] (`xft-reliability`) — the nines-of-reliability analysis,
//! * [`kvstore`] (`xft-kvstore`) — the ZooKeeper-like coordination service,
//! * [`telemetry`] (`xft-telemetry`) — metrics registry, trace correlation,
//!   synchrony monitor and flight recorder (observation-only).
//!
//! It also hosts [`testing`], the seeded property-testing harness the
//! integration tests use in place of `proptest` (the build is offline).
//!
//! See the repository README for a tour and EXPERIMENTS.md for the paper-vs-measured
//! record of every table and figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod testing;

pub use xft_baselines as baselines;
pub use xft_chaos as chaos;
pub use xft_core as core;
pub use xft_crypto as crypto;
pub use xft_kvstore as kvstore;
pub use xft_net as net;
pub use xft_reliability as reliability;
pub use xft_simnet as simnet;
pub use xft_store as store;
pub use xft_telemetry as telemetry;
pub use xft_wire as wire;
