//! # xft-chaos — scenario exploration for the XPaxos reproduction
//!
//! XFT's central claim is *coverage*: XPaxos stays safe and live across a
//! strictly larger set of fault scenarios than CFT — crashes, partitions and
//! non-crash faults, as long as at most `t` machines are faulty or partitioned
//! at once (Liu et al., OSDI 2016, §2). The `xft-reliability` crate evaluates
//! that claim *analytically*; this crate validates it *empirically*, over
//! thousands of randomized fault schedules per minute:
//!
//! * [`schedule`] — a seeded generator composing random [`FaultEvent`]
//!   sequences (crashes/recoveries, partitions/heals, isolation, message-drop
//!   churn, every Byzantine control code and the amnesia storage-loss fault)
//!   while tracking the paper's fault budget, with a `beyond_budget` mode
//!   that deliberately exceeds it;
//! * [`workload`] — a deterministic per-request read/write workload over a
//!   small keyspace whose responses carry per-key write serial numbers,
//!   making client histories machine-checkable;
//! * [`checker`] — the linearizability checker over recorded client
//!   histories (versioned-register model, per key), plus exactly-once
//!   accounting; divergence across correct replicas' committed prefixes is
//!   checked by the explorer on top;
//! * [`explorer`] — builds a cluster per seed, applies the schedule, heals,
//!   drains, and produces a structured [`explorer::SeedReport`] verdict;
//!   fans seeds out across threads;
//! * [`mod@shrink`] — delta-debugging of a failing schedule down to a minimal
//!   reproducer, printed as ready-to-paste [`FaultScript`] code;
//! * [`mod@forensics`] — accountability post-mortem: re-runs a violating
//!   schedule with evidence logging on, audits the harvested logs with
//!   `xft-forensics`, and checks the accused culprits against the schedule's
//!   ground truth (accusations must be a subset of the injected Byzantine
//!   replicas);
//! * [`tcp`] — replays crash/recovery/control schedules against a *live*
//!   loopback-TCP cluster through `xft-net`'s control-injection path, so a
//!   sampled subset of scenarios is validated over real sockets too.
//!
//! The `chaos-explorer` binary drives all of it; `scripts/ci.sh` runs a
//! time-budgeted smoke (in-budget seeds must produce zero violations, and a
//! deliberately over-budget run must be caught and shrunk).
//!
//! [`FaultEvent`]: xft_simnet::FaultEvent
//! [`FaultScript`]: xft_simnet::FaultScript

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod explorer;
pub mod forensics;
pub mod schedule;
pub mod shrink;
pub mod tcp;
pub mod workload;

pub use checker::{check_history, OpEvent, Violation};
pub use explorer::{
    combined_fingerprint, explore, run_schedule, run_seed, ExplorerConfig, SeedReport,
};
pub use forensics::{audit_run, injected_byzantine, AuditOutcome};
pub use schedule::{analyze_schedule, format_script, generate, ScheduleConfig, TimedEvent};
pub use shrink::shrink;
pub use workload::{chaos_op_factory, chaos_workload, decode_value, key_path};
