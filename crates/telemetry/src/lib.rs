//! # xft-telemetry — observability primitives for the XFT reproduction
//!
//! XPaxos's guarantees hinge on a runtime condition the paper can only
//! assume: that a synchronous, correct majority exists. This crate gives the
//! rest of the workspace the instruments to *see* that condition (and the
//! request path behind the throughput numbers) without perturbing the
//! protocol:
//!
//! * a lock-light **metrics registry** ([`Registry`]) of atomic counters,
//!   gauges and log-bucketed histograms with p50/p90/p99, rendered in
//!   Prometheus text format;
//! * the single **percentile** implementation ([`percentile_index`],
//!   [`percentile`]) shared by `xpaxos-client`'s latency report,
//!   `xft_simnet::metrics::latency_summary()` and the histogram quantiles —
//!   one rounding convention, property-tested for equality;
//! * **trace correlation** ([`trace`]): a correlation ID minted at the
//!   client, carried across hops in the wire envelope (see `xft-wire`
//!   version 2) and, within a step, by the actor's `Context`;
//! * a per-replica **synchrony monitor** ([`SynchronyMonitor`]) that tracks
//!   peer RTTs, silence, suspects and view-change causes, and estimates the
//!   paper's `(t_c, t_b, t_p)` fault vector at runtime;
//! * a bounded in-memory **flight recorder** ([`FlightRecorder`]) of recent
//!   protocol events, dumped on panic, on SUSPECT and on chaos-checker
//!   violations;
//! * a [`Telemetry`] hub bundling the above behind one `Arc`, with a
//!   disabled mode whose record calls are cheap no-ops.
//!
//! Determinism contract: nothing in this crate reads a real clock — every
//! record call takes an explicit `now_ns` supplied by the caller (virtual
//! time in `xft-simnet` runs, monotonic-since-origin in `xft-net` runs), and
//! nothing here ever feeds back into protocol state, so
//! `Metrics::fingerprint` stays byte-stable with telemetry on or off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hub;
pub mod metrics;
pub mod monitor;
pub mod rank;
pub mod recorder;
pub mod trace;

pub use hub::Telemetry;
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use monitor::{FaultEstimate, PeerHealth, SynchronyMonitor};
pub use rank::{percentile, percentile_index};
pub use recorder::{FlightEvent, FlightRecorder};
