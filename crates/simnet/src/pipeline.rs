//! Request-path pipelining knobs shared by every runtime backend.
//!
//! The same [`PipelineConfig`] travels through protocol configurations and
//! the deployment CLIs, so a pipelined experiment means the same thing on
//! every backend:
//!
//! * **`client_window`** — how many requests each client keeps outstanding.
//!   `1` is the classical closed loop of the paper's micro-benchmarks; larger
//!   windows turn the client into an open-loop load generator with bounded
//!   in-flight work.
//! * **`max_in_flight_batches`** — how many sequence numbers the primary may
//!   have proposed but not yet committed. Values above `1` overlap agreement
//!   rounds (pipelining).
//! * **`max_pending_requests`** — bound on the primary's admission queue;
//!   requests beyond it are shed with a typed busy reply so open-loop clients
//!   cannot exhaust replica memory.
//!
//! Batch length is not a knob here. The protocol's batch size is a *cut
//! threshold* — a batch is cut once that many requests are queued, when the
//! pipe is idle (an idle pipe means waiting buys no batching, only latency),
//! or when the batch timer fires — and a cut carries every request queued at
//! that moment, up to a fixed byte budget (`xft_core::config::MAX_BATCH_BYTES`,
//! a sixteenth of the wire frame limit). Requests that pile up behind
//! `max_in_flight_batches` therefore leave in the next free slot, and
//! throughput is not capped at `max_in_flight_batches × batch size` per
//! commit round trip.

/// Tuning knobs of the windowed request pipeline (clients and primary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Batches the primary may have proposed but not yet committed (≥ 1).
    pub max_in_flight_batches: usize,
    /// Requests each client keeps outstanding (≥ 1; 1 = closed loop).
    pub client_window: usize,
    /// Bound on the primary's admission queue; overflow is shed with a BUSY
    /// reply.
    pub max_pending_requests: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            max_in_flight_batches: 8,
            client_window: 1,
            max_pending_requests: 4096,
        }
    }
}

impl PipelineConfig {
    /// Sets the client window (clamped to ≥ 1).
    pub fn with_client_window(mut self, window: usize) -> Self {
        self.client_window = window.max(1);
        self
    }

    /// Sets the maximum number of in-flight batches (clamped to ≥ 1).
    pub fn with_max_in_flight(mut self, batches: usize) -> Self {
        self.max_in_flight_batches = batches.max(1);
        self
    }

    /// Sets the admission-queue bound (clamped to ≥ 1).
    pub fn with_max_pending(mut self, bound: usize) -> Self {
        self.max_pending_requests = bound.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_pipelined() {
        let d = PipelineConfig::default();
        assert!(d.max_in_flight_batches > 1);
        assert_eq!(d.client_window, 1);
        assert_eq!(d.max_pending_requests, 4096);
    }

    #[test]
    fn builders_clamp_to_one() {
        let p = PipelineConfig::default()
            .with_client_window(0)
            .with_max_in_flight(0)
            .with_max_pending(0);
        assert_eq!(p.client_window, 1);
        assert_eq!(p.max_in_flight_batches, 1);
        assert_eq!(p.max_pending_requests, 1);
    }
}
