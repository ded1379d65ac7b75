//! Protocol configuration.

use crate::types::ReplicaId;
use xft_simnet::{NodeId, PipelineConfig, SimDuration};

/// Byte budget of one proposed batch, in [`Batch::wire_size`](crate::Batch::wire_size)
/// terms (1 MiB): when the primary cuts a batch it takes every queued request
/// up to this size. A sixteenth of the frame limit, so a PREPARE or
/// COMMIT-CARRY carrying a full batch plus its client signatures always fits
/// one frame; the queue itself is bounded by
/// [`PipelineConfig::max_pending_requests`].
pub const MAX_BATCH_BYTES: usize = xft_wire::DEFAULT_MAX_FRAME / 16;

/// How long the primary waits to reach the cut threshold
/// ([`XPaxosConfig::batch_size`]) before cutting a partial batch.
pub const BATCH_TIMEOUT: SimDuration = SimDuration::from_millis(2);

/// Configuration shared by every XPaxos replica and client in a cluster.
#[derive(Debug, Clone)]
pub struct XPaxosConfig {
    /// Fault threshold `t`. The cluster has `n = 2t + 1` replicas.
    pub t: usize,
    /// The network-fault bound Δ: messages between correct, synchronous replicas are
    /// delivered and processed within Δ (paper §2). The view-change collection window
    /// is 2Δ.
    pub delta: SimDuration,
    /// Batch cut threshold (paper uses 20): the primary cuts a batch as soon
    /// as this many requests are queued (or the pipe is idle, or the
    /// [`BATCH_TIMEOUT`] timer fires). A cut carries *every* request queued at that moment, up
    /// to [`MAX_BATCH_BYTES`], so a backlog that built up behind a full
    /// in-flight window leaves in one proposal instead of one `batch_size`
    /// per commit round.
    pub batch_size: usize,
    /// Checkpoint interval (in sequence numbers). 0 disables checkpointing.
    pub checkpoint_interval: u64,
    /// State-transfer chunk size in bytes: sealed snapshots are served in
    /// chunks of at most this size, each verified against the t + 1-signed
    /// seal via a Merkle audit path. Cluster-uniform — the value is bound
    /// into the checkpoint commitment, so replicas configured differently
    /// fail the PRECHK digest agreement loudly instead of mis-verifying.
    pub state_chunk_bytes: u32,
    /// State-transfer fetch window: the maximum number of chunk requests a
    /// recovering replica keeps outstanding. Together with
    /// [`XPaxosConfig::state_chunk_bytes`] this is the repair budget — at
    /// most `window × chunk` bytes of recovery traffic are in flight, so a
    /// rejoining replica never starves live traffic.
    pub state_fetch_window: u32,
    /// Client retransmission timeout: after this long without a committed reply the
    /// client broadcasts a RE-SEND to all active replicas.
    pub client_retransmit: SimDuration,
    /// Retransmission timer at active replicas: after forwarding a re-sent request to
    /// the primary, a correct active replica expects it to commit within this time,
    /// otherwise it suspects the view.
    pub replica_retransmit: SimDuration,
    /// Enable the Fault Detection mechanism (extra VC-CONFIRM phase and prepare-log
    /// exchange during view change, paper §4.4).
    pub fault_detection: bool,
    /// Request-path pipelining: client windows, in-flight batch limit and the
    /// primary's admission-queue bound.
    pub pipeline: PipelineConfig,
    /// Simnet node ids of the replicas, indexed by [`ReplicaId`].
    pub replica_nodes: Vec<NodeId>,
    /// Simnet node ids of the clients.
    pub client_nodes: Vec<NodeId>,
}

impl XPaxosConfig {
    /// Creates a configuration for a cluster tolerating `t` faults with replicas on
    /// simnet nodes `0..2t+1` and clients on the following node ids.
    pub fn new(t: usize, clients: usize) -> Self {
        let n = 2 * t + 1;
        let delta = SimDuration::from_millis(1250); // the paper's Δ for EC2
        XPaxosConfig {
            t,
            delta,
            batch_size: 20,
            checkpoint_interval: 128,
            state_chunk_bytes: 64 * 1024,
            state_fetch_window: 4,
            client_retransmit: SimDuration::from_secs(4),
            replica_retransmit: SimDuration::from_secs(4),
            fault_detection: false,
            pipeline: PipelineConfig::default(),
            replica_nodes: (0..n).collect(),
            client_nodes: (n..n + clients).collect(),
        }
    }

    /// Number of replicas, `n = 2t + 1`.
    pub fn n(&self) -> usize {
        2 * self.t + 1
    }

    /// Number of active replicas per view, `t + 1`.
    pub fn active_count(&self) -> usize {
        self.t + 1
    }

    /// Simnet node of a replica.
    pub fn node_of(&self, replica: ReplicaId) -> NodeId {
        self.replica_nodes[replica]
    }

    /// Replica id occupying a simnet node, if any.
    pub fn replica_at(&self, node: NodeId) -> Option<ReplicaId> {
        self.replica_nodes.iter().position(|&n| n == node)
    }

    /// The 2Δ window used when collecting VIEW-CHANGE messages.
    pub fn two_delta(&self) -> SimDuration {
        self.delta * 2
    }

    /// Timeout for completing a view change before suspecting the new view
    /// as well: 4Δ.
    pub fn view_change_timeout(&self) -> SimDuration {
        self.delta * 4
    }

    /// Sets Δ (which also scales the view-change timeout).
    pub fn with_delta(mut self, delta: SimDuration) -> Self {
        self.delta = delta;
        self
    }

    /// Enables or disables fault detection.
    pub fn with_fault_detection(mut self, enabled: bool) -> Self {
        self.fault_detection = enabled;
        self
    }

    /// Sets the batch cut threshold (see [`XPaxosConfig::batch_size`]).
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        self.batch_size = batch.max(1);
        self
    }

    /// Sets the checkpoint interval.
    pub fn with_checkpoint_interval(mut self, interval: u64) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    /// Sets the state-transfer chunk size (clamped to at least 512 bytes so
    /// audit-path overhead cannot dominate every frame).
    pub fn with_state_chunk_bytes(mut self, bytes: u32) -> Self {
        self.state_chunk_bytes = bytes.max(512);
        self
    }

    /// Sets the state-transfer fetch window (clamped to at least 1).
    pub fn with_state_fetch_window(mut self, window: u32) -> Self {
        self.state_fetch_window = window.max(1);
        self
    }

    /// Sets the client retransmission timeout.
    pub fn with_client_retransmit(mut self, timeout: SimDuration) -> Self {
        self.client_retransmit = timeout;
        self
    }

    /// Replaces the whole pipeline configuration.
    pub fn with_pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_counts() {
        let c = XPaxosConfig::new(2, 3);
        assert_eq!(c.n(), 5);
        assert_eq!(c.active_count(), 3);
        assert_eq!(c.replica_nodes, vec![0, 1, 2, 3, 4]);
        assert_eq!(c.client_nodes, vec![5, 6, 7]);
    }

    #[test]
    fn node_mapping_roundtrips() {
        let c = XPaxosConfig::new(1, 1);
        for r in 0..c.n() {
            assert_eq!(c.replica_at(c.node_of(r)), Some(r));
        }
        assert_eq!(c.replica_at(99), None);
    }

    #[test]
    fn pipeline_builders_clamp_and_replace() {
        let c = XPaxosConfig::new(1, 0).with_pipeline(
            PipelineConfig::default()
                .with_client_window(0)
                .with_max_in_flight(0),
        );
        assert_eq!(c.pipeline.client_window, 1);
        assert_eq!(c.pipeline.max_in_flight_batches, 1);
        let c = c.with_pipeline(PipelineConfig::default().with_client_window(16));
        assert_eq!(c.pipeline, PipelineConfig::default().with_client_window(16));
    }

    #[test]
    fn builders_adjust_fields() {
        let c = XPaxosConfig::new(1, 0)
            .with_delta(SimDuration::from_millis(100))
            .with_fault_detection(true)
            .with_batch_size(0)
            .with_checkpoint_interval(64)
            .with_state_chunk_bytes(100)
            .with_state_fetch_window(0);
        assert_eq!(c.delta, SimDuration::from_millis(100));
        assert_eq!(c.two_delta(), SimDuration::from_millis(200));
        assert_eq!(c.view_change_timeout(), SimDuration::from_millis(400));
        assert!(c.fault_detection);
        assert_eq!(c.batch_size, 1, "batch size is clamped to at least 1");
        assert_eq!(c.checkpoint_interval, 64);
        assert_eq!(c.state_chunk_bytes, 512, "chunk size is clamped to ≥ 512");
        assert_eq!(c.state_fetch_window, 1, "fetch window is clamped to ≥ 1");
    }
}
