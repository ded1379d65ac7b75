//! Shared experiment runner: drives XPaxos or a baseline protocol over an identical
//! simulated geo-replicated deployment and reports throughput / latency / CPU.

use bytes::Bytes;
use xft_baselines::{BaselineClusterBuilder, BaselineProtocol};
use xft_core::client::ClientWorkload;
use xft_core::harness::{ClusterBuilder, LatencySpec};
use xft_core::state_machine::{NullService, StateMachine};
use xft_crypto::CostModel;
use xft_simnet::ec2::{t2_placement, table4_placement};
use xft_simnet::{Bandwidth, PipelineConfig, Region, SimDuration};

/// The protocol being measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolUnderTest {
    /// XPaxos (this paper's protocol).
    XPaxos,
    /// One of the baselines.
    Baseline(BaselineProtocol),
}

impl ProtocolUnderTest {
    /// The protocols compared in Figures 7, 8 and 10, in plotting order.
    pub const FIGURE_SET: [ProtocolUnderTest; 4] = [
        ProtocolUnderTest::XPaxos,
        ProtocolUnderTest::Baseline(BaselineProtocol::PaxosWan),
        ProtocolUnderTest::Baseline(BaselineProtocol::PbftSpeculative),
        ProtocolUnderTest::Baseline(BaselineProtocol::Zyzzyva),
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolUnderTest::XPaxos => "XPaxos",
            ProtocolUnderTest::Baseline(b) => b.name(),
        }
    }

    /// Number of replicas used for fault threshold `t`.
    pub fn replicas(&self, t: usize) -> usize {
        match self {
            ProtocolUnderTest::XPaxos => 2 * t + 1,
            ProtocolUnderTest::Baseline(b) => b.spec(t).n,
        }
    }

    /// Region placement for the replicas (Table 4 for t = 1, the seven-datacenter
    /// deployment of §5.2 for t = 2).
    pub fn placement(&self, t: usize) -> Vec<Region> {
        let n = self.replicas(t);
        if t <= 1 {
            table4_placement(n)
        } else {
            t2_placement(n)
        }
    }
}

/// One experiment configuration.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The protocol to run.
    pub protocol: ProtocolUnderTest,
    /// Fault threshold.
    pub t: usize,
    /// Number of closed-loop clients (co-located with the primary, as in the paper).
    pub clients: usize,
    /// Request payload bytes (1 kB / 4 kB micro-benchmarks).
    pub payload: usize,
    /// Explicit operation bytes (macro-benchmark); overrides `payload` when set.
    pub op_bytes: Option<Bytes>,
    /// Simulated measurement duration.
    pub duration: SimDuration,
    /// Warm-up period excluded from throughput accounting.
    pub warmup: SimDuration,
    /// Crypto cost model (the paper's RSA-1024/HMAC model for CPU experiments).
    pub cost_model: CostModel,
    /// Per-node uplink bandwidth.
    pub uplink: Bandwidth,
    /// RNG seed.
    pub seed: u64,
    /// Batch size (20 in the paper).
    pub batch_size: usize,
    /// Request-path pipelining (XPaxos only). The baselines' leaders propose
    /// every queued request at once with no in-flight limit, so figure
    /// comparisons default to the pipelined [`PipelineConfig::default`]:
    /// stop-and-wait XPaxos against pipelining baselines would put a
    /// one-batch-per-round-trip knee on the XPaxos curve alone.
    pub pipeline: PipelineConfig,
}

impl RunSpec {
    /// A default micro-benchmark spec for the given protocol and client count.
    pub fn micro(protocol: ProtocolUnderTest, t: usize, clients: usize, payload: usize) -> Self {
        RunSpec {
            protocol,
            t,
            clients,
            payload,
            op_bytes: None,
            duration: SimDuration::from_secs(10),
            warmup: SimDuration::from_secs(2),
            cost_model: CostModel::paper_default(),
            uplink: Bandwidth::mbps(1000.0),
            seed: 7,
            batch_size: 20,
            pipeline: PipelineConfig::default(),
        }
    }
}

/// The outcome of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// Committed operations per second over the measurement window (kops/s).
    pub throughput_kops: f64,
    /// Mean end-to-end client latency (ms).
    pub mean_latency_ms: f64,
    /// 99th-percentile client latency (ms).
    pub p99_latency_ms: f64,
    /// CPU utilisation of the most loaded replica, in percent of one core.
    pub cpu_percent: f64,
    /// Total committed requests.
    pub committed: u64,
}

/// Runs one experiment and returns its result.
pub fn run(spec: &RunSpec) -> RunResult {
    run_with_state(spec, || Box::new(NullService::new()))
}

/// Runs one experiment with a custom replicated state machine (used by the ZooKeeper
/// macro-benchmark).
pub fn run_with_state(
    spec: &RunSpec,
    state: impl Fn() -> Box<dyn StateMachine> + Clone + 'static,
) -> RunResult {
    let regions = spec.protocol.placement(spec.t);
    let client_region = regions[0]; // clients are co-located with the primary
    let total = spec.warmup + spec.duration;

    match spec.protocol {
        ProtocolUnderTest::XPaxos => {
            let workload = ClientWorkload {
                payload_size: spec.payload,
                requests: None,
                think_time: SimDuration::ZERO,
                op_bytes: spec.op_bytes.clone(),
                ..Default::default()
            };
            let mut cluster = ClusterBuilder::new(spec.t, spec.clients)
                .with_seed(spec.seed)
                .with_latency(LatencySpec::Ec2 {
                    replica_regions: regions,
                    client_region,
                })
                .with_workload(workload)
                .with_cost_model(spec.cost_model)
                .with_uplink(spec.uplink)
                .with_state_machine(state)
                .with_config(|c| c.with_batch_size(spec.batch_size))
                .with_pipeline(spec.pipeline.clone())
                .build();
            cluster.run_for(total);
            summarize(
                cluster.sim.metrics(),
                spec,
                cluster.sim.metrics().most_loaded_node().unwrap_or(0),
                total,
            )
        }
        ProtocolUnderTest::Baseline(protocol) => {
            let mut builder = BaselineClusterBuilder::new(protocol, spec.t, spec.clients)
                .with_seed(spec.seed)
                .with_payload(spec.payload)
                .with_batch_size(spec.batch_size)
                .with_latency(LatencySpec::Ec2 {
                    replica_regions: regions,
                    client_region,
                })
                .with_cost_model(spec.cost_model)
                .with_uplink(spec.uplink)
                .with_state_machine(state);
            if let Some(op) = &spec.op_bytes {
                builder = builder.with_op_bytes(op.clone());
            }
            let mut cluster = builder.build();
            cluster.run_for(total);
            summarize(
                cluster.sim.metrics(),
                spec,
                cluster.sim.metrics().most_loaded_node().unwrap_or(0),
                total,
            )
        }
    }
}

fn summarize(
    metrics: &xft_simnet::Metrics,
    spec: &RunSpec,
    most_loaded: usize,
    total: SimDuration,
) -> RunResult {
    let start = xft_simnet::SimTime::ZERO + spec.warmup;
    let end = xft_simnet::SimTime::ZERO + total;
    let tput = metrics.throughput_ops(start, end);
    RunResult {
        throughput_kops: tput / 1000.0,
        mean_latency_ms: metrics.mean_latency_ms(),
        p99_latency_ms: metrics.latency_percentile_ms(0.99),
        cpu_percent: metrics.cpu_percent(most_loaded, total),
        committed: metrics.committed() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xpaxos_and_paxos_have_similar_latency_and_beat_pbft() {
        // Scaled-down Figure 7a points: 1 kB requests, Table 4 placement.
        let result_for = |p: ProtocolUnderTest, clients: usize| {
            let mut spec = RunSpec::micro(p, 1, clients, 1024);
            spec.duration = SimDuration::from_secs(5);
            spec.warmup = SimDuration::from_secs(1);
            run(&spec)
        };
        let xpaxos = result_for(ProtocolUnderTest::XPaxos, 20);
        let paxos = result_for(ProtocolUnderTest::Baseline(BaselineProtocol::PaxosWan), 20);
        let pbft = result_for(
            ProtocolUnderTest::Baseline(BaselineProtocol::PbftSpeculative),
            20,
        );
        assert!(xpaxos.committed > 0 && paxos.committed > 0 && pbft.committed > 0);
        // XPaxos and Paxos both need one CA↔VA round trip: within 25 ms of each other.
        assert!(
            (xpaxos.mean_latency_ms - paxos.mean_latency_ms).abs() < 25.0,
            "XPaxos {} vs Paxos {}",
            xpaxos.mean_latency_ms,
            paxos.mean_latency_ms
        );
        // PBFT's cohort includes Tokyo, so it must be clearly slower.
        assert!(pbft.mean_latency_ms > xpaxos.mean_latency_ms + 20.0);

        // At 200 clients the backlog exceeds 8 in-flight batches × 20, which
        // is where a per-batch request cap or a stop-and-wait XPaxos would
        // fall off the Paxos curve; both still need one round trip.
        let xpaxos = result_for(ProtocolUnderTest::XPaxos, 200);
        let paxos = result_for(ProtocolUnderTest::Baseline(BaselineProtocol::PaxosWan), 200);
        assert!(
            xpaxos.throughput_kops >= 0.8 * paxos.throughput_kops,
            "200 clients: XPaxos {:.2} kops/s vs Paxos {:.2} kops/s",
            xpaxos.throughput_kops,
            paxos.throughput_kops
        );
        assert!(
            (xpaxos.mean_latency_ms - paxos.mean_latency_ms).abs() < 25.0,
            "200 clients: XPaxos {} ms vs Paxos {} ms",
            xpaxos.mean_latency_ms,
            paxos.mean_latency_ms
        );
    }

    #[test]
    fn xpaxos_cpu_exceeds_paxos_cpu_at_similar_throughput() {
        // Figure 8's qualitative claim: XPaxos burns more CPU (signatures) than the
        // MAC-based protocols at comparable throughput.
        let result_for = |p: ProtocolUnderTest| {
            let mut spec = RunSpec::micro(p, 1, 50, 1024);
            spec.duration = SimDuration::from_secs(5);
            spec.warmup = SimDuration::from_secs(1);
            run(&spec)
        };
        let xpaxos = result_for(ProtocolUnderTest::XPaxos);
        let paxos = result_for(ProtocolUnderTest::Baseline(BaselineProtocol::PaxosWan));
        assert!(
            xpaxos.cpu_percent > paxos.cpu_percent,
            "XPaxos CPU {} should exceed Paxos CPU {}",
            xpaxos.cpu_percent,
            paxos.cpu_percent
        );
    }
}
