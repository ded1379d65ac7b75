//! Builder for baseline-protocol clusters on the simulator, mirroring the XPaxos
//! harness so the benchmark code can drive every protocol uniformly.

use crate::engine::{BaselineClient, BaselineConfig, BaselineNode, BaselineReplica};
use crate::spec::BaselineProtocol;
use std::collections::BTreeMap;
use xft_core::state_machine::{NullService, StateMachine};
use xft_core::types::ClientId;
use xft_crypto::{CostModel, Digest};
use xft_simnet::{
    ec2_latency_model, Bandwidth, ConstantLatency, LatencyModel, Region, SimConfig, SimDuration,
    SimTime, Simulation, UniformLatency,
};

/// Latency model selection (same shape as the XPaxos harness).
#[derive(Debug, Clone)]
pub enum BaselineLatency {
    /// Constant one-way latency.
    Constant(SimDuration),
    /// Uniformly jittered latency.
    Uniform(SimDuration, SimDuration),
    /// EC2 regions: one region per replica, all clients in `client_region`.
    Ec2 {
        /// Region of each replica.
        replica_regions: Vec<Region>,
        /// Region of every client.
        client_region: Region,
    },
}

/// Builder for a baseline cluster.
pub struct BaselineClusterBuilder {
    protocol: BaselineProtocol,
    t: usize,
    clients: usize,
    seed: u64,
    payload_size: usize,
    op_bytes: Option<bytes::Bytes>,
    requests_limit: Option<u64>,
    batch_size: usize,
    latency: BaselineLatency,
    uplink: Bandwidth,
    cost_model: CostModel,
    trace_messages: bool,
    state_factory: Box<dyn Fn() -> Box<dyn StateMachine>>,
}

impl BaselineClusterBuilder {
    /// Creates a builder for `protocol` tolerating `t` faults with `clients` clients.
    pub fn new(protocol: BaselineProtocol, t: usize, clients: usize) -> Self {
        BaselineClusterBuilder {
            protocol,
            t,
            clients,
            seed: 1,
            payload_size: 1024,
            op_bytes: None,
            requests_limit: None,
            batch_size: 20,
            latency: BaselineLatency::Constant(SimDuration::from_millis(1)),
            uplink: Bandwidth::UNLIMITED,
            cost_model: CostModel::free(),
            trace_messages: false,
            state_factory: Box::new(|| Box::new(NullService::new())),
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the request payload size.
    pub fn with_payload(mut self, bytes: usize) -> Self {
        self.payload_size = bytes;
        self
    }

    /// Uses an explicit operation payload instead of zero bytes.
    pub fn with_op_bytes(mut self, op: bytes::Bytes) -> Self {
        self.op_bytes = Some(op);
        self
    }

    /// Limits each client to a number of requests.
    pub fn with_requests_limit(mut self, limit: u64) -> Self {
        self.requests_limit = Some(limit);
        self
    }

    /// Sets the leader batch size.
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        self.batch_size = batch.max(1);
        self
    }

    /// Sets the latency model.
    pub fn with_latency(mut self, latency: BaselineLatency) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the per-node uplink bandwidth.
    pub fn with_uplink(mut self, uplink: Bandwidth) -> Self {
        self.uplink = uplink;
        self
    }

    /// Sets the crypto cost model.
    pub fn with_cost_model(mut self, cost_model: CostModel) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// Enables message tracing.
    pub fn with_tracing(mut self, enabled: bool) -> Self {
        self.trace_messages = enabled;
        self
    }

    /// Sets the replicated state machine factory.
    pub fn with_state_machine(
        mut self,
        factory: impl Fn() -> Box<dyn StateMachine> + 'static,
    ) -> Self {
        self.state_factory = Box::new(factory);
        self
    }

    /// Builds the cluster.
    pub fn build(self) -> BaselineCluster {
        let spec = self.protocol.spec(self.t);
        let mut config = BaselineConfig::new(spec, self.clients);
        config.batch_size = self.batch_size;

        let latency: Box<dyn LatencyModel> = match &self.latency {
            BaselineLatency::Constant(d) => Box::new(ConstantLatency(*d)),
            BaselineLatency::Uniform(lo, hi) => Box::new(UniformLatency { min: *lo, max: *hi }),
            BaselineLatency::Ec2 {
                replica_regions,
                client_region,
            } => {
                assert_eq!(
                    replica_regions.len(),
                    spec.n,
                    "need one region per replica (n = {})",
                    spec.n
                );
                let mut placement = replica_regions.clone();
                placement.extend(std::iter::repeat_n(*client_region, self.clients));
                Box::new(ec2_latency_model(&placement))
            }
        };

        let sim_config = SimConfig {
            seed: self.seed,
            cost_model: self.cost_model,
            trace_messages: self.trace_messages,
            ..SimConfig::default()
        };
        let mut sim: Simulation<BaselineNode> = Simulation::new(sim_config, latency, self.uplink);
        for r in 0..spec.n {
            let replica = BaselineReplica::new(r, config.clone(), (self.state_factory)());
            let node = sim.add_node(BaselineNode::Replica(Box::new(replica)));
            debug_assert_eq!(node, config.replica_nodes[r]);
        }
        for c in 0..self.clients {
            let mut client = BaselineClient::new(
                ClientId(c as u64),
                config.clone(),
                self.payload_size,
                self.requests_limit,
            );
            if let Some(op) = &self.op_bytes {
                client = client.with_op_bytes(op.clone());
            }
            sim.add_node(BaselineNode::Client(Box::new(client)));
        }

        BaselineCluster { sim, config }
    }
}

/// A built baseline cluster.
pub struct BaselineCluster {
    /// The underlying simulation.
    pub sim: Simulation<BaselineNode>,
    /// Cluster configuration.
    pub config: BaselineConfig,
}

impl BaselineCluster {
    /// Runs for a span of simulated time.
    pub fn run_for(&mut self, duration: SimDuration) {
        self.sim.run_for(duration);
    }

    /// Runs until an absolute simulated time.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.sim.run_until(deadline);
    }

    /// Access to a replica.
    pub fn replica(&self, id: usize) -> &BaselineReplica {
        self.sim.node(self.config.replica_nodes[id]).replica()
    }

    /// Access to a client.
    pub fn client(&self, id: usize) -> &BaselineClient {
        self.sim.node(self.config.client_nodes[id]).client()
    }

    /// Total requests committed across all clients.
    pub fn total_committed(&self) -> u64 {
        (0..self.config.client_nodes.len())
            .map(|c| self.client(c).committed())
            .sum()
    }

    /// Checks total order across all replicas' executed histories.
    pub fn check_total_order(&self) -> Result<(), String> {
        let n = self.config.spec.n;
        let mut histories: Vec<BTreeMap<u64, Digest>> = Vec::with_capacity(n);
        for r in 0..n {
            histories.push(
                self.replica(r)
                    .executed_history()
                    .iter()
                    .map(|(sn, d)| (sn.0, *d))
                    .collect(),
            );
        }
        for a in 0..n {
            for b in (a + 1)..n {
                for (sn, da) in &histories[a] {
                    if let Some(db) = histories[b].get(sn) {
                        if da != db {
                            return Err(format!(
                                "total-order violation at sn {sn} between replicas {a} and {b}"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_protocol(protocol: BaselineProtocol) -> (u64, BaselineCluster) {
        let mut cluster = BaselineClusterBuilder::new(protocol, 1, 2)
            .with_seed(9)
            .with_payload(256)
            .with_requests_limit(25)
            .with_latency(BaselineLatency::Constant(SimDuration::from_millis(5)))
            .build();
        cluster.run_for(SimDuration::from_secs(30));
        (cluster.total_committed(), cluster)
    }

    #[test]
    fn every_baseline_commits_its_workload() {
        for protocol in BaselineProtocol::ALL {
            let (committed, cluster) = run_protocol(protocol);
            assert_eq!(committed, 50, "{:?} failed to commit", protocol);
            cluster
                .check_total_order()
                .unwrap_or_else(|e| panic!("{:?}: {e}", protocol));
        }
    }

    #[test]
    fn paxos_has_lower_latency_than_pbft_on_ec2_placement() {
        // On the paper's Table 4 placement the PBFT cohort includes Tokyo, so its
        // prepare round crosses much longer links than Paxos' single CA↔VA round trip:
        // Paxos must commit with clearly lower client latency (Figure 7a).
        let latency = |protocol: BaselineProtocol| {
            let spec = protocol.spec(1);
            let regions = xft_simnet::ec2::table4_placement(spec.n);
            let mut cluster = BaselineClusterBuilder::new(protocol, 1, 1)
                .with_seed(3)
                .with_payload(1024)
                .with_requests_limit(20)
                .with_latency(BaselineLatency::Ec2 {
                    replica_regions: regions,
                    client_region: Region::UsWestCA,
                })
                .build();
            cluster.run_for(SimDuration::from_secs(60));
            assert_eq!(cluster.total_committed(), 20);
            cluster.sim.metrics().mean_latency_ms()
        };
        let paxos = latency(BaselineProtocol::PaxosWan);
        let pbft = latency(BaselineProtocol::PbftSpeculative);
        assert!(
            paxos + 20.0 < pbft,
            "expected Paxos ({paxos:.1} ms) to clearly beat PBFT ({pbft:.1} ms)"
        );
    }

    #[test]
    fn zyzzyva_uses_all_replicas_in_common_case() {
        let mut cluster = BaselineClusterBuilder::new(BaselineProtocol::Zyzzyva, 1, 1)
            .with_seed(5)
            .with_payload(128)
            .with_requests_limit(5)
            .with_latency(BaselineLatency::Constant(SimDuration::from_millis(5)))
            .with_tracing(true)
            .build();
        cluster.run_for(SimDuration::from_secs(10));
        assert_eq!(cluster.total_committed(), 5);
        // The primary's ORDER messages must fan out to all 3t = 3 other replicas.
        let trace = cluster.sim.trace();
        for other in 1..=3 {
            assert!(
                trace.count_between(0, other, "ORDER") > 0,
                "no ORDER to replica {other}"
            );
        }
    }

    #[test]
    fn zab_leader_fans_out_to_all_followers_unlike_paxos() {
        let orders_sent = |protocol| {
            let mut cluster = BaselineClusterBuilder::new(protocol, 1, 1)
                .with_seed(6)
                .with_payload(128)
                .with_requests_limit(10)
                .with_latency(BaselineLatency::Constant(SimDuration::from_millis(5)))
                .with_tracing(true)
                .build();
            cluster.run_for(SimDuration::from_secs(10));
            assert_eq!(cluster.total_committed(), 10);
            (1..cluster.config.spec.n)
                .filter(|r| cluster.sim.trace().count_between(0, *r, "ORDER") > 0)
                .count()
        };
        // Paxos sends the batch to t = 1 follower; Zab to all 2t = 2 followers — the
        // difference the paper credits for XPaxos/Paxos beating Zab in Figure 10.
        assert_eq!(orders_sent(BaselineProtocol::PaxosWan), 1);
        assert_eq!(orders_sent(BaselineProtocol::Zab), 2);
    }
}
