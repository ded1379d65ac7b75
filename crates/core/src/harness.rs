//! Cluster builder and verification helpers: glue between XPaxos and the simulator.
//!
//! The harness builds a complete cluster (replicas + clients) on a chosen latency
//! model, runs it, and checks the paper's safety property (total order, Theorem 1)
//! across replicas after the run.

use crate::client::{Client, ClientWorkload};
use crate::config::XPaxosConfig;
use crate::node::XPaxosNode;
use crate::replica::Replica;
use crate::state_machine::{DigestChainService, StateMachine};
use crate::types::{ClientId, ReplicaId, SeqNum};
use std::collections::BTreeMap;
use std::sync::Arc;
use xft_crypto::{CostModel, Digest, KeyRegistry};
use xft_simnet::{
    ec2_latency_model, Bandwidth, ConstantLatency, LatencyModel, Region, SimConfig, SimDuration,
    SimTime, Simulation, UniformLatency,
};

/// Which latency model the cluster runs on.
#[derive(Debug, Clone)]
pub enum LatencySpec {
    /// Constant one-way latency between distinct nodes.
    Constant(SimDuration),
    /// Uniformly jittered latency.
    Uniform(SimDuration, SimDuration),
    /// The paper's EC2 matrix: replicas placed in `replica_regions` (index = replica
    /// id) and every client co-located in `client_region`.
    Ec2 {
        /// Region of each replica.
        replica_regions: Vec<Region>,
        /// Region hosting all clients (the paper co-locates clients with the primary).
        client_region: Region,
    },
}

/// Builder for an XPaxos cluster simulation.
pub struct ClusterBuilder {
    config: XPaxosConfig,
    clients: usize,
    seed: u64,
    workload_factory: Box<dyn Fn(usize) -> ClientWorkload>,
    latency: LatencySpec,
    uplink: Bandwidth,
    cost_model: CostModel,
    trace_messages: bool,
    state_factory: Box<dyn Fn() -> Box<dyn StateMachine>>,
    storage_factory: Option<StorageFactory>,
    telemetry_factory: Option<TelemetryFactory>,
    evidence: bool,
}

/// Per-replica stable-storage constructor (see
/// [`ClusterBuilder::with_storage_factory`]).
type StorageFactory = Box<dyn Fn(ReplicaId) -> Box<dyn xft_store::Storage>>;

/// Per-replica telemetry-hub constructor (see
/// [`ClusterBuilder::with_telemetry_factory`]).
type TelemetryFactory = Box<dyn Fn(ReplicaId) -> std::sync::Arc<xft_telemetry::Telemetry>>;

impl ClusterBuilder {
    /// Creates a builder for a cluster tolerating `t` faults with `clients` clients.
    pub fn new(t: usize, clients: usize) -> Self {
        ClusterBuilder {
            config: XPaxosConfig::new(t, clients),
            clients,
            seed: 1,
            workload_factory: Box::new(|_| ClientWorkload::default()),
            latency: LatencySpec::Constant(SimDuration::from_millis(1)),
            uplink: Bandwidth::UNLIMITED,
            cost_model: CostModel::free(),
            trace_messages: false,
            state_factory: Box::new(|| Box::new(DigestChainService::new())),
            storage_factory: None,
            telemetry_factory: None,
            evidence: false,
        }
    }

    /// Overrides the protocol configuration (Δ, batch size, FD, …). The replica/client
    /// node layout is preserved.
    pub fn with_config(mut self, f: impl FnOnce(XPaxosConfig) -> XPaxosConfig) -> Self {
        let nodes = (
            self.config.replica_nodes.clone(),
            self.config.client_nodes.clone(),
        );
        self.config = f(self.config);
        self.config.replica_nodes = nodes.0;
        self.config.client_nodes = nodes.1;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the same workload for every client.
    pub fn with_workload(self, workload: ClientWorkload) -> Self {
        self.with_workload_factory(move |_| workload.clone())
    }

    /// Sets a per-client workload (the factory receives the client index), so
    /// simulated clients can be parameterized exactly like the `xpaxos-client`
    /// binary parameterizes its workers.
    pub fn with_workload_factory(
        mut self,
        factory: impl Fn(usize) -> ClientWorkload + 'static,
    ) -> Self {
        self.workload_factory = Box::new(factory);
        self
    }

    /// Sets the request-path pipeline knobs (client window, in-flight batch
    /// limit, admission bound) for every node.
    pub fn with_pipeline(mut self, pipeline: xft_simnet::PipelineConfig) -> Self {
        self.config.pipeline = pipeline;
        self
    }

    /// Sets the latency model.
    pub fn with_latency(mut self, latency: LatencySpec) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the uniform per-node uplink bandwidth.
    pub fn with_uplink(mut self, uplink: Bandwidth) -> Self {
        self.uplink = uplink;
        self
    }

    /// Sets the crypto cost model (use [`CostModel::paper_default`] for CPU experiments).
    pub fn with_cost_model(mut self, cost_model: CostModel) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// Enables message tracing (for message-pattern tests).
    pub fn with_tracing(mut self, enabled: bool) -> Self {
        self.trace_messages = enabled;
        self
    }

    /// Sets the replicated state machine factory (defaults to [`DigestChainService`]).
    pub fn with_state_machine(
        mut self,
        factory: impl Fn() -> Box<dyn StateMachine> + 'static,
    ) -> Self {
        self.state_factory = Box::new(factory);
        self
    }

    /// Attaches stable storage to every replica (the factory receives the
    /// replica id). Simulated clusters use [`xft_store::MemStorage`], which
    /// keeps the run deterministic while giving the disk-fault injection
    /// controls (torn WAL tail, corrupt record) something real to damage.
    pub fn with_storage_factory(
        mut self,
        factory: impl Fn(ReplicaId) -> Box<dyn xft_store::Storage> + 'static,
    ) -> Self {
        self.storage_factory = Some(Box::new(factory));
        self
    }

    /// Attaches a telemetry hub to every replica (by replica id). Telemetry
    /// is observation-only and timestamped with the simulation's virtual
    /// clock, so an enabled hub does not perturb determinism — the
    /// fingerprint of a run is identical with telemetry on or off.
    pub fn with_telemetry_factory(
        mut self,
        factory: impl Fn(ReplicaId) -> std::sync::Arc<xft_telemetry::Telemetry> + 'static,
    ) -> Self {
        self.telemetry_factory = Some(Box::new(factory));
        self
    }

    /// Attaches an in-memory evidence log to every replica. Evidence
    /// recording is observation-only (hash-chained journal of accountable
    /// traffic); the forensics auditor harvests the logs after a run via
    /// [`XPaxosCluster::replica`] + `Replica::evidence`.
    pub fn with_evidence(mut self, on: bool) -> Self {
        self.evidence = on;
        self
    }

    /// Builds the cluster.
    pub fn build(self) -> XPaxosCluster {
        let n = self.config.n();
        let total_nodes = n + self.clients;
        let latency: Box<dyn LatencyModel> = match &self.latency {
            LatencySpec::Constant(d) => Box::new(ConstantLatency(*d)),
            LatencySpec::Uniform(lo, hi) => Box::new(UniformLatency { min: *lo, max: *hi }),
            LatencySpec::Ec2 {
                replica_regions,
                client_region,
            } => {
                assert_eq!(
                    replica_regions.len(),
                    n,
                    "need one region per replica (n = {n})"
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
        let mut sim: Simulation<XPaxosNode> = Simulation::new(sim_config, latency, self.uplink);

        let registry = KeyRegistry::new(self.seed ^ 0x5eed);
        for r in 0..n {
            let mut replica =
                Replica::new(r, self.config.clone(), &registry, (self.state_factory)());
            if let Some(factory) = self.storage_factory.as_ref() {
                replica = replica.with_storage(factory(r));
            }
            if let Some(factory) = self.telemetry_factory.as_ref() {
                replica = replica.with_telemetry(factory(r));
            }
            if self.evidence {
                replica = replica.with_evidence_log(crate::evidence::EvidenceLog::in_memory());
            }
            let node = sim.add_node(XPaxosNode::Replica(Box::new(replica)));
            debug_assert_eq!(node, self.config.replica_nodes[r]);
        }
        for c in 0..self.clients {
            let client = Client::new(
                ClientId(c as u64),
                self.config.clone(),
                &registry,
                (self.workload_factory)(c),
            );
            let node = sim.add_node(XPaxosNode::Client(Box::new(client)));
            debug_assert_eq!(node, self.config.client_nodes[c]);
        }
        assert_eq!(sim.node_count(), total_nodes);

        XPaxosCluster {
            sim,
            config: self.config,
            registry,
        }
    }
}

/// Checks the paper's total-order safety property (Theorem 1): for every
/// sequence number executed by two of `replicas`, the executed batch must be
/// identical. Returns an error describing the first divergence found. Works on
/// simulated replicas and on replicas returned by a TCP runtime's shutdown.
///
/// Pass a subset to leave out a replica that was partitioned while it held
/// speculatively executed entries of the t = 1 fast path (§4.2.2): it may
/// hold a divergent suffix that no client committed until it rejoins and
/// repairs through a view change, exactly as the paper's Lemma 1 permits.
pub fn check_total_order(replicas: &[&Replica]) -> Result<(), String> {
    let histories: Vec<BTreeMap<u64, Digest>> = replicas
        .iter()
        .map(|r| {
            r.executed_history()
                .iter()
                .map(|(sn, d)| (sn.0, *d))
                .collect()
        })
        .collect();
    for (i, a) in replicas.iter().enumerate() {
        for (j, b) in replicas.iter().enumerate().skip(i + 1) {
            for (sn, da) in &histories[i] {
                if let Some(db) = histories[j].get(sn) {
                    if da != db {
                        return Err(format!(
                            "total-order violation at sn {sn}: replica {} executed {da:?}, replica {} executed {db:?}",
                            a.id(),
                            b.id()
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// A built XPaxos cluster running in the simulator.
pub struct XPaxosCluster {
    /// The underlying simulation.
    pub sim: Simulation<XPaxosNode>,
    /// The protocol configuration shared by all nodes.
    pub config: XPaxosConfig,
    /// The key registry of the cluster.
    pub registry: Arc<KeyRegistry>,
}

impl XPaxosCluster {
    /// Runs the cluster for a span of simulated time.
    pub fn run_for(&mut self, duration: SimDuration) {
        self.sim.run_for(duration);
    }

    /// Runs the cluster until an absolute simulated time.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.sim.run_until(deadline);
    }

    /// Access to a replica.
    pub fn replica(&self, id: ReplicaId) -> &Replica {
        self.sim.node(self.config.node_of(id)).replica()
    }

    /// Mutable access to a replica (e.g. to inject a Byzantine behaviour).
    pub fn replica_mut(&mut self, id: ReplicaId) -> &mut Replica {
        let node = self.config.node_of(id);
        self.sim.node_mut(node).replica_mut()
    }

    /// Access to a client.
    pub fn client(&self, id: usize) -> &Client {
        self.sim.node(self.config.client_nodes[id]).client()
    }

    /// Total requests committed by all clients.
    pub fn total_committed(&self) -> u64 {
        (0..self.config.client_nodes.len())
            .map(|c| self.client(c).committed())
            .sum()
    }

    /// Checks the paper's total-order safety property across all replicas
    /// (see [`check_total_order`]).
    pub fn check_total_order(&self) -> Result<(), String> {
        check_total_order(&(0..self.n()).map(|r| self.replica(r)).collect::<Vec<_>>())
    }

    /// The highest sequence number executed by any replica.
    pub fn max_executed(&self) -> SeqNum {
        (0..self.config.n())
            .map(|r| self.replica(r).executed_upto())
            .max()
            .unwrap_or(SeqNum(0))
    }

    /// Convenience: number of replicas.
    pub fn n(&self) -> usize {
        self.config.n()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_expected_layout() {
        let cluster = ClusterBuilder::new(1, 2).with_seed(3).build();
        assert_eq!(cluster.n(), 3);
        assert_eq!(cluster.sim.node_count(), 5);
        assert_eq!(cluster.replica(0).id(), 0);
        assert_eq!(cluster.client(1).id(), ClientId(1));
    }

    #[test]
    fn small_cluster_commits_requests_and_stays_consistent() {
        let mut cluster = ClusterBuilder::new(1, 2)
            .with_seed(7)
            .with_latency(LatencySpec::Constant(SimDuration::from_millis(5)))
            .with_workload(ClientWorkload {
                payload_size: 128,
                requests: Some(20),
                think_time: SimDuration::ZERO,
                op_bytes: None,
                ..Default::default()
            })
            .build();
        cluster.run_for(SimDuration::from_secs(30));
        assert_eq!(cluster.total_committed(), 40);
        assert!(cluster.max_executed().0 > 0);
        cluster.check_total_order().expect("total order holds");
    }

    #[test]
    fn t2_cluster_commits_through_general_path() {
        let mut cluster = ClusterBuilder::new(2, 2)
            .with_seed(11)
            .with_latency(LatencySpec::Constant(SimDuration::from_millis(5)))
            .with_workload(ClientWorkload {
                payload_size: 64,
                requests: Some(10),
                think_time: SimDuration::ZERO,
                op_bytes: None,
                ..Default::default()
            })
            .build();
        cluster.run_for(SimDuration::from_secs(30));
        assert_eq!(cluster.total_committed(), 20);
        cluster.check_total_order().expect("total order holds");
    }
}
