//! Replaying chaos schedules against a *live* loopback-TCP cluster.
//!
//! A sampled subset of schedules also runs over real sockets: the same
//! protocol actors, driven by `xft-net`'s [`TcpRuntime`] instead of the
//! simulator. Crashes stop the node's runtime (state survives, as stable
//! storage does), recoveries restart it on a *fresh* OS-assigned port through
//! the address book, and Byzantine/amnesia control codes are injected through
//! [`NetHandle::inject_control`] — the live counterpart of the simulator's
//! `FaultEvent::Control` path. Client histories are harvested from the client
//! actors at shutdown and judged by the same checker as simulated runs.
//!
//! [`NetHandle::inject_control`]: xft_net::NetHandle::inject_control

use crate::checker::{check_history, decode_history, OpEvent, Violation};
use crate::explorer::SeedReport;
use crate::schedule::{analyze_schedule, generate, ScheduleConfig};
use crate::workload::chaos_workload;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xft_core::client::Client;
use xft_core::replica::Replica;
use xft_core::types::ClientId;
use xft_core::XPaxosConfig;
use xft_crypto::KeyRegistry;
use xft_kvstore::CoordinationService;
use xft_net::runtime::{NetConfig, NodeThread, StartMode, TcpRuntime};
use xft_net::{bind_loopback_cluster, check_total_order, register_cluster_keys, AddressBook};
use xft_simnet::{Actor, FaultEvent, PipelineConfig, SimDuration};
use xft_wire::{WireDecode, WireEncode};

/// Knobs of a live-socket chaos run.
#[derive(Debug, Clone)]
pub struct TcpChaosConfig {
    /// Fault threshold (`n = 2t + 1` replica runtimes).
    pub t: usize,
    /// Client runtimes.
    pub clients: usize,
    /// Chaos keyspace size.
    pub keys: usize,
    /// Percentage of reads.
    pub read_pct: u64,
    /// Wall-clock fault-injection window.
    pub fault_window: Duration,
    /// Wall-clock drain after the last repair.
    pub drain: Duration,
    /// Maximum fault events per schedule.
    pub max_events: usize,
    /// Lift the budget (safety violations become expected).
    pub beyond_budget: bool,
    /// Checkpoint interval in sequence numbers (0 disables).
    pub checkpoint_interval: u64,
}

impl Default for TcpChaosConfig {
    fn default() -> Self {
        TcpChaosConfig {
            t: 1,
            clients: 2,
            keys: 4,
            read_pct: 35,
            fault_window: Duration::from_millis(2500),
            drain: Duration::from_millis(2500),
            max_events: 4,
            beyond_budget: false,
            checkpoint_interval: 32,
        }
    }
}

/// Starts `actor` as node `node` on a thread of its own, on the run's shared
/// clock `origin`.
fn spawn_node<A: Actor + Send + 'static>(
    actor: A,
    node: usize,
    book: &Arc<AddressBook>,
    listener: TcpListener,
    mode: StartMode,
    seed: u64,
    origin: Instant,
) -> NodeThread<A>
where
    A::Msg: WireEncode + WireDecode + Send + 'static,
{
    let config = NetConfig {
        seed: seed ^ node as u64,
        reconnect_delay: Duration::from_millis(40),
        // One shared clock origin: history timestamps from different
        // nodes must be comparable for the checker's real-time order.
        origin: Some(origin),
        ..NetConfig::default()
    };
    TcpRuntime::start(actor, node, book.clone(), listener, config, mode)
        .expect("start runtime")
        .spawn(format!("chaos-node-{node}"))
}

/// Runs one seeded crash/recovery/control schedule over live loopback
/// sockets and returns the same structured report as the simulated explorer.
pub fn run_seed_tcp(seed: u64, cfg: &TcpChaosConfig) -> SeedReport {
    let n = 2 * cfg.t + 1;
    let schedule_cfg = ScheduleConfig {
        t: cfg.t,
        clients: cfg.clients,
        fault_window: SimDuration::from_nanos(cfg.fault_window.as_nanos() as u64),
        max_events: cfg.max_events,
        beyond_budget: cfg.beyond_budget,
        tcp_compatible: true,
    };
    let events = generate(seed, &schedule_cfg).into_sorted_events();
    let analysis = analyze_schedule(n, &events);

    // Checkpointing stays on over real sockets too: live clusters truncate
    // their logs and lagging replicas rejoin through wire-codec state
    // transfer, exactly like the simulated runs.
    let mut config = XPaxosConfig::new(cfg.t, cfg.clients)
        .with_delta(SimDuration::from_millis(150))
        .with_client_retransmit(SimDuration::from_millis(400))
        .with_checkpoint_interval(cfg.checkpoint_interval)
        .with_pipeline(PipelineConfig::default().with_client_window(3));
    config.replica_retransmit = SimDuration::from_millis(500);

    let origin = Instant::now();
    let registry = KeyRegistry::new(seed ^ 0x5eed);
    register_cluster_keys(&registry, &config);
    let (mut listeners, book) = bind_loopback_cluster(n + cfg.clients).expect("bind cluster");

    let mut replicas: Vec<Option<NodeThread<Replica>>> = Vec::new();
    for (r, listener) in listeners.drain(..n).enumerate() {
        let replica = Replica::new(
            r,
            config.clone(),
            &registry,
            Box::new(CoordinationService::new()),
        );
        replicas.push(Some(spawn_node(
            replica,
            r,
            &book,
            listener,
            StartMode::Fresh,
            seed,
            origin,
        )));
    }
    let mut clients: Vec<NodeThread<Client>> = Vec::new();
    for (c, listener) in listeners.drain(..).enumerate() {
        let workload = chaos_workload(seed, c as u64, cfg.keys, cfg.read_pct);
        let client = Client::new(ClientId(c as u64), config.clone(), &registry, workload);
        clients.push(spawn_node(
            client,
            n + c,
            &book,
            listener,
            StartMode::Fresh,
            seed,
            origin,
        ));
    }

    // Drive the schedule on the wall clock; event times are offsets from
    // now. Crashed replica state is parked locally — stable storage — until
    // the matching recovery respawns it on a fresh OS-assigned port.
    let mut parked: std::collections::BTreeMap<usize, Replica> = std::collections::BTreeMap::new();
    let start = Instant::now();
    for (at, event) in &events {
        let offset = Duration::from_nanos(at.as_nanos());
        if let Some(wait) = offset.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        match event {
            FaultEvent::Crash(r) => {
                if let Some(runner) = replicas[*r].take() {
                    parked.insert(*r, runner.stop());
                }
            }
            FaultEvent::Recover(r) => {
                if let Some(actor) = parked.remove(r) {
                    let listener = TcpListener::bind("127.0.0.1:0").expect("bind recovery port");
                    replicas[*r] = Some(spawn_node(
                        actor,
                        *r,
                        &book,
                        listener,
                        StartMode::Recovered,
                        seed,
                        origin,
                    ));
                }
            }
            FaultEvent::Control(r, code) => {
                if let Some(runner) = replicas[*r].as_ref() {
                    runner.handle().inject_control(*code);
                }
            }
            _ => {}
        }
    }
    let committed_at_heal: u64 = clients.iter().map(|c| c.handle().committed()).sum();
    let drain_deadline = cfg.fault_window + cfg.drain;
    if let Some(wait) = drain_deadline.checked_sub(start.elapsed()) {
        std::thread::sleep(wait);
    }
    // Wall-clock drains are at the mercy of the host scheduler: on a loaded
    // machine a post-crash reconnect can eat the whole drain. Before judging
    // liveness, give a stalled cluster one extra drain period — a genuine
    // wedge stays wedged, a slow CI box gets its commits in.
    if clients.iter().map(|c| c.handle().committed()).sum::<u64>() <= committed_at_heal {
        std::thread::sleep(cfg.drain);
    }

    // Tear down: clients first (stops new load), then replicas.
    let mut committed = 0u64;
    let mut ops: Vec<OpEvent> = Vec::new();
    for (c, runner) in clients.into_iter().enumerate() {
        committed += runner.handle().committed();
        let actor = runner.stop();
        ops.extend(decode_history(c as u64, &actor.history()));
    }
    let final_replicas: Vec<Replica> = replicas
        .into_iter()
        .enumerate()
        .map(|(r, slot)| match slot {
            Some(runner) => runner.stop(),
            None => parked.remove(&r).expect("crashed replica state parked"),
        })
        .collect();

    let mut violations = check_history(&ops);
    let clean: Vec<&Replica> = final_replicas
        .iter()
        .filter(|r| !analysis.touched.contains(&r.id()))
        .collect();
    if clean.len() >= 2 {
        if let Err(detail) = check_total_order(&clean) {
            violations.push(Violation::TotalOrderDivergence { detail });
        }
    }
    if !cfg.beyond_budget && analysis.peak_budget <= cfg.t && committed <= committed_at_heal {
        violations.push(Violation::NoProgressAfterHeal);
    }

    SeedReport {
        seed,
        events,
        committed,
        committed_after_heal: committed.saturating_sub(committed_at_heal),
        violations,
        peak_budget: analysis.peak_budget,
        fingerprint: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_socket_chaos_seed_is_clean() {
        // One short in-budget schedule over real loopback sockets: the
        // history checker and cross-replica check must both pass.
        let cfg = TcpChaosConfig {
            fault_window: Duration::from_millis(1500),
            drain: Duration::from_millis(2000),
            max_events: 2,
            ..Default::default()
        };
        let report = run_seed_tcp(3, &cfg);
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert!(report.committed > 0, "no commits over TCP");
    }
}
