//! The three TCP workloads: a t = 1 XPaxos cluster in one process, over real
//! loopback sockets, driven by one `MuxClient` load generator.
//!
//! The three `Replica`s run on `TcpRuntime` over `bind_loopback_cluster`
//! sockets, each on a thread named `bench-replica-<id>`; the load generator
//! is one `MuxClient` on the `bench-client` thread with one socket endpoint.
//! The server configuration is identical across the workloads (see
//! [`server_config`]); they differ only in the client count and window and
//! in whether the replicas run on durable storage with evidence recording.
//!
//! Loopback injects no message delay, so every latency here is CPU + kernel +
//! scheduling time only, and signatures are the HMAC-SHA-256 stand-ins of
//! `xft-crypto::sig`.

use crate::opgen::{OpGen, KEYSPACE};
use crate::procfs::{self, Group, Ledger, Roles};
use crate::stats::{median_or_zero, percentile_sorted, samples_beyond};
use crate::trace::{SmProbe, SpanSink, StoreProbe, TimedStateMachine, TimedStorage};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xft_core::client::{Client, MuxClient};
use xft_core::evidence::EvidenceLog;
use xft_core::messages::XPaxosMsg;
use xft_core::replica::Replica;
use xft_core::state_machine::StateMachine;
use xft_core::sync_group::SyncGroups;
use xft_core::types::{ClientId, SeqNum, ViewNumber};
use xft_core::XPaxosConfig;
use xft_crypto::{Digest, KeyRegistry};
use xft_kvstore::CoordinationService;
use xft_net::runtime::NetHandle;
use xft_net::transport::TransportStats;
use xft_net::{
    bind_loopback_cluster, check_total_order, register_cluster_keys, NetConfig, StartMode,
    TcpRuntime,
};
use xft_simnet::{Metrics, PipelineConfig, SimDuration};
use xft_store::{DiskStorage, SyncPolicy};
use xft_telemetry::Telemetry;

/// Fault threshold of every workload.
const T: usize = 1;
/// Replicas, `2t + 1`.
const N: usize = 2 * T + 1;
/// Client slots the servers are configured with. Every workload's servers
/// get the same count; `tcp_lone` simply uses one of them.
const CLIENT_SLOTS: usize = 64;
/// Shortest warm-up, counted from the moment the clients start; it also
/// lasts until every key exists on the primary.
pub const WARMUP_MIN: Duration = Duration::from_secs(2);
/// How long the cluster may take to reach a state the benchmark waits for.
const PATIENCE: Duration = Duration::from_secs(60);
/// `ledger.unattributed_pct` above this fails the run.
const MAX_UNATTRIBUTED_PCT: f64 = 2.0;
/// How long the idle cluster is watched for `net.idle_cpu_cores`.
const IDLE_WINDOW: Duration = Duration::from_secs(2);

/// What distinguishes one TCP workload from another.
#[derive(Debug, Clone, Copy)]
pub struct TcpSpec {
    /// Workload name.
    pub name: &'static str,
    /// Closed-loop sub-clients inside the one `MuxClient`.
    pub sub_clients: usize,
    /// Requests each sub-client keeps in flight.
    pub window: usize,
    /// Durable storage (`SyncPolicy::every(1).overlapped()`) plus a threaded
    /// evidence log (`every(64).overlapped()`) on every replica.
    pub durable: bool,
}

/// The server configuration shared by every TCP workload: batch size 256,
/// 16 batches in flight, the default checkpoint interval (128), Δ = 5 000 ms
/// and a 2 000 ms client retransmission timeout as in the legacy perf smoke.
pub fn server_config() -> XPaxosConfig {
    XPaxosConfig::new(T, CLIENT_SLOTS)
        .with_delta(SimDuration::from_millis(5000))
        .with_client_retransmit(SimDuration::from_millis(2000))
        .with_batch_size(256)
        .with_pipeline(PipelineConfig::default().with_max_in_flight(16))
}

/// One timed round's raw measurements.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Ops committed in the round.
    pub ops: u64,
    /// Wall-clock length in seconds.
    pub secs: f64,
    /// Process CPU (all threads) consumed, in nanoseconds.
    pub cpu_ns: u64,
    /// Median commit latency in nanoseconds.
    pub p50_ns: u64,
    /// 90th-percentile commit latency in nanoseconds.
    pub p90_ns: u64,
    /// 95th-percentile commit latency in nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile commit latency in nanoseconds.
    pub p99_ns: u64,
    /// Latency samples beyond the p99 position.
    pub beyond_p99: usize,
}

/// Everything one TCP run measured.
#[derive(Debug, Default)]
pub struct TcpOutcome {
    /// Seconds from workload start to the first timed round, per set-up.
    pub setup_s: Vec<f64>,
    /// The timed rounds, in order.
    pub rounds: Vec<Round>,
    /// Thread ledger over the whole timed phase.
    pub ledger: Ledger,
    /// Ops committed over the whole timed phase.
    pub timed_ops: u64,
    /// Ops the clients issued over the cluster's life.
    pub issued: u64,
    /// Ops the primary executed over the cluster's life.
    pub executed: u64,
    /// Peak resident set at workload end, MB.
    pub peak_rss_mb: f64,
    /// Per-layer numbers by metric name.
    pub layer: BTreeMap<&'static str, f64>,
    /// Span sinks of a traced run, indexed by replica id.
    pub sinks: Vec<Arc<SpanSink>>,
    /// Replica id of the primary.
    pub primary: usize,
    /// Wall-clock seconds of the run's phases, in order.
    pub phases: Vec<(&'static str, f64)>,
}

impl TcpOutcome {
    /// Median over rounds of a per-round quantity.
    pub fn median_of(&self, f: impl Fn(&Round) -> f64) -> f64 {
        median_or_zero(&self.rounds.iter().map(f).collect::<Vec<_>>())
    }

    /// Process CPU µs per committed op over the whole timed phase.
    pub fn cpu_us_per_op(&self) -> f64 {
        self.ledger.total_cpu_ns() as f64 / 1e3 / self.timed_ops.max(1) as f64
    }
}

/// A node runtime on its own named thread.
struct Node<A> {
    handle: Arc<NetHandle>,
    stats: Arc<TransportStats>,
    thread: JoinHandle<(A, Metrics)>,
}

impl<A> Node<A> {
    fn join(self, what: &str) -> Result<(A, Metrics), String> {
        self.thread
            .join()
            .map_err(|_| format!("{what} thread panicked"))
    }
}

/// Removes the run's temporary data directories however the run ends.
struct TempRoot(PathBuf);

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Flags and counters shared with the `bench-client` thread.
#[derive(Default)]
struct ClientControl {
    /// Set by the main thread: stop driving the client actor.
    stop: AtomicBool,
    /// Set by the client thread once stopped: ops issued so far + 1 (0 = not
    /// yet published).
    issued_plus_one: AtomicU64,
    /// Set by the main thread: tear the client runtime down.
    release: AtomicBool,
}

/// A live cluster under load.
struct Cluster {
    config: XPaxosConfig,
    registry: Arc<KeyRegistry>,
    roles: Roles,
    replicas: Vec<Node<Replica>>,
    client: Node<MuxClient>,
    control: Arc<ClientControl>,
    sm_probes: Vec<Arc<SmProbe>>,
    wal_probes: Vec<Arc<StoreProbe>>,
    evidence_probes: Vec<Arc<StoreProbe>>,
    telemetry: Vec<Arc<Telemetry>>,
    sinks: Vec<Arc<SpanSink>>,
    data: Option<TempRoot>,
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) -> Result<(), String> {
    let start = Instant::now();
    while !done() {
        if start.elapsed() > PATIENCE {
            return Err(format!("timed out after {PATIENCE:?} waiting for {what}"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Ok(())
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Size of the service snapshot once every key exists.
fn full_state_bytes(gen: &OpGen, clients: usize) -> u64 {
    let mut svc = CoordinationService::new();
    for client in 0..clients as u64 {
        for ts in 1..=gen.first_pass_len() {
            svc.apply(&gen.op(client, ts));
        }
    }
    debug_assert_eq!(svc.tree().len() as u64, KEYSPACE + 1);
    svc.snapshot().len() as u64
}

fn replica_dirs(root: &Path, id: usize) -> (PathBuf, PathBuf) {
    let base = root.join(format!("r{id}"));
    (base.join("data"), base.join("evidence"))
}

/// Spawns `runtime` on a thread named `name`: the thread runs `drive` with
/// the runtime, then tears the transport down and hands back the actor and
/// the runtime's metrics.
fn spawn_node<A>(
    name: String,
    mut runtime: TcpRuntime<A>,
    drive: impl FnOnce(&mut TcpRuntime<A>) + Send + 'static,
) -> Result<Node<A>, String>
where
    A: xft_simnet::Actor<Msg = XPaxosMsg> + Send + 'static,
{
    let handle = runtime.handle();
    let stats = runtime.transport_stats();
    let thread = std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            drive(&mut runtime);
            let metrics = runtime.metrics().clone();
            (runtime.shutdown(), metrics)
        })
        .map_err(io_err("spawn node thread"))?;
    Ok(Node {
        handle,
        stats,
        thread,
    })
}

/// Stands the cluster up and warms it: bind, key registration, spawn,
/// prefill of the keyspace, warm-up. Returns the live cluster and the seconds
/// all of that took (`setup_s`).
fn setup(spec: TcpSpec, plan: &Plan<'_>) -> Result<(Cluster, f64), String> {
    let started = Instant::now();
    let (seed, traced, out_dir, origin) = (plan.seed, plan.traced, plan.out_dir, plan.origin);
    let config = server_config();
    let registry = KeyRegistry::new(seed ^ 0x5eed);
    register_cluster_keys(&registry, &config);
    let groups = SyncGroups::new(T);
    let active = groups.active_replicas(ViewNumber(0));
    let roles = Roles {
        primary: active[0],
        follower: active[1],
    };
    let gen = OpGen::new(seed, spec.sub_clients);
    let full_bytes = full_state_bytes(&gen, spec.sub_clients);

    let (mut listeners, book) = bind_loopback_cluster(N + 1).map_err(io_err("bind"))?;
    let client_listener = listeners.pop().expect("N + 1 listeners");
    let client_addr = client_listener
        .local_addr()
        .map_err(io_err("client address"))?;
    // Every client slot resolves to the one mux endpoint.
    for slot in 0..CLIENT_SLOTS {
        book.set(N + slot, client_addr);
    }

    let data = if spec.durable {
        let root = out_dir.join(format!("data-{}-{}", std::process::id(), seed));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(io_err("create data dir"))?;
        Some(TempRoot(root))
    } else {
        None
    };

    let mut replicas = Vec::new();
    let (mut sm_probes, mut wal_probes, mut evidence_probes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut telemetry, mut sinks) = (Vec::new(), Vec::new());
    for (id, listener) in listeners.into_iter().enumerate() {
        let hub = if traced {
            let hub = Telemetry::enabled();
            hub.set_delta_ns(config.delta.as_nanos());
            hub
        } else {
            Telemetry::disabled()
        };
        let sink = traced.then(|| SpanSink::new(origin, format!("replica-{id}"), id as u64 + 1));
        let sm_probe = Arc::new(SmProbe::default());
        let state = TimedStateMachine::new(
            Box::new(CoordinationService::new()),
            sm_probe.clone(),
            sink.clone(),
        );
        // The crypto front stays at its default, `FrontMode::Inline`.
        let mut replica = Replica::new(id, config.clone(), &registry, Box::new(state))
            .with_telemetry(hub.clone());
        let mut sync_notifier = None;
        if let Some(root) = &data {
            let (data_dir, evidence_dir) = replica_dirs(&root.0, id);
            let storage = DiskStorage::open(&data_dir, SyncPolicy::every(1).overlapped())
                .map_err(io_err("open data dir"))?
                .with_telemetry(hub.clone());
            sync_notifier = storage.sync_notifier_slot();
            let wal_probe = Arc::new(StoreProbe::default());
            replica = replica.with_storage(Box::new(TimedStorage::new(
                Box::new(storage),
                wal_probe.clone(),
                sink.clone(),
            )));
            wal_probes.push(wal_probe);
            let evidence = DiskStorage::open(&evidence_dir, SyncPolicy::every(64).overlapped())
                .map_err(io_err("open evidence dir"))?;
            let evidence_probe = Arc::new(StoreProbe::default());
            let log = EvidenceLog::new(Box::new(TimedStorage::new(
                Box::new(evidence),
                evidence_probe.clone(),
                None,
            )));
            replica = replica.with_evidence_log(log.into_threaded());
            evidence_probes.push(evidence_probe);
        }
        let net = NetConfig {
            seed,
            origin: Some(origin),
            telemetry: hub.clone(),
            ..NetConfig::default()
        };
        let runtime = TcpRuntime::start(replica, id, book.clone(), listener, net, StartMode::Fresh)
            .map_err(io_err("start replica runtime"))?;
        // As in `xpaxos-server`: each background fsync surfaces as a local
        // SyncDone message releasing the replies gated on the durable LSN.
        if let Some(slot) = sync_notifier {
            let inject = runtime.local_injector();
            let _ = slot.set(Box::new(move |lsn| inject(XPaxosMsg::SyncDone(lsn))));
        }
        replicas.push(spawn_node(
            format!("bench-replica-{id}"),
            runtime,
            |runtime| {
                runtime.run();
            },
        )?);
        sm_probes.push(sm_probe);
        telemetry.push(hub);
        sinks.extend(sink);
    }

    let client_config = config
        .clone()
        .with_pipeline(PipelineConfig::default().with_client_window(spec.window));
    let subs: Vec<Client> = (0..spec.sub_clients as u64)
        .map(|c| {
            Client::new(
                ClientId(c),
                client_config.clone(),
                &registry,
                gen.workload(c),
            )
        })
        .collect();
    let net = NetConfig {
        seed: seed ^ 0xC11E47,
        origin: Some(origin),
        ..NetConfig::default()
    };
    let runtime = TcpRuntime::start(
        MuxClient::new(subs),
        N,
        book,
        client_listener,
        net,
        StartMode::Fresh,
    )
    .map_err(io_err("start client runtime"))?;
    let clients_started = Instant::now();
    let control = Arc::new(ClientControl::default());
    let shared = control.clone();
    let client = spawn_node(
        "bench-client".to_string(),
        runtime,
        move |runtime: &mut TcpRuntime<MuxClient>| {
            // Short slices instead of `run()`: once told to stop, the actor is
            // merely no longer driven, while the transport threads stay up
            // and deliver what it already sent — so every issued op reaches
            // the cluster and can be accounted for.
            while !shared.stop.load(Ordering::Acquire) && !runtime.handle().is_shutdown() {
                runtime.run_for(Duration::from_millis(10));
            }
            let issued: u64 = runtime
                .actor()
                .clients()
                .iter()
                .map(|c| c.committed() + c.in_flight() as u64)
                .sum();
            shared.issued_plus_one.store(issued + 1, Ordering::Release);
            while !shared.release.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(2));
            }
        },
    )?;
    let cluster = Cluster {
        config,
        registry,
        roles,
        replicas,
        client,
        control,
        sm_probes,
        wal_probes,
        evidence_probes,
        telemetry,
        sinks,
        data,
    };

    // Warm-up: at least `warmup_min`, and until every key exists — the primary's
    // checkpoints then snapshot the full-size state, so state size and per-op
    // cost are flat from here on.
    let primary_state = &cluster.sm_probes[roles.primary].state_bytes;
    let warm = wait_until("warm-up (every key written)", || {
        clients_started.elapsed() >= plan.warmup_min
            && primary_state.load(Ordering::Relaxed) == full_bytes
    });
    if let Err(e) = warm {
        let _ = cluster.stop();
        return Err(e);
    }
    Ok((cluster, started.elapsed().as_secs_f64()))
}

/// What the replicas and the client held when the cluster was stopped.
struct Stopped {
    replicas: Vec<(Replica, Metrics)>,
    client_metrics: Metrics,
}

impl Cluster {
    fn committed(&self) -> u64 {
        self.client.handle.committed()
    }

    /// Stops driving the client and returns how many ops it issued in all.
    fn stop_client(&self) -> Result<u64, String> {
        self.control.stop.store(true, Ordering::Release);
        let slot = &self.control.issued_plus_one;
        wait_until("the client to stop", || slot.load(Ordering::Acquire) > 0)?;
        Ok(slot.load(Ordering::Acquire) - 1)
    }

    /// Tears every runtime down and hands the actors back.
    fn stop(self) -> Result<(Stopped, Option<TempRoot>), String> {
        self.control.stop.store(true, Ordering::Release);
        self.control.release.store(true, Ordering::Release);
        let (_, client_metrics) = self.client.join("client")?;
        for node in &self.replicas {
            node.handle.request_shutdown();
        }
        let mut replicas = Vec::new();
        for node in self.replicas {
            replicas.push(node.join("replica")?);
        }
        Ok((
            Stopped {
                replicas,
                client_metrics,
            },
            self.data,
        ))
    }
}

/// How one TCP run is carried out.
#[derive(Debug, Clone, Copy)]
pub struct Plan<'a> {
    /// Workload seed: fixes keys, payloads and signing keys.
    pub seed: u64,
    /// Set-ups to perform; all but the first are torn down again right away
    /// and contribute only their duration.
    pub setups: usize,
    /// Timed rounds, back to back on the same live cluster.
    pub rounds: usize,
    /// Length of one round.
    pub round_len: Duration,
    /// Telemetry on, spans recorded.
    pub traced: bool,
    /// Watch the idle cluster for [`IDLE_WINDOW`] after the clients stop.
    pub idle_probe: bool,
    /// Directory for temporary data dirs (inside the checkout).
    pub out_dir: &'a Path,
    /// Clock origin shared by runtimes and span sinks.
    pub origin: Instant,
    /// Shortest warm-up ([`WARMUP_MIN`] except in a smoke run).
    pub warmup_min: Duration,
}

fn sleep_until(deadline: Instant) {
    std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
}

/// Runs one TCP workload: set-up(s), timed rounds, drain, checks.
pub fn run(spec: TcpSpec, plan: &Plan<'_>) -> Result<TcpOutcome, String> {
    let mut out = TcpOutcome::default();
    let (cluster, secs) = setup(spec, plan)?;
    out.setup_s.push(secs);
    out.primary = cluster.roles.primary;
    measure(cluster, plan, &mut out).map_err(|e| format!("{}: {e}", spec.name))?;
    let measured = Instant::now();
    // The further set-ups come after the measured cluster, which thus ran in
    // a fresh process; each is torn down again at once and contributes only
    // its duration to `setup_s`.
    for _ in 1..plan.setups {
        let (cluster, secs) = setup(spec, plan)?;
        out.setup_s.push(secs);
        cluster.stop()?;
    }
    out.phases
        .push(("further set-ups", measured.elapsed().as_secs_f64()));
    Ok(out)
}

fn measure(cluster: Cluster, plan: &Plan<'_>, out: &mut TcpOutcome) -> Result<(), String> {
    let roles = cluster.roles;
    let primary_probe = cluster.sm_probes[roles.primary].clone();
    let proc_err = io_err("read /proc/self/task");

    // ---- timed phase: `rounds` back-to-back rounds on the live cluster ------
    let state_start = primary_probe.state_bytes.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let c0 = cluster.committed();
    let threads0 = procfs::read_threads().map_err(&proc_err)?;
    let total = |t: &BTreeMap<u64, procfs::ThreadSample>| t.values().map(|s| s.run_ns).sum::<u64>();
    let mut marks = vec![(t0, c0, total(&threads0))];
    let mut threads_end = threads0.clone();
    for round in 1..=plan.rounds as u32 {
        sleep_until(t0 + plan.round_len * round);
        let (now, committed) = (Instant::now(), cluster.committed());
        threads_end = procfs::read_threads().map_err(&proc_err)?;
        marks.push((now, committed, total(&threads_end)));
    }
    let state_end = primary_probe.state_bytes.load(Ordering::Relaxed);
    out.phases.push(("timed", t0.elapsed().as_secs_f64()));
    out.ledger = Ledger::between(&threads0, &threads_end, roles);
    out.timed_ops = marks[plan.rounds].1 - c0;

    // ---- drain: stop issuing, let the cluster execute everything issued ----
    out.issued = cluster.stop_client()?;
    let issued = out.issued;
    let applied = |r: usize| cluster.sm_probes[r].applied.load(Ordering::Relaxed);
    let drained = Instant::now();
    while (applied(roles.primary) < issued || applied(roles.follower) < issued)
        && drained.elapsed() < Duration::from_secs(10)
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    out.executed = applied(roles.primary).min(applied(roles.follower));
    out.phases.push(("drain", drained.elapsed().as_secs_f64()));
    out.peak_rss_mb = procfs::peak_rss_mb().map_err(io_err("read VmHWM"))?;

    let latencies = cluster.client.handle.latencies();
    for pair in marks.windows(2) {
        let ((t_a, c_a, cpu_a), (t_b, c_b, cpu_b)) = (pair[0], pair[1]);
        let mut lat: Vec<u64> = latencies[c_a as usize..c_b as usize]
            .iter()
            .map(|d| d.as_nanos() as u64)
            .collect();
        lat.sort_unstable();
        out.rounds.push(Round {
            ops: c_b - c_a,
            secs: (t_b - t_a).as_secs_f64(),
            cpu_ns: cpu_b - cpu_a,
            p50_ns: percentile_sorted(&lat, 0.50).unwrap_or(0),
            p90_ns: percentile_sorted(&lat, 0.90).unwrap_or(0),
            p95_ns: percentile_sorted(&lat, 0.95).unwrap_or(0),
            p99_ns: percentile_sorted(&lat, 0.99).unwrap_or(0),
            beyond_p99: samples_beyond(lat.len(), 0.99),
        });
    }

    let idle_cores = if plan.idle_probe {
        idle_cpu_cores(roles)?
    } else {
        0.0
    };

    // ---- public stats, read after the timed phase --------------------------
    let frames = |f: fn(&TransportStats) -> &AtomicU64| -> u64 {
        cluster
            .replicas
            .iter()
            .map(|n| f(&n.stats).load(Ordering::Relaxed))
            .sum()
    };
    let frames_sent = frames(|s| &s.sent);
    let frames_received = frames(|s| &s.received);
    let frames_dropped = frames(|s| &s.dropped_full) + frames(|s| &s.dropped_unreachable);
    let probe_sum = |probes: &[Arc<StoreProbe>], f: fn(&StoreProbe) -> &AtomicU64| -> u64 {
        probes.iter().map(|p| f(p).load(Ordering::Relaxed)).sum()
    };
    let wal_syncs = probe_sum(&cluster.wal_probes, |p| &p.syncs);
    let wal_bytes = probe_sum(&cluster.wal_probes, |p| &p.appended_bytes);
    let evidence_records = probe_sum(&cluster.evidence_probes, |p| &p.appends);
    let evidence_bytes = probe_sum(&cluster.evidence_probes, |p| &p.appended_bytes);
    let apply_errors: u64 = cluster
        .sm_probes
        .iter()
        .map(|p| p.apply_errors.load(Ordering::Relaxed))
        .sum();
    let telemetry = cluster.telemetry.clone();
    out.sinks = cluster.sinks.clone();
    let (config, registry) = (cluster.config.clone(), cluster.registry.clone());

    let stopping = Instant::now();
    let (stopped, data) = cluster.stop()?;
    out.phases.push(("stop", stopping.elapsed().as_secs_f64()));

    // ---- correctness checks -------------------------------------------------
    let replicas: Vec<&Replica> = stopped.replicas.iter().map(|(r, _)| r).collect();
    check_total_order(&replicas).map_err(|e| format!("check total_order: {e}"))?;
    for r in &replicas {
        if r.view_changes_completed() != 0 || r.view() != ViewNumber(0) {
            return Err(format!(
                "check no_view_change: replica {} is in view {} after {} view changes",
                r.id(),
                r.view().0,
                r.view_changes_completed()
            ));
        }
    }
    if apply_errors != 0 {
        return Err(format!(
            "check ops_succeed: {apply_errors} applied ops were answered with an error"
        ));
    }
    let (primary, follower) = (replicas[roles.primary], replicas[roles.follower]);
    if primary.executed_upto() == follower.executed_upto()
        && primary.state_digest() != follower.state_digest()
    {
        return Err(
            "check state_agreement: primary and follower executed the same \
                    prefix but hold different state"
                .to_string(),
        );
    }
    let drift = (state_end as f64 - state_start as f64).abs() / state_start.max(1) as f64;
    if drift > 0.01 {
        return Err(format!(
            "check steady_state: kvstore.state_bytes went from {state_start} to {state_end} \
             during the timed phase"
        ));
    }
    let counter = |name: &str| -> u64 {
        stopped
            .replicas
            .iter()
            .map(|(_, m)| m.counter(name))
            .sum::<u64>()
    };
    let batches = primary.committed_batches();

    let at_shutdown: Vec<_> = replicas
        .iter()
        .map(|r| (r.id(), r.executed_upto(), r.state_digest()))
        .collect();
    let mut layer = BTreeMap::new();
    layer.insert(
        "core.view_changes",
        stopped
            .replicas
            .iter()
            .map(|(_, m)| m.view_changes().len())
            .sum::<usize>() as f64,
    );
    layer.insert("core.suspects_sent", counter("suspects_sent") as f64);
    layer.insert("core.batches_proposed", counter("batches_proposed") as f64);
    layer.insert("core.shed_total", counter("requests_shed") as f64);
    layer.insert("core.checkpoints", counter("checkpoints") as f64);
    layer.insert(
        "core.client_retransmissions",
        stopped.client_metrics.counter("client_retransmissions") as f64,
    );
    drop(replicas);
    drop(stopped);

    let recover_ms = match &data {
        Some(root) => check_recovery(&root.0, &config, &registry, at_shutdown)?,
        None => Vec::new(),
    };
    drop(data);
    out.phases
        .push(("checks", stopping.elapsed().as_secs_f64()));

    // ---- per-layer numbers --------------------------------------------------
    let per_life_op = |count: u64| count as f64 / out.executed.max(1) as f64;
    ledger_lines(&out.ledger, out.timed_ops, &mut layer);
    let unattributed = layer["ledger.unattributed_pct"];
    if unattributed > MAX_UNATTRIBUTED_PCT {
        return Err(format!(
            "check ledger: {unattributed:.2} % of the CPU ran in threads no group claims"
        ));
    }
    layer.insert(
        "client.failed_ops_share",
        (out.issued - out.executed) as f64 / out.issued.max(1) as f64,
    );
    layer.insert("net.frames_sent_per_op", per_life_op(frames_sent));
    layer.insert("net.frames_received_per_op", per_life_op(frames_received));
    layer.insert("net.frames_dropped", frames_dropped as f64);
    layer.insert("net.idle_cpu_cores", idle_cores);
    layer.insert(
        "core.ops_per_batch",
        out.executed as f64 / batches.max(1) as f64,
    );
    layer.insert("store.syncs_per_op", per_life_op(wal_syncs));
    layer.insert("store.wal_bytes_per_op", per_life_op(wal_bytes));
    layer.insert("store.recover_ms", median_or_zero(&recover_ms));
    layer.insert("evidence.records_per_op", per_life_op(evidence_records));
    layer.insert("evidence.bytes_per_op", per_life_op(evidence_bytes));
    layer.insert("kvstore.state_bytes_start", state_start as f64);
    layer.insert("kvstore.state_bytes", state_end as f64);
    layer.insert(
        "crypto.batch_fallbacks",
        telemetry
            .iter()
            .map(|t| t.counter("xft_sig_batch_fallback_total").get())
            .sum::<u64>() as f64,
    );
    layer.insert(
        "store.sync_ms_p50",
        telemetry
            .iter()
            .map(|t| t.histogram("xft_wal_fsync_seconds", 1e-9))
            .filter(|h| h.count() > 0)
            // Raw samples are nanoseconds; the quantile is the upper bound of
            // the log2 bucket holding the median.
            .map(|h| h.quantile(0.5) / 1e6)
            .fold(0.0, f64::max),
    );
    out.layer = layer;
    Ok(())
}

/// CPU/s of all cluster threads (everything but the stopped client actor and
/// the harness) over [`IDLE_WINDOW`], with no client load.
fn idle_cpu_cores(roles: Roles) -> Result<f64, String> {
    let proc_err = io_err("read /proc/self/task");
    // Let lazy replication and the last checkpoint round settle first.
    std::thread::sleep(Duration::from_millis(300));
    let before = procfs::read_threads().map_err(&proc_err)?;
    let started = Instant::now();
    std::thread::sleep(IDLE_WINDOW);
    let after = procfs::read_threads().map_err(&proc_err)?;
    let cluster_ns: u64 = Ledger::between(&before, &after, roles)
        .groups
        .iter()
        .filter(|(g, _)| !matches!(g, Group::Client | Group::Harness | Group::Unattributed))
        .map(|(_, v)| v.0)
        .sum();
    Ok(cluster_ns as f64 / started.elapsed().as_nanos() as f64)
}

/// `tcp_durable`'s recovery check: reopens each data dir into a fresh
/// `Replica`, runs `recover_from_storage`, and requires the `executed_upto`
/// and `state_digest` the replica had at shutdown. Returns the milliseconds
/// each recovery took.
fn check_recovery(
    root: &Path,
    config: &XPaxosConfig,
    registry: &Arc<KeyRegistry>,
    at_shutdown: Vec<(usize, SeqNum, Digest)>,
) -> Result<Vec<f64>, String> {
    let mut recover_ms = Vec::new();
    for (id, exec, digest) in at_shutdown {
        let started = Instant::now();
        let storage = DiskStorage::open(replica_dirs(root, id).0, SyncPolicy::EVERY_APPEND)
            .map_err(io_err("check recovery: reopen data dir"))?;
        let mut fresh = Replica::new(
            id,
            config.clone(),
            registry,
            Box::new(CoordinationService::new()),
        )
        .with_storage(Box::new(storage));
        let report = fresh.recover_from_storage();
        recover_ms.push(started.elapsed().as_secs_f64() * 1e3);
        if !report.had_state || fresh.executed_upto() != exec || fresh.state_digest() != digest {
            return Err(format!(
                "check recovery: replica {id} recovered to sn {} (had_state {}), \
                 but had executed sn {} at shutdown{}",
                fresh.executed_upto().0,
                report.had_state,
                exec.0,
                if fresh.executed_upto() == exec {
                    " — and the state digests differ"
                } else {
                    ""
                }
            ));
        }
    }
    Ok(recover_ms)
}

/// The thread ledger's per-op lines.
fn ledger_lines(ledger: &Ledger, timed_ops: u64, layer: &mut BTreeMap<&'static str, f64>) {
    let per_op = |ns: u64| ns as f64 / 1e3 / timed_ops.max(1) as f64;
    for (name, group) in [
        ("net.read_cpu_us_per_op", Group::NetRead),
        ("net.write_cpu_us_per_op", Group::NetWrite),
        ("net.accept_cpu_us_per_op", Group::NetAccept),
        ("core.primary_cpu_us_per_op", Group::CorePrimary),
        ("core.follower_cpu_us_per_op", Group::CoreFollower),
        ("core.passive_cpu_us_per_op", Group::CorePassive),
        ("client.cpu_us_per_op", Group::Client),
        ("store.fsync_cpu_us_per_op", Group::StoreFsync),
        ("evidence.worker_cpu_us_per_op", Group::EvidenceWorker),
        ("crypto.pool_cpu_us_per_op", Group::CryptoPool),
        ("harness.cpu_us_per_op", Group::Harness),
    ] {
        layer.insert(name, per_op(ledger.cpu_ns(group)));
    }
    for (name, group) in [
        ("net.read_runq_wait_us_per_op", Group::NetRead),
        ("net.write_runq_wait_us_per_op", Group::NetWrite),
        ("core.primary_runq_wait_us_per_op", Group::CorePrimary),
    ] {
        layer.insert(name, per_op(ledger.wait_ns(group)));
    }
    layer.insert(
        "ledger.unattributed_pct",
        100.0 * ledger.cpu_ns(Group::Unattributed) as f64 / ledger.total_cpu_ns().max(1) as f64,
    );
}
