//! Live-cluster integration test: a t = 1 XPaxos cluster over real TCP
//! sockets on loopback.
//!
//! Three replica runtimes and two client runtimes run on their own OS
//! threads, each listening on an ephemeral 127.0.0.1 port and exchanging
//! canonically encoded frames through `xft-net`. The test drives the
//! replicated coordination service through ≥ 100 committed operations
//! **with the request pipeline on** (windowed clients, multiple batches in
//! flight), kills the view-0 primary mid-run (forcing a view change under
//! load with batches in flight, negotiated entirely over the wire),
//! recovers it on a *fresh* port (exercising the address book + reconnect
//! path), and finally verifies the paper's total-order safety property
//! across the replicas' executed histories.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xft::core::client::{Client, ClientWorkload};
use xft::core::replica::Replica;
use xft::core::types::ClientId;
use xft::core::XPaxosConfig;
use xft::crypto::KeyRegistry;
use xft::kvstore::workload::bench_create_op;
use xft::kvstore::CoordinationService;
use xft::net::runtime::{NetConfig, NodeThread, StartMode, TcpRuntime};
use xft::net::{
    bind_loopback_cluster, check_total_order, deliver_sync_done, register_cluster_keys, AddressBook,
};
use xft::simnet::{Actor, PipelineConfig, SimDuration};
use xft::store::{DiskStorage, SyncPolicy};
use xft_wire::{WireDecode, WireEncode};

const T: usize = 1;
const N: usize = 2 * T + 1;
const CLIENTS: usize = 2;
const OPS_PER_CLIENT: u64 = 60; // 120 total, comfortably over the 100-op bar
const PAYLOAD: usize = 128;
/// Requests each client keeps in flight: the primary kill lands while
/// several batches are outstanding, so the view change must preserve total
/// order with a non-trivial pipeline.
const WINDOW: usize = 4;

fn cluster_config() -> XPaxosConfig {
    let mut config = XPaxosConfig::new(T, CLIENTS)
        .with_delta(SimDuration::from_millis(150))
        .with_client_retransmit(SimDuration::from_millis(400))
        .with_pipeline(
            PipelineConfig::default()
                .with_client_window(WINDOW)
                .with_max_in_flight(8),
        );
    // Active replicas must give up on a dead primary quickly for the test to
    // finish in seconds rather than the production default's 4 s.
    config.replica_retransmit = SimDuration::from_millis(500);
    config
}

/// Starts `actor` as node `node` over loopback TCP; the caller wires it and
/// moves it onto its own thread with [`TcpRuntime::spawn`].
fn start<A: Actor>(
    actor: A,
    node: usize,
    book: &Arc<AddressBook>,
    listener: TcpListener,
    mode: StartMode,
) -> TcpRuntime<A>
where
    A::Msg: WireEncode + WireDecode + Send + 'static,
{
    let config = NetConfig {
        seed: 0xF00D + node as u64,
        reconnect_delay: Duration::from_millis(50),
        ..NetConfig::default()
    };
    TcpRuntime::start(actor, node, book.clone(), listener, config, mode).expect("start tcp runtime")
}

fn wait_until(deadline: Duration, what: &str, mut done: impl FnMut() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(
            start.elapsed() < deadline,
            "timed out after {deadline:?} waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn live_tcp_cluster_commits_survives_primary_kill_and_reconnect() {
    let config = cluster_config();
    let registry = KeyRegistry::new(42 ^ 0x5eed);
    register_cluster_keys(&registry, &config);

    // Bind every node on an OS-assigned ephemeral loopback port (bind port 0
    // and read it back — parallel test runs can't collide on guessed ports)
    // and publish the full membership in the shared address book before
    // anything starts sending.
    let (mut listeners, book) = bind_loopback_cluster(N + CLIENTS).expect("bind cluster ports");

    let mut replicas: Vec<Option<NodeThread<Replica>>> = Vec::new();
    for (r, listener) in listeners.drain(..N).enumerate() {
        let replica = Replica::new(
            r,
            config.clone(),
            &registry,
            Box::new(CoordinationService::new()),
        );
        replicas.push(Some(
            start(replica, r, &book, listener, StartMode::Fresh).spawn(format!("node-{r}")),
        ));
    }
    let mut clients: Vec<NodeThread<Client>> = Vec::new();
    for (c, listener) in listeners.drain(..).enumerate() {
        let workload = ClientWorkload {
            payload_size: PAYLOAD,
            // Open-ended: the windowed clients keep the cluster under load
            // through every phase (kill, view change, recovery), so the
            // post-recovery phase is guaranteed live traffic; the phases below
            // gate on committed counts instead of workload completion.
            requests: None,
            // A little think time keeps CPU contention civil.
            think_time: SimDuration::from_millis(5),
            op_bytes: Some(bench_create_op(c as u64, PAYLOAD)),
            ..Default::default()
        };
        let client = Client::new(ClientId(c as u64), config.clone(), &registry, workload);
        clients.push(
            start(client, N + c, &book, listener, StartMode::Fresh)
                .spawn(format!("node-{}", N + c)),
        );
    }
    let committed_total = |clients: &[NodeThread<Client>]| {
        clients.iter().map(|c| c.handle().committed()).sum::<u64>()
    };

    // Phase 1: the fault-free cluster makes progress in view 0.
    wait_until(Duration::from_secs(30), "first 25 commits", || {
        committed_total(&clients) >= 25
    });

    // Phase 2: kill the view-0 primary (replica 0). The remaining replicas
    // must suspect it, run the view change over TCP, and keep committing.
    let before_kill = committed_total(&clients);
    let killed_primary = replicas[0].take().expect("replica 0 running").stop();
    assert!(
        killed_primary.committed_batches() > 0,
        "primary committed something before dying"
    );
    // Clients keep committing between the phase-1 trigger and the kill taking
    // effect, so cap the progress target below the 120-op workload ceiling.
    let progress_target = (before_kill + 30).min(CLIENTS as u64 * OPS_PER_CLIENT);
    wait_until(
        Duration::from_secs(30),
        "post-view-change progress (30 commits past the kill)",
        || committed_total(&clients) >= progress_target,
    );

    // Phase 3: recover replica 0 with its state intact on a *new* ephemeral
    // port; peers find it through the address book and reconnect.
    let new_listener = TcpListener::bind("127.0.0.1:0").expect("bind recovery port");
    let recovered =
        start(killed_primary, 0, &book, new_listener, StartMode::Recovered).spawn("node-0");
    let received_at_recovery = recovered
        .transport_stats()
        .received
        .load(std::sync::atomic::Ordering::Relaxed);
    replicas[0] = Some(recovered);

    // Phase 4: every client passes its per-client commit target.
    wait_until(Duration::from_secs(60), "all 120 commits", || {
        clients
            .iter()
            .all(|c| c.handle().committed() >= OPS_PER_CLIENT)
    });
    let total = committed_total(&clients);
    assert!(total >= 100, "committed {total} kvstore ops, need >= 100");

    // The recovered replica is part of the live cluster again: lazy
    // replication from the view-1 follower reaches it over a fresh TCP
    // connection to its new port.
    let recovered_stats = replicas[0].as_ref().expect("recovered").transport_stats();
    wait_until(
        Duration::from_secs(20),
        "recovered replica receiving frames on its new port",
        || {
            recovered_stats
                .received
                .load(std::sync::atomic::Ordering::Relaxed)
                > received_at_recovery
        },
    );

    // Tear down and inspect final protocol state.
    for client in clients {
        client.stop();
    }
    let final_replicas: Vec<Replica> = replicas
        .into_iter()
        .map(|r| r.expect("replica running").stop())
        .collect();

    // The view change really happened: the undisturbed replicas moved past
    // view 0 and the new synchronous group committed the bulk of the load.
    assert!(
        final_replicas[1].view().0 >= 1 && final_replicas[2].view().0 >= 1,
        "view change over the wire (views: {:?}, {:?})",
        final_replicas[1].view(),
        final_replicas[2].view()
    );
    assert!(
        final_replicas[1]
            .executed_upto()
            .0
            .max(final_replicas[2].executed_upto().0)
            > 0,
        "replicas executed the replicated service"
    );

    // Paper Theorem 1 (total order) across every replica, including the
    // recovered ex-primary: overlapping sequence numbers must agree.
    check_total_order(&final_replicas.iter().collect::<Vec<_>>())
        .expect("total order holds across live replicas");
}

/// A fresh per-test data-directory root (removed up front so reruns start
/// clean; left behind on failure for post-mortems).
fn temp_data_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("xft-tcp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

#[test]
fn killed_replica_recovers_from_its_data_dir_and_rejoins() {
    kill_and_restart_from_data_dir("recovery", SyncPolicy::EVERY_APPEND);
}

/// The same on the production storage: WAL fsyncs on the overlapped thread,
/// their `SyncDone` delivered by `deliver_sync_done` as in `xpaxos-server`,
/// and every checkpoint installed in the background.
#[test]
fn killed_replica_on_overlapped_storage_recovers_from_its_data_dir_and_rejoins() {
    kill_and_restart_from_data_dir("recovery-overlapped", SyncPolicy::every(1).overlapped());
}

/// `kill -9` + restart from disk: a replica whose process state is *discarded
/// entirely* must rebuild itself from its `--data-dir` equivalent (WAL +
/// snapshot via `xft-store`, opened with `policy`), rejoin the live cluster
/// over TCP, catch up through lazy replication / verified state transfer,
/// and agree on the total order — the committed kv operations from before
/// the kill survive the restart.
fn kill_and_restart_from_data_dir(tag: &str, policy: SyncPolicy) {
    let mut config = cluster_config();
    // A short checkpoint interval makes the live cluster truncate its logs
    // while the victim is down, so the rejoin exercises snapshot-backed
    // catch-up rather than plain log replay only.
    config = config.with_checkpoint_interval(16);
    let registry = KeyRegistry::new(77 ^ 0x5eed);
    register_cluster_keys(&registry, &config);
    let data_root = temp_data_root(tag);
    let open_storage = |r: usize| {
        let storage = DiskStorage::open(data_root.join(format!("replica-{r}")), policy)
            .expect("open data dir");
        let slot = storage.sync_notifier_slot();
        (Box::new(storage), slot)
    };

    let (mut listeners, book) = bind_loopback_cluster(N + CLIENTS).expect("bind cluster ports");
    let mut replicas: Vec<Option<NodeThread<Replica>>> = Vec::new();
    for (r, listener) in listeners.drain(..N).enumerate() {
        let (storage, slot) = open_storage(r);
        let replica = Replica::new(
            r,
            config.clone(),
            &registry,
            Box::new(CoordinationService::new()),
        )
        .with_storage(storage);
        let runtime = start(replica, r, &book, listener, StartMode::Fresh);
        deliver_sync_done(&runtime, slot);
        replicas.push(Some(runtime.spawn(format!("node-{r}"))));
    }
    let mut clients: Vec<NodeThread<Client>> = Vec::new();
    for (c, listener) in listeners.drain(..).enumerate() {
        let workload = ClientWorkload {
            payload_size: PAYLOAD,
            requests: None,
            think_time: SimDuration::from_millis(5),
            op_bytes: Some(bench_create_op(c as u64, PAYLOAD)),
            ..Default::default()
        };
        let client = Client::new(ClientId(c as u64), config.clone(), &registry, workload);
        clients.push(
            start(client, N + c, &book, listener, StartMode::Fresh)
                .spawn(format!("node-{}", N + c)),
        );
    }
    let committed_total = |clients: &[NodeThread<Client>]| {
        clients.iter().map(|c| c.handle().committed()).sum::<u64>()
    };

    // Phase 1: fault-free progress in view 0 (past a checkpoint or two).
    wait_until(Duration::from_secs(30), "first 40 commits", || {
        committed_total(&clients) >= 40
    });

    // Phase 2: `kill -9` the view-0 primary — stop its runtime and *drop the
    // actor on the floor*. Nothing in memory survives; only the data dir does.
    let killed = replicas[0].take().expect("replica 0 running").stop();
    let killed_exec = killed.executed_upto();
    assert!(killed_exec.0 > 0, "victim executed before dying");
    drop(killed); // the kill: all in-memory state is gone

    // Phase 3: the survivors view-change and keep committing without it.
    let before_restart = committed_total(&clients);
    wait_until(
        Duration::from_secs(30),
        "post-kill progress (30 more commits)",
        || committed_total(&clients) >= before_restart + 30,
    );

    // Phase 4: restart from disk. A brand-new Replica instance adopts the
    // snapshot, replays the WAL and re-executes — the committed prefix from
    // before the kill must be back.
    let (storage, slot) = open_storage(0);
    let mut reborn = Replica::new(
        0,
        config.clone(),
        &registry,
        Box::new(CoordinationService::new()),
    )
    .with_storage(storage);
    let report = reborn.recover_from_storage();
    assert!(report.had_state, "data dir held durable state");
    assert!(
        report.exec_sn >= killed_exec,
        "recovery re-executed the committed prefix (recovered sn {}, executed sn {} before kill)",
        report.exec_sn.0,
        killed_exec.0
    );
    assert!(report.wal_records > 0, "WAL records were replayed");

    let new_listener = TcpListener::bind("127.0.0.1:0").expect("bind recovery port");
    let runtime = start(reborn, 0, &book, new_listener, StartMode::Recovered);
    deliver_sync_done(&runtime, slot);
    let recovered = runtime.spawn("node-0");
    let received_at_restart = recovered
        .transport_stats()
        .received
        .load(std::sync::atomic::Ordering::Relaxed);
    replicas[0] = Some(recovered);

    // Phase 5: the restarted replica is part of the cluster again (frames
    // arrive on its fresh port) and the cluster keeps committing.
    let target = committed_total(&clients) + 20;
    wait_until(Duration::from_secs(45), "post-restart progress", || {
        committed_total(&clients) >= target
    });
    let recovered_stats = replicas[0].as_ref().expect("recovered").transport_stats();
    wait_until(
        Duration::from_secs(20),
        "restarted replica receiving frames",
        || {
            recovered_stats
                .received
                .load(std::sync::atomic::Ordering::Relaxed)
                > received_at_restart
        },
    );

    for client in clients {
        client.stop();
    }
    let final_replicas: Vec<Replica> = replicas
        .into_iter()
        .map(|r| r.expect("replica running").stop())
        .collect();

    // The reborn replica still holds (at least) everything it had committed
    // in its previous life…
    assert!(
        final_replicas[0].executed_upto() >= killed_exec,
        "the committed prefix survived the kill ({} >= {})",
        final_replicas[0].executed_upto().0,
        killed_exec.0
    );
    // …and the paper's total order holds across all three replicas,
    // including across the kill/restart boundary.
    check_total_order(&final_replicas.iter().collect::<Vec<_>>())
        .expect("total order holds across the kill -9 restart");

    let _ = std::fs::remove_dir_all(&data_root);
}
