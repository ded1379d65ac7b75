//! [`TcpRuntime`] — drives one [`Actor`] over real sockets and wall-clock
//! timers, implementing the same contract as the simulator.
//!
//! The runtime owns the protocol thread: it pulls decoded messages from the
//! transport's inbox, fires due timers, and feeds each stimulus through
//! [`ActorDriver::step`] exactly as [`xft_simnet::Simulation`] does. The
//! returned [`StepEffects`] are interpreted against reality instead of the
//! event queue: sends are encoded and handed to the node's writer thread,
//! timer operations arm a wall-clock timer wheel, metric events feed the same
//! [`Metrics`] collector the simulator uses and, when the telemetry hub is
//! enabled, its `/metrics` counters: the actor's counter *name* becomes the
//! series `xft_<name>_total`, and each completed view change ticks
//! `xft_view_changes_total`.

use crate::address::AddressBook;
use crate::transport::{spawn_acceptor, PeerSender, TransportStats, Writer, INBOX_CAPACITY};
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xft_simnet::{
    Actor, ActorDriver, ActorEvent, MetricEvent, Metrics, NodeId, Runtime, SimDuration, SimRng,
    SimTime, StepEffects, TimerId, TimerOp,
};
use xft_telemetry::{Counter, Telemetry};
use xft_wire::{encode_msg_traced_vec, TraceContext, WireDecode, WireEncode};

/// Tuning knobs of a [`TcpRuntime`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Seed for the actor-visible deterministic RNG.
    pub seed: u64,
    /// Maximum accepted frame payload size.
    pub max_frame: usize,
    /// Backoff between reconnection attempts to an unreachable peer.
    pub reconnect_delay: Duration,
    /// Clock origin for the actor-visible time. Defaults to "when this
    /// runtime started"; harnesses that compare event times *across* nodes
    /// (the chaos history checker) pass one shared origin to every runtime
    /// so all histories live on a common clock.
    pub origin: Option<Instant>,
    /// Telemetry hub shared with the transport threads (queue depths, drop
    /// and frame counters) and, via [`NetConfig`], with whoever scrapes it.
    /// Disabled by default. Trace ids travel either way: an inbound
    /// envelope's correlation id becomes the trace id of the actor step it
    /// starts, and each send's id is stamped onto its outbound envelope.
    pub telemetry: Arc<Telemetry>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            seed: 1,
            max_frame: xft_wire::DEFAULT_MAX_FRAME,
            reconnect_delay: Duration::from_millis(200),
            origin: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Whether the node is starting fresh or rejoining after a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartMode {
    /// First activation: the actor's `on_start` runs.
    Fresh,
    /// Rejoin with preserved state: the actor's `on_recover` runs (pending
    /// timers from the previous incarnation are gone, as in the simulator).
    Recovered,
}

/// Observable state of a running [`TcpRuntime`], shared with other threads.
///
/// The run loop updates it; test harnesses and the binaries read it (and
/// request shutdown through it) without touching the actor.
#[derive(Debug, Default)]
pub struct NetHandle {
    committed: AtomicU64,
    shutdown: Arc<AtomicBool>,
    latencies_ns: Mutex<Vec<u64>>,
    controls: Mutex<VecDeque<u64>>,
}

impl NetHandle {
    /// Requests go through commits recorded by the actor (client runtimes).
    pub fn committed(&self) -> u64 {
        self.committed.load(Ordering::Relaxed)
    }

    /// Queues a protocol control code for delivery to the driven actor — the
    /// live-socket counterpart of the simulator's `FaultEvent::Control` (e.g.
    /// "become Byzantine with behaviour 2", "suffer amnesia"). The run loop
    /// drains queued codes before its next message, so injection is prompt
    /// even under load. Used by the chaos explorer to replay fault schedules
    /// against real TCP clusters.
    pub fn inject_control(&self, code: u64) {
        self.controls
            .lock()
            .expect("control queue poisoned")
            .push_back(code);
    }

    /// Takes the next pending control code, if any (run-loop side).
    fn next_control(&self) -> Option<u64> {
        self.controls
            .lock()
            .expect("control queue poisoned")
            .pop_front()
    }

    /// Asks the run loop (and all transport threads) to stop.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// The raw shutdown bit, shared with transport threads.
    fn shutdown_flag(&self) -> Arc<AtomicBool> {
        self.shutdown.clone()
    }

    /// Commit latencies recorded so far (client runtimes).
    pub fn latencies(&self) -> Vec<Duration> {
        self.latencies_ns
            .lock()
            .expect("latency buffer poisoned")
            .iter()
            .map(|&ns| Duration::from_nanos(ns))
            .collect()
    }
}

/// An armed wall-clock timer; the heap pops the earliest deadline first.
#[derive(Debug, PartialEq, Eq)]
struct ArmedTimer {
    fire_at_ns: u64,
    seq: u64,
    id: TimerId,
    token: u64,
}

impl Ord for ArmedTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest deadline.
        other
            .fire_at_ns
            .cmp(&self.fire_at_ns)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for ArmedTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A protocol node running over real TCP.
pub struct TcpRuntime<A: Actor>
where
    A::Msg: WireEncode + WireDecode + Send + 'static,
{
    actor: A,
    local: NodeId,
    driver: ActorDriver,
    rng: SimRng,
    origin: Instant,
    timers: BinaryHeap<ArmedTimer>,
    cancelled: HashSet<TimerId>,
    timer_seq: u64,
    writer: Writer,
    links: HashMap<NodeId, PeerSender>,
    inbox_rx: Receiver<(NodeId, A::Msg, Option<TraceContext>)>,
    /// Self-sends bypass the bounded network inbox: the protocol thread is
    /// the inbox's only consumer, so blocking on it here would self-deadlock.
    /// The third element is the correlation id active when the send was made
    /// (0 = none), so a trace survives a local hop too.
    pending_local: VecDeque<(NodeId, A::Msg, u64)>,
    metrics: Metrics,
    /// Hub counters fed by the actor's metric events, resolved once per name.
    exported: HashMap<&'static str, Arc<Counter>>,
    handle: Arc<NetHandle>,
    stats: Arc<TransportStats>,
    accept_thread: Option<JoinHandle<()>>,
    reader_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    config: NetConfig,
    local_addr: SocketAddr,
    /// A kept clone of the inbox sender, handed out by [`Self::local_injector`]
    /// so other threads (e.g. a storage fsync-completion callback) can post a
    /// message to this node as if it arrived from itself.
    injector_tx: SyncSender<(NodeId, A::Msg, Option<TraceContext>)>,
    events_processed: u64,
}

impl<A: Actor> TcpRuntime<A>
where
    A::Msg: WireEncode + WireDecode + Send + 'static,
{
    /// Starts a runtime for `actor` as node `local`: binds nothing itself —
    /// pass a pre-bound `listener` (use port 0 for an ephemeral port and
    /// publish the result through the address book).
    ///
    /// Spawns the accept thread and the writer thread.
    /// The actor's initial callback (`on_start` or `on_recover`) runs before
    /// the first message is processed.
    pub fn start(
        actor: A,
        local: NodeId,
        book: Arc<AddressBook>,
        listener: TcpListener,
        config: NetConfig,
        mode: StartMode,
    ) -> std::io::Result<Self> {
        let local_addr = listener.local_addr()?;
        book.set(local, local_addr);

        let handle = Arc::new(NetHandle::default());
        let stats = Arc::new(TransportStats::with_telemetry(config.telemetry.clone()));
        let (inbox_tx, inbox_rx) =
            sync_channel::<(NodeId, A::Msg, Option<TraceContext>)>(INBOX_CAPACITY);
        let reader_threads = Arc::new(Mutex::new(Vec::new()));
        let injector_tx = inbox_tx.clone();
        let accept_thread = spawn_acceptor::<A::Msg>(
            local,
            listener,
            inbox_tx,
            handle.shutdown_flag(),
            stats.clone(),
            reader_threads.clone(),
            config.max_frame,
        );

        let writer = Writer::new(
            local,
            book.clone(),
            handle.shutdown_flag(),
            stats.clone(),
            config.reconnect_delay,
        );
        let mut runtime = TcpRuntime {
            actor,
            local,
            driver: ActorDriver::new(xft_crypto::CostModel::free()),
            rng: SimRng::seed_from_u64(config.seed ^ local as u64),
            origin: config.origin.unwrap_or_else(Instant::now),
            timers: BinaryHeap::new(),
            cancelled: HashSet::new(),
            timer_seq: 0,
            writer,
            links: HashMap::new(),
            inbox_rx,
            pending_local: VecDeque::new(),
            metrics: Metrics::new(local + 1),
            exported: HashMap::new(),
            handle,
            stats,
            accept_thread: Some(accept_thread),
            reader_threads,
            config,
            local_addr,
            injector_tx,
            events_processed: 0,
        };
        // Peers are registered with the writer lazily by ensure_link on the
        // first send to each — clients never pay for client↔client links.
        let first = match mode {
            StartMode::Fresh => ActorEvent::Start,
            StartMode::Recovered => ActorEvent::Recover,
        };
        runtime.process(first);
        Ok(runtime)
    }

    /// The address this runtime accepts connections on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared observability/shutdown handle.
    pub fn handle(&self) -> Arc<NetHandle> {
        self.handle.clone()
    }

    /// Returns a thread-safe closure that posts `msg` to this node's own
    /// inbox, attributed to the node itself. Used to surface completions from
    /// background threads (e.g. the WAL's overlapped-fsync thread) into the
    /// protocol loop. Best-effort: if the inbox is momentarily full the
    /// notification is dropped — acceptable for edge-triggered signals that
    /// are re-raised by the next completion. An enqueued message counts in
    /// `xft_net_inbox_depth` like a received frame; the run loop subtracts it.
    pub fn local_injector(&self) -> impl Fn(A::Msg) + Send + Sync + 'static
    where
        A::Msg: Sync,
    {
        let tx = self.injector_tx.clone();
        let local = self.local;
        let telemetry = self.config.telemetry.clone();
        move |msg| {
            if tx.try_send((local, msg, None)).is_ok() {
                telemetry.gauge_add("xft_net_inbox_depth", 1);
            }
        }
    }

    /// Transport counters (sent/received/dropped frames).
    pub fn transport_stats(&self) -> Arc<TransportStats> {
        self.stats.clone()
    }

    /// Read access to the driven actor.
    pub fn actor(&self) -> &A {
        &self.actor
    }

    /// Wall-clock time since the runtime started, as the actor sees it.
    pub fn now(&self) -> SimTime {
        SimTime(self.origin.elapsed().as_nanos() as u64)
    }

    /// Runs until `duration` elapses or shutdown/halt is requested. Returns
    /// the number of actor events processed.
    pub fn run_for(&mut self, duration: Duration) -> u64 {
        self.run_inner(Some(Instant::now() + duration))
    }

    /// Runs until shutdown (via the handle) or an actor halt request.
    pub fn run(&mut self) -> u64 {
        self.run_inner(None)
    }

    fn run_inner(&mut self, deadline: Option<Instant>) -> u64 {
        let before = self.events_processed;
        while !self.handle.is_shutdown() {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    break;
                }
            }
            self.fire_due_timers();
            if self.handle.is_shutdown() {
                break;
            }
            // Injected control codes (chaos schedules over live sockets) are
            // delivered ahead of network traffic, like the simulator's fault
            // events.
            while let Some(code) = self.handle.next_control() {
                self.process(ActorEvent::Control(xft_simnet::ControlCode(code)));
            }
            if let Some((from, msg, trace)) = self.pending_local.pop_front() {
                self.process(ActorEvent::Message { from, msg, trace });
                continue;
            }

            // Sleep until the next timer, the deadline, or an idle tick.
            let now_ns = self.now().as_nanos();
            let mut wait = Duration::from_millis(20);
            if let Some(t) = self.timers.peek() {
                wait = wait.min(Duration::from_nanos(t.fire_at_ns.saturating_sub(now_ns)));
            }
            if let Some(d) = deadline {
                wait = wait.min(d.saturating_duration_since(Instant::now()));
            }
            match self.inbox_rx.recv_timeout(wait) {
                Ok((from, msg, trace)) => {
                    self.config.telemetry.gauge_add("xft_net_inbox_depth", -1);
                    // The envelope's correlation id is the step's trace id:
                    // events recorded in the step carry it, and so do its
                    // sends.
                    let trace = trace.map_or(0, |t| t.id);
                    self.process(ActorEvent::Message { from, msg, trace });
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.events_processed - before
    }

    fn fire_due_timers(&mut self) {
        loop {
            let now_ns = self.now().as_nanos();
            let Some(head) = self.timers.peek() else {
                return;
            };
            if head.fire_at_ns > now_ns {
                return;
            }
            let timer = self.timers.pop().expect("peeked above");
            if self.cancelled.remove(&timer.id) {
                continue;
            }
            self.process(ActorEvent::Timer { token: timer.token });
            if self.handle.is_shutdown() {
                return;
            }
        }
    }

    fn process(&mut self, event: ActorEvent<A::Msg>) {
        let now = self.now();
        let effects = self
            .driver
            .step(&mut self.actor, self.local, now, &mut self.rng, event);
        self.events_processed += 1;
        self.apply(now, effects);
    }

    /// Returns the sender handle for `peer`, registering it with the writer
    /// on first use.
    fn ensure_link(&mut self, peer: NodeId) -> &PeerSender {
        self.links
            .entry(peer)
            .or_insert_with(|| self.writer.sender(peer))
    }

    fn apply(&mut self, now: SimTime, effects: StepEffects<A::Msg>) {
        for out in effects.sends {
            if out.to == self.local {
                // Self-sends short-circuit the network, as in the simulator.
                self.pending_local
                    .push_back((self.local, out.msg, out.trace));
            } else {
                let trace = (out.trace != 0).then_some(TraceContext { id: out.trace });
                let payload = encode_msg_traced_vec(&out.msg, trace);
                self.ensure_link(out.to).send(payload);
            }
        }
        for op in effects.timer_ops {
            match op {
                TimerOp::Set { id, delay, token } => {
                    self.timer_seq += 1;
                    self.timers.push(ArmedTimer {
                        fire_at_ns: now.as_nanos().saturating_add(delay.as_nanos()),
                        seq: self.timer_seq,
                        id,
                        token,
                    });
                }
                TimerOp::Cancel(id) => {
                    self.cancelled.insert(id);
                }
            }
        }
        if effects.cpu_charged_ns > 0 {
            self.metrics.charge_cpu(self.local, effects.cpu_charged_ns);
        }
        for ev in effects.metric_events {
            match &ev {
                MetricEvent::Commit { latency, .. } => {
                    self.handle.committed.fetch_add(1, Ordering::Relaxed);
                    self.handle
                        .latencies_ns
                        .lock()
                        .expect("latency buffer poisoned")
                        .push(latency.as_nanos());
                }
                MetricEvent::Count { name, delta } => self.export(name, *delta),
                MetricEvent::ViewChange { .. } => self.export("view_changes", 1),
            }
            self.metrics.apply(ev);
        }
    }

    /// Adds `delta` to the hub counter `xft_<name>_total` (nothing when the
    /// hub is disabled, so a disabled hub registers no series).
    fn export(&mut self, name: &'static str, delta: u64) {
        let telemetry = &self.config.telemetry;
        if telemetry.is_enabled() {
            self.exported
                .entry(name)
                .or_insert_with(|| telemetry.counter(&format!("xft_{name}_total")))
                .add(delta);
        }
    }

    /// Stops the runtime: signals every transport thread, joins them, and
    /// returns the actor with its full protocol state (the "stable storage"
    /// that survives into a [`StartMode::Recovered`] restart).
    pub fn shutdown(mut self) -> A {
        self.handle.request_shutdown();
        self.links.clear();
        self.writer.join();
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        let readers: Vec<_> = self
            .reader_threads
            .lock()
            .expect("reader list poisoned")
            .drain(..)
            .collect();
        for h in readers {
            // A reader parked on a full inbox unblocks as we drain it; keep
            // draining until the thread observes the shutdown flag and exits.
            while !h.is_finished() {
                while self.inbox_rx.try_recv().is_ok() {}
                std::thread::sleep(Duration::from_millis(2));
            }
            let _ = h.join();
        }
        self.actor
    }

    /// Metrics collected so far (commits, counters, CPU).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}

impl<A: Actor> Runtime<A> for TcpRuntime<A>
where
    A::Msg: WireEncode + WireDecode + Send + 'static,
{
    fn now(&self) -> SimTime {
        TcpRuntime::now(self)
    }

    /// Local deliveries honor `from` exactly. Remote deliveries only exist
    /// for `from == local`: this runtime's outbound links announce the local
    /// node id in their one-shot handshake, so the transport has no way to
    /// express a third-party origin — rather than ship a frame the receiver
    /// would misattribute to us, a spoofed-`from` request is dropped. (The
    /// simulator backend, which owns every node, can deliver arbitrary pairs.)
    fn post_message(&mut self, from: NodeId, to: NodeId, msg: A::Msg) {
        // Posted from outside any step: no trace id.
        if to == self.local {
            self.pending_local.push_back((from, msg, 0));
        } else if from == self.local {
            self.ensure_link(to).send(encode_msg_traced_vec(&msg, None));
        }
    }

    fn run_for(&mut self, duration: SimDuration) -> u64 {
        TcpRuntime::run_for(self, Duration::from_nanos(duration.as_nanos()))
    }

    fn metrics(&self) -> &Metrics {
        TcpRuntime::metrics(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::hello_bytes;
    use std::io::Write;
    use std::net::TcpStream;
    use xft_simnet::{Context, SimMessage};

    #[derive(Debug, Clone)]
    struct Num(u64);

    impl SimMessage for Num {
        fn size_bytes(&self) -> usize {
            8
        }
    }

    impl WireEncode for Num {
        fn encode_into(&self, out: &mut impl bytes::BufMut) {
            self.0.encode_into(out);
        }
    }

    impl WireDecode for Num {
        fn decode_from(r: &mut bytes::Reader<'_>) -> Option<Self> {
            u64::decode_from(r).map(Num)
        }
    }

    /// Records what it is sent.
    #[derive(Default)]
    struct Sink {
        seen: Vec<u64>,
    }

    impl Actor for Sink {
        type Msg = Num;

        fn on_message(&mut self, _from: NodeId, msg: Num, _ctx: &mut Context<Num>) {
            self.seen.push(msg.0);
        }
    }

    /// Counts `x` by the value it is sent and reports a view change.
    struct Tally;

    impl Actor for Tally {
        type Msg = Num;

        fn on_message(&mut self, _from: NodeId, msg: Num, ctx: &mut Context<Num>) {
            ctx.count("x", msg.0);
            ctx.record(MetricEvent::ViewChange {
                at: ctx.now(),
                new_view: 1,
            });
        }
    }

    fn start<A: Actor<Msg = Num>>(actor: A, telemetry: Arc<Telemetry>) -> TcpRuntime<A> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let config = NetConfig {
            telemetry,
            ..NetConfig::default()
        };
        let book = AddressBook::new([]);
        TcpRuntime::start(actor, 0, book, listener, config, StartMode::Fresh).unwrap()
    }

    /// A raw inbound connection from `node` that has sent `values`.
    fn dial(runtime: &TcpRuntime<Sink>, node: NodeId, values: std::ops::Range<u64>) -> TcpStream {
        let mut stream = TcpStream::connect(runtime.local_addr()).unwrap();
        let mut bytes = hello_bytes(node).to_vec();
        for v in values {
            bytes.extend(xft_wire::frame_bytes(&xft_wire::encode_msg_vec(&Num(v))));
        }
        stream.write_all(&bytes).unwrap();
        stream
    }

    fn run_until_seen(runtime: &mut TcpRuntime<Sink>, count: usize) {
        let start = Instant::now();
        while runtime.actor().seen.len() < count {
            assert!(start.elapsed() < Duration::from_secs(10), "messages lost");
            runtime.run_for(Duration::from_millis(10));
        }
    }

    fn assert_prompt_shutdown(runtime: TcpRuntime<Sink>) {
        let start = Instant::now();
        runtime.shutdown();
        let took = start.elapsed();
        assert!(took < Duration::from_millis(500), "shutdown took {took:?}");
    }

    #[test]
    fn injected_messages_leave_the_inbox_gauge_at_zero() {
        let hub = Telemetry::enabled();
        let mut runtime = start(Sink::default(), hub.clone());
        let inject = runtime.local_injector();
        for v in 0..7 {
            inject(Num(v));
        }
        assert_eq!(hub.gauge("xft_net_inbox_depth").get(), 7);
        run_until_seen(&mut runtime, 7);
        assert_eq!(runtime.actor().seen, (0..7).collect::<Vec<u64>>());
        assert_eq!(hub.gauge("xft_net_inbox_depth").get(), 0);
        runtime.shutdown();
    }

    #[test]
    fn actor_counters_and_view_changes_reach_an_enabled_hub_only() {
        for hub in [Telemetry::enabled(), Telemetry::disabled()] {
            let mut runtime = start(Tally, hub.clone());
            runtime.local_injector()(Num(3));
            let start = Instant::now();
            while runtime.metrics().counter("x") < 3 {
                assert!(start.elapsed() < Duration::from_secs(10), "message lost");
                runtime.run_for(Duration::from_millis(10));
            }
            runtime.shutdown();
            let scrape = hub.render_prometheus();
            if hub.is_enabled() {
                assert!(scrape.contains("xft_x_total 3\n"), "{scrape}");
                assert!(scrape.contains("xft_view_changes_total 1\n"), "{scrape}");
            } else {
                assert_eq!(scrape, "", "a disabled hub registered series");
            }
        }
    }

    #[test]
    fn shutdown_is_prompt_with_idle_inbound_connections_open() {
        let mut runtime = start(Sink::default(), Telemetry::disabled());
        let open: Vec<TcpStream> = (1..4).map(|n| dial(&runtime, n, 0..1)).collect();
        run_until_seen(&mut runtime, open.len()); // every reader is up
        assert_prompt_shutdown(runtime);
    }

    #[test]
    fn reader_parked_on_a_full_inbox_holds_back_its_peer_and_not_shutdown() {
        // Nothing consumes the inbox: the reader fills it, then blocks on the
        // next frame while the ones behind it wait in the socket.
        let runtime = start(Sink::default(), Telemetry::disabled());
        let total = INBOX_CAPACITY as u64 + 100;
        let _peer = dial(&runtime, 1, 0..total);
        let stats = runtime.transport_stats();
        let received = || stats.received.load(Ordering::Relaxed);
        let start = Instant::now();
        while received() <= INBOX_CAPACITY as u64 {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "inbox never filled"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(
            received(),
            INBOX_CAPACITY as u64 + 1,
            "reader ran past a full inbox"
        );
        assert_prompt_shutdown(runtime);
    }
}
