//! The discrete-event simulation engine.
//!
//! [`Simulation`] owns a set of [`Actor`]s, an event queue ordered by simulated time, a
//! [`Network`] and a [`Metrics`] collector. Runs are fully deterministic: event order
//! is a function of (seed, actor behaviour) only, with sequence numbers breaking ties
//! between events scheduled for the same instant.
//!
//! Nodes are single servers with a configurable number of cores: CPU time charged via
//! [`Context::charge`](crate::actor::Context::charge) delays that node's subsequent
//! event processing (`busy_until`), which is how compute-bound saturation (Figure 8)
//! emerges in the simulated throughput curves.

use crate::actor::{Actor, ControlCode, NodeId, SimMessage, TimerId, TimerOp};
use crate::fault::{FaultEvent, FaultScript};
use crate::latency::LatencyModel;
use crate::metrics::Metrics;
use crate::network::{Bandwidth, Network, SendOutcome};
use crate::rng::SimRng;
use crate::runtime::{ActorDriver, ActorEvent, Runtime};
use crate::time::{SimDuration, SimTime};
use crate::trace::{MessageTrace, TraceEntry};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::HashSet;
use xft_crypto::CostModel;

/// Global configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for the deterministic RNG.
    pub seed: u64,
    /// Crypto cost model charged through [`Context::charge`](crate::actor::Context::charge).
    pub cost_model: CostModel,
    /// Number of cores per node; charged CPU time is divided by this when computing how
    /// long the node stays busy (total CPU is still accounted in full).
    pub cores_per_node: u32,
    /// Record every message transmission in the trace.
    pub trace_messages: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            cost_model: CostModel::paper_default(),
            cores_per_node: 8, // the paper's EC2 VMs have 8 vCPUs
            trace_messages: false,
        }
    }
}

enum EventKind<M> {
    Start,
    /// `trace` is the telemetry correlation id riding along with the message
    /// (0 = none) — the simulator's analogue of the optional trace field in
    /// the TCP wire envelope. Observation-only: it never influences delivery.
    Deliver {
        from: NodeId,
        msg: M,
        trace: u64,
    },
    Timer {
        id: TimerId,
        token: u64,
        epoch: u64,
    },
    Fault(FaultEvent),
}

struct QueuedEvent<M> {
    time: SimTime,
    seq: u64,
    node: NodeId,
    kind: EventKind<M>,
}

impl<M> PartialEq for QueuedEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for QueuedEvent<M> {}
impl<M> PartialOrd for QueuedEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for QueuedEvent<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering so BinaryHeap (a max-heap) pops the earliest event first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Discrete-event simulation over a homogeneous actor type `A` (protocols wrap their
/// replica and client roles in a single enum implementing [`Actor`]).
pub struct Simulation<A: Actor> {
    config: SimConfig,
    now: SimTime,
    rng: SimRng,
    network: Network,
    metrics: Metrics,
    trace: MessageTrace,
    nodes: Vec<A>,
    alive: Vec<bool>,
    busy_until: Vec<SimTime>,
    /// Incremented on every crash; timers armed before the crash are discarded.
    timer_epoch: Vec<u64>,
    queue: BinaryHeap<QueuedEvent<A::Msg>>,
    cancelled_timers: HashSet<TimerId>,
    next_seq: u64,
    driver: ActorDriver,
    halted: bool,
}

impl<A: Actor> Simulation<A> {
    /// Creates a simulation with the given latency model and uniform uplink bandwidth.
    pub fn new(config: SimConfig, latency: Box<dyn LatencyModel>, uplink: Bandwidth) -> Self {
        let rng = SimRng::seed_from_u64(config.seed);
        let trace = MessageTrace::new(config.trace_messages);
        let driver = ActorDriver::new(config.cost_model);
        Simulation {
            config,
            now: SimTime::ZERO,
            rng,
            network: Network::new(0, latency, uplink),
            metrics: Metrics::new(0),
            trace,
            nodes: Vec::new(),
            alive: Vec::new(),
            busy_until: Vec::new(),
            timer_epoch: Vec::new(),
            queue: BinaryHeap::new(),
            cancelled_timers: HashSet::new(),
            next_seq: 0,
            driver,
            halted: false,
        }
    }

    /// Adds a node. Its `on_start` callback runs at the current simulated time (before
    /// any later event). Returns the node id.
    pub fn add_node(&mut self, actor: A) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(actor);
        self.alive.push(true);
        self.busy_until.push(self.now);
        self.timer_epoch.push(0);
        self.network.ensure_capacity(self.nodes.len());
        self.metrics.ensure_nodes(self.nodes.len());
        let seq = self.bump_seq();
        self.queue.push(QueuedEvent {
            time: self.now,
            seq,
            node: id,
            kind: EventKind::Start,
        });
        id
    }

    fn bump_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node's actor (for assertions in tests).
    pub fn node(&self, id: NodeId) -> &A {
        &self.nodes[id]
    }

    /// Mutable access to a node's actor.
    pub fn node_mut(&mut self, id: NodeId) -> &mut A {
        &mut self.nodes[id]
    }

    /// Whether a node is currently alive (not crashed).
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.alive[id]
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The message trace (empty unless tracing was enabled in the config).
    pub fn trace(&self) -> &MessageTrace {
        &self.trace
    }

    /// Mutable access to the network (to set per-node bandwidth, packet loss, or apply
    /// partitions directly).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Read access to the network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Whether an actor requested a halt.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Schedules a single fault event at an absolute time.
    pub fn inject_fault_at(&mut self, time: SimTime, event: FaultEvent) {
        let seq = self.bump_seq();
        self.queue.push(QueuedEvent {
            time: time.max(self.now),
            seq,
            node: 0,
            kind: EventKind::Fault(event),
        });
    }

    /// Schedules every event of a fault script.
    pub fn schedule_fault_script(&mut self, script: FaultScript) {
        for (time, event) in script.into_sorted_events() {
            self.inject_fault_at(time, event);
        }
    }

    /// Delivers a message "out of band" to a node at the current time (used by tests to
    /// poke actors directly).
    pub fn post_message(&mut self, from: NodeId, to: NodeId, msg: A::Msg) {
        let seq = self.bump_seq();
        self.queue.push(QueuedEvent {
            time: self.now,
            seq,
            node: to,
            kind: EventKind::Deliver {
                from,
                msg,
                trace: xft_telemetry::trace::current(),
            },
        });
    }

    /// Runs until the queue is exhausted, `deadline` is reached, or an actor halts the
    /// simulation. Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut processed = 0u64;
        while !self.halted {
            let Some(next_time) = self.queue.peek().map(|e| e.time) else {
                break;
            };
            if next_time > deadline {
                break;
            }
            self.step();
            processed += 1;
        }
        if self.now < deadline {
            self.now = deadline;
        }
        processed
    }

    /// Runs for a span of simulated time from the current instant.
    pub fn run_for(&mut self, duration: SimDuration) -> u64 {
        let deadline = self.now + duration;
        self.run_until(deadline)
    }

    /// Processes a single event if one is pending. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some(event) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.time >= self.now, "time went backwards");
        self.now = event.time;

        match event.kind {
            EventKind::Fault(fault) => self.apply_fault(fault),
            EventKind::Start => self.dispatch(event.node, event.time, ActorEvent::Start),
            EventKind::Deliver { from, msg, trace } => {
                if !self.alive[event.node] {
                    return true; // message to a crashed node is lost
                }
                if self.busy_until[event.node] > event.time {
                    // Node is busy with CPU work; requeue the delivery.
                    let time = self.busy_until[event.node];
                    let seq = self.bump_seq();
                    self.queue.push(QueuedEvent {
                        time,
                        seq,
                        node: event.node,
                        kind: EventKind::Deliver { from, msg, trace },
                    });
                    return true;
                }
                xft_telemetry::trace::set_current(trace);
                self.dispatch(event.node, event.time, ActorEvent::Message { from, msg });
            }
            EventKind::Timer { id, token, epoch } => {
                if !self.alive[event.node]
                    || epoch != self.timer_epoch[event.node]
                    || self.cancelled_timers.remove(&id)
                {
                    return true;
                }
                if self.busy_until[event.node] > event.time {
                    let time = self.busy_until[event.node];
                    let seq = self.bump_seq();
                    self.queue.push(QueuedEvent {
                        time,
                        seq,
                        node: event.node,
                        kind: EventKind::Timer { id, token, epoch },
                    });
                    return true;
                }
                self.dispatch(event.node, event.time, ActorEvent::Timer { token });
            }
        }
        true
    }

    fn apply_fault(&mut self, fault: FaultEvent) {
        match fault {
            FaultEvent::Crash(node) => {
                if node < self.nodes.len() && self.alive[node] {
                    self.alive[node] = false;
                    self.timer_epoch[node] += 1;
                }
            }
            FaultEvent::Recover(node) => {
                if node < self.nodes.len() && !self.alive[node] {
                    self.alive[node] = true;
                    self.busy_until[node] = self.now;
                    self.dispatch(node, self.now, ActorEvent::Recover);
                }
            }
            FaultEvent::PartitionPair(a, b) => self.network.block_pair(a, b),
            FaultEvent::HealPair(a, b) => self.network.unblock_pair(a, b),
            FaultEvent::Isolate(node) => self.network.isolate(node),
            FaultEvent::Reconnect(node) => self.network.reconnect(node),
            FaultEvent::HealAll => self.network.heal_all(),
            FaultEvent::Control(node, code) => {
                if node < self.nodes.len() && self.alive[node] {
                    self.dispatch(node, self.now, ActorEvent::Control(ControlCode(code)));
                }
            }
            FaultEvent::SetDropProbability(p) => self.network.set_drop_probability(p),
        }
    }

    fn dispatch(&mut self, node: NodeId, event_time: SimTime, event: ActorEvent<A::Msg>) {
        let crate::runtime::StepEffects {
            sends,
            timer_ops,
            cpu_charged_ns,
            metric_events,
            halt_requested,
        } = self.driver.step(
            &mut self.nodes[node],
            node,
            event_time,
            &mut self.rng,
            event,
        );

        // CPU accounting: the node stays busy for charged / cores.
        let busy_ns = cpu_charged_ns / self.config.cores_per_node.max(1) as u64;
        let done_at = event_time + SimDuration::from_nanos(busy_ns);
        if done_at > self.busy_until[node] {
            self.busy_until[node] = done_at;
        }
        if cpu_charged_ns > 0 {
            self.metrics.charge_cpu(node, cpu_charged_ns);
        }

        // Outbound messages leave once the CPU work that produced them is
        // finished. Each carries the telemetry correlation id current at its
        // `ctx.send` call (set by the inbound delivery, or freshly minted by
        // a client inside the step), which is how a trace follows a request
        // across replica hops in the simulator — mirroring the TCP
        // envelope's optional trace field.
        let send_time = done_at;
        for out in sends {
            let size = out.msg.size_bytes();
            let kind_label = out.msg.kind();
            let outcome = self
                .network
                .schedule(send_time, node, out.to, size, &mut self.rng);
            let delivered_at = match outcome {
                SendOutcome::DeliverAt(t) => {
                    let seq = self.bump_seq();
                    self.queue.push(QueuedEvent {
                        time: t,
                        seq,
                        node: out.to,
                        kind: EventKind::Deliver {
                            from: node,
                            msg: out.msg,
                            trace: out.trace,
                        },
                    });
                    Some(t)
                }
                SendOutcome::Dropped => None,
            };
            self.trace.record(TraceEntry {
                sent_at: send_time,
                delivered_at,
                from: node,
                to: out.to,
                kind: kind_label,
                size,
            });
        }

        for op in timer_ops {
            match op {
                TimerOp::Set { id, delay, token } => {
                    let seq = self.bump_seq();
                    self.queue.push(QueuedEvent {
                        time: send_time + delay,
                        seq,
                        node,
                        kind: EventKind::Timer {
                            id,
                            token,
                            epoch: self.timer_epoch[node],
                        },
                    });
                }
                TimerOp::Cancel(id) => {
                    self.cancelled_timers.insert(id);
                }
            }
        }

        for ev in metric_events {
            self.metrics.apply(ev);
        }
        if halt_requested {
            self.halted = true;
        }
        // Don't leak this step's correlation id into timer/control steps of
        // other nodes — the same hygiene the TCP runtime applies per message.
        xft_telemetry::trace::clear();
    }
}

impl<A: Actor> Runtime<A> for Simulation<A> {
    fn now(&self) -> SimTime {
        Simulation::now(self)
    }

    fn post_message(&mut self, from: NodeId, to: NodeId, msg: A::Msg) {
        Simulation::post_message(self, from, to, msg)
    }

    fn run_for(&mut self, duration: SimDuration) -> u64 {
        Simulation::run_for(self, duration)
    }

    fn metrics(&self) -> &Metrics {
        Simulation::metrics(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Context;
    use crate::latency::ConstantLatency;

    /// A toy actor that floods ping-pong messages and counts what it sees.
    #[derive(Debug, Clone)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    impl SimMessage for Msg {
        fn size_bytes(&self) -> usize {
            16
        }
        fn kind(&self) -> &'static str {
            match self {
                Msg::Ping(_) => "PING",
                Msg::Pong(_) => "PONG",
            }
        }
    }

    struct PingPong {
        peer: NodeId,
        initiator: bool,
        rounds: u32,
        pings_seen: u32,
        pongs_seen: u32,
        timer_fired: bool,
        recovered: bool,
        control_codes: Vec<u64>,
    }

    impl PingPong {
        fn new(peer: NodeId, initiator: bool, rounds: u32) -> Self {
            PingPong {
                peer,
                initiator,
                rounds,
                pings_seen: 0,
                pongs_seen: 0,
                timer_fired: false,
                recovered: false,
                control_codes: Vec::new(),
            }
        }
    }

    impl Actor for PingPong {
        type Msg = Msg;

        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            if self.initiator {
                ctx.send(self.peer, Msg::Ping(0));
                ctx.set_timer(SimDuration::from_millis(500), 7);
            }
        }

        fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Context<Msg>) {
            match msg {
                Msg::Ping(n) => {
                    self.pings_seen += 1;
                    ctx.send(from, Msg::Pong(n));
                }
                Msg::Pong(n) => {
                    self.pongs_seen += 1;
                    ctx.record_commit(SimDuration::from_millis(1), 16);
                    if n + 1 < self.rounds {
                        ctx.send(from, Msg::Ping(n + 1));
                    }
                }
            }
        }

        fn on_timer(&mut self, token: u64, _ctx: &mut Context<Msg>) {
            assert_eq!(token, 7);
            self.timer_fired = true;
        }

        fn on_recover(&mut self, _ctx: &mut Context<Msg>) {
            self.recovered = true;
        }

        fn on_control(&mut self, code: ControlCode, _ctx: &mut Context<Msg>) {
            self.control_codes.push(code.0);
        }
    }

    fn sim(latency_ms: u64, trace: bool) -> Simulation<PingPong> {
        let config = SimConfig {
            seed: 1,
            cost_model: CostModel::free(),
            cores_per_node: 1,
            trace_messages: trace,
        };
        Simulation::new(
            config,
            Box::new(ConstantLatency(SimDuration::from_millis(latency_ms))),
            Bandwidth::UNLIMITED,
        )
    }

    #[test]
    fn ping_pong_completes_all_rounds() {
        let mut s = sim(10, true);
        let a = s.add_node(PingPong::new(1, true, 5));
        let b = s.add_node(PingPong::new(0, false, 5));
        s.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        assert_eq!(s.node(b).pings_seen, 5);
        assert_eq!(s.node(a).pongs_seen, 5);
        assert!(s.node(a).timer_fired);
        assert_eq!(s.metrics().committed(), 5);
        // 5 pings + 5 pongs traced.
        assert_eq!(s.trace().count_kind("PING"), 5);
        assert_eq!(s.trace().count_kind("PONG"), 5);
        // Each round takes one RTT = 20 ms; 5 rounds ≈ 100 ms.
        assert!(s.metrics().commit_times_secs().last().unwrap() - 0.1 < 1e-6);
    }

    #[test]
    fn crash_stops_message_processing_and_recover_resumes_callbacks() {
        let mut s = sim(10, false);
        let _a = s.add_node(PingPong::new(1, true, 1000));
        let b = s.add_node(PingPong::new(0, false, 1000));
        // Crash the responder at 50 ms, recover at 150 ms.
        s.inject_fault_at(
            SimTime::ZERO + SimDuration::from_millis(50),
            FaultEvent::Crash(1),
        );
        s.inject_fault_at(
            SimTime::ZERO + SimDuration::from_millis(150),
            FaultEvent::Recover(1),
        );
        s.run_until(SimTime::ZERO + SimDuration::from_millis(400));
        // The ping-pong chain died when the in-flight ping hit the crashed node, so far
        // fewer than 1000 rounds completed, but the responder did see a few pings and
        // the recovery callback ran.
        assert!(s.node(b).pings_seen >= 2);
        assert!(s.node(b).pings_seen < 20);
        assert!(s.node(b).recovered);
    }

    #[test]
    fn partition_drops_messages_until_healed() {
        let mut s = sim(10, false);
        let a = s.add_node(PingPong::new(1, true, 1000));
        let _b = s.add_node(PingPong::new(0, false, 1000));
        s.inject_fault_at(
            SimTime::ZERO + SimDuration::from_millis(100),
            FaultEvent::PartitionPair(0, 1),
        );
        s.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        let pongs_at_partition = s.node(a).pongs_seen;
        // No progress while partitioned.
        s.run_until(SimTime::ZERO + SimDuration::from_secs(2));
        assert_eq!(s.node(a).pongs_seen, pongs_at_partition);
    }

    #[test]
    fn control_codes_are_delivered() {
        let mut s = sim(1, false);
        let a = s.add_node(PingPong::new(0, false, 0));
        s.inject_fault_at(
            SimTime::ZERO + SimDuration::from_millis(5),
            FaultEvent::Control(a, 42),
        );
        s.run_until(SimTime::ZERO + SimDuration::from_millis(10));
        assert_eq!(s.node(a).control_codes, vec![42]);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed: u64| {
            let config = SimConfig {
                seed,
                cost_model: CostModel::paper_default(),
                cores_per_node: 2,
                trace_messages: false,
            };
            let mut s: Simulation<PingPong> = Simulation::new(
                config,
                Box::new(crate::latency::UniformLatency {
                    min: SimDuration::from_millis(5),
                    max: SimDuration::from_millis(50),
                }),
                Bandwidth::mbps(100.0),
            );
            s.add_node(PingPong::new(1, true, 50));
            s.add_node(PingPong::new(0, false, 50));
            s.run_until(SimTime::ZERO + SimDuration::from_secs(30));
            let last_commit_ns = s
                .metrics()
                .commit_times_secs()
                .last()
                .map(|t| (t * 1e9) as u64)
                .unwrap_or(0);
            (s.metrics().committed(), last_commit_ns)
        };
        assert_eq!(run(7), run(7));
        // A different seed samples different link latencies, so the run finishes at a
        // different simulated instant (with overwhelming probability).
        assert_ne!(run(7).1, run(8).1);
    }

    #[test]
    fn cpu_charges_slow_down_processing() {
        // An actor that charges 1 ms of CPU per ping on a single-core node can process
        // at most ~1000 pings per simulated second.
        struct Busy {
            seen: u32,
        }
        #[derive(Clone, Debug)]
        struct Tick;
        impl SimMessage for Tick {
            fn size_bytes(&self) -> usize {
                8
            }
        }
        impl Actor for Busy {
            type Msg = Tick;
            fn on_message(&mut self, _from: NodeId, _msg: Tick, ctx: &mut Context<Tick>) {
                self.seen += 1;
                ctx.charge_ns(1_000_000);
            }
        }
        let config = SimConfig {
            seed: 1,
            cost_model: CostModel::free(),
            cores_per_node: 1,
            trace_messages: false,
        };
        let mut s: Simulation<Busy> = Simulation::new(
            config,
            Box::new(ConstantLatency(SimDuration::ZERO)),
            Bandwidth::UNLIMITED,
        );
        let n = s.add_node(Busy { seen: 0 });
        for _ in 0..5000 {
            s.post_message(0, n, Tick);
        }
        s.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert!(s.node(n).seen <= 1001, "processed {}", s.node(n).seen);
        assert!(s.node(n).seen >= 900, "processed {}", s.node(n).seen);
        assert_eq!(s.metrics().cpu_ns(n), s.node(n).seen as u64 * 1_000_000);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut s = sim(1, false);
        s.add_node(PingPong::new(0, false, 0));
        s.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        assert_eq!(s.now(), SimTime::ZERO + SimDuration::from_secs(5));
    }
}
