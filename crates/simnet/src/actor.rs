//! Actors (protocol nodes) and the [`Context`] they use to interact with the simulated
//! world.
//!
//! Every replica or client is an [`Actor`]. The simulation invokes its callbacks when
//! messages and timers arrive; the actor reacts by calling methods on the [`Context`],
//! which *records* the intended effects (sends, timers, CPU charges, metric events).
//! The simulation applies them once the callback returns — this keeps the borrow
//! structure simple and makes every step deterministic.

use crate::metrics::MetricEvent;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use xft_crypto::{CostModel, CryptoOp};

/// Index of a node in the simulation. Node ids are assigned densely in registration
/// order, so protocols can use them directly as replica/client identifiers.
pub type NodeId = usize;

/// Identifier of an armed timer, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub u64);

/// Messages exchanged through the simulated network.
///
/// `size_bytes` drives the bandwidth model (serialization delay on the sender's
/// uplink); `kind` labels the message in traces and message-pattern tests.
pub trait SimMessage: Clone + std::fmt::Debug {
    /// Approximate wire size of the message in bytes.
    fn size_bytes(&self) -> usize;

    /// Short label identifying the message type (e.g. `"COMMIT"`).
    fn kind(&self) -> &'static str {
        "msg"
    }
}

/// Control codes delivered to actors by fault scripts (protocol-specific meaning, e.g.
/// "become Byzantine with behaviour 3").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlCode(pub u64);

/// A protocol node driven by the simulation.
pub trait Actor {
    /// Message type exchanged by this protocol.
    type Msg: SimMessage;

    /// Called once when the simulation starts (or when the node is added to a running
    /// simulation). Typically used to arm initial timers or send the first request.
    fn on_start(&mut self, _ctx: &mut Context<Self::Msg>) {}

    /// Called when a message from `from` is delivered to this node.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Context<Self::Msg>);

    /// Called when a timer armed with `token` fires.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Context<Self::Msg>) {}

    /// Called when the node recovers from a crash. Pending timers were discarded at
    /// crash time; the node should re-arm whatever it needs. State is preserved
    /// (modeling stable storage), matching the paper's recovery experiments.
    fn on_recover(&mut self, _ctx: &mut Context<Self::Msg>) {}

    /// Called when a fault script delivers a control code to this node (e.g. to switch
    /// on a Byzantine behaviour).
    fn on_control(&mut self, _code: ControlCode, _ctx: &mut Context<Self::Msg>) {}
}

/// A message send requested by an actor during a callback.
#[derive(Debug, Clone)]
pub struct OutboundMessage<M> {
    /// Destination node.
    pub to: NodeId,
    /// Message payload.
    pub msg: M,
    /// The step's trace id when the actor called [`Context::send`] (0 =
    /// none; see [`Context::trace`]). Observation-only: the simulator hands
    /// it to the receiving step, the TCP runtime encodes it as the wire
    /// envelope's optional trace field.
    pub trace: u64,
}

/// A timer operation requested by an actor during a callback.
#[derive(Debug, Clone, Copy)]
pub enum TimerOp {
    /// Arm a timer after `delay` carrying `token`.
    Set {
        /// Pre-assigned id of the timer.
        id: TimerId,
        /// Delay until the timer fires.
        delay: SimDuration,
        /// Token passed back to `on_timer`.
        token: u64,
    },
    /// Cancel a previously armed timer.
    Cancel(TimerId),
}

/// Handle through which an actor interacts with the simulation during a callback.
pub struct Context<'a, M> {
    pub(crate) node: NodeId,
    pub(crate) now: SimTime,
    pub(crate) trace: u64,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) cost_model: CostModel,
    pub(crate) next_timer_id: &'a mut u64,
    pub(crate) sends: Vec<OutboundMessage<M>>,
    pub(crate) timer_ops: Vec<TimerOp>,
    pub(crate) cpu_charged_ns: u64,
    pub(crate) metric_events: Vec<MetricEvent>,
}

impl<'a, M: SimMessage> Context<'a, M> {
    pub(crate) fn new(
        node: NodeId,
        now: SimTime,
        trace: u64,
        rng: &'a mut SimRng,
        cost_model: CostModel,
        next_timer_id: &'a mut u64,
    ) -> Self {
        Context {
            node,
            now,
            trace,
            rng,
            cost_model,
            next_timer_id,
            sends: Vec::new(),
            timer_ops: Vec::new(),
            cpu_charged_ns: 0,
            metric_events: Vec::new(),
        }
    }

    /// The id of the node executing this callback.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The step's trace id (0 = none): the correlation id of the message
    /// that started the step, 0 for timers, control codes, start and
    /// recovery. Every [`Context::send`] stamps it. Observation-only: it
    /// labels telemetry and evidence, never protocol decisions.
    pub fn trace(&self) -> u64 {
        self.trace
    }

    /// Sets the step's trace id for the sends that follow — how a client
    /// mints a request's id and a replica re-attributes work it does on a
    /// request's behalf.
    pub fn set_trace(&mut self, id: u64) {
        self.trace = id;
    }

    /// Deterministic per-simulation RNG (shared stream).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Sends `msg` to `to` through the simulated network.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.sends.push(OutboundMessage {
            to,
            msg,
            trace: self.trace,
        });
    }

    /// Sends `msg` to every node in `targets`, skipping the local node.
    pub fn send_to_all(&mut self, targets: &[NodeId], msg: &M) {
        for &t in targets {
            if t != self.node {
                self.send(t, msg.clone());
            }
        }
    }

    /// Arms a timer firing after `delay` with the given `token`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        let id = TimerId(*self.next_timer_id);
        *self.next_timer_id += 1;
        self.timer_ops.push(TimerOp::Set { id, delay, token });
        id
    }

    /// Cancels a previously armed timer. Cancelling an already-fired timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.timer_ops.push(TimerOp::Cancel(id));
    }

    /// Charges the node's CPU for a cryptographic operation according to the cost
    /// model. The node will not process further events until the charged time elapses,
    /// which is what makes signature-heavy protocols saturate earlier (Figure 8).
    pub fn charge(&mut self, op: CryptoOp) {
        self.cpu_charged_ns += self.cost_model.cost_ns(op);
    }

    /// Charges an arbitrary amount of CPU time (e.g. request execution cost).
    pub fn charge_ns(&mut self, ns: u64) {
        self.cpu_charged_ns += ns;
    }

    /// Records a metric event (request committed, latency sample, custom counter…).
    pub fn record(&mut self, event: MetricEvent) {
        self.metric_events.push(event);
    }

    /// Convenience: records a committed request with its end-to-end latency.
    pub fn record_commit(&mut self, latency: SimDuration, payload_bytes: usize) {
        self.metric_events.push(MetricEvent::Commit {
            at: self.now,
            latency,
            payload_bytes,
        });
    }

    /// Convenience: increments a named counter.
    pub fn count(&mut self, name: &'static str, delta: u64) {
        self.metric_events.push(MetricEvent::Count { name, delta });
    }

    /// The total counted under `name` so far in this callback — how a handler
    /// driven through [`with_offline_context`] shows its counters.
    pub fn counted(&self, name: &str) -> u64 {
        self.metric_events
            .iter()
            .map(|event| match event {
                MetricEvent::Count { name: n, delta } if *n == name => *delta,
                _ => 0,
            })
            .sum()
    }

    /// The cost model in effect (lets protocols adapt message sizes to tests).
    pub fn cost_model(&self) -> CostModel {
        self.cost_model
    }

    /// The sends queued so far in this callback, in order. Contexts are
    /// fresh per callback, so at handler exit this is exactly what the
    /// handler emitted — the hook actors use to journal outbound traffic
    /// (e.g. the replica's evidence log) without shimming every send site.
    pub fn pending_sends(&self) -> &[OutboundMessage<M>] {
        &self.sends
    }
}

/// Runs `f` with a detached [`Context`] whose recorded effects are discarded.
///
/// Used by crash recovery: a replica rebuilding itself from stable storage
/// replays its committed log through the exact same execution path it uses
/// live (so exactly-once bookkeeping cannot drift), but outside any runtime —
/// there is nobody to send to and no timer wheel yet. Timer ids handed out
/// here start at a huge base so a stale id retained across recovery can never
/// collide with one a real runtime assigns later.
pub fn with_offline_context<M: SimMessage, R>(
    node: NodeId,
    f: impl FnOnce(&mut Context<'_, M>) -> R,
) -> R {
    let mut rng = SimRng::seed_from_u64(0);
    let mut next_timer_id = u64::MAX / 2;
    let mut ctx = Context::new(
        node,
        SimTime::ZERO,
        0,
        &mut rng,
        CostModel::free(),
        &mut next_timer_id,
    );
    f(&mut ctx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Ping(#[allow(dead_code)] u32);
    impl SimMessage for Ping {
        fn size_bytes(&self) -> usize {
            8
        }
        fn kind(&self) -> &'static str {
            "PING"
        }
    }

    #[test]
    fn context_records_sends_and_timers() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut next_timer = 0u64;
        let mut ctx: Context<Ping> = Context::new(
            0,
            SimTime::ZERO,
            0,
            &mut rng,
            CostModel::free(),
            &mut next_timer,
        );
        ctx.send(1, Ping(1));
        ctx.send_to_all(&[0, 1, 2], &Ping(2));
        let t = ctx.set_timer(SimDuration::from_millis(5), 42);
        ctx.cancel_timer(t);
        assert_eq!(ctx.sends.len(), 3); // self-send skipped by send_to_all
        assert_eq!(ctx.timer_ops.len(), 2);
        assert_eq!(ctx.id(), 0);
        assert_eq!(ctx.now(), SimTime::ZERO);
    }

    #[test]
    fn sends_carry_the_steps_trace_id() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut next_timer = 0u64;
        let mut ctx: Context<Ping> = Context::new(
            0,
            SimTime::ZERO,
            7,
            &mut rng,
            CostModel::free(),
            &mut next_timer,
        );
        assert_eq!(ctx.trace(), 7);
        ctx.send(1, Ping(1));
        ctx.set_trace(42);
        ctx.send(1, Ping(2));
        ctx.set_trace(0);
        ctx.send(1, Ping(3));
        let traces: Vec<u64> = ctx.sends.iter().map(|o| o.trace).collect();
        assert_eq!(traces, vec![7, 42, 0]);
        assert_eq!(
            with_offline_context(0, |ctx: &mut Context<'_, Ping>| ctx.trace()),
            0
        );
    }

    #[test]
    fn charge_accumulates_cpu() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut next_timer = 0u64;
        let mut ctx: Context<Ping> = Context::new(
            0,
            SimTime::ZERO,
            0,
            &mut rng,
            CostModel::paper_default(),
            &mut next_timer,
        );
        ctx.charge(CryptoOp::Sign);
        ctx.charge(CryptoOp::VerifySig);
        ctx.charge_ns(100);
        let expected = CostModel::paper_default().cost_ns(CryptoOp::Sign)
            + CostModel::paper_default().cost_ns(CryptoOp::VerifySig)
            + 100;
        assert_eq!(ctx.cpu_charged_ns, expected);
    }

    #[test]
    fn timer_ids_are_unique_across_contexts_sharing_counter() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut next_timer = 0u64;
        let id_a;
        {
            let mut ctx: Context<Ping> = Context::new(
                0,
                SimTime::ZERO,
                0,
                &mut rng,
                CostModel::free(),
                &mut next_timer,
            );
            id_a = ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        let mut ctx: Context<Ping> = Context::new(
            1,
            SimTime::ZERO,
            0,
            &mut rng,
            CostModel::free(),
            &mut next_timer,
        );
        let id_b = ctx.set_timer(SimDuration::from_millis(1), 0);
        assert_ne!(id_a, id_b);
    }
}
