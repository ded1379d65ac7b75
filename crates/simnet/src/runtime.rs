//! The Actor-driving contract shared by the simulator and real deployments.
//!
//! [`Simulation`](crate::sim::Simulation) used to be the only thing that could
//! invoke an [`Actor`]'s callbacks, because [`Context`] construction and effect
//! extraction were private to its event loop. This module extracts that
//! machinery:
//!
//! * [`ActorEvent`] — the five stimuli an actor can receive;
//! * [`ActorDriver::step`] — runs one callback and returns the recorded
//!   [`StepEffects`] (sends, timer operations, CPU charges, metric events,
//!   halt requests) without interpreting them;
//! * [`Runtime`] — the surface a backend exposes to harnesses: inject a
//!   message, advance time, read metrics.
//!
//! The simulator applies effects through its discrete-event queue; `xft-net`'s
//! TCP runtime applies the *same* effects to real sockets and wall-clock
//! timers. Protocol code is identical on both backends.

use crate::actor::{Actor, Context, ControlCode, NodeId, OutboundMessage, TimerOp};
use crate::metrics::{MetricEvent, Metrics};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use xft_crypto::CostModel;

/// A stimulus delivered to an actor by whichever runtime drives it.
#[derive(Debug, Clone)]
pub enum ActorEvent<M> {
    /// The node starts (first activation).
    Start,
    /// A message arrives from `from`.
    Message {
        /// Sending node.
        from: NodeId,
        /// The message.
        msg: M,
        /// The trace id the message carried (0 = none); the step's
        /// [`Context::trace`].
        trace: u64,
    },
    /// A timer armed with `token` fires.
    Timer {
        /// Token passed back to the actor.
        token: u64,
    },
    /// The node recovers from a crash (state preserved, timers lost).
    Recover,
    /// A control code arrives (fault scripts, operator tooling).
    Control(ControlCode),
}

/// Everything an actor asked for during one callback, in request order.
/// The driver records; the runtime interprets.
#[derive(Debug)]
pub struct StepEffects<M> {
    /// Messages to transmit.
    pub sends: Vec<OutboundMessage<M>>,
    /// Timers to arm or cancel.
    pub timer_ops: Vec<TimerOp>,
    /// CPU time charged through the cost model.
    pub cpu_charged_ns: u64,
    /// Metric events recorded.
    pub metric_events: Vec<MetricEvent>,
}

/// Drives actors one event at a time on behalf of a runtime.
///
/// Owns the pieces of per-callback state that must be consistent across a
/// node's lifetime — the timer-id counter (so [`crate::actor::TimerId`]s never
/// collide) and the crypto cost model — while the runtime keeps ownership of
/// its RNG and clock.
#[derive(Debug)]
pub struct ActorDriver {
    cost_model: CostModel,
    next_timer_id: u64,
}

impl ActorDriver {
    /// Creates a driver charging crypto operations according to `cost_model`.
    pub fn new(cost_model: CostModel) -> Self {
        ActorDriver {
            cost_model,
            next_timer_id: 0,
        }
    }

    /// The cost model this driver charges.
    pub fn cost_model(&self) -> CostModel {
        self.cost_model
    }

    /// Invokes the callback for `event` on `actor` (as node `node`, at time
    /// `now`) and returns the effects it recorded.
    pub fn step<A: Actor>(
        &mut self,
        actor: &mut A,
        node: NodeId,
        now: SimTime,
        rng: &mut SimRng,
        event: ActorEvent<A::Msg>,
    ) -> StepEffects<A::Msg> {
        let trace = match event {
            ActorEvent::Message { trace, .. } => trace,
            _ => 0,
        };
        let mut ctx = Context::new(
            node,
            now,
            trace,
            rng,
            self.cost_model,
            &mut self.next_timer_id,
        );
        match event {
            ActorEvent::Start => actor.on_start(&mut ctx),
            ActorEvent::Message { from, msg, .. } => actor.on_message(from, msg, &mut ctx),
            ActorEvent::Timer { token } => actor.on_timer(token, &mut ctx),
            ActorEvent::Recover => actor.on_recover(&mut ctx),
            ActorEvent::Control(code) => actor.on_control(code, &mut ctx),
        }
        let Context {
            sends,
            timer_ops,
            cpu_charged_ns,
            metric_events,
            ..
        } = ctx;
        StepEffects {
            sends,
            timer_ops,
            cpu_charged_ns,
            metric_events,
        }
    }
}

/// The surface a runtime backend exposes to harnesses and tools: inject
/// messages, advance time, read metrics. Implemented by the simulator's
/// [`Simulation`](crate::sim::Simulation) over virtual time and by `xft-net`'s
/// TCP runtime over wall-clock time.
pub trait Runtime<A: Actor> {
    /// Current time on this backend's clock (virtual or wall).
    fn now(&self) -> SimTime;

    /// Delivers `msg` to local node `to` as if sent by `from`.
    fn post_message(&mut self, from: NodeId, to: NodeId, msg: A::Msg);

    /// Runs the backend for `duration` of its native time. Returns the number
    /// of events processed.
    fn run_for(&mut self, duration: SimDuration) -> u64;

    /// Metrics collected so far.
    fn metrics(&self) -> &Metrics;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::SimMessage;

    #[derive(Clone, Debug)]
    struct Echo(u32);
    impl SimMessage for Echo {
        fn size_bytes(&self) -> usize {
            4
        }
    }

    /// Replies to every message and counts lifecycle callbacks.
    struct EchoActor {
        started: bool,
        recovered: bool,
        controls: Vec<u64>,
        timer_tokens: Vec<u64>,
    }

    impl Actor for EchoActor {
        type Msg = Echo;
        fn on_start(&mut self, ctx: &mut Context<Echo>) {
            self.started = true;
            ctx.set_timer(SimDuration::from_millis(1), 7);
        }
        fn on_message(&mut self, from: NodeId, msg: Echo, ctx: &mut Context<Echo>) {
            ctx.send(from, Echo(msg.0 + 1));
            ctx.record_commit(SimDuration::from_millis(2), 4);
        }
        fn on_timer(&mut self, token: u64, _ctx: &mut Context<Echo>) {
            self.timer_tokens.push(token);
        }
        fn on_recover(&mut self, _ctx: &mut Context<Echo>) {
            self.recovered = true;
        }
        fn on_control(&mut self, code: ControlCode, _ctx: &mut Context<Echo>) {
            self.controls.push(code.0);
        }
    }

    #[test]
    fn driver_dispatches_every_event_kind_and_collects_effects() {
        let mut driver = ActorDriver::new(CostModel::free());
        let mut rng = SimRng::seed_from_u64(1);
        let mut actor = EchoActor {
            started: false,
            recovered: false,
            controls: vec![],
            timer_tokens: vec![],
        };
        let now = SimTime::ZERO;

        let fx = driver.step(&mut actor, 0, now, &mut rng, ActorEvent::Start);
        assert!(actor.started);
        assert_eq!(fx.timer_ops.len(), 1);

        let fx = driver.step(
            &mut actor,
            0,
            now,
            &mut rng,
            ActorEvent::Message {
                from: 3,
                msg: Echo(9),
                trace: 0,
            },
        );
        assert_eq!(fx.sends.len(), 1);
        assert_eq!(fx.sends[0].to, 3);
        assert_eq!(fx.metric_events.len(), 1);

        driver.step(&mut actor, 0, now, &mut rng, ActorEvent::Timer { token: 7 });
        assert_eq!(actor.timer_tokens, vec![7]);

        driver.step(&mut actor, 0, now, &mut rng, ActorEvent::Recover);
        assert!(actor.recovered);

        driver.step(
            &mut actor,
            0,
            now,
            &mut rng,
            ActorEvent::Control(ControlCode(42)),
        );
        assert_eq!(actor.controls, vec![42]);
    }

    /// A step's trace id comes from its own event: a message step carries
    /// the message's id, and the next step starts from its event's, so no
    /// id leaks from one step into another.
    #[test]
    fn each_step_starts_from_its_events_trace() {
        let mut driver = ActorDriver::new(CostModel::free());
        let mut rng = SimRng::seed_from_u64(1);
        let mut actor = EchoActor {
            started: false,
            recovered: false,
            controls: vec![],
            timer_tokens: vec![],
        };
        let now = SimTime::ZERO;
        let message = ActorEvent::Message {
            from: 3,
            msg: Echo(9),
            trace: 77,
        };
        let fx = driver.step(&mut actor, 0, now, &mut rng, message);
        assert_eq!(fx.sends[0].trace, 77);
        let fx = driver.step(&mut actor, 0, now, &mut rng, ActorEvent::Start);
        assert_eq!(fx.sends.iter().map(|o| o.trace).sum::<u64>(), 0);
        let untraced = ActorEvent::Message {
            from: 3,
            msg: Echo(9),
            trace: 0,
        };
        let fx = driver.step(&mut actor, 0, now, &mut rng, untraced);
        assert_eq!(fx.sends[0].trace, 0);
    }

    #[test]
    fn timer_ids_stay_unique_across_steps() {
        let mut driver = ActorDriver::new(CostModel::free());
        let mut rng = SimRng::seed_from_u64(1);
        let mut actor = EchoActor {
            started: false,
            recovered: false,
            controls: vec![],
            timer_tokens: vec![],
        };
        let a = driver.step(&mut actor, 0, SimTime::ZERO, &mut rng, ActorEvent::Start);
        let b = driver.step(&mut actor, 1, SimTime::ZERO, &mut rng, ActorEvent::Start);
        let id = |fx: &StepEffects<Echo>| match fx.timer_ops[0] {
            TimerOp::Set { id, .. } => id,
            _ => panic!("expected Set"),
        };
        assert_ne!(id(&a), id(&b));
    }
}
