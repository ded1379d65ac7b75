//! Fault injection: crashes, recoveries, partitions and Byzantine control codes,
//! optionally driven by a timed script (used verbatim to reproduce Figure 9).

use crate::actor::NodeId;
use crate::time::{SimDuration, SimTime};

/// A single fault (or repair) event applied to the simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Crash a node: it stops processing messages and timers until recovered.
    Crash(NodeId),
    /// Recover a crashed node (state preserved; `Actor::on_recover` is invoked).
    Recover(NodeId),
    /// Sever both directions of the link between two nodes.
    PartitionPair(NodeId, NodeId),
    /// Restore both directions of the link between two nodes.
    HealPair(NodeId, NodeId),
    /// Fully isolate a node from everyone else.
    Isolate(NodeId),
    /// Reconnect a previously isolated node.
    Reconnect(NodeId),
    /// Remove every partition and isolation in effect.
    HealAll,
    /// Deliver a protocol-specific control code to a node (e.g. "enable Byzantine
    /// behaviour 2", "drop your commit log"). The meaning is defined by the protocol.
    Control(NodeId, u64),
    /// Set the network-wide random message drop probability.
    SetDropProbability(f64),
}

/// A timed schedule of fault events.
#[derive(Debug, Clone, Default)]
pub struct FaultScript {
    events: Vec<(SimTime, FaultEvent)>,
}

impl FaultScript {
    /// Creates an empty script.
    pub fn new() -> Self {
        FaultScript { events: Vec::new() }
    }

    /// Builds a script from pre-timed events (used by the chaos schedule
    /// generator and by shrunk reproducers).
    pub fn from_events(events: Vec<(SimTime, FaultEvent)>) -> Self {
        FaultScript { events }
    }

    /// Adds an event at an absolute simulated time.
    pub fn at(mut self, time: SimTime, event: FaultEvent) -> Self {
        self.events.push((time, event));
        self
    }

    /// The scheduled events in insertion order.
    pub fn events(&self) -> &[(SimTime, FaultEvent)] {
        &self.events
    }

    /// Adds an event at fractional seconds of simulated time.
    pub fn at_secs_f64(self, seconds: f64, event: FaultEvent) -> Self {
        self.at(SimTime::ZERO + SimDuration::from_secs_f64(seconds), event)
    }

    /// Crash a node at `t` and recover it `downtime` later (the Figure 9 pattern:
    /// "each replica recovers 20 sec after having crashed").
    pub fn crash_for(self, t: SimTime, node: NodeId, downtime: SimDuration) -> Self {
        self.at(t, FaultEvent::Crash(node))
            .at(t + downtime, FaultEvent::Recover(node))
    }

    /// Returns the events sorted by time (stable for equal times).
    pub fn into_sorted_events(mut self) -> Vec<(SimTime, FaultEvent)> {
        self.events.sort_by_key(|(t, _)| *t);
        self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the script is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_sorts_events_by_time() {
        let script = FaultScript::new()
            .at_secs_f64(30.0, FaultEvent::Crash(1))
            .at_secs_f64(10.0, FaultEvent::Crash(0))
            .at_secs_f64(20.0, FaultEvent::Recover(0));
        let events = script.into_sorted_events();
        let times: Vec<u64> = events
            .iter()
            .map(|(t, _)| t.as_nanos() / 1_000_000_000)
            .collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn crash_for_emits_crash_and_recover() {
        let script = FaultScript::new().crash_for(
            SimTime::ZERO + SimDuration::from_secs(5),
            2,
            SimDuration::from_secs(7),
        );
        let events = script.into_sorted_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].1, FaultEvent::Crash(2));
        assert_eq!(events[1].1, FaultEvent::Recover(2));
        assert_eq!(events[1].0, SimTime::ZERO + SimDuration::from_secs(12));
    }

    #[test]
    fn empty_script_reports_empty() {
        assert!(FaultScript::new().is_empty());
        assert_eq!(FaultScript::new().len(), 0);
    }
}
