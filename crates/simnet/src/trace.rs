//! Optional message tracing, used by the message-pattern conformance tests
//! (paper Figures 2, 3, 5, 6 and 13) and for debugging protocol runs.

use crate::actor::NodeId;
use crate::time::SimTime;

/// One traced message transmission.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Time the message was handed to the network.
    pub sent_at: SimTime,
    /// Time the message will be (or was) delivered; `None` if it was dropped.
    pub delivered_at: Option<SimTime>,
    /// Sender node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Message kind label (e.g. `"COMMIT"`).
    pub kind: &'static str,
    /// Wire size in bytes.
    pub size: usize,
}

/// Collects traced messages when enabled.
#[derive(Debug, Default)]
pub struct MessageTrace {
    enabled: bool,
    entries: Vec<TraceEntry>,
}

impl MessageTrace {
    /// Creates a trace collector; disabled by default.
    pub fn new(enabled: bool) -> Self {
        MessageTrace {
            enabled,
            entries: Vec::new(),
        }
    }

    /// Whether tracing is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one transmission if tracing is enabled.
    pub fn record(&mut self, entry: TraceEntry) {
        if self.enabled {
            self.entries.push(entry);
        }
    }

    /// All recorded entries, in send order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of messages of a given kind exchanged between two specific nodes.
    pub fn count_between(&self, from: NodeId, to: NodeId, kind: &str) -> usize {
        self.entries
            .iter()
            .filter(|e| e.from == from && e.to == to && e.kind == kind)
            .count()
    }

    /// Count of all entries of a given kind.
    pub fn count_kind(&self, kind: &str) -> usize {
        self.entries.iter().filter(|e| e.kind == kind).count()
    }

    /// Distinct message kinds seen, in first-appearance order.
    pub fn kinds(&self) -> Vec<&'static str> {
        let mut seen = Vec::new();
        for e in &self.entries {
            if !seen.contains(&e.kind) {
                seen.push(e.kind);
            }
        }
        seen
    }

    /// Clears the collected entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(from: NodeId, to: NodeId, kind: &'static str) -> TraceEntry {
        TraceEntry {
            sent_at: SimTime::ZERO,
            delivered_at: Some(SimTime::ZERO),
            from,
            to,
            kind,
            size: 100,
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = MessageTrace::new(false);
        t.record(entry(0, 1, "PING"));
        assert!(t.entries().is_empty());
    }

    #[test]
    fn enabled_trace_collects_and_filters() {
        let mut t = MessageTrace::new(true);
        t.record(entry(0, 1, "PREPARE"));
        t.record(entry(1, 0, "COMMIT"));
        t.record(entry(1, 2, "COMMIT"));
        assert_eq!(t.entries().len(), 3);
        assert_eq!(t.count_kind("COMMIT"), 2);
        assert_eq!(t.count_between(1, 2, "COMMIT"), 1);
        assert_eq!(t.count_kind("PREPARE"), 1);
        assert_eq!(t.kinds(), vec!["PREPARE", "COMMIT"]);
        t.clear();
        assert!(t.entries().is_empty());
    }
}
