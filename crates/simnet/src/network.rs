//! The simulated network: partitions, link failures, bandwidth and message scheduling.
//!
//! The network computes, for each message send, the delivery time at the destination
//! (or decides to drop the message). Delivery time is the sum of:
//!
//! * queueing on the sender's **uplink** — every node has a finite uplink bandwidth
//!   shared by all of its outgoing messages, which is what makes the leader's uplink the
//!   bottleneck in the WAN experiments (paper §5.5);
//! * **serialization delay** (`size / bandwidth`);
//! * **propagation delay** sampled from the [`crate::latency::LatencyModel`].
//!
//! Partitions and crashed destinations cause silent message drops, which is exactly the
//! paper's notion of a network fault (messages not delivered within Δ).

use crate::actor::NodeId;
use crate::latency::LatencyModel;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use std::collections::{HashMap, HashSet};

/// Per-node uplink bandwidth in bytes per second. `None` means infinite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bandwidth(pub Option<f64>);

impl Bandwidth {
    /// Unlimited bandwidth.
    pub const UNLIMITED: Bandwidth = Bandwidth(None);

    /// Bandwidth expressed in megabits per second.
    pub fn mbps(mb: f64) -> Self {
        Bandwidth(Some(mb * 1_000_000.0 / 8.0))
    }

    /// Serialization delay of a message of `bytes` bytes.
    pub fn serialization_delay(&self, bytes: usize) -> SimDuration {
        match self.0 {
            None => SimDuration::ZERO,
            Some(bps) => SimDuration::from_secs_f64(bytes as f64 / bps),
        }
    }
}

/// The network state: who can talk to whom, how fast, and how reliably.
pub struct Network {
    latency: Box<dyn LatencyModel>,
    /// Directed pairs (from, to) that are currently severed.
    blocked_links: HashSet<(NodeId, NodeId)>,
    /// Nodes that are fully partitioned from everyone else.
    isolated: HashSet<NodeId>,
    /// Per-node uplink bandwidth.
    uplink_bandwidth: Vec<Bandwidth>,
    /// Time at which each node's uplink becomes free.
    uplink_free_at: Vec<SimTime>,
    /// Probability that an otherwise deliverable message is dropped (packet loss).
    drop_probability: f64,
    /// Per-directed-link time of the latest scheduled delivery, used to enforce FIFO
    /// (TCP-like in-order) delivery on each link.
    link_last_delivery: HashMap<(NodeId, NodeId), SimTime>,
    /// Count of messages dropped due to partitions / isolation / loss.
    dropped: u64,
    /// Count of messages scheduled for delivery.
    delivered: u64,
}

/// Outcome of asking the network to carry one message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SendOutcome {
    /// The message will arrive at the destination at the given time.
    DeliverAt(SimTime),
    /// The message is lost (partition, isolation or random drop).
    Dropped,
}

impl Network {
    /// Creates a network over `nodes` nodes with the given latency model and a uniform
    /// uplink bandwidth.
    pub fn new(nodes: usize, latency: Box<dyn LatencyModel>, uplink: Bandwidth) -> Self {
        Network {
            latency,
            blocked_links: HashSet::new(),
            isolated: HashSet::new(),
            uplink_bandwidth: vec![uplink; nodes],
            uplink_free_at: vec![SimTime::ZERO; nodes],
            drop_probability: 0.0,
            link_last_delivery: HashMap::new(),
            dropped: 0,
            delivered: 0,
        }
    }

    /// Grows the network to accommodate `nodes` nodes (newly added nodes inherit
    /// unlimited bandwidth unless configured afterwards).
    pub fn ensure_capacity(&mut self, nodes: usize) {
        while self.uplink_bandwidth.len() < nodes {
            self.uplink_bandwidth.push(Bandwidth::UNLIMITED);
            self.uplink_free_at.push(SimTime::ZERO);
        }
    }

    /// Sets the random packet-loss probability (applied per message).
    pub fn set_drop_probability(&mut self, p: f64) {
        self.drop_probability = p.clamp(0.0, 1.0);
    }

    /// Severs both directions between `a` and `b`.
    pub fn block_pair(&mut self, a: NodeId, b: NodeId) {
        self.blocked_links.insert((a, b));
        self.blocked_links.insert((b, a));
    }

    /// Restores both directions between `a` and `b`.
    pub fn unblock_pair(&mut self, a: NodeId, b: NodeId) {
        self.blocked_links.remove(&(a, b));
        self.blocked_links.remove(&(b, a));
    }

    /// Fully partitions `node` from every other node (in both directions).
    pub fn isolate(&mut self, node: NodeId) {
        self.isolated.insert(node);
    }

    /// Reconnects a previously isolated node.
    pub fn reconnect(&mut self, node: NodeId) {
        self.isolated.remove(&node);
    }

    /// Removes every partition and link block.
    pub fn heal_all(&mut self) {
        self.blocked_links.clear();
        self.isolated.clear();
    }

    /// Whether a message from `from` to `to` would currently be allowed through.
    pub fn can_communicate(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return true;
        }
        !(self.isolated.contains(&from)
            || self.isolated.contains(&to)
            || self.blocked_links.contains(&(from, to)))
    }

    /// Statistics: (delivered, dropped) message counts.
    pub fn counters(&self) -> (u64, u64) {
        (self.delivered, self.dropped)
    }

    /// Schedules a message of `size_bytes` from `from` to `to` sent at time `now`.
    pub fn schedule(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        size_bytes: usize,
        rng: &mut SimRng,
    ) -> SendOutcome {
        if !self.can_communicate(from, to) {
            self.dropped += 1;
            return SendOutcome::Dropped;
        }
        if self.drop_probability > 0.0 && from != to && rng.chance(self.drop_probability) {
            self.dropped += 1;
            return SendOutcome::Dropped;
        }

        self.ensure_capacity(from.max(to) + 1);

        // Self-sends bypass the network entirely.
        if from == to {
            self.delivered += 1;
            return SendOutcome::DeliverAt(now);
        }

        let ser = self.uplink_bandwidth[from].serialization_delay(size_bytes);
        let start = if self.uplink_free_at[from] > now {
            self.uplink_free_at[from]
        } else {
            now
        };
        let departure = start + ser;
        self.uplink_free_at[from] = departure;

        let propagation = self.latency.sample(from, to, rng);
        // Enforce in-order (TCP-like) delivery per directed link: a message never
        // overtakes one sent earlier on the same link.
        let mut delivery = departure + propagation;
        let last = self
            .link_last_delivery
            .entry((from, to))
            .or_insert(SimTime::ZERO);
        if delivery < *last {
            delivery = *last;
        }
        *last = delivery;
        self.delivered += 1;
        SendOutcome::DeliverAt(delivery)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::ConstantLatency;

    fn net(nodes: usize, latency_ms: u64, uplink: Bandwidth) -> Network {
        Network::new(
            nodes,
            Box::new(ConstantLatency(SimDuration::from_millis(latency_ms))),
            uplink,
        )
    }

    #[test]
    fn unlimited_bandwidth_delivers_after_latency() {
        let mut n = net(2, 10, Bandwidth::UNLIMITED);
        let mut rng = SimRng::seed_from_u64(1);
        match n.schedule(SimTime::ZERO, 0, 1, 1000, &mut rng) {
            SendOutcome::DeliverAt(t) => {
                assert_eq!(t, SimTime::ZERO + SimDuration::from_millis(10))
            }
            SendOutcome::Dropped => panic!("unexpected drop"),
        }
    }

    #[test]
    fn bandwidth_serializes_consecutive_messages() {
        // 1 MB/s uplink: a 100 kB message takes 100 ms to serialize.
        let mut n = net(2, 0, Bandwidth(Some(1_000_000.0)));
        let mut rng = SimRng::seed_from_u64(1);
        let first = n.schedule(SimTime::ZERO, 0, 1, 100_000, &mut rng);
        let second = n.schedule(SimTime::ZERO, 0, 1, 100_000, &mut rng);
        let (SendOutcome::DeliverAt(t1), SendOutcome::DeliverAt(t2)) = (first, second) else {
            panic!("unexpected drop");
        };
        assert_eq!(t1, SimTime::ZERO + SimDuration::from_millis(100));
        assert_eq!(t2, SimTime::ZERO + SimDuration::from_millis(200));
    }

    #[test]
    fn blocked_pairs_drop_messages_until_unblocked() {
        let mut n = net(3, 1, Bandwidth::UNLIMITED);
        let mut rng = SimRng::seed_from_u64(1);
        n.block_pair(0, 1);
        for (from, to) in [(0, 1), (1, 0)] {
            assert_eq!(
                n.schedule(SimTime::ZERO, from, to, 10, &mut rng),
                SendOutcome::Dropped
            );
        }
        // Other links still work.
        assert!(matches!(
            n.schedule(SimTime::ZERO, 0, 2, 10, &mut rng),
            SendOutcome::DeliverAt(_)
        ));
        n.unblock_pair(0, 1);
        for (from, to) in [(0, 1), (1, 0)] {
            assert!(matches!(
                n.schedule(SimTime::ZERO, from, to, 10, &mut rng),
                SendOutcome::DeliverAt(_)
            ));
        }
    }

    #[test]
    fn isolation_blocks_both_directions() {
        let mut n = net(3, 1, Bandwidth::UNLIMITED);
        let mut rng = SimRng::seed_from_u64(1);
        n.isolate(2);
        assert_eq!(
            n.schedule(SimTime::ZERO, 0, 2, 10, &mut rng),
            SendOutcome::Dropped
        );
        assert_eq!(
            n.schedule(SimTime::ZERO, 2, 0, 10, &mut rng),
            SendOutcome::Dropped
        );
        assert!(matches!(
            n.schedule(SimTime::ZERO, 0, 1, 10, &mut rng),
            SendOutcome::DeliverAt(_)
        ));
        n.reconnect(2);
        assert!(n.can_communicate(0, 2));
    }

    #[test]
    fn heal_all_clears_every_fault() {
        let mut n = net(3, 1, Bandwidth::UNLIMITED);
        n.block_pair(0, 1);
        n.isolate(2);
        n.heal_all();
        assert!(n.can_communicate(0, 1));
        assert!(n.can_communicate(2, 0));
    }

    #[test]
    fn drop_probability_one_drops_everything() {
        let mut n = net(2, 1, Bandwidth::UNLIMITED);
        n.set_drop_probability(1.0);
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(
                n.schedule(SimTime::ZERO, 0, 1, 10, &mut rng),
                SendOutcome::Dropped
            );
        }
        let (delivered, dropped) = n.counters();
        assert_eq!(delivered, 0);
        assert_eq!(dropped, 10);
    }

    #[test]
    fn self_send_is_instant_and_never_dropped() {
        let mut n = net(2, 50, Bandwidth(Some(10.0)));
        n.set_drop_probability(1.0);
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(
            n.schedule(SimTime::ZERO, 0, 0, 1_000_000, &mut rng),
            SendOutcome::DeliverAt(SimTime::ZERO)
        );
    }

    #[test]
    fn bandwidth_helpers() {
        let bw = Bandwidth::mbps(8.0); // 1 MB/s
        assert_eq!(bw.serialization_delay(1_000_000), SimDuration::from_secs(1));
        assert_eq!(
            Bandwidth::UNLIMITED.serialization_delay(1 << 30),
            SimDuration::ZERO
        );
    }
}
