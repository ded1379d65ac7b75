//! The replica's one record per client: exactly-once execution (paper §4.2)
//! and the Algorithm 4 retransmission monitors.
//!
//! Until a request executes, its client's record can mark it *queued* (in the
//! admission FIFO) and *monitored* (a RE-SEND armed a timer that suspects the
//! view unless it commits in time). Once it executes, its timestamp joins the
//! exact executed ranges, never forgotten, and its reply a bounded cache.
//! Like `Votes`, `Sessions` is plain data: it is handed the arming of a timer
//! and returns the timers of the monitors it ends.

use super::TOKEN_MONITOR;
use crate::client::MAX_CLIENT_WINDOW;
use crate::durable::ClientRecordSnapshot;
use crate::messages::ReplyMsg;
use crate::types::{ClientId, ReplicaId, SeqNum, Timestamp, ViewNumber};
use std::collections::{BTreeMap, HashMap, HashSet};
use xft_crypto::Digest;
use xft_simnet::TimerId;

/// A cached reply with the *raw* application reply digest it was built from,
/// which re-binding the reply to a later view (`answer_executed`) needs.
#[derive(Debug, Clone)]
pub(crate) struct CachedReply {
    pub(crate) reply: ReplyMsg,
    pub(crate) rd: Digest,
    /// Retransmissions answered from this entry in view `resends_view` since
    /// the last escalation ([`CACHE_ANSWER_SUSPECT_THRESHOLD`]).
    pub(crate) resends: u32,
    /// The view `resends` counts in.
    pub(crate) resends_view: ViewNumber,
}

impl CachedReply {
    fn new(reply: ReplyMsg, rd: Digest) -> Self {
        CachedReply {
            reply,
            rd,
            resends: 0,
            resends_view: ViewNumber(0),
        }
    }
}

/// Cache re-answers of one request before the view is suspected. The client
/// retransmit cycle paces arrivals, so a single lost reply stays well below
/// this; only a persistently uncommittable request crosses it.
pub(crate) const CACHE_ANSWER_SUSPECT_THRESHOLD: u32 = 3;

/// Replies retained per client for re-answering retransmissions. A correct
/// client keeps its timestamp spread within `MAX_CLIENT_WINDOW`, so any
/// request it can still retransmit lies within the last `MAX_CLIENT_WINDOW`
/// executed timestamps; double that is ample.
pub(crate) const CLIENT_REPLY_CACHE: usize = 2 * MAX_CLIENT_WINDOW;

/// Where a request stands: executed, else in the admission FIFO, else
/// neither (it may be monitored).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Standing {
    Executed,
    Queued,
    Open,
}

/// One client's requests. Duplicates are matched by *exact* timestamp: a
/// windowed client's requests execute close together, and shedding can
/// reorder them.
#[derive(Debug, Default)]
struct ClientRecord {
    /// Replies to recent requests, pruned to [`CLIENT_REPLY_CACHE`] entries.
    replies: BTreeMap<Timestamp, CachedReply>,
    /// Every executed timestamp, as merged inclusive ranges (start → end):
    /// a handful of entries, since gaps close when shed stragglers execute.
    /// Unlike the reply cache it is exact forever, so a request whose reply
    /// was pruned is swallowed, never re-executed.
    executed_ranges: BTreeMap<u64, u64>,
    /// Requests in the admission FIFO.
    queued: HashSet<Timestamp>,
    /// Running monitors: token and timer.
    monitors: HashMap<Timestamp, (u64, TimerId)>,
}

impl ClientRecord {
    /// Records the execution of `reply`'s request (with the raw application
    /// reply digest), pruning the oldest replies past the cap.
    fn record(&mut self, reply: ReplyMsg, rd: Digest) {
        let ts = reply.timestamp;
        if !self.executed(ts) {
            // Join the range starting at ts + 1, then the one ending at ts − 1.
            let ranges = &mut self.executed_ranges;
            let end = ranges.remove(&ts.saturating_add(1)).unwrap_or(ts);
            match ranges.range_mut(..ts).next_back() {
                Some((_, pred)) if *pred + 1 == ts => *pred = end,
                _ => drop(ranges.insert(ts, end)),
            }
        }
        self.replies.insert(ts, CachedReply::new(reply, rd));
        while self.replies.len() > CLIENT_REPLY_CACHE {
            self.replies.pop_first();
        }
    }

    /// Whether request `ts` has ever been executed.
    fn executed(&self, ts: Timestamp) -> bool {
        let last = self.executed_ranges.range(..=ts).next_back();
        last.is_some_and(|(_, &end)| ts <= end)
    }

    /// The reply-retention rule of a checkpoint at window base `base`: a reply
    /// stays if it executed above the base, or if its timestamp is within
    /// `MAX_CLIENT_WINDOW` of the highest executed one (a correct client can
    /// still retransmit it, and the reply is its only recovery). The floor
    /// comes from the exact executed ranges, never from the reply map, whose
    /// stale entries differ between a veteran and an adopting replica.
    fn retains(&self, base: SeqNum) -> impl Fn(Timestamp, &CachedReply) -> bool {
        let highest = self.executed_ranges.values().next_back();
        let floor = highest.map(|end| end.saturating_sub(MAX_CLIENT_WINDOW as u64));
        move |ts, cached| cached.reply.sn > base || floor.is_none_or(|f| ts >= f)
    }

    /// Whether the record holds nothing: no executed request, no mark.
    fn is_empty(&self) -> bool {
        self.executed_ranges.is_empty() && self.queued.is_empty() && self.monitors.is_empty()
    }
}

/// Every client's record, and the running monitors by token.
#[derive(Debug, Default)]
pub(crate) struct Sessions {
    clients: HashMap<ClientId, ClientRecord>,
    /// Each running monitor's token → its request, for the timer dispatch.
    tokens: HashMap<u64, (ClientId, Timestamp)>,
    /// Monitors armed so far: the next token is `TOKEN_MONITOR + armed`.
    /// Never reset, so a stale timer's token never names a new monitor.
    armed: u64,
}

impl Sessions {
    /// Where request `(client, ts)` stands.
    pub(crate) fn standing(&self, client: ClientId, ts: Timestamp) -> Standing {
        match self.clients.get(&client) {
            Some(record) if record.executed(ts) => Standing::Executed,
            Some(record) if record.queued.contains(&ts) => Standing::Queued,
            _ => Standing::Open,
        }
    }

    /// Whether request `(client, ts)` has ever been executed.
    pub(crate) fn executed(&self, client: ClientId, ts: Timestamp) -> bool {
        self.clients.get(&client).is_some_and(|r| r.executed(ts))
    }

    /// The cached reply to exactly `(client, ts)`, if not yet pruned.
    pub(crate) fn cached(&mut self, client: ClientId, ts: Timestamp) -> Option<&mut CachedReply> {
        self.clients.get_mut(&client)?.replies.get_mut(&ts)
    }

    /// Marks `(client, ts)` queued: it entered the admission FIFO.
    pub(crate) fn queue(&mut self, client: ClientId, ts: Timestamp) {
        self.clients.entry(client).or_default().queued.insert(ts);
    }

    /// Clears the queued mark of `(client, ts)`: it left the FIFO.
    pub(crate) fn unqueue(&mut self, client: ClientId, ts: Timestamp) {
        if let Some(record) = self.clients.get_mut(&client) {
            record.queued.remove(&ts);
            if record.is_empty() {
                self.clients.remove(&client);
            }
        }
    }

    /// Requests marked queued: always the admission FIFO's length.
    pub(crate) fn queued(&self) -> usize {
        self.clients.values().map(|r| r.queued.len()).sum()
    }

    /// Arms the monitor of `(client, ts)` unless one runs: `arm` sets the
    /// timer for the monitor's token.
    pub(crate) fn monitor(
        &mut self,
        client: ClientId,
        ts: Timestamp,
        arm: impl FnOnce(u64) -> TimerId,
    ) {
        let record = self.clients.entry(client).or_default();
        if let std::collections::hash_map::Entry::Vacant(slot) = record.monitors.entry(ts) {
            let token = TOKEN_MONITOR + self.armed;
            self.armed += 1;
            slot.insert((token, arm(token)));
            self.tokens.insert(token, (client, ts));
        }
    }

    /// The monitor with `token` fired: ends it. Returns its client unless the
    /// request has executed or no monitor holds the token.
    pub(crate) fn expire(&mut self, token: u64) -> Option<ClientId> {
        let (client, ts) = self.tokens.remove(&token)?;
        let record = self.clients.get_mut(&client)?;
        record.monitors.remove(&ts);
        let executed = record.executed(ts);
        if record.is_empty() {
            self.clients.remove(&client);
        }
        (!executed).then_some(client)
    }

    /// Records the execution of `reply`'s request; its monitor ends, and the
    /// timer is returned for the caller to cancel. A queued mark stays: a
    /// re-sent copy can still sit in the FIFO, to be skipped as a duplicate
    /// when its batch executes.
    pub(crate) fn record(&mut self, reply: ReplyMsg, rd: Digest) -> Option<TimerId> {
        let ts = reply.timestamp;
        let record = self.clients.entry(reply.client).or_default();
        record.record(reply, rd);
        let (token, timer) = record.monitors.remove(&ts)?;
        self.tokens.remove(&token);
        Some(timer)
    }

    /// Drops the cached replies a checkpoint whose window base is `base` no
    /// longer keeps ([`ClientRecord::retains`]).
    pub(crate) fn prune_replies(&mut self, base: SeqNum) {
        for record in self.clients.values_mut() {
            let retains = record.retains(base);
            record.replies.retain(|ts, cached| retains(*ts, cached));
        }
    }

    /// The canonical exactly-once records of a checkpoint at window base
    /// `base` (see [`ClientRecordSnapshot`]), sorted by client id.
    pub(crate) fn snapshot(&self, base: SeqNum) -> Vec<ClientRecordSnapshot> {
        let mut clients = Vec::with_capacity(self.clients.len());
        for (&client, record) in &self.clients {
            let (ranges, retains) = (&record.executed_ranges, record.retains(base));
            let replies = record.replies.iter().filter(|(ts, c)| retains(**ts, c));
            let replies = replies.map(|(ts, c)| (*ts, c.reply.sn, c.rd)).collect();
            let ranges = ranges.iter().map(|(s, e)| (*s, *e)).collect();
            clients.push(ClientRecordSnapshot {
                client,
                ranges,
                replies,
            });
        }
        clients.retain(|c| !c.ranges.is_empty());
        clients.sort_by_key(|c| c.client.0);
        clients
    }

    /// Replaces every executed request and cached reply with a snapshot's.
    /// Replies come back digest-only, bound to replica `id` in `view` (the
    /// re-binding path refreshes them if the view moves on). Marks stay.
    pub(crate) fn restore(
        &mut self,
        snap: &[ClientRecordSnapshot],
        view: ViewNumber,
        id: ReplicaId,
    ) {
        self.forget_executed();
        for client in snap {
            let record = self.clients.entry(client.client).or_default();
            record.executed_ranges.extend(client.ranges.iter().copied());
            for &(ts, sn, rd) in &client.replies {
                let reply = ReplyMsg::bound((view, sn), (client.client, ts), &rd, None, id);
                record.replies.insert(ts, CachedReply::new(reply, rd));
            }
        }
    }

    /// Forgets every executed request and cached reply. Marks stay.
    pub(crate) fn forget_executed(&mut self) {
        self.clients.retain(|_, record| {
            record.replies.clear();
            record.executed_ranges.clear();
            !record.is_empty()
        });
    }

    /// Ends every monitor, returning their timers for the caller to cancel
    /// where they still run.
    pub(crate) fn drop_monitors(&mut self) -> Vec<TimerId> {
        self.tokens.clear();
        let timers = self.clients.values_mut().flat_map(|r| r.monitors.drain());
        let timers = timers.map(|(_, (_, timer))| timer).collect();
        self.clients.retain(|_, record| !record.is_empty());
        timers
    }

    /// Forgets everything but the token counter.
    pub(crate) fn clear(&mut self) {
        self.clients.clear();
        self.tokens.clear();
    }
}

#[cfg(test)]
impl Sessions {
    /// Running monitors.
    pub(crate) fn monitored(&self) -> usize {
        self.tokens.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SeqNum as Sn;
    use xft_crypto::Digest as D;

    fn reply(ts: Timestamp) -> ReplyMsg {
        reply_of(C, ts)
    }

    fn reply_of(client: ClientId, ts: Timestamp) -> ReplyMsg {
        ReplyMsg {
            view: ViewNumber(0),
            sn: Sn(ts),
            client,
            timestamp: ts,
            reply_digest: D::of(&ts.to_le_bytes()),
            payload: None,
            replica: 0,
            follower_commit: None,
        }
    }

    #[test]
    fn client_record_merges_executed_ranges() {
        let mut r = ClientRecord::default();
        for ts in [1, 2, 3, 7, 5, 6, 4] {
            r.record(reply(ts), D::of(&ts.to_le_bytes()));
        }
        // Out-of-order execution collapses into one contiguous range.
        assert_eq!(r.executed_ranges, BTreeMap::from([(1, 7)]));
        assert!(r.executed(1) && r.executed(7));
        assert!(!r.executed(0) && !r.executed(8));
        // A client picks its timestamps: the top of the range merges too.
        let mut r = ClientRecord::default();
        for ts in [u64::MAX, u64::MAX - 1] {
            r.record(reply(ts), D::of(&ts.to_le_bytes()));
        }
        assert_eq!(
            r.executed_ranges,
            BTreeMap::from([(u64::MAX - 1, u64::MAX)])
        );
    }

    #[test]
    fn client_record_executedness_survives_reply_pruning() {
        let mut r = ClientRecord::default();
        for ts in 1..=(CLIENT_REPLY_CACHE as u64 + 50) {
            r.record(reply(ts), D::of(&ts.to_le_bytes()));
        }
        assert_eq!(r.replies.len(), CLIENT_REPLY_CACHE);
        // The oldest replies were pruned…
        assert!(!r.replies.contains_key(&1));
        // …but their requests can never be re-admitted.
        assert!(r.executed(1));
        assert_eq!(r.executed_ranges.len(), 1);
    }

    #[test]
    fn client_record_tracks_gaps_until_they_close() {
        let mut r = ClientRecord::default();
        r.record(reply(1), D::of(b"1"));
        r.record(reply(3), D::of(b"3"));
        assert!(!r.executed(2), "the shed request is still admissible");
        assert_eq!(r.executed_ranges.len(), 2);
        r.record(reply(2), D::of(b"2"));
        assert_eq!(r.executed_ranges, BTreeMap::from([(1, 3)]));
    }

    const C: ClientId = ClientId(1);

    /// Arms `(C, ts)`'s monitor with a timer id equal to its token.
    fn monitor(s: &mut Sessions, ts: Timestamp) {
        s.monitor(C, ts, TimerId);
    }

    #[test]
    fn a_request_can_be_queued_and_monitored_at_once() {
        let mut s = Sessions::default();
        s.queue(C, 1);
        monitor(&mut s, 1);
        monitor(&mut s, 1); // already running: no second monitor
        assert_eq!(s.standing(C, 1), Standing::Queued);
        assert_eq!((s.queued(), s.monitored()), (1, 1));
        s.unqueue(C, 1);
        assert_eq!(s.standing(C, 1), Standing::Open);
        assert_eq!((s.queued(), s.monitored()), (0, 1));
        assert_eq!(s.expire(TOKEN_MONITOR), Some(C), "not executed: suspect");
        assert_eq!(s.expire(TOKEN_MONITOR), None, "ended");
        assert!(s.clients.is_empty(), "nothing left of the record");
    }

    #[test]
    fn execution_ends_the_monitor_but_not_the_queued_mark() {
        let mut s = Sessions::default();
        s.queue(C, 1);
        monitor(&mut s, 1);
        let timer = s.record(reply(1), D::of(b"1"));
        assert_eq!(timer, Some(TimerId(TOKEN_MONITOR)));
        assert_eq!(s.standing(C, 1), Standing::Executed);
        assert_eq!((s.queued(), s.monitored()), (1, 0));
        assert_eq!(s.record(reply(2), D::of(b"2")), None, "never monitored");
        // A monitor that outlived its request's execution (a restored
        // snapshot executed it) suspects nothing.
        monitor(&mut s, 3);
        let snap = s.snapshot(SeqNum(0));
        s.restore(&snap, ViewNumber(0), 0);
        assert_eq!(s.expire(TOKEN_MONITOR + 1), Some(C));
        monitor(&mut s, 4);
        let mut snap = s.snapshot(SeqNum(0));
        snap[0].ranges = vec![(1, 4)];
        s.restore(&snap, ViewNumber(0), 0);
        assert_eq!(s.expire(TOKEN_MONITOR + 2), None);
    }

    #[test]
    fn the_token_counter_outlives_every_reset() {
        let mut s = Sessions::default();
        monitor(&mut s, 1);
        s.record(reply(2), D::of(b"2"));
        assert_eq!(s.drop_monitors(), vec![TimerId(TOKEN_MONITOR)]);
        assert!(s.executed(C, 2), "executed state stays");
        s.clear();
        monitor(&mut s, 1);
        assert_eq!(s.drop_monitors(), vec![TimerId(TOKEN_MONITOR + 1)]);
    }

    #[test]
    fn snapshots_skip_clients_without_executed_requests_and_sort_by_id() {
        let mut s = Sessions::default();
        for client in [ClientId(9), ClientId(3), ClientId(5)] {
            s.record(reply_of(client, 1), D::of(b"1"));
        }
        s.queue(ClientId(4), 1);
        let ids: Vec<u64> = s.snapshot(SeqNum(0)).iter().map(|c| c.client.0).collect();
        assert_eq!(ids, vec![3, 5, 9]);
        s.forget_executed();
        assert!(s.snapshot(SeqNum(0)).is_empty());
        assert_eq!(s.queued(), 1, "the queued mark stays");
    }
}
