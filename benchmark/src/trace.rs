//! Spans recorded from outside the layers, and the two wrappers that sit on
//! the replica's storage and state-machine seams.
//!
//! The benchmark changes no product code, so every span is taken from its own
//! files, around a call into a layer's public interface: the
//! [`TimedStorage`] and [`TimedStateMachine`] wrappers are handed to the
//! replica through `Replica::with_storage` and the state-machine constructor
//! argument, and the layer replay (`replay.rs`) wraps the calls it makes
//! itself. Spans are kept in memory and written to
//! `benchmark/out/trace-<workload>.jsonl` when the run ends.
//!
//! In an untraced run the wrappers hold no [`SpanSink`]: they forward every
//! call and keep only the few relaxed counters ([`SmProbe`], [`StoreProbe`])
//! that let the benchmark read state size, applied-op counts and storage
//! statistics of a replica owned by another thread.

use bytes::Bytes;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use xft_core::state_machine::StateMachine;
use xft_crypto::Digest;
use xft_store::{DiskFault, Recovered, Storage, StorageStats};

/// Raw spans kept per span name; beyond it only the aggregates grow (a 6 s
/// saturated round applies ~300 k ops per replica — keeping every span would
/// cost more memory than the state under test).
const SPANS_KEPT_PER_NAME: usize = 20_000;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span id, unique within its sink: `(thread tag << 40) | sequence`. It
    /// doubles as the trace id of everything the span caused.
    pub id: u64,
    /// Id of the span that caused this one (0 = a root).
    pub parent: u64,
    /// `<layer>.<call>`, e.g. `store.append`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's origin.
    pub end_ns: u64,
}

/// Count, total and individual durations of one span name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded (including those whose raw record was not kept).
    pub count: u64,
    /// Sum of their durations in nanoseconds.
    pub total_ns: u64,
}

#[derive(Debug, Default)]
struct SinkInner {
    seq: u64,
    spans: Vec<Span>,
    kept: BTreeMap<&'static str, usize>,
    totals: BTreeMap<&'static str, SpanTotals>,
}

/// An in-memory span recorder for one thread of activity.
#[derive(Debug)]
pub struct SpanSink {
    origin: Instant,
    /// Human-readable owner (`replica-0`, `replay`) written with each span.
    pub thread: String,
    tag: u64,
    inner: Mutex<SinkInner>,
}

impl SpanSink {
    /// A sink whose span ids carry `tag` and whose clock starts at `origin`.
    pub fn new(origin: Instant, thread: impl Into<String>, tag: u64) -> Arc<Self> {
        Arc::new(SpanSink {
            origin,
            thread: thread.into(),
            tag,
            inner: Mutex::new(SinkInner::default()),
        })
    }

    /// Records a finished span and returns its id.
    pub fn record(&self, name: &'static str, parent: u64, start: Instant, end: Instant) -> u64 {
        let id = self.reserve();
        self.record_reserved(id, name, parent, start, end);
        id
    }

    /// Runs `f`, recording a span named `name` under `parent` around it.
    pub fn time<R>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, start, Instant::now());
        out
    }

    /// Reserves the id of a span that is recorded later, once the children
    /// that name it as their parent are done.
    pub fn reserve(&self) -> u64 {
        let mut inner = self.inner.lock().expect("span sink poisoned");
        inner.seq += 1;
        (self.tag << 40) | inner.seq
    }

    /// Records a finished span under an id from [`SpanSink::reserve`].
    pub fn record_reserved(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut inner = self.inner.lock().expect("span sink poisoned");
        let totals = inner.totals.entry(name).or_default();
        totals.count += 1;
        totals.total_ns += end_ns.saturating_sub(start_ns);
        let kept = inner.kept.entry(name).or_default();
        if *kept < SPANS_KEPT_PER_NAME {
            *kept += 1;
            inner.spans.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        }
    }

    /// Aggregates of one span name (zero if never recorded).
    pub fn totals(&self, name: &str) -> SpanTotals {
        let inner = self.inner.lock().expect("span sink poisoned");
        inner.totals.get(name).cloned().unwrap_or_default()
    }

    /// Durations (ns) of the kept spans of one name, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        let inner = self.inner.lock().expect("span sink poisoned");
        inner
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Appends this sink's spans to `out` as JSON lines, preceded by one
    /// `meta` line stating how many spans per name were aggregated only.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let inner = self.inner.lock().expect("span sink poisoned");
        let dropped: Vec<String> = inner
            .totals
            .iter()
            .map(|(name, t)| {
                let kept = inner.kept.get(name).copied().unwrap_or(0) as u64;
                format!(
                    "\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"not_kept\": {}}}",
                    t.count,
                    t.total_ns,
                    t.count - kept
                )
            })
            .collect();
        writeln!(
            out,
            "{{\"meta\": true, \"thread\": \"{}\", \"totals\": {{{}}}}}",
            self.thread,
            dropped.join(", ")
        )?;
        for s in &inner.spans {
            writeln!(
                out,
                "{{\"trace\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"thread\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                // A root's trace id is its own id; a child belongs to its parent's trace.
                if s.parent == 0 { s.id } else { s.parent },
                s.id,
                s.parent,
                s.name,
                self.thread,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Counters a [`TimedStateMachine`] shares with the benchmark's main thread.
#[derive(Debug, Default)]
pub struct SmProbe {
    /// Operations applied.
    pub applied: AtomicU64,
    /// Applied operations whose reply was not a success.
    pub apply_errors: AtomicU64,
    /// Snapshots taken.
    pub snapshots: AtomicU64,
    /// Length in bytes of the most recent snapshot — the replicated state's
    /// size (`kvstore.state_bytes`), refreshed at every checkpoint.
    pub state_bytes: AtomicU64,
}

/// A state machine that forwards to `inner`, keeps an [`SmProbe`], and — in a
/// traced run — records a span around every call.
pub struct TimedStateMachine {
    inner: Box<dyn StateMachine>,
    probe: Arc<SmProbe>,
    sink: Option<Arc<SpanSink>>,
}

impl TimedStateMachine {
    /// Wraps `inner`; spans are recorded only when `sink` is given.
    pub fn new(
        inner: Box<dyn StateMachine>,
        probe: Arc<SmProbe>,
        sink: Option<Arc<SpanSink>>,
    ) -> Self {
        TimedStateMachine { inner, probe, sink }
    }
}

/// Runs `call`, inside a root span named `name` if `sink` is present.
fn spanned<R>(sink: &Option<Arc<SpanSink>>, name: &'static str, call: impl FnOnce() -> R) -> R {
    match sink {
        Some(sink) => sink.time(name, 0, call),
        None => call(),
    }
}

impl StateMachine for TimedStateMachine {
    fn apply(&mut self, op: &[u8]) -> Bytes {
        let inner = &mut self.inner;
        let reply = spanned(&self.sink, "kvstore.apply", || inner.apply(op));
        self.probe.applied.fetch_add(1, Ordering::Relaxed);
        // CoordinationService replies lead with 1 on success, 0 on error.
        if reply.first() != Some(&1) {
            self.probe.apply_errors.fetch_add(1, Ordering::Relaxed);
        }
        reply
    }

    fn state_digest(&self) -> Digest {
        spanned(&self.sink, "kvstore.state_digest", || {
            self.inner.state_digest()
        })
    }

    fn execution_cost_ns(&self, op: &[u8]) -> u64 {
        self.inner.execution_cost_ns(op)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn snapshot(&self) -> Bytes {
        let blob = spanned(&self.sink, "kvstore.snapshot", || self.inner.snapshot());
        self.probe.snapshots.fetch_add(1, Ordering::Relaxed);
        self.probe
            .state_bytes
            .store(blob.len() as u64, Ordering::Relaxed);
        blob
    }

    fn restore(&mut self, snapshot: &[u8]) -> bool {
        let inner = &mut self.inner;
        spanned(&self.sink, "kvstore.restore", || inner.restore(snapshot))
    }
}

/// Counters a [`TimedStorage`] shares with the benchmark's main thread — the
/// wrapped backend's [`StorageStats`], republished after every mutation, plus
/// the bytes appended (which `StorageStats::wal_bytes` forgets at each
/// snapshot's WAL rewrite).
#[derive(Debug, Default)]
pub struct StoreProbe {
    /// Records appended since open.
    pub appends: AtomicU64,
    /// Record payload bytes appended since open.
    pub appended_bytes: AtomicU64,
    /// Fsync barriers issued (including the overlapped thread's).
    pub syncs: AtomicU64,
    /// Snapshots installed.
    pub snapshots: AtomicU64,
}

/// Storage that forwards to `inner`, keeps a [`StoreProbe`], and — in a
/// traced run — records a span around `append`, `sync` and
/// `install_snapshot`.
pub struct TimedStorage {
    inner: Box<dyn Storage>,
    probe: Arc<StoreProbe>,
    sink: Option<Arc<SpanSink>>,
}

impl TimedStorage {
    /// Wraps `inner`; spans are recorded only when `sink` is given.
    pub fn new(
        inner: Box<dyn Storage>,
        probe: Arc<StoreProbe>,
        sink: Option<Arc<SpanSink>>,
    ) -> Self {
        TimedStorage { inner, probe, sink }
    }

    fn publish(&self) {
        let stats = self.inner.stats();
        self.probe.appends.store(stats.appends, Ordering::Relaxed);
        self.probe.syncs.store(stats.syncs, Ordering::Relaxed);
        self.probe
            .snapshots
            .store(stats.snapshots, Ordering::Relaxed);
    }
}

impl Storage for TimedStorage {
    fn append(&mut self, record: &[u8]) {
        let inner = &mut self.inner;
        spanned(&self.sink, "store.append", || inner.append(record));
        self.probe
            .appended_bytes
            .fetch_add(record.len() as u64, Ordering::Relaxed);
        self.publish();
    }

    fn sync(&mut self) {
        let inner = &mut self.inner;
        spanned(&self.sink, "store.sync", || inner.sync());
        self.publish();
    }

    fn install_snapshot(&mut self, snapshot: &[u8], records: &[Vec<u8>]) {
        let inner = &mut self.inner;
        spanned(&self.sink, "store.install_snapshot", || {
            inner.install_snapshot(snapshot, records)
        });
        self.publish();
    }

    fn load(&mut self) -> Recovered {
        self.inner.load()
    }

    fn wipe(&mut self) {
        self.inner.wipe();
    }

    fn inject(&mut self, fault: DiskFault) {
        self.inner.inject(fault);
    }

    fn stats(&self) -> StorageStats {
        self.inner.stats()
    }

    fn wal_lsn(&self) -> u64 {
        self.inner.wal_lsn()
    }

    fn durable_lsn(&self) -> u64 {
        self.inner.durable_lsn()
    }

    fn overlapped(&self) -> bool {
        self.inner.overlapped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use xft_core::state_machine::NullService;
    use xft_store::MemStorage;

    #[test]
    fn parents_are_recorded_after_their_children_and_written_as_json_lines() {
        let origin = Instant::now();
        let sink = SpanSink::new(origin, "t", 1);
        let at = |us: u64| origin + Duration::from_micros(us);
        let parent = sink.reserve();
        sink.record("child.a", parent, at(10), at(30));
        sink.record("child.b", parent, at(40), at(45));
        sink.record("other", 0, at(50), at(60));
        sink.record_reserved(parent, "parent", 0, at(0), at(100));
        // Self time = the span minus its children: 100 - (20 + 5) us.
        let children = sink.totals("child.a").total_ns + sink.totals("child.b").total_ns;
        assert_eq!(sink.totals("parent").total_ns - children, 75_000);
        assert_eq!(sink.totals("child.a").total_ns, 20_000);
        assert_eq!(sink.totals("parent").count, 1);
        let mut out = Vec::new();
        sink.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 5, "meta + 4 spans");
        assert!(text.lines().next().unwrap().contains("\"meta\": true"));
    }

    #[test]
    fn aggregates_outlive_the_raw_span_cap() {
        let origin = Instant::now();
        let sink = SpanSink::new(origin, "t", 2);
        for _ in 0..SPANS_KEPT_PER_NAME + 10 {
            sink.record("x", 0, origin, origin + Duration::from_nanos(5));
        }
        assert_eq!(sink.totals("x").count as usize, SPANS_KEPT_PER_NAME + 10);
        assert_eq!(sink.durations_ns("x").len(), SPANS_KEPT_PER_NAME);
    }

    #[test]
    fn wrappers_forward_and_count() {
        let sm_probe = Arc::new(SmProbe::default());
        let sink = SpanSink::new(Instant::now(), "t", 3);
        let mut sm = TimedStateMachine::new(
            Box::new(NullService::new()),
            sm_probe.clone(),
            Some(sink.clone()),
        );
        sm.apply(b"op");
        let blob = sm.snapshot();
        assert_eq!(sm_probe.applied.load(Ordering::Relaxed), 1);
        // NullService replies with an empty payload: counted as not-ok.
        assert_eq!(sm_probe.apply_errors.load(Ordering::Relaxed), 1);
        assert_eq!(
            sm_probe.state_bytes.load(Ordering::Relaxed),
            blob.len() as u64
        );
        assert_eq!(sink.totals("kvstore.apply").count, 1);

        let store_probe = Arc::new(StoreProbe::default());
        let mut st = TimedStorage::new(Box::new(MemStorage::new()), store_probe.clone(), None);
        st.append(b"abc");
        st.append(b"defg");
        st.sync();
        assert_eq!(store_probe.appends.load(Ordering::Relaxed), 2);
        assert_eq!(store_probe.appended_bytes.load(Ordering::Relaxed), 7);
        assert_eq!(st.wal_lsn(), 2);
        assert_eq!(st.load().records.len(), 2);
    }
}
