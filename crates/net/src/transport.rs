//! Connection management: handshakes, the outbound writer with bounded
//! per-peer queues and reconnect, the accept loop and the inbound readers.
//!
//! Connections are unidirectional: the node that needs to send opens the
//! connection and writes; the accepting side only reads. A full mesh therefore
//! uses up to two TCP connections per node pair, which keeps both endpoints'
//! state machines trivial (no stream sharing, no write locks).
//!
//! One thread per job, none of them polling: every accepted connection gets a
//! reader thread that blocks in `read`, and one [`Writer`] thread per node
//! owns all outbound connections and blocks on a condvar while every queue is
//! empty. That is sized for what a node serves in practice — a handful of
//! inbound connections (its peer replicas plus one multiplexed client
//! endpoint); hundreds of un-muxed client sockets should be fronted by the
//! mux client instead of costing a replica one reader thread each.

use crate::address::AddressBook;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xft_simnet::NodeId;
use xft_telemetry::Telemetry;
use xft_wire::{decode_msg_traced, FrameBuffer, TraceContext, WireDecode};

/// Magic opening the per-connection handshake (distinct from the per-message
/// envelope magic so a misdirected client fails immediately).
///
/// The announced node id is trust-on-connect: it routes `from` attribution
/// but is not authenticated at the transport layer. XPaxos does not rely on
/// transport identity for safety — every protocol decision that matters is
/// backed by per-message signatures verified against the key registry.
pub const HELLO_MAGIC: [u8; 4] = *b"XFTN";

/// Transport protocol version carried in the handshake.
pub const TRANSPORT_VERSION: u8 = 1;

/// Wire size of the handshake: magic, version, sender node id.
pub const HELLO_LEN: usize = 4 + 1 + 8;

/// Longest an idle writer or reader blocks before re-checking the shutdown
/// flag; bounds shutdown latency.
const TICK: Duration = Duration::from_millis(50);

/// Capacity of each per-peer outbound queue (frames beyond it are dropped).
const QUEUE_CAPACITY: usize = 4096;

/// Capacity of a runtime's inbound message queue. When the protocol thread
/// lags, connection readers block on it, exerting TCP back-pressure on peers
/// instead of buffering without bound.
pub(crate) const INBOX_CAPACITY: usize = 65536;

/// Builds the handshake bytes announcing `node`.
pub fn hello_bytes(node: NodeId) -> [u8; HELLO_LEN] {
    let mut out = [0u8; HELLO_LEN];
    out[..4].copy_from_slice(&HELLO_MAGIC);
    out[4] = TRANSPORT_VERSION;
    out[5..].copy_from_slice(&(node as u64).to_le_bytes());
    out
}

/// Parses a handshake, returning the announced node id.
pub fn parse_hello(raw: &[u8; HELLO_LEN]) -> Option<NodeId> {
    if raw[..4] != HELLO_MAGIC || raw[4] != TRANSPORT_VERSION {
        return None;
    }
    let id = u64::from_le_bytes(raw[5..].try_into().expect("length fixed"));
    usize::try_from(id).ok()
}

/// Counters shared by all transport threads of one runtime (drop accounting is
/// surfaced by the binaries and asserted on in tests).
#[derive(Debug)]
pub struct TransportStats {
    /// Frames dropped because a peer queue was full.
    pub dropped_full: AtomicU64,
    /// Frames dropped because the peer was unreachable.
    pub dropped_unreachable: AtomicU64,
    /// Frames successfully written to a socket.
    pub sent: AtomicU64,
    /// Frames received and decoded.
    pub received: AtomicU64,
    /// Telemetry hub shared with the runtime: every transport drop also lands
    /// in the `xft_net_dropped_total` counter, queue depths in gauges.
    /// Disabled by default.
    pub telemetry: Arc<Telemetry>,
}

impl Default for TransportStats {
    fn default() -> Self {
        Self::with_telemetry(Telemetry::disabled())
    }
}

impl TransportStats {
    /// Stats whose drop/queue accounting also feeds `telemetry`.
    pub fn with_telemetry(telemetry: Arc<Telemetry>) -> Self {
        TransportStats {
            dropped_full: AtomicU64::new(0),
            dropped_unreachable: AtomicU64::new(0),
            sent: AtomicU64::new(0),
            received: AtomicU64::new(0),
            telemetry,
        }
    }

    /// One frame dropped (queue overflow or unreachable peer): bump the raw
    /// counter *and* the shared telemetry series.
    fn note_drop(&self, raw: &AtomicU64) {
        raw.fetch_add(1, Ordering::Relaxed);
        self.telemetry.add("xft_net_dropped_total", 1);
    }
}

/// One peer's bounded outbound queue.
struct PeerQueue {
    peer: NodeId,
    frames: Mutex<VecDeque<Vec<u8>>>,
}

/// What a [`Writer`], its thread and its [`PeerSender`]s share.
struct WriterShared {
    peers: Mutex<Vec<Arc<PeerQueue>>>,
    /// Held while notifying and while the writer re-checks the queues before
    /// it waits, so an edge notify cannot fall between the two.
    wake_lock: Mutex<()>,
    wake: Condvar,
    closed: AtomicBool,
    stats: Arc<TransportStats>,
}

impl WriterShared {
    fn notify(&self) {
        drop(self.wake_lock.lock().expect("wake mutex poisoned"));
        self.wake.notify_one();
    }
}

/// The sending handle for one peer, backed by the node's [`Writer`]. Never
/// blocks: drops with accounting when the bounded queue is full.
pub struct PeerSender {
    queue: Arc<PeerQueue>,
    shared: Arc<WriterShared>,
}

impl PeerSender {
    /// Enqueues an already-encoded message payload for this peer, dropping it
    /// (with accounting) when the queue is full — backpressure must never
    /// stall the protocol thread.
    pub fn send(&self, payload: Vec<u8>) {
        let stats = &self.shared.stats;
        let was_empty = {
            let mut frames = self.queue.frames.lock().expect("peer queue poisoned");
            if frames.len() >= QUEUE_CAPACITY {
                drop(frames);
                stats.note_drop(&stats.dropped_full);
                return;
            }
            frames.push_back(payload);
            frames.len() == 1
        };
        stats.telemetry.gauge_add("xft_net_outq_depth", 1);
        // Wake the writer only on the empty→non-empty edge. While the queue
        // is non-empty the writer cannot reach its final all-quiet sweep (it
        // would drain this queue first), so every additional notify would be
        // a wasted futex syscall — at six figures of frames/s that syscall
        // is a measurable share of the send path.
        if was_empty {
            self.shared.notify();
        }
    }
}

/// A node's single writer thread, multiplexing every peer's outbound queue.
///
/// The thread owns the TCP connections of all peers, drains whole queues per
/// sweep (coalescing consecutive frames to one peer into back-to-back
/// writes), and sleeps on a condvar when every queue is empty. An unreachable
/// peer gets one write attempt plus one reconnect-and-retry, then the frame
/// is dropped with accounting, and a per-peer reconnect backoff keeps a dead
/// peer from stalling the traffic to the live ones.
pub struct Writer {
    shared: Arc<WriterShared>,
    handle: JoinHandle<()>,
}

impl Writer {
    /// Spawns the writer thread of node `local`.
    pub fn new(
        local: NodeId,
        book: Arc<AddressBook>,
        shutdown: Arc<AtomicBool>,
        stats: Arc<TransportStats>,
        reconnect_delay: Duration,
    ) -> Self {
        let shared = Arc::new(WriterShared {
            peers: Mutex::new(Vec::new()),
            wake_lock: Mutex::new(()),
            wake: Condvar::new(),
            closed: AtomicBool::new(false),
            stats,
        });
        let handle = std::thread::Builder::new()
            .name(format!("xft-write-{local}"))
            .spawn({
                let shared = shared.clone();
                move || writer_loop(local, book, shutdown, shared, reconnect_delay)
            })
            .expect("spawn writer thread");
        Writer { shared, handle }
    }

    /// Registers `peer` and returns its sending handle.
    pub fn sender(&self, peer: NodeId) -> PeerSender {
        let queue = Arc::new(PeerQueue {
            peer,
            frames: Mutex::new(VecDeque::new()),
        });
        self.shared
            .peers
            .lock()
            .expect("writer peer list poisoned")
            .push(queue.clone());
        PeerSender {
            queue,
            shared: self.shared.clone(),
        }
    }

    /// Drains the remaining queues and joins the writer thread.
    pub fn join(self) {
        self.shared.closed.store(true, Ordering::Relaxed);
        self.shared.notify();
        let _ = self.handle.join();
    }
}

fn writer_loop(
    local: NodeId,
    book: Arc<AddressBook>,
    shutdown: Arc<AtomicBool>,
    shared: Arc<WriterShared>,
    reconnect_delay: Duration,
) {
    let stats = &shared.stats;
    let mut conns: HashMap<NodeId, TcpStream> = HashMap::new();
    let mut next_attempt: HashMap<NodeId, Instant> = HashMap::new();
    loop {
        let mut did_work = false;
        let list: Vec<Arc<PeerQueue>> = shared
            .peers
            .lock()
            .expect("writer peer list poisoned")
            .clone();
        for pq in &list {
            let batch: Vec<Vec<u8>> = {
                let mut frames = pq.frames.lock().expect("peer queue poisoned");
                frames.drain(..).collect()
            };
            if batch.is_empty() {
                continue;
            }
            did_work = true;
            stats
                .telemetry
                .gauge_add("xft_net_outq_depth", -(batch.len() as i64));
            write_batch(
                local,
                pq.peer,
                &batch,
                &book,
                stats,
                &mut conns,
                &mut next_attempt,
                reconnect_delay,
            );
        }
        if did_work {
            continue;
        }
        if shared.closed.load(Ordering::Relaxed) || shutdown.load(Ordering::Relaxed) {
            return;
        }
        let guard = shared.wake_lock.lock().expect("wake mutex poisoned");
        // Senders notify only on a queue's empty→non-empty edge, and they do
        // so holding this lock — so a push that raced our sweep is either
        // visible to this re-check or its notify lands on the wait below.
        // Without the re-check the edge notify could be lost and the frame
        // would sit a full TICK. The live list, not the sweep's snapshot: the
        // push may be the first to a peer registered since.
        let raced = shared
            .peers
            .lock()
            .expect("writer peer list poisoned")
            .iter()
            .any(|pq| !pq.frames.lock().expect("peer queue poisoned").is_empty());
        if raced {
            continue;
        }
        // TICK timeout bounds shutdown latency even if a wake is missed.
        let _ = shared.wake.wait_timeout(guard, TICK);
    }
}

/// Writes a drained batch of frames to one peer, coalescing them onto the
/// writer's connection: one write pass plus one reconnect-and-retry, then the
/// rest of the batch is dropped (XPaxos recovers lost messages via
/// retransmission).
#[allow(clippy::too_many_arguments)]
fn write_batch(
    local: NodeId,
    peer: NodeId,
    batch: &[Vec<u8>],
    book: &AddressBook,
    stats: &TransportStats,
    conns: &mut HashMap<NodeId, TcpStream>,
    next_attempt: &mut HashMap<NodeId, Instant>,
    reconnect_delay: Duration,
) {
    let mut written = 0usize;
    for _ in 0..2 {
        if let std::collections::hash_map::Entry::Vacant(entry) = conns.entry(peer) {
            if next_attempt.get(&peer).is_some_and(|&t| Instant::now() < t) {
                break; // peer recently unreachable: drop without blocking
            }
            match connect(local, peer, book) {
                Some(s) => {
                    stats.telemetry.add("xft_net_connects_total", 1);
                    entry.insert(s);
                }
                None => {
                    next_attempt.insert(peer, Instant::now() + reconnect_delay);
                    break;
                }
            }
        }
        let stream = conns.get_mut(&peer).expect("connected above");
        let mut failed = false;
        while written < batch.len() {
            // Coalesce a run of frames into one buffer: one syscall instead
            // of one per frame. A primary draining hundreds of replies per
            // pass otherwise spends more time in `write` than in the
            // protocol. Bounded so a huge backlog doesn't balloon memory.
            const COALESCE_BYTES: usize = 256 * 1024;
            let mut buf = Vec::new();
            let mut count = 0;
            while written + count < batch.len() && buf.len() < COALESCE_BYTES {
                let payload = &batch[written + count];
                buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                buf.extend_from_slice(payload);
                count += 1;
            }
            match stream.write_all(&buf) {
                Ok(()) => written += count,
                Err(_) => {
                    conns.remove(&peer); // stale connection: reconnect once
                    failed = true;
                    break;
                }
            }
        }
        if !failed {
            break;
        }
    }
    if written > 0 {
        stats.sent.fetch_add(written as u64, Ordering::Relaxed);
        stats
            .telemetry
            .add("xft_net_frames_sent_total", written as u64);
    }
    for _ in written..batch.len() {
        stats.note_drop(&stats.dropped_unreachable);
    }
}

fn connect(local: NodeId, peer: NodeId, book: &AddressBook) -> Option<TcpStream> {
    let addr = book.get(peer)?;
    let stream = TcpStream::connect_timeout(&addr, Duration::from_millis(500)).ok()?;
    stream.set_nodelay(true).ok()?;
    let mut stream = stream;
    stream.write_all(&hello_bytes(local)).ok()?;
    Some(stream)
}

/// Spawns the accept loop: accepts connections on `listener` and gives each
/// its own reader thread, which decodes frames into `inbox`. Returns the
/// accept-thread handle; reader handles are pushed into `readers`, and the
/// finished ones are pruned on every accept so reconnect churn cannot grow
/// the list.
pub fn spawn_acceptor<M>(
    local: NodeId,
    listener: TcpListener,
    inbox: SyncSender<(NodeId, M, Option<TraceContext>)>,
    shutdown: Arc<AtomicBool>,
    stats: Arc<TransportStats>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    max_frame: usize,
) -> JoinHandle<()>
where
    M: WireDecode + Send + 'static,
{
    listener
        .set_nonblocking(true)
        .expect("set listener nonblocking");
    std::thread::Builder::new()
        .name(format!("xft-accept-{local}"))
        .spawn(move || loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    // Some platforms hand the listener's non-blocking flag
                    // down to the accepted socket; the reader must block.
                    if stream.set_nonblocking(false).is_err() {
                        continue;
                    }
                    let spawned = std::thread::Builder::new()
                        .name(format!("xft-read-{local}"))
                        .spawn({
                            let (inbox, shutdown, stats) =
                                (inbox.clone(), shutdown.clone(), stats.clone());
                            move || reader_loop(stream, inbox, shutdown, stats, max_frame)
                        });
                    // Out of threads: the connection is dropped, and the
                    // peer's writer reconnects with its usual back-off.
                    let Ok(reader) = spawned else {
                        continue;
                    };
                    let mut readers = readers.lock().expect("reader list poisoned");
                    readers.retain(|h| !h.is_finished());
                    readers.push(reader);
                }
                Err(_) => {
                    if shutdown.load(Ordering::Relaxed) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        })
        .expect("spawn accept thread")
}

/// Serves one accepted connection: the handshake, then frames decoded into
/// `inbox` until EOF, an I/O error, a wrong-protocol hello, an undecodable or
/// oversized frame, shutdown, or the runtime dropping its inbox. Returning
/// closes the socket. A full inbox blocks the send, which is TCP
/// back-pressure on the peer.
fn reader_loop<M: WireDecode>(
    mut stream: TcpStream,
    inbox: SyncSender<(NodeId, M, Option<TraceContext>)>,
    shutdown: Arc<AtomicBool>,
    stats: Arc<TransportStats>,
    max_frame: usize,
) {
    // The timeout is how a blocked reader gets to see the shutdown flag.
    if stream.set_read_timeout(Some(TICK)).is_err() {
        return;
    }
    let mut hello = [0u8; HELLO_LEN];
    let mut have = 0;
    while have < HELLO_LEN {
        match read_some(&mut stream, &mut hello[have..], &shutdown) {
            Some(n) => have += n,
            None => return,
        }
    }
    let Some(from) = parse_hello(&hello) else {
        return;
    };
    let mut frames = FrameBuffer::new(max_frame);
    let mut chunk = vec![0u8; 64 * 1024];
    while let Some(n) = read_some(&mut stream, &mut chunk, &shutdown) {
        frames.extend(&chunk[..n]);
        loop {
            let frame = match frames.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => return, // oversized frame
            };
            let Ok((msg, trace)) = decode_msg_traced::<M>(&frame) else {
                return; // corrupted stream
            };
            stats.received.fetch_add(1, Ordering::Relaxed);
            stats.telemetry.add("xft_net_frames_received_total", 1);
            stats.telemetry.gauge_add("xft_net_inbox_depth", 1);
            if inbox.send((from, msg, trace)).is_err() {
                return; // runtime gone
            }
        }
    }
}

/// Blocks until `stream` yields bytes. `None` on EOF, on an I/O error and
/// once shutdown is requested.
fn read_some(stream: &mut TcpStream, buf: &mut [u8], shutdown: &AtomicBool) -> Option<usize> {
    while !shutdown.load(Ordering::Relaxed) {
        match stream.read(buf) {
            Ok(0) => return None,
            Ok(n) => return Some(n),
            Err(e) if is_timeout(&e) => {}
            Err(_) => return None,
        }
    }
    None
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::SocketAddr;
    use std::sync::mpsc::{sync_channel, Receiver};

    const MAX_FRAME: usize = 1 << 20;

    /// An acceptor on an ephemeral loopback port, decoding `u64` frames.
    struct Listening {
        addr: SocketAddr,
        rx: Receiver<(NodeId, u64, Option<TraceContext>)>,
        readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
        accept: JoinHandle<()>,
    }

    fn listen(node: NodeId, shutdown: &Arc<AtomicBool>, stats: &Arc<TransportStats>) -> Listening {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let readers = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = sync_channel(64);
        let accept = spawn_acceptor::<u64>(
            node,
            listener,
            tx,
            shutdown.clone(),
            stats.clone(),
            readers.clone(),
            MAX_FRAME,
        );
        Listening {
            addr,
            rx,
            readers,
            accept,
        }
    }

    impl Listening {
        /// The next `count` values, each of which must come from node `from`.
        fn take(&self, from: NodeId, count: usize) -> Vec<u64> {
            (0..count)
                .map(|_| {
                    let (sender, v, trace) = self
                        .rx
                        .recv_timeout(Duration::from_secs(5))
                        .expect("frame arrives");
                    assert_eq!(sender, from);
                    assert_eq!(trace, None, "plain encode carries no trace context");
                    v
                })
                .collect()
        }

        /// Joins the accept thread and every reader (set `shutdown` first).
        fn join(self) {
            self.accept.join().unwrap();
            for h in self.readers.lock().unwrap().drain(..) {
                h.join().unwrap();
            }
        }
    }

    /// A raw client connection that has written `hello`.
    fn dial(addr: SocketAddr, hello: &[u8]) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.write_all(hello).unwrap();
        stream
    }

    fn frame(v: u64) -> Vec<u8> {
        xft_wire::frame_bytes(&xft_wire::encode_msg_vec(&v))
    }

    /// Whether the far side has closed `stream` (EOF or reset) within 5 s.
    fn is_closed(mut stream: TcpStream) -> bool {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        match stream.read(&mut [0u8; 1]) {
            Ok(n) => n == 0,
            Err(e) => !is_timeout(&e),
        }
    }

    /// A loopback address nothing listens on.
    fn dead_addr() -> SocketAddr {
        TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let start = Instant::now();
        while !done() {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "timed out: {what}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn hello_round_trips_and_rejects_garbage() {
        let bytes = hello_bytes(42);
        assert_eq!(parse_hello(&bytes), Some(42));
        let mut bad = bytes;
        bad[0] = b'?';
        assert_eq!(parse_hello(&bad), None);
        let mut wrong_version = bytes;
        wrong_version[4] = 9;
        assert_eq!(parse_hello(&wrong_version), None);
    }

    #[test]
    fn writer_delivers_frames_to_each_peer_in_order() {
        // Two listening peers behind the one writer thread; every frame must
        // arrive in per-peer order.
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(TransportStats::default());
        let peers = [listen(1, &shutdown, &stats), listen(2, &shutdown, &stats)];
        let book = AddressBook::new([(1usize, peers[0].addr), (2, peers[1].addr)]);
        let writer = Writer::new(
            0,
            book,
            shutdown.clone(),
            stats.clone(),
            Duration::from_millis(100),
        );
        let senders = [writer.sender(1), writer.sender(2)];
        for v in 0..10u64 {
            senders[(v % 2) as usize].send(xft_wire::encode_msg_vec(&v));
        }
        for (i, peer) in peers.iter().enumerate() {
            let expect: Vec<u64> = (0..10).filter(|v| (v % 2) as usize == i).collect();
            assert_eq!(peer.take(0, 5), expect, "per-peer order preserved");
        }
        writer.join();
        shutdown.store(true, Ordering::Relaxed);
        for peer in peers {
            peer.join();
        }
        assert_eq!(stats.sent.load(Ordering::Relaxed), 10);
        assert_eq!(stats.received.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn writer_drops_frames_for_unreachable_peer() {
        let book = AddressBook::new([(1usize, dead_addr())]);
        let shutdown = Arc::new(AtomicBool::new(false));
        // Telemetry-backed stats: every drop must also land in the shared
        // xft_net_dropped_total counter, not just the per-cause raw counters.
        let stats = Arc::new(TransportStats::with_telemetry(Telemetry::enabled()));
        let writer = Writer::new(0, book, shutdown, stats.clone(), Duration::from_millis(50));
        let sender = writer.sender(1);
        for v in 0..20u64 {
            sender.send(xft_wire::encode_msg_vec(&v));
        }
        wait_until("all frames dropped", || {
            stats.dropped_unreachable.load(Ordering::Relaxed) == 20
        });
        assert_eq!(
            stats.telemetry.counter("xft_net_dropped_total").get(),
            20,
            "drops must feed the shared xft_net_dropped_total series"
        );
        writer.join();
        assert_eq!(stats.sent.load(Ordering::Relaxed), 0, "none delivered");
    }

    #[test]
    fn dead_peer_does_not_stall_frames_to_a_live_one() {
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(TransportStats::default());
        let live = listen(2, &shutdown, &stats);
        let book = AddressBook::new([(1usize, dead_addr()), (2, live.addr)]);
        // A back-off longer than the test: after the first refused connect
        // the dead peer's frames are dropped without another attempt.
        let writer = Writer::new(
            0,
            book,
            shutdown.clone(),
            stats.clone(),
            Duration::from_secs(60),
        );
        let (to_dead, to_live) = (writer.sender(1), writer.sender(2));
        for v in 0..50u64 {
            to_dead.send(xft_wire::encode_msg_vec(&v));
            to_live.send(xft_wire::encode_msg_vec(&v));
        }
        assert_eq!(live.take(0, 50), (0..50).collect::<Vec<u64>>());
        writer.join();
        assert_eq!(stats.sent.load(Ordering::Relaxed), 50);
        assert_eq!(stats.dropped_unreachable.load(Ordering::Relaxed), 50);
        shutdown.store(true, Ordering::Relaxed);
        live.join();
    }

    #[test]
    fn full_queue_drops_with_accounting_and_never_blocks_the_sender() {
        // A peer that accepts and never reads: once the socket buffers fill,
        // the writer blocks in `write`, its queue stops draining and fills.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let book = AddressBook::new([(1usize, listener.local_addr().unwrap())]);
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(TransportStats::with_telemetry(Telemetry::enabled()));
        let writer = Writer::new(0, book, shutdown, stats.clone(), Duration::from_millis(50));
        let sender = writer.sender(1);
        let payload = vec![0u8; 1024];
        let start = Instant::now();
        let mut pushed = 0u64;
        while stats.dropped_full.load(Ordering::Relaxed) == 0 {
            assert!(pushed < 200_000, "queue never filled");
            sender.send(payload.clone());
            pushed += 1;
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "send blocked on a stalled peer"
        );
        let (unread, _) = listener.accept().unwrap();
        // Closing with unread data resets the connection: the blocked write
        // fails, the reconnect is refused, and whatever is left is dropped.
        drop((unread, listener));
        writer.join();
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let dropped = count(&stats.dropped_full) + count(&stats.dropped_unreachable);
        assert_eq!(
            count(&stats.sent) + dropped,
            pushed,
            "every frame is either written or counted as dropped"
        );
        assert_eq!(
            stats.telemetry.counter("xft_net_dropped_total").get(),
            dropped
        );
        assert_eq!(stats.telemetry.gauge("xft_net_outq_depth").get(), 0);
    }

    #[test]
    fn bad_input_closes_only_its_own_connection() {
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(TransportStats::default());
        let node = listen(9, &shutdown, &stats);

        // Four ways to misbehave, opened before the well-behaved connection.
        let stalled = dial(node.addr, &hello_bytes(1)[..5]);
        let mut wrong_magic = hello_bytes(2);
        wrong_magic[0] = b'?';
        let wrong_magic = dial(node.addr, &wrong_magic);
        let mut oversized = dial(node.addr, &hello_bytes(3));
        oversized
            .write_all(&(MAX_FRAME as u32 + 1).to_le_bytes())
            .unwrap();
        let mut undecodable = dial(node.addr, &hello_bytes(4));
        undecodable
            .write_all(&xft_wire::frame_bytes(b"not an envelope"))
            .unwrap();

        // The good connection's hello arrives in two pieces.
        let hello = hello_bytes(5);
        let mut good = dial(node.addr, &hello[..7]);
        good.write_all(&hello[7..]).unwrap();
        for v in 0..20u64 {
            good.write_all(&frame(v)).unwrap();
        }
        assert_eq!(node.take(5, 20), (0..20).collect::<Vec<u64>>());
        assert!(node.rx.try_recv().is_err(), "a bad connection delivered");

        assert!(is_closed(wrong_magic), "wrong-magic socket left open");
        assert!(is_closed(oversized), "oversized-frame socket left open");
        assert!(is_closed(undecodable), "undecodable-frame socket left open");
        // The stalled one is merely slow: it stays open, and it still works.
        let mut stalled = stalled;
        stalled.write_all(&hello_bytes(1)[5..]).unwrap();
        stalled.write_all(&frame(77)).unwrap();
        assert_eq!(node.take(1, 1), vec![77]);

        shutdown.store(true, Ordering::Relaxed);
        node.join();
        assert_eq!(stats.received.load(Ordering::Relaxed), 21);
    }

    #[test]
    fn reconnect_churn_keeps_the_reader_list_bounded() {
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(TransportStats::default());
        let node = listen(9, &shutdown, &stats);
        for cycle in 0..50u64 {
            let mut conn = dial(node.addr, &hello_bytes(1));
            for v in 0..3 {
                conn.write_all(&frame(cycle * 3 + v)).unwrap();
            }
            // Closed right after the write: the reader must still deliver
            // what was sent before it sees the EOF.
            drop(conn);
            let expect: Vec<u64> = (0..3).map(|v| cycle * 3 + v).collect();
            assert_eq!(node.take(1, 3), expect);
        }
        // Finished handles go on the next accept; each probe is one.
        wait_until("finished reader handles pruned", || {
            drop(dial(node.addr, &hello_bytes(1)));
            node.readers.lock().unwrap().len() <= 2
        });
        shutdown.store(true, Ordering::Relaxed);
        node.join();
        assert_eq!(stats.received.load(Ordering::Relaxed), 150);
    }
}
