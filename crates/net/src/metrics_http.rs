//! A minimal Prometheus-text-format scrape endpoint over plain `std::net`.
//!
//! Serves exactly three paths:
//!
//! * `GET /metrics` — the telemetry registry rendered in Prometheus text
//!   exposition format (counters, gauges, log₂-bucketed histograms), plus
//!   the synchrony monitor's live fault-vector gauges
//!   (`xft_est_crash_faults`, `xft_est_byzantine_faults`,
//!   `xft_est_partitioned`, per-peer `xft_last_heard_age_seconds`);
//! * `GET /healthz` — a human-readable synchrony report: the runtime fault
//!   estimate (t_c, t_b, t_p), per-peer RTT/last-heard lines and recent
//!   view-change causes;
//! * `GET /evidence` — a text dump of the replica's durable evidence log
//!   (requires `--evidence-dir`): the chain anchor plus one line per
//!   recorded protocol message, read from the WAL with the same CRC-checked
//!   scan recovery uses. The file is only ever appended to (GC rewrites go
//!   through a rename), so scanning a live log yields a valid prefix.
//!
//! Everything else is a 404. The server is one thread with a nonblocking
//! accept loop; each request is handled inline (scrapes are rare and cheap,
//! so there is no per-connection thread).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use xft_core::evidence::{EvidenceAnchor, EvidenceRecord, DIR_SENT, PEER_UNKNOWN};
use xft_telemetry::Telemetry;
use xft_wire::WireDecode;

/// A running scrape endpoint; dropping it does **not** stop the thread —
/// signal `shutdown` (usually the runtime's flag) and call [`MetricsServer::join`].
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` and serves `telemetry` until `shutdown` flips to true.
    ///
    /// `now_ns` supplies the clock the `/healthz` report and the `/metrics`
    /// fault-vector gauges are evaluated against — pass the same
    /// origin-relative clock the runtime stamps telemetry events with, so
    /// "silent for 2Δ" means the same thing in both places. `evidence_dir`
    /// is the replica's `--evidence-dir` (the `/evidence` route answers 404
    /// without one).
    pub fn start(
        addr: SocketAddr,
        telemetry: Arc<Telemetry>,
        shutdown: Arc<AtomicBool>,
        now_ns: impl Fn() -> u64 + Send + 'static,
        evidence_dir: Option<PathBuf>,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let handle = std::thread::Builder::new()
            .name("xft-metrics-http".to_string())
            .spawn(move || loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        serve_one(stream, &telemetry, &now_ns, evidence_dir.as_deref())
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if shutdown.load(Ordering::Relaxed) {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    Err(_) => {
                        if shutdown.load(Ordering::Relaxed) {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(50));
                    }
                }
            })?;
        Ok(MetricsServer {
            addr,
            handle: Some(handle),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the serving thread (signal the shutdown flag first).
    pub fn join(mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn serve_one(
    mut stream: std::net::TcpStream,
    telemetry: &Telemetry,
    now_ns: &impl Fn() -> u64,
    evidence_dir: Option<&std::path::Path>,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    // Read until the end of the request head (headers are ignored).
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") && buf.len() < 8192 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let path = head
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            telemetry.render_prometheus_at(now_ns()),
        ),
        "/healthz" => ("200 OK", "text/plain", telemetry.healthz(now_ns())),
        "/evidence" => match evidence_dir {
            Some(dir) => match render_evidence(dir) {
                Ok(body) => ("200 OK", "text/plain", body),
                Err(e) => (
                    "500 Internal Server Error",
                    "text/plain",
                    format!("cannot read evidence log: {e}\n"),
                ),
            },
            None => (
                "404 Not Found",
                "text/plain",
                "evidence logging is off (start with --evidence-dir)\n".to_string(),
            ),
        },
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

/// Renders the evidence log under `dir` as text: the chain anchor, then one
/// line per record. Reads the files directly (read-only) and scans them with
/// the same CRC-checked framing recovery uses — NEVER through
/// `DiskStorage::open`, which would truncate a torn tail out from under the
/// live writer. The WAL is append-only between atomic GC rewrites, so a
/// concurrent scan sees a valid prefix at worst.
fn render_evidence(dir: &std::path::Path) -> std::io::Result<String> {
    use std::fmt::Write as _;
    let anchor = match std::fs::read(dir.join(xft_store::SNAPSHOT_FILE)) {
        Ok(framed) => xft_store::wal::scan_records(&framed)
            .records
            .first()
            .and_then(|blob| EvidenceAnchor::decode_exact(blob))
            .unwrap_or_else(EvidenceAnchor::genesis),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => EvidenceAnchor::genesis(),
        Err(e) => return Err(e),
    };
    let wal = match std::fs::read(dir.join(xft_store::WAL_FILE)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let scan = xft_store::wal::scan_records(&wal);

    let mut out = String::with_capacity(4096);
    let _ = writeln!(
        out,
        "# evidence chain: next_seq={} dropped_by_gc={} head={:?}",
        anchor.next_seq, anchor.dropped, anchor.head
    );
    let mut shown = 0u64;
    for raw in &scan.records {
        let Some(record) = EvidenceRecord::decode_exact(raw) else {
            let _ = writeln!(out, "# undecodable record (version skew?)");
            continue;
        };
        let dir_tag = if record.direction == DIR_SENT {
            "sent"
        } else {
            "recv"
        };
        let peer = if record.peer == PEER_UNKNOWN {
            "-".to_string()
        } else {
            record.peer.to_string()
        };
        let (kind, form) = match record.decode_evidence() {
            Some(m) if m.is_compact() => (m.kind(), " digest-compacted"),
            Some(m) => (m.kind(), ""),
            None => ("UNDECODABLE", ""),
        };
        let _ = writeln!(
            out,
            "seq={} at_ns={} {dir_tag} peer={peer} sn={} trace={:#x} {kind}{form} ({} bytes)",
            record.seq,
            record.at_ns,
            record.sn,
            record.trace,
            record.msg.len()
        );
        shown += 1;
    }
    let _ = writeln!(out, "# {shown} records on disk");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("connect scrape endpoint");
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_metrics_and_healthz() {
        let telemetry = Telemetry::enabled();
        telemetry.add("xft_commits_total", 3);
        telemetry.with_monitor(|m| m.note_heard(1, 500_000));
        let shutdown = Arc::new(AtomicBool::new(false));
        let server = MetricsServer::start(
            "127.0.0.1:0".parse().unwrap(),
            telemetry,
            shutdown.clone(),
            || 1_000_000,
            None,
        )
        .expect("bind metrics server");
        let addr = server.addr();

        let metrics = http_get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(metrics.contains("xft_commits_total 3"), "{metrics}");
        // The fault-vector gauges ride along on every scrape.
        assert!(metrics.contains("xft_est_crash_faults"), "{metrics}");
        assert!(
            metrics.contains("xft_last_heard_age_seconds{peer=\"1\"}"),
            "{metrics}"
        );

        let health = http_get(addr, "/healthz");
        assert!(health.contains("synchrony estimate"), "{health}");

        // Without --evidence-dir the evidence route is a 404.
        let evidence = http_get(addr, "/evidence");
        assert!(evidence.starts_with("HTTP/1.1 404"), "{evidence}");

        let missing = http_get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        shutdown.store(true, Ordering::Relaxed);
        server.join();
    }

    #[test]
    fn serves_evidence_from_a_durable_log() {
        use xft_core::evidence::{EvidenceLog, DIR_RECEIVED};
        use xft_core::messages::{CommitMsg, XPaxosMsg};
        use xft_core::types::{SeqNum, ViewNumber};
        use xft_crypto::{Digest, KeyId, Signature};

        // Write a small evidence log through the real durable backend...
        let dir = std::env::temp_dir().join(format!("xft-evidence-http-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let storage =
            xft_store::DiskStorage::open(&dir, xft_store::SyncPolicy::every(1)).expect("open");
        let mut log = EvidenceLog::new(Box::new(storage));
        log.set_recorder(2);
        let msg = XPaxosMsg::Commit(CommitMsg {
            view: ViewNumber(0),
            sn: SeqNum(7),
            batch_digest: Digest::of(b"batch"),
            replica: 1,
            reply_digest: None,
            signature: Signature::forged(KeyId(1)),
        });
        log.record(DIR_RECEIVED, 1, 42, 0xabc, 7, &msg);
        drop(log);

        // ...and scrape it back over HTTP.
        let shutdown = Arc::new(AtomicBool::new(false));
        let server = MetricsServer::start(
            "127.0.0.1:0".parse().unwrap(),
            Telemetry::disabled(),
            shutdown.clone(),
            || 0,
            Some(dir.clone()),
        )
        .expect("bind metrics server");

        let evidence = http_get(server.addr(), "/evidence");
        assert!(evidence.starts_with("HTTP/1.1 200 OK"), "{evidence}");
        assert!(evidence.contains("seq=0"), "{evidence}");
        assert!(evidence.contains("recv peer=1"), "{evidence}");
        assert!(evidence.contains("sn=7"), "{evidence}");
        assert!(evidence.contains("COMMIT"), "{evidence}");
        assert!(evidence.contains("# 1 records on disk"), "{evidence}");

        shutdown.store(true, Ordering::Relaxed);
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
