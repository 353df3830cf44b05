//! The daemon itself: accept loop, worker pool, protocol sniffing,
//! live `/metrics`, graceful drain.
//!
//! One TCP port serves two protocols, told apart by the first bytes of
//! a connection: the fleet wire magic (`HTHW`) opens a serve-protocol
//! session, `GET ` is an HTTP scrape answered with the Prometheus text
//! exposition of the live [`SessionTable`] (the same snapshot is also
//! swapped into [`hth_trace::global_metrics`], so an in-process
//! `--metrics` reader sees exactly what the endpoint exports).
//!
//! Shutdown is graceful: a `Shutdown` request (or [`ServerHandle::
//! shutdown`]) stops the accept loop, queued connections finish their
//! requests, workers join, and [`Server::run`] returns a
//! [`ServeSummary`] carrying the final counters and the aggregate
//! warning multiset — the same shape `hth fleet` reports in batch mode.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use hth_core::{PolicyCounters, Severity};
use hth_fleet::wire;
use hth_trace::MetricsSnapshot;
use secpert_engine::frame::{self, HEADER_LEN};

use crate::protocol::{decode_request, encode_ack, read_frame, Ack, Request, ServeStats};
use crate::table::{SessionTable, TableConfig};
use crate::ServeError;

/// Configuration for [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Session table tuning.
    pub table: TableConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { addr: "127.0.0.1:0".into(), workers: 4, table: TableConfig::default() }
    }
}

/// What a drained server reports.
#[derive(Clone, Debug)]
pub struct ServeSummary {
    /// Final counters.
    pub stats: ServeStats,
    /// Aggregate warning multiset (open + retired sessions), keyed like
    /// [`hth_fleet::warning_multiset`].
    pub warning_counts: BTreeMap<(Severity, String), usize>,
    /// Protocol connections handled.
    pub connections: u64,
    /// HTTP scrapes answered.
    pub http_requests: u64,
    /// Highest number of simultaneously resident sessions.
    pub resident_high_water: u64,
    /// Final correlation pass over every session's digest (open and
    /// retired), when the table was configured with a correlator.
    pub correlation: Option<hth_core::CorrelationReport>,
}

/// A handle for stopping a running server from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Requests a graceful drain; returns immediately.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(); a throwaway connection
        // wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    table: Arc<SessionTable>,
    shutdown: Arc<AtomicBool>,
    workers: usize,
}

struct Shared {
    table: Arc<SessionTable>,
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
    queue: Mutex<VecDeque<Option<TcpStream>>>,
    available: Condvar,
    connections: AtomicU64,
    http_requests: AtomicU64,
    started: Instant,
}

impl Server {
    /// Binds the listening socket; the accept loop starts in
    /// [`Server::run`].
    pub fn bind(config: ServeConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.addr).map_err(ServeError::Io)?;
        Ok(Server {
            listener,
            table: Arc::new(SessionTable::new(config.table)),
            shutdown: Arc::new(AtomicBool::new(false)),
            workers: config.workers.max(1),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has an address")
    }

    /// The live session table (tests and in-process embedders).
    pub fn table(&self) -> Arc<SessionTable> {
        Arc::clone(&self.table)
    }

    /// A handle that can stop the server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shutdown: Arc::clone(&self.shutdown), addr: self.local_addr() }
    }

    /// Runs the accept loop until a shutdown is requested, then drains:
    /// queued connections finish, workers join, and the final summary is
    /// returned.
    pub fn run(self) -> Result<ServeSummary, ServeError> {
        let addr = self.local_addr();
        let shared = Arc::new(Shared {
            table: Arc::clone(&self.table),
            shutdown: Arc::clone(&self.shutdown),
            addr,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            connections: AtomicU64::new(0),
            http_requests: AtomicU64::new(0),
            started: Instant::now(),
        });
        let mut handles = Vec::with_capacity(self.workers);
        for i in 0..self.workers {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("hth-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(ServeError::Io)?,
            );
        }
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(_) => continue,
            };
            if self.shutdown.load(Ordering::SeqCst) {
                // The wake-up connection (or a late client); drop it.
                break;
            }
            // Opportunistic idle sweep at connection granularity.
            let _ = self.table.sweep_idle();
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            queue.push_back(Some(stream));
            drop(queue);
            shared.available.notify_one();
        }
        {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            for _ in 0..self.workers {
                queue.push_back(None);
            }
        }
        shared.available.notify_all();
        for handle in handles {
            let _ = handle.join();
        }
        let correlation = match self.table.config().correlate.clone() {
            Some(config) => Some(self.table.correlate(&config)?),
            None => None,
        };
        Ok(ServeSummary {
            stats: self.table.stats(),
            warning_counts: self.table.warning_counts(),
            connections: shared.connections.load(Ordering::SeqCst),
            http_requests: shared.http_requests.load(Ordering::SeqCst),
            resident_high_water: self.table.resident_high_water(),
            correlation,
        })
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared.available.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(stream) = job else { return };
        // A connection error poisons only that connection.
        let _ = handle_connection(stream, shared);
    }
}

/// Sniffs the protocol and dispatches. The first bytes of a connection
/// are either the fleet wire magic or an HTTP method.
fn handle_connection(mut stream: TcpStream, shared: &Shared) -> Result<(), ServeError> {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut sniff = [0u8; 4];
    match stream.read_exact(&mut sniff) {
        Ok(()) => {}
        // Closed before identifying itself (e.g. the shutdown wake-up).
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(()),
        Err(e) => return Err(ServeError::Io(e)),
    }
    if &sniff == b"GET " {
        shared.http_requests.fetch_add(1, Ordering::SeqCst);
        return handle_http(stream, &sniff, shared);
    }
    shared.connections.fetch_add(1, Ordering::SeqCst);
    handle_protocol(stream, sniff, shared)
}

fn handle_protocol(
    mut stream: TcpStream,
    sniffed: [u8; 4],
    shared: &Shared,
) -> Result<(), ServeError> {
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&sniffed);
    stream.read_exact(&mut header[4..]).map_err(ServeError::Io)?;
    // The preamble names the *event-codec* version the client will
    // speak; older clients keep working, but journal or digest stream
    // headers are not a protocol opening.
    let version = frame::read_header(&header, &wire::MAGIC, wire::MIN_VERSION..=wire::VERSION)?;
    let mut decoder = wire::EventDecoder::for_version(version);
    let (mut payload, mut ack_buf) = (Vec::new(), Vec::new());
    loop {
        match read_frame(&mut stream, &mut payload) {
            Ok(true) => {}
            Ok(false) => return Ok(()),
            Err(e) => {
                // A torn frame or CRC mismatch poisons the connection
                // silently from the client's view; leave the evidence.
                shared.table.capture_protocol_drop(&e.to_string());
                return Err(e);
            }
        }
        let served_at = Instant::now();
        let request = match decode_request(&payload, &mut decoder) {
            Ok(request) => request,
            Err(e) => {
                // A well-framed but undecodable request gets a reply;
                // the connection then closes (its decoder state may be
                // out of sync with the encoder's).
                let ack = Ack::Err { message: format!("bad request: {e}") };
                let _ = write_ack(&mut stream, &mut ack_buf, &ack);
                shared.table.capture_protocol_drop(&e.to_string());
                return Err(e);
            }
        };
        let ack = match request {
            Request::Open { session } => ack_of(shared.table.open(session).map(|()| 0)),
            Request::Submit { session, event } => ack_of(shared.table.submit(session, &event)),
            Request::Flush => {
                let swept = shared.table.sweep_idle();
                ack_of(swept.map(|n| n as u64))
            }
            Request::Close { session } => ack_of(shared.table.close(session)),
            Request::Label { session, label } => {
                ack_of(shared.table.set_label(session, &label).map(|()| 0))
            }
            Request::Stats => Ack::Stats(shared.table.stats()),
            Request::Shutdown => {
                write_ack(&mut stream, &mut ack_buf, &Ack::Ok { value: 0 })?;
                shared.shutdown.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(shared.addr);
                return Ok(());
            }
        };
        write_ack(&mut stream, &mut ack_buf, &ack)?;
        // Server-side ack latency: decoded request to ack on the wire.
        shared.table.observe_ack_micros(served_at.elapsed().as_micros() as u64);
    }
}

/// Frames `ack` into the connection's reused buffer and sends it.
fn write_ack(stream: &mut TcpStream, buf: &mut Vec<u8>, ack: &Ack) -> Result<(), ServeError> {
    buf.clear();
    encode_ack(ack, buf);
    stream.write_all(buf).map_err(ServeError::Io)
}

fn ack_of(result: Result<u64, ServeError>) -> Ack {
    match result {
        Ok(value) => Ack::Ok { value },
        Err(e) => Ack::Err { message: e.to_string() },
    }
}

/// Answers one HTTP request and closes. `sniffed` is the
/// already-consumed method prefix. Routes: `/metrics` (Prometheus
/// text), `/healthz` (liveness), `/statusz` (the introspection report
/// and a `policy` line of process-wide compile/instantiation counts),
/// `/bundles` (diagnostic-bundle index), `/bundles/<n>` (one bundle as
/// JSON).
fn handle_http(mut stream: TcpStream, sniffed: &[u8], shared: &Shared) -> Result<(), ServeError> {
    let table = &shared.table;
    // Read up to the end of the request headers; we only need the
    // request line, and scrapers send small requests.
    let mut buf = Vec::with_capacity(512);
    buf.extend_from_slice(sniffed);
    let mut chunk = [0u8; 256];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        let n = stream.read(&mut chunk).map_err(ServeError::Io)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.len() > 8192 {
            break;
        }
    }
    let request_line = buf.split(|&b| b == b'\r').next().unwrap_or(&[]);
    let request_line = String::from_utf8_lossy(request_line);
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, body) = match path {
        "/metrics" | "/" => ("200 OK", {
            let mut snapshot = MetricsSnapshot::default();
            table.record_metrics(&mut snapshot);
            // Swap (never merge: counters here are re-derived
            // totals) into the process-global registry so an
            // in-process --metrics reader agrees with the scrape.
            hth_trace::global_metrics().replace(snapshot.clone());
            snapshot.render_prometheus()
        }),
        "/healthz" => ("200 OK", String::from("ok\n")),
        "/statusz" => ("200 OK", {
            let mut frame = table.status_report(shared.started.elapsed().as_secs()).render();
            frame.push_str(&PolicyCounters::read().render());
            frame
        }),
        "/bundles" => ("200 OK", {
            let lines: Vec<String> =
                table.bundle_ring().list().iter().map(|b| b.summary()).collect();
            if lines.is_empty() {
                String::from("no bundles captured\n")
            } else {
                lines.join("\n") + "\n"
            }
        }),
        _ => match path
            .strip_prefix("/bundles/")
            .and_then(|n| n.parse::<u64>().ok())
            .and_then(|id| table.bundle_ring().get(id))
        {
            Some(bundle) => ("200 OK", bundle.to_json() + "\n"),
            None => ("404 Not Found", String::from("not found\n")),
        },
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes()).map_err(ServeError::Io)
}
