//! The protocol client: what `hth load` and the chaos suite speak.
//!
//! A [`Client`] owns one TCP connection. It writes the wire header on
//! connect, then frames requests and blocks for the matching ack
//! (requests on one connection are strictly sequential, which is what
//! keeps the per-connection interning state of the event codec in
//! sync). The client consults a [`FaultPlan`] before every request: a
//! planted [`ConnectionFault::Disconnect`] sends only a prefix of the
//! frame and closes the socket — the server must drop the torn frame,
//! so at most the unacked requests of that connection are lost — and a
//! [`ConnectionFault::Stall`] holds the frame mid-write to exercise the
//! server's blocking read path.

use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use harrier::SecpertEvent;
use hth_fleet::wire::{self, EventEncoder};
use hth_fleet::{ConnectionFault, FaultPlan};

use crate::protocol::{decode_ack, encode_request, read_frame, Ack, Request, ServeStats};
use crate::ServeError;

/// A serve-protocol connection.
pub struct Client {
    stream: TcpStream,
    encoder: EventEncoder,
    /// The framed request being sent (reused across requests).
    out: Vec<u8>,
    /// The payload of the ack being read (reused across acks).
    payload: Vec<u8>,
    faults: Arc<FaultPlan>,
    /// Requests sent per session id, for fault-plan coordinates.
    sent: std::collections::BTreeMap<u64, u64>,
}

impl Client {
    /// Connects and writes the protocol preamble.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServeError> {
        Client::connect_with_faults(addr, Arc::new(FaultPlan::new()))
    }

    /// Connects with a fault plan consulted before every request.
    pub fn connect_with_faults(
        addr: impl ToSocketAddrs,
        faults: Arc<FaultPlan>,
    ) -> Result<Client, ServeError> {
        let mut stream = TcpStream::connect(addr).map_err(ServeError::Io)?;
        let _ = stream.set_nodelay(true);
        let mut header = Vec::new();
        wire::write_header(&mut header);
        stream.write_all(&header).map_err(ServeError::Io)?;
        Ok(Client {
            stream,
            encoder: EventEncoder::new(),
            out: Vec::new(),
            payload: Vec::new(),
            faults,
            sent: std::collections::BTreeMap::new(),
        })
    }

    /// Opens (or touches) a session.
    pub fn open(&mut self, session: u64) -> Result<(), ServeError> {
        self.roundtrip(session, &Request::Open { session }).map(|_| ())
    }

    /// Submits one event; returns how many warnings it raised.
    pub fn submit(&mut self, session: u64, event: &SecpertEvent) -> Result<u64, ServeError> {
        self.roundtrip(session, &Request::Submit { session, event: event.clone() })
    }

    /// Barrier: returns once everything sent before it is applied.
    pub fn flush(&mut self) -> Result<(), ServeError> {
        self.roundtrip(0, &Request::Flush).map(|_| ())
    }

    /// Binds a program label to a session (it rides the digest stream
    /// into the fleet correlator).
    pub fn label(&mut self, session: u64, label: &str) -> Result<(), ServeError> {
        self.roundtrip(session, &Request::Label { session, label: label.to_string() }).map(|_| ())
    }

    /// Retires a session; returns its total warning count.
    pub fn close(&mut self, session: u64) -> Result<u64, ServeError> {
        self.roundtrip(session, &Request::Close { session })
    }

    /// Fetches the server's counters.
    pub fn stats(&mut self) -> Result<ServeStats, ServeError> {
        self.out.clear();
        encode_request(&Request::Stats, &mut self.encoder, &mut self.out);
        self.stream.write_all(&self.out).map_err(ServeError::Io)?;
        match self.read_ack()? {
            Ack::Stats(stats) => Ok(stats),
            Ack::Err { message } => Err(ServeError::Protocol(message)),
            Ack::Ok { .. } => Err(ServeError::Protocol("expected a stats ack".into())),
        }
    }

    /// Asks the server to drain and stop.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        self.roundtrip(0, &Request::Shutdown).map(|_| ())
    }

    fn roundtrip(&mut self, session: u64, request: &Request) -> Result<u64, ServeError> {
        self.out.clear();
        encode_request(request, &mut self.encoder, &mut self.out);
        let framed = &self.out;
        let nth = self.sent.entry(session).or_insert(0);
        *nth += 1;
        match self.faults.connection_fault(session, *nth) {
            Some(ConnectionFault::Disconnect { keep }) => {
                let keep = keep.min(framed.len());
                self.stream.write_all(&framed[..keep]).map_err(ServeError::Io)?;
                let _ = self.stream.shutdown(std::net::Shutdown::Both);
                return Err(ServeError::Disconnected);
            }
            Some(ConnectionFault::Stall { millis }) => {
                let split = framed.len() / 2;
                self.stream.write_all(&framed[..split]).map_err(ServeError::Io)?;
                std::thread::sleep(Duration::from_millis(millis));
                self.stream.write_all(&framed[split..]).map_err(ServeError::Io)?;
            }
            None => self.stream.write_all(framed).map_err(ServeError::Io)?,
        }
        match self.read_ack()? {
            Ack::Ok { value } => Ok(value),
            Ack::Err { message } => Err(ServeError::Protocol(message)),
            Ack::Stats(_) => Err(ServeError::Protocol("unexpected stats ack".into())),
        }
    }

    fn read_ack(&mut self) -> Result<Ack, ServeError> {
        if !read_frame(&mut self.stream, &mut self.payload)? {
            return Err(ServeError::Disconnected);
        }
        decode_ack(&self.payload)
    }
}

/// What one loadgen run measured.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Sessions driven.
    pub sessions: u64,
    /// Events submitted and acked.
    pub events: u64,
    /// Warnings the server reported across all acks.
    pub warnings: u64,
    /// Wall-clock of the run.
    pub elapsed: Duration,
    /// Per-submit ack latency, in microseconds.
    pub ack_latency_us: hth_trace::Histogram,
    /// Server stats sampled right after the last ack.
    pub server: ServeStats,
}

impl LoadReport {
    /// Events per second over the run.
    pub fn events_per_sec(&self) -> f64 {
        if self.elapsed.as_secs_f64() > 0.0 {
            self.events as f64 / self.elapsed.as_secs_f64()
        } else {
            0.0
        }
    }
}

/// Drives `sessions × events_per_session` synthetic submissions over
/// loopback, round-robin across sessions on one connection, measuring
/// per-ack latency. This is the `hth load` engine and the serve bench.
pub fn run_load(
    addr: impl ToSocketAddrs,
    sessions: u64,
    events_per_session: u64,
) -> Result<LoadReport, ServeError> {
    let mut client = Client::connect(addr)?;
    let mut latency = hth_trace::Histogram::default();
    let streams: Vec<Vec<SecpertEvent>> =
        (0..sessions).map(|s| crate::synthetic_events(s, events_per_session as usize)).collect();
    for sid in 0..sessions {
        client.open(sid)?;
    }
    let start = std::time::Instant::now();
    let mut events = 0u64;
    let mut warnings = 0u64;
    for i in 0..events_per_session as usize {
        for (sid, stream) in streams.iter().enumerate() {
            let sent = std::time::Instant::now();
            warnings += client.submit(sid as u64, &stream[i])?;
            latency.observe(sent.elapsed().as_micros() as u64);
            events += 1;
        }
    }
    let elapsed = start.elapsed();
    let server = client.stats()?;
    for sid in 0..sessions {
        client.close(sid)?;
    }
    Ok(LoadReport { sessions, events, warnings, elapsed, ack_latency_us: latency, server })
}
