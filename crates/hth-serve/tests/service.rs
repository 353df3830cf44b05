//! End-to-end daemon tests over real loopback sockets: protocol smoke,
//! the live `/metrics` endpoint, graceful drain, and the chaos
//! guarantee that a killed connection loses at most its unacked events.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use hth_fleet::{ConnectionFault, EventEncoder, FaultPlan};
use hth_serve::protocol::encode_request;
use hth_serve::{
    run_load, Client, Request, ServeConfig, ServeSummary, Server, SessionTable, TableConfig,
};

fn start_server(
    config: ServeConfig,
) -> (
    std::net::SocketAddr,
    Arc<SessionTable>,
    hth_serve::ServerHandle,
    std::thread::JoinHandle<ServeSummary>,
) {
    let server = Server::bind(config).expect("bind loopback");
    let addr = server.local_addr();
    let table = server.table();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, table, handle, join)
}

#[test]
fn smoke_sessions_stats_metrics_and_drain() {
    let (addr, _table, _handle, join) = start_server(ServeConfig::default());

    let mut client = Client::connect(addr).expect("connect");
    let streams: Vec<_> = (0..3u64).map(|s| hth_serve::synthetic_events(s, 20)).collect();
    for sid in 0..3u64 {
        client.open(sid).expect("open");
    }
    for i in 0..20 {
        for (sid, stream) in streams.iter().enumerate() {
            client.submit(sid as u64, &stream[i]).expect("submit");
        }
    }
    client.flush().expect("flush");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.events_total, 60);
    assert_eq!(stats.sessions_open, 3);
    assert_eq!(stats.sessions_resident, 3, "default budget keeps everything hot");
    assert!(stats.resident_bytes > 0);

    // Live Prometheus scrape on the same port, mid-run.
    let mut http = TcpStream::connect(addr).expect("http connect");
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("request");
    let mut response = String::new();
    http.read_to_string(&mut response).expect("response");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("hth_serve_sessions_resident 3"), "{response}");
    assert!(response.contains("hth_serve_events_total 60"), "{response}");
    assert!(response.contains("hth_serve_budget_bytes"), "{response}");
    // The scrape swapped the same snapshot into the process-global
    // registry, so an in-process --metrics reader agrees with it.
    let global = hth_trace::global_metrics().snapshot();
    assert_eq!(global.gauge("hth_serve_sessions_resident"), Some(3));

    // Unknown paths 404 without disturbing the daemon.
    let mut http = TcpStream::connect(addr).expect("http connect");
    http.write_all(b"GET /nope HTTP/1.1\r\n\r\n").expect("request");
    let mut response = String::new();
    http.read_to_string(&mut response).expect("response");
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");

    for sid in 0..3u64 {
        client.close(sid).expect("close");
    }
    client.shutdown().expect("shutdown");
    let summary = join.join().expect("join");
    assert_eq!(summary.stats.events_total, 60);
    assert_eq!(summary.stats.sessions_open, 0, "all sessions were closed before drain");
    assert!(summary.connections >= 1);
    assert_eq!(summary.http_requests, 2);
    assert!(summary.resident_high_water >= 3);
}

#[test]
fn loadgen_reports_rates_and_latency() {
    let (addr, _table, handle, join) = start_server(ServeConfig::default());
    let report = run_load(addr, 4, 25).expect("load run");
    assert_eq!(report.events, 100);
    assert_eq!(report.ack_latency_us.count(), 100, "every submit ack is timed");
    assert!(report.events_per_sec() > 0.0);
    assert_eq!(report.server.events_total, 100);
    handle.shutdown();
    let summary = join.join().expect("join");
    assert_eq!(summary.stats.events_total, 100);
}

/// Event-codec version 0 does not exist, so an `HTHW\x00` preamble is
/// refused: the server closes the connection without acking or applying
/// the request behind it.
#[test]
fn version_zero_preamble_is_refused() {
    let (addr, _table, handle, join) = start_server(ServeConfig::default());
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(10))).expect("timeout");
    let mut opening = b"HTHW\x00".to_vec();
    encode_request(&Request::Open { session: 7 }, &mut EventEncoder::new(), &mut opening);
    raw.write_all(&opening).expect("preamble and request");
    let mut reply = [0u8; 64];
    match raw.read(&mut reply) {
        Ok(n) => assert_eq!(n, 0, "a version-0 preamble must get no ack"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    let stats = Client::connect(addr).expect("connect").stats().expect("stats");
    assert_eq!(stats.sessions_open, 0, "the refused connection opened nothing");
    handle.shutdown();
    join.join().expect("join");
}

/// A connection killed mid-frame loses at most its unacked events: the
/// torn frame is dropped by the server, every acked event is applied,
/// and a reconnecting client can replay from its last ack to converge
/// on exactly the uninterrupted result.
#[test]
fn killed_connection_loses_at_most_unacked_events() {
    let (addr, table, handle, join) = start_server(ServeConfig::default());
    let events = hth_serve::synthetic_events(1, 10);

    // Request 1 is Open, requests 2..=4 are submits of events 0..=2;
    // request 5 (event 3) is torn mid-frame after 6 bytes.
    let faults =
        Arc::new(FaultPlan::new().connection_on(1, 5, ConnectionFault::Disconnect { keep: 6 }));
    let mut doomed = Client::connect_with_faults(addr, faults).expect("connect");
    doomed.open(1).expect("open");
    let mut acked = 0u64;
    let mut torn_at = None;
    for (i, event) in events.iter().enumerate() {
        match doomed.submit(1, event) {
            Ok(_) => acked += 1,
            Err(_) => {
                torn_at = Some(i);
                break;
            }
        }
    }
    assert_eq!(torn_at, Some(3), "the planted fault fires on the 4th submit");
    assert_eq!(acked, 3);

    // The server applied exactly the acked prefix — nothing more.
    let mut fresh = Client::connect(addr).expect("reconnect");
    let stats = fresh.stats().expect("stats");
    assert_eq!(stats.events_total, acked, "only acked events are applied");

    // A stalled mid-frame write delays but corrupts nothing.
    let stalls =
        Arc::new(FaultPlan::new().connection_on(1, 1, ConnectionFault::Stall { millis: 30 }));
    let mut slow = Client::connect_with_faults(addr, Arc::clone(&stalls)).expect("connect");
    slow.submit(1, &events[acked as usize]).expect("stalled submit still acks");

    // Replaying from the last ack converges on the uninterrupted result.
    for event in &events[acked as usize + 1..] {
        fresh.submit(1, event).expect("replay");
    }
    let reference = SessionTable::new(TableConfig::default());
    for event in &events {
        reference.submit(1, event).expect("reference");
    }
    assert_eq!(table.warning_counts(), reference.warning_counts());
    assert_eq!(table.stats().events_total, events.len() as u64);

    handle.shutdown();
    join.join().expect("join");
}
