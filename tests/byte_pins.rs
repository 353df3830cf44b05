//! Byte pins for the binary formats that no other golden covers: the
//! `HTHS` engine snapshot, a serve request/ack stream, and a fleet
//! digest stream. Each artifact is built deterministically, rendered as
//! hex and compared with its fixture under `tests/golden/`, then decoded
//! back so the pin also checks the reader side. A hand-built
//! [`EngineSnapshot`] carrying every value kind a caller can build pins the snapshot
//! payload encoding that a policy-grown expert does not reach.
//!
//! Journals are pinned separately (`tests/golden/journals/*.hthj`).
//! Regenerate deliberately with `UPDATE_GOLDEN=1 cargo test --test byte_pins`.

use hth::harrier::{Origin, ResourceType, SecpertEvent, ServerInfo, SourceInfo};
use hth::hth_core::{DropIdentity, PolicyConfig, Secpert, SessionDigest, Severity};
use hth::hth_fleet::{read_digest_stream, write_digest_stream, EventDecoder, EventEncoder};
use hth::secpert_engine::{EngineSnapshot, FactRecord, MatchStats, Value};
use hth_serve::protocol::{decode_ack, decode_request, encode_ack, encode_request, read_frame};
use hth_serve::{Ack, Request, ServeStats};

fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::new();
    for line in bytes.chunks(32) {
        for b in line {
            out.push_str(&format!("{b:02x}"));
        }
        out.push('\n');
    }
    out
}

fn check_golden(name: &str, bytes: &[u8]) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let rendered = to_hex(bytes);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("golden path writable");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden byte pin missing; run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        golden, rendered,
        "encoded bytes diverged from tests/golden/{name}; \
         if the format change is intended, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn snapshot_bytes_match_golden() {
    let policy = PolicyConfig::default();
    let mut expert = Secpert::new(&policy).expect("policy loads");
    for event in hth_serve::synthetic_events(0, 64) {
        expert.process_event(&event).expect("event processed");
    }
    let bytes = expert.snapshot().expect("quiescent snapshot");
    check_golden("snapshot.hex", &bytes);

    let restored = Secpert::restore(&policy, &bytes).expect("pinned snapshot restores");
    assert_eq!(restored.snapshot().expect("re-snapshot"), bytes);
}

#[test]
fn engine_snapshot_payload_bytes_match_golden() {
    let snapshot = EngineSnapshot {
        facts: vec![
            FactRecord { id: 1, template: "initial-fact".into(), slots: vec![] },
            FactRecord {
                id: 7,
                template: "event".into(),
                slots: vec![
                    Value::sym("SYS_open"),
                    Value::str("/etc/passwd"),
                    Value::Int(-3),
                    Value::Int(i64::MIN),
                    Value::Float(2.5),
                    Value::multi([Value::sym("FILE"), Value::Int(9), Value::sym("SYS_open")]),
                ],
            },
            FactRecord {
                id: 300,
                template: "event".into(),
                slots: vec![Value::str("/etc/passwd")],
            },
        ],
        next_fact_id: 301,
        refraction: vec![
            ("rule-a".into(), vec![Some(1), None, Some(7)]),
            ("rule-b".into(), vec![Some(300)]),
            ("rule-a".into(), vec![Some(7)]),
        ],
        activation_seq: 99,
        fired_total: 12,
        match_stats: MatchStats {
            alpha_tests: 5,
            tokens_live: 3,
            resequences: u64::MAX,
            ..MatchStats::default()
        },
    };
    let bytes = snapshot.encode();
    check_golden("engine_snapshot.hex", &bytes);
    assert_eq!(EngineSnapshot::decode(&bytes).expect("pinned payload decodes"), snapshot);
}

fn transfer() -> SecpertEvent {
    SecpertEvent::DataTransfer {
        pid: 4242,
        syscall: "SYS_send",
        data_sources: vec![
            SourceInfo::new(ResourceType::File, "/etc/passwd"),
            SourceInfo::new(ResourceType::UserInput, ""),
        ],
        data_origin: Origin::unknown(),
        target: SourceInfo::new(ResourceType::Socket, "10.0.0.9:6667 (AF_INET)"),
        target_origin: Origin { sources: vec![SourceInfo::new(ResourceType::Binary, "/bin/bot")] },
        time: 77,
        frequency: 3,
        address: 0x0804_8abc,
        executable_content: false,
        server: Some(ServerInfo {
            address: "10.0.0.9:6667 (AF_INET)".into(),
            origin: Origin { sources: vec![SourceInfo::new(ResourceType::Binary, "/bin/bot")] },
        }),
        bytes: 1500,
    }
}

fn requests() -> Vec<Request> {
    let events = hth_serve::synthetic_events(5, 3);
    vec![
        Request::Open { session: 5 },
        Request::Label { session: 5, label: "pwsafe-ünïcode".into() },
        Request::Submit { session: 5, event: events[0].clone() },
        Request::Submit { session: 5, event: events[1].clone() },
        Request::Submit { session: 5, event: transfer() },
        Request::Submit { session: 5, event: events[2].clone() },
        Request::Flush,
        Request::Stats,
        Request::Close { session: 5 },
        Request::Shutdown,
    ]
}

fn acks() -> Vec<Ack> {
    vec![
        Ack::Ok { value: 0 },
        Ack::Ok { value: 300 },
        Ack::Err { message: "session 9 is not open".into() },
        Ack::Stats(ServeStats {
            sessions_resident: 2,
            sessions_open: 5,
            events_total: 100_000,
            warnings_total: 3,
            evictions: 4,
            restores: 2,
            fallback_replays: 1,
            resident_bytes: 1 << 20,
            correlator_warnings: 2,
        }),
    ]
}

#[test]
fn serve_stream_bytes_match_golden() {
    let mut encoder = EventEncoder::new();
    let mut requests_bytes = Vec::new();
    for request in requests() {
        encode_request(&request, &mut encoder, &mut requests_bytes);
    }
    let mut acks_bytes = Vec::new();
    for ack in acks() {
        encode_ack(&ack, &mut acks_bytes);
    }
    let mut stream = requests_bytes.clone();
    stream.extend_from_slice(&acks_bytes);
    check_golden("serve_stream.hex", &stream);

    let mut decoder = EventDecoder::new();
    let mut source = std::io::Cursor::new(requests_bytes);
    let mut decoded = Vec::new();
    let mut payload = Vec::new();
    while read_frame(&mut source, &mut payload).expect("request frame") {
        decoded.push(decode_request(&payload, &mut decoder).expect("request"));
    }
    assert_eq!(decoded, requests());
    let mut source = std::io::Cursor::new(acks_bytes);
    let mut decoded = Vec::new();
    while read_frame(&mut source, &mut payload).expect("ack frame") {
        decoded.push(decode_ack(&payload).expect("ack"));
    }
    assert_eq!(decoded, acks());
}

fn digests() -> Vec<SessionDigest> {
    let mut a = SessionDigest::new(3, "bot-a");
    a.events = 40;
    *a.warnings.entry((Severity::High, "check_socket_execve".into())).or_insert(0) += 2;
    *a.warnings.entry((Severity::Low, "check_execve".into())).or_insert(0) += 1;
    a.beacons.insert("c2.example:6667".into());
    a.drops.insert(DropIdentity {
        path: "/tmp/stage2".into(),
        executable: true,
        content: vec!["SOCKET".into(), "FILE".into()],
    });
    a.exfil.insert("sink.example:81".into(), 700);
    let mut b = SessionDigest::new(9, "bot-b");
    b.events = 12;
    // Repeats a's strings, so b's frame carries cross-frame back-references.
    *b.warnings.entry((Severity::High, "check_socket_execve".into())).or_insert(0) += 1;
    b.beacons.insert("c2.example:6667".into());
    b.drops.insert(DropIdentity {
        path: "/tmp/stage2".into(),
        executable: false,
        content: vec!["SOCKET".into()],
    });
    b.exfil.insert("sink.example:81".into(), 600);
    vec![a, b]
}

#[test]
fn digest_stream_bytes_match_golden() {
    let bytes = write_digest_stream(&digests());
    check_golden("digest_stream.hex", &bytes);
    assert_eq!(read_digest_stream(&bytes).expect("pinned digest stream decodes"), digests());
}
