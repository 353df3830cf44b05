//! Frame-level fuzzing of the fleet's framed formats: the digest stream
//! and event journals. Two kinds of mutation:
//!
//! * payload edits followed by a *re-CRC*, so hostile content gets past
//!   the frame checksum and reaches [`read_digest_stream`] or the
//!   journal's event decoder;
//! * raw edits to the framed bytes (bit flips, stomps, cuts), which the
//!   frame layer itself must classify.
//!
//! Every read must return `Ok` or an error — never panic — and
//! [`recover`] must account for every byte it was given.
//!
//! Test fns are named `fuzz_frame_*`, the frame-layer suite's prefix.

use std::panic::{catch_unwind, AssertUnwindSafe};

use harrier::{Origin, ResourceType, SecpertEvent, SourceInfo};
use hth_core::{DropIdentity, SessionDigest, Severity};
use hth_fleet::{
    read_digest_stream, recover, write_digest_stream, JournalReader, JournalWriter, JOURNAL_V1,
    JOURNAL_V3, MAX_FRAME_LEN,
};
use proptest::prelude::*;
use secpert_engine::frame::{Cursor, Framing, HEADER_LEN};

const CRC: Framing = Framing::new(true, MAX_FRAME_LEN);

fn digests() -> Vec<SessionDigest> {
    let mut a = SessionDigest::new(3, "bot-a");
    a.events = 40;
    *a.warnings.entry((Severity::High, "check_socket_execve".into())).or_insert(0) += 2;
    a.beacons.insert("c2.example:6667".into());
    a.drops.insert(DropIdentity {
        path: "/tmp/stage2".into(),
        executable: true,
        content: vec!["SOCKET".into(), "FILE".into()],
    });
    a.exfil.insert("sink.example:81".into(), 700);
    let mut b = SessionDigest::new(9, "bot-b");
    b.events = 12;
    b.beacons.insert("c2.example:6667".into());
    b.exfil.insert("sink.example:81".into(), 600);
    vec![a, b, SessionDigest::new(10, "")]
}

fn event(i: u64) -> SecpertEvent {
    SecpertEvent::ResourceAccess {
        pid: 1,
        syscall: "SYS_open",
        resource: SourceInfo::new(ResourceType::File, format!("/tmp/f{}", i % 3)),
        origin: Origin { sources: vec![SourceInfo::new(ResourceType::Binary, "/bin/app")] },
        time: i,
        frequency: 1,
        address: 0,
        proc_count: None,
        proc_rate: None,
        mem_total: None,
        server: None,
    }
}

fn journal(version: u8) -> Vec<u8> {
    let mut writer = JournalWriter::with_version(Vec::new(), version).expect("journal");
    for i in 0..6 {
        writer.append(&event(i)).expect("append");
    }
    writer.finish().expect("finish")
}

/// Splits a CRC-framed stream into its header and frame payloads.
fn split(stream: &[u8]) -> (Vec<u8>, Vec<Vec<u8>>) {
    let mut cur = Cursor::new(stream);
    let header = cur.take(HEADER_LEN).expect("header").to_vec();
    let mut payloads = Vec::new();
    while !cur.is_empty() {
        payloads.push(CRC.read(&mut cur).expect("own frame").to_vec());
    }
    (header, payloads)
}

/// Reassembles a stream, every frame carrying a correct CRC.
fn reframe(header: &[u8], payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = header.to_vec();
    for payload in payloads {
        CRC.write(&mut out, |p| p.extend_from_slice(payload));
    }
    out
}

/// Applies `(payload, position, value)` edits: the position's top two
/// bits pick a bit flip, a byte stomp, a cut or an insert.
fn mutate(payloads: &mut [Vec<u8>], edits: &[(u16, u16, u8)]) {
    for &(which, pos, value) in edits {
        let payload = &mut payloads[which as usize % payloads.len()];
        if payload.is_empty() {
            payload.push(value);
            continue;
        }
        let idx = usize::from(pos & 0x3fff) % payload.len();
        match pos >> 14 {
            0 => payload[idx] ^= 1 << (value & 7),
            1 => payload[idx] = value,
            2 => payload.truncate(idx),
            _ => payload.insert(idx, value),
        }
    }
}

fn assert_digests_total(stream: &[u8]) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _ = read_digest_stream(stream);
    }));
    outcome.unwrap_or_else(|_| panic!("digest decode panicked on {stream:02x?}"));
}

fn assert_journal_total(bytes: &[u8]) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let (events, report) = recover(bytes);
        assert_eq!(report.bytes_scanned + report.bytes_dropped, bytes.len());
        assert_eq!(report.frames_ok, events.len() as u64);
        if let Ok(reader) = JournalReader::new(bytes) {
            let read = reader.take_while(Result::is_ok).count();
            assert_eq!(read, events.len(), "reader and recovery disagree on the clean prefix");
        }
    }));
    outcome.unwrap_or_else(|_| panic!("journal read panicked on {bytes:02x?}"));
}

type Edits = Vec<(u16, u16, u8)>;

fn edits() -> impl Strategy<Value = Edits> {
    prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fuzz_frame_digest_payloads_never_panic(edits in edits()) {
        let (header, mut payloads) = split(&write_digest_stream(&digests()));
        mutate(&mut payloads, &edits);
        assert_digests_total(&reframe(&header, &payloads));
    }

    #[test]
    fn fuzz_frame_digest_raw_bytes_never_panic(
        stomps in prop::collection::vec((any::<u16>(), any::<u8>()), 1..8),
        keep in any::<u16>(),
    ) {
        let mut stream = write_digest_stream(&digests());
        for (pos, value) in stomps {
            let idx = pos as usize % stream.len();
            stream[idx] = value;
        }
        stream.truncate(keep as usize % (stream.len() + 1));
        assert_digests_total(&stream);
    }

    #[test]
    fn fuzz_frame_journal_payloads_never_panic(edits in edits()) {
        let (header, mut payloads) = split(&journal(JOURNAL_V3));
        mutate(&mut payloads, &edits);
        assert_journal_total(&reframe(&header, &payloads));
    }

    #[test]
    fn fuzz_frame_journal_raw_bytes_never_panic(
        v1 in any::<bool>(),
        flips in prop::collection::vec((any::<u16>(), 0u8..8), 0..6),
        keep in any::<u16>(),
    ) {
        let mut bytes = journal(if v1 { JOURNAL_V1 } else { JOURNAL_V3 });
        for (pos, bit) in flips {
            let idx = pos as usize % bytes.len();
            bytes[idx] ^= 1 << bit;
        }
        bytes.truncate(keep as usize % (bytes.len() + 1));
        assert_journal_total(&bytes);
    }
}

#[test]
fn fuzz_frame_clean_streams_decode() {
    let stream = write_digest_stream(&digests());
    let (header, payloads) = split(&stream);
    assert_eq!(reframe(&header, &payloads), stream, "split and reframe are inverses");
    assert_eq!(read_digest_stream(&stream).expect("clean digests"), digests());
    for version in [JOURNAL_V1, JOURNAL_V3] {
        let (events, report) = recover(&journal(version));
        assert!(report.is_clean());
        assert_eq!(events.len(), 6);
    }
}

/// Extended soak: many more re-CRC'd payload mutations of both formats.
/// Ignored by default; CI runs it with `--include-ignored` under a
/// bounded `PROPTEST_CASES`.
#[test]
#[ignore = "extended soak; run explicitly or via --include-ignored"]
fn fuzz_frame_streams_extended_soak() {
    let (digest_header, digest_payloads) = split(&write_digest_stream(&digests()));
    let (journal_header, journal_payloads) = split(&journal(JOURNAL_V3));
    let cases: usize =
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(5000);
    let mut state = 0xD16E_57F4_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for case in 0..cases {
        let edits: Edits = (0..next() % 6 + 1)
            .map(|_| {
                let r = next();
                (r as u16, (r >> 16) as u16, (r >> 32) as u8)
            })
            .collect();
        if case.is_multiple_of(2) {
            let mut payloads = digest_payloads.clone();
            mutate(&mut payloads, &edits);
            assert_digests_total(&reframe(&digest_header, &payloads));
        } else {
            let mut payloads = journal_payloads.clone();
            mutate(&mut payloads, &edits);
            assert_journal_total(&reframe(&journal_header, &payloads));
        }
    }
}
