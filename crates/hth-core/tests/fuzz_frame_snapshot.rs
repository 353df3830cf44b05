//! Payload fuzzing for the `HTHS` engine snapshot: mutate the payload
//! of a valid snapshot and then *re-CRC* it, so hostile content gets
//! past the frame checksum and reaches the snapshot decoder and the
//! engine's restore path. [`Secpert::restore`] must return `Ok` or an
//! error for every such input — never panic — and an expert it accepts
//! must keep processing events.
//!
//! Test fns are named `fuzz_frame_*`, the frame-layer suite's prefix.

use std::panic::{catch_unwind, AssertUnwindSafe};

use harrier::{Origin, ResourceType, SecpertEvent, SourceInfo};
use hth_core::{PolicyConfig, Secpert};
use proptest::prelude::*;
use secpert_engine::frame::{self, put_varint, Cursor, Framing, HEADER_LEN};
use secpert_engine::{EngineSnapshot, FactRecord, MatchStats, Value};

const FRAMING: Framing = Framing::new(true, u64::MAX);

fn event(i: u64) -> SecpertEvent {
    SecpertEvent::ResourceAccess {
        pid: 7,
        syscall: if i.is_multiple_of(2) { "SYS_open" } else { "SYS_execve" },
        resource: SourceInfo::new(ResourceType::File, format!("/tmp/f{}", i % 3)),
        origin: Origin { sources: vec![SourceInfo::new(ResourceType::Binary, "/bin/app")] },
        time: i,
        frequency: 1,
        address: 0x1000,
        proc_count: None,
        proc_rate: None,
        mem_total: None,
        server: None,
    }
}

/// A live `system_call_access` fact, slots in the policy template's
/// declaration order.
fn access_fact(id: u64) -> FactRecord {
    let multi = |items: &[&str]| Value::multi(items.iter().map(Value::sym));
    FactRecord {
        id,
        template: "system_call_access".into(),
        slots: vec![
            Value::Int(7),
            Value::sym("SYS_open"),
            Value::str(format!("/tmp/f{id}")),
            Value::sym("FILE"),
            multi(&["/bin/app"]),
            multi(&["BINARY"]),
            Value::Int(id as i64),
            Value::Int(1),
            Value::str("4096"),
            Value::Int(0),
            Value::Int(0),
            Value::Float(0.5),
            Value::sym("nil"),
            multi(&[]),
            multi(&[]),
        ],
    }
}

/// Snapshot payloads the mutations start from: a policy-grown expert's
/// (counters only) and one carrying live policy facts.
fn base_payloads() -> Vec<Vec<u8>> {
    let policy = PolicyConfig::default();
    let mut expert = Secpert::new(&policy).expect("policy loads");
    for i in 0..16 {
        expert.process_event(&event(i)).expect("event processed");
    }
    let grown = expert.snapshot().expect("quiescent snapshot");
    let mut cur = Cursor::new(&grown[HEADER_LEN..]);
    let grown_payload = FRAMING.read(&mut cur).expect("own snapshot frame").to_vec();

    // The refraction keys mark each fact's cleanup rule as fired, so a
    // clean restore leaves the agenda empty.
    let engine = EngineSnapshot {
        facts: vec![access_fact(2), access_fact(5)],
        next_fact_id: 9,
        refraction: vec![
            ("cleanup_system_call_access".into(), vec![Some(2)]),
            ("cleanup_system_call_access".into(), vec![Some(5)]),
        ],
        activation_seq: 40,
        fired_total: 12,
        match_stats: MatchStats { alpha_tests: 9, ..MatchStats::default() },
    };
    let mut live_payload = Vec::new();
    put_varint(&mut live_payload, 16);
    live_payload.extend_from_slice(&engine.encode());
    vec![grown_payload, live_payload]
}

/// `HTHS` + version + one CRC frame around `payload`: a snapshot whose
/// checksum is right whatever the payload holds.
fn reframe(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    frame::write_header(&mut out, b"HTHS", 1);
    FRAMING.write(&mut out, |p| p.extend_from_slice(payload));
    out
}

fn assert_total(bytes: &[u8]) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Ok(mut expert) = Secpert::restore(&PolicyConfig::default(), bytes) {
            // An accepted snapshot is a working expert.
            for i in 0..4 {
                let _ = expert.process_event(&event(i));
            }
            let _ = expert.snapshot();
        }
    }));
    outcome.unwrap_or_else(|_| panic!("restore panicked on {} bytes: {bytes:02x?}", bytes.len()));
}

#[test]
fn fuzz_frame_snapshot_bases_restore() {
    for payload in base_payloads() {
        let bytes = reframe(&payload);
        let mut expert = Secpert::restore(&PolicyConfig::default(), &bytes).expect("base restores");
        expert.process_event(&event(1)).expect("restored expert runs");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fuzz_frame_snapshot_payload_flips_never_panic(
        base in 0usize..2,
        flips in prop::collection::vec((any::<u16>(), 0u8..8), 1..6),
    ) {
        let mut payload = base_payloads().swap_remove(base);
        for (pos, bit) in flips {
            let idx = pos as usize % payload.len();
            payload[idx] ^= 1 << bit;
        }
        assert_total(&reframe(&payload));
    }

    #[test]
    fn fuzz_frame_snapshot_payload_stomps_never_panic(
        base in 0usize..2,
        stomps in prop::collection::vec((any::<u16>(), any::<u8>()), 1..8),
    ) {
        let mut payload = base_payloads().swap_remove(base);
        for (pos, value) in stomps {
            let idx = pos as usize % payload.len();
            payload[idx] = value;
        }
        assert_total(&reframe(&payload));
    }

    #[test]
    fn fuzz_frame_snapshot_payload_cuts_and_inserts_never_panic(
        base in 0usize..2,
        cut in any::<u16>(),
        insert in prop::collection::vec(any::<u8>(), 0..12),
    ) {
        let mut payload = base_payloads().swap_remove(base);
        let at = cut as usize % (payload.len() + 1);
        payload.truncate(at.max(1));
        payload.splice(at.min(payload.len())..at.min(payload.len()), insert);
        assert_total(&reframe(&payload));
    }

    #[test]
    fn fuzz_frame_snapshot_garbage_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        assert_total(&reframe(&bytes));
        assert_total(&bytes);
    }
}

/// Extended soak: many more re-CRC'd payload mutations. Ignored by
/// default; CI runs it with `--include-ignored` under a bounded
/// `PROPTEST_CASES`.
#[test]
#[ignore = "extended soak; run explicitly or via --include-ignored"]
fn fuzz_frame_snapshot_extended_soak() {
    let bases = base_payloads();
    let cases: usize =
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(2000);
    let mut state = 0x05AA_95E7_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for case in 0..cases {
        let mut payload = bases[case % bases.len()].clone();
        for _ in 0..(next() % 6 + 1) {
            let r = next();
            let idx = (r as usize >> 8) % payload.len();
            match r % 3 {
                0 => payload[idx] ^= 1 << (r >> 40 & 7),
                1 => payload[idx] = (r >> 32) as u8,
                _ => payload.truncate(idx.max(1)),
            }
        }
        assert_total(&reframe(&payload));
    }
}
