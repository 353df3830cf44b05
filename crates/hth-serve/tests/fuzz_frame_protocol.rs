//! Payload fuzzing for the serve protocol: mutate the payloads of valid
//! request and ack frames and then *re-CRC* them, so hostile content
//! gets past the frame checksum and reaches [`decode_request`] /
//! [`decode_ack`]. Every frame read and decode must return `Ok` or an
//! error — never panic — and every frame read must consume input.
//!
//! Test fns are named `fuzz_frame_*`, the frame-layer suite's prefix.

use std::panic::{catch_unwind, AssertUnwindSafe};

use harrier::{Origin, ResourceType, SecpertEvent, ServerInfo, SourceInfo};
use hth_fleet::{EventDecoder, EventEncoder, MAX_FRAME_LEN};
use hth_serve::protocol::{decode_ack, decode_request, encode_ack, encode_request, read_frame};
use hth_serve::{synthetic_events, Ack, Request, ServeStats};
use proptest::prelude::*;
use secpert_engine::frame::{Cursor, Framing};

const FRAMING: Framing = Framing::new(true, MAX_FRAME_LEN);

fn transfer() -> SecpertEvent {
    SecpertEvent::DataTransfer {
        pid: 9,
        syscall: "SYS_send",
        data_sources: vec![SourceInfo::new(ResourceType::File, "/etc/passwd")],
        data_origin: Origin::unknown(),
        target: SourceInfo::new(ResourceType::Socket, "10.0.0.9:6667"),
        target_origin: Origin::unknown(),
        time: 3,
        frequency: 1,
        address: 0x1000,
        executable_content: true,
        server: Some(ServerInfo { address: "10.0.0.9:6667".into(), origin: Origin::unknown() }),
        bytes: 512,
    }
}

/// The payloads of one request stream (every variant, shared interning
/// state) followed by one of each ack.
fn base_payloads() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let events = synthetic_events(3, 3);
    let requests = [
        Request::Open { session: 3 },
        Request::Label { session: 3, label: "bot-ä".into() },
        Request::Submit { session: 3, event: events[0].clone() },
        Request::Submit { session: 3, event: transfer() },
        Request::Submit { session: 3, event: events[1].clone() },
        Request::Flush,
        Request::Stats,
        Request::Close { session: 3 },
        Request::Shutdown,
    ];
    let acks = [
        Ack::Ok { value: 5 },
        Ack::Err { message: "no such session".into() },
        Ack::Stats(ServeStats { events_total: 1 << 33, ..ServeStats::default() }),
    ];
    let mut encoder = EventEncoder::new();
    let mut framed = Vec::new();
    for request in &requests {
        encode_request(request, &mut encoder, &mut framed);
    }
    let request_payloads = payloads_of(&framed);
    framed.clear();
    for ack in &acks {
        encode_ack(ack, &mut framed);
    }
    (request_payloads, payloads_of(&framed))
}

fn payloads_of(framed: &[u8]) -> Vec<Vec<u8>> {
    let mut cur = Cursor::new(framed);
    let mut payloads = Vec::new();
    while !cur.is_empty() {
        payloads.push(FRAMING.read(&mut cur).expect("own frame").to_vec());
    }
    payloads
}

/// Frames every payload with a correct CRC, whatever it holds.
fn reframe(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for payload in payloads {
        FRAMING.write(&mut out, |p| p.extend_from_slice(payload));
    }
    out
}

/// Reads and decodes `stream` the way the server and the client do,
/// until the first error.
fn assert_total(stream: &[u8]) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut decoder = EventDecoder::new();
        let mut source = std::io::Cursor::new(stream);
        let mut payload = Vec::new();
        loop {
            let before = source.position();
            match read_frame(&mut source, &mut payload) {
                Ok(true) => assert!(source.position() > before, "a frame read must consume input"),
                Ok(false) | Err(_) => break,
            }
            let _ = decode_ack(&payload);
            if decode_request(&payload, &mut decoder).is_err() {
                // The server drops the connection: its decoder state is
                // no longer in step with the client's encoder.
                decoder = EventDecoder::new();
            }
        }
    }));
    outcome.unwrap_or_else(|_| {
        panic!("serve decode panicked on {} bytes: {stream:02x?}", stream.len())
    });
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fuzz_frame_serve_request_payloads_never_panic(
        edits in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 1..8),
    ) {
        let (mut requests, _) = base_payloads();
        mutate(&mut requests, &edits);
        assert_total(&reframe(&requests));
    }

    #[test]
    fn fuzz_frame_serve_ack_payloads_never_panic(
        edits in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 1..8),
    ) {
        let (_, mut acks) = base_payloads();
        mutate(&mut acks, &edits);
        assert_total(&reframe(&acks));
    }

    #[test]
    fn fuzz_frame_serve_garbage_payloads_never_panic(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 1..6),
    ) {
        assert_total(&reframe(&payloads));
    }
}

#[test]
fn fuzz_frame_serve_clean_stream_decodes() {
    let (requests, acks) = base_payloads();
    let mut decoder = EventDecoder::new();
    for payload in &requests {
        decode_request(payload, &mut decoder).expect("clean request");
    }
    for payload in &acks {
        decode_ack(payload).expect("clean ack");
    }
}

/// Extended soak: many more re-CRC'd payload mutations. Ignored by
/// default; CI runs it with `--include-ignored` under a bounded
/// `PROPTEST_CASES`.
#[test]
#[ignore = "extended soak; run explicitly or via --include-ignored"]
fn fuzz_frame_serve_extended_soak() {
    let (requests, acks) = base_payloads();
    let cases: usize =
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(5000);
    let mut state = 0x5E4E_F4A3_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for case in 0..cases {
        let mut payloads = if case.is_multiple_of(2) { requests.clone() } else { acks.clone() };
        let edits: Vec<(u16, u16, u8)> = (0..next() % 6 + 1)
            .map(|_| {
                let r = next();
                (r as u16, (r >> 16) as u16, (r >> 32) as u8)
            })
            .collect();
        mutate(&mut payloads, &edits);
        assert_total(&reframe(&payloads));
    }
}
