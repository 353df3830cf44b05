//! Frame-layer totality fuzzing: mutate valid framed streams — bit
//! flips, truncations, splices of two streams, byte stomps — and assert
//! the shared frame codec is *total*: every read returns `Ok` or a
//! [`FrameError`], never panics, consumes input on every `Ok`, and never
//! allocates for a length claim above the format's cap. The slice
//! reader and the stream reader must accept exactly the same frames.
//!
//! Every test fn is named `fuzz_frame_*`; the payload fuzzers of the
//! formats built on this codec (journal, snapshot, serve, digest) share
//! the prefix, so CI runs all of them with `cargo test fuzz_frame`
//! (bounded via the `PROPTEST_CASES` env var the proptest shim honours).

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use secpert_engine::frame::{Cursor, Framing, Interner, StringTable};

/// A small cap, so hostile length claims near it are cheap to probe.
const CAP: u64 = 512;
const FRAMINGS: [Framing; 2] = [Framing::new(true, CAP), Framing::new(false, CAP)];

fn framed(framing: Framing, payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for payload in payloads {
        framing.write(&mut out, |p| p.extend_from_slice(payload));
    }
    out
}

/// Reads `buf` frame by frame with both readers, asserting totality and
/// that they agree. Returns how many frames were accepted.
fn assert_total(framing: Framing, buf: &[u8]) -> usize {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut cur = Cursor::new(buf);
        let mut accepted = Vec::new();
        while !cur.is_empty() {
            let before = cur.position();
            match framing.read(&mut cur) {
                Ok(payload) => {
                    assert!(cur.position() > before, "a frame read must consume input");
                    assert!(payload.len() as u64 <= CAP, "payload above the cap");
                    accepted.push(payload.to_vec());
                }
                Err(_) => break, // a typed FrameError is a valid outcome
            }
        }

        let mut src = buf;
        let mut payload = Vec::new();
        let mut streamed = 0;
        loop {
            let more = framing.read_from(&mut src, &mut payload);
            assert!(payload.capacity() as u64 <= 2 * CAP, "allocated past the cap");
            let Ok(true) = more else { break };
            assert_eq!(payload, accepted[streamed], "stream and slice readers disagree");
            streamed += 1;
        }
        assert_eq!(streamed, accepted.len(), "stream and slice readers disagree");
        accepted.len()
    }));
    outcome.unwrap_or_else(|_| panic!("frame reader panicked on {} bytes: {buf:02x?}", buf.len()))
}

/// Decodes interned strings from `buf` until the first error.
fn assert_strings_total(buf: &[u8]) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut cur = Cursor::new(buf);
        let mut table = StringTable::default();
        while !cur.is_empty() {
            let before = cur.position();
            if table.get(&mut cur).is_err() {
                break;
            }
            assert!(cur.position() > before, "a string read must consume input");
        }
    }));
    outcome.unwrap_or_else(|_| panic!("string table panicked on {buf:02x?}"));
}

fn payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fuzz_frame_clean_streams_round_trip(payloads in payloads()) {
        for framing in FRAMINGS {
            let buf = framed(framing, &payloads);
            prop_assert_eq!(assert_total(framing, &buf), payloads.len());
        }
    }

    #[test]
    fn fuzz_frame_bit_flips_never_panic(
        payloads in payloads(),
        flips in prop::collection::vec((any::<u16>(), 0u8..8), 1..6),
    ) {
        for framing in FRAMINGS {
            let mut buf = framed(framing, &payloads);
            for &(pos, bit) in &flips {
                let idx = pos as usize % buf.len();
                buf[idx] ^= 1 << bit;
            }
            assert_total(framing, &buf);
        }
    }

    #[test]
    fn fuzz_frame_truncations_never_panic(payloads in payloads(), keep in any::<u16>()) {
        for framing in FRAMINGS {
            let buf = framed(framing, &payloads);
            let keep = keep as usize % (buf.len() + 1);
            assert_total(framing, &buf[..keep]);
        }
    }

    #[test]
    fn fuzz_frame_splices_never_panic(
        left in payloads(),
        right in payloads(),
        cut_l in any::<u16>(),
        cut_r in any::<u16>(),
    ) {
        // The seam lands mid-frame, and a CRC stream may meet a CRC-less one.
        let a = framed(FRAMINGS[0], &left);
        let b = framed(FRAMINGS[1], &right);
        let mut spliced = a[..cut_l as usize % (a.len() + 1)].to_vec();
        spliced.extend_from_slice(&b[cut_r as usize % (b.len() + 1)..]);
        for framing in FRAMINGS {
            assert_total(framing, &spliced);
        }
    }

    #[test]
    fn fuzz_frame_byte_stomps_never_panic(
        payloads in payloads(),
        stomps in prop::collection::vec((any::<u16>(), any::<u8>()), 1..8),
    ) {
        for framing in FRAMINGS {
            let mut buf = framed(framing, &payloads);
            for &(pos, value) in &stomps {
                let idx = pos as usize % buf.len();
                buf[idx] = value;
            }
            assert_total(framing, &buf);
        }
    }

    #[test]
    fn fuzz_frame_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        for framing in FRAMINGS {
            assert_total(framing, &bytes);
        }
        assert_strings_total(&bytes);
    }

    #[test]
    fn fuzz_frame_interned_strings_survive_stomps(
        words in prop::collection::vec(0usize..6, 1..24),
        stomps in prop::collection::vec((any::<u16>(), any::<u8>()), 0..4),
    ) {
        const WORDS: [&str; 6] = ["", "SYS_open", "/etc/passwd", "évil:99", "SYS_open!", "x"];
        let mut interner = Interner::default();
        let mut buf = Vec::new();
        for &w in &words {
            interner.put(&mut buf, WORDS[w]);
        }
        if stomps.is_empty() {
            let mut table = StringTable::default();
            let mut cur = Cursor::new(&buf);
            for &w in &words {
                prop_assert_eq!(&**table.get(&mut cur).expect("clean string"), WORDS[w]);
            }
            prop_assert!(cur.is_empty());
        }
        for &(pos, value) in &stomps {
            let idx = pos as usize % buf.len();
            buf[idx] = value;
        }
        assert_strings_total(&buf);
    }
}

/// Length claims at and just above the cap, and at the top of the
/// varint range: the readers refuse them before allocating, and a claim
/// within the cap on a short stream is a truncation, not a hang.
#[test]
fn fuzz_frame_huge_length_claims_error_without_allocating() {
    for framing in FRAMINGS {
        for claim in [CAP, CAP + 1, u64::from(u32::MAX), u64::MAX >> 1, u64::MAX] {
            let mut probe = Vec::new();
            secpert_engine::frame::put_varint(&mut probe, claim);
            probe.extend_from_slice(&[0xAB; 8]);
            assert_eq!(assert_total(framing, &probe), 0, "claim {claim} accepted");
        }
    }
}

/// Extended soak: the same mutations at many times the case count.
/// Ignored by default; CI runs it with `--include-ignored` under a
/// bounded `PROPTEST_CASES`.
#[test]
#[ignore = "extended soak; run explicitly or via --include-ignored"]
fn fuzz_frame_extended_soak() {
    let payloads: Vec<Vec<u8>> = (0..12u8).map(|i| vec![i; usize::from(i) * 5]).collect();
    let cases: usize =
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(5000);
    let mut state = 0xF4A3_E5EE_D000_0001_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for framing in FRAMINGS {
        let clean = framed(framing, &payloads);
        for _ in 0..cases {
            let mut buf = clean.clone();
            for _ in 0..(next() % 8 + 1) {
                let r = next();
                let idx = (r as usize >> 8) % buf.len();
                match r % 3 {
                    0 => buf[idx] ^= 1 << (r >> 40 & 7),
                    1 => buf[idx] = (r >> 32) as u8,
                    _ => buf.truncate(idx),
                }
                if buf.is_empty() {
                    break;
                }
            }
            assert_total(framing, &buf);
        }
    }
}
