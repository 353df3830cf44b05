//! The shard→correlator digest protocol: [`SessionDigest`]s as a
//! CRC-framed, interned binary stream.
//!
//! Digest streams share the event wire's magic (`HTHW`) but carry their
//! own version byte ([`DIGEST_VERSION`], `0x44`, ASCII `D`) well clear
//! of the event-codec (1, 2) and journal-framing (1–3) ranges, so a
//! consumer handed an opaque `.hthj`-style file — `hth explain`, most
//! importantly — can dispatch on the header's version byte alone: low
//! version bytes mean per-session events, `0x44` means fleet digests.
//!
//! Each digest is one CRC frame of the shared [`frame`] codec, so torn
//! tails and bit rot are detected per digest rather than poisoning the
//! stream. String interning (labels, endpoints, paths, rule names
//! repeat heavily across a fleet) spans frames, so a stream must be
//! decoded in order by a single [`DigestDecoder`].

use hth_core::{DropIdentity, SessionDigest, Severity};
use secpert_engine::frame::{self, put_varint, Cursor, Framing, Interner, StringTable, HEADER_LEN};

use crate::wire::{WireError, MAGIC, MAX_FRAME_LEN};

/// Every digest is one CRC frame, capped like a journal frame.
const FRAMING: Framing = Framing::new(true, MAX_FRAME_LEN);

/// Stream version byte marking a digest stream (vs. the 1/2 of raw
/// event streams and 1–3 of journals).
pub const DIGEST_VERSION: u8 = 0x44;

/// Encodes [`SessionDigest`]s into CRC-framed records. One encoder per
/// stream; decode in order with a single [`DigestDecoder`].
#[derive(Debug, Default)]
pub struct DigestEncoder {
    strings: Interner,
}

impl DigestEncoder {
    /// A fresh encoder with an empty string table.
    pub fn new() -> DigestEncoder {
        DigestEncoder::default()
    }

    /// Appends one digest as a framed record.
    pub fn encode(&mut self, digest: &SessionDigest, out: &mut Vec<u8>) {
        let strings = &mut self.strings;
        FRAMING.write(out, |payload| {
            put_varint(payload, digest.session);
            strings.put(payload, &digest.label);
            put_varint(payload, digest.events);
            put_varint(payload, digest.warnings.len() as u64);
            for ((severity, rule), count) in &digest.warnings {
                payload.push(severity.level() as u8);
                strings.put(payload, rule);
                put_varint(payload, *count);
            }
            put_varint(payload, digest.beacons.len() as u64);
            for endpoint in &digest.beacons {
                strings.put(payload, endpoint);
            }
            put_varint(payload, digest.drops.len() as u64);
            for drop in &digest.drops {
                strings.put(payload, &drop.path);
                payload.push(u8::from(drop.executable));
                put_varint(payload, drop.content.len() as u64);
                for kind in &drop.content {
                    strings.put(payload, kind);
                }
            }
            put_varint(payload, digest.exfil.len() as u64);
            for (target, bytes) in &digest.exfil {
                strings.put(payload, target);
                put_varint(payload, *bytes);
            }
        });
    }
}

/// Decodes a stream produced by one [`DigestEncoder`], mirroring its
/// string table.
#[derive(Debug, Default)]
pub struct DigestDecoder {
    strings: StringTable,
}

impl DigestDecoder {
    /// A fresh decoder with an empty string table.
    pub fn new() -> DigestDecoder {
        DigestDecoder::default()
    }

    /// Decodes one framed digest from the front of `buf`; returns the
    /// digest and the number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] on malformed input (including a per-frame
    /// [`WireError::Crc`] mismatch). The string table may have grown by
    /// then; discard the decoder after an error.
    pub fn decode(&mut self, buf: &[u8]) -> Result<(SessionDigest, usize), WireError> {
        let mut stream = Cursor::new(buf);
        let mut cur = Cursor::new(FRAMING.read(&mut stream)?);
        let session = cur.varint()?;
        let label = self.get_str(&mut cur)?;
        let mut digest = SessionDigest::new(session, &label);
        digest.events = cur.varint()?;
        for _ in 0..cur.varint()? {
            let level = cur.byte()?;
            let severity =
                Severity::from_level(i64::from(level)).ok_or(WireError::BadSeverity(level))?;
            let rule = self.get_str(&mut cur)?;
            let count = cur.varint()?;
            *digest.warnings.entry((severity, rule)).or_insert(0) += count;
        }
        for _ in 0..cur.varint()? {
            let endpoint = self.get_str(&mut cur)?;
            digest.beacons.insert(endpoint);
        }
        for _ in 0..cur.varint()? {
            let path = self.get_str(&mut cur)?;
            let executable = cur.byte()? != 0;
            let n = cur.varint()? as usize;
            let mut content = Vec::with_capacity(n.min(16));
            for _ in 0..n {
                content.push(self.get_str(&mut cur)?);
            }
            digest.drops.insert(DropIdentity { path, executable, content });
        }
        for _ in 0..cur.varint()? {
            let target = self.get_str(&mut cur)?;
            let bytes = cur.varint()?;
            *digest.exfil.entry(target).or_insert(0) += bytes;
        }
        if !cur.is_empty() {
            // A frame that passed its CRC but has trailing garbage was
            // produced by a different codec version; refuse it.
            return Err(WireError::Truncated);
        }
        Ok((digest, stream.position()))
    }

    fn get_str(&mut self, cur: &mut Cursor<'_>) -> Result<String, WireError> {
        Ok(self.strings.get(cur)?.to_string())
    }
}

/// Serialises digests as a complete stream: header + one frame each.
pub fn write_digest_stream(digests: &[SessionDigest]) -> Vec<u8> {
    let mut out = Vec::new();
    frame::write_header(&mut out, &MAGIC, DIGEST_VERSION);
    let mut encoder = DigestEncoder::new();
    for digest in digests {
        encoder.encode(digest, &mut out);
    }
    out
}

/// Parses a complete digest stream written by [`write_digest_stream`].
///
/// # Errors
///
/// [`WireError::BadVersion`] if the header is not a digest stream
/// (event streams and journals carry their own version bytes), any
/// other [`WireError`] on malformed frames.
pub fn read_digest_stream(buf: &[u8]) -> Result<Vec<SessionDigest>, WireError> {
    frame::read_header(buf, &MAGIC, DIGEST_VERSION..=DIGEST_VERSION)?;
    let mut decoder = DigestDecoder::new();
    let mut pos = HEADER_LEN;
    let mut digests = Vec::new();
    while pos < buf.len() {
        let (digest, used) = decoder.decode(&buf[pos..])?;
        pos += used;
        digests.push(digest);
    }
    Ok(digests)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<SessionDigest> {
        let mut a = SessionDigest::new(3, "bot-a");
        a.events = 40;
        *a.warnings.entry((Severity::High, "check_socket_execve".into())).or_insert(0) += 2;
        a.beacons.insert("c2.example:6667".into());
        a.drops.insert(DropIdentity {
            path: "/tmp/stage2".into(),
            executable: true,
            content: vec!["SOCKET".into()],
        });
        a.exfil.insert("sink.example:81".into(), 700);
        let mut b = SessionDigest::new(9, "bot-b");
        b.events = 12;
        // Repeats a's strings, exercising cross-frame back-references.
        b.beacons.insert("c2.example:6667".into());
        b.exfil.insert("sink.example:81".into(), 600);
        vec![a, b]
    }

    #[test]
    fn digests_round_trip() {
        let digests = sample();
        let stream = write_digest_stream(&digests);
        assert_eq!(read_digest_stream(&stream).unwrap(), digests);
    }

    #[test]
    fn encoding_is_deterministic_and_interns_repeats() {
        let digests = sample();
        assert_eq!(write_digest_stream(&digests), write_digest_stream(&digests));
        let mut encoder = DigestEncoder::new();
        let (mut first, mut second) = (Vec::new(), Vec::new());
        encoder.encode(&digests[0], &mut first);
        encoder.encode(&digests[0], &mut second);
        assert!(
            second.len() < first.len() / 2,
            "repeat encoding should collapse to back-references: {} vs {}",
            second.len(),
            first.len()
        );
    }

    #[test]
    fn event_streams_are_rejected_by_version() {
        let mut buf = Vec::new();
        crate::wire::write_header(&mut buf);
        assert!(matches!(read_digest_stream(&buf), Err(WireError::BadVersion(_))));
    }

    #[test]
    fn corruption_is_caught_per_frame() {
        let mut stream = write_digest_stream(&sample());
        let last = stream.len() - 1;
        stream[last] ^= 0x40;
        let err = read_digest_stream(&stream).unwrap_err();
        assert!(matches!(err, WireError::Crc { .. }), "{err}");
        // Torn tail.
        let torn = &stream[..stream.len() - 3];
        assert!(matches!(
            read_digest_stream(torn),
            Err(WireError::Truncated | WireError::Crc { .. })
        ));
    }
}
