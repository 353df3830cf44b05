//! The serve wire protocol: CRC-framed requests and acks over TCP.
//!
//! A connection opens with the fleet wire header (`HTHW` + version, the
//! same preamble a journal or recorded event stream starts with), which
//! is also how the server tells a protocol client from an HTTP scrape:
//! the first bytes are either [`hth_fleet::wire::MAGIC`] or `GET `.
//!
//! After the preamble, both directions speak the CRC frames of the
//! shared [`frame`](secpert_engine::frame) codec, the same envelope a
//! journal frame has.
//!
//! The first payload byte is a tag. Requests:
//!
//! | tag | request  | payload after the tag                       |
//! |-----|----------|---------------------------------------------|
//! | 1   | Open     | varint session id                           |
//! | 2   | Submit   | varint session id, encoded [`SecpertEvent`]  |
//! | 3   | Flush    | —                                           |
//! | 4   | Close    | varint session id                           |
//! | 5   | Stats    | —                                           |
//! | 6   | Shutdown | —                                           |
//! | 7   | Label    | varint session id, varint length, UTF-8 label |
//!
//! Acks:
//!
//! | tag  | ack   | payload after the tag                          |
//! |------|-------|------------------------------------------------|
//! | 0x80 | Ok    | varint value (warnings raised, for Submit)     |
//! | 0x81 | Err   | varint length, UTF-8 message                   |
//! | 0x82 | Stats | the [`ServeStats`] counters as varints         |
//!
//! Events inside Submit frames use the versioned fleet event codec with
//! *per-connection* interning state ([`EventEncoder`]/[`EventDecoder`]),
//! so a long-lived connection amortises string costs exactly like a
//! journal does. Frames are hard-capped at [`MAX_FRAME_LEN`]; a frame
//! that fails its CRC or arrives truncated poisons only the connection
//! that sent it, never the sessions it was feeding.

use std::io::Read;

use harrier::SecpertEvent;
use hth_fleet::wire::{EventDecoder, EventEncoder, MAX_FRAME_LEN};
use secpert_engine::frame::{put_bytes, put_varint, Cursor, Framing};

use crate::ServeError;

/// Requests and acks are CRC frames, capped like a journal frame.
const FRAMING: Framing = Framing::new(true, MAX_FRAME_LEN);

/// A request frame, decoded.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Create (or touch) a session.
    Open {
        /// Session id.
        session: u64,
    },
    /// Feed one event to a session.
    Submit {
        /// Session id.
        session: u64,
        /// The event.
        event: SecpertEvent,
    },
    /// Barrier: ack only once everything before it is applied.
    Flush,
    /// Retire a session, folding its warnings into the retired set.
    Close {
        /// Session id.
        session: u64,
    },
    /// Ask for the server's counters.
    Stats,
    /// Begin a graceful drain: stop accepting, finish queued work.
    Shutdown,
    /// Bind a program label to a session (shown in fleet digests and
    /// consumed by the correlator's label-diversity rules).
    Label {
        /// Session id.
        session: u64,
        /// The label (last writer wins).
        label: String,
    },
}

/// An ack frame, decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ack {
    /// Success; `value` is request-specific (warnings raised for Submit,
    /// total session warnings for Close, zero otherwise).
    Ok {
        /// Request-specific payload.
        value: u64,
    },
    /// The request failed; the session table is unchanged.
    Err {
        /// Human-readable reason.
        message: String,
    },
    /// Counters in response to [`Request::Stats`].
    Stats(ServeStats),
}

/// Point-in-time server counters, small enough to travel in one frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Sessions currently resident (engine in memory).
    pub sessions_resident: u64,
    /// Sessions known (resident + evicted-but-open).
    pub sessions_open: u64,
    /// Events accepted over all sessions.
    pub events_total: u64,
    /// Warnings raised over all sessions.
    pub warnings_total: u64,
    /// Evictions performed (snapshot written, engine dropped).
    pub evictions: u64,
    /// Resumes served from a snapshot + journal tail.
    pub restores: u64,
    /// Resumes that fell back to a full journal replay (torn or
    /// unreadable snapshot).
    pub fallback_replays: u64,
    /// Bytes of resident engine state, as accounted.
    pub resident_bytes: u64,
    /// Fleet-level warnings from the correlator's latest pass over the
    /// live digests (zero when the table was built without a
    /// correlator configuration).
    pub correlator_warnings: u64,
}

const TAG_OPEN: u8 = 1;
const TAG_SUBMIT: u8 = 2;
const TAG_FLUSH: u8 = 3;
const TAG_CLOSE: u8 = 4;
const TAG_STATS: u8 = 5;
const TAG_SHUTDOWN: u8 = 6;
const TAG_LABEL: u8 = 7;
const TAG_OK: u8 = 0x80;
const TAG_ERR: u8 = 0x81;
const TAG_STATS_ACK: u8 = 0x82;

/// Reads one frame from `stream` into `payload`, replacing its
/// contents. Returns `Ok(false)` on a clean EOF at a frame boundary;
/// mid-frame EOF, an oversized length or a CRC mismatch are errors (the
/// caller drops the connection, losing only whatever was unacked on it).
pub fn read_frame(stream: &mut impl Read, payload: &mut Vec<u8>) -> Result<bool, ServeError> {
    Ok(FRAMING.read_from(stream, payload)?)
}

/// Appends a request to `out` as one frame, ready to write.
pub fn encode_request(req: &Request, encoder: &mut EventEncoder, out: &mut Vec<u8>) {
    FRAMING.write(out, |payload| match req {
        Request::Open { session } => {
            payload.push(TAG_OPEN);
            put_varint(payload, *session);
        }
        Request::Submit { session, event } => {
            payload.push(TAG_SUBMIT);
            put_varint(payload, *session);
            encoder.encode(event, payload);
        }
        Request::Flush => payload.push(TAG_FLUSH),
        Request::Close { session } => {
            payload.push(TAG_CLOSE);
            put_varint(payload, *session);
        }
        Request::Stats => payload.push(TAG_STATS),
        Request::Shutdown => payload.push(TAG_SHUTDOWN),
        Request::Label { session, label } => {
            payload.push(TAG_LABEL);
            put_varint(payload, *session);
            put_bytes(payload, label.as_bytes());
        }
    });
}

/// Decodes a request payload (the bytes inside the frame).
pub fn decode_request(payload: &[u8], decoder: &mut EventDecoder) -> Result<Request, ServeError> {
    let mut cur = Cursor::new(payload);
    let tag = cur.byte().map_err(|_| ServeError::Protocol("empty frame".into()))?;
    let req = match tag {
        TAG_OPEN => Request::Open { session: cur.varint()? },
        TAG_SUBMIT => {
            let session = cur.varint()?;
            let rest = cur.take(cur.remaining())?;
            let (event, used) = decoder.decode(rest)?;
            if used != rest.len() {
                return Err(trailing_bytes());
            }
            Request::Submit { session, event }
        }
        TAG_FLUSH => Request::Flush,
        TAG_CLOSE => Request::Close { session: cur.varint()? },
        TAG_STATS => Request::Stats,
        TAG_SHUTDOWN => Request::Shutdown,
        TAG_LABEL => {
            let session = cur.varint()?;
            let label = std::str::from_utf8(cur.bytes()?)
                .map_err(|_| ServeError::Protocol("label not UTF-8".into()))?
                .to_string();
            Request::Label { session, label }
        }
        other => return Err(ServeError::Protocol(format!("unknown request tag {other:#x}"))),
    };
    if !cur.is_empty() {
        return Err(trailing_bytes());
    }
    Ok(req)
}

fn trailing_bytes() -> ServeError {
    ServeError::Protocol("trailing bytes in request".into())
}

/// Appends an ack to `out` as one frame.
pub fn encode_ack(ack: &Ack, out: &mut Vec<u8>) {
    FRAMING.write(out, |payload| match ack {
        Ack::Ok { value } => {
            payload.push(TAG_OK);
            put_varint(payload, *value);
        }
        Ack::Err { message } => {
            payload.push(TAG_ERR);
            put_bytes(payload, message.as_bytes());
        }
        Ack::Stats(stats) => {
            payload.push(TAG_STATS_ACK);
            for v in stats.as_fields() {
                put_varint(payload, v);
            }
        }
    });
}

/// Decodes an ack payload (the bytes inside the frame).
pub fn decode_ack(payload: &[u8]) -> Result<Ack, ServeError> {
    let mut cur = Cursor::new(payload);
    let tag = cur.byte().map_err(|_| ServeError::Protocol("empty ack".into()))?;
    let ack = match tag {
        TAG_OK => Ack::Ok { value: cur.varint()? },
        TAG_ERR => {
            let message = std::str::from_utf8(cur.bytes()?)
                .map_err(|_| ServeError::Protocol("ack message not UTF-8".into()))?
                .to_string();
            Ack::Err { message }
        }
        TAG_STATS_ACK => {
            let mut fields = [0u64; ServeStats::FIELDS];
            for f in fields.iter_mut() {
                *f = cur.varint()?;
            }
            Ack::Stats(ServeStats::from_fields(fields))
        }
        other => return Err(ServeError::Protocol(format!("unknown ack tag {other:#x}"))),
    };
    if !cur.is_empty() {
        return Err(trailing_bytes());
    }
    Ok(ack)
}

impl ServeStats {
    /// Number of counters carried in a Stats ack.
    pub const FIELDS: usize = 9;

    fn as_fields(&self) -> [u64; ServeStats::FIELDS] {
        [
            self.sessions_resident,
            self.sessions_open,
            self.events_total,
            self.warnings_total,
            self.evictions,
            self.restores,
            self.fallback_replays,
            self.resident_bytes,
            self.correlator_warnings,
        ]
    }

    fn from_fields(f: [u64; ServeStats::FIELDS]) -> ServeStats {
        ServeStats {
            sessions_resident: f[0],
            sessions_open: f[1],
            events_total: f[2],
            warnings_total: f[3],
            evictions: f[4],
            restores: f[5],
            fallback_replays: f[6],
            resident_bytes: f[7],
            correlator_warnings: f[8],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harrier::{Origin, ResourceType, SourceInfo};
    use hth_fleet::WireError;

    fn sample_event(i: u64) -> SecpertEvent {
        SecpertEvent::ResourceAccess {
            pid: 7,
            syscall: "SYS_open",
            resource: SourceInfo::new(ResourceType::File, format!("/tmp/f{i}")),
            origin: Origin::unknown(),
            time: i,
            frequency: 1,
            address: 0x1000 + i as u32,
            proc_count: None,
            proc_rate: None,
            mem_total: None,
            server: None,
        }
    }

    #[test]
    fn requests_round_trip_through_a_stream() {
        let mut enc = EventEncoder::new();
        let requests = vec![
            Request::Open { session: 3 },
            Request::Submit { session: 3, event: sample_event(0) },
            Request::Submit { session: 3, event: sample_event(1) },
            Request::Flush,
            Request::Label { session: 3, label: "pwsafe".into() },
            Request::Close { session: 3 },
            Request::Stats,
            Request::Shutdown,
        ];
        let mut stream = Vec::new();
        for req in &requests {
            encode_request(req, &mut enc, &mut stream);
        }
        let mut dec = EventDecoder::new();
        let mut cursor = std::io::Cursor::new(stream);
        let mut decoded = Vec::new();
        let mut payload = Vec::new();
        while read_frame(&mut cursor, &mut payload).expect("frame") {
            decoded.push(decode_request(&payload, &mut dec).expect("request"));
        }
        assert_eq!(decoded, requests);
    }

    #[test]
    fn acks_round_trip() {
        let stats = ServeStats {
            sessions_resident: 2,
            sessions_open: 5,
            events_total: 100,
            warnings_total: 3,
            evictions: 4,
            restores: 2,
            fallback_replays: 1,
            resident_bytes: 1 << 20,
            correlator_warnings: 2,
        };
        for ack in [
            Ack::Ok { value: 0 },
            Ack::Ok { value: 42 },
            Ack::Err { message: "session table is draining".into() },
            Ack::Stats(stats),
        ] {
            let mut framed = Vec::new();
            encode_ack(&ack, &mut framed);
            let mut cursor = std::io::Cursor::new(framed);
            let mut payload = Vec::new();
            assert!(read_frame(&mut cursor, &mut payload).expect("frame"), "payload");
            assert_eq!(decode_ack(&payload).expect("ack"), ack);
        }
    }

    #[test]
    fn corrupt_and_truncated_frames_are_rejected() {
        let mut enc = EventEncoder::new();
        let mut good = Vec::new();
        encode_request(&Request::Open { session: 1 }, &mut enc, &mut good);
        // Flip a payload bit: CRC mismatch.
        let mut torn = good.clone();
        let last = torn.len() - 1;
        torn[last] ^= 1;
        let mut payload = Vec::new();
        let err = read_frame(&mut std::io::Cursor::new(torn), &mut payload).unwrap_err();
        assert!(matches!(err, ServeError::Wire(WireError::Crc { .. })), "{err:?}");
        // Cut the frame mid-payload: truncated, not clean EOF.
        let cut = &good[..good.len() - 1];
        let err = read_frame(&mut std::io::Cursor::new(cut.to_vec()), &mut payload).unwrap_err();
        assert!(matches!(err, ServeError::Wire(WireError::Truncated)), "{err:?}");
        // Empty stream: clean EOF.
        assert!(!read_frame(&mut std::io::Cursor::new(Vec::new()), &mut payload).expect("eof"));
    }

    #[test]
    fn oversized_frames_are_capped() {
        let mut framed = Vec::new();
        put_varint(&mut framed, MAX_FRAME_LEN + 1);
        framed.extend_from_slice(&[0u8; 4]);
        let err = read_frame(&mut std::io::Cursor::new(framed), &mut Vec::new()).unwrap_err();
        assert!(matches!(err, ServeError::Protocol(_)), "{err:?}");
    }

    #[test]
    fn overlong_frame_lengths_are_rejected() {
        // A tenth varint byte above 1 would shift bits past 64.
        let mut framed = vec![0x80; 9];
        framed.push(0x02);
        let err = read_frame(&mut std::io::Cursor::new(framed), &mut Vec::new()).unwrap_err();
        assert!(matches!(err, ServeError::Wire(WireError::VarintOverflow)), "{err:?}");
    }

    #[test]
    fn hostile_string_lengths_are_errors_not_panics() {
        let mut label = vec![TAG_LABEL, 3];
        put_varint(&mut label, u64::MAX);
        assert!(decode_request(&label, &mut EventDecoder::new()).is_err());
        let mut message = vec![TAG_ERR];
        put_varint(&mut message, u64::MAX);
        assert!(decode_ack(&message).is_err());
    }
}
