//! Append-only event journals: record a live session's event stream
//! once, replay it through any policy offline — and survive the ways
//! real recordings die.
//!
//! A journal is a [`wire`](crate::wire) stream with one extra layer of
//! framing. Three framing versions coexist:
//!
//! * **v1** (`HTHW` + `0x01`) — each event is its varint-encoded length
//!   followed by the payload. Readable forever, but a flipped payload
//!   byte is invisible until the decoder trips over it (or worse,
//!   decodes the wrong event silently).
//! * **v2** (`HTHW` + `0x02`) — each event is a CRC frame of the shared
//!   [`frame`] codec: the varint payload length, a CRC32 of the payload
//!   (4 bytes little-endian), then the payload. Bit rot and torn writes
//!   are *detected*, and [`recover`] distinguishes a clean end of stream
//!   from a torn tail from mid-stream corruption, salvaging every
//!   decodable prefix.
//! * **v3** (`HTHW` + `0x03`, the default) — v2's CRC framing carrying
//!   version-2 *event* payloads (the `bytes` transfer counter that
//!   fleet correlation sums). v1/v2 journals keep decoding forever;
//!   their transfers simply report zero bytes.
//!
//! The string-interning table spans one journal stream — records must
//! be read in order, and nothing after a corrupt frame can be trusted.
//! [`SegmentedJournalWriter`] bounds that blast radius: it rotates to a
//! fresh segment (fresh header, fresh interning table) every
//! `max_segment_bytes`, so a corrupt byte costs at most the rest of its
//! segment, never the rest of the recording.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use harrier::SecpertEvent;
use hth_core::{Secpert, Warning};
use secpert_engine::EngineError;

use secpert_engine::frame::{self, Cursor, FrameError, Framing, HEADER_LEN};

use crate::faults::{FaultPlan, JournalFault};
use crate::wire::{EventDecoder, EventEncoder, WireError, MAGIC, MAX_FRAME_LEN};

/// Journal framing version 1: `[len][payload]`, no checksum.
pub const JOURNAL_V1: u8 = 1;

/// Journal framing version 2: `[len][crc32][payload]`.
pub const JOURNAL_V2: u8 = 2;

/// Journal framing version 3: v2 framing, version-2 event payloads
/// (adds the per-transfer byte counter). The default.
pub const JOURNAL_V3: u8 = 3;

/// The wire *event* version carried by a journal framing version.
fn event_version(journal_version: u8) -> u8 {
    if journal_version >= JOURNAL_V3 {
        2
    } else {
        1
    }
}

/// The frame shape of a journal framing version: v1 frames carry no
/// CRC, later ones do.
fn framing(journal_version: u8) -> Framing {
    Framing::new(journal_version >= JOURNAL_V2, MAX_FRAME_LEN)
}

/// Checks a journal header and returns its framing version.
fn read_journal_header(buf: &[u8]) -> Result<u8, FrameError> {
    frame::read_header(buf, &MAGIC, JOURNAL_V1..=JOURNAL_V3)
}

/// Writes an event journal to any [`Write`] sink.
pub struct JournalWriter<W: Write> {
    sink: W,
    encoder: EventEncoder,
    frame: Vec<u8>,
    events: u64,
    bytes: u64,
    framing: Framing,
    faults: Option<Arc<FaultPlan>>,
    torn: bool,
    injected: Vec<String>,
}

impl<W: Write> JournalWriter<W> {
    /// Starts a v3 (CRC-framed, byte-counting events) journal: writes
    /// the stream header immediately.
    ///
    /// # Errors
    ///
    /// Propagates sink write errors.
    pub fn new(sink: W) -> Result<JournalWriter<W>, WireError> {
        JournalWriter::with_version(sink, JOURNAL_V3)
    }

    /// Starts a journal in the legacy v1 framing (no per-frame CRC).
    /// Exists for compatibility fixtures; new recordings should use
    /// [`JournalWriter::new`].
    ///
    /// # Errors
    ///
    /// Propagates sink write errors.
    pub fn new_v1(sink: W) -> Result<JournalWriter<W>, WireError> {
        JournalWriter::with_version(sink, JOURNAL_V1)
    }

    /// Starts a journal in an explicit framing version (compatibility
    /// fixtures and downgrade paths).
    ///
    /// # Errors
    ///
    /// [`WireError::BadVersion`] for unknown versions, sink write
    /// errors otherwise.
    pub fn with_version(mut sink: W, version: u8) -> Result<JournalWriter<W>, WireError> {
        if !(JOURNAL_V1..=JOURNAL_V3).contains(&version) {
            return Err(WireError::BadVersion(version));
        }
        let mut header = Vec::with_capacity(HEADER_LEN);
        frame::write_header(&mut header, &MAGIC, version);
        sink.write_all(&header)?;
        Ok(JournalWriter {
            sink,
            encoder: EventEncoder::for_version(event_version(version)),
            frame: Vec::new(),
            events: 0,
            bytes: HEADER_LEN as u64,
            framing: framing(version),
            faults: None,
            torn: false,
            injected: Vec::new(),
        })
    }

    /// Arms deterministic fault injection: future appends consult the
    /// plan (by 0-based event index) and may be bit-flipped or torn.
    pub fn set_faults(&mut self, plan: Arc<FaultPlan>) {
        self.faults = Some(plan);
    }

    /// Appends one event.
    ///
    /// # Errors
    ///
    /// Propagates sink write errors.
    pub fn append(&mut self, event: &SecpertEvent) -> Result<(), WireError> {
        let index = self.events;
        self.events += 1;
        if self.torn {
            // A torn write already ended the journal; later appends go
            // nowhere, exactly like a crashed recorder.
            self.injected.push(format!("event {index}: lost after torn write"));
            return Ok(());
        }
        let frame = &mut self.frame;
        frame.clear();
        self.framing.write(frame, |payload| self.encoder.encode(event, payload));

        let fault = self.faults.as_ref().and_then(|p| p.journal_fault(index));
        match fault {
            Some(JournalFault::FlipBit { bit }) => {
                let bit = (bit % (frame.len() as u64 * 8)) as usize;
                frame[bit / 8] ^= 1 << (bit % 8);
                self.injected.push(format!("event {index}: flipped frame bit {bit}"));
            }
            Some(JournalFault::Truncate { keep }) => {
                let keep = keep.min(frame.len().saturating_sub(1));
                frame.truncate(keep);
                self.torn = true;
                self.injected.push(format!("event {index}: torn write after {keep} bytes"));
            }
            None => {}
        }
        self.sink.write_all(frame)?;
        self.bytes += frame.len() as u64;
        Ok(())
    }

    /// Events appended so far (including any lost to injected faults).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Bytes written so far, header included.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Human-readable log of every injected fault, in append order.
    pub fn injected_faults(&self) -> &[String] {
        &self.injected
    }

    /// Flushes and returns the sink.
    ///
    /// # Errors
    ///
    /// Propagates sink flush errors.
    pub fn finish(mut self) -> Result<W, WireError> {
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Reads an event journal (either framing version) from any [`Read`]
/// source.
pub struct JournalReader<R: Read> {
    source: R,
    decoder: EventDecoder,
    frame: Vec<u8>,
    version: u8,
}

impl<R: Read> JournalReader<R> {
    /// Opens a journal: reads and checks the stream header. Accepts v1
    /// and v2 framing.
    ///
    /// # Errors
    ///
    /// [`WireError::BadMagic`] / [`WireError::BadVersion`] for foreign
    /// streams, i/o and truncation errors otherwise.
    pub fn new(mut source: R) -> Result<JournalReader<R>, WireError> {
        let mut header = [0u8; HEADER_LEN];
        source.read_exact(&mut header).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => WireError::Truncated,
            _ => WireError::Io(e),
        })?;
        let version = read_journal_header(&header)?;
        Ok(JournalReader {
            source,
            decoder: EventDecoder::for_version(event_version(version)),
            frame: Vec::new(),
            version,
        })
    }

    /// The journal's framing version (1, 2 or 3).
    pub fn version(&self) -> u8 {
        self.version
    }

    /// Reads the next event; `Ok(None)` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// Truncated frames, CRC mismatches (v2), malformed payloads and
    /// i/o errors.
    pub fn next_event(&mut self) -> Result<Option<SecpertEvent>, WireError> {
        if !framing(self.version).read_from(&mut self.source, &mut self.frame)? {
            return Ok(None);
        }
        let (event, used) = self.decoder.decode(&self.frame)?;
        if used != self.frame.len() {
            // A frame with trailing garbage is as corrupt as a short one.
            return Err(WireError::Truncated);
        }
        Ok(Some(event))
    }
}

impl<R: Read> Iterator for JournalReader<R> {
    type Item = Result<SecpertEvent, WireError>;

    fn next(&mut self) -> Option<Result<SecpertEvent, WireError>> {
        self.next_event().transpose()
    }
}

/// How a recovery scan ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// The journal ended exactly on a frame boundary: nothing lost.
    CleanEof,
    /// The stream ends *inside* a frame — the classic crashed-recorder
    /// shape. Everything before the torn frame is salvaged.
    TornTail,
    /// A complete frame failed its CRC or decode with more bytes behind
    /// it (or a length prefix was itself corrupt): bit rot, not a tear.
    MidStreamCorruption,
    /// The header is missing, foreign, or an unknown version — nothing
    /// salvageable.
    BadHeader,
}

impl std::fmt::Display for RecoveryOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RecoveryOutcome::CleanEof => "clean EOF",
            RecoveryOutcome::TornTail => "torn tail",
            RecoveryOutcome::MidStreamCorruption => "mid-stream corruption",
            RecoveryOutcome::BadHeader => "bad header",
        })
    }
}

/// Exactly what a recovery scan salvaged and what it had to drop.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Framing version from the header (0 if the header was unreadable).
    pub version: u8,
    /// Frames decoded successfully (the salvaged prefix).
    pub frames_ok: u64,
    /// Frames lost: exact for a torn tail (the one torn frame); after
    /// mid-stream corruption it is the failing frame plus a best-effort
    /// length-prefix walk of the remainder (framing can no longer be
    /// fully trusted, bytes_dropped is the exact figure).
    pub frames_dropped: u64,
    /// Bytes consumed by the header and the salvaged frames.
    pub bytes_scanned: usize,
    /// Bytes after the salvage point — everything not replayable.
    pub bytes_dropped: usize,
    /// How the scan ended.
    pub outcome: RecoveryOutcome,
    /// The wire error that ended the scan, if any.
    pub error: Option<String>,
}

impl RecoveryReport {
    /// True when nothing was lost.
    pub fn is_clean(&self) -> bool {
        self.outcome == RecoveryOutcome::CleanEof
    }

    /// One-line human summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}: {} frames salvaged, {} dropped, {} bytes dropped",
            self.outcome, self.frames_ok, self.frames_dropped, self.bytes_dropped
        );
        if let Some(e) = &self.error {
            out.push_str(&format!(" ({e})"));
        }
        out
    }
}

/// Scans a journal byte-for-byte, salvaging every decodable frame from
/// the front and classifying whatever ended the stream. Never fails:
/// the worst input yields zero events and a [`RecoveryOutcome::BadHeader`].
pub fn recover(buf: &[u8]) -> (Vec<SecpertEvent>, RecoveryReport) {
    let mut report = RecoveryReport {
        version: 0,
        frames_ok: 0,
        frames_dropped: 0,
        bytes_scanned: 0,
        bytes_dropped: buf.len(),
        outcome: RecoveryOutcome::BadHeader,
        error: None,
    };
    let version = match read_journal_header(buf) {
        Ok(v) => v,
        Err(e) => {
            report.error = Some(WireError::from(e).to_string());
            return (Vec::new(), report);
        }
    };
    report.version = version;
    let framing = framing(version);
    let mut decoder = EventDecoder::for_version(event_version(version));
    let mut events = Vec::new();
    let mut cur = Cursor::new(buf);
    cur.take(HEADER_LEN).expect("the header was just read");

    let finish = |mut report: RecoveryReport, pos: usize| {
        report.bytes_scanned = pos;
        report.bytes_dropped = buf.len() - pos;
        report
    };

    loop {
        let pos = cur.position();
        if cur.is_empty() {
            report.outcome = RecoveryOutcome::CleanEof;
            return (events, finish(report, pos));
        }
        let failure = match framing.read(&mut cur) {
            Ok(payload) => match decoder.decode(payload) {
                Ok((event, used)) if used == payload.len() => {
                    events.push(event);
                    report.frames_ok += 1;
                    continue;
                }
                Ok(_) => WireError::Truncated,
                Err(e) => e,
            },
            Err(e @ FrameError::Crc { .. }) => e.into(),
            Err(e) => {
                // The frame itself is unreadable: cut short (a torn
                // tail) or a corrupt length prefix.
                report.outcome = if matches!(e, FrameError::Truncated) {
                    RecoveryOutcome::TornTail
                } else {
                    RecoveryOutcome::MidStreamCorruption
                };
                report.frames_dropped = 1;
                report.error = Some(WireError::from(e).to_string());
                return (events, finish(report, pos));
            }
        };
        // A complete frame was present but unusable: corruption, with a
        // best-effort structural walk of what framing remains.
        report.outcome = RecoveryOutcome::MidStreamCorruption;
        report.error = Some(failure.to_string());
        report.frames_dropped = 1 + walk_frames(cur, framing);
        return (events, finish(report, pos));
    }
}

/// Counts structurally plausible frames left in `cur` (nothing is
/// decoded; a CRC mismatch still counts as a frame). Used to estimate
/// losses past a corrupt frame.
fn walk_frames(mut cur: Cursor<'_>, framing: Framing) -> u64 {
    let mut frames = 0;
    while !cur.is_empty() {
        match framing.read(&mut cur) {
            Ok(_) | Err(FrameError::Crc { .. }) => frames += 1,
            Err(_) => return frames + 1, // a torn or unframeable remainder counts once
        }
    }
    frames
}

/// Replay failures: either the journal is bad or the policy is.
#[derive(Debug)]
pub enum ReplayError {
    /// The journal could not be decoded.
    Wire(WireError),
    /// The policy failed while re-processing an event.
    Policy(EngineError),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Wire(e) => write!(f, "journal error: {e}"),
            ReplayError::Policy(e) => write!(f, "policy error: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<WireError> for ReplayError {
    fn from(e: WireError) -> ReplayError {
        ReplayError::Wire(e)
    }
}

impl From<EngineError> for ReplayError {
    fn from(e: EngineError) -> ReplayError {
        ReplayError::Policy(e)
    }
}

/// Replays a journal through a Secpert instance, returning the warnings
/// in event order. The expert system sees exactly the event sequence the
/// live session produced, so a replay through an identically-configured
/// policy reproduces the live warning sequence.
///
/// # Errors
///
/// [`ReplayError`] on journal corruption or policy failures.
pub fn replay<R: Read>(
    mut reader: JournalReader<R>,
    secpert: &mut Secpert,
) -> Result<Vec<Warning>, ReplayError> {
    let mut warnings = Vec::new();
    while let Some(event) = reader.next_event()? {
        warnings.extend(secpert.process_event(&event)?);
    }
    Ok(warnings)
}

/// [`replay`], but decoding up to `batch_size` frames into a reusable
/// [`EventBatch`](crate::EventBatch) and feeding the engine one batch
/// at a time. Results are byte-identical to [`replay`] at every batch
/// size (the engine's batch path funnels through the per-event path);
/// `batch_size <= 1` *is* [`replay`].
///
/// # Errors
///
/// [`ReplayError`] on journal corruption or policy failures.
pub fn replay_batched<R: Read>(
    mut reader: JournalReader<R>,
    secpert: &mut Secpert,
    batch_size: usize,
) -> Result<Vec<Warning>, ReplayError> {
    if batch_size <= 1 {
        return replay(reader, secpert);
    }
    let mut warnings = Vec::new();
    let mut batch = crate::batch::EventBatch::with_capacity(batch_size);
    while batch.refill(&mut reader, batch_size)? > 0 {
        warnings.extend(secpert.process_batch(batch.as_slice())?);
    }
    Ok(warnings)
}

/// Replays whatever [`recover`] salvaged from a (possibly corrupt)
/// journal, returning the warnings plus the recovery report. The
/// journal itself can never make this fail — only the policy can.
///
/// # Errors
///
/// [`ReplayError::Policy`] if the engine fails on a salvaged event.
pub fn replay_repair(
    buf: &[u8],
    secpert: &mut Secpert,
) -> Result<(Vec<Warning>, RecoveryReport), ReplayError> {
    replay_repair_batched(buf, secpert, 1)
}

/// [`replay_repair`], feeding the salvaged events to the engine
/// `batch_size` at a time. Identical results at every batch size.
///
/// # Errors
///
/// [`ReplayError::Policy`] if the engine fails on a salvaged event.
pub fn replay_repair_batched(
    buf: &[u8],
    secpert: &mut Secpert,
    batch_size: usize,
) -> Result<(Vec<Warning>, RecoveryReport), ReplayError> {
    let (events, report) = recover(buf);
    let mut warnings = Vec::new();
    if batch_size <= 1 {
        for event in &events {
            warnings.extend(secpert.process_event(event)?);
        }
    } else {
        for run in events.chunks(batch_size) {
            warnings.extend(secpert.process_batch(run)?);
        }
    }
    Ok((warnings, report))
}

/// A journal split across size-bounded segment files, each a complete
/// self-describing journal (own header, own interning table). Rotation
/// bounds the blast radius of corruption: segments after a bad one stay
/// fully replayable.
pub struct SegmentedJournalWriter {
    base: PathBuf,
    max_segment_bytes: u64,
    current: JournalWriter<std::io::BufWriter<std::fs::File>>,
    segment: u32,
    segment_events: u64,
    total_events: u64,
    faults: Option<Arc<FaultPlan>>,
}

/// The path of segment `index` for a journal base path.
pub fn segment_path(base: &Path, index: u32) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(format!(".{index:03}"));
    PathBuf::from(name)
}

/// Every existing segment of a journal base path, in order.
pub fn segment_paths(base: &Path) -> Vec<PathBuf> {
    let mut paths = Vec::new();
    for index in 0..u32::MAX {
        let path = segment_path(base, index);
        if !path.exists() {
            break;
        }
        paths.push(path);
    }
    paths
}

impl SegmentedJournalWriter {
    /// Creates `base.000` and starts writing; rotates whenever the
    /// current segment exceeds `max_segment_bytes`.
    ///
    /// # Errors
    ///
    /// File creation and write errors.
    pub fn create(
        base: &Path,
        max_segment_bytes: u64,
    ) -> Result<SegmentedJournalWriter, WireError> {
        let current = Self::open_segment(base, 0)?;
        Ok(SegmentedJournalWriter {
            base: base.to_path_buf(),
            max_segment_bytes: max_segment_bytes.max(HEADER_LEN as u64 + 1),
            current,
            segment: 0,
            segment_events: 0,
            total_events: 0,
            faults: None,
        })
    }

    fn open_segment(
        base: &Path,
        index: u32,
    ) -> Result<JournalWriter<std::io::BufWriter<std::fs::File>>, WireError> {
        let file = std::fs::File::create(segment_path(base, index))?;
        JournalWriter::new(std::io::BufWriter::new(file))
    }

    /// Arms fault injection on the *current and future* segments.
    /// Fault indices are per-segment (each segment writer counts its
    /// own appends from zero).
    pub fn set_faults(&mut self, plan: Arc<FaultPlan>) {
        self.current.set_faults(Arc::clone(&plan));
        self.faults = Some(plan);
    }

    /// Appends one event, rotating first if the current segment is full.
    ///
    /// # Errors
    ///
    /// File rotation and write errors.
    pub fn append(&mut self, event: &SecpertEvent) -> Result<(), WireError> {
        if self.segment_events > 0 && self.current.bytes() >= self.max_segment_bytes {
            let old = std::mem::replace(
                &mut self.current,
                Self::open_segment(&self.base, self.segment + 1)?,
            );
            old.finish()?;
            self.segment += 1;
            self.segment_events = 0;
            if let Some(plan) = &self.faults {
                self.current.set_faults(Arc::clone(plan));
            }
        }
        self.current.append(event)?;
        self.segment_events += 1;
        self.total_events += 1;
        Ok(())
    }

    /// Total events appended across all segments.
    pub fn events(&self) -> u64 {
        self.total_events
    }

    /// Segments written so far (at least 1).
    pub fn segments(&self) -> u32 {
        self.segment + 1
    }

    /// Flushes and closes the last segment.
    ///
    /// # Errors
    ///
    /// Propagates flush errors.
    pub fn finish(self) -> Result<(), WireError> {
        self.current.finish()?;
        Ok(())
    }
}

/// Replays every segment of a segmented journal in order through one
/// Secpert. Strict: any corruption in any segment is an error (use
/// [`recover_segments`] to salvage instead).
///
/// # Errors
///
/// [`ReplayError`] on missing segments, corruption, or policy failures.
pub fn replay_segments(base: &Path, secpert: &mut Secpert) -> Result<Vec<Warning>, ReplayError> {
    replay_segments_batched(base, secpert, 1)
}

/// [`replay_segments`] with the batched decode path: each segment is
/// replayed through [`replay_batched`], so a batch never spans a
/// segment boundary (segments have independent interning tables).
/// Byte-identical to [`replay_segments`] at every batch size.
///
/// # Errors
///
/// [`ReplayError`] on missing segments, corruption, or policy failures.
pub fn replay_segments_batched(
    base: &Path,
    secpert: &mut Secpert,
    batch_size: usize,
) -> Result<Vec<Warning>, ReplayError> {
    let mut warnings = Vec::new();
    for path in segment_paths(base) {
        let file = std::fs::File::open(&path).map_err(WireError::Io)?;
        let reader = JournalReader::new(std::io::BufReader::new(file))?;
        warnings.extend(replay_batched(reader, secpert, batch_size)?);
    }
    Ok(warnings)
}

/// Recovers every segment of a segmented journal independently: a
/// corrupt segment loses only its own undecodable suffix — later
/// segments have their own headers and interning tables, so the scan
/// continues through them at full fidelity.
///
/// # Errors
///
/// Only i/o errors reading segment files; corruption is reported, not
/// raised.
pub fn recover_segments(
    base: &Path,
) -> Result<(Vec<SecpertEvent>, Vec<RecoveryReport>), std::io::Error> {
    let mut events = Vec::new();
    let mut reports = Vec::new();
    for path in segment_paths(base) {
        let bytes = std::fs::read(&path)?;
        let (segment_events, report) = recover(&bytes);
        events.extend(segment_events);
        reports.push(report);
    }
    Ok((events, reports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use harrier::{Origin, ResourceType, SourceInfo};

    fn event(i: u64) -> SecpertEvent {
        SecpertEvent::ResourceAccess {
            pid: 1,
            syscall: "SYS_open",
            resource: SourceInfo::new(ResourceType::File, format!("/tmp/f{}", i % 3)),
            origin: Origin::unknown(),
            time: i,
            frequency: 1,
            address: 0,
            proc_count: None,
            proc_rate: None,
            mem_total: None,
            server: None,
        }
    }

    fn journal_of(n: u64) -> Vec<u8> {
        let mut writer = JournalWriter::new(Vec::new()).unwrap();
        for i in 0..n {
            writer.append(&event(i)).unwrap();
        }
        writer.finish().unwrap()
    }

    #[test]
    fn write_read_round_trip() {
        let mut writer = JournalWriter::new(Vec::new()).unwrap();
        let events: Vec<SecpertEvent> = (0..10).map(event).collect();
        for e in &events {
            writer.append(e).unwrap();
        }
        assert_eq!(writer.events(), 10);
        let bytes = writer.finish().unwrap();
        let reader = JournalReader::new(&bytes[..]).unwrap();
        assert_eq!(reader.version(), JOURNAL_V3);
        let decoded: Result<Vec<SecpertEvent>, WireError> = reader.collect();
        assert_eq!(decoded.unwrap(), events);
    }

    fn transfer(bytes: u64) -> SecpertEvent {
        SecpertEvent::DataTransfer {
            pid: 1,
            syscall: "SYS_send",
            data_sources: vec![SourceInfo::new(ResourceType::File, "/etc/passwd")],
            data_origin: Origin::unknown(),
            target: SourceInfo::new(ResourceType::Socket, "10.0.0.1:80"),
            target_origin: Origin::unknown(),
            time: 1,
            frequency: 1,
            address: 0,
            executable_content: false,
            server: None,
            bytes,
        }
    }

    #[test]
    fn v3_round_trips_transfer_bytes() {
        let mut writer = JournalWriter::new(Vec::new()).unwrap();
        writer.append(&transfer(4096)).unwrap();
        let bytes = writer.finish().unwrap();
        assert_eq!(bytes[4], JOURNAL_V3);
        let decoded: Vec<SecpertEvent> =
            JournalReader::new(&bytes[..]).unwrap().map(Result::unwrap).collect();
        assert_eq!(decoded, vec![transfer(4096)]);
    }

    #[test]
    fn v2_journal_decodes_transfers_with_zero_bytes() {
        let mut writer = JournalWriter::with_version(Vec::new(), JOURNAL_V2).unwrap();
        writer.append(&transfer(4096)).unwrap();
        let bytes = writer.finish().unwrap();
        let decoded: Vec<SecpertEvent> =
            JournalReader::new(&bytes[..]).unwrap().map(Result::unwrap).collect();
        assert_eq!(decoded, vec![transfer(0)], "v2 event payloads predate the counter");
    }

    #[test]
    fn unknown_journal_version_is_rejected_at_write_time() {
        assert!(matches!(
            JournalWriter::with_version(Vec::new(), 9),
            Err(WireError::BadVersion(9))
        ));
    }

    #[test]
    fn v1_write_read_round_trip() {
        let mut writer = JournalWriter::new_v1(Vec::new()).unwrap();
        let events: Vec<SecpertEvent> = (0..10).map(event).collect();
        for e in &events {
            writer.append(e).unwrap();
        }
        let bytes = writer.finish().unwrap();
        assert_eq!(bytes[4], JOURNAL_V1);
        let reader = JournalReader::new(&bytes[..]).unwrap();
        assert_eq!(reader.version(), JOURNAL_V1);
        let decoded: Result<Vec<SecpertEvent>, WireError> = reader.collect();
        assert_eq!(decoded.unwrap(), events);
    }

    #[test]
    fn truncated_tail_is_an_error_not_a_clean_end() {
        let bytes = journal_of(2);
        let mut reader = JournalReader::new(&bytes[..bytes.len() - 1]).unwrap();
        assert!(reader.next_event().unwrap().is_some());
        assert!(matches!(reader.next_event(), Err(WireError::Truncated)));
    }

    #[test]
    fn flipped_payload_bit_fails_the_crc() {
        let mut bytes = journal_of(2);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        let mut reader = JournalReader::new(&bytes[..]).unwrap();
        assert!(reader.next_event().unwrap().is_some());
        assert!(matches!(reader.next_event(), Err(WireError::Crc { .. })));
    }

    #[test]
    fn absurd_frame_length_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        frame::write_header(&mut bytes, &MAGIC, JOURNAL_V2);
        frame::put_varint(&mut bytes, u64::MAX >> 1); // claimed frame of 2^63 bytes
        let mut reader = JournalReader::new(&bytes[..]).unwrap();
        assert!(matches!(reader.next_event(), Err(WireError::FrameTooLarge(_))));
    }

    #[test]
    fn empty_journal_reads_cleanly() {
        let writer = JournalWriter::new(Vec::new()).unwrap();
        let bytes = writer.finish().unwrap();
        let mut reader = JournalReader::new(&bytes[..]).unwrap();
        assert!(reader.next_event().unwrap().is_none());
    }

    #[test]
    fn foreign_stream_is_rejected() {
        assert!(matches!(JournalReader::new(&b"ELF\x7f..."[..]), Err(WireError::BadMagic(_))));
        assert!(matches!(JournalReader::new(&b"HT"[..]), Err(WireError::Truncated)));
        assert!(matches!(JournalReader::new(&b"HTHW\x63.."[..]), Err(WireError::BadVersion(0x63))));
    }

    #[test]
    fn recover_clean_journal_is_lossless() {
        let bytes = journal_of(5);
        let (events_out, report) = recover(&bytes);
        assert_eq!(events_out.len(), 5);
        assert_eq!(report.outcome, RecoveryOutcome::CleanEof);
        assert!(report.is_clean());
        assert_eq!(report.frames_ok, 5);
        assert_eq!(report.frames_dropped, 0);
        assert_eq!(report.bytes_dropped, 0);
        assert_eq!(report.bytes_scanned, bytes.len());
    }

    #[test]
    fn recover_classifies_torn_tail() {
        let bytes = journal_of(4);
        let cut = bytes.len() - 3;
        let (events_out, report) = recover(&bytes[..cut]);
        assert_eq!(events_out.len(), 3);
        assert_eq!(report.outcome, RecoveryOutcome::TornTail);
        assert_eq!(report.frames_ok, 3);
        assert_eq!(report.frames_dropped, 1);
        assert_eq!(report.bytes_scanned + report.bytes_dropped, cut);
    }

    #[test]
    fn recover_classifies_mid_stream_corruption() {
        let plan = Arc::new(FaultPlan::new().flip_bit(1, 60));
        let mut writer = JournalWriter::new(Vec::new()).unwrap();
        writer.set_faults(plan);
        for i in 0..5 {
            writer.append(&event(i)).unwrap();
        }
        assert_eq!(writer.injected_faults().len(), 1);
        let bytes = writer.finish().unwrap();
        let (events_out, report) = recover(&bytes);
        assert_eq!(events_out.len(), 1, "only the prefix before the flip is trustworthy");
        assert_eq!(report.outcome, RecoveryOutcome::MidStreamCorruption);
        assert_eq!(report.frames_ok, 1);
        assert_eq!(report.frames_dropped, 4, "the corrupt frame plus the 3 framed behind it");
        assert!(report.bytes_dropped > 0);
    }

    #[test]
    fn recover_classifies_bad_header() {
        let (events_out, report) = recover(b"not a journal at all");
        assert!(events_out.is_empty());
        assert_eq!(report.outcome, RecoveryOutcome::BadHeader);
        assert_eq!(report.bytes_dropped, 20);
        let (_, short) = recover(b"HT");
        assert_eq!(short.outcome, RecoveryOutcome::BadHeader);
    }

    #[test]
    fn injected_tear_ends_the_journal() {
        let plan = Arc::new(FaultPlan::new().truncate(2, 4));
        let mut writer = JournalWriter::new(Vec::new()).unwrap();
        writer.set_faults(plan);
        for i in 0..6 {
            writer.append(&event(i)).unwrap();
        }
        assert_eq!(writer.events(), 6);
        assert_eq!(writer.injected_faults().len(), 4, "the tear plus 3 lost appends");
        let bytes = writer.finish().unwrap();
        let (events_out, report) = recover(&bytes);
        assert_eq!(events_out.len(), 2);
        assert_eq!(report.outcome, RecoveryOutcome::TornTail);
    }

    #[test]
    fn segments_rotate_and_replay_in_order() {
        let dir = std::env::temp_dir().join("hth-journal-seg-test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("seg.hthj");
        for path in segment_paths(&base) {
            std::fs::remove_file(path).unwrap();
        }
        let mut writer = SegmentedJournalWriter::create(&base, 64).unwrap();
        let events: Vec<SecpertEvent> = (0..20).map(event).collect();
        for e in &events {
            writer.append(e).unwrap();
        }
        assert_eq!(writer.events(), 20);
        let segments = writer.segments();
        assert!(segments > 1, "64-byte segments must rotate, got {segments}");
        writer.finish().unwrap();
        assert_eq!(segment_paths(&base).len() as u32, segments);

        let (recovered, reports) = recover_segments(&base).unwrap();
        assert_eq!(recovered, events);
        assert!(reports.iter().all(RecoveryReport::is_clean));
    }

    #[test]
    fn corrupt_segment_loses_only_its_own_suffix() {
        let dir = std::env::temp_dir().join("hth-journal-seg-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("seg.hthj");
        for path in segment_paths(&base) {
            std::fs::remove_file(path).unwrap();
        }
        let mut writer = SegmentedJournalWriter::create(&base, 64).unwrap();
        let events: Vec<SecpertEvent> = (0..20).map(event).collect();
        for e in &events {
            writer.append(e).unwrap();
        }
        let segments = writer.segments();
        assert!(segments >= 3, "need at least 3 segments, got {segments}");
        writer.finish().unwrap();

        // Flip a byte in the middle of segment 1's frame area.
        let victim = segment_path(&base, 1);
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();

        let (recovered, reports) = recover_segments(&base).unwrap();
        assert!(recovered.len() < events.len(), "something was lost");
        assert!(!reports[1].is_clean());
        assert!(reports[0].is_clean() && reports[2].is_clean(), "other segments untouched");
        // Every recovered event is a true prefix-of-segment event, in
        // order: the salvage is a subsequence of the original stream.
        let mut it = events.iter();
        for r in &recovered {
            assert!(it.any(|e| e == r), "recovered event not in original order");
        }
    }
}
