//! The byte-level codec every HTH binary format is built from: LEB128
//! varints, order-dependent string interning, a `magic + version`
//! stream header, and length-prefixed frames with an optional CRC32.
//!
//! Four formats use it: event journals, the `HTHS` engine snapshot, the
//! serve request/ack protocol and the fleet digest stream. A frame is
//!
//! ```text
//! [varint payload_len] [crc32(payload) LE u32, when the format has one] [payload]
//! ```
//!
//! Whether a frame carries a CRC and how long it may be are properties
//! of the format and its version (see [`Framing`]), never of a caller's
//! setting. Every reader is total: malformed input yields a
//! [`FrameError`], never a panic, and no length claim above the
//! format's cap causes an allocation.

use std::collections::HashMap;
use std::fmt;
use std::io::Read;
use std::ops::RangeInclusive;
use std::sync::Arc;

/// Why framed bytes could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// The stream does not start with the format's magic.
    BadMagic([u8; 4]),
    /// The header's version byte is outside the format's range.
    BadVersion(u8),
    /// The input ended inside a value.
    Truncated,
    /// A varint ran past 64 bits.
    VarintOverflow,
    /// A frame length exceeds the format's cap.
    TooLarge(u64),
    /// A frame failed its CRC32 check.
    Crc {
        /// Checksum stored in the frame.
        stored: u32,
        /// Checksum computed over the payload actually read.
        computed: u32,
    },
    /// A string back-reference pointed outside the interning table.
    BadStringRef(u64),
    /// An inline string was not valid UTF-8.
    Utf8(std::str::Utf8Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported version {v}"),
            FrameError::Truncated => f.write_str("input truncated mid-value"),
            FrameError::VarintOverflow => f.write_str("varint longer than 64 bits"),
            FrameError::TooLarge(len) => write!(f, "frame length {len} exceeds the format's cap"),
            FrameError::Crc { stored, computed } => {
                write!(f, "frame CRC mismatch (stored {stored:#010x}, computed {computed:#010x})")
            }
            FrameError::BadStringRef(i) => write!(f, "string back-reference {i} out of range"),
            FrameError::Utf8(e) => write!(f, "string is not UTF-8: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE 802.3 polynomial) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    !crc
}

/// The LEB128 encoding of `v`: the bytes and how many of them are used.
#[inline]
fn varint_bytes(mut v: u64) -> ([u8; 10], usize) {
    let mut bytes = [0u8; 10];
    let mut n = 0;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            bytes[n] = byte;
            return (bytes, n + 1);
        }
        bytes[n] = byte | 0x80;
        n += 1;
    }
}

/// Appends `v` as an LEB128 varint (7 bits per byte, high bit set on
/// every byte but the last).
#[inline]
pub fn put_varint(out: &mut Vec<u8>, v: u64) {
    let (bytes, n) = varint_bytes(v);
    out.extend_from_slice(&bytes[..n]);
}

/// Appends `bytes` prefixed with their length as a varint.
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Folds one varint byte into `value`; `Some` once the varint is
/// complete.
#[inline]
fn varint_step(value: &mut u64, shift: &mut u32, byte: u8) -> Result<Option<u64>, FrameError> {
    if *shift >= 64 || (*shift == 63 && byte > 1) {
        return Err(FrameError::VarintOverflow);
    }
    *value |= u64::from(byte & 0x7f) << *shift;
    if byte & 0x80 == 0 {
        return Ok(Some(*value));
    }
    *shift += 7;
    Ok(None)
}

/// A bounds-checked cursor over the undecoded remainder of a buffer.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] at the end of the buffer.
    #[inline]
    pub fn byte(&mut self) -> Result<u8, FrameError> {
        let b = *self.buf.get(self.pos).ok_or(FrameError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] when fewer than `n` bytes remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(FrameError::Truncated)?;
        self.pos = end;
        Ok(bytes)
    }

    /// Reads exactly `N` raw bytes as an array.
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] when fewer than `N` bytes remain.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        Ok(self.take(N)?.try_into().expect("take(N) yields exactly N bytes"))
    }

    /// Reads an LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] on short input,
    /// [`FrameError::VarintOverflow`] past 64 bits.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, FrameError> {
        let (mut value, mut shift) = (0, 0);
        loop {
            if let Some(v) = varint_step(&mut value, &mut shift, self.byte()?)? {
                return Ok(v);
            }
        }
    }

    /// Reads a [`put_bytes`] field: a varint length, then that many bytes.
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] when the length claims more bytes than
    /// remain, varint errors otherwise.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], FrameError> {
        let len = self.varint()?;
        self.take(usize::try_from(len).map_err(|_| FrameError::Truncated)?)
    }
}

/// Reads a varint from `src` a byte at a time, so nothing past it is
/// consumed. `None` when the stream ends cleanly before the first byte.
fn read_varint(src: &mut impl Read) -> Result<Option<u64>, FrameError> {
    let (mut value, mut shift) = (0, 0);
    loop {
        let mut byte = [0u8; 1];
        match src.read(&mut byte) {
            Ok(0) if shift == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
        if let Some(v) = varint_step(&mut value, &mut shift, byte[0])? {
            return Ok(Some(v));
        }
    }
}

fn read_exact(src: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameError> {
    src.read_exact(buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => FrameError::Truncated,
        _ => FrameError::Io(e),
    })
}

/// Size of a stream header: four magic bytes and a version byte.
pub const HEADER_LEN: usize = 5;

/// Appends a stream header.
pub fn write_header(out: &mut Vec<u8>, magic: &[u8; 4], version: u8) {
    out.extend_from_slice(magic);
    out.push(version);
}

/// Checks the stream header at the front of `buf` and returns its
/// version byte.
///
/// # Errors
///
/// [`FrameError::Truncated`] on short input, [`FrameError::BadMagic`]
/// on a foreign stream, [`FrameError::BadVersion`] when the version is
/// outside `versions`.
pub fn read_header(
    buf: &[u8],
    magic: &[u8; 4],
    versions: RangeInclusive<u8>,
) -> Result<u8, FrameError> {
    let header = buf.get(..HEADER_LEN).ok_or(FrameError::Truncated)?;
    if header[..4] != magic[..] {
        return Err(FrameError::BadMagic([header[0], header[1], header[2], header[3]]));
    }
    if !versions.contains(&header[4]) {
        return Err(FrameError::BadVersion(header[4]));
    }
    Ok(header[4])
}

/// Order-dependent string interning, encoder side: the first occurrence
/// of a string is written inline (`0`, then its [`put_bytes`] field) and
/// takes the next table index; later occurrences write `index + 1`.
#[derive(Debug, Default)]
pub struct Interner {
    known: HashMap<Box<str>, u64>,
}

impl Interner {
    /// Appends `s`, inline or as a back-reference.
    pub fn put(&mut self, out: &mut Vec<u8>, s: &str) {
        if let Some(&idx) = self.known.get(s) {
            put_varint(out, idx + 1);
            return;
        }
        put_varint(out, 0);
        put_bytes(out, s.as_bytes());
        self.known.insert(s.into(), self.known.len() as u64);
    }
}

/// The decoder side of [`Interner`]: grows the same table in the same
/// order, so a stream must be decoded in the order it was written.
#[derive(Debug, Default)]
pub struct StringTable {
    strings: Vec<Arc<str>>,
}

impl StringTable {
    /// Reads one interned string.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadStringRef`] for a back-reference outside the
    /// table, [`FrameError::Utf8`] for an inline string that is not
    /// UTF-8, cursor errors otherwise.
    pub fn get(&mut self, cur: &mut Cursor<'_>) -> Result<&Arc<str>, FrameError> {
        let marker = cur.varint()?;
        let idx = match marker.checked_sub(1) {
            Some(idx) => idx,
            None => {
                let text = std::str::from_utf8(cur.bytes()?).map_err(FrameError::Utf8)?;
                self.strings.push(text.into());
                self.strings.len() as u64 - 1
            }
        };
        usize::try_from(idx)
            .ok()
            .and_then(|i| self.strings.get(i))
            .ok_or(FrameError::BadStringRef(idx))
    }
}

/// A format's frame shape: whether frames carry a CRC32 and the largest
/// payload a length prefix may claim.
#[derive(Clone, Copy, Debug)]
pub struct Framing {
    crc: bool,
    max_len: u64,
}

impl Framing {
    /// Frames with (`crc`) or without a checksum, capped at `max_len`
    /// payload bytes. A format that reads frames from a stream must cap
    /// them: the reader allocates up to the cap before the bytes arrive.
    pub const fn new(crc: bool, max_len: u64) -> Framing {
        Framing { crc, max_len }
    }

    /// Appends one frame whose payload `encode` writes. The payload is
    /// encoded in place and moved up behind its header, so framing
    /// costs no allocation beyond `out`'s own growth.
    pub fn write(&self, out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
        let start = out.len();
        encode(out);
        let len = out.len() - start;
        let (prefix, n) = varint_bytes(len as u64);
        let crc = self.crc.then(|| crc32(&out[start..]).to_le_bytes());
        let head = n + crc.map_or(0, |c| c.len());
        out.resize(start + head + len, 0);
        out.copy_within(start..start + len, start + head);
        out[start..start + n].copy_from_slice(&prefix[..n]);
        if let Some(crc) = crc {
            out[start + n..start + head].copy_from_slice(&crc);
        }
    }

    /// Reads one frame from `cur` and returns its payload. On a CRC
    /// mismatch the cursor has already moved past the whole frame.
    ///
    /// # Errors
    ///
    /// [`FrameError::TooLarge`] above the cap, [`FrameError::Crc`] on a
    /// checksum mismatch, cursor errors otherwise.
    pub fn read<'a>(&self, cur: &mut Cursor<'a>) -> Result<&'a [u8], FrameError> {
        let len = cur.varint()?;
        if len > self.max_len {
            return Err(FrameError::TooLarge(len));
        }
        let stored = if self.crc { Some(u32::from_le_bytes(cur.array()?)) } else { None };
        let payload = cur.take(usize::try_from(len).map_err(|_| FrameError::Truncated)?)?;
        check_crc(stored, payload)?;
        Ok(payload)
    }

    /// Reads one frame from `src` into `payload` (replacing its
    /// contents). `Ok(false)` on a clean end of stream at a frame
    /// boundary; an end of stream inside a frame is
    /// [`FrameError::Truncated`]. Interrupted reads are retried.
    ///
    /// # Errors
    ///
    /// As [`Framing::read`], plus [`FrameError::Io`].
    pub fn read_from(
        &self,
        src: &mut impl Read,
        payload: &mut Vec<u8>,
    ) -> Result<bool, FrameError> {
        let Some(len) = read_varint(src)? else { return Ok(false) };
        if len > self.max_len {
            return Err(FrameError::TooLarge(len));
        }
        let stored = if self.crc {
            let mut crc = [0u8; 4];
            read_exact(src, &mut crc)?;
            Some(u32::from_le_bytes(crc))
        } else {
            None
        };
        payload.resize(usize::try_from(len).map_err(|_| FrameError::TooLarge(len))?, 0);
        read_exact(src, payload)?;
        check_crc(stored, payload)?;
        Ok(true)
    }
}

fn check_crc(stored: Option<u32>, payload: &[u8]) -> Result<(), FrameError> {
    let Some(stored) = stored else { return Ok(()) };
    let computed = crc32(payload);
    if computed != stored {
        return Err(FrameError::Crc { stored, computed });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const CRC: Framing = Framing::new(true, 1 << 20);

    #[test]
    fn crc32_known_answers() {
        // The IEEE 802.3 check value, plus the empty-input identity.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"), "single-bit change must move the checksum");
    }

    #[test]
    fn varints_round_trip_at_the_edges() {
        for v in [0, 1, 127, 128, 300, 1 << 35, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut cur = Cursor::new(&buf);
            assert_eq!(cur.varint().unwrap(), v);
            assert!(cur.is_empty());
            let mut src = &buf[..];
            assert_eq!(read_varint(&mut src).unwrap(), Some(v));
        }
    }

    #[test]
    fn overlong_varints_are_rejected_by_both_readers() {
        let mut tenth_high = vec![0x80; 9];
        tenth_high.push(0x02);
        for bad in [tenth_high, vec![0xff; 11]] {
            assert!(matches!(Cursor::new(&bad).varint(), Err(FrameError::VarintOverflow)));
            let mut src = &bad[..];
            assert!(matches!(read_varint(&mut src), Err(FrameError::VarintOverflow)));
        }
    }

    #[test]
    fn stream_varint_distinguishes_clean_end_from_truncation() {
        assert!(read_varint(&mut &[][..]).unwrap().is_none());
        assert!(matches!(read_varint(&mut &[0x80][..]), Err(FrameError::Truncated)));
    }

    #[test]
    fn interrupted_reads_are_retried() {
        struct Flaky<'a> {
            inner: &'a [u8],
            interrupt: bool,
        }
        impl Read for Flaky<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.interrupt = !self.interrupt;
                if self.interrupt {
                    return Err(std::io::ErrorKind::Interrupted.into());
                }
                self.inner.read(buf)
            }
        }
        let mut framed = Vec::new();
        CRC.write(&mut framed, |p| put_varint(p, 1 << 40));
        let mut src = Flaky { inner: &framed, interrupt: false };
        let mut payload = Vec::new();
        assert!(CRC.read_from(&mut src, &mut payload).unwrap());
        assert_eq!(Cursor::new(&payload).varint().unwrap(), 1 << 40);
    }

    #[test]
    fn frames_round_trip_with_and_without_crc() {
        for framing in [CRC, Framing::new(false, 1 << 20)] {
            let mut out = b"prefix".to_vec();
            framing.write(&mut out, |p| p.extend_from_slice(&[7u8; 200]));
            framing.write(&mut out, |_| {});
            let mut cur = Cursor::new(&out);
            cur.take(6).unwrap();
            assert_eq!(framing.read(&mut cur).unwrap(), &[7u8; 200][..]);
            assert_eq!(framing.read(&mut cur).unwrap(), &[] as &[u8]);
            assert!(cur.is_empty());

            let mut src = &out[6..];
            let mut payload = Vec::new();
            assert!(framing.read_from(&mut src, &mut payload).unwrap());
            assert_eq!(payload, [7u8; 200]);
            assert!(framing.read_from(&mut src, &mut payload).unwrap());
            assert!(payload.is_empty());
            assert!(!framing.read_from(&mut src, &mut payload).unwrap());
        }
    }

    #[test]
    fn frame_layout_is_length_crc_payload() {
        let mut out = Vec::new();
        CRC.write(&mut out, |p| p.extend_from_slice(b"abc"));
        let mut expected = vec![3];
        expected.extend_from_slice(&crc32(b"abc").to_le_bytes());
        expected.extend_from_slice(b"abc");
        assert_eq!(out, expected);
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let mut out = Vec::new();
        CRC.write(&mut out, |p| p.extend_from_slice(b"payload"));
        let mut flipped = out.clone();
        *flipped.last_mut().unwrap() ^= 1;
        let mut cur = Cursor::new(&flipped);
        assert!(matches!(CRC.read(&mut cur), Err(FrameError::Crc { .. })));
        assert!(cur.is_empty(), "a CRC failure leaves the cursor past the frame");
        assert!(matches!(CRC.read(&mut Cursor::new(&out[..5])), Err(FrameError::Truncated)));
        let mut huge = Vec::new();
        put_varint(&mut huge, u64::MAX);
        assert!(matches!(CRC.read(&mut Cursor::new(&huge)), Err(FrameError::TooLarge(_))));
        let mut payload = Vec::new();
        assert!(matches!(
            CRC.read_from(&mut &huge[..], &mut payload),
            Err(FrameError::TooLarge(_))
        ));
        assert_eq!(payload.capacity(), 0, "no allocation for a length above the cap");
    }

    #[test]
    fn headers_check_magic_and_version_range() {
        let mut out = Vec::new();
        write_header(&mut out, b"HTHW", 2);
        assert_eq!(read_header(&out, b"HTHW", 1..=3).unwrap(), 2);
        assert!(matches!(read_header(&out, b"HTHS", 1..=3), Err(FrameError::BadMagic(_))));
        assert!(matches!(read_header(&out, b"HTHW", 3..=3), Err(FrameError::BadVersion(2))));
        assert!(matches!(read_header(b"HTHW\x00", b"HTHW", 1..=2), Err(FrameError::BadVersion(0))));
        assert!(matches!(read_header(b"HTH", b"HTHW", 1..=2), Err(FrameError::Truncated)));
    }

    #[test]
    fn interning_round_trips_and_rejects_bad_references() {
        let mut interner = Interner::default();
        let mut out = Vec::new();
        for s in ["a", "bé", "a", "", "bé"] {
            interner.put(&mut out, s);
        }
        let mut table = StringTable::default();
        let mut cur = Cursor::new(&out);
        let decoded: Vec<String> =
            (0..5).map(|_| table.get(&mut cur).unwrap().to_string()).collect();
        assert_eq!(decoded, ["a", "bé", "a", "", "bé"]);
        assert!(cur.is_empty());

        let mut cur = Cursor::new(&[9]);
        assert!(matches!(StringTable::default().get(&mut cur), Err(FrameError::BadStringRef(8))));
        let mut cur = Cursor::new(&[0, 1, 0xff]);
        assert!(matches!(StringTable::default().get(&mut cur), Err(FrameError::Utf8(_))));
        let mut huge = vec![0];
        put_varint(&mut huge, u64::MAX);
        let mut cur = Cursor::new(&huge);
        assert!(matches!(StringTable::default().get(&mut cur), Err(FrameError::Truncated)));
    }
}
