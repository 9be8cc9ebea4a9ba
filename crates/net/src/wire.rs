//! Length-prefixed binary framing for the transport plane.
//!
//! Every RPC (request or response) travels as one **frame**:
//!
//! ```text
//! offset  size  field
//! 0       2     magic 0xEC 0x1F
//! 2       1     dir   (0 = request, 1 = response)
//! 3       1     kind  (message discriminant, see `rpc`)
//! 4       8     correlation id, u64 LE
//! 12      4     body length, u32 LE (capped at MAX_BODY)
//! 16      N     body
//! ```
//!
//! The codec is hand-rolled and total: any byte sequence either decodes
//! or yields a typed [`CodecError`] — it never panics and never reads
//! past the declared length. [`FrameDecoder`] is the streaming half:
//! bytes may arrive split at arbitrary boundaries (TCP gives no message
//! framing) and frames are yielded exactly when complete.

use std::fmt;

/// Frame header magic: "EClipse 1 Frame".
pub const MAGIC: [u8; 2] = [0xEC, 0x1F];
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Upper bound on a frame body. A corrupt length prefix must not make
/// the decoder buffer gigabytes before failing.
pub const MAX_BODY: usize = 64 * 1024 * 1024;

/// Frame direction: request or response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    Request,
    Response,
}

/// One decoded frame (header + raw body); `rpc` decodes the body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    pub dir: Dir,
    pub kind: u8,
    pub corr: u64,
    pub body: Vec<u8>,
}

/// Typed decode failure. Every malformed input maps to one of these —
/// the codec has no panicking path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended inside a header or declared body.
    Truncated,
    /// The first two bytes are not [`MAGIC`].
    BadMagic([u8; 2]),
    /// Direction byte is neither 0 nor 1.
    BadDir(u8),
    /// Unknown message discriminant for the given direction.
    BadKind { dir: Dir, kind: u8 },
    /// Declared body length exceeds [`MAX_BODY`].
    Oversize(u64),
    /// A length-prefixed field overruns the body.
    FieldOverrun,
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// An enum/option tag byte has no meaning.
    BadTag(u8),
    /// Bytes left over after the last field of a message.
    Trailing(usize),
    /// A record run's keys decrease: runs are sorted by key.
    Unsorted,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            CodecError::BadDir(d) => write!(f, "bad direction byte {d}"),
            CodecError::BadKind { dir, kind } => write!(f, "unknown {dir:?} kind {kind}"),
            CodecError::Oversize(n) => write!(f, "declared body of {n} bytes exceeds cap"),
            CodecError::FieldOverrun => write!(f, "field length overruns body"),
            CodecError::BadUtf8 => write!(f, "string field is not UTF-8"),
            CodecError::BadTag(t) => write!(f, "invalid tag byte {t}"),
            CodecError::Trailing(n) => write!(f, "{n} trailing bytes after message"),
            CodecError::Unsorted => write!(f, "record run keys are not sorted"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Serialize a frame. The inverse of [`decode_frame`].
pub fn encode_frame(dir: Dir, kind: u8, corr: u64, body: &[u8]) -> Vec<u8> {
    debug_assert!(body.len() <= MAX_BODY);
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    let at = begin_frame(&mut out, dir, kind, corr);
    out.extend_from_slice(body);
    end_frame(&mut out, at);
    out
}

/// Start a frame in `out` (clearing it): write the header with a zero
/// length placeholder and return the body start offset. The body is
/// then appended directly to `out` (no intermediate body buffer) and
/// sealed with [`end_frame`]. This is the zero-copy encode path: `out`
/// is typically a reused thread-local scratch buffer.
pub fn begin_frame(out: &mut Vec<u8>, dir: Dir, kind: u8, corr: u64) -> usize {
    out.clear();
    out.extend_from_slice(&MAGIC);
    out.push(match dir {
        Dir::Request => 0,
        Dir::Response => 1,
    });
    out.push(kind);
    out.extend_from_slice(&corr.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    HEADER_LEN
}

/// Seal a frame begun with [`begin_frame`]: patch the body length now
/// that the body has been appended.
pub fn end_frame(out: &mut [u8], body_start: usize) {
    let len = out.len() - body_start;
    debug_assert!(len <= MAX_BODY);
    out[body_start - 4..body_start].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Strict single-frame decode: the input must hold exactly one complete
/// frame. Truncation is an error here (the streaming path uses
/// [`FrameDecoder`], where partial input just means "wait for more").
pub fn decode_frame(buf: &[u8]) -> Result<Frame, CodecError> {
    let (frame, used) = decode_frame_prefix(buf)?.ok_or(CodecError::Truncated)?;
    if used != buf.len() {
        return Err(CodecError::Trailing(buf.len() - used));
    }
    Ok(frame)
}

/// Decode one frame from the front of `buf` if it is complete.
/// `Ok(None)` means the prefix is valid so far but incomplete.
fn decode_frame_prefix(buf: &[u8]) -> Result<Option<(Frame, usize)>, CodecError> {
    if buf.len() < 2 {
        // Validate what we can see even before the header is whole, so
        // garbage fails fast instead of stalling a connection.
        if !buf.is_empty() && buf[0] != MAGIC[0] {
            return Err(CodecError::BadMagic([buf[0], 0]));
        }
        return Ok(None);
    }
    if buf[0..2] != MAGIC {
        return Err(CodecError::BadMagic([buf[0], buf[1]]));
    }
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let dir = match buf[2] {
        0 => Dir::Request,
        1 => Dir::Response,
        d => return Err(CodecError::BadDir(d)),
    };
    let kind = buf[3];
    let corr = u64::from_le_bytes(buf[4..12].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes")) as u64;
    if len > MAX_BODY as u64 {
        return Err(CodecError::Oversize(len));
    }
    let total = HEADER_LEN + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let body = buf[HEADER_LEN..total].to_vec();
    Ok(Some((Frame { dir, kind, corr, body }, total)))
}

/// Streaming frame decoder: feed byte chunks cut at arbitrary
/// boundaries, pull complete frames. Once an error is returned the
/// stream is unrecoverable (resynchronizing on a byte stream with a
/// corrupt length prefix is not possible) and the connection must be
/// dropped.
///
/// Pulled frames are consumed by advancing an offset; the consumed
/// bytes are dropped once per [`feed`](Self::feed), so a read holding
/// many small frames costs time linear in its bytes.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Where the first unconsumed byte of `buf` is.
    at: usize,
}

impl FrameDecoder {
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append raw bytes received from the wire.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.at);
        self.at = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Pull the next complete frame, if any.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, CodecError> {
        match decode_frame_prefix(&self.buf[self.at..])? {
            Some((frame, used)) => {
                self.at += used;
                Ok(Some(frame))
            }
            None => Ok(None),
        }
    }

    /// Bytes buffered but not yet consumed (an incomplete trailing
    /// frame, or nothing).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.at
    }
}

// ---- field-level primitives used by the rpc codec ------------------

/// Sequential reader over a frame body. All methods are bounds-checked
/// and return [`CodecError`] instead of slicing out of range.
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, at: 0 }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.at.checked_add(n).ok_or(CodecError::FieldOverrun)?;
        if end > self.buf.len() {
            return Err(CodecError::FieldOverrun);
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// LEB128 unsigned varint, at most 10 bytes. A continuation chain
    /// that would overflow 64 bits is a typed error, not a wrap. Most
    /// shuffle lengths take the one-byte branch.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        match self.buf.get(self.at) {
            Some(&b) if b < 0x80 => {
                self.at += 1;
                Ok(u64::from(b))
            }
            _ => self.long_varint(),
        }
    }

    fn long_varint(&mut self) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            let low = (b & 0x7f) as u64;
            if shift == 63 && low > 1 {
                return Err(CodecError::BadTag(b));
            }
            v |= low << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::BadTag(0x80))
    }

    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// A byte field whose length prefix is a varint (shuffle records use
    /// this: lengths are small, u32 prefixes were mostly zero bytes).
    #[inline]
    pub fn vbytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.varint()?;
        let len = usize::try_from(len).map_err(|_| CodecError::FieldOverrun)?;
        self.take(len)
    }

    pub fn string(&mut self) -> Result<String, CodecError> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.at
    }

    /// The message must consume its body exactly.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.at != self.buf.len() {
            return Err(CodecError::Trailing(self.buf.len() - self.at));
        }
        Ok(())
    }
}

/// Append `src[at..at + len]` to `out`. A run of at most sixteen bytes
/// whose source holds sixteen from `at` is copied as one fixed-size
/// block and the excess cut off again: for a short shuffle value a
/// `memcpy` call of its exact length costs more than the copy.
#[inline]
fn append_short(out: &mut Vec<u8>, src: &[u8], at: usize, len: usize) {
    match src[at..].first_chunk::<16>() {
        Some(block) if len <= 16 => {
            let keep = out.len() + len;
            out.extend_from_slice(block);
            out.truncate(keep);
        }
        _ => out.extend_from_slice(&src[at..at + len]),
    }
}

/// Body writer mirroring [`Reader`]. Appends to a caller-owned buffer
/// (usually a reused thread-local scratch holding the frame under
/// construction) instead of allocating its own.
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    pub fn new(buf: &'a mut Vec<u8>) -> Writer<'a> {
        Writer { buf }
    }

    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// LEB128 unsigned varint. Inverse of [`Reader::varint`]. Most
    /// shuffle lengths take the one-byte branch.
    #[inline]
    pub fn varint(&mut self, mut v: u64) {
        if v < 0x80 {
            self.buf.push(v as u8);
            return;
        }
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                return;
            }
            self.buf.push(b | 0x80);
        }
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Varint-length-prefixed bytes. Inverse of [`Reader::vbytes`].
    #[inline]
    pub fn vbytes(&mut self, v: &[u8]) {
        self.varint(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    pub fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Append `src[at..at + len]`, as [`append_short`] does.
    #[inline]
    pub(crate) fn raw_from(&mut self, src: &[u8], at: usize, len: usize) {
        append_short(self.buf, src, at, len);
    }

    /// Make room for `additional` more bytes.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Bytes appended as they are, with no length prefix.
    #[inline]
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_short_copies_exactly_the_span() {
        let src: Vec<u8> = (0..40).collect();
        for at in 0..src.len() {
            for len in 0..=src.len() - at {
                let mut out = vec![7u8; 3];
                append_short(&mut out, &src, at, len);
                assert_eq!(out[..3], [7, 7, 7]);
                assert_eq!(&out[3..], &src[at..at + len], "{at}+{len}");
            }
        }
    }

    #[test]
    fn frame_roundtrip() {
        let raw = encode_frame(Dir::Request, 3, 42, b"payload");
        let f = decode_frame(&raw).unwrap();
        assert_eq!(f.dir, Dir::Request);
        assert_eq!(f.kind, 3);
        assert_eq!(f.corr, 42);
        assert_eq!(f.body, b"payload");
    }

    #[test]
    fn streaming_across_boundaries() {
        let a = encode_frame(Dir::Request, 1, 1, b"first");
        let b = encode_frame(Dir::Response, 2, 2, b"second body");
        let mut all = a.clone();
        all.extend_from_slice(&b);
        // Feed one byte at a time: frames appear exactly when complete.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for &byte in &all {
            dec.feed(&[byte]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].body, b"first");
        assert_eq!(got[1].corr, 2);
        assert_eq!(dec.pending(), 0);
    }

    /// A thousand frames of mixed sizes fed as one chunk, and fed byte
    /// by byte, decode to the same frames, with nothing left over.
    #[test]
    fn a_thousand_frames_decode_alike_in_one_piece_and_byte_by_byte() {
        let frames: Vec<Frame> = (0..1000u64)
            .map(|i| Frame {
                dir: if i % 2 == 0 { Dir::Request } else { Dir::Response },
                kind: (i % 7) as u8,
                corr: i,
                body: vec![i as u8; (i % 13) as usize],
            })
            .collect();
        let wire: Vec<u8> =
            frames.iter().flat_map(|f| encode_frame(f.dir, f.kind, f.corr, &f.body)).collect();
        let decode = |chunk: usize| {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                dec.feed(piece);
                while let Some(f) = dec.next_frame().unwrap() {
                    got.push(f);
                }
            }
            assert_eq!(dec.pending(), 0);
            got
        };
        let whole = decode(wire.len());
        assert_eq!(whole, frames);
        assert_eq!(decode(1), whole);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut raw = encode_frame(Dir::Request, 1, 1, b"x");
        raw[0] = 0x00;
        assert!(matches!(decode_frame(&raw), Err(CodecError::BadMagic(_))));
    }

    #[test]
    fn oversize_length_rejected_before_buffering() {
        let mut raw = encode_frame(Dir::Request, 1, 1, b"x");
        raw[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.feed(&raw);
        assert!(matches!(dec.next_frame(), Err(CodecError::Oversize(_))));
    }

    #[test]
    fn truncation_is_typed_in_strict_mode() {
        let raw = encode_frame(Dir::Request, 1, 1, b"hello");
        for cut in 0..raw.len() {
            assert_eq!(decode_frame(&raw[..cut]), Err(CodecError::Truncated), "cut={cut}");
        }
    }

    #[test]
    fn reader_bounds_checked() {
        let mut body = Vec::new();
        Writer::new(&mut body).string("hi");
        // Corrupt the length prefix to point past the end.
        let mut bad = body.clone();
        bad[0] = 200;
        let mut r = Reader::new(&bad);
        assert_eq!(r.string(), Err(CodecError::FieldOverrun));
    }

    #[test]
    fn varint_roundtrip_edges() {
        let samples = [0u64, 1, 127, 128, 300, 16383, 16384, u32::MAX as u64, u64::MAX];
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        for &v in &samples {
            w.varint(v);
        }
        let mut r = Reader::new(&buf);
        for &v in &samples {
            assert_eq!(r.varint(), Ok(v));
        }
        r.finish().unwrap();
    }

    #[test]
    fn varint_overflow_is_typed() {
        // Eleven continuation bytes can never encode a u64.
        let bad = [0xffu8; 11];
        assert!(matches!(Reader::new(&bad).varint(), Err(CodecError::BadTag(_))));
        // Truncated mid-varint is an overrun, not a panic.
        let cut = [0x80u8];
        assert_eq!(Reader::new(&cut).varint(), Err(CodecError::FieldOverrun));
    }

    #[test]
    fn in_place_frame_matches_encode_frame() {
        let body = b"same bytes either way";
        let via_vec = encode_frame(Dir::Response, 2, 99, body);
        let mut scratch = vec![0xAA; 4]; // stale contents must be cleared
        let at = begin_frame(&mut scratch, Dir::Response, 2, 99);
        scratch.extend_from_slice(body);
        end_frame(&mut scratch, at);
        assert_eq!(scratch, via_vec);
    }
}
