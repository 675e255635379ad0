//! Frame layer: the versioned 12-byte header and blocking frame I/O.
//!
//! ```text
//!  offset  size  field
//!       0     4  magic  b"CARP"
//!       4     2  version (LE u16) — currently 2
//!       6     2  kind    (LE u16) — see FrameKind
//!       8     4  payload length (LE u32), ≤ MAX_PAYLOAD
//!      12     …  payload (schema depends on kind)
//! ```
//!
//! All header validation happens before the payload is read, so a corrupt
//! header never triggers an oversized allocation; all decode failures are
//! typed [`WireError`]s, never panics (pinned by the codec fuzz tests).

use std::io::{Read, Write};

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"CARP";
/// Protocol version spoken by this build.
///
/// v2: the `MetricsReply` payload lost the worker count and the three
/// win/retry/abort counters of the removed multi-worker commit pipeline.
///
/// v3: the `MetricsReply` payload lost the queue depth and in-flight gauge
/// with the per-tenant queue and worker they described.
pub const VERSION: u16 = 3;
/// Bytes in the fixed frame header.
pub const HEADER_LEN: usize = 12;
/// Upper bound on a payload (16 MiB) — a route over the largest layout is
/// orders of magnitude smaller; anything bigger is a corrupt length field.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Frame kinds (the header's `kind` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum FrameKind {
    /// Client → daemon: submit one planning request to a tenant.
    Submit = 1,
    /// Daemon → client: admission verdict for one submission.
    SubmitAck = 2,
    /// Daemon → client: terminal planning answer for one request.
    PlanReply = 3,
    /// Client → daemon: advance a tenant's simulation clock.
    Advance = 4,
    /// Daemon → client: route revisions delivered by the advance.
    AdvanceReply = 5,
    /// Client → daemon: cancel a committed route.
    Cancel = 6,
    /// Daemon → client: whether the cancel found its route.
    CancelReply = 7,
    /// Client → daemon: snapshot a tenant's metrics.
    MetricsQuery = 8,
    /// Daemon → client: the metrics snapshot.
    MetricsReply = 9,
    /// Daemon → client: a request-level protocol error (unknown tenant on
    /// a control frame, unexpected kind); the connection stays up.
    ErrorReply = 10,
    /// Client → daemon: subscribe to the changeset log from a sequence
    /// number; the daemon streams `LogChunk` frames for the rest of the
    /// connection's life (live WAL shipping).
    TailLog = 11,
    /// Daemon → client: a batch of raw changeset records pushed to a
    /// `TailLog` subscriber, stamped with the journal's current epoch.
    LogChunk = 12,
}

impl FrameKind {
    fn from_u16(v: u16) -> Option<FrameKind> {
        Some(match v {
            1 => FrameKind::Submit,
            2 => FrameKind::SubmitAck,
            3 => FrameKind::PlanReply,
            4 => FrameKind::Advance,
            5 => FrameKind::AdvanceReply,
            6 => FrameKind::Cancel,
            7 => FrameKind::CancelReply,
            8 => FrameKind::MetricsQuery,
            9 => FrameKind::MetricsReply,
            10 => FrameKind::ErrorReply,
            11 => FrameKind::TailLog,
            12 => FrameKind::LogChunk,
            _ => return None,
        })
    }
}

/// Everything that can go wrong on the wire. Malformed *input* maps to a
/// variant here — never a panic; I/O failures carry the error kind so the
/// type stays `PartialEq` (handy in tests and retry logic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame does not start with `b"CARP"`.
    BadMagic,
    /// The peer speaks a protocol version this build does not.
    UnsupportedVersion(u16),
    /// The header names a frame kind this build does not know.
    UnknownKind(u16),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversize(u32),
    /// The stream ended mid-frame (clean EOF *between* frames is not an
    /// error — [`read_frame`] returns `Ok(None)` for that).
    Truncated,
    /// A payload failed schema validation; the message says where.
    Malformed(&'static str),
    /// The daemon refused the frame because this connection exceeded its
    /// rate limit; back off and retry.
    Throttled,
    /// An append was stamped with a leadership epoch older than the
    /// journal's current one — the writer was fenced off by a standby
    /// takeover and must not touch the journal again.
    Fenced {
        /// The stale epoch the writer appended under.
        stale: u64,
        /// The journal's current epoch.
        current: u64,
    },
    /// An underlying transport error.
    Io(std::io::ErrorKind),
    /// The peer closed the connection while a reply was still owed.
    Closed,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Oversize(n) => write!(f, "payload length {n} exceeds limit"),
            WireError::Truncated => write!(f, "stream truncated mid-frame"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Throttled => write!(f, "connection rate limit exceeded"),
            WireError::Fenced { stale, current } => write!(
                f,
                "append fenced: epoch {stale} is stale (journal is at epoch {current})"
            ),
            WireError::Io(kind) => write!(f, "transport error: {kind:?}"),
            WireError::Closed => write!(f, "connection closed while awaiting a reply"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e.kind())
        }
    }
}

/// Write one frame (header + payload) and flush.
pub fn write_frame<W: Write>(w: &mut W, kind: FrameKind, payload: &[u8]) -> Result<(), WireError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&n| n <= MAX_PAYLOAD)
        .ok_or(WireError::Oversize(
            payload.len().min(u32::MAX as usize) as u32
        ))?;
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&VERSION.to_le_bytes());
    header[6..8].copy_from_slice(&(kind as u16).to_le_bytes());
    header[8..12].copy_from_slice(&len.to_le_bytes());
    // One write for header + payload: two small writes over a real TCP
    // socket tear the frame into two segments, and Nagle holds the second
    // until the first is ACKed — a delayed-ACK peer turns every frame into
    // a ~40 ms stall. A single segment also reaches the reactor's decoder
    // whole, instead of as a guaranteed partial read.
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(&header);
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Size on the wire of a frame carrying `payload_len` payload bytes.
pub fn frame_len(payload_len: usize) -> u64 {
    (HEADER_LEN + payload_len) as u64
}

/// Read one frame. `Ok(None)` is a clean end-of-stream (EOF exactly at a
/// frame boundary); EOF anywhere inside a frame is [`WireError::Truncated`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<(FrameKind, Vec<u8>)>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0usize;
    while got < HEADER_LEN {
        let n = r.read(&mut header[got..])?;
        if n == 0 {
            return if got == 0 {
                Ok(None)
            } else {
                Err(WireError::Truncated)
            };
        }
        got += n;
    }
    if header[0..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes(header[4..6].try_into().expect("len 2"));
    if version != VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind_raw = u16::from_le_bytes(header[6..8].try_into().expect("len 2"));
    let kind = FrameKind::from_u16(kind_raw).ok_or(WireError::UnknownKind(kind_raw))?;
    let len = u32::from_le_bytes(header[8..12].try_into().expect("len 4"));
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversize(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some((kind, payload)))
}

/// Incremental frame reassembler for nonblocking transports.
///
/// The blocking [`read_frame`] owns its stream and can simply block until a
/// whole frame is present; a readiness-driven reactor instead receives
/// arbitrary byte chunks as the kernel delivers them. `FrameDecoder` buffers
/// those chunks ([`push`](FrameDecoder::push)) and yields complete frames
/// ([`next_frame`](FrameDecoder::next_frame)) with semantics bit-identical
/// to the blocking path, pinned by the segmentation proptests in
/// `tests/wire_codec.rs`:
///
/// - header fields are validated only once all [`HEADER_LEN`] bytes are
///   buffered (exactly like the blocking read loop, which reads the full
///   header before inspecting it), and *before* any payload arrives — so a
///   corrupt length field is rejected without an oversized allocation;
/// - errors are sticky: after the first [`WireError`] the stream is garbage
///   and every later call returns the same error, mirroring a caller that
///   abandons a blocking stream on its first decode failure;
/// - end-of-stream is judged by [`finish`](FrameDecoder::finish): EOF
///   exactly at a frame boundary is clean, EOF with buffered bytes is
///   [`WireError::Truncated`].
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// First error seen, replayed forever after (a corrupt stream cannot
    /// resynchronise — there is no framing to hunt for).
    poisoned: Option<WireError>,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Buffer `bytes` as the next chunk of the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.poisoned.is_none() {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Try to decode the next complete frame from the buffered bytes.
    ///
    /// `Ok(None)` means "need more bytes" — push another chunk and retry.
    /// Errors match what [`read_frame`] would have returned at the same
    /// position in the stream, and are sticky.
    pub fn next_frame(&mut self) -> Result<Option<(FrameKind, Vec<u8>)>, WireError> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        if self.buf[0..4] != MAGIC {
            return Err(self.poison(WireError::BadMagic));
        }
        let version = u16::from_le_bytes(self.buf[4..6].try_into().expect("len 2"));
        if version != VERSION {
            return Err(self.poison(WireError::UnsupportedVersion(version)));
        }
        let kind_raw = u16::from_le_bytes(self.buf[6..8].try_into().expect("len 2"));
        let Some(kind) = FrameKind::from_u16(kind_raw) else {
            return Err(self.poison(WireError::UnknownKind(kind_raw)));
        };
        let len = u32::from_le_bytes(self.buf[8..12].try_into().expect("len 4"));
        if len > MAX_PAYLOAD {
            return Err(self.poison(WireError::Oversize(len)));
        }
        let total = HEADER_LEN + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = self.buf[HEADER_LEN..total].to_vec();
        self.buf.drain(..total);
        Ok(Some((kind, payload)))
    }

    /// Judge end-of-stream: `Ok(())` if the peer closed exactly at a frame
    /// boundary, [`WireError::Truncated`] if bytes of an unfinished frame
    /// remain buffered (the blocking path's EOF-mid-frame error).
    pub fn finish(&self) -> Result<(), WireError> {
        match &self.poisoned {
            Some(err) => Err(err.clone()),
            None if self.buf.is_empty() => Ok(()),
            None => Err(WireError::Truncated),
        }
    }

    fn poison(&mut self, err: WireError) -> WireError {
        self.buf.clear();
        self.poisoned = Some(err.clone());
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_one_frame() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Submit, b"hello").unwrap();
        assert_eq!(buf.len() as u64, frame_len(5));
        let mut cur = &buf[..];
        let (kind, payload) = read_frame(&mut cur).unwrap().unwrap();
        assert_eq!(kind, FrameKind::Submit);
        assert_eq!(payload, b"hello");
        assert!(read_frame(&mut cur).unwrap().is_none()); // clean EOF
    }

    #[test]
    fn header_validation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Advance, b"x").unwrap();

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert_eq!(read_frame(&mut &bad[..]), Err(WireError::BadMagic));

        // A future version and the previous one (whose `MetricsReply`
        // layout differs) are both refused, by the blocking reader and by
        // the incremental decoder alike.
        for version in [99, VERSION - 1] {
            let mut bad = buf.clone();
            bad[4..6].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                read_frame(&mut &bad[..]),
                Err(WireError::UnsupportedVersion(version))
            );
            let mut dec = FrameDecoder::new();
            dec.push(&bad);
            assert_eq!(
                dec.next_frame(),
                Err(WireError::UnsupportedVersion(version))
            );
        }

        let mut bad = buf.clone();
        bad[6] = 0xAB;
        assert_eq!(read_frame(&mut &bad[..]), Err(WireError::UnknownKind(0xAB)));

        let mut bad = buf.clone();
        bad[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(
            read_frame(&mut &bad[..]),
            Err(WireError::Oversize(MAX_PAYLOAD + 1))
        );
    }

    #[test]
    fn truncation_mid_header_and_mid_payload() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Cancel, b"abcdef").unwrap();
        for cut in 1..buf.len() {
            assert_eq!(
                read_frame(&mut &buf[..cut]),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn decoder_reassembles_byte_by_byte() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Submit, b"hello").unwrap();
        write_frame(&mut buf, FrameKind::Advance, b"").unwrap();
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        for b in &buf {
            dec.push(std::slice::from_ref(b));
            while let Some(frame) = dec.next_frame().unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(
            frames,
            vec![
                (FrameKind::Submit, b"hello".to_vec()),
                (FrameKind::Advance, Vec::new()),
            ]
        );
        dec.finish().unwrap();
    }

    #[test]
    fn decoder_truncation_and_sticky_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Cancel, b"abcdef").unwrap();
        // EOF anywhere mid-frame is Truncated via finish().
        for cut in 1..buf.len() {
            let mut dec = FrameDecoder::new();
            dec.push(&buf[..cut]);
            assert_eq!(dec.next_frame(), Ok(None), "cut at {cut}");
            assert_eq!(dec.finish(), Err(WireError::Truncated), "cut at {cut}");
        }
        // A corrupt oversize header is rejected before its payload exists,
        // and the error is sticky even if more bytes arrive.
        let mut bad = buf.clone();
        bad[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.push(&bad[..HEADER_LEN]);
        assert_eq!(dec.next_frame(), Err(WireError::Oversize(MAX_PAYLOAD + 1)));
        dec.push(&buf);
        assert_eq!(dec.next_frame(), Err(WireError::Oversize(MAX_PAYLOAD + 1)));
        assert_eq!(dec.finish(), Err(WireError::Oversize(MAX_PAYLOAD + 1)));
    }
}
