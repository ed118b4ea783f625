//! Length-prefixed framing and the versioned connection handshake.
//!
//! ## Frame layout
//!
//! ```text
//! ┌─────────────┬──────────┬────────────┬───────────────────────┐
//! │ len: u32 BE │ kind: u8 │ id: u64 BE │ body: (len - 9) bytes │
//! └─────────────┴──────────┴────────────┴───────────────────────┘
//! ```
//!
//! `len` counts everything after itself (kind + id + body), so a frame
//! occupies `4 + len` bytes on the wire. `id` matches a response to its
//! request over a multiplexed connection. A declared `len` above the
//! negotiated cap is rejected *before any allocation or body read*
//! ([`FrameError::Oversized`]) and the connection is torn down — frames
//! after a framing error cannot be trusted.
//!
//! ## Handshake
//!
//! Each side opens with 9 bytes: `magic "FTCW"` + `version: u8` +
//! `node: u32 BE`. A magic or version mismatch is a typed
//! [`HandshakeError`]; the connection never proceeds to frames.

use crate::codec::{CodecError, Wire};
use ftc_hashring::NodeId;
use std::fmt;
use std::io::{self, IoSlice, Read, Write};
use std::iter;
use std::sync::Arc;

/// Handshake magic: identifies an FT-Cache wire peer.
pub const MAGIC: [u8; 4] = *b"FTCW";

/// Wire protocol version; bumped on any frame- or codec-layer change.
pub const WIRE_VERSION: u8 = 1;

/// Default cap on `len`: generous for cache values, small enough that a
/// hostile length prefix cannot balloon memory.
pub const DEFAULT_MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Bytes of the post-`len` header (kind + id).
pub const HEADER_TAIL: usize = 1 + 8;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// A request body (client → server).
    Request = 1,
    /// A response body (server → client), `id` echoing the request.
    Response = 2,
    /// An observability scrape: empty body, server replies with
    /// [`FrameKind::ObsText`] over the same connection.
    ObsScrape = 3,
    /// Prometheus exposition text answering an [`FrameKind::ObsScrape`].
    ObsText = 4,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<FrameKind> {
        match b {
            1 => Some(FrameKind::Request),
            2 => Some(FrameKind::Response),
            3 => Some(FrameKind::ObsScrape),
            4 => Some(FrameKind::ObsText),
            _ => None,
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the body is.
    pub kind: FrameKind,
    /// Request/response correlation id.
    pub id: u64,
    /// The undecoded body bytes.
    pub body: Vec<u8>,
}

/// One decoded frame whose body sits in a shared allocation, so message
/// decode (`Wire::decode_all_shared`) can hand out zero-copy views into
/// it instead of copying value fields. The hot read/serve paths use this;
/// [`Frame`] remains for callers that want an owned body.
#[derive(Debug, Clone)]
pub struct SharedFrame {
    /// What the body is.
    pub kind: FrameKind,
    /// Request/response correlation id.
    pub id: u64,
    /// The undecoded body bytes, shared.
    pub body: Arc<[u8]>,
}

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection at a frame boundary (clean EOF).
    Closed,
    /// Socket-level failure (includes EOF *inside* a frame, which
    /// surfaces as `UnexpectedEof`).
    Io(io::Error),
    /// The declared length exceeds the negotiated cap. Detected before
    /// any body read or allocation.
    Oversized {
        /// The length the peer declared.
        declared: u32,
        /// The cap in force.
        cap: u32,
    },
    /// The declared length cannot even hold the kind + id header.
    Runt {
        /// The length the peer declared.
        declared: u32,
    },
    /// Unknown [`FrameKind`] byte.
    BadKind(u8),
    /// The body failed message decode (reported by callers that decode
    /// in place).
    Codec(CodecError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "frame io: {e}"),
            FrameError::Oversized { declared, cap } => {
                write!(f, "frame declares {declared} bytes, cap is {cap}")
            }
            FrameError::Runt { declared } => {
                write!(
                    f,
                    "frame declares {declared} bytes, below the 9-byte header"
                )
            }
            FrameError::BadKind(b) => write!(f, "unknown frame kind {b:#04x}"),
            FrameError::Codec(e) => write!(f, "frame body: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<CodecError> for FrameError {
    fn from(e: CodecError) -> Self {
        FrameError::Codec(e)
    }
}

/// Read exactly `buf.len()` bytes; `Ok(false)` means clean EOF before
/// the first byte (only meaningful at a frame boundary).
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, io::Error> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) if got == 0 => return Ok(false),
            Ok(0) => return Err(io::Error::from(io::ErrorKind::UnexpectedEof)),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Read and validate a frame header: `(kind, id, body_len)`. Oversized
/// and runt declarations fail before any body read or allocation.
fn read_frame_header(r: &mut impl Read, cap: u32) -> Result<(FrameKind, u64, usize), FrameError> {
    let mut len4 = [0u8; 4];
    if !read_full(r, &mut len4)? {
        return Err(FrameError::Closed);
    }
    let declared = u32::from_be_bytes(len4);
    if declared > cap {
        return Err(FrameError::Oversized { declared, cap });
    }
    if (declared as usize) < HEADER_TAIL {
        return Err(FrameError::Runt { declared });
    }
    let mut tail = [0u8; HEADER_TAIL];
    if !read_full(r, &mut tail)? {
        return Err(FrameError::Io(io::Error::from(
            io::ErrorKind::UnexpectedEof,
        )));
    }
    let kind = FrameKind::from_u8(tail[0]).ok_or(FrameError::BadKind(tail[0]))?;
    let id = u64::from_be_bytes([
        tail[1], tail[2], tail[3], tail[4], tail[5], tail[6], tail[7], tail[8],
    ]);
    Ok((kind, id, declared as usize - HEADER_TAIL))
}

/// Read one frame. A declared length over `cap` (or under the header
/// size) fails without reading or allocating the body; the stream is
/// then desynchronized and the caller must drop the connection.
pub fn read_frame(r: &mut impl Read, cap: u32) -> Result<Frame, FrameError> {
    let (kind, id, body_len) = read_frame_header(r, cap)?;
    let mut body = vec![0u8; body_len];
    if !body.is_empty() && !read_full(r, &mut body)? {
        return Err(FrameError::Io(io::Error::from(
            io::ErrorKind::UnexpectedEof,
        )));
    }
    Ok(Frame { kind, id, body })
}

/// [`read_frame`], but the body lands directly in a shared allocation so
/// downstream decode can expose value fields as zero-copy views — the
/// body is never re-copied between the socket and the cache/client.
/// The body costs one heap allocation: an exact-length iterator
/// collects straight into the `Arc`, with no staging `Vec`.
pub fn read_frame_shared(r: &mut impl Read, cap: u32) -> Result<SharedFrame, FrameError> {
    let (kind, id, body_len) = read_frame_header(r, cap)?;
    let mut body: Arc<[u8]> = iter::repeat_n(0u8, body_len).collect();
    if body_len > 0 {
        // A fresh Arc is unique, so get_mut always succeeds; the guard
        // exists only to avoid an unwrap on the hot path.
        if let Some(slice) = Arc::get_mut(&mut body) {
            if !read_full(r, slice)? {
                return Err(FrameError::Io(io::Error::from(
                    io::ErrorKind::UnexpectedEof,
                )));
            }
        }
    }
    Ok(SharedFrame { kind, id, body })
}

/// The `len` + kind + id prefix of a frame whose body is `body_len`
/// bytes, or [`FrameError::Oversized`] when it would exceed `cap`.
fn frame_head(
    kind: FrameKind,
    id: u64,
    body_len: usize,
    cap: u32,
) -> Result<[u8; 4 + HEADER_TAIL], FrameError> {
    let len = (HEADER_TAIL + body_len) as u64;
    if len > u64::from(cap) {
        return Err(FrameError::Oversized {
            declared: len.min(u64::from(u32::MAX)) as u32,
            cap,
        });
    }
    let mut head = [0u8; 4 + HEADER_TAIL];
    head[..4].copy_from_slice(&(len as u32).to_be_bytes());
    head[4] = kind as u8;
    head[5..].copy_from_slice(&id.to_be_bytes());
    Ok(head)
}

/// `write_all` over several buffers: one `write_vectored` per syscall,
/// resuming mid-buffer after a short write.
fn write_all_gathered(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero)),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Write one frame and flush. Refuses to emit a frame over `cap` — the
/// peer would tear the connection down on receipt anyway.
pub fn write_frame(
    w: &mut impl Write,
    kind: FrameKind,
    id: u64,
    body: &[u8],
    cap: u32,
) -> Result<(), FrameError> {
    let head = frame_head(kind, id, body.len(), cap)?;
    write_all_gathered(w, &mut [IoSlice::new(&head), IoSlice::new(body)])?;
    w.flush()?;
    Ok(())
}

/// Write one frame whose body is `msg`'s encoding, and flush. The bytes
/// on the wire are exactly [`write_frame`] over `msg.encode_vec()`, but
/// the bulk field named by [`Wire::encode_gather`] goes to the socket
/// from the message's own buffer: only the small fields pass through
/// `scratch` (cleared first, reused across frames), so a value is never
/// copied in user space on its way out.
pub fn write_msg_frame<M: Wire>(
    w: &mut impl Write,
    kind: FrameKind,
    id: u64,
    msg: &M,
    scratch: &mut Vec<u8>,
    cap: u32,
) -> Result<(), FrameError> {
    scratch.clear();
    let (at, bulk) = msg.encode_gather(scratch).unwrap_or((scratch.len(), &[]));
    let head = frame_head(kind, id, scratch.len() + bulk.len(), cap)?;
    write_all_gathered(
        w,
        &mut [
            IoSlice::new(&head),
            IoSlice::new(&scratch[..at]),
            IoSlice::new(bulk),
            IoSlice::new(&scratch[at..]),
        ],
    )?;
    w.flush()?;
    Ok(())
}

/// The 9-byte connection opener each side sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The peer's wire protocol version.
    pub version: u8,
    /// The peer's node id (`NodeId(u32::MAX)` for anonymous clients,
    /// e.g. observability scrapers).
    pub node: NodeId,
}

/// Why the handshake failed.
#[derive(Debug)]
pub enum HandshakeError {
    /// Socket-level failure or mid-handshake EOF.
    Io(io::Error),
    /// The peer did not open with [`MAGIC`] — not an FT-Cache peer.
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    BadVersion {
        /// The version byte the peer sent.
        got: u8,
        /// The version this side speaks.
        want: u8,
    },
}

impl fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandshakeError::Io(e) => write!(f, "handshake io: {e}"),
            HandshakeError::BadMagic(m) => write!(f, "bad handshake magic {m:02x?}"),
            HandshakeError::BadVersion { got, want } => {
                write!(f, "peer speaks wire version {got}, this side speaks {want}")
            }
        }
    }
}

impl std::error::Error for HandshakeError {}

impl From<io::Error> for HandshakeError {
    fn from(e: io::Error) -> Self {
        HandshakeError::Io(e)
    }
}

/// Send this side's hello.
pub fn send_hello(w: &mut impl Write, node: NodeId) -> Result<(), HandshakeError> {
    let mut buf = [0u8; 9];
    buf[..4].copy_from_slice(&MAGIC);
    buf[4] = WIRE_VERSION;
    buf[5..].copy_from_slice(&node.0.to_be_bytes());
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Read and validate the peer's hello.
pub fn read_hello(r: &mut impl Read) -> Result<Hello, HandshakeError> {
    let mut buf = [0u8; 9];
    if !read_full(r, &mut buf).map_err(HandshakeError::Io)? {
        return Err(HandshakeError::Io(io::Error::from(
            io::ErrorKind::UnexpectedEof,
        )));
    }
    let magic = [buf[0], buf[1], buf[2], buf[3]];
    if magic != MAGIC {
        return Err(HandshakeError::BadMagic(magic));
    }
    let version = buf[4];
    if version != WIRE_VERSION {
        return Err(HandshakeError::BadVersion {
            got: version,
            want: WIRE_VERSION,
        });
    }
    let node = NodeId(u32::from_be_bytes([buf[5], buf[6], buf[7], buf[8]]));
    Ok(Hello { version, node })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            FrameKind::Request,
            42,
            b"hello",
            DEFAULT_MAX_FRAME,
        )
        .unwrap();
        let f = read_frame(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(f.kind, FrameKind::Request);
        assert_eq!(f.id, 42);
        assert_eq!(f.body, b"hello");
    }

    #[test]
    fn empty_body_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::ObsScrape, 7, b"", DEFAULT_MAX_FRAME).unwrap();
        let f = read_frame(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(f.kind, FrameKind::ObsScrape);
        assert!(f.body.is_empty());
    }

    #[test]
    fn shared_frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            FrameKind::Response,
            9,
            b"payload",
            DEFAULT_MAX_FRAME,
        )
        .unwrap();
        let f = read_frame_shared(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(f.kind, FrameKind::Response);
        assert_eq!(f.id, 9);
        assert_eq!(&f.body[..], b"payload");

        let mut empty = Vec::new();
        write_frame(&mut empty, FrameKind::ObsScrape, 1, b"", DEFAULT_MAX_FRAME).unwrap();
        let f = read_frame_shared(&mut Cursor::new(&empty), DEFAULT_MAX_FRAME).unwrap();
        assert!(f.body.is_empty());

        assert!(matches!(
            read_frame_shared(&mut Cursor::new(&[]), DEFAULT_MAX_FRAME).unwrap_err(),
            FrameError::Closed
        ));
    }

    #[test]
    fn clean_eof_is_closed() {
        let err = read_frame(&mut Cursor::new(&[]), DEFAULT_MAX_FRAME).unwrap_err();
        assert!(matches!(err, FrameError::Closed));
    }

    #[test]
    fn truncated_length_prefix_is_io_error() {
        // Two of the four length bytes: mid-header EOF, not a clean close.
        let err = read_frame(&mut Cursor::new(&[0u8, 0]), DEFAULT_MAX_FRAME).unwrap_err();
        match err {
            FrameError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected Io(UnexpectedEof), got {other:?}"),
        }
    }

    #[test]
    fn oversized_declared_length_fails_without_allocating() {
        // Declares u32::MAX bytes; decode must reject on the cap check
        // alone — the 5-byte input could never back the allocation.
        let mut buf = u32::MAX.to_be_bytes().to_vec();
        buf.push(1);
        let err = read_frame(&mut Cursor::new(&buf), 1024).unwrap_err();
        assert!(matches!(
            err,
            FrameError::Oversized {
                declared: u32::MAX,
                cap: 1024
            }
        ));
    }

    #[test]
    fn runt_and_bad_kind_are_typed() {
        let mut buf = 3u32.to_be_bytes().to_vec();
        buf.extend_from_slice(&[0; 3]);
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf), 1024).unwrap_err(),
            FrameError::Runt { declared: 3 }
        ));

        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, 0, b"", DEFAULT_MAX_FRAME).unwrap();
        buf[4] = 0xee; // corrupt the kind byte
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf), 1024).unwrap_err(),
            FrameError::BadKind(0xee)
        ));
    }

    #[test]
    fn write_refuses_over_cap() {
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, FrameKind::Response, 0, &[0; 100], 64).unwrap_err();
        assert!(matches!(err, FrameError::Oversized { cap: 64, .. }));
        assert!(buf.is_empty(), "nothing may hit the wire");
    }

    #[test]
    fn hello_round_trip_and_rejections() {
        let mut buf = Vec::new();
        send_hello(&mut buf, NodeId(3)).unwrap();
        let h = read_hello(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(
            h,
            Hello {
                version: WIRE_VERSION,
                node: NodeId(3)
            }
        );

        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_hello(&mut Cursor::new(&bad_magic)).unwrap_err(),
            HandshakeError::BadMagic(_)
        ));

        let mut bad_version = buf.clone();
        bad_version[4] = WIRE_VERSION + 9;
        match read_hello(&mut Cursor::new(&bad_version)).unwrap_err() {
            HandshakeError::BadVersion { got, want } => {
                assert_eq!(got, WIRE_VERSION + 9);
                assert_eq!(want, WIRE_VERSION);
            }
            other => panic!("expected BadVersion, got {other:?}"),
        }

        assert!(matches!(
            read_hello(&mut Cursor::new(&buf[..5])).unwrap_err(),
            HandshakeError::Io(_)
        ));
    }
}
