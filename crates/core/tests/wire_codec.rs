//! Property tests for the TCP codec of the cache protocol.
//!
//! The codec is the trust boundary of the real-socket deployment: a
//! malformed or hostile byte stream must produce a typed [`CodecError`],
//! never a panic or an attacker-sized allocation. Three properties pin
//! that down for every framed message type:
//!
//! 1. round trip — `decode_all(encode_vec(m)) == m`;
//! 2. prefix rejection — every *strict* prefix of a valid encoding fails
//!    to decode (no message is a prefix of another, so a torn read can
//!    never silently truncate a payload);
//! 3. garbage tolerance — `decode_all` of arbitrary bytes returns
//!    `Ok`/`Err` without panicking, and what it accepts re-encodes
//!    canonically.
//!
//! A frame-layer round trip through `write_frame`/`read_frame` covers the
//! full path a socket sees. The malformed-frame corpus (truncated length
//! prefix, oversized declared length, bad magic/version byte) lives next
//! to the frame code in `ftc-wire`.
//!
//! The TCP writer sends a value without copying it: `encode_gather`
//! encodes the small fields and says where the value goes, and
//! `write_msg_frame` writes the pieces in one gathered write. Two more
//! properties hold that path to the contiguous encoding, byte for byte
//! (also under short writes), and pinned encodings hold the format
//! itself to wire version 1.

use ftc_core::{CacheRequest, CacheResponse, ServeSource};
use ftc_storage::ValueBuf;
use ftc_wire::codec::Wire;
use ftc_wire::frame::{read_frame, write_frame, write_msg_frame, FrameKind};
use ftc_wire::DEFAULT_MAX_FRAME;
use proptest::prelude::*;
use std::io::{self, Write};

/// The gathered form of `m` laid out flat: `head[..at] ++ bulk ++
/// head[at..]`.
fn gathered<M: Wire>(m: &M) -> Vec<u8> {
    let mut head = Vec::new();
    match m.encode_gather(&mut head) {
        Some((at, bulk)) => [&head[..at], bulk, &head[at..]].concat(),
        None => head,
    }
}

/// A socket that takes 1–7 bytes per call, cycling through `sizes`, and
/// reports a short write like a congested stream does.
struct Trickle<'a> {
    out: Vec<u8>,
    sizes: &'a [u8],
    calls: usize,
}

impl Write for Trickle<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = match self.sizes {
            [] => 1,
            s => 1 + usize::from(s[self.calls % s.len()] % 7),
        };
        self.calls += 1;
        let n = n.min(buf.len());
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// `m` written by the gathered writer through a [`Trickle`], and by
/// `write_frame` over its contiguous encoding.
fn both_frames<M: Wire>(m: &M, kind: FrameKind, id: u64, sizes: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let mut trickle = Trickle {
        out: Vec::new(),
        sizes,
        calls: 0,
    };
    let mut scratch = vec![0xEE; 3]; // stale contents must not leak
    write_msg_frame(&mut trickle, kind, id, m, &mut scratch, DEFAULT_MAX_FRAME)
        .expect("gathered frame fits");
    let mut plain = Vec::new();
    write_frame(&mut plain, kind, id, &m.encode_vec(), DEFAULT_MAX_FRAME).expect("frame fits");
    (trickle.out, plain)
}

/// Build a `CacheRequest` from flattened draws (the shim has no enum
/// strategy; a selector byte picks the variant).
fn req_from(sel: u8, path: String, payload: Vec<u8>) -> CacheRequest {
    match sel % 5 {
        0 => CacheRequest::Read { path },
        1 => CacheRequest::Ping,
        2 => CacheRequest::Put {
            path,
            bytes: ValueBuf::from(payload),
        },
        3 => CacheRequest::Digest,
        _ => CacheRequest::Evict { path },
    }
}

/// Build a `CacheResponse` from flattened draws.
fn resp_from(
    sel: u8,
    path: String,
    payload: Vec<u8>,
    keys: Vec<String>,
    flag: bool,
) -> CacheResponse {
    match sel % 7 {
        0 => CacheResponse::Data {
            path,
            bytes: ValueBuf::from(payload),
            source: if flag {
                ServeSource::NvmeHit
            } else {
                ServeSource::PfsFetch
            },
        },
        1 => CacheResponse::NotFound { path },
        2 => CacheResponse::Pong,
        3 => CacheResponse::PutAck { path },
        4 => CacheResponse::DigestReply { keys },
        5 => CacheResponse::Overloaded,
        _ => CacheResponse::EvictAck {
            path,
            existed: flag,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Requests survive an encode/decode round trip bit-exactly.
    #[test]
    fn request_round_trips(
        sel in any::<u8>(),
        path in "[a-zA-Z0-9/_.-]{0,80}",
        payload in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let m = req_from(sel, path, payload);
        let bytes = m.encode_vec();
        prop_assert_eq!(CacheRequest::decode_all(&bytes).expect("round trip"), m);
    }

    /// Responses survive an encode/decode round trip bit-exactly.
    #[test]
    fn response_round_trips(
        sel in any::<u8>(),
        path in "[a-zA-Z0-9/_.-]{0,80}",
        payload in prop::collection::vec(any::<u8>(), 0..512),
        keys in prop::collection::vec("[a-z0-9/]{0,24}", 0..12),
        flag in any::<bool>(),
    ) {
        let m = resp_from(sel, path, payload, keys, flag);
        let bytes = m.encode_vec();
        prop_assert_eq!(CacheResponse::decode_all(&bytes).expect("round trip"), m);
    }

    /// No valid encoding decodes from a strict prefix of itself: a torn
    /// read can never be mistaken for a shorter complete message.
    #[test]
    fn strict_prefixes_never_decode(
        sel in any::<u8>(),
        path in "[a-zA-Z0-9/_.-]{0,40}",
        payload in prop::collection::vec(any::<u8>(), 0..64),
        keys in prop::collection::vec("[a-z0-9/]{0,12}", 0..6),
        flag in any::<bool>(),
        cut in any::<u16>(),
    ) {
        let req = req_from(sel, path.clone(), payload.clone()).encode_vec();
        let cut_at = (cut as usize) % req.len();
        prop_assert!(CacheRequest::decode_all(&req[..cut_at]).is_err());

        let resp = resp_from(sel, path, payload, keys, flag).encode_vec();
        let cut_at = (cut as usize) % resp.len();
        prop_assert!(CacheResponse::decode_all(&resp[..cut_at]).is_err());
    }

    /// Arbitrary bytes never panic the decoder, and anything it does
    /// accept re-encodes to exactly the bytes it consumed (the codec is
    /// canonical, so there is one byte string per message).
    #[test]
    fn garbage_never_panics_and_accepts_only_canonical(
        junk in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        if let Ok(m) = CacheRequest::decode_all(&junk) {
            prop_assert_eq!(m.encode_vec(), junk.clone());
        }
        if let Ok(m) = CacheResponse::decode_all(&junk) {
            prop_assert_eq!(m.encode_vec(), junk);
        }
    }

    /// The full socket path: a request framed by `write_frame` comes back
    /// through `read_frame` with kind, id and body intact.
    #[test]
    fn frames_round_trip_through_the_wire_layer(
        sel in any::<u8>(),
        path in "[a-zA-Z0-9/_.-]{0,80}",
        payload in prop::collection::vec(any::<u8>(), 0..512),
        id in any::<u64>(),
        kind_sel in any::<bool>(),
    ) {
        let m = req_from(sel, path, payload);
        let kind = if kind_sel { FrameKind::Request } else { FrameKind::Response };
        let mut wire = Vec::new();
        write_frame(&mut wire, kind, id, &m.encode_vec(), DEFAULT_MAX_FRAME)
            .expect("frame fits");
        let frame = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME).expect("read back");
        prop_assert_eq!(frame.kind, kind);
        prop_assert_eq!(frame.id, id);
        prop_assert_eq!(CacheRequest::decode_all(&frame.body).expect("body"), m);
    }

    /// Every message's gathered form, laid flat, is its contiguous
    /// encoding; only the value-carrying variants leave a bulk field out.
    #[test]
    fn gathered_encoding_equals_contiguous(
        sel in any::<u8>(),
        path in "[a-zA-Z0-9/_.-]{0,80}",
        payload in prop::collection::vec(any::<u8>(), 0..512),
        keys in prop::collection::vec("[a-z0-9/]{0,24}", 0..12),
        flag in any::<bool>(),
    ) {
        let req = req_from(sel, path.clone(), payload.clone());
        prop_assert_eq!(gathered(&req), req.encode_vec());
        let bulk = req.encode_gather(&mut Vec::new()).map(|(_, b)| b.len());
        let put = matches!(req, CacheRequest::Put { .. });
        prop_assert_eq!(bulk, put.then_some(payload.len()));

        let resp = resp_from(sel, path, payload.clone(), keys, flag);
        prop_assert_eq!(gathered(&resp), resp.encode_vec());
        let bulk = resp.encode_gather(&mut Vec::new()).map(|(_, b)| b.len());
        let data = matches!(resp, CacheResponse::Data { .. });
        prop_assert_eq!(bulk, data.then_some(payload.len()));
    }

    /// A frame from the gathered writer is byte-identical to
    /// `write_frame` over `encode_vec()`, even when the socket takes a
    /// few bytes per call and every write lands mid-piece.
    #[test]
    fn gathered_frames_match_write_frame_under_short_writes(
        sel in any::<u8>(),
        path in "[a-zA-Z0-9/_.-]{0,80}",
        payload in prop::collection::vec(any::<u8>(), 0..512),
        keys in prop::collection::vec("[a-z0-9/]{0,24}", 0..12),
        flag in any::<bool>(),
        id in any::<u64>(),
        sizes in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        let req = req_from(sel, path.clone(), payload.clone());
        let (gathered, plain) = both_frames(&req, FrameKind::Request, id, &sizes);
        prop_assert_eq!(gathered, plain);

        let resp = resp_from(sel, path, payload, keys, flag);
        let (gathered, plain) = both_frames(&resp, FrameKind::Response, id, &sizes);
        prop_assert_eq!(gathered, plain);
    }
}

/// Wire version 1, byte for byte: the value-carrying messages encode as
/// they always have, whichever writer sends them.
#[test]
fn value_carrying_encodings_are_pinned() {
    let data = CacheResponse::Data {
        path: "d/1".into(),
        bytes: ValueBuf::from(vec![0xAA, 0xBB]),
        source: ServeSource::PfsFetch,
    };
    let want: &[u8] = &[1, 0, 0, 0, 3, b'd', b'/', b'1', 0, 0, 0, 2, 0xAA, 0xBB, 2];
    assert_eq!(data.encode_vec(), want);

    let put = CacheRequest::Put {
        path: "p".into(),
        bytes: ValueBuf::from(vec![7, 8, 9]),
    };
    let want: &[u8] = &[3, 0, 0, 0, 1, b'p', 0, 0, 0, 3, 7, 8, 9];
    assert_eq!(put.encode_vec(), want);

    let (frame, plain) = both_frames(&data, FrameKind::Response, 0x0102, &[6]);
    assert_eq!(frame, plain);
    let mut want_frame = vec![0, 0, 0, 24, 2, 0, 0, 0, 0, 0, 0, 1, 2];
    want_frame.extend_from_slice(&data.encode_vec());
    assert_eq!(frame, want_frame);
}
