//! Counted costs of the TCP bytes path, as a deterministic gate.
//!
//! Wall-clock benchmarks of a read wander with the host; the number of
//! large heap allocations per read does not. A counting global
//! allocator watches the whole process — the server's reply path and
//! the client's frame read and hand-off alike — while a client reads a
//! 256 KiB value over loopback `TcpTransport`. Each read must cost
//! exactly one allocation of 64 KiB or more: the client's frame body,
//! which the value then lives in all the way to the reader. Any copy of
//! the value (a staging buffer, a re-encode, a detach) is a second one.
//!
//! The file holds a single test: the counter is process-global, so a
//! second test running in parallel would perturb it.

use bytes::Bytes;
use ftc_hashring::NodeId;
use ftc_net::xport::Transport;
use ftc_storage::ValueBuf;
use ftc_wire::codec::{encode_spliced, put_bulk_len, put_str, CodecError, Reader, Wire};
use ftc_wire::tcp::{TcpConfig, TcpTransport};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Allocations at or above this size count as "large".
const LARGE: usize = 64 * 1024;
const VALUE_LEN: usize = 256 * 1024;
const READS: usize = 32;

static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn note(size: usize) {
    if size >= LARGE {
        // ordering: Relaxed - a plain event counter read after the
        // threads it counts have handed their results over.
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; counting has no
// effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Growing a buffer into the large range (a scratch buffer
        // sized by the largest value seen) is a large allocation too.
        if new_size > layout.size() {
            note(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn large_allocs() -> usize {
    // ordering: Relaxed - see `note`.
    LARGE_ALLOCS.load(Ordering::Relaxed)
}

/// Read request: a path.
#[derive(Debug)]
struct Get(String);

impl Wire for Get {
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, &self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Get(r.string("Get.path")?))
    }
}

/// Reply shaped like the cache's `Data`: path, value, source tag.
#[derive(Debug)]
struct Data {
    path: String,
    bytes: ValueBuf,
    source: u8,
}

impl Wire for Data {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_spliced(self, out);
    }
    fn encode_gather(&self, out: &mut Vec<u8>) -> Option<(usize, &[u8])> {
        put_str(out, &self.path);
        let at = put_bulk_len(out, &self.bytes);
        out.push(self.source);
        Some((at, &self.bytes))
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let path = r.string("Data.path")?;
        let (data, off, len) = r.view("Data.bytes")?.into_parts();
        Ok(Data {
            path,
            bytes: ValueBuf::from_shared(data, off, len),
            source: r.u8("Data.source")?,
        })
    }
}

fn digest(b: &[u8]) -> u64 {
    b.iter().fold(0xcbf2_9ce4_8422_2325, |h, &x| {
        (h ^ u64::from(x)).wrapping_mul(0x100_0000_01b3)
    })
}

#[test]
fn one_large_allocation_per_256k_tcp_read() {
    let addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("reserve a loopback port");
    let t: TcpTransport<Get, Data> = TcpTransport::from_peer_list(&[addr], TcpConfig::default());
    let listener = Transport::<Get, Data>::register(&t, NodeId(0)).expect("bind server");

    // The server's cached value: allocated once, before counting, and
    // shared by every reply.
    let value = ValueBuf::from(
        (0..VALUE_LEN)
            .map(|i| (i * 7 + 3) as u8)
            .collect::<Vec<u8>>(),
    );
    let want = digest(&value);
    let served = value.clone();
    let server = std::thread::spawn(move || {
        let mut replies = 0;
        while replies < READS + 2 {
            if let Some(inc) = listener.accept(Duration::from_millis(20)) {
                let path = inc.req().0.clone();
                inc.reply(Data {
                    path,
                    bytes: served.clone(),
                    source: 1,
                });
                replies += 1;
            }
        }
    });

    let caller = t.caller(NodeId(9));
    let read = |i: usize| {
        let d = caller
            .call(NodeId(0), Get(format!("f/{i}")), Duration::from_secs(5))
            .expect("read served");
        assert_eq!(d.path, format!("f/{i}"));
        // The client's hand-off, as `HvacClient` returns it to a reader.
        let out: Bytes = d.bytes.into_bytes();
        assert_eq!(out.len(), VALUE_LEN);
        assert_eq!(digest(&out), want, "read {i} returned the wrong bytes");
    };

    // Two warm-up reads dial the connection and start its threads.
    let before_warm_up = large_allocs();
    read(0);
    read(1);
    let warm_up = large_allocs() - before_warm_up;

    let before = large_allocs();
    for i in 0..READS {
        read(i + 2);
    }
    let measured = large_allocs() - before;
    server.join().expect("server thread");
    eprintln!("large allocations: {measured} over {READS} reads ({warm_up} over 2 warm-up reads)");
    assert_eq!(
        measured, READS,
        "expected exactly one allocation >= {LARGE} B per {VALUE_LEN} B read"
    );
    assert_eq!(warm_up, 2, "the first reads must not grow any buffer");
}
