//! Spans recorded from outside the program: timing wrappers around the
//! public transport and storage traits, kept in memory and analysed after
//! the run.
//!
//! Client side, a [`TimedTransport`] hands out callers that time every
//! `Caller::call`, and a [`TimedStore`] behind `Pfs::with_store` times
//! every PFS `get`. Both push child spans onto a thread-local list that
//! the reader thread drains after each `HvacClient::read_traced`, so the
//! children of one read are exactly the calls its own thread made.
//!
//! Server side, the same wrappers time `Listener::accept` to the
//! `Inbound::reply` call inside the traced server process (`fleetbench serve`),
//! which prints its spans when its stdin closes.

use ftc_core::{CacheRequest, CacheResponse};
use ftc_hashring::NodeId;
use ftc_net::xport::{Caller, Inbound, Listener, Transport};
use ftc_net::{HistoryRecorder, RpcError, TraceEventKind};
use ftc_storage::{ObjectStore, ValueBuf};
use ftc_time::ClockHandle;
use std::cell::RefCell;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What a child span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildKind {
    /// One `Caller::call`.
    Rpc,
    /// One PFS `get` on the client's own PFS (direct reads, recovery).
    Pfs,
}

/// One span under a client read.
#[derive(Debug, Clone)]
pub struct ChildSpan {
    pub kind: ChildKind,
    pub start: Instant,
    pub end: Instant,
    /// Destination node of an RPC.
    pub to: u32,
    /// Path of a `Read` RPC that was answered; `None` otherwise.
    pub read_path: Option<String>,
}

impl ChildSpan {
    pub fn ns(&self) -> u64 {
        self.end.duration_since(self.start).as_nanos() as u64
    }
}

thread_local! {
    static CHILDREN: RefCell<Vec<ChildSpan>> = const { RefCell::new(Vec::new()) };
}

fn push_child(span: ChildSpan) {
    CHILDREN.with(|c| c.borrow_mut().push(span));
}

/// Take the child spans this thread recorded since the last call.
pub fn take_children() -> Vec<ChildSpan> {
    CHILDREN.with(|c| std::mem::take(&mut *c.borrow_mut()))
}

/// RPC failures seen through a [`TimedTransport`], by kind.
#[derive(Debug, Default)]
pub struct RpcErrors {
    pub timeout: AtomicU64,
    pub disconnected: AtomicU64,
}

/// A transport whose callers time each call (client side) and whose
/// listeners time each request from accept to reply (server side).
pub struct TimedTransport<T> {
    pub inner: T,
    pub errors: Arc<RpcErrors>,
    /// Server spans, when this transport hosts a traced server.
    pub served: Arc<ServerLog>,
}

impl<T> TimedTransport<T> {
    pub fn new(inner: T) -> Self {
        TimedTransport {
            inner,
            errors: Arc::default(),
            served: Arc::default(),
        }
    }
}

impl<T: Transport<CacheRequest, CacheResponse>> Transport<CacheRequest, CacheResponse>
    for TimedTransport<T>
{
    fn clock(&self) -> ClockHandle {
        self.inner.clock()
    }

    fn register(&self, node: NodeId) -> io::Result<Box<dyn Listener<CacheRequest, CacheResponse>>> {
        Ok(Box::new(TimedListener {
            inner: self.inner.register(node)?,
            log: Arc::clone(&self.served),
        }))
    }

    fn caller(&self, me: NodeId) -> Box<dyn Caller<CacheRequest, CacheResponse>> {
        Box::new(TimedCaller {
            inner: self.inner.caller(me),
            errors: Arc::clone(&self.errors),
        })
    }
}

struct TimedCaller {
    inner: Box<dyn Caller<CacheRequest, CacheResponse>>,
    errors: Arc<RpcErrors>,
}

impl Caller<CacheRequest, CacheResponse> for TimedCaller {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn clock(&self) -> ClockHandle {
        self.inner.clock()
    }

    fn call(
        &self,
        to: NodeId,
        req: CacheRequest,
        timeout: Duration,
    ) -> Result<CacheResponse, RpcError> {
        let path = match &req {
            CacheRequest::Read { path } => Some(path.clone()),
            _ => None,
        };
        let start = Instant::now();
        let out = self.inner.call(to, req, timeout);
        let end = Instant::now();
        let counter = match &out {
            Ok(_) => None,
            Err(RpcError::Timeout { .. }) => Some(&self.errors.timeout),
            Err(RpcError::Disconnected(_)) => Some(&self.errors.disconnected),
            Err(_) => None,
        };
        if let Some(c) = counter {
            // ordering: Relaxed — a statistic read after the run.
            c.fetch_add(1, Ordering::Relaxed);
        }
        push_child(ChildSpan {
            kind: ChildKind::Rpc,
            start,
            end,
            to: to.0,
            read_path: path.filter(|_| out.is_ok()),
        });
        out
    }

    fn history(&self) -> Option<Arc<HistoryRecorder>> {
        self.inner.history()
    }
}

/// An object store that times every `get`. On the client each get is
/// also a child span of the read in progress on that thread.
pub struct TimedStore<S> {
    inner: S,
    as_child: bool,
    pub get_ns: Mutex<Vec<u64>>,
}

impl<S> TimedStore<S> {
    pub fn new(inner: S, as_child: bool) -> Self {
        TimedStore {
            inner,
            as_child,
            get_ns: Mutex::new(Vec::new()),
        }
    }

    pub fn take_get_ns(&self) -> Vec<u64> {
        std::mem::take(&mut *self.get_ns.lock().expect("get_ns lock poisoned"))
    }
}

impl<S: ObjectStore> ObjectStore for TimedStore<S> {
    fn get(&self, key: &str) -> Option<ValueBuf> {
        let start = Instant::now();
        let v = self.inner.get(key);
        let end = Instant::now();
        self.get_ns
            .lock()
            .expect("get_ns lock poisoned")
            .push(end.duration_since(start).as_nanos() as u64);
        if self.as_child {
            push_child(ChildSpan {
                kind: ChildKind::Pfs,
                start,
                end,
                to: u32::MAX,
                read_path: None,
            });
        }
        v
    }

    fn put(&self, key: &str, value: ValueBuf) {
        self.inner.put(key, value)
    }

    fn remove(&self, key: &str) -> bool {
        self.inner.remove(key)
    }

    fn contains(&self, key: &str) -> bool {
        self.inner.contains(key)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn total_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }
}

/// One request a traced server answered.
#[derive(Debug, Clone)]
pub struct ServerSpan {
    pub from: u32,
    /// `R` read, `P` put, `O` other.
    pub kind: char,
    /// `Listener::backlog()` right after this request was accepted.
    pub backlog: u64,
    /// Accept to the reply call, in nanoseconds.
    pub service_ns: u64,
    pub path: String,
}

impl ServerSpan {
    /// The line a traced server prints for this span.
    pub fn render(&self) -> String {
        format!(
            "SPAN {} {} {} {} {}",
            self.from, self.kind, self.backlog, self.service_ns, self.path
        )
    }

    /// Parse a line printed by [`render`](Self::render).
    pub fn parse(line: &str) -> Option<ServerSpan> {
        let mut f = line.strip_prefix("SPAN ")?.splitn(5, ' ');
        Some(ServerSpan {
            from: f.next()?.parse().ok()?,
            kind: f.next()?.chars().next()?,
            backlog: f.next()?.parse().ok()?,
            service_ns: f.next()?.parse().ok()?,
            path: f.next()?.to_string(),
        })
    }
}

/// The spans a traced server records, in reply order.
#[derive(Debug, Default)]
pub struct ServerLog {
    pub spans: Mutex<Vec<ServerSpan>>,
}

struct TimedListener {
    inner: Box<dyn Listener<CacheRequest, CacheResponse>>,
    log: Arc<ServerLog>,
}

impl Listener<CacheRequest, CacheResponse> for TimedListener {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn accept(&self, timeout: Duration) -> Option<Box<dyn Inbound<CacheRequest, CacheResponse>>> {
        let inc = self.inner.accept(timeout)?;
        let accepted = Instant::now();
        let backlog = self.inner.backlog() as u64;
        Some(Box::new(TimedInbound {
            inner: inc,
            accepted,
            backlog,
            log: Arc::clone(&self.log),
        }))
    }

    fn backlog(&self) -> usize {
        self.inner.backlog()
    }
}

struct TimedInbound {
    inner: Box<dyn Inbound<CacheRequest, CacheResponse>>,
    accepted: Instant,
    backlog: u64,
    log: Arc<ServerLog>,
}

impl TimedInbound {
    fn describe(&self) -> (u32, char, String) {
        let (kind, path) = match self.inner.req() {
            CacheRequest::Read { path } => ('R', path.clone()),
            CacheRequest::Put { path, .. } => ('P', path.clone()),
            _ => ('O', "-".to_string()),
        };
        (self.inner.from().0, kind, path)
    }

    /// Record the span from accept to the reply call, then answer through
    /// `send`. Encoding and writing the reply belong to the wire: a large
    /// reply's `write` returns only as the client drains it, after the
    /// client may already hold the value.
    fn answer(self, send: impl FnOnce(Box<dyn Inbound<CacheRequest, CacheResponse>>)) {
        let service_ns = self.accepted.elapsed().as_nanos() as u64;
        let (from, kind, path) = self.describe();
        send(self.inner);
        self.log
            .spans
            .lock()
            .expect("server log lock poisoned")
            .push(ServerSpan {
                from,
                kind,
                backlog: self.backlog,
                service_ns,
                path,
            });
    }
}

impl Inbound<CacheRequest, CacheResponse> for TimedInbound {
    fn from(&self) -> NodeId {
        self.inner.from()
    }

    fn served_by(&self) -> NodeId {
        self.inner.served_by()
    }

    fn req(&self) -> &CacheRequest {
        self.inner.req()
    }

    fn absorb(&mut self) {
        self.inner.absorb()
    }

    fn trace_state(&mut self, kind: TraceEventKind) {
        self.inner.trace_state(kind)
    }

    fn history(&self) -> Option<Arc<HistoryRecorder>> {
        self.inner.history()
    }

    fn reply(self: Box<Self>, resp: CacheResponse) {
        (*self).answer(|inner| inner.reply(resp));
    }

    fn reply_sized(self: Box<Self>, resp: CacheResponse) {
        (*self).answer(|inner| inner.reply_sized(resp));
    }

    fn ignore(self: Box<Self>) {
        self.inner.ignore()
    }
}
