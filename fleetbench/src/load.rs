//! The load generator: a closed loop of reader threads sharing one
//! `HvacClient`, reading every file once per epoch in a seeded shuffled
//! order, verifying every byte, with a stall watchdog.

use crate::fleet::{kill_pids, Fleet, NODES};
use crate::stats::digest;
use crate::trace::{take_children, ChildSpan};
use ftc_core::{HvacClient, ReadVia};
use ftc_storage::{synth_bytes, Pfs, ValueBuf};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A read still running after this long is a stall: the watchdog kills
/// the fleet so the read fails instead of hanging the run. The client's
/// own retry budget ends every read within 10 s.
const READ_DEADLINE: Duration = Duration::from_secs(15);

/// After a stall kill, how long the readers get to come back before the
/// run gives up.
const STALL_GRACE: Duration = Duration::from_secs(20);

/// The training dataset: synthetic file contents (a pure function of the
/// path, exactly as every server stages them) with each file's expected
/// length and digest, computed at set-up.
pub struct Dataset {
    pub prefix: String,
    pub size: usize,
    pub paths: Vec<String>,
    pub values: Vec<ValueBuf>,
    digests: Vec<u64>,
}

/// The path of file `i`, named as `ftc-server --stage` names it.
pub fn dataset_path(prefix: &str, i: usize) -> String {
    format!("{prefix}/f{i:05}")
}

impl Dataset {
    pub fn new(prefix: &str, files: usize, size: usize) -> Dataset {
        let paths: Vec<String> = (0..files).map(|i| dataset_path(prefix, i)).collect();
        let values: Vec<ValueBuf> = paths
            .iter()
            .map(|p| ValueBuf::from(synth_bytes(p, size)))
            .collect();
        let digests = values.iter().map(|v| digest(v)).collect();
        Dataset {
            prefix: prefix.to_string(),
            size,
            paths,
            values,
            digests,
        }
    }

    /// The `--stage` argument that makes a server stage this dataset.
    pub fn stage_spec(&self) -> String {
        format!("{}:{}:{}", self.prefix, self.paths.len(), self.size)
    }

    /// Put the dataset on a PFS (the client's own copy, for its direct
    /// reads and for recovery).
    pub fn stage_into(&self, pfs: &Pfs) {
        for (p, v) in self.paths.iter().zip(&self.values) {
            pfs.stage(p, v.clone());
        }
    }

    fn verify(&self, idx: usize, data: &[u8]) -> bool {
        data.len() == self.size && digest(data) == self.digests[idx]
    }
}

/// Deliberate corruption of one received value, to prove the check fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    None,
    /// Flip one byte of the value.
    Flip,
    /// Drop the value's last byte.
    Truncate,
}

/// Which read of the run the sabotage hits.
const SABOTAGE_AT: u64 = 100;

impl Sabotage {
    fn received<'a>(self, n: u64, data: &'a [u8]) -> Cow<'a, [u8]> {
        if n != SABOTAGE_AT || data.is_empty() {
            return Cow::Borrowed(data);
        }
        match self {
            Sabotage::None => Cow::Borrowed(data),
            Sabotage::Flip => {
                let mut v = data.to_vec();
                v[data.len() / 2] ^= 0x40;
                Cow::Owned(v)
            }
            Sabotage::Truncate => Cow::Borrowed(&data[..data.len() - 1]),
        }
    }
}

/// A seeded permutation of `0..n` (SplitMix64-driven Fisher–Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut v: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// Turns a stalled read into a failed one: reader threads stamp the start
/// of each read, and a read older than [`READ_DEADLINE`] gets the fleet
/// killed, so the client's calls fail fast.
pub struct Watchdog {
    base: Instant,
    /// Per reader: start of the read in flight, in ns since `base` plus
    /// one; zero when idle.
    slots: Vec<AtomicU64>,
    pids: Mutex<Vec<u32>>,
    pub stalls: AtomicU64,
    stop: AtomicBool,
}

impl Watchdog {
    pub fn new(readers: usize) -> Watchdog {
        Watchdog {
            base: Instant::now(),
            slots: (0..readers).map(|_| AtomicU64::new(0)).collect(),
            pids: Mutex::new(Vec::new()),
            stalls: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        }
    }

    pub fn watch_fleet(&self, pids: Vec<u32>) {
        *self.pids.lock().expect("watchdog lock poisoned") = pids;
    }

    fn begin(&self, slot: usize) {
        let ns = self.base.elapsed().as_nanos() as u64 + 1;
        // ordering: Relaxed — a timestamp polled by the watchdog only.
        self.slots[slot].store(ns, Ordering::Relaxed);
    }

    fn end(&self, slot: usize) {
        // ordering: Relaxed — see begin.
        self.slots[slot].store(0, Ordering::Relaxed);
    }

    fn oldest(&self) -> Option<Duration> {
        let now = self.base.elapsed().as_nanos() as u64 + 1;
        self.slots
            .iter()
            // ordering: Relaxed — see begin.
            .map(|s| s.load(Ordering::Relaxed))
            .filter(|&s| s != 0)
            .map(|s| Duration::from_nanos(now.saturating_sub(s)))
            .max()
    }

    pub fn stop(&self) {
        // ordering: Relaxed — a plain flag polled every 50 ms.
        self.stop.store(true, Ordering::Relaxed);
    }

    /// The watchdog loop; returns when [`stop`](Self::stop) is called. If
    /// the readers do not recover within [`STALL_GRACE`] of a stall kill,
    /// the run ends here with a failed result.
    pub fn run(&self) {
        let mut killed_at: Option<Instant> = None;
        // ordering: Relaxed — see stop.
        while !self.stop.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(50));
            match (self.oldest(), killed_at) {
                (Some(age), None) if age > READ_DEADLINE => {
                    eprintln!("fleetbench: a read stalled for {age:?}; killing the fleet");
                    // ordering: Relaxed — a statistic.
                    self.stalls.fetch_add(1, Ordering::Relaxed);
                    kill_pids(&self.pids.lock().expect("watchdog lock poisoned"));
                    killed_at = Some(Instant::now());
                }
                (Some(_), Some(t)) if t.elapsed() > STALL_GRACE => {
                    eprintln!("fleetbench: readers did not recover from a stall");
                    println!(
                        "{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}"
                    );
                    std::process::exit(1);
                }
                (None, Some(_)) => killed_at = None,
                _ => {}
            }
        }
    }
}

/// The failover scenario's shared state: which server freezes, which keys
/// it owned, and what the readers saw after the freeze.
pub struct Failover<'a> {
    pub fleet: &'a Fleet,
    pub victim: usize,
    /// Per file: owned by the victim before the freeze.
    pub victim_keys: Vec<bool>,
    pub frozen_at: OnceLock<Instant>,
    /// First read of a victim-owned key served from a survivor's NVMe.
    pub first_survivor_hit: Mutex<Option<Instant>>,
    /// Per server: reads of victim-owned keys it served after the freeze.
    pub victim_key_reads: [AtomicU64; NODES],
}

impl<'a> Failover<'a> {
    pub fn new(fleet: &'a Fleet, victim: usize, victim_keys: Vec<bool>) -> Self {
        Failover {
            fleet,
            victim,
            victim_keys,
            frozen_at: OnceLock::new(),
            first_survivor_hit: Mutex::new(None),
            victim_key_reads: Default::default(),
        }
    }

    fn observe(&self, idx: usize, via: ReadVia, done: Instant) {
        if self.frozen_at.get().is_none() || !self.victim_keys[idx] {
            return;
        }
        let node = match via {
            ReadVia::ServerNvme(n) | ReadVia::ServerPfsFetch(n) => n.0 as usize,
            ReadVia::DirectPfs => return,
        };
        if node < NODES {
            // ordering: Relaxed — a statistic read after the epoch.
            self.victim_key_reads[node].fetch_add(1, Ordering::Relaxed);
        }
        if matches!(via, ReadVia::ServerNvme(_)) && node != self.victim {
            let mut first = self.first_survivor_hit.lock().expect("lock poisoned");
            first.get_or_insert(done);
        }
    }
}

/// One traced read: its span, the time of the `owner_of` lookup made just
/// before it, and the child spans its thread recorded during it.
pub struct ReadTrace {
    pub start: Instant,
    pub end: Instant,
    pub owner_ns: u64,
    pub children: Vec<ChildSpan>,
}

/// What one epoch measured.
#[derive(Default)]
pub struct EpochOut {
    pub lat_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub wall: Duration,
    pub traces: Vec<ReadTrace>,
}

/// The reader pool and what it checks.
pub struct Readers<'a> {
    pub client: &'a HvacClient,
    pub ds: &'a Dataset,
    pub threads: usize,
    pub traced: bool,
    pub sabotage: Sabotage,
    pub watchdog: &'a Watchdog,
    /// Reads made so far in the run, numbering reads for the sabotage.
    pub reads_done: &'a AtomicU64,
}

impl Readers<'_> {
    /// Read every file once in `order`; freeze the failover victim when
    /// the shared cursor reaches `freeze_at`.
    pub fn epoch(
        &self,
        order: &[u32],
        freeze_at: Option<usize>,
        failover: Option<&Failover<'_>>,
    ) -> EpochOut {
        let cursor = AtomicUsize::new(0);
        let start = Instant::now();
        let mut parts: Vec<EpochOut> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.threads)
                .map(|slot| {
                    let cursor = &cursor;
                    s.spawn(move || self.reader(slot, order, cursor, freeze_at, failover))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reader thread panicked"))
                .collect()
        });
        let mut out = EpochOut {
            wall: start.elapsed(),
            ..EpochOut::default()
        };
        for p in &mut parts {
            out.lat_ns.append(&mut p.lat_ns);
            out.attempted += p.attempted;
            out.failed += p.failed;
            out.traces.append(&mut p.traces);
        }
        out
    }

    fn reader(
        &self,
        slot: usize,
        order: &[u32],
        cursor: &AtomicUsize,
        freeze_at: Option<usize>,
        failover: Option<&Failover<'_>>,
    ) -> EpochOut {
        let mut out = EpochOut::default();
        loop {
            // ordering: Relaxed — the cursor only hands out indices; the
            // RMW alone makes each index go to exactly one reader.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= order.len() {
                break;
            }
            if let (Some(at), Some(f)) = (freeze_at, failover) {
                if i == at {
                    f.fleet.freeze(f.victim);
                    let _ = f.frozen_at.set(Instant::now());
                }
            }
            let idx = order[i] as usize;
            let path = &self.ds.paths[idx];
            let mut owner_ns = 0;
            if self.traced {
                let t = Instant::now();
                std::hint::black_box(self.client.owner_of(std::hint::black_box(path)));
                owner_ns = t.elapsed().as_nanos() as u64;
                take_children();
            }
            self.watchdog.begin(slot);
            let start = Instant::now();
            let result = self.client.read_traced(path);
            let end = Instant::now();
            self.watchdog.end(slot);
            // ordering: Relaxed — only numbers reads for the sabotage.
            let n = self.reads_done.fetch_add(1, Ordering::Relaxed);
            let ok = match &result {
                Ok(r) => self.ds.verify(idx, &self.sabotage.received(n, &r.bytes)),
                Err(e) => {
                    if out.failed < 3 {
                        eprintln!("fleetbench: read {path} failed: {e}");
                    }
                    false
                }
            };
            if !ok && result.is_ok() {
                eprintln!("fleetbench: wrong bytes for {path}");
            }
            out.attempted += 1;
            out.failed += u64::from(!ok);
            out.lat_ns.push(end.duration_since(start).as_nanos() as u64);
            if let (Some(f), Ok(r)) = (failover, &result) {
                f.observe(idx, r.via, end);
            }
            if self.traced {
                out.traces.push(ReadTrace {
                    start,
                    end,
                    owner_ns,
                    children: take_children(),
                });
            }
        }
        out
    }
}
