//! `fleetbench` — the repository's benchmark: training-read workloads over
//! a real three-process `ftc-server` fleet on loopback TCP.
//!
//! ```text
//! fleetbench --server-bin PATH --workload hit-small|spill-large|failover \
//!     --seed N --seconds S --trace 0|1 [--sabotage flip|truncate]
//! ```
//!
//! Each run is a few rounds. A round launches a fresh fleet, fills it
//! with one warm-up epoch (the round's set-up), measures whole shuffled
//! epochs, and tears the fleet down. `--trace 0` rounds use the shipped
//! `ftc-server` and an unwrapped client and report the end-to-end
//! metrics. `--trace 1` alternates such rounds with traced ones, whose
//! servers are this binary's `serve` mode, and reports the per-layer
//! metrics plus the tracing overhead. Every byte read is checked; a wrong
//! byte or a failed read makes the run exit 1. See `NOTES.md`.

mod fleet;
mod layers;
mod load;
mod serve;
mod stats;
mod trace;

use fleet::{
    cpu_delta, cpu_snapshot, free_ports, host_steal, scrape, Fleet, Scrape, ServerCmd, NODES,
};
use ftc_core::{
    CacheRequest, CacheResponse, ClientMetricsSnapshot, FtConfig, FtPolicy, HvacClient,
    RecoveryConfig, RecoveryEngine,
};
use ftc_hashring::NodeId;
use ftc_net::xport::Transport;
use ftc_storage::{MemStore, ObjectStore, Pfs};
use ftc_wire::{TcpConfig, TcpTransport};
use load::{permutation, Dataset, EpochOut, Failover, ReadTrace, Readers, Sabotage, Watchdog};
use stats::{median, Report};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{RpcErrors, TimedStore, TimedTransport};

/// One workload: the dataset and the fleet's NVMe tier.
pub struct Workload {
    pub name: &'static str,
    pub files: usize,
    pub size: usize,
    /// NVMe capacity per server, MiB (`ftc-server --nvme-mb`).
    pub nvme_mb: u64,
    /// NVMe lock stripes per server (`ftc-server --nvme-shards`).
    pub nvme_shards: usize,
    pub failover: bool,
}

const WORKLOADS: [Workload; 3] = [
    // 16 MiB of 4 KiB files: well inside the fleet's 192 MiB NVMe tier.
    // Runs by hand; BENCHMARK.json leaves it out so that the two listed
    // workloads get runs long enough to be steady (see NOTES.md).
    Workload {
        name: "hit-small",
        files: 4096,
        size: 4096,
        nvme_mb: 64,
        nvme_shards: 16,
        failover: false,
    },
    // 96 MiB of 256 KiB files over 3 × 8 MiB of NVMe: four times the
    // tier. Two stripes of 4 MiB each hold 16 files apiece. 1 MiB files
    // lost half their speed whenever the host's other tenants got busy.
    Workload {
        name: "spill-large",
        files: 384,
        size: 256 << 10,
        nvme_mb: 8,
        nvme_shards: 2,
        failover: false,
    },
    // 48 MiB of 64 KiB files, which the two survivors still hold.
    Workload {
        name: "failover",
        files: 768,
        size: 64 << 10,
        nvme_mb: 64,
        nvme_shards: 16,
        failover: true,
    },
];

/// The client's node id, as `ftc-client` defaults it.
const CLIENT_ID: u32 = 100;
/// The server the failover workload freezes.
const VICTIM: usize = 1;
/// Measured epochs of a failover round: the freeze lands in the second,
/// and the victim stays frozen through the last two.
const FAILOVER_EPOCHS: usize = 4;
const FREEZE_EPOCH: usize = 1;
/// Minimum rounds per run, so set-up time is a median of several.
const MIN_ROUNDS: usize = 3;
/// Measured seconds per round of a steady workload: each fleet measures a
/// few seconds, so a run averages over several fleets.
const ROUND_SECONDS: f64 = 5.0;
/// Reads a steady round measures at least, however slow the host: enough
/// for 20 samples beyond its p99.
const MIN_ROUND_READS: usize = 2000;
/// The quiet interval over which a server's idle CPU is measured.
const IDLE_WINDOW: Duration = Duration::from_millis(300);

/// End-to-end metrics, in the order `BENCHMARK.json` lists them.
/// `read_p99_us` is printed but not listed: on a shared host it follows
/// the other tenants (see `NOTES.md`), so it cannot hold a bound.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "reads_per_s",
    "read_p50_us",
    "server_cpu_us_per_read",
    "epoch_s",
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        if let Err(e) = serve::main(&argv[1..]) {
            eprintln!("fleetbench serve: {e}");
            std::process::exit(2);
        }
        return;
    }
    match run(&argv) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("fleetbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Everything fixed for a run.
struct RunCtx<'a> {
    w: &'a Workload,
    ds: Dataset,
    seed: u64,
    seconds: f64,
    trace_mode: bool,
    server_bin: String,
    self_bin: String,
    threads: usize,
    sabotage: Sabotage,
    watchdog: Watchdog,
    reads_done: AtomicU64,
}

/// What the failover scenario measured in one round.
#[derive(Default, Clone)]
struct FailoverOut {
    degraded_ms: Option<f64>,
    declare_ms: Option<f64>,
    quiesce_ms: Option<f64>,
    recached_files: u64,
    lost_files: usize,
    pfs_fetches_after_freeze: f64,
    victim_key_reads: [u64; NODES],
}

/// What one round measured.
struct RoundOut {
    traced: bool,
    setup_s: f64,
    attempted: u64,
    failed: u64,
    lat_ns: Vec<u64>,
    epoch_s: Vec<f64>,
    /// Per measured epoch: the epoch's median read latency, microseconds.
    epoch_p50_us: Vec<f64>,
    /// Per measured epoch of a steady workload: server CPU time, ns.
    epoch_cpu_ns: Vec<u64>,
    measured_s: f64,
    cpu_ns: u64,
    /// Share of the host's CPU time stolen by the hypervisor over the
    /// measured epochs: noise from outside, reported as provenance.
    steal_pct: f64,
    idle_cpu_ms_per_s: Option<f64>,
    /// Per server, counters over the measured epochs (`None`: frozen).
    scrapes: Vec<Option<Scrape>>,
    client: ClientMetricsSnapshot,
    failover: Option<FailoverOut>,
    // Traced rounds only:
    warm_traces: Vec<ReadTrace>,
    traces: Vec<ReadTrace>,
    server_lines: Vec<Vec<String>>,
    rpc_errors: Option<Arc<RpcErrors>>,
}

fn run(argv: &[String]) -> Result<i32, String> {
    let args = serve::parse_args(argv)?;
    let wname: String = serve::flag(&args, "workload")?;
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == wname)
        .ok_or_else(|| format!("unknown workload {wname:?}"))?;
    let seed: u64 = serve::flag(&args, "seed")?;
    let seconds: f64 = serve::flag(&args, "seconds")?;
    let trace_mode = serve::flag::<u8>(&args, "trace")? == 1;
    let server_bin: String = serve::flag(&args, "server-bin")?;
    if !std::path::Path::new(&server_bin).is_file() {
        return Err(format!("no ftc-server binary at {server_bin}"));
    }
    let sabotage = match args.get("sabotage").map(String::as_str) {
        None => Sabotage::None,
        Some("flip") => Sabotage::Flip,
        Some("truncate") => Sabotage::Truncate,
        Some(other) => return Err(format!("--sabotage: unknown mode {other:?}")),
    };
    let self_bin = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .to_string_lossy()
        .into_owned();
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());

    // Set-up outside every timed interval: file contents and digests.
    let ctx = RunCtx {
        w,
        ds: Dataset::new("bench", w.files, w.size),
        seed,
        seconds,
        trace_mode,
        server_bin,
        self_bin,
        threads,
        sabotage,
        watchdog: Watchdog::new(threads),
        reads_done: AtomicU64::new(0),
    };
    let rounds = std::thread::scope(|s| {
        s.spawn(|| ctx.watchdog.run());
        let r = run_rounds(&ctx);
        ctx.watchdog.stop();
        r
    })?;
    report(&ctx, &rounds)
}

/// Rounds in order: `--trace 0` runs untraced rounds only; `--trace 1`
/// alternates untraced and traced ones. Steady workloads split the
/// measured seconds evenly; failover repeats its short fixed scenario,
/// whose set-up costs as much as its epochs, until the whole rounds have
/// taken the seconds.
fn run_rounds(ctx: &RunCtx<'_>) -> Result<Vec<RoundOut>, String> {
    let kinds = if ctx.trace_mode { 2 } else { 1 };
    let min = if ctx.trace_mode { 2 } else { MIN_ROUNDS };
    let per_kind = min.max((ctx.seconds / ROUND_SECONDS / kinds as f64).round() as usize);
    let budget = ctx.seconds / (per_kind * kinds) as f64;
    let started = Instant::now();
    let mut rounds: Vec<RoundOut> = Vec::new();
    loop {
        let i = rounds.len();
        let done = if ctx.w.failover {
            i >= min * kinds
                && started.elapsed().as_secs_f64() >= ctx.seconds
                && i.is_multiple_of(kinds)
        } else {
            i >= per_kind * kinds
        };
        if done {
            return Ok(rounds);
        }
        let traced = ctx.trace_mode && i % 2 == 1;
        rounds.push(run_round(ctx, i as u64, traced, budget)?);
    }
}

fn round_seed(seed: u64, round: u64, epoch: u64) -> u64 {
    seed ^ round.wrapping_mul(0xA076_1D64_78BD_642F) ^ epoch.wrapping_mul(0xE703_7ED1_A0B4_28DB)
}

fn scrape_all(fleet: &Fleet, skip: Option<usize>) -> Vec<Option<Scrape>> {
    fleet
        .peers
        .iter()
        .enumerate()
        .map(|(n, a)| {
            if Some(n) == skip {
                None
            } else {
                scrape(*a).ok()
            }
        })
        .collect()
}

fn run_round(ctx: &RunCtx<'_>, round: u64, traced: bool, budget: f64) -> Result<RoundOut, String> {
    let w = ctx.w;
    let t0 = Instant::now();
    let cmd = ServerCmd {
        program: if traced {
            ctx.self_bin.clone()
        } else {
            ctx.server_bin.clone()
        },
        lead: if traced { vec!["serve".into()] } else { vec![] },
        flags: vec![
            "--stage".into(),
            ctx.ds.stage_spec(),
            "--nvme-mb".into(),
            w.nvme_mb.to_string(),
            "--nvme-shards".into(),
            w.nvme_shards.to_string(),
            "--prom".into(),
        ],
    };
    let peers = free_ports().map_err(|e| format!("cannot take ports: {e}"))?;
    let mut fleet = Fleet::launch(&cmd, peers)?;
    let pids = fleet.pids();
    ctx.watchdog.watch_fleet(pids.clone());

    // The client as `ftc-client` builds it: ring policy, 100 ms TTL,
    // recovery on, plus its own copy of the PFS.
    let tcp: TcpTransport<CacheRequest, CacheResponse> =
        TcpTransport::from_peer_list(&fleet.peers, TcpConfig::default());
    let timed_net = traced.then(|| TimedTransport::new(tcp.clone()));
    let net: &dyn Transport<CacheRequest, CacheResponse> = match &timed_net {
        Some(t) => t,
        None => &tcp,
    };
    let timed_store = traced.then(|| Arc::new(TimedStore::new(MemStore::new(), true)));
    let store: Arc<dyn ObjectStore> = match &timed_store {
        Some(s) => s.clone(),
        None => Arc::new(MemStore::new()),
    };
    let pfs = Arc::new(Pfs::with_store(store));
    ctx.ds.stage_into(&pfs);
    let config = FtConfig::for_policy(FtPolicy::RingRecache);
    let client = Arc::new(HvacClient::with_transport(
        NodeId(CLIENT_ID),
        net,
        Arc::clone(&pfs),
        NODES as u32,
        config,
    ));
    let engine = client
        .enable_recovery(RecoveryConfig::default())
        .map_err(|e| format!("cannot start recovery: {e}"))?;
    let readers = Readers {
        client: &client,
        ds: &ctx.ds,
        threads: ctx.threads,
        traced,
        sabotage: ctx.sabotage,
        watchdog: &ctx.watchdog,
        reads_done: &ctx.reads_done,
    };
    let n = ctx.ds.paths.len();
    let order = |e: u64| permutation(n, round_seed(ctx.seed, round, e));

    let warm = readers.epoch(&order(0), None, None);
    let setup_s = t0.elapsed().as_secs_f64();
    let mut out = RoundOut {
        traced,
        setup_s,
        attempted: warm.attempted,
        failed: warm.failed,
        lat_ns: Vec::new(),
        epoch_s: Vec::new(),
        epoch_p50_us: Vec::new(),
        epoch_cpu_ns: Vec::new(),
        measured_s: 0.0,
        cpu_ns: 0,
        steal_pct: 0.0,
        idle_cpu_ms_per_s: None,
        scrapes: Vec::new(),
        client: ClientMetricsSnapshot::default(),
        failover: None,
        warm_traces: warm.traces,
        traces: Vec::new(),
        server_lines: Vec::new(),
        rpc_errors: timed_net.as_ref().map(|t| Arc::clone(&t.errors)),
    };
    let absorb = |out: &mut RoundOut, e: EpochOut| {
        out.attempted += e.attempted;
        out.failed += e.failed;
        let lat = stats::sorted(e.lat_ns.iter().map(|&v| v as f64 / 1e3).collect());
        out.epoch_p50_us.push(stats::quantile(&lat, 0.5));
        out.lat_ns.extend(e.lat_ns);
        out.epoch_s.push(e.wall.as_secs_f64());
        out.measured_s += e.wall.as_secs_f64();
        out.traces.extend(e.traces);
    };

    let base = scrape_all(&fleet, None);
    let cpu0 = cpu_snapshot(&pids);
    let steal0 = host_steal();
    let mut frozen = None;
    if w.failover {
        let victim_keys: Vec<bool> = ctx
            .ds
            .paths
            .iter()
            .map(|p| client.owner_of(p) == Some(NodeId(VICTIM as u32)))
            .collect();
        let fo = Failover::new(&fleet, VICTIM, victim_keys);
        let stop = AtomicBool::new(false);
        let mut pfs_before = 0.0;
        let (declared, quiesced) = std::thread::scope(|s| {
            let monitor = s.spawn(|| watch_recovery(&client, &engine, &fo, &stop));
            for e in 0..FAILOVER_EPOCHS {
                let freeze_at = (e == FREEZE_EPOCH).then_some(n / 3);
                if e == FREEZE_EPOCH {
                    pfs_before =
                        pfs.total_reads() as f64 + survivors_pfs(&scrape_all(&fleet, Some(VICTIM)));
                }
                let ep = readers.epoch(&order(1 + e as u64), freeze_at, Some(&fo));
                absorb(&mut out, ep);
            }
            // ordering: Relaxed — a plain stop flag for the monitor.
            stop.store(true, Ordering::Relaxed);
            monitor.join().expect("recovery monitor panicked")
        });
        let frozen_at = *fo.frozen_at.get().expect("the freeze epoch ran");
        let ms_since = |t: Option<Instant>| t.map(|t| (t - frozen_at).as_secs_f64() * 1e3);
        let pfs_after = pfs.total_reads() as f64 + survivors_pfs(&scrape_all(&fleet, Some(VICTIM)));
        let lost = fo.victim_keys.iter().filter(|&&v| v).count();
        out.failover = Some(FailoverOut {
            degraded_ms: ms_since(*fo.first_survivor_hit.lock().expect("lock poisoned")),
            declare_ms: ms_since(declared),
            quiesce_ms: ms_since(quiesced),
            recached_files: engine.stats().recache_pushed,
            lost_files: lost,
            pfs_fetches_after_freeze: pfs_after - pfs_before,
            // ordering: Relaxed — the readers have been joined.
            victim_key_reads: fo
                .victim_key_reads
                .each_ref()
                .map(|c| c.load(Ordering::Relaxed)),
        });
        frozen = Some(VICTIM);
    } else {
        let mut e = 1;
        let mut cpu_prev = cpu0.clone();
        while out.measured_s < budget || out.lat_ns.len() < MIN_ROUND_READS {
            let ep = readers.epoch(&order(e), None, None);
            // Between epochs, outside their timing: the servers are idle.
            let cpu_now = cpu_snapshot(&pids);
            out.epoch_cpu_ns.push(cpu_delta(&cpu_prev, &cpu_now));
            cpu_prev = cpu_now;
            absorb(&mut out, ep);
            e += 1;
        }
    }
    out.cpu_ns = cpu_delta(&cpu0, &cpu_snapshot(&pids));
    if let (Some((s0, t0)), Some((s1, t1))) = (steal0, host_steal()) {
        out.steal_pct = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
    }
    // Idle CPU is reported for the shipped server only.
    if ctx.trace_mode && !traced {
        let c0 = cpu_snapshot(&pids);
        std::thread::sleep(IDLE_WINDOW);
        let idle_ns = cpu_delta(&c0, &cpu_snapshot(&pids));
        out.idle_cpu_ms_per_s = Some(idle_ns as f64 / 1e6 / IDLE_WINDOW.as_secs_f64());
    }
    out.scrapes = scrape_all(&fleet, frozen)
        .into_iter()
        .zip(&base)
        .map(|(end, base)| Some(end?.minus(base.as_ref()?)))
        .collect();
    out.client = client.metrics().snapshot();
    engine.stop();
    drop(client);
    ctx.watchdog.watch_fleet(Vec::new());
    if traced {
        if let Some(v) = frozen {
            fleet.kill(v);
        }
        out.server_lines = fleet.finish(Duration::from_secs(10));
    }
    Ok(out)
}

fn survivors_pfs(scrapes: &[Option<Scrape>]) -> f64 {
    scrapes.iter().flatten().map(|s| s.pfs_reads).sum()
}

/// Poll the client after the freeze: when the victim enters
/// `failed_nodes()` and when the recovery engine has started and drained
/// its work.
fn watch_recovery(
    client: &HvacClient,
    engine: &RecoveryEngine,
    fo: &Failover<'_>,
    stop: &AtomicBool,
) -> (Option<Instant>, Option<Instant>) {
    let (mut declared, mut quiesced) = (None, None);
    // ordering: Relaxed — see the store in run_round.
    while !stop.load(Ordering::Relaxed) && quiesced.is_none() {
        std::thread::sleep(Duration::from_millis(1));
        if fo.frozen_at.get().is_none() {
            continue;
        }
        if declared.is_none() && client.failed_nodes().contains(&NodeId(fo.victim as u32)) {
            declared = Some(Instant::now());
        }
        if declared.is_some() && engine.stats().recoveries_started > 0 && engine.quiesced() {
            quiesced = Some(Instant::now());
        }
    }
    (declared, quiesced)
}

/// One window of measured reads, for the gated end-to-end metrics.
struct Window {
    rate: f64,
    p50_us: f64,
    cpu_us: f64,
    epoch_s: f64,
}

/// The end-to-end metrics over a set of rounds.
fn end_to_end(w: &Workload, rounds: &[&RoundOut]) -> Result<Report, String> {
    let mut r = Report::default();
    let n = rounds.len();
    let setups: Vec<f64> = rounds.iter().map(|x| x.setup_s).collect();
    r.add(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {n} fleet set-ups"),
    );
    // The gated metrics come from windows: each measured epoch of a steady
    // workload, each whole scenario of failover. A run reports the
    // quartile on the fast side of its windows, because the host's other
    // tenants only ever slow a window down (see NOTES.md).
    let windows: Vec<Window> = if w.failover {
        rounds
            .iter()
            .map(|x| Window {
                rate: x.lat_ns.len() as f64 / x.measured_s,
                p50_us: stats::quantile(
                    &stats::sorted(x.lat_ns.iter().map(|&v| v as f64 / 1e3).collect()),
                    0.5,
                ),
                cpu_us: x.cpu_ns as f64 / 1e3 / x.lat_ns.len() as f64,
                epoch_s: x.epoch_s[FREEZE_EPOCH],
            })
            .collect()
    } else {
        rounds
            .iter()
            .flat_map(|x| {
                (0..x.epoch_s.len()).map(|e| Window {
                    rate: w.files as f64 / x.epoch_s[e],
                    p50_us: x.epoch_p50_us[e],
                    cpu_us: x.epoch_cpu_ns[e] as f64 / 1e3 / w.files as f64,
                    epoch_s: x.epoch_s[e],
                })
            })
            .collect()
    };
    let kind = if w.failover {
        "failover rounds"
    } else {
        "measured epochs"
    };
    let reads: usize = rounds.iter().map(|x| x.lat_ns.len()).sum();
    let mut fast_quartile =
        |name: &str, unit: &'static str, higher: bool, f: fn(&Window) -> f64, what: &str| {
            let v = stats::sorted(windows.iter().map(f).collect());
            let q = if higher { 0.75 } else { 0.25 };
            r.add(
                name,
                stats::quantile(&v, q),
                unit,
                format!(
                    "{} quartile of {} {kind} (median {}); {what}",
                    if higher { "upper" } else { "lower" },
                    v.len(),
                    stats::fmt_num(stats::quantile(&v, 0.5)),
                ),
            );
        };
    fast_quartile(
        "reads_per_s",
        "1/s",
        true,
        |x| x.rate,
        &format!("{reads} reads of {} B", w.size),
    );
    fast_quartile(
        "read_p50_us",
        "us",
        false,
        |x| x.p50_us,
        "each window's median read latency",
    );
    fast_quartile(
        "server_cpu_us_per_read",
        "us",
        false,
        |x| x.cpu_us,
        "schedstat CPU of all servers",
    );
    fast_quartile(
        "epoch_s",
        "s",
        false,
        |x| x.epoch_s,
        if w.failover {
            "the epoch containing the freeze"
        } else {
            "wall time of a whole epoch"
        },
    );
    if let (true, Some(e)) = (w.failover, r.get("epoch_s")) {
        r.add("failover_epoch_s", e, "s", "= epoch_s on this workload");
    }
    let mut per_round = Vec::new();
    let mut fewest_beyond = usize::MAX;
    for x in rounds {
        let lat = stats::sorted(x.lat_ns.iter().map(|&v| v as f64 / 1e3).collect());
        let (v, beyond) = stats::percentile(&lat, 0.99)
            .ok_or_else(|| format!("read_p99_us: a round of {} reads is too short", lat.len()))?;
        per_round.push(v);
        fewest_beyond = fewest_beyond.min(beyond);
    }
    r.add(
        "read_p99_us",
        median(&per_round),
        "us",
        format!("median of {n} rounds; each round >= {fewest_beyond} samples beyond"),
    );
    let attempted: u64 = rounds.iter().map(|x| x.attempted).sum();
    let failed: u64 = rounds.iter().map(|x| x.failed).sum();
    r.add(
        "failed_read_ratio",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        format!("{failed} failed of {attempted} reads, warm-up included"),
    );
    if w.failover {
        let d: Vec<f64> = rounds
            .iter()
            .filter_map(|x| x.failover.as_ref()?.degraded_ms)
            .collect();
        if d.len() < n {
            return Err(format!("only {} of {n} rounds saw a recached hit", d.len()));
        }
        r.add(
            "degraded_window_ms",
            median(&d),
            "ms",
            format!("median over {n} freezes"),
        );
    }
    Ok(r)
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn report(ctx: &RunCtx<'_>, rounds: &[RoundOut]) -> Result<i32, String> {
    let untraced: Vec<&RoundOut> = rounds.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&RoundOut> = rounds.iter().filter(|r| r.traced).collect();
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    // ordering: Relaxed — the watchdog has been joined.
    let stalls = ctx.watchdog.stalls.load(Ordering::Relaxed);

    println!(
        "# fleetbench workload={} seed={} seconds={} trace={} nproc={} readers={} commit={} \
         rounds={} (untraced {}, traced {}) files={} size={}B nvme_mb={}x{} shards={}",
        ctx.w.name,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace_mode),
        ctx.threads,
        ctx.threads,
        git_commit(),
        rounds.len(),
        untraced.len(),
        traced.len(),
        ctx.w.files,
        ctx.w.size,
        ctx.w.nvme_mb,
        NODES,
        ctx.w.nvme_shards,
    );
    for (i, r) in rounds.iter().enumerate() {
        println!(
            "# round {i} {}: setup {:.4} s, {} epochs, {:.1} reads/s, {:.3} s measured, \
             host steal {:.1}%",
            if r.traced { "traced" } else { "untraced" },
            r.setup_s,
            r.epoch_s.len(),
            r.lat_ns.len() as f64 / r.measured_s,
            r.measured_s,
            r.steal_pct
        );
    }
    let e2e = end_to_end(ctx.w, &untraced)?;
    println!("# end-to-end (untraced rounds)");
    e2e.print_lines("  ");
    let mut correct = failed == 0 && stalls == 0;
    let metrics = if ctx.trace_mode {
        let t = end_to_end(ctx.w, &traced)?;
        let mut layers = layers::per_layer(ctx, &traced, &untraced)?;
        for name in END_TO_END {
            let (a, b) = (t.get(name), e2e.get(name));
            if let (Some(a), Some(b)) = (a, b) {
                layers.report.add(
                    &format!("trace_overhead.{name}"),
                    a - b,
                    e2e.metrics
                        .iter()
                        .find(|m| m.name == name)
                        .map_or("", |m| m.unit),
                    format!(
                        "traced {} minus untraced {}",
                        stats::fmt_num(a),
                        stats::fmt_num(b)
                    ),
                );
            }
        }
        println!("# per-layer (traced rounds; idle CPU from untraced rounds)");
        layers.report.print_lines("  ");
        for problem in &layers.problems {
            println!("# TRACE CHECK FAILED: {problem}");
        }
        correct &= layers.problems.is_empty();
        layers.report.json_metrics(&layers::names())?
    } else {
        e2e.json_metrics(&END_TO_END)?
    };
    if !correct {
        println!("# FAILED: {failed} of {attempted} reads failed or returned wrong bytes; {stalls} stalls");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    );
    Ok(if correct { 0 } else { 1 })
}
