//! Per-layer metrics from the traced rounds: client spans joined with the
//! traced servers' spans, scraped counters, a replay of the served key
//! sequence on a standalone `NvmeCache`, and a codec timing on the
//! workload's own replies.

use crate::stats::{median, Report};
use crate::trace::{ChildKind, ServerSpan};
use crate::{RoundOut, RunCtx, CLIENT_ID, END_TO_END, NODES};
use ftc_core::{CacheResponse, ServeSource};
use ftc_storage::NvmeCache;
use ftc_wire::Wire as _;
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Child spans must nest inside their read without overlapping, so that
/// self time plus child spans equals the read span. Allowed error, as a
/// share of all read time.
const ACCOUNTING_TOLERANCE_PCT: f64 = 1.0;
/// Joined reads whose server service time exceeds the client's RPC time
/// (negative transit), as a share of joined reads.
const TRANSIT_TOLERANCE_PCT: f64 = 1.0;

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
const LAYER_NAMES: [&str; 41] = [
    "client.read_us.p50",
    "client.read_us.p99",
    "client.self_us.p50",
    "client.retries",
    "client.rpc_timeouts",
    "client.direct_pfs_reads",
    "client.coalesced_reads",
    "hashring.owner_us.p50",
    "hashring.load_max_over_mean",
    "wire.rpc_us.p50",
    "wire.rpc_us.p99",
    "wire.transit_us.p50",
    "wire.rpc_errors.timeout",
    "wire.rpc_errors.disconnected",
    "wire.encode_ns_per_kib",
    "wire.decode_ns_per_kib",
    "server.service_us.p50",
    "server.service_us.p99",
    "server.backlog.max",
    "server.backlog.mean",
    "server.sheds",
    "server.idle_cpu_ms_per_s",
    "nvme.hit_ratio",
    "nvme.evictions",
    "nvme.resident_bytes",
    "nvme.get_ns.p50",
    "nvme.insert_ns.p50",
    "pfs.server_reads",
    "pfs.read_us.p50",
    "mover.recached",
    "mover.enqueue_rejected",
    "mover.queue_depth.max",
    "recovery.declare_ms",
    "recovery.quiesce_ms",
    "recovery.recached_files",
    "recovery.pfs_fetches_per_lost_file",
    "recovery.degraded_window_ms",
    "trace.accounting_error_pct",
    "trace.transit_negative_pct",
    "trace.joined_reads",
    "trace.unjoined_reads",
];

/// Per-layer metric names, then one tracing-overhead metric per
/// end-to-end metric.
pub fn names() -> Vec<String> {
    LAYER_NAMES
        .iter()
        .map(|s| s.to_string())
        .chain(END_TO_END.iter().map(|m| format!("trace_overhead.{m}")))
        .collect()
}

pub struct Layers {
    pub report: Report,
    /// Failed trace checks; any makes the run fail.
    pub problems: Vec<String>,
}

/// Server-side records of one traced round, parsed from its output.
#[derive(Default)]
struct ServerSide {
    /// Per node, the spans in reply order.
    spans: Vec<Vec<ServerSpan>>,
    pfs_get_ns: Vec<f64>,
    max_depth: u64,
    rejected: u64,
    recached: u64,
    sheds: u64,
}

fn parse_server(lines: &[Vec<String>]) -> ServerSide {
    let mut s = ServerSide::default();
    for node_lines in lines {
        let mut spans = Vec::new();
        for l in node_lines {
            if let Some(sp) = ServerSpan::parse(l) {
                spans.push(sp);
            } else if let Some(ns) = l.strip_prefix("PFS ") {
                s.pfs_get_ns.extend(ns.parse::<f64>().ok());
            } else if let Some(m) = l.strip_prefix("MOVER ") {
                let v: Vec<u64> = m.split(' ').filter_map(|x| x.parse().ok()).collect();
                if let [depth, rejected, recached, sheds] = v[..] {
                    s.max_depth = s.max_depth.max(depth);
                    s.rejected += rejected;
                    s.recached += recached;
                    s.sheds += sheds;
                }
            }
        }
        s.spans.push(spans);
    }
    s
}

/// Union length of spans given as (start, end) offsets in ns.
fn union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for (a, b) in iv {
        cur = match cur {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Encode and decode costs of the workload's own `Data` replies, in ns
/// per KiB of value.
fn codec_ns_per_kib(ctx: &RunCtx<'_>) -> (f64, f64) {
    let replies: Vec<CacheResponse> = ctx
        .ds
        .paths
        .iter()
        .zip(&ctx.ds.values)
        .take(16)
        .map(|(p, v)| CacheResponse::Data {
            path: p.clone(),
            bytes: v.clone(),
            source: ServeSource::NvmeHit,
        })
        .collect();
    let batch_bytes = replies.len() * ctx.ds.size;
    let reps = ((256usize << 20) / batch_bytes).max(4);
    let kib = (reps * batch_bytes) as f64 / 1024.0;
    let t = Instant::now();
    for _ in 0..reps {
        for r in &replies {
            black_box(black_box(r).encode_vec());
        }
    }
    let enc = t.elapsed().as_nanos() as f64 / kib;
    let frames: Vec<Arc<[u8]>> = replies.iter().map(|r| Arc::from(r.encode_vec())).collect();
    let t = Instant::now();
    for _ in 0..reps {
        for f in &frames {
            let _ = black_box(CacheResponse::decode_all_shared(black_box(f)));
        }
    }
    let dec = t.elapsed().as_nanos() as f64 / kib;
    (enc, dec)
}

pub fn per_layer(
    ctx: &RunCtx<'_>,
    traced: &[&RoundOut],
    untraced: &[&RoundOut],
) -> Result<Layers, String> {
    let mut r = Report::default();
    let mut problems = Vec::new();
    let us = |ns: u64| ns as f64 / 1e3;

    let (mut read_us, mut self_us, mut owner_us, mut rpc_us) = (vec![], vec![], vec![], vec![]);
    let (mut transit_us, mut service_us) = (vec![], vec![]);
    let (mut acct_err_ns, mut read_total_ns) = (0u64, 0u64);
    let (mut joined, mut unjoined, mut negative) = (0u64, 0u64, 0u64);
    let (mut backlogs, mut pfs_get_us) = (vec![], vec![]);
    let (mut get_ns, mut insert_ns) = (vec![], vec![]);
    let (mut max_depth, mut rejected, mut recached, mut sheds) = (0, 0, 0, 0);

    for round in traced {
        let server = parse_server(&round.server_lines);
        pfs_get_us.extend(server.pfs_get_ns.iter().map(|ns| ns / 1e3));
        max_depth = max_depth.max(server.max_depth);
        rejected += server.rejected;
        recached += server.recached;
        sheds += server.sheds;

        // Server spans of this client's reads, by (node, path), in order:
        // each file is read once per epoch, so the k-th server span of a
        // (node, path) pair belongs to the k-th answered client call.
        let mut queue: HashMap<(u32, &str), VecDeque<u64>> = HashMap::new();
        for (node, spans) in server.spans.iter().enumerate() {
            for s in spans.iter().filter(|s| s.from == CLIENT_ID) {
                backlogs.push(s.backlog as f64);
                if s.kind == 'R' {
                    queue
                        .entry((node as u32, s.path.as_str()))
                        .or_default()
                        .push_back(s.service_ns);
                }
            }
            replay_nvme(ctx, spans, &mut get_ns, &mut insert_ns);
        }

        let mut calls = Vec::new();
        for (measured, traces) in [(false, &round.warm_traces), (true, &round.traces)] {
            for t in traces.iter() {
                let read_ns = t.end.duration_since(t.start).as_nanos() as u64;
                let mut spans = Vec::new();
                let mut child_sum = 0;
                for c in &t.children {
                    let a = c.start.saturating_duration_since(t.start).as_nanos() as u64;
                    let b = c.end.saturating_duration_since(t.start).as_nanos() as u64;
                    // A child escaping its read counts fully as error.
                    if c.start < t.start || c.end > t.end {
                        acct_err_ns += c.ns();
                    }
                    spans.push((a, b.min(read_ns)));
                    child_sum += c.ns();
                    if c.kind == ChildKind::Rpc {
                        if measured {
                            rpc_us.push(us(c.ns()));
                        }
                        if let Some(p) = &c.read_path {
                            calls.push((c.start, c.to, p.as_str(), c.ns(), measured));
                        }
                    }
                }
                let self_ns = read_ns.saturating_sub(union_ns(spans));
                // Self time plus child spans against the read span: only
                // overlapping or escaping children make these differ.
                acct_err_ns += (self_ns + child_sum).abs_diff(read_ns);
                read_total_ns += read_ns;
                if measured {
                    read_us.push(us(read_ns));
                    self_us.push(us(self_ns));
                    owner_us.push(us(t.owner_ns));
                }
            }
        }
        calls.sort_by_key(|c| c.0);
        for (_, to, path, rpc_ns, measured) in calls {
            match queue.get_mut(&(to, path)).and_then(VecDeque::pop_front) {
                Some(service_ns) => {
                    joined += 1;
                    negative += u64::from(service_ns > rpc_ns);
                    if measured {
                        service_us.push(us(service_ns));
                        transit_us.push(us(rpc_ns.saturating_sub(service_ns)));
                    }
                }
                None => unjoined += 1,
            }
        }
    }

    r.add_pct("client.read_us.p50", &read_us, 0.50, "us")?;
    r.add_pct("client.read_us.p99", &read_us, 0.99, "us")?;
    r.add_pct("client.self_us.p50", &self_us, 0.50, "us")?;
    let client_sum = |f: fn(&ftc_core::ClientMetricsSnapshot) -> u64| {
        traced.iter().map(|x| f(&x.client)).sum::<u64>() as f64
    };
    r.add(
        "client.retries",
        client_sum(|c| c.retries),
        "count",
        "HvacClient::metrics()",
    );
    r.add(
        "client.rpc_timeouts",
        client_sum(|c| c.rpc_timeouts),
        "count",
        "",
    );
    r.add(
        "client.direct_pfs_reads",
        client_sum(|c| c.pfs_direct_reads),
        "count",
        "",
    );
    r.add(
        "client.coalesced_reads",
        client_sum(|c| c.coalesced_reads),
        "count",
        "",
    );

    r.add_pct("hashring.owner_us.p50", &owner_us, 0.50, "us")?;
    let (load, load_note) = if ctx.w.failover {
        let mut per = [0u64; NODES];
        for x in traced {
            if let Some(f) = &x.failover {
                for (p, v) in per.iter_mut().zip(f.victim_key_reads) {
                    *p += v;
                }
            }
        }
        let survivors: Vec<f64> = per
            .iter()
            .enumerate()
            .filter(|(n, _)| *n != crate::VICTIM)
            .map(|(_, &v)| v as f64)
            .collect();
        (
            max_over_mean(&survivors),
            "survivors' reads of the victim's keys, from read provenance",
        )
    } else {
        let mut per = [0f64; NODES];
        for x in traced {
            for (p, s) in per.iter_mut().zip(&x.scrapes) {
                *p += s.as_ref().map_or(0.0, |s| s.reads());
            }
        }
        (max_over_mean(&per), "per-server reads, scraped")
    };
    r.add("hashring.load_max_over_mean", load, "ratio", load_note);

    r.add_pct("wire.rpc_us.p50", &rpc_us, 0.50, "us")?;
    r.add_pct("wire.rpc_us.p99", &rpc_us, 0.99, "us")?;
    r.add_pct("wire.transit_us.p50", &transit_us, 0.50, "us")?;
    let err = |f: fn(&crate::trace::RpcErrors) -> &std::sync::atomic::AtomicU64| {
        traced
            .iter()
            .filter_map(|x| x.rpc_errors.as_ref())
            // ordering: Relaxed — the callers are gone.
            .map(|e| f(e).load(Ordering::Relaxed))
            .sum::<u64>() as f64
    };
    r.add("wire.rpc_errors.timeout", err(|e| &e.timeout), "count", "");
    r.add(
        "wire.rpc_errors.disconnected",
        err(|e| &e.disconnected),
        "count",
        "",
    );
    let (enc, dec) = codec_ns_per_kib(ctx);
    r.add(
        "wire.encode_ns_per_kib",
        enc,
        "ns/KiB",
        "Wire::encode_vec on Data replies",
    );
    r.add(
        "wire.decode_ns_per_kib",
        dec,
        "ns/KiB",
        "decode_all_shared on Data replies",
    );

    r.add_pct("server.service_us.p50", &service_us, 0.50, "us")?;
    r.add_pct("server.service_us.p99", &service_us, 0.99, "us")?;
    r.add(
        "server.backlog.max",
        backlogs.iter().copied().fold(0.0, f64::max),
        "count",
        "Listener::backlog() at each accept",
    );
    r.add(
        "server.backlog.mean",
        backlogs.iter().sum::<f64>() / backlogs.len().max(1) as f64,
        "count",
        format!("over {} accepts", backlogs.len()),
    );
    r.add("server.sheds", sheds as f64, "count", "");
    let idle: Vec<f64> = untraced
        .iter()
        .filter_map(|x| x.idle_cpu_ms_per_s)
        .collect();
    r.add(
        "server.idle_cpu_ms_per_s",
        median(&idle),
        "ms/s",
        format!(
            "all servers, {} ms quiet after the load, shipped ftc-server",
            crate::IDLE_WINDOW.as_millis()
        ),
    );

    let scraped = |f: fn(&crate::fleet::Scrape) -> f64| {
        traced
            .iter()
            .flat_map(|x| x.scrapes.iter().flatten())
            .map(f)
            .sum::<f64>()
    };
    let reads = scraped(|s| s.reads());
    r.add(
        "nvme.hit_ratio",
        scraped(|s| s.hits) / reads.max(1.0),
        "ratio",
        "scraped",
    );
    r.add(
        "nvme.evictions",
        scraped(|s| s.evictions),
        "count",
        "scraped",
    );
    r.add(
        "nvme.resident_bytes",
        scraped(|s| s.resident_bytes) / traced.len().max(1) as f64,
        "bytes",
        "whole fleet at round end, mean of rounds",
    );
    r.add_pct("nvme.get_ns.p50", &get_ns, 0.50, "ns")?;
    r.add_pct("nvme.insert_ns.p50", &insert_ns, 0.50, "ns")?;

    r.add(
        "pfs.server_reads",
        scraped(|s| s.pfs_reads),
        "count",
        "ftc_pfs_reads_total",
    );
    r.add_pct("pfs.read_us.p50", &pfs_get_us, 0.50, "us")?;

    r.add("mover.recached", recached as f64, "count", "");
    r.add("mover.enqueue_rejected", rejected as f64, "count", "");
    r.add(
        "mover.queue_depth.max",
        max_depth as f64,
        "count",
        "sampled every 1 ms",
    );

    let fo: Vec<&crate::FailoverOut> = traced.iter().filter_map(|x| x.failover.as_ref()).collect();
    let med = |f: fn(&crate::FailoverOut) -> Option<f64>| {
        let v: Vec<f64> = fo.iter().filter_map(|x| f(x)).collect();
        median(&v)
    };
    let note = if fo.is_empty() {
        "no freeze in this workload"
    } else {
        "median over freezes"
    };
    r.add("recovery.declare_ms", med(|f| f.declare_ms), "ms", note);
    r.add("recovery.quiesce_ms", med(|f| f.quiesce_ms), "ms", note);
    r.add(
        "recovery.recached_files",
        med(|f| Some(f.recached_files as f64)),
        "count",
        note,
    );
    let lost: usize = fo.iter().map(|f| f.lost_files).sum();
    let fetched: f64 = fo.iter().map(|f| f.pfs_fetches_after_freeze).sum();
    r.add(
        "recovery.pfs_fetches_per_lost_file",
        if lost == 0 {
            0.0
        } else {
            fetched / lost as f64
        },
        "ratio",
        if lost == 0 {
            note.to_string()
        } else {
            format!(
                "{fetched} PFS reads after the freeze (client and survivors) for {lost} lost files"
            )
        },
    );
    r.add(
        "recovery.degraded_window_ms",
        med(|f| f.degraded_ms),
        "ms",
        note,
    );

    let acct = 100.0 * acct_err_ns as f64 / read_total_ns.max(1) as f64;
    r.add(
        "trace.accounting_error_pct",
        acct,
        "%",
        format!("tolerance {ACCOUNTING_TOLERANCE_PCT}%"),
    );
    if acct > ACCOUNTING_TOLERANCE_PCT {
        problems.push(format!(
            "self time plus child spans is off the read span by {acct:.3}% (> {ACCOUNTING_TOLERANCE_PCT}%)"
        ));
    }
    let neg = 100.0 * negative as f64 / joined.max(1) as f64;
    r.add(
        "trace.transit_negative_pct",
        neg,
        "%",
        format!("tolerance {TRANSIT_TOLERANCE_PCT}%"),
    );
    if neg > TRANSIT_TOLERANCE_PCT {
        problems.push(format!(
            "server service exceeds client RPC time on {neg:.3}% of joined reads"
        ));
    }
    r.add(
        "trace.joined_reads",
        joined as f64,
        "count",
        "client calls matched to server spans",
    );
    r.add(
        "trace.unjoined_reads",
        unjoined as f64,
        "count",
        "e.g. calls the frozen victim answered",
    );
    Ok(Layers {
        report: r,
        problems,
    })
}

fn max_over_mean(v: &[f64]) -> f64 {
    let mean = v.iter().sum::<f64>() / v.len().max(1) as f64;
    if mean == 0.0 {
        return 0.0;
    }
    v.iter().copied().fold(0.0, f64::max) / mean
}

/// Replay one server's served key sequence on a standalone cache with the
/// fleet's per-node capacity and stripes: a read that misses is inserted,
/// as the data mover would; a put is inserted.
fn replay_nvme(
    ctx: &RunCtx<'_>,
    spans: &[ServerSpan],
    get_ns: &mut Vec<f64>,
    insert_ns: &mut Vec<f64>,
) {
    let cache = NvmeCache::sharded(ctx.w.nvme_mb << 20, ctx.w.nvme_shards);
    let value = ctx.ds.values[0].clone();
    for s in spans {
        let hit = if s.kind == 'R' {
            let t = Instant::now();
            let hit = black_box(cache.get(&s.path)).is_some();
            get_ns.push(t.elapsed().as_nanos() as f64);
            hit
        } else {
            s.kind != 'P'
        };
        if !hit {
            let t = Instant::now();
            black_box(cache.insert(&s.path, value.clone()));
            insert_ns.push(t.elapsed().as_nanos() as f64);
        }
    }
}
