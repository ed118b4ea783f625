//! `fleetbench serve`: the traced server. It builds the same stack as
//! `ftc-server` — `ServerHandle::spawn_on_with_admission` over
//! `TcpTransport`, a sharded `NvmeCache` and the staged `Pfs` — with
//! timing wrappers around the transport and the PFS store. It takes the
//! same flags, prints `READY`, serves until its stdin closes, then prints
//! its spans and counters and exits.

use crate::trace::{TimedStore, TimedTransport};
use ftc_core::{AdmissionConfig, CacheRequest, CacheResponse, ServerHandle};
use ftc_hashring::NodeId;
use ftc_storage::{synth_bytes, MemStore, NvmeCache, Pfs};
use ftc_wire::{parse_peers, TcpConfig, TcpTransport};
use std::collections::HashMap;
use std::io::{BufWriter, Read as _, Write as _};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// `--key value` pairs; a key followed by another key (or nothing) is a
/// bare switch with an empty value.
pub fn parse_args(argv: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = argv.iter().peekable();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a:?}"))?;
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().cloned().unwrap_or_default(),
            _ => String::new(),
        };
        out.insert(key.to_string(), value);
    }
    Ok(out)
}

/// A required, parsed flag.
pub fn flag<T: std::str::FromStr>(args: &HashMap<String, String>, key: &str) -> Result<T, String> {
    let v = args
        .get(key)
        .ok_or_else(|| format!("--{key} is required"))?;
    v.parse()
        .map_err(|_| format!("--{key}: cannot parse {v:?}"))
}

pub fn main(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    let node: u32 = flag(&args, "node")?;
    let peers = parse_peers(&flag::<String>(&args, "peers")?).map_err(|e| e.to_string())?;
    let nvme_mb: u64 = flag(&args, "nvme-mb")?;
    let shards: usize = flag(&args, "nvme-shards")?;
    let stage: String = flag(&args, "stage")?;
    let [prefix, count, size] = stage.split(':').collect::<Vec<_>>()[..] else {
        return Err(format!("--stage {stage:?}: want PREFIX:COUNT:SIZE"));
    };
    let count: usize = count.parse().map_err(|_| "--stage: bad count")?;
    let size: usize = size.parse().map_err(|_| "--stage: bad size")?;

    let store = Arc::new(TimedStore::new(MemStore::new(), false));
    let pfs = Arc::new(Pfs::with_store(store.clone()));
    for i in 0..count {
        let path = crate::load::dataset_path(prefix, i);
        pfs.stage(&path, synth_bytes(&path, size));
    }
    let cache = Arc::new(NvmeCache::sharded(nvme_mb * 1024 * 1024, shards));

    let tcp: TcpTransport<CacheRequest, CacheResponse> =
        TcpTransport::from_peer_list(&peers, TcpConfig::default());
    // The same counters `ftc-server --prom` exposes, under the same names.
    let (obs_cache, obs_pfs) = (Arc::clone(&cache), Arc::clone(&pfs));
    tcp.set_obs_handler(Arc::new(move || {
        let s = obs_cache.stats();
        format!(
            "ftc_nvme_hits_total{{node=\"{node}\"}} {}\nftc_nvme_misses_total{{node=\"{node}\"}} {}\n\
             ftc_nvme_evictions_total{{node=\"{node}\"}} {}\nftc_nvme_resident_bytes{{node=\"{node}\"}} {}\n\
             ftc_pfs_reads_total{{node=\"{node}\"}} {}\n",
            s.hits,
            s.misses,
            s.evictions,
            s.resident_bytes,
            obs_pfs.total_reads()
        )
    }));
    let timed = TimedTransport::new(tcp);
    let handle = ServerHandle::spawn_on_with_admission(
        NodeId(node),
        &timed,
        pfs,
        cache,
        AdmissionConfig::default(),
    )
    .map_err(|e| format!("cannot start node {node}: {e}"))?;
    println!("READY node={node} addr={}", peers[node as usize]);
    let _ = std::io::stdout().flush();

    let closed = Arc::new(AtomicBool::new(false));
    let flag_closed = Arc::clone(&closed);
    let stdin_reader = std::thread::spawn(move || {
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        // ordering: Relaxed — a plain flag polled below.
        flag_closed.store(true, Ordering::Relaxed);
    });
    let mut max_depth = 0;
    // ordering: Relaxed — see above.
    while !closed.load(Ordering::Relaxed) {
        max_depth = max_depth.max(handle.mover_queue_depth());
        std::thread::sleep(Duration::from_millis(1));
    }
    stdin_reader
        .join()
        .map_err(|_| "stdin reader panicked".to_string())?;

    let mut out = BufWriter::new(std::io::stdout().lock());
    let spans = std::mem::take(&mut *timed.served.spans.lock().expect("lock poisoned"));
    for s in &spans {
        let _ = writeln!(out, "{}", s.render());
    }
    for ns in store.take_get_ns() {
        let _ = writeln!(out, "PFS {ns}");
    }
    let _ = writeln!(
        out,
        "MOVER {max_depth} {} {} {}",
        handle.mover_enqueue_rejected(),
        handle.files_recached(),
        handle.total_sheds()
    );
    out.flush().map_err(|e| e.to_string())?;
    // Exit without dropping the server: everything it measured is out,
    // and an orderly shutdown can wait on connections the client left.
    std::process::exit(0)
}
