//! The server fleet as child processes: port choice, launch, readiness,
//! freezing, CPU accounting from `/proc`, and teardown that kills and
//! reaps every child, a stopped one included.

use ftc_wire::scrape_obs;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::process::CommandExt as _;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Servers per fleet: the smallest ring where a dead node's keys still
/// spread over more than one survivor.
pub const NODES: usize = 3;

const SIGKILL: i32 = 9;
const SIGSTOP: i32 = 19;
const PR_SET_PDEATHSIG: i32 = 1;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// How a fleet's servers are started.
pub struct ServerCmd {
    /// The program: the shipped `ftc-server`, or this benchmark's own
    /// binary for the traced stack.
    pub program: String,
    /// Arguments placed before the shared server flags.
    pub lead: Vec<String>,
    /// Extra shared flags (`--stage`, `--nvme-mb`, ...).
    pub flags: Vec<String>,
}

/// Three free loopback ports, taken by binding port 0. The listeners are
/// released just before the servers bind the same ports.
pub fn free_ports() -> std::io::Result<Vec<SocketAddr>> {
    let held: Vec<TcpListener> = (0..NODES)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()?;
    held.iter().map(TcpListener::local_addr).collect()
}

/// A running fleet. Dropping it SIGKILLs and reaps every server.
pub struct Fleet {
    pub peers: Vec<SocketAddr>,
    children: Vec<Child>,
    /// Per server: the stdout lines after `READY`, returned when the
    /// process closes its stdout.
    outputs: Vec<Option<JoinHandle<Vec<String>>>>,
}

impl Fleet {
    /// Launch one server per port and wait until each prints `READY`.
    pub fn launch(cmd: &ServerCmd, peers: Vec<SocketAddr>) -> Result<Fleet, String> {
        let peer_list = peers
            .iter()
            .map(SocketAddr::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let mut fleet = Fleet {
            peers,
            children: Vec::new(),
            outputs: Vec::new(),
        };
        let (ready_tx, ready_rx) = mpsc::channel::<usize>();
        for node in 0..NODES {
            let mut c = Command::new(&cmd.program);
            c.args(&cmd.lead)
                .args(["--node", &node.to_string(), "--peers", &peer_list])
                .args(&cmd.flags)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            // SAFETY: prctl is async-signal-safe and touches no memory of
            // the parent; it asks the kernel to SIGKILL this server if the
            // benchmark dies before it can reap it.
            unsafe {
                c.pre_exec(|| {
                    prctl(PR_SET_PDEATHSIG, SIGKILL as u64, 0, 0, 0);
                    Ok(())
                });
            }
            let mut child = c
                .spawn()
                .map_err(|e| format!("cannot start {}: {e}", cmd.program))?;
            let stdout = child.stdout.take().expect("stdout is piped");
            let tx = ready_tx.clone();
            fleet.children.push(child);
            fleet.outputs.push(Some(std::thread::spawn(move || {
                let mut lines = Vec::new();
                let mut ready = false;
                for line in BufReader::new(stdout).lines() {
                    let Ok(line) = line else { break };
                    if !ready && line.starts_with("READY") {
                        ready = true;
                        let _ = tx.send(node);
                    } else if ready {
                        lines.push(line);
                    }
                }
                lines
            })));
        }
        drop(ready_tx);
        let deadline = Instant::now() + Duration::from_secs(60);
        for _ in 0..NODES {
            let left = deadline.saturating_duration_since(Instant::now());
            if ready_rx.recv_timeout(left).is_err() {
                return Err("a server did not print READY within 60 s".into());
            }
        }
        Ok(fleet)
    }

    pub fn pids(&self) -> Vec<u32> {
        self.children.iter().map(Child::id).collect()
    }

    /// SIGSTOP one server: its process and sockets stay, but it answers
    /// nothing — the paper's silent node death.
    pub fn freeze(&self, node: usize) {
        // SAFETY: plain kill(2) on a child we have not reaped yet.
        unsafe {
            kill(self.children[node].id() as i32, SIGSTOP);
        }
    }

    /// SIGKILL and reap one server.
    pub fn kill(&mut self, node: usize) {
        let c = &mut self.children[node];
        let _ = c.kill();
        let _ = c.wait();
    }

    /// Close every server's stdin (the traced servers dump their spans
    /// and exit on it) and collect what each printed after `READY`.
    /// Servers that do not exit within the timeout are killed.
    pub fn finish(mut self, timeout: Duration) -> Vec<Vec<String>> {
        for c in &mut self.children {
            drop(c.stdin.take());
        }
        let deadline = Instant::now() + timeout;
        for c in &mut self.children {
            while matches!(c.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        self.kill_children();
        self.outputs
            .iter_mut()
            .map(|h| h.take().and_then(|h| h.join().ok()).unwrap_or_default())
            .collect()
    }

    fn kill_children(&mut self) {
        for c in &mut self.children {
            // SIGKILL ends a SIGSTOPped process too; wait reaps it so no
            // stopped server keeps holding its port.
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.kill_children();
        for h in self.outputs.iter_mut().filter_map(Option::take) {
            let _ = h.join();
        }
    }
}

/// Kill processes by pid; used by the stall watchdog, which does not own
/// the fleet.
pub fn kill_pids(pids: &[u32]) {
    for &p in pids {
        // SAFETY: plain kill(2); the children are reaped by their owner.
        unsafe {
            kill(p as i32, SIGKILL);
        }
    }
}

/// CPU time in nanoseconds of each thread of each process, keyed by
/// (pid, tid), from `/proc/<pid>/task/<tid>/schedstat`.
pub fn cpu_snapshot(pids: &[u32]) -> HashMap<(u32, u32), u64> {
    let mut out = HashMap::new();
    for &pid in pids {
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
            continue;
        };
        for t in tasks.flatten() {
            let Some(tid) = t.file_name().to_str().and_then(|s| s.parse().ok()) else {
                continue;
            };
            let ns = std::fs::read_to_string(t.path().join("schedstat"))
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse().ok());
            if let Some(ns) = ns {
                out.insert((pid, tid), ns);
            }
        }
    }
    out
}

/// The host's (steal, total) CPU time in clock ticks, from the first line
/// of `/proc/stat`. Steal is time the hypervisor gave this machine's
/// virtual CPUs to someone else while they had work.
pub fn host_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// CPU nanoseconds spent between two snapshots. Threads that appear only
/// in the later one count from zero.
pub fn cpu_delta(before: &HashMap<(u32, u32), u64>, after: &HashMap<(u32, u32), u64>) -> u64 {
    after
        .iter()
        .map(|(k, v)| v.saturating_sub(before.get(k).copied().unwrap_or(0)))
        .sum()
}

/// Per-node counters scraped from a server's `ObsScrape` exposition.
#[derive(Debug, Default, Clone, Copy)]
pub struct Scrape {
    pub hits: f64,
    pub misses: f64,
    pub evictions: f64,
    pub resident_bytes: f64,
    pub pfs_reads: f64,
}

impl Scrape {
    pub fn reads(&self) -> f64 {
        self.hits + self.misses
    }

    pub fn minus(&self, base: &Scrape) -> Scrape {
        Scrape {
            hits: self.hits - base.hits,
            misses: self.misses - base.misses,
            evictions: self.evictions - base.evictions,
            resident_bytes: self.resident_bytes,
            pfs_reads: self.pfs_reads - base.pfs_reads,
        }
    }
}

/// Scrape one server. A frozen server does not answer; that is an error
/// the caller expects for the victim only.
pub fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let text =
        scrape_obs(addr, Duration::from_secs(2)).map_err(|e| format!("scrape {addr}: {e}"))?;
    let mut s = Scrape::default();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let (Some(name), Some(value)) = (line.split(['{', ' ']).next(), line.rsplit(' ').next())
        else {
            continue;
        };
        let Ok(v) = value.parse::<f64>() else {
            continue;
        };
        match name {
            "ftc_nvme_hits_total" => s.hits = v,
            "ftc_nvme_misses_total" => s.misses = v,
            "ftc_nvme_evictions_total" => s.evictions = v,
            "ftc_nvme_resident_bytes" => s.resident_bytes = v,
            "ftc_pfs_reads_total" => s.pfs_reads = v,
            _ => {}
        }
    }
    Ok(s)
}
