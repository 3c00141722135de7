//! The host record printed with every result, and the process's peak
//! resident set.

use std::hint::black_box;
use std::time::Instant;

/// What the numbers of one run were measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Hardware threads this process may run on
    /// (`std::thread::available_parallelism`, what `nproc` prints).
    pub nproc: usize,
    /// Processors the kernel lists in `/proc/cpuinfo`.
    pub cpus: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub git_rev: String,
    /// Cost of one `Instant::now()` in nanoseconds.
    pub clock_read_ns: f64,
    /// Wall time of a fixed integer loop, in milliseconds: a machine-speed
    /// and noise reference for comparing results across runs.
    pub calib_ms: f64,
}

/// Hardware threads available to this process.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Host {
    /// Probes the host (takes a few tens of milliseconds).
    pub fn probe() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpus = cpuinfo
            .lines()
            .filter(|l| l.starts_with("processor"))
            .count();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: available_threads(),
            cpus,
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC"),
            git_rev: git_rev(),
            clock_read_ns: clock_read_ns(),
            calib_ms: calib_ms(),
        }
    }

    /// The record as one JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpus\": {}, \"cpu_model\": {:?}, \"rustc\": {:?}, \"git_rev\": {:?}, \
             \"clock_read_ns\": {}, \"calib_ms\": {}}}",
            self.nproc,
            self.cpus,
            self.cpu_model,
            self.rustc,
            self.git_rev,
            self.clock_read_ns,
            self.calib_ms
        )
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// (no subprocess, nothing read outside the checkout); `unknown` when
/// the tree is not a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn clock_read_ns() -> f64 {
    const READS: u32 = 200_000;
    let t0 = Instant::now();
    for _ in 0..READS {
        black_box(Instant::now());
    }
    t0.elapsed().as_nanos() as f64 / f64::from(READS)
}

fn calib_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = black_box(x);
    }
    black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 when
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
