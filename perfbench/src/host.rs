//! The machine a result was measured on, and how disturbed it was: core
//! count, CPU model, compiler and commit, plus hypervisor steal time and
//! load average around every measured phase, so a noisy run is visible
//! next to its numbers.

use std::process::Command;
use std::time::Instant;

use crate::json::Json;

/// Worker threads and client connections the benchmark uses.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Static facts about the host and the build.
pub fn fingerprint() -> Json {
    Json::obj()
        .with("nproc", nproc())
        .with("cpu_model", cpu_model())
        .with("rustc", env!("PERFBENCH_RUSTC_VERSION"))
        .with("commit", commit())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the checkout the benchmark runs in, or `"unknown"` when
/// the working directory is not the top of a git work tree (an exported
/// source tree, say).
fn commit() -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let cwd = std::env::current_dir().ok();
    let top = git(&["rev-parse", "--show-toplevel"]).map(std::path::PathBuf::from);
    match (cwd, top) {
        (Some(cwd), Some(top)) if cwd.canonicalize().ok() == top.canonicalize().ok() => {
            git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string())
        }
        _ => "unknown".to_string(),
    }
}

/// Cumulative steal jiffies across all CPUs (`/proc/stat`, 8th field of
/// the `cpu` line); 0 where the kernel does not report it.
pub fn steal_jiffies() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// One-minute load average (`/proc/loadavg`); 0 where unavailable.
fn load1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// CPU seconds this process has used, user plus system (`/proc/self/stat`
/// fields 14 and 15, in the kernel's fixed 100 Hz user clock ticks).
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name may contain spaces; fields resume after ')'.
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
            Some(ticks as f64 / 100.0)
        })
        .unwrap_or(0.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host noise recorded across one named phase.
pub struct Phase {
    name: String,
    start: Instant,
    steal: u64,
    cpu: f64,
    load: f64,
}

impl Phase {
    pub fn begin(name: &str) -> Self {
        Self {
            name: name.to_string(),
            start: Instant::now(),
            steal: steal_jiffies(),
            cpu: process_cpu_s(),
            load: load1(),
        }
    }

    /// Closes the phase: its wall time, the CPU time this process used,
    /// the host's steal jiffies and the one-minute load average at either
    /// end.
    pub fn end(self) -> Json {
        Json::obj()
            .with("phase", self.name)
            .with("seconds", self.start.elapsed().as_secs_f64())
            .with("cpu_s", process_cpu_s() - self.cpu)
            .with("steal_jiffies", steal_jiffies().saturating_sub(self.steal))
            .with("load1_start", self.load)
            .with("load1_end", load1())
    }
}
