//! Host fingerprint recorded with every run: CPU model, core count, the
//! process's peak memory, and a fixed calibration workload whose time makes
//! drift between sessions visible (it gates nothing).

use std::time::Instant;

use platform::Platform;
use slicing::{CommEstimate, MetricKind, Slicer};
use taskgraph::gen::{generate_seeded, ExecVariation, WorkloadSpec};

use crate::stats::{median, ns};

/// `Slicer::distribute` calls behind `harness.calibration_us`.
const CALIBRATION_CALLS: usize = 301;

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Cumulative (steal, total) CPU ticks of the host, from `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().next()?.to_owned();
            let ticks: Vec<u64> = line
                .split_whitespace()
                .skip(1)
                .filter_map(|t| t.parse().ok())
                .collect();
            Some((ticks.get(7).copied().unwrap_or(0), ticks.iter().sum()))
        })
        .unwrap_or((0, 0))
}

/// Share of CPU time the hypervisor stole since `since` (from
/// [`cpu_ticks`]): host noise this run could not control.
pub fn steal_frac(since: (u64, u64)) -> f64 {
    let now = cpu_ticks();
    let total = now.1.saturating_sub(since.1);
    if total == 0 {
        0.0
    } else {
        now.0.saturating_sub(since.0) as f64 / total as f64
    }
}

/// CPU time (user + system) of this process so far, in seconds, exited
/// threads included. The kernel accounts time the hypervisor stole from a
/// vCPU as steal, not to the process, so this does not grow with host
/// contention the way wall time does. Resolution: one 10 ms clock tick.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th fields of the whole line.
            let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
            let ticks = |i: usize| fields.get(i)?.parse::<u64>().ok();
            Some((ticks(11)? + ticks(12)?) as f64 / 100.0)
        })
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median time of a fixed number of NORM/CCNE `Slicer::distribute` calls
/// on one fixed paper graph (MDET, seed 1) for 8 processors, in µs.
pub fn calibration_us() -> f64 {
    let graph = generate_seeded(&WorkloadSpec::paper(ExecVariation::Mdet), 1)
        .expect("the calibration graph generates");
    let platform = Platform::paper(8).expect("the paper platform builds");
    let slicer = Slicer::new(MetricKind::norm()).with_estimate(CommEstimate::Ccne);
    let samples: Vec<f64> = (0..CALIBRATION_CALLS)
        .map(|_| {
            let started = Instant::now();
            let assignment = slicer.distribute(&graph, &platform);
            let elapsed = ns(started.elapsed());
            std::hint::black_box(assignment).expect("the calibration graph slices");
            elapsed as f64 / 1e3
        })
        .collect();
    median(&samples)
}
