//! The `sweep` workload: every committed figure at paper scale (128
//! replications, sizes 2..16, seed 0xFEA57) on a 2-thread runner — the
//! `figures all` user action without file output.

use std::collections::BTreeMap;
use std::time::Instant;

use feast::experiments::{all_experiments, ExperimentConfig, ExperimentDescriptor};

use crate::report::Outcome;
use crate::stats::{median, ns, p50_p99_us};
use crate::{host, Args};

/// Runner threads: one per core of the 2-core host the benchmark was sized on.
pub const THREADS: usize = 2;

/// Seconds one pass of every figure takes on the 2-core host the benchmark
/// was sized on; a run makes `--seconds` ÷ this many passes (at least one).
const PASS_SECONDS: f64 = 10.0;

/// Set-ups timed together as one `setup_s` sample. One set-up takes about
/// a microsecond, so a sample averages enough of them to rise well above
/// the clock's resolution.
const SETUP_BATCH: u32 = 100;

/// The committed `results/<id>.csv` of every experiment, pinned here so the
/// gate does not depend on files outside the benchmark's directory.
const EXPECTED: [(&str, &str); 13] = [
    ("fig2", include_str!("../expected/fig2.csv")),
    ("fig3", include_str!("../expected/fig3.csv")),
    ("fig4", include_str!("../expected/fig4.csv")),
    ("fig5", include_str!("../expected/fig5.csv")),
    ("ext-met", include_str!("../expected/ext-met.csv")),
    ("ext-par", include_str!("../expected/ext-par.csv")),
    ("ext-ccr", include_str!("../expected/ext-ccr.csv")),
    ("ext-topo", include_str!("../expected/ext-topo.csv")),
    ("ext-shapes", include_str!("../expected/ext-shapes.csv")),
    ("ext-locality", include_str!("../expected/ext-locality.csv")),
    ("ext-bus", include_str!("../expected/ext-bus.csv")),
    (
        "ext-baselines",
        include_str!("../expected/ext-baselines.csv"),
    ),
    (
        "ext-placement",
        include_str!("../expected/ext-placement.csv"),
    ),
];

/// Everything the first cell needs: the paper configuration, the
/// experiment registry and the expected output of each experiment.
struct Plan {
    cfg: ExperimentConfig,
    experiments: Vec<ExperimentDescriptor>,
    expected: BTreeMap<&'static str, &'static str>,
}

fn plan() -> Result<Plan, String> {
    let experiments = all_experiments();
    let expected: BTreeMap<&str, &str> = EXPECTED.into_iter().collect();
    if let Some(e) = experiments.iter().find(|e| !expected.contains_key(e.id)) {
        return Err(format!("no pinned CSV for experiment {}", e.id));
    }
    Ok(Plan {
        cfg: ExperimentConfig {
            threads: THREADS,
            ..ExperimentConfig::default()
        },
        experiments,
        expected,
    })
}

/// Gate: an experiment's CSV must equal the committed one byte for byte.
pub fn check_csv(id: &str, actual: &str, expected: &str) -> Result<(), String> {
    if actual == expected {
        return Ok(());
    }
    let line = actual
        .lines()
        .zip(expected.lines())
        .position(|(a, e)| a != e)
        .map_or_else(|| "line count".to_owned(), |i| format!("line {}", i + 1));
    Err(format!(
        "{id}: CSV differs from the committed results ({line})"
    ))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    // One set-up sample before every figure, so the samples spread over
    // the whole run instead of catching the host in one state.
    let mut setups = Vec::new();
    let mut sample_setup = || -> Result<Plan, String> {
        let started = Instant::now();
        for _ in 1..SETUP_BATCH {
            std::hint::black_box(plan()?);
        }
        let plan = plan()?;
        setups.push(started.elapsed().as_secs_f64() / f64::from(SETUP_BATCH));
        Ok(plan)
    };
    let plan = sample_setup()?;

    // Whole passes only: a pass is the unit the CSV gate checks, and a
    // partial pass would change the experiment mix behind cells/s. The
    // count follows from `--seconds`, never from the host's speed.
    let passes = (args.seconds as f64 / PASS_SECONDS).round().max(1.0) as u32;
    let (mut cells, mut failed) = (0u64, 0u64);
    let mut figure_ns = Vec::new();
    let cpu0 = host::process_cpu_s();
    for _ in 0..passes {
        for e in &plan.experiments {
            sample_setup()?;
            let figure_started = Instant::now();
            let result = (e.run)(&plan.cfg).map_err(|err| format!("{}: {err}", e.id))?;
            figure_ns.push(ns(figure_started.elapsed()));
            check_csv(e.id, &result.to_csv(), plan.expected[e.id])?;
            for series in result.panels.iter().flat_map(|p| &p.series) {
                cells += (series.points.len() * plan.cfg.replications) as u64;
                failed += series.failed as u64;
            }
        }
    }
    let cpu_s = host::process_cpu_s() - cpu0;
    // Time spent running figures, excluding the set-up samples and checks.
    let wall = figure_ns.iter().sum::<u64>() as f64 / 1e9;
    let (p50, p99) = p50_p99_us(&mut figure_ns);

    let mut out = Outcome {
        attempted: cells,
        failed,
        ..Outcome::default()
    };
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
    out.metric("ok_frac", 1.0 - failed as f64 / cells as f64, "ratio");
    out.metric("cpu_us_per_op", cpu_s * 1e6 / cells as f64, "us");
    out.note("sweep.figure_p50_us", p50, "us");
    out.note("sweep.figure_p99_us", p99, "us");
    out.note("sweep.cells_per_s", cells as f64 / wall, "cells/s");
    out.note("sweep.passes", f64::from(passes), "count");
    out.note("sweep.wall_s", wall, "s");
    out.note("failed_frac", failed as f64 / cells as f64, "ratio");
    out.note("harness.calibration_us", host::calibration_us(), "us");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_has_a_pinned_csv() {
        assert!(plan().is_ok());
    }

    #[test]
    fn csv_gate_fires_on_a_corrupted_expectation() {
        let expected = EXPECTED[0].1;
        assert!(check_csv("fig2", expected, expected).is_ok());
        let corrupted = expected.replacen('1', "2", 1);
        let err = check_csv("fig2", expected, &corrupted).unwrap_err();
        assert!(err.contains("fig2"), "{err}");
        assert!(check_csv("fig2", expected, &expected[..expected.len() - 1]).is_err());
    }
}
