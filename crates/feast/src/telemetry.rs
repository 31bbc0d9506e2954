//! Run-wide pipeline metrics and the machine-readable run-event stream.
//!
//! Two complementary mechanisms:
//!
//! * a process-global [`Registry`] of lock-free counters and log-scale
//!   duration histograms, fed by the runner for every pipeline stage
//!   (generate → distribute → schedule) and summarized by
//!   [`Registry::snapshot`];
//! * an optional [`EventSink`] writing one JSON object per line
//!   (`events.jsonl`): install it with [`install`] and every replication
//!   the runner executes is recorded as a [`RunEvent`] with its per-stage
//!   timings and feasibility outcome.
//!
//! Both are no-ops by default: with no sink installed [`emit_with`] never
//! even constructs the event, and the registry is a handful of relaxed
//! atomic increments per replication.

use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// The pipeline stages measured by the [`Registry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Random task-graph generation.
    Generate,
    /// Deadline distribution (slicing or a baseline).
    Distribute,
    /// Incremental re-slicing after a graph delta
    /// ([`Slicer::redistribute`](slicing::Slicer::redistribute)).
    Redistribute,
    /// List scheduling.
    Schedule,
    /// The always-on audit (assignment checker plus schedule validation),
    /// timed separately from the stages it checks.
    Audit,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Generate,
        Stage::Distribute,
        Stage::Redistribute,
        Stage::Schedule,
        Stage::Audit,
    ];

    /// The stage's snake_case label, as used in event fields.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Generate => "generate",
            Stage::Distribute => "distribute",
            Stage::Redistribute => "redistribute",
            Stage::Schedule => "schedule",
            Stage::Audit => "audit",
        }
    }
}

/// Number of power-of-two histogram buckets; bucket `i` counts durations
/// with `floor(log2(µs)) == i - 1` (bucket 0 is `< 1 µs`), so the top
/// bucket covers everything from ~35 minutes up.
const BUCKETS: usize = 32;

/// A lock-free histogram of wall-clock durations with power-of-two
/// microsecond buckets.
#[derive(Debug)]
pub struct DurationHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    total_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for DurationHistogram {
    fn default() -> Self {
        DurationHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl DurationHistogram {
    /// Records one observation.
    pub fn record(&self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let bucket = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn total(&self) -> Duration {
        Duration::from_micros(self.total_us.load(Ordering::Relaxed))
    }

    /// Mean observation (zero when empty).
    pub fn mean(&self) -> Duration {
        let total = self.total_us.load(Ordering::Relaxed);
        total
            .checked_div(self.count())
            .map_or(Duration::ZERO, Duration::from_micros)
    }

    /// The `p`-th percentile observation (`0.0 < p <= 1.0`), estimated from
    /// the log2 buckets by nearest rank; exact to within one power-of-two
    /// bucket of the true order statistic (zero when empty).
    pub fn percentile(&self, p: f64) -> Duration {
        let snap = self.snapshot();
        Duration::from_micros(percentile_from_buckets(
            snap.count,
            snap.max_us,
            &snap.buckets,
            p,
        ))
    }

    /// An immutable copy of the histogram's state.
    pub fn snapshot(&self) -> StageSnapshot {
        let buckets: Vec<(u64, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let count = b.load(Ordering::Relaxed);
                (count > 0).then(|| (upper_bound_us(i), count))
            })
            .collect();
        StageSnapshot::from_parts(
            self.count(),
            self.total_us.load(Ordering::Relaxed),
            self.max_us.load(Ordering::Relaxed),
            buckets,
        )
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.total_us.store(0, Ordering::Relaxed);
        self.max_us.store(0, Ordering::Relaxed);
    }
}

/// Exclusive upper bound (µs) of histogram bucket `i`.
fn upper_bound_us(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// Nearest-rank percentile over sparse `(exclusive upper bound µs, count)`
/// buckets: walks the cumulative counts to the bucket holding rank
/// `ceil(p · count)` and reports that bucket's largest representable value,
/// clamped to the recorded maximum so the estimate always lies inside the
/// selected bucket. Exact to within one log2 bucket of the true order
/// statistic; zero when empty.
fn percentile_from_buckets(count: u64, max_us: u64, buckets: &[(u64, u64)], p: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((p * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for &(upper, n) in buckets {
        seen += n;
        if seen >= rank {
            return max_us.min(upper.saturating_sub(1));
        }
    }
    max_us
}

/// Exact nearest-rank percentile of a **sorted** slice: the reference the
/// histogram estimate is property-tested against. Returns the element at
/// rank `ceil(p · len)` (1-based); zero when empty.
pub fn percentile_reference(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((p * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1]
}

/// Merges two sorted sparse bucket lists by summing counts per bound.
fn merge_buckets(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(&(ub, n)), None) => {
                out.push((ub, n));
                i += 1;
            }
            (None, Some(&(ub, n))) => {
                out.push((ub, n));
                j += 1;
            }
            (Some(&(ua, na)), Some(&(ub, nb))) => {
                if ua == ub {
                    out.push((ua, na + nb));
                    i += 1;
                    j += 1;
                } else if ua < ub {
                    out.push((ua, na));
                    i += 1;
                } else {
                    out.push((ub, nb));
                    j += 1;
                }
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    out
}

/// Aggregated pipeline metrics: counters plus one duration histogram per
/// [`Stage`].
#[derive(Debug, Default)]
pub struct Registry {
    graphs_generated: AtomicU64,
    schedules_built: AtomicU64,
    feasibility_failures: AtomicU64,
    structural_violations: AtomicU64,
    window_violations: AtomicU64,
    schedule_violations: AtomicU64,
    replications_failed: AtomicU64,
    checkpoint_retries: AtomicU64,
    delta_cache_hits: AtomicU64,
    delta_cache_misses: AtomicU64,
    delta_dirty_nodes: AtomicU64,
    delta_scanned_nodes: AtomicU64,
    admissions_admitted: AtomicU64,
    admissions_rejected: AtomicU64,
    admissions_shed: AtomicU64,
    admissions_worker_failed: AtomicU64,
    admissions_evicted: AtomicU64,
    admissions_prefiltered: AtomicU64,
    admissions_structural_fallbacks: AtomicU64,
    slice_cache_hits: AtomicU64,
    slice_cache_misses: AtomicU64,
    slice_cache_evictions: AtomicU64,
    admission_log_retries: AtomicU64,
    admission_log_failures: AtomicU64,
    admission_wal_graphs: AtomicU64,
    admission: DurationHistogram,
    admission_sojourn: DurationHistogram,
    generate: DurationHistogram,
    distribute: DurationHistogram,
    redistribute: DurationHistogram,
    schedule: DurationHistogram,
    audit: DurationHistogram,
}

impl Registry {
    /// The stage's histogram.
    pub fn stage(&self, stage: Stage) -> &DurationHistogram {
        match stage {
            Stage::Generate => &self.generate,
            Stage::Distribute => &self.distribute,
            Stage::Redistribute => &self.redistribute,
            Stage::Schedule => &self.schedule,
            Stage::Audit => &self.audit,
        }
    }

    /// Records a stage's wall-clock time.
    pub fn record_stage(&self, stage: Stage, elapsed: Duration) {
        self.stage(stage).record(elapsed);
    }

    /// Counts one generated task graph.
    pub fn count_graph(&self) {
        self.graphs_generated.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one completed schedule, its feasibility outcome and any
    /// structural violations found by validation.
    pub fn count_schedule(&self, feasible: bool, violations: usize) {
        self.schedules_built.fetch_add(1, Ordering::Relaxed);
        if !feasible {
            self.feasibility_failures.fetch_add(1, Ordering::Relaxed);
        }
        self.structural_violations
            .fetch_add(violations as u64, Ordering::Relaxed);
    }

    /// Counts one replication's audit outcome, split into deadline-window
    /// violations (the assignment checker) and schedule violations
    /// ([`Schedule::validate`]). The split sums to the total recorded by
    /// [`Registry::count_schedule`].
    ///
    /// [`Schedule::validate`]: sched::Schedule::validate
    pub fn count_audit(&self, window: usize, schedule: usize) {
        self.window_violations
            .fetch_add(window as u64, Ordering::Relaxed);
        self.schedule_violations
            .fetch_add(schedule as u64, Ordering::Relaxed);
    }

    /// Counts one replication that degraded to a failed outcome (excluded
    /// from statistics instead of aborting the sweep).
    pub fn count_failed_replication(&self) {
        self.replications_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one retried checkpoint append (transient I/O failure).
    pub fn count_checkpoint_retry(&self) {
        self.checkpoint_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Accumulates one redistribution's reuse counters
    /// ([`slicing::RedistributeStats`]).
    pub fn count_redistribute(&self, stats: &slicing::RedistributeStats) {
        self.delta_cache_hits
            .fetch_add(stats.cache_hits, Ordering::Relaxed);
        self.delta_cache_misses
            .fetch_add(stats.cache_misses, Ordering::Relaxed);
        self.delta_dirty_nodes
            .fetch_add(stats.dirty_nodes, Ordering::Relaxed);
        self.delta_scanned_nodes
            .fetch_add(stats.scanned_nodes, Ordering::Relaxed);
    }

    /// Records one admission decision and the service time spent deciding
    /// it (the trial-schedule + commit/discard critical section).
    pub fn record_admission(&self, admitted: bool, elapsed: Duration) {
        if admitted {
            self.admissions_admitted.fetch_add(1, Ordering::Relaxed);
        } else {
            self.admissions_rejected.fetch_add(1, Ordering::Relaxed);
        }
        self.admission.record(elapsed);
    }

    /// Admission requests answered with an admit verdict.
    pub fn admissions_admitted(&self) -> u64 {
        self.admissions_admitted.load(Ordering::Relaxed)
    }

    /// Admission requests answered with a reject verdict.
    pub fn admissions_rejected(&self) -> u64 {
        self.admissions_rejected.load(Ordering::Relaxed)
    }

    /// The admission-decision service-time histogram.
    pub fn admission(&self) -> &DurationHistogram {
        &self.admission
    }

    /// Counts one request shed for out-waiting its decision budget.
    pub fn count_admission_shed(&self) {
        self.admissions_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request degraded to a `WorkerFailed` verdict by a
    /// slicer-worker panic.
    pub fn count_admission_worker_failed(&self) {
        self.admissions_worker_failed
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one resident evicted by the capacity bound's eviction
    /// policy (retirement at the horizon is not an eviction).
    pub fn count_admission_evicted(&self) {
        self.admissions_evicted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one admission refused by the feasibility pre-filter before
    /// any slicing work.
    pub fn count_admission_prefiltered(&self) {
        self.admissions_prefiltered.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one slicing run answered without the DP: from the
    /// cross-request slice cache, or — in a sweep — by reusing the same
    /// replication's product from the previous system size because the
    /// slicing inputs repeat.
    pub fn count_slice_cache_hit(&self) {
        self.slice_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one slicing run that ran the DP live: a cross-request slice
    /// cache miss, or a sweep cell whose slicing inputs differ from the
    /// previous size's (or that has no previous size to reuse).
    pub fn count_slice_cache_miss(&self) {
        self.slice_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one entry evicted from the cross-request slice cache by
    /// its LRU bound.
    pub fn count_slice_cache_eviction(&self) {
        self.slice_cache_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one structural amendment that fell back to a full rebuild
    /// and re-trial instead of the schedule-repair fast path.
    pub fn count_admission_structural_fallback(&self) {
        self.admissions_structural_fallbacks
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one retried admission-WAL append (transient I/O failure).
    pub fn count_admission_log_retry(&self) {
        self.admission_log_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one admission-WAL append that failed past every retry (the
    /// verdict was still returned; durability for that record is lost).
    pub fn count_admission_log_failure(&self) {
        self.admission_log_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one task graph sealed on its own `Graph` line of an
    /// admission WAL (admits of a graph the log already holds reference
    /// it instead).
    pub fn count_admission_wal_graph(&self) {
        self.admission_wal_graphs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one non-shed request's queue sojourn: submission to
    /// decision, including queue wait and slicing.
    pub fn record_admission_sojourn(&self, elapsed: Duration) {
        self.admission_sojourn.record(elapsed);
    }

    /// Requests shed for out-waiting their decision budget.
    pub fn admissions_shed(&self) -> u64 {
        self.admissions_shed.load(Ordering::Relaxed)
    }

    /// Requests degraded to `WorkerFailed` verdicts by worker panics.
    pub fn admissions_worker_failed(&self) -> u64 {
        self.admissions_worker_failed.load(Ordering::Relaxed)
    }

    /// Residents evicted by the capacity bound's eviction policy.
    pub fn admissions_evicted(&self) -> u64 {
        self.admissions_evicted.load(Ordering::Relaxed)
    }

    /// Admissions refused by the feasibility pre-filter.
    pub fn admissions_prefiltered(&self) -> u64 {
        self.admissions_prefiltered.load(Ordering::Relaxed)
    }

    /// Slicing runs answered without the DP (cache hits and sweep
    /// reuses; see [`count_slice_cache_hit`](Registry::count_slice_cache_hit)).
    pub fn slice_cache_hits(&self) -> u64 {
        self.slice_cache_hits.load(Ordering::Relaxed)
    }

    /// Slicing runs that ran the DP (see
    /// [`count_slice_cache_miss`](Registry::count_slice_cache_miss)).
    pub fn slice_cache_misses(&self) -> u64 {
        self.slice_cache_misses.load(Ordering::Relaxed)
    }

    /// Entries evicted from the cross-request slice cache.
    pub fn slice_cache_evictions(&self) -> u64 {
        self.slice_cache_evictions.load(Ordering::Relaxed)
    }

    /// Structural amendments that fell back to full rebuild + re-trial.
    pub fn admissions_structural_fallbacks(&self) -> u64 {
        self.admissions_structural_fallbacks.load(Ordering::Relaxed)
    }

    /// Admission-WAL appends that had to be retried.
    pub fn admission_log_retries(&self) -> u64 {
        self.admission_log_retries.load(Ordering::Relaxed)
    }

    /// Admission-WAL appends that failed past every retry.
    pub fn admission_log_failures(&self) -> u64 {
        self.admission_log_failures.load(Ordering::Relaxed)
    }

    /// Task graphs sealed on their own admission-WAL `Graph` line.
    pub fn admission_wal_graphs(&self) -> u64 {
        self.admission_wal_graphs.load(Ordering::Relaxed)
    }

    /// The submission-to-decision sojourn histogram (non-shed requests).
    pub fn admission_sojourn(&self) -> &DurationHistogram {
        &self.admission_sojourn
    }

    /// Number of graphs generated so far.
    pub fn graphs_generated(&self) -> u64 {
        self.graphs_generated.load(Ordering::Relaxed)
    }

    /// Number of schedules built so far.
    pub fn schedules_built(&self) -> u64 {
        self.schedules_built.load(Ordering::Relaxed)
    }

    /// Number of schedules that missed at least one assigned deadline.
    pub fn feasibility_failures(&self) -> u64 {
        self.feasibility_failures.load(Ordering::Relaxed)
    }

    /// Total structural violations across all replications.
    pub fn structural_violations(&self) -> u64 {
        self.structural_violations.load(Ordering::Relaxed)
    }

    /// Deadline-window violations found by the assignment audit.
    pub fn window_violations(&self) -> u64 {
        self.window_violations.load(Ordering::Relaxed)
    }

    /// Schedule violations found by [`Schedule::validate`].
    ///
    /// [`Schedule::validate`]: sched::Schedule::validate
    pub fn schedule_violations(&self) -> u64 {
        self.schedule_violations.load(Ordering::Relaxed)
    }

    /// Replications degraded to failed outcomes.
    pub fn replications_failed(&self) -> u64 {
        self.replications_failed.load(Ordering::Relaxed)
    }

    /// Checkpoint appends that had to be retried.
    pub fn checkpoint_retries(&self) -> u64 {
        self.checkpoint_retries.load(Ordering::Relaxed)
    }

    /// Per-start path searches that redistributions answered from their
    /// run's search table.
    pub fn delta_cache_hits(&self) -> u64 {
        self.delta_cache_hits.load(Ordering::Relaxed)
    }

    /// Per-start path searches that ran the DP during redistribution.
    pub fn delta_cache_misses(&self) -> u64 {
        self.delta_cache_misses.load(Ordering::Relaxed)
    }

    /// Expanded nodes whose virtual weight differed from the memo's.
    pub fn delta_dirty_nodes(&self) -> u64 {
        self.delta_dirty_nodes.load(Ordering::Relaxed)
    }

    /// Expanded nodes compared against a memo — the denominator of
    /// [`delta_dirty_frac`](Registry::delta_dirty_frac).
    pub fn delta_scanned_nodes(&self) -> u64 {
        self.delta_scanned_nodes.load(Ordering::Relaxed)
    }

    /// Fraction of compared expanded nodes whose virtual weight moved,
    /// across all redistributions (zero when none compared any).
    pub fn delta_dirty_frac(&self) -> f64 {
        let scanned = self.delta_scanned_nodes();
        if scanned == 0 {
            0.0
        } else {
            self.delta_dirty_nodes() as f64 / scanned as f64
        }
    }

    /// An immutable, serializable copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            graphs_generated: self.graphs_generated(),
            schedules_built: self.schedules_built(),
            feasibility_failures: self.feasibility_failures(),
            structural_violations: self.structural_violations(),
            window_violations: self.window_violations(),
            schedule_violations: self.schedule_violations(),
            replications_failed: self.replications_failed(),
            checkpoint_retries: self.checkpoint_retries(),
            delta_cache_hits: self.delta_cache_hits(),
            delta_cache_misses: self.delta_cache_misses(),
            delta_dirty_nodes: self.delta_dirty_nodes(),
            delta_scanned_nodes: self.delta_scanned_nodes(),
            admissions_admitted: self.admissions_admitted(),
            admissions_rejected: self.admissions_rejected(),
            admissions_shed: self.admissions_shed(),
            admissions_worker_failed: self.admissions_worker_failed(),
            admissions_evicted: self.admissions_evicted(),
            admissions_prefiltered: self.admissions_prefiltered(),
            admissions_structural_fallbacks: self.admissions_structural_fallbacks(),
            slice_cache_hits: self.slice_cache_hits(),
            slice_cache_misses: self.slice_cache_misses(),
            slice_cache_evictions: self.slice_cache_evictions(),
            admission_log_retries: self.admission_log_retries(),
            admission_log_failures: self.admission_log_failures(),
            admission_wal_graphs: self.admission_wal_graphs(),
            admission: self.admission.snapshot(),
            admission_sojourn: self.admission_sojourn.snapshot(),
            generate: self.generate.snapshot(),
            distribute: self.distribute.snapshot(),
            redistribute: self.redistribute.snapshot(),
            schedule: self.schedule.snapshot(),
            audit: self.audit.snapshot(),
        }
    }

    /// Zeroes every counter and histogram (for tests and repeated runs).
    pub fn reset(&self) {
        self.graphs_generated.store(0, Ordering::Relaxed);
        self.schedules_built.store(0, Ordering::Relaxed);
        self.feasibility_failures.store(0, Ordering::Relaxed);
        self.structural_violations.store(0, Ordering::Relaxed);
        self.window_violations.store(0, Ordering::Relaxed);
        self.schedule_violations.store(0, Ordering::Relaxed);
        self.replications_failed.store(0, Ordering::Relaxed);
        self.checkpoint_retries.store(0, Ordering::Relaxed);
        self.delta_cache_hits.store(0, Ordering::Relaxed);
        self.delta_cache_misses.store(0, Ordering::Relaxed);
        self.delta_dirty_nodes.store(0, Ordering::Relaxed);
        self.delta_scanned_nodes.store(0, Ordering::Relaxed);
        self.admissions_admitted.store(0, Ordering::Relaxed);
        self.admissions_rejected.store(0, Ordering::Relaxed);
        self.admissions_shed.store(0, Ordering::Relaxed);
        self.admissions_worker_failed.store(0, Ordering::Relaxed);
        self.admissions_evicted.store(0, Ordering::Relaxed);
        self.admissions_prefiltered.store(0, Ordering::Relaxed);
        self.admissions_structural_fallbacks
            .store(0, Ordering::Relaxed);
        self.slice_cache_hits.store(0, Ordering::Relaxed);
        self.slice_cache_misses.store(0, Ordering::Relaxed);
        self.slice_cache_evictions.store(0, Ordering::Relaxed);
        self.admission_log_retries.store(0, Ordering::Relaxed);
        self.admission_log_failures.store(0, Ordering::Relaxed);
        self.admission_wal_graphs.store(0, Ordering::Relaxed);
        self.admission.reset();
        self.admission_sojourn.reset();
        self.generate.reset();
        self.distribute.reset();
        self.redistribute.reset();
        self.schedule.reset();
        self.audit.reset();
    }
}

/// The process-global registry the runner feeds.
pub fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Serializable copy of one stage's histogram. The default value is an
/// empty histogram (it also backs deserialization of snapshots written
/// before a stage existed).
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations, µs.
    pub total_us: u64,
    /// Mean observation, µs.
    pub mean_us: u64,
    /// Median observation, µs (nearest rank, within one log2 bucket).
    pub p50_us: u64,
    /// 90th-percentile observation, µs (within one log2 bucket).
    pub p90_us: u64,
    /// 99th-percentile observation, µs (within one log2 bucket).
    pub p99_us: u64,
    /// Largest observation, µs.
    pub max_us: u64,
    /// Non-empty `(exclusive upper bound µs, count)` power-of-two buckets.
    pub buckets: Vec<(u64, u64)>,
}

impl StageSnapshot {
    /// Builds a snapshot from raw accumulator state, deriving the mean and
    /// the percentile estimates.
    fn from_parts(count: u64, total_us: u64, max_us: u64, buckets: Vec<(u64, u64)>) -> Self {
        StageSnapshot {
            count,
            total_us,
            mean_us: total_us.checked_div(count).unwrap_or(0),
            p50_us: percentile_from_buckets(count, max_us, &buckets, 0.50),
            p90_us: percentile_from_buckets(count, max_us, &buckets, 0.90),
            p99_us: percentile_from_buckets(count, max_us, &buckets, 0.99),
            max_us,
            buckets,
        }
    }

    /// The `p`-th percentile (`0.0 < p <= 1.0`) of this snapshot, within
    /// one log2 bucket of the true order statistic.
    pub fn percentile_us(&self, p: f64) -> u64 {
        percentile_from_buckets(self.count, self.max_us, &self.buckets, p)
    }

    /// Combines two snapshots as if every observation had been recorded
    /// into one histogram: counts, totals and buckets add, the max is the
    /// larger max, and the derived mean/percentiles are recomputed from the
    /// merged buckets. Shard merging relies on this being associative and
    /// commutative.
    #[must_use]
    pub fn merge(&self, other: &StageSnapshot) -> StageSnapshot {
        StageSnapshot::from_parts(
            self.count + other.count,
            self.total_us + other.total_us,
            self.max_us.max(other.max_us),
            merge_buckets(&self.buckets, &other.buckets),
        )
    }

    /// The observations recorded between `earlier` and `self` (two
    /// snapshots of the *same* histogram): counts, totals and buckets
    /// subtract and the derived statistics are recomputed. The max cannot
    /// be windowed from snapshots alone, so the later max is kept as an
    /// upper bound.
    #[must_use]
    pub fn delta(&self, earlier: &StageSnapshot) -> StageSnapshot {
        let mut buckets: Vec<(u64, u64)> = Vec::with_capacity(self.buckets.len());
        for &(upper, n) in &self.buckets {
            let before = earlier
                .buckets
                .iter()
                .find(|&&(u, _)| u == upper)
                .map_or(0, |&(_, c)| c);
            let remaining = n.saturating_sub(before);
            if remaining > 0 {
                buckets.push((upper, remaining));
            }
        }
        StageSnapshot::from_parts(
            self.count.saturating_sub(earlier.count),
            self.total_us.saturating_sub(earlier.total_us),
            self.max_us,
            buckets,
        )
    }
}

/// Serializable copy of the whole [`Registry`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Task graphs generated.
    pub graphs_generated: u64,
    /// Schedules built.
    pub schedules_built: u64,
    /// Schedules that missed at least one assigned deadline.
    pub feasibility_failures: u64,
    /// Structural violations across all replications.
    pub structural_violations: u64,
    /// Deadline-window violations found by the assignment audit.
    pub window_violations: u64,
    /// Schedule violations found by schedule validation.
    pub schedule_violations: u64,
    /// Replications degraded to failed outcomes.
    pub replications_failed: u64,
    /// Checkpoint appends that had to be retried.
    pub checkpoint_retries: u64,
    /// Per-start path searches redistributions reused within their run.
    /// (Defaulted so snapshots written before the delta pipeline parse.)
    #[serde(default)]
    pub delta_cache_hits: u64,
    /// Per-start path searches run during redistribution.
    #[serde(default)]
    pub delta_cache_misses: u64,
    /// Expanded nodes whose virtual weight differed from the memo's.
    #[serde(default)]
    pub delta_dirty_nodes: u64,
    /// Expanded nodes compared against a memo (the dirty-fraction
    /// denominator).
    #[serde(default)]
    pub delta_scanned_nodes: u64,
    /// Admission requests answered with an admit verdict.
    /// (Defaulted so snapshots written before the admission service parse.)
    #[serde(default)]
    pub admissions_admitted: u64,
    /// Admission requests answered with a reject verdict.
    #[serde(default)]
    pub admissions_rejected: u64,
    /// Admission requests shed for out-waiting their decision budget.
    /// (Defaulted so snapshots written before PR 9's robustness layer parse.)
    #[serde(default)]
    pub admissions_shed: u64,
    /// Admission requests degraded to `WorkerFailed` verdicts.
    #[serde(default)]
    pub admissions_worker_failed: u64,
    /// Residents evicted by the capacity bound's eviction policy.
    #[serde(default)]
    pub admissions_evicted: u64,
    /// Admissions refused by the feasibility pre-filter before slicing.
    /// (Defaulted so snapshots written before the fast lane parse.)
    #[serde(default)]
    pub admissions_prefiltered: u64,
    /// Structural amendments that fell back to full rebuild + re-trial.
    #[serde(default)]
    pub admissions_structural_fallbacks: u64,
    /// Slicing runs answered without the DP: cross-request slice cache
    /// hits, plus sweep cells that reused the previous system size's
    /// product of the same replication.
    #[serde(default)]
    pub slice_cache_hits: u64,
    /// Slicing runs that ran the DP: cross-request slice cache misses,
    /// plus sweep cells whose slicing inputs were new for their
    /// replication.
    #[serde(default)]
    pub slice_cache_misses: u64,
    /// Entries evicted from the cross-request slice cache.
    #[serde(default)]
    pub slice_cache_evictions: u64,
    /// Admission-WAL appends that had to be retried.
    #[serde(default)]
    pub admission_log_retries: u64,
    /// Admission-WAL appends that failed past every retry.
    #[serde(default)]
    pub admission_log_failures: u64,
    /// Task graphs sealed on their own admission-WAL `Graph` line; over
    /// the admits sealed, the share of admits whose graph was new to the
    /// log.
    #[serde(default)]
    pub admission_wal_graphs: u64,
    /// Admission-decision service-time histogram.
    #[serde(default)]
    pub admission: StageSnapshot,
    /// Submission-to-decision sojourn histogram (non-shed requests).
    #[serde(default)]
    pub admission_sojourn: StageSnapshot,
    /// Generation-stage timings.
    pub generate: StageSnapshot,
    /// Distribution-stage timings.
    pub distribute: StageSnapshot,
    /// Redistribution-stage timings (incremental re-slicing).
    #[serde(default)]
    pub redistribute: StageSnapshot,
    /// Scheduling-stage timings.
    pub schedule: StageSnapshot,
    /// Audit-stage timings (assignment checker + schedule validation).
    pub audit: StageSnapshot,
}

impl MetricsSnapshot {
    /// The named stage's snapshot.
    pub fn stage(&self, stage: Stage) -> &StageSnapshot {
        match stage {
            Stage::Generate => &self.generate,
            Stage::Distribute => &self.distribute,
            Stage::Redistribute => &self.redistribute,
            Stage::Schedule => &self.schedule,
            Stage::Audit => &self.audit,
        }
    }

    /// Combines two snapshots as if both registries' observations had been
    /// recorded into one: counters add and each stage histogram merges via
    /// [`StageSnapshot::merge`]. Used to aggregate per-shard `metrics.json`
    /// files into a sweep-wide view.
    #[must_use]
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            graphs_generated: self.graphs_generated + other.graphs_generated,
            schedules_built: self.schedules_built + other.schedules_built,
            feasibility_failures: self.feasibility_failures + other.feasibility_failures,
            structural_violations: self.structural_violations + other.structural_violations,
            window_violations: self.window_violations + other.window_violations,
            schedule_violations: self.schedule_violations + other.schedule_violations,
            replications_failed: self.replications_failed + other.replications_failed,
            checkpoint_retries: self.checkpoint_retries + other.checkpoint_retries,
            delta_cache_hits: self.delta_cache_hits + other.delta_cache_hits,
            delta_cache_misses: self.delta_cache_misses + other.delta_cache_misses,
            delta_dirty_nodes: self.delta_dirty_nodes + other.delta_dirty_nodes,
            delta_scanned_nodes: self.delta_scanned_nodes + other.delta_scanned_nodes,
            admissions_admitted: self.admissions_admitted + other.admissions_admitted,
            admissions_rejected: self.admissions_rejected + other.admissions_rejected,
            admissions_shed: self.admissions_shed + other.admissions_shed,
            admissions_worker_failed: self.admissions_worker_failed
                + other.admissions_worker_failed,
            admissions_evicted: self.admissions_evicted + other.admissions_evicted,
            admissions_prefiltered: self.admissions_prefiltered + other.admissions_prefiltered,
            admissions_structural_fallbacks: self.admissions_structural_fallbacks
                + other.admissions_structural_fallbacks,
            slice_cache_hits: self.slice_cache_hits + other.slice_cache_hits,
            slice_cache_misses: self.slice_cache_misses + other.slice_cache_misses,
            slice_cache_evictions: self.slice_cache_evictions + other.slice_cache_evictions,
            admission_log_retries: self.admission_log_retries + other.admission_log_retries,
            admission_log_failures: self.admission_log_failures + other.admission_log_failures,
            admission_wal_graphs: self.admission_wal_graphs + other.admission_wal_graphs,
            admission: self.admission.merge(&other.admission),
            admission_sojourn: self.admission_sojourn.merge(&other.admission_sojourn),
            generate: self.generate.merge(&other.generate),
            distribute: self.distribute.merge(&other.distribute),
            redistribute: self.redistribute.merge(&other.redistribute),
            schedule: self.schedule.merge(&other.schedule),
            audit: self.audit.merge(&other.audit),
        }
    }

    /// Everything recorded between `earlier` and `self` (two snapshots of
    /// the *same* registry): counters subtract and each stage histogram is
    /// windowed via [`StageSnapshot::delta`]. Used to attribute the
    /// process-global registry to one experiment.
    #[must_use]
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            graphs_generated: self
                .graphs_generated
                .saturating_sub(earlier.graphs_generated),
            schedules_built: self.schedules_built.saturating_sub(earlier.schedules_built),
            feasibility_failures: self
                .feasibility_failures
                .saturating_sub(earlier.feasibility_failures),
            structural_violations: self
                .structural_violations
                .saturating_sub(earlier.structural_violations),
            window_violations: self
                .window_violations
                .saturating_sub(earlier.window_violations),
            schedule_violations: self
                .schedule_violations
                .saturating_sub(earlier.schedule_violations),
            replications_failed: self
                .replications_failed
                .saturating_sub(earlier.replications_failed),
            checkpoint_retries: self
                .checkpoint_retries
                .saturating_sub(earlier.checkpoint_retries),
            delta_cache_hits: self
                .delta_cache_hits
                .saturating_sub(earlier.delta_cache_hits),
            delta_cache_misses: self
                .delta_cache_misses
                .saturating_sub(earlier.delta_cache_misses),
            delta_dirty_nodes: self
                .delta_dirty_nodes
                .saturating_sub(earlier.delta_dirty_nodes),
            delta_scanned_nodes: self
                .delta_scanned_nodes
                .saturating_sub(earlier.delta_scanned_nodes),
            admissions_admitted: self
                .admissions_admitted
                .saturating_sub(earlier.admissions_admitted),
            admissions_rejected: self
                .admissions_rejected
                .saturating_sub(earlier.admissions_rejected),
            admissions_shed: self.admissions_shed.saturating_sub(earlier.admissions_shed),
            admissions_worker_failed: self
                .admissions_worker_failed
                .saturating_sub(earlier.admissions_worker_failed),
            admissions_evicted: self
                .admissions_evicted
                .saturating_sub(earlier.admissions_evicted),
            admissions_prefiltered: self
                .admissions_prefiltered
                .saturating_sub(earlier.admissions_prefiltered),
            admissions_structural_fallbacks: self
                .admissions_structural_fallbacks
                .saturating_sub(earlier.admissions_structural_fallbacks),
            slice_cache_hits: self
                .slice_cache_hits
                .saturating_sub(earlier.slice_cache_hits),
            slice_cache_misses: self
                .slice_cache_misses
                .saturating_sub(earlier.slice_cache_misses),
            slice_cache_evictions: self
                .slice_cache_evictions
                .saturating_sub(earlier.slice_cache_evictions),
            admission_log_retries: self
                .admission_log_retries
                .saturating_sub(earlier.admission_log_retries),
            admission_log_failures: self
                .admission_log_failures
                .saturating_sub(earlier.admission_log_failures),
            admission_wal_graphs: self
                .admission_wal_graphs
                .saturating_sub(earlier.admission_wal_graphs),
            admission: self.admission.delta(&earlier.admission),
            admission_sojourn: self.admission_sojourn.delta(&earlier.admission_sojourn),
            generate: self.generate.delta(&earlier.generate),
            distribute: self.distribute.delta(&earlier.distribute),
            redistribute: self.redistribute.delta(&earlier.redistribute),
            schedule: self.schedule.delta(&earlier.schedule),
            audit: self.audit.delta(&earlier.audit),
        }
    }
}

/// One record of the `events.jsonl` stream, serialized externally tagged:
/// `{"Replication": {...}}`.
// The once-per-run `RunEnd` variant inlines the full `MetricsSnapshot`;
// boxing it is not an option (the vendored serde has no `Box` impls) and
// events live only briefly on the emitting thread's stack.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RunEvent {
    /// A run began (emitted once by the driving binary).
    RunStart {
        /// Free-form description of what is being run (experiment ids,
        /// CLI arguments, …).
        command: String,
        /// Replications per scenario point.
        replications: usize,
        /// System sizes swept.
        system_sizes: Vec<usize>,
    },
    /// A checkpoint was loaded and its completed replications will be
    /// skipped (emitted by a resuming [`Runner`]).
    ///
    /// [`Runner`]: crate::Runner
    CheckpointLoaded {
        /// Checkpoint file.
        path: String,
        /// Completed `(system size, replication)` cells found in it.
        records: usize,
    },
    /// A workload was generated.
    GraphGenerated {
        /// Replication index (also the seed offset).
        replication: usize,
        /// Subtasks in the graph.
        subtasks: usize,
        /// Messages (edges) in the graph.
        messages: usize,
        /// Generation wall-clock, µs.
        generate_us: u64,
    },
    /// One full pipeline replication (distribute + schedule + measure)
    /// finished.
    Replication {
        /// Scenario label.
        scenario: String,
        /// Processors.
        system_size: usize,
        /// Replication index.
        replication: usize,
        /// Deadline-distribution wall-clock, µs.
        distribute_us: u64,
        /// List-scheduling wall-clock, µs.
        schedule_us: u64,
        /// Did the schedule meet every assigned deadline?
        feasible: bool,
        /// Structural violations found by validation.
        violations: usize,
        /// Maximum task lateness of this replication.
        max_lateness: f64,
    },
    /// The always-on audit found structural violations in one
    /// replication's output (also counted in the `Replication` event's
    /// `violations`; this event carries the window/schedule split).
    AuditViolation {
        /// Scenario label.
        scenario: String,
        /// Processors.
        system_size: usize,
        /// Replication index.
        replication: usize,
        /// Deadline-window violations (assignment checker).
        window: usize,
        /// Schedule violations (`Schedule::validate`).
        schedule: usize,
    },
    /// A replication failed after retries and was degraded to a typed
    /// failed outcome (excluded from statistics) instead of aborting the
    /// sweep.
    ReplicationFailed {
        /// Scenario label.
        scenario: String,
        /// Processors.
        system_size: usize,
        /// Replication index.
        replication: usize,
        /// Pipeline stage that failed (`generate`, `distribute`,
        /// `schedule`, `panic`).
        stage: String,
        /// The failure, rendered.
        error: String,
    },
    /// A sampled per-replication stage-profile breakdown (every Nth
    /// replication; see `Runner::profile_every`). Unlike the `Replication`
    /// event's coarse timings this separates audit self-time from the
    /// stages it checks.
    Profile {
        /// Scenario label.
        scenario: String,
        /// Processors.
        system_size: usize,
        /// Replication index.
        replication: usize,
        /// Deadline-distribution self-time, µs.
        distribute_us: u64,
        /// List-scheduling self-time, µs.
        schedule_us: u64,
        /// Audit self-time (assignment checker + schedule validation), µs.
        audit_us: u64,
    },
    /// Deadline-miss warnings were rate-limited: only the first K misses
    /// of the scenario were logged; the rest are accounted for here
    /// (emitted at most once per run, at the end).
    DeadlineMissSummary {
        /// Scenario label.
        scenario: String,
        /// Warnings actually emitted (at most the per-run limit).
        emitted: u64,
        /// Warnings suppressed beyond the limit.
        suppressed: u64,
    },
    /// A fault plan injected a fault (only emitted by `fault-inject`
    /// builds).
    FaultInjected {
        /// The fault site's kebab-case name.
        site: String,
        /// Processors (0 for size-independent sites).
        system_size: usize,
        /// Replication index.
        replication: usize,
        /// Which consecutive attempt at the cell was faulted.
        attempt: u64,
    },
    /// A scenario point (all replications at one system size) was
    /// aggregated.
    Point {
        /// Scenario label.
        scenario: String,
        /// Processors.
        system_size: usize,
        /// Mean maximum task lateness over the replications.
        mean_max_lateness: f64,
        /// Fraction of feasible replications.
        feasible_fraction: f64,
        /// Structural violations summed over the replications.
        violations: usize,
        /// Replications that degraded to failed outcomes and were
        /// excluded from the point's statistics.
        failed: usize,
    },
    /// The run finished (emitted once by the driving binary).
    RunEnd {
        /// Final registry snapshot.
        metrics: MetricsSnapshot,
    },
}

/// A line-buffered JSONL writer for [`RunEvent`]s.
#[derive(Debug)]
pub struct EventSink {
    writer: Mutex<BufWriter<File>>,
    path: PathBuf,
}

impl EventSink {
    /// Creates (truncating) the JSONL file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn create(path: impl AsRef<Path>) -> io::Result<EventSink> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(EventSink {
            writer: Mutex::new(BufWriter::new(file)),
            path,
        })
    }

    /// The file this sink writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one event as a JSON line. I/O errors are reported once as a
    /// tracing error and otherwise ignored: diagnostics must never abort an
    /// experiment.
    pub fn emit(&self, event: &RunEvent) {
        let line = serde_json::to_string(event).expect("plain data serializes");
        let mut writer = self.writer.lock().expect("event sink poisoned");
        if let Err(e) = writeln!(writer, "{line}") {
            tracing::error!(path = %self.path.display(), "event sink write failed: {e}");
        }
    }

    /// Flushes buffered lines to disk.
    pub fn flush(&self) {
        let _ = self.writer.lock().expect("event sink poisoned").flush();
    }
}

impl Drop for EventSink {
    fn drop(&mut self) {
        self.flush();
    }
}

fn sink_slot() -> &'static Mutex<Option<Arc<EventSink>>> {
    static SINK: OnceLock<Mutex<Option<Arc<EventSink>>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Installs `sink` as the process-wide event stream, replacing (and
/// flushing) any previous one.
pub fn install(sink: EventSink) {
    *sink_slot().lock().expect("sink slot poisoned") = Some(Arc::new(sink));
}

/// Removes and returns the installed sink, flushing it first.
pub fn uninstall() -> Option<Arc<EventSink>> {
    let sink = sink_slot().lock().expect("sink slot poisoned").take();
    if let Some(sink) = &sink {
        sink.flush();
    }
    sink
}

/// The currently installed sink, if any.
pub fn installed() -> Option<Arc<EventSink>> {
    sink_slot().lock().expect("sink slot poisoned").clone()
}

/// Emits the event built by `f` to the installed sink; without a sink the
/// closure is never called.
pub fn emit_with(f: impl FnOnce() -> RunEvent) {
    if let Some(sink) = installed() {
        sink.emit(&f());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_records_counts_totals_and_buckets() {
        let h = DurationHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Duration::ZERO);

        h.record(Duration::from_micros(3)); // bucket for 2..4 µs
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(900)); // bucket for 512..1024 µs
        assert_eq!(h.count(), 3);
        assert_eq!(h.total(), Duration::from_micros(906));
        assert_eq!(h.mean(), Duration::from_micros(302));

        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.total_us, 906);
        assert_eq!(snap.max_us, 900);
        assert_eq!(snap.buckets, vec![(4, 2), (1024, 1)]);
        // Ranks 1..=2 land in the 2..4 µs bucket, rank 3 in 512..1024 µs.
        assert_eq!(snap.p50_us, 3); // bucket top (4 - 1)
        assert_eq!(snap.p90_us, 900); // clamped to the recorded max
        assert_eq!(snap.p99_us, 900);
        assert_eq!(h.percentile(0.5), Duration::from_micros(3));
        assert_eq!(h.percentile(1.0), Duration::from_micros(900));
    }

    #[test]
    fn percentiles_match_reference_on_a_known_series() {
        let h = DurationHistogram::default();
        let mut values: Vec<u64> = (1..=100).map(|i| i * 7).collect();
        for &v in &values {
            h.record(Duration::from_micros(v));
        }
        values.sort_unstable();
        for p in [0.5, 0.9, 0.99] {
            let reference = percentile_reference(&values, p);
            let estimate = h.percentile(p).as_micros() as u64;
            // Same log2 bucket: identical bit length.
            assert_eq!(
                64 - estimate.leading_zeros(),
                64 - reference.leading_zeros(),
                "p={p}: estimate {estimate} vs reference {reference}"
            );
            assert!(estimate >= reference, "nearest-rank upper bound");
        }
    }

    #[test]
    fn snapshots_merge_like_one_histogram() {
        let (a, b, both) = (
            DurationHistogram::default(),
            DurationHistogram::default(),
            DurationHistogram::default(),
        );
        for v in [3u64, 17, 900, 64] {
            a.record(Duration::from_micros(v));
            both.record(Duration::from_micros(v));
        }
        for v in [5u64, 5000, 12] {
            b.record(Duration::from_micros(v));
            both.record(Duration::from_micros(v));
        }
        assert_eq!(a.snapshot().merge(&b.snapshot()), both.snapshot());
        // Commutative, and merging an empty snapshot is the identity.
        assert_eq!(b.snapshot().merge(&a.snapshot()), both.snapshot());
        let empty = DurationHistogram::default().snapshot();
        assert_eq!(both.snapshot().merge(&empty), both.snapshot());
    }

    #[test]
    fn snapshot_delta_windows_the_new_observations() {
        let h = DurationHistogram::default();
        h.record(Duration::from_micros(10));
        let earlier = h.snapshot();
        h.record(Duration::from_micros(300));
        h.record(Duration::from_micros(12));
        let delta = h.snapshot().delta(&earlier);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.total_us, 312);
        assert_eq!(delta.mean_us, 156);
        // 10 and 12 share the 8..16 bucket: one of its two entries remains.
        assert_eq!(delta.buckets, vec![(16, 1), (512, 1)]);
    }

    #[test]
    fn histogram_handles_extremes() {
        let h = DurationHistogram::default();
        h.record(Duration::ZERO); // sub-microsecond → bucket 0
        h.record(Duration::from_secs(1 << 30)); // saturates in the top bucket
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.buckets.first().unwrap().0, 1);
        assert_eq!(snap.buckets.last().unwrap().0, u64::MAX);
    }

    #[test]
    fn registry_counters_accumulate_and_reset() {
        let r = Registry::default();
        r.count_graph();
        r.count_graph();
        r.count_schedule(true, 0);
        r.count_schedule(false, 3);
        r.count_audit(2, 1);
        r.count_failed_replication();
        r.count_checkpoint_retry();
        r.count_checkpoint_retry();
        r.count_redistribute(&slicing::RedistributeStats {
            cache_hits: 10,
            cache_misses: 2,
            dirty_nodes: 3,
            scanned_nodes: 24,
            fell_back: false,
        });
        r.record_stage(Stage::Generate, Duration::from_micros(10));
        r.record_stage(Stage::Distribute, Duration::from_micros(20));
        r.record_stage(Stage::Redistribute, Duration::from_micros(15));
        r.record_stage(Stage::Schedule, Duration::from_micros(30));
        r.record_stage(Stage::Audit, Duration::from_micros(5));
        r.record_admission(true, Duration::from_micros(40));
        r.record_admission(true, Duration::from_micros(45));
        r.record_admission(false, Duration::from_micros(50));
        r.count_admission_prefiltered();
        r.count_slice_cache_hit();
        r.count_slice_cache_hit();
        r.count_slice_cache_miss();
        r.count_slice_cache_eviction();

        assert_eq!(r.graphs_generated(), 2);
        assert_eq!(r.schedules_built(), 2);
        assert_eq!(r.feasibility_failures(), 1);
        assert_eq!(r.structural_violations(), 3);
        assert_eq!(r.window_violations(), 2);
        assert_eq!(r.schedule_violations(), 1);
        assert_eq!(r.replications_failed(), 1);
        assert_eq!(r.checkpoint_retries(), 2);
        assert_eq!(r.delta_cache_hits(), 10);
        assert_eq!(r.delta_cache_misses(), 2);
        assert_eq!(r.delta_dirty_nodes(), 3);
        assert_eq!(r.delta_scanned_nodes(), 24);
        assert!((r.delta_dirty_frac() - 0.125).abs() < 1e-12);
        assert_eq!(r.admissions_admitted(), 2);
        assert_eq!(r.admissions_rejected(), 1);
        assert_eq!(r.admissions_prefiltered(), 1);
        assert_eq!(r.slice_cache_hits(), 2);
        assert_eq!(r.slice_cache_misses(), 1);
        assert_eq!(r.slice_cache_evictions(), 1);
        assert_eq!(r.admission().count(), 3);
        for stage in Stage::ALL {
            assert_eq!(r.stage(stage).count(), 1, "{}", stage.label());
        }

        let snap = r.snapshot();
        assert_eq!(snap.graphs_generated, 2);
        assert_eq!(snap.distribute.total_us, 20);
        assert_eq!(snap.redistribute.total_us, 15);
        assert_eq!(snap.delta_cache_hits, 10);
        assert_eq!(snap.admissions_admitted, 2);
        assert_eq!(snap.admissions_prefiltered, 1);
        assert_eq!(snap.slice_cache_hits, 2);
        assert_eq!(snap.admission.count, 3);

        r.reset();
        assert_eq!(r.graphs_generated(), 0);
        assert_eq!(r.admissions_prefiltered(), 0);
        assert_eq!(r.slice_cache_hits(), 0);
        assert_eq!(r.slice_cache_evictions(), 0);
        assert_eq!(r.schedules_built(), 0);
        assert_eq!(r.window_violations(), 0);
        assert_eq!(r.replications_failed(), 0);
        assert_eq!(r.checkpoint_retries(), 0);
        assert_eq!(r.delta_cache_hits(), 0);
        assert_eq!(r.delta_scanned_nodes(), 0);
        assert_eq!(r.delta_dirty_frac(), 0.0);
        assert_eq!(r.admissions_admitted(), 0);
        assert_eq!(r.admissions_rejected(), 0);
        assert_eq!(r.admission().count(), 0);
        assert_eq!(r.stage(Stage::Schedule).count(), 0);
        assert_eq!(r.stage(Stage::Redistribute).count(), 0);
        assert_eq!(r.snapshot().schedule.buckets, vec![]);
    }

    #[test]
    fn snapshot_serializes_and_round_trips() {
        let r = Registry::default();
        r.count_schedule(false, 1);
        r.record_stage(Stage::Schedule, Duration::from_micros(100));
        let snap = r.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn event_sink_writes_one_json_line_per_event() {
        let path =
            std::env::temp_dir().join(format!("feast-telemetry-test-{}.jsonl", std::process::id()));
        let sink = EventSink::create(&path).unwrap();
        sink.emit(&RunEvent::RunStart {
            command: "test".into(),
            replications: 2,
            system_sizes: vec![2, 4],
        });
        sink.emit(&RunEvent::Replication {
            scenario: "PURE/CCNE".into(),
            system_size: 4,
            replication: 0,
            distribute_us: 11,
            schedule_us: 22,
            feasible: true,
            violations: 0,
            max_lateness: -12.5,
        });
        sink.flush();

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first: RunEvent = serde_json::from_str(lines[0]).unwrap();
        assert!(matches!(
            first,
            RunEvent::RunStart {
                replications: 2,
                ..
            }
        ));
        let second: RunEvent = serde_json::from_str(lines[1]).unwrap();
        match second {
            RunEvent::Replication {
                scenario,
                distribute_us,
                feasible,
                ..
            } => {
                assert_eq!(scenario, "PURE/CCNE");
                assert_eq!(distribute_us, 11);
                assert!(feasible);
            }
            other => panic!("expected Replication, got {other:?}"),
        }
    }

    #[test]
    fn emit_with_skips_construction_without_a_sink() {
        // `installed()` may race with other tests only if one installs a
        // global sink; none does, so the closure must not run.
        if installed().is_none() {
            emit_with(|| panic!("no sink installed: closure must not run"));
        }
    }
}
