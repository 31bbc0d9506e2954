//! The sweep engine slices each replication once per distinct slicing
//! input: a worker hands a replication's slice product to the next system
//! size whenever the platform-derived slicing inputs repeat. These tests
//! pin that the reuse is invisible — every cell equals a from-scratch
//! slice + trial, and a checkpoint holding any subset of cells resumes to
//! the uninterrupted run.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use feast::{
    PinningPolicy, Pipeline, ReplicationRecord, Runner, Scenario, TopologyKind, WorkloadSource,
};
use platform::Platform;
use slicing::{BaselineStrategy, CommEstimate, MetricKind};
use taskgraph::gen::{
    generate_seeded, generate_shape_seeded, stream_label, stream_seed, sub_stream, ExecVariation,
    WorkloadSpec,
};
use taskgraph::TaskGraph;

const REPS: usize = 5;

fn slicing(label: &str, metric: MetricKind, estimate: CommEstimate) -> Scenario {
    Scenario::paper(
        label,
        WorkloadSpec::paper(ExecVariation::Mdet),
        metric,
        estimate,
    )
    .with_replications(REPS)
    .with_system_sizes(vec![2, 3, 4, 6, 8, 9, 16])
}

fn baseline(label: &str, strategy: BaselineStrategy) -> Scenario {
    Scenario::baseline(label, WorkloadSpec::paper(ExecVariation::Mdet), strategy)
        .with_replications(REPS)
        .with_system_sizes(vec![2, 5, 8])
}

/// Every metric and baseline, both estimates, every topology family,
/// anchored-io pinning and strict windows — each axis at least once.
fn scenarios() -> Vec<Scenario> {
    vec![
        slicing("PURE/CCNE", MetricKind::pure(), CommEstimate::Ccne),
        slicing("PURE/CCAA/bus", MetricKind::pure(), CommEstimate::Ccaa),
        slicing("NORM/CCAA/ring", MetricKind::norm(), CommEstimate::Ccaa)
            .with_topology(TopologyKind::Ring),
        slicing("NORM/CCNE/ring/io", MetricKind::norm(), CommEstimate::Ccne)
            .with_topology(TopologyKind::Ring)
            .with_pinning(PinningPolicy::AnchoredIo),
        slicing(
            "THRES/CCNE/mesh/strict",
            MetricKind::thres(1.0),
            CommEstimate::Ccne,
        )
        .with_topology(TopologyKind::Mesh2D)
        .with_strict_windows(true),
        slicing(
            "THRES/CCAA/mesh",
            MetricKind::thres(1.0),
            CommEstimate::Ccaa,
        )
        .with_topology(TopologyKind::Mesh2D),
        slicing("ADAPT/CCNE", MetricKind::adapt(), CommEstimate::Ccne),
        slicing(
            "ADAPT/CCAA/full/io",
            MetricKind::adapt(),
            CommEstimate::Ccaa,
        )
        .with_topology(TopologyKind::FullyConnected)
        .with_pinning(PinningPolicy::AnchoredIo)
        .with_strict_windows(true),
        // Unsorted, with a repeated size: each distinct size runs once.
        slicing("NORM/CCNE/unsorted", MetricKind::norm(), CommEstimate::Ccne)
            .with_system_sizes(vec![8, 2, 4, 2]),
        baseline("UD", BaselineStrategy::Ultimate),
        baseline("ED/ring/io", BaselineStrategy::Effective)
            .with_topology(TopologyKind::Ring)
            .with_pinning(PinningPolicy::AnchoredIo),
    ]
}

/// The runner's workload draw for replication `rep`, without fault hooks.
fn workload_graph(scenario: &Scenario, rep: usize) -> TaskGraph {
    let json = serde_json::to_string(&scenario.workload).unwrap();
    let seed = stream_seed(
        scenario.base_seed,
        stream_label(json.as_bytes()),
        0,
        rep as u64,
    );
    (0..Runner::MAX_GENERATE_ATTEMPTS)
        .find_map(|attempt| {
            let s = sub_stream(seed, attempt);
            match &scenario.workload {
                WorkloadSource::Random(spec) => generate_seeded(spec, s).ok(),
                WorkloadSource::Shaped { shape, spec } => {
                    generate_shape_seeded(*shape, spec, s).ok()
                }
            }
        })
        .expect("replication generates")
}

/// Every cell of `scenario` sliced and trialed from scratch by a fresh
/// pipeline, sorted like the runner's records.
fn from_scratch(scenario: &Scenario) -> Vec<ReplicationRecord> {
    let mut sizes = scenario.system_sizes.clone();
    sizes.sort_unstable();
    sizes.dedup();
    let mut records = Vec::new();
    for &size in &sizes {
        let topology = scenario.topology.build(size, scenario.cost_per_item);
        let platform = Platform::homogeneous(size, topology).unwrap();
        for rep in 0..scenario.replications {
            let graph = workload_graph(scenario, rep);
            let verdict = Pipeline::new(scenario)
                .slice(&graph, &platform)
                .unwrap()
                .trial(&platform)
                .unwrap();
            records.push(ReplicationRecord {
                system_size: size,
                replication: rep,
                max_lateness: verdict.max_lateness.as_f64(),
                end_to_end: verdict.end_to_end.as_f64(),
                makespan: verdict.makespan.as_f64(),
                feasible: verdict.admit,
                violations: verdict.violations(),
                window_violations: Some(verdict.window_violations),
                schedule_violations: Some(verdict.schedule_violations),
            });
        }
    }
    records
}

#[test]
fn every_sweep_cell_equals_a_from_scratch_slice_and_trial() {
    for scenario in scenarios() {
        let partial = Runner::new(scenario.clone())
            .threads(2)
            .run_partial()
            .unwrap();
        assert!(partial.failed.is_empty(), "{}", scenario.label);
        assert_eq!(
            partial.records,
            from_scratch(&scenario),
            "{}",
            scenario.label
        );
    }
}

/// A fresh temp-file path; the file is removed by [`TempPath`]'s Drop.
struct TempPath(PathBuf);

impl TempPath {
    fn new(tag: &str) -> TempPath {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        TempPath(std::env::temp_dir().join(format!(
            "feast-reuse-{tag}-{}-{n}.jsonl",
            std::process::id()
        )))
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// The `(size, replication)` cell of a sealed checkpoint record line.
fn cell_of(line: &str) -> Option<(usize, usize)> {
    let serde::Value::Object(entries) = serde_json::from_str(line).ok()? else {
        return None;
    };
    let (_, serde::Value::Object(sealed)) = entries.iter().find(|(k, _)| k == "Sealed")? else {
        return None;
    };
    let (_, serde::Value::Object(record)) = sealed.iter().find(|(k, _)| k == "record")? else {
        return None;
    };
    let field = |name: &str| {
        record.iter().find(|(k, _)| k == name).map(|(_, v)| {
            serde_json::to_string(v)
                .unwrap()
                .parse::<usize>()
                .expect("integer field")
        })
    };
    Some((field("system_size")?, field("replication")?))
}

#[test]
fn resuming_from_any_subset_of_cells_equals_the_uninterrupted_run() {
    // Ring + CCAA: the worst case grows with n / 2 hops, so sizes 2 and 3
    // (and 4 and 5) share slicing inputs while 3 → 4 and 5 → 8 do not —
    // kept products both carry across and get dropped.
    let scenario = slicing("NORM/CCAA/ring", MetricKind::norm(), CommEstimate::Ccaa)
        .with_topology(TopologyKind::Ring)
        .with_replications(8)
        .with_system_sizes(vec![2, 3, 4, 5, 8]);
    let uninterrupted = Runner::new(scenario.clone()).threads(2).run().unwrap();

    let full = TempPath::new("full");
    Runner::new(scenario.clone())
        .threads(2)
        .checkpoint(&full.0)
        .run()
        .unwrap();
    let text = std::fs::read_to_string(&full.0).unwrap();

    // Keep an irregular subset of cells — whole replications, single
    // sizes in the middle of a replication, nothing at all for others —
    // the shape a replication-major run leaves when it is killed.
    for pattern in 0..3usize {
        let subset = TempPath::new("subset");
        let mut kept = 0;
        let mut lines = Vec::new();
        for line in text.lines() {
            match cell_of(line) {
                None => lines.push(line),
                Some((size, rep)) => {
                    if (size * 7 + rep * 3 + pattern) % 4 == 0 || rep == pattern {
                        lines.push(line);
                        kept += 1;
                    }
                }
            }
        }
        assert!(kept > 0 && kept < 8 * 5, "pattern {pattern} keeps {kept}");
        std::fs::write(&subset.0, lines.join("\n") + "\n").unwrap();

        let resumed = Runner::new(scenario.clone())
            .threads(2)
            .checkpoint(&subset.0)
            .run()
            .unwrap();
        assert_eq!(resumed, uninterrupted, "pattern {pattern}");
    }
}
