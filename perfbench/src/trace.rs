//! The traced runs (`--trace 1`): spans around the calls into each layer's
//! public functions, made from the benchmark's own code.
//!
//! Spans are kept in memory as (name, start, end, parent, request) and
//! written to `perfbench/out/trace-<workload>-<seed>.tsv` at exit. A
//! layer's self time is its span minus its children.
//!
//! * `sweep` re-executes fig2, fig5 and ext-bus cell by cell on two
//!   threads, calling generate → distribute → window audit → schedule →
//!   schedule audit as the runner does, and checks every cell against
//!   `Runner::run_partial` of the same scenario.
//! * The admission workloads run the live phases untraced, then replay the
//!   transcript single-threaded through a sequential `AdmissionController`,
//!   timing each `handle`. Beside each request, shadow calls time the
//!   layers against the controller's current state; they are kept out of
//!   the `handle` timing. Approximation: `handle` retires departed
//!   residents before its trial and the shadow trial runs before `handle`,
//!   so a shadow trial may see a few more residents than the real one.
//!
//! Layers a workload never calls are still measured so every workload
//! reports every per-layer metric: the sweep's graphs go through the same
//! admission shadow as a small request stream, every admitted graph gets a
//! shadow WCET-tightening amendment to time redistribute and repair, and
//! the admission workloads run the runner on their own scenario. Those
//! numbers are predicted flat for that workload's end-to-end metrics.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use feast::telemetry;
use feast::{
    AdmissionController, AdmissionLog, AdmitConfig, AdmitOutcome, AdmitRequest, Pipeline,
    ReplicationRecord, Runner, Scenario, SchedulerSpec, SliceOutput, Technique, WorkloadSource,
};
use platform::Platform;
use sched::{BusModel, CommittedState, LatenessReport, ListScheduler, SchedWorkspace};
use slicing::{CommEstimate, GraphDelta, MetricKind, SliceCache, SliceMemo, Slicer};
use taskgraph::gen::{
    generate_seeded, generate_shape_seeded, stream_label, stream_seed, sub_stream, ExecVariation,
    WorkloadSpec,
};
use taskgraph::{SubtaskId, TaskGraph, Time};

use crate::admit;
use crate::report::Outcome;
use crate::stats::{ns, percentile};
use crate::sweep::THREADS;
use crate::Args;

/// No parent span.
const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub request: u64,
}

/// One thread's spans, timed from a shared origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        let start = ns(self.origin.elapsed());
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, span: u32) {
        self.spans[span as usize].end = ns(self.origin.elapsed());
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, request);
        let out = f();
        self.close(span);
        out
    }
}

/// Self times (span minus its children) in ns, grouped by span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != ROOT {
            child_ns[span.parent as usize] += span.end - span.start;
        }
    }
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        out.entry(span.name)
            .or_default()
            .push((span.end - span.start).saturating_sub(children));
    }
    out
}

fn write_spans(args: &Args, spans: &[Span]) -> Result<PathBuf, String> {
    let dir = PathBuf::from("perfbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-{}.tsv", args.workload, args.seed));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    writeln!(w, "index\tname\tstart_ns\tend_ns\tparent\trequest").map_err(io)?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            w,
            "{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start, s.end, s.request
        )
        .map_err(io)?;
    }
    w.flush().map_err(io)?;
    Ok(path)
}

/// Per-layer aggregates over self times.
struct Layers(BTreeMap<&'static str, Vec<u64>>);

impl Layers {
    fn calls(&self, name: &str) -> usize {
        self.0.get(name).map_or(0, Vec::len)
    }

    fn total_ns(&self, name: &str) -> u64 {
        self.0.get(name).map_or(0, |v| v.iter().sum())
    }

    fn mean_us(&self, name: &str) -> f64 {
        match self.calls(name) {
            0 => 0.0,
            n => self.total_ns(name) as f64 / n as f64 / 1e3,
        }
    }

    fn pct_us(&self, name: &str, p: f64) -> f64 {
        let mut v = self.0.get(name).cloned().unwrap_or_default();
        v.sort_unstable();
        percentile(&v, p) as f64 / 1e3
    }
}

/// Shadow-call counters that are not times.
#[derive(Debug, Default)]
struct Counts {
    prefilter_refusals: u64,
    prefilter_calls: u64,
    cache_hits: u64,
    cache_probes: u64,
    dirty_nodes: u64,
    scanned_nodes: u64,
    redistribute_fallbacks: u64,
    redistributes: u64,
    repair_fallbacks: u64,
    repairs: u64,
    residents: u64,
    trials: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics every workload reports, in `BENCHMARK.json` order.
fn layer_metrics(out: &mut Outcome, layers: &Layers, c: &Counts) {
    out.metric("taskgraph.gen_us", layers.mean_us("generate"), "us");
    out.metric("taskgraph.graphs", layers.calls("generate") as f64, "count");
    out.metric("slicing.distribute_us", layers.mean_us("distribute"), "us");
    out.metric(
        "slicing.distribute_p99_us",
        layers.pct_us("distribute", 0.99),
        "us",
    );
    out.metric(
        "slicing.distribute_calls",
        layers.calls("distribute") as f64,
        "count",
    );
    out.metric(
        "slicing.window_audit_us",
        layers.mean_us("window_audit"),
        "us",
    );
    out.metric("slicing.prefilter_us", layers.mean_us("prefilter"), "us");
    out.metric(
        "slicing.prefilter_refuse_frac",
        ratio(c.prefilter_refusals, c.prefilter_calls),
        "ratio",
    );
    out.metric(
        "slicing.cache_hit_frac",
        ratio(c.cache_hits, c.cache_probes),
        "ratio",
    );
    out.metric("slicing.cache_hit_us", layers.mean_us("cache_hit"), "us");
    out.metric("slicing.cache_miss_us", layers.mean_us("cache_miss"), "us");
    out.metric(
        "slicing.redistribute_us",
        layers.mean_us("redistribute"),
        "us",
    );
    out.metric(
        "slicing.delta_dirty_frac",
        ratio(c.dirty_nodes, c.scanned_nodes),
        "ratio",
    );
    out.metric(
        "slicing.redistribute_fallback_frac",
        ratio(c.redistribute_fallbacks, c.redistributes),
        "ratio",
    );
    out.metric("sched.schedule_us", layers.mean_us("schedule"), "us");
    out.metric("sched.trial_us", layers.mean_us("trial"), "us");
    out.metric(
        "sched.residents_mean",
        ratio(c.residents, c.trials),
        "count",
    );
    out.metric("sched.repair_us", layers.mean_us("repair"), "us");
    out.metric(
        "sched.repair_fallback_frac",
        ratio(c.repair_fallbacks, c.repairs),
        "ratio",
    );
    out.metric("sched.commit_us", layers.mean_us("commit"), "us");
    out.metric("sched.audit_us", layers.mean_us("audit"), "us");
    out.metric(
        "admission.handle_p50_us",
        layers.pct_us("handle", 0.5),
        "us",
    );
    out.metric(
        "admission.handle_p99_us",
        layers.pct_us("handle", 0.99),
        "us",
    );
}

// ---------------------------------------------------------------- sweep ---

/// The traced subset of the sweep: the fig2 and fig5 families and ext-bus,
/// rebuilt with the public `Scenario` constructors at paper scale.
pub fn traced_scenarios() -> Vec<Scenario> {
    let paper = |label: &str, variation: ExecVariation, metric: MetricKind| {
        Scenario::paper(
            label,
            WorkloadSpec::paper(variation),
            metric,
            CommEstimate::Ccne,
        )
    };
    let mut out = Vec::new();
    for variation in ExecVariation::paper_scenarios() {
        for (label, metric, estimate) in [
            ("PURE/CCNE", MetricKind::pure(), CommEstimate::Ccne),
            ("PURE/CCAA", MetricKind::pure(), CommEstimate::Ccaa),
            ("NORM/CCNE", MetricKind::norm(), CommEstimate::Ccne),
            ("NORM/CCAA", MetricKind::norm(), CommEstimate::Ccaa),
        ] {
            out.push(Scenario::paper(
                label,
                WorkloadSpec::paper(variation),
                metric,
                estimate,
            ));
        }
        for (label, metric) in [
            ("PURE", MetricKind::pure()),
            ("THRES d=1", MetricKind::thres(1.0)),
            ("ADAPT", MetricKind::adapt()),
        ] {
            out.push(paper(label, variation, metric));
        }
    }
    for bus in [BusModel::Delay, BusModel::Contention] {
        for (label, metric) in [("PURE", MetricKind::pure()), ("ADAPT", MetricKind::adapt())] {
            out.push(
                paper(label, ExecVariation::Mdet, metric).with_scheduler(SchedulerSpec {
                    bus_model: bus,
                    ..SchedulerSpec::default()
                }),
            );
        }
    }
    out.into_iter()
        .map(|s| {
            s.with_replications(128)
                .with_system_sizes((2..=16).step_by(2).collect())
                .with_base_seed(0xFEA57)
        })
        .collect()
}

/// The runner's workload draw for replication `rep`, without fault hooks.
fn workload_graph(scenario: &Scenario, rep: usize) -> Result<TaskGraph, String> {
    let json = serde_json::to_string(&scenario.workload).map_err(|e| e.to_string())?;
    let seed = stream_seed(
        scenario.base_seed,
        stream_label(json.as_bytes()),
        0,
        rep as u64,
    );
    for attempt in 0..Runner::MAX_GENERATE_ATTEMPTS {
        let s = sub_stream(seed, attempt);
        let graph = match &scenario.workload {
            WorkloadSource::Random(spec) => generate_seeded(spec, s),
            WorkloadSource::Shaped { shape, spec } => generate_shape_seeded(*shape, spec, s),
        };
        if let Ok(graph) = graph {
            return Ok(graph);
        }
    }
    Err(format!("replication {rep} did not generate"))
}

/// One traced cell: the calls `Pipeline::slice` + `Sliced::trial` make.
fn traced_cell(
    t: &mut Tracer,
    (scenario, slicer, scheduler): (&Scenario, &Slicer, &ListScheduler),
    ws: &mut SchedWorkspace,
    graph: &TaskGraph,
    platform: &Platform,
    rep: usize,
) -> Result<ReplicationRecord, String> {
    let request = rep as u64;
    let cell = t.open("cell", ROOT, request);
    let assignment = t
        .time("distribute", cell, request, || {
            slicer.distribute(graph, platform)
        })
        .map_err(|e| e.to_string())?;
    let window = t.time("window_audit", cell, request, || {
        assignment.validate(graph).violations().len()
    });
    let pinning = scenario
        .pinning
        .build(graph, platform)
        .map_err(|e| e.to_string())?;
    let schedule = t
        .time("schedule", cell, request, || {
            scheduler.schedule_with(graph, platform, &assignment, &pinning, ws)
        })
        .map_err(|e| e.to_string())?;
    let contention = scenario.scheduler.bus_model == BusModel::Contention;
    let sched_violations = t.time("audit", cell, request, || {
        schedule
            .validate(graph, platform, &pinning, contention)
            .len()
    });
    let report = LatenessReport::new(graph, &assignment, &schedule);
    t.close(cell);
    Ok(ReplicationRecord {
        system_size: platform.processor_count(),
        replication: rep,
        max_lateness: report.max_lateness().as_f64(),
        end_to_end: report.end_to_end_lateness().as_f64(),
        makespan: report.makespan().as_f64(),
        feasible: report.is_feasible(),
        violations: window + sched_violations,
        window_violations: Some(window),
        schedule_violations: Some(sched_violations),
    })
}

/// Every cell of `scenario`, replications split across `THREADS` threads.
fn traced_scenario(
    origin: Instant,
    scenario: &Scenario,
) -> Result<(Vec<Tracer>, Vec<ReplicationRecord>), String> {
    let Technique::Slicing { metric, estimate } = &scenario.technique else {
        return Err(format!("{} is not a slicing scenario", scenario.label));
    };
    let slicer = Slicer::new(*metric)
        .with_estimate(estimate.clone())
        .with_strict_windows(scenario.strict_windows);
    let spec = scenario.scheduler;
    let scheduler = ListScheduler::new()
        .with_respect_release(spec.respect_release)
        .with_bus_model(spec.bus_model)
        .with_placement(spec.placement);
    let results: Vec<Result<(Tracer, Vec<ReplicationRecord>), String>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|thread| {
                    let (slicer, scheduler) = (&slicer, &scheduler);
                    scope.spawn(move || {
                        let mut t = Tracer::new(origin);
                        let mut ws = SchedWorkspace::new();
                        let reps: Vec<usize> =
                            (thread..scenario.replications).step_by(THREADS).collect();
                        let mut graphs = Vec::with_capacity(reps.len());
                        for &rep in &reps {
                            let graph = t.time("generate", ROOT, rep as u64, || {
                                workload_graph(scenario, rep)
                            })?;
                            graphs.push(graph);
                        }
                        let mut records = Vec::new();
                        for &size in &scenario.system_sizes {
                            let topology = scenario.topology.build(size, scenario.cost_per_item);
                            let platform =
                                Platform::homogeneous(size, topology).map_err(|e| e.to_string())?;
                            for (&rep, graph) in reps.iter().zip(&graphs) {
                                records.push(traced_cell(
                                    &mut t,
                                    (scenario, slicer, scheduler),
                                    &mut ws,
                                    graph,
                                    &platform,
                                    rep,
                                )?);
                            }
                        }
                        Ok((t, records))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("traced sweep thread"))
                .collect()
        });
    let mut tracers = Vec::new();
    let mut records = Vec::new();
    for result in results {
        let (t, mut r) = result?;
        tracers.push(t);
        records.append(&mut r);
    }
    records.sort_by_key(|r| (r.system_size, r.replication));
    Ok((tracers, records))
}

/// Gate: traced cells must equal the runner's records for the scenario.
pub fn check_cells(
    label: &str,
    traced: &[ReplicationRecord],
    runner: &[ReplicationRecord],
) -> Result<(), String> {
    if traced.len() != runner.len() {
        return Err(format!(
            "{label}: {} traced cells, runner produced {}",
            traced.len(),
            runner.len()
        ));
    }
    match traced.iter().zip(runner).find(|(a, b)| a != b) {
        None => Ok(()),
        Some((a, b)) => Err(format!(
            "{label}: traced cell (size {}, rep {}) differs from the runner's: {a:?} vs {b:?}",
            a.system_size, a.replication
        )),
    }
}

/// What re-executing a set of scenarios cell by cell measured.
struct RunnerPass {
    spans: Vec<Span>,
    cells: u64,
    untraced_wall: std::time::Duration,
    traced_wall: std::time::Duration,
}

impl RunnerPass {
    /// Σ traced layer time ÷ (threads × untraced runner wall).
    fn parallel_eff(&self) -> f64 {
        let layer_ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name != "cell")
            .map(|s| s.end - s.start)
            .sum();
        layer_ns as f64 / (THREADS as f64 * ns(self.untraced_wall) as f64)
    }
}

/// Runs every scenario through `Runner::run_partial` (untraced), then
/// re-executes its cells traced and checks them against the runner's.
fn runner_pass(scenarios: &[Scenario]) -> Result<RunnerPass, String> {
    let started = Instant::now();
    let mut runner_records = Vec::with_capacity(scenarios.len());
    for s in scenarios {
        let partial = Runner::new(s.clone())
            .threads(THREADS)
            .run_partial()
            .map_err(|e| format!("{}: {e}", s.label))?;
        if !partial.failed.is_empty() {
            return Err(format!(
                "{}: {} failed cells",
                s.label,
                partial.failed.len()
            ));
        }
        runner_records.push(partial.records);
    }
    let untraced_wall = started.elapsed();

    let origin = Instant::now();
    let mut spans: Vec<Span> = Vec::new();
    let mut cells = 0u64;
    for (s, expected) in scenarios.iter().zip(&runner_records) {
        let (tracers, records) = traced_scenario(origin, s)?;
        check_cells(&s.label, &records, expected)?;
        cells += records.len() as u64;
        for t in tracers {
            let offset = spans.len() as u32;
            spans.extend(t.spans.into_iter().map(|mut s| {
                if s.parent != ROOT {
                    s.parent += offset;
                }
                s
            }));
        }
    }
    Ok(RunnerPass {
        spans,
        cells,
        untraced_wall,
        traced_wall: origin.elapsed(),
    })
}

pub fn sweep(args: &Args) -> Result<Outcome, String> {
    let scenarios = traced_scenarios();
    let pass = runner_pass(&scenarios)?;

    // The admission layers on the sweep's own MDET graphs (see the module
    // docs).
    let mdet = WorkloadSource::Random(WorkloadSpec::paper(ExecVariation::Mdet));
    let source = scenarios
        .iter()
        .find(|s| s.workload == mdet)
        .expect("the traced subset has MDET scenarios");
    let probe_graphs: Vec<Arc<TaskGraph>> = (0..source.replications)
        .map(|rep| workload_graph(source, rep).map(Arc::new))
        .collect::<Result<_, _>>()?;
    let mut origin_t = 0i64;
    let probe: Vec<AdmitRequest> = probe_graphs
        .into_iter()
        .enumerate()
        .map(|(id, graph)| {
            origin_t += 1000;
            AdmitRequest::Admit {
                id: id as u64,
                graph,
                origin: Time::new(origin_t),
            }
        })
        .collect();
    let shadow = shadow_replay(args, &probe, &admit::config(), Instant::now())?;

    let mut all = pass.spans.clone();
    let offset = all.len() as u32;
    all.extend(shadow.tracer.spans.iter().map(|s| Span {
        parent: if s.parent == ROOT {
            ROOT
        } else {
            s.parent + offset
        },
        ..*s
    }));
    let path = write_spans(args, &all)?;
    let layers = Layers(self_times(&all));

    let mut out = Outcome {
        attempted: pass.cells,
        failed: 0,
        ..Outcome::default()
    };
    layer_metrics(&mut out, &layers, &shadow.counts);
    out.metric("runner.parallel_eff", pass.parallel_eff(), "ratio");
    shadow_metrics(&mut out, &shadow);
    out.metric(
        "trace.overhead",
        pass.traced_wall.as_secs_f64() / pass.untraced_wall.as_secs_f64(),
        "ratio",
    );
    out.note("trace.cells", pass.cells as f64, "count");
    out.note(
        "trace.untraced_wall_s",
        pass.untraced_wall.as_secs_f64(),
        "s",
    );
    out.note("trace.traced_wall_s", pass.traced_wall.as_secs_f64(), "s");
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(out)
}

// ------------------------------------------------------------ admission ---

/// What a traced replay measured.
struct Shadow {
    tracer: Tracer,
    counts: Counts,
    log: AdmissionLog,
    /// `handle` time of each request, by index.
    handle_ns: Vec<u64>,
    /// Mean `handle` time with the WAL on and off, over the WAL prefix.
    wal_on_us: f64,
    wal_off_us: f64,
    wal_bytes_per_record: f64,
    evictions: u64,
    log_retries: u64,
}

/// At most about this many admits get shadow calls; a longer stream
/// shadows every k-th admit. The layer metrics are means per call, so a
/// sample serves, and the traced run stays well inside its time limit.
const SHADOW_ADMITS: usize = 10_000;

/// Requests the WAL-on/off comparison runs (a prefix of the stream).
const WAL_PREFIX: usize = 4000;

/// The latest admit, kept for the shadow amendment.
struct LastAdmit {
    graph: Arc<TaskGraph>,
    origin: Time,
    schedule: sched::Schedule,
}

/// Where shadow commits land: `CommittedState` has no `Clone`, so the
/// shadow keeps its own state, mirroring the controller's retirement
/// (horizon passed) and oldest-first eviction at the same capacity.
struct ShadowState {
    state: CommittedState,
    residents: std::collections::VecDeque<(sched::Schedule, Time)>,
    capacity: usize,
}

impl ShadowState {
    fn commit(
        &mut self,
        t: &mut Tracer,
        request: u64,
        schedule: &sched::Schedule,
        origin: Time,
        horizon: Time,
    ) -> Result<(), String> {
        let mut kept = std::collections::VecDeque::with_capacity(self.residents.len());
        for (resident, until) in self.residents.drain(..) {
            if until <= origin {
                self.state.release(&resident).map_err(|e| e.to_string())?;
            } else {
                kept.push_back((resident, until));
            }
        }
        self.residents = kept;
        while self.residents.len() >= self.capacity {
            let (oldest, _) = self.residents.pop_front().expect("non-empty at capacity");
            self.state.release(&oldest).map_err(|e| e.to_string())?;
        }
        t.time("commit", ROOT, request, || self.state.commit(schedule))
            .map_err(|e| e.to_string())?;
        self.residents.push_back((schedule.clone(), horizon));
        Ok(())
    }
}

/// The WCET tightening every admitted graph gets in the shadow, the same
/// delta `admit-steady` sends.
fn tightening(graph: &TaskGraph) -> GraphDelta {
    let subtask = SubtaskId::new(0);
    let wcet = (graph.subtask(subtask).wcet().as_i64() - 1).max(1);
    GraphDelta::new().set_wcet(subtask, Time::new(wcet))
}

/// The layer objects the shadow calls go through, built as the
/// controller builds its own, plus what the calls measured.
struct ShadowCalls {
    platform: Platform,
    pipeline: Pipeline,
    slicer: Slicer,
    scheduler: ListScheduler,
    ws: SchedWorkspace,
    state: ShadowState,
    t: Tracer,
    c: Counts,
}

impl ShadowCalls {
    fn new(config: &AdmitConfig, origin: Instant) -> Result<ShadowCalls, String> {
        let scenario = &config.scenario;
        let topology = scenario
            .topology
            .build(config.system_size, scenario.cost_per_item);
        let platform =
            Platform::homogeneous(config.system_size, topology).map_err(|e| e.to_string())?;
        let cache = Arc::new(Mutex::new(SliceCache::new(config.slice_cache)));
        let Technique::Slicing { metric, estimate } = &scenario.technique else {
            return Err("the admission scenario slices".into());
        };
        let spec = scenario.scheduler;
        Ok(ShadowCalls {
            platform,
            pipeline: Pipeline::new(scenario).with_slice_cache(cache),
            slicer: Slicer::new(*metric).with_estimate(estimate.clone()),
            scheduler: ListScheduler::new()
                .with_respect_release(spec.respect_release)
                .with_bus_model(spec.bus_model)
                .with_placement(spec.placement),
            ws: SchedWorkspace::new(),
            state: ShadowState {
                state: CommittedState::new(config.system_size, spec.bus_model),
                residents: std::collections::VecDeque::new(),
                capacity: config.capacity.max(1),
            },
            t: Tracer::new(origin),
            c: Counts::default(),
        })
    }

    /// Shadow layer calls for one admit against `base`. Returns the admit's
    /// trial when it would commit, for the shadow amendment.
    fn admit(
        &mut self,
        request: u64,
        base: &CommittedState,
        graph: &Arc<TaskGraph>,
        at: Time,
    ) -> Result<Option<LastAdmit>, String> {
        let reg = telemetry::global();
        let Self {
            platform,
            pipeline,
            slicer,
            scheduler,
            ws,
            state,
            t,
            c,
        } = self;
        c.prefilter_calls += 1;
        if t.time("prefilter", ROOT, request, || {
            pipeline.prefilter(graph, platform)
        })
        .is_some()
        {
            c.prefilter_refusals += 1;
            return Ok(None);
        }
        let hits = reg.slice_cache_hits();
        let span = t.open("cache_probe", ROOT, request);
        let output: SliceOutput = pipeline
            .slice(graph, platform)
            .map(feast::Sliced::into_output)
            .map_err(|e| e.to_string())?;
        t.close(span);
        c.cache_probes += 1;
        if reg.slice_cache_hits() > hits {
            c.cache_hits += 1;
            t.spans[span as usize].name = "cache_hit";
        } else {
            t.spans[span as usize].name = "cache_miss";
            // The read path on this graph: probe again, now a hit.
            let again = t.open("cache_hit", ROOT, request);
            let hit = pipeline
                .slice(graph, platform)
                .map(feast::Sliced::into_output);
            t.close(again);
            std::hint::black_box(hit).map_err(|e| e.to_string())?;
            let assignment = t
                .time("distribute", ROOT, request, || {
                    slicer.distribute(graph, platform)
                })
                .map_err(|e| e.to_string())?;
            t.time("window_audit", ROOT, request, || {
                assignment.validate(graph).violations().len()
            });
        }
        let pinning = feast::PinningPolicy::Relaxed
            .build(graph, platform)
            .map_err(|e| e.to_string())?;
        let schedule = t
            .time("schedule", ROOT, request, || {
                scheduler.schedule_with(graph, platform, &output.assignment, &pinning, ws)
            })
            .map_err(|e| e.to_string())?;
        t.time("audit", ROOT, request, || {
            schedule.validate(graph, platform, &pinning, false).len()
        });
        c.trials += 1;
        c.residents += base.residents() as u64;
        let verdict = t
            .time("trial", ROOT, request, || {
                pipeline.trial_output_against(graph, platform, output, base, at)
            })
            .map_err(|e| e.to_string())?;
        if !verdict.admit {
            return Ok(None);
        }
        state.commit(t, request, &verdict.schedule, at, verdict.makespan)?;
        Ok(Some(LastAdmit {
            graph: Arc::clone(graph),
            origin: at,
            schedule: verdict.schedule,
        }))
    }

    /// Shadow amendment of the admit just trialed: delta apply, incremental
    /// re-slice through a primed memo, and schedule repair against `base`,
    /// the state the admit's trial saw (the controller has not handled it
    /// yet).
    fn amend(
        &mut self,
        request: u64,
        base: &CommittedState,
        last: LastAdmit,
    ) -> Result<(), String> {
        let Self {
            platform,
            pipeline,
            slicer,
            t,
            c,
            ..
        } = self;
        let pinning = feast::PinningPolicy::Relaxed
            .build(&last.graph, platform)
            .map_err(|e| e.to_string())?;
        let delta = tightening(&last.graph);
        let applied = t
            .time("delta_apply", ROOT, request, || {
                delta.apply(&last.graph, &pinning)
            })
            .map_err(|e| e.to_string())?;
        let mut memo = SliceMemo::new();
        slicer
            .redistribute(&last.graph, platform, &mut memo)
            .map_err(|e| e.to_string())?;
        let redistribution = t
            .time("redistribute", ROOT, request, || {
                slicer.redistribute(&applied.graph, platform, &mut memo)
            })
            .map_err(|e| e.to_string())?;
        let stats = redistribution.stats;
        c.redistributes += 1;
        c.redistribute_fallbacks += u64::from(stats.fell_back);
        c.dirty_nodes += stats.dirty_nodes;
        c.scanned_nodes += stats.scanned_nodes;
        let window_violations = redistribution
            .assignment
            .validate(&applied.graph)
            .violations()
            .len();
        let output = SliceOutput {
            assignment: redistribution.assignment,
            window_violations,
            distribute: std::time::Duration::ZERO,
            window_audit: std::time::Duration::ZERO,
            redistribute: Some(stats),
        };
        let verdict = t
            .time("repair", ROOT, request, || {
                pipeline.repair_output_against(
                    &applied.graph,
                    platform,
                    output,
                    &last.schedule,
                    base,
                    last.origin,
                )
            })
            .map_err(|e| e.to_string())?;
        c.repairs += 1;
        c.repair_fallbacks += u64::from(verdict.repair_fell_back == Some(true));
        Ok(())
    }
}

/// Replays `requests` through a sequential controller, timing each
/// `handle`, with shadow layer calls beside each sampled admit.
fn shadow_replay(
    args: &Args,
    requests: &[AdmitRequest],
    config: &AdmitConfig,
    origin: Instant,
) -> Result<Shadow, String> {
    let reg = telemetry::global();
    let mut mem_config = config.clone();
    mem_config.wal_path = None;
    let mut controller = AdmissionController::new(mem_config.clone()).map_err(|e| e.to_string())?;
    let wal_path = PathBuf::from("perfbench").join("out").join(format!(
        "trace-{}-{}-{}.wal.jsonl",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(wal_path.parent().expect("WAL path has a parent"))
        .map_err(|e| e.to_string())?;
    let mut durable =
        AdmissionController::new(config.clone().durable(&wal_path)).map_err(|e| e.to_string())?;
    let mut plain = AdmissionController::new(mem_config).map_err(|e| e.to_string())?;
    let mut calls = ShadowCalls::new(config, origin)?;

    let mut log = AdmissionLog::default();
    let mut handle_ns = Vec::with_capacity(requests.len());
    let (mut wal_on, mut wal_off) = (0u64, 0u64);
    let (mut evictions, mut log_retries) = (0u64, 0u64);
    let every = requests.len().div_ceil(SHADOW_ADMITS).max(1);
    for (i, request) in requests.iter().enumerate() {
        let id = i as u64;
        if let (
            0,
            AdmitRequest::Admit {
                graph, origin: at, ..
            },
        ) = (i % every, request)
        {
            if let Some(last) = calls.admit(id, controller.state(), graph, *at)? {
                calls.amend(id, controller.state(), last)?;
            }
        }
        let evicted = reg.admissions_evicted();
        let span = calls.t.open("handle", ROOT, id);
        let result = controller.handle(request);
        calls.t.close(span);
        evictions += reg.admissions_evicted() - evicted;
        let s = calls.t.spans[span as usize];
        handle_ns.push(s.end - s.start);
        log.requests.push(request.clone());
        log.outcomes.push(AdmitOutcome::of(&result));
        if i < WAL_PREFIX {
            let retries = reg.admission_log_retries();
            let started = Instant::now();
            let _ = durable.handle(request);
            wal_on += ns(started.elapsed());
            log_retries += reg.admission_log_retries() - retries;
            let started = Instant::now();
            let _ = plain.handle(request);
            wal_off += ns(started.elapsed());
        }
    }
    log.digest = controller.digest();
    log.residents = controller.residents();
    drop(durable);
    let wal_records = requests.len().clamp(1, WAL_PREFIX);
    let wal_bytes = std::fs::metadata(&wal_path).map_or(0, |m| m.len());
    std::fs::remove_file(&wal_path).ok();
    Ok(Shadow {
        tracer: calls.t,
        counts: calls.c,
        log,
        handle_ns,
        wal_on_us: wal_on as f64 / wal_records as f64 / 1e3,
        wal_off_us: wal_off as f64 / wal_records as f64 / 1e3,
        wal_bytes_per_record: wal_bytes as f64 / wal_records as f64,
        evictions,
        log_retries,
    })
}

fn shadow_metrics(out: &mut Outcome, shadow: &Shadow) {
    out.metric(
        "admission.wal_us",
        shadow.wal_on_us - shadow.wal_off_us,
        "us",
    );
    out.metric("admission.wal_bytes", shadow.wal_bytes_per_record, "bytes");
    out.metric("admission.evictions", shadow.evictions as f64, "count");
    out.metric("admission.log_retries", shadow.log_retries as f64, "count");
}

pub fn admission(args: &Args) -> Result<Outcome, String> {
    let live = admit::live(args)?;
    let gated = admit::gate(args, &live);
    live.remove_wal_files();
    let (untraced_replay_s, _) = gated?;

    let traced = Instant::now();
    let shadow = shadow_replay(args, &live.log.requests, &live.config, traced)?;
    let traced_wall = traced.elapsed();
    if !live.log.matches(&shadow.log) {
        return Err("the traced replay diverged from the live transcript".into());
    }

    let mut out = Outcome {
        attempted: live.log.outcomes.len() as u64,
        failed: (live.log.shed() + live.log.failed()) as u64,
        ..Outcome::default()
    };
    // Workload generation, one span per graph.
    let mut spans = shadow.tracer.spans.clone();
    let mut gen = Tracer::new(traced);
    admit::generate_traced(&admit::profile(&args.workload), args.seed, |i, make| {
        gen.time("generate", ROOT, i, make)
    });
    spans.extend(gen.spans);
    let path = write_spans(args, &spans)?;
    let layers = Layers(self_times(&spans));
    layer_metrics(&mut out, &layers, &shadow.counts);
    // The runner on the admission scenario's own pipeline (NORM/CCNE,
    // MDET) at paper sizes, with 512 replications so the pass outlasts the
    // threads' start-up: the service never calls the runner.
    let pass = runner_pass(&[live
        .config
        .scenario
        .clone()
        .with_replications(512)
        .with_system_sizes((2..=16).step_by(2).collect())
        .with_base_seed(0xFEA57)])?;
    out.metric("runner.parallel_eff", pass.parallel_eff(), "ratio");
    shadow_metrics(&mut out, &shadow);
    // The same sequential `handle` work with and without spans (the shadow
    // calls between them are not part of it).
    out.metric(
        "trace.overhead",
        shadow.handle_ns.iter().sum::<u64>() as f64 / 1e9 / untraced_replay_s,
        "ratio",
    );
    out.note("trace.traced_wall_s", traced_wall.as_secs_f64(), "s");

    // Wait = sojourn − handle for the same request index, per phase.
    let mut at = 0;
    for (ph, run) in live.phases.iter().zip(&live.runs) {
        if ph.name == "low" || ph.name == "high" {
            let mut waits: Vec<u64> = run
                .sojourn_ns
                .iter()
                .zip(&shadow.handle_ns[at..at + ph.requests])
                .map(|(&s, &h)| s.saturating_sub(h))
                .collect();
            waits.sort_unstable();
            out.note(
                &format!("admission.wait_p50_us.{}", ph.name),
                percentile(&waits, 0.5) as f64 / 1e3,
                "us",
            );
            out.note(
                &format!("admission.wait_p99_us.{}", ph.name),
                percentile(&waits, 0.99) as f64 / 1e3,
                "us",
            );
        }
        at += ph.requests;
    }
    out.note("trace.wal_on_us", shadow.wal_on_us, "us");
    out.note("trace.wal_off_us", shadow.wal_off_us, "us");
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            request: 0,
        };
        let spans = [
            span("cell", 0, 100, ROOT),
            span("distribute", 10, 40, 0),
            span("schedule", 50, 90, 0),
        ];
        let times = self_times(&spans);
        assert_eq!(times["cell"], vec![30]);
        assert_eq!(times["distribute"], vec![30]);
        assert_eq!(times["schedule"], vec![40]);
    }

    #[test]
    fn traced_cells_equal_the_runner_and_the_gate_fires_on_a_corrupted_cell() {
        let scenario = traced_scenarios()
            .remove(2)
            .with_replications(3)
            .with_system_sizes(vec![2, 8]);
        let runner = Runner::new(scenario.clone())
            .threads(2)
            .run_partial()
            .unwrap();
        let (_, traced) = traced_scenario(Instant::now(), &scenario).unwrap();
        assert!(check_cells("t", &traced, &runner.records).is_ok());
        let mut corrupted = runner.records.clone();
        corrupted[1].max_lateness += 1.0;
        assert!(check_cells("t", &traced, &corrupted).is_err());
        assert!(check_cells("t", &traced, &runner.records[1..]).is_err());
    }
}
