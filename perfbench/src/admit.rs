//! The admission workloads: open-loop arrivals into one
//! [`AdmissionService`], in phases at fixed offered rates, up a ladder of
//! rates, and at saturation.
//!
//! * `admit-fresh` — every admit is a fresh paper graph, 5% are provably
//!   infeasible chains, no amendments. The single slicer worker is the
//!   bottleneck; every slice-cache probe misses.
//! * `admit-steady` — admits come from an 8-graph template pool (cache
//!   hits) and each admit is followed by an amendment of it; the WAL is on.
//!   The coordinator (trial, repair, commit, WAL append) is the bottleneck.
//!
//! The generator is one thread. It sleeps between events and parks (sleeps
//! one poll tick, never spins) when the queue is full. A request's sojourn
//! runs from its *intended* send time to the poll that first sees it
//! concluded, so a stall shows up as latency, never as a dropped request.
//! Completion is read from the registry's concluded-decision count, which
//! the coordinator advances strictly in submission order.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use feast::telemetry::{self, Registry};
use feast::{
    AdmissionController, AdmissionLog, AdmissionService, AdmitConfig, AdmitError, AdmitOutcome,
    AdmitRequest, OldestFirst, Refusal, Scenario,
};
use slicing::{CommEstimate, GraphDelta, MetricKind};
use taskgraph::gen::{generate_seeded, stream_label, stream_seed, ExecVariation, WorkloadSpec};
use taskgraph::{Subtask, SubtaskId, TaskGraph, TaskGraphBuilder, Time};

use crate::report::Outcome;
use crate::stats::{mean_us, median, ns, p50_p99_us, SplitMix};
use crate::{host, Args};

/// The seed whose transcript digest and verdict counts are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// Run length the pins were taken at (`run_seconds` in `BENCHMARK.json`).
pub const PINNED_SECONDS: u64 = 10;

/// The generator's sleep between polls of the concluded-decision count in
/// the fixed-rate phases, where it sets the resolution of every sojourn.
pub const POLL_TICK: Duration = Duration::from_micros(50);

/// The generator's sleep in `sat`, where only the phase's end matters: a
/// longer park wakes the generator 20 times less often, so it preempts the
/// service's two busy threads on a 2-core host less, while a 512-deep
/// queue stays nearly full across one tick.
pub const SAT_TICK: Duration = Duration::from_millis(1);

/// p99 sojourn limit behind `admit.max_rate_per_s`.
pub const P99_LIMIT_US: f64 = 5_000.0;

/// A run times its set-up [`MIN_SETUPS`] times up front and, when one
/// set-up takes under [`CHEAP_SETUP_S`] seconds, once more after every
/// phase; `setup_s` is the median.
const MIN_SETUPS: usize = 3;
const CHEAP_SETUP_S: f64 = 0.05;

/// Template graphs `admit-steady` draws its admits from, and the fixed
/// seed they are generated from.
const TEMPLATES: usize = 8;
const TEMPLATE_SEED: u64 = 0xFEA57;

/// Share of `admit-fresh` admits that are provably infeasible chains, in
/// per mille.
const INFEASIBLE_PER_MILLE: u64 = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fresh,
    Steady,
}

/// Per-workload constants. Rates are requests per second, chosen once on
/// the 2-core host the benchmark was sized on: `low` about a quarter and
/// `high` about two thirds of the workload's median saturation rate.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    pub kind: Kind,
    pub label: &'static str,
    /// Mean origin advance between admits, in model time units.
    pub stride: i64,
    pub low: f64,
    pub high: f64,
    /// Offered rates of the ladder, increasing, from `low` past saturation.
    pub ladder: &'static [f64],
    /// Requests per run-second in the `sat` phase. The same count for both
    /// workloads: about 8 s of saturation for steady, 3 s for fresh, whose
    /// sequential replay gate costs about three times the service's own
    /// time per request and holds every fresh graph in memory.
    pub sat_per_s: f64,
}

pub const FRESH: Profile = Profile {
    kind: Kind::Fresh,
    label: "admit-fresh",
    stride: 1000,
    low: 2300.0,
    high: 6200.0,
    ladder: &[3000.0, 5000.0, 7000.0, 8500.0, 10000.0],
    sat_per_s: 2400.0,
};

pub const STEADY: Profile = Profile {
    kind: Kind::Steady,
    label: "admit-steady",
    stride: 3000,
    low: 750.0,
    high: 1900.0,
    ladder: &[1200.0, 2000.0, 2600.0, 3100.0, 3600.0],
    sat_per_s: 2400.0,
};

pub fn profile(workload: &str) -> Profile {
    if workload == STEADY.label {
        STEADY
    } else {
        FRESH
    }
}

/// One phase of a run.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: String,
    /// Offered rate; `None` holds the queue full (`sat`).
    pub rate: Option<f64>,
    pub requests: usize,
}

/// The phases of a run of `seconds` seconds: `low` a tenth of the run,
/// `high` a twentieth, each ladder step a hundredth, and `sat` a fixed
/// request count sized to fill most of the rest. `sat` carries the gated
/// throughput, so it gets the longest window; its size is a request count,
/// not a time, so the transcript does not depend on the host's speed.
pub fn phases(p: &Profile, seconds: u64) -> Vec<Phase> {
    let s = seconds as f64;
    // Steady requests come in admit + amend pairs; keep pairs whole.
    let count = |x: f64| ((x / 2.0).round() as usize).max(1) * 2;
    let mut out = vec![
        Phase {
            name: "low".into(),
            rate: Some(p.low),
            requests: count(p.low * 0.1 * s),
        },
        Phase {
            name: "high".into(),
            rate: Some(p.high),
            requests: count(p.high * 0.05 * s),
        },
    ];
    for (i, &rate) in p.ladder.iter().enumerate() {
        out.push(Phase {
            name: format!("ladder{i}"),
            rate: Some(rate),
            requests: count(rate * 0.01 * s),
        });
    }
    out.push(Phase {
        name: "sat".into(),
        rate: None,
        requests: count(p.sat_per_s * s),
    });
    out
}

/// The service every admission workload runs: NORM/CCNE on 8 processors,
/// capacity 64, queue depth 512, a 64-entry slice cache, the pre-filter on,
/// oldest-first eviction and one slicer worker.
pub fn config() -> AdmitConfig {
    let scenario = Scenario::paper(
        "perfbench",
        WorkloadSpec::paper(ExecVariation::Mdet),
        MetricKind::norm(),
        CommEstimate::Ccne,
    );
    AdmitConfig::new(scenario, 8)
        .with_workers(1)
        .with_queue_depth(512)
        .with_capacity(64)
        .with_slice_cache(64)
        .with_prefilter(true)
        .with_eviction(OldestFirst)
}

/// A provably infeasible two-subtask chain: 100 + 100 time units of serial
/// work against an end-to-end deadline of 50.
fn infeasible_chain(salt: u64) -> TaskGraph {
    let mut b = TaskGraphBuilder::new();
    let head =
        b.add_subtask(Subtask::new(Time::new(100 + (salt % 7) as i64)).released_at(Time::ZERO));
    let tail = b.add_subtask(Subtask::new(Time::new(100)).due_at(Time::new(50)));
    b.add_edge(head, tail, 1).expect("two-node chain edge");
    b.build().expect("the infeasible chain builds")
}

fn paper_graph(seed: u64) -> TaskGraph {
    (0..16)
        .find_map(|attempt| {
            generate_seeded(
                &WorkloadSpec::paper(ExecVariation::Mdet),
                seed.wrapping_add(attempt),
            )
            .ok()
        })
        .expect("a paper workload generates within 16 seed attempts")
}

/// The request stream of a run: `count` requests drawn from `seed`; every
/// request depends only on `(seed, index)`.
pub fn stream(p: &Profile, seed: u64, count: usize) -> Vec<AdmitRequest> {
    let label = stream_label(p.label.as_bytes());
    let draw = |i: usize| stream_seed(seed, label, 0, i as u64);
    match p.kind {
        Kind::Fresh => {
            // One thread: freed streams of earlier set-ups are reused by the
            // next, so the peak resident set does not depend on which
            // allocator arenas helper threads happened to get.
            let graphs: Vec<Arc<TaskGraph>> =
                (0..count).map(|i| Arc::new(fresh_graph(draw(i)))).collect();
            let mut origin = 0i64;
            graphs
                .into_iter()
                .enumerate()
                .map(|(i, graph)| {
                    origin += advance(draw(i), p.stride);
                    AdmitRequest::Admit {
                        id: i as u64,
                        graph,
                        origin: Time::new(origin),
                    }
                })
                .collect()
        }
        Kind::Steady => {
            // The pool is part of the workload's definition, not of its
            // seed: with only eight graphs, a seeded pool would change the
            // service's cost from seed to seed. The seed picks the order.
            let templates: Vec<Arc<TaskGraph>> = (0..TEMPLATES)
                .map(|slot| Arc::new(template(slot)))
                .collect();
            let mut origin = 0i64;
            let mut out = Vec::with_capacity(count);
            let mut id = 0u64;
            while out.len() < count {
                let d = draw(out.len());
                let graph = Arc::clone(&templates[(d % TEMPLATES as u64) as usize]);
                origin += advance(d, p.stride);
                // Tighten one WCET of the admit just sent: the repair fast
                // path's case, since it is still the newest commit.
                let subtask = SubtaskId::new(((d >> 8) % graph.subtask_count() as u64) as u32);
                let old = graph.subtask(subtask).wcet().as_i64();
                let wcet = (old - 1 - (d >> 33) as i64 % 3).max(1);
                out.push(AdmitRequest::Admit {
                    id,
                    graph,
                    origin: Time::new(origin),
                });
                out.push(AdmitRequest::Amend {
                    id,
                    delta: GraphDelta::new().set_wcet(subtask, Time::new(wcet)),
                });
                id += 1;
            }
            out.truncate(count);
            out
        }
    }
}

/// Admit graph of a fresh stream for one draw.
fn fresh_graph(draw: u64) -> TaskGraph {
    if (draw >> 17) % 1000 < INFEASIBLE_PER_MILLE {
        infeasible_chain(draw)
    } else {
        paper_graph(draw)
    }
}

fn template(slot: usize) -> TaskGraph {
    paper_graph(stream_seed(
        TEMPLATE_SEED,
        stream_label(b"perfbench-template"),
        0,
        slot as u64,
    ))
}

/// Requests of a fresh stream whose generation the traced run times.
const TRACED_GRAPHS: usize = 2000;

/// Generates a workload's graphs one at a time through `timed(index,
/// generate)`: the first [`TRACED_GRAPHS`] graphs of a fresh stream, or the
/// template pool of a steady one.
pub fn generate_traced(
    p: &Profile,
    seed: u64,
    mut timed: impl FnMut(u64, &dyn Fn() -> TaskGraph) -> TaskGraph,
) {
    let label = stream_label(p.label.as_bytes());
    let count = match p.kind {
        Kind::Fresh => TRACED_GRAPHS,
        Kind::Steady => TEMPLATES,
    };
    for i in 0..count {
        let graph = match p.kind {
            Kind::Fresh => timed(i as u64, &|| {
                fresh_graph(stream_seed(seed, label, 0, i as u64))
            }),
            Kind::Steady => timed(i as u64, &|| template(i)),
        };
        std::hint::black_box(graph);
    }
}

fn advance(draw: u64, stride: i64) -> i64 {
    stride / 5 + (draw % (stride as u64 * 2)) as i64
}

/// Intended send offsets (ns from the phase start) of `n` requests offered
/// at `rate` per second: seeded exponential gaps. `None` (the `sat` phase)
/// makes every request due at once.
pub fn arrivals(seed: u64, phase: &str, rate: Option<f64>, n: usize) -> Vec<u64> {
    let Some(rate) = rate else {
        return vec![0; n];
    };
    let mut rng = SplitMix::new(stream_seed(seed, stream_label(phase.as_bytes()), 0, 0));
    let mean_ns = 1e9 / rate;
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            at += rng.exponential(mean_ns);
            at as u64
        })
        .collect()
}

/// Decisions the coordinator has concluded so far. It concludes strictly in
/// submission order, so a count of `k` means requests `0..k` are decided.
pub fn concluded(reg: &Registry) -> u64 {
    reg.admission_sojourn().count() + reg.admissions_shed() + reg.admissions_worker_failed()
}

/// Maps successive readings of the concluded-decision count to completion
/// stamps: every request index below a reading that has no stamp yet gets
/// that reading's time.
#[derive(Debug, Default)]
pub struct Attribution {
    pub stamps: Vec<u64>,
}

impl Attribution {
    pub fn observe(&mut self, done: u64, now_ns: u64, n: usize) {
        let done = (done as usize).min(n);
        while self.stamps.len() < done {
            self.stamps.push(now_ns);
        }
    }
}

/// What one phase measured, per request in submission order.
#[derive(Debug, Default)]
pub struct PhaseRun {
    /// Completion − intended send time.
    pub sojourn_ns: Vec<u64>,
    /// Completion − actual send time (the program's own definition).
    pub submit_sojourn_ns: Vec<u64>,
    /// Actual − intended send time.
    pub lag_ns: Vec<u64>,
    /// First intended send to last completion.
    pub wall_ns: u64,
    pub polls: u64,
    pub parks: u64,
    /// The program's exact mean sojourn over the phase (registry delta).
    pub program_mean_us: f64,
    /// CPU time the whole process spent over the phase.
    pub cpu_s: f64,
}

fn since(start: Instant, now: Instant) -> u64 {
    ns(now.saturating_duration_since(start))
}

/// Offers `requests` at the intended `offsets` and waits until every one
/// is concluded.
pub fn drive(
    service: &AdmissionService,
    requests: &[AdmitRequest],
    offsets: &[u64],
    tick: Duration,
) -> Result<PhaseRun, String> {
    let reg = telemetry::global();
    let n = requests.len();
    let base = concluded(reg);
    let (count0, total0) = (
        reg.admission_sojourn().count(),
        reg.admission_sojourn().total(),
    );
    let cpu0 = host::process_cpu_s();
    let start = Instant::now() + Duration::from_millis(1);
    let mut actual = vec![0u64; n];
    let mut done = Attribution::default();
    let (mut next, mut polls, mut parks) = (0usize, 0u64, 0u64);
    loop {
        let now = Instant::now();
        done.observe(concluded(reg) - base, since(start, now), n);
        polls += 1;
        if done.stamps.len() == n {
            break;
        }
        let mut parked = false;
        while next < n {
            let now = Instant::now();
            if since(start, now) < offsets[next] || now < start {
                break;
            }
            match service.submit(requests[next].clone()) {
                Ok(()) => {
                    actual[next] = since(start, now);
                    next += 1;
                }
                Err(AdmitError::QueueFull { .. }) => {
                    parked = true;
                    parks += 1;
                    break;
                }
                Err(e) => return Err(format!("submission failed: {e}")),
            }
        }
        let mut pause = tick;
        if next < n && !parked {
            let due = start + Duration::from_nanos(offsets[next]);
            pause = pause.min(due.saturating_duration_since(Instant::now()));
        }
        if !pause.is_zero() {
            std::thread::sleep(pause);
        }
    }
    let (count1, total1) = (
        reg.admission_sojourn().count(),
        reg.admission_sojourn().total(),
    );
    let program_mean_us = if count1 > count0 {
        (total1 - total0).as_secs_f64() * 1e6 / (count1 - count0) as f64
    } else {
        0.0
    };
    let stamps = done.stamps;
    Ok(PhaseRun {
        sojourn_ns: stamps
            .iter()
            .zip(offsets)
            .map(|(&c, &o)| c.saturating_sub(o))
            .collect(),
        submit_sojourn_ns: stamps
            .iter()
            .zip(&actual)
            .map(|(&c, &a)| c.saturating_sub(a))
            .collect(),
        lag_ns: actual
            .iter()
            .zip(offsets)
            .map(|(&a, &o)| a.saturating_sub(o))
            .collect(),
        wall_ns: stamps.last().copied().unwrap_or(0),
        polls,
        parks,
        program_mean_us,
        cpu_s: host::process_cpu_s() - cpu0,
    })
}

/// Whether a phase's backlog stayed bounded: the last request concluded
/// within a tenth of the phase's arrival span after its intended send.
fn kept_up(run: &PhaseRun) -> bool {
    let last_intended = run
        .wall_ns
        .saturating_sub(*run.sojourn_ns.last().unwrap_or(&0));
    run.sojourn_ns.last().copied().unwrap_or(0) <= last_intended / 10
}

/// The highest ladder rate whose p99 sojourn stays within the limit and
/// whose backlog does not grow, interpolated on p99 between the last step
/// that passes and the first that fails.
pub fn max_rate(steps: &[(f64, f64, bool)], limit_us: f64) -> f64 {
    let Some(fail) = steps
        .iter()
        .position(|&(_, p99, kept_up)| p99 > limit_us || !kept_up)
    else {
        return steps.last().map_or(0.0, |s| s.0);
    };
    if fail == 0 {
        let (rate, p99, _) = steps[0];
        return rate * (limit_us / p99).min(1.0);
    }
    let (r0, p0, _) = steps[fail - 1];
    let (r1, p1, kept_up) = steps[fail];
    if !kept_up || p1 <= limit_us || p1 <= p0 {
        return r0;
    }
    r0 + (r1 - r0) * ((limit_us - p0) / (p1 - p0)).clamp(0.0, 1.0)
}

/// Pinned transcript of the default seed at the pinned run length:
/// (final state digest, admitted, rejected, refused, pre-filter refusals).
pub fn pins(kind: Kind) -> (u64, usize, usize, usize, usize) {
    match kind {
        Kind::Fresh => (0x9AC4_BBAA_EAA0_2980, 30119, 947, 1684, 1684),
        Kind::Steady => (0xAEB7_70A9_95AA_D32D, 26848, 102, 0, 0),
    }
}

/// The transcript gates: replay, pins, and the pre-filter audit.
pub fn check_transcript(
    log: &AdmissionLog,
    replayed: &AdmissionLog,
    pinned: Option<(u64, usize, usize, usize, usize)>,
) -> Result<(), String> {
    if !log.matches(replayed) {
        return Err("the service transcript diverged from its sequential replay".into());
    }
    if let Some(pin) = pinned {
        let got = (
            log.digest,
            log.admitted(),
            log.rejected(),
            log.refused(),
            log.prefilter_rejected(),
        );
        if got != pin {
            return Err(format!(
                "transcript (digest, admitted, rejected, refused, prefiltered) = {got:?}, \
                 pinned {pin:?}"
            ));
        }
    }
    Ok(())
}

/// Conservativeness audit: every pre-filter refusal, re-run through a
/// pre-filter-off controller against an empty state (the most permissive
/// state any trial can see), must not be admitted.
pub fn audit_prefilter(log: &AdmissionLog, config: &AdmitConfig) -> Result<usize, String> {
    let mut audit_config = config.clone();
    audit_config.wal_path = None;
    let audit_config = audit_config.with_prefilter(false);
    let mut audited = 0;
    for (request, outcome) in log.requests.iter().zip(&log.outcomes) {
        if !matches!(outcome, AdmitOutcome::Refused(Refusal::Prefilter { .. })) {
            continue;
        }
        let mut probe =
            AdmissionController::new(audit_config.clone()).map_err(|e| e.to_string())?;
        if matches!(probe.handle(request), Ok(verdict) if verdict.admitted) {
            return Err(format!(
                "pre-filter refused request {} that the full path admits",
                request.id()
            ));
        }
        audited += 1;
    }
    Ok(audited)
}

/// Everything a live run produced, for the end-to-end metrics and for the
/// traced run's wait attribution.
pub struct Live {
    pub phases: Vec<Phase>,
    pub runs: Vec<PhaseRun>,
    pub log: AdmissionLog,
    pub config: AdmitConfig,
    pub setups: Vec<f64>,
    /// WAL files the run wrote, removed once the gates have read them.
    pub wal_files: Vec<PathBuf>,
}

fn wal_path(p: &Profile) -> PathBuf {
    PathBuf::from("perfbench").join("out").join(format!(
        "{}-{}.wal.jsonl",
        p.label,
        std::process::id()
    ))
}

/// Set-up, then every phase through one service, draining between phases.
pub fn live(args: &Args) -> Result<Live, String> {
    let p = profile(&args.workload);
    let phases = phases(&p, args.seconds);
    let total: usize = phases.iter().map(|ph| ph.requests).sum();
    let wal = (p.kind == Kind::Steady).then(|| wal_path(&p));
    let mut config = config();
    let mut sample_config = config.clone();
    let mut wal_files = Vec::new();
    if let Some(path) = &wal {
        std::fs::create_dir_all(path.parent().expect("the WAL path has a parent"))
            .map_err(|e| format!("cannot create the WAL directory: {e}"))?;
        let scratch = path.with_extension("setup.jsonl");
        config = config.durable(path);
        sample_config = sample_config.durable(&scratch);
        wal_files = vec![path.clone(), scratch];
    }

    // Set-up: the request stream and a started service. Timed MIN_SETUPS
    // times up front; when a set-up is cheap, once more after every phase
    // (into a scratch WAL), so the samples spread over the run instead of
    // catching the host in one state.
    let setup = |config: &AdmitConfig| {
        let started = Instant::now();
        let requests = stream(&p, args.seed, total);
        let service = AdmissionService::new(config.clone()).map_err(|e| e.to_string())?;
        Ok::<_, String>((requests, service, started.elapsed().as_secs_f64()))
    };
    let mut setups = Vec::new();
    let mut ready: Option<(Vec<AdmitRequest>, AdmissionService)> = None;
    for _ in 0..MIN_SETUPS {
        // Stop the previous set-up's service (joining its threads) and free
        // its stream before the next one is timed.
        if let Some((stream, service)) = ready.take() {
            drop(stream);
            service.shutdown().map_err(|e| e.to_string())?;
        }
        let (requests, service, took) = setup(&config)?;
        setups.push(took);
        ready = Some((requests, service));
    }
    let (requests, service) = ready.expect("at least one set-up ran");
    let cheap = median(&setups) < CHEAP_SETUP_S;

    let mut runs = Vec::with_capacity(phases.len());
    let mut at = 0;
    for ph in &phases {
        let slice = &requests[at..at + ph.requests];
        let offsets = arrivals(args.seed, &ph.name, ph.rate, ph.requests);
        let tick = if ph.rate.is_some() {
            POLL_TICK
        } else {
            SAT_TICK
        };
        runs.push(drive(&service, slice, &offsets, tick)?);
        at += ph.requests;
        if cheap {
            let (_, sample, took) = setup(&sample_config)?;
            sample.shutdown().map_err(|e| e.to_string())?;
            setups.push(took);
        }
    }
    let log = service.shutdown().map_err(|e| e.to_string())?;
    Ok(Live {
        phases,
        runs,
        log,
        config,
        setups,
        wal_files,
    })
}

impl Live {
    pub fn remove_wal_files(&self) {
        for path in &self.wal_files {
            std::fs::remove_file(path).ok();
        }
    }
}

/// The correctness gates of a live run, outside every timed window.
pub fn gate(args: &Args, live: &Live) -> Result<(f64, usize), String> {
    let p = profile(&args.workload);
    let started = Instant::now();
    let replayed = live.log.replay(&live.config).map_err(|e| e.to_string())?;
    let replay_s = started.elapsed().as_secs_f64();
    let pinned =
        (args.seed == DEFAULT_SEED && args.seconds == PINNED_SECONDS).then(|| pins(p.kind));
    check_transcript(&live.log, &replayed, pinned)?;
    let audited = audit_prefilter(&live.log, &live.config)?;
    Ok((replay_s, audited))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let live = live(args)?;
    let result = gate(args, &live);
    live.remove_wal_files();
    let (replay_s, audited) = result?;
    let mut out = Outcome::default();
    end_to_end(&live, &mut out);
    out.note("admit.replay_s", replay_s, "s");
    out.note("admit.prefilter_audited", audited as f64, "count");
    out.note("harness.calibration_us", host::calibration_us(), "us");
    Ok(out)
}

fn end_to_end(live: &Live, out: &mut Outcome) {
    let log = &live.log;
    let attempted = log.outcomes.len() as u64;
    let failed = (log.shed() + log.failed()) as u64;
    out.attempted = attempted;
    out.failed = failed;
    let by_name = |name: &str| {
        live.phases
            .iter()
            .position(|ph| ph.name == name)
            .map(|i| &live.runs[i])
            .expect("every named phase runs")
    };
    let percentiles = |run: &PhaseRun| p50_p99_us(&mut run.sojourn_ns.clone());
    let (low50, low99) = percentiles(by_name("low"));
    let (high50, high99) = percentiles(by_name("high"));
    let sat = by_name("sat");
    let sat_rate = sat.sojourn_ns.len() as f64 / (sat.wall_ns as f64 / 1e9);
    let steps: Vec<(f64, f64, bool)> = live
        .phases
        .iter()
        .zip(&live.runs)
        .filter_map(|(ph, run)| {
            let rate = ph.rate?;
            if !ph.name.starts_with("ladder") {
                return None;
            }
            Some((rate, percentiles(run).1, kept_up(run)))
        })
        .collect();

    out.metric("setup_s", median(&live.setups), "s");
    out.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
    out.metric("ok_frac", 1.0 - failed as f64 / attempted as f64, "ratio");
    out.metric(
        "cpu_us_per_op",
        sat.cpu_s * 1e6 / sat.sojourn_ns.len() as f64,
        "us",
    );
    let p90 = |name: &str| {
        let mut v = by_name(name).sojourn_ns.clone();
        v.sort_unstable();
        crate::stats::percentile(&v, 0.9) as f64 / 1e3
    };
    out.note("admit.sojourn_p90_us.low", p90("low"), "us");
    out.note("admit.sojourn_p90_us.high", p90("high"), "us");

    out.note("failed_frac", failed as f64 / attempted as f64, "ratio");
    out.note("admit.sojourn_p50_us.low", low50, "us");
    out.note("admit.sojourn_p99_us.low", low99, "us");
    out.note("admit.sojourn_p50_us.high", high50, "us");
    out.note("admit.sojourn_p99_us.high", high99, "us");
    out.note(
        "admit.max_rate_per_s",
        max_rate(&steps, P99_LIMIT_US),
        "req/s",
    );
    out.note("admit.saturation_per_s", sat_rate, "decisions/s");
    for ((ph, _), (_, p99, kept_up)) in live
        .phases
        .iter()
        .zip(&live.runs)
        .filter(|(ph, _)| ph.name.starts_with("ladder"))
        .zip(&steps)
    {
        out.note(&format!("admit.{}.p99_us", ph.name), *p99, "us");
        out.note(
            &format!("admit.{}.kept_up", ph.name),
            f64::from(u8::from(*kept_up)),
            "bool",
        );
    }
    let mut lags: Vec<u64> = ["low", "high"]
        .iter()
        .flat_map(|name| by_name(name).lag_ns.iter().copied())
        .collect();
    out.note("harness.gen_lag_p99_us", p50_p99_us(&mut lags).1, "us");
    let (polls, wall): (u64, u64) = live
        .phases
        .iter()
        .zip(&live.runs)
        .filter(|(ph, _)| ph.rate.is_some())
        .fold((0, 0), |(p, w), (_, r)| (p + r.polls, w + r.wall_ns));
    out.note(
        "harness.poll_tick_us",
        wall as f64 / polls.max(1) as f64 / 1e3,
        "us",
    );
    let bias: Vec<f64> = ["low", "high"]
        .iter()
        .map(|name| {
            let run = by_name(name);
            mean_us(&run.submit_sojourn_ns) - run.program_mean_us
        })
        .collect();
    out.note("harness.poll_bias_us", median(&bias), "us");
    out.note(
        "harness.parks",
        live.runs.iter().map(|r| r.parks).sum::<u64>() as f64,
        "count",
    );
    out.note("admit.admitted", log.admitted() as f64, "count");
    out.note("admit.rejected", log.rejected() as f64, "count");
    out.note("admit.refused", log.refused() as f64, "count");
    out.note(
        "admit.prefiltered",
        log.prefilter_rejected() as f64,
        "count",
    );
    out.note(
        "admit.digest_low32",
        (log.digest & 0xFFFF_FFFF) as f64,
        "hash",
    );
    eprintln!(
        "perfbench: transcript digest {:#018x}, {} admitted, {} rejected, {} refused, \
         {} prefiltered",
        log.digest,
        log.admitted(),
        log.rejected(),
        log.refused(),
        log.prefilter_rejected()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_repeat_for_a_seed_and_differ_across_seeds() {
        let a = arrivals(7, "low", Some(2000.0), 500);
        assert_eq!(a, arrivals(7, "low", Some(2000.0), 500));
        assert_ne!(a, arrivals(8, "low", Some(2000.0), 500));
        assert_ne!(a, arrivals(7, "high", Some(2000.0), 500));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 500 gaps of mean 500 µs: within 20% of 250 ms.
        let span = *a.last().unwrap() as f64;
        assert!((span - 250e6).abs() < 50e6, "{span}");
        assert_eq!(arrivals(7, "sat0", None, 3), vec![0, 0, 0]);
    }

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        for p in [FRESH, STEADY] {
            let a = stream(&p, 3, 40);
            let b = stream(&p, 3, 40);
            let c = stream(&p, 4, 40);
            let key = |s: &[AdmitRequest]| format!("{s:?}");
            assert_eq!(key(&a), key(&b), "{}", p.label);
            assert_ne!(key(&a), key(&c), "{}", p.label);
        }
    }

    #[test]
    fn attribution_maps_counter_readings_to_request_indices() {
        let mut done = Attribution::default();
        for (reading, at) in [(0, 10), (2, 20), (2, 30), (5, 40), (9, 50)] {
            done.observe(reading, at, 6);
        }
        assert_eq!(done.stamps, vec![20, 20, 40, 40, 40, 50]);
    }

    #[test]
    fn phases_keep_admit_amend_pairs_whole() {
        for p in [FRESH, STEADY] {
            let phases = phases(&p, 10);
            assert!(phases
                .iter()
                .all(|ph| ph.requests % 2 == 0 && ph.requests > 0));
            assert_eq!(phases.last().map(|ph| ph.rate), Some(None));
        }
    }

    #[test]
    fn max_rate_interpolates_between_the_bracketing_steps() {
        let steps = [
            (1000.0, 1000.0, true),
            (2000.0, 3000.0, true),
            (3000.0, 7000.0, true),
        ];
        assert_eq!(max_rate(&steps, 5000.0), 2500.0);
        assert_eq!(max_rate(&steps, 9000.0), 3000.0);
        let backlog = [(1000.0, 1000.0, true), (2000.0, 1500.0, false)];
        assert_eq!(max_rate(&backlog, 5000.0), 1000.0);
        assert_eq!(max_rate(&[(1000.0, 10_000.0, true)], 5000.0), 500.0);
    }

    /// A short sequential transcript: a few fresh admits and one chain.
    fn tiny_log() -> (AdmissionLog, AdmitConfig) {
        let config = config();
        let mut requests = stream(&FRESH, 11, 24);
        requests.push(AdmitRequest::Admit {
            id: 99,
            graph: Arc::new(infeasible_chain(3)),
            origin: Time::new(1_000_000),
        });
        let log = AdmissionLog {
            requests,
            ..AdmissionLog::default()
        };
        // Replay of a log with no outcomes yet is the sequential run itself.
        let mut run = AdmissionController::new(config.clone()).unwrap();
        let outcomes = log
            .requests
            .iter()
            .map(|r| AdmitOutcome::of(&run.handle(r)))
            .collect();
        (
            AdmissionLog {
                outcomes,
                digest: run.digest(),
                residents: run.residents(),
                ..log
            },
            config,
        )
    }

    fn pin_of(log: &AdmissionLog) -> (u64, usize, usize, usize, usize) {
        (
            log.digest,
            log.admitted(),
            log.rejected(),
            log.refused(),
            log.prefilter_rejected(),
        )
    }

    #[test]
    fn transcript_gate_fires_on_a_corrupted_expectation() {
        let (log, config) = tiny_log();
        let replayed = log.replay(&config).unwrap();
        assert!(log.prefilter_rejected() >= 1);
        assert!(check_transcript(&log, &replayed, Some(pin_of(&log))).is_ok());

        let mut pin = pin_of(&log);
        pin.0 ^= 1;
        assert!(check_transcript(&log, &replayed, Some(pin)).is_err());
        let mut pin = pin_of(&log);
        pin.1 += 1;
        assert!(check_transcript(&log, &replayed, Some(pin)).is_err());

        let mut diverged = log.replay(&config).unwrap();
        diverged.digest ^= 1;
        assert!(check_transcript(&log, &diverged, None).is_err());
    }

    #[test]
    fn prefilter_audit_fires_on_a_feasible_graph_marked_refused() {
        let (log, config) = tiny_log();
        assert!(audit_prefilter(&log, &config).is_ok());
        let admitted = log
            .outcomes
            .iter()
            .position(|o| o.verdict().is_some_and(|v| v.admitted))
            .expect("the tiny stream admits something");
        let mut corrupted = AdmissionLog {
            requests: log.requests.clone(),
            outcomes: log.outcomes.clone(),
            digest: log.digest,
            residents: log.residents,
        };
        corrupted.outcomes[admitted] = AdmitOutcome::Refused(Refusal::Prefilter {
            bound: "chain-bound".to_owned(),
        });
        assert!(audit_prefilter(&corrupted, &config).is_err());
    }
}
