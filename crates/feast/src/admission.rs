//! Online admission control: the paper's pipeline as a long-running
//! scheduler service.
//!
//! The sweep engine answers an *offline* question — how late does a
//! technique run over thousands of independent replications. This module
//! answers the *online* one: task graphs arrive one by one at a live
//! platform that already carries committed reservations, and each must be
//! answered admit/reject **now**, with the predicted worst-case lateness
//! it would incur against the platform's current load.
//!
//! * [`AdmissionController`] — the sequential core. Owns one [`Pipeline`],
//!   one [`CommittedState`] and the resident set; [`admit`] trial-schedules
//!   a new graph around the committed reservations (admitted graphs commit
//!   exactly the trialed schedule, rejected ones leave no trace) and
//!   [`amend`] re-trials a resident after a [`GraphDelta`], preferring the
//!   rollback + schedule-repair fast path.
//! * [`AdmissionService`] — the same semantics behind a bounded queue:
//!   slicer workers distribute deadlines in parallel (stage one of the
//!   pipeline never reads committed load), a single coordinator re-orders
//!   their products by submission sequence and runs every trial + commit
//!   in submission order, so concurrency never changes a verdict.
//! * [`AdmissionLog`] — the service's full transcript: every request and
//!   outcome in submission order plus the final state digest. Replaying it
//!   through a fresh sequential controller ([`AdmissionLog::replay`])
//!   reproduces bit-identical verdicts — the determinism contract tests
//!   and load harnesses check.
//! * The write-ahead log — the durable half of the transcript: every
//!   concluded request is CRC32-sealed to an append-only JSONL
//!   write-ahead log *before* its verdict is returned, and
//!   [`AdmissionController::recover`] rebuilds the committed state from
//!   that log after the process is killed, bit-identical to the pre-kill
//!   digest. The log holds two kinds of line: a `Graph` line seals each
//!   distinct task graph once, and a `Sealed` line records one concluded
//!   request, an admit naming its graph by the `Graph` line's ordinal. An
//!   admit of a graph new to the log writes both lines in one append, so
//!   every request costs one write. The log is not fsynced, so an OS crash
//!   or power loss is not covered.
//!
//! The service is built to *degrade, not die*: a slicer-worker panic
//! becomes a typed [`Failed`](AdmitOutcome::Failed) outcome and the
//! worker's pipeline is rebuilt in place; a request that out-waits its
//! [decision budget](AdmitConfig::with_decision_budget) is shed with a
//! typed [`Shed`](AdmitOutcome::Shed) outcome before any slicing work is
//! spent on it, bounding decision latency under overload; WAL appends
//! retry transiently failing I/O with bounded exponential backoff.
//!
//! A verdict is a *prediction under the trialed load*, not a
//! schedulability proof: admitted means the non-preemptive EDF trial met
//! every sliced deadline given the reservations committed at decision
//! time. Residents depart automatically once the decision clock passes
//! their horizon (last reserved completion), and a capacity bound evicts
//! residents chosen by the configured [`EvictionPolicy`] on admit so the
//! committed state stays small.
//!
//! [`admit`]: AdmissionController::admit
//! [`amend`]: AdmissionController::amend

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use platform::Platform;
use sched::{CommitReceipt, CommittedState, MissLog, Schedule};
use serde::{Deserialize, Serialize};
use slicing::{DeltaError, GraphDelta};
use taskgraph::gen::{stream_label, stream_seed};
use taskgraph::{TaskGraph, Time};

use crate::error::AdmitError;
use crate::fault::{FaultPlan, FaultSite};
use crate::pipeline::{Pipeline, SharedSliceCache, SliceOutput, Sliced, Verdict};
use crate::runner::fingerprint;
use crate::scenario::Scenario;
use crate::sealed_log::{self, sealed_line, Appender, Loaded, Tail};
use crate::{telemetry, RunError};

/// Configuration of an admission controller or service: the pipeline
/// scenario, the platform size, and the service's operational bounds.
#[derive(Debug, Clone)]
pub struct AdmitConfig {
    /// The pipeline configuration: technique, scheduler spec, pinning
    /// policy. Sweep shape (sizes, replications, seeds) is ignored.
    pub scenario: Scenario,
    /// Number of processors in the live platform.
    pub system_size: usize,
    /// Bound of the service's ingress queue; [`AdmissionService::submit`]
    /// refuses with [`AdmitError::QueueFull`] instead of blocking.
    pub queue_depth: usize,
    /// Maximum number of resident (committed) graphs; an admit beyond the
    /// bound evicts residents chosen by [`eviction`](AdmitConfig::eviction).
    pub capacity: usize,
    /// Number of parallel slicer workers in an [`AdmissionService`].
    pub workers: usize,
    /// Per-service budget of individually logged deadline-miss warnings;
    /// misses beyond it are counted silently (see [`MissLog`]). The same
    /// budget bounds structural-fallback WARNs.
    pub miss_warn_limit: u64,
    /// The capacity bound's victim-selection policy (default
    /// [`OldestFirst`]). Part of the WAL fingerprint: recovery refuses a
    /// log written under a different policy.
    pub eviction: Arc<dyn EvictionPolicy>,
    /// Decision budget for staleness-aware shedding: a service request
    /// that has already waited longer than this when a worker or the
    /// coordinator picks it up is refused with [`AdmitError::Shed`]
    /// before any slicing or trial work is spent on it. `None` (the
    /// default) never sheds. The sequential controller has no queue and
    /// ignores the budget.
    pub decision_budget: Option<Duration>,
    /// Path of the durable write-ahead log. `Some` makes every concluded
    /// request durable before its verdict is returned (see
    /// [`AdmissionController::recover`]); `None` (the default) keeps the
    /// transcript in-memory only.
    pub wal_path: Option<PathBuf>,
    /// Deterministic fault plan for the admission fault sites. Only
    /// consulted when the `fault-inject` cargo feature is enabled;
    /// release builds compile the hooks to constant `false`.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Whether the feasibility pre-filter runs in front of slicing
    /// (default `true`). A pre-filtered graph is refused with the typed
    /// [`AdmitError::Prefilter`] before any DP work; the bounds are
    /// conservative, so the full path would have rejected it too.
    pub prefilter: bool,
    /// Capacity of the cross-request slice cache shared by the
    /// controller and its slicer workers (default 64 entries; `0`
    /// disables caching). The cache is invisible in transcripts — hits
    /// return bit-identical output — so it is a pure throughput knob,
    /// not part of the WAL fingerprint.
    pub slice_cache: usize,
}

impl AdmitConfig {
    /// A configuration with service defaults: queue depth 256, capacity
    /// 64 residents, 4 slicer workers, 8 logged miss warnings,
    /// oldest-first eviction, no shedding, no write-ahead log, the
    /// feasibility pre-filter on, and a 64-entry slice cache.
    pub fn new(scenario: Scenario, system_size: usize) -> AdmitConfig {
        AdmitConfig {
            scenario,
            system_size,
            queue_depth: 256,
            capacity: 64,
            workers: 4,
            miss_warn_limit: 8,
            eviction: Arc::new(OldestFirst),
            decision_budget: None,
            wal_path: None,
            fault_plan: None,
            prefilter: true,
            slice_cache: 64,
        }
    }

    /// Sets the ingress queue bound (clamped to at least 1).
    #[must_use]
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Sets the resident capacity bound (clamped to at least 1).
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets the number of slicer workers (clamped to at least 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the deadline-miss warning budget.
    #[must_use]
    pub fn with_miss_warn_limit(mut self, limit: u64) -> Self {
        self.miss_warn_limit = limit;
        self
    }

    /// Sets the capacity bound's eviction policy.
    #[must_use]
    pub fn with_eviction(mut self, policy: impl EvictionPolicy + 'static) -> Self {
        self.eviction = Arc::new(policy);
        self
    }

    /// Sets the decision budget for staleness-aware shedding.
    #[must_use]
    pub fn with_decision_budget(mut self, budget: Duration) -> Self {
        self.decision_budget = Some(budget);
        self
    }

    /// Makes the transcript durable: every concluded request is sealed to
    /// the write-ahead log at `path` before its verdict is returned. A
    /// fresh controller truncates any existing file at `path`; use
    /// [`AdmissionController::recover`] to resume from one instead.
    #[must_use]
    pub fn durable(mut self, path: impl Into<PathBuf>) -> Self {
        self.wal_path = Some(path.into());
        self
    }

    /// Installs a deterministic fault plan for the admission fault sites
    /// (no effect unless built with the `fault-inject` feature).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(Arc::new(plan));
        self
    }

    /// Enables or disables the feasibility pre-filter.
    #[must_use]
    pub fn with_prefilter(mut self, enabled: bool) -> Self {
        self.prefilter = enabled;
        self
    }

    /// Sets the cross-request slice-cache capacity (`0` disables it).
    #[must_use]
    pub fn with_slice_cache(mut self, capacity: usize) -> Self {
        self.slice_cache = capacity;
        self
    }
}

/// One request to the admission service, identified by a caller-chosen id.
///
/// Requests are processed strictly in submission order; the id names the
/// resident for later amendment and must be unique among live residents.
/// Its serialized form writes the graph in full (`Arc` serializes
/// transparently); the write-ahead log instead seals each distinct graph
/// once and has an admit name it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AdmitRequest {
    /// Admit a new task graph arriving at absolute time `origin`.
    Admit {
        /// Caller-chosen resident id (unique among live residents).
        id: u64,
        /// The arriving task graph, in graph-local time. Shared so the
        /// queue, the transcript, and the resident set all reference one
        /// allocation — cloning a request never copies the graph.
        graph: Arc<TaskGraph>,
        /// Absolute arrival time; every sliced window is re-anchored here.
        origin: Time,
    },
    /// Amend a resident graph and re-trial it at its original origin.
    Amend {
        /// The resident to amend.
        id: u64,
        /// The structural amendment to apply.
        delta: GraphDelta,
    },
}

impl AdmitRequest {
    /// The resident id this request names.
    pub fn id(&self) -> u64 {
        match self {
            AdmitRequest::Admit { id, .. } | AdmitRequest::Amend { id, .. } => *id,
        }
    }
}

/// The decision for one request: admit/reject plus the trial's predicted
/// lateness figures.
///
/// Deliberately excludes wall-clock latency (that goes to the telemetry
/// registry), so replaying a request log reproduces verdicts bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmitVerdict {
    /// The request's resident id.
    pub id: u64,
    /// Did the trial meet every sliced deadline? Admitted graphs have
    /// their trial schedule committed; rejected ones leave no trace.
    pub admitted: bool,
    /// Predicted maximum task lateness (negative values are slack).
    pub max_lateness: Time,
    /// Predicted maximum end-to-end lateness, relative to the origin.
    pub end_to_end: Time,
    /// Completion time of the trialed schedule (absolute time); an
    /// admitted resident departs once the decision clock passes it.
    pub makespan: Time,
    /// Structural violations found by the always-on window and schedule
    /// audits (expected zero).
    pub violations: usize,
    /// For amendments: whether the schedule-repair fast path produced the
    /// verdict (`false` when the trial re-ran in full — same result,
    /// more work).
    pub repaired: bool,
    /// Residents committed after this decision.
    pub residents: usize,
}

/// One resolved request: what the transcript and the write-ahead log
/// record per submission.
///
/// Splits the service's four ways of answering a request into variants a
/// replay can reason about: [`Verdict`](AdmitOutcome::Verdict) and
/// [`Refused`](AdmitOutcome::Refused) are *deterministic* — a fresh
/// controller fed the same request sequence reproduces them bit for bit —
/// while [`Shed`](AdmitOutcome::Shed) and [`Failed`](AdmitOutcome::Failed)
/// are *environmental* (wall-clock overload, injected or real panics):
/// replay copies them verbatim, which is sound because both conclude a
/// request **before** any state mutation, so they provably leave no trace
/// in committed state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AdmitOutcome {
    /// The trial completed: an admit or reject verdict.
    Verdict(AdmitVerdict),
    /// A deterministic typed refusal (duplicate id, unknown resident,
    /// inapplicable delta, pipeline failure), sealed in structured form.
    Refused(Refusal),
    /// The request out-waited its decision budget and was shed before any
    /// slicing or trial work was spent on it.
    Shed {
        /// How long the request had waited when it was shed, µs.
        waited_us: u64,
    },
    /// A slicer worker panicked while processing the request; the worker
    /// was respawned and the service kept running.
    Failed {
        /// The pipeline stage the worker died in.
        stage: String,
    },
}

impl AdmitOutcome {
    /// The transcript form of a controller result.
    pub fn of(result: &Result<AdmitVerdict, AdmitError>) -> AdmitOutcome {
        match result {
            Ok(verdict) => AdmitOutcome::Verdict(verdict.clone()),
            Err(AdmitError::Shed { waited_us }) => AdmitOutcome::Shed {
                waited_us: *waited_us,
            },
            Err(AdmitError::WorkerFailed { stage }) => AdmitOutcome::Failed {
                stage: (*stage).to_owned(),
            },
            Err(e) => AdmitOutcome::Refused(Refusal::of(e)),
        }
    }

    /// The verdict, when the trial completed.
    pub fn verdict(&self) -> Option<&AdmitVerdict> {
        match self {
            AdmitOutcome::Verdict(verdict) => Some(verdict),
            _ => None,
        }
    }

    /// Whether this outcome depends on the environment (queue timing,
    /// panics) rather than the request sequence. Environmental outcomes
    /// are copied verbatim on replay; deterministic ones are re-derived.
    pub fn is_environmental(&self) -> bool {
        matches!(
            self,
            AdmitOutcome::Shed { .. } | AdmitOutcome::Failed { .. }
        )
    }
}

/// The structured, message-stable form of a deterministic refusal: a
/// variant plus the fields replay re-derives from the request sequence.
///
/// This — not the rendered [`AdmitError`] message — is what the
/// write-ahead log seals and recovery compares, so rewording a `Display`
/// impl never invalidates an existing log. The variant shapes and the
/// kind tags ([`AdmitError::kind`], [`RunError::kind`], and the delta
/// tags below) are part of the WAL format contract and must stay stable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Refusal {
    /// [`AdmitError::DuplicateId`].
    DuplicateId {
        /// The already-resident id.
        id: u64,
    },
    /// [`AdmitError::NoResident`].
    NoResident {
        /// The unknown resident id.
        id: u64,
    },
    /// [`AdmitError::Delta`]: the amendment did not apply.
    Delta {
        /// Stable tag of the delta failure: `unknown-subtask`,
        /// `unknown-edge` or `invalid-graph`.
        kind: String,
    },
    /// [`AdmitError::Trial`]: the pipeline itself failed.
    Trial {
        /// Stable tag of the failing stage ([`RunError::kind`]).
        kind: String,
    },
    /// [`AdmitError::Prefilter`]: the feasibility pre-filter proved the
    /// graph infeasible before slicing.
    Prefilter {
        /// Stable tag of the failed bound: `chain-bound` or
        /// `capacity-bound` ([`slicing::PrefilterReject::kind`]).
        bound: String,
    },
    /// Any other deterministic refusal, by its stable tag
    /// ([`AdmitError::kind`]).
    Other {
        /// The refusal's stable tag.
        kind: String,
    },
}

impl Refusal {
    /// The sealed form of a refusing [`AdmitError`].
    fn of(error: &AdmitError) -> Refusal {
        let delta_kind = |e: &DeltaError| match e {
            DeltaError::UnknownSubtask(_) => "unknown-subtask",
            DeltaError::UnknownEdge(..) => "unknown-edge",
            DeltaError::Graph(_) => "invalid-graph",
        };
        match error {
            AdmitError::DuplicateId { id } => Refusal::DuplicateId { id: *id },
            AdmitError::NoResident { id } => Refusal::NoResident { id: *id },
            AdmitError::Delta(e) => Refusal::Delta {
                kind: delta_kind(e).to_owned(),
            },
            AdmitError::Trial(e) => Refusal::Trial {
                kind: e.kind().to_owned(),
            },
            AdmitError::Prefilter(reject) => Refusal::Prefilter {
                bound: reject.kind().to_owned(),
            },
            other => Refusal::Other {
                kind: other.kind().to_owned(),
            },
        }
    }
}

/// One resident's identity and load figures, offered to an
/// [`EvictionPolicy`] when the capacity bound must choose a victim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvictionCandidate {
    /// The resident id.
    pub id: u64,
    /// Position in admission order (0 = oldest resident).
    pub seniority: usize,
    /// The resident's arrival time.
    pub origin: Time,
    /// Completion time of the resident's reserved schedule.
    pub horizon: Time,
    /// Total reserved processor-busy time of the resident's schedule.
    pub busy: Time,
}

impl EvictionCandidate {
    /// The resident's processor-time utilization over its reservation
    /// span: `busy / (horizon - origin)`. Low values mean the resident
    /// blocks capacity it barely uses.
    pub fn utilization(&self) -> f64 {
        let span = (self.horizon - self.origin).as_f64();
        if span <= 0.0 {
            0.0
        } else {
            self.busy.as_f64() / span
        }
    }
}

/// Victim selection for the capacity bound: which resident departs when
/// an admit would exceed [`AdmitConfig::capacity`].
///
/// Policies must be deterministic functions of the candidate list — the
/// choice is part of the replay contract (and of the WAL fingerprint, so
/// recovery refuses a log written under a different policy).
pub trait EvictionPolicy: fmt::Debug + Send + Sync {
    /// The policy's stable name (used in the WAL fingerprint).
    fn name(&self) -> &'static str;
    /// Chooses the victim among `candidates` (never empty), returning its
    /// resident id.
    fn victim(&self, candidates: &[EvictionCandidate]) -> u64;
}

/// Evicts the longest-resident graph first — the default policy (and the
/// only behavior before eviction became pluggable).
#[derive(Debug, Clone, Copy, Default)]
pub struct OldestFirst;

impl EvictionPolicy for OldestFirst {
    fn name(&self) -> &'static str {
        "oldest-first"
    }

    fn victim(&self, candidates: &[EvictionCandidate]) -> u64 {
        candidates
            .iter()
            .min_by_key(|c| c.seniority)
            .expect("eviction candidates are never empty")
            .id
    }
}

/// Evicts the resident with the lowest processor-time utilization over
/// its reservation span (ties broken oldest-first): frees the most
/// blocked capacity per unit of reserved work discarded.
#[derive(Debug, Clone, Copy, Default)]
pub struct LowestUtilization;

impl EvictionPolicy for LowestUtilization {
    fn name(&self) -> &'static str {
        "lowest-utilization"
    }

    fn victim(&self, candidates: &[EvictionCandidate]) -> u64 {
        candidates
            .iter()
            .min_by(|a, b| {
                a.utilization()
                    .partial_cmp(&b.utilization())
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.seniority.cmp(&b.seniority))
            })
            .expect("eviction candidates are never empty")
            .id
    }
}

/// One committed admission: the graph, its reserved schedule, and when it
/// arrived / departs.
#[derive(Debug)]
struct Resident {
    graph: Arc<TaskGraph>,
    schedule: Schedule,
    origin: Time,
    horizon: Time,
}

/// The header line of an admission write-ahead log: identifies the
/// configuration the `Graph` ([`WalGraph`]) and `Sealed` ([`WalRecord`])
/// lines after it belong to.
#[derive(Serialize)]
struct WalHeader {
    /// Configuration fingerprint (see [`wal_fingerprint`]).
    fingerprint: u64,
    /// Scenario label, for human readers of the file.
    label: String,
}

/// A `Graph` line of the admission write-ahead log: one distinct task
/// graph, sealed once per log file under the ordinal its admit records
/// reference.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct WalGraph {
    /// Per-file graph ordinal (contiguous from 0, in file order).
    g: u64,
    /// The graph, in graph-local time.
    graph: Arc<TaskGraph>,
}

/// One sealed record of the admission write-ahead log: a request, its
/// outcome, and the state digest *after* the outcome was applied — the
/// per-record self-check [`AdmissionController::recover`] verifies while
/// replaying.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct WalRecord {
    /// Submission sequence (records are contiguous from 0).
    seq: u64,
    /// The concluded request.
    request: SealedRequest,
    /// How it was concluded.
    outcome: AdmitOutcome,
    /// [`CommittedState::digest`] after this record's outcome.
    digest: u64,
}

/// The sealed form of an [`AdmitRequest`]: an admit names its graph by the
/// ordinal of the `Graph` line that sealed it instead of carrying it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum SealedRequest {
    /// [`AdmitRequest::Admit`].
    Admit {
        id: u64,
        /// The ordinal `g` of the `Graph` line holding the graph.
        graph: u64,
        origin: Time,
    },
    /// [`AdmitRequest::Amend`], verbatim.
    Amend { id: u64, delta: GraphDelta },
}

/// One line of an admission write-ahead log after its header.
#[derive(Debug, Clone)]
enum WalEntry {
    Graph(WalGraph),
    Sealed(WalRecord),
}

/// A sealed record read back by [`AdmissionWal::load`], its graph
/// reference resolved.
#[derive(Debug)]
struct LoadedRecord {
    seq: u64,
    request: AdmitRequest,
    outcome: AdmitOutcome,
    digest: u64,
}

/// An admission write-ahead log read back by [`AdmissionWal::load`].
#[derive(Debug)]
struct LoadedWal {
    /// The sealed records, in sequence order.
    records: Vec<LoadedRecord>,
    /// Every sealed graph, indexed by ordinal; each is one allocation
    /// shared by all the records that reference it.
    graphs: Vec<Arc<TaskGraph>>,
    /// Where the valid prefix ends, for [`Appender::reopen`].
    tail: Tail,
}

/// The line schema, as a fingerprint input: a log written under another
/// schema fails the header check with [`RunError::CheckpointMismatch`]
/// instead of being misread.
const WAL_SCHEMA: &[u8] = b"admission-wal-graph-once";

/// Fingerprint of everything a write-ahead log's records depend on: the
/// line schema, the scenario's measurement-relevant content (reusing the
/// checkpoint [`fingerprint`]), the platform size, the capacity bound and
/// the eviction policy. Operational knobs that cannot change a committed
/// record — queue depth, worker count, decision budget — are deliberately
/// excluded, so a log recovers under a differently-tuned service.
fn wal_fingerprint(config: &AdmitConfig) -> u64 {
    // Capacity and eviction policy feed separate chained mixing steps —
    // never XORed into one word — so distinct (capacity, policy) pairs
    // cannot cancel into the same fingerprint.
    let shape = stream_seed(
        fingerprint(&config.scenario),
        stream_label(WAL_SCHEMA),
        config.system_size as u64,
        config.capacity as u64,
    );
    stream_seed(
        shape,
        stream_label(b"admission-wal-eviction"),
        stream_label(config.eviction.name().as_bytes()),
        0,
    )
}

/// How many recently sealed graphs an [`AdmissionWal`] remembers. An admit
/// whose graph has dropped out of the table seals it again under a new
/// ordinal: a longer log, never a wrong reference.
const SEALED_GRAPHS: usize = 64;

/// A graph the log already holds, as the writer's table remembers it.
#[derive(Debug)]
struct SealedGraph {
    /// Held so a pointer match can never name a freed and reused
    /// allocation.
    graph: Arc<TaskGraph>,
    /// [`graph_hash`] of `graph`: a filter, never written to disk.
    hash: u64,
    /// The graph's ordinal in this log file.
    g: u64,
    /// Use-stamp of the latest admit that referenced it.
    last_used: u64,
}

/// An in-memory content hash of `graph`'s subtasks and edges for the
/// writer's table: equal graphs hash equally. The hash is never persisted,
/// so it need not be stable across processes.
fn graph_hash(graph: &TaskGraph) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for i in 0..graph.subtask_count() {
        let s = graph.subtask(taskgraph::SubtaskId::new(i as u32));
        (s.name(), s.wcet(), s.release(), s.deadline()).hash(&mut h);
    }
    for eid in graph.edge_ids() {
        let e = graph.edge(eid);
        (e.src(), e.dst(), e.items()).hash(&mut h);
    }
    h.finish()
}

/// Does the admission fault `site` fire at `(system_size, seq, attempt)`?
/// Compiled to constant `false` without the `fault-inject` feature.
#[cfg(feature = "fault-inject")]
fn fault_fires(
    plan: &Option<Arc<FaultPlan>>,
    site: FaultSite,
    system_size: usize,
    seq: u64,
    attempt: u64,
) -> bool {
    let Some(plan) = plan else {
        return false;
    };
    if !plan.should_fire(site, system_size, seq as usize, attempt) {
        return false;
    }
    tracing::warn!(
        site = %site,
        seq = seq,
        attempt = attempt,
        "injecting admission fault"
    );
    true
}

#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
fn fault_fires(
    _plan: &Option<Arc<FaultPlan>>,
    _site: crate::fault::FaultSite,
    _system_size: usize,
    _seq: u64,
    _attempt: u64,
) -> bool {
    false
}

/// The admission service's durable transcript: a
/// [sealed log](crate::sealed_log) — the on-disk format, torn-tail repair
/// and retry policy of the Runner's checkpoints.
///
/// The header carries a configuration fingerprint. After it come two
/// kinds of sealed line: a `Graph` line ([`WalGraph`]) holds one distinct
/// task graph under a per-file ordinal, and a `Sealed` line
/// ([`WalRecord`]) holds one concluded request, its outcome and the
/// post-outcome state digest. Each distinct graph is written once: an
/// admit names its graph by ordinal, and a table of the
/// [`SEALED_GRAPHS`] most recently referenced graphs finds the ordinal (a
/// pointer match first, then a content hash filter with full equality as
/// the witness). An admit whose graph the table does not hold writes the
/// `Graph` line and its record in one append, so a request costs one
/// write either way. Each append reaches the OS before its verdict
/// returns, so a killed process loses at most the request in flight.
#[derive(Debug)]
struct AdmissionWal {
    log: Appender,
    path: PathBuf,
    /// Sequence the next sealed record will carry.
    seq: u64,
    /// Ordinal the next sealed graph will carry.
    next_graph: u64,
    /// The recently sealed graphs (at most [`SEALED_GRAPHS`]).
    graphs: Vec<SealedGraph>,
    /// Use-stamp clock of `graphs`.
    stamp: u64,
    system_size: usize,
    fault: Option<Arc<FaultPlan>>,
}

impl AdmissionWal {
    /// Attaches to the log at `path`: created (truncating) with a fresh
    /// header, or — after recovery replayed `seq` records and read back
    /// the sealed `graphs` from it — reopened past its valid prefix
    /// `tail`.
    fn open(
        path: &Path,
        config: &AdmitConfig,
        recovered: Option<(Tail, u64, &[Arc<TaskGraph>])>,
    ) -> Result<AdmissionWal, RunError> {
        let (log, seq, sealed) = match recovered {
            None => {
                let header = WalHeader {
                    fingerprint: wal_fingerprint(config),
                    label: config.scenario.label.clone(),
                };
                (Appender::create(path, &header)?, 0, &[][..])
            }
            Some((tail, seq, graphs)) => (Appender::reopen(path, tail)?, seq, graphs),
        };
        let mut wal = AdmissionWal {
            log,
            path: path.to_path_buf(),
            seq,
            next_graph: sealed.len() as u64,
            graphs: Vec::new(),
            stamp: 0,
            system_size: config.system_size,
            fault: config.fault_plan.clone(),
        };
        let first = sealed.len().saturating_sub(SEALED_GRAPHS);
        for (g, graph) in sealed.iter().enumerate().skip(first) {
            wal.remember(graph, graph_hash(graph), g as u64);
        }
        Ok(wal)
    }

    /// The ordinal of a sealed graph equal to `graph`, marked most
    /// recently used — or, when the table holds none, `Err` with
    /// `graph`'s content hash for [`remember`](AdmissionWal::remember).
    fn sealed_ordinal(&mut self, graph: &Arc<TaskGraph>) -> Result<u64, u64> {
        self.stamp += 1;
        let found = match self
            .graphs
            .iter()
            .position(|e| Arc::ptr_eq(&e.graph, graph))
        {
            Some(i) => i,
            None => {
                let hash = graph_hash(graph);
                self.graphs
                    .iter()
                    .position(|e| e.hash == hash && *e.graph == **graph)
                    .ok_or(hash)?
            }
        };
        let entry = &mut self.graphs[found];
        entry.last_used = self.stamp;
        Ok(entry.g)
    }

    /// Enters a graph sealed as ordinal `g` in the table, replacing the
    /// least recently used entry when full.
    fn remember(&mut self, graph: &Arc<TaskGraph>, hash: u64, g: u64) {
        self.stamp += 1;
        let entry = SealedGraph {
            graph: Arc::clone(graph),
            hash,
            g,
            last_used: self.stamp,
        };
        if self.graphs.len() < SEALED_GRAPHS {
            self.graphs.push(entry);
        } else if let Some(oldest) = self.graphs.iter_mut().min_by_key(|e| e.last_used) {
            *oldest = entry;
        }
    }

    /// Seals one concluded request to disk before its verdict is
    /// returned: an admit of a graph the table does not hold writes the
    /// graph's `Graph` line and the record in a single append.
    /// Transiently failing appends are retried by [`Appender::append`]; an
    /// error is returned only once every retry is exhausted, and then the
    /// log holds no fragment of either line and the graph stays unsealed.
    fn append(
        &mut self,
        request: &AdmitRequest,
        outcome: AdmitOutcome,
        digest: u64,
    ) -> Result<(), RunError> {
        let seq = self.seq;
        let mut unsealed = None;
        let request = match request {
            AdmitRequest::Admit { id, graph, origin } => {
                let g = match self.sealed_ordinal(graph) {
                    Ok(g) => g,
                    Err(hash) => {
                        unsealed = Some((graph, hash));
                        self.next_graph
                    }
                };
                SealedRequest::Admit {
                    id: *id,
                    graph: g,
                    origin: *origin,
                }
            }
            AdmitRequest::Amend { id, delta } => SealedRequest::Amend {
                id: *id,
                delta: delta.clone(),
            },
        };
        let record = WalRecord {
            seq,
            request,
            outcome,
            digest,
        };
        #[allow(unused_mut)] // mutated only by the fault-inject hook below
        let mut line = sealed_line("Sealed", &record);
        #[cfg(feature = "fault-inject")]
        if fault_fires(
            &self.fault,
            FaultSite::AdmitLogCorrupt,
            self.system_size,
            seq,
            0,
        ) {
            crate::sealed_log::corrupt_digit(&mut line);
        }
        let mut text = match unsealed {
            Some((graph, _)) => {
                let sealed = WalGraph {
                    g: self.next_graph,
                    graph: Arc::clone(graph),
                };
                let mut text = sealed_line("Graph", &sealed);
                text.push('\n');
                text.push_str(&line);
                text
            }
            None => line,
        };
        text.push('\n');

        self.log.append(
            text.as_bytes(),
            |attempt| {
                fault_fires(
                    &self.fault,
                    FaultSite::AdmitLogIo,
                    self.system_size,
                    seq,
                    attempt,
                )
                .then(|| std::io::Error::other("injected admission log failure"))
            },
            |attempt, backoff, e| {
                tracing::warn!(
                    path = %self.path.display(),
                    seq = seq,
                    attempt = attempt,
                    backoff_ms = backoff.as_millis() as u64,
                    "admission log append failed ({e}); retrying"
                );
                telemetry::global().count_admission_log_retry();
            },
        )?;
        if let Some((graph, hash)) = unsealed {
            self.remember(graph, hash, self.next_graph);
            self.next_graph += 1;
            telemetry::global().count_admission_wal_graph();
        }
        self.seq = seq + 1;
        Ok(())
    }

    /// Loads the log at `path`, verifying the header fingerprint against
    /// `config`, each line's seal, the contiguity of record sequences and
    /// graph ordinals, and that every admit names a graph sealed before
    /// it; each reference resolves to the one shared allocation of its
    /// graph. A torn final line — a `Graph` line or a record — is skipped.
    fn load(path: &Path, config: &AdmitConfig) -> Result<LoadedWal, RunError> {
        let corrupt = |detail: String| RunError::CheckpointCorrupt {
            path: path.to_path_buf(),
            detail,
        };
        let Loaded {
            records: lines,
            tail,
        } = sealed_log::load(
            path,
            "an admission log",
            wal_fingerprint(config),
            |tag, json| match tag {
                "Graph" => serde_json::from_str(json).ok().map(WalEntry::Graph),
                "Sealed" => serde_json::from_str(json).ok().map(WalEntry::Sealed),
                _ => None,
            },
        )?
        .ok_or_else(|| corrupt("log file is empty (no header)".to_owned()))?;
        let mut graphs: Vec<Arc<TaskGraph>> = Vec::new();
        let mut records = Vec::new();
        for (line_no, entry) in lines {
            match entry {
                WalEntry::Graph(WalGraph { g, graph }) => {
                    if g != graphs.len() as u64 {
                        return Err(corrupt(format!("graph ordinal gap at line {line_no}")));
                    }
                    graphs.push(graph);
                }
                WalEntry::Sealed(WalRecord {
                    seq,
                    request,
                    outcome,
                    digest,
                }) => {
                    if seq != records.len() as u64 {
                        return Err(corrupt(format!("record sequence gap at line {line_no}")));
                    }
                    let request = match request {
                        SealedRequest::Admit { id, graph, origin } => {
                            let graph = usize::try_from(graph)
                                .ok()
                                .and_then(|g| graphs.get(g))
                                .ok_or_else(|| {
                                    corrupt(format!(
                                        "record names unsealed graph {graph} at line {line_no}"
                                    ))
                                })?;
                            AdmitRequest::Admit {
                                id,
                                graph: Arc::clone(graph),
                                origin,
                            }
                        }
                        SealedRequest::Amend { id, delta } => AdmitRequest::Amend { id, delta },
                    };
                    records.push(LoadedRecord {
                        seq,
                        request,
                        outcome,
                        digest,
                    });
                }
            }
        }
        Ok(LoadedWal {
            records,
            graphs,
            tail,
        })
    }
}

/// The sequential admission core: one pipeline, one committed state, the
/// resident set. Processes one request at a time; [`AdmissionService`]
/// wraps it with a queue and parallel slicers without changing any
/// verdict.
///
/// # Examples
///
/// ```
/// use feast::{AdmissionController, AdmitConfig, Scenario};
/// use slicing::{CommEstimate, MetricKind};
/// use taskgraph::gen::{generate_seeded, ExecVariation, WorkloadSpec};
/// use taskgraph::Time;
///
/// # fn main() -> Result<(), feast::Error> {
/// let spec = WorkloadSpec::paper(ExecVariation::Mdet);
/// let scenario = Scenario::paper("ADM", spec.clone(), MetricKind::adapt(), CommEstimate::Ccne);
/// let mut controller = AdmissionController::new(AdmitConfig::new(scenario, 8))?;
///
/// let graph = generate_seeded(&spec, 1).unwrap();
/// let verdict = controller.admit(1, graph, Time::ZERO)?;
/// assert_eq!(controller.residents(), usize::from(verdict.admitted));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmitConfig,
    platform: Platform,
    pipeline: Pipeline,
    state: CommittedState,
    residents: BTreeMap<u64, Resident>,
    /// Resident ids in admission order — the capacity bound's eviction
    /// queue.
    order: VecDeque<u64>,
    /// The latest commit, if its receipt is still rollback-eligible:
    /// amendments to this resident can withdraw it without invalidating
    /// the scheduler's retained dispatch log.
    last_commit: Option<(u64, CommitReceipt)>,
    miss_log: Arc<MissLog>,
    /// The durable transcript, when [`AdmitConfig::wal_path`] is set.
    wal: Option<AdmissionWal>,
    /// Remaining individually-logged structural-fallback WARNs (shares
    /// the [`AdmitConfig::miss_warn_limit`] budget size).
    fallback_warns: u64,
    /// The cross-request slice cache, when enabled — shared with every
    /// slicer worker of an [`AdmissionService`] built on this controller.
    slice_cache: Option<SharedSliceCache>,
}

impl AdmissionController {
    /// Builds the live platform and an idle (empty) committed state for
    /// `config`.
    ///
    /// # Errors
    ///
    /// Returns [`AdmitError::Trial`] when the platform cannot be
    /// constructed (e.g. zero processors).
    pub fn new(config: AdmitConfig) -> Result<AdmissionController, AdmitError> {
        let topology = config
            .scenario
            .topology
            .build(config.system_size, config.scenario.cost_per_item);
        let platform =
            Platform::homogeneous(config.system_size, topology).map_err(RunError::Platform)?;
        let miss_log = Arc::new(MissLog::new(config.miss_warn_limit));
        let slice_cache: Option<SharedSliceCache> = if config.slice_cache > 0 {
            Some(Arc::new(Mutex::new(slicing::SliceCache::new(
                config.slice_cache,
            ))))
        } else {
            None
        };
        let mut pipeline = Pipeline::new(&config.scenario).with_delta_memo();
        if let Some(cache) = &slice_cache {
            pipeline = pipeline.with_slice_cache(Arc::clone(cache));
        }
        pipeline.set_miss_log(Some(Arc::clone(&miss_log)));
        let state = CommittedState::new(config.system_size, config.scenario.scheduler.bus_model);
        let wal = match &config.wal_path {
            Some(path) => Some(AdmissionWal::open(path, &config, None).map_err(AdmitError::Log)?),
            None => None,
        };
        let fallback_warns = config.miss_warn_limit;
        Ok(AdmissionController {
            config,
            platform,
            pipeline,
            state,
            residents: BTreeMap::new(),
            order: VecDeque::new(),
            last_commit: None,
            miss_log,
            wal,
            fallback_warns,
            slice_cache,
        })
    }

    /// Rebuilds a controller from the write-ahead log at `path`, replaying
    /// every sealed record through a fresh sequential controller and
    /// verifying each against its recorded outcome and post-outcome state
    /// digest — the recovered state is provably bit-identical to the
    /// pre-crash committed state. Environmental outcomes
    /// ([`Shed`](AdmitOutcome::Shed), [`Failed`](AdmitOutcome::Failed))
    /// are adopted verbatim (they concluded before any state mutation;
    /// the digest check still validates their no-trace invariant).
    ///
    /// Returns the recovered controller — re-attached to `path` for
    /// further appends — and the transcript of the replayed prefix.
    /// `config` must match the log's fingerprint (scenario, platform
    /// size, capacity, eviction policy); operational knobs may differ.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Log`] for an unreadable, corrupt, or
    /// fingerprint-mismatching log, and [`AdmitError::RecoveryDiverged`]
    /// when a replayed record does not reproduce its sealed outcome or
    /// digest.
    pub fn recover(
        config: AdmitConfig,
        path: impl AsRef<Path>,
    ) -> Result<(AdmissionController, AdmissionLog), AdmitError> {
        let path = path.as_ref();
        let LoadedWal {
            records,
            graphs,
            tail,
        } = AdmissionWal::load(path, &config).map_err(AdmitError::Log)?;
        let mut replay_config = config.clone();
        replay_config.wal_path = None;
        let mut controller = AdmissionController::new(replay_config)?;
        let mut log = AdmissionLog::default();
        for record in records {
            let LoadedRecord {
                seq,
                request,
                outcome: recorded,
                digest,
            } = record;
            let outcome = if recorded.is_environmental() {
                recorded.clone()
            } else {
                // Schema-compatible replay: each record re-derives under
                // the slicing schema it was sealed with. A record sealed
                // as a pre-filter refusal re-derives through the
                // pre-filter; every other record re-derives through the
                // full slice + trial path — which is exactly what
                // produced it, whether the writing session predated the
                // pre-filter, had it disabled, or had it enabled (the
                // bounds are conservative, so a sealed verdict means the
                // pre-filter passed the graph through). Outcome and
                // digest stay strict bit-for-bit checks either way, and
                // the session's own knob is restored for post-recovery
                // appends.
                let sealed_prefiltered =
                    matches!(&recorded, AdmitOutcome::Refused(Refusal::Prefilter { .. }));
                let session = controller.config.prefilter;
                controller.config.prefilter = sealed_prefiltered;
                let outcome = AdmitOutcome::of(&controller.handle(&request));
                controller.config.prefilter = session;
                outcome
            };
            if outcome != recorded {
                return Err(AdmitError::RecoveryDiverged {
                    seq,
                    detail: format!("recorded outcome {recorded:?}, replay produced {outcome:?}"),
                });
            }
            if controller.digest() != digest {
                return Err(AdmitError::RecoveryDiverged {
                    seq,
                    detail: format!(
                        "recorded state digest {digest:#018x}, replay reached {:#018x}",
                        controller.digest()
                    ),
                });
            }
            log.requests.push(request);
            // The sealed record stays the truth in the recovered
            // transcript, even where the schema bridge accepted a
            // non-identical (but provably trace-free) derivation.
            log.outcomes.push(recorded);
        }
        log.digest = controller.digest();
        log.residents = controller.residents();
        let next = log.requests.len() as u64;
        controller.wal = Some(
            AdmissionWal::open(path, &config, Some((tail, next, &graphs)))
                .map_err(AdmitError::Log)?,
        );
        controller.config.wal_path = Some(path.to_path_buf());
        Ok((controller, log))
    }

    /// Processes one request: [`admit`](AdmissionController::admit) or
    /// [`amend`](AdmissionController::amend). This is the replay entry
    /// point — feeding a recorded request sequence through `handle`
    /// reproduces the original verdicts bit for bit.
    ///
    /// # Errors
    ///
    /// Exactly those of the dispatched method.
    pub fn handle(&mut self, request: &AdmitRequest) -> Result<AdmitVerdict, AdmitError> {
        match request {
            AdmitRequest::Admit { id, graph, origin } => {
                self.admit(*id, Arc::clone(graph), *origin)
            }
            AdmitRequest::Amend { id, delta } => self.amend(*id, delta),
        }
    }

    /// Slices `graph` and trial-schedules it around the current committed
    /// reservations at absolute time `origin`. On admit the trial schedule
    /// is committed as a reservation; on reject the state is left exactly
    /// as the retirement of expired residents left it.
    ///
    /// Processing first advances the decision clock to `origin`: residents
    /// whose horizon has passed depart. That retirement depends only on
    /// `origin`, never on this request's verdict.
    ///
    /// # Errors
    ///
    /// [`AdmitError::DuplicateId`] when `id` is already resident, and
    /// [`AdmitError::Trial`] when the pipeline itself fails. A *reject* is
    /// not an error — it is an `Ok` verdict with `admitted == false`.
    pub fn admit(
        &mut self,
        id: u64,
        graph: impl Into<Arc<TaskGraph>>,
        origin: Time,
    ) -> Result<AdmitVerdict, AdmitError> {
        let graph = graph.into();
        let sliced = if self.config.prefilter {
            match self.pipeline.prefilter(&graph, &self.platform) {
                Some(reject) => Err(AdmitError::Prefilter(reject)),
                None => self
                    .pipeline
                    .slice(&graph, &self.platform)
                    .map(Sliced::into_output)
                    .map_err(AdmitError::Trial),
            }
        } else {
            self.pipeline
                .slice(&graph, &self.platform)
                .map(Sliced::into_output)
                .map_err(AdmitError::Trial)
        };
        let result = match sliced {
            Ok(output) => self.decide(id, &graph, origin, output),
            Err(e) => Err(e),
        };
        let request = AdmitRequest::Admit { id, graph, origin };
        self.conclude(&request, result)
    }

    /// The sealing choke point: records `result` for `request` in the
    /// write-ahead log (when durable) **before** handing the verdict back.
    /// Every public conclusion — the controller's own
    /// [`admit`](AdmissionController::admit) /
    /// [`amend`](AdmissionController::amend) and the service coordinator —
    /// funnels through here exactly once per request.
    ///
    /// An append that exhausts its retries degrades rather than dies: the
    /// failure is WARNed and counted
    /// ([`admission_log_failures`](crate::telemetry::MetricsSnapshot::admission_log_failures))
    /// and the verdict is still returned — the caller gets its answer, the
    /// operator gets the signal that durability lapsed. The log is cut
    /// back to its last sealed record, so later records still start a
    /// fresh line.
    pub(crate) fn conclude(
        &mut self,
        request: &AdmitRequest,
        result: Result<AdmitVerdict, AdmitError>,
    ) -> Result<AdmitVerdict, AdmitError> {
        if matches!(result, Err(AdmitError::Prefilter(_))) {
            telemetry::global().count_admission_prefiltered();
        }
        if let Some(wal) = self.wal.as_mut() {
            if let Err(e) = wal.append(request, AdmitOutcome::of(&result), self.state.digest()) {
                tracing::warn!(
                    path = %wal.path.display(),
                    seq = wal.seq,
                    "admission log append exhausted retries ({e}); verdict returned undurable"
                );
                telemetry::global().count_admission_log_failure();
            }
        }
        result
    }

    /// The serial half of an admit: retire, trial against committed load,
    /// commit on admit. The service's coordinator calls this with products
    /// sliced on worker threads.
    pub(crate) fn decide(
        &mut self,
        id: u64,
        graph: &Arc<TaskGraph>,
        origin: Time,
        output: SliceOutput,
    ) -> Result<AdmitVerdict, AdmitError> {
        let started = Instant::now();
        self.retire(origin);
        if self.residents.contains_key(&id) {
            return Err(AdmitError::DuplicateId { id });
        }
        let verdict = self.pipeline.trial_output_against(
            graph,
            &self.platform,
            output,
            &self.state,
            origin,
        )?;
        let admitted = verdict.admit;
        if admitted {
            // The capacity bound evicts via the configured policy, only on
            // an actual admit. The trial ran with the evictees still
            // resident, so its schedule avoids their reservations too —
            // committing it after they leave is strictly sound.
            while self.residents.len() >= self.config.capacity.max(1) {
                let candidates: Vec<EvictionCandidate> = self
                    .order
                    .iter()
                    .enumerate()
                    .filter_map(|(seniority, &rid)| {
                        self.residents.get(&rid).map(|resident| EvictionCandidate {
                            id: rid,
                            seniority,
                            origin: resident.origin,
                            horizon: resident.horizon,
                            busy: resident
                                .schedule
                                .entries()
                                .iter()
                                .fold(Time::ZERO, |acc, entry| acc + (entry.finish - entry.start)),
                        })
                    })
                    .collect();
                if candidates.is_empty() {
                    break;
                }
                let victim = self.config.eviction.victim(&candidates);
                if !self.residents.contains_key(&victim) {
                    debug_assert!(false, "eviction policy chose a non-resident id {victim}");
                    break;
                }
                self.evict(victim);
                telemetry::global().count_admission_evicted();
            }
            let receipt = self.state.commit(&verdict.schedule)?;
            self.last_commit = Some((id, receipt));
            let decision = self.verdict_of(id, true, false, &verdict, self.residents.len() + 1);
            self.residents.insert(
                id,
                Resident {
                    graph: Arc::clone(graph),
                    horizon: verdict.makespan,
                    origin,
                    schedule: verdict.schedule,
                },
            );
            self.order.push_back(id);
            telemetry::global().record_admission(true, started.elapsed());
            Ok(decision)
        } else {
            let decision = self.verdict_of(id, false, false, &verdict, self.residents.len());
            telemetry::global().record_admission(false, started.elapsed());
            Ok(decision)
        }
    }

    /// Applies `delta` to the resident `id`, withdraws its reservation and
    /// re-trials the amended graph at its original origin. On admit the
    /// new schedule replaces the old reservation; on reject (or any
    /// pipeline error) the original reservation is restored unchanged.
    ///
    /// When the resident's commit is still the state's latest mutation,
    /// withdrawal is a receipt rollback and the re-trial runs through the
    /// scheduler's repair path, reusing every dispatch the amendment did
    /// not disturb; otherwise it releases and re-trials in full. Both
    /// paths produce bit-identical verdicts — the fast path is reported in
    /// [`AdmitVerdict::repaired`].
    ///
    /// # Errors
    ///
    /// [`AdmitError::NoResident`] for an unknown id,
    /// [`AdmitError::Delta`] when the amendment does not apply, and
    /// [`AdmitError::Trial`] when the pipeline itself fails.
    pub fn amend(&mut self, id: u64, delta: &GraphDelta) -> Result<AdmitVerdict, AdmitError> {
        let result = self.amend_unsealed(id, delta);
        let request = AdmitRequest::Amend {
            id,
            delta: delta.clone(),
        };
        self.conclude(&request, result)
    }

    /// [`amend`](AdmissionController::amend) without the sealing step —
    /// the service's coordinator runs this and seals through
    /// [`conclude`](AdmissionController::conclude) itself.
    pub(crate) fn amend_unsealed(
        &mut self,
        id: u64,
        delta: &GraphDelta,
    ) -> Result<AdmitVerdict, AdmitError> {
        let started = Instant::now();
        if !delta.is_attribute_only() {
            // Structural amendments can never ride the schedule-repair
            // fast path; count them so an operator can see when an
            // amendment-heavy workload degrades to full re-trials.
            telemetry::global().count_admission_structural_fallback();
            if self.fallback_warns > 0 {
                self.fallback_warns -= 1;
                tracing::warn!(
                    id = id,
                    remaining = self.fallback_warns,
                    "structural amendment forces a full re-slice (repair fast path unavailable)"
                );
            }
        }
        let resident = match self.residents.remove(&id) {
            Some(resident) => resident,
            None => return Err(AdmitError::NoResident { id }),
        };
        let (resident, result) = self.amend_inner(id, resident, delta);
        self.residents.insert(id, resident);
        if let Ok(decision) = &result {
            telemetry::global().record_admission(decision.admitted, started.elapsed());
        }
        result
    }

    /// Body of [`amend`](AdmissionController::amend) with the resident
    /// held out of the map (so the state and pipeline can be borrowed
    /// mutably alongside it); the caller re-inserts it on every path.
    fn amend_inner(
        &mut self,
        id: u64,
        mut resident: Resident,
        delta: &GraphDelta,
    ) -> (Resident, Result<AdmitVerdict, AdmitError>) {
        let pinning = match self
            .config
            .scenario
            .pinning
            .build(&resident.graph, &self.platform)
        {
            Ok(pinning) => pinning,
            Err(e) => return (resident, Err(AdmitError::Trial(RunError::Platform(e)))),
        };
        let amended = match delta.apply(&resident.graph, &pinning) {
            Ok(applied) => applied.graph,
            Err(e) => return (resident, Err(e.into())),
        };

        // Withdraw the resident's reservation. When it is the latest
        // commit, a receipt rollback restores the exact base content the
        // previous trial ran against, keeping the retained dispatch log
        // valid for repair; any other history forces release + full trial.
        let fast = match &self.last_commit {
            Some((last, receipt)) if *last == id => {
                self.state.rollback(&resident.schedule, receipt).is_ok()
            }
            _ => false,
        };
        if !fast {
            if let Err(e) = self.state.release(&resident.schedule) {
                return (resident, Err(e.into()));
            }
        }
        self.last_commit = None;

        match self.retrial(&amended, resident.origin, fast, &resident.schedule) {
            Ok(verdict) => {
                let repaired = verdict.repair_fell_back == Some(false);
                if verdict.admit {
                    let receipt = match self.state.commit(&verdict.schedule) {
                        Ok(receipt) => receipt,
                        Err(e) => return (resident, Err(e.into())),
                    };
                    self.last_commit = Some((id, receipt));
                    let decision =
                        self.verdict_of(id, true, repaired, &verdict, self.residents.len() + 1);
                    resident.graph = Arc::new(amended);
                    resident.horizon = verdict.makespan;
                    resident.schedule = verdict.schedule;
                    (resident, Ok(decision))
                } else {
                    // Reject leaves no trace: restore the original
                    // reservation (content-identical, so the state digest
                    // is unchanged).
                    let decision =
                        self.verdict_of(id, false, repaired, &verdict, self.residents.len() + 1);
                    match self.state.commit(&resident.schedule) {
                        Ok(receipt) => self.last_commit = Some((id, receipt)),
                        Err(e) => return (resident, Err(e.into())),
                    }
                    (resident, Ok(decision))
                }
            }
            Err(e) => {
                // Pipeline failure: restore the original reservation, then
                // surface the error.
                match self.state.commit(&resident.schedule) {
                    Ok(receipt) => self.last_commit = Some((id, receipt)),
                    Err(restore) => return (resident, Err(restore.into())),
                }
                (resident, Err(AdmitError::Trial(e)))
            }
        }
    }

    /// Re-slices and re-trials an amended graph, through the repair path
    /// when the preceding rollback kept the base content unchanged.
    fn retrial(
        &mut self,
        graph: &TaskGraph,
        origin: Time,
        fast: bool,
        prev: &Schedule,
    ) -> Result<Verdict, RunError> {
        // Amended graphs are per-resident mutations: bypass the
        // cross-request cache (see `Pipeline::suspend_slice_cache`) and
        // let the delta memo's incremental path do its work.
        let cache = self.pipeline.suspend_slice_cache();
        let sliced = self
            .pipeline
            .slice(graph, &self.platform)
            .map(Sliced::into_output);
        self.pipeline.resume_slice_cache(cache);
        let output = sliced?;
        if fast {
            self.pipeline.repair_output_against(
                graph,
                &self.platform,
                output,
                prev,
                &self.state,
                origin,
            )
        } else {
            self.pipeline
                .trial_output_against(graph, &self.platform, output, &self.state, origin)
        }
    }

    /// Releases every resident whose horizon has passed the decision
    /// clock `now` (all reserved work complete — the graph has departed).
    fn retire(&mut self, now: Time) {
        let expired: Vec<u64> = self
            .residents
            .iter()
            .filter(|(_, resident)| resident.horizon <= now)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            self.evict(id);
        }
    }

    /// Removes a resident and releases its reservations. Departure stamps
    /// fresh state, so any retained rollback receipt is invalidated.
    fn evict(&mut self, id: u64) {
        if let Some(resident) = self.residents.remove(&id) {
            // Shape mismatch is impossible for a schedule this state
            // committed, so the release cannot fail meaningfully.
            let _ = self.state.release(&resident.schedule);
            self.order.retain(|&other| other != id);
            if matches!(self.last_commit, Some((last, _)) if last == id) {
                self.last_commit = None;
            }
        }
    }

    fn verdict_of(
        &self,
        id: u64,
        admitted: bool,
        repaired: bool,
        verdict: &Verdict,
        residents: usize,
    ) -> AdmitVerdict {
        AdmitVerdict {
            id,
            admitted,
            max_lateness: verdict.max_lateness,
            end_to_end: verdict.end_to_end,
            makespan: verdict.makespan,
            violations: verdict.violations(),
            repaired,
            residents,
        }
    }

    /// The committed reservations the next trial will run against.
    pub fn state(&self) -> &CommittedState {
        &self.state
    }

    /// Number of committed residents.
    pub fn residents(&self) -> usize {
        self.residents.len()
    }

    /// Whether `id` is currently resident.
    pub fn is_resident(&self, id: u64) -> bool {
        self.residents.contains_key(&id)
    }

    /// Content digest of the committed state (see
    /// [`CommittedState::digest`]); equal digests mean identical
    /// reservations.
    pub fn digest(&self) -> u64 {
        self.state.digest()
    }

    /// The configuration this controller was built from.
    pub fn config(&self) -> &AdmitConfig {
        &self.config
    }

    /// The shared deadline-miss warning budget (see
    /// [`AdmitConfig::miss_warn_limit`]).
    pub fn miss_log(&self) -> &Arc<MissLog> {
        &self.miss_log
    }
}

/// A slicing job shipped to a worker: stage one never reads committed
/// load, so it runs concurrently with other requests' trials.
struct WorkerJob {
    seq: u64,
    id: u64,
    graph: Arc<TaskGraph>,
    origin: Time,
    /// When [`AdmissionService::submit`] accepted the request — the
    /// decision budget's staleness clock.
    accepted: Instant,
}

/// A unit of serial coordinator work, tagged with its submission sequence.
enum CoordJob {
    Admit {
        seq: u64,
        id: u64,
        graph: Arc<TaskGraph>,
        origin: Time,
        accepted: Instant,
        output: Result<SliceOutput, AdmitError>,
    },
    Amend {
        seq: u64,
        id: u64,
        delta: GraphDelta,
        accepted: Instant,
    },
    /// A spurious redelivery of an already-shipped sequence (injected by
    /// the `admit-queue-race` fault site); the coordinator's dedup guard
    /// must drop it without disturbing the real job.
    Duplicate { seq: u64 },
}

impl CoordJob {
    fn seq(&self) -> u64 {
        match self {
            CoordJob::Admit { seq, .. }
            | CoordJob::Amend { seq, .. }
            | CoordJob::Duplicate { seq } => *seq,
        }
    }
}

/// How many queued requests a slicer worker drains per pickup. One
/// blocking receive plus up to `WORKER_BATCH - 1` opportunistic ones
/// amortizes the receiver-lock round trip under load, and duplicate
/// graphs inside a batch slice once; under light load `try_recv` comes
/// back empty immediately, so batching adds no latency.
const WORKER_BATCH: usize = 8;

/// Micro-seconds `accepted` has waited beyond `budget`, when over it.
fn over_budget(budget: Option<Duration>, accepted: Instant) -> Option<u64> {
    let budget = budget?;
    let waited = accepted.elapsed();
    if waited > budget {
        Some(waited.as_micros() as u64)
    } else {
        None
    }
}

/// The admission controller behind a bounded queue: a pool of slicer
/// workers distributes deadlines in parallel while a single coordinator
/// trials and commits strictly in submission order, so the service's
/// verdicts are bit-identical to a sequential [`AdmissionController`] fed
/// the same requests (the contract [`AdmissionLog::replay`] checks).
///
/// [`submit`](AdmissionService::submit) never blocks — a full queue is an
/// [`AdmitError::QueueFull`] refusal — and
/// [`shutdown`](AdmissionService::shutdown) drains every accepted request
/// before returning the transcript.
///
/// # Examples
///
/// ```
/// use feast::{AdmissionService, AdmitConfig, AdmitRequest, Scenario};
/// use slicing::{CommEstimate, MetricKind};
/// use taskgraph::gen::{generate_seeded, ExecVariation, WorkloadSpec};
/// use taskgraph::Time;
///
/// # fn main() -> Result<(), feast::Error> {
/// let spec = WorkloadSpec::paper(ExecVariation::Mdet);
/// let scenario = Scenario::paper("SVC", spec.clone(), MetricKind::adapt(), CommEstimate::Ccne);
/// let service = AdmissionService::new(AdmitConfig::new(scenario, 8).with_workers(2))?;
/// for id in 0..4 {
///     let graph = generate_seeded(&spec, id).unwrap();
///     service.submit(AdmitRequest::Admit { id, graph: graph.into(), origin: Time::ZERO })?;
/// }
/// let log = service.shutdown()?;
/// assert_eq!(log.outcomes.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AdmissionService {
    ingress: SyncSender<WorkerJob>,
    coord: SyncSender<CoordJob>,
    /// Next submission sequence number; the lock also serializes sends, so
    /// sequence order equals queue order.
    seq: Mutex<u64>,
    depth: usize,
    workers: Vec<JoinHandle<()>>,
    coordinator: JoinHandle<AdmissionLog>,
}

impl AdmissionService {
    /// Starts the worker pool and coordinator for `config`.
    ///
    /// # Errors
    ///
    /// Exactly those of [`AdmissionController::new`], plus
    /// [`AdmitError::Trial`] wrapping an I/O error when a thread cannot be
    /// spawned.
    pub fn new(config: AdmitConfig) -> Result<AdmissionService, AdmitError> {
        let controller = AdmissionController::new(config.clone())?;
        let depth = config.queue_depth.max(1);
        let (ingress, worker_rx) = sync_channel::<WorkerJob>(depth);
        let (coord_tx, coord_rx) = sync_channel::<CoordJob>(depth);
        let worker_rx = Arc::new(Mutex::new(worker_rx));

        let mut workers = Vec::new();
        for index in 0..config.workers.max(1) {
            let rx = Arc::clone(&worker_rx);
            let tx = coord_tx.clone();
            let scenario = config.scenario.clone();
            let platform = controller.platform.clone();
            let miss_log = Arc::clone(&controller.miss_log);
            let budget = config.decision_budget;
            let fault = config.fault_plan.clone();
            let system_size = config.system_size;
            let prefilter_on = config.prefilter;
            let slice_cache = controller.slice_cache.clone();
            let worker = std::thread::Builder::new()
                .name(format!("admit-slicer-{index}"))
                .spawn(move || {
                    let attach = |mut pipeline: Pipeline| {
                        if let Some(cache) = &slice_cache {
                            pipeline = pipeline.with_slice_cache(Arc::clone(cache));
                        }
                        pipeline.set_miss_log(Some(Arc::clone(&miss_log)));
                        pipeline
                    };
                    let mut pipeline = attach(Pipeline::new(&scenario));
                    let mut batch: Vec<WorkerJob> = Vec::with_capacity(WORKER_BATCH);
                    loop {
                        // Take the receiver lock only to dequeue; slicing
                        // runs unlocked, concurrently across the pool.
                        // One blocking receive, then opportunistically
                        // drain up to the batch bound — under light load
                        // the batch is a single job and nothing waits.
                        batch.clear();
                        {
                            let guard = match rx.lock() {
                                Ok(guard) => guard,
                                Err(_) => return,
                            };
                            match guard.recv() {
                                Ok(job) => batch.push(job),
                                Err(_) => return,
                            }
                            while batch.len() < WORKER_BATCH {
                                match guard.try_recv() {
                                    Ok(job) => batch.push(job),
                                    Err(_) => break,
                                }
                            }
                        }
                        // Duplicate graphs inside one batch slice once:
                        // keyed by the full-content SliceKey, so reuse
                        // carries the same bit-identical-output witness
                        // the cross-request cache does. With the shared
                        // cache attached the first job's insert already
                        // turns its batch-mates into cache hits (a batch
                        // of 8 cannot evict its own entry from a 64-slot
                        // LRU), so the local table — and its second key
                        // computation per job — only runs when the cache
                        // is off. Each job still ships its own CoordJob
                        // in batch (= submission) order, so the
                        // coordinator's commit order is untouched.
                        let dedup_locally = slice_cache.is_none();
                        let mut sliced_in_batch: Vec<(slicing::SliceKey, SliceOutput)> = Vec::new();
                        for job in batch.drain(..) {
                            // Staleness-aware shedding: a request already
                            // over its decision budget is refused before
                            // any slicing work is spent on it. The typed
                            // refusal still ships, so the reorder buffer
                            // never waits on a hole.
                            let output = if let Some(waited_us) = over_budget(budget, job.accepted)
                            {
                                Err(AdmitError::Shed { waited_us })
                            } else if let Some(reject) = prefilter_on
                                .then(|| pipeline.prefilter(&job.graph, &platform))
                                .flatten()
                            {
                                // Necessary-condition bounds refuse the
                                // graph before any DP search runs; the
                                // bounds are conservative, so no admissible
                                // graph is lost here.
                                Err(AdmitError::Prefilter(reject))
                            } else {
                                let key = if dedup_locally {
                                    pipeline.slice_key(&job.graph, &platform)
                                } else {
                                    None
                                };
                                let dup = key.as_ref().and_then(|k| {
                                    sliced_in_batch
                                        .iter()
                                        .find(|(seen, _)| seen == k)
                                        .map(|(_, output)| output.clone())
                                });
                                if let Some(output) = dup {
                                    Ok(output)
                                } else {
                                    // Supervision: a panicking slicer (real
                                    // or injected) is caught, its possibly-
                                    // poisoned pipeline discarded and
                                    // rebuilt in place, and the request
                                    // concluded with a typed failure — the
                                    // service degrades by one verdict, it
                                    // never dies.
                                    let sliced = catch_unwind(AssertUnwindSafe(|| {
                                        if fault_fires(
                                            &fault,
                                            FaultSite::AdmitWorkerPanic,
                                            system_size,
                                            job.seq,
                                            0,
                                        ) {
                                            panic!("injected admission worker panic");
                                        }
                                        pipeline
                                            .slice(&job.graph, &platform)
                                            .map(Sliced::into_output)
                                    }));
                                    match sliced {
                                        Ok(Ok(output)) => {
                                            if let Some(key) = key {
                                                sliced_in_batch.push((key, output.clone()));
                                            }
                                            Ok(output)
                                        }
                                        Ok(Err(e)) => Err(AdmitError::Trial(e)),
                                        Err(_) => {
                                            pipeline = attach(Pipeline::new(&scenario));
                                            Err(AdmitError::WorkerFailed { stage: "slice" })
                                        }
                                    }
                                }
                            };
                            let seq = job.seq;
                            let shipped = tx.send(CoordJob::Admit {
                                seq,
                                id: job.id,
                                graph: job.graph,
                                origin: job.origin,
                                accepted: job.accepted,
                                output,
                            });
                            if shipped.is_err() {
                                return;
                            }
                            // Queue-race injection: redeliver the sequence.
                            // The channel is FIFO per sender, so the real
                            // job above always lands first and the
                            // coordinator's dedup guard must discard this
                            // one.
                            if fault_fires(&fault, FaultSite::AdmitQueueRace, system_size, seq, 0)
                                && tx.send(CoordJob::Duplicate { seq }).is_err()
                            {
                                return;
                            }
                        }
                    }
                })
                .map_err(|e| AdmitError::Trial(RunError::Io(e)))?;
            workers.push(worker);
        }

        let coordinator = std::thread::Builder::new()
            .name("admit-coordinator".into())
            .spawn(move || Self::coordinate(controller, coord_rx))
            .map_err(|e| AdmitError::Trial(RunError::Io(e)))?;

        Ok(AdmissionService {
            ingress,
            coord: coord_tx,
            seq: Mutex::new(0),
            depth,
            workers,
            coordinator,
        })
    }

    /// Enqueues a request without blocking: admits go to the slicer pool,
    /// amendments straight to the coordinator (they need the resident
    /// graph, which only the coordinator holds). Both carry the same
    /// submission sequence, so processing order is exactly submission
    /// order regardless of which worker finishes first.
    ///
    /// # Errors
    ///
    /// [`AdmitError::QueueFull`] when the bounded queue is full (the
    /// request was not accepted; the caller may retry) and
    /// [`AdmitError::ServiceStopped`] after shutdown began.
    pub fn submit(&self, request: AdmitRequest) -> Result<(), AdmitError> {
        let mut seq = match self.seq.lock() {
            Ok(seq) => seq,
            Err(_) => return Err(AdmitError::ServiceStopped),
        };
        fn refused<T>(depth: usize) -> impl Fn(TrySendError<T>) -> AdmitError {
            move |e| match e {
                TrySendError::Full(_) => AdmitError::QueueFull { depth },
                TrySendError::Disconnected(_) => AdmitError::ServiceStopped,
            }
        }
        let accepted = Instant::now();
        match request {
            AdmitRequest::Admit { id, graph, origin } => self
                .ingress
                .try_send(WorkerJob {
                    seq: *seq,
                    id,
                    graph,
                    origin,
                    accepted,
                })
                .map_err(refused(self.depth))?,
            AdmitRequest::Amend { id, delta } => self
                .coord
                .try_send(CoordJob::Amend {
                    seq: *seq,
                    id,
                    delta,
                    accepted,
                })
                .map_err(refused(self.depth))?,
        }
        // A sequence number is consumed only by an accepted request, so
        // the coordinator's reorder buffer never waits on a hole.
        *seq += 1;
        Ok(())
    }

    /// Stops accepting requests, drains everything already accepted, and
    /// returns the service's transcript.
    ///
    /// # Errors
    ///
    /// [`AdmitError::ServiceStopped`] if a worker or the coordinator
    /// panicked.
    pub fn shutdown(self) -> Result<AdmissionLog, AdmitError> {
        let AdmissionService {
            ingress,
            coord,
            seq: _,
            workers,
            coordinator,
            ..
        } = self;
        drop(ingress);
        for worker in workers {
            if worker.join().is_err() {
                return Err(AdmitError::ServiceStopped);
            }
        }
        drop(coord);
        coordinator.join().map_err(|_| AdmitError::ServiceStopped)
    }

    /// The coordinator: re-orders jobs into submission sequence and runs
    /// every decision serially on the single controller.
    fn coordinate(mut controller: AdmissionController, rx: Receiver<CoordJob>) -> AdmissionLog {
        let mut next = 0u64;
        let mut reorder: BTreeMap<u64, CoordJob> = BTreeMap::new();
        let mut log = AdmissionLog::default();
        while let Ok(job) = rx.recv() {
            // Dedup guard: each sequence is processed exactly once. A
            // redelivery — the injected queue race, or any future retry
            // path — is dropped whether its twin is already processed
            // (seq < next) or still waiting in the reorder buffer.
            let seq = job.seq();
            if matches!(job, CoordJob::Duplicate { .. }) || seq < next || reorder.contains_key(&seq)
            {
                tracing::warn!(seq = seq, "dropping duplicate coordinator delivery");
                continue;
            }
            reorder.insert(seq, job);
            while let Some(job) = reorder.remove(&next) {
                Self::process(&mut controller, job, &mut log);
                next += 1;
            }
        }
        // Senders are gone; every accepted sequence has arrived.
        while let Some(job) = reorder.remove(&next) {
            Self::process(&mut controller, job, &mut log);
            next += 1;
        }
        log.digest = controller.digest();
        log.residents = controller.residents();
        log
    }

    fn process(controller: &mut AdmissionController, job: CoordJob, log: &mut AdmissionLog) {
        let budget = controller.config.decision_budget;
        match job {
            CoordJob::Admit {
                id,
                graph,
                origin,
                accepted,
                output,
                ..
            } => {
                // The coordinator re-checks the budget: slicing may have
                // been fast, but a request can also go stale waiting in
                // the reorder buffer behind a slow predecessor.
                let result = match output {
                    Ok(output) => match over_budget(budget, accepted) {
                        Some(waited_us) => Err(AdmitError::Shed { waited_us }),
                        None => controller.decide(id, &graph, origin, output),
                    },
                    Err(e) => Err(e),
                };
                let request = AdmitRequest::Admit { id, graph, origin };
                Self::record(controller, log, request, result, accepted);
            }
            CoordJob::Amend {
                id,
                delta,
                accepted,
                ..
            } => {
                let result = match over_budget(budget, accepted) {
                    Some(waited_us) => Err(AdmitError::Shed { waited_us }),
                    None => controller.amend_unsealed(id, &delta),
                };
                let request = AdmitRequest::Amend { id, delta };
                Self::record(controller, log, request, result, accepted);
            }
            CoordJob::Duplicate { .. } => {
                // Unreachable past the dedup guard; nothing to process.
            }
        }
    }

    /// Concludes one request on the coordinator: seals it (through the
    /// controller's choke point), counts it, and appends it to the
    /// transcript.
    fn record(
        controller: &mut AdmissionController,
        log: &mut AdmissionLog,
        request: AdmitRequest,
        result: Result<AdmitVerdict, AdmitError>,
        accepted: Instant,
    ) {
        let result = controller.conclude(&request, result);
        let outcome = AdmitOutcome::of(&result);
        match &outcome {
            AdmitOutcome::Shed { .. } => telemetry::global().count_admission_shed(),
            AdmitOutcome::Failed { .. } => telemetry::global().count_admission_worker_failed(),
            _ => telemetry::global().record_admission_sojourn(accepted.elapsed()),
        }
        log.requests.push(request);
        log.outcomes.push(outcome);
    }
}

/// The transcript of an admission run: every request and its outcome in
/// submission order, plus the final committed-state fingerprint.
///
/// The log is the service's determinism witness:
/// [`replay`](AdmissionLog::replay) re-runs the requests through a fresh
/// *sequential* controller and must reproduce the service's verdicts and
/// digest bit for bit ([`matches`](AdmissionLog::matches)).
#[derive(Debug, Default)]
pub struct AdmissionLog {
    /// Every accepted request, in submission order.
    pub requests: Vec<AdmitRequest>,
    /// The outcome of each request, aligned with
    /// [`requests`](AdmissionLog::requests).
    pub outcomes: Vec<AdmitOutcome>,
    /// Content digest of the final committed state.
    pub digest: u64,
    /// Residents still committed at the end of the run.
    pub residents: usize,
}

impl AdmissionLog {
    /// Number of admitted requests.
    pub fn admitted(&self) -> usize {
        self.verdicts().filter(|v| v.admitted).count()
    }

    /// Number of rejected requests (successful trials that missed).
    pub fn rejected(&self) -> usize {
        self.verdicts().filter(|v| !v.admitted).count()
    }

    /// Number of requests shed over their decision budget.
    pub fn shed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, AdmitOutcome::Shed { .. }))
            .count()
    }

    /// Number of requests lost to worker failures.
    pub fn failed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, AdmitOutcome::Failed { .. }))
            .count()
    }

    /// Number of deterministic typed refusals.
    pub fn refused(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, AdmitOutcome::Refused(_)))
            .count()
    }

    /// Number of requests refused by the feasibility pre-filter (a subset
    /// of [`refused`](AdmissionLog::refused)).
    pub fn prefilter_rejected(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, AdmitOutcome::Refused(Refusal::Prefilter { .. })))
            .count()
    }

    /// The completed verdicts, in submission order.
    pub fn verdicts(&self) -> impl Iterator<Item = &AdmitVerdict> {
        self.outcomes.iter().filter_map(AdmitOutcome::verdict)
    }

    /// Re-runs this log's requests through a fresh sequential
    /// [`AdmissionController`] and returns the resulting log. Determinism
    /// means the result [`matches`](AdmissionLog::matches) `self`.
    ///
    /// Environmental outcomes (shed, worker failure) are copied verbatim —
    /// they are artifacts of queue timing and faults, not of the request
    /// sequence, and they conclude a request before any state mutation, so
    /// skipping their (never-run) trials preserves every later verdict.
    /// The replay runs in memory only, even when `config` names a WAL.
    ///
    /// # Errors
    ///
    /// Exactly those of [`AdmissionController::new`]; per-request failures
    /// are recorded in the returned log, not raised.
    pub fn replay(&self, config: &AdmitConfig) -> Result<AdmissionLog, AdmitError> {
        let mut replay_config = config.clone();
        replay_config.wal_path = None;
        let mut controller = AdmissionController::new(replay_config)?;
        let mut log = AdmissionLog {
            requests: self.requests.clone(),
            ..AdmissionLog::default()
        };
        for (request, recorded) in log.requests.iter().zip(self.outcomes.iter()) {
            let outcome = if recorded.is_environmental() {
                recorded.clone()
            } else {
                AdmitOutcome::of(&controller.handle(request))
            };
            log.outcomes.push(outcome);
        }
        log.digest = controller.digest();
        log.residents = controller.residents();
        Ok(log)
    }

    /// Whether two logs recorded identical outcomes and final state —
    /// the bit-identical replay check.
    pub fn matches(&self, other: &AdmissionLog) -> bool {
        self.outcomes == other.outcomes
            && self.digest == other.digest
            && self.residents == other.residents
    }
}

#[cfg(test)]
mod tests {
    use std::fs::OpenOptions;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use slicing::{CommEstimate, DeltaOp, MetricKind};
    use taskgraph::gen::{generate_seeded, ExecVariation, WorkloadSpec};
    use taskgraph::SubtaskId;

    use crate::sealed_log::tests::{seal, FlakyFile};
    use crate::Runner;

    use super::*;

    /// A fresh temp-file path; the file is removed by Drop.
    struct TempPath(PathBuf);

    impl TempPath {
        fn new(tag: &str) -> TempPath {
            static COUNTER: AtomicUsize = AtomicUsize::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            TempPath(std::env::temp_dir().join(format!(
                "feast-admission-{tag}-{}-{n}.jsonl",
                std::process::id()
            )))
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    fn spec() -> WorkloadSpec {
        WorkloadSpec::paper(ExecVariation::Mdet)
    }

    fn config(size: usize) -> AdmitConfig {
        let scenario = Scenario::paper("ADM/TEST", spec(), MetricKind::adapt(), CommEstimate::Ccne);
        AdmitConfig::new(scenario, size)
    }

    fn graph(seed: u64) -> Arc<TaskGraph> {
        Arc::new(generate_seeded(&spec(), seed).expect("paper workloads generate"))
    }

    #[test]
    fn admit_commits_and_reject_leaves_no_trace() {
        let mut controller = AdmissionController::new(config(8)).unwrap();
        let idle = controller.digest();

        let first = controller.admit(1, graph(1), Time::ZERO).unwrap();
        assert!(first.admitted, "paper workload fits an idle platform");
        assert_eq!(controller.residents(), 1);
        let loaded = controller.digest();
        assert_ne!(loaded, idle);

        // Pile on admissions at the same origin until one is rejected:
        // the rejection must leave the committed state bit-identical.
        let mut id = 2;
        loop {
            let before = controller.digest();
            let verdict = controller.admit(id, graph(id), Time::ZERO).unwrap();
            if !verdict.admitted {
                assert_eq!(controller.digest(), before, "reject left a trace");
                assert_eq!(controller.residents() as u64, id - 1);
                break;
            }
            id += 1;
            assert!(id < 100, "platform never saturated");
        }
    }

    #[test]
    fn residents_retire_once_the_clock_passes_their_horizon() {
        let mut controller = AdmissionController::new(config(8)).unwrap();
        let first = controller.admit(1, graph(3), Time::ZERO).unwrap();
        assert!(first.admitted);

        // A later arrival past the first graph's horizon retires it; the
        // platform is effectively idle again, so the digest after both
        // depart matches a fresh admit at that origin.
        let origin = first.makespan + Time::new(1);
        let second = controller.admit(2, graph(3), origin).unwrap();
        assert!(second.admitted);
        assert_eq!(controller.residents(), 1);
        assert!(!controller.is_resident(1));
        assert_eq!(second.max_lateness, first.max_lateness);

        let mut fresh = AdmissionController::new(config(8)).unwrap();
        fresh.admit(2, graph(3), origin).unwrap();
        assert_eq!(controller.digest(), fresh.digest());
    }

    #[test]
    fn duplicate_resident_id_is_refused() {
        let mut controller = AdmissionController::new(config(8)).unwrap();
        assert!(controller.admit(7, graph(1), Time::ZERO).unwrap().admitted);
        let digest = controller.digest();
        match controller.admit(7, graph(2), Time::ZERO) {
            Err(AdmitError::DuplicateId { id: 7 }) => {}
            other => panic!("expected DuplicateId, got {other:?}"),
        }
        assert_eq!(controller.digest(), digest);
    }

    #[test]
    fn capacity_bound_evicts_oldest_on_admit() {
        // Admit simultaneous graphs (no retirement at a common origin)
        // until the capacity bound forces an eviction on admit.
        let mut controller = AdmissionController::new(config(8).with_capacity(2)).unwrap();
        let mut admitted = Vec::new();
        for id in 1..32 {
            let verdict = controller.admit(id, graph(id), Time::ZERO).unwrap();
            if verdict.admitted {
                admitted.push(id);
            }
            if admitted.len() == 3 {
                break;
            }
        }
        assert_eq!(admitted.len(), 3, "8 processors should admit 3 graphs");
        assert_eq!(controller.residents(), 2);
        assert!(
            !controller.is_resident(admitted[0]),
            "oldest resident evicted"
        );
        assert!(controller.is_resident(admitted[1]));
        assert!(controller.is_resident(admitted[2]));
    }

    #[test]
    fn amend_repairs_in_place_and_matches_a_fresh_controller() {
        let delta = GraphDelta::new().push(DeltaOp::SetWcet {
            subtask: SubtaskId::new(2),
            wcet: Time::new(25),
        });

        let mut controller = AdmissionController::new(config(8)).unwrap();
        assert!(controller.admit(1, graph(5), Time::ZERO).unwrap().admitted);
        let amended = controller.amend(1, &delta).unwrap();
        assert!(
            amended.repaired,
            "latest-commit amendment takes the repair fast path"
        );

        // A fresh controller admitting the amended graph directly must
        // land on the identical committed state and lateness.
        let pinning = platform::Pinning::new();
        let applied = delta.apply(&graph(5), &pinning).unwrap();
        let mut fresh = AdmissionController::new(config(8)).unwrap();
        let direct = fresh.admit(1, applied.graph, Time::ZERO).unwrap();
        assert_eq!(controller.digest(), fresh.digest());
        assert_eq!(amended.admitted, direct.admitted);
        assert_eq!(amended.max_lateness, direct.max_lateness);
        assert_eq!(amended.makespan, direct.makespan);
    }

    #[test]
    fn amend_after_a_newer_commit_falls_back_but_stays_exact() {
        let delta = GraphDelta::new().push(DeltaOp::SetWcet {
            subtask: SubtaskId::new(1),
            wcet: Time::new(30),
        });

        let mut controller = AdmissionController::new(config(8)).unwrap();
        assert!(controller.admit(1, graph(5), Time::ZERO).unwrap().admitted);
        assert!(controller.admit(2, graph(6), Time::ZERO).unwrap().admitted);
        // Resident 1 is no longer the latest commit: rollback is
        // impossible, so the amendment releases and re-trials in full.
        let amended = controller.amend(1, &delta).unwrap();
        assert!(!amended.repaired);

        // The fallback path is still deterministic: a fresh controller
        // handling the identical request sequence lands on the identical
        // verdict and committed state.
        let mut fresh = AdmissionController::new(config(8)).unwrap();
        fresh.admit(1, graph(5), Time::ZERO).unwrap();
        fresh.admit(2, graph(6), Time::ZERO).unwrap();
        let replayed = fresh.amend(1, &delta).unwrap();
        assert_eq!(amended, replayed);
        assert_eq!(controller.digest(), fresh.digest());
    }

    #[test]
    fn amend_unknown_resident_is_refused_without_mutation() {
        let mut controller = AdmissionController::new(config(4)).unwrap();
        assert!(controller.admit(1, graph(1), Time::ZERO).unwrap().admitted);
        let digest = controller.digest();
        let delta = GraphDelta::new().push(DeltaOp::SetWcet {
            subtask: SubtaskId::new(0),
            wcet: Time::new(9),
        });
        match controller.amend(99, &delta) {
            Err(AdmitError::NoResident { id: 99 }) => {}
            other => panic!("expected NoResident, got {other:?}"),
        }
        assert_eq!(controller.digest(), digest);
    }

    #[test]
    fn service_matches_sequential_replay() {
        let config = config(8).with_workers(3).with_queue_depth(64);
        let service = AdmissionService::new(config.clone()).unwrap();
        for id in 0..12 {
            service
                .submit(AdmitRequest::Admit {
                    id,
                    graph: graph(id + 1),
                    origin: Time::new(i64::try_from(id).unwrap() * 500),
                })
                .unwrap();
        }
        let log = service.shutdown().unwrap();
        assert_eq!(log.outcomes.len(), 12);
        assert!(log.admitted() > 0);

        let replayed = log.replay(&config).unwrap();
        assert!(log.matches(&replayed), "service diverged from replay");
    }

    #[test]
    fn service_amendments_keep_submission_order() {
        let config = config(8).with_workers(2);
        let service = AdmissionService::new(config.clone()).unwrap();
        service
            .submit(AdmitRequest::Admit {
                id: 1,
                graph: graph(5),
                origin: Time::ZERO,
            })
            .unwrap();
        // The amendment is submitted while the admit may still be slicing
        // on a worker; sequence ordering must hold it back regardless.
        service
            .submit(AdmitRequest::Amend {
                id: 1,
                delta: GraphDelta::new().push(DeltaOp::SetWcet {
                    subtask: SubtaskId::new(3),
                    wcet: Time::new(40),
                }),
            })
            .unwrap();
        let log = service.shutdown().unwrap();
        assert_eq!(log.outcomes.len(), 2);
        assert!(
            log.outcomes[1].verdict().is_some(),
            "amend found its resident"
        );
        let replayed = log.replay(&config).unwrap();
        assert!(log.matches(&replayed));
    }

    #[test]
    fn durable_controller_recovers_bit_identical() {
        let wal = TempPath::new("recover");
        let delta = GraphDelta::new().push(DeltaOp::SetWcet {
            subtask: SubtaskId::new(2),
            wcet: Time::new(25),
        });

        let mut durable = AdmissionController::new(config(8).durable(&wal.0)).unwrap();
        for id in 1..6 {
            durable.admit(id, graph(id), Time::ZERO).unwrap();
        }
        durable.amend(1, &delta).unwrap();
        // A deterministic refusal is sealed too.
        assert!(matches!(
            durable.admit(1, graph(9), Time::ZERO),
            Err(AdmitError::DuplicateId { id: 1 })
        ));
        let digest = durable.digest();
        let residents = durable.residents();
        drop(durable); // crash stand-in: recovery reads only the file

        let (recovered, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
        assert_eq!(recovered.digest(), digest, "recovered state diverged");
        assert_eq!(recovered.residents(), residents);
        assert_eq!(log.outcomes.len(), 7);
        assert_eq!(log.refused(), 1);
        let replayed = log.replay(&config(8)).unwrap();
        assert!(log.matches(&replayed));
    }

    #[test]
    fn recovered_controller_keeps_appending_to_the_same_log() {
        let wal = TempPath::new("reattach");
        let mut durable = AdmissionController::new(config(8).durable(&wal.0)).unwrap();
        durable.admit(1, graph(1), Time::ZERO).unwrap();
        drop(durable);

        let (mut recovered, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
        assert_eq!(log.outcomes.len(), 1);
        recovered.admit(2, graph(2), Time::ZERO).unwrap();
        let digest = recovered.digest();
        drop(recovered);

        let (again, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
        assert_eq!(log.outcomes.len(), 2, "post-recovery admit was sealed");
        assert_eq!(again.digest(), digest);
    }

    #[test]
    fn recovery_tolerates_a_torn_final_line() {
        let wal = TempPath::new("torn");
        let mut durable = AdmissionController::new(config(8).durable(&wal.0)).unwrap();
        for id in 1..5 {
            durable.admit(id, graph(id), Time::ZERO).unwrap();
        }
        drop(durable);
        let (intact, _) = AdmissionController::recover(config(8), &wal.0).unwrap();
        let _ = intact;

        // Tear the final record mid-line, as a crash mid-append would.
        let text = std::fs::read_to_string(&wal.0).unwrap();
        let torn = &text[..text.len() - 17];
        std::fs::write(&wal.0, torn).unwrap();

        let (recovered, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
        assert_eq!(log.outcomes.len(), 3, "torn record dropped, prefix kept");
        let mut fresh = AdmissionController::new(config(8)).unwrap();
        for id in 1..4 {
            fresh.admit(id, graph(id), Time::ZERO).unwrap();
        }
        assert_eq!(recovered.digest(), fresh.digest());
    }

    #[test]
    fn appends_after_torn_tail_recovery_do_not_merge_with_the_fragment() {
        let wal = TempPath::new("torn-append");
        let mut durable = AdmissionController::new(config(8).durable(&wal.0)).unwrap();
        for id in 1..5 {
            durable.admit(id, graph(id), Time::ZERO).unwrap();
        }
        drop(durable);

        // Tear the final record mid-line, recover, and keep appending:
        // the fragment must be truncated, not fused with the new record.
        let text = std::fs::read_to_string(&wal.0).unwrap();
        std::fs::write(&wal.0, &text[..text.len() - 17]).unwrap();
        let (mut recovered, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
        assert_eq!(log.outcomes.len(), 3);
        recovered.admit(9, graph(9), Time::ZERO).unwrap();
        let digest = recovered.digest();
        drop(recovered);

        let (again, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
        assert_eq!(log.outcomes.len(), 4, "post-recovery admit sealed cleanly");
        assert_eq!(again.digest(), digest);
    }

    #[test]
    fn appends_after_a_missing_final_newline_start_a_fresh_line() {
        let wal = TempPath::new("unterminated");
        let mut durable = AdmissionController::new(config(8).durable(&wal.0)).unwrap();
        durable.admit(1, graph(1), Time::ZERO).unwrap();
        durable.admit(2, graph(2), Time::ZERO).unwrap();
        drop(durable);

        // Strip only the trailing newline: the final record is intact and
        // must be kept — and the next append must restore the terminator
        // rather than writing onto the same line.
        let text = std::fs::read_to_string(&wal.0).unwrap();
        assert!(text.ends_with('\n'));
        std::fs::write(&wal.0, &text[..text.len() - 1]).unwrap();
        let (mut recovered, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
        assert_eq!(log.outcomes.len(), 2, "unterminated final record kept");
        recovered.admit(3, graph(3), Time::ZERO).unwrap();
        let digest = recovered.digest();
        drop(recovered);

        let (again, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
        assert_eq!(log.outcomes.len(), 3);
        assert_eq!(again.digest(), digest);
    }

    /// One WAL line of each kind: a `Graph` line, then one record per
    /// request kind × outcome kind — admit (referencing that graph) and
    /// amend requests, each concluded as an admit verdict, a reject
    /// verdict, a refusal, a shed and a worker failure.
    fn every_kind_of_wal_record() -> Vec<WalEntry> {
        let verdict = |admitted| AdmitVerdict {
            id: 4,
            admitted,
            max_lateness: Time::new(-7),
            end_to_end: Time::new(if admitted { -3 } else { 12 }),
            makespan: Time::new(480),
            violations: 0,
            repaired: !admitted,
            residents: 3,
        };
        let outcomes = [
            AdmitOutcome::Verdict(verdict(true)),
            AdmitOutcome::Verdict(verdict(false)),
            AdmitOutcome::Refused(Refusal::DuplicateId { id: 4 }),
            AdmitOutcome::Shed { waited_us: 1234 },
            AdmitOutcome::Failed {
                stage: "distribute".to_owned(),
            },
        ];
        let requests = [
            SealedRequest::Admit {
                id: 4,
                graph: 0,
                origin: Time::new(300),
            },
            SealedRequest::Amend {
                id: 4,
                delta: GraphDelta::new().push(DeltaOp::SetWcet {
                    subtask: SubtaskId::new(2),
                    wcet: Time::new(25),
                }),
            },
        ];
        let mut entries = vec![WalEntry::Graph(WalGraph {
            g: 0,
            graph: graph(4),
        })];
        let mut seq = 0;
        for request in &requests {
            for outcome in &outcomes {
                entries.push(WalEntry::Sealed(WalRecord {
                    seq,
                    request: request.clone(),
                    outcome: outcome.clone(),
                    digest: 0xFEA5_7000 + seq,
                }));
                seq += 1;
            }
        }
        entries
    }

    /// The admission log line format as a derived serde enum: the oracle
    /// [`sealed_line`] and the header [`Appender::create`] writes must
    /// match byte for byte.
    #[derive(Serialize)]
    enum WalLine {
        Header { fingerprint: u64, label: String },
        Graph { crc: u32, record: WalGraph },
        Sealed { crc: u32, record: WalRecord },
    }

    impl WalLine {
        /// The derived encoding of `entry`.
        fn of(entry: &WalEntry) -> String {
            let line = match entry.clone() {
                WalEntry::Graph(record) => WalLine::Graph {
                    crc: seal(&record),
                    record,
                },
                WalEntry::Sealed(record) => WalLine::Sealed {
                    crc: seal(&record),
                    record,
                },
            };
            serde_json::to_string(&line).unwrap()
        }
    }

    #[test]
    fn sealed_line_equals_the_derived_wal_encoding() {
        let wal = TempPath::new("header");
        AdmissionController::new(config(8).durable(&wal.0)).unwrap();
        let derived = WalLine::Header {
            fingerprint: wal_fingerprint(&config(8)),
            label: "ADM/TEST".to_owned(),
        };
        assert_eq!(
            std::fs::read_to_string(&wal.0).unwrap(),
            serde_json::to_string(&derived).unwrap() + "\n"
        );
        for entry in every_kind_of_wal_record() {
            let sealed = match &entry {
                WalEntry::Graph(graph) => sealed_line("Graph", graph),
                WalEntry::Sealed(record) => sealed_line("Sealed", record),
            };
            assert_eq!(sealed, WalLine::of(&entry), "{entry:?}");
        }
    }

    #[test]
    fn admit_requests_serialize_their_graph_inline() {
        // `Arc` is transparent: an admit request encodes its whole graph
        // in place, so a transcript is self-contained. (The WAL seals
        // the graph once on a `Graph` line instead; see `SealedRequest`.)
        let shared = graph(5);
        let request = AdmitRequest::Admit {
            id: 5,
            graph: Arc::clone(&shared),
            origin: Time::new(40),
        };
        let expected = format!(
            r#"{{"Admit":{{"id":5,"graph":{},"origin":{}}}}}"#,
            serde_json::to_string(&*shared).unwrap(),
            serde_json::to_string(&Time::new(40)).unwrap()
        );
        let text = serde_json::to_string(&request).unwrap();
        assert_eq!(text, expected);
        assert_eq!(
            serde_json::from_str::<AdmitRequest>(&text).unwrap(),
            request
        );
    }

    /// A durable controller's log after admits, an amendment, a reject
    /// and a refusal; returns the final digest.
    fn write_mixed_log(path: &Path) -> u64 {
        let mut durable = AdmissionController::new(config(8).durable(path)).unwrap();
        let mut id = 1;
        while durable.admit(id, graph(id), Time::ZERO).unwrap().admitted {
            id += 1;
            assert!(id < 100, "platform never saturated");
        }
        durable
            .amend(
                1,
                &GraphDelta::new().push(DeltaOp::SetWcet {
                    subtask: SubtaskId::new(2),
                    wcet: Time::new(25),
                }),
            )
            .unwrap();
        // A refused admit of an unseen graph still seals it: every admit
        // record references a graph, whatever its outcome.
        assert!(durable.admit(1, graph(99), Time::ZERO).is_err());
        durable.digest()
    }

    /// The number of lines of `path` that start with `{"<tag>"`.
    fn lines_tagged(path: &Path, tag: &str) -> usize {
        let prefix = format!("{{\"{tag}\"");
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .filter(|line| line.starts_with(&prefix))
            .count()
    }

    #[test]
    fn a_log_written_through_the_derived_encoding_recovers_bit_identically() {
        let wal = TempPath::new("derived-written");
        let digest = write_mixed_log(&wal.0);
        let written = std::fs::read(&wal.0).unwrap();

        // Re-encode the log through the derived `WalLine` encoder: each
        // graph on a `Graph` line just before the first record naming it
        // (both went out in one append), every admit by that ordinal.
        let header = written.split(|&b| b == b'\n').next().unwrap();
        let mut derived = header.to_vec();
        derived.push(b'\n');
        let loaded = AdmissionWal::load(&wal.0, &config(8)).unwrap();
        let mut sealed = 0;
        for record in &loaded.records {
            let request = match &record.request {
                AdmitRequest::Admit { id, graph, origin } => {
                    let g = loaded
                        .graphs
                        .iter()
                        .position(|sealed| Arc::ptr_eq(sealed, graph))
                        .expect("a loaded admit shares its graph's allocation");
                    if g == sealed {
                        let line = WalLine::of(&WalEntry::Graph(WalGraph {
                            g: g as u64,
                            graph: Arc::clone(graph),
                        }));
                        derived.extend_from_slice(line.as_bytes());
                        derived.push(b'\n');
                        sealed += 1;
                    }
                    SealedRequest::Admit {
                        id: *id,
                        graph: g as u64,
                        origin: *origin,
                    }
                }
                AdmitRequest::Amend { id, delta } => SealedRequest::Amend {
                    id: *id,
                    delta: delta.clone(),
                },
            };
            let line = WalLine::of(&WalEntry::Sealed(WalRecord {
                seq: record.seq,
                request,
                outcome: record.outcome.clone(),
                digest: record.digest,
            }));
            derived.extend_from_slice(line.as_bytes());
            derived.push(b'\n');
        }
        assert_eq!(sealed, loaded.graphs.len(), "every graph sealed once");
        assert_eq!(derived, written, "the log format changed");

        let old = TempPath::new("derived-old");
        std::fs::write(&old.0, &derived).unwrap();
        let (recovered, log) = AdmissionController::recover(config(8), &old.0).unwrap();
        assert_eq!(recovered.digest(), digest);
        assert_eq!(log.outcomes.len(), loaded.records.len());
        assert!(log.matches(&log.replay(&config(8)).unwrap()));
    }

    #[test]
    fn each_distinct_graph_is_sealed_once() {
        let wal = TempPath::new("graph-once");
        let mut durable = AdmissionController::new(config(8).durable(&wal.0)).unwrap();
        let shared = graph(1);
        let equal = Arc::new((*shared).clone());
        assert!(!Arc::ptr_eq(&shared, &equal));
        let mut requests = vec![
            (1, Arc::clone(&shared)),
            (2, Arc::clone(&shared)),
            // Equal content in a distinct allocation: the hash filter and
            // the equality witness find it.
            (3, equal),
            (4, graph(2)),
            // A refused admit references its graph too.
            (4, Arc::clone(&shared)),
        ];
        for (id, graph) in &requests {
            let _ = durable.admit(*id, Arc::clone(graph), Time::new(*id as i64 * 50));
        }
        let digest = durable.digest();
        drop(durable);

        assert_eq!(lines_tagged(&wal.0, "Graph"), 2);
        assert_eq!(lines_tagged(&wal.0, "Sealed"), requests.len());
        let loaded = AdmissionWal::load(&wal.0, &config(8)).unwrap();
        let ordinals: Vec<usize> = loaded
            .records
            .iter()
            .map(|record| match &record.request {
                AdmitRequest::Admit { graph, .. } => loaded
                    .graphs
                    .iter()
                    .position(|sealed| Arc::ptr_eq(sealed, graph))
                    .unwrap(),
                AdmitRequest::Amend { .. } => unreachable!("no amendments here"),
            })
            .collect();
        assert_eq!(ordinals, [0, 0, 0, 1, 0]);

        let (recovered, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
        assert_eq!(recovered.digest(), digest);
        let sent: Vec<AdmitRequest> = requests
            .drain(..)
            .map(|(id, graph)| AdmitRequest::Admit {
                id,
                origin: Time::new(id as i64 * 50),
                graph,
            })
            .collect();
        assert_eq!(log.requests, sent);
    }

    /// A two-subtask chain whose head runs `wcet`: distinct `wcet`s give
    /// distinct graphs that are cheap to slice.
    fn chain(wcet: i64) -> Arc<TaskGraph> {
        let mut b = taskgraph::TaskGraphBuilder::new();
        let head = b.add_subtask(taskgraph::Subtask::new(Time::new(wcet)).released_at(Time::ZERO));
        let tail = b.add_subtask(taskgraph::Subtask::new(Time::new(1)).due_at(Time::new(5_000)));
        b.add_edge(head, tail, 1).unwrap();
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn graphs_cycled_past_the_table_are_resealed_and_recover_bit_identically() {
        let wal = TempPath::new("graph-cycle");
        let mut durable = AdmissionController::new(config(8).durable(&wal.0)).unwrap();
        let distinct = SEALED_GRAPHS as i64 + 8;
        let mut id = 0u64;
        let mut admit = |durable: &mut AdmissionController, wcet: i64| {
            // Arrivals far apart: each resident retires before the next.
            let origin = Time::new(id as i64 * 10_000);
            durable.admit(id, chain(wcet), origin).unwrap();
            id += 1;
        };
        // Two passes over more distinct graphs than the table holds, each
        // admit in a fresh allocation: every graph has left the table by
        // its second use, so the second pass seals each one again.
        for _ in 0..2 {
            for wcet in 1..=distinct {
                admit(&mut durable, wcet);
            }
        }
        assert_eq!(lines_tagged(&wal.0, "Graph"), 2 * distinct as usize);
        // The graph used last is still in the table: referenced, not
        // sealed again.
        admit(&mut durable, distinct);
        assert_eq!(lines_tagged(&wal.0, "Graph"), 2 * distinct as usize);
        let digest = durable.digest();
        drop(durable);

        let (recovered, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
        assert_eq!(recovered.digest(), digest);
        assert_eq!(log.outcomes.len(), 2 * distinct as usize + 1);
        let expected: Vec<AdmitRequest> = (0..2 * distinct + 1)
            .map(|i| AdmitRequest::Admit {
                id: i as u64,
                graph: chain(if i < 2 * distinct {
                    i % distinct + 1
                } else {
                    distinct
                }),
                origin: Time::new(i * 10_000),
            })
            .collect();
        assert_eq!(log.requests, expected);
        assert!(log.matches(&log.replay(&config(8)).unwrap()));
    }

    #[test]
    fn a_torn_graph_and_record_tail_recovers_and_resumes_twice() {
        for torn_line in ["Graph", "Sealed"] {
            let wal = TempPath::new("torn-graph");
            let mut durable = AdmissionController::new(config(8).durable(&wal.0)).unwrap();
            durable.admit(1, graph(1), Time::ZERO).unwrap();
            durable.admit(2, graph(2), Time::ZERO).unwrap();
            drop(durable);

            // The last append wrote graph(2)'s `Graph` line and its
            // record together; a kill tears one of the two lines.
            let text = std::fs::read_to_string(&wal.0).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            let (graph_line, record_line) = (lines[lines.len() - 2], lines[lines.len() - 1]);
            assert!(graph_line.starts_with("{\"Graph\""));
            assert!(record_line.starts_with("{\"Sealed\""));
            let record_start = text.len() - record_line.len() - 1;
            let cut = match torn_line {
                "Graph" => record_start - graph_line.len() / 2,
                _ => record_start + record_line.len() / 2,
            };
            std::fs::write(&wal.0, &text[..cut]).unwrap();

            let (mut recovered, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
            assert_eq!(log.outcomes.len(), 1, "torn {torn_line} line");
            let mut fresh = AdmissionController::new(config(8)).unwrap();
            fresh.admit(1, graph(1), Time::ZERO).unwrap();
            assert_eq!(recovered.digest(), fresh.digest());

            // First resume: graph(2) again, in a new allocation. Its
            // intact `Graph` line is referenced; a torn one is resealed.
            recovered.admit(2, graph(2), Time::ZERO).unwrap();
            let digest = recovered.digest();
            drop(recovered);
            assert_eq!(lines_tagged(&wal.0, "Graph"), 2, "torn {torn_line} line");

            // Second resume, after a second recovery.
            let (mut again, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
            assert_eq!(log.outcomes.len(), 2);
            assert_eq!(again.digest(), digest);
            again.admit(3, graph(3), Time::ZERO).unwrap();
            let digest = again.digest();
            drop(again);

            let (last, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
            assert_eq!(log.outcomes.len(), 3);
            assert_eq!(last.digest(), digest);
            assert_eq!(lines_tagged(&wal.0, "Graph"), 3);
            assert!(log.matches(&log.replay(&config(8)).unwrap()));
        }
    }

    #[test]
    fn a_reference_to_an_unsealed_graph_is_corrupt() {
        let wal = TempPath::new("unsealed");
        AdmissionController::new(config(8).durable(&wal.0)).unwrap();
        let header = std::fs::read_to_string(&wal.0).unwrap();
        let admit = |graph| {
            sealed_line(
                "Sealed",
                &WalRecord {
                    seq: 0,
                    request: SealedRequest::Admit {
                        id: 1,
                        graph,
                        origin: Time::ZERO,
                    },
                    outcome: AdmitOutcome::Refused(Refusal::DuplicateId { id: 1 }),
                    digest: 0,
                },
            )
        };
        let stray = sealed_line(
            "Graph",
            &WalGraph {
                g: 1,
                graph: graph(1),
            },
        );
        for body in [
            // A record naming a graph no line sealed.
            admit(0),
            admit(u64::MAX),
            // A graph ordinal that skips 0.
            format!("{stray}\n{}", admit(1)),
        ] {
            std::fs::write(&wal.0, format!("{header}{body}\n")).unwrap();
            match AdmissionController::recover(config(8), &wal.0) {
                Err(AdmitError::Log(RunError::CheckpointCorrupt { .. })) => {}
                other => panic!("expected CheckpointCorrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_log_with_the_inline_graph_fingerprint_is_refused() {
        // The record shape and fingerprint of logs written before graphs
        // were sealed once: the whole graph inline in every record.
        #[derive(Serialize)]
        struct InlineRecord {
            seq: u64,
            request: AdmitRequest,
            outcome: AdmitOutcome,
            digest: u64,
        }
        let config = config(8);
        let inline_fingerprint = stream_seed(
            stream_seed(
                fingerprint(&config.scenario),
                stream_label(b"admission-wal"),
                config.system_size as u64,
                config.capacity as u64,
            ),
            stream_label(b"admission-wal-eviction"),
            stream_label(config.eviction.name().as_bytes()),
            0,
        );
        assert_ne!(inline_fingerprint, wal_fingerprint(&config));
        let header = WalHeader {
            fingerprint: inline_fingerprint,
            label: config.scenario.label.clone(),
        };
        let mut live = AdmissionController::new(config.clone()).unwrap();
        let request = AdmitRequest::Admit {
            id: 1,
            graph: graph(1),
            origin: Time::ZERO,
        };
        let outcome = AdmitOutcome::of(&live.handle(&request));
        let record = InlineRecord {
            seq: 0,
            request,
            outcome,
            digest: live.digest(),
        };
        let wal = TempPath::new("inline");
        std::fs::write(
            &wal.0,
            format!(
                "{{\"Header\":{}}}\n{}\n",
                serde_json::to_string(&header).unwrap(),
                sealed_line("Sealed", &record)
            ),
        )
        .unwrap();
        match AdmissionController::recover(config, &wal.0) {
            Err(AdmitError::Log(RunError::CheckpointMismatch { .. })) => {}
            other => panic!("expected a fingerprint mismatch, got {other:?}"),
        }
    }

    /// Writes the log `intact` minus its last append to `path`; returns
    /// that append (a record, or a `Graph` line and the record naming it).
    fn all_but_the_last_append<'a>(intact: &'a [u8], path: &Path) -> &'a [u8] {
        let line_start =
            |end: usize| intact[..end - 1].iter().rposition(|&b| b == b'\n').unwrap() + 1;
        let mut last_start = line_start(intact.len());
        let previous = line_start(last_start);
        if intact[previous..].starts_with(b"{\"Graph\"") {
            last_start = previous;
        }
        std::fs::write(path, &intact[..last_start]).unwrap();
        &intact[last_start..]
    }

    /// An appender over the log at `path` whose writes go through a
    /// [`FlakyFile`] tearing the first after 100 bytes, then failing
    /// `failures` times.
    fn flaky_appender(path: &Path, failures: u32) -> Appender<FlakyFile> {
        let file = OpenOptions::new().append(true).open(path).unwrap();
        let end = file.metadata().unwrap().len();
        let flaky = FlakyFile {
            file,
            prefix: Some(100),
            failures,
        };
        Appender::new(flaky, end)
    }

    #[test]
    fn a_retried_partial_write_seals_exactly_one_copy() {
        let wal = TempPath::new("partial-source");
        let digest = write_mixed_log(&wal.0);
        let intact = std::fs::read(&wal.0).unwrap();

        // Everything but the last append (a `Graph` line and its record),
        // then that append through a writer that tears it after 100 bytes
        // and fails once.
        let torn = TempPath::new("partial-torn");
        let last = all_but_the_last_append(&intact, &torn.0);
        let mut retries = 0;
        flaky_appender(&torn.0, 1)
            .append(last, |_| None, |_, _, _| retries += 1)
            .unwrap();

        assert_eq!(retries, 1);
        assert_eq!(
            std::fs::read(&torn.0).unwrap(),
            intact,
            "one copy, no fragment"
        );
        let (recovered, _) = AdmissionController::recover(config(8), &torn.0).unwrap();
        assert_eq!(recovered.digest(), digest);
    }

    #[test]
    fn an_append_that_exhausts_its_retries_leaves_no_fragment() {
        let wal = TempPath::new("exhausted-source");
        let digest = write_mixed_log(&wal.0);
        let intact = std::fs::read(&wal.0).unwrap();

        // The writer accepts 100 bytes of the last append (a `Graph` line
        // and its record), then fails the rest of the first attempt and
        // every retry.
        let torn = TempPath::new("exhausted-torn");
        let last = all_but_the_last_append(&intact, &torn.0);
        let before = std::fs::read(&torn.0).unwrap();
        let mut log = flaky_appender(&torn.0, Runner::CHECKPOINT_RETRY_LIMIT + 1);
        assert!(log.append(last, |_| None, |_, _, _| {}).is_err());
        assert_eq!(
            std::fs::read(&torn.0).unwrap(),
            before,
            "the fragment is cut back to the last sealed byte"
        );

        // The writer has recovered: the next append lands on a fresh line.
        log.append(last, |_| None, |_, _, _| {}).unwrap();
        assert_eq!(std::fs::read(&torn.0).unwrap(), intact);
        let (recovered, _) = AdmissionController::recover(config(8), &torn.0).unwrap();
        assert_eq!(recovered.digest(), digest);
    }

    #[test]
    fn wal_fingerprint_separates_capacity_from_eviction_policy() {
        // Craft a (capacity, policy) pair that would collide with the
        // base configuration if capacity and policy-name hash were XORed
        // into a single fingerprint input word.
        let oldest = stream_label(b"oldest-first");
        let lowest = stream_label(b"lowest-utilization");
        let base = config(8).with_capacity(16);
        let crafted = config(8)
            .with_capacity((16u64 ^ oldest ^ lowest) as usize)
            .with_eviction(LowestUtilization);
        assert_eq!(
            (base.capacity as u64) ^ oldest,
            (crafted.capacity as u64) ^ lowest,
            "the crafted pair must collide under the old XOR folding"
        );
        assert_ne!(wal_fingerprint(&base), wal_fingerprint(&crafted));
    }

    #[test]
    fn refusals_seal_stable_tags_not_rendered_messages() {
        let wal = TempPath::new("refusal");
        let mut durable = AdmissionController::new(config(8).durable(&wal.0)).unwrap();
        durable.admit(1, graph(1), Time::ZERO).unwrap();
        let refusal = durable.admit(1, graph(2), Time::ZERO).unwrap_err();
        drop(durable);

        // The WAL carries the structured refusal, never the Display
        // rendering — rewording an error message must not invalidate it.
        let text = std::fs::read_to_string(&wal.0).unwrap();
        assert!(
            !text.contains(&refusal.to_string()),
            "WAL sealed a rendered error message"
        );
        assert!(text.contains("DuplicateId"), "structured refusal missing");
        let (_, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
        assert_eq!(log.refused(), 1);
        assert_eq!(
            log.outcomes[1],
            AdmitOutcome::Refused(Refusal::DuplicateId { id: 1 })
        );
    }

    #[test]
    fn recovery_refuses_a_mismatching_configuration() {
        let wal = TempPath::new("mismatch");
        let mut durable = AdmissionController::new(config(8).durable(&wal.0)).unwrap();
        durable.admit(1, graph(1), Time::ZERO).unwrap();
        drop(durable);

        match AdmissionController::recover(config(4), &wal.0) {
            Err(AdmitError::Log(RunError::CheckpointMismatch { .. })) => {}
            other => panic!("expected a fingerprint mismatch, got {other:?}"),
        }
        match AdmissionController::recover(config(8).with_eviction(LowestUtilization), &wal.0) {
            Err(AdmitError::Log(RunError::CheckpointMismatch { .. })) => {}
            other => panic!("expected an eviction-policy mismatch, got {other:?}"),
        }
    }

    #[test]
    fn recovery_rejects_mid_file_corruption() {
        let wal = TempPath::new("corrupt");
        let mut durable = AdmissionController::new(config(8).durable(&wal.0)).unwrap();
        for id in 1..4 {
            durable.admit(id, graph(id), Time::ZERO).unwrap();
        }
        drop(durable);

        // Flip a digit inside the *second* record (not the final line, so
        // the torn-tail tolerance must not apply).
        let text = std::fs::read_to_string(&wal.0).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let target = &mut lines[2];
        let pos = target
            .char_indices()
            .position(|(_, c)| c.is_ascii_digit())
            .expect("record contains digits");
        let original = target.as_bytes()[pos];
        let flipped = if original == b'9' { b'0' } else { original + 1 };
        target.replace_range(pos..=pos, std::str::from_utf8(&[flipped]).unwrap());
        std::fs::write(&wal.0, lines.join("\n") + "\n").unwrap();

        match AdmissionController::recover(config(8), &wal.0) {
            Err(AdmitError::Log(RunError::CheckpointCorrupt { .. })) => {}
            other => panic!("expected CheckpointCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn lowest_utilization_policy_picks_the_idlest_resident() {
        let candidates = vec![
            EvictionCandidate {
                id: 1,
                seniority: 0,
                origin: Time::ZERO,
                horizon: Time::new(100),
                busy: Time::new(90),
            },
            EvictionCandidate {
                id: 2,
                seniority: 1,
                origin: Time::ZERO,
                horizon: Time::new(100),
                busy: Time::new(10),
            },
            EvictionCandidate {
                id: 3,
                seniority: 2,
                origin: Time::ZERO,
                horizon: Time::new(100),
                busy: Time::new(50),
            },
        ];
        assert_eq!(OldestFirst.victim(&candidates), 1);
        assert_eq!(LowestUtilization.victim(&candidates), 2);
        // Ties break oldest-first: equal utilization, distinct
        // seniorities — the lower seniority must win regardless of
        // candidate order.
        let tied = vec![
            EvictionCandidate {
                id: 7,
                seniority: 3,
                origin: Time::ZERO,
                horizon: Time::new(100),
                busy: Time::new(10),
            },
            EvictionCandidate {
                id: 8,
                seniority: 1,
                origin: Time::ZERO,
                horizon: Time::new(100),
                busy: Time::new(10),
            },
        ];
        assert_eq!(LowestUtilization.victim(&tied), 8);
        let reversed: Vec<_> = tied.iter().rev().copied().collect();
        assert_eq!(LowestUtilization.victim(&reversed), 8);
    }

    #[test]
    fn eviction_policy_changes_the_victim_in_a_live_controller() {
        let mut controller =
            AdmissionController::new(config(8).with_capacity(2).with_eviction(LowestUtilization))
                .unwrap();
        let mut admitted = Vec::new();
        for id in 1..32 {
            let verdict = controller.admit(id, graph(id), Time::ZERO).unwrap();
            if verdict.admitted {
                admitted.push(id);
            }
            if admitted.len() == 3 {
                break;
            }
        }
        assert_eq!(admitted.len(), 3);
        assert_eq!(controller.residents(), 2, "capacity bound held");
    }

    #[test]
    fn shed_outcomes_leave_no_trace_and_replay_verbatim() {
        // A zero budget sheds every service request before any slicing.
        let config = config(8)
            .with_workers(2)
            .with_decision_budget(Duration::ZERO);
        let service = AdmissionService::new(config.clone()).unwrap();
        for id in 0..6 {
            service
                .submit(AdmitRequest::Admit {
                    id,
                    graph: graph(id + 1),
                    origin: Time::ZERO,
                })
                .unwrap();
        }
        let log = service.shutdown().unwrap();
        assert_eq!(log.outcomes.len(), 6);
        assert_eq!(log.shed(), 6, "zero budget sheds everything");
        assert_eq!(log.admitted(), 0);
        assert_eq!(log.residents, 0, "shed requests leave no residents");

        let idle = AdmissionController::new(config.clone()).unwrap();
        assert_eq!(log.digest, idle.digest(), "shed requests left a trace");

        let replayed = log.replay(&config).unwrap();
        assert!(log.matches(&replayed), "shed outcomes must copy verbatim");
    }

    #[test]
    fn sequential_controller_ignores_the_decision_budget() {
        let mut controller =
            AdmissionController::new(config(8).with_decision_budget(Duration::ZERO)).unwrap();
        let verdict = controller.admit(1, graph(1), Time::ZERO).unwrap();
        assert!(verdict.admitted, "no queue, nothing to shed");
    }

    #[test]
    fn full_queue_refuses_without_blocking() {
        // A rendezvous ingress (depth clamps to 1) with a saturated
        // pool: submissions beyond the in-flight capacity are refused.
        let config = config(4).with_workers(1).with_queue_depth(1);
        let service = AdmissionService::new(config.clone()).unwrap();
        let mut refused = 0;
        for id in 0..64 {
            match service.submit(AdmitRequest::Admit {
                id,
                graph: graph(1),
                origin: Time::ZERO,
            }) {
                Ok(()) => {}
                Err(AdmitError::QueueFull { depth }) => {
                    assert_eq!(depth, 1);
                    refused += 1;
                }
                Err(other) => panic!("unexpected refusal: {other}"),
            }
        }
        let log = service.shutdown().unwrap();
        assert_eq!(log.outcomes.len() + refused, 64);
        // Refused submissions consumed no sequence numbers: the accepted
        // ones replay cleanly.
        let replayed = log.replay(&config).unwrap();
        assert!(log.matches(&replayed));
    }

    #[cfg(feature = "fault-inject")]
    mod fault_inject {
        use crate::fault::FaultSpec;

        use super::*;

        #[test]
        fn worker_panic_becomes_one_typed_failure_and_the_service_survives() {
            // Pick a seed whose plan panics exactly one of the 8 requests,
            // so the assertion is exact rather than statistical.
            let plan_for = |seed: u64| {
                FaultPlan::new(seed).with_fault(FaultSpec::new(FaultSite::AdmitWorkerPanic, 0.2))
            };
            let (seed, victim) = (0..500u64)
                .find_map(|seed| {
                    let plan = plan_for(seed);
                    let firing: Vec<u64> = (0..8)
                        .filter(|&s| {
                            plan.should_fire(FaultSite::AdmitWorkerPanic, 8, s as usize, 0)
                        })
                        .collect();
                    match firing.as_slice() {
                        [only] => Some((seed, *only)),
                        _ => None,
                    }
                })
                .expect("some seed fires exactly once in 8 draws");

            let config = config(8).with_workers(2).with_fault_plan(plan_for(seed));
            let service = AdmissionService::new(config.clone()).unwrap();
            for id in 0..8 {
                service
                    .submit(AdmitRequest::Admit {
                        id,
                        graph: graph(id + 1),
                        origin: Time::new(i64::try_from(id).unwrap() * 500),
                    })
                    .unwrap();
            }
            let log = service.shutdown().unwrap();
            assert_eq!(log.outcomes.len(), 8, "service concluded every request");
            assert_eq!(log.failed(), 1, "exactly one typed worker failure");
            assert!(matches!(
                &log.outcomes[victim as usize],
                AdmitOutcome::Failed { stage } if stage == "slice"
            ));
            assert_eq!(log.verdicts().count(), 7, "every other request decided");
            let replayed = log.replay(&config).unwrap();
            assert!(log.matches(&replayed), "failure outcome replays verbatim");
        }

        #[test]
        fn queue_race_duplicates_are_dropped_by_the_dedup_guard() {
            // Redeliver every sequence: each request must still conclude
            // exactly once, in order, with unchanged verdicts.
            let plan =
                FaultPlan::new(11).with_fault(FaultSpec::new(FaultSite::AdmitQueueRace, 1.0));
            let config = config(8).with_workers(3).with_fault_plan(plan);
            let service = AdmissionService::new(config.clone()).unwrap();
            for id in 0..10 {
                service
                    .submit(AdmitRequest::Admit {
                        id,
                        graph: graph(id + 1),
                        origin: Time::new(i64::try_from(id).unwrap() * 500),
                    })
                    .unwrap();
            }
            let log = service.shutdown().unwrap();
            assert_eq!(log.outcomes.len(), 10, "each sequence concluded once");
            let replayed = log.replay(&config).unwrap();
            assert!(log.matches(&replayed));
        }

        #[test]
        fn transient_log_io_faults_retry_and_the_log_stays_durable() {
            let wal = TempPath::new("faulty-io");
            // Every append fails twice, then the retry clears it.
            let plan = FaultPlan::new(3)
                .with_fault(FaultSpec::new(FaultSite::AdmitLogIo, 1.0).transient(2));
            let mut durable =
                AdmissionController::new(config(8).durable(&wal.0).with_fault_plan(plan)).unwrap();
            for id in 1..4 {
                durable.admit(id, graph(id), Time::ZERO).unwrap();
            }
            let digest = durable.digest();
            drop(durable);

            let (recovered, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
            assert_eq!(log.outcomes.len(), 3, "no record lost to the faults");
            assert_eq!(recovered.digest(), digest);
        }

        #[test]
        fn an_exhausted_append_leaves_no_graph_line_and_the_next_admit_reseals_it() {
            let wal = TempPath::new("exhausted-graph");
            let mut durable = AdmissionController::new(config(8).durable(&wal.0)).unwrap();
            durable.admit(1, graph(1), Time::ZERO).unwrap();
            let before = std::fs::read(&wal.0).unwrap();

            // An outage that outlasts every retry of the next append (a
            // refused admit of a new graph: it leaves no state trace, so
            // losing its record cannot diverge recovery), then clears.
            let outage = FaultPlan::new(1).with_fault(FaultSpec::new(FaultSite::AdmitLogIo, 1.0));
            durable.wal.as_mut().unwrap().fault = Some(Arc::new(outage));
            assert!(matches!(
                durable.admit(1, graph(2), Time::ZERO),
                Err(AdmitError::DuplicateId { id: 1 })
            ));
            assert_eq!(
                std::fs::read(&wal.0).unwrap(),
                before,
                "neither the Graph line nor the record was left behind"
            );
            durable.wal.as_mut().unwrap().fault = None;

            // The graph was never entered as sealed: its next admit seals
            // it, under the ordinal the lost append would have used.
            durable.admit(2, graph(2), Time::ZERO).unwrap();
            let digest = durable.digest();
            drop(durable);
            assert_eq!(lines_tagged(&wal.0, "Graph"), 2);
            assert_eq!(lines_tagged(&wal.0, "Sealed"), 2);
            let (recovered, log) = AdmissionController::recover(config(8), &wal.0).unwrap();
            assert_eq!(recovered.digest(), digest);
            assert_eq!(log.outcomes.len(), 2);
            assert!(log.matches(&log.replay(&config(8)).unwrap()));
        }

        #[test]
        fn injected_corruption_is_detected_on_recovery() {
            // Pick a seed that corrupts a record which is *not* the final
            // line, so the torn-tail tolerance cannot excuse it.
            let plan_for = |seed: u64| {
                FaultPlan::new(seed).with_fault(FaultSpec::new(FaultSite::AdmitLogCorrupt, 0.3))
            };
            let seed = (0..500u64)
                .find(|&seed| {
                    let plan = plan_for(seed);
                    plan.should_fire(FaultSite::AdmitLogCorrupt, 8, 1, 0)
                        && !plan.should_fire(FaultSite::AdmitLogCorrupt, 8, 2, 0)
                })
                .expect("some seed corrupts only the middle record");

            let wal = TempPath::new("faulty-crc");
            let mut durable =
                AdmissionController::new(config(8).durable(&wal.0).with_fault_plan(plan_for(seed)))
                    .unwrap();
            for id in 1..4 {
                durable.admit(id, graph(id), Time::ZERO).unwrap();
            }
            drop(durable);

            match AdmissionController::recover(config(8), &wal.0) {
                Err(AdmitError::Log(RunError::CheckpointCorrupt { .. })) => {}
                other => panic!("expected CheckpointCorrupt, got {other:?}"),
            }
        }
    }
}
