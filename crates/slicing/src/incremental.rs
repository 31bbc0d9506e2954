//! Incremental re-slicing: replay the slicing loop against a memoized
//! previous run, re-searching only the dirty cone of a graph delta.
//!
//! # How it works
//!
//! The slicing loop (Figure 1) is deterministic: given the expanded graph,
//! per-node virtual times, and the accumulated `assigned`/release/deadline
//! state at the top of an iteration, the chosen critical path — and hence
//! the whole rest of the run — is a pure function of those inputs. A traced
//! run therefore records, per iteration, a snapshot of that state plus the
//! *local* winner of every per-start DP search together with the search's
//! **read set** (every node whose mutable state it touched, as a bitset).
//!
//! On redistribute, the loop replays from a fresh state over the mutated
//! graph. Invalidation works at three strengths:
//!
//! * **State dirt** (read-set level). At each iteration the new state is
//!   diffed against the old snapshot. The diff distinguishes what a search
//!   can actually observe: interior exploration branches only on anchor
//!   *presence* (`assigned`, `rel.is_none()`, `dl.is_some()`), while anchor
//!   *values* are read in exactly two places — the start's release and the
//!   deadlines of reached endpoints. An assignment or presence flip
//!   therefore dirties the node for every cached search whose read set
//!   touches it, but a value-only change (a still-anchored node whose
//!   anchor moved) invalidates only searches *starting* at the node
//!   (release values) or reaching it as an endpoint (deadline values,
//!   checked against the read set). This is what keeps the re-anchoring
//!   ripple of an accepted slice — which rewrites neighbor anchor values
//!   but rarely their presence — from cascading into a full re-search. A
//!   node assigned in both runs is always clean.
//! * **Increased virtual weights** (read-set level). The DP's exploration
//!   order is weight-independent, but a larger weight can promote any path
//!   through the node, so every cached search that examined it re-runs.
//! * **Decreased virtual weights** (winner level). Path scores are
//!   monotone non-increasing in total virtual weight — `EqualShare`
//!   unconditionally, `Proportional` whenever every window is non-negative
//!   (checked via the envelope `min deadline ≥ max release` over the
//!   unassigned anchors, demoting to read-set strength when it fails). A
//!   decrease can therefore only make competing paths *lose*, so a cached
//!   winner stays the first-found argmin unless its own path routes
//!   through a decreased node. This is what makes WCET *tightenings* — the
//!   common direction for measurement-based re-estimation — nearly free.
//!
//! On top of the dirty rules, the replay tracks whether the state still
//! **matches** the old snapshot (it does until a different winner is
//! chosen, and again once a divergent region has been sliced away in both
//! runs). On the matched prefix the per-node diff, the `classify` pass and
//! the snapshot clones are all skipped: the old iteration's record is moved
//! into the new trace wholesale and only the few weight-dirty nodes are
//! consulted, so an identity or far-from-the-cone delta replays at memmove
//! speed.
//!
//! Winners compose across ascending starts with the same strict `<` as the
//! full sweep, so the chosen path — and therefore the produced
//! [`DeadlineAssignment`] — is **bit-identical** to a from-scratch
//! [`Slicer::distribute`], which the delta-equivalence property suite
//! enforces over random delta sequences.
//!
//! # Fallback
//!
//! The replay silently falls back to a full traced run (still priming the
//! memo for next time) when reuse would be unsound: the memo is unprimed,
//! the slicer configuration or platform changed, or the delta changed the
//! *structure* of the expanded graph (subtask/edge insertion or removal,
//! or a message crossing the materialization threshold). Anchor, WCET and
//! pin deltas keep the structure intact and stay on the incremental path;
//! they also leave the subtask/edge signature untouched, in which case the
//! memoized expanded graph is reused without being rebuilt.
//! [`RedistributeStats::fell_back`] reports which path ran.

use platform::Platform;
use taskgraph::{TaskGraph, Time};

use crate::algorithm::{apply_path, finalize, SliceState};
use crate::path_search::{CriticalPath, PathSearch};
use crate::{DeadlineAssignment, ShareRule, SliceError, SliceInputs, Slicer, Window};

/// Memoized state of one traced slicing run, consumed and refreshed by
/// [`Slicer::redistribute`].
///
/// Create one with [`SliceMemo::new`] (unprimed), then prime it with
/// [`Slicer::distribute_traced`] or let the first `redistribute` fall back
/// and prime it. A memo is tied to the slicer configuration and platform
/// it was primed with; mismatches are detected and degrade to a full
/// recompute rather than an error.
#[derive(Debug, Default, Clone)]
pub struct SliceMemo {
    inner: Option<MemoInner>,
}

impl SliceMemo {
    /// An unprimed memo: the next redistribute falls back and primes it.
    pub fn new() -> Self {
        SliceMemo::default()
    }

    /// Returns `true` once a traced run has primed the memo.
    pub fn is_primed(&self) -> bool {
        self.inner.is_some()
    }
}

#[derive(Debug, Clone)]
struct MemoInner {
    fingerprint: Fingerprint,
    graph_sig: GraphSig,
    inputs: SliceInputs,
    trace: Vec<IterationTrace>,
    search: PathSearch,
}

/// The configuration a memo was primed under. Virtual times are compared
/// per node separately, so metric *parameters* (e.g. a THRES surplus) need
/// not be captured here — only inputs that could change behaviour while
/// leaving every virtual time bit-identical.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    metric: String,
    estimate: &'static str,
    rule: ShareRule,
    strict: bool,
    platform: Platform,
}

/// The task-graph inputs the expanded graph's *shape and communication
/// weights* are a function of (together with the platform and estimate,
/// which the [`Fingerprint`] pins). While this signature holds, the
/// memoized [`ExpandedGraph`] is valid verbatim except for task-node
/// weights, which are re-read from the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GraphSig {
    subtasks: usize,
    edges: Vec<(u32, u32, u64)>,
}

impl GraphSig {
    fn of(graph: &TaskGraph) -> Self {
        GraphSig {
            subtasks: graph.subtask_count(),
            edges: graph
                .edge_ids()
                .map(|eid| {
                    let e = graph.edge(eid);
                    (e.src().index() as u32, e.dst().index() as u32, e.items())
                })
                .collect(),
        }
    }
}

/// One iteration of a traced run: the slicing state at its start plus the
/// local winner (and read set) of every per-start search.
#[derive(Debug, Clone)]
struct IterationTrace {
    assigned: Vec<bool>,
    rel: Vec<Option<Time>>,
    dl: Vec<Option<Time>>,
    /// Ascending by start node.
    candidates: Vec<StartCandidate>,
    /// Bitset over expanded nodes: union of every candidate's read set.
    /// A weight-dirty node outside it cannot invalidate any cached search
    /// of this iteration, letting a matched replay skip the per-candidate
    /// checks entirely.
    dep_union: Vec<u64>,
    /// Bitset over expanded nodes: union of every recorded winner's path
    /// — the corresponding whole-iteration screen for decreased weights
    /// held at winner strength.
    path_union: Vec<u64>,
}

/// The whole-iteration read-set and winner-path unions of `cands`.
fn unions(cands: &[StartCandidate], words: usize) -> (Vec<u64>, Vec<u64>) {
    let mut dep_union = vec![0u64; words];
    let mut path_union = vec![0u64; words];
    for c in cands {
        for (u, d) in dep_union.iter_mut().zip(&c.dep) {
            *u |= d;
        }
        if let Some(cp) = &c.cand {
            for &v in &cp.nodes {
                path_union[v >> 6] |= 1u64 << (v & 63);
            }
        }
    }
    (dep_union, path_union)
}

#[derive(Debug, Clone)]
struct StartCandidate {
    start: u32,
    /// Bitset over expanded nodes: every node whose mutable state the
    /// search from `start` read.
    dep: Vec<u64>,
    cand: Option<CriticalPath>,
}

/// Counters from one [`Slicer::redistribute`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RedistributeStats {
    /// Per-start searches answered from the memo.
    pub cache_hits: u64,
    /// Per-start searches that ran the DP live.
    pub cache_misses: u64,
    /// Dirty (node, iteration) pairs across all diffed iterations.
    pub dirty_nodes: u64,
    /// Scanned (node, iteration) pairs — the denominator for
    /// [`dirty_frac`](Self::dirty_frac). Iterations fast-forwarded on the
    /// matched prefix are not diffed and contribute nothing here.
    pub scanned_nodes: u64,
    /// Whether the call fell back to a full traced recompute.
    pub fell_back: bool,
}

impl RedistributeStats {
    /// Fraction of scanned per-iteration node states that were dirty
    /// (`0.0` when nothing was scanned).
    pub fn dirty_frac(&self) -> f64 {
        if self.scanned_nodes == 0 {
            0.0
        } else {
            self.dirty_nodes as f64 / self.scanned_nodes as f64
        }
    }
}

/// The result of a [`Slicer::redistribute`] call.
#[derive(Debug)]
pub struct Redistribution {
    /// The new assignment, bit-identical to a from-scratch
    /// [`Slicer::distribute`] over the same graph.
    pub assignment: DeadlineAssignment,
    /// Cache-effectiveness counters for telemetry.
    pub stats: RedistributeStats,
}

/// First index (ascending start order) attaining the strictly smallest
/// score — the same composition rule as the full sweep's `<`.
fn best_index(cands: &[StartCandidate]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in cands.iter().enumerate() {
        if let Some(cp) = &c.cand {
            if best.is_none_or(|(_, s)| cp.score < s) {
                best = Some((i, cp.score));
            }
        }
    }
    best.map(|(i, _)| i)
}

fn bit(bits: &[u64], v: u32) -> bool {
    bits[(v >> 6) as usize] & (1u64 << (v & 63)) != 0
}

fn path_avoids(cand: &Option<CriticalPath>, bits: &[u64]) -> bool {
    cand.as_ref()
        .is_none_or(|cp| !cp.nodes.iter().any(|&u| bit(bits, u as u32)))
}

/// Whether a cached candidate survives the weight dirt alone: increased
/// (and, when the monotonicity shortcut is unusable, decreased) weights
/// must be outside its read set; under the shortcut the recorded winner
/// must not route through a decreased node. Weight-dirty nodes already
/// assigned are inert — no search reads their weight.
fn weight_clean(
    c: &StartCandidate,
    assigned: &[bool],
    plus: &[u32],
    minus: &[u32],
    minus_bits: &[u64],
    soft: bool,
) -> bool {
    let dep_clear = |list: &[u32]| {
        list.iter()
            .all(|&v| assigned[v as usize] || !bit(&c.dep, v))
    };
    if !dep_clear(plus) {
        return false;
    }
    if soft {
        path_avoids(&c.cand, minus_bits)
    } else {
        dep_clear(minus)
    }
}

/// Every admissible window is non-negative iff the smallest unassigned
/// deadline anchor is at or after the largest unassigned release anchor.
/// This is the soundness gate for treating weight decreases at winner
/// strength under `ShareRule::Proportional` (score `(W-T)/T` is only
/// monotone in `T` for `W ≥ 0`).
fn windows_nonneg(state: &SliceState) -> bool {
    let (mut min_dl, mut max_rel) = (i64::MAX, i64::MIN);
    for v in 0..state.assigned.len() {
        if state.assigned[v] {
            continue;
        }
        if let Some(r) = state.rel[v] {
            max_rel = max_rel.max(r.as_i64());
        }
        if let Some(d) = state.dl[v] {
            min_dl = min_dl.min(d.as_i64());
        }
    }
    min_dl == i64::MAX || max_rel == i64::MIN || min_dl >= max_rel
}

impl Slicer {
    /// [`distribute`](Slicer::distribute), additionally priming `memo` so a
    /// later [`redistribute`](Slicer::redistribute) can reuse this run.
    ///
    /// The produced assignment is bit-identical to a plain `distribute`
    /// over the same inputs (the trace records reads; it never alters the
    /// search).
    ///
    /// # Errors
    ///
    /// Exactly those of [`distribute`](Slicer::distribute).
    pub fn distribute_traced(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
        memo: &mut SliceMemo,
    ) -> Result<DeadlineAssignment, SliceError> {
        memo.inner = None;
        let mut stats = RedistributeStats {
            fell_back: true,
            ..RedistributeStats::default()
        };
        self.run_traced(graph, platform, memo, &mut stats)
    }

    /// Recomputes the deadline assignment for `graph` — typically the
    /// output of [`GraphDelta::apply`](crate::GraphDelta::apply) on the
    /// memoized run's graph — reusing every per-start search whose read
    /// set the delta left untouched.
    ///
    /// The result is bit-identical to `self.distribute(graph, platform)`;
    /// only the work performed differs. `memo` is refreshed to describe
    /// this run, so deltas can be chained. See this module's source
    /// docs for the dirty-set rules and fallback conditions.
    ///
    /// # Errors
    ///
    /// Exactly those of [`distribute`](Slicer::distribute).
    pub fn redistribute(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
        memo: &mut SliceMemo,
    ) -> Result<Redistribution, SliceError> {
        let mut stats = RedistributeStats::default();
        let fingerprint = self.fingerprint(platform);
        let reusable = match &memo.inner {
            Some(inner) => inner.fingerprint == fingerprint,
            None => false,
        };
        if !reusable {
            memo.inner = None;
        }
        stats.fell_back = memo.inner.is_none();
        let assignment = self.run_traced(graph, platform, memo, &mut stats)?;
        Ok(Redistribution { assignment, stats })
    }

    fn fingerprint(&self, platform: &Platform) -> Fingerprint {
        Fingerprint {
            metric: self.metric_name().to_owned(),
            estimate: self.estimate_label(),
            rule: self.metric().share_rule(),
            strict: self.strict(),
            platform: platform.clone(),
        }
    }

    /// The traced slicing loop: runs over `graph`, consuming whatever
    /// usable memo state exists (structure still has to match — checked
    /// here) and leaving `memo` primed with this run.
    fn run_traced(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
        memo: &mut SliceMemo,
        stats: &mut RedistributeStats,
    ) -> Result<DeadlineAssignment, SliceError> {
        let _span = tracing::debug_span!(
            "redistribute",
            metric = self.metric_name(),
            estimate = self.estimate_label(),
            subtasks = graph.subtask_count()
        )
        .entered();

        let rule = self.metric().share_rule();
        let sig = GraphSig::of(graph);

        // A structural change invalidates every recorded read set (node
        // indices shift, reachability changes): drop the old trace and run
        // everything live, which primes the memo for the next delta. An
        // unchanged subtask/edge signature goes further: the memoized
        // expanded graph is node-for-node identical (the fingerprint pins
        // the platform and estimate, so every communication weight is
        // too), and the rebuild is skipped: only task weights, which a
        // WCET delta may have changed, are re-read from the graph.
        let (inputs, old_trace, old_vweights, mut search) = match memo.inner.take() {
            Some(inner) if inner.graph_sig == sig => {
                let SliceInputs { mut exp, vweights } = inner.inputs;
                exp.refresh_task_weights(graph);
                let inputs = self.inputs_over(graph, platform, exp);
                (inputs, inner.trace, vweights, inner.search)
            }
            Some(inner) => {
                let inputs = self.prepare(graph, platform);
                if inner.inputs.exp.same_structure(&inputs.exp) {
                    (inputs, inner.trace, inner.inputs.vweights, inner.search)
                } else {
                    stats.fell_back = true;
                    let (nodes, chain) = (inputs.exp.len(), inputs.exp.max_chain());
                    (
                        inputs,
                        Vec::new(),
                        Vec::new(),
                        PathSearch::new(nodes, chain),
                    )
                }
            }
            None => {
                let inputs = self.prepare(graph, platform);
                stats.fell_back = true;
                let (nodes, chain) = (inputs.exp.len(), inputs.exp.max_chain());
                (
                    inputs,
                    Vec::new(),
                    Vec::new(),
                    PathSearch::new(nodes, chain),
                )
            }
        };
        let SliceInputs { exp, vweights } = &inputs;

        let n = exp.len();
        let words = n.div_ceil(64);

        // Weight dirt for the whole call, split by direction (see module
        // docs): decreases invalidate at winner strength, everything else
        // at read-set strength.
        let mut w_minus = vec![0u64; words];
        let mut w_plus = vec![0u64; words];
        let mut w_minus_list: Vec<u32> = Vec::new();
        let mut w_plus_list: Vec<u32> = Vec::new();
        for v in 0..old_vweights.len() {
            let (new, old) = (vweights[v], old_vweights[v]);
            if new.to_bits() != old.to_bits() {
                if new < old {
                    w_minus[v >> 6] |= 1u64 << (v & 63);
                    w_minus_list.push(v as u32);
                } else {
                    w_plus[v >> 6] |= 1u64 << (v & 63);
                    w_plus_list.push(v as u32);
                }
            }
        }

        let mut state = SliceState::init(graph, exp);
        let mut new_trace: Vec<IterationTrace> = Vec::with_capacity(old_trace.len().max(8));
        let mut old_iters = old_trace.into_iter();
        let mut dirty = vec![0u64; words];
        let mut rel_val = vec![0u64; words];
        let mut dl_val = vec![0u64; words];
        let mut path_weights: Vec<f64> = Vec::new();
        let mut slices: Vec<Window> = Vec::new();
        let mut paths = 0usize;
        // Whether the state provably equals the old snapshot for the
        // current iteration (assigned flags plus every unassigned anchor).
        // Maintained inductively while the chosen winner is the old one
        // and off every weight-dirty node; re-proven by the diff after a
        // divergence.
        let mut matched = false;

        while state.remaining > 0 {
            let Some(old) = old_iters.next() else {
                // The old run finished earlier (or there is no trace):
                // everything left runs live.
                if !search.classify(n, &state.assigned, &state.rel, &state.dl) {
                    return Err(SliceError::NoAnchoredPath);
                }
                let mut candidates: Vec<StartCandidate> = Vec::with_capacity(4);
                for s in 0..n {
                    if state.assigned[s] || state.rel[s].is_none() {
                        continue;
                    }
                    stats.cache_misses += 1;
                    let start_release = state.rel[s].expect("checked above");
                    let mut dep = vec![0u64; words];
                    let cand = search.search_from(
                        exp,
                        vweights,
                        &state.dl,
                        s,
                        start_release,
                        rule,
                        Some(&mut dep),
                    );
                    candidates.push(StartCandidate {
                        start: s as u32,
                        dep,
                        cand,
                    });
                }
                let best = best_index(&candidates).ok_or(SliceError::NoAnchoredPath)?;
                let cp = candidates[best]
                    .cand
                    .clone()
                    .expect("best candidate is Some");
                let (dep_union, path_union) = unions(&candidates, words);
                new_trace.push(IterationTrace {
                    assigned: state.assigned.clone(),
                    rel: state.rel.clone(),
                    dl: state.dl.clone(),
                    candidates,
                    dep_union,
                    path_union,
                });
                paths += 1;
                apply_path(
                    exp,
                    vweights,
                    rule,
                    &cp,
                    &mut state,
                    &mut path_weights,
                    &mut slices,
                    paths,
                );
                continue;
            };

            let IterationTrace {
                assigned: old_assigned,
                rel: old_rel,
                dl: old_dl,
                candidates: old_cands,
                dep_union: old_dep_union,
                path_union: old_path_union,
            } = old;

            // Lazily computed Proportional gate (see `windows_nonneg`);
            // the diff below folds it in for free when it runs.
            let mut gate: Option<bool> = None;

            if !matched {
                dirty.fill(0);
                rel_val.fill(0);
                dl_val.fill(0);
                let mut dirt = 0u64;
                let (mut min_dl, mut max_rel) = (i64::MAX, i64::MIN);
                for v in 0..n {
                    // Hard dirt: a flag any exploring search branches on
                    // flipped. Value dirt: the node stayed anchored but the
                    // anchor moved — observable only by a search starting
                    // there (release) or reaching it as an endpoint
                    // (deadline).
                    let mut hard = state.assigned[v] != old_assigned[v];
                    let mut val = false;
                    if !hard && !state.assigned[v] {
                        match (state.rel[v], old_rel[v]) {
                            (Some(a), Some(b)) if a != b => {
                                rel_val[v >> 6] |= 1u64 << (v & 63);
                                val = true;
                            }
                            (a, b) if a.is_some() != b.is_some() => hard = true,
                            _ => {}
                        }
                        match (state.dl[v], old_dl[v]) {
                            (Some(a), Some(b)) if a != b => {
                                dl_val[v >> 6] |= 1u64 << (v & 63);
                                val = true;
                            }
                            (a, b) if a.is_some() != b.is_some() => hard = true,
                            _ => {}
                        }
                    }
                    if !state.assigned[v] {
                        if let Some(r) = state.rel[v] {
                            max_rel = max_rel.max(r.as_i64());
                        }
                        if let Some(d) = state.dl[v] {
                            min_dl = min_dl.min(d.as_i64());
                        }
                    }
                    if hard {
                        dirty[v >> 6] |= 1u64 << (v & 63);
                    }
                    if hard || val {
                        dirt += 1;
                    }
                }
                stats.scanned_nodes += n as u64;
                stats.dirty_nodes += dirt;
                matched = dirt == 0;
                gate = Some(min_dl == i64::MAX || max_rel == i64::MIN || min_dl >= max_rel);
            }

            let minus_live = w_minus_list.iter().any(|&v| !state.assigned[v as usize]);
            let plus_live = w_plus_list.iter().any(|&v| !state.assigned[v as usize]);
            // Winner-strength handling of decreases needs the score to be
            // monotone in total weight: unconditional for EqualShare,
            // window-gated for Proportional.
            let soft = minus_live
                && (rule == ShareRule::EqualShare
                    || *gate.get_or_insert_with(|| windows_nonneg(&state)));

            if matched {
                // The state equals the old snapshot, so the start set and
                // every anchor any search reads are the old run's: only
                // weight dirt can invalidate, and with none live the whole
                // iteration fast-forwards.
                // Whole-iteration screen first: weight dirt outside the
                // recorded read-set (resp. winner-path) union cannot touch
                // any cached search, so the per-candidate checks — the
                // dominant cost of a fast-forwarded iteration — are skipped
                // for the overwhelmingly common off-cone iteration.
                let clear = |v: u32, bits: &[u64]| state.assigned[v as usize] || !bit(bits, v);
                let union_clear = w_plus_list.iter().all(|&v| clear(v, &old_dep_union))
                    && w_minus_list.iter().all(|&v| {
                        clear(
                            v,
                            if soft {
                                &old_path_union
                            } else {
                                &old_dep_union
                            },
                        )
                    });
                let all_hit = (!minus_live && !plus_live)
                    || union_clear
                    || old_cands.iter().all(|c| {
                        weight_clean(
                            c,
                            &state.assigned,
                            &w_plus_list,
                            &w_minus_list,
                            &w_minus,
                            soft,
                        )
                    });
                if all_hit {
                    stats.cache_hits += old_cands.len() as u64;
                    let best = best_index(&old_cands).ok_or(SliceError::NoAnchoredPath)?;
                    {
                        let cp = old_cands[best]
                            .cand
                            .as_ref()
                            .expect("best candidate is Some");
                        paths += 1;
                        apply_path(
                            exp,
                            vweights,
                            rule,
                            cp,
                            &mut state,
                            &mut path_weights,
                            &mut slices,
                            paths,
                        );
                    }
                    new_trace.push(IterationTrace {
                        assigned: old_assigned,
                        rel: old_rel,
                        dl: old_dl,
                        candidates: old_cands,
                        dep_union: old_dep_union,
                        path_union: old_path_union,
                    });
                    continue;
                }

                // Some start must re-search. The chosen winner decides
                // whether the state keeps tracking the old run: the old
                // winner, off every weight-dirty node, evolves both runs
                // identically.
                let old_best = best_index(&old_cands)
                    .map(|i| old_cands[i].cand.clone().expect("best candidate is Some"));
                if !search.classify(n, &state.assigned, &state.rel, &state.dl) {
                    return Err(SliceError::NoAnchoredPath);
                }
                let mut candidates: Vec<StartCandidate> = Vec::with_capacity(old_cands.len());
                for c in old_cands {
                    if weight_clean(
                        &c,
                        &state.assigned,
                        &w_plus_list,
                        &w_minus_list,
                        &w_minus,
                        soft,
                    ) {
                        stats.cache_hits += 1;
                        candidates.push(c);
                    } else {
                        stats.cache_misses += 1;
                        let s = c.start as usize;
                        let start_release =
                            state.rel[s].expect("cached starts are release-anchored");
                        let mut dep = vec![0u64; words];
                        let cand = search.search_from(
                            exp,
                            vweights,
                            &state.dl,
                            s,
                            start_release,
                            rule,
                            Some(&mut dep),
                        );
                        candidates.push(StartCandidate {
                            start: c.start,
                            dep,
                            cand,
                        });
                    }
                }
                let best = best_index(&candidates).ok_or(SliceError::NoAnchoredPath)?;
                let cp = candidates[best]
                    .cand
                    .clone()
                    .expect("best candidate is Some");
                matched = old_best.as_ref() == Some(&cp)
                    && !cp
                        .nodes
                        .iter()
                        .any(|&u| bit(&w_minus, u as u32) || bit(&w_plus, u as u32));
                let (dep_union, path_union) = unions(&candidates, words);
                new_trace.push(IterationTrace {
                    assigned: old_assigned,
                    rel: old_rel,
                    dl: old_dl,
                    candidates,
                    dep_union,
                    path_union,
                });
                paths += 1;
                apply_path(
                    exp,
                    vweights,
                    rule,
                    &cp,
                    &mut state,
                    &mut path_weights,
                    &mut slices,
                    paths,
                );
                continue;
            }

            // Diverged: per-candidate reuse against the freshly diffed
            // dirty set, with the live weight dirt folded in at read-set
            // strength (decreases stay at winner strength while `soft`).
            for &v in &w_plus_list {
                if !state.assigned[v as usize] && !bit(&dirty, v) {
                    dirty[(v >> 6) as usize] |= 1u64 << (v & 63);
                    stats.dirty_nodes += 1;
                }
            }
            if !soft {
                for &v in &w_minus_list {
                    if !state.assigned[v as usize] && !bit(&dirty, v) {
                        dirty[(v >> 6) as usize] |= 1u64 << (v & 63);
                        stats.dirty_nodes += 1;
                    }
                }
            }

            if !search.classify(n, &state.assigned, &state.rel, &state.dl) {
                return Err(SliceError::NoAnchoredPath);
            }

            let mut old_cands = old_cands;
            let mut candidates: Vec<StartCandidate> = Vec::with_capacity(old_cands.len().max(4));
            let mut old_pos = 0usize;
            for s in 0..n {
                if state.assigned[s] || state.rel[s].is_none() {
                    continue;
                }
                while old_pos < old_cands.len() && (old_cands[old_pos].start as usize) < s {
                    old_pos += 1;
                }
                let hit = old_pos < old_cands.len() && old_cands[old_pos].start as usize == s && {
                    let c = &old_cands[old_pos];
                    !bit(&rel_val, s as u32)
                        && c.dep.iter().zip(&dirty).all(|(d, x)| d & x == 0)
                        && c.dep.iter().zip(&dl_val).all(|(d, x)| d & x == 0)
                        && (!soft || path_avoids(&c.cand, &w_minus))
                };

                let entry = if hit {
                    stats.cache_hits += 1;
                    // Move (not copy) the recorded winner and read set into
                    // the new trace; each old entry is consumed at most
                    // once because `old_pos` only advances.
                    let c = &mut old_cands[old_pos];
                    StartCandidate {
                        start: s as u32,
                        dep: std::mem::take(&mut c.dep),
                        cand: c.cand.take(),
                    }
                } else {
                    stats.cache_misses += 1;
                    let start_release = state.rel[s].expect("checked above");
                    let mut dep = vec![0u64; words];
                    let cand = search.search_from(
                        exp,
                        vweights,
                        &state.dl,
                        s,
                        start_release,
                        rule,
                        Some(&mut dep),
                    );
                    StartCandidate {
                        start: s as u32,
                        dep,
                        cand,
                    }
                };
                candidates.push(entry);
            }

            let best = best_index(&candidates).ok_or(SliceError::NoAnchoredPath)?;
            let cp = candidates[best]
                .cand
                .clone()
                .expect("best candidate is Some");

            // Snapshot the state *at iteration start* (unchanged so far)
            // together with this iteration's candidates, then advance.
            let (dep_union, path_union) = unions(&candidates, words);
            new_trace.push(IterationTrace {
                assigned: state.assigned.clone(),
                rel: state.rel.clone(),
                dl: state.dl.clone(),
                candidates,
                dep_union,
                path_union,
            });
            paths += 1;
            apply_path(
                exp,
                vweights,
                rule,
                &cp,
                &mut state,
                &mut path_weights,
                &mut slices,
                paths,
            );
        }

        tracing::debug!(
            paths = paths,
            inverted = state.inverted,
            expanded_nodes = n,
            cache_hits = stats.cache_hits,
            cache_misses = stats.cache_misses,
            fell_back = stats.fell_back,
            "incremental deadline distribution complete"
        );

        let assignment = finalize(self, graph, exp, state)?;
        memo.inner = Some(MemoInner {
            fingerprint: self.fingerprint(platform),
            graph_sig: sig,
            inputs,
            trace: new_trace,
            search,
        });
        Ok(assignment)
    }
}

#[cfg(test)]
mod tests {
    use platform::Pinning;
    use taskgraph::{Subtask, SubtaskId};

    use super::*;
    use crate::GraphDelta;

    fn chain(wcets: &[i64], deadline: i64) -> TaskGraph {
        let mut b = TaskGraph::builder();
        let mut prev = None;
        for (i, &c) in wcets.iter().enumerate() {
            let mut s = Subtask::new(Time::new(c));
            if i == 0 {
                s = s.released_at(Time::ZERO);
            }
            if i + 1 == wcets.len() {
                s = s.due_at(Time::new(deadline));
            }
            let id = b.add_subtask(s);
            if let Some(p) = prev {
                b.add_edge(p, id, 10).unwrap();
            }
            prev = Some(id);
        }
        b.build().unwrap()
    }

    #[test]
    fn traced_distribute_matches_plain_distribute() {
        let g = chain(&[10, 30, 20], 120);
        let p = Platform::paper(2).unwrap();
        for slicer in [Slicer::bst_pure(), Slicer::bst_norm(), Slicer::ast_adapt()] {
            let plain = slicer.distribute(&g, &p).unwrap();
            let mut memo = SliceMemo::new();
            let traced = slicer.distribute_traced(&g, &p, &mut memo).unwrap();
            assert_eq!(plain, traced);
            assert!(memo.is_primed());
        }
    }

    #[test]
    fn redistribute_after_wcet_delta_is_bit_identical() {
        let g = chain(&[10, 30, 20, 40, 15], 400);
        let p = Platform::paper(4).unwrap();
        let slicer = Slicer::bst_pure();
        let mut memo = SliceMemo::new();
        slicer.distribute_traced(&g, &p, &mut memo).unwrap();

        let delta = GraphDelta::new().set_wcet(SubtaskId::new(2), Time::new(35));
        let applied = delta.apply(&g, &Pinning::new()).unwrap();
        let red = slicer.redistribute(&applied.graph, &p, &mut memo).unwrap();
        let scratch = slicer.distribute(&applied.graph, &p).unwrap();
        assert_eq!(red.assignment, scratch);
        assert!(!red.stats.fell_back);
        assert!(red.stats.scanned_nodes > 0);
    }

    #[test]
    fn identity_delta_hits_every_cached_search() {
        let g = chain(&[10, 30, 20, 40, 15], 400);
        let p = Platform::paper(4).unwrap();
        let slicer = Slicer::bst_pure();
        let mut memo = SliceMemo::new();
        let primed = slicer.distribute_traced(&g, &p, &mut memo).unwrap();
        let red = slicer.redistribute(&g, &p, &mut memo).unwrap();
        assert_eq!(red.assignment, primed);
        assert_eq!(red.stats.cache_misses, 0);
        assert!(red.stats.cache_hits > 0);
        assert_eq!(red.stats.dirty_nodes, 0);
        assert_eq!(red.stats.dirty_frac(), 0.0);
    }

    #[test]
    fn structural_delta_falls_back_but_stays_correct() {
        let g = chain(&[10, 30, 20], 300);
        let p = Platform::paper(2).unwrap();
        let slicer = Slicer::bst_pure();
        let mut memo = SliceMemo::new();
        slicer.distribute_traced(&g, &p, &mut memo).unwrap();

        let delta = GraphDelta::new()
            .add_subtask(Subtask::new(Time::new(12)).due_at(Time::new(280)))
            .add_edge(SubtaskId::new(1), SubtaskId::new(3), 4);
        let applied = delta.apply(&g, &Pinning::new()).unwrap();
        let red = slicer.redistribute(&applied.graph, &p, &mut memo).unwrap();
        assert!(red.stats.fell_back);
        assert_eq!(red.stats.cache_hits, 0);
        let scratch = slicer.distribute(&applied.graph, &p).unwrap();
        assert_eq!(red.assignment, scratch);

        // The fallback primed the memo: a follow-up WCET delta is
        // incremental again.
        let delta2 = GraphDelta::new().set_wcet(SubtaskId::new(0), Time::new(11));
        let applied2 = delta2.apply(&applied.graph, &Pinning::new()).unwrap();
        let red2 = slicer.redistribute(&applied2.graph, &p, &mut memo).unwrap();
        assert!(!red2.stats.fell_back);
        assert_eq!(
            red2.assignment,
            slicer.distribute(&applied2.graph, &p).unwrap()
        );
    }

    #[test]
    fn unprimed_memo_falls_back_and_primes() {
        let g = chain(&[10, 30], 100);
        let p = Platform::paper(2).unwrap();
        let slicer = Slicer::bst_pure();
        let mut memo = SliceMemo::new();
        assert!(!memo.is_primed());
        let red = slicer.redistribute(&g, &p, &mut memo).unwrap();
        assert!(red.stats.fell_back);
        assert!(memo.is_primed());
        assert_eq!(red.assignment, slicer.distribute(&g, &p).unwrap());
    }

    #[test]
    fn configuration_change_falls_back() {
        let g = chain(&[10, 30, 20], 120);
        let p = Platform::paper(2).unwrap();
        let mut memo = SliceMemo::new();
        Slicer::bst_pure()
            .distribute_traced(&g, &p, &mut memo)
            .unwrap();
        // Different metric, same memo: must fall back, not corrupt.
        let red = Slicer::bst_norm().redistribute(&g, &p, &mut memo).unwrap();
        assert!(red.stats.fell_back);
        assert_eq!(
            red.assignment,
            Slicer::bst_norm().distribute(&g, &p).unwrap()
        );
        // Different processor count likewise (ADAPT reads it).
        let p8 = Platform::paper(8).unwrap();
        let mut memo = SliceMemo::new();
        Slicer::ast_adapt()
            .distribute_traced(&g, &p, &mut memo)
            .unwrap();
        let red = Slicer::ast_adapt()
            .redistribute(&g, &p8, &mut memo)
            .unwrap();
        assert!(red.stats.fell_back);
        assert_eq!(
            red.assignment,
            Slicer::ast_adapt().distribute(&g, &p8).unwrap()
        );
    }

    /// Two parallel branches between a forked source and a joined sink:
    /// per-start winners can avoid a perturbed branch, exercising the
    /// winner-strength (path containment) shortcut for weight decreases.
    fn forked(wcets: &[i64; 7], deadline: i64) -> TaskGraph {
        let mut b = TaskGraph::builder();
        let ids: Vec<SubtaskId> = wcets
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let mut s = Subtask::new(Time::new(c));
                if i == 0 {
                    s = s.released_at(Time::ZERO);
                }
                if i >= 5 {
                    s = s.due_at(Time::new(deadline));
                }
                b.add_subtask(s)
            })
            .collect();
        // 0 -> {1 -> 2, 3 -> 4} -> 5, plus an independent sink 4 -> 6.
        b.add_edge(ids[0], ids[1], 5).unwrap();
        b.add_edge(ids[1], ids[2], 5).unwrap();
        b.add_edge(ids[0], ids[3], 5).unwrap();
        b.add_edge(ids[3], ids[4], 5).unwrap();
        b.add_edge(ids[2], ids[5], 5).unwrap();
        b.add_edge(ids[4], ids[5], 5).unwrap();
        b.add_edge(ids[4], ids[6], 5).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn wcet_tightenings_stay_bit_identical_across_metrics() {
        let g = forked(&[10, 40, 25, 30, 35, 20, 15], 400);
        let p = Platform::paper(3).unwrap();
        for slicer in [
            Slicer::bst_pure(),
            Slicer::bst_norm(),
            Slicer::ast_thres(1.0),
            Slicer::ast_adapt(),
        ] {
            let mut memo = SliceMemo::new();
            slicer.distribute_traced(&g, &p, &mut memo).unwrap();
            let mut current = g.clone();
            // Tighten one node per step, walking across both branches.
            for (node, wcet) in [(1u32, 32i64), (4, 28), (3, 22), (1, 30)] {
                let delta = GraphDelta::new().set_wcet(SubtaskId::new(node), Time::new(wcet));
                current = delta.apply(&current, &Pinning::new()).unwrap().graph;
                let red = slicer.redistribute(&current, &p, &mut memo).unwrap();
                assert!(!red.stats.fell_back);
                assert_eq!(
                    red.assignment,
                    slicer.distribute(&current, &p).unwrap(),
                    "metric {}",
                    slicer.metric_name()
                );
            }
        }
    }

    #[test]
    fn inverted_window_decrease_under_norm_stays_bit_identical() {
        // The sink is due *before* the source releases, so every window is
        // negative and the Proportional monotonicity gate must demote
        // decreases to read-set strength — correctness must survive.
        let mut b = TaskGraph::builder();
        let a = b.add_subtask(Subtask::new(Time::new(30)).released_at(Time::new(100)));
        let c = b.add_subtask(Subtask::new(Time::new(20)));
        let d = b.add_subtask(Subtask::new(Time::new(25)).due_at(Time::new(50)));
        b.add_edge(a, c, 5).unwrap();
        b.add_edge(c, d, 5).unwrap();
        let g = b.build().unwrap();
        let p = Platform::paper(2).unwrap();
        let slicer = Slicer::bst_norm();
        let mut memo = SliceMemo::new();
        slicer.distribute_traced(&g, &p, &mut memo).unwrap();
        let delta = GraphDelta::new().set_wcet(SubtaskId::new(1), Time::new(12));
        let mutated = delta.apply(&g, &Pinning::new()).unwrap().graph;
        let red = slicer.redistribute(&mutated, &p, &mut memo).unwrap();
        assert!(!red.stats.fell_back);
        assert_eq!(red.assignment, slicer.distribute(&mutated, &p).unwrap());
    }

    #[test]
    fn anchor_deltas_stay_bit_identical() {
        let g = forked(&[10, 40, 25, 30, 35, 20, 15], 400);
        let p = Platform::paper(3).unwrap();
        let slicer = Slicer::ast_thres(1.0);
        let mut memo = SliceMemo::new();
        slicer.distribute_traced(&g, &p, &mut memo).unwrap();
        // Anchor value changes perturb the very first iteration's state, so
        // the replay starts diverged and must reconverge (or re-search) —
        // either way the result must be exact.
        let delta = GraphDelta::new()
            .set_deadline(SubtaskId::new(5), Some(Time::new(380)))
            .set_release(SubtaskId::new(0), Some(Time::new(4)));
        let mutated = delta.apply(&g, &Pinning::new()).unwrap().graph;
        let red = slicer.redistribute(&mutated, &p, &mut memo).unwrap();
        assert!(!red.stats.fell_back);
        assert_eq!(red.assignment, slicer.distribute(&mutated, &p).unwrap());
        // And a follow-up WCET tightening chains off the refreshed memo.
        let delta2 = GraphDelta::new().set_wcet(SubtaskId::new(3), Time::new(24));
        let mutated2 = delta2.apply(&mutated, &Pinning::new()).unwrap().graph;
        let red2 = slicer.redistribute(&mutated2, &p, &mut memo).unwrap();
        assert!(!red2.stats.fell_back);
        assert_eq!(red2.assignment, slicer.distribute(&mutated2, &p).unwrap());
    }

    #[test]
    fn chained_deltas_stay_bit_identical() {
        let g = chain(&[10, 30, 20, 40, 15, 25], 500);
        let p = Platform::paper(4).unwrap();
        let slicer = Slicer::ast_adapt();
        let mut memo = SliceMemo::new();
        slicer.distribute_traced(&g, &p, &mut memo).unwrap();
        let mut current = g;
        for (node, wcet) in [(1u32, 45i64), (3, 10), (1, 30), (5, 60)] {
            let delta = GraphDelta::new().set_wcet(SubtaskId::new(node), Time::new(wcet));
            current = delta.apply(&current, &Pinning::new()).unwrap().graph;
            let red = slicer.redistribute(&current, &p, &mut memo).unwrap();
            assert!(!red.stats.fell_back);
            assert_eq!(red.assignment, slicer.distribute(&current, &p).unwrap());
        }
    }
}
