//! Re-slicing a resident graph after a [`GraphDelta`](crate::GraphDelta).
//!
//! [`Slicer::redistribute`] runs the very loop [`Slicer::distribute`] runs,
//! so its result is bit-identical by construction. What it saves is the
//! preparation: a [`SliceMemo`] keeps the [`SliceInputs`] of the previous
//! run, and while the delta leaves the graph's subtasks and edges as they
//! were (WCET, anchor and pin deltas do), the memoized expanded graph is
//! reused with its task weights re-read instead of being rebuilt. Virtual
//! weights are recomputed either way; [`RedistributeStats`] counts the
//! ones that moved.
//!
//! Per-start critical-path searches are reused *within* every slicing run
//! (see `path_search::StartTable`), not across runs: against that reuse a
//! cross-run replay bought ~1.1x on the delta stress point
//! (EXPERIMENTS.md, "Incremental deltas").
//!
//! # Fallback
//!
//! The memo is unusable, and the call prepares its inputs from scratch
//! ([`RedistributeStats::fell_back`]), when it is unprimed, when the slicer
//! configuration or platform changed, or when the delta changed the
//! graph's subtasks or edges. Either way the memo is refreshed to describe
//! this run, so deltas can be chained.

use platform::Platform;
use taskgraph::TaskGraph;

use crate::{DeadlineAssignment, ShareRule, SliceError, SliceInputs, Slicer};

/// The prepared inputs of a previous slicing run, consumed and refreshed
/// by [`Slicer::redistribute`].
///
/// Create one with [`SliceMemo::new`] (unprimed), then prime it with
/// [`Slicer::distribute_traced`] or let the first `redistribute` fall back
/// and prime it. A memo is tied to the slicer configuration and platform
/// it was primed with; mismatches are detected and degrade to a full
/// preparation rather than an error.
#[derive(Debug, Default, Clone)]
pub struct SliceMemo {
    inner: Option<MemoInner>,
}

impl SliceMemo {
    /// An unprimed memo: the next redistribute falls back and primes it.
    pub fn new() -> Self {
        SliceMemo::default()
    }

    /// Returns `true` once a run has primed the memo.
    pub fn is_primed(&self) -> bool {
        self.inner.is_some()
    }
}

#[derive(Debug, Clone)]
struct MemoInner {
    fingerprint: Fingerprint,
    graph_sig: GraphSig,
    inputs: SliceInputs,
}

/// The configuration a memo was primed under. Virtual times are
/// recomputed on every call, so metric *parameters* (e.g. a THRES
/// surplus) need not be captured here — only inputs that the memoized
/// expanded graph depends on or that change behaviour outright.
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
/// memoized expanded graph is valid verbatim except for task-node
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

/// Counters from one [`Slicer::redistribute`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RedistributeStats {
    /// Per-start critical-path searches answered from the run's search
    /// table instead of re-running the DP.
    pub cache_hits: u64,
    /// Per-start critical-path searches that ran the DP.
    pub cache_misses: u64,
    /// Expanded nodes whose virtual weight differs from the memo's.
    pub dirty_nodes: u64,
    /// Expanded nodes compared against the memo: all of them when the
    /// memo was usable, none when the call fell back. The denominator for
    /// [`dirty_frac`](Self::dirty_frac).
    pub scanned_nodes: u64,
    /// Whether the memo was unusable and the inputs were prepared from
    /// scratch.
    pub fell_back: bool,
}

impl RedistributeStats {
    /// Fraction of compared expanded nodes whose virtual weight moved
    /// (`0.0` when nothing was compared).
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
    /// Reuse counters for telemetry.
    pub stats: RedistributeStats,
}

impl Slicer {
    /// [`distribute`](Slicer::distribute), additionally priming `memo` so a
    /// later [`redistribute`](Slicer::redistribute) can reuse this run's
    /// inputs.
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
        self.redistribute(graph, platform, memo)
            .map(|r| r.assignment)
    }

    /// Recomputes the deadline assignment for `graph` — typically the
    /// output of [`GraphDelta::apply`](crate::GraphDelta::apply) on the
    /// memoized run's graph — reusing the memoized expanded graph when the
    /// delta left the graph's subtasks and edges intact.
    ///
    /// The result is bit-identical to `self.distribute(graph, platform)`.
    /// `memo` is refreshed to describe this run, so deltas can be chained.
    /// See this module's source docs for the fallback conditions.
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
        let _span = tracing::debug_span!("redistribute").entered();
        let fingerprint = self.fingerprint(platform);
        let graph_sig = GraphSig::of(graph);
        let mut stats = RedistributeStats::default();
        let inputs = match memo.inner.take() {
            Some(inner) if inner.fingerprint == fingerprint && inner.graph_sig == graph_sig => {
                let SliceInputs { mut exp, vweights } = inner.inputs;
                exp.refresh_task_weights(graph);
                let inputs = self.inputs_over(graph, platform, exp);
                stats.scanned_nodes = vweights.len() as u64;
                stats.dirty_nodes = vweights
                    .iter()
                    .zip(&inputs.vweights)
                    .filter(|(a, b)| a.to_bits() != b.to_bits())
                    .count() as u64;
                inputs
            }
            _ => {
                stats.fell_back = true;
                self.prepare(graph, platform)
            }
        };
        let (assignment, counts) = self.slice_loop(graph, &inputs, |_| {})?;
        stats.cache_hits = counts.reused;
        stats.cache_misses = counts.searched;
        memo.inner = Some(MemoInner {
            fingerprint,
            graph_sig,
            inputs,
        });
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
}

#[cfg(test)]
mod tests {
    use platform::Pinning;
    use taskgraph::{Subtask, SubtaskId};

    use taskgraph::Time;

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
    fn wcet_and_identity_deltas_reuse_the_memo() {
        let g = chain(&[10, 30, 20, 40, 15], 400);
        let p = Platform::paper(4).unwrap();
        let slicer = Slicer::bst_pure();
        let mut memo = SliceMemo::new();
        let primed = slicer.distribute_traced(&g, &p, &mut memo).unwrap();

        let identity = slicer.redistribute(&g, &p, &mut memo).unwrap();
        assert_eq!(identity.assignment, primed);
        assert!(!identity.stats.fell_back);
        assert_eq!(identity.stats.dirty_nodes, 0);
        assert_eq!(identity.stats.dirty_frac(), 0.0);

        let wcet = GraphDelta::new().set_wcet(SubtaskId::new(3), Time::new(36));
        let applied = wcet.apply(&g, &Pinning::new()).unwrap();
        let red = slicer.redistribute(&applied.graph, &p, &mut memo).unwrap();
        assert_eq!(
            red.assignment,
            slicer.distribute(&applied.graph, &p).unwrap()
        );
        assert!(!red.stats.fell_back);
        assert_eq!(red.stats.dirty_nodes, 1);
        assert_eq!(red.stats.scanned_nodes, 5);
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

    /// Two parallel branches between a forked source and a joined sink, so
    /// per-start winners can avoid a perturbed branch.
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
        // negative: a WCET decrease must still give the from-scratch result.
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
        // Anchor deltas keep the graph's subtasks and edges, so the memo
        // stays usable while the first iteration's state changes.
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
