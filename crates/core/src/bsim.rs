//! Bounded simulation — the paper's core matching semantics.
//!
//! `M(Q,G)` is the maximum relation such that each match `(u, v)` satisfies
//! `u`'s search condition and, for every pattern edge `(u, u')` with bound
//! `b`, some match `v'` of `u'` is reachable from `v` by a *non-empty* path
//! of length ≤ `b` (paper §II "Bounded simulation", after \[Fan et al.,
//! PVLDB 2010\]).
//!
//! ## Algorithm
//!
//! Greatest-fixpoint refinement over candidate sets:
//!
//! 1. `sim(u)` ← nodes satisfying `u`'s predicate;
//! 2. for a pattern edge `e = (u, u')`: let `R_e` = every node with a
//!    non-empty ≤`b`-path to some member of `sim(u')` — one multi-source
//!    reverse bounded BFS over the data graph, `O(|G|)`;
//!    then `sim(u) ← sim(u) ∩ R_e`;
//! 3. when `sim(u)` shrinks, re-queue the edges *entering* `u` (their
//!    source sets may now be too large); repeat until stable.
//!
//! Each shrink event re-queues at most `deg_Q` edges and each refresh is
//! linear in `|G|`, giving the cubic worst case the paper quotes, but in
//! practice a handful of refreshes per edge. The refresh *order* is the
//! "query plan": [`PlanMode::Selective`] starts from the most selective
//! target sets, which empirically halves refresh counts (ablation E12).
//!
//! Two interchangeable engines compute the fixpoint
//! ([`EvalOptions::engine`]): the default [`FixpointEngine::Frontier`]
//! runs the delta-aware loop of [`crate::fixpoint`] (word-parallel BFS,
//! refresh memoization, dirty-counter skipping, reusable
//! [`EvalScratch`]); [`FixpointEngine::Queue`] is the original
//! queue-based loop, kept verbatim as the correctness oracle and the
//! benchmark baseline. Both compute the same greatest fixpoint
//! bit-for-bit (property-tested).

use crate::candidate_sets_classed;
use crate::eval::{evaluate, EvalError, EvalRequest, Semantics};
use crate::fixpoint::{refine_constraints, Cancelled, Constraint, EvalScratch, IndexCtx};
use crate::matchrel::MatchRelation;
use expfinder_graph::bfs::{BfsScratch, Direction};
use expfinder_graph::{BitSet, CancelToken, GraphView, ReachProvider};
use expfinder_pattern::Pattern;

/// Refresh-order heuristic ("query plan").
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum PlanMode {
    /// Process pattern edges with the smallest target candidate sets first.
    #[default]
    Selective,
    /// Process pattern edges in declaration order (baseline for E12).
    DeclarationOrder,
}

/// Which fixpoint loop evaluates the refinement.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum FixpointEngine {
    /// Delta-aware frontier engine: direction-optimizing bitset BFS,
    /// per-edge reach memoization, dirty-counter refresh skipping.
    #[default]
    Frontier,
    /// The original queue-based multi-source BFS loop — the oracle the
    /// frontier engine is property-tested against, and the "old path" of
    /// the `bench_match` comparison.
    Queue,
}

/// Evaluation options.
#[derive(Copy, Clone, Debug, Default)]
pub struct EvalOptions {
    pub plan: PlanMode,
    pub engine: FixpointEngine,
}

impl EvalOptions {
    /// Default engine with an explicit plan mode.
    pub fn with_plan(plan: PlanMode) -> EvalOptions {
        EvalOptions {
            plan,
            ..EvalOptions::default()
        }
    }

    /// The queue-based oracle engine with the default plan.
    pub fn queue() -> EvalOptions {
        EvalOptions {
            engine: FixpointEngine::Queue,
            ..EvalOptions::default()
        }
    }
}

/// Counters describing how much work one evaluation did.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of per-edge refreshes (reach-set computations).
    pub refreshes: usize,
    /// Total candidate removals across all pattern nodes.
    pub removals: usize,
    /// Queued refreshes skipped because the seed set had not shrunk since
    /// the constraint's last refresh (frontier engine only).
    pub refreshes_skipped: usize,
    /// Nodes marked visited across all reach traversals — the traversal
    /// work the refresh memoization exists to cut.
    pub bfs_nodes_visited: usize,
    /// First refreshes served from a per-snapshot
    /// [`ReachIndex`](expfinder_graph::ReachIndex) entry instead of a BFS
    /// (indexed evaluations only — zero without a provider).
    pub index_hits: usize,
    /// First refreshes that consulted the provider but fell back to the
    /// BFS (the seed set was not a full label class, or the view has no
    /// class for the label). Zero without a provider.
    pub index_misses: usize,
}

/// Compute the maximum bounded simulation `M(Q,G)` with default options.
/// Never fails — the `Result` is kept for signature parity with
/// [`crate::graph_simulation`].
pub fn bounded_simulation<G: GraphView + Sync>(
    g: &G,
    q: &Pattern,
) -> Result<MatchRelation, crate::MatchError> {
    evaluate(g, q, EvalRequest::new(Semantics::Bounded))
        .map(|(m, _)| m)
        .map_err(EvalError::uncancelled)
}

/// [`bounded_simulation`] against a caller-owned [`EvalScratch`],
/// consulting a per-snapshot [`ReachProvider`] before class-seeded first
/// refreshes fall back to BFS; also returns work counters. The provider
/// must be bound to the same snapshot as `g`; results are bit-identical
/// either way (the entry is exactly the BFS answer), only
/// `EvalStats::index_hits` and the traversal work change.
pub fn bounded_simulation_indexed<G: GraphView + Sync>(
    g: &G,
    q: &Pattern,
    opts: EvalOptions,
    scratch: &mut EvalScratch,
    index: Option<&dyn ReachProvider>,
) -> (MatchRelation, EvalStats) {
    let req = EvalRequest {
        options: opts,
        scratch: Some(scratch),
        index,
        ..EvalRequest::new(Semantics::Bounded)
    };
    match evaluate(g, q, req) {
        Ok(r) => r,
        Err(_) => unreachable!("bounded simulation takes any pattern and no token"),
    }
}

/// The sequential bounded-simulation engines behind [`evaluate`]: seed
/// the candidate sets, then run the fixpoint `opts.engine` names with
/// paper semantics (early exit when a pattern node dies, collapse to the
/// empty relation).
pub(crate) fn bounded_sequential<G: GraphView>(
    g: &G,
    q: &Pattern,
    opts: EvalOptions,
    scratch: &mut EvalScratch,
    index: Option<&dyn ReachProvider>,
    cancel: Option<&CancelToken>,
) -> Result<(MatchRelation, EvalStats), Cancelled> {
    let (sim, classes) = candidate_sets_classed(g, q);
    let (sets, stats) = bounded_fixpoint(g, q, sim, opts, true, scratch, &classes, index, cancel)?;
    Ok((MatchRelation::from_sets(sets, g.node_count()), stats))
}

/// The raw refinement fixpoint over caller-seeded candidate sets. With
/// `early_exit` the computation stops as soon as any pattern node has no
/// matches (cheaper, but the returned sets are then only *some*
/// under-approximation of the true greatest fixpoint for the other
/// nodes); without it, the exact raw GFP is computed — the incremental
/// module persists that as its state. `scratch` and `cancel` serve the
/// frontier engine; the [`FixpointEngine::Queue`] oracle ignores both. On
/// abort the partially refined sets are dropped; nothing durable was
/// mutated.
#[allow(clippy::type_complexity)]
pub fn bounded_fixpoint_raw<G: GraphView>(
    g: &G,
    q: &Pattern,
    sim: Vec<BitSet>,
    opts: EvalOptions,
    early_exit: bool,
    scratch: &mut EvalScratch,
    cancel: Option<&CancelToken>,
) -> Result<(Vec<BitSet>, EvalStats), Cancelled> {
    bounded_fixpoint(g, q, sim, opts, early_exit, scratch, &[], None, cancel)
}

/// The fixpoint `opts.engine` names. The frontier engine carries the
/// reach-index hook: `classes` marks which candidate sets were seeded as
/// full label classes (empty slice = no markers), `index` is the
/// per-snapshot provider (None = plain BFS).
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn bounded_fixpoint<G: GraphView>(
    g: &G,
    q: &Pattern,
    mut sim: Vec<BitSet>,
    opts: EvalOptions,
    early_exit: bool,
    scratch: &mut EvalScratch,
    classes: &[Option<expfinder_graph::Sym>],
    index: Option<&dyn ReachProvider>,
    cancel: Option<&CancelToken>,
) -> Result<(Vec<BitSet>, EvalStats), Cancelled> {
    if opts.engine == FixpointEngine::Queue {
        return Ok(bounded_fixpoint_queue(g, q, sim, opts, early_exit));
    }
    let constraints: Vec<Constraint> = q
        .edges()
        .iter()
        .map(|e| Constraint {
            constrained: e.from,
            seeds: e.to,
            depth: e.bound.depth(),
            dir: Direction::Backward,
        })
        .collect();
    let ictx = index.map(|provider| IndexCtx {
        provider,
        class_of: classes,
    });
    let (died, stats) = refine_constraints(
        g,
        q.node_count(),
        &constraints,
        &mut sim,
        opts.plan,
        early_exit,
        scratch,
        ictx,
        cancel,
    )?;
    if died {
        // some pattern node became unmatchable: M(Q,G) = ∅
        for s in &mut sim {
            s.clear();
        }
    }
    Ok((sim, stats))
}

/// The original queue-based fixpoint — the [`FixpointEngine::Queue`]
/// oracle.
fn bounded_fixpoint_queue<G: GraphView>(
    g: &G,
    q: &Pattern,
    mut sim: Vec<BitSet>,
    opts: EvalOptions,
    early_exit: bool,
) -> (Vec<BitSet>, EvalStats) {
    let n = g.node_count();
    let ne = q.edge_count();
    let mut stats = EvalStats::default();

    if ne == 0 {
        return (sim, stats);
    }

    // initial processing order = the "query plan"
    let mut order: Vec<usize> = (0..ne).collect();
    if opts.plan == PlanMode::Selective {
        order.sort_by_key(|&ei| sim[q.edges()[ei].to.index()].count());
    }

    let mut in_queue = vec![true; ne];
    let mut queue: std::collections::VecDeque<usize> = order.into_iter().collect();

    let mut scratch = BfsScratch::new();
    let mut reach = BitSet::new(n);

    while let Some(ei) = queue.pop_front() {
        in_queue[ei] = false;
        let e = &q.edges()[ei];
        let (u, t, depth) = (e.from, e.to, e.bound.depth());

        stats.refreshes += 1;
        stats.bfs_nodes_visited +=
            scratch.multi_source_within(g, &sim[t.index()], depth, Direction::Backward, &mut reach);

        let before = sim[u.index()].count();
        sim[u.index()].intersect_with(&reach);
        let after = sim[u.index()].count();

        if after < before {
            stats.removals += before - after;
            if after == 0 && early_exit {
                // some pattern node became unmatchable: M(Q,G) = ∅
                for s in &mut sim {
                    s.clear();
                }
                return (sim, stats);
            }
            // sim(u) shrank: every edge whose *target* is u must re-check
            for &in_ei in q.in_edge_indices(u) {
                let in_ei = in_ei as usize;
                if !in_queue[in_ei] {
                    in_queue[in_ei] = true;
                    queue.push_back(in_ei);
                }
            }
        }
    }

    (sim, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_graph::fixtures::collaboration_fig1;
    use expfinder_graph::DiGraph;
    use expfinder_pattern::fixtures::fig1_pattern;
    use expfinder_pattern::{Bound, PatternBuilder, Predicate};

    fn bounded_simulation_with(
        g: &DiGraph,
        q: &Pattern,
        options: EvalOptions,
    ) -> (MatchRelation, EvalStats) {
        let req = EvalRequest {
            options,
            ..EvalRequest::new(Semantics::Bounded)
        };
        evaluate(g, q, req).unwrap()
    }

    #[test]
    fn paper_example1_match_set() {
        // Example 1: M(Q,G) = {(SA,Bob),(SA,Walt),(BA,Jean),(SD,Mat),
        //                      (SD,Dan),(SD,Pat),(ST,Eva)}
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let m = bounded_simulation(&f.graph, &q).unwrap();
        let sa = q.node_id("sa").unwrap();
        let sd = q.node_id("sd").unwrap();
        let ba = q.node_id("ba").unwrap();
        let st = q.node_id("st").unwrap();
        assert_eq!(m.matches_vec(sa), {
            let mut v = vec![f.bob, f.walt];
            v.sort();
            v
        });
        assert_eq!(m.matches_vec(ba), vec![f.jean]);
        assert_eq!(m.matches_vec(st), vec![f.eva]);
        let mut sd_expected = vec![f.mat, f.dan, f.pat];
        sd_expected.sort();
        assert_eq!(m.matches_vec(sd), sd_expected);
        assert_eq!(m.total_pairs(), 7);
    }

    #[test]
    fn paper_example3_after_e1_insertion() {
        let mut f = collaboration_fig1();
        let q = fig1_pattern();
        let before = bounded_simulation(&f.graph, &q).unwrap();
        f.graph.add_edge(f.e1.0, f.e1.1);
        let after = bounded_simulation(&f.graph, &q).unwrap();
        let delta = before.diff(&after);
        let sd = q.node_id("sd").unwrap();
        assert_eq!(delta, vec![(sd, f.fred, true)], "ΔM = {{(SD, Fred)}}");
    }

    #[test]
    fn bound_one_equals_simulation() {
        use expfinder_graph::generate::{erdos_renyi, NodeSpec};
        use expfinder_pattern::generate::{random_pattern, PatternConfig, PatternShape};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let spec = NodeSpec::uniform(3, 4);
        for trial in 0..25 {
            let g = erdos_renyi(&mut rng, 35, 150, &spec);
            let mut cfg = PatternConfig::new(PatternShape::Tree, 4, spec.labels.clone());
            cfg.bound_range = (1, 1);
            let q = random_pattern(&mut rng, &cfg);
            let b = bounded_simulation(&g, &q).unwrap();
            let s = crate::sim::graph_simulation(&g, &q).unwrap();
            assert_eq!(b, s, "trial {trial}: bsim(bounds=1) == simulation");
        }
    }

    #[test]
    fn agrees_with_naive_reference() {
        use expfinder_graph::generate::{erdos_renyi, NodeSpec};
        use expfinder_pattern::generate::{random_pattern, PatternConfig, PatternShape};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(13);
        let spec = NodeSpec::uniform(3, 4);
        for shape in [PatternShape::Chain, PatternShape::Cycle, PatternShape::Dag] {
            for trial in 0..12 {
                let g = erdos_renyi(&mut rng, 30, 120, &spec);
                let mut cfg = PatternConfig::new(shape, 4, spec.labels.clone());
                cfg.bound_range = (1, 3);
                cfg.extra_edges = 1;
                let q = random_pattern(&mut rng, &cfg);
                let fast = bounded_simulation(&g, &q).unwrap();
                let slow = crate::naive::naive_bounded_simulation(&g, &q);
                assert_eq!(fast, slow, "{shape:?} trial {trial} diverged");
            }
        }
    }

    #[test]
    fn unbounded_edge_is_reachability() {
        // chain A → x → x → B: bound * matches, bound 2 does not
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let x1 = g.add_node("X", []);
        let x2 = g.add_node("X", []);
        let b = g.add_node("B", []);
        g.add_edge(a, x1);
        g.add_edge(x1, x2);
        g.add_edge(x2, b);

        let star = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::Unbounded)
            .build()
            .unwrap();
        assert!(!bounded_simulation(&g, &star).unwrap().is_empty());

        let two = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::hops(2))
            .build()
            .unwrap();
        assert!(bounded_simulation(&g, &two).unwrap().is_empty());

        let three = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::hops(3))
            .build()
            .unwrap();
        assert!(!bounded_simulation(&g, &three).unwrap().is_empty());
    }

    #[test]
    fn nonempty_path_required_for_self_support() {
        // single node labelled A with *no* self-loop; pattern a →(≤2) a'
        // where both ask for label A: must fail (path must be non-empty).
        let mut g = DiGraph::new();
        let _a = g.add_node("A", []);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("a2", Predicate::label("A"))
            .edge("a", "a2", Bound::hops(2))
            .build()
            .unwrap();
        assert!(bounded_simulation(&g, &q).unwrap().is_empty());

        // with a self-loop it succeeds
        let mut g2 = DiGraph::new();
        let a = g2.add_node("A", []);
        g2.add_edge(a, a);
        assert!(!bounded_simulation(&g2, &q).unwrap().is_empty());
    }

    #[test]
    fn cyclic_pattern_mutual_support() {
        // data cycle 0(A) → 1(B) → 0; pattern cycle a ⇄ b with bounds 2
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let b = g.add_node("B", []);
        g.add_edge(a, b);
        g.add_edge(b, a);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::hops(2))
            .edge("b", "a", Bound::hops(2))
            .build()
            .unwrap();
        let m = bounded_simulation(&g, &q).unwrap();
        assert_eq!(m.total_pairs(), 2);
    }

    #[test]
    fn plan_modes_agree_on_result() {
        use expfinder_graph::generate::{erdos_renyi, NodeSpec};
        use expfinder_pattern::generate::{random_pattern, PatternConfig, PatternShape};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(17);
        let spec = NodeSpec::uniform(4, 5);
        for trial in 0..10 {
            let g = erdos_renyi(&mut rng, 60, 300, &spec);
            let cfg = PatternConfig::new(PatternShape::Dag, 5, spec.labels.clone());
            let q = random_pattern(&mut rng, &cfg);
            let (m1, _) =
                bounded_simulation_with(&g, &q, EvalOptions::with_plan(PlanMode::Selective));
            let (m2, _) =
                bounded_simulation_with(&g, &q, EvalOptions::with_plan(PlanMode::DeclarationOrder));
            assert_eq!(m1, m2, "trial {trial}: plans change cost, never results");
        }
    }

    #[test]
    fn stats_are_populated() {
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let (_, stats) = bounded_simulation_with(&f.graph, &q, EvalOptions::default());
        assert!(stats.refreshes >= q.edge_count());
        assert!(stats.bfs_nodes_visited > 0);
        let (_, old) = bounded_simulation_with(&f.graph, &q, EvalOptions::queue());
        assert!(old.refreshes >= q.edge_count());
        assert!(old.bfs_nodes_visited >= stats.bfs_nodes_visited);
    }

    #[test]
    fn engines_agree_and_scratch_is_reusable() {
        use crate::fixpoint::EvalScratch;
        use expfinder_graph::generate::{erdos_renyi, NodeSpec};
        use expfinder_pattern::generate::{random_pattern, PatternConfig, PatternShape};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(29);
        let spec = NodeSpec::uniform(3, 4);
        let mut scratch = EvalScratch::new();
        for trial in 0..20 {
            // varying graph sizes exercise cache resets between queries
            let g = erdos_renyi(&mut rng, 20 + trial * 3, 100 + trial * 10, &spec);
            let mut cfg = PatternConfig::new(PatternShape::Dag, 4, spec.labels.clone());
            cfg.bound_range = (1, 3);
            cfg.extra_edges = 2;
            let q = random_pattern(&mut rng, &cfg);
            let (old, _) = bounded_simulation_with(&g, &q, EvalOptions::queue());
            let (new, _) =
                bounded_simulation_indexed(&g, &q, EvalOptions::default(), &mut scratch, None);
            assert_eq!(old, new, "trial {trial}: engines diverged");
        }
    }

    #[test]
    fn indexed_evaluation_hits_on_class_seeded_constraints() {
        use expfinder_graph::{CsrGraph, ReachIndex};
        let f = collaboration_fig1();
        let csr = CsrGraph::snapshot(&f.graph);
        // pure-label star: both constraints shrink `sa` and are seeded
        // from untouched leaf classes, so both first refreshes are
        // class-seeded (a *chain* would shrink the interior seed set
        // before its upstream edge refreshes — that one must miss)
        let q = PatternBuilder::new()
            .node("sa", Predicate::label("SA"))
            .node("sd", Predicate::label("SD"))
            .node("st", Predicate::label("ST"))
            .edge("sa", "sd", Bound::hops(2))
            .edge("sa", "st", Bound::hops(2))
            .build()
            .unwrap();
        let mut scratch = EvalScratch::new();
        let (plain, base) =
            bounded_simulation_indexed(&csr, &q, EvalOptions::default(), &mut scratch, None);
        assert_eq!(base.index_hits, 0, "no provider, no hits");

        let idx = ReachIndex::new(csr.version());
        let bound = idx.bind(&csr);
        let (cold, s1) = bounded_simulation_indexed(
            &csr,
            &q,
            EvalOptions::default(),
            &mut scratch,
            Some(&bound),
        );
        assert_eq!(cold, plain, "index never changes results");
        assert_eq!(s1.index_hits, 2, "both first refreshes are class-seeded");
        assert_eq!(s1.index_misses, 0);
        assert!(idx.len() >= 2, "entries memoized for the next query");

        // warm query: entries are reused, and the class-seeded traversal
        // work disappears entirely
        let (warm, s2) = bounded_simulation_indexed(
            &csr,
            &q,
            EvalOptions::default(),
            &mut scratch,
            Some(&bound),
        );
        assert_eq!(warm, plain);
        assert_eq!(s2.index_hits, 2);
        assert!(s2.bfs_nodes_visited < base.bfs_nodes_visited);

        // a residual-predicate seed is a miss, never a wrong answer
        let q2 = PatternBuilder::new()
            .node("sa", Predicate::label("SA"))
            .node(
                "sd",
                Predicate::label("SD").and(Predicate::attr_ge("experience", 0)),
            )
            .edge("sa", "sd", Bound::hops(2))
            .build()
            .unwrap();
        let (with_idx, s3) = bounded_simulation_indexed(
            &csr,
            &q2,
            EvalOptions::default(),
            &mut scratch,
            Some(&bound),
        );
        let (without, _) =
            bounded_simulation_indexed(&csr, &q2, EvalOptions::default(), &mut scratch, None);
        assert_eq!(with_idx, without);
        assert_eq!(
            s3.index_misses, 1,
            "attr residual disqualifies the seed class"
        );
    }

    #[test]
    fn empty_candidate_set_fails_fast() {
        let f = collaboration_fig1();
        let q = PatternBuilder::new()
            .node("x", Predicate::label("CEO"))
            .node("y", Predicate::label("SA"))
            .edge("y", "x", Bound::hops(2))
            .build()
            .unwrap();
        let m = bounded_simulation(&f.graph, &q).unwrap();
        assert!(m.is_empty());
    }
}
