//! Bounded **dual** simulation — an extension beyond the paper.
//!
//! Plain (bounded) simulation only constrains *successors*: a match of `u`
//! must reach matches of `u'`'s for every pattern edge `(u, u')`. Dual
//! simulation (introduced for "strong simulation", Ma et al., VLDB 2011 —
//! follow-up work by the same group) additionally constrains
//! *predecessors*: a match of `u'` must also be **reached by** some match
//! of `u` within the bound. This prunes spurious matches that merely have
//! the right downstream structure, at the same asymptotic cost.
//!
//! The implementation generalizes the refinement fixpoint of
//! [`crate::bsim`]: every pattern edge contributes two constraints —
//! a forward one on `sim(from)` (reverse bounded BFS from `sim(to)`) and a
//! backward one on `sim(to)` (forward bounded BFS from `sim(from)`).
//!
//! Invariant (property-tested): the dual result is always a subset of the
//! bounded-simulation result, and on the paper's Fig. 1 both coincide —
//! the hiring team is "dual-clean".

use crate::bsim::{EvalOptions, EvalStats, FixpointEngine};
use crate::eval::{evaluate, EvalRequest, Semantics};
use crate::fixpoint::{refine_constraints, Cancelled, Constraint, EvalScratch, IndexCtx};
use crate::matchrel::MatchRelation;
use crate::{candidate_sets, candidate_sets_classed};
use expfinder_graph::bfs::{BfsScratch, Direction};
use expfinder_graph::{BitSet, CancelToken, GraphView, ReachProvider};
use expfinder_pattern::Pattern;

/// Compute the maximum bounded **dual** simulation relation.
pub fn dual_simulation<G: GraphView + Sync>(g: &G, q: &Pattern) -> MatchRelation {
    match evaluate(g, q, EvalRequest::new(Semantics::Dual)) {
        Ok((m, _)) => m,
        Err(_) => unreachable!("dual simulation takes any pattern and no token"),
    }
}

/// The sequential dual-simulation engines behind [`evaluate`]. On the
/// frontier engine every pattern edge contributes two constraints
/// (forward child-support, backward parent-support); both flow through
/// the same delta-aware refinement as bounded simulation, and both are
/// eligible for the reach `index` — it is keyed by direction.
pub(crate) fn dual_sequential<G: GraphView>(
    g: &G,
    q: &Pattern,
    opts: EvalOptions,
    scratch: &mut EvalScratch,
    index: Option<&dyn ReachProvider>,
    cancel: Option<&CancelToken>,
) -> Result<(MatchRelation, EvalStats), Cancelled> {
    if opts.engine == FixpointEngine::Queue {
        return Ok(dual_fixpoint_queue(g, q));
    }
    let n = g.node_count();
    let ne = q.edge_count();
    let (mut sim, classes) = candidate_sets_classed(g, q);
    if ne == 0 {
        return Ok((MatchRelation::from_sets(sim, n), EvalStats::default()));
    }
    let mut constraints = Vec::with_capacity(ne * 2);
    for e in q.edges() {
        constraints.push(Constraint {
            constrained: e.from,
            seeds: e.to,
            depth: e.bound.depth(),
            dir: Direction::Backward,
        });
        constraints.push(Constraint {
            constrained: e.to,
            seeds: e.from,
            depth: e.bound.depth(),
            dir: Direction::Forward,
        });
    }
    let ictx = index.map(|provider| IndexCtx {
        provider,
        class_of: &classes,
    });
    let (died, stats) = refine_constraints(
        g,
        q.node_count(),
        &constraints,
        &mut sim,
        opts.plan,
        true,
        scratch,
        ictx,
        cancel,
    )?;
    if died {
        return Ok((MatchRelation::empty(q, n), stats));
    }
    Ok((MatchRelation::from_sets(sim, n), stats))
}

/// The original queue-based bidirectional fixpoint — the
/// [`FixpointEngine::Queue`] oracle.
fn dual_fixpoint_queue<G: GraphView>(g: &G, q: &Pattern) -> (MatchRelation, EvalStats) {
    let n = g.node_count();
    let ne = q.edge_count();
    let mut sim = candidate_sets(g, q);
    let mut stats = EvalStats::default();
    if ne == 0 {
        return (MatchRelation::from_sets(sim, n), stats);
    }

    // constraint ids: 2*e = forward side of edge e, 2*e+1 = backward side
    let total = ne * 2;
    let mut in_queue = vec![true; total];
    let mut queue: std::collections::VecDeque<usize> = (0..total).collect();

    let mut scratch = BfsScratch::new();
    let mut reach = BitSet::new(n);

    while let Some(cid) = queue.pop_front() {
        in_queue[cid] = false;
        let e = &q.edges()[cid / 2];
        let forward = cid % 2 == 0;
        let depth = e.bound.depth();

        // which set shrinks, and from which seeds reach is computed
        let (constrained, seeds, dir) = if forward {
            (e.from, e.to, Direction::Backward)
        } else {
            (e.to, e.from, Direction::Forward)
        };

        stats.refreshes += 1;
        stats.bfs_nodes_visited +=
            scratch.multi_source_within(g, &sim[seeds.index()], depth, dir, &mut reach);
        let before = sim[constrained.index()].count();
        sim[constrained.index()].intersect_with(&reach);
        let after = sim[constrained.index()].count();
        if after == before {
            continue;
        }
        stats.removals += before - after;
        if sim[constrained.index()].is_empty() {
            return (MatchRelation::empty(q, n), stats);
        }
        // sim(constrained) shrank: every constraint that *reads* it must
        // re-check — forward constraints of edges entering it, backward
        // constraints of edges leaving it.
        for &ei in q.in_edge_indices(constrained) {
            let c = (ei as usize) * 2;
            if !in_queue[c] {
                in_queue[c] = true;
                queue.push_back(c);
            }
        }
        for &ei in q.out_edge_indices(constrained) {
            let c = (ei as usize) * 2 + 1;
            if !in_queue[c] {
                in_queue[c] = true;
                queue.push_back(c);
            }
        }
    }

    (MatchRelation::from_sets(sim, n), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsim::bounded_simulation;
    use expfinder_graph::fixtures::collaboration_fig1;
    use expfinder_graph::{DiGraph, NodeId};
    use expfinder_pattern::fixtures::fig1_pattern;
    use expfinder_pattern::{Bound, PatternBuilder, Predicate};

    #[test]
    fn prunes_orphan_matches() {
        // pattern a → b. Data: a1 → b1, plus an orphan b2 with no parent.
        // Plain bounded simulation keeps b2 (no out-edge constraints on b);
        // dual simulation demands an incoming A within the bound.
        let mut g = DiGraph::new();
        let a1 = g.add_node("A", []);
        let b1 = g.add_node("B", []);
        let b2 = g.add_node("B", []);
        g.add_edge(a1, b1);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::hops(2))
            .build()
            .unwrap();
        let plain = bounded_simulation(&g, &q).unwrap();
        assert!(
            plain.contains(q.node_id("b").unwrap(), b2),
            "plain keeps orphan"
        );
        let dual = dual_simulation(&g, &q);
        assert!(dual.contains(q.node_id("b").unwrap(), b1));
        assert!(
            !dual.contains(q.node_id("b").unwrap(), b2),
            "dual prunes orphan"
        );
        assert_eq!(dual.total_pairs(), 2);
    }

    #[test]
    fn engines_agree_with_reused_scratch() {
        use crate::fixpoint::EvalScratch;
        use expfinder_graph::generate::{erdos_renyi, NodeSpec};
        use expfinder_pattern::generate::{random_pattern, PatternConfig, PatternShape};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1105);
        let spec = NodeSpec::uniform(3, 4);
        let mut scratch = EvalScratch::new();
        for trial in 0..15 {
            let g = erdos_renyi(&mut rng, 35, 150, &spec);
            let mut cfg = PatternConfig::new(PatternShape::Dag, 4, spec.labels.clone());
            cfg.bound_range = (1, 3);
            cfg.extra_edges = 1;
            let q = random_pattern(&mut rng, &cfg);
            let (old, _) = dual_fixpoint_queue(&g, &q);
            let (new, _) =
                dual_sequential(&g, &q, EvalOptions::default(), &mut scratch, None, None).unwrap();
            assert_eq!(old, new, "trial {trial}: dual engines diverged");
        }
    }

    #[test]
    fn dual_is_subset_of_bounded() {
        use expfinder_graph::generate::{erdos_renyi, NodeSpec};
        use expfinder_pattern::generate::{random_pattern, PatternConfig, PatternShape};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(404);
        let spec = NodeSpec::uniform(3, 4);
        for trial in 0..20 {
            let g = erdos_renyi(&mut rng, 40, 160, &spec);
            let cfg = PatternConfig::new(PatternShape::Dag, 4, spec.labels.clone());
            let q = random_pattern(&mut rng, &cfg);
            let plain = bounded_simulation(&g, &q).unwrap();
            let dual = dual_simulation(&g, &q);
            for (u, v) in dual.pairs() {
                assert!(plain.contains(u, v), "trial {trial}: dual ⊄ bounded");
            }
        }
    }

    #[test]
    fn fig1_team_is_dual_clean() {
        // the paper's team survives the stronger semantics unchanged
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let plain = bounded_simulation(&f.graph, &q).unwrap();
        let dual = dual_simulation(&f.graph, &q);
        assert_eq!(dual, plain, "Fig. 1 matches are parent-supported too");
        assert_eq!(dual.total_pairs(), 7);
    }

    #[test]
    fn cascades_bidirectionally() {
        // chain pattern a → b → c; killing c's match must cascade back
        // through b to a even though the failure is downstream.
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let b = g.add_node("B", []);
        let _c_orphan = g.add_node("C", []); // unreachable C
        g.add_edge(a, b);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .node("c", Predicate::label("C"))
            .edge("a", "b", Bound::ONE)
            .edge("b", "c", Bound::ONE)
            .build()
            .unwrap();
        let dual = dual_simulation(&g, &q);
        assert!(dual.is_empty(), "c unreachable → whole pattern dies");
    }

    #[test]
    fn dual_respects_bounds_on_parents() {
        // a →(1) m →(1) b: with bound 1 on (a,b) the parent constraint
        // fails; with bound 2 it holds.
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let m = g.add_node("M", []);
        let b = g.add_node("B", []);
        g.add_edge(a, m);
        g.add_edge(m, b);
        let build = |k| {
            PatternBuilder::new()
                .node("a", Predicate::label("A"))
                .node("b", Predicate::label("B"))
                .edge("a", "b", Bound::hops(k))
                .build()
                .unwrap()
        };
        assert!(dual_simulation(&g, &build(1)).is_empty());
        assert_eq!(dual_simulation(&g, &build(2)).total_pairs(), 2);
    }

    #[test]
    fn cyclic_mutual_support_survives() {
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
        assert_eq!(dual_simulation(&g, &q).total_pairs(), 2);
    }

    #[test]
    fn edgeless_pattern_is_predicate_filter() {
        let mut g = DiGraph::new();
        g.add_node("A", []);
        g.add_node("B", []);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .build()
            .unwrap();
        assert_eq!(dual_simulation(&g, &q).total_pairs(), 1);
    }

    #[test]
    fn dual_on_compressed_graph_agrees() {
        // dual simulation is also preserved by the bisimulation quotient?
        // Forward bisimulation does NOT preserve parent constraints in
        // general, so we do not claim it — this test documents the
        // behaviour on a case where it does hold (uniform hub/leaf).
        let mut g = DiGraph::new();
        let hub = g.add_node("A", []);
        let mut leaves = Vec::new();
        for _ in 0..4 {
            let l = g.add_node("B", []);
            g.add_edge(hub, l);
            leaves.push(l);
        }
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::ONE)
            .build()
            .unwrap();
        let dual = dual_simulation(&g, &q);
        assert_eq!(dual.total_pairs(), 5);
        let _ = NodeId(0);
    }
}
