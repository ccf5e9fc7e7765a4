//! Plain graph simulation — the quadratic-time special case.
//!
//! This is the algorithm the paper's query engine uses for queries whose
//! bounds are all 1 ("a quadratic-time algorithm \[HHK, FOCS 1995\]").
//! The formulation below is the standard counter-based refinement:
//!
//! * `sim(u)` starts as the predicate-satisfying candidate set;
//! * for every pattern edge `e = (u, u')` and data node `v`,
//!   `cnt[e][v] = |succ(v) ∩ sim(u')|`;
//! * whenever a node drops out of `sim(u')`, the counters of its
//!   predecessors are decremented; hitting zero removes the predecessor
//!   from `sim(u)` and cascades.
//!
//! The result is the greatest fixpoint, i.e. the maximum simulation
//! relation, in `O(|Q| · |G|)` time and space.

use crate::bsim::EvalStats;
use crate::eval::{evaluate, EvalError, EvalRequest, Semantics};
use crate::fixpoint::{Cancelled, EvalScratch};
use crate::matchrel::MatchRelation;
use crate::{candidate_sets, MatchError};
use expfinder_graph::{BitSet, CancelToken, GraphView, NodeId};
use expfinder_pattern::{PNodeId, Pattern};

/// Compute the maximum graph simulation `M(Q,G)`.
///
/// Errors with [`MatchError::NotASimulationPattern`] if any bound exceeds
/// one hop — those queries belong to [`crate::bounded_simulation`].
pub fn graph_simulation<G: GraphView + Sync>(
    g: &G,
    q: &Pattern,
) -> Result<MatchRelation, MatchError> {
    evaluate(g, q, EvalRequest::new(Semantics::Simulation))
        .map(|(m, _)| m)
        .map_err(EvalError::uncancelled)
}

/// The sequential plain-simulation engine behind [`evaluate`] (which has
/// already checked that `q` is a simulation pattern): the per-edge
/// counter arrays and the removal queue come from `scratch`, and `cancel`
/// is checked once per pattern edge during the counter build and every
/// 1024 removals in the cascade, the counter fixpoint's analogue of the
/// frontier engine's refresh boundaries. Reports removal counters only.
/// The scratch buffers are zero-filled on the next checkout, so an abort
/// leaves no residue.
pub(crate) fn simulation_sequential<G: GraphView>(
    g: &G,
    q: &Pattern,
    scratch: &mut EvalScratch,
    cancel: Option<&CancelToken>,
) -> Result<(MatchRelation, EvalStats), Cancelled> {
    let n = g.node_count();
    let mut sim = candidate_sets(g, q);
    let (cnt, queue) = scratch.sim_buffers(q.edge_count(), n);
    let removals = simulation_fixpoint_cancel(g, q, &mut sim, cnt, queue, cancel)?;
    let stats = EvalStats {
        removals,
        ..EvalStats::default()
    };
    Ok((MatchRelation::from_sets(sim, n), stats))
}

/// The refinement fixpoint, exposed for the incremental module which needs
/// the *raw* (uncollapsed) greatest-fixpoint sets and the final counters as
/// its persistent state. Returns the per-pattern-node match sets plus
/// `cnt[e][v]` for every pattern edge `e` (indexed as in `q.edges()`).
/// Callers wanting paper semantics apply [`MatchRelation::from_sets`].
pub fn simulation_fixpoint<G: GraphView>(
    g: &G,
    q: &Pattern,
    mut sim: Vec<BitSet>,
) -> (Vec<BitSet>, Vec<Vec<u32>>) {
    let n = g.node_count();
    let mut cnt: Vec<Vec<u32>> = vec![vec![0; n]; q.edge_count()];
    let mut queue: Vec<(PNodeId, NodeId)> = Vec::new();
    match simulation_fixpoint_cancel(g, q, &mut sim, &mut cnt, &mut queue, None) {
        Ok(_) => {}
        Err(_) => unreachable!("no cancel token supplied"),
    }
    (sim, cnt)
}

/// The counter-based refinement over caller-provided (zeroed) buffers;
/// returns the number of pairs removed from the candidate sets, or
/// [`Cancelled`] once `cancel` fires (then `sim` is torn and the caller
/// discards it).
fn simulation_fixpoint_cancel<G: GraphView>(
    g: &G,
    q: &Pattern,
    sim: &mut [BitSet],
    cnt: &mut [Vec<u32>],
    queue: &mut Vec<(PNodeId, NodeId)>,
    cancel: Option<&CancelToken>,
) -> Result<usize, Cancelled> {
    // cnt[e][v] = |succ(v) ∩ sim(target(e))| for ALL data nodes v (not just
    // candidates): the incremental module needs counters of non-members to
    // detect re-additions cheaply.
    for (ei, e) in q.edges().iter().enumerate() {
        // per-edge cancellation point: each counter sweep is O(|G|)
        if cancel.is_some_and(|t| t.is_cancelled()) {
            return Err(Cancelled {
                stats: EvalStats::default(),
            });
        }
        let target = &sim[e.to.index()];
        let c = &mut cnt[ei];
        for v in g.ids() {
            let mut k = 0u32;
            for &w in g.out_neighbors(v) {
                if target.contains(w) {
                    k += 1;
                }
            }
            c[v.index()] = k;
        }
    }

    // initial violations
    let mut removals = 0usize;
    for (ei, e) in q.edges().iter().enumerate() {
        let u = e.from;
        let mut doomed: Vec<NodeId> = Vec::new();
        for v in sim[u.index()].iter() {
            if cnt[ei][v.index()] == 0 {
                doomed.push(v);
            }
        }
        for v in doomed {
            if sim[u.index()].remove(v) {
                queue.push((u, v));
            }
        }
    }

    // cascade
    while let Some((u, v)) = queue.pop() {
        // cascade cancellation point, amortized over 1024 removals
        if removals & 1023 == 0 && cancel.is_some_and(|t| t.is_cancelled()) {
            return Err(Cancelled {
                stats: EvalStats {
                    removals,
                    ..EvalStats::default()
                },
            });
        }
        removals += 1;
        // v left sim(u): decrement counters of every edge targeting u
        for &ei in q.in_edge_indices(u) {
            let e = &q.edges()[ei as usize];
            let from = e.from;
            for &p in g.in_neighbors(v) {
                let c = &mut cnt[ei as usize][p.index()];
                debug_assert!(*c > 0, "counter underflow");
                *c -= 1;
                if *c == 0 && sim[from.index()].remove(p) {
                    queue.push((from, p));
                }
            }
        }
    }
    Ok(removals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_graph::fixtures::collaboration_fig1;
    use expfinder_graph::DiGraph;
    use expfinder_pattern::fixtures::fig1_pattern_simulation;
    use expfinder_pattern::{Bound, PatternBuilder, Predicate};

    fn chain_graph(labels: &[&str]) -> DiGraph {
        let mut g = DiGraph::new();
        let ids: Vec<_> = labels.iter().map(|l| g.add_node(l, [])).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        g
    }

    #[test]
    fn matches_simple_chain() {
        let g = chain_graph(&["A", "B", "C"]);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::ONE)
            .build()
            .unwrap();
        let m = graph_simulation(&g, &q).unwrap();
        assert!(!m.is_empty());
        assert!(m.contains(q.node_id("a").unwrap(), NodeId(0)));
        assert!(m.contains(q.node_id("b").unwrap(), NodeId(1)));
        assert_eq!(m.total_pairs(), 2);
    }

    #[test]
    fn cascading_removal() {
        // A → B, but B has no C successor, so pattern a→b→c kills all.
        let g = chain_graph(&["A", "B", "X"]);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .node("c", Predicate::label("C"))
            .edge("a", "b", Bound::ONE)
            .edge("b", "c", Bound::ONE)
            .build()
            .unwrap();
        let m = graph_simulation(&g, &q).unwrap();
        assert!(m.is_empty());
    }

    #[test]
    fn cyclic_pattern_on_cyclic_data() {
        // data: 0 ⇄ 1 labelled A,B; pattern a ⇄ b
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let b = g.add_node("B", []);
        g.add_edge(a, b);
        g.add_edge(b, a);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::ONE)
            .edge("b", "a", Bound::ONE)
            .build()
            .unwrap();
        let m = graph_simulation(&g, &q).unwrap();
        assert_eq!(m.total_pairs(), 2);
    }

    #[test]
    fn cyclic_pattern_on_acyclic_data_fails() {
        let g = chain_graph(&["A", "B"]);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::ONE)
            .edge("b", "a", Bound::ONE)
            .build()
            .unwrap();
        assert!(graph_simulation(&g, &q).unwrap().is_empty());
    }

    #[test]
    fn multiple_matches_per_pattern_node() {
        // two A-nodes both pointing at a B-node
        let mut g = DiGraph::new();
        let a1 = g.add_node("A", []);
        let a2 = g.add_node("A", []);
        let b = g.add_node("B", []);
        g.add_edge(a1, b);
        g.add_edge(a2, b);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::ONE)
            .build()
            .unwrap();
        let m = graph_simulation(&g, &q).unwrap();
        assert_eq!(m.matches_vec(q.node_id("a").unwrap()), vec![a1, a2]);
    }

    #[test]
    fn rejects_bounded_pattern() {
        let g = chain_graph(&["A", "B"]);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::hops(2))
            .build()
            .unwrap();
        assert_eq!(
            graph_simulation(&g, &q).unwrap_err(),
            MatchError::NotASimulationPattern
        );
    }

    #[test]
    fn paper_claim_simulation_fails_on_fig1() {
        // §II: "graph simulation only allows edge to edge matching" — the
        // Fig. 1 query has no simulation match.
        let f = collaboration_fig1();
        let q = fig1_pattern_simulation();
        let m = graph_simulation(&f.graph, &q).unwrap();
        assert!(m.is_empty());
    }

    #[test]
    fn single_node_pattern_is_predicate_filter() {
        let g = chain_graph(&["A", "A", "B"]);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .build()
            .unwrap();
        let m = graph_simulation(&g, &q).unwrap();
        assert_eq!(m.total_pairs(), 2);
    }

    #[test]
    fn agrees_with_naive_reference() {
        use expfinder_graph::generate::{erdos_renyi, NodeSpec};
        use expfinder_pattern::generate::{random_pattern, PatternConfig, PatternShape};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(42);
        let spec = NodeSpec::uniform(3, 4);
        let labels: Vec<String> = spec.labels.clone();
        for trial in 0..30 {
            let g = erdos_renyi(&mut rng, 40, 160, &spec);
            let mut cfg = PatternConfig::new(PatternShape::Dag, 4, labels.clone());
            cfg.bound_range = (1, 1);
            cfg.extra_edges = 2;
            let q = random_pattern(&mut rng, &cfg);
            let fast = graph_simulation(&g, &q).unwrap();
            let slow = crate::naive::naive_simulation(&g, &q);
            assert_eq!(fast, slow, "trial {trial} diverged");
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        use expfinder_graph::generate::{erdos_renyi, NodeSpec};
        use expfinder_pattern::generate::{random_pattern, PatternConfig, PatternShape};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(91);
        let spec = NodeSpec::uniform(3, 4);
        let mut scratch = EvalScratch::new();
        for trial in 0..12 {
            // varying graph sizes exercise the buffer resize between queries
            let g = erdos_renyi(&mut rng, 25 + trial * 4, 120, &spec);
            let mut cfg = PatternConfig::new(PatternShape::Dag, 4, spec.labels.clone());
            cfg.bound_range = (1, 1);
            let q = random_pattern(&mut rng, &cfg);
            let plain = graph_simulation(&g, &q).unwrap();
            let req = EvalRequest {
                scratch: Some(&mut scratch),
                ..EvalRequest::new(Semantics::Simulation)
            };
            let (with_scratch, _) = evaluate(&g, &q, req).unwrap();
            assert_eq!(plain, with_scratch, "trial {trial} diverged");
        }
    }
}
