//! Top-K ranking by social impact — the facility new in this paper.
//!
//! Paper §II "Results Ranking": for the output node `u_o` and a match `v`
//! in the result graph `G_r = (V_r, E_r)`,
//!
//! ```text
//! f(u_o, v) = ( Σ_{u ∈ V_r} dist(u, v)  +  Σ_{u' ∈ V_r} dist(v, u') ) / |V'_r|
//! ```
//!
//! where distances are shortest-path weights inside `G_r` and `V'_r` is the
//! set of nodes that can reach `v` or be reached from `v`. Lower is better:
//! the expert with the smallest average social distance to the rest of the
//! matched team has the strongest social impact. Example 2:
//! `f(SA, Bob) = 9/5`, `f(SA, Walt) = 7/3`, so Bob is the top-1 expert.
//!
//! Matches whose `V'_r` is empty (isolated in `G_r`) rank `+∞`, i.e. last.
//! Ties break by node id so results are deterministic, and the order
//! `(rank, node id)` is total — so the top `k'` is a prefix of the top `k`
//! for every `k' ≤ k`, which is what lets the engine's cache serve a
//! smaller request from a larger ranked answer.

use crate::eval::EvalError;
use crate::fixpoint::Cancelled;
use crate::matchrel::MatchRelation;
use crate::result_graph::ResultGraph;
use crate::MatchError;
use expfinder_graph::{dijkstra::UNREACHABLE, CancelToken, GraphView, NodeId};
use expfinder_pattern::Pattern;

/// A ranked match of the output node.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RankedMatch {
    pub node: NodeId,
    /// The social-impact rank `f(u_o, v)`; lower is better.
    pub rank: f64,
}

/// Compute `f(u_o, v)` for one match `v`. Returns `f64::INFINITY` when `v`
/// is isolated in the result graph (or not part of it).
pub fn rank_value(rg: &ResultGraph, v: NodeId) -> f64 {
    let (Some(from), Some(to)) = (rg.dists_from(v), rg.dists_to(v)) else {
        return f64::INFINITY;
    };
    let local = rg.local(v).expect("dists_from succeeded") as usize;
    let mut sum = 0u64;
    let mut connected = 0usize;
    for i in 0..rg.node_count() {
        if i == local {
            continue;
        }
        let d_from = from[i]; // dist(v, u')
        let d_to = to[i]; // dist(u, v)
        let reachable = d_from != UNREACHABLE || d_to != UNREACHABLE;
        if !reachable {
            continue;
        }
        connected += 1;
        if d_from != UNREACHABLE {
            sum += d_from;
        }
        if d_to != UNREACHABLE {
            sum += d_to;
        }
    }
    if connected == 0 {
        return f64::INFINITY;
    }
    sum as f64 / connected as f64
}

/// The total order experts are ranked by: ascending `(rank, node id)`.
/// Ranks are never NaN (`rank_value` yields finite sums or `+∞`), so the
/// `partial_cmp` fallback is unreachable and the order is total — which is
/// what makes the selection-based top-K below exact.
fn rank_order(a: &RankedMatch, b: &RankedMatch) -> std::cmp::Ordering {
    a.rank
        .partial_cmp(&b.rank)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.node.cmp(&b.node))
}

/// Rank every match of the output node; sorted ascending by
/// `(rank, node id)`.
pub fn rank_matches(
    rg: &ResultGraph,
    q: &Pattern,
    m: &MatchRelation,
) -> Result<Vec<RankedMatch>, MatchError> {
    rank_matches_top_k(rg, q, m, usize::MAX)
}

/// The best `k` matches of the output node, ascending by `(rank, node
/// id)` — identical to `rank_matches(..)` truncated to `k`, but computed
/// with an `O(n)` partition ([`select_nth_unstable_by`][sel]) plus an
/// `O(k log k)` sort of the prefix instead of sorting all `n` matches.
///
/// [sel]: slice::select_nth_unstable_by
pub fn rank_matches_top_k(
    rg: &ResultGraph,
    q: &Pattern,
    m: &MatchRelation,
    k: usize,
) -> Result<Vec<RankedMatch>, MatchError> {
    rank_matches_top_k_cancellable(rg, q, m, k, None).map_err(EvalError::uncancelled)
}

/// [`rank_matches_top_k`], polling `cancel` once per candidate; a fired
/// token aborts with [`EvalError::Cancelled`] (zero stats) and no partial
/// list.
pub fn rank_matches_top_k_cancellable(
    rg: &ResultGraph,
    q: &Pattern,
    m: &MatchRelation,
    k: usize,
    cancel: Option<&CancelToken>,
) -> Result<Vec<RankedMatch>, EvalError> {
    let uo = q.require_output().map_err(|_| MatchError::NoOutputNode)?;
    let mut out = Vec::new();
    if k == 0 {
        return Ok(out);
    }
    for node in m.matches(uo).iter() {
        if cancel.is_some_and(|t| t.is_cancelled()) {
            return Err(Cancelled::default().into());
        }
        let rank = rank_value(rg, node);
        out.push(RankedMatch { node, rank });
    }
    if out.len() > k {
        out.select_nth_unstable_by(k - 1, rank_order);
        out.truncate(k);
    }
    out.sort_by(rank_order);
    Ok(out)
}

/// The paper's top-K selection: evaluate, build the result graph, rank,
/// truncate to the best `k` experts.
pub fn top_k<G: GraphView + Sync>(
    g: &G,
    q: &Pattern,
    m: &MatchRelation,
    k: usize,
) -> Result<Vec<RankedMatch>, MatchError> {
    let rg = ResultGraph::build(g, q, m);
    rank_matches_top_k(&rg, q, m, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsim::bounded_simulation;
    use expfinder_graph::fixtures::collaboration_fig1;
    use expfinder_pattern::fixtures::fig1_pattern;
    use expfinder_pattern::{Bound, PatternBuilder, Predicate};

    #[test]
    fn paper_example2_rank_values() {
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let m = bounded_simulation(&f.graph, &q).unwrap();
        let rg = ResultGraph::build(&f.graph, &q, &m);
        let bob = rank_value(&rg, f.bob);
        let walt = rank_value(&rg, f.walt);
        assert!(
            (bob - 9.0 / 5.0).abs() < 1e-12,
            "f(SA,Bob) = 9/5, got {bob}"
        );
        assert!(
            (walt - 7.0 / 3.0).abs() < 1e-12,
            "f(SA,Walt) = 7/3, got {walt}"
        );
    }

    #[test]
    fn paper_example2_top1_is_bob() {
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let m = bounded_simulation(&f.graph, &q).unwrap();
        let top = top_k(&f.graph, &q, &m, 1).unwrap();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].node, f.bob);
    }

    #[test]
    fn top_k_ordering_and_truncation() {
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let m = bounded_simulation(&f.graph, &q).unwrap();
        let all = top_k(&f.graph, &q, &m, 10).unwrap();
        assert_eq!(all.len(), 2, "two SA matches");
        assert_eq!(all[0].node, f.bob);
        assert_eq!(all[1].node, f.walt);
        assert!(all[0].rank < all[1].rank);
    }

    #[test]
    fn no_output_node_errors() {
        let f = collaboration_fig1();
        let q = PatternBuilder::new()
            .node("sa", Predicate::label("SA"))
            .build()
            .unwrap();
        let m = bounded_simulation(&f.graph, &q).unwrap();
        assert_eq!(
            top_k(&f.graph, &q, &m, 1).unwrap_err(),
            MatchError::NoOutputNode
        );
    }

    #[test]
    fn isolated_match_ranks_last() {
        // two A nodes; one is connected to a B, the other isolated in G_r
        // (single-node pattern edges produce no G_r edges for it)
        let mut g = expfinder_graph::DiGraph::new();
        let a1 = g.add_node("A", []);
        let _a2 = g.add_node("A", []);
        let b = g.add_node("B", []);
        g.add_edge(a1, b);
        // a2 participates via an unbounded edge? No — make a2 match but
        // with no reachable team: pattern a →(≤1) b requires the edge, so
        // a2 would simply not match. Instead rank a single-node pattern:
        let q = PatternBuilder::new()
            .node_output("a", Predicate::label("A"))
            .build()
            .unwrap();
        let m = bounded_simulation(&g, &q).unwrap();
        let ranked = top_k(&g, &q, &m, 10).unwrap();
        assert_eq!(ranked.len(), 2);
        assert!(ranked[0].rank.is_infinite(), "no edges → isolated");
        assert!(ranked[1].rank.is_infinite());
        // deterministic tie-break by id
        assert!(ranked[0].node < ranked[1].node);
    }

    #[test]
    fn rank_counts_bidirectional_connection_once() {
        // v ⇄ w: V'_r = {w}, sum = dist(v,w) + dist(w,v) = 2 ⇒ f = 2
        let mut g = expfinder_graph::DiGraph::new();
        let a = g.add_node("A", []);
        let b = g.add_node("B", []);
        g.add_edge(a, b);
        g.add_edge(b, a);
        let q = PatternBuilder::new()
            .node_output("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::ONE)
            .edge("b", "a", Bound::ONE)
            .build()
            .unwrap();
        let m = bounded_simulation(&g, &q).unwrap();
        let rg = ResultGraph::build(&g, &q, &m);
        let f = rank_value(&rg, a);
        assert!((f - 2.0).abs() < 1e-12, "got {f}");
    }

    #[test]
    fn selection_top_k_matches_full_sort_exactly() {
        // ordering and tie-breaking of the selection-based top-K must be
        // byte-identical to sorting everything and truncating — including
        // +∞ ties broken by node id
        use expfinder_graph::generate::{erdos_renyi, NodeSpec};
        use expfinder_pattern::generate::{random_pattern, PatternConfig, PatternShape};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(208);
        let spec = NodeSpec::uniform(2, 3);
        for trial in 0..15 {
            let g = erdos_renyi(&mut rng, 50, 220, &spec);
            let mut cfg = PatternConfig::new(PatternShape::Tree, 3, spec.labels.clone());
            cfg.bound_range = (1, 2);
            let q = random_pattern(&mut rng, &cfg);
            let m = bounded_simulation(&g, &q).unwrap();
            let rg = ResultGraph::build(&g, &q, &m);
            let full = rank_matches(&rg, &q, &m).unwrap();
            for k in [0usize, 1, 2, 5, full.len(), full.len() + 3] {
                let mut expect = full.clone();
                expect.truncate(k);
                let got = rank_matches_top_k(&rg, &q, &m, k).unwrap();
                let eq = got.len() == expect.len()
                    && got.iter().zip(&expect).all(|(a, b)| {
                        a.node == b.node
                            && (a.rank == b.rank || (a.rank.is_infinite() && b.rank.is_infinite()))
                    });
                assert!(eq, "trial {trial} k {k}: {got:?} != {expect:?}");
            }
        }
    }

    #[test]
    fn rank_of_non_member_is_infinite() {
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let m = bounded_simulation(&f.graph, &q).unwrap();
        let rg = ResultGraph::build(&f.graph, &q, &m);
        assert!(rank_value(&rg, f.bill).is_infinite());
    }
}
