//! Subgraph isomorphism — the baseline the paper argues against.
//!
//! Paper §I: traditional subgraph isomorphism is (1) too restrictive —
//! it demands an *injective* mapping and *edge-to-edge* matching — and
//! (2) NP-complete. This module implements a VF2-style backtracking
//! matcher to demonstrate both points: on Fig. 1 it finds nothing where
//! bounded simulation finds the right team (`tests/paper_examples.rs`,
//! `examples/team_hiring.rs`), and on larger graphs its runtime explodes,
//! which [`IsoOptions::max_steps`] caps.
//!
//! Pattern-edge bounds are ignored (treated as 1 hop): isomorphism has no
//! notion of path matching, which is precisely the restriction the paper
//! criticises.

use expfinder_graph::{GraphView, NodeId};
use expfinder_pattern::{PNodeId, Pattern};

/// Options for the backtracking search.
#[derive(Copy, Clone, Debug)]
pub struct IsoOptions {
    /// Stop after this many embeddings (0 = unlimited).
    pub limit: usize,
    /// Abort after this many backtracking steps (0 = unlimited); the
    /// property tests use this to keep the search on random graphs
    /// bounded.
    pub max_steps: usize,
}

impl Default for IsoOptions {
    fn default() -> Self {
        IsoOptions {
            limit: 1,
            max_steps: 0,
        }
    }
}

/// Result of an isomorphism search.
#[derive(Clone, Debug, Default)]
pub struct IsoResult {
    /// Each embedding maps pattern node index → data node.
    pub embeddings: Vec<Vec<NodeId>>,
    /// Number of search-tree nodes explored.
    pub steps: usize,
    /// True if the search stopped because `max_steps` was hit.
    pub truncated: bool,
}

/// Find subgraph-isomorphism embeddings of `q` in `g`.
pub fn subgraph_isomorphism<G: GraphView>(g: &G, q: &Pattern, opts: IsoOptions) -> IsoResult {
    let nq = q.node_count();
    let mut result = IsoResult::default();
    if nq == 0 {
        return result;
    }

    // candidate lists per pattern node (predicate satisfaction)
    let cand = crate::candidate_sets(g, q);
    // static variable order: most constrained (smallest candidate set,
    // then highest degree) first
    let mut order: Vec<usize> = (0..nq).collect();
    order.sort_by_key(|&i| {
        let u = PNodeId(i as u32);
        (
            cand[i].count(),
            usize::MAX - (q.out_edges(u).count() + q.in_edges(u).count()),
        )
    });

    let mut assignment: Vec<Option<NodeId>> = vec![None; nq];
    let mut used: std::collections::HashSet<NodeId> = std::collections::HashSet::new();

    fn consistent<G: GraphView>(
        g: &G,
        q: &Pattern,
        assignment: &[Option<NodeId>],
        u: PNodeId,
        v: NodeId,
    ) -> bool {
        // all pattern edges incident to u whose other endpoint is assigned
        // must be backed by a direct data edge
        for e in q.out_edges(u) {
            if let Some(w) = assignment[e.to.index()] {
                if g.out_neighbors(v).binary_search(&w).is_err() {
                    return false;
                }
            }
        }
        for e in q.in_edges(u) {
            if let Some(w) = assignment[e.from.index()] {
                if g.out_neighbors(w).binary_search(&v).is_err() {
                    return false;
                }
            }
        }
        true
    }

    // explicit stack of (order position, candidate iterator index)
    struct Frame {
        pos: usize,
        cands: Vec<NodeId>,
        next: usize,
    }
    let mut stack: Vec<Frame> = vec![Frame {
        pos: 0,
        cands: cand[order[0]].to_vec(),
        next: 0,
    }];

    while let Some(frame) = stack.last_mut() {
        let ui = order[frame.pos];
        let u = PNodeId(ui as u32);

        // undo any previous assignment at this level
        if let Some(prev) = assignment[ui].take() {
            used.remove(&prev);
        }

        let mut advanced = false;
        while frame.next < frame.cands.len() {
            let v = frame.cands[frame.next];
            frame.next += 1;
            result.steps += 1;
            if opts.max_steps > 0 && result.steps > opts.max_steps {
                result.truncated = true;
                return result;
            }
            if used.contains(&v) {
                continue; // injectivity
            }
            if !consistent(g, q, &assignment, u, v) {
                continue;
            }
            assignment[ui] = Some(v);
            used.insert(v);
            advanced = true;
            break;
        }

        if !advanced {
            stack.pop();
            continue;
        }

        if stack.last().unwrap().pos + 1 == q.node_count() {
            // complete embedding
            let emb: Vec<NodeId> = assignment.iter().map(|a| a.unwrap()).collect();
            result.embeddings.push(emb);
            if opts.limit > 0 && result.embeddings.len() >= opts.limit {
                return result;
            }
            // stay at this level; next loop iteration tries further cands
        } else {
            let next_pos = stack.last().unwrap().pos + 1;
            let next_ui = order[next_pos];
            stack.push(Frame {
                pos: next_pos,
                cands: cand[next_ui].to_vec(),
                next: 0,
            });
        }
    }

    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_graph::fixtures::collaboration_fig1;
    use expfinder_graph::DiGraph;
    use expfinder_pattern::fixtures::fig1_pattern;
    use expfinder_pattern::{Bound, PatternBuilder, Predicate};

    fn triangle() -> DiGraph {
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let b = g.add_node("B", []);
        let c = g.add_node("C", []);
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(c, a);
        g
    }

    fn tri_pattern() -> expfinder_pattern::Pattern {
        PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .node("c", Predicate::label("C"))
            .edge("a", "b", Bound::ONE)
            .edge("b", "c", Bound::ONE)
            .edge("c", "a", Bound::ONE)
            .build()
            .unwrap()
    }

    #[test]
    fn finds_triangle() {
        let g = triangle();
        let r = subgraph_isomorphism(&g, &tri_pattern(), IsoOptions::default());
        assert_eq!(r.embeddings.len(), 1);
        assert_eq!(r.embeddings[0], vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert!(!r.truncated);
    }

    #[test]
    fn injectivity_enforced() {
        // data: one A with an edge to one B; pattern wants two distinct Bs
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let b = g.add_node("B", []);
        g.add_edge(a, b);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b1", Predicate::label("B"))
            .node("b2", Predicate::label("B"))
            .edge("a", "b1", Bound::ONE)
            .edge("a", "b2", Bound::ONE)
            .build()
            .unwrap();
        let r = subgraph_isomorphism(&g, &q, IsoOptions::default());
        assert!(r.embeddings.is_empty(), "one B cannot serve two roles");
    }

    #[test]
    fn enumerates_all_embeddings() {
        // two disjoint A→B pairs: pattern a→b has 2 embeddings... plus
        // cross pairs? no crossing edges, so exactly 2.
        let mut g = DiGraph::new();
        let a1 = g.add_node("A", []);
        let b1 = g.add_node("B", []);
        let a2 = g.add_node("A", []);
        let b2 = g.add_node("B", []);
        g.add_edge(a1, b1);
        g.add_edge(a2, b2);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::ONE)
            .build()
            .unwrap();
        let r = subgraph_isomorphism(
            &g,
            &q,
            IsoOptions {
                limit: 0,
                max_steps: 0,
            },
        );
        assert_eq!(r.embeddings.len(), 2);
    }

    #[test]
    fn paper_claim_iso_fails_on_fig1() {
        // §I claim: isomorphism misses the team that bounded simulation finds.
        let f = collaboration_fig1();
        let r = subgraph_isomorphism(&f.graph, &fig1_pattern(), IsoOptions::default());
        assert!(r.embeddings.is_empty());
    }

    #[test]
    fn step_budget_truncates() {
        // a dense bipartite-ish instance with a hopeless pattern to force
        // lots of backtracking, then cap the steps
        let mut g = DiGraph::new();
        let layer_a: Vec<_> = (0..12).map(|_| g.add_node("A", [])).collect();
        let layer_b: Vec<_> = (0..12).map(|_| g.add_node("A", [])).collect();
        for &a in &layer_a {
            for &b in &layer_b {
                g.add_edge(a, b);
            }
        }
        let q = PatternBuilder::new()
            .node("x", Predicate::label("A"))
            .node("y", Predicate::label("A"))
            .node("z", Predicate::label("A"))
            .edge("x", "y", Bound::ONE)
            .edge("y", "z", Bound::ONE)
            .edge("z", "x", Bound::ONE) // no directed triangle exists
            .build()
            .unwrap();
        let r = subgraph_isomorphism(
            &g,
            &q,
            IsoOptions {
                limit: 1,
                max_steps: 50,
            },
        );
        assert!(r.truncated);
        assert!(r.embeddings.is_empty());
    }

    #[test]
    fn no_match_on_reversed_edge() {
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let b = g.add_node("B", []);
        g.add_edge(b, a); // reversed
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::ONE)
            .build()
            .unwrap();
        let r = subgraph_isomorphism(&g, &q, IsoOptions::default());
        assert!(r.embeddings.is_empty());
    }
}
