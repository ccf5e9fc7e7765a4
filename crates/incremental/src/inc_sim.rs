//! Incremental maintenance for plain graph simulation.
//!
//! Persistent state: the raw greatest-fixpoint sets `sim(u)`, the
//! predicate candidates `cand0(u)`, and for every pattern edge
//! `e = (u, u')` a counter per data node `cnt[e][v] = |succ(v) ∩ sim(u')|`
//! — maintained for **all** nodes, members or not, so that re-additions
//! after insertions are detected in O(1).
//!
//! * **Deletion** of `(x, y)`: matches can only disappear. Decrement
//!   `cnt[e][x]` for edges whose target set contains `y`; zeros cascade
//!   exactly like the batch algorithm's removal phase, but starting from a
//!   single seed instead of the whole graph.
//! * **Insertion** of `(x, y)`: matches can only appear. Increment the
//!   counters, then run *optimistic expansion*: starting from `x`,
//!   tentatively admit every candidate pair that would be satisfied by the
//!   current members **plus the other tentative pairs** (this optimism is
//!   what finds cyclic mutual support), walking upstream through
//!   in-neighbors. A *verification* pass then runs the ordinary removal
//!   fixpoint restricted to the tentative pairs; old members can never be
//!   invalidated by an insertion, so verification touches nothing else.

use crate::{IncStats, Maintainer, MatchDelta};
use expfinder_core::matchrel::MatchRelation;
use expfinder_core::sim::simulation_fixpoint;
use expfinder_core::MatchError;
use expfinder_graph::{BitSet, DiGraph, EdgeUpdate, GraphView, NodeId};
use expfinder_pattern::{PNodeId, Pattern};

/// Maintains `M(Q,G)` for a simulation pattern under edge updates.
pub struct IncrementalSim {
    pattern: Pattern,
    /// Predicate-satisfying candidates (static: ΔG is edges only).
    cand0: Vec<BitSet>,
    /// Raw greatest-fixpoint match sets.
    sim: Vec<BitSet>,
    /// `cnt[e][v] = |succ(v) ∩ sim(target(e))|` for every node `v`.
    cnt: Vec<Vec<u32>>,
    data_nodes: usize,
    stats: IncStats,
}

impl IncrementalSim {
    /// Evaluate `q` on `g` once and set up maintenance state.
    pub fn new(g: &DiGraph, q: &Pattern) -> Result<IncrementalSim, MatchError> {
        if !q.is_simulation() {
            return Err(MatchError::NotASimulationPattern);
        }
        let cand0 = candidate_sets(g, q);
        let (sim, cnt) = simulation_fixpoint(g, q, cand0.clone());
        Ok(IncrementalSim {
            pattern: q.clone(),
            cand0,
            sim,
            cnt,
            data_nodes: g.node_count(),
            stats: IncStats::default(),
        })
    }

    /// The maintained pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    fn assert_node(&self, v: NodeId) {
        assert!(
            v.index() < self.data_nodes,
            "update touches node {v} outside the maintained graph (node additions \
             require rebuilding the maintainer)"
        );
    }

    /// Handle an insertion of `(x, y)` already applied to `g`.
    fn on_insert(&mut self, g: &DiGraph, x: NodeId, y: NodeId) -> Vec<MatchDelta> {
        let q = &self.pattern;
        // 1. counters: x gained successor y
        for (ei, e) in q.edges().iter().enumerate() {
            if self.sim[e.to.index()].contains(y) {
                self.cnt[ei][x.index()] += 1;
            }
        }

        // 2. optimistic expansion: an unconditional upstream closure.
        //
        // Every pair that could possibly have become valid lies upstream
        // (through candidate pairs) of a *terminal* pair (u, x) whose new
        // support is the inserted edge itself — which requires some
        // out-edge (u, u') of u with y a candidate of u'. The closure adds
        // all of those pairs WITHOUT checking support: checking here would
        // fail to bootstrap cyclic mutual support (two pairs that only
        // support each other). The verification fixpoint below removes
        // every over-approximated pair exactly.
        let nq = q.node_count();
        let mut tentative: Vec<BitSet> = (0..nq).map(|_| BitSet::new(self.data_nodes)).collect();
        let mut worklist: Vec<(PNodeId, NodeId)> = Vec::new();
        for u in q.ids() {
            if self.cand0[u.index()].contains(x)
                && !self.sim[u.index()].contains(x)
                && q.out_edges(u).any(|e| self.cand0[e.to.index()].contains(y))
            {
                worklist.push((u, x));
            }
        }
        while let Some((u, v)) = worklist.pop() {
            if tentative[u.index()].contains(v) || self.sim[u.index()].contains(v) {
                continue;
            }
            self.stats.tentative_pairs += 1;
            tentative[u.index()].insert(v);
            // upstream: pairs that might gain support through (·, v)
            for e in q.in_edges(u) {
                let w = e.from;
                for &p in g.in_neighbors(v) {
                    if self.cand0[w.index()].contains(p)
                        && !self.sim[w.index()].contains(p)
                        && !tentative[w.index()].contains(p)
                    {
                        worklist.push((w, p));
                    }
                }
            }
        }

        // 3. finalize tentative pairs into sim + counters
        let mut added: Vec<(PNodeId, NodeId)> = Vec::new();
        for u in q.ids() {
            for v in tentative[u.index()].iter() {
                self.sim[u.index()].insert(v);
                added.push((u, v));
            }
        }
        for &(u, v) in &added {
            for &ei in q.in_edge_indices(u) {
                for &p in g.in_neighbors(v) {
                    self.cnt[ei as usize][p.index()] += 1;
                }
            }
        }

        // 4. verification: removal fixpoint restricted to tentative pairs
        let mut queue: Vec<(PNodeId, NodeId)> = Vec::new();
        for &(u, v) in &added {
            let violated = q
                .out_edge_indices(u)
                .iter()
                .any(|&ei| self.cnt[ei as usize][v.index()] == 0);
            if violated && self.sim[u.index()].remove(v) {
                queue.push((u, v));
            }
        }
        let mut removed_in_verify: Vec<(PNodeId, NodeId)> = Vec::new();
        while let Some((u, v)) = queue.pop() {
            removed_in_verify.push((u, v));
            for &ei in q.in_edge_indices(u) {
                let from = q.edges()[ei as usize].from;
                for &p in g.in_neighbors(v) {
                    let c = &mut self.cnt[ei as usize][p.index()];
                    debug_assert!(*c > 0, "counter underflow in verification");
                    *c -= 1;
                    if *c == 0 && self.sim[from.index()].contains(p) {
                        // only tentative pairs can die on insertion
                        debug_assert!(
                            tentative[from.index()].contains(p),
                            "verification tried to remove a pre-existing member"
                        );
                        self.sim[from.index()].remove(p);
                        queue.push((from, p));
                    }
                }
            }
        }

        // ΔM = finalized additions minus verification removals
        let removed_set: std::collections::HashSet<(u32, u32)> =
            removed_in_verify.iter().map(|&(u, v)| (u.0, v.0)).collect();
        let deltas: Vec<MatchDelta> = added
            .into_iter()
            .filter(|&(u, v)| !removed_set.contains(&(u.0, v.0)))
            .map(|(u, v)| MatchDelta {
                pattern_node: u,
                data_node: v,
                added: true,
            })
            .collect();
        self.stats.added += deltas.len();
        deltas
    }

    /// Handle a deletion of `(x, y)` already applied to `g`.
    fn on_delete(&mut self, g: &DiGraph, x: NodeId, y: NodeId) -> Vec<MatchDelta> {
        let q = &self.pattern;
        let mut queue: Vec<(PNodeId, NodeId)> = Vec::new();
        // x lost successor y
        for (ei, e) in q.edges().iter().enumerate() {
            if self.sim[e.to.index()].contains(y) {
                let c = &mut self.cnt[ei][x.index()];
                debug_assert!(*c > 0, "counter underflow on delete");
                *c -= 1;
                if *c == 0 && self.sim[e.from.index()].remove(x) {
                    queue.push((e.from, x));
                }
            }
        }
        // cascade
        let mut deltas = Vec::new();
        while let Some((u, v)) = queue.pop() {
            deltas.push(MatchDelta {
                pattern_node: u,
                data_node: v,
                added: false,
            });
            for &ei in q.in_edge_indices(u) {
                let from = q.edges()[ei as usize].from;
                for &p in g.in_neighbors(v) {
                    let c = &mut self.cnt[ei as usize][p.index()];
                    debug_assert!(*c > 0, "counter underflow in cascade");
                    *c -= 1;
                    if *c == 0 && self.sim[from.index()].remove(p) {
                        queue.push((from, p));
                    }
                }
            }
        }
        self.stats.removed += deltas.len();
        deltas
    }
}

impl Maintainer for IncrementalSim {
    fn on_update(&mut self, g: &DiGraph, update: EdgeUpdate) -> Vec<MatchDelta> {
        let (x, y) = update.endpoints();
        self.assert_node(x);
        self.assert_node(y);
        match update {
            EdgeUpdate::Insert(..) => {
                debug_assert!(g.has_edge(x, y), "insert must be applied before on_update");
                self.on_insert(g, x, y)
            }
            EdgeUpdate::Delete(..) => {
                debug_assert!(!g.has_edge(x, y), "delete must be applied before on_update");
                self.on_delete(g, x, y)
            }
        }
    }

    fn current(&self) -> MatchRelation {
        MatchRelation::from_sets(self.sim.clone(), self.data_nodes)
    }

    fn total_pairs(&self) -> usize {
        crate::collapsed_pairs(&self.sim)
    }

    fn stats(&self) -> IncStats {
        self.stats
    }
}

/// Local copy of the candidate-set helper (the core one is crate-private).
fn candidate_sets(g: &DiGraph, q: &Pattern) -> Vec<BitSet> {
    let n = g.node_count();
    q.nodes()
        .iter()
        .map(|pn| {
            let compiled = pn.predicate.compile(g);
            let mut set = BitSet::new(n);
            for v in g.ids() {
                if compiled.eval(g.vertex(v)) {
                    set.insert(v);
                }
            }
            set
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply_batch;
    use expfinder_core::graph_simulation;
    use expfinder_graph::generate::{erdos_renyi, random_updates, NodeSpec};
    use expfinder_pattern::generate::{random_pattern, PatternConfig, PatternShape};
    use expfinder_pattern::{Bound, PatternBuilder, Predicate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_against_recompute(g: &DiGraph, inc: &IncrementalSim) {
        let fresh = graph_simulation(g, inc.pattern()).unwrap();
        assert_eq!(inc.current(), fresh, "incremental diverged from recompute");
    }

    #[test]
    fn insert_adds_match() {
        // A  B (no edge): pattern a→b empty; insert edge → matches appear
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let b = g.add_node("B", []);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::ONE)
            .build()
            .unwrap();
        let mut inc = IncrementalSim::new(&g, &q).unwrap();
        assert!(inc.current().is_empty());
        g.add_edge(a, b);
        let delta = inc.on_update(&g, EdgeUpdate::Insert(a, b));
        check_against_recompute(&g, &inc);
        assert_eq!(inc.current().total_pairs(), 2);
        // ΔM contains the (a,A) addition; (b,B) was already in the raw sets
        assert!(delta.iter().any(|d| d.added && d.data_node == a));
    }

    #[test]
    fn delete_removes_and_cascades() {
        // chain A→B→C, pattern a→b→c; deleting B→C kills everything
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let b = g.add_node("B", []);
        let c = g.add_node("C", []);
        g.add_edge(a, b);
        g.add_edge(b, c);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .node("c", Predicate::label("C"))
            .edge("a", "b", Bound::ONE)
            .edge("b", "c", Bound::ONE)
            .build()
            .unwrap();
        let mut inc = IncrementalSim::new(&g, &q).unwrap();
        assert_eq!(inc.current().total_pairs(), 3);
        g.remove_edge(b, c);
        let delta = inc.on_update(&g, EdgeUpdate::Delete(b, c));
        check_against_recompute(&g, &inc);
        assert!(inc.current().is_empty());
        // cascade removed both b and (transitively) a
        assert_eq!(delta.len(), 2);
        assert!(delta.iter().all(|d| !d.added));
    }

    #[test]
    fn insertion_revives_cyclic_mutual_support() {
        // pattern a ⇄ b; data 0(A) → 1(B), missing back edge.
        // Inserting 1→0 must admit BOTH pairs simultaneously.
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let b = g.add_node("B", []);
        g.add_edge(a, b);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::ONE)
            .edge("b", "a", Bound::ONE)
            .build()
            .unwrap();
        let mut inc = IncrementalSim::new(&g, &q).unwrap();
        assert!(inc.current().is_empty());
        g.add_edge(b, a);
        inc.on_update(&g, EdgeUpdate::Insert(b, a));
        check_against_recompute(&g, &inc);
        assert_eq!(inc.current().total_pairs(), 2);
    }

    #[test]
    fn optimistic_overreach_is_verified_away() {
        // pattern a→b→c. Data: 0(A)→1(B), 2(C) isolated.
        // Insert 0→1? already there. Insert 1→? nothing reaches C.
        // Construct a case where expansion tentatively admits pairs that
        // verification must kill: a(A)→b(B), b needs c(C); inserting A→B
        // tentatively admits (a,0) optimistically only if (b,1) is
        // tentative; (b,1) fails since 1 has no C successor — so (a,0)
        // must not survive.
        let mut g = DiGraph::new();
        let n0 = g.add_node("A", []);
        let n1 = g.add_node("B", []);
        let _n2 = g.add_node("C", []);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .node("c", Predicate::label("C"))
            .edge("a", "b", Bound::ONE)
            .edge("b", "c", Bound::ONE)
            .build()
            .unwrap();
        let mut inc = IncrementalSim::new(&g, &q).unwrap();
        g.add_edge(n0, n1);
        inc.on_update(&g, EdgeUpdate::Insert(n0, n1));
        check_against_recompute(&g, &inc);
        assert!(inc.current().is_empty());
    }

    #[test]
    fn verification_kills_mutually_dependent_overreach() {
        // pattern: a→b, b→a, b→c (cycle plus an extra requirement).
        // data: 0(A) ⇄ 1(B) after insertion, but no C anywhere:
        // optimistic expansion admits (a,0),(b,1) via mutual support, then
        // verification kills (b,1) for lack of c, cascading to (a,0).
        let mut g = DiGraph::new();
        let n0 = g.add_node("A", []);
        let n1 = g.add_node("B", []);
        g.add_edge(n0, n1);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .node("c", Predicate::label("C"))
            .edge("a", "b", Bound::ONE)
            .edge("b", "a", Bound::ONE)
            .edge("b", "c", Bound::ONE)
            .build()
            .unwrap();
        let mut inc = IncrementalSim::new(&g, &q).unwrap();
        g.add_edge(n1, n0);
        let delta = inc.on_update(&g, EdgeUpdate::Insert(n1, n0));
        check_against_recompute(&g, &inc);
        assert!(inc.current().is_empty());
        assert!(delta.is_empty(), "nothing truly changed");
    }

    #[test]
    fn insert_then_delete_roundtrip() {
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let b = g.add_node("B", []);
        g.add_edge(a, b);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::ONE)
            .build()
            .unwrap();
        let mut inc = IncrementalSim::new(&g, &q).unwrap();
        let before = inc.current();
        g.remove_edge(a, b);
        inc.on_update(&g, EdgeUpdate::Delete(a, b));
        g.add_edge(a, b);
        inc.on_update(&g, EdgeUpdate::Insert(a, b));
        assert_eq!(inc.current(), before, "roundtrip restores the relation");
    }

    #[test]
    fn rejects_bounded_pattern() {
        let g = DiGraph::new();
        let q = PatternBuilder::new()
            .node("a", Predicate::True)
            .node("b", Predicate::True)
            .edge("a", "b", Bound::hops(2))
            .build()
            .unwrap();
        assert!(IncrementalSim::new(&g, &q).is_err());
    }

    #[test]
    fn differential_random_updates() {
        let mut rng = StdRng::seed_from_u64(2024);
        let spec = NodeSpec::uniform(3, 4);
        for trial in 0..15 {
            let mut g = erdos_renyi(&mut rng, 40, 150, &spec);
            let mut cfg = PatternConfig::new(PatternShape::Dag, 4, spec.labels.clone());
            cfg.bound_range = (1, 1);
            cfg.extra_edges = 2;
            let q = random_pattern(&mut rng, &cfg);
            let mut inc = IncrementalSim::new(&g, &q).unwrap();
            let updates = random_updates(&mut rng, &g, 40, 0.5);
            for (i, &up) in updates.iter().enumerate() {
                assert!(g.apply(up));
                inc.on_update(&g, up);
                if i % 10 == 9 {
                    check_against_recompute(&g, &inc);
                }
            }
            check_against_recompute(&g, &inc);
            let _ = trial;
        }
    }

    #[test]
    fn batch_helper_applies_everything() {
        let mut rng = StdRng::seed_from_u64(7);
        let spec = NodeSpec::uniform(3, 4);
        let mut g = erdos_renyi(&mut rng, 30, 100, &spec);
        let mut cfg = PatternConfig::new(PatternShape::Star, 3, spec.labels.clone());
        cfg.bound_range = (1, 1);
        let q = random_pattern(&mut rng, &cfg);
        let mut inc = IncrementalSim::new(&g, &q).unwrap();
        let updates = random_updates(&mut rng, &g, 25, 0.6);
        apply_batch(&mut g, &mut inc, &updates);
        check_against_recompute(&g, &inc);
    }

    #[test]
    #[should_panic(expected = "outside the maintained graph")]
    fn update_on_unknown_node_panics() {
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .build()
            .unwrap();
        let mut inc = IncrementalSim::new(&g, &q).unwrap();
        let b = g.add_node("B", []); // added after the maintainer
        g.add_edge(a, b);
        inc.on_update(&g, EdgeUpdate::Insert(a, b));
    }
}
