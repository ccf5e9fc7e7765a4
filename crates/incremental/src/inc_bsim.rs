//! Incremental maintenance for bounded simulation.
//!
//! Persistent state: the raw greatest-fixpoint sets `sim(u)` plus, for
//! every pattern edge `e = (u, u')` with bound `b`, a support counter per
//! data node:
//!
//! ```text
//! scnt[e][v] = |{ v' ∈ sim(u') : v has a non-empty path to v' of length ≤ b }|
//! ```
//!
//! `scnt[e][v] > 0` is exactly the edge condition of bounded simulation —
//! including *self support around a cycle* (`v = v'` with a non-empty
//! cycle of length ≤ b), which the ball helpers below handle explicitly
//! because a plain BFS reports the source at distance 0.
//!
//! ## Locality: the affected ball
//!
//! Changing one edge `(x, y)` can only change the ≤`b` reachability of
//! pairs whose shortest path runs through it, i.e. sources `v` with
//! `dist(v, x) ≤ b_max − 1`. Maintenance therefore:
//!
//! 1. computes `A = {x} ∪ ball_rev(x, b_max − 1)` (on the post-update
//!    graph — deletions cannot disconnect a source from `x` itself);
//! 2. recomputes `scnt[e][v]` from scratch for `v ∈ A` only;
//! 3. **deletion** (distances grow, matches only shrink): members whose
//!    counter hit zero cascade through the standard removal loop, each
//!    removal decrementing supporters found by a reverse ball;
//! 4. **insertion** (distances shrink, matches only grow): optimistic
//!    expansion admits candidate pairs in `A` supported by members *or
//!    other tentative pairs* (walking upstream through reverse balls),
//!    then a verification fixpoint removes unsupported tentatives. Old
//!    members can never be invalidated by an insertion.
//!
//! Patterns with unbounded (`*`) edges degrade gracefully: the ball radius
//! becomes "everything that can reach x", which is correct but no longer
//! local — the experiments use bounded patterns, as does the paper.

use crate::{IncStats, Maintainer, MatchDelta};
use expfinder_core::bsim::{bounded_fixpoint_raw, EvalOptions};
use expfinder_core::fixpoint::EvalScratch;
use expfinder_core::matchrel::MatchRelation;
use expfinder_core::Cancelled;
use expfinder_graph::bfs::{BfsScratch, Direction};
use expfinder_graph::bfs_frontier::FrontierScratch;
use expfinder_graph::{BitSet, CancelToken, DiGraph, EdgeUpdate, GraphView, NodeId};
use expfinder_pattern::{PNodeId, Pattern};

/// Maintains `M(Q,G)` for a bounded-simulation pattern under edge updates.
pub struct IncrementalBoundedSim {
    pattern: Pattern,
    cand0: Vec<BitSet>,
    /// Raw greatest-fixpoint match sets.
    sim: Vec<BitSet>,
    /// Support counters per pattern edge per data node.
    scnt: Vec<Vec<u32>>,
    /// `max_bound - 1`, or `u32::MAX` for patterns with unbounded edges.
    ball_radius: u32,
    data_nodes: usize,
    /// Distance-reporting BFS state for the affected-ball computations
    /// (the frontier BFS answers set questions only).
    scratch: BfsScratch,
    /// Single-source reach state shared by every support computation.
    reach: ReachScratch,
    /// Persistent output buffer of [`IncrementalBoundedSim::affected`].
    affected_buf: Vec<(NodeId, u32)>,
    stats: IncStats,
}

/// Persistent single-source reach scratch: the word-parallel frontier BFS
/// of `expfinder_graph::bfs_frontier` plus reusable seed/reach bitsets,
/// so maintenance steps share one set of traversal buffers across every
/// update instead of allocating fresh queue state per call. The seed set
/// always holds exactly the last source, so switching sources is O(1)
/// (remove + insert), and the frontier scratch resets sparsely between
/// small traversals — per-call cost tracks the reach set, with only the
/// output buffer's clear left at `O(|V|/64)` (callers iterate that
/// buffer anyway, which costs the same).
///
/// `multi_source_within` has exactly the *non-empty path* semantics the
/// support counters need — a node (the seed included) qualifies only via
/// a genuine ≥1-length path, so cycles need no special-casing here.
#[derive(Default)]
struct ReachScratch {
    frontier: FrontierScratch,
    seed: BitSet,
    last_seed: Option<NodeId>,
    reach: BitSet,
}

impl ReachScratch {
    /// The set of nodes connected to `v` by a non-empty path of length
    /// ≤ `depth` in direction `dir` (seen from `v`): with
    /// [`Direction::Forward`] the nodes `v` supports itself *on* — i.e.
    /// reachable from `v`; with [`Direction::Backward`] the nodes that
    /// count `v` as a supporter — i.e. that reach `v`. Borrows the
    /// internal reach buffer until the next call.
    fn reach_of<'a, G: GraphView>(
        &'a mut self,
        g: &G,
        v: NodeId,
        depth: u32,
        dir: Direction,
    ) -> &'a BitSet {
        self.reach_of_cancel(g, v, depth, dir, None)
    }

    /// [`reach_of`](Self::reach_of) polling a [`CancelToken`] inside the
    /// frontier BFS. When the token fires the borrowed reach set is torn;
    /// the construction sweep re-checks the token after every call and
    /// aborts before the torn set is counted.
    fn reach_of_cancel<'a, G: GraphView>(
        &'a mut self,
        g: &G,
        v: NodeId,
        depth: u32,
        dir: Direction,
        cancel: Option<&CancelToken>,
    ) -> &'a BitSet {
        let n = g.node_count();
        if self.seed.capacity() != n {
            self.seed = BitSet::new(n);
            self.reach = BitSet::new(n);
            self.last_seed = None;
        }
        if let Some(prev) = self.last_seed.replace(v) {
            self.seed.remove(prev);
        }
        self.seed.insert(v);
        self.frontier.multi_source_within_cancel(
            g,
            &self.seed,
            depth,
            dir,
            None,
            cancel,
            &mut self.reach,
        );
        &self.reach
    }
}

impl IncrementalBoundedSim {
    /// Evaluate `q` on `g` once (exact raw fixpoint, no early exit) and
    /// build the support counters.
    pub fn new(g: &DiGraph, q: &Pattern) -> IncrementalBoundedSim {
        match IncrementalBoundedSim::new_cancellable(g, q, None) {
            Ok(inc) => inc,
            Err(_) => unreachable!("no cancel token supplied"),
        }
    }

    /// [`new`](Self::new) polling a [`CancelToken`]: construction is the
    /// expensive part of registration (one exact raw fixpoint plus one
    /// support sweep per member per pattern edge), so a deadline-bound
    /// registration can abandon it cleanly — nothing durable has been
    /// mutated when [`Cancelled`] is returned. Maintenance
    /// (`on_update`) stays uncancellable by design: aborting mid-cascade
    /// would leave the persistent counters inconsistent with `sim`, and
    /// update work is ball-local (bounded) anyway.
    pub fn new_cancellable(
        g: &DiGraph,
        q: &Pattern,
        cancel: Option<&CancelToken>,
    ) -> Result<IncrementalBoundedSim, Cancelled> {
        let cand0 = candidate_sets(g, q);
        let mut eval_scratch = EvalScratch::new();
        let (sim, fix_stats) = bounded_fixpoint_raw(
            g,
            q,
            cand0.clone(),
            EvalOptions::default(),
            false,
            &mut eval_scratch,
            cancel,
        )?;
        let n = g.node_count();
        let mut reach = ReachScratch::default();
        let mut scnt: Vec<Vec<u32>> = vec![vec![0; n]; q.edge_count()];
        for (ei, e) in q.edges().iter().enumerate() {
            let depth = e.bound.depth();
            // accumulate supporter counts by sweeping each member's
            // reverse reach set once; counters are only ever read for
            // predicate candidates of the edge source, so only those are
            // maintained (a large constant-factor saving on updates)
            let src_cand = &cand0[e.from.index()];
            let members: Vec<NodeId> = sim[e.to.index()].to_vec();
            for vp in members {
                let sweep = reach.reach_of_cancel(g, vp, depth, Direction::Backward, cancel);
                // sweep-boundary cancellation point: a fired token means
                // the borrowed reach set may be torn — drop everything
                if cancel.is_some_and(|t| t.is_cancelled()) {
                    return Err(Cancelled { stats: fix_stats });
                }
                for w in sweep.iter() {
                    if src_cand.contains(w) {
                        scnt[ei][w.index()] += 1;
                    }
                }
            }
        }
        let ball_radius = match q.max_bound() {
            Some(b) => b - 1,
            None => u32::MAX,
        };
        Ok(IncrementalBoundedSim {
            pattern: q.clone(),
            cand0,
            sim,
            scnt,
            ball_radius,
            data_nodes: n,
            scratch: BfsScratch::new(),
            reach,
            affected_buf: Vec::new(),
            stats: IncStats::default(),
        })
    }

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

    /// The affected sources of a change to edge `(x, _)`, with their
    /// distance to `x` (the source `x` itself appears at distance 0),
    /// collected into the persistent `affected_buf` — callers take the
    /// buffer with [`std::mem::take`] and put it back when done, so
    /// steady-state update streams reuse its capacity.
    fn affected(&mut self, g: &DiGraph, x: NodeId) -> Vec<(NodeId, u32)> {
        let mut out = std::mem::take(&mut self.affected_buf);
        out.clear();
        let ball = self
            .scratch
            .ball(g, x, self.ball_radius, Direction::Backward);
        out.extend(ball.iter());
        debug_assert_eq!(out.first(), Some(&(x, 0)));
        self.stats.affected_nodes += out.len();
        out
    }

    /// Recompute `scnt[e][v]` inside the affected ball. Two sound
    /// restrictions keep this cheap: (a) a pair can only change for edge
    /// `e` if `dist(v, x) ≤ b_e − 1` (a path through the changed edge
    /// needs a prefix to `x` that fits the bound), and (b) counters are
    /// only ever read for predicate candidates of the edge source. The
    /// support count itself is one frontier reach sweep from `v`
    /// intersected with the member set — no per-node queue, no fresh
    /// allocations.
    fn recompute_counters(&mut self, g: &DiGraph, affected: &[(NodeId, u32)]) {
        for ei in 0..self.pattern.edge_count() {
            let e = &self.pattern.edges()[ei];
            let depth = e.bound.depth();
            let radius = depth.saturating_sub(1);
            let (from, to) = (e.from, e.to);
            for &(v, dvx) in affected {
                if dvx > radius || !self.cand0[from.index()].contains(v) {
                    continue;
                }
                let reach = self.reach.reach_of(g, v, depth, Direction::Forward);
                let c = reach.intersection_count(&self.sim[to.index()]) as u32;
                self.scnt[ei][v.index()] = c;
            }
        }
    }

    /// Removal cascade shared by deletion handling and insert verification.
    /// `guard`: when `Some(tentative)`, only pairs in `tentative` may be
    /// removed (insert verification); `None` = unrestricted (deletion).
    fn removal_cascade(
        &mut self,
        g: &DiGraph,
        mut queue: Vec<(PNodeId, NodeId)>,
        guard: Option<&[BitSet]>,
        deltas: &mut Vec<(PNodeId, NodeId)>,
    ) {
        while let Some((u, v)) = queue.pop() {
            deltas.push((u, v));
            // v left sim(u): every supporter w loses one unit on edges → u
            let in_edges: Vec<u32> = self.pattern.in_edge_indices(u).to_vec();
            for ei in in_edges {
                let e = &self.pattern.edges()[ei as usize];
                let depth = e.bound.depth();
                let from = e.from;
                // one reverse reach sweep from v = everyone who counted v
                let supported = self.reach.reach_of(g, v, depth, Direction::Backward);
                let src_cand = &self.cand0[from.index()];
                for w in supported.iter() {
                    if !src_cand.contains(w) {
                        continue;
                    }
                    let c = &mut self.scnt[ei as usize][w.index()];
                    debug_assert!(*c > 0, "support counter underflow");
                    *c -= 1;
                    if *c == 0 && self.sim[from.index()].contains(w) {
                        let allowed = guard.is_none_or(|t| t[from.index()].contains(w));
                        debug_assert!(
                            allowed,
                            "insert verification tried to remove a pre-existing member"
                        );
                        if allowed {
                            self.sim[from.index()].remove(w);
                            queue.push((from, w));
                        }
                    }
                }
            }
        }
    }

    fn on_delete(&mut self, g: &DiGraph, x: NodeId) -> Vec<MatchDelta> {
        let affected = self.affected(g, x);
        self.recompute_counters(g, &affected);

        // members in the affected area whose support vanished
        let mut queue: Vec<(PNodeId, NodeId)> = Vec::new();
        for u in self.pattern.ids() {
            for &(v, _) in &affected {
                if !self.sim[u.index()].contains(v) {
                    continue;
                }
                let violated = self
                    .pattern
                    .out_edge_indices(u)
                    .iter()
                    .any(|&ei| self.scnt[ei as usize][v.index()] == 0);
                if violated {
                    self.sim[u.index()].remove(v);
                    queue.push((u, v));
                }
            }
        }
        let mut removed = Vec::new();
        self.removal_cascade(g, queue, None, &mut removed);
        self.stats.removed += removed.len();
        self.affected_buf = affected;
        removed
            .into_iter()
            .map(|(u, v)| MatchDelta {
                pattern_node: u,
                data_node: v,
                added: false,
            })
            .collect()
    }

    fn on_insert(&mut self, g: &DiGraph, x: NodeId, y: NodeId) -> Vec<MatchDelta> {
        let affected = self.affected(g, x);
        self.recompute_counters(g, &affected);

        // For terminality detection: how far is the closest *candidate* of
        // each pattern node from y? A pair (u, v) can only have gained
        // support through the new edge (x, y) if for some out-edge
        // e = (u, u'):  dist(v, x) + 1 + min_{v' ∈ cand0(u')} dist(y, v')
        // fits within b_e (candidates over-approximate the new members, so
        // this is sound; verification trims the excess).
        let y_ball_depth = self.ball_radius; // b_max − 1
        let mut dmin_y: Vec<u64> = vec![u64::MAX; self.pattern.node_count()];
        {
            let ball = self.scratch.ball(g, y, y_ball_depth, Direction::Forward);
            for (w, d) in ball.iter() {
                for u in self.pattern.ids() {
                    if self.cand0[u.index()].contains(w) {
                        let slot = &mut dmin_y[u.index()];
                        *slot = (*slot).min(d as u64);
                    }
                }
            }
        }

        // ---- optimistic expansion: unconditional upstream closure ----
        //
        // Seeds are candidate pairs in the affected ball for which the new
        // edge could complete a path to some candidate of a required
        // target. From the seeds the closure walks upstream through
        // reverse balls WITHOUT support checks — checking here would fail
        // to bootstrap cyclic mutual support (pairs that only support each
        // other). The verification fixpoint below trims the
        // over-approximation exactly.
        let nq = self.pattern.node_count();
        let mut tentative: Vec<BitSet> = (0..nq).map(|_| BitSet::new(self.data_nodes)).collect();
        let mut worklist: Vec<(PNodeId, NodeId)> = Vec::new();
        for u in self.pattern.ids() {
            for &(v, dvx) in &affected {
                if !self.cand0[u.index()].contains(v) || self.sim[u.index()].contains(v) {
                    continue;
                }
                let reachable_via_new_edge = self.pattern.out_edges(u).any(|e| {
                    let need = (dvx as u64)
                        .saturating_add(1)
                        .saturating_add(dmin_y[e.to.index()]);
                    need <= e.bound.depth() as u64
                });
                if reachable_via_new_edge {
                    worklist.push((u, v));
                }
            }
        }
        while let Some((u, v)) = worklist.pop() {
            if tentative[u.index()].contains(v) || self.sim[u.index()].contains(v) {
                continue;
            }
            self.stats.tentative_pairs += 1;
            tentative[u.index()].insert(v);
            // upstream propagation through reverse reach sweeps
            let in_edges: Vec<u32> = self.pattern.in_edge_indices(u).to_vec();
            for ei in in_edges {
                let e = &self.pattern.edges()[ei as usize];
                let from = e.from;
                let ups = self
                    .reach
                    .reach_of(g, v, e.bound.depth(), Direction::Backward);
                for p in ups.iter() {
                    if self.cand0[from.index()].contains(p)
                        && !self.sim[from.index()].contains(p)
                        && !tentative[from.index()].contains(p)
                    {
                        worklist.push((from, p));
                    }
                }
            }
        }

        // ---- finalize: admit tentatives, bump supporter counters ----
        let mut added: Vec<(PNodeId, NodeId)> = Vec::new();
        for u in self.pattern.ids() {
            for v in tentative[u.index()].iter() {
                self.sim[u.index()].insert(v);
                added.push((u, v));
            }
        }
        for &(u, v) in &added {
            let in_edges: Vec<u32> = self.pattern.in_edge_indices(u).to_vec();
            for ei in in_edges {
                let e = &self.pattern.edges()[ei as usize];
                let src_cand = &self.cand0[e.from.index()];
                let supported = self
                    .reach
                    .reach_of(g, v, e.bound.depth(), Direction::Backward);
                for w in supported.iter() {
                    if src_cand.contains(w) {
                        self.scnt[ei as usize][w.index()] += 1;
                    }
                }
            }
        }

        // ---- verification: remove unsupported tentatives ----
        let mut queue: Vec<(PNodeId, NodeId)> = Vec::new();
        for &(u, v) in &added {
            let violated = self
                .pattern
                .out_edge_indices(u)
                .iter()
                .any(|&ei| self.scnt[ei as usize][v.index()] == 0);
            if violated {
                self.sim[u.index()].remove(v);
                queue.push((u, v));
            }
        }
        let mut removed = Vec::new();
        self.removal_cascade(g, queue, Some(&tentative), &mut removed);
        self.affected_buf = affected;

        let removed_set: std::collections::HashSet<(u32, u32)> =
            removed.iter().map(|&(u, v)| (u.0, v.0)).collect();
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
}

impl Maintainer for IncrementalBoundedSim {
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
                self.on_delete(g, x)
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
    use expfinder_core::bounded_simulation;
    use expfinder_graph::fixtures::collaboration_fig1;
    use expfinder_graph::generate::{erdos_renyi, random_updates, NodeSpec};
    use expfinder_pattern::fixtures::fig1_pattern;
    use expfinder_pattern::generate::{random_pattern, PatternConfig, PatternShape};
    use expfinder_pattern::{Bound, PatternBuilder, Predicate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_against_recompute(g: &DiGraph, inc: &IncrementalBoundedSim) {
        let fresh = bounded_simulation(g, inc.pattern()).unwrap();
        assert_eq!(inc.current(), fresh, "incremental diverged from recompute");
    }

    #[test]
    fn paper_example3_incremental() {
        // Example 3: inserting e1 = (Fred, Dan) yields ΔM = {(SD, Fred)},
        // found "by only accessing M(Q,G) and e1" — no recompute.
        let mut f = collaboration_fig1();
        let q = fig1_pattern();
        let mut inc = IncrementalBoundedSim::new(&f.graph, &q);
        f.graph.add_edge(f.e1.0, f.e1.1);
        let delta = inc.on_update(&f.graph, EdgeUpdate::Insert(f.e1.0, f.e1.1));
        let sd = q.node_id("sd").unwrap();
        assert_eq!(
            delta,
            vec![MatchDelta {
                pattern_node: sd,
                data_node: f.fred,
                added: true
            }]
        );
        check_against_recompute(&f.graph, &inc);
    }

    #[test]
    fn paper_example3_reverse_deletion() {
        // delete e1 again: (SD, Fred) disappears
        let mut f = collaboration_fig1();
        f.graph.add_edge(f.e1.0, f.e1.1);
        let q = fig1_pattern();
        let mut inc = IncrementalBoundedSim::new(&f.graph, &q);
        f.graph.remove_edge(f.e1.0, f.e1.1);
        let delta = inc.on_update(&f.graph, EdgeUpdate::Delete(f.e1.0, f.e1.1));
        let sd = q.node_id("sd").unwrap();
        assert_eq!(
            delta,
            vec![MatchDelta {
                pattern_node: sd,
                data_node: f.fred,
                added: false
            }]
        );
        check_against_recompute(&f.graph, &inc);
    }

    #[test]
    fn deletion_cascades_through_bounds() {
        // chain A →(1) m →(1) B with pattern a →(≤2) b:
        // deleting m→B leaves A unable to reach any B within 2.
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let m = g.add_node("M", []);
        let b = g.add_node("B", []);
        g.add_edge(a, m);
        g.add_edge(m, b);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::hops(2))
            .build()
            .unwrap();
        let mut inc = IncrementalBoundedSim::new(&g, &q);
        assert_eq!(inc.current().total_pairs(), 2);
        g.remove_edge(m, b);
        inc.on_update(&g, EdgeUpdate::Delete(m, b));
        check_against_recompute(&g, &inc);
        assert!(inc.current().is_empty());
    }

    #[test]
    fn insertion_shortens_distance_into_bound() {
        // A and B exist, far apart; inserting a middle edge brings dist to 2
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let m1 = g.add_node("M", []);
        let b = g.add_node("B", []);
        g.add_edge(a, m1);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::hops(2))
            .build()
            .unwrap();
        let mut inc = IncrementalBoundedSim::new(&g, &q);
        assert!(inc.current().is_empty());
        g.add_edge(m1, b);
        inc.on_update(&g, EdgeUpdate::Insert(m1, b));
        check_against_recompute(&g, &inc);
        assert_eq!(inc.current().total_pairs(), 2);
    }

    #[test]
    fn self_support_via_cycle_maintained() {
        // pattern a →(≤2) a2, both label A; single node with no loop fails;
        // adding edges 0→1→0 gives node 0 a 2-cycle to itself (and node 1).
        let mut g = DiGraph::new();
        let n0 = g.add_node("A", []);
        let n1 = g.add_node("A", []);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("a2", Predicate::label("A"))
            .edge("a", "a2", Bound::hops(2))
            .build()
            .unwrap();
        let mut inc = IncrementalBoundedSim::new(&g, &q);
        assert!(inc.current().is_empty());
        g.add_edge(n0, n1);
        inc.on_update(&g, EdgeUpdate::Insert(n0, n1));
        check_against_recompute(&g, &inc);
        g.add_edge(n1, n0);
        inc.on_update(&g, EdgeUpdate::Insert(n1, n0));
        check_against_recompute(&g, &inc);
        assert_eq!(inc.current().total_pairs(), 4);
        // now break the cycle again
        g.remove_edge(n1, n0);
        inc.on_update(&g, EdgeUpdate::Delete(n1, n0));
        check_against_recompute(&g, &inc);
    }

    #[test]
    fn cyclic_pattern_mutual_support_incremental() {
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let b = g.add_node("B", []);
        g.add_edge(a, b);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::hops(2))
            .edge("b", "a", Bound::hops(2))
            .build()
            .unwrap();
        let mut inc = IncrementalBoundedSim::new(&g, &q);
        assert!(inc.current().is_empty());
        g.add_edge(b, a);
        inc.on_update(&g, EdgeUpdate::Insert(b, a));
        check_against_recompute(&g, &inc);
        assert_eq!(inc.current().total_pairs(), 2);
    }

    #[test]
    fn cancelled_construction_aborts_cleanly() {
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let token = CancelToken::new();
        token.cancel();
        let err = IncrementalBoundedSim::new_cancellable(&f.graph, &q, Some(&token));
        assert!(err.is_err(), "pre-cancelled token aborts construction");
        // an un-deadlined build afterwards is unaffected
        let inc = IncrementalBoundedSim::new(&f.graph, &q);
        check_against_recompute(&f.graph, &inc);
    }

    #[test]
    fn differential_random_updates_bounded() {
        let mut rng = StdRng::seed_from_u64(99);
        let spec = NodeSpec::uniform(3, 4);
        for trial in 0..10 {
            let mut g = erdos_renyi(&mut rng, 30, 90, &spec);
            let mut cfg = PatternConfig::new(PatternShape::Dag, 4, spec.labels.clone());
            cfg.bound_range = (1, 3);
            cfg.extra_edges = 1;
            let q = random_pattern(&mut rng, &cfg);
            let mut inc = IncrementalBoundedSim::new(&g, &q);
            let updates = random_updates(&mut rng, &g, 30, 0.5);
            for (i, &up) in updates.iter().enumerate() {
                assert!(g.apply(up));
                inc.on_update(&g, up);
                if i % 6 == 5 {
                    check_against_recompute(&g, &inc);
                }
            }
            check_against_recompute(&g, &inc);
            let _ = trial;
        }
    }

    #[test]
    fn differential_cyclic_patterns() {
        let mut rng = StdRng::seed_from_u64(123);
        let spec = NodeSpec::uniform(2, 3);
        for trial in 0..8 {
            let mut g = erdos_renyi(&mut rng, 20, 70, &spec);
            let cfg = PatternConfig::new(PatternShape::Cycle, 3, spec.labels.clone());
            let q = random_pattern(&mut rng, &cfg);
            let mut inc = IncrementalBoundedSim::new(&g, &q);
            let updates = random_updates(&mut rng, &g, 24, 0.5);
            for &up in &updates {
                assert!(g.apply(up));
                inc.on_update(&g, up);
                check_against_recompute(&g, &inc);
            }
            let _ = trial;
        }
    }

    #[test]
    fn batch_maintenance_matches_recompute() {
        let mut rng = StdRng::seed_from_u64(55);
        let spec = NodeSpec::uniform(4, 5);
        let mut g = erdos_renyi(&mut rng, 50, 200, &spec);
        let cfg = PatternConfig::new(PatternShape::Tree, 4, spec.labels.clone());
        let q = random_pattern(&mut rng, &cfg);
        let mut inc = IncrementalBoundedSim::new(&g, &q);
        let updates = random_updates(&mut rng, &g, 50, 0.4);
        apply_batch(&mut g, &mut inc, &updates);
        check_against_recompute(&g, &inc);
        assert!(inc.stats().affected_nodes > 0);
    }

    #[test]
    fn unbounded_pattern_still_exact() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..8)
            .map(|i| g.add_node(if i % 2 == 0 { "A" } else { "B" }, []))
            .collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::Unbounded)
            .build()
            .unwrap();
        let mut inc = IncrementalBoundedSim::new(&g, &q);
        let updates = random_updates(&mut rng, &g, 15, 0.5);
        for &up in &updates {
            assert!(g.apply(up));
            inc.on_update(&g, up);
            check_against_recompute(&g, &inc);
        }
    }
}
