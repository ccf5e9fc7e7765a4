//! Incremental maintenance for bounded simulation.
//!
//! Persistent state: the raw greatest-fixpoint sets `sim(u)`. A member
//! `v` of `sim(u)` is *supported* on a pattern edge `e = (u, u')` with
//! bound `b` when some `v' ∈ sim(u')` lies at the end of a non-empty path
//! of length ≤ `b` from `v` — including *self support around a cycle*
//! (`v = v'` with a non-empty cycle of length ≤ b), which `walk` handles
//! explicitly because a plain BFS reports the source at distance 0.
//!
//! Every support question is about one node — "who is within `b` of
//! `v`?" — and `walk` answers it with a single-source BFS whose marks
//! reset in O(1), so it costs the ball it visits, never `|V|`. Whether
//! `v` is supported on `e` is one forward walk, its nodes probed in
//! `sim(u')`; nothing caches the answer.
//!
//! ## Locality: the affected ball
//!
//! Changing one edge `(x, y)` can only change the ≤`b` reachability of
//! pairs whose shortest path runs through it, i.e. sources `v` with
//! `dist(v, x) ≤ b_max − 1`. Maintenance therefore:
//!
//! 1. computes `A = {x} ∪ ball_rev(x, b_max − 1)` (on the post-update
//!    graph — deletions cannot disconnect a source from `x` itself);
//! 2. **deletion** (distances grow, matches only shrink): re-checks the
//!    members in `A` on the edges whose bound reaches `x`
//!    (`dist(v, x) < b`), and cascades the ones left unsupported through
//!    the standard removal loop: each removal re-checks the members a
//!    reverse walk finds behind it;
//! 3. **insertion** (distances shrink, matches only grow): optimistic
//!    expansion admits candidate pairs in `A` supported by members *or
//!    other tentative pairs* (walking upstream through reverse walks),
//!    then a verification fixpoint removes unsupported tentatives. Old
//!    members can never be invalidated by an insertion, so verification
//!    re-checks tentatives only, and a tentative pair is in ΔM exactly
//!    when it is still in its raw set afterwards.
//!
//! Nothing an update allocates is sized by the graph: the tentative sets
//! persist across updates and are reset through the pairs they admitted,
//! and the members a removal re-checks are collected in one reused buffer.
//!
//! Patterns with unbounded (`*`) edges degrade gracefully: the ball radius
//! becomes "everything that can reach x", which is correct but no longer
//! local — the paper's patterns are bounded.
//!
//! ## The result graph and its ranking
//!
//! The maintainer also keeps what a ranked read needs, so that read
//! copies a prefix and computes nothing. **Arcs**: the arcs of `G_r`
//! over the raw sets ([`IncrementalBoundedSim::arcs`]) — per pattern edge
//! `(u, u', b)` and raw source `v ∈ sim(u)`, every candidate
//! `w ∈ cand0(u')`, `w ≠ v`, at distance `1..=b` — as per-node rows in
//! both directions, each entry carrying its pattern edge and weight.
//! The same locality argument bounds what an update can move: `v`'s
//! `b`-ball changes only if `dist(v, x) ≤ b − 1`, which step 1 already
//! knows for every `v` in `A`; an insertion `(x, y)` moves an arc only if
//! some candidate of `u'` is within `b − 1 − dist(v, x)` of `y`, and a
//! deletion only if an arc is longer than `dist(v, x)`. Those sources,
//! and the ones ΔM adds or removes, are marked dirty. **Ranking**:
//! `f(u_o, v)` of every member of `sim(u_o)`, held as the complete list
//! sorted by `(rank, node id)` ([`IncrementalBoundedSim::ranking`]).
//!
//! [`IncrementalBoundedSim::end_batch`] brings both up to date once per
//! update batch:
//!
//! 1. re-run the witness BFS of each dirty source on the graph as the
//!    batch left it, and patch the source's stored run with it in one
//!    pass that notes every changed arc (added, removed or reweighted);
//! 2. search the patched rows: backward from the tail of every changed
//!    arc, forward from its head, and both ways from every node ΔM moved.
//!    The output candidates reached are the ones whose `f` can have
//!    changed: `f(v)` reads only the arcs leaving `v`'s forward reach in
//!    `G_r` and those entering its backward reach, so a candidate whose
//!    old forward reach holds no changed tail, whose old backward reach
//!    holds no changed head, and neither of which holds an endpoint of an
//!    arc whose filter ΔM flipped, keeps its `f`. The unfiltered old rows
//!    hold the old `G_r`, so searching them finds a superset of those
//!    candidates — and searching the patched rows reaches the same nodes:
//!    on a path of old arcs to a changed tail, the first changed arc's
//!    tail is reached over unchanged arcs, which the patched rows keep.
//!    The same argument over new arcs gives the converse, and a path from
//!    a changed head is cut at its last changed arc instead;
//! 3. recompute `f` of the reached candidates still in `sim(u_o)`. When
//!    each one's `(rank, node)` is already in the list and no member left,
//!    the list stands as it is; else drop the ones that left and merge
//!    the recomputed ones in — a new `Arc` only if some entry moved. When
//!    the collapsed relation flips (a raw set empties or refills) the
//!    whole list is recomputed, or emptied.
//!
//! `G_r` is read off the rows with no copy: an arc counts when its head is
//! in the raw set of its pattern edge's target (its tail is in its
//! source's by construction), which while no raw set is empty is the
//! collapsed relation. `f` comes from
//! [`RankScratch::social_impact`], the kernel a cold read ranks with, so
//! the ranks are bit-equal to it. The search marks and the two
//! `|V|`-sized Dijkstra arrays live in a [`RerankScratch`] the caller
//! passes in, one per graph, not per query.

use crate::{IncStats, Maintainer, MatchDelta};
use expfinder_core::bsim::bounded_fixpoint_raw;
use expfinder_core::fixpoint::EvalScratch;
use expfinder_core::matchrel::MatchRelation;
use expfinder_core::rank::rank_order;
use expfinder_core::result_graph::{witness_arcs, ResultEdge};
use expfinder_core::{candidate_sets, RankScratch, RankedMatch, ResultArcs};
use expfinder_graph::bfs::{BfsScratch, Direction};
use expfinder_graph::dijkstra::WeightedArcs;
use expfinder_graph::{BitSet, DiGraph, EdgeUpdate, GraphView, NodeId};
use expfinder_pattern::{PNodeId, Pattern, PatternEdge};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// Maintains `M(Q,G)` for a bounded-simulation pattern under edge updates.
pub struct IncrementalBoundedSim {
    pattern: Pattern,
    cand0: Vec<BitSet>,
    /// Raw greatest-fixpoint match sets.
    sim: Vec<BitSet>,
    /// `max_bound - 1`, or `u32::MAX` for patterns with unbounded edges.
    ball_radius: u32,
    data_nodes: usize,
    walker: Walker,
    /// Per pattern node, the pairs an insertion admits tentatively; empty
    /// between updates.
    tentative: Vec<BitSet>,
    /// The members a removal re-checks, found by one reverse walk; empty
    /// between updates.
    supporters: Vec<NodeId>,
    /// Persistent output buffer of [`IncrementalBoundedSim::affected`].
    affected_buf: Vec<(NodeId, u32)>,
    /// The arcs of `G_r` over the raw sets (see [`Self::arcs`]).
    rows: Rows,
    /// Every member of `sim(u_o)` with its `f`, sorted by `(rank, node
    /// id)`; empty while the collapsed relation is, or with no output
    /// node. Replaced, never written through, so a published `Arc` stays
    /// exact for the version it was published at.
    ranking: Arc<[RankedMatch]>,
    /// Whether the collapsed relation was non-empty (no raw set empty) at
    /// the last batch end.
    matched: bool,
    /// Per pattern edge, the sources whose arcs the batch in progress may
    /// have changed, repeats allowed; [`Self::end_batch`] drains them.
    dirty: Vec<Vec<NodeId>>,
    /// The nodes whose membership ΔM changed during the batch, repeats
    /// allowed.
    moved: Vec<NodeId>,
    repair: Repair,
    stats: IncStats,
}

/// The distinct nodes of `list`, ascending; leaves it empty.
fn drain_sorted(list: &mut Vec<NodeId>) -> std::vec::Drain<'_, NodeId> {
    list.sort_unstable();
    list.dedup();
    list.drain(..)
}

/// The buffers of [`IncrementalBoundedSim::end_batch`], kept across
/// batches.
#[derive(Default)]
struct Repair {
    /// One dirty source's arcs on the current graph.
    fresh: Vec<ResultEdge>,
    /// The search's seeds: the heads of the changed arcs and every node
    /// ΔM moved, searched forward; their tails and the same moved nodes,
    /// searched backward.
    heads: Vec<NodeId>,
    tails: Vec<NodeId>,
    /// The output candidates the search reached, ascending.
    touched: Vec<NodeId>,
}

/// What [`IncrementalBoundedSim::end_batch`] searches and ranks with: the
/// two Dijkstra runs of `f`, whose distance arrays span the graph's
/// nodes, and the marks of the search that decides which candidates to
/// re-rank. Meant to be one per graph, shared by its registered queries
/// in turn, so no `|V|`-sized array is kept per query.
#[derive(Default)]
pub struct RerankScratch {
    rank: RankScratch,
    seen: BitSet,
    visited: Vec<NodeId>,
}

impl RerankScratch {
    /// Ball nodes visited by result-graph builds on this scratch
    /// ([`RankScratch::build_visits`]): a batch end ranks over the
    /// maintained rows and builds no `G_r`, so this stays 0.
    pub fn build_visits(&self) -> u64 {
        self.rank.build_visits()
    }
}

/// One entry of a [`Rows`] row: the node at the arc's other end, its
/// weight, and the pattern edge it witnesses.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct RowArc {
    node: NodeId,
    weight: u32,
    pattern_edge: u32,
}

/// Hashes a [`NodeId`] with one multiply: a Dijkstra run over [`Rows`]
/// looks a row up per node it settles, where SipHash would cost more than
/// the run. Node ids are dense and below the graph's node count, and the
/// multiply is injective on them.
#[derive(Default)]
struct NodeHasher(u64);

impl Hasher for NodeHasher {
    fn finish(&self) -> u64 {
        // Fibonacci hashing: the product's high half mixes every bit of
        // the id, so it goes to the low bits the table indexes buckets by
        // (ids that agree in their low bits would share a bucket)
        self.0.rotate_left(32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(b.into());
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(v)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// One direction of [`Rows`]: node → its row.
type RowMap = HashMap<NodeId, Vec<RowArc>, BuildHasherDefault<NodeHasher>>;

/// The maintained arcs of `G_r` as per-node rows in both directions, kept
/// only for nodes that have arcs. Unfiltered: a target leaving its raw set
/// keeps its arcs ([`GrView`] filters them as a run reads them).
#[derive(Default)]
struct Rows {
    /// Tail → its arcs (`node` the head), in `(pattern_edge, head)` order.
    out: RowMap,
    /// Head → its arcs (`node` the tail), in no set order.
    inn: RowMap,
}

/// Where pattern edge `ei`'s arcs are in a tail's row (an empty range at
/// their place when there are none).
fn run_of(row: &[RowArc], ei: u32) -> Range<usize> {
    let lo = row.partition_point(|a| a.pattern_edge < ei);
    lo..lo + row[lo..].partition_point(|a| a.pattern_edge == ei)
}

/// `head`'s in-row, and where in it the arc of pattern edge `ei` from
/// `tail` is.
fn in_entry(inn: &mut RowMap, head: NodeId, tail: NodeId, ei: u32) -> (&mut Vec<RowArc>, usize) {
    let into = inn.get_mut(&head).expect("an in-row per head");
    let at = into
        .iter()
        .position(|a| (a.node, a.pattern_edge) == (tail, ei));
    (into, at.expect("the arc's in-entry"))
}

impl Rows {
    /// The stored arcs of pattern edge `ei` from `v`, ascending by head.
    fn run(&self, ei: u32, v: NodeId) -> &[RowArc] {
        self.out.get(&v).map_or(&[], |row| &row[run_of(row, ei)])
    }

    /// Replace the arcs of pattern edge `ei` from `v` by `fresh` (`v`'s
    /// witnesses, ascending by head), in both directions, walking the
    /// stored run and `fresh` together once: push onto `heads` the head of
    /// every arc that differs — added, removed or reweighted — and touch
    /// only those arcs' in-entries. Returns whether any differed.
    fn patch(&mut self, ei: u32, v: NodeId, fresh: &[ResultEdge], heads: &mut Vec<NodeId>) -> bool {
        let Rows { out, inn } = self;
        let old = out.get(&v).map_or(&[][..], |row| &row[run_of(row, ei)]);
        let arc = |node, weight| RowArc {
            node,
            weight,
            pattern_edge: ei,
        };
        let (mut i, mut j, start) = (0, 0, heads.len());
        loop {
            match (old.get(i), fresh.get(j)) {
                (Some(a), Some(e)) if a.node == e.to => {
                    (i, j) = (i + 1, j + 1);
                    if a.weight != e.weight {
                        let (into, at) = in_entry(inn, a.node, v, ei);
                        into[at].weight = e.weight;
                        heads.push(a.node);
                    }
                }
                (Some(a), e) if e.is_none_or(|e| a.node < e.to) => {
                    i += 1;
                    let (into, at) = in_entry(inn, a.node, v, ei);
                    into.swap_remove(at);
                    if into.is_empty() {
                        inn.remove(&a.node);
                    }
                    heads.push(a.node);
                }
                (_, Some(e)) => {
                    j += 1;
                    inn.entry(e.to).or_default().push(arc(v, e.weight));
                    heads.push(e.to);
                }
                (_, None) => break,
            }
        }
        let changed = heads.len() > start;
        if changed {
            let row = out.entry(v).or_default();
            row.splice(run_of(row, ei), fresh.iter().map(|e| arc(e.to, e.weight)));
            if row.is_empty() {
                out.remove(&v);
            }
        }
        changed
    }

    /// Append to `out` every node of `keep` a path of stored arcs leads to
    /// from one of `heads`, or from which one leads to one of `tails` (the
    /// seeds included); then sort and deduplicate `out`. Returns the nodes
    /// visited, counted once per direction.
    fn reached(
        &self,
        (heads, tails): (&[NodeId], &[NodeId]),
        keep: &BitSet,
        scratch: &mut RerankScratch,
        out: &mut Vec<NodeId>,
    ) -> usize {
        let RerankScratch { seen, visited, .. } = scratch;
        if seen.capacity() != keep.capacity() {
            *seen = BitSet::new(keep.capacity());
        }
        let mut visits = 0;
        for (rows, seeds) in [(&self.out, heads), (&self.inn, tails)] {
            for &v in seeds {
                if seen.insert(v) {
                    visited.push(v);
                }
            }
            // `visited` is the queue: every node is pushed once, when seen
            let mut next = 0;
            while let Some(&u) = visited.get(next) {
                next += 1;
                if keep.contains(u) {
                    out.push(u);
                }
                for a in rows.get(&u).into_iter().flatten() {
                    if seen.insert(a.node) {
                        visited.push(a.node);
                    }
                }
            }
            visits += visited.len();
            for v in visited.drain(..) {
                seen.remove(v);
            }
        }
        out.sort_unstable();
        out.dedup();
        visits
    }
}

/// `G_r` as the rows describe it under the raw sets, over data-node ids:
/// an arc counts when its head is in the raw set of its pattern edge's
/// target.
struct Gr<'a> {
    rows: &'a Rows,
    pattern: &'a Pattern,
    sim: &'a [BitSet],
}

impl ResultArcs for &Gr<'_> {
    fn one_way(&mut self, dir: Direction) -> impl WeightedArcs + '_ {
        let forward = dir == Direction::Forward;
        GrView {
            rows: if forward {
                &self.rows.out
            } else {
                &self.rows.inn
            },
            forward,
            pattern: self.pattern,
            sim: self.sim,
        }
    }
}

/// One direction of a [`Gr`]: `forward` reads the tails' rows, else the
/// heads'.
struct GrView<'a> {
    rows: &'a RowMap,
    forward: bool,
    pattern: &'a Pattern,
    sim: &'a [BitSet],
}

impl WeightedArcs for GrView<'_> {
    fn node_count(&self) -> usize {
        self.sim.first().map_or(0, BitSet::capacity)
    }

    fn arcs(&mut self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let edges = self.pattern.edges();
        let row = self.rows.get(&NodeId(v)).map_or(&[][..], Vec::as_slice);
        row.iter().filter_map(move |a| {
            let head = if self.forward { a.node } else { NodeId(v) };
            let target = edges[a.pattern_edge as usize].to;
            self.sim[target.index()]
                .contains(head)
                .then_some((a.node.0, a.weight))
        })
    }
}

/// The one BFS state of every traversal — the affected ball, the
/// `y`-ball of an insertion, the support walks and the witness runs of
/// [`IncrementalBoundedSim::end_batch`] — and the nodes its walks
/// returned ([`IncStats::walk_visits`]).
struct Walker {
    bfs: BfsScratch,
    visits: usize,
}

impl Walker {
    /// Every node joined to `v` by a non-empty path of length ≤ `depth`
    /// in direction `dir`, seen from `v`: with [`Direction::Forward`] the
    /// nodes `v` reaches (those it is supported *on*), with
    /// [`Direction::Backward`] the nodes that reach `v` (those it
    /// supports). `v` itself counts only when a cycle of length ≤ `depth`
    /// passes through it, i.e. a neighbour in the opposite direction lies
    /// within `depth − 1` of it. A depth-1 walk reads the adjacency list,
    /// which holds `v` only through a self-loop. Each node comes once, and
    /// the walk costs its ball.
    fn walk<'a>(
        &'a mut self,
        g: &'a DiGraph,
        v: NodeId,
        depth: u32,
        dir: Direction,
    ) -> impl Iterator<Item = NodeId> + 'a {
        let (cycle, nodes) = if depth == 1 {
            (false, dir.neighbors(g, v))
        } else {
            let ball = self.bfs.ball(g, v, depth, dir);
            let closes = |w: &NodeId| ball.dist_of(*w).is_some_and(|d| d < depth);
            let cycle = dir.opposite().neighbors(g, v).iter().any(closes);
            (cycle, &ball.nodes()[1..])
        };
        self.visits += usize::from(cycle) + nodes.len();
        cycle.then_some(v).into_iter().chain(nodes.iter().copied())
    }

    /// Whether `v` is supported on `e`: a member of `sim(e.to)` lies
    /// within `e`'s bound of it, found by one forward walk.
    fn supported(&mut self, g: &DiGraph, e: &PatternEdge, sim: &[BitSet], v: NodeId) -> bool {
        let members = &sim[e.to.index()];
        (self.walk(g, v, e.bound.depth(), Direction::Forward)).any(|w| members.contains(w))
    }
}

impl IncrementalBoundedSim {
    /// Evaluate `q` on `g` once (exact raw fixpoint, no early exit), then
    /// collect the arcs of `G_r` and rank the output node's matches.
    pub fn new(g: &DiGraph, q: &Pattern) -> IncrementalBoundedSim {
        let cand0 = candidate_sets(g, q);
        let mut eval_scratch = EvalScratch::new();
        let (sim, _) = bounded_fixpoint_raw(g, q, cand0.clone(), false, &mut eval_scratch, None)
            .expect("no cancel token supplied");
        let n = g.node_count();
        // sized here, so no update allocates the BFS arrays
        let mut scratch = BfsScratch::new();
        scratch.ensure(n);
        // the arcs of G_r: one witness run per raw source per pattern edge
        let (mut rows, mut arcs, mut heads) = (Rows::default(), Vec::new(), Vec::new());
        for (ei, e) in q.edges().iter().enumerate() {
            for v in sim[e.from.index()].iter() {
                arcs.clear();
                let targets = &cand0[e.to.index()];
                witness_arcs(g, q, ei, v, targets, &mut scratch, &mut arcs);
                rows.patch(ei as u32, v, &arcs, &mut heads);
                heads.clear();
            }
        }
        let ball_radius = match q.max_bound() {
            Some(b) => b - 1,
            None => u32::MAX,
        };
        let matched = sim.iter().all(|s| !s.is_empty());
        let mut inc = IncrementalBoundedSim {
            pattern: q.clone(),
            cand0,
            sim,
            ball_radius,
            data_nodes: n,
            walker: Walker {
                bfs: scratch,
                visits: 0,
            },
            tentative: (0..q.node_count()).map(|_| BitSet::new(n)).collect(),
            supporters: Vec::new(),
            affected_buf: Vec::new(),
            rows,
            ranking: Arc::new([]),
            matched,
            dirty: vec![Vec::new(); q.edge_count()],
            moved: Vec::new(),
            repair: Repair::default(),
            stats: IncStats::default(),
        };
        if let (Some(uo), true) = (q.output(), matched) {
            let members = inc.sim[uo.index()].to_vec();
            inc.ranking = inc.rank(&members, &mut RerankScratch::default()).into();
        }
        inc
    }

    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Debug check that no batch is open: what the batch end maintains is
    /// read only between batches.
    fn assert_batch_ended(&self, what: &str) {
        debug_assert!(
            self.dirty.iter().all(Vec::is_empty) && self.moved.is_empty(),
            "{what} read before the batch's end_batch"
        );
    }

    /// The arcs of `G_r` as of the last [`end_batch`](Self::end_batch),
    /// collected in `(pattern_edge, from, to)` order: for every pattern
    /// edge `e = (u, u', b)` and every `v` in the raw set `sim(u)`, one
    /// arc to each candidate `w ∈ cand0(u')`, `w ≠ v`, at shortest distance
    /// `1..=b` from `v`, weighted with it. Targets are candidates, not
    /// members, so a ΔM on `u'` leaves every arc standing; the ones whose
    /// head is in `sim(u')` are, while no raw set is empty, exactly the
    /// `G_r` a BFS build over the collapsed relation collects.
    pub fn arcs(&self) -> Vec<ResultEdge> {
        self.assert_batch_ended("arcs");
        let mut arcs: Vec<ResultEdge> = (self.rows.out.iter())
            .flat_map(|(&from, row)| {
                row.iter().map(move |a| ResultEdge {
                    from,
                    to: a.node,
                    weight: a.weight,
                    pattern_edge: a.pattern_edge,
                })
            })
            .collect();
        arcs.sort_unstable_by_key(|e| (e.pattern_edge, e.from, e.to));
        arcs
    }

    /// The ranking as of the last [`end_batch`](Self::end_batch): every
    /// match of the output node with its `f(u_o, v)` over `G_r`, sorted
    /// by `(rank, node id)` — what
    /// [`rank_matches_top_k`](expfinder_core::rank_matches_top_k) gives
    /// for every `k` on a built `G_r`, bit for bit. Empty when the collapsed relation is, and when
    /// the pattern has no output node.
    pub fn ranking(&self) -> &Arc<[RankedMatch]> {
        self.assert_batch_ended("ranking");
        &self.ranking
    }

    /// `f` of each of `nodes` over the rows, sorted by `(rank, node id)`.
    fn rank(&self, nodes: &[NodeId], scratch: &mut RerankScratch) -> Vec<RankedMatch> {
        let gr = Gr {
            rows: &self.rows,
            pattern: &self.pattern,
            sim: &self.sim,
        };
        let mut ranked: Vec<RankedMatch> = (nodes.iter())
            .map(|&node| RankedMatch {
                node,
                rank: scratch.rank.social_impact(&gr, node.0),
            })
            .collect();
        ranked.sort_by(rank_order);
        ranked
    }

    /// End an update batch on `g`, the graph as the batch left it: repair
    /// the `G_r` arcs of every source the batch dirtied (one witness BFS
    /// each, and the sources that left their raw set lose theirs), then
    /// re-rank the candidates whose `f` the changed arcs and ΔM can have
    /// moved — found by a search of the patched rows — and merge
    /// them into the ranking. Returns whether the ranking changed: only
    /// then is it a new `Arc`. See the module docs for the steps and why
    /// the search finds every moved candidate.
    pub fn end_batch(&mut self, g: &DiGraph, scratch: &mut RerankScratch) -> bool {
        let Repair {
            fresh,
            heads,
            tails,
            touched,
        } = &mut self.repair;
        for nodes in [&mut *heads, &mut *tails, &mut *touched] {
            nodes.clear();
        }
        let q = &self.pattern;
        for (ei, e) in q.edges().iter().enumerate() {
            let (sources, targets) = (&self.sim[e.from.index()], &self.cand0[e.to.index()]);
            for v in drain_sorted(&mut self.dirty[ei]) {
                fresh.clear();
                if sources.contains(v) {
                    self.stats.repair_sources += 1;
                    witness_arcs(g, q, ei, v, targets, &mut self.walker.bfs, fresh);
                }
                if self.rows.patch(ei as u32, v, fresh, heads) {
                    tails.push(v);
                }
            }
        }
        for v in drain_sorted(&mut self.moved) {
            heads.push(v);
            tails.push(v);
        }
        let was = self.matched;
        self.matched = self.sim.iter().all(|s| !s.is_empty());
        let output = self.pattern.output();
        if let (Some(uo), true, true) = (output, was, self.matched) {
            let (seeds, candidates) = ((&heads[..], &tails[..]), &self.cand0[uo.index()]);
            self.stats.search_visits += self.rows.reached(seeds, candidates, scratch, touched);
        }

        let Some(uo) = output else {
            return false;
        };
        let members = &self.sim[uo.index()];
        let ranking = if !self.matched {
            Vec::new()
        } else if !was {
            let all = members.to_vec();
            self.stats.rerank_candidates += all.len();
            self.rank(&all, scratch)
        } else if touched.is_empty() {
            return false;
        } else {
            self.repair.touched.retain(|&v| members.contains(v));
            let touched = &self.repair.touched;
            self.stats.rerank_candidates += touched.len();
            let fresh = self.rank(touched, scratch);
            let old = &self.ranking;
            // every re-ranked candidate found at its old `(rank, node)` and
            // no member gone: the list stands, and nothing is copied
            let stands = |f: &RankedMatch| old.binary_search_by(|m| rank_order(m, f)).is_ok();
            if members.count() == old.len() && fresh.iter().all(stands) {
                return false;
            }
            let kept = |m: &&RankedMatch| {
                members.contains(m.node) && touched.binary_search(&m.node).is_err()
            };
            let kept: Vec<RankedMatch> = old.iter().filter(kept).copied().collect();
            merge_ranked(&kept, &fresh)
        };
        if *ranking == *self.ranking {
            return false;
        }
        self.ranking = ranking.into();
        true
    }

    /// Mark `v` dirty on every out-edge of `u` and as moved (ΔM moved
    /// `(u, v)`).
    fn dirty_source(&mut self, u: PNodeId, v: NodeId) {
        for &ei in self.pattern.out_edge_indices(u) {
            self.dirty[ei as usize].push(v);
        }
        self.moved.push(v);
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
        let ball = (self.walker.bfs).ball(g, x, self.ball_radius, Direction::Backward);
        out.extend(ball.iter());
        debug_assert_eq!(out.first(), Some(&(x, 0)));
        self.stats.affected_nodes += out.len();
        out
    }

    /// Whether `v`, a member of `sim(u)`, is unsupported on some out-edge
    /// of `u` whose bound reaches past `dvx` — the edges a change `dvx`
    /// hops downstream of `v` can have cut (every edge, at `dvx = 0`).
    fn violated(&mut self, g: &DiGraph, u: PNodeId, v: NodeId, dvx: u32) -> bool {
        (self.pattern.out_edges(u))
            .any(|e| dvx < e.bound.depth() && !self.walker.supported(g, e, &self.sim, v))
    }

    /// Removal cascade shared by deletion handling and insert verification:
    /// the queued members were found unsupported; remove them, re-check
    /// every member a removed pair may have supported, remove each one left
    /// unsupported the same way, and return all removed pairs in removal
    /// order. `verify`: only tentative pairs are re-checked (insert
    /// verification — an insertion cannot invalidate an old member); else
    /// every member (deletion).
    fn removal_cascade(
        &mut self,
        g: &DiGraph,
        mut queue: Vec<(PNodeId, NodeId)>,
        verify: bool,
    ) -> Vec<(PNodeId, NodeId)> {
        for &(u, v) in &queue {
            self.sim[u.index()].remove(v);
        }
        let mut removed = Vec::new();
        while let Some((u, v)) = queue.pop() {
            removed.push((u, v));
            // v left sim(u): re-check, on every edge → u, the members one
            // reverse walk from v finds
            for &ei in self.pattern.in_edge_indices(u) {
                let e = &self.pattern.edges()[ei as usize];
                let from = e.from.index();
                let (members, tentative) = (&self.sim[from], &self.tentative[from]);
                let behind = (self.walker.walk(g, v, e.bound.depth(), Direction::Backward))
                    .filter(|&w| members.contains(w) && (!verify || tentative.contains(w)));
                self.supporters.extend(behind);
                for w in self.supporters.drain(..) {
                    if !self.walker.supported(g, e, &self.sim, w) {
                        self.sim[from].remove(w);
                        queue.push((e.from, w));
                    }
                }
            }
        }
        removed
    }

    /// Mark dirty, per pattern edge `e = (u, u', b)`, the members `v` of
    /// `sim(u)` in the affected ball within `b − 1` of the changed edge's
    /// tail — no other `b`-ball can reach through the edge — for which
    /// `moves(e, its index, v, dist(v, x))` says the edge can change an
    /// arc. Sources that join or leave `sim(u)` are ΔM's to mark.
    fn mark_dirty(
        &mut self,
        affected: &[(NodeId, u32)],
        moves: impl Fn(&Rows, &PatternEdge, u32, NodeId, u32) -> bool,
    ) {
        for (ei, e) in self.pattern.edges().iter().enumerate() {
            let radius = e.bound.depth().saturating_sub(1);
            for &(v, dvx) in affected {
                if dvx <= radius
                    && self.sim[e.from.index()].contains(v)
                    && moves(&self.rows, e, ei as u32, v, dvx)
                {
                    self.dirty[ei].push(v);
                }
            }
        }
    }

    fn on_delete(&mut self, g: &DiGraph, x: NodeId) -> Vec<MatchDelta> {
        let affected = self.affected(g, x);
        // a deleted (x, y) lengthens only shortest paths through it, and
        // one from v to w through it is longer than dist(v, x); the stored
        // arcs are as the batch began, but a source whose arcs an earlier
        // update of the batch moved is dirty already
        self.mark_dirty(&affected, |rows, _, ei, v, dvx| {
            rows.run(ei, v).iter().any(|a| a.weight > dvx)
        });

        // members in the affected area whose support vanished
        let mut queue: Vec<(PNodeId, NodeId)> = Vec::new();
        for u in self.pattern.ids() {
            for &(v, dvx) in &affected {
                if self.sim[u.index()].contains(v) && self.violated(g, u, v, dvx) {
                    queue.push((u, v));
                }
            }
        }
        let removed = self.removal_cascade(g, queue, false);
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

        // For terminality detection: how far is the closest *candidate* of
        // each pattern node from y? A pair (u, v) can only have gained
        // support through the new edge (x, y) if for some out-edge
        // e = (u, u'):  dist(v, x) + 1 + min_{v' ∈ cand0(u')} dist(y, v')
        // fits within b_e (candidates over-approximate the new members, so
        // this is sound; verification trims the excess).
        let y_ball_depth = self.ball_radius; // b_max − 1
        let mut dmin_y: Vec<u64> = vec![u64::MAX; self.pattern.node_count()];
        {
            let ball = self.walker.bfs.ball(g, y, y_ball_depth, Direction::Forward);
            for (w, d) in ball.iter() {
                for u in self.pattern.ids() {
                    if self.cand0[u.index()].contains(w) {
                        let slot = &mut dmin_y[u.index()];
                        *slot = (*slot).min(d as u64);
                    }
                }
            }
        }
        // the same bound decides which arcs the new edge can shorten or
        // add: a path through it to a candidate of u' that fits b
        self.mark_dirty(&affected, |_, e, _, _, dvx| {
            let need = (dvx as u64 + 1).saturating_add(dmin_y[e.to.index()]);
            need <= e.bound.depth() as u64
        });

        // ---- optimistic expansion: unconditional upstream closure ----
        //
        // Seeds are candidate pairs in the affected ball for which the new
        // edge could complete a path to some candidate of a required
        // target. From the seeds the closure walks upstream WITHOUT
        // support checks — checking here would fail to bootstrap cyclic
        // mutual support (pairs that only support each other). The
        // verification fixpoint below trims the over-approximation
        // exactly.
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
        let mut added: Vec<(PNodeId, NodeId)> = Vec::new();
        while let Some((u, v)) = worklist.pop() {
            if self.sim[u.index()].contains(v) || !self.tentative[u.index()].insert(v) {
                continue;
            }
            self.stats.tentative_pairs += 1;
            added.push((u, v));
            for &ei in self.pattern.in_edge_indices(u) {
                let e = &self.pattern.edges()[ei as usize];
                let (from, depth) = (e.from.index(), e.bound.depth());
                for p in self.walker.walk(g, v, depth, Direction::Backward) {
                    if self.cand0[from].contains(p)
                        && !self.sim[from].contains(p)
                        && !self.tentative[from].contains(p)
                    {
                        worklist.push((e.from, p));
                    }
                }
            }
        }

        // ---- finalize: admit tentatives ----
        // in (pattern node, data node) order, the order ΔM lists them in
        added.sort_unstable();
        for &(u, v) in &added {
            self.sim[u.index()].insert(v);
        }

        // ---- verification: remove unsupported tentatives ----
        let queue = (added.iter().copied())
            .filter(|&(u, v)| self.violated(g, u, v, 0))
            .collect();
        self.removal_cascade(g, queue, true);
        self.affected_buf = affected;
        for &(u, v) in &added {
            self.tentative[u.index()].remove(v);
        }

        // verification removed tentative pairs only: the ones still in
        // their raw set are ΔM
        let deltas: Vec<MatchDelta> = added
            .into_iter()
            .filter(|&(u, v)| self.sim[u.index()].contains(v))
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

/// `kept` and `fresh`, each sorted by `(rank, node id)` and disjoint,
/// merged into one list sorted the same way.
fn merge_ranked(kept: &[RankedMatch], fresh: &[RankedMatch]) -> Vec<RankedMatch> {
    let mut out = Vec::with_capacity(kept.len() + fresh.len());
    let mut fresh = fresh.iter().peekable();
    for m in kept {
        while let Some(f) = fresh.next_if(|f| rank_order(f, m).is_lt()) {
            out.push(*f);
        }
        out.push(*m);
    }
    out.extend(fresh);
    out
}

impl Maintainer for IncrementalBoundedSim {
    fn on_update(&mut self, g: &DiGraph, update: EdgeUpdate) -> Vec<MatchDelta> {
        let (x, y) = update.endpoints();
        self.assert_node(x);
        self.assert_node(y);
        let deltas = match update {
            EdgeUpdate::Insert(..) => {
                debug_assert!(g.has_edge(x, y), "insert must be applied before on_update");
                self.on_insert(g, x, y)
            }
            EdgeUpdate::Delete(..) => {
                debug_assert!(!g.has_edge(x, y), "delete must be applied before on_update");
                self.on_delete(g, x)
            }
        };
        for d in &deltas {
            self.dirty_source(d.pattern_node, d.data_node);
        }
        deltas
    }

    fn current(&self) -> MatchRelation {
        MatchRelation::from_sets(self.sim.clone(), self.data_nodes)
    }

    /// Counted on the raw sets under the all-or-nothing rule of
    /// [`MatchRelation::from_sets`]: one empty set empties the relation.
    fn total_pairs(&self) -> usize {
        if self.sim.iter().any(|s| s.is_empty()) {
            0
        } else {
            self.sim.iter().map(|s| s.count()).sum()
        }
    }

    fn stats(&self) -> IncStats {
        IncStats {
            walk_visits: self.walker.visits,
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_core::naive::{naive_bounded_fixpoint, reference_rank};
    use expfinder_graph::fixtures::collaboration_fig1;
    use expfinder_graph::generate::{erdos_renyi, random_updates, NodeSpec};
    use expfinder_pattern::fixtures::fig1_pattern;
    use expfinder_pattern::generate::{random_pattern, PatternConfig, PatternShape};
    use expfinder_pattern::{Bound, PatternBuilder, Predicate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::RefCell;

    /// The maintained raw sets are the naive raw fixpoint of the current
    /// graph — so the collapsed relation is naive's too, and a dead query
    /// keeps exactly the state it springs back from.
    fn check_against_recompute(g: &DiGraph, inc: &IncrementalBoundedSim) {
        let q = inc.pattern();
        let raw = naive_bounded_fixpoint(g, q, candidate_sets(g, q));
        assert_eq!(inc.sim, raw, "incremental diverged from recompute");
    }

    /// Apply a batch of updates to `g`, maintaining `m` along the way, then
    /// end the batch once. Returns the combined ΔM (per-update deltas
    /// concatenated; a pair that flips twice appears twice).
    fn apply_batch(
        g: &mut DiGraph,
        m: &mut IncrementalBoundedSim,
        updates: &[EdgeUpdate],
    ) -> Vec<MatchDelta> {
        let mut all = Vec::new();
        for &up in updates {
            if g.apply(up) {
                all.extend(m.on_update(g, up));
            }
        }
        end(g, m);
        all
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
    fn self_support_needs_a_cycle_within_the_bound() {
        // a →(≤b) a2 over `A`, and one `A` node v on the cycle
        // v → x1 → x2 → v of length 3: v supports itself on it exactly
        // when b ≥ 3, whether the cycle was there at the build or an
        // insertion closed it
        for (b, supported) in [(2, false), (3, true), (4, true)] {
            let q = PatternBuilder::new()
                .node("a", Predicate::label("A"))
                .node("a2", Predicate::label("A"))
                .edge("a", "a2", Bound::hops(b))
                .build()
                .unwrap();
            let mut g = DiGraph::new();
            let [v, x1, x2] = ["A", "X", "X"].map(|l| g.add_node(l, []));
            g.add_edge(v, x1);
            g.add_edge(x1, x2);
            let mut inc = IncrementalBoundedSim::new(&g, &q);
            g.add_edge(x2, v);
            inc.on_update(&g, EdgeUpdate::Insert(x2, v));
            check_against_recompute(&g, &inc);
            let built = IncrementalBoundedSim::new(&g, &q);
            for inc in [&inc, &built] {
                assert_eq!(inc.sim[0].contains(v), supported, "b = {b}");
                assert_eq!(inc.current().total_pairs(), 2 * usize::from(supported));
            }
            g.remove_edge(x1, x2);
            inc.on_update(&g, EdgeUpdate::Delete(x1, x2));
            check_against_recompute(&g, &inc);
            assert!(inc.current().is_empty(), "b = {b}");
        }
    }

    #[test]
    fn a_cycle_one_hop_longer_than_the_bound_supports_nothing() {
        // a →(≤2) a2 over `A`: v is on the 3-cycle v → x1 → x2 → v and
        // matched through v → w. Deleting v → w leaves v only the cycle,
        // one hop too long, so the deletion's re-check must drop it
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("a2", Predicate::label("A"))
            .edge("a", "a2", Bound::hops(2))
            .build()
            .unwrap();
        let mut g = DiGraph::new();
        let [v, w, x1, x2] = ["A", "A", "X", "X"].map(|l| g.add_node(l, []));
        for (p, c) in [(v, x1), (x1, x2), (x2, v), (v, w)] {
            g.add_edge(p, c);
        }
        let mut inc = IncrementalBoundedSim::new(&g, &q);
        assert!(inc.sim[0].contains(v));
        g.remove_edge(v, w);
        inc.on_update(&g, EdgeUpdate::Delete(v, w));
        check_against_recompute(&g, &inc);
        assert!(!inc.sim[0].contains(v));
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

    /// Plain simulation: node `a` has label `A` and so on, every listed
    /// edge has bound 1.
    fn simulation_pattern(nodes: &[&str], edges: &[(&str, &str)]) -> Pattern {
        let mut b = PatternBuilder::new();
        for &n in nodes {
            b = b.node(n, Predicate::label(n.to_uppercase()));
        }
        for &(from, to) in edges {
            b = b.edge(from, to, Bound::ONE);
        }
        b.build().unwrap()
    }

    #[test]
    fn bound_one_insertion_revives_a_dead_pattern_node() {
        // A  B, no edge: `a` has no match, so M is empty until the insert
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let b = g.add_node("B", []);
        let q = simulation_pattern(&["a", "b"], &[("a", "b")]);
        let mut inc = IncrementalBoundedSim::new(&g, &q);
        assert!(inc.current().is_empty());
        g.add_edge(a, b);
        let delta = inc.on_update(&g, EdgeUpdate::Insert(a, b));
        check_against_recompute(&g, &inc);
        assert_eq!(inc.current().total_pairs(), 2);
        // (b, B) was already in the raw sets; only (a, A) is new
        assert_eq!(
            delta,
            vec![MatchDelta {
                pattern_node: q.node_id("a").unwrap(),
                data_node: a,
                added: true
            }]
        );
    }

    #[test]
    fn bound_one_insertion_admits_cyclic_mutual_support() {
        // pattern a ⇄ b; data A → B without the back edge: inserting
        // B → A must admit both pairs at once
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let b = g.add_node("B", []);
        g.add_edge(a, b);
        let q = simulation_pattern(&["a", "b"], &[("a", "b"), ("b", "a")]);
        let mut inc = IncrementalBoundedSim::new(&g, &q);
        assert!(inc.current().is_empty());
        g.add_edge(b, a);
        inc.on_update(&g, EdgeUpdate::Insert(b, a));
        check_against_recompute(&g, &inc);
        assert_eq!(inc.current().total_pairs(), 2);
    }

    #[test]
    fn bound_one_verification_trims_tentative_pairs() {
        // a→b→c with no C anywhere: inserting A → B tentatively admits
        // (a, A), which verification must remove again
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let b = g.add_node("B", []);
        let chain = simulation_pattern(&["a", "b", "c"], &[("a", "b"), ("b", "c")]);
        let mut inc = IncrementalBoundedSim::new(&g, &chain);
        g.add_edge(a, b);
        assert!(inc.on_update(&g, EdgeUpdate::Insert(a, b)).is_empty());
        check_against_recompute(&g, &inc);
        assert!(inc.current().is_empty());

        // a ⇄ b plus b→c: the insert closes the cycle, so expansion admits
        // (a, A) and (b, B) on mutual support; (b, B) lacks a C and takes
        // (a, A) with it
        let cyclic = simulation_pattern(&["a", "b", "c"], &[("a", "b"), ("b", "a"), ("b", "c")]);
        let mut inc = IncrementalBoundedSim::new(&g, &cyclic);
        g.add_edge(b, a);
        let delta = inc.on_update(&g, EdgeUpdate::Insert(b, a));
        check_against_recompute(&g, &inc);
        assert!(inc.current().is_empty());
        assert!(delta.is_empty(), "nothing truly changed");
        assert!(inc.stats().tentative_pairs > 0);
    }

    #[test]
    #[should_panic(expected = "outside the maintained graph")]
    fn update_on_unknown_node_panics() {
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let mut inc = IncrementalBoundedSim::new(&g, &simulation_pattern(&["a"], &[]));
        let b = g.add_node("B", []); // added after the maintainer
        g.add_edge(a, b);
        inc.on_update(&g, EdgeUpdate::Insert(a, b));
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

    // ---- the maintained G_r arcs and ranking ----

    /// No walk: the [`shortest_walks`] entry of an unconnected pair.
    const FAR: u32 = u32::MAX;

    /// The length of a shortest non-empty walk from each node to each
    /// node, by Floyd–Warshall over the edge list — no code shared with
    /// any BFS. Off the diagonal that is the hop distance; on it, the
    /// shortest cycle through the node.
    fn shortest_walks(g: &DiGraph) -> Vec<Vec<u32>> {
        let n = g.node_count();
        let mut dist = vec![vec![FAR; n]; n];
        for (a, b) in g.edges() {
            dist[a.index()][b.index()] = 1;
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    let via = dist[i][k].saturating_add(dist[k][j]);
                    if via < dist[i][j] {
                        dist[i][j] = via;
                    }
                }
            }
        }
        dist
    }

    /// The arcs [`IncrementalBoundedSim::arcs`] must hold, judged pair by
    /// pair: sources from naive's raw fixpoint, targets from the
    /// candidate sets, weights from [`shortest_walks`]. Ascending `(edge,
    /// from, to)`.
    fn reference_arcs(g: &DiGraph, q: &Pattern) -> Vec<ResultEdge> {
        let dist = shortest_walks(g);
        let cand0 = candidate_sets(g, q);
        let raw = naive_bounded_fixpoint(g, q, cand0.clone());
        let mut out = Vec::new();
        for (ei, e) in q.edges().iter().enumerate() {
            for v in raw[e.from.index()].iter() {
                for w in cand0[e.to.index()].iter() {
                    let d = dist[v.index()][w.index()];
                    if w != v && d != FAR && d <= e.bound.depth() {
                        out.push(ResultEdge {
                            from: v,
                            to: w,
                            weight: d,
                            pattern_edge: ei as u32,
                        });
                    }
                }
            }
        }
        out
    }

    fn bits(list: &[RankedMatch]) -> Vec<(NodeId, u64)> {
        list.iter().map(|m| (m.node, m.rank.to_bits())).collect()
    }

    /// The maintained arcs equal the reference, and the maintained
    /// ranking is `reference_rank`'s over the whole output set, bit for
    /// bit (empty without an output node).
    fn check_arcs(g: &DiGraph, inc: &IncrementalBoundedSim) {
        let q = inc.pattern();
        assert_eq!(inc.arcs(), reference_arcs(g, q), "maintained G_r arcs");
        let want = q.output().map_or_else(Vec::new, |_| {
            reference_rank(g, q, &inc.current(), usize::MAX)
        });
        assert_eq!(bits(inc.ranking()), bits(&want), "maintained ranking");
    }

    thread_local! {
        /// The scratch every batch end of a test thread shares, across
        /// maintainers too — the way a graph's registered queries do.
        static RERANK: RefCell<RerankScratch> = RefCell::default();
    }

    /// End the batch on the thread's shared scratch; returns whether the
    /// ranking `Arc` was replaced (and asserts that is what it reported).
    fn end(g: &DiGraph, inc: &mut IncrementalBoundedSim) -> bool {
        let before = Arc::clone(&inc.ranking);
        let moved = RERANK.with_borrow_mut(|scratch| inc.end_batch(g, scratch));
        assert_eq!(moved, !Arc::ptr_eq(&before, inc.ranking()));
        moved
    }

    /// One update as a batch of its own, checked; returns its ΔM and
    /// whether the ranking moved.
    fn step(
        g: &mut DiGraph,
        inc: &mut IncrementalBoundedSim,
        up: EdgeUpdate,
    ) -> (Vec<MatchDelta>, bool) {
        assert!(g.apply(up), "{up} changes the graph");
        let delta = inc.on_update(g, up);
        let moved = end(g, inc);
        check_against_recompute(g, inc);
        check_arcs(g, inc);
        (delta, moved)
    }

    /// The rank of `v` in the maintained ranking.
    fn rank_of(inc: &IncrementalBoundedSim, v: NodeId) -> f64 {
        let hit = inc.ranking().iter().find(|m| m.node == v);
        hit.expect("a ranked candidate").rank
    }

    /// `a →(≤ bound) b` over labels `A` and `B`.
    fn a_to_b(bound: Bound) -> Pattern {
        PatternBuilder::new()
            .node_output("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", bound)
            .build()
            .unwrap()
    }

    #[test]
    fn arcs_follow_a_shortcut_that_leaves_m_unchanged() {
        // a1 → x → b1, then the shortcut a1 → b1: M stands, the arc's
        // weight drops 2 → 1
        let mut g = DiGraph::new();
        let a1 = g.add_node("A", []);
        let x = g.add_node("X", []);
        let b1 = g.add_node("B", []);
        let (x2, x3) = (g.add_node("X", []), g.add_node("X", []));
        g.add_edge(a1, x);
        g.add_edge(x, b1);
        let mut inc = IncrementalBoundedSim::new(&g, &a_to_b(Bound::hops(2)));
        check_arcs(&g, &inc);
        let weight = |inc: &IncrementalBoundedSim| {
            let arcs = inc.arcs();
            arcs.iter().map(|e| e.weight).collect::<Vec<_>>()
        };
        assert_eq!(weight(&inc), [2]);
        let (delta, moved) = step(&mut g, &mut inc, EdgeUpdate::Insert(a1, b1));
        assert!(delta.is_empty() && moved);
        assert_eq!(weight(&inc), [1]);
        // an edge no source reaches dirties nothing: the same Arc stays
        let (delta, moved) = step(&mut g, &mut inc, EdgeUpdate::Insert(x2, x3));
        assert!(delta.is_empty() && !moved);
    }

    #[test]
    fn arcs_drop_a_target_pushed_past_its_bound_while_m_stands() {
        // a1 → b2 keeps a1 matched; b1 is 2 away through x and 3 away
        // through x → y, so deleting x → b1 pushes it past the bound
        let mut g = DiGraph::new();
        let a1 = g.add_node("A", []);
        let (b1, b2) = (g.add_node("B", []), g.add_node("B", []));
        let (x, y) = (g.add_node("X", []), g.add_node("X", []));
        for (p, c) in [(a1, b2), (a1, x), (x, b1), (x, y), (y, b1)] {
            g.add_edge(p, c);
        }
        let mut inc = IncrementalBoundedSim::new(&g, &a_to_b(Bound::hops(2)));
        assert_eq!(inc.arcs().len(), 2);
        let (delta, moved) = step(&mut g, &mut inc, EdgeUpdate::Delete(x, b1));
        assert!(delta.is_empty() && moved);
        assert_eq!(inc.arcs().iter().map(|e| e.to).collect::<Vec<_>>(), [b2]);
    }

    #[test]
    fn arcs_follow_dm_adding_a_source_and_removing_a_target() {
        // a →(1) b →(1) c: a1 reaches b1 and b2, only b2 has a C. Every
        // bound is 1, so an update's affected ball is its tail alone, and
        // only ΔM dirties the sources a and b gain or lose
        let q = PatternBuilder::new()
            .node_output("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .node("c", Predicate::label("C"))
            .edge("a", "b", Bound::ONE)
            .edge("b", "c", Bound::ONE)
            .build()
            .unwrap();
        let mut g = DiGraph::new();
        let (a1, a2) = (g.add_node("A", []), g.add_node("A", []));
        let (b1, b2) = (g.add_node("B", []), g.add_node("B", []));
        let (c1, c2) = (g.add_node("C", []), g.add_node("C", []));
        for (p, c) in [(a1, b1), (a1, b2), (b2, c2), (a2, b1)] {
            g.add_edge(p, c);
        }
        let mut inc = IncrementalBoundedSim::new(&g, &q);
        check_arcs(&g, &inc);
        // b1 → c1 admits b1, and with it the source a2
        let (delta, _) = step(&mut g, &mut inc, EdgeUpdate::Insert(b1, c1));
        let (pa, pb) = (q.node_id("a").unwrap(), q.node_id("b").unwrap());
        let added = |u, v| MatchDelta {
            pattern_node: u,
            data_node: v,
            added: true,
        };
        assert!(delta.contains(&added(pa, a2)) && delta.contains(&added(pb, b1)));
        assert!(inc.arcs().iter().any(|e| e.from == a2));
        // deleting it again removes the target b1 (and the source a2);
        // a1's arc to b1 stays stored, and the ranking reads past it
        let (delta, _) = step(&mut g, &mut inc, EdgeUpdate::Delete(b1, c1));
        assert_eq!(delta.len(), 2);
        assert!(inc.arcs().iter().any(|e| (e.from, e.to) == (a1, b1)));
        assert!(!inc.arcs().iter().any(|e| e.from == a2));
    }

    #[test]
    fn a_source_on_a_cycle_has_no_arc_to_itself() {
        let mut g = DiGraph::new();
        let (n0, n1) = (g.add_node("A", []), g.add_node("A", []));
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("a2", Predicate::label("A"))
            .edge("a", "a2", Bound::hops(2))
            .build()
            .unwrap();
        let mut inc = IncrementalBoundedSim::new(&g, &q);
        step(&mut g, &mut inc, EdgeUpdate::Insert(n0, n1));
        step(&mut g, &mut inc, EdgeUpdate::Insert(n1, n0));
        step(&mut g, &mut inc, EdgeUpdate::Insert(n0, n0));
        assert_eq!(inc.current().total_pairs(), 4);
        assert!(inc.arcs().iter().all(|e| e.from != e.to));
        assert_eq!(inc.arcs().len(), 2, "(n0, n1) and (n1, n0), weight 1");
        assert!(inc.ranking().is_empty(), "no output node, no ranking");
    }

    #[test]
    fn a_shortcut_two_hops_away_moves_f_while_m_stands() {
        // a →(≤2) b →(≤2) c →(≤2) d on a1 → b1 → c1 → x → d1: inserting
        // c1 → d1 leaves M as it is and changes the one arc c1 → d1, two
        // G_r hops from the candidate a1, whose dist to d1 goes 4 → 3
        let q = PatternBuilder::new()
            .node_output("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .node("c", Predicate::label("C"))
            .node("d", Predicate::label("D"))
            .edge("a", "b", Bound::hops(2))
            .edge("b", "c", Bound::hops(2))
            .edge("c", "d", Bound::hops(2))
            .build()
            .unwrap();
        let mut g = DiGraph::new();
        let [a1, b1, c1, x, d1] = ["A", "B", "C", "X", "D"].map(|l| g.add_node(l, []));
        let a2 = g.add_node("A", []);
        for (p, c) in [(a1, b1), (b1, c1), (c1, x), (x, d1), (a2, b1)] {
            g.add_edge(p, c);
        }
        let mut inc = IncrementalBoundedSim::new(&g, &q);
        check_arcs(&g, &inc);
        assert_eq!(rank_of(&inc, a1), (1 + 2 + 4) as f64 / 3.0);
        let before = inc.stats().rerank_candidates;
        let (delta, moved) = step(&mut g, &mut inc, EdgeUpdate::Insert(c1, d1));
        assert!(delta.is_empty() && moved);
        assert_eq!(rank_of(&inc, a1), 2.0);
        // a1 and a2 both reach c1: both are re-ranked, nothing else is
        assert_eq!(inc.stats().rerank_candidates - before, 2);
    }

    #[test]
    fn a_deletion_that_splits_a_component_reranks_its_side() {
        // output b: b1 ← a1 → x → b2 ← a2. Deleting x → b2 drops the arc
        // a1 → b2 and splits {a1, b1, b2, a2} in two while M stands:
        // f(b2) loses a1 (3/2 → 1), f(b1) keeps its 1
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node_output("b", Predicate::label("B"))
            .edge("a", "b", Bound::hops(2))
            .build()
            .unwrap();
        let mut g = DiGraph::new();
        let [a1, a2, b1, b2, x] = ["A", "A", "B", "B", "X"].map(|l| g.add_node(l, []));
        for (p, c) in [(a1, b1), (a1, x), (x, b2), (a2, b2)] {
            g.add_edge(p, c);
        }
        let mut inc = IncrementalBoundedSim::new(&g, &q);
        check_arcs(&g, &inc);
        assert_eq!((rank_of(&inc, b1), rank_of(&inc, b2)), (1.0, 1.5));
        let (delta, moved) = step(&mut g, &mut inc, EdgeUpdate::Delete(x, b2));
        assert!(delta.is_empty() && moved);
        assert_eq!((rank_of(&inc, b1), rank_of(&inc, b2)), (1.0, 1.0));
        assert_eq!(
            bits(inc.ranking()),
            bits(&[b1, b2].map(|node| RankedMatch { node, rank: 1.0 }))
        );
    }

    #[test]
    fn dm_adding_a_chain_middle_flips_an_arc_no_source_repair_touches() {
        // a →(1) b →(1) c: a1 is matched through b2 (two Cs), its stored
        // arc to b1 is filtered out while b1 has no C. Inserting b1 → c1
        // repairs only b1's own arcs — the ball of a bound-1 update is its
        // tail — yet ΔM's (b, b1) lets a1 → b1 into G_r: f(a1) 5/3 → 8/5
        let q = PatternBuilder::new()
            .node_output("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .node("c", Predicate::label("C"))
            .edge("a", "b", Bound::ONE)
            .edge("b", "c", Bound::ONE)
            .build()
            .unwrap();
        let mut g = DiGraph::new();
        let [a1, b1, b2, c1, c2, c3] = ["A", "B", "B", "C", "C", "C"].map(|l| g.add_node(l, []));
        for (p, c) in [(a1, b1), (a1, b2), (b2, c2), (b2, c3)] {
            g.add_edge(p, c);
        }
        let mut inc = IncrementalBoundedSim::new(&g, &q);
        check_arcs(&g, &inc);
        assert_eq!(rank_of(&inc, a1), 5.0 / 3.0);
        let repaired = inc.stats().repair_sources;
        let (delta, moved) = step(&mut g, &mut inc, EdgeUpdate::Insert(b1, c1));
        assert_eq!(delta.len(), 1, "only (b, b1) moves");
        assert!(moved);
        assert_eq!(inc.stats().repair_sources - repaired, 1, "b1 alone");
        assert_eq!(rank_of(&inc, a1), 8.0 / 5.0);
    }

    #[test]
    fn dm_of_a_member_that_only_witnesses_itself_moves_f_with_no_arc_changed() {
        // x →(≤2) a →(1) a2, a and a2 both over `A`: v and w match a on
        // their self-loops alone, so neither has an arc of its own. x1
        // reaches v at 1 and w at 2. Deleting v's loop takes (a, v) out of
        // M and the arc x1 → v out of G_r, yet changes no stored arc and
        // dirties no source with one: ΔM's v is the search's only seed.
        // f(x1) goes 3/2 → 2
        let q = PatternBuilder::new()
            .node_output("x", Predicate::label("X"))
            .node("a", Predicate::label("A"))
            .node("a2", Predicate::label("A"))
            .edge("x", "a", Bound::hops(2))
            .edge("a", "a2", Bound::ONE)
            .build()
            .unwrap();
        let mut g = DiGraph::new();
        let [x1, y, v, w] = ["X", "Y", "A", "A"].map(|l| g.add_node(l, []));
        for (p, c) in [(x1, v), (x1, y), (y, w), (v, v), (w, w)] {
            g.add_edge(p, c);
        }
        let mut inc = IncrementalBoundedSim::new(&g, &q);
        check_arcs(&g, &inc);
        assert_eq!(rank_of(&inc, x1), 1.5);
        let arcs = inc.arcs();
        let (delta, moved) = step(&mut g, &mut inc, EdgeUpdate::Delete(v, v));
        assert_eq!(delta.len(), 1, "(a, v) alone leaves");
        assert_eq!(inc.arcs(), arcs, "no stored arc changed");
        assert!(moved);
        assert_eq!(rank_of(&inc, x1), 2.0);
    }

    #[test]
    fn a_collapse_flip_empties_the_ranking_and_refills_it() {
        // a →(1) b, output b: b2 has no A, so it ranks +∞. Deleting a1 → b1
        // empties sim(a) — the collapsed relation empties while sim(b)
        // stands — and inserting it back refills every rank
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node_output("b", Predicate::label("B"))
            .edge("a", "b", Bound::ONE)
            .build()
            .unwrap();
        let mut g = DiGraph::new();
        let [a1, b1, b2] = ["A", "B", "B"].map(|l| g.add_node(l, []));
        g.add_edge(a1, b1);
        let mut inc = IncrementalBoundedSim::new(&g, &q);
        check_arcs(&g, &inc);
        let full = bits(inc.ranking());
        assert_eq!(
            full,
            bits(&[(b1, 1.0), (b2, f64::INFINITY)].map(|(node, rank)| RankedMatch { node, rank }))
        );
        let (_, moved) = step(&mut g, &mut inc, EdgeUpdate::Delete(a1, b1));
        assert!(moved && inc.ranking().is_empty());
        assert!(!inc.sim[1].is_empty(), "b's raw set stands");
        let (_, moved) = step(&mut g, &mut inc, EdgeUpdate::Insert(a1, b1));
        assert!(moved);
        assert_eq!(bits(inc.ranking()), full);
    }

    #[test]
    fn a_candidate_on_a_cycle_ranks_by_its_cycle() {
        // a →(≤2) a2 over one label, output a: 0 → 1 → 2 → 0 puts every
        // node on a cycle, each at 1 and 2 from the others both ways
        let q = PatternBuilder::new()
            .node_output("a", Predicate::label("A"))
            .node("a2", Predicate::label("A"))
            .edge("a", "a2", Bound::hops(2))
            .build()
            .unwrap();
        let mut g = DiGraph::new();
        let [n0, n1, n2] = ["A", "A", "A"].map(|l| g.add_node(l, []));
        let mut inc = IncrementalBoundedSim::new(&g, &q);
        for up in [(n0, n1), (n1, n2), (n2, n0)].map(|(a, b)| EdgeUpdate::Insert(a, b)) {
            step(&mut g, &mut inc, up);
        }
        for v in [n0, n1, n2] {
            assert_eq!(rank_of(&inc, v), 3.0, "(1 + 2 + 2 + 1) / 2");
        }
        // the chord 0 → 2 changes 0's and 2's distances, and 1's too
        step(&mut g, &mut inc, EdgeUpdate::Insert(n0, n2));
        step(&mut g, &mut inc, EdgeUpdate::Delete(n1, n2));
    }

    /// Seeded insert/delete streams of single-update batches, then of
    /// three-update batches, checked after each, for two patterns `make`
    /// draws over the labels `L0..L2` and maintains side by side on one
    /// graph, sharing one scratch.
    fn arcs_stream(seed: u64, make: impl Fn(&mut StdRng, &NodeSpec) -> Pattern) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = NodeSpec::uniform(3, 4);
        for _ in 0..4 {
            let mut g = erdos_renyi(&mut rng, 24, 60, &spec);
            let mut incs = [(); 2].map(|_| IncrementalBoundedSim::new(&g, &make(&mut rng, &spec)));
            for inc in &incs {
                check_arcs(&g, inc);
            }
            for up in random_updates(&mut rng, &g, 24, 0.5) {
                assert!(g.apply(up), "{up} changes the graph");
                for inc in &mut incs {
                    inc.on_update(&g, up);
                }
                for inc in &mut incs {
                    end(&g, inc);
                    check_against_recompute(&g, inc);
                    check_arcs(&g, inc);
                }
            }
            for batch in random_updates(&mut rng, &g, 24, 0.5).chunks(3) {
                for &up in batch {
                    if g.apply(up) {
                        for inc in &mut incs {
                            inc.on_update(&g, up);
                        }
                    }
                }
                for inc in &mut incs {
                    end(&g, inc);
                    check_against_recompute(&g, inc);
                    check_arcs(&g, inc);
                }
            }
        }
    }

    fn random_shape(shape: PatternShape, rng: &mut StdRng, spec: &NodeSpec) -> Pattern {
        let mut cfg = PatternConfig::new(shape, 3, spec.labels.clone());
        cfg.bound_range = (1, 3);
        random_pattern(rng, &cfg)
    }

    #[test]
    fn arcs_track_seeded_streams_bounded() {
        arcs_stream(31, |rng, spec| random_shape(PatternShape::Tree, rng, spec));
        arcs_stream(32, |rng, spec| random_shape(PatternShape::Cycle, rng, spec));
    }

    #[test]
    fn arcs_track_seeded_streams_bound_one() {
        let simulation = |shape| {
            move |rng: &mut StdRng, spec: &NodeSpec| random_shape(shape, rng, spec).as_simulation()
        };
        arcs_stream(33, simulation(PatternShape::Chain));
        arcs_stream(34, simulation(PatternShape::Cycle));
    }

    #[test]
    fn arcs_track_seeded_streams_unbounded() {
        // `a →(*) b →(≤2) c`
        arcs_stream(35, |_, _| {
            PatternBuilder::new()
                .node_output("a", Predicate::label("L0"))
                .node("b", Predicate::label("L1"))
                .node("c", Predicate::label("L2"))
                .edge("a", "b", Bound::Unbounded)
                .edge("b", "c", Bound::hops(2))
                .build()
                .unwrap()
        });
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
