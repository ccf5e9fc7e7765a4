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
//!
//! Cost: a candidate costs what it reaches in `G_r`, not `|V_r|` — and,
//! once `k` candidates are ranked, only what it takes to show it cannot
//! enter the top `k`. The selection keeps a sorted running top `k` and
//! hands each candidate the *bar*, the `(rank, node id)` of the current
//! `k`-th entry. One forward and one backward [`DijkstraScratch`] search
//! from `v` run interleaved, a settle at a time, always the one with the
//! nearer frontier; `|V'_r|` is the nodes either search touched, `v`
//! itself excluded, and `f` sums the distances they settle. Before every
//! settle a lower bound on `f` is checked. With `S` the distances settled
//! so far, `D_f` and `D_b` the two frontier distances
//! ([`DijkstraScratch::peek`]), `T_f` and `T_b` the nodes each search has
//! touched but not settled, and `K` the `|V'_r|` so far: weights are
//! non-negative, so every unsettled node adds at least its search's
//! frontier distance, and every node yet to join `V'_r` at least
//! `D = min(D_f, D_b)` — so `f ≥ min((S + D_f·T_f + D_b·T_b) / K, D)`.
//! And `f ≥ 1` always, as every `G_r` arc weighs at least 1. Once that
//! bound ranks after the bar (above its rank, or equal to it with a
//! larger node id) the candidate is given up on. A given-up candidate
//! cannot belong in the top `k`, and a ranked one's `f` is the sum over
//! the two finished searches; the counts are integers, and `f64` division
//! of exact integers is monotone — so the list is the one ranking every
//! candidate gives, bit for bit. When the `k`-th rank is 1, the floor
//! alone gives up on every later candidate, before either search settles
//! anything. With no bar — `k` at or above the candidate count, or a
//! maintainer's full re-rank — every candidate runs both searches to
//! the end. The next candidate's searches reset only the entries the last
//! ones touched. One [`RankScratch`] serves every candidate of a call — an
//! isolated candidate (most of them: `G_r` has fewer arcs than nodes)
//! then costs two heap pushes and pops at most — and, reused, every
//! ranked read: the serving layers draw it from their pooled
//! `EvalScratch`, so a steady stream of ranked reads allocates no search
//! or row buffers.
//!
//! A cold read builds no `G_r`: `f` reads only the part of it that its
//! candidates' searches reach. [`rank_candidates`] expands a node's row
//! in one direction the first time a search settles the node, and keeps
//! it in the scratch for the rest of the read. The row is one bounded
//! BFS at the deepest bound of the pattern edges the node's roles give
//! it — forward for `v ∈ M(e.from)`, backward for `v ∈ M(e.to)` — or a
//! scan of the adjacency list when that bound is 1. A ball node `w` at
//! distance `d` is an arc when some such edge `e` has `d ≤ bound(e)` and
//! `w` matches `e`'s other end, `w ≠ v`: the arcs and weights of
//! [`witness_arcs`](crate::result_graph::witness_arcs), so `f` is the
//! same sum, bit for bit. The whole [`ResultGraph`] is built only by the
//! views that show it (the shell, reports, [`top_k`]), and is the
//! reference the on-demand rows are tested against. It holds its arcs in
//! the same rows, over the same data-node ids, filled once at build time.
//!
//! One kernel computes `f` over any [`ResultArcs`], with or without a
//! bar. A cold read hands it the rows it expands on demand and a built
//! [`ResultGraph`] the rows it filled, both through the one top-`k`
//! selection; a registered query's maintainer (`expfinder_incremental`)
//! hands [`RankScratch::social_impact`], which passes no bar, its own
//! per-node rows — it re-ranks only the candidates an update batch can
//! have moved, and keeps the sorted list, so a ranked read of a
//! registered pattern copies a prefix of it, and its ranks are this
//! code's, bit for bit.

use crate::eval::EvalError;
use crate::fixpoint::Cancelled;
use crate::matchrel::MatchRelation;
use crate::result_graph::{walk_ball, ResultGraph};
use crate::MatchError;
use expfinder_graph::bfs::{BfsScratch, Direction};
use expfinder_graph::dijkstra::{DijkstraScratch, DijkstraWork, WeightedArcs, UNREACHABLE};
use expfinder_graph::{CancelToken, GraphView, NodeId};
use expfinder_pattern::{PNodeId, Pattern};

/// A ranked match of the output node.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RankedMatch {
    pub node: NodeId,
    /// The social-impact rank `f(u_o, v)`; lower is better.
    pub rank: f64,
}

/// `G_r` as [`RankScratch::social_impact`] searches it: its arcs read
/// one way at a time.
pub trait ResultArcs {
    /// The arcs of `G_r` (`Forward`) or the same arcs reversed
    /// (`Backward`), over one node id space for both.
    fn one_way(&mut self, dir: Direction) -> impl WeightedArcs + '_;
}

impl ResultArcs for &ResultGraph {
    fn one_way(&mut self, dir: Direction) -> impl WeightedArcs + '_ {
        self.rows(dir)
    }
}

/// The two searches each candidate runs, and how many candidates they
/// ranked to the end and gave up on.
#[derive(Clone, Debug, Default)]
struct Searches {
    fwd: DijkstraScratch,
    rev: DijkstraScratch,
    ranked: u64,
    pruned: u64,
}

/// Whether a candidate `v` whose `f` is at least `lb` ranks after `bar`
/// in `(rank, node id)` order whatever its `f` turns out to be.
fn cannot_beat(lb: f64, v: u32, bar: &RankedMatch) -> bool {
    lb > bar.rank || (lb == bar.rank && v > bar.node.0)
}

impl Searches {
    /// `f(u_o, v)` of the node `v` of `g_r`, or `None` once a lower bound
    /// on it shows `v` cannot beat `bar` (see the module docs).
    fn social_impact(
        &mut self,
        mut g_r: impl ResultArcs,
        v: u32,
        bar: Option<&RankedMatch>,
    ) -> Option<f64> {
        // every arc of G_r weighs at least 1 (its ends differ), so f ≥ 1
        if bar.is_some_and(|bar| cannot_beat(1.0, v, bar)) {
            self.pruned += 1;
            return None;
        }
        let Searches { fwd, rev, .. } = self;
        fwd.begin(g_r.one_way(Direction::Forward).node_count(), v);
        rev.begin(g_r.one_way(Direction::Backward).node_count(), v);
        // settled distances summed — both lists start with `v` itself, at
        // 0 — and |V'_r| so far: the nodes either search touched, but `v`
        let (mut sum, mut connected) = (0u64, 0u64);
        let mut settled = [0u64; 2];
        loop {
            let (df, db) = (fwd.peek(), rev.peek());
            let dir = match (df, db) {
                (None, None) => break,
                (Some(f), Some(b)) if b < f => Direction::Backward,
                (Some(_), _) => Direction::Forward,
                (None, Some(_)) => Direction::Backward,
            };
            if let Some(bar) = bar {
                // every node not settled yet adds at least its search's
                // frontier distance, and a node new to V'_r at least `near`
                let near = df.into_iter().chain(db).min().expect("a frontier");
                let queued = |s: &DijkstraScratch, d: Option<u64>, done: u64| {
                    d.map_or(0, |d| d * (s.touched().len() as u64 - done))
                };
                let low = sum + queued(fwd, df, settled[0]) + queued(rev, db, settled[1]);
                let lb = match connected {
                    0 => near as f64,
                    k => (low as f64 / k as f64).min(near as f64),
                };
                if cannot_beat(lb.max(1.0), v, bar) {
                    self.pruned += 1;
                    return None;
                }
            }
            let (this, other) = match dir {
                Direction::Forward => (&mut *fwd, &*rev),
                Direction::Backward => (&mut *rev, &*fwd),
            };
            let reached = this.touched().len();
            let (_, d) = this.step(&mut g_r.one_way(dir)).expect("a peeked node");
            sum += d;
            settled[dir as usize] += 1;
            connected += (this.touched()[reached..].iter())
                .filter(|&&w| other.dist(w) == UNREACHABLE)
                .count() as u64;
        }
        self.ranked += 1;
        Some(match connected {
            0 => f64::INFINITY,
            k => sum as f64 / k as f64,
        })
    }
}

/// The `G_r` arcs of one direction as rows over data-node ids: a cold
/// read expands a node's row the first time a search settles it
/// ([`rank_candidates`]); a built [`ResultGraph`] fills every row once
/// ([`Rows::filled`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct Rows {
    /// Data node → 1 + the index of its row in `spans`; 0 while a read
    /// has not expanded it, or, in a built `G_r`, where it has no arc.
    slot: Vec<u32>,
    /// `(node, first arc)` per row, in the order the rows were laid out:
    /// a row ends where the next one starts.
    spans: Vec<(u32, u32)>,
    /// `(head, weight)` arcs of every row.
    pub(crate) arcs: Vec<(u32, u32)>,
}

/// The rows of a built [`ResultGraph`]: a node without a row has no arc.
impl WeightedArcs for &Rows {
    fn node_count(&self) -> usize {
        self.slot.len()
    }

    fn arcs(&mut self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.row(v).unwrap_or_default().iter().copied()
    }
}

impl Rows {
    /// The rows of `arcs` over data nodes `0..n`: `(tail, head, weight)`
    /// triples sorted ascending, of which each row keeps the first — the
    /// lightest — arc per head.
    pub(crate) fn filled(n: usize, arcs: &[(u32, u32, u32)]) -> Rows {
        let mut rows = Rows {
            slot: vec![0; n],
            ..Rows::default()
        };
        for &(v, w, d) in arcs {
            if rows.spans.last().is_none_or(|s| s.0 != v) {
                rows.start(v);
            } else if rows.arcs.last().is_some_and(|a| a.0 == w) {
                continue; // a heavier parallel arc
            }
            rows.arcs.push((w, d));
        }
        rows
    }

    /// Open `v`'s row, empty, after the last one.
    fn start(&mut self, v: u32) {
        self.spans.push((v, self.arcs.len() as u32));
        self.slot[v as usize] = self.spans.len() as u32;
    }

    /// Forget every row, and fit the slots to a graph of `n` nodes.
    fn reset(&mut self, n: usize) {
        for &(v, _) in &self.spans {
            self.slot[v as usize] = 0;
        }
        self.spans.clear();
        self.arcs.clear();
        if self.slot.len() < n {
            self.slot.resize(n, 0);
        }
    }

    /// `v`'s row, if it has one.
    fn row(&self, v: u32) -> Option<&[(u32, u32)]> {
        let i = self.slot[v as usize].checked_sub(1)? as usize;
        let end = self
            .spans
            .get(i + 1)
            .map_or(self.arcs.len(), |s| s.1 as usize);
        Some(&self.arcs[self.spans[i].1 as usize..end])
    }

    /// Expand `v`'s row in direction `dir` of the `G_r` of `m`, listing
    /// `v`'s `(bound, other end)` roles in `roles`; returns the ball nodes
    /// visited plus the adjacency entries scanned.
    fn expand<G: GraphView>(
        &mut self,
        (g, q, m): (&G, &Pattern, &MatchRelation),
        dir: Direction,
        v: NodeId,
        bfs: &mut BfsScratch,
        roles: &mut Vec<(u32, PNodeId)>,
    ) -> u64 {
        roles.clear();
        for e in q.edges() {
            let (near, far) = match dir {
                Direction::Forward => (e.from, e.to),
                Direction::Backward => (e.to, e.from),
            };
            if m.contains(near, v) {
                roles.push((e.bound.depth(), far));
            }
        }
        self.start(v.0);
        let Some(depth) = roles.iter().map(|r| r.0).max() else {
            return 0;
        };
        walk_ball(g, v, depth, dir, bfs, |w, d| {
            if (roles.iter()).any(|&(b, far)| d <= b && m.contains(far, w)) {
                self.arcs.push((w.0, d));
            }
        })
    }
}

/// One read's `G_r`, a row at a time (see the module docs).
struct OnDemand<'a, G> {
    input: (&'a G, &'a Pattern, &'a MatchRelation),
    rows: &'a mut [Rows; 2],
    roles: &'a mut Vec<(u32, PNodeId)>,
    bfs: &'a mut BfsScratch,
    visits: &'a mut u64,
    cancel: Option<&'a CancelToken>,
    /// The token fired while a row was due: that row and every later one
    /// read empty, and the read must be abandoned.
    cancelled: bool,
}

impl<G: GraphView> OnDemand<'_, G> {
    /// `v`'s row in direction `dir`, expanded now if this read has not
    /// yet — after a poll of the token.
    fn row(&mut self, dir: Direction, v: u32) -> &[(u32, u32)] {
        let rows = &mut self.rows[dir as usize];
        if rows.slot[v as usize] == 0 {
            self.cancelled = self.cancelled || self.cancel.is_some_and(|t| t.is_cancelled());
            if self.cancelled {
                return &[];
            }
            *self.visits += rows.expand(self.input, dir, NodeId(v), self.bfs, self.roles);
        }
        rows.row(v).expect("an expanded row")
    }
}

/// One direction of an [`OnDemand`] `G_r`.
struct OneWay<'b, 'a, G> {
    gr: &'b mut OnDemand<'a, G>,
    dir: Direction,
}

impl<G: GraphView> WeightedArcs for OneWay<'_, '_, G> {
    fn node_count(&self) -> usize {
        self.gr.input.0.node_count()
    }

    fn arcs(&mut self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.gr.row(self.dir, v).iter().copied()
    }
}

impl<G: GraphView> ResultArcs for &mut OnDemand<'_, G> {
    fn one_way(&mut self, dir: Direction) -> impl WeightedArcs + '_ {
        OneWay {
            gr: &mut **self,
            dir,
        }
    }
}

/// The one scratch of a ranked read: the two searches each candidate
/// runs, and the rows a cold read expands and the BFS it expands them
/// (and a full [`ResultGraph`] build collects its arcs) with — kept
/// across candidates and reads so each pays only for what it reaches.
/// Any sequence of graphs and patterns may share one.
#[derive(Clone, Debug, Default)]
pub struct RankScratch {
    searches: Searches,
    pub(crate) bfs: BfsScratch,
    /// Forward and backward rows of [`rank_candidates`], indexed by
    /// [`Direction`].
    pub(crate) rows: [Rows; 2],
    /// `(bound, other end)` of each pattern edge the node being expanded
    /// has a role in.
    roles: Vec<(u32, PNodeId)>,
    pub(crate) build_visits: u64,
    expand_visits: u64,
}

impl RankScratch {
    pub fn new() -> RankScratch {
        RankScratch::default()
    }

    /// Nodes settled, arcs relaxed and heap pushes of every search this
    /// scratch has run — a deterministic measure of ranking work.
    pub fn work(&self) -> DijkstraWork {
        self.searches.fwd.work() + self.searches.rev.work()
    }

    /// Ball nodes visited plus adjacency entries scanned by every result
    /// graph built on this scratch — a deterministic measure of build work.
    pub fn build_visits(&self) -> u64 {
        self.build_visits
    }

    /// The same measure for the rows [`rank_candidates`] expanded on this
    /// scratch.
    pub fn expand_visits(&self) -> u64 {
        self.expand_visits
    }

    /// Candidates ranked to the end by every search this scratch has
    /// run.
    pub fn ranked(&self) -> u64 {
        self.searches.ranked
    }

    /// Candidates the same searches gave up on: a lower bound on their
    /// `f` showed they could not enter the top k asked for.
    pub fn pruned(&self) -> u64 {
        self.searches.pruned
    }

    /// `f(u_o, v)` of the node `src` of `g_r`: one run each way from
    /// `src`, summed over what they reached. `+∞` when `src` reaches
    /// nothing and nothing reaches it.
    pub fn social_impact(&mut self, g_r: impl ResultArcs, src: u32) -> f64 {
        let f = self.searches.social_impact(g_r, src, None);
        f.expect("no bar, nothing pruned")
    }

    /// Heap bytes kept between reads, for a pool's keep-or-drop decision.
    pub(crate) fn retained_bytes(&self) -> usize {
        let rows: usize = (self.rows.iter())
            .map(|r| r.slot.capacity() * 4 + (r.spans.capacity() + r.arcs.capacity()) * 8)
            .sum();
        self.searches.fwd.retained_bytes()
            + self.searches.rev.retained_bytes()
            + self.bfs.retained_bytes()
            + rows
    }
}

/// The total order experts are ranked by: ascending `(rank, node id)`.
/// Ranks are never NaN (`social_impact` yields finite sums or `+∞`), so the
/// `partial_cmp` fallback is unreachable and the order is total — which is
/// what makes the selection-based top-K below exact.
pub fn rank_order(a: &RankedMatch, b: &RankedMatch) -> std::cmp::Ordering {
    a.rank
        .partial_cmp(&b.rank)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.node.cmp(&b.node))
}

/// The best `k` matches of the output node in `rg`, the result graph of
/// `m`, ascending by `(rank, node id)` — every match when `k` is
/// `usize::MAX`. Identical to ranking every match, sorting and
/// truncating to `k`, but selected as a running top `k` whose `k`-th
/// entry bounds the rest: a candidate's searches stop as soon as it
/// provably cannot enter (see the module docs).
pub fn rank_matches_top_k(
    rg: &ResultGraph,
    q: &Pattern,
    m: &MatchRelation,
    k: usize,
) -> Result<Vec<RankedMatch>, MatchError> {
    rank_matches_top_k_with(rg, q, m, k, &mut RankScratch::new())
}

/// [`rank_matches_top_k`] on the caller's `scratch`.
pub fn rank_matches_top_k_with(
    rg: &ResultGraph,
    q: &Pattern,
    m: &MatchRelation,
    k: usize,
    scratch: &mut RankScratch,
) -> Result<Vec<RankedMatch>, MatchError> {
    let searches = &mut scratch.searches;
    let ranked = select_top_k(q, m, k, |v, bar| Ok(searches.social_impact(rg, v.0, bar)));
    ranked.map_err(EvalError::uncancelled)
}

/// The best `k` matches of the output node, as [`rank_matches_top_k`]
/// gives them on [`ResultGraph::build`]`(g, q, m)` — bit for bit — but
/// with no result graph built: each candidate's searches expand the rows
/// they settle, once per read (see the module docs). Polls `cancel` once
/// per candidate and once per row expanded; a fired token aborts with
/// [`EvalError::Cancelled`] (zero stats) and no partial list, and the
/// rows it leaves in `scratch` are forgotten by the next read.
pub fn rank_candidates<G: GraphView>(
    g: &G,
    q: &Pattern,
    m: &MatchRelation,
    k: usize,
    scratch: &mut RankScratch,
    cancel: Option<&CancelToken>,
) -> Result<Vec<RankedMatch>, EvalError> {
    let RankScratch {
        searches,
        bfs,
        rows,
        roles,
        expand_visits,
        ..
    } = scratch;
    for r in rows.iter_mut() {
        r.reset(g.node_count());
    }
    let mut gr = OnDemand {
        input: (g, q, m),
        rows,
        roles,
        bfs,
        visits: expand_visits,
        cancel,
        cancelled: false,
    };
    select_top_k(q, m, k, |v, bar| {
        if cancel.is_some_and(|t| t.is_cancelled()) {
            return Err(Cancelled::default());
        }
        let rank = searches.social_impact(&mut gr, v.0, bar);
        if gr.cancelled {
            return Err(Cancelled::default());
        }
        Ok(rank)
    })
}

/// The best `k` matches of `q`'s output node in `m`, ascending by
/// `(rank, node id)`, kept as a sorted running top `k`. Each candidate is
/// ranked by `rank`, handed the bar — the current `k`-th entry, once
/// there are `k` — which may give up on it (`None`) when it cannot beat
/// the bar; the first error aborts.
fn select_top_k(
    q: &Pattern,
    m: &MatchRelation,
    k: usize,
    mut rank: impl FnMut(NodeId, Option<&RankedMatch>) -> Result<Option<f64>, Cancelled>,
) -> Result<Vec<RankedMatch>, EvalError> {
    let uo = q.require_output().map_err(|_| MatchError::NoOutputNode)?;
    let mut top: Vec<RankedMatch> = Vec::new();
    if k == 0 {
        return Ok(top);
    }
    for node in m.matches(uo).iter() {
        let bar = top.get(k - 1);
        let Some(rank) = rank(node, bar)? else {
            continue;
        };
        let entry = RankedMatch { node, rank };
        if top.len() < k {
            top.push(entry);
            if top.len() == k {
                top.sort_by(rank_order);
            }
        } else if rank_order(&entry, &top[k - 1]).is_lt() {
            top.pop();
            let at = top.partition_point(|x| rank_order(x, &entry).is_lt());
            top.insert(at, entry);
        }
    }
    if top.len() < k {
        top.sort_by(rank_order);
    }
    Ok(top)
}

/// The paper's top-K selection: evaluate, build the result graph, rank,
/// truncate to the best `k` experts.
pub fn top_k<G: GraphView>(
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

    /// `f(u_o, v)` of the match `v` of `q`'s output node, over `G_r`.
    fn rank_of<G: GraphView>(g: &G, q: &Pattern, m: &MatchRelation, v: NodeId) -> f64 {
        let rg = ResultGraph::build(g, q, m);
        let all = rank_matches_top_k(&rg, q, m, usize::MAX).unwrap();
        all.iter().find(|x| x.node == v).expect("a match").rank
    }

    #[test]
    fn paper_example2_rank_values() {
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let m = bounded_simulation(&f.graph, &q).unwrap();
        let bob = rank_of(&f.graph, &q, &m, f.bob);
        let walt = rank_of(&f.graph, &q, &m, f.walt);
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
    fn a_candidate_tied_with_the_bar_ranks_only_with_the_smaller_id() {
        // the bar is the k-th entry in (rank, node id) order: a candidate
        // whose f equals its rank beats it with a smaller id alone, and
        // one a hair worse never does
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let m = bounded_simulation(&f.graph, &q).unwrap();
        let rg = ResultGraph::build(&f.graph, &q, &m);
        let bob = rank_of(&f.graph, &q, &m, f.bob);
        assert!(f.bob.0 > 0);
        let mut s = Searches::default();
        let mut against = |rank: f64, node: u32| {
            let bar = RankedMatch {
                node: NodeId(node),
                rank,
            };
            s.social_impact(&rg, f.bob.0, Some(&bar))
        };
        assert_eq!(against(bob, f.bob.0 + 1), Some(bob));
        assert_eq!(against(bob, f.bob.0 - 1), None);
        assert_eq!(against(bob.next_down(), u32::MAX), None);
        assert_eq!(against(f64::INFINITY, 0), Some(bob));
        assert_eq!((s.ranked, s.pruned), (2, 2));
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
        let f = rank_of(&g, &q, &m, a);
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
            let full = rank_matches_top_k(&rg, &q, &m, usize::MAX).unwrap();
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
}
