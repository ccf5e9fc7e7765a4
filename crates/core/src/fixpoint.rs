//! The frontier-based refinement engine shared by all three matching
//! semantics, plus its reusable [`EvalScratch`] and the [`ScratchPool`]
//! the serving layers draw from.
//!
//! Every matcher in this crate is a greatest-fixpoint refinement over a
//! set of *constraints* `sim(constrained) ∩= reach(sim(seeds))`, where the
//! reach set is one bounded multi-source BFS. This module implements that
//! loop once, with three structural optimizations over a plain
//! queue-of-edges loop that re-runs a full BFS per refresh:
//!
//! 1. **Word-parallel BFS** — reach sets are computed by the
//!    direction-optimizing frontier BFS of
//!    [`expfinder_graph::bfs_frontier`], which sweeps dense levels
//!    bottom-up over bitset words instead of scanning every frontier edge.
//! 2. **Refresh memoization** — sim sets only *shrink* during refinement,
//!    so each constraint's reach set only shrinks too: every node on a
//!    still-qualifying path has a qualifying suffix path and therefore
//!    lies inside the previously computed reach set. Re-refreshes restrict
//!    the BFS to that cached set, turning late refreshes from `O(|G|)`
//!    into `O(|R_e|)`. Bound-1 constraints skip BFS entirely and use a
//!    direct adjacency intersection.
//! 3. **Dirty-counter skipping** — each pattern node carries a shrink
//!    counter; a constraint popped from the work queue whose seed set has
//!    not shrunk since its last refresh would recompute an identical reach
//!    set, so it is skipped outright (`EvalStats::refreshes_skipped`).
//!    This also replaces the old in-queue dedup flag: duplicate queue
//!    entries collapse into skips.
//!
//! None of this changes results — the greatest fixpoint of a monotone
//! operator on a finite lattice is unique, so schedule and per-step
//! algebra may vary freely. [`crate::naive`] judges every relation this
//! loop computes, the raw (uncollapsed) fixpoint included, in the
//! workspace root's `tests/differential.rs`.

use crate::bsim::EvalStats;
use crate::rank::RankScratch;
use expfinder_graph::bfs::Direction;
use expfinder_graph::bfs_frontier::FrontierScratch;
use expfinder_graph::{BitSet, CancelToken, Class, GraphView, ReachProvider};
use expfinder_pattern::PNodeId;
use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

/// Stamp value meaning "this constraint has never been refreshed".
const NEVER: u64 = u64::MAX;

/// An evaluation was abandoned at a cancellation point (deadline or
/// manual cancel). Carries the work counters accumulated up to the abort
/// so callers can surface *partial* [`EvalStats`] — the paper-facing
/// answer to "how far did the cubic fixpoint get before the budget ran
/// out".
///
/// Cancellation never poisons reusable state: an aborted refresh is
/// surfaced **before** its (possibly torn) reach set is recorded in the
/// [`EvalScratch`] cache or intersected into a match set, and
/// `EvalScratch::begin` restamps every cache entry as never-refreshed on
/// the next evaluation, so whatever the aborted run left behind is inert.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Cancelled {
    /// Work done up to the abort.
    pub stats: EvalStats,
}

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "evaluation cancelled after {} refreshes / {} BFS nodes",
            self.stats.refreshes, self.stats.bfs_nodes_visited
        )
    }
}

impl std::error::Error for Cancelled {}

/// One refinement constraint: `sim(constrained) ∩= reach(sim(seeds))`,
/// where the reach set is a bounded multi-source BFS from the seed set in
/// direction `dir`.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Constraint {
    pub constrained: PNodeId,
    pub seeds: PNodeId,
    pub depth: u32,
    pub dir: Direction,
}

/// The per-snapshot reach-index context an indexed evaluation threads
/// into [`refine_constraints`]: the provider serving class-reach entries,
/// plus the per-pattern-node class markers of
/// [`crate::candidate_sets_classed`] (`Some(class)` ⟺ that node's
/// candidate set was seeded as exactly one of the graph's condition
/// classes — a bare label test's, or any condition's the graph's class
/// memo keeps).
///
/// The hook fires on a constraint's **first** refresh while its seed set
/// has not shrunk since seeding — then `sim(seeds)` still *is* the full
/// condition class, so the reach set depends only on `(class, bound,
/// direction)` and the snapshot, and the memoized entry is bit-exact. A
/// hit replaces the dominant class-seeded BFS with one bitset copy
/// (`EvalStats::index_hits`); every other first refresh under a provider
/// counts as `EvalStats::index_misses` and falls back to the BFS.
#[derive(Copy, Clone)]
pub(crate) struct IndexCtx<'a> {
    pub provider: &'a dyn ReachProvider,
    pub class_of: &'a [Option<Class>],
}

/// Reusable evaluation state: BFS frontiers, per-constraint reach caches
/// and dirty counters, and the [`RankScratch`] a ranked read ranks on.
/// One scratch serves any sequence of (graph, pattern) pairs — caches
/// are keyed per evaluation and reset on entry — so a worker thread that holds on to one reuses every *graph-sized*
/// evaluation and ranking buffer across queries. (The candidate sets
/// themselves are still allocated per query: they are refined in place
/// into the returned `MatchRelation`, so they cannot live in the scratch;
/// the remaining per-query allocations are pattern-sized bookkeeping.)
#[derive(Debug, Default)]
pub struct EvalScratch {
    frontier: FrontierScratch,
    /// Per-constraint cached reach set (monotonically shrinking).
    reach: Vec<BitSet>,
    /// Per-constraint shrink-counter stamp of its seed node at last
    /// refresh; [`NEVER`] = not yet refreshed (no cache to restrict to).
    stamp: Vec<u64>,
    /// Per-pattern-node shrink counters.
    ver: Vec<u64>,
    /// Staging buffer a fresh reach set is computed into before being
    /// swapped with the per-constraint cache.
    tmp: BitSet,
    queue: VecDeque<usize>,
    rank: RankScratch,
}

impl EvalScratch {
    pub fn new() -> EvalScratch {
        EvalScratch::default()
    }

    /// The scratch a ranked read ranks on.
    pub fn rank_scratch(&mut self) -> &mut RankScratch {
        &mut self.rank
    }

    /// Reset for an evaluation over `n` data nodes, `nq` pattern nodes and
    /// `nc` constraints. Buffers are reused when capacities match.
    fn begin(&mut self, n: usize, nq: usize, nc: usize) {
        if self.reach.len() > nc {
            self.reach.truncate(nc);
        }
        for r in &mut self.reach {
            if r.capacity() != n {
                *r = BitSet::new(n);
            }
        }
        while self.reach.len() < nc {
            self.reach.push(BitSet::new(n));
        }
        self.stamp.clear();
        self.stamp.resize(nc, NEVER);
        self.ver.clear();
        self.ver.resize(nq, 0);
        if self.tmp.capacity() != n {
            self.tmp = BitSet::new(n);
        }
        self.queue.clear();
    }

    /// Footprint of the retained graph-sized buffers, for the pool's
    /// keep-or-drop decision.
    fn retained_bytes(&self) -> usize {
        let bitset_bytes = |s: &BitSet| s.words().len() * 8;
        self.reach.iter().map(bitset_bytes).sum::<usize>()
            + bitset_bytes(&self.tmp)
            + self.frontier.retained_bytes()
            + self.rank.retained_bytes()
    }
}

/// The shared delta-aware refinement loop. Refines `sim` in place until
/// every constraint holds; returns `(died, stats)` where `died` reports
/// that some constrained set emptied and `early_exit` stopped the run.
///
/// `cancel` is polled at every refresh boundary (worklist pop) and after
/// every multi-level BFS; a fired token aborts with [`Cancelled`] before
/// the in-flight reach set is cached or applied, so `sim` is only ever a
/// consistent over-approximation of the fixpoint and the scratch caches
/// stay sound for the next evaluation.
#[allow(clippy::too_many_arguments)]
pub(crate) fn refine_constraints<G: GraphView>(
    g: &G,
    nq: usize,
    constraints: &[Constraint],
    sim: &mut [BitSet],
    early_exit: bool,
    scratch: &mut EvalScratch,
    index: Option<IndexCtx<'_>>,
    cancel: Option<&CancelToken>,
) -> Result<(bool, EvalStats), Cancelled> {
    let n = g.node_count();
    let nc = constraints.len();
    let mut stats = EvalStats::default();
    if nc == 0 {
        return Ok((false, stats));
    }
    scratch.begin(n, nq, nc);

    // requeue index: pattern node → constraints seeded from it
    let mut by_seed: Vec<Vec<u32>> = vec![Vec::new(); nq];
    for (ci, c) in constraints.iter().enumerate() {
        by_seed[c.seeds.index()].push(ci as u32);
    }

    // initial processing order = the "query plan", *dependency-aware*:
    // refresh a constraint only once everything that can shrink its seed
    // set has run, so on DAG-shaped patterns every constraint refreshes
    // exactly once (a static most-selective-first order re-refreshes
    // upstream edges whenever a downstream refresh shrinks their seeds
    // afterwards). Cyclic dependencies fall back to
    // most-selective-first and let the worklist iterate.
    let order = dependency_order(nq, constraints, sim);

    let EvalScratch {
        frontier,
        reach,
        stamp,
        ver,
        tmp,
        queue,
        ..
    } = scratch;
    queue.extend(order);

    while let Some(ci) = queue.pop_front() {
        // refresh-boundary cancellation point
        if cancel.is_some_and(|t| t.is_cancelled()) {
            return Err(Cancelled { stats });
        }
        let c = &constraints[ci];
        let seed_ver = ver[c.seeds.index()];
        if stamp[ci] == seed_ver {
            // seeds unchanged since this constraint's last refresh: the
            // reach set would come out identical and the intersection
            // would be a no-op (sim sets only shrink)
            stats.refreshes_skipped += 1;
            continue;
        }
        stats.refreshes += 1;
        // reach-index hook: a first refresh whose seed set is still the
        // full class it was seeded as (never shrunk ⟹ unchanged) is a
        // pure function of (class, bound, direction) — serve it from the
        // per-snapshot index as one bitset copy instead of a BFS
        let mut served = false;
        if stamp[ci] == NEVER {
            if let Some(ictx) = index {
                let class = ictx.class_of.get(c.seeds.index()).and_then(Option::as_ref);
                let hit = (class.filter(|_| seed_ver == 0))
                    .map(|class| ictx.provider.class_reach(class, c.depth, c.dir));
                match hit {
                    Some(entry) => {
                        tmp.clear();
                        tmp.union_with(&entry);
                        stats.index_hits += 1;
                        served = true;
                    }
                    None => stats.index_misses += 1,
                }
            }
        }
        if !served {
            let seeds = &sim[c.seeds.index()];
            if c.depth == 1 {
                // bound-1: direct adjacency intersection instead of BFS,
                // scanning whichever side is smaller
                let cur = &sim[c.constrained.index()];
                tmp.clear();
                if seeds.count() <= cur.count() {
                    for s in seeds.iter() {
                        for &v in c.dir.neighbors(g, s) {
                            tmp.insert(v);
                        }
                    }
                    stats.bfs_nodes_visited += seeds.count();
                } else {
                    let rev = c.dir.opposite();
                    for v in cur.iter() {
                        if rev.neighbors(g, v).iter().any(|&w| seeds.contains(w)) {
                            tmp.insert(v);
                        }
                    }
                    stats.bfs_nodes_visited += cur.count();
                }
            } else {
                let allowed = (stamp[ci] != NEVER).then_some(&reach[ci]);
                stats.bfs_nodes_visited +=
                    frontier.multi_source_within(g, seeds, c.depth, c.dir, allowed, cancel, tmp);
                if cancel.is_some_and(|t| t.is_cancelled()) {
                    // the BFS may have been abandoned mid-level: `tmp` is
                    // torn and must not become this constraint's cache nor
                    // shrink any match set
                    return Err(Cancelled { stats });
                }
            }
        }
        stamp[ci] = seed_ver;
        std::mem::swap(&mut reach[ci], tmp);

        let u = c.constrained.index();
        let before = sim[u].count();
        sim[u].intersect_with(&reach[ci]);
        let after = sim[u].count();
        if after < before {
            stats.removals += before - after;
            ver[u] += 1;
            if after == 0 && early_exit {
                // some pattern node became unmatchable: M(Q,G) = ∅
                return Ok((true, stats));
            }
            // sim(u) shrank: every constraint seeded from u must re-check
            for &ci2 in &by_seed[u] {
                queue.push_back(ci2 as usize);
            }
        }
    }
    Ok((false, stats))
}

/// The dependency-aware constraint order of the frontier engine.
///
/// A constraint reads `sim(seeds)` and shrinks `sim(constrained)`, so it
/// should run after every constraint that writes its seed node —
/// otherwise the worklist re-queues it once the seeds shrink and the
/// refresh is paid twice. Kahn's algorithm over the pattern-node
/// dependency graph (edge `seeds → constrained` per constraint) yields a
/// node finalization order; constraints sort by their seed node's
/// position in it. Pattern cycles make the graph cyclic — there the
/// smallest-candidate-set node is released first (the classic selective
/// heuristic) and the worklist converges as before.
fn dependency_order(nq: usize, constraints: &[Constraint], sim: &[BitSet]) -> Vec<usize> {
    // in-degree of a pattern node = constraints that shrink it (their
    // seeds must finalize first); self-constraints can never finalize
    // before themselves, so they do not count
    let mut indeg = vec![0usize; nq];
    for c in constraints {
        if c.constrained != c.seeds {
            indeg[c.constrained.index()] += 1;
        }
    }
    let mut finalized: Vec<u32> = Vec::with_capacity(nq);
    let mut pos = vec![usize::MAX; nq];
    let mut done = vec![false; nq];
    while finalized.len() < nq {
        // release every currently-free node, most selective first
        let mut free: Vec<u32> = (0..nq as u32)
            .filter(|&u| !done[u as usize] && indeg[u as usize] == 0)
            .collect();
        if free.is_empty() {
            // cycle: break it at the remaining node with the smallest
            // candidate set
            let u = (0..nq as u32)
                .filter(|&u| !done[u as usize])
                .min_by_key(|&u| sim[u as usize].count())
                .expect("nodes remain while len < nq");
            free.push(u);
        } else {
            free.sort_by_key(|&u| sim[u as usize].count());
        }
        for u in free {
            if done[u as usize] {
                continue;
            }
            done[u as usize] = true;
            pos[u as usize] = finalized.len();
            finalized.push(u);
            for c in constraints {
                if c.seeds.index() == u as usize
                    && c.constrained != c.seeds
                    && indeg[c.constrained.index()] > 0
                {
                    indeg[c.constrained.index()] -= 1;
                }
            }
        }
    }
    let mut order: Vec<usize> = (0..constraints.len()).collect();
    order.sort_by_key(|&ci| {
        let c = &constraints[ci];
        (pos[c.seeds.index()], sim[c.seeds.index()].count())
    });
    order
}

/// A bounded pool of [`EvalScratch`]es shared by serving workers, so
/// steady-state query traffic reuses evaluation buffers instead of
/// allocating per request.
///
/// Two retention bounds keep the pool from pinning memory for the
/// engine's lifetime: at most ~2× the host's parallelism scratches are
/// parked (more could never be in use at once), and a scratch whose
/// buffers grew past `SCRATCH_RETAIN_BYTES` (it served an unusually
/// large graph) is dropped instead of parked — the next checkout simply
/// starts fresh.
#[derive(Debug)]
pub struct ScratchPool {
    slots: Mutex<Vec<EvalScratch>>,
    cap: usize,
}

/// Largest scratch worth parking; beyond this, re-allocating on the next
/// big query is cheaper than pinning the buffers forever.
const SCRATCH_RETAIN_BYTES: usize = 64 << 20;

impl Default for ScratchPool {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
        ScratchPool {
            slots: Mutex::new(Vec::new()),
            cap: (cores * 2).clamp(4, 64),
        }
    }
}

impl ScratchPool {
    pub fn new() -> ScratchPool {
        ScratchPool::default()
    }

    /// Check a scratch out of the pool (allocating a fresh one when
    /// empty); it returns to the pool when the guard drops.
    pub fn take(&self) -> PooledScratch<'_> {
        let scratch = self
            .slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_default();
        PooledScratch {
            pool: self,
            scratch: Some(scratch),
        }
    }

    /// Run `f` with a pooled scratch.
    pub fn with<R>(&self, f: impl FnOnce(&mut EvalScratch) -> R) -> R {
        f(&mut self.take())
    }

    /// Parked scratches currently in the pool (for tests/metrics).
    pub fn idle(&self) -> usize {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    fn put(&self, scratch: EvalScratch) {
        if scratch.retained_bytes() > SCRATCH_RETAIN_BYTES {
            return;
        }
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if slots.len() < self.cap {
            slots.push(scratch);
        }
    }
}

/// RAII guard over a pooled [`EvalScratch`]; derefs to the scratch and
/// returns it to its pool on drop.
pub struct PooledScratch<'a> {
    pool: &'a ScratchPool,
    scratch: Option<EvalScratch>,
}

impl std::ops::Deref for PooledScratch<'_> {
    type Target = EvalScratch;

    fn deref(&self) -> &EvalScratch {
        self.scratch.as_ref().expect("scratch present until drop")
    }
}

impl std::ops::DerefMut for PooledScratch<'_> {
    fn deref_mut(&mut self) -> &mut EvalScratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        if let Some(s) = self.scratch.take() {
            self.pool.put(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_scratches() {
        let pool = ScratchPool::new();
        assert_eq!(pool.idle(), 0);
        pool.with(|_s| ());
        assert_eq!(pool.idle(), 1, "scratch returned on drop");
        {
            let _a = pool.take();
            assert_eq!(pool.idle(), 0, "checked out");
            let _b = pool.take();
        }
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn a_scratch_that_ranked_past_the_cap_is_dropped_not_parked() {
        use crate::{bounded_simulation, rank_candidates};
        use expfinder_graph::fixtures::collaboration_fig1;
        use expfinder_pattern::fixtures::fig1_pattern;

        let f = collaboration_fig1();
        let q = fig1_pattern();
        let m = bounded_simulation(&f.graph, &q).unwrap();
        let pool = ScratchPool::new();
        let rank = |scratch: &mut EvalScratch| {
            rank_candidates(&f.graph, &q, &m, 1, scratch.rank_scratch(), None).unwrap()
        };
        pool.with(|s| rank(s));
        assert_eq!(pool.idle(), 1, "a small ranked read parks its scratch");
        pool.with(|s| {
            rank(s);
            // what a cold read whose rows held ~8.4M arcs leaves in the
            // row buffer (reserved, never touched, so it costs address
            // space and no memory)
            s.rank.rows[0].arcs.reserve(SCRATCH_RETAIN_BYTES / 8 + 1);
            assert!(s.retained_bytes() > SCRATCH_RETAIN_BYTES);
        });
        assert_eq!(pool.idle(), 0, "the oversized scratch was dropped");
    }

    #[test]
    fn a_scratch_whose_frontier_grew_past_the_cap_is_dropped_not_parked() {
        let pool = ScratchPool::new();
        pool.with(|s| {
            // what a traversal that covered a ~5.6M-node graph leaves in
            // the member lists (reserved, never touched, so it costs
            // address space and no memory)
            s.frontier = FrontierScratch::with_capacity(SCRATCH_RETAIN_BYTES / 12 + 1);
            assert!(s.frontier.retained_bytes() > SCRATCH_RETAIN_BYTES);
            assert!(s.retained_bytes() > SCRATCH_RETAIN_BYTES);
        });
        assert_eq!(pool.idle(), 0, "the oversized scratch was dropped");
    }

    #[test]
    fn scratch_begin_resizes_buffers() {
        let mut s = EvalScratch::new();
        s.begin(100, 3, 4);
        assert_eq!(s.reach.len(), 4);
        assert!(s.reach.iter().all(|r| r.capacity() == 100));
        assert_eq!(s.stamp, vec![NEVER; 4]);
        // shrink: caches for a smaller evaluation must not alias
        s.begin(10, 2, 1);
        assert_eq!(s.reach.len(), 1);
        assert_eq!(s.reach[0].capacity(), 10);
        assert_eq!(s.ver, vec![0, 0]);
    }
}
