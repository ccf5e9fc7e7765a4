//! Dijkstra over any source of weighted arcs.
//!
//! The ranking function of the paper measures social distance inside the
//! *result graph*, whose edges are weighted by shortest-path lengths in the
//! data graph. Result graphs are small (matches only), so a binary heap
//! Dijkstra serves — one a caller can drive a settle at a time:
//! [`begin`](DijkstraScratch::begin) queues the source,
//! [`peek`](DijkstraScratch::peek) tells the distance the next settle is
//! at, which no unsettled node's final distance is below, and
//! [`step`](DijkstraScratch::step) settles that node. Top-k ranking
//! interleaves a candidate's two searches by distance this way and stops
//! both as soon as that bound shows the candidate cannot enter the top k
//! (`expfinder_core::rank`); [`run`](DijkstraScratch::run) is `begin`
//! plus `step` until the heap is empty.
//!
//! Cost: ranking runs two searches per candidate over the same result
//! graph, and almost every candidate reaches nothing, so a search must
//! not pay for the nodes it does not reach. [`DijkstraScratch`] keeps its
//! distance array from run to run — [`UNREACHABLE`] everywhere except at
//! the nodes the last run reached, which it lists — and `begin` resets
//! only those, and empties the heap of whatever an abandoned run left
//! queued. A finished run from `src` costs `O(R + A log A)` for the `R`
//! nodes it reaches and the `A` arcs leaving them, not `O(n)`; an
//! abandoned one costs what it settled, the arcs leaving those nodes and
//! the entries they queued. The array is sized once per scratch (and
//! again only when `n` grows).
//!
//! A run reads its graph through [`WeightedArcs`], so one kernel serves
//! every shape `G_r` comes in, all over data-node ids: a built result
//! graph's rows, filled once from its collected arcs; a registered
//! query's maintained per-node rows (`expfinder_incremental`), which
//! filter their arcs by the query's current match sets as they are read;
//! and a cold read's rows, each expanded the first time a run settles its
//! node (`expfinder_core::rank`) — which is why a run borrows its arcs
//! source mutably.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Add;

/// Sentinel distance for unreachable nodes.
pub const UNREACHABLE: u64 = u64::MAX;

/// A weighted digraph over node ids `0..node_count()`, as a
/// [`DijkstraScratch`] run reads it. A run asks for a node's arcs once,
/// when it settles the node, so a source may compute them then.
pub trait WeightedArcs {
    /// One past the largest node id.
    fn node_count(&self) -> usize;

    /// The `(head, weight)` arcs leaving `v`.
    fn arcs(&mut self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_;
}

/// The work [`DijkstraScratch`] runs did, summed over every run of one
/// scratch. Each count is a function of the inputs alone, so a benchmark
/// can gate on it.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DijkstraWork {
    /// Nodes popped at their final distance: once per reached node per run.
    pub settled: u64,
    /// Arcs scanned out of settled nodes.
    pub relaxed: u64,
    /// Heap pushes, each run's source included.
    pub pushes: u64,
}

impl Add for DijkstraWork {
    type Output = DijkstraWork;

    fn add(self, o: DijkstraWork) -> DijkstraWork {
        DijkstraWork {
            settled: self.settled + o.settled,
            relaxed: self.relaxed + o.relaxed,
            pushes: self.pushes + o.pushes,
        }
    }
}

/// Single-source shortest paths over any [`WeightedArcs`], reusable
/// across runs and graphs of any size. Between runs `dist` is
/// [`UNREACHABLE`] everywhere outside `touched`, the nodes the last run
/// reached — so the next run resets just those.
#[derive(Clone, Debug, Default)]
pub struct DijkstraScratch {
    dist: Vec<u64>,
    touched: Vec<u32>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    work: DijkstraWork,
}

impl DijkstraScratch {
    pub fn new() -> DijkstraScratch {
        DijkstraScratch::default()
    }

    /// Shortest distances from `src` over `adj`, read back through
    /// [`touched`](Self::touched) and [`dist`](Self::dist): a
    /// [`begin`](Self::begin) and [`step`](Self::step)s until none is
    /// left. Panics if `src` is not below `adj.node_count()`.
    pub fn run(&mut self, mut adj: impl WeightedArcs, src: u32) {
        self.begin(adj.node_count(), src);
        while self.step(&mut adj).is_some() {}
    }

    /// Start a run from `src` over a graph of `n` nodes, settling
    /// nothing yet; forgets the last run, finished or not — the nodes it
    /// reached and whatever it left queued.
    pub fn begin(&mut self, n: usize, src: u32) {
        for &v in &self.touched {
            self.dist[v as usize] = UNREACHABLE;
        }
        self.touched.clear();
        self.heap.clear();
        self.dist.resize(n, UNREACHABLE);
        self.reach(src, 0);
    }

    /// The distance the next [`step`](Self::step) settles a node at — a
    /// lower bound on the final distance of every node not yet settled —
    /// or `None` when the run is finished.
    pub fn peek(&mut self) -> Option<u64> {
        while let Some(&Reverse((d, u))) = self.heap.peek() {
            if d <= self.dist[u as usize] {
                return Some(d);
            }
            self.heap.pop(); // stale entry
        }
        None
    }

    /// Settle the nearest queued node and relax its arcs in `adj`, the
    /// graph the run began on; returns the node and its distance, or
    /// `None` when the run is finished.
    pub fn step(&mut self, adj: &mut impl WeightedArcs) -> Option<(u32, u64)> {
        let d = self.peek()?;
        let Reverse((_, u)) = self.heap.pop()?;
        self.work.settled += 1;
        for (w, cost) in adj.arcs(u) {
            self.work.relaxed += 1;
            let nd = d.saturating_add(cost as u64);
            if nd < self.dist[w as usize] {
                self.reach(w, nd);
            }
        }
        Some((u, d))
    }

    /// Lower `v`'s distance to `d` and queue it.
    fn reach(&mut self, v: u32, d: u64) {
        let slot = &mut self.dist[v as usize];
        if *slot == UNREACHABLE {
            self.touched.push(v);
        }
        *slot = d;
        self.heap.push(Reverse((d, v)));
        self.work.pushes += 1;
    }

    /// The nodes the last run reached — mid-run, has reached so far —
    /// each once, in the order they were first reached, so the source
    /// comes first.
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// The last run's distance from its source to `v` — mid-run, the
    /// shortest found so far, final once `v` is settled; [`UNREACHABLE`]
    /// where no path exists (or `v` is outside the adjacency).
    pub fn dist(&self, v: u32) -> u64 {
        self.dist.get(v as usize).copied().unwrap_or(UNREACHABLE)
    }

    /// The work of every run so far.
    pub fn work(&self) -> DijkstraWork {
        self.work
    }

    /// Heap bytes the scratch keeps between runs.
    pub fn retained_bytes(&self) -> usize {
        self.dist.capacity() * 8 + self.touched.capacity() * 4 + self.heap.capacity() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `(from, to, weight)` triples over nodes `0..n`, read as they are:
    /// parallel arcs stay parallel.
    struct Triples<'a>(usize, &'a [(u32, u32, u32)]);

    impl WeightedArcs for Triples<'_> {
        fn node_count(&self) -> usize {
            self.0
        }

        fn arcs(&mut self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
            (self.1.iter())
                .filter(move |a| a.0 == v)
                .map(|a| (a.1, a.2))
        }
    }

    /// The dense distance vector of one run (what the tests compare).
    fn dists(n: usize, arcs: &[(u32, u32, u32)], src: u32) -> Vec<u64> {
        let mut s = DijkstraScratch::new();
        s.run(Triples(n, arcs), src);
        (0..n as u32).map(|v| s.dist(v)).collect()
    }

    /// Bellman–Ford over the raw triples: the model a run must equal.
    fn model(n: usize, arcs: &[(u32, u32, u32)], src: u32) -> Vec<u64> {
        let mut d = vec![UNREACHABLE; n];
        d[src as usize] = 0;
        for _ in 0..n {
            for &(a, b, w) in arcs {
                if d[a as usize] != UNREACHABLE {
                    let nd = d[a as usize] + w as u64;
                    d[b as usize] = d[b as usize].min(nd);
                }
            }
        }
        d
    }

    /// How a run of a reuse sequence is driven: `run` to the end, `begin`
    /// plus `step`s to the end, or `begin` plus this many `step`s and
    /// then abandoned.
    #[derive(Clone, Debug)]
    enum Drive {
        Run,
        Stepwise,
        Abandon(usize),
    }

    /// One adjacency of a reuse sequence: `n`, its arcs, a source, and
    /// how the run from it is driven.
    fn run_case() -> impl Strategy<Value = (usize, Vec<(u32, u32, u32)>, u32, Drive)> {
        (1usize..24).prop_flat_map(|n| {
            let arcs = proptest::collection::vec((0u32..n as u32, 0u32..n as u32, 0u32..6), 0..40);
            let drive = prop_oneof![
                Just(Drive::Run),
                Just(Drive::Stepwise),
                (0..n).prop_map(Drive::Abandon),
            ];
            (Just(n), arcs, 0u32..n as u32, drive)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// One scratch across a sequence of adjacencies whose `n` grows
        /// and shrinks, with runs finished by `run`, finished a `step` at
        /// a time, or abandoned part way: after every finished run `dist`
        /// equals a fresh dense model at every node, `touched` is exactly
        /// the reached set (source first, no repeats), and the work
        /// counters add up; a stepwise run settles every node at its model
        /// distance, in the order `peek` announced. A stale distance the
        /// reset missed, or a heap entry an abandoned run left queued,
        /// shows up as a distance the model does not have.
        #[test]
        fn reused_scratch_equals_a_fresh_dense_run(
            runs in proptest::collection::vec(run_case(), 1..12),
        ) {
            let mut s = DijkstraScratch::new();
            for (i, (n, arcs, src, drive)) in runs.into_iter().enumerate() {
                let before = s.work();
                let want = model(n, &arcs, src);
                match drive {
                    Drive::Run => s.run(Triples(n, &arcs), src),
                    Drive::Stepwise => {
                        s.begin(n, src);
                        let mut last = 0;
                        while let Some(d) = s.peek() {
                            let (u, at) = s.step(&mut Triples(n, &arcs)).expect("peeked");
                            prop_assert_eq!(at, d, "run {}: peek", i);
                            prop_assert_eq!(at, want[u as usize], "run {} node {}", i, u);
                            prop_assert!(last <= at, "run {}: settled out of order", i);
                            last = at;
                        }
                        prop_assert_eq!(s.step(&mut Triples(n, &arcs)), None);
                    }
                    Drive::Abandon(steps) => {
                        s.begin(n, src);
                        for _ in 0..steps {
                            let Some((u, at)) = s.step(&mut Triples(n, &arcs)) else { break };
                            prop_assert_eq!(at, want[u as usize], "run {} node {}", i, u);
                        }
                        continue;
                    }
                }
                for v in 0..n as u32 {
                    prop_assert_eq!(s.dist(v), want[v as usize], "run {} node {}", i, v);
                }
                let mut reached: Vec<u32> = s.touched().to_vec();
                prop_assert_eq!(reached[0], src);
                reached.sort_unstable();
                reached.dedup();
                prop_assert_eq!(reached.len(), s.touched().len(), "run {}: a repeat", i);
                let want_reached: Vec<u32> =
                    (0..n as u32).filter(|&v| want[v as usize] != UNREACHABLE).collect();
                prop_assert_eq!(reached, want_reached, "run {}: touched", i);
                let did = s.work();
                let arcs_out = (arcs.iter()).filter(|a| s.touched().contains(&a.0)).count();
                prop_assert_eq!(did.settled - before.settled, s.touched().len() as u64);
                prop_assert_eq!(did.relaxed - before.relaxed, arcs_out as u64);
                prop_assert!(did.pushes - before.pushes >= did.settled - before.settled);
            }
        }
    }

    #[test]
    fn shortest_path_prefers_cheaper_route() {
        // 0 → 1 (1), 1 → 2 (1), 0 → 2 (5)
        let d = dists(3, &[(0, 1, 1), (0, 2, 5), (1, 2, 1)], 0);
        assert_eq!(d, vec![0, 1, 2]);
    }

    #[test]
    fn unreachable_nodes_marked() {
        let d = dists(3, &[(0, 1, 3)], 0);
        assert_eq!(d[1], 3);
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    fn cycle_terminates() {
        let d = dists(2, &[(0, 1, 2), (1, 0, 2)], 1);
        assert_eq!(d, vec![2, 0]);
    }

    #[test]
    fn zero_weight_edges() {
        let d = dists(3, &[(0, 1, 0), (1, 2, 0)], 0);
        assert_eq!(d, vec![0, 0, 0]);
    }

    #[test]
    fn stale_heap_entries_skipped() {
        // diamond where a longer path is pushed first
        let d = dists(4, &[(0, 1, 10), (0, 2, 1), (1, 3, 1), (2, 1, 1)], 0);
        assert_eq!(d[1], 2, "via node 2");
        assert_eq!(d[3], 3);
    }

    #[test]
    fn a_run_resets_what_the_last_one_reached() {
        // 0 → 1 → 2; a run from 2 reaches nothing, then `n` shrinks and grows
        let mut s = DijkstraScratch::new();
        let chain = [(0, 1, 1), (1, 2, 1)];
        s.run(Triples(3, &chain), 0);
        assert_eq!((s.touched(), s.dist(2)), (&[0, 1, 2][..], 2));
        s.run(Triples(3, &chain), 2);
        assert_eq!(s.touched(), &[2]);
        assert_eq!(
            [s.dist(0), s.dist(1), s.dist(2)],
            [UNREACHABLE, UNREACHABLE, 0]
        );
        s.run(Triples(1, &[]), 0);
        assert_eq!((s.touched(), s.dist(2)), (&[0][..], UNREACHABLE));
        s.run(Triples(4, &[(3, 0, 5)]), 3);
        assert_eq!(
            [s.dist(0), s.dist(1), s.dist(2)],
            [5, UNREACHABLE, UNREACHABLE]
        );
        let work = s.work();
        assert_eq!(
            (work.settled, work.relaxed, work.pushes),
            (3 + 1 + 1 + 2, 2 + 1, 7)
        );
    }
}
