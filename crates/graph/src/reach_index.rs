//! Per-snapshot label-reachability index.
//!
//! The matching fixpoints spend their time answering one question:
//! *which nodes have a non-empty path of length ≤ `b` (in direction `d`)
//! to some node of label ℓ?* When the seed set of a refinement constraint
//! is still the **full label class** — which is exactly the state of every
//! constraint's first refresh on a freshly seeded query — the answer
//! depends only on `(ℓ, b, d)` and the graph snapshot, not on the query.
//! A serving workload that evaluates many queries against one graph
//! version therefore re-pays the same multi-source BFS over and over.
//!
//! [`ReachIndex`] memoizes those answers per snapshot: entries are built
//! lazily on first use by [`class_reach_sweep`] — `b` level-synchronous
//! rounds over bitset frontiers, dense levels swept word-parallel — and
//! shared as `Arc<BitSet>` across queries, threads and HTTP workers. The
//! engine keeps one index per published graph version, bound to that
//! version's [`DiGraph`](crate::DiGraph), and drops it when the version
//! moves on, so an entry can never describe a graph other than the one
//! it is consulted for.
//!
//! The index itself does not hold the graph (entries are built against
//! whatever [`GraphView`] the caller binds with [`ReachIndex::bind`]);
//! the caller guarantees the binding matches [`ReachIndex::version`] —
//! the engine's per-version cache slot is that guarantee.

use crate::attrs::Sym;
use crate::bfs::Direction;
use crate::bfs_frontier::FrontierScratch;
use crate::bitset::BitSet;
use crate::view::GraphView;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// Source of class-reach sets consulted by the matching fixpoints before
/// they fall back to a frontier BFS. `Sync` is a supertrait so one
/// provider can serve the parallel refinement's workers directly.
pub trait ReachProvider: Sync {
    /// The set of nodes with a non-empty path of length `1..=depth` (in
    /// direction `dir`, seen from the class) to some node labelled
    /// `label` — or `None` when the bound view has no class for that
    /// label (callers then run their own BFS).
    fn class_reach(&self, label: Sym, depth: u32, dir: Direction) -> Option<Arc<BitSet>>;
}

/// Bounded multi-source reach for index-entry builds: one
/// direction-optimizing traversal of [`FrontierScratch`] — `depth`
/// level-synchronous rounds over hybrid bitset frontiers, where sparse
/// levels cost `O(|frontier|)` via the member list (keeping high-diameter
/// unbounded builds linear) and dense levels sweep the not-yet-reached
/// candidate words word-parallel with early exit. No per-node distance
/// array or priority state; the traversal scratch is confined to the
/// build and dropped with it.
///
/// Writes into `out` (which must have capacity `g.node_count()`) every
/// node with a path of length `1..=depth` in direction `dir` to some
/// seed — seeds included only via a genuine non-empty path (a cycle). Returns the number of nodes marked visited (seeds included),
/// the shared traversal-work measure.
pub fn class_reach_sweep<G: GraphView>(
    g: &G,
    seeds: &BitSet,
    depth: u32,
    dir: Direction,
    out: &mut BitSet,
) -> usize {
    FrontierScratch::new().multi_source_within(g, seeds, depth, dir, None, out)
}

/// Memo table of class-reach sets for **one** graph snapshot, keyed by
/// `(label, bound, direction)`. Entries are built lazily on first use and
/// handed out as shared `Arc<BitSet>`s; concurrent readers racing on a
/// missing entry may both build it (the first insert wins — entries for
/// one snapshot are deterministic, so either result is the same set).
#[derive(Debug, Default)]
pub struct ReachIndex {
    /// Graph version the entries describe; the owner's invalidation key.
    version: u64,
    entries: RwLock<HashMap<(Sym, u32, Direction), Arc<BitSet>>>,
    /// Retained entry bytes (gauge; maintained on insert).
    bytes: AtomicUsize,
}

impl ReachIndex {
    /// An empty index for the snapshot at `version`.
    pub fn new(version: u64) -> ReachIndex {
        ReachIndex {
            version,
            entries: RwLock::new(HashMap::new()),
            bytes: AtomicUsize::new(0),
        }
    }

    /// The graph version this index describes.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.entries.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes retained by the memoized entry bitsets.
    pub fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// The entry for `(label, depth, dir)`, built against `g` on first
    /// use. `g` **must** be the snapshot this index was created for (the
    /// engine guarantees it by keying the index cache on
    /// [`ReachIndex::version`]). Returns `None` when `g` maintains no
    /// class for `label` ([`GraphView::nodes_with_label`]).
    pub fn entry<G: GraphView>(
        &self,
        g: &G,
        label: Sym,
        depth: u32,
        dir: Direction,
    ) -> Option<Arc<BitSet>> {
        let key = (label, depth, dir);
        if let Some(hit) = self
            .entries
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
        {
            return Some(Arc::clone(hit));
        }
        let class = g.nodes_with_label(label)?;
        let mut reach = BitSet::new(g.node_count());
        class_reach_sweep(g, class, depth, dir, &mut reach);
        let built = Arc::new(reach);
        let mut entries = self.entries.write().unwrap_or_else(|e| e.into_inner());
        let slot = entries.entry(key).or_insert_with(|| {
            self.bytes
                .fetch_add(built.words().len() * 8, Ordering::Relaxed);
            Arc::clone(&built)
        });
        Some(Arc::clone(slot))
    }

    /// Bind the index to the snapshot it was built for, yielding the
    /// [`ReachProvider`] the matching fixpoints consume.
    pub fn bind<'a, G: GraphView + Sync>(&'a self, g: &'a G) -> BoundReachIndex<'a, G> {
        BoundReachIndex { index: self, g }
    }
}

/// A [`ReachIndex`] paired with the snapshot its entries are built
/// against — the borrowed view one evaluation hands to the fixpoint.
pub struct BoundReachIndex<'a, G> {
    index: &'a ReachIndex,
    g: &'a G,
}

impl<G: GraphView + Sync> ReachProvider for BoundReachIndex<'_, G> {
    fn class_reach(&self, label: Sym, depth: u32, dir: Direction) -> Option<Arc<BitSet>> {
        self.index.entry(self.g, label, depth, dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::tests::walk_reach as oracle;
    use crate::csr::CsrGraph;
    use crate::generate::{erdos_renyi, NodeSpec};
    use crate::{DiGraph, NodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Chain 0 → 1 → 2 → 3 → 4 plus a back edge 4 → 0.
    fn ring5() -> DiGraph {
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..5).map(|_| g.add_node("x", [])).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        g.add_edge(ids[4], ids[0]);
        g
    }

    #[test]
    fn sweep_matches_walk_reach_on_ring() {
        let g = ring5();
        for depth in [0u32, 1, 2, 3, u32::MAX] {
            for dir in [Direction::Forward, Direction::Backward] {
                for seed in 0..5u32 {
                    let mut seeds = BitSet::new(5);
                    seeds.insert(n(seed));
                    let (want, want_visited) = oracle(&g, &seeds, depth, dir);
                    let mut got = BitSet::new(5);
                    let visited = class_reach_sweep(&g, &seeds, depth, dir, &mut got);
                    assert_eq!(got, want, "seed {seed} depth {depth} {dir:?}");
                    assert_eq!(visited, want_visited, "work measure agrees");
                }
            }
        }
    }

    #[test]
    fn sweep_matches_walk_reach_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(5005);
        let spec = NodeSpec::uniform(3, 4);
        for trial in 0..12 {
            let g = erdos_renyi(&mut rng, 40 + trial, 180, &spec);
            let nn = g.node_count();
            // dense seed sets force the bottom-up branch
            for (lo, hi) in [(0u32, 3u32), (0, nn as u32 / 2), (0, nn as u32)] {
                let mut seeds = BitSet::new(nn);
                for i in lo..hi {
                    seeds.insert(n(i));
                }
                for depth in [1u32, 2, 4, u32::MAX] {
                    for dir in [Direction::Forward, Direction::Backward] {
                        let (want, _) = oracle(&g, &seeds, depth, dir);
                        let mut got = BitSet::new(nn);
                        class_reach_sweep(&g, &seeds, depth, dir, &mut got);
                        assert_eq!(got, want, "trial {trial} depth {depth} {dir:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn sweep_handles_empty_and_stale_out() {
        let g = ring5();
        let mut out = BitSet::full(5); // stale content must be cleared
        assert_eq!(
            class_reach_sweep(&g, &BitSet::new(5), 3, Direction::Forward, &mut out),
            0
        );
        assert!(out.is_empty());
        assert_eq!(
            class_reach_sweep(&g, &BitSet::full(5), 0, Direction::Forward, &mut out),
            0
        );
        assert!(out.is_empty());
    }

    #[test]
    fn index_builds_lazily_and_memoizes() {
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let b1 = g.add_node("B", []);
        let b2 = g.add_node("B", []);
        g.add_edge(a, b1);
        g.add_edge(b1, b2);
        let csr = CsrGraph::snapshot(&g);
        let idx = ReachIndex::new(csr.version());
        assert_eq!(idx.version(), csr.version());
        assert!(idx.is_empty());
        assert_eq!(idx.bytes(), 0);

        let sym_b = g.interner().get("B").unwrap();
        let r = idx.entry(&csr, sym_b, 2, Direction::Backward).unwrap();
        // nodes with a non-empty ≤2 path to some B: a (→b1, →→b2), b1 (→b2)
        assert_eq!(r.to_vec(), vec![a, b1]);
        assert_eq!(idx.len(), 1);
        assert!(idx.bytes() > 0);

        // second lookup returns the same shared entry
        let r2 = idx.entry(&csr, sym_b, 2, Direction::Backward).unwrap();
        assert!(Arc::ptr_eq(&r, &r2));
        assert_eq!(idx.len(), 1);

        // distinct keys get distinct entries
        let fwd = idx.entry(&csr, sym_b, 2, Direction::Forward).unwrap();
        assert_eq!(fwd.to_vec(), vec![b2], "forward reach from the B class");
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn index_bound_to_a_digraph_answers_from_its_classes() {
        // the live graph carries its own label index, so an index bound to
        // it answers like one bound to a CSR snapshot
        let mut rng = StdRng::seed_from_u64(2525);
        let spec = NodeSpec::uniform(3, 4);
        let g = erdos_renyi(&mut rng, 60, 260, &spec);
        let idx = ReachIndex::new(g.version());
        let bound = idx.bind(&g);
        for label in &spec.labels {
            let sym = g.interner().get(label).unwrap();
            let class = g.nodes_with_label(sym).unwrap();
            for dir in [Direction::Forward, Direction::Backward] {
                let got = bound.class_reach(sym, 2, dir).unwrap();
                assert_eq!(*got, oracle(&g, class, 2, dir).0, "{label} {dir:?}");
            }
        }
        assert_eq!(idx.len(), spec.labels.len() * 2);

        // a label no node carries has no class: the caller runs its BFS
        let ring = ring5();
        let idx = ReachIndex::new(ring.version());
        assert!(idx.entry(&ring, Sym(7), 2, Direction::Backward).is_none());
        assert!(idx.is_empty());
    }

    #[test]
    fn bound_provider_agrees_with_direct_bfs() {
        let mut rng = StdRng::seed_from_u64(31337);
        let spec = NodeSpec::uniform(3, 4);
        let g = erdos_renyi(&mut rng, 60, 260, &spec);
        let csr = CsrGraph::snapshot(&g);
        let idx = ReachIndex::new(csr.version());
        let bound = idx.bind(&csr);
        for label in &spec.labels {
            let sym = g.interner().get(label).unwrap();
            let class = csr.label_set(sym).unwrap().clone();
            for depth in [1u32, 3, u32::MAX] {
                for dir in [Direction::Forward, Direction::Backward] {
                    let got = bound.class_reach(sym, depth, dir).unwrap();
                    let (want, _) = oracle(&g, &class, depth, dir);
                    assert_eq!(*got, want, "{label} depth {depth} {dir:?}");
                }
            }
        }
        assert_eq!(idx.len(), spec.labels.len() * 6);
    }
}
