//! Graph substrate for ExpFinder.
//!
//! This crate provides everything the matching, incremental and compression
//! layers need from a graph:
//!
//! * [`DiGraph`] — a dynamic, attributed, directed graph with interned labels
//!   and attribute keys, sorted adjacency (both directions) and a version
//!   counter that the engine uses for cache invalidation.
//! * [`GraphView`] — the read-only abstraction all matchers are written
//!   against, so the same algorithms run on plain and compressed graphs.
//! * [`CsrGraph`] — an immutable CSR snapshot with contiguous adjacency
//!   and a label → bitset candidate index; the engine's read-optimized
//!   fast path for (parallel) query execution.
//! * [`ReachIndex`] — a per-snapshot label-reachability memo (entries
//!   keyed by `(label, bound, direction)`, built by pure bitset sweeps)
//!   that lets the matching fixpoints skip class-seeded first-refresh
//!   BFS runs entirely on warm graph versions.
//! * Traversals: bounded (multi-source) BFS with reusable scratch space
//!   ([`bfs`]), its level-synchronous direction-optimizing counterpart over
//!   bitset frontiers ([`bfs_frontier`]), Dijkstra over a flat CSR-style
//!   weighted adjacency ([`dijkstra`]), Tarjan SCC ([`scc`]).
//! * [`bitset::BitSet`] — the dense set representation used by every
//!   fixpoint computation in the workspace.
//! * [`CancelToken`] — cooperative cancellation (shared atomic deadline +
//!   cancel flag) polled at frontier-round boundaries by the traversals
//!   here and at refresh boundaries by the matching fixpoints upstream.
//! * Synthetic workload generators ([`generate`]) including the
//!   Twitter-like generator that substitutes for the paper's proprietary
//!   Twitter fraction (see DESIGN.md §3).
//! * File IO ([`io`]) — the paper stores graphs "as files"; both a
//!   line-oriented text format and JSON (via the hand-rolled [`json`]
//!   module — no network, no serde) are supported.
//! * [`fixtures`] — the reconstructed Fig. 1 collaboration network used by
//!   the paper's worked examples.

pub mod attrs;
pub mod bfs;
pub mod bfs_frontier;
pub mod bitset;
pub mod cancel;
pub mod csr;
pub mod digraph;
pub mod dijkstra;
pub mod fixtures;
pub mod generate;
pub mod io;
pub mod json;
pub mod reach_index;
pub mod scc;
pub mod view;

pub use attrs::{AttrValue, Interner, Sym};
pub use bfs_frontier::FrontierScratch;
pub use bitset::BitSet;
pub use cancel::CancelToken;
pub use csr::CsrGraph;
pub use digraph::{DiGraph, EdgeUpdate, VertexData};
pub use reach_index::{ReachIndex, ReachProvider};
pub use view::GraphView;

use std::fmt;

/// Identifier of a node inside one graph. Dense: all ids in a graph are
/// `0..node_count`. Stored as `u32` to halve the footprint of adjacency
/// lists and match sets (graphs of interest are ≪ 4 billion nodes).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a usize index (panics if it does not fit in u32).
    #[inline]
    pub fn from_index(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("node index exceeds u32::MAX"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}
