//! Immutable CSR (compressed sparse row) snapshot of a graph.
//!
//! [`DiGraph`] keeps each direction of adjacency in flat chunks of 64
//! nodes behind one `Arc` each — the right shape for a *mutable*,
//! version-shared graph (`O(log d)` edge lookups, an update copies one
//! chunk). A [`CsrGraph`] flattens both directions into two contiguous
//! arrays (`offsets` + targets). The extra hop through the chunk table
//! measures about free: over the repo benchmark's 512-pattern cold pool
//! on its 8000-node graph, one CPU, a query on the chunked graph costs
//! 0.172 ms against 0.180 ms on the CSR, and 0.107 vs 0.102 ms with a
//! warm [`ReachIndex`](crate::ReachIndex). So the engine evaluates on the
//! published `DiGraph` itself and builds no CSR; this type remains for
//! the repo benchmark's direct-call rows and the substrate-equivalence
//! tests.
//!
//! A snapshot shares, not copies, what the graph already shares: the
//! vertex table with its label-class index
//! ([`GraphView::nodes_with_label`]) and its condition classes
//! ([`GraphView::class_memo`]), and the interner, by `Arc`, so its
//! build is the two adjacency flattens. It is tied to the
//! [`DiGraph::version`] it was built from and is never mutated. Because
//! `CsrGraph` implements [`GraphView`], every matcher runs on it
//! unchanged.

use crate::attrs::{Interner, Sym};
use crate::bitset::BitSet;
use crate::digraph::{ClassMemo, DiGraph, VertexData, VertexTable};
use crate::view::GraphView;
use crate::NodeId;
use std::sync::Arc;

/// Immutable, cache-friendly snapshot of a graph at one version.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    /// `DiGraph::version` this snapshot was built from.
    version: u64,
    /// `out_targets[out_offsets[v]..out_offsets[v+1]]` = successors of `v`.
    out_offsets: Vec<u32>,
    out_targets: Vec<NodeId>,
    /// `in_sources[in_offsets[v]..in_offsets[v+1]]` = predecessors of `v`.
    in_offsets: Vec<u32>,
    in_sources: Vec<NodeId>,
    /// The source graph's vertex table and label-class index, shared.
    vertices: Arc<VertexTable>,
    interner: Arc<Interner>,
}

impl CsrGraph {
    /// Snapshot a [`DiGraph`], capturing its current version.
    pub fn snapshot(g: &DiGraph) -> CsrGraph {
        let [(out_offsets, out_targets), (in_offsets, in_sources)] = g.flat_adjacency();
        CsrGraph {
            version: g.version(),
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
            vertices: Arc::clone(&g.vertices),
            interner: Arc::clone(&g.interner),
        }
    }

    /// The graph version this snapshot corresponds to.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The candidate index entry for one label symbol, if any node has it.
    pub fn label_set(&self, label: Sym) -> Option<&BitSet> {
        self.vertices.labels().get(&label)
    }

    /// Number of distinct labels in the candidate index.
    pub fn label_count(&self) -> usize {
        self.vertices.labels().len()
    }
}

impl GraphView for CsrGraph {
    #[inline]
    fn node_count(&self) -> usize {
        self.vertices.data().len()
    }

    #[inline]
    fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    #[inline]
    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        let i = v.index();
        &self.out_targets[self.out_offsets[i] as usize..self.out_offsets[i + 1] as usize]
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let i = v.index();
        &self.in_sources[self.in_offsets[i] as usize..self.in_offsets[i + 1] as usize]
    }

    #[inline]
    fn vertex(&self, v: NodeId) -> &VertexData {
        &self.vertices.data()[v.index()]
    }

    #[inline]
    fn interner(&self) -> &Interner {
        &self.interner
    }

    fn nodes_with_label(&self, label: Sym) -> Option<&BitSet> {
        self.label_set(label)
    }

    fn has_label_index(&self) -> bool {
        true
    }

    fn class_memo(&self) -> Option<&ClassMemo> {
        Some(self.vertices.classes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttrValue;

    fn sample() -> DiGraph {
        let mut g = DiGraph::new();
        let a = g.add_node("SA", [("experience", AttrValue::Int(7))]);
        let b = g.add_node("SD", [("experience", AttrValue::Int(3))]);
        let c = g.add_node("SD", []);
        let d = g.add_node("ST", []);
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        g.add_edge(d, a);
        g
    }

    #[test]
    fn adjacency_matches_source() {
        let g = sample();
        let c = CsrGraph::snapshot(&g);
        assert_eq!(c.node_count(), g.node_count());
        assert_eq!(c.edge_count(), g.edge_count());
        assert_eq!(c.version(), g.version());
        for v in g.ids() {
            assert_eq!(c.out_neighbors(v), g.out_neighbors(v), "out of {v}");
            assert_eq!(c.in_neighbors(v), g.in_neighbors(v), "in of {v}");
            assert_eq!(c.vertex(v).label(), g.vertex(v).label());
        }
    }

    #[test]
    fn label_index_partitions_nodes() {
        let g = sample();
        let c = CsrGraph::snapshot(&g);
        assert_eq!(c.label_count(), 3);
        let sd = g.interner().get("SD").unwrap();
        let set = c.label_set(sd).unwrap();
        assert_eq!(set.to_vec(), vec![NodeId(1), NodeId(2)]);
        assert_eq!(c.nodes_with_label(sd), Some(set));
        // total membership covers every node exactly once
        let total: usize = ["SA", "SD", "ST"]
            .iter()
            .map(|l| c.label_set(g.interner().get(l).unwrap()).unwrap().count())
            .sum();
        assert_eq!(total, g.node_count());
    }

    #[test]
    fn attrs_survive_snapshot() {
        let g = sample();
        let c = CsrGraph::snapshot(&g);
        let key = c.interner().get("experience").unwrap();
        assert_eq!(c.vertex(NodeId(0)).attr(key), Some(&AttrValue::Int(7)));
        assert_eq!(c.vertex(NodeId(3)).attr(key), None);
    }

    #[test]
    fn empty_graph_snapshot() {
        let g = DiGraph::new();
        let c = CsrGraph::snapshot(&g);
        assert_eq!(c.node_count(), 0);
        assert_eq!(c.edge_count(), 0);
        assert_eq!(c.label_count(), 0);
    }

    #[test]
    fn snapshot_shares_the_graphs_label_index() {
        let mut g = sample();
        let sd = g.interner().get("SD").unwrap();
        let c = CsrGraph::snapshot(&g);
        let class: *const BitSet = g.nodes_with_label(sd).expect("DiGraph carries the index");
        assert!(
            std::ptr::eq(c.label_set(sd).unwrap(), class),
            "shared, not copied"
        );

        // an edge update leaves the table alone: the next version's
        // snapshot still reads the same index
        let (a, d) = (NodeId(0), NodeId(3));
        assert!(g.add_edge(a, d));
        let c2 = CsrGraph::snapshot(&g);
        assert_eq!(c2.out_neighbors(a), g.out_neighbors(a));
        assert!(std::ptr::eq(c2.label_set(sd).unwrap(), class));
        assert!(std::ptr::eq(c.label_set(sd).unwrap(), class));

        // a node write un-shares the table: the old snapshot keeps its
        // index, the new one indexes the new node
        let e = g.add_node("SD", []);
        let c3 = CsrGraph::snapshot(&g);
        assert_eq!(
            c3.label_set(sd).unwrap().to_vec(),
            vec![NodeId(1), NodeId(2), e]
        );
        assert_eq!(
            c.label_set(sd).unwrap().to_vec(),
            vec![NodeId(1), NodeId(2)]
        );
        assert_eq!(c3.node_count(), 5);
    }
}
