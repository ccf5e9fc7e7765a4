//! The dynamic attributed directed graph.
//!
//! Adjacency is stored in both directions as one sorted `NodeId` list per
//! node: matching needs fast forward *and* backward traversal (bounded
//! simulation refreshes candidate sets with reverse BFS; removal cascades
//! walk in-neighbors), and incremental maintenance needs `O(log d)` edge
//! lookups plus cheap inserts/removals. Sorted lists beat hash sets here:
//! the degrees of social graphs are small on average, iteration is the hot
//! operation, and memory stays compact.
//!
//! **Cloning is structurally shared.** The lists of `CHUNK` consecutive
//! nodes live flattened in one chunk behind an `Arc`, and the vertex table
//! and the interner sit behind one `Arc` each, so `DiGraph::clone` bumps
//! `2·⌈|V|/CHUNK⌉ + 2` reference counts instead of copying `|V|` lists.
//! A clone is still an independent value: every mutation goes through
//! `Arc::make_mut` on exactly the chunks it touches, which copies a chunk
//! only while another graph still shares it. The invariant snapshot
//! publishing rests on (both service facades publish a clone per commit):
//! after a clone, an edge update copies at most one `out` and one `inn`
//! chunk — two allocations and a `memcpy` each, because a chunk is flat —
//! untouched chunks stay shared, and the first attribute or node write
//! copies the vertex table once. A graph nobody cloned pays one uniqueness
//! check per touched chunk and never copies. An edge update moves the tail
//! of its chunk's flat list (`O(CHUNK · d̄)` bytes, a `memmove`).

use crate::attrs::{AttrValue, Interner, Sym};
use crate::view::GraphView;
use crate::NodeId;
use std::fmt;
use std::sync::Arc;

/// The content of one node: an interned label plus sorted `(key, value)`
/// attribute pairs. Kept deliberately small — most nodes carry 2–4
/// attributes — so a sorted vec outperforms any map.
#[derive(Clone, Debug, Default)]
pub struct VertexData {
    label: Sym,
    attrs: Vec<(Sym, AttrValue)>,
}

impl VertexData {
    pub fn new(label: Sym) -> Self {
        VertexData {
            label,
            attrs: Vec::new(),
        }
    }

    #[inline]
    pub fn label(&self) -> Sym {
        self.label
    }

    /// Attribute lookup by interned key.
    pub fn attr(&self, key: Sym) -> Option<&AttrValue> {
        self.attrs
            .binary_search_by_key(&key, |(k, _)| *k)
            .ok()
            .map(|i| &self.attrs[i].1)
    }

    /// Insert or overwrite an attribute.
    pub fn set_attr(&mut self, key: Sym, value: AttrValue) {
        match self.attrs.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(i) => self.attrs[i].1 = value,
            Err(i) => self.attrs.insert(i, (key, value)),
        }
    }

    /// All attributes in key order.
    pub fn attrs(&self) -> &[(Sym, AttrValue)] {
        &self.attrs
    }
}

/// A single edge insertion or deletion — the unit of the paper's ΔG.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EdgeUpdate {
    Insert(NodeId, NodeId),
    Delete(NodeId, NodeId),
}

impl EdgeUpdate {
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        match *self {
            EdgeUpdate::Insert(a, b) | EdgeUpdate::Delete(a, b) => (a, b),
        }
    }

    /// The update that undoes this one.
    pub fn inverse(&self) -> EdgeUpdate {
        match *self {
            EdgeUpdate::Insert(a, b) => EdgeUpdate::Delete(a, b),
            EdgeUpdate::Delete(a, b) => EdgeUpdate::Insert(a, b),
        }
    }
}

impl fmt::Display for EdgeUpdate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeUpdate::Insert(a, b) => write!(f, "+({a},{b})"),
            EdgeUpdate::Delete(a, b) => write!(f, "-({a},{b})"),
        }
    }
}

/// Nodes per adjacency chunk. A constant, not a knob. A clone costs
/// `2·|V|/CHUNK` refcount bumps (and as many decrements when it is dropped),
/// which grows with the graph; the first edge update into a chunk that a
/// clone still shares copies that chunk's flat list, which does not.
/// Measured on the benchmark's 8000-node collaboration graph, caches warm
/// (µs: clone+drop / one `apply` into shared chunks / a 4-edge commit = 4
/// applies + clone + drop of the previous clone):
///
/// | CHUNK | clone | apply | commit |
/// |------:|------:|------:|-------:|
/// |    16 |  10.6 |  0.26 |   10.0 |
/// |    32 |   5.4 |  0.27 |    6.9 |
/// |    64 |   2.9 |  0.34 |    4.1 |
/// |   128 |   1.5 |  0.42 |    3.2 |
/// |   256 |   0.7 |  0.65 |    3.4 |
///
/// 64 and up are within 1 µs of each other per commit at this size; 64
/// keeps a chunk (≈ 2 KiB here) well under a page, so what an update
/// copies and shifts stays small on denser graphs too. Reads are the same
/// one extra hop at every size.
const CHUNK_BITS: usize = 6;
const CHUNK: usize = 1 << CHUNK_BITS;
const CHUNK_MASK: usize = CHUNK - 1;

/// The sorted neighbor lists of `CHUNK` consecutive nodes, flattened into
/// one vector so that copying a chunk is two allocations and a `memcpy`,
/// whatever the degrees: slot `i`'s list is `targets[ends[i-1]..ends[i]]`
/// (from 0 for slot 0).
#[derive(Clone, Debug)]
struct Chunk {
    ends: [u32; CHUNK],
    targets: Vec<NodeId>,
}

impl Chunk {
    fn list(&self, slot: usize) -> std::ops::Range<usize> {
        let start = if slot == 0 { 0 } else { self.ends[slot - 1] };
        start as usize..self.ends[slot] as usize
    }
}

/// One direction of adjacency: node `v`'s sorted neighbor list is slot
/// `v & CHUNK_MASK` of `chunks[v >> CHUNK_BITS]`. Slots past the node count
/// in the last chunk are empty.
#[derive(Clone, Debug, Default)]
struct Adjacency {
    chunks: Vec<Arc<Chunk>>,
}

impl Adjacency {
    fn with_capacity(nodes: usize) -> Self {
        Adjacency {
            chunks: Vec::with_capacity(nodes.div_ceil(CHUNK)),
        }
    }

    /// Make room for node `index` (the next dense id).
    fn push_node(&mut self, index: usize) {
        if index & CHUNK_MASK == 0 {
            self.chunks.push(Arc::new(Chunk {
                ends: [0; CHUNK],
                targets: Vec::new(),
            }));
        }
    }

    #[inline]
    fn get(&self, index: usize) -> &[NodeId] {
        let chunk = &self.chunks[index >> CHUNK_BITS];
        &chunk.targets[chunk.list(index & CHUNK_MASK)]
    }

    /// Copy-on-write access to the chunk of node `index`; bumps `copies`
    /// when the chunk was still shared with a clone and had to be copied.
    fn chunk_mut(&mut self, index: usize, copies: &mut u64) -> &mut Chunk {
        let chunk = &mut self.chunks[index >> CHUNK_BITS];
        if Arc::get_mut(chunk).is_none() {
            *copies += 1;
        }
        Arc::make_mut(chunk)
    }

    /// Insert `value` at position `at` of node `index`'s list.
    fn insert(&mut self, index: usize, at: usize, value: NodeId, copies: &mut u64) {
        let (chunk, slot) = (self.chunk_mut(index, copies), index & CHUNK_MASK);
        chunk.targets.insert(chunk.list(slot).start + at, value);
        chunk.ends[slot..].iter_mut().for_each(|end| *end += 1);
    }

    /// Remove the entry at position `at` of node `index`'s list.
    fn remove(&mut self, index: usize, at: usize, copies: &mut u64) {
        let (chunk, slot) = (self.chunk_mut(index, copies), index & CHUNK_MASK);
        chunk.targets.remove(chunk.list(slot).start + at);
        chunk.ends[slot..].iter_mut().for_each(|end| *end -= 1);
    }
}

/// Dynamic attributed directed graph. Node ids are dense (`0..node_count`);
/// nodes are never removed (the paper's ΔG consists of edge updates only).
/// Every mutation bumps `version`, which the engine's cache keys on.
/// `Clone` shares structure and is cheap — see the module docs.
#[derive(Clone, Debug, Default)]
pub struct DiGraph {
    interner: Arc<Interner>,
    vertices: Arc<Vec<VertexData>>,
    out: Adjacency,
    inn: Adjacency,
    edge_count: usize,
    version: u64,
    chunk_copies: u64,
}

impl DiGraph {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-size internal vectors for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        DiGraph {
            vertices: Arc::new(Vec::with_capacity(nodes)),
            out: Adjacency::with_capacity(nodes),
            inn: Adjacency::with_capacity(nodes),
            ..Self::default()
        }
    }

    /// Add a node with the given label and attributes; returns its id.
    pub fn add_node<'a>(
        &mut self,
        label: &str,
        attrs: impl IntoIterator<Item = (&'a str, AttrValue)>,
    ) -> NodeId {
        let label = self.intern(label);
        let mut data = VertexData::new(label);
        for (k, v) in attrs {
            let key = self.intern(k);
            data.set_attr(key, v);
        }
        self.add_vertex(data)
    }

    /// Add a node from pre-built [`VertexData`] (symbols must come from this
    /// graph's interner).
    pub fn add_vertex(&mut self, data: VertexData) -> NodeId {
        let index = self.vertices.len();
        Arc::make_mut(&mut self.vertices).push(data);
        self.out.push_node(index);
        self.inn.push_node(index);
        self.version += 1;
        NodeId::from_index(index)
    }

    /// Insert a directed edge. Returns `false` if it already existed or is
    /// out of range. Self-loops are allowed (a person can "collaborate with
    /// themselves" is meaningless, but generators and property tests may
    /// produce them and the matching semantics handle them fine).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        if from.index() >= self.vertices.len() || to.index() >= self.vertices.len() {
            return false;
        }
        // search through the shared view first: a no-op must not copy
        match self.out.get(from.index()).binary_search(&to) {
            Ok(_) => false,
            Err(i) => {
                let copies = &mut self.chunk_copies;
                self.out.insert(from.index(), i, to, copies);
                let bwd = self.inn.get(to.index());
                let j = bwd.binary_search(&from).unwrap_err();
                self.inn.insert(to.index(), j, from, copies);
                self.edge_count += 1;
                self.version += 1;
                true
            }
        }
    }

    /// Remove a directed edge. Returns `false` if it was not present.
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        if from.index() >= self.vertices.len() || to.index() >= self.vertices.len() {
            return false;
        }
        match self.out.get(from.index()).binary_search(&to) {
            Err(_) => false,
            Ok(i) => {
                let copies = &mut self.chunk_copies;
                self.out.remove(from.index(), i, copies);
                let bwd = self.inn.get(to.index());
                let j = bwd.binary_search(&from).expect("in/out adjacency desync");
                self.inn.remove(to.index(), j, copies);
                self.edge_count -= 1;
                self.version += 1;
                true
            }
        }
    }

    /// Apply one [`EdgeUpdate`]; returns whether the graph changed.
    pub fn apply(&mut self, update: EdgeUpdate) -> bool {
        match update {
            EdgeUpdate::Insert(a, b) => self.add_edge(a, b),
            EdgeUpdate::Delete(a, b) => self.remove_edge(a, b),
        }
    }

    /// Edge membership test, `O(log out-degree)`.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        from.index() < self.vertices.len() && self.out.get(from.index()).binary_search(&to).is_ok()
    }

    /// Mutable access to a node's content. Bumps the version (attribute
    /// changes can change match results).
    pub fn vertex_mut(&mut self, v: NodeId) -> &mut VertexData {
        self.version += 1;
        &mut Arc::make_mut(&mut self.vertices)[v.index()]
    }

    /// Set an attribute on an existing node, interning the key.
    pub fn set_attr(&mut self, v: NodeId, key: &str, value: AttrValue) {
        let key = self.intern(key);
        self.vertex_mut(v).set_attr(key, value);
    }

    /// Convenience: attribute lookup by string key.
    pub fn attr_of(&self, v: NodeId, key: &str) -> Option<&AttrValue> {
        let key = self.interner.get(key)?;
        self.vertices[v.index()].attr(key)
    }

    /// Convenience: label string of a node.
    pub fn label_str(&self, v: NodeId) -> &str {
        self.interner.resolve(self.vertices[v.index()].label())
    }

    /// Intern a string into this graph's symbol table. A symbol that
    /// already exists is answered without un-sharing the table.
    pub fn intern(&mut self, s: &str) -> Sym {
        match self.interner.get(s) {
            Some(sym) => sym,
            None => Arc::make_mut(&mut self.interner).intern(s),
        }
    }

    /// Monotone counter bumped on every mutation.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// How many adjacency chunks this graph (and the graphs it was cloned
    /// from) had to copy because a clone still shared them. Stays 0 on a
    /// graph that was never cloned and grows by at most two per applied
    /// edge update — tests pin the commit path to `O(|ΔG|)` with it.
    pub fn chunk_copies(&self) -> u64 {
        self.chunk_copies
    }

    /// Iterate over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.vertices.len() as u32).map(NodeId)
    }

    /// Iterate over all edges as `(from, to)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.node_ids()
            .flat_map(|v| self.out_neighbors(v).iter().map(move |&t| (v, t)))
    }

    /// Total size |G| = |V| + |E| as used in the paper's complexity bounds.
    pub fn size(&self) -> usize {
        self.vertices.len() + self.edge_count
    }

    /// Out-degree of a node.
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out.get(v.index()).len()
    }

    /// In-degree of a node.
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.inn.get(v.index()).len()
    }
}

impl GraphView for DiGraph {
    #[inline]
    fn node_count(&self) -> usize {
        self.vertices.len()
    }

    #[inline]
    fn edge_count(&self) -> usize {
        self.edge_count
    }

    #[inline]
    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        debug_assert!(v.index() < self.vertices.len());
        self.out.get(v.index())
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        debug_assert!(v.index() < self.vertices.len());
        self.inn.get(v.index())
    }

    #[inline]
    fn vertex(&self, v: NodeId) -> &VertexData {
        &self.vertices[v.index()]
    }

    #[inline]
    fn interner(&self) -> &Interner {
        &self.interner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn add_nodes_and_edges() {
        let mut g = DiGraph::new();
        let a = g.add_node("SA", [("experience", AttrValue::Int(7))]);
        let b = g.add_node("SD", [("experience", AttrValue::Int(3))]);
        assert_eq!(a, n(0));
        assert_eq!(b, n(1));
        assert!(g.add_edge(a, b));
        assert!(!g.add_edge(a, b), "duplicate edge rejected");
        assert!(g.has_edge(a, b));
        assert!(!g.has_edge(b, a));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.out_neighbors(a), &[b]);
        assert_eq!(g.in_neighbors(b), &[a]);
        assert_eq!(g.size(), 3);
    }

    #[test]
    fn remove_edge_updates_both_directions() {
        let mut g = DiGraph::new();
        let a = g.add_node("x", []);
        let b = g.add_node("x", []);
        let c = g.add_node("x", []);
        g.add_edge(a, b);
        g.add_edge(a, c);
        assert!(g.remove_edge(a, b));
        assert!(!g.remove_edge(a, b), "already removed");
        assert_eq!(g.out_neighbors(a), &[c]);
        assert!(g.in_neighbors(b).is_empty());
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn adjacency_stays_sorted() {
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..5).map(|_| g.add_node("x", [])).collect();
        // insert in scrambled order
        g.add_edge(ids[0], ids[3]);
        g.add_edge(ids[0], ids[1]);
        g.add_edge(ids[0], ids[4]);
        g.add_edge(ids[0], ids[2]);
        let succ: Vec<u32> = g.out_neighbors(ids[0]).iter().map(|v| v.0).collect();
        assert_eq!(succ, vec![1, 2, 3, 4]);
    }

    #[test]
    fn version_bumps_on_mutation() {
        let mut g = DiGraph::new();
        let v0 = g.version();
        let a = g.add_node("x", []);
        let b = g.add_node("x", []);
        assert!(g.version() > v0);
        let v1 = g.version();
        g.add_edge(a, b);
        assert!(g.version() > v1);
        let v2 = g.version();
        assert!(!g.add_edge(a, b));
        assert_eq!(g.version(), v2, "no-op does not bump version");
        g.set_attr(a, "experience", AttrValue::Int(1));
        assert!(g.version() > v2);
    }

    #[test]
    fn out_of_range_edges_rejected() {
        let mut g = DiGraph::new();
        let a = g.add_node("x", []);
        assert!(!g.add_edge(a, n(7)));
        assert!(!g.remove_edge(n(7), a));
        assert!(!g.has_edge(a, n(7)));
    }

    #[test]
    fn apply_and_inverse() {
        let mut g = DiGraph::new();
        let a = g.add_node("x", []);
        let b = g.add_node("x", []);
        let ins = EdgeUpdate::Insert(a, b);
        assert!(g.apply(ins));
        assert!(g.has_edge(a, b));
        assert!(g.apply(ins.inverse()));
        assert!(!g.has_edge(a, b));
        assert_eq!(ins.endpoints(), (a, b));
    }

    #[test]
    fn vertex_attrs_overwrite() {
        let mut g = DiGraph::new();
        let a = g.add_node("x", [("experience", AttrValue::Int(1))]);
        g.set_attr(a, "experience", AttrValue::Int(9));
        assert_eq!(g.attr_of(a, "experience").unwrap().as_int(), Some(9));
        assert_eq!(g.attr_of(a, "missing"), None);
        assert_eq!(g.label_str(a), "x");
    }

    #[test]
    fn self_loop_allowed() {
        let mut g = DiGraph::new();
        let a = g.add_node("x", []);
        assert!(g.add_edge(a, a));
        assert_eq!(g.out_neighbors(a), &[a]);
        assert_eq!(g.in_neighbors(a), &[a]);
    }

    #[test]
    fn edges_iterator_enumerates_all() {
        let mut g = DiGraph::new();
        let a = g.add_node("x", []);
        let b = g.add_node("x", []);
        let c = g.add_node("x", []);
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(c, a);
        let mut es: Vec<_> = g.edges().map(|(u, v)| (u.0, v.0)).collect();
        es.sort_unstable();
        assert_eq!(es, vec![(0, 1), (1, 2), (2, 0)]);
    }

    // ---- structural sharing: a clone is an independent value ----

    use proptest::prelude::*;

    /// Everything observable about a graph through its public API, as
    /// plain owned data — a deep copy that shares nothing with the graph.
    #[derive(Debug, PartialEq)]
    struct Image {
        version: u64,
        edge_count: usize,
        nodes: Vec<(String, Vec<(String, AttrValue)>)>,
        out: Vec<Vec<NodeId>>,
        inn: Vec<Vec<NodeId>>,
    }

    fn image(g: &DiGraph) -> Image {
        let resolve = |s: Sym| g.interner().resolve(s).to_owned();
        Image {
            version: g.version(),
            edge_count: g.edge_count(),
            nodes: g
                .node_ids()
                .map(|v| {
                    let data = g.vertex(v);
                    let attrs = data.attrs().iter();
                    (
                        resolve(data.label()),
                        attrs.map(|(k, a)| (resolve(*k), a.clone())).collect(),
                    )
                })
                .collect(),
            out: g.node_ids().map(|v| g.out_neighbors(v).to_vec()).collect(),
            inn: g.node_ids().map(|v| g.in_neighbors(v).to_vec()).collect(),
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        Insert(u16, u16),
        Delete(u16, u16),
        AddVertex(u8),
        SetAttr(u16, u8, i64),
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                (0u16..1000, 0u16..1000).prop_map(|(a, b)| Op::Insert(a, b)),
                (0u16..1000, 0u16..1000).prop_map(|(a, b)| Op::Insert(a, b)),
                (0u16..1000, 0u16..1000).prop_map(|(a, b)| Op::Delete(a, b)),
                (0u8..4).prop_map(Op::AddVertex),
                (0u16..1000, 0u8..4, 0i64..9).prop_map(|(v, k, x)| Op::SetAttr(v, k, x)),
            ],
            0..40,
        )
    }

    /// Apply one op; node operands wrap onto the current node range.
    fn run(g: &mut DiGraph, op: &Op) {
        let n = g.node_count();
        let node = |i: u16| NodeId::from_index(i as usize % n);
        match *op {
            Op::Insert(a, b) if n > 0 => {
                g.apply(EdgeUpdate::Insert(node(a), node(b)));
            }
            Op::Delete(a, b) if n > 0 => {
                // aim at a present edge whenever `a` has one
                let (a, b) = (node(a), node(b));
                let b = g.out_neighbors(a).first().copied().unwrap_or(b);
                g.apply(EdgeUpdate::Delete(a, b));
            }
            Op::AddVertex(l) => {
                g.add_node(&format!("label{l}"), [("k0", AttrValue::Int(l as i64))]);
            }
            Op::SetAttr(v, k, x) if n > 0 => {
                g.set_attr(node(v), &format!("k{k}"), AttrValue::Int(x));
            }
            _ => {}
        }
    }

    /// A graph of `n` nodes built through the public API only.
    fn build(n: usize, seed: &[Op]) -> DiGraph {
        let mut g = DiGraph::new();
        for i in 0..n {
            g.add_node(
                ["SA", "SD", "ST"][i % 3],
                [("k1", AttrValue::Int(i as i64))],
            );
        }
        for op in seed {
            run(&mut g, op);
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Mutating either side of a clone leaves the other side equal to
        /// a deep copy taken before, and the mutated side equal to the same
        /// ops applied to a graph that never shared anything.
        #[test]
        fn clone_is_an_independent_value(
            seed in ops(),
            stream in ops(),
            mutate_clone in proptest::bool::ANY,
        ) {
            for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7] {
                let mut original = build(n, &seed);
                let mut clone = original.clone();
                let before = image(&original);
                prop_assert_eq!(&image(&clone), &before);

                let mut model = build(n, &seed);
                prop_assert_eq!(model.chunk_copies(), 0, "never cloned, never copies");
                let (touched, untouched) = if mutate_clone {
                    (&mut clone, &original)
                } else {
                    (&mut original, &clone)
                };
                for op in &stream {
                    run(touched, op);
                    run(&mut model, op);
                    prop_assert_eq!(&image(untouched), &before, "n={} after {:?}", n, op);
                }
                prop_assert_eq!(image(touched), image(&model), "n={}", n);
            }
        }
    }

    /// The commit path stays `O(|ΔG|)`: at most one `out` and one `inn`
    /// chunk copied per applied edge update while a clone shares them, and
    /// nothing copied otherwise.
    #[test]
    fn chunk_copies_are_bounded_by_applied_updates() {
        let n = 3 * CHUNK + 7;
        let node = |i: usize| NodeId::from_index(i % n);
        let mut g = build(n, &[]);
        for i in 0..4 * n {
            g.add_edge(node(i), node(i * 7 + 1));
        }
        g.set_attr(node(3), "experience", AttrValue::Int(1));
        assert_eq!(g.chunk_copies(), 0, "an unshared graph never copies");

        // the durable commit loop: apply a batch, publish a clone, drop
        // the previous one
        let mut published = g.clone();
        let mut applied = 0;
        for batch in 0..50 {
            for i in 0..4 {
                let before = g.chunk_copies();
                let (a, b) = (node(batch * 31 + i), node(batch * 17 + i * 5 + 2));
                let changed =
                    g.apply(EdgeUpdate::Insert(a, b)) || g.apply(EdgeUpdate::Delete(a, b));
                assert!(changed, "insert-or-delete always changes the graph");
                assert!(
                    !g.apply(EdgeUpdate::Delete(node(0), node(0))),
                    "absent edge"
                );
                applied += 1;
                assert!(
                    g.chunk_copies() - before <= 2,
                    "one out chunk, one inn chunk"
                );
            }
            published = g.clone();
        }
        assert!(
            g.chunk_copies() > 0,
            "shared chunks were copied, not written through"
        );
        assert!(g.chunk_copies() <= 2 * applied);
        assert_eq!(image(&published), image(&g));

        drop(published);
        let settled = g.chunk_copies();
        for i in 0..n {
            g.apply(EdgeUpdate::Insert(node(i), node(i + 2)));
        }
        assert_eq!(
            g.chunk_copies(),
            settled,
            "unshared again after the clone is gone"
        );
    }
}
