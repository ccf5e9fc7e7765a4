//! Partitions of a graph's node set and the bisimulation refinement.

use expfinder_graph::{DiGraph, GraphView, NodeId, Quoted};
use std::collections::HashMap;

/// Which node content forms the compression signature.
///
/// All attributes participate except the listed *identity attributes* —
/// per-person identifiers like `name` that would make every node unique
/// and defeat compression. Queries touching identity attributes are
/// rejected on compressed graphs.
#[derive(Clone, Debug)]
pub struct SignaturePolicy {
    pub identity_attrs: Vec<String>,
}

impl Default for SignaturePolicy {
    fn default() -> Self {
        SignaturePolicy {
            identity_attrs: vec!["name".to_owned()],
        }
    }
}

impl SignaturePolicy {
    /// Is `key` part of the signature?
    pub fn in_signature(&self, key: &str) -> bool {
        !self.identity_attrs.iter().any(|a| a == key)
    }

    /// Signature string of a node: its [`Quoted`] label, then ` "key"
    /// value` for every non-identity attribute in key order, each value in
    /// its DSL text. Quoted parts delimit themselves and values of
    /// different types print differently, so two nodes share a signature
    /// exactly when they share that content, whatever their strings hold.
    pub fn signature_of(&self, g: &DiGraph, v: NodeId) -> String {
        use std::fmt::Write;
        let data = g.vertex(v);
        let it = g.interner();
        let mut s = Quoted(it.resolve(data.label())).to_string();
        for (k, val) in data.attrs() {
            let key = it.resolve(*k);
            if self.in_signature(key) {
                let _ = write!(s, " {} {val}", Quoted(key));
            }
        }
        s
    }
}

/// A partition of `0..n` node ids into blocks.
#[derive(Clone, Debug)]
pub struct Partition {
    /// `block_of[v]` = block id of node v.
    block_of: Vec<u32>,
    /// Members per block, each sorted ascending. No empty blocks.
    blocks: Vec<Vec<NodeId>>,
}

impl Partition {
    /// Build from a block assignment (ids need not be dense; they are
    /// renumbered).
    pub fn from_assignment(assignment: Vec<u32>) -> Partition {
        let mut remap: HashMap<u32, u32> = HashMap::new();
        let mut blocks: Vec<Vec<NodeId>> = Vec::new();
        let mut block_of = vec![0u32; assignment.len()];
        for (i, &raw) in assignment.iter().enumerate() {
            let id = *remap.entry(raw).or_insert_with(|| {
                blocks.push(Vec::new());
                (blocks.len() - 1) as u32
            });
            block_of[i] = id;
            blocks[id as usize].push(NodeId(i as u32));
        }
        Partition { block_of, blocks }
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of nodes partitioned.
    pub fn node_count(&self) -> usize {
        self.block_of.len()
    }

    /// Block id of a node.
    pub fn block_of(&self, v: NodeId) -> u32 {
        self.block_of[v.index()]
    }

    /// Members of a block (sorted).
    pub fn members(&self, block: u32) -> &[NodeId] {
        &self.blocks[block as usize]
    }

    /// All blocks.
    pub fn blocks(&self) -> &[Vec<NodeId>] {
        &self.blocks
    }

    /// Split one block into groups given by `key(node)`. The largest group
    /// keeps the old block id (minimizing downstream invalidation); the
    /// others get fresh ids. Returns the ids of all involved blocks if a
    /// split happened.
    pub fn split_block_by<K: std::hash::Hash + Eq>(
        &mut self,
        block: u32,
        mut key: impl FnMut(NodeId) -> K,
    ) -> Option<Vec<u32>> {
        let members = std::mem::take(&mut self.blocks[block as usize]);
        let mut groups: HashMap<K, Vec<NodeId>> = HashMap::new();
        for &v in &members {
            groups.entry(key(v)).or_default().push(v);
        }
        if groups.len() <= 1 {
            self.blocks[block as usize] = members;
            return None;
        }
        let mut groups: Vec<Vec<NodeId>> = groups.into_values().collect();
        // deterministic: biggest first, ties by smallest member id
        groups.sort_by_key(|g| (usize::MAX - g.len(), g[0]));
        let mut ids = vec![block];
        self.blocks[block as usize] = groups.remove(0);
        for grp in groups {
            let id = self.blocks.len() as u32;
            for &v in &grp {
                self.block_of[v.index()] = id;
            }
            self.blocks.push(grp);
            ids.push(id);
        }
        Some(ids)
    }

    /// Check the forward-bisimulation stability condition on `g`: within
    /// every block, all members have the same *set* of successor blocks.
    /// (Signature uniformity is established at construction and never
    /// violated by splits.)
    pub fn is_stable(&self, g: &DiGraph) -> bool {
        for block in self.blocks.iter().filter(|b| b.len() > 1) {
            let key0 = self.succ_block_set(g, block[0]);
            for &v in &block[1..] {
                if self.succ_block_set(g, v) != key0 {
                    return false;
                }
            }
        }
        true
    }

    /// Sorted, deduplicated successor-block ids of a node.
    pub fn succ_block_set(&self, g: &DiGraph, v: NodeId) -> Vec<u32> {
        let mut s: Vec<u32> = g
            .out_neighbors(v)
            .iter()
            .map(|&w| self.block_of[w.index()])
            .collect();
        s.sort_unstable();
        s.dedup();
        s
    }
}

/// The initial partition: group by signature.
pub fn signature_partition(g: &DiGraph, policy: &SignaturePolicy) -> Partition {
    let mut ids: HashMap<String, u32> = HashMap::new();
    let mut assignment = vec![0u32; g.node_count()];
    for v in g.ids() {
        let sig = policy.signature_of(g, v);
        let next = ids.len() as u32;
        let id = *ids.entry(sig).or_insert(next);
        assignment[v.index()] = id;
    }
    Partition::from_assignment(assignment)
}

/// The coarsest stable refinement of the signature partition — the
/// maximal forward bisimulation respecting node content. Iterated
/// signature refinement: each round re-keys every node by
/// `(current block, set of successor blocks)` until the block count
/// stabilizes. Rounds are bounded by the bisimulation depth of the graph.
pub fn coarsest_bisimulation(g: &DiGraph, policy: &SignaturePolicy) -> Partition {
    let mut part = signature_partition(g, policy);
    loop {
        let before = part.block_count();
        let mut keys: HashMap<(u32, Vec<u32>), u32> = HashMap::new();
        let mut assignment = vec![0u32; g.node_count()];
        for v in g.ids() {
            let key = (part.block_of(v), part.succ_block_set(g, v));
            let next = keys.len() as u32;
            let id = *keys.entry(key).or_insert(next);
            assignment[v.index()] = id;
        }
        part = Partition::from_assignment(assignment);
        if part.block_count() == before {
            return part;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_graph::AttrValue;

    fn policy() -> SignaturePolicy {
        SignaturePolicy::default()
    }

    #[test]
    fn signature_ignores_identity_attrs() {
        let mut g = DiGraph::new();
        let a = g.add_node(
            "SD",
            [
                ("name", AttrValue::Str("Dan".into())),
                ("experience", AttrValue::Int(3)),
            ],
        );
        let b = g.add_node(
            "SD",
            [
                ("name", AttrValue::Str("Mat".into())),
                ("experience", AttrValue::Int(3)),
            ],
        );
        let c = g.add_node(
            "SD",
            [
                ("name", AttrValue::Str("Pat".into())),
                ("experience", AttrValue::Int(4)),
            ],
        );
        let p = policy();
        assert_eq!(p.signature_of(&g, a), p.signature_of(&g, b));
        assert_ne!(p.signature_of(&g, a), p.signature_of(&g, c));
    }

    #[test]
    fn signature_partition_groups_equal_content() {
        let mut g = DiGraph::new();
        for i in 0..6 {
            g.add_node(if i % 2 == 0 { "A" } else { "B" }, []);
        }
        let part = signature_partition(&g, &policy());
        assert_eq!(part.block_count(), 2);
        assert_eq!(part.members(part.block_of(NodeId(0))).len(), 3);
    }

    #[test]
    fn bisimulation_splits_by_successors() {
        // Three A-nodes: one points at B, one at C, one at nothing.
        let mut g = DiGraph::new();
        let a1 = g.add_node("A", []);
        let a2 = g.add_node("A", []);
        let a3 = g.add_node("A", []);
        let b = g.add_node("B", []);
        let c = g.add_node("C", []);
        g.add_edge(a1, b);
        g.add_edge(a2, c);
        let part = coarsest_bisimulation(&g, &policy());
        assert_eq!(part.block_count(), 5, "all three As distinguishable");
        assert_ne!(part.block_of(a1), part.block_of(a2));
        assert_ne!(part.block_of(a1), part.block_of(a3));
        assert!(part.is_stable(&g));
    }

    #[test]
    fn bisimulation_merges_equivalent_leaves() {
        // A hub pointing at 10 identical leaves: leaves collapse to 1 block.
        let mut g = DiGraph::new();
        let hub = g.add_node("HUB", []);
        for _ in 0..10 {
            let leaf = g.add_node("LEAF", [("experience", AttrValue::Int(1))]);
            g.add_edge(hub, leaf);
        }
        let part = coarsest_bisimulation(&g, &policy());
        assert_eq!(part.block_count(), 2);
        assert!(part.is_stable(&g));
    }

    #[test]
    fn bisimulation_depth_chain() {
        // chain of As: every position is distinguishable by distance to the
        // end, so no compression — the classic worst case.
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..6).map(|_| g.add_node("A", [])).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        let part = coarsest_bisimulation(&g, &policy());
        assert_eq!(part.block_count(), 6);
        assert!(part.is_stable(&g));
    }

    #[test]
    fn cycle_nodes_merge() {
        // a directed 3-cycle of same-label nodes is fully bisimilar
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..3).map(|_| g.add_node("A", [])).collect();
        g.add_edge(ids[0], ids[1]);
        g.add_edge(ids[1], ids[2]);
        g.add_edge(ids[2], ids[0]);
        let part = coarsest_bisimulation(&g, &policy());
        assert_eq!(part.block_count(), 1);
        assert!(part.is_stable(&g));
    }

    #[test]
    fn split_block_keeps_largest_in_place() {
        let mut part = Partition::from_assignment(vec![0, 0, 0, 0]);
        // split: {0,1,2} vs {3}
        let ids = part
            .split_block_by(0, |v| if v.0 < 3 { "big" } else { "small" })
            .unwrap();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(part.members(0).len(), 3, "largest group kept old id");
        assert_eq!(part.members(1), &[NodeId(3)]);
        assert_eq!(part.block_of(NodeId(3)), 1);
        // re-splitting with a uniform key is a no-op
        assert!(part.split_block_by(0, |_| 1).is_none());
    }

    #[test]
    fn is_stable_detects_instability() {
        let mut g = DiGraph::new();
        let a1 = g.add_node("A", []);
        let _a2 = g.add_node("A", []);
        let b = g.add_node("B", []);
        g.add_edge(a1, b);
        let part = signature_partition(&g, &policy());
        assert!(!part.is_stable(&g), "a1 has a B-successor, a2 does not");
    }

    #[test]
    fn from_assignment_renumbers_densely() {
        let part = Partition::from_assignment(vec![7, 3, 7, 9]);
        assert_eq!(part.block_count(), 3);
        assert_eq!(part.block_of(NodeId(0)), part.block_of(NodeId(2)));
    }
}
