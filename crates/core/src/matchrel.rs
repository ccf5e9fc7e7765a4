//! The maximum match relation `M(Q,G)`.

use expfinder_graph::{BitSet, NodeId};
use expfinder_pattern::{PNodeId, Pattern};
use std::fmt;

/// `M(Q,G)`: for every pattern node, the set of data nodes matching it.
///
/// Paper semantics: `M(Q,G)` is the *maximum* relation such that every
/// pattern node has at least one match and all edge constraints hold. When
/// the fixpoint leaves some pattern node without matches, the relation is
/// **empty** — represented here with all sets empty and
/// [`MatchRelation::is_empty`] true.
#[derive(Clone, PartialEq, Eq)]
pub struct MatchRelation {
    sets: Vec<BitSet>,
    data_nodes: usize,
}

impl MatchRelation {
    /// Build from per-pattern-node bitsets, applying the all-or-nothing
    /// rule: if any set is empty, everything is cleared.
    pub fn from_sets(mut sets: Vec<BitSet>, data_nodes: usize) -> MatchRelation {
        if sets.iter().any(|s| s.is_empty()) {
            for s in &mut sets {
                s.clear();
            }
        }
        MatchRelation { sets, data_nodes }
    }

    /// The empty (failed) relation for a pattern over a graph with
    /// `data_nodes` nodes.
    pub fn empty(q: &Pattern, data_nodes: usize) -> MatchRelation {
        MatchRelation {
            sets: (0..q.node_count())
                .map(|_| BitSet::new(data_nodes))
                .collect(),
            data_nodes,
        }
    }

    /// Matches of one pattern node.
    pub fn matches(&self, u: PNodeId) -> &BitSet {
        &self.sets[u.index()]
    }

    /// Matches of one pattern node as a sorted vector.
    pub fn matches_vec(&self, u: PNodeId) -> Vec<NodeId> {
        self.sets[u.index()].to_vec()
    }

    /// Is `(u, v)` in the relation?
    pub fn contains(&self, u: PNodeId, v: NodeId) -> bool {
        self.sets[u.index()].contains(v)
    }

    /// True if the query failed (no matches). By construction either all
    /// sets are non-empty or all are empty.
    pub fn is_empty(&self) -> bool {
        self.sets.first().is_none_or(|s| s.is_empty())
    }

    /// Total number of `(pattern node, data node)` pairs.
    pub fn total_pairs(&self) -> usize {
        self.sets.iter().map(|s| s.count()).sum()
    }

    /// Number of pattern nodes.
    pub fn pattern_nodes(&self) -> usize {
        self.sets.len()
    }

    /// Number of data-graph nodes this relation is defined over.
    pub fn data_nodes(&self) -> usize {
        self.data_nodes
    }

    /// Iterate all pairs `(u, v)`.
    pub fn pairs(&self) -> impl Iterator<Item = (PNodeId, NodeId)> + '_ {
        self.sets
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.iter().map(move |v| (PNodeId(i as u32), v)))
    }

    /// Symmetric difference against another relation:
    /// `(u, v, added)` triples where `added` means present in `other` but
    /// not `self`. This is the paper's ΔM.
    pub fn diff(&self, other: &MatchRelation) -> Vec<(PNodeId, NodeId, bool)> {
        assert_eq!(self.sets.len(), other.sets.len(), "pattern mismatch");
        let mut out = Vec::new();
        for (i, (a, b)) in self.sets.iter().zip(&other.sets).enumerate() {
            let u = PNodeId(i as u32);
            for v in b.iter() {
                if !a.contains(v) {
                    out.push((u, v, true));
                }
            }
            for v in a.iter() {
                if !b.contains(v) {
                    out.push((u, v, false));
                }
            }
        }
        out
    }

    /// Direct mutable access for the incremental maintainer (same crate
    /// family only — hidden from docs).
    #[doc(hidden)]
    pub fn sets_mut(&mut self) -> &mut Vec<BitSet> {
        &mut self.sets
    }

    #[doc(hidden)]
    pub fn sets(&self) -> &[BitSet] {
        &self.sets
    }
}

impl fmt::Debug for MatchRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for (i, s) in self.sets.iter().enumerate() {
            map.entry(&format!("q{i}"), &s.iter().map(|v| v.0).collect::<Vec<_>>());
        }
        map.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_pattern::{PatternBuilder, Predicate};

    fn pat2() -> Pattern {
        PatternBuilder::new()
            .node("a", Predicate::True)
            .node("b", Predicate::True)
            .build()
            .unwrap()
    }

    fn set(n: usize, members: &[u32]) -> BitSet {
        let mut s = BitSet::new(n);
        for &m in members {
            s.insert(NodeId(m));
        }
        s
    }

    #[test]
    fn all_or_nothing() {
        let m = MatchRelation::from_sets(vec![set(5, &[1, 2]), set(5, &[])], 5);
        assert!(m.is_empty());
        assert_eq!(m.total_pairs(), 0);
        assert!(!m.contains(PNodeId(0), NodeId(1)));
    }

    #[test]
    fn pairs_and_counts() {
        let m = MatchRelation::from_sets(vec![set(5, &[1, 2]), set(5, &[3])], 5);
        assert!(!m.is_empty());
        assert_eq!(m.total_pairs(), 3);
        let pairs: Vec<_> = m.pairs().map(|(u, v)| (u.0, v.0)).collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 3)]);
        assert_eq!(m.matches_vec(PNodeId(1)), vec![NodeId(3)]);
    }

    #[test]
    fn diff_detects_additions_and_removals() {
        let a = MatchRelation::from_sets(vec![set(5, &[1]), set(5, &[3])], 5);
        let b = MatchRelation::from_sets(vec![set(5, &[1, 2]), set(5, &[4])], 5);
        let mut d = a.diff(&b);
        d.sort_by_key(|(u, v, add)| (u.0, v.0, *add));
        assert_eq!(
            d,
            vec![
                (PNodeId(0), NodeId(2), true),
                (PNodeId(1), NodeId(3), false),
                (PNodeId(1), NodeId(4), true),
            ]
        );
    }

    #[test]
    fn empty_constructor() {
        let q = pat2();
        let m = MatchRelation::empty(&q, 10);
        assert!(m.is_empty());
        assert_eq!(m.pattern_nodes(), 2);
        assert_eq!(m.data_nodes(), 10);
    }

    #[test]
    fn equality() {
        let a = MatchRelation::from_sets(vec![set(5, &[1]), set(5, &[3])], 5);
        let b = MatchRelation::from_sets(vec![set(5, &[1]), set(5, &[3])], 5);
        let c = MatchRelation::from_sets(vec![set(5, &[2]), set(5, &[3])], 5);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
