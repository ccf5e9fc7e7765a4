//! Dijkstra over a flat weighted adjacency.
//!
//! The ranking function of the paper measures social distance inside the
//! *result graph*, whose edges are weighted by shortest-path lengths in the
//! data graph. Result graphs are small (matches only), so a plain binary
//! heap Dijkstra is the right tool.
//!
//! Layout: a result graph has thousands of nodes but only hundreds of
//! edges (most matches witness no pattern edge themselves), so an
//! adjacency that allocates per node spends its time on empty lists.
//! [`WeightedAdj`] is CSR-style instead — one `offsets` array of `n + 1`
//! prefix sums and one `arcs` array — built by a single sort of the arcs,
//! whatever `n` is.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel distance for unreachable nodes.
pub const UNREACHABLE: u64 = u64::MAX;

/// Weighted adjacency over dense node indices `0..n` in CSR form: the
/// arcs of node `v` are `arcs[offsets[v]..offsets[v + 1]]`, each a
/// `(neighbor, weight)` pair, sorted by neighbor, one arc per neighbor.
#[derive(Clone, Debug)]
pub struct WeightedAdj {
    offsets: Vec<u32>,
    arcs: Vec<(u32, u32)>,
}

impl WeightedAdj {
    /// Build the adjacency of `n` nodes from `(from, to, weight)` triples
    /// (consumed as sort scratch). Parallel arcs collapse to the one of
    /// minimal weight. Panics if an endpoint is not below `n`.
    pub fn from_arcs(n: usize, mut triples: Vec<(u32, u32, u32)>) -> WeightedAdj {
        // sorted by (from, to, weight), so the first of each (from, to)
        // run is the lightest — the one `dedup_by_key` keeps
        triples.sort_unstable();
        triples.dedup_by_key(|&mut (from, to, _)| (from, to));
        let mut offsets = vec![0u32; n + 1];
        for &(from, to, _) in &triples {
            assert!((to as usize) < n, "arc head {to} outside 0..{n}");
            offsets[from as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let arcs = triples.into_iter().map(|(_, to, w)| (to, w)).collect();
        WeightedAdj { offsets, arcs }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The `(neighbor, weight)` arcs leaving `v`, ascending by neighbor.
    pub fn arcs_of(&self, v: u32) -> &[(u32, u32)] {
        let v = v as usize;
        &self.arcs[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// Single-source shortest paths over `adj`. Returns a distance per node
/// index ([`UNREACHABLE`] where no path exists).
pub fn dijkstra(adj: &WeightedAdj, src: u32) -> Vec<u64> {
    let mut dist = vec![UNREACHABLE; adj.node_count()];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    dist[src as usize] = 0;
    heap.push(Reverse((0, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue; // stale entry
        }
        for &(w, cost) in adj.arcs_of(u) {
            let nd = d.saturating_add(cost as u64);
            if nd < dist[w as usize] {
                dist[w as usize] = nd;
                heap.push(Reverse((nd, w)));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dists(n: usize, arcs: &[(u32, u32, u32)], src: u32) -> Vec<u64> {
        dijkstra(&WeightedAdj::from_arcs(n, arcs.to_vec()), src)
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
    fn parallel_arcs_collapse_to_the_minimum() {
        let adj = WeightedAdj::from_arcs(2, vec![(0, 1, 7), (0, 1, 2), (0, 1, 4)]);
        assert_eq!(adj.arcs_of(0), &[(1, 2)]);
        assert!(adj.arcs_of(1).is_empty());
    }

    #[test]
    fn no_nodes_no_arcs() {
        let adj = WeightedAdj::from_arcs(0, Vec::new());
        assert_eq!(adj.node_count(), 0);
    }

    #[test]
    #[should_panic(expected = "outside 0..2")]
    fn arc_head_out_of_range_is_rejected() {
        WeightedAdj::from_arcs(2, vec![(0, 2, 1)]);
    }
}
