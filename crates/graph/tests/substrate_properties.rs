//! Property tests for the graph substrate: the invariants every layer
//! above silently depends on.

use expfinder_graph::bfs::{BfsScratch, Direction};
use expfinder_graph::bfs_frontier::FrontierScratch;
use expfinder_graph::dijkstra::{dijkstra, WeightedAdj, UNREACHABLE};
use expfinder_graph::{BitSet, DiGraph, GraphView, NodeId};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Build a graph with `n` nodes from raw edge pairs (self-loops allowed —
/// the reach semantics treat cycles specially, so they must be covered).
fn graph_from_edges(n: usize, edges: &[(u8, u8)]) -> DiGraph {
    let mut g = DiGraph::new();
    for _ in 0..n {
        g.add_node("x", []);
    }
    for &(a, b) in edges {
        g.add_edge(
            NodeId((a as usize % n) as u32),
            NodeId((b as usize % n) as u32),
        );
    }
    g
}

/// Apply a random op sequence to both a BitSet and a reference HashSet.
#[derive(Clone, Debug)]
enum SetOp {
    Insert(u8),
    Remove(u8),
    Clear,
}

fn set_ops() -> impl Strategy<Value = Vec<SetOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0u8..100).prop_map(SetOp::Insert),
            (0u8..100).prop_map(SetOp::Remove),
            Just(SetOp::Clear),
        ],
        0..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bitset_matches_hashset(ops in set_ops()) {
        let mut bs = BitSet::new(100);
        let mut hs = std::collections::HashSet::new();
        for op in ops {
            match op {
                SetOp::Insert(i) => {
                    prop_assert_eq!(bs.insert(NodeId(i as u32)), hs.insert(i));
                }
                SetOp::Remove(i) => {
                    prop_assert_eq!(bs.remove(NodeId(i as u32)), hs.remove(&i));
                }
                SetOp::Clear => {
                    bs.clear();
                    hs.clear();
                }
            }
            prop_assert_eq!(bs.count(), hs.len());
        }
        let mut from_bs: Vec<u8> = bs.iter().map(|v| v.0 as u8).collect();
        let mut from_hs: Vec<u8> = hs.into_iter().collect();
        from_bs.sort_unstable();
        from_hs.sort_unstable();
        prop_assert_eq!(from_bs, from_hs);
    }

    #[test]
    fn bitset_algebra_laws(
        a in proptest::collection::vec(0u32..64, 0..30),
        b in proptest::collection::vec(0u32..64, 0..30),
    ) {
        let mk = |v: &Vec<u32>| {
            let mut s = BitSet::new(64);
            for &i in v {
                s.insert(NodeId(i));
            }
            s
        };
        let (sa, sb) = (mk(&a), mk(&b));
        let mut inter = sa.clone();
        inter.intersect_with(&sb);
        let mut uni = sa.clone();
        uni.union_with(&sb);
        let mut diff = sa.clone();
        diff.subtract(&sb);
        // |A∪B| = |A| + |B| − |A∩B|
        prop_assert_eq!(uni.count() + inter.count(), sa.count() + sb.count());
        // A\B and A∩B partition A
        prop_assert_eq!(diff.count() + inter.count(), sa.count());
        prop_assert!(inter.is_subset_of(&sa) && inter.is_subset_of(&sb));
        prop_assert!(sa.is_subset_of(&uni) && sb.is_subset_of(&uni));
    }

    /// BFS hop distances equal Dijkstra over unit weights.
    #[test]
    fn bfs_agrees_with_unit_dijkstra(
        n in 2usize..20,
        edges in proptest::collection::vec((0u8..20, 0u8..20), 0..60),
        src in 0u8..20,
    ) {
        let mut g = DiGraph::new();
        for _ in 0..n {
            g.add_node("x", []);
        }
        for (a, b) in edges {
            let (a, b) = ((a as usize % n) as u32, (b as usize % n) as u32);
            if a != b {
                g.add_edge(NodeId(a), NodeId(b));
            }
        }
        let src = NodeId((src as usize % n) as u32);
        let mut scratch = BfsScratch::new();
        let ball = scratch.ball(&g, src, u32::MAX, Direction::Forward);

        let arcs = g
            .ids()
            .flat_map(|v| g.out_neighbors(v).iter().map(move |&w| (v.0, w.0, 1)))
            .collect();
        let dist = dijkstra(&WeightedAdj::from_arcs(n, arcs), src.0);
        for v in g.ids() {
            match ball.dist_of(v) {
                Some(d) => prop_assert_eq!(dist[v.index()], d as u64),
                None => prop_assert_eq!(dist[v.index()], UNREACHABLE),
            }
        }
    }

    /// `WeightedAdj::from_arcs` against a map model: per node, one arc per
    /// distinct neighbour, ascending, carrying the minimum weight — and
    /// nothing else, for any `n` including 0 and nodes without arcs.
    #[test]
    fn weighted_adj_matches_the_map_model(
        n in 0usize..24,
        raw in proptest::collection::vec((0u32..24, 0u32..24, 0u32..9), 0..80),
        spare_last in proptest::bool::ANY,
    ) {
        // `spare_last` folds endpoints into 0..n-1, leaving `n - 1` arc-free
        let spare_last = spare_last && n > 1;
        let m = (n - spare_last as usize) as u32;
        let triples: Vec<(u32, u32, u32)> = raw
            .iter()
            .filter(|_| n > 0)
            .map(|&(a, b, w)| (a % m, b % m, w))
            .collect();
        let mut model: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        for &(a, b, w) in &triples {
            model.entry((a, b)).and_modify(|x| *x = (*x).min(w)).or_insert(w);
        }
        let adj = WeightedAdj::from_arcs(n, triples);
        prop_assert_eq!(adj.node_count(), n);
        let mut total = 0;
        for v in 0..n as u32 {
            let want: Vec<(u32, u32)> = model
                .range((v, 0)..=(v, u32::MAX))
                .map(|(&(_, to), &w)| (to, w))
                .collect();
            prop_assert_eq!(adj.arcs_of(v), &want[..], "arcs of {}", v);
            total += adj.arcs_of(v).len();
        }
        prop_assert_eq!(total, model.len());
        if spare_last {
            prop_assert!(adj.arcs_of(n as u32 - 1).is_empty(), "last node has no arcs");
        }
    }

    /// In/out adjacency stay exact mirrors under arbitrary edge churn.
    #[test]
    fn adjacency_mirror_invariant(
        n in 2usize..15,
        ops in proptest::collection::vec((0u8..15, 0u8..15, proptest::bool::ANY), 0..80),
    ) {
        let mut g = DiGraph::new();
        for _ in 0..n {
            g.add_node("x", []);
        }
        for (a, b, insert) in ops {
            let (a, b) = (NodeId((a as usize % n) as u32), NodeId((b as usize % n) as u32));
            if insert {
                g.add_edge(a, b);
            } else {
                g.remove_edge(a, b);
            }
        }
        let mut fwd: Vec<(u32, u32)> = g.edges().map(|(a, b)| (a.0, b.0)).collect();
        let mut bwd: Vec<(u32, u32)> = g
            .ids()
            .flat_map(|v| g.in_neighbors(v).iter().map(move |&p| (p.0, v.0)))
            .collect();
        fwd.sort_unstable();
        bwd.sort_unstable();
        prop_assert_eq!(&fwd, &bwd);
        prop_assert_eq!(fwd.len(), g.edge_count());
        // adjacency sorted and deduplicated
        for v in g.ids() {
            let out = g.out_neighbors(v);
            prop_assert!(out.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// Frontier BFS ≡ queue BFS: same reach sets and the same
    /// visited-work measure, for both directions and all depths
    /// (including unbounded), on arbitrary graphs and seed sets.
    #[test]
    fn frontier_bfs_equals_queue_bfs(
        n in 2usize..16,
        edges in proptest::collection::vec((0u8..16, 0u8..16), 0..70),
        seeds in proptest::collection::vec(0u8..16, 1..8),
        depth_raw in 0u32..6,
    ) {
        let g = graph_from_edges(n, &edges);
        // depth 5 stands in for unbounded: deterministically remap
        let depth = if depth_raw == 5 { u32::MAX } else { depth_raw };
        let mut seed_set = BitSet::new(n);
        for s in seeds {
            seed_set.insert(NodeId((s as usize % n) as u32));
        }
        let mut queue = BfsScratch::new();
        let mut frontier = FrontierScratch::new();
        let mut a = BitSet::new(n);
        let mut b = BitSet::new(n);
        for dir in [Direction::Forward, Direction::Backward] {
            let va = queue.multi_source_within(&g, &seed_set, depth, dir, &mut a);
            let vb = frontier.multi_source_within(&g, &seed_set, depth, dir, None, &mut b);
            prop_assert_eq!(&a, &b, "reach diverged ({:?}, depth {})", dir, depth);
            prop_assert_eq!(va, vb, "work measure diverged ({:?}, depth {})", dir, depth);
        }
    }

    /// Restricting the frontier BFS to a superset of the answer (the
    /// refresh-memoization invariant: reach sets from shrunken seeds) is
    /// exact, and visits no more nodes than the unrestricted run.
    #[test]
    fn restricted_frontier_bfs_is_exact(
        n in 2usize..16,
        edges in proptest::collection::vec((0u8..16, 0u8..16), 0..70),
        seeds in proptest::collection::vec(0u8..16, 2..8),
        keep in proptest::collection::vec(proptest::bool::ANY, 8),
        depth in 1u32..5,
    ) {
        let g = graph_from_edges(n, &edges);
        let mut s1 = BitSet::new(n);
        for s in &seeds {
            s1.insert(NodeId((*s as usize % n) as u32));
        }
        // S2 ⊆ S1 by dropping members (sim sets only ever shrink)
        let mut s2 = BitSet::new(n);
        for (i, s) in s1.iter().enumerate() {
            if keep[i % keep.len()] {
                s2.insert(s);
            }
        }
        let mut scratch = FrontierScratch::new();
        let mut r1 = BitSet::new(n);
        scratch.multi_source_within(&g, &s1, depth, Direction::Backward, None, &mut r1);
        let mut unrestricted = BitSet::new(n);
        let vu = scratch.multi_source_within(
            &g, &s2, depth, Direction::Backward, None, &mut unrestricted);
        let mut restricted = BitSet::new(n);
        let vr = scratch.multi_source_within(
            &g, &s2, depth, Direction::Backward, Some(&r1), &mut restricted);
        prop_assert_eq!(&restricted, &unrestricted, "restriction changed the answer");
        prop_assert!(vr <= vu, "restriction increased work: {} > {}", vr, vu);
    }

    /// `multi_source_within` equals the brute-force definition.
    #[test]
    fn multi_source_matches_bruteforce(
        n in 2usize..12,
        edges in proptest::collection::vec((0u8..12, 0u8..12), 0..40),
        seeds in proptest::collection::vec(0u8..12, 1..5),
        depth in 1u32..5,
    ) {
        let mut g = DiGraph::new();
        for _ in 0..n {
            g.add_node("x", []);
        }
        for (a, b) in edges {
            let (a, b) = ((a as usize % n) as u32, (b as usize % n) as u32);
            if a != b {
                g.add_edge(NodeId(a), NodeId(b));
            }
        }
        let mut seed_set = BitSet::new(n);
        for s in seeds {
            seed_set.insert(NodeId((s as usize % n) as u32));
        }
        let mut scratch = BfsScratch::new();
        let mut out = BitSet::new(n);
        scratch.multi_source_within(&g, &seed_set, depth, Direction::Backward, &mut out);

        // brute force: v qualifies iff some walk of length 1..=depth from v
        // ends in a seed — computed by repeated one-step expansion
        let mut reachable_in: Vec<BitSet> = vec![seed_set.clone()];
        for d in 1..=depth as usize {
            let prev = &reachable_in[d - 1];
            let mut cur = BitSet::new(n);
            for v in g.ids() {
                if g.out_neighbors(v).iter().any(|w| prev.contains(*w)) {
                    cur.insert(v);
                }
            }
            reachable_in.push(cur);
        }
        for v in g.ids() {
            let truth = (1..=depth as usize).any(|d| reachable_in[d].contains(v));
            prop_assert_eq!(out.contains(v), truth, "node {} depth {}", v, depth);
        }
    }
}
