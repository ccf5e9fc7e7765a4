//! Property tests for the graph substrate: the invariants every layer
//! above silently depends on.

use expfinder_graph::bfs::{BfsScratch, Direction};
use expfinder_graph::bfs_frontier::FrontierScratch;
use expfinder_graph::dijkstra::{DijkstraScratch, WeightedArcs, UNREACHABLE};
use expfinder_graph::reach_index::{class_reach_sweep, ReachCarry};
use expfinder_graph::{BitSet, Class, DiGraph, EdgeUpdate, GraphView, NodeId, Quoted, ReachIndex};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// A graph's out-edges, each of weight 1, as a Dijkstra run reads them.
struct UnitArcs<'a>(&'a DiGraph);

impl WeightedArcs for UnitArcs<'_> {
    fn node_count(&self) -> usize {
        self.0.node_count()
    }

    fn arcs(&mut self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.0.out_neighbors(NodeId(v)).iter().map(|w| (w.0, 1))
    }
}

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

        let mut dijkstra = DijkstraScratch::new();
        dijkstra.run(UnitArcs(&g), src.0);
        for v in g.ids() {
            match ball.dist_of(v) {
                Some(d) => prop_assert_eq!(dijkstra.dist(v.0), d as u64),
                None => prop_assert_eq!(dijkstra.dist(v.0), UNREACHABLE),
            }
        }
        prop_assert_eq!(dijkstra.touched().len(), ball.iter().count());
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

    /// The frontier BFS equals the walk-set definition of bounded reach:
    /// same reach sets and the visited-work measure `|seeds ∪ reach|`,
    /// for both directions and all depths (including unbounded), on
    /// arbitrary graphs (self-loops included) and seed sets.
    #[test]
    fn frontier_bfs_matches_bruteforce(
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
        let mut frontier = FrontierScratch::new();
        let mut got = BitSet::new(n);
        for dir in [Direction::Forward, Direction::Backward] {
            let visited = frontier.multi_source_within(&g, &seed_set, depth, dir, None, None, &mut got);
            let want = walk_reach(&g, &seed_set, depth, dir);
            prop_assert_eq!(&got, &want, "reach diverged ({:?}, depth {})", dir, depth);
            let mut marked = want.clone();
            marked.union_with(&seed_set);
            let work = if depth == 0 { 0 } else { marked.count() };
            prop_assert_eq!(visited, work, "work measure ({:?}, depth {})", dir, depth);
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
        scratch.multi_source_within(&g, &s1, depth, Direction::Backward, None, None, &mut r1);
        let mut unrestricted = BitSet::new(n);
        let vu = scratch.multi_source_within(
            &g, &s2, depth, Direction::Backward, None, None, &mut unrestricted);
        let mut restricted = BitSet::new(n);
        let vr = scratch.multi_source_within(
            &g, &s2, depth, Direction::Backward, Some(&r1), None, &mut restricted);
        prop_assert_eq!(&restricted, &unrestricted, "restriction changed the answer");
        prop_assert!(vr <= vu, "restriction increased work: {} > {}", vr, vu);
    }

    /// Every carried reach-index column stays a fresh sweep's distances,
    /// in both of its layouts, after every update of a random
    /// insert/delete stream, and every key a reader thresholds from it at
    /// a handoff to a new version (at random points) is a fresh sweep's
    /// reach set. The classes are both labels' and condition classes
    /// (`label: None`): two random member sets, and the first label's
    /// members under a second key, which must share that label's column. Self-loops and
    /// 2-cycles let a class member's own non-empty-path membership flip.
    /// Unbounded entries are never carried.
    #[test]
    fn carried_reach_entries_equal_a_fresh_sweep(
        n in 3usize..12,
        labels in proptest::collection::vec(proptest::bool::ANY, 12),
        subsets in proptest::collection::vec(proptest::collection::vec(proptest::bool::ANY, 12), 2),
        edges in proptest::collection::vec((0u8..12, 0u8..12, proptest::bool::ANY), 0..30),
        ops in proptest::collection::vec((proptest::bool::ANY, 0u8..12, 0u8..12, proptest::bool::ANY), 1..40),
    ) {
        let mut g = DiGraph::new();
        for &a in &labels[..n] {
            g.add_node(if a { "A" } else { "B" }, []);
        }
        let id = |i: u8| NodeId((i as usize % n) as u32);
        for &(a, b, twin) in &edges {
            g.add_edge(id(a), id(b));
            if twin {
                g.add_edge(id(b), id(a));
            }
        }
        // the class of each label some node carries, keyed by its test
        let mut classes: Vec<Class> = ["A", "B"]
            .iter()
            .filter_map(|l| {
                let sym = g.interner().get(l)?;
                let members = Arc::new(g.nodes_with_label(sym)?.clone());
                Some(Class::new(format!("label = {}", Quoted(l)).into(), Some(sym), members))
            })
            .collect();
        let twin = Class::new("twin".into(), None, Arc::clone(classes[0].members()));
        classes.push(twin);
        for (i, subset) in subsets.iter().enumerate() {
            let mut members = BitSet::new(n);
            for v in (0..n).filter(|&v| subset[v]) {
                members.insert(NodeId(v as u32));
            }
            classes.push(Class::new(format!("c{i}").into(), None, Arc::new(members)));
        }
        let mut sets: Vec<&BitSet> = classes.iter().map(|c| &**c.members()).collect();
        sets.sort_by_key(|s| s.words().to_vec());
        sets.dedup();
        let columns = sets.len() * 2;
        let dirs = [Direction::Forward, Direction::Backward];
        // the first version builds bound 1 only; later ones add 2 and 3,
        // which raise the cap of the columns bound 1 built
        let fill = |idx: &ReachIndex, g: &DiGraph, depths: &[u32]| {
            for class in &classes {
                for dir in dirs {
                    for &depth in depths.iter().chain(&[u32::MAX]) {
                        let got = idx.entry(g, class, depth, dir);
                        let want = walk_reach(g, class.members(), depth, dir);
                        assert_eq!(*got, want, "{:?} {} {:?}", class.key(), depth, dir);
                    }
                }
            }
        };
        let mut idx = ReachIndex::new(g.version());
        fill(&idx, &g, &[1]);
        let carry = Arc::new(Mutex::new(ReachCarry::default()));
        carry.lock().unwrap().begin(&idx);
        for &(insert, a, b, handoff) in &ops {
            let up = if insert {
                EdgeUpdate::Insert(id(a), id(b))
            } else {
                EdgeUpdate::Delete(id(a), id(b))
            };
            let mut writer = carry.lock().unwrap();
            if g.apply(up) {
                writer.on_update(&g, up);
            }
            for column in writer.columns() {
                prop_assert!(column.bound <= 3, "an unbounded entry was carried");
                let mut want = BitSet::new(n);
                let mut want_dist = Vec::new();
                let (depth, dir) = (column.bound, column.dir);
                class_reach_sweep(&g, column.members, depth, dir, &mut want, Some(&mut want_dist));
                prop_assert_eq!(column.dist, &want_dist[..], "{:?} after {:?}", (depth, dir), up);
                prop_assert_eq!(&column.rows, &want_dist, "{:?} after {:?}", (depth, dir), up);
            }
            prop_assert_eq!(writer.len(), columns);
            drop(writer);
            if handoff {
                let next = ReachIndex::carried(g.version(), Arc::clone(idx.counters()), Arc::clone(&carry));
                let carried = next.counters().get("carried");
                fill(&next, &g, &[1, 2, 3]);
                prop_assert!(next.counters().get("carried") > carried, "no key was thresholded");
                idx = next;
                carry.lock().unwrap().begin(&idx);
            }
        }
    }
}

/// Brute-force bounded reach: `v` qualifies iff some walk of length
/// `1..=depth` in direction `dir`, seen from the seeds, joins `v` to a
/// seed — computed by repeated one-step expansion of exact-length walk
/// sets, no BFS. A shortest such walk has length ≤ `|V|`.
fn walk_reach(g: &DiGraph, seeds: &BitSet, depth: u32, dir: Direction) -> BitSet {
    let n = g.node_count();
    let mut out = BitSet::new(n);
    let mut level = seeds.clone();
    for _ in 0..depth.min(n as u32) {
        let mut next = BitSet::new(n);
        for v in g.ids() {
            if dir
                .opposite()
                .neighbors(g, v)
                .iter()
                .any(|w| level.contains(*w))
            {
                next.insert(v);
            }
        }
        out.union_with(&next);
        level = next;
    }
    out
}
