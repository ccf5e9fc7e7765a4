//! Property-based tests over the whole stack.
//!
//! Strategies generate arbitrary small graphs and patterns; the properties
//! assert the core invariants of the system:
//!
//! * soundness & maximality of bounded simulation (against the independent
//!   naive oracle and the validity checker);
//! * bound-1 bounded simulation ≡ plain simulation (naive's);
//! * isomorphism embeddings are contained in the simulation relation;
//! * compression preserves query answers (the naive oracle's) for both
//!   equivalences;
//! * incremental maintenance equals the naive oracle after arbitrary
//!   update sequences;
//! * monotonicity: larger bounds can only add matches.

use expfinder::compress::{compress_graph, CompressionMethod};
use expfinder::core::naive::{
    is_valid_bounded_relation, naive_bounded_simulation, naive_simulation,
};
use expfinder::core::{subgraph_isomorphism, IsoOptions};
use expfinder::incremental::Maintainer;
use expfinder::pattern::PNodeId;
use expfinder::prelude::*;
use proptest::prelude::*;

#[path = "../crates/core/tests/common/mod.rs"]
mod common;
use common::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fast matcher agrees with the naive oracle and its result is a
    /// valid (and, being the oracle's fixpoint, maximum) relation.
    #[test]
    fn bounded_simulation_sound_and_maximal(rg in raw_graph(14), rp in raw_pattern()) {
        let g = build_graph(&rg);
        let q = build_pattern(&rp, false);
        let fast = bounded_simulation(&g, &q).unwrap();
        let slow = naive_bounded_simulation(&g, &q);
        prop_assert_eq!(&fast, &slow);
        prop_assert!(is_valid_bounded_relation(&g, &q, &fast));
    }

    /// Bounded simulation with all bounds 1 is plain graph simulation:
    /// the one kernel agrees with the naive simulation oracle, which
    /// agrees with the naive bounded one.
    #[test]
    fn bound_one_is_simulation(rg in raw_graph(14), rp in raw_pattern()) {
        let g = build_graph(&rg);
        let q = build_pattern(&rp, true);
        let s = graph_simulation(&g, &q).unwrap();
        let n = naive_simulation(&g, &q);
        prop_assert_eq!(&s, &n);
        prop_assert_eq!(&n, &naive_bounded_simulation(&g, &q));
    }

    /// Every isomorphism embedding is contained in the simulation result
    /// (iso is strictly more restrictive — paper §I).
    #[test]
    fn iso_embeddings_contained_in_simulation(rg in raw_graph(10), rp in raw_pattern()) {
        let g = build_graph(&rg);
        let q = build_pattern(&rp, true);
        let m = graph_simulation(&g, &q).unwrap();
        let iso = subgraph_isomorphism(&g, &q, IsoOptions { limit: 5, max_steps: 100_000 });
        for emb in &iso.embeddings {
            for (i, &v) in emb.iter().enumerate() {
                prop_assert!(
                    m.contains(PNodeId(i as u32), v),
                    "iso pair (q{i}, {v}) missing from simulation"
                );
            }
        }
    }

    /// Raising a bound never removes matches (monotonicity in bounds).
    #[test]
    fn larger_bounds_monotone(rg in raw_graph(12), rp in raw_pattern()) {
        let g = build_graph(&rg);
        let q_small = build_pattern(&rp, false);
        // widen every finite bound by 1
        let mut raised = rp.clone();
        for e in &mut raised.edges {
            if e.2 > 0 {
                e.2 += 1;
            }
        }
        let q_big = build_pattern(&raised, false);
        let m_small = bounded_simulation(&g, &q_small).unwrap();
        let m_big = bounded_simulation(&g, &q_big).unwrap();
        for (u, v) in m_small.pairs() {
            prop_assert!(m_big.contains(u, v), "({u},{v}) lost after widening");
        }
    }

    /// Compression preserves answers, for both equivalences.
    #[test]
    fn compression_preserves_answers(rg in raw_graph(14), rp in raw_pattern()) {
        let g = build_graph(&rg);
        let q = build_pattern(&rp, false);
        let direct = naive_bounded_simulation(&g, &q);
        for method in [CompressionMethod::Bisimulation, CompressionMethod::SimulationEquivalence] {
            let c = compress_graph(&g, method).unwrap();
            prop_assert!(c.validate_pattern(&q).is_ok());
            let expanded = c.expand(&bounded_simulation(&c, &q).unwrap());
            prop_assert_eq!(&expanded, &direct, "{:?} diverged", method);
        }
    }

    /// Incremental maintenance equals the naive oracle after an arbitrary
    /// sequence of edge updates, on the pattern and on its bound-1
    /// variant (plain simulation).
    #[test]
    fn incremental_equals_recompute(
        rg in raw_graph(10),
        rp in raw_pattern(),
        ups in proptest::collection::vec((0u8..10, 0u8..10, proptest::bool::ANY), 1..20),
    ) {
        let mut g = build_graph(&rg);
        let n = g.node_count() as u8;

        let qb = build_pattern(&rp, false);
        let mut inc_b = IncrementalBoundedSim::new(&g, &qb);
        let qs = build_pattern(&rp, true);
        let mut inc_s = IncrementalBoundedSim::new(&g, &qs);

        for &(a, b, insert) in &ups {
            let (a, b) = (NodeId((a % n) as u32), NodeId((b % n) as u32));
            if a == b {
                continue;
            }
            let up = if insert {
                EdgeUpdate::Insert(a, b)
            } else {
                EdgeUpdate::Delete(a, b)
            };
            if g.apply(up) {
                inc_b.on_update(&g, up);
                inc_s.on_update(&g, up);
            }
        }
        prop_assert_eq!(inc_b.current(), naive_bounded_simulation(&g, &qb));
        prop_assert_eq!(inc_s.current(), naive_simulation(&g, &qs));
    }

    /// Graph text-format round trip for arbitrary graphs.
    #[test]
    fn graph_io_roundtrip(rg in raw_graph(12)) {
        let g = build_graph(&rg);
        let mut buf = Vec::new();
        expfinder::graph::io::write_text(&g, &mut buf).unwrap();
        let g2 = expfinder::graph::io::read_text(&mut std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(g.node_count(), g2.node_count());
        prop_assert_eq!(g.edge_count(), g2.edge_count());
        let e1: Vec<_> = g.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        prop_assert_eq!(e1, e2);
    }
}
