//! Batch-execution determinism tests.
//!
//! The batch executor must be *invisible* except in speed. Every answer
//! is judged by the naive oracle and the reference ranking, never by the
//! production engine itself:
//!
//! * property tests: `parallel_bounded_simulation_indexed` — the name the
//!   repo benchmark times bounded simulation under, which runs the one
//!   fixpoint engine whatever its thread count — equals the oracle for
//!   bounded and plain simulation, and `evaluate` with
//!   `Semantics::Dual` equals the dual oracle, on arbitrary generated
//!   graphs and patterns, on both the `DiGraph` and its `CsrGraph`
//!   snapshot;
//! * `query_batch` slots equal single `Catalog::query` reads, and both equal the
//!   oracle at the same `graph_version`;
//! * a batch racing `apply_updates` only ever observes consistent
//!   snapshots: every slot equals the oracle's relation of the graph at
//!   the version the slot reports.

use expfinder::core::naive::{naive_simulation, reference_rank};
use expfinder::core::{
    evaluate, parallel_bounded_simulation_indexed, EvalRequest, RankedMatch, Semantics,
};
use expfinder::graph::generate::{collaboration, random_updates, CollabConfig};
use expfinder::graph::GraphView;
use expfinder::pattern::fixtures::demo_queries;
use expfinder::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

#[path = "../crates/core/tests/common/mod.rs"]
mod common;
use common::*;

// ---------------------------------------------------------------------
// the benchmark's evaluation entry points ≡ the oracle
// ---------------------------------------------------------------------

/// The benchmark's bounded-simulation shim, asked for `threads` workers.
fn shim<G: GraphView>(g: &G, q: &Pattern, threads: usize) -> MatchRelation {
    parallel_bounded_simulation_indexed(g, q, threads, None)
        .unwrap()
        .0
}

fn dual<G: GraphView>(g: &G, q: &Pattern) -> MatchRelation {
    evaluate(g, q, EvalRequest::new(Semantics::Dual)).unwrap().0
}

fn bits(list: &[RankedMatch]) -> Vec<(NodeId, u64)> {
    list.iter().map(|x| (x.node, x.rank.to_bits())).collect()
}

fn engine(threads: usize) -> ExpFinder {
    ExpFinder::new(EngineConfig { threads })
}

/// A response's relation is the naive one on `g`, and its experts are
/// the reference top-`k` (none without `k`).
fn assert_answers(g: &DiGraph, q: &Pattern, resp: &QueryResponse, k: Option<usize>, who: &str) {
    let want = oracle(g, q, Semantics::Bounded);
    assert_eq!(*resp.matches, want, "{who}: matches");
    let ranked = k.map_or_else(Vec::new, |k| reference_rank(g, q, &want, k));
    assert_eq!(bits(&resp.experts), bits(&ranked), "{who}: experts");
    assert_eq!(resp.graph_version, g.version(), "{who}: version");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The shim's bounded simulation equals the naive fixpoint, on the
    /// `DiGraph` and on the CSR snapshot, at several thread counts.
    #[test]
    fn parallel_bsim_equals_sequential(rg in raw_graph(14), rp in raw_pattern()) {
        let g = build_graph(&rg);
        let q = build_pattern(&rp, false);
        let want = oracle(&g, &q, Semantics::Bounded);
        let csr = CsrGraph::snapshot(&g);
        for threads in [2usize, 4] {
            prop_assert_eq!(&shim(&g, &q, threads), &want);
            prop_assert_eq!(&shim(&csr, &q, threads), &want);
        }
    }

    /// The shim on a bound-1 pattern — plain simulation — equals naive
    /// simulation.
    #[test]
    fn parallel_sim_equals_sequential(rg in raw_graph(14), rp in raw_pattern()) {
        let g = build_graph(&rg);
        let q = build_pattern(&rp, true);
        let want = naive_simulation(&g, &q);
        let csr = CsrGraph::snapshot(&g);
        prop_assert_eq!(&shim(&g, &q, 3), &want);
        prop_assert_eq!(&shim(&csr, &q, 3), &want);
    }

    /// Dual simulation equals the naive bidirectional fixpoint.
    #[test]
    fn parallel_dualsim_equals_sequential(rg in raw_graph(14), rp in raw_pattern()) {
        let g = build_graph(&rg);
        let q = build_pattern(&rp, false);
        let want = oracle(&g, &q, Semantics::Dual);
        let csr = CsrGraph::snapshot(&g);
        prop_assert_eq!(&dual(&g, &q), &want);
        prop_assert_eq!(&dual(&csr, &q), &want);
    }

    /// A batch on a two-thread engine and per-query runs on a sequential
    /// one both equal the oracle at the same version — the engine-level
    /// contract.
    #[test]
    fn batch_equals_sequential_runs(rg in raw_graph(12), rp in raw_pattern()) {
        let g = build_graph(&rg);
        let q = build_pattern(&rp, false);
        let par = engine(2);
        let seq = engine(1);
        let hp = par.add_graph("g", g.clone()).unwrap();
        let hs = seq.add_graph("g", g.clone()).unwrap();
        let specs = vec![
            QuerySpec::pattern(q.clone()),
            QuerySpec::pattern(q.clone()).top_k(3),
            QuerySpec::pattern(q.clone()).prefer(Route::Direct),
        ];
        let batch = par.query_batch(&hp, specs, None);
        let singles = [
            (seq.query(&hs, &QuerySpec::pattern(q.clone())).unwrap(), None),
            (seq.query(&hs, &QuerySpec::pattern(q.clone()).top_k(3)).unwrap(), Some(3)),
            (seq.query(&hs, &QuerySpec::pattern(q.clone()).prefer(Route::Direct)).unwrap(), None),
        ];
        for (i, (single, k)) in singles.iter().enumerate() {
            assert_answers(&g, &q, batch[i].as_ref().unwrap(), *k, &format!("batch slot {i}"));
            assert_answers(&g, &q, single, *k, &format!("single {i}"));
        }
    }
}

// ---------------------------------------------------------------------
// engine-level batch contracts
// ---------------------------------------------------------------------

fn collab_graph(teams: usize, seed: u64) -> DiGraph {
    collaboration(
        &mut StdRng::seed_from_u64(seed),
        &CollabConfig {
            teams,
            team_size: 6,
            ..CollabConfig::default()
        },
    )
}

/// Batch responses on a quiescent graph equal single reads, and
/// both equal the oracle's relation and the reference ranking.
#[test]
fn batch_matches_fluent_runs_on_static_graph() {
    let g = collab_graph(25, 17);
    let par = engine(2);
    let seq = engine(1);
    let hp = par.add_graph("c", g.clone()).unwrap();
    let hs = seq.add_graph("c", g.clone()).unwrap();

    let queries = demo_queries();
    let specs: Vec<QuerySpec> = queries
        .iter()
        .map(|(_, q)| QuerySpec::pattern(q.clone()).top_k(3))
        .collect();
    let batch = par.query_batch(&hp, specs, None);
    assert_eq!(batch.len(), queries.len());
    for (i, (name, q)) in queries.iter().enumerate() {
        let b = batch[i].as_ref().unwrap();
        let s = seq
            .query(&hs, &QuerySpec::pattern(q.clone()).top_k(3))
            .unwrap();
        assert_eq!(*b.matches, *s.matches, "{name}: matches diverge");
        assert_eq!(
            bits(&b.experts),
            bits(&s.experts),
            "{name}: ranking diverges"
        );
        assert_answers(&g, q, b, Some(3), &format!("{name} batch"));
        assert_answers(&g, q, &s, Some(3), &format!("{name} single"));
    }
}

/// Batches racing a writer observe only consistent snapshots: every
/// slot equals the oracle's relation at the slot's reported version.
#[test]
fn batch_racing_updates_stays_consistent() {
    const UPDATES: usize = 40;
    const ROUNDS: usize = 12;

    let base = collab_graph(15, 23);
    let queries = demo_queries();
    let updates = random_updates(&mut StdRng::seed_from_u64(51), &base, UPDATES, 0.5);

    // the oracle's truth for every (version, query) the graph can pass
    // through
    let mut expected: HashMap<(u64, usize), MatchRelation> = HashMap::new();
    let mut g = base.clone();
    let mut record = |g: &DiGraph| {
        for (qi, (_, q)) in queries.iter().enumerate() {
            expected.insert((g.version(), qi), oracle(g, q, Semantics::Bounded));
        }
    };
    record(&g);
    for &up in &updates {
        if g.apply(up) {
            record(&g);
        }
    }

    let engine = engine(2);
    let h = engine.add_graph("live", base).unwrap();
    let specs = || -> Vec<QuerySpec> {
        queries
            .iter()
            .map(|(_, q)| QuerySpec::pattern(q.clone()))
            .collect()
    };

    std::thread::scope(|s| {
        s.spawn(|| {
            for &up in &updates {
                engine.apply_updates(&h, &[up]).unwrap();
                std::thread::yield_now();
            }
        });
        s.spawn(|| {
            for round in 0..ROUNDS {
                let batch = engine.query_batch(&h, specs(), None);
                for (qi, result) in batch.iter().enumerate() {
                    let resp = result.as_ref().unwrap();
                    let version = resp.graph_version;
                    let who = format!("round {round} query {qi} at version {version}");
                    let truth = expected
                        .get(&(version, qi))
                        .unwrap_or_else(|| panic!("{who}: never a real graph state"));
                    assert_eq!(
                        *resp.matches, *truth,
                        "{who}: slot diverges from the oracle"
                    );
                }
            }
        });
    });

    // quiesced: the batch equals the oracle on the final graph
    let final_batch = engine.query_batch(&h, specs(), None);
    for (qi, (name, q)) in queries.iter().enumerate() {
        let resp = final_batch[qi].as_ref().unwrap();
        assert_answers(&g, q, resp, None, &format!("final {name}"));
    }
}
