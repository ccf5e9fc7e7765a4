//! Cross-crate pipeline tests: realistic end-to-end flows a user of the
//! system would run, combining generation, the engine, compression,
//! registered queries, updates and persistence — all through the
//! handle-based `&self` API, and judged by the naive oracle and the
//! reference ranking.

use expfinder::graph::generate::{
    collaboration, random_updates, twitter_like, CollabConfig, TwitterConfig,
};
use expfinder::graph::GraphView;
use expfinder::pattern::fixtures::demo_queries;
use expfinder::pattern::parser;
use expfinder::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "../crates/core/tests/common/mod.rs"]
mod common;
use common::oracle;
use expfinder::core::naive::reference_rank;

use expfinder::core::Semantics;

fn naive(g: &DiGraph, q: &Pattern) -> MatchRelation {
    oracle(g, q, Semantics::Bounded)
}

/// Node order and rank bits of a ranked answer.
fn bits(experts: &[expfinder::core::RankedMatch]) -> Vec<(NodeId, u64)> {
    experts.iter().map(|e| (e.node, e.rank.to_bits())).collect()
}

/// The reference top-`k` of `q` over `g`, as [`bits`].
fn expected_top(g: &DiGraph, q: &Pattern, k: usize) -> Vec<(NodeId, u64)> {
    bits(&reference_rank(g, q, &naive(g, q), k))
}

fn collab(teams: usize, seed: u64) -> DiGraph {
    collaboration(
        &mut StdRng::seed_from_u64(seed),
        &CollabConfig {
            teams,
            team_size: 7,
            ..CollabConfig::default()
        },
    )
}

/// Generate → query → compress → query again: identical matches, the
/// second answer routed through the compressed graph.
#[test]
fn compress_route_transparency() {
    let g = twitter_like(
        &mut StdRng::seed_from_u64(3),
        &TwitterConfig {
            n: 3000,
            avg_out: 4,
            hub_fraction: 0.01,
            buckets: 3,
        },
    );
    let q = parser::parse(
        r#"node media* where label = "media";
           node fan where label = "user";
           edge fan -> media within 2;"#,
    )
    .unwrap();

    let want = naive(&g, &q);
    let engine = ExpFinder::default();
    let t = engine.add_graph("t", g).unwrap();
    let direct = engine.query(&t, &QuerySpec::pattern(q.clone())).unwrap();
    assert_eq!(*direct.matches, want);
    // whatever the host's thread budget, a single read goes direct
    assert_eq!(direct.plan.chosen, PlanRoute::Snapshot, "{:?}", direct.plan);

    let stats = engine
        .compress(&t, CompressionMethod::Bisimulation)
        .unwrap();
    assert!(stats.size_reduction() > 0.2, "twitter-like compresses");
    let via_c = engine
        .query(&t, &QuerySpec::pattern(q).prefer(Route::Compressed))
        .unwrap();
    assert_eq!(via_c.plan.chosen, PlanRoute::Compressed);
    assert_eq!(*via_c.matches, want);
}

/// Registered queries stay exact across a long random update stream while
/// the compressed graph is maintained alongside.
#[test]
fn long_update_stream_consistency() {
    let g = collab(40, 11);
    let (_, q) = &demo_queries()[0]; // Q1 = the Fig. 1 pattern
    let engine = ExpFinder::default();
    let c = engine.add_graph("c", g).unwrap();
    engine
        .compress(&c, CompressionMethod::Bisimulation)
        .unwrap();
    engine.register_query(&c, "q1", q.clone()).unwrap();

    let mut rng = StdRng::seed_from_u64(13);
    for round in 0..6 {
        let ups = engine
            .read_graph(&c, |g| random_updates(&mut rng, g, 15, 0.5))
            .unwrap();
        engine.apply_updates(&c, &ups).unwrap();

        // maintained result == the oracle on the live graph
        let maintained = engine.registered_result(&c, "q1").unwrap();
        let fresh = engine.read_graph(&c, |g| naive(g, q)).unwrap();
        assert_eq!(
            *maintained, fresh,
            "round {round}: registered query drifted"
        );

        // compressed route == direct route on the same engine
        let direct = engine
            .query(&c, &QuerySpec::pattern(q.clone()).prefer(Route::Direct))
            .unwrap();
        let routed = engine
            .query(&c, &QuerySpec::pattern(q.clone()).prefer(Route::Compressed))
            .unwrap();
        assert_eq!(routed.plan.chosen, PlanRoute::Compressed, "round {round}");
        assert_eq!(*direct.matches, fresh, "round {round}: direct drifted");
        assert_eq!(*routed.matches, fresh, "round {round}: G_c drifted");
    }
}

/// Close a durable catalog and reopen its directory: the graph (with its
/// logged updates) and its registered query come back, and answer
/// exactly as before.
#[test]
fn persistence_pipeline() {
    let dir = std::env::temp_dir().join(format!("expfinder_pipeline_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = RuntimeConfig {
        fsync: FsyncPolicy::Never,
        ..RuntimeConfig::default()
    };

    let g = collab(25, 17);
    let (_, q) = &demo_queries()[1]; // Q2
    let ups = random_updates(&mut StdRng::seed_from_u64(19), &g, 10, 0.5);
    let before = {
        let rt = DurableExpFinder::open(&dir, config.clone()).unwrap();
        rt.add_graph("c", g).unwrap();
        rt.register_query("c", "q2", q.clone()).unwrap();
        rt.apply_updates("c", &ups).unwrap();
        let c = rt.handle("c").unwrap();
        rt.query(&c, &QuerySpec::pattern(q.clone()).top_k(5))
            .unwrap()
    };

    let rt = DurableExpFinder::open(&dir, config).unwrap();
    assert_eq!(rt.graph_names(), vec!["c".to_owned()]);
    let c = rt.handle("c").unwrap();
    assert_eq!(rt.registered_queries(&c).unwrap(), vec!["q2".to_owned()]);
    let after = rt
        .query(&c, &QuerySpec::pattern(q.clone()).top_k(5))
        .unwrap();
    assert_eq!(after.plan.chosen, PlanRoute::Registered);
    assert_eq!(*after.matches, *before.matches);
    let ranked = |r: &QueryResponse| {
        let bits = r.experts.iter().map(|e| (e.node, e.rank.to_bits()));
        bits.collect::<Vec<_>>()
    };
    assert_eq!(ranked(&after), ranked(&before));

    drop(rt);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The ranked experts a user sees are stable across evaluation routes.
#[test]
fn ranking_stable_across_routes() {
    let g = collab(30, 23);
    let (_, q) = &demo_queries()[0];

    let plain = ExpFinder::default();
    let h = plain.add_graph("c", g.clone()).unwrap();
    let direct = plain
        .query(&h, &QuerySpec::pattern(q.clone()).top_k(5))
        .unwrap();

    let compressed = ExpFinder::default();
    let hc = compressed.add_graph("c", g.clone()).unwrap();
    compressed
        .compress(&hc, CompressionMethod::Bisimulation)
        .unwrap();
    let via_c = compressed
        .query(&hc, &QuerySpec::pattern(q.clone()).top_k(5))
        .unwrap();

    let registered = ExpFinder::default();
    let hr = registered.add_graph("c", g.clone()).unwrap();
    registered.register_query(&hr, "q", q.clone()).unwrap();
    let via_r = registered
        .query(&hr, &QuerySpec::pattern(q.clone()).top_k(5))
        .unwrap();

    let want = expected_top(&g, q, 5);
    assert_eq!(bits(&direct.experts), want);
    assert_eq!(bits(&via_c.experts), want);
    assert_eq!(bits(&via_r.experts), want);
}

/// Demo queries Q1–Q3 run end to end on a generated network and produce
/// ranked experts with finite ranks.
#[test]
fn demo_queries_end_to_end() {
    let g = collab(60, 29);
    assert!(g.node_count() > 0);
    let engine = ExpFinder::default();
    let c = engine.add_graph("c", g).unwrap();
    for (name, q) in demo_queries() {
        let report = engine
            .query(&c, &QuerySpec::pattern(q.clone()).top_k(3))
            .unwrap();
        assert!(
            !report.experts.is_empty(),
            "{name} should find at least one expert"
        );
        assert!(
            report.experts[0].rank.is_finite(),
            "{name}'s best expert should be connected"
        );
    }
}

/// Unit-update engine flow mirroring the demo script: evaluate, update,
/// re-evaluate (version-keyed cache cannot serve stale data).
#[test]
fn cache_versioning_under_updates() {
    let g = collab(20, 31);
    let (_, q) = &demo_queries()[0];
    let engine = ExpFinder::default();
    let c = engine.add_graph("c", g).unwrap();

    let first = engine.query(&c, &QuerySpec::pattern(q.clone())).unwrap();
    let cached = engine.query(&c, &QuerySpec::pattern(q.clone())).unwrap();
    assert_eq!(cached.plan.chosen, PlanRoute::Cache);

    let ups = engine
        .read_graph(&c, |g| {
            random_updates(&mut StdRng::seed_from_u64(37), g, 5, 0.0) // deletions
        })
        .unwrap();
    engine.apply_updates(&c, &ups).unwrap();
    let after = engine.query(&c, &QuerySpec::pattern(q.clone())).unwrap();
    assert_ne!(after.plan.chosen, PlanRoute::Cache, "version bumped");
    // deletions can only shrink the relation
    assert!(after.matches.total_pairs() <= first.matches.total_pairs());
}

/// Engine configuration paths: a wider thread budget and disabled
/// compression routing both preserve answers.
#[test]
fn engine_config_variants_agree() {
    let g = collab(25, 41);
    let (_, q) = &demo_queries()[0];

    let default_engine = ExpFinder::default();
    let hd = default_engine.add_graph("c", g.clone()).unwrap();
    let reference = default_engine
        .query(&hd, &QuerySpec::pattern(q.clone()).top_k(5))
        .unwrap();

    let want = expected_top(&g, q, 5);
    assert_eq!(bits(&reference.experts), want);

    // a batch fan-out width of four, which a single read does not use
    let threaded = ExpFinder::new(EngineConfig { threads: 4 });
    let ht = threaded.add_graph("c", g.clone()).unwrap();
    let via_threads = threaded
        .query(&ht, &QuerySpec::pattern(q.clone()).top_k(5))
        .unwrap();
    assert_eq!(bits(&via_threads.experts), want);

    // compression present but the request prefers direct evaluation
    let compressed = ExpFinder::default();
    let hn = compressed.add_graph("c", g.clone()).unwrap();
    compressed
        .compress(&hn, CompressionMethod::Bisimulation)
        .unwrap();
    let out = compressed
        .query(&hn, &QuerySpec::pattern(q.clone()).prefer(Route::Direct))
        .unwrap();
    assert_eq!(
        out.plan.chosen,
        PlanRoute::Snapshot,
        "quotient not consulted: {:?}",
        out.plan
    );
    assert_eq!(*out.matches, naive(&g, q));
}

/// Stress the paper fixture through repeated insert/delete cycles of e1:
/// maintainer state must not drift or leak across 40 reversals.
#[test]
fn e1_cycle_stress() {
    use expfinder::graph::fixtures::collaboration_fig1;
    use expfinder::incremental::Maintainer;
    use expfinder::pattern::fixtures::fig1_pattern;

    let mut f = collaboration_fig1();
    let q = fig1_pattern();
    let mut inc = IncrementalBoundedSim::new(&f.graph, &q);
    for round in 0..20 {
        f.graph.add_edge(f.e1.0, f.e1.1);
        inc.on_update(&f.graph, EdgeUpdate::Insert(f.e1.0, f.e1.1));
        assert_eq!(inc.current().total_pairs(), 8, "round {round} insert");
        f.graph.remove_edge(f.e1.0, f.e1.1);
        inc.on_update(&f.graph, EdgeUpdate::Delete(f.e1.0, f.e1.1));
        assert_eq!(inc.current().total_pairs(), 7, "round {round} delete");
    }
    assert_eq!(
        inc.current(),
        naive(&f.graph, &q),
        "no drift after 40 reversals"
    );
}
