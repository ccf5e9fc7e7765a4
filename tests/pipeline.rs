//! Cross-crate pipeline tests: realistic end-to-end flows a user of the
//! system would run, combining generation, the engine, compression,
//! registered queries, updates and persistence — all through the
//! handle-based `&self` API.

use expfinder::engine::{storage, EvalRoute, Route};
use expfinder::graph::generate::{
    collaboration, random_updates, twitter_like, CollabConfig, TwitterConfig,
};
use expfinder::graph::GraphView;
use expfinder::pattern::fixtures::demo_queries;
use expfinder::pattern::parser;
use expfinder::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

    let engine = ExpFinder::default();
    let t = engine.add_graph("t", g).unwrap();
    let direct = engine.evaluate(&t, &q).unwrap();
    assert_eq!(direct.route, EvalRoute::DirectBounded);

    let stats = engine
        .compress(&t, CompressionMethod::Bisimulation)
        .unwrap();
    assert!(stats.size_reduction() > 0.2, "twitter-like compresses");
    let via_c = engine
        .query(&t)
        .pattern(q)
        .prefer(Route::Compressed)
        .run()
        .unwrap();
    assert_eq!(via_c.route, EvalRoute::Compressed);
    assert_eq!(*via_c.matches, *direct.matches);
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

        // maintained result == fresh evaluation on the live graph
        let maintained = engine.registered_result(&c, "q1").unwrap();
        let fresh = engine
            .read_graph(&c, |g| bounded_simulation(g, q).unwrap())
            .unwrap();
        assert_eq!(
            *maintained, fresh,
            "round {round}: registered query drifted"
        );

        // compressed route == direct route on the same engine
        let direct = engine
            .query(&c)
            .pattern(q.clone())
            .prefer(Route::Direct)
            .run()
            .unwrap();
        let routed = engine
            .query(&c)
            .pattern(q.clone())
            .prefer(Route::Compressed)
            .run()
            .unwrap();
        assert_eq!(routed.route, EvalRoute::Compressed, "round {round}");
        assert_eq!(
            *routed.matches, *direct.matches,
            "round {round}: G_c drifted"
        );
    }
}

/// Save a catalog, reload it, and verify query equivalence.
#[test]
fn persistence_pipeline() {
    let dir = std::env::temp_dir().join(format!("expfinder_pipeline_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let g = collab(25, 17);
    let (_, q) = &demo_queries()[1]; // Q2
    let engine = ExpFinder::default();
    let c = engine.add_graph("c", g).unwrap();
    let before = engine.evaluate(&c, q).unwrap();

    storage::save_catalog(&engine, &dir).unwrap();
    let reloaded = storage::load_catalog(&dir).unwrap();
    let c2 = reloaded.handle("c").unwrap();
    let after = reloaded.evaluate(&c2, q).unwrap();
    assert_eq!(*after.matches, *before.matches);

    // results round-trip too
    let rpath = dir.join("q2.result.json");
    storage::save_result(&before.matches, &rpath).unwrap();
    let loaded = storage::load_result(&rpath).unwrap();
    assert_eq!(loaded, *before.matches);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The ranked experts a user sees are stable across evaluation routes.
#[test]
fn ranking_stable_across_routes() {
    let g = collab(30, 23);
    let (_, q) = &demo_queries()[0];

    let plain = ExpFinder::default();
    let h = plain.add_graph("c", g.clone()).unwrap();
    let direct = plain.find_experts(&h, q, 5).unwrap();

    let compressed = ExpFinder::default();
    let hc = compressed.add_graph("c", g.clone()).unwrap();
    compressed
        .compress(&hc, CompressionMethod::Bisimulation)
        .unwrap();
    let via_c = compressed.find_experts(&hc, q, 5).unwrap();

    let registered = ExpFinder::default();
    let hr = registered.add_graph("c", g).unwrap();
    registered.register_query(&hr, "q", q.clone()).unwrap();
    let via_r = registered.find_experts(&hr, q, 5).unwrap();

    let ids = |r: &QueryResponse| {
        r.experts
            .iter()
            .map(|e| (e.node, e.rank.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(ids(&direct), ids(&via_c));
    assert_eq!(ids(&direct), ids(&via_r));
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
        let report = engine.find_experts(&c, &q, 3).unwrap();
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

    let first = engine.evaluate(&c, q).unwrap();
    let cached = engine.evaluate(&c, q).unwrap();
    assert_eq!(cached.route, EvalRoute::Cache);

    let ups = engine
        .read_graph(&c, |g| {
            random_updates(&mut StdRng::seed_from_u64(37), g, 5, 0.0) // deletions
        })
        .unwrap();
    engine.apply_updates(&c, &ups).unwrap();
    let after = engine.evaluate(&c, q).unwrap();
    assert_ne!(after.route, EvalRoute::Cache, "version bumped");
    // deletions can only shrink the relation
    assert!(after.matches.total_pairs() <= first.matches.total_pairs());
}

/// Engine configuration paths: parallel result-graph threads and disabled
/// compression routing both preserve answers.
#[test]
fn engine_config_variants_agree() {
    let g = collab(25, 41);
    let (_, q) = &demo_queries()[0];

    let default_engine = ExpFinder::default();
    let hd = default_engine.add_graph("c", g.clone()).unwrap();
    let reference = default_engine.find_experts(&hd, q, 5).unwrap();

    // parallel execution (CSR fast path + threaded result graph)
    let threaded = ExpFinder::new(EngineConfig {
        exec: ExecConfig {
            threads: 4,
            batch_parallelism: 4,
        },
        ..EngineConfig::default()
    });
    let ht = threaded.add_graph("c", g.clone()).unwrap();
    let via_threads = threaded.find_experts(&ht, q, 5).unwrap();
    assert_eq!(
        reference.experts.iter().map(|e| e.node).collect::<Vec<_>>(),
        via_threads
            .experts
            .iter()
            .map(|e| e.node)
            .collect::<Vec<_>>()
    );

    // compression present but the request prefers direct evaluation
    let compressed = ExpFinder::default();
    let hn = compressed.add_graph("c", g).unwrap();
    compressed
        .compress(&hn, CompressionMethod::Bisimulation)
        .unwrap();
    let out = compressed
        .query(&hn)
        .pattern(q.clone())
        .prefer(Route::Direct)
        .run()
        .unwrap();
    assert_eq!(
        out.route,
        EvalRoute::DirectBounded,
        "quotient not consulted"
    );
    assert_eq!(*out.matches, *reference.matches);
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
        bounded_simulation(&f.graph, &q).unwrap(),
        "no drift after 40 reversals"
    );
}
