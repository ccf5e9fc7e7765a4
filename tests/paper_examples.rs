//! Integration lock on the paper's worked examples, exercised through the
//! public facade (`expfinder::prelude`) the way a downstream user would.
//!
//! Experiment index: E1 (Example 1 / Fig. 1), E2 (Example 2),
//! E3 (Example 3) — see DESIGN.md §2.

use expfinder::core::naive::naive_bounded_simulation;
use expfinder::core::IsoOptions;
use expfinder::graph::fixtures::collaboration_fig1;
use expfinder::incremental::Maintainer;
use expfinder::pattern::fixtures::{fig1_pattern, fig1_pattern_simulation};
use expfinder::pattern::parser;
use expfinder::prelude::*;

/// E1: the exact match set of Example 1.
#[test]
fn e1_match_set_exact() {
    let f = collaboration_fig1();
    let q = fig1_pattern();
    let m = bounded_simulation(&f.graph, &q).unwrap();

    let expect = |name: &str, node| {
        assert!(
            m.contains(q.node_id(name).unwrap(), node),
            "({name}, {node}) missing"
        );
    };
    expect("sa", f.bob);
    expect("sa", f.walt);
    expect("ba", f.jean);
    expect("sd", f.mat);
    expect("sd", f.dan);
    expect("sd", f.pat);
    expect("st", f.eva);
    assert_eq!(m.total_pairs(), 7, "and nothing else");
    assert!(!m.contains(q.node_id("sd").unwrap(), f.fred), "no Fred yet");
}

/// E1 (continued): the restrictiveness claims of §I.
#[test]
fn e1_simulation_and_isomorphism_fail() {
    let f = collaboration_fig1();
    let sim = graph_simulation(&f.graph, &fig1_pattern_simulation()).unwrap();
    assert!(sim.is_empty(), "edge-to-edge matching misses the team");
    let iso = expfinder::core::subgraph_isomorphism(
        &f.graph,
        &fig1_pattern(),
        IsoOptions {
            limit: 0,
            max_steps: 0,
        },
    );
    assert!(
        iso.embeddings.is_empty(),
        "bijective matching misses it too"
    );
}

/// E2: both rank values and the top-1 expert.
#[test]
fn e2_rank_values_exact() {
    let f = collaboration_fig1();
    let q = fig1_pattern();
    let m = bounded_simulation(&f.graph, &q).unwrap();
    let rg = ResultGraph::build(&f.graph, &q, &m);
    let all = rank_matches_top_k(&rg, &q, &m, usize::MAX).unwrap();
    let nodes: Vec<NodeId> = all.iter().map(|x| x.node).collect();
    assert_eq!(nodes, [f.bob, f.walt]);
    assert!((all[0].rank - 9.0 / 5.0).abs() < 1e-12);
    assert!((all[1].rank - 7.0 / 3.0).abs() < 1e-12);
    let top = top_k(&f.graph, &q, &m, 1).unwrap();
    assert_eq!(top[0].node, f.bob);
}

/// E3: ΔM through the incremental module, in both directions.
#[test]
fn e3_delta_is_fred_only() {
    let mut f = collaboration_fig1();
    let q = fig1_pattern();
    let mut inc = IncrementalBoundedSim::new(&f.graph, &q);

    f.graph.add_edge(f.e1.0, f.e1.1);
    let delta = inc.on_update(&f.graph, EdgeUpdate::Insert(f.e1.0, f.e1.1));
    assert_eq!(delta.len(), 1);
    assert!(delta[0].added);
    assert_eq!(delta[0].data_node, f.fred);
    assert_eq!(
        inc.current(),
        naive_bounded_simulation(&f.graph, &q),
        "maintained state equals the oracle"
    );

    f.graph.remove_edge(f.e1.0, f.e1.1);
    let delta = inc.on_update(&f.graph, EdgeUpdate::Delete(f.e1.0, f.e1.1));
    assert_eq!(delta.len(), 1);
    assert!(!delta[0].added);
    assert_eq!(delta[0].data_node, f.fred);
}

/// The full engine pipeline reproduces all three examples at once,
/// through the handle-based `&self` API.
#[test]
fn engine_reproduces_all_examples() {
    let f = collaboration_fig1();
    let q = fig1_pattern();
    let engine = ExpFinder::new(EngineConfig::default());
    let h = engine.add_graph("fig1", f.graph.clone()).unwrap();
    engine.register_query(&h, "team", q.clone()).unwrap();

    let report = engine
        .query(&h, &QuerySpec::pattern(q.clone()).top_k(2))
        .unwrap();
    assert_eq!(report.experts[0].node, f.bob);
    assert!((report.experts[0].rank - 1.8).abs() < 1e-12);

    // a second read is served from the held ranking: the same answer,
    // with timings attached
    let resp = engine
        .query(&h, &QuerySpec::pattern(q.clone()).top_k(2))
        .unwrap();
    assert_eq!(resp.experts[0].node, f.bob);
    assert!(resp.timings.total >= resp.timings.rank);

    engine
        .apply_updates(&h, &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
        .unwrap();
    let maintained = engine.registered_result(&h, "team").unwrap();
    assert_eq!(maintained.total_pairs(), 8);
    assert!(maintained.contains(q.node_id("sd").unwrap(), f.fred));
}

/// The Fig. 1 query written in the DSL gives an identical pattern
/// (fingerprint equality) and identical results.
#[test]
fn dsl_version_of_fig1_query_agrees() {
    let dsl = r#"
        node sa* where label = "SA" and experience >= 5;
        node sd  where label = "SD" and experience >= 2;
        node ba  where label = "BA" and experience >= 3;
        node st  where label = "ST" and experience >= 2;
        edge sa -> sd within 2;
        edge sa -> ba within 3;
        edge sd -> st within 2;
        edge ba -> st within 1;
    "#;
    let from_dsl = parser::parse(dsl).unwrap();
    let programmatic = fig1_pattern();
    assert_eq!(from_dsl.fingerprint(), programmatic.fingerprint());
    let f = collaboration_fig1();
    assert_eq!(
        bounded_simulation(&f.graph, &from_dsl).unwrap(),
        naive_bounded_simulation(&f.graph, &programmatic)
    );
}

/// Compression is transparent on the paper graph: same results via G_c.
#[test]
fn compressed_route_agrees_on_fig1() {
    let f = collaboration_fig1();
    let q = fig1_pattern();
    let direct = naive_bounded_simulation(&f.graph, &q);
    let c = compress_graph(&f.graph, CompressionMethod::Bisimulation).unwrap();
    c.validate_pattern(&q).unwrap();
    let expanded = c.expand(&bounded_simulation(&c, &q).unwrap());
    assert_eq!(expanded, direct);
}
