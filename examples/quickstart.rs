//! Quickstart: build a small collaboration graph, express a hiring
//! requirement as a bounded-simulation pattern, and get ranked experts —
//! first through the shareable engine (the handle + `QuerySpec` API
//! every service would use), then through the raw matching layer.
//!
//! Run with: `cargo run --example quickstart`

use expfinder::prelude::*;
use std::sync::Arc;

fn main() {
    // --- a tiny collaboration network ----------------------------------
    // Edges mean "collaborated in a project with / led".
    let mut g = DiGraph::new();
    let ana = g.add_node(
        "SA",
        [
            ("name", AttrValue::Str("Ana".into())),
            ("experience", AttrValue::Int(8)),
        ],
    );
    let raj = g.add_node(
        "SA",
        [
            ("name", AttrValue::Str("Raj".into())),
            ("experience", AttrValue::Int(6)),
        ],
    );
    let dev1 = g.add_node(
        "SD",
        [
            ("name", AttrValue::Str("Kim".into())),
            ("experience", AttrValue::Int(4)),
        ],
    );
    let dev2 = g.add_node(
        "SD",
        [
            ("name", AttrValue::Str("Lee".into())),
            ("experience", AttrValue::Int(2)),
        ],
    );
    let tester = g.add_node(
        "ST",
        [
            ("name", AttrValue::Str("Mia".into())),
            ("experience", AttrValue::Int(3)),
        ],
    );
    let pm = g.add_node(
        "PM",
        [
            ("name", AttrValue::Str("Sam".into())),
            ("experience", AttrValue::Int(5)),
        ],
    );
    // Ana leads Kim directly; Raj only collaborates with the developers
    // through Sam, the project manager.
    g.add_edge(ana, dev1);
    g.add_edge(raj, pm);
    g.add_edge(pm, dev1);
    g.add_edge(dev1, dev2);
    g.add_edge(dev1, tester);
    g.add_edge(dev2, tester);

    // --- the requirement as a pattern ----------------------------------
    // "An architect with ≥ 5 years who worked with a developer (within 2
    //  hops) whose work was tested (within 2 hops)."
    let pattern = PatternBuilder::new()
        .node_output(
            "architect",
            Predicate::label("SA").and(Predicate::attr_ge("experience", 5)),
        )
        .node("developer", Predicate::label("SD"))
        .node("tester", Predicate::label("ST"))
        .edge("architect", "developer", Bound::hops(2))
        .edge("developer", "tester", Bound::hops(2))
        .build()
        .expect("valid pattern");

    // --- the engine way: shareable, handle-based -----------------------
    // `Arc<ExpFinder>` is how a long-lived service holds the engine: every
    // query-side method is `&self`, so clones of the Arc can serve many
    // threads at once.
    let engine = Arc::new(ExpFinder::default());
    let team = engine.add_graph("team", g.clone()).expect("fresh name");
    let resp = engine
        .query(&team, &QuerySpec::pattern(pattern.clone()).top_k(2))
        .expect("query runs");

    println!(
        "match relation M(Q,G): {} pairs via {} in {:?}",
        resp.matches.total_pairs(),
        resp.plan.chosen.as_str(),
        resp.timings.total
    );
    for (u, v) in resp.matches.pairs() {
        let name = g.attr_of(v, "name").and_then(|a| a.as_str()).unwrap_or("?");
        println!("  {} ⊨ {}", pattern.node(u).name, name);
    }

    println!("\ntop experts by social impact (lower = closer to the team):");
    for (i, e) in resp.experts.iter().enumerate() {
        let name = g
            .attr_of(e.node, "name")
            .and_then(|a| a.as_str())
            .unwrap_or("?");
        println!("  #{} {} (rank {:.3})", i + 1, name, e.rank);
    }

    // Both architects match, but Ana collaborates directly with the team
    // while Raj goes through the project manager — Ana's average social
    // distance is strictly smaller, so she ranks first.
    assert_eq!(resp.experts[0].node, ana);
    assert!(resp.experts[0].rank < resp.experts[1].rank);

    // --- the library way: the matching layer directly -------------------
    let matches = bounded_simulation(&g, &pattern).expect("evaluation succeeds");
    assert_eq!(matches, *resp.matches, "engine and library agree");
    let experts = top_k(&g, &pattern, &matches, 2).expect("pattern has an output node");
    assert_eq!(experts[0].node, resp.experts[0].node);
    println!("\n(direct bounded_simulation + top_k agree with the engine)");
}
