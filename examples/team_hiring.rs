//! The paper's running example, end to end: Fig. 1's collaboration
//! network, the hiring query for a medical-record-system team, and
//! Examples 1–3 reproduced through the full engine (evaluation, ranking,
//! incremental maintenance) — all through the handle-based `&self` API.
//!
//! Run with: `cargo run --example team_hiring`

use expfinder::core::ResultGraph;
use expfinder::engine::report;
use expfinder::graph::fixtures::collaboration_fig1;
use expfinder::pattern::fixtures::{fig1_pattern, fig1_pattern_simulation};
use expfinder::prelude::*;

fn main() {
    let fig1 = collaboration_fig1();
    let pattern = fig1_pattern();

    let engine = ExpFinder::new(EngineConfig::default());
    let collab = engine
        .add_graph("collab", fig1.graph.clone())
        .expect("fresh engine");

    // ---- Example 1: the match set --------------------------------------
    println!("== Example 1: bounded simulation finds the team ==");
    let outcome = engine
        .query(&collab, &QuerySpec::pattern(pattern.clone()))
        .expect("query runs");
    let g = engine.snapshot(&collab).unwrap();
    let rg = ResultGraph::build(&g, &pattern, &outcome.matches);
    print!("{}", report::roll_up(&g, &pattern, &outcome.matches, &rg));
    assert_eq!(outcome.matches.total_pairs(), 7, "the paper's 7 pairs");

    // ...while plain simulation and isomorphism both fail (paper §I):
    let sim_result = engine
        .query(&collab, &QuerySpec::pattern(fig1_pattern_simulation()))
        .expect("query runs");
    println!(
        "plain graph simulation on the same query: {} matches (too strict)",
        sim_result.matches.total_pairs()
    );
    let iso = expfinder::core::subgraph_isomorphism(
        &fig1.graph,
        &pattern,
        expfinder::core::IsoOptions::default(),
    );
    println!(
        "subgraph isomorphism: {} embeddings (edge-to-edge only)\n",
        iso.embeddings.len()
    );

    // ---- Example 2: ranking by social impact ---------------------------
    println!("== Example 2: top-K experts for the SA position ==");
    let resp = engine
        .query(&collab, &QuerySpec::pattern(pattern.clone()).top_k(2))
        .expect("ranked query");
    print!("{}", report::expert_table(&g, &resp.experts));
    let bob = &resp.experts[0];
    let walt = &resp.experts[1];
    println!(
        "f(SA, {}) = {:.4} (= 9/5), f(SA, {}) = {:.4} (= 7/3)",
        report::display_name(&g, bob.node),
        bob.rank,
        report::display_name(&g, walt.node),
        walt.rank
    );
    println!(
        "(evaluated in {:?}, ranked in {:?})\n",
        resp.timings.evaluate, resp.timings.rank
    );
    assert_eq!(report::display_name(&g, bob.node), "Bob");
    assert!((bob.rank - 9.0 / 5.0).abs() < 1e-12);
    assert!((walt.rank - 7.0 / 3.0).abs() < 1e-12);

    // drill-down, as in the GUI walkthrough
    println!("== Drill down on the best expert ==");
    let rg = ResultGraph::build(&g, &pattern, &resp.matches);
    print!("{}", report::drill_down(&g, &pattern, &rg, bob.node));

    // ---- Example 3: the dynamic world ----------------------------------
    println!("\n== Example 3: incremental maintenance under edge e1 ==");
    engine
        .register_query(&collab, "team", pattern.clone())
        .expect("register");
    let before = engine.registered_result(&collab, "team").unwrap();
    engine
        .apply_updates(&collab, &[EdgeUpdate::Insert(fig1.e1.0, fig1.e1.1)])
        .expect("update applies");
    let after = engine.registered_result(&collab, "team").unwrap();
    let delta = before.diff(&after);
    let g = engine.snapshot(&collab).unwrap();
    for (u, v, added) in &delta {
        println!(
            "  ΔM: {} ({}, {})",
            if *added { "+" } else { "−" },
            pattern.node(*u).name,
            report::display_name(&g, *v)
        );
    }
    assert_eq!(delta.len(), 1, "exactly (SD, Fred) appears");
    assert!(delta[0].2);
    assert_eq!(report::display_name(&g, delta[0].1), "Fred");

    println!("\nAll three worked examples of the paper reproduced exactly.");
}
