//! Expert search at social-network scale: a Twitter-like follower graph
//! (the paper's proprietary Twitter fraction, substituted by a generator
//! with the same structure — see DESIGN.md §3), queried through the
//! compression module.
//!
//! Demonstrates the paper's §III "Querying compressed graphs" story: the
//! graph shrinks substantially, queries run on the compressed graph
//! directly, and expansion recovers exactly the original answer.
//!
//! Run with: `cargo run --release --example twitter_influencers`

use expfinder::graph::generate::{twitter_like, TwitterConfig};
use expfinder::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let mut rng = StdRng::seed_from_u64(2013);
    let cfg = TwitterConfig {
        n: 50_000,
        avg_out: 4,
        hub_fraction: 0.005,
        buckets: 4,
    };
    println!(
        "generating a Twitter-like follower graph (n = {}) ...",
        cfg.n
    );
    let g = twitter_like(&mut rng, &cfg);
    println!(
        "  {} accounts, {} follow edges",
        g.node_count(),
        g.edge_count()
    );

    // "find influential media accounts that veteran users follow, which
    //  themselves sit within 2 hops of a celebrity"
    let pattern = PatternBuilder::new()
        .node_output(
            "media",
            Predicate::label("media").and(Predicate::attr_ge("experience", 1)),
        )
        .node(
            "fan",
            Predicate::label("user").and(Predicate::attr_ge("experience", 2)),
        )
        .node("celebrity", Predicate::label("celebrity"))
        .edge("fan", "media", Bound::hops(2))
        .edge("fan", "celebrity", Bound::hops(2))
        .build()
        .expect("valid pattern");

    let engine = ExpFinder::new(EngineConfig::default());
    let twitter = engine.add_graph("twitter", g).unwrap();

    // direct evaluation first
    let t = Instant::now();
    let direct = engine
        .query(&twitter, &QuerySpec::pattern(pattern.clone()))
        .unwrap();
    let direct_time = t.elapsed();
    println!(
        "\ndirect evaluation: {} pairs in {:?} (route {})",
        direct.matches.total_pairs(),
        direct_time,
        direct.plan.chosen.as_str()
    );

    // compress, then the engine routes through G_c automatically
    let t = Instant::now();
    let stats = engine
        .compress(&twitter, CompressionMethod::Bisimulation)
        .unwrap();
    let compress_time = t.elapsed();
    println!(
        "compression: {} → {} nodes, {} → {} edges ({:.1}% size reduction) in {:?}",
        stats.original_nodes,
        stats.compressed_nodes,
        stats.original_edges,
        stats.compressed_edges,
        stats.size_reduction() * 100.0,
        compress_time
    );

    // ask for the compressed route explicitly (the cache already holds
    // this version's answer, so Auto would short-circuit)
    let t = Instant::now();
    let compressed = engine
        .query(
            &twitter,
            &QuerySpec::pattern(pattern.clone()).prefer(Route::Compressed),
        )
        .unwrap();
    let compressed_time = t.elapsed();
    println!(
        "compressed evaluation: {} pairs in {:?} (route {})",
        compressed.matches.total_pairs(),
        compressed_time,
        compressed.plan.chosen.as_str()
    );
    assert_eq!(
        *compressed.matches, *direct.matches,
        "expansion recovers the exact result"
    );

    // top influencers
    let report = engine
        .query(&twitter, &QuerySpec::pattern(pattern.clone()).top_k(5))
        .unwrap();
    println!("\ntop-5 media accounts by social impact:");
    for (i, e) in report.experts.iter().enumerate() {
        println!("  #{} account {} (rank {:.3})", i + 1, e.node, e.rank);
    }

    println!(
        "\nspeedup from compression on this query: {:.1}×",
        direct_time.as_secs_f64() / compressed_time.as_secs_f64().max(1e-9)
    );
}
