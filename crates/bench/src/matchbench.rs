//! Old-path vs new-path benchmark for the matching engine (PR 4).
//!
//! Measures **single-query sequential latency** of bounded simulation on
//! the collab/twitter workloads under both fixpoint engines — the
//! queue-based BFS loop (`FixpointEngine::Queue`, the pre-PR-4 path) and
//! the delta-aware frontier engine (`FixpointEngine::Frontier`:
//! dependency-ordered plan, direction-optimizing bitset BFS, refresh
//! memoization, reused [`EvalScratch`], CSR snapshot) — alongside the
//! [`EvalStats`] each produces, so the speedup is attributable:
//! `refreshes` and `bfs_nodes_visited` drop because the dependency plan
//! refreshes DAG-pattern edges exactly once, and `refreshes_skipped`
//! counts queued refreshes proven redundant by the dirty counters.
//!
//! The patterns are chain-shaped on purpose: a pattern edge whose target
//! set shrinks during refinement re-queues its upstream edges under the
//! old static plan — exactly the work the new plan avoids. Answers from
//! both engines are cross-checked for equality while measuring
//! (`results_identical` in the JSON document, written to `BENCH_4.json`).

use crate::{collab_graph, collab_pattern, fmt_dur, json_obj as obj, time, twitter_graph, SEED};
use expfinder_core::{
    bounded_simulation_indexed, evaluate, CancelToken, EvalOptions, EvalRequest, EvalScratch,
    EvalStats, MatchRelation, ReachIndex, Semantics,
};
use expfinder_graph::json::Value;
use expfinder_graph::{CsrGraph, DiGraph, GraphView};
use expfinder_pattern::{Bound, Pattern, PatternBuilder, Predicate};
use std::time::Duration;

/// Knobs for one benchmark run.
#[derive(Clone, Debug, Default)]
pub struct MatchBenchOptions {
    /// Smaller graphs and fewer repetitions.
    pub quick: bool,
}

/// A chain-shaped influencer pattern for the Twitter-like generator:
/// `u0 →(2) u1 →(2) u2 →(2) u3`, with `u0` also within 3 hops of a
/// media hub — the "influence chain" workload.
///
/// The chain is built so the old static-selective plan *must*
/// re-refresh: seed-set sizes order the edges `media (tiny) → u2-seeded
/// → u1-seeded → u3-seeded`, so `u1 → u2` and `u0 → u1` both run before
/// the huge `u2 → u3` refresh shrinks `sim(u2)` hard (only about a
/// third of users follow another user directly in this generator), and
/// the shrink cascades back up the chain as repeated refreshes. The
/// frontier engine's dependency plan refreshes the chain leaf-first
/// instead — every edge exactly once — and the bound-1 `u2 → u3` edge
/// exercises the direct-intersection fast path (the old path runs a
/// full multi-source BFS from every user for it).
pub fn twitter_chain_pattern() -> Pattern {
    PatternBuilder::new()
        .node_output("u0", Predicate::label("user"))
        .node(
            "u1",
            Predicate::label("user").and(Predicate::attr_ge("experience", 1)),
        )
        .node(
            "u2",
            Predicate::label("user").and(Predicate::attr_ge("experience", 3)),
        )
        .node("u3", Predicate::label("user"))
        .node("media", Predicate::label("media"))
        .edge("u0", "u1", Bound::hops(2))
        .edge("u1", "u2", Bound::hops(2))
        .edge("u2", "u3", Bound::ONE)
        .edge("u0", "media", Bound::hops(3))
        .build()
        .expect("valid pattern")
}

/// A pure-label "audience" star for the Twitter-like generator: every
/// constraint of `u0 →(2) u1, u0 →(3) media` is seeded from an untouched
/// full label class, so on a warm graph version the reach index serves
/// *every* first refresh and queries 2..N skip the class-seeded BFS
/// entirely — the steady-state serving shape `BENCH_5.json` pins down.
pub fn twitter_audience_pattern() -> Pattern {
    PatternBuilder::new()
        .node_output("u0", Predicate::label("user"))
        .node("u1", Predicate::label("user"))
        .node("media", Predicate::label("media"))
        .edge("u0", "u1", Bound::hops(2))
        .edge("u0", "media", Bound::hops(3))
        .build()
        .expect("valid pattern")
}

/// The collab counterpart of [`twitter_audience_pattern`]: a pure-label
/// star whose three constraints are all class-seeded.
pub fn collab_team_star_pattern() -> Pattern {
    PatternBuilder::new()
        .node_output("sa", Predicate::label("SA"))
        .node("sd", Predicate::label("SD"))
        .node("st", Predicate::label("ST"))
        .node("qa", Predicate::label("QA"))
        .edge("sa", "sd", Bound::hops(2))
        .edge("sa", "st", Bound::hops(3))
        .edge("sa", "qa", Bound::hops(2))
        .build()
        .expect("valid pattern")
}

fn ms(d: Duration) -> Value {
    Value::Float(d.as_secs_f64() * 1e3)
}

fn stats_doc(stats: EvalStats) -> Value {
    obj(vec![
        ("refreshes", Value::Int(stats.refreshes as i64)),
        (
            "refreshes_skipped",
            Value::Int(stats.refreshes_skipped as i64),
        ),
        (
            "bfs_nodes_visited",
            Value::Int(stats.bfs_nodes_visited as i64),
        ),
        ("removals", Value::Int(stats.removals as i64)),
        ("index_hits", Value::Int(stats.index_hits as i64)),
        ("index_misses", Value::Int(stats.index_misses as i64)),
    ])
}

/// Median latency plus the (identical-across-reps) evaluation output.
fn measure<R>(reps: usize, mut f: impl FnMut() -> R) -> (Duration, R) {
    // one untimed warmup settles allocator/page-cache state; medians on
    // a busy 1-core container are otherwise dominated by the first run
    let mut last = f();
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (r, t) = time(&mut f);
        times.push(t);
        last = r;
    }
    times.sort();
    (times[times.len() / 2], last)
}

/// The pre-PR-4 path: the queue-based oracle fixpoint, fresh allocations
/// per query.
fn queue_oracle(graph: &DiGraph, pattern: &Pattern) -> (MatchRelation, EvalStats) {
    let req = EvalRequest {
        options: EvalOptions::queue(),
        ..EvalRequest::new(Semantics::Bounded)
    };
    evaluate(graph, pattern, req).expect("no token supplied")
}

/// One workload's measurements.
///
/// The **old path** is the pre-PR-4 sequential serving shape: queue-based
/// fixpoint straight off the live adjacency, fresh allocations per query.
/// The **new path** is what `ExpFinder` now runs per sequential query on
/// a large graph: the delta-aware frontier fixpoint over the cached CSR
/// snapshot (label-indexed candidate seeding), against one reused
/// `EvalScratch`. The snapshot is built once per graph version and shared
/// by every query at that version, so its (separately reported) build
/// cost is not part of per-query latency.
fn bench_workload(name: &str, graph: &DiGraph, pattern: &Pattern, reps: usize) -> Value {
    let (old_t, (old_m, old_stats)) = measure(reps, || queue_oracle(graph, pattern));
    let (csr, snapshot_t) = time(|| CsrGraph::snapshot(graph));
    let mut scratch = EvalScratch::new();
    let (new_t, (new_m, new_stats)) = measure(reps, || {
        bounded_simulation_indexed(&csr, pattern, EvalOptions::default(), &mut scratch, None)
    });

    // the deadline-aware serving shape with a *disarmed* token: every
    // cancellation point costs one relaxed atomic load and nothing else,
    // so this must sit within noise of the token-free path above — the
    // `--max-cancel-overhead` gate holds the chain workload to that
    let disarmed = CancelToken::disarmed();
    let (cancel_t, _) = measure(reps, || {
        let req = EvalRequest {
            scratch: Some(&mut scratch),
            cancel: Some(&disarmed),
            ..EvalRequest::new(Semantics::Bounded)
        };
        evaluate(&csr, pattern, req).expect("disarmed token never fires")
    });
    let cancel_overhead = cancel_t.as_secs_f64() / new_t.as_secs_f64().max(1e-12) - 1.0;

    let identical = old_m == new_m;
    assert!(
        identical,
        "{name}: frontier engine diverged from queue oracle"
    );
    assert!(
        !new_m.is_empty(),
        "{name}: pattern must match its generator"
    );

    let speedup = old_t.as_secs_f64() / new_t.as_secs_f64().max(1e-12);
    let bfs_reduction =
        old_stats.bfs_nodes_visited as f64 / (new_stats.bfs_nodes_visited as f64).max(1.0);
    println!(
        "{:>10} {:>9} {:>9} | {:>11} {:>11} {:>7.2}x | bfs nodes {:>11} → {:>11} ({:.2}x) | skipped {}",
        name,
        graph.node_count(),
        graph.edge_count(),
        fmt_dur(old_t),
        fmt_dur(new_t),
        speedup,
        old_stats.bfs_nodes_visited,
        new_stats.bfs_nodes_visited,
        bfs_reduction,
        new_stats.refreshes_skipped,
    );
    println!(
        "{:>10} disarmed cancel token: {} ({:+.2}% vs token-free)",
        "",
        fmt_dur(cancel_t),
        cancel_overhead * 100.0,
    );

    obj(vec![
        ("name", Value::Str(name.to_owned())),
        ("nodes", Value::Int(graph.node_count() as i64)),
        ("edges", Value::Int(graph.edge_count() as i64)),
        ("match_pairs", Value::Int(new_m.total_pairs() as i64)),
        (
            "old",
            obj(vec![("ms", ms(old_t)), ("stats", stats_doc(old_stats))]),
        ),
        (
            "new",
            obj(vec![
                ("ms", ms(new_t)),
                ("snapshot_build_ms", ms(snapshot_t)),
                ("stats", stats_doc(new_stats)),
            ]),
        ),
        ("speedup", Value::Float(speedup)),
        ("bfs_nodes_reduction", Value::Float(bfs_reduction)),
        ("cancel_check_ms", ms(cancel_t)),
        ("cancel_check_overhead", Value::Float(cancel_overhead)),
        ("results_identical", Value::Bool(identical)),
    ])
}

/// Run the whole benchmark; prints a table and returns the JSON document.
pub fn run_match_bench(opts: &MatchBenchOptions) -> Value {
    let reps = if opts.quick { 3 } else { 15 };
    let scale = if opts.quick { 4 } else { 1 };
    println!(
        "match benchmark: queue engine (old) vs frontier engine (new), sequential, {reps} reps"
    );
    println!(
        "{:>10} {:>9} {:>9} | {:>11} {:>11} {:>8} |",
        "workload", "|V|", "|E|", "1q old", "1q new", "speedup"
    );
    let workloads: Vec<(&str, DiGraph, Pattern)> = vec![
        ("collab", collab_graph(6000 / scale, SEED), collab_pattern()),
        (
            "twitter",
            twitter_graph(20_000 / scale, SEED),
            twitter_chain_pattern(),
        ),
    ];
    let results: Vec<Value> = workloads
        .iter()
        .map(|(name, g, q)| bench_workload(name, g, q, reps))
        .collect();
    obj(vec![
        ("bench", Value::Str("match_frontier".to_owned())),
        (
            "note",
            Value::Str(
                "sequential single-query latency: the pre-PR-4 queue fixpoint vs the \
                 delta-aware frontier fixpoint; identical results asserted while measuring"
                    .to_owned(),
            ),
        ),
        ("seed", Value::Int(SEED as i64)),
        ("quick", Value::Bool(opts.quick)),
        (
            "available_parallelism",
            Value::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64),
        ),
        ("workloads", Value::Array(results)),
    ])
}

/// One workload of the cold-vs-warm index benchmark.
///
/// Three paths are measured against the same CSR snapshot with one
/// reused `EvalScratch`:
///
/// * **pr4** — the PR-4 serving path (frontier engine, no index): every
///   query re-pays the class-seeded first-refresh BFS of each
///   constraint;
/// * **cold** — the *first* index-backed query on a fresh graph version:
///   it pays the sweep that builds each missing `(label, bound,
///   direction)` entry (reported separately, not part of warm latency);
/// * **warm** — queries 2..N on that version: class-seeded first
///   refreshes are served from the memoized entries as one bitset copy
///   each, which is where `bfs_nodes_visited` drops.
///
/// Results of all paths (plus the queue oracle) are asserted identical
/// while measuring; `gated` marks workloads the `--min-warm-speedup`
/// gate applies to.
fn bench_warm_workload(
    name: &str,
    pattern_name: &str,
    graph: &DiGraph,
    pattern: &Pattern,
    reps: usize,
    gated: bool,
) -> Value {
    let (csr, snapshot_t) = time(|| CsrGraph::snapshot(graph));
    let mut scratch = EvalScratch::new();
    let (pr4_t, (pr4_m, pr4_stats)) = measure(reps, || {
        bounded_simulation_indexed(&csr, pattern, EvalOptions::default(), &mut scratch, None)
    });
    let (oracle_m, _) = queue_oracle(graph, pattern);

    let idx = ReachIndex::new(csr.version());
    let bound = idx.bind(&csr);
    let ((cold_m, _), cold_t) = time(|| {
        bounded_simulation_indexed(
            &csr,
            pattern,
            EvalOptions::default(),
            &mut scratch,
            Some(&bound),
        )
    });
    let (warm_t, (warm_m, warm_stats)) = measure(reps, || {
        bounded_simulation_indexed(
            &csr,
            pattern,
            EvalOptions::default(),
            &mut scratch,
            Some(&bound),
        )
    });

    let identical = warm_m == pr4_m && warm_m == oracle_m && cold_m == warm_m;
    assert!(identical, "{name}/{pattern_name}: index changed results");
    assert!(!warm_m.is_empty(), "{name}/{pattern_name}: pattern matches");
    assert!(
        warm_stats.index_hits > 0,
        "{name}/{pattern_name}: warm path must hit the index"
    );
    assert!(
        warm_stats.bfs_nodes_visited < pr4_stats.bfs_nodes_visited,
        "{name}/{pattern_name}: warm path must traverse strictly less \
         ({} vs {})",
        warm_stats.bfs_nodes_visited,
        pr4_stats.bfs_nodes_visited,
    );

    let warm_speedup = pr4_t.as_secs_f64() / warm_t.as_secs_f64().max(1e-12);
    println!(
        "{:>10} {:>14} | {:>11} {:>11} {:>11} {:>7.2}x | bfs nodes {:>9} → {:>9} | hits {} entries {}",
        name,
        pattern_name,
        fmt_dur(pr4_t),
        fmt_dur(cold_t),
        fmt_dur(warm_t),
        warm_speedup,
        pr4_stats.bfs_nodes_visited,
        warm_stats.bfs_nodes_visited,
        warm_stats.index_hits,
        idx.len(),
    );

    obj(vec![
        ("name", Value::Str(name.to_owned())),
        ("pattern", Value::Str(pattern_name.to_owned())),
        ("nodes", Value::Int(graph.node_count() as i64)),
        ("edges", Value::Int(graph.edge_count() as i64)),
        ("match_pairs", Value::Int(warm_m.total_pairs() as i64)),
        (
            "pr4",
            obj(vec![("ms", ms(pr4_t)), ("stats", stats_doc(pr4_stats))]),
        ),
        ("snapshot_build_ms", ms(snapshot_t)),
        ("cold_ms", ms(cold_t)),
        (
            "warm",
            obj(vec![("ms", ms(warm_t)), ("stats", stats_doc(warm_stats))]),
        ),
        ("warm_speedup", Value::Float(warm_speedup)),
        (
            "index",
            obj(vec![
                ("entries", Value::Int(idx.len() as i64)),
                ("bytes", Value::Int(idx.bytes() as i64)),
            ]),
        ),
        ("results_identical", Value::Bool(identical)),
        ("gated", Value::Bool(gated)),
    ])
}

/// Run the cold-vs-warm multi-query benchmark; prints a table and
/// returns the JSON document written to `BENCH_5.json`.
pub fn run_warm_bench(opts: &MatchBenchOptions) -> Value {
    let reps = if opts.quick { 3 } else { 15 };
    let scale = if opts.quick { 4 } else { 1 };
    println!(
        "warm-index benchmark: PR-4 frontier path vs reach-index warm path, sequential, {reps} reps"
    );
    println!(
        "{:>10} {:>14} | {:>11} {:>11} {:>11} {:>8} |",
        "workload", "pattern", "1q pr4", "1q cold", "1q warm", "speedup"
    );
    let collab = collab_graph(6000 / scale, SEED);
    let twitter = twitter_graph(20_000 / scale, SEED);
    // the chain workload keeps two residual-predicate seeds (their first
    // refreshes miss and stay BFS), so only its class-seeded share
    // shrinks; the star workloads are fully class-seeded — every warm
    // query skips the BFS entirely. The twitter workloads carry the
    // acceptance gate.
    let workloads: Vec<(&str, &str, &DiGraph, Pattern, bool)> = vec![
        (
            "twitter",
            "audience_star",
            &twitter,
            twitter_audience_pattern(),
            true,
        ),
        (
            "twitter",
            "influence_chain",
            &twitter,
            twitter_chain_pattern(),
            true,
        ),
        (
            "collab",
            "team_star",
            &collab,
            collab_team_star_pattern(),
            false,
        ),
    ];
    let results: Vec<Value> = workloads
        .iter()
        .map(|(name, pat, g, q, gated)| bench_warm_workload(name, pat, g, q, reps, *gated))
        .collect();
    obj(vec![
        ("bench", Value::Str("match_warm_index".to_owned())),
        (
            "note",
            Value::Str(
                "cold-vs-warm multi-query latency on one graph version: the PR-4 frontier \
                 path re-pays every class-seeded first-refresh BFS per query; the warm path \
                 serves them from the per-version reach index; identical results asserted \
                 while measuring"
                    .to_owned(),
            ),
        ),
        ("seed", Value::Int(SEED as i64)),
        ("quick", Value::Bool(opts.quick)),
        (
            "available_parallelism",
            Value::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64),
        ),
        ("workloads", Value::Array(results)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twitter_chain_pattern_matches_and_cascades() {
        let g = twitter_graph(4000, SEED);
        let q = twitter_chain_pattern();
        // the old path must cascade on this workload (that is what makes
        // it a memoization benchmark) ...
        let (m_old, old) = queue_oracle(&g, &q);
        assert!(!m_old.is_empty(), "pattern matches its generator");
        assert!(
            old.refreshes > q.edge_count(),
            "chain shape must re-refresh some edge on the queue path \
             (got {} refreshes for {} edges)",
            old.refreshes,
            q.edge_count()
        );
        // ... and the dependency-ordered frontier path must not pay it
        let (m_new, new) =
            evaluate(&g, &q, EvalRequest::new(Semantics::Bounded)).expect("no token supplied");
        assert_eq!(m_old, m_new);
        assert!(
            new.refreshes < old.refreshes,
            "dependency plan saves refreshes"
        );
        assert!(new.bfs_nodes_visited < old.bfs_nodes_visited);
    }

    #[test]
    fn bench_doc_shape() {
        let doc = run_match_bench(&MatchBenchOptions { quick: true });
        assert_eq!(
            doc.field("bench").unwrap().as_str().unwrap(),
            "match_frontier"
        );
        let wl = doc.field("workloads").unwrap().as_array().unwrap();
        assert_eq!(wl.len(), 2);
        for w in wl {
            assert!(w.field("results_identical").unwrap().as_bool().unwrap());
            assert!(w.field("speedup").unwrap().as_f64().unwrap() > 0.0);
            let new = w.field("new").unwrap().field("stats").unwrap();
            assert!(new.field("bfs_nodes_visited").unwrap().as_i64().unwrap() > 0);
        }
        // round-trips through the hand-rolled parser
        let text = doc.to_string_pretty();
        assert_eq!(expfinder_graph::json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn warm_bench_doc_shape_and_invariants() {
        let doc = run_warm_bench(&MatchBenchOptions { quick: true });
        assert_eq!(
            doc.field("bench").unwrap().as_str().unwrap(),
            "match_warm_index"
        );
        let wl = doc.field("workloads").unwrap().as_array().unwrap();
        assert_eq!(wl.len(), 3);
        for w in wl {
            assert!(w.field("results_identical").unwrap().as_bool().unwrap());
            assert!(w.field("warm_speedup").unwrap().as_f64().unwrap() > 0.0);
            let pr4 = w.field("pr4").unwrap().field("stats").unwrap();
            let warm = w.field("warm").unwrap().field("stats").unwrap();
            assert!(
                warm.field("bfs_nodes_visited").unwrap().as_i64().unwrap()
                    < pr4.field("bfs_nodes_visited").unwrap().as_i64().unwrap(),
                "warm path traverses strictly less"
            );
            assert!(warm.field("index_hits").unwrap().as_i64().unwrap() > 0);
            let idx = w.field("index").unwrap();
            assert!(idx.field("entries").unwrap().as_i64().unwrap() > 0);
            assert!(idx.field("bytes").unwrap().as_i64().unwrap() > 0);
        }
        // the fully class-seeded star skips the BFS entirely on warm runs
        let star = &wl[0];
        assert_eq!(
            star.field("pattern").unwrap().as_str().unwrap(),
            "audience_star"
        );
        assert_eq!(
            star.field("warm")
                .unwrap()
                .field("stats")
                .unwrap()
                .field("bfs_nodes_visited")
                .unwrap()
                .as_i64()
                .unwrap(),
            0,
            "every constraint served from the index"
        );
        let text = doc.to_string_pretty();
        assert_eq!(expfinder_graph::json::parse(&text).unwrap(), doc);
    }
}
