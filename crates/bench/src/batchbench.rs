//! Sequential-vs-parallel benchmark for the batch execution subsystem.
//!
//! Measures, on the deterministic generated workloads of this crate:
//!
//! * **single-query latency** — one query through `Route::Direct`, on a
//!   sequential engine (`ExecConfig::sequential()`, live adjacency) vs a
//!   parallel one (CSR snapshot + `threads`-way refinement);
//! * **batch throughput** — a batch of *distinct* pattern variants (no
//!   intra-batch cache hits) drained by `Catalog::query_batch` with
//!   `batch_parallelism = 1` vs `= threads`.
//!
//! Results are printed as a table and returned as a machine-readable
//! [`Value`] document; the experiment harness and the `bench_batch` bin
//! write it to `BENCH_<pr>.json`, the perf baseline CI archives per run
//! (the `bench-smoke` job) so future PRs can be gated on regressions.
//! Sequential and parallel answers are cross-checked for equality while
//! measuring — a speedup that changed the results would be a bug, not a
//! win.

use crate::{collab_graph, fmt_dur, json_obj as obj, median_of, time, twitter_graph, SEED};
use expfinder_engine::{EngineConfig, ExecConfig, ExpFinder, QuerySpec, Route};
use expfinder_graph::json::Value;
use expfinder_graph::{DiGraph, GraphView};
use expfinder_pattern::{Bound, Pattern, PatternBuilder, Predicate};
use std::time::Duration;

/// Knobs for one benchmark run.
#[derive(Clone, Debug)]
pub struct BatchBenchOptions {
    /// Smaller graphs and fewer repetitions.
    pub quick: bool,
    /// Worker threads for the parallel engine (refinement and batch
    /// fan-out alike).
    pub threads: usize,
    /// Queries per batch.
    pub batch_size: usize,
}

impl Default for BatchBenchOptions {
    fn default() -> Self {
        BatchBenchOptions {
            quick: false,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            batch_size: 64,
        }
    }
}

impl BatchBenchOptions {
    /// The quick profile used by `experiments -- --quick` and CI smoke.
    pub fn quick() -> Self {
        BatchBenchOptions {
            quick: true,
            batch_size: 16,
            ..BatchBenchOptions::default()
        }
    }
}

/// Distinct collaboration-pattern variants. Structure cycles (experience
/// threshold × hop bound), but every `i` gets a unique — vacuously true —
/// upper bound on `experience`, so fingerprints are distinct for *all*
/// slots and a batch of them can never be served by intra-batch cache
/// hits, whatever route it takes.
pub fn collab_variant(i: usize) -> Pattern {
    let exp = 1 + (i % 5) as i64;
    let hop = 2 + (i / 5 % 2) as u32;
    PatternBuilder::new()
        .node_output(
            "sa",
            Predicate::label("SA")
                .and(Predicate::attr_ge("experience", exp))
                .and(Predicate::attr_le("experience", 1_000 + i as i64)),
        )
        .node("sd", Predicate::label("SD"))
        .node("st", Predicate::label("ST"))
        .edge("sa", "sd", Bound::hops(hop))
        .edge("sa", "st", Bound::hops(3))
        .edge("sd", "st", Bound::hops(2))
        .build()
        .expect("valid variant")
}

/// Distinct influencer-pattern variants for the Twitter-like generator
/// (same per-slot uniqueness trick as [`collab_variant`]).
pub fn twitter_variant(i: usize) -> Pattern {
    let exp = (i % 4) as i64;
    let hop = 2 + (i / 4 % 2) as u32;
    PatternBuilder::new()
        .node_output(
            "media",
            Predicate::label("media").and(Predicate::attr_le("experience", 1_000 + i as i64)),
        )
        .node(
            "fan",
            Predicate::label("user").and(Predicate::attr_ge("experience", exp)),
        )
        .node("celebrity", Predicate::label("celebrity"))
        .edge("fan", "media", Bound::hops(hop))
        .edge("fan", "celebrity", Bound::hops(2))
        .build()
        .expect("valid variant")
}

fn ms(d: Duration) -> Value {
    Value::Float(d.as_secs_f64() * 1e3)
}

fn speedup(seq: Duration, par: Duration) -> f64 {
    seq.as_secs_f64() / par.as_secs_f64().max(1e-12)
}

/// A family of distinct pattern variants, indexed by batch slot.
type VariantFn = fn(usize) -> Pattern;

/// One workload's measurements.
fn bench_workload(
    name: &str,
    graph: &DiGraph,
    variant: VariantFn,
    opts: &BatchBenchOptions,
) -> Value {
    let reps = if opts.quick { 3 } else { 5 };
    let engine = |exec: ExecConfig| {
        let e = ExpFinder::new(EngineConfig {
            exec,
            ..EngineConfig::default()
        });
        let h = e.add_graph("bench", graph.clone()).unwrap();
        (e, h)
    };
    let par_exec = ExecConfig {
        threads: opts.threads,
        batch_parallelism: opts.threads,
    };

    // --- single-query latency (Route::Direct defeats the cache) ---
    let q0 = variant(0);
    let (seq_e, seq_h) = engine(ExecConfig::sequential());
    let (par_e, par_h) = engine(par_exec);
    let single_seq = median_of(reps, || {
        seq_e
            .query(&seq_h)
            .pattern(q0.clone())
            .prefer(Route::Direct)
            .run()
            .unwrap()
    });
    let single_par = median_of(reps, || {
        par_e
            .query(&par_h)
            .pattern(q0.clone())
            .prefer(Route::Direct)
            .run()
            .unwrap()
    });

    // --- batch throughput (fresh engines: cold caches on both sides) ---
    let specs: Vec<QuerySpec> = (0..opts.batch_size)
        .map(|i| {
            QuerySpec::pattern(variant(i))
                .prefer(Route::Direct)
                .top_k(5)
        })
        .collect();
    let (seq_e, seq_h) = engine(ExecConfig {
        threads: 1,
        batch_parallelism: 1,
    });
    let (par_e, par_h) = engine(par_exec);
    let (seq_results, batch_seq) = time(|| seq_e.query_batch(&seq_h, specs.clone()));
    let (par_results, batch_par) = time(|| par_e.query_batch(&par_h, specs.clone()));
    let identical = seq_results.len() == par_results.len()
        && seq_results.iter().zip(&par_results).all(|(a, b)| {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            *a.matches == *b.matches
                && a.experts.iter().map(|x| x.node).collect::<Vec<_>>()
                    == b.experts.iter().map(|x| x.node).collect::<Vec<_>>()
        });
    assert!(
        identical,
        "parallel batch diverged from sequential baseline"
    );

    let qps = |d: Duration| opts.batch_size as f64 / d.as_secs_f64().max(1e-12);
    println!(
        "{:>10} {:>9} {:>9} | {:>11} {:>11} {:>7.2}x | {:>11} {:>11} {:>7.2}x",
        name,
        graph.node_count(),
        graph.edge_count(),
        fmt_dur(single_seq),
        fmt_dur(single_par),
        speedup(single_seq, single_par),
        format!("{:.1}/s", qps(batch_seq)),
        format!("{:.1}/s", qps(batch_par)),
        speedup(batch_seq, batch_par),
    );

    obj(vec![
        ("name", Value::Str(name.to_owned())),
        ("nodes", Value::Int(graph.node_count() as i64)),
        ("edges", Value::Int(graph.edge_count() as i64)),
        (
            "single_query",
            obj(vec![
                ("sequential_ms", ms(single_seq)),
                ("parallel_ms", ms(single_par)),
                ("speedup", Value::Float(speedup(single_seq, single_par))),
            ]),
        ),
        (
            "batch",
            obj(vec![
                ("size", Value::Int(opts.batch_size as i64)),
                ("sequential_ms", ms(batch_seq)),
                ("parallel_ms", ms(batch_par)),
                ("sequential_qps", Value::Float(qps(batch_seq))),
                ("parallel_qps", Value::Float(qps(batch_par))),
                ("speedup", Value::Float(speedup(batch_seq, batch_par))),
                ("results_identical", Value::Bool(identical)),
            ]),
        ),
    ])
}

/// Run the whole benchmark; prints a table and returns the JSON document.
pub fn run_batch_bench(opts: &BatchBenchOptions) -> Value {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "batch benchmark: {} threads requested, {} cores available, batch size {}",
        opts.threads, cores, opts.batch_size
    );
    println!(
        "{:>10} {:>9} {:>9} | {:>11} {:>11} {:>8} | {:>11} {:>11} {:>8}",
        "workload",
        "|V|",
        "|E|",
        "1q seq",
        "1q par",
        "speedup",
        "batch seq",
        "batch par",
        "speedup"
    );
    let scale = if opts.quick { 4 } else { 1 };
    let workloads: Vec<(&str, DiGraph, VariantFn)> = vec![
        ("collab", collab_graph(6000 / scale, SEED), collab_variant),
        (
            "twitter",
            twitter_graph(20_000 / scale, SEED),
            twitter_variant,
        ),
    ];
    let results: Vec<Value> = workloads
        .iter()
        .map(|(name, g, variant)| bench_workload(name, g, *variant, opts))
        .collect();
    obj(vec![
        ("bench", Value::Str("batch_parallel".to_owned())),
        (
            "note",
            Value::Str(
                "speedups are bounded by available_parallelism; a run with \
                 threads > cores measures scheduling overhead, not scaling"
                    .to_owned(),
            ),
        ),
        ("seed", Value::Int(SEED as i64)),
        ("quick", Value::Bool(opts.quick)),
        ("threads", Value::Int(opts.threads as i64)),
        ("available_parallelism", Value::Int(cores as i64)),
        ("batch_size", Value::Int(opts.batch_size as i64)),
        ("workloads", Value::Array(results)),
    ])
}

/// Write a benchmark document where CI (and the repo baseline) expect it.
pub fn write_bench_json(path: &str, doc: &Value) -> std::io::Result<()> {
    let mut text = doc.to_string_pretty();
    text.push('\n');
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, text)?;
    println!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_are_distinct_and_matchable() {
        // distinct across a full default batch, not just one cycle of the
        // structural parameters
        let fps: std::collections::BTreeSet<String> =
            (0..64).map(|i| collab_variant(i).fingerprint()).collect();
        assert_eq!(fps.len(), 64, "64 distinct collab fingerprints");
        let fps: std::collections::BTreeSet<String> =
            (0..64).map(|i| twitter_variant(i).fingerprint()).collect();
        assert_eq!(fps.len(), 64, "64 distinct twitter fingerprints");

        let g = collab_graph(800, SEED);
        let m = expfinder_core::bounded_simulation(&g, &collab_variant(0)).unwrap();
        assert!(!m.is_empty(), "variant 0 matches its generator");
        // the uniqueness conjunct is vacuous: variants differing only in
        // slot index have identical match sets
        let a = expfinder_core::bounded_simulation(&g, &collab_variant(3)).unwrap();
        let b = expfinder_core::bounded_simulation(&g, &collab_variant(13)).unwrap();
        assert_eq!(a, b, "slot index never changes semantics");
    }

    #[test]
    fn bench_doc_shape() {
        // tiny smoke run: the JSON document has the fields CI consumes
        let opts = BatchBenchOptions {
            quick: true,
            threads: 2,
            batch_size: 4,
        };
        let doc = run_batch_bench(&opts);
        assert_eq!(
            doc.field("bench").unwrap().as_str().unwrap(),
            "batch_parallel"
        );
        let wl = doc.field("workloads").unwrap().as_array().unwrap();
        assert_eq!(wl.len(), 2);
        for w in wl {
            let batch = w.field("batch").unwrap();
            assert!(batch.field("results_identical").unwrap().as_bool().unwrap());
            assert!(batch.field("speedup").unwrap().as_f64().unwrap() > 0.0);
        }
        // round-trips through the hand-rolled parser
        let text = doc.to_string_pretty();
        assert_eq!(expfinder_graph::json::parse(&text).unwrap(), doc);
    }
}
