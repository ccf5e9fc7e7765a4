//! The deterministic CI gates: the match-counter document
//! ([`matchbench`], written to `BENCH_counters.json` and compared by
//! `scripts/bench_compare.py`) and the planner-decision snapshot
//! ([`planbench`], diffed against `PLANS.json`).
//!
//! Every workload is a deterministic function of a seed, so the counters
//! and decisions these documents hold are reproducible bit-for-bit.
//! Wall-clock measurement lives in the repo benchmark (`benchmark/`).

pub mod matchbench;
pub mod planbench;

use expfinder_graph::generate::{collaboration, twitter_like, CollabConfig, TwitterConfig};
use expfinder_graph::json::Value;
use expfinder_graph::DiGraph;
use expfinder_pattern::{Bound, Pattern, PatternBuilder, Predicate};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Default seed for all workloads.
pub const SEED: u64 = 20130408; // ICDE 2013, Brisbane, April 8

/// A collaboration network with roughly `people` nodes.
pub fn collab_graph(people: usize, seed: u64) -> DiGraph {
    let team_size = 8;
    let cfg = CollabConfig {
        teams: (people / team_size).max(1),
        team_size,
        ..CollabConfig::default()
    };
    collaboration(&mut StdRng::seed_from_u64(seed), &cfg)
}

/// A Twitter-like follower graph with `n` accounts.
pub fn twitter_graph(n: usize, seed: u64) -> DiGraph {
    let cfg = TwitterConfig {
        n,
        avg_out: 4,
        hub_fraction: 0.005,
        buckets: 4,
    };
    twitter_like(&mut StdRng::seed_from_u64(seed), &cfg)
}

/// A 4-node bounded pattern tuned for the collaboration generator: leads
/// within reach of developers, testers and QA.
pub fn collab_pattern() -> Pattern {
    PatternBuilder::new()
        .node_output(
            "sa",
            Predicate::label("SA").and(Predicate::attr_ge("experience", 3)),
        )
        .node("sd", Predicate::label("SD"))
        .node("st", Predicate::label("ST"))
        .node("qa", Predicate::label("QA"))
        .edge("sa", "sd", Bound::hops(2))
        .edge("sa", "st", Bound::hops(3))
        .edge("sd", "qa", Bound::hops(2))
        .build()
        .expect("valid")
}

/// Build a JSON object from `(key, value)` pairs — the one helper every
/// document writer in this crate shares.
pub fn json_obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect::<std::collections::BTreeMap<_, _>>(),
    )
}

/// Write a document (pretty-printed, newline-terminated), creating its
/// parent directory if needed.
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

/// Wall-clock one call.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Format a duration in adaptive units for table output.
pub fn fmt_dur(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_core::bounded_simulation;
    use expfinder_graph::GraphView;

    #[test]
    fn workloads_are_deterministic() {
        let a = collab_graph(400, 1);
        let b = collab_graph(400, 1);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn patterns_match_on_their_generators() {
        let g = collab_graph(800, SEED);
        let m = bounded_simulation(&g, &collab_pattern()).unwrap();
        assert!(!m.is_empty(), "collab pattern finds teams");
    }

    #[test]
    fn fmt_dur_units() {
        assert_eq!(fmt_dur(Duration::from_micros(12)), "12µs");
        assert_eq!(fmt_dur(Duration::from_micros(2500)), "2.50ms");
        assert_eq!(fmt_dur(Duration::from_millis(3200)), "3.20s");
    }
}
