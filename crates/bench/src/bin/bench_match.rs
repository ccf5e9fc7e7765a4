//! The deterministic-gate binary: writes the counters document or the
//! planner-decision snapshot.
//!
//! Usage:
//!   cargo run --release -p expfinder-bench --bin bench_match
//!   cargo run --release -p expfinder-bench --bin bench_match -- \
//!       --out target/ci/BENCH_counters_fresh.json --max-cancel-overhead 0.02
//!   cargo run --release -p expfinder-bench --bin bench_match -- \
//!       --plan-out plans.json
//!
//! By default it writes [`expfinder_bench::matchbench::run_counters_bench`]
//! to `--out` (default `BENCH_counters.json`, the checked-in baseline);
//! CI compares a fresh copy against that baseline with
//! `scripts/bench_compare.py` (`just bench-compare`). With
//! `--max-cancel-overhead F` it exits non-zero when carrying a *disarmed*
//! `CancelToken` through any `match_frontier` workload costs more than
//! fraction `F` over the token-free path (0.02 holds the cancellation
//! plumbing to within 2%) — a wall-clock bar, advisory in CI.
//!
//! `--plan-out FILE` is an exclusive mode: it writes the deterministic
//! planner-decision snapshot of
//! [`expfinder_bench::planbench::run_plan_bench`] and exits — CI diffs
//! that output against the checked-in `PLANS.json` (`just plan-check`).

use expfinder_bench::matchbench::run_counters_bench;
use expfinder_bench::planbench::run_plan_bench;
use expfinder_bench::write_bench_json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "BENCH_counters.json".to_owned();
    let mut plan_out: Option<String> = None;
    let mut max_cancel_overhead: Option<f64> = None;

    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| {
                    eprintln!("missing value after {}", args[*i - 1]);
                    std::process::exit(2);
                })
                .clone()
        };
        match args[i].as_str() {
            "--out" => out = take(&mut i),
            "--plan-out" => plan_out = Some(take(&mut i)),
            "--max-cancel-overhead" => {
                max_cancel_overhead = Some(take(&mut i).parse().expect("bad --max-cancel-overhead"))
            }
            other => {
                eprintln!("unknown option {other:?}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(path) = plan_out {
        let doc = run_plan_bench();
        write_bench_json(&path, &doc).expect("writing plan snapshot");
        println!("planner-decision snapshot written to {path}");
        return;
    }

    let doc = run_counters_bench();
    write_bench_json(&out, &doc).expect("writing counters document");

    if let Some(max) = max_cancel_overhead {
        let workloads = doc.field("match_frontier").unwrap().as_array().unwrap();
        let mut ok = true;
        for w in workloads {
            let name = w.field("name").unwrap().as_str().unwrap();
            let ov = w.field("cancel_check_overhead").unwrap().as_f64().unwrap();
            if ov > max {
                eprintln!(
                    "GATE FAIL: {name} disarmed cancel-check overhead {:.2}% > allowed {:.2}%",
                    ov * 100.0,
                    max * 100.0
                );
                ok = false;
            }
        }
        if !ok {
            std::process::exit(1);
        }
        println!(
            "cancel gate passed: disarmed token overhead <= {:.2}% on every workload",
            max * 100.0
        );
    }
}
