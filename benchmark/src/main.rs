//! Command line of the repo benchmark. `run.sh` builds `serve` and this
//! binary and passes everything through:
//!
//! ```text
//! expfinder-benchmark --serve-bin PATH [--out DIR] [--workload NAME] [--seed N]
//!                     [--seconds S] [--trace 0|1] [--smoke]
//! expfinder-benchmark calibrate --serve-bin PATH [--out DIR] [--runs N] [--sets N]
//!                     [--seconds S] [--markdown FILE]
//! ```
//!
//! Without `--workload` all four run, one after the other. The last
//! stdout line of every workload is the driver's JSON object; the exit
//! code is non-zero if any op failed or any answer was wrong.

use expfinder_benchmark::affinity::pin_to_one_cpu;
use expfinder_benchmark::calibrate::calibrate;
use expfinder_benchmark::metrics::json_line;
use expfinder_benchmark::suite::{run_e2e, run_traced, Context};
use expfinder_benchmark::workload::{spec, Profile, Spec, NOMINAL_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

/// Default `--seed` (ICDE 2013, Brisbane, April 8).
const DEFAULT_SEED: u64 = 20_130_408;

fn usage() -> ExitCode {
    eprintln!(
        "usage: expfinder-benchmark [calibrate] --serve-bin PATH [--out DIR] [--workload NAME] \
         [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--runs N] [--sets N] [--markdown FILE]\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let calibrating = args.next_if(|a| a == "calibrate").is_some();
    let mut serve_bin: Option<PathBuf> = None;
    let mut out_root = PathBuf::from("benchmark/out");
    let mut workloads: Vec<&'static Spec> = WORKLOADS.iter().collect();
    let mut seed = DEFAULT_SEED;
    let mut seconds = NOMINAL_SECONDS;
    let mut traced = false;
    let mut smoke = false;
    let mut runs = 10usize;
    let mut sets = 2usize;
    let mut markdown: Option<PathBuf> = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next();
        let parsed = match flag.as_str() {
            "--serve-bin" => value().map(|v| serve_bin = Some(v.into())),
            "--out" => value().map(|v| out_root = v.into()),
            "--workload" => value().and_then(|v| spec(&v)).map(|s| workloads = vec![s]),
            "--seed" => value().and_then(|v| v.parse().ok()).map(|v| seed = v),
            "--seconds" => value()
                .and_then(|v| v.parse().ok())
                .filter(|s| *s >= 1)
                .map(|v| seconds = v),
            "--trace" => value()
                .and_then(|v| match v.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                })
                .map(|v| traced = v),
            "--smoke" => {
                smoke = true;
                Some(())
            }
            "--runs" => value()
                .and_then(|v| v.parse().ok())
                .filter(|r| *r >= 2)
                .map(|v| runs = v),
            "--sets" => value()
                .and_then(|v| v.parse().ok())
                .filter(|s| *s >= 1)
                .map(|v| sets = v),
            "--markdown" => value().map(|v| markdown = Some(v.into())),
            _ => None,
        };
        if parsed.is_none() {
            eprintln!("bad argument {flag:?}");
            return usage();
        }
    }
    let Some(serve_bin) = serve_bin else {
        return usage();
    };
    // before any thread or child exists, so all of them inherit it
    match pin_to_one_cpu() {
        Ok(cpu) => println!("pinned to cpu {cpu}: serve and the harness share one CPU"),
        Err(e) => println!("NOT pinned ({e}): expect run-to-run differences of 15-30 %"),
    }
    let ctx = Context {
        serve_bin,
        out_root,
    };
    let profile = if smoke {
        Profile::Smoke
    } else {
        Profile::Full { seconds }
    };

    if calibrating {
        return match calibrate(&ctx, profile, runs, sets) {
            Ok(table) => {
                println!("\n{table}");
                if let Some(path) = markdown {
                    if let Err(e) = std::fs::write(&path, &table) {
                        eprintln!("cannot write {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("calibration aborted: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut all_correct = true;
    for spec in workloads {
        let run = if traced { run_traced } else { run_e2e };
        match run(&ctx, spec, profile, seed) {
            Ok(outcome) => {
                all_correct &= outcome.correct;
                println!(
                    "{}",
                    json_line(
                        outcome.correct,
                        outcome.attempted,
                        outcome.failed,
                        &outcome.metrics
                    )
                );
            }
            Err(e) => {
                // no result line: the run did not measure anything
                eprintln!("[{}] aborted: {e}", spec.name);
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
