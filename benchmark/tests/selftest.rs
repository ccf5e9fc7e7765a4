//! Self-tests of the benchmark: the op list is a function of the seed,
//! `BENCHMARK.json` and the command agree on every name, and what is
//! scraped from `/metrics` repeats exactly. The tests that need a
//! server use the smoke profile; `EXPFINDER_SERVE_BIN` names the `serve`
//! binary, otherwise it is built from the repo this package sits in.

use expfinder_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use expfinder_benchmark::suite::{run_e2e, run_traced, Context, Outcome};
use expfinder_benchmark::workload::{
    generate, spec, Profile, Schedule, LAPS, MIN_BATCHES, MIN_QUERIES, MIN_UPDATES,
    NOMINAL_SECONDS, WORKLOADS,
};
use expfinder_graph::json::{self, Value};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repo")
        .to_path_buf()
}

fn serve_bin() -> PathBuf {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        if let Some(bin) = std::env::var_os("EXPFINDER_SERVE_BIN") {
            return bin.into();
        }
        let root = repo_root();
        let target = root.join("target");
        let status = std::process::Command::new(env!("CARGO"))
            .args(["build", "--release", "--offline", "-p", "expfinder-server"])
            .args(["--bin", "serve", "--target-dir"])
            .arg(&target)
            .current_dir(&root)
            .status()
            .expect("run cargo");
        assert!(status.success(), "building serve failed");
        target.join("release/serve")
    })
    .clone()
}

fn context(test: &str) -> Context {
    Context {
        serve_bin: serve_bin(),
        out_root: Path::new(env!("CARGO_TARGET_TMPDIR")).join(test),
    }
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn same_seed_same_op_list() {
    for w in &WORKLOADS {
        let a = generate(w, Profile::Smoke, 7);
        let b = generate(w, Profile::Smoke, 7);
        let c = generate(w, Profile::Smoke, 8);
        assert_eq!(a.hash, b.hash, "{}: same seed, same hash", w.name);
        assert_ne!(a.hash, c.hash, "{}: another seed, another hash", w.name);
        // laps of identical structure
        let kinds: Vec<Vec<_>> = a
            .laps()
            .map(|lap| lap.iter().map(|op| op.kind).collect())
            .collect();
        assert_eq!(kinds.len(), LAPS);
        assert!(kinds.iter().all(|k| *k == kinds[0]));
    }
}

#[test]
fn full_profile_meets_the_floors() {
    for w in &WORKLOADS {
        for seconds in [1, NOMINAL_SECONDS, 60] {
            let (q, b, u) = Profile::Full { seconds }.schedule(w).counts();
            assert!(
                q * LAPS >= MIN_QUERIES,
                "{} @{seconds}s: {q} queries/lap",
                w.name
            );
            assert!(
                b * LAPS >= MIN_BATCHES,
                "{} @{seconds}s: {b} batches/lap",
                w.name
            );
            assert!(
                u * LAPS >= MIN_UPDATES,
                "{} @{seconds}s: {u} updates/lap",
                w.name
            );
        }
        // at the nominal length the schedule is the one written down
        assert_eq!(
            Profile::Full {
                seconds: NOMINAL_SECONDS
            }
            .schedule(w),
            w.schedule
        );
        if let Schedule::Bursts { reads, .. } = w.schedule {
            assert!(reads >= 100, "{}: long read stretches", w.name);
        }
    }
}

fn check_catalogue(listed: &[Value], catalogue: &[MetricDef], bounded: bool) {
    let names: Vec<&str> = listed
        .iter()
        .map(|m| m.field("name").unwrap().as_str().unwrap())
        .collect();
    let ours: Vec<&str> = catalogue.iter().map(|m| m.name).collect();
    assert_eq!(
        names, ours,
        "BENCHMARK.json and the catalogue list the same metrics"
    );
    for (m, def) in listed.iter().zip(catalogue) {
        assert!(well_formed(def.name), "{}", def.name);
        assert_eq!(
            m.field("unit").unwrap().as_str().unwrap(),
            def.unit,
            "{}",
            def.name
        );
        assert_eq!(
            m.field("better").unwrap().as_str().unwrap(),
            def.better.as_str(),
            "{}",
            def.name
        );
        let keys = m.as_object().unwrap().len();
        if bounded {
            assert_eq!(keys, 4);
            let bound = m.field("bound").unwrap().as_f64().unwrap();
            assert!((bound - def.bound).abs() < 1e-12, "{}: bound", def.name);
            assert!(bound > 0.0 && bound <= 0.25);
        } else {
            assert_eq!(keys, 3);
        }
    }
}

#[test]
fn benchmark_json_matches_the_command() {
    let doc = benchmark_json();
    let keys: Vec<&String> = doc.as_object().unwrap().keys().collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(
        doc.field("run_seconds").unwrap().as_i64().unwrap(),
        NOMINAL_SECONDS as i64
    );
    let paths = doc.field("paths").unwrap().as_array().unwrap();
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str().unwrap(), "benchmark");
    let command: Vec<&str> = doc
        .field("command")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|c| c.as_str().unwrap())
        .collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);

    let workloads = doc.field("workloads").unwrap().as_array().unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (listed, ours) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(listed.field("name").unwrap().as_str().unwrap(), ours.name);
        assert!(well_formed(ours.name));
        let why = listed.field("why").unwrap().as_str().unwrap();
        assert_eq!(
            why, ours.why,
            "{}: one why, written once per file",
            ours.name
        );
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        assert_eq!(listed.as_object().unwrap().len(), 2);
        assert!(spec(ours.name).is_some());
    }
    check_catalogue(
        doc.field("end_to_end").unwrap().as_array().unwrap(),
        &END_TO_END,
        true,
    );
    check_catalogue(
        doc.field("per_layer").unwrap().as_array().unwrap(),
        &PER_LAYER,
        false,
    );
}

fn emitted(outcome: &Outcome) -> Vec<&'static str> {
    outcome.metrics.iter().map(|m| m.name).collect()
}

#[test]
fn smoke_emits_every_metric_and_repeats_its_counts() {
    let ctx = context("smoke");
    for w in &WORKLOADS {
        let e2e = run_e2e(&ctx, w, Profile::Smoke, 11).expect("end-to-end smoke run");
        assert!(e2e.correct, "{}: {:?}", w.name, e2e.messages);
        assert_eq!(e2e.failed, 0);
        assert!(e2e.attempted >= 1);
        assert_eq!(emitted(&e2e), END_TO_END.map(|m| m.name));
        assert!(
            e2e.metrics.iter().all(|m| m.value > 0.0),
            "{}: end-to-end metrics are never 0: {:?}",
            w.name,
            e2e.metrics
        );

        let first = run_traced(&ctx, w, Profile::Smoke, 11).expect("traced smoke run");
        let second = run_traced(&ctx, w, Profile::Smoke, 11).expect("traced smoke run");
        assert!(
            first.correct && second.correct,
            "{}: {:?}",
            w.name,
            first.messages
        );
        assert_eq!(emitted(&first), PER_LAYER.map(|m| m.name));
        assert_eq!(first.op_list_hash, second.op_list_hash);
        assert_eq!(first.op_list_hash, e2e.op_list_hash);
        assert!(!first.exact_counts.is_empty());
        assert_eq!(
            first.exact_counts, second.exact_counts,
            "{}: counts scraped from /metrics repeat exactly",
            w.name
        );
        let trace = ctx
            .out_root
            .join(format!("{}-s11-t1/trace-{}.json", w.name, w.name));
        let doc = json::parse(&std::fs::read_to_string(&trace).expect("trace file"))
            .expect("the trace file is JSON");
        assert!(!doc.field("spans").unwrap().as_array().unwrap().is_empty());
        // the run dir keeps the log and the trace, never the data dir
        assert!(trace.with_file_name("serve.log").exists());
        assert!(!trace.with_file_name("data").exists());
        assert!(!trace.with_file_name("scratch").exists());
    }
}
