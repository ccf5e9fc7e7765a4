//! One run of one workload: the end-to-end run (`--trace 0`) and the
//! traced run (`--trace 1`), which never overlap.

use crate::drive::{recover, run_lap, scrape, set_up, Lap, Session};
use crate::host::{self, Canary, SpeedIndex};
use crate::metrics::{Report, Reported, END_TO_END, PER_LAYER};
use crate::process::RunDir;
use crate::stats::{mean, median, percentile};
use crate::trace::{decompose, replay, time_open, write_trace, Recorder};
use crate::verify::{check_ops, parse_json, Mirror};
use crate::workload::{generate, Inputs, Op, OpKind, Profile, Spec, BATCH_SLOTS, LAPS};
use expfinder_graph::json::Value;
use expfinder_graph::GraphView as _;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per end-to-end run; `setup_s` is the median of their
/// host-adjusted times and the last one serves the measured list.
pub const SETUP_REPS: usize = 3;
/// Kill/respawn cycles behind `runtime.recovery_ms`.
const RECOVERY_REPS: usize = 3;
/// Laps of the measured list the traced run covers (each of its three
/// parts runs them once).
const TRACED_LAPS: usize = 4;
/// `GET /healthz` round trips behind `server.healthz_rtt_us`.
const HEALTHZ_REPS: usize = 200;

/// Where things are.
pub struct Context {
    /// The `serve` binary built from the commit under test.
    pub serve_bin: PathBuf,
    /// `benchmark/out`.
    pub out_root: PathBuf,
}

/// What one run produced.
pub struct Outcome {
    /// Zero failed ops, zero oracle mismatches, zero frame mismatches.
    pub correct: bool,
    /// Measured ops sent.
    pub attempted: usize,
    /// Ops without a 2xx answer, with a wrong answer, or (updates)
    /// never pushed.
    pub failed: usize,
    pub metrics: Vec<Reported>,
    pub op_list_hash: u64,
    /// Counters that must repeat exactly for the same seed (self-test).
    pub exact_counts: Vec<(&'static str, i64)>,
    /// First few failure messages.
    pub messages: Vec<String>,
}

fn run_name(spec: &Spec, seed: u64, traced: bool) -> String {
    format!("{}-s{seed}-t{}", spec.name, u8::from(traced))
}

fn describe(inputs: &Inputs) {
    let (q, b, u) = inputs.profile.schedule(inputs.spec).counts();
    println!(
        "[{}] {} backend · |V|={} |E|={} · per lap {q} query / {b} batch / {u} update ops × {} laps \
         (+{} warm-up) · seed {} · op-list hash {:016x} · traffic is synthetic",
        inputs.spec.name,
        if inputs.spec.durable { "durable" } else { "in-memory" },
        inputs.graph.node_count(),
        inputs.graph.edge_count(),
        LAPS,
        inputs.warmup.len(),
        inputs.seed,
        inputs.hash
    );
}

/// Tally of attempted / failed ops over laps plus their checks.
#[derive(Default)]
struct Tally {
    by_kind: [(usize, usize); 3],
    messages: Vec<String>,
}

impl Tally {
    fn add_lap(&mut self, ops: &[Op], lap: &Lap, mismatches: [usize; 3]) {
        for op in ops {
            self.by_kind[op.kind.index()].0 += 1;
        }
        for (tally, (failed, wrong)) in self
            .by_kind
            .iter_mut()
            .zip(lap.failed.iter().zip(mismatches))
        {
            tally.1 += failed + wrong;
        }
        // a pushed frame that differs from its response fails its update
        self.by_kind[OpKind::Update.index()].1 += lap.frame_mismatches;
        self.messages.extend(lap.messages.iter().cloned());
    }

    fn attempted(&self) -> usize {
        self.by_kind.iter().map(|k| k.0).sum()
    }

    fn failed(&self) -> usize {
        self.by_kind.iter().map(|k| k.1).sum()
    }

    fn print(&self, workload: &str) {
        for kind in OpKind::ALL {
            let (attempted, failed) = self.by_kind[kind.index()];
            println!(
                "[{workload}] ops {:<6} attempted {attempted:>6} · failed {failed}",
                kind.name()
            );
        }
        for m in self.messages.iter().take(8) {
            println!("[{workload}] FAILED: {m}");
        }
    }
}

/// The mirror where the measured list starts: with the warm-up's
/// updates applied (a read applies nothing).
fn mirror_after_warmup(inputs: &Inputs) -> Mirror<'_> {
    let mut mirror = Mirror::new(inputs);
    for op in &inputs.warmup {
        mirror.apply(op);
    }
    mirror
}

/// The end-to-end run: `SETUP_REPS` set-ups, the measured laps over
/// TCP with a reading of the host speed index between them, then — off
/// the clock — the oracle checks and, on a durable workload, SIGKILL +
/// recovery. Every timing is host-adjusted (see [`SpeedIndex`]): a
/// lap's times are divided by the mean of the index readings on either
/// side of it, its rates multiplied.
pub fn run_e2e(
    ctx: &Context,
    spec: &'static Spec,
    profile: Profile,
    seed: u64,
) -> Result<Outcome, String> {
    let canary = Canary::new();
    let canary_before = canary.read();
    host::print(spec.name, "before", canary_before);
    let inputs = generate(spec, profile, seed);
    describe(&inputs);
    let dir = RunDir::create(&ctx.out_root, &run_name(spec, seed, false))
        .map_err(|e| format!("create the run dir: {e}"))?;

    let mut speed = SpeedIndex::new().map_err(|e| format!("host speed index: {e}"))?;
    let mut read_speed = || speed.read().map_err(|e| format!("host speed index: {e}"));

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut raw_setups = Vec::with_capacity(SETUP_REPS);
    let mut session: Option<Session> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = session.take() {
            old.shut_down();
        }
        let before = read_speed()?;
        let (s, seconds) = set_up(&ctx.serve_bin, &dir, &inputs)?;
        setups.push(seconds / ((before + read_speed()?) / 2.0));
        raw_setups.push(seconds);
        session = Some(s);
    }
    let mut session = session.expect("at least one set-up");

    let mut readings = vec![read_speed()?];
    let mut laps: Vec<Lap> = Vec::with_capacity(LAPS);
    for ops in inputs.laps() {
        laps.push(run_lap(&mut session, ops, spec.verify_stride, false));
        readings.push(read_speed()?);
    }
    // one index per lap: the mean of the readings on either side of it
    let index: Vec<f64> = readings.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
    let peak_rss = session
        .serve
        .peak_rss_mb()
        .map_err(|e| format!("read VmHWM: {e}"))?;
    println!(
        "[{}] ops/s by lap: {}",
        spec.name,
        laps.iter()
            .map(|l| format!("{:.0}", l.kept.len() as f64 / l.wall_s))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "[{}] host speed index by lap: {}",
        spec.name,
        index
            .iter()
            .map(|i| format!("{i:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "[{}] measured list took {:.2} s",
        spec.name,
        laps.iter().map(|l| l.wall_s).sum::<f64>()
    );

    // -- off the clock from here on
    let mut mirror = mirror_after_warmup(&inputs);
    let mut tally = Tally::default();
    let mut answers = 0;
    for (ops, lap) in inputs.laps().zip(&laps) {
        let checked = check_ops(&mut mirror, ops, &lap.kept, spec.verify_stride);
        answers += checked.answers_checked;
        tally.add_lap(ops, lap, checked.mismatches);
        tally.messages.extend(checked.messages);
    }
    session.shut_down();
    if spec.durable {
        // every acknowledged batch must survive SIGKILL
        match recover(&ctx.serve_bin, &dir, &inputs, &mut mirror) {
            Ok(r) => {
                println!(
                    "[{}] recovered after SIGKILL in {:.3} s: graph version and all registered \
                     results equal the oracle",
                    spec.name, r.seconds
                );
                r.serve.kill();
            }
            Err(e) => {
                tally.by_kind[OpKind::Update.index()].1 += 1;
                tally.messages.push(e);
            }
        }
    }
    println!(
        "[{}] {answers} answers compared with the naive oracle ({} oracle evaluations)",
        spec.name, mirror.evaluated
    );

    let n_of = |kind: OpKind| laps.iter().map(|l| l.latency_ms[kind.index()].len()).sum();
    let q = OpKind::Query.index();
    let b = OpKind::Batch.index();
    let u = OpKind::Update.index();
    let mut report = Report::new(&END_TO_END);
    let mut unadjusted = vec![format!("setup_s {:.4}", median(&raw_setups))];
    report.set("setup_s", median(&setups), setups.len());
    // median over laps of the host-adjusted per-lap value: a time is
    // divided by the lap's index, a rate multiplied
    let mut set = |name: &str, rate: bool, n: usize, per_lap: &dyn Fn(&Lap) -> f64| {
        let raw: Vec<f64> = laps.iter().map(per_lap).collect();
        let adjusted: Vec<f64> = raw
            .iter()
            .zip(&index)
            .map(|(v, i)| if rate { v * i } else { v / i })
            .collect();
        report.set(name, median(&adjusted), n);
        unadjusted.push(format!("{name} {:.4}", median(&raw)));
    };
    set("ops_per_s", true, inputs.measured_ops(), &|l| {
        l.kept.len() as f64 / l.wall_s
    });
    set("query_p50_ms", false, n_of(OpKind::Query), &|l| {
        percentile(&l.latency_ms[q], 0.50)
    });
    set("query_p95_ms", false, n_of(OpKind::Query), &|l| {
        percentile(&l.latency_ms[q], 0.95)
    });
    set("batch_qps", true, n_of(OpKind::Batch), &|l| {
        (l.latency_ms[b].len() * BATCH_SLOTS) as f64 / (l.latency_ms[b].iter().sum::<f64>() / 1e3)
    });
    set("update_p50_ms", false, n_of(OpKind::Update), &|l| {
        percentile(&l.latency_ms[u], 0.50)
    });
    let pushes = laps.iter().map(|l| l.push_ms.len()).sum();
    set("push_p50_ms", false, pushes, &|l| {
        percentile(&l.push_ms, 0.50)
    });
    report.set("peak_rss_mb", peak_rss, 1);
    let metrics = report.finish();

    crate::metrics::print_table(spec.name, &metrics);
    println!(
        "[{}] the timings above are host-adjusted (median host speed index {:.3}); unadjusted: {}",
        spec.name,
        median(&index),
        unadjusted.join(" · ")
    );
    tally.print(spec.name);
    host::print(spec.name, "after", canary.read());
    Ok(Outcome {
        correct: tally.failed() == 0,
        attempted: tally.attempted(),
        failed: tally.failed(),
        metrics,
        op_list_hash: inputs.hash,
        exact_counts: Vec::new(),
        messages: tally.messages,
    })
}

fn int_at(doc: &Value, path: &[&str]) -> i64 {
    path.iter()
        .try_fold(doc, |v, k| v.field(k))
        .and_then(Value::as_i64)
        .unwrap_or(0)
}

fn float_at(doc: &Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |v, k| v.field(k))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Version of the one served graph in a `/metrics` document.
fn served_version(metrics: &Value) -> i64 {
    metrics
        .field("graphs")
        .and_then(Value::as_array)
        .ok()
        .and_then(|g| g.first())
        .map_or(0, |g| int_at(g, &["version"]))
}

fn ratio(num: i64, den: i64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `timings` of every single answer in a lap's kept bodies: the route
/// the planner chose, and evaluate/rank time of single queries.
struct Timings {
    chosen: Vec<String>,
    evaluate_us: Vec<f64>,
    rank_us: Vec<f64>,
}

fn read_timings(ops: &[Op], lap: &Lap) -> Timings {
    let mut t = Timings {
        chosen: Vec::new(),
        evaluate_us: Vec::new(),
        rank_us: Vec::new(),
    };
    let note = |answer: &Value, single: bool, t: &mut Timings| {
        if let Ok(timings) = answer.field("timings") {
            if let Ok(c) = timings
                .field("plan")
                .and_then(|p| p.field("chosen"))
                .and_then(Value::as_str)
            {
                t.chosen.push(c.to_owned());
            }
            if single {
                t.evaluate_us
                    .push(float_at(timings, &["evaluate_ms"]) * 1e3);
                t.rank_us.push(float_at(timings, &["rank_ms"]) * 1e3);
            }
        }
    };
    for (op, kept) in ops.iter().zip(&lap.kept) {
        let Some(doc) = kept.body.as_deref().and_then(|b| parse_json(b).ok()) else {
            continue;
        };
        match op.kind {
            OpKind::Query => note(&doc, true, &mut t),
            OpKind::Batch => {
                for slot in doc
                    .field("results")
                    .and_then(Value::as_array)
                    .unwrap_or_default()
                {
                    if let Ok(answer) = slot.field("ok") {
                        note(answer, false, &mut t);
                    }
                }
            }
            OpKind::Update => {}
        }
    }
    t
}

/// The traced run. Three parts, one after the other: one lap over TCP
/// with `/metrics` scraped before and after (counts and server-side
/// times), the same lap replayed in-process with spans on and off, and
/// direct calls into the lower crates. Writes
/// `out/<run>/trace-<workload>.json`.
pub fn run_traced(
    ctx: &Context,
    spec: &'static Spec,
    profile: Profile,
    seed: u64,
) -> Result<Outcome, String> {
    let canary = Canary::new();
    let canary_before = canary.read();
    host::print(spec.name, "before", canary_before);
    let mut speed = SpeedIndex::new().map_err(|e| format!("host speed index: {e}"))?;
    let mut read_speed = || speed.read().map_err(|e| format!("host speed index: {e}"));
    let speed_before = read_speed()?;
    let inputs = generate(spec, profile, seed);
    describe(&inputs);
    let dir = RunDir::create(&ctx.out_root, &run_name(spec, seed, true))
        .map_err(|e| format!("create the run dir: {e}"))?;
    let ops = &inputs.measured[..inputs.lap_len * TRACED_LAPS.min(LAPS)];
    let mut report = Report::new(&PER_LAYER);

    // -- (a) one lap over TCP between two scrapes
    let (mut session, _) = set_up(&ctx.serve_bin, &dir, &inputs)?;
    let before = scrape(&mut session.conn)?;
    let lap = run_lap(&mut session, ops, spec.verify_stride, true);
    let after = scrape(&mut session.conn)?;
    let mut healthz = Vec::with_capacity(HEALTHZ_REPS);
    for _ in 0..HEALTHZ_REPS {
        let t = Instant::now();
        session
            .conn
            .get("/healthz")
            .map_err(|e| format!("GET /healthz: {e}"))?;
        healthz.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut mirror = mirror_after_warmup(&inputs);
    let checked = check_ops(&mut mirror, ops, &lap.kept, spec.verify_stride);
    let mut tally = Tally::default();
    tally.add_lap(ops, &lap, checked.mismatches);
    tally.messages.extend(checked.messages);
    session.shut_down();

    let delta = |path: &[&str]| int_at(&after, path) - int_at(&before, path);
    let hits = delta(&["engine", "cache", "hits"]);
    let misses = delta(&["engine", "cache", "misses"]);
    report.set(
        "engine.cache.hit_ratio",
        ratio(hits, hits + misses),
        (hits + misses) as usize,
    );
    let timings = read_timings(ops, &lap);
    for route in [
        "cache",
        "registered",
        "live",
        "snapshot",
        "snapshot_parallel",
        "compressed",
    ] {
        let taken = timings.chosen.iter().filter(|c| *c == route).count();
        report.set(
            &format!("engine.route_share.{route}"),
            ratio(taken as i64, timings.chosen.len() as i64),
            timings.chosen.len(),
        );
    }
    report.set(
        "engine.evaluate_us_p50",
        percentile(&timings.evaluate_us, 0.5),
        timings.evaluate_us.len(),
    );
    report.set(
        "engine.rank_us_p50",
        percentile(&timings.rank_us, 0.5),
        timings.rank_us.len(),
    );
    let decisions = delta(&["engine", "planner", "decisions"]);
    report.set(
        "core.refreshes_per_query",
        ratio(delta(&["engine", "eval", "refreshes"]), decisions),
        decisions as usize,
    );
    report.set(
        "core.bfs_nodes_per_query",
        ratio(delta(&["engine", "eval", "bfs_nodes_visited"]), decisions),
        decisions as usize,
    );
    let (ih, im) = (
        delta(&["engine", "index", "hits"]),
        delta(&["engine", "index", "misses"]),
    );
    report.set(
        "graph.reach_index.hit_ratio",
        ratio(ih, ih + im),
        (ih + im) as usize,
    );
    report.set(
        "graph.reach_index.bytes",
        int_at(&after, &["engine", "index", "bytes"]) as f64,
        1,
    );
    let appends = delta(&["engine", "wal", "appends"]);
    report.set(
        "runtime.wal.bytes_per_update",
        ratio(delta(&["engine", "wal", "bytes"]), appends),
        appends as usize,
    );
    report.set(
        "runtime.wal.fsyncs_per_append",
        ratio(delta(&["engine", "wal", "fsyncs"]), appends),
        appends as usize,
    );
    let served = |route: &str| {
        let count = delta(&["requests", route, "count"]);
        (
            ratio(delta(&["requests", route, "latency_us", "sum"]), count),
            count as usize,
        )
    };
    let (query_service, query_count) = served("query");
    report.set("server.query_service_us_mean", query_service, query_count);
    let (update_service, update_count) = served("updates");
    report.set(
        "server.update_service_us_mean",
        update_service,
        update_count,
    );
    let q = OpKind::Query.index();
    let u = OpKind::Update.index();
    // mean against mean, so the difference is exactly the time a query
    // spends outside its handler: socket, framing, scheduling
    report.set(
        "server.wire_overhead_us",
        mean(&lap.latency_ms[q]) * 1e3 - query_service,
        lap.latency_ms[q].len(),
    );
    let pushed = delta(&["subscriptions", "frames_pushed"]);
    report.set("server.subscribe.frames_pushed", pushed as f64, 1);
    // how much later than its own response an update's frame arrives
    // (negative: the frame, enqueued inside the commit, wins the race)
    let lag: Vec<f64> = lap
        .push_ms
        .iter()
        .zip(&lap.latency_ms[u])
        .map(|(push, ack)| (push - ack) * 1e3)
        .collect();
    report.set("server.subscribe.push_lag_us", median(&lag), lag.len());
    report.set(
        "server.healthz_rtt_us",
        percentile(&healthz, 0.5),
        healthz.len(),
    );

    let mut exact_counts = vec![
        ("engine.planner.decisions", decisions),
        ("engine.wal.appends", appends),
        ("subscriptions.frames_pushed", pushed),
        ("requests.query.count", query_count as i64),
        (
            "requests.batch.count",
            delta(&["requests", "batch", "count"]),
        ),
        ("requests.updates.count", update_count as i64),
        ("graphs[0].version", served_version(&after)),
    ];

    if spec.durable {
        let mut recoveries = Vec::with_capacity(RECOVERY_REPS);
        let mut replayed = 0;
        for _ in 0..RECOVERY_REPS {
            match recover(&ctx.serve_bin, &dir, &inputs, &mut mirror) {
                Ok(mut r) => {
                    recoveries.push(r.seconds * 1e3);
                    replayed = int_at(&scrape(&mut r.conn)?, &["engine", "wal", "replayed_frames"]);
                    r.serve.kill();
                }
                Err(e) => {
                    tally.by_kind[u].1 += 1;
                    tally.messages.push(e);
                }
            }
        }
        report.set("runtime.recovery_ms", median(&recoveries), recoveries.len());
        report.set("runtime.wal.replayed_frames", replayed as f64, 1);
        exact_counts.push(("engine.wal.replayed_frames", replayed));
    }

    // -- (b) the same lap in-process: spans off (baseline), then on
    let scratch = dir.scratch();
    let data = |name: &str| spec.durable.then(|| scratch.join(name));
    let plain_s = replay(
        &inputs,
        ops,
        data("plain").as_deref(),
        &mut Recorder::new(false),
    )?;
    let mut rec = Recorder::new(true);
    let traced_dir = data("traced");
    let traced_s = replay(&inputs, ops, traced_dir.as_deref(), &mut rec)?;
    for (span, own) in rec.self_by_name() {
        for suffix in ["_us", "_ms"] {
            let metric = format!("{span}{suffix}");
            if PER_LAYER.iter().any(|m| m.name == metric) {
                let scale = if suffix == "_ms" { 1e-3 } else { 1.0 };
                report.set(&metric, median(&own) * scale, own.len());
            }
        }
    }
    report.set("trace.coverage", rec.coverage(), ops.len());
    report.set(
        "trace.overhead_pct",
        (traced_s - plain_s) / plain_s * 100.0,
        2,
    );
    if let Some(dir) = &traced_dir {
        let opens = time_open(dir, 3)?;
        report.set("runtime.open_ms", median(&opens), opens.len());
    }

    // -- (c) the evaluator taken apart by direct calls
    let samples = decompose(&inputs, mirror.graph(), ops, &scratch.join("direct"));
    for (name, xs) in &samples {
        let value = if *name == "core.match_pairs" {
            mean(xs)
        } else {
            median(xs)
        };
        report.set(name, value, xs.len());
    }

    let canary_after = canary.read();
    report.set(
        "host.canary_ms",
        (canary_before.cpu_ms + canary_after.cpu_ms) / 2.0,
        2,
    );
    report.set(
        "host.mem_canary_ms",
        (canary_before.mem_ms + canary_after.mem_ms) / 2.0,
        2,
    );
    // per-layer timings are reported as measured, not host-adjusted
    report.set("host.speed_index", (speed_before + read_speed()?) / 2.0, 2);
    let (nproc, parallelism, load) = host::facts();
    report.set("host.nproc", nproc as f64, 1);
    report.set("host.available_parallelism", parallelism as f64, 1);
    report.set("host.load_avg_1m", load, 1);

    let trace_path = dir.path().join(format!("trace-{}.json", spec.name));
    write_trace(&trace_path, &inputs, &rec, &samples)
        .map_err(|e| format!("write the trace: {e}"))?;
    println!(
        "[{}] {} spans written to {}",
        spec.name,
        rec.spans.len(),
        trace_path.display()
    );

    let metrics = report.finish();
    crate::metrics::print_table(spec.name, &metrics);
    tally.print(spec.name);
    host::print(spec.name, "after", canary_after);
    Ok(Outcome {
        correct: tally.failed() == 0,
        attempted: tally.attempted(),
        failed: tally.failed(),
        metrics,
        op_list_hash: inputs.hash,
        exact_counts,
        messages: tally.messages,
    })
}
