//! The metric catalogue — the single list `BENCHMARK.json` is checked
//! against by the self-tests — and the output format: a table for
//! people, then one JSON line for the driver.

/// Which direction is an improvement.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue.
#[derive(Copy, Clone, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression — the
    /// larger of the issue's floor and 3× the inter-quartile spread
    /// observed in `CALIBRATION.md`, capped at the contract's 0.25. On
    /// the reference host every timing hits the cap.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a client of `serve` sees. Every value is the median of the
/// per-lap values (`setup_s`: of the set-ups; `peak_rss_mb`: one
/// reading at the end of the list), and every timing is host-adjusted:
/// divided (a rate: multiplied) by the host speed index read beside it
/// (`host::SpeedIndex`).
pub const END_TO_END: [MetricDef; 8] = [
    // spawn serve → graph uploaded → 8 queries registered → subscriber
    // attached → warm-up answered
    e2e("setup_s", "s", Lower, 0.25),
    // measured ops of all kinds ÷ wall of the lap
    e2e("ops_per_s", "1/s", Higher, 0.25),
    // POST /query, top_k 10, send → full response
    e2e("query_p50_ms", "ms", Lower, 0.25),
    e2e("query_p95_ms", "ms", Lower, 0.25),
    // queries answered through POST /batch (16 per request) ÷ Σ batch latency
    e2e("batch_qps", "1/s", Higher, 0.25),
    // POST /updates, 4 edge updates per request
    e2e("update_p50_ms", "ms", Lower, 0.25),
    // update sent → the subscriber holds its ΔM frame
    e2e("push_p50_ms", "ms", Lower, 0.25),
    // VmHWM of the serve process at the end of the list
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
];

/// Single layers, none gated. Three sources, all outside the program:
/// scraped (`GET /metrics` and response `timings` around one lap over
/// TCP), spans (self time around the handler's public calls in an
/// in-process replay of the same lap), and direct calls into the lower
/// crates on the same graph version and patterns.
pub const PER_LAYER: [MetricDef; 70] = [
    // -- scraped
    layer("engine.cache.hit_ratio", "ratio", Higher),
    layer("engine.route_share.cache", "ratio", Higher),
    layer("engine.route_share.registered", "ratio", Higher),
    layer("engine.route_share.live", "ratio", Lower),
    layer("engine.route_share.snapshot", "ratio", Higher),
    layer("engine.route_share.snapshot_parallel", "ratio", Higher),
    layer("engine.route_share.compressed", "ratio", Higher),
    layer("engine.evaluate_us_p50", "us", Lower),
    layer("engine.rank_us_p50", "us", Lower),
    layer("core.refreshes_per_query", "count", Lower),
    layer("core.bfs_nodes_per_query", "count", Lower),
    layer("graph.reach_index.hit_ratio", "ratio", Higher),
    layer("graph.reach_index.bytes", "B", Lower),
    layer("runtime.wal.bytes_per_update", "B", Lower),
    layer("runtime.wal.fsyncs_per_append", "count", Lower),
    layer("runtime.wal.replayed_frames", "count", Lower),
    // demoted from end-to-end: under 0.5 s, and absent on in-memory workloads
    layer("runtime.recovery_ms", "ms", Lower),
    layer("server.query_service_us_mean", "us", Lower),
    layer("server.update_service_us_mean", "us", Lower),
    layer("server.wire_overhead_us", "us", Lower),
    layer("server.subscribe.frames_pushed", "count", Higher),
    layer("server.subscribe.push_lag_us", "us", Lower),
    layer("server.healthz_rtt_us", "us", Lower),
    // -- spans (median self time)
    layer("server.http.read_request_us", "us", Lower),
    layer("server.http.write_response_us", "us", Lower),
    layer("server.wire.decode_query_us", "us", Lower),
    layer("server.wire.encode_response_us", "us", Lower),
    layer("pattern.parse_us", "us", Lower),
    layer("graph.json.parse_us", "us", Lower),
    layer("graph.json.encode_us", "us", Lower),
    layer("engine.query_miss_ms", "ms", Lower),
    layer("engine.query_hit_us", "us", Lower),
    layer("engine.registered_hit_us", "us", Lower),
    layer("engine.estimate_cost_us", "us", Lower),
    layer("engine.apply_updates_us", "us", Lower),
    layer("engine.batch_ms", "ms", Lower),
    layer("runtime.query_miss_ms", "ms", Lower),
    layer("runtime.registered_hit_us", "us", Lower),
    layer("runtime.apply_updates_us", "us", Lower),
    layer("runtime.batch_ms", "ms", Lower),
    layer("runtime.open_ms", "ms", Lower),
    // -- direct calls (median)
    layer("graph.csr_build_ms", "ms", Lower),
    layer("graph.efg_load_ms", "ms", Lower),
    layer("graph.efg_save_ms", "ms", Lower),
    layer("graph.apply_update_us", "us", Lower),
    // DiGraph::clone — what the durable runtime pays to publish a snapshot
    layer("graph.clone_us", "us", Lower),
    layer("core.bsim_live_ms", "ms", Lower),
    layer("core.bsim_csr_cold_ms", "ms", Lower),
    layer("core.bsim_csr_warm_ms", "ms", Lower),
    layer("core.parallel_bsim_ms", "ms", Lower),
    layer("core.result_graph_ms", "ms", Lower),
    layer("core.rank_ms", "ms", Lower),
    layer("core.match_pairs", "count", Lower),
    layer("incremental.repair_us", "us", Lower),
    layer("incremental.affected_nodes", "count", Lower),
    layer("runtime.wal.append_fsync_us", "us", Lower),
    layer("runtime.wal.append_nosync_us", "us", Lower),
    layer("runtime.wal.replay_ms", "ms", Lower),
    layer("compress.build_ms", "ms", Lower),
    layer("compress.ratio", "ratio", Lower),
    layer("compress.query_ms", "ms", Lower),
    layer("compress.maintain_us", "us", Lower),
    // -- the trace itself, and the host it ran on
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_pct", "%", Lower),
    layer("host.canary_ms", "ms", Lower),
    layer("host.mem_canary_ms", "ms", Lower),
    layer("host.speed_index", "ratio", Lower),
    layer("host.nproc", "count", Higher),
    layer("host.available_parallelism", "count", Higher),
    layer("host.load_avg_1m", "count", Lower),
];

/// One measured value, ready to print.
#[derive(Clone, Debug)]
pub struct Reported {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

/// Collects the values of one run against a catalogue, so a metric the
/// catalogue names cannot be forgotten and one it does not name cannot
/// be emitted.
pub struct Report {
    catalogue: &'static [MetricDef],
    values: Vec<Option<(f64, usize)>>,
}

impl Report {
    pub fn new(catalogue: &'static [MetricDef]) -> Report {
        Report {
            catalogue,
            values: vec![None; catalogue.len()],
        }
    }

    /// Record `name`; panics on a name outside the catalogue (a bug in
    /// the harness, not a measurement failure).
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        let at = self
            .catalogue
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"));
        self.values[at] = Some((if value.is_finite() { value } else { 0.0 }, n));
    }

    /// Every catalogue metric in catalogue order; one never set reads 0
    /// with no samples (a layer the workload does not exercise).
    pub fn finish(&self) -> Vec<Reported> {
        self.catalogue
            .iter()
            .zip(&self.values)
            .map(|(m, v)| {
                let (value, n) = v.unwrap_or((0.0, 0));
                Reported {
                    name: m.name,
                    value,
                    unit: m.unit,
                    n,
                }
            })
            .collect()
    }
}

/// The table for people: one line per metric, name, value, unit, samples.
pub fn print_table(workload: &str, metrics: &[Reported]) {
    for m in metrics {
        println!(
            "[{workload}] {:<38} {:>14.4} {:<6} (n = {})",
            m.name, m.value, m.unit, m.n
        );
    }
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Reported]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite float with all its digits, always with a decimal point or
/// exponent so it reads as a number, never as an integer that happens
/// to repeat.
fn json_number(v: f64) -> String {
    let v = if v.is_finite() { v } else { 0.0 };
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn report_covers_the_catalogue() {
        let mut r = Report::new(&END_TO_END);
        r.set("setup_s", 1.5, 3);
        r.set("query_p50_ms", f64::NAN, 1);
        let out = r.finish();
        assert_eq!(out.len(), END_TO_END.len());
        assert_eq!(out[0].value, 1.5);
        assert_eq!(out[2].value, 0.0);
        let line = json_line(true, 10, 0, &out);
        let doc = expfinder_graph::json::parse(&line).expect("the driver line is JSON");
        let keys: Vec<&String> = doc.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            doc.field("metrics").unwrap().as_object().unwrap().len(),
            END_TO_END.len()
        );
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_is_a_bug() {
        Report::new(&END_TO_END).set("nope", 1.0, 1);
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(1.2034), "1.2034");
        assert_eq!(json_number(f64::INFINITY), "0.0");
    }
}
