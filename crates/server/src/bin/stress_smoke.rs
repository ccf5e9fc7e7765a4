//! `stress_smoke` — deadline/admission stress harness behind the
//! `stress-smoke` CI job (and `just stress-smoke`).
//!
//! Boots the real `serve` binary, uploads a deliberately nasty graph (a
//! dense circulant with long cycles, so `within *` patterns do real
//! reachability work), then fires pathological worst-case queries under
//! tight deadlines **mixed with normal traffic** from concurrent
//! clients. The contract under stress:
//!
//! * every response is 200, 408 or 429 — never a hang, a 5xx or a
//!   worker panic;
//! * an already-expired budget (`deadline_ms: 0`) always answers 408,
//!   with partial stats in the error body, within a bounded time;
//! * un-deadlined traffic on the other workers keeps answering 200
//!   throughout;
//! * the `/metrics` cancellation and deadline keys are live and moved;
//! * the server still drains gracefully afterwards.
//!
//! A second boot with an admission ceiling asserts the 429 path:
//! everything estimated over budget is refused up front with
//! `Retry-After`, while `/healthz` and `/metrics` stay reachable.
//!
//! ```text
//! stress_smoke [--server-bin path/to/serve] [--log stress-smoke.log]
//! ```

mod common;

use common::{fig1_dsl, i64_at, options, server_bin, Harness};
use expfinder_graph::json::Value;
use expfinder_graph::{AttrValue, DiGraph, NodeId};
use expfinder_server::client::{query_body, query_body_deadline, Client};
use std::net::SocketAddr;
use std::process::Child;
use std::time::{Duration, Instant};

/// Worst case on the circulant graph: every bound unbounded plus a
/// cycle back to the output node, so each refinement round re-runs
/// reachability over the whole strongly connected component.
const NASTY_DSL: &str = "node sa* where label = \"SA\"; \
    node sd where label = \"SD\"; \
    node ba where label = \"BA\"; \
    node st where label = \"ST\"; \
    edge sa -> sd within *; edge sa -> ba within *; \
    edge sd -> st within *; edge ba -> st within *; \
    edge st -> sa within *;";

/// One strongly connected "collaboration" mess: labels cycle through
/// the four roles, and the circulant edges (+1, +7, +13) give every
/// node long unbounded-reachability neighborhoods. Deterministic — no
/// rng needed for a worst case.
fn nasty_graph(n: u32) -> DiGraph {
    let labels = ["SA", "SD", "BA", "ST"];
    let mut g = DiGraph::new();
    for i in 0..n {
        g.add_node(
            labels[(i % 4) as usize],
            [("experience", AttrValue::Int(9))],
        );
    }
    for i in 0..n {
        for step in [1, 7, 13, 29, 57] {
            g.add_edge(NodeId(i), NodeId((i + step) % n));
        }
    }
    g
}

fn boot(server_bin: &str, extra: &[&str]) -> (Child, SocketAddr) {
    let (child, addr) = common::boot(server_bin, &[&["--allow-shutdown"], extra].concat());
    println!("server up on {addr}");
    (child, addr)
}

/// What one stressed request observed.
struct Observation {
    status: u16,
    elapsed: Duration,
    partial_ok: bool,
}

fn main() {
    let [server_bin_flag, log_flag] = options(["--server-bin", "--log"]);
    let server_bin = server_bin(server_bin_flag);
    let log_path = log_flag.unwrap_or_else(|| "stress-smoke.log".to_owned());
    let fig1 = fig1_dsl();
    let fig1 = fig1.as_str();

    // ---- phase 1: tight deadlines under concurrent normal traffic ----
    println!("booting {server_bin} with deadline knobs (log: {log_path})");
    let (child, addr) = boot(
        &server_bin,
        &[
            "--workers",
            "4",
            "--max-deadline-ms",
            "5000",
            "--log",
            &log_path,
        ],
    );
    let mut h = Harness::new("stress smoke", None);
    h.child = Some(child);
    let mut client = Client::new(addr);
    client.set_timeout(Duration::from_secs(30));

    let big = nasty_graph(20000);
    let added = client.add_graph("big", &big);
    h.require("upload the worst-case graph", added.is_ok(), || {
        format!("{added:?}")
    });

    // sanity: un-deadlined, the nasty query completes and has matches
    // (every node satisfies its role predicate on this graph)
    let sane = client.query("big", &query_body(NASTY_DSL, None, "auto", false));
    h.require(
        "nasty pattern evaluates without a deadline",
        sane.is_ok(),
        || format!("{sane:?}"),
    );
    h.check(
        "nasty pattern matches the whole circulant",
        i64_at(&sane.unwrap(), &["pairs"]) >= 20000,
        String::new,
    );

    // the stress mix: two clients hammer the nasty pattern under tight
    // budgets (0 must 408; 1/2/5 ms may finish or deadline), while two
    // clients run normal fig1 traffic that must always answer 200
    const TIGHT_REQS: usize = 12;
    const NORMAL_REQS: usize = 16;
    let outcome = std::thread::scope(|s| {
        let mut tight_handles = Vec::new();
        for t in 0..2 {
            tight_handles.push(s.spawn(move || {
                let mut c = Client::new(addr);
                c.set_timeout(Duration::from_secs(30));
                let budgets = [0u64, 1, 2, 5];
                let mut seen = Vec::new();
                for r in 0..TIGHT_REQS {
                    let ms = budgets[(t + r) % budgets.len()];
                    let started = Instant::now();
                    let resp = c
                        .request(
                            "POST",
                            "/graphs/big/query",
                            Some(&query_body_deadline(NASTY_DSL, None, "direct", false, ms)),
                        )
                        .expect("stressed request must get a response");
                    let elapsed = started.elapsed();
                    let partial_ok = resp.status != 408
                        || resp
                            .body
                            .field("error")
                            .and_then(|e| e.field("timings"))
                            .and_then(|t| t.field("partial"))
                            .and_then(|p| p.as_bool())
                            .unwrap_or(false);
                    // a zero budget can never slip through to a 200
                    let status = if ms == 0 && resp.status != 408 {
                        0 // poisons the status set below
                    } else {
                        resp.status
                    };
                    seen.push(Observation {
                        status,
                        elapsed,
                        partial_ok,
                    });
                }
                seen
            }));
        }
        let mut normal_handles = Vec::new();
        for _ in 0..2 {
            normal_handles.push(s.spawn(move || {
                let mut c = Client::new(addr);
                c.set_timeout(Duration::from_secs(30));
                let mut all_ok = true;
                for _ in 0..NORMAL_REQS {
                    let resp = c
                        .query("fig1", &query_body(fig1, None, "auto", false))
                        .expect("normal traffic must keep answering");
                    all_ok &= i64_at(&resp, &["pairs"]) == 7;
                }
                all_ok
            }));
        }
        let tight: Vec<Observation> = tight_handles
            .into_iter()
            .flat_map(|th| th.join().expect("tight client thread"))
            .collect();
        let normal_ok = normal_handles
            .into_iter()
            .all(|nh| nh.join().expect("normal client thread"));
        (tight, normal_ok)
    });
    let (tight, normal_ok) = outcome;

    h.check(
        "normal traffic answered 200 with correct results throughout",
        normal_ok,
        String::new,
    );
    h.check(
        "every stressed response is 200 or 408 (zero budgets all 408)",
        tight.iter().all(|o| o.status == 200 || o.status == 408),
        || {
            let statuses: Vec<u16> = tight.iter().map(|o| o.status).collect();
            format!("{statuses:?}")
        },
    );
    let fired = tight.iter().filter(|o| o.status == 408).count();
    h.check("at least the zero budgets deadlined", fired >= 6, || {
        format!("{fired} of {} answered 408", tight.len())
    });
    h.check(
        "every 408 body carries partial stats",
        tight.iter().all(|o| o.partial_ok),
        String::new,
    );
    let worst = tight.iter().map(|o| o.elapsed).max().unwrap_or_default();
    h.check(
        "deadlined requests answered promptly (bounded abandon)",
        worst < Duration::from_secs(2),
        || format!("worst stressed latency {worst:?}"),
    );
    println!(
        "stress mix done: {fired}/{} deadlined, worst latency {worst:?}",
        tight.len()
    );

    // a zero-budget batch deadlines every slot inside the 200 envelope
    let batch_body = Value::Object(std::collections::BTreeMap::from([
        ("deadline_ms".to_owned(), Value::Int(0)),
        (
            "queries".to_owned(),
            Value::Array(vec![
                query_body(NASTY_DSL, None, "direct", false),
                query_body(NASTY_DSL, Some(3), "direct", false),
            ]),
        ),
    ]));
    let batch = client.request("POST", "/graphs/big/batch", Some(&batch_body));
    h.check(
        "zero-budget batch answers 200 with every slot 408",
        batch.as_ref().is_ok_and(|r| {
            r.status == 200
                && r.body
                    .field("results")
                    .and_then(|rs| rs.as_array())
                    .is_ok_and(|rs| {
                        rs.len() == 2
                            && rs
                                .iter()
                                .all(|slot| i64_at(slot, &["error", "status"]) == 408)
                    })
        }),
        || format!("{batch:?}"),
    );

    // the cancellation + deadline counters are live and moved
    let metrics = client.metrics().expect("metrics");
    h.check(
        "metrics export live engine.cancel counters",
        i64_at(&metrics, &["engine", "cancel", "checked"]) >= 1
            && i64_at(&metrics, &["engine", "cancel", "fired"]) >= 1,
        || metrics.to_string_compact(),
    );
    h.check(
        "metrics counted the enforced deadlines",
        i64_at(&metrics, &["server", "deadline", "enforced"]) >= fired as i64
            && i64_at(&metrics, &["server", "deadline", "rejected"]) == 0,
        || metrics.to_string_compact(),
    );
    h.check(
        "in-flight admission cost drained back to zero",
        metrics
            .field("server")
            .and_then(|s| s.field("cost_in_flight"))
            .and_then(|c| c.as_f64())
            .ok()
            == Some(0.0),
        || metrics.to_string_compact(),
    );

    // clean drain despite all the abandoned evaluations
    let drain = client.shutdown_server();
    h.check("POST /admin/shutdown accepted", drain.is_ok(), || {
        format!("{drain:?}")
    });
    let status = h.wait_child();
    h.check("server exited 0 after the stress", status.success(), || {
        format!("{status:?}")
    });
    let log = std::fs::read_to_string(&log_path).unwrap_or_default();
    h.check(
        "server log records boot and drain",
        log.contains("listening on") && log.contains("drained and stopped"),
        || format!("log was: {log:?}"),
    );

    // ---- phase 2: admission control refuses over-budget work ----
    println!("booting {server_bin} with a starvation-level admission ceiling");
    let (child, addr) = boot(&server_bin, &["--admission-max-cost", "0.000001"]);
    h.child = Some(child);
    let mut client = Client::new(addr);
    client.set_timeout(Duration::from_secs(10));

    let refused = client.request(
        "POST",
        "/graphs/fig1/query",
        Some(&query_body(fig1, None, "auto", false)),
    );
    h.check(
        "over-budget query refused with 429 + Retry-After",
        refused
            .as_ref()
            .is_ok_and(|r| r.status == 429 && r.retry_after == Some(1)),
        || format!("{refused:?}"),
    );
    let health = client.health();
    h.check(
        "healthz bypasses admission and answers ok",
        health
            .as_ref()
            .is_ok_and(|v| v.field("status").and_then(|s| s.as_str()).ok() == Some("ok")),
        || format!("{health:?}"),
    );
    let metrics = client.metrics().expect("metrics under admission");
    h.check(
        "metrics counted the admission rejection",
        i64_at(&metrics, &["server", "deadline", "rejected"]) >= 1,
        || metrics.to_string_compact(),
    );
    let drain = client.shutdown_server();
    h.check(
        "admission-limited server still drains cleanly",
        drain.is_ok(),
        || format!("{drain:?}"),
    );
    let status = h.wait_child();
    h.check("admission server exited 0", status.success(), || {
        format!("{status:?}")
    });

    if h.failures == 0 {
        println!(
            "stress smoke OK: deadlines enforced under load, admission \
             refusals, clean drain"
        );
    } else {
        eprintln!("stress smoke FAILED: {} check(s)", h.failures);
        std::process::exit(1);
    }
}
