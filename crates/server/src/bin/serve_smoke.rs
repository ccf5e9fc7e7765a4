//! `serve_smoke` — the end-to-end boot→query→shutdown harness behind the
//! `serve-smoke` CI job (and `just serve-smoke`).
//!
//! Unlike the in-process integration tests, this drives the **real
//! deployment shape**: it spawns the `serve` binary as a child process,
//! discovers the ephemeral port from its stdout contract, exercises every
//! endpoint over real TCP with the blocking client, asserts on the
//! responses, then requests a graceful drain and verifies the child
//! exits 0 and wrote its log. Any failed assertion exits non-zero (after
//! killing the child), which fails the CI job.
//!
//! ```text
//! serve_smoke [--server-bin path/to/serve] [--log server.log]
//! ```
//!
//! Without `--server-bin` the harness looks for a `serve` binary next to
//! its own executable (both live in `target/release` after
//! `cargo build --release`).

use expfinder_graph::json::Value;
use expfinder_graph::{EdgeUpdate, GraphView};
use expfinder_server::client::{query_body, Client};
use std::io::BufRead;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const FIG1_DSL: &str = "node sa* where label = \"SA\" and experience >= 5; \
    node sd where label = \"SD\" and experience >= 2; \
    node ba where label = \"BA\" and experience >= 3; \
    node st where label = \"ST\" and experience >= 2; \
    edge sa -> sd within 2; edge sa -> ba within 3; \
    edge sd -> st within 2; edge ba -> st within 1;";

struct Harness {
    child: Child,
    failures: usize,
}

impl Harness {
    fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        if ok {
            println!("ok: {what}");
        } else {
            self.failures += 1;
            eprintln!("FAIL: {what}: {}", detail());
        }
    }

    /// Like [`check`](Self::check), but abort the run when **this** step
    /// fails (later steps would only cascade) — earlier advisory
    /// failures keep the run going so CI prints every diagnostic.
    fn require(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.check(what, ok, detail);
        if !ok {
            let _ = self.child.kill();
            let _ = self.child.wait();
            eprintln!("serve smoke FAILED at required step: {what}");
            std::process::exit(1);
        }
    }
}

fn i64_at(v: &Value, path: &[&str]) -> i64 {
    let mut cur = v;
    for p in path {
        cur = cur.field(p).unwrap_or(&Value::Null);
    }
    cur.as_i64().unwrap_or(i64::MIN)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut server_bin: Option<String> = None;
    let mut log_path = "serve-smoke.log".to_owned();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--server-bin" => {
                i += 1;
                server_bin = Some(args.get(i).expect("value after --server-bin").clone());
            }
            "--log" => {
                i += 1;
                log_path = args.get(i).expect("value after --log").clone();
            }
            other => {
                eprintln!("unknown option {other:?}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let server_bin = server_bin.unwrap_or_else(|| {
        let me = std::env::current_exe().expect("current_exe");
        let sibling = me.parent().expect("bin dir").join("serve");
        sibling.to_string_lossy().into_owned()
    });

    // ---- boot (durable: the smoke drives the WAL-backed shard runtime) ----
    let data_dir =
        std::env::temp_dir().join(format!("expfinder_smoke_data_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let data_dir_arg = data_dir.to_string_lossy().into_owned();
    println!("booting {server_bin} (log: {log_path}, data dir: {data_dir_arg})");
    let mut child = Command::new(&server_bin)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--fixture",
            "fig1",
            "--allow-shutdown",
            "--log",
            &log_path,
            "--data-dir",
            &data_dir_arg,
            // a live subscription pins one worker for its whole stream;
            // keep headroom beyond the small-machine default of 2
            "--workers",
            "4",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap_or_else(|e| {
            eprintln!("cannot spawn {server_bin}: {e}");
            std::process::exit(1);
        });
    let stdout = child.stdout.take().expect("piped stdout");
    let mut first_line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut first_line)
        .expect("server stdout");
    let addr: SocketAddr = first_line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| {
            let _ = child.kill();
            eprintln!("bad discovery line {first_line:?}");
            std::process::exit(1);
        })
        .parse()
        .expect("address in discovery line");
    println!("server up on {addr}");

    let mut h = Harness { child, failures: 0 };
    let mut client = Client::new(addr);
    client.set_timeout(Duration::from_secs(10));

    // ---- healthz ----
    let health = client.health();
    h.require("GET /healthz answers", health.is_ok(), || {
        format!("{health:?}")
    });
    let health = health.unwrap();
    h.check(
        "healthz reports ok + fixture graph",
        health.field("status").and_then(|s| s.as_str()).ok() == Some("ok")
            && i64_at(&health, &["graphs"]) == 1,
        || health.to_string_compact(),
    );

    // ---- upload a second graph ----
    let mut g2 = expfinder_graph::DiGraph::new();
    let a = g2.add_node("SA", [("experience", expfinder_graph::AttrValue::Int(9))]);
    let b = g2.add_node("SD", [("experience", expfinder_graph::AttrValue::Int(2))]);
    g2.add_edge(a, b);
    let added = client.add_graph("uploaded", &g2);
    h.require("POST /graphs uploads a graph", added.is_ok(), || {
        format!("{added:?}")
    });
    let catalog = client.graphs().expect("GET /graphs");
    let names: Vec<&str> = catalog
        .field("graphs")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|g| g.field("name").and_then(|n| n.as_str()).ok())
        .collect();
    h.check(
        "GET /graphs lists both graphs",
        names == ["fig1", "uploaded"],
        || format!("{names:?}"),
    );

    // ---- register a query ----
    let reg = client.register("fig1", "team", FIG1_DSL);
    h.require("POST /register registers", reg.is_ok(), || {
        format!("{reg:?}")
    });
    h.check(
        "registered result has the paper's 7 pairs",
        i64_at(&reg.unwrap(), &["pairs"]) == 7,
        String::new,
    );

    // ---- subscribe (push stream; frames asserted after /updates) ----
    let sub = client.subscribe("fig1", None);
    h.require("POST /subscribe opens a push stream", sub.is_ok(), || {
        format!("{sub:?}")
    });
    let mut sub = sub.unwrap();
    let hello = sub.next_frame();
    h.check(
        "subscription hello frame lists the registered query",
        hello
            .as_ref()
            .ok()
            .and_then(|f| f.as_ref())
            .is_some_and(|f| {
                f.field("frame").and_then(|x| x.as_str()).ok() == Some("hello")
                    && f.field("queries")
                        .and_then(|q| q.as_array())
                        .is_ok_and(|qs| qs.iter().any(|q| q.as_str().ok() == Some("team")))
            }),
        || format!("{hello:?}"),
    );

    // ---- query ----
    let resp = client
        .query("fig1", &query_body(FIG1_DSL, Some(2), "auto", true))
        .expect("query");
    h.check(
        "query: 7 pairs via the registered route",
        i64_at(&resp, &["pairs"]) == 7
            && resp.field("route").and_then(|r| r.as_str()).ok() == Some("registered"),
        || resp.to_string_compact(),
    );
    let top = resp.field("experts").unwrap().as_array().unwrap();
    h.check(
        "query: Bob is the top-ranked expert",
        top.first()
            .and_then(|e| e.field("name").and_then(|n| n.as_str()).ok())
            == Some("Bob"),
        || resp.to_string_compact(),
    );

    // ---- batch (with one deliberately broken slot) ----
    let batch = client
        .batch(
            "fig1",
            vec![
                query_body(FIG1_DSL, Some(1), "auto", false),
                query_body("node oops", None, "auto", false),
                query_body("node sa* where label = \"SA\";", None, "direct", false),
            ],
        )
        .expect("batch");
    let results = batch.field("results").unwrap().as_array().unwrap();
    h.check(
        "batch: good slots answer, bad slot fails alone with a 400",
        results.len() == 3
            && i64_at(&results[0], &["ok", "pairs"]) == 7
            && i64_at(&results[1], &["error", "status"]) == 400
            && i64_at(&results[2], &["ok", "pairs"]) == 2,
        || batch.to_string_compact(),
    );

    // ---- updates (paper Example 3: Fred → Dan) with ΔM report ----
    let f = expfinder_graph::fixtures::collaboration_fig1();
    let report = client
        .updates("fig1", &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
        .expect("updates");
    h.check(
        "updates: applied and ΔM for the registered query is +1",
        i64_at(&report, &["applied"]) == 1
            && i64_at(&report, &["registered_delta", "team", "before_pairs"]) == 7
            && i64_at(&report, &["registered_delta", "team", "after_pairs"]) == 8,
        || report.to_string_compact(),
    );
    let resp = client
        .query("fig1", &query_body(FIG1_DSL, None, "auto", false))
        .expect("query after update");
    h.check(
        "query after update sees 8 pairs at a newer version",
        i64_at(&resp, &["pairs"]) == 8 && i64_at(&resp, &["graph_version"]) > 0,
        || resp.to_string_compact(),
    );
    let frame = sub.next_frame();
    h.check(
        "subscription pushed the committed batch's ΔM frame verbatim",
        frame
            .as_ref()
            .ok()
            .and_then(|f| f.as_ref())
            .is_some_and(|f| {
                f.field("frame").and_then(|x| x.as_str()).ok() == Some("update")
                    && f.field("report").map(Value::to_string_compact).ok()
                        == Some(report.to_string_compact())
            }),
        || format!("{frame:?}"),
    );

    // ---- error statuses over the wire ----
    let missing = client.query("ghost", &query_body(FIG1_DSL, None, "auto", false));
    h.check(
        "unknown graph answers 404",
        matches!(
            missing,
            Err(expfinder_server::ClientError::Status { status: 404, .. })
        ),
        || format!("{missing:?}"),
    );
    let raw = client.request("POST", "/graphs/fig1/query", Some(&Value::Str("}{".into())));
    h.check(
        "non-object body answers 400",
        raw.as_ref().map(|r| r.status).unwrap_or(0) == 400,
        || format!("{raw:?}"),
    );

    // ---- metrics ----
    // drive one bounded query through the direct route first, so the
    // cumulative EvalStats counters provably moved on the serving path
    let direct = client
        .query("fig1", &query_body(FIG1_DSL, None, "direct", false))
        .expect("direct query");
    h.check(
        "direct-route query evaluates",
        i64_at(&direct, &["pairs"]) == 8,
        || direct.to_string_compact(),
    );
    let ranked_body = query_body(FIG1_DSL, Some(2), "auto", false);
    let ranked = client.query("fig1", &ranked_body).expect("ranked query");
    let again = client.query("fig1", &ranked_body).expect("ranked query");
    h.check(
        "a repeated ranked query returns the same experts",
        ranked.field("experts").map(Value::to_string_compact).ok()
            == again.field("experts").map(Value::to_string_compact).ok()
            && ranked.field("experts").is_ok(),
        || again.to_string_compact(),
    );
    let metrics = client.metrics().expect("metrics");
    h.check(
        "metrics counted the query traffic",
        i64_at(&metrics, &["requests", "query", "count"]) >= 3
            && i64_at(&metrics, &["requests", "batch", "count"]) >= 1,
        || metrics.to_string_compact(),
    );
    h.check(
        "metrics export engine cache counters",
        i64_at(&metrics, &["engine", "cache", "misses"]) >= 1
            && i64_at(&metrics, &["engine", "cache", "entries"]) >= 1,
        || metrics.to_string_compact(),
    );
    h.check(
        "metrics export cumulative EvalStats from the matching path",
        i64_at(&metrics, &["engine", "eval", "refreshes"]) >= 4
            && i64_at(&metrics, &["engine", "eval", "bfs_nodes_visited"]) >= 1
            && i64_at(&metrics, &["engine", "eval", "refreshes_skipped"]) >= 0
            && i64_at(&metrics, &["engine", "eval", "removals"]) >= 0,
        || metrics.to_string_compact(),
    );
    h.check(
        "metrics export ranking counters; a repeated ranked query was a lookup",
        // the same top-2 query, twice at one version over real TCP on the
        // durable backend: the second answer comes out of the cache slot
        i64_at(&metrics, &["engine", "rank", "computed"]) >= 1
            && i64_at(&metrics, &["engine", "rank", "reused"]) >= 1,
        || metrics.to_string_compact(),
    );
    h.check(
        "metrics export reach-index counters",
        // i64_at answers i64::MIN for a missing field, so >= 0 asserts
        // presence; fig1 is below the snapshot threshold, hence zeroes
        i64_at(&metrics, &["engine", "index", "hits"]) >= 0
            && i64_at(&metrics, &["engine", "index", "misses"]) >= 0
            && i64_at(&metrics, &["engine", "index", "entries"]) >= 0
            && i64_at(&metrics, &["engine", "index", "bytes"]) >= 0,
        || metrics.to_string_compact(),
    );
    h.check(
        "metrics export WAL counters from the durable backend",
        // one update batch was accepted → exactly that many appends;
        // fresh data dir → nothing replayed, no torn tails
        i64_at(&metrics, &["engine", "wal", "appends"]) >= 1
            && i64_at(&metrics, &["engine", "wal", "bytes"]) >= 1
            && i64_at(&metrics, &["engine", "wal", "fsyncs"]) >= 1
            && i64_at(&metrics, &["engine", "wal", "replayed_frames"]) == 0
            && i64_at(&metrics, &["engine", "wal", "truncated_tails"]) == 0,
        || metrics.to_string_compact(),
    );
    h.check(
        "metrics export fault-injection and load-shedding counters (durable)",
        // keys must exist (i64_at answers i64::MIN when missing) and be
        // zero: the injector is disarmed and nothing was shed
        i64_at(&metrics, &["engine", "faults", "injected"]) == 0
            && i64_at(&metrics, &["engine", "faults", "writes"]) == 0
            && i64_at(&metrics, &["engine", "faults", "fsyncs"]) == 0
            && i64_at(&metrics, &["engine", "faults", "renames"]) == 0
            && i64_at(&metrics, &["server", "shed"]) == 0,
        || metrics.to_string_compact(),
    );
    let shards = metrics
        .field("engine")
        .and_then(|e| e.field("shard"))
        .and_then(|s| s.as_array())
        .map(|a| a.to_vec())
        .unwrap_or_default();
    h.check(
        "metrics export per-shard mailbox depth and ownership gauges",
        // a shard that owns no graph has handled no command
        !shards.is_empty()
            && shards.iter().all(|s| {
                i64_at(s, &["depth"]) >= 0
                    && (i64_at(s, &["commands"]) >= 1) == (i64_at(s, &["graphs"]) >= 1)
            })
            && shards.iter().map(|s| i64_at(s, &["graphs"])).sum::<i64>() == 2,
        || metrics.to_string_compact(),
    );
    h.check(
        "metrics export subscription gauges",
        i64_at(&metrics, &["subscriptions", "live"]) == 1
            && i64_at(&metrics, &["subscriptions", "frames_pushed"]) >= 1
            && i64_at(&metrics, &["subscriptions", "slow_consumer_disconnects"]) == 0,
        || metrics.to_string_compact(),
    );
    h.check(
        "metrics export live graph versions",
        metrics
            .field("graphs")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .any(|g| {
                g.field("name").and_then(|n| n.as_str()).ok() == Some("fig1")
                    && i64_at(g, &["version"]) >= 1
            }),
        || metrics.to_string_compact(),
    );

    // ---- graceful shutdown ----
    let drain = client.shutdown_server();
    h.check("POST /admin/shutdown accepted", drain.is_ok(), || {
        format!("{drain:?}")
    });
    // drain pushes a terminal bye frame down the live subscription before
    // the chunked stream ends
    sub.set_timeout(Duration::from_secs(10));
    let bye = loop {
        match sub.next_frame() {
            Ok(Some(f)) if f.field("frame").and_then(|x| x.as_str()).ok() == Some("bye") => {
                break Ok(Some(f));
            }
            Ok(Some(_)) => continue,
            other => break other,
        }
    };
    h.check(
        "drain ends the subscription with a bye frame",
        bye.as_ref()
            .ok()
            .and_then(|f| f.as_ref())
            .is_some_and(|f| f.field("reason").and_then(|r| r.as_str()).ok() == Some("drain")),
        || format!("{bye:?}"),
    );
    let status = h.child.wait().expect("wait for server");
    h.check("server exited 0 after drain", status.success(), || {
        format!("{status:?}")
    });
    let log = std::fs::read_to_string(&log_path).unwrap_or_default();
    h.check(
        "server log records boot and drain",
        log.contains("listening on") && log.contains("drained and stopped"),
        || format!("log was: {log:?}"),
    );

    h.check(
        "data dir holds a snapshot and a WAL per graph",
        data_dir.join("fig1.efg").is_file()
            && data_dir.join("fig1.wal").is_file()
            && data_dir.join("uploaded.efg").is_file(),
        || {
            let listing: Vec<String> = std::fs::read_dir(&data_dir)
                .map(|rd| {
                    rd.filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
                        .collect()
                })
                .unwrap_or_default();
            format!("{listing:?}")
        },
    );
    let _ = std::fs::remove_dir_all(&data_dir);

    // ---- second boot, Local backend (no --data-dir): the fault and
    // shed counters must keep the same /metrics schema either way ----
    let local_log = format!("{log_path}.local");
    println!("booting {server_bin} without a data dir (log: {local_log})");
    let mut child = Command::new(&server_bin)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--fixture",
            "fig1",
            "--allow-shutdown",
            "--log",
            &local_log,
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap_or_else(|e| {
            eprintln!("cannot spawn {server_bin}: {e}");
            std::process::exit(1);
        });
    let stdout = child.stdout.take().expect("piped stdout");
    let mut first_line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut first_line)
        .expect("server stdout");
    let addr: SocketAddr = first_line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| {
            let _ = child.kill();
            eprintln!("bad discovery line {first_line:?}");
            std::process::exit(1);
        })
        .parse()
        .expect("address in discovery line");
    println!("local-backend server up on {addr}");
    h.child = child;
    let mut client = Client::new(addr);
    client.set_timeout(Duration::from_secs(10));
    let metrics = client.metrics();
    h.require(
        "GET /metrics answers on the Local backend",
        metrics.is_ok(),
        || format!("{metrics:?}"),
    );
    let metrics = metrics.unwrap();
    h.check(
        "metrics export fault-injection and load-shedding counters (local)",
        i64_at(&metrics, &["engine", "faults", "injected"]) == 0
            && i64_at(&metrics, &["engine", "faults", "writes"]) == 0
            && i64_at(&metrics, &["engine", "faults", "fsyncs"]) == 0
            && i64_at(&metrics, &["engine", "faults", "renames"]) == 0
            && i64_at(&metrics, &["server", "shed"]) == 0,
        || metrics.to_string_compact(),
    );
    let drain = client.shutdown_server();
    h.check(
        "local-backend server accepts /admin/shutdown",
        drain.is_ok(),
        || format!("{drain:?}"),
    );
    let status = h.child.wait().expect("wait for local-backend server");
    h.check(
        "local-backend server exited 0 after drain",
        status.success(),
        || format!("{status:?}"),
    );

    // g2 only exists to exercise upload; touch it so nothing is unused
    assert_eq!(g2.node_count(), 2);

    if h.failures == 0 {
        println!("serve smoke OK: boot, all endpoints, ΔM report, graceful drain");
    } else {
        eprintln!("serve smoke FAILED: {} check(s)", h.failures);
        std::process::exit(1);
    }
}
