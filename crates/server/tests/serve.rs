//! Integration tests for the serving layer, over real TCP sockets.
//!
//! The centerpiece mirrors PR 1's concurrency oracle at the HTTP level:
//! M client threads race queries against a writer posting `/updates`,
//! and every response must carry matches consistent with a fresh
//! single-threaded evaluation of the graph at the `graph_version` the
//! response reports. The rest covers the endpoint surface end-to-end,
//! malformed-request robustness (4xx, never a worker panic) and the
//! graceful drain.

use expfinder_core::bounded_simulation;
use expfinder_engine::ExpFinder;
use expfinder_graph::generate::{collaboration, random_updates, CollabConfig};
use expfinder_graph::json::Value;
use expfinder_graph::{DiGraph, EdgeUpdate};
use expfinder_pattern::Pattern;
use expfinder_server::client::{query_body, query_body_deadline, Client};
use expfinder_server::{ClientError, Server, ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const FIG1_DSL: &str = "node sa* where label = \"SA\" and experience >= 5; \
    node sd where label = \"SD\" and experience >= 2; \
    node ba where label = \"BA\" and experience >= 3; \
    node st where label = \"ST\" and experience >= 2; \
    edge sa -> sd within 2; edge sa -> ba within 3; \
    edge sd -> st within 2; edge ba -> st within 1;";

fn serve(graphs: Vec<(&str, DiGraph)>, config: ServerConfig) -> ServerHandle {
    let engine = Arc::new(ExpFinder::default());
    for (name, g) in graphs {
        engine.add_graph(name, g).unwrap();
    }
    Server::bind(engine, "127.0.0.1:0", config).unwrap().spawn()
}

fn fig1_server() -> ServerHandle {
    serve(
        vec![(
            "fig1",
            expfinder_graph::fixtures::collaboration_fig1().graph,
        )],
        ServerConfig::default(),
    )
}

/// The wire's `matches` object for a relation: node name → sorted ids.
fn relation_as_wire(
    pattern: &Pattern,
    m: &expfinder_core::MatchRelation,
) -> BTreeMap<String, Vec<i64>> {
    pattern
        .ids()
        .map(|u| {
            (
                pattern.node(u).name.clone(),
                m.matches_vec(u).into_iter().map(|v| v.0 as i64).collect(),
            )
        })
        .collect()
}

fn wire_matches(v: &Value) -> BTreeMap<String, Vec<i64>> {
    v.field("matches")
        .unwrap()
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, ids)| {
            (
                k.clone(),
                ids.as_array()
                    .unwrap()
                    .iter()
                    .map(|i| i.as_i64().unwrap())
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn end_to_end_over_tcp() {
    let handle = fig1_server();
    let mut client = Client::new(handle.addr());

    let health = client.health().unwrap();
    assert_eq!(health.field("status").unwrap().as_str().unwrap(), "ok");
    assert_eq!(health.field("graphs").unwrap().as_i64().unwrap(), 1);

    // upload a second graph and see it in the catalog
    let mut g2 = DiGraph::new();
    let a = g2.add_node("SA", [("experience", expfinder_graph::AttrValue::Int(9))]);
    let b = g2.add_node("SD", []);
    g2.add_edge(a, b);
    let added = client.add_graph("tiny", &g2).unwrap();
    assert_eq!(added.field("nodes").unwrap().as_i64().unwrap(), 2);
    let catalog = client.graphs().unwrap();
    let rows = catalog.field("graphs").unwrap().as_array().unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].field("name").unwrap().as_str().unwrap(), "fig1");
    assert_eq!(rows[1].field("name").unwrap().as_str().unwrap(), "tiny");

    // duplicate upload → 409 through the shared mapping
    match client.add_graph("tiny", &g2) {
        Err(ClientError::Status { status: 409, .. }) => {}
        other => panic!("expected 409, got {other:?}"),
    }

    // register, query (registered route), ranked experts
    let reg = client.register("fig1", "team", FIG1_DSL).unwrap();
    assert_eq!(reg.field("pairs").unwrap().as_i64().unwrap(), 7);
    let resp = client
        .query("fig1", &query_body(FIG1_DSL, Some(2), "auto", true))
        .unwrap();
    assert_eq!(resp.field("pairs").unwrap().as_i64().unwrap(), 7);
    assert_eq!(resp.field("route").unwrap().as_str().unwrap(), "registered");
    let experts = resp.field("experts").unwrap().as_array().unwrap();
    assert_eq!(experts.len(), 2);
    assert_eq!(
        experts[0].field("name").unwrap().as_str().unwrap(),
        "Bob",
        "paper Example 2: Bob outranks Walt"
    );
    assert!(resp.field("timings").unwrap().field("total_ms").is_ok());

    // batch with a broken middle slot
    let batch = client
        .batch(
            "fig1",
            vec![
                query_body(FIG1_DSL, Some(1), "auto", false),
                query_body("node oops", None, "auto", false),
                query_body("node sa* where label = \"SA\";", None, "direct", false),
            ],
        )
        .unwrap();
    let results = batch.field("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(
        results[0]
            .field("ok")
            .unwrap()
            .field("pairs")
            .unwrap()
            .as_i64()
            .unwrap(),
        7
    );
    let err = results[1].field("error").unwrap();
    assert_eq!(err.field("status").unwrap().as_i64().unwrap(), 400);
    assert_eq!(
        results[2]
            .field("ok")
            .unwrap()
            .field("pairs")
            .unwrap()
            .as_i64()
            .unwrap(),
        2
    );

    // updates: paper Example 3 (Fred → Dan), with the ΔM report
    let f = expfinder_graph::fixtures::collaboration_fig1();
    let report = client
        .updates("fig1", &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
        .unwrap();
    assert_eq!(report.field("applied").unwrap().as_i64().unwrap(), 1);
    let team = report
        .field("registered_delta")
        .unwrap()
        .field("team")
        .unwrap();
    assert_eq!(team.field("before_pairs").unwrap().as_i64().unwrap(), 7);
    assert_eq!(team.field("after_pairs").unwrap().as_i64().unwrap(), 8);
    assert_eq!(team.field("delta").unwrap().as_i64().unwrap(), 1);

    // unknown graph / unknown route statuses
    match client.query("ghost", &query_body(FIG1_DSL, None, "auto", false)) {
        Err(ClientError::Status { status: 404, .. }) => {}
        other => panic!("expected 404, got {other:?}"),
    }

    // metrics saw all of it
    let metrics = client.metrics().unwrap();
    let reqs = metrics.field("requests").unwrap();
    assert!(
        reqs.field("query")
            .unwrap()
            .field("count")
            .unwrap()
            .as_i64()
            .unwrap()
            >= 2
    );
    assert!(
        reqs.field("batch")
            .unwrap()
            .field("count")
            .unwrap()
            .as_i64()
            .unwrap()
            >= 1
    );
    assert!(
        reqs.field("updates")
            .unwrap()
            .field("count")
            .unwrap()
            .as_i64()
            .unwrap()
            >= 1
    );
    let graphs = metrics.field("graphs").unwrap().as_array().unwrap();
    assert!(graphs
        .iter()
        .any(|g| g.field("name").unwrap().as_str().unwrap() == "fig1"
            && g.field("version").unwrap().as_i64().unwrap() >= 1));

    let served = handle.shutdown();
    assert!(served >= 10, "served {served}");
}

/// `engine.rank` over the wire: a repeated `top_k` query ranks once per
/// graph version and is a lookup every other time — gated on the counts
/// `GET /metrics` reports, not on time.
#[test]
fn repeated_ranked_query_ranks_once_per_version() {
    const N: i64 = 6;
    let handle = fig1_server();
    let mut client = Client::new(handle.addr());
    let rank_counts = |client: &mut Client| {
        let metrics = client.metrics().unwrap();
        let rank = metrics.field("engine").unwrap().field("rank").unwrap();
        let count = |key| rank.field(key).unwrap().as_i64().unwrap();
        (count("computed"), count("reused"))
    };
    let body = query_body(FIG1_DSL, Some(2), "auto", false);
    let experts = |resp: &Value| resp.field("experts").unwrap().to_string_compact();

    assert_eq!(rank_counts(&mut client), (0, 0));
    let first = client.query("fig1", &body).unwrap();
    assert_eq!(
        first.field("route").unwrap().as_str().unwrap(),
        "direct_bounded"
    );
    for _ in 1..N {
        let again = client.query("fig1", &body).unwrap();
        assert_eq!(again.field("route").unwrap().as_str().unwrap(), "cache");
        assert_eq!(experts(&again), experts(&first), "same bytes from the slot");
    }
    assert_eq!(rank_counts(&mut client), (1, N - 1));

    // any update moves the version: the next answer is ranked afresh
    let f = expfinder_graph::fixtures::collaboration_fig1();
    client
        .updates("fig1", &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
        .unwrap();
    client.query("fig1", &body).unwrap();
    assert_eq!(rank_counts(&mut client), (2, N - 1));
    handle.shutdown();
}

/// The HTTP-level concurrency oracle (PR 1 approach, now over sockets):
/// every response a racing client observes must equal a fresh
/// single-threaded evaluation at the version the response reports.
#[test]
fn concurrent_clients_consistent_with_writer() {
    const READERS: usize = 4;
    const REQUESTS: usize = 30;
    const UPDATES: usize = 40;

    let base = collaboration(
        &mut StdRng::seed_from_u64(99),
        &CollabConfig {
            teams: 20,
            team_size: 6,
            ..CollabConfig::default()
        },
    );
    let pattern = expfinder_pattern::parser::parse(FIG1_DSL).unwrap();
    let updates = random_updates(&mut StdRng::seed_from_u64(41), &base, UPDATES, 0.5);

    // ground truth for every version the graph will pass through
    let mut expected: HashMap<i64, BTreeMap<String, Vec<i64>>> = HashMap::new();
    {
        let mut g = base.clone();
        expected.insert(
            g.version() as i64,
            relation_as_wire(&pattern, &bounded_simulation(&g, &pattern).unwrap()),
        );
        for &up in &updates {
            if g.apply(up) {
                expected.insert(
                    g.version() as i64,
                    relation_as_wire(&pattern, &bounded_simulation(&g, &pattern).unwrap()),
                );
            }
        }
    }

    let handle = serve(vec![("live", base)], ServerConfig::default());
    let addr = handle.addr();

    std::thread::scope(|s| {
        // writer: one HTTP update at a time
        {
            let updates = &updates;
            s.spawn(move || {
                let mut client = Client::new(addr);
                for &up in updates {
                    client.updates("live", &[up]).unwrap();
                    std::thread::yield_now();
                }
            });
        }
        // readers: every observation checked against the precomputed truth
        for r in 0..READERS {
            let expected = &expected;
            s.spawn(move || {
                let mut client = Client::new(addr);
                for i in 0..REQUESTS {
                    let resp = client
                        .query("live", &query_body(FIG1_DSL, None, "auto", true))
                        .unwrap();
                    let version = resp.field("graph_version").unwrap().as_i64().unwrap();
                    let truth = expected.get(&version).unwrap_or_else(|| {
                        panic!(
                            "reader {r} request {i}: version {version} was never a \
                             real graph state"
                        )
                    });
                    assert_eq!(
                        &wire_matches(&resp),
                        truth,
                        "reader {r} request {i}: response diverges from a fresh \
                         evaluation at version {version}"
                    );
                }
            });
        }
    });

    // after the race the server agrees with the final ground truth
    let mut client = Client::new(addr);
    let resp = client
        .query("live", &query_body(FIG1_DSL, None, "direct", true))
        .unwrap();
    let version = resp.field("graph_version").unwrap().as_i64().unwrap();
    assert_eq!(&wire_matches(&resp), expected.get(&version).unwrap());
    handle.shutdown();
}

/// Raw socket abuse: every malformed input maps to a 4xx/5xx response
/// (or a clean close), never a worker panic — and the server keeps
/// serving afterwards.
#[test]
fn malformed_requests_answer_4xx_and_server_survives() {
    let handle = fig1_server();
    let addr = handle.addr();

    let raw = |bytes: &[u8]| -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(bytes).unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out
    };

    // (routed responses honor Connection: close; framing failures close
    // unconditionally — either way raw() returns promptly)
    // garbage request line
    let resp = raw(b"EHLO hi\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    // unknown route
    let resp = raw(b"GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");
    // wrong method on a known route
    let resp = raw(b"DELETE /graphs/fig1/query HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");
    // body that is not JSON
    let resp = raw(
        b"POST /graphs/fig1/query HTTP/1.1\r\nConnection: close\r\nContent-Length: 9\r\n\r\nnot json!",
    );
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    assert!(resp.contains("invalid json"), "{resp}");
    // JSON of the wrong shape
    let resp = raw(
        b"POST /graphs/fig1/query HTTP/1.1\r\nConnection: close\r\nContent-Length: 13\r\n\r\n{\"top_k\": 99}",
    );
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    // oversized declared body → 413 before any allocation
    let resp = raw(b"POST /graphs/fig1/query HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");
    // chunked transfer encoding is not implemented → 501
    let resp =
        raw(b"POST /graphs/fig1/query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 501"), "{resp}");
    // header section over the cap → 431
    let mut big = b"GET /healthz HTTP/1.1\r\nX-Junk: ".to_vec();
    big.extend(std::iter::repeat_n(b'a', 20 * 1024));
    big.extend_from_slice(b"\r\n\r\n");
    let resp = raw(&big);
    assert!(resp.starts_with("HTTP/1.1 431"), "{resp}");
    // remote shutdown is disabled by default → 403
    let resp = raw(b"POST /admin/shutdown HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 403"), "{resp}");

    // after all that abuse, normal service continues
    let mut client = Client::new(addr);
    let health = client.health().unwrap();
    assert_eq!(health.field("status").unwrap().as_str().unwrap(), "ok");
    let resp = client
        .query("fig1", &query_body(FIG1_DSL, Some(1), "auto", false))
        .unwrap();
    assert_eq!(resp.field("pairs").unwrap().as_i64().unwrap(), 7);
    handle.shutdown();
}

#[test]
fn keep_alive_reuses_one_connection() {
    let handle = fig1_server();
    let mut client = Client::new(handle.addr());
    for _ in 0..5 {
        client.health().unwrap();
    }
    let metrics = client.metrics().unwrap();
    // all six requests (5 health + this metrics) rode one connection
    assert_eq!(
        metrics
            .field("connections")
            .unwrap()
            .field("opened")
            .unwrap()
            .as_i64()
            .unwrap(),
        1
    );
    assert_eq!(
        metrics
            .field("requests")
            .unwrap()
            .field("healthz")
            .unwrap()
            .field("count")
            .unwrap()
            .as_i64()
            .unwrap(),
        5
    );
    handle.shutdown();
}

// ------------------------ subscriptions ------------------------------

/// A throwaway on-disk runtime directory for the durable-backend tests.
fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("expfinder_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_config() -> expfinder_runtime::RuntimeConfig {
    expfinder_runtime::RuntimeConfig {
        fsync: expfinder_runtime::wal::FsyncPolicy::Never,
        engine: expfinder_engine::EngineConfig {
            exec: expfinder_engine::ExecConfig::sequential(),
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Drive one subscription end-to-end against `handle`: register `team`,
/// subscribe, post two update batches, and assert each pushed frame's
/// `report` is byte-identical to the `POST /updates` response body for
/// the same batch. Shared by the Local and Durable backend tests — the
/// push stream is a wire-level contract, not a backend detail.
fn assert_push_matches_poll(handle: &ServerHandle) {
    let f = expfinder_graph::fixtures::collaboration_fig1();
    let mut client = Client::new(handle.addr());
    client.register("fig1", "team", FIG1_DSL).unwrap();

    let mut sub = client.subscribe("fig1", None).unwrap();
    let hello = sub.next_frame().unwrap().unwrap();
    assert_eq!(hello.field("frame").unwrap().as_str().unwrap(), "hello");
    assert_eq!(hello.field("graph").unwrap().as_str().unwrap(), "fig1");
    let queries = hello.field("queries").unwrap().as_array().unwrap();
    assert!(queries.iter().any(|q| q.as_str().unwrap() == "team"));
    assert!(hello.field("graph_version").unwrap().as_i64().unwrap() >= 1);

    // two batches: Example 3's insert, then the matching delete
    for up in [
        EdgeUpdate::Insert(f.e1.0, f.e1.1),
        EdgeUpdate::Delete(f.e1.0, f.e1.1),
    ] {
        let polled = client.updates("fig1", &[up]).unwrap();
        let frame = sub.next_frame().unwrap().unwrap();
        assert_eq!(frame.field("frame").unwrap().as_str().unwrap(), "update");
        assert_eq!(
            frame.field("report").unwrap().to_string_compact(),
            polled.to_string_compact(),
            "pushed frame must be bit-identical to the /updates response"
        );
    }

    // the /metrics gauges saw the live stream
    let metrics = client.metrics().unwrap();
    let subs = metrics.field("subscriptions").unwrap();
    assert_eq!(subs.field("live").unwrap().as_i64().unwrap(), 1);
    assert!(subs.field("frames_pushed").unwrap().as_i64().unwrap() >= 2);
    assert_eq!(
        subs.field("slow_consumer_disconnects")
            .unwrap()
            .as_i64()
            .unwrap(),
        0
    );
}

#[test]
fn subscription_pushes_frames_matching_updates_responses_local() {
    let handle = fig1_server();
    assert_push_matches_poll(&handle);
    handle.shutdown();
}

#[test]
fn subscription_pushes_frames_matching_updates_responses_durable() {
    let dir = tmpdir("push");
    let rt = Arc::new(expfinder_runtime::DurableExpFinder::open(&dir, durable_config()).unwrap());
    rt.add_graph(
        "fig1",
        expfinder_graph::fixtures::collaboration_fig1().graph,
    )
    .unwrap();
    let handle = Server::bind_durable(rt, "127.0.0.1:0", ServerConfig::default())
        .unwrap()
        .spawn();
    assert_push_matches_poll(&handle);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn subscription_filters_and_rejections() {
    // a live subscription pins its worker; leave headroom for the
    // refused subscribe attempts below (the default pool is 2 on small
    // machines: one for the keep-alive client, one for the stream)
    let handle = serve(
        vec![(
            "fig1",
            expfinder_graph::fixtures::collaboration_fig1().graph,
        )],
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    );
    let mut client = Client::new(handle.addr());
    client.register("fig1", "team", FIG1_DSL).unwrap();
    client
        .register("fig1", "solo", "node sa* where label = \"SA\";")
        .unwrap();

    // a filtered stream sees only its query's ΔM
    let mut sub = client.subscribe("fig1", Some(&["team"])).unwrap();
    let hello = sub.next_frame().unwrap().unwrap();
    let names: Vec<&str> = hello
        .field("queries")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|q| q.as_str().unwrap())
        .collect();
    assert_eq!(names, ["team"]);
    let f = expfinder_graph::fixtures::collaboration_fig1();
    client
        .updates("fig1", &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
        .unwrap();
    let frame = sub.next_frame().unwrap().unwrap();
    let delta = frame
        .field("report")
        .unwrap()
        .field("registered_delta")
        .unwrap();
    assert!(delta.field("team").is_ok());
    assert!(delta.field("solo").is_err(), "filtered out");

    // refusals: unknown graph and unregistered query name
    match client.subscribe("ghost", None) {
        Err(ClientError::Status { status: 404, .. }) => {}
        other => panic!("expected 404, got {other:?}"),
    }
    match client.subscribe("fig1", Some(&["nope"])) {
        Err(ClientError::Status { status: 404, .. }) => {}
        other => panic!("expected 404, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn slow_subscriber_is_evicted_not_waited_on() {
    let handle = serve(
        vec![(
            "fig1",
            expfinder_graph::fixtures::collaboration_fig1().graph,
        )],
        ServerConfig {
            subscriber_queue: 1,
            ..ServerConfig::default()
        },
    );
    let mut client = Client::new(handle.addr());
    // a huge query name inflates every frame, so the unread stream
    // fills the socket buffers after a bounded number of updates
    let big_name = "q".repeat(32 * 1024);
    client.register("fig1", &big_name, FIG1_DSL).unwrap();

    let mut sub = client.subscribe("fig1", None).unwrap();
    let f = expfinder_graph::fixtures::collaboration_fig1();

    // never read from `sub`: once the socket and the 1-slot queue are
    // both full, the next publish must evict rather than block the
    // update path — every /updates call keeps answering promptly
    let mut evicted = false;
    for i in 0..400 {
        let up = if i % 2 == 0 {
            EdgeUpdate::Insert(f.e1.0, f.e1.1)
        } else {
            EdgeUpdate::Delete(f.e1.0, f.e1.1)
        };
        client.updates("fig1", &[up]).unwrap();
        if i % 20 == 19 {
            let m = client.metrics().unwrap();
            let subs = m.field("subscriptions").unwrap();
            if subs
                .field("slow_consumer_disconnects")
                .unwrap()
                .as_i64()
                .unwrap()
                >= 1
            {
                evicted = true;
                break;
            }
        }
    }
    assert!(evicted, "slow consumer was never evicted");

    // now drain the stream: buffered frames, then the terminal error
    sub.set_timeout(Duration::from_secs(10));
    let mut saw_error = false;
    loop {
        match sub.next_frame().unwrap() {
            None => break,
            Some(frame) => {
                if frame.field("frame").unwrap().as_str().unwrap() == "error" {
                    assert_eq!(
                        frame.field("reason").unwrap().as_str().unwrap(),
                        "slow-consumer"
                    );
                    saw_error = true;
                }
            }
        }
    }
    assert!(saw_error, "stream must end with the slow-consumer frame");

    let m = client.metrics().unwrap();
    let subs = m.field("subscriptions").unwrap();
    assert_eq!(subs.field("live").unwrap().as_i64().unwrap(), 0);
    handle.shutdown();
}

#[test]
fn drain_terminates_subscriptions_with_bye() {
    let handle = fig1_server();
    let mut client = Client::new(handle.addr());
    client.register("fig1", "team", FIG1_DSL).unwrap();
    let mut sub = client.subscribe("fig1", None).unwrap();
    let hello = sub.next_frame().unwrap().unwrap();
    assert_eq!(hello.field("frame").unwrap().as_str().unwrap(), "hello");

    // drain while the stream is live: the pinned worker notices within
    // one poll interval and says goodbye before closing
    let drainer = std::thread::spawn(move || handle.shutdown());
    let bye = sub.next_frame().unwrap().unwrap();
    assert_eq!(bye.field("frame").unwrap().as_str().unwrap(), "bye");
    assert_eq!(bye.field("reason").unwrap().as_str().unwrap(), "drain");
    assert_eq!(sub.next_frame().unwrap(), None, "clean chunked terminator");
    drainer.join().unwrap();
}

#[test]
fn durable_registration_survives_restart_and_feeds_new_subscriptions() {
    let dir = tmpdir("restart");
    let f = expfinder_graph::fixtures::collaboration_fig1();

    // first server lifetime: add the graph, register over the wire
    {
        let rt =
            Arc::new(expfinder_runtime::DurableExpFinder::open(&dir, durable_config()).unwrap());
        rt.add_graph("fig1", f.graph.clone()).unwrap();
        let handle = Server::bind_durable(rt, "127.0.0.1:0", ServerConfig::default())
            .unwrap()
            .spawn();
        let mut client = Client::new(handle.addr());
        client.register("fig1", "team", FIG1_DSL).unwrap();
        client
            .updates("fig1", &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
            .unwrap();
        handle.shutdown();
    }

    // second lifetime: recovery replays the WAL's register record, so a
    // client can subscribe immediately — no re-registration step
    let rt = Arc::new(expfinder_runtime::DurableExpFinder::open(&dir, durable_config()).unwrap());
    let handle = Server::bind_durable(rt, "127.0.0.1:0", ServerConfig::default())
        .unwrap()
        .spawn();
    let mut client = Client::new(handle.addr());
    let mut sub = client.subscribe("fig1", Some(&["team"])).unwrap();
    let hello = sub.next_frame().unwrap().unwrap();
    let names: Vec<&str> = hello
        .field("queries")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|q| q.as_str().unwrap())
        .collect();
    assert_eq!(names, ["team"], "registration must survive the restart");

    // and the replayed maintainer still produces ΔM: deleting the edge
    // inserted before the restart shrinks the maintained result
    let polled = client
        .updates("fig1", &[EdgeUpdate::Delete(f.e1.0, f.e1.1)])
        .unwrap();
    let frame = sub.next_frame().unwrap().unwrap();
    assert_eq!(
        frame.field("report").unwrap().to_string_compact(),
        polled.to_string_compact()
    );
    let team = frame
        .field("report")
        .unwrap()
        .field("registered_delta")
        .unwrap()
        .field("team")
        .unwrap();
    assert_eq!(team.field("delta").unwrap().as_i64().unwrap(), -1);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_drains_and_closes_the_port() {
    let handle = serve(
        vec![(
            "fig1",
            expfinder_graph::fixtures::collaboration_fig1().graph,
        )],
        ServerConfig {
            allow_remote_shutdown: true,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();
    let mut client = Client::new(addr);
    for _ in 0..3 {
        client
            .query("fig1", &query_body(FIG1_DSL, None, "auto", false))
            .unwrap();
    }
    // remote drain: the response itself closes the connection
    let resp = client.shutdown_server().unwrap();
    assert!(resp.field("draining").unwrap().as_bool().unwrap());

    // all threads join; served count covers the traffic above
    let served = handle.join();
    assert!(served >= 4, "served {served}");

    // the port no longer accepts (give the OS a moment to tear down)
    let refused = (0..50).any(|_| {
        std::thread::sleep(Duration::from_millis(10));
        TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err()
    });
    assert!(refused, "listener should be closed after drain");
}

/// Spin until `cond` holds; fails loudly instead of hanging. Waiting on
/// state the server exposes (never on a fixed sleep) keeps the overload
/// test below independent of how fast the host schedules the acceptor.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// Overload answers immediately with `503 + Retry-After` instead of
/// blocking the acceptor, and a replay-safe client request rides the
/// backoff through the overload window and succeeds once it clears.
/// Every step is gated on the server's own counters: the worker stays
/// pinned exactly as long as the test holds `pin` open (the idle budget
/// is far longer than the test), and the overload clears exactly when
/// the test has seen the client's first attempt shed.
#[test]
fn overload_sheds_503_and_client_backoff_recovers() {
    let handle = serve(
        vec![(
            "fig1",
            expfinder_graph::fixtures::collaboration_fig1().graph,
        )],
        ServerConfig {
            workers: 1,
            keep_alive: Duration::from_secs(600),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();
    let counter = |path: [&str; 2]| {
        let doc = handle.metrics_json();
        let v = doc.field(path[0]).unwrap().field(path[1]).unwrap();
        v.as_i64().unwrap()
    };

    // pin the only worker: one served keep-alive connection held open
    let mut pin = TcpStream::connect(addr).unwrap();
    pin.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    pin.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // read until the head is complete — a single read may return a
    // partial TCP segment when the host is loaded
    let mut got = Vec::new();
    let mut buf = [0u8; 512];
    while !got.windows(4).any(|w| w == b"\r\n\r\n") {
        match pin.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => got.extend_from_slice(&buf[..n]),
        }
    }
    assert!(
        String::from_utf8_lossy(&got).contains("200 OK"),
        "{}",
        String::from_utf8_lossy(&got)
    );

    // fill the bounded queue (workers * 2 = 2) with idle connections;
    // the acceptor is one thread, so once it has counted both it cannot
    // reach a later connection before it has queued them
    let idle1 = TcpStream::connect(addr).unwrap();
    let idle2 = TcpStream::connect(addr).unwrap();
    wait_until("the acceptor to take both idle connections", || {
        counter(["connections", "opened"]) == 3
    });

    // the next connection must be shed, not queued: raw 503 with
    // Retry-After and Connection: close, answered while the worker is
    // still busy. The acceptor sheds on accept without reading, so the
    // test only reads — a request written into the closing socket could
    // draw a reset that discards the 503 before it is read
    let mut shed = TcpStream::connect(addr).unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut head = Vec::new();
    let mut byte = [0u8; 256];
    loop {
        match shed.read(&mut byte) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&byte[..n]),
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&head);
    assert!(head.contains("503 Service Unavailable"), "{head}");
    assert!(head.contains("Retry-After: 1"), "{head}");
    assert!(head.contains("Connection: close"), "{head}");
    assert_eq!(counter(["server", "shed"]), 1);

    // a replay-safe client request retries past the overload: its first
    // attempt is shed with Retry-After; only then does the overload
    // clear (closed connections cost the worker one read each), and
    // the retry lands on a free worker
    std::thread::scope(|s| {
        let client = s.spawn(move || {
            let mut client = Client::new(addr);
            client.set_timeout(Duration::from_secs(30));
            client.health().unwrap()
        });
        wait_until("the client's first attempt to be shed", || {
            counter(["server", "shed"]) == 2
        });
        drop((pin, idle1, idle2));
        let health = client.join().unwrap();
        assert_eq!(health.field("status").unwrap().as_str().unwrap(), "ok");
    });

    handle.shutdown();
}

// ---------------- deadlines & admission control ----------------------

/// An exhausted deadline answers 408 with partial stats in the error
/// body — while concurrent un-deadlined queries on other workers keep
/// answering 200 throughout. Afterwards the cancellation and deadline
/// counters have moved and the in-flight cost gauge has drained.
#[test]
fn deadline_answers_408_while_other_workers_serve() {
    let handle = serve(
        vec![(
            "fig1",
            expfinder_graph::fixtures::collaboration_fig1().graph,
        )],
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(move || {
                let mut client = Client::new(addr);
                for _ in 0..10 {
                    let resp = client
                        .query("fig1", &query_body(FIG1_DSL, None, "auto", false))
                        .unwrap();
                    assert_eq!(resp.field("pairs").unwrap().as_i64().unwrap(), 7);
                }
            });
        }
        s.spawn(move || {
            let mut client = Client::new(addr);
            for _ in 0..10 {
                let resp = client
                    .request(
                        "POST",
                        "/graphs/fig1/query",
                        Some(&query_body_deadline(FIG1_DSL, None, "auto", false, 0)),
                    )
                    .unwrap();
                assert_eq!(resp.status, 408, "{}", resp.body.to_string_compact());
                let err = resp.body.field("error").unwrap();
                assert_eq!(err.field("status").unwrap().as_i64().unwrap(), 408);
                let timings = err.field("timings").unwrap();
                assert!(timings.field("partial").unwrap().as_bool().unwrap());
                // the partial stats object is present with all four counters
                let eval = timings.field("eval").unwrap();
                for key in [
                    "refreshes",
                    "refreshes_skipped",
                    "bfs_nodes_visited",
                    "removals",
                ] {
                    assert!(eval.field(key).unwrap().as_i64().unwrap() >= 0, "{key}");
                }
            }
        });
    });

    let mut client = Client::new(addr);
    let m = client.metrics().unwrap();
    let cancel = m.field("engine").unwrap().field("cancel").unwrap();
    assert!(cancel.field("checked").unwrap().as_i64().unwrap() >= 10);
    assert!(cancel.field("fired").unwrap().as_i64().unwrap() >= 10);
    let deadline = m.field("server").unwrap().field("deadline").unwrap();
    assert_eq!(deadline.field("enforced").unwrap().as_i64().unwrap(), 10);
    assert_eq!(deadline.field("rejected").unwrap().as_i64().unwrap(), 0);
    // every RAII cost guard dropped: nothing in flight once all answered
    let gauge = m
        .field("server")
        .unwrap()
        .field("cost_in_flight")
        .unwrap()
        .as_f64()
        .unwrap();
    assert_eq!(gauge, 0.0);
    handle.shutdown();
}

/// The durable backend maps a fired deadline to the same 408 wire shape,
/// and the very next un-deadlined query on the same connection is
/// answered correctly — cancellation never poisons the writer's state.
#[test]
fn deadline_408_on_durable_backend_leaves_state_clean() {
    let dir = tmpdir("deadline");
    let rt = Arc::new(expfinder_runtime::DurableExpFinder::open(&dir, durable_config()).unwrap());
    rt.add_graph(
        "fig1",
        expfinder_graph::fixtures::collaboration_fig1().graph,
    )
    .unwrap();
    let handle = Server::bind_durable(rt, "127.0.0.1:0", ServerConfig::default())
        .unwrap()
        .spawn();
    let mut client = Client::new(handle.addr());

    let resp = client
        .request(
            "POST",
            "/graphs/fig1/query",
            Some(&query_body_deadline(FIG1_DSL, None, "auto", true, 0)),
        )
        .unwrap();
    assert_eq!(resp.status, 408, "{}", resp.body.to_string_compact());
    let err = resp.body.field("error").unwrap();
    assert!(err
        .field("timings")
        .unwrap()
        .field("partial")
        .unwrap()
        .as_bool()
        .unwrap());

    let ok = client
        .query("fig1", &query_body(FIG1_DSL, None, "auto", false))
        .unwrap();
    assert_eq!(ok.field("pairs").unwrap().as_i64().unwrap(), 7);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batch-level `deadline_ms` caps the whole batch: when the budget is
/// already spent, every slot reports 408 with partial stats — inside
/// the usual 200 envelope, like any other per-slot error.
#[test]
fn batch_deadline_expires_every_slot() {
    let handle = fig1_server();
    let mut client = Client::new(handle.addr());

    let body = Value::Object(BTreeMap::from([
        ("deadline_ms".to_owned(), Value::Int(0)),
        (
            "queries".to_owned(),
            Value::Array(vec![
                query_body(FIG1_DSL, Some(1), "auto", false),
                query_body("node sa* where label = \"SA\";", None, "direct", false),
            ]),
        ),
    ]));
    let resp = client
        .request("POST", "/graphs/fig1/batch", Some(&body))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body.to_string_compact());
    let results = resp.body.field("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 2);
    for slot in results {
        let err = slot.field("error").unwrap();
        assert_eq!(err.field("status").unwrap().as_i64().unwrap(), 408);
        assert!(err
            .field("timings")
            .unwrap()
            .field("partial")
            .unwrap()
            .as_bool()
            .unwrap());
    }

    let m = client.metrics().unwrap();
    let deadline = m.field("server").unwrap().field("deadline").unwrap();
    assert_eq!(deadline.field("enforced").unwrap().as_i64().unwrap(), 2);
    handle.shutdown();
}

/// `default_deadline_ms` applies to requests that do not ask for a
/// budget, and `max_deadline_ms` clamps requests that ask for more than
/// the operator allows.
#[test]
fn server_default_and_cap_deadlines_apply() {
    // server default: a plain query (no deadline_ms) inherits budget 0
    let handle = serve(
        vec![(
            "fig1",
            expfinder_graph::fixtures::collaboration_fig1().graph,
        )],
        ServerConfig {
            default_deadline_ms: Some(0),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::new(handle.addr());
    let resp = client
        .request(
            "POST",
            "/graphs/fig1/query",
            Some(&query_body(FIG1_DSL, None, "auto", false)),
        )
        .unwrap();
    assert_eq!(resp.status, 408, "{}", resp.body.to_string_compact());
    handle.shutdown();

    // cap: a request asking for a minute is clamped down to 0
    let handle = serve(
        vec![(
            "fig1",
            expfinder_graph::fixtures::collaboration_fig1().graph,
        )],
        ServerConfig {
            max_deadline_ms: Some(0),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::new(handle.addr());
    let resp = client
        .request(
            "POST",
            "/graphs/fig1/query",
            Some(&query_body_deadline(FIG1_DSL, None, "auto", false, 60_000)),
        )
        .unwrap();
    assert_eq!(resp.status, 408, "{}", resp.body.to_string_compact());
    handle.shutdown();
}

/// With an admission ceiling configured, a query whose planner estimate
/// exceeds it is rejected up front: 429 with `Retry-After`, nothing is
/// evaluated, and endpoints that bypass admission keep working.
#[test]
fn admission_ceiling_rejects_429_with_retry_after() {
    let handle = serve(
        vec![(
            "fig1",
            expfinder_graph::fixtures::collaboration_fig1().graph,
        )],
        ServerConfig {
            // far below any candidate's cost (≥ size × pattern_edges
            // scaled by fixed discounts), so every query is rejected
            admission_max_cost: Some(1e-6),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::new(handle.addr());

    let resp = client
        .request(
            "POST",
            "/graphs/fig1/query",
            Some(&query_body(FIG1_DSL, None, "auto", false)),
        )
        .unwrap();
    assert_eq!(resp.status, 429, "{}", resp.body.to_string_compact());
    assert_eq!(resp.retry_after, Some(1), "429 must carry Retry-After");
    let err = resp.body.field("error").unwrap();
    assert_eq!(err.field("status").unwrap().as_i64().unwrap(), 429);
    assert!(
        err.field("timings").is_err(),
        "no eval ran, no partial stats"
    );

    // health/metrics bypass admission; the rejection was counted and no
    // cost is stuck in flight
    let m = client.metrics().unwrap();
    let deadline = m.field("server").unwrap().field("deadline").unwrap();
    assert!(deadline.field("rejected").unwrap().as_i64().unwrap() >= 1);
    assert_eq!(deadline.field("enforced").unwrap().as_i64().unwrap(), 0);
    let gauge = m
        .field("server")
        .unwrap()
        .field("cost_in_flight")
        .unwrap()
        .as_f64()
        .unwrap();
    assert_eq!(gauge, 0.0);
    handle.shutdown();
}

/// A generous ceiling admits normal traffic unchanged: same results,
/// and the per-route gauge drains back to zero between requests.
#[test]
fn admission_ceiling_admits_within_budget_traffic() {
    let handle = serve(
        vec![(
            "fig1",
            expfinder_graph::fixtures::collaboration_fig1().graph,
        )],
        ServerConfig {
            admission_max_cost: Some(1e12),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::new(handle.addr());
    let resp = client
        .query("fig1", &query_body(FIG1_DSL, Some(2), "auto", true))
        .unwrap();
    assert_eq!(resp.field("pairs").unwrap().as_i64().unwrap(), 7);
    let m = client.metrics().unwrap();
    assert_eq!(
        m.field("server")
            .unwrap()
            .field("deadline")
            .unwrap()
            .field("rejected")
            .unwrap()
            .as_i64()
            .unwrap(),
        0
    );
    handle.shutdown();
}
