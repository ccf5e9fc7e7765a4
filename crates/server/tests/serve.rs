//! Integration tests for the serving layer, over real TCP sockets.
//!
//! The centerpiece mirrors PR 1's concurrency oracle at the HTTP level:
//! M client threads race queries against a writer posting `/updates`,
//! and every response must carry the naive oracle's matches for the
//! graph at the `graph_version` the response reports. The rest covers the endpoint surface end-to-end,
//! malformed-request robustness (4xx, never a worker panic) and the
//! graceful drain.

use expfinder_core::naive::naive_bounded_simulation;
use expfinder_engine::ExpFinder;
use expfinder_graph::generate::{collaboration, random_updates, CollabConfig};
use expfinder_graph::json::Value;
use expfinder_graph::{DiGraph, EdgeUpdate, GraphView};
use expfinder_pattern::Pattern;
use expfinder_server::client::{query_body, query_body_deadline, Client};
use expfinder_server::metrics::RouteKey;
use expfinder_server::{Backend, ClientError, Server, ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
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
    Server::bind(Backend::Local(engine), "127.0.0.1:0", config)
        .unwrap()
        .spawn()
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

    // unknown graph / unknown route statuses: without an admission
    // ceiling nothing is estimated, so the read itself answers 404
    match client.query("ghost", &query_body(FIG1_DSL, None, "auto", false)) {
        Err(ClientError::Status { status: 404, .. }) => {}
        other => panic!("expected 404, got {other:?}"),
    }
    let slot = query_body(FIG1_DSL, None, "auto", false);
    match client.batch("ghost", vec![slot]) {
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
/// graph version and is a lookup every other time, a `/batch` slot as
/// much as a single `/query` — gated on the counts `GET /metrics`
/// reports, not on time.
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
    // the candidates ranked to the end and given up on: fig1's two SA
    // matches, both in a top 2
    let searched = |client: &mut Client| {
        let metrics = client.metrics().unwrap();
        let rank = metrics.field("engine").unwrap().field("rank").unwrap();
        let count = |key| rank.field(key).unwrap().as_i64().unwrap();
        (count("candidates"), count("pruned"))
    };
    let body = query_body(FIG1_DSL, Some(2), "auto", false);
    let experts = |resp: &Value| resp.field("experts").unwrap().to_string_compact();
    // a batch slot's experts carry no names: its (node, rank) pairs
    let ranked = |resp: &Value| {
        let pair = |e: &Value| {
            let node = e.field("node").unwrap().as_i64().unwrap();
            (node, e.field("rank").unwrap().as_f64().unwrap().to_bits())
        };
        let list = resp.field("experts").unwrap().as_array().unwrap();
        list.iter().map(pair).collect::<Vec<_>>()
    };

    let slots = |client: &mut Client, bodies: Vec<Value>| {
        let batch = client.batch("fig1", bodies).unwrap();
        let results = batch.field("results").unwrap().as_array().unwrap();
        let ok = |r: &Value| r.field("ok").unwrap().clone();
        results.iter().map(ok).collect::<Vec<_>>()
    };

    assert_eq!(rank_counts(&mut client), (0, 0));
    let first = client.query("fig1", &body).unwrap();
    assert_eq!(first.field("route").unwrap().as_str().unwrap(), "snapshot");
    // a batch slot is a read like any other: served from the list
    let batch = slots(&mut client, vec![body.clone(); N as usize]);
    assert_eq!(ranked(&batch[0]), ranked(&first));
    for slot in &batch {
        assert_eq!(slot.field("route").unwrap().as_str().unwrap(), "cache");
        assert_eq!(
            experts(slot),
            experts(&batch[0]),
            "same bytes from the slot"
        );
    }
    assert_eq!(rank_counts(&mut client), (1, N));
    for _ in 1..N {
        let again = client.query("fig1", &body).unwrap();
        assert_eq!(again.field("route").unwrap().as_str().unwrap(), "cache");
        assert_eq!(experts(&again), experts(&first), "same bytes from the slot");
    }
    assert_eq!(rank_counts(&mut client), (1, 2 * N - 1));
    assert_eq!(searched(&mut client), (2, 0), "a slot hit ranks no one");

    // a slot asking for more than the list was computed for cannot know
    // whether a third candidate exists: it ranks, and the list it fills
    // is complete, so every k is a lookup after it
    let more = query_body(FIG1_DSL, Some(3), "auto", false);
    let upgraded = slots(&mut client, vec![more.clone()]);
    assert_eq!(
        ranked(&upgraded[0]),
        ranked(&first),
        "two SA matches in all"
    );
    assert_eq!(rank_counts(&mut client), (2, 2 * N - 1));
    assert_eq!(searched(&mut client), (4, 0));
    let wide = query_body(FIG1_DSL, Some(50), "auto", false);
    for slot in slots(&mut client, vec![more, wide, body.clone()]) {
        assert_eq!(experts(&slot), experts(&batch[0]));
    }
    assert_eq!(rank_counts(&mut client), (2, 2 * N + 2));

    // any update moves the version: the next answer is ranked afresh
    let f = expfinder_graph::fixtures::collaboration_fig1();
    client
        .updates("fig1", &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
        .unwrap();
    slots(&mut client, vec![body.clone()]);
    assert_eq!(rank_counts(&mut client), (3, 2 * N + 2));
    assert_eq!(searched(&mut client), (6, 0));
    client.query("fig1", &body).unwrap();
    assert_eq!(rank_counts(&mut client), (3, 2 * N + 3));
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
            relation_as_wire(&pattern, &naive_bounded_simulation(&g, &pattern)),
        );
        for &up in &updates {
            if g.apply(up) {
                expected.insert(
                    g.version() as i64,
                    relation_as_wire(&pattern, &naive_bounded_simulation(&g, &pattern)),
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
        engine: expfinder_engine::EngineConfig::sequential(),
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
    let handle = Server::bind(Backend::Durable(rt), "127.0.0.1:0", ServerConfig::default())
        .unwrap()
        .spawn();
    assert_push_matches_poll(&handle);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn subscription_filters_and_rejections() {
    // each live subscription holds one of the 3 × workers connection
    // slots; leave headroom for the refused subscribe attempts below
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

    // drain while the stream is live: the stream's thread notices within
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
        let handle = Server::bind(Backend::Durable(rt), "127.0.0.1:0", ServerConfig::default())
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
    let handle = Server::bind(Backend::Durable(rt), "127.0.0.1:0", ServerConfig::default())
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

/// A graph name is a file stem on the durable backend, so both backends
/// cap it at 247 bytes, which leaves room for its longest derived file,
/// `<name>.efg.tmp`, under the usual 255-byte limit. 247 bytes is a 201 on
/// both, and the durable graph reopens after a restart; 248 bytes, in one-
/// or two-byte characters, is a 400 on both.
#[test]
fn a_graph_name_is_capped_alike_on_both_backends() {
    let dir = tmpdir("long_name");
    let open =
        || Arc::new(expfinder_runtime::DurableExpFinder::open(&dir, durable_config()).unwrap());
    let f = expfinder_graph::fixtures::collaboration_fig1();
    let longest = "g".repeat(247);
    for backend in [
        Backend::Local(Arc::new(ExpFinder::default())),
        Backend::Durable(open()),
    ] {
        let handle = Server::bind(backend, "127.0.0.1:0", ServerConfig::default())
            .unwrap()
            .spawn();
        let mut client = Client::new(handle.addr());
        client.add_graph(&longest, &f.graph).unwrap();
        for name in ["g".repeat(248), "é".repeat(124)] {
            match client.add_graph(&name, &f.graph) {
                Err(ClientError::Status {
                    status: 400,
                    message,
                }) => assert!(message.starts_with("invalid graph name"), "{message}"),
                other => panic!("expected 400, got {other:?}"),
            }
        }
        handle.shutdown();
    }
    let rt = open();
    let h = rt.handle(&longest).unwrap();
    let edges = rt.read_graph(&h, DiGraph::edge_count).unwrap();
    assert_eq!(edges, f.graph.edge_count());
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

/// A client that opens a fresh connection per request is answered as
/// soon as the acceptor can take it: the acceptor blocks in `accept`
/// instead of polling, so the median `/healthz` round trip over 21 fresh
/// connections stays far below the old 25 ms poll. The drain still
/// joins, woken by its own connection, which no metric counts.
#[test]
fn a_fresh_connection_is_accepted_without_a_poll() {
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
    let mut rtts: Vec<Duration> = (0..21)
        .map(|_| {
            let started = Instant::now();
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
                .unwrap();
            let mut reply = String::new();
            s.read_to_string(&mut reply).unwrap();
            assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
            started.elapsed()
        })
        .collect();
    rtts.sort();
    assert!(rtts[10] < Duration::from_millis(5), "median {:?}", rtts[10]);

    // a remote drain wakes the acceptor; once the port refuses, the
    // acceptor is gone, and only the 21 clients and the drain's own
    // request were counted
    Client::new(addr).shutdown_server().unwrap();
    wait_until("the listener to close", || {
        TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err()
    });
    let doc = handle.metrics_json();
    assert_eq!(metric(&doc, "connections.opened"), 22);
    handle.join();
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

    // two idle connections reach the cap of 3 × workers = 3 live ones;
    // the acceptor is one thread, so once it has counted both it cannot
    // reach a later connection before it has given them their threads
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

/// Send one keep-alive `/healthz` on a fresh connection and read the
/// reply's head, leaving the connection open and idle.
fn idle_after_healthz(addr: SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut got = Vec::new();
    let mut buf = [0u8; 512];
    while !got.windows(4).any(|w| w == b"\r\n\r\n") {
        match s.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => got.extend_from_slice(&buf[..n]),
        }
    }
    let head = String::from_utf8_lossy(&got);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    s
}

/// An idle keep-alive client holds only its own connection thread: with
/// two workers, two clients that sent one request each and went idle do
/// not delay a third client's `/healthz` (it waited out the 30 s idle
/// budget behind them while each held a pool worker). A drain with
/// those idle connections and a live subscription still open returns,
/// and closes every one of them.
#[test]
fn idle_keep_alive_clients_do_not_stall_a_third() {
    let handle = serve(
        vec![(
            "fig1",
            expfinder_graph::fixtures::collaboration_fig1().graph,
        )],
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();
    let idle = [idle_after_healthz(addr), idle_after_healthz(addr)];

    let mut third = Client::new(addr);
    third.set_timeout(Duration::from_secs(5));
    let started = Instant::now();
    third.health().unwrap();
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_secs(1),
        "third client waited {waited:?}"
    );

    let mut sub = third.subscribe("fig1", None).unwrap();
    let hello = sub.next_frame().unwrap().unwrap();
    assert_eq!(hello.field("frame").unwrap().as_str().unwrap(), "hello");

    handle.shutdown();
    for mut s in idle {
        let mut rest = Vec::new();
        s.read_to_end(&mut rest)
            .expect("the drain closes an idle connection");
    }
    let bye = sub.next_frame().unwrap().unwrap();
    assert_eq!(bye.field("frame").unwrap().as_str().unwrap(), "bye");
}

/// A subscriber that hangs up while no update commits is dropped within
/// a poll interval: its thread sees the closed socket without a frame to
/// fail on, so `subscriptions.live` returns to 0 and the connection is
/// counted closed.
#[test]
fn a_subscriber_that_hangs_up_is_dropped_without_an_update() {
    let handle = fig1_server();
    let mut sub = Client::new(handle.addr()).subscribe("fig1", None).unwrap();
    let hello = sub.next_frame().unwrap().unwrap();
    assert_eq!(hello.field("frame").unwrap().as_str().unwrap(), "hello");
    let doc = handle.metrics_json();
    assert_eq!(metric(&doc, "subscriptions.live"), 1);
    let closed = metric(&doc, "connections.closed");

    drop(sub);
    wait_until("the hung-up subscriber to be removed", || {
        let doc = handle.metrics_json();
        metric(&doc, "subscriptions.live") == 0 && metric(&doc, "connections.closed") > closed
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
    let handle = Server::bind(Backend::Durable(rt), "127.0.0.1:0", ServerConfig::default())
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
    let health = client.health().unwrap();
    assert_eq!(health.field("status").unwrap().as_str().unwrap(), "ok");
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

// ------------------------ the real `serve` binary ------------------------

/// A `serve` child process on an ephemeral port, killed on drop (so a
/// failed assertion never leaks it). Its stdin stays piped: `serve`
/// drains when that pipe closes.
struct ServeBin {
    child: std::process::Child,
    addr: std::net::SocketAddr,
    log: std::path::PathBuf,
}

impl ServeBin {
    /// Spawn `serve --addr 127.0.0.1:0 --fixture fig1 --log <tmp>` plus
    /// `args`, and read the `listening on <addr>` line it prints once the
    /// socket is bound. A reader thread waits for it, so a binary that
    /// never prints it fails the test instead of hanging it.
    fn boot(tag: &str, args: &[&str]) -> ServeBin {
        use std::io::BufRead;
        use std::process::{Command, Stdio};
        // one log per boot: two tests may boot under one tag at once
        static BOOTS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let boot = BOOTS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let pid = std::process::id();
        let log = std::env::temp_dir().join(format!("expfinder_bin_{tag}_{pid}_{boot}.log"));
        let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--addr", "127.0.0.1:0", "--fixture", "fig1", "--log"])
            .arg(&log)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let stdout = child.stdout.take().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut line = String::new();
            let _ = std::io::BufReader::new(stdout).read_line(&mut line);
            let _ = tx.send(line);
        });
        let mut bin = ServeBin {
            child,
            addr: "0.0.0.0:0".parse().unwrap(),
            log,
        };
        let line = rx.recv_timeout(Duration::from_secs(60)).unwrap_or_default();
        bin.addr = match line.trim().strip_prefix("listening on ") {
            Some(addr) => addr.parse().unwrap(),
            None => panic!("no `listening on` line, got {line:?}"),
        };
        bin
    }

    fn client(&self) -> Client {
        let mut client = Client::new(self.addr);
        client.set_timeout(Duration::from_secs(30));
        client
    }

    /// Wait for the process: it exits 0 and its log records boot and drain.
    /// A watchdog kills a process that never drains, so the test fails
    /// instead of hanging.
    fn assert_drained(&mut self) {
        let (drained, watchdog) = std::sync::mpsc::channel::<()>();
        let pid = self.child.id().to_string();
        std::thread::spawn(move || {
            let timeout = std::sync::mpsc::RecvTimeoutError::Timeout;
            if watchdog.recv_timeout(Duration::from_secs(60)) == Err(timeout) {
                let _ = std::process::Command::new("kill").arg(pid).status();
            }
        });
        let status = self.child.wait().unwrap();
        drop(drained);
        assert!(status.success(), "{status:?}");
        let log = std::fs::read_to_string(&self.log).unwrap();
        assert!(log.contains("listening on 127.0.0.1:"), "{log}");
        assert!(log.contains("drained and stopped"), "{log}");
    }
}

impl Drop for ServeBin {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.log);
    }
}

/// The integer at a dotted `/metrics` path (`"engine.wal.fsyncs"`).
fn metric(doc: &Value, path: &str) -> i64 {
    let v = path.split('.').fold(doc, |v, k| v.field(k).unwrap());
    v.as_i64().unwrap()
}

/// Every leaf's key path in a JSON document (`engine.wal.fsyncs`), an
/// array read as its first element (`graphs[].name`; an empty one is
/// the leaf `graphs[]`).
fn key_paths(doc: &Value) -> BTreeSet<String> {
    fn walk(v: &Value, path: String, out: &mut BTreeSet<String>) {
        match v {
            Value::Object(map) => {
                for (k, child) in map {
                    let sep = if path.is_empty() { "" } else { "." };
                    walk(child, format!("{path}{sep}{k}"), out);
                }
            }
            Value::Array(items) => match items.first() {
                Some(first) => walk(first, format!("{path}[]"), out),
                None => drop(out.insert(format!("{path}[]"))),
            },
            _ => drop(out.insert(path)),
        }
    }
    let mut out = BTreeSet::new();
    walk(doc, String::new(), &mut out);
    out
}

/// The key paths of the example in PROTOCOL's `GET /metrics` section,
/// its `"<route>"` entry expanded over every route family.
fn documented_metric_keys() -> BTreeSet<String> {
    let spec = include_str!("../../../docs/PROTOCOL.md");
    let section = spec.split("### `GET /metrics`").nth(1).unwrap();
    let example = section.split("```json\n").nth(1).unwrap();
    let example = example.split("```").next().unwrap();
    let doc = expfinder_graph::json::parse(example).expect("the example parses");
    let names = RouteKey::ALL.map(RouteKey::name);
    key_paths(&doc)
        .into_iter()
        .flat_map(|path| match path.contains("<route>") {
            true => names.map(|n| path.replace("<route>", n)).to_vec(),
            false => vec![path],
        })
        .collect()
}

/// `/metrics` emits exactly the key tree PROTOCOL documents, in memory
/// and on a data dir: no key the example lacks, none it shows missing.
#[test]
fn metrics_key_tree_matches_the_protocol_example() {
    let documented = documented_metric_keys();
    let dir = tmpdir("key_tree");
    let rt = expfinder_runtime::DurableExpFinder::open(&dir, durable_config()).unwrap();
    let fig1 = expfinder_graph::fixtures::collaboration_fig1().graph;
    rt.add_graph("fig1", fig1).unwrap();
    let durable = Server::bind(
        Backend::Durable(Arc::new(rt)),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap()
    .spawn();
    for (tag, handle) in [("memory", fig1_server()), ("durable", durable)] {
        let emitted = key_paths(&Client::new(handle.addr()).metrics().unwrap());
        let undocumented: Vec<_> = emitted.difference(&documented).collect();
        let missing: Vec<_> = documented.difference(&emitted).collect();
        assert!(
            undocumented.is_empty() && missing.is_empty(),
            "{tag}: emitted but not in PROTOCOL's example: {undocumented:?}; \
             in the example but not emitted: {missing:?}"
        );
        handle.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The deployment shape end to end: a durable boot (`--data-dir`,
/// `--workers`, `--allow-shutdown`) serves, pushes ΔM, drains on
/// `POST /admin/shutdown` with a `bye` frame and leaves one `.efg` per
/// graph and a `.wal`; an in-memory boot drains on stdin EOF; both export
/// the same `/metrics` key set.
#[test]
fn serve_binary_boots_both_backends_and_drains() {
    let dir = tmpdir("bin_durable");
    let mut bin = ServeBin::boot(
        "durable",
        &[
            "--data-dir",
            dir.to_str().unwrap(),
            "--workers",
            "4",
            "--allow-shutdown",
        ],
    );
    let boot_log = std::fs::read_to_string(&bin.log).unwrap();
    assert!(boot_log.contains("with 4 workers"), "{boot_log}");
    let mut client = bin.client();
    let health = client.health().unwrap();
    assert_eq!(health.field("graphs").unwrap().as_i64().unwrap(), 1);
    let mut tiny = DiGraph::new();
    tiny.add_node("SA", []);
    client.add_graph("tiny", &tiny).unwrap();
    let resp = client
        .query("fig1", &query_body(FIG1_DSL, Some(2), "auto", false))
        .unwrap();
    assert_eq!(resp.field("pairs").unwrap().as_i64().unwrap(), 7);

    client.register("fig1", "team", FIG1_DSL).unwrap();
    let mut sub = client.subscribe("fig1", None).unwrap();
    let hello = sub.next_frame().unwrap().unwrap();
    assert_eq!(hello.field("frame").unwrap().as_str().unwrap(), "hello");
    let f = expfinder_graph::fixtures::collaboration_fig1();
    let report = client
        .updates("fig1", &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
        .unwrap();
    let frame = sub.next_frame().unwrap().unwrap();
    assert_eq!(
        frame.field("report").unwrap().to_string_compact(),
        report.to_string_compact()
    );
    let durable_metrics = client.metrics().unwrap();
    for key in [
        "engine.cache.misses",
        "engine.eval.refreshes",
        "engine.wal.appends",
        "engine.wal.fsyncs",
        "subscriptions.live",
    ] {
        assert!(metric(&durable_metrics, key) >= 1, "{key}");
    }

    let drain = client.shutdown_server().unwrap();
    assert!(drain.field("draining").unwrap().as_bool().unwrap());
    let bye = sub.next_frame().unwrap().unwrap();
    assert_eq!(bye.field("frame").unwrap().as_str().unwrap(), "bye");
    assert_eq!(bye.field("reason").unwrap().as_str().unwrap(), "drain");
    bin.assert_drained();
    for file in ["fig1.efg", "fig1.wal", "tiny.efg"] {
        assert!(dir.join(file).is_file(), "no {file} in the data dir");
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut bin = ServeBin::boot("memory", &[]);
    let memory_metrics = bin.client().metrics().unwrap();
    drop(bin.child.stdin.take());
    bin.assert_drained();
    assert_eq!(key_paths(&memory_metrics), key_paths(&durable_metrics));
    for key in [
        "engine.index.carried",
        "engine.rank.reused",
        "engine.cancel.fired",
        "engine.wal.fsyncs",
        "engine.faults.injected",
        "server.shed",
        "server.deadline.rejected",
    ] {
        assert_eq!(metric(&memory_metrics, key), 0, "{key}");
    }
}

/// The serving-policy flags reach the server: a default budget of 0 and
/// a cap of 0 each turn a query into a 408, and an admission ceiling below
/// fig1's estimate turns it into a 429 with `Retry-After` — each on its
/// own boot, drained by closing stdin.
#[test]
fn serve_binary_applies_deadline_and_admission_flags() {
    let plain = query_body(FIG1_DSL, None, "auto", false);
    let asks_a_minute = query_body_deadline(FIG1_DSL, None, "auto", false, 60_000);
    let cases = [
        ("--default-deadline-ms", "0", &plain, 408),
        ("--default-deadline-ms", "0", &asks_a_minute, 200),
        ("--max-deadline-ms", "0", &asks_a_minute, 408),
        ("--admission-max-cost", "0.000001", &plain, 429),
    ];
    for (flag, value, body, status) in cases {
        let mut bin = ServeBin::boot("flags", &[flag, value]);
        let resp = bin
            .client()
            .request("POST", "/graphs/fig1/query", Some(body))
            .unwrap();
        let shown = resp.body.to_string_compact();
        assert_eq!(resp.status, status, "{flag} {value}: {shown}");
        if status == 408 {
            let err = resp.body.field("error").unwrap();
            let partial = err.field("timings").unwrap().field("partial").unwrap();
            assert!(partial.as_bool().unwrap(), "{shown}");
        }
        assert_eq!(resp.retry_after, (status == 429).then_some(1), "{shown}");
        drop(bin.child.stdin.take());
        bin.assert_drained();
    }
}

/// A condition nested 3 000 parentheses deep (a 6 KB body) is a 400 on
/// `/query` and `/register` and fails only its own `/batch` slot, on
/// both backends; the worker that parsed it keeps serving. Without the
/// parser's nesting cap the text would overflow the worker's stack and
/// abort the process. The cap holds the printed text too: 64 nested
/// `not`s print at the cap, register with 201 on both backends and, on
/// the durable one, read `registered` after a restart; 65 print past it
/// and are a 400 on both, not a durable 500.
#[test]
fn serve_binary_refuses_a_deeply_nested_condition() {
    let deep = format!(
        "node a* where {}label = \"SA\"{};",
        "(".repeat(3000),
        ")".repeat(3000)
    );
    let register_body = |name: &str, pattern: &str| {
        Value::Object(BTreeMap::from([
            ("name".to_owned(), Value::Str(name.to_owned())),
            ("pattern".to_owned(), Value::Str(pattern.to_owned())),
        ]))
    };
    let register = register_body("deep", &deep);
    let nots = |n: usize| format!("node a* where {}label = \"SA\";", "not ".repeat(n));
    let batch = Value::Object(BTreeMap::from([(
        "queries".to_owned(),
        Value::Array(vec![
            query_body(&deep, None, "auto", false),
            query_body(FIG1_DSL, None, "auto", false),
        ]),
    )]));
    let dir = tmpdir("bin_deep");
    let data_dir = ["--data-dir", dir.to_str().unwrap()];
    for (tag, args) in [("memory", &[][..]), ("durable", &data_dir[..])] {
        let mut bin = ServeBin::boot(tag, args);
        let mut client = bin.client();
        for (path, body) in [
            ("/graphs/fig1/query", query_body(&deep, None, "auto", false)),
            ("/graphs/fig1/register", register.clone()),
        ] {
            let resp = client.request("POST", path, Some(&body)).unwrap();
            let shown = resp.body.to_string_compact();
            assert_eq!(resp.status, 400, "{tag} {path}: {shown}");
            assert!(shown.contains("nested deeper than 128"), "{shown}");
        }
        let resp = client
            .request("POST", "/graphs/fig1/batch", Some(&batch))
            .unwrap();
        assert_eq!(resp.status, 200, "{tag}: {}", resp.body.to_string_compact());
        let results = resp.body.field("results").unwrap().as_array().unwrap();
        let err = results[0].field("error").unwrap();
        assert_eq!(err.field("status").unwrap().as_i64().unwrap(), 400);
        let ok = results[1].field("ok").unwrap();
        assert_eq!(ok.field("pairs").unwrap().as_i64().unwrap(), 7);
        let health = client.request("GET", "/healthz", None).unwrap();
        assert_eq!(health.status, 200, "{tag}");
        for (n, status) in [(64, 201), (65, 400)] {
            let body = register_body(&format!("nots{n}"), &nots(n));
            let resp = client
                .request("POST", "/graphs/fig1/register", Some(&body))
                .unwrap();
            let shown = resp.body.to_string_compact();
            assert_eq!(resp.status, status, "{tag} {n} nots: {shown}");
        }
        drop(bin.child.stdin.take());
        bin.assert_drained();
    }
    let mut bin = ServeBin::boot("durable", &data_dir);
    let resp = bin
        .client()
        .query("fig1", &query_body(&nots(64), None, "auto", false))
        .unwrap();
    assert_eq!(resp.field("route").unwrap().as_str().unwrap(), "registered");
    drop(bin.child.stdin.take());
    bin.assert_drained();
    let _ = std::fs::remove_dir_all(&dir);
}
