//! `recovery_smoke` — the crash-recovery harness behind the
//! `recovery-smoke` CI job (and `just recovery-smoke`).
//!
//! Drives the durability claim end to end, out of process:
//!
//! 1. boot `serve --data-dir <fresh>` with the fig1 fixture and apply
//!    three update batches over the wire (each WAL-appended and fsynced
//!    before it is applied);
//! 2. `kill -9` the server — no drain, no snapshot — restart it on the
//!    same data dir, and assert the query answers are **bit-identical**
//!    (the full per-variable match sets, not just counts) to an
//!    in-memory oracle that applied the same updates;
//! 3. `kill -9` again, chop bytes off the WAL tail to fake a crash
//!    mid-append, restart, and assert the torn final frame is dropped,
//!    reported in `/metrics`, and everything before it recovers —
//!    bit-identical to the shorter oracle.
//!
//! ```text
//! recovery_smoke [--server-bin path/to/serve] [--log <prefix>]
//!                [--data-dir <dir>]
//! ```
//!
//! Logs are written as `<prefix>.boot1.log` / `.boot2.log` /
//! `.boot3.log` so CI can archive each life of the server. Pass
//! `--data-dir` to put the snapshot + WAL somewhere CI can upload as
//! an artifact too (the dir is wiped first, and kept on failure).

mod common;

use common::{i64_at, options, server_bin, Harness};
use expfinder_core::bounded_simulation;
use expfinder_graph::json::Value;
use expfinder_graph::{DiGraph, EdgeUpdate};
use expfinder_pattern::Pattern;
use expfinder_server::client::{query_body, Client};
use std::net::SocketAddr;
use std::process::Child;
use std::time::Duration;

/// Boot `serve` on the data dir and wait for the discovery line.
fn boot(server_bin: &str, data_dir: &str, log: &str) -> (Child, SocketAddr) {
    common::boot(server_bin, &["--data-dir", data_dir, "--log", log])
}

/// SIGKILL — the whole point: no drain, no flush, no goodbye.
fn kill9(mut child: Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// The per-variable match sets the oracle expects, encoded exactly as
/// the wire does (`{var: [node ids, ascending]}`), so comparing JSON
/// values compares the relation bit for bit.
fn oracle_matches(graph: &DiGraph, pattern: &Pattern) -> Value {
    let rel = bounded_simulation(graph, pattern).expect("oracle evaluation");
    Value::Object(
        pattern
            .ids()
            .map(|u| {
                let ids: Vec<Value> = rel
                    .matches_vec(u)
                    .into_iter()
                    .map(|v| Value::Int(v.0 as i64))
                    .collect();
                (pattern.node(u).name.clone(), Value::Array(ids))
            })
            .collect(),
    )
}

/// Query the recovered server and compare the full match sets (and the
/// pair count) against the oracle graph.
fn check_bit_identical(
    h: &mut Harness,
    client: &mut Client,
    what: &str,
    oracle: &DiGraph,
    pattern: &Pattern,
) {
    let resp = client
        .query(
            "fig1",
            &query_body(&pattern.to_string(), None, "auto", true),
        )
        .expect("query after recovery");
    let want = oracle_matches(oracle, pattern);
    let got = resp.field("matches").ok().cloned().unwrap_or(Value::Null);
    let want_pairs = bounded_simulation(oracle, pattern)
        .expect("oracle evaluation")
        .total_pairs() as i64;
    h.check(
        what,
        got == want && i64_at(&resp, &["pairs"]) == want_pairs,
        || {
            format!(
                "pairs {} (want {want_pairs})\n got: {}\nwant: {}",
                i64_at(&resp, &["pairs"]),
                got.to_string_compact(),
                want.to_string_compact()
            )
        },
    );
}

fn main() {
    let [server_bin_flag, log_flag, data_dir_flag] =
        options(["--server-bin", "--log", "--data-dir"]);
    let server_bin = server_bin(server_bin_flag);
    let log_prefix = log_flag.unwrap_or_else(|| "recovery-smoke".to_owned());

    // an explicit dir is a request to archive it (CI artifacts): keep
    // the snapshot + repaired WAL around even on success
    let keep_data = data_dir_flag.is_some();
    let data_dir = match data_dir_flag {
        Some(d) => std::path::PathBuf::from(d),
        None => {
            std::env::temp_dir().join(format!("expfinder_recovery_smoke_{}", std::process::id()))
        }
    };
    let _ = std::fs::remove_dir_all(&data_dir);
    let data_dir_arg = data_dir.to_string_lossy().into_owned();
    let mut h = Harness::new("recovery smoke", None);

    let fixture = expfinder_graph::fixtures::collaboration_fig1();
    let pattern = expfinder_pattern::fixtures::fig1_pattern();
    let e1 = fixture.e1;
    // three single-update batches = three WAL frames; the last one is
    // the torn-tail victim in phase 3
    let batches: Vec<Vec<EdgeUpdate>> = vec![
        vec![EdgeUpdate::Insert(e1.0, e1.1)],
        vec![EdgeUpdate::Delete(e1.0, e1.1)],
        vec![EdgeUpdate::Insert(e1.0, e1.1)],
    ];

    // ---- phase 1: seed, update, kill -9 ----
    println!("phase 1: boot {server_bin} on {data_dir_arg}, update, kill -9");
    let (child, addr) = boot(
        &server_bin,
        &data_dir_arg,
        &format!("{log_prefix}.boot1.log"),
    );
    let mut client = Client::new(addr);
    client.set_timeout(Duration::from_secs(10));
    for batch in &batches {
        let report = client.updates("fig1", batch).expect("updates accepted");
        h.check(
            "update batch applied",
            i64_at(&report, &["applied"]) == 1,
            || report.to_string_compact(),
        );
    }
    kill9(child);
    println!("killed -9 with {} batches in the WAL", batches.len());

    // ---- phase 2: restart, replay, bit-identical to the full oracle ----
    println!("phase 2: restart on the same data dir");
    let (child, addr) = boot(
        &server_bin,
        &data_dir_arg,
        &format!("{log_prefix}.boot2.log"),
    );
    let mut client = Client::new(addr);
    client.set_timeout(Duration::from_secs(10));
    let metrics = client.metrics().expect("metrics after restart");
    h.check(
        "restart replayed every batch from the WAL",
        i64_at(&metrics, &["engine", "wal", "replayed_frames"]) == batches.len() as i64
            && i64_at(&metrics, &["engine", "wal", "truncated_tails"]) == 0,
        || metrics.to_string_compact(),
    );
    let mut oracle = fixture.graph.clone();
    for batch in &batches {
        for &up in batch {
            oracle.apply(up);
        }
    }
    check_bit_identical(
        &mut h,
        &mut client,
        "recovered match sets are bit-identical to the in-memory oracle",
        &oracle,
        &pattern,
    );
    kill9(child);

    // ---- phase 3: tear the WAL tail, restart, lose only the last batch ----
    println!("phase 3: tear the WAL tail, restart");
    let wal_path = data_dir.join("fig1.wal");
    let mut bytes = std::fs::read(&wal_path).expect("read WAL");
    let torn_len = bytes.len() - 3;
    bytes.truncate(torn_len);
    std::fs::write(&wal_path, &bytes).expect("tear WAL tail");
    println!("tore fig1.wal to {torn_len} bytes");

    let (child, addr) = boot(
        &server_bin,
        &data_dir_arg,
        &format!("{log_prefix}.boot3.log"),
    );
    let mut client = Client::new(addr);
    client.set_timeout(Duration::from_secs(10));
    let metrics = client.metrics().expect("metrics after torn restart");
    h.check(
        "torn final frame is detected and dropped",
        i64_at(&metrics, &["engine", "wal", "replayed_frames"]) == batches.len() as i64 - 1
            && i64_at(&metrics, &["engine", "wal", "truncated_tails"]) == 1,
        || metrics.to_string_compact(),
    );
    let mut torn_oracle = fixture.graph.clone();
    for batch in &batches[..batches.len() - 1] {
        for &up in batch {
            torn_oracle.apply(up);
        }
    }
    check_bit_identical(
        &mut h,
        &mut client,
        "surviving prefix is bit-identical to the shorter oracle",
        &torn_oracle,
        &pattern,
    );
    // the repair persisted: the torn frame is physically gone
    let repaired = std::fs::metadata(&wal_path).map(|m| m.len()).unwrap_or(0);
    h.check(
        "torn tail was truncated in place",
        repaired < torn_len as u64,
        || format!("{repaired} bytes on disk, torn file was {torn_len}"),
    );
    kill9(child);

    // keep the data dir on failure so CI can archive it as an artifact
    if h.failures == 0 {
        if !keep_data {
            let _ = std::fs::remove_dir_all(&data_dir);
        }
        println!("recovery smoke OK: kill -9 replay, torn-tail tolerance, bit-identical answers");
    } else {
        eprintln!(
            "recovery smoke FAILED: {} check(s); data dir kept at {}",
            h.failures,
            data_dir.display()
        );
        std::process::exit(1);
    }
}
