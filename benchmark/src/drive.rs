//! Driving `serve` over TCP: set-up, the closed loop of one lap, and
//! crash recovery.
//!
//! The load is a **closed loop with one client connection** plus one
//! `/subscribe` connection: the next request goes out only after the
//! previous response is complete. Callers of this API wait for their
//! answer; and on a two-core host an open loop would measure the
//! scheduler, not the server.

use crate::http::{Conn, Frame, Subscriber};
use crate::process::{RunDir, Serve};
use crate::verify::{keeps_body, parse_json, Kept, Mirror};
use crate::workload::{Inputs, Op, OpKind, GRAPH_NAME, REGISTERED};
use expfinder_graph::json::Value;
use std::path::Path;
use std::time::{Duration, Instant};

/// How long a pushed frame may lag its update before the update counts
/// as failed.
const FRAME_TIMEOUT: Duration = Duration::from_secs(10);

/// A server with the graph loaded, the queries registered, the
/// subscriber attached and the warm-up done.
pub struct Session {
    pub serve: Serve,
    pub conn: Conn,
    pub sub: Subscriber,
}

impl Session {
    /// Kill the server and wait for the subscriber thread, which its
    /// death ends.
    pub fn shut_down(self) {
        self.serve.kill();
        self.sub.join();
    }
}

fn io_err(what: &str, e: std::io::Error) -> String {
    format!("{what}: {e}")
}

fn expect_status(
    conn: &mut Conn,
    request: &[u8],
    want: u16,
    what: &str,
) -> Result<Vec<u8>, String> {
    let mut body = Vec::new();
    let status = conn
        .roundtrip(request, &mut body)
        .map_err(|e| io_err(what, e))?;
    if status != want {
        return Err(format!(
            "{what}: status {status}, expected {want}: {}",
            String::from_utf8_lossy(&body)
        ));
    }
    Ok(body)
}

/// Spawn `serve` and bring it to the state the measured list starts
/// from; returns the session and the seconds all of it took. That span
/// *is* the `setup_s` metric: spawn → graph uploaded → 8 queries
/// registered → subscriber attached → warm-up answered.
pub fn set_up(bin: &Path, dir: &RunDir, inputs: &Inputs) -> Result<(Session, f64), String> {
    if inputs.spec.durable {
        dir.reset_data().map_err(|e| io_err("reset data dir", e))?;
    }
    let data = dir.data();
    let started = Instant::now();
    let serve = Serve::spawn(
        bin,
        inputs.spec.durable.then_some(data.as_path()),
        &dir.log(),
    )
    .map_err(|e| io_err("spawn serve", e))?;
    let mut conn = Conn::connect(serve.addr()).map_err(|e| io_err("connect", e))?;

    let added = expect_status(&mut conn, &inputs.upload, 201, "POST /graphs")?;
    let version = parse_json(&added)?
        .field("graph_version")
        .and_then(Value::as_i64)
        .map_err(|e| e.to_string())?;
    if version != inputs.graph.version() as i64 {
        return Err(format!(
            "uploaded graph is at version {version}, the mirror at {}",
            inputs.graph.version()
        ));
    }
    for (i, register) in inputs.registers.iter().enumerate() {
        expect_status(&mut conn, register, 201, &format!("register q{i}"))?;
    }
    let sub = Subscriber::attach(serve.addr(), GRAPH_NAME).map_err(|e| io_err("subscribe", e))?;
    let hello = sub
        .next(FRAME_TIMEOUT)
        .ok_or("no hello frame on the subscription")?;
    if !hello.bytes.starts_with(b"{\"frame\":\"hello\"") {
        return Err(format!(
            "first frame is not hello: {}",
            String::from_utf8_lossy(&hello.bytes)
        ));
    }
    let mut session = Session { serve, conn, sub };
    let warm = run_lap(&mut session, &inputs.warmup, usize::MAX, false);
    let seconds = started.elapsed().as_secs_f64();
    let failed: usize = warm.failed.iter().sum();
    if failed > 0 {
        return Err(format!(
            "{failed} warm-up ops failed: {}",
            warm.messages.join("; ")
        ));
    }
    Ok((session, seconds))
}

/// Everything the clocked loop records about one lap.
#[derive(Debug, Default)]
pub struct Lap {
    /// First request sent → last response read.
    pub wall_s: f64,
    /// Latency of every 2xx op, by kind (`OpKind::index`).
    pub latency_ms: [Vec<f64>; 3],
    /// Update sent → its ΔM frame fully read by the subscriber.
    pub push_ms: Vec<f64>,
    /// Ops that got no 2xx answer, or (updates) no pushed frame.
    pub failed: [usize; 3],
    /// One entry per op, for the checks that run off the clock.
    pub kept: Vec<Kept>,
    /// Pushed update frames that were not byte-identical to the
    /// `/updates` response of the same batch.
    pub frame_mismatches: usize,
    pub messages: Vec<String>,
}

impl Lap {
    fn note(&mut self, msg: String) {
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }
}

/// Send `ops` one after the other, each only once the previous response
/// is complete. Bodies are kept per [`keeps_body`] (`keep_all`: every
/// body, for the traced run's route accounting).
pub fn run_lap(session: &mut Session, ops: &[Op], stride: usize, keep_all: bool) -> Lap {
    let mut lap = Lap {
        kept: Vec::with_capacity(ops.len()),
        ..Lap::default()
    };
    let mut nth = [0usize; 3];
    // send time and response body of every acknowledged update, in order
    let mut acked: Vec<(Instant, usize)> = Vec::new();
    let mut body = Vec::new();
    let started = Instant::now();
    for op in ops {
        let kind = op.kind.index();
        nth[kind] += 1;
        let sent = Instant::now();
        let result = session.conn.roundtrip(&op.request, &mut body);
        let elapsed = sent.elapsed();
        let status = match result {
            Ok(status) => status,
            Err(e) => {
                lap.note(format!("{} #{}: {e}", op.kind.name(), nth[kind]));
                // the connection's state is unknown: start a fresh one
                if let Ok(conn) = Conn::connect(session.serve.addr()) {
                    session.conn = conn;
                }
                0
            }
        };
        if (200..300).contains(&status) {
            lap.latency_ms[kind].push(elapsed.as_secs_f64() * 1e3);
            if op.kind == OpKind::Update {
                acked.push((sent, lap.kept.len()));
            }
        } else {
            lap.failed[kind] += 1;
            if status != 0 {
                lap.note(format!(
                    "{} #{}: status {status}: {}",
                    op.kind.name(),
                    nth[kind],
                    String::from_utf8_lossy(&body)
                ));
            }
        }
        let keep = status != 0 && (keep_all || keeps_body(op.kind, nth[kind], stride));
        lap.kept.push(Kept {
            status,
            body: keep.then(|| body.clone()),
        });
    }
    lap.wall_s = started.elapsed().as_secs_f64();

    // every acknowledged update must have been pushed, in commit order,
    // with a report byte-identical to its response
    for (sent, at) in acked {
        match session.sub.next(FRAME_TIMEOUT) {
            Some(Frame { at: arrived, bytes }) => {
                lap.push_ms
                    .push(arrived.saturating_duration_since(sent).as_secs_f64() * 1e3);
                let response = lap.kept[at].body.as_deref().unwrap_or_default();
                let mut want = b"{\"frame\":\"update\",\"report\":".to_vec();
                want.extend_from_slice(response);
                want.extend_from_slice(b"}\n");
                if bytes != want {
                    lap.frame_mismatches += 1;
                    lap.note(format!(
                        "pushed frame differs from the /updates response: {} vs {}",
                        String::from_utf8_lossy(&bytes),
                        String::from_utf8_lossy(response)
                    ));
                }
            }
            None => {
                lap.failed[OpKind::Update.index()] += 1;
                lap.note("an acknowledged update was never pushed".to_owned());
            }
        }
    }
    lap
}

/// `GET /metrics`, parsed.
pub fn scrape(conn: &mut Conn) -> Result<Value, String> {
    let text = conn
        .get("/metrics")
        .map_err(|e| io_err("GET /metrics", e))?;
    parse_json(text.as_bytes())
}

/// Result of one crash-recovery cycle.
pub struct Recovery {
    /// Respawn on the same `--data-dir` → first oracle-correct answer.
    pub seconds: f64,
    /// The recovered server, for scraping its replay counters.
    pub serve: Serve,
    pub conn: Conn,
}

/// Respawn `serve` on the data dir a SIGKILLed predecessor left behind
/// and time it up to the first oracle-correct query answer; then check,
/// off the clock, that the graph version equals the mirror's (every
/// acknowledged batch survived, nothing else did) and that all
/// registered results equal the oracle.
pub fn recover(
    bin: &Path,
    dir: &RunDir,
    inputs: &Inputs,
    mirror: &mut Mirror<'_>,
) -> Result<Recovery, String> {
    // the oracle's answers, before the clock starts
    for p in 0..REGISTERED as u32 {
        mirror.expected(p);
    }
    let probe = &inputs.patterns[0].request;
    let mut body = Vec::new();
    let started = Instant::now();
    let serve =
        Serve::spawn(bin, Some(&dir.data()), &dir.log()).map_err(|e| io_err("respawn serve", e))?;
    let mut conn = Conn::connect(serve.addr()).map_err(|e| io_err("connect", e))?;
    let status = conn
        .roundtrip(probe, &mut body)
        .map_err(|e| io_err("first query after recovery", e))?;
    let seconds = started.elapsed().as_secs_f64();
    if status != 200 {
        return Err(format!("first query after recovery: status {status}"));
    }
    mirror
        .check_answer(0, &parse_json(&body)?)
        .map_err(|e| format!("after recovery: {e}"))?;
    for p in 1..REGISTERED as u32 {
        let answer = expect_status(
            &mut conn,
            &inputs.patterns[p as usize].request,
            200,
            "registered query after recovery",
        )?;
        mirror
            .check_answer(p, &parse_json(&answer)?)
            .map_err(|e| format!("after recovery: {e}"))?;
    }
    Ok(Recovery {
        seconds,
        serve,
        conn,
    })
}
