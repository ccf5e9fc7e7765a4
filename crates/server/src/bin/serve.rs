//! `serve` — the expfinder-server daemon.
//!
//! ```text
//! serve [--addr 127.0.0.1:7878] [--workers N] [--fixture fig1]
//!       [--load <name> <path.efg>] [--log <path>] [--allow-shutdown]
//!       [--data-dir <dir>] [--no-fsync] [--shards N (ignored)]
//!       [--default-deadline-ms N] [--max-deadline-ms N]
//!       [--admission-max-cost F]
//! ```
//!
//! Without `--data-dir` the daemon serves an in-memory engine (graphs
//! vanish with the process). With it, the daemon boots a durable runtime
//! rooted at the directory: graphs persist as `.efg` snapshots, every
//! accepted update batch is WAL-logged (on the request's own connection
//! thread) before it is applied, and a restart replays the logs —
//! `kill -9` loses at most the batch whose append was torn mid-write.
//! `--no-fsync` trades crash-durability of the tail for update latency
//! (replay correctness is unaffected). `--shards N` is accepted and
//! ignored: there are no shard workers any more, and the flag stays only
//! so existing command lines keep working.
//!
//! Prints exactly one `listening on <addr>` line on stdout once the
//! socket is bound (the contract the tests and scripts rely on to
//! discover an ephemeral port), then serves until either
//!
//! * `POST /admin/shutdown` arrives (only with `--allow-shutdown`), or
//! * stdin reaches EOF (the supervisor closed the pipe — the offline
//!   stand-in for SIGTERM, which bare `std` cannot hook),
//!
//! and in both cases drains gracefully: in-flight requests finish and
//! every connection thread is joined before the process exits 0.

use expfinder_engine::{ExpFinder, ExpFinderError};
use expfinder_runtime::{DurableExpFinder, FsyncPolicy, RuntimeConfig};
use expfinder_server::{Backend, Server, ServerConfig};
use std::io::Write;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--workers N] [--fixture fig1] \
         [--load NAME PATH] [--log PATH] [--allow-shutdown] \
         [--data-dir DIR] [--no-fsync] [--shards N (ignored)] \
         [--default-deadline-ms N] [--max-deadline-ms N] \
         [--admission-max-cost F]"
    );
    std::process::exit(2);
}

struct Log(Option<std::fs::File>);

impl Log {
    fn line(&mut self, msg: &str) {
        eprintln!("[serve] {msg}");
        if let Some(f) = self.0.as_mut() {
            let _ = writeln!(f, "{msg}");
            let _ = f.flush();
        }
    }
}

/// Seed a graph into the backend, tolerating one that a durable restart
/// already recovered from disk.
fn seed(backend: &Backend, log: &mut Log, name: &str, graph: expfinder_graph::DiGraph) {
    match backend.add_graph(name, graph) {
        Ok(_) => {}
        Err(ExpFinderError::DuplicateGraph(_)) if matches!(backend, Backend::Durable(_)) => {
            log.line(&format!("{name} already recovered from the data dir"));
        }
        Err(e) => {
            eprintln!("cannot add {name}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7878".to_owned();
    let mut config = ServerConfig::default();
    let mut fixtures: Vec<String> = Vec::new();
    let mut loads: Vec<(String, String)> = Vec::new();
    let mut log_path: Option<String> = None;
    let mut data_dir: Option<String> = None;
    let mut fsync = FsyncPolicy::Always;

    let take = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = take(&mut i),
            "--workers" => config.workers = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--fixture" => fixtures.push(take(&mut i)),
            "--load" => {
                let name = take(&mut i);
                let path = take(&mut i);
                loads.push((name, path));
            }
            "--log" => log_path = Some(take(&mut i)),
            "--allow-shutdown" => config.allow_remote_shutdown = true,
            "--data-dir" => data_dir = Some(take(&mut i)),
            "--shards" => {
                let _: usize = take(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--no-fsync" => fsync = FsyncPolicy::Never,
            "--default-deadline-ms" => {
                config.default_deadline_ms = Some(take(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--max-deadline-ms" => {
                config.max_deadline_ms = Some(take(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--admission-max-cost" => {
                config.admission_max_cost = Some(take(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            _ => usage(),
        }
        i += 1;
    }

    let mut log = Log(log_path.as_deref().map(|p| {
        std::fs::File::create(p).unwrap_or_else(|e| {
            eprintln!("cannot open log {p}: {e}");
            std::process::exit(1);
        })
    }));

    let backend = match &data_dir {
        None => Backend::Local(Arc::new(ExpFinder::default())),
        Some(dir) => {
            let rc = RuntimeConfig {
                fsync,
                ..RuntimeConfig::default()
            };
            let rt = DurableExpFinder::open(dir, rc).unwrap_or_else(|e| {
                eprintln!("cannot open data dir {dir}: {e}");
                std::process::exit(1);
            });
            let recovered = rt.wal_totals();
            log.line(&format!(
                "durable runtime on {dir}: {} graphs recovered \
                 ({} WAL frames / {} updates replayed, {} torn tails repaired)",
                rt.graph_names().len(),
                recovered.get("replayed_frames"),
                recovered.get("replayed_updates"),
                recovered.get("truncated_tails"),
            ));
            Backend::Durable(Arc::new(rt))
        }
    };

    for fixture in &fixtures {
        match fixture.as_str() {
            "fig1" => {
                seed(
                    &backend,
                    &mut log,
                    "fig1",
                    expfinder_graph::fixtures::collaboration_fig1().graph,
                );
                log.line("loaded fixture fig1 (paper Fig. 1 collaboration network)");
            }
            other => {
                eprintln!("unknown fixture {other:?} (available: fig1)");
                std::process::exit(2);
            }
        }
    }
    for (name, path) in &loads {
        let g = expfinder_graph::io::load_text(path).unwrap_or_else(|e| {
            eprintln!("cannot load {path}: {e}");
            std::process::exit(1);
        });
        seed(&backend, &mut log, name, g);
        log.line(&format!("loaded {name} from {path}"));
    }

    let workers = config.workers;
    let server = Server::bind(backend, addr.as_str(), config).unwrap_or_else(|e| {
        eprintln!("bind {addr}: {e}");
        std::process::exit(1);
    });
    let bound = server.local_addr();
    let handle = server.spawn();
    log.line(&format!("listening on {bound} with {workers} workers"));
    // the discovery contract: one line, stdout, flushed
    println!("listening on {bound}");
    let _ = std::io::stdout().flush();

    // stdin EOF ⇒ drain (offline stand-in for SIGTERM); a remote
    // `POST /admin/shutdown` drains too, and either way `join` returns
    let drain = handle.drainer();
    std::thread::Builder::new()
        .name("stdin-watch".into())
        .spawn(move || {
            let mut sink = String::new();
            while matches!(std::io::stdin().read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
            drain();
        })
        .expect("spawn stdin watcher");
    let backend = handle.backend().clone();
    let served = handle.join();
    log.line(&format!(
        "drained and stopped: {served} requests served, {} graphs managed",
        backend.graph_names().len()
    ));
}
