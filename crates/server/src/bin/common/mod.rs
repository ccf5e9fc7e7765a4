//! What the smoke harnesses share: option parsing, booting `serve` and
//! discovering its port, the check / require reporter, JSON path lookup
//! and the Fig. 1 query text. Each harness includes it with `mod common;`;
//! it is a directory without a `main.rs`, so cargo builds no target from
//! it.

// every harness uses a different subset
#![allow(dead_code)]

use expfinder_graph::json::Value;
use std::io::{BufRead, Write};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

/// The values of the `--flag value` options in `known`, in that order.
/// An unknown option or a flag without a value exits 2.
pub fn options<const N: usize>(known: [&str; N]) -> [Option<String>; N] {
    let mut values = [const { None }; N];
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let Some(i) = known.iter().position(|k| *k == arg) else {
            eprintln!("unknown option {arg:?}");
            std::process::exit(2);
        };
        values[i] = Some(args.next().unwrap_or_else(|| {
            eprintln!("no value after {arg}");
            std::process::exit(2);
        }));
    }
    values
}

/// `--server-bin`, defaulting to the `serve` binary next to this one
/// (both live in `target/release` after `cargo build --release`).
pub fn server_bin(flag: Option<String>) -> String {
    flag.unwrap_or_else(|| {
        let me = std::env::current_exe().expect("current_exe");
        let sibling = me.parent().expect("bin dir").join("serve");
        sibling.to_string_lossy().into_owned()
    })
}

/// Spawn `serve` on an ephemeral port with `extra` appended to its
/// arguments, and read the `listening on <addr>` line it prints first.
/// Its stdin stays piped: `serve` drains when that pipe closes.
pub fn boot(server_bin: &str, extra: &[&str]) -> (Child, SocketAddr) {
    let mut child = Command::new(server_bin)
        .args(["--addr", "127.0.0.1:0", "--fixture", "fig1"])
        .args(extra)
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
    let addr = first_line
        .trim()
        .strip_prefix("listening on ")
        .and_then(|a| a.parse().ok());
    let Some(addr) = addr else {
        let _ = child.kill();
        eprintln!("bad discovery line {first_line:?}");
        std::process::exit(1);
    };
    (child, addr)
}

/// The paper's Fig. 1 team query in the pattern DSL. The printed form
/// of a pattern parses back to the same pattern.
pub fn fig1_dsl() -> String {
    expfinder_pattern::fixtures::fig1_pattern().to_string()
}

/// The integer at `path` under `v`, or `i64::MIN` when any step is
/// missing — so `>= 0` asserts presence.
pub fn i64_at(v: &Value, path: &[&str]) -> i64 {
    let mut cur = v;
    for p in path {
        cur = cur.field(p).unwrap_or(&Value::Null);
    }
    cur.as_i64().unwrap_or(i64::MIN)
}

/// Counts failed checks, and mirrors every line it prints into an
/// optional log file.
pub struct Harness {
    /// Named in the required-step abort (`"serve smoke"`).
    name: &'static str,
    pub failures: usize,
    /// The server under test; killed when a required step fails.
    pub child: Option<Child>,
    log: Option<std::fs::File>,
}

impl Harness {
    /// A harness logging to `log` when given (exits 2 if it cannot be
    /// created).
    pub fn new(name: &'static str, log: Option<&str>) -> Harness {
        let log = log.map(|p| {
            std::fs::File::create(p).unwrap_or_else(|e| {
                eprintln!("cannot create log {p:?}: {e}");
                std::process::exit(2);
            })
        });
        Harness {
            name,
            failures: 0,
            child: None,
            log,
        }
    }

    /// Print one line to stdout and the log.
    pub fn say(&mut self, line: &str) {
        println!("{line}");
        self.log_line(line);
    }

    /// Print one line to stderr and the log.
    pub fn fail(&mut self, line: &str) {
        eprintln!("{line}");
        self.log_line(line);
    }

    fn log_line(&mut self, line: &str) {
        if let Some(f) = &mut self.log {
            let _ = writeln!(f, "{line}");
        }
    }

    pub fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        if ok {
            self.say(&format!("ok: {what}"));
        } else {
            self.failures += 1;
            self.fail(&format!("FAIL: {what}: {}", detail()));
        }
    }

    /// Like [`check`](Self::check), but abort the run when **this** step
    /// fails (later steps would only cascade) — earlier advisory
    /// failures keep the run going so CI prints every diagnostic.
    pub fn require(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.check(what, ok, detail);
        if !ok {
            if let Some(child) = &mut self.child {
                let _ = child.kill();
                let _ = child.wait();
            }
            eprintln!("{} FAILED at required step: {what}", self.name);
            std::process::exit(1);
        }
    }

    /// Wait for the server under test to exit.
    pub fn wait_child(&mut self) -> std::process::ExitStatus {
        let child = self.child.as_mut().expect("a server was booted");
        child.wait().expect("wait for server")
    }
}
