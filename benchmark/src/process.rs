//! The `serve` child process and the run's output directory, both
//! cleaned up by `Drop` so a panic in the harness leaves neither a
//! process nor a data directory behind.

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// Worker threads of `serve`: one for the client connection, one pinned
/// by the subscription, one spare. Fixed, never derived from the host.
pub const SERVE_WORKERS: &str = "3";
/// Shard actors of the durable backend (one graph, one shard).
pub const SERVE_SHARDS: &str = "1";

/// `benchmark/out/<run>/`: `serve.log`, the trace file, and the
/// server's `--data-dir`, which is removed when the run ends.
pub struct RunDir {
    root: PathBuf,
}

impl RunDir {
    /// Create (or empty) `out_root/<run>`.
    pub fn create(out_root: &Path, run: &str) -> io::Result<RunDir> {
        let root = out_root.join(run);
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(RunDir { root })
    }

    pub fn path(&self) -> &Path {
        &self.root
    }

    pub fn log(&self) -> PathBuf {
        self.root.join("serve.log")
    }

    /// The server's `--data-dir`.
    pub fn data(&self) -> PathBuf {
        self.root.join("data")
    }

    /// A scratch directory for the traced run's own files.
    pub fn scratch(&self) -> PathBuf {
        self.root.join("scratch")
    }

    /// Empty the data dir (a fresh set-up must not recover anything).
    pub fn reset_data(&self) -> io::Result<()> {
        let data = self.data();
        if data.exists() {
            std::fs::remove_dir_all(&data)?;
        }
        std::fs::create_dir_all(&data)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.data());
        let _ = std::fs::remove_dir_all(self.scratch());
    }
}

/// A running `serve`. Dropping it kills and reaps the process.
pub struct Serve {
    child: Child,
    /// Held open: `serve` drains and exits when its stdin reaches EOF,
    /// which also ends it should the harness itself be killed.
    _stdin: ChildStdin,
    /// Held open so nothing the server might still print hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Serve {
    /// Start `bin` on an ephemeral port with the fixed worker and shard
    /// counts, in-memory or on `data_dir` (fsync always, the shipped
    /// default), and wait for its `listening on` line. stderr is
    /// appended to `log`.
    pub fn spawn(bin: &Path, data_dir: Option<&Path>, log: &Path) -> io::Result<Serve> {
        let stderr: File = OpenOptions::new().create(true).append(true).open(log)?;
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--workers", SERVE_WORKERS]);
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir")
                .arg(dir)
                .args(["--shards", SERVE_SHARDS]);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut serve = Serve {
            child,
            _stdin: stdin,
            _stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        // from here on an early return drops `serve`, which reaps the child
        let mut line = String::new();
        serve._stdout.read_line(&mut line)?;
        serve.addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("serve did not announce its address (got {line:?}); see the log"),
                )
            })?;
        Ok(serve)
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Peak resident set (`VmHWM`) of the process in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc status"))
    }

    /// SIGKILL, then wait for the process to be gone.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.reap();
    }
}
