//! What the host was doing while the benchmark ran: two fixed canary
//! loops timed before and after every run, the facts a reader needs to
//! judge a timing (`nproc`, `available_parallelism`, load average), and
//! the **host speed index** every end-to-end timing is divided by.
//!
//! The reference host is a small VM with neighbours: for minutes at a
//! time everything but a latency-bound ALU loop runs 20–40 % slower.
//! Such a phase outlasts any run the time limit allows, so no estimator
//! over a run's laps removes it (CALIBRATION.md has the numbers). What
//! does is measuring the host beside the server: [`SpeedIndex`] times
//! four small fixed kernels between laps, and a lap's timings are
//! divided by how much slower than nominal those kernels ran. The
//! kernels are this file's own code and never call into the repo's
//! crates, so a change to the program cannot move the index.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// Entries of the pointer chain: 16 MiB, well past the private caches.
const CHAIN_LEN: usize = 4 * 1024 * 1024;
/// Dependent loads per memory reading.
const CHAIN_STEPS: usize = 200_000;
/// Xorshift rounds per CPU reading.
const CPU_ROUNDS: u32 = 40_000_000;

/// One canary reading.
#[derive(Copy, Clone, Debug)]
pub struct Reading {
    /// A fixed pure-ALU loop: moves with CPU contention only.
    pub cpu_ms: f64,
    /// A fixed chase through a 16 MiB random cycle: moves with cache and
    /// memory contention, which is what the served graph feels.
    pub mem_ms: f64,
}

/// The canary loops; build once per run (the chain takes ~0.1 s).
pub struct Canary {
    chain: Vec<u32>,
}

impl Default for Canary {
    fn default() -> Self {
        Canary::new()
    }
}

impl Canary {
    pub fn new() -> Canary {
        // Sattolo's shuffle: a permutation that is one single cycle, so
        // the chase below never falls into a short loop
        let mut chain: Vec<u32> = (0..CHAIN_LEN as u32).collect();
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for i in (1..CHAIN_LEN).rev() {
            chain.swap(i, rng.gen_range(0..i));
        }
        Canary { chain }
    }

    pub fn read(&self) -> Reading {
        let t = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..CPU_ROUNDS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        let cpu_ms = t.elapsed().as_secs_f64() * 1e3;

        // two identical passes, the second one timed: whatever the run
        // left in the caches, the reading starts from the same state
        let mut mem_ms = 0.0;
        for _ in 0..2 {
            let t = Instant::now();
            let mut at = 0usize;
            for _ in 0..CHAIN_STEPS {
                at = self.chain[at] as usize;
            }
            std::hint::black_box(at);
            mem_ms = t.elapsed().as_secs_f64() * 1e3;
        }
        Reading { cpu_ms, mem_ms }
    }
}

/// Milliseconds the four kernels of [`SpeedIndex`] take on the reference
/// host in an ordinary minute: the index reads 1.0 there. Constants of
/// the definition — they only fix the scale of the adjusted values, and
/// parent and change are always measured with the same ones.
const NOMINAL_MS: [f64; 4] = [2.6, 4.3, 3.4, 2.5];
/// Nodes of the traverse kernel's graph (out-degree 4).
const TRAVERSE_NODES: u32 = 6000;
/// Vectors the allocate kernel clones (1–5 words each).
const ALLOC_VECTORS: usize = 24_000;
/// Round trips of the socket kernel.
const ECHO_TRIPS: usize = 300;

/// The host speed index: how much slower (> 1) or faster (< 1) than
/// nominal the host runs the kinds of work a request is made of. One
/// reading times four kernels of a few milliseconds each —
///
/// - *compute*: four independent integer chains (high IPC, so it feels
///   a busy sibling hyperthread, which a dependent chain does not);
/// - *allocate*: clone and drop 24 000 small vectors (malloc, memcpy,
///   page faults — what a snapshot publish is made of);
/// - *traverse*: BFS over a 6000-node graph with a hash map of visit
///   counts and the result formatted as text (pointer chasing, hashing,
///   formatting — what a query is made of);
/// - *socket*: 300 round trips over loopback TCP to a thread of this
///   process (syscalls and context switches — what the wire is made of)
///
/// — and returns the geometric mean of their times over [`NOMINAL_MS`].
/// Over 80 calibration runs the per-lap index explained most of what
/// the host did to every end-to-end timing: unadjusted, the medians of
/// two sets of runs of the same code drifted by up to 29 %, adjusted by
/// at most 12 %, and the spread inside a set halved (CALIBRATION.md).
pub struct SpeedIndex {
    nest: Vec<Vec<u32>>,
    adj: Vec<Vec<u32>>,
    echo: TcpStream,
    echo_thread: Option<JoinHandle<()>>,
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

impl SpeedIndex {
    pub fn new() -> io::Result<SpeedIndex> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let echo = TcpStream::connect(listener.local_addr()?)?;
        echo.set_nodelay(true)?;
        // a dead echo thread must fail the run, not hang it
        echo.set_read_timeout(Some(crate::http::IO_TIMEOUT))?;
        echo.set_write_timeout(Some(crate::http::IO_TIMEOUT))?;
        let (mut peer, _) = listener.accept()?;
        peer.set_nodelay(true)?;
        // ends when `Drop` shuts the socket down
        let echo_thread = std::thread::spawn(move || {
            let mut buf = [0u8; 256];
            while let Ok(n @ 1..) = peer.read(&mut buf) {
                if peer.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        });
        let mut s = 0x5eed_u64;
        let adj = (0..TRAVERSE_NODES)
            .map(|_| {
                (0..4)
                    .map(|_| (xorshift(&mut s) % u64::from(TRAVERSE_NODES)) as u32)
                    .collect()
            })
            .collect();
        let mut index = SpeedIndex {
            nest: (0..ALLOC_VECTORS)
                .map(|i| (0..(i % 5) as u32 + 1).collect())
                .collect(),
            adj,
            echo,
            echo_thread: Some(echo_thread),
        };
        // the first reading pays for cold caches and a cold heap
        index.kernels_ms()?;
        Ok(index)
    }

    /// One reading of the index; about 15 ms.
    pub fn read(&mut self) -> io::Result<f64> {
        let ms = self.kernels_ms()?;
        let log_sum: f64 = ms.iter().zip(NOMINAL_MS).map(|(t, n)| (t / n).ln()).sum();
        Ok((log_sum / ms.len() as f64).exp())
    }

    /// Milliseconds of [compute, allocate, traverse, socket].
    fn kernels_ms(&mut self) -> io::Result<[f64; 4]> {
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
        let mut out = [0.0; 4];

        let t = Instant::now();
        let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
        for _ in 0..3_000_000 {
            a = a.wrapping_mul(3).wrapping_add(1);
            b = b.wrapping_mul(5).wrapping_add(7);
            c ^= c << 7;
            d = d.wrapping_add(a ^ b).rotate_left(3);
        }
        std::hint::black_box((a, b, c, d));
        out[0] = ms(t);

        let t = Instant::now();
        for _ in 0..3 {
            std::hint::black_box(self.nest.clone());
        }
        out[1] = ms(t);

        let t = Instant::now();
        for source in 0..6u32 {
            let mut dist = vec![u32::MAX; self.adj.len()];
            let mut queue = VecDeque::from([source * 97]);
            dist[source as usize * 97] = 0;
            // fixed hasher keys: every reading does exactly the same work
            let mut seen: HashMap<u32, u32, BuildHasherDefault<DefaultHasher>> = HashMap::default();
            while let Some(v) = queue.pop_front() {
                for &w in &self.adj[v as usize] {
                    *seen.entry(w % 512).or_insert(0) += 1;
                    if dist[w as usize] == u32::MAX {
                        dist[w as usize] = dist[v as usize] + 1;
                        queue.push_back(w);
                    }
                }
            }
            let mut text = String::new();
            for (k, v) in seen.iter().take(400) {
                let _ = write!(text, "{{\"node\":{k},\"rank\":{v}.5}},");
            }
            std::hint::black_box((text, dist));
        }
        out[2] = ms(t);

        let t = Instant::now();
        let msg = [7u8; 200];
        let mut buf = [0u8; 200];
        for _ in 0..ECHO_TRIPS {
            self.echo.write_all(&msg)?;
            self.echo.read_exact(&mut buf)?;
        }
        out[3] = ms(t);
        Ok(out)
    }
}

impl Drop for SpeedIndex {
    fn drop(&mut self) {
        let _ = self.echo.shutdown(Shutdown::Both);
        if let Some(thread) = self.echo_thread.take() {
            let _ = thread.join();
        }
    }
}

/// (`nproc`, `available_parallelism`, 1-minute load average).
pub fn facts() -> (usize, usize, f64) {
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split(' ').next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0);
    (nproc, parallelism, load)
}

/// One line of host state for the run's table.
pub fn print(workload: &str, when: &str, reading: Reading) {
    let (nproc, parallelism, load) = facts();
    println!(
        "[{workload}] host {when}: canary_ms {:.2} · mem_canary_ms {:.2} · nproc {nproc} · \
         available_parallelism {parallelism} · load average {load:.2}",
        reading.cpu_ms, reading.mem_ms
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_index_reads_and_stops_its_thread() {
        let mut index = SpeedIndex::new().expect("loopback sockets");
        let kernels = index.kernels_ms().expect("echo round trips");
        assert!(kernels.iter().all(|ms| *ms > 0.0 && ms.is_finite()));
        let reading = index.read().expect("echo round trips");
        // within two orders of magnitude of nominal on any machine
        assert!(reading > 0.01 && reading < 100.0, "{reading}");
        // joins the echo thread: hangs here if shutdown does not end it
        drop(index);
    }
}
