//! Shard workers: the mutation half of the runtime.
//!
//! Graph names are consistently hashed onto `N` shard workers. Each
//! worker is an actor — a plain thread draining a **bounded** mailbox of
//! commands — that *owns* the [`MaintainedGraph`] (the authoritative
//! graph, its quotient and its registered-query maintainers) and the WAL
//! handle of every graph on its shard. Ownership is the whole concurrency
//! story on the write side: a batch has exclusive access to its graph for
//! free (nobody else can touch actor state), and no lock is ever held
//! across evaluation because readers run on *published* immutable
//! snapshots instead (see [`expfinder_engine::Snapshot`]).
//!
//! Backpressure is the mailbox bound: when a shard falls behind,
//! senders block in [`ShardHandle::send`] rather than queueing
//! unboundedly. The current depth of every mailbox is exported through
//! `/metrics` (`engine.shard`), so a hot shard is visible before it is
//! a problem.

use crate::faults::{FaultInjector, IoOp};
use crate::wal::{Wal, WalOp};
use crate::WalCounters;
use expfinder_compress::{CompressStats, CompressionMethod};
use expfinder_engine::{ExpFinderError, MaintainedGraph, PublishedGraph, UpdateHook, UpdateReport};
use expfinder_graph::{io as gio, DiGraph, EdgeUpdate};
use expfinder_pattern::{parser, Pattern};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Point-in-time load summary of one shard worker (`engine.shard` in
/// `/metrics`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index (`0..shards`).
    pub shard: usize,
    /// Commands currently waiting in the mailbox.
    pub depth: usize,
    /// Graphs owned by this shard.
    pub graphs: usize,
    /// Commands processed since startup.
    pub commands: u64,
}

/// Reply channel of one command. Rendezvous-sized: the worker's send
/// never blocks because every request holds a receiver slot.
pub(crate) type Reply<T> = SyncSender<Result<T, ExpFinderError>>;

/// The command alphabet of a shard mailbox. Reads are *not* here — they
/// run on published snapshots without involving the actor.
pub(crate) enum Cmd {
    /// Take ownership of a fully-constructed graph actor (initial add
    /// and cold-start adoption; the facade did the durable IO already).
    Adopt {
        // boxed: an actor (graph + WAL + maintained state) dwarfs every
        // other command, and `Cmd` travels by value through the ring
        actor: Box<GraphActor>,
        reply: Reply<u64>,
    },
    /// WAL-append, then apply an update batch and republish.
    Apply {
        name: String,
        updates: Vec<EdgeUpdate>,
        trace: bool,
        reply: Reply<UpdateReport>,
    },
    /// Register a query for incremental maintenance.
    Register {
        name: String,
        query_name: String,
        pattern: Pattern,
        reply: Reply<()>,
    },
    /// Drop a registered query.
    Unregister {
        name: String,
        query_name: String,
        reply: Reply<()>,
    },
    /// Rewrite `<name>.efg` from the current in-memory graph, leaving
    /// the WAL alone (replay onto the newer snapshot converges — edge
    /// updates are last-writer-wins per edge).
    Snapshot { name: String, reply: Reply<PathBuf> },
    /// Snapshot, then truncate the WAL back to an empty header.
    Compact {
        name: String,
        reply: Reply<CompactReport>,
    },
    /// Build (or rebuild) the maintained compressed quotient and
    /// publish it with the next snapshot. Session state, not WAL-logged
    /// — a restart comes back uncompressed.
    Compress {
        name: String,
        method: CompressionMethod,
        reply: Reply<CompressStats>,
    },
    /// Drop the maintained quotient and republish without it.
    DropCompression { name: String, reply: Reply<()> },
    /// Drop the graph and delete its `.efg` and `.wal` files.
    Remove { name: String, reply: Reply<()> },
}

/// What `Cmd::Compact` reports back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactReport {
    /// The rewritten snapshot file.
    pub snapshot: PathBuf,
    /// WAL bytes dropped by the truncation (frames only, header stays).
    pub wal_bytes_dropped: u64,
}

/// One graph's actor state: the engine's [`MaintainedGraph`] — the same
/// write side the in-memory facade drives — plus what makes it durable:
/// the WAL every step is appended to first, and the fault-injection
/// gate. Constructed by the facade (which does the durable add/recover
/// IO) and handed to the owning shard via [`Cmd::Adopt`].
pub(crate) struct GraphActor {
    pub name: String,
    /// Catalog directory holding `<name>.efg` / `<name>.wal`.
    pub dir: PathBuf,
    /// Graph, registered queries and the maintained quotient. The
    /// quotient is deliberately *not* WAL-logged: compression is derived
    /// serving state, rebuildable on demand — a restart comes back
    /// uncompressed.
    pub core: MaintainedGraph,
    pub wal: Wal,
    pub published: Arc<PublishedGraph>,
    /// The runtime's fault-injection gate; every snapshot write, fsync
    /// and rename routes through it (the WAL carries its own clone).
    faults: Arc<FaultInjector>,
}

/// The DSL text a `register` record carries for `pattern`: its `Display`
/// form, verified to re-parse to the same fingerprint.
fn dsl_source(pattern: &Pattern) -> Result<String, ExpFinderError> {
    let source = pattern.to_string();
    let reparsed = parser::parse(&source)
        .map_err(|e| ExpFinderError::Storage(format!("pattern does not round-trip: {e}")))?;
    if reparsed.fingerprint() != pattern.fingerprint() {
        return Err(ExpFinderError::Storage(
            "pattern does not round-trip through its DSL form".to_owned(),
        ));
    }
    Ok(source)
}

impl GraphActor {
    pub fn new(
        name: String,
        dir: PathBuf,
        graph: DiGraph,
        wal: Wal,
        published: Arc<PublishedGraph>,
        faults: Arc<FaultInjector>,
    ) -> GraphActor {
        GraphActor {
            name,
            dir,
            core: MaintainedGraph::new(graph),
            wal,
            published,
            faults,
        }
    }

    fn efg_path(&self) -> PathBuf {
        self.dir.join(format!("{}.efg", self.name))
    }

    /// Replay one recovered WAL record onto the actor's in-memory state:
    /// the same [`MaintainedGraph`] calls as the live path, with no WAL
    /// append and no publish (recovery publishes once at the end).
    /// Records replay in sequence order, so a registration's maintainer
    /// is seeded from the graph exactly as it stood when the query was
    /// registered, then maintained by the update frames that follow it.
    pub(crate) fn replay_op(&mut self, op: &WalOp) -> Result<(), ExpFinderError> {
        match op {
            WalOp::Updates(ups) => self.core.apply(ups, false).map(|_| ()),
            WalOp::Register { query, pattern } => {
                let parsed = parser::parse(pattern).map_err(|e| {
                    ExpFinderError::Storage(format!(
                        "wal register record for {query:?} has an unparseable pattern: {e}"
                    ))
                })?;
                self.core.register(query, parsed, |_| Ok(()))
            }
            // the log's own history vouches for the name; a record for a
            // query that is not there has nothing to undo
            WalOp::Unregister { query } => self.core.unregister(query, || Ok(())).or(Ok(())),
        }
    }

    /// Publish what changed since the last publish, if anything did (see
    /// [`MaintainedGraph::publish`]); the worker calls this after every
    /// command. The slot's write lock covers one `Arc` store, so a racing
    /// reader is delayed by a pointer swap, never by evaluation or IO.
    pub(crate) fn publish(&mut self) {
        self.core.publish(&self.published);
    }

    /// The write path: append the batch to the WAL (fsync per policy)
    /// *before* touching the graph, then the shared steps — apply and
    /// maintain, publish — and the update hook. The hook runs on the
    /// actor thread after the snapshot swap, so subscribers observe
    /// frames in commit order and a frame's `graph_version` is already
    /// readable when it arrives.
    fn apply(
        &mut self,
        updates: &[EdgeUpdate],
        trace: bool,
        wal_counters: &WalCounters,
        hook: &RwLock<Option<UpdateHook>>,
    ) -> Result<UpdateReport, ExpFinderError> {
        // an installed hook forces tracing so its frames always carry ΔM
        let hook = hook.read().clone();
        let trace = trace || hook.is_some();
        let batch = WalOp::Updates(updates.to_vec());
        log(&mut self.wal, &batch, wal_counters)?;
        let report = self.core.apply(updates, trace)?;
        self.publish();
        if let Some(hook) = &hook {
            hook(&self.name, &report);
        }
        Ok(report)
    }

    /// Register a query: the registration record (carrying the pattern's
    /// DSL source, fsynced per policy) is WAL-appended once the
    /// registration can no longer be refused and *before* it takes
    /// effect, so a crash right after the ack still replays it.
    fn register(
        &mut self,
        query_name: &str,
        pattern: Pattern,
        wal_counters: &WalCounters,
    ) -> Result<(), ExpFinderError> {
        let (core, wal) = (&mut self.core, &mut self.wal);
        core.register(query_name, pattern, |pattern| {
            let op = WalOp::Register {
                query: query_name.to_owned(),
                pattern: dsl_source(pattern)?,
            };
            log(wal, &op, wal_counters)
        })
    }

    fn unregister(
        &mut self,
        query_name: &str,
        wal_counters: &WalCounters,
    ) -> Result<(), ExpFinderError> {
        let (core, wal) = (&mut self.core, &mut self.wal);
        core.unregister(query_name, || {
            let op = WalOp::Unregister {
                query: query_name.to_owned(),
            };
            log(wal, &op, wal_counters)
        })
    }

    /// Write `<name>.efg` atomically (tmp + fsync + rename + dir fsync),
    /// so a crash mid-write — or right after the rename — leaves either
    /// the previous snapshot or the complete new one, never a torn or
    /// empty file, and the WAL stays replayable onto whichever survives.
    fn save_snapshot(&self) -> Result<PathBuf, ExpFinderError> {
        let path = self.efg_path();
        write_efg_atomic(self.core.graph(), &path, &self.faults)?;
        Ok(path)
    }

    fn compact(&mut self, wal_counters: &WalCounters) -> Result<CompactReport, ExpFinderError> {
        let snapshot = self.save_snapshot()?;
        // snapshot is durable; now the log frames are redundant. Crash
        // between the snapshot rename and the log swap replays the full
        // WAL onto the new snapshot, which converges to the same graph.
        let wal_bytes_dropped = self
            .wal
            .frame_bytes()
            .map_err(|e| ExpFinderError::Storage(format!("wal size: {e}")))?;
        // the snapshot holds the graph but not the query set: swap in a
        // fresh log seeded with one register record per live query. The
        // swap is atomic (tmp + rename), so no crash point between the
        // old log and the new one can lose a live registration.
        let seeds: Vec<WalOp> = self
            .core
            .registered_patterns()
            .map(|(name, pattern)| WalOp::Register {
                query: name.to_owned(),
                pattern: pattern.to_string(),
            })
            .collect();
        let sizes = self
            .wal
            .reset_seeded(&seeds)
            .map_err(|e| ExpFinderError::Storage(format!("wal swap: {e}")))?;
        for frame_bytes in sizes {
            // the swap fsyncs once for the whole batch, not per frame
            wal_counters.on_append(frame_bytes as u64, 0);
        }
        Ok(CompactReport {
            snapshot,
            wal_bytes_dropped,
        })
    }
}

/// Append one record to `wal` (fsync per policy) and count it.
fn log(wal: &mut Wal, op: &WalOp, wal_counters: &WalCounters) -> Result<(), ExpFinderError> {
    let (_, frame_bytes) = wal
        .append_op(op)
        .map_err(|e| ExpFinderError::Storage(format!("wal append: {e}")))?;
    wal_counters.on_append(frame_bytes as u64, wal.fsyncs_per_append());
    Ok(())
}

/// Save a graph to `path` via a sibling `.tmp` file and an atomic
/// rename, fsyncing the tmp file *before* the rename and the parent
/// directory *after* it — without the first, the rename can become
/// durable ahead of the bytes it names (publishing an empty snapshot
/// after a power cut); without the second, the rename itself may not
/// survive one. Shared by the actor's snapshot/compact path and the
/// facade's initial `add_graph` write.
pub(crate) fn write_efg_atomic(
    g: &DiGraph,
    path: &Path,
    faults: &FaultInjector,
) -> Result<(), ExpFinderError> {
    let tmp = path.with_extension("efg.tmp");
    faults.check(IoOp::Write)?;
    gio::save_text(g, &tmp)?;
    let f = File::open(&tmp)?;
    faults.sync_all(&f)?;
    drop(f);
    faults.rename(&tmp, path)?;
    #[cfg(unix)]
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        let dir = File::open(parent)?;
        faults.sync_all(&dir)?;
    }
    Ok(())
}

/// Sender side of one shard: the bounded mailbox plus its gauges. The
/// facade holds one per shard; dropping the last handle closes the
/// mailbox and the worker thread exits after draining it.
pub(crate) struct ShardHandle {
    tx: SyncSender<Cmd>,
    depth: Arc<AtomicUsize>,
    commands: Arc<AtomicU64>,
    join: Option<JoinHandle<()>>,
}

impl ShardHandle {
    /// Spawn shard worker `index` with a mailbox of `capacity` slots.
    pub fn spawn(
        index: usize,
        capacity: usize,
        wal_counters: Arc<WalCounters>,
        hook: Arc<RwLock<Option<UpdateHook>>>,
    ) -> ShardHandle {
        let (tx, rx) = mpsc::sync_channel(capacity.max(1));
        let depth = Arc::new(AtomicUsize::new(0));
        let commands = Arc::new(AtomicU64::new(0));
        let worker_depth = Arc::clone(&depth);
        let worker_commands = Arc::clone(&commands);
        let join = std::thread::Builder::new()
            .name(format!("efshard-{index}"))
            .spawn(move || run_worker(rx, worker_depth, worker_commands, wal_counters, hook))
            .expect("spawn shard worker");
        ShardHandle {
            tx,
            depth,
            commands,
            join: Some(join),
        }
    }

    /// Enqueue a command, blocking while the mailbox is full (the
    /// backpressure point of the write path).
    pub fn send(&self, cmd: Cmd) -> Result<(), ExpFinderError> {
        self.depth.fetch_add(1, Ordering::Relaxed);
        self.tx.send(cmd).map_err(|_| {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            ExpFinderError::Storage("shard worker terminated".to_owned())
        })
    }

    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    pub fn commands(&self) -> u64 {
        self.commands.load(Ordering::Relaxed)
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        // close the mailbox, then wait for the worker to drain it — a
        // clean shutdown finishes in-flight WAL appends before exit
        drop(std::mem::replace(&mut self.tx, mpsc::sync_channel(1).0));
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Run `op` on the named graph's actor, publish whatever it changed and
/// send its result back. Replies are best-effort: a caller that gave up
/// (dropped its receiver) does not take the worker down with it.
fn on_actor<T>(
    graphs: &mut HashMap<String, GraphActor>,
    name: String,
    reply: Reply<T>,
    op: impl FnOnce(&mut GraphActor) -> Result<T, ExpFinderError>,
) {
    let result = match graphs.get_mut(&name) {
        Some(actor) => {
            let result = op(actor);
            actor.publish();
            result
        }
        None => Err(ExpFinderError::UnknownGraph(name)),
    };
    let _ = reply.send(result);
}

/// The actor loop: pop one command, dispatch against owned state, reply.
fn run_worker(
    rx: Receiver<Cmd>,
    depth: Arc<AtomicUsize>,
    commands: Arc<AtomicU64>,
    wal_counters: Arc<WalCounters>,
    hook: Arc<RwLock<Option<UpdateHook>>>,
) {
    let mut graphs: HashMap<String, GraphActor> = HashMap::new();
    let graphs = &mut graphs;
    while let Ok(cmd) = rx.recv() {
        depth.fetch_sub(1, Ordering::Relaxed);
        commands.fetch_add(1, Ordering::Relaxed);
        match cmd {
            Cmd::Adopt { actor, reply } => {
                // the facade published the initial snapshot when it
                // built the PublishedGraph — nothing to publish here
                let version = actor.core.graph().version();
                graphs.insert(actor.name.clone(), *actor);
                let _ = reply.send(Ok(version));
            }
            Cmd::Apply {
                name,
                updates,
                trace,
                reply,
            } => on_actor(graphs, name, reply, |actor| {
                actor.apply(&updates, trace, &wal_counters, &hook)
            }),
            Cmd::Register {
                name,
                query_name,
                pattern,
                reply,
            } => on_actor(graphs, name, reply, |actor| {
                actor.register(&query_name, pattern, &wal_counters)
            }),
            Cmd::Unregister {
                name,
                query_name,
                reply,
            } => on_actor(graphs, name, reply, |actor| {
                actor.unregister(&query_name, &wal_counters)
            }),
            Cmd::Snapshot { name, reply } => {
                on_actor(graphs, name, reply, |actor| actor.save_snapshot())
            }
            Cmd::Compact { name, reply } => {
                on_actor(graphs, name, reply, |actor| actor.compact(&wal_counters))
            }
            Cmd::Compress {
                name,
                method,
                reply,
            } => on_actor(graphs, name, reply, |actor| actor.core.compress(method)),
            Cmd::DropCompression { name, reply } => on_actor(graphs, name, reply, |actor| {
                actor.core.drop_compression();
                Ok(())
            }),
            Cmd::Remove { name, reply } => {
                let result = match graphs.remove(&name) {
                    Some(actor) => {
                        let wal_path = actor.wal.path().to_path_buf();
                        let efg = actor.efg_path();
                        drop(actor); // close the WAL file first
                                     // snapshot before log: a crash in between
                                     // leaves an orphan .wal, which open() ignores —
                                     // the reverse order would resurrect the graph
                        let _ = std::fs::remove_file(efg);
                        let _ = std::fs::remove_file(wal_path);
                        Ok(())
                    }
                    None => Err(ExpFinderError::UnknownGraph(name)),
                };
                let _ = reply.send(result);
            }
        }
    }
}

/// The consistent-hash ring mapping graph names onto shards. Each shard
/// contributes [`RING_POINTS_PER_SHARD`] virtual points so load spreads
/// even with few shards, and growing the shard count moves only the
/// names whose arc changed hands (the property that makes future
/// rebalancing cheap; today the count is fixed at startup).
pub(crate) struct Ring {
    /// `(point, shard)` sorted by point.
    points: Vec<(u64, usize)>,
}

const RING_POINTS_PER_SHARD: usize = 64;

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 finalizer: FNV alone clusters similar short keys on
    // nearby ring points, starving whole shards
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

impl Ring {
    pub fn new(shards: usize) -> Ring {
        let shards = shards.max(1);
        let mut points = Vec::with_capacity(shards * RING_POINTS_PER_SHARD);
        for s in 0..shards {
            for r in 0..RING_POINTS_PER_SHARD {
                points.push((fnv64(format!("shard-{s}:{r}").as_bytes()), s));
            }
        }
        points.sort_unstable();
        points.dedup_by_key(|(p, _)| *p);
        Ring { points }
    }

    /// The shard owning `name`: the first ring point at or after the
    /// name's hash, wrapping at the top.
    pub fn shard_for(&self, name: &str) -> usize {
        let h = fnv64(name.as_bytes());
        let i = self.points.partition_point(|&(p, _)| p < h);
        self.points[i % self.points.len()].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_total() {
        let ring = Ring::new(4);
        for name in ["alpha", "beta", "collab", "fig1", "x"] {
            let s = ring.shard_for(name);
            assert!(s < 4);
            assert_eq!(s, ring.shard_for(name), "stable per name");
        }
    }

    #[test]
    fn ring_spreads_names() {
        let ring = Ring::new(4);
        let mut seen = [0usize; 4];
        for i in 0..256 {
            seen[ring.shard_for(&format!("graph-{i}"))] += 1;
        }
        // consistent hashing is not perfectly uniform, but with 64
        // virtual points per shard every shard must own something
        assert!(seen.iter().all(|&c| c > 0), "distribution: {seen:?}");
    }

    #[test]
    fn single_shard_ring_owns_everything() {
        let ring = Ring::new(1);
        assert_eq!(ring.shard_for("anything"), 0);
    }
}
