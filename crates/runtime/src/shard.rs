//! Shard workers: where a durable write gets its WAL append.
//!
//! Graph names are consistently hashed onto `N` shard workers. Each
//! worker is an actor — a plain thread draining a **bounded** mailbox of
//! commands — that owns the [`Wal`] of every graph on its shard. The
//! graphs themselves live in the runtime's one [`ExpFinder`] (see
//! [`Store`]); a command is *WAL append → the engine's own write*, so
//! maintenance, publish and the update hook are the in-memory code, and
//! the mailbox is what orders a graph's log the way its commits are
//! ordered. Only shard workers call the engine's writes, one command at
//! a time per graph, so the engine's per-graph write mutex is never
//! contended here. Reads are not commands at all — they run on published
//! snapshots through the engine's [`Catalog`](expfinder_engine::Catalog).
//!
//! Backpressure is the mailbox bound: when a shard falls behind,
//! senders block in [`ShardHandle::send`] rather than queueing
//! unboundedly. The current depth of every mailbox is exported through
//! `/metrics` (`engine.shard`), so a hot shard is visible before it is
//! a problem.
//!
//! [`ExpFinder`]: expfinder_engine::ExpFinder

use crate::faults::{FaultInjector, IoOp, CRASH_MARKER};
use crate::wal::{Wal, WalOp};
use crate::Store;
use expfinder_compress::{CompressStats, CompressionMethod};
use expfinder_engine::{ExpFinderError, GraphHandle, MaintainedGraph, UpdateReport};
use expfinder_graph::{io as gio, DiGraph, EdgeUpdate};
use expfinder_pattern::{parser, Pattern};
use std::collections::HashMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Mailbox slots per shard; a full mailbox blocks senders (the
/// backpressure point).
const MAILBOX_CAPACITY: usize = 64;

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
    /// Make a new graph durable, then add it to the engine; replies with
    /// its initial version.
    Add {
        name: String,
        graph: DiGraph,
        reply: Reply<u64>,
    },
    /// Take ownership of a recovered graph's log (cold start: the facade
    /// replayed it and added the graph to the engine already).
    Adopt { actor: GraphActor, reply: Reply<()> },
    /// WAL-append, then apply an update batch and republish.
    Apply {
        name: String,
        updates: Vec<EdgeUpdate>,
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

/// What a shard owns of one graph: its handle in the engine and the WAL
/// every logged write is appended to first. The quotient is deliberately
/// *not* WAL-logged: compression is derived serving state, rebuildable on
/// demand — a restart comes back uncompressed.
pub(crate) struct GraphActor {
    pub handle: GraphHandle,
    pub wal: Wal,
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

/// Replay one recovered WAL record onto a graph nobody reads yet: the
/// same [`MaintainedGraph`] calls as the live path, with no WAL append
/// and no publish (recovery publishes once at the end). Records replay
/// in sequence order, so a registration's maintainer is seeded from the
/// graph exactly as it stood when the query was registered, then
/// maintained by the update frames that follow it.
pub(crate) fn replay_op(core: &mut MaintainedGraph, op: &WalOp) -> Result<(), ExpFinderError> {
    match op {
        WalOp::Updates(ups) => core.apply(ups, false).map(|_| ()),
        WalOp::Register { query, pattern } => {
            let parsed = parser::parse(pattern).map_err(|e| {
                ExpFinderError::Storage(format!(
                    "wal register record for {query:?} has an unparseable pattern: {e}"
                ))
            })?;
            core.register(query, parsed, |_| Ok(()))
        }
        // the log's own history vouches for the name; a record for a
        // query that is not there has nothing to undo
        WalOp::Unregister { query } => core.unregister(query, || Ok(())).or(Ok(())),
    }
}

impl GraphActor {
    /// The write path: append the batch to the WAL (fsync per policy)
    /// *before* touching the graph, then the engine's traced apply —
    /// maintain, publish and the update hook, under the graph's write
    /// mutex exactly as in memory — so subscribers observe frames in
    /// commit order and a frame's `graph_version` is already readable
    /// when it arrives.
    fn apply(
        &mut self,
        store: &Store,
        updates: &[EdgeUpdate],
    ) -> Result<UpdateReport, ExpFinderError> {
        store.log(&mut self.wal, &WalOp::Updates(updates.to_vec()))?;
        store.engine.apply_updates_traced(&self.handle, updates)
    }

    /// Register a query: the registration record (carrying the pattern's
    /// DSL source, fsynced per policy) is WAL-appended once the
    /// registration can no longer be refused and *before* it takes
    /// effect, so a crash right after the ack still replays it.
    fn register(
        &mut self,
        store: &Store,
        query_name: &str,
        pattern: Pattern,
    ) -> Result<(), ExpFinderError> {
        let wal = &mut self.wal;
        store.engine.write(&self.handle, |core| {
            core.register(query_name, pattern, |pattern| {
                let op = WalOp::Register {
                    query: query_name.to_owned(),
                    pattern: dsl_source(pattern)?,
                };
                store.log(wal, &op)
            })
        })
    }

    fn unregister(&mut self, store: &Store, query_name: &str) -> Result<(), ExpFinderError> {
        let wal = &mut self.wal;
        store.engine.write(&self.handle, |core| {
            core.unregister(query_name, || {
                let op = WalOp::Unregister {
                    query: query_name.to_owned(),
                };
                store.log(wal, &op)
            })
        })
    }

    /// Write `<name>.efg` atomically (tmp + fsync + rename + dir fsync)
    /// from the published graph — this shard is the graph's only writer,
    /// so that is its current state — so a crash mid-write, or right
    /// after the rename, leaves either the previous snapshot or the
    /// complete new one, never a torn or empty file, and the WAL stays
    /// replayable onto whichever survives.
    fn save_snapshot(&self, store: &Store) -> Result<PathBuf, ExpFinderError> {
        let path = store.efg_path(self.handle.name());
        let latest = store.engine.latest(&self.handle)?;
        write_efg_atomic(latest.graph(), &path, &store.faults)?;
        Ok(path)
    }

    fn compact(&mut self, store: &Store) -> Result<CompactReport, ExpFinderError> {
        let snapshot = self.save_snapshot(store)?;
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
        let seeds: Vec<WalOp> = store.engine.write(&self.handle, |core| {
            let seed = |(name, pattern): (&str, &Pattern)| WalOp::Register {
                query: name.to_owned(),
                pattern: pattern.to_string(),
            };
            Ok(core.registered_patterns().map(seed).collect())
        })?;
        let sizes = self
            .wal
            .reset_seeded(&seeds)
            .map_err(|e| ExpFinderError::Storage(format!("wal swap: {e}")))?;
        for frame_bytes in sizes {
            // the swap fsyncs once for the whole batch, not per frame
            store.wal_counters.on_append(frame_bytes as u64, 0);
        }
        Ok(CompactReport {
            snapshot,
            wal_bytes_dropped,
        })
    }
}

/// Save a graph to `path` via a sibling `.tmp` file and an atomic
/// rename, fsyncing the tmp file *before* the rename and the parent
/// directory *after* it — without the first, the rename can become
/// durable ahead of the bytes it names (publishing an empty snapshot
/// after a power cut); without the second, the rename itself may not
/// survive one. Shared by the snapshot/compact path and the initial
/// write of [`Cmd::Add`].
fn write_efg_atomic(
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

/// [`Cmd::Add`]: duplicate check → `.efg` (atomic) → WAL create → catalog
/// insert, so a graph is listed only once it is durable. A failed step
/// removes what the earlier ones left, unless it was a simulated crash —
/// a real one would not clean up either, and `open` adopts an `.efg`
/// whose log is missing or empty as a graph with no history.
fn add(
    store: &Store,
    graphs: &mut HashMap<String, GraphActor>,
    name: String,
    graph: DiGraph,
) -> Result<u64, ExpFinderError> {
    if graphs.contains_key(&name) {
        return Err(ExpFinderError::DuplicateGraph(name));
    }
    let version = graph.version();
    let (efg, wal_path) = (store.efg_path(&name), store.wal_path(&name));
    // a stale log from a removed former life must not replay onto the
    // new graph
    let _ = std::fs::remove_file(&wal_path);
    let added = write_efg_atomic(&graph, &efg, &store.faults).and_then(|()| {
        let wal = store.open_wal(&name, 0)?;
        let handle = store.engine.add_graph(&name, graph)?;
        Ok(GraphActor { handle, wal })
    });
    match added {
        Ok(actor) => {
            graphs.insert(name, actor);
            Ok(version)
        }
        Err(e) => {
            if !e.to_string().contains(CRASH_MARKER) {
                for path in [efg.with_extension("efg.tmp"), efg, wal_path] {
                    let _ = std::fs::remove_file(path);
                }
            }
            Err(e)
        }
    }
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
    /// Spawn shard worker `index` over the runtime's shared [`Store`].
    pub fn spawn(index: usize, store: Arc<Store>) -> ShardHandle {
        let (tx, rx) = mpsc::sync_channel(MAILBOX_CAPACITY);
        let depth = Arc::new(AtomicUsize::new(0));
        let commands = Arc::new(AtomicU64::new(0));
        let worker_depth = Arc::clone(&depth);
        let worker_commands = Arc::clone(&commands);
        let join = std::thread::Builder::new()
            .name(format!("efshard-{index}"))
            .spawn(move || run_worker(rx, worker_depth, worker_commands, &store))
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

/// Run `op` on the named graph's actor and send its result back (the
/// engine write inside `op` published whatever it changed). Replies are
/// best-effort: a caller that gave up (dropped its receiver) does not
/// take the worker down with it.
fn on_actor<T>(
    graphs: &mut HashMap<String, GraphActor>,
    name: String,
    reply: Reply<T>,
    op: impl FnOnce(&mut GraphActor) -> Result<T, ExpFinderError>,
) {
    let result = match graphs.get_mut(&name) {
        Some(actor) => op(actor),
        None => Err(ExpFinderError::UnknownGraph(name)),
    };
    let _ = reply.send(result);
}

/// The actor loop: pop one command, dispatch against owned state, reply.
fn run_worker(rx: Receiver<Cmd>, depth: Arc<AtomicUsize>, commands: Arc<AtomicU64>, store: &Store) {
    let mut graphs: HashMap<String, GraphActor> = HashMap::new();
    let graphs = &mut graphs;
    while let Ok(cmd) = rx.recv() {
        depth.fetch_sub(1, Ordering::Relaxed);
        commands.fetch_add(1, Ordering::Relaxed);
        match cmd {
            Cmd::Add { name, graph, reply } => {
                let _ = reply.send(add(store, graphs, name, graph));
            }
            Cmd::Adopt { actor, reply } => {
                graphs.insert(actor.handle.name().to_owned(), actor);
                let _ = reply.send(Ok(()));
            }
            Cmd::Apply {
                name,
                updates,
                reply,
            } => on_actor(graphs, name, reply, |actor| actor.apply(store, &updates)),
            Cmd::Register {
                name,
                query_name,
                pattern,
                reply,
            } => on_actor(graphs, name, reply, |actor| {
                actor.register(store, &query_name, pattern)
            }),
            Cmd::Unregister {
                name,
                query_name,
                reply,
            } => on_actor(graphs, name, reply, |actor| {
                actor.unregister(store, &query_name)
            }),
            Cmd::Snapshot { name, reply } => {
                on_actor(graphs, name, reply, |actor| actor.save_snapshot(store))
            }
            Cmd::Compact { name, reply } => {
                on_actor(graphs, name, reply, |actor| actor.compact(store))
            }
            Cmd::Compress {
                name,
                method,
                reply,
            } => on_actor(graphs, name, reply, |actor| {
                store.engine.compress(&actor.handle, method)
            }),
            Cmd::DropCompression { name, reply } => on_actor(graphs, name, reply, |actor| {
                store.engine.drop_compression(&actor.handle)
            }),
            Cmd::Remove { name, reply } => {
                let result = match graphs.remove(&name) {
                    Some(GraphActor { handle, wal }) => {
                        let unlisted = store.engine.remove_graph(&handle);
                        // close the log before deleting it; snapshot before
                        // log: a crash in between leaves an orphan .wal, which
                        // open() ignores — the reverse order would resurrect
                        // the graph
                        drop(wal);
                        let _ = std::fs::remove_file(store.efg_path(&name));
                        let _ = std::fs::remove_file(store.wal_path(&name));
                        unlisted
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
