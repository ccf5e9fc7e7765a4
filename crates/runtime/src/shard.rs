//! Shard workers: the mutation half of the runtime.
//!
//! Graph names are consistently hashed onto `N` shard workers. Each
//! worker is an actor — a plain thread draining a **bounded** mailbox of
//! commands — that *owns* the authoritative [`DiGraph`], the WAL handle
//! and the registered-query maintainers of every graph on its shard.
//! Ownership is the whole concurrency story on the write side: a batch
//! has exclusive access to its graph for free (nobody else can touch
//! actor state), and no lock is ever held across evaluation because
//! readers run on *published* immutable snapshots instead (see
//! [`crate::Snapshot`]).
//!
//! Backpressure is the mailbox bound: when a shard falls behind,
//! senders block in [`ShardHandle::send`] rather than queueing
//! unboundedly. The current depth of every mailbox is exported through
//! `/metrics` (`engine.shard`), so a hot shard is visible before it is
//! a problem.

use crate::faults::{FaultInjector, IoOp};
use crate::wal::{Wal, WalOp};
use crate::{PublishedGraph, RegisteredView, Snapshot, WalCounters};
use expfinder_compress::maintain::MaintainedCompression;
use expfinder_compress::{CompressStats, CompressionMethod};
use expfinder_core::MatchRelation;
use expfinder_engine::{ExpFinderError, RegisteredDelta, UpdateHook, UpdateReport};
use expfinder_graph::{io as gio, DiGraph, EdgeUpdate};
use expfinder_incremental::{IncrementalBoundedSim, IncrementalSim, Maintainer};
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

/// A registered query riding on an actor: the pattern, its DSL source
/// (what the WAL record carries — see [`WalOp::Register`]) and its
/// incremental maintainer (mirrors the engine's routing contract).
struct RegisteredQuery {
    pattern: Pattern,
    source: String,
    maintainer: Box<dyn Maintainer + Send + Sync>,
    /// The collapsed relation as the last snapshot published it; `None`
    /// once an update changed the maintained sets. While it is `Some`,
    /// successive snapshots share the one `Arc` instead of re-collapsing
    /// (and re-copying) a relation that did not move.
    published: Option<Arc<MatchRelation>>,
}

impl RegisteredQuery {
    /// Seed the incremental maintainer from the current graph — the same
    /// routing rule the engine uses.
    fn new(
        graph: &DiGraph,
        pattern: Pattern,
        source: String,
    ) -> Result<RegisteredQuery, ExpFinderError> {
        let maintainer: Box<dyn Maintainer + Send + Sync> = if pattern.is_simulation() {
            Box::new(IncrementalSim::new(graph, &pattern)?)
        } else {
            Box::new(IncrementalBoundedSim::new(graph, &pattern))
        };
        Ok(RegisteredQuery {
            maintainer,
            pattern,
            source,
            published: None,
        })
    }

    /// Repair the maintained relation after `up` was applied to `graph`.
    /// ΔM is exact on the maintained sets, so an empty one means the
    /// published relation still stands.
    fn on_update(&mut self, graph: &DiGraph, up: EdgeUpdate) {
        if !self.maintainer.on_update(graph, up).is_empty() {
            self.published = None;
        }
    }
}

/// One graph's actor state: the authoritative mutable graph, its WAL
/// and its registered queries. Constructed by the facade (which does
/// the durable add/recover IO) and handed to the owning shard via
/// [`Cmd::Adopt`].
pub(crate) struct GraphActor {
    pub name: String,
    /// Catalog directory holding `<name>.efg` / `<name>.wal`.
    pub dir: PathBuf,
    pub graph: DiGraph,
    pub wal: Wal,
    pub published: Arc<PublishedGraph>,
    registered: HashMap<String, RegisteredQuery>,
    /// The maintained compressed quotient, when [`Cmd::Compress`] built
    /// one. Published as an immutable clone with every snapshot (like
    /// the reach index), maintained through update batches here.
    /// Deliberately *not* WAL-logged: compression is derived serving
    /// state, rebuildable on demand — a restart comes back uncompressed.
    compressed: Option<MaintainedCompression>,
    /// The runtime's fault-injection gate; every snapshot write, fsync
    /// and rename routes through it (the WAL carries its own clone).
    faults: Arc<FaultInjector>,
}

/// Recompress when maintenance drift exceeds this factor — the same
/// default the engine's `EngineConfig::recompress_drift` uses.
const RECOMPRESS_DRIFT: f64 = 2.0;

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
            graph,
            wal,
            published,
            registered: HashMap::new(),
            compressed: None,
            faults,
        }
    }

    fn efg_path(&self) -> PathBuf {
        self.dir.join(format!("{}.efg", self.name))
    }

    /// Replay one recovered WAL record onto the actor's in-memory state:
    /// no WAL append, no publish (recovery publishes once at the end).
    /// Records replay in sequence order, so a registration's maintainer
    /// is seeded from the graph exactly as it stood when the query was
    /// registered, then maintained by the update frames that follow it.
    pub(crate) fn replay_op(&mut self, op: &WalOp) -> Result<(), ExpFinderError> {
        match op {
            WalOp::Updates(ups) => {
                for &up in ups {
                    if self.graph.apply(up) {
                        for rq in self.registered.values_mut() {
                            rq.on_update(&self.graph, up);
                        }
                    }
                }
            }
            WalOp::Register { query, pattern } => {
                let parsed = parser::parse(pattern).map_err(|e| {
                    ExpFinderError::Storage(format!(
                        "wal register record for {query:?} has an unparseable pattern: {e}"
                    ))
                })?;
                let rq = RegisteredQuery::new(&self.graph, parsed, pattern.clone())?;
                self.registered.insert(query.clone(), rq);
            }
            WalOp::Unregister { query } => {
                self.registered.remove(query);
            }
        }
        Ok(())
    }

    /// Swap a fresh immutable snapshot into the published slot. The
    /// write lock covers one `Arc` store, so a racing reader is delayed
    /// by a pointer swap, never by evaluation or IO. Publishing costs
    /// `O(|ΔG|)`, not `O(|G|)`: the snapshot's graph is a clone that shares
    /// every adjacency chunk the batch did not touch (see
    /// [`expfinder_graph::digraph`]), and a registered relation whose
    /// batch ΔM was empty is the previous snapshot's `Arc`. A reader
    /// holding an older snapshot keeps exactly its version — the actor's
    /// next write copies the chunks it touches instead of writing through.
    pub(crate) fn publish(&mut self) {
        let registered = self
            .registered
            .iter_mut()
            .map(|(n, rq)| {
                let matches = rq
                    .published
                    .get_or_insert_with(|| Arc::new(rq.maintainer.current()));
                debug_assert_eq!(**matches, rq.maintainer.current(), "stale view of {n:?}");
                RegisteredView {
                    name: n.clone(),
                    fingerprint: rq.pattern.fingerprint(),
                    matches: Arc::clone(matches),
                }
            })
            .collect();
        // the quotient is copied on publish: readers keep evaluating on
        // their snapshot's while the actor maintains its own
        let compressed = self
            .compressed
            .as_ref()
            .map(|mc| Arc::new(mc.compressed().clone()));
        let slot = &self.published;
        let snap = Snapshot::new(
            slot.id,
            Arc::clone(&slot.profile),
            &self.graph,
            registered,
            compressed,
        );
        *slot.state.write() = Arc::new(snap);
    }

    /// Build (or rebuild) the maintained quotient and republish so the
    /// read path can route compression-safe queries through it.
    fn compress(&mut self, method: CompressionMethod) -> Result<CompressStats, ExpFinderError> {
        let mc = MaintainedCompression::new(&self.graph, method)?;
        let stats = mc.compressed().stats();
        self.compressed = Some(mc);
        self.publish();
        Ok(stats)
    }

    /// Drop the maintained quotient and republish without it.
    fn drop_compression(&mut self) {
        self.compressed = None;
        self.publish();
    }

    /// The write path: append the batch to the WAL (fsync per policy)
    /// *before* touching the graph, then apply, maintain registered
    /// queries, republish, and fire the update hook. The hook runs on
    /// the actor thread after the snapshot swap, so subscribers observe
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
        let (_, frame_bytes) = self
            .wal
            .append(updates)
            .map_err(|e| ExpFinderError::Storage(format!("wal append: {e}")))?;
        wal_counters.on_append(frame_bytes as u64, self.wal.fsyncs_per_append());

        let mut registered: Vec<RegisteredDelta> = if trace {
            self.registered
                .iter()
                .map(|(name, rq)| RegisteredDelta {
                    query: name.clone(),
                    before_pairs: rq.maintainer.total_pairs(),
                    after_pairs: 0,
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut applied = 0usize;
        for &up in updates {
            if !self.graph.apply(up) {
                continue;
            }
            applied += 1;
            if let Some(mc) = self.compressed.as_mut() {
                mc.on_update(&self.graph, up);
            }
            for rq in self.registered.values_mut() {
                rq.on_update(&self.graph, up);
            }
        }
        if let Some(mc) = self.compressed.as_mut() {
            mc.refresh(&self.graph);
            mc.maybe_recompress(&self.graph, RECOMPRESS_DRIFT)?;
        }
        if applied > 0 {
            self.published.profile.note_update_batch();
        }
        for d in &mut registered {
            d.after_pairs = self.registered[&d.query].maintainer.total_pairs();
        }
        registered.sort_by(|a, b| a.query.cmp(&b.query));
        self.publish();
        let report = UpdateReport {
            applied,
            attempted: updates.len(),
            graph_version: self.graph.version(),
            registered,
        };
        if let Some(hook) = &hook {
            hook(&self.name, &report);
        }
        Ok(report)
    }

    /// Register a query: WAL-append the registration record (fsynced per
    /// policy) *before* building the maintainer, so a crash right after
    /// the ack still replays the registration. The DSL source written to
    /// the log is the pattern's `Display` form, verified to re-parse to
    /// the same fingerprint before anything is committed.
    fn register(
        &mut self,
        query_name: &str,
        pattern: Pattern,
        wal_counters: &WalCounters,
    ) -> Result<(), ExpFinderError> {
        if self.registered.contains_key(query_name) {
            return Err(ExpFinderError::DuplicateQuery(query_name.to_owned()));
        }
        let source = pattern.to_string();
        let reparsed = parser::parse(&source)
            .map_err(|e| ExpFinderError::Storage(format!("pattern does not round-trip: {e}")))?;
        if reparsed.fingerprint() != pattern.fingerprint() {
            return Err(ExpFinderError::Storage(
                "pattern does not round-trip through its DSL form".to_owned(),
            ));
        }
        let rq = RegisteredQuery::new(&self.graph, pattern, source.clone())?;
        let (_, frame_bytes) = self
            .wal
            .append_op(&WalOp::Register {
                query: query_name.to_owned(),
                pattern: source,
            })
            .map_err(|e| ExpFinderError::Storage(format!("wal append: {e}")))?;
        wal_counters.on_append(frame_bytes as u64, self.wal.fsyncs_per_append());
        self.registered.insert(query_name.to_owned(), rq);
        self.publish();
        Ok(())
    }

    fn unregister(
        &mut self,
        query_name: &str,
        wal_counters: &WalCounters,
    ) -> Result<(), ExpFinderError> {
        if !self.registered.contains_key(query_name) {
            return Err(ExpFinderError::UnknownQuery(query_name.to_owned()));
        }
        let (_, frame_bytes) = self
            .wal
            .append_op(&WalOp::Unregister {
                query: query_name.to_owned(),
            })
            .map_err(|e| ExpFinderError::Storage(format!("wal append: {e}")))?;
        wal_counters.on_append(frame_bytes as u64, self.wal.fsyncs_per_append());
        self.registered.remove(query_name);
        self.publish();
        Ok(())
    }

    /// Write `<name>.efg` atomically (tmp + fsync + rename + dir fsync),
    /// so a crash mid-write — or right after the rename — leaves either
    /// the previous snapshot or the complete new one, never a torn or
    /// empty file, and the WAL stays replayable onto whichever survives.
    fn save_snapshot(&self) -> Result<PathBuf, ExpFinderError> {
        let path = self.efg_path();
        write_efg_atomic(&self.graph, &path, &self.faults)?;
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
        let mut names: Vec<&String> = self.registered.keys().collect();
        names.sort();
        let seeds: Vec<WalOp> = names
            .into_iter()
            .map(|name| WalOp::Register {
                query: name.clone(),
                pattern: self.registered[name].source.clone(),
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

/// The actor loop: pop one command, dispatch against owned state, reply.
fn run_worker(
    rx: Receiver<Cmd>,
    depth: Arc<AtomicUsize>,
    commands: Arc<AtomicU64>,
    wal_counters: Arc<WalCounters>,
    hook: Arc<RwLock<Option<UpdateHook>>>,
) {
    let mut graphs: HashMap<String, GraphActor> = HashMap::new();
    while let Ok(cmd) = rx.recv() {
        depth.fetch_sub(1, Ordering::Relaxed);
        commands.fetch_add(1, Ordering::Relaxed);
        // replies are best-effort: a caller that gave up (dropped its
        // receiver) does not take the worker down with it
        match cmd {
            Cmd::Adopt { actor, reply } => {
                // the facade published the initial snapshot when it
                // built the PublishedGraph — nothing to publish here
                let version = actor.graph.version();
                graphs.insert(actor.name.clone(), *actor);
                let _ = reply.send(Ok(version));
            }
            Cmd::Apply {
                name,
                updates,
                trace,
                reply,
            } => {
                let result = match graphs.get_mut(&name) {
                    Some(actor) => actor.apply(&updates, trace, &wal_counters, &hook),
                    None => Err(ExpFinderError::UnknownGraph(name)),
                };
                let _ = reply.send(result);
            }
            Cmd::Register {
                name,
                query_name,
                pattern,
                reply,
            } => {
                let result = match graphs.get_mut(&name) {
                    Some(actor) => actor.register(&query_name, pattern, &wal_counters),
                    None => Err(ExpFinderError::UnknownGraph(name)),
                };
                let _ = reply.send(result);
            }
            Cmd::Unregister {
                name,
                query_name,
                reply,
            } => {
                let result = match graphs.get_mut(&name) {
                    Some(actor) => actor.unregister(&query_name, &wal_counters),
                    None => Err(ExpFinderError::UnknownGraph(name)),
                };
                let _ = reply.send(result);
            }
            Cmd::Snapshot { name, reply } => {
                let result = match graphs.get(&name) {
                    Some(actor) => actor.save_snapshot(),
                    None => Err(ExpFinderError::UnknownGraph(name)),
                };
                let _ = reply.send(result);
            }
            Cmd::Compact { name, reply } => {
                let result = match graphs.get_mut(&name) {
                    Some(actor) => actor.compact(&wal_counters),
                    None => Err(ExpFinderError::UnknownGraph(name)),
                };
                let _ = reply.send(result);
            }
            Cmd::Compress {
                name,
                method,
                reply,
            } => {
                let result = match graphs.get_mut(&name) {
                    Some(actor) => actor.compress(method),
                    None => Err(ExpFinderError::UnknownGraph(name)),
                };
                let _ = reply.send(result);
            }
            Cmd::DropCompression { name, reply } => {
                let result = match graphs.get_mut(&name) {
                    Some(actor) => {
                        actor.drop_compression();
                        Ok(())
                    }
                    None => Err(ExpFinderError::UnknownGraph(name)),
                };
                let _ = reply.send(result);
            }
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
