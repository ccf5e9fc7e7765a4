//! Actor-per-shard runtime with an event-sourced write-ahead log.
//!
//! [`DurableExpFinder`] is the durable sibling of
//! [`expfinder_engine::ExpFinder`]: the same catalog-of-graphs surface
//! (add, query, update, register, batch), re-founded on two ideas the
//! in-memory engine does not have —
//!
//! 1. **Actor-owned writes.** Graph names are consistently hashed onto
//!    `N` shard workers (the `shard` module); each worker owns the
//!    authoritative
//!    [`DiGraph`] of its graphs and drains a *bounded* mailbox of
//!    commands, so an update batch has exclusive access by construction
//!    and backpressure is a full mailbox, not an unbounded queue.
//! 2. **Event-sourced durability.** Every accepted update batch is
//!    appended to a per-graph WAL ([`wal`]) *before* it is applied.
//!    Cold start replays `<name>.wal` onto the last `<name>.efg`
//!    snapshot; compaction rewrites the snapshot and truncates the log.
//!
//! Reads never enter a mailbox: each actor *publishes* an immutable
//! [`Arc`] snapshot of its graph after every change (with the CSR
//! snapshot and the per-version reach index travelling along, built
//! lazily), and queries evaluate against whichever snapshot they
//! grabbed. A reader holds a lock only long enough to clone an `Arc`,
//! so readers never block on writers and a query's `graph_version` is
//! exact for the state it saw. That `Arc` clone is all of the read side
//! this crate implements: cache, registered short circuit, planning,
//! evaluation, ranking, batch fan-out and cost estimation are the
//! engine's [`ReadPath`] over the engine's [`Snapshot`] — the same code,
//! not a copy.
//!
//! Nor does this crate implement graph maintenance. What an actor owns
//! per graph is the engine's
//! [`MaintainedGraph`](expfinder_engine::MaintainedGraph) — the same apply /
//! register / unregister / compress / publish the in-memory facade runs
//! under a mutex — plus the graph's [`wal::Wal`]: the durable write path
//! is the shared one with a WAL append in front of each step.
//!
//! The WAL is *event-sourced serving state*, not just graph history:
//! registered queries are logged as `register`/`unregister` records and
//! replayed in sequence order on cold start, so standing queries (and
//! the push subscriptions built on them) survive a restart. Compaction
//! re-seeds the truncated log with one register record per live query.
//!
//! Maintained compression works here too: [`DurableExpFinder::compress`]
//! asks the owning shard actor to build the quotient, which then travels
//! with every published snapshot (like the reach index) and is
//! maintained through update batches, so `Route::Compressed` — and the
//! planner's compressed candidate — evaluate on the quotient exactly as
//! on the in-memory engine. Compression is *session* state, not
//! WAL-logged: it is derived, rebuildable on demand, and a restart
//! comes back uncompressed.
//!
//! Route selection is therefore the engine's cost-based planner
//! ([`expfinder_engine::planner`]): every snapshot of a graph holds an
//! `Arc` of the same [`CostProfile`](expfinder_engine::CostProfile), so
//! read/update frequencies and index hit rates accumulate across
//! snapshot versions and every [`QueryResponse`] carries its plan
//! decision.
//!
//! ```
//! use expfinder_runtime::{DurableExpFinder, RuntimeConfig, FsyncPolicy};
//! use expfinder_engine::Route;
//! use expfinder_graph::fixtures::collaboration_fig1;
//! use expfinder_pattern::fixtures::fig1_pattern;
//!
//! let dir = std::env::temp_dir().join(format!("ef-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let config = RuntimeConfig { fsync: FsyncPolicy::Never, ..RuntimeConfig::default() };
//! let rt = DurableExpFinder::open(&dir, config.clone()).unwrap();
//! rt.add_graph("fig1", collaboration_fig1().graph).unwrap();
//! rt.register_query("fig1", "team", fig1_pattern()).unwrap();
//! drop(rt);
//!
//! // reopen: the graph *and* its registered query are recovered
//! let rt = DurableExpFinder::open(&dir, config).unwrap();
//! assert_eq!(rt.registered_queries("fig1").unwrap(), vec!["team".to_owned()]);
//! let resp = rt.query("fig1", &fig1_pattern(), Some(2), Route::Auto).unwrap();
//! assert_eq!(resp.experts.len(), 2);
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

pub mod faults;
pub mod wal;

pub(crate) mod shard;

pub use faults::{FaultInjector, FaultKind, FaultPlan, FaultTotals, IoOp};
pub use shard::{CompactReport, ShardStats};
pub use wal::FsyncPolicy;

use crate::shard::{write_efg_atomic, Cmd, GraphActor, Reply, Ring, ShardHandle};
use crate::wal::{ReplaySummary, Wal};
use expfinder_compress::{CompressStats, CompressionMethod};
pub use expfinder_core::CancelToken;
use expfinder_core::MatchRelation;
use expfinder_engine::{
    validate_graph_name, ExecConfig, ExpFinderError, GraphInfo, IndexTotals, PublishedGraph,
    QueryResponse, QuerySpec, ReadPath, Route, Snapshot, UpdateHook, UpdateReport,
};
use expfinder_graph::{io as gio, DiGraph, EdgeUpdate};
use expfinder_pattern::Pattern;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------
// WAL metrics
// ---------------------------------------------------------------------

/// Shared WAL counters, bumped by shard workers on append and by
/// [`DurableExpFinder::open`] during replay.
#[derive(Debug, Default)]
pub(crate) struct WalCounters {
    appends: AtomicU64,
    fsyncs: AtomicU64,
    bytes: AtomicU64,
    replayed_frames: AtomicU64,
    replayed_updates: AtomicU64,
    truncated_tails: AtomicU64,
}

impl WalCounters {
    pub fn on_append(&self, frame_bytes: u64, fsyncs: u64) {
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.fsyncs.fetch_add(fsyncs, Ordering::Relaxed);
        self.bytes.fetch_add(frame_bytes, Ordering::Relaxed);
    }

    fn on_replay(&self, s: &ReplaySummary) {
        self.replayed_frames
            .fetch_add(s.frames as u64, Ordering::Relaxed);
        self.replayed_updates
            .fetch_add(s.updates as u64, Ordering::Relaxed);
        if s.truncated_tail {
            self.truncated_tails.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn totals(&self) -> WalTotals {
        WalTotals {
            appends: self.appends.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            replayed_frames: self.replayed_frames.load(Ordering::Relaxed),
            replayed_updates: self.replayed_updates.load(Ordering::Relaxed),
            truncated_tails: self.truncated_tails.load(Ordering::Relaxed),
        }
    }
}

/// Cumulative WAL activity since this runtime started — the
/// `engine.wal` block of `GET /metrics`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WalTotals {
    /// Frames appended (one per accepted update batch or
    /// register/unregister record).
    pub appends: u64,
    /// `fsync` calls issued by appends.
    pub fsyncs: u64,
    /// Frame bytes appended.
    pub bytes: u64,
    /// Frames replayed during cold start.
    pub replayed_frames: u64,
    /// Updates inside those frames.
    pub replayed_updates: u64,
    /// Logs whose torn tail was detected and truncated at replay.
    pub truncated_tails: u64,
}

// ---------------------------------------------------------------------
// configuration
// ---------------------------------------------------------------------

/// Knobs of one [`DurableExpFinder`].
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Shard worker threads (graphs are consistently hashed across
    /// them). More shards = more independent write pipelines.
    pub shards: usize,
    /// Mailbox slots per shard; a full mailbox blocks senders (the
    /// backpressure point).
    pub mailbox_capacity: usize,
    /// When WAL appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Cached query results (LRU), shared across graphs.
    pub cache_capacity: usize,
    /// Per-query / batch thread budget (same semantics as the engine).
    pub exec: ExecConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        RuntimeConfig {
            // write pipelines, not compute: a handful is plenty, and
            // each idle shard is a parked thread
            shards: cores.clamp(1, 4),
            mailbox_capacity: 64,
            fsync: FsyncPolicy::Always,
            cache_capacity: 64,
            exec: ExecConfig::default(),
        }
    }
}

// ---------------------------------------------------------------------
// the facade
// ---------------------------------------------------------------------

/// The durable, sharded ExpFinder: same query surface as the in-memory
/// engine, with every graph owned by a shard actor and every update
/// batch WAL-logged before it is applied. See the crate docs for the
/// architecture.
pub struct DurableExpFinder {
    dir: PathBuf,
    config: RuntimeConfig,
    graphs: RwLock<HashMap<String, Arc<PublishedGraph>>>,
    shards: Vec<ShardHandle>,
    ring: Ring,
    /// The engine's read path, shared verbatim: result cache, scratch
    /// pool, thread budget, planner / evaluation / cancellation counters.
    read: ReadPath,
    wal_counters: Arc<WalCounters>,
    /// The fault-injection gate every durability-critical I/O site of
    /// this runtime routes through (disarmed in production — see
    /// [`faults`]).
    faults: Arc<FaultInjector>,
    /// Observer of committed update batches, shared with every shard
    /// worker (ΔM push fan-out; see [`DurableExpFinder::set_update_hook`]).
    update_hook: Arc<RwLock<Option<UpdateHook>>>,
    next_id: AtomicU64,
}

// one runtime, many threads — same contract as the engine
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DurableExpFinder>();
};

impl DurableExpFinder {
    /// Open (creating if needed) the catalog at `dir` and recover every
    /// graph: load `<name>.efg`, replay `<name>.wal` onto it (torn
    /// tails truncated), and hand the result to its owning shard. A
    /// `.wal` with no matching `.efg` is ignored — `add_graph` writes
    /// the snapshot before the log ever accepts a frame, so an orphan
    /// log belongs to a removed graph.
    pub fn open(
        dir: impl AsRef<Path>,
        config: RuntimeConfig,
    ) -> Result<DurableExpFinder, ExpFinderError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let wal_counters = Arc::new(WalCounters::default());
        let update_hook: Arc<RwLock<Option<UpdateHook>>> = Arc::new(RwLock::new(None));
        let shards: Vec<ShardHandle> = (0..config.shards.max(1))
            .map(|i| {
                ShardHandle::spawn(
                    i,
                    config.mailbox_capacity,
                    Arc::clone(&wal_counters),
                    Arc::clone(&update_hook),
                )
            })
            .collect();
        let ring = Ring::new(config.shards.max(1));
        let read = ReadPath::new(config.cache_capacity, config.exec);
        let rt = DurableExpFinder {
            dir,
            config,
            graphs: RwLock::new(HashMap::new()),
            shards,
            ring,
            read,
            wal_counters,
            faults: FaultInjector::disarmed(),
            update_hook,
            next_id: AtomicU64::new(1),
        };

        let mut names: Vec<String> = Vec::new();
        for entry in rt.dir.read_dir()? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "efg") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    names.push(stem.to_owned());
                }
            }
        }
        names.sort();
        for name in names {
            rt.recover_graph(&name)?;
        }
        Ok(rt)
    }

    /// Cold-start one graph: load the snapshot, replay the WAL's records
    /// — update batches *and* register/unregister records — in sequence
    /// order onto an actor, publish the recovered state (registered
    /// queries included), then hand ownership to the shard.
    fn recover_graph(&self, name: &str) -> Result<(), ExpFinderError> {
        let graph = gio::load_text(self.dir.join(format!("{name}.efg")))?;
        let wal_path = self.wal_path(name);
        let (records, summary) = Wal::replay(&wal_path)
            .map_err(|e| ExpFinderError::Storage(format!("wal replay for {name:?}: {e}")))?;
        let last_seq = records.last().map_or(0, |r| r.seq);
        self.wal_counters.on_replay(&summary);
        let wal = Wal::open_with_faults(
            &wal_path,
            self.config.fsync,
            last_seq,
            Arc::clone(&self.faults),
        )
        .map_err(|e| ExpFinderError::Storage(format!("wal open for {name:?}: {e}")))?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let published = Arc::new(PublishedGraph::new(id, &graph));
        let mut actor = GraphActor::new(
            name.to_owned(),
            self.dir.clone(),
            graph,
            wal,
            Arc::clone(&published),
            Arc::clone(&self.faults),
        );
        for rec in &records {
            actor.replay_op(&rec.op)?;
        }
        // publish before adoption: the first snapshot readers see
        // already carries the replayed graph and its registered queries
        actor.publish();
        self.graphs
            .write()
            .insert(name.to_owned(), Arc::clone(&published));
        self.request(name, |reply| Cmd::Adopt {
            actor: Box::new(actor),
            reply,
        })?;
        Ok(())
    }

    /// Install (or, with `None`, remove) the [`UpdateHook`] every shard
    /// worker fires after committing an update batch. The hook runs on
    /// the actor thread right after the snapshot publish, so per-graph
    /// invocations arrive in commit order; while one is installed,
    /// batches are always traced (full ΔM in every report).
    pub fn set_update_hook(&self, hook: Option<UpdateHook>) {
        *self.update_hook.write() = hook;
    }

    /// The catalog directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configuration the runtime was opened with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    fn wal_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.wal"))
    }

    /// Send one command to the shard owning `name` and wait for its
    /// reply (a graph the shard does not know answers `UnknownGraph`); a
    /// dead worker surfaces as a storage error, never a hang.
    fn request<T>(
        &self,
        name: &str,
        mk: impl FnOnce(Reply<T>) -> Cmd,
    ) -> Result<T, ExpFinderError> {
        let (tx, rx) = mpsc::sync_channel(1);
        self.shards[self.ring.shard_for(name)].send(mk(tx))?;
        rx.recv()
            .map_err(|_| ExpFinderError::Storage("shard worker terminated".to_owned()))?
    }

    /// The runtime's half of a read: the latest published snapshot of
    /// the named graph. Everything after it — cache, registered, plan,
    /// evaluate, rank — is the engine's [`ReadPath`].
    fn latest(&self, name: &str) -> Result<Arc<Snapshot>, ExpFinderError> {
        match self.graphs.read().get(name) {
            Some(published) => Ok(published.latest()),
            None => Err(ExpFinderError::UnknownGraph(name.to_owned())),
        }
    }

    // --------------------------- catalog ---------------------------

    /// Add a graph: write its `.efg` snapshot, create its WAL, and hand
    /// ownership to the shard the name hashes to. Durable when this
    /// returns. The graph becomes queryable a moment before the shard's
    /// ack; if the durable IO fails it is unpublished again and the
    /// error surfaces here.
    pub fn add_graph(&self, name: &str, graph: DiGraph) -> Result<u64, ExpFinderError> {
        validate_graph_name(name)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let published = Arc::new(PublishedGraph::new(id, &graph));
        {
            let mut graphs = self.graphs.write();
            if graphs.contains_key(name) {
                return Err(ExpFinderError::DuplicateGraph(name.to_owned()));
            }
            graphs.insert(name.to_owned(), Arc::clone(&published));
        }
        // durable IO happens outside the registry lock so concurrent
        // readers of other graphs never wait on this graph's disk
        let result = (|| {
            let wal_path = self.wal_path(name);
            // a stale log from a removed former life must not replay
            // onto the new graph
            let _ = std::fs::remove_file(&wal_path);
            write_efg_atomic(&graph, &self.dir.join(format!("{name}.efg")), &self.faults)?;
            let wal =
                Wal::open_with_faults(&wal_path, self.config.fsync, 0, Arc::clone(&self.faults))
                    .map_err(|e| ExpFinderError::Storage(format!("wal open for {name:?}: {e}")))?;
            let actor = GraphActor::new(
                name.to_owned(),
                self.dir.clone(),
                graph,
                wal,
                published,
                Arc::clone(&self.faults),
            );
            self.request(name, |reply| Cmd::Adopt {
                actor: Box::new(actor),
                reply,
            })
        })();
        match result {
            Ok(version) => Ok(version),
            Err(e) => {
                self.graphs.write().remove(name);
                Err(e)
            }
        }
    }

    /// Remove a graph and delete its files (snapshot first, then log,
    /// so a crash in between leaves only an orphan `.wal`, which `open`
    /// ignores).
    pub fn remove_graph(&self, name: &str) -> Result<(), ExpFinderError> {
        self.request(name, |reply| Cmd::Remove {
            name: name.to_owned(),
            reply,
        })?;
        self.graphs.write().remove(name);
        Ok(())
    }

    /// Managed graph names, sorted.
    pub fn graph_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.graphs.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Point-in-time summaries of every graph, sorted by name.
    pub fn graph_infos(&self) -> Vec<GraphInfo> {
        let graphs = self.graphs.read();
        let mut infos: Vec<GraphInfo> = graphs
            .iter()
            .map(|(name, published)| published.latest().info(name))
            .collect();
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    /// Run `f` against the published snapshot's graph (no lock held
    /// while `f` runs — it borrows the snapshot `Arc`).
    pub fn read_graph<R>(
        &self,
        name: &str,
        f: impl FnOnce(&DiGraph) -> R,
    ) -> Result<R, ExpFinderError> {
        Ok(f(self.latest(name)?.graph()))
    }

    /// The published version of a graph.
    pub fn graph_version(&self, name: &str) -> Result<u64, ExpFinderError> {
        Ok(self.latest(name)?.version())
    }

    // --------------------------- queries ---------------------------

    /// Evaluate one pattern, optionally ranking the best `top_k`
    /// experts. Runs entirely on the calling thread against the latest
    /// published snapshot.
    pub fn query(
        &self,
        name: &str,
        pattern: &Pattern,
        top_k: Option<usize>,
        prefer: Route,
    ) -> Result<QueryResponse, ExpFinderError> {
        self.query_deadline(name, pattern, top_k, prefer, None)
    }

    /// [`DurableExpFinder::query`] under an evaluation budget: once
    /// `deadline` has elapsed the evaluation abandons work at its next
    /// cancellation point and returns
    /// [`ExpFinderError::DeadlineExceeded`] with the partial
    /// [`EvalStats`](expfinder_core::EvalStats). `None` costs nothing on
    /// the hot path.
    pub fn query_deadline(
        &self,
        name: &str,
        pattern: &Pattern,
        top_k: Option<usize>,
        prefer: Route,
        deadline: Option<Duration>,
    ) -> Result<QueryResponse, ExpFinderError> {
        let token = deadline.map(CancelToken::with_deadline);
        let cancel = token.as_deref();
        self.read
            .query(|| self.latest(name), pattern, top_k, prefer, cancel)
    }

    /// [`DurableExpFinder::query`] polling a caller-supplied
    /// [`CancelToken`] at every cancellation point — the durable
    /// counterpart of the engine's `QueryBuilder::cancel_token`: a
    /// `cancel()` from another thread (a disconnected client, a
    /// supervisor, a deterministic test fuse) aborts the evaluation with
    /// [`ExpFinderError::DeadlineExceeded`] carrying the partial stats.
    /// The token's check/fire counts are folded into
    /// [`ReadPath::cancel_totals`] when the call returns.
    pub fn query_cancellable(
        &self,
        name: &str,
        pattern: &Pattern,
        top_k: Option<usize>,
        prefer: Route,
        token: &CancelToken,
    ) -> Result<QueryResponse, ExpFinderError> {
        self.read
            .query(|| self.latest(name), pattern, top_k, prefer, Some(token))
    }

    /// Evaluate a batch of specs against one graph, fanning out across
    /// `exec.batch_parallelism` workers with the engine's split-budget
    /// rule (`threads / workers` inner threads each). All slots see the
    /// same published snapshot era (each grabs the latest at its start).
    pub fn query_batch(
        &self,
        name: &str,
        specs: Vec<QuerySpec>,
    ) -> Vec<Result<QueryResponse, ExpFinderError>> {
        self.query_batch_deadline(name, specs, None)
    }

    /// [`DurableExpFinder::query_batch`] under one shared deadline — the
    /// durable counterpart of
    /// [`ExpFinder::query_batch_deadline`](expfinder_engine::ExpFinder::query_batch_deadline):
    /// one token polled by every worker, per-spec deadlines tightening
    /// their own slot.
    pub fn query_batch_deadline(
        &self,
        name: &str,
        specs: Vec<QuerySpec>,
        deadline: Option<Duration>,
    ) -> Vec<Result<QueryResponse, ExpFinderError>> {
        self.read
            .query_batch(|| self.latest(name), &specs, deadline)
    }

    // --------------------------- updates ---------------------------

    /// Apply edge updates through the owning shard: WAL-append (fsynced
    /// per policy), apply, maintain registered queries, republish.
    /// Returns how many updates changed the graph.
    pub fn apply_updates(
        &self,
        name: &str,
        updates: &[EdgeUpdate],
    ) -> Result<usize, ExpFinderError> {
        Ok(self.apply_updates_inner(name, updates, false)?.applied)
    }

    /// Like [`DurableExpFinder::apply_updates`] with the full ΔM report.
    pub fn apply_updates_traced(
        &self,
        name: &str,
        updates: &[EdgeUpdate],
    ) -> Result<UpdateReport, ExpFinderError> {
        self.apply_updates_inner(name, updates, true)
    }

    fn apply_updates_inner(
        &self,
        name: &str,
        updates: &[EdgeUpdate],
        trace: bool,
    ) -> Result<UpdateReport, ExpFinderError> {
        self.request(name, |reply| Cmd::Apply {
            name: name.to_owned(),
            updates: updates.to_vec(),
            trace,
            reply,
        })
    }

    // ---------------------- registered queries ---------------------

    /// Register a query for incremental maintenance on its shard. The
    /// registration is durable: a `register` record (carrying the
    /// pattern's DSL source) is WAL-appended before the ack, and cold
    /// start replays it — the query, and any push subscription that
    /// names it, survives a restart.
    pub fn register_query(
        &self,
        name: &str,
        query_name: &str,
        pattern: Pattern,
    ) -> Result<(), ExpFinderError> {
        self.request(name, |reply| Cmd::Register {
            name: name.to_owned(),
            query_name: query_name.to_owned(),
            pattern,
            reply,
        })
    }

    /// Drop a registered query. The removal is WAL-logged before it
    /// takes effect, so it survives a restart like the registration did.
    pub fn unregister_query(&self, name: &str, query_name: &str) -> Result<(), ExpFinderError> {
        self.request(name, |reply| Cmd::Unregister {
            name: name.to_owned(),
            query_name: query_name.to_owned(),
            reply,
        })
    }

    /// Names of queries registered on a graph, sorted.
    pub fn registered_queries(&self, name: &str) -> Result<Vec<String>, ExpFinderError> {
        Ok(self.latest(name)?.registered_queries())
    }

    /// The maintained result of a registered query, as published.
    pub fn registered_result(
        &self,
        name: &str,
        query_name: &str,
    ) -> Result<MatchRelation, ExpFinderError> {
        let snap = self.latest(name)?;
        Ok((**snap.registered_result(query_name)?).clone())
    }

    // ------------------------- compression -------------------------

    /// Build (or rebuild) a maintained reachability-preserving
    /// compression of a graph on its shard and publish the quotient with
    /// the next snapshot. The quotient is session state — it is *not*
    /// WAL-logged, so a restart comes back uncompressed and `compress`
    /// must be called again.
    pub fn compress(
        &self,
        name: &str,
        method: CompressionMethod,
    ) -> Result<CompressStats, ExpFinderError> {
        self.request(name, |reply| Cmd::Compress {
            name: name.to_owned(),
            method,
            reply,
        })
    }

    /// Drop a graph's maintained compression; subsequent snapshots
    /// publish without a quotient and the planner stops considering
    /// the compressed route.
    pub fn drop_compression(&self, name: &str) -> Result<(), ExpFinderError> {
        self.request(name, |reply| Cmd::DropCompression {
            name: name.to_owned(),
            reply,
        })
    }

    /// Compression statistics of the currently published quotient, or
    /// `None` when the graph is not compressed.
    pub fn compression_stats(&self, name: &str) -> Result<Option<CompressStats>, ExpFinderError> {
        Ok(self.latest(name)?.quotient().map(|gc| gc.stats()))
    }

    // ---------------------- snapshot / compact ---------------------

    /// Rewrite `<name>.efg` from the current graph (WAL untouched).
    pub fn snapshot(&self, name: &str) -> Result<PathBuf, ExpFinderError> {
        self.request(name, |reply| Cmd::Snapshot {
            name: name.to_owned(),
            reply,
        })
    }

    /// Rewrite `<name>.efg`, then truncate the WAL — the log's frames
    /// are folded into the snapshot.
    pub fn compact(&self, name: &str) -> Result<CompactReport, ExpFinderError> {
        self.request(name, |reply| Cmd::Compact {
            name: name.to_owned(),
            reply,
        })
    }

    // --------------------------- metrics ---------------------------

    /// The read path this runtime answers queries through — the source
    /// of the cache / evaluation / planner / cancellation counters.
    pub fn read_path(&self) -> &ReadPath {
        &self.read
    }

    /// Reach-index totals: cumulative hits/misses plus live entry/byte
    /// gauges over the currently published snapshots' indexes (direct
    /// and quotient).
    pub fn index_totals(&self) -> IndexTotals {
        let graphs = self.graphs.read();
        self.read
            .index_totals(graphs.values().map(|published| published.latest()))
    }

    /// Cumulative WAL activity.
    pub fn wal_totals(&self) -> WalTotals {
        self.wal_counters.totals()
    }

    /// Cumulative fault-injection activity (`engine.faults` in
    /// `/metrics`); all zeros unless a test harness armed a plan.
    pub fn fault_totals(&self) -> FaultTotals {
        self.faults.totals()
    }

    /// The fault-injection gate of this runtime, for test harnesses to
    /// arm ([`FaultInjector::arm`]). Production code never touches it —
    /// disarmed hooks cost one relaxed atomic load per I/O boundary.
    pub fn fault_injector(&self) -> Arc<FaultInjector> {
        Arc::clone(&self.faults)
    }

    /// Estimate the planner cost (abstract work units) of evaluating
    /// `pattern` on the latest published snapshot of `name`, without
    /// evaluating anything — the server's admission-control hook
    /// ([`ReadPath::estimate_cost`]).
    pub fn estimate_cost(&self, name: &str, pattern: &Pattern) -> Result<f64, ExpFinderError> {
        Ok(self.read.estimate_cost(&*self.latest(name)?, pattern))
    }

    /// Per-shard load: mailbox depth, owned graphs, processed commands.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let mut per_shard_graphs = vec![0usize; self.shards.len()];
        for name in self.graphs.read().keys() {
            per_shard_graphs[self.ring.shard_for(name)] += 1;
        }
        self.shards
            .iter()
            .enumerate()
            .map(|(i, h)| ShardStats {
                shard: i,
                depth: h.depth(),
                graphs: per_shard_graphs[i],
                commands: h.commands(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_engine::{EvalRoute, PlanRoute};
    use expfinder_graph::fixtures::collaboration_fig1;
    use expfinder_graph::GraphView;
    use expfinder_pattern::fixtures::{fig1_pattern, fig1_pattern_simulation};
    use parking_lot::Mutex;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("expfinder_rt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sequential_config() -> RuntimeConfig {
        RuntimeConfig {
            shards: 2,
            fsync: FsyncPolicy::Never,
            exec: ExecConfig::sequential(),
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn zero_deadline_aborts_and_leaves_runtime_unpoisoned() {
        let dir = tmpdir("deadline");
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        rt.add_graph("fig1", collaboration_fig1().graph).unwrap();
        let q = fig1_pattern();
        let err = rt
            .query_deadline("fig1", &q, None, Route::Auto, Some(Duration::ZERO))
            .unwrap_err();
        assert_eq!(err.http_status(), 408);
        assert!(err.partial_stats().is_some());
        assert!(rt.read_path().cancel_totals().fired >= 1);
        // the next un-deadlined query is unaffected and uncached
        let ok = rt.query("fig1", &q, None, Route::Auto).unwrap();
        assert_ne!(ok.route, EvalRoute::Cache);
        assert_eq!(ok.matches.total_pairs(), 7);
        // batch-wide zero deadline fails every slot with 408
        let out = rt.query_batch_deadline(
            "fig1",
            vec![QuerySpec::pattern(q.clone()), QuerySpec::pattern(q)],
            Some(Duration::ZERO),
        );
        for r in out {
            assert_eq!(r.unwrap_err().http_status(), 408);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn add_query_matches_engine() {
        let dir = tmpdir("add_query");
        let f = collaboration_fig1();
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        rt.add_graph("fig1", f.graph.clone()).unwrap();

        let engine = expfinder_engine::ExpFinder::default();
        let h = engine.add_graph("fig1", f.graph.clone()).unwrap();
        let want = engine
            .query(&h)
            .pattern(fig1_pattern())
            .prefer(Route::Direct)
            .run()
            .unwrap();

        let got = rt
            .query("fig1", &fig1_pattern(), None, Route::Auto)
            .unwrap();
        assert_eq!(*got.matches, *want.matches);
        // second identical query is a cache hit
        let again = rt
            .query("fig1", &fig1_pattern(), None, Route::Auto)
            .unwrap();
        assert_eq!(again.route, EvalRoute::Cache);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn updates_survive_reopen() {
        let dir = tmpdir("reopen");
        let f = collaboration_fig1();
        let (x, y) = f.e1;
        {
            let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
            rt.add_graph("fig1", f.graph.clone()).unwrap();
            let applied = rt
                .apply_updates("fig1", &[EdgeUpdate::Insert(x, y)])
                .unwrap();
            assert_eq!(applied, 1);
        } // clean-ish shutdown: no snapshot write, recovery must replay

        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        assert_eq!(rt.graph_names(), vec!["fig1".to_owned()]);
        assert_eq!(rt.wal_totals().replayed_frames, 1);
        assert_eq!(rt.wal_totals().replayed_updates, 1);
        let mut oracle = f.graph.clone();
        oracle.apply(EdgeUpdate::Insert(x, y));
        let edges = rt.read_graph("fig1", |g| g.edge_count()).unwrap();
        assert_eq!(edges, oracle.edge_count());
        let got = rt
            .query("fig1", &fig1_pattern(), None, Route::Auto)
            .unwrap();
        let engine = expfinder_engine::ExpFinder::default();
        let h = engine.add_graph("fig1", oracle).unwrap();
        let want = engine.query(&h).pattern(fig1_pattern()).run().unwrap();
        assert_eq!(*got.matches, *want.matches);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_folds_wal_into_snapshot() {
        let dir = tmpdir("compact");
        let f = collaboration_fig1();
        let (x, y) = f.e1;
        {
            let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
            rt.add_graph("fig1", f.graph.clone()).unwrap();
            rt.apply_updates("fig1", &[EdgeUpdate::Insert(x, y)])
                .unwrap();
            let report = rt.compact("fig1").unwrap();
            assert!(report.wal_bytes_dropped > 0);
            // post-compaction updates land in the truncated log
            rt.apply_updates("fig1", &[EdgeUpdate::Delete(x, y)])
                .unwrap();
        }
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        assert_eq!(
            rt.wal_totals().replayed_frames,
            1,
            "only the post-compaction frame"
        );
        let edges = rt.read_graph("fig1", |g| g.edge_count()).unwrap();
        assert_eq!(edges, f.graph.edge_count());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registered_query_is_served_and_maintained() {
        let dir = tmpdir("registered");
        let f = collaboration_fig1();
        let (x, y) = f.e1;
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        rt.add_graph("fig1", f.graph.clone()).unwrap();
        let q = fig1_pattern_simulation();
        rt.register_query("fig1", "team", q.clone()).unwrap();
        assert_eq!(
            rt.registered_queries("fig1").unwrap(),
            vec!["team".to_owned()]
        );
        assert!(matches!(
            rt.register_query("fig1", "team", q.clone()),
            Err(ExpFinderError::DuplicateQuery(_))
        ));

        let r = rt.query("fig1", &q, None, Route::Auto).unwrap();
        assert_eq!(r.route, EvalRoute::Registered);

        let before = rt.registered_result("fig1", "team").unwrap().total_pairs();
        let report = rt
            .apply_updates_traced("fig1", &[EdgeUpdate::Insert(x, y)])
            .unwrap();
        assert_eq!(report.registered.len(), 1);
        assert_eq!(report.registered[0].before_pairs, before);
        let after = rt.registered_result("fig1", "team").unwrap().total_pairs();
        assert_eq!(report.registered[0].after_pairs, after);

        // maintained result equals a fresh evaluation
        let fresh = rt.query("fig1", &q, None, Route::Direct).unwrap();
        let maintained = rt.registered_result("fig1", "team").unwrap();
        assert_eq!(*fresh.matches, maintained);

        rt.unregister_query("fig1", "team").unwrap();
        assert!(rt.registered_queries("fig1").unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registrations_survive_reopen() {
        let dir = tmpdir("reg_reopen");
        let f = collaboration_fig1();
        let (x, y) = f.e1;
        {
            let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
            rt.add_graph("fig1", f.graph.clone()).unwrap();
            rt.register_query("fig1", "team", fig1_pattern()).unwrap();
            rt.register_query("fig1", "sim", fig1_pattern_simulation())
                .unwrap();
            rt.unregister_query("fig1", "sim").unwrap();
            rt.apply_updates("fig1", &[EdgeUpdate::Insert(x, y)])
                .unwrap();
        } // no snapshot write: recovery must replay the query set

        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        assert_eq!(
            rt.registered_queries("fig1").unwrap(),
            vec!["team".to_owned()],
            "register and unregister records both replayed"
        );
        // the recovered maintainer saw the post-registration update
        let maintained = rt.registered_result("fig1", "team").unwrap();
        let fresh = rt
            .query("fig1", &fig1_pattern(), None, Route::Direct)
            .unwrap();
        assert_eq!(*fresh.matches, maintained);
        // a duplicate registration is still rejected after recovery
        assert!(matches!(
            rt.register_query("fig1", "team", fig1_pattern()),
            Err(ExpFinderError::DuplicateQuery(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registrations_survive_compaction() {
        let dir = tmpdir("reg_compact");
        let f = collaboration_fig1();
        let (x, y) = f.e1;
        {
            let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
            rt.add_graph("fig1", f.graph.clone()).unwrap();
            rt.register_query("fig1", "team", fig1_pattern()).unwrap();
            rt.apply_updates("fig1", &[EdgeUpdate::Insert(x, y)])
                .unwrap();
            // compaction truncates the log; the register record must be
            // re-seeded or the query would vanish on the next cold start
            rt.compact("fig1").unwrap();
        }
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        assert_eq!(
            rt.registered_queries("fig1").unwrap(),
            vec!["team".to_owned()]
        );
        let maintained = rt.registered_result("fig1", "team").unwrap();
        let fresh = rt
            .query("fig1", &fig1_pattern(), None, Route::Direct)
            .unwrap();
        assert_eq!(*fresh.matches, maintained);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn update_hook_fires_in_commit_order() {
        let dir = tmpdir("hook");
        let f = collaboration_fig1();
        let (x, y) = f.e1;
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        rt.add_graph("fig1", f.graph.clone()).unwrap();
        rt.register_query("fig1", "team", fig1_pattern()).unwrap();
        let seen: Arc<Mutex<Vec<(String, u64, i64)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        rt.set_update_hook(Some(Arc::new(move |graph: &str, report: &UpdateReport| {
            let delta = report.registered.iter().map(|d| d.delta()).sum();
            sink.lock()
                .push((graph.to_owned(), report.graph_version, delta));
        })));

        // the untraced entry point still produces fully-traced frames
        rt.apply_updates("fig1", &[EdgeUpdate::Insert(x, y)])
            .unwrap();
        rt.apply_updates("fig1", &[EdgeUpdate::Delete(x, y)])
            .unwrap();
        let frames = seen.lock().clone();
        assert_eq!(frames.len(), 2);
        assert!(frames[0].1 < frames[1].1, "commit order");
        assert_eq!(frames[0].2, 1);
        assert_eq!(frames[1].2, -1);

        rt.set_update_hook(None);
        rt.apply_updates("fig1", &[EdgeUpdate::Insert(x, y)])
            .unwrap();
        assert_eq!(seen.lock().len(), 2, "removed hook no longer fires");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_and_duplicate_graphs_error() {
        let dir = tmpdir("errors");
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        assert!(matches!(
            rt.query("nope", &fig1_pattern(), None, Route::Auto),
            Err(ExpFinderError::UnknownGraph(_))
        ));
        let f = collaboration_fig1();
        rt.add_graph("fig1", f.graph.clone()).unwrap();
        assert!(matches!(
            rt.add_graph("fig1", f.graph.clone()),
            Err(ExpFinderError::DuplicateGraph(_))
        ));
        assert!(matches!(
            rt.add_graph("../escape", f.graph.clone()),
            Err(ExpFinderError::InvalidGraphName(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_graph_deletes_files_and_frees_name() {
        let dir = tmpdir("remove");
        let f = collaboration_fig1();
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        rt.add_graph("fig1", f.graph.clone()).unwrap();
        rt.apply_updates("fig1", &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
            .unwrap();
        rt.remove_graph("fig1").unwrap();
        assert!(!dir.join("fig1.efg").exists());
        assert!(!dir.join("fig1.wal").exists());
        assert!(rt.graph_names().is_empty());
        // the name is reusable, and the fresh graph has no replayed tail
        rt.add_graph("fig1", f.graph.clone()).unwrap();
        let edges = rt.read_graph("fig1", |g| g.edge_count()).unwrap();
        assert_eq!(edges, f.graph.edge_count());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_resolves_specs_in_order() {
        let dir = tmpdir("batch");
        let f = collaboration_fig1();
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        rt.add_graph("fig1", f.graph).unwrap();
        let specs = vec![
            QuerySpec::pattern(fig1_pattern()).top_k(2),
            QuerySpec::dsl("definitely not a pattern"),
            QuerySpec::pattern(fig1_pattern_simulation()),
        ];
        let out = rt.query_batch("fig1", specs);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].as_ref().unwrap().experts.len(), 2);
        assert!(out[1].is_err());
        let direct = rt
            .query("fig1", &fig1_pattern_simulation(), None, Route::Direct)
            .unwrap();
        assert_eq!(*out[2].as_ref().unwrap().matches, *direct.matches);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_and_wal_metrics_accumulate() {
        let dir = tmpdir("metrics");
        let f = collaboration_fig1();
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        rt.add_graph("fig1", f.graph.clone()).unwrap();
        rt.apply_updates("fig1", &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
            .unwrap();
        let wal = rt.wal_totals();
        assert_eq!(wal.appends, 1);
        assert!(wal.bytes > 0);
        assert_eq!(wal.fsyncs, 0, "FsyncPolicy::Never");
        let stats = rt.shard_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats.iter().map(|s| s.graphs).sum::<usize>(), 1);
        assert!(stats.iter().map(|s| s.commands).sum::<u64>() >= 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_durable_response_carries_a_plan() {
        let dir = tmpdir("plan");
        let f = collaboration_fig1();
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        rt.add_graph("fig1", f.graph).unwrap();

        let first = rt
            .query("fig1", &fig1_pattern(), None, Route::Auto)
            .unwrap();
        assert_eq!(first.plan.chosen, PlanRoute::Live, "cold first read");
        assert!(
            first.plan.candidates.len() >= 2,
            "planned decisions expose the costed candidates"
        );
        assert!(!first.plan.overridden);

        let cached = rt
            .query("fig1", &fig1_pattern(), None, Route::Auto)
            .unwrap();
        assert_eq!(cached.plan.chosen, PlanRoute::Cache);
        assert!(
            cached.plan.candidates.is_empty(),
            "exact routes cost nothing"
        );

        let forced = rt
            .query("fig1", &fig1_pattern(), None, Route::Direct)
            .unwrap();
        assert!(forced.plan.overridden, "preference is recorded, not hidden");

        let totals = rt.read_path().planner_totals();
        assert_eq!(totals.decisions, 3);
        assert_eq!(totals.overrides, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compression_serves_identical_matches_and_survives_updates() {
        let dir = tmpdir("compress");
        let f = collaboration_fig1();
        let (x, y) = f.e1;
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        rt.add_graph("fig1", f.graph.clone()).unwrap();
        assert_eq!(rt.compression_stats("fig1").unwrap(), None);

        let stats = rt
            .compress("fig1", CompressionMethod::Bisimulation)
            .unwrap();
        assert!(stats.compressed_nodes <= stats.original_nodes);
        assert_eq!(rt.compression_stats("fig1").unwrap(), Some(stats));
        let infos = rt.graph_infos();
        assert!(infos.iter().any(|i| i.name == "fig1" && i.compressed));

        // a forced compressed route answers exactly like a direct one
        let via_quotient = rt
            .query("fig1", &fig1_pattern(), None, Route::Compressed)
            .unwrap();
        assert_eq!(via_quotient.route, EvalRoute::Compressed);
        assert_eq!(via_quotient.plan.chosen, PlanRoute::Compressed);
        let direct = rt
            .query("fig1", &fig1_pattern(), None, Route::Direct)
            .unwrap();
        assert_eq!(*via_quotient.matches, *direct.matches);

        // the quotient is maintained through updates on the shard
        rt.apply_updates("fig1", &[EdgeUpdate::Insert(x, y)])
            .unwrap();
        let after_q = rt
            .query("fig1", &fig1_pattern(), None, Route::Compressed)
            .unwrap();
        let after_d = rt
            .query("fig1", &fig1_pattern(), None, Route::Direct)
            .unwrap();
        assert_eq!(*after_q.matches, *after_d.matches);

        rt.drop_compression("fig1").unwrap();
        assert_eq!(rt.compression_stats("fig1").unwrap(), None);
        let dropped = rt
            .query("fig1", &fig1_pattern(), None, Route::Compressed)
            .unwrap();
        assert_ne!(
            dropped.route,
            EvalRoute::Compressed,
            "no quotient to route to"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compression_is_session_state_not_replayed() {
        let dir = tmpdir("compress_reopen");
        let f = collaboration_fig1();
        {
            let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
            rt.add_graph("fig1", f.graph.clone()).unwrap();
            rt.compress("fig1", CompressionMethod::Bisimulation)
                .unwrap();
            assert!(rt.compression_stats("fig1").unwrap().is_some());
        }
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        assert_eq!(
            rt.compression_stats("fig1").unwrap(),
            None,
            "quotients are not WAL-logged; a restart comes back uncompressed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The engine's test of the same name, through the mailbox and the
    /// WAL: a reader's snapshot keeps answering at its own version while
    /// the actor commits on, the actor's graph copies at most two
    /// adjacency chunks per applied update, a registered view no update
    /// moved is shared, not rebuilt, and a batch that applied nothing
    /// publishes nothing.
    #[test]
    fn held_snapshot_survives_commits_and_unmoved_views_are_shared() {
        use expfinder_core::bounded_simulation;
        use expfinder_graph::generate::{collaboration, random_updates, CollabConfig};
        use expfinder_pattern::{Bound, PatternBuilder, Predicate};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let dir = tmpdir("cow_publish");
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        let base = collaboration(
            &mut StdRng::seed_from_u64(15),
            &CollabConfig {
                teams: 40,
                team_size: 8,
                ..CollabConfig::default()
            },
        );
        let updates = random_updates(&mut StdRng::seed_from_u64(16), &base, 160, 0.5);
        // no node carries this label, so no update can ever move the view
        let inert = PatternBuilder::new()
            .node("a", Predicate::label("no-such-label"))
            .node("b", Predicate::label("SD"))
            .edge("a", "b", Bound::hops(2))
            .build()
            .unwrap();
        let live = fig1_pattern();
        let view = |snap: &Snapshot, name: &str| Arc::clone(snap.registered_result(name).unwrap());

        rt.add_graph("g", base.clone()).unwrap();
        rt.register_query("g", "live", live.clone()).unwrap();
        rt.register_query("g", "inert", inert).unwrap();
        let held = rt.latest("g").unwrap();
        let held_want = bounded_simulation(&base, &live).unwrap();
        assert_eq!(*view(&held, "live"), held_want);

        let mut model = base.clone();
        let (mut applied, mut live_moved) = (0u64, false);
        let mut prev = Arc::clone(&held);
        for (i, batch) in updates.chunks(4).enumerate() {
            if i == 10 {
                rt.register_query("g", "late", live.clone()).unwrap();
            }
            if i == 20 {
                rt.unregister_query("g", "late").unwrap();
            }
            applied += rt.apply_updates("g", batch).unwrap() as u64;
            for &up in batch {
                model.apply(up);
            }
            let now = rt.latest("g").unwrap();
            assert_eq!(now.version(), model.version());
            assert!(Arc::ptr_eq(&view(&now, "inert"), &view(&prev, "inert")));
            let (a, b) = (view(&now, "live"), view(&prev, "live"));
            assert!(!Arc::ptr_eq(&a, &b) || *a == *b);
            live_moved |= !Arc::ptr_eq(&a, &b);
            prev = now;
        }
        assert!(live_moved, "the update stream never touched the live query");

        // a batch of no-ops publishes nothing at all
        let present = model.edges().next().unwrap();
        let noop = [EdgeUpdate::Insert(present.0, present.1)];
        assert_eq!(rt.apply_updates("g", &noop).unwrap(), 0);
        let newest = rt.latest("g").unwrap();
        assert!(Arc::ptr_eq(&newest, &prev));
        assert_eq!(newest.version(), model.version());

        // newest answers the new graph, the held snapshot its own
        let want = bounded_simulation(&model, &live).unwrap();
        assert_eq!(*view(&newest, "live"), want);
        assert_eq!(bounded_simulation(newest.graph(), &live).unwrap(), want);
        let got = rt.query("g", &live, None, Route::Auto).unwrap();
        assert_eq!(*got.matches, want);
        assert_ne!(want, held_want, "the stream changed the answer");
        assert_eq!(held.version(), base.version());
        assert!(held.graph().edges().eq(base.edges()));
        assert_eq!(bounded_simulation(held.graph(), &live).unwrap(), held_want);
        assert_eq!(*view(&held, "live"), held_want);

        // O(Δ): every snapshot shared its untouched chunks with the actor
        assert!(applied > 0 && newest.graph().chunk_copies() <= 2 * applied);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
