//! Durability for the engine: an event-sourced write-ahead log around an
//! [`ExpFinder`].
//!
//! Paper §II stores graphs "as files"; durability is a property of where a
//! graph lives, not a second engine. [`DurableExpFinder`] therefore *is*
//! an [`ExpFinder`] with a bracket around its writes. It owns one
//! (privately) and [`Deref`]s to its [`Catalog`], so the whole read side —
//! `handle`, `query`, `query_batch`, `graph_infos`, `estimate_cost`,
//! `read_path`, the update hook — is the in-memory engine's, the same
//! methods on the same type, not a copy that agrees by test. What this
//! crate declares is only the writes, and every one of them is
//!
//! 1. **routed to the graph's shard.** Graph names are consistently
//!    hashed onto `N` shard workers (the `shard` module), each draining a
//!    *bounded* mailbox of commands, so a graph's writes are totally
//!    ordered and backpressure is a full mailbox, not an unbounded queue;
//! 2. **logged before it happens.** The worker appends the operation to
//!    the graph's WAL ([`wal`]) and only then calls the engine's own
//!    write — `ExpFinder::apply_updates_traced`, or `ExpFinder::write`
//!    with the same [`MaintainedGraph`] method the in-memory facade
//!    passes — which maintains, publishes and fires the update hook under
//!    the graph's write mutex exactly as it does in memory. Cold start
//!    replays `<name>.wal` onto the last `<name>.efg` snapshot; compaction
//!    rewrites the snapshot and truncates the log.
//!
//! Because the wrapped engine is never handed out, the type guarantees a
//! durable graph has no write that skips the log; because there is no
//! second catalog, a graph is listed exactly when the engine holds it —
//! `add_graph` makes it durable first and inserts it last.
//!
//! The WAL is *event-sourced serving state*, not just graph history:
//! registered queries are logged as `register`/`unregister` records and
//! replayed in sequence order on cold start, so standing queries (and
//! the push subscriptions built on them) survive a restart. Compaction
//! re-seeds the truncated log with one register record per live query.
//!
//! Maintained compression works here too: [`DurableExpFinder::compress`]
//! asks the owning shard to build the quotient through the engine, which
//! then travels with every published snapshot and is maintained through
//! update batches. Compression is *session* state, not WAL-logged: it is
//! derived, rebuildable on demand, and a restart comes back uncompressed.
//!
//! ```
//! use expfinder_runtime::{DurableExpFinder, RuntimeConfig, FsyncPolicy};
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
//! // reopen: the graph *and* its registered query are recovered, and are
//! // read through the same `Catalog` methods as an in-memory engine's
//! let rt = DurableExpFinder::open(&dir, config).unwrap();
//! let h = rt.handle("fig1").unwrap();
//! assert_eq!(rt.registered_queries(&h).unwrap(), vec!["team".to_owned()]);
//! let resp = rt.query(&h).pattern(fig1_pattern()).top_k(2).run().unwrap();
//! assert_eq!(resp.experts.len(), 2);
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

pub mod faults;
pub mod wal;

pub(crate) mod shard;

pub use faults::{FaultInjector, FaultKind, FaultPlan, FaultTotals, IoOp};
pub use shard::{CompactReport, ShardStats};
pub use wal::FsyncPolicy;

use crate::shard::{Cmd, GraphActor, Reply, Ring, ShardHandle};
use crate::wal::{ReplaySummary, Wal, WalOp};
use expfinder_compress::{CompressStats, CompressionMethod};
pub use expfinder_core::CancelToken;
use expfinder_engine::{
    validate_graph_name, Catalog, EngineConfig, ExpFinder, ExpFinderError, MaintainedGraph,
    UpdateReport,
};
use expfinder_graph::{io as gio, DiGraph, EdgeUpdate};
use expfinder_pattern::Pattern;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

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

/// Knobs of one [`DurableExpFinder`]: what durability adds, plus the
/// configuration of the engine it wraps.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Shard worker threads (graphs are consistently hashed across
    /// them). More shards = more independent write pipelines.
    pub shards: usize,
    /// When WAL appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// The wrapped engine's result-cache size and thread budget.
    pub engine: EngineConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        RuntimeConfig {
            // write pipelines, not compute: a handful is plenty, and
            // each idle shard is a parked thread
            shards: cores.clamp(1, 4),
            fsync: FsyncPolicy::Always,
            engine: EngineConfig::default(),
        }
    }
}

// ---------------------------------------------------------------------
// the facade
// ---------------------------------------------------------------------

/// What the facade shares with its shard workers: the wrapped engine and
/// everything a worker needs to put a WAL append in front of a write to
/// it. Crate-private — nothing outside this crate can reach the engine's
/// unlogged writes.
pub(crate) struct Store {
    pub engine: ExpFinder,
    /// Catalog directory holding `<name>.efg` / `<name>.wal`.
    pub dir: PathBuf,
    pub config: RuntimeConfig,
    pub wal_counters: WalCounters,
    /// The fault-injection gate every durability-critical I/O site of
    /// this runtime routes through (disarmed in production — see
    /// [`faults`]); each WAL carries its own clone.
    pub faults: Arc<FaultInjector>,
}

impl Store {
    pub fn efg_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.efg"))
    }

    pub fn wal_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.wal"))
    }

    /// Open (creating if missing) the named graph's log for appending
    /// after `last_seq`.
    pub fn open_wal(&self, name: &str, last_seq: u64) -> Result<Wal, ExpFinderError> {
        let faults = Arc::clone(&self.faults);
        Wal::open_with_faults(self.wal_path(name), self.config.fsync, last_seq, faults)
            .map_err(|e| ExpFinderError::Storage(format!("wal open for {name:?}: {e}")))
    }

    /// Append one record to `wal` (fsync per policy) and count it.
    pub fn log(&self, wal: &mut Wal, op: &WalOp) -> Result<(), ExpFinderError> {
        let (_, frame_bytes) = wal
            .append_op(op)
            .map_err(|e| ExpFinderError::Storage(format!("wal append: {e}")))?;
        self.wal_counters
            .on_append(frame_bytes as u64, wal.fsyncs_per_append());
        Ok(())
    }
}

/// The durable ExpFinder: the WAL bracket around an [`ExpFinder`]. It
/// [`Deref`]s to the engine's [`Catalog`], so every read — `handle`,
/// `query`, `query_batch`, `graph_infos`, `read_path`, … — *is* the
/// in-memory one, and it declares only writes, each of which appends to
/// the graph's log on the owning shard before it calls the engine's own
/// write. The wrapped engine is never handed out. See the crate docs.
pub struct DurableExpFinder {
    store: Arc<Store>,
    shards: Vec<ShardHandle>,
    ring: Ring,
}

impl Deref for DurableExpFinder {
    type Target = Catalog;

    fn deref(&self) -> &Catalog {
        &self.store.engine
    }
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
        let shards = config.shards.max(1);
        let store = Arc::new(Store {
            engine: ExpFinder::new(config.engine.clone()),
            dir,
            config,
            wal_counters: WalCounters::default(),
            faults: FaultInjector::disarmed(),
        });
        let rt = DurableExpFinder {
            shards: (0..shards)
                .map(|i| ShardHandle::spawn(i, Arc::clone(&store)))
                .collect(),
            ring: Ring::new(shards),
            store,
        };

        let mut names: Vec<String> = Vec::new();
        for entry in rt.dir().read_dir()? {
            let path = entry?.path();
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
    /// order onto a [`MaintainedGraph`] nobody can read yet, add it to
    /// the engine (one publish: the first snapshot readers see already
    /// carries the replayed graph and its registered queries), then hand
    /// the log to the owning shard.
    fn recover_graph(&self, name: &str) -> Result<(), ExpFinderError> {
        let store = &self.store;
        let graph = gio::load_text(store.efg_path(name))?;
        let (records, summary) = Wal::replay(store.wal_path(name))
            .map_err(|e| ExpFinderError::Storage(format!("wal replay for {name:?}: {e}")))?;
        store.wal_counters.on_replay(&summary);
        let wal = store.open_wal(name, records.last().map_or(0, |r| r.seq))?;
        let mut core = MaintainedGraph::new(graph);
        for rec in &records {
            shard::replay_op(&mut core, &rec.op)?;
        }
        let handle = store.engine.add_maintained(name, core)?;
        self.request(name, |reply| Cmd::Adopt {
            actor: GraphActor { handle, wal },
            reply,
        })
    }

    /// The catalog directory.
    pub fn dir(&self) -> &Path {
        &self.store.dir
    }

    /// The configuration the runtime was opened with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.store.config
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

    // --------------------------- catalog ---------------------------

    /// Add a graph; returns its initial version. One command on the shard
    /// the name hashes to: duplicate check → `.efg` snapshot (atomic) →
    /// WAL create → catalog insert. Two racing adds of one name are
    /// serialised by the mailbox (exactly one wins), and the graph is
    /// listed and queryable only once it is durable; an I/O failure
    /// leaves neither a catalog entry nor a file `open` would adopt. The
    /// cost: other graphs on that shard wait for the `.efg` write — adds
    /// are rare, and per-shard serialisation is already the contract of
    /// every other write.
    pub fn add_graph(&self, name: &str, graph: DiGraph) -> Result<u64, ExpFinderError> {
        // names become file stems: refuse path-like ones before any IO
        validate_graph_name(name)?;
        self.request(name, |reply| Cmd::Add {
            name: name.to_owned(),
            graph,
            reply,
        })
    }

    /// Remove a graph and delete its files (snapshot first, then log,
    /// so a crash in between leaves only an orphan `.wal`, which `open`
    /// ignores). Outstanding handles to it become stale.
    pub fn remove_graph(&self, name: &str) -> Result<(), ExpFinderError> {
        self.request(name, |reply| Cmd::Remove {
            name: name.to_owned(),
            reply,
        })
    }

    // --------------------------- updates ---------------------------

    /// Apply edge updates through the owning shard: WAL-append (fsynced
    /// per policy), then the engine's own `apply_updates_traced` — apply,
    /// maintain registered queries, publish, update hook. Returns how
    /// many updates changed the graph.
    pub fn apply_updates(
        &self,
        name: &str,
        updates: &[EdgeUpdate],
    ) -> Result<usize, ExpFinderError> {
        Ok(self.apply_updates_traced(name, updates)?.applied)
    }

    /// Like [`DurableExpFinder::apply_updates`] with the full ΔM report.
    pub fn apply_updates_traced(
        &self,
        name: &str,
        updates: &[EdgeUpdate],
    ) -> Result<UpdateReport, ExpFinderError> {
        self.request(name, |reply| Cmd::Apply {
            name: name.to_owned(),
            updates: updates.to_vec(),
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

    /// Cumulative WAL activity.
    pub fn wal_totals(&self) -> WalTotals {
        self.store.wal_counters.totals()
    }

    /// Cumulative fault-injection activity (`engine.faults` in
    /// `/metrics`); all zeros unless a test harness armed a plan.
    pub fn fault_totals(&self) -> FaultTotals {
        self.store.faults.totals()
    }

    /// The fault-injection gate of this runtime, for test harnesses to
    /// arm ([`FaultInjector::arm`]). Production code never touches it —
    /// disarmed hooks cost one relaxed atomic load per I/O boundary.
    pub fn fault_injector(&self) -> Arc<FaultInjector> {
        Arc::clone(&self.store.faults)
    }

    /// Per-shard load: mailbox depth, owned graphs, processed commands.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let mut per_shard_graphs = vec![0usize; self.shards.len()];
        for name in self.graph_names() {
            per_shard_graphs[self.ring.shard_for(&name)] += 1;
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
    use expfinder_engine::{EvalRoute, ExecConfig, PlanRoute, Route, Snapshot};
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
            engine: EngineConfig {
                exec: ExecConfig::sequential(),
                ..EngineConfig::default()
            },
        }
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
        let edges = rt
            .read_graph(&rt.handle("fig1").unwrap(), |g| g.edge_count())
            .unwrap();
        assert_eq!(edges, oracle.edge_count());
        let got = rt
            .query_deadline(
                &rt.handle("fig1").unwrap(),
                &fig1_pattern(),
                None,
                Route::Auto,
                None,
            )
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
        let edges = rt
            .read_graph(&rt.handle("fig1").unwrap(), |g| g.edge_count())
            .unwrap();
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
            rt.registered_queries(&rt.handle("fig1").unwrap()).unwrap(),
            vec!["team".to_owned()]
        );
        assert!(matches!(
            rt.register_query("fig1", "team", q.clone()),
            Err(ExpFinderError::DuplicateQuery(_))
        ));

        let r = rt
            .query_deadline(&rt.handle("fig1").unwrap(), &q, None, Route::Auto, None)
            .unwrap();
        assert_eq!(r.route, EvalRoute::Registered);

        let before = rt
            .registered_result(&rt.handle("fig1").unwrap(), "team")
            .unwrap()
            .total_pairs();
        let report = rt
            .apply_updates_traced("fig1", &[EdgeUpdate::Insert(x, y)])
            .unwrap();
        assert_eq!(report.registered.len(), 1);
        assert_eq!(report.registered[0].before_pairs, before);
        let after = rt
            .registered_result(&rt.handle("fig1").unwrap(), "team")
            .unwrap()
            .total_pairs();
        assert_eq!(report.registered[0].after_pairs, after);

        // maintained result equals a fresh evaluation
        let fresh = rt
            .query_deadline(&rt.handle("fig1").unwrap(), &q, None, Route::Direct, None)
            .unwrap();
        let maintained = rt
            .registered_result(&rt.handle("fig1").unwrap(), "team")
            .unwrap();
        assert_eq!(fresh.matches, maintained);

        rt.unregister_query("fig1", "team").unwrap();
        assert!(rt
            .registered_queries(&rt.handle("fig1").unwrap())
            .unwrap()
            .is_empty());
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
            rt.registered_queries(&rt.handle("fig1").unwrap()).unwrap(),
            vec!["team".to_owned()],
            "register and unregister records both replayed"
        );
        // the recovered maintainer saw the post-registration update
        let maintained = rt
            .registered_result(&rt.handle("fig1").unwrap(), "team")
            .unwrap();
        let fresh = rt
            .query_deadline(
                &rt.handle("fig1").unwrap(),
                &fig1_pattern(),
                None,
                Route::Direct,
                None,
            )
            .unwrap();
        assert_eq!(fresh.matches, maintained);
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
            rt.registered_queries(&rt.handle("fig1").unwrap()).unwrap(),
            vec!["team".to_owned()]
        );
        let maintained = rt
            .registered_result(&rt.handle("fig1").unwrap(), "team")
            .unwrap();
        let fresh = rt
            .query_deadline(
                &rt.handle("fig1").unwrap(),
                &fig1_pattern(),
                None,
                Route::Direct,
                None,
            )
            .unwrap();
        assert_eq!(fresh.matches, maintained);
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
            rt.handle("nope"),
            Err(ExpFinderError::UnknownGraph(_))
        ));
        assert!(matches!(
            rt.apply_updates("nope", &[]),
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
        let edges = rt
            .read_graph(&rt.handle("fig1").unwrap(), |g| g.edge_count())
            .unwrap();
        assert_eq!(edges, f.graph.edge_count());
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
    fn compression_serves_identical_matches_and_survives_updates() {
        let dir = tmpdir("compress");
        let f = collaboration_fig1();
        let (x, y) = f.e1;
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        rt.add_graph("fig1", f.graph.clone()).unwrap();
        assert_eq!(
            rt.compression_stats(&rt.handle("fig1").unwrap()).unwrap(),
            None
        );

        let stats = rt
            .compress("fig1", CompressionMethod::Bisimulation)
            .unwrap();
        assert!(stats.compressed_nodes <= stats.original_nodes);
        assert_eq!(
            rt.compression_stats(&rt.handle("fig1").unwrap()).unwrap(),
            Some(stats)
        );
        let infos = rt.graph_infos();
        assert!(infos.iter().any(|i| i.name == "fig1" && i.compressed));

        // a forced compressed route answers exactly like a direct one
        let via_quotient = rt
            .query_deadline(
                &rt.handle("fig1").unwrap(),
                &fig1_pattern(),
                None,
                Route::Compressed,
                None,
            )
            .unwrap();
        assert_eq!(via_quotient.route, EvalRoute::Compressed);
        assert_eq!(via_quotient.plan.chosen, PlanRoute::Compressed);
        let direct = rt
            .query_deadline(
                &rt.handle("fig1").unwrap(),
                &fig1_pattern(),
                None,
                Route::Direct,
                None,
            )
            .unwrap();
        assert_eq!(*via_quotient.matches, *direct.matches);

        // the quotient is maintained through updates on the shard
        rt.apply_updates("fig1", &[EdgeUpdate::Insert(x, y)])
            .unwrap();
        let after_q = rt
            .query_deadline(
                &rt.handle("fig1").unwrap(),
                &fig1_pattern(),
                None,
                Route::Compressed,
                None,
            )
            .unwrap();
        let after_d = rt
            .query_deadline(
                &rt.handle("fig1").unwrap(),
                &fig1_pattern(),
                None,
                Route::Direct,
                None,
            )
            .unwrap();
        assert_eq!(*after_q.matches, *after_d.matches);

        rt.drop_compression("fig1").unwrap();
        assert_eq!(
            rt.compression_stats(&rt.handle("fig1").unwrap()).unwrap(),
            None
        );
        let dropped = rt
            .query_deadline(
                &rt.handle("fig1").unwrap(),
                &fig1_pattern(),
                None,
                Route::Compressed,
                None,
            )
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
            assert!(rt
                .compression_stats(&rt.handle("fig1").unwrap())
                .unwrap()
                .is_some());
        }
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        assert_eq!(
            rt.compression_stats(&rt.handle("fig1").unwrap()).unwrap(),
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
        let held = rt.latest(&rt.handle("g").unwrap()).unwrap();
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
            let now = rt.latest(&rt.handle("g").unwrap()).unwrap();
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
        let newest = rt.latest(&rt.handle("g").unwrap()).unwrap();
        assert!(Arc::ptr_eq(&newest, &prev));
        assert_eq!(newest.version(), model.version());

        // newest answers the new graph, the held snapshot its own
        let want = bounded_simulation(&model, &live).unwrap();
        assert_eq!(*view(&newest, "live"), want);
        assert_eq!(bounded_simulation(newest.graph(), &live).unwrap(), want);
        let got = rt
            .query_deadline(&rt.handle("g").unwrap(), &live, None, Route::Auto, None)
            .unwrap();
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
