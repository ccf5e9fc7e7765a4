//! One graph's log: where a durable write gets its WAL append.
//!
//! The runtime keeps a [`GraphLog`] per graph — its handle in the engine
//! and the [`Wal`] every logged write is appended to first — behind that
//! graph's own mutex. A write locks the log, appends, and then calls the
//! engine's own write, all on the caller's thread; the engine write takes
//! the graph's slot mutex *inside* the log mutex, so a graph's log order is
//! its commit order, and maintenance, publish and the update hook are the
//! in-memory code. Reads never touch a log — they run on published
//! snapshots through the engine's [`Catalog`](expfinder_engine::Catalog).

use crate::faults::{is_simulated_crash, FaultInjector, IoOp, CRASH_MARKER};
use crate::wal::{Wal, WalOp};
use crate::DurableExpFinder;
use expfinder_engine::{ExpFinderError, GraphHandle, MaintainedGraph, UpdateReport};
use expfinder_graph::{io as gio, DiGraph, EdgeUpdate};
use expfinder_pattern::{parser, Pattern};
use parking_lot::Mutex;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What `DurableExpFinder::compact` reports back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactReport {
    /// The rewritten snapshot file.
    pub snapshot: PathBuf,
    /// WAL bytes dropped by the truncation (frames only, header stays).
    pub wal_bytes_dropped: u64,
}

/// What the runtime owns of one graph: its handle in the engine and the
/// WAL every logged write is appended to first. The quotient is
/// deliberately *not* WAL-logged: compression is derived serving state,
/// rebuildable on demand — a restart comes back uncompressed.
pub(crate) struct GraphLog {
    pub handle: GraphHandle,
    pub wal: Wal,
}

/// One graph's entry in the runtime's log map: `None` once the graph is
/// removed, so a write that resolved the entry before the removal and
/// locks it after finds no log to append to.
pub(crate) type LogSlot = Arc<Mutex<Option<GraphLog>>>;

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

impl GraphLog {
    /// The write path: append the batch to the WAL (fsync per policy)
    /// *before* touching the graph, then the engine's traced apply —
    /// maintain, publish and the update hook, under the graph's write
    /// mutex exactly as in memory — so subscribers observe frames in
    /// commit order and a frame's `graph_version` is already readable
    /// when it arrives.
    pub fn apply(
        &mut self,
        rt: &DurableExpFinder,
        updates: &[EdgeUpdate],
    ) -> Result<UpdateReport, ExpFinderError> {
        rt.log(&mut self.wal, &WalOp::Updates(updates.to_vec()))?;
        rt.engine.apply_updates_traced(&self.handle, updates)
    }

    /// Register a query: the registration record (carrying the pattern's
    /// DSL source, fsynced per policy) is WAL-appended once the
    /// registration can no longer be refused and *before* it takes
    /// effect, so a crash right after the ack still replays it.
    pub fn register(
        &mut self,
        rt: &DurableExpFinder,
        query_name: &str,
        pattern: Pattern,
    ) -> Result<(), ExpFinderError> {
        let wal = &mut self.wal;
        rt.engine.write(&self.handle, |core| {
            core.register(query_name, pattern, |pattern| {
                let op = WalOp::Register {
                    query: query_name.to_owned(),
                    pattern: dsl_source(pattern)?,
                };
                rt.log(wal, &op)
            })
        })
    }

    pub fn unregister(
        &mut self,
        rt: &DurableExpFinder,
        query_name: &str,
    ) -> Result<(), ExpFinderError> {
        let wal = &mut self.wal;
        rt.engine.write(&self.handle, |core| {
            core.unregister(query_name, || {
                let op = WalOp::Unregister {
                    query: query_name.to_owned(),
                };
                rt.log(wal, &op)
            })
        })
    }

    /// Write `<name>.efg` atomically (tmp + fsync + rename + dir fsync)
    /// from the published graph — the caller holds the graph's log mutex,
    /// so no write is in flight and that is its current state — so a crash
    /// mid-write, or right after the rename, leaves either the previous
    /// snapshot or the complete new one, never a torn or empty file, and
    /// the WAL stays replayable onto whichever survives.
    pub fn save_snapshot(&self, rt: &DurableExpFinder) -> Result<PathBuf, ExpFinderError> {
        let path = rt.efg_path(self.handle.name());
        let latest = rt.engine.latest(&self.handle)?;
        write_efg_atomic(latest.graph(), &path, &rt.faults)?;
        Ok(path)
    }

    /// Snapshot, then swap the WAL for one holding only the live queries'
    /// register records. The caller holds the log mutex from the `.efg`
    /// write through the swap, so no acked frame can land in the old log
    /// after the snapshot was taken and be dropped with it.
    pub fn compact(&mut self, rt: &DurableExpFinder) -> Result<CompactReport, ExpFinderError> {
        let snapshot = self.save_snapshot(rt)?;
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
        let seeds: Vec<WalOp> = rt.engine.write(&self.handle, |core| {
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
            rt.wal_counters.on_append(frame_bytes as u64, 0);
        }
        Ok(CompactReport {
            snapshot,
            wal_bytes_dropped,
        })
    }
}

/// Fsync the directory holding `path`, so a rename or unlink in it
/// survives a power cut.
fn sync_parent_dir(path: &Path, faults: &FaultInjector) -> std::io::Result<()> {
    #[cfg(unix)]
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        faults.sync_all(&File::open(parent)?)?;
    }
    Ok(())
}

/// Save a graph to `path` via a sibling `.tmp` file and an atomic
/// rename, fsyncing the tmp file *before* the rename and the parent
/// directory *after* it — without the first, the rename can become
/// durable ahead of the bytes it names (publishing an empty snapshot
/// after a power cut); without the second, the rename itself may not
/// survive one. Shared by the snapshot/compact path and [`add`].
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
    sync_parent_dir(path, faults)?;
    Ok(())
}

/// `add_graph`: duplicate check → `.efg` (atomic) → WAL create → catalog
/// insert, all under the log map's write lock, so two racing adds of one
/// name have exactly one winner and a graph is listed only once it is
/// durable. A failed step removes what the earlier ones left, unless it
/// was a simulated crash — a real one would not clean up either, and
/// `open` adopts an `.efg` whose log is missing or empty as a graph with
/// no history.
pub(crate) fn add(
    rt: &DurableExpFinder,
    name: &str,
    graph: DiGraph,
) -> Result<u64, ExpFinderError> {
    let mut logs = rt.logs.write();
    if logs.contains_key(name) {
        return Err(ExpFinderError::DuplicateGraph(name.to_owned()));
    }
    let version = graph.version();
    let (efg, wal_path) = (rt.efg_path(name), rt.wal_path(name));
    // a stale log from a removed former life must not replay onto the
    // new graph
    let _ = std::fs::remove_file(&wal_path);
    let added = write_efg_atomic(&graph, &efg, &rt.faults).and_then(|()| {
        let wal = rt.open_wal(name, 0)?;
        let handle = rt.engine.add_graph(name, graph)?;
        Ok(GraphLog { handle, wal })
    });
    match added {
        Ok(log) => {
            logs.insert(name.to_owned(), Arc::new(Mutex::new(Some(log))));
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

/// `remove_graph`, under the graph's log mutex: unlink `.efg` and fsync
/// the directory — past that point `open` can no longer adopt the graph
/// — then unlist it and delete its log (an orphan `.wal` is ignored by
/// `open`, so that unlink need not be durable). A failure before the
/// unlisting returns with the graph still listed, on disk and writable.
/// The map's write lock is held from the unlisting through the `.wal`
/// unlink, so a re-add of the name cannot create its log in between.
pub(crate) fn remove(rt: &DurableExpFinder, name: &str) -> Result<(), ExpFinderError> {
    let slot = rt.log_slot(name)?;
    let mut guard = slot.lock();
    let log = guard
        .as_ref()
        .ok_or_else(|| ExpFinderError::UnknownGraph(name.to_owned()))?;
    let efg = rt.efg_path(name);
    let unlinked = match rt.faults.remove_file(&efg) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        unlinked => unlinked,
    };
    if let Err(e) = unlinked.and_then(|()| sync_parent_dir(&efg, &rt.faults)) {
        // the unlink may have happened without becoming durable: put the
        // snapshot back so the graph survives a restart as it stays listed
        if !is_simulated_crash(&e) && !efg.exists() {
            log.save_snapshot(rt)?;
        }
        return Err(e.into());
    }
    let mut logs = rt.logs.write();
    let unlisted = rt.engine.remove_graph(&log.handle);
    // close the log before deleting it
    *guard = None;
    let _ = std::fs::remove_file(rt.wal_path(name));
    logs.remove(name);
    unlisted
}
