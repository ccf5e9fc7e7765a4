//! One graph's log: where a durable write gets its WAL append.
//!
//! A durable graph is an engine graph whose [`MaintainedGraph`] carries a
//! [`GraphLog`] — its [`Wal`] — as its [`WriteLog`]. Every logged write is
//! the engine's own: `ExpFinder::write` takes the graph's one mutex, and
//! the [`MaintainedGraph`] method appends its record before it changes
//! anything, so a graph's log order is its commit order, and maintenance,
//! publish and the update hook are the in-memory code. Snapshot,
//! compaction and removal run their file I/O inside the same write. Reads
//! never touch a log — they run on published snapshots through the
//! engine's [`Catalog`](expfinder_engine::Catalog).

use crate::faults::{io_error, is_simulated_crash, wal_error, FaultInjector, IoOp};
use crate::wal::{Wal, WalEntry, WalOp};
use crate::DurableExpFinder;
use expfinder_engine::{ExpFinderError, LogRecord, MaintainedGraph, WriteLog};
use expfinder_graph::{io as gio, Counters, DiGraph};
use expfinder_pattern::{parser, Pattern};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::{Arc, PoisonError};

/// What `DurableExpFinder::compact` reports back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactReport {
    /// The rewritten snapshot file.
    pub snapshot: PathBuf,
    /// WAL bytes dropped by the truncation (frames only, header stays).
    pub wal_bytes_dropped: u64,
}

/// A durable graph's [`WriteLog`]: its WAL and the runtime's WAL
/// counters. The quotient is deliberately *not* WAL-logged: compression
/// is derived serving state, rebuildable on demand — a restart comes back
/// uncompressed.
pub(crate) struct GraphLog {
    wal: Wal,
    counters: Arc<Counters<6>>,
}

impl GraphLog {
    /// Open (creating if missing) the named graph's log for appending
    /// after `last_seq`.
    pub fn open(
        rt: &DurableExpFinder,
        name: &str,
        last_seq: u64,
    ) -> Result<GraphLog, ExpFinderError> {
        let faults = Arc::clone(&rt.faults);
        let wal = Wal::open_with_faults(rt.wal_path(name), rt.fsync, last_seq, faults)
            .map_err(|e| wal_error(format_args!("wal open for {name:?}"), e))?;
        let counters = Arc::clone(&rt.wal_counters);
        Ok(GraphLog { wal, counters })
    }
}

impl WriteLog for GraphLog {
    /// Append the record (fsync per policy) and count it.
    fn append(&mut self, record: LogRecord<'_>) -> Result<(), ExpFinderError> {
        let (_, frame_bytes) = self
            .wal
            .append_op(&wal_entry(record)?)
            .map_err(|e| wal_error("wal append", e))?;
        let fsyncs = self.wal.fsyncs_per_append();
        crate::count_append(&self.counters, frame_bytes as u64, fsyncs);
        Ok(())
    }

    /// Swap the WAL for one holding only `live`. The swap is atomic (tmp +
    /// rename), so no crash point between the old log and the new one can
    /// lose a live registration.
    fn restart(&mut self, live: &[LogRecord<'_>]) -> Result<u64, ExpFinderError> {
        let dropped = self
            .wal
            .frame_bytes()
            .map_err(|e| wal_error("wal size", e))?;
        let seeds = live
            .iter()
            .map(|&record| wal_entry(record))
            .collect::<Result<Vec<_>, _>>()?;
        let sizes = self
            .wal
            .reset_seeded(&seeds)
            .map_err(|e| wal_error("wal swap", e))?;
        for frame_bytes in sizes {
            // the swap fsyncs once for the whole batch, not per frame
            crate::count_append(&self.counters, frame_bytes as u64, 0);
        }
        Ok(dropped)
    }
}

/// The WAL record of `record`, borrowing its fields.
fn wal_entry(record: LogRecord<'_>) -> Result<WalEntry<'_>, ExpFinderError> {
    Ok(match record {
        LogRecord::Updates(ups) => WalEntry::Updates(ups),
        LogRecord::Register(query, pattern) => WalEntry::Register {
            query,
            pattern: dsl_source(pattern)?,
        },
        LogRecord::Unregister(query) => WalEntry::Unregister { query },
    })
}

/// The DSL text a `register` record carries for `pattern`
/// ([`Pattern::text`]), verified to parse back to itself — the text
/// replay will read.
fn dsl_source(pattern: &Pattern) -> Result<&str, ExpFinderError> {
    let text = pattern.text();
    let reparsed = parser::parse(text)
        .map_err(|e| ExpFinderError::Storage(format!("pattern does not round-trip: {e}")))?;
    if reparsed.text() != text {
        return Err(ExpFinderError::Storage(
            "pattern does not round-trip through its DSL form".to_owned(),
        ));
    }
    Ok(text)
}

/// Replay one recovered WAL record onto a graph nobody reads yet and that
/// has no log attached, so nothing is appended again: the same
/// [`MaintainedGraph`] calls as the live path, with no publish (recovery
/// publishes once at the end). Records replay in sequence order, so a
/// registration's maintainer is seeded from the graph exactly as it stood
/// when the query was registered, then maintained by the update frames
/// that follow it.
pub(crate) fn replay_op(core: &mut MaintainedGraph, op: &WalOp) -> Result<(), ExpFinderError> {
    match op {
        WalOp::Updates(ups) => core.apply(ups).map(|_| ()),
        WalOp::Register { query, pattern } => {
            let parsed = parser::parse(pattern).map_err(|e| {
                ExpFinderError::Storage(format!(
                    "wal register record for {query:?} has an unparseable pattern: {e}"
                ))
            })?;
            core.register(query, parsed)
        }
        // the log's own history vouches for the name; a record for a
        // query that is not there has nothing to undo
        WalOp::Unregister { query } => core.unregister(query).or(Ok(())),
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
/// survive one. A crash mid-write, or right after the rename, leaves
/// either the previous snapshot or the complete new one, never a torn or
/// empty file, and the WAL stays replayable onto whichever survives.
/// Shared by snapshot, compaction, [`add`] and [`remove`].
pub(crate) fn write_efg_atomic(
    g: &DiGraph,
    path: &Path,
    faults: &FaultInjector,
) -> Result<(), ExpFinderError> {
    let tmp = path.with_extension("efg.tmp");
    faults.check(IoOp::Write).map_err(io_error)?;
    gio::save_text(g, &tmp)?;
    File::open(&tmp)
        .and_then(|f| faults.sync_all(&f))
        .and_then(|()| faults.rename(&tmp, path))
        .and_then(|()| sync_parent_dir(path, faults))
        .map_err(io_error)
}

/// `add_graph`, under the runtime's catalog mutex: duplicate check (in
/// the engine's catalog) → `.efg` (atomic) → WAL create → engine insert,
/// so two racing adds of one name have exactly one winner and a graph is
/// listed only once it is durable. No write to an existing graph takes
/// that mutex, so none waits for the `.efg` write. A failed step removes
/// what the earlier ones left, unless it was a simulated crash — a real
/// one would not clean up either, and `open` adopts an `.efg` whose log is
/// missing or empty as a graph with no history.
pub(crate) fn add(
    rt: &DurableExpFinder,
    name: &str,
    graph: DiGraph,
) -> Result<u64, ExpFinderError> {
    let _catalog = rt.catalog.lock().unwrap_or_else(PoisonError::into_inner);
    if rt.engine.handle(name).is_ok() {
        return Err(ExpFinderError::DuplicateGraph(name.to_owned()));
    }
    let version = graph.version();
    let (efg, wal_path) = (rt.efg_path(name), rt.wal_path(name));
    // a stale log from a removed former life must not replay onto the
    // new graph
    let _ = std::fs::remove_file(&wal_path);
    let added = write_efg_atomic(&graph, &efg, &rt.faults).and_then(|()| {
        let mut core = MaintainedGraph::new(graph);
        core.attach_log(Box::new(GraphLog::open(rt, name, 0)?));
        rt.engine.add_maintained(name, core)
    });
    match added {
        Ok(_) => Ok(version),
        Err(crash @ ExpFinderError::SimulatedCrash) => Err(crash),
        Err(e) => {
            for path in [efg.with_extension("efg.tmp"), efg, wal_path] {
                let _ = std::fs::remove_file(path);
            }
            Err(e)
        }
    }
}

/// `remove_graph`, under the runtime's catalog mutex and inside the
/// engine's write on the graph: unlink `.efg` and fsync the directory —
/// past that point `open` can no longer adopt the graph — then unlist it
/// and delete its log (an orphan `.wal` is ignored by `open`, so that
/// unlink need not be durable). A failure before the unlisting returns
/// with the graph still listed, on disk and writable. A write that waited
/// for the graph's mutex finds it unlisted and appends nothing, and the
/// catalog mutex keeps a re-add of the name from creating its log before
/// this one's is deleted.
pub(crate) fn remove(rt: &DurableExpFinder, name: &str) -> Result<(), ExpFinderError> {
    let _catalog = rt.catalog.lock().unwrap_or_else(PoisonError::into_inner);
    let handle = rt.engine.handle(name)?;
    rt.engine.write(&handle, |core| {
        let efg = rt.efg_path(name);
        let unlinked = match rt.faults.remove_file(&efg) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            unlinked => unlinked,
        };
        if let Err(e) = unlinked.and_then(|()| sync_parent_dir(&efg, &rt.faults)) {
            // the unlink may have happened without becoming durable: put
            // the snapshot back so the graph survives a restart as it
            // stays listed
            if !is_simulated_crash(&e) && !efg.exists() {
                write_efg_atomic(core.graph(), &efg, &rt.faults)?;
            }
            return Err(io_error(e));
        }
        let unlisted = rt.engine.remove_graph(&handle);
        let _ = std::fs::remove_file(rt.wal_path(name));
        unlisted
    })
}
