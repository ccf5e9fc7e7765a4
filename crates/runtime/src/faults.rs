//! Deterministic I/O fault injection for the durable runtime.
//!
//! Every durability-critical I/O site in the WAL ([`crate::wal`]) and the
//! snapshot writer and graph removal (`graph_log`) routes through a shared
//! [`FaultInjector`]. Disarmed — the production state — each hook is one
//! relaxed atomic load in front of the real syscall. Armed with a
//! [`FaultPlan`], the injector counts I/O boundaries deterministically
//! and fails the chosen ones:
//!
//! - fail the Nth write / fsync / rename (or unlink) with an injected
//!   ENOSPC or EIO,
//! - perform a *partial* write (a chosen number of bytes reach the file,
//!   then the error surfaces — a torn frame at byte granularity),
//! - simulate a crash at any boundary ([`FaultKind::Crash`]): the error
//!   carries a [`SimulatedCrash`] marker, and the storage layer treats it
//!   like a power cut — no self-healing runs, the torn bytes stay on
//!   disk for *recovery* to deal with, exactly as after a real crash.
//!
//! Boundaries are counted per plan arming, so a scripted op sequence
//! crosses the same numbered boundaries on every run — the property the
//! `chaos_smoke` torture harness builds on: run the script once armed
//! with an empty plan to count boundaries, then crash at each one.

use parking_lot::Mutex;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The classes of I/O boundary the injector can interpose on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum IoOp {
    /// A file write (WAL frame, header, or snapshot body).
    Write,
    /// An `fsync`/`fdatasync` (WAL flush, tmp-file or directory sync).
    Fsync,
    /// A directory-entry change: an atomic rename (snapshot or log swap
    /// publish step) or an unlink (graph removal).
    Rename,
}

/// How an injected fault fails.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// `ENOSPC`-shaped error: the disk filled up mid-operation.
    Enospc,
    /// `EIO`-shaped error: the device failed the operation.
    Eio,
    /// A simulated crash: the process "died" at this boundary. The
    /// storage layer must not run its error-recovery paths (a real
    /// crash would not), only restart-time recovery may repair.
    Crash,
}

/// One planned fault: fire on the `nth` matching boundary after arming.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Fault {
    /// The boundary class this fault matches; `None` matches *every*
    /// boundary (so `nth` indexes the global boundary sequence).
    pub op: Option<IoOp>,
    /// 0-based index of the matching boundary that fails.
    pub nth: u64,
    /// For write boundaries: bytes actually written before the failure
    /// (a torn frame). Ignored by fsync/rename boundaries.
    pub partial: Option<usize>,
    /// The failure shape.
    pub kind: FaultKind,
}

/// A set of faults to arm at once. Build with the chainable
/// constructors, then [`FaultInjector::arm`] it.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// The planned faults; each fires at most once (its boundary index
    /// is crossed at most once per arming).
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan — useful armed as a pure boundary counter.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Fail the `nth` boundary of class `op` with `kind`.
    pub fn fail_nth(mut self, op: IoOp, nth: u64, kind: FaultKind) -> FaultPlan {
        self.faults.push(Fault {
            op: Some(op),
            nth,
            partial: None,
            kind,
        });
        self
    }

    /// Fail the `nth` write after `bytes` bytes reached the file.
    pub fn partial_write(mut self, nth: u64, bytes: usize, kind: FaultKind) -> FaultPlan {
        self.faults.push(Fault {
            op: Some(IoOp::Write),
            nth,
            partial: Some(bytes),
            kind,
        });
        self
    }

    /// Simulate a crash at global boundary `nth` (any op class).
    pub fn crash_at(mut self, nth: u64) -> FaultPlan {
        self.faults.push(Fault {
            op: None,
            nth,
            partial: None,
            kind: FaultKind::Crash,
        });
        self
    }

    /// Simulate a crash at global boundary `nth`, leaving `bytes` torn
    /// bytes behind when that boundary is a write.
    pub fn crash_at_partial(mut self, nth: u64, bytes: usize) -> FaultPlan {
        self.faults.push(Fault {
            op: None,
            nth,
            partial: Some(bytes),
            kind: FaultKind::Crash,
        });
        self
    }
}

/// The marker payload inside a [`FaultKind::Crash`] error.
#[derive(Debug)]
pub struct SimulatedCrash;

/// The substring every simulated-crash error message carries, for
/// layers that only see stringified errors (e.g. `ExpFinderError::Storage`).
pub const CRASH_MARKER: &str = "simulated crash";

impl std::fmt::Display for SimulatedCrash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{CRASH_MARKER} at injected I/O boundary")
    }
}

impl std::error::Error for SimulatedCrash {}

/// True when `e` is an injected crash (the storage layer must behave as
/// if the process died: skip self-healing, leave torn bytes on disk).
pub fn is_simulated_crash(e: &io::Error) -> bool {
    e.get_ref()
        .is_some_and(|inner| inner.is::<SimulatedCrash>())
}

/// Cumulative fault-injection activity — the `engine.faults` block of
/// `GET /metrics`. Boundary counters only advance while a plan is
/// armed, so a production server exports all zeros.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultTotals {
    /// Faults fired since the injector was created.
    pub injected: u64,
    /// Write boundaries crossed while armed.
    pub writes: u64,
    /// Fsync boundaries crossed while armed.
    pub fsyncs: u64,
    /// Rename boundaries crossed while armed.
    pub renames: u64,
}

#[derive(Debug, Default)]
struct PlanState {
    faults: Vec<Fault>,
    writes: u64,
    fsyncs: u64,
    renames: u64,
    total: u64,
    log: Vec<IoOp>,
}

/// The armable fault-injection gate shared by every durability-critical
/// I/O site of one runtime. Disarmed hooks cost one relaxed atomic load.
#[derive(Debug, Default)]
pub struct FaultInjector {
    armed: AtomicBool,
    injected: AtomicU64,
    state: Mutex<PlanState>,
}

impl FaultInjector {
    /// A fresh, disarmed injector behind an `Arc` (the shape every
    /// consumer holds).
    pub fn disarmed() -> Arc<FaultInjector> {
        Arc::new(FaultInjector::default())
    }

    /// Arm `plan`, resetting the boundary counters to zero so its
    /// indices are relative to this call.
    pub fn arm(&self, plan: FaultPlan) {
        let mut st = self.state.lock();
        st.faults = plan.faults;
        st.writes = 0;
        st.fsyncs = 0;
        st.renames = 0;
        st.total = 0;
        st.log.clear();
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Disarm: hooks return to pass-through. Boundary counters and the
    /// op log keep their values for post-run inspection.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
        self.state.lock().faults.clear();
    }

    /// Whether a plan is currently armed.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }

    /// Boundaries crossed since the last [`FaultInjector::arm`].
    pub fn boundaries(&self) -> u64 {
        self.state.lock().total
    }

    /// The class of every boundary crossed since the last arm, in
    /// order — lets a harness target, say, exactly the write boundaries.
    pub fn op_log(&self) -> Vec<IoOp> {
        self.state.lock().log.clone()
    }

    /// Cumulative totals (the `engine.faults` metrics block).
    pub fn totals(&self) -> FaultTotals {
        let st = self.state.lock();
        FaultTotals {
            injected: self.injected.load(Ordering::Relaxed),
            writes: st.writes,
            fsyncs: st.fsyncs,
            renames: st.renames,
        }
    }

    /// Count one boundary of class `op`; the fault to fire, if planned.
    fn fire(&self, op: IoOp) -> Option<Fault> {
        let mut st = self.state.lock();
        let class_idx = match op {
            IoOp::Write => {
                st.writes += 1;
                st.writes - 1
            }
            IoOp::Fsync => {
                st.fsyncs += 1;
                st.fsyncs - 1
            }
            IoOp::Rename => {
                st.renames += 1;
                st.renames - 1
            }
        };
        let total_idx = st.total;
        st.total += 1;
        st.log.push(op);
        let hit = st
            .faults
            .iter()
            .find(|f| match f.op {
                Some(class) => class == op && f.nth == class_idx,
                None => f.nth == total_idx,
            })
            .copied();
        if hit.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn error_for(kind: FaultKind) -> io::Error {
        match kind {
            FaultKind::Enospc => io::Error::other("injected fault: no space left on device"),
            FaultKind::Eio => io::Error::other("injected fault: input/output error"),
            FaultKind::Crash => io::Error::other(SimulatedCrash),
        }
    }

    /// `write_all` through the gate. A partial-write fault puts the
    /// planned byte count into the file before the error surfaces.
    pub fn write_all(&self, file: &File, buf: &[u8]) -> io::Result<()> {
        let mut f = file;
        if !self.armed.load(Ordering::Relaxed) {
            return f.write_all(buf);
        }
        match self.fire(IoOp::Write) {
            None => f.write_all(buf),
            Some(fault) => {
                if let Some(n) = fault.partial {
                    f.write_all(&buf[..n.min(buf.len())])?;
                }
                Err(Self::error_for(fault.kind))
            }
        }
    }

    /// `File::sync_data` through the gate. An injected failure means the
    /// data may or may not be durable — exactly the ambiguity a real
    /// failed fsync leaves (the caller must not retry and trust it).
    pub fn sync_data(&self, file: &File) -> io::Result<()> {
        self.check(IoOp::Fsync)?;
        file.sync_data()
    }

    /// `File::sync_all` through the gate (same contract as
    /// [`FaultInjector::sync_data`]).
    pub fn sync_all(&self, file: &File) -> io::Result<()> {
        self.check(IoOp::Fsync)?;
        file.sync_all()
    }

    /// `fs::rename` through the gate; an injected fault fails *before*
    /// the rename (the target is untouched, like a full journal).
    pub fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.check(IoOp::Rename)?;
        std::fs::rename(from, to)
    }

    /// `fs::remove_file` through the gate, counted as an
    /// [`IoOp::Rename`]-class boundary; an injected fault fails *before*
    /// the unlink (the file is untouched).
    pub fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.check(IoOp::Rename)?;
        std::fs::remove_file(path)
    }

    /// A bare boundary: fail before the I/O it stands in front of runs.
    /// The gated calls above are this plus their syscall; sites whose
    /// I/O happens inside a helper the injector cannot wrap (e.g. the
    /// snapshot body written through `expfinder_graph::io::save_text`)
    /// call it directly.
    pub fn check(&self, op: IoOp) -> io::Result<()> {
        if !self.armed.load(Ordering::Relaxed) {
            return Ok(());
        }
        match self.fire(op) {
            None => Ok(()),
            Some(fault) => Err(Self::error_for(fault.kind)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("expfinder_faults_{tag}_{}", std::process::id()))
    }

    #[test]
    fn disarmed_hooks_pass_through() {
        let p = tmp("passthrough");
        let _ = std::fs::remove_file(&p);
        let inj = FaultInjector::default();
        let f = File::create(&p).unwrap();
        inj.write_all(&f, b"hello").unwrap();
        inj.sync_all(&f).unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"hello");
        assert_eq!(inj.boundaries(), 0, "disarmed boundaries are not counted");
        assert_eq!(inj.totals(), FaultTotals::default());
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn nth_write_fails_with_partial_bytes() {
        let p = tmp("partial");
        let _ = std::fs::remove_file(&p);
        let inj = FaultInjector::default();
        inj.arm(FaultPlan::new().partial_write(1, 2, FaultKind::Enospc));
        let f = File::create(&p).unwrap();
        inj.write_all(&f, b"aaaa").unwrap();
        let err = inj.write_all(&f, b"bbbb").unwrap_err();
        assert!(err.to_string().contains("no space"), "{err}");
        assert!(!is_simulated_crash(&err));
        // the planned 2 torn bytes reached the file
        let mut buf = Vec::new();
        File::open(&p).unwrap().read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"aaaabb");
        // a later write succeeds (the fault fired once)
        inj.write_all(&f, b"cc").unwrap();
        assert_eq!(inj.totals().injected, 1);
        assert_eq!(inj.totals().writes, 3);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn crash_faults_carry_the_marker() {
        let p = tmp("crash");
        let _ = std::fs::remove_file(&p);
        let inj = FaultInjector::default();
        inj.arm(FaultPlan::new().crash_at(1));
        let f = File::create(&p).unwrap();
        inj.write_all(&f, b"x").unwrap();
        let err = inj.sync_all(&f).unwrap_err();
        assert!(is_simulated_crash(&err));
        assert!(err.to_string().contains(CRASH_MARKER));
        assert_eq!(inj.op_log(), vec![IoOp::Write, IoOp::Fsync]);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn rename_fault_leaves_target_untouched() {
        let from = tmp("ren_from");
        let to = tmp("ren_to");
        std::fs::write(&from, b"new").unwrap();
        std::fs::write(&to, b"old").unwrap();
        let inj = FaultInjector::default();
        inj.arm(FaultPlan::new().fail_nth(IoOp::Rename, 0, FaultKind::Eio));
        assert!(inj.rename(&from, &to).is_err());
        assert_eq!(std::fs::read(&to).unwrap(), b"old");
        // disarmed again, the rename goes through
        inj.disarm();
        inj.rename(&from, &to).unwrap();
        assert_eq!(std::fs::read(&to).unwrap(), b"new");
        let _ = std::fs::remove_file(&to);
    }

    #[test]
    fn rearming_resets_boundary_indices() {
        let p = tmp("rearm");
        let _ = std::fs::remove_file(&p);
        let inj = FaultInjector::default();
        let f = File::create(&p).unwrap();
        inj.arm(FaultPlan::new().fail_nth(IoOp::Write, 1, FaultKind::Eio));
        inj.write_all(&f, b"a").unwrap();
        assert!(inj.write_all(&f, b"b").is_err());
        inj.arm(FaultPlan::new().fail_nth(IoOp::Write, 1, FaultKind::Eio));
        inj.write_all(&f, b"c").unwrap();
        assert!(inj.write_all(&f, b"d").is_err(), "indices restart at 0");
        assert_eq!(inj.totals().injected, 2);
        let _ = std::fs::remove_file(&p);
    }
}
