//! The per-graph write-ahead log.
//!
//! One `<name>.wal` file per graph, append-only, replayed onto the last
//! `<name>.efg` snapshot on cold start. The file is a fixed header
//! followed by length-prefixed, checksummed frames:
//!
//! ```text
//! "EFWAL1\n"                                  file header (7 bytes)
//! [len: u32 LE][crc: u32 LE][payload: len]    frame, repeated
//! ```
//!
//! `crc` is FNV-1a over the payload bytes; `payload` is a compact JSON
//! document. An update frame is `{"seq": N, "updates": [{"op","from",
//! "to"}, ...]}` using the canonical update codec of
//! `expfinder_graph::io` — the same encoding the HTTP wire protocol
//! speaks, so a WAL frame is a replayable `/updates` request body plus a
//! sequence number. Since the log is *event-sourced serving state*, not
//! just graph history, registered-query changes are records too:
//!
//! ```text
//! {"seq": N, "op": "register", "query": "team", "pattern": "<dsl>"}
//! {"seq": N, "op": "unregister", "query": "team"}
//! ```
//!
//! The `"op"` field is absent on update frames, so logs written before
//! registration records existed replay unchanged.
//!
//! **Durability contract.** A batch is appended (and, under
//! [`FsyncPolicy::Always`], fsynced) *before* the writer applies it to
//! the graph — write-ahead in the literal sense. Replay therefore
//! sees every acknowledged batch; an unacknowledged batch can at worst
//! leave a *torn tail* (partial final frame from a crash mid-write),
//! which [`Wal::replay`] detects via the length/checksum envelope and
//! truncates away rather than propagating.

use crate::faults::{self, FaultInjector};
use expfinder_graph::json::{self, Value};
use expfinder_graph::{io as gio, EdgeUpdate};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File magic; the trailing newline keeps `head -c7` output readable.
pub const WAL_MAGIC: &[u8; 7] = b"EFWAL1\n";

/// Largest accepted frame payload. A length field beyond this is treated
/// as tail corruption (truncate), never as an allocation request.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// When `append` flushes to stable storage.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended frame (default): an acknowledged
    /// batch survives power loss, at one disk flush per batch.
    #[default]
    Always,
    /// Never fsync; rely on the OS writeback cache. Survives process
    /// crashes (the write hit the kernel) but not power loss. For tests
    /// and bulk loads.
    Never,
}

/// Errors from the WAL layer.
#[derive(Debug)]
pub enum WalError {
    /// Transport-level file IO failure.
    Io(std::io::Error),
    /// The file does not start with [`WAL_MAGIC`].
    BadHeader,
    /// A fully-framed payload failed to decode — unlike a torn tail this
    /// is mid-file corruption and refuses to load (frame index, reason).
    BadFrame(usize, String),
    /// The writer sealed itself after a failed fsync: whether earlier
    /// frames reached stable storage is unknowable (fsyncgate), so
    /// pretending to append durably again would be a lie. Reopen the
    /// log — restart-time replay re-establishes ground truth.
    Sealed,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::BadHeader => write!(f, "wal header is not {WAL_MAGIC:?}"),
            WalError::BadFrame(i, msg) => write!(f, "wal frame {i} is corrupt: {msg}"),
            WalError::Sealed => write!(
                f,
                "wal writer is sealed after a failed fsync; reopen the log to recover"
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// FNV-1a over a byte slice — the frame checksum. Not cryptographic;
/// it guards against torn writes and bit rot, not adversaries (the WAL
/// directory is trusted local state).
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Encode one record as a length-prefixed, checksummed frame.
fn encode_frame(rec: &WalRecord) -> Vec<u8> {
    let payload = rec.to_payload();
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&checksum(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// The event one WAL record carries. Update batches are the common
/// case; register/unregister records make the registered-query set part
/// of the replayable serving state (subscriptions survive a restart).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalOp {
    /// An accepted edge-update batch.
    Updates(Vec<EdgeUpdate>),
    /// A query put under incremental maintenance.
    Register {
        /// The registered query's name.
        query: String,
        /// The pattern's DSL source, re-parsed at replay.
        pattern: String,
    },
    /// A registered query dropped.
    Unregister {
        /// The registered query's name.
        query: String,
    },
}

/// One decoded WAL record: a sequence number and its event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotone per-graph sequence number.
    pub seq: u64,
    /// The event this record carries.
    pub op: WalOp,
}

impl WalRecord {
    /// The update batch, when this record is one (replay loops that only
    /// care about graph history can `filter_map` on this).
    pub fn as_updates(&self) -> Option<&[EdgeUpdate]> {
        match &self.op {
            WalOp::Updates(ups) => Some(ups),
            _ => None,
        }
    }

    fn to_payload(&self) -> Vec<u8> {
        let mut fields: Vec<(String, Value)> =
            vec![("seq".to_owned(), Value::Int(self.seq as i64))];
        match &self.op {
            WalOp::Updates(ups) => {
                let updates = Value::Array(ups.iter().map(|&u| gio::update_to_json(u)).collect());
                fields.push(("updates".to_owned(), updates));
            }
            WalOp::Register { query, pattern } => {
                fields.push(("op".to_owned(), Value::Str("register".to_owned())));
                fields.push(("query".to_owned(), Value::Str(query.clone())));
                fields.push(("pattern".to_owned(), Value::Str(pattern.clone())));
            }
            WalOp::Unregister { query } => {
                fields.push(("op".to_owned(), Value::Str("unregister".to_owned())));
                fields.push(("query".to_owned(), Value::Str(query.clone())));
            }
        }
        let doc = Value::Object(fields.into_iter().collect());
        doc.to_string_compact().into_bytes()
    }

    fn from_payload(bytes: &[u8]) -> Result<WalRecord, String> {
        let text = std::str::from_utf8(bytes).map_err(|_| "payload is not utf-8".to_owned())?;
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let seq = doc
            .field("seq")
            .and_then(|s| s.as_i64())
            .map_err(|e| e.to_string())? as u64;
        // `"op"` absent → an update frame (the pre-registration format)
        let op = match doc.field("op").ok().map(|o| o.as_str()) {
            None => {
                let updates = doc
                    .field("updates")
                    .and_then(|u| u.as_array())
                    .map_err(|e| e.to_string())?
                    .iter()
                    .map(gio::update_from_json)
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| e.to_string())?;
                WalOp::Updates(updates)
            }
            Some(kind) => {
                let kind = kind.map_err(|e| e.to_string())?;
                let query = doc
                    .field("query")
                    .and_then(|q| q.as_str())
                    .map_err(|e| e.to_string())?
                    .to_owned();
                match kind {
                    "register" => WalOp::Register {
                        query,
                        pattern: doc
                            .field("pattern")
                            .and_then(|p| p.as_str())
                            .map_err(|e| e.to_string())?
                            .to_owned(),
                    },
                    "unregister" => WalOp::Unregister { query },
                    other => return Err(format!("unknown wal op {other:?}")),
                }
            }
        };
        Ok(WalRecord { seq, op })
    }
}

/// What [`Wal::replay`] found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Whole frames decoded and returned.
    pub frames: usize,
    /// Updates across those frames.
    pub updates: usize,
    /// True when a torn tail (partial or checksum-failing final frame)
    /// was detected and truncated away.
    pub truncated_tail: bool,
    /// Bytes of log read (after any truncation).
    pub bytes: u64,
}

/// An open per-graph write-ahead log.
pub struct Wal {
    path: PathBuf,
    file: File,
    fsync: FsyncPolicy,
    next_seq: u64,
    faults: Arc<FaultInjector>,
    /// Set after a failed fsync (or a simulated crash): every further
    /// append refuses with [`WalError::Sealed`].
    sealed: bool,
}

impl Wal {
    /// Open (creating if missing) the log at `path` for appending.
    /// Replays nothing — call [`Wal::replay`] first on cold start; a
    /// fresh `Wal` starts its sequence after `last_seq`.
    pub fn open(
        path: impl AsRef<Path>,
        fsync: FsyncPolicy,
        last_seq: u64,
    ) -> Result<Wal, WalError> {
        Wal::open_with_faults(path, fsync, last_seq, FaultInjector::disarmed())
    }

    /// [`Wal::open`] with an explicit fault-injection gate; every write,
    /// fsync and rename this log performs routes through it.
    pub fn open_with_faults(
        path: impl AsRef<Path>,
        fsync: FsyncPolicy,
        last_seq: u64,
        faults: Arc<FaultInjector>,
    ) -> Result<Wal, WalError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        if file.metadata()?.len() == 0 {
            faults.write_all(&file, WAL_MAGIC)?;
            faults.sync_all(&file)?;
        }
        Ok(Wal {
            path,
            file,
            fsync,
            next_seq: last_seq + 1,
            faults,
            sealed: false,
        })
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The sequence number the next append will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Whether the writer sealed itself after a failed fsync. A sealed
    /// log is still *readable* and replayable — only appends refuse.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// How many fsyncs one append performs under the current policy.
    pub fn fsyncs_per_append(&self) -> u64 {
        match self.fsync {
            FsyncPolicy::Always => 1,
            FsyncPolicy::Never => 0,
        }
    }

    /// Bytes of frames currently in the log (file length minus header).
    pub fn frame_bytes(&self) -> Result<u64, WalError> {
        Ok(self
            .file
            .metadata()?
            .len()
            .saturating_sub(WAL_MAGIC.len() as u64))
    }

    /// Append one update batch as a frame; returns `(seq, frame_bytes)`.
    /// Under [`FsyncPolicy::Always`] the frame is on stable storage when
    /// this returns — the caller may then apply the batch and ack it.
    pub fn append(&mut self, updates: &[EdgeUpdate]) -> Result<(u64, usize), WalError> {
        self.append_op(&WalOp::Updates(updates.to_vec()))
    }

    /// Append one record of any kind (update batch, register,
    /// unregister); returns `(seq, frame_bytes)` with the same
    /// durability contract as [`Wal::append`].
    ///
    /// **Failure semantics.** A failed *write* (e.g. a transient ENOSPC
    /// mid-frame) self-heals: the file is truncated back to the last
    /// good frame before the error returns, so the log stays appendable
    /// — the caller simply did not get its ack. A failed *fsync* seals
    /// the writer instead ([`WalError::Sealed`] from then on): whether
    /// the frame — or any earlier unflushed write — actually reached
    /// stable storage is unknowable after fsync reports failure, and
    /// silently pretending durability is how fsyncgate ate data. The
    /// torn frame is dropped best-effort either way, so no unacked
    /// record can surface at replay.
    pub fn append_op(&mut self, op: &WalOp) -> Result<(u64, usize), WalError> {
        if self.sealed {
            return Err(WalError::Sealed);
        }
        let seq = self.next_seq;
        let frame = encode_frame(&WalRecord {
            seq,
            op: op.clone(),
        });
        let good_end = self.file.metadata()?.len();
        if let Err(e) = self.faults.write_all(&self.file, &frame) {
            if faults::is_simulated_crash(&e) {
                // the "process" died here: no self-healing (a real crash
                // runs none), torn bytes stay for replay to truncate
                self.sealed = true;
                return Err(e.into());
            }
            // transient write failure: drop the torn frame so the next
            // append starts on a frame boundary — the log is not bricked
            let _ = self.file.set_len(good_end);
            return Err(e.into());
        }
        if self.fsync == FsyncPolicy::Always {
            if let Err(e) = self.faults.sync_data(&self.file) {
                if faults::is_simulated_crash(&e) {
                    self.sealed = true;
                    return Err(e.into());
                }
                // drop the unacknowledged frame best-effort, then seal:
                // after a failed fsync the kernel may have discarded
                // dirty pages, so this writer can never honestly ack
                // durability again
                let _ = self.file.set_len(good_end);
                let _ = self.file.sync_all();
                self.sealed = true;
                return Err(e.into());
            }
        }
        self.next_seq += 1;
        Ok((seq, frame.len()))
    }

    /// Truncate the log back to an empty header (after a compaction
    /// rewrote the snapshot) and reset the sequence counter.
    pub fn reset(&mut self) -> Result<(), WalError> {
        if self.sealed {
            return Err(WalError::Sealed);
        }
        self.file.set_len(WAL_MAGIC.len() as u64)?;
        self.file.seek(SeekFrom::End(0))?;
        if let Err(e) = self.faults.sync_all(&self.file) {
            // the truncation's durability is unknown — same fsyncgate
            // reasoning as in append: seal rather than guess
            self.sealed = true;
            return Err(e.into());
        }
        self.next_seq = 1;
        Ok(())
    }

    /// Atomically replace the log with a fresh one seeded with `ops`
    /// (sequence numbers `1..=ops.len()`): write a sibling `.wal.tmp`,
    /// fsync it, rename it over the log, fsync the directory. This is
    /// the compaction path — unlike truncate-then-reappend, a crash at
    /// *any* byte of this sequence leaves either the complete old log or
    /// the complete new one, so the re-seeded records (live query
    /// registrations) can never be lost to a badly-timed power cut.
    /// Returns the byte size of each seeded frame.
    pub fn reset_seeded(&mut self, ops: &[WalOp]) -> Result<Vec<usize>, WalError> {
        if self.sealed {
            return Err(WalError::Sealed);
        }
        let tmp = self.path.with_extension("wal.tmp");
        // create truncates a stale tmp from an earlier crashed compaction
        let fresh = File::create(&tmp)?;
        let mut sizes = Vec::with_capacity(ops.len());
        let result = (|| -> Result<(), WalError> {
            self.faults.write_all(&fresh, WAL_MAGIC)?;
            for (i, op) in ops.iter().enumerate() {
                let frame = encode_frame(&WalRecord {
                    seq: i as u64 + 1,
                    op: op.clone(),
                });
                self.faults.write_all(&fresh, &frame)?;
                sizes.push(frame.len());
            }
            self.faults.sync_all(&fresh)?;
            Ok(())
        })();
        drop(fresh);
        if let Err(e) = result {
            // the old log is untouched and still the open handle: the
            // writer stays usable unless this was a simulated crash
            if matches!(&e, WalError::Io(io) if faults::is_simulated_crash(io)) {
                self.sealed = true;
            }
            return Err(e);
        }
        if let Err(e) = self.faults.rename(&tmp, &self.path) {
            if faults::is_simulated_crash(&e) {
                self.sealed = true;
            }
            return Err(e.into());
        }
        // past the rename the open handle points at the unlinked old
        // inode — any failure from here on seals until reopen
        let swapped = (|| -> Result<File, WalError> {
            #[cfg(unix)]
            if let Some(parent) = self.path.parent().filter(|p| !p.as_os_str().is_empty()) {
                let dir = File::open(parent)?;
                self.faults.sync_all(&dir)?;
            }
            Ok(OpenOptions::new()
                .read(true)
                .append(true)
                .open(&self.path)?)
        })();
        match swapped {
            Ok(file) => {
                self.file = file;
                self.next_seq = ops.len() as u64 + 1;
                Ok(sizes)
            }
            Err(e) => {
                self.sealed = true;
                Err(e)
            }
        }
    }

    /// Read every whole frame of the log at `path`, truncating a torn
    /// tail in place (partial final frame, bad length, or checksum
    /// mismatch on the *last* frame). A checksum/decode failure on a
    /// non-final frame is mid-file corruption and errors instead. A
    /// missing file, or one holding only a torn header, replays as empty.
    pub fn replay(path: impl AsRef<Path>) -> Result<(Vec<WalRecord>, ReplaySummary), WalError> {
        let path = path.as_ref();
        let mut summary = ReplaySummary::default();
        let mut file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), summary)),
            Err(e) => return Err(e.into()),
        };
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        drop(file);
        if bytes.len() < WAL_MAGIC.len() && WAL_MAGIC.starts_with(&bytes) {
            // a crash while the log was being created tore its header: no
            // frame was ever acknowledged, and `open` rewrites the header
            // of an empty file
            if !bytes.is_empty() {
                summary.truncated_tail = true;
                OpenOptions::new().write(true).open(path)?.set_len(0)?;
            }
            return Ok((Vec::new(), summary));
        }
        if !bytes.starts_with(WAL_MAGIC) {
            return Err(WalError::BadHeader);
        }

        let mut records = Vec::new();
        let mut off = WAL_MAGIC.len();
        let mut good_end = off; // offset just past the last valid frame
        loop {
            if off == bytes.len() {
                break; // clean end
            }
            if off + 8 > bytes.len() {
                summary.truncated_tail = true; // partial frame header
                break;
            }
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"));
            let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4 bytes"));
            let start = off + 8;
            let end = match (len <= MAX_FRAME_BYTES).then(|| start.checked_add(len as usize)) {
                Some(Some(end)) if end <= bytes.len() => end,
                // oversized length or payload runs past EOF: torn tail
                _ => {
                    summary.truncated_tail = true;
                    break;
                }
            };
            let payload = &bytes[start..end];
            if checksum(payload) != crc {
                if end == bytes.len() {
                    summary.truncated_tail = true; // bit-rotted final frame
                    break;
                }
                return Err(WalError::BadFrame(
                    records.len(),
                    "checksum mismatch".into(),
                ));
            }
            match WalRecord::from_payload(payload) {
                Ok(rec) => {
                    summary.updates += rec.as_updates().map_or(0, <[EdgeUpdate]>::len);
                    records.push(rec);
                }
                Err(msg) => {
                    if end == bytes.len() {
                        summary.truncated_tail = true;
                        break;
                    }
                    return Err(WalError::BadFrame(records.len(), msg));
                }
            }
            off = end;
            good_end = end;
        }
        summary.frames = records.len();
        summary.bytes = good_end as u64;
        if summary.truncated_tail {
            // drop the torn tail so the next append starts on a frame
            // boundary
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(good_end as u64)?;
            f.sync_all()?;
        }
        Ok((records, summary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_graph::NodeId;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("expfinder_wal_{tag}_{}.wal", std::process::id()))
    }

    fn ins(a: u32, b: u32) -> EdgeUpdate {
        EdgeUpdate::Insert(NodeId(a), NodeId(b))
    }

    fn del(a: u32, b: u32) -> EdgeUpdate {
        EdgeUpdate::Delete(NodeId(a), NodeId(b))
    }

    #[test]
    fn append_replay_roundtrip() {
        let p = tmp("roundtrip");
        let _ = std::fs::remove_file(&p);
        let mut wal = Wal::open(&p, FsyncPolicy::Never, 0).unwrap();
        wal.append(&[ins(0, 1), del(2, 3)]).unwrap();
        wal.append(&[]).unwrap();
        wal.append(&[ins(5, 5)]).unwrap();
        drop(wal);

        let (records, summary) = Wal::replay(&p).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].seq, 1);
        assert_eq!(records[0].as_updates(), Some(&[ins(0, 1), del(2, 3)][..]));
        assert_eq!(records[1].as_updates(), Some(&[][..]));
        assert_eq!(records[2].seq, 3);
        assert!(!summary.truncated_tail);
        assert_eq!(summary.frames, 3);
        assert_eq!(summary.updates, 3);

        // reopening continues the sequence
        let wal = Wal::open(&p, FsyncPolicy::Never, records.last().unwrap().seq).unwrap();
        assert_eq!(wal.next_seq(), 4);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let p = tmp("torn");
        let _ = std::fs::remove_file(&p);
        let mut wal = Wal::open(&p, FsyncPolicy::Never, 0).unwrap();
        wal.append(&[ins(0, 1)]).unwrap();
        wal.append(&[ins(1, 2)]).unwrap();
        drop(wal);
        let full = std::fs::read(&p).unwrap();

        // chop the file at every byte inside the final frame: replay
        // must keep frame 1 and truncate the tail
        let (records, _) = Wal::replay(&p).unwrap();
        assert_eq!(records.len(), 2);
        let frame1_end = {
            // header + frame1: recompute from the payload length field
            let len = u32::from_le_bytes(full[7..11].try_into().unwrap()) as usize;
            7 + 8 + len
        };
        for cut in frame1_end + 1..full.len() {
            std::fs::write(&p, &full[..cut]).unwrap();
            let (records, summary) = Wal::replay(&p).unwrap();
            assert_eq!(records.len(), 1, "cut at {cut}");
            assert!(summary.truncated_tail, "cut at {cut}");
            // the truncation is persistent: a second replay is clean
            let (again, summary2) = Wal::replay(&p).unwrap();
            assert_eq!(again.len(), 1);
            assert!(!summary2.truncated_tail, "cut at {cut} left a dirty tail");
        }
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn corrupt_final_frame_checksum_truncates() {
        let p = tmp("crc");
        let _ = std::fs::remove_file(&p);
        let mut wal = Wal::open(&p, FsyncPolicy::Never, 0).unwrap();
        wal.append(&[ins(0, 1)]).unwrap();
        wal.append(&[ins(1, 2)]).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
        let (records, summary) = Wal::replay(&p).unwrap();
        assert_eq!(records.len(), 1);
        assert!(summary.truncated_tail);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn mid_file_corruption_is_fatal() {
        let p = tmp("midfile");
        let _ = std::fs::remove_file(&p);
        let mut wal = Wal::open(&p, FsyncPolicy::Never, 0).unwrap();
        wal.append(&[ins(0, 1)]).unwrap();
        wal.append(&[ins(1, 2)]).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&p).unwrap();
        // flip a byte inside frame 1's payload (not the last frame)
        bytes[16] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(
            Wal::replay(&p),
            Err(WalError::BadFrame(0, _)) | Err(WalError::BadHeader)
        ));
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn reset_truncates_to_header_and_restarts_seq() {
        let p = tmp("reset");
        let _ = std::fs::remove_file(&p);
        let mut wal = Wal::open(&p, FsyncPolicy::Always, 0).unwrap();
        wal.append(&[ins(0, 1)]).unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.next_seq(), 1);
        wal.append(&[ins(2, 3)]).unwrap();
        drop(wal);
        let (records, _) = Wal::replay(&p).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].seq, 1);
        assert_eq!(records[0].as_updates(), Some(&[ins(2, 3)][..]));
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn register_records_roundtrip() {
        let p = tmp("register");
        let _ = std::fs::remove_file(&p);
        let mut wal = Wal::open(&p, FsyncPolicy::Never, 0).unwrap();
        let reg = WalOp::Register {
            query: "team".to_owned(),
            pattern: "node pm; node dba; edge pm -> dba within 2;".to_owned(),
        };
        wal.append_op(&reg).unwrap();
        wal.append(&[ins(0, 1)]).unwrap();
        wal.append_op(&WalOp::Unregister {
            query: "team".to_owned(),
        })
        .unwrap();
        drop(wal);

        let (records, summary) = Wal::replay(&p).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].op, reg);
        assert_eq!(records[0].as_updates(), None);
        assert_eq!(records[1].as_updates(), Some(&[ins(0, 1)][..]));
        assert_eq!(
            records[2].op,
            WalOp::Unregister {
                query: "team".to_owned()
            }
        );
        // only update frames count toward the update tally
        assert_eq!(summary.frames, 3);
        assert_eq!(summary.updates, 1);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn payload_without_op_field_decodes_as_updates() {
        // the pre-registration frame format: no "op" key at all
        let legacy = br#"{"seq":7,"updates":[{"from":1,"op":"insert","to":2}]}"#;
        let rec = WalRecord::from_payload(legacy).unwrap();
        assert_eq!(rec.seq, 7);
        assert_eq!(rec.as_updates(), Some(&[ins(1, 2)][..]));
    }

    #[test]
    fn unknown_op_is_a_decode_error() {
        let bad = br#"{"op":"truncate","query":"x","seq":1}"#;
        assert!(WalRecord::from_payload(bad).is_err());
    }

    #[test]
    fn torn_header_replays_empty_and_reopens() {
        for torn in 0..WAL_MAGIC.len() {
            let p = tmp("torn_header");
            std::fs::write(&p, &WAL_MAGIC[..torn]).unwrap();
            let (records, summary) = Wal::replay(&p).unwrap();
            assert!(records.is_empty());
            assert_eq!(summary.truncated_tail, torn > 0);
            let mut wal = Wal::open(&p, FsyncPolicy::Never, 0).unwrap();
            wal.append(&[ins(1, 2)]).unwrap();
            drop(wal);
            assert_eq!(Wal::replay(&p).unwrap().0.len(), 1);
            let _ = std::fs::remove_file(&p);
        }
        let p = tmp("bad_header");
        std::fs::write(&p, b"EFW").unwrap();
        assert!(
            Wal::replay(&p).is_ok(),
            "a prefix of the magic is a torn header"
        );
        std::fs::write(&p, b"XYZ").unwrap();
        assert!(matches!(Wal::replay(&p), Err(WalError::BadHeader)));
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn missing_file_replays_empty() {
        let p = tmp("missing");
        let _ = std::fs::remove_file(&p);
        let (records, summary) = Wal::replay(&p).unwrap();
        assert!(records.is_empty());
        assert_eq!(summary, ReplaySummary::default());
    }

    #[test]
    fn oversized_length_field_is_a_torn_tail() {
        let p = tmp("oversize");
        let _ = std::fs::remove_file(&p);
        let mut wal = Wal::open(&p, FsyncPolicy::Never, 0).unwrap();
        wal.append(&[ins(0, 1)]).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&p).unwrap();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(b"garbage");
        std::fs::write(&p, &bytes).unwrap();
        let (records, summary) = Wal::replay(&p).unwrap();
        assert_eq!(records.len(), 1);
        assert!(summary.truncated_tail);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn transient_enospc_append_self_heals() {
        use crate::faults::{FaultKind, FaultPlan};
        let p = tmp("enospc");
        let _ = std::fs::remove_file(&p);
        let inj = FaultInjector::disarmed();
        let mut wal = Wal::open_with_faults(&p, FsyncPolicy::Always, 0, Arc::clone(&inj)).unwrap();
        wal.append(&[ins(0, 1)]).unwrap();
        // the next frame write fails after 3 torn bytes hit the disk
        inj.arm(FaultPlan::new().partial_write(0, 3, FaultKind::Enospc));
        let err = wal.append(&[ins(1, 2)]).unwrap_err();
        assert!(matches!(err, WalError::Io(_)), "{err}");
        assert!(!wal.is_sealed(), "a write failure does not seal");
        inj.disarm();
        // the log self-healed: the torn bytes are gone and the retry
        // lands with the same sequence number
        let (seq, _) = wal.append(&[ins(1, 2)]).unwrap();
        assert_eq!(seq, 2, "failed append did not consume a sequence");
        wal.append(&[ins(2, 3)]).unwrap();
        drop(wal);
        let (records, summary) = Wal::replay(&p).unwrap();
        assert_eq!(records.len(), 3);
        assert!(!summary.truncated_tail, "nothing left to repair");
        assert_eq!(records[1].as_updates(), Some(&[ins(1, 2)][..]));
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn fsync_failure_seals_the_writer() {
        use crate::faults::{FaultKind, FaultPlan, IoOp};
        let p = tmp("fsyncgate");
        let _ = std::fs::remove_file(&p);
        let inj = FaultInjector::disarmed();
        let mut wal = Wal::open_with_faults(&p, FsyncPolicy::Always, 0, Arc::clone(&inj)).unwrap();
        wal.append(&[ins(0, 1)]).unwrap();
        inj.arm(FaultPlan::new().fail_nth(IoOp::Fsync, 0, FaultKind::Eio));
        let err = wal.append(&[ins(1, 2)]).unwrap_err();
        assert!(matches!(err, WalError::Io(_)), "{err}");
        assert!(wal.is_sealed());
        inj.disarm();
        // sealed: appends and resets refuse with the distinct error
        assert!(matches!(wal.append(&[ins(2, 3)]), Err(WalError::Sealed)));
        assert!(matches!(wal.reset(), Err(WalError::Sealed)));
        drop(wal);
        // the unacknowledged frame was dropped; reopening recovers
        let (records, _) = Wal::replay(&p).unwrap();
        assert_eq!(records.len(), 1, "only the acknowledged frame survives");
        let mut wal = Wal::open(&p, FsyncPolicy::Always, records.last().unwrap().seq).unwrap();
        wal.append(&[ins(5, 6)]).unwrap();
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn crashed_partial_append_leaves_replayable_log() {
        use crate::faults::FaultPlan;
        let p = tmp("crash_partial");
        let _ = std::fs::remove_file(&p);
        let inj = FaultInjector::disarmed();
        let mut wal = Wal::open_with_faults(&p, FsyncPolicy::Never, 0, Arc::clone(&inj)).unwrap();
        wal.append(&[ins(0, 1)]).unwrap();
        // simulated crash 5 bytes into the next frame: no self-healing
        // runs (a real crash runs none) and the writer is dead
        inj.arm(FaultPlan::new().crash_at_partial(0, 5));
        assert!(wal.append(&[ins(1, 2)]).is_err());
        assert!(wal.is_sealed(), "a crashed writer accepts nothing more");
        inj.disarm();
        drop(wal);
        let len_with_torn_tail = std::fs::metadata(&p).unwrap().len();
        let (records, summary) = Wal::replay(&p).unwrap();
        assert_eq!(records.len(), 1);
        assert!(summary.truncated_tail, "the torn bytes were on disk");
        assert!(std::fs::metadata(&p).unwrap().len() < len_with_torn_tail);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn reset_seeded_swaps_atomically() {
        use crate::faults::{FaultKind, FaultPlan, IoOp};
        let p = tmp("reseed");
        let _ = std::fs::remove_file(&p);
        let inj = FaultInjector::disarmed();
        let mut wal = Wal::open_with_faults(&p, FsyncPolicy::Never, 0, Arc::clone(&inj)).unwrap();
        wal.append(&[ins(0, 1)]).unwrap();
        wal.append(&[ins(1, 2)]).unwrap();
        let reg = WalOp::Register {
            query: "team".to_owned(),
            pattern: "node pm; node dba; edge pm -> dba within 2;".to_owned(),
        };

        // a failure before the rename leaves the old log fully intact
        // and the writer usable
        inj.arm(FaultPlan::new().fail_nth(IoOp::Fsync, 0, FaultKind::Enospc));
        assert!(wal.reset_seeded(std::slice::from_ref(&reg)).is_err());
        inj.disarm();
        assert!(!wal.is_sealed());
        let (records, _) = Wal::replay(&p).unwrap();
        assert_eq!(records.len(), 2, "old log untouched by failed swap");

        // the successful swap replaces the log with the seeded records
        let sizes = wal.reset_seeded(std::slice::from_ref(&reg)).unwrap();
        assert_eq!(sizes.len(), 1);
        assert_eq!(wal.next_seq(), 2);
        wal.append(&[ins(7, 8)]).unwrap();
        drop(wal);
        let (records, summary) = Wal::replay(&p).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].op, reg);
        assert_eq!(records[0].seq, 1);
        assert_eq!(records[1].as_updates(), Some(&[ins(7, 8)][..]));
        assert!(!summary.truncated_tail);
        assert!(
            !p.with_extension("wal.tmp").exists(),
            "the rename consumed the tmp file"
        );
        let _ = std::fs::remove_file(&p);
    }
}
