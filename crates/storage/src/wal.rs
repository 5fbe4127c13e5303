//! The write-ahead log.
//!
//! Records are serialized as JSON payloads wrapped in a binary frame:
//!
//! ```text
//! | len: u32 | checksum: u32 | payload: len bytes |
//! ```
//!
//! The checksum covers **both** the length field and the payload, so a
//! corrupted length that still points inside the buffer is detected as
//! corruption rather than silently truncating the log. A frame whose
//! claimed length runs past the end of the buffer is indistinguishable
//! from a write cut short by power loss and is treated as a torn tail —
//! the same stop-at-first-invalid-record policy real redo passes use.
//! The log lives in an in-memory byte buffer standing in for a log
//! device; [`Wal::crash_truncate`] chops an arbitrary suffix to emulate a
//! crash mid-write in tests.

use crate::catalog::TableId;
use crate::row::{Row, RowId};
use pstm_obs::frame::{next_frame, write_frame, FrameStep};
use pstm_obs::{TraceEvent, Tracer};
use pstm_types::{FaultDecision, FaultSite, PstmError, PstmResult, SharedFaultHook, TxnId, Value};
use serde::{Deserialize, Serialize};

/// Log sequence number: the byte offset of a record's frame in the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Lsn(pub u64);

/// One redo/undo record.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum LogRecord {
    /// Transaction start.
    Begin {
        /// The starting transaction.
        txn: TxnId,
    },
    /// Row inserted (after-image; `row_id` is the address that must be
    /// reproduced on redo).
    Insert {
        /// Writing transaction.
        txn: TxnId,
        /// Target table.
        table: TableId,
        /// Address the row received.
        row_id: RowId,
        /// Full after-image.
        row: Row,
    },
    /// Single-column update with before and after images.
    Update {
        /// Writing transaction.
        txn: TxnId,
        /// Target table.
        table: TableId,
        /// Updated row.
        row_id: RowId,
        /// Updated column index.
        column: usize,
        /// Value before the update (undo image).
        before: Value,
        /// Value after the update (redo image).
        after: Value,
    },
    /// Row deleted (before-image retained for undo).
    Delete {
        /// Writing transaction.
        txn: TxnId,
        /// Target table.
        table: TableId,
        /// Deleted row's address.
        row_id: RowId,
        /// Full before-image.
        row: Row,
    },
    /// Transaction committed — all its records are winners.
    Commit {
        /// The committing transaction.
        txn: TxnId,
    },
    /// Transaction aborted — its records are losers (runtime already
    /// undid them; recovery simply never redoes them).
    Abort {
        /// The aborting transaction.
        txn: TxnId,
    },
    /// Quiescent checkpoint: heap images were captured; the log before
    /// this point is no longer needed.
    Checkpoint,
    /// DDL: a table was created (autocommitted — replayed unconditionally
    /// so post-checkpoint DDL survives a crash).
    CreateTable {
        /// The new table's schema.
        schema: crate::schema::TableSchema,
        /// Its CHECK constraints.
        constraints: Vec<crate::constraint::Constraint>,
    },
    /// DDL: a secondary index was created.
    CreateIndex {
        /// The indexed table.
        table: TableId,
        /// The indexed column.
        column: usize,
    },
}

impl LogRecord {
    /// The transaction a record belongs to, if any.
    #[must_use]
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            LogRecord::Begin { txn }
            | LogRecord::Insert { txn, .. }
            | LogRecord::Update { txn, .. }
            | LogRecord::Delete { txn, .. }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn } => Some(*txn),
            LogRecord::Checkpoint
            | LogRecord::CreateTable { .. }
            | LogRecord::CreateIndex { .. } => None,
        }
    }
}

/// Serializes `rec` and appends its complete frame to `out` via the
/// shared framing in [`pstm_obs::frame`], returning the frame's size in
/// bytes. Writes nothing on a serialization error.
fn frame_into(rec: &LogRecord, out: &mut Vec<u8>) -> PstmResult<u64> {
    let payload =
        serde_json::to_vec(rec).map_err(|e| PstmError::internal(format!("WAL serialize: {e}")))?;
    Ok(write_frame(&payload, out) as u64)
}

/// The append-only log device.
#[derive(Default)]
pub struct Wal {
    buf: Vec<u8>,
    /// Number of records appended — exposed for write-amplification stats.
    appended: u64,
    /// Reused frame-assembly buffer: appends in steady state allocate
    /// only the serialized payload, not a fresh frame per record.
    scratch: Vec<u8>,
    /// Reused `(Lsn, frame bytes)` of the last append's records.
    frames: Vec<(Lsn, u64)>,
    tracer: Tracer,
    /// Fault seam consulted on every append (see `pstm_types::fault`);
    /// `None` outside chaos runs.
    hook: Option<SharedFaultHook>,
}

impl Wal {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Wal::default()
    }

    /// Routes the log's flush events to `tracer`.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Installs (or with `None`, removes) the fault seam consulted on
    /// every append. Heap mutations are logged *after* they happen in
    /// this engine, so a log write that fails cannot be survived by
    /// retrying — every non-`Proceed` decision here is fatal (see
    /// [`Wal::append`]).
    pub fn set_fault_hook(&mut self, hook: Option<SharedFaultHook>) {
        self.hook = hook;
    }

    /// Appends a record, returning its LSN — a one-record
    /// [`Wal::append_batch`] that allocates nothing per record.
    pub fn append(&mut self, rec: &LogRecord) -> PstmResult<Lsn> {
        self.append_frames(std::slice::from_ref(rec))?;
        Ok(self.frames[0].0)
    }

    /// Appends a group of records as **one framed flush**: every frame is
    /// assembled in the scratch buffer and the log device grows by a
    /// single contiguous write, amortizing the flush cost the group-commit
    /// layer exists to save. Each record keeps its own frame and `Lsn`, so
    /// readers and recovery are oblivious to grouping.
    // pstm-lockgraph: flush-point
    pub fn append_batch(&mut self, recs: &[LogRecord]) -> PstmResult<Vec<Lsn>> {
        self.append_frames(recs)?;
        Ok(self.frames.iter().map(|(lsn, _)| *lsn).collect())
    }

    /// The one durable-write path behind [`Wal::append`] and
    /// [`Wal::append_batch`] (the `wal-seam` lint in `pstm-check` enforces
    /// it), which makes it the [`FaultSite::WalAppend`] seam. The seam is
    /// consulted **once per call** — the group is one device write. An
    /// injected `Io` or `Crash` kills the simulated process before any
    /// byte lands; `Torn { keep }` writes only a prefix of the group first
    /// (clamped so at least the final frame is torn): leading frames
    /// survive intact and recovery's stop-at-first-invalid policy discards
    /// exactly the torn suffix. On success `self.frames` holds each
    /// record's `(Lsn, frame bytes)`.
    fn append_frames(&mut self, recs: &[LogRecord]) -> PstmResult<()> {
        let _phase = pstm_obs::prof::PhaseTimer::start(pstm_obs::prof::CommitPhase::WalAppend);
        self.frames.clear();
        if recs.is_empty() {
            return Ok(());
        }
        let base = self.buf.len() as u64;
        self.scratch.clear();
        for rec in recs {
            let lsn = Lsn(base + self.scratch.len() as u64);
            let bytes = frame_into(rec, &mut self.scratch)?;
            self.frames.push((lsn, bytes));
        }
        if let Some(hook) = self.hook.as_ref() {
            match hook.decide(FaultSite::WalAppend) {
                FaultDecision::Proceed => {}
                FaultDecision::Torn { keep } => {
                    let keep = (keep as usize).min(self.scratch.len() - 1);
                    self.buf.extend_from_slice(&self.scratch[..keep]);
                    self.tracer.emit_unclocked(TraceEvent::FaultInjected {
                        site: FaultSite::WalAppend.label(),
                        action: "torn".into(),
                    });
                    return Err(PstmError::Crashed(FaultSite::WalAppend.label()));
                }
                FaultDecision::Io | FaultDecision::Crash => {
                    // The heap already mutated before this append, so an
                    // unlogged-but-applied write cannot be tolerated: a
                    // failing log device means the process dies here.
                    self.tracer.emit_unclocked(TraceEvent::FaultInjected {
                        site: FaultSite::WalAppend.label(),
                        action: "crash".into(),
                    });
                    return Err(PstmError::Crashed(FaultSite::WalAppend.label()));
                }
            }
        }
        self.buf.extend_from_slice(&self.scratch);
        self.appended += recs.len() as u64;
        // One WalFlush per record: replayed counters must not depend on
        // how appends were grouped.
        for (lsn, bytes) in &self.frames {
            self.tracer.emit_unclocked(TraceEvent::WalFlush { lsn: lsn.0, bytes: *bytes });
        }
        Ok(())
    }

    /// Size of the log in bytes.
    #[must_use]
    pub fn len_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Number of records appended since creation/truncation.
    #[must_use]
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Reads every intact record from `from` onward. A torn final frame is
    /// silently dropped (that is the crash contract); corruption *before*
    /// the tail is an error.
    pub fn records_from(&self, from: Lsn) -> PstmResult<Vec<(Lsn, LogRecord)>> {
        let mut out = Vec::new();
        let mut pos = from.0 as usize;
        if pos > self.buf.len() {
            return Err(PstmError::WalCorrupt(format!(
                "start LSN {} beyond log end {}",
                pos,
                self.buf.len()
            )));
        }
        while pos < self.buf.len() {
            let lsn = Lsn(pos as u64);
            match next_frame(&self.buf, pos) {
                FrameStep::Frame { payload, end } => {
                    let rec: LogRecord = serde_json::from_slice(payload).map_err(|e| {
                        PstmError::WalCorrupt(format!("bad payload at LSN {}: {e}", lsn.0))
                    })?;
                    out.push((lsn, rec));
                    pos = end;
                }
                // Torn final write or a length running past the buffer:
                // stop replay here (the crash contract).
                FrameStep::Torn => break,
                FrameStep::Corrupt => {
                    return Err(PstmError::WalCorrupt(format!("bad checksum at LSN {}", lsn.0)));
                }
            }
        }
        Ok(out)
    }

    /// All intact records.
    pub fn records(&self) -> PstmResult<Vec<(Lsn, LogRecord)>> {
        self.records_from(Lsn(0))
    }

    /// Drops the log prefix up to (excluding) `upto` — used after a
    /// checkpoint. Returns the new origin LSN of the retained suffix
    /// (always `Lsn(0)` in the compacted buffer).
    pub fn truncate_prefix(&mut self, upto: Lsn) -> PstmResult<()> {
        if upto.0 as usize > self.buf.len() {
            return Err(PstmError::WalCorrupt("truncate beyond log end".into()));
        }
        self.buf.drain(..upto.0 as usize);
        Ok(())
    }

    /// Test/chaos hook: chops the last `bytes` bytes, emulating a crash
    /// that tore the final write.
    pub fn crash_truncate(&mut self, bytes: usize) {
        let keep = self.buf.len().saturating_sub(bytes);
        self.buf.truncate(keep);
    }

    /// Test/chaos hook: flips a byte mid-log to emulate media corruption.
    pub fn corrupt_byte(&mut self, offset: usize) {
        self.corrupt_byte_with(offset, 0xFF);
    }

    /// Test/chaos hook: XORs a byte with `mask` — finer-grained than
    /// [`Wal::corrupt_byte`] for targeting specific frame fields.
    pub fn corrupt_byte_with(&mut self, offset: usize, mask: u8) {
        if let Some(b) = self.buf.get_mut(offset) {
            *b ^= mask;
        }
    }

    /// Physically discards a torn tail left by a crash mid-append, so that
    /// post-recovery appends land on a frame boundary instead of behind
    /// the garbage (where a *second* recovery would stop at the tear and
    /// lose them). Returns the number of bytes dropped. Corruption before
    /// the tail is left untouched — that is a media error for
    /// [`Wal::records_from`] to report, not a tear to repair.
    pub fn trim_torn_tail(&mut self) -> usize {
        let mut pos = 0usize;
        while pos < self.buf.len() {
            match next_frame(&self.buf, pos) {
                FrameStep::Frame { end, .. } => pos = end,
                FrameStep::Torn => break,
                FrameStep::Corrupt => return 0, // mid-log corruption: not ours to repair
            }
        }
        let dropped = self.buf.len() - pos;
        self.buf.truncate(pos);
        dropped
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("bytes", &self.buf.len())
            .field("appended", &self.appended)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstm_types::Value;

    fn sample_records() -> Vec<LogRecord> {
        let t = TxnId(1);
        let table = TableId(0);
        vec![
            LogRecord::Begin { txn: t },
            LogRecord::Insert {
                txn: t,
                table,
                row_id: RowId::new(0, 0),
                row: Row::new(vec![Value::Int(1), Value::Int(100)]),
            },
            LogRecord::Update {
                txn: t,
                table,
                row_id: RowId::new(0, 0),
                column: 1,
                before: Value::Int(100),
                after: Value::Int(99),
            },
            LogRecord::Delete {
                txn: t,
                table,
                row_id: RowId::new(0, 0),
                row: Row::new(vec![Value::Int(1), Value::Int(99)]),
            },
            LogRecord::Commit { txn: t },
        ]
    }

    #[test]
    fn append_read_round_trip() {
        let mut wal = Wal::new();
        let recs = sample_records();
        let lsns: Vec<Lsn> = recs.iter().map(|r| wal.append(r).unwrap()).collect();
        assert!(lsns.windows(2).all(|w| w[0] < w[1]));
        let back = wal.records().unwrap();
        assert_eq!(back.len(), recs.len());
        for ((lsn, rec), (expect_lsn, expect)) in back.iter().zip(lsns.iter().zip(&recs)) {
            assert_eq!(lsn, expect_lsn);
            assert_eq!(rec, expect);
        }
    }

    #[test]
    fn records_from_mid_log() {
        let mut wal = Wal::new();
        let recs = sample_records();
        let lsns: Vec<Lsn> = recs.iter().map(|r| wal.append(r).unwrap()).collect();
        let tail = wal.records_from(lsns[2]).unwrap();
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].1, recs[2]);
    }

    #[test]
    fn torn_tail_is_dropped_not_an_error() {
        let mut wal = Wal::new();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        for cut in 1..40 {
            let mut torn = Wal::new();
            torn.buf = wal.buf.clone();
            torn.crash_truncate(cut);
            let recs = torn.records().unwrap();
            assert!(recs.len() < 5, "cut {cut} should lose the tail record");
            assert!(recs.len() >= 4 || cut > 10, "small cuts only lose one record");
        }
    }

    #[test]
    fn mid_log_corruption_is_an_error() {
        let mut wal = Wal::new();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        // Corrupt inside the first record's payload (frame header is 8
        // bytes): the checksum must fail and, because intact records
        // follow, this is corruption, not a torn tail.
        wal.corrupt_byte(12);
        assert!(matches!(wal.records(), Err(PstmError::WalCorrupt(_))));
    }

    #[test]
    fn truncate_prefix_after_checkpoint() {
        let mut wal = Wal::new();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let cp = wal.append(&LogRecord::Checkpoint).unwrap();
        wal.append(&LogRecord::Begin { txn: TxnId(2) }).unwrap();
        wal.truncate_prefix(cp).unwrap();
        let recs = wal.records().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].1, LogRecord::Checkpoint);
        assert_eq!(recs[1].1, LogRecord::Begin { txn: TxnId(2) });
    }

    #[test]
    fn truncate_beyond_end_errors() {
        let mut wal = Wal::new();
        assert!(wal.truncate_prefix(Lsn(10)).is_err());
        assert!(wal.records_from(Lsn(10)).is_err());
    }

    #[test]
    fn record_txn_accessor() {
        assert_eq!(LogRecord::Begin { txn: TxnId(3) }.txn(), Some(TxnId(3)));
        assert_eq!(LogRecord::Checkpoint.txn(), None);
    }

    #[test]
    fn trim_torn_tail_restores_appendability() {
        let mut wal = Wal::new();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let intact = wal.records().unwrap().len();
        wal.crash_truncate(7); // tear the final frame
        let dropped = wal.trim_torn_tail();
        assert!(dropped > 0, "a torn frame must be physically discarded");
        assert_eq!(wal.records().unwrap().len(), intact - 1);
        // The point of trimming: new appends are readable afterwards.
        wal.append(&LogRecord::Commit { txn: TxnId(9) }).unwrap();
        let recs = wal.records().unwrap();
        assert_eq!(recs.last().unwrap().1, LogRecord::Commit { txn: TxnId(9) });
        // Idempotent: nothing more to trim on a clean log.
        assert_eq!(wal.trim_torn_tail(), 0);
    }

    #[test]
    fn trim_torn_tail_leaves_mid_log_corruption_alone() {
        let mut wal = Wal::new();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let before = wal.len_bytes();
        wal.corrupt_byte(12); // payload of the first record
        assert_eq!(wal.trim_torn_tail(), 0);
        assert_eq!(wal.len_bytes(), before, "media corruption is not a tear");
        assert!(matches!(wal.records(), Err(PstmError::WalCorrupt(_))));
    }

    struct DecideOnNth {
        nth: std::sync::atomic::AtomicU64,
        decision: FaultDecision,
    }
    impl FaultHook for DecideOnNth {
        fn decide(&self, _site: FaultSite) -> FaultDecision {
            use std::sync::atomic::Ordering;
            if self.nth.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.decision
            } else {
                FaultDecision::Proceed
            }
        }
    }
    use pstm_types::FaultHook;

    #[test]
    fn wal_append_crash_fault_writes_nothing() {
        let mut wal = Wal::new();
        wal.set_fault_hook(Some(std::sync::Arc::new(DecideOnNth {
            nth: std::sync::atomic::AtomicU64::new(3),
            decision: FaultDecision::Crash,
        })));
        let recs = sample_records();
        wal.append(&recs[0]).unwrap();
        wal.append(&recs[1]).unwrap();
        let before = wal.len_bytes();
        let err = wal.append(&recs[2]).unwrap_err();
        assert!(matches!(err, PstmError::Crashed(ref s) if s == "wal-append"));
        assert_eq!(wal.len_bytes(), before, "a crashed append leaves no bytes");
        assert_eq!(wal.records().unwrap().len(), 2);
    }

    #[test]
    fn append_batch_is_byte_identical_to_sequential_appends() {
        let recs = sample_records();
        let mut one_by_one = Wal::new();
        let solo_lsns: Vec<Lsn> = recs.iter().map(|r| one_by_one.append(r).unwrap()).collect();
        let mut batched = Wal::new();
        let lsns = batched.append_batch(&recs).unwrap();
        assert_eq!(lsns, solo_lsns, "grouping must not move any record's LSN");
        assert_eq!(batched.buf, one_by_one.buf, "grouping must not change the device image");
        assert_eq!(batched.appended(), recs.len() as u64);
        let back = batched.records().unwrap();
        assert_eq!(back.len(), recs.len());
        for ((lsn, rec), (expect_lsn, expect)) in back.iter().zip(lsns.iter().zip(&recs)) {
            assert_eq!(lsn, expect_lsn);
            assert_eq!(rec, expect);
        }
        assert!(batched.append_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn torn_batch_keeps_leading_frames_and_recovery_drops_the_tail() {
        // Tear the group so the first record's frame survives whole: the
        // intact prefix must replay, the torn suffix must trim away, and
        // no frame may surface partially.
        let recs = sample_records();
        let first_frame = {
            let mut probe = Wal::new();
            probe.append(&recs[0]).unwrap();
            probe.len_bytes()
        };
        let mut wal = Wal::new();
        wal.set_fault_hook(Some(std::sync::Arc::new(DecideOnNth {
            nth: std::sync::atomic::AtomicU64::new(1),
            decision: FaultDecision::Torn { keep: (first_frame + 3) as u32 },
        })));
        let err = wal.append_batch(&recs).unwrap_err();
        assert!(matches!(err, PstmError::Crashed(ref s) if s == "wal-append"));
        assert_eq!(wal.len_bytes(), first_frame + 3, "exactly `keep` bytes land");
        let survivors = wal.records().unwrap();
        assert_eq!(survivors.len(), 1, "only the fully-written leading frame replays");
        assert_eq!(survivors[0].1, recs[0]);
        assert_eq!(wal.trim_torn_tail(), 3);
        assert_eq!(wal.records().unwrap().len(), 1);
    }

    #[test]
    fn torn_batch_keep_clamps_so_the_tail_frame_is_always_torn() {
        let recs = sample_records();
        let mut wal = Wal::new();
        wal.set_fault_hook(Some(std::sync::Arc::new(DecideOnNth {
            nth: std::sync::atomic::AtomicU64::new(1),
            decision: FaultDecision::Torn { keep: u32::MAX },
        })));
        wal.append_batch(&recs).unwrap_err();
        let survivors = wal.records().unwrap();
        assert!(survivors.len() < recs.len(), "the final frame must not land whole");
        assert!(wal.trim_torn_tail() > 0);
    }

    #[test]
    fn crashed_batch_writes_nothing() {
        let recs = sample_records();
        let mut wal = Wal::new();
        wal.append(&recs[0]).unwrap();
        let before = wal.len_bytes();
        wal.set_fault_hook(Some(std::sync::Arc::new(DecideOnNth {
            nth: std::sync::atomic::AtomicU64::new(1),
            decision: FaultDecision::Crash,
        })));
        let err = wal.append_batch(&recs).unwrap_err();
        assert!(matches!(err, PstmError::Crashed(_)));
        assert_eq!(wal.len_bytes(), before, "a crashed group leaves no bytes");
        assert_eq!(wal.records().unwrap().len(), 1);
    }

    #[test]
    fn wal_append_torn_fault_leaves_partial_frame() {
        let mut wal = Wal::new();
        wal.set_fault_hook(Some(std::sync::Arc::new(DecideOnNth {
            nth: std::sync::atomic::AtomicU64::new(2),
            decision: FaultDecision::Torn { keep: 11 },
        })));
        let recs = sample_records();
        wal.append(&recs[0]).unwrap();
        let before = wal.len_bytes();
        let err = wal.append(&recs[1]).unwrap_err();
        assert!(matches!(err, PstmError::Crashed(_)));
        assert_eq!(wal.len_bytes(), before + 11, "exactly `keep` bytes land");
        // Recovery reads the intact prefix; trim removes the tear.
        assert_eq!(wal.records().unwrap().len(), 1);
        assert_eq!(wal.trim_torn_tail(), 11);
        assert_eq!(wal.len_bytes(), before);
    }
}

#[cfg(test)]
mod frame_header_tests {
    use super::*;
    use pstm_types::TxnId;

    /// Regression (review finding): a corrupted *length* field mid-log
    /// must be detected as corruption when the claimed frame still lies
    /// within the buffer — not silently drop the rest of the log.
    #[test]
    fn corrupted_inline_length_is_corruption_not_torn_tail() {
        let mut wal = Wal::new();
        for i in 0..6 {
            wal.append(&LogRecord::Begin { txn: TxnId(i) }).unwrap();
        }
        // Nudge the first frame's length by one: the frame still lies
        // within the buffer but the checksum (which covers the length)
        // no longer matches.
        wal.corrupt_byte_with(0, 0x01);
        assert!(matches!(wal.records(), Err(PstmError::WalCorrupt(_))));
    }

    /// A length running past the buffer end is treated as a torn tail
    /// (stop-at-first-invalid, like a real redo pass).
    #[test]
    fn oversized_length_stops_replay() {
        let mut wal = Wal::new();
        for i in 0..3 {
            wal.append(&LogRecord::Begin { txn: TxnId(i) }).unwrap();
        }
        // Blow up the *last* record's length field far past the buffer.
        let recs = wal.records().unwrap();
        let last_lsn = recs.last().unwrap().0;
        wal.corrupt_byte(last_lsn.0 as usize + 2); // high byte of len
        let survivors = wal.records().unwrap();
        assert_eq!(survivors.len(), 2, "replay stops before the bad frame");
    }
}
