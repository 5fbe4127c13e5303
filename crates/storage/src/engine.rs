//! The `Database` facade — the LDBS the middleware's Secure System
//! Transactions run against.
//!
//! The engine owns the catalog, one heap file + index set per table, and
//! the WAL. It enforces CHECK constraints on every write, logs
//! before/after images, supports abort-by-undo at runtime, quiescent
//! checkpoints, and crash recovery (see [`crate::recovery`]).
//!
//! Concurrency model: a coarse `parking_lot::RwLock` around the engine
//! state. The managers layered above (2PL, GTM) serialize conflicting
//! access themselves — the engine lock only protects physical integrity,
//! mirroring the paper's split where the middleware provides isolation and
//! the LDBS provides consistency + durability.

use crate::btree::BTreeIndex;
use crate::catalog::{Catalog, TableId};
use crate::constraint::Constraint;
use crate::heap::HeapFile;
use crate::row::{Row, RowId};
use crate::schema::TableSchema;
use crate::wal::{LogRecord, Lsn, Wal};
use parking_lot::RwLock;
use pstm_obs::{Ctr, MetricsRegistry, TraceEvent, Tracer};
use pstm_types::{FaultDecision, FaultSite, PstmError, PstmResult, SharedFaultHook, TxnId, Value};
use std::collections::HashMap;
use std::ops::Bound;

/// One write against the database, as carried by a [`WriteSet`].
#[derive(Clone, Debug, PartialEq)]
pub enum WriteOp {
    /// Insert a full row; the engine assigns the address.
    Insert {
        /// Target table.
        table: TableId,
        /// The new row.
        row: Row,
    },
    /// Overwrite one column of an existing row.
    Update {
        /// Target table.
        table: TableId,
        /// Target row.
        row_id: RowId,
        /// Column index.
        column: usize,
        /// New value.
        value: Value,
    },
    /// Delete a row.
    Delete {
        /// Target table.
        table: TableId,
        /// Target row.
        row_id: RowId,
    },
}

/// An ordered batch of writes applied as one atomic short transaction —
/// exactly what the paper's Secure System Transaction is.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WriteSet(pub Vec<WriteOp>);

impl WriteSet {
    /// An empty write set.
    #[must_use]
    pub fn new() -> Self {
        WriteSet::default()
    }

    /// Appends an op; builder-style.
    #[must_use]
    pub fn with(mut self, op: WriteOp) -> Self {
        self.0.push(op);
        self
    }

    /// Number of operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Physical storage of one table.
pub(crate) struct TableStore {
    pub(crate) heap: HeapFile,
    pub(crate) indexes: Vec<BTreeIndex>,
}

impl TableStore {
    fn new(index_count: usize) -> Self {
        TableStore {
            heap: HeapFile::new(),
            indexes: (0..index_count).map(|_| BTreeIndex::new()).collect(),
        }
    }
}

/// Checkpoint image: serialized catalog + heap images.
pub(crate) struct CheckpointImage {
    pub(crate) catalog_json: Vec<u8>,
    pub(crate) heaps: Vec<Vec<u8>>,
}

pub(crate) struct Inner {
    pub(crate) catalog: Catalog,
    pub(crate) stores: Vec<TableStore>,
    pub(crate) wal: Wal,
    pub(crate) checkpoint: Option<CheckpointImage>,
    /// Active transactions and the LSN of their Begin record (undo scans
    /// the log from there).
    active: HashMap<TxnId, Lsn>,
    /// Rows each active transaction has logically deleted; physically
    /// purged at commit, undeleted at abort — so the space of an
    /// uncommitted delete can never be stolen by other inserts.
    pending_deletes: HashMap<TxnId, Vec<(TableId, RowId)>>,
}

/// Cumulative engine statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Rows inserted since creation.
    pub inserts: u64,
    /// Column updates since creation.
    pub updates: u64,
    /// Rows deleted since creation.
    pub deletes: u64,
    /// Engine-level transaction commits.
    pub commits: u64,
    /// Engine-level transaction aborts.
    pub aborts: u64,
    /// Bytes currently in the WAL.
    pub wal_bytes: usize,
}

impl EngineStats {
    /// Projects the engine counters out of an obs registry. `wal_bytes`
    /// is live state, not a counter — [`Database::stats`] overlays it
    /// from the log itself.
    #[must_use]
    pub fn from_registry(reg: &MetricsRegistry) -> Self {
        EngineStats {
            inserts: reg.counter(Ctr::EngineInserts),
            updates: reg.counter(Ctr::EngineUpdates),
            deletes: reg.counter(Ctr::EngineDeletes),
            commits: reg.counter(Ctr::EngineCommits),
            aborts: reg.counter(Ctr::EngineAborts),
            wal_bytes: 0,
        }
    }
}

/// The embedded database engine.
///
/// # Example
///
/// ```
/// use pstm_storage::{ColumnDef, Constraint, Database, Row, TableSchema};
/// use pstm_types::{TxnId, Value, ValueKind};
///
/// let db = Database::new();
/// let schema = TableSchema::new(
///     "Flight",
///     vec![ColumnDef::new("id", ValueKind::Int), ColumnDef::new("free", ValueKind::Int)],
/// )?;
/// let t = db.create_table(schema, vec![Constraint::non_negative("free >= 0", 1)])?;
///
/// let txn = TxnId(1);
/// db.begin(txn)?;
/// let row = db.insert(txn, t, Row::new(vec![Value::Int(1), Value::Int(100)]))?;
/// db.update(txn, t, row, 1, Value::Int(99))?;
/// db.commit(txn)?;
/// assert_eq!(db.get_col(t, row, 1)?, Value::Int(99));
///
/// // The CHECK constraint is enforced on every write:
/// db.begin(TxnId(2))?;
/// assert!(db.update(TxnId(2), t, row, 1, Value::Int(-1)).is_err());
/// # Ok::<(), pstm_types::PstmError>(())
/// ```
pub struct Database {
    inner: RwLock<Inner>,
    tracer: RwLock<Tracer>,
    /// Modeled round-trip to the LDBS device, paid once per
    /// [`Database::apply_write_set`] call — the cost an SST flush ships
    /// over the mobile link in the paper's deployment, and the cost the
    /// group-commit station amortizes (N fused commits pay it once).
    /// Zero by default: functional tests and chaos runs are unaffected.
    apply_latency: RwLock<std::time::Duration>,
    /// Seeded fault seam (see `pstm_types::fault`), consulted at
    /// [`FaultSite::SstApply`] here and at [`FaultSite::WalAppend`] inside
    /// the WAL. `None` outside chaos runs.
    fault_hook: RwLock<Option<SharedFaultHook>>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// An empty database.
    #[must_use]
    pub fn new() -> Self {
        Database {
            inner: RwLock::new(Inner {
                catalog: Catalog::new(),
                stores: Vec::new(),
                wal: Wal::new(),
                checkpoint: None,
                active: HashMap::new(),
                pending_deletes: HashMap::new(),
            }),
            tracer: RwLock::new(Tracer::disabled()),
            apply_latency: RwLock::new(std::time::Duration::ZERO),
            fault_hook: RwLock::new(None),
        }
    }

    /// Sets the modeled per-flush LDBS round-trip charged by
    /// [`Database::apply_write_set`]. Benchmarks use it to measure how
    /// batching amortizes the device cost; leave at zero elsewhere.
    pub fn set_apply_latency(&self, latency: std::time::Duration) {
        *self.apply_latency.write() = latency;
    }

    /// Routes engine and WAL events to `tracer`. The shared-`Arc` pattern
    /// above (managers hold `Arc<Database>`) makes this `&self`.
    pub fn set_tracer(&self, tracer: Tracer) {
        self.inner.write().wal.set_tracer(tracer.clone());
        *self.tracer.write() = tracer;
    }

    /// Installs a seeded fault hook on the engine's labeled seams: every
    /// WAL append (the one sanctioned durable-write path) and the entry
    /// of [`Database::apply_write_set`]. Share the same hook with the
    /// managers above so one fault plan counts site arrivals across the
    /// whole stack.
    pub fn set_fault_hook(&self, hook: SharedFaultHook) {
        self.inner.write().wal.set_fault_hook(Some(hook.clone()));
        *self.fault_hook.write() = Some(hook);
    }

    /// Removes the fault hook (bootstrap and teardown phases of a chaos
    /// run must not be faulted).
    pub fn clear_fault_hook(&self) {
        self.inner.write().wal.set_fault_hook(None);
        *self.fault_hook.write() = None;
    }

    /// Creates a table with its constraints. DDL is autocommitted and
    /// WAL-logged, so it survives a crash even without a checkpoint.
    pub fn create_table(
        &self,
        schema: TableSchema,
        constraints: Vec<Constraint>,
    ) -> PstmResult<TableId> {
        let mut inner = self.inner.write();
        let id = inner.catalog.create_table(schema.clone(), constraints.clone())?;
        inner.stores.push(TableStore::new(0));
        inner.wal.append(&LogRecord::CreateTable { schema, constraints })?;
        Ok(id)
    }

    /// Creates a secondary index, backfilling it from existing rows.
    /// Autocommitted and WAL-logged like [`Database::create_table`].
    pub fn create_index(&self, table: TableId, column: usize) -> PstmResult<()> {
        let mut inner = self.inner.write();
        inner.catalog.create_index(table, column)?;
        inner.wal.append(&LogRecord::CreateIndex { table, column })?;
        let store = &mut inner.stores[table.0 as usize];
        let mut idx = BTreeIndex::new();
        for (rid, row) in store.heap.scan() {
            if let Some(v) = row.get(column) {
                idx.insert(v.clone(), rid);
            }
        }
        store.indexes.push(idx);
        Ok(())
    }

    /// Resolves a table name.
    pub fn table_id(&self, name: &str) -> PstmResult<TableId> {
        self.inner.read().catalog.table_id(name)
    }

    /// Resolves a column name within a table.
    pub fn column_index(&self, table: TableId, column: &str) -> PstmResult<usize> {
        self.inner.read().catalog.meta(table)?.schema.column_index(column)
    }

    /// Starts an engine-level transaction.
    pub fn begin(&self, txn: TxnId) -> PstmResult<()> {
        let mut inner = self.inner.write();
        if inner.active.contains_key(&txn) {
            return Err(PstmError::InvalidState { txn, action: "begin", state: "active" });
        }
        let lsn = inner.wal.append(&LogRecord::Begin { txn })?;
        inner.active.insert(txn, lsn);
        Ok(())
    }

    /// Commits an engine-level transaction. Logically-deleted rows are
    /// physically purged now — only at commit does their space become
    /// reusable.
    pub fn commit(&self, txn: TxnId) -> PstmResult<()> {
        let mut inner = self.inner.write();
        if inner.active.remove(&txn).is_none() {
            return Err(PstmError::UnknownTxn(txn));
        }
        for (table, row_id) in inner.pending_deletes.remove(&txn).unwrap_or_default() {
            inner.stores[table.0 as usize].heap.purge(row_id)?;
        }
        inner.wal.append(&LogRecord::Commit { txn })?;
        self.tracer.read().emit_unclocked(TraceEvent::EngineCommit { txn });
        Ok(())
    }

    /// Aborts an engine-level transaction, undoing its writes from the
    /// WAL's before-images (in reverse order).
    pub fn abort(&self, txn: TxnId) -> PstmResult<()> {
        let mut inner = self.inner.write();
        let begin = inner.active.remove(&txn).ok_or(PstmError::UnknownTxn(txn))?;
        let records = inner.wal.records_from(begin)?;
        for (_, rec) in records.iter().rev() {
            if rec.txn() != Some(txn) {
                continue;
            }
            match rec {
                LogRecord::Insert { table, row_id, row, .. } => {
                    let store = &mut inner.stores[table.0 as usize];
                    store.heap.delete(*row_id)?;
                    let meta_indexes: Vec<usize> = {
                        // indexes defined for this table, by column
                        inner.catalog.meta(*table)?.indexes.iter().map(|d| d.column).collect()
                    };
                    let store = &mut inner.stores[table.0 as usize];
                    for (i, col) in meta_indexes.iter().enumerate() {
                        if let Some(v) = row.get(*col) {
                            store.indexes[i].remove(v, *row_id);
                        }
                    }
                }
                LogRecord::Update { table, row_id, column, before, after, .. } => {
                    let mut row = inner.stores[table.0 as usize].heap.get(*row_id)?;
                    row.set(*column, before.clone());
                    inner.stores[table.0 as usize].heap.update(*row_id, &row)?;
                    let idx_pos = inner
                        .catalog
                        .meta(*table)?
                        .indexes
                        .iter()
                        .position(|d| d.column == *column);
                    if let Some(i) = idx_pos {
                        let store = &mut inner.stores[table.0 as usize];
                        store.indexes[i].remove(after, *row_id);
                        store.indexes[i].insert(before.clone(), *row_id);
                    }
                }
                LogRecord::Delete { table, row_id, row, .. } => {
                    // The delete was only a logical mark; the bytes and
                    // slot are still reserved.
                    inner.stores[table.0 as usize].heap.undelete(*row_id)?;
                    let cols: Vec<usize> =
                        inner.catalog.meta(*table)?.indexes.iter().map(|d| d.column).collect();
                    let store = &mut inner.stores[table.0 as usize];
                    for (i, col) in cols.iter().enumerate() {
                        if let Some(v) = row.get(*col) {
                            store.indexes[i].insert(v.clone(), *row_id);
                        }
                    }
                }
                _ => {}
            }
        }
        inner.pending_deletes.remove(&txn);
        inner.wal.append(&LogRecord::Abort { txn })?;
        self.tracer.read().emit_unclocked(TraceEvent::EngineAbort { txn });
        Ok(())
    }

    fn require_active(inner: &Inner, txn: TxnId) -> PstmResult<()> {
        if inner.active.contains_key(&txn) {
            Ok(())
        } else {
            Err(PstmError::UnknownTxn(txn))
        }
    }

    /// Inserts a row under an active transaction.
    pub fn insert(&self, txn: TxnId, table: TableId, row: Row) -> PstmResult<RowId> {
        let mut inner = self.inner.write();
        Self::require_active(&inner, txn)?;
        let meta = inner.catalog.meta(table)?;
        meta.schema.validate_row(row.values())?;
        for c in &meta.constraints {
            c.check_row(row.values())?;
        }
        let index_cols: Vec<usize> = meta.indexes.iter().map(|d| d.column).collect();
        let store = &mut inner.stores[table.0 as usize];
        let rid = store.heap.insert(&row)?;
        for (i, col) in index_cols.iter().enumerate() {
            if let Some(v) = row.get(*col) {
                store.indexes[i].insert(v.clone(), rid);
            }
        }
        inner.wal.append(&LogRecord::Insert { txn, table, row_id: rid, row })?;
        self.tracer.read().emit_unclocked(TraceEvent::EngineInsert { txn });
        Ok(rid)
    }

    /// Updates one column of a row under an active transaction.
    pub fn update(
        &self,
        txn: TxnId,
        table: TableId,
        row_id: RowId,
        column: usize,
        value: Value,
    ) -> PstmResult<()> {
        let mut inner = self.inner.write();
        Self::require_active(&inner, txn)?;
        let meta = inner.catalog.meta(table)?;
        meta.schema.validate_column(column, &value)?;
        for c in &meta.constraints {
            if c.column == column {
                c.check_value(&value)?;
            }
        }
        let idx_pos = meta.indexes.iter().position(|d| d.column == column);
        let store = &mut inner.stores[table.0 as usize];
        let mut row = store.heap.get(row_id)?;
        let before = row
            .get(column)
            .cloned()
            .ok_or_else(|| PstmError::NotFound(format!("column #{column} in {table}")))?;
        row.set(column, value.clone());
        store.heap.update(row_id, &row)?;
        if let Some(i) = idx_pos {
            store.indexes[i].remove(&before, row_id);
            store.indexes[i].insert(value.clone(), row_id);
        }
        inner.wal.append(&LogRecord::Update {
            txn,
            table,
            row_id,
            column,
            before,
            after: value,
        })?;
        self.tracer.read().emit_unclocked(TraceEvent::EngineUpdate { txn });
        Ok(())
    }

    /// Deletes a row under an active transaction.
    pub fn delete(&self, txn: TxnId, table: TableId, row_id: RowId) -> PstmResult<()> {
        let mut inner = self.inner.write();
        Self::require_active(&inner, txn)?;
        let index_cols: Vec<usize> =
            inner.catalog.meta(table)?.indexes.iter().map(|d| d.column).collect();
        let store = &mut inner.stores[table.0 as usize];
        let row = store.heap.get(row_id)?;
        // Deferred physical delete: mark now (readers no longer see the
        // row, but its space stays reserved), purge at commit, undelete
        // at abort.
        store.heap.mark_deleted(row_id)?;
        for (i, col) in index_cols.iter().enumerate() {
            if let Some(v) = row.get(*col) {
                store.indexes[i].remove(v, row_id);
            }
        }
        inner.pending_deletes.entry(txn).or_default().push((table, row_id));
        inner.wal.append(&LogRecord::Delete { txn, table, row_id, row })?;
        self.tracer.read().emit_unclocked(TraceEvent::EngineDelete { txn });
        Ok(())
    }

    /// Reads a full row (no transaction required: isolation is the
    /// managers' responsibility).
    pub fn get(&self, table: TableId, row_id: RowId) -> PstmResult<Row> {
        let inner = self.inner.read();
        inner
            .stores
            .get(table.0 as usize)
            .ok_or_else(|| PstmError::NotFound(format!("table {table}")))?
            .heap
            .get(row_id)
    }

    /// Reads one column of a row.
    pub fn get_col(&self, table: TableId, row_id: RowId, column: usize) -> PstmResult<Value> {
        let row = self.get(table, row_id)?;
        row.get(column)
            .cloned()
            .ok_or_else(|| PstmError::NotFound(format!("column #{column} in {table}")))
    }

    /// Full scan of a table.
    pub fn scan(&self, table: TableId) -> PstmResult<Vec<(RowId, Row)>> {
        let inner = self.inner.read();
        Ok(inner
            .stores
            .get(table.0 as usize)
            .ok_or_else(|| PstmError::NotFound(format!("table {table}")))?
            .heap
            .scan()
            .collect())
    }

    /// Point lookup by column value, via index when one exists, else scan.
    pub fn lookup_eq(
        &self,
        table: TableId,
        column: usize,
        value: &Value,
    ) -> PstmResult<Vec<RowId>> {
        let inner = self.inner.read();
        let meta = inner.catalog.meta(table)?;
        let store = &inner.stores[table.0 as usize];
        if let Some(i) = meta.indexes.iter().position(|d| d.column == column) {
            return Ok(store.indexes[i].get(value).to_vec());
        }
        Ok(store
            .heap
            .scan()
            .filter(|(_, row)| row.get(column) == Some(value))
            .map(|(rid, _)| rid)
            .collect())
    }

    /// Range lookup by column value via index when one exists, else scan.
    pub fn lookup_range(
        &self,
        table: TableId,
        column: usize,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> PstmResult<Vec<RowId>> {
        let inner = self.inner.read();
        let meta = inner.catalog.meta(table)?;
        let store = &inner.stores[table.0 as usize];
        if let Some(i) = meta.indexes.iter().position(|d| d.column == column) {
            return Ok(store.indexes[i].range(lo, hi).into_iter().map(|(_, r)| r).collect());
        }
        Ok(store
            .heap
            .scan()
            .filter(|(_, row)| {
                row.get(column).is_some_and(|v| crate::btree::value_in_bounds(v, lo, hi))
            })
            .map(|(rid, _)| rid)
            .collect())
    }

    /// Applies a write set as one atomic short transaction — the engine
    /// side of a Secure System Transaction. All-or-nothing: any failure
    /// (constraint violation included) rolls back every op already
    /// applied. Returns the addresses assigned to inserts, in op order.
    // pstm-lockgraph: flush-point
    pub fn apply_write_set(&self, txn: TxnId, ws: &WriteSet) -> PstmResult<Vec<RowId>> {
        // WAL appends nested under the per-op engine calls carve their
        // own WalAppend time out of this phase (exclusive accounting).
        let _phase = pstm_obs::prof::PhaseTimer::start(pstm_obs::prof::CommitPhase::SstApply);
        // The modeled device round-trip is paid before the engine locks
        // anything: flushes to different shards' rows overlap, but one
        // flush pays the trip whether it carries 1 commit or a fused 32.
        let device = *self.apply_latency.read();
        if device > std::time::Duration::ZERO {
            std::thread::sleep(device);
        }
        if let Some(hook) = self.fault_hook.read().clone() {
            match hook.decide(FaultSite::SstApply) {
                FaultDecision::Proceed => {}
                FaultDecision::Io => {
                    // Transient device error before any state is touched:
                    // the middleware's SST retry/abort machinery owns it.
                    self.tracer.read().emit_unclocked(TraceEvent::FaultInjected {
                        site: FaultSite::SstApply.label(),
                        action: "io".into(),
                    });
                    return Err(PstmError::Io("injected SST fault".into()));
                }
                FaultDecision::Crash | FaultDecision::Torn { .. } => {
                    self.tracer.read().emit_unclocked(TraceEvent::FaultInjected {
                        site: FaultSite::SstApply.label(),
                        action: "crash".into(),
                    });
                    return Err(PstmError::Crashed(FaultSite::SstApply.label()));
                }
            }
        }
        // The dominant SST shape — all single-column updates — takes the
        // batched fast path: one lock acquisition and one framed WAL
        // flush for the whole transaction instead of one per op.
        if ws.0.iter().all(|op| matches!(op, WriteOp::Update { .. })) {
            self.apply_updates_batched(txn, ws)?;
            return Ok(Vec::new());
        }
        self.begin(txn)?;
        let mut inserted = Vec::new();
        for op in &ws.0 {
            let result = match op {
                WriteOp::Insert { table, row } => {
                    self.insert(txn, *table, row.clone()).map(|rid| inserted.push(rid))
                }
                WriteOp::Update { table, row_id, column, value } => {
                    self.update(txn, *table, *row_id, *column, value.clone())
                }
                WriteOp::Delete { table, row_id } => self.delete(txn, *table, *row_id),
            };
            if let Err(e) = result {
                self.abort(txn)?;
                return Err(e);
            }
        }
        self.commit(txn)?;
        Ok(inserted)
    }

    /// All-`Update` write sets commit under a single `inner` lock: every
    /// op is validated first (schema, constraints, before-images — no
    /// state touched, so a violation leaves no WAL or heap trace), then
    /// `Begin`+`Update`s+`Commit` land as one [`Wal::append_batch`] flush,
    /// and only then does the heap mutate — mutations past validation
    /// cannot fail. A crash inside the batched flush therefore leaves the
    /// heap untouched and no `Commit` record for recovery to redo.
    fn apply_updates_batched(&self, txn: TxnId, ws: &WriteSet) -> PstmResult<()> {
        let mut guard = self.inner.write();
        let inner = &mut *guard;
        if inner.active.contains_key(&txn) {
            return Err(PstmError::InvalidState { txn, action: "begin", state: "active" });
        }
        let mut recs = Vec::with_capacity(ws.0.len() + 2);
        recs.push(LogRecord::Begin { txn });
        // (table, row_id, column, after, before, index slot)
        let mut plan: Vec<(TableId, RowId, usize, Value, Value, Option<usize>)> =
            Vec::with_capacity(ws.0.len());
        for op in &ws.0 {
            let WriteOp::Update { table, row_id, column, value } = op else {
                return Err(PstmError::internal("batched path requires all-Update sets"));
            };
            let meta = inner.catalog.meta(*table)?;
            meta.schema.validate_column(*column, value)?;
            for c in &meta.constraints {
                if c.column == *column {
                    c.check_value(value)?;
                }
            }
            let idx_pos = meta.indexes.iter().position(|d| d.column == *column);
            let row = inner.stores[table.0 as usize].heap.get(*row_id)?;
            let mut before = row
                .get(*column)
                .cloned()
                .ok_or_else(|| PstmError::NotFound(format!("column #{column} in {table}")))?;
            // Chain before-images through earlier ops of this batch, as
            // sequential application would.
            for (t, r, c, after, ..) in &plan {
                if t == table && r == row_id && c == column {
                    before = after.clone();
                }
            }
            recs.push(LogRecord::Update {
                txn,
                table: *table,
                row_id: *row_id,
                column: *column,
                before: before.clone(),
                after: value.clone(),
            });
            plan.push((*table, *row_id, *column, value.clone(), before, idx_pos));
        }
        recs.push(LogRecord::Commit { txn });
        inner.wal.append_batch(&recs)?;
        for (table, row_id, column, value, before, idx_pos) in plan {
            let store = &mut inner.stores[table.0 as usize];
            let mut row = store.heap.get(row_id)?;
            row.set(column, value.clone());
            store.heap.update(row_id, &row)?;
            if let Some(i) = idx_pos {
                store.indexes[i].remove(&before, row_id);
                store.indexes[i].insert(value, row_id);
            }
        }
        let tracer = self.tracer.read();
        for _ in &ws.0 {
            tracer.emit_unclocked(TraceEvent::EngineUpdate { txn });
        }
        tracer.emit_unclocked(TraceEvent::EngineCommit { txn });
        Ok(())
    }

    /// Quiescent checkpoint: captures heap images and truncates the WAL.
    /// Fails if any transaction is active (the image must contain only
    /// committed data for redo-only recovery to be correct).
    pub fn checkpoint(&self) -> PstmResult<()> {
        let mut inner = self.inner.write();
        if !inner.active.is_empty() {
            return Err(PstmError::internal(format!(
                "checkpoint with {} active transactions",
                inner.active.len()
            )));
        }
        let catalog_json = serde_json::to_vec(&inner.catalog)
            .map_err(|e| PstmError::internal(format!("catalog serialize: {e}")))?;
        let heaps = inner.stores.iter().map(|s| s.heap.to_bytes()).collect();
        inner.checkpoint = Some(CheckpointImage { catalog_json, heaps });
        let cp = inner.wal.append(&LogRecord::Checkpoint)?;
        inner.wal.truncate_prefix(cp)?;
        Ok(())
    }

    /// Simulates a crash (all volatile state lost) followed by recovery
    /// from the checkpoint image + WAL. Active transactions disappear;
    /// their effects are rolled back by virtue of redo-only replay of
    /// committed work.
    pub fn simulate_crash_and_recover(&self) -> PstmResult<()> {
        self.crash_with_torn_tail(0)
    }

    /// Crash simulation that additionally tears the last `torn_bytes`
    /// bytes off the WAL before recovering, emulating a write cut short
    /// by power loss.
    pub fn crash_with_torn_tail(&self, torn_bytes: usize) -> PstmResult<()> {
        let mut inner = self.inner.write();
        inner.active.clear();
        inner.pending_deletes.clear();
        if torn_bytes > 0 {
            inner.wal.crash_truncate(torn_bytes);
        }
        // Physically discard any torn tail (from the truncation above or a
        // torn-page fault injected mid-append) BEFORE recovering. Redo
        // skips the tear either way, but without the trim, post-recovery
        // appends would land behind the garbage and a second recovery
        // would stop at the tear and lose them — recovery must be
        // idempotent under double replay.
        inner.wal.trim_torn_tail();
        let (catalog, stores, stats) = crate::recovery::recover(&inner.checkpoint, &inner.wal)?;
        inner.catalog = catalog;
        inner.stores = stores;
        self.tracer.read().emit_unclocked(TraceEvent::Recovered {
            winners: stats.winners,
            records: stats.records,
        });
        Ok(())
    }

    /// Persists the database to a single file: takes a quiescent
    /// checkpoint (fails if transactions are active) and writes the
    /// catalog + heap images atomically.
    pub fn save_to(&self, path: impl AsRef<std::path::Path>) -> PstmResult<()> {
        self.checkpoint()?;
        let inner = self.inner.read();
        let cp = inner.checkpoint.as_ref().expect("checkpoint() just installed an image");
        let bytes = crate::persist::encode(&cp.catalog_json, &cp.heaps);
        crate::persist::write_atomic(path.as_ref(), &bytes)
    }

    /// Opens a database previously written by [`Database::save_to`]. The
    /// image is validated (magic, per-section checksums) and loaded
    /// through the same path crash recovery uses; indexes are rebuilt.
    pub fn open_from(path: impl AsRef<std::path::Path>) -> PstmResult<Self> {
        let bytes = crate::persist::read_all(path.as_ref())?;
        let (catalog_json, heaps) = crate::persist::decode(&bytes)?;
        let checkpoint = Some(CheckpointImage { catalog_json, heaps });
        let wal = Wal::new();
        let (catalog, stores, _stats) = crate::recovery::recover(&checkpoint, &wal)?;
        Ok(Database {
            inner: RwLock::new(Inner {
                catalog,
                stores,
                wal,
                checkpoint,
                active: HashMap::new(),
                pending_deletes: HashMap::new(),
            }),
            tracer: RwLock::new(Tracer::disabled()),
            apply_latency: RwLock::new(std::time::Duration::ZERO),
            fault_hook: RwLock::new(None),
        })
    }

    /// Snapshot of the engine counters, projected from the obs registry
    /// with the live WAL size overlaid.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let mut s = self.tracer.read().with_registry(EngineStats::from_registry);
        s.wal_bytes = self.inner.read().wal.len_bytes();
        s
    }

    /// Number of live rows in `table`.
    pub fn row_count(&self, table: TableId) -> PstmResult<usize> {
        let inner = self.inner.read();
        Ok(inner
            .stores
            .get(table.0 as usize)
            .ok_or_else(|| PstmError::NotFound(format!("table {table}")))?
            .heap
            .row_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use pstm_types::ValueKind;

    fn setup() -> (Database, TableId) {
        let db = Database::new();
        let schema = TableSchema::new(
            "Flight",
            vec![
                ColumnDef::new("id", ValueKind::Int),
                ColumnDef::new("free_tickets", ValueKind::Int),
                ColumnDef::new("price", ValueKind::Float),
            ],
        )
        .unwrap();
        let t = db
            .create_table(schema, vec![Constraint::non_negative("free_tickets >= 0", 1)])
            .unwrap();
        (db, t)
    }

    fn flight(id: i64, free: i64, price: f64) -> Row {
        Row::new(vec![Value::Int(id), Value::Int(free), Value::Float(price)])
    }

    #[test]
    fn crud_round_trip() {
        let (db, t) = setup();
        let txn = TxnId(1);
        db.begin(txn).unwrap();
        let rid = db.insert(txn, t, flight(1, 100, 59.9)).unwrap();
        db.update(txn, t, rid, 1, Value::Int(99)).unwrap();
        db.commit(txn).unwrap();
        assert_eq!(db.get_col(t, rid, 1).unwrap(), Value::Int(99));
        assert_eq!(db.row_count(t).unwrap(), 1);
    }

    #[test]
    fn constraint_rejected_on_insert_and_update() {
        let (db, t) = setup();
        let txn = TxnId(1);
        db.begin(txn).unwrap();
        assert!(matches!(
            db.insert(txn, t, flight(1, -5, 1.0)).unwrap_err(),
            PstmError::ConstraintViolation { .. }
        ));
        let rid = db.insert(txn, t, flight(1, 0, 1.0)).unwrap();
        assert!(db.update(txn, t, rid, 1, Value::Int(-1)).is_err());
        db.commit(txn).unwrap();
        assert_eq!(db.get_col(t, rid, 1).unwrap(), Value::Int(0));
    }

    #[test]
    fn abort_undoes_everything_in_reverse() {
        let (db, t) = setup();
        let setup_txn = TxnId(1);
        db.begin(setup_txn).unwrap();
        let keep = db.insert(setup_txn, t, flight(1, 10, 1.0)).unwrap();
        db.commit(setup_txn).unwrap();

        let txn = TxnId(2);
        db.begin(txn).unwrap();
        let new_rid = db.insert(txn, t, flight(2, 20, 2.0)).unwrap();
        db.update(txn, t, keep, 1, Value::Int(5)).unwrap();
        db.update(txn, t, keep, 1, Value::Int(3)).unwrap();
        db.delete(txn, t, keep).unwrap();
        db.abort(txn).unwrap();

        assert!(db.get(t, new_rid).is_err(), "inserted row rolled back");
        assert_eq!(db.get_col(t, keep, 1).unwrap(), Value::Int(10), "updates + delete undone");
        assert_eq!(db.row_count(t).unwrap(), 1);
    }

    #[test]
    fn write_set_is_atomic_under_constraint_failure() {
        let (db, t) = setup();
        let txn = TxnId(1);
        db.begin(txn).unwrap();
        let rid = db.insert(txn, t, flight(1, 1, 1.0)).unwrap();
        db.commit(txn).unwrap();

        // Second update violates free_tickets >= 0 — the first must also
        // roll back.
        let ws = WriteSet::new()
            .with(WriteOp::Update { table: t, row_id: rid, column: 2, value: Value::Float(9.0) })
            .with(WriteOp::Update { table: t, row_id: rid, column: 1, value: Value::Int(-1) });
        let err = db.apply_write_set(TxnId(2), &ws).unwrap_err();
        assert!(matches!(err, PstmError::ConstraintViolation { .. }));
        assert_eq!(db.get_col(t, rid, 2).unwrap(), Value::Float(1.0));
        // The batched all-Update path validates the whole set before
        // touching the WAL or heap: the rejection happens before any
        // engine transaction begins, so there is no abort to count and
        // no undo trail in the log.
        let stats = db.stats();
        assert_eq!(stats.aborts, 0);
    }

    #[test]
    fn indexes_serve_lookups_and_stay_consistent() {
        let (db, t) = setup();
        db.create_index(t, 1).unwrap();
        let txn = TxnId(1);
        db.begin(txn).unwrap();
        let r1 = db.insert(txn, t, flight(1, 7, 1.0)).unwrap();
        let r2 = db.insert(txn, t, flight(2, 7, 2.0)).unwrap();
        let r3 = db.insert(txn, t, flight(3, 9, 3.0)).unwrap();
        db.commit(txn).unwrap();

        let mut hits = db.lookup_eq(t, 1, &Value::Int(7)).unwrap();
        hits.sort();
        assert_eq!(hits, vec![r1, r2]);

        let txn2 = TxnId(2);
        db.begin(txn2).unwrap();
        db.update(txn2, t, r1, 1, Value::Int(9)).unwrap();
        db.delete(txn2, t, r3).unwrap();
        db.commit(txn2).unwrap();

        assert_eq!(db.lookup_eq(t, 1, &Value::Int(7)).unwrap(), vec![r2]);
        assert_eq!(db.lookup_eq(t, 1, &Value::Int(9)).unwrap(), vec![r1]);

        let range =
            db.lookup_range(t, 1, Bound::Included(&Value::Int(8)), Bound::Unbounded).unwrap();
        assert_eq!(range, vec![r1]);
    }

    #[test]
    fn index_backfills_existing_rows() {
        let (db, t) = setup();
        let txn = TxnId(1);
        db.begin(txn).unwrap();
        let rid = db.insert(txn, t, flight(1, 42, 1.0)).unwrap();
        db.commit(txn).unwrap();
        db.create_index(t, 1).unwrap();
        assert_eq!(db.lookup_eq(t, 1, &Value::Int(42)).unwrap(), vec![rid]);
    }

    #[test]
    fn lookup_without_index_scans() {
        let (db, t) = setup();
        let txn = TxnId(1);
        db.begin(txn).unwrap();
        let rid = db.insert(txn, t, flight(1, 11, 1.0)).unwrap();
        db.commit(txn).unwrap();
        assert_eq!(db.lookup_eq(t, 1, &Value::Int(11)).unwrap(), vec![rid]);
        let range = db
            .lookup_range(t, 1, Bound::Excluded(&Value::Int(10)), Bound::Excluded(&Value::Int(12)))
            .unwrap();
        assert_eq!(range, vec![rid]);
    }

    #[test]
    fn writes_require_active_transaction() {
        let (db, t) = setup();
        assert!(matches!(
            db.insert(TxnId(9), t, flight(1, 1, 1.0)).unwrap_err(),
            PstmError::UnknownTxn(_)
        ));
        assert!(db.commit(TxnId(9)).is_err());
        assert!(db.abort(TxnId(9)).is_err());
    }

    #[test]
    fn double_begin_rejected() {
        let (db, _) = setup();
        db.begin(TxnId(1)).unwrap();
        assert!(matches!(db.begin(TxnId(1)).unwrap_err(), PstmError::InvalidState { .. }));
    }

    #[test]
    fn checkpoint_requires_quiescence() {
        let (db, _) = setup();
        db.begin(TxnId(1)).unwrap();
        assert!(db.checkpoint().is_err());
        db.commit(TxnId(1)).unwrap();
        db.checkpoint().unwrap();
    }

    #[test]
    fn stats_accumulate() {
        let (db, t) = setup();
        let txn = TxnId(1);
        db.begin(txn).unwrap();
        let rid = db.insert(txn, t, flight(1, 5, 1.0)).unwrap();
        db.update(txn, t, rid, 1, Value::Int(4)).unwrap();
        db.commit(txn).unwrap();
        let s = db.stats();
        assert_eq!((s.inserts, s.updates, s.commits), (1, 1, 1));
        assert!(s.wal_bytes > 0);
    }
}
