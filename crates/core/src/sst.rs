//! Secure System Transactions.
//!
//! At global commit the GTM owns, for every resource the transaction
//! mutated, a reconciled value `X_new`. The SST is the short classical
//! transaction that writes those values to the LDBS; the paper delegates
//! consistency and durability to it. If the LDBS rejects the SST (a CHECK
//! constraint such as `FreeTickets ≥ 0` fails after reconciliation — the
//! §VII "high rate of aborts" problem), the whole global commit fails and
//! the GTM aborts the transaction.

use pstm_obs::TraceEvent;
use pstm_storage::{BindingRegistry, Database, WriteOp, WriteSet};
use pstm_types::{PstmError, PstmResult, ResourceId, TxnId, Value};

/// A prepared Secure System Transaction.
#[derive(Clone, Debug, PartialEq)]
pub struct Sst {
    /// The middleware transaction this SST commits.
    pub origin: TxnId,
    /// The reconciled values to flush, in resource order.
    pub writes: Vec<(ResourceId, Value)>,
}

/// Offset added to the origin transaction id to form the engine-level SST
/// transaction id (keeps middleware and SST ids disjoint in the WAL).
/// [`crate::gtm::Gtm::begin`] rejects middleware ids at or above this
/// base, so the addition below cannot overflow or collide. The canonical
/// definition lives on [`TxnId`] so offline forensics can invert it.
pub(crate) const SST_ID_BASE: u64 = TxnId::SST_ENGINE_BASE;

impl Sst {
    /// Builds an SST from reconciled `(resource, X_new)` pairs. Pairs are
    /// sorted by resource for deterministic WAL content.
    #[must_use]
    pub fn new(origin: TxnId, mut writes: Vec<(ResourceId, Value)>) -> Self {
        writes.sort_by_key(|(r, _)| *r);
        Sst { origin, writes }
    }

    /// The engine transaction id this SST runs under.
    #[must_use]
    pub fn engine_txn(&self) -> TxnId {
        self.origin.sst_engine()
    }

    /// Whether there is anything to write (read-only transactions produce
    /// empty SSTs that are skipped).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// Executes the SST against the LDBS as one atomic write set. CHECK
    /// constraints are enforced inside; on violation nothing is applied
    /// and the error is returned for the GTM to convert into a global
    /// abort.
    // pstm-lockgraph: flush-point
    pub fn execute(&self, db: &Database, bindings: &BindingRegistry) -> PstmResult<()> {
        apply_writes(db, bindings, self.engine_txn(), &self.writes)
    }
}

/// Applies `writes` as one atomic engine write set under `engine_txn`;
/// nothing to write is a no-op.
fn apply_writes(
    db: &Database,
    bindings: &BindingRegistry,
    engine_txn: TxnId,
    writes: &[(ResourceId, Value)],
) -> PstmResult<()> {
    if writes.is_empty() {
        return Ok(());
    }
    let mut ws = WriteSet::new();
    for (resource, value) in writes {
        let b = bindings.resolve(*resource)?;
        ws = ws.with(WriteOp::Update {
            table: b.table,
            row_id: b.row,
            column: b.column,
            value: value.clone(),
        });
    }
    db.apply_write_set(engine_txn, &ws)?;
    Ok(())
}

/// A fused SST batch: N ready commits on one shard flushed as **one**
/// engine transaction — one lock acquisition, one framed WAL flush, one
/// atomic apply — instead of N.
///
/// Members must have pairwise-disjoint write sets (enforced by
/// [`SstBatch::push`]): every member's reconciliation ran against
/// the pre-batch permanent image, so two members writing one resource
/// would silently drop the earlier member's update (a lost update).
/// Overlapping candidates cut the group instead and flush separately.
///
/// Because the fusion is a single engine transaction, a crash anywhere
/// inside it is whole-batch-or-nothing after recovery: no member's
/// frames can surface without every member's.
#[derive(Clone, Debug, PartialEq)]
pub struct SstBatch {
    /// The member whose commit leads the group (first pushed).
    pub leader: TxnId,
    /// Member SSTs in arrival order; empty members are legal (read-only
    /// transactions ride along for the group ack).
    pub members: Vec<Sst>,
}

impl SstBatch {
    /// An empty batch led by `leader`'s commit.
    #[must_use]
    pub fn new(leader: TxnId) -> Self {
        SstBatch { leader, members: Vec::new() }
    }

    /// A batch seeded with its first member, which leads the group.
    /// Unlike [`SstBatch::push`] this cannot be refused — a singleton
    /// batch has nothing to overlap with.
    #[must_use]
    pub fn of(first: Sst) -> Self {
        SstBatch { leader: first.origin, members: vec![first] }
    }

    /// Adds `sst` if its writes are disjoint from every member's, else
    /// returns it back — the caller must cut the group there.
    pub fn push(&mut self, sst: Sst) -> Result<(), Sst> {
        let overlaps = self
            .members
            .iter()
            .any(|m| m.writes.iter().any(|(r, _)| sst.writes.iter().any(|(r2, _)| r == r2)));
        if overlaps {
            return Err(sst);
        }
        self.members.push(sst);
        Ok(())
    }

    /// Number of member commits in the group.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the batch has no members at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The engine transaction id the fused flush runs under.
    #[must_use]
    pub fn engine_txn(&self) -> TxnId {
        self.leader.batch_engine()
    }

    /// Executes every member's writes as one atomic write set. Disjoint
    /// members make the fused order irrelevant; writes are re-sorted by
    /// resource across the whole group for deterministic WAL content.
    /// On any error (constraint violation, injected fault) nothing is
    /// applied for *any* member.
    // pstm-lockgraph: flush-point
    pub fn execute(&self, db: &Database, bindings: &BindingRegistry) -> PstmResult<()> {
        let mut writes: Vec<(ResourceId, Value)> =
            self.members.iter().flat_map(|m| m.writes.iter().cloned()).collect();
        writes.sort_by_key(|(r, _)| *r);
        apply_writes(db, bindings, self.engine_txn(), &writes)
    }
}

/// What one flush sends to the engine.
#[derive(Clone, Copy, Debug)]
pub enum Flush<'a> {
    /// One SST under its own engine id ([`Sst::engine_txn`]): the
    /// unbatched and cross-shard commits, and per-member reflushes.
    Solo(&'a Sst),
    /// A fused batch under its leader's batch id
    /// ([`SstBatch::engine_txn`]): every group-commit wave, singletons
    /// included.
    Fused(&'a SstBatch),
}

/// The one SST flush every commit route runs — Algorithm 4's global
/// commit between [`crate::gtm::Gtm::prepare`] and
/// [`crate::gtm::Gtm::settle`]. Executes `unit`, retrying transient I/O
/// failures up to `retries` times; any other outcome is final.
///
/// Everything the flush has to say goes through `report`, in order: one
/// `SstAttempt` per member (plus one `GroupCommit` for a fused batch),
/// one `SstRetry` before each retry, and on success one `SstApplied` per
/// member with writes. The retry back-off belongs to the caller: `report`
/// pays it when handed an `SstRetry` — a wall-clock pause in the
/// front-end, a virtual-time charge in the GTM and the chaos harness.
///
/// `injected` fails the first attempt without reaching the engine (a
/// fault seam's transient I/O just before the SST); retries still run.
/// Callers must hold no shard lock: this pays the device round-trip.
pub fn flush_sst(
    unit: Flush<'_>,
    db: &Database,
    bindings: &BindingRegistry,
    retries: u32,
    injected: Option<PstmError>,
    mut report: impl FnMut(TraceEvent),
) -> PstmResult<()> {
    let (members, leader) = match unit {
        Flush::Solo(sst) => (std::slice::from_ref(sst), sst.origin),
        Flush::Fused(batch) => (batch.members.as_slice(), batch.leader),
    };
    for m in members {
        report(TraceEvent::SstAttempt { txn: m.origin, writes: m.writes.len() as u32 });
    }
    if let Flush::Fused(batch) = unit {
        report(TraceEvent::GroupCommit { leader, members: batch.len() as u32 });
    }
    let execute = || match unit {
        Flush::Solo(sst) => sst.execute(db, bindings),
        Flush::Fused(batch) => batch.execute(db, bindings),
    };
    let mut result = match injected {
        Some(e) => Err(e),
        None => execute(),
    };
    let mut attempts = 0;
    while attempts < retries && matches!(result, Err(PstmError::Io(_))) {
        attempts += 1;
        report(TraceEvent::SstRetry { txn: leader, attempt: attempts });
        result = execute();
    }
    if result.is_ok() {
        for m in members.iter().filter(|m| !m.is_empty()) {
            report(TraceEvent::SstApplied { txn: m.origin });
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstm_storage::{ColumnDef, Constraint, Row, TableSchema};
    use pstm_types::{MemberId, PstmError, ValueKind};
    use std::sync::Arc;

    fn setup() -> (Arc<Database>, BindingRegistry, Vec<ResourceId>) {
        let db = Arc::new(Database::new());
        let schema = TableSchema::new(
            "Car",
            vec![ColumnDef::new("id", ValueKind::Int), ColumnDef::new("free", ValueKind::Int)],
        )
        .unwrap();
        let table = db.create_table(schema, vec![Constraint::non_negative("free>=0", 1)]).unwrap();
        let boot = TxnId(999);
        db.begin(boot).unwrap();
        let mut bindings = BindingRegistry::new();
        let mut rs = Vec::new();
        for i in 0..2 {
            let row =
                db.insert(boot, table, Row::new(vec![Value::Int(i), Value::Int(10)])).unwrap();
            let o = bindings.bind_object(table, row, &[(MemberId::ATOMIC, 1)]).unwrap();
            rs.push(ResourceId::atomic(o));
        }
        db.commit(boot).unwrap();
        (db, bindings, rs)
    }

    #[test]
    fn sst_flushes_reconciled_values() {
        let (db, bindings, rs) = setup();
        let sst = Sst::new(TxnId(1), vec![(rs[0], Value::Int(9)), (rs[1], Value::Int(8))]);
        sst.execute(&db, &bindings).unwrap();
        let b0 = bindings.resolve(rs[0]).unwrap();
        let b1 = bindings.resolve(rs[1]).unwrap();
        assert_eq!(db.get_col(b0.table, b0.row, b0.column).unwrap(), Value::Int(9));
        assert_eq!(db.get_col(b1.table, b1.row, b1.column).unwrap(), Value::Int(8));
    }

    #[test]
    fn constraint_violation_applies_nothing() {
        let (db, bindings, rs) = setup();
        let sst = Sst::new(TxnId(1), vec![(rs[0], Value::Int(5)), (rs[1], Value::Int(-1))]);
        let err = sst.execute(&db, &bindings).unwrap_err();
        assert!(matches!(err, PstmError::ConstraintViolation { .. }));
        let b0 = bindings.resolve(rs[0]).unwrap();
        assert_eq!(db.get_col(b0.table, b0.row, b0.column).unwrap(), Value::Int(10), "atomic");
    }

    #[test]
    fn empty_sst_is_a_noop() {
        let (db, bindings, _) = setup();
        let sst = Sst::new(TxnId(7), vec![]);
        assert!(sst.is_empty());
        sst.execute(&db, &bindings).unwrap();
        assert_eq!(db.stats().commits, 1, "only the bootstrap commit");
    }

    #[test]
    fn engine_ids_are_disjoint_from_middleware_ids() {
        let sst = Sst::new(TxnId(42), vec![]);
        assert_ne!(sst.engine_txn(), TxnId(42));
        assert!(sst.engine_txn().0 > (1 << 48));
    }

    #[test]
    fn writes_are_sorted_for_determinism() {
        let (_, _, rs) = setup();
        let sst = Sst::new(TxnId(1), vec![(rs[1], Value::Int(1)), (rs[0], Value::Int(2))]);
        assert!(sst.writes[0].0 < sst.writes[1].0);
    }

    #[test]
    fn batch_fuses_disjoint_members_into_one_apply() {
        let (db, bindings, rs) = setup();
        let commits_before = db.stats().commits;
        let mut batch = SstBatch::new(TxnId(1));
        batch.push(Sst::new(TxnId(1), vec![(rs[0], Value::Int(7))])).unwrap();
        batch.push(Sst::new(TxnId(2), vec![(rs[1], Value::Int(6))])).unwrap();
        assert_eq!(batch.len(), 2);
        batch.execute(&db, &bindings).unwrap();
        let b0 = bindings.resolve(rs[0]).unwrap();
        let b1 = bindings.resolve(rs[1]).unwrap();
        assert_eq!(db.get_col(b0.table, b0.row, b0.column).unwrap(), Value::Int(7));
        assert_eq!(db.get_col(b1.table, b1.row, b1.column).unwrap(), Value::Int(6));
        assert_eq!(db.stats().commits, commits_before + 1, "one engine commit for the group");
    }

    #[test]
    fn batch_rejects_overlapping_members() {
        let (_, _, rs) = setup();
        let mut batch = SstBatch::new(TxnId(1));
        batch.push(Sst::new(TxnId(1), vec![(rs[0], Value::Int(7))])).unwrap();
        let rejected = batch
            .push(Sst::new(TxnId(2), vec![(rs[0], Value::Int(5)), (rs[1], Value::Int(4))]))
            .unwrap_err();
        assert_eq!(rejected.origin, TxnId(2), "the overlapping SST comes back whole");
        assert_eq!(batch.len(), 1);
        // A disjoint member still fits after the rejection.
        batch.push(Sst::new(TxnId(3), vec![(rs[1], Value::Int(3))])).unwrap();
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn batch_constraint_violation_applies_nothing_for_any_member() {
        let (db, bindings, rs) = setup();
        let mut batch = SstBatch::new(TxnId(1));
        batch.push(Sst::new(TxnId(1), vec![(rs[0], Value::Int(5))])).unwrap();
        batch.push(Sst::new(TxnId(2), vec![(rs[1], Value::Int(-1))])).unwrap();
        let err = batch.execute(&db, &bindings).unwrap_err();
        assert!(matches!(err, PstmError::ConstraintViolation { .. }));
        let b0 = bindings.resolve(rs[0]).unwrap();
        assert_eq!(
            db.get_col(b0.table, b0.row, b0.column).unwrap(),
            Value::Int(10),
            "the innocent member's write must not survive a fused failure"
        );
    }

    #[test]
    fn batch_engine_ids_are_disjoint_from_sst_and_middleware_ids() {
        let mut batch = SstBatch::new(TxnId(42));
        batch.push(Sst::new(TxnId(42), vec![])).unwrap();
        assert!(batch.engine_txn().0 >= TxnId::SST_BATCH_ENGINE_BASE);
        assert_ne!(batch.engine_txn(), Sst::new(TxnId(42), vec![]).engine_txn());
        let empty = SstBatch::new(TxnId(9));
        assert!(empty.is_empty());
    }
}
