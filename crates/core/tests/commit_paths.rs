//! Commit-path coverage: the eq. 2 exactness regression, the
//! prepare → flush → settle protocol every coordinator drives, and
//! failure-path bookkeeping (mid-loop reconciliation errors, cross-shard
//! unwinds, admission headroom after SST aborts).

use pstm_core::gtm::{CommitResult, Gtm, GtmConfig, Outcome};
use pstm_core::policy::AdmissionPolicy;
use pstm_core::sst::{flush_sst, Flush, Sst, SstBatch};
use pstm_core::TxnState;
use pstm_obs::TraceEvent;
use pstm_storage::{BindingRegistry, ColumnDef, Constraint, Database, Row, TableSchema};
use pstm_types::{
    AbortReason, Duration, ExecOutcome, MemberId, PstmError, ResourceId, ScalarOp, Timestamp,
    TxnId, Value, ValueKind,
};
use std::sync::Arc;

fn t(i: u64) -> TxnId {
    TxnId(i)
}

fn ts(secs: f64) -> Timestamp {
    Timestamp::from_secs_f64(secs)
}

const T0: Timestamp = Timestamp(0);

/// `n` atomic Int counters with the given initial value and a `>= 0`
/// CHECK — the booking-counter shape of the paper's evaluation.
fn setup(n: usize, initial: i64, config: GtmConfig) -> (Gtm, Vec<ResourceId>) {
    let db = Arc::new(Database::new());
    let schema = TableSchema::new(
        "Counter",
        vec![ColumnDef::new("id", ValueKind::Int), ColumnDef::new("value", ValueKind::Int)],
    )
    .unwrap();
    let table = db.create_table(schema, vec![Constraint::non_negative("value >= 0", 1)]).unwrap();
    let boot = TxnId(1 << 40);
    db.begin(boot).unwrap();
    let mut bindings = BindingRegistry::new();
    let mut resources = Vec::new();
    for i in 0..n {
        let row = db
            .insert(boot, table, Row::new(vec![Value::Int(i as i64), Value::Int(initial)]))
            .unwrap();
        let obj = bindings.bind_object(table, row, &[(MemberId::ATOMIC, 1)]).unwrap();
        resources.push(ResourceId::atomic(obj));
    }
    db.commit(boot).unwrap();
    (Gtm::new(db, bindings, config), resources)
}

fn value_of(gtm: &Gtm, r: ResourceId) -> Value {
    let b = gtm.bindings().resolve(r).unwrap();
    gtm.database().get_col(b.table, b.row, b.column).unwrap()
}

/// One flush of `unit` with no retries.
fn flush_once(gtm: &Gtm, unit: Flush<'_>) -> Result<(), PstmError> {
    flush_sst(unit, gtm.database(), gtm.bindings(), 0, None, |_| {})
}

/// The group-commit station on a virtual clock, built from the three
/// commit steps: prepare the remaining members, flush the fused batch
/// (each retry charging `delay`), settle, reflush solo whatever a
/// constraint violation hands back, and repeat for the deferred. Returns
/// every member's fate and the total retry charge.
fn commit_group(
    gtm: &mut Gtm,
    txns: &[TxnId],
    now: Timestamp,
    retries: u32,
    delay: Duration,
) -> (Vec<(TxnId, CommitResult)>, Duration) {
    let mut results = Vec::new();
    let mut at = now;
    let mut remaining = txns.to_vec();
    while !remaining.is_empty() {
        let prepared = gtm.prepare(&remaining, at).unwrap();
        results.extend(prepared.settled);
        remaining = prepared.deferred;
        let Some(batch) = prepared.batch else { break };
        let flushed =
            flush_sst(Flush::Fused(&batch), gtm.database(), gtm.bindings(), retries, None, |e| {
                if matches!(e, TraceEvent::SstRetry { .. }) {
                    at += delay;
                }
            });
        let settled = gtm.settle(batch, Outcome::Flushed(flushed), at).unwrap();
        results.extend(settled.settled);
        for sst in settled.reflush {
            let solo = flush_once(gtm, Flush::Solo(&sst));
            results
                .extend(gtm.settle(SstBatch::of(sst), Outcome::Flushed(solo), at).unwrap().settled);
        }
    }
    (results, at.since(now))
}

#[test]
fn eq2_with_inexact_ratio_commits_exactly_into_int_column() {
    // Regression (eq. 2 type drift): A halves X while a compatible ×3
    // committed in between. The intermediate ratio 50/100 is inexact, so
    // the old ratio-first evaluation produced Float(150.0) — which the
    // Int column rejected at SST time, turning a perfectly consistent
    // commit into a spurious failure. Eq. 2 evaluated in the rational
    // domain yields Int(150) and the commit succeeds.
    let (mut gtm, res) = setup(1, 100, GtmConfig::default());
    let x = res[0];

    gtm.begin(t(1), T0).unwrap(); // A: ÷2
    gtm.begin(t(2), T0).unwrap(); // B: ×3
    let (o, _) = gtm.execute(t(1), x, ScalarOp::Div(Value::Int(2)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Completed(Value::Int(50)));
    let (o, _) = gtm.execute(t(2), x, ScalarOp::Mul(Value::Int(3)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Completed(Value::Int(300)), "mul/div shares the member");

    let (r, _) = gtm.commit(t(2), ts(1.0)).unwrap();
    assert_eq!(r, CommitResult::Committed);
    assert_eq!(value_of(&gtm, x), Value::Int(300));

    // A's reconciliation: 50 · 300 / 100 = 150, exactly.
    let (r, _) = gtm.commit(t(1), ts(2.0)).unwrap();
    assert_eq!(r, CommitResult::Committed, "inexact ratio must not poison an exact result");
    assert_eq!(value_of(&gtm, x), Value::Int(150));
    gtm.verify_serializable().unwrap();
    gtm.check_invariants().unwrap();
}

#[test]
fn truly_inexact_eq2_result_aborts_as_constraint_not_hard_error() {
    // When the reconciled value genuinely cannot be represented in the
    // column (5 · 300 / 2 is exact, but 5 / 2 of an odd permanent isn't
    // always), the commit must abort the transaction — never surface a
    // type error to the caller as a scheduler failure.
    let (mut gtm, res) = setup(1, 5, GtmConfig::default());
    let x = res[0];
    gtm.begin(t(1), T0).unwrap(); // A: ÷2 → temp 2.5 is float already
    gtm.begin(t(2), T0).unwrap(); // B: ×3
    let (o, _) = gtm.execute(t(1), x, ScalarOp::Div(Value::Int(2)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Completed(Value::Float(2.5)));
    let (o, _) = gtm.execute(t(2), x, ScalarOp::Mul(Value::Int(3)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Completed(Value::Int(15)));
    let (r, _) = gtm.commit(t(2), ts(1.0)).unwrap();
    assert_eq!(r, CommitResult::Committed);

    // A reconciles to 2.5 · 15 / 5 = Float(7.5): not admissible in an
    // Int column, so the SST rejects it — a Constraint abort, cleanly.
    let (r, _) = gtm.commit(t(1), ts(2.0)).unwrap();
    assert_eq!(r, CommitResult::Aborted(AbortReason::Constraint));
    assert_eq!(gtm.state(t(1)), Some(TxnState::Aborted));
    assert_eq!(value_of(&gtm, x), Value::Int(15), "failed commit left the LDBS untouched");
    gtm.check_invariants().unwrap();
}

#[test]
fn phased_prepare_flush_settle_round_trip() {
    // The coordinated path: prepare parks the txn in Committing and
    // hands back its writes; the coordinator runs the SST itself; settle
    // completes bookkeeping and promotions.
    let (mut gtm, res) = setup(1, 100, GtmConfig::default());
    gtm.begin(t(1), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();

    let prepared = gtm.prepare(&[t(1)], ts(1.0)).unwrap();
    assert!(prepared.settled.is_empty() && prepared.deferred.is_empty());
    let batch = prepared.batch.expect("one parked member");
    assert_eq!(batch.members[0].writes, vec![(res[0], Value::Int(99))]);
    assert_eq!(gtm.state(t(1)), Some(TxnState::Committing));

    // While parked, a second prepare is impossible.
    assert!(matches!(
        gtm.prepare(&[t(1)], ts(1.0)),
        Err(PstmError::InvalidState { action: "commit", .. })
    ));

    let sst = Sst::new(t(1), batch.members[0].writes.clone());
    flush_once(&gtm, Flush::Solo(&sst)).unwrap();
    let settled = gtm.settle(batch, Outcome::Flushed(Ok(())), ts(1.0)).unwrap();
    assert_eq!(settled.settled, vec![(t(1), CommitResult::Committed)]);
    assert!(settled.reflush.is_empty());
    assert!(settled.effects.is_empty());
    assert_eq!(gtm.state(t(1)), Some(TxnState::Committed));
    assert_eq!(value_of(&gtm, res[0]), Value::Int(99));
    gtm.verify_serializable().unwrap();
    gtm.check_invariants().unwrap();
}

#[test]
fn phased_settle_failure_releases_and_promotes() {
    // A parked transaction whose coordinator's SST failed must release
    // its resources to waiters when settle aborts it.
    let (mut gtm, res) = setup(1, 100, GtmConfig::default());
    gtm.begin(t(1), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Assign(Value::Int(7)), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    let (o, _) = gtm.execute(t(2), res[0], ScalarOp::Assign(Value::Int(8)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Waiting);

    let batch = gtm.prepare(&[t(1)], ts(1.0)).unwrap().batch.expect("parked");
    let io = Outcome::Flushed(Err(PstmError::Io("device gone".into())));
    let settled = gtm.settle(batch, io.clone(), ts(1.0)).unwrap();
    assert_eq!(settled.settled, vec![(t(1), CommitResult::Aborted(AbortReason::SstFailure))]);
    let fx = settled.effects;
    assert_eq!(gtm.state(t(1)), Some(TxnState::Aborted));
    assert!(!fx.aborted.iter().any(|(x, _)| *x == t(1)), "own fate is not a side effect");
    assert_eq!(fx.resumed.len(), 1, "the waiter takes over the released resource");
    assert_eq!(fx.resumed[0].0, t(2));
    assert_eq!(value_of(&gtm, res[0]), Value::Int(100), "nothing reached the LDBS");
    gtm.check_invariants().unwrap();

    // Settling a transaction outside the Committing window is an
    // invalid state.
    let stray = SstBatch::of(Sst::new(t(2), vec![]));
    assert!(matches!(
        gtm.settle(stray, io, ts(2.0)),
        Err(PstmError::InvalidState { action: "commit-abort", .. })
    ));
}

#[test]
fn one_member_batch_constraint_violation_aborts_without_reflush() {
    // A one-member batch's violator is known: settle aborts it with
    // Constraint on the spot instead of handing it back for a solo
    // reflush.
    let (mut gtm, res) = setup(1, 100, GtmConfig::default());
    gtm.begin(t(1), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(150)), T0).unwrap();

    let batch = gtm.prepare(&[t(1)], ts(1.0)).unwrap().batch.expect("parked");
    assert_eq!(batch.len(), 1);
    let flushed = flush_once(&gtm, Flush::Fused(&batch));
    assert!(matches!(flushed, Err(PstmError::ConstraintViolation { .. })));
    let settled = gtm.settle(batch, Outcome::Flushed(flushed), ts(1.0)).unwrap();
    assert!(settled.reflush.is_empty(), "no reflush for a known violator");
    assert_eq!(settled.settled, vec![(t(1), CommitResult::Aborted(AbortReason::Constraint))]);
    assert_eq!(gtm.state(t(1)), Some(TxnState::Aborted));
    assert_eq!(value_of(&gtm, res[0]), Value::Int(100));
    gtm.check_invariants().unwrap();
}

#[test]
fn cross_shard_prepare_failure_unwinds_the_parked_shard() {
    // Two shards over one database, as in the sharded front-end. T1
    // spans both; shard B's prepare overflows, so shard A — already
    // parked — must unwind with the same reason, releasing its waiter,
    // and no resource on either shard may keep T1 in `committing`.
    let (mut a, res) = setup(2, 100, GtmConfig::default());
    let mut b = Gtm::new(a.database().clone(), a.bindings().clone(), GtmConfig::default());
    let (r0, r1) = (res[0], res[1]);
    a.begin(t(1), T0).unwrap();
    b.begin(t(1), T0).unwrap();
    a.execute(t(1), r0, ScalarOp::Add(Value::Int(5)), T0).unwrap();
    b.execute(t(1), r1, ScalarOp::Add(Value::Int(i64::MAX - 200)), T0).unwrap();
    // T2 moves r1's permanent value so T1's reconciliation overflows.
    b.begin(t(2), T0).unwrap();
    b.execute(t(2), r1, ScalarOp::Add(Value::Int(200)), T0).unwrap();
    assert_eq!(b.commit(t(2), ts(1.0)).unwrap().0, CommitResult::Committed);
    // T3 waits on r0 behind T1.
    a.begin(t(3), T0).unwrap();
    let (o, _) = a.execute(t(3), r0, ScalarOp::Assign(Value::Int(1)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Waiting);

    let now = ts(2.0);
    let parked = a.prepare(&[t(1)], now).unwrap().batch.expect("shard A parks T1");
    let failed = b.prepare(&[t(1)], now).unwrap();
    assert!(failed.batch.is_none());
    let reason = failed.abort_reason().expect("shard B aborted T1");
    assert_eq!(reason, AbortReason::Constraint);

    let unwound = a.settle(parked, Outcome::Unwound(reason), now).unwrap();
    assert_eq!(unwound.settled, vec![(t(1), CommitResult::Aborted(reason))]);
    assert_eq!(unwound.effects.resumed.len(), 1, "the waiter on shard A is freed");
    assert_eq!(unwound.effects.resumed[0].0, t(3));
    for (gtm, r) in [(&a, r0), (&b, r1)] {
        assert_eq!(gtm.state(t(1)), Some(TxnState::Aborted));
        let rs = gtm.resource_state(r).expect("touched");
        assert!(rs.committing.is_empty(), "{r:?} stranded in committing: {:?}", rs.committing);
        gtm.check_invariants().unwrap();
    }
    assert_eq!(value_of(&a, r0), Value::Int(100), "nothing of T1 reached the LDBS");
    assert_eq!(value_of(&a, r1), Value::Int(300));
}

#[test]
fn midloop_reconciliation_error_strands_no_resource() {
    // A touches two resources; the first reconciles fine, the second
    // overflows (a compatible committer moved the permanent value so the
    // eq. 1 sum exceeds i64). The whole commit must unwind: no resource
    // left with the txn in pending/committing, waiters resumed, and the
    // cross-structure invariants intact.
    let (mut gtm, res) = setup(2, 100, GtmConfig::default());
    let (r0, r1) = (res[0], res[1]);

    gtm.begin(t(1), T0).unwrap();
    gtm.execute(t(1), r0, ScalarOp::Add(Value::Int(5)), T0).unwrap();
    gtm.execute(t(1), r1, ScalarOp::Add(Value::Int(i64::MAX - 200)), T0).unwrap();

    // B moves r1's permanent value up so A's reconciliation overflows.
    gtm.begin(t(2), T0).unwrap();
    gtm.execute(t(2), r1, ScalarOp::Add(Value::Int(200)), T0).unwrap();
    let (r, _) = gtm.commit(t(2), ts(1.0)).unwrap();
    assert_eq!(r, CommitResult::Committed);

    // C waits on r0 behind A (incompatible class) — it must be resumed
    // once A's failed commit releases r0.
    gtm.begin(t(3), T0).unwrap();
    let (o, _) = gtm.execute(t(3), r0, ScalarOp::Assign(Value::Int(1)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Waiting);

    // A's commit: r0 reconciles (105 + 100 − 100), then r1 overflows
    // mid-loop. The paper's Algorithm 3 has no partial-commit state — the
    // transaction dies and every resource is released.
    let (r, fx) = gtm.commit(t(1), ts(2.0)).unwrap();
    assert_eq!(r, CommitResult::Aborted(AbortReason::Constraint));
    assert_eq!(gtm.state(t(1)), Some(TxnState::Aborted));
    assert_eq!(value_of(&gtm, r0), Value::Int(100), "r0's reconciled write must not survive");
    assert_eq!(value_of(&gtm, r1), Value::Int(300), "only B's commit is durable");
    assert_eq!(fx.resumed.len(), 1, "the waiter on the *first* resource is freed too");
    assert_eq!(fx.resumed[0].0, t(3));
    gtm.check_invariants().unwrap();
    gtm.verify_serializable().unwrap();
}

#[test]
fn group_commit_fuses_disjoint_members_and_all_land() {
    // Three bookings on three distinct counters commit as one group: one
    // fused SST applies all writes, every member finishes Committed, and
    // the LDBS shows each member's effect exactly once.
    let (mut gtm, res) = setup(3, 100, GtmConfig::default());
    for (i, r) in res.iter().enumerate() {
        let txn = t(i as u64 + 1);
        gtm.begin(txn, T0).unwrap();
        gtm.execute(txn, *r, ScalarOp::Sub(Value::Int(i as i64 + 1)), T0).unwrap();
    }

    let (results, busy) = commit_group(&mut gtm, &[t(1), t(2), t(3)], ts(1.0), 0, Duration(0));
    assert_eq!(results.len(), 3);
    for (txn, r) in &results {
        assert_eq!(*r, CommitResult::Committed, "{txn:?}");
    }
    assert_eq!(busy, Duration(0), "no retries, no busy charge");
    for (i, r) in res.iter().enumerate() {
        assert_eq!(value_of(&gtm, *r), Value::Int(100 - (i as i64 + 1)));
    }
    gtm.verify_serializable().unwrap();
    gtm.check_invariants().unwrap();
}

#[test]
fn group_commit_overlap_cuts_before_reconciliation_and_loses_no_update() {
    // Two compatible subtractors share one counter. Their write sets
    // overlap, so they must NOT fuse: the second may only reconcile after
    // the first's SST applied, or its write would be computed against the
    // stale permanent value and clobber the first's booking.
    let (mut gtm, res) = setup(1, 100, GtmConfig::default());
    let x = res[0];
    gtm.begin(t(1), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    gtm.execute(t(1), x, ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    gtm.execute(t(2), x, ScalarOp::Sub(Value::Int(2)), T0).unwrap();

    let (results, _) = commit_group(&mut gtm, &[t(1), t(2)], ts(1.0), 0, Duration(0));
    assert_eq!(results.len(), 2);
    for (txn, r) in &results {
        assert_eq!(*r, CommitResult::Committed, "{txn:?}");
    }
    // 100 − 1 − 2: both bookings durable — the lost-update sentinel.
    assert_eq!(value_of(&gtm, x), Value::Int(97));
    gtm.verify_serializable().unwrap();
    gtm.check_invariants().unwrap();
}

#[test]
fn group_commit_constraint_violator_aborts_alone() {
    // One member's reconciled value violates the CHECK; the fused flush
    // is rejected atomically, then the per-member fallback settles each
    // member individually — innocents commit, only the violator aborts.
    let (mut gtm, res) = setup(2, 100, GtmConfig::default());
    gtm.begin(t(1), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    gtm.execute(t(2), res[1], ScalarOp::Sub(Value::Int(150)), T0).unwrap();

    let (results, _) = commit_group(&mut gtm, &[t(1), t(2)], ts(1.0), 0, Duration(0));
    let fate = |txn: TxnId| results.iter().find(|(x, _)| *x == txn).unwrap().1.clone();
    assert_eq!(fate(t(1)), CommitResult::Committed, "innocent member lands");
    assert_eq!(fate(t(2)), CommitResult::Aborted(AbortReason::Constraint));
    assert_eq!(value_of(&gtm, res[0]), Value::Int(99));
    assert_eq!(value_of(&gtm, res[1]), Value::Int(100), "violator left no trace");
    gtm.verify_serializable().unwrap();
    gtm.check_invariants().unwrap();
}

#[test]
fn group_commit_retry_delay_is_charged_once_per_batch_attempt() {
    // A transient I/O failure on the fused flush charges sst_retry_delay
    // once per *batch* retry — not once per member. With 2 members and a
    // persistent I/O fault exhausting `sst_retries` retries, the busy
    // charge is exactly retries × delay (the unbatched path would pay
    // that per member).
    use pstm_faults::{FaultInjector, FaultPlan};
    let config = GtmConfig {
        sst_retries: 3,
        sst_retry_delay: Duration::from_secs_f64(0.010),
        ..GtmConfig::default()
    };
    let (mut gtm, res) = setup(2, 100, config);
    gtm.begin(t(1), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    gtm.execute(t(2), res[1], ScalarOp::Sub(Value::Int(2)), T0).unwrap();

    // Every sst-apply arrival fails with I/O (ppm = 1_000_000).
    let injector = Arc::new(FaultInjector::new(FaultPlan::new(7).io_on_sst_apply_each(1_000_000)));
    gtm.database().set_fault_hook(Arc::clone(&injector) as _);

    let (results, busy) =
        commit_group(&mut gtm, &[t(1), t(2)], ts(1.0), config.sst_retries, config.sst_retry_delay);
    assert_eq!(results.len(), 2);
    for (txn, r) in &results {
        assert_eq!(*r, CommitResult::Aborted(AbortReason::SstFailure), "{txn:?}");
    }
    let expected = Duration(config.sst_retry_delay.0 * u64::from(config.sst_retries));
    assert_eq!(
        busy, expected,
        "one busy charge per batch attempt, not per member (got {busy:?}, want {expected:?})"
    );
    gtm.database().clear_fault_hook();
    gtm.check_invariants().unwrap();
}

#[test]
fn sst_constraint_abort_restores_admission_headroom() {
    // Admission bounds concurrent subtractors by the resource value; a
    // holder whose SST is rejected by the CHECK must *give back* its
    // admission slot, or the denied waiter would starve on a free
    // resource.
    let config = GtmConfig {
        admission: Some(AdmissionPolicy { unit: 1, max_holders: 1 }),
        ..GtmConfig::default()
    };
    let (mut gtm, res) = setup(1, 100, config);
    let x = res[0];

    // A takes the only admission slot and will violate `value >= 0`.
    gtm.begin(t(1), T0).unwrap();
    let (o, _) = gtm.execute(t(1), x, ScalarOp::Sub(Value::Int(150)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Completed(Value::Int(-50)), "virtual copies are unchecked");

    // B is admission-denied while A holds the slot.
    gtm.begin(t(2), T0).unwrap();
    let (o, _) = gtm.execute(t(2), x, ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Waiting);
    assert_eq!(gtm.stats().admission_denials, 1);

    // A's SST violates the CHECK → Constraint abort → B admitted.
    let (r, fx) = gtm.commit(t(1), ts(1.0)).unwrap();
    assert_eq!(r, CommitResult::Aborted(AbortReason::Constraint));
    assert_eq!(fx.resumed.len(), 1, "headroom returned to the waiter");
    assert_eq!(fx.resumed[0].0, t(2));
    assert_eq!(fx.resumed[0].1, Value::Int(99));
    gtm.check_invariants().unwrap();

    // And B can now commit its booking.
    let (r, _) = gtm.commit(t(2), ts(2.0)).unwrap();
    assert_eq!(r, CommitResult::Committed);
    assert_eq!(value_of(&gtm, x), Value::Int(99));
    gtm.verify_serializable().unwrap();
}
