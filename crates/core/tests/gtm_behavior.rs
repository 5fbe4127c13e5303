//! Behavioural tests of the GTM against the paper's Algorithms 1–11,
//! Table II, and the §VII extensions.

use pstm_core::gtm::{AwakeResult, CommitResult, Gtm, GtmConfig};
use pstm_core::policy::{AdmissionPolicy, StarvationPolicy};
use pstm_core::TxnState;
use pstm_storage::{BindingRegistry, ColumnDef, Constraint, Database, Row, TableSchema};
use pstm_types::{
    AbortReason, CompatMatrix, ExecOutcome, FailSstApplies, MemberId, PstmError, ResourceId,
    ScalarOp, Timestamp, TxnId, Value, ValueKind,
};
use std::sync::Arc;

fn t(i: u64) -> TxnId {
    TxnId(i)
}

fn ts(secs: f64) -> Timestamp {
    Timestamp::from_secs_f64(secs)
}

const T0: Timestamp = Timestamp(0);

/// `n` atomic objects with value 100 and a `>= 0` CHECK, plus one
/// two-member object (quantity, price) for member-granularity tests.
fn setup(n: usize, config: GtmConfig) -> (Gtm, Vec<ResourceId>) {
    let db = Arc::new(Database::new());
    let schema = TableSchema::new(
        "Flight",
        vec![
            ColumnDef::new("id", ValueKind::Int),
            ColumnDef::new("free", ValueKind::Int),
            ColumnDef::new("price", ValueKind::Float),
        ],
    )
    .unwrap();
    let table = db.create_table(schema, vec![Constraint::non_negative("free >= 0", 1)]).unwrap();
    let boot = TxnId(1 << 40);
    db.begin(boot).unwrap();
    let mut bindings = BindingRegistry::new();
    let mut resources = Vec::new();
    for i in 0..n {
        let row = db
            .insert(
                boot,
                table,
                Row::new(vec![Value::Int(i as i64), Value::Int(100), Value::Float(50.0)]),
            )
            .unwrap();
        let obj = bindings.bind_object(table, row, &[(MemberId(0), 1), (MemberId(1), 2)]).unwrap();
        resources.push(ResourceId::new(obj, MemberId(0)));
    }
    db.commit(boot).unwrap();
    (Gtm::new(db, bindings, config), resources)
}

fn price_member(r: ResourceId) -> ResourceId {
    ResourceId::new(r.object, MemberId(1))
}

fn completed(out: &ExecOutcome) -> &Value {
    match out {
        ExecOutcome::Completed(v) => v,
        other => panic!("expected Completed, got {other:?}"),
    }
}

#[test]
fn table_two_reconciliation_trace() {
    // The paper's Table II, executed end to end through the GTM.
    let (mut gtm, res) = setup(1, GtmConfig::default());
    let x = res[0];
    gtm.begin(t(1), T0).unwrap(); // A
    gtm.begin(t(2), T0).unwrap(); // B

    // A: read X (class addsub via later strengthening is avoided — the
    // paper folds read-for-update into the update class; we issue the
    // additive ops directly).
    let (o, _) = gtm.execute(t(1), x, ScalarOp::Add(Value::Int(1)), T0).unwrap();
    assert_eq!(completed(&o), &Value::Int(101));
    let (o, _) = gtm.execute(t(2), x, ScalarOp::Add(Value::Int(2)), T0).unwrap();
    assert_eq!(completed(&o), &Value::Int(102), "B shares the member concurrently");
    let (o, _) = gtm.execute(t(1), x, ScalarOp::Add(Value::Int(3)), T0).unwrap();
    assert_eq!(completed(&o), &Value::Int(104), "A_temp accumulates privately");

    // A commits: X_new^A = 104 + 100 - 100 = 104.
    let (r, _) = gtm.commit(t(1), ts(1.0)).unwrap();
    assert_eq!(r, CommitResult::Committed);
    let b = gtm.bindings().resolve(x).unwrap();
    assert_eq!(gtm.database().get_col(b.table, b.row, b.column).unwrap(), Value::Int(104));

    // B commits: X_new^B = 102 + 104 - 100 = 106.
    let (r, _) = gtm.commit(t(2), ts(2.0)).unwrap();
    assert_eq!(r, CommitResult::Committed);
    assert_eq!(gtm.database().get_col(b.table, b.row, b.column).unwrap(), Value::Int(106));

    gtm.verify_serializable().unwrap();
    assert_eq!(gtm.stats().shared_grants, 1);
    assert_eq!(gtm.stats().reconciliations, 2);
}

#[test]
fn incompatible_classes_queue() {
    let (mut gtm, res) = setup(1, GtmConfig::default());
    gtm.begin(t(1), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    // An assignment conflicts with the pending additive holder.
    let (o, _) = gtm.execute(t(2), res[0], ScalarOp::Assign(Value::Int(0)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Waiting);
    assert_eq!(gtm.state(t(2)), Some(TxnState::Waiting));

    // t1's commit unlocks the resource and grants t2's assignment.
    let (r, fx) = gtm.commit(t(1), ts(1.0)).unwrap();
    assert_eq!(r, CommitResult::Committed);
    assert_eq!(fx.resumed, vec![(t(2), Value::Int(0))]);
    assert_eq!(gtm.state(t(2)), Some(TxnState::Active));
    let (r, _) = gtm.commit(t(2), ts(2.0)).unwrap();
    assert_eq!(r, CommitResult::Committed);
    gtm.verify_serializable().unwrap();
}

#[test]
fn reads_share_with_updates() {
    let (mut gtm, res) = setup(1, GtmConfig::default());
    gtm.begin(t(1), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(5)), T0).unwrap();
    let (o, _) = gtm.execute(t(2), res[0], ScalarOp::Read, T0).unwrap();
    // The reader sees the committed value, not t1's virtual copy.
    assert_eq!(completed(&o), &Value::Int(100));
    gtm.commit(t(2), T0).unwrap();
    gtm.commit(t(1), T0).unwrap();
    gtm.verify_serializable().unwrap();
}

#[test]
fn different_members_never_conflict() {
    // The "logical dependence" relaxation: quantity and price of the same
    // object are distinct members, hence compatible.
    let (mut gtm, res) = setup(1, GtmConfig::default());
    gtm.begin(t(1), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    let (o, _) =
        gtm.execute(t(2), price_member(res[0]), ScalarOp::Assign(Value::Float(42.0)), T0).unwrap();
    assert!(matches!(o, ExecOutcome::Completed(_)), "other member, no conflict");
    gtm.commit(t(1), T0).unwrap();
    gtm.commit(t(2), T0).unwrap();
    gtm.verify_serializable().unwrap();
}

#[test]
fn read_then_book_strengthening() {
    // §II: select free tickets, then book one.
    let (mut gtm, res) = setup(1, GtmConfig::default());
    gtm.begin(t(1), T0).unwrap();
    let (o, _) = gtm.execute(t(1), res[0], ScalarOp::Read, T0).unwrap();
    assert_eq!(completed(&o), &Value::Int(100));
    let (o, _) = gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    assert_eq!(completed(&o), &Value::Int(99));
    let (r, _) = gtm.commit(t(1), T0).unwrap();
    assert_eq!(r, CommitResult::Committed);
    gtm.verify_serializable().unwrap();
}

#[test]
fn two_readers_both_strengthen_without_deadlock() {
    // Under 2PL this is the classic upgrade deadlock. Under the GTM the
    // additive strengthenings are mutually compatible: both proceed.
    let (mut gtm, res) = setup(1, GtmConfig::default());
    gtm.begin(t(1), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Read, T0).unwrap();
    gtm.execute(t(2), res[0], ScalarOp::Read, T0).unwrap();
    let (o1, _) = gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    let (o2, _) = gtm.execute(t(2), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    assert!(matches!(o1, ExecOutcome::Completed(_)));
    assert!(matches!(o2, ExecOutcome::Completed(_)));
    gtm.commit(t(1), T0).unwrap();
    gtm.commit(t(2), T0).unwrap();
    let b = gtm.bindings().resolve(res[0]).unwrap();
    assert_eq!(gtm.database().get_col(b.table, b.row, b.column).unwrap(), Value::Int(98));
    gtm.verify_serializable().unwrap();
    assert_eq!(gtm.stats().aborted_deadlock, 0);
}

#[test]
fn sleeping_holder_is_bypassed_and_aborted_on_awake() {
    // The centrepiece: a disconnected transaction does not block
    // incompatible work; it pays at awake time.
    let (mut gtm, res) = setup(1, GtmConfig::default());
    gtm.begin(t(1), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    gtm.sleep(t(1), ts(1.0)).unwrap();

    // The incompatible assignment bypasses the sleeper (Algorithm 2
    // excludes X_sleeping from the conflict set).
    let (o, _) = gtm.execute(t(2), res[0], ScalarOp::Assign(Value::Int(500)), ts(2.0)).unwrap();
    assert!(matches!(o, ExecOutcome::Completed(_)));
    assert_eq!(gtm.stats().bypassed_sleepers, 1);
    let (r, _) = gtm.commit(t(2), ts(3.0)).unwrap();
    assert_eq!(r, CommitResult::Committed);

    // The sleeper wakes to find an incompatible commit with
    // X_tc > A_t_sleep: aborted (Algorithm 9, third branch).
    let (aw, _) = gtm.awake(t(1), ts(4.0)).unwrap();
    assert_eq!(aw, AwakeResult::Aborted);
    assert_eq!(gtm.state(t(1)), Some(TxnState::Aborted));
    assert_eq!(gtm.stats().aborted_sleep_conflict, 1);
    let b = gtm.bindings().resolve(res[0]).unwrap();
    assert_eq!(gtm.database().get_col(b.table, b.row, b.column).unwrap(), Value::Int(500));
    gtm.verify_serializable().unwrap();
}

#[test]
fn sleeper_with_only_compatible_activity_resumes() {
    let (mut gtm, res) = setup(1, GtmConfig::default());
    gtm.begin(t(1), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    gtm.sleep(t(1), ts(1.0)).unwrap();

    // A *compatible* additive transaction commits during the sleep.
    gtm.execute(t(2), res[0], ScalarOp::Sub(Value::Int(2)), ts(2.0)).unwrap();
    gtm.commit(t(2), ts(3.0)).unwrap();

    let (aw, _) = gtm.awake(t(1), ts(4.0)).unwrap();
    assert_eq!(aw, AwakeResult::Resumed(None));
    assert_eq!(gtm.state(t(1)), Some(TxnState::Active));
    let (r, _) = gtm.commit(t(1), ts(5.0)).unwrap();
    assert_eq!(r, CommitResult::Committed);
    // 100 - 2 (t2) - 1 (t1, reconciled) = 97.
    let b = gtm.bindings().resolve(res[0]).unwrap();
    assert_eq!(gtm.database().get_col(b.table, b.row, b.column).unwrap(), Value::Int(97));
    gtm.verify_serializable().unwrap();
}

#[test]
fn sleeping_waiter_granted_on_awake_with_fresh_snapshot() {
    // Algorithm 9, first branch: A ∈ X_waiting and no conflicts →
    // waiting → pending with X_read = A_temp = X_permanent.
    let (mut gtm, res) = setup(1, GtmConfig::default());
    gtm.begin(t(1), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Assign(Value::Int(50)), T0).unwrap();
    let (o, _) = gtm.execute(t(2), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Waiting);
    gtm.sleep(t(2), ts(1.0)).unwrap();

    // The blocker commits; the sleeping waiter must NOT be promoted
    // (Algorithm 11 skips X_sleeping).
    let (_, fx) = gtm.commit(t(1), ts(2.0)).unwrap();
    assert!(fx.resumed.is_empty(), "sleeping waiters stay queued");

    // Wait: the assignment committed at ts(2.0) > t_sleep = ts(1.0) and
    // assign conflicts with addsub — so by Algorithm 9 the waiter aborts.
    let (aw, _) = gtm.awake(t(2), ts(3.0)).unwrap();
    assert_eq!(aw, AwakeResult::Aborted);

    // Variant where the sleep began *after* the incompatible commit: the
    // waiter survives and is granted on awake against the fresh value.
    let (mut gtm, res) = setup(1, GtmConfig::default());
    gtm.begin(t(1), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Assign(Value::Int(50)), T0).unwrap();
    let (o, _) = gtm.execute(t(2), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Waiting);
    let (_, fx) = gtm.commit(t(1), ts(1.0)).unwrap();
    // Not sleeping: promoted straight away against X_permanent = 50.
    assert_eq!(fx.resumed, vec![(t(2), Value::Int(49))]);
    gtm.commit(t(2), ts(2.0)).unwrap();
    let b = gtm.bindings().resolve(res[0]).unwrap();
    assert_eq!(gtm.database().get_col(b.table, b.row, b.column).unwrap(), Value::Int(49));
    gtm.verify_serializable().unwrap();
}

#[test]
fn sleep_unblocks_queued_incompatible_waiter() {
    let (mut gtm, res) = setup(1, GtmConfig::default());
    gtm.begin(t(1), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    let (o, _) = gtm.execute(t(2), res[0], ScalarOp::Assign(Value::Int(7)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Waiting);
    // t1 disconnects: its grant stops blocking; t2 is promoted.
    let fx = gtm.sleep(t(1), ts(1.0)).unwrap();
    assert_eq!(fx.resumed, vec![(t(2), Value::Int(7))]);
    gtm.commit(t(2), ts(2.0)).unwrap();
    // t1 wakes into a conflict and dies.
    let (aw, _) = gtm.awake(t(1), ts(3.0)).unwrap();
    assert_eq!(aw, AwakeResult::Aborted);
    gtm.verify_serializable().unwrap();
}

#[test]
fn abort_discards_virtual_work() {
    let (mut gtm, res) = setup(1, GtmConfig::default());
    gtm.begin(t(1), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(40)), T0).unwrap();
    let fx = gtm.abort(t(1), T0).unwrap();
    assert_eq!(fx.aborted, vec![(t(1), AbortReason::User)]);
    let b = gtm.bindings().resolve(res[0]).unwrap();
    assert_eq!(gtm.database().get_col(b.table, b.row, b.column).unwrap(), Value::Int(100));
    assert_eq!(gtm.database().stats().aborts, 0, "nothing ever reached the engine");
}

#[test]
fn constraint_violation_at_sst_aborts_globally() {
    // Two concurrent unit bookings on a 1-seat flight: both reconcile,
    // the second SST violates free >= 0 and the transaction aborts —
    // the §VII problem.
    let (mut gtm, res) = setup(1, GtmConfig::default());
    // Drain the flight to 1 seat first.
    gtm.begin(t(1), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(99)), T0).unwrap();
    gtm.commit(t(1), T0).unwrap();

    gtm.begin(t(2), T0).unwrap();
    gtm.begin(t(3), T0).unwrap();
    gtm.execute(t(2), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    gtm.execute(t(3), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    let (r2, _) = gtm.commit(t(2), ts(1.0)).unwrap();
    assert_eq!(r2, CommitResult::Committed);
    let (r3, _) = gtm.commit(t(3), ts(2.0)).unwrap();
    assert_eq!(r3, CommitResult::Aborted(AbortReason::Constraint));
    assert_eq!(gtm.stats().aborted_constraint, 1);
    let b = gtm.bindings().resolve(res[0]).unwrap();
    assert_eq!(gtm.database().get_col(b.table, b.row, b.column).unwrap(), Value::Int(0));
    gtm.verify_serializable().unwrap();
}

#[test]
fn admission_control_prevents_constraint_aborts() {
    // Same scenario with the §VII admission extension: the second booking
    // waits instead of aborting at commit.
    let config = GtmConfig { admission: Some(AdmissionPolicy::per_unit()), ..GtmConfig::default() };
    let (mut gtm, res) = setup(1, config);
    gtm.begin(t(1), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(99)), T0).unwrap();
    gtm.commit(t(1), T0).unwrap();

    gtm.begin(t(2), T0).unwrap();
    gtm.begin(t(3), T0).unwrap();
    let (o2, _) = gtm.execute(t(2), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    assert!(matches!(o2, ExecOutcome::Completed(_)));
    // Value is 1, one additive holder admitted — the next must wait.
    let (o3, _) = gtm.execute(t(3), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    assert_eq!(o3, ExecOutcome::Waiting);
    assert_eq!(gtm.stats().admission_denials, 1);

    let (r2, fx) = gtm.commit(t(2), ts(1.0)).unwrap();
    assert_eq!(r2, CommitResult::Committed);
    // After t2's commit the value is 0: t3 stays queued (admission still
    // denies), it does NOT abort.
    assert!(fx.resumed.is_empty());
    assert_eq!(gtm.state(t(3)), Some(TxnState::Waiting));
    assert_eq!(gtm.stats().aborted_constraint, 0);

    // An admin restock unblocks it.
    gtm.begin(t(4), ts(2.0)).unwrap();
    gtm.execute(t(4), res[0], ScalarOp::Assign(Value::Int(10)), ts(2.0)).unwrap();
    let (_, fx) = gtm.commit(t(4), ts(3.0)).unwrap();
    assert_eq!(fx.resumed, vec![(t(3), Value::Int(9))]);
    gtm.commit(t(3), ts(4.0)).unwrap();
    gtm.verify_serializable().unwrap();
}

#[test]
fn starvation_policy_denies_compatible_stream() {
    let config = GtmConfig {
        starvation: Some(StarvationPolicy { deny_threshold: 1 }),
        ..GtmConfig::default()
    };
    let (mut gtm, res) = setup(1, config);
    gtm.begin(t(1), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    gtm.begin(t(3), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    // t2's assignment queues (incompatible with t1).
    let (o, _) = gtm.execute(t(2), res[0], ScalarOp::Assign(Value::Int(5)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Waiting);
    // Without the policy t3's subtraction would join t1. With it, the
    // queued incompatible waiter blocks new compatible grants.
    let (o, _) = gtm.execute(t(3), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Waiting);
    assert_eq!(gtm.stats().starvation_denials, 1);

    // Drain: t1 commits → t2 (front, incompatible with nobody now) gets
    // in; t3 remains behind t2.
    let (_, fx) = gtm.commit(t(1), ts(1.0)).unwrap();
    assert_eq!(fx.resumed.len(), 1);
    assert_eq!(fx.resumed[0].0, t(2));
    let (_, fx) = gtm.commit(t(2), ts(2.0)).unwrap();
    assert_eq!(fx.resumed.len(), 1);
    assert_eq!(fx.resumed[0].0, t(3));
    gtm.commit(t(3), ts(3.0)).unwrap();
    gtm.verify_serializable().unwrap();
}

#[test]
fn read_write_only_matrix_degenerates_to_locking() {
    // Ablation configuration: no semantic sharing.
    let config = GtmConfig { compat: CompatMatrix::read_write_only(), ..GtmConfig::default() };
    let (mut gtm, res) = setup(1, config);
    gtm.begin(t(1), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    let (o, _) = gtm.execute(t(2), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Waiting, "no additive sharing under the strict matrix");
    let (_, fx) = gtm.commit(t(1), ts(1.0)).unwrap();
    assert_eq!(fx.resumed.len(), 1);
    gtm.commit(t(2), ts(2.0)).unwrap();
    gtm.verify_serializable().unwrap();
}

#[test]
fn well_formedness_guards() {
    let (mut gtm, res) = setup(1, GtmConfig::default());
    gtm.begin(t(1), T0).unwrap();
    assert!(gtm.begin(t(1), T0).is_err(), "double begin");
    assert!(gtm.awake(t(1), T0).is_err(), "awake while active");
    assert!(gtm.commit(t(99), T0).is_err(), "unknown txn");

    // Mixing incompatible mutation classes on one member is rejected.
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    assert!(matches!(
        gtm.execute(t(1), res[0], ScalarOp::Assign(Value::Int(1)), T0).unwrap_err(),
        PstmError::InvalidState { .. }
    ));
    // Reads under a held mutation class are fine (and see the virtual
    // copy).
    let (o, _) = gtm.execute(t(1), res[0], ScalarOp::Read, T0).unwrap();
    assert_eq!(completed(&o), &Value::Int(99));

    // No events after commit.
    gtm.commit(t(1), T0).unwrap();
    assert!(gtm.execute(t(1), res[0], ScalarOp::Read, T0).is_err());
    assert!(gtm.commit(t(1), T0).is_err());
    assert!(gtm.sleep(t(1), T0).is_err());
    assert!(gtm.abort(t(1), T0).is_err());
}

#[test]
fn waiting_txn_cannot_issue_more_invocations() {
    let (mut gtm, res) = setup(2, GtmConfig::default());
    gtm.begin(t(1), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Assign(Value::Int(1)), T0).unwrap();
    let (o, _) = gtm.execute(t(2), res[0], ScalarOp::Assign(Value::Int(2)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Waiting);
    assert!(gtm.execute(t(2), res[1], ScalarOp::Read, T0).is_err());
    // And cannot commit while waiting (§IV constraint iii).
    assert!(gtm.commit(t(2), T0).is_err());
}

#[test]
fn cross_resource_deadlock_detected() {
    // Two assignments each holding one resource, each wanting the other's.
    let (mut gtm, res) = setup(2, GtmConfig::default());
    gtm.begin(t(1), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Assign(Value::Int(1)), T0).unwrap();
    gtm.execute(t(2), res[1], ScalarOp::Assign(Value::Int(2)), T0).unwrap();
    let (o, _) = gtm.execute(t(1), res[1], ScalarOp::Assign(Value::Int(3)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Waiting);
    // t2's request closes the cycle; the youngest (t2) dies and t1's
    // stashed op completes.
    let (o, fx) = gtm.execute(t(2), res[0], ScalarOp::Assign(Value::Int(4)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Aborted(AbortReason::Deadlock));
    assert_eq!(fx.resumed, vec![(t(1), Value::Int(3))]);
    assert_eq!(gtm.stats().aborted_deadlock, 1);
    gtm.commit(t(1), T0).unwrap();
    gtm.verify_serializable().unwrap();
}

#[test]
fn multi_resource_commit_is_atomic_in_one_sst() {
    let (mut gtm, res) = setup(3, GtmConfig::default());
    gtm.begin(t(1), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    gtm.execute(t(1), res[1], ScalarOp::Sub(Value::Int(2)), T0).unwrap();
    gtm.execute(t(1), res[2], ScalarOp::Sub(Value::Int(3)), T0).unwrap();
    let commits_before = gtm.database().stats().commits;
    gtm.commit(t(1), T0).unwrap();
    assert_eq!(gtm.database().stats().commits, commits_before + 1, "one engine txn");
    for (i, r) in res.iter().enumerate() {
        let b = gtm.bindings().resolve(*r).unwrap();
        assert_eq!(
            gtm.database().get_col(b.table, b.row, b.column).unwrap(),
            Value::Int(100 - (i as i64 + 1))
        );
    }
    gtm.verify_serializable().unwrap();
    assert_eq!(gtm.stats().ssts_executed, 1);
}

#[test]
fn read_only_transaction_commits_without_sst() {
    let (mut gtm, res) = setup(1, GtmConfig::default());
    gtm.begin(t(1), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Read, T0).unwrap();
    let (r, _) = gtm.commit(t(1), T0).unwrap();
    assert_eq!(r, CommitResult::Committed);
    assert_eq!(gtm.stats().ssts_executed, 0);
    assert_eq!(gtm.stats().reconciliations, 0);
    gtm.verify_serializable().unwrap();
}

#[test]
fn wait_timeout_aborts_stale_waiters() {
    let config = GtmConfig {
        wait_timeout: Some(pstm_types::Duration::from_secs_f64(5.0)),
        ..GtmConfig::default()
    };
    let (mut gtm, res) = setup(1, config);
    gtm.begin(t(1), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Assign(Value::Int(1)), T0).unwrap();
    gtm.execute(t(2), res[0], ScalarOp::Assign(Value::Int(2)), T0).unwrap();
    assert!(gtm.tick(ts(3.0)).unwrap().is_empty());
    let fx = gtm.tick(ts(6.0)).unwrap();
    assert_eq!(fx.aborted, vec![(t(2), AbortReason::LockTimeout)]);
    assert_eq!(gtm.stats().aborted_wait_timeout, 1);
}

#[test]
fn many_concurrent_bookers_reconcile_exactly() {
    // 30 unit bookings interleaved, committed in reverse order: the final
    // value must be exactly 100 - 30 regardless.
    let (mut gtm, res) = setup(1, GtmConfig::default());
    for i in 1..=30u64 {
        gtm.begin(t(i), T0).unwrap();
        let (o, _) = gtm.execute(t(i), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
        assert!(matches!(o, ExecOutcome::Completed(_)));
    }
    for i in (1..=30u64).rev() {
        let (r, _) = gtm.commit(t(i), ts(i as f64)).unwrap();
        assert_eq!(r, CommitResult::Committed);
    }
    let b = gtm.bindings().resolve(res[0]).unwrap();
    assert_eq!(gtm.database().get_col(b.table, b.row, b.column).unwrap(), Value::Int(70));
    gtm.verify_serializable().unwrap();
    assert_eq!(gtm.stats().shared_grants, 29);
}

#[test]
fn multiplicative_class_shares_and_reconciles() {
    let (mut gtm, res) = setup(1, GtmConfig::default());
    let price = price_member(res[0]); // Float 50.0
    gtm.begin(t(1), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    gtm.execute(t(1), price, ScalarOp::Mul(Value::Float(2.0)), T0).unwrap();
    let (o, _) = gtm.execute(t(2), price, ScalarOp::Mul(Value::Float(1.5)), T0).unwrap();
    assert!(matches!(o, ExecOutcome::Completed(_)));
    gtm.commit(t(1), T0).unwrap();
    gtm.commit(t(2), T0).unwrap();
    let b = gtm.bindings().resolve(price).unwrap();
    let v = gtm.database().get_col(b.table, b.row, b.column).unwrap().as_f64().unwrap();
    assert!((v - 150.0).abs() < 1e-9, "50 · 2 · 1.5 = 150, got {v}");
    gtm.verify_serializable().unwrap();
}

#[test]
fn logical_dependence_makes_members_conflict() {
    // Declare quantity (member 0) and price (member 1) of object 0
    // logically dependent: an assignment to price now conflicts with an
    // additive update of quantity — the paper's §IV example.
    let (gtm_plain, res) = setup(1, GtmConfig::default());
    drop(gtm_plain);
    let (gtm, _) = setup(1, GtmConfig::default());
    let mut dep = pstm_core::DependenceMap::new();
    dep.declare_dependent(&[res[0], price_member(res[0])]).unwrap();
    let mut gtm = gtm.with_dependence(dep);

    gtm.begin(t(1), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    // Without the declaration this completes (different members); with it
    // the assignment must queue.
    let (o, _) =
        gtm.execute(t(2), price_member(res[0]), ScalarOp::Assign(Value::Float(9.0)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Waiting, "dependent members conflict");

    let (_, fx) = gtm.commit(t(1), ts(1.0)).unwrap();
    assert_eq!(fx.resumed.len(), 1, "release of quantity unblocks the price assign");
    gtm.commit(t(2), ts(2.0)).unwrap();
    gtm.verify_serializable().unwrap();
}

#[test]
fn logical_dependence_kills_sleeper_across_members() {
    let (gtm, res) = setup(1, GtmConfig::default());
    let mut dep = pstm_core::DependenceMap::new();
    dep.declare_dependent(&[res[0], price_member(res[0])]).unwrap();
    let mut gtm = gtm.with_dependence(dep);

    gtm.begin(t(1), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    gtm.sleep(t(1), ts(1.0)).unwrap();

    // An assignment to the *dependent* price member bypasses the sleeper
    // and commits...
    gtm.begin(t(2), ts(2.0)).unwrap();
    let (o, _) = gtm
        .execute(t(2), price_member(res[0]), ScalarOp::Assign(Value::Float(1.0)), ts(2.0))
        .unwrap();
    assert!(matches!(o, ExecOutcome::Completed(_)));
    gtm.commit(t(2), ts(3.0)).unwrap();

    // ... so the sleeper is aborted on awakening, even though its own
    // member was never touched.
    let (aw, _) = gtm.awake(t(1), ts(4.0)).unwrap();
    assert_eq!(aw, AwakeResult::Aborted);
    gtm.verify_serializable().unwrap();
}

#[test]
fn independent_members_still_share_without_declaration() {
    // Control: the same schedule with no dependence map commits both.
    let (mut gtm, res) = setup(1, GtmConfig::default());
    gtm.begin(t(1), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    let (o, _) =
        gtm.execute(t(2), price_member(res[0]), ScalarOp::Assign(Value::Float(9.0)), T0).unwrap();
    assert!(matches!(o, ExecOutcome::Completed(_)));
    gtm.commit(t(1), ts(1.0)).unwrap();
    gtm.commit(t(2), ts(2.0)).unwrap();
    gtm.verify_serializable().unwrap();
}

#[test]
fn sst_transient_failure_is_retried() {
    // §VII open problem: SST failure recovery. One injected transient
    // fault, one retry allowed — the commit succeeds on the second
    // attempt.
    let config = GtmConfig { sst_retries: 2, ..GtmConfig::default() };
    let (mut gtm, res) = setup(1, config);
    gtm.begin(t(1), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    gtm.database().set_fault_hook(FailSstApplies::first(1));
    let (r, _) = gtm.commit(t(1), ts(1.0)).unwrap();
    assert_eq!(r, CommitResult::Committed);
    assert_eq!(gtm.stats().sst_retries, 1);
    let b = gtm.bindings().resolve(res[0]).unwrap();
    assert_eq!(gtm.database().get_col(b.table, b.row, b.column).unwrap(), Value::Int(99));
    gtm.verify_serializable().unwrap();
}

#[test]
fn sst_persistent_failure_aborts_with_clean_state() {
    // More faults than retries: the transaction aborts with SstFailure,
    // the database is untouched, and waiters behind it are released.
    let config = GtmConfig { sst_retries: 1, ..GtmConfig::default() };
    let (mut gtm, res) = setup(1, config);
    gtm.begin(t(1), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Assign(Value::Int(7)), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    let (o, _) = gtm.execute(t(2), res[0], ScalarOp::Assign(Value::Int(8)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Waiting);

    gtm.database().set_fault_hook(FailSstApplies::first(10));
    let (r, fx) = gtm.commit(t(1), ts(1.0)).unwrap();
    assert_eq!(r, CommitResult::Aborted(AbortReason::SstFailure));
    assert_eq!(gtm.stats().sst_retries, 1);
    assert_eq!(gtm.stats().aborted_sst_failure, 1);
    assert_eq!(gtm.state(t(1)), Some(TxnState::Aborted));
    // The waiter got the resource despite the failed committer.
    assert_eq!(fx.resumed.len(), 1);
    assert_eq!(fx.resumed[0].0, t(2));
    // Database untouched by the failed SST.
    let b = gtm.bindings().resolve(res[0]).unwrap();
    assert_eq!(gtm.database().get_col(b.table, b.row, b.column).unwrap(), Value::Int(100));
    // Faults remain injected, so end t2's schedule with a user abort.
    gtm.abort(t(2), ts(2.0)).unwrap();
    gtm.verify_serializable().unwrap();
}

#[test]
fn paper_default_sst_failure_is_immediately_fatal() {
    // sst_retries = 0 reproduces the paper's assumption: any SST failure
    // aborts the transaction without retry.
    let (mut gtm, res) = setup(1, GtmConfig::default());
    gtm.begin(t(1), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    gtm.database().set_fault_hook(FailSstApplies::first(1));
    let (r, _) = gtm.commit(t(1), ts(1.0)).unwrap();
    assert_eq!(r, CommitResult::Aborted(AbortReason::SstFailure));
    assert_eq!(gtm.stats().sst_retries, 0);
}

#[test]
fn admission_never_denies_restocking_additions() {
    // Review regression: a sold-out resource (value 0) must not deny the
    // addition that would replenish it — only decrementing ops are
    // value-bounded.
    let config = GtmConfig { admission: Some(AdmissionPolicy::per_unit()), ..GtmConfig::default() };
    let (mut gtm, res) = setup(1, config);
    // Drain to zero.
    gtm.begin(t(1), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(100)), T0).unwrap();
    gtm.commit(t(1), T0).unwrap();

    // A restock addition on the empty resource is admitted immediately.
    gtm.begin(t(2), ts(1.0)).unwrap();
    let (o, _) = gtm.execute(t(2), res[0], ScalarOp::Add(Value::Int(50)), ts(1.0)).unwrap();
    assert!(matches!(o, ExecOutcome::Completed(_)), "restock must not be denied: {o:?}");
    gtm.commit(t(2), ts(2.0)).unwrap();
    let b = gtm.bindings().resolve(res[0]).unwrap();
    assert_eq!(gtm.database().get_col(b.table, b.row, b.column).unwrap(), Value::Int(50));
    // A subtraction is again value-bounded (50 admits up to 50 holders).
    gtm.begin(t(3), ts(3.0)).unwrap();
    let (o, _) = gtm.execute(t(3), res[0], ScalarOp::Sub(Value::Int(1)), ts(3.0)).unwrap();
    assert!(matches!(o, ExecOutcome::Completed(_)));
    gtm.commit(t(3), ts(4.0)).unwrap();
    gtm.verify_serializable().unwrap();
}

#[test]
fn reserved_id_space_rejected_at_begin() {
    let (mut gtm, _) = setup(1, GtmConfig::default());
    assert!(gtm.begin(TxnId(1 << 48), T0).is_err());
    assert!(gtm.begin(TxnId(u64::MAX), T0).is_err());
    gtm.begin(TxnId((1 << 48) - 1), T0).unwrap();
}

#[test]
fn next_wake_deadline_tracks_oldest_waiter() {
    // The reactor front-end schedules its shard-tick timer off this
    // deadline instead of polling; it must track the *oldest* queued
    // waiter and clear once the queue drains.
    let config = GtmConfig {
        wait_timeout: Some(pstm_types::Duration::from_secs_f64(5.0)),
        ..GtmConfig::default()
    };
    let (mut gtm, res) = setup(1, config);
    assert_eq!(gtm.next_wake_deadline(), None, "no waiters, no deadline");
    assert!(!gtm.has_waiters());

    gtm.begin(t(1), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    gtm.begin(t(3), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Assign(Value::Int(1)), T0).unwrap();
    gtm.execute(t(2), res[0], ScalarOp::Assign(Value::Int(2)), ts(1.0)).unwrap();
    gtm.execute(t(3), res[0], ScalarOp::Assign(Value::Int(3)), ts(2.0)).unwrap();
    assert!(gtm.has_waiters());
    // Two waiters queued at t=1s and t=2s under a 5s timeout: the next
    // scheduled wake belongs to the older one.
    assert_eq!(gtm.next_wake_deadline(), Some(ts(6.0)));

    // The older waiter expires; the deadline advances to the younger.
    let fx = gtm.tick(ts(6.0)).unwrap();
    assert_eq!(fx.aborted, vec![(t(2), AbortReason::LockTimeout)]);
    assert_eq!(gtm.next_wake_deadline(), Some(ts(7.0)));

    // The holder commits, the survivor is promoted: queue empty again.
    gtm.commit(t(1), ts(6.5)).unwrap();
    assert!(!gtm.has_waiters());
    assert_eq!(gtm.next_wake_deadline(), None);
}

#[test]
fn next_wake_deadline_none_without_timeout() {
    // With timeouts disabled a queued waiter has no deadline — the
    // event-driven caller still ticks on its coarse cadence for deadlock
    // detection, but nothing here forces a wakeup.
    let config = GtmConfig { wait_timeout: None, ..GtmConfig::default() };
    let (mut gtm, res) = setup(1, config);
    gtm.begin(t(1), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Assign(Value::Int(1)), T0).unwrap();
    gtm.execute(t(2), res[0], ScalarOp::Assign(Value::Int(2)), T0).unwrap();
    assert!(gtm.has_waiters());
    assert_eq!(gtm.next_wake_deadline(), None);
}
