//! The Global Transaction Manager — Algorithms 1–11 of the paper.
//!
//! Event surface (mirrors the 2PL baseline so the simulator can drive
//! either):
//!
//! | paper event                | method        |
//! |----------------------------|---------------|
//! | `⟨begin, A⟩` (Alg 1)       | [`Gtm::begin`] |
//! | `⟨op, X, A⟩` (Alg 2)       | [`Gtm::execute`] |
//! | `⟨commit, X, A⟩`+`⟨commit, A⟩` (Algs 3–4) | [`Gtm::commit`] = [`Gtm::prepare`] → [`crate::sst::flush_sst`] → [`Gtm::settle`] |
//! | `⟨abort, X, A⟩`+`⟨abort, A⟩` (Algs 5–6)   | [`Gtm::abort`] |
//! | `⟨sleep, X, A⟩`+`⟨sleep, A⟩` (Algs 7–8)   | [`Gtm::sleep`] |
//! | `⟨awake, X, A⟩`+`⟨awake, A⟩` (Algs 9–10)  | [`Gtm::awake`] |
//! | `⟨unlock, X⟩` (Alg 11)     | internal promotion after removals |
//!
//! Two deliberate generalisations of Algorithm 11, both noted in
//! DESIGN.md: promotion runs after *every* removal from a resource's
//! pending/committing sets (not only when pending empties — strictly more
//! responsive, a superset of the paper's unlock); and promotion scans the
//! queue in FIFO order but *skips over* entries it cannot grant, matching
//! Algorithm 2's policy of granting compatible newcomers regardless of
//! queued incompatible work (the starvation this admits is exactly the
//! §VII problem the [`StarvationPolicy`] extension addresses).

use crate::dependence::DependenceMap;
use crate::history::HistoryRecorder;
use crate::policy::{AdmissionPolicy, StarvationPolicy};
use crate::reconcile::reconcile;
use crate::sst::{flush_sst, Flush, Sst, SstBatch};
use crate::state::{ResourceState, TxnRecord, TxnState, WaitEntry};
use pstm_lock::WaitsForGraph;
use pstm_obs::prof::{self, CommitPhase};
use pstm_obs::{AbortOrigin, Ctr, MetricsRegistry, TraceEvent, Tracer};
use pstm_storage::{BindingRegistry, Database};
use pstm_types::{
    AbortReason, CompatMatrix, Duration, ExecOutcome, FaultDecision, FaultSite, OpClass, PstmError,
    PstmResult, ResourceId, ScalarOp, SharedFaultHook, StepEffects, Timestamp, TxnId, Value,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Configuration of the GTM.
#[derive(Clone, Copy, Debug)]
pub struct GtmConfig {
    /// Compatibility matrix (Table I by default; the ablation harness
    /// swaps in read/write-only to isolate the value of semantics).
    pub compat: CompatMatrix,
    /// §VII extension: lock-deny starvation control. `None` = paper
    /// behaviour.
    pub starvation: Option<StarvationPolicy>,
    /// §VII extension: value-bounded admission control. `None` = paper
    /// behaviour.
    pub admission: Option<AdmissionPolicy>,
    /// Waits-for-graph deadlock detection (paper §VII: "classical
    /// approaches ... can be used").
    pub deadlock_detection: bool,
    /// Abort waiters queued longer than this. `None` disables.
    pub wait_timeout: Option<Duration>,
    /// §VII's *other* starvation remedy — "the introduction of a
    /// transaction priority": with seniority enabled, a new compatible
    /// invocation is denied while an *older* (lower id = earlier arrival)
    /// awake transaction waits on the resource, and promotion becomes
    /// strict FIFO (no skip-over). Trades the paper's maximal sharing for
    /// wait-time fairness; benchmarked against lock-deny by the
    /// starvation ablation.
    pub elder_priority: bool,
    /// How many times a transiently-failing SST (I/O error) is retried
    /// before the transaction aborts with
    /// [`AbortReason::SstFailure`]. `0` reproduces the paper's
    /// assumption "SST is always correctly executed" — any failure is
    /// immediately fatal to the transaction. The §VII open problem on
    /// SST failure recovery is answered by setting this above zero.
    pub sst_retries: u32,
    /// Virtual time charged for each SST retry attempt (the back-off the
    /// LDBS needs before the write set is resubmitted). The committing
    /// transaction pays this — retries are not free — and the total shows
    /// up in [`StepEffects::sst_busy`] so the scheduler can delay the
    /// commit completion accordingly.
    pub sst_retry_delay: Duration,
}

impl Default for GtmConfig {
    fn default() -> Self {
        GtmConfig {
            compat: CompatMatrix::paper(),
            starvation: None,
            admission: None,
            deadlock_detection: true,
            wait_timeout: None,
            elder_priority: false,
            sst_retries: 0,
            sst_retry_delay: Duration::ZERO,
        }
    }
}

/// Counters for the experiment harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GtmStats {
    /// Transactions begun.
    pub begun: u64,
    /// Transactions committed (SST applied).
    pub committed: u64,
    /// All aborts.
    pub aborted: u64,
    /// Sleepers aborted on awakening (Algorithm 9's third branch).
    pub aborted_sleep_conflict: u64,
    /// Deadlock victims.
    pub aborted_deadlock: u64,
    /// SSTs rejected by CHECK constraints.
    pub aborted_constraint: u64,
    /// Wait-timeout aborts.
    pub aborted_wait_timeout: u64,
    /// Operations completed (granted immediately or after a wait).
    pub ops_completed: u64,
    /// Operations that had to queue.
    pub ops_waited: u64,
    /// Grants that shared a resource with other concurrent holders —
    /// the concurrency the semantics bought.
    pub shared_grants: u64,
    /// Grants that bypassed a sleeping incompatible holder.
    pub bypassed_sleepers: u64,
    /// Reconciliations computed at commit.
    pub reconciliations: u64,
    /// SSTs executed (non-empty).
    pub ssts_executed: u64,
    /// Denials by the starvation policy.
    pub starvation_denials: u64,
    /// Denials by the admission policy.
    pub admission_denials: u64,
    /// Transient SST failures that were retried.
    pub sst_retries: u64,
    /// Transactions aborted because their SST failed persistently.
    pub aborted_sst_failure: u64,
}

impl GtmStats {
    /// Projects the legacy counter set out of an obs registry. This is
    /// the *only* way GTM stats are produced — live stats and stats
    /// rebuilt from a persisted trace go through the same projection, so
    /// they cannot drift.
    #[must_use]
    pub fn from_registry(reg: &MetricsRegistry) -> Self {
        GtmStats {
            begun: reg.counter(Ctr::Begun),
            committed: reg.counter(Ctr::Committed),
            aborted: reg.counter(Ctr::Aborted),
            aborted_sleep_conflict: reg.counter(Ctr::AbortedSleepConflict),
            aborted_deadlock: reg.counter(Ctr::AbortedDeadlock),
            aborted_constraint: reg.counter(Ctr::AbortedConstraint),
            aborted_wait_timeout: reg.counter(Ctr::AbortedLockTimeout),
            ops_completed: reg.counter(Ctr::OpsCompleted),
            ops_waited: reg.counter(Ctr::OpsWaited),
            shared_grants: reg.counter(Ctr::SharedGrants),
            bypassed_sleepers: reg.counter(Ctr::BypassedSleepers),
            reconciliations: reg.counter(Ctr::Reconciliations),
            ssts_executed: reg.counter(Ctr::SstsExecuted),
            starvation_denials: reg.counter(Ctr::StarvationDenials),
            admission_denials: reg.counter(Ctr::AdmissionDenials),
            sst_retries: reg.counter(Ctr::SstRetries),
            aborted_sst_failure: reg.counter(Ctr::AbortedSstFailure),
        }
    }
}

/// Whether an operation's worst case *decreases* the value — the ops the
/// §VII admission bound applies to.
fn op_decrements(op: &ScalarOp) -> bool {
    match op {
        ScalarOp::Sub(c) => !matches!(c, Value::Int(i) if *i <= 0),
        ScalarOp::Add(c) => {
            matches!(c, Value::Int(i) if *i < 0) || matches!(c, Value::Float(f) if *f < 0.0)
        }
        _ => false,
    }
}

/// Result of [`Gtm::commit`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommitResult {
    /// The SST applied; the transaction is durable.
    Committed,
    /// The SST was rejected (CHECK constraint) and the transaction
    /// aborted — the paper's §VII reconciliation-abort case.
    Aborted(AbortReason),
}

/// Result of [`Gtm::prepare`]: reconciliation has run for every member
/// it did not defer. The caller flushes `batch` (with
/// [`crate::sst::flush_sst`]) outside the lock protecting this GTM and
/// then hands the outcome to [`Gtm::settle`].
#[derive(Debug)]
pub struct Prepared {
    /// Members whose reconciliation aborted them (overflow, a result the
    /// column type rejects, a fault at the commit seams) — final.
    pub settled: Vec<(TxnId, CommitResult)>,
    /// The reconciled members, parked in `Committing` in arrival order.
    /// `None` when every member settled or was deferred.
    pub batch: Option<SstBatch>,
    /// Members whose write estimate overlapped a batch member; untouched
    /// and still active — resubmit after the batch settles.
    pub deferred: Vec<TxnId>,
    /// Merged effects of the settles above (waiter mail).
    pub effects: StepEffects,
}

impl Prepared {
    /// Why reconciliation aborted a member — for a one-transaction
    /// prepare with no batch, the transaction's own abort reason.
    #[must_use]
    pub fn abort_reason(&self) -> Option<AbortReason> {
        self.settled.iter().find_map(|(_, result)| match result {
            CommitResult::Aborted(reason) => Some(*reason),
            CommitResult::Committed => None,
        })
    }
}

/// How a prepared batch's flush ended — what [`Gtm::settle`] decides
/// every member's fate from.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// The flush ran and returned this.
    Flushed(PstmResult<()>),
    /// Nothing was flushed: a sibling shard's prepare of the same
    /// cross-shard commit failed, so every member aborts for `reason`.
    Unwound(AbortReason),
}

/// Result of [`Gtm::settle`].
#[derive(Debug)]
pub struct Settled {
    /// Members settled by the outcome — final.
    pub settled: Vec<(TxnId, CommitResult)>,
    /// Members a fused flush could not decide (a constraint violation
    /// somewhere in a batch of several): each is still parked and owed a
    /// solo flush, settled as a one-member batch, so only the violators
    /// abort.
    pub reflush: Vec<Sst>,
    /// Merged effects of the settles above (waiter mail).
    pub effects: StepEffects,
}

/// Result of [`Gtm::awake`].
#[derive(Clone, Debug, PartialEq)]
pub enum AwakeResult {
    /// The transaction resumed. If its queued operation was granted as
    /// part of awakening (Algorithm 9, first branch), the operation's
    /// result is carried here.
    Resumed(Option<Value>),
    /// Incompatible activity touched its resources while it slept; the
    /// transaction was aborted (Algorithm 9, third branch).
    Aborted,
}

/// The Global Transaction Manager.
///
/// # Example
///
/// Two concurrent unit bookings share one flight and reconcile at commit:
///
/// ```
/// use pstm_core::gtm::{CommitResult, Gtm, GtmConfig};
/// use pstm_types::{ExecOutcome, ScalarOp, Timestamp, TxnId, Value};
/// use pstm_workload::counter_world;
///
/// let world = counter_world(1, 100)?;
/// let mut gtm = Gtm::new(world.db.clone(), world.bindings.clone(), GtmConfig::default());
/// let x = world.resources[0];
///
/// gtm.begin(TxnId(1), Timestamp::ZERO)?;
/// gtm.begin(TxnId(2), Timestamp::ZERO)?;
/// // Additive updates are compatible: both are granted immediately.
/// let (a, _) = gtm.execute(TxnId(1), x, ScalarOp::Sub(Value::Int(1)), Timestamp::ZERO)?;
/// let (b, _) = gtm.execute(TxnId(2), x, ScalarOp::Sub(Value::Int(1)), Timestamp::ZERO)?;
/// assert_eq!(a, ExecOutcome::Completed(Value::Int(99)));
/// assert_eq!(b, ExecOutcome::Completed(Value::Int(99))); // private virtual copy
///
/// let (r1, _) = gtm.commit(TxnId(1), Timestamp(1))?;
/// let (r2, _) = gtm.commit(TxnId(2), Timestamp(2))?;
/// assert_eq!(r1, CommitResult::Committed);
/// assert_eq!(r2, CommitResult::Committed);
///
/// let b0 = world.bindings.resolve(x)?;
/// assert_eq!(world.db.get_col(b0.table, b0.row, b0.column)?, Value::Int(98));
/// gtm.verify_serializable().unwrap();
/// # Ok::<(), pstm_types::PstmError>(())
/// ```
pub struct Gtm {
    db: Arc<Database>,
    bindings: BindingRegistry,
    txns: BTreeMap<TxnId, TxnRecord>,
    resources: BTreeMap<ResourceId, ResourceState>,
    config: GtmConfig,
    dependence: DependenceMap,
    tracer: Tracer,
    history: HistoryRecorder,
    /// Seeded fault seam consulted at this manager's commit sites
    /// (`commit-local`, `reconcile`); `None` outside chaos runs.
    fault_hook: Option<SharedFaultHook>,
    /// Shard index reported in this manager's fault-site labels.
    fault_shard: u32,
}

impl Gtm {
    /// Builds a GTM over `db` with the given resource bindings.
    #[must_use]
    pub fn new(db: Arc<Database>, bindings: BindingRegistry, config: GtmConfig) -> Self {
        Gtm {
            db,
            bindings,
            txns: BTreeMap::new(),
            resources: BTreeMap::new(),
            config,
            dependence: DependenceMap::new(),
            tracer: Tracer::disabled(),
            history: HistoryRecorder::new(),
            fault_hook: None,
            fault_shard: 0,
        }
    }

    /// Installs a fault hook consulted at this manager's labeled commit
    /// seams — the start of each transaction's reconciliation in
    /// [`Gtm::prepare`] and each per-resource reconciliation. `shard`
    /// tags the sites so plans can target one shard of a sharded
    /// front-end; single-manager setups pass 0. The
    /// engine's own seams (WAL append, SST apply) are installed
    /// separately via `Database::set_fault_hook`.
    pub fn set_fault_hook(&mut self, hook: SharedFaultHook, shard: u32) {
        self.fault_hook = Some(hook);
        self.fault_shard = shard;
    }

    /// Consults the fault seam at `site`. `Io` surfaces as a transient
    /// `PstmError::Io` (the commit path's existing mapping turns it into
    /// a clean `SstFailure` abort); `Crash`/`Torn` kill the simulated
    /// process — `PstmError::Crashed` propagates raw and the manager must
    /// be discarded.
    fn fault_check(&self, site: FaultSite, now: Timestamp) -> PstmResult<()> {
        let Some(hook) = self.fault_hook.as_ref() else { return Ok(()) };
        match hook.decide(site) {
            FaultDecision::Proceed => Ok(()),
            FaultDecision::Io => {
                self.tracer.emit(
                    now,
                    TraceEvent::FaultInjected { site: site.label(), action: "io".into() },
                );
                Err(PstmError::Io(format!("injected fault at {}", site.label())))
            }
            FaultDecision::Crash | FaultDecision::Torn { .. } => {
                self.tracer.emit(
                    now,
                    TraceEvent::FaultInjected { site: site.label(), action: "crash".into() },
                );
                Err(PstmError::Crashed(site.label()))
            }
        }
    }

    /// Installs a tracer (event sink + metrics registry). Builder-style;
    /// call before scheduling begins.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The tracer this manager emits into. Clones share the registry, so
    /// the handle stays valid however long the manager lives.
    #[must_use]
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// Installs a logical-dependence map (§IV): conflict checks span each
    /// declared group. Builder-style; call before scheduling begins.
    #[must_use]
    pub fn with_dependence(mut self, dependence: DependenceMap) -> Self {
        self.dependence = dependence;
        self
    }

    /// The installed dependence map.
    #[must_use]
    pub fn dependence(&self) -> &DependenceMap {
        &self.dependence
    }

    /// Counter snapshot, projected from the tracer's registry.
    #[must_use]
    pub fn stats(&self) -> GtmStats {
        self.tracer.with_registry(GtmStats::from_registry)
    }

    /// The shared database handle.
    #[must_use]
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The binding registry.
    #[must_use]
    pub fn bindings(&self) -> &BindingRegistry {
        &self.bindings
    }

    /// Current state of `txn` (`A_state`), if known.
    #[must_use]
    pub fn state(&self, txn: TxnId) -> Option<TxnState> {
        self.txns.get(&txn).map(|t| t.state)
    }

    /// The recorded history (for serializability checking).
    #[must_use]
    pub fn history(&self) -> &HistoryRecorder {
        &self.history
    }

    /// Verifies that the committed history is final-state equivalent to
    /// the serial execution in commit order, against the current database
    /// contents. See [`HistoryRecorder::verify_final_state`].
    pub fn verify_serializable(&self) -> Result<(), String> {
        let mut finals = BTreeMap::new();
        for resource in self.history.touched_resources() {
            let v = self.perm(resource).map_err(|e| e.to_string())?;
            finals.insert(resource, v);
        }
        self.history.verify_final_state(&finals)
    }

    fn perm(&self, resource: ResourceId) -> PstmResult<Value> {
        let b = self.bindings.resolve(resource)?;
        self.db.get_col(b.table, b.row, b.column)
    }

    fn txn_mut(&mut self, txn: TxnId) -> PstmResult<&mut TxnRecord> {
        self.txns.get_mut(&txn).ok_or(PstmError::UnknownTxn(txn))
    }

    fn rs(&mut self, resource: ResourceId) -> &mut ResourceState {
        self.resources.entry(resource).or_default()
    }

    // ------------------------------------------------------------------
    // Algorithm 1: ⟨begin, A⟩
    // ------------------------------------------------------------------

    /// Starts a transaction; postcondition `A_state = Active`.
    pub fn begin(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<()> {
        if self.txns.contains_key(&txn) {
            return Err(PstmError::InvalidState { txn, action: "begin", state: "already known" });
        }
        if txn.0 >= crate::sst::SST_ID_BASE {
            // Ids at or above the SST base would collide with the
            // engine-level ids SSTs run under.
            return Err(PstmError::InvalidState {
                txn,
                action: "begin with an id in the reserved SST id space",
                state: "rejected",
            });
        }
        self.txns.insert(txn, TxnRecord::new(now));
        self.tracer.emit(now, TraceEvent::TxnBegin { txn });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Algorithm 2: ⟨op, X, A⟩
    // ------------------------------------------------------------------

    /// Submits one operation. Compatible invocations are granted
    /// concurrently (each on its virtual copy); incompatible ones queue.
    pub fn execute(
        &mut self,
        txn: TxnId,
        resource: ResourceId,
        op: ScalarOp,
        now: Timestamp,
    ) -> PstmResult<(ExecOutcome, StepEffects)> {
        let record = self.txn_mut(txn)?;
        if record.state != TxnState::Active {
            return Err(PstmError::InvalidState {
                txn,
                action: "invoke",
                state: record.state.name(),
            });
        }
        let class = op.class();
        // Phase accounting: pure reads are Read; everything else on the
        // invoke path is operation bookkeeping (grants, queues, copies).
        // Admission checks nested below carve out their own time.
        let _phase = prof::PhaseTimer::start(if class == OpClass::Read {
            CommitPhase::Read
        } else {
            CommitPhase::OpBookkeeping
        });
        let held = record.classes.get(&resource).copied();
        self.tracer.emit(now, TraceEvent::OpRequested { txn, resource, class });
        let record = self.txn_mut(txn)?;

        match held {
            // Already granted under a class that covers this op: pure
            // virtual-copy work, no scheduling involved.
            Some(cur) if class == cur || class == OpClass::Read => {
                let temp =
                    record.temp.get(&resource).cloned().ok_or_else(|| {
                        PstmError::internal(format!("{txn} granted without temp"))
                    })?;
                let new = op.apply(&temp)?;
                record.temp.insert(resource, new.clone());
                record.op_log.push((resource, op));
                self.tracer.emit(
                    now,
                    TraceEvent::OpGranted {
                        txn,
                        resource,
                        class,
                        shared: false,
                        bypassed_sleeper: false,
                    },
                );
                Ok((ExecOutcome::Completed(new), StepEffects::none()))
            }
            // Strengthening Read → mutation (the §II "select then book"
            // pattern). Constraint (i) allows it because Read is
            // compatible with every update class.
            Some(OpClass::Read) => self.invoke(txn, resource, op, class, now, true),
            // Mixing incompatible mutation classes on one member violates
            // the §IV well-formedness constraint (i).
            Some(cur) => Err(PstmError::InvalidState {
                txn,
                action: "mix incompatible operation classes on one data member",
                state: cur.label(),
            }),
            // First contact with this resource.
            None => self.invoke(txn, resource, op, class, now, false),
        }
    }

    /// Whether `class` for `txn` conflicts with a blocking holder of
    /// `resource` under the configured matrix (sleeping pending holders
    /// excluded per Algorithm 2). The check spans the resource's logical
    /// dependence group: operations on logically dependent members
    /// conflict exactly like operations on one member (§IV).
    fn blocked(&self, txn: TxnId, resource: ResourceId, class: OpClass) -> bool {
        self.dependence.related(resource).any(|sibling| self.blocked_on(txn, sibling, class))
    }

    /// The single-resource blocking check underlying [`Gtm::blocked`].
    fn blocked_on(&self, txn: TxnId, resource: ResourceId, class: OpClass) -> bool {
        self.resources
            .get(&resource)
            .is_some_and(|rs| rs.conflicts_with_blockers(txn, class, &self.config.compat))
    }

    /// Algorithm 2's two branches, for both fresh invocations and
    /// Read → mutation strengthenings.
    fn invoke(
        &mut self,
        txn: TxnId,
        resource: ResourceId,
        op: ScalarOp,
        class: OpClass,
        now: Timestamp,
        is_upgrade: bool,
    ) -> PstmResult<(ExecOutcome, StepEffects)> {
        // §IV well-formedness: at most one pending invocation at a time.
        if self.txns[&txn].pending_op.is_some() {
            return Err(PstmError::InvalidState {
                txn,
                action: "invoke while an invocation is pending",
                state: "waiting",
            });
        }
        let denied = self.grant_denied(txn, resource, class, &op, now)?;
        let blocked = self.blocked(txn, resource, class);
        if !denied && !blocked {
            return self
                .grant(txn, resource, op, class, is_upgrade, now)
                .map(|v| (ExecOutcome::Completed(v), StepEffects::none()));
        }
        // Queue (Algorithm 2, second branch).
        self.enqueue_wait(txn, resource, op, class, now, is_upgrade)?;
        let mut effects = self.post_wait_checks(txn, now)?;
        // The wait is policy-made, not contention-made: the grant was
        // free under the compatibility matrix and a §VII policy denied
        // it. Front-ends account it as admission wait.
        effects.denied_admission |= denied && !blocked;
        match Self::extract_requester(&mut effects, txn) {
            Some(outcome) => Ok((outcome, effects)),
            None => Ok((ExecOutcome::Waiting, effects)),
        }
    }

    /// Applies the §VII policies to an otherwise-grantable invocation.
    fn grant_denied(
        &mut self,
        txn: TxnId,
        resource: ResourceId,
        class: OpClass,
        op: &ScalarOp,
        now: Timestamp,
    ) -> PstmResult<bool> {
        let _phase = prof::PhaseTimer::start(CommitPhase::Admission);
        let mut denied = false;
        if self.config.elder_priority {
            let rs = self.resources.entry(resource).or_default();
            if rs.waiting.iter().any(|w| w.txn < txn && !rs.sleeping.contains(&w.txn)) {
                self.tracer.emit(now, TraceEvent::StarvationDenied { txn, resource });
                denied = true;
            }
        }
        if let Some(p) = self.config.starvation {
            let compat = self.config.compat;
            let rs = self.resources.entry(resource).or_default();
            let incompatible_waiters = rs
                .waiting
                .iter()
                .filter(|w| w.txn != txn && !rs.sleeping.contains(&w.txn))
                .filter(|w| !compat.compatible(class, w.class))
                .count();
            if p.deny(incompatible_waiters) {
                self.tracer.emit(now, TraceEvent::StarvationDenied { txn, resource });
                denied = true;
            }
        }
        if self.admission_denies(txn, resource, op)? {
            self.tracer.emit(now, TraceEvent::AdmissionDenied { txn, resource });
            denied = true;
        }
        Ok(denied)
    }

    /// The §VII admission check shared by invocation and promotion:
    /// value-bounded concurrent additive holders. Only *decrementing*
    /// operations are bounded — an addition that restocks the resource
    /// must never be admission-denied, or a sold-out resource could
    /// deadlock its own replenishment.
    fn admission_denies(
        &self,
        txn: TxnId,
        resource: ResourceId,
        op: &ScalarOp,
    ) -> PstmResult<bool> {
        let Some(p) = self.config.admission else { return Ok(false) };
        if !op_decrements(op) {
            return Ok(false);
        }
        let current = self.perm(resource)?;
        let holders = self.resources.get(&resource).map_or(0, |rs| {
            rs.pending
                .iter()
                .chain(rs.committing.iter())
                .filter(|(t, c)| **t != txn && **c == OpClass::UpdateAddSub)
                .count()
        });
        Ok(p.deny(OpClass::UpdateAddSub, holders, &current))
    }

    /// Grants `(txn, class)` on `resource` and applies `op` to the fresh
    /// virtual copy. Postconditions of Algorithm 2's first branch:
    /// `X_pending ∪= (A, op)`, `X_read^A = X_permanent`,
    /// `A_temp = X_permanent`.
    /// Upgrades and fresh grants share one path: both seed the snapshot
    /// and virtual copy from the *current* permanent value (a
    /// strengthening measures its delta from the value the mutation
    /// actually starts from).
    fn grant(
        &mut self,
        txn: TxnId,
        resource: ResourceId,
        op: ScalarOp,
        class: OpClass,
        _is_upgrade: bool,
        now: Timestamp,
    ) -> PstmResult<Value> {
        let permanent = self.perm(resource)?;
        // Apply the operation first: a failing op (e.g. arithmetic on the
        // fresh snapshot) must not leave a phantom holder behind.
        let new = op.apply(&permanent)?;
        self.history.observe_initial(resource, &permanent);
        let matrix = self.config.compat;
        let rs = self.resources.entry(resource).or_default();
        let shared = rs.pending.iter().any(|(t, _)| *t != txn && !rs.sleeping.contains(t));
        let bypassed = rs
            .pending
            .iter()
            .any(|(t, c)| *t != txn && rs.sleeping.contains(t) && !matrix.compatible(class, *c));
        rs.pending.insert(txn, class);
        rs.read.insert(txn, permanent);
        let record = self
            .txns
            .get_mut(&txn)
            .ok_or_else(|| PstmError::internal(format!("granted {txn} has no record")))?;
        record.temp.insert(resource, new.clone());
        record.classes.insert(resource, class);
        record.op_log.push((resource, op));
        record.t_wait.remove(&resource);
        self.tracer.emit(
            now,
            TraceEvent::OpGranted { txn, resource, class, shared, bypassed_sleeper: bypassed },
        );
        Ok(new)
    }

    fn enqueue_wait(
        &mut self,
        txn: TxnId,
        resource: ResourceId,
        op: ScalarOp,
        class: OpClass,
        now: Timestamp,
        is_upgrade: bool,
    ) -> PstmResult<()> {
        let rs = self.resources.entry(resource).or_default();
        let entry = WaitEntry { txn, class, op: op.clone(), since: now, is_upgrade };
        if is_upgrade {
            rs.waiting.push_front(entry);
        } else {
            rs.waiting.push_back(entry);
        }
        let queue_depth = rs.waiting.len() as u32;
        let record = self
            .txns
            .get_mut(&txn)
            .ok_or_else(|| PstmError::internal(format!("waiting {txn} has no record")))?;
        record.state = TxnState::Waiting;
        record.pending_op = Some((resource, op));
        record.t_wait.insert(resource, now);
        self.tracer.emit(now, TraceEvent::OpWaiting { txn, resource, class, queue_depth });
        Ok(())
    }

    /// After queuing a request: deadlock detection. Returns effects; if
    /// the requester itself died or got resumed, the caller extracts it.
    fn post_wait_checks(&mut self, requester: TxnId, now: Timestamp) -> PstmResult<StepEffects> {
        let mut effects = StepEffects::none();
        if self.config.deadlock_detection {
            // Any cycle created by this wait passes through the
            // requester, so the search is scoped to it (cheap); repeat
            // until the requester's neighbourhood is cycle-free.
            while let Some((victim, cycle)) = self.waits_for_graph().pick_victim_from(requester) {
                self.tracer.emit(now, TraceEvent::DeadlockVictim { txn: victim, cycle });
                effects.merge(self.abort_internal(
                    victim,
                    AbortReason::Deadlock,
                    AbortOrigin::Request,
                    now,
                )?);
                if victim == requester {
                    break;
                }
            }
        }
        Ok(effects)
    }

    /// Pulls the requester's own fate out of an effect set, if present,
    /// removing it from the side-effect lists (the caller learns its fate
    /// through the return value, not through `StepEffects`).
    fn extract_requester(effects: &mut StepEffects, txn: TxnId) -> Option<ExecOutcome> {
        if let Some(pos) = effects.aborted.iter().position(|(t, _)| *t == txn) {
            let (_, reason) = effects.aborted.remove(pos);
            return Some(ExecOutcome::Aborted(reason));
        }
        if let Some(pos) = effects.resumed.iter().position(|(t, _)| *t == txn) {
            let (_, value) = effects.resumed.remove(pos);
            return Some(ExecOutcome::Completed(value));
        }
        None
    }

    // ------------------------------------------------------------------
    // Algorithms 3–4: ⟨commit, X, A⟩ and ⟨commit, A⟩
    // ------------------------------------------------------------------

    /// Commits `txn`: [`Gtm::prepare`] (reconciliation, Algorithm 3), one
    /// solo SST through [`flush_sst`] (Algorithm 4's global commit), then
    /// [`Gtm::settle`].
    ///
    /// Transient SST failures (I/O) are retried per
    /// [`GtmConfig::sst_retries`], each attempt charged
    /// [`GtmConfig::sst_retry_delay`] of virtual time; the total charge is
    /// reported in [`StepEffects::sst_busy`] and commit-side bookkeeping
    /// (committed timestamps, promotions) happens at the delayed instant.
    pub fn commit(
        &mut self,
        txn: TxnId,
        now: Timestamp,
    ) -> PstmResult<(CommitResult, StepEffects)> {
        let mut prepared = self.prepare(&[txn], now)?;
        let Some(batch) = prepared.batch.take() else {
            let reason = prepared.abort_reason().ok_or_else(|| {
                PstmError::internal(format!("{txn} neither prepared nor aborted"))
            })?;
            return Ok((CommitResult::Aborted(reason), prepared.effects));
        };
        let mut at = now;
        let delay = self.config.sst_retry_delay;
        let tracer = &self.tracer;
        let flushed = flush_sst(
            Flush::Solo(&batch.members[0]),
            &self.db,
            &self.bindings,
            self.config.sst_retries,
            None,
            |event| {
                // The retry is not free: the LDBS needs its back-off
                // before the write set is resubmitted, and the committer
                // pays it.
                if matches!(event, TraceEvent::SstRetry { .. }) {
                    at += delay;
                }
                tracer.emit(at, event);
            },
        );
        let mut settled = self.settle(batch, Outcome::Flushed(flushed), at)?;
        let (_, result) = settled
            .settled
            .pop()
            .ok_or_else(|| PstmError::internal(format!("{txn} left unsettled")))?;
        let mut effects = settled.effects;
        effects.sst_busy = at.since(now);
        // Phase boundaries for span-emitting coordinators: reconciliation
        // runs entirely at `now` in virtual time; the SST phase covers the
        // first attempt through the last retry.
        effects.reconcile_span = Some((now, now));
        effects.sst_span = Some((now, at));
        Ok((result, effects))
    }

    /// The resources `txn` currently holds **mutating** grants on — the
    /// conservative write-set estimate the disjointness cut needs
    /// *before* reconciliation computes the real writes (reconciliation
    /// can only shrink the set, never grow it).
    fn mutated_resources(&self, txn: TxnId) -> Vec<ResourceId> {
        self.txns
            .get(&txn)
            .map(|rec| {
                rec.classes.iter().filter(|(_, c)| c.is_mutation()).map(|(r, _)| *r).collect()
            })
            .unwrap_or_default()
    }

    /// Step one of every commit (Algorithm 3): reconciles `txns` in order
    /// and parks them, in `Committing`, in one batch for a single flush.
    /// A cross-shard commit calls it with `&[txn]` on each shard; the
    /// group-commit station with a whole wave.
    ///
    /// The disjointness cut happens *before* a member reconciles, on the
    /// conservative estimate of its mutating grants: reconciliation
    /// reads the current permanent state, so a member whose writes
    /// overlap a parked member's must not reconcile until that member's
    /// SST has applied — cutting only at flush time would fuse a stale
    /// reconciliation and lose an update. Such a member is **deferred**
    /// untouched. Members that abort during reconciliation settle
    /// immediately and constrain nobody.
    ///
    /// The caller owns the parked batch and MUST hand its flush outcome
    /// to [`Gtm::settle`] on the same GTM before preparing anything else
    /// on it.
    pub fn prepare(&mut self, txns: &[TxnId], now: Timestamp) -> PstmResult<Prepared> {
        let mut prepared = Prepared {
            settled: Vec::new(),
            batch: None,
            deferred: Vec::new(),
            effects: StepEffects::none(),
        };
        let mut held: Vec<ResourceId> = Vec::new();
        for &txn in txns {
            let mutated = self.mutated_resources(txn);
            if mutated.iter().any(|r| held.contains(r)) {
                prepared.deferred.push(txn);
                continue;
            }
            let writes = match self.reconcile_txn(txn, now, &mut prepared.effects)? {
                Ok(writes) => writes,
                Err(reason) => {
                    prepared.settled.push((txn, CommitResult::Aborted(reason)));
                    continue;
                }
            };
            let sst = Sst::new(txn, writes);
            match prepared.batch.as_mut() {
                None => prepared.batch = Some(SstBatch::of(sst)),
                // Real writes are a subset of the mutating grants the cut
                // kept disjoint, so the batch cannot refuse a member.
                Some(batch) => batch.push(sst).map_err(|sst| {
                    PstmError::internal(format!("{} overlaps its batch past the cut", sst.origin))
                })?,
            }
            held.extend(mutated);
        }
        Ok(prepared)
    }

    /// Reconciles one transaction (Algorithm 3): moves it to
    /// `Committing` and returns the writes its SST must flush. A local
    /// failure aborts the transaction on the spot — it must never strand
    /// in `Committing` — merging the unwind into `effects` and coming
    /// back as `Err(reason)`.
    fn reconcile_txn(
        &mut self,
        txn: TxnId,
        now: Timestamp,
        effects: &mut StepEffects,
    ) -> PstmResult<Result<Vec<(ResourceId, Value)>, AbortReason>> {
        // The whole local commit is the reconcile phase; a failed commit's
        // unwind (abort_internal) carves out its own AbortUnwind time.
        let _phase = prof::PhaseTimer::start(CommitPhase::Reconcile);
        let record = self.txn_mut(txn)?;
        if record.state != TxnState::Active {
            return Err(PstmError::InvalidState {
                txn,
                action: "commit",
                state: record.state.name(),
            });
        }
        record.state = TxnState::Committing;
        let touched: Vec<(ResourceId, OpClass)> =
            record.classes.iter().map(|(r, c)| (*r, *c)).collect();

        // Local commits: move pending → committing, reconcile. Any error
        // here (a reconciliation overflow, an engine read failure) aborts
        // the transaction.
        let local_result: PstmResult<Vec<(ResourceId, Value)>> = (|| {
            self.fault_check(FaultSite::CommitLocal { shard: self.fault_shard }, now)?;
            let mut writes = Vec::new();
            for (resource, class) in &touched {
                // The paper's "link drops mid-reconcile": each resource's
                // reconciliation is a separate arrival at the seam.
                self.fault_check(FaultSite::Reconcile { shard: self.fault_shard }, now)?;
                let permanent = self.perm(*resource)?;
                let record = self.txns.get_mut(&txn).ok_or_else(|| {
                    PstmError::internal(format!("committing {txn} has no record"))
                })?;
                let temp = record.temp.remove(resource);
                let rs = self.resources.entry(*resource).or_default();
                rs.pending.remove(&txn);
                rs.committing.insert(txn, *class);
                let read = rs.read.remove(&txn);
                if class.is_mutation() {
                    let temp = temp.ok_or_else(|| {
                        PstmError::internal(format!("{txn} committing {resource} without temp"))
                    })?;
                    let read = read.ok_or_else(|| {
                        PstmError::internal(format!("{txn} committing {resource} without snapshot"))
                    })?;
                    if let Some(new) = reconcile(*class, &temp, &read, &permanent)? {
                        rs.new.insert(txn, new.clone());
                        writes.push((*resource, new));
                        self.tracer.emit(now, TraceEvent::Reconciled { txn, resource: *resource });
                    }
                }
            }
            Ok(writes)
        })();
        let reason = match local_result {
            Ok(writes) => return Ok(Ok(writes)),
            // Reconciliation failed in the value domain (overflow, zero
            // snapshot for mul/div, a result the column type rejects):
            // the transaction dies.
            Err(PstmError::Arithmetic(_)) | Err(PstmError::TypeMismatch { .. }) => {
                AbortReason::Constraint
            }
            Err(PstmError::Io(_)) => AbortReason::SstFailure,
            Err(e) => return Err(e),
        };
        let mut unwind = self.unpark(txn, reason, now)?;
        // Reconciliation ran (and failed) at `now`.
        unwind.reconcile_span = Some((now, now));
        effects.merge(unwind);
        Ok(Err(reason))
    }

    /// Step three of every commit (Algorithm 4's tail): decides each
    /// member of `batch` from its flush's `outcome`.
    ///
    /// - applied: every member finishes (committed marks, history,
    ///   promotions);
    /// - a constraint or type violation: in a batch of several members
    ///   nobody can tell violator from victim, so every member comes back
    ///   in [`Settled::reflush`], still parked; a one-member batch's
    ///   member is the violator and aborts with `Constraint`;
    /// - a crash propagates untouched — the simulated process is dead and
    ///   the parked state dies with it;
    /// - any other failure (I/O past the retries, an engine error):
    ///   nothing reached the database, so every member aborts with
    ///   `SstFailure`;
    /// - [`Outcome::Unwound`]: every member aborts with the given reason.
    pub fn settle(
        &mut self,
        batch: SstBatch,
        outcome: Outcome,
        now: Timestamp,
    ) -> PstmResult<Settled> {
        let mut out =
            Settled { settled: Vec::new(), reflush: Vec::new(), effects: StepEffects::none() };
        let reason = match outcome {
            Outcome::Flushed(Ok(())) => {
                for m in &batch.members {
                    out.effects.merge(self.finish_commit(m.origin, now)?);
                    out.settled.push((m.origin, CommitResult::Committed));
                }
                return Ok(out);
            }
            Outcome::Flushed(Err(
                PstmError::ConstraintViolation { .. } | PstmError::TypeMismatch { .. },
            )) if batch.len() > 1 => {
                out.reflush = batch.members;
                return Ok(out);
            }
            // §VII problem 2: reconciliation violated an integrity
            // constraint (or produced a value the column's declared type
            // rejects) — the transaction aborts.
            Outcome::Flushed(Err(
                PstmError::ConstraintViolation { .. } | PstmError::TypeMismatch { .. },
            )) => AbortReason::Constraint,
            Outcome::Flushed(Err(e @ PstmError::Crashed(_))) => return Err(e),
            // Persistent SST failure: §VII's open problem. Nothing reached
            // the database (the write set is all-or-nothing), so cleanup
            // is pure bookkeeping.
            Outcome::Flushed(Err(_)) => AbortReason::SstFailure,
            Outcome::Unwound(reason) => reason,
        };
        for m in &batch.members {
            out.effects.merge(self.unpark(m.origin, reason, now)?);
            out.settled.push((m.origin, CommitResult::Aborted(reason)));
        }
        Ok(out)
    }

    /// A parked transaction's SST applied: mark it committed, record
    /// history and run promotions.
    fn finish_commit(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<StepEffects> {
        // History, committed marks, promotions: bookkeeping.
        let _phase = prof::PhaseTimer::start(CommitPhase::OpBookkeeping);
        let record = self.txn_mut(txn)?;
        if record.state != TxnState::Committing {
            return Err(PstmError::InvalidState {
                txn,
                action: "commit-finish",
                state: record.state.name(),
            });
        }
        let touched: Vec<(ResourceId, OpClass)> =
            record.classes.iter().map(|(r, c)| (*r, *c)).collect();
        for (resource, class) in &touched {
            let rs = self.resources.entry(*resource).or_default();
            rs.committing.remove(&txn);
            rs.new.remove(&txn);
            rs.committed.push((txn, *class, now));
        }
        let record = self
            .txns
            .get_mut(&txn)
            .ok_or_else(|| PstmError::internal(format!("committing {txn} has no record")))?;
        record.state = TxnState::Committed;
        record.t_sleep = None;
        record.t_wait.clear();
        let ops = record.op_log.clone();
        self.history.record_commit(txn, ops);
        self.tracer.emit(now, TraceEvent::Committed { txn });
        self.promote_all(touched.iter().map(|(r, _)| *r).collect(), now)
    }

    /// A parked transaction's commit failed — in reconciliation, in its
    /// flush, or on a sibling shard: clear the committing marks and abort
    /// it. Its own fate is *not* in the returned effects — the caller
    /// already knows it.
    fn unpark(
        &mut self,
        txn: TxnId,
        reason: AbortReason,
        now: Timestamp,
    ) -> PstmResult<StepEffects> {
        let state = self.txn_mut(txn)?.state;
        if state != TxnState::Committing {
            return Err(PstmError::InvalidState {
                txn,
                action: "commit-abort",
                state: state.name(),
            });
        }
        let mut effects = self.abort_internal(txn, reason, AbortOrigin::Commit, now)?;
        effects.aborted.retain(|(t, _)| *t != txn);
        Ok(effects)
    }

    // ------------------------------------------------------------------
    // Algorithms 5–6: ⟨abort, X, A⟩ and ⟨abort, A⟩
    // ------------------------------------------------------------------

    /// User-requested abort. Nothing reached the database (virtual copies
    /// only), so abort is pure bookkeeping plus promotions.
    pub fn abort(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<StepEffects> {
        self.abort_internal(txn, AbortReason::User, AbortOrigin::User, now)
    }

    fn abort_internal(
        &mut self,
        txn: TxnId,
        reason: AbortReason,
        origin: AbortOrigin,
        now: Timestamp,
    ) -> PstmResult<StepEffects> {
        let _phase = prof::PhaseTimer::start(CommitPhase::AbortUnwind);
        let record = self.txn_mut(txn)?;
        if record.state.is_terminal() {
            return Err(PstmError::InvalidState {
                txn,
                action: "abort",
                state: record.state.name(),
            });
        }
        record.state = TxnState::Aborting;
        let resources = record.resources();
        record.temp.clear();
        record.pending_op = None;
        for resource in &resources {
            let rs = self.resources.entry(*resource).or_default();
            rs.pending.remove(&txn);
            rs.waiting.retain(|w| w.txn != txn);
            rs.committing.remove(&txn);
            rs.sleeping.remove(&txn);
            rs.read.remove(&txn);
            rs.new.remove(&txn);
        }
        let record = self
            .txns
            .get_mut(&txn)
            .ok_or_else(|| PstmError::internal(format!("aborting {txn} has no record")))?;
        record.state = TxnState::Aborted;
        record.t_sleep = None;
        record.t_wait.clear();
        self.tracer.emit(now, TraceEvent::Aborted { txn, reason, origin });
        let mut effects = self.promote_all(resources, now)?;
        effects.aborted.push((txn, reason));
        Ok(effects)
    }

    // ------------------------------------------------------------------
    // Algorithms 7–8: ⟨sleep, X, A⟩ and ⟨sleep, A⟩
    // ------------------------------------------------------------------

    /// The oracle `Ξ` fired: `txn` disconnected or went idle. Its grants
    /// stop blocking other work (Algorithm 2 excludes `X_sleeping` from
    /// the conflict check), so sleeping can unblock queued waiters —
    /// promotions are returned.
    pub fn sleep(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<StepEffects> {
        let record = self.txn_mut(txn)?;
        match record.state {
            TxnState::Active | TxnState::Waiting => {
                record.state = TxnState::Sleeping;
                record.t_sleep = Some(now);
                let resources = record.resources();
                for resource in &resources {
                    self.rs(*resource).sleeping.insert(txn);
                }
                self.tracer.emit(now, TraceEvent::TxnSlept { txn });
                self.promote_all(resources, now)
            }
            other => Err(PstmError::InvalidState { txn, action: "sleep", state: other.name() }),
        }
    }

    // ------------------------------------------------------------------
    // Algorithms 9–10: ⟨awake, X, A⟩ and ⟨awake, A⟩
    // ------------------------------------------------------------------

    /// The transaction reconnected. If no incompatible activity touched
    /// its resources while it slept (no conflicting pending/committing
    /// holder, no conflicting commit with `X_tc > A_t_sleep`), it resumes
    /// — a queued invocation is granted on the spot with a fresh snapshot
    /// (Algorithm 9, first branch). Otherwise it is aborted (third
    /// branch).
    pub fn awake(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<(AwakeResult, StepEffects)> {
        let record = self.txn_mut(txn)?;
        if record.state != TxnState::Sleeping {
            return Err(PstmError::InvalidState {
                txn,
                action: "awake",
                state: record.state.name(),
            });
        }
        let t_sleep = record.t_sleep.unwrap_or(Timestamp::ZERO);
        let granted: Vec<(ResourceId, OpClass)> =
            record.classes.iter().map(|(r, c)| (*r, *c)).collect();
        let queued: Option<(ResourceId, ScalarOp)> = record.pending_op.clone();

        // Conflict scan over everything the transaction is involved in,
        // each check spanning the resource's logical dependence group.
        let matrix = self.config.compat;
        let check = |resource: ResourceId, class: OpClass| -> bool {
            self.dependence.related(resource).any(|sibling| {
                self.resources.get(&sibling).is_some_and(|rs| {
                    rs.conflicts_with_any_holder(txn, class, &matrix)
                        || rs.incompatible_commit_after(txn, class, t_sleep, &matrix)
                })
            })
        };
        let mut conflicted = granted.iter().any(|(r, c)| check(*r, *c));
        if !conflicted {
            if let Some((resource, op)) = &queued {
                conflicted = check(*resource, op.class());
            }
        }

        if conflicted {
            let mut effects =
                self.abort_internal(txn, AbortReason::SleepConflict, AbortOrigin::Awake, now)?;
            effects.aborted.retain(|(t, _)| *t != txn);
            return Ok((AwakeResult::Aborted, effects));
        }

        // No conflicts: clear the sleeping marks (Algorithm 9, second
        // branch) ...
        let resources = self.txns[&txn].resources();
        for resource in &resources {
            self.rs(*resource).sleeping.remove(&txn);
        }
        // ... and grant a queued invocation with a refreshed snapshot
        // (first branch: X_read^A = A_temp = X_permanent). The §VII
        // policies gate this grant like every other: if a policy denies
        // it, the invocation simply stays queued and the transaction
        // remains Waiting (it did reconnect — only its operation is
        // still pending).
        let mut value = None;
        if let Some((resource, op)) = queued {
            let class = op.class();
            if self.grant_denied(txn, resource, class, &op, now)? {
                let record = self
                    .txns
                    .get_mut(&txn)
                    .ok_or_else(|| PstmError::internal(format!("awaking {txn} has no record")))?;
                record.state = TxnState::Waiting;
                record.t_sleep = None;
                self.tracer.emit(now, TraceEvent::TxnAwoke { txn });
                return Ok((AwakeResult::Resumed(None), StepEffects::none()));
            }
            let rs = self.rs(resource);
            rs.waiting.retain(|w| w.txn != txn);
            let record = self
                .txns
                .get_mut(&txn)
                .ok_or_else(|| PstmError::internal(format!("awaking {txn} has no record")))?;
            record.pending_op = None;
            let is_upgrade = record.classes.get(&resource) == Some(&OpClass::Read);
            match self.grant(txn, resource, op, class, is_upgrade, now) {
                Ok(v) => value = Some(v),
                Err(PstmError::Arithmetic(_)) => {
                    // The stashed op failed on the fresh snapshot: the
                    // transaction dies cleanly instead of stranding
                    // half-awake.
                    let mut effects =
                        self.abort_internal(txn, AbortReason::Constraint, AbortOrigin::Awake, now)?;
                    effects.aborted.retain(|(t, _)| *t != txn);
                    return Ok((AwakeResult::Aborted, effects));
                }
                Err(e) => return Err(e),
            }
        }
        let record = self
            .txns
            .get_mut(&txn)
            .ok_or_else(|| PstmError::internal(format!("awaking {txn} has no record")))?;
        record.state = TxnState::Active;
        record.t_sleep = None;
        record.t_wait.clear();
        self.tracer.emit(now, TraceEvent::TxnAwoke { txn });
        Ok((AwakeResult::Resumed(value), StepEffects::none()))
    }

    // ------------------------------------------------------------------
    // Algorithm 11: ⟨unlock, X⟩ — promotion
    // ------------------------------------------------------------------

    /// Reconsiders the wait queues of `resources` after removals. FIFO
    /// with skip-over: grantable awake entries are granted (each on a
    /// fresh snapshot), sleeping and still-blocked entries stay queued.
    fn promote_all(
        &mut self,
        resources: BTreeSet<ResourceId>,
        now: Timestamp,
    ) -> PstmResult<StepEffects> {
        // A removal on one member can unblock waiters queued on a
        // logically dependent sibling — expand the scan to each
        // resource's dependence group.
        let resources: BTreeSet<ResourceId> = resources
            .into_iter()
            .flat_map(|r| self.dependence.related(r).collect::<Vec<_>>())
            .collect();
        let mut effects = StepEffects::none();
        for resource in resources {
            let mut idx = 0;
            while let Some(entry) =
                self.resources.get(&resource).and_then(|rs| rs.waiting.get(idx)).cloned()
            {
                let rs = self
                    .resources
                    .get(&resource)
                    .ok_or_else(|| PstmError::internal(format!("{resource} vanished mid-scan")))?;
                if rs.sleeping.contains(&entry.txn) {
                    idx += 1;
                    continue; // Algorithm 11: X_waiting − X_sleeping
                }
                let mut denied = self.blocked(entry.txn, resource, entry.class);
                if !denied {
                    // Admission still applies at promotion time. Not
                    // counted in `admission_denials`: promotion re-runs on
                    // every tick, so counting re-evaluations of the same
                    // queued op would swamp the stat with polling noise —
                    // the counter tracks denied *invocations*.
                    denied = self.admission_denies(entry.txn, resource, &entry.op)?;
                }
                if !denied {
                    // Starvation control also applies: skip-over
                    // promotion must not carry a compatible entry past
                    // `deny_threshold` awake incompatible waiters queued
                    // ahead of it, or the lock-deny of Algorithm 2 would
                    // be undone at every unlock.
                    if let Some(p) = self.config.starvation {
                        let rs = self.resources.get(&resource).ok_or_else(|| {
                            PstmError::internal(format!("{resource} vanished mid-scan"))
                        })?;
                        let incompatible_ahead = rs
                            .waiting
                            .iter()
                            .take(idx)
                            .filter(|w| !rs.sleeping.contains(&w.txn))
                            .filter(|w| !self.config.compat.compatible(entry.class, w.class))
                            .count();
                        if p.deny(incompatible_ahead) {
                            self.tracer.emit(
                                now,
                                TraceEvent::StarvationDenied { txn: entry.txn, resource },
                            );
                            denied = true;
                        }
                    }
                }
                if denied {
                    if self.config.elder_priority {
                        break; // strict FIFO: nothing may overtake a blocked elder
                    }
                    idx += 1;
                    continue;
                }
                // Grant it.
                let rs = self
                    .resources
                    .get_mut(&resource)
                    .ok_or_else(|| PstmError::internal(format!("{resource} vanished mid-scan")))?;
                rs.waiting.remove(idx);
                let record = self.txns.get_mut(&entry.txn).ok_or_else(|| {
                    PstmError::internal(format!("waiting {} has no record", entry.txn))
                })?;
                record.pending_op = None;
                match self.grant(entry.txn, resource, entry.op, entry.class, entry.is_upgrade, now)
                {
                    Ok(value) => {
                        let record = self.txns.get_mut(&entry.txn).ok_or_else(|| {
                            PstmError::internal(format!("granted {} has no record", entry.txn))
                        })?;
                        if record.state == TxnState::Waiting {
                            record.state = TxnState::Active;
                        }
                        effects.resumed.push((entry.txn, value));
                    }
                    Err(PstmError::Arithmetic(_)) => {
                        // The stashed op failed on the fresh snapshot
                        // (e.g. divide by a value that became zero): the
                        // transaction dies.
                        effects.merge(self.abort_internal(
                            entry.txn,
                            AbortReason::Constraint,
                            AbortOrigin::Promotion,
                            now,
                        )?);
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(effects)
    }

    // ------------------------------------------------------------------
    // Maintenance
    // ------------------------------------------------------------------

    /// Builds the waits-for graph: each awake waiter → every blocking
    /// holder its class conflicts with, spanning logical dependence
    /// groups.
    #[must_use]
    pub fn waits_for_graph(&self) -> WaitsForGraph {
        let mut g = WaitsForGraph::new();
        for (resource, rs) in &self.resources {
            for w in &rs.waiting {
                if rs.sleeping.contains(&w.txn) {
                    continue;
                }
                for sibling in self.dependence.related(*resource) {
                    let Some(srs) = self.resources.get(&sibling) else { continue };
                    for (holder, class) in srs
                        .pending
                        .iter()
                        .filter(|(t, _)| !srs.sleeping.contains(t))
                        .chain(srs.committing.iter())
                    {
                        if *holder != w.txn && !self.config.compat.compatible(w.class, *class) {
                            g.add_edge(w.txn, *holder);
                        }
                    }
                }
            }
        }
        g
    }

    /// The current waits-for graph rendered as Graphviz DOT — a debugging
    /// artifact (`dot -Tsvg`) showing who blocks whom right now.
    #[must_use]
    pub fn waits_for_dot(&self) -> String {
        pstm_obs::waits_for_dot(self.waits_for_graph().edges())
    }

    /// Periodic maintenance: deadlock detection, wait timeouts, committed
    /// set pruning. The simulator calls this on clock advances.
    pub fn tick(&mut self, now: Timestamp) -> PstmResult<StepEffects> {
        let mut effects = StepEffects::none();
        if self.config.deadlock_detection {
            while let Some((victim, cycle)) = self.waits_for_graph().pick_victim() {
                self.tracer.emit(now, TraceEvent::DeadlockVictim { txn: victim, cycle });
                effects.merge(self.abort_internal(
                    victim,
                    AbortReason::Deadlock,
                    AbortOrigin::Tick,
                    now,
                )?);
            }
        }
        if let Some(timeout) = self.config.wait_timeout {
            let expired: Vec<TxnId> = self
                .resources
                .values()
                .flat_map(|rs| rs.waiting.iter())
                .filter(|w| now.since(w.since) >= timeout)
                .map(|w| w.txn)
                .collect();
            for t in expired {
                // Re-check per abort: an earlier victim's release may have
                // promoted this waiter already — an Active transaction
                // must not be killed by a stale expiry list.
                if self.txns.get(&t).is_some_and(|r| r.state == TxnState::Waiting) {
                    effects.merge(self.abort_internal(
                        t,
                        AbortReason::LockTimeout,
                        AbortOrigin::Tick,
                        now,
                    )?);
                }
            }
        }
        // Admission-denied waiters can be stalled on an otherwise idle
        // resource (no removal event will ever re-trigger promotion, but
        // the resource value may have changed); re-run promotion over
        // every resource with a queue.
        let queued: BTreeSet<ResourceId> = self
            .resources
            .iter()
            .filter(|(_, rs)| !rs.waiting.is_empty())
            .map(|(r, _)| *r)
            .collect();
        if !queued.is_empty() {
            effects.merge(self.promote_all(queued, now)?);
        }
        // Prune committed sets below the horizon any sleeper can observe.
        let horizon = self
            .txns
            .values()
            .filter(|r| r.state == TxnState::Sleeping)
            .filter_map(|r| r.t_sleep)
            .min()
            .unwrap_or(now);
        for rs in self.resources.values_mut() {
            rs.prune_committed(horizon);
        }
        Ok(effects)
    }

    /// The earliest instant at which [`Gtm::tick`] has scheduled work to
    /// do for a *currently queued* waiter: the oldest wait entry's
    /// `since + wait_timeout`. `None` when nothing is waiting or wait
    /// timeouts are disabled — an event-driven caller (the reactor
    /// front-end) then needs no timer for this shard at all, where the
    /// blocking front-end would poll it on every `poll_interval`.
    ///
    /// Deadlock detection and promotion have no deadline of their own:
    /// both are re-run on every tick, so an event-driven caller should
    /// tick at `min(next_wake_deadline, its own coarse cadence)` while
    /// waiters exist.
    #[must_use]
    pub fn next_wake_deadline(&self) -> Option<Timestamp> {
        let timeout = self.config.wait_timeout?;
        self.resources
            .values()
            .flat_map(|rs| rs.waiting.iter())
            .map(|w| Timestamp(w.since.0.saturating_add(timeout.0)))
            .min()
    }

    /// True while any transaction is queued on any resource — the
    /// condition under which an event-driven caller keeps a tick timer
    /// armed for this shard.
    #[must_use]
    pub fn has_waiters(&self) -> bool {
        self.resources.values().any(|rs| !rs.waiting.is_empty())
    }

    /// Test/diagnostic access to a resource's scheduling state.
    #[must_use]
    pub fn resource_state(&self, resource: ResourceId) -> Option<&ResourceState> {
        self.resources.get(&resource)
    }

    /// Verifies the cross-structure bookkeeping invariants of the manager;
    /// returns a description of the first violation. Used by the fuzz
    /// tests after every event.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (resource, rs) in &self.resources {
            for t in rs.pending.keys() {
                let Some(rec) = self.txns.get(t) else {
                    return Err(format!("{t} pending on {resource} but unknown"));
                };
                if rec.state.is_terminal() {
                    return Err(format!(
                        "{t} pending on {resource} in terminal state {}",
                        rec.state
                    ));
                }
                if !rec.classes.contains_key(resource) {
                    return Err(format!("{t} pending on {resource} without a recorded class"));
                }
                if !rs.read.contains_key(t) {
                    return Err(format!("{t} pending on {resource} without X_read snapshot"));
                }
            }
            for w in &rs.waiting {
                let Some(rec) = self.txns.get(&w.txn) else {
                    return Err(format!("{} waiting on {resource} but unknown", w.txn));
                };
                if !matches!(rec.state, TxnState::Waiting | TxnState::Sleeping) {
                    return Err(format!(
                        "{} queued on {resource} but in state {}",
                        w.txn, rec.state
                    ));
                }
                match &rec.pending_op {
                    Some((r, _)) if r == resource => {}
                    other => {
                        return Err(format!(
                            "{} queued on {resource} but pending_op is {other:?}",
                            w.txn
                        ));
                    }
                }
            }
            for t in &rs.sleeping {
                let Some(rec) = self.txns.get(t) else {
                    return Err(format!("{t} sleeping on {resource} but unknown"));
                };
                if rec.state != TxnState::Sleeping {
                    return Err(format!("{t} in X_sleeping of {resource} but state {}", rec.state));
                }
            }
            if !rs.committing.is_empty() {
                return Err(format!("{resource} has a non-empty committing set between events"));
            }
        }
        for (t, rec) in &self.txns {
            match rec.state {
                TxnState::Active | TxnState::Sleeping => {
                    for resource in rec.classes.keys() {
                        let held = self
                            .resources
                            .get(resource)
                            .is_some_and(|rs| rs.pending.contains_key(t));
                        if !held {
                            return Err(format!(
                                "{t} records class on {resource} but is not pending"
                            ));
                        }
                    }
                }
                TxnState::Waiting => {
                    if rec.pending_op.is_none() {
                        return Err(format!("{t} Waiting without a pending op"));
                    }
                }
                TxnState::Committed | TxnState::Aborted => {
                    for (resource, rs) in &self.resources {
                        if rs.pending.contains_key(t)
                            || rs.sleeping.contains(t)
                            || rs.waiting.iter().any(|w| w.txn == *t)
                            || rs.read.contains_key(t)
                            || rs.new.contains_key(t)
                        {
                            return Err(format!("terminal {t} still referenced by {resource}"));
                        }
                    }
                }
                TxnState::Committing | TxnState::Aborting => {
                    return Err(format!(
                        "{t} left in transient state {} between events",
                        rec.state
                    ));
                }
            }
        }
        Ok(())
    }
}
