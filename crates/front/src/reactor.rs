//! # Reactor mode — the event-loop session front-end
//!
//! The blocking [`Session`] API spends one OS thread per live session;
//! a fleet of 100k mostly-sleeping mobile clients would burn 100k
//! stacks to do nothing. Reactor mode inverts the ownership: a session
//! becomes an inert state machine ([`SessionCore`] — the blocking
//! `Session` plus an op program counter and a lifecycle phase) owned by
//! a small fixed pool of shard-affine worker loops. Each worker drives
//! its sessions off one MPSC op queue and a deadline-ordered
//! [`TimerWheel`]; a *Sleeping* session consumes no thread, no stack
//! and no queue slot — only its state machine and (at most) one timer
//! entry. Wakes are O(1) enqueues: the front-end's signal `deposit`
//! routes through the installed [`WakeSink`] straight onto the owner
//! worker's queue instead of a mailbox the waiter must poll.
//!
//! With group commit on, a single-shard commit does not block its
//! worker on the group station: the core parks as `Committing` at its
//! shard's station and the worker keeps serving its queue. The worker
//! runs a *flush pass* — one [`ShardedFront::lead_group_round`] per
//! station it has commits parked on — when its queue runs dry, or when
//! the oldest parked commit has waited as long as the median of its
//! last 16 passes, so commits arriving while a pass pays the device
//! round-trip fuse into the next wave.
//!
//! Two drivers share the same per-worker state machine
//! (`WorkerState::handle` / `fire_due` / `flush_pass`):
//!
//! - [`Reactor`] — one OS thread per worker, parked on `recv_timeout`
//!   bounded by the wheel's next deadline. No polling anywhere: an idle
//!   worker sleeps in the channel until a message or timer arrives.
//! - [`det::DetReactor`] — a single-threaded, seeded driver that picks
//!   the next worker with work pseudo-randomly and advances a virtual
//!   clock, exploring interleavings reproducibly for property tests.
//!
//! Equivalence with the blocking front is not assumed, it is proven:
//! `crates/check/tests/reactor_equivalence.rs` runs identical seeded
//! workloads through both fronts and asserts identical per-resource
//! final state and byte-identical acked-commit ledgers, then certifies
//! both trace sets with the serializability verifier.

use crate::timer::TimerWheel;
use crate::{AwakeOutcome, FrontInner, Session, SessionOutcome, ShardedFront, Signal, TryExec};
use parking_lot::Mutex;
use pstm_core::gtm::CommitResult;
use pstm_obs::prof::{self, CommitPhase};
use pstm_obs::reactor::wake_latency_histogram;
use pstm_obs::{Histogram, ReactorCensus, ReactorSnapshot, SpanKind, TraceEvent};
use pstm_types::{AbortReason, PstmError, PstmResult, ResourceId, ScalarOp, Timestamp, TxnId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Weak};

/// Where the front-end's `deposit` hands resume/abort signals once a
/// reactor is attached ([`ShardedFront::install_wake_sink`]): the sink
/// turns a signal into an O(1) enqueue on the addressee's worker queue.
pub(crate) trait WakeSink: Send + Sync {
    /// Routes one signal to the session that owns `txn`.
    fn route_wake(&self, txn: TxnId, signal: Signal);
    /// The reactor's session census.
    fn census(&self) -> ReactorCensus;
}

/// Reactor pool configuration.
#[derive(Clone, Copy, Debug)]
pub struct ReactorConfig {
    /// Worker loops in the fixed pool; `0` picks
    /// `min(shards, 2 × available CPU parallelism)`.
    pub workers: usize,
    /// Fallback cadence for ticking a shard that has waiting sessions —
    /// drives per-shard deadlock detection even when
    /// [`pstm_core::gtm::Gtm::next_wake_deadline`] reports no timeout
    /// deadline. Wait-timeout expiry itself is scheduled exactly off
    /// the reported deadline, not this cadence.
    pub tick_interval: std::time::Duration,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig { workers: 0, tick_interval: std::time::Duration::from_millis(5) }
    }
}

/// One step of a session *program* — the scripted form a fleet driver
/// hands to [`Reactor::spawn_program`]. The worker runs steps in order;
/// a program that runs out of steps commits implicitly.
#[derive(Clone, Debug, PartialEq)]
pub enum ProgramStep {
    /// Execute one operation (parks the state machine if it must wait).
    Execute(ResourceId, ScalarOp),
    /// Disconnect for this many *virtual* microseconds, then awake.
    SleepFor(u64),
    /// Commit now (steps after this never run).
    Commit,
    /// Abort now (steps after this never run).
    Abort,
}

/// How a session ended, recorded in the reactor's commit ledger — the
/// acked outcome a client of the blocking API would have observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Committed; its write set is permanent.
    Committed,
    /// Aborted with the front-visible reason (deadlock victim, wait
    /// timeout, commit-time constraint violation, ...).
    Aborted(AbortReason),
    /// Aborted by [`Session::awake`] discovering incompatible activity
    /// while the session slept (paper Algorithm 9, third branch).
    AwakeAborted,
    /// The program requested the abort itself.
    UserAborted,
    /// An infrastructure error surfaced (engine failure, simulated
    /// crash); carries the error text.
    Failed(String),
}

/// Reply payload a [`SessionHandle`] call blocks on.
#[derive(Clone, Debug)]
pub enum StepReply {
    /// `execute` settled with this outcome.
    Outcome(SessionOutcome),
    /// `awake` settled with this outcome.
    Awoke(AwakeOutcome),
    /// `commit` settled with this result.
    Committed(CommitResult),
    /// `sleep` / `abort` completed.
    Unit,
}

/// One message on a worker's op queue.
enum Msg {
    /// Adopt a new session state machine (registered in the owner map
    /// *before* this message is sent, so no wake can outrun it).
    Spawn { core: Box<SessionCore>, enq_us: u64 },
    /// One blocking-API call relayed by a [`SessionHandle`].
    Step { txn: TxnId, op: StepOp, cell: Arc<ReplyCell>, enq_us: u64 },
    /// A resume/abort signal routed by the [`WakeSink`].
    Wake { txn: TxnId, signal: Signal, enq_us: u64 },
    /// Drain and exit the worker loop.
    Shutdown,
}

impl Msg {
    /// The session a message is addressed to, if any.
    fn txn(&self) -> Option<TxnId> {
        match self {
            Msg::Spawn { core, .. } => Some(core.session.id()),
            Msg::Step { txn, .. } | Msg::Wake { txn, .. } => Some(*txn),
            Msg::Shutdown => None,
        }
    }
}

/// The op a [`SessionHandle`] call relays to the owner worker.
enum StepOp {
    /// [`SessionHandle::execute`].
    Execute(ResourceId, ScalarOp),
    /// [`SessionHandle::sleep`].
    Sleep,
    /// [`SessionHandle::awake`].
    Awake,
    /// [`SessionHandle::commit`].
    Commit,
    /// [`SessionHandle::abort`].
    Abort,
}

/// A timer-wheel event.
enum TimerEv {
    /// A `SleepFor` elapsed: awaken the session.
    Awake(TxnId),
    /// Advance a shard's clock (wait timeouts, deadlock detection) while
    /// it has parked sessions.
    TickShard(usize),
}

/// Lifecycle phase of a session state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CorePhase {
    /// On (or runnable on) its worker.
    Running,
    /// Parked behind incompatible work on `shard`; a routed signal
    /// resumes or aborts it.
    Waiting(usize),
    /// A single-shard commit queued at `shard`'s group-commit station;
    /// a flush pass (this worker's, or a routed `Settled` from another
    /// leader) settles it.
    Committing(usize),
    /// Disconnected. No queue slot, no worker time; at most one
    /// timer-wheel entry (program mode) points back at it.
    Sleeping,
    /// Committed or aborted; the ledger holds its fate.
    Finished,
}

/// An inert session state machine: the blocking [`Session`] plus the
/// program counter and phase the worker needs to drive it from events.
struct SessionCore {
    session: Session,
    /// Scripted steps ([`Reactor::spawn_program`]); empty in handle mode.
    program: Vec<ProgramStep>,
    /// Next step to run.
    pc: usize,
    phase: CorePhase,
    /// Handle-mode only: the reply cell of a parked `execute`, filled
    /// when its signal is delivered.
    pending_reply: Option<Arc<ReplyCell>>,
}

/// A one-shot reply slot a [`SessionHandle`] call parks on. `std::sync`
/// primitives: the `parking_lot` shim carries no condvar, and poisoning
/// must not panic the front (the guard is recovered).
struct ReplyCell {
    reply: std::sync::Mutex<Option<PstmResult<StepReply>>>,
    cond: std::sync::Condvar,
}

impl ReplyCell {
    fn new() -> ReplyCell {
        ReplyCell { reply: std::sync::Mutex::new(None), cond: std::sync::Condvar::new() }
    }

    fn fill(&self, result: PstmResult<StepReply>) {
        let mut reply = self.reply.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *reply = Some(result);
        self.cond.notify_all();
    }

    fn take_blocking(&self) -> PstmResult<StepReply> {
        let mut reply = self.reply.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(result) = reply.take() {
                return result;
            }
            reply = self.cond.wait(reply).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// The acked-commit ledger: every finished session's fate, plus a
/// condvar so a fleet driver can block until `n` sessions finished.
struct Ledger {
    fates: std::sync::Mutex<BTreeMap<TxnId, Fate>>,
    cond: std::sync::Condvar,
}

impl Ledger {
    fn new() -> Ledger {
        Ledger { fates: std::sync::Mutex::new(BTreeMap::new()), cond: std::sync::Condvar::new() }
    }

    fn record(&self, txn: TxnId, fate: Fate) {
        let mut fates = self.fates.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        fates.insert(txn, fate);
        self.cond.notify_all();
    }

    fn wait_finished(&self, n: usize) {
        let mut fates = self.fates.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        while fates.len() < n {
            fates = self.cond.wait(fates).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn snapshot(&self) -> BTreeMap<TxnId, Fate> {
        self.fates.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }
}

/// Gauges and accumulators shared by the workers, the router, and the
/// snapshot path. All atomics use acquire/release — the relaxed tier is
/// reserved for the audited seams.
struct Shared {
    /// Undelivered messages per worker queue.
    depth: Vec<AtomicU64>,
    running: AtomicU64,
    waiting: AtomicU64,
    committing: AtomicU64,
    sleeping: AtomicU64,
    finished: AtomicU64,
    /// Wakes dropped because the addressee was not waiting (benign —
    /// e.g. the wait already settled through another path).
    stale: AtomicU64,
    wake_hist: Mutex<Histogram>,
    timer_hist: Mutex<Histogram>,
    ledger: Ledger,
}

impl Shared {
    fn new(workers: usize) -> Shared {
        Shared {
            depth: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            running: AtomicU64::new(0),
            waiting: AtomicU64::new(0),
            committing: AtomicU64::new(0),
            sleeping: AtomicU64::new(0),
            finished: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            wake_hist: Mutex::new(wake_latency_histogram()),
            timer_hist: Mutex::new(wake_latency_histogram()),
            ledger: Ledger::new(),
        }
    }

    fn gauge(&self, phase: CorePhase) -> &AtomicU64 {
        match phase {
            CorePhase::Running => &self.running,
            CorePhase::Waiting(_) => &self.waiting,
            CorePhase::Committing(_) => &self.committing,
            CorePhase::Sleeping => &self.sleeping,
            CorePhase::Finished => &self.finished,
        }
    }

    fn census(&self) -> ReactorCensus {
        ReactorCensus {
            running: self.running.load(Ordering::Acquire),
            waiting: self.waiting.load(Ordering::Acquire),
            committing: self.committing.load(Ordering::Acquire),
            sleeping: self.sleeping.load(Ordering::Acquire),
            finished: self.finished.load(Ordering::Acquire),
        }
    }

    fn snapshot(&self) -> ReactorSnapshot {
        ReactorSnapshot {
            queue_depth: self.depth.iter().map(|d| d.load(Ordering::Acquire)).collect(),
            wake_latency_us: self.wake_hist.lock().clone(),
            timer_lag_us: self.timer_hist.lock().clone(),
            census: self.census(),
            stale_wakes: self.stale.load(Ordering::Acquire),
        }
    }
}

/// The threaded [`WakeSink`]: looks up the owner worker and enqueues.
/// Holds the front weakly (the front holds the sink — a strong edge
/// back would leak the pair) and falls back to the mailbox for
/// transactions no worker owns, so blocking sessions coexist with the
/// reactor on one front-end.
struct Router {
    owners: Mutex<BTreeMap<TxnId, usize>>,
    txs: Vec<Sender<Msg>>,
    shared: Arc<Shared>,
    front: Weak<FrontInner>,
}

impl Router {
    fn front(&self) -> Option<ShardedFront> {
        self.front.upgrade().map(|inner| ShardedFront { inner })
    }
}

impl WakeSink for Router {
    fn route_wake(&self, txn: TxnId, signal: Signal) {
        let Some(front) = self.front() else { return };
        let owner = self.owners.lock().get(&txn).copied();
        match owner {
            Some(worker) => {
                let enq_us = front.now().0;
                self.shared.depth[worker].fetch_add(1, Ordering::AcqRel);
                if self.txs[worker].send(Msg::Wake { txn, signal, enq_us }).is_err() {
                    // Worker already shut down; the signal is moot.
                    self.shared.depth[worker].fetch_sub(1, Ordering::AcqRel);
                }
            }
            None => front.mail_deposit(txn, signal),
        }
    }

    fn census(&self) -> ReactorCensus {
        self.shared.census()
    }
}

/// Everything one worker owns: its sessions, its timer wheel, and its
/// per-shard wait accounting. Transport-free — both the threaded loop
/// and the deterministic driver feed it through [`WorkerState::handle`]
/// and [`WorkerState::fire_due`], so the property tests exercise the
/// exact state machine production runs.
struct WorkerState {
    worker: usize,
    front: ShardedFront,
    shared: Arc<Shared>,
    cores: BTreeMap<TxnId, SessionCore>,
    wheel: TimerWheel<TimerEv>,
    /// Sessions of this worker parked per shard — while non-zero the
    /// shard keeps a tick timer armed.
    waiting_on: BTreeMap<usize, u64>,
    /// Shards with a tick timer currently in the wheel.
    tick_armed: BTreeSet<usize>,
    tick_us: u64,
    /// Commits of this worker's sessions parked per station shard — the
    /// shards a flush pass leads a round on.
    committing_on: BTreeMap<usize, u64>,
    /// Parked commits in park order, `(parked at, txn)`; entries whose
    /// core has since settled are skipped lazily, so the first live one
    /// is the oldest.
    commit_order: VecDeque<(u64, TxnId)>,
    /// Durations of the last [`PASS_WINDOW`] flush passes, and their
    /// median — how long the oldest parked commit may wait before a
    /// busy worker interrupts its queue for a pass.
    pass_us: VecDeque<u64>,
    pass_median_us: u64,
    /// Whether this worker's clock is the wall clock (threaded loop) or
    /// the driver's virtual clock, which stands still within a step.
    wall_clock: bool,
}

/// Flush passes the worker's deadline rule takes the median over.
const PASS_WINDOW: usize = 16;

/// A settled commit's ledger fate.
fn commit_fate(result: &PstmResult<CommitResult>) -> Fate {
    match result {
        Ok(CommitResult::Committed) => Fate::Committed,
        Ok(CommitResult::Aborted(reason)) => Fate::Aborted(*reason),
        Err(e) => Fate::Failed(e.to_string()),
    }
}

impl WorkerState {
    fn new(
        worker: usize,
        front: ShardedFront,
        shared: Arc<Shared>,
        tick_us: u64,
        wall_clock: bool,
    ) -> WorkerState {
        WorkerState {
            worker,
            front,
            shared,
            cores: BTreeMap::new(),
            wheel: TimerWheel::new(),
            waiting_on: BTreeMap::new(),
            tick_armed: BTreeSet::new(),
            tick_us: tick_us.max(1),
            committing_on: BTreeMap::new(),
            commit_order: VecDeque::new(),
            pass_us: VecDeque::with_capacity(PASS_WINDOW),
            pass_median_us: 0,
            wall_clock,
        }
    }

    /// The worker's clock, `now_us` being its last sample: re-read in
    /// the threaded loop, unchanged under the deterministic driver.
    fn clock(&self, now_us: u64) -> u64 {
        if self.wall_clock {
            self.front.now().0
        } else {
            now_us
        }
    }

    /// Moves a core between lifecycle phases, keeping the census gauges
    /// exact.
    fn set_phase(&mut self, core: &mut SessionCore, next: CorePhase) {
        if core.phase == next {
            return;
        }
        self.shared.gauge(core.phase).fetch_sub(1, Ordering::AcqRel);
        self.shared.gauge(next).fetch_add(1, Ordering::AcqRel);
        core.phase = next;
    }

    /// Retires a core: ledger entry, gauge transition, and the parked
    /// reply (if any) answered by the caller beforehand.
    fn finish(&mut self, core: &mut SessionCore, fate: Fate) {
        self.set_phase(core, CorePhase::Finished);
        self.shared.ledger.record(core.session.id(), fate);
    }

    /// Parks a core behind `shard` and makes sure the shard's clock
    /// keeps advancing while anyone waits on it.
    fn park_on(&mut self, core: &mut SessionCore, shard: usize, now_us: u64) {
        self.set_phase(core, CorePhase::Waiting(shard));
        *self.waiting_on.entry(shard).or_insert(0) += 1;
        self.arm_tick(shard, now_us);
    }

    /// Ends a core's wait on `shard` (resume or abort — either way the
    /// shard has one fewer waiter from this worker).
    fn unpark_from(&mut self, shard: usize) {
        if let Some(n) = self.waiting_on.get_mut(&shard) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.waiting_on.remove(&shard);
            }
        }
    }

    /// Arms (once) a tick timer for `shard`. The first tick fires on the
    /// fallback cadence; each firing re-schedules off the shard's exact
    /// next wake deadline while waiters remain.
    fn arm_tick(&mut self, shard: usize, now_us: u64) {
        if !self.tick_armed.insert(shard) {
            return;
        }
        let deadline = self.front.tick_shard(shard);
        let cap = now_us.saturating_add(self.tick_us);
        let at = deadline.map_or(cap, |d| d.0.min(cap));
        self.wheel.schedule_at(at.max(now_us), TimerEv::TickShard(shard));
    }

    /// One message. `now_us` is the driver's clock — wall microseconds
    /// in threaded mode, the virtual clock in deterministic mode.
    fn handle(&mut self, msg: Msg, now_us: u64) {
        self.shared.depth[self.worker].fetch_sub(1, Ordering::AcqRel);
        // Every carried message pays an enqueue→delivery latency; the
        // histogram is what the fleet bench reports as wake p50/p99.
        let enq_us = match &msg {
            Msg::Spawn { enq_us, .. } | Msg::Step { enq_us, .. } | Msg::Wake { enq_us, .. } => {
                Some(*enq_us)
            }
            Msg::Shutdown => None,
        };
        if let Some(enq_us) = enq_us {
            self.shared.wake_hist.lock().record(now_us.saturating_sub(enq_us));
        }
        match msg {
            Msg::Spawn { core, .. } => {
                let txn = core.session.id();
                self.shared.gauge(CorePhase::Running).fetch_add(1, Ordering::AcqRel);
                self.cores.insert(txn, *core);
                self.run_program(txn, now_us);
            }
            Msg::Step { txn, op, cell, .. } => self.handle_step(txn, op, &cell, now_us),
            Msg::Wake { txn, signal, enq_us } => self.handle_wake(txn, signal, enq_us, now_us),
            Msg::Shutdown => {}
        }
    }

    /// Emits the retroactive `queued` span: opened at enqueue time,
    /// closed at delivery — its width *is* the wake latency, visible in
    /// the same trace as the session's other phases.
    fn emit_queued_span(&self, core: &SessionCore, enq_us: u64, now_us: u64) {
        if let Some(home) = core.session.home {
            let txn = core.session.id();
            let tracer = &self.front.inner.tracers[home];
            tracer.emit(
                Timestamp(enq_us),
                TraceEvent::SpanOpen { txn, kind: SpanKind::Queued, wall_us: None },
            );
            tracer.emit(
                Timestamp(now_us.max(enq_us)),
                TraceEvent::SpanClose { txn, kind: SpanKind::Queued, wall_us: None },
            );
        }
    }

    fn handle_wake(&mut self, txn: TxnId, signal: Signal, enq_us: u64, now_us: u64) {
        let Some(mut core) = self.cores.remove(&txn) else {
            self.shared.stale.fetch_add(1, Ordering::AcqRel);
            return;
        };
        if let (CorePhase::Committing(_), Signal::Settled(result)) = (core.phase, &signal) {
            // Another leader's round settled our parked commit.
            self.emit_queued_span(&core, enq_us, now_us);
            self.settle_core(core, result.clone());
            return;
        }
        let (CorePhase::Waiting(shard), Signal::Resumed(_) | Signal::Aborted(_)) =
            (core.phase, &signal)
        else {
            // Delivered, finished, or back asleep through another path:
            // benign, counted, dropped (awake() re-discovers aborts).
            self.shared.stale.fetch_add(1, Ordering::AcqRel);
            self.cores.insert(txn, core);
            return;
        };
        self.emit_queued_span(&core, enq_us, now_us);
        self.unpark_from(shard);
        self.set_phase(&mut core, CorePhase::Running);
        match core.session.deliver(shard, signal) {
            Ok(SessionOutcome::Value(v)) => {
                if let Some(cell) = core.pending_reply.take() {
                    cell.fill(Ok(StepReply::Outcome(SessionOutcome::Value(v))));
                    self.cores.insert(txn, core);
                } else {
                    self.cores.insert(txn, core);
                    self.run_program(txn, now_us);
                }
            }
            Ok(SessionOutcome::Aborted(reason)) => {
                self.finish(&mut core, Fate::Aborted(reason));
                if let Some(cell) = core.pending_reply.take() {
                    cell.fill(Ok(StepReply::Outcome(SessionOutcome::Aborted(reason))));
                }
            }
            Err(e) => {
                let text = e.to_string();
                self.finish(&mut core, Fate::Failed(text));
                if let Some(cell) = core.pending_reply.take() {
                    cell.fill(Err(e));
                }
            }
        }
    }

    fn handle_step(&mut self, txn: TxnId, op: StepOp, cell: &Arc<ReplyCell>, now_us: u64) {
        let Some(mut core) = self.cores.remove(&txn) else {
            cell.fill(Err(PstmError::InvalidState {
                txn,
                action: "reactor-step",
                state: "finished",
            }));
            return;
        };
        match op {
            StepOp::Execute(resource, sop) => match core.session.try_execute(resource, sop) {
                Ok(TryExec::Done(outcome)) => {
                    if let SessionOutcome::Aborted(reason) = &outcome {
                        self.finish(&mut core, Fate::Aborted(*reason));
                    }
                    cell.fill(Ok(StepReply::Outcome(outcome)));
                }
                Ok(TryExec::Parked { shard }) => {
                    core.pending_reply = Some(Arc::clone(cell));
                    self.park_on(&mut core, shard, now_us);
                }
                Err(e) => {
                    self.finish(&mut core, Fate::Failed(e.to_string()));
                    cell.fill(Err(e));
                }
            },
            StepOp::Sleep => match core.session.sleep() {
                Ok(()) => {
                    self.set_phase(&mut core, CorePhase::Sleeping);
                    cell.fill(Ok(StepReply::Unit));
                }
                Err(e) => {
                    self.finish(&mut core, Fate::Failed(e.to_string()));
                    cell.fill(Err(e));
                }
            },
            StepOp::Awake => match core.session.awake() {
                Ok(AwakeOutcome::Resumed(values)) => {
                    self.set_phase(&mut core, CorePhase::Running);
                    cell.fill(Ok(StepReply::Awoke(AwakeOutcome::Resumed(values))));
                }
                Ok(AwakeOutcome::Aborted) => {
                    self.finish(&mut core, Fate::AwakeAborted);
                    cell.fill(Ok(StepReply::Awoke(AwakeOutcome::Aborted)));
                }
                Err(e) => {
                    self.finish(&mut core, Fate::Failed(e.to_string()));
                    cell.fill(Err(e));
                }
            },
            StepOp::Commit => match self.start_commit(&mut core, now_us) {
                None => core.pending_reply = Some(Arc::clone(cell)),
                Some(result) => {
                    self.finish(&mut core, commit_fate(&result));
                    cell.fill(result.map(StepReply::Committed));
                }
            },
            StepOp::Abort => match core.session.abort() {
                Ok(()) => {
                    self.finish(&mut core, Fate::UserAborted);
                    cell.fill(Ok(StepReply::Unit));
                }
                Err(e) => {
                    self.finish(&mut core, Fate::Failed(e.to_string()));
                    cell.fill(Err(e));
                }
            },
        }
        // A finished core is dropped, not retained: a 100k-session fleet
        // must not carry 100k dead state machines to shutdown. Late
        // steps hit the missing-core arm above; late wakes count stale.
        if core.phase != CorePhase::Finished {
            self.cores.insert(txn, core);
        }
    }

    /// Runs a program-mode core forward until it parks, sleeps, or
    /// finishes. Handle-mode cores (empty program) fall straight
    /// through to the implicit-commit arm only if spawned with one —
    /// they are driven by `Step` messages instead.
    fn run_program(&mut self, txn: TxnId, now_us: u64) {
        let Some(mut core) = self.cores.remove(&txn) else { return };
        if core.program.is_empty() {
            // Handle mode: nothing scripted to run.
            self.cores.insert(txn, core);
            return;
        }
        loop {
            if core.phase == CorePhase::Finished {
                break;
            }
            let Some(step) = core.program.get(core.pc).cloned() else {
                self.settle_commit(&mut core, now_us);
                break;
            };
            core.pc += 1;
            match step {
                ProgramStep::Execute(resource, op) => {
                    match core.session.try_execute(resource, op) {
                        Ok(TryExec::Done(SessionOutcome::Value(_))) => {}
                        Ok(TryExec::Done(SessionOutcome::Aborted(reason))) => {
                            self.finish(&mut core, Fate::Aborted(reason));
                        }
                        Ok(TryExec::Parked { shard }) => {
                            self.park_on(&mut core, shard, now_us);
                            break;
                        }
                        Err(e) => self.finish(&mut core, Fate::Failed(e.to_string())),
                    }
                }
                ProgramStep::SleepFor(us) => match core.session.sleep() {
                    Ok(()) => {
                        self.set_phase(&mut core, CorePhase::Sleeping);
                        self.wheel.schedule_at(now_us.saturating_add(us), TimerEv::Awake(txn));
                        break;
                    }
                    Err(e) => self.finish(&mut core, Fate::Failed(e.to_string())),
                },
                ProgramStep::Commit => {
                    self.settle_commit(&mut core, now_us);
                    break;
                }
                ProgramStep::Abort => {
                    match core.session.abort() {
                        Ok(()) => self.finish(&mut core, Fate::UserAborted),
                        Err(e) => self.finish(&mut core, Fate::Failed(e.to_string())),
                    }
                    break;
                }
            }
        }
        // Same policy as `handle_step`: Finished cores are dropped.
        if core.phase != CorePhase::Finished {
            self.cores.insert(txn, core);
        }
    }

    /// A program's commit: parked at its station, or settled inline.
    fn settle_commit(&mut self, core: &mut SessionCore, now_us: u64) {
        if let Some(result) = self.start_commit(core, now_us) {
            self.finish(core, commit_fate(&result));
        }
    }

    /// Starts `core`'s commit. A grouped single-shard commit parks at its
    /// shard's station (`None`: a flush pass settles it later); any other
    /// commit runs inline and its outcome is returned.
    fn start_commit(
        &mut self,
        core: &mut SessionCore,
        now_us: u64,
    ) -> Option<PstmResult<CommitResult>> {
        match core.session.park_commit() {
            Ok(Some(shard)) => {
                self.set_phase(core, CorePhase::Committing(shard));
                *self.committing_on.entry(shard).or_insert(0) += 1;
                self.commit_order.push_back((now_us, core.session.id()));
                None
            }
            Ok(None) => Some(core.session.commit()),
            Err(e) => Some(Err(e)),
        }
    }

    /// True while any of this worker's sessions waits at a station.
    fn has_parked_commits(&self) -> bool {
        !self.committing_on.is_empty()
    }

    /// One flush pass: leads one round at every station this worker has
    /// commits parked on, then settles the outcomes — its own cores
    /// directly, another worker's through a routed `Settled`. Returns
    /// whether any round had a wave to flush (`false`: every parked
    /// commit is in another leader's hands, its outcome on the way).
    fn flush_pass(&mut self, now_us: u64) -> bool {
        let started = self.clock(now_us);
        // The leader's pass is its group-wait station; the round's
        // nested phases carve out their own time.
        let _wait = prof::PhaseTimer::start(CommitPhase::GroupWait);
        let shards: Vec<usize> = self.committing_on.keys().copied().collect();
        let mut led = false;
        for shard in shards {
            let round = {
                let fence = self.front.lock_fence(shard);
                self.front.lead_group_round(shard, &fence)
            };
            let Some(parked) = round else { continue };
            led = true;
            for (txn, result) in parked {
                match self.cores.remove(&txn) {
                    Some(core) => self.settle_core(core, result),
                    None => self.front.route_settled(txn, result),
                }
            }
        }
        self.record_pass(self.clock(now_us).saturating_sub(started));
        led
    }

    /// Folds one pass duration into the window and its median (the
    /// upper median over an even count).
    fn record_pass(&mut self, us: u64) {
        if self.pass_us.len() == PASS_WINDOW {
            self.pass_us.pop_front();
        }
        self.pass_us.push_back(us);
        let mut sorted: Vec<u64> = self.pass_us.iter().copied().collect();
        sorted.sort_unstable();
        self.pass_median_us = sorted[sorted.len() / 2];
    }

    /// The deadline rule: runs a flush pass once the oldest parked
    /// commit has waited as long as the median recent pass — so a busy
    /// queue delays a commit by about one pass, never indefinitely.
    fn flush_if_overdue(&mut self, now_us: u64) {
        while let Some(&(_, txn)) = self.commit_order.front() {
            if self.cores.get(&txn).is_some_and(|c| matches!(c.phase, CorePhase::Committing(_))) {
                break;
            }
            self.commit_order.pop_front();
        }
        let Some(&(parked_at, _)) = self.commit_order.front() else { return };
        if self.clock(now_us).saturating_sub(parked_at) >= self.pass_median_us {
            self.flush_pass(now_us);
        }
    }

    /// Ends a parked commit with its round's outcome: ledger fate, the
    /// handle's reply (if one waits), and the core is dropped.
    fn settle_core(&mut self, mut core: SessionCore, result: PstmResult<CommitResult>) {
        let CorePhase::Committing(shard) = core.phase else {
            // Not parked: the outcome is not this core's to take.
            self.shared.stale.fetch_add(1, Ordering::AcqRel);
            self.cores.insert(core.session.id(), core);
            return;
        };
        if let Some(n) = self.committing_on.get_mut(&shard) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.committing_on.remove(&shard);
            }
        }
        let result = core.session.settle_parked_commit(result);
        self.finish(&mut core, commit_fate(&result));
        if let Some(cell) = core.pending_reply.take() {
            cell.fill(result.map(StepReply::Committed));
        }
    }

    /// Fires every due timer, applying the flush deadline rule between
    /// timers. Returns how many fired.
    fn fire_due(&mut self, now_us: u64) -> usize {
        let mut fired = 0;
        while let Some((deadline, ev)) = self.wheel.pop_due(now_us) {
            fired += 1;
            self.shared.timer_hist.lock().record(now_us.saturating_sub(deadline));
            match ev {
                TimerEv::Awake(txn) => self.awake_session(txn, now_us),
                TimerEv::TickShard(shard) => self.tick_fire(shard, now_us),
            }
            self.flush_if_overdue(now_us);
        }
        fired
    }

    /// A `SleepFor` elapsed: reconnect the session and continue its
    /// program.
    fn awake_session(&mut self, txn: TxnId, now_us: u64) {
        let Some(mut core) = self.cores.remove(&txn) else { return };
        if core.phase != CorePhase::Sleeping {
            self.cores.insert(txn, core);
            return;
        }
        self.set_phase(&mut core, CorePhase::Running);
        match core.session.awake() {
            Ok(AwakeOutcome::Resumed(_)) => {
                self.cores.insert(txn, core);
                self.run_program(txn, now_us);
            }
            Ok(AwakeOutcome::Aborted) => self.finish(&mut core, Fate::AwakeAborted),
            Err(e) => self.finish(&mut core, Fate::Failed(e.to_string())),
        }
    }

    /// A shard tick fired: advance its clock (waking or aborting timed
    /// out waiters through the signal path) and re-arm while this
    /// worker still has sessions parked on it.
    fn tick_fire(&mut self, shard: usize, now_us: u64) {
        self.tick_armed.remove(&shard);
        if self.waiting_on.get(&shard).copied().unwrap_or(0) == 0 {
            return;
        }
        let deadline = self.front.tick_shard(shard);
        if self.waiting_on.get(&shard).copied().unwrap_or(0) == 0 {
            return;
        }
        if self.tick_armed.insert(shard) {
            let cap = now_us.saturating_add(self.tick_us);
            let at = deadline.map_or(cap, |d| d.0.min(cap));
            self.wheel.schedule_at(at.max(now_us.saturating_add(1)), TimerEv::TickShard(shard));
        }
    }
}

/// The threaded reactor: a fixed pool of worker loops over one
/// [`ShardedFront`]. Construction installs the wake sink; `shutdown`
/// uninstalls it and joins the pool.
pub struct Reactor {
    front: ShardedFront,
    router: Arc<Router>,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    workers: usize,
}

impl Reactor {
    /// Starts `config.workers` (or the auto pick) worker loops over
    /// `front` and installs the wake sink.
    ///
    /// # Panics
    /// If the front was not built with [`crate::FrontConfig::parked_waits`]
    /// — reactor mode forbids sleep-polling anywhere on the front.
    pub fn start(front: ShardedFront, config: ReactorConfig) -> PstmResult<Reactor> {
        assert!(
            front.inner.config.parked_waits,
            "reactor mode requires FrontConfig::parked_waits (no sleep-polling)"
        );
        let auto = std::thread::available_parallelism().map_or(4, |n| n.get()) * 2;
        let workers =
            if config.workers == 0 { front.shards().min(auto).max(1) } else { config.workers };
        let tick_us = config.tick_interval.as_micros().min(u128::from(u64::MAX)) as u64;
        let shared = Arc::new(Shared::new(workers));
        let mut txs = Vec::with_capacity(workers);
        let mut rxs = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = std::sync::mpsc::channel();
            txs.push(tx);
            rxs.push(rx);
        }
        let router = Arc::new(Router {
            owners: Mutex::new(BTreeMap::new()),
            txs,
            shared: Arc::clone(&shared),
            front: Arc::downgrade(&front.inner),
        });
        front.install_wake_sink(Arc::clone(&router) as Arc<dyn WakeSink>);
        let mut threads = Vec::with_capacity(workers);
        for (worker, rx) in rxs.into_iter().enumerate() {
            let state = WorkerState::new(worker, front.clone(), Arc::clone(&shared), tick_us, true);
            let handle = std::thread::Builder::new()
                .name(format!("pstm-reactor-{worker}"))
                .spawn(move || worker_loop(state, &rx))
                .map_err(|e| PstmError::Io(format!("spawn reactor worker {worker}: {e}")))?;
            threads.push(handle);
        }
        Ok(Reactor { front, router, shared, threads, workers })
    }

    /// Worker pool size.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The owner worker for a session whose home shard is `home`:
    /// shard-affine, so one shard's sessions never contend across
    /// workers for their shard's lock.
    // pstm-lockgraph: event-loop — routing on the reactor hot path; a
    // lock here would serialize every spawn and wake.
    #[must_use]
    fn owner_of(&self, home: usize) -> usize {
        home % self.workers
    }

    /// Spawns a scripted session (see [`ProgramStep`]); the worker runs
    /// it to completion, parking it through waits and sleeps. Returns
    /// its transaction id — look the outcome up in [`Reactor::ledger`]
    /// after [`Reactor::wait_finished`].
    pub fn spawn_program(&self, program: Vec<ProgramStep>) -> TxnId {
        let session = self.front.session();
        let txn = session.id();
        let home = program
            .iter()
            .find_map(|step| match step {
                ProgramStep::Execute(resource, _) => Some(self.front.shard_of(*resource)),
                _ => None,
            })
            .unwrap_or(0);
        let owner = self.owner_of(home);
        // Owner registration precedes the Spawn send: a wake produced by
        // the session's own first op (run on the worker, after Spawn) can
        // therefore never observe an unregistered owner.
        self.router.owners.lock().insert(txn, owner);
        let core =
            SessionCore { session, program, pc: 0, phase: CorePhase::Running, pending_reply: None };
        self.shared.depth[owner].fetch_add(1, Ordering::AcqRel);
        let enq_us = self.front.now().0;
        if self.router.txs[owner].send(Msg::Spawn { core: Box::new(core), enq_us }).is_err() {
            self.shared.depth[owner].fetch_sub(1, Ordering::AcqRel);
        }
        txn
    }

    /// Opens an API-compatible session handle: same call surface as the
    /// blocking [`Session`], each call relayed to the owner worker and
    /// blocked on a reply cell.
    #[must_use]
    pub fn handle(&self) -> SessionHandle {
        let session = self.front.session();
        let txn = session.id();
        SessionHandle {
            front: self.front.clone(),
            router: Arc::clone(&self.router),
            shared: Arc::clone(&self.shared),
            workers: self.workers,
            txn,
            boot: Some(Box::new(session)),
            owner: None,
        }
    }

    /// Session census from the shared gauges.
    #[must_use]
    pub fn census(&self) -> ReactorCensus {
        self.shared.census()
    }

    /// Queue/wake/timer observability snapshot.
    #[must_use]
    pub fn snapshot(&self) -> ReactorSnapshot {
        self.shared.snapshot()
    }

    /// Blocks until `n` sessions have finished (ledger size).
    pub fn wait_finished(&self, n: usize) {
        self.shared.ledger.wait_finished(n);
    }

    /// The acked-commit ledger: every finished session's fate.
    #[must_use]
    pub fn ledger(&self) -> BTreeMap<TxnId, Fate> {
        self.shared.ledger.snapshot()
    }

    /// Uninstalls the wake sink and joins the worker pool.
    pub fn shutdown(self) {
        self.front.clear_wake_sink();
        for tx in &self.router.txs {
            let _ = tx.send(Msg::Shutdown);
        }
        for handle in self.threads {
            let _ = handle.join();
        }
    }
}

/// The threaded worker loop: fire due timers, then park in the channel
/// bounded by the wheel's next deadline. No polling — an idle worker
/// sleeps until a message or timer arrives. While its sessions have
/// commits parked, the worker never parks: an empty queue is its cue to
/// run a flush pass, and a busy one is interrupted for a pass once the
/// oldest parked commit is overdue ([`WorkerState::flush_if_overdue`]).
fn worker_loop(mut state: WorkerState, rx: &Receiver<Msg>) {
    loop {
        let now_us = state.front.now().0;
        state.fire_due(now_us);
        state.flush_if_overdue(now_us);
        if state.has_parked_commits() {
            match rx.try_recv() {
                Ok(msg) => {
                    if !state.handle_or_shutdown(msg) {
                        return;
                    }
                    continue;
                }
                Err(TryRecvError::Disconnected) => return,
                Err(TryRecvError::Empty) => {
                    if state.flush_pass(now_us) {
                        continue;
                    }
                    // Every parked commit sits in another leader's wave;
                    // its outcome arrives as a message like any other.
                }
            }
        }
        let msg = match state.wheel.next_deadline() {
            None => match rx.recv() {
                Ok(msg) => msg,
                Err(_) => return,
            },
            Some(at) => {
                let now_us = state.front.now().0;
                if at <= now_us {
                    continue;
                }
                match rx.recv_timeout(std::time::Duration::from_micros(at - now_us)) {
                    Ok(msg) => msg,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            }
        };
        if !state.handle_or_shutdown(msg) {
            return;
        }
    }
}

impl WorkerState {
    /// The threaded loop's delivery: handles `msg`, or — on `Shutdown` —
    /// settles every commit still parked here and reports `false`.
    fn handle_or_shutdown(&mut self, msg: Msg) -> bool {
        let now_us = self.front.now().0;
        if matches!(msg, Msg::Shutdown) {
            // Shutdown is not depth-accounted (it carries no work). A
            // handle's commit may still be parked: flush it rather than
            // strand its caller.
            while self.has_parked_commits() && self.flush_pass(now_us) {}
            return false;
        }
        self.handle(msg, now_us);
        true
    }
}

/// A façade over one reactor-owned session, API-compatible with the
/// blocking [`Session`]: `execute` / `sleep` / `awake` / `commit` /
/// `abort` with the same signatures and outcomes. Each call enqueues a
/// step on the owner worker and blocks the *calling* thread on a reply
/// cell — the worker itself never blocks on another session.
pub struct SessionHandle {
    front: ShardedFront,
    router: Arc<Router>,
    shared: Arc<Shared>,
    workers: usize,
    txn: TxnId,
    /// The not-yet-adopted session; shipped to a worker on first use so
    /// the owner can be chosen shard-affine to the first touched
    /// resource.
    boot: Option<Box<Session>>,
    owner: Option<usize>,
}

impl SessionHandle {
    /// This session's transaction id.
    #[must_use]
    pub fn id(&self) -> TxnId {
        self.txn
    }

    /// Adopts the boot session on worker `owner` (first call only).
    fn ensure_spawned(&mut self, owner: usize) {
        let Some(session) = self.boot.take() else { return };
        self.owner = Some(owner);
        self.router.owners.lock().insert(self.txn, owner);
        let core = SessionCore {
            session: *session,
            program: Vec::new(),
            pc: 0,
            phase: CorePhase::Running,
            pending_reply: None,
        };
        self.shared.depth[owner].fetch_add(1, Ordering::AcqRel);
        let enq_us = self.front.now().0;
        if self.router.txs[owner].send(Msg::Spawn { core: Box::new(core), enq_us }).is_err() {
            self.shared.depth[owner].fetch_sub(1, Ordering::AcqRel);
        }
    }

    fn step(&mut self, affinity: Option<usize>, op: StepOp) -> PstmResult<StepReply> {
        let owner = match self.owner {
            Some(owner) => owner,
            None => affinity.unwrap_or(self.txn.0 as usize % self.workers),
        };
        self.ensure_spawned(owner);
        let cell = Arc::new(ReplyCell::new());
        self.shared.depth[owner].fetch_add(1, Ordering::AcqRel);
        let enq_us = self.front.now().0;
        let msg = Msg::Step { txn: self.txn, op, cell: Arc::clone(&cell), enq_us };
        if self.router.txs[owner].send(msg).is_err() {
            self.shared.depth[owner].fetch_sub(1, Ordering::AcqRel);
            return Err(PstmError::Io("reactor is shut down".into()));
        }
        cell.take_blocking()
    }

    /// See [`Session::execute`].
    pub fn execute(&mut self, resource: ResourceId, op: ScalarOp) -> PstmResult<SessionOutcome> {
        let home = self.front.shard_of(resource);
        let affinity = home % self.workers;
        match self.step(Some(affinity), StepOp::Execute(resource, op))? {
            StepReply::Outcome(outcome) => Ok(outcome),
            _ => Err(PstmError::InvalidState {
                txn: self.txn,
                action: "execute",
                state: "mismatched reactor reply",
            }),
        }
    }

    /// See [`Session::sleep`].
    pub fn sleep(&mut self) -> PstmResult<()> {
        match self.step(None, StepOp::Sleep)? {
            StepReply::Unit => Ok(()),
            _ => Err(PstmError::InvalidState {
                txn: self.txn,
                action: "sleep",
                state: "mismatched reactor reply",
            }),
        }
    }

    /// See [`Session::awake`].
    pub fn awake(&mut self) -> PstmResult<AwakeOutcome> {
        match self.step(None, StepOp::Awake)? {
            StepReply::Awoke(outcome) => Ok(outcome),
            _ => Err(PstmError::InvalidState {
                txn: self.txn,
                action: "awake",
                state: "mismatched reactor reply",
            }),
        }
    }

    /// See [`Session::commit`].
    pub fn commit(&mut self) -> PstmResult<CommitResult> {
        match self.step(None, StepOp::Commit)? {
            StepReply::Committed(result) => Ok(result),
            _ => Err(PstmError::InvalidState {
                txn: self.txn,
                action: "commit",
                state: "mismatched reactor reply",
            }),
        }
    }

    /// See [`Session::abort`].
    pub fn abort(&mut self) -> PstmResult<()> {
        match self.step(None, StepOp::Abort)? {
            StepReply::Unit => Ok(()),
            _ => Err(PstmError::InvalidState {
                txn: self.txn,
                action: "abort",
                state: "mismatched reactor reply",
            }),
        }
    }
}

pub mod det;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrontConfig;
    use pstm_types::{ScalarOp, Value};
    use pstm_workload::world::counter_world;

    fn parked_config(shards: usize) -> FrontConfig {
        FrontConfig { shards, parked_waits: true, ..FrontConfig::default() }
    }

    #[test]
    fn spawned_programs_commit_and_ledger_records_them() {
        let world = counter_world(8, 10).expect("world");
        let front = ShardedFront::new(world.db, world.bindings, parked_config(4));
        let reactor =
            Reactor::start(front.clone(), ReactorConfig::default()).expect("reactor starts");
        let mut txns = Vec::new();
        for (i, r) in world.resources.iter().enumerate() {
            txns.push(reactor.spawn_program(vec![
                ProgramStep::Execute(*r, ScalarOp::Add(Value::Int(i as i64 + 1))),
                ProgramStep::Commit,
            ]));
        }
        reactor.wait_finished(txns.len());
        let ledger = reactor.ledger();
        for txn in &txns {
            assert_eq!(ledger.get(txn), Some(&Fate::Committed), "txn {txn:?}");
        }
        let census = reactor.census();
        assert_eq!(census.finished, txns.len() as u64);
        assert_eq!(census.live(), 0);
        reactor.shutdown();
        front.verify_serializable().expect("serializable");
        for (i, r) in world.resources.iter().enumerate() {
            assert_eq!(
                front.resource_value(*r).expect("value"),
                pstm_types::Value::Int(10 + i as i64 + 1)
            );
        }
    }

    #[test]
    fn handle_is_api_compatible_with_blocking_session() {
        let world = counter_world(4, 5).expect("world");
        let front = ShardedFront::new(world.db, world.bindings, parked_config(2));
        let reactor =
            Reactor::start(front.clone(), ReactorConfig::default()).expect("reactor starts");
        let mut handle = reactor.handle();
        let r = world.resources[0];
        let out = handle.execute(r, ScalarOp::Add(Value::Int(3))).expect("execute");
        assert_eq!(out, SessionOutcome::Value(pstm_types::Value::Int(8)));
        handle.sleep().expect("sleep");
        assert_eq!(reactor.census().sleeping, 1);
        match handle.awake().expect("awake") {
            AwakeOutcome::Resumed(_) => {}
            AwakeOutcome::Aborted => panic!("uncontended awake must resume"),
        }
        assert_eq!(handle.commit().expect("commit"), CommitResult::Committed);
        reactor.shutdown();
        assert_eq!(front.resource_value(r).expect("value"), pstm_types::Value::Int(8));
    }

    #[test]
    fn grouped_handle_commits_park_and_settle_through_flush_passes() {
        let world = counter_world(4, 5).expect("world");
        let config = FrontConfig { group_commit: true, ..parked_config(1) };
        let front = ShardedFront::new(world.db, world.bindings, config);
        let reactor =
            Reactor::start(front.clone(), ReactorConfig::default()).expect("reactor starts");
        std::thread::scope(|scope| {
            for r in &world.resources {
                let mut handle = reactor.handle();
                scope.spawn(move || {
                    handle.execute(*r, ScalarOp::Add(Value::Int(1))).expect("execute");
                    assert_eq!(handle.commit().expect("commit"), CommitResult::Committed);
                });
            }
        });
        assert_eq!(reactor.census().committing, 0);
        assert_eq!(reactor.census().live(), 0);
        reactor.shutdown();
        for r in &world.resources {
            assert_eq!(front.resource_value(*r).expect("value"), Value::Int(6));
        }
        front.verify_serializable().expect("serializable");
    }

    #[test]
    fn shutdown_flushes_commits_still_parked() {
        // A worker reading `Shutdown` while a commit waits at its station
        // (a handle's caller blocked on the reply) must settle it first.
        let world = counter_world(1, 0).expect("world");
        let config = FrontConfig { group_commit: true, ..parked_config(1) };
        let front = ShardedFront::new(world.db, world.bindings, config);
        let shared = Arc::new(Shared::new(1));
        let mut state = WorkerState::new(0, front.clone(), Arc::clone(&shared), 1_000, true);
        let core = SessionCore {
            session: front.session(),
            program: vec![
                ProgramStep::Execute(world.resources[0], ScalarOp::Add(Value::Int(1))),
                ProgramStep::Commit,
            ],
            pc: 0,
            phase: CorePhase::Running,
            pending_reply: None,
        };
        shared.depth[0].fetch_add(1, Ordering::AcqRel);
        state.handle(Msg::Spawn { core: Box::new(core), enq_us: 0 }, 0);
        assert_eq!(shared.census().committing, 1, "the commit parks at its station");
        assert!(!state.handle_or_shutdown(Msg::Shutdown), "shutdown ends the loop");
        assert_eq!(shared.census().committing, 0);
        assert!(shared.ledger.snapshot().values().all(|fate| *fate == Fate::Committed));
        assert_eq!(front.resource_value(world.resources[0]).expect("value"), Value::Int(1));
    }

    #[test]
    fn sleeping_fleet_holds_no_queue_slots() {
        let world = counter_world(4, 0).expect("world");
        let front = ShardedFront::new(world.db, world.bindings, parked_config(2));
        let reactor =
            Reactor::start(front.clone(), ReactorConfig::default()).expect("reactor starts");
        let n = 64;
        for i in 0..n {
            let r = world.resources[i % world.resources.len()];
            reactor.spawn_program(vec![
                ProgramStep::Execute(r, ScalarOp::Add(Value::Int(1))),
                ProgramStep::SleepFor(5_000_000),
                ProgramStep::Commit,
            ]);
        }
        // Wait until the whole fleet is asleep, then check the queues.
        for _ in 0..2_000 {
            if reactor.census().sleeping == n as u64 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = reactor.snapshot();
        assert_eq!(snap.census.sleeping, n as u64, "fleet should be asleep");
        assert_eq!(
            snap.queue_depth.iter().sum::<u64>(),
            0,
            "sleeping sessions must hold zero queue slots: {:?}",
            snap.queue_depth
        );
        assert!((snap.census.sleeping_fraction() - 1.0).abs() < 1e-12);
        reactor.shutdown();
    }

    #[test]
    fn contended_execute_parks_and_wakes_through_the_sink() {
        // Two handles conflict on one counter: the second must park
        // (zero polling) and resume when the first commits.
        let world = counter_world(1, 0).expect("world");
        let front = ShardedFront::new(world.db, world.bindings, parked_config(1));
        let reactor =
            Reactor::start(front.clone(), ReactorConfig::default()).expect("reactor starts");
        let r = world.resources[0];
        let mut first = reactor.handle();
        assert!(matches!(
            first.execute(r, ScalarOp::Assign(Value::Int(7))).expect("first execute"),
            SessionOutcome::Value(_)
        ));
        let mut second = reactor.handle();
        let waiter = std::thread::spawn(move || {
            let out = second.execute(r, ScalarOp::Assign(Value::Int(9))).expect("second execute");
            (out, second)
        });
        // The waiter parks behind the incompatible Assign.
        for _ in 0..2_000 {
            if reactor.census().waiting == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(reactor.census().waiting, 1, "second session should be parked");
        assert_eq!(first.commit().expect("first commit"), CommitResult::Committed);
        let (out, mut second) = waiter.join().expect("waiter thread");
        assert_eq!(out, SessionOutcome::Value(pstm_types::Value::Int(9)));
        assert_eq!(second.commit().expect("second commit"), CommitResult::Committed);
        let snap = reactor.snapshot();
        assert!(snap.wake_latency_us.total() >= 1, "the wake must be measured");
        reactor.shutdown();
        assert_eq!(front.resource_value(r).expect("value"), pstm_types::Value::Int(9));
        front.verify_serializable().expect("serializable");
    }
}
