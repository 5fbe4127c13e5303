//! # pstm-front — a thread-safe sharded front-end over the GTM
//!
//! The core [`Gtm`] is single-threaded by design: the paper's algorithms
//! are specified against one manager mediating every invocation, and the
//! simulator drives it from a deterministic event loop. Real mobile
//! infrastructure terminates many concurrent client sessions at once, so
//! this crate partitions the resource space across `N` independent GTM
//! *shards* — each its own [`Mutex<Gtm>`] over the shared LDBS — and
//! exposes a blocking, session-oriented API
//! ([`Session::execute`] / [`Session::sleep`] / [`Session::awake`] /
//! [`Session::commit`] / [`Session::abort`]) safe to call from any OS
//! thread.
//!
//! Design points:
//!
//! - **Deterministic routing.** A resource lives on exactly one shard:
//!   `shard_of(r) = r.object.0 % N`. All scheduling state for a resource
//!   (pending/committing sets, wait queues, read snapshots) is owned by
//!   that shard, so the paper's per-resource algorithms run unchanged.
//! - **Cross-shard commit.** A session touching several shards commits
//!   through the phased API: shards are locked in ascending index order
//!   (no lock cycles between committers), [`Gtm::commit_local`] reconciles
//!   each shard's resources, and the per-shard write sets are folded into
//!   **one** [`Sst`] against the shared [`Database`] — the global commit
//!   stays atomic across shards because the SST applies its write set
//!   all-or-nothing. [`Gtm::commit_finish`] / [`Gtm::commit_abort`] then
//!   settle each shard's bookkeeping.
//! - **Wall-clock bridge.** Shards speak the virtual-clock
//!   [`Timestamp`]; the front-end stamps every call with microseconds
//!   elapsed since construction, sampled *while holding the shard lock*
//!   so per-shard timestamps stay monotone.
//! - **Waits block the thread.** Where the simulator parks a transaction
//!   and replays it on a resume event, a [`Session`] blocks its calling
//!   thread: resume/abort notifications produced by *other* sessions'
//!   effects are deposited in a mailbox, and the waiter polls it,
//!   periodically ticking its shard so wait timeouts and deadlock
//!   detection fire even on an otherwise idle shard. Deadlocks *across*
//!   shards are invisible to any single shard's waits-for graph —
//!   configure [`GtmConfig::wait_timeout`] (the default here) to bound
//!   them.
//! - **Spans.** Every session emits a span tree into its *home* shard's
//!   tracer (the first shard it touched): a `session` root whose leaves
//!   (`work` / `blocked{object}` / `admission_wait` / `sleep`) partition
//!   its lifetime, and a `commit` phase with `reconcile` and
//!   `sst_attempt{n}` children. Spans carry the virtual timestamp *and*
//!   a wall-clock field; see `pstm_obs::span`.
//! - **Fleet view.** [`ShardedFront::fleet_snapshot`] merges every shard
//!   registry (plus sink drop counts) into one [`FleetSnapshot`],
//!   renderable in Prometheus text format.

#![warn(missing_docs)]

pub mod reactor;
mod timer;

use parking_lot::{Mutex, MutexGuard};
use pstm_core::gtm::{CommitResult, Gtm, GtmConfig, GtmStats, LocalCommit};
use pstm_core::sst::Sst;
use pstm_obs::prof::{self, CommitPhase};
use pstm_obs::wallclock::WallAnchor;
use pstm_obs::{
    expo, MetricsRegistry, ReactorCensus, Recorder, RecorderStats, SpanKind, TraceEvent, Tracer,
};
use pstm_storage::{BindingRegistry, Database};
use pstm_types::{
    AbortReason, Duration, ExecOutcome, FaultDecision, FaultSite, PstmError, PstmResult,
    ResourceId, ScalarOp, SharedFaultHook, StepEffects, Timestamp, TxnId, TxnIdAllocator, Value,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration of the sharded front-end.
#[derive(Clone, Copy, Debug)]
pub struct FrontConfig {
    /// Number of GTM shards (must be ≥ 1).
    pub shards: usize,
    /// Per-shard GTM configuration. The default enables
    /// [`GtmConfig::wait_timeout`]: per-shard deadlock detection cannot
    /// see wait cycles spanning shards, so unbounded waits must not be
    /// allowed when sessions touch multiple shards.
    pub gtm: GtmConfig,
    /// How long a blocked session sleeps between mailbox polls.
    pub poll_interval: std::time::Duration,
    /// Route single-shard commits through the per-shard group-commit
    /// station: concurrent committers enqueue, one becomes the leader and
    /// flushes every queued commit with pairwise-disjoint writes as *one*
    /// fused SST ([`Gtm::commit_group`]), amortizing the WAL flush and
    /// engine apply. Cross-shard commits always take the phased
    /// coordinated path regardless of this flag.
    pub group_commit: bool,
    /// Upper bound on commits fused per group flush (≥ 1); only read
    /// when [`FrontConfig::group_commit`] is on.
    pub max_group: usize,
    /// Park blocked sessions on the front-end's wake pacer (a condvar
    /// notified by every signal deposit) instead of sleeping a fixed
    /// [`FrontConfig::poll_interval`] between mailbox polls, and make
    /// zero-length SST retry back-offs yield the core instead of
    /// spinning it. Reactor mode ([`reactor::Reactor`]) requires this;
    /// `false` keeps the original sleep-poll behavior byte-for-byte.
    pub parked_waits: bool,
}

impl Default for FrontConfig {
    fn default() -> Self {
        FrontConfig {
            shards: 4,
            gtm: GtmConfig {
                wait_timeout: Some(Duration::from_secs_f64(2.0)),
                ..GtmConfig::default()
            },
            poll_interval: std::time::Duration::from_micros(100),
            group_commit: false,
            max_group: 8,
            parked_waits: false,
        }
    }
}

/// Cumulative counters of the parked-wait seam, for tests asserting that
/// retry storms make progress without spinning a core
/// ([`ShardedFront::pacer_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PacerStats {
    /// Bounded condvar parks (mailbox polls and non-zero retry waits).
    pub parks: u64,
    /// Zero-length retry back-offs converted into scheduler yields.
    pub yields: u64,
    /// Deposit-side notifications that woke (or would wake) parkers.
    pub notifies: u64,
}

/// The parked-wait seam: blocked sessions wait *here* when
/// [`FrontConfig::parked_waits`] is on, and every signal deposit rings
/// the condvar, so a waiter resumes as soon as its signal lands instead
/// of on the next poll boundary. `std::sync` primitives on purpose: the
/// `parking_lot` shim carries no condvar, and a poisoned gate must not
/// panic the commit path (waiters recover the guard and re-poll).
struct Pacer {
    gate: std::sync::Mutex<u64>,
    cond: std::sync::Condvar,
    parks: AtomicU64,
    yields: AtomicU64,
    notifies: AtomicU64,
}

impl Pacer {
    fn new() -> Pacer {
        Pacer {
            gate: std::sync::Mutex::new(0),
            cond: std::sync::Condvar::new(),
            parks: AtomicU64::new(0),
            yields: AtomicU64::new(0),
            notifies: AtomicU64::new(0),
        }
    }

    /// Rings every parked waiter (deposit side).
    fn pacer_notify(&self) {
        self.notifies.fetch_add(1, Ordering::AcqRel);
        let mut gen = self.gate.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *gen = gen.wrapping_add(1);
        self.cond.notify_all();
    }

    /// Parks the calling thread until a notify or `dur`, whichever comes
    /// first. Spurious and stale wakeups are fine — every caller
    /// re-checks its condition in a loop, and the timeout bounds
    /// staleness exactly like the poll interval it replaces.
    fn pacer_park(&self, dur: std::time::Duration) {
        self.parks.fetch_add(1, Ordering::AcqRel);
        let gen = self.gate.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = self.cond.wait_timeout(gen, dur).unwrap_or_else(std::sync::PoisonError::into_inner);
    }

    /// A retry back-off: zero-length delays yield the core (progress
    /// without a spin), others park as above.
    fn pacer_backoff(&self, dur: std::time::Duration) {
        if dur.is_zero() {
            self.yields.fetch_add(1, Ordering::AcqRel);
            std::thread::yield_now();
        } else {
            self.pacer_park(dur);
        }
    }

    fn stats(&self) -> PacerStats {
        PacerStats {
            parks: self.parks.load(Ordering::Acquire),
            yields: self.yields.load(Ordering::Acquire),
            notifies: self.notifies.load(Ordering::Acquire),
        }
    }
}

/// A resume or abort notification for a blocked session, produced by
/// another session's step effects.
#[derive(Clone, Debug)]
enum Signal {
    /// The queued operation was granted; carries its result value.
    Resumed(Value),
    /// The transaction was aborted while waiting (deadlock victim, wait
    /// timeout, or released by an incompatible commit).
    Aborted(AbortReason),
    /// A reactor-parked commit was settled by a group-commit leader
    /// round; carries its outcome (reactor mode only — blocking
    /// committers learn theirs through a [`CommitSlot`]).
    Settled(PstmResult<CommitResult>),
}

/// Result of a blocking [`Session`] operation.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionOutcome {
    /// The operation completed (immediately or after a wait) with this
    /// value — for mutations, the new virtual-copy value.
    Value(Value),
    /// The transaction was aborted while the operation was queued; the
    /// session is finished and every shard has been cleaned up.
    Aborted(AbortReason),
}

/// Result of the non-blocking [`Session::try_execute`] half: either the
/// operation settled immediately, or it parked behind incompatible work
/// and the caller owns the wait (block on the mailbox, or — in reactor
/// mode — return to the event loop until the signal is routed).
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum TryExec {
    /// Settled without waiting.
    Done(SessionOutcome),
    /// Queued on `shard`; a future signal for this transaction resolves
    /// it via [`Session::deliver`].
    Parked {
        /// The shard whose wait queue holds the parked invocation.
        shard: usize,
    },
}

/// Result of [`Session::awake`].
#[derive(Clone, Debug, PartialEq)]
pub enum AwakeOutcome {
    /// Every shard resumed the transaction; any operations granted while
    /// it slept carry their values here (shard order).
    Resumed(Vec<Value>),
    /// Some shard saw incompatible activity while the transaction slept
    /// (Algorithm 9, third branch); it has been aborted everywhere.
    Aborted,
}

/// Fleet-wide metrics: every shard's registry merged into one, kept next
/// to the per-shard views and the total trace loss. Produced by
/// [`ShardedFront::fleet_snapshot`]; rendered for scrapers by
/// [`FleetSnapshot::prometheus`].
#[derive(Clone, Debug)]
pub struct FleetSnapshot {
    /// All shard registries merged ([`MetricsRegistry::merge`]).
    pub registry: MetricsRegistry,
    /// Each shard's registry, shard order.
    pub per_shard: Vec<MetricsRegistry>,
    /// Trace records dropped across all shard sinks (ring eviction) —
    /// non-zero means the persisted trace is incomplete even though the
    /// merged registry is not.
    pub trace_dropped: u64,
    /// Flight-recorder device stats at snapshot time, when a recorder is
    /// attached ([`ShardedFront::attach_recorder`]); `None` when the
    /// fleet flies dark. Rendered as `pstm_recorder_*` series.
    pub recorder: Option<RecorderStats>,
    /// The attached reactor's session census at snapshot time (`None`
    /// without a reactor). With a recorder attached it is recorded with
    /// the snapshot, so a post-mortem sees e.g. commits left parked.
    pub reactor: Option<ReactorCensus>,
}

impl FleetSnapshot {
    /// Renders the merged view in Prometheus text exposition format.
    #[must_use]
    pub fn prometheus(&self) -> String {
        expo::render_with_recorder(&self.registry, self.trace_dropped, self.recorder.as_ref())
    }
}

/// A parked committer's result cell in the group-commit station: `None`
/// until a leader settles the transaction, then its commit outcome (or
/// the leader's error, e.g. a simulated crash mid-group).
type CommitSlot = Arc<Mutex<Option<PstmResult<CommitResult>>>>;

/// One committer queued at a group-commit station, with where its
/// outcome goes: a blocking committer's [`CommitSlot`], or `None` for a
/// reactor-parked session, whose outcome the leader round hands back to
/// its caller for routing to the owning worker.
type StationEntry = (TxnId, Option<CommitSlot>);

struct FrontInner {
    db: Arc<Database>,
    bindings: BindingRegistry,
    shards: Vec<Mutex<Gtm>>,
    /// Shard tracers, shard order — clones of the tracers inside the
    /// shards, kept outside the shard mutexes so sessions can emit span
    /// events and snapshots can read registries without locking a shard.
    tracers: Vec<Tracer>,
    config: FrontConfig,
    next_txn: TxnIdAllocator,
    /// Monotonic epoch + Unix wall base, both sampled once at
    /// construction inside the wall-clock seam ([`WallAnchor::now`]);
    /// every virtual timestamp and span wall stamp the front emits is
    /// arithmetic on this anchor.
    anchor: WallAnchor,
    /// Per-shard group-commit queues (only used when
    /// [`FrontConfig::group_commit`] is on): FIFO of committers waiting
    /// for a leader to fuse and flush them.
    groups: Vec<Mutex<VecDeque<StationEntry>>>,
    /// Per-shard flush fences: one level *above* the shard mutexes in the
    /// lock order (fences ascending, then shard locks ascending; no path
    /// acquires a fence while holding any shard). Every reconciliation
    /// site — the group-commit station's leader round and the coordinated
    /// `commit_across` — holds its shard's fence across reconcile → SST
    /// flush → finish, so no commit anywhere reconciles against permanent
    /// state while a flush to that state is in flight (the lost-update
    /// window delta reconciliation cannot close on its own). Grants,
    /// executes, and wakeups take only the shard mutex and legitimately
    /// overlap a flush — that is the whole point: the station releases
    /// the shard during the device round-trip so waiting committers keep
    /// executing and fuse into the next wave.
    flush_fences: Vec<Mutex<()>>,
    mail: Mutex<BTreeMap<TxnId, Signal>>,
    /// Reactor-mode wake routing: when a sink is installed
    /// ([`ShardedFront::install_wake_sink`]), `deposit` hands every
    /// resume/abort signal to it instead of the mailbox, and the sink's
    /// owner (a [`reactor::Reactor`]) delivers it to the session's worker
    /// queue — an O(1) enqueue instead of a poll. `None` in blocking mode.
    wake: Mutex<Option<Arc<dyn reactor::WakeSink>>>,
    /// The parked-wait seam (see [`Pacer`]); only consulted when
    /// [`FrontConfig::parked_waits`] is on.
    pacer: Pacer,
    /// Fault seam consulted at the front-end's own phased-commit sites
    /// (`pre-sst`, `pre-finish`); `None` outside chaos runs. Lives here
    /// rather than in [`FrontConfig`] (which is `Copy`).
    fault_hook: Mutex<Option<SharedFaultHook>>,
    /// Attached flight recorder, if any: every [`fleet_snapshot`]
    /// appends a metrics-delta record to it and reports its device stats.
    /// Lives here rather than in [`FrontConfig`] (which is `Copy`).
    ///
    /// [`fleet_snapshot`]: ShardedFront::fleet_snapshot
    recorder: Mutex<Option<Recorder>>,
}

/// The sharded, thread-safe GTM front-end. Cheap to clone; clones share
/// the shards.
#[derive(Clone)]
pub struct ShardedFront {
    inner: Arc<FrontInner>,
}

impl ShardedFront {
    /// Builds a front-end of `config.shards` GTM shards over the shared
    /// engine, with tracing disabled.
    #[must_use]
    pub fn new(db: Arc<Database>, bindings: BindingRegistry, config: FrontConfig) -> Self {
        Self::with_shard_tracers(db, bindings, config, |_| Tracer::disabled())
    }

    /// [`ShardedFront::new`] with a tracer per shard. Give each shard its
    /// *own* tracer: a tracer is a shared mutex, so one tracer across all
    /// shards would serialize exactly the work the sharding parallelizes.
    /// Records still interleave coherently offline — every record carries
    /// the emitting thread's tag.
    ///
    /// # Panics
    /// In debug builds, if `tracer_for` hands the same tracer (clones
    /// included) to two different shards.
    #[must_use]
    pub fn with_shard_tracers(
        db: Arc<Database>,
        bindings: BindingRegistry,
        config: FrontConfig,
        mut tracer_for: impl FnMut(usize) -> Tracer,
    ) -> Self {
        assert!(config.shards >= 1, "a front-end needs at least one shard");
        let tracers: Vec<Tracer> = (0..config.shards).map(&mut tracer_for).collect();
        if cfg!(debug_assertions) {
            for (i, a) in tracers.iter().enumerate() {
                for (j, b) in tracers.iter().enumerate().skip(i + 1) {
                    assert!(
                        !a.same_registry(b),
                        "shards {i} and {j} share one tracer; a tracer is a shared \
                         mutex, so sharing it serializes all shards on it — give \
                         each shard its own"
                    );
                }
            }
        }
        let shards = tracers
            .iter()
            .map(|t| {
                Mutex::new(
                    Gtm::new(Arc::clone(&db), bindings.clone(), config.gtm).with_tracer(t.clone()),
                )
            })
            .collect();
        let groups = (0..config.shards).map(|_| Mutex::new(VecDeque::new())).collect();
        let flush_fences = (0..config.shards).map(|_| Mutex::new(())).collect();
        ShardedFront {
            inner: Arc::new(FrontInner {
                db,
                bindings,
                shards,
                tracers,
                config,
                next_txn: TxnIdAllocator::starting_at(1),
                anchor: WallAnchor::now(),
                groups,
                flush_fences,
                mail: Mutex::new(BTreeMap::new()),
                wake: Mutex::new(None),
                pacer: Pacer::new(),
                fault_hook: Mutex::new(None),
                recorder: Mutex::new(None),
            }),
        }
    }

    /// [`ShardedFront::new`] flying *recorded*: every shard gets its own
    /// tracer whose sink streams straight into `recorder`'s bounded
    /// crash-surviving ring file, and the recorder is attached so each
    /// [`ShardedFront::fleet_snapshot`] also appends a metrics-delta
    /// record. The stream `Meta` record is written here.
    #[must_use]
    pub fn with_recorder(
        db: Arc<Database>,
        bindings: BindingRegistry,
        config: FrontConfig,
        recorder: Recorder,
    ) -> Self {
        let front = Self::with_shard_tracers(db, bindings, config, |i| {
            Tracer::with_sink(Box::new(recorder.sink(i as u32)))
        });
        front.attach_recorder(recorder);
        front
    }

    /// Attaches a flight recorder to an already-built front-end: writes
    /// the stream `Meta` record (shard count + this front-end's wall
    /// base) and arms [`ShardedFront::fleet_snapshot`] to append a
    /// metrics-delta record per snapshot and report device stats. Does
    /// *not* rewire existing tracer sinks — to stream every trace event
    /// into the file, construct via [`ShardedFront::with_recorder`].
    pub fn attach_recorder(&self, recorder: Recorder) {
        recorder.write_meta(self.inner.shards.len() as u32, self.inner.anchor.base_us());
        *self.inner.recorder.lock() = Some(recorder);
    }

    /// Installs `hook` across the whole stack this front-end drives: the
    /// shared engine (WAL + SST-apply seams), every GTM shard (commit
    /// seams, tagged with the shard index), and this front-end's own
    /// phased-commit seams (`pre-sst`, `pre-finish`). One fault plan then
    /// counts arrivals at every labeled point a cross-shard commit passes
    /// through. Install before sessions start; shards are visited one at
    /// a time.
    pub fn set_fault_hook(&self, hook: SharedFaultHook) {
        self.inner.db.set_fault_hook(hook.clone());
        for (i, shard) in self.inner.shards.iter().enumerate() {
            shard.lock().set_fault_hook(hook.clone(), i as u32);
        }
        *self.inner.fault_hook.lock() = Some(hook);
    }

    /// Consults the front-end's own fault seam at `site`.
    fn fault_decision(&self, site: FaultSite) -> FaultDecision {
        match self.inner.fault_hook.lock().as_ref() {
            Some(hook) => hook.decide(site),
            None => FaultDecision::Proceed,
        }
    }

    /// True when no shard mutex is currently held — what "no leaked shard
    /// locks" means after a commit unwinds (successfully, by abort, or by
    /// a simulated crash). Callers must be quiescent: a concurrent
    /// session legitimately holding a shard reads as "locked".
    #[must_use]
    pub fn shards_unlocked(&self) -> bool {
        self.inner.shards.iter().all(|s| s.try_lock().is_some())
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// The shard owning `resource`. Deterministic: routing depends only
    /// on the object id and the shard count.
    // pstm-lockgraph: event-loop — the async front-end (ROADMAP item 1)
    // routes every request through here; it must never block.
    #[must_use]
    pub fn shard_of(&self, resource: ResourceId) -> usize {
        resource.object.0 as usize % self.inner.shards.len()
    }

    /// Microseconds of wall time since the front-end was built, as the
    /// virtual-clock timestamp the shards understand.
    #[must_use]
    pub fn now(&self) -> Timestamp {
        Timestamp(self.inner.anchor.elapsed_us())
    }

    /// Opens a new session (allocates its transaction id). The session
    /// begins lazily on each shard it touches.
    #[must_use]
    pub fn session(&self) -> Session {
        Session {
            front: self.clone(),
            id: self.inner.next_txn.allocate(),
            begun: BTreeSet::new(),
            finished: false,
            home: None,
            leaf: None,
        }
    }

    /// The tracer of shard `i` (clones share the registry).
    #[must_use]
    pub fn shard_tracer(&self, i: usize) -> Tracer {
        self.inner.tracers[i].clone()
    }

    /// One consistent fleet-wide view: every shard registry merged, plus
    /// the total trace loss across shard sinks. Shard registries are
    /// snapshotted one at a time (a fleet-wide freeze would serialize the
    /// shards this crate exists to parallelize), so counters that span
    /// shards — a cross-shard commit's per-shard `Committed` events — may
    /// be caught mid-flight; each shard's own numbers are internally
    /// consistent.
    #[must_use]
    pub fn fleet_snapshot(&self) -> FleetSnapshot {
        let per_shard: Vec<MetricsRegistry> =
            self.inner.tracers.iter().map(Tracer::snapshot).collect();
        let trace_dropped = self.inner.tracers.iter().map(Tracer::dropped).sum();
        let mut registry = MetricsRegistry::new();
        for shard in &per_shard {
            registry.merge(shard);
        }
        // Commit-path phase accounting is process-global (thread slots),
        // not per-shard; each snapshot absorbs the current cumulative
        // profile into the fresh merged registry, so repeated snapshots
        // never double-count.
        registry.absorb_phases(&prof::snapshot());
        // With a recorder attached, every fleet snapshot doubles as a
        // black-box heartbeat: the merged counters and phase profile go
        // into the ring as a delta record, so a post-mortem can replay
        // the metrics timeline up to the crash.
        let sink = self.inner.wake.lock().clone();
        let reactor = sink.map(|sink| sink.census());
        let recorder = self.inner.recorder.lock().as_ref().map(|rec| {
            rec.snapshot_delta(self.now(), &registry, &prof::snapshot(), reactor);
            rec.stats()
        });
        FleetSnapshot { registry, per_shard, trace_dropped, recorder, reactor }
    }

    /// Per-shard stats, shard order.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<GtmStats> {
        self.inner.shards.iter().map(|s| s.lock().stats()).collect()
    }

    /// Stats summed across shards.
    #[must_use]
    pub fn stats(&self) -> GtmStats {
        sum_stats(self.shard_stats())
    }

    /// Runs every shard's internal-invariant check; the error names the
    /// offending shard.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, shard) in self.inner.shards.iter().enumerate() {
            shard.lock().check_invariants().map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }

    /// Replays every shard's committed history through the serial checker;
    /// the error names the offending shard.
    pub fn verify_serializable(&self) -> Result<(), String> {
        for (i, shard) in self.inner.shards.iter().enumerate() {
            shard.lock().verify_serializable().map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }

    /// Reads a resource's current permanent value from the LDBS.
    pub fn resource_value(&self, resource: ResourceId) -> PstmResult<Value> {
        let b = self.inner.bindings.resolve(resource)?;
        self.inner.db.get_col(b.table, b.row, b.column)
    }

    /// Locks shard `i`, beginning transaction `id` on it first if `begun`
    /// doesn't record it yet.
    fn lock_shard_for(
        &self,
        i: usize,
        id: TxnId,
        begun: &mut BTreeSet<usize>,
    ) -> PstmResult<MutexGuard<'_, Gtm>> {
        let mut gtm = self.inner.shards[i].lock();
        if begun.insert(i) {
            let now = self.now();
            gtm.begin(id, now)?;
        }
        Ok(gtm)
    }

    /// Acquires several shard locks at once — the **only** sanctioned
    /// multi-shard acquisition path (enforced by `pstm-check`'s
    /// `lock-order` lint). `shards` must be strictly ascending: every
    /// concurrent committer then acquires in the same global order, so
    /// no lock cycle can form between cross-shard commits.
    ///
    /// # Panics
    /// If `shards` is not strictly ascending or names a shard that does
    /// not exist — both are front-end bugs, not recoverable states.
    fn lock_shards_ascending(&self, shards: &[usize]) -> Vec<MutexGuard<'_, Gtm>> {
        assert!(
            shards.windows(2).all(|w| w[0] < w[1]),
            "multi-shard lock order must be strictly ascending, got {shards:?}"
        );
        shards.iter().map(|&s| self.inner.shards[s].lock()).collect()
    }

    /// Acquires the flush fences for the given shard `indices`, ascending
    /// — always BEFORE any shard mutex (see [`FrontInner::flush_fences`]
    /// for the two-level lock order).
    fn lock_flush_fences(&self, indices: &[usize]) -> Vec<MutexGuard<'_, ()>> {
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "fence lock order must be strictly ascending, got {indices:?}"
        );
        indices.iter().map(|&s| self.inner.flush_fences[s].lock()).collect()
    }

    /// Acquires one shard's flush fence for a group-commit leader round
    /// ([`ShardedFront::lead_group_round`]).
    fn lock_fence(&self, shard: usize) -> MutexGuard<'_, ()> {
        let _adm = prof::PhaseTimer::start(CommitPhase::Admission);
        self.inner.flush_fences[shard].lock()
    }

    /// Emits `event` into shard `shard`'s tracer.
    fn emit_shard(&self, shard: usize, event: TraceEvent) {
        self.inner.tracers[shard].emit(self.now(), event);
    }

    /// One leader round at `shard`'s group-commit station — the only
    /// implementation, shared by the blocking station loop
    /// ([`Session::commit`]) and the reactor's flush pass. The caller
    /// holds the shard's flush fence (`_fence`) across the whole round.
    ///
    /// Drains a wave (FIFO, at most [`FrontConfig::max_group`]) and
    /// flushes it: reconcile under the shard mutex
    /// ([`Gtm::commit_group_local`]), one fused SST with the mutex
    /// released — the fence alone guards permanent state while the
    /// device round-trip is paid, so concurrent sessions keep executing
    /// and pile onto the queue for the next wave — then settle back
    /// under the mutex ([`Gtm::commit_group_finish`]). Members the
    /// greedy cut defers (write estimate overlapping the batch) return
    /// to the queue front in their original order, unsettled.
    ///
    /// Blocking members learn their outcome through their slots; the
    /// reactor members' outcomes are returned, wave order. `None` when
    /// the station had no wave to flush.
    pub(crate) fn lead_group_round(
        &self,
        shard: usize,
        _fence: &MutexGuard<'_, ()>,
    ) -> Option<Vec<(TxnId, PstmResult<CommitResult>)>> {
        let wave: Vec<StationEntry> = {
            let mut queue = self.inner.groups[shard].lock();
            let take = queue.len().min(self.inner.config.max_group.max(1));
            queue.drain(..take).collect()
        };
        if wave.is_empty() {
            return None;
        }
        let outcome = self.flush_wave(shard, &wave);
        let mut parked = Vec::new();
        for (txn, slot) in &wave {
            let result = match &outcome {
                Ok(settled) => match settled.iter().find(|(member, _)| member == txn) {
                    Some((_, result)) => Ok(result.clone()),
                    // Deferred: back on the queue for a later round.
                    None => continue,
                },
                // A leader-level failure dooms the whole wave: every
                // member learns the error, the caller recovers the engine.
                Err(err) => Err(err.clone()),
            };
            match slot {
                Some(slot) => *slot.lock() = Some(result),
                None => parked.push((*txn, result)),
            }
        }
        Some(parked)
    }

    /// The body of [`ShardedFront::lead_group_round`]: reconciles,
    /// flushes and settles one wave, returning every settled member's
    /// outcome, or the error that doomed the wave.
    fn flush_wave(
        &self,
        shard: usize,
        wave: &[StationEntry],
    ) -> PstmResult<Vec<(TxnId, CommitResult)>> {
        // Labeled fault seam: the wave is chosen, nothing reconciled or
        // flushed yet. A crash here kills the process with every wave
        // member still Active — recovery must show none of them.
        if !matches!(self.fault_decision(FaultSite::PreSst), FaultDecision::Proceed) {
            self.emit_shard(
                shard,
                TraceEvent::FaultInjected {
                    site: FaultSite::PreSst.label(),
                    action: "crash".into(),
                },
            );
            return Err(PstmError::Crashed(FaultSite::PreSst.label()));
        }
        let txns: Vec<TxnId> = wave.iter().map(|(txn, _)| *txn).collect();

        // Reconcile-and-park half, under the shard mutex — brief.
        let mut local = {
            let mut guards = {
                let _adm = prof::PhaseTimer::start(CommitPhase::Admission);
                self.lock_shards_ascending(&[shard])
            };
            let now = self.now();
            guards[0].commit_group_local(&txns, now)?
        };
        self.deposit(&local.effects);
        // Deferred members overlap the batch about to flush; their
        // reconciliation must read post-flush permanent state. Back to
        // the queue front, original order, for the next round.
        if !local.deferred.is_empty() {
            let mut queue = self.inner.groups[shard].lock();
            for txn in local.deferred.iter().rev() {
                if let Some(entry) = wave.iter().find(|(member, _)| member == txn) {
                    queue.push_front(entry.clone());
                }
            }
        }
        let mut settled = std::mem::take(&mut local.settled);
        // Batch-rejected members (the write estimate lied): their solo
        // flushes run out here too — shard unlocked, fence held.
        let overflow: Vec<(Sst, PstmResult<()>)> = std::mem::take(&mut local.overflow)
            .into_iter()
            .map(|sst| {
                let flush = self.solo_flush(shard, &sst);
                (sst, flush)
            })
            .collect();
        let Some(batch) = local.batch.take() else {
            // Overflow implies a batch existed to reject from.
            debug_assert!(overflow.is_empty());
            return Ok(settled);
        };
        // The fused flush, outside the shard mutex: the fence alone
        // guards permanent state while the device round-trip is paid.
        // Transient (I/O) failures retry per the shared config in real
        // wall time.
        let config = self.inner.config.gtm;
        let mut flush = batch.execute(&self.inner.db, &self.inner.bindings);
        let mut attempts = 0;
        while attempts < config.sst_retries && matches!(flush, Err(PstmError::Io(_))) {
            attempts += 1;
            self.pause_retry(config.sst_retry_delay);
            self.emit_shard(shard, TraceEvent::SstRetry { txn: batch.leader, attempt: attempts });
            flush = batch.execute(&self.inner.db, &self.inner.bindings);
        }
        // Labeled fault seam: the fused SST is durable but no member has
        // learned the outcome — the window where the group's commit
        // decision lives only in the log. A crash here must leave every
        // member's write set visible exactly once after recovery.
        if flush.is_ok()
            && !matches!(self.fault_decision(FaultSite::PreFinish), FaultDecision::Proceed)
        {
            self.emit_shard(
                shard,
                TraceEvent::FaultInjected {
                    site: FaultSite::PreFinish.label(),
                    action: "crash".into(),
                },
            );
            return Err(PstmError::Crashed(FaultSite::PreFinish.label()));
        }
        // Settlement half, back under the shard mutex. A crashed flush
        // propagates untouched: the simulated process is dead and the
        // members' parked state dies with it.
        let mut guards = {
            let _adm = prof::PhaseTimer::start(CommitPhase::Admission);
            self.lock_shards_ascending(&[shard])
        };
        let now = self.now();
        let mut fin = guards[0].commit_group_finish(batch, flush, now)?;
        settled.append(&mut fin.settled);
        let mut fx = fin.effects;
        for (sst, solo) in overflow {
            let (result, e) = guards[0].commit_solo_finish(&sst, solo, now)?;
            fx.merge(e);
            settled.push((sst.origin, result));
        }
        if !fin.reflush.is_empty() {
            // Per-member unwind of a constraint violation: each solo
            // flush pays its device round-trip with the shard unlocked,
            // then settles under a fresh guard so only the violators
            // abort.
            drop(guards);
            let solos: Vec<(Sst, PstmResult<()>)> = std::mem::take(&mut fin.reflush)
                .into_iter()
                .map(|sst| {
                    let flush = self.solo_flush(shard, &sst);
                    (sst, flush)
                })
                .collect();
            let mut guards = {
                let _adm = prof::PhaseTimer::start(CommitPhase::Admission);
                self.lock_shards_ascending(&[shard])
            };
            let now = self.now();
            for (sst, solo) in solos {
                let (result, e) = guards[0].commit_solo_finish(&sst, solo, now)?;
                fx.merge(e);
                settled.push((sst.origin, result));
            }
        }
        self.deposit(&fx);
        Ok(settled)
    }

    /// One solo SST flush with the configured retries, for members owed
    /// an individual device round-trip (batch overflow, per-member
    /// reflush after a constraint violation). Must run with the shard
    /// mutex released — the fence alone guards permanent state.
    fn solo_flush(&self, shard: usize, sst: &Sst) -> PstmResult<()> {
        let config = self.inner.config.gtm;
        let mut flush = sst.execute(&self.inner.db, &self.inner.bindings);
        let mut attempts = 0;
        while attempts < config.sst_retries && matches!(flush, Err(PstmError::Io(_))) {
            attempts += 1;
            self.pause_retry(config.sst_retry_delay);
            self.emit_shard(shard, TraceEvent::SstRetry { txn: sst.origin, attempt: attempts });
            flush = sst.execute(&self.inner.db, &self.inner.bindings);
        }
        flush
    }

    /// Hands a reactor-parked commit's outcome to the worker that owns
    /// it, through the installed wake sink. Without a sink (the reactor
    /// is gone) nobody is left to hear it.
    pub(crate) fn route_settled(&self, txn: TxnId, result: PstmResult<CommitResult>) {
        let sink = self.inner.wake.lock().clone();
        if let Some(sink) = sink {
            sink.route_wake(txn, Signal::Settled(result));
        }
    }

    /// Deposits resume/abort notifications for *other* sessions: to the
    /// installed wake sink (reactor mode — an O(1) enqueue onto the
    /// addressee's worker queue), else to the mailbox, ringing the pacer
    /// so parked blocking waiters re-poll immediately.
    fn deposit(&self, fx: &StepEffects) {
        if fx.resumed.is_empty() && fx.aborted.is_empty() {
            return;
        }
        let sink = self.inner.wake.lock().clone();
        if let Some(sink) = sink {
            for (txn, value) in &fx.resumed {
                sink.route_wake(*txn, Signal::Resumed(value.clone()));
            }
            for (txn, reason) in &fx.aborted {
                sink.route_wake(*txn, Signal::Aborted(*reason));
            }
            return;
        }
        {
            let mut mail = self.inner.mail.lock();
            for (txn, value) in &fx.resumed {
                mail.insert(*txn, Signal::Resumed(value.clone()));
            }
            for (txn, reason) in &fx.aborted {
                mail.insert(*txn, Signal::Aborted(*reason));
            }
        }
        self.inner.pacer.pacer_notify();
    }

    /// Installs the reactor's wake sink: from here on, `deposit` routes
    /// signals through it instead of the mailbox.
    pub(crate) fn install_wake_sink(&self, sink: Arc<dyn reactor::WakeSink>) {
        *self.inner.wake.lock() = Some(sink);
    }

    /// Uninstalls the wake sink (reactor shutdown); signals fall back to
    /// the mailbox.
    pub(crate) fn clear_wake_sink(&self) {
        *self.inner.wake.lock() = None;
    }

    /// Deposits one signal straight into the mailbox, ringing the pacer
    /// — the wake sink's fallback for transactions it does not own.
    pub(crate) fn mail_deposit(&self, txn: TxnId, signal: Signal) {
        self.inner.mail.lock().insert(txn, signal);
        self.inner.pacer.pacer_notify();
    }

    /// Counters of the parked-wait seam (all zero unless
    /// [`FrontConfig::parked_waits`] is on).
    #[must_use]
    pub fn pacer_stats(&self) -> PacerStats {
        self.inner.pacer.stats()
    }

    /// One mailbox-poll pause: a bounded pacer park when
    /// [`FrontConfig::parked_waits`] is on (a deposit ends it early),
    /// else the original fixed sleep.
    fn pause_poll(&self) {
        let dur = self.inner.config.poll_interval;
        if self.inner.config.parked_waits {
            self.inner.pacer.pacer_park(dur);
        } else {
            std::thread::sleep(dur);
        }
    }

    /// One SST retry back-off. Parked mode turns a zero-length delay
    /// into a scheduler yield — a retry storm then makes progress
    /// without pinning a core — and parks for non-zero delays; blocking
    /// mode keeps the original behavior (sleep if non-zero, spin if
    /// zero) byte-for-byte.
    fn pause_retry(&self, delay: Duration) {
        if self.inner.config.parked_waits {
            self.inner.pacer.pacer_backoff(std::time::Duration::from_micros(delay.0));
        } else if delay > Duration::ZERO {
            std::thread::sleep(std::time::Duration::from_micros(delay.0));
        }
    }

    /// Advances one shard's virtual clock — firing wait timeouts,
    /// deadlock detection and queue promotion even on an otherwise idle
    /// shard — then routes the resulting signals and reports the shard's
    /// next wake deadline ([`Gtm::next_wake_deadline`]) so the reactor
    /// can schedule the next tick exactly instead of polling. The shard
    /// guard is released before any signal is routed.
    pub(crate) fn tick_shard(&self, shard: usize) -> Option<Timestamp> {
        let (fx, deadline) = {
            let mut gtm = self.inner.shards[shard].lock();
            let now = self.now();
            let fx = gtm.tick(now).ok();
            (fx, gtm.next_wake_deadline())
        };
        if let Some(fx) = fx {
            self.deposit(&fx);
        }
        deadline
    }
}

/// One client transaction bound to a calling thread. Obtained from
/// [`ShardedFront::session`]; not `Clone` — a session is driven by one
/// thread at a time, which is what lets `execute` block.
pub struct Session {
    front: ShardedFront,
    id: TxnId,
    begun: BTreeSet<usize>,
    finished: bool,
    /// The first shard this session touched. All of the session's span
    /// events go to the home shard's tracer so the span tree stays in one
    /// trace; `None` until the first `execute` (a session that never
    /// touches a resource emits no spans).
    home: Option<usize>,
    /// The currently open leaf phase (`work`/`blocked`/`admission_wait`/
    /// `sleep`), closed before the next phase opens so the leaves
    /// partition the session's lifetime.
    leaf: Option<SpanKind>,
}

impl Session {
    /// This session's transaction id (the same id on every shard).
    #[must_use]
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// True once the session committed or aborted.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    fn ensure_open(&self) -> PstmResult<()> {
        if self.finished {
            return Err(PstmError::InvalidState {
                txn: self.id,
                action: "session",
                state: "finished",
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Span emission (see `pstm_obs::span` for the model)
    // ------------------------------------------------------------------

    /// Wall-clock microseconds since the Unix epoch — the second clock
    /// every front-emitted span carries next to the virtual timestamp.
    /// Pure arithmetic on the construction-time [`WallAnchor`]; the
    /// wall-clock seam itself is never consulted per-span.
    fn wall_now_us(&self) -> Option<u64> {
        self.front.inner.anchor.wall_us()
    }

    /// Emits an event into the home shard's tracer (no-op before the
    /// first `execute` assigns a home).
    fn emit_home(&self, event: TraceEvent) {
        if let Some(home) = self.home {
            self.front.inner.tracers[home].emit(self.front.now(), event);
        }
    }

    fn open_span(&self, kind: SpanKind) {
        self.emit_home(TraceEvent::SpanOpen { txn: self.id, kind, wall_us: self.wall_now_us() });
    }

    fn close_span(&self, kind: SpanKind) {
        self.emit_home(TraceEvent::SpanClose { txn: self.id, kind, wall_us: self.wall_now_us() });
    }

    /// Opens `kind` as the current leaf phase.
    fn open_leaf(&mut self, kind: SpanKind) {
        self.open_span(kind);
        self.leaf = Some(kind);
    }

    /// Closes the current leaf phase, if one is open.
    fn close_leaf(&mut self) {
        if let Some(kind) = self.leaf.take() {
            self.close_span(kind);
        }
    }

    /// First-touch bookkeeping: the first executed resource's shard
    /// becomes the session's span home, and the `session` root plus the
    /// initial `work` leaf open.
    fn ensure_home(&mut self, shard: usize) {
        if self.home.is_none() {
            self.home = Some(shard);
            self.open_span(SpanKind::Session);
            self.open_leaf(SpanKind::Work);
        }
    }

    /// Terminal span sequence for a session that did not commit: close
    /// the open leaf, drop a zero-width `abort` marker, close the root.
    fn close_session_aborted(&mut self) {
        self.close_leaf();
        if self.home.is_some() {
            self.open_span(SpanKind::Abort);
            self.close_span(SpanKind::Abort);
            self.close_span(SpanKind::Session);
        }
    }

    /// Executes one operation, blocking the calling thread while the
    /// invocation is queued behind incompatible work. Returns the
    /// operation's value, or [`SessionOutcome::Aborted`] if the
    /// transaction died while waiting (deadlock victim, wait timeout) —
    /// in that case the session is finished and cleaned up on all shards.
    pub fn execute(&mut self, resource: ResourceId, op: ScalarOp) -> PstmResult<SessionOutcome> {
        match self.try_execute(resource, op)? {
            TryExec::Done(outcome) => Ok(outcome),
            TryExec::Parked { shard } => {
                let signal = self.wait_for_signal(shard);
                self.deliver(shard, signal)
            }
        }
    }

    /// The non-blocking first half of [`Session::execute`]: submits the
    /// operation and returns [`TryExec::Parked`] instead of waiting when
    /// the invocation queues behind incompatible work. The reactor front
    /// drives sessions through this half — a parked session then costs
    /// nothing until another session's effects produce its signal, which
    /// [`Session::deliver`] turns into the blocking API's outcome.
    pub(crate) fn try_execute(
        &mut self,
        resource: ResourceId,
        op: ScalarOp,
    ) -> PstmResult<TryExec> {
        self.ensure_open()?;
        let shard = self.front.shard_of(resource);
        self.ensure_home(shard);
        let (outcome, denied_admission) = {
            let mut gtm = self.front.lock_shard_for(shard, self.id, &mut self.begun)?;
            let now = self.front.now();
            let (outcome, fx) = gtm.execute(self.id, resource, op, now)?;
            drop(gtm);
            let denied = fx.denied_admission;
            self.front.deposit(&fx);
            (outcome, denied)
        };
        match outcome {
            ExecOutcome::Completed(v) => Ok(TryExec::Done(SessionOutcome::Value(v))),
            ExecOutcome::Aborted(reason) => {
                self.finish_aborted(Some(shard))?;
                Ok(TryExec::Done(SessionOutcome::Aborted(reason)))
            }
            ExecOutcome::Waiting => {
                // The leaf flips from `work` to the wait's cause: object
                // contention, or a §VII policy denial (admission wait).
                self.close_leaf();
                self.open_leaf(if denied_admission {
                    SpanKind::AdmissionWait
                } else {
                    SpanKind::Blocked { resource }
                });
                Ok(TryExec::Parked { shard })
            }
        }
    }

    /// The second half of [`Session::execute`]: consumes the signal a
    /// parked operation waited for and settles the session exactly as
    /// the blocking path would have — same spans, same cleanup.
    pub(crate) fn deliver(&mut self, shard: usize, signal: Signal) -> PstmResult<SessionOutcome> {
        match signal {
            Signal::Resumed(v) => {
                self.close_leaf();
                self.open_leaf(SpanKind::Work);
                Ok(SessionOutcome::Value(v))
            }
            Signal::Aborted(reason) => {
                self.finish_aborted(Some(shard))?;
                Ok(SessionOutcome::Aborted(reason))
            }
            // A commit outcome never answers a parked execute.
            Signal::Settled(_) => Err(PstmError::InvalidState {
                txn: self.id,
                action: "deliver",
                state: "settled commit",
            }),
        }
    }

    /// Parks the calling thread until another session's effects resume or
    /// abort this transaction. Ticks the owning shard each poll so wait
    /// timeouts and deadlock detection advance even on an idle shard.
    fn wait_for_signal(&mut self, shard: usize) -> Signal {
        loop {
            // Take the mail guard for the removal alone — it must be
            // gone before the shard mutex below (mail sits *above*
            // shard in the lock order; holding it across the tick
            // would be an order inversion).
            let delivered = self.front.inner.mail.lock().remove(&self.id);
            if let Some(signal) = delivered {
                return signal;
            }
            {
                let mut gtm = self.front.inner.shards[shard].lock();
                let now = self.front.now();
                if let Ok(fx) = gtm.tick(now) {
                    self.front.deposit(&fx);
                }
            }
            self.front.pause_poll();
        }
    }

    /// Disconnection: puts the transaction to sleep on every shard it has
    /// touched (paper ⟨sleep, A⟩, broadcast).
    pub fn sleep(&mut self) -> PstmResult<()> {
        self.ensure_open()?;
        for &shard in &self.begun.clone() {
            let mut gtm = self.front.inner.shards[shard].lock();
            let now = self.front.now();
            let fx = gtm.sleep(self.id, now)?;
            drop(gtm);
            self.front.deposit(&fx);
        }
        self.close_leaf();
        self.open_leaf(SpanKind::Sleep);
        Ok(())
    }

    /// Reconnection: awakens the transaction on every touched shard. If
    /// any shard aborted it (incompatible activity while asleep), the
    /// remaining shards are cleaned up and the session finishes.
    pub fn awake(&mut self) -> PstmResult<AwakeOutcome> {
        self.ensure_open()?;
        let mut granted = Vec::new();
        for &shard in &self.begun.clone() {
            let result = {
                let mut gtm = self.front.inner.shards[shard].lock();
                let now = self.front.now();
                let (result, fx) = gtm.awake(self.id, now)?;
                self.front.deposit(&fx);
                result
            };
            match result {
                pstm_core::gtm::AwakeResult::Resumed(value) => granted.extend(value),
                pstm_core::gtm::AwakeResult::Aborted => {
                    self.finish_aborted(Some(shard))?;
                    return Ok(AwakeOutcome::Aborted);
                }
            }
        }
        self.close_leaf();
        self.open_leaf(SpanKind::Work);
        Ok(AwakeOutcome::Resumed(granted))
    }

    /// Commits the session through the coordinated phased path, whatever
    /// the shard count: lock every touched shard in ascending index
    /// order, `commit_local` each (reconciliation), fold all write sets
    /// into **one** SST against the shared engine, then
    /// `commit_finish`/`commit_abort` per shard. Running one-shard
    /// commits through the same path keeps the SST accounting and the
    /// `commit` span's `reconcile`/`sst_attempt` children uniform.
    /// With [`FrontConfig::group_commit`] on, a single-shard commit goes
    /// through its shard's group-commit station instead.
    pub fn commit(&mut self) -> PstmResult<CommitResult> {
        self.ensure_open()?;
        self.finished = true;
        let shards: Vec<usize> = self.begun.iter().copied().collect();
        if shards.is_empty() {
            // A session that never touched a resource has nothing to do.
            return Ok(CommitResult::Committed);
        }
        let result = match self.group_shard() {
            Some(shard) => self.commit_grouped(shard),
            None => self.commit_across(&shards),
        };
        self.clear_mail();
        result
    }

    /// The station a commit of this session groups at: its one touched
    /// shard, when [`FrontConfig::group_commit`] is on.
    fn group_shard(&self) -> Option<usize> {
        match (self.front.inner.config.group_commit, self.begun.len()) {
            (true, 1) => self.begun.first().copied(),
            _ => None,
        }
    }

    /// The reactor's non-blocking half of a grouped commit: enqueues the
    /// session at its shard's station and returns the shard without
    /// waiting for a leader. A flush pass later settles it
    /// ([`ShardedFront::lead_group_round`]) and
    /// [`Session::settle_parked_commit`] ends it. `None` when the commit
    /// does not group — the caller then runs [`Session::commit`] inline.
    pub(crate) fn park_commit(&mut self) -> PstmResult<Option<usize>> {
        self.ensure_open()?;
        let Some(shard) = self.group_shard() else { return Ok(None) };
        self.finished = true;
        self.enqueue_commit(shard, None);
        Ok(Some(shard))
    }

    /// Ends a commit parked by [`Session::park_commit`] with the outcome
    /// its leader round produced — same spans and cleanup as the
    /// blocking station.
    pub(crate) fn settle_parked_commit(
        &mut self,
        result: PstmResult<CommitResult>,
    ) -> PstmResult<CommitResult> {
        self.close_grouped_commit(&result);
        self.clear_mail();
        result
    }

    /// Single-shard commit through the per-shard group-commit station:
    /// enqueue, then wait until a leader round settles this transaction —
    /// a concurrent leader's, or our own.
    fn commit_grouped(&mut self, shard: usize) -> PstmResult<CommitResult> {
        let slot: CommitSlot = Arc::new(Mutex::new(None));
        self.enqueue_commit(shard, Some(Arc::clone(&slot)));
        let result = self.group_station(shard, &slot);
        self.close_grouped_commit(&result);
        result
    }

    /// Opens the `commit` span and queues this session at `shard`'s
    /// station.
    fn enqueue_commit(&mut self, shard: usize, slot: Option<CommitSlot>) {
        self.close_leaf();
        self.open_span(SpanKind::Commit);
        self.front.inner.groups[shard].lock().push_back((self.id, slot));
    }

    /// Closes a grouped commit's spans by its outcome.
    fn close_grouped_commit(&mut self, result: &PstmResult<CommitResult>) {
        match result {
            Ok(CommitResult::Committed) => {
                self.close_span(SpanKind::Commit);
                self.close_span(SpanKind::Session);
            }
            Ok(CommitResult::Aborted(_)) => {
                self.close_span(SpanKind::Commit);
                self.close_session_aborted();
            }
            // A simulated crash: the process is dead; spans die with it
            // (mirrors `commit_across`'s crash path).
            Err(_) => {}
        }
    }

    /// The blocking station loop. Returns once this session's slot is
    /// settled — by another leader, or by a round we lead ourselves
    /// after winning the fence with the slot still empty. Reactor
    /// members of our rounds are handed to their workers.
    fn group_station(&mut self, shard: usize, slot: &CommitSlot) -> PstmResult<CommitResult> {
        // Everything from enqueue to settlement is the group-wait
        // station; the leader's nested commit work (reconcile, WAL, SST
        // apply, bookkeeping) carves out its own exclusive time, so
        // followers accrue pure wait.
        let _wait = prof::PhaseTimer::start(CommitPhase::GroupWait);
        loop {
            let fence = self.front.lock_fence(shard);
            // Nobody settled us before we won the fence: lead a round.
            // Our own entry may sit beyond the wave bound or be deferred,
            // in which case we lead (or follow) another.
            if slot.lock().is_none() {
                for (txn, result) in
                    self.front.lead_group_round(shard, &fence).into_iter().flatten()
                {
                    self.front.route_settled(txn, result);
                }
            }
            drop(fence);
            if let Some(result) = slot.lock().take() {
                return result;
            }
        }
    }

    /// The coordinated commit. `shards` is ascending and non-empty.
    fn commit_across(&mut self, shards: &[usize]) -> PstmResult<CommitResult> {
        // The whole coordinated commit is the cross-shard fencing phase;
        // every nested station (shard-lock admission, per-shard
        // reconcile, WAL/SST, bookkeeping, abort unwind) carves out its
        // own exclusive time, leaving fencing = coordination residue.
        let _phase = prof::PhaseTimer::start(CommitPhase::Fencing);
        self.close_leaf();
        self.open_span(SpanKind::Commit);
        // Flush fences first (two-level lock order, see
        // `FrontInner::flush_fences`): reconciliation below must not read
        // permanent state while a group-commit station's fused flush to
        // any of these shards is in flight with the shard mutex released.
        let front = self.front.clone();
        let _fences = {
            let _adm = prof::PhaseTimer::start(CommitPhase::Admission);
            front.lock_flush_fences(shards)
        };
        let mut guards: Vec<MutexGuard<'_, Gtm>> = {
            let _adm = prof::PhaseTimer::start(CommitPhase::Admission);
            self.front.lock_shards_ascending(shards)
        };
        let now = self.front.now();

        // Phase one: reconcile on every shard (Algorithm 3 per shard).
        self.open_span(SpanKind::Reconcile);
        let mut writes = Vec::new();
        let mut failed_at: Option<(usize, AbortReason)> = None;
        for (i, gtm) in guards.iter_mut().enumerate() {
            match gtm.commit_local(self.id, now)? {
                LocalCommit::Prepared(w) => writes.extend(w),
                LocalCommit::Aborted(reason, fx) => {
                    self.front.deposit(&fx);
                    failed_at = Some((i, reason));
                    break;
                }
            }
        }
        self.close_span(SpanKind::Reconcile);
        if let Some((k, reason)) = failed_at {
            // Shard k already aborted the transaction itself. Earlier
            // shards are parked in Committing; later shards never started.
            for (i, gtm) in guards.iter_mut().enumerate() {
                let fx = match i.cmp(&k) {
                    std::cmp::Ordering::Less => gtm.commit_abort(self.id, reason, now)?,
                    std::cmp::Ordering::Equal => continue,
                    std::cmp::Ordering::Greater => gtm.abort(self.id, now)?,
                };
                self.front.deposit(&fx);
            }
            drop(guards);
            self.close_span(SpanKind::Commit);
            self.close_session_aborted();
            return Ok(CommitResult::Aborted(reason));
        }

        // Every shard reconciled and parked in `Committing`: release the
        // shard mutexes for the device round-trip below. The fences —
        // held until return — are what guard permanent state; waiting
        // sessions can keep executing against the shards meanwhile.
        drop(guards);

        // Phase two: one SST carries every shard's writes — atomic across
        // shards because the engine applies a write set all-or-nothing.
        // Transient (I/O) failures are retried per the shards' shared
        // config; here the back-off is real wall time. Attempt events and
        // spans go to the home shard's tracer — the whole commit is
        // accounted there, never split across shard registries.
        let config = self.front.inner.config.gtm;
        let write_count = writes.len() as u32;
        let sst = Sst::new(self.id, writes);
        // Labeled fault seam: every shard reconciled, SST not yet
        // submitted. An injected I/O here is a transient coordinator/
        // engine hiccup seeding the retry loop below; a crash kills the
        // process with every shard parked in `Committing` — volatile
        // state the restarted middleware never sees, so nothing of this
        // commit may survive recovery.
        let pre_sst_io = match self.front.fault_decision(FaultSite::PreSst) {
            FaultDecision::Proceed => false,
            FaultDecision::Io => {
                self.emit_home(TraceEvent::FaultInjected {
                    site: FaultSite::PreSst.label(),
                    action: "io".into(),
                });
                true
            }
            FaultDecision::Crash | FaultDecision::Torn { .. } => {
                self.emit_home(TraceEvent::FaultInjected {
                    site: FaultSite::PreSst.label(),
                    action: "crash".into(),
                });
                return Err(PstmError::Crashed(FaultSite::PreSst.label()));
            }
        };
        self.emit_home(TraceEvent::SstAttempt { txn: self.id, writes: write_count });
        self.open_span(SpanKind::SstAttempt { attempt: 1 });
        let mut sst_result = if pre_sst_io {
            Err(PstmError::Io("injected pre-SST fault".into()))
        } else {
            sst.execute(&self.front.inner.db, &self.front.inner.bindings)
        };
        self.close_span(SpanKind::SstAttempt { attempt: 1 });
        let mut attempts = 0;
        while attempts < config.sst_retries && matches!(sst_result, Err(PstmError::Io(_))) {
            attempts += 1;
            self.front.pause_retry(config.sst_retry_delay);
            self.emit_home(TraceEvent::SstRetry { txn: self.id, attempt: attempts });
            self.open_span(SpanKind::SstAttempt { attempt: attempts + 1 });
            sst_result = sst.execute(&self.front.inner.db, &self.front.inner.bindings);
            self.close_span(SpanKind::SstAttempt { attempt: attempts + 1 });
        }

        // Phase three: settle every shard's bookkeeping, back under the
        // shard mutexes (the parked transaction is ours alone, but
        // finish/abort mutate shared GTM state).
        let mut guards: Vec<MutexGuard<'_, Gtm>> = {
            let _adm = prof::PhaseTimer::start(CommitPhase::Admission);
            self.front.lock_shards_ascending(shards)
        };
        let settled_at = self.front.now();
        let reason = match sst_result {
            Ok(()) => {
                if !sst.is_empty() {
                    self.emit_home(TraceEvent::SstApplied { txn: self.id });
                }
                // Labeled fault seam: the fused SST is durable but no
                // shard has learned the outcome — the window where the
                // commit decision lives only in the log. A crash here
                // means the client sees "crashed" yet after recovery the
                // write set must be visible exactly once (recovery
                // invariant 2's hardest case).
                match self.front.fault_decision(FaultSite::PreFinish) {
                    FaultDecision::Proceed => {}
                    _ => {
                        self.emit_home(TraceEvent::FaultInjected {
                            site: FaultSite::PreFinish.label(),
                            action: "crash".into(),
                        });
                        return Err(PstmError::Crashed(FaultSite::PreFinish.label()));
                    }
                }
                for gtm in &mut guards {
                    let fx = gtm.commit_finish(self.id, settled_at)?;
                    self.front.deposit(&fx);
                }
                drop(guards);
                self.close_span(SpanKind::Commit);
                self.close_span(SpanKind::Session);
                return Ok(CommitResult::Committed);
            }
            Err(PstmError::ConstraintViolation { .. }) | Err(PstmError::TypeMismatch { .. }) => {
                AbortReason::Constraint
            }
            Err(PstmError::Io(_)) => AbortReason::SstFailure,
            Err(e @ PstmError::Crashed(_)) => {
                // A simulated crash mid-SST: the process is dead, so the
                // shards are deliberately NOT settled — their volatile
                // state (transactions parked in Committing) perishes with
                // it. The guards unlock on return; the caller must
                // discard this front-end and recover the engine.
                drop(guards);
                return Err(e);
            }
            Err(e) => {
                // Unexpected engine failure: unpark every shard before
                // propagating, so nothing strands in Committing.
                for gtm in &mut guards {
                    let fx = gtm.commit_abort(self.id, AbortReason::SstFailure, settled_at)?;
                    self.front.deposit(&fx);
                }
                drop(guards);
                self.close_span(SpanKind::Commit);
                self.close_session_aborted();
                return Err(e);
            }
        };
        for gtm in &mut guards {
            let fx = gtm.commit_abort(self.id, reason, settled_at)?;
            self.front.deposit(&fx);
        }
        drop(guards);
        self.close_span(SpanKind::Commit);
        self.close_session_aborted();
        Ok(CommitResult::Aborted(reason))
    }

    /// Aborts the session on every shard it has touched.
    pub fn abort(&mut self) -> PstmResult<()> {
        self.ensure_open()?;
        self.finish_aborted(None)
    }

    /// Cleans up after an abort: shard `already_dead` (if any) aborted the
    /// transaction itself; every other begun shard still holds an active
    /// record that must be released.
    fn finish_aborted(&mut self, already_dead: Option<usize>) -> PstmResult<()> {
        self.finished = true;
        for &shard in &self.begun.clone() {
            if Some(shard) == already_dead {
                continue;
            }
            let mut gtm = self.front.inner.shards[shard].lock();
            let now = self.front.now();
            let fx = gtm.abort(self.id, now)?;
            drop(gtm);
            self.front.deposit(&fx);
        }
        self.clear_mail();
        self.close_session_aborted();
        Ok(())
    }

    /// Drops any residual signal addressed to this session, so the
    /// mailbox cannot accumulate entries for finished transactions.
    fn clear_mail(&self) {
        self.front.inner.mail.lock().remove(&self.id);
    }
}

/// Folds per-shard [`GtmStats`] into workload-wide totals.
#[must_use]
pub fn sum_stats(stats: impl IntoIterator<Item = GtmStats>) -> GtmStats {
    stats.into_iter().fold(GtmStats::default(), |mut acc, s| {
        acc.begun += s.begun;
        acc.committed += s.committed;
        acc.aborted += s.aborted;
        acc.aborted_sleep_conflict += s.aborted_sleep_conflict;
        acc.aborted_deadlock += s.aborted_deadlock;
        acc.aborted_constraint += s.aborted_constraint;
        acc.aborted_wait_timeout += s.aborted_wait_timeout;
        acc.ops_completed += s.ops_completed;
        acc.ops_waited += s.ops_waited;
        acc.shared_grants += s.shared_grants;
        acc.bypassed_sleepers += s.bypassed_sleepers;
        acc.reconciliations += s.reconciliations;
        acc.ssts_executed += s.ssts_executed;
        acc.starvation_denials += s.starvation_denials;
        acc.admission_denials += s.admission_denials;
        acc.sst_retries += s.sst_retries;
        acc.aborted_sst_failure += s.aborted_sst_failure;
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn front_and_sessions_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<ShardedFront>();
        assert_send::<Session>();
    }
}
