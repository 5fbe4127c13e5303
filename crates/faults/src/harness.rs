//! The deterministic chaos harness: a single-threaded coordinator that
//! drives a sharded counter workload through injected faults, crashes and
//! recoveries, then proves the two recovery invariants and hands the
//! stitched trace to `pstm-check` for serializability certification.
//!
//! ## Why a dedicated coordinator instead of `pstm-front`
//!
//! The sharded front-end is the *production* phased-commit coordinator,
//! but it is wall-clocked and multi-threaded — two properties the chaos
//! matrix cannot afford, because every `(seed, plan)` pair must replay
//! byte-identically (`pstm-check`'s wall-clock lint exists for the same
//! reason). The harness therefore runs the front-end's commit sequence
//! on a virtual clock, one step at a time: [`Gtm::prepare`] on each
//! shard ascending, one [`flush_sst`] of the fused write set with the
//! `pre-sst`/`pre-finish` seams where the front-end has them, then
//! [`Gtm::settle`] on each shard — and the group-commit station's wave
//! is the same three calls over a whole batch. The front-end's own seams
//! are exercised under real threads by the `sst_exhaustion` integration
//! tests.
//!
//! ## The invariant ledger
//!
//! Every session's operations are `Sub(1)` against counter resources, so
//! the engine is its own ledger: for resource `r` with initial value
//! `I_r` and recovered value `V_r`, the applied delta is `d_r = I_r −
//! V_r`, and the harness's `acked` ledger records the deltas of commits
//! acknowledged to clients. After every recovery:
//!
//! 1. `d_r == acked_r` for every resource not touched by the in-flight
//!    commit — no acknowledged commit lost, none applied twice;
//! 2. for the one commit in flight at the crash (write intents `w_r`),
//!    either `d_r − acked_r == 0` everywhere (nothing survived) or
//!    `d_r − acked_r == w_r` on exactly its touched resources (the
//!    fused SST survived *whole*) — never a partial application. A
//!    surviving in-doubt commit is folded into the ledger, which is what
//!    re-checks invariant 1 ("not applied twice") in every later epoch.

use crate::injector::{FaultInjector, FiredFault};
use crate::plan::FaultPlan;
use pstm_check::{stitch_streams, verify_streams, TraceStream, Verdict};
use pstm_core::gtm::{CommitResult, Gtm, GtmConfig, Outcome};
use pstm_core::sst::{flush_sst, Flush, Sst, SstBatch};
use pstm_obs::postmortem::{analyze, Postmortem};
use pstm_obs::recorder::{read_recorder, Recorder, ENGINE_SHARD};
use pstm_obs::{RingHandle, RingSink, Sink, TeeSink, TraceEvent, Tracer};
use pstm_storage::{BindingRegistry, Database};
use pstm_types::{
    AbortReason, Duration, ExecOutcome, FaultDecision, FaultHook, FaultSite, PstmError, PstmResult,
    ResourceId, ScalarOp, Timestamp, TxnId, Value,
};
use pstm_workload::counter_world;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Shape of one chaos run. `seed` drives the workload generator; the
/// plan's own seed drives the injector — two runs differing only in
/// `plan` replay the identical workload against different adversaries.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Workload seed (session shapes, resource choices).
    pub seed: u64,
    /// GTM shards (resources are routed `object % shards`, like the
    /// front-end).
    pub shards: usize,
    /// Counter resources.
    pub resources: usize,
    /// Initial counter value (large enough that `Sub(1)` never trips the
    /// `>= 0` CHECK in a fault-free run).
    pub initial: i64,
    /// Sessions to drive through the run.
    pub sessions: usize,
    /// `Sub(1)` operations per session, spread over its chosen resources.
    pub ops_per_session: usize,
    /// The adversary.
    pub plan: FaultPlan,
    /// After this many recoveries the injector is disarmed so the run is
    /// guaranteed to finish (a plan of unbounded crashes would otherwise
    /// never drain the session list).
    pub max_recoveries: u32,
    /// Commit single-shard sessions through the fused group-commit
    /// protocol (the front-end station's wave: one `prepare` → flush →
    /// `settle` over every member) instead of one coordinated commit
    /// each. Multi-shard sessions still go through the
    /// cross-shard path, exactly like the production front-end.
    pub group_commit: bool,
    /// When set, every epoch's trace streams *also* flow into a durable
    /// flight-recorder file `epoch{N}.rec` under this directory (one file
    /// per process lifetime), and at every crash the crash picture
    /// `pstm_obs::postmortem` reconstructs from the file alone is checked
    /// against the harness's fault ledger: the reconstructed unresolved
    /// set must equal the stranded sessions, and the reconstructed
    /// in-doubt set must equal the ledger's whole-SST-survived
    /// reclassification.
    pub recorder_dir: Option<PathBuf>,
}

impl ChaosConfig {
    /// A small-but-contended default shape: 2 shards, 4 resources, 24
    /// sessions of 3 ops.
    #[must_use]
    pub fn new(seed: u64, plan: FaultPlan) -> Self {
        ChaosConfig {
            seed,
            shards: 2,
            resources: 4,
            initial: 10_000,
            sessions: 24,
            ops_per_session: 3,
            plan,
            max_recoveries: 8,
            group_commit: false,
            recorder_dir: None,
        }
    }

    /// Builder: same shape, but batched — single-shard sessions fuse
    /// into per-shard group commits.
    #[must_use]
    pub fn with_group_commit(mut self) -> Self {
        self.group_commit = true;
        self
    }

    /// Builder: record every epoch into a flight-recorder file under
    /// `dir` and cross-check the post-mortem against the fault ledger at
    /// every crash. The directory is created on first use.
    #[must_use]
    pub fn with_recorder(mut self, dir: impl Into<PathBuf>) -> Self {
        self.recorder_dir = Some(dir.into());
        self
    }
}

/// What one chaos run did and proved.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Commits acknowledged to their session.
    pub committed: u64,
    /// Commits whose session saw "crashed" but whose fused SST survived
    /// recovery whole — visible exactly once, per invariant 1.
    pub committed_in_doubt: u64,
    /// Sessions aborted by the scheduler or by injected transient faults.
    pub aborted: u64,
    /// The subset of `aborted` that died with [`AbortReason::SstFailure`]
    /// — persistent transient faults that exhausted the retry budget. The
    /// numerator of `bench_faults`' abort-amplification metric.
    pub aborted_sst_failure: u64,
    /// Sessions stranded by a crash with nothing applied.
    pub lost: u64,
    /// Injected crashes (== recoveries performed).
    pub crashes: u64,
    /// Faults fired, in order (the injector's journal).
    pub faults: Vec<FiredFault>,
    /// Determinism witness: byte-identical across replays of the same
    /// `(seed, plan)`. Excludes wall-clock measurements.
    pub fingerprint: String,
    /// Invariant violations (empty on a correct engine).
    pub violations: Vec<String>,
    /// Did `pstm-check` certify the stitched pre/post-crash trace
    /// serializable?
    pub certified: bool,
    /// Wall-clock recovery latency per crash, microseconds (`None` when
    /// the platform clock is unavailable). Not part of the fingerprint.
    pub recovery_wall_us: Vec<Option<u64>>,
    /// Final engine value per resource.
    pub final_values: Vec<i64>,
    /// Post-mortem-vs-ledger cross-checks performed (recorder mode only:
    /// one per crash plus one final quiescent check; 0 with the recorder
    /// off). Any mismatch lands in `violations`.
    pub recorder_checks: u64,
}

impl ChaosReport {
    /// True when every invariant held and the stitched trace certified.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.certified
    }
}

/// How many sessions run concurrently (virtual copies overlapping)
/// before the harness commits the wave.
const WAVE: usize = 4;

/// One epoch's volatile half: the shard managers and every sink handle
/// needed to snapshot its streams when it dies or the run ends.
struct Epoch {
    gtms: Vec<Gtm>,
    shard_rings: Vec<RingHandle>,
    engine_ring: RingHandle,
}

/// Per-retry virtual back-off of the harness's SST flushes.
const RETRY_BACKOFF: Duration = Duration(1_000);

/// SST retries per flush (every epoch's managers share this config).
const SST_RETRIES: u32 = 2;

struct Chaos {
    db: Arc<Database>,
    bindings: BindingRegistry,
    resources: Vec<ResourceId>,
    injector: Arc<FaultInjector>,
    config: ChaosConfig,
    clock: u64,
    /// Per-resource acknowledged `Sub` total.
    acked: Vec<i64>,
    /// Write intents (resource index → subs) of the commit in flight, if
    /// a commit attempt is mid-protocol. For a fused group this is the
    /// *union* of the batch members' intents: the batch applies as one
    /// all-or-nothing engine write, so invariant 2 sees one in-flight
    /// unit either fully absent or fully applied.
    in_flight: Option<BTreeMap<usize, i64>>,
    /// The transactions riding the in-flight unit (the solo committer,
    /// or the fused batch members' origins) — the reclassification
    /// quantum when a crashed unit turns out to have survived whole, and
    /// what the post-mortem's in-doubt set is compared against then.
    in_flight_txns: Vec<TxnId>,
    /// The live epoch's flight recorder, when recorder mode is on.
    recorder: Option<Recorder>,
    /// Epochs started so far (names the per-epoch recorder files).
    epoch_no: u32,
    recorder_checks: u64,
    epochs: Vec<Vec<TraceStream>>,
    violations: Vec<String>,
}

impl Chaos {
    fn now(&mut self) -> Timestamp {
        self.clock += 1;
        Timestamp(self.clock)
    }

    fn shard_of(&self, r: ResourceId) -> usize {
        r.object.0 as usize % self.config.shards
    }

    /// Builds a fresh epoch: new ring sinks, new shard managers, hooks
    /// re-installed (the engine keeps its hook across recovery, but the
    /// managers are new objects). In recorder mode each epoch also opens
    /// its own flight-recorder file — one file per process lifetime — and
    /// every stream is teed into it alongside the in-memory rings.
    fn new_epoch(&mut self) -> PstmResult<Epoch> {
        self.recorder = match &self.config.recorder_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| PstmError::Io(format!("recorder dir: {e}")))?;
                let path = dir.join(format!("epoch{}.rec", self.epoch_no));
                // Durable write-through and half-segments far larger than
                // an epoch's traffic: the file must hold the *whole*
                // epoch for the post-mortem cross-check to be exact.
                let rec = Recorder::create(&path, 1 << 20, true)
                    .map_err(|e| PstmError::Io(format!("recorder create: {e}")))?;
                rec.write_meta(self.config.shards as u32, pstm_obs::wallclock::wall_now_us());
                Some(rec)
            }
            None => None,
        };
        self.epoch_no += 1;
        let tee = |ring: RingSink, shard: u32, rec: &Option<Recorder>| -> Box<dyn Sink> {
            match rec {
                Some(r) => Box::new(TeeSink::new(Box::new(ring), Box::new(r.sink(shard)))),
                None => Box::new(ring),
            }
        };
        let engine = RingSink::new(1 << 20);
        let engine_ring = engine.handle();
        self.db.set_tracer(Tracer::with_sink(tee(engine, ENGINE_SHARD, &self.recorder)));
        let mut gtms = Vec::with_capacity(self.config.shards);
        let mut shard_rings = Vec::with_capacity(self.config.shards);
        for i in 0..self.config.shards {
            let ring = RingSink::new(1 << 20);
            shard_rings.push(ring.handle());
            let tracer = Tracer::with_sink(tee(ring, i as u32, &self.recorder));
            let gtm_config = GtmConfig { sst_retries: SST_RETRIES, ..GtmConfig::default() };
            let mut gtm = Gtm::new(Arc::clone(&self.db), self.bindings.clone(), gtm_config)
                .with_tracer(tracer);
            gtm.set_fault_hook(Arc::clone(&self.injector) as _, i as u32);
            gtms.push(gtm);
        }
        Ok(Epoch { gtms, shard_rings, engine_ring })
    }

    /// Recorder mode: flush the live epoch's recorder and rebuild the
    /// crash picture from the *file alone* — exactly what a post-mortem
    /// of a dead process would see. `None` when the recorder is off.
    fn recorder_postmortem(&mut self) -> Option<Postmortem> {
        let rec = self.recorder.as_ref()?;
        rec.flush();
        match read_recorder(rec.path()) {
            Ok(replay) => Some(analyze(&replay)),
            Err(e) => {
                self.violations
                    .push(format!("recorder file unreadable at crash: {e} (recorder check)"));
                None
            }
        }
    }

    /// The per-crash cross-check: the post-mortem's reconstructed
    /// unresolved and in-doubt transaction sets must match the harness's
    /// own ledger exactly.
    fn check_postmortem(
        &mut self,
        pm: &Postmortem,
        mut stranded: Vec<TxnId>,
        mut expect_in_doubt: Vec<TxnId>,
    ) {
        stranded.sort_unstable();
        expect_in_doubt.sort_unstable();
        let unresolved = pm.unresolved_txns();
        if unresolved != stranded {
            self.violations.push(format!(
                "post-mortem unresolved set {unresolved:?} != ledger stranded set {stranded:?} \
                 (recorder check)"
            ));
        }
        if pm.in_doubt != expect_in_doubt {
            self.violations.push(format!(
                "post-mortem in-doubt set {:?} != ledger in-doubt set {expect_in_doubt:?} \
                 (recorder check)",
                pm.in_doubt
            ));
        }
        self.recorder_checks += 1;
    }

    /// Snapshots the epoch's streams (shards first, engine last) into the
    /// stitched-trace log.
    fn close_epoch(&mut self, epoch: &Epoch) {
        let mut streams = Vec::with_capacity(epoch.shard_rings.len() + 1);
        for (i, ring) in epoch.shard_rings.iter().enumerate() {
            streams.push(TraceStream { label: format!("shard{i}"), records: ring.snapshot() });
        }
        streams.push(TraceStream {
            label: "engine".to_string(),
            records: epoch.engine_ring.snapshot(),
        });
        self.epochs.push(streams);
    }

    fn read_value(&self, r: usize) -> PstmResult<i64> {
        let b = self.bindings.resolve(self.resources[r])?;
        match self.db.get_col(b.table, b.row, b.column)? {
            Value::Int(v) => Ok(v),
            other => Err(PstmError::internal(format!("counter resource holds {other:?}"))),
        }
    }

    /// The invariant check, run after every recovery and once at the end.
    /// `after_crash` selects whether an in-flight commit may have
    /// survived; outside a crash the ledger must match the engine
    /// exactly.
    fn check_ledger(&mut self, after_crash: bool) -> PstmResult<()> {
        let mut extra = Vec::with_capacity(self.config.resources);
        for r in 0..self.config.resources {
            let d = self.config.initial - self.read_value(r)?;
            extra.push(d - self.acked[r]);
        }
        let in_flight = if after_crash { self.in_flight.take() } else { None };
        match recovered_in_flight(&extra, in_flight.as_ref()) {
            // Invariant 2, absent case: the crash discarded the commit
            // entirely. The session stays "lost".
            Ok(false) => {}
            Ok(true) => {
                // Invariant 2, applied case: the fused SST outlived the
                // crash whole. Fold it into the ledger so every later
                // epoch re-proves it is never applied twice.
                if let Some(w) = in_flight {
                    for (r, subs) in &w {
                        self.acked[*r] += subs;
                    }
                    self.in_flight = Some(w); // signal "applied" to caller
                }
            }
            Err(violation) => self.violations.push(violation),
        }
        Ok(())
    }

    /// One flush on the virtual clock: each retry charges
    /// [`RETRY_BACKOFF`], and every flush event lands in `shard`'s
    /// stream.
    fn flush(
        &mut self,
        epoch: &Epoch,
        shard: usize,
        unit: Flush<'_>,
        injected: Option<PstmError>,
    ) -> PstmResult<()> {
        let tracer = epoch.gtms[shard].tracer();
        let clock = &mut self.clock;
        flush_sst(unit, &self.db, &self.bindings, SST_RETRIES, injected, |event| {
            if matches!(event, TraceEvent::SstRetry { .. }) {
                *clock += RETRY_BACKOFF.0;
            }
            tracer.emit(Timestamp(*clock), event);
        })
    }

    /// Emits a crash at `site` into `shard`'s stream — the seam announces
    /// itself before the simulated process dies, so a post-mortem over
    /// the recorder file can name the crash site — and returns the crash.
    fn crash_at(&mut self, epoch: &Epoch, shard: usize, site: FaultSite) -> PstmError {
        let now = self.now();
        epoch.gtms[shard]
            .tracer()
            .emit(now, TraceEvent::FaultInjected { site: site.label(), action: "crash".into() });
        PstmError::Crashed(site.label())
    }

    /// The front-end's coordinated commit on the virtual clock:
    /// [`Gtm::prepare`] ascending, one fused SST with transient-I/O
    /// retries, the `pre-sst`/`pre-finish` seams in their real positions,
    /// then [`Gtm::settle`] per shard.
    fn commit_session(
        &mut self,
        epoch: &mut Epoch,
        txn: TxnId,
        shards: &[usize],
    ) -> PstmResult<CommitResult> {
        let now = self.now();
        let mut batches: Vec<SstBatch> = Vec::with_capacity(shards.len());
        let mut failed: Option<AbortReason> = None;
        for &s in shards {
            let prepared = epoch.gtms[s].prepare(&[txn], now)?;
            match prepared.batch {
                Some(batch) => batches.push(batch),
                None => {
                    failed = prepared.abort_reason();
                    break;
                }
            }
        }
        if let Some(reason) = failed {
            let k = batches.len();
            for (&s, batch) in shards.iter().zip(batches) {
                epoch.gtms[s].settle(batch, Outcome::Unwound(reason), now)?;
            }
            for &s in &shards[k + 1..] {
                epoch.gtms[s].abort(txn, now)?;
            }
            return Ok(CommitResult::Aborted(reason));
        }

        let writes = batches.iter().flat_map(|b| &b.members).flat_map(|m| m.writes.clone());
        let sst = Sst::new(txn, writes.collect());
        let injected = match self.injector.decide(FaultSite::PreSst) {
            FaultDecision::Proceed => None,
            FaultDecision::Io => Some(PstmError::Io("injected pre-SST fault".into())),
            _ => return Err(self.crash_at(epoch, shards[0], FaultSite::PreSst)),
        };
        let flushed = self.flush(epoch, shards[0], Flush::Solo(&sst), injected);
        if flushed.is_ok() && self.injector.decide(FaultSite::PreFinish) != FaultDecision::Proceed {
            return Err(self.crash_at(epoch, shards[0], FaultSite::PreFinish));
        }
        let settled_at = self.now();
        let mut result = CommitResult::Committed;
        for (&s, batch) in shards.iter().zip(batches) {
            let outcome = Outcome::Flushed(flushed.clone());
            if let Some((_, fate)) = epoch.gtms[s].settle(batch, outcome, settled_at)?.settled.pop()
            {
                result = fate;
            }
        }
        Ok(result)
    }

    /// The front-end's group-commit station on the virtual clock: the
    /// `pre-sst` seam, [`Gtm::prepare`]'s greedy cut over the wave, one
    /// fused flush with transient-I/O retries, the `pre-finish` seam,
    /// then [`Gtm::settle`] (members a constraint violation hands back
    /// reflush solo) — looping until the deferred members (write
    /// estimates overlapping an earlier batch) drain. Settles append to
    /// `settles` incrementally so a crash keeps the accounting of members
    /// settled by earlier batches.
    fn commit_group_wave(
        &mut self,
        epoch: &mut Epoch,
        shard: usize,
        idxs: &[usize],
        wave: &[WaveSession],
        settles: &mut Vec<(usize, CommitResult)>,
    ) -> PstmResult<()> {
        let idx_of = |txn: TxnId| idxs.iter().copied().find(|&i| wave[i].0 == txn);
        let mut remaining: Vec<usize> = idxs.to_vec();
        while !remaining.is_empty() {
            if self.injector.decide(FaultSite::PreSst) != FaultDecision::Proceed {
                return Err(self.crash_at(epoch, shard, FaultSite::PreSst));
            }
            let txns: Vec<TxnId> = remaining.iter().map(|&i| wave[i].0).collect();
            let now = self.now();
            let prepared = epoch.gtms[shard].prepare(&txns, now)?;
            settles.extend(prepared.settled.into_iter().filter_map(|(t, r)| Some((idx_of(t)?, r))));
            remaining = prepared.deferred.iter().filter_map(|&t| idx_of(t)).collect();
            // No batch ⇒ nothing parked ⇒ nothing deferred (the cut only
            // defers against parked members).
            let Some(batch) = prepared.batch else { continue };
            let mut intents: BTreeMap<usize, i64> = BTreeMap::new();
            for i in batch.members.iter().filter_map(|m| idx_of(m.origin)) {
                for (&r, &n) in &wave[i].2 {
                    *intents.entry(r).or_insert(0) += n;
                }
            }
            self.in_flight = Some(intents);
            self.in_flight_txns = batch.members.iter().map(|m| m.origin).collect();
            let flushed = self.flush(epoch, shard, Flush::Fused(&batch), None);
            // The fused SST is durable but no member has learned the
            // outcome: a crash here must leave the whole group visible
            // exactly once after recovery.
            if flushed.is_ok()
                && self.injector.decide(FaultSite::PreFinish) != FaultDecision::Proceed
            {
                return Err(self.crash_at(epoch, shard, FaultSite::PreFinish));
            }
            let settled_at = self.now();
            let round = epoch.gtms[shard].settle(batch, Outcome::Flushed(flushed), settled_at)?;
            self.in_flight = None;
            self.in_flight_txns.clear();
            settles.extend(round.settled.into_iter().filter_map(|(t, r)| Some((idx_of(t)?, r))));
            // A constraint violation somewhere in the batch: each member
            // re-flushes solo so only the violators abort.
            for sst in round.reflush {
                let solo = self.flush(epoch, shard, Flush::Solo(&sst), None);
                let now = self.now();
                let one =
                    epoch.gtms[shard].settle(SstBatch::of(sst), Outcome::Flushed(solo), now)?;
                settles.extend(one.settled.into_iter().filter_map(|(t, r)| Some((idx_of(t)?, r))));
            }
        }
        Ok(())
    }
}

/// The recovery invariants over a counter world after a crash. `extra`
/// holds each resource's applied delta beyond its acknowledged commits;
/// `intents` the planned per-resource deltas of the commit (or fused
/// group) in flight at the crash, if any. `Ok(false)`: nothing of it
/// survived; `Ok(true)`: its SST survived whole, so each write is
/// visible exactly once. `Err` names the broken invariant: a partial SST
/// (2), or unexplained deltas with nothing in flight (1).
pub fn recovered_in_flight(
    extra: &[i64],
    intents: Option<&BTreeMap<usize, i64>>,
) -> Result<bool, String> {
    match intents {
        Some(w) => {
            if extra.iter().all(|&e| e == 0) {
                Ok(false)
            } else if (0..extra.len()).all(|r| extra[r] == w.get(&r).copied().unwrap_or(0)) {
                Ok(true)
            } else {
                Err(format!(
                    "partial SST visible after recovery: intents {w:?}, unexplained deltas \
                     {extra:?} (invariant 2)"
                ))
            }
        }
        None if extra.iter().any(|&e| e != 0) => Err(format!(
            "ledger mismatch with no commit in flight: unexplained deltas {extra:?} \
             (invariant 1: acked commits lost or applied twice)"
        )),
        None => Ok(false),
    }
}

/// One session in a wave: txn id, its (sorted, deduped) shard set, its
/// planned `Sub(1)` counts per resource index, and whether it is still
/// alive (not aborted during execution).
type WaveSession = (TxnId, Vec<usize>, BTreeMap<usize, i64>, bool);

/// Runs one full chaos scenario; see the module docs for the protocol and
/// the invariants. Errors only on harness-level engine failures — injected
/// faults, crashes and invariant violations are all *reported*, not
/// returned.
pub fn run_chaos(config: &ChaosConfig) -> PstmResult<ChaosReport> {
    let world = counter_world(config.resources, config.initial)?;
    // Checkpoint the bootstrap so recovery has an image to rebuild from
    // even if the very first WAL append after it is crashed.
    world.db.checkpoint()?;
    let injector = Arc::new(FaultInjector::new(config.plan.clone()));
    world.db.set_fault_hook(Arc::clone(&injector) as _);

    let mut chaos = Chaos {
        db: Arc::clone(&world.db),
        bindings: world.bindings.clone(),
        resources: world.resources.clone(),
        injector,
        config: config.clone(),
        clock: 0,
        acked: vec![0; config.resources],
        in_flight: None,
        in_flight_txns: Vec::new(),
        recorder: None,
        epoch_no: 0,
        recorder_checks: 0,
        epochs: Vec::new(),
        violations: Vec::new(),
    };
    let mut epoch = chaos.new_epoch()?;

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut committed = 0u64;
    let mut committed_in_doubt = 0u64;
    let mut aborted = 0u64;
    let mut aborted_sst_failure = 0u64;
    let mut lost = 0u64;
    let mut crashes = 0u64;
    let mut recovery_wall_us = Vec::new();
    let mut next_txn = 1u64;
    let mut remaining = config.sessions;

    'run: while remaining > 0 {
        // ---- Open a wave of overlapping sessions ---------------------
        let wave_n = remaining.min(WAVE);
        let mut wave: Vec<WaveSession> = Vec::new();
        for _ in 0..wave_n {
            let txn = TxnId(next_txn);
            next_txn += 1;
            let k = rng.gen_range(1usize..=config.resources.min(3));
            let mut picks: Vec<usize> = (0..config.resources).collect();
            picks.shuffle(&mut rng);
            picks.truncate(k);
            let mut subs: BTreeMap<usize, i64> = BTreeMap::new();
            for op in 0..config.ops_per_session {
                *subs.entry(picks[op % k]).or_insert(0) += 1;
            }
            let mut shards: Vec<usize> =
                picks.iter().map(|&r| chaos.shard_of(chaos.resources[r])).collect();
            shards.sort_unstable();
            shards.dedup();
            wave.push((txn, shards, subs, true));
        }
        remaining -= wave_n;

        // ---- Begin + execute every session (virtual copies overlap) --
        for (txn, shards, subs, alive) in &mut wave {
            for &s in shards.iter() {
                let now = chaos.now();
                epoch.gtms[s].begin(*txn, now)?;
            }
            'ops: for (&r, &n) in subs.iter() {
                let s = chaos.shard_of(chaos.resources[r]);
                for _ in 0..n {
                    let now = chaos.now();
                    let (outcome, _fx) = epoch.gtms[s].execute(
                        *txn,
                        chaos.resources[r],
                        ScalarOp::Sub(Value::Int(1)),
                        now,
                    )?;
                    match outcome {
                        ExecOutcome::Completed(_) => {}
                        ExecOutcome::Waiting | ExecOutcome::Aborted(_) => {
                            // Sub/Sub is compatible under Table I, so a
                            // wait/abort here means a policy knob changed;
                            // release the session everywhere and move on.
                            for &q in shards.iter() {
                                if !(matches!(outcome, ExecOutcome::Aborted(_)) && q == s) {
                                    let now = chaos.now();
                                    epoch.gtms[q].abort(*txn, now)?;
                                }
                            }
                            *alive = false;
                            aborted += 1;
                            break 'ops;
                        }
                    }
                }
            }
        }

        // ---- Commit the wave, one coordinated unit at a time ---------
        // A unit is one commit-protocol run: a solo session through the
        // cross-shard phased path, or (group-commit mode) all of a
        // shard's single-shard sessions fused through the station's
        // split protocol.
        enum Unit {
            Solo(usize),
            Group(usize, Vec<usize>),
        }
        let mut units: Vec<Unit> = Vec::new();
        if chaos.config.group_commit {
            let mut per_shard: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for (i, (_, shards, _, alive)) in wave.iter().enumerate() {
                if !*alive {
                    continue;
                }
                if shards.len() == 1 {
                    per_shard.entry(shards[0]).or_default().push(i);
                } else {
                    units.push(Unit::Solo(i));
                }
            }
            units.extend(per_shard.into_iter().map(|(s, idxs)| Unit::Group(s, idxs)));
        } else {
            units.extend(
                wave.iter()
                    .enumerate()
                    .filter(|(_, (_, _, _, alive))| *alive)
                    .map(|(i, _)| Unit::Solo(i)),
            );
        }
        let mut settled_flags = vec![false; wave.len()];
        for unit in units {
            let mut settles: Vec<(usize, CommitResult)> = Vec::new();
            let result = match &unit {
                Unit::Solo(i) => {
                    let (txn, shards, subs, _) = &wave[*i];
                    chaos.in_flight = Some(subs.clone());
                    chaos.in_flight_txns = vec![*txn];
                    chaos.commit_session(&mut epoch, *txn, shards).map(|settle| {
                        settles.push((*i, settle));
                    })
                }
                Unit::Group(shard, idxs) => {
                    chaos.commit_group_wave(&mut epoch, *shard, idxs, &wave, &mut settles)
                }
            };
            // Fold whatever settled before the unit ended — on a crash,
            // members settled by earlier batches of a group keep their
            // acknowledged outcome.
            for (i, settle) in settles {
                settled_flags[i] = true;
                match settle {
                    CommitResult::Committed => {
                        for (&r, &n) in &wave[i].2 {
                            chaos.acked[r] += n;
                        }
                        committed += 1;
                    }
                    CommitResult::Aborted(reason) => {
                        aborted += 1;
                        if reason == AbortReason::SstFailure {
                            aborted_sst_failure += 1;
                        }
                    }
                }
            }
            match result {
                Ok(()) => {
                    chaos.in_flight = None;
                    chaos.in_flight_txns.clear();
                }
                Err(PstmError::Crashed(_)) => {
                    // The process died. Volatile state (managers, the
                    // wave's other sessions) perishes; the engine
                    // recovers from checkpoint + WAL.
                    crashes += 1;
                    // Every alive-but-unsettled session is lost, pending
                    // reclassification of the in-flight unit below.
                    let stranded_txns: Vec<TxnId> = wave
                        .iter()
                        .enumerate()
                        .filter(|(i, (_, _, _, alive))| *alive && !settled_flags[*i])
                        .map(|(_, (txn, _, _, _))| *txn)
                        .collect();
                    lost += stranded_txns.len() as u64;
                    chaos.close_epoch(&epoch);
                    // Reconstruct the crash picture from the recorder
                    // file *now*, before recovery appends its own events
                    // to the dying epoch's stream — a real post-mortem
                    // reads the file of a process that is already dead.
                    let postmortem = chaos.recorder_postmortem();

                    chaos.injector.disarm();
                    let t0 = pstm_obs::wallclock::wall_now_us();
                    chaos.db.simulate_crash_and_recover()?;
                    let t1 = pstm_obs::wallclock::wall_now_us();
                    recovery_wall_us.push(match (t0, t1) {
                        (Some(a), Some(b)) => Some(b.saturating_sub(a)),
                        _ => None,
                    });

                    chaos.check_ledger(true)?;
                    let unit_survived = chaos.in_flight.take().is_some();
                    if unit_survived {
                        // check_ledger signalled "applied whole": the
                        // unit saw a crash but its fused SST survived —
                        // every member visible exactly once.
                        let members = chaos.in_flight_txns.len() as u64;
                        committed_in_doubt += members;
                        lost -= members;
                    }
                    if let Some(pm) = postmortem {
                        // The recorder's in-doubt classification must
                        // agree with the ledger's: exactly the in-flight
                        // unit's members when the SST survived whole,
                        // empty otherwise.
                        let expect_in_doubt =
                            if unit_survived { chaos.in_flight_txns.clone() } else { Vec::new() };
                        chaos.check_postmortem(&pm, stranded_txns, expect_in_doubt);
                    }
                    chaos.in_flight_txns.clear();
                    if crashes < u64::from(config.max_recoveries) {
                        chaos.injector.arm();
                    }
                    epoch = chaos.new_epoch()?;
                    continue 'run;
                }
                Err(e) => return Err(e),
            }
        }
    }

    // ---- Final accounting and certification --------------------------
    chaos.in_flight = None;
    chaos.check_ledger(false)?;
    for (i, gtm) in epoch.gtms.iter().enumerate() {
        if let Err(e) = gtm.check_invariants() {
            chaos.violations.push(format!("shard {i} invariants: {e}"));
        }
    }
    chaos.close_epoch(&epoch);
    // Final quiescent check: with every session settled, the last
    // epoch's post-mortem must reconstruct an empty in-flight picture.
    if let Some(pm) = chaos.recorder_postmortem() {
        chaos.check_postmortem(&pm, Vec::new(), Vec::new());
    }

    let stitched = stitch_streams(&chaos.epochs);
    let certified = match verify_streams(&stitched) {
        Verdict::Serializable(_) => true,
        Verdict::NotSerializable(counterexample) => {
            chaos.violations.push(format!("stitched trace rejected: {counterexample}"));
            false
        }
    };

    let mut final_values = Vec::with_capacity(config.resources);
    for r in 0..config.resources {
        final_values.push(chaos.read_value(r)?);
    }
    let fingerprint = format!(
        "{} | committed={committed} in_doubt={committed_in_doubt} aborted={aborted} \
         lost={lost} crashes={crashes} values={final_values:?}",
        chaos.injector.fingerprint()
    );
    Ok(ChaosReport {
        committed,
        committed_in_doubt,
        aborted,
        aborted_sst_failure,
        lost,
        crashes,
        faults: chaos.injector.schedule(),
        fingerprint,
        violations: chaos.violations,
        certified,
        recovery_wall_us,
        final_values,
        recorder_checks: chaos.recorder_checks,
    })
}

/// The stitched per-epoch streams of a report are internal to `run_chaos`;
/// tests that want to re-verify externally can rerun with the same config
/// (determinism makes the rerun identical). This helper exposes the
/// stitching for such flows.
#[must_use]
pub fn stitch_report_epochs(epochs: &[Vec<TraceStream>]) -> Vec<TraceStream> {
    stitch_streams(epochs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_commits_everything_and_certifies() {
        let report = run_chaos(&ChaosConfig::new(1, FaultPlan::new(1))).unwrap();
        assert_eq!(report.committed, 24);
        assert_eq!(report.crashes, 0);
        assert_eq!(report.aborted, 0);
        assert!(report.clean(), "violations: {:?}", report.violations);
        let total: i64 = report.final_values.iter().map(|v| 10_000 - v).sum();
        assert_eq!(total, 24 * 3, "every Sub(1) accounted for");
    }

    #[test]
    fn wal_append_crash_recovers_with_invariants_intact() {
        let plan = FaultPlan::new(2).crash_on_wal_append(3);
        let report = run_chaos(&ChaosConfig::new(2, plan)).unwrap();
        assert_eq!(report.crashes, 1);
        assert_eq!(report.faults.len(), 1);
        assert_eq!(report.faults[0].site, "wal-append");
        assert!(report.clean(), "violations: {:?}", report.violations);
        // Everyone not caught by the crash still finished.
        assert_eq!(report.committed + report.committed_in_doubt + report.aborted + report.lost, 24);
    }

    #[test]
    fn pre_finish_crash_is_committed_in_doubt_exactly_once() {
        let plan = FaultPlan::new(3).crash_at_kind("pre-finish", 2);
        let report = run_chaos(&ChaosConfig::new(3, plan)).unwrap();
        assert_eq!(report.crashes, 1);
        // The fused SST was durable before the crash: the in-flight
        // commit must have survived whole and been folded into the
        // ledger (then re-proven un-duplicated in the next epoch).
        assert_eq!(report.committed_in_doubt, 1);
        assert!(report.clean(), "violations: {:?}", report.violations);
    }

    fn recorder_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pstm-chaos-rec-{}-{name}", std::process::id()))
    }

    #[test]
    fn recorder_mode_cross_checks_every_crash() {
        let dir = recorder_dir("crash");
        let plan = FaultPlan::new(2).crash_on_wal_append(3);
        let report = run_chaos(&ChaosConfig::new(2, plan).with_recorder(&dir)).unwrap();
        assert_eq!(report.crashes, 1);
        assert!(report.clean(), "violations: {:?}", report.violations);
        // One post-mortem per crash plus the final quiescent check.
        assert_eq!(report.recorder_checks, report.crashes + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recorder_mode_agrees_with_ledger_on_in_doubt_survivors() {
        // A pre-finish crash strands a durable-but-unacknowledged commit:
        // the ledger reclassifies it as committed-in-doubt, and the
        // post-mortem must reconstruct exactly that set from the file.
        let dir = recorder_dir("indoubt");
        let plan = FaultPlan::new(3).crash_at_kind("pre-finish", 2);
        let report = run_chaos(&ChaosConfig::new(3, plan).with_recorder(&dir)).unwrap();
        assert_eq!(report.committed_in_doubt, 1);
        assert!(report.clean(), "violations: {:?}", report.violations);
        assert_eq!(report.recorder_checks, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recorder_mode_leaves_the_fingerprint_untouched() {
        let dir = recorder_dir("parity");
        let config = ChaosConfig::new(7, FaultPlan::random(7));
        let dark = run_chaos(&config).unwrap();
        let recorded = run_chaos(&config.clone().with_recorder(&dir)).unwrap();
        assert_eq!(dark.fingerprint, recorded.fingerprint, "recording must not perturb the run");
        assert_eq!(dark.faults, recorded.faults);
        assert_eq!(recorded.recorder_checks, recorded.crashes + 1);
        assert_eq!(dark.recorder_checks, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn same_seed_and_plan_replay_byte_identically() {
        let config = ChaosConfig::new(7, FaultPlan::random(7));
        let a = run_chaos(&config).unwrap();
        let b = run_chaos(&config).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.faults, b.faults);
        let other = run_chaos(&ChaosConfig::new(8, FaultPlan::random(7))).unwrap();
        assert_ne!(a.fingerprint, other.fingerprint, "different workload seeds should not collide");
    }
}
