//! The layer ladder: single-threaded direct calls into each layer's
//! public functions, on the workload's own transaction shape.
//!
//! Rungs, bottom to top, each calling (directly or through the layers
//! between) the one below it:
//!
//! | rung                     | one transaction is                              |
//! |--------------------------|-------------------------------------------------|
//! | `storage.wal_append_ns`  | `Wal::append` of `Begin`, one `Update` per write, `Commit` |
//! | `storage.update_ns`      | `Database::begin`, `update` per write, `commit` |
//! | `storage.apply_ns`       | `Database::apply_write_set` (no device latency) |
//! | `core.gtm_txn_ns`        | `Gtm::begin/execute/sleep/awake/commit`         |
//! | `front.session_txn_ns`   | one `ShardedFront::session()` transaction       |
//! | `reactor.spawn_txn_ns`   | `Reactor::spawn_program` until its fate lands   |
//! | `reactor.handle_txn_ns`  | the same calls through `Reactor::handle()`      |
//!
//! A rung's `*_self_ns` is its time minus the rung below, so the self
//! times sum to the top rung. A disconnect is a `sleep` followed at once
//! by `awake`. Each rung runs fresh state per batch (built outside the
//! timed part) and reports the median of its batch means.
//!
//! Beside the ladder, `core.tick_ns` times one `Gtm::tick` on a GTM
//! that has already run [`AGED`] transactions. The GTM keeps every
//! transaction it has seen, and a tick walks them all; a reactor worker
//! re-fires a shard's tick without reading its queue while the tick
//! takes longer than the reactor's `tick_interval` (5 ms by default).

use crate::fleet::{build_world, drive_handle, front_config, CallTimes, ClientFate, Instance};
use crate::gen::{Gen, Spec, Stream, INITIAL};
use pstm_core::Gtm;
use pstm_front::reactor::ProgramStep;
use pstm_front::ShardedFront;
use pstm_obs::prof::{self, CommitPhase};
use pstm_storage::{Binding, LogRecord, Wal, WriteOp, WriteSet};
use pstm_types::{PstmError, PstmResult, ScalarOp, Timestamp, TxnId, Value};
use std::time::{Duration, Instant};

/// Distinct programs every rung cycles through.
const POOL: usize = 4096;

/// Target wall time of one timed batch.
const BATCH: Duration = Duration::from_millis(10);

/// Finished transactions on the GTM whose tick `core.tick_ns` times.
pub const AGED: usize = 25_000;

/// Ticks timed on the aged GTM; `core.tick_ns` is their median.
const TICKS: usize = 31;

/// The rung names, bottom to top.
pub const RUNGS: [&str; 7] = [
    "storage.wal_append",
    "storage.update",
    "storage.apply",
    "core.gtm_txn",
    "front.session_txn",
    "reactor.spawn_txn",
    "reactor.handle_txn",
];

/// What the ladder measured.
pub struct LadderReport {
    /// Median ns per transaction of each rung, in [`RUNGS`] order.
    pub rung_ns: [f64; 7],
    /// Profiled phase time per front transaction, ns, in
    /// [`CommitPhase::ALL`] order.
    pub phase_ns: Vec<(CommitPhase, f64)>,
    /// Median ns of a front transaction with the profiler on.
    pub profiled_front_ns: f64,
    /// Median ns of one `Gtm::tick` after [`AGED`] transactions.
    pub tick_ns: f64,
}

impl LadderReport {
    /// Each rung minus the rung below it (the bottom rung is its own
    /// self time).
    #[must_use]
    pub fn self_ns(&self) -> [f64; 7] {
        let mut out = self.rung_ns;
        for (i, below) in self.rung_ns.iter().enumerate().take(out.len() - 1) {
            out[i + 1] -= below;
        }
        out
    }

    /// A profiled front transaction minus its phases: time no phase
    /// covers.
    #[must_use]
    pub fn unaccounted_ns(&self) -> f64 {
        self.profiled_front_ns - self.phase_ns.iter().map(|(_, ns)| ns).sum::<f64>()
    }

    /// What the profiler adds to a front transaction. Phases, the
    /// unaccounted rest and this overhead sum to `front.session_txn_ns`.
    #[must_use]
    pub fn profiler_overhead_ns(&self) -> f64 {
        self.rung_ns[4] - self.profiled_front_ns
    }
}

/// One program with its writes resolved to storage addresses.
struct Txn {
    program: Vec<ProgramStep>,
    /// The program with every disconnect shortened to zero.
    immediate: Vec<ProgramStep>,
    writes: Vec<Binding>,
}

fn pool(spec: &Spec, seed: u64) -> PstmResult<Vec<Txn>> {
    let world = build_world(spec)?;
    let mut gen = Gen::new(spec, &world.resources, seed, Stream::Ladder);
    (0..POOL)
        .map(|_| {
            let program = gen.next_program();
            let mut writes = Vec::new();
            for step in &program {
                if let ProgramStep::Execute(r, op) = step {
                    if *op != ScalarOp::Read {
                        writes.push(world.bindings.resolve(*r)?);
                    }
                }
            }
            let immediate = program
                .iter()
                .map(|s| match s {
                    ProgramStep::SleepFor(_) => ProgramStep::SleepFor(0),
                    other => other.clone(),
                })
                .collect();
            Ok(Txn { program, immediate, writes })
        })
        .collect()
}

/// Times one rung: fresh state per batch, batch size calibrated to
/// about [`BATCH`], batches until `budget` is spent. With `profile`, the
/// phase profiler runs during the timed batches only (never during
/// set-up). Returns the median ns per transaction and the number of
/// transactions run in timed batches, calibration included.
fn time_rung<S>(
    budget: Duration,
    profile: bool,
    mut setup: impl FnMut() -> PstmResult<S>,
    mut batch: impl FnMut(&mut S, usize, usize) -> PstmResult<()>,
    mut teardown: impl FnMut(S),
) -> PstmResult<(f64, u64)> {
    let mut total = 0u64;
    let mut run = |n: usize, from: usize| -> PstmResult<f64> {
        let mut state = setup()?;
        prof::set_enabled(profile);
        let t = Instant::now();
        let result = batch(&mut state, from, n);
        let ns = t.elapsed().as_secs_f64() * 1e9;
        prof::set_enabled(false);
        result?;
        teardown(state);
        total += n as u64;
        Ok(ns / n as f64)
    };
    let started = Instant::now();
    let calibration_ns = run(16, 0)?;
    let n = ((BATCH.as_secs_f64() * 1e9 / calibration_ns.max(1.0)) as usize).clamp(4, POOL);
    let mut means = Vec::new();
    let mut from = 0;
    while means.len() < 3 || started.elapsed() < budget {
        means.push(run(n, from)?);
        from = (from + n) % POOL;
    }
    Ok((crate::stats::median(&mut means), total))
}

fn ladder_err(what: &str) -> PstmError {
    PstmError::Io(format!("ladder: {what}"))
}

/// Runs the whole ladder within about `budget`.
pub fn measure(spec: &Spec, seed: u64, budget: Duration) -> PstmResult<LadderReport> {
    let txns = pool(spec, seed)?;
    let per_rung = budget / 8;
    let value = Value::Int(INITIAL - 1);
    let mut next_id = 1_000u64;
    let mut fresh_id = move || {
        next_id += 1;
        TxnId(next_id)
    };
    let mut rung_ns = [0.0; 7];

    // storage.wal_append
    rung_ns[0] = time_rung(
        per_rung,
        false,
        || Ok(Wal::new()),
        |wal, from, n| {
            for k in 0..n {
                let t = &txns[(from + k) % POOL];
                let txn = fresh_id();
                wal.append(&LogRecord::Begin { txn })?;
                for b in &t.writes {
                    wal.append(&LogRecord::Update {
                        txn,
                        table: b.table,
                        row_id: b.row,
                        column: b.column,
                        before: Value::Int(INITIAL),
                        after: value.clone(),
                    })?;
                }
                wal.append(&LogRecord::Commit { txn })?;
            }
            Ok(())
        },
        drop,
    )?
    .0;

    // storage.update
    rung_ns[1] = time_rung(
        per_rung,
        false,
        || build_world(&Spec { apply_latency_us: 0, ..*spec }),
        |world, from, n| {
            for k in 0..n {
                let t = &txns[(from + k) % POOL];
                let txn = fresh_id();
                world.db.begin(txn)?;
                for b in &t.writes {
                    world.db.update(txn, b.table, b.row, b.column, value.clone())?;
                }
                world.db.commit(txn)?;
            }
            Ok(())
        },
        drop,
    )?
    .0;

    // storage.apply (CPU only: the ladder's world has no device latency)
    let sets: Vec<WriteSet> = txns
        .iter()
        .map(|t| {
            WriteSet(
                t.writes
                    .iter()
                    .map(|b| WriteOp::Update {
                        table: b.table,
                        row_id: b.row,
                        column: b.column,
                        value: value.clone(),
                    })
                    .collect(),
            )
        })
        .collect();
    rung_ns[2] = time_rung(
        per_rung,
        false,
        || build_world(&Spec { apply_latency_us: 0, ..*spec }),
        |world, from, n| {
            for k in 0..n {
                world.db.apply_write_set(fresh_id(), &sets[(from + k) % POOL])?;
            }
            Ok(())
        },
        drop,
    )?
    .0;

    // core.gtm_txn
    let gtm_config = front_config(spec).gtm;
    rung_ns[3] = time_rung(
        per_rung,
        false,
        || {
            let world = build_world(&Spec { apply_latency_us: 0, ..*spec })?;
            Ok((Gtm::new(world.db, world.bindings, gtm_config), 1u64))
        },
        |(gtm, clock), from, n| {
            for k in 0..n {
                gtm_txn(gtm, clock, fresh_id(), &txns[(from + k) % POOL].program)?;
            }
            Ok(())
        },
        drop,
    )?
    .0;

    // core.tick: one tick of a GTM that has run AGED transactions
    let world = build_world(&Spec { apply_latency_us: 0, ..*spec })?;
    let mut gtm = Gtm::new(world.db, world.bindings, gtm_config);
    let mut clock = 1u64;
    for k in 0..AGED {
        gtm_txn(&mut gtm, &mut clock, fresh_id(), &txns[k % POOL].program)?;
    }
    let mut ticks = Vec::with_capacity(TICKS);
    for _ in 0..TICKS {
        clock += 1;
        let t = Instant::now();
        gtm.tick(Timestamp(clock))?;
        ticks.push(t.elapsed().as_secs_f64() * 1e9);
    }
    drop(gtm);
    let tick_ns = crate::stats::median(&mut ticks);

    // front.session_txn, unprofiled and then profiled
    let front_setup = || {
        let world = build_world(&Spec { apply_latency_us: 0, ..*spec })?;
        Ok(ShardedFront::new(world.db, world.bindings, front_config(spec)))
    };
    let front_batch = |front: &mut ShardedFront, from: usize, n: usize| {
        for k in 0..n {
            front_txn(front, &txns[(from + k) % POOL].program)?;
        }
        Ok(())
    };
    rung_ns[4] = time_rung(per_rung, false, front_setup, front_batch, drop)?.0;
    prof::reset();
    let (profiled_front_ns, profiled_txns) =
        time_rung(per_rung, true, front_setup, front_batch, drop)?;
    let profile = prof::snapshot();
    prof::reset();
    let phase_ns = CommitPhase::ALL
        .iter()
        .map(|p| (*p, profile.ns(*p) as f64 / profiled_txns as f64))
        .collect();

    // reactor.spawn_txn
    let reactor_spec = Spec { apply_latency_us: 0, ..*spec };
    rung_ns[5] = time_rung(
        per_rung,
        false,
        || Instance::start(&reactor_spec, false),
        |inst, from, n| {
            for k in 0..n {
                let done = inst.reactor.census().finished as usize;
                inst.reactor.spawn_program(txns[(from + k) % POOL].immediate.clone());
                inst.reactor.wait_finished(done + 1);
            }
            Ok(())
        },
        Instance::shutdown,
    )?
    .0;

    // reactor.handle_txn
    rung_ns[6] = time_rung(
        per_rung,
        false,
        || Instance::start(&reactor_spec, false),
        |inst, from, n| {
            let mut times = CallTimes::default();
            for k in 0..n {
                let mut handle = inst.reactor.handle();
                let fate = drive_handle(&mut handle, &txns[(from + k) % POOL].program, &mut times);
                if fate != ClientFate::Committed {
                    return Err(ladder_err("uncontended handle transaction did not commit"));
                }
            }
            Ok(())
        },
        Instance::shutdown,
    )?
    .0;

    Ok(LadderReport { rung_ns, phase_ns, profiled_front_ns, tick_ns })
}

fn gtm_txn(gtm: &mut Gtm, clock: &mut u64, txn: TxnId, program: &[ProgramStep]) -> PstmResult<()> {
    let mut now = || {
        *clock += 1;
        Timestamp(*clock)
    };
    gtm.begin(txn, now())?;
    for step in program {
        match step {
            ProgramStep::Execute(r, op) => {
                gtm.execute(txn, *r, op.clone(), now())?;
            }
            ProgramStep::SleepFor(_) => {
                gtm.sleep(txn, now())?;
                gtm.awake(txn, now())?;
            }
            ProgramStep::Commit => {
                let (result, _) = gtm.commit(txn, now())?;
                if result != pstm_core::CommitResult::Committed {
                    return Err(ladder_err("uncontended GTM commit aborted"));
                }
                return Ok(());
            }
            ProgramStep::Abort => {
                gtm.abort(txn, now())?;
                return Ok(());
            }
        }
    }
    Ok(())
}

fn front_txn(front: &ShardedFront, program: &[ProgramStep]) -> PstmResult<()> {
    let mut session = front.session();
    for step in program {
        match step {
            ProgramStep::Execute(r, op) => {
                session.execute(*r, op.clone())?;
            }
            ProgramStep::SleepFor(_) => {
                session.sleep()?;
                session.awake()?;
            }
            ProgramStep::Commit => {
                if session.commit()? != pstm_core::CommitResult::Committed {
                    return Err(ladder_err("uncontended front commit aborted"));
                }
                return Ok(());
            }
            ProgramStep::Abort => {
                session.abort()?;
                return Ok(());
            }
        }
    }
    Ok(())
}
