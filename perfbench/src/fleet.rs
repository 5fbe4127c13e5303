//! The load generator: one closed-loop fleet driver plus one probe
//! client, over a reactor-hosted front.
//!
//! The driver keeps `Spec::in_flight` scripted sessions alive through
//! [`Reactor::spawn_program`], in one closed loop or one per shard
//! ([`Loops`]): a new session starts when one finishes (the driver polls
//! every [`REFILL`]). The reactor's own completion counters
//! (`census().finished`, the ledger) and the shards' settle counters
//! also count the probe's [`SessionHandle`] sessions, so the driver
//! subtracts the probe's own finished count, and keeps the exact
//! per-session bookkeeping by the `TxnId`s `spawn_program` returns.

use crate::gen::{shards_touched, Gen, Keys, Loops, Spec, Stream, INITIAL};
use crate::stats::rss_mb;
use pstm_core::CommitResult;
use pstm_front::reactor::{Fate, ProgramStep, Reactor, ReactorConfig, SessionHandle};
use pstm_front::{AwakeOutcome, FrontConfig, SessionOutcome, ShardedFront};
use pstm_obs::{Ctr, RingSink, Tracer};
use pstm_storage::Database;
use pstm_types::{PstmResult, ResourceId, TxnId};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Records each shard tracer keeps in a traced run (oldest evicted).
const TRACE_RING: usize = 1 << 16;

/// How often the driver refills the fleet: a finished session is
/// replaced within about this long.
const REFILL: Duration = Duration::from_micros(250);

/// With no session finishing for this long, the reactor counts as
/// stalled.
const STALL_AFTER: Duration = Duration::from_secs(10);

/// How often the driver samples the reactor's queue depths.
const DEPTH_SAMPLE: Duration = Duration::from_millis(1);

/// How often the driver samples the process's resident memory.
const RSS_SAMPLE: Duration = Duration::from_millis(10);

/// The front configuration every workload runs with: parked waits (the
/// reactor requires them), group commit on, default wait timeout.
#[must_use]
pub fn front_config(spec: &Spec) -> FrontConfig {
    FrontConfig {
        shards: spec.shards,
        parked_waits: true,
        group_commit: true,
        ..FrontConfig::default()
    }
}

/// A world of `spec.objects` counters with the workload's device
/// latency installed.
pub fn build_world(spec: &Spec) -> PstmResult<pstm_workload::World> {
    let world = pstm_workload::counter_world(spec.objects, INITIAL)?;
    world.db.set_apply_latency(Duration::from_micros(spec.apply_latency_us));
    Ok(world)
}

/// One system under test: world, front and a started reactor.
pub struct Instance {
    /// The shared engine (read for engine counters after a run).
    pub db: Arc<Database>,
    /// The world's objects, in object order.
    pub resources: Vec<ResourceId>,
    /// The sharded front.
    pub front: ShardedFront,
    /// The reactor hosting every session of the run.
    pub reactor: Reactor,
}

impl Instance {
    /// Builds the world, the front and starts the reactor. `traced`
    /// gives every shard its own ring-buffer tracer.
    pub fn start(spec: &Spec, traced: bool) -> PstmResult<Instance> {
        let world = build_world(spec)?;
        let config = front_config(spec);
        let front = if traced {
            ShardedFront::with_shard_tracers(Arc::clone(&world.db), world.bindings, config, |_| {
                Tracer::with_sink(Box::new(RingSink::new(TRACE_RING)))
            })
        } else {
            ShardedFront::new(Arc::clone(&world.db), world.bindings, config)
        };
        let reactor = Reactor::start(
            front.clone(),
            ReactorConfig { workers: spec.workers.config(), ..ReactorConfig::default() },
        )?;
        Ok(Instance { db: world.db, resources: world.resources, front, reactor })
    }

    /// Stops the reactor and joins its workers.
    pub fn shutdown(self) {
        self.reactor.shutdown();
    }
}

/// Layout of one fleet run, in fleet sessions spawned. A fixed count
/// (rather than a fixed time) keeps the world the same size whatever
/// the host's speed.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// Fleet sessions spawned before the measured interval opens.
    pub warmup_txns: u64,
    /// Fleet sessions spawned inside the measured interval, which
    /// closes once the last of them is spawned.
    pub measure_txns: u64,
    /// Sample the reactor's queue depths (every [`DEPTH_SAMPLE`]). The
    /// snapshot locks the reactor's histograms, which every worker
    /// message also locks, so untraced runs leave it off.
    pub sample_queues: bool,
}

/// How one probe transaction ended, from the client's side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientFate {
    /// The commit was acknowledged.
    Committed,
    /// An execute, awake or commit reported an abort.
    Aborted,
    /// A call returned an error.
    Failed,
}

/// Per-call latencies of one probe transaction, in µs.
#[derive(Default)]
pub struct CallTimes {
    /// Every `execute` call.
    pub execute_us: Vec<f64>,
    /// The `commit` call, if reached.
    pub commit_us: Vec<f64>,
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Runs `program` through a session handle, one blocking call per
/// step. A disconnect is `sleep` followed at once by `awake`: the probe
/// measures the calls, not the time a client spends offline.
pub fn drive_handle(
    handle: &mut SessionHandle,
    program: &[ProgramStep],
    times: &mut CallTimes,
) -> ClientFate {
    for step in program {
        match step {
            ProgramStep::Execute(resource, op) => {
                let t = Instant::now();
                let out = handle.execute(*resource, op.clone());
                times.execute_us.push(us_since(t));
                match out {
                    Ok(SessionOutcome::Value(_)) => {}
                    Ok(SessionOutcome::Aborted(_)) => return ClientFate::Aborted,
                    Err(_) => return ClientFate::Failed,
                }
            }
            ProgramStep::SleepFor(_) => {
                if handle.sleep().is_err() {
                    return ClientFate::Failed;
                }
                match handle.awake() {
                    Ok(AwakeOutcome::Resumed(_)) => {}
                    Ok(AwakeOutcome::Aborted) => return ClientFate::Aborted,
                    Err(_) => return ClientFate::Failed,
                }
            }
            ProgramStep::Commit => {
                let t = Instant::now();
                let out = handle.commit();
                times.commit_us.push(us_since(t));
                return match out {
                    Ok(CommitResult::Committed) => ClientFate::Committed,
                    Ok(CommitResult::Aborted(_)) => ClientFate::Aborted,
                    Err(_) => ClientFate::Failed,
                };
            }
            ProgramStep::Abort => {
                return if handle.abort().is_ok() {
                    ClientFate::Aborted
                } else {
                    ClientFate::Failed
                };
            }
        }
    }
    match handle.commit() {
        Ok(CommitResult::Committed) => ClientFate::Committed,
        Ok(CommitResult::Aborted(_)) => ClientFate::Aborted,
        Err(_) => ClientFate::Failed,
    }
}

/// What the probe saw.
#[derive(Default)]
pub struct ProbeOutcome {
    /// Every probe transaction, with the shards its program touches.
    pub txns: Vec<(TxnId, u64)>,
    /// Latency from the first call to the final reply, µs, for
    /// transactions started inside the measured interval.
    pub txn_us: Vec<f64>,
    /// Per-call latencies inside the measured interval.
    pub calls: CallTimes,
}

/// What one fleet run produced. The ledger is taken after the drain,
/// so every session in it has its final fate.
pub struct FleetOutcome {
    /// Every fleet transaction, with the shards its program touches.
    pub fleet: Vec<(TxnId, u64)>,
    /// The probe's view.
    pub probe: ProbeOutcome,
    /// Length of the measured interval, s.
    pub window_s: f64,
    /// Fleet commits acknowledged inside the measured interval.
    pub window_committed: u64,
    /// Largest total reactor queue depth the driver sampled.
    pub queue_depth_peak: u64,
    /// Largest resident memory the driver sampled, MiB, the drained
    /// world included.
    pub peak_rss_mb: f64,
    /// Every session's fate (fleet and probe).
    pub ledger: BTreeMap<TxnId, Fate>,
}

fn fleet_committed(ledger: &BTreeMap<TxnId, Fate>, fleet: &HashSet<TxnId>) -> u64 {
    ledger.iter().filter(|(id, fate)| **fate == Fate::Committed && fleet.contains(id)).count()
        as u64
}

/// The shard of a program's first object.
fn home_shard(program: &[ProgramStep], front: &ShardedFront) -> usize {
    program
        .iter()
        .find_map(|step| match step {
            ProgramStep::Execute(r, _) => Some(front.shard_of(*r)),
            _ => None,
        })
        .unwrap_or(0)
}

/// Sessions that settled (committed or aborted) on `shard`, from its
/// tracer's counters. A single-shard session settles exactly once.
fn shard_settled(front: &ShardedFront, shard: usize) -> u64 {
    front.shard_tracer(shard).with_registry(|r| r.counter(Ctr::Committed) + r.counter(Ctr::Aborted))
}

/// The probe's finished transactions, by home shard.
struct ProbeDone(Vec<AtomicU64>);

impl ProbeDone {
    fn total(&self) -> u64 {
        self.0.iter().map(|n| n.load(Ordering::Acquire)).sum()
    }

    fn on(&self, shard: usize) -> u64 {
        self.0[shard].load(Ordering::Acquire)
    }
}

fn run_probe(
    inst: &Instance,
    spec: &Spec,
    seed: u64,
    stop: &AtomicBool,
    measuring: &AtomicBool,
    probe_done: &ProbeDone,
) -> ProbeOutcome {
    let mut gen = Gen::new(spec, &inst.resources, seed, Stream::Probe);
    let mut out = ProbeOutcome::default();
    while !stop.load(Ordering::Acquire) {
        let program = gen.next_program();
        let home = home_shard(&program, &inst.front);
        let mut handle = inst.reactor.handle();
        out.txns.push((handle.id(), shards_touched(&program, &inst.front)));
        let in_window = measuring.load(Ordering::Acquire);
        let start = Instant::now();
        let mut times = CallTimes::default();
        // The fate is read back from the ledger, which the gate checks.
        drive_handle(&mut handle, &program, &mut times);
        let total = us_since(start);
        if in_window {
            out.txn_us.push(total);
            out.calls.execute_us.extend(times.execute_us);
            out.calls.commit_us.extend(times.commit_us);
        }
        // Counted only after the final reply: the session has already
        // finished, so a fleet count that subtracts this one is high by
        // at most this session.
        probe_done.0[home].fetch_add(1, Ordering::AcqRel);
    }
    out
}

/// One closed loop of the fleet driver.
struct Loop {
    gen: Gen,
    slots: u64,
    spawned: u64,
    /// The shard whose settled sessions this loop counts; `None` counts
    /// every finished session.
    shard: Option<usize>,
}

fn loops(inst: &Instance, spec: &Spec, seed: u64) -> Vec<Loop> {
    match spec.loops {
        Loops::Single => vec![Loop {
            gen: Gen::new(spec, &inst.resources, seed, Stream::Fleet),
            slots: spec.in_flight as u64,
            spawned: 0,
            shard: None,
        }],
        Loops::PerShard => {
            assert!(
                spec.keys == Keys::Uniform && !spec.second_object,
                "per-shard loops need single-object programs with uniform keys"
            );
            (0..spec.shards)
                .map(|shard| {
                    let home = (0..inst.resources.len())
                        .filter(|&i| inst.front.shard_of(inst.resources[i]) == shard)
                        .collect();
                    let stream = Stream::FleetShard(shard as u32);
                    let slots = spec.in_flight / spec.shards
                        + usize::from(shard < spec.in_flight % spec.shards);
                    Loop {
                        gen: Gen::new(spec, &inst.resources, seed, stream).homed(home),
                        slots: slots as u64,
                        spawned: 0,
                        shard: Some(shard),
                    }
                })
                .collect()
        }
    }
}

/// Detects a reactor that stopped finishing sessions.
struct Watchdog {
    finished: u64,
    since: Instant,
}

impl Watchdog {
    fn new(reactor: &Reactor) -> Watchdog {
        Watchdog { finished: reactor.census().finished, since: Instant::now() }
    }

    /// Resets on progress. After [`STALL_AFTER`] without any, reports
    /// the reactor's state and every thread's and exits the process: a
    /// stalled reactor cannot be unwound, since its workers and the
    /// probe are blocked inside it.
    fn check(&mut self, inst: &Instance, what: &str) {
        let reactor = &inst.reactor;
        let finished = reactor.census().finished;
        if finished != self.finished {
            self.finished = finished;
            self.since = Instant::now();
            return;
        }
        if self.since.elapsed() < STALL_AFTER {
            return;
        }
        eprintln!(
            "pstm-perfbench: reactor stalled while {what}: no session finished for {} s",
            STALL_AFTER.as_secs()
        );
        eprintln!("census {:?}", reactor.census());
        eprintln!("queue depth per worker {:?}", reactor.snapshot().queue_depth);
        // Two samples a second apart tell a spinning thread from a
        // blocked one.
        eprintln!("threads (name, state, cpu ticks):\n{}", crate::stats::threads());
        std::thread::sleep(Duration::from_secs(1));
        eprintln!("one second later:\n{}", crate::stats::threads());
        eprintln!("GTM counters {:?}", inst.front.stats());
        eprintln!("GTM invariants: {:?}", inst.front.check_invariants());
        std::process::exit(1);
    }
}

/// Runs the fleet and the probe against `inst` for `window`, then stops
/// both and drains every session.
pub fn run(inst: &Instance, spec: &Spec, seed: u64, window: Window) -> FleetOutcome {
    let reactor = &inst.reactor;
    let front = &inst.front;
    let stop = AtomicBool::new(false);
    let measuring = AtomicBool::new(false);
    let probe_done = ProbeDone((0..front.shards()).map(|_| AtomicU64::new(0)).collect());
    let finished_before = reactor.census().finished;
    let settled_before: Vec<u64> = (0..front.shards()).map(|s| shard_settled(front, s)).collect();
    let total_txns = window.warmup_txns + window.measure_txns;

    std::thread::scope(|scope| {
        let probe = scope.spawn(|| run_probe(inst, spec, seed, &stop, &measuring, &probe_done));

        let mut loops = loops(inst, spec, seed);
        let mut fleet = Vec::new();
        let mut fleet_ids = HashSet::new();
        let mut depth_peak = 0u64;
        let mut next_sample = Instant::now();
        let mut rss_peak = 0.0f64;
        let mut next_rss = next_sample;
        let mut first_mark: Option<(Instant, u64)> = None;
        let mut watchdog = Watchdog::new(reactor);
        loop {
            for l in &mut loops {
                // The system's count first, then the probe's: a probe
                // session finishing in between can only make it low.
                let done = match l.shard {
                    None => (reactor.census().finished - finished_before)
                        .saturating_sub(probe_done.total()),
                    Some(s) => (shard_settled(front, s) - settled_before[s])
                        .saturating_sub(probe_done.on(s)),
                };
                while l.spawned - done.min(l.spawned) < l.slots && (fleet.len() as u64) < total_txns
                {
                    let program = l.gen.next_program();
                    let shards = shards_touched(&program, front);
                    let id = reactor.spawn_program(program);
                    l.spawned += 1;
                    fleet.push((id, shards));
                    fleet_ids.insert(id);
                }
            }
            let now = Instant::now();
            if now >= next_rss {
                rss_peak = rss_peak.max(rss_mb());
                next_rss = now + RSS_SAMPLE;
            }
            if window.sample_queues && now >= next_sample {
                let depth: u64 = reactor.snapshot().queue_depth.iter().sum();
                depth_peak = depth_peak.max(depth);
                next_sample = now + DEPTH_SAMPLE;
            }
            // The opening snapshot is taken before the probe starts
            // timing, so its ledger lock delays no timed probe call.
            if first_mark.is_none() && fleet.len() as u64 >= window.warmup_txns {
                let ledger = reactor.ledger();
                first_mark = Some((Instant::now(), fleet_committed(&ledger, &fleet_ids)));
                measuring.store(true, Ordering::Release);
            }
            if fleet.len() as u64 >= total_txns {
                break;
            }
            watchdog.check(inst, "loading");
            // Poll rather than wait on the ledger: its condvar rings on
            // every finished session, which would wake this thread tens of
            // thousands of times a second on a machine the workers share.
            std::thread::sleep(REFILL);
        }

        // The probe stops before the closing ledger snapshot: cloning the
        // ledger holds its lock, and no timed probe call may wait on that.
        measuring.store(false, Ordering::Release);
        stop.store(true, Ordering::Release);
        while !probe.is_finished() {
            watchdog.check(inst, "stopping the probe");
            std::thread::sleep(REFILL);
        }
        let probe = probe.join().expect("probe thread panicked");
        let (from, committed_from) = first_mark.expect("the loop ends after the first mark");
        let to = Instant::now();
        let window_committed = fleet_committed(&reactor.ledger(), &fleet_ids) - committed_from;
        let window_s = (to - from).as_secs_f64();
        let total = finished_before + (fleet.len() + probe.txns.len()) as u64;
        while reactor.census().finished < total {
            watchdog.check(inst, "draining");
            std::thread::sleep(REFILL);
        }
        // The census counts a session just before its fate is recorded.
        reactor.wait_finished(total as usize);
        // Nothing a world allocates is freed before it shuts down, so the
        // drained world is at its largest.
        let peak_rss_mb = rss_peak.max(rss_mb());
        FleetOutcome {
            fleet,
            probe,
            window_s,
            window_committed,
            queue_depth_peak: depth_peak,
            peak_rss_mb,
            ledger: reactor.ledger(),
        }
    })
}
