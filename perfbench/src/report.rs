//! One benchmark run: set-up, load, gate, and the metrics it reports.

use crate::fleet::{self, CallTimes, FleetOutcome, Instance, Window};
use crate::gate::{self, FateCounts, GateReport};
use crate::gen::{Spec, Workload};
use crate::ladder::{self, RUNGS};
use crate::stats::{cpu_steal_jiffies, hist_quantile, median, quantile, ratio, trim_heap};
use pstm_obs::prof::{self, CommitPhase};
use pstm_obs::{Ctr, Histogram};
use pstm_storage::engine::EngineStats;
use pstm_types::{PstmResult, TxnId};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Set-ups timed (and shut down again) before each epoch, besides the
/// epoch's own; `setup_s` is the median over all of them. On a shared
/// host set-up time drifts in streaks of seconds, so the samples are
/// spread over the whole run rather than taken back to back.
const SETUP_REPEATS: usize = 3;

/// One named metric.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run reports.
pub struct Report {
    /// The correctness gate passed on every instance the run loaded.
    pub correct: bool,
    /// Transactions attempted by the fleet and the probe.
    pub attempted: u64,
    /// Transactions that ended in an infrastructure failure.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result object.
    pub notes: Vec<String>,
    /// Gate violations, if any.
    pub violations: Vec<String>,
}

impl Report {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// The result object: one line of JSON.
    #[must_use]
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(s, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
        }
        s.push_str("}}");
        s
    }
}

/// Builds, times and shuts down `SETUP_REPEATS` instances into
/// `times`.
fn setup_samples(spec: &Spec, times: &mut Vec<f64>) -> PstmResult<()> {
    for _ in 0..SETUP_REPEATS {
        trim_heap();
        let t = Instant::now();
        let inst = Instance::start(spec, false)?;
        times.push(t.elapsed().as_secs_f64());
        inst.shutdown();
    }
    Ok(())
}

/// The program seed of epoch `e` of a run seeded `seed`.
fn epoch_seed(seed: u64, e: usize) -> u64 {
    seed ^ (e as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One loaded, drained and gated world, not yet shut down.
///
/// The GTM, the reactor's ledger and owner map and the WAL keep every
/// transaction for the life of a world, so a world's throughput falls
/// and its gate check grows with its age. A run therefore loads a fresh
/// world per epoch, for the workload's fixed number of transactions:
/// every epoch measures a world of the same size, and no metric depends
/// on `--seconds` or on the host's speed.
struct Epoch {
    inst: Instance,
    setup_s: f64,
    out: FleetOutcome,
    gate: GateReport,
    /// Engine counters right after set-up.
    engine_before: EngineStats,
}

impl Epoch {
    /// A fresh instance loaded for the workload's warm-up and measured
    /// transactions, then drained and gated. `traced` adds shard
    /// tracers, the phase profiler (on only while the fleet runs) and
    /// queue-depth sampling.
    fn run(spec: &Spec, seed: u64, traced: bool) -> PstmResult<Epoch> {
        trim_heap();
        let t = Instant::now();
        let inst = Instance::start(spec, traced)?;
        let setup_s = t.elapsed().as_secs_f64();
        let engine_before = inst.db.stats();
        let window = Window {
            warmup_txns: spec.warmup_txns,
            measure_txns: spec.measure_txns,
            sample_queues: traced,
        };
        prof::set_enabled(traced);
        let out = fleet::run(&inst, spec, seed, window);
        prof::set_enabled(false);
        let gate = gate::check(&inst, &all_txns(&out), &out.ledger);
        Ok(Epoch { inst, setup_s, out, gate, engine_before })
    }

    fn tps(&self) -> f64 {
        ratio(self.out.window_committed as f64, self.out.window_s)
    }

    fn attempted(&self) -> u64 {
        (self.out.fleet.len() + self.out.probe.txns.len()) as u64
    }
}

/// Every transaction of a fleet run, fleet and probe.
fn all_txns(out: &FleetOutcome) -> Vec<(TxnId, u64)> {
    out.fleet.iter().chain(out.probe.txns.iter()).copied().collect()
}

/// Abort reasons per 1000 attempted transactions.
fn abort_rates(c: &FateCounts, attempted: u64) -> [(&'static str, f64); 5] {
    let per_1k = |n: u64| ratio(n as f64 * 1000.0, attempted as f64);
    [
        ("wait_timeout", per_1k(c.wait_timeout)),
        ("deadlock", per_1k(c.deadlock)),
        ("sleep_conflict", per_1k(c.sleep_conflict)),
        ("constraint", per_1k(c.constraint)),
        ("sst_failure", per_1k(c.sst_failure)),
    ]
}

fn abort_note(label: &str, c: &FateCounts, attempted: u64) -> String {
    let mut s = format!("{label}: aborts per 1k attempted ({attempted}):");
    for (name, rate) in abort_rates(c, attempted) {
        let _ = write!(s, " {name}={rate:.3}");
    }
    let _ = write!(s, " other={} failed={}", c.other_aborts, c.failed);
    s
}

/// Folds one epoch's transactions and gate verdict into the report.
fn gate_into(report: &mut Report, label: &str, ep: &Epoch) {
    let g = &ep.gate;
    if !g.violations.is_empty() {
        report.correct = false;
        report.violations.extend(g.violations.iter().map(|v| format!("{label}: {v}")));
    }
    report.attempted += ep.attempted();
    report.failed += g.counts.failed;
}

/// `min / median / max` of `values`, for notes.
fn spread_note(values: &[f64]) -> String {
    let mut v = values.to_vec();
    let mid = median(&mut v);
    format!("{:.0} / {mid:.0} / {:.0}", v.first().unwrap_or(&0.0), v.last().unwrap_or(&0.0))
}

/// One run of `workload`: end-to-end metrics when `trace` is false,
/// per-layer metrics when it is true.
pub fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> PstmResult<Report> {
    let mut report = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        notes: Vec::new(),
        violations: Vec::new(),
    };
    let spec = workload.spec();
    report.notes.push(format!(
        "workload {} seed {seed} seconds {seconds} trace {} cpus {}",
        workload.name(),
        u8::from(trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    ));
    if trace {
        traced_run(&spec, seed, seconds, &mut report)?;
    } else {
        end_to_end_run(&spec, seed, seconds, &mut report)?;
    }
    Ok(report)
}

fn end_to_end_run(spec: &Spec, seed: u64, seconds: u64, report: &mut Report) -> PstmResult<()> {
    let budget = Duration::from_secs(seconds).as_secs_f64();
    let mut measured = 0.0;
    let mut setup_times = Vec::new();
    let mut tps = Vec::new();
    let mut check_s = Vec::new();
    let mut rss = Vec::new();
    let mut probe_us = Vec::new();
    let mut fleet = FateCounts::default();
    let mut spawned = 0u64;
    let mut counts = FateCounts::default();
    let mut workers = 0;
    let steal_before = cpu_steal_jiffies();
    // Epochs run until their measured intervals add up to `--seconds`.
    let mut e = 0;
    while measured < budget {
        setup_samples(spec, &mut setup_times)?;
        let mut ep = Epoch::run(spec, epoch_seed(seed, e), false)?;
        workers = ep.inst.reactor.workers();
        gate_into(report, &format!("epoch {e}"), &ep);
        setup_times.push(ep.setup_s);
        tps.push(ep.tps());
        check_s.push(ep.gate.check_s);
        rss.push(ep.out.peak_rss_mb);
        probe_us.append(&mut ep.out.probe.txn_us);
        fleet += FateCounts::tally(&ep.out.fleet, &ep.out.ledger);
        spawned += ep.out.fleet.len() as u64;
        counts += ep.gate.counts;
        measured += ep.out.window_s;
        e += 1;
        ep.inst.shutdown();
    }
    let steal_after = cpu_steal_jiffies();

    report.notes.push(format!(
        "{e} epochs of {} warm-up + {} measured fleet transactions, each on a fresh world, \
         {measured:.3} s measured; reactor workers {workers}",
        spec.warmup_txns, spec.measure_txns
    ));
    report.notes.push(format!("epoch tps min / median / max: {}", spread_note(&tps)));
    report.notes.push(format!("epoch peak rss MiB min / median / max: {}", spread_note(&rss)));
    report.notes.push(format!(
        "set-up us min / median / max: {}",
        spread_note(&setup_times.iter().map(|s| s * 1e6).collect::<Vec<_>>())
    ));
    report.notes.push(format!(
        "epoch tps in order: {}",
        tps.iter().map(|t| format!("{t:.0}")).collect::<Vec<_>>().join(" ")
    ));
    report.notes.push(format!(
        "gate: check_s per epoch median {:.3}, {} violations",
        median(&mut check_s),
        report.violations.len()
    ));
    report.notes.push(abort_note("fleet+probe", &counts, report.attempted));
    report.notes.push(format!(
        "cpu steal during the epochs: {:.1}% of machine CPU time",
        100.0
            * ratio(
                steal_after.0.saturating_sub(steal_before.0) as f64,
                steal_after.1.saturating_sub(steal_before.1) as f64
            )
    ));
    // The tail is printed with its sample count but not gated: it
    // follows the host's hiccups (see README.md).
    let qs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
        .map(|q| format!("p{}={:.0}", q * 100.0, quantile(&mut probe_us, q)));
    report.notes.push(format!("probe txn us ({} samples): {}", probe_us.len(), qs.join(" ")));
    if probe_us.len() < 1000 {
        report.notes.push("warning: fewer than 1000 probe samples; p99 has <10 beyond it".into());
    }

    report.push("tps", median(&mut tps), "1/s");
    report.push("commit_ratio", ratio(fleet.committed as f64, spawned as f64), "ratio");
    report.push("probe_txn_p50_us", quantile(&mut probe_us, 0.50), "us");
    report.push("peak_rss_mb", median(&mut rss), "MiB");
    report.push("setup_s", median(&mut setup_times), "s");
    Ok(())
}

/// Counters summed over the traced epochs.
#[derive(Default)]
struct Traced {
    attempted: u64,
    committed: u64,
    flushes: u64,
    wal_bytes: u64,
    group_members: u64,
    group_commits: u64,
    ops_waited: u64,
    ops_completed: u64,
    shared_grants: u64,
    bypassed_sleepers: u64,
    pacer_parks: u64,
    stale_wakes: u64,
    queue_depth_peak: u64,
    wake_us: Option<Histogram>,
    timer_lag_us: Option<Histogram>,
    probe_txn_us: Vec<f64>,
    calls: CallTimes,
    counts: FateCounts,
    check_s: Vec<f64>,
}

impl Traced {
    fn absorb(&mut self, ep: &mut Epoch) {
        let engine = ep.inst.db.stats();
        let registry = ep.inst.front.fleet_snapshot().registry;
        let gtm = ep.inst.front.stats();
        let reactor = ep.inst.reactor.snapshot();
        self.attempted += ep.attempted();
        self.committed += ep.gate.counts.committed;
        self.flushes += engine.commits.saturating_sub(ep.engine_before.commits);
        self.wal_bytes += engine.wal_bytes.saturating_sub(ep.engine_before.wal_bytes) as u64;
        self.group_members += registry.counter(Ctr::GroupMembers);
        self.group_commits += registry.counter(Ctr::GroupCommits);
        self.ops_waited += gtm.ops_waited;
        self.ops_completed += gtm.ops_completed;
        self.shared_grants += gtm.shared_grants;
        self.bypassed_sleepers += gtm.bypassed_sleepers;
        self.pacer_parks += ep.inst.front.pacer_stats().parks;
        self.stale_wakes += reactor.stale_wakes;
        self.queue_depth_peak = self.queue_depth_peak.max(ep.out.queue_depth_peak);
        for (acc, h) in [
            (&mut self.wake_us, &reactor.wake_latency_us),
            (&mut self.timer_lag_us, &reactor.timer_lag_us),
        ] {
            match acc {
                Some(acc) => acc.merge(h),
                None => *acc = Some(h.clone()),
            }
        }
        self.probe_txn_us.append(&mut ep.out.probe.txn_us);
        self.calls.execute_us.append(&mut ep.out.probe.calls.execute_us);
        self.calls.commit_us.append(&mut ep.out.probe.calls.commit_us);
        self.counts += ep.gate.counts;
        self.check_s.push(ep.gate.check_s);
    }
}

fn traced_run(spec: &Spec, seed: u64, seconds: u64, report: &mut Report) -> PstmResult<()> {
    let budget = Duration::from_secs(seconds);
    let ladder = ladder::measure(spec, seed, budget.mul_f64(0.3))?;

    // Untraced and traced epochs alternate on the same programs, until
    // their measured intervals add up to the rest of the budget: the
    // untraced ones are the baseline for the tracing overhead.
    let fleet_budget = budget.mul_f64(0.7).as_secs_f64();
    let mut measured = 0.0;
    let mut pairs = 0;
    let mut plain_tps = Vec::new();
    let mut traced_tps = Vec::new();
    let mut t = Traced::default();
    prof::reset();
    while measured < fleet_budget {
        let e = pairs;
        let plain = Epoch::run(spec, epoch_seed(seed, e), false)?;
        gate_into(report, &format!("untraced epoch {e}"), &plain);
        plain_tps.push(plain.tps());

        plain.inst.shutdown();
        let mut traced = Epoch::run(spec, epoch_seed(seed, e), true)?;
        t.absorb(&mut traced);
        gate_into(report, &format!("traced epoch {e}"), &traced);
        traced_tps.push(traced.tps());
        measured += plain.out.window_s + traced.out.window_s;
        pairs += 1;
        traced.inst.shutdown();
    }
    let profile = prof::snapshot();
    prof::reset();
    report.notes.push(format!(
        "{pairs} untraced + {pairs} traced epochs of {} warm-up + {} measured fleet \
         transactions, {measured:.3} s measured",
        spec.warmup_txns, spec.measure_txns
    ));
    report.notes.push(abort_note("traced fleet+probe", &t.counts, t.attempted));

    // Ladder, bottom to top, with self times.
    let self_ns = ladder.self_ns();
    for (i, name) in RUNGS.iter().enumerate() {
        report.push(format!("{name}_ns"), ladder.rung_ns[i], "ns");
        report.push(format!("{name}_self_ns"), self_ns[i], "ns");
    }
    report.push("core.tick_ns", ladder.tick_ns, "ns");
    for (phase, ns) in &ladder.phase_ns {
        report.push(format!("obs.phase.{}_ns_per_txn", phase.name()), *ns, "ns");
    }
    report.push("obs.phase.unaccounted_ns_per_txn", ladder.unaccounted_ns(), "ns");
    report.push("obs.phase.profiler_overhead_ns_per_txn", ladder.profiler_overhead_ns(), "ns");
    for phase in CommitPhase::ALL {
        report.push(
            format!("obs.fleet_phase.{}_ns_per_txn", phase.name()),
            ratio(profile.ns(phase) as f64, t.attempted as f64),
            "ns",
        );
    }
    report.push(
        "obs.trace_overhead",
        ratio(median(&mut traced_tps), median(&mut plain_tps)),
        "ratio",
    );

    // Counters of the traced epochs.
    let attempted = t.attempted as f64;
    let committed = t.committed as f64;
    let per_1k = |n: u64| ratio(n as f64 * 1000.0, attempted);
    report.push("front.avg_group", ratio(t.group_members as f64, t.group_commits as f64), "ratio");
    report.push("storage.flushes_per_commit", ratio(t.flushes as f64, committed), "ratio");
    report.push("storage.device_s", t.flushes as f64 * spec.apply_latency_us as f64 / 1e6, "s");
    report.push("storage.wal_bytes_per_commit", ratio(t.wal_bytes as f64, committed), "B");
    report.push(
        "core.ops_waited_ratio",
        ratio(t.ops_waited as f64, t.ops_completed as f64),
        "ratio",
    );
    report.push(
        "core.shared_grant_ratio",
        ratio(t.shared_grants as f64, t.ops_completed as f64),
        "ratio",
    );
    report.push("front.pacer_parks_per_txn", ratio(t.pacer_parks as f64, attempted), "ratio");
    report.push("core.bypassed_sleepers_per_1k", per_1k(t.bypassed_sleepers), "1/1k");
    report.push("reactor.queue_depth_peak", t.queue_depth_peak as f64, "count");
    let hist_p99 = |h: &Option<Histogram>| h.as_ref().map_or(0.0, |h| hist_quantile(h, 0.99));
    report.push("reactor.wake_p99_us", hist_p99(&t.wake_us), "us");
    report.push("reactor.timer_lag_p99_us", hist_p99(&t.timer_lag_us), "us");
    report.push("reactor.stale_wakes_per_1k", per_1k(t.stale_wakes), "1/1k");
    report.push("probe.samples", t.probe_txn_us.len() as f64, "count");
    report.push("probe.txn_p99_us", quantile(&mut t.probe_txn_us, 0.99), "us");
    report.push("probe.execute_p50_us", quantile(&mut t.calls.execute_us, 0.5), "us");
    report.push("probe.commit_p50_us", quantile(&mut t.calls.commit_us, 0.5), "us");
    report.push("probe.commit_p99_us", quantile(&mut t.calls.commit_us, 0.99), "us");
    for (name, rate) in abort_rates(&t.counts, t.attempted) {
        report.push(format!("aborts.{name}_per_1k"), rate, "1/1k");
    }
    report.push("gate.check_s", median(&mut t.check_s), "s");
    Ok(())
}
