//! Self-tests of the benchmark harness: seeded generation, closed-loop
//! accounting that excludes the probe, fixed-size epochs, and the
//! ladder's sum identities.

use pstm_front::reactor::ProgramStep;
use pstm_perfbench::fleet::{self, Instance, Window};
use pstm_perfbench::gate;
use pstm_perfbench::gen::{Gen, Keys, Loops, Spec, Stream, Workers, Workload};
use pstm_perfbench::ladder;
use std::time::Duration;

fn programs(spec: &Spec, seed: u64, stream: Stream, n: usize) -> Vec<Vec<ProgramStep>> {
    let world = fleet::build_world(spec).expect("world");
    let mut gen = Gen::new(spec, &world.resources, seed, stream);
    (0..n).map(|_| gen.next_program()).collect()
}

fn tiny_spec() -> Spec {
    Spec {
        objects: 16,
        shards: 2,
        in_flight: 8,
        keys: Keys::Uniform,
        second_object: true,
        disconnect_us: Some(1_000),
        apply_latency_us: 0,
        workers: Workers::ReactorDefault,
        loops: Loops::Single,
        warmup_txns: 50,
        measure_txns: 300,
    }
}

#[test]
fn same_seed_same_programs_other_seed_other_programs() {
    for workload in Workload::ALL {
        let spec = workload.spec();
        let a = programs(&spec, 7, Stream::Fleet, 256);
        assert_eq!(a, programs(&spec, 7, Stream::Fleet, 256), "{}: seed 7 twice", workload.name());
        assert_ne!(a, programs(&spec, 8, Stream::Fleet, 256), "{}: seeds 7 and 8", workload.name());
        assert_ne!(
            a,
            programs(&spec, 7, Stream::Probe, 256),
            "{}: fleet vs probe",
            workload.name()
        );
    }
}

#[test]
fn programs_have_the_workload_shape() {
    for workload in Workload::ALL {
        let spec = workload.spec();
        for (i, p) in programs(&spec, 3, Stream::Fleet, 64).iter().enumerate() {
            let executes = p.iter().filter(|s| matches!(s, ProgramStep::Execute(..))).count();
            assert_eq!(executes, if spec.second_object { 3 } else { 2 }, "program {i}");
            let sleeps = p.iter().filter(|s| matches!(s, ProgramStep::SleepFor(_))).count();
            assert_eq!(sleeps, usize::from(spec.disconnect_us.is_some()), "program {i}");
            assert_eq!(p.last(), Some(&ProgramStep::Commit), "program {i}");
        }
    }
}

fn drains_with_exact_accounting(spec: &Spec) {
    let spec = *spec;
    let inst = Instance::start(&spec, false).expect("instance");
    let window = Window {
        warmup_txns: spec.warmup_txns,
        measure_txns: spec.measure_txns,
        sample_queues: true,
    };
    let out = fleet::run(&inst, &spec, 11, window);

    assert_eq!(inst.reactor.census().live(), 0, "the drain leaves no live session");
    assert_eq!(
        out.fleet.len() as u64,
        spec.warmup_txns + spec.measure_txns,
        "the fleet spawned exactly the window's sessions"
    );
    assert!(!out.probe.txns.is_empty(), "the probe ran");
    let fleet_done = out.fleet.iter().filter(|(id, _)| out.ledger.contains_key(id)).count();
    assert_eq!(fleet_done, out.fleet.len(), "every spawned fleet session completed");
    assert_eq!(
        out.ledger.len(),
        out.fleet.len() + out.probe.txns.len(),
        "the ledger holds the fleet and the probe, nothing else"
    );

    let txns: Vec<_> = out.fleet.iter().chain(out.probe.txns.iter()).copied().collect();
    let report = gate::check(&inst, &txns, &out.ledger);
    assert!(report.violations.is_empty(), "gate: {:?}", report.violations);
    inst.shutdown();
}

#[test]
fn tiny_fleet_plus_probe_drains_with_exact_accounting() {
    drains_with_exact_accounting(&tiny_spec());
}

#[test]
fn tiny_per_shard_fleet_plus_probe_drains_with_exact_accounting() {
    let spec = Spec { second_object: false, loops: Loops::PerShard, ..tiny_spec() };
    drains_with_exact_accounting(&spec);
}

#[test]
fn ladder_self_times_and_phases_add_up() {
    let spec = Spec { objects: 64, in_flight: 4, ..tiny_spec() };
    let report = ladder::measure(&spec, 5, Duration::from_millis(200)).expect("ladder");
    let top = report.rung_ns[report.rung_ns.len() - 1];
    let self_sum: f64 = report.self_ns().iter().sum();
    assert!((self_sum - top).abs() <= 1e-6 * top, "self times {self_sum} vs top rung {top}");
    let phases: f64 = report.phase_ns.iter().map(|(_, ns)| ns).sum();
    let front = report.rung_ns[4];
    let parts = phases + report.unaccounted_ns() + report.profiler_overhead_ns();
    assert!((parts - front).abs() <= 1e-6 * front, "phase parts {parts} vs front rung {front}");
    assert!(report.rung_ns.iter().all(|ns| *ns > 0.0), "every rung timed: {:?}", report.rung_ns);
    assert!(report.tick_ns > 0.0, "the aged tick was timed");
}
