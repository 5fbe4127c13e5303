//! Workload specifications and the seeded program generator.
//!
//! The benchmark owns the seed; the system under test only ever sees
//! the [`ProgramStep`] lists this module produces. Each consumer (fleet
//! driver, probe, ladder) draws from its own [`Stream`], so adding a
//! probe transaction never shifts the fleet's sequence.

use pstm_bench::Zipfian;
use pstm_front::reactor::ProgramStep;
use pstm_front::ShardedFront;
use pstm_types::{ResourceId, ScalarOp, Value};
use rand::{Rng, SeedableRng, StdRng};

/// Starting value of every counter. Each transaction subtracts at most
/// 2, and an `Assign` resets to this value, so the `value >= 0` CHECK
/// constraint never fires within a run.
pub const INITIAL: i64 = 1_000_000_000;

/// Every `ASSIGN_EVERY`-th transaction of a stream writes its first
/// object with an `Assign` (incompatible with `Sub` and `Read` in
/// Table I) instead of a commuting `Sub`.
pub const ASSIGN_EVERY: u64 = 8;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's regime: many long-running transactions that
    /// disconnect mid-flight.
    MobileFleet,
    /// Short single-object commits behind a modelled device round-trip,
    /// with group commit doing the batching.
    DurableGroup,
    /// Two-object transactions on a Zipfian hot set, mostly cross-shard.
    HotContended,
    /// `MobileFleet` on one world of 608k sessions: old enough for a
    /// GTM tick to outlast the reactor's tick interval.
    MobileFleetAged,
}

/// How a transaction picks its objects.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Keys {
    /// Uniform over all objects.
    Uniform,
    /// YCSB Zipfian with this skew; rank 0 is the hottest object.
    Zipf(f64),
}

/// Everything that defines one workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Counters in the world.
    pub objects: usize,
    /// GTM shards of the front (`object % shards` routing).
    pub shards: usize,
    /// Fleet sessions kept in flight by the closed-loop driver.
    pub in_flight: usize,
    /// Key distribution.
    pub keys: Keys,
    /// Whether a transaction also subtracts from a second object.
    pub second_object: bool,
    /// Disconnect between the first and the second object, in µs.
    pub disconnect_us: Option<u64>,
    /// Modelled device round-trip per SST flush, in µs.
    pub apply_latency_us: u64,
    /// Size of the reactor's worker pool.
    pub workers: Workers,
    /// How the fleet driver's closed loop is partitioned.
    pub loops: Loops,
    /// Fleet sessions of one epoch's warm-up.
    pub warmup_txns: u64,
    /// Fleet sessions of one epoch's measured interval.
    pub measure_txns: u64,
}

/// How the fleet driver keeps `in_flight` sessions alive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Loops {
    /// One loop: a finished session is replaced by one with freshly
    /// drawn keys, wherever they live.
    Single,
    /// One loop per shard, each with `in_flight / shards` sessions whose
    /// object lives on that shard (uniform within the shard). The
    /// reactor pins a session to its shard's worker and never
    /// rebalances, so under a single loop the sessions random-walk
    /// between workers and queue lengths drift for seconds at a time.
    /// Needs single-object programs and uniform keys.
    PerShard,
}

/// How many reactor worker loops a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workers {
    /// One per CPU: the workload is CPU-bound, and more loops than CPUs
    /// only adds scheduler queueing to every call.
    PerCpu,
    /// The reactor's own default (`min(shards, 2 x CPUs)`): workers
    /// block in the modelled device round-trip, so extra loops overlap
    /// those waits.
    ReactorDefault,
}

impl Workers {
    /// The `ReactorConfig::workers` value (`0` = the reactor's default).
    #[must_use]
    pub fn config(self) -> usize {
        match self {
            Workers::PerCpu => {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            }
            Workers::ReactorDefault => 0,
        }
    }
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::MobileFleet,
        Workload::DurableGroup,
        Workload::HotContended,
        Workload::MobileFleetAged,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::MobileFleet => "mobile_fleet",
            Workload::DurableGroup => "durable_group",
            Workload::HotContended => "hot_contended",
            Workload::MobileFleetAged => "mobile_fleet_aged",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed parameters.
    #[must_use]
    pub fn spec(self) -> Spec {
        match self {
            Workload::MobileFleet => Spec {
                objects: 4096,
                shards: 4,
                in_flight: 1024,
                keys: Keys::Uniform,
                second_object: true,
                disconnect_us: Some(20_000),
                apply_latency_us: 0,
                workers: Workers::PerCpu,
                loops: Loops::Single,
                warmup_txns: 8_000,
                measure_txns: 24_000,
            },
            Workload::DurableGroup => Spec {
                objects: 64,
                shards: 4,
                in_flight: 64,
                keys: Keys::Uniform,
                second_object: false,
                disconnect_us: None,
                apply_latency_us: 150,
                workers: Workers::ReactorDefault,
                loops: Loops::PerShard,
                warmup_txns: 5_000,
                measure_txns: 15_000,
            },
            Workload::HotContended => Spec {
                objects: 64,
                shards: 4,
                in_flight: 64,
                keys: Keys::Zipf(0.99),
                second_object: true,
                disconnect_us: None,
                apply_latency_us: 0,
                workers: Workers::ReactorDefault,
                loops: Loops::Single,
                warmup_txns: 1_000,
                measure_txns: 3_000,
            },
            Workload::MobileFleetAged => {
                Spec { measure_txns: 600_000, ..Workload::MobileFleet.spec() }
            }
        }
    }
}

/// Independent generator streams derived from one seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stream {
    /// The closed-loop fleet driver.
    Fleet,
    /// The fleet driver's loop for one shard ([`Loops::PerShard`]).
    FleetShard(u32),
    /// The probe client.
    Probe,
    /// The single-threaded layer ladder.
    Ladder,
}

/// Seeded program generator for one stream of one workload.
pub struct Gen {
    rng: StdRng,
    zipf: Option<Zipfian>,
    spec: Spec,
    resources: Vec<ResourceId>,
    /// Indices the first object is drawn from, uniformly; `None` draws
    /// from every object under the workload's key distribution.
    home: Option<Vec<usize>>,
    issued: u64,
}

impl Gen {
    /// A generator over `resources` (the world's objects, in object
    /// order). The same `(spec, seed, stream)` always yields the same
    /// program sequence.
    ///
    /// # Panics
    /// If `resources` holds fewer than two objects.
    #[must_use]
    pub fn new(spec: &Spec, resources: &[ResourceId], seed: u64, stream: Stream) -> Gen {
        assert!(resources.len() >= 2, "a workload needs at least two objects");
        let salt = match stream {
            Stream::Fleet => 0x0F1E_E7D0_0000_0001,
            Stream::Probe => 0x9B0B_E000_0000_0002,
            Stream::Ladder => 0x1ADD_E400_0000_0003,
            Stream::FleetShard(shard) => 0x0F1E_E7D0_0000_0004 ^ (u64::from(shard) << 32),
        };
        let zipf = match spec.keys {
            Keys::Uniform => None,
            Keys::Zipf(theta) => Some(Zipfian::new(resources.len(), theta)),
        };
        Gen {
            rng: StdRng::seed_from_u64(seed ^ salt),
            zipf,
            spec: *spec,
            resources: resources.to_vec(),
            home: None,
            issued: 0,
        }
    }

    /// Restricts the first object to `home` (indices into the
    /// resources), drawn uniformly.
    ///
    /// # Panics
    /// If `home` is empty.
    #[must_use]
    pub fn homed(mut self, home: Vec<usize>) -> Gen {
        assert!(!home.is_empty(), "a home needs at least one object");
        self.home = Some(home);
        self
    }

    fn draw(&mut self) -> usize {
        match &self.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.gen_range(0..self.resources.len()),
        }
    }

    /// The next transaction: `Read a`, `Sub a` (or `Assign a`), an
    /// optional disconnect, an optional `Sub b` with `b != a`, `Commit`.
    pub fn next_program(&mut self) -> Vec<ProgramStep> {
        self.issued += 1;
        let a = match &self.home {
            Some(home) => home[self.rng.gen_range(0..home.len())],
            None => self.draw(),
        };
        let first = self.resources[a];
        let write = if self.issued.is_multiple_of(ASSIGN_EVERY) {
            ScalarOp::Assign(Value::Int(INITIAL))
        } else {
            ScalarOp::Sub(Value::Int(1))
        };
        let mut steps =
            vec![ProgramStep::Execute(first, ScalarOp::Read), ProgramStep::Execute(first, write)];
        if let Some(us) = self.spec.disconnect_us {
            steps.push(ProgramStep::SleepFor(us));
        }
        if self.spec.second_object {
            let mut b = self.draw();
            // A skewed draw repeats the hot key often; a bounded redraw
            // keeps the distribution, the fallback keeps termination.
            for _ in 0..64 {
                if b != a {
                    break;
                }
                b = self.draw();
            }
            if b == a {
                b = (a + 1) % self.resources.len();
            }
            steps.push(ProgramStep::Execute(self.resources[b], ScalarOp::Sub(Value::Int(1))));
        }
        steps.push(ProgramStep::Commit);
        steps
    }
}

/// The distinct shards a program touches on `front` — how many
/// per-shard commit records a committed program leaves in the GTM
/// counters.
#[must_use]
pub fn shards_touched(program: &[ProgramStep], front: &ShardedFront) -> u64 {
    let mut seen = Vec::new();
    for step in program {
        if let ProgramStep::Execute(r, _) = step {
            let s = front.shard_of(*r);
            if !seen.contains(&s) {
                seen.push(s);
            }
        }
    }
    seen.len() as u64
}
