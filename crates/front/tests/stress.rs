//! Multi-threaded stress tests for the sharded front-end: N OS threads ×
//! M closed-loop client sessions over the paper's booking workload, with
//! per-shard invariant and serializability checks at the end.

use pstm_core::gtm::CommitResult;
use pstm_front::{FrontConfig, SessionOutcome, ShardedFront};
use pstm_types::{AbortReason, FailSstApplies, ScalarOp, Value};
use pstm_workload::counter_world;

const OBJECTS: usize = 8;
const INITIAL: i64 = 1_000_000;

/// The two resources session `k` books — always on two *different*
/// shards for a 4-shard front (3 is coprime to 4), so every session
/// exercises the cross-shard commit path.
fn booking_pair(k: usize) -> (usize, usize) {
    (k % OBJECTS, (k + 3) % OBJECTS)
}

/// Runs `sessions` additive booking sessions on `front`, split across
/// `threads` OS threads, returning per-resource committed decrements.
fn run_bookings(
    front: &ShardedFront,
    resources: &[pstm_types::ResourceId],
    threads: usize,
    sessions: usize,
) -> Vec<u64> {
    let per_thread = sessions / threads;
    assert_eq!(per_thread * threads, sessions, "sessions must split evenly");
    let mut totals = vec![0u64; OBJECTS];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let front = front.clone();
            let resources = resources.to_vec();
            handles.push(scope.spawn(move || {
                let mut counts = vec![0u64; OBJECTS];
                for j in 0..per_thread {
                    let k = t * per_thread + j;
                    let (a, b) = booking_pair(k);
                    let mut session = front.session();
                    let oa = session.execute(resources[a], ScalarOp::Sub(Value::Int(1))).unwrap();
                    assert!(matches!(oa, SessionOutcome::Value(_)), "additive ops never wait");
                    let ob = session.execute(resources[b], ScalarOp::Sub(Value::Int(1))).unwrap();
                    assert!(matches!(ob, SessionOutcome::Value(_)), "additive ops never wait");
                    match session.commit().unwrap() {
                        CommitResult::Committed => {
                            counts[a] += 1;
                            counts[b] += 1;
                        }
                        CommitResult::Aborted(r) => panic!("additive booking aborted: {r:?}"),
                    }
                }
                counts
            }));
        }
        for h in handles {
            let counts = h.join().expect("worker thread panicked");
            for (total, c) in totals.iter_mut().zip(counts) {
                *total += c;
            }
        }
    });
    totals
}

#[test]
fn four_threads_two_hundred_sessions_match_single_threaded_reference() {
    let config = FrontConfig { shards: 4, ..FrontConfig::default() };

    // Concurrent run: 4 threads × 50 sessions, every session cross-shard.
    let world = counter_world(OBJECTS, INITIAL).unwrap();
    let front = ShardedFront::new(world.db.clone(), world.bindings.clone(), config);
    let totals = run_bookings(&front, &world.resources, 4, 200);

    front.check_invariants().unwrap();
    front.verify_serializable().unwrap();
    for (i, r) in world.resources.iter().enumerate() {
        let v = front.resource_value(*r).unwrap();
        assert_eq!(v, Value::Int(INITIAL - totals[i] as i64), "resource {i}");
    }
    // Every session touched two shards, so shard-local commit events
    // count each transaction twice.
    assert_eq!(front.stats().committed, 400);
    assert_eq!(front.stats().aborted, 0);

    // Single-threaded reference: the same 200 sessions, same routing,
    // driven sequentially. Committed-effect totals must match exactly.
    let ref_world = counter_world(OBJECTS, INITIAL).unwrap();
    let ref_front = ShardedFront::new(ref_world.db.clone(), ref_world.bindings.clone(), config);
    let ref_totals = run_bookings(&ref_front, &ref_world.resources, 1, 200);
    ref_front.check_invariants().unwrap();
    ref_front.verify_serializable().unwrap();

    assert_eq!(totals, ref_totals, "concurrent effects diverge from the serial reference");
    for r in 0..OBJECTS {
        assert_eq!(
            front.resource_value(world.resources[r]).unwrap(),
            ref_front.resource_value(ref_world.resources[r]).unwrap(),
            "final value of resource {r}"
        );
    }
}

#[test]
fn contended_mixed_workload_keeps_every_shard_consistent() {
    // Assignments conflict with everything, so sessions block, resume,
    // time out and abort under real thread interleavings; whatever the
    // outcome mix, every shard must stay internally consistent and
    // serializable.
    let config = FrontConfig { shards: 2, ..FrontConfig::default() };
    let world = counter_world(4, 1000).unwrap();
    let front = ShardedFront::new(world.db.clone(), world.bindings.clone(), config);

    let threads = 4;
    let per_thread = 25;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let front = front.clone();
            let resources = world.resources.clone();
            scope.spawn(move || {
                for j in 0..per_thread {
                    let k = t * per_thread + j;
                    let mut session = front.session();
                    let outcome = if k % 5 == 0 {
                        // An assigning session holds its grant briefly to
                        // force overlap with concurrent subtractors.
                        let o = session
                            .execute(resources[k % 4], ScalarOp::Assign(Value::Int(500)))
                            .unwrap();
                        std::thread::sleep(std::time::Duration::from_micros(200));
                        o
                    } else {
                        let o = session
                            .execute(resources[k % 4], ScalarOp::Sub(Value::Int(1)))
                            .unwrap();
                        match o {
                            SessionOutcome::Aborted(r) => SessionOutcome::Aborted(r),
                            SessionOutcome::Value(_) => session
                                .execute(resources[(k + 1) % 4], ScalarOp::Sub(Value::Int(1)))
                                .unwrap(),
                        }
                    };
                    match outcome {
                        // Aborted while waiting: the session is already
                        // finished and cleaned up.
                        SessionOutcome::Aborted(reason) => {
                            assert!(
                                matches!(
                                    reason,
                                    AbortReason::Deadlock
                                        | AbortReason::LockTimeout
                                        | AbortReason::Constraint
                                ),
                                "unexpected abort reason {reason:?}"
                            );
                        }
                        SessionOutcome::Value(_) => {
                            // Commit may still fail under contention; any
                            // clean resolution is acceptable here.
                            let _ = session.commit().unwrap();
                        }
                    }
                }
            });
        }
    });

    front.check_invariants().unwrap();
    front.verify_serializable().unwrap();
    let stats = front.stats();
    assert_eq!(stats.begun, stats.committed + stats.aborted, "no shard-session left unfinished");
    for r in &world.resources {
        let Value::Int(v) = front.resource_value(*r).unwrap() else {
            panic!("counter changed type")
        };
        assert!(v >= 0, "CHECK violated: {v}");
    }
}

#[test]
fn blocked_session_resumes_when_the_holder_commits() {
    let config = FrontConfig { shards: 2, ..FrontConfig::default() };
    let world = counter_world(2, 100).unwrap();
    let front = ShardedFront::new(world.db.clone(), world.bindings.clone(), config);
    let r = world.resources[0];

    let mut holder = front.session();
    assert_eq!(
        holder.execute(r, ScalarOp::Assign(Value::Int(7))).unwrap(),
        SessionOutcome::Value(Value::Int(7))
    );

    std::thread::scope(|scope| {
        let waiter_front = front.clone();
        let waiter = scope.spawn(move || {
            let mut session = waiter_front.session();
            // Blocks: Assign conflicts with the pending Assign holder.
            let outcome = session.execute(r, ScalarOp::Assign(Value::Int(9))).unwrap();
            (outcome, session.commit().unwrap())
        });
        // Give the waiter time to queue, then release it by committing.
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(holder.commit().unwrap(), CommitResult::Committed);
        let (outcome, commit) = waiter.join().unwrap();
        assert_eq!(outcome, SessionOutcome::Value(Value::Int(9)), "granted on resume");
        assert_eq!(commit, CommitResult::Committed);
    });

    assert_eq!(front.resource_value(r).unwrap(), Value::Int(9));
    front.check_invariants().unwrap();
    front.verify_serializable().unwrap();
}

#[test]
fn cross_shard_commit_survives_transient_sst_faults_and_aborts_on_persistent_ones() {
    let mut config = FrontConfig { shards: 2, ..FrontConfig::default() };
    config.gtm.sst_retries = 2;
    let world = counter_world(2, 100).unwrap();
    let front = ShardedFront::new(world.db.clone(), world.bindings.clone(), config);
    // Objects 0 and 1 land on different shards of a 2-shard front.
    let (a, b) = (world.resources[0], world.resources[1]);

    // Transient: two injected faults, two retries → the commit lands.
    let mut s1 = front.session();
    s1.execute(a, ScalarOp::Sub(Value::Int(1))).unwrap();
    s1.execute(b, ScalarOp::Sub(Value::Int(1))).unwrap();
    world.db.set_fault_hook(FailSstApplies::first(2));
    assert_eq!(s1.commit().unwrap(), CommitResult::Committed);
    assert_eq!(front.resource_value(a).unwrap(), Value::Int(99));
    assert_eq!(front.resource_value(b).unwrap(), Value::Int(99));

    // Persistent: more faults than retries → SstFailure, nothing applied.
    let mut s2 = front.session();
    s2.execute(a, ScalarOp::Sub(Value::Int(1))).unwrap();
    s2.execute(b, ScalarOp::Sub(Value::Int(1))).unwrap();
    world.db.set_fault_hook(FailSstApplies::first(5));
    assert_eq!(s2.commit().unwrap(), CommitResult::Aborted(AbortReason::SstFailure));
    assert_eq!(front.resource_value(a).unwrap(), Value::Int(99));
    assert_eq!(front.resource_value(b).unwrap(), Value::Int(99));
    world.db.clear_fault_hook();

    front.check_invariants().unwrap();
    front.verify_serializable().unwrap();
}

#[test]
fn disconnection_round_trip_across_shards() {
    let config = FrontConfig { shards: 2, ..FrontConfig::default() };
    let world = counter_world(2, 100).unwrap();
    let front = ShardedFront::new(world.db.clone(), world.bindings.clone(), config);

    let mut session = front.session();
    session.execute(world.resources[0], ScalarOp::Sub(Value::Int(1))).unwrap();
    session.execute(world.resources[1], ScalarOp::Sub(Value::Int(1))).unwrap();
    session.sleep().unwrap();
    // Compatible activity while disconnected is fine.
    let mut other = front.session();
    other.execute(world.resources[0], ScalarOp::Sub(Value::Int(5))).unwrap();
    assert_eq!(other.commit().unwrap(), CommitResult::Committed);
    assert_eq!(session.awake().unwrap(), pstm_front::AwakeOutcome::Resumed(vec![]));
    assert_eq!(session.commit().unwrap(), CommitResult::Committed);

    assert_eq!(front.resource_value(world.resources[0]).unwrap(), Value::Int(94));
    front.check_invariants().unwrap();
    front.verify_serializable().unwrap();
}
