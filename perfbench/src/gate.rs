//! The correctness gate every run passes, outside the timed window.

use crate::fleet::Instance;
use pstm_front::reactor::Fate;
use pstm_types::{AbortReason, TxnId};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// How long the gate waits for in-flight stale wakes to drain.
const QUEUE_SETTLE: Duration = Duration::from_secs(2);

/// Sessions by final fate, over every transaction of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FateCounts {
    /// Committed sessions.
    pub committed: u64,
    /// Per-shard commit records those commits leave in the GTM counters.
    pub committed_shard_records: u64,
    /// Wait-timeout aborts.
    pub wait_timeout: u64,
    /// Deadlock victims.
    pub deadlock: u64,
    /// Aborted on awake by incompatible activity (Algorithm 9).
    pub sleep_conflict: u64,
    /// Commit-time CHECK constraint aborts.
    pub constraint: u64,
    /// SSTs that failed after their retries.
    pub sst_failure: u64,
    /// Any other abort reason.
    pub other_aborts: u64,
    /// Infrastructure failures (`Fate::Failed`).
    pub failed: u64,
}

impl FateCounts {
    /// Tallies `txns` (id, shards its program touches) against `ledger`.
    #[must_use]
    pub fn tally(txns: &[(TxnId, u64)], ledger: &BTreeMap<TxnId, Fate>) -> FateCounts {
        let mut c = FateCounts::default();
        for (id, shards) in txns {
            match ledger.get(id) {
                Some(Fate::Committed) => {
                    c.committed += 1;
                    c.committed_shard_records += shards;
                }
                Some(Fate::AwakeAborted | Fate::Aborted(AbortReason::SleepConflict)) => {
                    c.sleep_conflict += 1;
                }
                Some(Fate::Aborted(AbortReason::LockTimeout)) => c.wait_timeout += 1,
                Some(Fate::Aborted(AbortReason::Deadlock)) => c.deadlock += 1,
                Some(Fate::Aborted(AbortReason::Constraint)) => c.constraint += 1,
                Some(Fate::Aborted(AbortReason::SstFailure)) => c.sst_failure += 1,
                Some(Fate::Aborted(_) | Fate::UserAborted) => c.other_aborts += 1,
                Some(Fate::Failed(_)) => c.failed += 1,
                None => {}
            }
        }
        c
    }
}

impl std::ops::AddAssign for FateCounts {
    fn add_assign(&mut self, o: FateCounts) {
        self.committed += o.committed;
        self.committed_shard_records += o.committed_shard_records;
        self.wait_timeout += o.wait_timeout;
        self.deadlock += o.deadlock;
        self.sleep_conflict += o.sleep_conflict;
        self.constraint += o.constraint;
        self.sst_failure += o.sst_failure;
        self.other_aborts += o.other_aborts;
        self.failed += o.failed;
    }
}

/// The gate's verdict.
pub struct GateReport {
    /// Wall time the checks took, s.
    pub check_s: f64,
    /// Every violation found; empty when the run is correct.
    pub violations: Vec<String>,
    /// Fates over every transaction checked.
    pub counts: FateCounts,
}

/// Checks a drained run: every session has exactly one fate, the fates
/// agree with the GTM counters, nothing is left live or queued, the
/// shards' bookkeeping invariants hold and each shard's committed
/// history is serializable.
pub fn check(inst: &Instance, txns: &[(TxnId, u64)], ledger: &BTreeMap<TxnId, Fate>) -> GateReport {
    let started = Instant::now();
    let mut v = Vec::new();

    let census = inst.reactor.census();
    if census.live() != 0 {
        v.push(format!("{} sessions still live after the drain", census.live()));
    }
    // A wake addressed to a session that has already finished can still
    // be in flight (its worker drops it as stale); the queues get a
    // bounded moment to empty before a leftover counts as a violation.
    let settle_by = Instant::now() + QUEUE_SETTLE;
    let queued = loop {
        let queued: u64 = inst.reactor.snapshot().queue_depth.iter().sum();
        if queued == 0 || Instant::now() >= settle_by {
            break queued;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    if queued != 0 {
        v.push(format!("{queued} messages still queued after the drain"));
    }

    let distinct: BTreeSet<TxnId> = txns.iter().map(|(id, _)| *id).collect();
    if distinct.len() != txns.len() {
        v.push(format!("{} transaction ids issued twice", txns.len() - distinct.len()));
    }
    let missing = txns.iter().filter(|(id, _)| !ledger.contains_key(id)).count();
    if missing != 0 {
        v.push(format!("{missing} transactions have no fate"));
    }
    if ledger.len() != distinct.len() {
        v.push(format!("ledger holds {} fates for {} transactions", ledger.len(), distinct.len()));
    }

    let c = FateCounts::tally(txns, ledger);
    let s = inst.front.stats();
    // A transaction is begun on, and settles on, every shard it touches;
    // an abort's reason is recorded on the shard that caused it, the
    // other shards record a plain unwind.
    let pairs = [
        ("committed shard records", c.committed_shard_records, s.committed),
        ("wait-timeout aborts", c.wait_timeout, s.aborted_wait_timeout),
        ("deadlock aborts", c.deadlock, s.aborted_deadlock),
        ("sleep-conflict aborts", c.sleep_conflict, s.aborted_sleep_conflict),
        ("constraint aborts", c.constraint, s.aborted_constraint),
        ("SST-failure aborts", c.sst_failure, s.aborted_sst_failure),
    ];
    for (what, ledger_n, stats_n) in pairs {
        if ledger_n != stats_n {
            v.push(format!("{what}: ledger {ledger_n} != GTM counters {stats_n}"));
        }
    }
    if s.begun != s.committed + s.aborted {
        v.push(format!(
            "GTM counters: {} begun != {} committed + {} aborted",
            s.begun, s.committed, s.aborted
        ));
    }

    if let Err(e) = inst.front.check_invariants() {
        v.push(format!("invariants: {e}"));
    }
    if let Err(e) = inst.front.verify_serializable() {
        v.push(format!("serializability: {e}"));
    }
    GateReport { check_s: started.elapsed().as_secs_f64(), violations: v, counts: c }
}
