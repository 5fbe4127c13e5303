//! Fault-injection seams shared by the storage engine, the GTM and the
//! sharded front-end.
//!
//! The chaos harness in `pstm-faults` needs one hook type the whole stack
//! can agree on without depending on each other, so the seam lives here at
//! the bottom of the dependency graph. Each layer consults an installed
//! [`FaultHook`] at its *labeled* points — [`FaultSite`]s — and obeys the
//! returned [`FaultDecision`]: proceed normally, fail the operation with a
//! transient I/O error, or die on the spot (a simulated process crash,
//! surfaced as [`crate::PstmError::Crashed`]).
//!
//! Production code paths pay nothing when no hook is installed: the seam is
//! an `Option<Arc<dyn FaultHook>>` checked per labeled point.

use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A labeled point in the commit/SST/WAL path where a fault can fire.
///
/// Sites are deliberately coarse — one per *semantic* step of the paper's
/// commit protocol rather than one per line of code — so a fault plan
/// written against them stays meaningful as the implementation evolves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Inside `Wal::append`, before the frame reaches the log device.
    /// The only sanctioned durable write path (enforced by the
    /// `wal-seam` lint in `pstm-check`).
    WalAppend,
    /// At the top of `Database::apply_write_set` — the engine-side entry
    /// of an SST attempt, before any sub-transaction work begins.
    SstApply,
    /// At the start of one transaction's reconciliation in `Gtm::prepare`
    /// on the given shard, before any resource is moved from `pending` to
    /// `committing`.
    CommitLocal {
        /// The shard whose manager is committing (0 for single-manager
        /// setups).
        shard: u32,
    },
    /// Immediately before one resource's reconciliation (eq. 1 / eq. 2)
    /// inside `Gtm::prepare` — the paper's "link drops mid-reconcile"
    /// scenario.
    Reconcile {
        /// The shard whose manager is reconciling.
        shard: u32,
    },
    /// In a coordinated commit: every shard has reconciled
    /// (`Gtm::prepare` parked the transaction) but the fused SST has not
    /// been submitted to the engine yet.
    PreSst,
    /// In a coordinated commit: the fused SST is durable but no shard has
    /// been told to `Gtm::settle` yet — the window where a crash leaves
    /// the decision only in the log.
    PreFinish,
}

impl FaultSite {
    /// Stable, human-readable label for traces, fault schedules and the
    /// determinism fingerprint. Shard-qualified sites include the shard.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            FaultSite::WalAppend => "wal-append".to_string(),
            FaultSite::SstApply => "sst-apply".to_string(),
            FaultSite::CommitLocal { shard } => format!("commit-local@{shard}"),
            FaultSite::Reconcile { shard } => format!("reconcile@{shard}"),
            FaultSite::PreSst => "pre-sst".to_string(),
            FaultSite::PreFinish => "pre-finish".to_string(),
        }
    }

    /// The label with any shard qualifier stripped — what declarative
    /// fault rules match on.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            FaultSite::WalAppend => "wal-append",
            FaultSite::SstApply => "sst-apply",
            FaultSite::CommitLocal { .. } => "commit-local",
            FaultSite::Reconcile { .. } => "reconcile",
            FaultSite::PreSst => "pre-sst",
            FaultSite::PreFinish => "pre-finish",
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// What an installed hook tells the consulting layer to do at a site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDecision {
    /// No fault: continue normally.
    Proceed,
    /// Fail the operation with a *transient* `PstmError::Io`. The process
    /// survives; retry/abort machinery handles it (SST retries, abort
    /// reason `SstFailure`). At [`FaultSite::WalAppend`] this is escalated
    /// to a crash — a log device that fails mid-commit is not survivable
    /// in this engine's redo-only model.
    Io,
    /// Kill the simulated process at this point: the layer returns
    /// `PstmError::Crashed`, which callers propagate raw. All volatile
    /// state (managers, front-ends) is garbage afterwards; the harness
    /// must discard it and recover the engine from checkpoint + WAL.
    Crash,
    /// Like [`FaultDecision::Crash`], but at [`FaultSite::WalAppend`] only
    /// a prefix of the log frame reaches the device first — a torn page
    /// write. At other sites this is equivalent to `Crash`.
    Torn {
        /// How many bytes of the frame survive (clamped so the frame is
        /// genuinely torn).
        keep: u32,
    },
}

impl FaultDecision {
    /// Stable name for traces and fault schedules.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FaultDecision::Proceed => "proceed",
            FaultDecision::Io => "io",
            FaultDecision::Crash => "crash",
            FaultDecision::Torn { .. } => "torn",
        }
    }
}

/// The seam itself: each layer calls [`FaultHook::decide`] at its labeled
/// sites and obeys the answer. Implementations must be deterministic given
/// their own state (the chaos harness replays seeds and asserts
/// byte-identical schedules) and cheap — the call sits on commit paths.
pub trait FaultHook: Send + Sync {
    /// Decide what happens at `site`. Called once per arrival at the site;
    /// stateful hooks (e.g. "fire on the Nth WAL append") count arrivals
    /// internally.
    fn decide(&self, site: FaultSite) -> FaultDecision;
}

/// How hooks are passed around: one plan instance shared by every layer,
/// so site arrivals are counted globally across the stack.
pub type SharedFaultHook = Arc<dyn FaultHook>;

/// A hook that fails the first `n` arrivals at [`FaultSite::SstApply`]
/// with a transient I/O error and proceeds everywhere else — the plain
/// way to drive the SST retry and `SstFailure` paths without a fault plan.
#[derive(Debug)]
pub struct FailSstApplies {
    left: AtomicU32,
}

impl FailSstApplies {
    /// Fails the next `n` SST applies.
    #[must_use]
    pub fn first(n: u32) -> Arc<Self> {
        Arc::new(FailSstApplies { left: AtomicU32::new(n) })
    }
}

impl FaultHook for FailSstApplies {
    fn decide(&self, site: FaultSite) -> FaultDecision {
        let fail = site == FaultSite::SstApply
            && self
                .left
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok();
        if fail {
            FaultDecision::Io
        } else {
            FaultDecision::Proceed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AlwaysCrash;
    impl FaultHook for AlwaysCrash {
        fn decide(&self, _site: FaultSite) -> FaultDecision {
            FaultDecision::Crash
        }
    }

    #[test]
    fn labels_are_stable_and_shard_qualified() {
        assert_eq!(FaultSite::WalAppend.label(), "wal-append");
        assert_eq!(FaultSite::CommitLocal { shard: 3 }.label(), "commit-local@3");
        assert_eq!(FaultSite::Reconcile { shard: 0 }.label(), "reconcile@0");
        assert_eq!(FaultSite::Reconcile { shard: 7 }.kind(), "reconcile");
        assert_eq!(FaultSite::PreFinish.to_string(), "pre-finish");
    }

    #[test]
    fn decision_names() {
        assert_eq!(FaultDecision::Proceed.name(), "proceed");
        assert_eq!(FaultDecision::Torn { keep: 5 }.name(), "torn");
    }

    #[test]
    fn fail_sst_applies_fails_only_the_first_n_sst_applies() {
        let hook = FailSstApplies::first(2);
        assert_eq!(hook.decide(FaultSite::WalAppend), FaultDecision::Proceed);
        assert_eq!(hook.decide(FaultSite::SstApply), FaultDecision::Io);
        assert_eq!(hook.decide(FaultSite::SstApply), FaultDecision::Io);
        assert_eq!(hook.decide(FaultSite::SstApply), FaultDecision::Proceed);
    }

    #[test]
    fn hooks_are_object_safe_and_shareable() {
        let hook: SharedFaultHook = Arc::new(AlwaysCrash);
        let clone = Arc::clone(&hook);
        assert_eq!(clone.decide(FaultSite::SstApply), FaultDecision::Crash);
    }
}
