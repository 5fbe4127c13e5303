//! Declarative fault plans: *which* labeled sites fail, *when*, and *how*.
//!
//! A [`FaultPlan`] is data, not behaviour — it can be printed, logged next
//! to a failing seed, and replayed. The [`crate::FaultInjector`] gives it
//! behaviour by counting arrivals at each site kind and consulting the
//! plan's rules in order.

use pstm_types::{FaultDecision, FaultSite};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Which arrivals a rule applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SiteMatcher {
    /// Exactly this site — `commit-local@2` matches shard 2 only.
    Exact(FaultSite),
    /// Any site of this kind (shard qualifier ignored): one of
    /// `"wal-append"`, `"sst-apply"`, `"commit-local"`, `"reconcile"`,
    /// `"pre-sst"`, `"pre-finish"`.
    Kind(&'static str),
}

impl SiteMatcher {
    /// Does this matcher cover `site`?
    #[must_use]
    pub fn matches(&self, site: FaultSite) -> bool {
        match self {
            SiteMatcher::Exact(s) => *s == site,
            SiteMatcher::Kind(k) => site.kind() == *k,
        }
    }

    /// Stable text for plan descriptions and fingerprints.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            SiteMatcher::Exact(s) => s.label(),
            SiteMatcher::Kind(k) => format!("{k}@*"),
        }
    }
}

/// When a matching arrival actually fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// Fire on the Nth matching arrival (1-based) — "the 3rd WAL append".
    OnHit(u64),
    /// Fire each matching arrival with this probability, in parts per
    /// million, drawn from the plan's seeded generator. `1_000_000` fires
    /// every time (a persistent fault).
    EachPpm(u32),
}

impl Trigger {
    fn describe(&self) -> String {
        match self {
            Trigger::OnHit(n) => format!("hit#{n}"),
            Trigger::EachPpm(p) => format!("each@{p}ppm"),
        }
    }
}

/// One declarative rule: at matching arrivals, per the trigger, do the
/// action — at most `max_fires` times over the whole run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultRule {
    /// Which sites this rule watches.
    pub site: SiteMatcher,
    /// Which of the matching arrivals fire.
    pub trigger: Trigger,
    /// What the hook answers when the rule fires.
    pub action: FaultDecision,
    /// Upper bound on fires (`u32::MAX` = unbounded). A crash plan with
    /// `max_fires: 1` injects exactly one crash and then lets the
    /// recovered run finish — the usual chaos-matrix shape.
    pub max_fires: u32,
}

impl FaultRule {
    /// Stable one-line description, e.g. `wal-append@* hit#3 -> torn`.
    #[must_use]
    pub fn describe(&self) -> String {
        format!("{} {} -> {}", self.site.describe(), self.trigger.describe(), self.action.name())
    }
}

/// A seeded set of rules — the full description of a run's adversary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seeds the injector's generator (used only by [`Trigger::EachPpm`]
    /// draws), and is folded into the fingerprint.
    pub seed: u64,
    /// Rules, consulted in order; the first one that fires wins the
    /// arrival.
    pub rules: Vec<FaultRule>,
}

/// The six site kinds, in the order a cross-shard commit reaches them.
pub const SITE_KINDS: [&str; 6] =
    ["commit-local", "reconcile", "pre-sst", "sst-apply", "wal-append", "pre-finish"];

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, rules: Vec::new() }
    }

    /// Builder: appends one rule.
    #[must_use]
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Crash on the `n`th WAL append (1-based), once.
    #[must_use]
    pub fn crash_on_wal_append(self, n: u64) -> Self {
        self.with_rule(FaultRule {
            site: SiteMatcher::Exact(FaultSite::WalAppend),
            trigger: Trigger::OnHit(n),
            action: FaultDecision::Crash,
            max_fires: 1,
        })
    }

    /// Tear the `n`th WAL append after `keep` bytes, once — a torn page
    /// write followed by power loss.
    #[must_use]
    pub fn torn_wal_append(self, n: u64, keep: u32) -> Self {
        self.with_rule(FaultRule {
            site: SiteMatcher::Exact(FaultSite::WalAppend),
            trigger: Trigger::OnHit(n),
            action: FaultDecision::Torn { keep },
            max_fires: 1,
        })
    }

    /// Transient I/O failure on each SST attempt with the given
    /// probability (parts per million), unbounded — the knob
    /// `bench_faults` sweeps.
    #[must_use]
    pub fn io_on_sst_apply_each(self, ppm: u32) -> Self {
        self.with_rule(FaultRule {
            site: SiteMatcher::Exact(FaultSite::SstApply),
            trigger: Trigger::EachPpm(ppm),
            action: FaultDecision::Io,
            max_fires: u32::MAX,
        })
    }

    /// Crash at the commit-local site on shard `shard` (the start of a
    /// transaction's reconciliation in `Gtm::prepare`), on the `n`th such
    /// arrival, once.
    #[must_use]
    pub fn crash_mid_commit_local(self, shard: u32, n: u64) -> Self {
        self.with_rule(FaultRule {
            site: SiteMatcher::Exact(FaultSite::CommitLocal { shard }),
            trigger: Trigger::OnHit(n),
            action: FaultDecision::Crash,
            max_fires: 1,
        })
    }

    /// The paper's "link drops mid-reconcile": a transient I/O failure on
    /// the `n`th reconciliation arrival on shard `shard`, once.
    #[must_use]
    pub fn link_down_mid_reconcile(self, shard: u32, n: u64) -> Self {
        self.with_rule(FaultRule {
            site: SiteMatcher::Exact(FaultSite::Reconcile { shard }),
            trigger: Trigger::OnHit(n),
            action: FaultDecision::Io,
            max_fires: 1,
        })
    }

    /// Crash on the `n`th arrival at any site of `kind`, once. The
    /// generic form behind the crash-at-every-labeled-point matrix.
    #[must_use]
    pub fn crash_at_kind(self, kind: &'static str, n: u64) -> Self {
        self.with_rule(FaultRule {
            site: SiteMatcher::Kind(kind),
            trigger: Trigger::OnHit(n),
            action: FaultDecision::Crash,
            max_fires: 1,
        })
    }

    /// A random plan for the chaos matrix: 1–3 rules over random site
    /// kinds, triggers and actions, derived entirely from `seed` (the
    /// same seed always yields the same plan).
    #[must_use]
    pub fn random(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let n_rules = rng.gen_range(1usize..=3);
        let mut plan = FaultPlan::new(seed);
        for _ in 0..n_rules {
            let kind = *SITE_KINDS.choose(&mut rng).expect("SITE_KINDS non-empty");
            let trigger = if rng.gen_bool(0.6) {
                Trigger::OnHit(rng.gen_range(1u64..=12))
            } else {
                Trigger::EachPpm(rng.gen_range(10_000u32..=250_000))
            };
            let action = match rng.gen_range(0u32..4) {
                0 => FaultDecision::Io,
                1 if kind == "wal-append" => FaultDecision::Torn { keep: rng.gen_range(1u32..=16) },
                _ => FaultDecision::Crash,
            };
            // Unbounded crashes would prevent the run from ever finishing;
            // only transient I/O may repeat.
            let max_fires = match action {
                FaultDecision::Io => rng.gen_range(1u32..=8),
                _ => 1,
            };
            plan = plan.with_rule(FaultRule {
                site: SiteMatcher::Kind(kind),
                trigger,
                action,
                max_fires,
            });
        }
        plan
    }

    /// Stable multi-line description: the DSL form documented in
    /// `EXPERIMENTS.md` §C4 (one `describe()`d rule per line).
    #[must_use]
    pub fn describe(&self) -> String {
        let rules: Vec<String> = self.rules.iter().map(FaultRule::describe).collect();
        format!("seed={} [{}]", self.seed, rules.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matchers_respect_shard_qualifiers() {
        let exact = SiteMatcher::Exact(FaultSite::CommitLocal { shard: 2 });
        assert!(exact.matches(FaultSite::CommitLocal { shard: 2 }));
        assert!(!exact.matches(FaultSite::CommitLocal { shard: 3 }));
        let kind = SiteMatcher::Kind("commit-local");
        assert!(kind.matches(FaultSite::CommitLocal { shard: 3 }));
        assert!(!kind.matches(FaultSite::PreSst));
    }

    #[test]
    fn builders_compose_and_describe() {
        let plan = FaultPlan::new(7).torn_wal_append(3, 5).io_on_sst_apply_each(50_000);
        assert_eq!(plan.rules.len(), 2);
        assert_eq!(
            plan.describe(),
            "seed=7 [wal-append hit#3 -> torn; sst-apply each@50000ppm -> io]"
        );
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        for seed in 0..50 {
            let a = FaultPlan::random(seed);
            let b = FaultPlan::random(seed);
            assert_eq!(a, b, "seed {seed} produced two different plans");
            assert!((1..=3).contains(&a.rules.len()));
            for rule in &a.rules {
                if !matches!(rule.action, FaultDecision::Io) {
                    assert_eq!(rule.max_fires, 1, "non-transient faults must be one-shot");
                }
            }
        }
        assert_ne!(FaultPlan::random(1), FaultPlan::random(2));
    }
}
