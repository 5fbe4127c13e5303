//! Reactor front-end observability: per-queue depth, wake latency and
//! queued-time accounting for the event-loop session front (`pstm-front`
//! reactor mode).
//!
//! The blocking front-end's cost model is thread-shaped — every live
//! session owns a stack — so its metrics live in span phases. The
//! reactor's cost model is queue-shaped: a session consumes nothing
//! while it sleeps, and the interesting quantities are *how deep the
//! worker queues run* and *how long a wake sat enqueued before its
//! worker delivered it*. This module is the seam between the two: the
//! reactor publishes a [`ReactorSnapshot`] per scrape, rendered as
//! `pstm_reactor_*` series next to the registry page.

use crate::hist::Histogram;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Microsecond bounds for wake-latency style quantities: the reactor's
/// wake path is an O(1) enqueue, so the interesting resolution sits in
/// the tens-of-microseconds to tens-of-milliseconds range — far below
/// [`Histogram::latency_us`]'s first bucket.
#[must_use]
pub fn wake_latency_bounds() -> Vec<u64> {
    vec![10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 1_000_000]
}

/// A wake-latency histogram (see [`wake_latency_bounds`]).
#[must_use]
pub fn wake_latency_histogram() -> Histogram {
    Histogram::new(wake_latency_bounds())
}

/// Point-in-time census of a reactor's sessions, by lifecycle phase.
/// The fleet claim "≥95% of sessions sleeping cost nothing" is checked
/// against exactly these numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReactorCensus {
    /// Sessions currently executing or runnable on a worker.
    pub running: u64,
    /// Sessions parked behind incompatible work (a shard will wake them).
    pub waiting: u64,
    /// Sessions whose single-shard commit is queued at a group-commit
    /// station, waiting for a flush pass to settle it.
    pub committing: u64,
    /// Disconnected sessions: no thread, no stack, no queue slot — only
    /// an inert state machine and (at most) one timer-wheel entry.
    pub sleeping: u64,
    /// Sessions that have committed or aborted.
    pub finished: u64,
}

impl ReactorCensus {
    /// Sessions not yet finished.
    #[must_use]
    pub fn live(&self) -> u64 {
        self.running + self.waiting + self.committing + self.sleeping
    }

    /// Fraction of live sessions currently sleeping (`0.0` when none
    /// are live).
    #[must_use]
    pub fn sleeping_fraction(&self) -> f64 {
        let live = self.live();
        if live == 0 {
            0.0
        } else {
            self.sleeping as f64 / live as f64
        }
    }
}

/// One consistent view of a reactor's queues and wake path, produced by
/// the front-end's reactor and rendered by [`ReactorSnapshot::prometheus`].
#[derive(Clone, Debug)]
pub struct ReactorSnapshot {
    /// Messages enqueued but not yet delivered, per worker queue.
    pub queue_depth: Vec<u64>,
    /// Enqueue→delivery latency of wake/op messages, microseconds.
    pub wake_latency_us: Histogram,
    /// Timer-wheel wake precision: how far past its deadline each timer
    /// actually fired, microseconds.
    pub timer_lag_us: Histogram,
    /// Session census at snapshot time.
    pub census: ReactorCensus,
    /// Wake messages dropped as stale (the addressee had already been
    /// delivered, finished, or gone back to sleep) — benign by design,
    /// counted so "benign" stays observable.
    pub stale_wakes: u64,
}

impl ReactorSnapshot {
    /// An empty snapshot for `workers` queues.
    #[must_use]
    pub fn empty(workers: usize) -> Self {
        ReactorSnapshot {
            queue_depth: vec![0; workers],
            wake_latency_us: wake_latency_histogram(),
            timer_lag_us: wake_latency_histogram(),
            census: ReactorCensus::default(),
            stale_wakes: 0,
        }
    }

    /// Renders the snapshot as Prometheus text-format `pstm_reactor_*`
    /// series, appendable to the registry page ([`crate::expo::render`]).
    /// Deterministic: equal snapshots render byte-identical text.
    #[must_use]
    pub fn prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        let _ = writeln!(out, "# HELP pstm_reactor_queue_depth Undelivered messages per worker.");
        let _ = writeln!(out, "# TYPE pstm_reactor_queue_depth gauge");
        for (worker, depth) in self.queue_depth.iter().enumerate() {
            let _ = writeln!(out, "pstm_reactor_queue_depth{{worker=\"{worker}\"}} {depth}");
        }
        let census: [(&str, u64); 4] = [
            ("running", self.census.running),
            ("waiting", self.census.waiting),
            ("sleeping", self.census.sleeping),
            ("finished", self.census.finished),
        ];
        let _ = writeln!(out, "# HELP pstm_reactor_sessions Sessions by lifecycle phase.");
        let _ = writeln!(out, "# TYPE pstm_reactor_sessions gauge");
        for (phase, n) in census {
            let _ = writeln!(out, "pstm_reactor_sessions{{phase=\"{phase}\"}} {n}");
        }
        let _ = writeln!(
            out,
            "# HELP pstm_reactor_committing Sessions whose commit waits at a group-commit station."
        );
        let _ = writeln!(out, "# TYPE pstm_reactor_committing gauge");
        let _ = writeln!(out, "pstm_reactor_committing {}", self.census.committing);
        let _ = writeln!(out, "# HELP pstm_reactor_stale_wakes_total Wakes dropped as stale.");
        let _ = writeln!(out, "# TYPE pstm_reactor_stale_wakes_total counter");
        let _ = writeln!(out, "pstm_reactor_stale_wakes_total {}", self.stale_wakes);
        for (name, help, hist) in [
            (
                "wake_latency_us",
                "Enqueue-to-delivery latency of wake messages, microseconds.",
                &self.wake_latency_us,
            ),
            (
                "timer_lag_us",
                "Timer firings past their deadline, microseconds.",
                &self.timer_lag_us,
            ),
        ] {
            let _ = writeln!(out, "# HELP pstm_reactor_{name} {help}");
            let _ = writeln!(out, "# TYPE pstm_reactor_{name} summary");
            for (q, label) in [(0.5, "0.5"), (0.99, "0.99")] {
                let _ = writeln!(
                    out,
                    "pstm_reactor_{name}{{quantile=\"{label}\"}} {}",
                    hist.quantile(q)
                );
            }
            let _ = writeln!(out, "pstm_reactor_{name}_sum {}", hist.sum());
            let _ = writeln!(out, "pstm_reactor_{name}_count {}", hist.total());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_fractions() {
        let census =
            ReactorCensus { running: 2, waiting: 2, committing: 1, sleeping: 95, finished: 10 };
        assert_eq!(census.live(), 100, "a parked commit is live");
        assert!((census.sleeping_fraction() - 0.95).abs() < 1e-12);
        assert_eq!(ReactorCensus::default().sleeping_fraction(), 0.0);
    }

    #[test]
    fn snapshot_renders_every_series() {
        let mut snap = ReactorSnapshot::empty(2);
        snap.queue_depth = vec![1, 7];
        snap.census =
            ReactorCensus { running: 1, waiting: 2, committing: 6, sleeping: 3, finished: 4 };
        snap.stale_wakes = 5;
        snap.wake_latency_us.record(120);
        snap.timer_lag_us.record(40);
        let page = snap.prometheus();
        for series in [
            "pstm_reactor_queue_depth{worker=\"0\"} 1",
            "pstm_reactor_queue_depth{worker=\"1\"} 7",
            "pstm_reactor_sessions{phase=\"sleeping\"} 3",
            "pstm_reactor_committing 6",
            "pstm_reactor_stale_wakes_total 5",
            "pstm_reactor_wake_latency_us{quantile=\"0.99\"} 250",
            "pstm_reactor_wake_latency_us_count 1",
            "pstm_reactor_timer_lag_us{quantile=\"0.5\"} 50",
        ] {
            assert!(page.contains(series), "missing `{series}` in:\n{page}");
        }
    }

    #[test]
    fn rendering_is_deterministic() {
        let mut a = ReactorSnapshot::empty(3);
        a.wake_latency_us.record(9);
        let b = a.clone();
        assert_eq!(a.prometheus(), b.prometheus());
    }
}
