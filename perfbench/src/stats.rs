//! Small statistics helpers.

use pstm_obs::Histogram;

/// Median of `values` (mean of the middle pair for an even count; 0 when
/// empty). Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile_sorted(values, 0.5)
}

/// Linear-interpolated `q`-quantile of ascending `sorted` (0 when empty).
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// `q`-quantile of `values` (sorts in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile_sorted(values, q)
}

/// `q`-quantile of a bucketed histogram, interpolated linearly inside
/// the bucket that holds the rank (the bucket's upper edge is capped at
/// the recorded maximum). `Histogram::quantile` returns bucket edges,
/// which read the same run after run; this reads between them.
#[must_use]
pub fn hist_quantile(h: &Histogram, q: f64) -> f64 {
    let total = h.total();
    if total == 0 {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
    let bounds = h.bounds();
    let max = h.max() as f64;
    let mut seen = 0.0;
    for (idx, &count) in h.counts().iter().enumerate() {
        let count = count as f64;
        if count > 0.0 && seen + count >= rank {
            if idx == 0 {
                return 0.0;
            }
            let lower = if idx == 1 { 0.0 } else { bounds[idx - 2] as f64 };
            let upper = if idx <= bounds.len() { (bounds[idx - 1] as f64).min(max) } else { max };
            return lower + (upper - lower) * ((rank - seen) / count);
        }
        seen += count;
    }
    max
}

/// Resident set size of this process now, MiB (`VmRSS`; 0 without
/// procfs).
#[must_use]
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Returns the allocator's free memory to the system, so that the next
/// world's resident memory does not depend on how the previous one's
/// freed pages happened to be laid out.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and may be
        // called at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Machine-wide CPU time so far as `(steal, total)` jiffies, from the
/// first line of `/proc/stat` (zeros without procfs). Steal is time the
/// hypervisor ran someone else while this machine's CPUs wanted to run.
#[must_use]
pub fn cpu_steal_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().take(8).sum())
}

/// One line per thread of this process: name, scheduler state and CPU
/// ticks used (from `/proc/self/task`), for stall reports.
#[must_use]
pub fn threads() -> String {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return "(no procfs)".into();
    };
    let mut lines = Vec::new();
    for task in tasks.flatten() {
        let path = task.path();
        let name = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        let stat = std::fs::read_to_string(path.join("stat")).unwrap_or_default();
        // Fields after the parenthesised name: state is the first, utime
        // and stime the 12th and 13th.
        let rest: Vec<&str> =
            stat.rsplit_once(')').map_or("", |(_, r)| r).split_whitespace().collect();
        let ticks = rest.get(11).and_then(|u| u.parse::<u64>().ok()).unwrap_or(0)
            + rest.get(12).and_then(|u| u.parse::<u64>().ok()).unwrap_or(0);
        lines.push(format!("  {} {} {}", name.trim(), rest.first().copied().unwrap_or("?"), ticks));
    }
    lines.join("\n")
}

/// `num / den`, 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
