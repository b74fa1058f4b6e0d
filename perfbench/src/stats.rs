//! The benchmark's own statistics: nearest-rank percentiles, rates,
//! shares and span self-times.

/// Fewest samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `values` at `q` in `[0, 1]`, by the
/// convention `RunResult::e2e_quantile` uses: sort ascending, take index
/// `round((n - 1) * q)`. `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond the chosen one (so an empty sample, or a p90 of fewer than about
/// a hundred samples, is refused).
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() - 1) as f64 * q).round() as usize;
    (v.len() - 1 - idx >= MIN_BEYOND).then(|| v[idx])
}

/// Median of `values` (nearest rank, no tail requirement); 0 when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * 0.5).round() as usize]
}

/// The best of `values`: the lowest when `lower_is_better`, else the
/// highest; `None` when empty.
#[must_use]
pub fn best(values: &[f64], lower_is_better: bool) -> Option<f64> {
    let pick: fn(f64, f64) -> f64 = if lower_is_better { f64::min } else { f64::max };
    values.iter().copied().reduce(pick)
}

/// Work per unit time; 0 when no time elapsed.
#[must_use]
pub fn rate(work: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        work / seconds
    } else {
        0.0
    }
}

/// The share of `total` taken by `count` calls of `per_call` each; 0 when
/// `total` is not positive.
#[must_use]
pub fn share(per_call: f64, count: f64, total: f64) -> f64 {
    if total > 0.0 {
        per_call * count / total
    } else {
        0.0
    }
}

/// Length of the union of the half-open `[start, end)` intervals, each
/// clipped to `[lo, hi)`. Overlapping children (parallel workers) count
/// once.
#[must_use]
pub fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of a span `[start, end)`: its duration minus the part of it
/// its children cover.
#[must_use]
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    (end - start) - covered(children, start, end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_the_run_result_nearest_rank_convention() {
        use evm_core::{RunMeta, RunResult};
        use evm_sim::SimDuration;
        // 101 latencies 0..=100 ms, shuffled: the run result and the
        // benchmark must pick the same sample at every quantile.
        let ms: Vec<u64> = (0..=100).map(|i| (i * 37) % 101).collect();
        let r = RunResult {
            meta: RunMeta::unspecified(),
            series: Default::default(),
            trace: Default::default(),
            e2e_latencies: ms.iter().map(|&m| SimDuration::from_millis(m)).collect(),
            deadline_misses: 0,
            actuations: 0,
            node_energy: Default::default(),
            vc_stats: Vec::new(),
            epochs: 0,
            reroute_latency: None,
            migrations: Vec::new(),
        };
        let values: Vec<f64> = ms.iter().map(|&m| m as f64).collect();
        for q in [0.0, 0.25, 0.5, 0.67, 0.9] {
            let ours = percentile(&values, q).expect("enough tail");
            let theirs = r.e2e_quantile(q).expect("non-empty").as_secs_f64() * 1e3;
            assert!((ours - theirs).abs() < 1e-9, "q={q}: {ours} vs {theirs}");
        }
        assert_eq!(median(&values), 50.0);
    }

    #[test]
    fn percentile_is_refused_with_fewer_than_ten_samples_beyond() {
        // 100 samples: p90 lands on index round(99 * 0.9) = 89, with 10
        // beyond it — reported. 99 samples: index 88, 10 beyond — still
        // reported; 90 samples: index 80, 9 beyond — refused.
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(89.0));
        let ninety: Vec<f64> = (0..90).map(f64::from).collect();
        assert_eq!(percentile(&ninety, 0.9), None);
        assert_eq!(percentile(&[], 0.5), None);
        // A median needs 21 samples (10 beyond index 10).
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.5), None);
        let twenty_one: Vec<f64> = (0..21).map(f64::from).collect();
        assert_eq!(percentile(&twenty_one, 0.5), Some(10.0));
    }

    #[test]
    fn rate_and_share_arithmetic() {
        assert_eq!(rate(1000.0, 0.5), 2000.0);
        assert_eq!(rate(5.0, 0.0), 0.0);
        // 10 000 plant steps of 4 µs in a 50 ms run: 80 %.
        assert!((share(4e-6, 10_000.0, 0.05) - 0.8).abs() < 1e-12);
        assert_eq!(share(1.0, 1.0, 0.0), 0.0);
        assert_eq!(best(&[3.0, 1.0, 2.0], true), Some(1.0));
        assert_eq!(best(&[3.0, 1.0, 2.0], false), Some(3.0));
        assert_eq!(best(&[], true), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_spans() {
        // Parent [0, 100); children [10, 30) and [20, 50) overlap (two
        // workers) and [90, 120) sticks out past the parent's end.
        let children = [(10, 30), (20, 50), (90, 120)];
        assert_eq!(covered(&children, 0, 100), 40 + 10);
        assert_eq!(self_time(0, 100, &children), 50);
        assert_eq!(self_time(0, 100, &[]), 100);
        // Children covering all of the parent leave no self time.
        assert_eq!(self_time(5, 15, &[(0, 10), (10, 20)]), 0);
        // Disjoint children.
        assert_eq!(self_time(0, 10, &[(1, 2), (4, 7)]), 6);
    }
}
