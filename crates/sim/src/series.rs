//! Sampled time series and the statistics the paper's figures need.

use std::fmt;
use std::sync::Arc;

use crate::SimTime;

/// A time-ordered sequence of `(time, value)` samples for one signal.
///
/// This is the output format of every experiment: Fig. 6(b) is four of these.
///
/// # Example
///
/// ```
/// use evm_sim::{SimTime, TimeSeries};
/// let mut s = TimeSeries::new("LTS.LiquidPct");
/// s.push(SimTime::ZERO, 50.0);
/// s.push(SimTime::from_secs(1), 49.5);
/// assert_eq!(s.last_value(), Some(49.5));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Shared, not copied: every run of one deployment names its series
    /// from the same strings.
    name: Arc<str>,
    samples: Vec<(SimTime, f64)>,
}

/// Summary statistics of a [`TimeSeries`] (or a window of one).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesStats {
    /// Number of samples.
    pub count: usize,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

impl TimeSeries {
    /// Creates an empty series with the given signal name.
    #[must_use]
    pub fn new(name: impl Into<Arc<str>>) -> Self {
        TimeSeries {
            name: name.into(),
            samples: Vec::new(),
        }
    }

    /// The signal name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Reserves capacity for at least `additional` more samples — lets a
    /// long-running engine pre-size its result buffers so steady-state
    /// sampling never reallocates.
    pub fn reserve(&mut self, additional: usize) {
        self.samples.reserve(additional);
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `at` is earlier than the previous sample.
    pub fn push(&mut self, at: SimTime, value: f64) {
        if let Some(&(last, _)) = self.samples.last() {
            debug_assert!(at >= last, "samples must be appended in time order");
        }
        self.samples.push((at, value));
    }

    /// All samples in time order.
    #[must_use]
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if the series has no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The most recent value, if any.
    #[must_use]
    pub fn last_value(&self) -> Option<f64> {
        self.samples.last().map(|&(_, v)| v)
    }

    /// The value in effect at time `at` (sample-and-hold semantics):
    /// the latest sample with timestamp `<= at`.
    #[must_use]
    pub fn value_at(&self, at: SimTime) -> Option<f64> {
        match self.samples.partition_point(|&(t, _)| t <= at) {
            0 => None,
            i => Some(self.samples[i - 1].1),
        }
    }

    /// Sub-series restricted to `lo <= t < hi`.
    #[must_use]
    pub fn window(&self, lo: SimTime, hi: SimTime) -> TimeSeries {
        TimeSeries {
            name: self.name.clone(),
            samples: self
                .samples
                .iter()
                .copied()
                .filter(|&(t, _)| t >= lo && t < hi)
                .collect(),
        }
    }

    /// Summary statistics, or `None` for an empty series.
    #[must_use]
    pub fn stats(&self) -> Option<SeriesStats> {
        if self.samples.is_empty() {
            return None;
        }
        let n = self.samples.len() as f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &(_, v) in &self.samples {
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        let mean = sum / n;
        let var = self
            .samples
            .iter()
            .map(|&(_, v)| (v - mean).powi(2))
            .sum::<f64>()
            / n;
        Some(SeriesStats {
            count: self.samples.len(),
            min,
            max,
            mean,
            std_dev: var.sqrt(),
        })
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of the values, by linear interpolation.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.samples.is_empty() {
            return None;
        }
        let mut vals: Vec<f64> = self.samples.iter().map(|&(_, v)| v).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("NaN in series"));
        let pos = q * (vals.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(vals[lo] * (1.0 - frac) + vals[hi] * frac)
    }

    /// Integral of squared error against a reference value over the sampled
    /// span using left-rectangle integration (the classic ISE control-cost
    /// metric, used by experiment E14).
    #[must_use]
    pub fn integral_squared_error(&self, reference: f64) -> f64 {
        let mut acc = 0.0;
        for pair in self.samples.windows(2) {
            let (t0, v0) = pair[0];
            let (t1, _) = pair[1];
            let dt = (t1 - t0).as_secs_f64();
            acc += (v0 - reference).powi(2) * dt;
        }
        acc
    }

    /// First time at (or after) which the signal stays within
    /// `reference ± tol` for the remainder of the series — the settling
    /// instant. `None` if it never settles.
    #[must_use]
    pub fn settling_time(&self, reference: f64, tol: f64) -> Option<SimTime> {
        let mut candidate: Option<SimTime> = None;
        for &(t, v) in &self.samples {
            if (v - reference).abs() <= tol {
                candidate.get_or_insert(t);
            } else {
                candidate = None;
            }
        }
        candidate
    }

    /// Renders a CSV fragment (`time_s,value` lines, no header).
    #[must_use]
    pub fn to_csv(&self) -> String {
        use fmt::Write;
        let mut s = String::new();
        for &(t, v) in &self.samples {
            let _ = writeln!(s, "{:.3},{:.6}", t.as_secs_f64(), v);
        }
        s
    }
}

impl fmt::Display for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} samples)", self.name, self.samples.len())
    }
}

/// Writes several series sharing a time base as one CSV table
/// (`time_s,name1,name2,...`). Series are sampled-and-held onto the time
/// base of the first series.
///
/// # Panics
///
/// Panics if `series` is empty.
#[must_use]
pub fn merged_csv(series: &[&TimeSeries]) -> String {
    assert!(!series.is_empty(), "need at least one series");
    let mut out = String::from("time_s");
    for s in series {
        out.push(',');
        out.push_str(s.name());
    }
    out.push('\n');
    for &(t, v0) in series[0].samples() {
        use fmt::Write;
        let _ = write!(out, "{:.3},{v0:.6}", t.as_secs_f64());
        for s in &series[1..] {
            let v = s.value_at(t).unwrap_or(f64::NAN);
            let _ = write!(out, ",{v:.6}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> TimeSeries {
        let mut s = TimeSeries::new("ramp");
        for i in 0..=10 {
            s.push(SimTime::from_secs(i), i as f64);
        }
        s
    }

    #[test]
    fn stats_of_ramp() {
        let st = ramp().stats().unwrap();
        assert_eq!(st.count, 11);
        assert_eq!(st.min, 0.0);
        assert_eq!(st.max, 10.0);
        assert!((st.mean - 5.0).abs() < 1e-12);
    }

    #[test]
    fn value_at_sample_and_hold() {
        let s = ramp();
        assert_eq!(s.value_at(SimTime::from_millis(500)), Some(0.0));
        assert_eq!(s.value_at(SimTime::from_secs(3)), Some(3.0));
        assert_eq!(s.value_at(SimTime::from_millis(3_500)), Some(3.0));
        let mut empty = TimeSeries::new("e");
        assert_eq!(empty.value_at(SimTime::ZERO), None);
        empty.push(SimTime::from_secs(5), 1.0);
        assert_eq!(empty.value_at(SimTime::from_secs(4)), None);
    }

    #[test]
    fn window_bounds() {
        let w = ramp().window(SimTime::from_secs(2), SimTime::from_secs(5));
        assert_eq!(w.len(), 3); // t = 2, 3, 4
        assert_eq!(w.samples()[0].1, 2.0);
    }

    #[test]
    fn quantiles() {
        let s = ramp();
        assert_eq!(s.quantile(0.0), Some(0.0));
        assert_eq!(s.quantile(1.0), Some(10.0));
        assert_eq!(s.quantile(0.5), Some(5.0));
    }

    #[test]
    fn ise_of_constant_error() {
        let mut s = TimeSeries::new("c");
        s.push(SimTime::ZERO, 2.0);
        s.push(SimTime::from_secs(10), 2.0);
        // (2-0)^2 * 10 s = 40
        assert!((s.integral_squared_error(0.0) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn settling() {
        let mut s = TimeSeries::new("sig");
        s.push(SimTime::from_secs(0), 10.0);
        s.push(SimTime::from_secs(1), 5.0);
        s.push(SimTime::from_secs(2), 1.0);
        s.push(SimTime::from_secs(3), 0.5);
        s.push(SimTime::from_secs(4), 0.4);
        assert_eq!(s.settling_time(0.0, 1.0), Some(SimTime::from_secs(2)));
        assert_eq!(s.settling_time(0.0, 0.1), None);
    }

    #[test]
    fn merged_csv_layout() {
        let a = ramp();
        let mut b = TimeSeries::new("b");
        b.push(SimTime::ZERO, 100.0);
        let csv = merged_csv(&[&a, &b]);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("time_s,ramp,b"));
        assert_eq!(csv.lines().count(), 12);
        assert!(csv
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("0.000,0.000000,100.000000"));
    }
}
