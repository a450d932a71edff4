//! Streaming statistics: log-linear latency histograms with percentile
//! queries, and a tiny least-squares helper used by the delay-injection
//! validation experiment.

use crate::time::Dur;

/// HDR-style log-linear histogram over `u64` values (we store picoseconds).
///
/// Values are bucketed by (exponent, 32 linear sub-buckets), giving ≲ 3%
/// relative error on percentile queries over a 1 ps – 10 s span with a
/// fixed 2 KiB-per-histogram footprint.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// counts[exp][sub]: exp in 0..64-SUB_BITS, sub in 0..32
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

const SUB_BITS: u32 = 5;
const SUBS: usize = 1 << SUB_BITS;
// Region 0 is the linear range [0, SUBS); regions 1..=64-SUB_BITS cover one
// power-of-two exponent each, up to u64::MAX.
const EXPS: usize = 64 - SUB_BITS as usize + 1;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; EXPS * SUBS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    fn index(v: u64) -> usize {
        // Values below SUBS map to the linear region (exp 0).
        if v < SUBS as u64 {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros(); // >= SUB_BITS
                                          // For v in [2^exp, 2^(exp+1)), the SUB_BITS bits right below the top
                                          // bit select the linear sub-bucket.
        let shift = exp - SUB_BITS;
        let sub = ((v >> shift) & (SUBS as u64 - 1)) as usize;
        ((exp - SUB_BITS + 1) as usize) * SUBS + sub
    }

    /// Lower bound of the bucket with the given flat index.
    fn bucket_low(idx: usize) -> u64 {
        let exp = idx / SUBS;
        let sub = (idx % SUBS) as u64;
        if exp == 0 {
            sub
        } else {
            let shift = exp as u32 - 1 + SUB_BITS;
            (1u64 << shift) + (sub << (shift - SUB_BITS))
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    pub fn mean_dur(&self) -> Dur {
        Dur(self.mean().round() as u64)
    }

    /// Exact sum of all recorded values (histogram bucketing approximates
    /// percentiles, never the sum). Attribution reports divide per-stage
    /// sums by this kind of total, so it must be lossless.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }
    pub fn max(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max
        }
    }

    /// Value at quantile `q` in [0, 1]; returns a bucket lower bound, i.e.
    /// an under-estimate by at most one bucket width (≈3%).
    ///
    /// Edge cases are exact: an empty histogram reports 0, `q <= 0`
    /// reports the recorded minimum and `q >= 1` the recorded maximum
    /// (the interior bucket search would under-report the maximum by up
    /// to one bucket width).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut acc = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Self::bucket_low(i).max(self.min).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
    /// Extreme-tail quantile used by the open-loop serving reports. With
    /// fewer than 1000 samples this lands in the maximum's bucket, so it
    /// degrades gracefully toward `max()` on sparse histograms.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Simple ordinary-least-squares fit, used to validate the linear
/// PERIOD ↔ latency relationship the paper reports (§III-B).
#[derive(Clone, Copy, Debug)]
pub struct LinearFit {
    pub slope: f64,
    pub intercept: f64,
    /// Pearson correlation coefficient.
    pub r: f64,
}

pub fn linear_fit(points: &[(f64, f64)]) -> LinearFit {
    let n = points.len() as f64;
    assert!(points.len() >= 2, "need at least two points to fit a line");
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let syy: f64 = points.iter().map(|p| p.1 * p.1).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let cov = sxy - sx * sy / n;
    let var_x = sxx - sx * sx / n;
    let var_y = syy - sy * sy / n;
    let slope = cov / var_x;
    let intercept = (sy - slope * sx) / n;
    let r = if var_x <= 0.0 || var_y <= 0.0 {
        0.0
    } else {
        cov / (var_x.sqrt() * var_y.sqrt())
    };
    LinearFit {
        slope,
        intercept,
        r,
    }
}

/// The all-zero fit. Exists so reports can mark a fit as
/// `#[serde(skip)]` and recompute it after deserialization.
impl Default for LinearFit {
    fn default() -> Self {
        LinearFit {
            slope: 0.0,
            intercept: 0.0,
            r: 0.0,
        }
    }
}

impl serde::Serialize for LinearFit {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("slope".to_string(), serde::Value::F64(self.slope)),
            ("intercept".to_string(), serde::Value::F64(self.intercept)),
            ("r".to_string(), serde::Value::F64(self.r)),
        ])
    }
}

impl serde::Deserialize for LinearFit {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let get = |k: &str| -> Result<f64, serde::Error> {
            v.get(k)
                .and_then(serde::Value::as_f64)
                .ok_or_else(|| serde::Error::msg(format!("LinearFit: missing `{k}`")))
        };
        Ok(LinearFit {
            slope: get("slope")?,
            intercept: get("intercept")?,
            r: get("r")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_close() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 1000); // 1..10000 us in ps
        }
        let p50 = h.p50() as f64;
        let p99 = h.p99() as f64;
        assert!((p50 / 5_000_000.0 - 1.0).abs() < 0.05, "p50={p50}");
        assert!((p99 / 9_900_000.0 - 1.0).abs() < 0.05, "p99={p99}");
        assert_eq!(h.min(), 1000);
        assert_eq!(h.max(), 10_000_000);
        assert!((h.mean() / 5_000_500.0 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn extreme_quantiles_are_exact_min_and_max() {
        let mut h = Histogram::new();
        // Values chosen so bucket lower bounds differ from the extremes.
        for v in [1_000_003u64, 5_000_017, 9_000_041] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 1_000_003, "q=0 is the exact minimum");
        assert_eq!(h.quantile(1.0), 9_000_041, "q=1 is the exact maximum");
        assert_eq!(h.quantile(-0.5), 1_000_003, "below-range q clamps to min");
        assert_eq!(h.quantile(1.5), 9_000_041, "above-range q clamps to max");
        // Interior quantiles stay within the recorded range.
        let p50 = h.quantile(0.5);
        assert!((1_000_003..=9_000_041).contains(&p50));
    }

    #[test]
    fn single_value_histogram_is_flat() {
        let mut h = Histogram::new();
        h.record(12_345);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 12_345, "q={q}");
        }
    }

    #[test]
    fn histogram_handles_tiny_and_huge() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX / 2);
        assert_eq!(h.count(), 3);
        assert!(h.quantile(1.0) >= u64::MAX / 4);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in 0..1000u64 {
            whole.record(v * 7);
            if v % 2 == 0 {
                a.record(v * 7)
            } else {
                b.record(v * 7)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.p50(), whole.p50());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn bucket_low_is_monotone_and_consistent() {
        let mut prev = 0;
        for idx in 0..(EXPS * SUBS) {
            let low = Histogram::bucket_low(idx);
            assert!(low >= prev, "bucket lows must be nondecreasing");
            prev = low;
        }
        // Every value indexes into a bucket whose range contains it.
        for v in [0u64, 1, 31, 32, 33, 100, 1023, 1024, 1 << 40, u64::MAX] {
            let idx = Histogram::index(v);
            let low = Histogram::bucket_low(idx);
            assert!(low <= v, "low {low} > value {v}");
        }
    }

    // Sweep-level telemetry merges per-point statistics in grid order;
    // these properties guarantee the merge result cannot depend on that
    // order (or any other).
    mod merge_order {
        use super::*;
        use proptest::prelude::*;

        fn histogram_of(xs: &[u64]) -> Histogram {
            let mut h = Histogram::new();
            for &x in xs {
                h.record(x);
            }
            h
        }

        proptest! {
            #[test]
            fn prop_histogram_merge_is_order_independent(
                a in proptest::collection::vec(0u64..u64::MAX / 2, 0..100),
                b in proptest::collection::vec(0u64..u64::MAX / 2, 0..100),
            ) {
                let mut ab = histogram_of(&a);
                ab.merge(&histogram_of(&b));
                let mut ba = histogram_of(&b);
                ba.merge(&histogram_of(&a));
                prop_assert_eq!(ab.count(), ba.count());
                prop_assert_eq!(ab.min(), ba.min());
                prop_assert_eq!(ab.max(), ba.max());
                prop_assert_eq!(ab.mean(), ba.mean());
                for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
                    prop_assert_eq!(ab.quantile(q), ba.quantile(q), "q={}", q);
                }
                let whole = histogram_of(&[a, b].concat());
                prop_assert_eq!(ab.count(), whole.count());
                prop_assert_eq!(ab.quantile(0.5), whole.quantile(0.5));
            }
        }
    }

    // The open-loop serving reports lean on extreme-tail quantiles
    // (p999 on histograms that may hold only a few hundred samples, or
    // whose mass sits many decades below a handful of outliers). These
    // properties pin the tail behavior: monotone in q, exact when the
    // values sit on bucket boundaries, and never more than one bucket
    // width (1/32 relative) below the exact order statistic.
    mod tail_quantiles {
        use super::*;
        use proptest::prelude::*;

        /// Values biased toward heavy tails: linear-region smalls, a
        /// mid-range band, and outliers spread across every exponent.
        fn heavy_tailed() -> impl Strategy<Value = u64> {
            prop_oneof![
                0u64..32,
                32u64..100_000,
                100_000u64..10_000_000_000,
                (0u32..63).prop_map(|e| 1u64 << e),
            ]
        }

        proptest! {
            #[test]
            fn prop_quantile_is_monotone_in_q(
                xs in proptest::collection::vec(heavy_tailed(), 1..200),
                // Half-open on purpose (the vendored proptest has no
                // inclusive f64 ranges); values ≥ 1.0 clamp to max and
                // are covered by the boundary property below.
                qs in proptest::collection::vec(0.0f64..1.0, 2..20),
            ) {
                let mut h = Histogram::new();
                for &x in &xs {
                    h.record(x);
                }
                let mut qs = qs;
                qs.sort_by(f64::total_cmp);
                let mut prev = h.min();
                for &q in &qs {
                    let v = h.quantile(q);
                    prop_assert!(v >= prev, "quantile({}) = {} < earlier {}", q, v, prev);
                    prop_assert!(v >= h.min() && v <= h.max());
                    prev = v;
                }
            }

            #[test]
            fn prop_bucket_boundary_values_are_exact(
                idxs in proptest::collection::vec(0usize..EXPS * SUBS, 1..100),
            ) {
                // Values sitting exactly on bucket lower bounds must be
                // reported exactly at any quantile: the bucket scan
                // returns lower bounds, and every recorded value *is*
                // one (distinct boundaries live in distinct buckets).
                let mut h = Histogram::new();
                let mut vals: Vec<u64> =
                    idxs.iter().map(|&i| Histogram::bucket_low(i)).collect();
                for &v in &vals {
                    h.record(v);
                }
                vals.sort_unstable();
                for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
                    let got = h.quantile(q);
                    prop_assert!(
                        vals.binary_search(&got).is_ok(),
                        "quantile({}) = {} is not a recorded boundary value",
                        q,
                        got
                    );
                }
            }

            #[test]
            fn prop_tail_quantile_relative_error_is_bounded(
                xs in proptest::collection::vec(heavy_tailed(), 1..300),
            ) {
                let mut h = Histogram::new();
                for &x in &xs {
                    h.record(x);
                }
                let mut sorted = xs.clone();
                sorted.sort_unstable();
                for q in [0.5, 0.99, 0.999] {
                    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
                    let exact = sorted[rank];
                    let got = h.quantile(q);
                    // The scan stops in the bucket holding the exact
                    // order statistic and reports its lower bound
                    // (clamped into [min, max]): never above the exact
                    // value, below it by at most one bucket width.
                    prop_assert!(got <= exact, "q={}: got {} > exact {}", q, got, exact);
                    prop_assert!(
                        exact - got <= got / 32 + 1,
                        "q={}: {} under-reports {} by more than a bucket",
                        q,
                        got,
                        exact
                    );
                }
            }

            #[test]
            fn prop_sparse_histogram_p999_tracks_the_max_bucket(
                xs in proptest::collection::vec(heavy_tailed(), 1..999),
            ) {
                // Below 1000 samples the 0.999 target rank *is* the
                // maximum, so p999 must land in the max's bucket and
                // sit between p99 and max.
                let mut h = Histogram::new();
                for &x in &xs {
                    h.record(x);
                }
                let p999 = h.p999();
                prop_assert!(p999 <= h.max());
                prop_assert!(p999 >= h.p99());
                prop_assert!(
                    h.max() - p999 <= p999 / 32 + 1,
                    "sparse p999 {} strayed from max {}",
                    p999,
                    h.max()
                );
            }
        }
    }

    #[test]
    fn linear_fit_recovers_line() {
        let pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, 3.0 * i as f64 + 7.0)).collect();
        let f = linear_fit(&pts);
        assert!((f.slope - 3.0).abs() < 1e-9);
        assert!((f.intercept - 7.0).abs() < 1e-9);
        assert!((f.r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_uncorrelated_r_small() {
        // A symmetric V shape has zero linear correlation.
        let pts: Vec<(f64, f64)> = (-25..=25).map(|i| (i as f64, (i as f64).abs())).collect();
        let f = linear_fit(&pts);
        assert!(f.r.abs() < 1e-9, "r={} for V shape", f.r);
    }
}
