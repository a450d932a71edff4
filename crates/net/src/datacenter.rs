//! Datacenter network latency envelopes.
//!
//! The paper validates its injector against production latency
//! measurements (Pingmesh \[13\], Swift \[24\]): the injected 1.2–150 µs range
//! "corresponds to the [0–90th]-percentile network latency in production
//! datacenter networks", while 4 ms is "far beyond the 99th percentile".
//! This module encodes an intra-datacenter latency profile approximating
//! those published envelopes and exposes percentile queries for
//! classifying injected delays.

use thymesim_sim::Dur;

/// A piecewise-linear latency CDF: `(percentile, latency)` knots.
#[derive(Clone, Debug)]
pub struct LatencyProfile {
    knots: Vec<(f64, Dur)>,
}

impl LatencyProfile {
    /// Intra-datacenter (cross-rack, switched) profile approximating the
    /// Pingmesh inter-pod TCP-connect envelope and Swift fabric RTTs:
    /// single-digit µs at the median, low hundreds of µs at the 90th, and
    /// ~1 ms at the 99th.
    pub fn intra_datacenter() -> LatencyProfile {
        LatencyProfile {
            knots: vec![
                (0.0, Dur::us(1)),
                (0.10, Dur::us(3)),
                (0.25, Dur::us(8)),
                (0.50, Dur::us(25)),
                (0.75, Dur::us(70)),
                (0.90, Dur::us(150)),
                (0.95, Dur::us(300)),
                (0.99, Dur::us(1000)),
                (0.999, Dur::us(2500)),
                (1.0, Dur::us(4000)),
            ],
        }
    }

    /// Latency at percentile `p ∈ [0, 1]` (linear interpolation in ps).
    pub fn latency_at(&self, p: f64) -> Dur {
        let p = p.clamp(0.0, 1.0);
        let knots = &self.knots;
        if p <= knots[0].0 {
            return knots[0].1;
        }
        for w in knots.windows(2) {
            let (p0, d0) = w[0];
            let (p1, d1) = w[1];
            if p <= p1 {
                let f = (p - p0) / (p1 - p0);
                let ps = d0.as_ps() as f64 + f * (d1.as_ps() as f64 - d0.as_ps() as f64);
                return Dur::ps(ps.round() as u64);
            }
        }
        knots.last().unwrap().1
    }

    /// Percentile at which `latency` falls (inverse of [`LatencyProfile::latency_at`]).
    pub fn percentile_of(&self, latency: Dur) -> f64 {
        let knots = &self.knots;
        if latency <= knots[0].1 {
            return knots[0].0;
        }
        for w in knots.windows(2) {
            let (p0, d0) = w[0];
            let (p1, d1) = w[1];
            if latency <= d1 {
                let f =
                    (latency.as_ps() - d0.as_ps()) as f64 / (d1.as_ps() - d0.as_ps()).max(1) as f64;
                return p0 + f * (p1 - p0);
            }
        }
        1.0
    }

    /// Is `latency` within the `[0, p]`-percentile envelope?
    pub fn within(&self, latency: Dur, p: f64) -> bool {
        latency <= self.latency_at(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_monotone() {
        let prof = LatencyProfile::intra_datacenter();
        let mut prev = Dur::ZERO;
        for i in 0..=100 {
            let d = prof.latency_at(i as f64 / 100.0);
            assert!(d >= prev, "CDF must be nondecreasing at p={i}");
            prev = d;
        }
    }

    #[test]
    fn inverse_round_trips() {
        let prof = LatencyProfile::intra_datacenter();
        for p in [0.1, 0.33, 0.5, 0.9, 0.99] {
            let d = prof.latency_at(p);
            let p2 = prof.percentile_of(d);
            assert!((p - p2).abs() < 1e-9, "p={p} -> {d} -> {p2}");
        }
    }

    #[test]
    fn paper_range_is_within_90th() {
        // The injected 1.2–150 µs STREAM latencies are inside [0, 90th].
        let prof = LatencyProfile::intra_datacenter();
        assert!(prof.within(Dur::from_ns_f64(1200.0), 0.90));
        assert!(prof.within(Dur::us(150), 0.90));
        assert!(!prof.within(Dur::us(151), 0.90));
    }

    #[test]
    fn four_ms_is_beyond_the_99th() {
        let prof = LatencyProfile::intra_datacenter();
        let p99 = prof.latency_at(0.99);
        assert!(Dur::ms(4) > p99, "4 ms must exceed p99 ({p99})");
        assert!(prof.percentile_of(Dur::ms(4)) > 0.999);
    }

    #[test]
    fn out_of_range_percentiles_clamp() {
        let prof = LatencyProfile::intra_datacenter();
        assert_eq!(prof.latency_at(-1.0), prof.latency_at(0.0));
        assert_eq!(prof.latency_at(2.0), prof.latency_at(1.0));
        assert_eq!(prof.percentile_of(Dur::secs(1)), 1.0);
        assert_eq!(prof.percentile_of(Dur::ZERO), 0.0);
    }
}
