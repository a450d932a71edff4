//! E1/E2/E8 — delay-injection validation (Figs. 2 and 3, §III-B claims).
//!
//! Sweep PERIOD with STREAM on the borrower (lender idle), reporting the
//! measured per-access latency, bandwidth, and bandwidth-delay product,
//! then check the paper's three validation claims: realistic latency
//! coverage, PERIOD↔latency linearity, and constant BDP.

use crate::config::TestbedConfig;
use crate::sweep;
use crate::testbed::Testbed;
use serde::{Deserialize, Serialize};
use thymesim_net::LatencyProfile;
use thymesim_sim::{linear_fit, Dur, LinearFit};
use thymesim_workloads::probe::{ChaseTable, ProbeConfig};
use thymesim_workloads::stream::StreamConfig;

/// The paper's Fig. 2/3 sweep points.
pub const FIG2_PERIODS: [u64; 9] = [1, 2, 5, 10, 20, 50, 100, 200, 300];

/// One point of the Fig. 2/3 series.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DelaySweepPoint {
    pub period: u64,
    /// Mean remote-access latency measured by STREAM (Fig. 2 y-axis).
    pub latency_us: f64,
    /// Best STREAM-reported bandwidth (Fig. 3 y-axis), GiB/s.
    pub bandwidth_gib_s: f64,
    /// Consumed fabric bandwidth × latency (the §IV-B BDP), in KiB.
    pub bdp_kib: f64,
    /// Triad kernel bandwidth, for per-kernel series.
    pub triad_gib_s: f64,
    pub copy_gib_s: f64,
}

/// Full configuration of one sweep point — the sweep key (and thus the
/// memoization entry) hashes all of it.
#[derive(Clone, Debug, Serialize)]
pub(crate) struct StreamPoint {
    period: u64,
    cfg: TestbedConfig,
    stream: StreamConfig,
}

impl StreamPoint {
    /// STREAM `stream` on `base` with the injector at `period`.
    pub(crate) fn new(base: &TestbedConfig, stream: &StreamConfig, period: u64) -> StreamPoint {
        StreamPoint {
            period,
            cfg: base.clone().with_period(period),
            stream: *stream,
        }
    }
}

/// Simulate one delay point: STREAM on remote memory, reporting its
/// latency, bandwidth and consumed-bandwidth × latency product. The
/// point body of both the Fig. 2/3 sweep and the E15 tornado.
pub(crate) fn stream_delay_point(pt: &StreamPoint) -> DelaySweepPoint {
    let mut tb = Testbed::build(&pt.cfg).expect("validation periods must attach");
    let report = crate::runners::run_stream(&mut tb, &pt.stream, crate::runners::Placement::Remote);
    // Consumed fabric bandwidth: response lines over the run.
    let reads = tb.borrower.remote().stats.reads;
    let line = pt.cfg.fabric.line_bytes;
    let elapsed = report.elapsed.as_secs_f64();
    let consumed = reads as f64 * line as f64 / elapsed;
    let latency_s = report.miss_latency_mean.as_secs_f64();
    DelaySweepPoint {
        period: pt.period,
        latency_us: report.miss_latency_mean.as_us_f64(),
        bandwidth_gib_s: report.best_bandwidth_gib_s(),
        bdp_kib: consumed * latency_s / 1024.0,
        triad_gib_s: report.triad.bandwidth_gib_s,
        copy_gib_s: report.copy.bandwidth_gib_s,
    }
}

/// Run STREAM at every PERIOD in `periods` (parallel across points; each
/// point is its own deterministic simulation).
pub fn stream_delay_sweep(
    base: &TestbedConfig,
    stream: &StreamConfig,
    periods: &[u64],
) -> Vec<DelaySweepPoint> {
    let grid: Vec<StreamPoint> = periods
        .iter()
        .map(|&period| StreamPoint::new(base, stream, period))
        .collect();
    let mut points = sweep::run("validate/stream-delay", &grid, |_ctx, pt| {
        stream_delay_point(pt)
    });
    points.sort_by_key(|p| p.period);
    points
}

/// §III-B validation verdicts.
#[derive(Clone, Debug, Serialize)]
pub struct ValidationReport {
    /// OLS fit of latency(µs) against PERIOD.
    #[serde(skip)]
    pub fit: LinearFit,
    pub fit_r: f64,
    pub fit_slope_us_per_period: f64,
    /// Latency range covered by the sweep.
    pub min_latency_us: f64,
    pub max_latency_us: f64,
    /// Highest network-latency percentile the sweep reaches (intra-DC
    /// profile) — the paper claims coverage of [0, 90th].
    pub max_percentile_covered: f64,
    /// Coefficient of variation of the BDP across the sweep (≈0 means
    /// "roughly constant", the Fig. 3 claim).
    pub bdp_cv: f64,
    pub bdp_mean_kib: f64,
}

/// Evaluate the three §III-B claims over a sweep.
pub fn validate_injection(points: &[DelaySweepPoint]) -> ValidationReport {
    assert!(points.len() >= 3, "need a sweep to validate");
    let fit = linear_fit(
        &points
            .iter()
            .map(|p| (p.period as f64, p.latency_us))
            .collect::<Vec<_>>(),
    );
    let min = points.iter().map(|p| p.latency_us).fold(f64::MAX, f64::min);
    let max = points.iter().map(|p| p.latency_us).fold(0.0, f64::max);
    let profile = LatencyProfile::intra_datacenter();
    let pmax = profile.percentile_of(Dur::from_ns_f64(max * 1000.0));
    let n = points.len() as f64;
    let mean_bdp = points.iter().map(|p| p.bdp_kib).sum::<f64>() / n;
    let var = points
        .iter()
        .map(|p| (p.bdp_kib - mean_bdp).powi(2))
        .sum::<f64>()
        / n;
    ValidationReport {
        fit,
        fit_r: fit.r,
        fit_slope_us_per_period: fit.slope,
        min_latency_us: min,
        max_latency_us: max,
        max_percentile_covered: pmax,
        bdp_cv: var.sqrt() / mean_bdp,
        bdp_mean_kib: mean_bdp,
    }
}

/// One point of the single-outstanding-load (pointer-chase) sweep.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProbeSweepPoint {
    pub period: u64,
    /// Mean dependent-load latency.
    pub latency_us: f64,
    pub p99_us: f64,
}

/// Sweep PERIOD with the pointer-chase probe: a *single* outstanding load
/// sees only the gate's slot-alignment wait (≈ PERIOD/2 cycles on
/// average), not the window-queueing wait STREAM sees (≈ window × PERIOD
/// cycles). The contrast is the mechanism behind Fig. 5's divergence:
/// per-access delay depends on an application's memory-level parallelism.
pub fn probe_delay_sweep(
    base: &TestbedConfig,
    probe: &ProbeConfig,
    periods: &[u64],
) -> Vec<ProbeSweepPoint> {
    #[derive(Clone, Debug, Serialize)]
    struct ProbePoint {
        period: u64,
        cfg: TestbedConfig,
        probe: ProbeConfig,
    }
    let grid: Vec<ProbePoint> = periods
        .iter()
        .map(|&period| ProbePoint {
            period,
            cfg: base.clone().with_period(period),
            probe: *probe,
        })
        .collect();
    let mut points = sweep::run("validate/probe-delay", &grid, |_ctx, pt| {
        let mut tb = Testbed::build(&pt.cfg).expect("probe periods attach");
        let Testbed {
            borrower,
            remote_arena,
            attach,
            ..
        } = &mut tb;
        let table = ChaseTable::build(&pt.probe, borrower, remote_arena);
        let report = table.run(&pt.probe, borrower, attach.ready_at);
        assert!(report.chain_valid);
        ProbeSweepPoint {
            period: pt.period,
            latency_us: report.mean.as_us_f64(),
            p99_us: report.p99.as_us_f64(),
        }
    });
    points.sort_by_key(|p| p.period);
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_sweep() -> Vec<DelaySweepPoint> {
        let mut scfg = StreamConfig::tiny();
        scfg.elements = 16_384;
        stream_delay_sweep(&TestbedConfig::tiny(), &scfg, &[1, 10, 50, 100, 200, 300])
    }

    #[test]
    fn latency_grows_linearly_with_period() {
        let points = quick_sweep();
        let v = validate_injection(&points);
        assert!(v.fit_r > 0.99, "PERIOD↔latency correlation r={}", v.fit_r);
        // Slope ≈ window × cycle × gate-share ≈ 128 × 4 ns × ~1.35
        // (write-backs and RFOs share the gate with demand reads).
        assert!(
            (0.45..0.9).contains(&v.fit_slope_us_per_period),
            "slope {} us/PERIOD",
            v.fit_slope_us_per_period
        );
    }

    #[test]
    fn latency_range_matches_paper_envelope() {
        let points = quick_sweep();
        let v = validate_injection(&points);
        // Paper: 1.2–150 us, inside the [0, 90th] percentile envelope.
        assert!(
            (0.8..2.0).contains(&v.min_latency_us),
            "vanilla floor {} us",
            v.min_latency_us
        );
        assert!(
            (140.0..260.0).contains(&v.max_latency_us),
            "sweep max {} us",
            v.max_latency_us
        );
        assert!(
            v.max_percentile_covered <= 0.95,
            "sweep should stay near the 90th percentile, reached {}",
            v.max_percentile_covered
        );
    }

    #[test]
    fn bdp_is_roughly_constant() {
        let points = quick_sweep();
        let v = validate_injection(&points);
        // Gate-bound points dominate: CV stays small and the mean is near
        // window × line = 16 KiB.
        assert!(v.bdp_cv < 0.35, "BDP CV {}", v.bdp_cv);
        assert!(
            (10.0..24.0).contains(&v.bdp_mean_kib),
            "BDP mean {} KiB",
            v.bdp_mean_kib
        );
    }

    #[test]
    fn probe_sees_alignment_not_queueing() {
        // The chase probe's extra latency per PERIOD should be ~half a
        // PERIOD of cycles (slot alignment), two orders of magnitude less
        // than STREAM's window-deep queueing at the same PERIOD.
        let mut probe = ProbeConfig::tiny();
        probe.lines = 8192; // 1 MiB footprint: thrashes the tiny cache
        probe.hops = 8192;
        let points = probe_delay_sweep(&TestbedConfig::tiny(), &probe, &[1, 500]);
        let delta_us = points[1].latency_us - points[0].latency_us;
        // 500 cycles × 4 ns = 2 µs per slot; alignment wait averages ~1 µs.
        assert!(
            (0.5..3.0).contains(&delta_us),
            "probe delta {delta_us} µs per 500 PERIOD — expected ~1-2 µs"
        );
        // STREAM at the same PERIOD queues the whole window.
        let mut scfg = StreamConfig::tiny();
        scfg.elements = 16_384;
        let stream = stream_delay_sweep(&TestbedConfig::tiny(), &scfg, &[500]);
        assert!(
            stream[0].latency_us > points[1].latency_us * 20.0,
            "STREAM ({} µs) must dwarf the probe ({} µs) at PERIOD=500",
            stream[0].latency_us,
            points[1].latency_us
        );
    }

    #[test]
    fn bandwidth_decreases_with_period() {
        let points = quick_sweep();
        for w in points.windows(2) {
            assert!(
                w[1].bandwidth_gib_s <= w[0].bandwidth_gib_s * 1.05,
                "bandwidth must fall (or hold) as PERIOD grows: {w:?}"
            );
        }
        let first = &points[0];
        let last = points.last().unwrap();
        assert!(first.bandwidth_gib_s / last.bandwidth_gib_s > 20.0);
    }
}
