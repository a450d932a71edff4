//! E15 — sensitivity of the headline results to the model's calibration
//! constants.
//!
//! Every reproduction carries constants the paper does not pin down
//! (window depth, link rate, pipeline latencies). This experiment
//! perturbs each one ±50% and reports how the two headline metrics move:
//! the Fig. 2 slope (µs of latency per PERIOD) and the vanilla remote
//! latency floor. Constants whose perturbation barely moves the results
//! don't need precise calibration; the ones that do are exactly the
//! quantities the paper measured (window — via the BDP — and the base
//! path latency).

use crate::config::TestbedConfig;
use crate::experiments::validate::{stream_delay_point, validate_injection, StreamPoint};
use crate::sweep;
use serde::Serialize;
use thymesim_sim::Dur;
use thymesim_workloads::stream::StreamConfig;

/// A perturbable model constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Knob {
    /// The workload's outstanding line fetches (core MSHRs + prefetch).
    Mshr,
    /// The NIC's transaction credits.
    Window,
    LinkRate,
    EgressLatency,
    IngressLatency,
    LenderBusRate,
}

pub const ALL_KNOBS: [Knob; 6] = [
    Knob::Mshr,
    Knob::Window,
    Knob::LinkRate,
    Knob::EgressLatency,
    Knob::IngressLatency,
    Knob::LenderBusRate,
];

fn apply(
    base: &TestbedConfig,
    stream: &StreamConfig,
    knob: Knob,
    factor: f64,
) -> (TestbedConfig, StreamConfig) {
    let mut cfg = base.clone();
    let mut s = *stream;
    match knob {
        Knob::Mshr => {
            s.mlp = ((stream.mlp as f64 * factor).round() as usize).max(1);
        }
        Knob::Window => {
            cfg.fabric.window = ((base.fabric.window as f64 * factor).round() as usize).max(1);
        }
        Knob::LinkRate => {
            cfg.fabric.link.bits_per_sec = base.fabric.link.bits_per_sec * factor;
        }
        Knob::EgressLatency => {
            cfg.fabric.egress_latency =
                Dur::ps((base.fabric.egress_latency.as_ps() as f64 * factor) as u64);
        }
        Knob::IngressLatency => {
            cfg.fabric.ingress_latency =
                Dur::ps((base.fabric.ingress_latency.as_ps() as f64 * factor) as u64);
        }
        Knob::LenderBusRate => {
            cfg.lender.dram.bandwidth_bytes_per_sec =
                base.lender.dram.bandwidth_bytes_per_sec * factor;
        }
    }
    (cfg, s)
}

/// One row of the tornado table.
#[derive(Clone, Debug, Serialize)]
pub struct SensitivityRow {
    pub knob: Knob,
    /// Relative change of the Fig. 2 slope at factor 0.5 / 1.5.
    pub slope_lo: f64,
    pub slope_hi: f64,
    /// Relative change of the vanilla latency floor at factor 0.5 / 1.5.
    pub floor_lo: f64,
    pub floor_hi: f64,
}

/// The PERIODs each configuration's headline metrics are fitted over.
const TORNADO_PERIODS: [u64; 4] = [1, 50, 150, 300];

/// Perturb each knob ±50% and report headline shifts (relative to base).
///
/// The whole tornado — the base configuration, then each knob at 0.5
/// and 1.5, each over `TORNADO_PERIODS` — is one parallel, memoized
/// sweep, `sensitivity/tornado`, with the Fig. 2/3 point body.
pub fn tornado(base: &TestbedConfig, stream: &StreamConfig) -> Vec<SensitivityRow> {
    let configs: Vec<(TestbedConfig, StreamConfig)> = std::iter::once((base.clone(), *stream))
        .chain(
            ALL_KNOBS
                .iter()
                .flat_map(|&knob| [0.5, 1.5].map(|factor| apply(base, stream, knob, factor))),
        )
        .collect();
    let grid: Vec<StreamPoint> = configs
        .iter()
        .flat_map(|(cfg, s)| TORNADO_PERIODS.map(|period| StreamPoint::new(cfg, s, period)))
        .collect();
    let points = sweep::run("sensitivity/tornado", &grid, |_ctx, pt| {
        stream_delay_point(pt)
    });
    // (Fig. 2 slope, vanilla latency floor) per configuration, in grid order.
    let headlines: Vec<(f64, f64)> = points
        .chunks(TORNADO_PERIODS.len())
        .map(|run| {
            let v = validate_injection(run);
            (v.fit_slope_us_per_period, run[0].latency_us)
        })
        .collect();
    let (slope0, floor0) = headlines[0];
    let mut rows: Vec<SensitivityRow> = ALL_KNOBS
        .iter()
        .zip(headlines[1..].chunks(2))
        .map(|(&knob, lo_hi)| {
            let [(slope_lo, floor_lo), (slope_hi, floor_hi)] = [lo_hi[0], lo_hi[1]];
            SensitivityRow {
                knob,
                slope_lo: slope_lo / slope0 - 1.0,
                slope_hi: slope_hi / slope0 - 1.0,
                floor_lo: floor_lo / floor0 - 1.0,
                floor_hi: floor_hi / floor0 - 1.0,
            }
        })
        .collect();
    // Sort by total slope swing, biggest lever first.
    rows.sort_by(|a, b| {
        let sa = a.slope_lo.abs() + a.slope_hi.abs();
        let sb = b.slope_lo.abs() + b.slope_hi.abs();
        sb.total_cmp(&sa)
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mshr_count_dominates_the_slope() {
        let mut stream = StreamConfig::tiny();
        stream.elements = 16_384;
        let rows = tornado(&TestbedConfig::tiny(), &stream);
        assert_eq!(rows.len(), ALL_KNOBS.len());
        // The measured latency includes the NIC doorbell queue, so the
        // slope tracks the *workload's* outstanding fetches: halving the
        // MSHRs halves the slope. (The NIC window only decides *where*
        // the queueing happens once MSHRs exceed it.)
        assert_eq!(rows[0].knob, Knob::Mshr, "{rows:?}");
        assert!(
            (-0.6..=-0.4).contains(&rows[0].slope_lo),
            "halving the MSHRs should halve the slope: {rows:?}"
        );
        // Fixed pipeline latencies barely touch the slope (<10%).
        let egress = rows.iter().find(|r| r.knob == Knob::EgressLatency).unwrap();
        assert!(
            egress.slope_lo.abs() < 0.1 && egress.slope_hi.abs() < 0.1,
            "egress latency must not drive the slope: {egress:?}"
        );
        // Nor does the NIC window, once the workload can overrun it.
        let window = rows.iter().find(|r| r.knob == Knob::Window).unwrap();
        assert!(window.slope_lo.abs() < 0.1, "{window:?}");
    }

    #[test]
    fn latency_floor_follows_the_bottleneck() {
        let mut stream = StreamConfig::tiny();
        stream.elements = 16_384;
        let rows = tornado(&TestbedConfig::tiny(), &stream);
        let link = rows.iter().find(|r| r.knob == Knob::LinkRate).unwrap();
        let bus = rows.iter().find(|r| r.knob == Knob::LenderBusRate).unwrap();
        // The vanilla floor is link-drain dominated: halving the link
        // rate raises it substantially; the (much faster) lender bus is
        // irrelevant — the Fig. 7 asymmetry, seen from another angle.
        assert!(
            link.floor_lo > 0.3,
            "slower link should raise the floor: {link:?}"
        );
        assert!(
            bus.floor_lo.abs() < 0.05,
            "the lender bus must not matter: {bus:?}"
        );
    }
}
