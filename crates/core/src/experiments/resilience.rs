//! E3 — resilience assessment under heavy delay (Fig. 4, §IV-C).
//!
//! PERIOD grows exponentially; the system either completes STREAM
//! (reporting its per-access latency), fails to attach (FPGA discovery
//! timeout — the paper's PERIOD = 10000 outcome), or machine-checks.

use crate::config::TestbedConfig;
use crate::runners::{run_stream, Placement};
use crate::sweep;
use crate::testbed::Testbed;
use serde::{Deserialize, Serialize};
use thymesim_fabric::{AttachError, Crash};
use thymesim_workloads::stream::StreamConfig;

/// The paper's Fig. 4 sweep.
pub const FIG4_PERIODS: [u64; 5] = [1, 10, 100, 1000, 10_000];

/// What happened at one PERIOD.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ResilienceOutcome {
    /// System survived; STREAM ran to completion.
    Completed {
        latency_us: f64,
        bandwidth_gib_s: f64,
    },
    /// The compute-side FPGA was not detected in time; disaggregated
    /// memory could not be attached.
    AttachTimeout { elapsed_ms: f64, budget_ms: f64 },
    /// A blocking load exceeded the processor's timeout.
    MachineCheck { latency_ms: f64 },
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResiliencePoint {
    pub period: u64,
    pub outcome: ResilienceOutcome,
}

impl ResiliencePoint {
    pub fn survived(&self) -> bool {
        matches!(self.outcome, ResilienceOutcome::Completed { .. })
    }
}

/// Run the Fig. 4 stress sweep.
pub fn resilience_sweep(
    base: &TestbedConfig,
    stream: &StreamConfig,
    periods: &[u64],
) -> Vec<ResiliencePoint> {
    #[derive(Clone, Debug, Serialize)]
    struct Point {
        period: u64,
        cfg: TestbedConfig,
        stream: StreamConfig,
    }
    let grid: Vec<Point> = periods
        .iter()
        .map(|&period| Point {
            period,
            cfg: base.clone().with_period(period),
            stream: *stream,
        })
        .collect();
    sweep::run("resilience/period-stress", &grid, |_ctx, pt| {
        let outcome = match Testbed::build(&pt.cfg) {
            Err(AttachError::DiscoveryTimeout { elapsed, budget }) => {
                ResilienceOutcome::AttachTimeout {
                    elapsed_ms: elapsed.as_us_f64() / 1e3,
                    budget_ms: budget.as_us_f64() / 1e3,
                }
            }
            Err(other) => panic!("unexpected attach error: {other:?}"),
            Ok(mut tb) => {
                let report = run_stream(&mut tb, &pt.stream, Placement::Remote);
                match tb.crash() {
                    Some(Crash::MachineCheck { latency, .. }) => ResilienceOutcome::MachineCheck {
                        latency_ms: latency.as_us_f64() / 1e3,
                    },
                    Some(Crash::AttachTimeout { .. }) | None => ResilienceOutcome::Completed {
                        latency_us: report.miss_latency_mean.as_us_f64(),
                        bandwidth_gib_s: report.best_bandwidth_gib_s(),
                    },
                }
            }
        };
        ResiliencePoint {
            period: pt.period,
            outcome,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survives_up_to_1000_fails_at_10000() {
        let mut scfg = StreamConfig::tiny();
        scfg.elements = 8192;
        let points = resilience_sweep(&TestbedConfig::tiny(), &scfg, &FIG4_PERIODS);
        assert_eq!(points.len(), 5);
        for p in &points[..4] {
            assert!(
                p.survived(),
                "PERIOD={} should survive: {:?}",
                p.period,
                p.outcome
            );
        }
        match &points[4].outcome {
            ResilienceOutcome::AttachTimeout {
                elapsed_ms,
                budget_ms,
            } => {
                assert!(elapsed_ms > budget_ms);
            }
            other => panic!("PERIOD=10000 should fail to attach, got {other:?}"),
        }
    }

    #[test]
    fn latency_at_period_1000_is_hundreds_of_us() {
        let mut scfg = StreamConfig::tiny();
        scfg.elements = 8192;
        let points = resilience_sweep(&TestbedConfig::tiny(), &scfg, &[1000]);
        match points[0].outcome {
            ResilienceOutcome::Completed { latency_us, .. } => {
                // Paper: "close to 400 us"; our calibration (window 128 ×
                // 4 ns × gate share ~1.35) gives ~690 us — same decade,
                // same mechanism.
                assert!(
                    (450.0..950.0).contains(&latency_us),
                    "PERIOD=1000 latency {latency_us} us"
                );
            }
            ref other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn latency_grows_monotonically_across_the_sweep() {
        let mut scfg = StreamConfig::tiny();
        scfg.elements = 8192;
        let points = resilience_sweep(&TestbedConfig::tiny(), &scfg, &[1, 10, 100, 1000]);
        let lats: Vec<f64> = points
            .iter()
            .map(|p| match p.outcome {
                ResilienceOutcome::Completed { latency_us, .. } => latency_us,
                ref o => panic!("{o:?}"),
            })
            .collect();
        for w in lats.windows(2) {
            assert!(w[1] >= w[0], "latency must not shrink: {lats:?}");
        }
    }
}
