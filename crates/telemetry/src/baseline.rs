//! Per-stage regression baselines: record the merged stage means of a
//! pinned configuration, commit the file, and gate CI on drift.
//!
//! `repro --baseline-record` snapshots every sweep's merged stage means
//! (from the attribution fold) into a JSON baseline, along with
//! per-workload-phase bands inside each stage;
//! `repro --baseline-check` re-runs the same pinned configuration and
//! compares against the committed file with per-stage *and* per-phase
//! tolerance bands, exiting nonzero and naming the offending stage (and
//! phase, when the drift is phase-confined) on drift. Because
//! the simulator is deterministic, a clean tree reproduces the baseline
//! exactly — the tolerance band exists so that *intentional* model
//! changes smaller than the band don't force a re-record, while
//! anything larger fails loudly instead of silently shifting every
//! downstream figure.
//!
//! The baseline pins the command it was recorded from (e.g.
//! `validate --profile quick`); checking under a different command is
//! refused rather than compared apples-to-oranges.

use crate::attribution::SweepAttribution;
use crate::blame::SweepBlame;
use crate::counters::SweepUtilization;
use serde::{Deserialize, Serialize};

/// Bump when the baseline file format changes.
/// Schema 2 added the per-stage `p999_ps` tail band; schema 3 added
/// per-resource interference blame cross-share bands.
pub const BASELINE_SCHEMA: u64 = 3;

/// Default relative tolerance band on stage means and counts (±2%).
pub const DEFAULT_REL_TOL: f64 = 0.02;

/// One workload phase's pinned expectation within a stage.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BaselinePhase {
    /// Collapsed phase label (`copy`, `bfs_level_3`, `unphased`).
    pub phase: String,
    pub mean_ps: f64,
    pub count: u64,
    /// Relative tolerance band for this phase (fraction, not percent).
    pub rel_tol: f64,
}

/// One stage's pinned expectation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BaselineStage {
    pub stage: String,
    pub mean_ps: f64,
    pub count: u64,
    /// Pinned p999 of the stage (histogram bucket lower bound, ps). A
    /// fattened tail with an unmoved mean — exactly what the open-loop
    /// serving campaign measures — drifts here and nowhere else.
    pub p999_ps: u64,
    /// Relative tolerance band for this stage (fraction, not percent).
    pub rel_tol: f64,
    /// Per-phase bands, label-sorted: a drift confined to one workload
    /// phase (one BFS level, the KV warmup) is caught and named even
    /// when the stage-level mean washes it out.
    pub phases: Vec<BaselinePhase>,
}

/// One utilization counter's pinned expectation: the time-weighted mean
/// of the sweep-merged counter track (from the counter fold).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BaselineCounter {
    /// Counter-track name (`net.link_busy`, `credit.occupancy`, ...).
    pub name: String,
    /// Merged time-weighted mean.
    pub mean: f64,
    /// Relative tolerance band (fraction, not percent).
    pub rel_tol: f64,
}

/// One interference-blame resource's pinned expectation: the sweep-merged
/// cross-source share of its queueing wait (see [`crate::blame`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BaselineBlame {
    /// Blamed resource (`gate`, `credit`, `link`, `dram`, ...).
    pub resource: String,
    /// Merged `cross_ps / wait_ps` share, in [0, 1].
    pub cross_share: f64,
    /// Relative tolerance band (fraction, not percent).
    pub rel_tol: f64,
}

/// One sweep's pinned stage set.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BaselineSweep {
    pub sweep: String,
    pub stages: Vec<BaselineStage>,
    /// Pinned utilization-counter means, name-sorted. Drift in one of
    /// these is reported with the stage named `counter <name>`.
    pub counters: Vec<BaselineCounter>,
    /// Pinned blame cross-shares, resource-sorted. Drift in one of
    /// these is reported with the stage named `blame <resource>`.
    pub blames: Vec<BaselineBlame>,
}

/// A committed per-stage regression baseline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Baseline {
    pub schema: u64,
    /// The pinned `repro` invocation this baseline was recorded from.
    pub command: String,
    pub default_rel_tol: f64,
    pub sweeps: Vec<BaselineSweep>,
}

impl Baseline {
    /// Snapshot the merged stage means of every folded sweep, plus the
    /// merged time-weighted utilization mean of every counter track and
    /// the merged blame cross-share of every blamed resource.
    pub fn record(
        command: &str,
        atts: &[SweepAttribution],
        utils: &[SweepUtilization],
        blames: &[SweepBlame],
        rel_tol: f64,
    ) -> Baseline {
        let mut sweeps: Vec<BaselineSweep> = atts
            .iter()
            .map(|att| BaselineSweep {
                sweep: att.sweep.clone(),
                counters: {
                    // `blame.*` windowed tracks are banded through the
                    // dedicated blame bands below, not double-counted
                    // as utilization counters.
                    let mut counters: Vec<BaselineCounter> = utils
                        .iter()
                        .filter(|u| u.sweep == att.sweep)
                        .flat_map(|u| &u.merged)
                        .filter(|c| !c.name.starts_with("blame."))
                        .map(|c| BaselineCounter {
                            name: c.name.clone(),
                            mean: c.mean,
                            rel_tol,
                        })
                        .collect();
                    counters.sort_by(|a, b| a.name.cmp(&b.name));
                    counters
                },
                blames: {
                    let mut rows: Vec<BaselineBlame> = blames
                        .iter()
                        .filter(|b| b.sweep == att.sweep)
                        .flat_map(|b| &b.merged)
                        .map(|r| BaselineBlame {
                            resource: r.resource.clone(),
                            cross_share: r.cross_share(),
                            rel_tol,
                        })
                        .collect();
                    rows.sort_by(|a, b| a.resource.cmp(&b.resource));
                    rows
                },
                stages: {
                    let mut stages: Vec<BaselineStage> = att
                        .merged
                        .slices()
                        .map(|s| BaselineStage {
                            stage: s.stage.clone(),
                            mean_ps: s.mean_ps,
                            count: s.count,
                            p999_ps: s.p999_ps,
                            rel_tol,
                            phases: {
                                let mut phases: Vec<BaselinePhase> = s
                                    .phases
                                    .iter()
                                    .map(|p| BaselinePhase {
                                        phase: p.label(),
                                        mean_ps: p.mean_ps,
                                        count: p.count,
                                        rel_tol,
                                    })
                                    .collect();
                                phases.sort_by(|a, b| a.phase.cmp(&b.phase));
                                phases
                            },
                        })
                        .collect();
                    stages.sort_by(|a, b| a.stage.cmp(&b.stage));
                    stages
                },
            })
            .collect();
        sweeps.sort_by(|a, b| a.sweep.cmp(&b.sweep));
        Baseline {
            schema: BASELINE_SCHEMA,
            command: command.to_string(),
            default_rel_tol: rel_tol,
            sweeps,
        }
    }

    /// Compare folded sweeps against this baseline. Empty result means
    /// every pinned stage, phase, utilization counter, *and blame
    /// cross-share* is within its tolerance band and nothing appeared
    /// or disappeared. The run is snapshotted exactly as
    /// [`Baseline::record`] would pin it, then banded row by row.
    pub fn check(
        &self,
        atts: &[SweepAttribution],
        utils: &[SweepUtilization],
        blames: &[SweepBlame],
    ) -> Vec<Drift> {
        let run = Baseline::record("", atts, utils, blames, 0.0);
        let mut drifts = Vec::new();
        for base in &self.sweeps {
            let Some(run) = run.sweeps.iter().find(|s| s.sweep == base.sweep) else {
                drifts.push(Drift {
                    sweep: base.sweep.clone(),
                    stage: "*".into(),
                    phase: None,
                    kind: DriftKind::MissingSweep,
                });
                continue;
            };
            for ((label, base_rows), (_, run_rows)) in base.rows().iter().zip(run.rows()) {
                band_rows(&base.sweep, *label, base_rows, &run_rows, &mut drifts);
            }
        }
        drifts
    }

    /// Total pinned stages across all sweeps.
    pub fn stage_count(&self) -> usize {
        self.sweeps.iter().map(|s| s.stages.len()).sum()
    }

    /// Total pinned per-phase bands across all sweeps and stages.
    pub fn phase_count(&self) -> usize {
        self.sweeps
            .iter()
            .flat_map(|s| &s.stages)
            .map(|st| st.phases.len())
            .sum()
    }

    /// Total pinned utilization-counter bands across all sweeps.
    pub fn counter_count(&self) -> usize {
        self.sweeps.iter().map(|s| s.counters.len()).sum()
    }

    /// Total pinned blame cross-share bands across all sweeps.
    pub fn blame_count(&self) -> usize {
        self.sweeps.iter().map(|s| s.blames.len()).sum()
    }
}

/// One banded row — a stage, a phase within a stage, a utilization
/// counter, or a blamed resource — as the baseline pinned it or as the
/// checked run measured it.
struct Row<'a> {
    key: &'a str,
    /// The headline quantity: mean latency, counter mean, or cross share.
    value: f64,
    /// Observation count (stages and phases only).
    count: Option<u64>,
    /// Tail quantile (stages only).
    p999_ps: Option<u64>,
    rel_tol: f64,
    /// Per-phase rows nested in a stage row.
    phases: Vec<Row<'a>>,
}

impl Row<'_> {
    fn of(key: &str, value: f64, rel_tol: f64) -> Row<'_> {
        Row {
            key,
            value,
            count: None,
            p999_ps: None,
            rel_tol,
            phases: Vec::new(),
        }
    }
}

impl BaselineSweep {
    /// This sweep's bands as banding rows, one list per row family.
    fn rows(&self) -> [(Label<'static>, Vec<Row<'_>>); 3] {
        let stages = self.stages.iter().map(|s| Row {
            count: Some(s.count),
            p999_ps: Some(s.p999_ps),
            phases: s
                .phases
                .iter()
                .map(|p| Row {
                    count: Some(p.count),
                    ..Row::of(&p.phase, p.mean_ps, p.rel_tol)
                })
                .collect(),
            ..Row::of(&s.stage, s.mean_ps, s.rel_tol)
        });
        let counters = self
            .counters
            .iter()
            .map(|c| Row::of(&c.name, c.mean, c.rel_tol));
        let blames = self
            .blames
            .iter()
            .map(|b| Row::of(&b.resource, b.cross_share, b.rel_tol));
        [
            (Label::Stage, stages.collect()),
            (Label::Counter, counters.collect()),
            (Label::Blame, blames.collect()),
        ]
    }
}

/// How a row's key names its drift: plain stages, phases under their
/// stage, and the `counter <name>` / `blame <resource>` pseudo-stages.
#[derive(Clone, Copy)]
enum Label<'a> {
    Stage,
    Phase(&'a str),
    Counter,
    Blame,
}

/// The one banding routine every row family goes through: each pinned
/// row is missing, or has its value (and count and tail, where the
/// family carries them) within `rel_tol` of the run's, its nested phase
/// rows banded the same way; then every run row the baseline has never
/// seen is drift too — the model grew a probe; re-record to bless it.
fn band_rows(sweep: &str, label: Label, base: &[Row], run: &[Row], drifts: &mut Vec<Drift>) {
    let drift = |key: &str, kind: DriftKind| {
        let (stage, phase) = match label {
            Label::Stage => (key.to_string(), None),
            Label::Phase(stage) => (stage.to_string(), Some(key.to_string())),
            Label::Counter => (format!("counter {key}"), None),
            Label::Blame => (format!("blame {key}"), None),
        };
        Drift {
            sweep: sweep.to_string(),
            stage,
            phase,
            kind,
        }
    };
    for b in base {
        let Some(r) = run.iter().find(|r| r.key == b.key) else {
            let baseline_ps = b.value;
            drifts.push(drift(b.key, DriftKind::MissingStage { baseline_ps }));
            continue;
        };
        let rel_tol = b.rel_tol;
        let delta = rel_delta(r.value, b.value);
        if delta > rel_tol {
            let kind = match label {
                Label::Blame => DriftKind::BlameDrift {
                    baseline_share: b.value,
                    actual_share: r.value,
                    rel_delta: delta,
                    rel_tol,
                },
                _ => DriftKind::MeanDrift {
                    baseline_ps: b.value,
                    actual_ps: r.value,
                    rel_delta: delta,
                    rel_tol,
                },
            };
            drifts.push(drift(b.key, kind));
        }
        if let (Some(baseline), Some(actual)) = (b.count, r.count) {
            let delta = rel_delta(actual as f64, baseline as f64);
            if delta > rel_tol {
                let kind = DriftKind::CountDrift {
                    baseline,
                    actual,
                    rel_delta: delta,
                    rel_tol,
                };
                drifts.push(drift(b.key, kind));
            }
        }
        // Tail band: a p999 moving while the mean holds is the
        // tail-column regression the serving campaign gates on.
        if let (Some(baseline_ps), Some(actual_ps)) = (b.p999_ps, r.p999_ps) {
            let delta = rel_delta(actual_ps as f64, baseline_ps as f64);
            if delta > rel_tol {
                let kind = DriftKind::TailDrift {
                    baseline_ps,
                    actual_ps,
                    rel_delta: delta,
                    rel_tol,
                };
                drifts.push(drift(b.key, kind));
            }
        }
        band_rows(sweep, Label::Phase(b.key), &b.phases, &r.phases, drifts);
    }
    for r in run {
        if !base.iter().any(|b| b.key == r.key) {
            drifts.push(drift(r.key, DriftKind::NewStage { actual_ps: r.value }));
        }
    }
}

/// Relative deviation of `actual` from `baseline`, with a 1 ps floor on
/// the denominator so all-zero stages compare cleanly.
fn rel_delta(actual: f64, baseline: f64) -> f64 {
    (actual - baseline).abs() / baseline.abs().max(1.0)
}

/// One detected regression.
#[derive(Clone, Debug, PartialEq)]
pub struct Drift {
    pub sweep: String,
    pub stage: String,
    /// `Some(label)` when the drift is confined to one workload phase
    /// of the stage; `None` for stage-level drift.
    pub phase: Option<String>,
    pub kind: DriftKind,
}

#[derive(Clone, Debug, PartialEq)]
pub enum DriftKind {
    /// The checked run never executed the pinned sweep.
    MissingSweep,
    /// The pinned stage recorded nothing.
    MissingStage { baseline_ps: f64 },
    /// A stage recorded that the baseline has never seen.
    NewStage { actual_ps: f64 },
    MeanDrift {
        baseline_ps: f64,
        actual_ps: f64,
        rel_delta: f64,
        rel_tol: f64,
    },
    CountDrift {
        baseline: u64,
        actual: u64,
        rel_delta: f64,
        rel_tol: f64,
    },
    /// The stage's p999 left its band while (typically) the mean held:
    /// the tail fattened or thinned.
    TailDrift {
        baseline_ps: u64,
        actual_ps: u64,
        rel_delta: f64,
        rel_tol: f64,
    },
    /// A resource's interference cross-share left its band: who queues
    /// behind whom changed, even if aggregate latencies held.
    BlameDrift {
        baseline_share: f64,
        actual_share: f64,
        rel_delta: f64,
        rel_tol: f64,
    },
}

impl std::fmt::Display for Drift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} / {}", self.sweep, self.stage)?;
        if let Some(phase) = &self.phase {
            write!(f, " [phase {phase}]")?;
        }
        write!(f, ": ")?;
        match &self.kind {
            DriftKind::MissingSweep => write!(f, "sweep missing from the checked run"),
            DriftKind::MissingStage { baseline_ps } => write!(
                f,
                "stage recorded nothing (baseline mean {baseline_ps:.1} ps)"
            ),
            DriftKind::NewStage { actual_ps } => write!(
                f,
                "new stage not in the baseline (mean {actual_ps:.1} ps) — re-record to bless"
            ),
            DriftKind::MeanDrift {
                baseline_ps,
                actual_ps,
                rel_delta,
                rel_tol,
            } => write!(
                f,
                "mean {actual_ps:.1} ps vs baseline {baseline_ps:.1} ps \
                 ({:+.2}%, tolerance ±{:.2}%)",
                rel_delta * 100.0 * (actual_ps - baseline_ps).signum(),
                rel_tol * 100.0
            ),
            DriftKind::CountDrift {
                baseline,
                actual,
                rel_delta,
                rel_tol,
            } => write!(
                f,
                "count {actual} vs baseline {baseline} ({:+.2}%, tolerance ±{:.2}%)",
                rel_delta * 100.0 * if actual >= baseline { 1.0 } else { -1.0 },
                rel_tol * 100.0
            ),
            DriftKind::TailDrift {
                baseline_ps,
                actual_ps,
                rel_delta,
                rel_tol,
            } => write!(
                f,
                "p999 {actual_ps} ps vs baseline {baseline_ps} ps \
                 ({:+.2}%, tolerance ±{:.2}%)",
                rel_delta * 100.0 * if actual_ps >= baseline_ps { 1.0 } else { -1.0 },
                rel_tol * 100.0
            ),
            DriftKind::BlameDrift {
                baseline_share,
                actual_share,
                rel_delta,
                rel_tol,
            } => write!(
                f,
                "cross-blame share {actual_share:.4} vs baseline {baseline_share:.4} \
                 ({:+.2}%, tolerance ±{:.2}%)",
                rel_delta * 100.0 * (actual_share - baseline_share).signum(),
                rel_tol * 100.0
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::READ_ANATOMY;
    use crate::recorder::{PointTrace, TraceRecorder};
    use thymesim_sim::Dur;

    fn point(index: usize, base: u64) -> PointTrace {
        let mut r = TraceRecorder::new(index, 10);
        for (i, (name, _)) in READ_ANATOMY.iter().enumerate() {
            r.latency(name, Dur::ns(base * (i as u64 + 1)));
        }
        r.finish()
    }

    fn folded(base: u64) -> Vec<SweepAttribution> {
        vec![SweepAttribution::fold(
            "sw",
            2,
            &[point(0, base), point(1, base + 1)],
            &[],
        )]
    }

    #[test]
    fn identical_run_is_within_tolerance() {
        let atts = folded(10);
        let b = Baseline::record("validate --profile quick", &atts, &[], &[], DEFAULT_REL_TOL);
        assert_eq!(b.schema, BASELINE_SCHEMA);
        assert_eq!(b.stage_count(), 6);
        // Recording without markers still pins one band per stage: the
        // implicit `unphased` phase.
        assert_eq!(b.phase_count(), 6);
        assert!(b.check(&atts, &[], &[]).is_empty());
    }

    fn phased_point(index: usize, copy_ns: u64, scale_ns: u64) -> PointTrace {
        let mut r = TraceRecorder::new(index, 10);
        r.phase_begin("copy", None);
        r.latency("fabric.gate_wait", Dur::ns(copy_ns));
        r.phase_begin("scale", None);
        r.latency("fabric.gate_wait", Dur::ns(scale_ns));
        r.finish()
    }

    #[test]
    fn phase_confined_drift_is_named() {
        let base = vec![SweepAttribution::fold(
            "sw",
            1,
            &[phased_point(0, 100, 100)],
            &[],
        )];
        let b = Baseline::record("cmd", &base, &[], &[], DEFAULT_REL_TOL);
        assert_eq!(b.phase_count(), 2);
        assert!(b.check(&base, &[], &[]).is_empty());
        // Shift time from copy into scale: the stage-level mean is
        // unchanged, so only the per-phase bands can catch it.
        let atts = vec![SweepAttribution::fold(
            "sw",
            1,
            &[phased_point(0, 50, 150)],
            &[],
        )];
        let drifts = b.check(&atts, &[], &[]);
        assert!(!drifts.is_empty(), "stage mean alone would pass");
        // The stage-level mean/count bands stay silent (only the p999
        // band may fire at stage level — the tail genuinely fattened);
        // the shift itself is caught and named per phase.
        assert!(drifts
            .iter()
            .filter(|d| d.phase.is_none())
            .all(|d| matches!(d.kind, DriftKind::TailDrift { .. })));
        let phased = drifts
            .iter()
            .find(|d| d.phase.is_some())
            .expect("per-phase");
        let msg = phased.to_string();
        assert!(
            msg.contains("[phase copy]") || msg.contains("[phase scale]"),
            "phase must be named: {msg}"
        );
    }

    #[test]
    fn round_trips_through_json() {
        let b = Baseline::record(
            "validate --profile quick",
            &folded(10),
            &[],
            &[],
            DEFAULT_REL_TOL,
        );
        let text = serde_json::to_string_pretty(&b).unwrap();
        let back: Baseline = serde_json::from_str(&text).unwrap();
        assert_eq!(b, back);
    }

    #[test]
    fn drifted_mean_is_named() {
        let b = Baseline::record("cmd", &folded(10), &[], &[], DEFAULT_REL_TOL);
        // 50% larger stage latencies everywhere.
        let drifts = b.check(&folded(15), &[], &[]);
        assert!(!drifts.is_empty());
        assert!(drifts.iter().any(|d| d.stage == "fabric.gate_wait"));
        let msg = drifts[0].to_string();
        assert!(msg.contains("tolerance"), "humane message: {msg}");
        // Counts were unchanged, so the drifts are mean drifts plus the
        // tails that moved with them — never count drifts.
        assert!(drifts.iter().all(|d| matches!(
            d.kind,
            DriftKind::MeanDrift { .. } | DriftKind::TailDrift { .. }
        )));
    }

    #[test]
    fn missing_and_new_stages_are_drift() {
        let atts = folded(10);
        let mut b = Baseline::record("cmd", &atts, &[], &[], DEFAULT_REL_TOL);
        b.sweeps[0].stages.push(BaselineStage {
            stage: "ghost.stage".into(),
            mean_ps: 5.0,
            count: 1,
            p999_ps: 5,
            rel_tol: DEFAULT_REL_TOL,
            phases: Vec::new(),
        });
        let drifts = b.check(&atts, &[], &[]);
        assert!(drifts
            .iter()
            .any(|d| d.stage == "ghost.stage" && matches!(d.kind, DriftKind::MissingStage { .. })));

        let b = Baseline::record("cmd", &atts, &[], &[], DEFAULT_REL_TOL);
        let mut grown = atts.clone();
        // Simulate a new probe appearing.
        let mut r = TraceRecorder::new(0, 10);
        r.latency("brand.new", Dur::ns(3));
        grown[0] = SweepAttribution::fold("sw", 2, &[point(0, 10), point(1, 11), r.finish()], &[]);
        let drifts = b.check(&grown, &[], &[]);
        assert!(drifts
            .iter()
            .any(|d| d.stage == "brand.new" && matches!(d.kind, DriftKind::NewStage { .. })));
    }

    #[test]
    fn tail_drift_is_caught_when_the_mean_holds() {
        // Two observations of 10 ns: mean 10 ns, p999 = max = 10 ns.
        let mk = |a_ns: u64, b_ns: u64| {
            let mut r = TraceRecorder::new(0, 10);
            r.latency("fabric.gate_wait", Dur::ns(a_ns));
            r.latency("fabric.gate_wait", Dur::ns(b_ns));
            vec![SweepAttribution::fold("sw", 1, &[r.finish()], &[])]
        };
        let b = Baseline::record("cmd", &mk(10, 10), &[], &[], DEFAULT_REL_TOL);
        assert!(b.check(&mk(10, 10), &[], &[]).is_empty());
        // 5 + 15 ns: same mean and count, but the tail fattened 50%.
        let drifts = b.check(&mk(5, 15), &[], &[]);
        assert!(
            drifts
                .iter()
                .any(|d| matches!(d.kind, DriftKind::TailDrift { .. })),
            "only the p999 band can catch this: {drifts:?}"
        );
        assert!(
            !drifts
                .iter()
                .any(|d| matches!(d.kind, DriftKind::MeanDrift { .. }) && d.phase.is_none()),
            "the stage mean genuinely held: {drifts:?}"
        );
        let msg = drifts
            .iter()
            .find(|d| matches!(d.kind, DriftKind::TailDrift { .. }))
            .unwrap()
            .to_string();
        assert!(msg.contains("p999"), "humane message: {msg}");
    }

    #[test]
    fn missing_sweep_is_drift() {
        let b = Baseline::record("cmd", &folded(10), &[], &[], DEFAULT_REL_TOL);
        let drifts = b.check(&[], &[], &[]);
        assert_eq!(drifts.len(), 1);
        assert!(matches!(drifts[0].kind, DriftKind::MissingSweep));
    }

    #[test]
    fn zero_mean_stages_compare_cleanly() {
        assert_eq!(rel_delta(0.0, 0.0), 0.0);
        assert!(rel_delta(0.5, 0.0) <= 0.5, "1 ps floor keeps this finite");
    }

    fn folded_utils(busy_ps: u64) -> Vec<SweepUtilization> {
        use thymesim_sim::Time;
        let mut r = TraceRecorder::with_window(0, 10, 1_000);
        r.counter_busy("net.link_busy", Time::ZERO, Time::ps(busy_ps));
        let mut r1 = TraceRecorder::with_window(1, 10, 1_000);
        r1.counter_busy("net.link_busy", Time::ZERO, Time::ps(busy_ps));
        vec![SweepUtilization::fold(
            "sw",
            2,
            &[r.finish(), r1.finish()],
            1_000,
            0.9,
        )]
    }

    #[test]
    fn counter_drift_is_named() {
        let atts = folded(10);
        let utils = folded_utils(700);
        let b = Baseline::record("cmd", &atts, &utils, &[], DEFAULT_REL_TOL);
        assert_eq!(b.counter_count(), 1);
        assert!(b.check(&atts, &utils, &[]).is_empty());
        // Same stages, drifted counter mean: only the counter band can
        // catch it, and the drift names the counter.
        let drifts = b.check(&atts, &folded_utils(300), &[]);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].stage, "counter net.link_busy");
        assert!(matches!(drifts[0].kind, DriftKind::MeanDrift { .. }));
        // A counter the baseline never saw is drift too.
        let mut stripped = b.clone();
        stripped.sweeps[0].counters.clear();
        let drifts = stripped.check(&atts, &utils, &[]);
        assert!(drifts
            .iter()
            .any(|d| d.stage == "counter net.link_busy"
                && matches!(d.kind, DriftKind::NewStage { .. })));
        // ...and a pinned counter that recorded nothing is missing.
        let drifts = b.check(&atts, &[], &[]);
        assert!(drifts.iter().any(|d| d.stage == "counter net.link_busy"
            && matches!(d.kind, DriftKind::MissingStage { .. })));
    }

    #[test]
    fn counter_bands_round_trip_through_json() {
        let b = Baseline::record("cmd", &folded(10), &folded_utils(500), &[], DEFAULT_REL_TOL);
        let text = serde_json::to_string_pretty(&b).unwrap();
        let back: Baseline = serde_json::from_str(&text).unwrap();
        assert_eq!(b, back);
        assert_eq!(back.counter_count(), 1);
    }

    /// One point where `inst_0` holds the gate over `[0, held_ps)` and
    /// `inst_1` waits `[0, wait_ps)` behind it — the covered part of
    /// the wait is cross-blame, the rest self.
    fn folded_blames(held_ps: u64, wait_ps: u64) -> (Vec<SweepBlame>, Vec<SweepUtilization>) {
        use thymesim_sim::Time;
        let mut r = TraceRecorder::with_window(0, 10, 1_000);
        r.source_begin("inst", 0);
        r.blame_occupy("gate", Time::ZERO, Time::ps(held_ps));
        r.source_begin("inst", 1);
        r.blame_wait("gate", Time::ZERO, Time::ps(wait_ps));
        let traces = vec![r.finish()];
        (
            vec![SweepBlame::fold("sw", 1, &traces)],
            vec![SweepUtilization::fold("sw", 1, &traces, 1_000, 0.9)],
        )
    }

    #[test]
    fn blame_drift_is_named() {
        let atts = folded(10);
        let (blames, _) = folded_blames(50, 100); // cross-share 0.5
        let b = Baseline::record("cmd", &atts, &[], &blames, DEFAULT_REL_TOL);
        assert_eq!(b.blame_count(), 1);
        assert!(b.check(&atts, &[], &blames).is_empty());
        // Shifted interference mix: same resource, different cross-share.
        let (shifted, _) = folded_blames(90, 100); // cross-share 0.9
        let drifts = b.check(&atts, &[], &shifted);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].stage, "blame gate");
        assert!(matches!(drifts[0].kind, DriftKind::BlameDrift { .. }));
        let msg = drifts[0].to_string();
        assert!(msg.contains("cross-blame share"), "humane message: {msg}");
        // A blamed resource the baseline never saw is drift too.
        let mut stripped = b.clone();
        stripped.sweeps[0].blames.clear();
        let drifts = stripped.check(&atts, &[], &blames);
        assert!(drifts
            .iter()
            .any(|d| d.stage == "blame gate" && matches!(d.kind, DriftKind::NewStage { .. })));
        // ...and a pinned resource that recorded nothing is missing.
        let drifts = b.check(&atts, &[], &[]);
        assert!(drifts
            .iter()
            .any(|d| d.stage == "blame gate" && matches!(d.kind, DriftKind::MissingStage { .. })));
    }

    #[test]
    fn blame_tracks_are_not_double_banded_as_counters() {
        let atts = folded(10);
        let (blames, utils) = folded_blames(50, 100);
        // The blame_wait deposit put a `blame.gate` windowed track into
        // the utilization fold; the baseline must band it only through
        // the blame bands.
        assert!(utils[0].merged_counter("blame.gate").is_some());
        let b = Baseline::record("cmd", &atts, &utils, &blames, DEFAULT_REL_TOL);
        assert!(b.sweeps[0]
            .counters
            .iter()
            .all(|c| !c.name.starts_with("blame.")));
        assert_eq!(b.blame_count(), 1);
        assert!(b.check(&atts, &utils, &blames).is_empty());
    }

    #[test]
    fn blame_bands_round_trip_through_json() {
        let (blames, _) = folded_blames(50, 100);
        let b = Baseline::record("cmd", &folded(10), &[], &blames, DEFAULT_REL_TOL);
        let text = serde_json::to_string_pretty(&b).unwrap();
        let back: Baseline = serde_json::from_str(&text).unwrap();
        assert_eq!(b, back);
        assert_eq!(back.blame_count(), 1);
    }
}
