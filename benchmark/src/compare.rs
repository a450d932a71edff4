//! `benchmark compare`: two result files of the same benchmark, side by
//! side — the two-sets-agree check, and the regression rule for later
//! changes.

use crate::metrics::{EndToEnd, END_TO_END, PER_LAYER};
use crate::stats::{quartile_spread, range};
use crate::{Metric, Results};
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound and the two sides'
    /// runs overlap: the data cannot tell.
    Unresolved,
}

/// By what share of the baseline's median the candidate is worse
/// (negative: better).
pub fn worsening(m: &EndToEnd, baseline: f64, candidate: f64) -> f64 {
    if m.higher_is_better {
        (baseline - candidate) / baseline
    } else {
        (candidate - baseline) / baseline
    }
}

pub fn verdict(m: &EndToEnd, baseline: &Metric, candidate: &Metric) -> Verdict {
    let spread = quartile_spread(&baseline.values).max(quartile_spread(&candidate.values));
    let ((a_lo, a_hi), (b_lo, b_hi)) = (range(&baseline.values), range(&candidate.values));
    let separated = a_hi < b_lo || b_hi < a_lo;
    if spread > m.bound && !separated {
        Verdict::Unresolved
    } else if worsening(m, baseline.value, candidate.value) > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Results, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn compare_files(baseline: &Path, candidate: &Path) -> Result<bool, String> {
    compare(&load(baseline)?, &load(candidate)?)
}

/// Print the comparison; `Ok(true)` when nothing regressed and the
/// simulated results agree.
pub fn compare(a: &Results, b: &Results) -> Result<bool, String> {
    if (a.seed, a.smoke) != (b.seed, b.smoke) {
        return Err("the two files were measured with different --seed or --smoke".into());
    }
    let mut agree = true;
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            return Err(format!("{}: missing from the candidate", wa.name));
        };
        if wa.sim_digest != wb.sim_digest {
            println!(
                "{} sim_digest {} vs {}: differs",
                wa.name, wa.sim_digest, wb.sim_digest
            );
            agree = false;
        }
        if wa.failed + wb.failed > 0 {
            println!("{} failed points {} vs {}", wa.name, wa.failed, wb.failed);
            agree = false;
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let find =
                |metrics: &[Metric]| metrics.iter().find(|x| x.name == m.name).map(|x| x.value);
            if let (Some(x), Some(y)) = (find(&wa.per_layer), find(&wb.per_layer)) {
                if x != y {
                    println!("{} {} {x} vs {y}: differs", wa.name, m.name);
                    agree = false;
                }
            }
        }
        for m in &END_TO_END {
            let find = |metrics: &[Metric]| metrics.iter().find(|x| x.name == m.name).cloned();
            let (Some(x), Some(y)) = (find(&wa.end_to_end), find(&wb.end_to_end)) else {
                continue;
            };
            let v = verdict(m, &x, &y);
            println!(
                "{} {} {} -> {} {} ({:+.2} % worse, bound {} %): {}",
                wa.name,
                m.name,
                x.value,
                y.value,
                m.unit,
                100.0 * worsening(m, x.value, y.value),
                100.0 * m.bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
            agree &= v != Verdict::Regressed;
        }
    }
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadResult;

    fn metric(name: &str, values: &[f64]) -> Metric {
        Metric {
            name: name.into(),
            unit: "s".into(),
            value: crate::stats::median(&mut values.to_vec()),
            values: values.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let wall = &END_TO_END[0];
        assert_eq!((wall.name, wall.bound), ("wall_s", 0.20));
        let wall_s = |values: &[f64]| metric("wall_s", values);
        let base = wall_s(&[10.0, 10.1, 9.9, 10.0]);
        // 10 % slower: within the bound.
        let v = verdict(wall, &base, &wall_s(&[11.0, 11.1, 10.9, 11.0]));
        assert_eq!(v, Verdict::Ok);
        // Tight runs, 30 % slower.
        let v = verdict(wall, &base, &wall_s(&[13.0, 13.1, 12.9, 13.0]));
        assert_eq!(v, Verdict::Regressed);
        // Noisy and overlapping: cannot tell.
        let v = verdict(wall, &base, &wall_s(&[8.0, 15.0, 10.0, 14.0]));
        assert_eq!(v, Verdict::Unresolved);
        // Noisy, but every candidate run is slower than every baseline run.
        let v = verdict(wall, &base, &wall_s(&[13.0, 19.0, 14.0, 17.0]));
        assert_eq!(v, Verdict::Regressed);
        // Higher-is-better metrics flip the direction.
        let rate = &END_TO_END[1];
        assert!(rate.higher_is_better);
        assert!(worsening(rate, 100.0, 90.0) > 0.0);
        assert!(worsening(wall, 100.0, 90.0) < 0.0);
    }

    fn results(wall: &[f64], digest: &str, remote_reads: f64) -> Results {
        Results {
            schema: 1,
            seed: 1,
            seconds: 10.0,
            smoke: false,
            nproc: 2,
            workloads: vec![WorkloadResult {
                name: "stream_delay".into(),
                sim_digest: digest.into(),
                attempted: 10,
                end_to_end: vec![metric("wall_s", wall)],
                per_layer: vec![metric("ref.remote_reads", &[remote_reads])],
                ..WorkloadResult::default()
            }],
        }
    }

    #[test]
    fn two_sets_agree_or_are_told_apart() {
        let base = results(&[2.0, 2.1, 2.05], "d", 1875000.0);
        assert_eq!(
            compare(&base, &results(&[2.1, 2.0, 2.2], "d", 1875000.0)),
            Ok(true)
        );
        // Slower past the bound.
        assert_eq!(
            compare(&base, &results(&[2.8, 2.9, 2.85], "d", 1875000.0)),
            Ok(false)
        );
        // Same speed, different simulated results.
        assert_eq!(
            compare(&base, &results(&[2.0, 2.1, 2.05], "e", 1875000.0)),
            Ok(false)
        );
        assert_eq!(
            compare(&base, &results(&[2.0, 2.1, 2.05], "d", 1875001.0)),
            Ok(false)
        );
        // Different inputs do not compare.
        let mut other_seed = base.clone();
        other_seed.seed = 2;
        assert!(compare(&base, &other_seed).is_err());
    }
}
