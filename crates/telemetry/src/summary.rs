//! Compact per-sweep summaries: the `telemetry.json` side of the
//! exporter pair. Stage histograms and totals from every traced point
//! are merged (histogram merge is order-independent, see
//! `thymesim_sim::stats`), then keyed fields are emitted sorted by name
//! so the file is stable whatever order probes first fired in.

use crate::recorder::PointTrace;
use serde::Value;
use thymesim_sim::Histogram;

/// Merged telemetry for one sweep.
#[derive(Clone, Debug, Default)]
pub struct SweepSummary {
    pub sweep: String,
    /// Grid size of the sweep.
    pub points: usize,
    /// Points that actually recorded (cache hits record nothing).
    pub traced_points: usize,
    /// Timeline events kept / dropped across all points.
    pub events: u64,
    pub dropped: u64,
    /// Per-stage latency histograms, merged across points, name-sorted.
    pub stages: Vec<(String, Histogram)>,
    /// Monotonic totals, summed across points, name-sorted.
    pub counters: Vec<(String, u64)>,
}

impl SweepSummary {
    /// Merge the traced points of one sweep.
    pub fn merge(sweep: &str, points: usize, traces: &[PointTrace]) -> SweepSummary {
        let mut s = SweepSummary {
            sweep: sweep.to_string(),
            points,
            traced_points: traces.len(),
            ..SweepSummary::default()
        };
        for t in traces {
            s.events += t.events.len() as u64;
            s.dropped += t.dropped;
            for (name, h) in &t.stages {
                match s.stages.iter_mut().find(|(n, _)| n == name) {
                    Some((_, acc)) => acc.merge(h),
                    None => s.stages.push((name.to_string(), h.clone())),
                }
            }
            for (name, c) in &t.counters {
                match s.counters.iter_mut().find(|(n, _)| n == name) {
                    Some((_, acc)) => *acc += c,
                    None => s.counters.push((name.to_string(), *c)),
                }
            }
        }
        s.stages.sort_by(|a, b| a.0.cmp(&b.0));
        s.counters.sort_by(|a, b| a.0.cmp(&b.0));
        s
    }

    pub fn to_value(&self) -> Value {
        let stages = self
            .stages
            .iter()
            .map(|(name, h)| {
                Value::Object(vec![
                    ("stage".into(), Value::Str(name.clone())),
                    ("count".into(), Value::U64(h.count())),
                    ("mean_ps".into(), Value::F64(h.mean())),
                    ("min_ps".into(), Value::U64(h.min())),
                    ("p50_ps".into(), Value::U64(h.p50())),
                    ("p99_ps".into(), Value::U64(h.p99())),
                    ("max_ps".into(), Value::U64(h.max())),
                ])
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(name, c)| {
                Value::Object(vec![
                    ("name".into(), Value::Str(name.clone())),
                    ("total".into(), Value::U64(*c)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("sweep".into(), Value::Str(self.sweep.clone())),
            ("points".into(), Value::U64(self.points as u64)),
            (
                "traced_points".into(),
                Value::U64(self.traced_points as u64),
            ),
            ("events".into(), Value::U64(self.events)),
            ("dropped".into(), Value::U64(self.dropped)),
            ("stages".into(), Value::Array(stages)),
            ("counters".into(), Value::Array(counters)),
        ])
    }
}

/// Summary of a validated `telemetry.json`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SummaryCheck {
    pub sweeps: usize,
    /// Timeline events kept / dropped at the per-point cap, over all
    /// sweeps.
    pub events: u64,
    pub dropped: u64,
    /// `(sweep, dropped)` for every sweep that lost events to the cap:
    /// its `<sweep>.trace.json` timeline is a prefix of each point's
    /// run (histograms, counters and blame are never capped).
    pub capped: Vec<(String, u64)>,
}

/// Structurally validate a `telemetry.json`, collecting **every**
/// failure: schema version, a `sweeps` array, and per sweep a name, the
/// five integer totals, and name-sorted `stages` / `counters` whose
/// entries carry their fields (`min <= p50 <= p99 <= max` per stage).
pub fn check_summary(text: &str) -> Result<SummaryCheck, Vec<String>> {
    let root: Value =
        serde_json::from_str(text).map_err(|e| vec![format!("not valid JSON: {e}")])?;
    let mut errors: Vec<String> = Vec::new();
    if root.get("schema").and_then(Value::as_u64) != Some(1) {
        errors.push("missing or unknown schema version".into());
    }
    let Some(sweeps) = root.get("sweeps").and_then(Value::as_array) else {
        errors.push("missing sweeps array".into());
        return Err(errors);
    };
    let mut out = SummaryCheck {
        sweeps: sweeps.len(),
        ..SummaryCheck::default()
    };
    for sweep in sweeps {
        let name = sweep
            .get("sweep")
            .and_then(Value::as_str)
            .unwrap_or("<unnamed>");
        let mut total = |field: &str| {
            sweep.get(field).and_then(Value::as_u64).unwrap_or_else(|| {
                errors.push(format!("{name}: missing integer {field}"));
                0
            })
        };
        let (points, traced) = (total("points"), total("traced_points"));
        let (events, dropped) = (total("events"), total("dropped"));
        if traced > points {
            errors.push(format!("{name}: {traced} traced of {points} points"));
        }
        out.events += events;
        out.dropped += dropped;
        if dropped > 0 {
            out.capped.push((name.to_string(), dropped));
        }
        for (list, key, fields) in [
            (
                "stages",
                "stage",
                &["count", "min_ps", "p50_ps", "p99_ps", "max_ps"][..],
            ),
            ("counters", "name", &["total"][..]),
        ] {
            let Some(entries) = sweep.get(list).and_then(Value::as_array) else {
                errors.push(format!("{name}: missing {list} array"));
                continue;
            };
            let keys: Vec<&str> = entries
                .iter()
                .map(|e| e.get(key).and_then(Value::as_str).unwrap_or(""))
                .collect();
            if !keys.windows(2).all(|w| w[0] < w[1]) {
                errors.push(format!("{name}: {list} not name-sorted"));
            }
            for (entry, label) in entries.iter().zip(&keys) {
                let values: Vec<Option<u64>> = fields
                    .iter()
                    .map(|f| entry.get(f).and_then(Value::as_u64))
                    .collect();
                if label.is_empty() || values.contains(&None) {
                    errors.push(format!("{name}: {list} entry {label:?} is incomplete"));
                } else if !values[1..].windows(2).all(|w| w[0] <= w[1]) {
                    errors.push(format!("{name}: stage {label} quantiles out of order"));
                }
            }
        }
    }
    if errors.is_empty() {
        Ok(out)
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::TraceRecorder;
    use thymesim_sim::{Dur, Time};

    fn point(index: usize, base: u64) -> PointTrace {
        let mut r = TraceRecorder::new(index, 10);
        r.span("t", "s", Time::ns(base), Time::ns(base + 5));
        r.latency("wire", Dur::ns(base + 1));
        r.latency("gate", Dur::ns(2 * base + 1));
        r.add("reads", base);
        r.finish()
    }

    #[test]
    fn merge_sums_and_sorts() {
        let s = SweepSummary::merge("sw", 4, &[point(0, 10), point(1, 20)]);
        assert_eq!(s.points, 4);
        assert_eq!(s.traced_points, 2);
        assert_eq!(s.events, 2);
        // Name-sorted regardless of first-observation order.
        assert_eq!(s.stages[0].0, "gate");
        assert_eq!(s.stages[1].0, "wire");
        assert_eq!(s.stages[0].1.count(), 2);
        assert_eq!(s.counters, vec![("reads".to_string(), 30)]);
    }

    #[test]
    fn merge_is_order_independent() {
        let ab = SweepSummary::merge("sw", 2, &[point(0, 10), point(1, 20)]);
        let ba = SweepSummary::merge("sw", 2, &[point(1, 20), point(0, 10)]);
        assert_eq!(
            serde_json::to_string(&ab.to_value()).unwrap(),
            serde_json::to_string(&ba.to_value()).unwrap()
        );
    }

    #[test]
    fn checker_counts_capped_sweeps_and_rejects_broken_summaries() {
        let mut capped = TraceRecorder::new(0, 1);
        capped.instant("t", "a", Time::ns(1));
        capped.instant("t", "b", Time::ns(2));
        capped.instant("t", "c", Time::ns(3));
        capped.latency("gate", Dur::ns(3));
        let sweeps = vec![
            SweepSummary::merge("full", 2, &[point(0, 10), point(1, 20)]).to_value(),
            SweepSummary::merge("capped", 1, &[capped.finish()]).to_value(),
        ];
        let root = |sweeps: Vec<Value>| {
            serde_json::value_to_string_pretty(&Value::Object(vec![
                ("schema".into(), Value::U64(1)),
                ("sweeps".into(), Value::Array(sweeps)),
            ]))
        };
        let ok = check_summary(&root(sweeps.clone())).expect("valid summary");
        assert_eq!((ok.sweeps, ok.events, ok.dropped), (2, 3, 2));
        assert_eq!(ok.capped, vec![("capped".to_string(), 2)]);

        let text = root(sweeps).replace("\"dropped\": 2", "\"dropped\": \"two\"");
        let text = text.replacen("\"stage\": \"gate\"", "\"stage\": \"zz\"", 1);
        let errors = check_summary(&text).unwrap_err();
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(
            errors[0].contains("full: stages not name-sorted"),
            "{errors:?}"
        );
        assert!(
            errors[1].contains("capped: missing integer dropped"),
            "{errors:?}"
        );
        assert!(check_summary("{}").is_err());
    }
}
