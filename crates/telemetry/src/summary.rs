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
}
