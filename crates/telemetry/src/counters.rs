//! Windowed counter tracks: virtual-time utilization and saturation.
//!
//! Latency histograms (PR 3/4) answer *where* time went; this module
//! answers *when* the system was busy and how deep queues got — the
//! contention axis. Instrumentation sites emit three sample shapes
//! through the thread-local recorder:
//!
//! * **busy** — a component occupied over `[start, end)` ps (link
//!   serialization, DRAM bus transfer, delay-gate grant slot);
//! * **level** — an integer gauge held over `[start, end)` ps (credit
//!   occupancy, queue depth, outstanding reads). Overlapping unit
//!   segments sum, so "one segment per waiting request" folds into the
//!   instantaneous queue depth by construction;
//! * **ratio** — a numerator/denominator event pair at an instant
//!   (LLC misses over accesses).
//!
//! [`CounterRecorder`] clips every sample onto **fixed virtual-time
//! windows** of `window_ps` and accumulates integer sums per covered
//! window: busy/level windows hold `Σ value·overlap_ps` (u128), ratio
//! windows hold `(Σ num, Σ den)`. Window values derive exactly from
//! those integers — `busy/level: num / window_ps`, `ratio: num / den` —
//! so the fold is order-independent: any arrival order of the same
//! samples produces byte-identical tracks, and any `--jobs` produces a
//! byte-identical `utilization.json`.
//!
//! [`SweepUtilization::fold`] turns per-point tracks into the report:
//! per counter, the time-weighted mean over the point's horizon (the
//! last covered window's end; uncovered time counts as idle/zero), the
//! peak window value, and saturation metrics — total virtual time in
//! windows whose value exceeds the given threshold, and the
//! longest run of consecutive saturated windows. All time quantities
//! are exact picosecond integers.

use serde::Value;

/// Default window width: 10 µs of virtual time.
pub const DEFAULT_WINDOW_PS: u64 = 10_000_000;

/// Default per-point cap on buffered timeline events (histograms,
/// counters and blame are never capped; overflow is counted as
/// `dropped`).
pub const DEFAULT_MAX_EVENTS_PER_POINT: usize = 20_000;

/// Default saturation threshold: a window counts as saturated when its
/// value exceeds this fraction (busy/ratio tracks) or this fraction of
/// the declared bound (bounded level tracks).
pub const DEFAULT_SATURATION_THRESHOLD: f64 = 0.9;

/// What a track's per-window integer accumulators mean.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CounterKind {
    /// Windows hold occupied picoseconds; value = `num / window_ps`,
    /// always in [0, 1] when busy intervals never overlap.
    Busy,
    /// Windows hold `Σ level·overlap_ps`; value = `num / window_ps`,
    /// the time-weighted mean level over the window.
    Level,
    /// Windows hold event sums; value = `num / den`.
    Ratio,
}

impl CounterKind {
    pub fn label(self) -> &'static str {
        match self {
            CounterKind::Busy => "busy",
            CounterKind::Level => "level",
            CounterKind::Ratio => "ratio",
        }
    }

    pub fn from_label(s: &str) -> Option<CounterKind> {
        match s {
            "busy" => Some(CounterKind::Busy),
            "level" => Some(CounterKind::Level),
            "ratio" => Some(CounterKind::Ratio),
            _ => None,
        }
    }

    /// Are this kind's window values fractions that must sit in [0, 1]?
    pub fn is_fraction(self) -> bool {
        matches!(self, CounterKind::Busy | CounterKind::Ratio)
    }
}

/// One counter's windowed accumulators for one sweep point.
#[derive(Clone, Debug, PartialEq)]
pub struct CounterTrack {
    pub name: &'static str,
    pub kind: CounterKind,
    /// Declared capacity for level tracks (credit window size, ...);
    /// window values must never exceed it, and saturation is measured
    /// against `bound · threshold`.
    pub bound: Option<u64>,
    /// Sparse, sorted by window index: `(index, num, den)`. `num` is
    /// occupied/weighted picoseconds (busy/level) or the numerator event
    /// sum (ratio); `den` is the denominator event sum (ratio only).
    pub windows: Vec<(u64, u128, u128)>,
}

impl CounterTrack {
    /// The value of the window at position `i`, given the window width.
    pub fn window_value(&self, i: usize, window_ps: u64) -> f64 {
        let (_, num, den) = self.windows[i];
        match self.kind {
            CounterKind::Busy | CounterKind::Level => num as f64 / window_ps as f64,
            CounterKind::Ratio => crate::frac(num, den),
        }
    }

    /// The threshold a window value is compared against for saturation:
    /// the given fraction, scaled by the bound for bounded levels.
    /// Unbounded level tracks never saturate (their values are open-ended).
    fn saturation_cut(&self, threshold: f64) -> Option<f64> {
        match (self.kind, self.bound) {
            (CounterKind::Level, Some(b)) => Some(threshold * b as f64),
            (CounterKind::Level, None) => None,
            _ => Some(threshold),
        }
    }
}

/// Accumulates windowed counter samples for one sweep point. Owned by
/// the thread-local `TraceRecorder`; never capped (like the stage
/// histograms), so the utilization fold survives the timeline event cap.
#[derive(Clone, Debug)]
pub struct CounterRecorder {
    window_ps: u64,
    tracks: Vec<CounterTrack>,
}

impl CounterRecorder {
    pub fn new(window_ps: u64) -> CounterRecorder {
        assert!(window_ps > 0, "counter window must be positive");
        CounterRecorder {
            window_ps,
            tracks: Vec::new(),
        }
    }

    pub fn window_ps(&self) -> u64 {
        self.window_ps
    }

    fn track(&mut self, name: &'static str, kind: CounterKind) -> &mut CounterTrack {
        // Track sets are tiny (single digits); linear scan, like stages.
        match self.tracks.iter().position(|t| t.name == name) {
            Some(i) => {
                debug_assert_eq!(self.tracks[i].kind, kind, "counter {name} changed kind");
                &mut self.tracks[i]
            }
            None => {
                self.tracks.push(CounterTrack {
                    name,
                    kind,
                    bound: None,
                    windows: Vec::new(),
                });
                self.tracks.last_mut().expect("just pushed")
            }
        }
    }

    fn deposit(track: &mut CounterTrack, idx: u64, num: u128, den: u128) {
        // Samples arrive almost always in time order; binary search makes
        // shuffled arrival (tests) land identically.
        match track.windows.binary_search_by_key(&idx, |w| w.0) {
            Ok(i) => {
                track.windows[i].1 += num;
                track.windows[i].2 += den;
            }
            Err(i) => track.windows.insert(i, (idx, num, den)),
        }
    }

    /// Spread `weight · overlap_ps` over every window the interval
    /// `[start, end)` touches. A degenerate interval still registers the
    /// track (so e.g. an always-idle link appears with zero busy).
    fn spread(&mut self, name: &'static str, kind: CounterKind, start: u64, end: u64, weight: u64) {
        let w = self.window_ps;
        let track = self.track(name, kind);
        if end <= start {
            return;
        }
        let mut idx = start / w;
        let last = (end - 1) / w;
        while idx <= last {
            let lo = idx as u128 * w as u128;
            let hi = lo + w as u128;
            let overlap = (end as u128).min(hi) - (start as u128).max(lo);
            Self::deposit(track, idx, overlap * weight as u128, 0);
            idx += 1;
        }
    }

    /// The component was occupied over `[start, end)` ps. Callers must
    /// emit non-overlapping intervals per counter (serialized resources
    /// do so naturally), keeping window fractions within [0, 1].
    pub fn busy(&mut self, name: &'static str, start_ps: u64, end_ps: u64) {
        self.spread(name, CounterKind::Busy, start_ps, end_ps, 1);
    }

    /// An integer gauge held `level` over `[start, end)` ps. Overlapping
    /// segments add: emitting one unit segment per waiting request folds
    /// into the instantaneous queue depth.
    pub fn level(&mut self, name: &'static str, start_ps: u64, end_ps: u64, level: u64) {
        self.spread(name, CounterKind::Level, start_ps, end_ps, level);
    }

    /// A numerator/denominator event pair at instant `at_ps` (e.g. one
    /// cache access that did or did not miss).
    pub fn ratio(&mut self, name: &'static str, at_ps: u64, num: u64, den: u64) {
        let w = self.window_ps;
        let track = self.track(name, CounterKind::Ratio);
        Self::deposit(track, at_ps / w, num as u128, den as u128);
    }

    /// `count` identical [`CounterRecorder::ratio`] pairs at instants
    /// `start_ps + i·step_ps`, deposited once per window touched: each
    /// window receives the pair times the number of instants it holds,
    /// so the integers are exactly those of the `count` single calls
    /// (none, not even the track, when `count` is zero).
    pub fn ratio_run(
        &mut self,
        name: &'static str,
        start_ps: u64,
        step_ps: u64,
        count: u64,
        num: u64,
        den: u64,
    ) {
        if count == 0 {
            return;
        }
        let (w, num, den) = (self.window_ps, num as u128, den as u128);
        let track = self.track(name, CounterKind::Ratio);
        let mut i = 0;
        while i < count {
            let at = start_ps + i * step_ps;
            // Instants left in this window: `at + k·step < window end`.
            let n = match step_ps {
                0 => count - i,
                s => ((w - 1 - at % w) / s + 1).min(count - i),
            };
            Self::deposit(track, at / w, num * n as u128, den * n as u128);
            i += n;
        }
    }

    /// Declare a level track's capacity (idempotent).
    pub fn bound(&mut self, name: &'static str, bound: u64) {
        self.track(name, CounterKind::Level).bound = Some(bound);
    }

    /// Consume the recorder into its tracks, name-sorted (canonical
    /// order, independent of first-observation order).
    pub fn finish(mut self) -> Vec<CounterTrack> {
        self.tracks.sort_by(|a, b| a.name.cmp(b.name));
        self.tracks
    }
}

// ----------------------------------------------------------------- fold

/// One counter's utilization report — for one point, or merged over a
/// sweep. Integer fields are exact; floats derive from them.
#[derive(Clone, Debug, PartialEq)]
pub struct CounterReport {
    pub name: String,
    pub kind: CounterKind,
    pub bound: Option<u64>,
    /// Covered (sampled) windows.
    pub windows: u64,
    /// `windows · window_ps`.
    pub covered_ps: u64,
    /// Virtual time the mean is weighted over: the point's horizon
    /// (merged: the sum of contributing points' horizons).
    pub horizon_ps: u64,
    /// Exact numerator: occupied/weighted ps (busy/level) or events (ratio).
    pub num: u128,
    /// Exact denominator: `horizon_ps` (busy/level) or events (ratio).
    pub den: u128,
    /// Time-weighted mean value: `num / den` (0 when nothing recorded).
    pub mean: f64,
    /// Maximum window value.
    pub peak: f64,
    /// Virtual time in saturated windows (value above the threshold).
    pub saturated_ps: u64,
    /// `saturated_ps / horizon_ps` (0 when the horizon is empty).
    pub saturated_frac: f64,
    /// Longest run of consecutive saturated windows, in ps.
    pub longest_saturated_ps: u64,
}

impl CounterReport {
    fn of(t: &CounterTrack, horizon_ps: u64, window_ps: u64, threshold: f64) -> CounterReport {
        let mut num = 0u128;
        let mut ratio_den = 0u128;
        let mut peak = 0.0f64;
        let mut saturated_ps = 0u64;
        let mut longest = 0u64;
        let mut run = 0u64;
        let mut prev_saturated: Option<u64> = None;
        let cut = t.saturation_cut(threshold);
        for (i, &(idx, n, d)) in t.windows.iter().enumerate() {
            num += n;
            ratio_den += d;
            let v = t.window_value(i, window_ps);
            if v > peak {
                peak = v;
            }
            if cut.is_some_and(|c| v > c) {
                saturated_ps += window_ps;
                run = match prev_saturated {
                    Some(p) if idx == p + 1 => run + window_ps,
                    _ => window_ps,
                };
                if run > longest {
                    longest = run;
                }
                prev_saturated = Some(idx);
            } else {
                prev_saturated = None;
            }
        }
        let den = match t.kind {
            CounterKind::Ratio => ratio_den,
            _ => horizon_ps as u128,
        };
        CounterReport {
            name: t.name.to_string(),
            kind: t.kind,
            bound: t.bound,
            windows: t.windows.len() as u64,
            covered_ps: t.windows.len() as u64 * window_ps,
            horizon_ps,
            num,
            den,
            mean: crate::frac(num, den),
            peak,
            saturated_ps,
            saturated_frac: crate::frac(saturated_ps.into(), horizon_ps.into()),
            longest_saturated_ps: longest,
        }
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("kind".into(), Value::Str(self.kind.label().into())),
            ("bound".into(), self.bound.map_or(Value::Null, Value::U64)),
            ("windows".into(), Value::U64(self.windows)),
            ("covered_ps".into(), Value::U64(self.covered_ps)),
            ("horizon_ps".into(), Value::U64(self.horizon_ps)),
            ("num".into(), Value::U64(crate::clamp(self.num))),
            ("den".into(), Value::U64(crate::clamp(self.den))),
            ("mean".into(), Value::F64(self.mean)),
            ("peak".into(), Value::F64(self.peak)),
            ("saturated_ps".into(), Value::U64(self.saturated_ps)),
            ("saturated_frac".into(), Value::F64(self.saturated_frac)),
            (
                "longest_saturated_ps".into(),
                Value::U64(self.longest_saturated_ps),
            ),
        ])
    }
}

/// One point's utilization: every counter it sampled, name-sorted.
#[derive(Clone, Debug, PartialEq)]
pub struct PointUtilization {
    pub index: usize,
    /// End of the last covered window across all of the point's tracks —
    /// the virtual time means are weighted over (idle tail included).
    pub horizon_ps: u64,
    pub counters: Vec<CounterReport>,
}

impl PointUtilization {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("index".into(), Value::U64(self.index as u64)),
            ("horizon_ps".into(), Value::U64(self.horizon_ps)),
            (
                "counters".into(),
                Value::Array(self.counters.iter().map(CounterReport::to_value).collect()),
            ),
        ])
    }
}

/// One sweep's utilization report: per-point and sweep-merged counter
/// reports, byte-identical at any `--jobs` (points sort by grid index,
/// counters by name, and every accumulator is a commutative integer sum).
#[derive(Clone, Debug, PartialEq)]
pub struct SweepUtilization {
    pub sweep: String,
    pub window_ps: u64,
    pub threshold: f64,
    /// Grid size (cached points record nothing, so `per_point` may be
    /// shorter).
    pub points: usize,
    pub per_point: Vec<PointUtilization>,
    /// Per-counter reports merged over all traced points: sums of the
    /// integer accumulators, max of peak / longest.
    pub merged: Vec<CounterReport>,
}

impl SweepUtilization {
    pub fn fold(
        sweep: &str,
        points: usize,
        traces: &[crate::recorder::PointTrace],
        window_ps: u64,
        threshold: f64,
    ) -> SweepUtilization {
        let mut per_point: Vec<PointUtilization> = traces
            .iter()
            .map(|t| {
                let horizon = t
                    .tracks
                    .iter()
                    .filter_map(|tr| tr.windows.last().map(|w| w.0 + 1))
                    .max()
                    .unwrap_or(0)
                    * window_ps;
                let mut counters: Vec<CounterReport> = t
                    .tracks
                    .iter()
                    .map(|tr| CounterReport::of(tr, horizon, window_ps, threshold))
                    .collect();
                counters.sort_by(|a, b| a.name.cmp(&b.name));
                PointUtilization {
                    index: t.index,
                    horizon_ps: horizon,
                    counters,
                }
            })
            .collect();
        per_point.sort_by_key(|p| p.index);

        let mut merged: Vec<CounterReport> = Vec::new();
        for p in &per_point {
            for r in &p.counters {
                match merged.iter_mut().find(|m| m.name == r.name) {
                    Some(m) => {
                        m.windows += r.windows;
                        m.covered_ps += r.covered_ps;
                        m.horizon_ps += p.horizon_ps;
                        m.num += r.num;
                        m.den += match r.kind {
                            CounterKind::Ratio => r.den,
                            _ => p.horizon_ps as u128,
                        };
                        m.peak = m.peak.max(r.peak);
                        m.saturated_ps += r.saturated_ps;
                        m.longest_saturated_ps = m.longest_saturated_ps.max(r.longest_saturated_ps);
                        // Points may run different capacities (the window
                        // ablation sweeps the credit cap); the merged bound
                        // is the largest, so merged values stay within it.
                        m.bound = match (m.bound, r.bound) {
                            (Some(a), Some(b)) => Some(a.max(b)),
                            (a, b) => a.or(b),
                        };
                    }
                    None => {
                        let mut m = r.clone();
                        m.horizon_ps = p.horizon_ps;
                        m.den = match r.kind {
                            CounterKind::Ratio => r.den,
                            _ => p.horizon_ps as u128,
                        };
                        merged.push(m);
                    }
                }
            }
        }
        for m in &mut merged {
            m.mean = crate::frac(m.num, m.den);
            m.saturated_frac = crate::frac(m.saturated_ps.into(), m.horizon_ps.into());
        }
        merged.sort_by(|a, b| a.name.cmp(&b.name));

        SweepUtilization {
            sweep: sweep.to_string(),
            window_ps,
            threshold,
            points,
            per_point,
            merged,
        }
    }

    pub fn to_value(&self) -> Value {
        crate::sweep_value(
            &self.sweep,
            vec![
                ("window_ps".into(), Value::U64(self.window_ps)),
                ("threshold".into(), Value::F64(self.threshold)),
            ],
            self.points,
            self.per_point
                .iter()
                .map(PointUtilization::to_value)
                .collect(),
            Value::Array(self.merged.iter().map(CounterReport::to_value).collect()),
        )
    }
}

// ----------------------------------------------------------- validator

/// Summary of a validated `utilization.json`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UtilizationCheck {
    pub sweeps: usize,
    pub points: usize,
    pub counters: usize,
}

/// Structurally validate a `utilization.json`, collecting **every**
/// failure instead of stopping at the first: the shared sweep envelope
/// (see `walk_sweeps`), window width, known kinds, fraction values in
/// [0, 1], bounded level values within their bound, saturation
/// accounting consistent with the horizon, and means consistent with
/// their exact accumulators.
pub fn check_utilization(text: &str) -> Result<UtilizationCheck, Vec<String>> {
    let mut counters = 0;
    let (sweeps, points) = crate::walk_sweeps(text, |name, sweep, per_point, merged, errors| {
        if sweep.get("window_ps").and_then(Value::as_u64).unwrap_or(0) == 0 {
            errors.push(format!("{name}: missing or zero window_ps"));
        }
        match sweep.get("threshold").and_then(Value::as_f64) {
            Some(t) if (0.0..=1.0).contains(&t) => {}
            _ => errors.push(format!("{name}: threshold missing or outside [0, 1]")),
        }
        for p in per_point {
            let horizon = p.get("horizon_ps").and_then(Value::as_u64).unwrap_or(0);
            let idx = p.get("index").and_then(Value::as_u64).unwrap_or(0);
            let ctx = format!("{name}/point {idx}");
            counters += check_counters(&ctx, p.get("counters"), Some(horizon), errors);
        }
        counters += check_counters(name, Some(merged), None, errors);
    })?;
    Ok(UtilizationCheck {
        sweeps,
        points,
        counters,
    })
}

/// Validate one counters array; returns how many entries it held.
fn check_counters(
    ctx: &str,
    counters: Option<&Value>,
    point_horizon: Option<u64>,
    errors: &mut Vec<String>,
) -> usize {
    let Some(list) = counters.and_then(Value::as_array) else {
        errors.push(format!("{ctx}: missing counters array"));
        return 0;
    };
    let mut prev_name = String::new();
    for c in list {
        let cname = c.get("name").and_then(Value::as_str).unwrap_or("<unnamed>");
        let ctx = format!("{ctx}/{cname}");
        if cname < prev_name.as_str() {
            errors.push(format!("{ctx}: counters not name-sorted"));
        }
        prev_name = cname.to_string();
        let kind = c
            .get("kind")
            .and_then(Value::as_str)
            .and_then(CounterKind::from_label);
        if kind.is_none() {
            errors.push(format!("{ctx}: missing or unknown kind"));
        }
        let bound = c.get("bound").and_then(Value::as_u64);
        let mean = c.get("mean").and_then(Value::as_f64).unwrap_or(-1.0);
        let peak = c.get("peak").and_then(Value::as_f64).unwrap_or(-1.0);
        if mean < 0.0 || peak < 0.0 {
            errors.push(format!("{ctx}: missing or negative mean/peak"));
        }
        if kind.is_some_and(CounterKind::is_fraction) {
            for (field, v) in [("mean", mean), ("peak", peak)] {
                if v > 1.0 {
                    errors.push(format!("{ctx}: {field} {v} outside [0, 1]"));
                }
            }
        }
        if let (Some(CounterKind::Level), Some(b)) = (kind, bound) {
            if peak > b as f64 {
                errors.push(format!("{ctx}: peak {peak} exceeds bound {b}"));
            }
            if mean > b as f64 {
                errors.push(format!("{ctx}: mean {mean} exceeds bound {b}"));
            }
        }
        let horizon = c.get("horizon_ps").and_then(Value::as_u64).unwrap_or(0);
        if let Some(ph) = point_horizon {
            if horizon != ph {
                errors.push(format!(
                    "{ctx}: horizon_ps {horizon} differs from the point's {ph}"
                ));
            }
        }
        let covered = c.get("covered_ps").and_then(Value::as_u64).unwrap_or(0);
        let saturated = c.get("saturated_ps").and_then(Value::as_u64).unwrap_or(0);
        let longest = c
            .get("longest_saturated_ps")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        if covered > horizon {
            errors.push(format!(
                "{ctx}: covered_ps {covered} exceeds horizon_ps {horizon}"
            ));
        }
        if saturated > covered {
            errors.push(format!(
                "{ctx}: saturated_ps {saturated} exceeds covered_ps {covered}"
            ));
        }
        if longest > saturated {
            errors.push(format!(
                "{ctx}: longest_saturated_ps {longest} exceeds saturated_ps {saturated}"
            ));
        }
        if let Some(frac) = c.get("saturated_frac").and_then(Value::as_f64) {
            let expect = crate::frac(saturated.into(), horizon.into());
            if (frac - expect).abs() > 1e-9 * (1.0 + expect) {
                errors.push(format!(
                    "{ctx}: saturated_frac {frac} inconsistent with saturated/horizon {expect}"
                ));
            }
        } else {
            errors.push(format!("{ctx}: missing saturated_frac"));
        }
        let num = c.get("num").and_then(Value::as_u64);
        let den = c.get("den").and_then(Value::as_u64);
        match (num, den) {
            (Some(n), Some(d)) => {
                let expect = crate::frac(n.into(), d.into());
                if (mean - expect).abs() > 1e-9 * (1.0 + expect) {
                    errors.push(format!(
                        "{ctx}: mean {mean} inconsistent with num/den {expect}"
                    ));
                }
            }
            _ => errors.push(format!("{ctx}: missing num/den accumulators")),
        }
    }
    list.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::PointTrace;

    const W: u64 = 1_000; // 1 ns windows for readable tests

    fn trace(index: usize, tracks: Vec<CounterTrack>) -> PointTrace {
        PointTrace {
            index,
            tracks,
            ..PointTrace::default()
        }
    }

    #[test]
    fn busy_intervals_clip_onto_windows() {
        let mut r = CounterRecorder::new(W);
        r.busy("link", 500, 2_500); // touches windows 0, 1, 2
        r.busy("link", 2_500, 2_600);
        let tracks = r.finish();
        assert_eq!(tracks.len(), 1);
        let t = &tracks[0];
        assert_eq!(t.kind, CounterKind::Busy);
        assert_eq!(t.windows, vec![(0, 500, 0), (1, 1_000, 0), (2, 600, 0)]);
        assert_eq!(t.window_value(0, W), 0.5);
        assert_eq!(t.window_value(1, W), 1.0);
    }

    #[test]
    fn overlapping_level_segments_sum_to_queue_depth() {
        let mut r = CounterRecorder::new(W);
        // Two requests waiting simultaneously over window 0.
        r.level("q", 0, 1_000, 1);
        r.level("q", 500, 1_500, 1);
        let tracks = r.finish();
        assert_eq!(tracks[0].windows, vec![(0, 1_500, 0), (1, 500, 0)]);
        assert_eq!(tracks[0].window_value(0, W), 1.5);
    }

    #[test]
    fn ratio_windows_accumulate_events() {
        let mut r = CounterRecorder::new(W);
        r.ratio("miss", 100, 1, 1);
        r.ratio("miss", 200, 0, 1);
        r.ratio("miss", 1_100, 1, 1);
        let tracks = r.finish();
        assert_eq!(tracks[0].windows, vec![(0, 1, 2), (1, 1, 1)]);
        assert_eq!(tracks[0].window_value(0, W), 0.5);
        assert_eq!(tracks[0].window_value(1, W), 1.0);
    }

    proptest::proptest! {
        /// `ratio_run` is `count` calls of `ratio`, whatever the window
        /// width, wherever the run's first and last instants fall
        /// against window boundaries, and whichever single deposits on
        /// the same track it lands among (in any interleaving).
        #[test]
        fn prop_ratio_run_matches_repeated_ratio(
            w in 1u64..5_000,
            align in 0u8..4,
            offset in 0u64..60_000,
            step in 0u64..7_000,
            count in 0u64..40,
            num in 0u64..3,
            singles in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..12),
        ) {
            let span = count.saturating_sub(1) * step;
            let start = match align {
                0 => offset / w * w,                         // starts on a boundary
                1 => offset / w * w + w - 1,                 // starts just before one
                2 => (offset + span).div_ceil(w) * w - span, // ends on one
                _ => offset,
            };
            // Each word is a single deposit and its place in the shuffle:
            // before or after the run in the bulk recorder, spliced
            // between the run's instants in the per-call one.
            let single = |r: &mut CounterRecorder, word: u64| {
                r.ratio("miss", word % 300_000, word >> 20 & 1, 1 + (word >> 21 & 1));
            };
            let (mut bulk, mut per) = (CounterRecorder::new(w), CounterRecorder::new(w));
            let (before, after): (Vec<u64>, Vec<u64>) = singles.iter().partition(|&&x| x >> 32 & 1 == 0);
            before.iter().for_each(|&word| single(&mut bulk, word));
            bulk.ratio_run("miss", start, step, count, num, 2);
            after.iter().for_each(|&word| single(&mut bulk, word));
            let mut rest = singles.iter().rev();
            for i in 0..count {
                per.ratio("miss", start + i * step, num, 2);
                rest.next().into_iter().for_each(|&word| single(&mut per, word));
            }
            rest.for_each(|&word| single(&mut per, word));
            // `count == 0` with no singles leaves both trackless.
            proptest::prop_assert_eq!(bulk.finish(), per.finish());
        }
    }

    #[test]
    fn zero_length_sample_registers_an_idle_track() {
        let mut r = CounterRecorder::new(W);
        r.busy("link", 700, 700);
        let tracks = r.finish();
        assert_eq!(tracks.len(), 1);
        assert!(tracks[0].windows.is_empty());
    }

    #[test]
    fn recorder_output_is_arrival_order_independent() {
        let samples: Vec<(u64, u64)> = vec![(0, 300), (2_900, 3_100), (500, 1_700), (2_000, 2_200)];
        let mut fwd = CounterRecorder::new(W);
        let mut rev = CounterRecorder::new(W);
        for &(s, e) in &samples {
            fwd.busy("link", s, e);
            fwd.level("q", s, e, 2);
        }
        for &(s, e) in samples.iter().rev() {
            rev.level("q", s, e, 2);
            rev.busy("link", s, e);
        }
        assert_eq!(fwd.finish(), rev.finish());
    }

    #[test]
    fn fold_reports_mean_peak_and_saturation() {
        let mut r = CounterRecorder::new(W);
        // Windows 0,1 fully busy; window 2 idle; window 3 fully busy;
        // window 4 at 50%.
        r.busy("link", 0, 2_000);
        r.busy("link", 3_000, 4_000);
        r.busy("link", 4_000, 4_500);
        let u = SweepUtilization::fold("sw", 1, &[trace(0, r.finish())], W, 0.9);
        assert_eq!(u.per_point.len(), 1);
        let p = &u.per_point[0];
        assert_eq!(p.horizon_ps, 5_000);
        let link = &p.counters[0];
        assert_eq!(link.num, 3_500);
        assert_eq!(link.den, 5_000);
        assert_eq!(link.mean, 0.7);
        assert_eq!(link.peak, 1.0);
        // Three saturated windows, but the idle window 2 breaks the run.
        assert_eq!(link.saturated_ps, 3_000);
        assert_eq!(link.longest_saturated_ps, 2_000);
        assert_eq!(link.saturated_frac, 0.6);
        // The merged entry of a single point equals that point.
        assert_eq!(u.merged, p.counters);
    }

    #[test]
    fn bounded_level_saturates_against_its_bound() {
        let mut r = CounterRecorder::new(W);
        r.bound("credits", 4);
        r.level("credits", 0, 1_000, 4); // at capacity: 4 > 0.9·4
        r.level("credits", 1_000, 2_000, 2); // half: not saturated
        let u = SweepUtilization::fold("sw", 1, &[trace(0, r.finish())], W, 0.9);
        let c = &u.per_point[0].counters[0];
        assert_eq!(c.bound, Some(4));
        assert_eq!(c.mean, 3.0);
        assert_eq!(c.peak, 4.0);
        assert_eq!(c.saturated_ps, 1_000);
    }

    #[test]
    fn unbounded_level_never_saturates() {
        let mut r = CounterRecorder::new(W);
        r.level("q", 0, 1_000, 50);
        let u = SweepUtilization::fold("sw", 1, &[trace(0, r.finish())], W, 0.9);
        let c = &u.per_point[0].counters[0];
        assert_eq!(c.peak, 50.0);
        assert_eq!(c.saturated_ps, 0);
    }

    fn two_point_tracks() -> (Vec<CounterTrack>, Vec<CounterTrack>) {
        let mut a = CounterRecorder::new(W);
        a.busy("link", 0, 1_000);
        a.ratio("miss", 100, 1, 2);
        let mut b = CounterRecorder::new(W);
        b.busy("link", 0, 500);
        b.busy("dram", 0, 250);
        b.ratio("miss", 100, 1, 4);
        (a.finish(), b.finish())
    }

    #[test]
    fn fold_is_point_order_independent() {
        let (ta, tb) = two_point_tracks();
        let fwd = SweepUtilization::fold(
            "sw",
            2,
            &[trace(0, ta.clone()), trace(1, tb.clone())],
            W,
            0.9,
        );
        let rev = SweepUtilization::fold("sw", 2, &[trace(1, tb), trace(0, ta)], W, 0.9);
        assert_eq!(fwd, rev);
        assert_eq!(
            serde_json::to_string(&fwd.to_value()).unwrap(),
            serde_json::to_string(&rev.to_value()).unwrap()
        );
    }

    #[test]
    fn merged_weights_points_by_horizon() {
        let (ta, tb) = two_point_tracks();
        let u = SweepUtilization::fold("sw", 2, &[trace(0, ta), trace(1, tb)], W, 0.9);
        let link = u
            .merged
            .iter()
            .find(|c| c.name == "link")
            .expect("link merged");
        // Point 0: 1000/1000 busy; point 1: 500/1000. Merged: 1500/2000.
        assert_eq!(link.num, 1_500);
        assert_eq!(link.den, 2_000);
        assert_eq!(link.mean, 0.75);
        let miss = u
            .merged
            .iter()
            .find(|c| c.name == "miss")
            .expect("miss merged");
        assert_eq!(miss.mean, 2.0 / 6.0);
        // dram only appears in point 1, so only its horizon contributes.
        let dram = u
            .merged
            .iter()
            .find(|c| c.name == "dram")
            .expect("dram merged");
        assert_eq!(dram.horizon_ps, 1_000);
        assert_eq!(dram.mean, 0.25);
    }

    #[test]
    fn merged_bound_is_the_largest_capacity() {
        // The window ablation runs a different credit cap per point; the
        // merged report must carry the largest so its peak stays within.
        let mut a = CounterRecorder::new(W);
        a.bound("credits", 4);
        a.level("credits", 0, 1_000, 4);
        let mut b = CounterRecorder::new(W);
        b.bound("credits", 16);
        b.level("credits", 0, 1_000, 16);
        let u = SweepUtilization::fold(
            "sw",
            2,
            &[trace(0, a.finish()), trace(1, b.finish())],
            W,
            0.9,
        );
        let c = u
            .merged
            .iter()
            .find(|c| c.name == "credits")
            .expect("credits merged");
        assert_eq!(c.bound, Some(16));
        assert_eq!(c.peak, 16.0);
        assert!(c.peak <= c.bound.unwrap() as f64);
    }

    #[test]
    fn no_samples_fold_to_all_zero() {
        let mut r = CounterRecorder::new(W);
        r.busy("link", 42, 42); // registers, records nothing
        let u = SweepUtilization::fold("sw", 1, &[trace(0, r.finish())], W, 0.9);
        let c = &u.per_point[0].counters[0];
        assert_eq!(u.per_point[0].horizon_ps, 0);
        assert_eq!((c.mean, c.peak), (0.0, 0.0));
        assert_eq!(c.saturated_ps, 0);
        assert_eq!(c.saturated_frac, 0.0);
    }

    #[test]
    fn utilization_json_round_trips_the_checker() {
        let (ta, tb) = two_point_tracks();
        let u = SweepUtilization::fold("sw", 2, &[trace(0, ta), trace(1, tb)], W, 0.9);
        let root = Value::Object(vec![
            ("schema".into(), Value::U64(1)),
            ("sweeps".into(), Value::Array(vec![u.to_value()])),
        ]);
        let text = serde_json::to_string_pretty(&root).unwrap();
        let stats = check_utilization(&text).expect("valid utilization.json");
        assert_eq!(stats.sweeps, 1);
        assert_eq!(stats.points, 2);
        assert!(stats.counters > 0);
    }

    #[test]
    fn checker_collects_every_failure() {
        let text = r#"{
            "schema": 1,
            "sweeps": [{
                "sweep": "sw", "window_ps": 1000, "threshold": 0.9,
                "points": 1,
                "per_point": [{
                    "index": 0, "horizon_ps": 2000,
                    "counters": [{
                        "name": "link", "kind": "busy", "bound": null,
                        "windows": 2, "covered_ps": 3000, "horizon_ps": 2000,
                        "num": 1500, "den": 2000,
                        "mean": 1.5, "peak": 2.0,
                        "saturated_ps": 4000, "saturated_frac": 2.0,
                        "longest_saturated_ps": 5000
                    }]
                }],
                "merged": []
            }]
        }"#;
        let errors = check_utilization(text).unwrap_err();
        // mean > 1, peak > 1, covered > horizon, saturated > covered,
        // longest > saturated, mean ≠ num/den: every one reported.
        assert!(errors.len() >= 5, "got {errors:?}");
        assert!(errors.iter().any(|e| e.contains("mean 1.5 outside")));
        assert!(errors.iter().any(|e| e.contains("covered_ps")));
        assert!(errors.iter().any(|e| e.contains("longest_saturated_ps")));
    }

    #[test]
    fn checker_rejects_bound_violations() {
        let text = r#"{
            "schema": 1,
            "sweeps": [{
                "sweep": "sw", "window_ps": 1000, "threshold": 0.9,
                "points": 1,
                "per_point": [],
                "merged": [{
                    "name": "credits", "kind": "level", "bound": 4,
                    "windows": 1, "covered_ps": 1000, "horizon_ps": 1000,
                    "num": 5000, "den": 1000,
                    "mean": 5.0, "peak": 5.0,
                    "saturated_ps": 1000, "saturated_frac": 1.0,
                    "longest_saturated_ps": 1000
                }]
            }]
        }"#;
        let errors = check_utilization(text).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("peak 5 exceeds bound 4")));
        assert!(errors.iter().any(|e| e.contains("mean 5 exceeds bound 4")));
    }
}
