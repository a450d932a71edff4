//! Where-did-the-time-go attribution: fold the per-stage latency
//! histograms of a traced sweep into (a) a collapsed-stack report that
//! `flamegraph.pl` / `inferno` render directly and (b) a machine-readable
//! breakdown (`attribution.json`) of per-stage totals, means, and shares
//! for every grid point plus a sweep-merged entry.
//!
//! ## Phases
//!
//! Workloads mark their phases (STREAM kernels, BFS levels, SSSP
//! buckets, KV warmup/steady, PageRank zero/push) via
//! `telemetry::phase_begin`, and the recorder buckets every latency
//! observation under the phase current at record time. The fold keeps
//! that split: each [`StageSlice`] carries per-phase [`PhaseSlice`]s
//! whose counts and totals sum *integer-exactly* to the stage's, the
//! collapsed output inserts a phase frame
//! (`root;point_N;<phase>;read;gate_wait`), and each point lists its
//! phase index with per-phase attributed read totals. Observations
//! outside any marker (attach, init, drain) fold into the `unphased`
//! phase, so a trace with no markers degenerates to single `unphased`
//! towers carrying exactly the old per-stage numbers.
//!
//! ## The read anatomy
//!
//! The paper's central figure decomposes one remote access into pipeline
//! stages: credit wait → NIC egress → delay-gate wait → wire (+ lender
//! NIC) → lender memory bus → return path. Those stages *partition* the
//! access span, so their per-point `share`s sum to 1 (see
//! [`READ_ANATOMY`]) and a PERIOD sweep shows the gate-wait share
//! growing against fixed wire / lender-bus shares — the "injected delay
//! dominates, everything else stays put" claim, now a queryable
//! artifact. Stages outside the anatomy (local DRAM misses, link
//! queueing, ...) are reported alongside without a share.
//!
//! ## Determinism
//!
//! Folding is order-independent: per-point entries sort by grid index,
//! stage lists are fixed-order (anatomy pipeline order, then name-sorted
//! others), and the merged entry is a histogram merge (itself
//! order-independent). The artifacts are therefore byte-identical
//! whatever order points were simulated in — `--jobs` is invisible,
//! and the golden fixtures under `tests/golden/` stay stable.

use crate::clamp;
use crate::recorder::{Phase, PointTrace};
use serde::Value;
use thymesim_sim::Histogram;

/// The remote-read anatomy stages in pipeline order:
/// `(histogram stage name, collapsed-stack leaf frame)`. Together they
/// partition one remote read end-to-end.
pub const READ_ANATOMY: [(&str, &str); 6] = [
    ("credit.wait", "credit_wait"),
    ("fabric.egress", "egress"),
    ("fabric.gate_wait", "gate_wait"),
    ("fabric.wire_out", "wire"),
    ("fabric.lender_bus", "lender_bus"),
    ("fabric.return", "return"),
];

/// The envelope stage measuring the whole read end-to-end (LLC miss to
/// line fill), recorded by `crates/mem`. Reported as `envelope_ps` so a
/// reader can judge anatomy coverage, but excluded from the
/// collapsed-stack output — its time is already covered by the anatomy
/// leaves under the `read` frame.
pub const READ_ENVELOPE: &str = "mem.remote_miss";

/// Stages excluded from the collapsed-stack output because their time is
/// already represented by anatomy leaves: the end-to-end envelope and
/// the delay gate's own view of the wait it injects (the same wait the
/// fabric observes as `fabric.gate_wait`).
const COLLAPSED_EXCLUDE: [&str; 2] = [READ_ENVELOPE, "gate.delay"];

/// One workload phase's slice of a stage: the sub-histogram of the
/// observations recorded while that phase was current. For any stage,
/// phase counts and totals partition the stage's — sums are
/// integer-exact, never approximate.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseSlice {
    pub phase: Phase,
    pub count: u64,
    /// Exact sum of the phase's observations, picoseconds.
    pub total_ps: u64,
    pub mean_ps: f64,
    /// Tail quantiles of the phase's observations (bucket lower bounds,
    /// like every histogram quantile): the serving-tail columns folded
    /// per phase.
    pub p99_ps: u64,
    pub p999_ps: u64,
    pub max_ps: u64,
}

impl PhaseSlice {
    fn of(phase: Phase, h: &Histogram) -> PhaseSlice {
        PhaseSlice {
            phase,
            count: h.count(),
            total_ps: clamp(h.sum()),
            mean_ps: h.mean(),
            p99_ps: h.p99(),
            p999_ps: h.p999(),
            max_ps: h.max(),
        }
    }

    /// Collapsed-frame-safe label (`copy`, `bfs_level_3`, `unphased`).
    pub fn label(&self) -> String {
        self.phase.label()
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("phase".into(), Value::Str(self.label())),
            ("count".into(), Value::U64(self.count)),
            ("total_ps".into(), Value::U64(self.total_ps)),
            ("mean_ps".into(), Value::F64(self.mean_ps)),
            ("p99_ps".into(), Value::U64(self.p99_ps)),
            ("p999_ps".into(), Value::U64(self.p999_ps)),
            ("max_ps".into(), Value::U64(self.max_ps)),
        ])
    }
}

/// One phase's attributed whole-read total at a point: the sum of its
/// anatomy-stage sub-totals. The per-point list of these doubles as the
/// point's phase index — every phase appearing in any slice appears
/// here, which is what lets the checker reject orphan phase frames.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseTotal {
    pub phase: Phase,
    pub read_total_ps: u64,
}

impl PhaseTotal {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("phase".into(), Value::Str(self.phase.label())),
            ("read_total_ps".into(), Value::U64(self.read_total_ps)),
        ])
    }
}

/// One stage's slice of a point (or of the sweep-merged aggregate).
#[derive(Clone, Debug, PartialEq)]
pub struct StageSlice {
    /// Histogram stage name (`fabric.gate_wait`, `mem.local_miss`, ...).
    pub stage: String,
    /// Collapsed-stack frame path for this stage, `;`-separated
    /// (`read;gate_wait` for anatomy stages, `mem;local_miss` style for
    /// the rest).
    pub frame: String,
    pub count: u64,
    /// Exact sum of all observations, picoseconds.
    pub total_ps: u64,
    pub mean_ps: f64,
    /// Tail quantiles next to the mean (histogram bucket lower bounds):
    /// the open-loop campaign reads these per stage to see which stage
    /// stretches the sojourn tail.
    pub p99_ps: u64,
    pub p999_ps: u64,
    pub max_ps: u64,
    /// Fraction of the read-anatomy total ([`PointAttribution::read_total_ps`]);
    /// `None` outside the anatomy or when nothing was attributed.
    pub share: Option<f64>,
    /// Per-phase sub-slices, phase-sorted; their counts and totals sum
    /// exactly to this slice's.
    pub phases: Vec<PhaseSlice>,
}

impl StageSlice {
    fn of(
        stage: &str,
        frame: String,
        h: &Histogram,
        read_total_ps: u64,
        phases: Vec<PhaseSlice>,
    ) -> StageSlice {
        let total = clamp(h.sum());
        let share = READ_ANATOMY.iter().any(|(name, _)| *name == stage) && read_total_ps > 0;
        StageSlice {
            stage: stage.to_string(),
            frame,
            count: h.count(),
            total_ps: total,
            mean_ps: h.mean(),
            p99_ps: h.p99(),
            p999_ps: h.p999(),
            max_ps: h.max(),
            share: share.then(|| total as f64 / read_total_ps as f64),
            phases,
        }
    }

    /// Look up one phase's sub-slice by collapsed label.
    pub fn phase(&self, label: &str) -> Option<&PhaseSlice> {
        self.phases.iter().find(|p| p.label() == label)
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("stage".into(), Value::Str(self.stage.clone())),
            ("frame".into(), Value::Str(self.frame.clone())),
            ("count".into(), Value::U64(self.count)),
            ("total_ps".into(), Value::U64(self.total_ps)),
            ("mean_ps".into(), Value::F64(self.mean_ps)),
            ("p99_ps".into(), Value::U64(self.p99_ps)),
            ("p999_ps".into(), Value::U64(self.p999_ps)),
            ("max_ps".into(), Value::U64(self.max_ps)),
            ("share".into(), self.share.map_or(Value::Null, Value::F64)),
            (
                "phases".into(),
                Value::Array(self.phases.iter().map(PhaseSlice::to_value).collect()),
            ),
        ])
    }
}

/// Attribution for one sweep point (or, with `index: None`, for the
/// whole grid merged).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PointAttribution {
    /// Grid index; `None` for the sweep-merged entry.
    pub index: Option<usize>,
    /// Compact JSON of the point's configuration, when the sweep
    /// harness provided it (so a reader can tie shares to e.g. PERIOD).
    pub config: Option<String>,
    /// Sum over anatomy-stage totals — the attributed whole-read time.
    pub read_total_ps: u64,
    /// Total of the envelope stage ([`READ_ENVELOPE`]), when recorded.
    pub envelope_ps: Option<u64>,
    /// The point's phase index, phase-sorted: every phase observed in
    /// any slice, with its attributed whole-read total.
    pub phases: Vec<PhaseTotal>,
    /// Anatomy slices in pipeline order (only stages that recorded).
    pub anatomy: Vec<StageSlice>,
    /// Every other recorded stage, name-sorted.
    pub other: Vec<StageSlice>,
}

impl PointAttribution {
    /// Fold one stage set plus its per-(stage, phase) sub-histograms.
    /// Inputs may arrive in any order; output ordering is fixed (see
    /// module docs).
    fn fold(
        index: Option<usize>,
        config: Option<String>,
        stages: &[(&str, &Histogram)],
        phased: &[(&str, Phase, &Histogram)],
    ) -> PointAttribution {
        let read_total: u128 = READ_ANATOMY
            .iter()
            .filter_map(|(name, _)| stages.iter().find(|(n, _)| n == name))
            .map(|(_, h)| h.sum())
            .sum();
        let read_total_ps = clamp(read_total);
        let phase_slices = |stage: &str| -> Vec<PhaseSlice> {
            let mut v: Vec<PhaseSlice> = phased
                .iter()
                .filter(|(n, _, _)| *n == stage)
                .map(|(_, p, h)| PhaseSlice::of(*p, h))
                .collect();
            v.sort_by_key(|s| s.phase);
            v
        };
        let anatomy: Vec<StageSlice> = READ_ANATOMY
            .iter()
            .filter_map(|(name, leaf)| {
                stages.iter().find(|(n, _)| n == name).map(|(_, h)| {
                    StageSlice::of(
                        name,
                        format!("read;{leaf}"),
                        h,
                        read_total_ps,
                        phase_slices(name),
                    )
                })
            })
            .collect();
        let mut other: Vec<StageSlice> = stages
            .iter()
            .filter(|(n, _)| !READ_ANATOMY.iter().any(|(name, _)| name == n))
            .map(|(n, h)| StageSlice::of(n, n.replace('.', ";"), h, read_total_ps, phase_slices(n)))
            .collect();
        other.sort_by(|a, b| a.stage.cmp(&b.stage));
        let envelope_ps = stages
            .iter()
            .find(|(n, _)| *n == READ_ENVELOPE)
            .map(|(_, h)| clamp(h.sum()));
        // Phase index: every phase seen in any slice, with the sum of
        // its anatomy sub-totals as the attributed whole-read time.
        let mut ids: Vec<Phase> = Vec::new();
        for (_, p, _) in phased {
            if !ids.contains(p) {
                ids.push(*p);
            }
        }
        ids.sort();
        let phases: Vec<PhaseTotal> = ids
            .into_iter()
            .map(|phase| PhaseTotal {
                phase,
                read_total_ps: clamp(
                    phased
                        .iter()
                        .filter(|(n, p, _)| {
                            *p == phase && READ_ANATOMY.iter().any(|(name, _)| name == n)
                        })
                        .map(|(_, _, h)| h.sum())
                        .sum(),
                ),
            })
            .collect();
        PointAttribution {
            index,
            config,
            read_total_ps,
            envelope_ps,
            phases,
            anatomy,
            other,
        }
    }

    /// Every slice, anatomy first.
    pub fn slices(&self) -> impl Iterator<Item = &StageSlice> {
        self.anatomy.iter().chain(&self.other)
    }

    /// Look up one stage's slice by histogram name.
    pub fn slice(&self, stage: &str) -> Option<&StageSlice> {
        self.slices().find(|s| s.stage == stage)
    }

    fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = Vec::new();
        if let Some(i) = self.index {
            fields.push(("index".into(), Value::U64(i as u64)));
        }
        if let Some(c) = &self.config {
            fields.push(("config".into(), Value::Str(c.clone())));
        }
        fields.push(("read_total_ps".into(), Value::U64(self.read_total_ps)));
        fields.push((
            "envelope_ps".into(),
            self.envelope_ps.map_or(Value::Null, Value::U64),
        ));
        fields.push((
            "phases".into(),
            Value::Array(self.phases.iter().map(PhaseTotal::to_value).collect()),
        ));
        fields.push((
            "anatomy".into(),
            Value::Array(self.anatomy.iter().map(StageSlice::to_value).collect()),
        ));
        fields.push((
            "other".into(),
            Value::Array(self.other.iter().map(StageSlice::to_value).collect()),
        ));
        Value::Object(fields)
    }
}

/// Attribution for one sweep: every traced point plus the grid-merged
/// aggregate.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SweepAttribution {
    pub sweep: String,
    /// Grid size of the sweep (points that hit the cache record
    /// nothing, so `per_point` may be shorter).
    pub points: usize,
    /// Traced points, sorted by grid index.
    pub per_point: Vec<PointAttribution>,
    /// All traced points merged (histogram merge, order-independent).
    pub merged: PointAttribution,
}

impl SweepAttribution {
    /// Fold a sweep's traced points. `configs[i]` is the compact JSON
    /// of grid point `i` (pass `&[]` when unavailable).
    pub fn fold(
        sweep: &str,
        points: usize,
        traces: &[PointTrace],
        configs: &[String],
    ) -> SweepAttribution {
        let mut per_point: Vec<PointAttribution> = traces
            .iter()
            .map(|t| {
                let stages: Vec<(&str, &Histogram)> =
                    t.stages.iter().map(|(n, h)| (*n, h)).collect();
                let phased: Vec<(&str, Phase, &Histogram)> =
                    t.phased.iter().map(|(n, p, h)| (*n, *p, h)).collect();
                PointAttribution::fold(
                    Some(t.index),
                    configs.get(t.index).cloned(),
                    &stages,
                    &phased,
                )
            })
            .collect();
        per_point.sort_by_key(|p| p.index);
        let mut merged_stages: Vec<(&'static str, Histogram)> = Vec::new();
        let mut merged_phased: Vec<(&'static str, Phase, Histogram)> = Vec::new();
        for t in traces {
            for (name, h) in &t.stages {
                match merged_stages.iter_mut().find(|(n, _)| n == name) {
                    Some((_, acc)) => acc.merge(h),
                    None => merged_stages.push((name, h.clone())),
                }
            }
            for (name, phase, h) in &t.phased {
                match merged_phased
                    .iter_mut()
                    .find(|(n, p, _)| n == name && p == phase)
                {
                    Some((_, _, acc)) => acc.merge(h),
                    None => merged_phased.push((name, *phase, h.clone())),
                }
            }
        }
        let stages: Vec<(&str, &Histogram)> = merged_stages.iter().map(|(n, h)| (*n, h)).collect();
        let phased: Vec<(&str, Phase, &Histogram)> =
            merged_phased.iter().map(|(n, p, h)| (*n, *p, h)).collect();
        let merged = PointAttribution::fold(None, None, &stages, &phased);
        SweepAttribution {
            sweep: sweep.to_string(),
            points,
            per_point,
            merged,
        }
    }

    /// Collapsed-stack report: one line per (point, phase, stage), in
    /// the format `flamegraph.pl` / `inferno-flamegraph` consume
    /// verbatim — `frame;frame;...;frame <count>` with the phase's
    /// total picoseconds as the count. The phase frame sits between the
    /// point and the stage path (`root;point_3;copy;read;gate_wait`),
    /// so per-stage totals are the rendered sums of their phase
    /// children. Anatomy stages nest under a `read` frame so the
    /// rendered tower's width is the whole-read time; envelope/alias
    /// stages are excluded (their time is already in the anatomy
    /// leaves). A stage with no phase buckets (hand-built traces) emits
    /// one `unphased` line carrying the stage total.
    pub fn collapsed(&self) -> String {
        let root = crate::flat_name(&self.sweep);
        let mut out = String::new();
        for p in &self.per_point {
            let Some(idx) = p.index else { continue };
            for s in p.slices() {
                if COLLAPSED_EXCLUDE.contains(&s.stage.as_str()) {
                    continue;
                }
                if s.phases.is_empty() {
                    out.push_str(&format!(
                        "{root};point_{idx};unphased;{} {}\n",
                        s.frame, s.total_ps
                    ));
                    continue;
                }
                for ph in &s.phases {
                    out.push_str(&format!(
                        "{root};point_{idx};{};{} {}\n",
                        ph.label(),
                        s.frame,
                        ph.total_ps
                    ));
                }
            }
        }
        out
    }

    pub fn to_value(&self) -> Value {
        crate::sweep_value(
            &self.sweep,
            Vec::new(),
            self.points,
            self.per_point
                .iter()
                .map(PointAttribution::to_value)
                .collect(),
            self.merged.to_value(),
        )
    }
}

// ---------------------------------------------------------- validators

/// Summary of a validated collapsed-stack file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollapsedCheck {
    pub lines: usize,
    /// Distinct `root;point` prefixes.
    pub points: usize,
    /// Distinct `root;point;phase` prefixes among point-anchored lines.
    pub phases: usize,
    /// Sum of all counts.
    pub total: u128,
}

/// Structurally validate collapsed-stack text the way `flamegraph.pl`
/// parses it: every line is `frame;frame;... <integer>`, frames are
/// non-empty and space-free, at least two frames deep. A point-anchored
/// line (`root;point_N;...`) must carry a phase frame *and* a stage
/// path below it — a bare `root;point_N;<phase>` line is an orphan
/// phase with no stage leaf and is rejected. Empty input is valid (a
/// sweep whose every point hit the cache records nothing).
pub fn check_collapsed(text: &str) -> Result<CollapsedCheck, String> {
    let mut out = CollapsedCheck::default();
    let mut points: Vec<String> = Vec::new();
    let mut phases: Vec<String> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let fail = |msg: String| Err(format!("line {}: {msg}", i + 1));
        let Some((stack, count)) = line.rsplit_once(' ') else {
            return fail(format!("no space-separated count in {line:?}"));
        };
        let Ok(n) = count.parse::<u64>() else {
            return fail(format!("count {count:?} is not an unsigned integer"));
        };
        let frames: Vec<&str> = stack.split(';').collect();
        if frames.len() < 2 {
            return fail(format!("stack {stack:?} has fewer than two frames"));
        }
        if frames.iter().any(|f| f.is_empty() || f.contains(' ')) {
            return fail(format!(
                "stack {stack:?} has an empty or space-bearing frame"
            ));
        }
        if frames[1].starts_with("point_") {
            // root;point;phase;stage... — anything shorter is a phase
            // frame with no stage leaf under it.
            if frames.len() < 4 {
                return fail(format!(
                    "stack {stack:?} is an orphan phase frame (no stage below the phase)"
                ));
            }
            let phase = format!("{};{};{}", frames[0], frames[1], frames[2]);
            if !phases.contains(&phase) {
                phases.push(phase);
            }
        }
        let point = format!("{};{}", frames[0], frames[1]);
        if !points.contains(&point) {
            points.push(point);
        }
        out.lines += 1;
        out.total += n as u128;
    }
    out.points = points.len();
    out.phases = phases.len();
    Ok(out)
}

/// Summary of a validated `attribution.json`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AttributionCheck {
    pub sweeps: usize,
    pub points: usize,
    pub slices: usize,
    /// Total per-phase sub-slices across all stage slices.
    pub phases: usize,
}

/// Structurally validate an `attribution.json`, collecting **every**
/// failure: the shared sweep envelope (see `walk_sweeps`), shares in
/// [0, 1] summing to 1 over each attributed point's anatomy, means
/// consistent with totals and counts, and — for the per-phase split —
/// each slice's phase counts/totals summing *exactly* to the slice's
/// (a phase sum exceeding its stage total is rejected), every slice
/// phase present in the point's phase index (no orphans), and each
/// index entry's `read_total_ps` equal to the sum of that phase's
/// anatomy sub-totals.
pub fn check_attribution(text: &str) -> Result<AttributionCheck, Vec<String>> {
    let mut out = AttributionCheck::default();
    let (sweeps, points) = crate::walk_sweeps(text, |name, _, per_point, merged, errors| {
        for p in per_point.iter().chain(std::iter::once(merged)) {
            let (slices, phases) = check_point(name, p, errors);
            out.slices += slices;
            out.phases += phases;
        }
    })?;
    Ok(AttributionCheck {
        sweeps,
        points,
        ..out
    })
}

/// Read a required unsigned field; a missing one is recorded as a
/// failure of `ctx`.
fn need_u64(v: &Value, field: &str, ctx: &str, errors: &mut Vec<String>) -> Option<u64> {
    let got = v.get(field).and_then(Value::as_u64);
    if got.is_none() {
        errors.push(format!("{ctx}: missing {field}"));
    }
    got
}

/// Validate the numbers every slice carries, stage slice and phase
/// sub-slice alike: a mean consistent with total and count, and the
/// tail-quantile columns present, ordered `p99 ≤ p999 ≤ max`, and
/// bounded by the slice's total. Histogram quantiles are bucket lower
/// bounds, so the only exact tail invariants are the ordering ones.
/// Returns `(count, total_ps)` when both are present.
fn check_slice(ctx: &str, s: &Value, errors: &mut Vec<String>) -> Option<(u64, u64)> {
    let count = need_u64(s, "count", ctx, errors);
    let total = need_u64(s, "total_ps", ctx, errors);
    let mean = s.get("mean_ps").and_then(Value::as_f64);
    if mean.is_none() {
        errors.push(format!("{ctx}: missing mean_ps"));
    }
    let tails = ["p99_ps", "p999_ps", "max_ps"].map(|f| need_u64(s, f, ctx, errors));
    let (count, total) = (count?, total?);
    if let (Some(mean), true) = (mean, count > 0) {
        let expect = total as f64 / count as f64;
        if (mean - expect).abs() > 1e-6 * (1.0 + expect) {
            errors.push(format!(
                "{ctx}: mean {mean} inconsistent with total/count {expect}"
            ));
        }
    }
    if let [Some(p99), Some(p999), Some(max)] = tails {
        if !(p99 <= p999 && p999 <= max) {
            errors.push(format!(
                "{ctx}: tail quantiles out of order (p99 {p99}, p999 {p999}, max {max})"
            ));
        }
        if count > 0 && max > total {
            errors.push(format!(
                "{ctx}: max_ps {max} exceeds the slice total {total}"
            ));
        }
    }
    Some((count, total))
}

/// A phase entry's label; a missing or empty one is a failure of `ctx`.
fn phase_label<'a>(e: &'a Value, ctx: &str, errors: &mut Vec<String>) -> Option<&'a str> {
    let label = e
        .get("phase")
        .and_then(Value::as_str)
        .filter(|l| !l.is_empty());
    if label.is_none() {
        errors.push(format!("{ctx}: phase entry with a missing or empty label"));
    }
    label
}

/// Validate one point entry; returns the number of stage slices and
/// per-phase sub-slices it carries.
fn check_point(sweep: &str, p: &Value, errors: &mut Vec<String>) -> (usize, usize) {
    let read_total = need_u64(p, "read_total_ps", sweep, errors);
    let list = |field: &str| p.get(field).and_then(Value::as_array);
    let Some(anatomy) = list("anatomy") else {
        errors.push(format!("{sweep}: point missing anatomy array"));
        return (0, 0);
    };
    let others = list("other").unwrap_or(&[]);
    // The point's phase index: labels must be unique and non-empty;
    // slice phases are checked against this set (orphan detection) and
    // the per-phase anatomy totals must reproduce its read totals.
    let mut phase_index: Vec<(&str, u64)> = Vec::new();
    for e in list("phases").unwrap_or(&[]) {
        let Some(label) = phase_label(e, &format!("{sweep}/phase index"), errors) else {
            continue;
        };
        if phase_index.iter().any(|(l, _)| *l == label) {
            errors.push(format!("{sweep}: duplicate phase {label:?} in phase index"));
        } else if let Some(total) = need_u64(
            e,
            "read_total_ps",
            &format!("{sweep}/phase {label}"),
            errors,
        ) {
            phase_index.push((label, total));
        }
    }
    let mut share_sum = 0.0;
    let mut total_sum = 0u128;
    let mut phase_slices = 0usize;
    let mut anatomy_phase_totals: Vec<(&str, u128)> = Vec::new();
    for (s, in_anatomy) in anatomy
        .iter()
        .map(|s| (s, true))
        .chain(others.iter().map(|s| (s, false)))
    {
        let stage = s.get("stage").and_then(Value::as_str).unwrap_or("?");
        let ctx = format!("{sweep}/{stage}");
        let Some((count, total)) = check_slice(&ctx, s, errors) else {
            continue;
        };
        if let Some(share) = s.get("share").and_then(Value::as_f64) {
            if !(0.0..=1.0).contains(&share) {
                errors.push(format!("{ctx}: share {share} outside [0, 1]"));
            }
            share_sum += share;
            total_sum += total as u128;
        }
        // Per-phase sub-slices: orphan-free, internally consistent, and
        // partitioning the stage exactly.
        let phases = s.get("phases").and_then(Value::as_array).unwrap_or(&[]);
        let mut phase_count_sum = 0u64;
        let mut phase_total_sum = 0u128;
        for e in phases {
            let Some(label) = phase_label(e, &ctx, errors) else {
                continue;
            };
            if !phase_index.iter().any(|(l, _)| *l == label) {
                errors.push(format!(
                    "{ctx}: orphan phase {label:?} not in the point's phase index"
                ));
            }
            let Some((pc, pt)) = check_slice(&format!("{ctx}/{label}"), e, errors) else {
                continue;
            };
            phase_count_sum += pc;
            phase_total_sum += pt as u128;
            phase_slices += 1;
            if in_anatomy {
                *crate::slot(&mut anatomy_phase_totals, label, || 0) += pt as u128;
            }
        }
        if !phases.is_empty() {
            if phase_count_sum != count {
                errors.push(format!(
                    "{ctx}: phase counts sum to {phase_count_sum}, stage count is {count}"
                ));
            }
            if phase_total_sum != total as u128 {
                errors.push(format!(
                    "{ctx}: phase totals sum to {phase_total_sum}, stage total_ps is {total}"
                ));
            }
        }
    }
    // The phase index's read totals must reproduce from the anatomy
    // sub-totals (integer-exact, like read_total_ps from the stages).
    for (label, expect) in &phase_index {
        let got = anatomy_phase_totals
            .iter()
            .find(|(l, _)| l == label)
            .map_or(0, |(_, t)| *t);
        if got != *expect as u128 {
            errors.push(format!(
                "{sweep}/phase {label}: anatomy sub-totals sum to {got}, \
                 phase index claims {expect}"
            ));
        }
    }
    if let Some(read_total) = read_total.filter(|t| *t > 0) {
        if (share_sum - 1.0).abs() > 1e-9 {
            errors.push(format!(
                "{sweep}: anatomy shares sum to {share_sum}, expected 1"
            ));
        }
        if total_sum != read_total as u128 {
            errors.push(format!(
                "{sweep}: anatomy totals sum to {total_sum}, read_total_ps is {read_total}"
            ));
        }
    }
    (anatomy.len() + others.len(), phase_slices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::TraceRecorder;
    use thymesim_sim::Dur;

    /// A point whose anatomy stages are (base, 2·base, ...·base) and
    /// whose envelope is their exact sum, plus one non-anatomy stage.
    /// Anatomy observations split across two phases (`copy`, then a
    /// second copy of each stage in `scale`); the envelope and the
    /// local miss record outside any marker, i.e. `unphased`.
    fn point(index: usize, base: u64) -> PointTrace {
        let mut r = TraceRecorder::new(index, 10);
        let mut whole = 0;
        for (i, (name, _)) in READ_ANATOMY.iter().enumerate() {
            let d = base * (i as u64 + 1);
            whole += 2 * d;
            // SAFETY of &'static: anatomy names are 'static consts.
            r.phase_begin("copy", None);
            r.latency(name, Dur::ns(d));
            r.phase_begin("scale", None);
            r.latency(name, Dur::ns(d));
            r.phase_end();
        }
        r.latency(READ_ENVELOPE, Dur::ns(whole));
        r.latency("mem.local_miss", Dur::ns(base));
        r.finish()
    }

    #[test]
    fn shares_partition_the_read() {
        let att = SweepAttribution::fold("sw", 2, &[point(0, 10), point(1, 7)], &[]);
        for p in att.per_point.iter().chain(std::iter::once(&att.merged)) {
            let total: u64 = p.anatomy.iter().map(|s| s.total_ps).sum();
            assert_eq!(total, p.read_total_ps);
            assert_eq!(
                p.envelope_ps,
                Some(p.read_total_ps),
                "anatomy covers the envelope"
            );
            let share_sum: f64 = p.anatomy.iter().map(|s| s.share.unwrap()).sum();
            assert!((share_sum - 1.0).abs() < 1e-12, "shares sum to {share_sum}");
        }
        // Anatomy is pipeline-ordered, others name-sorted.
        assert_eq!(att.merged.anatomy[0].stage, "credit.wait");
        assert_eq!(att.merged.anatomy[2].frame, "read;gate_wait");
        assert_eq!(att.merged.other[0].stage, "mem.local_miss");
        assert_eq!(att.merged.other[0].frame, "mem;local_miss");
        assert!(att.merged.other[0].share.is_none());
    }

    #[test]
    fn phase_slices_partition_each_stage_exactly() {
        let att = SweepAttribution::fold("sw", 2, &[point(0, 10), point(1, 7)], &[]);
        for p in att.per_point.iter().chain(std::iter::once(&att.merged)) {
            for s in p.slices() {
                assert!(!s.phases.is_empty(), "{}: every stage is phased", s.stage);
                let count: u64 = s.phases.iter().map(|ph| ph.count).sum();
                let total: u64 = s.phases.iter().map(|ph| ph.total_ps).sum();
                assert_eq!(count, s.count, "{}: phase counts partition", s.stage);
                assert_eq!(total, s.total_ps, "{}: phase totals partition", s.stage);
            }
            // Anatomy stages split copy/scale; the envelope and local
            // miss recorded outside any marker.
            let gate = p.slice("fabric.gate_wait").unwrap();
            assert_eq!(
                gate.phases
                    .iter()
                    .map(PhaseSlice::label)
                    .collect::<Vec<_>>(),
                ["copy", "scale"]
            );
            assert_eq!(gate.phase("copy").unwrap().total_ps, gate.total_ps / 2);
            let miss = p.slice("mem.local_miss").unwrap();
            assert_eq!(miss.phases.len(), 1);
            assert_eq!(miss.phases[0].label(), "unphased");
            // The phase index reproduces per-phase read totals.
            let labels: Vec<String> = p.phases.iter().map(|pt| pt.phase.label()).collect();
            assert_eq!(labels, ["copy", "scale", "unphased"]);
            let index_sum: u64 = p.phases.iter().map(|pt| pt.read_total_ps).sum();
            assert_eq!(index_sum, p.read_total_ps);
            assert_eq!(p.phases[2].read_total_ps, 0, "unphased saw no anatomy");
        }
    }

    #[test]
    fn fold_is_order_independent() {
        let a = SweepAttribution::fold("sw", 2, &[point(0, 10), point(1, 7)], &[]);
        let b = SweepAttribution::fold("sw", 2, &[point(1, 7), point(0, 10)], &[]);
        assert_eq!(a, b);
        assert_eq!(a.collapsed(), b.collapsed());
        assert_eq!(
            serde_json::to_string(&a.to_value()).unwrap(),
            serde_json::to_string(&b.to_value()).unwrap()
        );
    }

    #[test]
    fn empty_and_single_point_folds_are_sane() {
        let empty = SweepAttribution::fold("sw", 0, &[], &[]);
        assert_eq!(empty.per_point.len(), 0);
        assert_eq!(empty.merged.read_total_ps, 0);
        assert_eq!(empty.collapsed(), "");
        assert_eq!(
            check_collapsed(&empty.collapsed()),
            Ok(CollapsedCheck::default())
        );

        let one = SweepAttribution::fold("sw", 1, &[point(0, 3)], &[]);
        assert_eq!(one.per_point.len(), 1);
        assert_eq!(one.per_point[0], {
            let mut m = one.merged.clone();
            m.index = Some(0);
            m
        });
    }

    #[test]
    fn collapsed_output_is_flamegraph_shaped() {
        let att = SweepAttribution::fold("fig2/sweep", 2, &[point(0, 10), point(1, 7)], &[]);
        let text = att.collapsed();
        let stats = check_collapsed(&text).expect("collapsed output validates");
        // Per point: 6 anatomy stages × 2 phases + 1 unphased local-miss
        // line; the envelope is excluded.
        assert_eq!(stats.lines, 26);
        assert_eq!(stats.points, 2);
        assert_eq!(stats.phases, 6, "copy/scale/unphased per point");
        assert!(text.contains("fig2_sweep;point_0;copy;read;gate_wait "));
        assert!(text.contains("fig2_sweep;point_0;scale;read;gate_wait "));
        assert!(text.contains("fig2_sweep;point_1;unphased;mem;local_miss "));
        assert!(
            !text.contains("remote_miss"),
            "envelope stays out of the graph"
        );
    }

    #[test]
    fn configs_attach_to_points() {
        let configs = vec!["{\"period\":1}".to_string(), "{\"period\":2}".to_string()];
        let att = SweepAttribution::fold("sw", 2, &[point(1, 7), point(0, 10)], &configs);
        assert_eq!(att.per_point[0].config.as_deref(), Some("{\"period\":1}"));
        assert_eq!(att.per_point[1].config.as_deref(), Some("{\"period\":2}"));
        assert_eq!(att.merged.config, None);
    }

    #[test]
    fn checker_rejects_malformed_collapsed() {
        assert!(check_collapsed("noframe\n").is_err());
        assert!(check_collapsed("a;b notanumber\n").is_err());
        assert!(
            check_collapsed("toplevel 5\n").is_err(),
            "one frame is too shallow"
        );
        assert!(check_collapsed("a;;b 5\n").is_err(), "empty frame");
        assert!(
            check_collapsed("a;b c;d 5\n").is_err(),
            "space inside frame"
        );
        assert!(check_collapsed("a;b;c 5\n").is_ok());
    }

    #[test]
    fn checker_rejects_orphan_phase_frames_in_collapsed() {
        // A point-anchored line must be root;point;phase;stage... — a
        // phase with no stage leaf under it is rejected.
        let err = check_collapsed("sw;point_0;copy 5\n").unwrap_err();
        assert!(err.contains("orphan phase"), "{err}");
        assert!(check_collapsed("sw;point_0;copy;read;gate_wait 5\n").is_ok());
        // Non-point lines keep plain flamegraph semantics.
        assert!(check_collapsed("a;b;c 5\n").is_ok());
    }

    /// A minimal hand-written attribution.json with one single-stage
    /// point, parameterized on the phase fragments so negative tests
    /// can inject exactly one defect.
    fn mini_attribution(index_phases: &str, slice_phases: &str) -> String {
        let point = format!(
            r#"{{
                "read_total_ps": 10,
                "envelope_ps": null,
                "phases": [{index_phases}],
                "anatomy": [{{
                    "stage": "credit.wait",
                    "frame": "read;credit_wait",
                    "count": 2,
                    "total_ps": 10,
                    "mean_ps": 5.0,
                    "p99_ps": 5,
                    "p999_ps": 5,
                    "max_ps": 5,
                    "share": 1.0,
                    "phases": [{slice_phases}]
                }}],
                "other": []
            }}"#
        );
        format!(
            r#"{{
                "schema": 1,
                "sweeps": [{{
                    "sweep": "sw",
                    "points": 0,
                    "traced_points": 0,
                    "per_point": [],
                    "merged": {point}
                }}]
            }}"#
        )
    }

    #[test]
    fn checker_rejects_malformed_phase_entries() {
        let index = r#"{"phase": "copy", "read_total_ps": 10}"#;
        let good = mini_attribution(
            index,
            r#"{"phase": "copy", "count": 2, "total_ps": 10, "mean_ps": 5.0, "p99_ps": 5, "p999_ps": 5, "max_ps": 5}"#,
        );
        let stats = check_attribution(&good).expect("well-formed phases pass");
        assert_eq!(stats.phases, 1);

        // Orphan: slice names a phase the point's index never declared.
        let orphan = mini_attribution(
            index,
            r#"{"phase": "ghost", "count": 2, "total_ps": 10, "mean_ps": 5.0, "p99_ps": 5, "p999_ps": 5, "max_ps": 5}"#,
        );
        let err = check_attribution(&orphan).unwrap_err().join("\n");
        assert!(err.contains("orphan phase"), "{err}");

        // Phase totals exceeding the stage total are rejected.
        let exceed = mini_attribution(
            r#"{"phase": "copy", "read_total_ps": 13}"#,
            r#"{"phase": "copy", "count": 2, "total_ps": 13, "mean_ps": 6.5, "p99_ps": 7, "p999_ps": 7, "max_ps": 7}"#,
        );
        let err = check_attribution(&exceed).unwrap_err().join("\n");
        assert!(err.contains("phase totals sum to 13"), "{err}");

        // So are partitions that drop observations (counts short).
        let short = mini_attribution(
            index,
            r#"{"phase": "copy", "count": 1, "total_ps": 10, "mean_ps": 10.0, "p99_ps": 10, "p999_ps": 10, "max_ps": 10}"#,
        );
        let err = check_attribution(&short).unwrap_err().join("\n");
        assert!(err.contains("phase counts sum to 1"), "{err}");

        // Index totals must reproduce from the anatomy sub-totals.
        let inflated = mini_attribution(
            r#"{"phase": "copy", "read_total_ps": 9}"#,
            r#"{"phase": "copy", "count": 2, "total_ps": 10, "mean_ps": 5.0, "p99_ps": 5, "p999_ps": 5, "max_ps": 5}"#,
        );
        let err = check_attribution(&inflated).unwrap_err().join("\n");
        assert!(err.contains("phase index claims 9"), "{err}");

        // Duplicate index labels are rejected.
        let dup = mini_attribution(
            r#"{"phase": "copy", "read_total_ps": 10}, {"phase": "copy", "read_total_ps": 0}"#,
            r#"{"phase": "copy", "count": 2, "total_ps": 10, "mean_ps": 5.0, "p99_ps": 5, "p999_ps": 5, "max_ps": 5}"#,
        );
        let err = check_attribution(&dup).unwrap_err().join("\n");
        assert!(err.contains("duplicate phase"), "{err}");
    }

    #[test]
    fn checker_rejects_disordered_or_missing_tails() {
        let index = r#"{"phase": "copy", "read_total_ps": 10}"#;
        // p999 below p99 is a broken fold.
        let disordered = mini_attribution(
            index,
            r#"{"phase": "copy", "count": 2, "total_ps": 10, "mean_ps": 5.0,
                "p99_ps": 6, "p999_ps": 5, "max_ps": 6}"#,
        );
        let err = check_attribution(&disordered).unwrap_err().join("\n");
        assert!(err.contains("tail quantiles out of order"), "{err}");

        // A max above the slice total is impossible for latencies.
        let oversized = mini_attribution(
            index,
            r#"{"phase": "copy", "count": 2, "total_ps": 10, "mean_ps": 5.0,
                "p99_ps": 5, "p999_ps": 5, "max_ps": 11}"#,
        );
        let err = check_attribution(&oversized).unwrap_err().join("\n");
        assert!(err.contains("exceeds the slice total"), "{err}");

        // The columns are part of the schema, not optional.
        let missing = mini_attribution(
            index,
            r#"{"phase": "copy", "count": 2, "total_ps": 10, "mean_ps": 5.0}"#,
        );
        let err = check_attribution(&missing).unwrap_err().join("\n");
        assert!(err.contains("missing p99_ps"), "{err}");
    }

    #[test]
    fn attribution_json_round_trips_the_checker() {
        let att = SweepAttribution::fold("sw", 2, &[point(0, 10), point(1, 7)], &[]);
        let root = Value::Object(vec![
            ("schema".into(), Value::U64(1)),
            ("sweeps".into(), Value::Array(vec![att.to_value()])),
        ]);
        let text = serde_json::to_string_pretty(&root).unwrap();
        let stats = check_attribution(&text).expect("valid attribution.json");
        assert_eq!(stats.sweeps, 1);
        assert_eq!(stats.points, 2);
        assert!(stats.slices > 0);
        // A perturbed share must be caught.
        let broken = text.replace("\"share\": 0.0", "\"share\": 7.5");
        if broken != text {
            assert!(check_attribution(&broken).is_err());
        }
        assert!(check_attribution("{}").is_err());
    }
}
