//! # thymesim-telemetry
//!
//! Zero-overhead-when-disabled observability for the whole stack, in
//! **virtual sim time**. Probes throughout the simulator (fabric
//! pipeline stages, credit window, delay gate, memory hierarchy, links,
//! workload phases) call the free functions in this crate — [`span`],
//! [`instant`], [`counter`], [`latency`], [`add`], [`phase_begin`] /
//! [`phase_end`] — which forward to a thread-local [`TraceRecorder`] when one
//! is installed and cost a single thread-local flag read otherwise.
//! Workloads declare phases ([`phase_begin`]) and every latency
//! observation lands in the phase current at record time, so each stage
//! histogram splits into per-phase sub-histograms that sum exactly to
//! the stage total.
//!
//! The sweep harness (`thymesim_core::sweep`) installs a
//! [`TraceRecorder`] around each simulated point and exports two
//! artifacts per sweep:
//!
//! * `<dir>/<sweep>.trace.json` — Chrome-trace/Perfetto JSON timeline
//!   ([`chrome`]), loadable at <https://ui.perfetto.dev>;
//! * one cumulative `<dir>/telemetry.json` — compact per-sweep summary
//!   of merged stage histograms and totals ([`summary`]).
//!
//! ## Determinism contract
//!
//! Telemetry is purely observational: recorders never feed data back
//! into the simulation, so `results/` output is byte-identical whether
//! tracing is on or off (CI-enforced). Events carry only virtual time;
//! each point records on the one thread that simulates it and traces
//! are assembled in grid order, so trace files are byte-identical
//! across `--jobs` settings too.

pub mod attribution;
pub mod blame;
pub mod chrome;
pub mod counters;
mod ledger;
pub mod recorder;
pub mod summary;
#[cfg(test)]
mod testkit;

pub use attribution::{PhaseSlice, PointAttribution, StageSlice, SweepAttribution};
pub use blame::{BlameCell, PointBlame, ResourceBlame, SweepBlame, VictimBlame};
pub use counters::{
    CounterKind, CounterRecorder, CounterReport, CounterTrack, PointUtilization, SweepUtilization,
};
pub use recorder::{BlameEntry, Phase, PointTrace, Source, TraceEvent, TraceRecorder};
pub use summary::SweepSummary;

use serde::Value;
use std::cell::{Cell, RefCell};
use std::path::PathBuf;
use std::sync::Mutex;
use thymesim_sim::{Dur, Time};

// ------------------------------------------------------------- config

/// Process-wide tracing configuration, set once by the CLI
/// (`repro --trace[=<filter>] [--trace-out <dir>]`).
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Only sweeps whose name contains this substring record; `None`
    /// traces every sweep.
    pub filter: Option<String>,
    /// Directory receiving `<sweep>.trace.json` files and the merged
    /// `telemetry.json`. Kept separate from `results/` so result trees
    /// stay byte-identical with tracing on.
    pub dir: PathBuf,
    /// Write per-sweep artifact files (`<sweep>.trace.json`,
    /// `<sweep>.collapsed`, `telemetry.json`, `attribution.json`,
    /// `utilization.json`, `blame.json`)? `false` runs the recorders and
    /// accumulates every fold in memory only — `repro blame` uses this
    /// to read blame without touching the filesystem.
    pub artifacts: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            filter: None,
            dir: PathBuf::from("traces"),
            artifacts: true,
        }
    }
}

/// Everything one exported sweep folded into: one entry per artifact
/// family.
struct SweepFolds {
    summary: SweepSummary,
    attribution: SweepAttribution,
    utilization: SweepUtilization,
    blame: SweepBlame,
}

static CONFIG: Mutex<Option<TraceConfig>> = Mutex::new(None);
/// The artifact registry: every sweep exported so far, in execution
/// order. The merged artifact files and the in-process snapshots are
/// all views of this one list.
static FOLDS: Mutex<Vec<SweepFolds>> = Mutex::new(Vec::new());

/// Install the process-wide tracing configuration.
pub fn configure(cfg: TraceConfig) {
    *CONFIG.lock().expect("telemetry config poisoned") = Some(cfg);
}

/// Disable tracing process-wide (and forget accumulated summaries,
/// attributions, utilizations, and blame reports).
pub fn disable() {
    *CONFIG.lock().expect("telemetry config poisoned") = None;
    FOLDS.lock().expect("fold registry poisoned").clear();
}

/// The currently installed configuration, if tracing is on.
pub fn config() -> Option<TraceConfig> {
    CONFIG.lock().expect("telemetry config poisoned").clone()
}

/// Should the named sweep record? True iff tracing is configured and
/// the filter (if any) matches.
pub fn sweep_traced(name: &str) -> bool {
    match &*CONFIG.lock().expect("telemetry config poisoned") {
        Some(cfg) => cfg
            .filter
            .as_deref()
            .is_none_or(|needle| name.contains(needle)),
        None => false,
    }
}

// ---------------------------------------------------- ambient recorder

thread_local! {
    /// Fast-path flag: probes read only this when tracing is off.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<TraceRecorder>> = const { RefCell::new(None) };
}

/// Is a recorder installed on this thread? Probes use this to skip
/// argument computation; the free functions below also check it.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Install a recorder for the current thread (one sweep point).
pub fn install(rec: TraceRecorder) {
    RECORDER.with(|r| *r.borrow_mut() = Some(rec));
    ENABLED.with(|e| e.set(true));
}

/// Remove the thread's recorder and return what it captured.
pub fn take() -> Option<PointTrace> {
    ENABLED.with(|e| e.set(false));
    RECORDER
        .with(|r| r.borrow_mut().take())
        .map(TraceRecorder::finish)
}

/// Run `f` on this thread's recorder, if one is installed: the one
/// guard every probe below goes through. With tracing off it costs the
/// thread-local flag read and nothing else.
#[inline]
fn with(f: impl FnOnce(&mut TraceRecorder)) {
    if enabled() {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                f(rec);
            }
        });
    }
}

// ------------------------------------------------------------- probes

/// Record a completed interval `[start, end]` on `track`.
#[inline]
pub fn span(track: &'static str, name: &'static str, start: Time, end: Time) {
    with(|r| r.span(track, name, start, end));
}

/// Like [`span`], with one `key = value` argument.
#[inline]
pub fn span_arg(
    track: &'static str,
    name: &'static str,
    start: Time,
    end: Time,
    key: &'static str,
    value: u64,
) {
    with(|r| r.span_arg(track, name, start, end, key, value));
}

/// Record a point-in-time marker.
#[inline]
pub fn instant(track: &'static str, name: &'static str, at: Time) {
    with(|r| r.instant(track, name, at));
}

/// Record a sampled counter value.
#[inline]
pub fn counter(name: &'static str, at: Time, value: f64) {
    with(|r| r.counter(name, at, value));
}

/// Record one observation of a per-stage latency. The observation is
/// attributed to the workload phase current at record time (see
/// [`phase_begin`]), so per-phase sub-histograms partition each stage
/// histogram exactly.
#[inline]
pub fn latency(stage: &'static str, d: Dur) {
    with(|r| r.latency(stage, d));
}

/// Enter a workload phase (STREAM kernel, BFS level, KV steady state,
/// ...). Subsequent [`latency`] observations on this thread attribute to
/// it until the next `phase_begin` or [`phase_end`]. Re-asserting the
/// current phase is idempotent; interleaved processes restate theirs
/// each step.
#[inline]
pub fn phase_begin(name: &'static str, index: Option<u64>) {
    with(|r| r.phase_begin(name, index));
}

/// Leave the current workload phase; later observations are `unphased`.
#[inline]
pub fn phase_end() {
    with(|r| r.phase_end());
}

/// Bump a monotonic total.
#[inline]
pub fn add(name: &'static str, delta: u64) {
    with(|r| r.add(name, delta));
}

/// Record that a component was occupied over `[start, end)` — folded
/// onto fixed virtual-time windows as a busy fraction. Emit
/// non-overlapping intervals per counter (serialized resources do so
/// naturally) so window fractions stay within [0, 1].
#[inline]
pub fn counter_busy(name: &'static str, start: Time, end: Time) {
    with(|r| r.counter_busy(name, start, end));
}

/// Record an integer gauge held at `level` over `[start, end)` — folded
/// onto windows as a time-weighted level. Overlapping segments add, so
/// emitting one unit segment per waiting request folds into the
/// instantaneous queue depth.
#[inline]
pub fn counter_level(name: &'static str, start: Time, end: Time, level: u64) {
    with(|r| r.counter_level(name, start, end, level));
}

/// Record a numerator/denominator event pair at an instant (e.g. one
/// cache access that did or did not miss) — folded onto windows as a
/// rate in [0, 1].
#[inline]
pub fn counter_ratio(name: &'static str, at: Time, num: u64, den: u64) {
    with(|r| r.counter_ratio(name, at, num, den));
}

/// Record `count` identical [`counter_ratio`] pairs at the instants
/// `start + i·step` in one call — the telemetry of a run of events whose
/// times are known in closed form (a line's replayed hits). Window sums
/// are exactly those of the `count` single calls.
#[inline]
pub fn counter_ratio_run(
    name: &'static str,
    start: Time,
    step: Dur,
    count: u64,
    num: u64,
    den: u64,
) {
    with(|r| r.counter_ratio_run(name, start, step, count, num, den));
}

/// Declare a level counter's capacity (credit window size, ...); the
/// exported track carries it and saturation is measured against it.
#[inline]
pub fn counter_bound(name: &'static str, bound: u64) {
    with(|r| r.counter_bound(name, bound));
}

/// Enter a traffic source (workload instance, serve shard, lender, ...).
/// Subsequent [`blame_occupy`] / [`blame_wait`] calls on this thread are
/// tagged with it until the next `source_begin` or [`source_end`].
/// Re-asserting the current source is idempotent; interleaved processes
/// restate theirs each step, mirroring [`phase_begin`].
#[inline]
pub fn source_begin(name: &'static str, index: u64) {
    with(|r| r.source_begin(name, index));
}

/// Leave the current traffic source; later blame records are tagged
/// with the `main` source.
#[inline]
pub fn source_end() {
    with(|r| r.source_end());
}

/// Record that the current source occupied queueing resource `resource`
/// over `[start, end)`. Later [`blame_wait`] calls on the same resource
/// decompose their waits against these segments.
#[inline]
pub fn blame_occupy(resource: &'static str, start: Time, end: Time) {
    with(|r| r.blame_occupy(resource, start, end));
}

/// Decompose the current source's queueing wait `[arrival, start)` at
/// `resource` into per-source blame charges against the occupancy
/// ledger. The charges sum to exactly `start - arrival` (integer
/// picoseconds); uncovered wait is self-blame. Call *before* the
/// request's own [`blame_occupy`] so its grant doesn't blame itself.
#[inline]
pub fn blame_wait(resource: &'static str, arrival: Time, start: Time) {
    with(|r| r.blame_wait(resource, arrival, start));
}

/// Claim the next instance slot of an exclusive counter family on this
/// point's recorder; returns the zero-based slot (0 when tracing is
/// off). Components whose busy/level tracks must not overlap claim at
/// construction and emit only from slot 0 — experiments that build
/// several links, buses, or engines inside one point otherwise sum
/// their occupancies into fractions above 1.
#[inline]
pub fn claim(family: &'static str) -> u64 {
    let mut slot = 0;
    with(|r| slot = r.claim(family));
    slot
}

// ------------------------------------------------------------- export

/// Flatten a sweep name for the filesystem (same rule as the sweep
/// cache): every non-alphanumeric character becomes `_`.
pub fn flat_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Export one finished sweep: write its Chrome trace to
/// `<dir>/<flat>.trace.json` and its collapsed-stack attribution to
/// `<dir>/<flat>.collapsed`, and fold it into the process-wide registry
/// (written later by [`write_summary`] / [`write_attribution`] /
/// [`write_utilization`] / [`write_blame`]). Called by the sweep harness
/// with traces already in grid order; `configs[i]` is the compact
/// config JSON of grid point `i`.
pub fn export_sweep(
    name: &str,
    points: usize,
    traces: &[PointTrace],
    configs: &[String],
) -> Option<PathBuf> {
    let cfg = config()?;
    let folds = SweepFolds {
        summary: SweepSummary::merge(name, points, traces),
        attribution: SweepAttribution::fold(name, points, traces, configs),
        utilization: SweepUtilization::fold(
            name,
            points,
            traces,
            counters::DEFAULT_WINDOW_PS,
            counters::DEFAULT_SATURATION_THRESHOLD,
        ),
        blame: SweepBlame::fold(name, points, traces),
    };
    let path = cfg.dir.join(format!("{}.trace.json", flat_name(name)));
    if cfg.artifacts {
        std::fs::create_dir_all(&cfg.dir).expect("trace directory must be creatable");
        std::fs::write(
            &path,
            chrome::render(name, traces, counters::DEFAULT_WINDOW_PS),
        )
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        let collapsed = cfg.dir.join(format!("{}.collapsed", flat_name(name)));
        std::fs::write(&collapsed, folds.attribution.collapsed())
            .unwrap_or_else(|e| panic!("write {}: {e}", collapsed.display()));
    }
    let mut all = FOLDS.lock().expect("fold registry poisoned");
    // Re-running a sweep in-process (tests, repeated experiments)
    // replaces its entry instead of duplicating it.
    match all.iter_mut().find(|f| f.summary.sweep == name) {
        Some(slot) => *slot = folds,
        None => all.push(folds),
    }
    Some(path)
}

/// One family's view of every sweep exported so far, in execution order.
fn snapshot<T>(pick: impl Fn(&SweepFolds) -> T) -> Vec<T> {
    let all = FOLDS.lock().expect("fold registry poisoned");
    all.iter().map(pick).collect()
}

/// Snapshot of every sweep summary accumulated so far. `repro` reports
/// event-cap overflow from this.
pub fn summaries() -> Vec<SweepSummary> {
    snapshot(|f| f.summary.clone())
}

/// Snapshot of every sweep blame report accumulated so far. `repro
/// blame` renders its study tables from this.
pub fn blames() -> Vec<SweepBlame> {
    snapshot(|f| f.blame.clone())
}

/// Write one cumulative artifact `<dir>/<file>`: the shared
/// `{schema, sweeps: [...]}` root over `emit` of every sweep exported so
/// far. `Ok(None)` when tracing is off, artifacts are disabled, or
/// nothing recorded.
fn write_artifact(
    file: &str,
    emit: impl Fn(&SweepFolds) -> Value,
) -> std::io::Result<Option<PathBuf>> {
    let Some(cfg) = config().filter(|c| c.artifacts) else {
        return Ok(None);
    };
    let sweeps = snapshot(emit);
    if sweeps.is_empty() {
        return Ok(None);
    }
    let root = Value::Object(vec![
        ("schema".into(), Value::U64(1)),
        ("sweeps".into(), Value::Array(sweeps)),
    ]);
    let path = cfg.dir.join(file);
    std::fs::create_dir_all(&cfg.dir)?;
    std::fs::write(&path, serde_json::value_to_string_pretty(&root))?;
    Ok(Some(path))
}

/// Write the cumulative `telemetry.json` (merged stage histograms and
/// totals per sweep). Returns the path, or `None` when there is nothing
/// to write (see [`write_utilization`]); panics on I/O failure.
pub fn write_summary() -> Option<PathBuf> {
    write_artifact("telemetry.json", |f| f.summary.to_value())
        .unwrap_or_else(|e| panic!("write telemetry.json: {e}"))
}

/// Write the cumulative `attribution.json` (per-stage shares and means
/// per point and per sweep). Returns the path, or `None` when there is
/// nothing to write; panics on I/O failure.
pub fn write_attribution() -> Option<PathBuf> {
    write_artifact("attribution.json", |f| f.attribution.to_value())
        .unwrap_or_else(|e| panic!("write attribution.json: {e}"))
}

/// Write the cumulative `utilization.json` (windowed counter means,
/// peaks, and saturation metrics). Returns `Ok(None)` when tracing is
/// off, artifacts are disabled, or nothing recorded; I/O failures
/// (unwritable directory, ...) surface as errors so the CLI can fail
/// naming the path.
pub fn write_utilization() -> std::io::Result<Option<PathBuf>> {
    write_artifact("utilization.json", |f| f.utilization.to_value())
}

/// Write the cumulative `blame.json` (per-resource source×victim blame
/// matrices); same contract as [`write_utilization`].
pub fn write_blame() -> std::io::Result<Option<PathBuf>> {
    write_artifact("blame.json", |f| f.blame.to_value())
}

/// `num / den`, or 0 when nothing was recorded (`den == 0`): the one
/// rule every mean, fraction and share in the artifacts derives by.
pub(crate) fn frac(num: u128, den: u128) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Saturating `u128 → u64` for emitted picosecond and event sums.
pub(crate) fn clamp(v: u128) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

/// The value filed under `key` in a small association list kept in
/// first-observation order, inserted via `new` when absent. Key sets
/// here are tiny (about a dozen stages, a handful of sources), so a
/// linear scan beats hashing and keeps the order deterministic.
pub(crate) fn slot<K: PartialEq, V>(
    list: &mut Vec<(K, V)>,
    key: K,
    new: impl FnOnce() -> V,
) -> &mut V {
    let i = list.iter().position(|(k, _)| *k == key).unwrap_or_else(|| {
        list.push((key, new()));
        list.len() - 1
    });
    &mut list[i].1
}

/// One sweep's entry in a per-point artifact (`attribution.json`,
/// `utilization.json`, `blame.json`): the envelope
/// `{sweep, <extra...>, points, traced_points, per_point, merged}` that
/// [`walk_sweeps`] parses back.
pub(crate) fn sweep_value(
    sweep: &str,
    extra: Vec<(String, Value)>,
    points: usize,
    per_point: Vec<Value>,
    merged: Value,
) -> Value {
    let mut fields = vec![("sweep".into(), Value::Str(sweep.into()))];
    fields.extend(extra);
    fields.extend([
        ("points".into(), Value::U64(points as u64)),
        ("traced_points".into(), Value::U64(per_point.len() as u64)),
        ("per_point".into(), Value::Array(per_point)),
        ("merged".into(), merged),
    ]);
    Value::Object(fields)
}

/// Parse a per-point artifact and validate the envelope every family
/// shares — schema version, a `sweeps` array, and per sweep a name, full
/// coverage (`traced_points == points`: a sweep with untraced points is
/// a partial artifact) and `per_point` / `merged` entries — then hand
/// `(name, sweep, per_point, merged)` to the family's `visit`. Every
/// failure is collected, not just the first. Returns
/// `(sweeps, traced points)` seen.
pub(crate) fn walk_sweeps(
    text: &str,
    mut visit: impl FnMut(&str, &Value, &[Value], &Value, &mut Vec<String>),
) -> Result<(usize, usize), Vec<String>> {
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
    let mut points = 0;
    for sweep in sweeps {
        let name = sweep
            .get("sweep")
            .and_then(Value::as_str)
            .unwrap_or("<unnamed>");
        let count = |field: &str| sweep.get(field).and_then(Value::as_u64);
        match (count("points"), count("traced_points")) {
            (Some(p), Some(t)) if p == t => {}
            (Some(p), Some(t)) => errors.push(format!(
                "{name}: only {t} of {p} points traced (partial artifact)"
            )),
            _ => errors.push(format!("{name}: missing points/traced_points")),
        }
        let per_point = sweep
            .get("per_point")
            .and_then(Value::as_array)
            .unwrap_or_else(|| {
                errors.push(format!("{name}: missing per_point array"));
                &[]
            });
        points += per_point.len();
        match sweep.get("merged") {
            Some(merged) => visit(name, sweep, per_point, merged, &mut errors),
            None => errors.push(format!("{name}: missing merged entry")),
        }
    }
    if errors.is_empty() {
        Ok((sweeps.len(), points))
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probes_are_inert() {
        assert!(!enabled());
        span("t", "s", Time::ZERO, Time::ns(1));
        latency("s", Dur::ns(1));
        add("c", 1);
        assert!(take().is_none());
    }

    #[test]
    fn install_record_take_round_trip() {
        install(TraceRecorder::new(3, 100));
        assert!(enabled());
        span("t", "s", Time::ZERO, Time::ns(1));
        latency("stage", Dur::ns(5));
        add("c", 2);
        let t = take().expect("recorder was installed");
        assert!(!enabled());
        assert_eq!(t.index, 3);
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.stages[0].0, "stage");
        assert_eq!(t.counters, vec![("c", 2)]);
    }

    #[test]
    fn recorders_are_thread_local() {
        install(TraceRecorder::new(0, 100));
        add("main", 1);
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!enabled(), "other threads must not see the recorder");
                add("other", 1);
                assert!(take().is_none());
            });
        });
        let t = take().expect("main thread recorder intact");
        assert_eq!(t.counters, vec![("main", 1)]);
    }

    /// CI's `trace-parity` job runs this (`cargo test --release -p
    /// thymesim-telemetry -- --ignored reference_tree`) after its
    /// quick-profile traced run. It ties both fast bodies to their
    /// oracles on whole artifact trees:
    ///
    /// * the same recorded sweeps are exported twice under
    ///   `target/reference_tree/` — `fast/` through the shipped ledger
    ///   and streamed renderer, `reference/` through the whole-ledger
    ///   scan and the `Value`-tree renderer — and the trees must match
    ///   file for file (CI also `diff -r`s them);
    /// * every `<repo>/traces/*.trace.json` the quick profile wrote must
    ///   be, byte for byte, the tree encoder's text for the events it
    ///   parses to.
    ///
    /// The oracles are `#[cfg(test)]` items of this crate, which the
    /// simulator cannot link; hence the recorded sweeps come from
    /// [`testkit::mini_mcbn`] and the real tree is checked at the
    /// encoder only.
    #[test]
    #[ignore = "writes target/reference_tree; run on its own by CI"]
    fn reference_tree() {
        use std::path::Path;
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let root = repo.join("target/reference_tree");
        let _ = std::fs::remove_dir_all(&root);
        let window = counters::DEFAULT_WINDOW_PS;
        type Make = fn(usize, usize, u64) -> TraceRecorder;
        let trees: [(&str, Make, bool); 2] = [
            ("fast", TraceRecorder::with_window, false),
            ("reference", TraceRecorder::with_scan_ledgers, true),
        ];
        for (tree, make, reference) in trees {
            configure(TraceConfig {
                dir: root.join(tree),
                ..Default::default()
            });
            // (sweep, instances per point, reads per instance, event cap)
            for (sweep, grid, reads, cap) in [
                ("validate/stream-delay", [1, 1, 1], 600, 20_000),
                ("contention/mcbn", [1, 2, 4], 2_000, 20_000),
                ("contention/capped", [3, 6, 8], 300, 1_000),
            ] {
                let traces: Vec<PointTrace> = (0..grid.len())
                    .map(|i| testkit::mini_mcbn(make(i, cap, window), grid[i], reads))
                    .collect();
                let configs = vec!["{}".to_string(); traces.len()];
                let path = export_sweep(sweep, traces.len(), &traces, &configs).unwrap();
                if reference {
                    let text = chrome::tree::render(sweep, &traces, window);
                    std::fs::write(path, text).unwrap();
                }
            }
            assert!(write_summary().is_some() && write_attribution().is_some());
            assert!(write_utilization().unwrap().is_some() && write_blame().unwrap().is_some());
            disable();
        }
        let files = |tree: &str| {
            let mut names: Vec<String> = std::fs::read_dir(root.join(tree))
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        assert_eq!(files("fast"), files("reference"));
        assert_eq!(files("fast").len(), 3 * 2 + 4);
        for name in files("fast") {
            let read = |tree: &str| std::fs::read(root.join(tree).join(&name)).unwrap();
            assert!(read("fast") == read("reference"), "{name} differs");
        }

        let Ok(quick) = std::fs::read_dir(repo.join("traces")) else {
            eprintln!("no traces/ tree at the repository root: encoder check skipped");
            return;
        };
        for entry in quick {
            let path = entry.unwrap().path();
            if path.to_string_lossy().ends_with(".trace.json") {
                let text = std::fs::read_to_string(&path).unwrap();
                let tree: Value = serde_json::from_str(&text).unwrap();
                assert!(
                    serde_json::to_string(&tree).unwrap() == text,
                    "{} is not what the tree encoder writes",
                    path.display()
                );
            }
        }
    }

    #[test]
    fn flat_name_flattens() {
        assert_eq!(flat_name("fig2/stream-delay"), "fig2_stream_delay");
    }
}
