//! `trace_check` — structural validator for every artifact that
//! `repro --trace` emits. CI runs it over `traces/` to guarantee each
//! file is consumable by its intended tool; the validator dispatches on
//! the file name:
//!
//! * `*.trace.json` — Chrome-trace/Perfetto timelines: well-formed
//!   JSON, events with `ph`/`name`, nondecreasing timestamps, complete
//!   events with a nonnegative `dur`, counters with an `args` object,
//!   balanced B/E pairs per lane. `util.*` windowed counter tracks are
//!   checked against the stronger rules: strictly increasing window
//!   timestamps per `(pid, track)`, busy/ratio fractions within [0, 1],
//!   and bounded levels (credit occupancy) never exceeding their bound.
//! * `*.collapsed` — collapsed-stack attribution reports, in exactly
//!   the shape `flamegraph.pl` / `inferno-flamegraph` parse:
//!   `frame;frame;... <integer count>` per line; point-anchored lines
//!   must carry a workload-phase frame with a stage path below it
//!   (`root;point_N;<phase>;read;gate_wait`).
//! * `attribution.json` — per-stage shares/means: schema version,
//!   full coverage (`traced_points == points` in every sweep, as in
//!   the other two fold artifacts), shares in [0, 1] summing to 1 per
//!   attributed point, means consistent with totals and counts,
//!   per-phase sub-slices summing exactly to their stage and free of
//!   orphan phases.
//! * `utilization.json` — windowed counter folds: schema version,
//!   name-sorted counters, fractions within [0, 1], saturation time
//!   within coverage within horizon, means consistent with the integer
//!   accumulators.
//! * `blame.json` — interference-provenance folds: schema version,
//!   sorted resources/victims/culprits, the integer partition invariant
//!   (`self + Σ cross == wait` at every level), cross-share consistency
//!   and top-interferer argmax agreement.
//!
//! * `telemetry.json` — merged stage histograms and totals: schema
//!   version, integer totals per sweep, name-sorted stages with ordered
//!   quantiles and name-sorted counters. Its summary line carries how
//!   many timeline events each sweep kept and how many it dropped at
//!   the per-point cap — the one place a truncated `*.trace.json`
//!   shows (`repro` prints the same counts as `# note:` lines).
//!
//! ```text
//! cargo run --release -p thymesim-bench --bin trace_check -- \
//!     traces/*.trace.json traces/*.collapsed traces/telemetry.json \
//!     traces/attribution.json traces/utilization.json traces/blame.json
//! ```
//!
//! Every failure in a file is reported, not just the first, and the
//! checker keeps going across files. Exit status: 0 when every file
//! validates, 1 otherwise.

use thymesim_telemetry::{attribution, blame, chrome, counters, summary};

/// One artifact family's checker: the `ok (...)` summary, or every
/// failure found.
type Checker = fn(&str) -> Result<String, Vec<String>>;

/// File-name suffix → checker, first match wins; the empty suffix makes
/// everything else a Chrome-trace timeline.
const CHECKERS: [(&str, Checker); 6] = [
    (".collapsed", |text| {
        let stats = attribution::check_collapsed(text).map_err(|e| vec![e])?;
        Ok(format!(
            "ok ({} stacks over {} points / {} phase towers, {} ps total)",
            stats.lines, stats.points, stats.phases, stats.total
        ))
    }),
    ("attribution.json", |text| {
        let stats = attribution::check_attribution(text)?;
        Ok(format!(
            "ok ({} sweeps, {} points, {} stage slices, {} phase slices)",
            stats.sweeps, stats.points, stats.slices, stats.phases
        ))
    }),
    ("blame.json", |text| {
        let stats = blame::check_blame(text)?;
        Ok(format!(
            "ok ({} sweeps, {} points, {} resource reports, {} victims)",
            stats.sweeps, stats.points, stats.resources, stats.victims
        ))
    }),
    ("utilization.json", |text| {
        let stats = counters::check_utilization(text)?;
        Ok(format!(
            "ok ({} sweeps, {} points, {} counter reports)",
            stats.sweeps, stats.points, stats.counters
        ))
    }),
    ("telemetry.json", |text| {
        let stats = summary::check_summary(text)?;
        let capped: Vec<String> = stats
            .capped
            .iter()
            .map(|(sweep, dropped)| format!("{sweep} {dropped}"))
            .collect();
        Ok(format!(
            "ok ({} sweeps, {} timeline events kept, {} dropped at the per-point cap{}{})",
            stats.sweeps,
            stats.events,
            stats.dropped,
            if capped.is_empty() { "" } else { ": " },
            capped.join(", ")
        ))
    }),
    ("", |text| {
        let stats = chrome::check_all(text)?;
        Ok(format!(
            "ok ({} events: {} spans, {} instants, {} counter samples, \
             {} windowed utilization samples)",
            stats.events, stats.spans, stats.instants, stats.counters, stats.util_counters
        ))
    }),
];

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!(
            "usage: trace_check \
             <trace.json|*.collapsed|telemetry.json|attribution.json|utilization.json|blame.json>..."
        );
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: unreadable: {e}");
                failed = true;
                continue;
            }
        };
        let (_, check) = CHECKERS
            .iter()
            .find(|(suffix, _)| path.ends_with(suffix))
            .expect("the empty suffix matches every path");
        match check(&text) {
            Ok(msg) => println!("{path}: {msg}"),
            Err(errors) => {
                eprintln!("{path}: INVALID ({} failure(s)):", errors.len());
                for e in &errors {
                    eprintln!("{path}:   {e}");
                }
                failed = true;
            }
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}
