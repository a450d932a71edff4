//! The telemetry determinism contract, enforced end to end:
//!
//! 1. tracing is observational — results are byte-identical with the
//!    recorder on and off;
//! 2. trace artifacts are themselves deterministic — repeated traced
//!    runs, at any `--jobs`, produce byte-identical trace files and a
//!    byte-identical `utilization.json`;
//! 3. every emitted trace passes the structural checker that CI runs
//!    (`trace_check`), including the windowed `util.*` counter-track
//!    rules, and the utilization report passes its own checker.
//!
//! Telemetry and sweep configuration are process-global, so everything
//! lives in one test function — steps must not interleave.

use std::path::{Path, PathBuf};
use thymesim::core::report;
use thymesim::core::sweep::{self, SweepOptions};
use thymesim::prelude::*;
use thymesim_telemetry::{chrome, TraceConfig};

fn stream_cfg() -> StreamConfig {
    let mut s = StreamConfig::tiny();
    s.elements = 8192;
    s
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("thymesim-ttest-{}-{tag}", std::process::id()))
}

/// All `*.trace.json` files in `dir`, as (filename, bytes), sorted.
fn trace_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.unwrap())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".trace.json"))
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn tracing_never_changes_results_and_traces_are_deterministic() {
    let base = TestbedConfig::tiny();
    let periods = [1u64, 20, 100];
    let run = |jobs: usize| {
        sweep::configure(SweepOptions {
            jobs,
            cache: None,
            progress: false,
        });
        report::to_json(&stream_delay_sweep(&base, &stream_cfg(), &periods))
    };

    // Baseline: tracing off.
    thymesim_telemetry::disable();
    let plain = run(4);

    // Tracing on must not perturb a single result byte.
    let dir_a = temp_dir("a");
    let _ = std::fs::remove_dir_all(&dir_a);
    thymesim_telemetry::configure(TraceConfig {
        dir: dir_a.clone(),
        ..Default::default()
    });
    let traced = run(4);
    assert_eq!(
        plain, traced,
        "tracing must be purely observational: results diverged"
    );
    let util_a = thymesim_telemetry::write_utilization()
        .expect("utilization writes")
        .expect("traced sweep folds utilization");
    let blame_a = thymesim_telemetry::write_blame()
        .expect("blame writes")
        .expect("traced sweep folds blame");

    // A second traced run — serial this time — must reproduce the trace
    // files byte for byte (grid-order assembly makes --jobs invisible).
    let dir_b = temp_dir("b");
    let _ = std::fs::remove_dir_all(&dir_b);
    thymesim_telemetry::configure(TraceConfig {
        dir: dir_b.clone(),
        ..Default::default()
    });
    let traced_serial = run(1);
    assert_eq!(plain, traced_serial);
    let util_b = thymesim_telemetry::write_utilization()
        .expect("utilization writes")
        .expect("traced sweep folds utilization");
    let blame_b = thymesim_telemetry::write_blame()
        .expect("blame writes")
        .expect("traced sweep folds blame");

    let a = trace_files(&dir_a);
    let b = trace_files(&dir_b);
    assert!(!a.is_empty(), "traced sweep must emit a trace file");
    assert_eq!(
        a, b,
        "trace files must be byte-identical across runs and --jobs"
    );

    // The windowed counter folds are part of the determinism contract:
    // utilization.json must be byte-identical across runs and --jobs.
    let util_text = std::fs::read_to_string(&util_a).unwrap();
    assert_eq!(
        util_text,
        std::fs::read_to_string(&util_b).unwrap(),
        "utilization.json must be byte-identical across runs and --jobs"
    );
    let stats = thymesim_telemetry::counters::check_utilization(&util_text)
        .unwrap_or_else(|e| panic!("utilization.json invalid: {}", e.join("\n")));
    assert!(stats.sweeps > 0 && stats.points > 0);
    assert!(
        stats.counters > 0,
        "traced STREAM sweep must fold counter tracks"
    );

    // Same contract for the interference-provenance folds: blame.json
    // is byte-identical across runs and --jobs, passes its checker, and
    // a single-instance sweep accrues no cross-blame anywhere.
    let blame_text = std::fs::read_to_string(&blame_a).unwrap();
    assert_eq!(
        blame_text,
        std::fs::read_to_string(&blame_b).unwrap(),
        "blame.json must be byte-identical across runs and --jobs"
    );
    let bstats = thymesim_telemetry::blame::check_blame(&blame_text)
        .unwrap_or_else(|e| panic!("blame.json invalid: {}", e.join("\n")));
    assert!(bstats.sweeps > 0 && bstats.points > 0);
    assert!(
        bstats.resources > 0,
        "traced STREAM sweep must decompose queue waits"
    );
    assert!(
        !blame_text.contains("\"culprit\""),
        "single-instance sweep must have no interferers"
    );

    // Every artifact must satisfy the structural checker CI runs.
    for (name, bytes) in &a {
        let text = String::from_utf8(bytes.clone()).expect("trace is UTF-8");
        let stats = chrome::check(&text).unwrap_or_else(|e| panic!("{name}: invalid trace: {e}"));
        assert!(stats.events > 0, "{name}: trace recorded no events");
        assert!(stats.spans > 0, "{name}: expected span events");
        assert!(stats.counters > 0, "{name}: expected counter samples");
        assert!(
            stats.util_counters > 0,
            "{name}: expected windowed util.* counter-track samples"
        );
        assert!(
            text.contains("util.net.link_busy"),
            "{name}: link busy-fraction track missing"
        );
    }

    // The merged summary exists and parses.
    let summary = thymesim_telemetry::write_summary().expect("summary written");
    let text = std::fs::read_to_string(&summary).unwrap();
    assert!(
        serde_json::from_str::<serde::Value>(&text).is_ok(),
        "telemetry.json must parse"
    );
    assert!(text.contains("\"schema\""));

    // E15's tornado runs the Fig. 2/3 point body under its own sweep
    // name: tracing it leaves the validate entry as the delay sweep
    // exported it, and records the whole tornado grid (base plus six
    // knobs at two factors, four periods each) as one sweep.
    let dir_c = temp_dir("c");
    let _ = std::fs::remove_dir_all(&dir_c);
    thymesim_telemetry::disable();
    thymesim_telemetry::configure(TraceConfig {
        dir: dir_c.clone(),
        ..Default::default()
    });
    run(4);
    tornado(&base, &stream_cfg());
    let points_of = |name: &str| {
        thymesim_telemetry::summaries()
            .into_iter()
            .find(|s| s.sweep == name)
            .map(|s| s.points)
    };
    assert_eq!(
        points_of("validate/stream-delay"),
        Some(periods.len()),
        "the tornado must not overwrite the delay sweep's export"
    );
    assert_eq!(points_of("sensitivity/tornado"), Some(52));

    // Leave the process-global state clean for any later test.
    thymesim_telemetry::disable();
    sweep::configure(SweepOptions::default());
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
    let _ = std::fs::remove_dir_all(&dir_c);
}
