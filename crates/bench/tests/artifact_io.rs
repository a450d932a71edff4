//! The end-of-run telemetry artifacts through the real binaries.
//!
//! Negative IO paths: when `utilization.json` or `blame.json` cannot be
//! written, `repro` must exit nonzero and name the offending path — a
//! silent `Ok` here would let CI publish a trace tree with the fold
//! artifacts missing. The trick: pre-create the artifact *as a
//! directory* under `--trace-out`, so every earlier write (timelines,
//! collapsed stacks, attribution) succeeds and only the final
//! `fs::write` of that one artifact fails with EISDIR.
//!
//! Coverage: a traced run on a warm result cache must still produce
//! artifacts covering every point, and `trace_check` must refuse a
//! partial artifact and report every defect of a broken one.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Output;
use thymesim_sim::{Dur, Time};
use thymesim_telemetry::{
    PointTrace, SweepAttribution, SweepBlame, SweepUtilization, TraceRecorder,
};

fn run_validate_with_blocked(artifact: &str) -> (Output, PathBuf) {
    let dir =
        std::env::temp_dir().join(format!("thymesim-artio-{}-{artifact}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let traces = dir.join("traces");
    let blocked = traces.join(artifact);
    std::fs::create_dir_all(&blocked).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "validate",
            "--profile",
            "quick",
            "--jobs",
            "2",
            "--no-cache",
            "--out",
        ])
        .arg(dir.join("results"))
        .arg("--trace")
        .arg("--trace-out")
        .arg(&traces)
        .output()
        .expect("repro runs");
    (out, blocked)
}

fn assert_names_path(artifact: &str, out: &Output, blocked: &Path) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{artifact}: unwritable artifact must fail the run: {stderr}"
    );
    assert!(
        stderr.contains(&format!("cannot write {}", blocked.display())),
        "{artifact}: error must name the offending path {}: {stderr}",
        blocked.display()
    );
    let _ = std::fs::remove_dir_all(blocked.parent().unwrap().parent().unwrap());
}

#[test]
fn unwritable_utilization_json_fails_and_names_the_path() {
    let (out, blocked) = run_validate_with_blocked("utilization.json");
    assert_names_path("utilization.json", &out, &blocked);
}

#[test]
fn unwritable_blame_json_fails_and_names_the_path() {
    let (out, blocked) = run_validate_with_blocked("blame.json");
    assert_names_path("blame.json", &out, &blocked);
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("thymesim-artio-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A traced sweep never reads the result cache, so the fold artifacts
/// of a run on a fully warm cache still cover every grid point.
#[test]
fn traced_run_on_a_warm_cache_covers_every_point() {
    let dir = scratch("warm");
    let (results, traces) = (dir.join("results"), dir.join("traces"));
    let validate = |extra: &[&std::ffi::OsStr]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["validate", "--profile", "quick", "--jobs", "2", "--out"])
            .arg(&results)
            .args(extra)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "repro validate failed: {stderr}");
        stderr
    };
    validate(&[]);
    let untraced_rerun = validate(&[]);
    assert!(
        untraced_rerun.contains("(0 points simulated)"),
        "the cache must be warm before the traced run: {untraced_rerun}"
    );
    let traced_run = validate(&[
        "--trace".as_ref(),
        "--trace-out".as_ref(),
        traces.as_os_str(),
    ]);
    assert_overflow_is_reported(&traced_run, &traces.join("telemetry.json"));
    for name in ["attribution.json", "utilization.json", "blame.json"] {
        let text = std::fs::read_to_string(traces.join(name))
            .unwrap_or_else(|e| panic!("{name} must exist after a warm-cache traced run: {e}"));
        let root: Value = serde_json::from_str(&text).expect("artifact is JSON");
        let sweeps = root.get("sweeps").and_then(Value::as_array).unwrap();
        assert!(!sweeps.is_empty(), "{name}: no sweeps");
        for sweep in sweeps {
            let count = |field: &str| sweep.get(field).and_then(Value::as_u64).unwrap();
            assert!(count("points") > 0, "{name}: empty sweep");
            assert_eq!(
                count("traced_points"),
                count("points"),
                "{name}: sweep {:?} is partial on a warm cache",
                sweep.get("sweep")
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every sweep whose timeline overflowed the per-point event cap is
/// named, with the counts `telemetry.json` holds, by a `# note:` line
/// of the run and by `trace_check`'s summary of that file.
fn assert_overflow_is_reported(stderr: &str, telemetry_json: &Path) {
    let text = std::fs::read_to_string(telemetry_json).expect("telemetry.json exists");
    let root: Value = serde_json::from_str(&text).expect("telemetry.json is JSON");
    let check = std::process::Command::new(env!("CARGO_BIN_EXE_trace_check"))
        .arg(telemetry_json)
        .output()
        .expect("trace_check runs");
    let summary = String::from_utf8_lossy(&check.stdout);
    assert!(check.status.success(), "telemetry.json must validate");
    let mut capped = 0;
    for sweep in root.get("sweeps").and_then(Value::as_array).unwrap() {
        let name = sweep.get("sweep").and_then(Value::as_str).unwrap();
        let count = |field: &str| sweep.get(field).and_then(Value::as_u64).unwrap();
        let (kept, dropped) = (count("events"), count("dropped"));
        let note = format!(
            "# note: {name}: kept {kept}, dropped {dropped} timeline events (cap 20000 per point;"
        );
        assert_eq!(stderr.contains(&note), dropped > 0, "{name}: {stderr}");
        assert_eq!(
            summary.contains(&format!("{name} {dropped}")),
            dropped > 0,
            "{name}: {summary}"
        );
        capped += usize::from(dropped > 0);
    }
    assert!(capped > 0, "quick validate overflows the cap: {text}");
}

/// One recorded point with a read anatomy, a busy counter and a
/// contended gate — enough for all three per-point artifact families.
fn recorded_point(index: usize) -> PointTrace {
    let mut r = TraceRecorder::new(index, 16);
    r.latency("credit.wait", Dur::ns(4));
    r.latency("fabric.gate_wait", Dur::ns(6));
    r.counter_busy("net.link_busy", Time::ZERO, Time::ns(3));
    r.source_begin("inst", 0);
    r.blame_occupy("gate", Time::ZERO, Time::ns(6));
    r.source_begin("inst", 1);
    r.blame_wait("gate", Time::ns(1), Time::ns(5));
    r.finish()
}

/// Write `{schema, sweeps}` to `<dir>/<name>` and run `trace_check` on it.
fn trace_check(dir: &Path, name: &str, sweeps: Vec<Value>) -> Output {
    let root = Value::Object(vec![
        ("schema".into(), Value::U64(1)),
        ("sweeps".into(), Value::Array(sweeps)),
    ]);
    let path = dir.join(name);
    std::fs::write(&path, serde_json::to_string_pretty(&root).unwrap()).unwrap();
    std::process::Command::new(env!("CARGO_BIN_EXE_trace_check"))
        .arg(&path)
        .output()
        .expect("trace_check runs")
}

#[test]
fn trace_check_reports_every_defect_of_a_broken_attribution() {
    let dir = scratch("defects");
    let points = [recorded_point(0), recorded_point(1)];
    let good = SweepAttribution::fold("sw_good", 2, &points, &[]);
    let out = trace_check(&dir, "attribution.json", vec![good.to_value()]);
    assert!(out.status.success(), "the unbroken artifact validates");
    // Two independent defects, in two different sweeps.
    let mut a = SweepAttribution::fold("sw_a", 2, &points, &[]);
    a.merged.anatomy[0].share = Some(7.5);
    let mut b = SweepAttribution::fold("sw_b", 2, &points, &[]);
    b.per_point[0].anatomy[0].mean_ps *= 3.0;
    let out = trace_check(&dir, "attribution.json", vec![a.to_value(), b.to_value()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("sw_a/credit.wait: share 7.5 outside [0, 1]"),
        "first defect must be reported: {stderr}"
    );
    assert!(
        stderr.contains("sw_b/credit.wait: mean") && stderr.contains("inconsistent"),
        "second defect must be reported too: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_check_refuses_partial_artifacts_naming_the_sweep() {
    let dir = scratch("partial");
    // A three-point grid of which only two points recorded.
    let points = [recorded_point(0), recorded_point(2)];
    let families = [
        (
            "attribution.json",
            SweepAttribution::fold("sw_cut", 3, &points, &[]).to_value(),
        ),
        (
            "utilization.json",
            SweepUtilization::fold("sw_cut", 3, &points, 1_000, 0.9).to_value(),
        ),
        (
            "blame.json",
            SweepBlame::fold("sw_cut", 3, &points).to_value(),
        ),
    ];
    for (name, sweep) in families {
        let out = trace_check(&dir, name, vec![sweep]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr.contains("sw_cut: only 2 of 3 points traced"),
            "{name}: the partial sweep must be named: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
