//! End-to-end exercise of the `repro --baseline-record` /
//! `--baseline-check` stage-regression gate, through the real binary:
//!
//! 1. record a baseline for the pinned quick config;
//! 2. an identical re-run passes the check (deterministic simulator);
//! 3. perturbing one stage mean, one phase band, or one counter
//!    utilization mean beyond tolerance makes the check exit nonzero
//!    *naming that band* — the negative paths CI relies on;
//! 4. a baseline pinning a different command, or a malformed file, is
//!    refused with exit 2 rather than silently compared.
//!
//! Telemetry/sweep state is per-process, and each step runs a fresh
//! `repro` process, so the steps cannot interfere with each other.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use thymesim_telemetry::baseline::Baseline;

fn repro(args: &[&str]) -> Output {
    // Baseline modes simulate every point whatever the cache holds, but
    // they still store results; `--no-cache` keeps the default
    // `results/cache` out of the source tree.
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .arg("--no-cache")
        .output()
        .expect("repro runs")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn check_against(path: &Path) -> Output {
    repro(&[
        "validate",
        "--profile",
        "quick",
        "--jobs",
        "2",
        &format!("--baseline-check={}", path.display()),
    ])
}

#[test]
fn baseline_gate_round_trip_and_negative_path() {
    let dir = std::env::temp_dir().join(format!("thymesim-blgate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bl: PathBuf = dir.join("quick.json");

    // 1. Record.
    let out = repro(&[
        "validate",
        "--profile",
        "quick",
        "--jobs",
        "2",
        &format!("--baseline-record={}", bl.display()),
    ]);
    assert!(out.status.success(), "record failed: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("baseline: recorded"));
    let text = std::fs::read_to_string(&bl).expect("baseline written");
    let base: Baseline = serde_json::from_str(&text).expect("baseline parses");
    assert_eq!(base.command, "validate --profile quick");
    assert!(base.stage_count() >= 6, "anatomy stages pinned");
    assert!(
        base.counter_count() >= 4,
        "utilization counters pinned, got {}",
        base.counter_count()
    );
    assert!(
        base.blame_count() >= 1,
        "blame cross-share bands pinned, got {}",
        base.blame_count()
    );

    // 2. A clean re-run is within tolerance (exactly equal, in fact).
    let out = check_against(&bl);
    assert!(
        out.status.success(),
        "clean check failed: {}",
        stderr_of(&out)
    );
    assert!(stderr_of(&out).contains("baseline: OK"));

    // 3. Perturb one stage mean 1.5x beyond its ±2% band: the check
    //    must exit nonzero and name the drifted stage.
    let mut bad = base.clone();
    let stage = bad.sweeps[0]
        .stages
        .iter_mut()
        .find(|s| s.stage == "fabric.gate_wait")
        .expect("gate stage in baseline");
    stage.mean_ps *= 1.5;
    let bad_path = dir.join("bad.json");
    std::fs::write(&bad_path, serde_json::to_string_pretty(&bad).unwrap()).unwrap();
    let out = check_against(&bad_path);
    assert_eq!(out.status.code(), Some(1), "drift must exit 1");
    let err = stderr_of(&out);
    assert!(err.contains("DRIFT"), "stderr: {err}");
    assert!(
        err.contains("fabric.gate_wait"),
        "offending stage must be named: {err}"
    );
    assert!(err.contains("tolerance"), "delta report expected: {err}");

    // 3b. Perturb one *phase* band while leaving every stage-level mean
    //     untouched: drift confined to a workload phase must still exit
    //     1, naming both the stage and the phase.
    let mut phase_bad = base.clone();
    let (stage_name, phase_name) = {
        let stage = phase_bad.sweeps[0]
            .stages
            .iter_mut()
            .find(|s| s.phases.iter().any(|p| p.count > 0 && p.mean_ps > 0.0))
            .expect("a stage with a populated phase band");
        let phase = stage
            .phases
            .iter_mut()
            .find(|p| p.count > 0 && p.mean_ps > 0.0)
            .unwrap();
        phase.mean_ps *= 1.5;
        (stage.stage.clone(), phase.phase.clone())
    };
    let phase_bad_path = dir.join("phase_bad.json");
    std::fs::write(
        &phase_bad_path,
        serde_json::to_string_pretty(&phase_bad).unwrap(),
    )
    .unwrap();
    let out = check_against(&phase_bad_path);
    assert_eq!(out.status.code(), Some(1), "phase drift must exit 1");
    let err = stderr_of(&out);
    assert!(
        err.contains(&format!("[phase {phase_name}]")),
        "offending phase {phase_name} must be named: {err}"
    );
    assert!(
        err.contains(&stage_name),
        "offending stage {stage_name} must be named: {err}"
    );

    // 3b2. Perturb one stage *p999 tail band* while leaving the stage
    //      mean untouched: a fattened tail with an unmoved mean must
    //      still exit 1, and the report must say p999, not mean.
    let mut tail_bad = base.clone();
    let tail_stage = {
        let stage = tail_bad.sweeps[0]
            .stages
            .iter_mut()
            .find(|s| s.p999_ps > 0)
            .expect("a stage with a populated tail band");
        stage.p999_ps = (stage.p999_ps as f64 * 1.5) as u64;
        stage.stage.clone()
    };
    let tail_bad_path = dir.join("tail_bad.json");
    std::fs::write(
        &tail_bad_path,
        serde_json::to_string_pretty(&tail_bad).unwrap(),
    )
    .unwrap();
    let out = check_against(&tail_bad_path);
    assert_eq!(out.status.code(), Some(1), "tail drift must exit 1");
    let err = stderr_of(&out);
    assert!(
        err.contains(&tail_stage),
        "offending stage {tail_stage} must be named: {err}"
    );
    assert!(err.contains("p999"), "tail band must be named: {err}");

    // 3c. Perturb one *counter* utilization mean while leaving every
    //     stage and phase band untouched: drift confined to a counter
    //     track must still exit 1, naming `counter <name>`.
    let mut counter_bad = base.clone();
    let counter_name = {
        let counter = counter_bad.sweeps[0]
            .counters
            .iter_mut()
            .find(|c| c.mean > 0.0)
            .expect("a populated counter band in the baseline");
        counter.mean *= 1.5;
        counter.name.clone()
    };
    let counter_bad_path = dir.join("counter_bad.json");
    std::fs::write(
        &counter_bad_path,
        serde_json::to_string_pretty(&counter_bad).unwrap(),
    )
    .unwrap();
    let out = check_against(&counter_bad_path);
    assert_eq!(out.status.code(), Some(1), "counter drift must exit 1");
    let err = stderr_of(&out);
    assert!(
        err.contains(&format!("counter {counter_name}")),
        "offending counter {counter_name} must be named: {err}"
    );

    // 3d. Perturb one *blame* cross-share band while leaving every
    //     stage, phase, and counter band untouched: drift confined to
    //     the interference-provenance layer must still exit 1, naming
    //     `blame <resource>`.
    let mut blame_bad = base.clone();
    let blame_resource = {
        let band = blame_bad
            .sweeps
            .iter_mut()
            .flat_map(|s| s.blames.iter_mut())
            .next()
            .expect("a blame band in the baseline");
        // Shift far outside the band whether the pinned share was 0
        // (all-self) or not.
        band.cross_share = band.cross_share * 1.5 + 0.5;
        band.resource.clone()
    };
    let blame_bad_path = dir.join("blame_bad.json");
    std::fs::write(
        &blame_bad_path,
        serde_json::to_string_pretty(&blame_bad).unwrap(),
    )
    .unwrap();
    let out = check_against(&blame_bad_path);
    assert_eq!(out.status.code(), Some(1), "blame drift must exit 1");
    let err = stderr_of(&out);
    assert!(
        err.contains(&format!("blame {blame_resource}")),
        "offending blame band {blame_resource} must be named: {err}"
    );

    // 4a. A baseline recorded from a different command is refused.
    let mut foreign = base.clone();
    foreign.command = "fig4 --profile quick".into();
    let foreign_path = dir.join("foreign.json");
    std::fs::write(
        &foreign_path,
        serde_json::to_string_pretty(&foreign).unwrap(),
    )
    .unwrap();
    let out = check_against(&foreign_path);
    assert_eq!(out.status.code(), Some(2), "command mismatch must exit 2");
    assert!(stderr_of(&out).contains("refusing to compare"));

    // 4b. Malformed and missing files are refused too.
    let garbled = dir.join("garbled.json");
    std::fs::write(&garbled, "{not json").unwrap();
    assert_eq!(check_against(&garbled).status.code(), Some(2));
    assert_eq!(
        check_against(&dir.join("absent.json")).status.code(),
        Some(2)
    );

    let _ = std::fs::remove_dir_all(&dir);
}
