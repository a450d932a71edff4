//! The sweep harness's CLI-level guarantees, exercised through real
//! experiment entry points: `--jobs 1` and `--jobs 8` produce
//! byte-identical reports, and a cache-hit re-run reproduces the same
//! bytes without simulating a single point.
//!
//! These are the same properties the `repro-quick` CI job checks from
//! the outside via the `repro` binary; here they run in-process so the
//! point-run counter can be asserted directly.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use thymesim::core::report;
use thymesim::core::sweep::{self, SweepOptions};
use thymesim::prelude::*;

/// Sweep options are process-global (the `repro` CLI installs them
/// once at startup); tests that install options must not interleave.
fn options_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn stream_cfg() -> StreamConfig {
    let mut s = StreamConfig::tiny();
    s.elements = 8192;
    s
}

fn temp_cache(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("thymesim-dtest-{}-{tag}", std::process::id()))
}

#[test]
fn jobs_1_and_jobs_8_reports_are_byte_identical() {
    let _guard = options_lock();
    let base = TestbedConfig::tiny();
    let run_at = |jobs: usize| {
        sweep::configure(SweepOptions {
            jobs,
            cache: None,
            progress: false,
        });
        let points = stream_delay_sweep(&base, &stream_cfg(), &[1, 20, 50, 100]);
        report::to_json(&points)
    };
    let serial = run_at(1);
    let parallel = run_at(8);
    sweep::configure(SweepOptions::default());
    assert_eq!(
        serial, parallel,
        "--jobs 1 and --jobs 8 must render byte-identical JSON"
    );
}

#[test]
fn cached_rerun_is_identical_and_simulates_nothing() {
    let _guard = options_lock();
    let dir = temp_cache("cache-hit");
    let _ = std::fs::remove_dir_all(&dir);
    let base = TestbedConfig::tiny();
    let opts = SweepOptions {
        jobs: 4,
        cache: Some(dir.clone()),
        progress: false,
    };

    sweep::configure(opts.clone());
    let first = report::to_json(&mcbn(&base, &stream_cfg(), &[1, 2]));
    let before = sweep::simulated_point_count();

    sweep::configure(opts);
    let second = report::to_json(&mcbn(&base, &stream_cfg(), &[1, 2]));
    let after = sweep::simulated_point_count();
    sweep::configure(SweepOptions::default());

    assert_eq!(first, second, "cache-served results must be byte-identical");
    assert_eq!(after, before, "a fully cached re-run must simulate nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `serve_tail` over `contention` at `--jobs 1` and `--jobs parallel`,
/// rendered to JSON.
fn serve_tail_json(contention: &[(ServeContention, usize)], parallel: usize) -> (String, String) {
    let _guard = options_lock();
    let base = TestbedConfig::tiny();
    let serve = ServeConfig {
        arrivals: 400,
        ..ServeConfig::tiny()
    };
    let run_at = |jobs: usize| {
        sweep::configure(SweepOptions {
            jobs,
            cache: None,
            progress: false,
        });
        let points = serve_tail(
            &base,
            &serve,
            &stream_cfg(),
            &[1, 100],
            contention,
            &[20_000.0],
        );
        report::to_json(&points)
    };
    let out = (run_at(1), run_at(parallel));
    sweep::configure(SweepOptions::default());
    out
}

#[test]
fn serve_tail_jobs_1_and_jobs_8_are_byte_identical() {
    let (serial, parallel) =
        serve_tail_json(&[(ServeContention::None, 0), (ServeContention::Mcbn, 1)], 8);
    assert_eq!(
        serial, parallel,
        "serve_tail must render byte-identical JSON at any --jobs"
    );
}

/// The lender-side axis: looping background parties on the lender node
/// interleave with the engine on the process executor.
#[test]
fn serve_tail_mcln_jobs_1_and_jobs_4_are_byte_identical() {
    let (serial, parallel) =
        serve_tail_json(&[(ServeContention::None, 0), (ServeContention::Mcln, 2)], 4);
    assert_eq!(
        serial, parallel,
        "serve_tail with lender-side background must not depend on --jobs"
    );
}
