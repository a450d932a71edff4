//! Golden-trace corpus: the attribution artifacts for the pinned quick
//! configuration (`repro validate`, `table1` and `kernels` at
//! `--profile quick --trace`) are committed under `tests/golden/` and
//! this test regenerates them in-process and byte-compares. For
//! `validate/stream-delay` (the paper's Fig. 2/3 read anatomy) the
//! corpus also pins `utilization.json` and `blame.json`, so its stage
//! and phase means, tails, counter means and blame shares are all
//! checked exactly.
//!
//! Because folding is order-independent and trace assembly is
//! grid-ordered, the artifacts must match whatever the thread count:
//! the test generates them at `--jobs 1` *and* `--jobs 4` and
//! byte-compares the two before comparing against the fixtures (CI
//! additionally runs the whole test with `THYMESIM_GOLDEN_JOBS=1`,
//! which pins both runs to one worker). The fixtures also pin the
//! simulator's timing model — including the per-workload-phase split
//! (STREAM kernel frames such as `copy`/`triad` in the collapsed
//! stacks): any change to stage latencies or phase attribution shows
//! up as a byte diff here.
//!
//! To re-bless after an intentional model change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test attribution_golden
//! ```
//!
//! then commit the rewritten files under `tests/golden/`.

use std::path::{Path, PathBuf};
use thymesim::core::experiments::apps::{kernel_scale, table1};
use thymesim::core::experiments::validate::{stream_delay_sweep, FIG2_PERIODS};
use thymesim::core::sweep::{self, SweepOptions};
use thymesim_bench::Profile;
use thymesim_telemetry::{attribution, TraceConfig};

const GOLDEN_DIR: &str = "tests/golden";
const FIXTURES: [&str; 6] = [
    "validate_stream_delay.collapsed",
    "apps_table1.collapsed",
    "attribution.json",
    "apps_kernels.collapsed",
    "utilization.json",
    "blame.json",
];

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(GOLDEN_DIR)
        .join(name)
}

/// Generate the quick-profile attribution artifacts into `dir` with the
/// given worker count.
fn generate(dir: &Path, jobs: usize) {
    let profile = Profile::quick();
    let _ = std::fs::remove_dir_all(dir);
    sweep::configure(SweepOptions {
        jobs,
        cache: None,
        progress: false,
    });
    thymesim_telemetry::configure(TraceConfig {
        dir: dir.to_path_buf(),
        ..Default::default()
    });
    stream_delay_sweep(&profile.testbed, &profile.stream, &FIG2_PERIODS);
    // Written before any other sweep runs, so these two cover
    // `validate/stream-delay` only: its counter means and blame shares.
    thymesim_telemetry::write_utilization().expect("utilization.json written");
    thymesim_telemetry::write_blame().expect("blame.json written");
    // The apps sweep adds Redis KV and Graph500 BFS/SSSP towers so the
    // corpus pins every workload family's phase frames, not just STREAM's.
    table1(&profile.testbed, &profile.apps);
    thymesim_telemetry::write_attribution().expect("attribution.json written");
    // The GAP kernels on the compressed CSR pin the seam's other layout.
    // This sweep runs after `attribution.json` is written, so that file
    // covers the two sweeps above only.
    kernel_scale(&profile.testbed, &profile.kernels);
    thymesim_telemetry::disable();
    sweep::configure(SweepOptions::default());
}

#[test]
fn quick_profile_attribution_matches_golden_fixtures() {
    // `--jobs` must be invisible in the artifacts: generate at two
    // worker counts and byte-compare before touching the fixtures.
    // THYMESIM_GOLDEN_JOBS overrides the parallel run's worker count
    // (CI uses =1 to make even the second run serial).
    let jobs = std::env::var("THYMESIM_GOLDEN_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let dir = std::env::temp_dir().join(format!("thymesim-golden-{}", std::process::id()));
    let serial_dir = dir.with_extension("serial");
    generate(&serial_dir, 1);
    generate(&dir, jobs);
    for name in FIXTURES {
        let serial = std::fs::read(serial_dir.join(name)).expect("serial artifact emitted");
        let parallel = std::fs::read(dir.join(name)).expect("parallel artifact emitted");
        assert!(
            serial == parallel,
            "{name} differs between --jobs 1 and --jobs {jobs}; \
             the fold must be order-independent"
        );
    }
    let _ = std::fs::remove_dir_all(&serial_dir);

    // Fresh artifacts must themselves pass the structural validators.
    let collapsed = std::fs::read_to_string(dir.join(FIXTURES[0])).expect("collapsed emitted");
    let stats = attribution::check_collapsed(&collapsed).expect("flamegraph-shaped");
    assert_eq!(stats.points, FIG2_PERIODS.len(), "one tower per grid point");
    assert!(
        stats.phases > stats.points,
        "STREAM points must split into multiple phase towers, got {} over {} points",
        stats.phases,
        stats.points
    );
    for kernel in ["copy", "scale", "add", "triad"] {
        assert!(
            collapsed.contains(&format!(";{kernel};read;")),
            "collapsed output must carry a {kernel} phase frame"
        );
    }
    // The apps sweep must carry KV request-phase and graph level/bucket
    // frames — no workload family may fold entirely into `unphased` —
    // plus the GAP-kernel phase taxonomy (CC sweeps, BC's two passes,
    // TC's single counting phase).
    let apps = std::fs::read_to_string(dir.join(FIXTURES[1])).expect("apps collapsed emitted");
    attribution::check_collapsed(&apps).expect("apps collapsed flamegraph-shaped");
    for frame in [
        "kv_warmup",
        "kv_steady",
        "bfs_level_1",
        "sssp_bucket_0",
        "pagerank_push",
        "cc_iter_0",
        "bc_forward",
        "bc_backward",
        "tc_count",
    ] {
        assert!(
            apps.contains(&format!(";{frame};")),
            "apps_table1.collapsed must carry a {frame} phase frame"
        );
    }
    let att = std::fs::read_to_string(dir.join(FIXTURES[2])).expect("attribution emitted");
    let astats = attribution::check_attribution(&att).expect("valid attribution.json");
    assert!(
        astats.sweeps >= 2,
        "both sweeps folded into attribution.json"
    );
    assert!(astats.phases > 0, "phase slices present");

    if std::env::var("UPDATE_GOLDEN").is_ok() {
        for name in FIXTURES {
            std::fs::create_dir_all(golden_path(name).parent().unwrap()).unwrap();
            std::fs::copy(dir.join(name), golden_path(name)).unwrap();
            eprintln!("re-blessed {}", golden_path(name).display());
        }
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }

    for name in FIXTURES {
        let fresh = std::fs::read(dir.join(name)).unwrap();
        let golden = std::fs::read(golden_path(name)).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {} ({e}); generate it with \
                 UPDATE_GOLDEN=1 cargo test --test attribution_golden",
                golden_path(name).display()
            )
        });
        if let Some(diff) = first_difference(&fresh, &golden) {
            panic!(
                "{name} diverged from tests/golden/{name} (jobs={jobs}) {diff}\n\
                 If the timing model changed intentionally, re-bless with\n\
                 UPDATE_GOLDEN=1 cargo test --test attribution_golden",
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Where `fresh` first departs from `golden`: the 1-based line number
/// and that line from both sides, or `None` when they are equal.
fn first_difference(fresh: &[u8], golden: &[u8]) -> Option<String> {
    if fresh == golden {
        return None;
    }
    let (fresh, golden) = (
        String::from_utf8_lossy(fresh),
        String::from_utf8_lossy(golden),
    );
    let (mut fresh_lines, mut golden_lines) = (fresh.split('\n'), golden.split('\n'));
    let show = |l: Option<&str>| l.map_or("<end of file>".to_string(), |l| format!("`{l}`"));
    let mut line = 1;
    loop {
        match (fresh_lines.next(), golden_lines.next()) {
            (Some(f), Some(g)) if f == g => line += 1,
            (f, g) => {
                return Some(format!(
                    "at line {line}:\n  fresh:  {}\n  golden: {}",
                    show(f),
                    show(g)
                ))
            }
        }
    }
}
