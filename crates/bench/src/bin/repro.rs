//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p thymesim-bench --bin repro -- all
//! cargo run --release -p thymesim-bench --bin repro -- fig2 --profile quick
//! ```
//!
//! Subcommands: one per row of the `EXPERIMENTS` table below, plus
//! `all` and `list` — `repro list` prints them with what each produces.
//!
//! Profiles trade run time for scale (working sets and caches scale
//! together so every workload stays memory-bound):
//! `quick` ≈ seconds, `medium` (default) ≈ a few minutes, `paper` uses
//! the paper's sizes (10 M-element STREAM, scale-20 Graph500).
//!
//! Execution flags (see `thymesim_core::sweep`):
//! * `--jobs N` — worker threads per sweep (default: all cores;
//!   `--jobs 1` runs serially and produces byte-identical output).
//! * `--no-cache` — disable the per-point memoization cache (default:
//!   `<out>/cache`, or `results/cache` without `--out`).
//! * `--trace[=<filter>]` — record virtual-time telemetry: one
//!   Perfetto-loadable `<sweep>.trace.json` per sweep plus a merged
//!   `telemetry.json`, written to `--trace-out <dir>` (default
//!   `traces/`). Also emits one collapsed-stack `<sweep>.collapsed`
//!   per sweep (render with `flamegraph.pl` / `inferno-flamegraph`),
//!   with a workload-phase frame between point and stage
//!   (`root;point_N;<phase>;read;gate_wait`), and a merged
//!   `attribution.json` of per-stage shares and means with per-phase
//!   sub-slices that sum exactly to each stage. Windowed counter
//!   samples (`util.*` tracks: credit occupancy, link/DRAM busy
//!   fractions, gate queue depth, outstanding reads, LLC miss rate)
//!   render into the same `<sweep>.trace.json`, and their folds land
//!   in a merged `utilization.json` of time-weighted means, peaks and
//!   saturation metrics per point and per sweep.
//!   The optional filter substring selects which sweeps record.
//!   Tracing never changes `results/` — it is observational. A traced
//!   sweep never reads the cache (a cache hit records nothing), so its
//!   artifacts always cover the whole grid.
//!
//! Any other argument after the command exits 2 naming it; the flag
//! table is `thymesim_bench::Flags`.

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use thymesim_bench::{Flags, Profile};
use thymesim_core::experiments::{
    ablate, apps, beyond, contention, dist, placement, qos, resilience, sensitivity, validate,
};
use thymesim_core::report;
use thymesim_core::runners::GraphKernel;
use thymesim_core::sweep::{self, SweepOptions};
use thymesim_net::LinkConfig;
use thymesim_sim::Dur;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let flags = Flags::parse(args.get(1..).unwrap_or_default()).unwrap_or_else(|e| usage_error(&e));
    let profile = flags.profile().unwrap_or_else(|e| usage_error(&e));
    if let Some(dir) = flags.get("--out").flatten() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("# error: cannot create --out directory {dir}: {e}");
            std::process::exit(1);
        }
        OUT_DIR.set(PathBuf::from(dir)).ok();
    }

    let jobs = match flags.get("--jobs").flatten() {
        None => thymesim_sim::default_jobs(),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => usage_error(&format!("--jobs expects a positive integer, got '{v}'")),
        },
    };
    let cache = if flags.get("--no-cache").is_some() {
        None
    } else {
        let base = OUT_DIR
            .get()
            .cloned()
            .unwrap_or_else(|| PathBuf::from("results"));
        Some(base.join("cache"))
    };
    eprintln!("# profile: {} ({})", profile.name, profile.describe());
    eprintln!(
        "# jobs: {jobs}, cache: {}",
        cache
            .as_deref()
            .map_or("disabled".into(), |p| p.display().to_string())
    );
    sweep::configure(SweepOptions {
        jobs,
        cache,
        progress: true,
    });
    // `--trace` alone traces every sweep; `--trace=<s>` only sweeps
    // whose name contains `s`.
    if let Some(filter) = flags.get("--trace") {
        let dir = PathBuf::from(flags.get("--trace-out").flatten().unwrap_or("traces"));
        eprintln!(
            "# tracing: on (filter: {}), traces: {}",
            filter.unwrap_or("all sweeps"),
            dir.display()
        );
        thymesim_telemetry::configure(thymesim_telemetry::TraceConfig {
            filter: filter.map(str::to_string),
            dir,
            ..Default::default()
        });
    } else if cmd == "blame" {
        // The blame study is a telemetry consumer: it needs the
        // recorder on even without --trace, but writes no artifacts.
        eprintln!("# tracing: summary-only (blame provenance)");
        thymesim_telemetry::configure(thymesim_telemetry::TraceConfig {
            artifacts: false,
            ..Default::default()
        });
    }

    let started = Instant::now();
    match cmd {
        "list" => print_list(),
        "all" => {
            for (names, _, in_all, run) in EXPERIMENTS {
                if in_all {
                    timed(names[0], || run(&profile));
                }
            }
        }
        _ => match EXPERIMENTS.iter().find(|(names, ..)| names.contains(&cmd)) {
            Some((names, _, _, run)) => timed(names[0], || run(&profile)),
            None => usage_error(&format!(
                "unknown experiment '{cmd}'; expected one of: {}",
                command_names().join(" ")
            )),
        },
    }
    if cmd != "list" {
        eprintln!(
            "# total: {:.2?} wall-clock ({} points simulated)",
            started.elapsed(),
            sweep::simulated_point_count()
        );
        note_dropped_events();
        for (name, write) in ARTIFACTS {
            write_artifact(name, write());
        }
    }
}

/// One experiment: its command names (the first is canonical, the rest
/// are aliases), what it produces, whether `all` runs it, its runner.
type Experiment = (&'static [&'static str], &'static str, bool, fn(&Profile));

/// Every experiment, in `all` order. Dispatch, `list`, `all` and the
/// unknown-command message all read this table.
#[rustfmt::skip] // one row per experiment
const EXPERIMENTS: [Experiment; 18] = [
    (&["validate", "fig2", "fig3"], "Fig 2 + Fig 3 + §III-B checks", true, run_validate),
    (&["fig4"], "Fig 4 reliability sweep", true, run_fig4),
    (&["table1"], "Table I application impact", true, run_table1),
    (&["fig5"], "Fig 5 degradation sweep", true, run_fig5),
    (&["fig6"], "Fig 6 MCBN contention", true, run_fig6),
    (&["fig7"], "Fig 7 MCLN contention", true, run_fig7),
    (&["dram"], "E18 MCLN on the banked row-buffer DRAM model", true, run_dram),
    (&["dist"], "§VII distribution-driven injection", true, run_dist),
    (&["ablate"], "window/BDP, write-back gating, KV pipelining", true, run_ablate),
    (&["congestion"], "E11 switched-fabric congestion + emulation fidelity", true, run_congestion),
    (&["topology"], "E11b intra- vs cross-rack borrowing", true, run_topology),
    (&["pooling"], "E12 §V memory pooling", true, run_pooling),
    (&["qos"], "E13 §IV-D page migration", true, run_qos),
    (&["serve"], "E17 open-loop serving tails + admission control", true, run_serve),
    (&["sensitivity"], "E15 calibration tornado", true, run_sensitivity),
    (&["placement"], "E16 contention-aware allocator", true, run_placement),
    (&["kernels"], "E19 GAP kernels (CC/BC/TC) at scale on flat vs compressed CSR", true, run_kernels),
    (&["blame"], "E20 interference provenance: per-source queueing blame", false, run_blame),
];

/// Every name `repro` dispatches on: experiments with their aliases,
/// then the two meta commands.
fn command_names() -> Vec<&'static str> {
    let experiments = EXPERIMENTS.iter().flat_map(|(names, ..)| names.iter());
    experiments.copied().chain(["all", "list"]).collect()
}

fn print_list() {
    println!("{:<12}paper artifact / extension", "experiment");
    for (names, what, ..) in EXPERIMENTS {
        let aliases = match &names[1..] {
            [] => String::new(),
            rest => format!(" (aliases: {})", rest.join(" ")),
        };
        println!("{:<12}{what}{aliases}", names[0]);
    }
    let skipped: Vec<&str> = EXPERIMENTS
        .iter()
        .filter(|(_, _, in_all, _)| !in_all)
        .map(|(names, ..)| names[0])
        .collect();
    println!(
        "{:<12}everything above (except {}, a telemetry study)",
        "all",
        skipped.join(", ")
    );
    println!("{:<12}this table", "list");
}

/// Say which traced sweeps overflowed the per-point event cap: their
/// `*.trace.json` timelines stop early, and otherwise only a `dropped`
/// field inside `telemetry.json` shows it.
fn note_dropped_events() {
    for s in thymesim_telemetry::summaries() {
        if s.dropped > 0 {
            eprintln!(
                "# note: {}: kept {}, dropped {} timeline events (cap {} per point; \
                 histograms, counters and blame are uncapped)",
                s.sweep,
                s.events,
                s.dropped,
                thymesim_telemetry::counters::DEFAULT_MAX_EVENTS_PER_POINT
            );
        }
    }
}

/// Writes one merged telemetry artifact: the path, or `None` when
/// there was nothing to write.
type ArtifactWriter = fn() -> std::io::Result<Option<PathBuf>>;

/// The merged telemetry artifacts, each with its writer.
const ARTIFACTS: [(&str, ArtifactWriter); 4] = [
    ("telemetry.json", || Ok(thymesim_telemetry::write_summary())),
    ("attribution.json", || {
        Ok(thymesim_telemetry::write_attribution())
    }),
    ("utilization.json", thymesim_telemetry::write_utilization),
    ("blame.json", thymesim_telemetry::write_blame),
];

/// Report one merged telemetry artifact write, naming the full offending
/// path on failure (the io::Error alone carries only the OS message).
fn write_artifact(name: &str, outcome: std::io::Result<Option<PathBuf>>) {
    match outcome {
        Ok(Some(path)) => eprintln!("# wrote {}", path.display()),
        Ok(None) => {}
        Err(e) => {
            let path = thymesim_telemetry::config()
                .map(|c| c.dir.join(name))
                .unwrap_or_else(|| PathBuf::from(name));
            eprintln!("# error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

static OUT_DIR: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();

/// Time one experiment and report its wall-clock on stderr.
fn timed(label: &str, f: impl FnOnce()) {
    let t = Instant::now();
    f();
    eprintln!("# {label}: {:.2?} wall-clock", t.elapsed());
}

/// Report a bad command line and exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Persist an experiment's series as JSON when `--out` was given.
fn save_json<T: serde::Serialize>(name: &str, value: &T) {
    if let Some(dir) = OUT_DIR.get() {
        let path = dir.join(format!("{name}.json"));
        let mut f = std::fs::File::create(&path)
            .unwrap_or_else(|e| panic!("create {}: {e}", path.display()));
        f.write_all(report::to_json(value).as_bytes())
            .expect("write results json");
        eprintln!("# wrote {}", path.display());
    }
}

fn banner(title: &str) {
    println!("\n## {title}\n");
}

fn run_validate(p: &Profile) {
    banner("Fig. 2 + Fig. 3 — STREAM latency/bandwidth vs PERIOD (lender idle)");
    let points = validate::stream_delay_sweep(&p.testbed, &p.stream, &validate::FIG2_PERIODS);
    save_json("fig2_fig3", &points);
    print!("{}", report::fig23_csv(&points));
    banner("§III-B validation checks");
    let v = validate::validate_injection(&points);
    save_json("validation", &v);
    print!("{}", report::validation_md(&v));
}

fn run_fig4(p: &Profile) {
    banner("Fig. 4 — reliability under heavy delay injection");
    let points = resilience::resilience_sweep(&p.testbed, &p.stream, &resilience::FIG4_PERIODS);
    save_json("fig4", &points);
    print!("{}", report::fig4_md(&points));
}

fn run_table1(p: &Profile) {
    banner("Table I — application impact at PERIOD ∈ {1, 1000} vs local memory");
    let rows = apps::table1(&p.testbed, &p.apps);
    save_json("table1", &rows);
    print!("{}", report::table1_md(&rows));
}

fn run_fig5(p: &Profile) {
    banner("Fig. 5 — degradation vs PERIOD (baseline: vanilla ThymesisFlow)");
    let points = apps::fig5(&p.testbed, &p.apps, &apps::FIG5_PERIODS);
    save_json("fig5", &points);
    print!("{}", report::fig5_csv(&points));
}

fn run_fig6(p: &Profile) {
    banner("Fig. 6 — MCBN: STREAM instances contending at the borrower");
    let points = contention::mcbn(&p.testbed, &p.stream, &contention::FIG6_COUNTS);
    save_json("fig6", &points);
    print!("{}", report::series_csv(&points));
}

fn run_fig7(p: &Profile) {
    banner("Fig. 7 — MCLN: lender-side contention vs borrower bandwidth");
    let points = contention::mcln(&p.testbed, &p.stream, &contention::FIG7_COUNTS);
    save_json("fig7", &points);
    print!("{}", report::series_csv(&points));
}

fn run_dram(p: &Profile) {
    banner("E18 — MCLN on the banked row-buffer DRAM model");
    let points = contention::mcln_banked(&p.testbed, &p.stream, &contention::FIG7_COUNTS);
    save_json("fig7_banked", &points);
    print!("{}", report::series_csv(&points));
}

fn run_dist(p: &Profile) {
    banner("§VII future work — distribution-driven delay injection (mean 30 µs)");
    let points = dist::dist_sweep(&p.testbed, &p.stream, Dur::us(30), 42);
    save_json("dist", &points);
    print!("{}", report::dist_md(&points));
}

fn run_ablate(p: &Profile) {
    banner("Ablation — NIC window vs BDP (PERIOD = 100)");
    let points = ablate::window_sweep(&p.testbed, &p.stream, 100, &[32, 64, 128, 256]);
    println!("window,latency_us,bandwidth_gib_s,bdp_kib");
    for w in &points {
        println!(
            "{},{:.2},{:.3},{:.2}",
            w.window, w.latency_us, w.bandwidth_gib_s, w.bdp_kib
        );
    }
    banner("Ablation — write-back gating (PERIOD = 100)");
    let points = ablate::wb_gating(&p.testbed, &p.stream, 100);
    println!("gate_writebacks,latency_us,elapsed_ms");
    for w in &points {
        println!(
            "{},{:.2},{:.3}",
            w.gate_writebacks, w.latency_us, w.elapsed_ms
        );
    }
    banner("Ablation — KV pipelining vs delay sensitivity (PERIOD = 1000)");
    let points = ablate::kv_pipelining(&p.testbed, &p.apps.kv, 1000, &[1, 4, 16]);
    println!("pipeline_depth,degradation_vs_local");
    for k in &points {
        println!("{},{:.3}", k.pipeline_depth, k.degradation);
    }
}

fn run_congestion(p: &Profile) {
    banner("E11 — switched-fabric congestion (pairs sharing one segment)");
    let points = beyond::congestion_sweep(
        &p.testbed,
        &p.stream,
        LinkConfig::copper_100g(),
        &[1, 2, 4, 8],
    );
    save_json("congestion", &points);
    print!("{}", report::series_csv(&points));
    banner("E11 — does constant injection emulate congestion?");
    let r = beyond::emulation_fidelity(&p.testbed, &p.stream, LinkConfig::copper_100g(), 4);
    save_json("emulation_fidelity", &r);
    print!("{}", report::emulation_md(&r));
}

fn run_topology(p: &Profile) {
    banner("E11b — intra-rack vs cross-rack borrowing (3 background pairs)");
    use thymesim_net::TreeConfig;
    let tree = TreeConfig {
        racks: 2,
        ..TreeConfig::default()
    };
    let points = beyond::rack_topology(&p.testbed, &p.stream, tree, 3);
    save_json("topology", &points);
    print!("{}", report::series_csv(&points));
}

fn run_pooling(p: &Profile) {
    banner("E12 — §V memory pooling: bottleneck shifts from network to pool");
    let mut all = Vec::new();
    for pool_gb_s in [140.0, 25.0, 8.0] {
        all.extend(beyond::pooling_sweep(
            &p.testbed,
            &p.stream,
            pool_gb_s,
            &[1, 2, 4, 8],
        ));
    }
    save_json("pooling", &all);
    print!("{}", report::pooling_csv(&all));
}

fn run_qos(p: &Profile) {
    banner("E13 — §IV-D page migration: budgeted hot-array placement, PERIOD=400");
    let gcfg = &p.apps.graph_reference;
    let budget = gcfg.edges() * 2 * 4 + (1 << 20); // room for the adjacency array
    let points = qos::page_migration_study(&p.testbed, gcfg, GraphKernel::Bfs, 400, budget);
    save_json("qos", &points);
    print!("{}", report::qos_md(&points));
}

fn run_serve(p: &Profile) {
    let s = &p.serve;
    banner("E17 — open-loop serving tails: PERIOD × contention × offered rate");
    let points = qos::serve_tail(
        &p.testbed,
        &s.serve,
        &s.bg_stream,
        &s.periods,
        &s.contention,
        &s.rates,
    );
    save_json("serve_tail", &points);
    print!("{}", report::series_csv(&points));
    banner("E17 — tail columns at the highest offered rate");
    let top = s.rates.last().copied().unwrap_or(0.0);
    let slice: Vec<_> = points
        .iter()
        .filter(|pt| (pt.offered_ops_s - top).abs() < 1.0)
        .cloned()
        .collect();
    print!("{}", report::serve_tail_md(&slice));
    banner(&format!(
        "E17 — admission control at PERIOD={}, {:.0} op/s offered",
        s.admission_period, s.admission_rate
    ));
    let study = qos::admission_study(
        &p.testbed,
        &s.serve.with_offered_rate(s.admission_rate),
        s.admission_period,
        &s.policies,
    );
    save_json("serve_admission", &study);
    print!("{}", report::admission_md(&study));
}

fn run_sensitivity(p: &Profile) {
    banner("E15 — calibration sensitivity (tornado over ±50% perturbations)");
    let rows = sensitivity::tornado(&p.testbed, &p.stream);
    save_json("sensitivity", &rows);
    print!("{}", report::sensitivity_csv(&rows));
}

fn run_placement(p: &Profile) {
    banner("E16 — contention-aware placement at the control plane");
    let points = placement::placement_study(&p.testbed, &p.stream, 2, 4);
    save_json("placement", &points);
    print!("{}", report::placement_md(&points));
}

fn run_blame(p: &Profile) {
    banner("E20 — interference provenance: who stole my latency?");
    // MCBN: peer instances contending for the fabric. The 1-instance
    // point is the control — its cross-blame must be identically zero.
    let mcbn = contention::mcbn(&p.testbed, &p.stream, &[1, 4]);
    save_json("blame_mcbn", &mcbn);
    // MCLN on the banked bus: lender-local traffic is the culprit on
    // the DRAM resource; the borrower is the victim.
    let mcln = contention::mcln_banked(&p.testbed, &p.stream, &[0, 4]);
    save_json("blame_mcln", &mcln);
    // Serving: shard-tagged queueing under admission control.
    let s = &p.serve;
    let study = qos::admission_study(
        &p.testbed,
        &s.serve.with_offered_rate(s.admission_rate),
        s.admission_period,
        &s.policies,
    );
    save_json("blame_serve", &study);
    let sweeps = thymesim_telemetry::blames();
    if sweeps.is_empty() {
        eprintln!("# error: blame study recorded no blame (telemetry off?)");
        std::process::exit(1);
    }
    print!("{}", report::blame_md(&sweeps));
}

fn run_kernels(p: &Profile) {
    banner("E19 — GAP kernels (CC/BC/TC) at scale: flat vs compressed CSR");
    let points = apps::kernel_scale(&p.testbed, &p.kernels);
    save_json("kernels", &points);
    print!("{}", report::kernels_md(&points));
    if let Some(bad) = points.iter().find(|pt| !pt.validated) {
        eprintln!(
            "# error: {} on {} CSR failed its differential oracle",
            bad.kernel, bad.layout
        );
        std::process::exit(1);
    }
}
