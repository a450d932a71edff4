//! The per-layer pass of one workload: unit-cost probes, one pass under
//! benchmark spans (plus its parallel and, for traced_quick, untraced
//! twins), and the workload's runner-level reference point with the
//! ledger that splits its host time by layer.
//!
//! Attribution inside the simulator's call chain is counted work times
//! probed unit cost; what that does not explain is `ledger.other`.

use crate::metrics::PER_LAYER;
use crate::probes::run_probes;
use crate::spans::{Span, Spans};
use crate::workloads::{run_pass, Sizes};
use std::path::Path;
use std::time::Duration;
use thymesim_core::config::NodeConfig;
use thymesim_core::runners::StreamProc;
use thymesim_core::sweep::{self, SweepOptions};
use thymesim_core::testbed::Testbed;
use thymesim_fabric::DelaySpec;
use thymesim_mem::{shared_dram, SimVec};
use thymesim_serve::ServeProcess;
use thymesim_sim::{run_processes, Step, Time};
use thymesim_telemetry::{counters::DEFAULT_WINDOW_PS, TraceRecorder};
use thymesim_workloads::graph500;
use thymesim_workloads::stream::{StreamArrays, StreamProcess};

pub fn serial() -> SweepOptions {
    SweepOptions {
        jobs: 1,
        cache: None,
        progress: false,
    }
}

/// What the reference point did, read from the public stats after it ran.
#[derive(Clone, Debug, PartialEq)]
struct RefPoint {
    timed_accesses: u64,
    cache_accesses: u64,
    cache_misses: u64,
    remote_reads: u64,
    remote_writebacks: u64,
    dram_accesses: u64,
    executor_steps: u64,
    sim_elapsed_us: f64,
    /// The runner's own verdict: verified / data_ok / validated.
    verified: bool,
}

/// Host seconds of the reference point's stages.
struct RefTimes {
    build_s: f64,
    setup_s: f64,
    run_s: f64,
    export_s: f64,
}

/// The PERIOD each workload's reference point runs at.
fn ref_period(workload: &str) -> u64 {
    match workload {
        "stream_delay" | "traced_quick" => 100,
        "contention" => 1,
        "serve_openloop" => 400,
        "graph_apps" => 1000,
        other => panic!("unknown workload {other}"),
    }
}

/// Run the workload's reference point through the runner-level public
/// functions: stream_delay — STREAM at PERIOD 100; contention — the
/// MCBN-4 point; serve_openloop — solo PERIOD 400 at 100 k op/s;
/// graph_apps — BFS at PERIOD 1000; traced_quick — STREAM at PERIOD 100
/// under a trace recorder.
fn run_ref(workload: &str, sizes: &Sizes, seed: u64, spans: &mut Spans) -> (RefPoint, RefTimes) {
    let period = ref_period(workload);
    let traced = workload == "traced_quick";
    if traced {
        thymesim_telemetry::install(TraceRecorder::with_window(0, 20_000, DEFAULT_WINDOW_PS));
    }
    let cfg = sizes.testbed(workload);
    let lender_bus = shared_dram(cfg.lender.dram);
    let (mut tb, build_s) = spans.scope("testbed.build", |_| {
        let tb = Testbed::build_with_lender_bus(&cfg, Time::ZERO, lender_bus.clone())
            .expect("reference testbed attaches");
        (tb, 1)
    });
    // Set after the attach, as the serve sweep does: PERIOD 1000 would
    // stretch discovery, and the point measures the run, not the attach.
    tb.borrower
        .remote_mut()
        .set_delay(DelaySpec::Period(period));
    let start = tb.attach.ready_at;

    let (executor_steps, sim_end, verified, setup_s, run_s);
    match workload {
        "stream_delay" | "traced_quick" => {
            let stream = sizes.stream(if traced {
                sizes.traced_elements
            } else {
                sizes.stream_delay_elements
            });
            let (arrays, s) = spans.scope("setup", |_| {
                let arrays = StreamArrays::alloc(&mut tb.remote_arena, stream.elements);
                arrays.init(&mut tb.borrower);
                (arrays, 1)
            });
            let (report, r) = spans.scope("run", |_| {
                let report =
                    StreamProcess::new(stream, arrays, start).run_to_completion(&mut tb.borrower);
                (report, 1)
            });
            (executor_steps, sim_end, verified) = (0, start + report.elapsed, report.verified);
            (setup_s, run_s) = (s, r);
        }
        "contention" => {
            let stream = sizes.stream(sizes.contention_elements);
            let (mut procs, s) = spans.scope("setup", |_| {
                let procs: Vec<StreamProc> = (0..4)
                    .map(|i| {
                        let arrays = StreamArrays::alloc(&mut tb.remote_arena, stream.elements);
                        arrays.init(&mut tb.borrower);
                        StreamProc::tagged(StreamProcess::new(stream, arrays, start), "inst", i)
                    })
                    .collect();
                (procs, 4)
            });
            let (stats, r) = spans.scope("run", |_| {
                let stats = run_processes(&mut procs, &mut tb.borrower, Time::NEVER);
                (stats, stats.steps)
            });
            executor_steps = stats.steps;
            sim_end = stats.end;
            verified = stats.finished == 4 && procs.iter().all(|p| p.inner.verify(&tb.borrower));
            (setup_s, run_s) = (s, r);
        }
        "serve_openloop" => {
            let serve = sizes.serve(seed).with_offered_rate(100e3);
            let (mut process, s) = spans.scope("setup", |_| {
                let Testbed {
                    borrower,
                    remote_arena,
                    ..
                } = &mut tb;
                (ServeProcess::new(serve, borrower, remote_arena, start), 1)
            });
            let (steps, r) = spans.scope("run", |_| {
                let mut steps = 1;
                while process.step_on(&mut tb.borrower) == Step::Continue {
                    steps += 1;
                }
                (steps, steps)
            });
            let report = process.report();
            executor_steps = steps;
            sim_end = report.last_done;
            verified = report.data_ok && report.arrivals == report.admitted + report.dropped;
            (setup_s, run_s) = (s, r);
        }
        "graph_apps" => {
            let graph = sizes.graph();
            let ((g, parent), s) = spans.scope("setup", |_| {
                let g = graph500::build_csr(&graph, &mut tb.borrower, &mut tb.remote_arena);
                let parent: SimVec<u32> = tb.remote_arena.alloc_vec(g.n);
                ((g, parent), 1)
            });
            let (report, r) = spans.scope("run", |_| {
                let report =
                    graph500::run_bfs_benchmark(&graph, &mut tb.borrower, &g, &parent, false);
                let edges = report.runs.iter().map(|r| r.edges_traversed).sum();
                (report, edges)
            });
            // Validated outside the timed run, against the host-memory
            // reference, for the last root (whose tree `parent` holds).
            let last_root = report.runs.last().expect("at least one root").root;
            executor_steps = 0;
            sim_end = start + report.total_time;
            verified = graph500::validate_bfs(&tb.borrower, &g, &parent, last_root);
            (setup_s, run_s) = (s, r);
        }
        other => panic!("unknown workload {other}"),
    }
    let export_s = if traced {
        spans
            .scope("export", |_| {
                let trace = thymesim_telemetry::take().expect("recorder installed above");
                (std::hint::black_box(trace), 1)
            })
            .1
    } else {
        0.0
    };

    let (b, l) = (&tb.borrower, &tb.lender);
    let (bc, lc) = (b.cache_stats(), l.cache_stats());
    let point = RefPoint {
        timed_accesses: b.stats.reads + b.stats.writes + l.stats.reads + l.stats.writes,
        cache_accesses: bc.accesses() + lc.accesses(),
        cache_misses: bc.misses + lc.misses,
        remote_reads: b.remote().stats.reads,
        remote_writebacks: b.remote().stats.writebacks,
        // The borrower's local bus is private to it: count what it served.
        dram_accesses: lender_bus.borrow().accesses + b.stats.local_miss + b.stats.local_writebacks,
        executor_steps,
        sim_elapsed_us: sim_end.since(start).as_us_f64(),
        verified,
    };
    let times = RefTimes {
        build_s,
        setup_s,
        run_s,
        export_s,
    };
    (point, times)
}

/// The reference point's counts, stage times and the shares of its run
/// time that counted work x probed unit cost explains.
fn ledger(
    workload: &str,
    point: &RefPoint,
    times: &RefTimes,
    cost: impl Fn(&str) -> f64,
) -> Vec<(String, f64)> {
    let run_ns = times.run_s * 1e9;
    let dram_unit = cost("mem.dram.fixed.ns_per_access");
    // Untraced STREAM replays the remaining hits of a line in closed
    // form; everything else pays a full hitting access each.
    let hit_unit = if matches!(workload, "stream_delay" | "contention") {
        cost("mem.system.retouch_rounds.ns_per_line_round")
    } else {
        cost("mem.system.hit.ns_per_access")
    };
    let fetch_unit = if ref_period(workload) >= 100 {
        cost("fabric.engine.ns_per_fetch_line.period100")
    } else {
        cost("fabric.engine.ns_per_fetch_line.period1")
    };
    let hits = point.cache_accesses - point.cache_misses;
    let cache_ns =
        point.cache_misses as f64 * cost("mem.cache.ns_per_access.rand") + hits as f64 * hit_unit;
    // The fabric's own share: its probes include the lender-bus access.
    let fabric_ns = point.remote_reads as f64 * (fetch_unit - dram_unit).max(0.0)
        + point.remote_writebacks as f64
            * (cost("fabric.engine.ns_per_writeback_line") - dram_unit).max(0.0);
    let dram_ns = point.dram_accesses as f64 * dram_unit;
    let executor_ns = point.executor_steps as f64 * cost("sim.process.ns_per_step");
    let shares = [cache_ns, fabric_ns, dram_ns, executor_ns].map(|ns| ns / run_ns);
    [
        ("ref.timed_accesses", point.timed_accesses as f64),
        (
            "ref.cache_miss_ratio",
            point.cache_misses as f64 / point.cache_accesses as f64,
        ),
        ("ref.remote_reads", point.remote_reads as f64),
        ("ref.remote_writebacks", point.remote_writebacks as f64),
        ("ref.dram_accesses", point.dram_accesses as f64),
        ("ref.executor_steps", point.executor_steps as f64),
        ("ref.sim_elapsed_us", point.sim_elapsed_us),
        ("ref.testbed_build_s", times.build_s),
        ("ref.setup_s", times.setup_s),
        ("ref.run_s", times.run_s),
        ("ref.export_s", times.export_s),
        (
            "ref.host_ns_per_access",
            run_ns / point.timed_accesses as f64,
        ),
        ("ledger.cache", shares[0]),
        ("ledger.fabric", shares[1]),
        ("ledger.dram", shares[2]),
        ("ledger.executor", shares[3]),
        ("ledger.other", 1.0 - shares.iter().sum::<f64>()),
    ]
    .map(|(name, v)| (name.to_string(), v))
    .to_vec()
}

/// The result of a per-layer pass.
pub struct LayersOutcome {
    /// Every metric of `PER_LAYER`, in its order.
    pub metrics: Vec<f64>,
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub digest: u64,
}

pub fn run_layers(
    workload: &str,
    sizes: &Sizes,
    seed: u64,
    probe_budget: Duration,
    scratch: &Path,
) -> LayersOutcome {
    let mut spans = Spans::new(true);
    let mut values: Vec<(String, f64)> = Vec::new();
    let mut failures = Vec::new();
    let mut attempted = 0;
    let mut digest = 0;

    spans.scope("layers", |spans| {
        // The probes always run at the common LLC, so that unit costs
        // compare across workloads.
        let node = NodeConfig {
            cache: sizes.llc,
            ..NodeConfig::default()
        };
        let (probes, probes_s) = spans.scope("probes", |spans| {
            let probes = run_probes(spans, probe_budget, &node, scratch);
            let n = probes.len() as u64;
            (probes, n)
        });
        values.extend(probes.iter().map(|&(name, v)| (name.to_string(), v)));
        values.push(("bench.probes_s".into(), probes_s));

        // One pass under spans, then the same pass on every core.
        let artifacts = scratch.join("telemetry");
        let mut timed_pass = |span: &str, artifacts: Option<&Path>| {
            spans.scope(span, |spans| {
                let pass = run_pass(workload, sizes, seed, artifacts, spans);
                let n = pass.attempted;
                (pass, n)
            })
        };
        let (pass, wall) = timed_pass("workload", Some(&artifacts));
        let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
        sweep::configure(SweepOptions { jobs, ..serial() });
        let (parallel, parallel_wall) = timed_pass("workload.parallel", Some(&artifacts));
        sweep::configure(serial());
        if parallel.digest != pass.digest {
            failures.push(format!("sim_digest differs between jobs 1 and jobs {jobs}"));
        }
        values.push(("core.sweep.parallel_speedup".into(), wall / parallel_wall));
        for (name, secs) in &pass.sweeps {
            values.push((format!("core.sweep.{name}.wall_s"), *secs));
        }
        if workload == "traced_quick" {
            let (untraced, untraced_wall) = timed_pass("workload.untraced", None);
            // Telemetry is observational: results must not move.
            if untraced.digest != pass.digest {
                failures.push("sim_digest differs between traced and untraced".into());
            }
            values.push(("telemetry.tracing_tax".into(), wall / untraced_wall));
            values.push((
                "telemetry.artifact_mib".into(),
                pass.artifact_mib.unwrap_or(0.0),
            ));
        }
        values.push(("shape.fit_r".into(), pass.fit_r.unwrap_or(0.0)));
        values.push(("shape.bdp_cv".into(), pass.bdp_cv.unwrap_or(0.0)));
        attempted += pass.attempted;
        failures.extend(pass.failures);
        digest = pass.digest;

        // The reference point under spans, then without them: the ratio
        // is the benchmark's own tracing overhead.
        let ((point, times), _) = spans.scope("ref_point", |spans| {
            (run_ref(workload, sizes, seed, spans), 1)
        });
        let (bare_point, bare_times) = run_ref(workload, sizes, seed, &mut Spans::new(false));
        attempted += 1;
        if !point.verified {
            failures.push("ref_point: the runner reports an unverified result".into());
        } else if bare_point != point {
            failures.push("ref_point: exact counts differ between two runs".into());
        }
        let cost = |name: &str| {
            probes
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("no probe {name}"))
                .1
        };
        values.extend(ledger(workload, &point, &times, cost));
        values.push((
            "bench.span_overhead_ratio".into(),
            times.run_s / bare_times.run_s,
        ));
        ((), 1)
    });

    // A metric this workload does not exercise reads 0.
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            values
                .iter()
                .find(|(name, _)| name == m.name)
                .map_or(0.0, |(_, v)| *v)
        })
        .collect();
    assert!(
        values
            .iter()
            .all(|(name, _)| PER_LAYER.iter().any(|m| m.name == name)),
        "a measured metric is missing from PER_LAYER"
    );
    LayersOutcome {
        metrics,
        spans: spans.into_spans(),
        attempted,
        failures,
        digest,
    }
}
