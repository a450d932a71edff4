//! `benchmark run` — the five-workload host-time ledger for thymesim.
//! `benchmark compare a.json b.json` — set two result files side by side.
//!
//! `run` measures each workload in sequential child processes (clean
//! peak-RSS, access counter and telemetry statics per repetition; a
//! child that dies counts as failed points, not a harness crash).
//! README.md has the tables and the reasoning.

mod compare;
mod layers;
mod metrics;
mod probes;
mod spans;
mod stats;
mod workloads;

use metrics::{END_TO_END, PER_LAYER};
use serde::{Deserialize, Serialize, Value};
use spans::Span;
use stats::median;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Output, Stdio};
use std::time::{Duration, Instant};
use workloads::{Sizes, Workload, WORKLOADS};

const USAGE: &str = "usage:
  benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
  benchmark compare BASELINE.json CANDIDATE.json

run      measure the named workload (default: all five), end to end (--trace 0),
         per layer (--trace 1) or both (default); print every metric by name and
         unit; write results.json and trace.json under --out (default benchmark/out).
         With --workload and --trace both given, the last line is the result as JSON.
compare  per workload and end-to-end metric: both medians, the change, the bound and
         ok / regressed / unresolved; exits 1 on a regression or on simulated
         results that differ.
workloads: stream_delay contention serve_openloop graph_apps traced_quick";

/// Options of `run` and of the children it spawns.
#[derive(Clone, Debug)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    out: PathBuf,
    /// Children only: sweep worker threads.
    jobs: usize,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: None,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
        jobs: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        fn number<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag}: cannot read '{v}' as a number"))
        }
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if workloads::workload(&name).is_none() {
                    return Err(format!("unknown workload '{name}'"));
                }
                o.workload = Some(name);
            }
            "--seed" => o.seed = number(flag, value()?)?,
            "--seconds" => {
                o.seconds = number(flag, value()?)?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            "--jobs" => {
                o.jobs = number(flag, value()?)?;
                if o.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--smoke" => o.smoke = true,
            "--out" => o.out = PathBuf::from(value()?),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_options(&args[1..]).and_then(|o| run(&o)),
        Some("child") => parse_options(&args[1..]).and_then(|o| child(&o)),
        Some("compare") if args.len() == 3 => {
            return match compare::compare_files(Path::new(&args[1]), Path::new(&args[2])) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(why) => {
                    eprintln!("benchmark compare: {why}");
                    ExitCode::from(2)
                }
            };
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

// --------------------------------------------------------------- child

/// What one child measured, printed as its last line of output.
#[derive(Debug, Default, Serialize, Deserialize)]
struct ChildReport {
    attempted: u64,
    failures: Vec<String>,
    digest: String,
    /// End-to-end children: one pass.
    wall_s: f64,
    timed_accesses: u64,
    peak_rss_mib: f64,
    setup_s: Vec<f64>,
    /// Per-layer children: every `PER_LAYER` value, and the spans.
    per_layer: Vec<f64>,
    spans: Vec<Span>,
}

fn sizes(o: &Options) -> Sizes {
    if o.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A child's scratch directory: unique per child, inside `--out`, removed
/// by the child before it exits and by the parent after it died.
fn scratch_dir(out: &Path, child_pid: u32) -> PathBuf {
    out.join(format!("tmp-{child_pid}"))
}

/// One repetition, in a process of its own.
fn child(o: &Options) -> Result<(), String> {
    let name = o.workload.as_deref().ok_or("child needs --workload")?;
    let sizes = sizes(o);
    let scratch = scratch_dir(&o.out, std::process::id());
    thymesim_core::sweep::configure(thymesim_core::sweep::SweepOptions {
        jobs: o.jobs,
        ..layers::serial()
    });
    let report = if o.trace == Some(true) {
        let budget = Duration::from_secs_f64(o.seconds / 100.0);
        let outcome = layers::run_layers(name, &sizes, o.seed, budget, &scratch);
        ChildReport {
            attempted: outcome.attempted,
            failures: outcome.failures,
            digest: format!("{:016x}", outcome.digest),
            per_layer: outcome.metrics,
            spans: outcome.spans,
            ..ChildReport::default()
        }
    } else {
        // Set-up first, several times: `setup_s` is the median.
        let budget = Duration::from_secs_f64(o.seconds * 0.03);
        let started = Instant::now();
        let mut setup_s = Vec::new();
        while setup_s.len() < 3 || started.elapsed() < budget {
            let t0 = Instant::now();
            workloads::construct_inputs(name, &sizes, o.seed);
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        let before = thymesim_mem::timed_accesses_total();
        let (pass, wall_s) = spans::Spans::new(false).scope("pass", |spans| {
            (
                workloads::run_pass(name, &sizes, o.seed, Some(&scratch), spans),
                0,
            )
        });
        ChildReport {
            attempted: pass.attempted,
            failures: pass.failures,
            digest: format!("{:016x}", pass.digest),
            wall_s,
            timed_accesses: thymesim_mem::timed_accesses_total() - before,
            peak_rss_mib: peak_rss_mib(),
            setup_s,
            ..ChildReport::default()
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);
    println!(
        "{}",
        serde_json::to_string(&report).expect("report serializes")
    );
    Ok(())
}

/// Spawn one child and wait for it. `Err` names why it counts as dead.
fn spawn_child(o: &Options, name: &str, trace: bool) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", name])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&o.out);
    if o.smoke {
        cmd.arg("--smoke");
    }
    let child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let scratch = scratch_dir(&o.out, child.id());
    let output = child
        .wait_with_output()
        .map_err(|e| format!("cannot wait for child: {e}"))?;
    // A child that died could not remove its own.
    let _ = std::fs::remove_dir_all(scratch);
    read_child(&output)
}

/// The report a finished child printed, or why it counts as dead.
fn read_child(output: &Output) -> Result<ChildReport, String> {
    if !output.status.success() {
        // Covers a panic (exit 101) and a kill by signal (no code).
        return Err(format!("child ended with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    serde_json::from_str(last).map_err(|e| format!("child printed no report: {e}"))
}

// ----------------------------------------------------------------- run

/// One metric of one workload: the reported value (a median where there
/// are several samples) and the samples behind it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub values: Vec<f64>,
}

impl Metric {
    fn of(name: &str, unit: &str, values: Vec<f64>) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.into(),
            value: median(&mut values.clone()),
            values,
        }
    }
}

/// Everything measured for one workload.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub name: String,
    pub sim_digest: String,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// The contents of `results.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Results {
    pub schema: u64,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub nproc: u64,
    pub workloads: Vec<WorkloadResult>,
}

/// What one (workload, trace mode) run reports to the driver.
struct RunLine {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// The end-to-end run: one repetition per `spawn` until `seconds` have
/// passed or a child dies.
fn end_to_end(
    seconds: f64,
    w: &Workload,
    result: &mut WorkloadResult,
    mut spawn: impl FnMut() -> Result<ChildReport, String>,
) -> Result<RunLine, String> {
    let started = Instant::now();
    let mut reports = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    loop {
        match spawn() {
            Ok(r) => reports.push(r),
            Err(why) => {
                // The repetition's points all count as failed.
                println!("failed {} repetition {}: {why}", w.name, reports.len() + 1);
                result.failures.push(why);
                attempted += w.points;
                failed += w.points;
                break;
            }
        }
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let first = reports
        .first()
        .ok_or(format!("{}: no repetition survived", w.name))?;
    if let Some(r) = reports.iter().find(|r| r.attempted != w.points) {
        // A harness bug, not a measurement: the table is out of date.
        return Err(format!(
            "{}: a pass checked {} points, `WORKLOADS` says {}",
            w.name, r.attempted, w.points
        ));
    }
    attempted += reports.iter().map(|r| r.attempted).sum::<u64>();
    failed += reports.iter().map(|r| r.failures.len() as u64).sum::<u64>();
    for why in reports.iter().flat_map(|r| &r.failures) {
        println!("failed {}: {why}", w.name);
        result.failures.push(why.clone());
    }
    if reports.iter().any(|r| r.digest != first.digest) {
        println!("failed {}: sim_digest differs between repetitions", w.name);
        result
            .failures
            .push("sim_digest differs between repetitions".into());
        failed = attempted;
    }
    result.sim_digest = first.digest.clone();

    let samples = |name: &str| -> Vec<f64> {
        match name {
            "wall_s" => reports.iter().map(|r| r.wall_s).collect(),
            "accesses_per_s" => reports
                .iter()
                .map(|r| r.timed_accesses as f64 / r.wall_s)
                .collect(),
            "peak_rss_mib" => reports.iter().map(|r| r.peak_rss_mib).collect(),
            "setup_s" => reports.iter().flat_map(|r| r.setup_s.clone()).collect(),
            other => unreachable!("no samples for {other}"),
        }
    };
    result.end_to_end = END_TO_END
        .iter()
        .map(|m| Metric::of(m.name, m.unit, samples(m.name)))
        .collect();
    Ok(RunLine {
        attempted,
        failed,
        metrics: result.end_to_end.clone(),
    })
}

/// The per-layer run: one child does probes, traced pass and ledger.
fn per_layer(
    o: &Options,
    w: &Workload,
    result: &mut WorkloadResult,
    spans: &mut Vec<Span>,
) -> Result<RunLine, String> {
    let report =
        spawn_child(o, w.name, true).map_err(|why| format!("{} per-layer pass: {why}", w.name))?;
    if report.per_layer.len() != PER_LAYER.len() {
        return Err(format!("{}: child reported the wrong metric count", w.name));
    }
    let mut failures = report.failures;
    if !result.sim_digest.is_empty() && result.sim_digest != report.digest {
        failures.push("sim_digest differs between the end-to-end and per-layer passes".into());
    }
    for why in &failures {
        println!("failed {}: {why}", w.name);
    }
    result.sim_digest = report.digest;
    result.failures.extend(failures.iter().cloned());
    result.per_layer = PER_LAYER
        .iter()
        .zip(&report.per_layer)
        .map(|(m, &v)| Metric::of(m.name, m.unit, vec![v]))
        .collect();
    *spans = report.spans;
    Ok(RunLine {
        attempted: report.attempted,
        failed: failures.len() as u64,
        metrics: result.per_layer.clone(),
    })
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        let (lo, hi) = stats::range(&m.values);
        println!(
            "metric {workload} {} {} {} (min {lo} max {hi} n {})",
            m.name,
            m.value,
            m.unit,
            m.values.len()
        );
    }
}

fn run(o: &Options) -> Result<(), String> {
    std::fs::create_dir_all(&o.out)
        .map_err(|e| format!("cannot create {}: {e}", o.out.display()))?;
    let modes: &[bool] = match o.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let mut results = Results {
        schema: 1,
        seed: o.seed,
        seconds: o.seconds,
        smoke: o.smoke,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        workloads: Vec::new(),
    };
    let mut traces: Vec<(&str, Vec<Span>)> = Vec::new();
    let mut last_line = None;
    let mut without_result = Vec::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| o.workload.as_deref().is_none_or(|name| name == w.name))
    {
        let mut result = WorkloadResult {
            name: w.name.into(),
            ..WorkloadResult::default()
        };
        for &trace in modes {
            println!(
                "workload {} seed {} {}",
                w.name,
                o.seed,
                if trace { "per-layer" } else { "end-to-end" }
            );
            let mut spans = Vec::new();
            let line = if trace {
                per_layer(o, w, &mut result, &mut spans)
            } else {
                end_to_end(o.seconds, w, &mut result, || spawn_child(o, w.name, false))
            };
            match line {
                Ok(line) => {
                    if trace {
                        traces.push((w.name, spans));
                    }
                    print_metrics(w.name, &line.metrics);
                    result.attempted += line.attempted;
                    result.failed += line.failed;
                    last_line = Some(line);
                }
                // Nothing to report for this mode: its points count as
                // failed, the other workloads still run, the exit code
                // says so.
                Err(why) => {
                    println!("failed {why}");
                    result.failures.push(why.clone());
                    result.attempted += w.points;
                    result.failed += w.points;
                    without_result.push(why);
                    last_line = None;
                }
            }
        }
        println!(
            "checked {} sim_digest {} attempted {} failed {}",
            w.name, result.sim_digest, result.attempted, result.failed
        );
        results.workloads.push(result);
    }

    let write = |file: &str, text: String| {
        let path = o.out.join(file);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write(
        "results.json",
        serde_json::to_string_pretty(&results).expect("results serialize"),
    )?;
    if !traces.is_empty() {
        write("trace.json", chrome_trace(&traces))?;
    }

    if !without_result.is_empty() {
        return Err(without_result.join("; "));
    }
    // The driver's form: one workload, one mode, the result as the last line.
    if let (Some(_), Some(_), Some(line)) = (&o.workload, o.trace, last_line) {
        let metrics = line
            .metrics
            .iter()
            .map(|m| {
                let entry = Value::Object(vec![
                    ("value".into(), Value::F64(m.value)),
                    ("unit".into(), Value::Str(m.unit.clone())),
                ]);
                (m.name.clone(), entry)
            })
            .collect();
        let object = Value::Object(vec![
            ("correct".into(), Value::Bool(line.failed == 0)),
            ("attempted".into(), Value::U64(line.attempted)),
            ("failed".into(), Value::U64(line.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        println!(
            "{}",
            serde_json::to_string(&object).expect("result serializes")
        );
    }
    Ok(())
}

/// Chrome trace (`chrome://tracing`, Perfetto): one process per
/// workload, one complete event per span, with its parent, work count
/// and self time in `args`.
fn chrome_trace(traces: &[(&str, Vec<Span>)]) -> String {
    let us = |ns: i64| Value::F64(ns as f64 / 1e3);
    let mut events = Vec::new();
    for (pid, (workload, spans)) in traces.iter().enumerate() {
        let pid = Value::U64(pid as u64 + 1);
        events.push(Value::Object(vec![
            ("name".into(), Value::Str("process_name".into())),
            ("ph".into(), Value::Str("M".into())),
            ("pid".into(), pid.clone()),
            (
                "args".into(),
                Value::Object(vec![("name".into(), Value::Str(workload.to_string()))]),
            ),
        ]));
        let own = spans::self_times_ns(spans);
        for (i, s) in spans.iter().enumerate() {
            let args = Value::Object(vec![
                ("id".into(), Value::U64(i as u64)),
                (
                    "parent".into(),
                    Value::I64(s.parent.map_or(-1, |p| p as i64)),
                ),
                ("work".into(), Value::U64(s.work)),
                ("self_us".into(), us(own[i])),
            ]);
            events.push(Value::Object(vec![
                ("name".into(), Value::Str(s.name.clone())),
                ("ph".into(), Value::Str("X".into())),
                ("pid".into(), pid.clone()),
                ("tid".into(), Value::U64(1)),
                ("ts".into(), us(s.start_ns as i64)),
                ("dur".into(), us(s.end_ns as i64 - s.start_ns as i64)),
                ("args".into(), args),
            ]));
        }
    }
    let root = Value::Object(vec![("traceEvents".into(), Value::Array(events))]);
    serde_json::to_string(&root).expect("trace serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(wall_s: f64, digest: &str) -> ChildReport {
        ChildReport {
            attempted: 9,
            digest: digest.into(),
            wall_s,
            timed_accesses: 1000,
            peak_rss_mib: 10.0,
            setup_s: vec![0.1, 0.2, 0.3],
            ..ChildReport::default()
        }
    }

    /// An end-to-end run over scripted children.
    fn run_scripted(
        script: Vec<Result<ChildReport, String>>,
    ) -> (Result<RunLine, String>, WorkloadResult) {
        let w = workloads::workload("contention").expect("a workload");
        assert_eq!(w.points, 9);
        let mut result = WorkloadResult::default();
        let mut script = script.into_iter();
        let line = end_to_end(600.0, w, &mut result, || {
            script.next().unwrap_or(Err("script ended".into()))
        });
        (line, result)
    }

    #[test]
    fn medians_over_repetitions() {
        let (line, result) = run_scripted(vec![
            Ok(report(2.0, "d")),
            Ok(report(4.0, "d")),
            Ok(report(1.0, "d")),
        ]);
        // The script's end counts as a fourth, dead repetition.
        let line = line.expect("three repetitions survived");
        assert_eq!((line.attempted, line.failed), (36, 9));
        assert_eq!(result.sim_digest, "d");
        let value = |name: &str| {
            let m = line.metrics.iter().find(|m| m.name == name).expect(name);
            (m.value, m.values.len())
        };
        assert_eq!(value("wall_s"), (2.0, 3));
        assert_eq!(value("accesses_per_s"), (500.0, 3));
        assert_eq!(value("setup_s"), (0.2, 9));
    }

    #[test]
    fn a_dead_child_fails_its_points_and_is_named() {
        let (line, result) = run_scripted(vec![
            Ok(report(2.0, "d")),
            Err("child ended with signal: 9 (SIGKILL)".into()),
        ]);
        let line = line.expect("one repetition survived");
        assert_eq!((line.attempted, line.failed), (18, 9));
        assert!(result.failures[0].contains("SIGKILL"));
        // No survivor at all is an error, not a result.
        assert!(run_scripted(vec![Err("dead".into())]).0.is_err());
    }

    #[test]
    fn differing_digests_fail_every_point() {
        let (line, _) = run_scripted(vec![Ok(report(2.0, "d")), Ok(report(2.0, "e"))]);
        let line = line.expect("repetitions survived");
        assert_eq!(line.failed, line.attempted);
    }

    #[test]
    fn killed_and_silent_children_count_as_dead() {
        let sh = |script: &str| {
            Command::new("sh")
                .args(["-c", script])
                .output()
                .expect("sh runs")
        };
        let killed = read_child(&sh("kill -9 $$")).expect_err("killed by a signal");
        assert!(killed.contains("signal"), "{killed}");
        assert!(read_child(&sh("exit 101")).is_err());
        assert!(read_child(&sh("echo not a report")).is_err());
        let ok = serde_json::to_string(&report(1.5, "d")).expect("serializes");
        let parsed = read_child(&sh(&format!("echo noise; echo '{ok}'"))).expect("a report");
        assert_eq!(parsed.wall_s, 1.5);
    }
}
