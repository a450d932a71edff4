//! The benchmark run end to end at `--smoke` sizes: what it prints,
//! what it writes, and what `--seed` and `--jobs` do to the simulated
//! results.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_benchmark");

fn out_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Run the benchmark; its standard output, which must end a success.
fn benchmark(args: &[&str], out: &Path) -> String {
    let output = Command::new(BIN)
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(output.status.success(), "{args:?} failed:\n{stdout}");
    stdout
}

fn json(text: &str) -> Value {
    serde_json::from_str(text).unwrap_or_else(|e| panic!("not JSON ({e}): {text}"))
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
}

fn text<'a>(row: &'a Value, key: &str) -> &'a str {
    row.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no {key} in {row:?}"))
}

fn rows<'a>(value: &'a Value, key: &str) -> &'a [Value] {
    value
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("no {key}"))
}

#[test]
fn a_full_run_prints_every_metric_once_and_writes_balanced_spans() {
    let out = out_dir("full");
    let stdout = benchmark(&["run", "--smoke", "--seconds", "1"], &out);
    assert!(
        !stdout.contains("\nfailed "),
        "a repetition failed:\n{stdout}"
    );

    let spec = benchmark_json();
    let legal = |name: &str| {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for workload in rows(&spec, "workloads") {
        let workload = text(workload, "name");
        assert!(legal(workload), "{workload}");
        let checked = format!("checked {workload} ");
        let line = stdout.lines().find(|l| l.starts_with(&checked));
        let line = line.unwrap_or_else(|| panic!("no line '{checked}'"));
        assert!(line.ends_with(" failed 0"), "{line}");
        for table in ["end_to_end", "per_layer"] {
            for metric in rows(&spec, table) {
                let (name, unit) = (text(metric, "name"), text(metric, "unit"));
                assert!(legal(name), "{name}");
                let prefix = format!("metric {workload} {name} ");
                let printed: Vec<&str> =
                    stdout.lines().filter(|l| l.starts_with(&prefix)).collect();
                assert_eq!(
                    printed.len(),
                    1,
                    "{prefix}: printed {} times",
                    printed.len()
                );
                let fields: Vec<&str> = printed[0].split(' ').collect();
                assert!(
                    fields[3].parse::<f64>().is_ok_and(f64::is_finite),
                    "{}",
                    printed[0]
                );
                assert_eq!(fields[4], unit, "{}", printed[0]);
            }
        }
    }
    let metric_lines = stdout.lines().filter(|l| l.starts_with("metric ")).count();
    let per_workload = rows(&spec, "end_to_end").len() + rows(&spec, "per_layer").len();
    assert_eq!(metric_lines, rows(&spec, "workloads").len() * per_workload);

    // results.json records the seed and one digest per workload.
    let results = json(&std::fs::read_to_string(out.join("results.json")).expect("results.json"));
    assert_eq!(results.get("seed").and_then(Value::as_u64), Some(1));
    assert_eq!(results.get("smoke").and_then(Value::as_bool), Some(true));
    for workload in rows(&results, "workloads") {
        assert_eq!(text(workload, "sim_digest").len(), 16);
        assert_eq!(workload.get("failed").and_then(Value::as_u64), Some(0));
    }

    // trace.json: every span lies inside its parent and no self time is
    // negative (a microsecond of slack for the float conversion).
    let trace = json(&std::fs::read_to_string(out.join("trace.json")).expect("trace.json"));
    let spans: Vec<&Value> = rows(&trace, "traceEvents")
        .iter()
        .filter(|e| text(e, "ph") == "X")
        .collect();
    let number = |e: &Value, key: &str| e.get(key).and_then(Value::as_f64).expect("a number");
    let arg = |e: &Value, key: &str| number(e.get("args").expect("args"), key);
    let mut workloads_traced = 0;
    for span in &spans {
        assert!(arg(span, "self_us") >= -1.0, "negative self time: {span:?}");
        let parent = arg(span, "parent");
        if parent < 0.0 {
            assert_eq!(text(span, "name"), "layers");
            workloads_traced += 1;
            continue;
        }
        let parent = spans
            .iter()
            .find(|p| number(p, "pid") == number(span, "pid") && arg(p, "id") == parent)
            .expect("the parent span exists");
        let (start, end) = (number(span, "ts"), number(span, "ts") + number(span, "dur"));
        let (p_start, p_end) = (
            number(parent, "ts"),
            number(parent, "ts") + number(parent, "dur"),
        );
        assert!(
            p_start <= start + 1.0 && end <= p_end + 1.0,
            "{span:?} outside {parent:?}"
        );
    }
    assert_eq!(workloads_traced, rows(&spec, "workloads").len());
    for name in [
        "probes",
        "workload",
        "workload.parallel",
        "ref_point",
        "testbed.build",
        "run",
    ] {
        assert!(
            spans.iter().any(|s| text(s, "name") == name),
            "no span {name}"
        );
    }

    // Nothing temporary is left behind.
    let left: Vec<_> = std::fs::read_dir(&out)
        .expect("the out directory")
        .flatten()
        .map(|e| e.file_name().into_string().expect("a name"))
        .collect();
    assert!(
        left.iter()
            .all(|f| f == "results.json" || f == "trace.json"),
        "{left:?}"
    );
}

#[test]
fn the_drivers_form_ends_in_one_json_object() {
    let spec = benchmark_json();
    for (trace, table) in [("0", "end_to_end"), ("1", "per_layer")] {
        let args = [
            "run",
            "--smoke",
            "--seconds",
            "1",
            "--workload",
            "contention",
            "--seed",
            "3",
            "--trace",
            trace,
        ];
        let stdout = benchmark(&args, &out_dir(&format!("driver{trace}")));
        let last = json(stdout.lines().last().expect("output"));
        let keys: Vec<&str> = last
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(last.get("failed").and_then(Value::as_u64), Some(0));
        assert!(last.get("attempted").and_then(Value::as_u64) >= Some(9));
        let metrics = last
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        let expected = rows(&spec, table);
        assert_eq!(metrics.len(), expected.len());
        for (row, (name, got)) in expected.iter().zip(metrics) {
            assert_eq!(name, text(row, "name"));
            assert_eq!(text(got, "unit"), text(row, "unit"));
            assert!(got
                .get("value")
                .and_then(Value::as_f64)
                .is_some_and(f64::is_finite));
        }
    }
}

/// The `sim_digest` of one end-to-end child.
fn digest(workload: &str, seed: &str, jobs: &str) -> String {
    let args = [
        "child",
        "--smoke",
        "--seconds",
        "0.1",
        "--trace",
        "0",
        "--workload",
        workload,
        "--seed",
        seed,
        "--jobs",
        jobs,
    ];
    let stdout = benchmark(&args, &out_dir("digests"));
    let report = json(stdout.lines().last().expect("output"));
    assert!(
        rows(&report, "failures").is_empty(),
        "{workload}: {report:?}"
    );
    text(&report, "digest").to_string()
}

#[test]
fn digests_repeat_follow_the_seed_and_ignore_jobs() {
    for workload in rows(&benchmark_json(), "workloads") {
        let workload = text(workload, "name");
        let first = digest(workload, "1", "1");
        assert_eq!(first, digest(workload, "1", "1"), "{workload}: same seed");
        assert_eq!(first, digest(workload, "1", "2"), "{workload}: jobs 1 vs 2");
        // STREAM takes no seed; every workload with a KV store does.
        let seeded = !matches!(workload, "stream_delay" | "contention");
        assert_eq!(
            first != digest(workload, "2", "1"),
            seeded,
            "{workload}: another seed"
        );
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--trace", "2"],
        &["run", "--seconds", "0"],
        &["run", "--seed"],
        &["compare", "only-one.json"],
        &[],
    ] {
        let status = Command::new(BIN)
            .args(args)
            .output()
            .expect("starts")
            .status;
        assert_eq!(status.code(), Some(2), "{args:?}");
    }
}
