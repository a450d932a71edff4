//! `repro`'s command table through the real binary: `list` names every
//! command the dispatcher accepts, and an unknown command exits 2 naming
//! exactly the same set — the two cannot drift, because both read the
//! one `EXPERIMENTS` table.

use std::process::{Command, Output};

fn repro(cmd: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg(cmd)
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
