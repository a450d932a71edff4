//! Interference provenance: fold per-point queueing-delay blame into
//! the `blame.json` artifact — per-resource source×victim matrices,
//! self vs. cross shares, and top-interferer summaries.
//!
//! Stage and phase histograms (PRs 3/4) say *where* time went and the
//! counter tracks (PR 5) say *when* components were busy; this module
//! says *who caused* each picosecond of queueing. Every queueing
//! resource (delay gate, fabric credit window, serial links, switch
//! ports, DRAM bus, serve queue) tags its occupancy with the ambient
//! [`Source`](crate::recorder::Source) and decomposes each request's
//! wait against that ledger (see `Recorder::blame_wait`), so for every
//! (resource, victim) pair
//!
//! ```text
//! self_ps + Σ_culprit by[culprit] == wait_ps        (integer-exact)
//! ```
//!
//! — the same partition-invariant style as the stage/phase folds, and
//! what [`check_blame`] enforces structurally.
//!
//! ## Determinism
//!
//! Folding is order-independent: points sort by grid index, resources
//! by name, victims and culprits by label, and every accumulator is a
//! commutative integer sum (no histogram merge is involved at all).
//! `blame.json` is therefore byte-identical at any `--jobs`.

use crate::recorder::{BlameEntry, PointTrace};
use serde::Value;

/// The windowed `blame.*` ratio track for a resource class, or `None`
/// for an unlisted resource. Static names keep the counter plumbing's
/// `&'static str` contract; the table is the closed set of queueing
/// resources the simulator blames.
#[must_use]
pub fn track_for(resource: &str) -> Option<&'static str> {
    match resource {
        "gate" => Some("blame.gate"),
        "credit" => Some("blame.credit"),
        "link" => Some("blame.link"),
        "switch" => Some("blame.switch"),
        "dram" => Some("blame.dram"),
        "serve" => Some("blame.serve"),
        _ => None,
    }
}

/// One culprit's share of a victim's (or a whole resource's) wait.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlameCell {
    pub culprit: String,
    pub ps: u64,
}

impl BlameCell {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("culprit".into(), Value::Str(self.culprit.clone())),
            ("ps".into(), Value::U64(self.ps)),
        ])
    }
}

/// One victim's decomposed wait at one resource.
#[derive(Clone, Debug, PartialEq)]
pub struct VictimBlame {
    pub victim: String,
    /// Number of decomposed waits.
    pub waits: u64,
    /// Total wait, picoseconds; `self_ps + cross_ps` exactly.
    pub wait_ps: u64,
    /// Wait charged to the victim itself.
    pub self_ps: u64,
    /// Wait charged to other sources; `Σ by[..].ps` exactly.
    pub cross_ps: u64,
    /// Per-culprit cross charges, culprit-sorted; never names the
    /// victim itself.
    pub by: Vec<BlameCell>,
}

impl VictimBlame {
    /// `cross_ps / wait_ps` (0 when nothing waited).
    #[must_use]
    pub fn cross_share(&self) -> f64 {
        crate::frac(self.cross_ps.into(), self.wait_ps.into())
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("victim".into(), Value::Str(self.victim.clone())),
            ("waits".into(), Value::U64(self.waits)),
            ("wait_ps".into(), Value::U64(self.wait_ps)),
            ("self_ps".into(), Value::U64(self.self_ps)),
            ("cross_ps".into(), Value::U64(self.cross_ps)),
            ("cross_share".into(), Value::F64(self.cross_share())),
            (
                "by".into(),
                Value::Array(self.by.iter().map(BlameCell::to_value).collect()),
            ),
        ])
    }
}

/// One resource's full source×victim blame matrix (for one point, or
/// merged over a sweep).
#[derive(Clone, Debug, PartialEq)]
pub struct ResourceBlame {
    pub resource: String,
    pub waits: u64,
    pub wait_ps: u64,
    pub self_ps: u64,
    pub cross_ps: u64,
    /// The culprit charged the most cross-blame across all victims
    /// (ties break to the lexicographically smallest label); `None`
    /// when there is no cross-blame at all.
    pub top_interferer: Option<BlameCell>,
    /// Victim-sorted rows of the matrix.
    pub victims: Vec<VictimBlame>,
}

impl ResourceBlame {
    /// `cross_ps / wait_ps` (0 when nothing waited) — the headline
    /// "how much of this resource's queueing was interference" number.
    #[must_use]
    pub fn cross_share(&self) -> f64 {
        crate::frac(self.cross_ps.into(), self.wait_ps.into())
    }

    /// Look up one victim's row by label.
    #[must_use]
    pub fn victim(&self, label: &str) -> Option<&VictimBlame> {
        self.victims.iter().find(|v| v.victim == label)
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("resource".into(), Value::Str(self.resource.clone())),
            ("waits".into(), Value::U64(self.waits)),
            ("wait_ps".into(), Value::U64(self.wait_ps)),
            ("self_ps".into(), Value::U64(self.self_ps)),
            ("cross_ps".into(), Value::U64(self.cross_ps)),
            ("cross_share".into(), Value::F64(self.cross_share())),
            (
                "top_interferer".into(),
                self.top_interferer
                    .as_ref()
                    .map_or(Value::Null, BlameCell::to_value),
            ),
            (
                "victims".into(),
                Value::Array(self.victims.iter().map(VictimBlame::to_value).collect()),
            ),
        ])
    }
}

/// One point's blame: every resource that decomposed a wait, name-sorted.
#[derive(Clone, Debug, PartialEq)]
pub struct PointBlame {
    pub index: usize,
    pub resources: Vec<ResourceBlame>,
}

impl PointBlame {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("index".into(), Value::U64(self.index as u64)),
            (
                "resources".into(),
                Value::Array(self.resources.iter().map(ResourceBlame::to_value).collect()),
            ),
        ])
    }
}

/// One sweep's blame report: per-point matrices plus the sweep-merged
/// matrices, byte-identical at any `--jobs`.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepBlame {
    pub sweep: String,
    /// Grid size (cached points record nothing, so `per_point` may be
    /// shorter).
    pub points: usize,
    pub per_point: Vec<PointBlame>,
    /// Per-resource matrices merged over all traced points (label-keyed
    /// integer sums — commutative, so point order is invisible).
    pub merged: Vec<ResourceBlame>,
}

/// Fold a flat list of recorder entries into victim-sorted,
/// resource-sorted matrices. Merging keys on labels, so entries from
/// different points (or arrival orders) fold identically.
fn fold_resources<'a>(entries: impl Iterator<Item = &'a BlameEntry>) -> Vec<ResourceBlame> {
    // (resource, victim label) -> accumulated row.
    let mut rows: Vec<(&'static str, VictimBlame)> = Vec::new();
    for e in entries {
        let victim = e.victim.label();
        let row = match rows
            .iter_mut()
            .position(|(r, v)| *r == e.resource && v.victim == victim)
        {
            Some(i) => &mut rows[i].1,
            None => {
                rows.push((
                    e.resource,
                    VictimBlame {
                        victim,
                        waits: 0,
                        wait_ps: 0,
                        self_ps: 0,
                        cross_ps: 0,
                        by: Vec::new(),
                    },
                ));
                &mut rows.last_mut().expect("just pushed").1
            }
        };
        row.waits += e.waits;
        row.wait_ps += e.wait_ps;
        row.self_ps += e.self_ps;
        for (culprit, ps) in &e.by {
            row.cross_ps += ps;
            let label = culprit.label();
            match row.by.iter_mut().find(|c| c.culprit == label) {
                Some(c) => c.ps += ps,
                None => row.by.push(BlameCell {
                    culprit: label,
                    ps: *ps,
                }),
            }
        }
    }
    let mut resources: Vec<ResourceBlame> = Vec::new();
    for (name, mut row) in rows {
        row.by.sort_by(|a, b| a.culprit.cmp(&b.culprit));
        let res = match resources.iter_mut().position(|r| r.resource == name) {
            Some(i) => &mut resources[i],
            None => {
                resources.push(ResourceBlame {
                    resource: name.to_string(),
                    waits: 0,
                    wait_ps: 0,
                    self_ps: 0,
                    cross_ps: 0,
                    top_interferer: None,
                    victims: Vec::new(),
                });
                resources.last_mut().expect("just pushed")
            }
        };
        res.waits += row.waits;
        res.wait_ps += row.wait_ps;
        res.self_ps += row.self_ps;
        res.cross_ps += row.cross_ps;
        res.victims.push(row);
    }
    for res in &mut resources {
        res.victims.sort_by(|a, b| a.victim.cmp(&b.victim));
        // Top interferer: largest per-culprit cross sum over all
        // victims; ties to the smallest label.
        let mut totals: Vec<(String, u64)> = Vec::new();
        for v in &res.victims {
            for c in &v.by {
                match totals.iter_mut().find(|(l, _)| *l == c.culprit) {
                    Some((_, acc)) => *acc += c.ps,
                    None => totals.push((c.culprit.clone(), c.ps)),
                }
            }
        }
        totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        res.top_interferer = totals
            .into_iter()
            .next()
            .filter(|(_, ps)| *ps > 0)
            .map(|(culprit, ps)| BlameCell { culprit, ps });
    }
    resources.sort_by(|a, b| a.resource.cmp(&b.resource));
    resources
}

impl SweepBlame {
    /// Fold a sweep's traced points into its blame report.
    #[must_use]
    pub fn fold(sweep: &str, points: usize, traces: &[PointTrace]) -> SweepBlame {
        let mut per_point: Vec<PointBlame> = traces
            .iter()
            .map(|t| PointBlame {
                index: t.index,
                resources: fold_resources(t.blame.iter()),
            })
            .collect();
        per_point.sort_by_key(|p| p.index);
        let merged = fold_resources(traces.iter().flat_map(|t| t.blame.iter()));
        SweepBlame {
            sweep: sweep.to_string(),
            points,
            per_point,
            merged,
        }
    }

    /// Look up a merged resource matrix by name.
    #[must_use]
    pub fn merged_resource(&self, name: &str) -> Option<&ResourceBlame> {
        self.merged.iter().find(|r| r.resource == name)
    }

    #[must_use]
    pub fn to_value(&self) -> Value {
        crate::sweep_value(
            &self.sweep,
            Vec::new(),
            self.points,
            self.per_point.iter().map(PointBlame::to_value).collect(),
            Value::Array(self.merged.iter().map(ResourceBlame::to_value).collect()),
        )
    }
}

// ----------------------------------------------------------- validator

/// Summary of a validated `blame.json`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlameCheck {
    pub sweeps: usize,
    pub points: usize,
    pub resources: usize,
    pub victims: usize,
}

/// Structurally validate a `blame.json`, collecting **every** failure:
/// the shared sweep envelope (see `walk_sweeps`), sorted
/// resources/victims/culprits, the partition invariant
/// `self_ps + Σ by == wait_ps` on every row, resource totals equal to
/// their victim sums, shares consistent with the exact integers, no
/// victim blaming itself in `by`, and top-interferer entries consistent
/// with the matrix.
pub fn check_blame(text: &str) -> Result<BlameCheck, Vec<String>> {
    let (mut resources, mut victims) = (0, 0);
    let (sweeps, points) = crate::walk_sweeps(text, |name, _, per_point, merged, errors| {
        let lists = per_point.iter().map(|p| {
            let idx = p.get("index").and_then(Value::as_u64).unwrap_or(0);
            (format!("{name}/point {idx}"), p.get("resources"))
        });
        for (ctx, list) in lists.chain([(name.to_string(), Some(merged))]) {
            let (r, v) = check_resources(&ctx, list, errors);
            resources += r;
            victims += v;
        }
    })?;
    Ok(BlameCheck {
        sweeps,
        points,
        resources,
        victims,
    })
}

/// Validate one resources array; returns (resources, victim rows) seen.
fn check_resources(
    ctx: &str,
    resources: Option<&Value>,
    errors: &mut Vec<String>,
) -> (usize, usize) {
    let Some(list) = resources.and_then(Value::as_array) else {
        errors.push(format!("{ctx}: missing resources array"));
        return (0, 0);
    };
    let mut victims_seen = 0usize;
    let mut prev_res = String::new();
    for r in list {
        let rname = r
            .get("resource")
            .and_then(Value::as_str)
            .unwrap_or("<unnamed>");
        let ctx = format!("{ctx}/{rname}");
        if rname < prev_res.as_str() {
            errors.push(format!("{ctx}: resources not name-sorted"));
        }
        prev_res = rname.to_string();
        let Some(resource_totals) = check_totals(&ctx, r, errors) else {
            continue;
        };
        let Some(victims) = r.get("victims").and_then(Value::as_array) else {
            errors.push(format!("{ctx}: missing victims array"));
            continue;
        };
        let mut victim_sums = [0u64; 4];
        let mut prev_victim = String::new();
        let mut culprit_totals: Vec<(&str, u64)> = Vec::new();
        for v in victims {
            victims_seen += 1;
            let vname = v
                .get("victim")
                .and_then(Value::as_str)
                .unwrap_or("<unnamed>");
            let ctx = format!("{ctx}/{vname}");
            if vname < prev_victim.as_str() {
                errors.push(format!("{ctx}: victims not label-sorted"));
            }
            prev_victim = vname.to_string();
            let Some(totals @ [_, wait, self_ps, cross]) = check_totals(&ctx, v, errors) else {
                continue;
            };
            let by = v.get("by").and_then(Value::as_array).unwrap_or_else(|| {
                errors.push(format!("{ctx}: missing by array"));
                &[]
            });
            let mut by_sum = 0u64;
            let mut prev_culprit = String::new();
            for c in by {
                let cname = c
                    .get("culprit")
                    .and_then(Value::as_str)
                    .unwrap_or("<unnamed>");
                if cname < prev_culprit.as_str() {
                    errors.push(format!("{ctx}: culprits not label-sorted"));
                }
                prev_culprit = cname.to_string();
                if cname == vname {
                    errors.push(format!("{ctx}: victim appears as its own culprit"));
                }
                let ps = c.get("ps").and_then(Value::as_u64).unwrap_or_else(|| {
                    errors.push(format!("{ctx}/{cname}: missing ps"));
                    0
                });
                by_sum += ps;
                *crate::slot(&mut culprit_totals, cname, || 0) += ps;
            }
            if by_sum != cross {
                errors.push(format!(
                    "{ctx}: by charges sum to {by_sum}, cross_ps is {cross}"
                ));
            }
            if self_ps + cross != wait {
                errors.push(format!(
                    "{ctx}: self_ps {self_ps} + cross_ps {cross} != wait_ps {wait} \
                     (partition broken)"
                ));
            }
            for (sum, n) in victim_sums.iter_mut().zip(totals) {
                *sum += n;
            }
        }
        for (i, field) in TOTALS.iter().enumerate() {
            let (got, expect) = (resource_totals[i], victim_sums[i]);
            if got != expect {
                errors.push(format!(
                    "{ctx}: resource {field} {got} differs from its victim sum {expect}"
                ));
            }
        }
        // Top interferer must be the matrix's argmax (ties to the
        // smallest label), and absent exactly when there is no cross.
        culprit_totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let expect_top = culprit_totals.first().filter(|(_, ps)| *ps > 0);
        let got_top = r.get("top_interferer").filter(|t| **t != Value::Null);
        match (expect_top, got_top) {
            (None, None) => {}
            (Some((l, ps)), Some(t)) => {
                let tl = t.get("culprit").and_then(Value::as_str).unwrap_or("");
                let tp = t.get("ps").and_then(Value::as_u64).unwrap_or(0);
                if tl != *l || tp != *ps {
                    errors.push(format!(
                        "{ctx}: top_interferer {tl}={tp} inconsistent with matrix \
                         argmax {l}={ps}"
                    ));
                }
            }
            (Some((l, _)), None) => {
                errors.push(format!(
                    "{ctx}: top_interferer missing, matrix argmax is {l}"
                ));
            }
            (None, Some(_)) => {
                errors.push(format!(
                    "{ctx}: top_interferer present with zero cross-blame"
                ));
            }
        }
    }
    (list.len(), victims_seen)
}

/// The exact integer totals every matrix entry — resource or victim
/// row — carries.
const TOTALS: [&str; 4] = ["waits", "wait_ps", "self_ps", "cross_ps"];

/// Read one entry's [`TOTALS`] (`None`, with the failure recorded, when
/// any is missing) and validate its `cross_share` against them.
fn check_totals(ctx: &str, v: &Value, errors: &mut Vec<String>) -> Option<[u64; 4]> {
    let mut totals = [0u64; 4];
    for (total, field) in totals.iter_mut().zip(TOTALS) {
        let Some(n) = v.get(field).and_then(Value::as_u64) else {
            errors.push(format!("{ctx}: missing waits/wait_ps/self_ps/cross_ps"));
            return None;
        };
        *total = n;
    }
    let [_, wait, _, cross] = totals;
    let Some(share) = v.get("cross_share").and_then(Value::as_f64) else {
        errors.push(format!("{ctx}: missing cross_share"));
        return Some(totals);
    };
    if !(0.0..=1.0).contains(&share) {
        errors.push(format!("{ctx}: cross_share {share} outside [0, 1]"));
    }
    let expect = crate::frac(cross.into(), wait.into());
    if (share - expect).abs() > 1e-9 * (1.0 + expect) {
        errors.push(format!(
            "{ctx}: cross_share {share} inconsistent with cross/wait {expect}"
        ));
    }
    Some(totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Source, TraceRecorder};
    use thymesim_sim::Time;

    /// One point where `inst_0` holds the gate over [0, 60) and
    /// `inst_1` waits [10, 40): 30 ps of cross blame, nothing self.
    fn contended_point(index: usize) -> PointTrace {
        let mut r = TraceRecorder::new(index, 10);
        r.source_begin("inst", 0);
        r.blame_occupy("gate", Time::ZERO, Time::ps(60));
        r.source_begin("inst", 1);
        r.blame_wait("gate", Time::ps(10), Time::ps(40));
        r.finish()
    }

    #[test]
    fn wait_decomposes_against_the_ledger() {
        let t = contended_point(0);
        assert_eq!(t.blame.len(), 1);
        let b = &t.blame[0];
        assert_eq!(b.resource, "gate");
        assert_eq!(
            b.victim,
            Source {
                name: "inst",
                index: 1
            }
        );
        assert_eq!((b.waits, b.wait_ps, b.self_ps), (1, 30, 0));
        assert_eq!(
            b.by,
            vec![(
                Source {
                    name: "inst",
                    index: 0
                },
                30
            )]
        );
    }

    #[test]
    fn uncovered_wait_is_self_blame() {
        let mut r = TraceRecorder::new(0, 10);
        r.source_begin("inst", 0);
        r.blame_occupy("gate", Time::ZERO, Time::ps(20));
        r.source_begin("inst", 1);
        // Wait [10, 50): 10 ps behind inst_0, 30 ps uncovered.
        r.blame_wait("gate", Time::ps(10), Time::ps(50));
        let b = &r.finish().blame[0];
        assert_eq!(b.wait_ps, 40);
        assert_eq!(b.self_ps, 30);
        assert_eq!(b.by[0].1, 10);
    }

    #[test]
    fn overlapping_holders_apportion_to_exactly_the_wait() {
        let mut r = TraceRecorder::new(0, 10);
        // Three holders each covering the whole wait [0, 10): overlap
        // sums to 30 > 10, so largest-remainder splits 10 as 4+3+3.
        for i in 0..3 {
            r.source_begin("peer", i);
            r.blame_occupy("credit", Time::ZERO, Time::ps(10));
        }
        r.source_begin("victim", 0);
        r.blame_wait("credit", Time::ZERO, Time::ps(10));
        let b = &r.finish().blame[0];
        assert_eq!(b.wait_ps, 10);
        assert_eq!(b.self_ps, 0);
        let charged: u64 = b.by.iter().map(|(_, p)| p).sum();
        assert_eq!(charged, 10, "charges sum to exactly the wait");
        let mut parts: Vec<u64> = b.by.iter().map(|(_, p)| *p).collect();
        parts.sort_unstable();
        assert_eq!(parts, vec![3, 3, 4]);
    }

    #[test]
    fn own_occupancy_is_self_blame() {
        let mut r = TraceRecorder::new(0, 10);
        r.source_begin("inst", 0);
        r.blame_occupy("dram", Time::ZERO, Time::ps(25));
        // Same source waits behind its own earlier access.
        r.blame_wait("dram", Time::ps(5), Time::ps(25));
        let b = &r.finish().blame[0];
        assert_eq!((b.wait_ps, b.self_ps), (20, 20));
        assert!(b.by.is_empty());
    }

    #[test]
    fn zero_wait_registers_without_blame() {
        let mut r = TraceRecorder::new(0, 10);
        r.blame_wait("link", Time::ps(7), Time::ps(7));
        let b = &r.finish().blame[0];
        assert_eq!((b.waits, b.wait_ps, b.self_ps), (1, 0, 0));
        assert!(b.by.is_empty());
    }

    #[test]
    fn fold_builds_sorted_matrices_and_top_interferer() {
        let sb = SweepBlame::fold("sw", 2, &[contended_point(1), contended_point(0)]);
        assert_eq!(sb.per_point.len(), 2);
        assert_eq!(sb.per_point[0].index, 0, "points sort by index");
        let gate = sb.merged_resource("gate").expect("gate merged");
        assert_eq!(gate.wait_ps, 60);
        assert_eq!(gate.cross_ps, 60);
        assert_eq!(gate.cross_share(), 1.0);
        let top = gate.top_interferer.as_ref().expect("has interferer");
        assert_eq!((top.culprit.as_str(), top.ps), ("inst_0", 60));
        let v = gate.victim("inst_1").expect("victim row");
        assert_eq!(
            v.self_ps + v.by.iter().map(|c| c.ps).sum::<u64>(),
            v.wait_ps
        );
    }

    #[test]
    fn fold_is_point_order_independent() {
        let a = SweepBlame::fold("sw", 2, &[contended_point(0), contended_point(1)]);
        let b = SweepBlame::fold("sw", 2, &[contended_point(1), contended_point(0)]);
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a.to_value()).unwrap(),
            serde_json::to_string(&b.to_value()).unwrap()
        );
    }

    #[test]
    fn single_source_point_has_zero_cross_blame() {
        let mut r = TraceRecorder::new(0, 10);
        r.blame_occupy("dram", Time::ZERO, Time::ps(10));
        r.blame_wait("dram", Time::ps(2), Time::ps(10));
        r.blame_occupy("dram", Time::ps(10), Time::ps(20));
        r.blame_wait("dram", Time::ps(12), Time::ps(30));
        let sb = SweepBlame::fold("sw", 1, &[r.finish()]);
        let dram = sb.merged_resource("dram").expect("dram merged");
        assert_eq!(dram.cross_ps, 0);
        assert!(dram.top_interferer.is_none());
        assert_eq!(dram.self_ps, dram.wait_ps);
    }

    #[test]
    fn blame_json_round_trips_the_checker() {
        let sb = SweepBlame::fold("sw", 2, &[contended_point(0), contended_point(1)]);
        let root = Value::Object(vec![
            ("schema".into(), Value::U64(1)),
            ("sweeps".into(), Value::Array(vec![sb.to_value()])),
        ]);
        let text = serde_json::to_string_pretty(&root).unwrap();
        let stats = check_blame(&text).expect("valid blame.json");
        assert_eq!(stats.sweeps, 1);
        assert_eq!(stats.points, 2);
        assert!(stats.victims > 0);
    }

    #[test]
    fn checker_collects_every_failure() {
        let text = r#"{
            "schema": 1,
            "sweeps": [{
                "sweep": "sw",
                "per_point": [],
                "merged": [{
                    "resource": "gate",
                    "waits": 1, "wait_ps": 100, "self_ps": 10, "cross_ps": 50,
                    "cross_share": 0.9,
                    "top_interferer": {"culprit": "ghost_0", "ps": 7},
                    "victims": [{
                        "victim": "inst_1",
                        "waits": 1, "wait_ps": 100, "self_ps": 10, "cross_ps": 50,
                        "cross_share": 0.5,
                        "by": [
                            {"culprit": "inst_1", "ps": 20},
                            {"culprit": "inst_0", "ps": 20}
                        ]
                    }]
                }]
            }]
        }"#;
        let errors = check_blame(text).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("partition broken")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("by charges sum")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("its own culprit")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("not label-sorted")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("cross_share")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("top_interferer")),
            "{errors:?}"
        );
    }

    #[test]
    fn checker_rejects_missing_schema() {
        assert!(check_blame("{}").is_err());
        assert!(check_blame("not json").is_err());
    }

    #[test]
    fn blame_track_table_is_closed() {
        for r in ["gate", "credit", "link", "switch", "dram", "serve"] {
            let t = track_for(r).expect("known resource has a track");
            assert!(t.starts_with("blame."));
        }
        assert!(track_for("unknown").is_none());
    }
}
