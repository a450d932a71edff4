//! Rendering experiment results as the paper's tables and figure series
//! (markdown + CSV), plus JSON for downstream tooling.

use crate::experiments::apps::{Fig5Point, Table1Row};
use crate::experiments::beyond::{EmulationReport, PoolingPoint};
use crate::experiments::dist::DistPoint;
use crate::experiments::placement::PlacementPoint;
use crate::experiments::qos::{QosPoint, ServeTailPoint};
use crate::experiments::resilience::{ResilienceOutcome, ResiliencePoint};
use crate::experiments::sensitivity::SensitivityRow;
use crate::experiments::validate::{DelaySweepPoint, ValidationReport};
use serde::Serialize;
use std::fmt::Write as _;

/// Render any serializable series to pretty JSON.
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("results are serializable")
}

/// A minimal CSV writer (header + rows) for figure series.
pub fn csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for r in rows {
        out.push_str(&r.join(","));
        out.push('\n');
    }
    out
}

/// A figure series whose columns are its row struct's fields, in
/// declaration order: the header names the fields, integers print in
/// full, floats through `fmt`, strings verbatim. `series_csv(&[])`
/// prints nothing, since no row names the columns.
pub fn series_csv<T: Serialize>(rows: &[T]) -> String {
    fn fields(row: &serde::Value) -> &[(String, serde::Value)] {
        row.as_object().expect("a series row is a struct")
    }
    let rows: Vec<serde::Value> = rows.iter().map(Serialize::to_value).collect();
    let Some(first) = rows.first() else {
        return String::new();
    };
    let header: Vec<&str> = fields(first).iter().map(|(k, _)| k.as_str()).collect();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            fields(row)
                .iter()
                .map(|(k, v)| match v {
                    serde::Value::U64(n) => n.to_string(),
                    serde::Value::I64(n) => n.to_string(),
                    serde::Value::F64(x) => fmt(*x),
                    serde::Value::Str(s) => s.clone(),
                    other => panic!("series column {k} is not a scalar: {other:?}"),
                })
                .collect()
        })
        .collect();
    csv(&header, &cells)
}

fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Fig. 2 + Fig. 3 as CSV: period, latency, bandwidth, BDP.
pub fn fig23_csv(points: &[DelaySweepPoint]) -> String {
    csv(
        &[
            "period",
            "latency_us",
            "bandwidth_gib_s",
            "copy_gib_s",
            "triad_gib_s",
            "bdp_kib",
        ],
        &points
            .iter()
            .map(|p| {
                vec![
                    p.period.to_string(),
                    fmt(p.latency_us),
                    fmt(p.bandwidth_gib_s),
                    fmt(p.copy_gib_s),
                    fmt(p.triad_gib_s),
                    fmt(p.bdp_kib),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// §III-B validation verdicts as markdown.
pub fn validation_md(v: &ValidationReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "| check | value |");
    let _ = writeln!(s, "|---|---|");
    let _ = writeln!(s, "| PERIOD↔latency Pearson r | {:.4} |", v.fit_r);
    let _ = writeln!(
        s,
        "| slope | {:.3} µs/PERIOD (model: window×cycle = 0.512) |",
        v.fit_slope_us_per_period
    );
    let _ = writeln!(
        s,
        "| latency range | {:.2}–{:.1} µs |",
        v.min_latency_us, v.max_latency_us
    );
    let _ = writeln!(
        s,
        "| datacenter percentile covered | {:.1}% |",
        v.max_percentile_covered * 100.0
    );
    let _ = writeln!(
        s,
        "| BDP | {:.1} KiB mean, CV {:.3} |",
        v.bdp_mean_kib, v.bdp_cv
    );
    s
}

/// Fig. 4 as a markdown table.
pub fn fig4_md(points: &[ResiliencePoint]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "| PERIOD | outcome | STREAM latency |");
    let _ = writeln!(s, "|---|---|---|");
    for p in points {
        match &p.outcome {
            ResilienceOutcome::Completed {
                latency_us,
                bandwidth_gib_s,
            } => {
                let _ = writeln!(
                    s,
                    "| {} | completed | {} µs ({} GiB/s) |",
                    p.period,
                    fmt(*latency_us),
                    fmt(*bandwidth_gib_s)
                );
            }
            ResilienceOutcome::AttachTimeout {
                elapsed_ms,
                budget_ms,
            } => {
                let _ = writeln!(
                    s,
                    "| {} | **FPGA not detected** (discovery {} ms > budget {} ms) | — |",
                    p.period,
                    fmt(*elapsed_ms),
                    fmt(*budget_ms)
                );
            }
            ResilienceOutcome::MachineCheck { latency_ms } => {
                let _ = writeln!(
                    s,
                    "| {} | **machine check** (load stalled {} ms) | — |",
                    p.period,
                    fmt(*latency_ms)
                );
            }
        }
    }
    s
}

/// Table I as markdown, mirroring the paper's layout.
pub fn table1_md(rows: &[Table1Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "| | PERIOD=1 | PERIOD=1000 |");
    let _ = writeln!(s, "|---|---|---|");
    for r in rows {
        let _ = writeln!(
            s,
            "| {} | {}x | {}x |",
            r.app,
            fmt(r.degradation_p1),
            fmt(r.degradation_p1000)
        );
    }
    s
}

/// Fig. 5 series as CSV.
pub fn fig5_csv(points: &[Fig5Point]) -> String {
    csv(
        &[
            "period",
            "redis_degradation",
            "bfs_degradation",
            "sssp_degradation",
            "pagerank_degradation",
            "cc_degradation",
            "bc_degradation",
            "tc_degradation",
        ],
        &points
            .iter()
            .map(|p| {
                vec![
                    p.period.to_string(),
                    fmt(p.redis),
                    fmt(p.bfs),
                    fmt(p.sssp),
                    fmt(p.pagerank),
                    fmt(p.cc),
                    fmt(p.bc),
                    fmt(p.tc),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// E19 kernel-scale table as markdown: one row per (kernel, layout)
/// cell with the adjacency footprint and the validated metric.
pub fn kernels_md(points: &[crate::experiments::apps::KernelScalePoint]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "| kernel | layout | scale | adj MiB | B/edge | elapsed ms | metric | validated |"
    );
    let _ = writeln!(s, "|---|---|---|---|---|---|---|---|");
    for p in points {
        let _ = writeln!(
            s,
            "| {} | {} | {} | {} | {} | {} | {} | {} |",
            p.kernel,
            p.layout,
            p.scale,
            fmt(p.adj_mib),
            fmt(p.bytes_per_edge),
            fmt(p.elapsed_ms),
            p.metric,
            if p.validated { "yes" } else { "NO" }
        );
    }
    s
}

/// Distribution-panel results as a markdown table.
pub fn dist_md(points: &[DistPoint]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "| distribution | injected mean | latency mean | latency p99 | tail p99/mean | bandwidth |"
    );
    let _ = writeln!(s, "|---|---|---|---|---|---|");
    for p in points {
        let _ = writeln!(
            s,
            "| {} | {} µs | {} µs | {} µs | {}x | {} GiB/s |",
            p.dist,
            fmt(p.mean_injected_us),
            fmt(p.latency_mean_us),
            fmt(p.latency_p99_us),
            fmt(p.tail_ratio),
            fmt(p.bandwidth_gib_s)
        );
    }
    s
}

/// E11 emulation-fidelity verdict as markdown.
pub fn emulation_md(r: &EmulationReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "congested ({} pairs): mean {} µs, p99 {} µs (tail {}x)",
        r.congested.pairs,
        fmt(r.congested.fg_latency_us),
        fmt(r.congested.fg_p99_us),
        fmt(r.congested_tail_ratio)
    );
    let _ = writeln!(
        s,
        "matched PERIOD = {}: mean {} µs (error {:.1}%), p99 {} µs (tail {}x)",
        r.matched_period,
        fmt(r.injected_latency_us),
        r.mean_error * 100.0,
        fmt(r.injected_p99_us),
        fmt(r.injected_tail_ratio)
    );
    s
}

/// E12 pooling sweep as CSV.
pub fn pooling_csv(points: &[PoolingPoint]) -> String {
    csv(
        &[
            "pool_gb_s",
            "borrowers",
            "per_borrower_gib_s",
            "pool_queue_us",
        ],
        &points
            .iter()
            .map(|p| {
                vec![
                    fmt(p.pool_gb_s),
                    p.borrowers.to_string(),
                    fmt(p.per_borrower_gib_s),
                    fmt(p.pool_queue_us),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// E13 page-migration study as a markdown table.
pub fn qos_md(points: &[QosPoint]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "| policy | local MiB | JCT | speedup |");
    let _ = writeln!(s, "|---|---|---|---|");
    for p in points {
        let _ = writeln!(
            s,
            "| {} | {} | {} ms | {}x |",
            p.policy,
            fmt(p.local_bytes as f64 / (1 << 20) as f64),
            fmt(p.jct_ms),
            fmt(p.speedup)
        );
    }
    s
}

/// E17 serving tails as a markdown table: the tail columns (p99, p999,
/// max) sit next to the mean so the divergence the closed-loop client
/// hides is visible in one row.
pub fn serve_tail_md(points: &[ServeTailPoint]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "| PERIOD | contention | offered op/s | mean µs | p50 | p99 | p999 | max | p999/mean |"
    );
    let _ = writeln!(s, "|---|---|---|---|---|---|---|---|---|");
    for p in points {
        let contention = if p.instances == 0 {
            p.contention.clone()
        } else {
            format!("{}x{}", p.contention, p.instances)
        };
        let _ = writeln!(
            s,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {}x |",
            p.period,
            contention,
            fmt(p.offered_ops_s),
            fmt(p.sojourn_mean_us),
            fmt(p.sojourn_p50_us),
            fmt(p.sojourn_p99_us),
            fmt(p.sojourn_p999_us),
            fmt(p.sojourn_max_us),
            fmt(p.tail_ratio)
        );
    }
    s
}

/// E17 admission study as a markdown table: each policy against the
/// open baseline's tail.
pub fn admission_md(points: &[ServeTailPoint]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "| policy | admitted | dropped | mean µs | p99 | p999 | wait p999 | p999/mean |"
    );
    let _ = writeln!(s, "|---|---|---|---|---|---|---|---|");
    for p in points {
        let _ = writeln!(
            s,
            "| {} | {} | {} | {} | {} | {} | {} | {}x |",
            p.policy,
            p.admitted,
            p.dropped,
            fmt(p.sojourn_mean_us),
            fmt(p.sojourn_p99_us),
            fmt(p.sojourn_p999_us),
            fmt(p.queue_wait_p999_us),
            fmt(p.tail_ratio)
        );
    }
    s
}

/// E20 interference provenance as markdown — the "who stole my latency"
/// view. One table per sweep: each queueing resource's total wait,
/// self/cross split, and top interferer, then a victim breakdown for
/// every resource where cross-source blame exists.
pub fn blame_md(sweeps: &[thymesim_telemetry::SweepBlame]) -> String {
    let mut s = String::new();
    for sw in sweeps {
        let _ = writeln!(s, "### {}", sw.sweep);
        let _ = writeln!(
            s,
            "| resource | waits | wait µs | self % | cross % | top interferer |"
        );
        let _ = writeln!(s, "|---|---|---|---|---|---|");
        for r in &sw.merged {
            let top = match &r.top_interferer {
                Some(c) => format!("{} ({} µs)", c.culprit, fmt(c.ps as f64 / 1e6)),
                None => "—".into(),
            };
            let _ = writeln!(
                s,
                "| {} | {} | {} | {} | {} | {} |",
                r.resource,
                r.waits,
                fmt(r.wait_ps as f64 / 1e6),
                fmt((1.0 - r.cross_share()) * 100.0),
                fmt(r.cross_share() * 100.0),
                top
            );
        }
        for r in &sw.merged {
            if r.cross_ps == 0 {
                continue;
            }
            let _ = writeln!(s, "\n`{}` blame by victim:", r.resource);
            let _ = writeln!(s, "| victim | wait µs | cross % | blamed on |");
            let _ = writeln!(s, "|---|---|---|---|");
            for v in &r.victims {
                let by =
                    v.by.iter()
                        .map(|c| {
                            format!(
                                "{} {}%",
                                c.culprit,
                                fmt(c.ps as f64 / v.wait_ps.max(1) as f64 * 100.0)
                            )
                        })
                        .collect::<Vec<_>>()
                        .join(", ");
                let _ = writeln!(
                    s,
                    "| {} | {} | {} | {} |",
                    v.victim,
                    fmt(v.wait_ps as f64 / 1e6),
                    fmt(v.cross_share() * 100.0),
                    if by.is_empty() { "—".into() } else { by }
                );
            }
        }
        s.push('\n');
    }
    s
}

/// E15 sensitivity tornado as CSV (percent changes).
pub fn sensitivity_csv(rows: &[SensitivityRow]) -> String {
    csv(
        &[
            "knob",
            "slope_minus50_pct",
            "slope_plus50_pct",
            "floor_minus50_pct",
            "floor_plus50_pct",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:?}", r.knob),
                    fmt(r.slope_lo * 100.0),
                    fmt(r.slope_hi * 100.0),
                    fmt(r.floor_lo * 100.0),
                    fmt(r.floor_hi * 100.0),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// E16 placement study as a markdown table.
pub fn placement_md(points: &[PlacementPoint]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "| regime | policy | mean GiB/s | min GiB/s |");
    let _ = writeln!(s, "|---|---|---|---|");
    for p in points {
        let _ = writeln!(
            s,
            "| {} | {:?} | {} | {} |",
            p.regime,
            p.policy,
            fmt(p.mean_borrower_gib_s),
            fmt(p.min_borrower_gib_s)
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::beyond::{CongestionPoint, TopologyPoint};

    #[test]
    fn csv_shapes_are_rectangular() {
        let s = csv(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(s, "a,b\n1,2\n");
    }

    #[test]
    fn table1_md_layout() {
        let rows = vec![Table1Row {
            app: "Redis".into(),
            degradation_p1: 1.01,
            degradation_p1000: 1.73,
        }];
        let md = table1_md(&rows);
        assert!(md.contains("| Redis | 1.010x | 1.730x |"));
        assert!(md.starts_with("| | PERIOD=1 | PERIOD=1000 |"));
    }

    #[test]
    fn fig4_md_marks_failures() {
        let points = vec![
            ResiliencePoint {
                period: 1000,
                outcome: ResilienceOutcome::Completed {
                    latency_us: 512.0,
                    bandwidth_gib_s: 0.03,
                },
            },
            ResiliencePoint {
                period: 10_000,
                outcome: ResilienceOutcome::AttachTimeout {
                    elapsed_ms: 10.6,
                    budget_ms: 2.0,
                },
            },
        ];
        let md = fig4_md(&points);
        assert!(md.contains("completed"));
        assert!(md.contains("FPGA not detected"));
    }

    #[test]
    fn json_round_trips_series() {
        let p = vec![Fig5Point {
            period: 100,
            redis: 1.0,
            bfs: 3.5,
            sssp: 2.5,
            pagerank: 3.1,
            cc: 3.2,
            bc: 3.4,
            tc: 1.4,
        }];
        let j = to_json(&p);
        assert!(j.contains("\"period\": 100"));
        let c = fig5_csv(&p);
        assert!(c.starts_with("period,redis_degradation,"));
        assert!(c.contains("tc_degradation"));
        assert!(c.contains("100,1.000,3.500,2.500,3.100,3.200,3.400,1.400"));

        let k = kernels_md(&[crate::experiments::apps::KernelScalePoint {
            kernel: "CC".into(),
            layout: "Compressed".into(),
            scale: 22,
            edgefactor: 4,
            adj_mib: 61.5,
            bytes_per_edge: 4.6,
            elapsed_ms: 812.0,
            metric: 1_234,
            validated: true,
        }]);
        assert!(k.contains("| CC | Compressed | 22 | 61.5"));
        assert!(k.contains("| yes |"));
    }

    #[test]
    fn extension_renderers_are_wellformed() {
        let c = series_csv(&[CongestionPoint {
            pairs: 4,
            fg_latency_us: 6.6,
            fg_p99_us: 7.9,
            fg_bandwidth_gib_s: 2.3,
        }]);
        assert!(c.starts_with("pairs,"));
        assert!(c.contains("4,6.600,7.900,2.300"));
        assert_eq!(series_csv::<CongestionPoint>(&[]), "");

        let q = qos_md(&[crate::experiments::qos::QosPoint {
            policy: "migrated".into(),
            local_bytes: 8 << 20,
            jct_ms: 19.5,
            speedup: 9.3,
        }]);
        assert!(q.contains("| migrated | 8.000 | 19.5 ms | 9.300x |"));

        let t = series_csv(&[TopologyPoint {
            placement: "intra-rack".into(),
            background_pairs: 3,
            fg_latency_us: 2.1,
            fg_bandwidth_gib_s: 7.2,
        }]);
        assert!(t.contains("intra-rack,3,2.100,7.200"));

        let pl = placement_md(&[PlacementPoint {
            policy: crate::experiments::placement::PlacementPolicy::LoadAware,
            regime: "pooling".into(),
            mean_borrower_gib_s: 7.9,
            min_borrower_gib_s: 7.9,
        }]);
        assert!(pl.contains("| pooling | LoadAware | 7.900 | 7.900 |"));
    }

    fn serve_point() -> ServeTailPoint {
        ServeTailPoint {
            period: 400,
            contention: "mcbn".into(),
            instances: 2,
            policy: "open".into(),
            offered_ops_s: 20_000.0,
            arrivals: 1500,
            admitted: 1500,
            dropped: 0,
            sojourn_mean_us: 21.35,
            sojourn_p50_us: 12.5,
            sojourn_p99_us: 58.72,
            sojourn_p999_us: 146.8,
            sojourn_max_us: 151.2,
            queue_wait_mean_us: 9.8,
            queue_wait_p999_us: 120.4,
            tail_ratio: 6.876,
        }
    }

    #[test]
    fn serve_tail_renderers_put_tails_next_to_means() {
        let md = serve_tail_md(&[serve_point()]);
        assert!(md.starts_with(
            "| PERIOD | contention | offered op/s | mean µs | p50 | p99 | p999 | max | p999/mean |"
        ));
        assert!(
            md.contains("| 400 | mcbnx2 | 20000 | 21.4 | 12.5 | 58.7 | 146.8 | 151.2 | 6.876x |")
        );

        let c = series_csv(&[serve_point()]);
        assert!(c.starts_with("period,contention,instances,policy,offered_ops_s,"));
        assert!(c.contains(
            "400,mcbn,2,open,20000,1500,1500,0,21.4,12.5,58.7,146.8,151.2,9.800,120.4,6.876"
        ));

        let mut uncontended = serve_point();
        uncontended.contention = "none".into();
        uncontended.instances = 0;
        assert!(
            serve_tail_md(&[uncontended]).contains("| none |"),
            "no instance suffix on the uncontended row"
        );
    }

    #[test]
    fn admission_md_layout() {
        let mut p = serve_point();
        p.policy = "drop@8".into();
        p.dropped = 19;
        p.admitted = 1481;
        let md = admission_md(&[p]);
        assert!(md.starts_with(
            "| policy | admitted | dropped | mean µs | p99 | p999 | wait p999 | p999/mean |"
        ));
        assert!(md.contains("| drop@8 | 1481 | 19 | 21.4 | 58.7 | 146.8 | 120.4 | 6.876x |"));
    }

    #[test]
    fn blame_md_renders_shares_and_interferers() {
        use thymesim_telemetry::{BlameCell, ResourceBlame, SweepBlame, VictimBlame};
        let sw = SweepBlame {
            sweep: "contention/mcbn".into(),
            points: 1,
            per_point: vec![],
            merged: vec![ResourceBlame {
                resource: "gate".into(),
                waits: 10,
                wait_ps: 1_000_000,
                self_ps: 250_000,
                cross_ps: 750_000,
                top_interferer: Some(BlameCell {
                    culprit: "inst_1".into(),
                    ps: 750_000,
                }),
                victims: vec![VictimBlame {
                    victim: "inst_0".into(),
                    waits: 10,
                    wait_ps: 1_000_000,
                    self_ps: 250_000,
                    cross_ps: 750_000,
                    by: vec![BlameCell {
                        culprit: "inst_1".into(),
                        ps: 750_000,
                    }],
                }],
            }],
        };
        let md = blame_md(&[sw]);
        assert!(md.contains("### contention/mcbn"), "{md}");
        assert!(
            md.contains("| gate | 10 | 1.000 | 25.0 | 75.0 | inst_1 (0.750 µs) |"),
            "{md}"
        );
        assert!(md.contains("`gate` blame by victim:"), "{md}");
        assert!(
            md.contains("| inst_0 | 1.000 | 75.0 | inst_1 75.0% |"),
            "{md}"
        );
    }

    #[test]
    fn fmt_is_compact() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(2209.4), "2209");
        assert_eq!(fmt(10.46), "10.5");
        assert_eq!(fmt(1.013), "1.013");
    }
}
