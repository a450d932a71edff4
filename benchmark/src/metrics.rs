//! The metric tables: names, units, directions and bounds. These are the
//! same rows as `BENCHMARK.json` (a test holds the two together).

/// A metric a user of the simulator sees, per workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.20,
    },
    EndToEnd {
        name: "accesses_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// A metric of a single layer. `exact` ones are simulated counts that
/// must repeat bit-for-bit between runs and between commits that claim
/// unchanged simulated results.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        exact: true,
    }
}

/// Every per-layer metric, in print order. A `--trace 1` run prints all
/// of them; one a workload does not exercise reads 0 there.
pub const PER_LAYER: [PerLayer; 80] = [
    // Unit-cost probes (probes.rs).
    timed("sim.event_queue.ns_per_op.occ64", "ns"),
    timed("sim.event_queue.ns_per_op.occ10k", "ns"),
    timed("sim.process.ns_per_step", "ns"),
    timed("sim.histogram.ns_per_record", "ns"),
    timed("axi.cycle_gate.ns_per_cycle", "ns"),
    timed("delay.analytic_gate.ns_per_grant", "ns"),
    timed("mem.cache.ns_per_access.seq", "ns"),
    timed("mem.cache.ns_per_access.rand", "ns"),
    exact("mem.cache.hit_ratio.rand", "ratio"),
    timed("mem.dram.fixed.ns_per_access", "ns"),
    timed("mem.dram.banked_ddr4.ns_per_access", "ns"),
    timed("mem.dram.banked_degenerate.ns_per_access", "ns"),
    timed("mem.system.hit.ns_per_access", "ns"),
    timed("mem.system.local_miss.ns_per_access", "ns"),
    timed("mem.system.retouch_rounds.ns_per_line_round", "ns"),
    timed("mem.backing.ns_per_f64_bulk", "ns"),
    timed("net.link.ns_per_send", "ns"),
    timed("net.switch.ns_per_forward", "ns"),
    timed("fabric.engine.ns_per_fetch_line.period1", "ns"),
    timed("fabric.engine.ns_per_fetch_line.period100", "ns"),
    timed("fabric.engine.ns_per_writeback_line", "ns"),
    timed("fabric.packet.ns_per_codec", "ns"),
    timed("workloads.stream.local.ns_per_element", "ns"),
    timed("workloads.kv.local.ns_per_request", "ns"),
    timed("workloads.bfs.local.ns_per_edge", "ns"),
    timed("workloads.graph.build_s", "s"),
    timed("workloads.kv.build_s", "s"),
    timed("serve.arrival.ns_per_arrival", "ns"),
    timed("serve.admission.ns_per_decide", "ns"),
    timed("serve.engine.local.ns_per_request", "ns"),
    timed("serve.arrivals_per_host_s", "1/s"),
    timed("core.testbed.build_us", "us"),
    timed("core.sweep.ns_per_point_overhead", "ns"),
    timed("core.sweep.cache_hit_us_per_point", "us"),
    timed("core.report.to_json_ns_per_point", "ns"),
    timed("telemetry.probe_disabled.ns_per_call", "ns"),
    timed("telemetry.latency.ns_per_call", "ns"),
    timed("telemetry.counter_busy.ns_per_call", "ns"),
    timed("telemetry.blame_wait.ns_per_call", "ns"),
    timed("telemetry.export_sweep.ms_per_point", "ms"),
    timed("bench.calib_ops_per_s", "1/s"),
    // The traced pass of the workload being run (layers.rs).
    timed("core.sweep.parallel_speedup", "ratio"),
    timed("core.sweep.stream_delay.wall_s", "s"),
    timed("core.sweep.contention_mcbn.wall_s", "s"),
    timed("core.sweep.contention_mcln.wall_s", "s"),
    timed("core.sweep.contention_mcln_banked.wall_s", "s"),
    timed("core.sweep.serve_tail_solo.wall_s", "s"),
    timed("core.sweep.serve_tail_writeheavy.wall_s", "s"),
    timed("core.sweep.serve_admission.wall_s", "s"),
    timed("core.sweep.serve_tail_corun.wall_s", "s"),
    timed("core.sweep.apps_table1.wall_s", "s"),
    timed("core.sweep.apps_kernels.wall_s", "s"),
    timed("core.sweep.traced_stream_delay.wall_s", "s"),
    timed("core.sweep.traced_mcbn.wall_s", "s"),
    timed("core.sweep.traced_mcln_banked.wall_s", "s"),
    timed("core.sweep.traced_serve_tail.wall_s", "s"),
    timed("core.sweep.traced_admission.wall_s", "s"),
    timed("telemetry.artifact_mib", "MiB"),
    timed("telemetry.tracing_tax", "ratio"),
    exact("shape.fit_r", "ratio"),
    exact("shape.bdp_cv", "ratio"),
    // The reference point of the workload being run and its ledger.
    exact("ref.timed_accesses", "count"),
    exact("ref.cache_miss_ratio", "ratio"),
    exact("ref.remote_reads", "count"),
    exact("ref.remote_writebacks", "count"),
    exact("ref.dram_accesses", "count"),
    exact("ref.executor_steps", "count"),
    exact("ref.sim_elapsed_us", "us"),
    timed("ref.testbed_build_s", "s"),
    timed("ref.setup_s", "s"),
    timed("ref.run_s", "s"),
    timed("ref.export_s", "s"),
    timed("ref.host_ns_per_access", "ns"),
    timed("ledger.cache", "ratio"),
    timed("ledger.fabric", "ratio"),
    timed("ledger.dram", "ratio"),
    timed("ledger.executor", "ratio"),
    timed("ledger.other", "ratio"),
    timed("bench.span_overhead_ratio", "ratio"),
    timed("bench.probes_s", "s"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use serde::Value;

    /// `BENCHMARK.json` and the tables here are the same rows.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let rows = |key: &str| json.get(key).and_then(Value::as_array).expect(key).to_vec();
        let text_of = |row: &Value, key: &str| {
            let field = row.get(key).and_then(Value::as_str);
            field
                .unwrap_or_else(|| panic!("{key} in {row:?}"))
                .to_string()
        };

        let names: Vec<String> = rows("workloads")
            .iter()
            .map(|w| text_of(w, "name"))
            .collect();
        assert_eq!(names, WORKLOADS.map(|w| w.name));

        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text_of(row, "name"), m.name);
            assert_eq!(text_of(row, "unit"), m.unit, "{}", m.name);
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(text_of(row, "better"), better, "{}", m.name);
            assert_eq!(
                row.get("bound").and_then(Value::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }

        let layers = rows("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text_of(row, "name"), m.name);
            assert_eq!(text_of(row, "unit"), m.unit, "{}", m.name);
        }
    }
}
