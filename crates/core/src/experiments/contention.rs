//! E6/E7 — resource contention (Figs. 6 and 7, §IV-E).
//!
//! * **MCBN** — N STREAM instances on the borrower all using disaggregated
//!   memory: they compete for the NIC/network and split its bandwidth
//!   roughly equally (Fig. 6).
//! * **MCLN** — one borrower STREAM instance over disaggregated memory
//!   while N STREAM instances hammer the lender's local memory: the
//!   lender's bus is so much faster than the network that the borrower's
//!   bandwidth barely moves (Fig. 7).

use crate::config::TestbedConfig;
use crate::runners::{spawn_stream, Site, StreamParty, StreamProc};
use crate::sweep;
use crate::testbed::Testbed;
use serde::{Deserialize, Serialize};
use thymesim_mem::{shared_dram, BankedDramConfig, DramModel, SharedDram};
use thymesim_sim::{run_processes, Time};
use thymesim_workloads::stream::StreamConfig;

/// Instance counts used in the paper's contention figures.
pub const FIG6_COUNTS: [usize; 4] = [1, 2, 4, 8];
pub const FIG7_COUNTS: [usize; 5] = [0, 1, 2, 4, 8];

/// The full configuration of one contention point.
#[derive(Clone, Debug, Serialize)]
struct ContentionPoint {
    instances: usize,
    cfg: TestbedConfig,
    stream: StreamConfig,
}

fn contention_grid(
    base: &TestbedConfig,
    stream: &StreamConfig,
    counts: &[usize],
) -> Vec<ContentionPoint> {
    counts
        .iter()
        .map(|&instances| ContentionPoint {
            instances,
            cfg: base.clone(),
            stream: *stream,
        })
        .collect()
}

/// One Fig. 6 point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct McbnPoint {
    pub instances: usize,
    /// Mean STREAM-reported bandwidth per instance, GiB/s.
    pub per_instance_gib_s: f64,
    /// Sum across instances.
    pub aggregate_gib_s: f64,
}

/// Run MCBN at each instance count.
pub fn mcbn(base: &TestbedConfig, stream: &StreamConfig, counts: &[usize]) -> Vec<McbnPoint> {
    let grid = contention_grid(base, stream, counts);
    let mut points = sweep::run("contention/mcbn", &grid, |_ctx, pt| {
        let n = pt.instances;
        assert!(n >= 1);
        let mut tb = Testbed::build(&pt.cfg).expect("MCBN attach");
        let start = tb.attach.ready_at;
        let mut procs: Vec<StreamProc> = (0..n)
            .map(|i| {
                let p = spawn_stream(&mut tb.borrower, &mut tb.remote_arena, &pt.stream, start);
                StreamProc::tagged(p, "inst", i as u64)
            })
            .collect();
        let stats = run_processes(&mut procs, &mut tb.borrower, Time::NEVER);
        assert_eq!(stats.finished, n, "instances did not finish");
        let bws: Vec<f64> = procs
            .iter()
            .map(|p| p.inner.mean_bandwidth_gib_s())
            .collect();
        let agg: f64 = bws.iter().sum();
        McbnPoint {
            instances: n,
            per_instance_gib_s: agg / n as f64,
            aggregate_gib_s: agg,
        }
    });
    points.sort_by_key(|p| p.instances);
    points
}

/// One Fig. 7 point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MclnPoint {
    pub lender_instances: usize,
    /// The borrower instance's STREAM bandwidth, GiB/s.
    pub borrower_gib_s: f64,
    /// Aggregate bandwidth of the lender-side instances, GiB/s.
    pub lender_aggregate_gib_s: f64,
}

/// The MCLN point body on a built testbed: the measured borrower
/// instance over disaggregated memory against `n` instances on the
/// lender's own memory (lender-side STREAM keeps a resident working set
/// on its local DRAM; Graph500-class MLP is irrelevant — they just burn
/// bus bandwidth). Returns (borrower, lender aggregate) GiB/s.
fn run_mcln_point(tb: &mut Testbed, stream: &StreamConfig, n: usize) -> (f64, f64) {
    let mut procs: Vec<StreamParty> = std::iter::once((Site::Borrower(0), "borrower", 0))
        .chain((0..n as u64).map(|i| (Site::Lender(0), "lender", i)))
        .map(|(site, name, i)| StreamParty::spawn(tb, site, stream, name, i))
        .collect();
    let stats = run_processes(&mut procs, tb, Time::NEVER);
    assert_eq!(stats.finished, n + 1);
    let lender_aggregate = procs[1..]
        .iter()
        .map(|p| p.inner.mean_bandwidth_gib_s())
        .sum();
    (procs[0].inner.mean_bandwidth_gib_s(), lender_aggregate)
}

/// Run MCLN at each lender instance count.
pub fn mcln(base: &TestbedConfig, stream: &StreamConfig, counts: &[usize]) -> Vec<MclnPoint> {
    let grid = contention_grid(base, stream, counts);
    let mut points = sweep::run("contention/mcln", &grid, |_ctx, pt| {
        let mut tb = Testbed::build(&pt.cfg).expect("MCLN attach");
        let (borrower_gib_s, lender_aggregate_gib_s) =
            run_mcln_point(&mut tb, &pt.stream, pt.instances);
        MclnPoint {
            lender_instances: pt.instances,
            borrower_gib_s,
            lender_aggregate_gib_s,
        }
    });
    points.sort_by_key(|p| p.lender_instances);
    points
}

/// One point of the banked-DRAM MCLN variant: the Fig. 7 columns plus
/// the row-buffer mechanism the flat model cannot see.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MclnBankedPoint {
    pub lender_instances: usize,
    /// The borrower instance's STREAM bandwidth, GiB/s.
    pub borrower_gib_s: f64,
    /// Aggregate bandwidth of the lender-side instances, GiB/s.
    pub lender_aggregate_gib_s: f64,
    /// Fraction of lender-bus accesses served from an open row.
    pub row_hit_rate: f64,
    /// Fraction that had to close another row first (row thrash).
    pub row_conflict_rate: f64,
    /// Mean delay between arrival and data-bus grant, ns.
    pub mean_queue_wait_ns: f64,
    /// Mean arrival-to-data latency of a lender-bus access, ns.
    pub mean_read_ns: f64,
}

/// MCLN re-run with the lender bus on the bank/row-buffer model: as
/// lender instances multiply, their interleaved streams thrash the row
/// buffers — hit rate falls, conflicts and queue delay grow — while
/// the borrower's bandwidth stays network-bound and flat, sharpening
/// the paper's Fig. 7 claim with the mechanism made visible.
pub fn mcln_banked(
    base: &TestbedConfig,
    stream: &StreamConfig,
    counts: &[usize],
) -> Vec<MclnBankedPoint> {
    let banked = base
        .clone()
        .with_lender_dram(DramModel::Banked(BankedDramConfig::ddr4()));
    let grid = contention_grid(&banked, stream, counts);
    let mut points = sweep::run("contention/mcln_banked", &grid, |_ctx, pt| {
        // Keep a handle on the lender bus to read the row stats after
        // the run (the testbed shares it between the lender's CPU side
        // and the fabric engine).
        let lender_bus = shared_dram(pt.cfg.lender.dram);
        let mut tb =
            Testbed::build_with_lender_bus(&pt.cfg, Time::ZERO, SharedDram::clone(&lender_bus))
                .expect("banked MCLN attach");
        let (borrower_gib_s, lender_aggregate_gib_s) =
            run_mcln_point(&mut tb, &pt.stream, pt.instances);
        let bus = lender_bus.borrow();
        let rs = bus.row_stats().expect("lender bus runs the banked model");
        MclnBankedPoint {
            lender_instances: pt.instances,
            borrower_gib_s,
            lender_aggregate_gib_s,
            row_hit_rate: rs.hit_rate(),
            row_conflict_rate: rs.conflict_rate(),
            mean_queue_wait_ns: bus.mean_queue_wait().as_ps() as f64 / 1e3,
            mean_read_ns: rs.mean_service().as_ps() as f64 / 1e3,
        }
    });
    points.sort_by_key(|p| p.lender_instances);
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_stream() -> StreamConfig {
        let mut s = StreamConfig::tiny();
        s.elements = 16_384;
        s
    }

    #[test]
    fn mcbn_divides_bandwidth_equally() {
        let points = mcbn(&TestbedConfig::tiny(), &quick_stream(), &[1, 2, 4]);
        let solo = points[0].per_instance_gib_s;
        // Aggregate stays ~flat (the shared bottleneck is saturated);
        // per-instance bandwidth divides by N.
        for p in &points {
            assert!(
                (p.aggregate_gib_s / points[0].aggregate_gib_s - 1.0).abs() < 0.25,
                "aggregate should stay ~constant: {points:?}"
            );
            let expected = solo / p.instances as f64;
            let err = (p.per_instance_gib_s - expected).abs() / expected;
            assert!(
                err < 0.3,
                "N={}: per-instance {} vs expected {expected}",
                p.instances,
                p.per_instance_gib_s
            );
        }
    }

    #[test]
    fn mcln_borrower_bandwidth_is_flat() {
        let points = mcln(&TestbedConfig::tiny(), &quick_stream(), &[0, 2, 4]);
        let solo = points[0].borrower_gib_s;
        for p in &points {
            let drop = 1.0 - p.borrower_gib_s / solo;
            assert!(
                drop < 0.10,
                "lender contention ({} instances) cost the borrower {:.1}% — \
                 the network, not the lender bus, must be the bottleneck",
                p.lender_instances,
                drop * 100.0
            );
        }
        // And the lender instances really did move data.
        assert!(points.last().unwrap().lender_aggregate_gib_s > 10.0);
    }

    #[test]
    fn mcln_banked_shows_row_thrash() {
        let points = mcln_banked(&TestbedConfig::tiny(), &quick_stream(), &[0, 4]);
        let (solo, loaded) = (&points[0], &points[1]);
        eprintln!("banked MCLN: {points:?}");
        // Alone, the borrower's sequential remote traffic rides the row
        // buffers; four interleaved lender streams thrash them.
        assert!(
            loaded.row_hit_rate < solo.row_hit_rate,
            "hit rate must fall under lender load: {points:?}"
        );
        assert!(
            loaded.row_conflict_rate > solo.row_conflict_rate,
            "conflicts must grow under lender load: {points:?}"
        );
        assert!(
            loaded.mean_read_ns > solo.mean_read_ns,
            "mean bus latency must grow under lender load: {points:?}"
        );
        // The borrower still gets most of its bandwidth — but unlike
        // the fixed model's near-perfect flatness, the banked bus lets
        // some lender contention through (queueing behind row cycles
        // is visible to remote reads). That leakage is the fidelity
        // the variant exists to measure, so only bound it loosely.
        let drop = 1.0 - loaded.borrower_gib_s / solo.borrower_gib_s;
        assert!(
            drop < 0.35,
            "borrower bandwidth should stay mostly network-bound \
             (dropped {:.0}%): {points:?}",
            drop * 100.0
        );
    }

    #[test]
    fn mcln_lender_instances_share_their_bus() {
        let points = mcln(&TestbedConfig::tiny(), &quick_stream(), &[1, 4]);
        let one = points[0].lender_aggregate_gib_s;
        let four = points[1].lender_aggregate_gib_s;
        // Four instances move more in aggregate, but less than 4x (the
        // bus saturates).
        assert!(four > one, "{points:?}");
        assert!(four < one * 4.0, "{points:?}");
    }
}
