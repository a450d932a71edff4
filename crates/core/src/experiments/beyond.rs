//! E11/E12 — beyond rack-scale, the regime the paper's characterization
//! is meant to anticipate (§II-B, §V).
//!
//! * **Switched-fabric congestion (E11)** — multiple borrower–lender
//!   pairs share an oversubscribed fabric segment. Background pairs
//!   congest the foreground pair's traffic, producing *emergent* latency.
//!   [`emulation_fidelity`] then closes the paper's core methodological
//!   loop: it picks the constant-injection PERIOD whose mean latency
//!   matches the congested run and compares the resulting degradation —
//!   quantifying how well delay injection emulates real congestion (and
//!   where the constant injector misses the tail, per §V's limitation).
//! * **Memory pooling (E12)** — §V argues that with CPU-less memory
//!   pools "the bottleneck could shift from the network to the memory
//!   pool itself". Several borrowers share one lender/pool bus; sweeping
//!   the pool's bandwidth shows exactly that shift: with a server-class
//!   bus the borrowers stay network-bound (Fig. 7's regime), with a
//!   pool-class device they collapse together.

use crate::config::TestbedConfig;
use crate::runners::{Nodes, Site, StreamParty};
use crate::sweep;
use crate::testbed::Testbed;
use serde::{Deserialize, Serialize};
use thymesim_fabric::{shared_link, FabricEngine, SharedLink};
use thymesim_mem::{shared_dram, DramConfig, MemSystem, NoRemote, SharedDram};
use thymesim_net::{LinkConfig, TreeConfig, TreeTopology};
use thymesim_sim::{run_processes, Dur, Time};
use thymesim_workloads::stream::{StreamConfig, StreamProcess};

/// Several independent borrower–lender pairs advancing on one timeline.
pub struct MultiPair {
    pub testbeds: Vec<Testbed>,
}

impl MultiPair {
    pub fn len(&self) -> usize {
        self.testbeds.len()
    }
    pub fn is_empty(&self) -> bool {
        self.testbeds.is_empty()
    }
}

impl Nodes for MultiPair {
    fn borrower(&mut self, i: usize) -> &mut MemSystem<FabricEngine> {
        &mut self.testbeds[i].borrower
    }
    fn lender(&mut self, i: usize) -> &mut MemSystem<NoRemote> {
        &mut self.testbeds[i].lender
    }
}

/// One STREAM instance per pair, each on its own borrower.
fn run_pairs(mut pairs: MultiPair, stream: &StreamConfig) -> (MultiPair, Vec<StreamProcess>) {
    let mut procs: Vec<StreamParty> = pairs
        .testbeds
        .iter_mut()
        .enumerate()
        .map(|(idx, tb)| StreamParty::spawn(tb, Site::Borrower(idx), stream, "main", 0))
        .collect();
    let stats = run_processes(&mut procs, &mut pairs, Time::NEVER);
    assert_eq!(stats.finished, procs.len(), "pairs did not finish");
    (pairs, procs.into_iter().map(|p| p.inner).collect())
}

// ---------------------------------------------------------------------------
// E11: switched-fabric congestion
// ---------------------------------------------------------------------------

/// One congestion-sweep point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CongestionPoint {
    /// Total pairs sharing the fabric segment (1 = uncongested).
    pub pairs: usize,
    /// Foreground pair's mean remote latency.
    pub fg_latency_us: f64,
    pub fg_p99_us: f64,
    pub fg_bandwidth_gib_s: f64,
}

/// Build `n` pairs whose NIC traffic shares one fabric segment.
pub fn build_congested_pairs(base: &TestbedConfig, uplink: LinkConfig, n: usize) -> MultiPair {
    assert!(n >= 1);
    let up: SharedLink = shared_link(uplink);
    let down: SharedLink = shared_link(uplink);
    let testbeds = (0..n)
        .map(|_| {
            let mut tb = Testbed::build(base).expect("pair attach");
            tb.borrower.remote_mut().set_route(
                vec![SharedLink::clone(&up)],
                vec![SharedLink::clone(&down)],
                Dur::ns(300),
            );
            tb
        })
        .collect();
    MultiPair { testbeds }
}

/// Sweep the number of pairs contending for the shared segment.
pub fn congestion_sweep(
    base: &TestbedConfig,
    stream: &StreamConfig,
    uplink: LinkConfig,
    counts: &[usize],
) -> Vec<CongestionPoint> {
    #[derive(Clone, Debug, Serialize)]
    struct Point {
        pairs: usize,
        uplink: LinkConfig,
        cfg: TestbedConfig,
        stream: StreamConfig,
    }
    let grid: Vec<Point> = counts
        .iter()
        .map(|&pairs| Point {
            pairs,
            uplink,
            cfg: base.clone(),
            stream: *stream,
        })
        .collect();
    sweep::run("beyond/congestion", &grid, |_ctx, pt| {
        let pairs = build_congested_pairs(&pt.cfg, pt.uplink, pt.pairs);
        let (pairs, procs) = run_pairs(pairs, &pt.stream);
        let fg = &pairs.testbeds[0];
        let lat = &fg.borrower.remote().stats.read_latency;
        CongestionPoint {
            pairs: pt.pairs,
            fg_latency_us: lat.mean() / 1e6,
            fg_p99_us: lat.p99() as f64 / 1e6,
            fg_bandwidth_gib_s: procs[0].mean_bandwidth_gib_s(),
        }
    })
}

/// How well constant injection emulates real congestion.
#[derive(Clone, Debug, Serialize)]
pub struct EmulationReport {
    /// The congested measurement being emulated.
    pub congested: CongestionPoint,
    /// PERIOD chosen so the injected mean latency matches.
    pub matched_period: u64,
    pub injected_latency_us: f64,
    pub injected_p99_us: f64,
    pub injected_bandwidth_gib_s: f64,
    /// Relative mean-latency matching error (should be small).
    pub mean_error: f64,
    /// p99/mean under congestion vs under constant injection: constant
    /// injection's known blind spot (§V) is the tail.
    pub congested_tail_ratio: f64,
    pub injected_tail_ratio: f64,
}

/// Run `pairs` congested pairs, then find the constant-injection PERIOD
/// whose mean latency matches the foreground pair's and compare.
pub fn emulation_fidelity(
    base: &TestbedConfig,
    stream: &StreamConfig,
    uplink: LinkConfig,
    pairs: usize,
) -> EmulationReport {
    let sweep = congestion_sweep(base, stream, uplink, &[pairs]);
    let congested = sweep.into_iter().next().expect("one point");

    // Binary-search PERIOD for a matching mean latency. Attach at the
    // vanilla setting and program the PERIOD register afterwards, so even
    // extreme candidate values can be probed. The search is inherently
    // sequential, but each probe is a single-point sweep so candidate
    // PERIODs hit the memoization cache on re-runs.
    #[derive(Clone, Debug, Serialize)]
    struct Probe {
        period: u64,
        cfg: TestbedConfig,
        stream: StreamConfig,
    }
    let measure = |period: u64| -> (f64, f64, f64) {
        let probe = Probe {
            period,
            cfg: base.clone(),
            stream: *stream,
        };
        let mut out = sweep::run("beyond/emulation-probe", &[probe], |_ctx, pt| {
            let mut tb = Testbed::build(&pt.cfg).expect("attach");
            tb.borrower
                .remote_mut()
                .set_delay(thymesim_fabric::DelaySpec::Period(pt.period));
            let report =
                crate::runners::run_stream(&mut tb, &pt.stream, crate::runners::Placement::Remote);
            let lat = &tb.borrower.remote().stats.read_latency;
            (
                lat.mean() / 1e6,
                lat.p99() as f64 / 1e6,
                report.best_bandwidth_gib_s(),
            )
        });
        out.pop().expect("one probe point")
    };
    let (mut lo, mut hi) = (1u64, 4096u64);
    while lo < hi {
        let mid = lo.midpoint(hi);
        let (mean, _, _) = measure(mid);
        if mean < congested.fg_latency_us {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let matched_period = lo;
    let (injected_latency_us, injected_p99_us, injected_bandwidth_gib_s) = measure(matched_period);

    EmulationReport {
        matched_period,
        injected_latency_us,
        injected_p99_us,
        injected_bandwidth_gib_s,
        mean_error: (injected_latency_us - congested.fg_latency_us).abs() / congested.fg_latency_us,
        congested_tail_ratio: congested.fg_p99_us / congested.fg_latency_us,
        injected_tail_ratio: injected_p99_us / injected_latency_us,
        congested,
    }
}

// ---------------------------------------------------------------------------
// E11b: rack topology — intra-rack vs cross-rack borrowing
// ---------------------------------------------------------------------------

/// Outcome of the rack-topology comparison.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TopologyPoint {
    pub placement: String,
    pub background_pairs: usize,
    pub fg_latency_us: f64,
    pub fg_bandwidth_gib_s: f64,
}

/// One foreground pair borrowing intra-rack vs cross-rack, with
/// `background` cross-rack pairs loading the same uplink. Cross-rack
/// borrowing pays two switch hops *and* shares the oversubscribed uplink
/// — quantifying what "beyond rack-scale" costs relative to the paper's
/// rack-local prototype.
pub fn rack_topology(
    base: &TestbedConfig,
    stream: &StreamConfig,
    tree: TreeConfig,
    background: usize,
) -> Vec<TopologyPoint> {
    #[derive(Clone, Debug, Serialize)]
    struct Point {
        placement: String,
        cross: bool,
        background: usize,
        tree: TreeConfig,
        cfg: TestbedConfig,
        stream: StreamConfig,
    }
    let grid: Vec<Point> = [("intra-rack", false), ("cross-rack", true)]
        .iter()
        .map(|&(label, cross)| Point {
            placement: label.into(),
            cross,
            background,
            tree,
            cfg: base.clone(),
            stream: *stream,
        })
        .collect();
    sweep::run("beyond/rack-topology", &grid, |_ctx, pt| {
        let topo = TreeTopology::new(pt.tree);
        let mut testbeds = Vec::new();
        // Foreground pair: rack 0 borrower; lender in rack 0 or rack 1.
        {
            let mut tb = Testbed::build(&pt.cfg).expect("fg attach");
            let (fwd, rev) = topo.route_pair(0, if pt.cross { 1 } else { 0 });
            tb.borrower
                .remote_mut()
                .set_route(fwd.hops, rev.hops, fwd.hop_latency);
            testbeds.push(tb);
        }
        // Background pairs always borrow cross-rack from rack 0 to rack 1.
        for _ in 0..pt.background {
            let mut tb = Testbed::build(&pt.cfg).expect("bg attach");
            let (fwd, rev) = topo.route_pair(0, 1);
            tb.borrower
                .remote_mut()
                .set_route(fwd.hops, rev.hops, fwd.hop_latency);
            testbeds.push(tb);
        }
        let (pairs, procs) = run_pairs(MultiPair { testbeds }, &pt.stream);
        let fg = &pairs.testbeds[0];
        TopologyPoint {
            placement: pt.placement.clone(),
            background_pairs: pt.background,
            fg_latency_us: fg.borrower.remote().stats.read_latency.mean() / 1e6,
            fg_bandwidth_gib_s: procs[0].mean_bandwidth_gib_s(),
        }
    })
}

// ---------------------------------------------------------------------------
// E12: memory pooling
// ---------------------------------------------------------------------------

/// One pooling-sweep point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PoolingPoint {
    pub borrowers: usize,
    /// Pool/lender bus bandwidth in GB/s.
    pub pool_gb_s: f64,
    /// Mean per-borrower STREAM bandwidth.
    pub per_borrower_gib_s: f64,
    /// Mean queueing delay at the pool's bus.
    pub pool_queue_us: f64,
}

/// `n` borrowers, each with its own NIC/link, all hammering one pool.
pub fn build_pooled_borrowers(
    base: &TestbedConfig,
    pool_bw_bytes_per_sec: f64,
    n: usize,
) -> (MultiPair, SharedDram) {
    assert!(n >= 1);
    let pool: SharedDram = shared_dram(DramConfig {
        bandwidth_bytes_per_sec: pool_bw_bytes_per_sec,
        ..base.lender.dram
    });
    let testbeds = (0..n)
        .map(|_| {
            Testbed::build_with_lender_bus(base, Time::ZERO, SharedDram::clone(&pool))
                .expect("borrower attach")
        })
        .collect();
    (MultiPair { testbeds }, pool)
}

/// Sweep borrower count at a given pool bandwidth.
pub fn pooling_sweep(
    base: &TestbedConfig,
    stream: &StreamConfig,
    pool_gb_s: f64,
    counts: &[usize],
) -> Vec<PoolingPoint> {
    #[derive(Clone, Debug, Serialize)]
    struct Point {
        borrowers: usize,
        pool_gb_s: f64,
        cfg: TestbedConfig,
        stream: StreamConfig,
    }
    let grid: Vec<Point> = counts
        .iter()
        .map(|&borrowers| Point {
            borrowers,
            pool_gb_s,
            cfg: base.clone(),
            stream: *stream,
        })
        .collect();
    sweep::run("beyond/pooling", &grid, |_ctx, pt| {
        let (pairs, pool) = build_pooled_borrowers(&pt.cfg, pt.pool_gb_s * 1e9, pt.borrowers);
        let (_pairs, procs) = run_pairs(pairs, &pt.stream);
        let agg: f64 = procs.iter().map(|p| p.mean_bandwidth_gib_s()).sum();
        let queue_us = pool.borrow().mean_queue_wait().as_us_f64();
        PoolingPoint {
            borrowers: pt.borrowers,
            pool_gb_s: pt.pool_gb_s,
            per_borrower_gib_s: agg / pt.borrowers as f64,
            pool_queue_us: queue_us,
        }
    })
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
    fn congestion_grows_with_pairs() {
        let points = congestion_sweep(
            &TestbedConfig::tiny(),
            &quick_stream(),
            LinkConfig::copper_100g(),
            &[1, 4],
        );
        assert!(
            points[1].fg_latency_us > points[0].fg_latency_us * 2.0,
            "4 pairs should congest the shared segment: {points:?}"
        );
        assert!(points[1].fg_bandwidth_gib_s < points[0].fg_bandwidth_gib_s * 0.5);
    }

    #[test]
    fn constant_injection_matches_congested_mean() {
        let r = emulation_fidelity(
            &TestbedConfig::tiny(),
            &quick_stream(),
            LinkConfig::copper_100g(),
            4,
        );
        assert!(
            r.mean_error < 0.25,
            "PERIOD={} should match the congested mean within 25%: {r:?}",
            r.matched_period
        );
        assert!(r.matched_period > 1, "congestion must map to a real PERIOD");
    }

    #[test]
    fn cross_rack_borrowing_costs_more_under_load() {
        let tree = TreeConfig {
            racks: 2,
            ..TreeConfig::default()
        };
        let points = rack_topology(&TestbedConfig::tiny(), &quick_stream(), tree, 3);
        let intra = points.iter().find(|p| p.placement == "intra-rack").unwrap();
        let cross = points.iter().find(|p| p.placement == "cross-rack").unwrap();
        // The intra-rack pair dodges the loaded uplink: lower latency,
        // higher bandwidth.
        assert!(
            cross.fg_latency_us > intra.fg_latency_us * 1.5,
            "cross-rack should pay for the shared uplink: {points:?}"
        );
        assert!(cross.fg_bandwidth_gib_s < intra.fg_bandwidth_gib_s);
    }

    #[test]
    fn pooling_shifts_the_bottleneck() {
        // Server-class bus: borrowers stay network-bound (per-borrower BW
        // roughly flat, like Fig. 7). Pool-class bus: they collapse.
        let base = TestbedConfig::tiny();
        let s = quick_stream();
        let server = pooling_sweep(&base, &s, 140.0, &[1, 4]);
        let pool = pooling_sweep(&base, &s, 8.0, &[1, 4]);
        let server_drop = 1.0 - server[1].per_borrower_gib_s / server[0].per_borrower_gib_s;
        let pool_drop = 1.0 - pool[1].per_borrower_gib_s / pool[0].per_borrower_gib_s;
        assert!(
            server_drop < 0.35,
            "server-class bus should stay ~network-bound: dropped {:.0}%",
            server_drop * 100.0
        );
        assert!(
            pool_drop > 0.5,
            "pool-class bus should become the bottleneck: dropped {:.0}%",
            pool_drop * 100.0
        );
        assert!(
            pool[1].pool_queue_us > server[1].pool_queue_us * 2.0,
            "queueing must concentrate at the pool"
        );
    }
}
