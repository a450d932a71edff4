//! E13/E17 — QoS under disaggregation.
//!
//! **E13** is a page-migration mechanism built from the paper's §IV-D
//! insight: "applications with higher sensitivity to remote memory access
//! latency can benefit from additional resource allocation such as …
//! page migration to local memory". The study profiles Graph500's
//! per-array access density (accesses per byte), lets a greedy migrator
//! fill a local-memory budget with the densest arrays, and measures the
//! JCT improvement under delay — exactly the decision an OS-level
//! hot-page migrator converges to, evaluated at object granularity.
//!
//! **E17** is the open-loop serving-tail campaign: the KV stack driven
//! by `thymesim-serve`'s arrival processes under PERIOD × contention ×
//! arrival rate, reporting p99/p999/max sojourn next to the mean. The
//! closed-loop memtier client of §IV-D cannot see queueing delay (each
//! connection self-throttles); here the tail/mean divergence the paper's
//! setup hides becomes the measured quantity, and admission-control
//! policies are evaluated against it.

use crate::config::TestbedConfig;
use crate::runners::{GraphKernel, Site, StreamParty};
use crate::sweep;
use crate::testbed::Testbed;
use serde::{Deserialize, Serialize};
use thymesim_fabric::DelaySpec;
use thymesim_mem::SimVec;
use thymesim_serve::{AdmissionPolicy, ServeConfig, ServeProcess, ServeReport};
use thymesim_sim::{run_processes, Process, Step, Time};
use thymesim_workloads::graph500::{
    self, CsrArenas, CsrLayout, Graph500Config, GraphArray, GraphPlacement,
};
use thymesim_workloads::stream::StreamConfig;

/// Estimated traffic profile of one CSR array for a BFS/SSSP run.
#[derive(Clone, Debug, Serialize)]
pub struct ArrayProfile {
    pub array: String,
    pub bytes: u64,
    /// Estimated accesses over the run.
    pub accesses: u64,
    /// Expected to stay LLC-resident (no sustained remote traffic)?
    pub cache_resident: bool,
    /// Expected *remote misses* per byte — the migration figure of
    /// merit. Cache-resident arrays score ~0: they are fetched once and
    /// served from the LLC thereafter, so migrating them buys nothing.
    pub density: f64,
}

/// Estimate per-array remote-miss density from the graph shape and the
/// LLC size (the same arithmetic an OS extracts from page-heat counters
/// minus the LLC's filtering).
pub fn profile_arrays(
    cfg: &Graph500Config,
    kernel: GraphKernel,
    llc_bytes: u64,
) -> Vec<ArrayProfile> {
    let n = cfg.vertices();
    let m2 = cfg.edges() * 2; // directed CSR entries
    let roots = cfg.roots as u64;
    // Per root: every reached vertex reads its row bounds (2 accesses);
    // every directed edge is scanned once (BFS) or ~1.3x (SSSP
    // re-relaxation); the output array is touched 1-2x per edge.
    let relax_factor = match kernel {
        GraphKernel::Bfs => 1.0,
        GraphKernel::Sssp => 1.3,
        other => panic!("page-migration study supports Bfs/Sssp, not {other:?}"),
    };
    let mk = |array: GraphArray, bytes: u64, accesses: f64| {
        let accesses = accesses as u64;
        // An array well under the LLC's capacity is fetched once (cold
        // misses) and then served on-chip.
        let cache_resident = bytes * 2 <= llc_bytes;
        let density = if cache_resident {
            // Cold misses only: one per line over the whole run.
            (bytes as f64 / 128.0) / bytes.max(1) as f64
        } else {
            accesses as f64 / bytes.max(1) as f64
        };
        ArrayProfile {
            array: format!("{array:?}"),
            bytes,
            accesses,
            cache_resident,
            density,
        }
    };
    let mut out = vec![
        mk(GraphArray::Xadj, (n + 1) * 8, (2 * n * roots) as f64),
        mk(
            GraphArray::Adj,
            m2 * 4,
            m2 as f64 * relax_factor * roots as f64,
        ),
        mk(
            GraphArray::Out,
            n * 4,
            m2 as f64 * 1.5 * relax_factor * roots as f64,
        ),
    ];
    if kernel == GraphKernel::Sssp {
        out.push(mk(
            GraphArray::Weights,
            m2 * 4,
            m2 as f64 * relax_factor * roots as f64,
        ));
    }
    out.sort_by(|a, b| b.density.total_cmp(&a.density));
    out
}

/// Pick the placement a greedy migrator chooses under `local_budget`
/// bytes of spare local memory: densest arrays first.
pub fn plan_migration(
    cfg: &Graph500Config,
    kernel: GraphKernel,
    llc_bytes: u64,
    local_budget: u64,
) -> GraphPlacement {
    let mut placement = GraphPlacement::all_remote();
    let mut budget = local_budget;
    for p in profile_arrays(cfg, kernel, llc_bytes) {
        if p.cache_resident {
            continue; // the LLC already absorbs this array
        }
        if p.bytes <= budget {
            budget -= p.bytes;
            match p.array.as_str() {
                "Xadj" => placement.xadj_remote = false,
                "Adj" => placement.adj_remote = false,
                "Weights" => placement.weights_remote = false,
                "Out" => placement.out_remote = false,
                _ => unreachable!(),
            }
        }
    }
    placement
}

/// One policy's outcome.
#[derive(Clone, Debug, Serialize)]
pub struct QosPoint {
    pub policy: String,
    pub local_bytes: u64,
    pub jct_ms: f64,
    /// Speedup over the all-remote baseline.
    pub speedup: f64,
}

fn run_placed(
    base: &TestbedConfig,
    gcfg: &Graph500Config,
    kernel: GraphKernel,
    period: u64,
    placement: GraphPlacement,
) -> (f64, u64) {
    let mut tb = Testbed::build(base).expect("attach");
    tb.borrower
        .remote_mut()
        .set_delay(DelaySpec::Period(period));
    let Testbed {
        borrower,
        local_arena,
        remote_arena,
        ..
    } = &mut tb;
    let mut arenas = CsrArenas::Placed {
        local: local_arena,
        remote: remote_arena,
        placement,
    };
    let edges = graph500::kronecker_edges(gcfg);
    let g = graph500::build_from_edges(gcfg, borrower, &mut arenas, CsrLayout::Flat, &edges);
    let out: SimVec<u32> = arenas.alloc(GraphArray::Out, g.n);
    let report = match kernel {
        GraphKernel::Bfs => graph500::run_bfs_benchmark(gcfg, borrower, &g, &out, false),
        GraphKernel::Sssp => graph500::run_sssp_benchmark(gcfg, borrower, &g, &out, false),
        // The placement study sweeps the two Graph500 phases only: the
        // GAP kernels have no per-array placement axis here.
        other => panic!("page-migration study supports Bfs/Sssp, not {other:?}"),
    };
    let local_bytes = [
        (!placement.xadj_remote).then_some((g.n + 1) * 8),
        (!placement.adj_remote).then_some(g.m2 * 4),
        (!placement.weights_remote).then_some(g.m2 * 4),
        (!placement.out_remote).then_some(g.n * 4),
    ]
    .into_iter()
    .flatten()
    .sum();
    (report.total_time.as_ms_f64(), local_bytes)
}

/// Compare all-remote, migrated (budgeted), and all-local placements
/// under an injected delay.
pub fn page_migration_study(
    base: &TestbedConfig,
    gcfg: &Graph500Config,
    kernel: GraphKernel,
    period: u64,
    local_budget: u64,
) -> Vec<QosPoint> {
    #[derive(Clone, Debug, Serialize)]
    struct Point {
        policy: String,
        period: u64,
        placement: GraphPlacement,
        cfg: TestbedConfig,
        graph: Graph500Config,
        kernel: GraphKernel,
    }
    let llc = base.borrower.cache.capacity_bytes();
    let migrated = plan_migration(gcfg, kernel, llc, local_budget);
    let mk = |policy: String, placement: GraphPlacement| Point {
        policy,
        period,
        placement,
        cfg: base.clone(),
        graph: *gcfg,
        kernel,
    };
    let grid = vec![
        mk("all-remote".into(), GraphPlacement::all_remote()),
        mk(
            format!("migrated (budget {} MiB)", local_budget >> 20),
            migrated,
        ),
        mk("all-local".into(), GraphPlacement::all_local()),
    ];
    let cells: Vec<(f64, u64)> = sweep::run("qos/page-migration", &grid, |_ctx, pt| {
        run_placed(&pt.cfg, &pt.graph, pt.kernel, pt.period, pt.placement)
    });
    let remote_ms = cells[0].0;
    grid.iter()
        .zip(&cells)
        .map(|(pt, &(jct_ms, local_bytes))| QosPoint {
            policy: pt.policy.clone(),
            local_bytes,
            jct_ms,
            speedup: remote_ms / jct_ms,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// E17 — open-loop serving tails
// ---------------------------------------------------------------------------

/// Which contention axis stresses the serving point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum ServeContention {
    /// The serving stack alone.
    None,
    /// Fig. 6's axis: N borrower STREAM instances over disaggregated
    /// memory compete with the store for the NIC/network.
    Mcbn,
    /// Fig. 7's axis: N lender-side STREAM instances hammer the lender
    /// bus that remote reads must also cross.
    Mcln,
}

impl ServeContention {
    pub fn label(&self) -> &'static str {
        match self {
            ServeContention::None => "none",
            ServeContention::Mcbn => "mcbn",
            ServeContention::Mcln => "mcln",
        }
    }

    /// Where this axis places its background STREAM instances.
    fn site(&self) -> Option<Site> {
        match self {
            ServeContention::None => None,
            ServeContention::Mcbn => Some(Site::Borrower(0)),
            ServeContention::Mcln => Some(Site::Lender(0)),
        }
    }
}

/// The serving engine as a party of the testbed world: it serves out of
/// the borrower's disaggregated window.
impl Process<Testbed> for ServeProcess {
    fn next_time(&self) -> Time {
        ServeProcess::next_time(self)
    }
    fn step(&mut self, tb: &mut Testbed) -> Step {
        self.step_on(&mut tb.borrower)
    }
}

/// Build the testbed, inject the delay, and run one open-loop point
/// against `background`: one looping STREAM instance per entry, tagged
/// `bg_k` by position. The engine sits at index 0, so it wins ties with
/// the background, and the run ends with its last step.
fn run_serve_point(
    base: &TestbedConfig,
    serve: ServeConfig,
    period: u64,
    background: &[(Site, StreamConfig)],
) -> ServeReport {
    let mut tb = Testbed::build(base).expect("serve attach");
    tb.borrower
        .remote_mut()
        .set_delay(DelaySpec::Period(period));
    let mut parties: Vec<StreamParty> = background
        .iter()
        .enumerate()
        .map(|(k, (site, stream))| {
            StreamParty::spawn(&mut tb, *site, stream, "bg", k as u64).looping()
        })
        .collect();
    let start = tb.attach.ready_at;
    let mut engine = ServeProcess::new(serve, &mut tb.borrower, &mut tb.remote_arena, start);
    let mut procs: Vec<&mut dyn Process<Testbed>> = vec![&mut engine];
    procs.extend(parties.iter_mut().map(|p| p as &mut dyn Process<Testbed>));
    run_processes(&mut procs, &mut tb, Time::NEVER);
    engine.report().clone()
}

/// One E17 sweep cell: the tail columns next to the mean.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServeTailPoint {
    pub period: u64,
    pub contention: String,
    pub instances: usize,
    pub policy: String,
    pub offered_ops_s: f64,
    pub arrivals: u64,
    pub admitted: u64,
    pub dropped: u64,
    pub sojourn_mean_us: f64,
    pub sojourn_p50_us: f64,
    pub sojourn_p99_us: f64,
    pub sojourn_p999_us: f64,
    pub sojourn_max_us: f64,
    pub queue_wait_mean_us: f64,
    pub queue_wait_p999_us: f64,
    /// p999 / mean of the sojourn — the divergence figure of merit.
    pub tail_ratio: f64,
}

fn us(ps: u64) -> f64 {
    ps as f64 / 1e6
}

impl ServeTailPoint {
    fn from_report(
        r: &ServeReport,
        serve: &ServeConfig,
        period: u64,
        contention: ServeContention,
        instances: usize,
    ) -> ServeTailPoint {
        ServeTailPoint {
            period,
            contention: contention.label().into(),
            instances,
            policy: serve.policy.label(),
            offered_ops_s: serve.offered_ops_per_sec(),
            arrivals: r.arrivals,
            admitted: r.admitted,
            dropped: r.dropped,
            sojourn_mean_us: r.sojourn.mean() / 1e6,
            sojourn_p50_us: us(r.sojourn.quantile(0.5)),
            sojourn_p99_us: us(r.sojourn.p99()),
            sojourn_p999_us: us(r.sojourn.p999()),
            sojourn_max_us: us(r.sojourn.max()),
            queue_wait_mean_us: r.queue_wait.mean() / 1e6,
            queue_wait_p999_us: us(r.queue_wait.p999()),
            tail_ratio: r.tail_ratio(),
        }
    }
}

/// MCBN background streams run at a moderated memory-level parallelism.
/// At the STREAM default (128 outstanding lines) a single instance
/// exhausts the fabric's credit window outright and the serving point
/// collapses instead of degrading — the graded borrower-side axis
/// Fig. 6 measures disappears into immediate saturation.
pub const MCBN_BG_MLP: usize = 16;

/// MCLN background streams keep deep pipelining: the interference
/// mechanism is lender *bus* occupancy, which scales with how far ahead
/// the stream's reservations run (~mlp × line-time).
pub const MCLN_BG_MLP: usize = 128;

/// MCLN points model the lender as a pooled memory slice with a single
/// DDR-channel share of bandwidth rather than the whole socket's.
/// At the default 140 GB/s the lender bus never develops a queue that a
/// remote read can observe (reservations run only ~mlp × 0.9 ns ahead
/// of the stream's own virtual time), so lender-side interference would
/// be structurally invisible no matter how many instances run.
pub const MCLN_LENDER_BUS: f64 = 20e9;

/// The E17 grid: PERIOD × contention × offered rate.
///
/// Contention points are specialized at grid-build time (so the sweep
/// memo-cache keys capture the exact configuration): MCBN instances run
/// at [`MCBN_BG_MLP`], MCLN instances at [`MCLN_BG_MLP`] against a
/// lender bus narrowed to [`MCLN_LENDER_BUS`].
pub fn serve_tail(
    base: &TestbedConfig,
    serve: &ServeConfig,
    stream: &StreamConfig,
    periods: &[u64],
    contention: &[(ServeContention, usize)],
    rates: &[f64],
) -> Vec<ServeTailPoint> {
    #[derive(Clone, Debug, Serialize)]
    struct Point {
        period: u64,
        contention: ServeContention,
        instances: usize,
        rate: f64,
        cfg: TestbedConfig,
        serve: ServeConfig,
        stream: StreamConfig,
    }
    let mut grid = Vec::new();
    for &period in periods {
        for &(kind, instances) in contention {
            for &rate in rates {
                let mut cfg = base.clone();
                let mut bg = *stream;
                match kind {
                    ServeContention::None => {}
                    ServeContention::Mcbn => bg.mlp = MCBN_BG_MLP,
                    ServeContention::Mcln => {
                        bg.mlp = MCLN_BG_MLP;
                        cfg.lender.dram.bandwidth_bytes_per_sec = MCLN_LENDER_BUS;
                    }
                }
                grid.push(Point {
                    period,
                    contention: kind,
                    instances,
                    rate,
                    cfg,
                    serve: serve.with_offered_rate(rate),
                    stream: bg,
                });
            }
        }
    }
    sweep::run("serve/tail", &grid, |_ctx, pt| {
        let background: Vec<(Site, StreamConfig)> = pt
            .contention
            .site()
            .map_or_else(Vec::new, |site| vec![(site, pt.stream); pt.instances]);
        let r = run_serve_point(&pt.cfg, pt.serve, pt.period, &background);
        ServeTailPoint::from_report(&r, &pt.serve, pt.period, pt.contention, pt.instances)
    })
}

/// The E17 admission study: the same stressed point under each policy,
/// measured against the open (no-policy) tail.
pub fn admission_study(
    base: &TestbedConfig,
    serve: &ServeConfig,
    period: u64,
    policies: &[AdmissionPolicy],
) -> Vec<ServeTailPoint> {
    #[derive(Clone, Debug, Serialize)]
    struct Point {
        period: u64,
        cfg: TestbedConfig,
        serve: ServeConfig,
    }
    let grid: Vec<Point> = policies
        .iter()
        .map(|&policy| Point {
            period,
            cfg: base.clone(),
            serve: ServeConfig { policy, ..*serve },
        })
        .collect();
    sweep::run("serve/admission", &grid, |_ctx, pt| {
        let r = run_serve_point(&pt.cfg, pt.serve, pt.period, &[]);
        ServeTailPoint::from_report(&r, &pt.serve, pt.period, ServeContention::None, 0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gcfg() -> Graph500Config {
        Graph500Config {
            scale: 12,
            edgefactor: 16,
            roots: 2,
            cores: 4,
            ..Graph500Config::tiny()
        }
    }

    const TINY_LLC: u64 = 256 << 10;

    #[test]
    fn profile_separates_resident_from_thrashing() {
        let profiles = profile_arrays(&gcfg(), GraphKernel::Bfs, TINY_LLC);
        // At scale 12 / 256 KiB LLC: parent (16 KiB) and xadj (32 KiB)
        // are resident; the 512 KiB adjacency array thrashes and is the
        // only array whose remote traffic migration can remove.
        let adj = profiles.iter().find(|p| p.array == "Adj").unwrap();
        let out = profiles.iter().find(|p| p.array == "Out").unwrap();
        assert!(!adj.cache_resident);
        assert!(out.cache_resident);
        assert!(adj.density > out.density * 10.0);
        assert_eq!(profiles[0].array, "Adj", "Adj must top the ranking");
    }

    #[test]
    fn migration_plan_respects_budget() {
        let g = gcfg();
        // Budget below the adjacency array's size: nothing worth moving.
        let small = plan_migration(&g, GraphKernel::Bfs, TINY_LLC, 64 << 10);
        assert!(small.adj_remote && small.out_remote && small.xadj_remote);
        // Budget covering Adj: it migrates, the resident arrays stay put.
        let big = plan_migration(&g, GraphKernel::Bfs, TINY_LLC, 1 << 20);
        assert!(!big.adj_remote, "Adj fits and should migrate");
        assert!(big.out_remote, "resident arrays are not worth a slot");
    }

    #[test]
    fn zero_budget_migrates_nothing() {
        let plan = plan_migration(&gcfg(), GraphKernel::Bfs, TINY_LLC, 0);
        assert!(plan.out_remote && plan.xadj_remote && plan.adj_remote);
    }

    fn serve_cfg() -> ServeConfig {
        ServeConfig {
            arrivals: 1500,
            ..ServeConfig::tiny()
        }
    }

    #[test]
    fn tail_diverges_with_period_and_rate() {
        let base = TestbedConfig::tiny();
        let points = serve_tail(
            &base,
            &serve_cfg(),
            &StreamConfig::tiny(),
            &[1, 100, 400],
            &[(ServeContention::None, 0)],
            &[20_000.0, 60_000.0],
        );
        assert_eq!(points.len(), 6);
        let ratio = |period: u64, rate: f64| {
            points
                .iter()
                .find(|p| p.period == period && (p.offered_ops_s - rate).abs() < 1.0)
                .unwrap()
                .tail_ratio
        };
        for rate in [20_000.0, 60_000.0] {
            assert!(
                ratio(1, rate) < ratio(100, rate) && ratio(100, rate) < ratio(400, rate),
                "tail/mean divergence must grow with PERIOD at {rate} ops/s: {points:?}"
            );
        }
        for period in [1, 100, 400] {
            assert!(
                ratio(period, 20_000.0) < ratio(period, 60_000.0),
                "tail/mean divergence must grow with offered load at P={period}: {points:?}"
            );
        }
    }

    #[test]
    fn contention_fattens_the_tail() {
        let base = TestbedConfig::tiny();
        let mut stream = StreamConfig::tiny();
        stream.elements = 16_384;
        let points = serve_tail(
            &base,
            &serve_cfg(),
            &stream,
            &[100],
            &[
                (ServeContention::None, 0),
                (ServeContention::Mcbn, 1),
                (ServeContention::Mcbn, 2),
                (ServeContention::Mcln, 2),
                (ServeContention::Mcln, 6),
            ],
            &[20_000.0],
        );
        let pick = |label: &str, n: usize| {
            points
                .iter()
                .find(|p| p.contention == label && p.instances == n)
                .unwrap()
        };
        let spread = |p: &ServeTailPoint| p.sojourn_p999_us - p.sojourn_mean_us;
        let none = pick("none", 0);
        let mcbn = [pick("mcbn", 1), pick("mcbn", 2)];
        let mcln = [pick("mcln", 2), pick("mcln", 6)];
        // Borrower-side (Fig. 6 axis): every added instance pushes both
        // the absolute tail and its distance from the mean outward.
        assert!(
            none.sojourn_p999_us < mcbn[0].sojourn_p999_us
                && mcbn[0].sojourn_p999_us < mcbn[1].sojourn_p999_us,
            "p999 must grow along the MCBN axis: {points:?}"
        );
        assert!(
            spread(none) < spread(mcbn[0]) && spread(mcbn[0]) < spread(mcbn[1]),
            "p999-mean spread must grow along the MCBN axis: {points:?}"
        );
        // Lender-side (Fig. 7 axis): same shape through the shared bus.
        assert!(
            none.sojourn_p999_us < mcln[0].sojourn_p999_us
                && mcln[0].sojourn_p999_us < mcln[1].sojourn_p999_us,
            "p999 must grow along the MCLN axis: {points:?}"
        );
        assert!(
            spread(none) < spread(mcln[0]) && spread(mcln[0]) < spread(mcln[1]),
            "p999-mean spread must grow along the MCLN axis: {points:?}"
        );
    }

    #[test]
    fn admission_control_caps_the_tail() {
        let base = TestbedConfig::tiny();
        let serve = serve_cfg().with_offered_rate(100_000.0);
        let points = admission_study(
            &base,
            &serve,
            400,
            &[
                AdmissionPolicy::Open,
                AdmissionPolicy::Drop { queue_cap: 8 },
                AdmissionPolicy::Throttle {
                    queue_cap: 8,
                    backoff: thymesim_sim::Dur::us(50),
                },
            ],
        );
        let open = &points[0];
        let drop = &points[1];
        let throttle = &points[2];
        assert!(
            drop.dropped > 0 && drop.sojourn_p999_us < open.sojourn_p999_us * 0.5,
            "a drop policy must measurably cap p999 vs open: {points:?}"
        );
        assert_eq!(
            throttle.dropped, 0,
            "throttling defers, it never sheds: {points:?}"
        );
        assert_eq!(throttle.admitted, throttle.arrivals);
        // Deferral time is charged to the sojourn (the client still
        // waits for its answer), so under sustained 4x overload the
        // throttled mean balloons while the *ratio* collapses: the
        // policy trades tail surprise for predictable slowness.
        assert!(
            throttle.tail_ratio < open.tail_ratio,
            "throttling must flatten the tail/mean divergence: {points:?}"
        );
    }

    #[test]
    fn migration_recovers_performance_under_delay() {
        let g = gcfg();
        let budget = 1 << 20; // fits the thrashing adjacency array
        let points =
            page_migration_study(&TestbedConfig::tiny(), &g, GraphKernel::Bfs, 400, budget);
        let remote = &points[0];
        let migrated = &points[1];
        let local = &points[2];
        assert!(
            migrated.speedup > 3.0,
            "migrating the thrashing array should recover most of the loss: {points:?}"
        );
        assert!(
            local.speedup >= migrated.speedup * 0.95,
            "all-local is the upper bound: {points:?}"
        );
        assert!(remote.jct_ms > local.jct_ms);
    }
}
