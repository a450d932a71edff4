//! Workload-on-testbed runners and local baselines.
//!
//! Every experiment needs the same moves: place a workload's data in
//! disaggregated or local memory, run it to completion from the attach
//! point, and extract its metric. The paper's degradation ratios divide a
//! delayed run by either the local-memory run (Table I) or the vanilla
//! remote run (Fig. 5); both baselines live here.

use crate::config::{NodeConfig, TestbedConfig};
use crate::testbed::Testbed;
use thymesim_fabric::FabricEngine;
use thymesim_mem::{
    shared_dram, Addr, AddressMap, Arena, MemSystem, NoRemote, RemoteBackend, SimVec,
};
use thymesim_sim::{Process, Step, Time};
use thymesim_workloads::bc::{self, BcConfig, BcState};
use thymesim_workloads::cc::{self, CcConfig};
use thymesim_workloads::graph500::{
    self, CsrArenas, CsrLayout, Graph500Config, Graph500Report, TraversalRun,
};
use thymesim_workloads::kv::{self, KvConfig, KvReport, KvStore};
use thymesim_workloads::stream::{StreamArrays, StreamConfig, StreamProcess, StreamReport};
use thymesim_workloads::tc::{self, TcConfig};
use thymesim_workloads::{pagerank, PageRankConfig, PageRankState};

/// Where a workload's data lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// In the hot-plugged disaggregated window.
    Remote,
    /// In borrower-local DRAM (the paper's "local memory" baseline).
    Local,
}

/// A standalone local-memory node (baseline runs need no fabric at all).
pub fn local_system(node: &NodeConfig, size: u64) -> (MemSystem<NoRemote>, Arena) {
    let map = AddressMap::new(size, node.cache.line, node.cache.line);
    let sys = MemSystem::new(
        map,
        node.cache,
        shared_dram(node.dram),
        node.timing,
        NoRemote,
    );
    (sys, Arena::new(Addr(0), size))
}

// ---------------------------------------------------------------------------
// STREAM
// ---------------------------------------------------------------------------

/// Allocate a STREAM instance's arrays in `arena`, initialize them
/// (untimed) and stage the instance to begin at `start`.
pub fn spawn_stream<R: RemoteBackend>(
    sys: &mut MemSystem<R>,
    arena: &mut Arena,
    cfg: &StreamConfig,
    start: Time,
) -> StreamProcess {
    let arrays = StreamArrays::alloc(arena, cfg.elements);
    arrays.init(sys);
    StreamProcess::new(*cfg, arrays, start)
}

/// Run one STREAM instance on an existing testbed.
pub fn run_stream(tb: &mut Testbed, cfg: &StreamConfig, placement: Placement) -> StreamReport {
    let arena = match placement {
        Placement::Remote => &mut tb.remote_arena,
        Placement::Local => &mut tb.local_arena,
    };
    spawn_stream(&mut tb.borrower, arena, cfg, tb.attach.ready_at)
        .run_to_completion(&mut tb.borrower)
}

/// Build a testbed from `cfg` and run STREAM out of remote memory — the
/// §IV-B experiment in one call.
pub fn run_stream_on_testbed(cfg: &TestbedConfig, stream: &StreamConfig) -> StreamReport {
    let mut tb = Testbed::build(cfg).expect("attach failed (is PERIOD extreme?)");
    run_stream(&mut tb, stream, Placement::Remote)
}

/// STREAM on plain local memory (no fabric anywhere).
pub fn stream_local_baseline(node: &NodeConfig, cfg: &StreamConfig) -> StreamReport {
    let bytes = cfg.elements * 8 * 3 + (1 << 20);
    let (mut sys, mut arena) = local_system(node, bytes.next_power_of_two());
    spawn_stream(&mut sys, &mut arena, cfg, Time::ZERO).run_to_completion(&mut sys)
}

// ---------------------------------------------------------------------------
// KV (Redis + memtier)
// ---------------------------------------------------------------------------

/// Run the memtier-style KV benchmark on the testbed.
pub fn run_kv(tb: &mut Testbed, cfg: &KvConfig, placement: Placement) -> KvReport {
    let arena = match placement {
        Placement::Remote => &mut tb.remote_arena,
        Placement::Local => &mut tb.local_arena,
    };
    let store = KvStore::build(cfg, &mut tb.borrower, arena);
    kv::run_memtier(cfg, &mut tb.borrower, &store)
}

/// KV on plain local memory.
pub fn kv_local_baseline(node: &NodeConfig, cfg: &KvConfig) -> KvReport {
    let bytes = cfg.working_set_bytes() * 2 + (1 << 22);
    let (mut sys, mut arena) = local_system(node, bytes.next_power_of_two());
    let store = KvStore::build(cfg, &mut sys, &mut arena);
    kv::run_memtier(cfg, &mut sys, &store)
}

// ---------------------------------------------------------------------------
// Graph500
// ---------------------------------------------------------------------------

/// Which graph kernel to run over the Kronecker CSR. The first two are
/// the Graph500 phases; the rest extend the apps axis with the
/// remote-access signatures the paper's application classes imply.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub enum GraphKernel {
    Bfs,
    Sssp,
    Pagerank,
    Cc,
    Bc,
    Tc,
}

impl GraphKernel {
    pub const ALL: [GraphKernel; 6] = [
        GraphKernel::Bfs,
        GraphKernel::Sssp,
        GraphKernel::Pagerank,
        GraphKernel::Cc,
        GraphKernel::Bc,
        GraphKernel::Tc,
    ];

    pub fn label(self) -> &'static str {
        match self {
            GraphKernel::Bfs => "Graph500 BFS",
            GraphKernel::Sssp => "Graph500 SSSP",
            GraphKernel::Pagerank => "PageRank",
            GraphKernel::Cc => "CC",
            GraphKernel::Bc => "BC",
            GraphKernel::Tc => "TC",
        }
    }
}

/// Outcome of [`run_graph_kernel`]: the common report plus the CSR
/// footprint the layout produced (the compression headline for E19).
pub struct GraphKernelRun {
    pub report: Graph500Report,
    /// Simulated bytes of the adjacency structure under the layout.
    pub adjacency_bytes: u64,
}

/// Build the right CSR for `kernel` in `layout` and run it, wrapping
/// every kernel's outcome into the common [`Graph500Report`] shape
/// (one `TraversalRun` for the single-pass kernels). `validate` runs the
/// kernel's differential host-memory oracle.
pub fn run_graph_kernel<R: RemoteBackend>(
    sys: &mut MemSystem<R>,
    arena: &mut Arena,
    cfg: &Graph500Config,
    kernel: GraphKernel,
    layout: CsrLayout,
    validate: bool,
) -> GraphKernelRun {
    let edges = match kernel {
        // TC needs the degree-ordered relabelling for its oriented tails.
        GraphKernel::Tc => graph500::degree_ordered_edges(cfg),
        _ => graph500::kronecker_edges(cfg),
    };
    let g = graph500::build_from_edges(cfg, sys, &mut CsrArenas::One(arena), layout, &edges);
    let adjacency_bytes = g.adjacency_bytes();
    let report = match kernel {
        GraphKernel::Bfs => {
            let out: SimVec<u32> = arena.alloc_vec(g.n);
            graph500::run_bfs_benchmark(cfg, sys, &g, &out, validate)
        }
        GraphKernel::Sssp => {
            let out: SimVec<u32> = arena.alloc_vec(g.n);
            graph500::run_sssp_benchmark(cfg, sys, &g, &out, validate)
        }
        GraphKernel::Pagerank => {
            let state = PageRankState::alloc(arena, g.n);
            let report = pagerank(&PageRankConfig::default(), sys, &g, &state, Time::ZERO);
            let ok = !validate || (0.5..=1.000001).contains(&report.rank_sum);
            Graph500Report::from_runs(
                vec![TraversalRun {
                    root: 0,
                    elapsed: report.elapsed,
                    edges_traversed: report.iterations as u64 * g.m2,
                    reached: g.n,
                }],
                ok,
            )
        }
        GraphKernel::Cc => {
            let labels: SimVec<u32> = arena.alloc_vec(g.n.max(1));
            let report = cc::cc(&CcConfig::default(), sys, &g, &labels, Time::ZERO);
            let ok = !validate || cc::validate_cc(sys, &g, &labels);
            Graph500Report::from_runs(
                vec![TraversalRun {
                    root: 0,
                    elapsed: report.elapsed,
                    edges_traversed: report.edges_examined,
                    reached: report.components,
                }],
                ok && report.converged,
            )
        }
        GraphKernel::Bc => {
            let sources = graph500::pick_roots(cfg, sys, &g);
            let state = BcState::alloc(arena, g.n);
            let score: SimVec<f64> = arena.alloc_vec(g.n.max(1));
            let report = bc::bc(
                &BcConfig::default(),
                sys,
                &g,
                &state,
                &score,
                &sources,
                Time::ZERO,
            );
            let ok = !validate || bc::validate_bc(sys, &g, &score, &sources);
            Graph500Report::from_runs(
                vec![TraversalRun {
                    root: sources.first().copied().unwrap_or(0),
                    elapsed: report.elapsed,
                    edges_traversed: report.edges_traversed,
                    reached: g.n,
                }],
                ok,
            )
        }
        GraphKernel::Tc => {
            let report = tc::tc(&TcConfig::default(), sys, &g, Time::ZERO);
            let ok = !validate || report.triangles == tc::reference_triangles(sys, &g);
            Graph500Report::from_runs(
                vec![TraversalRun {
                    root: 0,
                    elapsed: report.elapsed,
                    edges_traversed: report.wedge_steps,
                    reached: report.triangles,
                }],
                ok,
            )
        }
    };
    GraphKernelRun {
        report,
        adjacency_bytes,
    }
}

/// Run a graph kernel on the testbed (flat CSR).
pub fn run_graph500(
    tb: &mut Testbed,
    cfg: &Graph500Config,
    kernel: GraphKernel,
    placement: Placement,
    validate: bool,
) -> Graph500Report {
    let arena = match placement {
        Placement::Remote => &mut tb.remote_arena,
        Placement::Local => &mut tb.local_arena,
    };
    run_graph_kernel(
        &mut tb.borrower,
        arena,
        cfg,
        kernel,
        CsrLayout::Flat,
        validate,
    )
    .report
}

/// Graph kernel on plain local memory.
pub fn graph500_local_baseline(
    node: &NodeConfig,
    cfg: &Graph500Config,
    kernel: GraphKernel,
) -> Graph500Report {
    // Flat CSR (edges·16B) + per-vertex state (BC's three f64/u32 arrays
    // are the widest consumer) + slack.
    let bytes = cfg.edges() * 2 * 8 + cfg.vertices() * 48 + (1 << 22);
    let (mut sys, mut arena) = local_system(node, bytes.next_power_of_two());
    run_graph_kernel(&mut sys, &mut arena, cfg, kernel, CsrLayout::Flat, false).report
}

// ---------------------------------------------------------------------------
// Process adapters (contention experiments)
// ---------------------------------------------------------------------------

/// Adapter: a [`StreamProcess`] as a `thymesim_sim::Process` over any
/// memory system, tagged with the blame source its queueing charges to.
pub struct StreamProc {
    pub inner: StreamProcess,
    source: (&'static str, u64),
}

impl StreamProc {
    /// Untagged instance: blame accrues to the ambient `main` source.
    pub fn new(inner: StreamProcess) -> StreamProc {
        StreamProc::tagged(inner, "main", 0)
    }

    /// Instance whose queueing (and the queueing it inflicts on peers)
    /// is attributed to `name_index`, e.g. `inst_3`.
    pub fn tagged(inner: StreamProcess, name: &'static str, index: u64) -> StreamProc {
        StreamProc {
            inner,
            source: (name, index),
        }
    }
}

impl<R: RemoteBackend> Process<MemSystem<R>> for StreamProc {
    fn next_time(&self) -> Time {
        self.inner.next_time()
    }
    fn step(&mut self, shared: &mut MemSystem<R>) -> Step {
        // Re-asserted every step: interleaved instances share the
        // recorder's ambient source, exactly like phases.
        thymesim_telemetry::source_begin(self.source.0, self.source.1);
        self.inner.step_on(shared)
    }
}

/// Which node of a multi-node world a party runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// Borrower `i`, working out of its disaggregated window.
    Borrower(usize),
    /// Lender `i`, working out of its own local memory.
    Lender(usize),
}

/// A world of borrower and lender nodes addressed by index: what a
/// [`StreamParty`] needs from the shared state it is stepped against.
pub trait Nodes {
    fn borrower(&mut self, i: usize) -> &mut MemSystem<FabricEngine>;
    fn lender(&mut self, i: usize) -> &mut MemSystem<NoRemote>;
}

/// A testbed is one pair: both of its nodes are index 0.
impl Nodes for Testbed {
    fn borrower(&mut self, i: usize) -> &mut MemSystem<FabricEngine> {
        debug_assert_eq!(i, 0);
        &mut self.borrower
    }
    fn lender(&mut self, i: usize) -> &mut MemSystem<NoRemote> {
        debug_assert_eq!(i, 0);
        &mut self.lender
    }
}

/// The one multi-node adapter: a [`StreamProcess`] placed on a [`Site`]
/// of any [`Nodes`] world, tagged with the blame source its queueing
/// charges to. Worlds of several testbeds tag every party `("main", 0)`:
/// blame ledgers are keyed by resource *name*, so per-pair tags would
/// invent cross-blame between physically distinct links.
pub struct StreamParty {
    pub inner: StreamProcess,
    site: Site,
    source: (&'static str, u64),
    looping: bool,
}

impl StreamParty {
    pub fn new(inner: StreamProcess, site: Site, name: &'static str, index: u64) -> StreamParty {
        StreamParty {
            inner,
            site,
            source: (name, index),
            looping: false,
        }
    }

    /// Spawn the instance on `tb` — the testbed `site` indexes in its
    /// world — in the site's memory (a borrower's disaggregated window,
    /// a lender's local DRAM), starting when the attach completes.
    pub fn spawn(
        tb: &mut Testbed,
        site: Site,
        cfg: &StreamConfig,
        name: &'static str,
        index: u64,
    ) -> StreamParty {
        let start = tb.attach.ready_at;
        let inner = match site {
            Site::Borrower(_) => spawn_stream(&mut tb.borrower, &mut tb.remote_arena, cfg, start),
            Site::Lender(_) => spawn_stream(&mut tb.lender, &mut tb.lender_arena, cfg, start),
        };
        StreamParty::new(inner, site, name, index)
    }

    /// Turn the instance into background load: on completion it restarts
    /// at the time its last step began, so the pressure never drains
    /// away while the foreground is being measured.
    pub fn looping(mut self) -> StreamParty {
        self.looping = true;
        self
    }
}

impl<W: Nodes> Process<W> for StreamParty {
    fn next_time(&self) -> Time {
        self.inner.next_time()
    }
    fn step(&mut self, world: &mut W) -> Step {
        thymesim_telemetry::source_begin(self.source.0, self.source.1);
        let restart_at = self.looping.then(|| self.inner.next_time());
        let step = match self.site {
            Site::Borrower(i) => self.inner.step_on(world.borrower(i)),
            Site::Lender(i) => self.inner.step_on(world.lender(i)),
        };
        match restart_at {
            Some(at) if step == Step::Done => {
                self.inner = self.inner.restarted(at);
                Step::Continue
            }
            _ => step,
        }
    }
    fn background(&self) -> bool {
        self.looping
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thymesim_sim::run_processes;

    fn tiny_tb() -> TestbedConfig {
        TestbedConfig::tiny()
    }

    #[test]
    fn stream_remote_slower_than_local() {
        let cfg = tiny_tb();
        let mut scfg = StreamConfig::tiny();
        scfg.elements = 32_768;
        let remote = run_stream_on_testbed(&cfg, &scfg);
        let local = stream_local_baseline(&cfg.borrower, &scfg);
        assert!(remote.verified && local.verified);
        assert!(
            local.best_bandwidth_gib_s() > remote.best_bandwidth_gib_s(),
            "local {} GiB/s should beat remote {} GiB/s",
            local.best_bandwidth_gib_s(),
            remote.best_bandwidth_gib_s()
        );
    }

    #[test]
    fn delay_injection_slows_stream() {
        let mut scfg = StreamConfig::tiny();
        scfg.elements = 16_384;
        let vanilla = run_stream_on_testbed(&tiny_tb().with_period(1), &scfg);
        let delayed = run_stream_on_testbed(&tiny_tb().with_period(100), &scfg);
        assert!(
            delayed.miss_latency_mean > vanilla.miss_latency_mean * 10,
            "PERIOD=100 latency {} vs vanilla {}",
            delayed.miss_latency_mean,
            vanilla.miss_latency_mean
        );
        assert!(delayed.best_bandwidth_gib_s() < vanilla.best_bandwidth_gib_s() / 5.0);
    }

    #[test]
    fn kv_runs_on_remote_and_verifies() {
        let mut tb = Testbed::build(&tiny_tb()).unwrap();
        let kcfg = KvConfig::tiny();
        let report = run_kv(&mut tb, &kcfg, Placement::Remote);
        assert!(report.data_ok);
        assert_eq!(
            report.requests,
            kcfg.connections() as u64 * kcfg.requests_per_conn
        );
        assert!(tb.borrower.remote().stats.reads > 0, "no remote traffic");
    }

    #[test]
    fn graph500_remote_validates() {
        let mut tb = Testbed::build(&tiny_tb()).unwrap();
        let gcfg = Graph500Config::tiny();
        let report = run_graph500(&mut tb, &gcfg, GraphKernel::Bfs, Placement::Remote, true);
        assert!(report.validated);
        assert!(tb.borrower.remote().stats.reads > 0);
    }

    #[test]
    fn gap_kernels_validate_on_remote() {
        let gcfg = Graph500Config::tiny();
        for kernel in [
            GraphKernel::Pagerank,
            GraphKernel::Cc,
            GraphKernel::Bc,
            GraphKernel::Tc,
        ] {
            let mut tb = Testbed::build(&tiny_tb()).unwrap();
            let report = run_graph500(&mut tb, &gcfg, kernel, Placement::Remote, true);
            assert!(
                report.validated,
                "{kernel:?} failed its differential oracle on remote memory"
            );
            assert!(
                tb.borrower.remote().stats.reads > 0,
                "{kernel:?}: no remote traffic"
            );
        }
    }

    #[test]
    fn two_streams_share_fabric_bandwidth() {
        let mut tb = Testbed::build(&tiny_tb()).unwrap();
        let mut scfg = StreamConfig::tiny();
        scfg.elements = 16_384;
        let start = tb.attach.ready_at;
        let mut procs: Vec<StreamProc> = (0..2)
            .map(|i| {
                let p = spawn_stream(&mut tb.borrower, &mut tb.remote_arena, &scfg, start);
                StreamProc::tagged(p, "inst", i)
            })
            .collect();
        let stats = run_processes(&mut procs, &mut tb.borrower, Time::NEVER);
        assert_eq!(stats.finished, 2);
        // Each instance sees roughly half the solo bandwidth.
        let solo = {
            let mut tb2 = Testbed::build(&tiny_tb()).unwrap();
            run_stream(&mut tb2, &scfg, Placement::Remote).best_bandwidth_gib_s()
        };
        for p in &procs {
            let bw = p.inner.mean_bandwidth_gib_s();
            assert!(
                bw < solo * 0.75,
                "shared instance got {bw} vs solo {solo} — no contention visible"
            );
        }
    }
}
