//! Connected components by min-label propagation — the GAP-suite CC
//! kernel, the access signature the label-propagation application class
//! exercises: a sequential sweep of the CSR whose inner loop scatters
//! random reads *and* conditional writes into the label array.
//!
//! Each iteration is a full edge sweep (phase `cc.iter.N`); the kernel
//! runs until an iteration performs zero label writes, and that final
//! converged pass is still fully timed — the "did anything change?"
//! sweep is real work a delay knob slows down too.
//!
//! Differential oracle: [`reference_components`] computes labels with a
//! host-side union-find; at the fixpoint every vertex's label is the
//! minimum vertex id of its component, so the partitions must match
//! exactly, label by label.

use crate::graph500::CsrGraph;
use crate::issue::Core;
use thymesim_mem::{MemSystem, RemoteBackend, SimVec};
use thymesim_sim::{Dur, Time};

/// Connected-components configuration.
#[derive(Clone, Copy, Debug)]
pub struct CcConfig {
    /// Safety bound on propagation rounds (Kronecker diameters are tiny;
    /// the kernel exits on convergence long before this).
    pub max_iters: u32,
    /// Outstanding label fetches (dependent random reads: shallow).
    pub mlp: usize,
    /// CPU cost per examined edge.
    pub cpu_per_edge: Dur,
}

impl Default for CcConfig {
    fn default() -> Self {
        CcConfig {
            max_iters: 100,
            mlp: 4,
            cpu_per_edge: Dur::ns(2),
        }
    }
}

/// Outcome of a run.
#[derive(Clone, Debug)]
pub struct CcReport {
    /// Sweeps performed, including the final converged pass.
    pub iterations: u32,
    pub elapsed: Dur,
    /// Distinct components found.
    pub components: u64,
    /// Whether the fixpoint was reached within `max_iters`.
    pub converged: bool,
    /// Total edges examined across all sweeps.
    pub edges_examined: u64,
}

/// Run label propagation until a sweep writes nothing. `labels` is the
/// caller-placed output array (local or remote).
pub fn cc<R: RemoteBackend>(
    cfg: &CcConfig,
    sys: &mut MemSystem<R>,
    g: &CsrGraph,
    labels: &SimVec<u32>,
    start: Time,
) -> CcReport {
    for v in 0..g.n {
        labels.set_raw(sys, v, v as u32);
    }

    let mut core = Core::new(cfg.mlp, start);
    let mut iterations = 0u32;
    let mut converged = false;
    let mut edges_examined = 0u64;
    let mut row = Vec::new();

    for iter in 0..cfg.max_iters {
        thymesim_telemetry::phase_begin("cc.iter", Some(iter as u64));
        iterations = iter + 1;
        let mut writes = 0u64;
        for v in 0..g.n {
            let at = core.slot();
            // Own label: sequential read.
            core.load(sys, at, labels.addr(v), false);
            let mut lv = labels.get_raw(sys, v);
            // Row bounds ride the same issue slot (xadj is sequential).
            core.load(sys, at, g.xadj.addr(v), false);
            g.row(sys, g.cursor(sys, v), &mut row);
            core.retire(at, cfg.cpu_per_edge);
            let before = lv;
            for &(w, wa) in &row {
                edges_examined += 1;
                let at = core.slot();
                // Neighbour id (sequential through the seam) then its
                // label (random gather).
                core.load(sys, at, wa, false);
                core.load(sys, at, labels.addr(w as u64), false);
                lv = lv.min(labels.get_raw(sys, w as u64));
                core.retire(at, cfg.cpu_per_edge);
            }
            if lv < before {
                // Improved: random scatter write of the new label.
                let at = core.slot();
                core.load(sys, at, labels.addr(v), true);
                labels.set_raw(sys, v, lv);
                writes += 1;
                core.retire(at, cfg.cpu_per_edge);
            }
        }
        if writes == 0 {
            converged = true;
            break;
        }
    }
    thymesim_telemetry::phase_end();

    let end = core.end();
    thymesim_telemetry::span_arg("workload", "cc", start, end, "iters", iterations as u64);
    let mut components = 0u64;
    for v in 0..g.n {
        if labels.get_raw(sys, v) == v as u32 {
            components += 1;
        }
    }
    CcReport {
        iterations,
        elapsed: end - start,
        components,
        converged,
        edges_examined,
    }
}

/// Host-side reference labels: union-find with path halving, then each
/// vertex labelled with its component's minimum vertex id — exactly the
/// fixpoint min-label propagation converges to on a symmetric graph.
pub fn reference_components<R: RemoteBackend>(sys: &MemSystem<R>, g: &CsrGraph) -> Vec<u32> {
    let n = g.n as usize;
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    let mut row = Vec::new();
    for v in 0..g.n {
        g.row(sys, g.cursor(sys, v), &mut row);
        for &(w, _) in &row {
            let (a, b) = (find(&mut parent, v as u32), find(&mut parent, w));
            if a != b {
                // Union by min id keeps roots canonical as we go.
                let (lo_id, hi_id) = (a.min(b), a.max(b));
                parent[hi_id as usize] = lo_id;
            }
        }
    }
    (0..n as u32).map(|v| find(&mut parent, v)).collect()
}

/// Exact differential oracle: the timed kernel's labels equal the
/// reference partition element-wise.
pub fn validate_cc<R: RemoteBackend>(
    sys: &MemSystem<R>,
    g: &CsrGraph,
    labels: &SimVec<u32>,
) -> bool {
    let reference = reference_components(sys, g);
    (0..g.n).all(|v| labels.get_raw(sys, v) == reference[v as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph500::tests::build;
    use crate::graph500::{CsrLayout, Graph500Config};
    use thymesim_mem::{
        shared_dram, Addr, AddressMap, Arena, CacheConfig, DramConfig, NoRemote, SysTiming,
    };

    fn sys() -> MemSystem<NoRemote> {
        MemSystem::new(
            AddressMap::new(256 << 20, 256 << 20, 128),
            CacheConfig::tiny(),
            shared_dram(DramConfig::default()),
            SysTiming::default(),
            NoRemote,
        )
    }

    fn run(layout: CsrLayout, gcfg: &Graph500Config) -> (CcReport, bool) {
        let mut s = sys();
        let mut arena = Arena::new(Addr(0), 256 << 20);
        let g = build(gcfg, &mut s, &mut arena, layout);
        let labels: SimVec<u32> = arena.alloc_vec(g.n.max(1));
        let report = cc(&CcConfig::default(), &mut s, &g, &labels, Time::ZERO);
        let ok = validate_cc(&s, &g, &labels);
        (report, ok)
    }

    #[test]
    fn labels_match_union_find_on_both_layouts() {
        let gcfg = Graph500Config::tiny();
        for layout in [CsrLayout::Flat, CsrLayout::Compressed] {
            let (report, ok) = run(layout, &gcfg);
            assert!(ok, "CC oracle failed under {layout:?}");
            assert!(report.converged);
            assert!(report.components >= 1);
            assert!(report.elapsed > Dur::ZERO);
        }
    }

    #[test]
    fn converged_pass_is_counted_and_timed() {
        let gcfg = Graph500Config::tiny();
        let (report, _) = run(CsrLayout::Flat, &gcfg);
        // The last sweep wrote nothing but still examined every edge:
        // iterations include it, and the edge count is a whole multiple
        // of m2.
        assert!(report.iterations >= 2);
        assert_eq!(
            report.edges_examined,
            report.iterations as u64 * Graph500Config::tiny().edges() * 2
        );
    }

    #[test]
    fn degenerate_graphs_converge_immediately() {
        for (scale, ef) in [(0u32, 0u32), (4, 0)] {
            let gcfg = Graph500Config {
                scale,
                edgefactor: ef,
                ..Graph500Config::default()
            };
            let (report, ok) = run(CsrLayout::Flat, &gcfg);
            assert!(ok);
            assert!(report.converged);
            // Every vertex is its own component.
            assert_eq!(report.components, gcfg.vertices());
            assert_eq!(report.iterations, 1);
        }
    }

    #[test]
    fn component_count_matches_reference_partition() {
        let gcfg = Graph500Config::tiny();
        let mut s = sys();
        let mut arena = Arena::new(Addr(0), 256 << 20);
        let g = build(&gcfg, &mut s, &mut arena, CsrLayout::Flat);
        let labels: SimVec<u32> = arena.alloc_vec(g.n);
        let report = cc(&CcConfig::default(), &mut s, &g, &labels, Time::ZERO);
        let reference = reference_components(&s, &g);
        let mut roots: Vec<u32> = reference.clone();
        roots.sort_unstable();
        roots.dedup();
        assert_eq!(report.components, roots.len() as u64);
    }
}
