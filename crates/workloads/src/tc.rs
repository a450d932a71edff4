//! Triangle counting — the GAP-suite TC kernel: ordered wedge checks
//! over sorted adjacency. The graph is relabelled by degree rank
//! ([`crate::graph500::degree_ordered_edges`]) so every edge is
//! oriented low→high and hub vertices keep near-empty oriented tails,
//! bounding merge work at ~O(m^1.5).
//!
//! Access signature: long *sequential* runs over sorted rows — unlike
//! BFS/CC/BC there are no dependent random gathers, so a modest issue
//! window prefetches the runs and the kernel degrades measurably less
//! under injected delay. That locality contrast is exactly what the
//! apps axis needs the kernel for. Nothing issues between a run's loads,
//! so each run is one `Core::scan`.
//!
//! Differential oracle: [`reference_triangles`] recounts on the host via
//! hash-set membership over deduplicated oriented tails — a different
//! algorithm and data structure — and the counts must match exactly.

use crate::graph500::{CsrGraph, RowCursor};
use crate::issue::Core;
use thymesim_mem::{Addr, MemSystem, RemoteBackend};
use thymesim_sim::{Dur, Time};

/// Triangle-counting configuration.
#[derive(Clone, Copy, Debug)]
pub struct TcConfig {
    /// Outstanding fetches: sorted-run scans are prefetchable, so the
    /// window is deep (the locality contrast with BFS/CC/BC).
    pub mlp: usize,
    /// CPU cost per scanned entry / merge comparison.
    pub cpu_per_step: Dur,
}

impl Default for TcConfig {
    fn default() -> Self {
        TcConfig {
            mlp: 16,
            cpu_per_step: Dur::ns(1),
        }
    }
}

/// Outcome of a run.
#[derive(Clone, Debug)]
pub struct TcReport {
    pub triangles: u64,
    pub elapsed: Dur,
    /// Merge comparisons performed (the wedge-check work metric).
    pub wedge_steps: u64,
}

/// Count triangles over a degree-ordered, sorted-row CSR. Each triangle
/// `u < v < w` is found exactly once, at `u`, by merging `u`'s oriented
/// tail with `v`'s.
pub fn tc<R: RemoteBackend>(
    cfg: &TcConfig,
    sys: &mut MemSystem<R>,
    g: &CsrGraph,
    start: Time,
) -> TcReport {
    let mut core = Core::new(cfg.mlp, start);
    let mut triangles = 0u64;
    let mut wedge_steps = 0u64;
    // Where each vertex's oriented tail (entries strictly above it)
    // starts, found once: a wedge visit then decodes only the tail it
    // scans. Untimed host bookkeeping, O(n) cursors — the per-vertex
    // offset a real TC would keep beside `xadj` (e.g. a split CSR).
    let tails: Vec<RowCursor> = (0..g.n).map(|v| g.seek(sys, v, v as u32 + 1)).collect();

    thymesim_telemetry::phase_begin("tc.count", None);
    let mut row: Vec<(u32, Addr)> = Vec::new();
    let mut tail_u: Vec<u32> = Vec::new();
    let mut tail_v: Vec<u32> = Vec::new();
    for u in 0..g.n {
        // Timed sequential scan of u's xadj entry and full row; keep the
        // deduplicated oriented tail (neighbours strictly above u —
        // drops self-loops and parallel edges).
        g.row(sys, g.cursor(sys, u), &mut row);
        let entries = row.iter().map(|&(_, wa)| wa);
        let run = std::iter::once(g.xadj.addr(u)).chain(entries);
        core.scan(sys, run, false, cfg.cpu_per_step);
        tail_u.clear();
        tail_u.extend(row.iter().map(|&(w, _)| w).filter(|&w| (w as u64) > u));
        tail_u.dedup();
        for (i, &v) in tail_u.iter().enumerate() {
            // Timed sequential scan of v's tail run.
            g.row(sys, tails[v as usize], &mut row);
            core.scan(sys, row.iter().map(|&(_, wa)| wa), false, cfg.cpu_per_step);
            tail_v.clear();
            tail_v.extend(row.iter().map(|&(w, _)| w));
            tail_v.dedup();
            // Pure-CPU two-pointer merge: common elements of u's tail
            // past v and v's tail are triangles u<v<w.
            let (mut a, mut b) = (i + 1, 0usize);
            while a < tail_u.len() && b < tail_v.len() {
                wedge_steps += 1;
                match tail_u[a].cmp(&tail_v[b]) {
                    std::cmp::Ordering::Less => a += 1,
                    std::cmp::Ordering::Greater => b += 1,
                    std::cmp::Ordering::Equal => {
                        triangles += 1;
                        a += 1;
                        b += 1;
                    }
                }
                core.compute(cfg.cpu_per_step);
            }
        }
    }
    thymesim_telemetry::phase_end();

    let end = core.end();
    thymesim_telemetry::span_arg("workload", "tc", start, end, "triangles", triangles);
    TcReport {
        triangles,
        elapsed: end - start,
        wedge_steps,
    }
}

/// Host-side reference count via hash-set membership over deduplicated
/// oriented tails — deliberately a different algorithm than the kernel's
/// sorted merges.
pub fn reference_triangles<R: RemoteBackend>(sys: &MemSystem<R>, g: &CsrGraph) -> u64 {
    use std::collections::HashSet;
    let n = g.n as usize;
    let mut tails: Vec<Vec<u32>> = Vec::with_capacity(n);
    let mut row = Vec::new();
    for v in 0..g.n {
        g.row(sys, g.cursor(sys, v), &mut row);
        let mut t: Vec<u32> = row.iter().map(|e| e.0).filter(|&w| w as u64 > v).collect();
        t.dedup();
        tails.push(t);
    }
    let sets: Vec<HashSet<u32>> = tails.iter().map(|t| t.iter().copied().collect()).collect();
    let mut count = 0u64;
    for tail in &tails {
        for (i, &v) in tail.iter().enumerate() {
            for &w in &tail[i + 1..] {
                if sets[v as usize].contains(&w) {
                    count += 1;
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph500::{
        build_from_edges, degree_ordered_edges, CsrArenas, CsrLayout, Graph500Config,
    };
    use thymesim_mem::{
        shared_dram, Addr, AddressMap, Arena, CacheConfig, DramConfig, MemSystem, NoRemote,
        SysTiming,
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

    fn run(layout: CsrLayout, gcfg: &Graph500Config) -> (TcReport, u64) {
        let mut s = sys();
        let mut arena = Arena::new(Addr(0), 256 << 20);
        let edges = degree_ordered_edges(gcfg);
        let g = build_from_edges(
            gcfg,
            &mut s,
            &mut CsrArenas::One(&mut arena),
            layout,
            &edges,
        );
        let report = tc(&TcConfig::default(), &mut s, &g, Time::ZERO);
        let reference = reference_triangles(&s, &g);
        (report, reference)
    }

    #[test]
    fn count_matches_reference_on_both_layouts() {
        let gcfg = Graph500Config::tiny();
        let (flat, flat_ref) = run(CsrLayout::Flat, &gcfg);
        assert_eq!(flat.triangles, flat_ref, "TC oracle failed on flat CSR");
        assert!(flat.triangles > 0, "Kronecker graphs have triangles");
        assert!(flat.elapsed > Dur::ZERO);
        let (comp, comp_ref) = run(CsrLayout::Compressed, &gcfg);
        assert_eq!(
            comp.triangles, comp_ref,
            "TC oracle failed on compressed CSR"
        );
        // The count is a layout invariant.
        assert_eq!(flat.triangles, comp.triangles);
        assert_eq!(flat.wedge_steps, comp.wedge_steps);
    }

    #[test]
    fn known_graph_counts_exactly() {
        // K4 on {0,1,2,3} has 4 triangles; a pendant vertex adds none;
        // a duplicated edge and a self-loop must not change the count.
        let edges = [
            (0u32, 1u32),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (1, 2), // parallel edge
            (2, 2), // self-loop
        ];
        let gcfg = Graph500Config {
            scale: 3,
            edgefactor: 0,
            ..Graph500Config::default()
        };
        let mut s = sys();
        let mut arena = Arena::new(Addr(0), 256 << 20);
        let mut arenas = CsrArenas::One(&mut arena);
        let g = build_from_edges(&gcfg, &mut s, &mut arenas, CsrLayout::Flat, &edges);
        let report = tc(&TcConfig::default(), &mut s, &g, Time::ZERO);
        assert_eq!(report.triangles, 4);
        assert_eq!(reference_triangles(&s, &g), 4);
    }

    #[test]
    fn degenerate_graphs_count_zero() {
        for (scale, ef) in [(0u32, 0u32), (4, 0)] {
            let gcfg = Graph500Config {
                scale,
                edgefactor: ef,
                ..Graph500Config::default()
            };
            let (report, reference) = run(CsrLayout::Flat, &gcfg);
            assert_eq!(report.triangles, 0);
            assert_eq!(reference, 0);
            assert_eq!(report.wedge_steps, 0);
        }
    }

    /// The definition `tc` is held to: a full `Core::load` per scanned
    /// entry, and v's whole row decoded at every wedge to find its tail.
    fn tc_definitional<R: RemoteBackend>(
        cfg: &TcConfig,
        sys: &mut MemSystem<R>,
        g: &CsrGraph,
        start: Time,
    ) -> TcReport {
        let mut core = Core::new(cfg.mlp, start);
        let (mut triangles, mut wedge_steps) = (0u64, 0u64);
        thymesim_telemetry::phase_begin("tc.count", None);
        let (mut tail_u, mut tail_v, mut nbrs) = (Vec::new(), Vec::new(), Vec::new());
        for u in 0..g.n {
            let at = core.slot();
            core.load(sys, at, g.xadj.addr(u), false);
            g.row(sys, g.cursor(sys, u), &mut nbrs);
            core.retire(at, cfg.cpu_per_step);
            tail_u.clear();
            for &(w, wa) in &nbrs {
                let at = core.slot();
                core.load(sys, at, wa, false);
                if (w as u64) > u && tail_u.last() != Some(&w) {
                    tail_u.push(w);
                }
                core.retire(at, cfg.cpu_per_step);
            }
            for (i, &v) in tail_u.iter().enumerate() {
                g.row(sys, g.cursor(sys, v as u64), &mut nbrs);
                let first = nbrs.partition_point(|&(x, _)| x <= v);
                tail_v.clear();
                for &(w, wa) in &nbrs[first..] {
                    let at = core.slot();
                    core.load(sys, at, wa, false);
                    if tail_v.last() != Some(&w) {
                        tail_v.push(w);
                    }
                    core.retire(at, cfg.cpu_per_step);
                }
                let (mut a, mut b) = (i + 1, 0usize);
                while a < tail_u.len() && b < tail_v.len() {
                    wedge_steps += 1;
                    match tail_u[a].cmp(&tail_v[b]) {
                        std::cmp::Ordering::Less => a += 1,
                        std::cmp::Ordering::Greater => b += 1,
                        std::cmp::Ordering::Equal => {
                            triangles += 1;
                            a += 1;
                            b += 1;
                        }
                    }
                    core.compute(cfg.cpu_per_step);
                }
            }
        }
        thymesim_telemetry::phase_end();
        let end = core.end();
        thymesim_telemetry::span_arg("workload", "tc", start, end, "triangles", triangles);
        TcReport {
            triangles,
            elapsed: end - start,
            wedge_steps,
        }
    }

    #[test]
    fn tc_matches_the_definitional_kernel() {
        // A 4 KiB LLC both layouts thrash and a 2-deep window, so scans
        // replay hits behind pending misses; recorder installed and not.
        type Kernel = fn(&TcConfig, &mut MemSystem<NoRemote>, &CsrGraph, Time) -> TcReport;
        let cfg = TcConfig {
            mlp: 2,
            ..TcConfig::default()
        };
        for layout in [CsrLayout::Flat, CsrLayout::Compressed] {
            let run = |kernel: Kernel, traced: bool| {
                let mut s = MemSystem::new(
                    AddressMap::new(256 << 20, 256 << 20, 128),
                    CacheConfig {
                        sets: 16,
                        ways: 2,
                        line: 128,
                    },
                    shared_dram(DramConfig::default()),
                    SysTiming::default(),
                    NoRemote,
                );
                let mut arena = Arena::new(Addr(0), 256 << 20);
                let gcfg = Graph500Config::tiny();
                let mut arenas = CsrArenas::One(&mut arena);
                let g = build_from_edges(
                    &gcfg,
                    &mut s,
                    &mut arenas,
                    layout,
                    &degree_ordered_edges(&gcfg),
                );
                if traced {
                    thymesim_telemetry::install(thymesim_telemetry::TraceRecorder::with_window(
                        0, 50_000, 1_000_000,
                    ));
                }
                let report = kernel(&cfg, &mut s, &g, Time::ns(3));
                let trace = traced.then(|| format!("{:?}", thymesim_telemetry::take()));
                let stats = format!("{report:?} {:?}", s.stats);
                (stats, s.cache_stats(), trace)
            };
            let untraced = run(tc_definitional, false);
            assert!(untraced.1.evictions > 1000, "{layout:?}: must thrash");
            assert_eq!(run(tc, false), untraced, "{layout:?}, no recorder");
            let traced = run(tc_definitional, true);
            assert_eq!(
                (&traced.0, traced.1),
                (&untraced.0, untraced.1),
                "{layout:?}: recording is observational"
            );
            assert_eq!(run(tc, true), traced, "{layout:?}, recorder installed");
        }
    }
}
