//! Betweenness centrality (Brandes' algorithm) — the GAP-suite BC
//! kernel: per source, a level-synchronous forward BFS that counts
//! shortest paths (`sigma`), then a reverse-level dependency
//! accumulation (`delta`) back into the scores. Two timed phases per
//! source (`bc.forward` / `bc.backward`), both dominated by dependent
//! random reads of per-vertex state — BFS-like delay sensitivity, twice
//! over.
//!
//! Differential oracle: [`reference_bc`] replays the identical
//! deterministic traversal and accumulation order on host vectors, so
//! scores agree to ~bitwise; the 1e-9 acceptance band is slack.

use crate::graph500::{CsrGraph, INF};
use crate::issue::Core;
use thymesim_mem::{Arena, MemSystem, RemoteBackend, SimVec};
use thymesim_sim::{Dur, Time};

/// Betweenness-centrality configuration.
#[derive(Clone, Copy, Debug)]
pub struct BcConfig {
    /// Outstanding fetches (dependent traversal: shallow).
    pub mlp: usize,
    /// CPU cost per traversed edge.
    pub cpu_per_edge: Dur,
}

impl Default for BcConfig {
    fn default() -> Self {
        BcConfig {
            mlp: 4,
            cpu_per_edge: Dur::ns(2),
        }
    }
}

/// Per-vertex working state, allocated by the caller (local or remote).
pub struct BcState {
    pub depth: SimVec<u32>,
    pub sigma: SimVec<f64>,
    pub delta: SimVec<f64>,
}

impl BcState {
    pub fn alloc(arena: &mut Arena, n: u64) -> BcState {
        BcState {
            depth: arena.alloc_vec(n.max(1)),
            sigma: arena.alloc_vec(n.max(1)),
            delta: arena.alloc_vec(n.max(1)),
        }
    }
}

/// Outcome of a run.
#[derive(Clone, Debug)]
pub struct BcReport {
    pub sources: u32,
    pub elapsed: Dur,
    /// Edges traversed across forward and backward passes.
    pub edges_traversed: u64,
    pub max_score: f64,
}

/// Run multi-source Brandes BC, accumulating into `score` (zeroed here).
pub fn bc<R: RemoteBackend>(
    cfg: &BcConfig,
    sys: &mut MemSystem<R>,
    g: &CsrGraph,
    state: &BcState,
    score: &SimVec<f64>,
    sources: &[u32],
    start: Time,
) -> BcReport {
    for v in 0..g.n {
        score.set_raw(sys, v, 0.0);
    }

    let mut core = Core::new(cfg.mlp, start);
    let mut edges_traversed = 0u64;
    let mut row = Vec::new();

    for &s in sources {
        // Untimed per-source reinit (bookkeeping, as the reference
        // benchmark zeroes between roots).
        for v in 0..g.n {
            state.depth.set_raw(sys, v, INF);
            state.sigma.set_raw(sys, v, 0.0);
            state.delta.set_raw(sys, v, 0.0);
        }
        state.depth.set_raw(sys, s as u64, 0);
        state.sigma.set_raw(sys, s as u64, 1.0);

        // Forward: level-synchronous BFS counting shortest paths.
        thymesim_telemetry::phase_begin("bc.forward", None);
        let mut levels: Vec<Vec<u32>> = vec![vec![s]];
        loop {
            let frontier = levels.last().expect("levels never empty").clone();
            if frontier.is_empty() {
                levels.pop();
                break;
            }
            let d = (levels.len() - 1) as u32;
            let mut next: Vec<u32> = Vec::new();
            for &v in &frontier {
                let at = core.slot();
                core.load(sys, at, g.xadj.addr(v as u64), false);
                g.row(sys, g.cursor(sys, v as u64), &mut row);
                core.load(sys, at, state.sigma.addr(v as u64), false);
                let sv = state.sigma.get_raw(sys, v as u64);
                core.retire(at, cfg.cpu_per_edge);
                for &(w, wa) in &row {
                    edges_traversed += 1;
                    let at = core.slot();
                    core.load(sys, at, wa, false);
                    core.load(sys, at, state.depth.addr(w as u64), false);
                    let dw = state.depth.get_raw(sys, w as u64);
                    if dw == INF {
                        // Discover: write depth, seed sigma.
                        core.load(sys, at, state.depth.addr(w as u64), true);
                        state.depth.set_raw(sys, w as u64, d + 1);
                        state.sigma.set_raw(sys, w as u64, sv);
                        next.push(w);
                    } else if dw == d + 1 {
                        // Another shortest path: sigma[w] += sigma[v].
                        core.load(sys, at, state.sigma.addr(w as u64), true);
                        let sw = state.sigma.get_raw(sys, w as u64);
                        state.sigma.set_raw(sys, w as u64, sw + sv);
                    }
                    core.retire(at, cfg.cpu_per_edge);
                }
            }
            levels.push(next);
        }

        // Backward: reverse-level dependency accumulation.
        thymesim_telemetry::phase_begin("bc.backward", None);
        for frontier in levels.iter().rev() {
            for &v in frontier {
                let at = core.slot();
                core.load(sys, at, g.xadj.addr(v as u64), false);
                g.row(sys, g.cursor(sys, v as u64), &mut row);
                let dv = state.depth.get_raw(sys, v as u64);
                let sv = state.sigma.get_raw(sys, v as u64);
                core.retire(at, cfg.cpu_per_edge);
                let mut acc = 0.0f64;
                for &(w, wa) in &row {
                    edges_traversed += 1;
                    let at = core.slot();
                    core.load(sys, at, wa, false);
                    core.load(sys, at, state.delta.addr(w as u64), false);
                    if state.depth.get_raw(sys, w as u64) == dv.wrapping_add(1) {
                        let sw = state.sigma.get_raw(sys, w as u64);
                        let dw = state.delta.get_raw(sys, w as u64);
                        acc += sv / sw * (1.0 + dw);
                    }
                    core.retire(at, cfg.cpu_per_edge);
                }
                let at = core.slot();
                core.load(sys, at, state.delta.addr(v as u64), true);
                state.delta.set_raw(sys, v as u64, acc);
                if v != s {
                    // score[v] += delta[v]: random read-modify-write.
                    core.load(sys, at, score.addr(v as u64), true);
                    let old = score.get_raw(sys, v as u64);
                    score.set_raw(sys, v as u64, old + acc);
                }
                core.retire(at, cfg.cpu_per_edge);
            }
        }
    }
    if !sources.is_empty() {
        thymesim_telemetry::phase_end();
    }

    let end = core.end();
    thymesim_telemetry::span_arg(
        "workload",
        "bc",
        start,
        end,
        "sources",
        sources.len() as u64,
    );
    let mut max_score = 0.0f64;
    for v in 0..g.n {
        max_score = max_score.max(score.get_raw(sys, v));
    }
    BcReport {
        sources: sources.len() as u32,
        elapsed: end - start,
        edges_traversed,
        max_score,
    }
}

/// Host-side reference: the identical traversal and accumulation order
/// over host vectors.
pub fn reference_bc<R: RemoteBackend>(
    sys: &MemSystem<R>,
    g: &CsrGraph,
    sources: &[u32],
) -> Vec<f64> {
    let n = g.n as usize;
    let mut score = vec![0.0f64; n];
    let mut row = Vec::new();
    for &s in sources {
        let mut depth = vec![INF; n];
        let mut sigma = vec![0.0f64; n];
        let mut delta = vec![0.0f64; n];
        depth[s as usize] = 0;
        sigma[s as usize] = 1.0;
        let mut levels: Vec<Vec<u32>> = vec![vec![s]];
        loop {
            let frontier = levels.last().expect("levels never empty").clone();
            if frontier.is_empty() {
                levels.pop();
                break;
            }
            let d = (levels.len() - 1) as u32;
            let mut next = Vec::new();
            for &v in &frontier {
                let sv = sigma[v as usize];
                g.row(sys, g.cursor(sys, v as u64), &mut row);
                for &(w, _) in &row {
                    if depth[w as usize] == INF {
                        depth[w as usize] = d + 1;
                        sigma[w as usize] = sv;
                        next.push(w);
                    } else if depth[w as usize] == d + 1 {
                        sigma[w as usize] += sv;
                    }
                }
            }
            levels.push(next);
        }
        for frontier in levels.iter().rev() {
            for &v in frontier {
                let dv = depth[v as usize];
                let sv = sigma[v as usize];
                g.row(sys, g.cursor(sys, v as u64), &mut row);
                let mut acc = 0.0f64;
                for &(w, _) in &row {
                    if depth[w as usize] == dv.wrapping_add(1) {
                        acc += sv / sigma[w as usize] * (1.0 + delta[w as usize]);
                    }
                }
                delta[v as usize] = acc;
                if v != s {
                    score[v as usize] += acc;
                }
            }
        }
    }
    score
}

/// Differential oracle: max absolute divergence within `1e-9` of the
/// reference (relative to the score magnitude).
pub fn validate_bc<R: RemoteBackend>(
    sys: &MemSystem<R>,
    g: &CsrGraph,
    score: &SimVec<f64>,
    sources: &[u32],
) -> bool {
    let reference = reference_bc(sys, g, sources);
    (0..g.n).all(|v| {
        let a = score.get_raw(sys, v);
        let b = reference[v as usize];
        (a - b).abs() <= 1e-9 * b.abs().max(1.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph500::tests::build;
    use crate::graph500::{pick_roots, CsrLayout, Graph500Config};
    use thymesim_mem::{
        shared_dram, Addr, AddressMap, CacheConfig, DramConfig, NoRemote, SysTiming,
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

    fn run(layout: CsrLayout, gcfg: &Graph500Config, sources: &[u32]) -> (BcReport, bool) {
        let mut s = sys();
        let mut arena = Arena::new(Addr(0), 256 << 20);
        let g = build(gcfg, &mut s, &mut arena, layout);
        let state = BcState::alloc(&mut arena, g.n);
        let score: SimVec<f64> = arena.alloc_vec(g.n.max(1));
        let report = bc(
            &BcConfig::default(),
            &mut s,
            &g,
            &state,
            &score,
            sources,
            Time::ZERO,
        );
        let ok = validate_bc(&s, &g, &score, sources);
        (report, ok)
    }

    #[test]
    fn scores_match_reference_on_both_layouts() {
        let gcfg = Graph500Config::tiny();
        let mut s = sys();
        let mut arena = Arena::new(Addr(0), 256 << 20);
        let g = build(&gcfg, &mut s, &mut arena, CsrLayout::Flat);
        let sources = pick_roots(&gcfg, &s, &g);
        for layout in [CsrLayout::Flat, CsrLayout::Compressed] {
            let (report, ok) = run(layout, &gcfg, &sources);
            assert!(ok, "BC oracle failed under {layout:?}");
            assert!(report.max_score > 0.0);
            assert!(report.elapsed > Dur::ZERO);
        }
    }

    #[test]
    fn hub_scores_dominate() {
        // Betweenness concentrates on high-degree Kronecker hubs.
        let gcfg = Graph500Config::tiny();
        let mut s = sys();
        let mut arena = Arena::new(Addr(0), 256 << 20);
        let g = build(&gcfg, &mut s, &mut arena, CsrLayout::Flat);
        let sources = pick_roots(&gcfg, &s, &g);
        let state = BcState::alloc(&mut arena, g.n);
        let score: SimVec<f64> = arena.alloc_vec(g.n);
        let report = bc(
            &BcConfig::default(),
            &mut s,
            &g,
            &state,
            &score,
            &sources,
            Time::ZERO,
        );
        let mut max_deg_v = 0u64;
        let mut max_deg = 0u64;
        for v in 0..g.n {
            let (lo, hi) = g.row_bounds_raw(&s, v);
            if hi - lo > max_deg {
                max_deg = hi - lo;
                max_deg_v = v;
            }
        }
        assert!(
            score.get_raw(&s, max_deg_v) > report.max_score / 100.0,
            "hub vertex has negligible betweenness"
        );
    }

    #[test]
    fn degenerate_graphs_score_zero() {
        for (scale, ef) in [(0u32, 0u32), (4, 0)] {
            let gcfg = Graph500Config {
                scale,
                edgefactor: ef,
                ..Graph500Config::default()
            };
            // Sources on an edgeless graph: no paths, all scores zero.
            let (report, ok) = run(CsrLayout::Flat, &gcfg, &[0]);
            assert!(ok);
            assert_eq!(report.max_score, 0.0);
            // And with no sources at all, the kernel is a timed no-op.
            let (report, ok) = run(CsrLayout::Flat, &gcfg, &[]);
            assert!(ok);
            assert_eq!(report.edges_traversed, 0);
        }
    }
}
