//! PageRank over the Graph500 Kronecker graph — an extension workload
//! from the application class the paper's introduction motivates
//! ("parallel data processing frameworks").
//!
//! Access pattern: per iteration, a sequential sweep of the CSR (high
//! MLP, prefetchable) plus a random scatter into the next rank vector
//! (low locality) — between STREAM and BFS on the sensitivity spectrum,
//! which is exactly why it is interesting under delay injection.

use crate::graph500::CsrGraph;
use crate::issue::Core;
use thymesim_mem::{Arena, MemSystem, RemoteBackend, SimVec};
use thymesim_sim::{Dur, Time};

/// PageRank configuration.
#[derive(Clone, Copy, Debug)]
pub struct PageRankConfig {
    pub iterations: u32,
    pub damping: f64,
    /// Outstanding line fetches during the edge sweep.
    pub mlp: usize,
    /// CPU cost per processed edge.
    pub cpu_per_edge: Dur,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            iterations: 10,
            damping: 0.85,
            mlp: 64,
            cpu_per_edge: Dur::ns(1),
        }
    }
}

/// Outcome of a run.
#[derive(Clone, Debug)]
pub struct PageRankReport {
    pub iterations: u32,
    pub elapsed: Dur,
    /// L1 change of the final iteration (convergence indicator).
    pub last_delta: f64,
    /// Ranks sum to ~1 (stochastic-vector invariant).
    pub rank_sum: f64,
}

/// The two rank vectors, allocated by the caller (local or remote).
pub struct PageRankState {
    pub rank: SimVec<f64>,
    pub next: SimVec<f64>,
}

impl PageRankState {
    pub fn alloc(arena: &mut Arena, n: u64) -> PageRankState {
        PageRankState {
            rank: arena.alloc_vec(n),
            next: arena.alloc_vec(n),
        }
    }
}

/// Run push-style PageRank: each vertex distributes rank/degree to its
/// neighbours. Timed accesses: xadj + adj sequential, rank\[v\] sequential,
/// next\[w\] random scatter.
pub fn pagerank<R: RemoteBackend>(
    cfg: &PageRankConfig,
    sys: &mut MemSystem<R>,
    g: &CsrGraph,
    state: &PageRankState,
    start: Time,
) -> PageRankReport {
    let n = g.n;
    let init = 1.0 / n as f64;
    for v in 0..n {
        state.rank.set_raw(sys, v, init);
    }

    let mut core = Core::new(cfg.mlp, start);
    let mut last_delta = 0.0;
    let mut row = Vec::new();

    for _iter in 0..cfg.iterations {
        // Zero the next vector (timed sequential writes).
        thymesim_telemetry::phase_begin("pagerank.zero", None);
        let base_term = (1.0 - cfg.damping) / n as f64;
        let next = state.next;
        core.scan(sys, (0..n).map(|v| next.addr(v)), true, Dur::ps(200));
        for v in 0..n {
            next.set_raw(sys, v, base_term);
        }
        // Push phase.
        thymesim_telemetry::phase_begin("pagerank.push", None);
        for v in 0..n {
            let at = core.slot();
            core.load(sys, at, state.rank.addr(v), false);
            let rv = state.rank.get_raw(sys, v);
            core.load(sys, at, g.xadj.addr(v), false);
            g.row(sys, g.cursor(sys, v), &mut row);
            if row.is_empty() {
                core.retire(at, cfg.cpu_per_edge);
                continue;
            }
            let share = cfg.damping * rv / row.len() as f64;
            for &(w, wa) in &row {
                let at = core.slot();
                // Sequential neighbour read (through the layout seam).
                core.load(sys, at, wa, false);
                let w = w as u64;
                // Random scatter into next[w] (read-modify-write).
                core.load(sys, at, state.next.addr(w), true);
                let acc = state.next.get_raw(sys, w);
                state.next.set_raw(sys, w, acc + share);
                core.retire(at, cfg.cpu_per_edge);
            }
        }
        // Swap (untimed bookkeeping) + measure delta.
        let mut delta = 0.0;
        for v in 0..n {
            let a = state.rank.get_raw(sys, v);
            let b = state.next.get_raw(sys, v);
            delta += (a - b).abs();
            state.rank.set_raw(sys, v, b);
        }
        last_delta = delta;
    }
    thymesim_telemetry::phase_end();

    let end = core.end();
    thymesim_telemetry::span_arg(
        "workload",
        "pagerank",
        start,
        end,
        "iters",
        cfg.iterations as u64,
    );
    let rank_sum = (0..n).map(|v| state.rank.get_raw(sys, v)).sum();
    PageRankReport {
        iterations: cfg.iterations,
        elapsed: end - start,
        last_delta,
        rank_sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph500::{build_csr, Graph500Config};
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

    fn setup() -> (
        MemSystem<NoRemote>,
        crate::graph500::CsrGraph,
        PageRankState,
    ) {
        let gcfg = Graph500Config::tiny();
        let mut s = sys();
        let mut arena = Arena::new(Addr(0), 256 << 20);
        let g = build_csr(&gcfg, &mut s, &mut arena);
        let state = PageRankState::alloc(&mut arena, g.n);
        (s, g, state)
    }

    #[test]
    fn ranks_stay_stochastic() {
        let (mut s, g, state) = setup();
        let report = pagerank(&PageRankConfig::default(), &mut s, &g, &state, Time::ZERO);
        // Push PageRank with dangling-mass loss keeps sum ≤ 1; with a
        // Kronecker giant component it stays close.
        assert!(
            (0.5..=1.000001).contains(&report.rank_sum),
            "rank sum {} out of range",
            report.rank_sum
        );
        assert!(report.elapsed > Dur::ZERO);
    }

    #[test]
    fn converges_with_iterations() {
        let (mut s, g, state) = setup();
        let mut cfg = PageRankConfig {
            iterations: 3,
            ..Default::default()
        };
        let early = pagerank(&cfg, &mut s, &g, &state, Time::ZERO);
        cfg.iterations = 20;
        let (mut s2, g2, state2) = setup();
        let late = pagerank(&cfg, &mut s2, &g2, &state2, Time::ZERO);
        assert!(
            late.last_delta < early.last_delta / 4.0,
            "delta must shrink: {} vs {}",
            late.last_delta,
            early.last_delta
        );
    }

    #[test]
    fn hubs_rank_highest() {
        let (mut s, g, state) = setup();
        pagerank(&PageRankConfig::default(), &mut s, &g, &state, Time::ZERO);
        // The max-degree vertex should be among the top ranks.
        let mut max_deg_v = 0;
        let mut max_deg = 0;
        for v in 0..g.n {
            let d = g.xadj.get_raw(&s, v + 1) - g.xadj.get_raw(&s, v);
            if d > max_deg {
                max_deg = d;
                max_deg_v = v;
            }
        }
        let hub_rank = state.rank.get_raw(&s, max_deg_v);
        let mut better = 0;
        for v in 0..g.n {
            if state.rank.get_raw(&s, v) > hub_rank {
                better += 1;
            }
        }
        assert!(
            better <= g.n / 100,
            "hub (degree {max_deg}) ranked below {better} vertices"
        );
    }

    #[test]
    fn prefetch_window_hides_latency_small_window_does_not() {
        // With a deep issue window the sweep hides even 10x memory
        // latency (PageRank is prefetch-friendly); with a shallow window
        // the same code becomes latency-bound — MLP, not the algorithm,
        // decides delay sensitivity (the paper's Fig. 5 mechanism).
        let run = |lat_ns: u64, mlp: usize| {
            // Big enough to thrash the 256 KiB cache (CSR ~2 MiB).
            let gcfg = Graph500Config {
                scale: 13,
                edgefactor: 16,
                ..Graph500Config::tiny()
            };
            let mut s = MemSystem::new(
                AddressMap::new(256 << 20, 256 << 20, 128),
                CacheConfig::tiny(),
                shared_dram(DramConfig {
                    latency: Dur::ns(lat_ns),
                    ..DramConfig::default()
                }),
                SysTiming::default(),
                NoRemote,
            );
            let mut arena = Arena::new(Addr(0), 256 << 20);
            let g = build_csr(&gcfg, &mut s, &mut arena);
            let state = PageRankState::alloc(&mut arena, g.n);
            let cfg = PageRankConfig {
                iterations: 2,
                mlp,
                ..PageRankConfig::default()
            };
            pagerank(&cfg, &mut s, &g, &state, Time::ZERO)
                .elapsed
                .as_secs_f64()
        };
        let tolerant = run(1200, 64) / run(120, 64);
        let exposed = run(1200, 2) / run(120, 2);
        assert!(
            tolerant < 1.3,
            "a 64-deep window should hide 10x latency: {tolerant}"
        );
        assert!(exposed > 2.0, "a 2-deep window should expose it: {exposed}");
    }
}
