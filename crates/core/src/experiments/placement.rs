//! E16 — contention-aware memory allocation at the control plane.
//!
//! The paper's third insight (§IV-E): *"a lender node with multiple
//! running applications and an idle lender node can be equally viable
//! candidates for remote memory reservation"* — so a placement policy
//! that avoids busy lenders buys nothing in the borrowing model. This
//! experiment integrates that insight into an actual allocator and
//! verifies both halves:
//!
//! * **Borrowing regime** (server-class lender buses): the load-averse
//!   and load-blind policies deliver the same borrower bandwidth.
//! * **Pooling regime** (§V, bandwidth-limited pools): the bottleneck
//!   moves into the pool, the insight inverts, and load-aware placement
//!   wins — the condition the control plane must watch for.

use crate::config::TestbedConfig;
use crate::experiments::beyond::MultiPair;
use crate::runners::{spawn_stream, Nodes, Site, StreamParty};
use crate::sweep;
use crate::testbed::{lender_node, Testbed};
use serde::Serialize;
use thymesim_fabric::FabricEngine;
use thymesim_mem::{shared_dram, DramConfig, MemSystem, NoRemote, SharedDram};
use thymesim_sim::{run_processes, Time};
use thymesim_workloads::stream::StreamConfig;

/// How the control plane picks a lender for each reservation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum PlacementPolicy {
    /// First lender with free capacity, ignoring load (what the paper's
    /// insight licenses).
    CapacityOnly,
    /// Spread reservations over the least-loaded lenders.
    LoadAware,
}

/// A lender in the pool: a bus plus how many local apps already run there.
struct Lender {
    bus: SharedDram,
    local_apps: usize,
    reservations: usize,
}

/// One experiment outcome.
#[derive(Clone, Debug, Serialize)]
pub struct PlacementPoint {
    pub policy: PlacementPolicy,
    /// "borrowing" (server-class bus) or "pooling" (limited bus).
    pub regime: String,
    /// Mean borrower STREAM bandwidth.
    pub mean_borrower_gib_s: f64,
    /// Worst borrower (fairness under bad placement).
    pub min_borrower_gib_s: f64,
}

/// The borrower pairs plus one memory system per lender-side local app
/// (the pre-existing load sharing its lender's bus).
struct World {
    pairs: MultiPair,
    lender_systems: Vec<MemSystem<NoRemote>>,
}

impl Nodes for World {
    fn borrower(&mut self, i: usize) -> &mut MemSystem<FabricEngine> {
        &mut self.pairs.testbeds[i].borrower
    }
    fn lender(&mut self, i: usize) -> &mut MemSystem<NoRemote> {
        &mut self.lender_systems[i]
    }
}

/// Run `borrowers` borrowers against a pool of `lenders` lenders, half of
/// which carry pre-existing local load, under the given policy/regime.
pub fn placement_run(
    base: &TestbedConfig,
    stream: &StreamConfig,
    borrowers: usize,
    lenders: usize,
    lender_bus_gb_s: f64,
    policy: PlacementPolicy,
) -> (f64, f64) {
    assert!(lenders >= 1 && borrowers >= 1);
    // Build the lender pool: even-indexed lenders are "busy" (2 local
    // apps), odd-indexed idle.
    let mut pool: Vec<Lender> = (0..lenders)
        .map(|i| Lender {
            bus: shared_dram(DramConfig {
                bandwidth_bytes_per_sec: lender_bus_gb_s * 1e9,
                ..base.lender.dram
            }),
            local_apps: if i % 2 == 0 { 2 } else { 0 },
            reservations: 0,
        })
        .collect();

    // Place each borrower's reservation.
    let mut assignment = Vec::with_capacity(borrowers);
    for _ in 0..borrowers {
        let idx = match policy {
            PlacementPolicy::CapacityOnly => {
                // Round-robin over capacity, blind to load: busy lenders
                // (even indices) fill first.
                let i = (0..lenders).min_by_key(|&i| pool[i].reservations * lenders + i);
                i.unwrap()
            }
            PlacementPolicy::LoadAware => {
                let i = (0..lenders).min_by_key(|&i| pool[i].local_apps + pool[i].reservations * 2);
                i.unwrap()
            }
        };
        pool[idx].reservations += 1;
        assignment.push(idx);
    }

    // Instantiate borrowers on their assigned lender buses.
    let mut testbeds = Vec::with_capacity(borrowers);
    for &l in &assignment {
        let tb = Testbed::build_with_lender_bus(base, Time::ZERO, SharedDram::clone(&pool[l].bus))
            .expect("placement attach");
        testbeds.push(tb);
    }
    // Lender-side local load shares each lender's bus. The local apps are
    // long-running services: give them enough repetitions to outlast the
    // borrowers, or the "busy lender" penalty evaporates mid-run.
    let mut lender_load_cfg = *stream;
    lender_load_cfg.ntimes = stream.ntimes * 8;
    let mut lender_systems = Vec::new();
    let mut procs: Vec<StreamParty> = Vec::new();
    for lender in &pool {
        for _ in 0..lender.local_apps {
            let (mut sys, mut arena) = lender_node(base, SharedDram::clone(&lender.bus));
            let p = spawn_stream(&mut sys, &mut arena, &lender_load_cfg, Time::ZERO);
            procs.push(StreamParty::new(
                p,
                Site::Lender(lender_systems.len()),
                "main",
                0,
            ));
            lender_systems.push(sys);
        }
    }
    let mut world = World {
        pairs: MultiPair { testbeds },
        lender_systems,
    };
    let first_borrower = procs.len();
    let pairs = world.pairs.testbeds.iter_mut().enumerate();
    procs.extend(pairs.map(|(i, tb)| StreamParty::spawn(tb, Site::Borrower(i), stream, "main", 0)));
    run_processes(&mut procs, &mut world, Time::NEVER);

    let borrower_bw: Vec<f64> = procs[first_borrower..]
        .iter()
        .map(|p| p.inner.mean_bandwidth_gib_s())
        .collect();
    let mean = borrower_bw.iter().sum::<f64>() / borrower_bw.len() as f64;
    let min = borrower_bw.iter().copied().fold(f64::MAX, f64::min);
    (mean, min)
}

/// The full study: both policies in both regimes.
pub fn placement_study(
    base: &TestbedConfig,
    stream: &StreamConfig,
    borrowers: usize,
    lenders: usize,
) -> Vec<PlacementPoint> {
    #[derive(Clone, Debug, Serialize)]
    struct Point {
        regime: String,
        policy: PlacementPolicy,
        bus_gb_s: f64,
        borrowers: usize,
        lenders: usize,
        cfg: TestbedConfig,
        stream: StreamConfig,
    }
    let mut grid = Vec::with_capacity(4);
    for (regime, bus_gb_s) in [("borrowing", 140.0), ("pooling", 12.0)] {
        for policy in [PlacementPolicy::CapacityOnly, PlacementPolicy::LoadAware] {
            grid.push(Point {
                regime: regime.into(),
                policy,
                bus_gb_s,
                borrowers,
                lenders,
                cfg: base.clone(),
                stream: *stream,
            });
        }
    }
    let cells: Vec<(f64, f64)> = sweep::run("placement/policies", &grid, |_ctx, pt| {
        placement_run(
            &pt.cfg,
            &pt.stream,
            pt.borrowers,
            pt.lenders,
            pt.bus_gb_s,
            pt.policy,
        )
    });
    grid.iter()
        .zip(&cells)
        .map(|(pt, &(mean, min))| PlacementPoint {
            policy: pt.policy,
            regime: pt.regime.clone(),
            mean_borrower_gib_s: mean,
            min_borrower_gib_s: min,
        })
        .collect()
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
    fn borrowing_regime_policies_are_equivalent() {
        // 2 borrowers over 4 lenders (2 busy, 2 idle).
        let points = placement_study(&TestbedConfig::tiny(), &quick_stream(), 2, 4);
        let blind = points
            .iter()
            .find(|p| p.regime == "borrowing" && p.policy == PlacementPolicy::CapacityOnly)
            .unwrap();
        let aware = points
            .iter()
            .find(|p| p.regime == "borrowing" && p.policy == PlacementPolicy::LoadAware)
            .unwrap();
        let gap = (aware.mean_borrower_gib_s - blind.mean_borrower_gib_s).abs()
            / blind.mean_borrower_gib_s;
        assert!(
            gap < 0.05,
            "the paper's insight: placement load-awareness is moot when \
             the bus dwarfs the network — gap {:.1}%",
            gap * 100.0
        );
    }

    #[test]
    fn pooling_regime_rewards_load_awareness() {
        let points = placement_study(&TestbedConfig::tiny(), &quick_stream(), 2, 4);
        let blind = points
            .iter()
            .find(|p| p.regime == "pooling" && p.policy == PlacementPolicy::CapacityOnly)
            .unwrap();
        let aware = points
            .iter()
            .find(|p| p.regime == "pooling" && p.policy == PlacementPolicy::LoadAware)
            .unwrap();
        assert!(
            aware.min_borrower_gib_s > blind.min_borrower_gib_s * 1.3,
            "with pool-class buses, dodging busy lenders must help the \
             worst-placed borrower: aware {:?} vs blind {:?}",
            aware,
            blind
        );
    }
}
