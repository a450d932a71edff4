//! The two-node testbed: borrower + lender + fabric + control plane,
//! assembled and hot-plugged like the prototype in §III-A.

use crate::config::TestbedConfig;
use thymesim_fabric::{AttachError, AttachReport, ControlPlane, Crash, FabricEngine};
use thymesim_mem::{shared_dram, Addr, AddressMap, Arena, MemSystem, NoRemote, SharedDram};
use thymesim_sim::Time;

/// A fully assembled two-node system with disaggregated memory attached.
pub struct Testbed {
    /// The borrower node: its cache misses above the remote base go
    /// through the fabric engine.
    pub borrower: MemSystem<FabricEngine>,
    /// The lender node's own CPU-side memory system (shares the lender
    /// bus with incoming remote traffic).
    pub lender: MemSystem<NoRemote>,
    pub control: ControlPlane,
    pub attach: AttachReport,
    /// Allocator over the borrower's remote (disaggregated) window.
    pub remote_arena: Arena,
    /// Allocator over the borrower's local memory.
    pub local_arena: Arena,
    /// Allocator over the lender's local memory (for lender-side work).
    pub lender_arena: Arena,
    cfg: TestbedConfig,
}

/// A lender-side CPU node on `bus` with the allocator over its local
/// memory (its own address space; remote never touched). The testbed's
/// lender is one; so is each pre-existing local app of the placement
/// study, several of which share one lender's bus.
pub fn lender_node(cfg: &TestbedConfig, bus: SharedDram) -> (MemSystem<NoRemote>, Arena) {
    let line = cfg.fabric.line_bytes;
    let map = AddressMap::new(cfg.lender_size, line, line);
    let node = MemSystem::new(map, cfg.lender.cache, bus, cfg.lender.timing, NoRemote);
    (node, Arena::new(Addr(0), cfg.lender_size))
}

impl Testbed {
    /// Build the system and attach the reservation; fails exactly when
    /// the prototype does (FPGA discovery timeout under extreme delay).
    pub fn build(cfg: &TestbedConfig) -> Result<Testbed, AttachError> {
        Self::build_at(cfg, Time::ZERO)
    }

    pub fn build_at(cfg: &TestbedConfig, at: Time) -> Result<Testbed, AttachError> {
        Self::build_with_lender_bus(cfg, at, shared_dram(cfg.lender.dram))
    }

    /// Build against an externally supplied lender memory bus — several
    /// borrowers sharing one bus model the §V *memory pooling*
    /// configuration (a CPU-less pool with its own bandwidth limit).
    pub fn build_with_lender_bus(
        cfg: &TestbedConfig,
        at: Time,
        lender_bus: SharedDram,
    ) -> Result<Testbed, AttachError> {
        // Borrower node. The two node buses carry windowed busy tracks
        // (exclusively claimed: with several testbeds in one point only
        // the first records, keeping each busy fraction within [0, 1]).
        lender_bus.borrow_mut().set_track("mem.dram_busy.lender");
        let local_bus = shared_dram(cfg.borrower.dram);
        local_bus.borrow_mut().set_track("mem.dram_busy.local");
        let map = AddressMap::new(cfg.local_size, cfg.remote_size, cfg.fabric.line_bytes);
        let engine = FabricEngine::new(cfg.fabric.clone(), SharedDram::clone(&lender_bus));
        let mut borrower = MemSystem::new(
            map,
            cfg.borrower.cache,
            local_bus,
            cfg.borrower.timing,
            engine,
        );

        let (lender, lender_arena) = lender_node(cfg, lender_bus);

        // Control plane: reserve at the lender, hot-plug at the borrower.
        let mut control = ControlPlane::new(cfg.control, cfg.lender_size);
        let res = control
            .reserve(cfg.remote_size)
            .expect("lender must have capacity for the configured window");
        let attach = control.attach(borrower.remote_mut(), at, map.remote_base, res)?;

        let remote_arena = Arena::new(map.remote_base_addr(), cfg.remote_size);
        let local_arena = Arena::new(Addr(0), cfg.local_size);
        Ok(Testbed {
            borrower,
            lender,
            control,
            attach,
            remote_arena,
            local_arena,
            lender_arena,
            cfg: cfg.clone(),
        })
    }

    pub fn config(&self) -> &TestbedConfig {
        &self.cfg
    }

    /// First fatal event observed by the borrower's fabric, if any.
    pub fn crash(&self) -> Option<Crash> {
        self.borrower.remote().health.crashed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thymesim_mem::Region;

    #[test]
    fn builds_and_attaches_at_vanilla() {
        let tb = Testbed::build(&TestbedConfig::tiny()).expect("attach failed");
        assert!(tb.borrower.remote().is_attached());
        assert!(tb.crash().is_none());
        assert!(tb.attach.discovery_time.as_us_f64() > 0.0);
    }

    #[test]
    fn remote_arena_allocates_in_remote_region() {
        let mut tb = Testbed::build(&TestbedConfig::tiny()).unwrap();
        let a = tb.remote_arena.alloc(4096, 128);
        assert_eq!(tb.borrower.map.region(a), Region::Remote);
        let l = tb.local_arena.alloc(4096, 128);
        assert_eq!(tb.borrower.map.region(l), Region::Local);
    }

    #[test]
    fn remote_access_flows_through_fabric() {
        let mut tb = Testbed::build(&TestbedConfig::tiny()).unwrap();
        let a = tb.remote_arena.alloc(128, 128);
        let t0 = tb.attach.ready_at;
        let t = tb.borrower.access(t0, a, false);
        assert!(t > t0);
        assert_eq!(tb.borrower.remote().stats.reads, 1);
        assert_eq!(tb.borrower.stats.remote_miss, 1);
    }

    #[test]
    fn extreme_period_fails_to_attach() {
        let cfg = TestbedConfig::tiny().with_period(10_000);
        match Testbed::build(&cfg) {
            Err(AttachError::DiscoveryTimeout { .. }) => {}
            Err(other) => panic!("expected discovery timeout, got {other:?}"),
            Ok(_) => panic!("attach unexpectedly succeeded at PERIOD=10000"),
        }
    }

    #[test]
    fn lender_and_remote_share_the_lender_bus() {
        let mut tb = Testbed::build(&TestbedConfig::tiny()).unwrap();
        // Saturate the lender bus from the lender side, then observe that
        // a remote access sees queueing.
        let mut t_lender = Time::ZERO;
        for i in 0..10_000u64 {
            t_lender = tb.lender.access(Time::ZERO, Addr(i * 128), false);
        }
        let a = tb.remote_arena.alloc(128, 128);
        let before = tb.borrower.remote().stats.read_latency.count();
        tb.borrower.access(Time::ZERO, a, false);
        assert_eq!(tb.borrower.remote().stats.read_latency.count(), before + 1);
        // The remote read had to queue behind lender traffic on the bus.
        let lat_us = tb.borrower.remote().stats.read_latency.mean() / 1e6;
        assert!(
            lat_us > 1.3,
            "expected bus queueing to inflate remote latency, got {lat_us} us"
        );
        let _ = t_lender;
    }
}
