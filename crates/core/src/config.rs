//! Top-level experiment configuration.

use thymesim_fabric::{ControlConfig, DelaySpec, FabricConfig};
use thymesim_mem::{CacheConfig, DramConfig, DramModel, SysTiming};

/// One node's memory-subsystem configuration.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct NodeConfig {
    pub cache: CacheConfig,
    pub dram: DramConfig,
    pub timing: SysTiming,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            cache: CacheConfig::power9_llc(),
            dram: DramConfig::default(),
            timing: SysTiming::default(),
        }
    }
}

impl NodeConfig {
    /// Scaled-down node for fast tests: small cache, same timing.
    pub fn tiny() -> NodeConfig {
        NodeConfig {
            cache: CacheConfig::tiny(),
            ..NodeConfig::default()
        }
    }
}

/// The two-node testbed configuration (borrower + lender + fabric).
#[derive(Clone, Debug, serde::Serialize)]
pub struct TestbedConfig {
    pub borrower: NodeConfig,
    pub lender: NodeConfig,
    pub fabric: FabricConfig,
    pub control: ControlConfig,
    /// Borrower-local physical memory size.
    pub local_size: u64,
    /// Remote (hot-plugged) window size.
    pub remote_size: u64,
    /// Lender node's own physical memory size.
    pub lender_size: u64,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            borrower: NodeConfig::default(),
            lender: NodeConfig::default(),
            fabric: FabricConfig::default(),
            control: ControlConfig::default(),
            local_size: 4 << 30,
            remote_size: 4 << 30,
            lender_size: 8 << 30,
        }
    }
}

impl TestbedConfig {
    /// Set the delay injector's PERIOD (the paper's main knob).
    pub fn with_period(mut self, period: u64) -> TestbedConfig {
        self.fabric.delay = DelaySpec::Period(period);
        self
    }

    /// Replace the whole delay specification.
    pub fn with_delay(mut self, delay: DelaySpec) -> TestbedConfig {
        self.fabric.delay = delay;
        self
    }

    /// Select the lender's DRAM timing model (the bus the MCLN axis
    /// contends on). `Fixed` is the paper's calibration; `Banked`
    /// enables the row-buffer state machines.
    pub fn with_lender_dram(mut self, model: DramModel) -> TestbedConfig {
        self.lender.dram.model = model;
        self
    }

    /// Scaled-down testbed for fast tests (tiny caches).
    pub fn tiny() -> TestbedConfig {
        TestbedConfig {
            borrower: NodeConfig::tiny(),
            lender: NodeConfig::tiny(),
            local_size: 512 << 20,
            remote_size: 512 << 20,
            lender_size: 1 << 30,
            ..TestbedConfig::default()
        }
    }

    pub fn period(&self) -> Option<u64> {
        match self.fabric.delay {
            DelaySpec::Period(p) => Some(p),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_prototype_constants() {
        let c = TestbedConfig::default();
        assert_eq!(c.fabric.window, 128);
        assert_eq!(c.fabric.line_bytes, 128);
        assert_eq!(c.borrower.cache.capacity_bytes(), 120 << 20);
        assert_eq!(c.period(), Some(1), "vanilla prototype is PERIOD=1");
        // DESIGN §4: LLC hit 4 ns; local DRAM 120 ns at 140 GB/s.
        assert_eq!(c.borrower.timing.llc_hit, thymesim_sim::Dur::ns(4));
        assert_eq!(c.borrower.dram.latency, thymesim_sim::Dur::ns(120));
        assert_eq!(c.borrower.dram.bandwidth_bytes_per_sec, 140e9);
    }

    #[test]
    fn with_period_sets_the_knob() {
        let c = TestbedConfig::default().with_period(1000);
        assert_eq!(c.period(), Some(1000));
        let c2 = c.with_delay(DelaySpec::Piecewise(vec![(0, 1), (100, 50)]));
        assert_eq!(c2.period(), None);
    }
}
