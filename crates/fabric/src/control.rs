//! The control plane: memory reservation, attach/detach.
//!
//! `libthymesisflow` "configures the FPGAs, and takes care of reserving the
//! memory at the lender node and hot-plugging it to the borrower node"
//! (§III-A). We model that sequence: reserve a span of lender memory,
//! discover the compute-side FPGA through gated configuration reads, then
//! map the reservation into the borrower's physical address space. At
//! extreme PERIOD the discovery reads blow the timeout and the FPGA "is no
//! longer detected" — the paper's PERIOD = 10000 failure.

use crate::engine::FabricEngine;
use crate::failure::Crash;
use crate::xlate::Segment;
use thymesim_sim::{Dur, Time};

/// A span of lender memory set aside for one borrower.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reservation {
    pub lender_base: u64,
    pub len: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReserveError {
    /// Not enough unreserved memory at the lender.
    InsufficientCapacity { requested: u64, available: u64 },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttachError {
    /// FPGA discovery exceeded its budget; the memory cannot be attached.
    DiscoveryTimeout { elapsed: Dur, budget: Dur },
    /// Already attached.
    AlreadyAttached,
}

/// Outcome of a successful attach.
#[derive(Clone, Copy, Debug)]
pub struct AttachReport {
    /// When the hot-plug completed.
    pub ready_at: Time,
    /// Wall time the discovery handshake took.
    pub discovery_time: Dur,
    /// Configuration reads performed.
    pub config_reads: u32,
}

/// Control-plane tunables.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct ControlConfig {
    /// Configuration-space reads needed to enumerate the FPGA and program
    /// the translation tables.
    pub discovery_reads: u32,
    /// Budget for the whole discovery; exceeding it means the device is
    /// reported absent.
    pub discovery_timeout: Dur,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            discovery_reads: 256,
            discovery_timeout: Dur::ms(2),
        }
    }
}

/// Reservation bookkeeping for one lender node.
pub struct ControlPlane {
    cfg: ControlConfig,
    lender_capacity: u64,
    reserved: u64,
}

impl ControlPlane {
    pub fn new(cfg: ControlConfig, lender_capacity: u64) -> ControlPlane {
        ControlPlane {
            cfg,
            lender_capacity,
            reserved: 0,
        }
    }

    pub fn config(&self) -> ControlConfig {
        self.cfg
    }

    pub fn available(&self) -> u64 {
        self.lender_capacity - self.reserved
    }

    /// Reserve `len` bytes of lender memory.
    pub fn reserve(&mut self, len: u64) -> Result<Reservation, ReserveError> {
        if len > self.available() {
            return Err(ReserveError::InsufficientCapacity {
                requested: len,
                available: self.available(),
            });
        }
        let res = Reservation {
            lender_base: self.reserved,
            len,
        };
        self.reserved += len;
        Ok(res)
    }

    /// Hot-plug `res` into the borrower's address space at `borrower_base`.
    ///
    /// Runs the discovery handshake through the (possibly delay-injected)
    /// fabric; on timeout the engine records an [`Crash::AttachTimeout`]
    /// and stays detached.
    pub fn attach(
        &self,
        engine: &mut FabricEngine,
        at: Time,
        borrower_base: u64,
        res: Reservation,
    ) -> Result<AttachReport, AttachError> {
        if engine.is_attached() {
            return Err(AttachError::AlreadyAttached);
        }
        let mut t = at;
        let budget = self.cfg.discovery_timeout;
        let deadline = at + budget;
        for done in 0..self.cfg.discovery_reads {
            t = engine.config_rtt(t);
            if t > deadline {
                let elapsed = t - at;
                engine
                    .health
                    .record_crash(Crash::AttachTimeout { elapsed, budget });
                let _ = done;
                return Err(AttachError::DiscoveryTimeout { elapsed, budget });
            }
        }
        engine.xlate.map(Segment {
            borrower_base,
            lender_base: res.lender_base,
            len: res.len,
        });
        engine.set_attached(true);
        Ok(AttachReport {
            ready_at: t,
            discovery_time: t - at,
            config_reads: self.cfg.discovery_reads,
        })
    }

    /// Unmap and detach.
    pub fn detach(&self, engine: &mut FabricEngine, borrower_base: u64) {
        engine.xlate.unmap(borrower_base);
        engine.set_attached(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DelaySpec, FabricConfig};
    use thymesim_mem::{shared_dram, Addr, DramConfig, RemoteBackend};

    fn engine(period: u64) -> FabricEngine {
        FabricEngine::new(
            FabricConfig {
                delay: DelaySpec::Period(period),
                ..FabricConfig::default()
            },
            shared_dram(DramConfig::default()),
        )
    }

    fn plane() -> ControlPlane {
        ControlPlane::new(ControlConfig::default(), 512 << 30)
    }

    #[test]
    fn reserve_and_release() {
        let mut cp = plane();
        let a = cp.reserve(1 << 30).unwrap();
        let b = cp.reserve(2 << 30).unwrap();
        assert_eq!(a.lender_base, 0);
        assert_eq!(b.lender_base, 1 << 30);
        assert_eq!(cp.available(), (512 - 3) << 30);
    }

    #[test]
    fn over_reservation_fails() {
        let mut cp = ControlPlane::new(ControlConfig::default(), 1 << 30);
        let err = cp.reserve(2 << 30).unwrap_err();
        match err {
            ReserveError::InsufficientCapacity {
                requested,
                available,
            } => {
                assert_eq!(requested, 2 << 30);
                assert_eq!(available, 1 << 30);
            }
        }
    }

    #[test]
    fn attach_succeeds_at_vanilla_and_period_1000() {
        for period in [1u64, 1000] {
            let mut e = engine(period);
            let mut cp = plane();
            let res = cp.reserve(1 << 30).unwrap();
            let report = cp
                .attach(&mut e, Time::ZERO, 1 << 40, res)
                .unwrap_or_else(|err| panic!("PERIOD={period}: attach failed: {err:?}"));
            assert!(e.is_attached());
            assert!(report.discovery_time < Dur::ms(2));
            assert_eq!(report.config_reads, 256);
            // The attached window is usable.
            let done = e.fetch_line(report.ready_at, Addr(1 << 40));
            assert!(done > report.ready_at);
        }
    }

    #[test]
    fn attach_times_out_at_period_10000() {
        let mut e = engine(10_000);
        let mut cp = plane();
        let res = cp.reserve(1 << 30).unwrap();
        let err = cp.attach(&mut e, Time::ZERO, 1 << 40, res).unwrap_err();
        match err {
            AttachError::DiscoveryTimeout { elapsed, budget } => {
                assert!(elapsed > budget);
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        assert!(!e.is_attached(), "failed attach must leave engine detached");
        assert!(
            matches!(e.health.crashed(), Some(Crash::AttachTimeout { .. })),
            "crash must be recorded"
        );
    }

    #[test]
    fn double_attach_rejected() {
        let mut e = engine(1);
        let mut cp = plane();
        let res = cp.reserve(1 << 30).unwrap();
        cp.attach(&mut e, Time::ZERO, 1 << 40, res).unwrap();
        let res2 = cp.reserve(1 << 30).unwrap();
        assert_eq!(
            cp.attach(&mut e, Time::ZERO, 1 << 41, res2).unwrap_err(),
            AttachError::AlreadyAttached
        );
    }

    #[test]
    fn detach_unmaps() {
        let mut e = engine(1);
        let mut cp = plane();
        let res = cp.reserve(1 << 30).unwrap();
        cp.attach(&mut e, Time::ZERO, 1 << 40, res).unwrap();
        cp.detach(&mut e, 1 << 40);
        assert!(!e.is_attached());
        assert!(e.xlate.translate(Addr(1 << 40)).is_err());
    }

    #[test]
    fn discovery_time_scales_with_period() {
        let mut fast = engine(1);
        let mut slow = engine(1000);
        let cp = plane();
        let mut cp2 = plane();
        let res = cp2.reserve(1 << 30).unwrap();
        let r1 = cp.attach(&mut fast, Time::ZERO, 1 << 40, res).unwrap();
        let r2 = cp.attach(&mut slow, Time::ZERO, 1 << 40, res).unwrap();
        assert!(
            r2.discovery_time > r1.discovery_time * 2,
            "PERIOD=1000 discovery ({}) should dwarf vanilla ({})",
            r2.discovery_time,
            r1.discovery_time
        );
    }
}
