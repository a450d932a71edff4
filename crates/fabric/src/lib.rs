//! # thymesim-fabric
//!
//! The ThymesisFlow-style hardware disaggregation fabric:
//!
//! * [`packet`] — the NIC's network encapsulation (header, checksum, beat
//!   accounting);
//! * [`xlate`] — borrower→lender address translation;
//! * [`credit`] — the bounded outstanding-transaction window that pins the
//!   bandwidth-delay product;
//! * [`engine`] — the transaction-level borrower-NIC → wire → lender-NIC
//!   path with the delay gate at the paper's exact insertion point;
//! * [`pipeline`] — the cycle-accurate AXI egress (routing → delay gate →
//!   TX mux) used to validate the engine;
//! * [`control`] — reservation, FPGA discovery, hot-plug attach/detach
//!   (including the PERIOD=10000 discovery-timeout failure);
//! * [`failure`] — machine-check monitoring and link-outage injection.

//! ```
//! use thymesim_fabric::*;
//! use thymesim_mem::{shared_dram, Addr, DramConfig, RemoteBackend};
//! use thymesim_sim::Time;
//!
//! // Reserve at the lender, attach with delay injection, fetch a line.
//! let mut engine = FabricEngine::new(
//!     FabricConfig { delay: DelaySpec::Period(100), ..FabricConfig::default() },
//!     shared_dram(DramConfig::default()),
//! );
//! let mut cp = ControlPlane::new(ControlConfig::default(), 8 << 30);
//! let res = cp.reserve(1 << 30).unwrap();
//! let report = cp.attach(&mut engine, Time::ZERO, 0, res).unwrap();
//! let done = engine.fetch_line(report.ready_at, Addr(4096));
//! assert!(done > report.ready_at);
//! ```

pub mod control;
pub mod credit;
pub mod engine;
pub mod failure;
pub mod packet;
pub mod pipeline;
#[cfg(test)]
mod reference;
pub mod xlate;

pub use control::{
    AttachError, AttachReport, ControlConfig, ControlPlane, Reservation, ReserveError,
};
pub use credit::CreditWindow;
pub use engine::{DelaySpec, FabricConfig, FabricEngine, FabricStats};
pub use failure::{Crash, HealthMonitor, OutagePlan};
pub use packet::{DecodeError, Packet, PacketKind, BEAT_BYTES, HEADER_BYTES};
pub use pipeline::{EgressPipeline, IngressPipeline, DEST_CTRL, DEST_DATA, DEST_FILL, DEST_MMIO};
pub use thymesim_net::{shared_link, SharedLink};
pub use xlate::{Segment, TranslationFault, XlateTable};
