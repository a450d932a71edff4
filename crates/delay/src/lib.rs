//! # thymesim-delay
//!
//! The paper's delay-injection framework, reproduced at two fidelities:
//!
//! * [`gate::CycleDelayGate`] — the cycle-accurate AXI4-Stream module
//!   implementing equation (1),
//!   `READY_NEW = READY_OLD & (COUNTER % PERIOD == 0)`, exactly as the
//!   FPGA block between the NIC's routing and multiplexer stages;
//! * [`model::AnalyticGate`] — an O(1) transaction-level model of the same
//!   behaviour, property-tested to produce identical grant cycles, used on
//!   the workload hot path;
//! * [`dist`] — the paper's future-work extension: distribution-driven
//!   per-message delay (uniform / exponential / Pareto / trace replay);
//! * [`gate::PiecewisePeriod`] — PERIOD schedules that change during a run
//!   (§V: latency variation at short timescales).
//!
//! ```
//! use thymesim_delay::{AnalyticGate, ConstPeriod};
//! use thymesim_sim::{Clock, Time};
//!
//! // One transaction per 100 FPGA cycles (400 ns at 250 MHz).
//! let mut gate = AnalyticGate::new(ConstPeriod(100), Clock::mhz(250));
//! let first = gate.pass_one(Time::ZERO);
//! let second = gate.pass_one(Time::ZERO); // queued behind the first
//! assert_eq!((second - first), thymesim_sim::Dur::ns(400));
//! ```

pub mod dist;
pub mod gate;
pub mod model;

pub use dist::{DelayDist, DistGate};
pub use gate::{ConstPeriod, CycleDelayGate, PeriodSource, PiecewisePeriod};
pub use model::AnalyticGate;
