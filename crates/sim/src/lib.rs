//! # thymesim-sim
//!
//! Discrete-event simulation kernel underlying the thymesim stack:
//!
//! * [`time`] — integer-picosecond virtual time and clock domains;
//! * [`queue`] — deterministic future-event list with FIFO tie-breaking;
//! * [`process`] — virtual-time interleaving of workload instances;
//! * [`rng`] — self-contained deterministic generators (SplitMix64,
//!   xoshiro256**) so results are stable across platforms and crate
//!   versions;
//! * [`stats`] — log-linear histograms and least-squares fits for the
//!   validation experiments.
//!
//! Everything in thymesim that advances "time" goes through these types;
//! no component reads wall-clock time, so every experiment is exactly
//! reproducible from its seed and configuration.

pub mod pool;
pub mod process;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use pool::{default_jobs, ordered_map};
pub use process::{run as run_processes, Process, RunStats, Step};
pub use queue::EventQueue;
pub use rng::{SplitMix64, Xoshiro256};
pub use stats::{linear_fit, Histogram, LinearFit};
pub use time::{Clock, Dur, Time};
