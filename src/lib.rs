//! # thymesim
//!
//! A characterization framework for **hardware memory disaggregation under
//! delay and contention** — a from-scratch Rust reproduction of the IPPS'22
//! paper of the same name (Patke et al.), which studied the open-source
//! ThymesisFlow POWER9/OpenCAPI prototype with an FPGA delay-injection
//! module.
//!
//! The hardware testbed is replaced by a deterministic discrete-event
//! simulation of the whole stack (cache hierarchy, AXI4-Stream NIC
//! pipelines, delay gate, 100 Gb/s link, lender memory bus, control plane),
//! and the paper's workloads — STREAM, a Redis-like KV store under a
//! memtier-style client, and Graph500 BFS/SSSP — run *for real* on top of
//! it: only time is simulated, the data movement and results are genuine.
//!
//! ## Quickstart
//!
//! ```
//! use thymesim::prelude::*;
//!
//! // Build a two-node testbed (borrower + lender) with a delay gate at
//! // PERIOD = 50 FPGA cycles, and run STREAM out of disaggregated memory.
//! let config = TestbedConfig::tiny().with_period(50);
//! let mut stream = StreamConfig::tiny();
//! stream.elements = 16_384; // doc-test scale
//! let report = run_stream_on_testbed(&config, &stream);
//! assert!(report.triad.bandwidth_gib_s > 0.0);
//! assert!(report.miss_latency_mean > thymesim::sim::Dur::us(10));
//! ```
//!
//! See the `examples/` directory for full scenarios and `thymesim-bench`'s
//! `repro` binary for regenerating every table and figure of the paper
//! (plus the beyond-rack extension experiments: switched-fabric
//! congestion, memory pooling, rack topologies, page-migration QoS,
//! calibration sensitivity, and contention-aware placement).
//!
//! Reliability tooling: link outages with repair, machine-check monitoring,
//! the attach timeout, and piecewise / distribution-driven delay
//! schedules. Every run is exactly
//! reproducible from its configuration and seeds.

pub use thymesim_axi as axi;
pub use thymesim_core as core;
pub use thymesim_delay as delay;
pub use thymesim_fabric as fabric;
pub use thymesim_mem as mem;
pub use thymesim_net as net;
pub use thymesim_serve as serve;
pub use thymesim_sim as sim;
pub use thymesim_workloads as workloads;

/// The most common entry points, re-exported flat.
pub mod prelude {
    pub use thymesim_core::prelude::*;
}
