//! # thymesim-mem
//!
//! The node memory subsystem: physical address map with a hot-plugged
//! remote window ([`addr`]), real byte storage ([`backing`]), a
//! set-associative write-back LLC ([`cache`]), bandwidth-shared DRAM
//! channels ([`dram`]), the combined timed hierarchy ([`system`]), and
//! simulated-memory allocation with typed views ([`alloc`]).
//!
//! The split between *data* and *time* is the crate's core idea: workloads
//! compute on genuine bytes (BFS results are verifiable, STREAM sums
//! check out) while every access's latency comes from the cache/DRAM/
//! fabric models. The [`system::RemoteBackend`] trait is the seam where
//! `thymesim-fabric` plugs in the disaggregated-memory NIC.
//!
//! ```
//! use thymesim_mem::*;
//! use thymesim_sim::Time;
//!
//! let map = AddressMap::new(1 << 20, 1 << 20, 128);
//! let mut sys = MemSystem::new(
//!     map,
//!     CacheConfig::tiny(),
//!     shared_dram(DramConfig::default()),
//!     SysTiming::default(),
//!     NoRemote, // no disaggregated memory on this node
//! );
//! let xs: SimVec<u64> = Arena::new(Addr(0x1000), 1 << 16).alloc_vec(8);
//! let t1 = xs.set(&mut sys, Time::ZERO, 3, 42);
//! let (v, t2) = xs.get(&mut sys, t1, 3);
//! assert_eq!(v, 42);
//! assert!(t2 > t1); // even an LLC hit takes time
//! ```

pub mod addr;
pub mod alloc;
pub mod backing;
pub mod cache;
pub mod dram;
pub mod dram_banked;
pub mod system;

pub use addr::{Addr, AddressMap, Region};
pub use alloc::{Arena, Scalar, SimVec};
pub use backing::Backing;
pub use cache::{Cache, CacheConfig, CacheStats, Lookup};
pub use dram::{shared as shared_dram, BusAccess, DramChannel, DramConfig, DramModel, SharedDram};
pub use dram_banked::{
    BankedDram, BankedDramConfig, DramCmd, DramCmdKind, DramRowStats, PagePolicy,
};
pub use system::{
    timed_accesses_total, LineTouch, MemStats, MemSystem, NoRemote, RemoteBackend, SysTiming,
};
