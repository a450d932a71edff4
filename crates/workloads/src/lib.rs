//! # thymesim-workloads
//!
//! The paper's three workloads, implemented as timing-annotated *real*
//! programs over `thymesim-mem`:
//!
//! * [`stream`] — STREAM's copy/scale/add/triad kernels (§IV-A/B),
//!   resumable per cache line so instances can contend (§IV-E);
//! * [`kv`] — a Redis-like hash-table store under a memtier-style
//!   closed-loop client with explicit network-stack costs (§IV-D);
//! * [`graph500`] — Kronecker generation, timed BFS and delta-stepping
//!   SSSP with Graph500-style validation (§IV-C/D);
//! * [`mod@cc`] / [`mod@bc`] / [`mod@tc`] — GAP-style graph kernels (connected
//!   components, betweenness centrality, triangle counting), each with a
//!   distinct remote-access signature and a host-memory differential
//!   oracle;
//! * [`issue`] — `Core`, the one issue path every kernel times its
//!   accesses through: an MSHR window (a core's MLP, the knob that
//!   separates prefetchable streaming from dependent pointer chasing)
//!   plus the CPU clock.

pub mod bc;
pub mod cc;
pub mod graph500;
pub mod issue;
pub mod kv;
pub mod pagerank;
pub mod probe;
pub mod stream;
pub mod tc;
pub mod trace;

pub use bc::{bc, BcConfig, BcReport, BcState};
pub use cc::{cc, reference_components, CcConfig, CcReport};
pub use graph500::{CsrLayout, Graph500Config, Graph500Report};
pub use issue::{IssueRing, KeyDist, KeySampler};
pub use kv::{KvConfig, KvReport, KvStore};
pub use pagerank::{pagerank, PageRankConfig, PageRankReport, PageRankState};
pub use probe::{ChaseTable, ProbeConfig, ProbeReport};
pub use stream::{Kernel, StreamArrays, StreamConfig, StreamProcess, StreamReport, KERNELS};
pub use tc::{reference_triangles, tc, TcConfig, TcReport};
pub use trace::{
    parse_trace, random_trace, replay, strided_trace, ReplayConfig, ReplayReport, TraceOp,
};
