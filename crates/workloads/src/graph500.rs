//! The Graph500 benchmark: Kronecker graph generation, timed BFS and
//! SSSP kernels, and result validation.
//!
//! The paper runs problem scale 20 with edgefactor 16 (≈1 GB working set)
//! and reports job completion time. Graph traversal is the antithesis of
//! STREAM: data-dependent, low-locality reads with little prefetchability,
//! which is why its degradation under injected delay is catastrophic
//! (Table I: ×2209 at PERIOD=1000) while Redis barely notices.
//!
//! The kernels run *for real*: BFS produces a parent tree and SSSP a
//! distance array, both validated against untimed host-side reference
//! computations.
//!
//! ## The CSR accessor seam
//!
//! All kernels reach adjacency through one reader, [`CsrGraph::row`],
//! which decodes a row from a [`RowCursor`] ([`CsrGraph::cursor`] at the
//! row start, [`CsrGraph::seek`] past a value) to its end, instead of
//! indexing a raw array. It hands out each neighbour and the address to
//! time it at, which lets two storage layouts coexist behind one type:
//!
//! * **Flat** — one `u32` per directed edge, the classic CSR.
//! * **Compressed** — per-row delta-encoded LEB128 varints (byte-aligned
//!   runs). Rows are sorted ascending, so deltas are non-negative and
//!   most fit one byte; scale 22–24 graphs fit the simulated lender
//!   footprint that a flat CSR would overflow.
//!
//! Every graph is built by [`build_from_edges`] from an edge list
//! ([`kronecker_edges`] or [`degree_ordered_edges`]) into one arena or
//! into the local and remote arenas a [`GraphPlacement`] names
//! ([`CsrArenas`]).
//!
//! Adjacency rows are kept **sorted** in both layouts: sorting is what
//! makes delta encoding valid and what the triangle-counting kernel's
//! ordered wedge merges require. Every timed edge access issues exactly
//! one memory access in either layout (at the entry's first encoded byte
//! when compressed), so the six-stage read anatomy and per-phase
//! attribution apply unchanged — the compressed layout simply has ~4–8×
//! better line locality, which is the point of compression on real
//! disaggregated hardware.

use crate::issue::Core;
use thymesim_mem::{Addr, Arena, MemSystem, RemoteBackend, Scalar, SimVec};
use thymesim_sim::{Dur, Time, Xoshiro256};

/// Kronecker initiator probabilities from the Graph500 specification.
const KRON_A: f64 = 0.57;
const KRON_B: f64 = 0.19;
const KRON_C: f64 = 0.19;

/// Sentinel for "no parent / unreached".
pub const NO_PARENT: u32 = u32::MAX;
/// Sentinel distance.
pub const INF: u32 = u32::MAX;

/// Benchmark configuration.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct Graph500Config {
    /// log2 of the vertex count (paper: 20).
    pub scale: u32,
    /// Edges per vertex (paper: 16).
    pub edgefactor: u32,
    /// Logical cores traversing in parallel (the AC922 exposes 128 SMT
    /// threads; the reference sequential code uses 1).
    pub cores: u32,
    /// Outstanding accesses per core: small — traversal is data-dependent.
    pub mlp_per_core: usize,
    /// BFS/SSSP roots per run (Graph500 runs 64; we default lower and
    /// scale in the harness).
    pub roots: u32,
    /// RNG seed for generation and root selection.
    pub seed: u64,
    /// CPU work per traversed edge (BFS).
    pub cpu_per_edge: Dur,
    /// Extra CPU work per relaxation (SSSP does arithmetic + compare).
    pub cpu_per_relax: Dur,
    /// Maximum edge weight for SSSP (uniform in `1..=max_weight`).
    pub max_weight: u32,
    /// Delta-stepping bucket width.
    pub delta: u32,
}

impl Default for Graph500Config {
    fn default() -> Self {
        Graph500Config {
            scale: 20,
            edgefactor: 16,
            cores: 128,
            mlp_per_core: 2,
            roots: 4,
            seed: 0x6261_7265,
            cpu_per_edge: Dur::ns(2),
            cpu_per_relax: Dur::ns(8),
            max_weight: 255,
            delta: 32,
        }
    }
}

impl Graph500Config {
    /// The fully threaded configuration used for the Table I extreme-delay
    /// runs: 128 SMT contexts keep the NIC window saturated.
    pub fn parallel() -> Graph500Config {
        Graph500Config::default()
    }

    /// The moderate-concurrency reference configuration used for the
    /// Fig. 5 sweep (see DESIGN.md §5 on the two Graph500 operating
    /// points implied by the paper).
    pub fn reference() -> Graph500Config {
        Graph500Config {
            cores: 4,
            mlp_per_core: 2,
            ..Graph500Config::default()
        }
    }

    /// Small instance for tests.
    pub fn tiny() -> Graph500Config {
        Graph500Config {
            scale: 10,
            edgefactor: 8,
            cores: 4,
            roots: 2,
            ..Graph500Config::default()
        }
    }

    pub fn vertices(&self) -> u64 {
        1u64 << self.scale
    }

    pub fn edges(&self) -> u64 {
        self.vertices() * self.edgefactor as u64
    }
}

/// Adjacency storage layout behind the `CsrGraph` accessor seam.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub enum CsrLayout {
    /// One `u32` per directed edge.
    Flat,
    /// Per-row delta-encoded byte-aligned LEB128 varints.
    Compressed,
}

/// The adjacency array in one of its two layouts.
enum AdjStorage {
    Flat {
        adj: SimVec<u32>,
    },
    Compressed {
        /// Byte offset of each row's first varint (n+1 entries).
        row_off: SimVec<u64>,
        /// The varint byte stream.
        bytes: SimVec<u8>,
        /// Total encoded length in bytes.
        encoded_len: u64,
    },
}

/// A position in one adjacency row: the next entry's index (flat) or
/// the byte offset of its varint (compressed), the position ending the
/// row, and the value the varint's delta is taken from (0 at the row
/// start). Rows are sorted, so the entries above any value are one
/// suffix, and a cursor at its start is all a kernel keeps to revisit it
/// without decoding the prefix again.
#[derive(Clone, Copy, Debug)]
pub struct RowCursor {
    pos: u64,
    end: u64,
    base: u32,
}

impl RowCursor {
    /// Decode the LEB128 delta varint at the cursor and advance past it:
    /// the entry's value and the address of its first byte.
    #[inline]
    fn next_varint<R: RemoteBackend>(
        &mut self,
        sys: &MemSystem<R>,
        bytes: &SimVec<u8>,
    ) -> (u32, Addr) {
        let at = bytes.addr(self.pos);
        let (mut delta, mut shift) = (0u32, 0u32);
        loop {
            let b = bytes.get_raw(sys, self.pos);
            self.pos += 1;
            delta |= ((b & 0x7f) as u32) << shift;
            if b & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        self.base += delta;
        (self.base, at)
    }
}

/// The graph in CSR form, living in simulated memory. Adjacency rows are
/// sorted ascending in both layouts (the seam invariant delta encoding
/// and TC's ordered merges rely on).
pub struct CsrGraph {
    pub n: u64,
    /// Directed entry count (2 × undirected edges).
    pub m2: u64,
    pub xadj: SimVec<u64>,
    adj: AdjStorage,
    /// Edge weights (flat layouts only; compressed graphs are unweighted).
    weights: Option<SimVec<u32>>,
}

impl CsrGraph {
    /// Simulated bytes occupied by the adjacency structure (excluding
    /// `xadj`, which both layouts share): the compression headline.
    pub fn adjacency_bytes(&self) -> u64 {
        match &self.adj {
            AdjStorage::Flat { .. } => self.m2 * 4,
            AdjStorage::Compressed { encoded_len, .. } => encoded_len + (self.n + 1) * 8,
        }
    }

    /// Untimed row bounds `[lo, hi)` into the directed edge index space.
    pub fn row_bounds_raw<R: RemoteBackend>(&self, sys: &MemSystem<R>, v: u64) -> (u64, u64) {
        (self.xadj.get_raw(sys, v), self.xadj.get_raw(sys, v + 1))
    }

    /// Cursor at row `v`'s first entry.
    pub fn cursor<R: RemoteBackend>(&self, sys: &MemSystem<R>, v: u64) -> RowCursor {
        let (pos, end) = match &self.adj {
            AdjStorage::Flat { .. } => self.row_bounds_raw(sys, v),
            AdjStorage::Compressed { row_off, .. } => {
                (row_off.get_raw(sys, v), row_off.get_raw(sys, v + 1))
            }
        };
        RowCursor { pos, end, base: 0 }
    }

    /// Cursor at row `v`'s first entry `>= min` (the row end if none).
    /// Untimed, O(deg): a kernel that revisits a row's suffix seeks once
    /// and keeps the cursor.
    pub fn seek<R: RemoteBackend>(&self, sys: &MemSystem<R>, v: u64, min: u32) -> RowCursor {
        let mut cur = self.cursor(sys, v);
        match &self.adj {
            AdjStorage::Flat { adj } => {
                while cur.pos < cur.end && adj.get_raw(sys, cur.pos) < min {
                    cur.pos += 1;
                }
            }
            AdjStorage::Compressed { bytes, .. } => {
                while cur.pos < cur.end {
                    let mut next = cur;
                    if next.next_varint(sys, bytes).0 >= min {
                        break;
                    }
                    cur = next;
                }
            }
        }
        cur
    }

    /// The one row reader: untimed decode from `cur` to its row's end into
    /// `out` (cleared first), each neighbour in order with the address a
    /// timed read of it lands on — the entry itself when flat, its first
    /// encoded byte when compressed. The caller issues the accesses (or
    /// not, for references and validation).
    pub fn row<R: RemoteBackend>(
        &self,
        sys: &MemSystem<R>,
        mut cur: RowCursor,
        out: &mut Vec<(u32, Addr)>,
    ) {
        out.clear();
        match &self.adj {
            AdjStorage::Flat { adj } => {
                out.extend((cur.pos..cur.end).map(|e| (adj.get_raw(sys, e), adj.addr(e))));
            }
            AdjStorage::Compressed { bytes, .. } => {
                while cur.pos < cur.end {
                    out.push(cur.next_varint(sys, bytes));
                }
            }
        }
    }

    /// Weight of directed edge `e` and its address, untimed like
    /// [`CsrGraph::row`]. Panics on weightless (compressed) graphs —
    /// SSSP requires a flat weighted build.
    pub fn weight<R: RemoteBackend>(&self, sys: &MemSystem<R>, e: u64) -> (u32, Addr) {
        let w = self
            .weights
            .as_ref()
            .expect("graph built without weights (compressed layout); SSSP needs a flat build");
        (w.get_raw(sys, e), w.addr(e))
    }
}

/// Append `x` as a LEB128 varint.
fn write_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let b = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

/// Generate a Kronecker edge list per the Graph500 reference (including
/// the vertex and edge permutations that de-correlate ids from degrees).
pub fn kronecker_edges(cfg: &Graph500Config) -> Vec<(u32, u32)> {
    let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
    let n = cfg.vertices();
    let m = cfg.edges();
    let ab = KRON_A + KRON_B;
    let c_norm = KRON_C / (1.0 - ab);
    let a_norm = KRON_A / ab;

    let mut edges = Vec::with_capacity(m as usize);
    for _ in 0..m {
        let (mut i, mut j) = (0u64, 0u64);
        for b in 0..cfg.scale {
            let ii = rng.chance(ab);
            let jj = if ii {
                rng.chance(a_norm)
            } else {
                rng.chance(c_norm)
            };
            // The spec's noise-free quadrant walk: high bit first.
            let bit = 1u64 << (cfg.scale - 1 - b);
            if !ii {
                i |= bit;
            }
            if !jj {
                j |= bit;
            }
        }
        edges.push((i as u32, j as u32));
    }

    // Permute vertex labels.
    let mut perm: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut perm);
    for e in edges.iter_mut() {
        *e = (perm[e.0 as usize], perm[e.1 as usize]);
    }
    // Permute edge order.
    rng.shuffle(&mut edges);
    edges
}

/// The Kronecker edge list relabelled by ascending `(degree, id)` rank —
/// the standard triangle-counting preparation: orienting edges from
/// low-rank to high-rank leaves hub vertices with near-empty oriented
/// tails, bounding wedge-merge work at ~O(m^1.5). Triangle count is
/// invariant under relabelling.
pub fn degree_ordered_edges(cfg: &Graph500Config) -> Vec<(u32, u32)> {
    let edges = kronecker_edges(cfg);
    let n = cfg.vertices() as usize;
    let mut degree = vec![0u64; n];
    for &(u, v) in &edges {
        degree[u as usize] += 1;
        degree[v as usize] += 1;
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&v| (degree[v as usize], v));
    let mut rank = vec![0u32; n];
    for (r, &v) in order.iter().enumerate() {
        rank[v as usize] = r as u32;
    }
    edges
        .into_iter()
        .map(|(u, v)| (rank[u as usize], rank[v as usize]))
        .collect()
}

/// Which CSR array, for per-array placement policies (page-migration
/// studies put the hot, small arrays in local memory).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphArray {
    Xadj,
    Adj,
    Weights,
    /// The output array (BFS parent tree / SSSP distances).
    Out,
}

/// Per-array placement: `true` = remote (disaggregated) memory.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct GraphPlacement {
    pub xadj_remote: bool,
    pub adj_remote: bool,
    pub weights_remote: bool,
    pub out_remote: bool,
}

impl GraphPlacement {
    pub fn all_remote() -> GraphPlacement {
        GraphPlacement {
            xadj_remote: true,
            adj_remote: true,
            weights_remote: true,
            out_remote: true,
        }
    }
    pub fn all_local() -> GraphPlacement {
        GraphPlacement {
            xadj_remote: false,
            adj_remote: false,
            weights_remote: false,
            out_remote: false,
        }
    }
    pub fn remote(self, a: GraphArray) -> bool {
        match a {
            GraphArray::Xadj => self.xadj_remote,
            GraphArray::Adj => self.adj_remote,
            GraphArray::Weights => self.weights_remote,
            GraphArray::Out => self.out_remote,
        }
    }
}

/// Host-side CSR staging area: counted, filled, then row-sorted before
/// upload into simulated memory in either layout.
struct HostCsr {
    xadj: Vec<u64>,
    adj: Vec<u32>,
    weights: Vec<u32>,
}

/// Build the host CSR from an edge list, preserving the historical
/// weight-RNG semantics (one weight per undirected edge, both
/// directions identical), then sort each row by `(neighbour, weight)`.
fn host_csr(cfg: &Graph500Config, edges: &[(u32, u32)]) -> HostCsr {
    let n = cfg.vertices() as usize;
    let m2 = edges.len() * 2;
    let mut degree = vec![0u64; n];
    for &(u, v) in edges {
        degree[u as usize] += 1;
        degree[v as usize] += 1;
    }
    let mut xadj = vec![0u64; n + 1];
    for v in 0..n {
        xadj[v + 1] = xadj[v] + degree[v];
    }
    let mut adj = vec![0u32; m2];
    let mut weights = vec![0u32; m2];
    let mut cursor: Vec<u64> = xadj[..n].to_vec();
    let mut wrng = Xoshiro256::seed_from_u64(cfg.seed ^ 0x057A_71C5);
    for &(u, v) in edges {
        let w = 1 + wrng.next_u32() % cfg.max_weight;
        let s1 = cursor[u as usize] as usize;
        cursor[u as usize] += 1;
        adj[s1] = v;
        weights[s1] = w;
        let s2 = cursor[v as usize] as usize;
        cursor[v as usize] += 1;
        adj[s2] = u;
        weights[s2] = w;
    }
    // Sorted rows are the seam invariant: delta encoding needs
    // non-negative deltas and TC needs ordered merges. Sorting the
    // (neighbour, weight) pair keeps duplicate edges deterministic.
    for v in 0..n {
        let (lo, hi) = (xadj[v] as usize, xadj[v + 1] as usize);
        let mut pairs: Vec<(u32, u32)> = adj[lo..hi]
            .iter()
            .copied()
            .zip(weights[lo..hi].iter().copied())
            .collect();
        pairs.sort_unstable();
        for (k, (a, w)) in pairs.into_iter().enumerate() {
            adj[lo + k] = a;
            weights[lo + k] = w;
        }
    }
    HostCsr { xadj, adj, weights }
}

/// Delta-varint encode all rows of a host CSR, returning the per-row
/// byte offsets (n+1 entries) and the byte stream.
fn encode_rows(host: &HostCsr) -> (Vec<u64>, Vec<u8>) {
    let n = host.xadj.len() - 1;
    let mut row_off = Vec::with_capacity(n + 1);
    let mut bytes = Vec::new();
    for v in 0..n {
        row_off.push(bytes.len() as u64);
        let (lo, hi) = (host.xadj[v] as usize, host.xadj[v + 1] as usize);
        let mut prev = 0u32;
        for (k, &w) in host.adj[lo..hi].iter().enumerate() {
            let delta = if k == 0 { w } else { w - prev };
            write_varint(&mut bytes, delta as u64);
            prev = w;
        }
    }
    row_off.push(bytes.len() as u64);
    (row_off, bytes)
}

fn upload<R: RemoteBackend, T: Scalar>(sys: &mut MemSystem<R>, dst: &SimVec<T>, src: &[T]) {
    for (i, &x) in src.iter().enumerate() {
        dst.set_raw(sys, i as u64, x);
    }
}

/// Where a CSR's arrays are allocated: all in one arena, or each in the
/// local or remote arena its placement names.
pub enum CsrArenas<'a> {
    One(&'a mut Arena),
    Placed {
        local: &'a mut Arena,
        remote: &'a mut Arena,
        placement: GraphPlacement,
    },
}

impl CsrArenas<'_> {
    /// Allocate `len` elements of `array` (a compressed row's offsets and
    /// bytes are both [`GraphArray::Adj`]).
    pub fn alloc<T: Scalar>(&mut self, array: GraphArray, len: u64) -> SimVec<T> {
        match self {
            CsrArenas::One(arena) => arena.alloc_vec(len),
            CsrArenas::Placed {
                local,
                remote,
                placement,
            } => {
                if placement.remote(array) {
                    remote.alloc_vec(len)
                } else {
                    local.alloc_vec(len)
                }
            }
        }
    }
}

/// Build a CSR from an edge list in the requested layout (untimed —
/// graph construction is not part of the timed kernels). Allocates
/// `xadj`, then the adjacency, then the weights (flat; compressed builds
/// are unweighted). Callers pass [`kronecker_edges`] or, for triangle
/// counting's oriented wedge merges, [`degree_ordered_edges`].
pub fn build_from_edges<R: RemoteBackend>(
    cfg: &Graph500Config,
    sys: &mut MemSystem<R>,
    arenas: &mut CsrArenas,
    layout: CsrLayout,
    edges: &[(u32, u32)],
) -> CsrGraph {
    let host = host_csr(cfg, edges);
    let n = cfg.vertices();
    let m2 = edges.len() as u64 * 2;
    let xadj = arenas.alloc(GraphArray::Xadj, n + 1);
    upload(sys, &xadj, &host.xadj);
    let (adj, weights) = match layout {
        CsrLayout::Flat => {
            let adj = arenas.alloc(GraphArray::Adj, m2.max(1));
            let weights = arenas.alloc(GraphArray::Weights, m2.max(1));
            upload(sys, &adj, &host.adj);
            upload(sys, &weights, &host.weights);
            (AdjStorage::Flat { adj }, Some(weights))
        }
        CsrLayout::Compressed => {
            let (row_off_h, bytes_h) = encode_rows(&host);
            let encoded_len = bytes_h.len() as u64;
            let row_off = arenas.alloc(GraphArray::Adj, n + 1);
            upload(sys, &row_off, &row_off_h);
            let bytes = arenas.alloc(GraphArray::Adj, encoded_len.max(1));
            upload(sys, &bytes, &bytes_h);
            let adj = AdjStorage::Compressed {
                row_off,
                bytes,
                encoded_len,
            };
            (adj, None)
        }
    };
    CsrGraph {
        n,
        m2,
        xadj,
        adj,
        weights,
    }
}

/// Build the flat, weighted Kronecker CSR in one arena.
pub fn build_csr<R: RemoteBackend>(
    cfg: &Graph500Config,
    sys: &mut MemSystem<R>,
    arena: &mut Arena,
) -> CsrGraph {
    let mut one = CsrArenas::One(arena);
    build_from_edges(cfg, sys, &mut one, CsrLayout::Flat, &kronecker_edges(cfg))
}

/// Pick `roots` distinct vertices with non-zero degree (Graph500 rule).
pub fn pick_roots<R: RemoteBackend>(
    cfg: &Graph500Config,
    sys: &MemSystem<R>,
    g: &CsrGraph,
) -> Vec<u32> {
    let mut rng = Xoshiro256::seed_from_u64(cfg.seed ^ 0x0070_0075);
    let mut roots = Vec::new();
    let mut guard = 0;
    while roots.len() < cfg.roots as usize {
        guard += 1;
        assert!(
            guard < 1_000_000,
            "could not find enough non-isolated roots"
        );
        let v = rng.below(g.n) as u32;
        let (lo, hi) = g.row_bounds_raw(sys, v as u64);
        if hi > lo && !roots.contains(&v) {
            roots.push(v);
        }
    }
    roots
}

/// Per-run kernel outcome.
#[derive(Clone, Debug)]
pub struct TraversalRun {
    pub root: u32,
    pub elapsed: Dur,
    pub edges_traversed: u64,
    pub reached: u64,
}

/// Aggregate report for a set of roots.
#[derive(Clone, Debug)]
pub struct Graph500Report {
    pub runs: Vec<TraversalRun>,
    /// Sum of per-root kernel times — the job-completion-time metric.
    pub total_time: Dur,
    /// Traversed edges per second (Graph500's TEPS), harmonic style.
    pub mean_teps: f64,
    pub validated: bool,
}

impl Graph500Report {
    pub fn from_runs(runs: Vec<TraversalRun>, validated: bool) -> Graph500Report {
        let total: Dur = runs.iter().map(|r| r.elapsed).sum();
        let edges: u64 = runs.iter().map(|r| r.edges_traversed).sum();
        Graph500Report {
            mean_teps: if total == Dur::ZERO {
                0.0
            } else {
                edges as f64 / total.as_secs_f64()
            },
            total_time: total,
            runs,
            validated,
        }
    }
}

/// Edges per work item in BFS and SSSP, as in the reference OpenMP code:
/// hub adjacency lists are chunked across cores (one adj cache line per
/// chunk), or a single heavy-tailed hub would serialize a whole level.
const EDGE_CHUNK: usize = 32;

/// The gang of logical cores traversing a frontier in lockstep levels.
struct Gang {
    cores: Vec<Core>,
    cpu_per_edge: Dur,
}

impl Gang {
    fn new(cfg: &Graph500Config, start: Time, cpu_per_edge: Dur) -> Gang {
        Gang {
            cores: (0..cfg.cores)
                .map(|_| Core::new(cfg.mlp_per_core, start))
                .collect(),
            cpu_per_edge,
        }
    }

    /// One timed access on core `c`. Graph500's rule: every access, hit
    /// or miss, holds a slot of the core's window until it completes.
    #[inline]
    fn access<R: RemoteBackend>(
        &mut self,
        c: usize,
        sys: &mut MemSystem<R>,
        addr: Addr,
        write: bool,
    ) {
        let core = &mut self.cores[c];
        let at = core.slot();
        core.hold(sys.access(at, addr, write));
        core.retire(at, self.cpu_per_edge);
    }

    /// The least-loaded core — work-stealing-style balance, essential
    /// because Kronecker degrees are heavy-tailed (a hub vertex would
    /// serialize a whole level under round-robin assignment).
    fn pick_core(&self) -> usize {
        let mut best = 0;
        let mut best_t = self.cores[0].now();
        for (c, core) in self.cores.iter().enumerate().skip(1) {
            let t = core.now();
            if t < best_t {
                best_t = t;
                best = c;
            }
        }
        best
    }

    /// Level barrier: all cores synchronize to the slowest.
    fn barrier(&mut self) -> Time {
        let t = self.cores.iter().fold(Time::ZERO, |t, c| t.max2(c.end()));
        for c in &mut self.cores {
            c.reset(t);
        }
        t
    }
}

/// Timed level-synchronous top-down BFS from `root`.
pub fn bfs<R: RemoteBackend>(
    cfg: &Graph500Config,
    sys: &mut MemSystem<R>,
    g: &CsrGraph,
    parent: &SimVec<u32>,
    root: u32,
    start: Time,
) -> TraversalRun {
    for v in 0..g.n {
        parent.set_raw(sys, v, NO_PARENT);
    }
    let mut gang = Gang::new(cfg, start, cfg.cpu_per_edge);

    parent.set_raw(sys, root as u64, root);
    let mut frontier: Vec<u32> = vec![root];
    let mut edges_traversed = 0u64;
    let mut reached = 1u64;
    let mut end = start;
    let mut level = 0u64;
    let mut row = Vec::new();

    while !frontier.is_empty() {
        // Phase marker opens at level *start* so every access of the
        // level attributes to it; the span below closes at the barrier.
        thymesim_telemetry::phase_begin("bfs.level", Some(level));
        let mut next: Vec<u32> = Vec::new();
        for &v in frontier.iter() {
            let c = gang.pick_core();
            // Row bounds: two sequential u64 reads (usually one line).
            gang.access(c, sys, g.xadj.addr(v as u64), false);
            gang.access(c, sys, g.xadj.addr(v as u64 + 1), false);
            g.row(sys, g.cursor(sys, v as u64), &mut row);
            for chunk in row.chunks(EDGE_CHUNK) {
                let c = gang.pick_core();
                for &(w, wa) in chunk {
                    edges_traversed += 1;
                    gang.access(c, sys, wa, false);
                    // Check-and-claim the neighbour (read + cond. write).
                    gang.access(c, sys, parent.addr(w as u64), false);
                    if parent.get_raw(sys, w as u64) == NO_PARENT {
                        gang.access(c, sys, parent.addr(w as u64), true);
                        parent.set_raw(sys, w as u64, v);
                        reached += 1;
                        next.push(w);
                    }
                }
            }
        }
        let lvl_start = end;
        end = gang.barrier();
        thymesim_telemetry::span_arg(
            "workload",
            "bfs.level",
            lvl_start,
            end,
            "frontier",
            frontier.len() as u64,
        );
        frontier = next;
        level += 1;
    }
    thymesim_telemetry::phase_end();

    thymesim_telemetry::span_arg("workload", "bfs", start, end, "root", root as u64);
    TraversalRun {
        root,
        elapsed: end - start,
        edges_traversed,
        reached,
    }
}

/// Timed delta-stepping SSSP (label-correcting with distance buckets).
pub fn sssp<R: RemoteBackend>(
    cfg: &Graph500Config,
    sys: &mut MemSystem<R>,
    g: &CsrGraph,
    dist: &SimVec<u32>,
    root: u32,
    start: Time,
) -> TraversalRun {
    for v in 0..g.n {
        dist.set_raw(sys, v, INF);
    }
    let mut gang = Gang::new(cfg, start, cfg.cpu_per_relax);

    dist.set_raw(sys, root as u64, 0);
    let mut buckets: Vec<Vec<u32>> = vec![vec![root]];
    let mut edges_traversed = 0u64;
    let mut end = start;
    let delta = cfg.delta.max(1);
    let mut row = Vec::new();

    let mut k = 0usize;
    while k < buckets.len() {
        thymesim_telemetry::phase_begin("sssp.bucket", Some(k as u64));
        while let Some(v) = {
            let b = &mut buckets[k];
            b.pop()
        } {
            let dv = dist.get_raw(sys, v as u64);
            if (dv / delta) as usize != k {
                continue; // stale entry, re-bucketed since
            }
            let c = gang.pick_core();
            // Timed read of the settled distance and the row bounds.
            gang.access(c, sys, dist.addr(v as u64), false);
            gang.access(c, sys, g.xadj.addr(v as u64), false);
            let lo = g.xadj.get_raw(sys, v as u64);
            g.row(sys, g.cursor(sys, v as u64), &mut row);
            for (chunk, chunk_lo) in row.chunks(EDGE_CHUNK).zip((lo..).step_by(EDGE_CHUNK)) {
                let c = gang.pick_core();
                for (&(w, wa), e) in chunk.iter().zip(chunk_lo..) {
                    edges_traversed += 1;
                    gang.access(c, sys, wa, false);
                    let (wt, wta) = g.weight(sys, e);
                    gang.access(c, sys, wta, false);
                    let nd = dv.saturating_add(wt);
                    gang.access(c, sys, dist.addr(w as u64), false);
                    if nd < dist.get_raw(sys, w as u64) {
                        gang.access(c, sys, dist.addr(w as u64), true);
                        dist.set_raw(sys, w as u64, nd);
                        let nk = (nd / delta) as usize;
                        if nk >= buckets.len() {
                            buckets.resize(nk + 1, Vec::new());
                        }
                        buckets[nk].push(w);
                    }
                }
            }
        }
        end = gang.barrier();
        k += 1;
    }
    thymesim_telemetry::phase_end();

    let reached = (0..g.n).filter(|&v| dist.get_raw(sys, v) != INF).count() as u64;
    thymesim_telemetry::span_arg("workload", "sssp", start, end, "root", root as u64);
    TraversalRun {
        root,
        elapsed: end - start,
        edges_traversed,
        reached,
    }
}

/// Untimed reference BFS levels (host-side) for validation.
pub fn reference_levels<R: RemoteBackend>(sys: &MemSystem<R>, g: &CsrGraph, root: u32) -> Vec<u32> {
    let mut level = vec![INF; g.n as usize];
    level[root as usize] = 0;
    let mut frontier = vec![root];
    let mut d = 0;
    let mut row = Vec::new();
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &v in &frontier {
            g.row(sys, g.cursor(sys, v as u64), &mut row);
            for &(w, _) in &row {
                if level[w as usize] == INF {
                    level[w as usize] = d + 1;
                    next.push(w);
                }
            }
        }
        d += 1;
        frontier = next;
    }
    level
}

/// Validate a BFS parent tree against reference levels (Graph500-style
/// checks: root parentage, reachability equivalence, level consistency).
pub fn validate_bfs<R: RemoteBackend>(
    sys: &MemSystem<R>,
    g: &CsrGraph,
    parent: &SimVec<u32>,
    root: u32,
) -> bool {
    let level = reference_levels(sys, g, root);
    if parent.get_raw(sys, root as u64) != root {
        return false;
    }
    for v in 0..g.n {
        let p = parent.get_raw(sys, v);
        let reachable = level[v as usize] != INF;
        if (p == NO_PARENT) == reachable {
            return false; // reached ⇔ has a parent
        }
        if p != NO_PARENT && v != root as u64 {
            // Parent must be exactly one level up.
            if level[v as usize] != level[p as usize] + 1 {
                return false;
            }
        }
    }
    true
}

/// Untimed reference SSSP (Dijkstra) for validation.
pub fn reference_sssp<R: RemoteBackend>(sys: &MemSystem<R>, g: &CsrGraph, root: u32) -> Vec<u32> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut dist = vec![INF; g.n as usize];
    dist[root as usize] = 0;
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((0u32, root)));
    let mut row = Vec::new();
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        let lo = g.xadj.get_raw(sys, v as u64);
        g.row(sys, g.cursor(sys, v as u64), &mut row);
        for (&(w, _), e) in row.iter().zip(lo..) {
            let wt = g.weight(sys, e).0;
            let nd = d.saturating_add(wt);
            if nd < dist[w as usize] {
                dist[w as usize] = nd;
                heap.push(Reverse((nd, w)));
            }
        }
    }
    dist
}

/// Run the full benchmark (BFS phase) over `cfg.roots` roots.
pub fn run_bfs_benchmark<R: RemoteBackend>(
    cfg: &Graph500Config,
    sys: &mut MemSystem<R>,
    g: &CsrGraph,
    parent: &SimVec<u32>,
    validate: bool,
) -> Graph500Report {
    let roots = pick_roots(cfg, sys, g);
    let mut runs = Vec::new();
    let mut t = Time::ZERO;
    let mut ok = true;
    for root in roots {
        let run = bfs(cfg, sys, g, parent, root, t);
        t += run.elapsed;
        if validate {
            ok &= validate_bfs(sys, g, parent, root);
        }
        runs.push(run);
    }
    Graph500Report::from_runs(runs, ok)
}

/// Run the full benchmark (SSSP phase) over `cfg.roots` roots.
pub fn run_sssp_benchmark<R: RemoteBackend>(
    cfg: &Graph500Config,
    sys: &mut MemSystem<R>,
    g: &CsrGraph,
    dist: &SimVec<u32>,
    validate: bool,
) -> Graph500Report {
    let roots = pick_roots(cfg, sys, g);
    let mut runs = Vec::new();
    let mut t = Time::ZERO;
    let mut ok = true;
    for root in roots {
        let run = sssp(cfg, sys, g, dist, root, t);
        t += run.elapsed;
        if validate {
            let reference = reference_sssp(sys, g, root);
            for v in 0..g.n {
                if dist.get_raw(sys, v) != reference[v as usize] {
                    ok = false;
                    break;
                }
            }
        }
        runs.push(run);
    }
    Graph500Report::from_runs(runs, ok)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use thymesim_mem::{
        shared_dram, Addr, AddressMap, CacheConfig, DramConfig, NoRemote, SysTiming,
    };

    /// The Kronecker graph of `cfg` in `layout`, built into one arena.
    pub(crate) fn build<R: RemoteBackend>(
        cfg: &Graph500Config,
        sys: &mut MemSystem<R>,
        arena: &mut Arena,
        layout: CsrLayout,
    ) -> CsrGraph {
        build_from_edges(
            cfg,
            sys,
            &mut CsrArenas::One(arena),
            layout,
            &kronecker_edges(cfg),
        )
    }

    /// Row `v`'s neighbours, in order.
    pub(crate) fn values<R: RemoteBackend>(sys: &MemSystem<R>, g: &CsrGraph, v: u64) -> Vec<u32> {
        let mut row = Vec::new();
        g.row(sys, g.cursor(sys, v), &mut row);
        row.into_iter().map(|(w, _)| w).collect()
    }

    fn sys() -> MemSystem<NoRemote> {
        MemSystem::new(
            AddressMap::new(256 << 20, 256 << 20, 128),
            CacheConfig::tiny(),
            shared_dram(DramConfig::default()),
            SysTiming::default(),
            NoRemote,
        )
    }

    fn setup(cfg: &Graph500Config) -> (MemSystem<NoRemote>, CsrGraph, Arena) {
        let mut s = sys();
        let mut arena = Arena::new(Addr(0), 256 << 20);
        let g = build_csr(cfg, &mut s, &mut arena);
        (s, g, arena)
    }

    #[test]
    fn kronecker_is_deterministic_and_sized() {
        let cfg = Graph500Config::tiny();
        let e1 = kronecker_edges(&cfg);
        let e2 = kronecker_edges(&cfg);
        assert_eq!(e1, e2);
        assert_eq!(e1.len() as u64, cfg.edges());
        assert!(e1
            .iter()
            .all(|&(u, v)| (u as u64) < cfg.vertices() && (v as u64) < cfg.vertices()));
    }

    #[test]
    fn kronecker_is_skewed() {
        // Kronecker graphs have a heavy-tailed degree distribution: the
        // max degree must far exceed the mean.
        let cfg = Graph500Config::tiny();
        let edges = kronecker_edges(&cfg);
        let mut deg = vec![0u32; cfg.vertices() as usize];
        for &(u, v) in &edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let max = deg.iter().copied().max().unwrap_or(0);
        let mean = 2.0 * cfg.edgefactor as f64;
        assert!(
            max as f64 > 5.0 * mean,
            "max degree {max} not heavy-tailed vs mean {mean}"
        );
    }

    #[test]
    fn csr_is_consistent() {
        let cfg = Graph500Config::tiny();
        let (s, g, _a) = setup(&cfg);
        assert_eq!(g.xadj.get_raw(&s, 0), 0);
        assert_eq!(g.xadj.get_raw(&s, g.n), g.m2);
        // Row bounds are monotone.
        let mut prev = 0;
        for v in 0..=g.n {
            let x = g.xadj.get_raw(&s, v);
            assert!(x >= prev);
            prev = x;
        }
        // Adjacency is symmetric: count (u,v) == count (v,u) via totals.
        assert_eq!(g.m2, cfg.edges() * 2);
    }

    #[test]
    fn rows_are_sorted_in_both_layouts() {
        let cfg = Graph500Config::tiny();
        for layout in [CsrLayout::Flat, CsrLayout::Compressed] {
            let mut s = sys();
            let mut arena = Arena::new(Addr(0), 256 << 20);
            let g = build(&cfg, &mut s, &mut arena, layout);
            for v in 0..g.n {
                let row = values(&s, &g, v);
                assert!(
                    row.windows(2).all(|w| w[0] <= w[1]),
                    "row {v} not sorted under {layout:?}"
                );
            }
        }
    }

    #[test]
    fn compressed_decodes_identically_to_flat() {
        let cfg = Graph500Config::tiny();
        let (sf, gf, _af) = setup(&cfg);
        let mut sc = sys();
        let mut ac = Arena::new(Addr(0), 256 << 20);
        let gc = build(&cfg, &mut sc, &mut ac, CsrLayout::Compressed);
        assert_eq!(gf.n, gc.n);
        assert_eq!(gf.m2, gc.m2);
        for v in 0..gf.n {
            assert_eq!(
                gf.row_bounds_raw(&sf, v),
                gc.row_bounds_raw(&sc, v),
                "row bounds diverge at {v}"
            );
            assert_eq!(
                values(&sf, &gf, v),
                values(&sc, &gc, v),
                "row {v} decodes differently"
            );
        }
        assert!(
            gc.adjacency_bytes() < gf.adjacency_bytes(),
            "compressed ({}) not smaller than flat ({})",
            gc.adjacency_bytes(),
            gf.adjacency_bytes()
        );
    }

    #[test]
    fn placed_build_puts_each_array_in_its_arena() {
        // Two disjoint arenas and a mixed placement (and its complement):
        // every array, `Out` included, lies in the arena its placement
        // names, and every row reads as the one-arena build of the edges.
        let cfg = Graph500Config::tiny();
        let edges = kronecker_edges(&cfg);
        let (mut s1, mut one) = (sys(), Arena::new(Addr(0), 256 << 20));
        let reference = build(&cfg, &mut s1, &mut one, CsrLayout::Flat);
        let split = 128u64 << 20;
        let in_remote = |a: Addr| a.0 >= split;
        let mixed = GraphPlacement {
            xadj_remote: false,
            adj_remote: true,
            weights_remote: false,
            out_remote: true,
        };
        let complement = GraphPlacement {
            xadj_remote: true,
            adj_remote: false,
            weights_remote: true,
            out_remote: false,
        };
        for placement in [mixed, complement] {
            let mut s = sys();
            let mut local = Arena::new(Addr(0), split);
            let mut remote = Arena::new(Addr(split), split);
            let mut arenas = CsrArenas::Placed {
                local: &mut local,
                remote: &mut remote,
                placement,
            };
            let g = build_from_edges(&cfg, &mut s, &mut arenas, CsrLayout::Flat, &edges);
            let out: SimVec<u32> = arenas.alloc(GraphArray::Out, g.n);
            let (AdjStorage::Flat { adj }, Some(weights)) = (&g.adj, g.weights) else {
                panic!("a flat build is weighted");
            };
            let spans = [
                (GraphArray::Xadj, g.xadj.base(), g.xadj.addr(g.n)),
                (GraphArray::Adj, adj.base(), adj.addr(g.m2 - 1)),
                (GraphArray::Weights, weights.base(), weights.addr(g.m2 - 1)),
                (GraphArray::Out, out.base(), out.addr(g.n - 1)),
            ];
            for (array, first, last) in spans {
                let remote = placement.remote(array);
                assert_eq!(
                    in_remote(first),
                    remote,
                    "{array:?} starts in the wrong arena"
                );
                assert_eq!(in_remote(last), remote, "{array:?} ends in the wrong arena");
            }
            for v in 0..g.n {
                assert_eq!(values(&s, &g, v), values(&s1, &reference, v), "row {v}");
                let (lo, hi) = g.row_bounds_raw(&s, v);
                assert_eq!((lo, hi), reference.row_bounds_raw(&s1, v), "row {v} bounds");
                for e in lo..hi {
                    assert_eq!(g.weight(&s, e).0, reference.weight(&s1, e).0, "weight {e}");
                }
            }
        }
    }

    #[test]
    fn bfs_validates_on_compressed_csr() {
        let cfg = Graph500Config::tiny();
        let mut s = sys();
        let mut arena = Arena::new(Addr(0), 256 << 20);
        let g = build(&cfg, &mut s, &mut arena, CsrLayout::Compressed);
        let parent: SimVec<u32> = arena.alloc_vec(g.n);
        let report = run_bfs_benchmark(&cfg, &mut s, &g, &parent, true);
        assert!(report.validated, "BFS on compressed CSR failed validation");
    }

    #[test]
    fn degree_ordered_relabel_preserves_shape() {
        let cfg = Graph500Config::tiny();
        let plain = kronecker_edges(&cfg);
        let ordered = degree_ordered_edges(&cfg);
        assert_eq!(plain.len(), ordered.len());
        // Relabelling permutes ids: the sorted degree sequence is
        // invariant.
        let degs = |edges: &[(u32, u32)]| {
            let mut d = vec![0u64; cfg.vertices() as usize];
            for &(u, v) in edges {
                d[u as usize] += 1;
                d[v as usize] += 1;
            }
            d.sort_unstable();
            d
        };
        assert_eq!(degs(&plain), degs(&ordered));
        // Rank order: degree is non-decreasing in the new vertex id.
        let mut d = vec![0u64; cfg.vertices() as usize];
        for &(u, v) in &ordered {
            d[u as usize] += 1;
            d[v as usize] += 1;
        }
        assert!(d.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn degenerate_graphs_build_and_traverse() {
        // One vertex, zero edges (scale 0, edgefactor 0) and many
        // vertices, zero edges: builders and the reference paths must
        // not panic (the ISSUE's empty-graph hazard).
        for (scale, ef) in [(0u32, 0u32), (4, 0)] {
            let cfg = Graph500Config {
                scale,
                edgefactor: ef,
                cores: 2,
                roots: 0,
                ..Graph500Config::default()
            };
            for layout in [CsrLayout::Flat, CsrLayout::Compressed] {
                let mut s = sys();
                let mut arena = Arena::new(Addr(0), 256 << 20);
                let g = build(&cfg, &mut s, &mut arena, layout);
                assert_eq!(g.m2, 0);
                let levels = reference_levels(&s, &g, 0);
                assert_eq!(levels[0], 0);
                assert!(levels.iter().skip(1).all(|&l| l == INF));
                let parent: SimVec<u32> = arena.alloc_vec(g.n);
                let run = bfs(&cfg, &mut s, &g, &parent, 0, Time::ZERO);
                assert_eq!(run.reached, 1);
                assert_eq!(run.edges_traversed, 0);
            }
        }
    }

    #[test]
    fn bfs_parent_tree_validates() {
        let cfg = Graph500Config::tiny();
        let (mut s, g, mut arena) = setup(&cfg);
        let parent: SimVec<u32> = arena.alloc_vec(g.n);
        let report = run_bfs_benchmark(&cfg, &mut s, &g, &parent, true);
        assert!(report.validated, "BFS parent tree failed validation");
        assert_eq!(report.runs.len(), cfg.roots as usize);
        for r in &report.runs {
            assert!(r.reached > 1, "root {} reached nothing", r.root);
            assert!(r.elapsed > Dur::ZERO);
        }
        assert!(report.mean_teps > 0.0);
    }

    #[test]
    fn sssp_distances_match_dijkstra() {
        let cfg = Graph500Config::tiny();
        let (mut s, g, mut arena) = setup(&cfg);
        let dist: SimVec<u32> = arena.alloc_vec(g.n);
        let report = run_sssp_benchmark(&cfg, &mut s, &g, &dist, true);
        assert!(report.validated, "SSSP distances diverge from Dijkstra");
    }

    #[test]
    fn sssp_takes_longer_than_bfs() {
        let cfg = Graph500Config::tiny();
        let (mut s, g, mut arena) = setup(&cfg);
        let parent: SimVec<u32> = arena.alloc_vec(g.n);
        let dist: SimVec<u32> = arena.alloc_vec(g.n);
        let b = run_bfs_benchmark(&cfg, &mut s, &g, &parent, false);
        let d = run_sssp_benchmark(&cfg, &mut s, &g, &dist, false);
        assert!(
            d.total_time > b.total_time,
            "SSSP ({}) should exceed BFS ({})",
            d.total_time,
            b.total_time
        );
    }

    #[test]
    fn more_cores_speed_up_bfs() {
        let mut cfg = Graph500Config::tiny();
        cfg.cores = 1;
        let (mut s1, g1, mut a1) = setup(&cfg);
        let p1: SimVec<u32> = a1.alloc_vec(g1.n);
        let r1 = run_bfs_benchmark(&cfg, &mut s1, &g1, &p1, false);
        cfg.cores = 16;
        let (mut s16, g16, mut a16) = setup(&cfg);
        let p16: SimVec<u32> = a16.alloc_vec(g16.n);
        let r16 = run_bfs_benchmark(&cfg, &mut s16, &g16, &p16, false);
        let speedup = r1.total_time.as_secs_f64() / r16.total_time.as_secs_f64();
        assert!(speedup > 2.0, "16 cores only {speedup:.2}x faster than 1");
    }

    #[test]
    fn roots_have_degree() {
        let cfg = Graph500Config::tiny();
        let (s, g, _a) = setup(&cfg);
        for root in pick_roots(&cfg, &s, &g) {
            let (lo, hi) = g.row_bounds_raw(&s, root as u64);
            assert!(hi > lo, "root {root} is isolated");
        }
    }
}
