//! The STREAM benchmark (McCalpin), timing-annotated.
//!
//! Four kernels over three `f64` arrays:
//!
//! | kernel | operation        | bytes/iter | FLOPs/iter |
//! |--------|------------------|------------|------------|
//! | copy   | `c[j] = a[j]`      | 16         | 0          |
//! | scale  | `b[j] = s·c[j]`    | 16         | 1          |
//! | add    | `c[j] = a[j]+b[j]` | 24         | 1          |
//! | triad  | `a[j] = b[j]+s·c[j]` | 24       | 2          |
//!
//! The paper configures 10 M elements (0.2 GiB, beyond the 120 MiB cache)
//! and reports per-access latency (Fig. 2) and bandwidth (Fig. 3) under
//! delay injection. The workload is implemented as a resumable
//! [`StreamProcess`] — one step processes one cache line — so several
//! instances can contend on shared hardware in virtual-time order
//! (the MCBN/MCLN experiments of §IV-E).

use crate::issue::IssueRing;
use thymesim_mem::{Arena, MemSystem, RemoteBackend, SimVec};
use thymesim_sim::{Dur, Step, Time};

/// Which STREAM kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    Copy,
    Scale,
    Add,
    Triad,
}

pub const KERNELS: [Kernel; 4] = [Kernel::Copy, Kernel::Scale, Kernel::Add, Kernel::Triad];

impl Kernel {
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Copy => "copy",
            Kernel::Scale => "scale",
            Kernel::Add => "add",
            Kernel::Triad => "triad",
        }
    }

    /// Bytes STREAM accounts per iteration (its reporting convention).
    pub fn bytes_per_element(self) -> u64 {
        match self {
            Kernel::Copy | Kernel::Scale => 16,
            Kernel::Add | Kernel::Triad => 24,
        }
    }
}

/// STREAM configuration.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct StreamConfig {
    /// Array length (paper: 10 000 000 → 0.08 GiB per array).
    pub elements: u64,
    /// Timed repetitions of the kernel cycle (report uses the best).
    pub ntimes: u32,
    /// Cache-line fetches (MSHRs) kept in flight by the issuing core(s) +
    /// hardware prefetchers. At the default 128 this saturates the NIC
    /// transaction window, which is what pins the bandwidth-delay product.
    pub mlp: usize,
    /// The STREAM scalar.
    pub scalar: f64,
    /// CPU cost per element of loop overhead + FLOPs.
    pub cpu_per_element: Dur,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            elements: 10_000_000,
            ntimes: 2,
            mlp: 128,
            scalar: 3.0,
            cpu_per_element: Dur::ps(300),
        }
    }
}

impl StreamConfig {
    /// A scaled-down configuration for unit tests.
    pub fn tiny() -> StreamConfig {
        StreamConfig {
            elements: 4096,
            ntimes: 1,
            ..StreamConfig::default()
        }
    }
}

/// Per-kernel result (STREAM reporting convention: best timed run).
#[derive(Clone, Copy, Debug)]
pub struct KernelResult {
    pub kernel: Kernel,
    pub best_time: Dur,
    pub avg_time: Dur,
    pub bandwidth_gib_s: f64,
}

/// Full STREAM report.
#[derive(Clone, Debug)]
pub struct StreamReport {
    pub copy: KernelResult,
    pub scale: KernelResult,
    pub add: KernelResult,
    pub triad: KernelResult,
    /// Mean per-access latency of remote (or local) demand misses during
    /// the run — the paper's Fig. 2 metric.
    pub miss_latency_mean: Dur,
    pub miss_latency_p99: Dur,
    /// Did the final arrays match the analytic replay?
    pub verified: bool,
    /// Total simulated time of the whole run.
    pub elapsed: Dur,
}

impl StreamReport {
    pub fn kernel(&self, k: Kernel) -> &KernelResult {
        match k {
            Kernel::Copy => &self.copy,
            Kernel::Scale => &self.scale,
            Kernel::Add => &self.add,
            Kernel::Triad => &self.triad,
        }
    }

    /// The triad bandwidth — the headline STREAM figure.
    pub fn best_bandwidth_gib_s(&self) -> f64 {
        KERNELS
            .iter()
            .map(|&k| self.kernel(k).bandwidth_gib_s)
            .fold(0.0, f64::max)
    }
}

/// The three arrays, allocated by the caller in local or remote memory.
#[derive(Clone, Copy, Debug)]
pub struct StreamArrays {
    pub a: SimVec<f64>,
    pub b: SimVec<f64>,
    pub c: SimVec<f64>,
}

impl StreamArrays {
    pub fn alloc(arena: &mut Arena, elements: u64) -> StreamArrays {
        StreamArrays {
            a: arena.alloc_vec(elements),
            b: arena.alloc_vec(elements),
            c: arena.alloc_vec(elements),
        }
    }

    /// STREAM's canonical initialization (untimed, as in the original's
    /// unmeasured init loop).
    pub fn init<R: RemoteBackend>(&self, sys: &mut MemSystem<R>) {
        for j in 0..self.a.len() {
            self.a.set_raw(sys, j, 1.0);
            self.b.set_raw(sys, j, 2.0);
            self.c.set_raw(sys, j, 0.0);
        }
    }
}

/// Phase cursor: (repetition, kernel index, line index).
#[derive(Clone, Copy, Debug)]
struct Cursor {
    rep: u32,
    kernel: usize,
    line: u64,
}

/// A STREAM instance advancing one cache line per step.
pub struct StreamProcess {
    cfg: StreamConfig,
    arrays: StreamArrays,
    cursor: Cursor,
    lines: u64,
    elems_per_line: u64,
    ring: IssueRing,
    cpu_time: Time,
    kernel_start: Time,
    /// (kernel, rep) -> elapsed
    timings: Vec<(Kernel, u32, Dur)>,
    done: bool,
    started_at: Time,
}

impl StreamProcess {
    /// `start` is the virtual time the instance begins.
    pub fn new(cfg: StreamConfig, arrays: StreamArrays, start: Time) -> StreamProcess {
        assert!(cfg.elements > 0 && cfg.ntimes > 0);
        let elems_per_line = 128 / 8;
        StreamProcess {
            lines: cfg.elements.div_ceil(elems_per_line),
            elems_per_line,
            ring: IssueRing::new(cfg.mlp),
            cpu_time: start,
            kernel_start: start,
            timings: Vec::new(),
            cursor: Cursor {
                rep: 0,
                kernel: 0,
                line: 0,
            },
            done: false,
            started_at: start,
            cfg,
            arrays,
        }
    }

    /// A fresh instance over the same arrays and configuration,
    /// beginning at `start` (a looping background load's next lap).
    pub fn restarted(&self, start: Time) -> StreamProcess {
        StreamProcess::new(self.cfg, self.arrays, start)
    }

    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Virtual time of the next access this instance will issue.
    pub fn next_time(&self) -> Time {
        if self.done {
            Time::NEVER
        } else {
            self.ring.issue_at(self.cpu_time)
        }
    }

    /// Process one cache line of the current kernel.
    pub fn step_on<R: RemoteBackend>(&mut self, sys: &mut MemSystem<R>) -> Step {
        debug_assert!(!self.done);
        let kernel = KERNELS[self.cursor.kernel];
        // Re-asserted every step (not just at kernel boundaries) so that
        // interleaved instances time-sharing one engine thread each
        // attribute their accesses to their own current kernel.
        thymesim_telemetry::phase_begin(kernel.name(), None);
        let j0 = self.cursor.line * self.elems_per_line;
        let j1 = (j0 + self.elems_per_line).min(self.cfg.elements);
        let s = self.cfg.scalar;
        let StreamArrays { a, b, c } = self.arrays;

        // The kernel's timed accesses per element, in issue order. All of
        // an iteration's accesses issue together: an out-of-order core
        // starts the loads in parallel and the store queue launches the
        // RFO without waiting for operand values — nothing in a STREAM
        // iteration is data-dependent on memory. Only misses allocate
        // MSHR slots in the issue ring.
        let (roles, nr): ([(SimVec<f64>, bool); 3], usize) = match kernel {
            Kernel::Copy => ([(a, false), (c, true), (c, true)], 2),
            Kernel::Scale => ([(c, false), (b, true), (b, true)], 2),
            Kernel::Add => ([(a, false), (b, false), (c, true)], 3),
            Kernel::Triad => ([(b, false), (c, false), (a, true)], 3),
        };

        // Execute-once-then-stall: the first element of the line-step
        // runs the full memory model once per array and keeps the line
        // handles; once every handle is verified resident (misses in the
        // executing element can evict a sibling only when the arrays
        // alias one set and the associativity is tiny), the remaining
        // same-line elements replay as stalls — identical counters and
        // LRU evolution, none of the lookup work.
        let mut handles = [None::<thymesim_mem::LineTouch>; 3];
        let mut fast = false;
        let mut j = j0;
        while j < j1 {
            let at = self.ring.issue_at(self.cpu_time);
            if fast {
                // Per-element stall path, kept for tracing runs: the
                // bulk replay below skips per-access telemetry probes.
                for (k, &(_, write)) in roles[..nr].iter().enumerate() {
                    sys.retouch(at, handles[k].expect("fast path without handle"), write);
                }
            } else {
                for (k, &(v, write)) in roles[..nr].iter().enumerate() {
                    let (done, missed, touch) = sys.access_entry(at, v.addr(j), write);
                    if missed {
                        self.ring.push(done);
                    }
                    handles[k] = Some(touch);
                }
                fast = roles[..nr].iter().enumerate().all(|(k, &(v, _))| {
                    sys.line_resident(v.addr(j), handles[k].expect("handle just stored"))
                });
                if fast && !thymesim_telemetry::enabled() {
                    // Bulk stall for the rest of the line: the remaining
                    // elements are all guaranteed hits, which never push
                    // the issue ring, so their issue times collapse —
                    // the next issues at `issue_at` of the post-miss
                    // clock and every later one exactly
                    // `cpu_per_element` after its predecessor. Replay
                    // the cache/counter evolution in closed form and do
                    // the data ops as bulk runs (no read-after-write
                    // hazards: every kernel's source and destination
                    // arrays are disjoint allocations).
                    let n = (j1 - j) as usize; // this element + stalls
                    let stalls = (j1 - j) - 1;
                    if stalls > 0 {
                        let mut group = [(handles[0].expect("fast path without handle"), false); 3];
                        for (k, &(_, write)) in roles[..nr].iter().enumerate() {
                            group[k] = (handles[k].expect("fast path without handle"), write);
                        }
                        sys.retouch_rounds(&group[..nr], stalls);
                    }
                    let (mut x, mut y) = ([0f64; 16], [0f64; 16]);
                    match kernel {
                        Kernel::Copy => {
                            a.get_raw_run(sys, j, &mut x[..n]);
                            c.set_raw_run(sys, j, &x[..n]);
                        }
                        Kernel::Scale => {
                            c.get_raw_run(sys, j, &mut x[..n]);
                            for v in &mut x[..n] {
                                // Keep the scalar path's `s * cv` operand
                                // order; `*v *= s` would compute `cv * s`.
                                #[allow(clippy::assign_op_pattern)]
                                {
                                    *v = s * *v;
                                }
                            }
                            b.set_raw_run(sys, j, &x[..n]);
                        }
                        Kernel::Add => {
                            a.get_raw_run(sys, j, &mut x[..n]);
                            b.get_raw_run(sys, j, &mut y[..n]);
                            for (v, w) in x[..n].iter_mut().zip(&y[..n]) {
                                *v += w;
                            }
                            c.set_raw_run(sys, j, &x[..n]);
                        }
                        Kernel::Triad => {
                            b.get_raw_run(sys, j, &mut x[..n]);
                            c.get_raw_run(sys, j, &mut y[..n]);
                            for (v, w) in x[..n].iter_mut().zip(&y[..n]) {
                                *v += s * w;
                            }
                            a.set_raw_run(sys, j, &x[..n]);
                        }
                    }
                    // This element's clock step, then the stalled run's
                    // telescoped recurrence (`at = issue_at(cpu);
                    // cpu = at + cpe`, with the ring frozen).
                    self.cpu_time = self.cpu_time.max2(at) + self.cfg.cpu_per_element;
                    if stalls > 0 {
                        let at2 = self.ring.issue_at(self.cpu_time);
                        self.cpu_time = at2 + self.cfg.cpu_per_element * stalls;
                    }
                    break;
                }
            }
            match kernel {
                Kernel::Copy => {
                    let av = a.get_raw(sys, j);
                    c.set_raw(sys, j, av);
                }
                Kernel::Scale => {
                    let cv = c.get_raw(sys, j);
                    b.set_raw(sys, j, s * cv);
                }
                Kernel::Add => {
                    let (av, bv) = (a.get_raw(sys, j), b.get_raw(sys, j));
                    c.set_raw(sys, j, av + bv);
                }
                Kernel::Triad => {
                    let (bv, cv) = (b.get_raw(sys, j), c.get_raw(sys, j));
                    a.set_raw(sys, j, bv + s * cv);
                }
            }
            self.cpu_time = self.cpu_time.max2(at) + self.cfg.cpu_per_element;
            j += 1;
        }

        // Advance the cursor.
        self.cursor.line += 1;
        if self.cursor.line == self.lines {
            self.cursor.line = 0;
            // Kernel complete: wait for the window to drain.
            let end = self.ring.horizon().max2(self.cpu_time);
            self.timings
                .push((kernel, self.cursor.rep, end - self.kernel_start));
            thymesim_telemetry::span_arg(
                "workload",
                kernel.name(),
                self.kernel_start,
                end,
                "rep",
                self.cursor.rep as u64,
            );
            self.cpu_time = end;
            self.ring.reset(end);
            self.kernel_start = end;
            self.cursor.kernel += 1;
            if self.cursor.kernel == KERNELS.len() {
                self.cursor.kernel = 0;
                self.cursor.rep += 1;
                if self.cursor.rep == self.cfg.ntimes {
                    self.done = true;
                    thymesim_telemetry::phase_end();
                    return Step::Done;
                }
            }
        }
        Step::Continue
    }

    /// Current virtual time of this instance.
    pub fn now(&self) -> Time {
        self.cpu_time
    }

    /// Bytes the instance has nominally moved so far (STREAM accounting).
    pub fn bytes_moved(&self) -> u64 {
        self.timings
            .iter()
            .map(|(k, _, _)| k.bytes_per_element() * self.cfg.elements)
            .sum()
    }

    /// Mean bandwidth over completed kernels, GiB/s (STREAM accounting).
    pub fn mean_bandwidth_gib_s(&self) -> f64 {
        let total: Dur = self.timings.iter().map(|(_, _, d)| *d).sum();
        if total == Dur::ZERO {
            return 0.0;
        }
        self.bytes_moved() as f64 / total.as_secs_f64() / (1u64 << 30) as f64
    }

    /// Finish the run sequentially on `sys` and produce the report.
    pub fn run_to_completion<R: RemoteBackend>(mut self, sys: &mut MemSystem<R>) -> StreamReport {
        while !self.done {
            self.step_on(sys);
        }
        self.report(sys)
    }

    fn kernel_result(&self, k: Kernel) -> KernelResult {
        let times: Vec<Dur> = self
            .timings
            .iter()
            .filter(|(kk, _, _)| *kk == k)
            .map(|(_, _, d)| *d)
            .collect();
        assert!(!times.is_empty(), "kernel {k:?} never ran");
        let best = *times.iter().min().unwrap();
        let avg = Dur::ps(times.iter().map(|d| d.as_ps()).sum::<u64>() / times.len() as u64);
        let bytes = k.bytes_per_element() * self.cfg.elements;
        KernelResult {
            kernel: k,
            best_time: best,
            avg_time: avg,
            bandwidth_gib_s: bytes as f64 / best.as_secs_f64() / (1u64 << 30) as f64,
        }
    }

    /// Produce the final report (the process must be done).
    pub fn report<R: RemoteBackend>(&self, sys: &mut MemSystem<R>) -> StreamReport {
        assert!(self.done, "report requested before the run finished");
        let lat = &sys.stats.remote_latency;
        let (mean, p99) = if lat.count() > 0 {
            (lat.mean_dur(), Dur::ps(lat.p99()))
        } else {
            let l = &sys.stats.local_latency;
            (l.mean_dur(), Dur::ps(l.p99()))
        };
        StreamReport {
            copy: self.kernel_result(Kernel::Copy),
            scale: self.kernel_result(Kernel::Scale),
            add: self.kernel_result(Kernel::Add),
            triad: self.kernel_result(Kernel::Triad),
            miss_latency_mean: mean,
            miss_latency_p99: p99,
            verified: self.verify(sys),
            elapsed: self.cpu_time - self.started_at,
        }
    }

    /// STREAM-style verification: replay the kernel cycle on scalars and
    /// compare the arrays (every element must match, all elements equal).
    pub fn verify<R: RemoteBackend>(&self, sys: &MemSystem<R>) -> bool {
        let (mut ea, mut eb, mut ec) = (1.0f64, 2.0f64, 0.0f64);
        for _ in 0..self.cfg.ntimes {
            ec = ea;
            eb = self.cfg.scalar * ec;
            ec = ea + eb;
            ea = eb + self.cfg.scalar * ec;
        }
        // Sample across the arrays (full scan at small sizes).
        let n = self.cfg.elements;
        let stride = (n / 1024).max(1);
        let mut j = 0;
        while j < n {
            let av = self.arrays.a.get_raw(sys, j);
            let bv = self.arrays.b.get_raw(sys, j);
            let cv = self.arrays.c.get_raw(sys, j);
            let ok = (av - ea).abs() < 1e-8 && (bv - eb).abs() < 1e-8 && (cv - ec).abs() < 1e-8;
            if !ok {
                return false;
            }
            j += stride;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thymesim_mem::{
        shared_dram, Addr, AddressMap, CacheConfig, DramConfig, NoRemote, SysTiming,
    };

    fn local_sys() -> MemSystem<NoRemote> {
        MemSystem::new(
            AddressMap::new(64 << 20, 64 << 20, 128),
            CacheConfig::tiny(), // 256 KiB — smaller than the working set
            shared_dram(DramConfig::default()),
            SysTiming::default(),
            NoRemote,
        )
    }

    fn run_local(cfg: StreamConfig) -> (StreamReport, MemSystem<NoRemote>) {
        let mut sys = local_sys();
        let mut arena = Arena::new(Addr(0), 64 << 20);
        let arrays = StreamArrays::alloc(&mut arena, cfg.elements);
        arrays.init(&mut sys);
        let p = StreamProcess::new(cfg, arrays, Time::ZERO);
        let report = p.run_to_completion(&mut sys);
        (report, sys)
    }

    #[test]
    fn computes_correct_results() {
        let (report, _) = run_local(StreamConfig::tiny());
        assert!(report.verified, "STREAM validation failed");
    }

    #[test]
    fn all_kernels_report_plausible_bandwidth() {
        let (report, _) = run_local(StreamConfig::tiny());
        for k in KERNELS {
            let r = report.kernel(k);
            assert!(
                r.bandwidth_gib_s > 1.0 && r.bandwidth_gib_s < 200.0,
                "{}: {} GiB/s implausible",
                k.name(),
                r.bandwidth_gib_s
            );
            assert!(r.best_time <= r.avg_time);
        }
    }

    #[test]
    fn add_and_triad_move_more_bytes() {
        assert_eq!(Kernel::Copy.bytes_per_element(), 16);
        assert_eq!(Kernel::Triad.bytes_per_element(), 24);
        // Use a thrash-sized working set so kernel time is memory-bound
        // (with a cache-resident set all kernels cost the same CPU time).
        let mut cfg = StreamConfig::tiny();
        cfg.elements = 65_536;
        let (report, _) = run_local(cfg);
        // More traffic at similar bandwidth → longer kernel time.
        assert!(report.add.best_time > report.copy.best_time);
    }

    #[test]
    fn working_set_thrashes_the_tiny_cache() {
        // 3 × 512 KiB arrays against a 256 KiB cache: every line access
        // must miss once per sweep (the 15 same-line element accesses
        // after it hit), so the per-line miss rate stays near 1.
        let mut cfg = StreamConfig::tiny();
        cfg.elements = 65_536;
        let (_, sys) = run_local(cfg);
        let cs = sys.cache_stats();
        assert!(cs.misses > 0);
        let line_miss_rate = cs.misses as f64 / (cs.accesses() as f64 / 16.0);
        assert!(
            line_miss_rate > 0.5,
            "expected cold lines each sweep, line miss rate {line_miss_rate}"
        );
    }

    #[test]
    fn cache_resident_set_mostly_hits() {
        // 3 × 32 KiB arrays fit in the 256 KiB cache: after the cold
        // sweep, everything hits.
        let mut cfg = StreamConfig::tiny();
        cfg.ntimes = 4;
        let (_, sys) = run_local(cfg);
        let cs = sys.cache_stats();
        assert!(
            cs.hit_rate() > 0.95,
            "resident working set should hit, rate {}",
            cs.hit_rate()
        );
    }

    #[test]
    fn more_repetitions_take_proportionally_longer() {
        let mut cfg = StreamConfig::tiny();
        cfg.elements = 65_536; // thrash-sized: every repetition costs alike
        cfg.ntimes = 1;
        let (r1, _) = run_local(cfg);
        cfg.ntimes = 3;
        let (r3, _) = run_local(cfg);
        let ratio = r3.elapsed.as_secs_f64() / r1.elapsed.as_secs_f64();
        assert!(
            (2.5..3.5).contains(&ratio),
            "3 reps should take ~3x one rep, got {ratio}"
        );
    }

    #[test]
    fn step_granularity_is_one_line() {
        let cfg = StreamConfig::tiny();
        let mut sys = local_sys();
        let mut arena = Arena::new(Addr(0), 64 << 20);
        let arrays = StreamArrays::alloc(&mut arena, cfg.elements);
        arrays.init(&mut sys);
        let mut p = StreamProcess::new(cfg, arrays, Time::ZERO);
        let before = p.next_time();
        assert_eq!(before, Time::ZERO);
        let st = p.step_on(&mut sys);
        assert_eq!(st, Step::Continue);
        // 16 copy elements: 16 reads + 16 writes.
        assert_eq!(sys.stats.reads, 16);
        assert_eq!(sys.stats.writes, 16);
        assert!(p.next_time() > Time::ZERO);
    }

    #[test]
    fn starts_at_given_time() {
        let cfg = StreamConfig::tiny();
        let mut sys = local_sys();
        let mut arena = Arena::new(Addr(0), 64 << 20);
        let arrays = StreamArrays::alloc(&mut arena, cfg.elements);
        arrays.init(&mut sys);
        let start = Time::ms(5);
        let p = StreamProcess::new(cfg, arrays, start);
        assert_eq!(p.next_time(), start);
        let report = p.run_to_completion(&mut sys);
        assert!(report.elapsed > Dur::ZERO);
    }
}
