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

use crate::issue::Core;
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
    /// unmeasured init loop), written as bulk runs of `INIT_RUN` elements.
    pub fn init<R: RemoteBackend>(&self, sys: &mut MemSystem<R>) {
        for (v, x) in [(self.a, 1.0), (self.b, 2.0), (self.c, 0.0)] {
            let run = [x; INIT_RUN];
            let mut j = 0;
            while j < v.len() {
                let n = (v.len() - j).min(INIT_RUN as u64);
                v.set_raw_run(sys, j, &run[..n as usize]);
                j += n;
            }
        }
    }
}

/// Elements per bulk write in [`StreamArrays::init`].
const INIT_RUN: usize = 1024;

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
    core: Core,
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
            core: Core::new(cfg.mlp, start),
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
            self.core.slot()
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
        // MSHR slots in the core's window.
        let (roles, nr): ([(SimVec<f64>, bool); 3], usize) = match kernel {
            Kernel::Copy => ([(a, false), (c, true), (c, true)], 2),
            Kernel::Scale => ([(c, false), (b, true), (b, true)], 2),
            Kernel::Add => ([(a, false), (b, false), (c, true)], 3),
            Kernel::Triad => ([(b, false), (c, false), (a, true)], 3),
        };

        // Execute-once-then-stall: an element runs the full memory model
        // once per array and keeps the line handles. If every handle
        // holds the line of the step's *last* element, the rest of the
        // step stalls on them: guaranteed hits — identical counters, LRU
        // evolution and telemetry, none of the lookup work. Otherwise the
        // element retires alone and the next one executes. The one check
        // covers both ways a handle can fail: its way was filled with
        // the element's own line and only sibling arrays' lines (disjoint
        // allocations) can have replaced that since, so finding the last
        // element's line there means the handle survived its siblings'
        // misses *and* the line reaches the end of the step — which a
        // line shorter than the step does not.
        let cpe = self.cfg.cpu_per_element;
        let mut j = j0;
        while j < j1 {
            let at = self.core.slot();
            let mut group = [(thymesim_mem::LineTouch::default(), false); 3];
            for (k, &(v, write)) in roles[..nr].iter().enumerate() {
                let (done, missed, touch) = sys.access_entry(at, v.addr(j), write);
                if missed {
                    self.core.hold(done);
                }
                group[k] = (touch, write);
            }
            let fast = (0..nr).all(|k| sys.line_resident(roles[k].0.addr(j1 - 1), group[k].0));
            let stalls = if fast { j1 - j - 1 } else { 0 };

            // The element's clock step; then the stalls, which hold no
            // slot, so `Core`'s recurrence telescopes: the first stall
            // issues at the post-miss `slot()` and every later one
            // exactly `cpe` after its predecessor — which is also where
            // the replayed hits sit on the telemetry timeline.
            self.core.retire(at, cpe);
            if stalls > 0 {
                let at2 = self.core.slot();
                sys.retouch_rounds_at(at2, cpe, &group[..nr], stalls);
                self.core.retire(at2, cpe * stalls);
            }

            // Data ops for the element and its stalls, as bulk runs (no
            // read-after-write hazards: every kernel's source and
            // destination arrays are disjoint allocations).
            let n = 1 + stalls as usize;
            let (mut x, mut y) = ([0f64; 16], [0f64; 16]);
            match kernel {
                Kernel::Copy => {
                    a.get_raw_run(sys, j, &mut x[..n]);
                    c.set_raw_run(sys, j, &x[..n]);
                }
                Kernel::Scale => {
                    c.get_raw_run(sys, j, &mut x[..n]);
                    for v in &mut x[..n] {
                        // `s * cv`, STREAM's operand order; `*v *= s`
                        // would compute `cv * s`.
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
            j += 1 + stalls;
        }

        self.finish_line(kernel)
    }

    /// Advance the cursor past a processed line, closing the kernel (and
    /// the run) at its last one.
    #[inline]
    fn finish_line(&mut self, kernel: Kernel) -> Step {
        self.cursor.line += 1;
        if self.cursor.line == self.lines {
            self.cursor.line = 0;
            // Kernel complete: wait for the window to drain.
            let end = self.core.end();
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
            self.core.reset(end);
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
        self.core.now()
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
            elapsed: self.core.now() - self.started_at,
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

    /// `init`'s bulk runs leave the same backing bytes and pages as one
    /// `set_raw` per element, for lengths that fill no run, a whole run,
    /// and runs that cross pages with a partial tail.
    #[test]
    fn init_matches_the_per_element_loop() {
        for elements in [1, 5, INIT_RUN as u64, 9 * INIT_RUN as u64 + 17] {
            let (mut bulk, mut each) = (local_sys(), local_sys());
            let mut arena = Arena::new(Addr(0), 64 << 20);
            let arrays = StreamArrays::alloc(&mut arena, elements);
            arrays.init(&mut bulk);
            for j in 0..elements {
                arrays.a.set_raw(&mut each, j, 1.0);
                arrays.b.set_raw(&mut each, j, 2.0);
                arrays.c.set_raw(&mut each, j, 0.0);
            }
            let (bulk, each) = (bulk.backing(), each.backing());
            assert_eq!(
                bulk.resident_bytes(),
                each.resident_bytes(),
                "{elements} elements"
            );
            for a in (0..arena.used() + (1 << 16)).step_by(8) {
                assert_eq!(
                    bulk.read_u64(Addr(a)),
                    each.read_u64(Addr(a)),
                    "{elements} elements, byte {a}"
                );
            }
        }
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

    /// The definition `step_on` is held to: every element of the step a
    /// full `Core::load` per array, scalar data ops and a per-element
    /// clock — no handles, no closed forms.
    fn step_definitional<R: RemoteBackend>(p: &mut StreamProcess, sys: &mut MemSystem<R>) -> Step {
        let kernel = KERNELS[p.cursor.kernel];
        thymesim_telemetry::phase_begin(kernel.name(), None);
        let j0 = p.cursor.line * p.elems_per_line;
        let j1 = (j0 + p.elems_per_line).min(p.cfg.elements);
        let (s, StreamArrays { a, b, c }) = (p.cfg.scalar, p.arrays);
        for j in j0..j1 {
            let at = p.core.slot();
            let mut access = |v: SimVec<f64>, write: bool| {
                p.core.load(sys, at, v.addr(j), write);
            };
            let (dst, value) = match kernel {
                Kernel::Copy => {
                    access(a, false);
                    (c, a.get_raw(sys, j))
                }
                Kernel::Scale => {
                    access(c, false);
                    (b, s * c.get_raw(sys, j))
                }
                Kernel::Add => {
                    access(a, false);
                    access(b, false);
                    (c, a.get_raw(sys, j) + b.get_raw(sys, j))
                }
                Kernel::Triad => {
                    access(b, false);
                    access(c, false);
                    (a, b.get_raw(sys, j) + s * c.get_raw(sys, j))
                }
            };
            p.core.load(sys, at, dst.addr(j), true);
            dst.set_raw(sys, j, value);
            p.core.retire(at, p.cfg.cpu_per_element);
        }
        p.finish_line(kernel)
    }

    /// Everything a run leaves behind that anything downstream can see.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        timings: Vec<(Kernel, u32, Dur)>,
        report: String,
        mem_stats: String,
        cache_stats: thymesim_mem::CacheStats,
        arrays: Vec<u64>,
        /// Write-backs seen after each access of a follow-up conflict
        /// pass: the order in which the run's lines leave the cache.
        eviction_order: Vec<u64>,
        /// `[tracks, stages, phased, counters, events, dropped, blame]`
        /// of the point trace, when a recorder was installed.
        trace: Option<[String; 7]>,
    }

    fn run_outcome<R: RemoteBackend>(
        mut sys: MemSystem<R>,
        base: Addr,
        elements: u64,
        definitional: bool,
        traced: bool,
    ) -> Outcome {
        if traced {
            // 1 µs counter windows: a kernel straddles many.
            thymesim_telemetry::install(thymesim_telemetry::TraceRecorder::with_window(
                0, 50_000, 1_000_000,
            ));
        }
        let cfg = StreamConfig {
            elements,
            ntimes: 2,
            mlp: 8,
            ..StreamConfig::default()
        };
        let mut arena = Arena::new(base, 1 << 20);
        let arrays = StreamArrays::alloc(&mut arena, elements);
        arrays.init(&mut sys);
        let mut p = StreamProcess::new(cfg, arrays, Time::ns(3));
        while !p.is_done() {
            if definitional {
                step_definitional(&mut p, &mut sys);
            } else {
                p.step_on(&mut sys);
            }
        }
        let report = p.report(&mut sys);
        assert!(report.verified);
        let (mem_stats, cache_stats) = (format!("{:?}", sys.stats), sys.cache_stats());
        let conflicts = arena.alloc_vec::<f64>(16 * 1024);
        let eviction_order = (0..conflicts.len())
            .step_by(8)
            .map(|j| {
                sys.access(p.now(), conflicts.addr(j), false);
                sys.cache_stats().writebacks
            })
            .collect();
        Outcome {
            timings: p.timings.clone(),
            report: format!("{report:?}"),
            mem_stats,
            cache_stats,
            arrays: [arrays.a, arrays.b, arrays.c]
                .iter()
                .flat_map(|v| (0..elements).map(|j| v.get_raw(&sys, j).to_bits()))
                .collect(),
            eviction_order,
            trace: traced.then(|| {
                let t = thymesim_telemetry::take().expect("recorder installed");
                assert!(!t.tracks.is_empty() && !t.stages.is_empty());
                [
                    format!("{:?}", t.tracks),
                    format!("{:?}", t.stages),
                    format!("{:?}", t.phased),
                    format!("{:?}", t.counters),
                    format!("{:?}", t.events),
                    format!("{:?}", t.dropped),
                    format!("{:?}", t.blame),
                ]
            }),
        }
    }

    fn local_geometry(sets: usize, ways: usize, line: u64) -> MemSystem<NoRemote> {
        MemSystem::new(
            AddressMap::new(64 << 20, 64 << 20, line),
            CacheConfig { sets, ways, line },
            shared_dram(DramConfig::default()),
            SysTiming::default(),
            NoRemote,
        )
    }

    fn remote_backed() -> (MemSystem<thymesim_fabric::FabricEngine>, Addr) {
        use thymesim_fabric::{ControlConfig, ControlPlane, DelaySpec, FabricConfig, FabricEngine};
        let map = AddressMap::new(64 << 20, 64 << 20, 128);
        let mut engine = FabricEngine::new(
            FabricConfig {
                delay: DelaySpec::Period(10),
                ..FabricConfig::default()
            },
            shared_dram(DramConfig::default()),
        );
        let mut cp = ControlPlane::new(ControlConfig::default(), 1 << 30);
        let res = cp.reserve(map.remote_size).expect("lender has capacity");
        cp.attach(&mut engine, Time::ZERO, map.remote_base, res)
            .expect("attach at PERIOD 10");
        let sys = MemSystem::new(
            map,
            CacheConfig {
                sets: 64,
                ways: 4,
                line: 128,
            },
            shared_dram(DramConfig::default()),
            SysTiming::default(),
            engine,
        );
        (sys, map.remote_base_addr())
    }

    #[test]
    fn line_step_matches_the_definitional_stepper() {
        // All four kernels, twice over, with a partial last line, against
        // a 32 KiB LLC the arrays thrash. `aliased`: three arrays in one
        // set of a 2-way cache, so an element's own misses evict its
        // siblings and the step must not stall. `line64`: a step spans
        // two lines, so the first line's handle must not serve the second.
        type Case<'a> = (&'a str, &'a dyn Fn(bool, bool) -> Outcome);
        let cases: [Case; 4] = [
            ("local", &|d, t| {
                run_outcome(local_geometry(64, 4, 128), Addr(0), 4805, d, t)
            }),
            ("remote", &|d, t| {
                let (sys, base) = remote_backed();
                run_outcome(sys, base, 4805, d, t)
            }),
            ("aliased", &|d, t| {
                run_outcome(local_geometry(16, 2, 128), Addr(0), 1021, d, t)
            }),
            ("line64", &|d, t| {
                run_outcome(local_geometry(128, 4, 64), Addr(0), 4805, d, t)
            }),
        ];
        for (name, run) in cases {
            let untraced = run(true, false);
            let lines = untraced.arrays.len() as u64 / 16;
            assert!(untraced.cache_stats.misses > lines, "{name}: must thrash");
            assert_eq!(run(false, false), untraced, "{name}, no recorder");
            let traced = run(true, true);
            assert_eq!(run(false, true), traced, "{name}, recorder installed");
            // Recording is observational.
            assert_eq!(
                Outcome {
                    trace: None,
                    ..traced
                },
                untraced,
                "{name}, traced vs not"
            );
        }
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
