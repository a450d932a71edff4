//! Issue-side bookkeeping shared by the workloads: `Core`, the one
//! issue path every workload kernel times its accesses through, plus the
//! key-popularity sampler shared by the closed-loop memtier client and
//! the open-loop serving engine.
//!
//! A core (or SMT context) keeps `mlp` cache-line fetches outstanding in
//! an MSHR-style window ([`IssueRing`]) and advances a CPU clock between
//! issues. Streaming kernels use a large window (hardware prefetch
//! saturates the NIC credits), pointer-chasing workloads a small one —
//! the distinction that drives the paper's Redis-vs-Graph500 divergence.
//! Which accesses occupy a slot is chosen per access, by calling
//! `Core::load` or `Core::hold`; a sequential run of loads is one
//! `Core::scan`.

use std::collections::VecDeque;
use thymesim_mem::{Addr, MemSystem, RemoteBackend};
use thymesim_sim::{Dur, Time, Xoshiro256};

/// A sliding window of in-flight access completion times.
#[derive(Clone, Debug)]
pub struct IssueRing {
    ring: VecDeque<Time>,
    cap: usize,
    horizon: Time,
}

impl IssueRing {
    pub fn new(cap: usize) -> IssueRing {
        IssueRing {
            ring: VecDeque::with_capacity(cap.max(1)),
            cap: cap.max(1),
            horizon: Time::ZERO,
        }
    }

    /// Earliest time a new access may issue, given the core is ready at
    /// `cpu_ready`.
    #[inline]
    pub fn issue_at(&self, cpu_ready: Time) -> Time {
        if self.ring.len() < self.cap {
            cpu_ready
        } else {
            cpu_ready.max2(*self.ring.front().expect("ring full"))
        }
    }

    /// Record a completed issue (retires the oldest slot when full).
    #[inline]
    pub fn push(&mut self, done: Time) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(done);
        self.horizon = self.horizon.max2(done);
    }

    /// Latest completion observed — the drain point of the window.
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Forget all in-flight accesses (barrier) and restart at `at`.
    pub fn reset(&mut self, at: Time) {
        self.ring.clear();
        self.horizon = at;
    }
}

/// One issuing core: an `mlp`-slot [`IssueRing`] plus the CPU clock.
///
/// A kernel step reads `at = slot()`, issues its accesses at `at`, then
/// calls `retire(at, cost)`. Because `slot() >= now()`, that recurrence
/// is `cpu = at + cost`, so steps that hold no slot issue exactly `cost`
/// apart — the telescoping the STREAM line-step's and [`Core::scan`]'s
/// closed-form replays rely on.
#[derive(Clone, Debug)]
pub(crate) struct Core {
    ring: IssueRing,
    cpu: Time,
}

impl Core {
    pub fn new(mlp: usize, start: Time) -> Core {
        let mut ring = IssueRing::new(mlp);
        ring.reset(start);
        Core { ring, cpu: start }
    }

    /// Earliest time the next access may issue: the CPU clock, or the
    /// oldest outstanding fetch when the window is full.
    #[inline]
    pub fn slot(&self) -> Time {
        self.ring.issue_at(self.cpu)
    }

    /// Timed access issued at `at`, returning its completion. Only an
    /// LLC miss (an MSHR fetch) holds a slot; a hit retires in the
    /// cache. Every kernel except BFS/SSSP and the KV value walk uses
    /// this rule.
    #[inline]
    pub fn load<R: RemoteBackend>(
        &mut self,
        sys: &mut MemSystem<R>,
        at: Time,
        addr: Addr,
        write: bool,
    ) -> Time {
        let (done, missed) = sys.access_info(at, addr, write);
        if missed {
            self.ring.push(done);
        }
        done
    }

    /// Hold a slot until `done`, hit or miss: BFS/SSSP (Graph500's
    /// every-access rule) and the KV value walk.
    #[inline]
    pub fn hold(&mut self, done: Time) {
        self.ring.push(done);
    }

    /// An uninterrupted run of timed accesses, `cost` of CPU time apart:
    /// exactly `at = slot(); load(sys, at, a, write); retire(at, cost)`
    /// per address in turn, at one lookup per run of consecutive
    /// same-line addresses. The run's first access executes; the rest
    /// are guaranteed hits (hits never evict), hold no slot, and so
    /// issue `cost` apart from the post-access `slot()` — replayed in
    /// closed form like the STREAM line-step (DESIGN §10.2). Addresses
    /// need not be sorted or evenly spaced. A loop that issues anything
    /// else between its loads (a gather into another array) is not a
    /// scan: that access could evict the line or outdate its LRU stamp.
    pub fn scan<R: RemoteBackend>(
        &mut self,
        sys: &mut MemSystem<R>,
        addrs: impl IntoIterator<Item = Addr>,
        write: bool,
        cost: Dur,
    ) {
        let map = sys.map;
        let mut addrs = addrs.into_iter().peekable();
        while let Some(a) = addrs.next() {
            let line = map.line_of(a);
            let mut rest = 0u64;
            while addrs.next_if(|&b| map.line_of(b) == line).is_some() {
                rest += 1;
            }
            let at = self.slot();
            let (done, missed, touch) = sys.access_entry(at, a, write);
            if missed {
                self.ring.push(done);
            }
            self.retire(at, cost);
            if rest > 0 {
                let at2 = self.slot();
                sys.retouch_rounds_at(at2, cost, &[(touch, write)], rest);
                self.retire(at2, cost * rest);
            }
        }
    }

    /// Retire a step issued at `at` that costs `cost` of CPU time.
    #[inline]
    pub fn retire(&mut self, at: Time, cost: Dur) {
        self.cpu = self.cpu.max2(at) + cost;
    }

    /// Pure CPU work: no access, no slot.
    #[inline]
    pub fn compute(&mut self, cost: Dur) {
        self.cpu += cost;
    }

    /// The CPU clock.
    #[inline]
    pub fn now(&self) -> Time {
        self.cpu
    }

    /// When all work is done: the window drains or the clock stops,
    /// whichever is later.
    pub fn end(&self) -> Time {
        self.ring.horizon().max2(self.cpu)
    }

    /// Forget all in-flight accesses (barrier) and restart at `t`.
    pub fn reset(&mut self, t: Time) {
        self.ring.reset(t);
        self.cpu = t;
    }
}

/// Key-selection distribution (memtier supports uniform and skewed
/// patterns; skew determines how much of the working set stays hot and
/// therefore LLC-resident).
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipf-distributed popularity with the given exponent (~0.99 is the
    /// classic web-cache skew).
    Zipf { exponent: f64 },
}

/// A sampler for a key distribution, shared by the closed-loop memtier
/// client (`kv::run_memtier`) and the open-loop serving engine so both
/// draw from identical popularity curves.
pub struct KeySampler {
    /// Cumulative popularity over key ranks; empty for uniform.
    cdf: Vec<f64>,
    keys: u64,
}

impl KeySampler {
    pub fn new(dist: KeyDist, keys: u64) -> KeySampler {
        let cdf = match dist {
            KeyDist::Uniform => Vec::new(),
            KeyDist::Zipf { exponent } => {
                assert!(exponent > 0.0, "Zipf exponent must be positive");
                let mut acc = 0.0;
                let mut cdf = Vec::with_capacity(keys as usize);
                for rank in 1..=keys {
                    acc += 1.0 / (rank as f64).powf(exponent);
                    cdf.push(acc);
                }
                let total = acc;
                for v in cdf.iter_mut() {
                    *v /= total;
                }
                cdf
            }
        };
        KeySampler { cdf, keys }
    }

    pub fn sample(&self, rng: &mut Xoshiro256) -> u64 {
        if self.cdf.is_empty() {
            rng.below(self.keys)
        } else {
            let u = rng.next_f64();
            // Rank by popularity; the store's keys are already hashed, so
            // rank == key id is fine (no accidental spatial locality).
            self.cdf.partition_point(|&c| c < u) as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_sampler_is_heavily_skewed() {
        let sampler = KeySampler::new(KeyDist::Zipf { exponent: 1.0 }, 10_000);
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut top100 = 0u64;
        let n = 50_000;
        for _ in 0..n {
            if sampler.sample(&mut rng) < 100 {
                top100 += 1;
            }
        }
        // Under Zipf(1.0) over 10k keys, the top-100 ranks carry ~53% of
        // the mass; uniform would give 1%.
        let share = top100 as f64 / n as f64;
        assert!((0.4..0.65).contains(&share), "top-100 share {share}");
    }

    #[test]
    fn issues_freely_until_full() {
        let r = IssueRing::new(2);
        assert_eq!(r.issue_at(Time::ns(5)), Time::ns(5));
    }

    #[test]
    fn full_ring_waits_for_oldest() {
        let mut r = IssueRing::new(2);
        r.push(Time::ns(100));
        r.push(Time::ns(200));
        assert_eq!(r.issue_at(Time::ZERO), Time::ns(100));
        r.push(Time::ns(300)); // retires the 100
        assert_eq!(r.issue_at(Time::ZERO), Time::ns(200));
    }

    #[test]
    fn horizon_tracks_max_completion() {
        let mut r = IssueRing::new(4);
        r.push(Time::ns(50));
        r.push(Time::ns(20));
        assert_eq!(r.horizon(), Time::ns(50));
        r.reset(Time::us(1));
        assert_eq!(r.horizon(), Time::us(1));
        assert_eq!(r.issue_at(Time::ZERO), Time::ZERO);
    }

    #[test]
    fn core_clock_and_window() {
        let mut c = Core::new(1, Time::ns(10));
        assert_eq!((c.slot(), c.end()), (Time::ns(10), Time::ns(10)));
        c.hold(Time::ns(100));
        // Full window: the next issue waits for the held slot.
        let at = c.slot();
        assert_eq!(at, Time::ns(100));
        c.retire(at, Dur::ns(2));
        c.compute(Dur::ns(3));
        assert_eq!(c.now(), Time::ns(105));
        // A late completion outlives the clock.
        c.hold(Time::ns(500));
        assert_eq!(c.end(), Time::ns(500));
        c.reset(Time::us(1));
        assert_eq!((c.slot(), c.end()), (Time::us(1), Time::us(1)));
    }

    /// Everything a sequence of runs leaves behind, issued through
    /// `Core::scan` or through its definition, a per-address
    /// `slot`/`load`/`retire`.
    fn scan_outcome(line: u64, mlp: usize, runs: &[(Vec<u64>, bool)], scan: bool) -> [String; 4] {
        use thymesim_mem::{shared_dram, AddressMap, CacheConfig, DramConfig, NoRemote, SysTiming};
        thymesim_telemetry::install(thymesim_telemetry::TraceRecorder::with_window(
            0, 50_000, 100_000,
        ));
        let mut sys = MemSystem::new(
            AddressMap::new(1 << 20, 1 << 20, line),
            CacheConfig {
                sets: 8,
                ways: 2,
                line,
            },
            shared_dram(DramConfig::default()),
            SysTiming::default(),
            NoRemote,
        );
        let mut core = Core::new(mlp, Time::ns(3));
        let cost = Dur::ps(700);
        for (offsets, write) in runs {
            let addrs = offsets.iter().map(|&o| Addr(o));
            if scan {
                core.scan(&mut sys, addrs, *write, cost);
            } else {
                for a in addrs {
                    let at = core.slot();
                    core.load(&mut sys, at, a, *write);
                    core.retire(at, cost);
                }
            }
            core.compute(Dur::ns(2));
        }
        let clocks = format!("{:?}", (core.now(), core.slot(), core.end()));
        let stats = format!("{:?} {:?}", sys.stats, sys.cache_stats());
        // A follow-up conflict pass, then the runs' lines again: which of
        // them missed is the order the cache's LRU stamps evicted them in.
        let probes: Vec<(bool, u64)> = (0..16u64)
            .map(|i| 0x8000 + i * line)
            .chain(runs.iter().flat_map(|(o, _)| o.iter().copied()))
            .map(|o| {
                let missed = sys.access_info(core.now(), Addr(o), false).1;
                (missed, sys.cache_stats().writebacks)
            })
            .collect();
        let trace = format!(
            "{:?}",
            thymesim_telemetry::take().expect("recorder installed")
        );
        [clocks, stats, format!("{probes:?}"), trace]
    }

    #[test]
    fn scan_matches_per_element_loads() {
        let seq = |base: u64, stride: u64, n: u64| (0..n).map(|k| base + k * stride).collect();
        // Varint-like irregular strides, crossing several lines.
        let irregular = (0..90u64).map(|k| 0x1000 + k * 3 + k * k % 7).collect();
        let runs: Vec<(Vec<u64>, bool)> = vec![
            (seq(0, 4, 100), false),
            (irregular, false),
            // Line 0 re-visited after a line of the same set.
            (vec![0x0, 0x4, 0x2000, 0x2004, 0x2008, 0x8, 0xc], false),
            (seq(0x3000, 8, 70), true),
            (seq(0x100, 4, 1), true),
            (vec![], false),
            (seq(0x2000, 16, 40), false),
        ];
        for line in [64, 128] {
            for mlp in [1, 2, 16] {
                let definition = scan_outcome(line, mlp, &runs, false);
                assert_eq!(
                    scan_outcome(line, mlp, &runs, true),
                    definition,
                    "line {line}, mlp {mlp}"
                );
            }
        }
    }
}
