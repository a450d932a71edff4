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
//! `Core::load` or `Core::hold`.

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
    pub fn issue_at(&self, cpu_ready: Time) -> Time {
        if self.ring.len() < self.cap {
            cpu_ready
        } else {
            cpu_ready.max2(*self.ring.front().expect("ring full"))
        }
    }

    /// Record a completed issue (retires the oldest slot when full).
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
/// apart — the telescoping the STREAM line-step's closed-form replay
/// relies on.
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
}
