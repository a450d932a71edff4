//! NIC transaction credits.
//!
//! The OpenCAPI/ThymesisFlow data path admits a bounded number of
//! outstanding cache-line transactions; the response releases the credit.
//! This window is what makes the measured bandwidth-delay product constant
//! (§IV-B, Fig. 3): in steady state exactly `window × line` bytes are in
//! flight regardless of the injected delay.

use std::collections::VecDeque;
use thymesim_sim::Time;

/// A sliding window of at most `cap` outstanding transactions.
#[derive(Debug)]
pub struct CreditWindow {
    cap: usize,
    /// Completion times (ps), ascending: the front is the next credit
    /// to free.
    inflight: VecDeque<u64>,
    /// Start of the current constant-occupancy segment (telemetry only):
    /// the occupancy timeline is emitted as exact level segments, one per
    /// interval over which `inflight.len()` is unchanged. The final
    /// in-flight tail (after the last admission) is never emitted — a
    /// documented undercount of at most `window × line` transactions'
    /// worth of occupancy-time at the end of the run.
    level_since: Time,
    /// Does this window own the point's `credit.occupancy` counter
    /// track (exclusively claimed: first window constructed records)?
    tracked: bool,
}

impl CreditWindow {
    pub fn new(cap: usize) -> CreditWindow {
        assert!(cap >= 1, "window must admit at least one transaction");
        let tracked = thymesim_telemetry::claim("credit.occupancy") == 0;
        if tracked {
            thymesim_telemetry::counter_bound("credit.occupancy", cap as u64);
        }
        CreditWindow {
            cap,
            inflight: VecDeque::with_capacity(cap + 1),
            level_since: Time::ZERO,
            tracked,
        }
    }

    pub fn outstanding(&self) -> usize {
        self.inflight.len()
    }

    /// Close the constant-occupancy segment ending at `now` (telemetry).
    fn note_level(&mut self, now: Time) {
        if !self.tracked {
            return;
        }
        let now = now.max2(self.level_since);
        thymesim_telemetry::counter_level(
            "credit.occupancy",
            self.level_since,
            now,
            self.inflight.len() as u64,
        );
        self.level_since = now;
    }

    /// Earliest time at or after `at` when a credit is available. Frees
    /// every credit whose transaction completes by that time.
    pub fn acquire(&mut self, at: Time) -> Time {
        // Retire transactions that completed by `at`, one at a time in
        // completion order so the occupancy timeline is exact.
        while let Some(&done) = self.inflight.front() {
            if done <= at.as_ps() {
                self.note_level(Time(done));
                self.inflight.pop_front();
            } else {
                break;
            }
        }
        let t = if self.inflight.len() < self.cap {
            at
        } else {
            let done = *self.inflight.front().expect("window non-empty");
            self.note_level(Time(done));
            self.inflight.pop_front();
            Time(done).max2(at)
        };
        self.note_level(t);
        thymesim_telemetry::latency("credit.wait", t - at);
        // Blame the credit stall on whoever holds the window; the caller
        // records this admission's own occupancy once it knows `done`.
        thymesim_telemetry::blame_wait("credit", at, t);
        thymesim_telemetry::counter("credit.outstanding", t, self.inflight.len() as f64);
        t
    }

    /// Register the completion time of the transaction just admitted.
    ///
    /// Completions through one FIFO return link arrive in order, so the
    /// append is the common case; an earlier one is inserted in place.
    pub fn complete_at(&mut self, done: Time) {
        let done = done.as_ps();
        if self.inflight.back().is_none_or(|&last| last <= done) {
            self.inflight.push_back(done);
        } else {
            let i = self.inflight.partition_point(|&d| d <= done);
            self.inflight.insert(i, done);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use thymesim_sim::Dur;

    #[test]
    fn admits_freely_below_capacity() {
        let mut w = CreditWindow::new(4);
        for i in 0..4u64 {
            let t = w.acquire(Time::ns(i));
            assert_eq!(t, Time::ns(i), "no wait below capacity");
            w.complete_at(Time::us(100));
        }
        assert_eq!(w.outstanding(), 4);
    }

    #[test]
    fn full_window_waits_for_earliest_completion() {
        let mut w = CreditWindow::new(2);
        w.acquire(Time::ZERO);
        w.complete_at(Time::ns(100));
        w.acquire(Time::ZERO);
        w.complete_at(Time::ns(50));
        // Window full; next admission waits for the *earliest* completion (50).
        let t = w.acquire(Time::ZERO);
        assert_eq!(t, Time::ns(50));
        w.complete_at(Time::ns(200));
        let t2 = w.acquire(Time::ZERO);
        assert_eq!(t2, Time::ns(100));
    }

    #[test]
    fn completed_transactions_free_credits() {
        let mut w = CreditWindow::new(1);
        w.acquire(Time::ZERO);
        w.complete_at(Time::ns(10));
        // At t=20 the old transaction already completed: no wait.
        let t = w.acquire(Time::ns(20));
        assert_eq!(t, Time::ns(20));
        assert_eq!(w.outstanding(), 0, "retired transaction must be gone");
    }

    #[test]
    fn steady_state_throughput_is_window_over_latency() {
        // window W, fixed latency L: admissions settle at rate W/L.
        let w_cap = 8usize;
        let lat = Dur::us(1);
        let mut w = CreditWindow::new(w_cap);
        let mut last_admit = Time::ZERO;
        let n = 1000;
        for _ in 0..n {
            let t = w.acquire(Time::ZERO);
            last_admit = t;
            w.complete_at(t + lat);
        }
        // n admissions take ≈ (n / W) × L.
        let expect = lat.as_secs_f64() * (n as f64 / w_cap as f64);
        let got = last_admit.as_secs_f64();
        assert!(
            (got / expect - 1.0).abs() < 0.02,
            "expected ~{expect}s, got {got}s"
        );
    }

    /// Reference window for the differential test: completion times in
    /// a min-heap, which needs no ordering of `complete_at` calls.
    struct HeapWindow {
        cap: usize,
        inflight: BinaryHeap<Reverse<u64>>,
    }

    impl HeapWindow {
        fn acquire(&mut self, at: u64) -> u64 {
            while self.inflight.peek().is_some_and(|&Reverse(d)| d <= at) {
                self.inflight.pop();
            }
            if self.inflight.len() < self.cap {
                at
            } else {
                let Reverse(done) = self.inflight.pop().expect("window non-empty");
                done.max(at)
            }
        }
    }

    proptest! {
        /// Admission times equal the min-heap oracle's for arbitrary
        /// arrivals and completions, in order or not.
        #[test]
        fn prop_ring_admits_like_heap(
            cap in 1usize..12,
            // Each op packs (arrival < 5000, latency < 3000, monotone?).
            ops in proptest::collection::vec(0u64..2 * 3_000 * 5_000, 1..300),
        ) {
            let mut ring = CreditWindow::new(cap);
            let mut heap = HeapWindow { cap, inflight: BinaryHeap::new() };
            let mut last_done = 0u64;
            for (i, &op) in ops.iter().enumerate() {
                let (at, lat, monotone) = (op % 5_000, op / 5_000 % 3_000, op >= 3_000 * 5_000);
                let t = ring.acquire(Time(at));
                prop_assert_eq!(t.as_ps(), heap.acquire(at), "admission {}", i);
                // Monotone completions take the append, the rest the
                // sorted insert.
                let done = if monotone { last_done.max(t.as_ps()) + lat } else { t.as_ps() + lat };
                last_done = last_done.max(done);
                ring.complete_at(Time(done));
                heap.inflight.push(Reverse(done));
                prop_assert_eq!(ring.outstanding(), heap.inflight.len());
            }
        }
    }

    #[test]
    fn admissions_never_go_backwards() {
        let mut w = CreditWindow::new(3);
        for i in 0..100u64 {
            let at = Time::ns(i * 7 % 50); // deliberately jittery arrivals
            let t = w.acquire(at);
            // Admission times can permute with jittery arrivals, but an
            // admission is never earlier than its own request.
            assert!(t >= at);
            w.complete_at(t + Dur::ns(100));
            assert!(w.outstanding() <= 3, "the window never overfills");
        }
    }
}
