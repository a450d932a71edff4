//! Transaction-level (analytic) model of the delay gate.
//!
//! Full workloads issue hundreds of millions of beats; simulating every
//! FPGA cycle would dominate run time. [`AnalyticGate`] computes each
//! beat's grant time in O(1) and is *provably equivalent* to
//! [`crate::gate::CycleDelayGate`] when the downstream is ready (the NIC's
//! TX FIFO never backpressures in the prototype — the 100 Gb/s link drains
//! a beat every ~2.6 cycles while the gate emits at most one per PERIOD):
//!
//! * a beat offered at cycle `a` fires at the smallest multiple of
//!   `PERIOD` that is ≥ `a` and strictly greater than the previous grant;
//! * since consecutive multiples differ by exactly `PERIOD`, that is
//!   `align_up(max(a, prev_grant + 1), PERIOD)`.
//!
//! For a constant PERIOD `p` every grant `g` is a multiple of `p`, so the
//! next multiple after it is `g + p`: a beat offered at `a ≤ g + p` fires
//! at `g + p` with no division, and any later beat at `align_up(a, p)`
//! (just `a` when `p = 1`). In the time domain the test is
//! `at ≤ time_of_cycle(g + p)`, which also skips rounding `at` up to a
//! cycle edge. Only a non-constant [`PeriodSource`] takes the re-align
//! loop.
//!
//! The equivalence is additionally enforced by property tests against the
//! cycle-accurate gate (see `tests` below).

use crate::gate::PeriodSource;
use thymesim_sim::{Clock, Time};

/// O(1) grant-time calculator mirroring equation (1).
#[derive(Clone, Debug)]
pub struct AnalyticGate<P: PeriodSource> {
    period: P,
    clock: Clock,
    /// Cycle of the most recent grant, or `None` before the first.
    last_grant: Option<u64>,
    /// Beats granted so far.
    pub granted: u64,
    /// Does this gate own the point's `gate.busy` / `gate.queue_depth`
    /// counter tracks (exclusively claimed: first gate constructed
    /// records, so busy fractions stay within [0, 1] when several
    /// engines share one point)?
    tracked: bool,
}

#[inline]
fn align_up(x: u64, p: u64) -> u64 {
    x.div_ceil(p) * p
}

impl<P: PeriodSource> AnalyticGate<P> {
    pub fn new(period: P, clock: Clock) -> AnalyticGate<P> {
        AnalyticGate {
            period,
            clock,
            last_grant: None,
            granted: 0,
            tracked: thymesim_telemetry::claim("gate.busy") == 0,
        }
    }

    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Grant cycle for a beat that becomes valid at absolute cycle `a`.
    #[inline]
    pub fn grant_cycle(&mut self, a: u64) -> u64 {
        let slot = match self.period.constant() {
            Some(p) => match self.last_grant {
                Some(g) if a <= g + p => g + p,
                _ if p == 1 => a,
                _ => align_up(a, p),
            },
            None => self.realign(a),
        };
        self.last_grant = Some(slot);
        self.granted += 1;
        slot
    }

    /// Grant cycle under a PERIOD that may change over time.
    fn realign(&self, a: u64) -> u64 {
        let earliest = match self.last_grant {
            Some(g) => a.max(g + 1),
            None => a,
        };
        // PERIOD may vary over time (piecewise schedules); the period in
        // effect at the earliest candidate slot decides the alignment.
        // For step schedules we iterate: aligning can cross a boundary into
        // a region with a different period, so re-align until stable.
        let mut slot = align_up(earliest, self.period.period_at(earliest));
        loop {
            let p = self.period.period_at(slot);
            let aligned = align_up(slot.max(earliest), p);
            if aligned == slot && slot.is_multiple_of(p) {
                break;
            }
            slot = aligned;
        }
        slot
    }

    /// Time-domain wrapper: the instant the beat crosses the gate, for a
    /// beat arriving (valid) at instant `at`.
    ///
    /// The beat is granted at a cycle *boundary*; it lands downstream one
    /// full cycle later (the transfer occupies the granted cycle).
    #[inline]
    pub fn pass_one(&mut self, at: Time) -> Time {
        // The cycle of the first edge at or after `at`; a beat offered by
        // the next constant-PERIOD slot takes that slot whatever its
        // exact cycle, so the slot itself stands in without a division.
        let a = match (self.period.constant(), self.last_grant) {
            (Some(p), Some(g)) if at <= self.clock.time_of_cycle(g + p) => g + p,
            _ => at.as_ps().div_ceil(self.clock.cycle().as_ps()),
        };
        let g = self.grant_cycle(a);
        let t = self.clock.time_of_cycle(g + 1);
        // Injected-delay accounting: arrival-to-crossing per beat.
        thymesim_telemetry::latency("gate.delay", t - at);
        // Blame the wait on whoever held the gate, then record our own
        // grant cycle as occupancy for beats queued behind us.
        thymesim_telemetry::blame_wait("gate", at, t);
        thymesim_telemetry::blame_occupy("gate", self.clock.time_of_cycle(g), t);
        if self.tracked {
            // Each waiting beat is a unit level over [arrival, crossing);
            // overlapping segments sum to the instantaneous queue depth.
            thymesim_telemetry::counter_level("gate.queue_depth", at, t, 1);
            // The granted cycle occupies the gate (grants are ≥ PERIOD
            // apart, so the busy intervals never overlap).
            thymesim_telemetry::counter_busy("gate.busy", self.clock.time_of_cycle(g), t);
        }
        t
    }

    /// Pass a multi-beat message (e.g. a 3-beat write packet): beats become
    /// valid back-to-back; returns the time the **last** beat has crossed.
    pub fn pass_message(&mut self, at: Time, beats: u64) -> Time {
        assert!(beats >= 1);
        let mut done = at;
        for _ in 0..beats {
            done = self.pass_one(done.max(at));
        }
        done
    }

    /// Reset grant history (new run on the same configuration).
    pub fn reset(&mut self) {
        self.last_grant = None;
        self.granted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{ConstPeriod, CycleDelayGate, PiecewisePeriod};
    use proptest::prelude::*;
    use thymesim_axi::{Beat, Consumer, Producer, ReadyPattern, StreamSim};

    fn fpga() -> Clock {
        Clock::mhz(250)
    }

    #[test]
    fn grant_is_aligned_and_spaced() {
        let mut g = AnalyticGate::new(ConstPeriod(7), fpga());
        let mut prev = None;
        for a in [0u64, 1, 2, 3, 50, 50, 50, 51, 200] {
            let gc = g.grant_cycle(a);
            assert_eq!(gc % 7, 0);
            assert!(gc >= a);
            if let Some(p) = prev {
                assert!(gc >= p + 7);
            }
            prev = Some(gc);
        }
    }

    #[test]
    fn period_one_grants_immediately() {
        let mut g = AnalyticGate::new(ConstPeriod(1), fpga());
        assert_eq!(g.grant_cycle(0), 0);
        assert_eq!(g.grant_cycle(0), 1, "same-cycle second beat waits a cycle");
        assert_eq!(g.grant_cycle(10), 10);
    }

    #[test]
    fn pass_one_converts_time_correctly() {
        let mut g = AnalyticGate::new(ConstPeriod(10), fpga());
        // Arrival at 1 ns -> next edge cycle 1 -> grant cycle 10 -> crossed
        // at start of cycle 11 = 44 ns.
        assert_eq!(g.pass_one(Time::ns(1)), Time::ns(44));
    }

    #[test]
    fn pass_message_beats_are_serialized() {
        let mut g = AnalyticGate::new(ConstPeriod(5), fpga());
        let done = g.pass_message(Time::ZERO, 3);
        // Grants at cycles 0,5,10; last crossed at cycle 11 => 44ns.
        assert_eq!(done, Time::ns(44));
        assert_eq!(g.granted, 3);
    }

    #[test]
    fn reset_clears_history() {
        let mut g = AnalyticGate::new(ConstPeriod(5), fpga());
        let a = g.pass_one(Time::ZERO);
        g.reset();
        let b = g.pass_one(Time::ZERO);
        assert_eq!(a, b);
    }

    /// Replays the joint producer/gate semantics analytically: beat k is
    /// offered at the first `gap`-aligned cycle with the producer idle.
    fn analytic_fire_cycles(periods: &dyn PeriodSource, gap: u64, n: u64) -> Vec<u64> {
        struct Wrap<'a>(&'a dyn PeriodSource);
        impl PeriodSource for Wrap<'_> {
            fn period_at(&self, c: u64) -> u64 {
                self.0.period_at(c)
            }
        }
        let mut g = AnalyticGate::new(Wrap(periods), fpga());
        let mut fires = Vec::with_capacity(n as usize);
        let mut free_at = 0u64; // first cycle the producer can latch a new beat
        for _ in 0..n {
            let arrival = free_at.div_ceil(gap) * gap; // first gap-aligned cycle >= free_at
            let fire = g.grant_cycle(arrival);
            fires.push(fire);
            free_at = fire + 1;
        }
        fires
    }

    fn cycle_fire_cycles<P: PeriodSource + 'static>(
        period: P,
        gap: u64,
        n: u64,
        cycles: u64,
    ) -> Vec<u64> {
        let mut sim = StreamSim::new();
        let p = sim.add(Producer::new((0..n).map(Beat::new)).with_gap(gap));
        let g = sim.add(CycleDelayGate::new(period));
        let (c, rec) = Consumer::new(ReadyPattern::Always);
        let c = sim.add(c);
        sim.connect(p, 0, g, 0);
        sim.connect(g, 0, c, 0);
        sim.run(cycles);
        let r = rec.borrow().iter().map(|(cy, _)| *cy).collect();
        r
    }

    #[test]
    fn analytic_matches_cycle_level_basic() {
        for period in [1u64, 2, 3, 5, 8, 13, 50] {
            for gap in [1u64, 2, 3, 7] {
                let n = 25;
                let want = cycle_fire_cycles(ConstPeriod(period), gap, n, period * n * 3 + 200);
                let got = analytic_fire_cycles(&ConstPeriod(period), gap, n);
                assert_eq!(
                    want.len(),
                    n as usize,
                    "cycle sim did not drain (period={period} gap={gap})"
                );
                assert_eq!(got, want, "mismatch at period={period} gap={gap}");
            }
        }
    }

    #[test]
    fn analytic_matches_cycle_level_piecewise() {
        let mk = || PiecewisePeriod::new(vec![(0, 3), (60, 11), (200, 1)]);
        let n = 40;
        let want = cycle_fire_cycles(mk(), 2, n, 2000);
        let got = analytic_fire_cycles(&mk(), 2, n);
        assert_eq!(want.len(), n as usize);
        assert_eq!(got, want);
    }

    proptest! {
        /// Cycle-accurate and analytic gates agree for arbitrary
        /// (PERIOD, producer gap, beat count).
        #[test]
        fn prop_analytic_equals_cycle_level(
            period in 1u64..64,
            gap in 1u64..16,
            n in 1u64..60,
        ) {
            let horizon = (period.max(gap)) * n * 3 + 500;
            let want = cycle_fire_cycles(ConstPeriod(period), gap, n, horizon);
            let got = analytic_fire_cycles(&ConstPeriod(period), gap, n);
            prop_assert_eq!(want.len(), n as usize, "cycle sim incomplete");
            prop_assert_eq!(got, want);
        }

        /// The constant-PERIOD shortcuts give the general re-align path's
        /// crossing times for arbitrary unsorted picosecond arrivals,
        /// before and after a reset. Each op picks its arrival: anywhere;
        /// one picosecond before, on or after the edge of one of the
        /// next `2p + 2` cycles past the latest grant (where the
        /// shortcut's `a ≤ g + p` test flips); or before that grant.
        #[test]
        fn prop_const_shortcut_equals_general_path(
            // PERIOD 1 (the vanilla prototype) skips the align step.
            period in prop_oneof![1u64..3, 1u64..300],
            ops in proptest::collection::vec(0u64..1 << 40, 1..150),
            reset_at in 0usize..150,
        ) {
            let c = fpga().cycle().as_ps();
            let mut fast = AnalyticGate::new(ConstPeriod(period), fpga());
            let mut general = AnalyticGate::new(PiecewisePeriod::new(vec![(0, period)]), fpga());
            let mut last_grant = 0u64;
            for (i, &op) in ops.iter().enumerate() {
                if i == reset_at {
                    fast.reset();
                    general.reset();
                }
                let x = op / 3;
                let ps = match op % 3 {
                    0 => x % (1 << 28),
                    1 => {
                        let edge = (last_grant + x % (2 * period + 3)) * c;
                        (edge + 1).saturating_sub(x / 1024 % 3)
                    }
                    _ => x % (last_grant * c + 1),
                };
                let at = Time::ps(ps);
                let (f, g) = (fast.pass_one(at), general.pass_one(at));
                prop_assert_eq!(f, g, "arrival {} at {} ps", i, ps);
                // A beat crosses one cycle after its grant.
                last_grant = f.as_ps() / c - 1;
            }
            prop_assert_eq!(fast.granted, general.granted);
        }

        /// Grant invariants hold for arbitrary arrival sequences.
        #[test]
        fn prop_grant_invariants(
            period in 1u64..1000,
            arrivals in proptest::collection::vec(0u64..10_000, 1..100),
        ) {
            let mut sorted = arrivals.clone();
            sorted.sort_unstable();
            let mut g = AnalyticGate::new(ConstPeriod(period), fpga());
            let mut prev: Option<u64> = None;
            for a in sorted {
                let gc = g.grant_cycle(a);
                prop_assert_eq!(gc % period, 0, "misaligned grant");
                prop_assert!(gc >= a, "granted before arrival");
                if let Some(p) = prev {
                    prop_assert!(gc >= p + period, "grants too close");
                }
                prev = Some(gc);
            }
        }
    }
}
