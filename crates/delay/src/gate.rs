//! The cycle-level delay-injection module.
//!
//! This is the paper's equation (1), reproduced bit-for-bit:
//!
//! ```text
//! READY_NEW = READY_OLD & (COUNTER % PERIOD == 0)
//! ```
//!
//! where `COUNTER` is the number of FPGA clock cycles since system start
//! and `READY_OLD` is the unmodified downstream READY. The module sits
//! between the routing and multiplexer blocks of the borrower-side NIC
//! egress; VALID and TDATA pass through untouched, so at most one beat is
//! forwarded every `PERIOD` cycles — *aligned to absolute multiples of
//! `PERIOD`*, a detail that matters for the analytic model's equivalence
//! proof.

use thymesim_axi::stage::{passthrough_offer, Flags, Offers, Stage, NO_FLAGS, NO_OFFERS};

/// Supplies the `PERIOD` value for a given cycle, enabling the paper's
/// future-work extension (varying delay within a run) without changing the
/// gate logic.
pub trait PeriodSource {
    /// PERIOD in effect at `cycle`; must be ≥ 1.
    fn period_at(&self, cycle: u64) -> u64;

    /// `Some(p)` when PERIOD is `p` at every cycle. A constant source
    /// lets [`crate::AnalyticGate`] grant without re-aligning.
    #[inline]
    fn constant(&self) -> Option<u64> {
        None
    }
}

/// The paper's configuration: one constant PERIOD for the whole run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConstPeriod(pub u64);

impl PeriodSource for ConstPeriod {
    #[inline]
    fn period_at(&self, _cycle: u64) -> u64 {
        self.0
    }

    #[inline]
    fn constant(&self) -> Option<u64> {
        Some(self.0)
    }
}

/// Step schedule: `(from_cycle, period)` pairs, sorted by `from_cycle`.
/// Covers the paper's §V discussion of delay varying at short timescales.
#[derive(Clone, Debug)]
pub struct PiecewisePeriod {
    steps: Vec<(u64, u64)>,
}

impl PiecewisePeriod {
    /// `steps` must start at cycle 0 and be strictly increasing in cycle.
    pub fn new(steps: Vec<(u64, u64)>) -> PiecewisePeriod {
        assert!(!steps.is_empty(), "empty schedule");
        assert_eq!(steps[0].0, 0, "schedule must start at cycle 0");
        assert!(
            steps.windows(2).all(|w| w[0].0 < w[1].0),
            "schedule cycles must be strictly increasing"
        );
        assert!(steps.iter().all(|&(_, p)| p >= 1), "PERIOD must be >= 1");
        PiecewisePeriod { steps }
    }
}

impl PeriodSource for PiecewisePeriod {
    #[inline]
    fn period_at(&self, cycle: u64) -> u64 {
        match self.steps.binary_search_by_key(&cycle, |&(c, _)| c) {
            Ok(i) => self.steps[i].1,
            Err(i) => self.steps[i - 1].1,
        }
    }
}

/// Cycle-accurate delay gate: an AXI4-Stream [`Stage`] implementing
/// equation (1). No beat is ever stored; TDATA passes straight through.
///
/// The module is a two-port block: its slave-side READY is the paper's
/// `READY_NEW = READY_OLD & (COUNTER % PERIOD == 0)`, and — as in any
/// consistent hardware realization — the master-side VALID is exposed only
/// in the same cycles, so both handshakes of the wire fire together. If a
/// beat was exposed in an open cycle but the downstream stalled, VALID is
/// *held* (AXI forbids retraction) and the transfer completes as soon as
/// the downstream becomes ready. In the prototype's operating regime the
/// downstream TX path never backpressures, making this identical to a
/// strict reading of equation (1); the analytic model's equivalence tests
/// run in that regime.
pub struct CycleDelayGate<P: PeriodSource> {
    period: P,
    /// A beat was exposed downstream but not yet accepted (VALID held).
    pending: bool,
    /// Beats forwarded (for throughput assertions in tests).
    pub forwarded: u64,
    /// Cycles in which upstream was valid but the gate held READY low.
    pub gated_cycles: u64,
}

impl<P: PeriodSource> CycleDelayGate<P> {
    pub fn new(period: P) -> CycleDelayGate<P> {
        CycleDelayGate {
            period,
            pending: false,
            forwarded: 0,
            gated_cycles: 0,
        }
    }

    /// `COUNTER % PERIOD == 0` — the cycle admits a transfer.
    #[inline]
    fn open(&self, cycle: u64) -> bool {
        cycle.is_multiple_of(self.period.period_at(cycle))
    }

    #[inline]
    fn exposing(&self, cycle: u64) -> bool {
        self.open(cycle) || self.pending
    }
}

impl<P: PeriodSource> Stage for CycleDelayGate<P> {
    fn ports(&self) -> (usize, usize) {
        (1, 1)
    }

    fn offer(&self, cycle: u64, inputs: &Offers) -> Offers {
        if self.exposing(cycle) {
            passthrough_offer(inputs)
        } else {
            NO_OFFERS
        }
    }

    fn ready(&self, cycle: u64, _inputs: &Offers, out_ready: &Flags) -> Flags {
        let mut r = NO_FLAGS;
        // READY_NEW = READY_OLD & (COUNTER % PERIOD == 0), with VALID-hold.
        r[0] = out_ready[0] && self.exposing(cycle);
        r
    }

    fn clock(&mut self, cycle: u64, inputs: &Offers, fired_in: &Offers, _fired_out: &Flags) {
        let exposed = inputs[0].is_some() && self.exposing(cycle);
        if fired_in[0].is_some() {
            self.forwarded += 1;
            self.pending = false;
        } else {
            if inputs[0].is_some() {
                self.gated_cycles += 1;
            }
            self.pending = exposed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thymesim_axi::{Beat, Consumer, Producer, ReadyPattern, StreamSim};

    fn run_gate(period: u64, n_beats: u64, cycles: u64) -> Vec<(u64, Beat)> {
        let mut sim = StreamSim::new();
        let p = sim.add(Producer::new((0..n_beats).map(Beat::new)));
        let g = sim.add(CycleDelayGate::new(ConstPeriod(period)));
        let (c, rec) = Consumer::new(ReadyPattern::Always);
        let c = sim.add(c);
        sim.connect(p, 0, g, 0);
        sim.connect(g, 0, c, 0);
        sim.run(cycles);
        let r = rec.borrow().clone();
        r
    }

    #[test]
    fn period_one_is_transparent() {
        let got = run_gate(1, 50, 60);
        assert_eq!(got.len(), 50);
        // Back-to-back beats every cycle once flowing.
        for w in got.windows(2) {
            assert_eq!(w[1].0 - w[0].0, 1);
        }
    }

    #[test]
    fn grants_align_to_absolute_multiples() {
        for period in [2u64, 3, 7, 16, 100] {
            let got = run_gate(period, 10, period * 15 + 10);
            assert_eq!(got.len(), 10, "period {period} lost beats");
            for (cycle, _) in &got {
                assert_eq!(
                    cycle % period,
                    0,
                    "grant at cycle {cycle} not aligned to PERIOD={period}"
                );
            }
            for w in got.windows(2) {
                assert_eq!(
                    w[1].0 - w[0].0,
                    period,
                    "saturated gate must grant exactly every PERIOD"
                );
            }
        }
    }

    #[test]
    fn throughput_is_one_over_period() {
        let period = 5;
        let got = run_gate(period, 40, 5 * 40 + 20);
        assert_eq!(got.len(), 40);
        let span = got.last().unwrap().0 - got.first().unwrap().0;
        let bpc = (got.len() - 1) as f64 / span as f64;
        assert!((bpc - 1.0 / period as f64).abs() < 1e-9, "bpc={bpc}");
    }

    #[test]
    fn respects_downstream_backpressure() {
        // Downstream ready every 3 cycles, gate period 2. A beat is exposed
        // at an open (even) cycle, holds VALID through the stall, and fires
        // at the next downstream-ready cycle: transfers land on multiples
        // of 3, never closer together than PERIOD.
        let mut sim = StreamSim::new();
        let p = sim.add(Producer::new((0..8).map(Beat::new)));
        let g = sim.add(CycleDelayGate::new(ConstPeriod(2)));
        let (c, rec) = Consumer::new(ReadyPattern::EveryK(3));
        let c = sim.add(c);
        sim.connect(p, 0, g, 0);
        sim.connect(g, 0, c, 0);
        sim.run(100);
        let got = rec.borrow();
        assert_eq!(got.len(), 8);
        for (cycle, _) in got.iter() {
            assert_eq!(cycle % 3, 0, "fired at {cycle} with downstream not ready");
        }
        for w in got.windows(2) {
            assert!(w[1].0 - w[0].0 >= 2, "beats closer than PERIOD");
        }
        assert!(sim.violations().is_empty());
    }

    #[test]
    fn gated_cycles_are_counted() {
        let mut sim = StreamSim::new();
        let p = sim.add(Producer::new((0..4).map(Beat::new)));
        let g = sim.add(CycleDelayGate::new(ConstPeriod(10)));
        let (c, _rec) = Consumer::new(ReadyPattern::Always);
        let c = sim.add(c);
        sim.connect(p, 0, g, 0);
        sim.connect(g, 0, c, 0);
        sim.run(45);
        // 4 beats forwarded at cycles 0,10,20,30; most other cycles gated.
        // Reach into the sim to check counters via a fresh gate replay:
        // instead assert through the recorded behaviour of a direct gate.
        let mut gate = CycleDelayGate::new(ConstPeriod(10));
        use thymesim_axi::stage::{NO_FLAGS, NO_OFFERS};
        let mut ins = NO_OFFERS;
        ins[0] = Some(Beat::new(1));
        // cycle 1: valid input, not fired -> gated
        gate.clock(1, &ins, &NO_OFFERS, &NO_FLAGS);
        assert_eq!(gate.gated_cycles, 1);
        let mut fired = NO_OFFERS;
        fired[0] = Some(Beat::new(1));
        gate.clock(10, &ins, &fired, &NO_FLAGS);
        assert_eq!(gate.forwarded, 1);
    }

    #[test]
    fn piecewise_schedule_switches_period() {
        let sched = PiecewisePeriod::new(vec![(0, 2), (100, 10)]);
        assert_eq!(sched.period_at(0), 2);
        assert_eq!(sched.period_at(99), 2);
        assert_eq!(sched.period_at(100), 10);
        assert_eq!(sched.period_at(5000), 10);

        let mut sim = StreamSim::new();
        let p = sim.add(Producer::new((0..60).map(Beat::new)));
        let g = sim.add(CycleDelayGate::new(PiecewisePeriod::new(vec![
            (0, 2),
            (100, 10),
        ])));
        let (c, rec) = Consumer::new(ReadyPattern::Always);
        let c = sim.add(c);
        sim.connect(p, 0, g, 0);
        sim.connect(g, 0, c, 0);
        sim.run(400);
        let got = rec.borrow();
        assert_eq!(got.len(), 60);
        for (cycle, _) in got.iter() {
            if *cycle < 100 {
                assert_eq!(cycle % 2, 0);
            } else {
                assert_eq!(cycle % 10, 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "start at cycle 0")]
    fn piecewise_must_start_at_zero() {
        let _ = PiecewisePeriod::new(vec![(5, 2)]);
    }
}
