//! Simulated time.
//!
//! All of thymesim runs on a single virtual timeline measured in integer
//! **picoseconds**. Picoseconds let us mix clock domains exactly (a 250 MHz
//! FPGA cycle is 4 000 ps, a 2 GHz CPU cycle is 500 ps, a 64 B flit on a
//! 100 Gb/s link is 5 120 ps) without accumulating rounding error. A `u64`
//! of picoseconds covers ~213 simulated days, far beyond any experiment.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated timeline, in picoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of simulated time, in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

pub const NS: u64 = 1_000;
pub const US: u64 = 1_000_000;
pub const MS: u64 = 1_000_000_000;
pub const SEC: u64 = 1_000_000_000_000;

impl Time {
    pub const ZERO: Time = Time(0);
    /// A sentinel instant later than any reachable simulation time.
    pub const NEVER: Time = Time(u64::MAX);

    #[inline]
    pub fn ps(v: u64) -> Time {
        Time(v)
    }
    #[inline]
    pub fn ns(v: u64) -> Time {
        Time(v * NS)
    }
    #[inline]
    pub fn us(v: u64) -> Time {
        Time(v * US)
    }
    #[inline]
    pub fn ms(v: u64) -> Time {
        Time(v * MS)
    }
    #[inline]
    pub fn secs(v: u64) -> Time {
        Time(v * SEC)
    }

    #[inline]
    pub fn as_ps(self) -> u64 {
        self.0
    }
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / NS as f64
    }
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / US as f64
    }
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / MS as f64
    }
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / SEC as f64
    }

    /// Saturating difference `self - earlier` (zero if `earlier` is later).
    #[inline]
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    #[inline]
    pub fn min2(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }
    #[inline]
    pub fn max2(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Dur {
    pub const ZERO: Dur = Dur(0);

    #[inline]
    pub fn ps(v: u64) -> Dur {
        Dur(v)
    }
    #[inline]
    pub fn ns(v: u64) -> Dur {
        Dur(v * NS)
    }
    #[inline]
    pub fn us(v: u64) -> Dur {
        Dur(v * US)
    }
    #[inline]
    pub fn ms(v: u64) -> Dur {
        Dur(v * MS)
    }
    #[inline]
    pub fn secs(v: u64) -> Dur {
        Dur(v * SEC)
    }
    /// Build a duration from a (possibly fractional) count of nanoseconds.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Dur {
        debug_assert!(ns >= 0.0);
        Dur((ns * NS as f64).round() as u64)
    }

    #[inline]
    pub fn as_ps(self) -> u64 {
        self.0
    }
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / NS as f64
    }
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / US as f64
    }
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / MS as f64
    }
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / SEC as f64
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Dur) -> Time {
        Time(self.0 + rhs.0)
    }
}
impl AddAssign<Dur> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}
impl Sub<Dur> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0 - rhs.0)
    }
}
impl Sub<Time> for Time {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Time) -> Dur {
        Dur(self.0 - rhs.0)
    }
}
impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}
impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}
impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0 - rhs.0)
    }
}
impl SubAssign for Dur {
    #[inline]
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 -= rhs.0;
    }
}
impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0 * rhs)
    }
}
impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}
impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        Dur(iter.map(|d| d.0).sum())
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", fmt_ps(self.0))
    }
}
impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&fmt_ps(self.0))
    }
}
impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&fmt_ps(self.0))
    }
}
impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&fmt_ps(self.0))
    }
}

/// Human-readable rendering of a picosecond count with an adaptive unit.
fn fmt_ps(ps: u64) -> String {
    if ps >= SEC {
        format!("{:.3}s", ps as f64 / SEC as f64)
    } else if ps >= MS {
        format!("{:.3}ms", ps as f64 / MS as f64)
    } else if ps >= US {
        format!("{:.3}us", ps as f64 / US as f64)
    } else if ps >= NS {
        format!("{:.3}ns", ps as f64 / NS as f64)
    } else {
        format!("{}ps", ps)
    }
}

/// A fixed-frequency clock domain used to convert between cycle counts and
/// picoseconds. Frequencies are stored as an exact picosecond cycle length,
/// so domains like 250 MHz (4 000 ps) round-trip losslessly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Clock {
    cycle_ps: u64,
}

impl Clock {
    /// A clock with the given cycle time.
    pub fn from_cycle(cycle: Dur) -> Clock {
        assert!(cycle.0 > 0, "clock cycle must be positive");
        Clock { cycle_ps: cycle.0 }
    }

    /// A clock with the given frequency in MHz. The frequency must divide
    /// 10^6 MHz·ps evenly (all realistic FPGA/CPU frequencies do).
    pub fn mhz(mhz: u64) -> Clock {
        assert!(mhz > 0, "clock frequency must be positive");
        assert_eq!(
            1_000_000 % mhz,
            0,
            "frequency {mhz} MHz does not give an integral picosecond period"
        );
        Clock {
            cycle_ps: 1_000_000 / mhz,
        }
    }

    #[inline]
    pub fn cycle(self) -> Dur {
        Dur(self.cycle_ps)
    }

    /// Number of *completed* cycles at instant `t` (cycle 0 spans [0, cycle)).
    #[inline]
    pub fn cycles_at(self, t: Time) -> u64 {
        t.0 / self.cycle_ps
    }

    /// The instant at which cycle `c` begins.
    #[inline]
    pub fn time_of_cycle(self, c: u64) -> Time {
        Time(c * self.cycle_ps)
    }

    /// Duration of `n` cycles.
    #[inline]
    pub fn cycles(self, n: u64) -> Dur {
        Dur(n * self.cycle_ps)
    }

    /// The first cycle boundary at or after `t`.
    #[inline]
    pub fn next_edge(self, t: Time) -> Time {
        let c = t.0.div_ceil(self.cycle_ps);
        Time(c * self.cycle_ps)
    }
}

// Serde impls are written by hand: `Time`/`Dur` serialize transparently
// as raw picosecond counts and `Clock` as its cycle length, so configs
// hash and round-trip as plain integers.
impl serde::Serialize for Time {
    fn to_value(&self) -> serde::Value {
        serde::Value::U64(self.0)
    }
}

impl serde::Deserialize for Time {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        v.as_u64()
            .map(Time)
            .ok_or_else(|| serde::Error::msg("Time: expected picosecond count"))
    }
}

impl serde::Serialize for Dur {
    fn to_value(&self) -> serde::Value {
        serde::Value::U64(self.0)
    }
}

impl serde::Deserialize for Dur {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        v.as_u64()
            .map(Dur)
            .ok_or_else(|| serde::Error::msg("Dur: expected picosecond count"))
    }
}

impl serde::Serialize for Clock {
    fn to_value(&self) -> serde::Value {
        serde::Value::U64(self.cycle_ps)
    }
}

impl serde::Deserialize for Clock {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v.as_u64() {
            Some(ps) if ps > 0 => Ok(Clock { cycle_ps: ps }),
            _ => Err(serde::Error::msg("Clock: expected positive cycle length")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(Time::ns(1).as_ps(), 1_000);
        assert_eq!(Time::us(1), Time::ns(1000));
        assert_eq!(Time::ms(1), Time::us(1000));
        assert_eq!(Time::secs(1), Time::ms(1000));
        assert_eq!(Dur::ns(3) * 4, Dur::ns(12));
        assert_eq!(Dur::ns(12) / 4, Dur::ns(3));
    }

    #[test]
    fn time_arithmetic() {
        let t = Time::us(5);
        assert_eq!(t + Dur::us(2), Time::us(7));
        assert_eq!(Time::us(7) - t, Dur::us(2));
        assert_eq!(t.since(Time::us(9)), Dur::ZERO);
        assert_eq!(Time::us(9).since(t), Dur::us(4));
    }

    #[test]
    fn clock_cycle_round_trip() {
        let fpga = Clock::mhz(250);
        assert_eq!(fpga.cycle(), Dur::ns(4));
        assert_eq!(fpga.cycles_at(Time::ns(4)), 1);
        assert_eq!(fpga.cycles_at(Time::ns(3)), 0);
        assert_eq!(fpga.time_of_cycle(1000), Time::us(4));
        let cpu = Clock::mhz(2000);
        assert_eq!(cpu.cycle(), Dur::ps(500));
    }

    #[test]
    fn clock_next_edge() {
        let c = Clock::mhz(250);
        assert_eq!(c.next_edge(Time::ZERO), Time::ZERO);
        assert_eq!(c.next_edge(Time::ns(1)), Time::ns(4));
        assert_eq!(c.next_edge(Time::ns(4)), Time::ns(4));
        assert_eq!(c.next_edge(Time::ns(5)), Time::ns(8));
    }

    #[test]
    #[should_panic(expected = "integral picosecond")]
    fn clock_rejects_non_integral_period() {
        let _ = Clock::mhz(333);
    }

    #[test]
    fn display_adapts_units() {
        assert_eq!(format!("{}", Time::ns(4)), "4.000ns");
        assert_eq!(format!("{}", Dur::us(150)), "150.000us");
        assert_eq!(format!("{}", Dur::ps(12)), "12ps");
        assert_eq!(format!("{}", Dur::ms(4)), "4.000ms");
    }

    #[test]
    fn dur_sum() {
        let total: Dur = [Dur::ns(1), Dur::ns(2), Dur::ns(3)].into_iter().sum();
        assert_eq!(total, Dur::ns(6));
    }
}
