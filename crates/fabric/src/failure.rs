//! Failure modes and health monitoring.
//!
//! §IV-C probes the resilience limits of the stack: very high injected
//! delay eventually trips discovery timeouts ("the compute-side FPGA is no
//! longer detected"), and a sufficiently stalled load would machine-check
//! the core. The monitor records the first fatal event; experiments query
//! it after (or during) a run. Link outages model the "link repair"
//! reliability failures that motivate delay injection in the first place.

use thymesim_sim::{Dur, Time};

/// A fatal system event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Crash {
    /// A single memory access exceeded the processor's load timeout:
    /// checkstop / machine-check.
    MachineCheck { at: Time, latency: Dur },
    /// The control plane could not complete FPGA discovery in time; the
    /// disaggregated memory cannot be attached.
    AttachTimeout { elapsed: Dur, budget: Dur },
}

/// Watches access latencies and records the first fatal event.
#[derive(Clone, Debug)]
pub struct HealthMonitor {
    /// Latency beyond which a blocking load machine-checks the core.
    /// POWER9's hung-load checkstop fires on the order of 10^2 ms.
    pub machine_check_threshold: Dur,
    crashed: Option<Crash>,
    /// Worst access latency observed.
    pub worst_latency: Dur,
}

impl Default for HealthMonitor {
    fn default() -> Self {
        HealthMonitor {
            machine_check_threshold: Dur::ms(100),
            crashed: None,
            worst_latency: Dur::ZERO,
        }
    }
}

impl HealthMonitor {
    pub fn new(machine_check_threshold: Dur) -> HealthMonitor {
        HealthMonitor {
            machine_check_threshold,
            ..HealthMonitor::default()
        }
    }

    /// Record a completed access; returns the crash if this one was fatal.
    pub fn observe(&mut self, done: Time, latency: Dur) -> Option<Crash> {
        if latency > self.worst_latency {
            self.worst_latency = latency;
        }
        if self.crashed.is_none() && latency > self.machine_check_threshold {
            self.crashed = Some(Crash::MachineCheck { at: done, latency });
        }
        self.crashed
    }

    pub fn record_crash(&mut self, c: Crash) {
        if self.crashed.is_none() {
            self.crashed = Some(c);
        }
    }

    pub fn crashed(&self) -> Option<Crash> {
        self.crashed
    }
}

/// Scheduled link outages (e.g. a link flap followed by repair).
/// Traffic arriving during an outage is stalled until the link is back.
#[derive(Clone, Debug, Default)]
pub struct OutagePlan {
    /// Sorted, non-overlapping `(down_from, up_at)` windows.
    windows: Vec<(Time, Time)>,
}

impl OutagePlan {
    pub fn new() -> OutagePlan {
        OutagePlan::default()
    }

    pub fn add(&mut self, down_from: Time, up_at: Time) {
        assert!(up_at > down_from, "outage must have positive length");
        for &(f, u) in &self.windows {
            assert!(up_at <= f || down_from >= u, "overlapping outages");
        }
        self.windows.push((down_from, up_at));
        self.windows.sort_by_key(|w| w.0);
    }

    /// Earliest instant at or after `t` when the link is up.
    pub fn next_up(&self, t: Time) -> Time {
        for &(from, until) in &self.windows {
            if t >= from && t < until {
                return until;
            }
            if t < from {
                break;
            }
        }
        t
    }

    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_passes_normal_latencies() {
        let mut m = HealthMonitor::default();
        assert!(m.observe(Time::us(1), Dur::us(1)).is_none());
        assert!(m.observe(Time::ms(1), Dur::ms(4)).is_none());
        assert!(m.crashed().is_none());
        assert_eq!(m.worst_latency, Dur::ms(4));
    }

    #[test]
    fn monitor_machine_checks_on_hung_load() {
        let mut m = HealthMonitor::new(Dur::ms(100));
        let c = m.observe(Time::secs(1), Dur::ms(150));
        match c {
            Some(Crash::MachineCheck { latency, .. }) => assert_eq!(latency, Dur::ms(150)),
            other => panic!("expected machine check, got {other:?}"),
        }
        assert!(m.crashed().is_some());
    }

    #[test]
    fn first_crash_wins() {
        let mut m = HealthMonitor::new(Dur::ms(1));
        m.observe(Time::ms(10), Dur::ms(2));
        let first = m.crashed();
        m.observe(Time::ms(20), Dur::ms(50));
        assert_eq!(m.crashed(), first, "later crashes must not overwrite");
        m.record_crash(Crash::AttachTimeout {
            elapsed: Dur::ms(1),
            budget: Dur::ms(1),
        });
        assert_eq!(m.crashed(), first);
    }

    #[test]
    fn outage_stalls_traffic_inside_window() {
        let mut o = OutagePlan::new();
        o.add(Time::us(10), Time::us(50));
        assert_eq!(o.next_up(Time::us(5)), Time::us(5));
        assert_eq!(o.next_up(Time::us(10)), Time::us(50));
        assert_eq!(o.next_up(Time::us(49)), Time::us(50));
        assert_eq!(o.next_up(Time::us(50)), Time::us(50));
    }

    #[test]
    fn multiple_outages_resolve_independently() {
        let mut o = OutagePlan::new();
        o.add(Time::us(100), Time::us(110));
        o.add(Time::us(10), Time::us(20));
        assert_eq!(o.next_up(Time::us(15)), Time::us(20));
        assert_eq!(o.next_up(Time::us(105)), Time::us(110));
        assert_eq!(o.next_up(Time::us(60)), Time::us(60));
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlapping_outages_rejected() {
        let mut o = OutagePlan::new();
        o.add(Time::us(10), Time::us(30));
        o.add(Time::us(20), Time::us(40));
    }
}
