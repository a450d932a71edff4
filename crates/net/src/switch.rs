//! Output-queued switch — a building block of the "beyond rack-scale"
//! fabric the paper's characterization anticipates.
//!
//! Each switch port's egress is a [`SerialLink`]; a message crossing the
//! switch pays a fixed forwarding latency and then queues on the output
//! port. Congestion (multiple flows converging on one output) emerges as
//! queueing delay, which is precisely the failure mode the delay injector
//! emulates on the prototype.

use crate::link::{LinkConfig, SerialLink};
use thymesim_sim::{Dur, Time};

/// A switch with `radix` ports, each with an egress link of the given
/// configuration.
pub struct Switch {
    ports: Vec<SerialLink>,
    /// Fixed cut-through forwarding latency.
    pub forward_latency: Dur,
}

impl Switch {
    pub fn new(radix: usize, egress: LinkConfig, forward_latency: Dur) -> Switch {
        assert!(radix >= 2);
        Switch {
            // Port queueing blames under `switch`, separate from NIC
            // access links, so the provenance report can distinguish
            // on-host from in-fabric interference.
            ports: (0..radix)
                .map(|_| SerialLink::new(egress).with_resource("switch"))
                .collect(),
            forward_latency,
        }
    }

    pub fn radix(&self) -> usize {
        self.ports.len()
    }

    /// Forward a message arriving at `at` out of `out_port`.
    pub fn forward(&mut self, at: Time, out_port: usize, bytes: u64) -> Time {
        thymesim_telemetry::add("switch.forwarded", 1);
        let queued_at = at + self.forward_latency;
        self.ports[out_port].send(queued_at, bytes)
    }

    pub fn port(&self, i: usize) -> &SerialLink {
        &self.ports[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_link() -> LinkConfig {
        LinkConfig {
            bits_per_sec: 100e9,
            propagation: Dur::ns(50),
        }
    }

    #[test]
    fn each_hop_adds_latency() {
        let sw = || Switch::new(4, fast_link(), Dur::ns(300));
        let (mut s0, mut s1) = (sw(), sw());
        let t0 = SerialLink::new(fast_link()).send(Time::ZERO, 128);
        let t2 = s1.forward(s0.forward(t0, 1, 128), 2, 128);
        // Two extra (forward + serialize + propagate) legs.
        let per_hop = Dur::ns(300) + Dur::ps(10_240) + Dur::ns(50);
        assert_eq!(t2, t0 + per_hop + per_hop);
    }

    #[test]
    fn converging_flows_congest_the_output_port() {
        // Two flows arrive together and share port 3: the second queues.
        let mut sw = Switch::new(
            4,
            LinkConfig {
                bits_per_sec: 80e9,
                propagation: Dur::ZERO,
            },
            Dur::ZERO,
        );
        let big = 100_000u64; // 10 us at 10 GB/s on the shared egress
        let arrive = SerialLink::new(fast_link()).send(Time::ZERO, big);
        let ta = sw.forward(arrive, 3, big);
        let tb = sw.forward(arrive, 3, big);
        assert!(tb > ta, "second flow must queue behind the first");
        // The queued flow finishes one full egress serialization (10 us at
        // 10 GB/s) after the first.
        assert_eq!(tb - ta, Dur::us(10));
    }

    #[test]
    fn distinct_output_ports_do_not_interfere() {
        let mut sw = Switch::new(4, fast_link(), Dur::ZERO);
        let arrive = SerialLink::new(fast_link()).send(Time::ZERO, 100_000);
        let ta = sw.forward(arrive, 0, 100_000);
        let tb = sw.forward(arrive, 1, 100_000);
        assert_eq!(ta, tb, "different ports must not queue on each other");
    }

    #[test]
    fn switch_port_stats_accumulate() {
        let mut sw = Switch::new(2, fast_link(), Dur::ns(100));
        sw.forward(Time::ZERO, 1, 128);
        sw.forward(Time::ZERO, 1, 128);
        assert_eq!(sw.port(1).messages, 2);
        assert_eq!(sw.port(1).bytes_sent, 256);
        assert_eq!(sw.port(0).messages, 0);
        assert_eq!(sw.radix(), 2);
    }
}
