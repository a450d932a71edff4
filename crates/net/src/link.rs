//! Serial point-to-point links.
//!
//! ThymesisFlow's rack-scale prototype connects the two AlphaData cards
//! with a 100 Gb/s copper cable; beyond rack-scale the same model chains
//! through switches. A link is a serial resource: each message occupies it
//! for `bytes / rate`, then spends the propagation delay in flight. FIFO
//! ordering is inherent (it is a wire).

use std::cell::RefCell;
use std::rc::Rc;
use thymesim_sim::{Dur, Time};

/// Static link parameters.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct LinkConfig {
    /// Raw rate in bits per second.
    pub bits_per_sec: f64,
    /// One-way propagation delay (cable + PHY).
    pub propagation: Dur,
}

impl LinkConfig {
    /// The prototype's 100 Gb/s direct-attach copper link: ~5 m cable plus
    /// transceiver latency ≈ 100 ns each way.
    pub fn copper_100g() -> LinkConfig {
        LinkConfig {
            bits_per_sec: 100e9,
            propagation: Dur::ns(100),
        }
    }
}

/// One direction of a link.
#[derive(Debug)]
pub struct SerialLink {
    cfg: LinkConfig,
    ps_per_byte: f64,
    /// Serialization times of the last two sizes computed: a NIC's TX
    /// alternates request headers with write-backs, so both stay. The
    /// initial `(0 B, 0 ps)` is the exact time of an empty message.
    ser_memo: [(u64, Dur); 2],
    next_free: Time,
    pub bytes_sent: u64,
    pub messages: u64,
    queue_wait_ps: u128,
    /// Windowed busy-fraction counter track, opt-in via
    /// [`SerialLink::with_track`]. `None` records nothing.
    track: Option<&'static str>,
    /// Blame resource class for queueing on this wire (`link` by
    /// default; switch ports relabel via [`SerialLink::with_resource`]).
    resource: &'static str,
}

impl SerialLink {
    pub fn new(cfg: LinkConfig) -> SerialLink {
        assert!(cfg.bits_per_sec > 0.0);
        SerialLink {
            cfg,
            ps_per_byte: 8.0e12 / cfg.bits_per_sec,
            ser_memo: [(0, Dur::ZERO); 2],
            next_free: Time::ZERO,
            bytes_sent: 0,
            messages: 0,
            queue_wait_ps: 0,
            track: None,
            resource: "link",
        }
    }

    /// Attribute this wire's queueing to a different blame resource
    /// class (e.g. `switch` for switch output ports).
    #[must_use]
    pub fn with_resource(mut self, resource: &'static str) -> SerialLink {
        self.resource = resource;
        self
    }

    /// Record this link's occupancy on the named windowed busy-fraction
    /// track. The name is claimed exclusively per simulated point: only
    /// the first link claiming it records, so a busy track always
    /// describes one serial wire and its window fractions stay within
    /// [0, 1] even when an experiment builds several identically
    /// labelled links in one point.
    pub fn with_track(mut self, track: &'static str) -> SerialLink {
        if thymesim_telemetry::claim(track) == 0 {
            self.track = Some(track);
        }
        self
    }

    pub fn config(&self) -> LinkConfig {
        self.cfg
    }

    /// Time the wire is occupied by a message of `bytes` bytes.
    #[inline]
    fn serialization(&mut self, bytes: u64) -> Dur {
        if let Some(&(_, ser)) = self.ser_memo.iter().find(|&&(b, _)| b == bytes) {
            return ser;
        }
        let ser = Dur::ps((bytes as f64 * self.ps_per_byte).round() as u64);
        self.ser_memo = [(bytes, ser), self.ser_memo[0]];
        ser
    }

    /// Transmit a message; returns its arrival time at the far end.
    pub fn send(&mut self, at: Time, bytes: u64) -> Time {
        let start = at.max2(self.next_free);
        let ser = self.serialization(bytes);
        self.next_free = start + ser;
        self.bytes_sent += bytes;
        self.messages += 1;
        self.queue_wait_ps += (start - at).as_ps() as u128;
        thymesim_telemetry::latency("link.queue_wait", start - at);
        // Wait first (so our own transmission can't blame itself), then
        // this message's occupancy for whoever queues behind it.
        thymesim_telemetry::blame_wait(self.resource, at, start);
        thymesim_telemetry::blame_occupy(self.resource, start, start + ser);
        thymesim_telemetry::add("link.bytes", bytes);
        if let Some(track) = self.track {
            thymesim_telemetry::counter_busy(track, start, start + ser);
        }
        start + ser + self.cfg.propagation
    }

    /// Mean time messages waited for the wire.
    pub fn mean_queue_wait(&self) -> Dur {
        if self.messages == 0 {
            Dur::ZERO
        } else {
            Dur::ps((self.queue_wait_ps / self.messages as u128) as u64)
        }
    }

    /// Achieved bandwidth over `[0, horizon]` in bytes/second.
    pub fn throughput(&self, horizon: Time) -> f64 {
        if horizon == Time::ZERO {
            0.0
        } else {
            self.bytes_sent as f64 / horizon.as_secs_f64()
        }
    }
}

/// A link shared between several traffic sources on one virtual timeline
/// (an oversubscribed uplink, a spine port).
pub type SharedLink = Rc<RefCell<SerialLink>>;

/// Make a link shareable.
pub fn shared_link(cfg: LinkConfig) -> SharedLink {
    Rc::new(RefCell::new(SerialLink::new(cfg)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_plus_propagation() {
        let mut l = SerialLink::new(LinkConfig {
            bits_per_sec: 100e9,
            propagation: Dur::ns(100),
        });
        // 128 B = 1024 bits at 100 Gb/s = 10.24 ns + 100 ns.
        let t = l.send(Time::ZERO, 128);
        assert_eq!(t, Time::ps(10_240 + 100_000));
    }

    #[test]
    fn messages_queue_fifo() {
        let mut l = SerialLink::new(LinkConfig {
            bits_per_sec: 80e9, // 10 GB/s -> 0.1 ns/byte
            propagation: Dur::ZERO,
        });
        let a = l.send(Time::ZERO, 1000); // 100 ns
        let b = l.send(Time::ZERO, 1000); // waits
        assert_eq!(a, Time::ns(100));
        assert_eq!(b, Time::ns(200));
        assert_eq!(l.mean_queue_wait(), Dur::ns(50));
    }

    #[test]
    fn idle_link_does_not_queue() {
        let mut l = SerialLink::new(LinkConfig::copper_100g());
        l.send(Time::ZERO, 128);
        let t = l.send(Time::us(10), 128);
        assert!(t < Time::us(11));
        assert_eq!(l.messages, 2);
        assert_eq!(l.bytes_sent, 256);
    }

    #[test]
    fn memoized_serialization_matches_the_formula() {
        // A rate whose per-byte time is not an integer, so rounding counts.
        let cfg = LinkConfig {
            bits_per_sec: 37e9,
            propagation: Dur::ns(3),
        };
        let mut l = SerialLink::new(cfg);
        let ps_per_byte = 8.0e12 / cfg.bits_per_sec;
        let mut next_free = Time::ZERO;
        let sizes = [0u64, 32, 160, 32, 160, 0, 7, 7, 160, 1 << 20, 32];
        for (i, &bytes) in sizes.iter().cycle().take(200).enumerate() {
            let at = Time::ps(i as u64 * 2_345);
            let start = at.max2(next_free);
            let ser = Dur::ps((bytes as f64 * ps_per_byte).round() as u64);
            next_free = start + ser;
            assert_eq!(
                l.send(at, bytes),
                start + ser + cfg.propagation,
                "message {i} of {bytes} B"
            );
        }
    }

    #[test]
    fn saturated_link_reaches_configured_rate() {
        let mut l = SerialLink::new(LinkConfig::copper_100g());
        let n = 100_000u64;
        let mut last = Time::ZERO;
        for _ in 0..n {
            last = l.send(Time::ZERO, 128);
        }
        let bw = (n * 128) as f64 / (last.as_secs_f64() - 100e-9);
        assert!((bw / 12.5e9 - 1.0).abs() < 1e-3, "bw={bw}");
    }
}
