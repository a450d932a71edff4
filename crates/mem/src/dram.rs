//! DRAM channel: a bandwidth-shared memory bus plus access latency.
//!
//! The contention experiments (§IV-E) hinge on one asymmetry: the lender's
//! memory bus moves hundreds of GB/s while the network moves ~12.5 GB/s.
//! The bus is modelled as a serial resource — each line transfer occupies
//! it for `bytes / bandwidth` — so concurrent clients (local STREAM
//! instances and incoming remote requests) share bandwidth naturally
//! through queueing, and the fixed DRAM access latency is added on top.

use crate::addr::Addr;
use crate::dram_banked::{BankedDram, BankedDramConfig, DramRowStats};
use std::cell::RefCell;
use std::rc::Rc;
use thymesim_sim::{Dur, Time};

/// Which timing model serves the channel's accesses.
///
/// `Fixed` is the paper's calibration: a serial bus plus one latency
/// adder. `Banked` swaps in the bank/row-buffer state machines of
/// [`dram_banked`](crate::dram_banked), which make row locality (and
/// its destruction under contention) visible. The degenerate banked
/// config ([`BankedDramConfig::degenerate`]) reproduces `Fixed`
/// byte-identically.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize)]
pub enum DramModel {
    Fixed,
    Banked(BankedDramConfig),
}

/// Configuration of one node's memory subsystem timing.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct DramConfig {
    /// Sustained bus bandwidth in bytes/second (POWER9 AC922: ~140 GB/s
    /// per socket of measured STREAM bandwidth).
    pub bandwidth_bytes_per_sec: f64,
    /// Load-to-use latency of an uncontended access (`Fixed` model;
    /// the banked model's analogue is its `t_cas`).
    pub latency: Dur,
    /// Independent banks: the *latency* portion overlaps across banks
    /// (line-interleaved), while the shared bus still serializes data
    /// transfer. 1 = the flat channel used by the paper experiments.
    /// (`Fixed` model only; the banked model has its own geometry.)
    pub banks: usize,
    /// Timing model; `Fixed` preserves the original calibration.
    pub model: DramModel,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            bandwidth_bytes_per_sec: 140e9,
            latency: Dur::ns(120),
            banks: 1,
            model: DramModel::Fixed,
        }
    }
}

/// Outcome of a bus access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BusAccess {
    /// When the transfer started occupying the bus.
    pub start: Time,
    /// When the data is available (bus occupancy + DRAM latency).
    pub done: Time,
}

/// A serial, bandwidth-limited memory channel with optional bank-level
/// latency overlap.
#[derive(Debug)]
pub struct DramChannel {
    cfg: DramConfig,
    /// Picoseconds of bus occupancy per byte (pre-computed).
    ps_per_byte: f64,
    /// Memo of the last `(bytes, busy)` pair: line-granular traffic asks
    /// for the same transfer size almost every access, and the
    /// float-multiply-and-round is deterministic per size, so one compare
    /// replaces it on the hot path.
    last_bytes: u64,
    last_busy: Dur,
    next_free: Time,
    /// Per-bank row/CAS occupancy (the latency portion is per-bank).
    bank_free: Vec<Time>,
    /// The bank/row-buffer engine when `cfg.model` is `Banked`; the
    /// channel then delegates timing entirely and only keeps the
    /// aggregate counters below.
    banked: Option<BankedDram>,
    /// Total bytes moved (for utilization reporting).
    pub bytes_moved: u64,
    /// Accesses served.
    pub accesses: u64,
    /// Accumulated queueing delay (start - arrival).
    pub queue_wait_ps: u128,
    /// Windowed busy-fraction counter track, opt-in via
    /// [`DramChannel::set_track`]. `None` records nothing.
    track: Option<&'static str>,
}

impl DramChannel {
    pub fn new(cfg: DramConfig) -> DramChannel {
        assert!(cfg.bandwidth_bytes_per_sec > 0.0);
        assert!(cfg.banks >= 1);
        DramChannel {
            ps_per_byte: 1e12 / cfg.bandwidth_bytes_per_sec,
            last_bytes: 0,
            last_busy: Dur::ZERO,
            next_free: Time::ZERO,
            bank_free: vec![Time::ZERO; cfg.banks],
            banked: match cfg.model {
                DramModel::Fixed => None,
                DramModel::Banked(b) => Some(BankedDram::new(b, cfg.bandwidth_bytes_per_sec)),
            },
            bytes_moved: 0,
            accesses: 0,
            queue_wait_ps: 0,
            track: None,
            cfg,
        }
    }

    /// Record this channel's bus occupancy on the named windowed
    /// busy-fraction track. The name is claimed exclusively per
    /// simulated point: only the first channel claiming it records, so
    /// the track always describes one serial bus and its window
    /// fractions stay within [0, 1] even when an experiment builds
    /// several nodes in one point. Idempotent on an already-labelled
    /// channel (pooling shares one lender bus across testbeds).
    pub fn set_track(&mut self, track: &'static str) {
        if self.track.is_none() && thymesim_telemetry::claim(track) == 0 {
            self.track = Some(track);
            if let Some(banked) = self.banked.as_mut() {
                if let Some((hit_rate, bank_busy)) = banked_tracks_for(track) {
                    banked.set_tracks(hit_rate, bank_busy);
                }
            }
        }
    }

    pub fn config(&self) -> DramConfig {
        self.cfg
    }

    /// Row-buffer outcome counters — `None` on the `Fixed` model,
    /// which has no row buffers.
    pub fn row_stats(&self) -> Option<DramRowStats> {
        self.banked.as_ref().map(|b| b.stats())
    }

    /// Move `bytes` over the bus starting no earlier than `at`.
    ///
    /// Arrivals may be slightly out of order across clients (the virtual-
    /// time executor steps processes, not individual bus grants); `max`
    /// with `next_free` makes the outcome insensitive to such permutations
    /// at equal load.
    pub fn access(&mut self, at: Time, addr: Addr, bytes: u64) -> BusAccess {
        if let Some(banked) = self.banked.as_mut() {
            let (acc, wait, busy) = banked.access(at, addr, bytes);
            self.next_free = self.next_free.max2(acc.start + busy);
            self.bytes_moved += bytes;
            self.accesses += 1;
            self.queue_wait_ps += wait.as_ps() as u128;
            if let Some(track) = self.track {
                thymesim_telemetry::counter_busy(track, acc.start, acc.start + busy);
            }
            // Queueing ahead of the data-bus grant (bank readiness +
            // bus serialization) as its own attribution stage; folds
            // into `other` for sweeps that never queue.
            thymesim_telemetry::latency("dram.queue", wait);
            // Blame interval of exactly the reported wait, ending at the
            // grant, so dram blame totals tie to the dram.queue stage.
            thymesim_telemetry::blame_wait(
                "dram",
                Time(acc.start.as_ps().saturating_sub(wait.as_ps())),
                acc.start,
            );
            thymesim_telemetry::blame_occupy("dram", acc.start, acc.start + busy);
            return acc;
        }
        if self.cfg.banks == 1 {
            // Flat channel: bus serialization + one latency adder.
            let start = at.max2(self.next_free);
            let busy = self.busy_for(bytes);
            self.next_free = start + busy;
            self.bytes_moved += bytes;
            self.accesses += 1;
            self.queue_wait_ps += (start - at).as_ps() as u128;
            if let Some(track) = self.track {
                thymesim_telemetry::counter_busy(track, start, start + busy);
            }
            thymesim_telemetry::blame_wait("dram", at, start);
            thymesim_telemetry::blame_occupy("dram", start, start + busy);
            return BusAccess {
                start,
                done: start + busy + self.cfg.latency,
            };
        }
        // Banked: the target bank must be free (its previous access's
        // latency phase done), then the shared bus moves the data.
        let bank = ((addr.0 / 128) % self.cfg.banks as u64) as usize;
        let start = at.max2(self.next_free).max2(self.bank_free[bank]);
        let busy = self.busy_for(bytes);
        self.next_free = start + busy;
        let done = start + busy + self.cfg.latency;
        self.bank_free[bank] = done;
        self.bytes_moved += bytes;
        self.accesses += 1;
        self.queue_wait_ps += (start - at).as_ps() as u128;
        if let Some(track) = self.track {
            thymesim_telemetry::counter_busy(track, start, start + busy);
        }
        thymesim_telemetry::blame_wait("dram", at, start);
        // The bank stays held through its latency phase (`bank_free`),
        // so occupancy runs to `done` — same-bank waiters decompose
        // against the full hold, not just the bus transfer.
        thymesim_telemetry::blame_occupy("dram", start, done);
        BusAccess { start, done }
    }

    /// Bus occupancy of a `bytes`-sized transfer. Memoized on the last
    /// size seen; the computation is a pure function of `bytes`, so the
    /// memo is exactly the rounded product every time.
    #[inline]
    fn busy_for(&mut self, bytes: u64) -> Dur {
        if bytes != self.last_bytes {
            self.last_bytes = bytes;
            self.last_busy = Dur::ps((bytes as f64 * self.ps_per_byte).round() as u64);
        }
        self.last_busy
    }

    /// Mean queueing delay per access so far.
    pub fn mean_queue_wait(&self) -> Dur {
        if self.accesses == 0 {
            Dur::ZERO
        } else {
            Dur::ps((self.queue_wait_ps / self.accesses as u128) as u64)
        }
    }

    /// Fraction of `[0, horizon]` the bus spent busy.
    pub fn utilization(&self, horizon: Time) -> f64 {
        if horizon == Time::ZERO {
            return 0.0;
        }
        (self.bytes_moved as f64 * self.ps_per_byte) / horizon.as_ps() as f64
    }
}

/// The row-buffer counter tracks that ride along with each exclusive
/// busy-track claim: the tier suffix keeps lender and borrower-local
/// buses apart in `utilization.json` exactly like the busy tracks do.
fn banked_tracks_for(track: &'static str) -> Option<(&'static str, &'static str)> {
    match track {
        "mem.dram_busy.lender" => Some(("dram.row_hit_rate.lender", "dram.bank_busy.lender")),
        "mem.dram_busy.local" => Some(("dram.row_hit_rate.local", "dram.bank_busy.local")),
        _ => None,
    }
}

/// Shared handle: the lender's bus is used by both its local workloads and
/// the NIC's incoming remote requests.
pub type SharedDram = Rc<RefCell<DramChannel>>;

pub fn shared(cfg: DramConfig) -> SharedDram {
    Rc::new(RefCell::new(DramChannel::new(cfg)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan(bw_gbs: f64, lat_ns: u64) -> DramChannel {
        DramChannel::new(DramConfig {
            bandwidth_bytes_per_sec: bw_gbs * 1e9,
            latency: Dur::ns(lat_ns),
            ..DramConfig::default()
        })
    }

    #[test]
    fn uncontended_access_is_latency_plus_transfer() {
        let mut c = chan(128.0, 100); // 128 GB/s -> 1 ps/byte... (1e12/128e9 = 7.8125)
        let r = c.access(Time::ZERO, Addr(0), 128);
        assert_eq!(r.start, Time::ZERO);
        // 128 B at 128 GB/s = 1 ns transfer + 100 ns latency.
        assert_eq!(r.done, Time::ns(101));
    }

    #[test]
    fn back_to_back_accesses_queue() {
        let mut c = chan(128.0, 0);
        let a = c.access(Time::ZERO, Addr(0), 128);
        let b = c.access(Time::ZERO, Addr(128), 128);
        assert_eq!(a.done, Time::ns(1));
        assert_eq!(b.start, Time::ns(1), "second transfer waits for the bus");
        assert_eq!(b.done, Time::ns(2));
        assert_eq!(c.mean_queue_wait(), Dur::ps(500));
    }

    #[test]
    fn sustained_bandwidth_matches_config() {
        let mut c = chan(100.0, 50);
        let n = 10_000u64;
        let mut done = Time::ZERO;
        for i in 0..n {
            done = c.access(Time::ZERO, Addr(i * 128), 128).done;
        }
        // Total bytes / total bus time (minus the final latency adder).
        let bus_time = (done - Time::ZERO).as_secs_f64() - 50e-9;
        let bw = (n * 128) as f64 / bus_time;
        assert!((bw / 100e9 - 1.0).abs() < 1e-3, "bw={bw}");
    }

    #[test]
    fn idle_gaps_are_not_carried_forward() {
        let mut c = chan(128.0, 0);
        c.access(Time::ZERO, Addr(0), 128);
        let r = c.access(Time::us(5), Addr(0), 128);
        assert_eq!(r.start, Time::us(5), "bus must be idle again");
    }

    #[test]
    fn two_clients_share_bandwidth_equally() {
        // Two closed-loop clients with one outstanding access each get
        // ~half the bus each.
        let mut c = chan(100.0, 0);
        let mut t_a = Time::ZERO;
        let mut t_b = Time::ZERO;
        let mut bytes_a = 0u64;
        for _ in 0..1000 {
            if t_a <= t_b {
                t_a = c.access(t_a, Addr(0), 128).done;
                bytes_a += 128;
            } else {
                t_b = c.access(t_b, Addr(1 << 20), 128).done;
            }
        }
        let total = t_a.max2(t_b);
        let bw_a = bytes_a as f64 / total.as_secs_f64();
        assert!((bw_a / 50e9 - 1.0).abs() < 0.05, "client A got {bw_a}");
    }

    #[test]
    fn banks_overlap_latency_but_share_the_bus() {
        // Single bank: a burst of 8 line reads serializes on the 120 ns
        // latency (each access waits for the bank).
        let mut flat = DramChannel::new(DramConfig {
            banks: 1,
            ..DramConfig::default()
        });
        let mut banked = DramChannel::new(DramConfig {
            banks: 8,
            ..DramConfig::default()
        });
        let mut flat_done = Time::ZERO;
        let mut banked_done = Time::ZERO;
        for i in 0..8u64 {
            flat_done = flat.access(Time::ZERO, Addr(i * 128), 128).done;
            banked_done = banked.access(Time::ZERO, Addr(i * 128), 128).done;
        }
        // Flat: the bus moves data back-to-back but the caller sees done
        // = last transfer + latency: ~8×0.9ns + 120ns.
        // Banked: same, since distinct banks absorb the latency overlap;
        // the real difference shows on *repeat* accesses to the same bank.
        assert!(banked_done <= flat_done);
        // Hammer one bank (same address): the banked channel serializes
        // on that bank's latency.
        let mut one_bank = DramChannel::new(DramConfig {
            banks: 8,
            ..DramConfig::default()
        });
        let mut t = Time::ZERO;
        for _ in 0..4 {
            t = one_bank.access(Time::ZERO, Addr(0), 128).done;
        }
        assert!(
            t >= Time::ns(4 * 120),
            "same-bank accesses must serialize on the bank: {t}"
        );
        // Round-robin across banks at the same offered load stays fast.
        let mut spread = DramChannel::new(DramConfig {
            banks: 8,
            ..DramConfig::default()
        });
        let mut t2 = Time::ZERO;
        for i in 0..4u64 {
            t2 = spread.access(Time::ZERO, Addr(i * 128), 128).done;
        }
        assert!(t2 < Time::ns(200), "spread accesses overlap: {t2}");
    }

    #[test]
    fn utilization_reflects_busy_fraction() {
        let mut c = chan(128.0, 0);
        // 10 transfers of 128B = 10ns busy.
        for i in 0..10u64 {
            c.access(Time::ns(i * 10), Addr(0), 128);
        }
        let u = c.utilization(Time::ns(100));
        assert!((u - 0.1).abs() < 1e-6, "u={u}");
    }
}
