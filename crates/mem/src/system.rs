//! The node-level memory system: LLC + local DRAM + (optionally) a remote
//! backend behind the cache-coherent interface.
//!
//! Every workload access flows through [`MemSystem::access`]: an LLC
//! lookup, then on a miss either the local DRAM channel or the remote
//! fabric, with dirty victims written back to wherever they live. Data and
//! timing travel together — the typed accessors ([`crate::SimVec::get`] /
//! [`crate::SimVec::set`]) return both the value and the completion time.

use crate::addr::{Addr, AddressMap, Region};
use crate::backing::Backing;
use crate::cache::{Cache, CacheConfig, Lookup};
use crate::dram::SharedDram;
use std::sync::atomic::{AtomicU64, Ordering};
use thymesim_sim::{Dur, Histogram, Time};

/// The windowed miss-rate track every timed LLC access deposits into.
const LLC_MISS_RATE: &str = "mem.llc_miss_rate";

/// Process-wide count of timed memory accesses, flushed once per
/// [`MemSystem`] lifetime (on drop) so the hot path never touches it.
/// `benchmark/` reads this for its `accesses_per_s` metric.
static TIMED_ACCESSES: AtomicU64 = AtomicU64::new(0);

/// Total timed accesses completed by all dropped `MemSystem`s so far.
pub fn timed_accesses_total() -> u64 {
    TIMED_ACCESSES.load(Ordering::Relaxed)
}

/// The remote-memory side of the node, implemented by the fabric crate
/// (or by [`NoRemote`] for a node without disaggregated memory).
pub trait RemoteBackend {
    /// Fetch one cache line whose miss was detected at `at`; returns the
    /// time the line is available to the core.
    fn fetch_line(&mut self, at: Time, addr: Addr) -> Time;

    /// Posted write-back of a dirty line. Does not block the demand miss;
    /// the backend accounts for its bandwidth internally.
    fn writeback_line(&mut self, at: Time, addr: Addr);
}

/// A node with no remote memory attached (e.g. the lender's own CPU).
/// Any remote access is a configuration bug and panics.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoRemote;

impl RemoteBackend for NoRemote {
    fn fetch_line(&mut self, _at: Time, addr: Addr) -> Time {
        panic!("remote access to {addr:?} but no disaggregated memory is attached");
    }
    fn writeback_line(&mut self, _at: Time, addr: Addr) {
        panic!("remote writeback to {addr:?} but no disaggregated memory is attached");
    }
}

/// Latency constants for the on-chip part of the hierarchy.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct SysTiming {
    /// Effective load-to-use time for an LLC hit (folds L1/L2/L3 into one).
    pub llc_hit: Dur,
}

impl Default for SysTiming {
    fn default() -> Self {
        SysTiming {
            llc_hit: Dur::ns(4),
        }
    }
}

/// Access counters split by where misses were served.
#[derive(Clone, Debug, Default)]
pub struct MemStats {
    pub reads: u64,
    pub writes: u64,
    pub local_miss: u64,
    pub remote_miss: u64,
    pub local_writebacks: u64,
    pub remote_writebacks: u64,
    /// Latency of demand misses served from remote memory.
    pub remote_latency: Histogram,
    /// Latency of demand misses served from local DRAM.
    pub local_latency: Histogram,
}

/// Handle to a line resident in the LLC, returned by
/// [`MemSystem::access_entry`] and consumed by
/// [`MemSystem::retouch_rounds_at`]. The `Default` value locates nothing:
/// it only fills array slots that an `access_entry` overwrites before use.
#[derive(Clone, Copy, Debug, Default)]
pub struct LineTouch {
    set: u32,
    way: u32,
}

/// One node's memory hierarchy with real data and simulated time.
pub struct MemSystem<R> {
    pub map: AddressMap,
    cache: Cache,
    timing: SysTiming,
    local: SharedDram,
    remote: R,
    backing: Backing,
    pub stats: MemStats,
}

impl<R: RemoteBackend> MemSystem<R> {
    pub fn new(
        map: AddressMap,
        cache_cfg: CacheConfig,
        local: SharedDram,
        timing: SysTiming,
        remote: R,
    ) -> MemSystem<R> {
        assert_eq!(
            cache_cfg.line, map.line,
            "cache line and address-map line must agree"
        );
        MemSystem {
            map,
            cache: Cache::new(cache_cfg),
            timing,
            local,
            remote,
            // Dense page tables over the two mapped regions: every timed
            // access resolves with a subtraction instead of a hash probe.
            backing: Backing::with_ranges(&[
                (0, map.local_size),
                (map.remote_base, map.remote_size),
            ]),
            stats: MemStats::default(),
        }
    }

    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats
    }

    pub fn remote(&self) -> &R {
        &self.remote
    }

    pub fn remote_mut(&mut self) -> &mut R {
        &mut self.remote
    }

    /// Raw backing store (zero-time initialization of working sets).
    pub fn backing_mut(&mut self) -> &mut Backing {
        &mut self.backing
    }

    pub fn backing(&self) -> &Backing {
        &self.backing
    }

    /// Timed access to the line containing `addr`. Returns the completion
    /// time of the *demand* access; dirty-victim write-backs are posted.
    #[inline]
    pub fn access(&mut self, at: Time, addr: Addr, write: bool) -> Time {
        self.access_info(at, addr, write).0
    }

    /// Like [`MemSystem::access`], also reporting whether the access
    /// missed the LLC (i.e. allocated an MSHR / fetch). Workload issue
    /// models use this to bound their outstanding line fetches.
    #[inline]
    pub fn access_info(&mut self, at: Time, addr: Addr, write: bool) -> (Time, bool) {
        let (t, miss, _) = self.access_entry(at, addr, write);
        (t, miss)
    }

    /// The execute-once half of the execute-once-then-stall interface:
    /// like [`MemSystem::access_info`] but also returning a [`LineTouch`]
    /// handle locating the line in the LLC. A caller walking the
    /// remaining scalars of the same (now guaranteed-resident) line
    /// replays them through [`MemSystem::retouch_rounds_at`] — same
    /// counters, same telemetry, no repeated lookup, decode, or region
    /// dispatch.
    ///
    /// Inlined up to the LLC lookup, so an LLC hit never leaves the
    /// caller; a miss continues in [`MemSystem::miss`].
    #[inline]
    pub fn access_entry(&mut self, at: Time, addr: Addr, write: bool) -> (Time, bool, LineTouch) {
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        let line = self.map.line_of(addr);
        let (lookup, set, way) = self.cache.access_entry(line, write);
        let touch = LineTouch { set, way };
        let missed = matches!(lookup, Lookup::Miss { .. });
        thymesim_telemetry::counter_ratio(LLC_MISS_RATE, at, missed as u64, 1);
        match lookup {
            Lookup::Hit => (at + self.timing.llc_hit, false, touch),
            Lookup::Miss { writeback } => (
                self.miss(at, line, writeback) + self.timing.llc_hit,
                true,
                touch,
            ),
        }
    }

    /// The miss half of [`MemSystem::access_entry`]: retire the dirty
    /// victim, if any, then fetch `line`; returns when the line is filled.
    #[inline(never)]
    fn miss(&mut self, at: Time, line: Addr, writeback: Option<Addr>) -> Time {
        // Retire the victim first (posted; costs bandwidth, not demand
        // latency).
        if let Some(victim) = writeback {
            match self.map.region(victim) {
                Region::Local => {
                    self.stats.local_writebacks += 1;
                    thymesim_telemetry::add("mem.local_writebacks", 1);
                    let line = self.map.line;
                    self.local.borrow_mut().access(at, victim, line);
                }
                Region::Remote => {
                    self.stats.remote_writebacks += 1;
                    thymesim_telemetry::add("mem.remote_writebacks", 1);
                    self.remote.writeback_line(at, victim);
                }
            }
        }
        // Fetch the demanded line.
        let filled = match self.map.region(line) {
            Region::Local => {
                self.stats.local_miss += 1;
                let line_bytes = self.map.line;
                let done = self.local.borrow_mut().access(at, line, line_bytes).done;
                self.stats.local_latency.record((done - at).as_ps());
                thymesim_telemetry::latency("mem.local_miss", done - at);
                done
            }
            Region::Remote => {
                self.stats.remote_miss += 1;
                let done = self.remote.fetch_line(at, line);
                self.stats.remote_latency.record((done - at).as_ps());
                thymesim_telemetry::latency("mem.remote_miss", done - at);
                done
            }
        };
        // Sampled hit/miss/eviction counters: emitted every 256 misses so
        // even huge runs keep a bounded timeline. The LLC-hit path itself
        // carries only the miss-rate probe — it is the hottest path in
        // the simulator.
        if thymesim_telemetry::enabled() {
            let misses = self.stats.local_miss + self.stats.remote_miss;
            if misses.is_multiple_of(256) {
                let c = self.cache.stats;
                thymesim_telemetry::counter("mem.cache_hits", filled, c.hits as f64);
                thymesim_telemetry::counter("mem.cache_misses", filled, c.misses as f64);
                thymesim_telemetry::counter("mem.cache_evictions", filled, c.evictions as f64);
            }
        }
        filled
    }

    /// Is the line containing `addr` still resident where `touch`
    /// located it? Callers use this to validate an execute-once handle
    /// before replaying stalls through it. Side-effect-free.
    #[inline]
    pub fn line_resident(&self, addr: Addr, touch: LineTouch) -> bool {
        self.cache
            .resident_at(self.map.line_of(addr), touch.set, touch.way)
    }

    /// The stall half of the execute-once-then-stall interface: replay
    /// `rounds` round-robin passes of guaranteed hits over the lines
    /// located by one element's [`MemSystem::access_entry`] calls, pass
    /// `i` issuing at `start + i·step`. Counters, LRU state and the
    /// telemetry stream end up exactly as `rounds × group` full hitting
    /// accesses at those instants would leave them — traced or not —
    /// at O(group) cost and one probe. The caller guarantees every line
    /// is still resident ([`MemSystem::line_resident`]) — true as long
    /// as every access since the executing one hit (hits never evict).
    pub fn retouch_rounds_at(
        &mut self,
        start: Time,
        step: Dur,
        touches: &[(LineTouch, bool)],
        rounds: u64,
    ) {
        let group = touches.len() as u64;
        thymesim_telemetry::counter_ratio_run(LLC_MISS_RATE, start, step, rounds, 0, group);
        self.retouch_rounds(touches, rounds);
    }

    /// The state half of [`MemSystem::retouch_rounds_at`] alone: same
    /// counters and cache state, **no** telemetry, for callers that
    /// replay hits outside simulated time (host-cost probes). Simulated
    /// workloads call the timed form, or their traces lose the hits.
    pub fn retouch_rounds(&mut self, touches: &[(LineTouch, bool)], rounds: u64) {
        for &(_, write) in touches {
            if write {
                self.stats.writes += rounds;
            } else {
                self.stats.reads += rounds;
            }
        }
        self.cache
            .touch_rounds(touches.iter().map(|&(t, w)| (t.set, t.way, w)), rounds);
    }
}

impl<R> Drop for MemSystem<R> {
    fn drop(&mut self) {
        // One relaxed add per system lifetime keeps the events/sec
        // accounting entirely off the access path.
        TIMED_ACCESSES.fetch_add(self.stats.reads + self.stats.writes, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::{shared, DramConfig};

    struct FixedRemote {
        latency: Dur,
        fetches: u64,
        writebacks: u64,
    }

    impl RemoteBackend for FixedRemote {
        fn fetch_line(&mut self, at: Time, _addr: Addr) -> Time {
            self.fetches += 1;
            at + self.latency
        }
        fn writeback_line(&mut self, _at: Time, _addr: Addr) {
            self.writebacks += 1;
        }
    }

    fn sys(remote_lat_ns: u64) -> MemSystem<FixedRemote> {
        let map = AddressMap::new(1 << 20, 1 << 20, 128);
        MemSystem::new(
            map,
            CacheConfig {
                sets: 4,
                ways: 2,
                line: 128,
            },
            shared(DramConfig {
                bandwidth_bytes_per_sec: 128e9,
                latency: Dur::ns(100),
                ..DramConfig::default()
            }),
            SysTiming {
                llc_hit: Dur::ns(4),
            },
            FixedRemote {
                latency: Dur::ns(remote_lat_ns),
                fetches: 0,
                writebacks: 0,
            },
        )
    }

    #[test]
    fn hit_is_fast_miss_is_slow() {
        let mut s = sys(1200);
        let a = Addr(0);
        let t_miss = s.access(Time::ZERO, a, false);
        // local miss: 1ns transfer + 100ns latency + 4ns hit
        assert_eq!(t_miss, Time::ns(105));
        let t_hit = s.access(t_miss, a, false);
        assert_eq!(t_hit, t_miss + Dur::ns(4));
    }

    #[test]
    fn remote_miss_goes_through_backend() {
        let mut s = sys(1200);
        let a = s.map.remote_base_addr();
        let t = s.access(Time::ZERO, a, false);
        assert_eq!(t, Time::ns(1204));
        assert_eq!(s.remote().fetches, 1);
        assert_eq!(s.stats.remote_miss, 1);
        assert_eq!(s.stats.local_miss, 0);
    }

    #[test]
    fn dirty_remote_victim_is_written_back_remotely() {
        let mut s = sys(1000);
        let base = s.map.remote_base_addr();
        // Cache geometry: 4 sets × 128B lines → same set every 512B.
        s.access(Time::ZERO, base, true); // dirty remote line, set 0
        s.access(Time::ZERO, base.offset(512), false); // same set
        s.access(Time::ZERO, base.offset(1024), false); // evicts the dirty line
        assert_eq!(s.remote().writebacks, 1);
        assert_eq!(s.stats.remote_writebacks, 1);
    }

    #[test]
    fn dirty_local_victim_uses_local_bus() {
        let mut s = sys(1000);
        s.access(Time::ZERO, Addr(0), true);
        s.access(Time::ZERO, Addr(512), false);
        s.access(Time::ZERO, Addr(1024), false);
        assert_eq!(s.stats.local_writebacks, 1);
        assert_eq!(s.remote().writebacks, 0);
    }

    #[test]
    fn data_round_trips_and_rereads_hit() {
        let mut s = sys(1200);
        let a = s.map.remote_base_addr();
        let t1 = s.access(Time::ZERO, a, true);
        s.backing_mut().write_f64(a, 2.5);
        let t2 = s.access(t1, a, false);
        assert_eq!(s.backing().read_f64(a), 2.5);
        assert_eq!(t2, t1 + Dur::ns(4), "second access must hit");
    }

    #[test]
    fn same_line_scalars_share_one_miss() {
        let mut s = sys(1200);
        let a = s.map.remote_base_addr();
        s.access(Time::ZERO, a, false);
        s.access(Time::ZERO, a.offset(8), false);
        s.access(Time::ZERO, a.offset(120), false);
        assert_eq!(s.stats.remote_miss, 1, "one line, one miss");
        assert_eq!(s.cache_stats().hits, 2);
    }

    #[test]
    #[should_panic(expected = "no disaggregated memory")]
    fn no_remote_panics_on_remote_access() {
        let map = AddressMap::new(1 << 20, 1 << 20, 128);
        let mut s = MemSystem::new(
            map,
            CacheConfig::tiny(),
            shared(DramConfig::default()),
            SysTiming::default(),
            NoRemote,
        );
        let a = s.map.remote_base_addr();
        s.access(Time::ZERO, a, false);
    }

    #[test]
    fn latency_histograms_populated() {
        let mut s = sys(2000);
        s.access(Time::ZERO, s.map.remote_base_addr(), false);
        s.access(Time::ZERO, Addr(0), false);
        assert_eq!(s.stats.remote_latency.count(), 1);
        assert_eq!(s.stats.local_latency.count(), 1);
        assert!(s.stats.remote_latency.mean() > s.stats.local_latency.mean());
    }

    /// Run `f` with a recorder installed (1 ns counter windows, so a
    /// replayed run straddles several) and return what it captured.
    fn traced<T>(f: impl FnOnce() -> T) -> (T, thymesim_telemetry::PointTrace) {
        thymesim_telemetry::install(thymesim_telemetry::TraceRecorder::with_window(
            0, 1_000, 1_000,
        ));
        let out = f();
        (out, thymesim_telemetry::take().expect("recorder installed"))
    }

    fn assert_same_telemetry(
        a: &thymesim_telemetry::PointTrace,
        b: &thymesim_telemetry::PointTrace,
    ) {
        assert!(a.tracks.iter().any(|t| t.name == "mem.llc_miss_rate"));
        assert_eq!(a.tracks, b.tracks);
        assert_eq!(a.events, b.events);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn retouch_is_equivalent_to_a_hitting_access() {
        // Walk the 16 scalars of one line two ways, recorder installed:
        // full per-scalar accesses vs execute-once then one-round replays
        // through the handle. Stats, telemetry, and subsequent LRU
        // behavior must be identical.
        let walk = |stall: bool| {
            traced(|| {
                let mut s = sys(1200);
                let a = Addr(0);
                let (mut t, miss, touch) = s.access_entry(Time::ZERO, a, false);
                assert!(miss);
                for i in 1..16u64 {
                    let write = i % 3 == 0;
                    if stall {
                        s.retouch_rounds_at(t, Dur::ZERO, &[(touch, write)], 1);
                        t += Dur::ns(4);
                    } else {
                        let (done, miss) = s.access_info(t, a.offset(i * 8), write);
                        assert!(!miss, "scalar {i}");
                        assert_eq!(done, t + Dur::ns(4));
                        t = done;
                    }
                }
                // The line was dirtied through both paths: evicting it
                // must write back in both systems.
                s.access(Time::ZERO, Addr(512), false);
                s.access(Time::ZERO, Addr(1024), false);
                assert_eq!(s.stats.local_writebacks, 1);
                (s.stats.reads, s.stats.writes, s.cache_stats())
            })
        };
        let (full, full_trace) = walk(false);
        let (stalled, stalled_trace) = walk(true);
        assert_eq!(full, stalled);
        assert_same_telemetry(&full_trace, &stalled_trace);
    }

    #[test]
    fn retouch_rounds_is_equivalent_to_repeated_hitting_accesses() {
        // Three resident lines replayed 15 rounds two ways, recorder
        // installed: full hitting accesses at `start + i·step` vs the
        // closed form. Lines 0 (dirty) and 512 share set 0, so a wrong
        // final-round stamp order shows as the wrong victim below.
        let addrs = [Addr(0), Addr(512), Addr(128)];
        let writes = [true, false, false];
        let (start, step, rounds) = (Time::ns(7), Dur::ps(300), 15);
        let replay = |bulk: bool| {
            traced(|| {
                let mut s = sys(1200);
                let mut handles = Vec::new();
                for (&a, &w) in addrs.iter().zip(&writes) {
                    handles.push((s.access_entry(Time::ZERO, a, w).2, w));
                }
                for (&a, &(t, _)) in addrs.iter().zip(&handles) {
                    assert!(s.line_resident(a, t));
                }
                if bulk {
                    s.retouch_rounds_at(start, step, &handles, rounds);
                } else {
                    for i in 0..rounds {
                        for (&a, &w) in addrs.iter().zip(&writes) {
                            let (_, miss) = s.access_info(start + step * i, a, w);
                            assert!(!miss);
                        }
                    }
                }
                let replayed = (s.stats.reads, s.stats.writes, s.cache_stats());
                // Set 0 is full: the next conflict must evict line 0 —
                // least recent of the final round, and dirty.
                s.access(Time::ZERO, Addr(1024), false);
                assert_eq!(s.stats.local_writebacks, 1);
                s.access(Time::ZERO, Addr(1536), false);
                (replayed, s.cache_stats(), s.stats.local_writebacks)
            })
        };
        let (per, per_trace) = replay(false);
        let (bulk, bulk_trace) = replay(true);
        assert_eq!(per, bulk);
        assert_same_telemetry(&per_trace, &bulk_trace);
    }

    #[test]
    fn dropped_systems_accumulate_timed_access_totals() {
        let before = timed_accesses_total();
        {
            let mut s = sys(1200);
            s.access(Time::ZERO, Addr(0), false);
            s.access(Time::ZERO, Addr(8), true);
            s.access(Time::ZERO, Addr(16), false);
        } // drop flushes
        assert!(timed_accesses_total() >= before + 3);
    }
}
