//! A pointer-chasing latency probe.
//!
//! STREAM measures *throughput-regime* latency (a full window of
//! outstanding fetches). The probe measures the opposite extreme: a
//! dependent chain of single outstanding loads over a random cyclic
//! permutation — the classic `lat_mem_rd`-style microbenchmark. Together
//! they bracket the latency an application sees at any MLP, and the probe
//! exposes the delay gate's *alignment* behaviour (mean wait ≈ PERIOD/2
//! cycles for isolated accesses) as opposed to its queueing behaviour
//! (≈ window × PERIOD for saturating ones).

use thymesim_mem::{Arena, MemSystem, RemoteBackend, SimVec};
use thymesim_sim::{Dur, Histogram, Time, Xoshiro256};

/// Probe configuration.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct ProbeConfig {
    /// Entries in the chase chain; each entry is one cache line.
    pub lines: u64,
    /// Loads to issue (the chain cycles if longer than `lines`).
    pub hops: u64,
    /// CPU cost between dependent loads (address arithmetic).
    pub cpu_per_hop: Dur,
    pub seed: u64,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            lines: 1 << 16, // 8 MiB footprint at 128 B per line
            hops: 1 << 16,
            cpu_per_hop: Dur::ns(1),
            seed: 0xC0FFEE,
        }
    }
}

impl ProbeConfig {
    pub fn tiny() -> ProbeConfig {
        ProbeConfig {
            lines: 4096,
            hops: 4096,
            ..ProbeConfig::default()
        }
    }
}

/// Probe result.
#[derive(Clone, Debug)]
pub struct ProbeReport {
    /// Mean dependent-load latency (load-to-load time minus CPU).
    pub mean: Dur,
    pub p50: Dur,
    pub p99: Dur,
    /// Full per-hop latency distribution.
    pub histogram: Histogram,
    pub hops: u64,
    /// The chain was a single cycle covering every line.
    pub chain_valid: bool,
}

/// The chase table: line `i` holds the index of the next line.
pub struct ChaseTable {
    next: SimVec<u64>,
}

impl ChaseTable {
    /// Build a single-cycle random permutation (Sattolo's algorithm) so
    /// the chain visits every line exactly once per lap — no short cycles
    /// that would fit in the cache by accident.
    pub fn build<R: RemoteBackend>(
        cfg: &ProbeConfig,
        sys: &mut MemSystem<R>,
        arena: &mut Arena,
    ) -> ChaseTable {
        assert!(cfg.lines >= 2);
        let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
        let mut perm: Vec<u64> = (0..cfg.lines).collect();
        // Sattolo: single-cycle permutation.
        for i in (1..perm.len()).rev() {
            let j = rng.below(i as u64) as usize;
            perm.swap(i, j);
        }
        // next[perm[k]] = perm[k+1]
        let next: SimVec<u64> = arena.alloc_vec(cfg.lines * 16); // one line per entry
        for k in 0..cfg.lines as usize {
            let from = perm[k];
            let to = perm[(k + 1) % perm.len()];
            next.set_raw(sys, from * 16, to);
        }
        ChaseTable { next }
    }

    /// Verify the chain is one full cycle.
    pub fn validate<R: RemoteBackend>(&self, sys: &MemSystem<R>, lines: u64) -> bool {
        let mut seen = vec![false; lines as usize];
        let mut cur = 0u64;
        for _ in 0..lines {
            if seen[cur as usize] {
                return false;
            }
            seen[cur as usize] = true;
            cur = self.next.get_raw(sys, cur * 16);
            if cur >= lines {
                return false;
            }
        }
        cur == 0 && seen.iter().all(|&s| s)
    }

    /// One timed hop: read the next-pointer at `cur`, returning
    /// `(next index, completion time)`.
    #[inline]
    pub fn read_hop<R: RemoteBackend>(
        &self,
        sys: &mut MemSystem<R>,
        t: Time,
        cur: u64,
    ) -> (u64, Time) {
        self.next.get(sys, t, cur * 16)
    }

    /// Run the timed chase.
    pub fn run<R: RemoteBackend>(
        &self,
        cfg: &ProbeConfig,
        sys: &mut MemSystem<R>,
        start: Time,
    ) -> ProbeReport {
        let chain_valid = self.validate(sys, cfg.lines);
        let mut hist = Histogram::new();
        let mut t = start;
        let mut cur = 0u64;
        thymesim_telemetry::phase_begin("probe.chase", None);
        for _ in 0..cfg.hops {
            let (nxt, done) = self.read_hop(sys, t, cur);
            hist.record((done - t).as_ps());
            t = done + cfg.cpu_per_hop;
            cur = nxt;
        }
        thymesim_telemetry::phase_end();
        thymesim_telemetry::span_arg("workload", "probe.chase", start, t, "hops", cfg.hops);
        ProbeReport {
            mean: hist.mean_dur(),
            p50: Dur::ps(hist.p50()),
            p99: Dur::ps(hist.p99()),
            histogram: hist,
            hops: cfg.hops,
            chain_valid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thymesim_mem::{
        shared_dram, Addr, AddressMap, CacheConfig, DramConfig, NoRemote, SysTiming,
    };

    fn sys() -> MemSystem<NoRemote> {
        MemSystem::new(
            AddressMap::new(256 << 20, 256 << 20, 128),
            CacheConfig::tiny(),
            shared_dram(DramConfig::default()),
            SysTiming::default(),
            NoRemote,
        )
    }

    #[test]
    fn chain_is_one_full_cycle() {
        let cfg = ProbeConfig::tiny();
        let mut s = sys();
        let mut arena = Arena::new(Addr(0), 256 << 20);
        let table = ChaseTable::build(&cfg, &mut s, &mut arena);
        assert!(table.validate(&s, cfg.lines));
    }

    #[test]
    fn thrash_sized_chase_measures_dram_latency() {
        // 4096 lines × 128 B entry stride... each entry on its own line:
        // footprint 4096 × 128 = 512 KiB > 256 KiB cache → mostly misses.
        let cfg = ProbeConfig::tiny();
        let mut s = sys();
        let mut arena = Arena::new(Addr(0), 256 << 20);
        let table = ChaseTable::build(&cfg, &mut s, &mut arena);
        let report = table.run(&cfg, &mut s, Time::ZERO);
        assert!(report.chain_valid);
        // Local DRAM ~121 ns; with some residual hits the mean sits between
        // the LLC and DRAM latencies.
        let mean_ns = report.mean.as_ns_f64();
        assert!(
            (40.0..140.0).contains(&mean_ns),
            "local chase mean {mean_ns} ns"
        );
        assert!(report.p99 >= report.p50);
    }

    #[test]
    fn cache_sized_chase_hits() {
        let mut cfg = ProbeConfig::tiny();
        cfg.lines = 512; // 64 KiB < 256 KiB cache
        cfg.hops = 4096; // several laps: first lap cold, rest hit
        let mut s = sys();
        let mut arena = Arena::new(Addr(0), 256 << 20);
        let table = ChaseTable::build(&cfg, &mut s, &mut arena);
        let report = table.run(&cfg, &mut s, Time::ZERO);
        let mean_ns = report.mean.as_ns_f64();
        assert!(
            mean_ns < 30.0,
            "resident chase should be near the LLC hit time, got {mean_ns} ns"
        );
    }

    #[test]
    fn deterministic_by_seed() {
        let cfg = ProbeConfig::tiny();
        let run = || {
            let mut s = sys();
            let mut arena = Arena::new(Addr(0), 256 << 20);
            let t = ChaseTable::build(&cfg, &mut s, &mut arena);
            t.run(&cfg, &mut s, Time::ZERO).mean
        };
        assert_eq!(run(), run());
    }
}
