//! Address-trace replay.
//!
//! Replays a recorded (or synthesized) sequence of memory accesses through
//! the timing model with a configurable issue window — the tool for
//! feeding *real application traces* to the testbed, and for crafting
//! adversarial patterns no benchmark produces. The text format is one
//! access per line:
//!
//! ```text
//! # comment
//! R 0x1000        # read at byte offset 0x1000 (hex or decimal)
//! W 4096          # write
//! R 0x2000 3      # optional repeat count
//! ```
//!
//! Offsets are relative to the replay base address, so the same trace can
//! be placed in local or remote memory.

use crate::issue::Core;
use thymesim_mem::{Addr, MemSystem, RemoteBackend};
use thymesim_sim::{Dur, Histogram, Time, Xoshiro256};

/// One access in a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceOp {
    /// Byte offset from the replay base.
    pub offset: u64,
    pub write: bool,
}

/// Parse the text trace format. Lines: `R <offset> [count]`,
/// `W <offset> [count]`, blank, or `#` comments.
pub fn parse_trace(text: &str) -> Result<Vec<TraceOp>, String> {
    let mut ops = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let kind = parts.next().unwrap();
        let write = match kind {
            "R" | "r" => false,
            "W" | "w" => true,
            other => return Err(format!("line {}: unknown op '{other}'", lineno + 1)),
        };
        let off_str = parts
            .next()
            .ok_or_else(|| format!("line {}: missing offset", lineno + 1))?;
        let offset = parse_u64(off_str)
            .ok_or_else(|| format!("line {}: bad offset '{off_str}'", lineno + 1))?;
        let count = match parts.next() {
            None => 1,
            Some(c) => {
                parse_u64(c).ok_or_else(|| format!("line {}: bad count '{c}'", lineno + 1))?
            }
        };
        if parts.next().is_some() {
            return Err(format!("line {}: trailing tokens", lineno + 1));
        }
        for _ in 0..count {
            ops.push(TraceOp { offset, write });
        }
    }
    Ok(ops)
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Synthesize a uniform-random trace over a footprint (line-aligned).
pub fn random_trace(accesses: u64, footprint: u64, write_ratio: f64, seed: u64) -> Vec<TraceOp> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let lines = (footprint / 128).max(1);
    (0..accesses)
        .map(|_| TraceOp {
            offset: rng.below(lines) * 128,
            write: rng.chance(write_ratio),
        })
        .collect()
}

/// Synthesize a strided (sequential if stride=line) trace.
pub fn strided_trace(accesses: u64, stride: u64, write_ratio_period: u64) -> Vec<TraceOp> {
    (0..accesses)
        .map(|i| TraceOp {
            offset: i * stride,
            write: write_ratio_period != 0 && i % write_ratio_period.max(1) == 0,
        })
        .collect()
}

/// Replay configuration.
#[derive(Clone, Copy, Debug)]
pub struct ReplayConfig {
    /// Outstanding line fetches (MSHR window).
    pub mlp: usize,
    /// CPU time per access.
    pub cpu_per_op: Dur,
    /// Dependent mode: each access issues only after the previous
    /// completes (pointer-chase semantics), ignoring `mlp`.
    pub dependent: bool,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            mlp: 16,
            cpu_per_op: Dur::ns(1),
            dependent: false,
        }
    }
}

/// Replay outcome.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    pub ops: u64,
    pub elapsed: Dur,
    /// Per-access latency (issue to completion).
    pub latency: Histogram,
    pub ops_per_sec: f64,
}

/// Replay `ops` against `sys` with data at `base`.
pub fn replay<R: RemoteBackend>(
    sys: &mut MemSystem<R>,
    base: Addr,
    ops: &[TraceOp],
    cfg: &ReplayConfig,
    start: Time,
) -> ReplayReport {
    let mut core = Core::new(cfg.mlp, start);
    let mut latency = Histogram::new();
    let mut last_done = start;
    for op in ops {
        // Dependent mode bypasses the window: each access waits for the
        // previous one, so the slots it holds all drain by `last_done`.
        let at = if cfg.dependent {
            last_done.max2(core.now())
        } else {
            core.slot()
        };
        let done = core.load(sys, at, base.offset(op.offset), op.write);
        latency.record((done - at).as_ps());
        last_done = done;
        core.retire(at, cfg.cpu_per_op);
    }
    let end = core.end().max2(last_done);
    let elapsed = end - start;
    ReplayReport {
        ops: ops.len() as u64,
        ops_per_sec: ops.len() as f64 / elapsed.as_secs_f64().max(1e-18),
        elapsed,
        latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thymesim_mem::{shared_dram, AddressMap, CacheConfig, DramConfig, NoRemote, SysTiming};

    fn sys() -> MemSystem<NoRemote> {
        MemSystem::new(
            AddressMap::new(64 << 20, 64 << 20, 128),
            CacheConfig::tiny(),
            shared_dram(DramConfig::default()),
            SysTiming::default(),
            NoRemote,
        )
    }

    #[test]
    fn parses_the_text_format() {
        let text = "\n# a trace\nR 0x1000\nW 4096 2\n  r 0X80  # lower case + hex\n";
        let ops = parse_trace(text).unwrap();
        assert_eq!(
            ops,
            vec![
                TraceOp {
                    offset: 0x1000,
                    write: false
                },
                TraceOp {
                    offset: 4096,
                    write: true
                },
                TraceOp {
                    offset: 4096,
                    write: true
                },
                TraceOp {
                    offset: 0x80,
                    write: false
                },
            ]
        );
    }

    #[test]
    fn parse_errors_name_the_line() {
        assert!(parse_trace("R").unwrap_err().contains("line 1"));
        assert!(parse_trace("X 0").unwrap_err().contains("unknown op"));
        assert!(parse_trace("R zzz").unwrap_err().contains("bad offset"));
        assert!(parse_trace("R 0 1 junk").unwrap_err().contains("trailing"));
    }

    #[test]
    fn sequential_replay_is_faster_than_random() {
        let mut s1 = sys();
        let seq = strided_trace(20_000, 8, 0);
        let r1 = replay(&mut s1, Addr(0), &seq, &ReplayConfig::default(), Time::ZERO);
        let mut s2 = sys();
        let rnd = random_trace(20_000, 16 << 20, 0.0, 7);
        let r2 = replay(&mut s2, Addr(0), &rnd, &ReplayConfig::default(), Time::ZERO);
        assert!(
            r1.ops_per_sec > r2.ops_per_sec * 3.0,
            "sequential {} vs random {} ops/s",
            r1.ops_per_sec,
            r2.ops_per_sec
        );
    }

    #[test]
    fn dependent_mode_serializes() {
        let rnd = random_trace(5_000, 16 << 20, 0.0, 9);
        let mut s1 = sys();
        let windowed = replay(&mut s1, Addr(0), &rnd, &ReplayConfig::default(), Time::ZERO);
        let mut s2 = sys();
        let dep_cfg = ReplayConfig {
            dependent: true,
            ..ReplayConfig::default()
        };
        let dependent = replay(&mut s2, Addr(0), &rnd, &dep_cfg, Time::ZERO);
        assert!(
            dependent.elapsed > windowed.elapsed,
            "dependent replay must be slower: {} vs {}",
            dependent.elapsed,
            windowed.elapsed
        );
    }

    #[test]
    fn report_is_consistent() {
        let mut s = sys();
        let ops = strided_trace(1000, 128, 4);
        let r = replay(&mut s, Addr(0), &ops, &ReplayConfig::default(), Time::us(5));
        assert_eq!(r.ops, 1000);
        assert_eq!(r.latency.count(), 1000);
        assert!(r.elapsed > Dur::ZERO);
        assert!(s.stats.writes > 0 && s.stats.reads > 0);
    }
}
