//! Differential validation of the banked DRAM backend: a degenerate
//! banked configuration — one bank, a single always-open row, zero
//! activate/precharge cost, CAS equal to the fixed latency adder — must
//! reproduce the fixed-latency `DramChannel` *byte-identically*, across
//! every experiment family the quick profile exercises. This is the
//! seam's correctness anchor: any drift between the two models on
//! degenerate timing is a bug in the banked state machines, not a
//! modelling choice.

use thymesim::mem::{Addr, BankedDramConfig, DramChannel, DramConfig, DramModel};
use thymesim::prelude::*;
use thymesim::sim::{Dur, Time};

fn stream_cfg(elements: u64) -> StreamConfig {
    let mut s = StreamConfig::tiny();
    s.elements = elements;
    s
}

/// The tiny testbed with both nodes' DRAM swapped for the degenerate
/// banked model, CAS matched to each node's fixed-latency calibration.
fn degenerate_testbed() -> TestbedConfig {
    let mut base = TestbedConfig::tiny();
    let local = BankedDramConfig::degenerate(base.borrower.dram.latency);
    let lender = BankedDramConfig::degenerate(base.lender.dram.latency);
    base.borrower.dram.model = DramModel::Banked(local);
    base.with_lender_dram(DramModel::Banked(lender))
}

/// Serialize a result series, stripping nothing: byte equality of the
/// JSON is the strongest statement the public API can make.
fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serialize")
}

/// Channel-level differential: arbitrary-ish access patterns (strided,
/// same-line hammering, out-of-order arrivals, mixed sizes) produce
/// identical `BusAccess` outcomes and identical aggregate counters on
/// the fixed channel and the degenerate banked channel.
#[test]
fn degenerate_channel_matches_fixed_access_for_access() {
    let cfg = DramConfig::default();
    let mut fixed = DramChannel::new(cfg);
    let mut banked = DramChannel::new(DramConfig {
        model: DramModel::Banked(BankedDramConfig::degenerate(cfg.latency)),
        ..cfg
    });

    // A deterministic but irregular schedule: arrival jitter from a
    // small LCG, addresses sweeping lines, rows, and repeats.
    let mut x = 0x2545F4914F6CDD1Du64;
    let mut step = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    };
    let mut t = Time::ZERO;
    for i in 0..4096u64 {
        t += Dur::ns(step() % 200);
        let addr = Addr((step() % (1 << 24)) & !127);
        let bytes = if i % 7 == 0 { 4096 } else { 128 };
        let a = fixed.access(t, addr, bytes);
        let b = banked.access(t, addr, bytes);
        assert_eq!(a, b, "access {i} diverged at t={t}");
    }
    assert_eq!(fixed.bytes_moved, banked.bytes_moved);
    assert_eq!(fixed.accesses, banked.accesses);
    assert_eq!(fixed.queue_wait_ps, banked.queue_wait_ps);
    // Every degenerate access after the first is a row hit; none is a
    // conflict (the single row never closes).
    let stats = banked.row_stats().expect("banked stats");
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.conflicts, 0);
    assert_eq!(stats.hits + 1, fixed.accesses);
}

/// The delay-sweep family (Fig. 2): per-point latency and bandwidth
/// series are byte-identical under the degenerate swap.
#[test]
fn degenerate_banked_matches_fixed_on_delay_sweep() {
    let periods = [1, 20, 80];
    let fixed = stream_delay_sweep(&TestbedConfig::tiny(), &stream_cfg(8192), &periods);
    let banked = stream_delay_sweep(&degenerate_testbed(), &stream_cfg(8192), &periods);
    assert_eq!(json(&fixed), json(&banked));
}

/// The MCBN family (Fig. 6, borrower-side contention): scaling borrower
/// instances hits the network bottleneck identically in both models.
#[test]
fn degenerate_banked_matches_fixed_on_mcbn() {
    let counts = [1, 2, 4];
    let fixed = mcbn(&TestbedConfig::tiny(), &stream_cfg(16_384), &counts);
    let banked = mcbn(&degenerate_testbed(), &stream_cfg(16_384), &counts);
    assert_eq!(json(&fixed), json(&banked));
}

/// The MCLN family (Fig. 7, lender-side contention): local lender
/// instances share the (degenerate) banked bus exactly as they share
/// the flat serial bus, out-of-order arrivals included.
#[test]
fn degenerate_banked_matches_fixed_on_mcln() {
    let counts = [0, 2, 4];
    let fixed = mcln(&TestbedConfig::tiny(), &stream_cfg(16_384), &counts);
    let banked = mcln(&degenerate_testbed(), &stream_cfg(16_384), &counts);
    assert_eq!(json(&fixed), json(&banked));
}

/// Application-level differential: the KV workload (irregular access
/// pattern, both placements) completes with identical results.
#[test]
fn degenerate_banked_matches_fixed_on_kv() {
    use thymesim::workloads::kv::KvConfig;
    for placement in [Placement::Local, Placement::Remote] {
        let mut tb_f = Testbed::build(&TestbedConfig::tiny()).unwrap();
        let a = run_kv(&mut tb_f, &KvConfig::tiny(), placement);
        let mut tb_b = Testbed::build(&degenerate_testbed()).unwrap();
        let b = run_kv(&mut tb_b, &KvConfig::tiny(), placement);
        assert!(a.data_ok && b.data_ok);
        assert_eq!(a.requests, b.requests, "kv diverged under {placement:?}");
        assert_eq!(
            a.ops_per_sec.to_bits(),
            b.ops_per_sec.to_bits(),
            "kv throughput diverged under {placement:?}"
        );
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.latency.mean().to_bits(), b.latency.mean().to_bits());
    }
}

/// A *non*-degenerate banked model must NOT match the fixed channel on
/// a bank-hammering pattern — guards against the differential tests
/// passing vacuously (e.g. the model flag being ignored).
#[test]
fn real_banked_timing_actually_diverges() {
    let cfg = DramConfig::default();
    let mut fixed = DramChannel::new(cfg);
    let mut banked = DramChannel::new(DramConfig {
        model: DramModel::Banked(BankedDramConfig::ddr4()),
        ..cfg
    });
    let mut diverged = false;
    for i in 0..64u64 {
        // Alternate two rows mapping to one bank: all conflicts.
        let addr = Addr((i % 2) * 16 * 2048 * 2);
        let a = fixed.access(Time::ZERO, addr, 128);
        let b = banked.access(Time::ZERO, addr, 128);
        diverged |= a != b;
    }
    assert!(diverged, "ddr4 timing should not equal the flat adder");
}
