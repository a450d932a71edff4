//! Cross-crate property tests: invariants that must hold for arbitrary
//! configurations, checked through the public facade at small scale.

use proptest::prelude::*;
use thymesim::prelude::*;
use thymesim::sim::Time;
use thymesim_telemetry::attribution::READ_ANATOMY;
use thymesim_telemetry::{
    PointTrace, SweepAttribution, SweepBlame, SweepUtilization, TraceRecorder,
};

fn stream_cfg(elements: u64) -> StreamConfig {
    let mut s = StreamConfig::tiny();
    s.elements = elements;
    s
}

/// Stage-name table for synthetic attribution points: the full read
/// anatomy plus two non-anatomy stages.
const STAGE_NAMES: [&str; 8] = [
    "credit.wait",
    "fabric.egress",
    "fabric.gate_wait",
    "fabric.wire_out",
    "fabric.lender_bus",
    "fabric.return",
    "mem.local_miss",
    "link.queue_wait",
];

/// Build one synthetic traced point from encoded observations, in the
/// order given. Each `u64` packs one observation (the vendored proptest
/// has no tuple strategies): stage index in the low bits, duration in
/// the rest.
fn synth_point(index: usize, obs: &[u64]) -> PointTrace {
    let mut r = TraceRecorder::new(index, 16);
    for v in obs {
        let stage = (v % STAGE_NAMES.len() as u64) as usize;
        let ns = v / STAGE_NAMES.len() as u64 + 1;
        r.latency(STAGE_NAMES[stage], thymesim::sim::Dur::ns(ns));
    }
    r.finish()
}

/// Inverse of `synth_point`'s decoding: one observation of `ns` ns on
/// `STAGE_NAMES[stage]`.
fn enc(stage: u64, ns: u64) -> u64 {
    (ns - 1) * STAGE_NAMES.len() as u64 + stage
}

/// Phase-name table for phased synthetic points, covering every marker
/// family the workloads emit — the GAP kernel phases (`cc.iter`,
/// `bc.forward`/`bc.backward`, `tc.count`) included, so the partition
/// properties below hold for their frames too. Slot 0 of the phase
/// field means "between markers" (the observation lands in `unphased`).
const PHASE_NAMES: [&str; 7] = [
    "copy",
    "bfs.level",
    "kv.steady",
    "cc.iter",
    "bc.forward",
    "bc.backward",
    "tc.count",
];

/// Like `synth_point`, but each packed observation also selects the
/// workload phase it lands in: after the stage bits, the next field
/// picks a phase (0 = no marker active), the rest is the duration.
/// Each observation carries its own phase, so reordering observations
/// preserves the (stage, phase, duration) multiset.
fn synth_phased_point(index: usize, obs: &[u64]) -> PointTrace {
    let mut r = TraceRecorder::new(index, 16);
    let nstages = STAGE_NAMES.len() as u64;
    let nphases = PHASE_NAMES.len() as u64 + 1;
    for v in obs {
        let stage = (v % nstages) as usize;
        let rest = v / nstages;
        let phase = (rest % nphases) as usize;
        let ns = rest / nphases + 1;
        if phase == 0 {
            r.phase_end();
        } else {
            let name = PHASE_NAMES[phase - 1];
            // Give the indexed-phase families (BFS levels, CC sweeps) a
            // number so sorting by (name, index) is exercised too.
            let idx = (name == "bfs.level" || name == "cc.iter").then_some(ns % 3);
            r.phase_begin(name, idx);
        }
        r.latency(STAGE_NAMES[stage], thymesim::sim::Dur::ns(ns));
    }
    r.phase_end();
    r.finish()
}

/// Counter window width for synthetic utilization points: 1 ns, so
/// picosecond-scale samples span many windows.
const CW: u64 = 1_000;

/// One synthetic counter track per windowed kind.
const COUNTER_NAMES: [&str; 3] = ["link.busy", "queue.depth", "miss.rate"];

/// Decode one packed counter observation and emit it: the low field
/// selects the sample kind, the next the start instant, the rest the
/// interval length (busy/level) — same packed-u64 style as `synth_point`.
fn counter_sample(r: &mut TraceRecorder, v: u64) {
    let kind = v % 3;
    let rest = v / 3;
    let start = rest % 10_000;
    let len = rest / 10_000 % 3_000;
    match kind {
        0 => r.counter_busy(COUNTER_NAMES[0], Time(start), Time(start + len)),
        1 => r.counter_level(COUNTER_NAMES[1], Time(start), Time(start + len), v % 4 + 1),
        _ => r.counter_ratio(COUNTER_NAMES[2], Time(start), v % 2, 1),
    }
}

/// Re-derive the exact integer accumulators `counter_sample` implies:
/// (busy occupied-ps, level weighted-ps, ratio numerator, ratio
/// denominator) summed over the observations.
fn counter_expect(obs: &[u64]) -> (u128, u128, u128, u128) {
    let (mut busy, mut level, mut num, mut den) = (0u128, 0u128, 0u128, 0u128);
    for &v in obs {
        let len = (v / 3 / 10_000 % 3_000) as u128;
        match v % 3 {
            0 => busy += len,
            1 => level += len * (v % 4 + 1) as u128,
            _ => {
                num += (v % 2) as u128;
                den += 1;
            }
        }
    }
    (busy, level, num, den)
}

/// Build one synthetic traced point carrying windowed counter tracks.
fn synth_counter_point(index: usize, window_ps: u64, obs: &[u64]) -> PointTrace {
    let mut r = TraceRecorder::with_window(index, 16, window_ps);
    r.counter_bound(COUNTER_NAMES[1], 4);
    for &v in obs {
        counter_sample(&mut r, v);
    }
    r.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// More injected delay never speeds STREAM up, for arbitrary PERIOD
    /// pairs, and results stay correct.
    #[test]
    fn prop_latency_monotone_in_period(p1 in 1u64..150, dp in 1u64..150) {
        let p2 = p1 + dp;
        let cfg = stream_cfg(4096);
        let a = run_stream_on_testbed(&TestbedConfig::tiny().with_period(p1), &cfg);
        let b = run_stream_on_testbed(&TestbedConfig::tiny().with_period(p2), &cfg);
        prop_assert!(a.verified && b.verified);
        prop_assert!(
            b.miss_latency_mean >= a.miss_latency_mean,
            "PERIOD {} -> {} lowered latency {} -> {}",
            p1, p2, a.miss_latency_mean, b.miss_latency_mean
        );
        prop_assert!(b.elapsed >= a.elapsed);
    }

    /// STREAM computes correct results for arbitrary sizes and scalars,
    /// remote or local.
    #[test]
    fn prop_stream_correct_for_any_shape(
        elements in 64u64..5000,
        ntimes in 1u32..3,
        scalar in 0.5f64..4.0,
        remote in any::<bool>(),
    ) {
        let mut cfg = stream_cfg(elements);
        cfg.ntimes = ntimes;
        cfg.scalar = scalar;
        let mut tb = Testbed::build(&TestbedConfig::tiny()).unwrap();
        let placement = if remote { Placement::Remote } else { Placement::Local };
        let report = run_stream(&mut tb, &cfg, placement);
        prop_assert!(report.verified, "wrong data for {elements} x{ntimes} s={scalar}");
    }

    /// The MCBN division law: per-instance bandwidth ≈ solo/N for any N.
    /// (Arrays must thrash the LLC even solo, or the solo baseline runs
    /// out of cache instead of the network.)
    #[test]
    fn prop_mcbn_division(n in 2usize..6) {
        let cfg = stream_cfg(16_384);
        let points = mcbn(&TestbedConfig::tiny(), &cfg, &[1, n]);
        let expected = points[0].per_instance_gib_s / n as f64;
        let got = points[1].per_instance_gib_s;
        let err = (got - expected).abs() / expected;
        prop_assert!(err < 0.35, "N={n}: got {got}, expected {expected}");
    }

    /// Fetch completions through one engine are FIFO (the wire and gate
    /// preserve order) for arbitrary issue gaps and PERIOD.
    #[test]
    fn prop_engine_completions_are_fifo(
        period in 1u64..500,
        gaps in proptest::collection::vec(0u64..2_000, 1..80),
    ) {
        use thymesim::mem::RemoteBackend;
        use thymesim::sim::{Dur, Time};
        let cfg = TestbedConfig::tiny().with_period(period);
        let mut tb = Testbed::build(&cfg).unwrap();
        let base = tb.remote_arena.alloc(1 << 20, 128);
        let engine = tb.borrower.remote_mut();
        let mut t = tb.attach.ready_at;
        let mut prev_done = Time::ZERO;
        for (i, g) in gaps.iter().enumerate() {
            t += Dur::ns(*g);
            let done = engine.fetch_line(t, base.offset((i as u64 % 4096) * 128));
            prop_assert!(done >= prev_done, "completions reordered");
            prop_assert!(done > t, "completion before issue");
            // Never faster than the un-gated physical path.
            prop_assert!(done - t >= Dur::ns(800), "impossibly fast fetch");
            prev_done = done;
        }
    }

    /// Attribution invariant: for arbitrary per-stage observations, the
    /// anatomy stage totals partition the attributed read exactly and
    /// the shares sum to 1 within floating-point rounding.
    #[test]
    fn prop_attribution_shares_partition_the_read(
        points in proptest::collection::vec(
            proptest::collection::vec(0u64..8_000_000, 1..24),
            1..6,
        ),
    ) {
        let traces: Vec<PointTrace> = points
            .iter()
            .enumerate()
            .map(|(i, obs)| synth_point(i, obs))
            .collect();
        let att = SweepAttribution::fold("prop", traces.len(), &traces, &[]);
        for p in att.per_point.iter().chain(std::iter::once(&att.merged)) {
            let total: u64 = p.anatomy.iter().map(|s| s.total_ps).sum();
            prop_assert_eq!(total, p.read_total_ps, "anatomy must partition the read");
            if p.read_total_ps > 0 {
                let share_sum: f64 = p.anatomy.iter().filter_map(|s| s.share).sum();
                prop_assert!(
                    (share_sum - 1.0).abs() < 1e-9,
                    "shares sum to {} at point {:?}", share_sum, p.index
                );
            }
            for s in p.anatomy.iter().chain(&p.other) {
                if let Some(share) = s.share {
                    prop_assert!((0.0..=1.0).contains(&share));
                }
                if s.count > 0 {
                    let expect = s.total_ps as f64 / s.count as f64;
                    prop_assert!((s.mean_ps - expect).abs() < 1e-6 * (1.0 + expect));
                }
            }
        }
    }

    /// Attribution folding is order-independent: the same points folded
    /// in reverse (both point order and within-point observation order)
    /// produce identical reports — histogram merge is commutative and
    /// the fold sorts its outputs.
    #[test]
    fn prop_attribution_fold_is_order_independent(
        points in proptest::collection::vec(
            proptest::collection::vec(0u64..8_000_000, 1..24),
            2..6,
        ),
    ) {
        let forward: Vec<PointTrace> = points
            .iter()
            .enumerate()
            .map(|(i, obs)| synth_point(i, obs))
            .collect();
        let backward: Vec<PointTrace> = points
            .iter()
            .enumerate()
            .rev()
            .map(|(i, obs)| {
                let rev: Vec<u64> = obs.iter().rev().copied().collect();
                synth_point(i, &rev)
            })
            .collect();
        let a = SweepAttribution::fold("prop", points.len(), &forward, &[]);
        let b = SweepAttribution::fold("prop", points.len(), &backward, &[]);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.collapsed(), b.collapsed());
        prop_assert_eq!(
            serde_json::to_string(&a.to_value()).unwrap(),
            serde_json::to_string(&b.to_value()).unwrap()
        );
    }

    /// Per-phase attribution invariant: for arbitrary phase-annotated
    /// observations, each stage's phase sub-slices partition the stage
    /// integer-exactly (counts and picosecond totals), and the per-point
    /// phase index reproduces from the anatomy sub-totals.
    #[test]
    fn prop_phase_slices_partition_each_stage(
        points in proptest::collection::vec(
            proptest::collection::vec(0u64..8_000_000, 1..24),
            1..6,
        ),
    ) {
        let traces: Vec<PointTrace> = points
            .iter()
            .enumerate()
            .map(|(i, obs)| synth_phased_point(i, obs))
            .collect();
        let att = SweepAttribution::fold("prop", traces.len(), &traces, &[]);
        for p in att.per_point.iter().chain(std::iter::once(&att.merged)) {
            for s in p.anatomy.iter().chain(&p.other) {
                prop_assert!(!s.phases.is_empty(), "recorded stage {} has no phase buckets", &s.stage);
                let count: u64 = s.phases.iter().map(|ph| ph.count).sum();
                let total: u64 = s.phases.iter().map(|ph| ph.total_ps).sum();
                prop_assert_eq!(count, s.count, "phase counts must partition stage {}", &s.stage);
                prop_assert_eq!(total, s.total_ps, "phase totals must partition stage {}", &s.stage);
            }
            let indexed: u64 = p.phases.iter().map(|pt| pt.read_total_ps).sum();
            let from_slices: u64 = p
                .anatomy
                .iter()
                .flat_map(|s| s.phases.iter().map(|ph| ph.total_ps))
                .sum();
            prop_assert_eq!(indexed, from_slices, "phase index must match anatomy sub-totals");
        }
        // The rendered collapsed stacks pass the structural validator,
        // phase-frame rules included.
        let stats = thymesim_telemetry::attribution::check_collapsed(&att.collapsed())
            .map_err(TestCaseError::fail)?;
        prop_assert!(stats.phases >= stats.points);
    }

    /// Per-phase folding is order-independent: reversing both point
    /// order and within-point observation order produces identical
    /// reports, phase sub-slices and collapsed phase frames included.
    #[test]
    fn prop_phased_fold_is_order_independent(
        points in proptest::collection::vec(
            proptest::collection::vec(0u64..8_000_000, 1..24),
            2..6,
        ),
    ) {
        let forward: Vec<PointTrace> = points
            .iter()
            .enumerate()
            .map(|(i, obs)| synth_phased_point(i, obs))
            .collect();
        let backward: Vec<PointTrace> = points
            .iter()
            .enumerate()
            .rev()
            .map(|(i, obs)| {
                let rev: Vec<u64> = obs.iter().rev().copied().collect();
                synth_phased_point(i, &rev)
            })
            .collect();
        let a = SweepAttribution::fold("prop", points.len(), &forward, &[]);
        let b = SweepAttribution::fold("prop", points.len(), &backward, &[]);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.collapsed(), b.collapsed());
        prop_assert_eq!(
            serde_json::to_string(&a.to_value()).unwrap(),
            serde_json::to_string(&b.to_value()).unwrap()
        );
    }

    /// CSR structural invariants for arbitrary Kronecker shapes: `xadj`
    /// is monotone with `xadj[0] = 0`, the degree sum equals the 2|E|
    /// directed entries, rows are sorted ascending, and the compressed
    /// layout decodes every row identically to the flat one.
    #[test]
    fn prop_csr_invariants_for_any_shape(
        scale in 3u32..8,
        edgefactor in 0u32..10,
        seed in 0u64..1_000,
    ) {
        use thymesim::mem::{
            shared_dram, Addr, AddressMap, Arena, CacheConfig, DramConfig, MemSystem, NoRemote,
            SysTiming,
        };
        use thymesim::workloads::graph500::{
            build_from_edges, kronecker_edges, CsrArenas, CsrLayout, Graph500Config,
        };
        let gcfg = Graph500Config {
            scale,
            edgefactor,
            seed,
            roots: 0,
            ..Graph500Config::tiny()
        };
        let build = |layout| {
            let mut s = MemSystem::new(
                AddressMap::new(64 << 20, 64 << 20, 128),
                CacheConfig::tiny(),
                shared_dram(DramConfig::default()),
                SysTiming::default(),
                NoRemote,
            );
            let mut arena = Arena::new(Addr(0), 64 << 20);
            let mut arenas = CsrArenas::One(&mut arena);
            let g = build_from_edges(&gcfg, &mut s, &mut arenas, layout, &kronecker_edges(&gcfg));
            (s, g)
        };
        let (fs, fg) = build(CsrLayout::Flat);
        let (cs, cg) = build(CsrLayout::Compressed);

        // xadj monotone from 0; the degree sum is the directed entry count.
        let n = gcfg.vertices();
        prop_assert_eq!(fg.xadj.get_raw(&fs, 0), 0);
        let mut prev = 0u64;
        for v in 0..=n {
            let x = fg.xadj.get_raw(&fs, v);
            prop_assert!(x >= prev, "xadj not monotone at {v}");
            prop_assert_eq!(cg.xadj.get_raw(&cs, v), x, "layouts disagree on xadj[{}]", v);
            prev = x;
        }
        prop_assert_eq!(prev, 2 * gcfg.edges(), "degree sum != 2|E|");
        prop_assert_eq!(fg.m2, 2 * gcfg.edges());

        // Row-by-row: sorted in both layouts, byte-equal decode.
        let (mut fr, mut cr) = (Vec::new(), Vec::new());
        for v in 0..n {
            fg.row(&fs, fg.cursor(&fs, v), &mut fr);
            cg.row(&cs, cg.cursor(&cs, v), &mut cr);
            let fv: Vec<u32> = fr.iter().map(|&(w, _)| w).collect();
            let cv: Vec<u32> = cr.iter().map(|&(w, _)| w).collect();
            prop_assert!(fv.windows(2).all(|w| w[0] <= w[1]), "row {v} unsorted");
            prop_assert_eq!(&fv, &cv, "compressed row {} decodes differently", v);
        }

        // The varint layout never pads: it is at most the flat footprint
        // plus the per-row offset table.
        prop_assert!(
            cg.adjacency_bytes() <= fg.adjacency_bytes() + (n + 1) * 8,
            "compression expanded the adjacency"
        );
    }

    /// The CC differential oracle holds for arbitrary shapes and either
    /// layout: label propagation converges to exactly the union-find
    /// partition, with one label per component.
    #[test]
    fn prop_cc_matches_union_find(
        scale in 3u32..7,
        edgefactor in 0u32..8,
        seed in 0u64..1_000,
        compressed in any::<bool>(),
    ) {
        use thymesim::mem::{
            shared_dram, Addr, AddressMap, Arena, CacheConfig, DramConfig, MemSystem, NoRemote,
            SysTiming,
        };
        use thymesim::workloads::cc::{cc, reference_components, validate_cc, CcConfig};
        use thymesim::workloads::graph500::{
            build_from_edges, kronecker_edges, CsrArenas, CsrLayout, Graph500Config,
        };
        let gcfg = Graph500Config {
            scale,
            edgefactor,
            seed,
            roots: 0,
            ..Graph500Config::tiny()
        };
        let layout = if compressed { CsrLayout::Compressed } else { CsrLayout::Flat };
        let mut s = MemSystem::new(
            AddressMap::new(64 << 20, 64 << 20, 128),
            CacheConfig::tiny(),
            shared_dram(DramConfig::default()),
            SysTiming::default(),
            NoRemote,
        );
        let mut arena = Arena::new(Addr(0), 64 << 20);
        let mut arenas = CsrArenas::One(&mut arena);
        let g = build_from_edges(&gcfg, &mut s, &mut arenas, layout, &kronecker_edges(&gcfg));
        let labels: thymesim::mem::SimVec<u32> = arena.alloc_vec(g.n.max(1));
        let report = cc(&CcConfig::default(), &mut s, &g, &labels, Time::ZERO);
        prop_assert!(report.converged);
        prop_assert!(validate_cc(&s, &g, &labels), "labels diverge from union-find");
        let mut roots = reference_components(&s, &g);
        roots.sort_unstable();
        roots.dedup();
        let distinct: std::collections::HashSet<u32> =
            (0..g.n).map(|v| labels.get_raw(&s, v)).collect();
        prop_assert_eq!(distinct.len() as u64, report.components);
        prop_assert_eq!(report.components, roots.len() as u64);
    }

    /// Attach either succeeds before the discovery budget or fails with a
    /// timeout — never hangs, never reports success late.
    #[test]
    fn prop_attach_respects_budget(period in 1u64..20_000) {
        let cfg = TestbedConfig::tiny().with_period(period);
        match Testbed::build(&cfg) {
            Ok(tb) => {
                let budget = cfg.control.discovery_timeout;
                prop_assert!(tb.attach.discovery_time <= budget);
                prop_assert!(tb.attach.ready_at > Time::ZERO);
            }
            Err(thymesim::fabric::AttachError::DiscoveryTimeout { elapsed, budget }) => {
                prop_assert!(elapsed > budget);
            }
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    /// The windowed counter fold is order-independent under shuffled
    /// sample arrival: reversing both point order and within-point
    /// emission order produces an identical `SweepUtilization` and
    /// byte-identical serialized JSON — each window is a commutative
    /// integer sum and the fold sorts points and counter names.
    #[test]
    fn prop_counter_fold_is_order_independent(
        points in proptest::collection::vec(
            proptest::collection::vec(0u64..90_000_000, 1..24),
            2..6,
        ),
    ) {
        let forward: Vec<PointTrace> = points
            .iter()
            .enumerate()
            .map(|(i, obs)| synth_counter_point(i, CW, obs))
            .collect();
        let backward: Vec<PointTrace> = points
            .iter()
            .enumerate()
            .rev()
            .map(|(i, obs)| {
                let rev: Vec<u64> = obs.iter().rev().copied().collect();
                synth_counter_point(i, CW, &rev)
            })
            .collect();
        let a = SweepUtilization::fold("prop", points.len(), &forward, CW, 0.9);
        let b = SweepUtilization::fold("prop", points.len(), &backward, CW, 0.9);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(
            serde_json::to_string(&a.to_value()).unwrap(),
            serde_json::to_string(&b.to_value()).unwrap()
        );
    }

    /// Time-weighted means are exact under window merging: the `num`
    /// accumulator (occupied/weighted picoseconds, or ratio events) is a
    /// pure integer sum over the samples, so folding the same samples at
    /// a k× coarser window leaves every accumulator bit-identical to the
    /// value re-derived directly from the decoded samples, and the
    /// reported mean is exactly `num / den` at either width.
    #[test]
    fn prop_counter_means_exact_under_window_merging(
        obs in proptest::collection::vec(0u64..90_000_000, 1..32),
        k in 2u64..8,
    ) {
        let (busy, level, num, den) = counter_expect(&obs);
        for w in [CW, CW * k] {
            let u = SweepUtilization::fold(
                "prop", 1, &[synth_counter_point(0, w, &obs)], w, 0.9,
            );
            let p = &u.per_point[0];
            // The horizon is whole windows covering the last sample.
            prop_assert_eq!(p.horizon_ps % w, 0);
            for c in &p.counters {
                match c.name.as_str() {
                    "link.busy" => {
                        prop_assert_eq!(c.num, busy);
                        prop_assert_eq!(c.den, p.horizon_ps as u128);
                    }
                    "queue.depth" => prop_assert_eq!(c.num, level),
                    "miss.rate" => prop_assert_eq!((c.num, c.den), (num, den)),
                    other => prop_assert!(false, "unexpected counter {other}"),
                }
                let expect = if c.den == 0 { 0.0 } else { c.num as f64 / c.den as f64 };
                prop_assert_eq!(c.mean, expect, "mean must derive from the integers");
                prop_assert!(c.covered_ps <= p.horizon_ps);
            }
        }
    }

    /// A zero-traffic point — components register their counters but
    /// nothing ever occupies them — folds to all-zero busy fractions:
    /// zero mean, zero peak, no saturated time, anywhere in the report.
    #[test]
    fn prop_zero_traffic_folds_to_all_zero_busy(
        instants in proptest::collection::vec(0u64..90_000_000, 1..16),
    ) {
        let mut r = TraceRecorder::with_window(0, 16, CW);
        for &t in &instants {
            r.counter_busy("link.busy", Time(t), Time(t)); // idle link
            r.counter_ratio("miss.rate", Time(t), 0, 1); // access, no miss
        }
        let u = SweepUtilization::fold("prop", 1, &[r.finish()], CW, 0.9);
        prop_assert_eq!(u.per_point[0].counters.len(), 2);
        for c in u.per_point[0].counters.iter().chain(&u.merged) {
            prop_assert_eq!(c.num, 0);
            prop_assert_eq!(c.mean, 0.0);
            prop_assert_eq!(c.peak, 0.0);
            prop_assert_eq!(c.saturated_ps, 0);
            prop_assert_eq!(c.saturated_frac, 0.0);
            prop_assert_eq!(c.longest_saturated_ps, 0);
        }
    }

    /// The banked DRAM state machines obey the JEDEC-style timing
    /// constraints for arbitrary geometry, timing values, page policy,
    /// and access sequences — audited from the emitted command trace,
    /// per bank: no CAS before `tRCD` after its activate, no activate
    /// before `tRP` after the precharge, no precharge before `tRAS`
    /// after the activate, and the FR-FCFS starvation cap bounds every
    /// CAS run between row cycles to `cap + 1` grants.
    #[test]
    fn prop_banked_dram_obeys_timing_constraints(
        banks in 1usize..5,
        row_shift in 7u32..12,
        t_rcd in 0u64..40,
        t_rp in 0u64..40,
        t_cas in 1u64..120,
        t_ras in 0u64..80,
        cap in 1u32..6,
        closed in any::<bool>(),
        seq in proptest::collection::vec(0u64..50_000_000, 1..200),
    ) {
        use thymesim::mem::{Addr, BankedDram, BankedDramConfig, DramCmdKind, PagePolicy};
        use thymesim::sim::Dur;
        let cfg = BankedDramConfig {
            banks,
            row_bytes: 1 << row_shift,
            t_rcd: Dur::ns(t_rcd),
            t_rp: Dur::ns(t_rp),
            t_cas: Dur::ns(t_cas),
            t_ras: Dur::ns(t_ras),
            policy: if closed { PagePolicy::Closed } else { PagePolicy::Open },
            starvation_cap: cap,
        };
        let mut d = BankedDram::new(cfg, 140e9);
        d.record_commands(true);
        let mut t = Time::ZERO;
        for v in &seq {
            t += Dur::ns(v % 700);
            let addr = Addr((v / 700) % (1 << 18) * 64);
            let (acc, wait, _busy) = d.access(t, addr, 128);
            prop_assert!(acc.start >= t, "bus grant before arrival");
            prop_assert!(acc.done >= acc.start + cfg.t_cas, "CAS latency unpaid");
            prop_assert_eq!(acc.start - t, wait, "queue delay must be start - arrival");
        }
        let stats = d.stats();
        prop_assert_eq!(stats.hits + stats.misses + stats.conflicts, seq.len() as u64);
        // Per-bank command-trace audit.
        let mut last_act = vec![None; banks];
        let mut last_pre = vec![None; banks];
        let mut cas_since_act = vec![0u32; banks];
        for c in d.commands() {
            let b = c.bank as usize;
            match c.kind {
                DramCmdKind::Activate => {
                    if let Some(p) = last_pre[b] {
                        prop_assert!(c.at >= p + cfg.t_rp, "ACT at {} < PRE {} + tRP", c.at, p);
                    }
                    last_act[b] = Some(c.at);
                    cas_since_act[b] = 0;
                }
                DramCmdKind::Precharge => {
                    if let Some(a) = last_act[b] {
                        prop_assert!(c.at >= a + cfg.t_ras, "PRE at {} < ACT {} + tRAS", c.at, a);
                    }
                    last_pre[b] = Some(c.at);
                }
                DramCmdKind::Cas => {
                    prop_assert!(last_act[b].is_some(), "CAS on a never-activated bank");
                    let a = last_act[b].unwrap();
                    prop_assert!(c.at >= a + cfg.t_rcd, "CAS at {} < ACT {} + tRCD", c.at, a);
                    cas_since_act[b] += 1;
                    prop_assert!(
                        cas_since_act[b] <= cap + 1,
                        "bank {} granted {} CAS since its activate (cap {})",
                        b, cas_since_act[b], cap
                    );
                }
            }
        }
    }

    /// Replaying the same access sequence on a fresh banked engine is
    /// bit-deterministic: identical bus grants, queue delays, row-outcome
    /// counters, and command traces.
    #[test]
    fn prop_banked_dram_replay_is_deterministic(
        seq in proptest::collection::vec(0u64..50_000_000, 1..120),
    ) {
        use thymesim::mem::{Addr, BankedDram, BankedDramConfig};
        use thymesim::sim::Dur;
        let run = |seq: &[u64]| {
            let mut d = BankedDram::new(BankedDramConfig::ddr4(), 140e9);
            d.record_commands(true);
            let mut t = Time::ZERO;
            let mut out = Vec::new();
            for v in seq {
                t += Dur::ns(v % 700);
                out.push(d.access(t, Addr((v / 700) % (1 << 18) * 64), 128));
            }
            (out, d.commands().to_vec(), d.stats())
        };
        let (a_out, a_cmds, a_stats) = run(&seq);
        let (b_out, b_cmds, b_stats) = run(&seq);
        prop_assert_eq!(a_out, b_out);
        prop_assert_eq!(a_cmds, b_cmds);
        prop_assert_eq!(a_stats, b_stats);
    }

    /// The degenerate banked configuration (one bank, one always-open
    /// row, zero row-cycle cost) equals the flat channel access-for-
    /// access on arbitrary sequences and latencies — the property-level
    /// counterpart of the sweep differential in `dram_differential.rs`.
    #[test]
    fn prop_degenerate_banked_equals_flat_channel(
        lat in 0u64..300,
        seq in proptest::collection::vec(0u64..50_000_000, 1..150),
    ) {
        use thymesim::mem::{Addr, BankedDramConfig, DramChannel, DramConfig, DramModel};
        use thymesim::sim::Dur;
        let base = DramConfig {
            latency: Dur::ns(lat),
            ..DramConfig::default()
        };
        let mut fixed = DramChannel::new(base);
        let mut banked = DramChannel::new(DramConfig {
            model: DramModel::Banked(BankedDramConfig::degenerate(Dur::ns(lat))),
            ..base
        });
        let mut t = Time::ZERO;
        for v in &seq {
            t += Dur::ns(v % 700);
            let addr = Addr((v / 700) % (1 << 20) * 64);
            let bytes = if v % 5 == 0 { 4096 } else { 128 };
            let a = fixed.access(t, addr, bytes);
            let b = banked.access(t, addr, bytes);
            prop_assert_eq!(a, b, "diverged at t={} addr={}", t, addr.0);
        }
        prop_assert_eq!(fixed.queue_wait_ps, banked.queue_wait_ps);
    }
}

/// Source-name table for synthetic blame points; each name is always
/// paired with its own table index, so labels are `alpha_0`, `beta_1`,
/// `gamma_2`.
const SRC_NAMES: [&str; 3] = ["alpha", "beta", "gamma"];
const RES_NAMES: [&str; 2] = ["gate", "dram"];

/// Decode one packed blame observation and emit it under `src`: the low
/// fields select the resource and occupy-vs-wait, the rest the start
/// instant and interval length — same packed-u64 style as `synth_point`.
fn blame_op(r: &mut TraceRecorder, v: u64, src: usize, start_offset: u64) {
    let res = (v % 2) as usize;
    let rest = v / 2;
    let wait = rest % 2 == 1;
    let rest = rest / 2;
    let start = rest % 20_000 + if wait { 0 } else { start_offset };
    let len = rest / 20_000 % 2_000;
    r.source_begin(SRC_NAMES[src], src as u64);
    if wait {
        r.blame_wait(RES_NAMES[res], Time(start), Time(start + len));
    } else {
        r.blame_occupy(RES_NAMES[res], Time(start), Time(start + len));
    }
}

/// Build one synthetic blame point; the source of each observation is
/// picked from its own bits.
fn synth_blame_point(index: usize, obs: &[u64]) -> PointTrace {
    let mut r = TraceRecorder::new(index, 16);
    for &v in obs {
        blame_op(&mut r, v, (v / 4 % 3) as usize, 0);
    }
    r.finish()
}

/// The exact wait total each `(resource, source)` pair accumulated.
fn expected_waits(obs: &[u64]) -> Vec<((usize, usize), u64)> {
    let mut totals: Vec<((usize, usize), u64)> = Vec::new();
    for &v in obs {
        if v / 2 % 2 != 1 {
            continue;
        }
        let key = ((v % 2) as usize, (v / 4 % 3) as usize);
        let len = v / 4 / 20_000 % 2_000;
        match totals.iter_mut().find(|(k, _)| *k == key) {
            Some((_, t)) => *t += len,
            None => totals.push((key, len)),
        }
    }
    totals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Blame is a partition: at every fold level, `self + Σ cross`
    /// equals the wait integer-exactly, no victim blames itself, and
    /// the folded per-victim wait totals match the recorded waits.
    #[test]
    fn prop_blame_partitions_each_wait(
        obs in proptest::collection::vec(0u64..u64::MAX, 1..200),
    ) {
        let t = synth_blame_point(0, &obs);
        for e in &t.blame {
            let cross: u64 = e.by.iter().map(|(_, ps)| ps).sum();
            prop_assert_eq!(e.self_ps + cross, e.wait_ps, "entry partition");
        }
        let folded = SweepBlame::fold("blame", 1, std::slice::from_ref(&t));
        for res in &folded.merged {
            prop_assert_eq!(res.self_ps + res.cross_ps, res.wait_ps);
            let mut vw = 0u64;
            for v in &res.victims {
                prop_assert_eq!(v.self_ps + v.cross_ps, v.wait_ps);
                prop_assert_eq!(v.by.iter().map(|c| c.ps).sum::<u64>(), v.cross_ps);
                prop_assert!(v.by.iter().all(|c| c.culprit != v.victim));
                vw += v.wait_ps;
            }
            prop_assert_eq!(vw, res.wait_ps);
        }
        // Exact conservation against the decoded observations.
        for ((res, src), total) in expected_waits(&obs) {
            let label = format!("{}_{src}", SRC_NAMES[src]);
            let got = folded
                .merged_resource(RES_NAMES[res])
                .and_then(|r| r.victim(&label))
                .map_or(0, |v| v.wait_ps);
            prop_assert_eq!(got, total, "{} waited-at {}", label, RES_NAMES[res]);
        }
    }

    /// Folding the same points in any trace order produces the identical
    /// report (merging is label-keyed commutative integer sums).
    #[test]
    fn prop_blame_fold_is_order_independent(
        obs in proptest::collection::vec(0u64..u64::MAX, 3..150),
    ) {
        let n = 3;
        let chunk = obs.len().div_ceil(n);
        let build = |order: Vec<usize>| {
            let traces: Vec<PointTrace> = order
                .into_iter()
                .map(|i| synth_blame_point(i, &obs[i * chunk..((i + 1) * chunk).min(obs.len())]))
                .collect();
            SweepBlame::fold("s", n, &traces)
        };
        let fwd = build((0..n).collect());
        let rev = build((0..n).rev().collect());
        prop_assert_eq!(fwd, rev);
    }

    /// One source alone (its waits decompose only against its own
    /// occupancy) accrues zero cross-blame: everything is self.
    #[test]
    fn prop_single_source_blame_is_all_self(
        obs in proptest::collection::vec(0u64..u64::MAX, 1..150),
    ) {
        let mut r = TraceRecorder::new(0, 16);
        for &v in &obs {
            blame_op(&mut r, v, 1, 0);
        }
        let folded = SweepBlame::fold("solo", 1, &[r.finish()]);
        for res in &folded.merged {
            prop_assert_eq!(res.cross_ps, 0, "{}", res.resource);
            prop_assert_eq!(res.self_ps, res.wait_ps);
            prop_assert!(res.top_interferer.is_none());
            prop_assert_eq!(res.cross_share(), 0.0);
        }
    }

    /// Zero contention — foreign occupancy exists but never overlaps a
    /// wait — also yields all-self blame.
    #[test]
    fn prop_disjoint_occupancy_is_all_self(
        obs in proptest::collection::vec(0u64..u64::MAX, 1..150),
    ) {
        let mut r = TraceRecorder::new(0, 16);
        for &v in &obs {
            // Occupancies land at +1 ms, far beyond every wait window.
            blame_op(&mut r, v, (v / 4 % 3) as usize, 1_000_000_000);
        }
        let folded = SweepBlame::fold("disjoint", 1, &[r.finish()]);
        for res in &folded.merged {
            prop_assert_eq!(res.cross_ps, 0, "{}", res.resource);
            prop_assert_eq!(res.self_ps, res.wait_ps);
            prop_assert!(res.top_interferer.is_none());
        }
    }
}

/// Degenerate sweeps must not panic: an empty grid, a one-point grid,
/// and a point that recorded nothing all fold to well-formed (if empty)
/// reports.
#[test]
fn attribution_degenerate_sweeps_do_not_panic() {
    let empty = SweepAttribution::fold("deg", 0, &[], &[]);
    assert!(empty.per_point.is_empty());
    assert_eq!(empty.merged.read_total_ps, 0);
    assert_eq!(empty.collapsed(), "");

    let one = SweepAttribution::fold("deg", 1, &[synth_point(0, &[enc(2, 500)])], &[]);
    assert_eq!(one.per_point.len(), 1);
    assert_eq!(one.merged.anatomy.len(), 1);
    assert_eq!(one.merged.anatomy[0].stage, READ_ANATOMY[2].0);
    assert_eq!(one.merged.anatomy[0].share, Some(1.0));

    // A recorder that observed nothing: no stages, zero totals, and the
    // collapsed report stays empty rather than emitting zero-count junk.
    let silent = SweepAttribution::fold("deg", 1, &[synth_point(0, &[])], &[]);
    assert_eq!(silent.per_point.len(), 1);
    assert_eq!(silent.per_point[0].read_total_ps, 0);
    assert!(silent.per_point[0].anatomy.is_empty());
    assert_eq!(silent.collapsed(), "");
}

/// A trace that never saw a phase marker folds every stage into a
/// single `unphased` sub-slice carrying the full stage total, and its
/// collapsed output is byte-identical to a phase-unaware trace (one
/// with no per-phase buckets at all) — today's single-frame shape.
#[test]
fn unmarked_trace_folds_to_single_unphased_frame() {
    let t = synth_point(0, &[enc(2, 500), enc(2, 700), enc(6, 40)]);
    let att = SweepAttribution::fold("deg", 1, std::slice::from_ref(&t), &[]);
    let p = &att.per_point[0];
    for s in p.anatomy.iter().chain(&p.other) {
        assert_eq!(s.phases.len(), 1, "stage {} not single-phase", s.stage);
        assert_eq!(s.phases[0].label(), "unphased");
        assert_eq!(s.phases[0].count, s.count);
        assert_eq!(s.phases[0].total_ps, s.total_ps);
    }
    assert!(att.collapsed().contains(";unphased;read;gate_wait "));

    let mut stripped = t;
    stripped.phased.clear();
    let bare = SweepAttribution::fold("deg", 1, &[stripped], &[]);
    assert_eq!(att.collapsed(), bare.collapsed());
}
