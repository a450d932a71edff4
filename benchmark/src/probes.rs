//! Unit-cost probes: each times one public function of one layer in
//! isolation and reports host nanoseconds per operation (the median
//! over batches). The ledger multiplies these by counted work.
//!
//! Probe inputs are fixed (no `--seed`), so unit costs compare across
//! runs and commits.

use crate::spans::Spans;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use thymesim_core::config::NodeConfig;
use thymesim_core::experiments::validate::DelaySweepPoint;
use thymesim_core::runners::local_system;
use thymesim_core::sweep::{self, SweepOptions};
use thymesim_core::testbed::Testbed;
use thymesim_core::{config::TestbedConfig, report};
use thymesim_delay::{AnalyticGate, ConstPeriod, CycleDelayGate};
use thymesim_fabric::{ControlConfig, ControlPlane, DelaySpec, FabricConfig, FabricEngine, Packet};
use thymesim_mem::{
    shared_dram, Addr, Backing, BankedDramConfig, Cache, DramChannel, DramConfig, DramModel,
    RemoteBackend, SimVec,
};
use thymesim_net::{LinkConfig, SerialLink, Switch};
use thymesim_serve::{ArrivalPattern, ClientPopulation, ServeConfig, ServeProcess};
use thymesim_sim::{
    run_processes, Clock, Dur, EventQueue, Histogram, Process, Step, Time, Xoshiro256,
};
use thymesim_telemetry::{counters::DEFAULT_WINDOW_PS, TraceRecorder};
use thymesim_workloads::graph500::{self, Graph500Config};
use thymesim_workloads::kv::{self, KvConfig, KvStore};
use thymesim_workloads::stream::{StreamArrays, StreamConfig, StreamProcess};

pub struct Prober<'a> {
    spans: &'a mut Spans,
    /// Host time spent on each probe (set-up included).
    budget: Duration,
    pub out: Vec<(&'static str, f64)>,
}

impl Prober<'_> {
    /// Median host nanoseconds per operation of `run`, over batches on
    /// fresh `setup` state; only `run` is timed. `run` returns the
    /// number of operations it did.
    fn ns_per_op<S>(
        &mut self,
        name: &'static str,
        mut setup: impl FnMut() -> S,
        mut run: impl FnMut(S) -> u64,
    ) -> f64 {
        let budget = self.budget;
        let (median, _) = self.spans.scope(name, |_| {
            let started = Instant::now();
            let mut per_op = Vec::new();
            let mut total_ops = 0;
            while per_op.len() < 3 || started.elapsed() < budget {
                let state = setup();
                let t0 = Instant::now();
                let ops = run(state);
                per_op.push(t0.elapsed().as_nanos() as f64 / ops as f64);
                total_ops += ops;
            }
            (crate::stats::median(&mut per_op), total_ops)
        });
        self.out.push((name, median));
        median
    }

    /// Rescale the metric just pushed (ns per op into another unit).
    fn scaled(&mut self, factor: f64) {
        self.out.last_mut().expect("a probe was just pushed").1 *= factor;
    }
}

/// Four of these interleave under the process executor.
struct Tick {
    at: Time,
    left: u32,
}

impl Process<u64> for Tick {
    fn next_time(&self) -> Time {
        self.at
    }
    fn step(&mut self, shared: &mut u64) -> Step {
        *shared += 1;
        self.at += Dur::ns(7);
        self.left -= 1;
        if self.left == 0 {
            Step::Done
        } else {
            Step::Continue
        }
    }
}

fn attached_engine(period: u64) -> FabricEngine {
    let cfg = FabricConfig {
        delay: DelaySpec::Period(period),
        ..FabricConfig::default()
    };
    let mut engine = FabricEngine::new(cfg, shared_dram(DramConfig::default()));
    let mut control = ControlPlane::new(ControlConfig::default(), 1 << 30);
    let res = control.reserve(1 << 30).expect("capacity");
    control
        .attach(&mut engine, Time::ZERO, 0, res)
        .expect("attach");
    engine
}

const LINE: u64 = 128;

/// Run every probe. `node` carries the benchmark's LLC; `scratch` is a
/// directory the probes may create and must leave removed.
pub fn run_probes(
    spans: &mut Spans,
    budget: Duration,
    node: &NodeConfig,
    scratch: &Path,
) -> Vec<(&'static str, f64)> {
    let mut p = Prober {
        spans,
        budget,
        out: Vec::new(),
    };
    sim(&mut p);
    gates(&mut p);
    mem(&mut p, node);
    net_and_fabric(&mut p);
    workloads(&mut p, node);
    serve(&mut p, node);
    core(&mut p, node, scratch);
    telemetry(&mut p, node, scratch);
    // Machine-speed sanity: a fixed xorshift loop.
    let ns = p.ns_per_op(
        "bench.calib_ops_per_s",
        || 0x9E37_79B9_7F4A_7C15u64,
        |mut x| {
            for _ in 0..4_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            4_000_000
        },
    );
    p.out.last_mut().expect("just pushed").1 = 1e9 / ns;
    p.out
}

fn sim(p: &mut Prober<'_>) {
    for (name, pending) in [
        ("sim.event_queue.ns_per_op.occ64", 64u64),
        ("sim.event_queue.ns_per_op.occ10k", 10_000),
    ] {
        p.ns_per_op(
            name,
            || {
                let mut rng = Xoshiro256::seed_from_u64(1);
                let mut q = EventQueue::<u64>::new();
                for i in 0..pending {
                    q.push(Time::ps(rng.below(1 << 30)), i);
                }
                (q, rng)
            },
            |(mut q, mut rng)| {
                // Hold model: occupancy stays at `pending`.
                for _ in 0..50_000 {
                    let (t, v) = q.pop().expect("queue holds events");
                    q.push(t + Dur::ps(1 + rng.below(1 << 30)), v);
                }
                black_box(q.len());
                100_000
            },
        );
    }
    p.ns_per_op(
        "sim.process.ns_per_step",
        || {
            (0..4)
                .map(|i| Tick {
                    at: Time::ns(i),
                    left: 25_000,
                })
                .collect::<Vec<_>>()
        },
        |mut procs| {
            let mut count = 0u64;
            let stats = run_processes(&mut procs, &mut count, Time::NEVER);
            black_box(count);
            stats.steps
        },
    );
    let values: Vec<u64> = {
        let mut rng = Xoshiro256::seed_from_u64(2);
        (0..65_536).map(|_| rng.below(1 << 30)).collect()
    };
    p.ns_per_op("sim.histogram.ns_per_record", Histogram::new, |mut h| {
        for &v in &values {
            h.record(v);
        }
        black_box(h.count())
    });
}

fn gates(p: &mut Prober<'_>) {
    p.ns_per_op(
        "axi.cycle_gate.ns_per_cycle",
        || {
            use thymesim_axi::{Beat, Consumer, Producer, ReadyPattern, StreamSim};
            let mut sim = StreamSim::new();
            let producer = sim.add(Producer::new((0..1500u64).map(Beat::new)));
            let gate = sim.add(CycleDelayGate::new(ConstPeriod(7)));
            let (consumer, _record) = Consumer::new(ReadyPattern::Always);
            let consumer = sim.add(consumer);
            sim.connect(producer, 0, gate, 0);
            sim.connect(gate, 0, consumer, 0);
            sim
        },
        |mut sim| {
            sim.run(10_000);
            black_box(sim.cycle())
        },
    );
    p.ns_per_op(
        "delay.analytic_gate.ns_per_grant",
        || AnalyticGate::new(ConstPeriod(13), Clock::mhz(250)),
        |mut gate| {
            let mut t = Time::ZERO;
            for _ in 0..100_000 {
                t = gate.pass_one(t);
            }
            black_box(t);
            100_000
        },
    );
}

fn mem(p: &mut Prober<'_>, node: &NodeConfig) {
    let llc = node.cache;
    p.ns_per_op(
        "mem.cache.ns_per_access.seq",
        || Cache::new(llc),
        |mut cache| {
            for i in 0..200_000u64 {
                cache.access(Addr((i * 8) & ((1 << 24) - 1)), false);
            }
            black_box(cache.stats.accesses())
        },
    );
    // 16 MiB footprint: thrashes any LLC the benchmark configures.
    let mut hit_ratio = 0.0;
    p.ns_per_op(
        "mem.cache.ns_per_access.rand",
        || (Cache::new(llc), Xoshiro256::seed_from_u64(42)),
        |(mut cache, mut rng)| {
            for _ in 0..200_000 {
                let a = Addr(rng.below(1 << 24) & !(LINE - 1));
                cache.access(a, rng.chance(0.3));
            }
            // Same inputs every batch, so this repeats exactly.
            hit_ratio = cache.stats.hit_rate();
            cache.stats.accesses()
        },
    );
    p.out.push(("mem.cache.hit_ratio.rand", hit_ratio));

    let fixed = DramConfig::default();
    for (name, model) in [
        ("mem.dram.fixed.ns_per_access", DramModel::Fixed),
        (
            "mem.dram.banked_ddr4.ns_per_access",
            DramModel::Banked(BankedDramConfig::ddr4()),
        ),
        (
            "mem.dram.banked_degenerate.ns_per_access",
            DramModel::Banked(BankedDramConfig::degenerate(fixed.latency)),
        ),
    ] {
        p.ns_per_op(
            name,
            || {
                let channel = DramChannel::new(DramConfig { model, ..fixed });
                (channel, Xoshiro256::seed_from_u64(3))
            },
            |(mut channel, mut rng)| {
                let mut at = Time::ZERO;
                for _ in 0..100_000 {
                    at += Dur::ns(2);
                    let a = Addr(rng.below(1 << 30) & !(LINE - 1));
                    black_box(channel.access(at, a, LINE));
                }
                channel.accesses
            },
        );
    }

    p.ns_per_op(
        "mem.system.hit.ns_per_access",
        || {
            let (mut sys, _) = local_system(node, 256 << 20);
            // 64 KiB of lines: resident in every LLC used here.
            for i in 0..512 {
                sys.access(Time::ZERO, Addr(i * LINE), false);
            }
            sys
        },
        |mut sys| {
            let mut t = Time::ZERO;
            for i in 0..200_000u64 {
                t = sys.access(t, Addr((i & 511) * LINE), false);
            }
            black_box(t);
            200_000
        },
    );
    p.ns_per_op(
        "mem.system.local_miss.ns_per_access",
        || local_system(node, 256 << 20).0,
        |mut sys| {
            let mut t = Time::ZERO;
            for i in 0..100_000u64 {
                t = sys.access(t, Addr(i * LINE), false);
            }
            black_box(t);
            sys.stats.local_miss
        },
    );
    p.ns_per_op(
        "mem.system.retouch_rounds.ns_per_line_round",
        || {
            let (mut sys, _) = local_system(node, 256 << 20);
            // A triad line-step: two lines read, one written.
            let touches = [(0, false), (1, false), (2, true)]
                .map(|(i, write)| (sys.access_entry(Time::ZERO, Addr(i * LINE), write).2, write));
            (sys, touches)
        },
        |(mut sys, touches)| {
            for _ in 0..20_000 {
                sys.retouch_rounds(black_box(&touches), 15);
            }
            black_box(sys.stats.reads);
            20_000 * 3 * 15
        },
    );
    p.ns_per_op(
        "mem.backing.ns_per_f64_bulk",
        || {
            let mut backing = Backing::with_ranges(&[(0, 64 << 20)]);
            // Pages allocated up front, as `StreamArrays::init` leaves them.
            for page in 0..(16 << 20) / 65_536 {
                backing.write_f64(Addr(page * 65_536), 0.0);
            }
            backing
        },
        |mut backing| {
            let mut run = [1.0f64; 16];
            for i in 0..(16 << 20) / LINE {
                backing.read_f64s(Addr(i * LINE), &mut run);
                backing.write_f64s(Addr(i * LINE), black_box(&run));
            }
            ((16 << 20) / LINE) * 32
        },
    );
}

fn net_and_fabric(p: &mut Prober<'_>) {
    let wire = LinkConfig::copper_100g();
    p.ns_per_op(
        "net.link.ns_per_send",
        || SerialLink::new(wire),
        |mut link| {
            let mut at = Time::ZERO;
            for _ in 0..200_000 {
                at += Dur::ns(10);
                black_box(link.send(at, 160));
            }
            link.messages
        },
    );
    p.ns_per_op(
        "net.switch.ns_per_forward",
        || Switch::new(4, wire, Dur::ns(300)),
        |mut switch| {
            let mut at = Time::ZERO;
            for i in 0..200_000usize {
                at += Dur::ns(10);
                black_box(switch.forward(at, i & 3, 160));
            }
            200_000
        },
    );
    for (name, period) in [
        ("fabric.engine.ns_per_fetch_line.period1", 1),
        ("fabric.engine.ns_per_fetch_line.period100", 100),
    ] {
        p.ns_per_op(
            name,
            || attached_engine(period),
            |mut engine| {
                // A full credit window in flight, as STREAM keeps it: each
                // fetch issues when the one a window earlier completed.
                let mut done = [Time::ZERO; 128];
                for i in 0..50_000usize {
                    let a = Addr((i as u64 * LINE) & ((1 << 25) - 1));
                    done[i & 127] = engine.fetch_line(done[i & 127], a);
                }
                engine.stats.reads
            },
        );
    }
    p.ns_per_op(
        "fabric.engine.ns_per_writeback_line",
        || attached_engine(1),
        |mut engine| {
            let mut at = Time::ZERO;
            for i in 0..50_000u64 {
                at += Dur::ns(20);
                engine.writeback_line(at, Addr((i * LINE) & ((1 << 25) - 1)));
            }
            engine.stats.writebacks
        },
    );
    p.ns_per_op(
        "fabric.packet.ns_per_codec",
        || (),
        |()| {
            for tag in 0..20_000 {
                let payload = bytes::Bytes::from_static(&[7u8; 128]);
                let wire = Packet::write_req(1, 2, tag, 4096, payload).encode();
                black_box(Packet::decode(wire).expect("round trip"));
            }
            20_000
        },
    );
}

/// The probes' graph: scale 12 at the Table I thread count.
fn probe_graph() -> Graph500Config {
    Graph500Config {
        scale: 12,
        edgefactor: 16,
        roots: 2,
        ..Graph500Config::default()
    }
}

fn probe_kv() -> KvConfig {
    KvConfig {
        keys: 4096,
        value_bytes: 4096,
        requests_per_conn: 10,
        ..KvConfig::default()
    }
}

fn workloads(p: &mut Prober<'_>, node: &NodeConfig) {
    let stream = StreamConfig {
        elements: 262_144,
        ..StreamConfig::default()
    };
    p.ns_per_op(
        "workloads.stream.local.ns_per_element",
        || {
            let (mut sys, mut arena) = local_system(node, 64 << 20);
            let arrays = StreamArrays::alloc(&mut arena, stream.elements);
            arrays.init(&mut sys);
            (sys, arrays)
        },
        |(mut sys, arrays)| {
            let report = StreamProcess::new(stream, arrays, Time::ZERO).run_to_completion(&mut sys);
            assert!(report.verified, "local STREAM probe failed verification");
            // One element through one kernel.
            stream.elements * 4 * stream.ntimes as u64
        },
    );
    let kv_cfg = probe_kv();
    p.ns_per_op(
        "workloads.kv.local.ns_per_request",
        || {
            let (mut sys, mut arena) = local_system(node, 64 << 20);
            let store = KvStore::build(&kv_cfg, &mut sys, &mut arena);
            (sys, store)
        },
        |(mut sys, store)| {
            let report = kv::run_memtier(&kv_cfg, &mut sys, &store);
            assert!(report.data_ok, "local KV probe read back wrong data");
            report.requests
        },
    );
    let graph = probe_graph();
    p.ns_per_op(
        "workloads.bfs.local.ns_per_edge",
        || {
            let (mut sys, mut arena) = local_system(node, 64 << 20);
            let g = graph500::build_csr(&graph, &mut sys, &mut arena);
            let parent: SimVec<u32> = arena.alloc_vec(g.n);
            (sys, g, parent)
        },
        |(mut sys, g, parent)| {
            let report = graph500::run_bfs_benchmark(&graph, &mut sys, &g, &parent, false);
            report.runs.iter().map(|r| r.edges_traversed).sum()
        },
    );
    p.ns_per_op(
        "workloads.graph.build_s",
        || local_system(node, 64 << 20),
        |(mut sys, mut arena)| {
            black_box(graph500::build_csr(&graph, &mut sys, &mut arena));
            1
        },
    );
    p.scaled(1e-9);
    p.ns_per_op(
        "workloads.kv.build_s",
        || local_system(node, 64 << 20),
        |(mut sys, mut arena)| {
            black_box(KvStore::build(&kv_cfg, &mut sys, &mut arena));
            1
        },
    );
    p.scaled(1e-9);
}

fn serve(p: &mut Prober<'_>, node: &NodeConfig) {
    let cfg = ServeConfig {
        arrivals: 20_000,
        ..ServeConfig::default()
    }
    .with_offered_rate(60e3);
    p.ns_per_op(
        "serve.arrival.ns_per_arrival",
        || {
            ClientPopulation::new(
                cfg.shards,
                cfg.users_per_shard,
                cfg.rate_per_user_hz,
                ArrivalPattern::Steady,
                cfg.seed,
                Time::ZERO,
                100_000,
            )
        },
        |mut population| {
            let mut n = 0;
            while let Some(arrival) = population.next_arrival() {
                black_box(arrival);
                n += 1;
            }
            n
        },
    );
    let policies = crate::workloads::policies();
    p.ns_per_op(
        "serve.admission.ns_per_decide",
        || (),
        |()| {
            for i in 0..400_000u64 {
                let policy = black_box(&policies[(i & 3) as usize]);
                black_box(policy.decide(i & 15, (i & 1) as u32));
            }
            400_000
        },
    );
    let ns = p.ns_per_op(
        "serve.engine.local.ns_per_request",
        || {
            let (mut sys, mut arena) = local_system(node, 64 << 20);
            let process = ServeProcess::new(cfg, &mut sys, &mut arena, Time::ZERO);
            (sys, process)
        },
        |(mut sys, process)| {
            let report = process.run_to_completion(&mut sys);
            assert!(report.data_ok, "local serve probe read back wrong data");
            report.arrivals
        },
    );
    p.out.push(("serve.arrivals_per_host_s", 1e9 / ns));
}

fn core(p: &mut Prober<'_>, node: &NodeConfig, scratch: &Path) {
    let testbed = TestbedConfig {
        borrower: *node,
        lender: *node,
        ..TestbedConfig::default()
    };
    p.ns_per_op(
        "core.testbed.build_us",
        || (),
        |()| {
            black_box(Testbed::build(&testbed).expect("attach"));
            1
        },
    );
    p.scaled(1e-3);

    let points: Vec<u64> = (0..256).collect();
    let uncached = SweepOptions {
        jobs: 1,
        cache: None,
        progress: false,
    };
    p.ns_per_op(
        "core.sweep.ns_per_point_overhead",
        || (),
        |()| {
            let run = sweep::run_with("bench/overhead", &points, &uncached, |_ctx, x| *x);
            black_box(run.results);
            points.len() as u64
        },
    );
    let cached = SweepOptions {
        cache: Some(scratch.join("sweep-cache")),
        ..uncached.clone()
    };
    // Populate, then time all-hit runs.
    sweep::run_with("bench/cache-hit", &points, &cached, |_ctx, x| *x);
    p.ns_per_op(
        "core.sweep.cache_hit_us_per_point",
        || (),
        |()| {
            let run = sweep::run_with("bench/cache-hit", &points, &cached, |_ctx, x| *x);
            assert_eq!(
                run.cached,
                points.len(),
                "warm cache must serve every point"
            );
            points.len() as u64
        },
    );
    p.scaled(1e-3);
    let _ = std::fs::remove_dir_all(scratch.join("sweep-cache"));

    let rows: Vec<DelaySweepPoint> = (0..64)
        .map(|i| DelaySweepPoint {
            period: i,
            latency_us: 1.25 * i as f64,
            bandwidth_gib_s: 9.5 / (1 + i) as f64,
            bdp_kib: 16.0,
            triad_gib_s: 9.0 / (1 + i) as f64,
            copy_gib_s: 8.0 / (1 + i) as f64,
        })
        .collect();
    p.ns_per_op(
        "core.report.to_json_ns_per_point",
        || (),
        |()| {
            for _ in 0..20 {
                black_box(report::to_json(black_box(&rows)));
            }
            20 * rows.len() as u64
        },
    );
}

fn recorder() -> TraceRecorder {
    TraceRecorder::with_window(0, 20_000, DEFAULT_WINDOW_PS)
}

fn telemetry(p: &mut Prober<'_>, node: &NodeConfig, scratch: &Path) {
    use thymesim_telemetry as tel;
    let observe = || {
        for i in 0..200_000u64 {
            tel::latency("bench.stage", Dur::ns(black_box(i) & 1023));
        }
        200_000
    };
    assert!(!tel::enabled(), "no recorder may be installed yet");
    p.ns_per_op(
        "telemetry.probe_disabled.ns_per_call",
        || (),
        |()| observe(),
    );
    p.ns_per_op(
        "telemetry.latency.ns_per_call",
        || tel::install(recorder()),
        |()| {
            let n = observe();
            black_box(tel::take());
            n
        },
    );
    p.ns_per_op(
        "telemetry.counter_busy.ns_per_call",
        || tel::install(recorder()),
        |()| {
            for i in 0..200_000u64 {
                tel::counter_busy("bench.busy", Time::ns(20 * i), Time::ns(20 * i + 12));
            }
            black_box(tel::take());
            200_000
        },
    );
    // A serial resource where every request queues 6 ns behind the
    // previous holder, from two alternating sources. One call = one
    // wait decomposed plus the occupancy it is decomposed against.
    p.ns_per_op(
        "telemetry.blame_wait.ns_per_call",
        || tel::install(recorder()),
        |()| {
            for i in 0..100_000u64 {
                tel::source_begin("bench", i & 1);
                let (arrival, start) = (Time::ns(12 * i), Time::ns(12 * i + 6));
                tel::blame_wait("bench.res", arrival, start);
                tel::blame_occupy("bench.res", start, start + Dur::ns(12));
            }
            black_box(tel::take());
            100_000
        },
    );

    // Fold + write of recorded points: eight traced STREAM points.
    let traces: Vec<tel::PointTrace> = (0..8)
        .map(|index| {
            tel::install(TraceRecorder::with_window(index, 20_000, DEFAULT_WINDOW_PS));
            let (mut sys, mut arena) = local_system(node, 64 << 20);
            let stream = StreamConfig {
                elements: 16_384,
                ..StreamConfig::default()
            };
            let arrays = StreamArrays::alloc(&mut arena, stream.elements);
            arrays.init(&mut sys);
            StreamProcess::new(stream, arrays, Time::ZERO).run_to_completion(&mut sys);
            tel::take().expect("recorder installed above")
        })
        .collect();
    let configs = vec!["{}".to_string(); traces.len()];
    let dir = scratch.join("probe-traces");
    tel::configure(tel::TraceConfig {
        dir: dir.clone(),
        ..Default::default()
    });
    p.ns_per_op(
        "telemetry.export_sweep.ms_per_point",
        || (),
        |()| {
            tel::export_sweep("bench/export", traces.len(), &traces, &configs);
            black_box(tel::write_summary());
            black_box(tel::write_attribution());
            black_box(tel::write_utilization().expect("utilization.json writes"));
            black_box(tel::write_blame().expect("blame.json writes"));
            traces.len() as u64
        },
    );
    p.scaled(1e-6);
    tel::disable();
    let _ = std::fs::remove_dir_all(dir);
}
