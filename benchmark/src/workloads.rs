//! The five workloads: their sizes, one pass of each through the public
//! experiment functions behind `repro`, the checks on what a pass
//! returns, and the construction of each workload's reference inputs
//! (what `setup_s` times).
//!
//! Every size is spelled out here, not taken from
//! `thymesim_bench::Profile`, so a profile change cannot move the
//! benchmark.

use crate::spans::Spans;
use serde::{Serialize, Value};
use std::path::Path;
use thymesim_core::config::TestbedConfig;
use thymesim_core::experiments::apps::{self, AppScale, KernelScale};
use thymesim_core::experiments::contention;
use thymesim_core::experiments::qos::{self, ServeContention, ServeTailPoint};
use thymesim_core::experiments::validate::{self, FIG2_PERIODS};
use thymesim_core::testbed::Testbed;
use thymesim_mem::CacheConfig;
use thymesim_serve::{AdmissionPolicy, ServeConfig};
use thymesim_sim::Dur;
use thymesim_workloads::graph500::{self, Graph500Config};
use thymesim_workloads::kv::{KvConfig, KvStore};
use thymesim_workloads::stream::{StreamArrays, StreamConfig};

/// A workload's name and how many checked points one pass attempts
/// (what a dead child is charged with).
pub struct Workload {
    pub name: &'static str,
    pub points: u64,
}

pub const WORKLOADS: [Workload; 5] = [
    // 9 PERIODs + the validate_injection verdict.
    Workload {
        name: "stream_delay",
        points: 10,
    },
    // 3 MCBN + 3 MCLN + 3 banked MCLN.
    Workload {
        name: "contention",
        points: 9,
    },
    // 6 solo + 1 write-heavy + 4 admission policies + 2 co-run.
    Workload {
        name: "serve_openloop",
        points: 13,
    },
    // 7 Table I rows + 6 kernel cells.
    Workload {
        name: "graph_apps",
        points: 13,
    },
    // 9 PERIODs + verdict, 3 MCBN, 3 banked MCLN, 1 serve point, 4
    // admission policies, all traced.
    Workload {
        name: "traced_quick",
        points: 21,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Every size the workloads use.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Both nodes' LLC. Every working set below exceeds it, so no
    /// workload degenerates to cache hits.
    pub llc: CacheConfig,
    /// traced_quick's LLC: smaller, so that its small arrays (sized for
    /// the 24x tracing tax) still exceed it two arrays at a time.
    pub traced_llc: CacheConfig,
    pub stream_delay_elements: u64,
    pub contention_elements: u64,
    pub serve_keys: u64,
    pub serve_arrivals: u64,
    pub serve_corun_arrivals: u64,
    pub serve_bg_elements: u64,
    pub kv_keys: u64,
    pub kv_requests_per_conn: u64,
    /// Flat-CSR scale; the compressed CSR runs one scale up.
    pub graph_scale: u32,
    pub traced_elements: u64,
    pub traced_arrivals: u64,
}

impl Sizes {
    /// The measured sizes: each pass takes 2-3 s on the 2-core
    /// reference box, so a 10 s run holds at least three passes.
    pub fn full() -> Sizes {
        Sizes {
            llc: CacheConfig {
                sets: 256,
                ways: 8,
                line: 128,
            }, // 256 KiB
            traced_llc: CacheConfig {
                sets: 64,
                ways: 8,
                line: 128,
            }, // 64 KiB
            stream_delay_elements: 1_500_000,
            contention_elements: 600_000,
            serve_keys: 20_000,
            serve_arrivals: 100_000,
            serve_corun_arrivals: 6_000,
            serve_bg_elements: 131_072,
            kv_keys: 20_000,
            kv_requests_per_conn: 25,
            graph_scale: 12,
            traced_elements: 8_192, // 64 KiB per array
            traced_arrivals: 200,
        }
    }

    /// Quick-profile sizes, for the benchmark's own tests only.
    pub fn smoke() -> Sizes {
        Sizes {
            llc: CacheConfig::tiny(), // 256 KiB
            traced_llc: CacheConfig {
                sets: 16,
                ways: 8,
                line: 128,
            }, // 16 KiB
            stream_delay_elements: 32_768,
            contention_elements: 16_384,
            serve_keys: 2_048,
            serve_arrivals: 1_500,
            serve_corun_arrivals: 300,
            serve_bg_elements: 16_384,
            kv_keys: 512,
            kv_requests_per_conn: 5,
            graph_scale: 10,
            traced_elements: 2_048,
            traced_arrivals: 60,
        }
    }

    /// `TestbedConfig::default()` with both LLCs at the workload's size.
    pub fn testbed(&self, workload: &str) -> TestbedConfig {
        let llc = if workload == "traced_quick" {
            self.traced_llc
        } else {
            self.llc
        };
        let mut cfg = TestbedConfig::default();
        cfg.borrower.cache = llc;
        cfg.lender.cache = llc;
        cfg
    }

    pub fn stream(&self, elements: u64) -> StreamConfig {
        StreamConfig {
            elements,
            ..StreamConfig::default()
        }
    }

    pub fn serve(&self, seed: u64) -> ServeConfig {
        ServeConfig {
            keys: self.serve_keys,
            value_bytes: 1024,
            arrivals: self.serve_arrivals,
            seed,
            ..ServeConfig::default()
        }
    }

    pub fn kv(&self, seed: u64) -> KvConfig {
        KvConfig {
            keys: self.kv_keys,
            value_bytes: 4096,
            requests_per_conn: self.kv_requests_per_conn,
            seed,
            ..KvConfig::default()
        }
    }

    /// The graph keeps the crate's default seed: at this scale SSSP's
    /// relaxation count moves 3x with the graph and its roots, which
    /// would spread `wall_s` by ~9 % across `--seed`s and drown any
    /// bound. `--seed` reaches graph_apps through the KV store's keys.
    pub fn graph(&self) -> Graph500Config {
        Graph500Config {
            scale: self.graph_scale,
            edgefactor: 16,
            roots: 2,
            ..Graph500Config::default()
        }
    }
}

/// The admission study's policies (the `repro serve` set).
pub fn policies() -> Vec<AdmissionPolicy> {
    let queue_cap = 8;
    vec![
        AdmissionPolicy::Open,
        AdmissionPolicy::Drop { queue_cap },
        AdmissionPolicy::Throttle {
            queue_cap,
            backoff: Dur::us(50),
        },
        AdmissionPolicy::Priority { queue_cap },
    ]
}

// ---------------------------------------------------------------- pass

/// What one pass of a workload produced.
#[derive(Clone, Debug, Default)]
pub struct PassOutcome {
    /// Host seconds of every sweep call, in call order.
    pub sweeps: Vec<(&'static str, f64)>,
    pub attempted: u64,
    /// One line per failed point.
    pub failures: Vec<String>,
    /// FNV-1a over every sweep's name and result JSON.
    pub digest: u64,
    /// Shape verdicts of `validate_injection` (stream sweeps only).
    pub fit_r: Option<f64>,
    pub bdp_cv: Option<f64>,
    /// MiB of telemetry artifacts written (traced_quick only).
    pub artifact_mib: Option<f64>,
}

struct Pass<'a> {
    spans: &'a mut Spans,
    out: PassOutcome,
}

impl Pass<'_> {
    fn new(spans: &mut Spans) -> Pass<'_> {
        Pass {
            spans,
            out: PassOutcome {
                digest: 0xcbf2_9ce4_8422_2325,
                ..PassOutcome::default()
            },
        }
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.out.digest ^= b as u64;
            self.out.digest = self.out.digest.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn check(&mut self, what: String, ok: bool) {
        self.out.attempted += 1;
        if !ok {
            self.out.failures.push(what);
        }
    }

    /// Time one experiment call under a span, fold its results into the
    /// digest, and check every returned point: all numbers finite and
    /// `ok` holds.
    fn sweep<T: Serialize>(
        &mut self,
        name: &'static str,
        run: impl FnOnce() -> Vec<T>,
        ok: impl Fn(&T) -> bool,
    ) -> Vec<T> {
        let (points, secs) = self.spans.scope(name, |_| {
            let points = run();
            let n = points.len() as u64;
            (points, n)
        });
        self.out.sweeps.push((name, secs));
        self.eat(name.as_bytes());
        for (i, p) in points.iter().enumerate() {
            let value = p.to_value();
            self.eat(
                serde_json::to_string(&value)
                    .expect("results serialize")
                    .as_bytes(),
            );
            self.check(format!("{name}[{i}]"), all_finite(&value) && ok(p));
        }
        points
    }

    fn stream_delay(&mut self, name: &'static str, base: &TestbedConfig, stream: &StreamConfig) {
        let points = self.sweep(
            name,
            || validate::stream_delay_sweep(base, stream, &FIG2_PERIODS),
            |_| true,
        );
        let verdict = validate::validate_injection(&points);
        self.out.fit_r = Some(verdict.fit_r);
        self.out.bdp_cv = Some(verdict.bdp_cv);
        self.check(
            format!("{name}: validate_injection fit_r {}", verdict.fit_r),
            verdict.fit_r >= 0.99,
        );
    }
}

fn all_finite(v: &Value) -> bool {
    match v {
        Value::F64(x) => x.is_finite(),
        Value::Array(items) => items.iter().all(all_finite),
        Value::Object(fields) => fields.iter().all(|(_, v)| all_finite(v)),
        _ => true,
    }
}

/// Every arrival is either admitted or dropped.
fn conserved(p: &ServeTailPoint) -> bool {
    p.arrivals == p.admitted + p.dropped
}

/// Run one pass of `workload`. traced_quick writes its telemetry
/// artifacts under `artifacts` (created, filled, removed) and with
/// `None` runs the same sweeps untraced; the other workloads ignore it.
pub fn run_pass(
    workload: &str,
    sizes: &Sizes,
    seed: u64,
    artifacts: Option<&Path>,
    spans: &mut Spans,
) -> PassOutcome {
    let base = sizes.testbed(workload);
    let mut pass = Pass::new(spans);
    match workload {
        "stream_delay" => {
            let stream = sizes.stream(sizes.stream_delay_elements);
            pass.stream_delay("stream_delay", &base, &stream);
        }
        "contention" => {
            let stream = sizes.stream(sizes.contention_elements);
            pass.sweep(
                "contention_mcbn",
                || contention::mcbn(&base, &stream, &[1, 2, 4]),
                |_| true,
            );
            pass.sweep(
                "contention_mcln",
                || contention::mcln(&base, &stream, &[0, 2, 6]),
                |_| true,
            );
            pass.sweep(
                "contention_mcln_banked",
                || contention::mcln_banked(&base, &stream, &[0, 2, 6]),
                |_| true,
            );
        }
        "serve_openloop" => {
            let serve = sizes.serve(seed);
            let bg = sizes.stream(sizes.serve_bg_elements);
            let solo = [(ServeContention::None, 0)];
            pass.sweep(
                "serve_tail_solo",
                || qos::serve_tail(&base, &serve, &bg, &[1, 400], &solo, &[20e3, 60e3, 100e3]),
                conserved,
            );
            // The same store used differently: writes beside reads.
            let write_heavy = ServeConfig {
                set_ratio: 0.5,
                ..serve
            };
            pass.sweep(
                "serve_tail_writeheavy",
                || qos::serve_tail(&base, &write_heavy, &bg, &[400], &solo, &[100e3]),
                conserved,
            );
            let stressed = serve.with_offered_rate(100e3);
            pass.sweep(
                "serve_admission",
                || qos::admission_study(&base, &stressed, 400, &policies()),
                conserved,
            );
            // Keeps the hand-rolled `run_open_loop` interleaving measured.
            let corun = ServeConfig {
                arrivals: sizes.serve_corun_arrivals,
                ..serve
            };
            let pressure = [(ServeContention::Mcbn, 2), (ServeContention::Mcln, 6)];
            pass.sweep(
                "serve_tail_corun",
                || qos::serve_tail(&base, &corun, &bg, &[100], &pressure, &[60e3]),
                conserved,
            );
        }
        "graph_apps" => {
            let graph = sizes.graph();
            let scale = AppScale {
                kv: sizes.kv(seed),
                graph_parallel: graph,
                graph_reference: Graph500Config { cores: 4, ..graph },
            };
            pass.sweep("apps_table1", || apps::table1(&base, &scale), |_| true);
            let kernels = KernelScale {
                flat: graph,
                compressed: Graph500Config {
                    scale: graph.scale + 1,
                    ..graph
                },
            };
            pass.sweep(
                "apps_kernels",
                || apps::kernel_scale(&base, &kernels),
                |p| p.validated,
            );
        }
        "traced_quick" => traced_quick(&mut pass, &base, sizes, seed, artifacts),
        other => panic!("unknown workload {other}"),
    }
    pass.out
}

/// The traced_quick sweeps, with product telemetry on and its artifacts
/// written under `artifacts`, or (for the tracing tax) untraced.
fn traced_quick(
    pass: &mut Pass<'_>,
    base: &TestbedConfig,
    sizes: &Sizes,
    seed: u64,
    artifacts: Option<&Path>,
) {
    if let Some(dir) = artifacts {
        thymesim_telemetry::configure(thymesim_telemetry::TraceConfig {
            dir: dir.to_path_buf(),
            ..Default::default()
        });
    }
    let stream = sizes.stream(sizes.traced_elements);
    pass.stream_delay("traced_stream_delay", base, &stream);
    pass.sweep(
        "traced_mcbn",
        || contention::mcbn(base, &stream, &[1, 2, 4]),
        |_| true,
    );
    pass.sweep(
        "traced_mcln_banked",
        || contention::mcln_banked(base, &stream, &[0, 2, 6]),
        |_| true,
    );
    let serve = ServeConfig {
        arrivals: sizes.traced_arrivals,
        ..sizes.serve(seed)
    };
    pass.sweep(
        "traced_serve_tail",
        || {
            let pressure = [(ServeContention::Mcln, 2)];
            qos::serve_tail(base, &serve, &stream, &[100], &pressure, &[60e3])
        },
        conserved,
    );
    let stressed = serve.with_offered_rate(100e3);
    pass.sweep(
        "traced_admission",
        || qos::admission_study(base, &stressed, 400, &policies()),
        conserved,
    );
    if let Some(dir) = artifacts {
        let (written, _) = pass.spans.scope("export", |_| {
            let written = thymesim_telemetry::write_summary().is_some()
                && thymesim_telemetry::write_attribution().is_some()
                && matches!(thymesim_telemetry::write_utilization(), Ok(Some(_)))
                && matches!(thymesim_telemetry::write_blame(), Ok(Some(_)));
            (written, 4)
        });
        thymesim_telemetry::disable();
        pass.out.artifact_mib = Some(dir_bytes(dir) as f64 / (1 << 20) as f64);
        // Not counted as a point: a missing artifact fails the pass as a whole.
        if !written {
            pass.out
                .failures
                .push("traced_quick: a telemetry artifact was not written".into());
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

// --------------------------------------------------------------- setup

/// Build the workload's reference inputs once: the testbed plus the
/// data its reference point runs on. This is what `setup_s` times.
pub fn construct_inputs(workload: &str, sizes: &Sizes, seed: u64) {
    let mut tb = Testbed::build(&sizes.testbed(workload)).expect("reference testbed attaches");
    let mut streams = |elements: u64, count: usize| {
        for _ in 0..count {
            let arrays = StreamArrays::alloc(&mut tb.remote_arena, elements);
            arrays.init(&mut tb.borrower);
        }
    };
    match workload {
        "stream_delay" => streams(sizes.stream_delay_elements, 1),
        // The MCBN-4 point's four instances.
        "contention" => streams(sizes.contention_elements, 4),
        "traced_quick" => streams(sizes.traced_elements, 1),
        "serve_openloop" => {
            let kv = sizes.serve(seed).kv_config();
            std::hint::black_box(KvStore::build(&kv, &mut tb.borrower, &mut tb.remote_arena));
        }
        "graph_apps" => {
            let graph = sizes.graph();
            std::hint::black_box(graph500::build_csr(
                &graph,
                &mut tb.borrower,
                &mut tb.remote_arena,
            ));
            let kv = sizes.kv(seed);
            std::hint::black_box(KvStore::build(&kv, &mut tb.borrower, &mut tb.remote_arena));
        }
        other => panic!("unknown workload {other}"),
    }
}
