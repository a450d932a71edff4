//! # thymesim-bench
//!
//! The benchmark harness: the experiment profiles and the flag table of
//! the `repro` binary, which regenerates every paper table/figure.

use std::collections::BTreeMap;
use thymesim_core::prelude::*;
use thymesim_mem::CacheConfig;
use thymesim_sim::Dur;
use thymesim_workloads::graph500::Graph500Config;
use thymesim_workloads::kv::KvConfig;

/// The open-loop serving campaign's scale (E17): engine configuration
/// plus the grid axes of the `serve_tail` sweep (PERIOD × contention ×
/// offered rate) and the stressed point of the admission study.
#[derive(Clone, Debug)]
pub struct ServeScale {
    pub serve: ServeConfig,
    /// Background STREAM shape for the contention points (per-axis mlp
    /// is specialized inside `serve_tail`).
    pub bg_stream: StreamConfig,
    pub periods: Vec<u64>,
    pub contention: Vec<(ServeContention, usize)>,
    pub rates: Vec<f64>,
    /// The overloaded point the admission policies are judged at.
    pub admission_period: u64,
    pub admission_rate: f64,
    pub policies: Vec<AdmissionPolicy>,
}

impl ServeScale {
    fn policies_for(queue_cap: u32) -> Vec<AdmissionPolicy> {
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
}

/// An experiment scale: testbed + workload sizes, chosen together so
/// working sets exceed the LLC at every profile.
#[derive(Clone, Debug)]
pub struct Profile {
    pub name: &'static str,
    pub testbed: TestbedConfig,
    pub stream: StreamConfig,
    pub apps: AppScale,
    pub serve: ServeScale,
    /// E19 kernel-scale table: flat CSR at the profile's comfortable
    /// scale, compressed CSR pushed past it.
    pub kernels: KernelScale,
}

impl Profile {
    /// Seconds-scale runs: 256 KiB LLC, 64 Ki-element STREAM, scale-12
    /// Graph500.
    pub fn quick() -> Profile {
        let testbed = TestbedConfig::tiny();
        let mut stream = StreamConfig::tiny();
        stream.elements = 65_536;
        let graph = Graph500Config {
            scale: 12,
            edgefactor: 16,
            roots: 2,
            ..Graph500Config::tiny()
        };
        let serve = ServeScale {
            serve: ServeConfig {
                arrivals: 1500,
                ..ServeConfig::tiny()
            },
            bg_stream: StreamConfig {
                elements: 16_384,
                ..StreamConfig::tiny()
            },
            periods: vec![1, 100, 400],
            contention: vec![
                (ServeContention::None, 0),
                (ServeContention::Mcbn, 1),
                (ServeContention::Mcbn, 2),
                (ServeContention::Mcln, 2),
                (ServeContention::Mcln, 6),
            ],
            rates: vec![20_000.0, 60_000.0],
            admission_period: 400,
            admission_rate: 100_000.0,
            policies: ServeScale::policies_for(8),
        };
        Profile {
            name: "quick",
            apps: AppScale {
                kv: KvConfig::tiny(),
                graph_parallel: Graph500Config { cores: 32, ..graph },
                graph_reference: Graph500Config { cores: 4, ..graph },
            },
            kernels: KernelScale::tiny(),
            testbed,
            stream,
            serve,
        }
    }

    /// Minutes-scale runs: 7.5 MiB LLC, 2 M-element STREAM, scale-16
    /// Graph500, 20 k-key KV store.
    pub fn medium() -> Profile {
        let mut testbed = TestbedConfig::default();
        let cache = CacheConfig {
            sets: 4096,
            ways: 15,
            line: 128,
        }; // 7.5 MiB
        testbed.borrower.cache = cache;
        testbed.lender.cache = cache;
        let stream = StreamConfig {
            elements: 2_000_000,
            ..StreamConfig::default()
        };

        let graph = Graph500Config {
            scale: 16,
            edgefactor: 16,
            roots: 2,
            ..Graph500Config::default()
        };
        let kv = KvConfig {
            keys: 20_000,
            requests_per_conn: 25,
            ..KvConfig::default()
        };
        let serve = ServeScale {
            serve: ServeConfig {
                keys: 20_000,
                arrivals: 6_000,
                ..ServeConfig::default()
            },
            bg_stream: StreamConfig {
                elements: 131_072,
                ..StreamConfig::default()
            },
            periods: vec![1, 100, 400, 1000],
            contention: vec![
                (ServeContention::None, 0),
                (ServeContention::Mcbn, 1),
                (ServeContention::Mcbn, 2),
                (ServeContention::Mcbn, 4),
                (ServeContention::Mcln, 2),
                (ServeContention::Mcln, 6),
            ],
            rates: vec![20_000.0, 60_000.0, 100_000.0],
            admission_period: 400,
            admission_rate: 100_000.0,
            policies: ServeScale::policies_for(8),
        };
        Profile {
            name: "medium",
            apps: AppScale {
                kv,
                graph_parallel: Graph500Config {
                    cores: 128,
                    ..graph
                },
                graph_reference: Graph500Config { cores: 4, ..graph },
            },
            kernels: KernelScale {
                flat: graph,
                // Past the flat build's lender footprint: scale 22 at a
                // sparser edgefactor fits only because compressed rows
                // cut bytes/edge roughly in half.
                compressed: Graph500Config {
                    scale: 22,
                    edgefactor: 4,
                    roots: 2,
                    ..graph
                },
            },
            testbed,
            stream,
            serve,
        }
    }

    /// The paper's sizes: 120 MiB LLC, 10 M-element STREAM (0.24 GiB),
    /// scale-20 Graph500 (~1 GiB CSR), memtier 4×50 connections.
    pub fn paper() -> Profile {
        let testbed = TestbedConfig::default();
        let stream = StreamConfig::default();
        let graph = Graph500Config {
            scale: 20,
            edgefactor: 16,
            roots: 4,
            ..Graph500Config::default()
        };
        let kv = KvConfig {
            keys: 500_000,
            requests_per_conn: 100,
            ..KvConfig::default()
        };
        let serve = ServeScale {
            serve: ServeConfig {
                keys: 500_000,
                arrivals: 20_000,
                ..ServeConfig::default()
            },
            bg_stream: StreamConfig {
                elements: 1_000_000,
                ..StreamConfig::default()
            },
            periods: vec![1, 100, 400, 1000],
            contention: vec![
                (ServeContention::None, 0),
                (ServeContention::Mcbn, 1),
                (ServeContention::Mcbn, 2),
                (ServeContention::Mcbn, 4),
                (ServeContention::Mcln, 2),
                (ServeContention::Mcln, 6),
            ],
            rates: vec![20_000.0, 60_000.0, 100_000.0],
            admission_period: 400,
            admission_rate: 100_000.0,
            policies: ServeScale::policies_for(8),
        };
        Profile {
            name: "paper",
            apps: AppScale {
                kv,
                graph_parallel: Graph500Config {
                    cores: 128,
                    ..graph
                },
                graph_reference: Graph500Config { cores: 4, ..graph },
            },
            kernels: KernelScale {
                flat: graph,
                compressed: Graph500Config {
                    scale: 24,
                    edgefactor: 4,
                    roots: 2,
                    ..graph
                },
            },
            testbed,
            stream,
            serve,
        }
    }

    pub fn by_name(name: &str) -> Option<Profile> {
        match name {
            "quick" => Some(Profile::quick()),
            "medium" => Some(Profile::medium()),
            "paper" => Some(Profile::paper()),
            _ => None,
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "LLC {} MiB, STREAM {} elements, Graph500 scale {}, KV {} keys, \
             serve {} arrivals x {} grid points",
            self.testbed.borrower.cache.capacity_bytes() >> 20,
            self.stream.elements,
            self.apps.graph_parallel.scale,
            self.apps.kv.keys,
            self.serve.serve.arrivals,
            self.serve.periods.len() * self.serve.contention.len() * self.serve.rates.len(),
        )
    }
}

/// How a `repro` flag takes its value.
#[derive(Clone, Copy)]
enum Takes {
    /// `--flag v` or `--flag=v`.
    Value,
    /// `--flag` or `--flag=v`.
    Optional,
    /// `--flag` only.
    Nothing,
}

/// Every flag `repro` accepts after its command.
const FLAGS: [(&str, Takes); 6] = [
    ("--profile", Takes::Value),
    ("--jobs", Takes::Value),
    ("--out", Takes::Value),
    ("--trace-out", Takes::Value),
    ("--trace", Takes::Optional),
    ("--no-cache", Takes::Nothing),
];

/// The flags given after `repro`'s command, each with its value if it
/// took one; a repeated flag keeps its last value.
#[derive(Debug)]
pub struct Flags(BTreeMap<&'static str, Option<String>>);

impl Flags {
    /// Read `args` against `FLAGS`. Fails naming the argument on an
    /// unknown flag, a stray positional, a value flag with no value, or
    /// a value given to a switch.
    pub fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = BTreeMap::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (arg.as_str(), None),
            };
            let Some(&(name, takes)) = FLAGS.iter().find(|(flag, _)| *flag == name) else {
                let known: Vec<&str> = FLAGS.iter().map(|(flag, _)| *flag).collect();
                return Err(format!(
                    "unknown argument '{arg}'; expected one of: {}",
                    known.join(" ")
                ));
            };
            let value = match (takes, inline) {
                (Takes::Nothing, Some(_)) => {
                    return Err(format!("{name} takes no value, got '{arg}'"))
                }
                (Takes::Value, None) => match args.next() {
                    Some(value) => Some(value.clone()),
                    None => return Err(format!("{name} expects a value")),
                },
                (_, inline) => inline,
            };
            flags.insert(name, value);
        }
        Ok(Flags(flags))
    }

    /// `None` when `name` was not given, `Some(None)` when it was given
    /// without a value.
    pub fn get(&self, name: &str) -> Option<Option<&str>> {
        debug_assert!(
            FLAGS.iter().any(|(flag, _)| *flag == name),
            "{name} is not in FLAGS"
        );
        self.0.get(name).map(Option::as_deref)
    }

    /// The profile `--profile` names, else `THYMESIM_PROFILE`; default
    /// `medium`.
    pub fn profile(&self) -> Result<Profile, String> {
        let name = match self.get("--profile").flatten() {
            Some(name) => Some(name.to_string()),
            None => std::env::var("THYMESIM_PROFILE").ok(),
        };
        match name {
            None => Ok(Profile::medium()),
            Some(n) => Profile::by_name(&n)
                .ok_or_else(|| format!("unknown profile '{n}', expected quick|medium|paper")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_resolve_by_name() {
        for n in ["quick", "medium", "paper"] {
            let p = Profile::by_name(n).unwrap();
            assert_eq!(p.name, n);
            assert!(!p.describe().is_empty());
        }
        assert!(Profile::by_name("nope").is_none());
    }

    #[test]
    fn working_sets_exceed_caches() {
        for p in [Profile::quick(), Profile::medium(), Profile::paper()] {
            let cache = p.testbed.borrower.cache.capacity_bytes();
            let stream_bytes = p.stream.elements * 8 * 3;
            assert!(
                stream_bytes > cache,
                "{}: STREAM {} B fits in {} B cache",
                p.name,
                stream_bytes,
                cache
            );
            let graph_bytes = p.apps.graph_parallel.edges() * 2 * 8;
            assert!(
                graph_bytes > cache,
                "{}: graph {} B fits in cache",
                p.name,
                graph_bytes
            );
            let serve_bytes = p.serve.serve.keys * (p.serve.serve.value_bytes + 128);
            assert!(
                serve_bytes > cache,
                "{}: serve store {} B fits in {} B cache",
                p.name,
                serve_bytes,
                cache
            );
        }
    }

    #[test]
    fn kernel_scales_push_past_flat() {
        for p in [Profile::quick(), Profile::medium(), Profile::paper()] {
            assert!(
                p.kernels.compressed.scale > p.kernels.flat.scale,
                "{}: compressed CSR must scale out past the flat build",
                p.name
            );
            assert_eq!(p.kernels.flat.scale, p.apps.graph_parallel.scale);
        }
        // The acceptance bar: medium reaches scale >= 22 via compression.
        assert!(Profile::medium().kernels.compressed.scale >= 22);
    }

    #[test]
    fn serve_scales_are_wellformed() {
        for p in [Profile::quick(), Profile::medium(), Profile::paper()] {
            let s = &p.serve;
            assert!(!s.periods.is_empty() && !s.contention.is_empty() && !s.rates.is_empty());
            assert_eq!(
                s.contention[0],
                (ServeContention::None, 0),
                "{}: the uncontended baseline leads the axis",
                p.name
            );
            assert!(s.rates.windows(2).all(|w| w[0] < w[1]));
            assert!(s.periods.windows(2).all(|w| w[0] < w[1]));
            assert!(
                s.rates.iter().all(|&r| s.admission_rate >= r),
                "{}: the admission study runs at the most stressed rate",
                p.name
            );
            assert!(matches!(s.policies[0], AdmissionPolicy::Open));
        }
    }

    #[test]
    fn arg_parsing_picks_profile() {
        let profile = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            Flags::parse(&args).unwrap().profile().unwrap().name
        };
        assert_eq!(profile(&["--profile", "quick"]), "quick");
        assert_eq!(profile(&["--profile=paper"]), "paper");
        assert_eq!(profile(&["--profile=paper", "--profile", "quick"]), "quick");
    }
}
