//! The sweep harness: every experiment in this crate is a *parameter
//! sweep* — a grid of independent, deterministic simulations. This
//! module gives those sweeps one execution engine with three
//! guarantees:
//!
//! 1. **Determinism independent of scheduling.** A point's result is a
//!    function of its own configuration alone: every seeded workload
//!    takes its seed from that configuration, never from thread
//!    identity, submission order, or wall-clock. Results are collected
//!    back in grid order, so `--jobs 1` and `--jobs 64` produce
//!    byte-identical reports.
//! 2. **Point-parallel execution.** Points run on an OS-thread pool
//!    ([`thymesim_sim::ordered_map`]); wall-clock scales with the
//!    slowest point, not the sum.
//! 3. **Memoization.** With a cache directory set, each finished point
//!    is written to `<cache>/<sweep>-<key>.json`; re-runs verify the
//!    stored config matches byte-for-byte and skip the simulation.
//!    Keys change whenever the configuration changes — and
//!    [`CACHE_SCHEMA`] must be bumped when the *meaning* of a result
//!    changes (new fields, changed semantics), which invalidates every
//!    older cache entry at once.

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use thymesim_sim::ordered_map;

/// Bump when result semantics change so stale cache entries can never
/// be mistaken for current ones.
pub const CACHE_SCHEMA: u64 = 1;

// ------------------------------------------------------------- options

/// Process-wide execution options, set once by the CLI and read by
/// every sweep an experiment function starts.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Worker threads per sweep. 1 = serial on the calling thread.
    pub jobs: usize,
    /// Memoization directory; `None` disables caching entirely.
    pub cache: Option<PathBuf>,
    /// Per-point progress lines on stderr.
    pub progress: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            jobs: thymesim_sim::default_jobs(),
            cache: None,
            progress: false,
        }
    }
}

static OPTIONS: Mutex<Option<SweepOptions>> = Mutex::new(None);

/// Install process-wide sweep options (the `repro` CLI calls this from
/// `--jobs` / `--no-cache`). Affects every subsequent [`run`] call.
pub fn configure(opts: SweepOptions) {
    *OPTIONS.lock().expect("sweep options poisoned") = Some(opts);
}

/// The currently installed options (or the defaults).
pub fn options() -> SweepOptions {
    OPTIONS
        .lock()
        .expect("sweep options poisoned")
        .clone()
        .unwrap_or_default()
}

/// Total points actually simulated (not served from cache) by this
/// process. The cache tests assert on deltas of this counter.
pub fn simulated_point_count() -> u64 {
    SIMULATED_POINTS.load(Ordering::Relaxed)
}

static SIMULATED_POINTS: AtomicU64 = AtomicU64::new(0);

// ------------------------------------------------------------- context

/// Handed to the point function: where the point sits in the grid and
/// its cache key. Nothing in it feeds the simulation; a seeded workload
/// carries its seed in the point's own configuration.
#[derive(Clone, Copy, Debug)]
pub struct SweepCtx {
    /// Grid position of this point (0-based) and grid size.
    pub index: usize,
    pub total: usize,
    /// Content hash of (sweep name, schema, point config).
    pub key: u64,
}

/// What a finished sweep reports beyond its results.
#[derive(Debug)]
pub struct SweepOutcome<R> {
    /// Per-point results, in grid order.
    pub results: Vec<R>,
    /// Points that ran the simulator.
    pub simulated: usize,
    /// Points served from the memoization cache.
    pub cached: usize,
    pub elapsed: Duration,
}

// ----------------------------------------------------------------- run

/// Run `f` over every `point`, using the process-wide [`options`], and
/// return just the results in grid order. This is what experiment
/// functions call.
pub fn run<P, R, F>(name: &str, points: &[P], f: F) -> Vec<R>
where
    P: Serialize + Sync,
    R: Serialize + Deserialize + Send,
    F: Fn(SweepCtx, &P) -> R + Sync,
{
    run_with(name, points, &options(), f).results
}

/// Run a sweep under explicit options and report cache statistics.
pub fn run_with<P, R, F>(name: &str, points: &[P], opts: &SweepOptions, f: F) -> SweepOutcome<R>
where
    P: Serialize + Sync,
    R: Serialize + Deserialize + Send,
    F: Fn(SweepCtx, &P) -> R + Sync,
{
    let started = Instant::now();
    let total = points.len();

    // Hash every point up front (cheap, serial, order-defining).
    let keyed: Vec<(String, u64)> = points
        .iter()
        .map(|p| {
            let config = serde_json::to_string(p).expect("point config must serialize");
            let key = point_key(name, &config);
            (config, key)
        })
        .collect();

    if let Some(dir) = &opts.cache {
        std::fs::create_dir_all(dir).expect("cache directory must be creatable");
    }

    let simulated = AtomicUsize::new(0);
    let cached = AtomicUsize::new(0);
    // Telemetry: each simulated point records on its own worker thread.
    // A cache hit never runs the simulation and so records nothing,
    // which is why a traced sweep skips the cache *read* below (it
    // still stores): every telemetry artifact covers the whole grid.
    // Traces come back in grid order with the results, so trace files
    // are identical across `--jobs` settings. Workload phase identity
    // lives inside the per-point recorder (the current phase is
    // recorder state, not a global), so per-phase attribution inherits
    // the same invariance for free.
    let tracing = thymesim_telemetry::sweep_traced(name);
    let pairs = ordered_map(&keyed, opts.jobs, |index, (config, key)| {
        let ctx = SweepCtx {
            index,
            total,
            key: *key,
        };
        let point_started = Instant::now();
        if let Some(dir) = opts.cache.as_ref().filter(|_| !tracing) {
            if let Some(result) = load_cached::<R>(dir, name, *key, config) {
                cached.fetch_add(1, Ordering::Relaxed);
                progress(opts, name, ctx, point_started, true);
                return (result, None);
            }
        }
        if tracing {
            thymesim_telemetry::install(thymesim_telemetry::TraceRecorder::new(
                index,
                thymesim_telemetry::counters::DEFAULT_MAX_EVENTS_PER_POINT,
            ));
        }
        let result = f(ctx, &points[index]);
        let trace = if tracing {
            thymesim_telemetry::take()
        } else {
            None
        };
        simulated.fetch_add(1, Ordering::Relaxed);
        SIMULATED_POINTS.fetch_add(1, Ordering::Relaxed);
        if let Some(dir) = &opts.cache {
            store_cached(dir, name, *key, config, &result);
        }
        progress(opts, name, ctx, point_started, false);
        (result, trace)
    });
    let (results, traces): (Vec<R>, Vec<Option<thymesim_telemetry::PointTrace>>) =
        pairs.into_iter().unzip();
    if tracing {
        let recorded: Vec<thymesim_telemetry::PointTrace> = traces.into_iter().flatten().collect();
        // Hand the per-point config JSON along so attribution reports
        // can tie stage shares to the knob that produced them.
        let configs: Vec<String> = keyed.iter().map(|(config, _)| config.clone()).collect();
        thymesim_telemetry::export_sweep(name, total, &recorded, &configs);
    }

    SweepOutcome {
        results,
        simulated: simulated.into_inner(),
        cached: cached.into_inner(),
        elapsed: started.elapsed(),
    }
}

fn progress(opts: &SweepOptions, name: &str, ctx: SweepCtx, started: Instant, hit: bool) {
    if !opts.progress {
        return;
    }
    let how = if hit { "cache hit" } else { "simulated" };
    eprintln!(
        "  [{name}] point {}/{} (key {:016x}) {how} in {:.2?}",
        ctx.index + 1,
        ctx.total,
        ctx.key,
        started.elapsed()
    );
}

// ---------------------------------------------------------------- keys

/// FNV-1a over the sweep name, schema version, and the point's compact
/// JSON. Stable across platforms and runs by construction.
fn point_key(name: &str, config: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(name.as_bytes());
    eat(&[0]); // domain separator
    eat(&CACHE_SCHEMA.to_le_bytes());
    eat(config.as_bytes());
    h
}

// --------------------------------------------------------------- cache

fn cache_path(dir: &Path, name: &str, key: u64) -> PathBuf {
    // Sweep names may contain '/' for readability; flatten for the fs.
    let flat = thymesim_telemetry::flat_name(name);
    dir.join(format!("{flat}-{key:016x}.json"))
}

/// Load a memoized result, or `None` if absent/stale/corrupt. The
/// stored config must match the current one byte-for-byte — this makes
/// a hash collision harmless (it reads as a miss, not a wrong result).
fn load_cached<R: Deserialize>(dir: &Path, name: &str, key: u64, config: &str) -> Option<R> {
    let text = std::fs::read_to_string(cache_path(dir, name, key)).ok()?;
    let value: serde::Value = serde_json::from_str(&text).ok()?;
    if value.get("sweep")?.as_str()? != name {
        return None;
    }
    if value.get("config")?.as_str()? != config {
        return None;
    }
    R::from_value(value.get("result")?).ok()
}

/// Atomically persist one finished point (write-to-temp + rename, so a
/// concurrent reader never sees a half-written entry).
fn store_cached<R: Serialize>(dir: &Path, name: &str, key: u64, config: &str, result: &R) {
    let entry = serde::Value::Object(vec![
        ("sweep".to_string(), serde::Value::Str(name.to_string())),
        ("schema".to_string(), serde::Value::U64(CACHE_SCHEMA)),
        ("key".to_string(), serde::Value::Str(format!("{key:016x}"))),
        ("config".to_string(), serde::Value::Str(config.to_string())),
        ("result".to_string(), result.to_value()),
    ]);
    let text = serde_json::value_to_string_pretty(&entry);
    let path = cache_path(dir, name, key);
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    // Cache writes are best-effort: failure to persist must never fail
    // the sweep itself.
    if std::fs::write(&tmp, text).is_ok() {
        let _ = std::fs::rename(&tmp, &path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, Serialize)]
    struct P {
        x: u64,
        label: String,
    }

    #[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
    struct R {
        y: u64,
    }

    fn points() -> Vec<P> {
        (0..17)
            .map(|x| P {
                x,
                label: format!("p{x}"),
            })
            .collect()
    }

    fn work(_ctx: SweepCtx, p: &P) -> R {
        R { y: p.x * 10 }
    }

    #[test]
    fn serial_and_parallel_results_are_identical() {
        let serial = run_with(
            "test/identity",
            &points(),
            &SweepOptions {
                jobs: 1,
                cache: None,
                progress: false,
            },
            work,
        );
        let parallel = run_with(
            "test/identity",
            &points(),
            &SweepOptions {
                jobs: 8,
                cache: None,
                progress: false,
            },
            work,
        );
        assert_eq!(serial.results, parallel.results);
        assert_eq!(serial.simulated, 17);
        assert_eq!(parallel.simulated, 17);
    }

    #[test]
    fn cache_round_trip_skips_simulation() {
        let dir = std::env::temp_dir().join(format!(
            "thymesim-sweep-test-{}-{:x}",
            std::process::id(),
            point_key("salt", "cache_round_trip")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = SweepOptions {
            jobs: 4,
            cache: Some(dir.clone()),
            progress: false,
        };

        let first = run_with("test/cache", &points(), &opts, work);
        assert_eq!(first.simulated, 17);
        assert_eq!(first.cached, 0);

        let second = run_with("test/cache", &points(), &opts, work);
        assert_eq!(second.simulated, 0, "second run must be all cache hits");
        assert_eq!(second.cached, 17);
        assert_eq!(first.results, second.results);

        // A changed config must miss.
        let mut changed = points();
        changed[3].x = 999;
        let third = run_with("test/cache", &changed, &opts, work);
        assert_eq!(third.simulated, 1);
        assert_eq!(third.cached, 16);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_entries_are_resimulated() {
        let dir = std::env::temp_dir().join(format!(
            "thymesim-sweep-test-{}-{:x}",
            std::process::id(),
            point_key("salt", "corrupt_cache")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = SweepOptions {
            jobs: 2,
            cache: Some(dir.clone()),
            progress: false,
        };
        let first = run_with("test/corrupt", &points(), &opts, work);
        for entry in std::fs::read_dir(&dir).unwrap() {
            std::fs::write(entry.unwrap().path(), "{ not json").unwrap();
        }
        let second = run_with("test/corrupt", &points(), &opts, work);
        assert_eq!(second.simulated, 17, "corrupt entries must re-simulate");
        assert_eq!(first.results, second.results);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
