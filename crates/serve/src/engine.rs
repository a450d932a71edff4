//! The open-loop issue engine: arrivals drive the KV stack on their own
//! schedule, decoupled from completions, so queueing delay is a first-
//! class observable instead of being hidden by a closed loop's
//! self-throttling (the paper's memtier setup never lets more than one
//! request per connection exist, which is exactly why its §IV-D tail
//! looks flat).
//!
//! The engine is a [`thymesim_sim::Process`]-shaped state machine: each
//! step either
//! absorbs one arrival (admission control, queue accounting) or serves
//! one request (stack cost + timed KV memory work). Admitted requests
//! wait in a calendar queue ([`EventQueue`]) keyed by the time they
//! become serviceable; a worker pool modelled by an [`IssueRing`] of
//! completion times caps service concurrency. Per-request latency
//! telemetry lands in three phases — `serve.arrival` (queue wait),
//! `serve.admitted` (service), `serve.dropped` (shed requests) — and
//! the queue depth / in-flight counters give traces the same control
//! signals the admission policies act on.

use crate::admission::{AdmissionPolicy, Decision};
use crate::arrival::{ArrivalPattern, ClientPopulation};
use thymesim_mem::{Arena, MemSystem, RemoteBackend};
use thymesim_sim::{Dur, EventQueue, Histogram, Step, Time, Xoshiro256};
use thymesim_workloads::issue::{IssueRing, KeyDist, KeySampler};
use thymesim_workloads::kv::{KvConfig, KvStore};

/// Open-loop serving configuration.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct ServeConfig {
    /// Distinct keys pre-loaded into the store.
    pub keys: u64,
    /// Value size per key.
    pub value_bytes: u64,
    /// Key popularity (shared sampler with the memtier client).
    pub key_dist: KeyDist,
    /// Fraction of SETs.
    pub set_ratio: f64,
    /// Prefetch window for streaming a value's lines.
    pub value_mlp: usize,
    /// Per-request server stack cost. Open-loop serving models a lean
    /// RPC/SmartNIC stack (Clio-style), not memtier's kernel TCP path:
    /// here the fabric, not the CPU, is meant to be the bottleneck.
    pub server_stack: Dur,
    /// Dispatcher cost of shedding one request (load shedding is cheap,
    /// not free).
    pub reject_cost: Dur,
    /// Service concurrency (worker pool size).
    pub workers: u32,
    /// Client-population shards (each an aggregate Poisson stream).
    pub shards: u32,
    /// Simulated users per shard — only the product with the per-user
    /// rate matters, so this scales to millions without per-user state.
    pub users_per_shard: u64,
    /// Per-user request rate in Hz.
    pub rate_per_user_hz: f64,
    /// Total arrivals to generate for the point.
    pub arrivals: u64,
    /// Offered-load shape over time.
    pub pattern: ArrivalPattern,
    /// Admission policy applied at arrival.
    pub policy: AdmissionPolicy,
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            keys: 4096,
            value_bytes: 1024,
            key_dist: KeyDist::Uniform,
            set_ratio: 1.0 / 11.0,
            value_mlp: 8,
            server_stack: Dur::us(2),
            reject_cost: Dur::ns(200),
            workers: 1,
            shards: 8,
            users_per_shard: 125_000,
            rate_per_user_hz: 0.002, // 2k req/s aggregate over 1M users
            arrivals: 2000,
            pattern: ArrivalPattern::Steady,
            policy: AdmissionPolicy::Open,
            seed: 0x09E4_1009, // "open-loop"
        }
    }
}

impl ServeConfig {
    /// Tiny configuration for unit tests and the quick profile.
    pub fn tiny() -> ServeConfig {
        ServeConfig {
            keys: 512,
            value_bytes: 512,
            arrivals: 240,
            ..ServeConfig::default()
        }
    }

    /// Total simulated users.
    pub fn population(&self) -> u64 {
        self.shards as u64 * self.users_per_shard
    }

    /// Aggregate offered load in requests/sec.
    pub fn offered_ops_per_sec(&self) -> f64 {
        self.population() as f64 * self.rate_per_user_hz
    }

    /// Set the aggregate offered rate, keeping the population fixed.
    pub fn with_offered_rate(mut self, ops_per_sec: f64) -> ServeConfig {
        self.rate_per_user_hz = ops_per_sec / self.population() as f64;
        self
    }

    /// The store-side view of this config (shared build path with the
    /// closed-loop benchmark).
    pub fn kv_config(&self) -> KvConfig {
        KvConfig {
            keys: self.keys,
            value_bytes: self.value_bytes,
            key_dist: self.key_dist,
            value_mlp: self.value_mlp,
            set_ratio: self.set_ratio,
            seed: self.seed,
            ..KvConfig::default()
        }
    }
}

/// One admitted request waiting for a worker.
#[derive(Clone, Copy, Debug)]
struct Request {
    arrival: Time,
    key: u64,
    set: bool,
    /// Originating client shard — the blame source its queueing and
    /// memory work attribute to.
    shard: u32,
}

/// Outcome of an open-loop run.
#[derive(Clone, Debug)]
pub struct ServeReport {
    pub arrivals: u64,
    pub admitted: u64,
    pub dropped: u64,
    pub throttled: u64,
    pub gets: u64,
    pub sets: u64,
    /// All GET payloads matched their expected pattern.
    pub data_ok: bool,
    /// Client-observed latency (arrival → reply) of served requests.
    pub sojourn: Histogram,
    /// Arrival → worker pickup.
    pub queue_wait: Histogram,
    pub first_arrival: Time,
    pub last_done: Time,
}

impl ServeReport {
    fn new() -> ServeReport {
        ServeReport {
            arrivals: 0,
            admitted: 0,
            dropped: 0,
            throttled: 0,
            gets: 0,
            sets: 0,
            data_ok: true,
            sojourn: Histogram::new(),
            queue_wait: Histogram::new(),
            first_arrival: Time::NEVER,
            last_done: Time::ZERO,
        }
    }

    /// The divergence figure of merit: p999 sojourn over mean sojourn.
    /// 1.0 for a perfectly flat latency profile; grows as queueing
    /// stretches the tail away from the mean.
    pub fn tail_ratio(&self) -> f64 {
        let mean = self.sojourn.mean();
        if mean <= 0.0 {
            return 1.0;
        }
        self.sojourn.p999() as f64 / mean
    }
}

/// The open-loop engine as a steppable process (compose with contending
/// processes via `run_processes`).
pub struct ServeProcess {
    cfg: ServeConfig,
    store: KvStore,
    population: ClientPopulation,
    sampler: KeySampler,
    rng: Xoshiro256,
    /// Admitted requests, keyed by the time they become serviceable.
    pending: EventQueue<Request>,
    /// Cached head key of `pending` (`Time::NEVER` when empty), so
    /// `next_time` stays `&self`.
    head_ready: Time,
    /// Requests admitted but not yet picked up — the admission signal.
    depth: u64,
    depth_since: Time,
    next_arrival: Option<(Time, u32)>,
    /// Worker-pool completion times; caps service concurrency.
    ring: IssueRing,
    started: bool,
    report: ServeReport,
}

impl ServeProcess {
    /// Build the store in `arena` (untimed, like a restored snapshot)
    /// and stage the arrival stream from `start`.
    pub fn new<R: RemoteBackend>(
        cfg: ServeConfig,
        sys: &mut MemSystem<R>,
        arena: &mut Arena,
        start: Time,
    ) -> ServeProcess {
        let store = KvStore::build(&cfg.kv_config(), sys, arena);
        let mut population = ClientPopulation::new(
            cfg.shards,
            cfg.users_per_shard,
            cfg.rate_per_user_hz,
            cfg.pattern,
            cfg.seed,
            start,
            cfg.arrivals,
        );
        let next_arrival = population.next_arrival();
        let sampler = KeySampler::new(cfg.key_dist, store.entries);
        ServeProcess {
            sampler,
            rng: Xoshiro256::seed_from_u64(cfg.seed ^ 0x5E27_E000),
            pending: EventQueue::new(),
            head_ready: Time::NEVER,
            depth: 0,
            depth_since: start,
            next_arrival,
            ring: IssueRing::new(cfg.workers.max(1) as usize),
            started: false,
            report: ServeReport::new(),
            cfg,
            store,
            population,
        }
    }

    pub fn is_done(&self) -> bool {
        self.next_arrival.is_none() && self.head_ready == Time::NEVER
    }

    /// Virtual time of the next arrival or service pickup.
    pub fn next_time(&self) -> Time {
        let arrival = self.next_arrival.map_or(Time::NEVER, |(t, _)| t);
        let service = if self.head_ready == Time::NEVER {
            Time::NEVER
        } else {
            self.ring.issue_at(self.head_ready)
        };
        arrival.min2(service)
    }

    /// Queue-depth accounting: close the previous constant-depth segment
    /// as a counter-track contribution, then switch to the new depth.
    fn set_depth(&mut self, now: Time, new: u64) {
        if self.depth > 0 && now > self.depth_since {
            thymesim_telemetry::counter_level(
                "util.serve.qdepth",
                self.depth_since,
                now,
                self.depth,
            );
        }
        self.depth = new;
        self.depth_since = now;
    }

    fn enqueue(&mut self, at: Time, ready: Time, req: Request) {
        self.report.admitted += 1;
        thymesim_telemetry::add("serve.admitted", 1);
        self.set_depth(at, self.depth + 1);
        self.pending.push(ready, req);
        self.head_ready = self.pending.peek_time().expect("just pushed");
    }

    /// Absorb one arrival: sample the request, apply admission control.
    fn admit_one(&mut self) {
        let (t, shard) = self.next_arrival.take().expect("admit without arrival");
        self.next_arrival = self.population.next_arrival();
        let key = self.sampler.sample(&mut self.rng);
        let set = self.rng.chance(self.cfg.set_ratio);
        // QoS lane from the population: every fourth shard is the
        // premium slice that `Priority` policies protect.
        let lane = if shard % 4 == 0 { 0 } else { 1 };
        self.report.arrivals += 1;
        self.report.first_arrival = self.report.first_arrival.min2(t);
        thymesim_telemetry::add("serve.arrival", 1);
        let req = Request {
            arrival: t,
            key,
            set,
            shard,
        };
        let decision = self.cfg.policy.decide(self.depth, lane);
        let admitted = !matches!(decision, Decision::Drop);
        match decision {
            Decision::Admit => self.enqueue(t, t, req),
            Decision::Defer(pause) => {
                self.report.throttled += 1;
                self.enqueue(t, t + pause, req);
            }
            Decision::Drop => {
                self.report.dropped += 1;
                thymesim_telemetry::add("serve.dropped", 1);
                thymesim_telemetry::phase_begin("serve.dropped", None);
                thymesim_telemetry::latency("serve.reject", self.cfg.reject_cost);
            }
        }
        thymesim_telemetry::counter_ratio("util.serve.admit_ratio", t, admitted as u64, 1);
    }

    /// Serve the queue head: worker pickup, stack cost, timed KV work.
    fn serve_one<R: RemoteBackend>(&mut self, sys: &mut MemSystem<R>) {
        let (ready, req) = self.pending.pop().expect("serve with empty queue");
        self.head_ready = self.pending.peek_time().unwrap_or(Time::NEVER);
        let start = self.ring.issue_at(ready);
        self.set_depth(start, self.depth - 1);

        // Queue wait attributes to the arrival phase, the service (stack
        // + memory stages recorded inside the store) to the admitted
        // phase. Re-asserted every step: interleaved contending
        // processes share the recorder's ambient phase. The blame source
        // is the request's shard, so the worker-queue wait below — and
        // any fabric or DRAM queueing inside the store — attributes to
        // the shard whose traffic caused it.
        thymesim_telemetry::phase_begin("serve.arrival", None);
        thymesim_telemetry::source_begin("shard", req.shard as u64);
        let wait = start.since(req.arrival);
        thymesim_telemetry::latency("serve.queue_wait", wait);
        thymesim_telemetry::blame_wait("serve", req.arrival, start);
        self.report.queue_wait.record(wait.as_ps());

        thymesim_telemetry::phase_begin("serve.admitted", None);
        let stack_rx = Dur::ps(self.cfg.server_stack.as_ps() / 2);
        let stack_tx = Dur::ps(self.cfg.server_stack.as_ps() - stack_rx.as_ps());
        thymesim_telemetry::latency("serve.stack", self.cfg.server_stack);
        let mut t = start + stack_rx;
        if req.set {
            self.report.sets += 1;
            t = self.store.set(sys, t, req.key, self.cfg.value_mlp);
        } else {
            self.report.gets += 1;
            let (ok, tt) = self.store.get(sys, t, req.key, self.cfg.value_mlp);
            self.report.data_ok &= ok;
            t = tt;
        }
        let done = t + stack_tx;
        self.ring.push(done);
        // This request holds its worker over [start, done): later
        // pickups' queue waits decompose against it per shard.
        thymesim_telemetry::blame_occupy("serve", start, done);
        thymesim_telemetry::counter_level("util.serve.inflight", start, done, 1);
        let sojourn = done.since(req.arrival);
        thymesim_telemetry::latency("serve.sojourn", sojourn);
        self.report.sojourn.record(sojourn.as_ps());
        self.report.last_done = self.report.last_done.max2(done);
    }

    /// One open-loop transaction: the earlier of (next arrival, next
    /// service pickup); service wins ties so capacity frees before the
    /// tying arrival reads the queue depth.
    pub fn step_on<R: RemoteBackend>(&mut self, sys: &mut MemSystem<R>) -> Step {
        if !self.started {
            self.started = true;
            thymesim_telemetry::counter_bound(
                "util.serve.inflight",
                self.cfg.workers.max(1) as u64,
            );
        }
        let arrival = self.next_arrival.map_or(Time::NEVER, |(t, _)| t);
        let service = if self.head_ready == Time::NEVER {
            Time::NEVER
        } else {
            self.ring.issue_at(self.head_ready)
        };
        if service <= arrival {
            self.serve_one(sys);
        } else {
            self.admit_one();
        }
        if self.is_done() {
            thymesim_telemetry::phase_end();
            thymesim_telemetry::span_arg(
                "workload",
                "serve.open_loop",
                self.report.first_arrival,
                self.report.last_done.max2(self.report.first_arrival),
                "arrivals",
                self.report.arrivals,
            );
            Step::Done
        } else {
            Step::Continue
        }
    }

    /// Drive the engine alone (no contending processes) to completion.
    pub fn run_to_completion<R: RemoteBackend>(mut self, sys: &mut MemSystem<R>) -> ServeReport {
        while self.step_on(sys) == Step::Continue {}
        self.report
    }

    pub fn report(&self) -> &ServeReport {
        &self.report
    }

    pub fn config(&self) -> &ServeConfig {
        &self.cfg
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

    fn run(cfg: ServeConfig) -> ServeReport {
        let mut s = sys();
        let mut arena = Arena::new(Addr(0), 256 << 20);
        let p = ServeProcess::new(cfg, &mut s, &mut arena, Time::ZERO);
        p.run_to_completion(&mut s)
    }

    #[test]
    fn open_policy_serves_every_arrival() {
        let cfg = ServeConfig::tiny();
        let r = run(cfg);
        assert_eq!(r.arrivals, cfg.arrivals);
        assert_eq!(r.admitted, cfg.arrivals);
        assert_eq!(r.dropped, 0);
        assert_eq!(r.gets + r.sets, cfg.arrivals);
        assert!(r.data_ok, "GET payloads must verify");
        assert_eq!(r.sojourn.count(), cfg.arrivals);
        assert!(r.sets > 0 && r.gets > r.sets);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = ServeConfig::tiny();
        let a = run(cfg);
        let b = run(cfg);
        assert_eq!(a.sojourn.count(), b.sojourn.count());
        assert_eq!(a.sojourn.p999(), b.sojourn.p999());
        assert_eq!(a.queue_wait.sum(), b.queue_wait.sum());
        assert_eq!(a.gets, b.gets);
        assert_eq!(a.last_done, b.last_done);
    }

    #[test]
    fn sojourn_includes_queue_wait() {
        // Overload the single worker: sojourn must stretch past pure
        // service time and the queue wait must be visible.
        let cfg = ServeConfig::tiny().with_offered_rate(400_000.0);
        let r = run(cfg);
        assert!(r.queue_wait.max() > 0, "overload must queue");
        assert!(
            r.sojourn.mean() > r.queue_wait.mean(),
            "sojourn contains wait plus service"
        );
        assert!(r.tail_ratio() >= 1.0);
    }

    #[test]
    fn open_loop_tail_grows_with_offered_load() {
        let lo = run(ServeConfig::tiny().with_offered_rate(2_000.0));
        let hi = run(ServeConfig::tiny().with_offered_rate(150_000.0));
        assert!(
            hi.tail_ratio() > lo.tail_ratio(),
            "offered load must stretch the tail: {} vs {}",
            hi.tail_ratio(),
            lo.tail_ratio()
        );
        assert!(
            hi.queue_wait.mean() > lo.queue_wait.mean() * 2.0,
            "queue wait must grow with load"
        );
    }

    #[test]
    fn drop_policy_bounds_queue_wait() {
        let mut over = ServeConfig::tiny().with_offered_rate(400_000.0);
        let open = run(over);
        over.policy = AdmissionPolicy::Drop { queue_cap: 4 };
        let capped = run(over);
        assert!(capped.dropped > 0, "overload must shed");
        assert_eq!(capped.admitted + capped.dropped, capped.arrivals);
        assert!(
            (capped.sojourn.p999() as f64) < open.sojourn.p999() as f64 * 0.5,
            "drop@4 must cap p999: {} vs open {}",
            capped.sojourn.p999(),
            open.sojourn.p999()
        );
    }

    #[test]
    fn priority_lane_survives_overload() {
        let mut over = ServeConfig::tiny().with_offered_rate(400_000.0);
        over.policy = AdmissionPolicy::Priority { queue_cap: 4 };
        let r = run(over);
        assert!(r.dropped > 0, "best-effort lane must shed");
        // Lane 0 is every fourth shard ≈ a quarter of arrivals; they are
        // never dropped, so admissions must exceed the pure cap flow.
        assert!(
            r.admitted > r.arrivals / 5,
            "premium lane must keep flowing: {} of {}",
            r.admitted,
            r.arrivals
        );
    }

    #[test]
    fn throttle_defers_but_loses_nothing() {
        let mut over = ServeConfig::tiny().with_offered_rate(400_000.0);
        over.policy = AdmissionPolicy::Throttle {
            queue_cap: 4,
            backoff: Dur::us(50),
        };
        let r = run(over);
        assert_eq!(r.dropped, 0);
        assert!(r.throttled > 0);
        assert_eq!(r.gets + r.sets, r.arrivals, "everything eventually served");
        assert!(r.data_ok);
    }

    /// E17's overloaded points, pinned to the last picosecond. No golden
    /// fixture covers the open-loop engine (the corpus pins Table I's
    /// closed-loop KV), so any change to the engine or to the KV store's
    /// timed access order that moves simulated time fails here.
    #[test]
    fn overloaded_points_are_pinned() {
        let default_sets = ServeConfig::tiny().set_ratio;
        let throttle = AdmissionPolicy::Throttle {
            queue_cap: 4,
            backoff: Dur::us(50),
        };
        // (policy, set_ratio) → [arrivals, admitted, dropped, gets, sets,
        // sojourn sum, sojourn p999, queue-wait sum, last_done] in ps.
        #[rustfmt::skip]
        let cases: [(AdmissionPolicy, f64, [u128; 9]); 5] = [
            (AdmissionPolicy::Open, default_sets,
             [240, 240, 0, 221, 19, 3_421_584_083, 38_797_312, 2_879_833_641, 572_702_972]),
            (AdmissionPolicy::Drop { queue_cap: 4 }, default_sets,
             [240, 218, 22, 199, 19, 1_356_850_591, 11_796_480, 862_809_387, 572_702_972]),
            (throttle, default_sets,
             [240, 240, 0, 221, 19, 1_198_876_714_804, 10_468_982_784, 1_198_334_964_362, 11_164_808_979]),
            (AdmissionPolicy::Priority { queue_cap: 4 }, default_sets,
             [240, 219, 21, 200, 19, 1_397_926_669, 13_893_632, 901_255_411, 572_702_972]),
            (AdmissionPolicy::Open, 0.5,
             [240, 240, 0, 127, 113, 3_435_804_083, 38_797_312, 2_893_677_641, 572_714_972]),
        ];
        for (policy, set_ratio, want) in cases {
            let mut cfg = ServeConfig::tiny().with_offered_rate(400_000.0);
            cfg.policy = policy;
            cfg.set_ratio = set_ratio;
            let r = run(cfg);
            assert!(r.data_ok, "{} at set_ratio {set_ratio}", policy.label());
            let got = [
                r.arrivals as u128,
                r.admitted as u128,
                r.dropped as u128,
                r.gets as u128,
                r.sets as u128,
                r.sojourn.sum(),
                r.sojourn.p999() as u128,
                r.queue_wait.sum(),
                r.last_done.as_ps() as u128,
            ];
            assert_eq!(got, want, "{} at set_ratio {set_ratio}", policy.label());
        }
    }

    #[test]
    fn report_rates_are_sane() {
        let cfg = ServeConfig::tiny().with_offered_rate(10_000.0);
        let r = run(cfg);
        assert!(r.gets + r.sets > 0 && r.last_done > r.first_arrival);
        assert!(
            (cfg.offered_ops_per_sec() / 10_000.0 - 1.0).abs() < 1e-9,
            "with_offered_rate round-trips"
        );
    }
}
