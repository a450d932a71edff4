//! A Redis-like in-memory key-value store under a memtier-style
//! closed-loop client.
//!
//! The paper drives Redis with memtier (4 threads × 50 connections,
//! 10 000 requests per client, ~4 GB working set) and finds it almost
//! insensitive to injected delay: "Redis serves requests via the network
//! stack which adds significant serving overhead … memory access time is
//! negligible compared to the network stack overheads" (§IV-D). The model
//! makes that mechanism explicit: every request pays a fixed kernel/TCP
//! stack cost at the single-threaded server, plus a handful of dependent
//! hash-table accesses and a prefetchable value transfer in (possibly
//! remote) memory.
//!
//! The store is real: SETs write patterned bytes, GETs verify them.

use crate::issue::{Core, KeySampler};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use thymesim_mem::{Addr, Arena, MemSystem, RemoteBackend, SimVec};
use thymesim_sim::{Dur, Histogram, SplitMix64, Time, Xoshiro256};

// The sampler and its distribution enum live in `issue.rs` so the
// open-loop serving engine shares them; re-exported here because the
// memtier configuration is where users expect to find them.
pub use crate::issue::KeyDist;

/// Workload configuration.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct KvConfig {
    /// Distinct keys pre-loaded into the store.
    pub keys: u64,
    /// Value size; memtier's data volume / key count in the paper's setup
    /// (~4 GB over ~1 M keys) is a few KiB per key.
    pub value_bytes: u64,
    /// memtier client threads.
    pub client_threads: u32,
    /// Connections per client thread.
    pub conns_per_thread: u32,
    /// Requests each connection issues.
    pub requests_per_conn: u64,
    /// Fraction of SETs (memtier default ratio 1:10 → 0.0909…).
    pub set_ratio: f64,
    /// Server-side per-request network-stack + dispatch CPU cost.
    pub server_stack: Dur,
    /// Client↔server network round trip (outside the server).
    pub client_rtt: Dur,
    /// Prefetch window for streaming a value's lines.
    pub value_mlp: usize,
    /// Requests a connection sends back-to-back before waiting for
    /// replies (memtier's `--pipeline`). Depth 1 is the classic
    /// request/response loop; deeper pipelines amortize the per-*batch*
    /// network stack cost and expose more of the memory time.
    pub pipeline_depth: u32,
    /// How keys are drawn.
    pub key_dist: KeyDist,
    pub seed: u64,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            keys: 100_000,
            value_bytes: 4096,
            client_threads: 4,
            conns_per_thread: 50,
            requests_per_conn: 50,
            set_ratio: 1.0 / 11.0,
            server_stack: Dur::us(180),
            client_rtt: Dur::us(100),
            value_mlp: 16,
            pipeline_depth: 1,
            key_dist: KeyDist::Uniform,
            seed: 0x5EED_CAFE,
        }
    }
}

impl KvConfig {
    /// Tiny configuration for unit tests.
    pub fn tiny() -> KvConfig {
        KvConfig {
            keys: 512,
            value_bytes: 512,
            client_threads: 2,
            conns_per_thread: 4,
            requests_per_conn: 20,
            ..KvConfig::default()
        }
    }

    pub fn connections(&self) -> u32 {
        self.client_threads * self.conns_per_thread
    }

    /// Approximate resident working set.
    pub fn working_set_bytes(&self) -> u64 {
        self.keys * (self.value_bytes + ENTRY_HEADER_BYTES)
    }
}

/// Entry header: key, next pointer, value length, version — one line.
const ENTRY_HEADER_BYTES: u64 = 128;

/// The store: an open-chaining hash table in simulated memory.
pub struct KvStore {
    buckets: SimVec<u64>,
    mask: u64,
    /// Entries living in the arena; addresses are simulated-physical.
    pub entries: u64,
}

#[inline]
fn hash_key(key: u64) -> u64 {
    SplitMix64::new(key).next_u64()
}

/// Value bytes one timed access covers. Entries are aligned to it, so
/// a value line never crosses a backing page.
const VALUE_LINE: u64 = 128;

/// First byte of the value pattern for key/version. Byte `o` of the
/// value is `pattern_first(key, version).wrapping_add(o as u8)`: the
/// pattern is affine in the offset, and truncating to `u8` commutes with
/// the addition.
#[inline]
fn pattern_first(key: u64, version: u64) -> u8 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(version.rotate_left(17)) as u8
}

/// Fill `out` with the pattern run that starts at `first`.
#[inline]
fn fill_run(out: &mut [u8], first: u8) {
    for (i, b) in out.iter_mut().enumerate() {
        *b = first.wrapping_add(i as u8);
    }
}

/// Whether `line` holds the pattern run that starts at `first`. Every
/// byte is compared; the OR-of-XOR fold has no branch, so it vectorizes.
#[inline]
fn run_matches(line: &[u8], first: u8) -> bool {
    line.iter()
        .enumerate()
        .fold(0, |acc, (i, &b)| acc | (b ^ first.wrapping_add(i as u8)))
        == 0
}

/// `(offset, length)` of each line of a `len`-byte span: full lines and
/// a short tail.
#[inline]
fn lines(len: u64) -> impl Iterator<Item = (u64, usize)> {
    (0..len)
        .step_by(VALUE_LINE as usize)
        .map(move |off| (off, (len - off).min(VALUE_LINE) as usize))
}

/// What a line on a never-written page reads as; also the bucket
/// table's initial contents.
static ZERO_LINE: [u8; VALUE_LINE as usize] = [0; VALUE_LINE as usize];

impl KvStore {
    /// Build and populate the store (untimed, like a restored snapshot).
    pub fn build<R: RemoteBackend>(
        cfg: &KvConfig,
        sys: &mut MemSystem<R>,
        arena: &mut Arena,
    ) -> KvStore {
        let cap = (cfg.keys * 2).next_power_of_two();
        let buckets: SimVec<u64> = arena.alloc_vec(cap);
        // Zeroed a line at a time: the same pages per-bucket stores
        // would commit, without a table-sized temporary.
        for (off, n) in lines(cap * 8) {
            sys.backing_mut()
                .write_bytes(buckets.base().offset(off), &ZERO_LINE[..n]);
        }
        let mut store = KvStore {
            buckets,
            mask: cap - 1,
            entries: 0,
        };
        let entry_sz = ENTRY_HEADER_BYTES + cfg.value_bytes.next_multiple_of(VALUE_LINE);
        // One value buffer, refilled per key and written in one copy.
        let mut val = vec![0u8; cfg.value_bytes as usize];
        for key in 0..cfg.keys {
            let ea = arena.alloc(entry_sz, VALUE_LINE);
            let h = hash_key(key) & store.mask;
            let head = store.buckets.get_raw(sys, h);
            // Header: [key][next][vlen][version]
            let header = [key, head, cfg.value_bytes, 0].map(u64::to_le_bytes);
            sys.backing_mut().write_bytes(ea, header.as_flattened());
            store.buckets.set_raw(sys, h, ea.0);
            fill_run(&mut val, pattern_first(key, 0));
            sys.backing_mut()
                .write_bytes(ea.offset(ENTRY_HEADER_BYTES), &val);
            store.entries += 1;
        }
        store
    }

    /// Timed chain lookup: returns (entry address, time) or panics on a
    /// missing key (the client only asks for loaded keys).
    fn lookup<R: RemoteBackend>(&self, sys: &mut MemSystem<R>, at: Time, key: u64) -> (Addr, Time) {
        let h = hash_key(key) & self.mask;
        let (mut cursor, mut t) = self.buckets.get(sys, at, h);
        loop {
            assert!(cursor != 0, "key {key} not found in store");
            let ea = Addr(cursor);
            // Header is one line: key+next+vlen+version in a single access.
            let t2 = sys.access(t, ea, false);
            let k = sys.backing().read_u64(ea);
            if k == key {
                return (ea, t2);
            }
            cursor = sys.backing().read_u64(ea.offset(8));
            t = t2;
        }
    }

    /// Timed GET: returns (bytes-ok, completion time).
    pub fn get<R: RemoteBackend>(
        &self,
        sys: &mut MemSystem<R>,
        at: Time,
        key: u64,
        mlp: usize,
    ) -> (bool, Time) {
        let (ea, t) = self.lookup(sys, at, key);
        let vlen = sys.backing().read_u64(ea.offset(16));
        let version = sys.backing().read_u64(ea.offset(24));
        // Stream the value with a prefetch window, checking each line in
        // place.
        let mut core = Core::new(mlp, t);
        let base = ea.offset(ENTRY_HEADER_BYTES);
        let first = pattern_first(key, version);
        let mut ok = true;
        for (off, n) in lines(vlen) {
            let at = core.slot();
            core.hold(sys.access(at, base.offset(off), false));
            let line = sys
                .backing()
                .bytes(base.offset(off), n)
                .unwrap_or(&ZERO_LINE[..n]);
            ok &= run_matches(line, first.wrapping_add(off as u8));
        }
        (ok, core.end())
    }

    /// Timed SET: overwrites the value in place, bumping the version.
    pub fn set<R: RemoteBackend>(
        &self,
        sys: &mut MemSystem<R>,
        at: Time,
        key: u64,
        mlp: usize,
    ) -> Time {
        let (ea, t) = self.lookup(sys, at, key);
        let version = sys.backing().read_u64(ea.offset(24)) + 1;
        let t = sys.access(t, ea, true); // header update (version)
        sys.backing_mut().write_u64(ea.offset(24), version);
        let vlen = sys.backing().read_u64(ea.offset(16));
        let base = ea.offset(ENTRY_HEADER_BYTES);
        let mut core = Core::new(mlp, t);
        let first = pattern_first(key, version);
        let mut line = [0u8; VALUE_LINE as usize];
        for (off, n) in lines(vlen) {
            let at = core.slot();
            core.hold(sys.access(at, base.offset(off), true));
            fill_run(&mut line[..n], first.wrapping_add(off as u8));
            sys.backing_mut().write_bytes(base.offset(off), &line[..n]);
        }
        core.end()
    }
}

/// Outcome of a memtier-style run.
#[derive(Clone, Debug)]
pub struct KvReport {
    pub requests: u64,
    pub gets: u64,
    pub sets: u64,
    /// Sustained request throughput.
    pub ops_per_sec: f64,
    /// Client-observed request latency.
    pub latency: Histogram,
    /// All GET payloads matched their expected pattern.
    pub data_ok: bool,
    pub elapsed: Dur,
}

/// Run the closed-loop benchmark against a built store.
pub fn run_memtier<R: RemoteBackend>(
    cfg: &KvConfig,
    sys: &mut MemSystem<R>,
    store: &KvStore,
) -> KvReport {
    let conns = cfg.connections() as usize;
    assert!(conns > 0 && cfg.requests_per_conn > 0);
    let half_rtt = Dur::ps(cfg.client_rtt.as_ps() / 2);
    // The stack cost splits around the memory work (rx parse / tx reply).
    let stack_rx = Dur::ps(cfg.server_stack.as_ps() / 2);
    let stack_tx = Dur::ps(cfg.server_stack.as_ps() - stack_rx.as_ps());

    let depth = cfg.pipeline_depth.max(1) as u64;
    let sampler = KeySampler::new(cfg.key_dist, store.entries);
    let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
    // (arrival_at_server, connection id); BinaryHeap is a max-heap.
    let mut pending: BinaryHeap<Reverse<(Time, usize)>> = BinaryHeap::new();
    let mut remaining = vec![cfg.requests_per_conn; conns];
    for c in 0..conns {
        // Connections ramp up over the first RTT.
        let jitter = Dur::ps(rng.below(cfg.client_rtt.as_ps().max(1)));
        pending.push(Reverse((Time::ZERO + half_rtt + jitter, c)));
    }

    let mut server_free = Time::ZERO;
    let mut latency = Histogram::new();
    let mut gets = 0u64;
    let mut sets = 0u64;
    let mut data_ok = true;
    let mut first_send = Time::NEVER;
    let mut last_done = Time::ZERO;

    while let Some(Reverse((arrival, conn))) = pending.pop() {
        let send_time = arrival - half_rtt;
        first_send = first_send.min2(send_time);
        let begin = server_free.max2(arrival);
        // A pipelined batch pays the kernel/stack cost once per batch
        // (one socket read, one writev), then serves each request's
        // memory work back-to-back.
        let batch = remaining[conn].min(depth);
        // A connection's first batch is its warmup (connect + cold
        // caches); everything after is steady state. Re-asserted per
        // batch because connections interleave on the server.
        if remaining[conn] == cfg.requests_per_conn {
            thymesim_telemetry::phase_begin("kv.warmup", None);
        } else {
            thymesim_telemetry::phase_begin("kv.steady", None);
        }
        // The per-batch network-stack cost as its own stage: the paper's
        // Redis insensitivity argument is that this term dominates the
        // per-request time and is untouched by injected memory delay.
        thymesim_telemetry::latency("kv.stack", cfg.server_stack);
        let mut t = begin + stack_rx;
        for _ in 0..batch {
            let key = sampler.sample(&mut rng);
            if rng.chance(cfg.set_ratio) {
                sets += 1;
                t = store.set(sys, t, key, cfg.value_mlp);
            } else {
                gets += 1;
                let (ok, tt) = store.get(sys, t, key, cfg.value_mlp);
                data_ok &= ok;
                t = tt;
            }
        }
        t += stack_tx;
        server_free = t;
        let done_at_client = t + half_rtt;
        last_done = last_done.max2(done_at_client);
        // Every request in the batch completes when the batch's reply
        // lands; each records the same client-observed latency.
        for _ in 0..batch {
            latency.record((done_at_client - send_time).as_ps());
        }
        remaining[conn] -= batch;
        if remaining[conn] > 0 {
            pending.push(Reverse((done_at_client + half_rtt, conn)));
        }
    }

    thymesim_telemetry::phase_end();

    let elapsed = last_done - first_send;
    thymesim_telemetry::span_arg(
        "workload",
        "kv.memtier",
        first_send,
        last_done,
        "requests",
        gets + sets,
    );
    KvReport {
        requests: gets + sets,
        gets,
        sets,
        ops_per_sec: (gets + sets) as f64 / elapsed.as_secs_f64(),
        latency,
        data_ok,
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thymesim_mem::{shared_dram, AddressMap, CacheConfig, DramConfig, NoRemote, SysTiming};

    fn sys() -> MemSystem<NoRemote> {
        MemSystem::new(
            AddressMap::new(256 << 20, 256 << 20, 128),
            CacheConfig::tiny(),
            shared_dram(DramConfig::default()),
            SysTiming::default(),
            NoRemote,
        )
    }

    fn setup(cfg: &KvConfig) -> (MemSystem<NoRemote>, KvStore) {
        let mut s = sys();
        let mut arena = Arena::new(Addr(0), 256 << 20);
        let store = KvStore::build(cfg, &mut s, &mut arena);
        (s, store)
    }

    #[test]
    fn build_populates_all_keys() {
        let cfg = KvConfig::tiny();
        let (mut s, store) = setup(&cfg);
        assert_eq!(store.entries, cfg.keys);
        for key in [0u64, 1, cfg.keys / 2, cfg.keys - 1] {
            let (ok, _) = store.get(&mut s, Time::ZERO, key, 4);
            assert!(ok, "key {key} failed verification after load");
        }
    }

    #[test]
    fn set_bumps_version_and_get_verifies() {
        let cfg = KvConfig::tiny();
        let (mut s, store) = setup(&cfg);
        let t = store.set(&mut s, Time::ZERO, 7, 4);
        let (ok, t2) = store.get(&mut s, t, 7, 4);
        assert!(ok, "GET after SET must verify the new pattern");
        assert!(t2 > t);
    }

    #[test]
    fn memtier_run_completes_all_requests() {
        let cfg = KvConfig::tiny();
        let (mut s, store) = setup(&cfg);
        let report = run_memtier(&cfg, &mut s, &store);
        assert_eq!(
            report.requests,
            cfg.connections() as u64 * cfg.requests_per_conn
        );
        assert!(report.data_ok);
        assert!(report.ops_per_sec > 0.0);
        assert_eq!(report.gets + report.sets, report.requests);
        assert!(report.sets > 0, "set ratio should yield some SETs");
        assert!(report.gets > report.sets, "GETs should dominate at 1:10");
    }

    #[test]
    fn throughput_is_stack_bound() {
        // With a 180 us stack and fast local memory, the single-threaded
        // server caps throughput near 1/stack.
        let mut cfg = KvConfig::tiny();
        cfg.requests_per_conn = 40;
        let (mut s, store) = setup(&cfg);
        let report = run_memtier(&cfg, &mut s, &store);
        let cap = 1.0 / cfg.server_stack.as_secs_f64();
        assert!(
            report.ops_per_sec < cap * 1.05,
            "throughput {} exceeds stack cap {}",
            report.ops_per_sec,
            cap
        );
        assert!(
            report.ops_per_sec > cap * 0.5,
            "server far below stack cap: {} vs {}",
            report.ops_per_sec,
            cap
        );
    }

    #[test]
    fn latency_includes_rtt_and_queueing() {
        let cfg = KvConfig::tiny();
        let (mut s, store) = setup(&cfg);
        let report = run_memtier(&cfg, &mut s, &store);
        // With 8 connections and a serial server, queueing delay makes the
        // mean latency exceed stack + RTT.
        let floor = (cfg.server_stack + cfg.client_rtt).as_ps() as f64;
        assert!(
            report.latency.mean() > floor,
            "mean latency {} below service floor {}",
            report.latency.mean(),
            floor
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = KvConfig::tiny();
        let (mut s1, store1) = setup(&cfg);
        let r1 = run_memtier(&cfg, &mut s1, &store1);
        let (mut s2, store2) = setup(&cfg);
        let r2 = run_memtier(&cfg, &mut s2, &store2);
        assert_eq!(r1.requests, r2.requests);
        assert_eq!(r1.gets, r2.gets);
        assert!((r1.ops_per_sec - r2.ops_per_sec).abs() < 1e-9);
    }

    #[test]
    fn zipf_skew_concentrates_on_hot_keys() {
        let mut cfg = KvConfig::tiny();
        cfg.keys = 4096;
        cfg.value_bytes = 1024; // 4 MiB working set ≫ 256 KiB cache
        cfg.requests_per_conn = 50;
        let (mut s_uni, store_uni) = setup(&cfg);
        run_memtier(&cfg, &mut s_uni, &store_uni);
        let uniform_hits = s_uni.cache_stats().hit_rate();
        cfg.key_dist = KeyDist::Zipf { exponent: 1.1 };
        let (mut s_zipf, store_zipf) = setup(&cfg);
        let zr = run_memtier(&cfg, &mut s_zipf, &store_zipf);
        let zipf_hits = s_zipf.cache_stats().hit_rate();
        assert!(zr.data_ok);
        assert!(
            zipf_hits > uniform_hits + 0.05,
            "skewed keys should hit the cache more: {zipf_hits} vs {uniform_hits}"
        );
    }

    #[test]
    fn pipelining_amortizes_the_stack() {
        let mut cfg = KvConfig::tiny();
        cfg.requests_per_conn = 32;
        let (mut s1, store1) = setup(&cfg);
        let plain = run_memtier(&cfg, &mut s1, &store1);
        cfg.pipeline_depth = 8;
        let (mut s8, store8) = setup(&cfg);
        let piped = run_memtier(&cfg, &mut s8, &store8);
        assert_eq!(plain.requests, piped.requests);
        assert!(piped.data_ok);
        assert!(
            piped.ops_per_sec > plain.ops_per_sec * 3.0,
            "depth-8 pipelining should multiply throughput: {} vs {}",
            piped.ops_per_sec,
            plain.ops_per_sec
        );
    }

    #[test]
    fn pipelining_exposes_memory_sensitivity() {
        // With the stack amortized, the memory time is a much larger
        // share of a batch: the same delay costs pipelined Redis more.
        // (Emulated here by comparing local vs slow-local DRAM.)
        let mut cfg = KvConfig::tiny();
        cfg.requests_per_conn = 32;
        cfg.value_bytes = 2048; // working set ≫ cache: real memory traffic
        let slow_dram = DramConfig {
            latency: thymesim_sim::Dur::us(3),
            ..DramConfig::default()
        };
        let run = |depth: u32, dram: DramConfig| {
            let mut cfg = cfg;
            cfg.pipeline_depth = depth;
            let mut s = MemSystem::new(
                AddressMap::new(256 << 20, 256 << 20, 128),
                CacheConfig::tiny(),
                shared_dram(dram),
                SysTiming::default(),
                NoRemote,
            );
            let mut arena = Arena::new(Addr(0), 256 << 20);
            let store = KvStore::build(&cfg, &mut s, &mut arena);
            run_memtier(&cfg, &mut s, &store).ops_per_sec
        };
        let plain_sensitivity = run(1, DramConfig::default()) / run(1, slow_dram);
        let piped_sensitivity = run(8, DramConfig::default()) / run(8, slow_dram);
        // Plain request/response hides memory behind the 180 µs stack
        // (~3% sensitivity); depth-8 pipelining exposes it (~25%).
        assert!(
            piped_sensitivity > plain_sensitivity * 1.15,
            "pipelined Redis must be more delay-sensitive: {piped_sensitivity} vs {plain_sensitivity}"
        );
        assert!(
            plain_sensitivity < 1.1,
            "plain loop should hide memory time"
        );
    }

    #[test]
    fn chains_resolve_collisions() {
        // Force collisions with a small table: all keys must still verify.
        let mut cfg = KvConfig::tiny();
        cfg.keys = 64;
        let (mut s, store) = setup(&cfg);
        let mut t = Time::ZERO;
        for key in 0..cfg.keys {
            let (ok, tt) = store.get(&mut s, t, key, 4);
            assert!(ok, "key {key}");
            t = tt;
        }
    }

    /// The value pattern byte by byte, as the store first defined it.
    fn pattern_byte(key: u64, version: u64, offset: u64) -> u8 {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(version.rotate_left(17))
            .wrapping_add(offset)) as u8
    }

    /// The per-bucket, per-byte `build` body the line fills replaced.
    fn build_reference<R: RemoteBackend>(
        cfg: &KvConfig,
        sys: &mut MemSystem<R>,
        arena: &mut Arena,
    ) -> KvStore {
        let cap = (cfg.keys * 2).next_power_of_two();
        let buckets: SimVec<u64> = arena.alloc_vec(cap);
        for i in 0..cap {
            buckets.set_raw(sys, i, 0);
        }
        let mut store = KvStore {
            buckets,
            mask: cap - 1,
            entries: 0,
        };
        let entry_sz = ENTRY_HEADER_BYTES + cfg.value_bytes.next_multiple_of(128);
        for key in 0..cfg.keys {
            let ea = arena.alloc(entry_sz, 128);
            let h = hash_key(key) & store.mask;
            let head = store.buckets.get_raw(sys, h);
            sys.backing_mut().write_u64(ea, key);
            sys.backing_mut().write_u64(ea.offset(8), head);
            sys.backing_mut().write_u64(ea.offset(16), cfg.value_bytes);
            sys.backing_mut().write_u64(ea.offset(24), 0);
            store.buckets.set_raw(sys, h, ea.0);
            let mut val = vec![0u8; cfg.value_bytes as usize];
            for (o, b) in val.iter_mut().enumerate() {
                *b = pattern_byte(key, 0, o as u64);
            }
            sys.backing_mut()
                .write_bytes(ea.offset(ENTRY_HEADER_BYTES), &val);
            store.entries += 1;
        }
        store
    }

    /// The per-byte `set` body the line fills replaced.
    fn set_reference<R: RemoteBackend>(
        store: &KvStore,
        sys: &mut MemSystem<R>,
        at: Time,
        key: u64,
        mlp: usize,
    ) -> Time {
        let (ea, t) = store.lookup(sys, at, key);
        let version = sys.backing().read_u64(ea.offset(24)) + 1;
        let t = sys.access(t, ea, true);
        sys.backing_mut().write_u64(ea.offset(24), version);
        let vlen = sys.backing().read_u64(ea.offset(16));
        let base = ea.offset(ENTRY_HEADER_BYTES);
        let mut core = Core::new(mlp, t);
        let mut off = 0;
        while off < vlen {
            let at = core.slot();
            core.hold(sys.access(at, base.offset(off), true));
            let n = (vlen - off).min(128) as usize;
            let mut chunk = [0u8; 128];
            for (i, b) in chunk[..n].iter_mut().enumerate() {
                *b = pattern_byte(key, version, off + i as u64);
            }
            sys.backing_mut().write_bytes(base.offset(off), &chunk[..n]);
            off += 128;
        }
        core.end()
    }

    /// `key`'s entry address, found without a timed access.
    fn entry(store: &KvStore, s: &MemSystem<NoRemote>, key: u64) -> Addr {
        let mut cursor = store.buckets.get_raw(s, hash_key(key) & store.mask);
        while s.backing().read_u64(Addr(cursor)) != key {
            cursor = s.backing().read_u64(Addr(cursor).offset(8));
        }
        Addr(cursor)
    }

    /// Every byte below `end`, and the committed host memory.
    fn contents(s: &MemSystem<NoRemote>, end: u64) -> (Vec<u8>, usize) {
        let mut bytes = vec![0u8; end as usize];
        s.backing().read_bytes(Addr(0), &mut bytes);
        (bytes, s.backing().resident_bytes())
    }

    #[test]
    fn line_bodies_match_the_per_byte_references() {
        // 64 keys in 128 buckets: chains collide. 4096-byte values wrap
        // the pattern past 256 within a value; 100 and 300 end in a
        // short line. On fresh pages the builds must commit the same
        // pages; over stale bytes they must overwrite the same bytes.
        for (value_bytes, stale) in [100, 128, 300, 1024, 4096]
            .into_iter()
            .flat_map(|v| [(v, false), (v, true)])
        {
            let cfg = KvConfig {
                keys: 64,
                value_bytes,
                ..KvConfig::tiny()
            };
            let (mut fast, mut slow) = (sys(), sys());
            if stale {
                let junk: Vec<u8> = (0..1u32 << 20).map(|i| (i * 7 + 1) as u8).collect();
                fast.backing_mut().write_bytes(Addr(0), &junk);
                slow.backing_mut().write_bytes(Addr(0), &junk);
            }
            let mut fast_arena = Arena::new(Addr(0), 256 << 20);
            let mut slow_arena = fast_arena;
            let fast_store = KvStore::build(&cfg, &mut fast, &mut fast_arena);
            let slow_store = build_reference(&cfg, &mut slow, &mut slow_arena);
            let end = fast_arena.used();
            assert_eq!(end, slow_arena.used());
            assert!(
                contents(&fast, end) == contents(&slow, end),
                "build differs at value_bytes {value_bytes}"
            );
            let mut rng = Xoshiro256::seed_from_u64(value_bytes);
            let (mut t_fast, mut t_slow) = (Time::ZERO, Time::ZERO);
            for _ in 0..200 {
                let key = rng.below(cfg.keys);
                if rng.chance(0.5) {
                    // The pattern's version term never reaches the low
                    // byte, so a SET rewrites the bytes already there:
                    // scribble first, so a byte it skips shows.
                    let junk = vec![0xA5; value_bytes as usize];
                    for (s, store) in [(&mut fast, &fast_store), (&mut slow, &slow_store)] {
                        let value = entry(store, s, key).offset(ENTRY_HEADER_BYTES);
                        s.backing_mut().write_bytes(value, &junk);
                    }
                    t_fast = fast_store.set(&mut fast, t_fast, key, 4);
                    t_slow = set_reference(&slow_store, &mut slow, t_slow, key, 4);
                } else {
                    let (ok_fast, t) = fast_store.get(&mut fast, t_fast, key, 4);
                    t_fast = t;
                    let (ok_slow, t) = slow_store.get(&mut slow, t_slow, key, 4);
                    t_slow = t;
                    assert!(ok_fast && ok_slow, "key {key}, value_bytes {value_bytes}");
                }
                assert_eq!(t_fast, t_slow, "key {key}, value_bytes {value_bytes}");
            }
            assert!(
                contents(&fast, end) == contents(&slow, end),
                "SETs differ at value_bytes {value_bytes}"
            );
        }
    }

    #[test]
    fn get_rejects_any_corrupted_byte() {
        // Two full lines and a 44-byte tail: first, middle and last byte
        // of each.
        let cfg = KvConfig {
            value_bytes: 300,
            ..KvConfig::tiny()
        };
        let (mut s, store) = setup(&cfg);
        let key = 7;
        let ea = entry(&store, &s, key);
        for offset in [0, 64, 127, 128, 191, 255, 256, 278, 299] {
            let a = ea.offset(ENTRY_HEADER_BYTES + offset);
            let good = s.backing().read_u8(a);
            s.backing_mut().write_u8(a, good ^ 0x01);
            let (ok, _) = store.get(&mut s, Time::ZERO, key, 4);
            assert!(!ok, "a corrupted byte at offset {offset} passed the check");
            s.backing_mut().write_u8(a, good);
            assert!(store.get(&mut s, Time::ZERO, key, 4).0);
        }
    }

    #[test]
    fn get_rejects_a_value_on_a_never_written_page() {
        let cfg = KvConfig::tiny();
        let (mut s, store) = setup(&cfg);
        // Re-home key 3's header to the last line below 64 MiB, far above
        // the built store: its value then starts on a page nothing wrote.
        let key = 3;
        let h = hash_key(key) & store.mask;
        let ea = Addr((64 << 20) - ENTRY_HEADER_BYTES);
        let head = store.buckets.get_raw(&s, h);
        for (i, v) in [key, head, cfg.value_bytes, 0].into_iter().enumerate() {
            s.backing_mut().write_u64(ea.offset(8 * i as u64), v);
        }
        store.buckets.set_raw(&mut s, h, ea.0);
        let value = ea.offset(ENTRY_HEADER_BYTES);
        assert_eq!(
            s.backing().bytes(value, 128),
            None,
            "page must be unwritten"
        );
        let (ok, _) = store.get(&mut s, Time::ZERO, key, 4);
        assert!(!ok, "an all-zero value passed the check");
    }
}
