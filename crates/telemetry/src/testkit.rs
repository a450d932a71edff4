//! Recorded points for the differential tests: this crate sits below
//! the simulator, so its tests drive the probes with a small closed-
//! loop model of the MCBN experiment instead.

use crate::recorder::{PointTrace, TraceRecorder};
use std::collections::VecDeque;
use thymesim_sim::{Dur, Time};

/// Record `requests` remote reads by each of `instances` STREAM-like
/// instances, two in flight per instance, in the order the process
/// executor would step them (earliest ready time, lowest index on
/// ties). A read takes a credit from a shared window of one per
/// instance (overlapping holders, released in grant order), then
/// queues at the delay gate, the link and the lender's DRAM bus — each
/// a FIFO server, the bus the slowest — emitting the probes the fabric
/// emits at each: spans, stage latencies, busy/level/ratio counters
/// and blame occupancy/waits under the instance's source and the
/// kernel's phase.
pub(crate) fn mini_mcbn(mut r: TraceRecorder, instances: u64, requests: u64) -> PointTrace {
    const KERNELS: [&str; 4] = ["copy", "scale", "add", "triad"];
    let (gate_ps, link_ps, dram_ps, wire_ps) = (100_000, 61_000, 150_000, 150_000);
    let window = instances;
    r.counter_bound("credit.occupancy", window);
    // Slot `k` is one of instance `k / 2`'s two outstanding reads.
    let mut ready: Vec<u64> = (0..2 * instances).map(|k| 7_000 * k).collect();
    let mut issued = vec![0u64; instances as usize];
    let mut credits: VecDeque<u64> = VecDeque::new();
    let (mut gate_free, mut link_free, mut dram_free) = (0u64, 0u64, 0u64);
    // One queueing stage: wait for the server, then hold it.
    let serve = |r: &mut TraceRecorder, res: &'static str, at: u64, free: &mut u64, hold: u64| {
        let start = at.max(*free);
        r.blame_wait(res, Time(at), Time(start));
        r.blame_occupy(res, Time(start), Time(start + hold));
        r.latency(res, Dur(start - at));
        r.span(res, "busy", Time(start), Time(start + hold));
        *free = start + hold;
        start + hold
    };
    for _ in 0..instances * requests {
        let slot = (0..ready.len())
            .filter(|&k| issued[k / 2] < requests)
            .min_by_key(|&k| ready[k])
            .expect("a request is left");
        let i = slot / 2;
        let (at, rep) = (ready[slot], issued[i]);
        let kernel = KERNELS[(rep * 4 / requests) as usize];
        r.source_begin("inst", i as u64);
        r.phase_begin(kernel, None);
        if rep * 4 % requests < 4 {
            r.instant("workload", kernel, Time(at));
        }
        while credits.front().is_some_and(|&done| done <= at) {
            credits.pop_front();
        }
        let grant = match credits.len() as u64 == window {
            true => credits.pop_front().expect("window is full"),
            false => at,
        };
        r.blame_wait("credit", Time(at), Time(grant));
        r.counter("credit.inflight", Time(grant), credits.len() as f64);
        let gated = serve(&mut r, "gate", grant, &mut gate_free, gate_ps);
        let sent = serve(&mut r, "link", gated, &mut link_free, link_ps);
        r.counter_busy("net.link_busy", Time(sent - link_ps), Time(sent));
        let read = serve(&mut r, "dram", sent + wire_ps, &mut dram_free, dram_ps);
        r.counter_ratio("mem.row_hit", Time(read), rep % 3, 2);
        let done = read + wire_ps;
        r.blame_occupy("credit", Time(grant), Time(done));
        r.counter_level("credit.occupancy", Time(grant), Time(done), 1);
        credits.push_back(done);
        r.span_arg("workload", kernel, Time(at), Time(done), "rep", rep);
        r.latency("read", Dur(done - at));
        r.add("reads", 1);
        issued[i] += 1;
        ready[slot] = done + 20_000 * (slot as u64 + 1);
    }
    r.finish()
}
