//! An independent, event-driven reference model of the remote-read path.
//!
//! [`crate::engine::FabricEngine`] computes completion times with a
//! *timeline* technique: each resource advances a `next_free` clock as
//! calls arrive in program order. That is fast but subtle — out-of-order
//! arrivals, credit recycling, and grant alignment all interact. This
//! module re-implements the same path on the actor engine in [`actor`],
//! where a future-event list forces strictly time-ordered processing, and
//! the test suite proves the two implementations produce **identical**
//! completion times for arbitrary traffic. Two independent derivations,
//! one answer.

mod actor;

use crate::engine::FabricConfig;
use crate::packet::HEADER_BYTES;
use actor::{Actor, ActorId, Ctx, Engine, Event};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use thymesim_sim::{Dur, Time};

/// Event kinds inside the reference pipeline.
const EV_ISSUE: u32 = 0;
const EV_GATE: u32 = 1;
const EV_TX: u32 = 2;
const EV_BUS: u32 = 3;
const EV_RX: u32 = 4;

/// The whole path as one actor: the actor engine supplies globally
/// time-ordered dispatch; the actor supplies the per-stage arithmetic.
struct PathActor {
    cfg: FabricConfig,
    // Window.
    inflight: BinaryHeap<Reverse<u64>>, // completion ps
    waiting: VecDeque<u32>,             // request ids awaiting credit
    // Gate state.
    last_grant: Option<u64>, // cycle index
    // Serial resources.
    tx_free: Time,
    bus_free: Time,
    rx_free: Time,
    // Results.
    completions: Vec<Option<Time>>,
    done: usize,
    me: ActorId,
    // Derived constants.
    req_wire: u64,
    resp_wire: u64,
    bus_busy: Dur,
    dram_latency: Dur,
    bus_rate_ps_per_byte: f64,
}

impl PathActor {
    /// Entries above this are provisional (in-flight, completion unknown).
    const PROVISIONAL_FLOOR: u64 = u64::MAX >> 1;

    fn provisional(id: u32) -> u64 {
        u64::MAX - id as u64
    }

    fn admit(&mut self, id: u32, at: Time, ctx: &mut Ctx<'_>) {
        // Retire credits whose transactions already completed.
        while let Some(&Reverse(done)) = self.inflight.peek() {
            if done <= at.as_ps() {
                self.inflight.pop();
            } else {
                break;
            }
        }
        if self.inflight.len() < self.cfg.window {
            // Reserve the credit with a provisional completion; patched
            // at EV_RX.
            self.inflight.push(Reverse(Self::provisional(id)));
            ctx.schedule_at(
                at + self.cfg.egress_latency,
                Event {
                    to: self.me,
                    kind: EV_GATE,
                    payload: id as u64,
                },
            );
            return;
        }
        // Window full. If the earliest credit's completion is already
        // *known* (a real time in the future), admit at that instant —
        // exactly the timeline model's acquire(). Otherwise wait for the
        // completion event to wake us.
        match self.inflight.peek() {
            Some(&Reverse(done)) if done < Self::PROVISIONAL_FLOOR => {
                self.inflight.pop();
                self.inflight.push(Reverse(Self::provisional(id)));
                let admit_at = Time(done).max2(at);
                ctx.schedule_at(
                    admit_at + self.cfg.egress_latency,
                    Event {
                        to: self.me,
                        kind: EV_GATE,
                        payload: id as u64,
                    },
                );
            }
            _ => self.waiting.push_back(id),
        }
    }

    fn release_credit(&mut self, id: u32, done: Time, ctx: &mut Ctx<'_>) {
        // Replace the provisional entry for `id` with the real completion
        // (it may already have been consumed by an eager admit()).
        let mut entries: Vec<u64> = self.inflight.drain().map(|Reverse(v)| v).collect();
        let provisional = Self::provisional(id);
        if let Some(pos) = entries.iter().position(|&v| v == provisional) {
            entries[pos] = done.as_ps();
        }
        self.inflight = entries.into_iter().map(Reverse).collect();
        // Admit the next waiter at the completion instant if a credit is
        // free then.
        if let Some(next) = self.waiting.pop_front() {
            let at = done;
            // One credit just became concrete; pop it if completed.
            self.admit_waiting(next, at, ctx);
        }
    }

    fn admit_waiting(&mut self, id: u32, at: Time, ctx: &mut Ctx<'_>) {
        // The earliest credit frees at the min (real) completion.
        let free_at = match self.inflight.peek() {
            Some(&Reverse(done))
                if self.inflight.len() >= self.cfg.window && done < Self::PROVISIONAL_FLOOR =>
            {
                Time(done.max(at.as_ps()))
            }
            _ => at,
        };
        if self.inflight.len() >= self.cfg.window {
            self.inflight.pop();
        }
        self.inflight.push(Reverse(Self::provisional(id)));
        ctx.schedule_at(
            free_at + self.cfg.egress_latency,
            Event {
                to: self.me,
                kind: EV_GATE,
                payload: id as u64,
            },
        );
    }
}

impl Actor for PathActor {
    fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        let id = ev.payload as u32;
        let now = ctx.now();

        match ev.kind {
            EV_ISSUE => self.admit(id, now, ctx),
            EV_GATE => {
                // One grant per PERIOD cycles, aligned (equation 1).
                let clock = self.cfg.fpga_clock;
                let arrival_cycle = clock.cycles_at(clock.next_edge(now));
                let period = match &self.cfg.delay {
                    crate::engine::DelaySpec::Period(p) => *p,
                    other => panic!("reference model supports Period only, got {other:?}"),
                };
                let earliest = match self.last_grant {
                    Some(g) => arrival_cycle.max(g + 1),
                    None => arrival_cycle,
                };
                let grant = earliest.div_ceil(period) * period;
                self.last_grant = Some(grant);
                ctx.schedule_at(
                    clock.time_of_cycle(grant + 1),
                    Event {
                        to: self.me,
                        kind: EV_TX,
                        payload: ev.payload,
                    },
                );
            }
            EV_TX => {
                let start = now.max2(self.tx_free);
                let ser = Dur::ps(
                    (self.req_wire as f64 * 8.0e12 / self.cfg.link.bits_per_sec).round() as u64,
                );
                self.tx_free = start + ser;
                let arrive = start + ser + self.cfg.link.propagation + self.cfg.lender_nic_latency;
                ctx.schedule_at(
                    arrive,
                    Event {
                        to: self.me,
                        kind: EV_BUS,
                        payload: ev.payload,
                    },
                );
            }
            EV_BUS => {
                let start = now.max2(self.bus_free);
                self.bus_free = start + self.bus_busy;
                let data_ready = start + self.bus_busy + self.dram_latency;
                ctx.schedule_at(
                    data_ready + self.cfg.lender_nic_latency,
                    Event {
                        to: self.me,
                        kind: EV_RX,
                        payload: ev.payload,
                    },
                );
            }
            EV_RX => {
                let start = now.max2(self.rx_free);
                let ser = Dur::ps(
                    (self.resp_wire as f64 * 8.0e12 / self.cfg.link.bits_per_sec).round() as u64,
                );
                self.rx_free = start + ser;
                let done = start + ser + self.cfg.link.propagation + self.cfg.ingress_latency;
                self.completions[id as usize] = Some(done);
                self.done += 1;
                self.release_credit(id, done, ctx);
            }
            other => panic!("unknown event kind {other}"),
        }
        let _ = self.bus_rate_ps_per_byte;
    }
}

/// Simulate sorted `arrivals` (one cache-line read each) through the
/// event-driven reference; returns per-request completion times.
fn reference_completions(
    cfg: &FabricConfig,
    dram: thymesim_mem::DramConfig,
    arrivals: &[Time],
) -> Vec<Time> {
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Thin wrapper that shares the completion vector with the caller.
    struct Shared {
        inner: PathActor,
        out: Rc<RefCell<Vec<Option<Time>>>>,
    }
    impl Actor for Shared {
        fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
            self.inner.handle(ev, ctx);
            if ev.kind == EV_RX {
                let id = ev.payload as usize;
                self.out.borrow_mut()[id] = self.inner.completions[id];
            }
        }
    }

    assert!(
        arrivals.windows(2).all(|w| w[0] <= w[1]),
        "arrivals must be sorted"
    );
    let mut engine = Engine::new();
    if thymesim_telemetry::enabled() {
        // Observational hook: samples queue depth without touching sim state.
        let mut n = 0u64;
        engine.set_tracer(Box::new(move |at, _ev, depth| {
            thymesim_telemetry::add("engine.events", 1);
            if n.is_multiple_of(64) {
                thymesim_telemetry::counter("engine.queue_depth", at, depth as f64);
            }
            n += 1;
        }));
    }
    let bus_busy =
        Dur::ps((cfg.line_bytes as f64 * 1e12 / dram.bandwidth_bytes_per_sec).round() as u64);
    let out: Rc<RefCell<Vec<Option<Time>>>> = Rc::new(RefCell::new(vec![None; arrivals.len()]));
    let actor = Shared {
        inner: PathActor {
            cfg: cfg.clone(),
            inflight: BinaryHeap::new(),
            waiting: VecDeque::new(),
            last_grant: None,
            tx_free: Time::ZERO,
            bus_free: Time::ZERO,
            rx_free: Time::ZERO,
            completions: vec![None; arrivals.len()],
            done: 0,
            me: ActorId(0),
            req_wire: HEADER_BYTES,
            resp_wire: HEADER_BYTES + cfg.line_bytes,
            bus_busy,
            dram_latency: dram.latency,
            bus_rate_ps_per_byte: 1e12 / dram.bandwidth_bytes_per_sec,
        },
        out: Rc::clone(&out),
    };
    let id = engine.add_actor(Box::new(actor));
    for (i, &t) in arrivals.iter().enumerate() {
        engine.post(
            t,
            Event {
                to: id,
                kind: EV_ISSUE,
                payload: i as u64,
            },
        );
    }
    engine.run();
    let res = out.borrow();
    res.iter()
        .map(|c| c.expect("every request must complete"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DelaySpec, FabricEngine};
    use crate::xlate::Segment;
    use proptest::prelude::*;
    use thymesim_mem::{shared_dram, Addr, DramConfig, RemoteBackend};

    fn timeline_completions(cfg: &FabricConfig, dram: DramConfig, arrivals: &[Time]) -> Vec<Time> {
        let mut e = FabricEngine::new(cfg.clone(), shared_dram(dram));
        e.xlate.map(Segment {
            borrower_base: 0,
            lender_base: 0,
            len: 1 << 30,
        });
        e.set_attached(true);
        arrivals
            .iter()
            .enumerate()
            .map(|(i, &t)| e.fetch_line(t, Addr((i as u64 % 4096) * 128)))
            .collect()
    }

    fn cfg(period: u64, window: usize) -> FabricConfig {
        FabricConfig {
            delay: DelaySpec::Period(period),
            window,
            ..FabricConfig::default()
        }
    }

    #[test]
    fn matches_timeline_engine_on_a_burst() {
        let arrivals: Vec<Time> = (0..200).map(|_| Time::ZERO).collect();
        let c = cfg(50, 16);
        let a = reference_completions(&c, DramConfig::default(), &arrivals);
        let b = timeline_completions(&c, DramConfig::default(), &arrivals);
        assert_eq!(a, b, "event-driven and timeline models disagree");
    }

    #[test]
    fn matches_timeline_engine_when_sparse() {
        let arrivals: Vec<Time> = (0..100u64).map(|i| Time::us(i * 7)).collect();
        let c = cfg(200, 8);
        let a = reference_completions(&c, DramConfig::default(), &arrivals);
        let b = timeline_completions(&c, DramConfig::default(), &arrivals);
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The two independent implementations agree exactly for arbitrary
        /// sorted traffic, PERIOD, and window size.
        #[test]
        fn prop_reference_equals_timeline(
            period in 1u64..300,
            window in 1usize..64,
            mut gaps in proptest::collection::vec(0u64..5_000, 1..120),
        ) {
            let mut t = Time::ZERO;
            let arrivals: Vec<Time> = gaps.drain(..).map(|g| {
                t += thymesim_sim::Dur::ns(g);
                t
            }).collect();
            let c = cfg(period, window);
            let a = reference_completions(&c, DramConfig::default(), &arrivals);
            let b = timeline_completions(&c, DramConfig::default(), &arrivals);
            prop_assert_eq!(a, b);
        }
    }
}
