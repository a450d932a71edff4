//! A compact actor-based discrete-event engine.
//!
//! Components that exchange asynchronous messages (switch ports, the
//! memtier client/server pair, failure injectors) register as [`Actor`]s.
//! Each event carries a destination actor, an opaque `kind`, and a `u64`
//! payload; actors schedule further events through [`Ctx`]. Heavier state
//! rides inside the actors themselves, keeping events `Copy` and the queue
//! allocation-free on the hot path.
//!
//! This engine is **not** the production scheduler, and no production
//! build links it. Production timing runs on
//! [`crate::engine::FabricEngine`]'s `next_free` timelines and the
//! `thymesim_sim::process` executor; the actor engine is the substrate
//! of the test oracle that re-derives the remote-read path event by
//! event ([`super`]) and proves the timeline engine against it.

use thymesim_sim::{Dur, EventQueue, Time};

/// Identifies an actor registered with an [`Engine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub u32);

/// An event in flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    pub to: ActorId,
    /// Actor-interpreted discriminator (e.g. "packet arrival", "timeout").
    pub kind: u32,
    pub payload: u64,
}

/// Scheduling interface handed to actors during dispatch.
pub struct Ctx<'a> {
    now: Time,
    queue: &'a mut EventQueue<Event>,
}

impl Ctx<'_> {
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedule an event at an absolute instant (must not be in the past).
    ///
    /// Scheduling into the past breaks determinism silently (the event
    /// pops "next" regardless of causality), so the check is a hard
    /// `assert!` in every build profile — the same policy as
    /// [`Engine::post`].
    #[inline]
    pub fn schedule_at(&mut self, at: Time, ev: Event) {
        assert!(at >= self.now, "scheduling into the past");
        self.queue.push(at, ev);
    }

    /// Schedule an event `delay` after now.
    ///
    /// Checked like [`Ctx::schedule_at`]: `now + delay` wrapping around
    /// `u64::MAX` in a release build would otherwise land the event in
    /// the far past.
    #[inline]
    pub fn schedule_in(&mut self, delay: Dur, ev: Event) {
        let at = self.now + delay;
        assert!(at >= self.now, "scheduling into the past");
        self.queue.push(at, ev);
    }
}

/// A message-driven simulation component.
pub trait Actor {
    fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>);
}

/// Observes every dispatched event: `(dispatch time, event, queue depth
/// after pop)`. Installed by observability layers; the engine itself
/// never depends on them.
pub type Tracer = Box<dyn FnMut(Time, &Event, usize)>;

/// Owns the actors and the future-event list and runs the main loop.
pub struct Engine {
    actors: Vec<Box<dyn Actor>>,
    queue: EventQueue<Event>,
    now: Time,
    processed: u64,
    tracer: Option<Tracer>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    pub fn new() -> Engine {
        Engine {
            actors: Vec::new(),
            queue: EventQueue::new(),
            now: Time::ZERO,
            processed: 0,
            tracer: None,
        }
    }

    /// Install a dispatch observer. Purely observational: the tracer
    /// sees each event before its actor runs but cannot influence
    /// scheduling, so an instrumented run is timing-identical.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    pub fn add_actor(&mut self, actor: Box<dyn Actor>) -> ActorId {
        let id = ActorId(self.actors.len() as u32);
        self.actors.push(actor);
        id
    }

    pub fn now(&self) -> Time {
        self.now
    }

    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Inject an event from outside the actor graph.
    pub fn post(&mut self, at: Time, ev: Event) {
        assert!(at >= self.now, "posting into the past");
        self.queue.push(at, ev);
    }

    /// Run until the queue drains or virtual time passes `deadline`.
    /// Returns the number of events processed by this call.
    pub fn run_until(&mut self, deadline: Time) -> u64 {
        let start = self.processed;
        while let Some(at) = self.queue.peek_time() {
            if at > deadline {
                break;
            }
            let (at, ev) = self.queue.pop().expect("peeked event vanished");
            self.now = at;
            if let Some(tracer) = self.tracer.as_mut() {
                tracer(at, &ev, self.queue.len());
            }
            let idx = ev.to.0 as usize;
            assert!(idx < self.actors.len(), "event for unknown actor {idx}");
            // Split borrow: take the actor out so it can schedule through us.
            let mut ctx = Ctx {
                now: at,
                queue: &mut self.queue,
            };
            // Safety of logic: an actor never removes actors, so index stays valid.
            let actor = &mut self.actors[idx];
            actor.handle(ev, &mut ctx);
            self.processed += 1;
        }
        self.processed - start
    }

    /// Drain the queue completely.
    pub fn run(&mut self) -> u64 {
        self.run_until(Time::NEVER)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ping-pong pair: sends the payload back and forth, decrementing it.
    struct Ponger {
        peer: Option<ActorId>,
        latency: Dur,
        received: Vec<(Time, u64)>,
    }

    impl Actor for Ponger {
        fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
            self.received.push((ctx.now(), ev.payload));
            if ev.payload > 0 {
                if let Some(peer) = self.peer {
                    ctx.schedule_in(
                        self.latency,
                        Event {
                            to: peer,
                            kind: 0,
                            payload: ev.payload - 1,
                        },
                    );
                }
            }
        }
    }

    #[test]
    fn ping_pong_terminates_with_correct_timing() {
        // Actor ids are assigned sequentially, so both peers are known up-front.
        let mut eng = Engine::new();
        let a = eng.add_actor(Box::new(Ponger {
            peer: Some(ActorId(1)),
            latency: Dur::ns(10),
            received: vec![],
        }));
        let _b = eng.add_actor(Box::new(Ponger {
            peer: Some(ActorId(0)),
            latency: Dur::ns(10),
            received: vec![],
        }));
        eng.post(
            Time::ZERO,
            Event {
                to: a,
                kind: 0,
                payload: 5,
            },
        );
        let n = eng.run();
        // payload 5 at t=0 (a), 4 at 10 (b), 3 at 20 (a), 2 at 30, 1 at 40, 0 at 50.
        assert_eq!(n, 6);
        assert_eq!(eng.now(), Time::ns(50));
    }

    #[test]
    fn tracer_sees_every_dispatch_without_changing_timing() {
        use std::cell::RefCell;
        use std::rc::Rc;
        type TraceLog = Rc<RefCell<Vec<(Time, u64, usize)>>>;
        let run = |trace: Option<TraceLog>| {
            let mut eng = Engine::new();
            let a = eng.add_actor(Box::new(Ponger {
                peer: Some(ActorId(1)),
                latency: Dur::ns(10),
                received: vec![],
            }));
            let _b = eng.add_actor(Box::new(Ponger {
                peer: Some(ActorId(0)),
                latency: Dur::ns(10),
                received: vec![],
            }));
            if let Some(log) = trace {
                eng.set_tracer(Box::new(move |at, ev, depth| {
                    log.borrow_mut().push((at, ev.payload, depth));
                }));
            }
            eng.post(
                Time::ZERO,
                Event {
                    to: a,
                    kind: 0,
                    payload: 3,
                },
            );
            eng.run();
            (eng.now(), eng.events_processed())
        };
        let log = Rc::new(RefCell::new(Vec::new()));
        let traced = run(Some(Rc::clone(&log)));
        let plain = run(None);
        assert_eq!(traced, plain, "tracer must not perturb the simulation");
        let log = log.borrow();
        assert_eq!(log.len(), 4, "one tracer call per dispatched event");
        assert_eq!(log[0], (Time::ZERO, 3, 0));
        assert_eq!(log[3].0, Time::ns(30));
    }

    #[test]
    fn run_until_respects_deadline() {
        struct SelfTicker;
        impl Actor for SelfTicker {
            fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
                ctx.schedule_in(Dur::ns(100), ev);
            }
        }
        let mut eng = Engine::new();
        let id = eng.add_actor(Box::new(SelfTicker));
        eng.post(
            Time::ZERO,
            Event {
                to: id,
                kind: 0,
                payload: 0,
            },
        );
        let n = eng.run_until(Time::ns(450));
        assert_eq!(n, 5); // t = 0,100,200,300,400
        assert_eq!(eng.now(), Time::ns(400));
        let n2 = eng.run_until(Time::ns(650));
        assert_eq!(n2, 2); // 500, 600
    }

    #[test]
    #[should_panic(expected = "posting into the past")]
    fn cannot_post_into_past() {
        struct Nop;
        impl Actor for Nop {
            fn handle(&mut self, _: Event, _: &mut Ctx<'_>) {}
        }
        let mut eng = Engine::new();
        let id = eng.add_actor(Box::new(Nop));
        eng.post(
            Time::ns(100),
            Event {
                to: id,
                kind: 0,
                payload: 0,
            },
        );
        eng.run();
        eng.post(
            Time::ns(50),
            Event {
                to: id,
                kind: 0,
                payload: 0,
            },
        );
    }
}
