//! Virtual-time process execution.
//!
//! Concurrent workload instances (e.g. eight STREAM processes contending for
//! one NIC) are modelled as [`Process`]es, each with its own logical clock.
//! The executor repeatedly steps the process with the earliest next-event
//! time, so accesses arrive at shared resources (delay gate, link, memory
//! bus) in near-global time order and contention emerges naturally.
//!
//! Each `step` should perform one externally visible transaction (one memory
//! access, one request) and advance the process's clock past it. Ties are
//! broken by process index, keeping runs exactly deterministic.

use crate::time::Time;

/// Outcome of stepping a process once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// The process has more work; `next_time` reflects its new clock.
    Continue,
    /// The process finished at its current clock.
    Done,
}

/// A workload instance advancing on the shared virtual timeline.
pub trait Process<S: ?Sized> {
    /// Virtual time at which this process's next transaction begins.
    /// Return [`Time::NEVER`] if the process is blocked forever or done.
    fn next_time(&self) -> Time;

    /// Perform one transaction against the shared state.
    fn step(&mut self, shared: &mut S) -> Step;

    /// A background process supplies load for as long as the others run
    /// (it typically restarts itself instead of finishing): [`run`]
    /// returns once every non-background process is done or blocked,
    /// stepping no background process after that.
    fn background(&self) -> bool {
        false
    }
}

/// A borrowed process is a process, so one slice can mix concrete types
/// (`&mut dyn Process<S>`) while the caller keeps ownership of each.
impl<S: ?Sized, P: Process<S> + ?Sized> Process<S> for &mut P {
    fn next_time(&self) -> Time {
        (**self).next_time()
    }
    fn step(&mut self, shared: &mut S) -> Step {
        (**self).step(shared)
    }
    fn background(&self) -> bool {
        (**self).background()
    }
}

/// Statistics from an executor run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    pub steps: u64,
    /// Virtual time of the last step taken.
    pub end: Time,
    /// Number of processes that reported [`Step::Done`].
    pub finished: usize,
}

/// Run processes in global virtual-time order until every non-background
/// process is done (or blocked forever) or the earliest next-time exceeds
/// `deadline`.
///
/// The min-scan is linear in the number of processes; experiments use at
/// most a few hundred, and each step does far more work than the scan.
/// `next_time` takes `&self` and processes cannot reach each other, so a
/// process's next time can only change when it steps — the executor
/// caches the times and re-queries only the stepped process, turning the
/// scan into a flat compare loop with no virtual calls.
pub fn run<S: ?Sized, P: Process<S>>(procs: &mut [P], shared: &mut S, deadline: Time) -> RunStats {
    // Done processes park at NEVER, which also encodes "blocked forever";
    // both are unrunnable, and only Done increments `finished`.
    let mut next: Vec<Time> = procs.iter().map(|p| p.next_time()).collect();
    // Runnable foreground processes; the run ends with the last of them,
    // however much work the background ones still have.
    let mut foreground = procs
        .iter()
        .zip(&next)
        .filter(|(p, &t)| !p.background() && t != Time::NEVER)
        .count();
    let mut stats = RunStats::default();
    while foreground > 0 {
        let mut best: Option<(usize, Time)> = None;
        for (i, &t) in next.iter().enumerate() {
            match best {
                Some((_, bt)) if bt <= t => {}
                _ => best = Some((i, t)),
            }
        }
        let Some((i, t)) = best else { break };
        if t > deadline {
            break;
        }
        stats.steps += 1;
        stats.end = t;
        if procs[i].step(shared) == Step::Done {
            next[i] = Time::NEVER;
            stats.finished += 1;
        } else {
            next[i] = procs[i].next_time();
        }
        if next[i] == Time::NEVER && !procs[i].background() {
            foreground -= 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    /// A process that appends (id, time) to a shared log every `period`.
    struct Ticker {
        id: u32,
        at: Time,
        period: Dur,
        remaining: u32,
    }

    impl Process<Vec<(u32, Time)>> for Ticker {
        fn next_time(&self) -> Time {
            if self.remaining == 0 {
                Time::NEVER
            } else {
                self.at
            }
        }
        fn step(&mut self, shared: &mut Vec<(u32, Time)>) -> Step {
            shared.push((self.id, self.at));
            self.at += self.period;
            self.remaining -= 1;
            if self.remaining == 0 {
                Step::Done
            } else {
                Step::Continue
            }
        }
    }

    #[test]
    fn steps_in_global_time_order() {
        let mut procs = vec![
            Ticker {
                id: 0,
                at: Time::ns(0),
                period: Dur::ns(10),
                remaining: 5,
            },
            Ticker {
                id: 1,
                at: Time::ns(3),
                period: Dur::ns(7),
                remaining: 5,
            },
        ];
        let mut log = Vec::new();
        let stats = run(&mut procs, &mut log, Time::NEVER);
        assert_eq!(
            stats,
            RunStats {
                steps: 10,
                end: Time::ns(40),
                finished: 2,
            }
        );
        assert!(
            log.windows(2).all(|w| w[0].1 <= w[1].1),
            "log not time-ordered: {log:?}"
        );
    }

    #[test]
    fn tie_break_is_by_index() {
        let mut procs = vec![
            Ticker {
                id: 7,
                at: Time::ns(5),
                period: Dur::ns(100),
                remaining: 1,
            },
            Ticker {
                id: 3,
                at: Time::ns(5),
                period: Dur::ns(100),
                remaining: 1,
            },
        ];
        let mut log = Vec::new();
        run(&mut procs, &mut log, Time::NEVER);
        assert_eq!(log, vec![(7, Time::ns(5)), (3, Time::ns(5))]);
    }

    #[test]
    fn deadline_stops_execution() {
        let mut procs = vec![Ticker {
            id: 0,
            at: Time::ns(0),
            period: Dur::ns(10),
            remaining: 1000,
        }];
        let mut log = Vec::new();
        let stats = run(&mut procs, &mut log, Time::ns(55));
        // Ticks at 0,10,20,30,40,50 are <= 55.
        assert_eq!(stats.steps, 6);
        assert_eq!(stats.finished, 0);
        assert_eq!(stats.end, Time::ns(50));
    }

    /// Never-ending load: a ticker that refills itself every step.
    struct Background(Ticker);

    impl Process<Vec<(u32, Time)>> for Background {
        fn next_time(&self) -> Time {
            self.0.next_time()
        }
        fn step(&mut self, shared: &mut Vec<(u32, Time)>) -> Step {
            self.0.remaining += 1;
            self.0.step(shared)
        }
        fn background(&self) -> bool {
            true
        }
    }

    fn background(id: u32, period: u64) -> Background {
        Background(Ticker {
            id,
            at: Time::ns(0),
            period: Dur::ns(period),
            remaining: 1,
        })
    }

    #[test]
    fn run_ends_with_the_last_foreground_process() {
        let mut fg = Ticker {
            id: 0,
            at: Time::ns(0),
            period: Dur::ns(10),
            remaining: 3,
        };
        let (mut bg1, mut bg2) = (background(1, 4), background(2, 4));
        let mut procs: Vec<&mut dyn Process<Vec<(u32, Time)>>> = vec![&mut fg, &mut bg1, &mut bg2];
        let mut log = Vec::new();
        let stats = run(&mut procs, &mut log, Time::NEVER);
        // Same-instant ties go to the lowest index (foreground first,
        // background in slice order); the foreground's `Done` at 20 ns
        // is the last step — the background ticks due then never run.
        let at = |id, ns| (id, Time::ns(ns));
        assert_eq!(
            log,
            vec![
                at(0, 0),
                at(1, 0),
                at(2, 0),
                at(1, 4),
                at(2, 4),
                at(1, 8),
                at(2, 8),
                at(0, 10),
                at(1, 12),
                at(2, 12),
                at(1, 16),
                at(2, 16),
                at(0, 20),
            ]
        );
        assert_eq!(
            stats,
            RunStats {
                steps: 13,
                end: Time::ns(20),
                finished: 1,
            }
        );
    }

    #[test]
    fn background_alone_never_runs() {
        let mut procs = vec![background(0, 4), background(1, 4)];
        let mut log = Vec::new();
        let stats = run(&mut procs, &mut log, Time::NEVER);
        assert_eq!(stats, RunStats::default());
        assert!(log.is_empty());
    }

    #[test]
    fn empty_process_list() {
        let mut procs: Vec<Ticker> = Vec::new();
        let mut log = Vec::new();
        let stats = run(&mut procs, &mut log, Time::NEVER);
        assert_eq!(stats.steps, 0);
    }

    #[test]
    fn determinism_across_runs() {
        let build = || {
            (0..8u32)
                .map(|i| Ticker {
                    id: i,
                    at: Time::ns(i as u64 * 3),
                    period: Dur::ns(5 + i as u64),
                    remaining: 20,
                })
                .collect::<Vec<_>>()
        };
        let mut log1 = Vec::new();
        let mut log2 = Vec::new();
        run(&mut build(), &mut log1, Time::NEVER);
        run(&mut build(), &mut log2, Time::NEVER);
        assert_eq!(log1, log2);
    }
}
