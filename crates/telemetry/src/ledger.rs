//! The occupancy ledger of one queueing resource: who held it when.
//! [`crate::TraceRecorder::blame_occupy`] appends a segment,
//! [`crate::TraceRecorder::blame_wait`] asks [`Ledger::overlaps`] how
//! long each source held the resource during one wait.
//!
//! Segments are kept per source, in recording order. A FIFO resource
//! hands each source segments whose starts *and* ends never decrease,
//! and for such a source a wait `[a, s)` costs a constant number of
//! binary searches however long the backlog is:
//!
//! * the segments a wait passes by (`end <= a`) are a prefix — pruning
//!   pops them off the front;
//! * the segments that overlap the wait (`start < s`) are a prefix of
//!   what is left, and their total overlap is
//!   `Σ min(end, s) − Σ max(start, a)`, where each sum splits at one
//!   more partition point into a constant part and a range of the
//!   running sums every segment carries.
//!
//! A source that receives a segment out of order is scanned segment by
//! segment instead, until its backlog drains; the answer is the same
//! either way, so which body runs is decided by the data alone.

use crate::recorder::Source;
use std::collections::VecDeque;

/// One source's total occupancy overlap with one wait.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Overlap {
    pub source: Source,
    pub ps: u128,
    /// Recording position of the source's first overlapping segment:
    /// what an answer is ordered by.
    pub first: u64,
}

#[derive(Clone, Copy, Debug)]
struct Segment {
    start: u64,
    end: u64,
    /// Position in the resource's recording order, across sources.
    seq: u64,
    /// Sums of `start` / `end` over this source's earlier segments,
    /// pruned ones included: a range sum is one subtraction.
    starts_before: u128,
    ends_before: u128,
}

/// One source's live segments at one resource, in recording order.
#[derive(Debug)]
struct Held {
    source: Source,
    segs: VecDeque<Segment>,
    /// Sums of `start` / `end` over every segment ever recorded here.
    starts: u128,
    ends: u128,
    /// Do the starts and the ends of `segs` both never decrease?
    sorted: bool,
}

impl Held {
    /// Sum of `start` and of `end` over `segs[lo..hi]`.
    fn sums(&self, lo: usize, hi: usize) -> (u128, u128) {
        let before = |i: usize| match self.segs.get(i) {
            Some(g) => (g.starts_before, g.ends_before),
            None => (self.starts, self.ends),
        };
        let ((s_lo, e_lo), (s_hi, e_hi)) = (before(lo), before(hi));
        (s_hi - s_lo, e_hi - e_lo)
    }

    /// Drop the segments wholly before `a`, then return this source's
    /// overlap with the wait `[a, s)`; `None` when nothing overlaps.
    fn overlap(&mut self, a: u64, s: u64) -> Option<Overlap> {
        debug_assert!(a < s, "an empty wait overlaps nothing");
        let source = self.source;
        if !self.sorted {
            self.segs.retain(|g| g.end > a);
            let mut found: Option<Overlap> = None;
            for g in &self.segs {
                let ps = g.end.min(s).saturating_sub(g.start.max(a)) as u128;
                if ps > 0 {
                    let none_yet = Overlap {
                        source,
                        ps: 0,
                        first: g.seq,
                    };
                    found.get_or_insert(none_yet).ps += ps;
                }
            }
            if self.segs.is_empty() {
                self.sorted = true;
            }
            return found;
        }
        while self.segs.front().is_some_and(|g| g.end <= a) {
            self.segs.pop_front();
        }
        // Every live segment ends after `a`, so it overlaps iff it
        // starts before `s`: segments `..n`, each by
        // `min(end, s) − max(start, a) > 0`. Of those, `..ended` end by
        // `s` and `..early` start by `a` (both subsets, both prefixes).
        // A wait at a FIFO server sees the whole backlog end before it
        // is served and start after it arrived, so the ends of the
        // deque usually answer without a search.
        let (front, back) = (self.segs.front()?, self.segs.back()?);
        let len = self.segs.len();
        let n = match back.start < s {
            true => len,
            false => self.segs.partition_point(|g| g.start < s),
        };
        if n == 0 {
            return None;
        }
        let ended = match back.end <= s {
            true => len,
            false => self.segs.partition_point(|g| g.end <= s),
        };
        let early = match front.start > a {
            true => 0,
            false => self.segs.partition_point(|g| g.start <= a),
        };
        let first = front.seq;
        let (_, ends) = self.sums(0, ended);
        let (starts, _) = self.sums(early, n);
        let upper = ends + (n - ended) as u128 * s as u128;
        let lower = starts + early as u128 * a as u128;
        let ps = upper - lower;
        Some(Overlap { source, ps, first })
    }
}

/// One resource's occupancy ledger.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    /// Segments recorded so far, over all sources.
    recorded: u64,
    /// In first-occupancy order; a resource sees a handful of sources.
    sources: Vec<Held>,
}

impl Ledger {
    /// Append the non-empty segment `[start, end)` held by `source`.
    pub(crate) fn occupy(&mut self, start: u64, end: u64, source: Source) {
        let held = match self.sources.iter_mut().position(|h| h.source == source) {
            Some(i) => &mut self.sources[i],
            None => {
                self.sources.push(Held {
                    source,
                    segs: VecDeque::new(),
                    starts: 0,
                    ends: 0,
                    sorted: true,
                });
                self.sources.last_mut().expect("just pushed")
            }
        };
        if let Some(last) = held.segs.back() {
            held.sorted &= last.start <= start && last.end <= end;
        }
        held.segs.push_back(Segment {
            start,
            end,
            seq: self.recorded,
            starts_before: held.starts,
            ends_before: held.ends,
        });
        held.starts += start as u128;
        held.ends += end as u128;
        self.recorded += 1;
    }

    /// Fill `out` with each source's overlap with the non-empty wait
    /// `[a, s)`, in the recording order of the sources' first
    /// overlapping segments. Segments wholly before `a` are dropped for
    /// good: a later wait that arrives earlier no longer sees them.
    pub(crate) fn overlaps(&mut self, a: u64, s: u64, out: &mut Vec<Overlap>) {
        out.clear();
        out.extend(self.sources.iter_mut().filter_map(|h| h.overlap(a, s)));
        out.sort_unstable_by_key(|o| o.first);
    }
}

/// The whole-ledger scan [`Ledger`] replaced, kept as the oracle of the
/// differential tests: one vector of segments in recording order,
/// `retain`ed and rescanned on every wait.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct ScanLedger(Vec<(u64, u64, Source)>);

#[cfg(test)]
impl ScanLedger {
    pub(crate) fn occupy(&mut self, start: u64, end: u64, source: Source) {
        self.0.push((start, end, source));
    }

    pub(crate) fn overlaps(&mut self, a: u64, s: u64, out: &mut Vec<Overlap>) {
        self.0.retain(|&(_, e, _)| e > a);
        out.clear();
        for (first, &(ls, le, source)) in self.0.iter().enumerate() {
            let ps = (le.min(s) as u128).saturating_sub(ls.max(a) as u128);
            if ps == 0 {
                continue;
            }
            match out.iter_mut().find(|o| o.source == source) {
                Some(o) => o.ps += ps,
                None => out.push(Overlap {
                    source,
                    ps,
                    first: first as u64,
                }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{PointTrace, TraceRecorder};
    use proptest::prelude::*;
    use thymesim_sim::Time;

    const W: u64 = 1_000;

    fn src(i: u64) -> Source {
        Source {
            name: "inst",
            index: i,
        }
    }

    /// One blame probe call of a synthetic schedule.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Occupy(u64, u64, u64),
        Wait(u64, u64, u64),
    }

    /// Decode random words into a schedule on one resource, in the
    /// style `mode` names, over `sources` sources:
    ///
    /// * 0 — a FIFO server: every request waits for the previous holder
    ///   and then holds; with no think time a segment ends exactly at
    ///   the next arrival, and a wait starts exactly where one begins;
    /// * 1 — a credit window of three overlapping holders released in
    ///   grant order, so overlaps sum past the wait (largest-remainder
    ///   branch) while every source still records in order;
    /// * 4 — the same window releasing out of order: a source's starts
    ///   still never decrease but its ends do;
    /// * 2 — shuffled: starts and lengths drawn from a small grid, out
    ///   of order and full of coinciding boundaries;
    /// * 3 — FIFO, but every 16th request records a stale segment
    ///   first (the source leaves the ordered path mid-run) and every
    ///   40th wait arrives after everything (the backlog drains and the
    ///   source returns to it).
    ///
    /// Every 8th word also issues a zero-length wait.
    fn schedule(mode: u8, sources: u64, words: &[u64]) -> Vec<Op> {
        let mut ops = Vec::new();
        let mut free = 0u64; // when the FIFO server / oldest credit frees
        let mut credits: std::collections::VecDeque<u64> = Default::default();
        let mut clock = 0u64;
        for (i, &w) in words.iter().enumerate() {
            let who = w % sources;
            let len = 1 + (w >> 8) % 40;
            let think = (w >> 16) % 3 * ((w >> 20) % 30);
            if w >> 32 & 7 == 0 {
                ops.push(Op::Wait(who, clock, clock));
            }
            match mode {
                0 | 3 => {
                    if mode == 3 && i % 16 == 15 {
                        ops.push(Op::Occupy(who, clock / 2, clock / 2 + len));
                    }
                    if mode == 3 && i % 40 == 39 {
                        ops.push(Op::Wait(who, free + 1_000, free + 1_001));
                    }
                    clock += think;
                    let start = clock.max(free);
                    ops.push(Op::Wait(who, clock, start));
                    ops.push(Op::Occupy(who, start, start + len));
                    free = start + len;
                }
                1 | 4 => {
                    clock += think;
                    while credits.front().is_some_and(|&done| done <= clock) {
                        credits.pop_front();
                    }
                    let grant = match credits.len() {
                        3 => credits.pop_front().expect("three held"),
                        _ => clock,
                    };
                    let after = credits.back().map_or(grant, |&d| d.max(grant));
                    let done = if mode == 1 { after } else { grant } + len;
                    ops.push(Op::Wait(who, clock, grant));
                    ops.push(Op::Occupy(who, grant, done));
                    credits.push_back(done);
                }
                _ => {
                    let at = (w >> 24) % 64 * 5;
                    if w >> 40 & 1 == 0 {
                        ops.push(Op::Occupy(who, at, at + len));
                    } else {
                        ops.push(Op::Wait(who, at, at + len));
                    }
                }
            }
        }
        ops
    }

    fn replay(mut r: TraceRecorder, ops: &[Op]) -> PointTrace {
        for &op in ops {
            let (Op::Occupy(who, ..) | Op::Wait(who, ..)) = op;
            r.source_begin("inst", who);
            match op {
                Op::Occupy(_, s, e) => r.blame_occupy("gate", Time(s), Time(e)),
                Op::Wait(_, a, s) => r.blame_wait("gate", Time(a), Time(s)),
            }
        }
        r.finish()
    }

    proptest! {
        /// Whatever the schedule, the per-source ledger charges every
        /// wait exactly as the whole-ledger scan does: equal blame
        /// entries (order of culprits included) and equal `blame.*`
        /// windows.
        #[test]
        fn prop_ledger_matches_the_whole_ledger_scan(
            mode in 0u8..5,
            sources in 1u64..=6,
            words in proptest::collection::vec(any::<u64>(), 1..160),
        ) {
            let ops = schedule(mode, sources, &words);
            let fast = replay(TraceRecorder::with_window(0, 0, W), &ops);
            let scan = replay(TraceRecorder::with_scan_ledgers(0, 0, W), &ops);
            prop_assert_eq!(&fast.blame, &scan.blame);
            prop_assert_eq!(&fast.tracks, &scan.tracks);
            for e in &fast.blame {
                prop_assert_eq!(e.self_ps + e.by.iter().map(|(_, p)| p).sum::<u64>(), e.wait_ps);
            }
        }
    }

    /// The schedules above do reach both bodies and the branch that
    /// scales charges down — a proptest that only ever ran the scan
    /// would prove nothing.
    #[test]
    fn schedules_cover_both_paths_and_the_scaling_branch() {
        let words: Vec<u64> = (0..400u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i << 7))
            .collect();
        let run = |mode: u8| {
            let mut ledger = Ledger::default();
            let (mut unsorted, mut resorted, mut scaled) = (false, false, false);
            for op in schedule(mode, 4, &words) {
                match op {
                    Op::Occupy(who, s, e) => ledger.occupy(s, e, src(who)),
                    Op::Wait(_, a, s) if s > a => {
                        let was: Vec<bool> = ledger.sources.iter().map(|h| h.sorted).collect();
                        let mut over = Vec::new();
                        ledger.overlaps(a, s, &mut over);
                        scaled |= over.iter().map(|o| o.ps).sum::<u128>() > (s - a) as u128;
                        let now = ledger.sources.iter().map(|h| h.sorted);
                        resorted |= was.iter().zip(now).any(|(&w, n)| !w && n);
                    }
                    Op::Wait(..) => {}
                }
                unsorted |= ledger.sources.iter().any(|h| !h.sorted);
            }
            (unsorted, resorted, scaled)
        };
        assert_eq!(
            run(0),
            (false, false, false),
            "FIFO stays on the ordered path"
        );
        assert_eq!(
            run(1),
            (false, false, true),
            "credit holders overlap, in order"
        );
        assert!(run(2).0, "shuffled segments leave the ordered path");
        assert!(run(4).0, "so do ends that decrease under ordered starts");
        let (unsorted, resorted, _) = run(3);
        assert!(unsorted, "a stale segment leaves the ordered path mid-run");
        assert!(resorted, "and a drained backlog returns to it");
    }

    #[test]
    fn boundaries_touching_the_wait_charge_nothing() {
        for mut r in [
            TraceRecorder::with_window(0, 0, W),
            TraceRecorder::with_scan_ledgers(0, 0, W),
        ] {
            r.source_begin("inst", 0);
            r.blame_occupy("gate", Time(0), Time(10)); // ends at the arrival
            r.blame_occupy("gate", Time(10), Time(14)); // inside the wait
            r.blame_occupy("gate", Time(20), Time(30)); // starts at the grant
            r.source_begin("inst", 1);
            r.blame_wait("gate", Time(10), Time(20));
            let t = r.finish();
            assert_eq!(t.blame[0].by, vec![(src(0), 4)]);
            assert_eq!(t.blame[0].self_ps, 6);
        }
    }

    /// A bus with a 50 000-segment backlog answers 50 000 waits in
    /// 0.12 s unoptimized and 14 ms optimized (two cores, both busy).
    /// The whole-ledger scan visits 2.5 · 10⁹ segments for the same
    /// schedule — 101 s and 15 s — so the bound below fails it by an
    /// order of magnitude in either profile and leaves the ledger as
    /// much room on a loaded machine.
    #[test]
    fn a_backlogged_ledger_answers_waits_in_logarithmic_time() {
        const N: u64 = 50_000;
        let mut ledger = Ledger::default();
        for i in 0..N {
            ledger.occupy(10 * i + 10, 10 * i + 20, src(i & 1));
        }
        let started = std::time::Instant::now();
        let (mut charged, mut over) = (0u128, Vec::new());
        for j in 0..N {
            // Arrivals stay before the first segment ends, so the
            // backlog never drains.
            ledger.overlaps(j % 7, 10 * j + 15, &mut over);
            charged += over.iter().map(|o| o.ps).sum::<u128>();
        }
        let elapsed = started.elapsed();
        // Wait j is covered from 10 up to its start at 10·j + 15.
        assert_eq!(charged, (0..N as u128).map(|j| 10 * j + 5).sum::<u128>());
        assert!(
            elapsed < std::time::Duration::from_millis(1500),
            "50 000 waits took {elapsed:?}"
        );
    }
}
