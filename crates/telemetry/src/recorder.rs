//! [`TraceRecorder`]: buffers timeline events and aggregates per-stage
//! latency histograms, counter windows and blame ledgers for one sweep
//! point. Its probe methods are purely observational — a recorder never
//! hands data back to the simulation, so installing one cannot change
//! any result. The free functions in the crate root are the only
//! probe-facing surface; each forwards to the method of the same name.

use crate::counters::{CounterRecorder, CounterTrack, DEFAULT_WINDOW_PS};
use crate::ledger::{Ledger, Overlap};
use thymesim_sim::{Dur, Histogram, Time};

/// Identity of a workload phase: a static name plus an optional ordinal
/// (BFS level, SSSP bucket, ...). Phases are declared by workloads via
/// [`crate::phase_begin`] / [`crate::phase_end`]; every latency
/// observation is attributed to the phase current at record time, so
/// per-phase sub-histograms partition each stage histogram *exactly* —
/// an observation lands in one phase bucket and the stage total, never
/// zero or two.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Phase {
    pub name: &'static str,
    /// Ordinal for repeated phases (`bfs.level` 0, 1, ...); `None` for
    /// singleton phases (`copy`, `kv.steady`).
    pub index: Option<u64>,
}

impl Phase {
    /// The implicit phase of observations recorded outside any marker
    /// (attach, init, drain). A trace with no phase markers at all
    /// therefore folds into this single phase.
    pub const UNPHASED: Phase = Phase {
        name: "unphased",
        index: None,
    };

    /// Collapsed-frame-safe label: non-alphanumerics flatten to `_`
    /// (same rule as sweep names on the filesystem) and the ordinal
    /// appends as `_<n>` — `bfs.level` 3 becomes `bfs_level_3`.
    pub fn label(&self) -> String {
        let mut s = crate::flat_name(self.name);
        if let Some(i) = self.index {
            s.push('_');
            s.push_str(&i.to_string());
        }
        s
    }
}

/// Identity of a traffic source for interference provenance: a static
/// kind name plus an instance ordinal (`("inst", 3)` for an MCBN STREAM
/// peer, `("lender", 1)` for a lender-local process, `("shard", 7)` for
/// a serve shard). Processes declare their source via
/// [`crate::source_begin`] each step — like phases — and every
/// [`crate::blame_occupy`] / [`crate::blame_wait`] observation is
/// attributed to the source current at record time. Observations
/// outside any marker belong to [`Source::MAIN`], so a single-workload
/// point degenerates to all-self blame.
#[derive(Clone, Copy, Debug, Eq, PartialOrd, Ord)]
pub struct Source {
    pub name: &'static str,
    /// Instance ordinal; sources with the same name are distinct
    /// instances (`inst_0`, `inst_1`, ...).
    pub index: u64,
}

/// Field-wise equality, ordinal first: the blame probes compare
/// sources several times per call, and the sources of one point mostly
/// share a name and differ in the ordinal, so a mismatch costs one
/// integer compare and a match usually no byte compare either.
impl PartialEq for Source {
    fn eq(&self, other: &Source) -> bool {
        self.index == other.index
            && (std::ptr::eq(self.name, other.name) || self.name == other.name)
    }
}

impl Source {
    /// The implicit source of observations recorded outside any
    /// [`crate::source_begin`] marker.
    pub const MAIN: Source = Source {
        name: "main",
        index: 0,
    };

    /// Artifact-safe label: non-alphanumerics flatten to `_` (the same
    /// rule as [`Phase::label`]) and the ordinal always appends —
    /// `("inst", 2)` becomes `inst_2`, [`Source::MAIN`] `main_0`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}_{}", crate::flat_name(self.name), self.index)
    }
}

/// Accumulated queueing-delay blame for one (resource, victim) pair:
/// how much of the victim's total wait at the resource each culprit
/// source is responsible for. The partition invariant —
/// `self_ps + Σ by[..].1 == wait_ps` — holds integer-exactly for every
/// entry by construction (see [`TraceRecorder::blame_wait`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlameEntry {
    /// Resource class label (`"gate"`, `"credit"`, `"link"`,
    /// `"switch"`, `"dram"`, `"serve"`).
    pub resource: &'static str,
    /// The waiting source.
    pub victim: Source,
    /// Number of decomposed waits (zero-length waits count too).
    pub waits: u64,
    /// Total decomposed wait, picoseconds.
    pub wait_ps: u64,
    /// Wait charged to the victim itself: overlap with its own
    /// occupancy plus any residual no ledger segment covers.
    pub self_ps: u64,
    /// Cross-source charges in first-observation order; each pairs a
    /// culprit (never the victim) with its picoseconds of blame.
    pub by: Vec<(Source, u64)>,
}

/// One timeline event, wholly in virtual (picosecond) time. Wall-clock
/// never appears here — that is what makes traces byte-identical across
/// `--jobs` settings and reruns.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A completed interval on a named track (Chrome `ph: "X"`).
    Span {
        track: &'static str,
        name: &'static str,
        start_ps: u64,
        end_ps: u64,
        /// Optional single argument (e.g. `("rep", 3)`).
        arg: Option<(&'static str, u64)>,
    },
    /// A point-in-time marker (Chrome `ph: "i"`).
    Instant {
        track: &'static str,
        name: &'static str,
        at_ps: u64,
    },
    /// A sampled counter value (Chrome `ph: "C"`).
    Counter {
        name: &'static str,
        at_ps: u64,
        value: f64,
    },
}

impl TraceEvent {
    /// Timestamp used for ordering events in the exported trace.
    pub fn ts_ps(&self) -> u64 {
        match self {
            TraceEvent::Span { start_ps, .. } => *start_ps,
            TraceEvent::Instant { at_ps, .. } => *at_ps,
            TraceEvent::Counter { at_ps, .. } => *at_ps,
        }
    }
}

/// Everything one sweep point recorded, ready for export.
#[derive(Clone, Debug, Default)]
pub struct PointTrace {
    /// Grid index of the point within its sweep.
    pub index: usize,
    /// Timeline events in recording order (deterministic: the simulation
    /// of a point is single-threaded).
    pub events: Vec<TraceEvent>,
    /// Events discarded once the per-point cap was reached.
    pub dropped: u64,
    /// Per-stage latency histograms, in first-observation order.
    pub stages: Vec<(&'static str, Histogram)>,
    /// Per-(stage, phase) sub-histograms, in first-observation order.
    /// Every `latency` observation lands in exactly one entry here *and*
    /// in its stage histogram, so for each stage the phase counts and
    /// sums partition the stage totals integer-exactly.
    pub phased: Vec<(&'static str, Phase, Histogram)>,
    /// Monotonic totals, in first-observation order.
    pub counters: Vec<(&'static str, u64)>,
    /// Windowed counter tracks (utilization gauges), name-sorted. Like
    /// the histograms, these are never capped.
    pub tracks: Vec<CounterTrack>,
    /// Per-(resource, victim) queueing-delay blame, in first-observation
    /// order; every entry holds `self_ps + Σ by == wait_ps` exactly.
    pub blame: Vec<BlameEntry>,
}

/// The recording implementation: buffers up to `max_events` timeline
/// events (histograms and totals are never capped) for one sweep point.
#[derive(Debug)]
pub struct TraceRecorder {
    index: usize,
    max_events: usize,
    events: Vec<TraceEvent>,
    dropped: u64,
    stages: Vec<(&'static str, Histogram)>,
    phase: Phase,
    phased: Vec<(&'static str, Phase, Histogram)>,
    counters: Vec<(&'static str, u64)>,
    windowed: CounterRecorder,
    claims: Vec<(&'static str, u64)>,
    source: Source,
    /// Per-resource occupancy ledgers, pruned as waits pass them by.
    ledgers: Vec<(&'static str, Ledger)>,
    /// The ledger's answer to the wait being decomposed and the charges
    /// derived from it; kept between waits for their allocations only.
    over: Vec<Overlap>,
    charges: Vec<(Source, u64)>,
    /// Test oracle: when set, occupancy goes to these whole-ledger
    /// scans instead of `ledgers`.
    #[cfg(test)]
    scan_ledgers: Option<Vec<(&'static str, crate::ledger::ScanLedger)>>,
    blame: Vec<BlameEntry>,
}

impl TraceRecorder {
    pub fn new(index: usize, max_events: usize) -> TraceRecorder {
        TraceRecorder::with_window(index, max_events, DEFAULT_WINDOW_PS)
    }

    /// Like [`TraceRecorder::new`], with an explicit counter-window
    /// width in picoseconds.
    pub fn with_window(index: usize, max_events: usize, window_ps: u64) -> TraceRecorder {
        TraceRecorder {
            index,
            max_events,
            events: Vec::new(),
            dropped: 0,
            stages: Vec::new(),
            phase: Phase::UNPHASED,
            phased: Vec::new(),
            counters: Vec::new(),
            windowed: CounterRecorder::new(window_ps),
            claims: Vec::new(),
            source: Source::MAIN,
            ledgers: Vec::new(),
            over: Vec::new(),
            charges: Vec::new(),
            #[cfg(test)]
            scan_ledgers: None,
            blame: Vec::new(),
        }
    }

    /// A recorder that answers [`TraceRecorder::blame_wait`] from the
    /// whole-ledger scan: the oracle of the differential tests.
    #[cfg(test)]
    pub(crate) fn with_scan_ledgers(index: usize, max_events: usize, window_ps: u64) -> Self {
        TraceRecorder {
            scan_ledgers: Some(Vec::new()),
            ..TraceRecorder::with_window(index, max_events, window_ps)
        }
    }

    #[inline]
    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.max_events {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Consume the recorder into its point trace.
    pub fn finish(self) -> PointTrace {
        PointTrace {
            index: self.index,
            events: self.events,
            dropped: self.dropped,
            stages: self.stages,
            phased: self.phased,
            counters: self.counters,
            tracks: self.windowed.finish(),
            blame: self.blame,
        }
    }
}

/// The probe methods, one per free function in the crate root (which
/// carry the caller-facing documentation).
impl TraceRecorder {
    pub fn span(&mut self, track: &'static str, name: &'static str, start: Time, end: Time) {
        self.push(TraceEvent::Span {
            track,
            name,
            start_ps: start.as_ps(),
            end_ps: end.as_ps(),
            arg: None,
        });
    }

    pub fn span_arg(
        &mut self,
        track: &'static str,
        name: &'static str,
        start: Time,
        end: Time,
        key: &'static str,
        value: u64,
    ) {
        self.push(TraceEvent::Span {
            track,
            name,
            start_ps: start.as_ps(),
            end_ps: end.as_ps(),
            arg: Some((key, value)),
        });
    }

    pub fn instant(&mut self, track: &'static str, name: &'static str, at: Time) {
        self.push(TraceEvent::Instant {
            track,
            name,
            at_ps: at.as_ps(),
        });
    }

    pub fn counter(&mut self, name: &'static str, at: Time, value: f64) {
        self.push(TraceEvent::Counter {
            name,
            at_ps: at.as_ps(),
            value,
        });
    }

    /// One observation lands in the stage histogram *and* in exactly one
    /// (stage, current phase) bucket.
    pub fn latency(&mut self, stage: &'static str, d: Dur) {
        // First-observation order is deterministic because each
        // point's simulation is single-threaded.
        crate::slot(&mut self.stages, stage, Histogram::new).record(d.as_ps());
        // Mirror the observation into the (stage, current-phase) bucket:
        // one record into the stage total, one into exactly one phase —
        // that is what makes the per-phase partition integer-exact.
        let phase = self.phase;
        match self
            .phased
            .iter_mut()
            .find(|(s, p, _)| *s == stage && *p == phase)
        {
            Some((_, _, h)) => h.record(d.as_ps()),
            None => {
                let mut h = Histogram::new();
                h.record(d.as_ps());
                self.phased.push((stage, phase, h));
            }
        }
    }

    pub fn phase_begin(&mut self, name: &'static str, index: Option<u64>) {
        self.phase = Phase { name, index };
    }

    pub fn phase_end(&mut self) {
        self.phase = Phase::UNPHASED;
    }

    pub fn add(&mut self, name: &'static str, delta: u64) {
        *crate::slot(&mut self.counters, name, || 0) += delta;
    }

    pub fn counter_busy(&mut self, name: &'static str, start: Time, end: Time) {
        self.windowed.busy(name, start.as_ps(), end.as_ps());
    }

    pub fn counter_level(&mut self, name: &'static str, start: Time, end: Time, level: u64) {
        self.windowed.level(name, start.as_ps(), end.as_ps(), level);
    }

    pub fn counter_ratio(&mut self, name: &'static str, at: Time, num: u64, den: u64) {
        self.windowed.ratio(name, at.as_ps(), num, den);
    }

    pub fn counter_ratio_run(
        &mut self,
        name: &'static str,
        start: Time,
        step: Dur,
        count: u64,
        num: u64,
        den: u64,
    ) {
        self.windowed
            .ratio_run(name, start.as_ps(), step.as_ps(), count, num, den);
    }

    pub fn counter_bound(&mut self, name: &'static str, bound: u64) {
        self.windowed.bound(name, bound);
    }

    /// Next zero-based instance slot of an exclusive counter family.
    /// Slots are deterministic: each point simulates on exactly one
    /// thread and constructs its components in a fixed order.
    pub fn claim(&mut self, family: &'static str) -> u64 {
        let next = crate::slot(&mut self.claims, family, || 0);
        *next += 1;
        *next - 1
    }

    pub fn source_begin(&mut self, name: &'static str, index: u64) {
        self.source = Source { name, index };
    }

    pub fn source_end(&mut self) {
        self.source = Source::MAIN;
    }

    /// Append `[start, end)` to the resource's occupancy ledger under
    /// the current source. Degenerate intervals record nothing.
    pub fn blame_occupy(&mut self, resource: &'static str, start: Time, end: Time) {
        let (s, e) = (start.as_ps(), end.as_ps());
        if e <= s {
            return;
        }
        #[cfg(test)]
        if let Some(scans) = &mut self.scan_ledgers {
            crate::slot(scans, resource, Default::default).occupy(s, e, self.source);
            return;
        }
        crate::slot(&mut self.ledgers, resource, Ledger::default).occupy(s, e, self.source);
    }

    /// Each source's occupancy of `resource` during the non-empty wait
    /// `[a, s)`, in first-overlap order; prunes what the wait passed by.
    fn overlaps(&mut self, resource: &'static str, a: u64, s: u64, over: &mut Vec<Overlap>) {
        #[cfg(test)]
        if let Some(scans) = &mut self.scan_ledgers {
            if let Some((_, ledger)) = scans.iter_mut().find(|(r, _)| *r == resource) {
                ledger.overlaps(a, s, over);
            }
            return;
        }
        if let Some((_, ledger)) = self.ledgers.iter_mut().find(|(r, _)| *r == resource) {
            ledger.overlaps(a, s, over);
        }
    }

    /// Decompose the wait `[arrival, start)` **integer-exactly** against
    /// the resource's occupancy ledger: each source is charged its
    /// ledger overlap with the wait; when overlapping segments (credit
    /// holders, serve workers) sum past the wait, charges scale down by
    /// largest-remainder apportionment so they still sum to exactly the
    /// wait; any uncovered residual is self-blame.
    ///
    /// A non-empty wait prunes the segments that ended by its
    /// `arrival`: waits arrive in near-simulation order, so those can
    /// never be blamed again. (A rare out-of-order arrival only shifts
    /// blame toward self — it never breaks the partition invariant.)
    /// That bounds a ledger by the resource's backlog *between non-empty
    /// waits*, not absolutely: zero-length waits prune nothing — doing
    /// so would change which segments a later out-of-order wait still
    /// sees — so a resource that never queues anyone keeps every
    /// segment until the point ends (64 bytes each; the solo STREAM
    /// reference point ends with all 14 144 of its `dram` segments).
    pub fn blame_wait(&mut self, resource: &'static str, arrival: Time, start: Time) {
        let (a, s) = (arrival.as_ps(), start.as_ps());
        let wait = s.saturating_sub(a);
        let victim = self.source;
        // Per-culprit charges for this wait, in ledger (first-overlap)
        // order; whatever they leave uncovered is self-blame.
        let mut charges = std::mem::take(&mut self.charges);
        charges.clear();
        let mut residual = wait;
        let mut over = std::mem::take(&mut self.over);
        over.clear();
        if wait > 0 {
            self.overlaps(resource, a, s, &mut over);
            let total: u128 = over.iter().map(|o| o.ps).sum();
            if total == 0 {
                // No overlapping holders: the whole wait is self.
            } else if total <= wait as u128 {
                // Overlaps fit inside the wait: charge them in full.
                charges.extend(over.iter().map(|o| (o.source, o.ps as u64)));
                residual = wait - charges.iter().map(|(_, p)| p).sum::<u64>();
            } else {
                // Overlapping holders (credit window, serve workers)
                // covered more than the wait: scale down by
                // largest-remainder apportionment so the integer
                // charges still sum to exactly `wait`. Ties break by
                // ledger order (deterministic: one thread per point).
                let w = wait as u128;
                let mut rems: Vec<u128> = Vec::with_capacity(over.len());
                for o in &over {
                    let scaled = o.ps * w;
                    charges.push((o.source, (scaled / total) as u64));
                    rems.push(scaled % total);
                }
                let mut left = wait - charges.iter().map(|(_, p)| p).sum::<u64>();
                let mut order: Vec<usize> = (0..charges.len()).collect();
                order.sort_by(|&i, &j| rems[j].cmp(&rems[i]));
                let mut k = 0;
                while left > 0 {
                    charges[order[k % order.len()]].1 += 1;
                    k += 1;
                    left -= 1;
                }
                residual = 0;
            }
        }
        self.over = over;
        let cross: u64 = charges
            .iter()
            .filter(|(src, _)| *src != victim)
            .map(|(_, p)| p)
            .sum();
        let entry = match self
            .blame
            .iter_mut()
            .position(|b| b.resource == resource && b.victim == victim)
        {
            Some(i) => &mut self.blame[i],
            None => {
                self.blame.push(BlameEntry {
                    resource,
                    victim,
                    waits: 0,
                    wait_ps: 0,
                    self_ps: 0,
                    by: Vec::new(),
                });
                self.blame.last_mut().expect("just pushed")
            }
        };
        entry.waits += 1;
        entry.wait_ps += wait;
        entry.self_ps += residual;
        for &(src, ps) in &charges {
            if src == victim {
                entry.self_ps += ps;
            } else {
                *crate::slot(&mut entry.by, src, || 0) += ps;
            }
        }
        // Mirror the cross share onto a windowed `blame.*` ratio track
        // (rendered beside `util.*` in the Perfetto timeline).
        if let Some(track) = crate::blame::track_for(resource) {
            self.windowed.ratio(track, a, cross, wait);
        }
        self.charges = charges;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_recorder_buffers_and_aggregates() {
        let mut r = TraceRecorder::new(7, 100);
        r.span("fabric", "read", Time::ZERO, Time::ns(10));
        r.span_arg("workload", "copy", Time::ns(1), Time::ns(9), "rep", 3);
        r.instant("t", "mark", Time::ns(2));
        r.counter("depth", Time::ns(2), 4.0);
        r.latency("gate", Dur::ns(5));
        r.latency("gate", Dur::ns(7));
        r.latency("wire", Dur::ns(1));
        r.add("reads", 1);
        r.add("reads", 2);
        let t = r.finish();
        assert_eq!(t.index, 7);
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.dropped, 0);
        assert_eq!(t.stages.len(), 2);
        assert_eq!(t.stages[0].0, "gate");
        assert_eq!(t.stages[0].1.count(), 2);
        assert_eq!(t.counters, vec![("reads", 3)]);
    }

    #[test]
    fn phase_labels_are_frame_safe() {
        assert_eq!(Phase::UNPHASED.label(), "unphased");
        let p = Phase {
            name: "bfs.level",
            index: Some(3),
        };
        assert_eq!(p.label(), "bfs_level_3");
        let p = Phase {
            name: "kv.steady",
            index: None,
        };
        assert_eq!(p.label(), "kv_steady");
    }

    #[test]
    fn latencies_partition_into_the_current_phase() {
        let mut r = TraceRecorder::new(0, 10);
        r.latency("gate", Dur::ns(1)); // before any marker: unphased
        r.phase_begin("copy", None);
        r.latency("gate", Dur::ns(2));
        r.latency("wire", Dur::ns(3));
        r.phase_begin("bfs.level", Some(1));
        r.latency("gate", Dur::ns(4));
        r.phase_end();
        r.latency("gate", Dur::ns(8)); // after phase_end: unphased again
        let t = r.finish();

        // Stage totals are untouched by phasing.
        let gate = &t.stages.iter().find(|(s, _)| *s == "gate").unwrap().1;
        assert_eq!(gate.count(), 4);
        assert_eq!(gate.sum(), Dur::ns(15).as_ps() as u128);

        // Per-phase buckets partition each stage exactly.
        for (stage, total) in [("gate", gate.sum()), ("wire", Dur::ns(3).as_ps() as u128)] {
            let (count, sum) = t
                .phased
                .iter()
                .filter(|(s, _, _)| *s == stage)
                .fold((0u64, 0u128), |(c, s), (_, _, h)| {
                    (c + h.count(), s + h.sum())
                });
            let stage_count = t
                .stages
                .iter()
                .find(|(s, _)| *s == stage)
                .unwrap()
                .1
                .count();
            assert_eq!(count, stage_count, "{stage} phase counts partition");
            assert_eq!(sum, total, "{stage} phase sums partition");
        }

        // The unphased bucket collects both the pre-marker and the
        // post-phase_end observations.
        let unphased = t
            .phased
            .iter()
            .find(|(s, p, _)| *s == "gate" && *p == Phase::UNPHASED)
            .unwrap();
        assert_eq!(unphased.2.count(), 2);
        assert_eq!(unphased.2.sum(), Dur::ns(9).as_ps() as u128);
    }

    #[test]
    fn no_markers_means_one_unphased_bucket_per_stage() {
        let mut r = TraceRecorder::new(0, 10);
        r.latency("gate", Dur::ns(5));
        r.latency("gate", Dur::ns(7));
        r.latency("wire", Dur::ns(1));
        let t = r.finish();
        assert_eq!(t.phased.len(), 2, "one bucket per stage");
        for (stage, phase, h) in &t.phased {
            assert_eq!(*phase, Phase::UNPHASED);
            let total = &t.stages.iter().find(|(s, _)| s == stage).unwrap().1;
            assert_eq!(h.count(), total.count());
            assert_eq!(h.sum(), total.sum());
        }
    }

    #[test]
    fn event_cap_drops_timeline_but_not_aggregates() {
        let mut r = TraceRecorder::new(0, 2);
        for i in 0..5u64 {
            r.instant("t", "e", Time::ns(i));
            r.latency("s", Dur::ns(i + 1));
        }
        let t = r.finish();
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.dropped, 3);
        assert_eq!(t.stages[0].1.count(), 5, "histograms are never capped");
    }
}
