//! Chrome-trace / Perfetto JSON export and a structural checker.
//!
//! The exported file follows the Trace Event Format's JSON-object form:
//! `{"displayTimeUnit": "ms", "traceEvents": [...]}` with complete
//! (`"X"`), instant (`"i"`), counter (`"C"`) and metadata (`"M"`)
//! events. Each sweep point becomes one Perfetto *process* (`pid` =
//! grid index) and each track one named *thread* within it, so the
//! whole sweep loads as a side-by-side timeline in
//! <https://ui.perfetto.dev>.
//!
//! Timestamps are virtual sim time converted to microseconds (`f64`,
//! printed with Rust's shortest-round-trip formatting). Nothing in the
//! file depends on wall-clock, thread identity, or `--jobs`, so equal
//! runs export byte-identical traces.

use crate::counters::CounterTrack;
use crate::recorder::{PointTrace, TraceEvent};
use serde::Value;
use std::fmt::Write as _;

/// Prefix on windowed utilization counter-track names in the exported
/// trace, distinguishing them from ad-hoc sampled counters so the
/// checker can apply the stronger rules (monotone per-track timestamps,
/// fractions within [0, 1], level values within their bound).
pub const UTIL_PREFIX: &str = "util.";

/// Prefix on windowed interference-blame ratio tracks (cross-source
/// wait share per resource, see [`crate::blame`]). Blame tracks are
/// recorded through the same windowed counter machinery but keep their
/// own namespace beside `util.*`, and the checker applies the same
/// windowed-sample rules to them.
pub const BLAME_PREFIX: &str = "blame.";

/// Append `ps` as the microsecond timestamp the format wants.
fn write_us(out: &mut String, ps: u64) {
    serde_json::write_f64(out, ps as f64 / 1e6);
}

/// One entry of the render timeline: either a recorded event or a
/// synthesized utilization counter sample (one per covered window, plus
/// a closing zero after each run so Perfetto doesn't hold the last
/// value forever).
enum Entry<'a> {
    Rec(&'a TraceEvent),
    Util { track: &'a CounterTrack, value: f64 },
}

/// A timeline entry with what orders and places it.
struct Timed<'a> {
    ts_ps: u64,
    pid: usize,
    tid: usize,
    entry: Entry<'a>,
}

/// Render one sweep's point traces as a Chrome-trace JSON string.
/// `window_ps` is the counter-window width the traces were recorded
/// with; windowed tracks render as `util.<name>` counter series.
///
/// The text is written event by event into one buffer, and is byte for
/// byte what `serde_json::to_string` gives for the same events as a
/// `Value` tree (field order, `{:?}` floats, `null` for a non-finite
/// counter value, escaped names): the test module keeps that tree
/// renderer as the oracle.
pub fn render(sweep: &str, traces: &[PointTrace], window_ps: u64) -> String {
    // Timeline entries in push order, then a stable sort by timestamp —
    // ties keep push order, so the result is fully deterministic.
    let mut timeline: Vec<Timed> = Vec::with_capacity(
        traces
            .iter()
            .map(|t| t.events.len() + t.tracks.iter().map(|tr| tr.windows.len()).sum::<usize>())
            .sum(),
    );
    // Metadata events come first and carry no timestamp, so they are
    // written as they are met: `kind` names the process or the thread
    // `(pid, tid)` as `label`.
    let mut meta = String::new();
    let mut name_lane = |kind: &str, pid: usize, tid: usize, label: &str| {
        write!(
            meta,
            r#"{{"name":"{kind}","ph":"M","pid":{pid},"tid":{tid},"args":{{"name":"#
        )
        .expect("write to String");
        serde_json::write_str(&mut meta, label);
        meta.push_str("}},");
    };
    for trace in traces {
        let pid = trace.index;
        name_lane("process_name", pid, 0, &format!("{sweep} point {pid}"));
        // Tracks become threads, numbered by first appearance; counters
        // live on the reserved tid 0.
        let mut tracks: Vec<&'static str> = Vec::new();
        for ev in &trace.events {
            let tid = match ev {
                TraceEvent::Span { track, .. } | TraceEvent::Instant { track, .. } => {
                    match tracks.iter().position(|t| t == track) {
                        Some(i) => i + 1,
                        None => {
                            tracks.push(track);
                            tracks.len()
                        }
                    }
                }
                TraceEvent::Counter { .. } => 0,
            };
            timeline.push(Timed {
                ts_ps: ev.ts_ps(),
                pid,
                tid,
                entry: Entry::Rec(ev),
            });
        }
        for (i, track) in tracks.iter().enumerate() {
            name_lane("thread_name", pid, i + 1, track);
        }
        for tr in &trace.tracks {
            push_util_entries(&mut timeline, pid, tr, window_ps);
        }
    }

    timeline.sort_by_key(|t| t.ts_ps);

    // ~100 bytes per event; reserving once spares the doubling copies.
    let mut out = String::with_capacity(64 + meta.len() + timeline.len() * 112);
    out.push_str(r#"{"displayTimeUnit":"ms","traceEvents":["#);
    out.push_str(&meta);
    let mut util_name = String::from(UTIL_PREFIX);
    for t in &timeline {
        out.push_str(r#"{"name":"#);
        match t.entry {
            Entry::Rec(TraceEvent::Span {
                track,
                name,
                start_ps,
                end_ps,
                arg,
            }) => {
                serde_json::write_str(&mut out, name);
                out.push_str(r#","cat":"#);
                serde_json::write_str(&mut out, track);
                out.push_str(r#","ph":"X","ts":"#);
                write_us(&mut out, *start_ps);
                out.push_str(r#","dur":"#);
                write_us(&mut out, end_ps.saturating_sub(*start_ps));
                if let Some((k, v)) = arg {
                    out.push_str(r#","args":{"#);
                    serde_json::write_str(&mut out, k);
                    write!(out, ":{v}}}").expect("write to String");
                }
            }
            Entry::Rec(TraceEvent::Instant { track, name, at_ps }) => {
                serde_json::write_str(&mut out, name);
                out.push_str(r#","cat":"#);
                serde_json::write_str(&mut out, track);
                out.push_str(r#","ph":"i","s":"t","ts":"#);
                write_us(&mut out, *at_ps);
            }
            Entry::Rec(TraceEvent::Counter { name, at_ps, value }) => {
                serde_json::write_str(&mut out, name);
                out.push_str(r#","ph":"C","ts":"#);
                write_us(&mut out, *at_ps);
                out.push_str(r#","args":{"value":"#);
                serde_json::write_f64(&mut out, *value);
                out.push('}');
            }
            Entry::Util { track, value } => {
                // Blame tracks already carry their namespace; everything
                // else windowed renders under `util.`.
                if track.name.starts_with(BLAME_PREFIX) {
                    serde_json::write_str(&mut out, track.name);
                } else {
                    util_name.truncate(UTIL_PREFIX.len());
                    util_name.push_str(track.name);
                    serde_json::write_str(&mut out, &util_name);
                }
                out.push_str(r#","ph":"C","ts":"#);
                write_us(&mut out, t.ts_ps);
                out.push_str(r#","args":{"value":"#);
                serde_json::write_f64(&mut out, value);
                out.push_str(r#","kind":"#);
                serde_json::write_str(&mut out, track.kind.label());
                if let Some(b) = track.bound {
                    write!(out, r#","bound":{b}"#).expect("write to String");
                }
                out.push('}');
            }
        }
        write!(out, r#","pid":{},"tid":{}}},"#, t.pid, t.tid).expect("write to String");
    }
    if out.ends_with(',') {
        out.pop();
    }
    out.push_str("]}");
    out
}

/// Synthesize the counter events of one windowed track: one sample at
/// each covered window's start, and a closing zero one window after
/// each maximal run of consecutive covered windows (so gaps and the
/// tail render as idle instead of holding the last value).
fn push_util_entries<'a>(
    timeline: &mut Vec<Timed<'a>>,
    pid: usize,
    track: &'a CounterTrack,
    window_ps: u64,
) {
    let mut push = |idx: u64, value: f64| {
        timeline.push(Timed {
            ts_ps: idx * window_ps,
            pid,
            tid: 0,
            entry: Entry::Util { track, value },
        });
    };
    for i in 0..track.windows.len() {
        let idx = track.windows[i].0;
        push(idx, track.window_value(i, window_ps));
        let run_ends = match track.windows.get(i + 1) {
            Some(next) => next.0 > idx + 1,
            None => true,
        };
        if run_ends {
            push(idx + 1, 0.0);
        }
    }
}

/// Summary of a validated trace file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCheck {
    pub events: usize,
    pub spans: usize,
    pub instants: usize,
    pub counters: usize,
    /// `util.*` / `blame.*` windowed counter samples among `counters`.
    pub util_counters: usize,
}

/// Structurally validate a Chrome-trace JSON string: well-formed JSON,
/// required fields per event, nondecreasing timestamps, nonnegative
/// span durations, balanced `B`/`E` pairs per `(pid, tid)` lane, and —
/// for `util.*` windowed counter tracks — strictly increasing window
/// timestamps per `(pid, track)`, busy/ratio fractions within [0, 1],
/// and bounded level values never exceeding their declared bound.
/// Returns the first failure; [`check_all`] collects every failure.
pub fn check(text: &str) -> Result<TraceCheck, String> {
    check_all(text).map_err(|errors| errors.join("\n"))
}

/// Like [`check`], but keeps validating after a failure and returns
/// **every** problem found, so one run of the checker reports all of a
/// broken trace instead of only its first defect.
pub fn check_all(text: &str) -> Result<TraceCheck, Vec<String>> {
    let root: Value =
        serde_json::from_str(text).map_err(|e| vec![format!("not valid JSON: {e}")])?;
    let Some(events) = root.get("traceEvents").and_then(Value::as_array) else {
        return Err(vec!["missing traceEvents array".into()]);
    };
    let mut out = TraceCheck::default();
    let mut errors: Vec<String> = Vec::new();
    let mut last_ts = f64::NEG_INFINITY;
    // Open B-span names per (pid, tid) lane.
    let mut open: Vec<((u64, u64), Vec<String>)> = Vec::new();
    // Last sample timestamp per (pid, util-track name).
    let mut util_last: Vec<((u64, String), f64)> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let mut fail = |msg: String| errors.push(format!("event {i}: {msg}"));
        let Some(ph) = ev.get("ph").and_then(Value::as_str) else {
            fail("missing ph".into());
            continue;
        };
        let name = ev.get("name").and_then(Value::as_str);
        if name.is_none() {
            fail("missing name".into());
        }
        if ph == "M" {
            continue; // metadata carries no timestamp
        }
        out.events += 1;
        let Some(ts) = ev.get("ts").and_then(Value::as_f64) else {
            fail(format!("ph {ph} missing numeric ts"));
            continue;
        };
        if ts < last_ts {
            fail(format!("timestamp {ts} decreases (prev {last_ts})"));
        }
        last_ts = ts;
        let pid = ev.get("pid").and_then(Value::as_u64).unwrap_or(0);
        let tid = ev.get("tid").and_then(Value::as_u64).unwrap_or(0);
        match ph {
            "X" => {
                out.spans += 1;
                match ev.get("dur").and_then(Value::as_f64) {
                    Some(d) if d >= 0.0 => {}
                    Some(d) => fail(format!("negative span duration {d}")),
                    None => fail("X event missing dur".into()),
                }
            }
            "i" | "I" => out.instants += 1,
            "C" => {
                out.counters += 1;
                if ev.get("args").and_then(|a| a.as_object()).is_none() {
                    fail("C event missing args".into());
                    continue;
                }
                let name = name.unwrap_or_default();
                if name.starts_with(UTIL_PREFIX) || name.starts_with(BLAME_PREFIX) {
                    out.util_counters += 1;
                    check_util_sample(ev, i, pid, name, ts, &mut util_last, &mut errors);
                }
            }
            "B" => {
                out.spans += 1;
                let name = name.unwrap_or_default();
                let lane = (pid, tid);
                match open.iter_mut().find(|(l, _)| *l == lane) {
                    Some((_, stack)) => stack.push(name.to_string()),
                    None => open.push((lane, vec![name.to_string()])),
                }
            }
            "E" => {
                let lane = (pid, tid);
                let popped = open
                    .iter_mut()
                    .find(|(l, _)| *l == lane)
                    .and_then(|(_, stack)| stack.pop());
                if popped.is_none() {
                    fail(format!("E without matching B on lane {lane:?}"));
                }
            }
            other => fail(format!("unknown ph {other:?}")),
        }
    }
    for (lane, stack) in &open {
        if !stack.is_empty() {
            errors.push(format!(
                "unbalanced spans: {} B event(s) never closed on lane {lane:?}",
                stack.len()
            ));
        }
    }
    if errors.is_empty() {
        Ok(out)
    } else {
        Err(errors)
    }
}

/// Validate one `util.*` / `blame.*` windowed counter sample: strictly
/// increasing timestamps within its `(pid, track)` series, fraction
/// kinds within [0, 1], and bounded levels within their bound. `track`
/// is the full prefixed name as exported.
fn check_util_sample(
    ev: &Value,
    i: usize,
    pid: u64,
    track: &str,
    ts: f64,
    util_last: &mut Vec<((u64, String), f64)>,
    errors: &mut Vec<String>,
) {
    let mut fail = |msg: String| errors.push(format!("event {i}: {track}: {msg}"));
    let args = ev.get("args").expect("checked by caller");
    let Some(value) = args.get("value").and_then(Value::as_f64) else {
        fail("missing numeric value".into());
        return;
    };
    let key = (pid, track.to_string());
    match util_last.iter_mut().find(|(k, _)| *k == key) {
        Some((_, last)) => {
            if ts <= *last {
                fail(format!("window timestamp {ts} not after previous {last}"));
            }
            *last = ts;
        }
        None => util_last.push((key, ts)),
    }
    match args.get("kind").and_then(Value::as_str) {
        Some("busy") | Some("ratio") => {
            if !(0.0..=1.0).contains(&value) {
                fail(format!("fraction {value} outside [0, 1]"));
            }
        }
        Some("level") => {
            if value < 0.0 {
                fail(format!("negative level {value}"));
            }
            if let Some(bound) = args.get("bound").and_then(Value::as_u64) {
                if value > bound as f64 {
                    fail(format!("level {value} exceeds bound {bound}"));
                }
            }
        }
        _ => fail("missing or unknown kind".into()),
    }
}

/// The `Value`-tree renderer the streamed [`render`] replaced, kept as
/// the oracle of the differential tests.
#[cfg(test)]
pub(crate) mod tree {
    use super::{BLAME_PREFIX, UTIL_PREFIX};
    use crate::counters::CounterTrack;
    use crate::recorder::{PointTrace, TraceEvent};
    use serde::Value;

    fn us(ps: u64) -> Value {
        Value::F64(ps as f64 / 1e6)
    }

    fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// One entry of the render timeline: either a recorded event or a
    /// synthesized utilization counter sample (one per covered window, plus
    /// a closing zero after each run so Perfetto doesn't hold the last
    /// value forever).
    enum Entry<'a> {
        Rec(&'a TraceEvent),
        Util {
            name: &'static str,
            at_ps: u64,
            value: f64,
            kind: &'static str,
            bound: Option<u64>,
        },
    }

    impl Entry<'_> {
        fn ts_ps(&self) -> u64 {
            match self {
                Entry::Rec(ev) => ev.ts_ps(),
                Entry::Util { at_ps, .. } => *at_ps,
            }
        }
    }

    /// [`super::render`] as it was: one `Value` per event, then
    /// `serde_json::to_string` over the tree.
    pub(crate) fn render(sweep: &str, traces: &[PointTrace], window_ps: u64) -> String {
        let mut meta: Vec<Value> = Vec::new();
        // (pid, tid, entry) triples, then a stable sort by timestamp — ties
        // keep push order, so the result is fully deterministic.
        let mut timeline: Vec<(usize, usize, Entry)> = Vec::new();

        for trace in traces {
            let pid = trace.index;
            meta.push(obj(vec![
                ("name", Value::Str("process_name".into())),
                ("ph", Value::Str("M".into())),
                ("pid", Value::U64(pid as u64)),
                ("tid", Value::U64(0)),
                (
                    "args",
                    obj(vec![("name", Value::Str(format!("{sweep} point {pid}")))]),
                ),
            ]));
            // Tracks become threads, numbered by first appearance; counters
            // live on the reserved tid 0.
            fn tid_of(track: &'static str, tracks: &mut Vec<&'static str>) -> usize {
                match tracks.iter().position(|t| *t == track) {
                    Some(i) => i + 1,
                    None => {
                        tracks.push(track);
                        tracks.len()
                    }
                }
            }
            let mut tracks: Vec<&'static str> = Vec::new();
            for ev in &trace.events {
                let tid = match ev {
                    TraceEvent::Span { track, .. } | TraceEvent::Instant { track, .. } => {
                        tid_of(track, &mut tracks)
                    }
                    TraceEvent::Counter { .. } => 0,
                };
                timeline.push((pid, tid, Entry::Rec(ev)));
            }
            for (i, track) in tracks.iter().enumerate() {
                meta.push(obj(vec![
                    ("name", Value::Str("thread_name".into())),
                    ("ph", Value::Str("M".into())),
                    ("pid", Value::U64(pid as u64)),
                    ("tid", Value::U64(i as u64 + 1)),
                    ("args", obj(vec![("name", Value::Str((*track).into()))])),
                ]));
            }
            for tr in &trace.tracks {
                push_util_entries(&mut timeline, pid, tr, window_ps);
            }
        }

        timeline.sort_by_key(|(_, _, e)| e.ts_ps());

        let mut events = meta;
        events.reserve(timeline.len());
        for (pid, tid, entry) in timeline {
            let mut fields: Vec<(&str, Value)> = Vec::new();
            match entry {
                Entry::Rec(TraceEvent::Span {
                    track,
                    name,
                    start_ps,
                    end_ps,
                    arg,
                }) => {
                    fields.push(("name", Value::Str((*name).into())));
                    fields.push(("cat", Value::Str((*track).into())));
                    fields.push(("ph", Value::Str("X".into())));
                    fields.push(("ts", us(*start_ps)));
                    fields.push(("dur", us(end_ps.saturating_sub(*start_ps))));
                    if let Some((k, v)) = arg {
                        fields.push(("args", obj(vec![(k, Value::U64(*v))])));
                    }
                }
                Entry::Rec(TraceEvent::Instant { track, name, at_ps }) => {
                    fields.push(("name", Value::Str((*name).into())));
                    fields.push(("cat", Value::Str((*track).into())));
                    fields.push(("ph", Value::Str("i".into())));
                    fields.push(("s", Value::Str("t".into())));
                    fields.push(("ts", us(*at_ps)));
                }
                Entry::Rec(TraceEvent::Counter { name, at_ps, value }) => {
                    fields.push(("name", Value::Str((*name).into())));
                    fields.push(("ph", Value::Str("C".into())));
                    fields.push(("ts", us(*at_ps)));
                    fields.push(("args", obj(vec![("value", Value::F64(*value))])));
                }
                Entry::Util {
                    name,
                    at_ps,
                    value,
                    kind,
                    bound,
                } => {
                    // Blame tracks already carry their namespace; everything
                    // else windowed renders under `util.`.
                    let full = if name.starts_with(BLAME_PREFIX) {
                        name.to_string()
                    } else {
                        format!("{UTIL_PREFIX}{name}")
                    };
                    fields.push(("name", Value::Str(full)));
                    fields.push(("ph", Value::Str("C".into())));
                    fields.push(("ts", us(at_ps)));
                    let mut args = vec![
                        ("value", Value::F64(value)),
                        ("kind", Value::Str(kind.into())),
                    ];
                    if let Some(b) = bound {
                        args.push(("bound", Value::U64(b)));
                    }
                    fields.push(("args", obj(args)));
                }
            }
            fields.push(("pid", Value::U64(pid as u64)));
            fields.push(("tid", Value::U64(tid as u64)));
            events.push(obj(fields));
        }

        let root = obj(vec![
            ("displayTimeUnit", Value::Str("ms".into())),
            ("traceEvents", Value::Array(events)),
        ]);
        serde_json::to_string(&root).expect("trace serializes")
    }

    /// Synthesize the counter events of one windowed track: one sample at
    /// each covered window's start, and a closing zero one window after
    /// each maximal run of consecutive covered windows (so gaps and the
    /// tail render as idle instead of holding the last value).
    fn push_util_entries<'a>(
        timeline: &mut Vec<(usize, usize, Entry<'a>)>,
        pid: usize,
        tr: &CounterTrack,
        window_ps: u64,
    ) {
        let kind = tr.kind.label();
        for i in 0..tr.windows.len() {
            let idx = tr.windows[i].0;
            timeline.push((
                pid,
                0,
                Entry::Util {
                    name: tr.name,
                    at_ps: idx * window_ps,
                    value: tr.window_value(i, window_ps),
                    kind,
                    bound: tr.bound,
                },
            ));
            let run_ends = match tr.windows.get(i + 1) {
                Some(next) => next.0 > idx + 1,
                None => true,
            };
            if run_ends {
                timeline.push((
                    pid,
                    0,
                    Entry::Util {
                        name: tr.name,
                        at_ps: (idx + 1) * window_ps,
                        value: 0.0,
                        kind,
                        bound: tr.bound,
                    },
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::TraceRecorder;
    use thymesim_sim::Time;

    const W: u64 = 1_000_000; // 1 µs windows for the tests

    fn sample() -> Vec<PointTrace> {
        let mut r = TraceRecorder::with_window(0, 100, W);
        r.span("fabric", "read", Time::ns(10), Time::ns(30));
        r.instant("workload", "phase", Time::ns(5));
        r.counter("depth", Time::ns(20), 3.0);
        let mut r1 = TraceRecorder::with_window(1, 100, W);
        r1.span_arg("workload", "copy", Time::ZERO, Time::ns(50), "rep", 2);
        vec![r.finish(), r1.finish()]
    }

    fn sample_with_util() -> Vec<PointTrace> {
        let mut r = TraceRecorder::with_window(0, 100, W);
        r.span("fabric", "read", Time::ns(10), Time::ns(30));
        r.counter_bound("credit.occupancy", 8);
        // Half of window 0 at level 4; windows 2..4 fully busy.
        r.counter_level("credit.occupancy", Time::ZERO, Time::ps(W / 2), 4);
        r.counter_busy("net.link_busy", Time::ps(2 * W), Time::ps(4 * W));
        r.counter_ratio("mem.llc_miss_rate", Time::ps(W / 4), 1, 4);
        vec![r.finish()]
    }

    #[test]
    fn rendered_trace_passes_the_checker() {
        let text = render("test/sweep", &sample(), W);
        let c = check(&text).expect("valid trace");
        assert_eq!(c.spans, 2);
        assert_eq!(c.instants, 1);
        assert_eq!(c.counters, 1);
        assert_eq!(c.events, 4);
        assert_eq!(c.util_counters, 0);
    }

    #[test]
    fn render_is_deterministic() {
        let a = render("test/sweep", &sample(), W);
        let b = render("test/sweep", &sample(), W);
        assert_eq!(a, b);
    }

    /// The streamed renderer writes exactly what the `Value`-tree
    /// renderer serializes to: on recorded MCBN points (one of them
    /// over its event cap) and on the events the simulator never
    /// emits — names that need escaping, a span argument, non-finite
    /// and negative-zero counter values, a bounded level track.
    #[test]
    fn streamed_render_matches_the_value_tree() {
        use crate::testkit::mini_mcbn;
        let mut traces = vec![
            mini_mcbn(TraceRecorder::with_window(0, 20_000, W), 1, 64),
            mini_mcbn(TraceRecorder::with_window(1, 700, W), 4, 64),
        ];
        assert!(traces[1].dropped > 0 && !traces[1].blame.is_empty());
        let mut r = TraceRecorder::with_window(7, 100, W);
        r.span(
            "a \"quoted\" track",
            "back\\slash\nnewline\u{1}",
            Time::ns(3),
            Time::ns(9),
        );
        r.span_arg(
            "workload",
            "copy",
            Time::ns(4),
            Time::ns(2),
            "re\tp",
            u64::MAX,
        );
        r.instant("a \"quoted\" track", "é", Time::ps(1));
        r.counter("nan", Time::ns(5), f64::NAN);
        r.counter("inf", Time::ns(5), f64::NEG_INFINITY);
        r.counter("tiny", Time::ns(5), -0.0);
        r.counter_bound("credit.occupancy", 8);
        r.counter_level("credit.occupancy", Time::ZERO, Time::ps(W / 3), 5);
        r.counter_level("credit.occupancy", Time::ps(5 * W), Time::ps(6 * W), 8);
        traces.push(r.finish());
        for sweep in ["contention/mcbn", "a \"sweep\""] {
            let text = render(sweep, &traces, W);
            assert!(text == tree::render(sweep, &traces, W), "{sweep}");
            check(&text).expect("valid trace");
        }
        assert_eq!(render("empty", &[], W), tree::render("empty", &[], W));
        let idle = vec![TraceRecorder::with_window(0, 10, W).finish()];
        assert_eq!(render("idle", &idle, W), tree::render("idle", &idle, W));
    }

    #[test]
    fn util_tracks_render_and_pass_the_checker() {
        let text = render("test/sweep", &sample_with_util(), W);
        let c = check(&text).expect("valid trace with util tracks");
        // credit.occupancy: window 0 + closing zero; net.link_busy:
        // windows 2,3 + closing zero; mem.llc_miss_rate: window 0 +
        // closing zero.
        assert_eq!(c.util_counters, 7);
        assert!(text.contains("util.credit.occupancy"));
        assert!(text.contains("util.net.link_busy"));
        assert!(text.contains("util.mem.llc_miss_rate"));
        assert!(text.contains(r#""kind":"level""#));
        assert!(text.contains(r#""bound":8"#));
    }

    #[test]
    fn blame_tracks_render_unprefixed_and_pass_the_checker() {
        let mut r = TraceRecorder::with_window(0, 100, W);
        r.source_begin("inst", 0);
        r.blame_occupy("gate", Time::ZERO, Time::ps(W));
        r.source_begin("inst", 1);
        r.blame_wait("gate", Time::ZERO, Time::ps(W / 2));
        let traces = vec![r.finish()];
        let text = render("test/sweep", &traces, W);
        assert!(text.contains(r#""name":"blame.gate""#));
        assert!(!text.contains("util.blame."));
        let c = check(&text).expect("valid trace with blame tracks");
        assert!(c.util_counters >= 1, "blame samples count as windowed");
        // Broken blame samples fail like util samples do.
        let bad = r#"{"traceEvents": [
            {"name":"blame.gate","ph":"C","ts":0.0,"pid":0,"tid":0,
             "args":{"value":1.5,"kind":"ratio"}}
        ]}"#;
        let err = check(bad).unwrap_err();
        assert!(err.contains("blame.gate"), "{err}");
        assert!(err.contains("outside [0, 1]"), "{err}");
    }

    #[test]
    fn events_are_sorted_by_timestamp() {
        let text = render("test/sweep", &sample(), W);
        // The instant at 5 ns must precede the span starting at 0 ns? No:
        // sorting is global over ts, so 0 ns (point 1 span) comes first.
        let root: Value = serde_json::from_str(&text).unwrap();
        let ts: Vec<f64> = root
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) != Some("M"))
            .map(|e| e.get("ts").unwrap().as_f64().unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "ts not sorted: {ts:?}");
    }

    #[test]
    fn checker_rejects_broken_traces() {
        assert!(check("{ not json").is_err());
        assert!(check(r#"{"traceEvents": 3}"#).is_err());
        // Decreasing timestamps.
        let bad = r#"{"traceEvents": [
            {"name":"a","ph":"i","s":"t","ts":5.0,"pid":0,"tid":1},
            {"name":"b","ph":"i","s":"t","ts":1.0,"pid":0,"tid":1}
        ]}"#;
        assert!(check(bad).unwrap_err().contains("decreases"));
        // Unbalanced B/E.
        let bad = r#"{"traceEvents": [
            {"name":"a","ph":"B","ts":1.0,"pid":0,"tid":1}
        ]}"#;
        assert!(check(bad).unwrap_err().contains("unbalanced"));
        // E without B.
        let bad = r#"{"traceEvents": [
            {"name":"a","ph":"E","ts":1.0,"pid":0,"tid":1}
        ]}"#;
        assert!(check(bad).unwrap_err().contains("without matching B"));
        // Missing dur.
        let bad = r#"{"traceEvents": [
            {"name":"a","ph":"X","ts":1.0,"pid":0,"tid":1}
        ]}"#;
        assert!(check(bad).unwrap_err().contains("missing dur"));
    }

    #[test]
    fn checker_rejects_bad_util_tracks() {
        // Busy fraction above 1.
        let bad = r#"{"traceEvents": [
            {"name":"util.net.link_busy","ph":"C","ts":0.0,"pid":0,"tid":0,
             "args":{"value":1.5,"kind":"busy"}}
        ]}"#;
        assert!(check(bad).unwrap_err().contains("outside [0, 1]"));
        // Level exceeding its declared bound (credit occupancy > credits).
        let bad = r#"{"traceEvents": [
            {"name":"util.credit.occupancy","ph":"C","ts":0.0,"pid":0,"tid":0,
             "args":{"value":9.0,"kind":"level","bound":8}}
        ]}"#;
        assert!(check(bad).unwrap_err().contains("exceeds bound 8"));
        // Repeated window timestamp within one (pid, track) series.
        let bad = r#"{"traceEvents": [
            {"name":"util.net.link_busy","ph":"C","ts":1.0,"pid":0,"tid":0,
             "args":{"value":0.5,"kind":"busy"}},
            {"name":"util.net.link_busy","ph":"C","ts":1.0,"pid":0,"tid":0,
             "args":{"value":0.6,"kind":"busy"}}
        ]}"#;
        assert!(check(bad).unwrap_err().contains("not after previous"));
        // Same timestamp on a *different* pid is fine.
        let ok = r#"{"traceEvents": [
            {"name":"util.net.link_busy","ph":"C","ts":1.0,"pid":0,"tid":0,
             "args":{"value":0.5,"kind":"busy"}},
            {"name":"util.net.link_busy","ph":"C","ts":1.0,"pid":1,"tid":0,
             "args":{"value":0.6,"kind":"busy"}}
        ]}"#;
        assert!(check(ok).is_ok());
    }

    #[test]
    fn check_all_reports_every_failure() {
        let bad = r#"{"traceEvents": [
            {"name":"util.net.link_busy","ph":"C","ts":5.0,"pid":0,"tid":0,
             "args":{"value":2.0,"kind":"busy"}},
            {"name":"a","ph":"i","s":"t","ts":1.0,"pid":0,"tid":1},
            {"name":"b","ph":"X","ts":1.0,"pid":0,"tid":1},
            {"name":"c","ph":"E","ts":1.0,"pid":0,"tid":1}
        ]}"#;
        let errors = check_all(bad).unwrap_err();
        assert!(errors.len() >= 4, "expected all failures, got {errors:?}");
        let joined = errors.join("\n");
        assert!(joined.contains("outside [0, 1]"));
        assert!(joined.contains("decreases"));
        assert!(joined.contains("missing dur"));
        assert!(joined.contains("without matching B"));
    }
}
