//! Host-time spans recorded by the benchmark around its calls into the
//! simulator (never inside it). Kept in memory; the parent writes them
//! out as a Chrome trace when the run ends.

use std::time::Instant;

/// One closed interval of host time. `parent` indexes the recorder's
/// span list; a span's self time is its duration minus its children's.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// How much work the span covered (points, ops, constructions).
    pub work: u64,
}

/// Span recorder. Switched off it still times scopes (the end-to-end
/// runs need the wall times) but keeps nothing.
pub struct Spans {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` as a child of the innermost open span. `f` returns its
    /// value and its work count; `scope` returns the value and the
    /// seconds `f` took.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> (T, u64)) -> (T, f64) {
        let id = self.on.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
                work: 0,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let start = self.origin.elapsed();
        let (value, work) = f(self);
        let end = self.origin.elapsed();
        if let Some(id) = id {
            self.open.pop();
            let span = &mut self.spans[id];
            span.start_ns = start.as_nanos() as u64;
            span.end_ns = end.as_nanos() as u64;
            span.work = work;
        }
        (value, (end - start).as_secs_f64())
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, in nanoseconds (signed, so that a recorder
/// bug shows as a negative number instead of wrapping).
pub fn self_times_ns(spans: &[Span]) -> Vec<i64> {
    let mut own: Vec<i64> = spans
        .iter()
        .map(|s| s.end_ns as i64 - s.start_ns as i64)
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_ns as i64 - s.start_ns as i64;
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_times() {
        let mut spans = Spans::new(true);
        spans.scope("outer", |s| {
            s.scope("a", |_| ((), 3));
            s.scope("b", |s| {
                s.scope("c", |_| ((), 1));
                ((), 2)
            });
            ((), 1)
        });
        let spans = spans.into_spans();
        let names: Vec<_> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["outer", "a", "b", "c"]);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[1].work, 3);
        assert!(self_times_ns(&spans).iter().all(|&t| t >= 0));
    }

    #[test]
    fn switched_off_times_but_keeps_nothing() {
        let mut spans = Spans::new(false);
        let (v, secs) = spans.scope("x", |_| (7, 1));
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(spans.into_spans().is_empty());
    }
}
