//! Spans recorded by the benchmark's own code around each call into a layer.
//!
//! Nothing inside the program is instrumented: a span is opened before a
//! public function is called and closed when it returns. Spans stay in memory
//! and are written out when the workload ends. With tracing off every call
//! here is a branch and a return, and end-to-end numbers always come from
//! such a run.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    pub pass: u32,
    pub segment: u32,
}

/// Handle returned by [`Tracer::open`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

const OFF: SpanId = SpanId(u32::MAX);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    pass: u32,
    segment: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
            segment: 0,
        }
    }

    /// Turn recording on or off between passes (traced and untraced passes
    /// alternate in a traced run, which is how `trace.overhead` is measured).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    /// Label the spans opened from now on.
    pub fn at(&mut self, pass: usize, segment: usize) {
        self.pass = pass as u32;
        self.segment = segment as u32;
    }

    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return OFF;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            pass: self.pass,
            segment: self.segment,
        });
        self.stack.push(id);
        // Read the clock last, so the bookkeeping above is charged to the
        // parent and not to this span.
        self.spans[id as usize].start_ns = self.origin.elapsed().as_nanos() as u64;
        SpanId(id)
    }

    pub fn close(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let top = self.stack.pop().expect("close without an open span");
        assert_eq!(top, id.0, "spans must close innermost first");
        self.spans[top as usize].end_ns = now;
    }

    /// Record `f` as one leaf span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span-name `(count, total ns, self ns)`.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        self.tally(|_| true)
    }

    /// [`by_name`](Self::by_name) over the spans inside top-level spans
    /// named `root` (those included).
    pub fn by_name_under(&self, root: &str) -> BTreeMap<&'static str, (u64, u64, u64)> {
        // A parent is always recorded before its children.
        let mut top = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            top.push(s.parent.map_or(i, |p| top[p as usize]));
        }
        self.tally(|i| self.spans[top[i]].name == root)
    }

    fn tally(&self, keep: impl Fn(usize) -> bool) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, (span, own)) in self.spans.iter().zip(selfs).enumerate() {
            if !keep(i) {
                continue;
            }
            let e = out.entry(span.name).or_default();
            e.0 += 1;
            e.1 += span.end_ns - span.start_ns;
            e.2 += own;
        }
        out
    }

    pub fn to_json(&self) -> Json {
        let selfs = self_times(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .zip(selfs)
                .map(|(s, own)| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("pass", Json::Num(s.pass as f64)),
                        ("segment", Json::Num(s.segment as f64)),
                        ("self_ns", Json::Num(own as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                let hi = hi.min(s.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            pass: 0,
            segment: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            span("pass", 0, 100, None),
            span("a", 10, 40, Some(0)),       // sibling 1
            span("b", 50, 90, Some(0)),       // sibling 2
            span("b.inner", 60, 70, Some(2)), // nested in b: not pass's child
            span("b.inner2", 70, 85, Some(2)),
        ];
        // pass: 100 − (30 + 40); a: 30; b: 40 − (10 + 15); leaves keep all.
        assert_eq!(self_times(&spans), vec![30, 30, 15, 10, 15]);
        // Self times of a tree add up to its root.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        let spans = [
            span("root", 100, 200, None),
            span("x", 110, 150, Some(0)),
            span("y", 140, 170, Some(0)), // overlaps x by 10
            span("z", 190, 230, Some(0)), // runs past the parent: clipped at 200
        ];
        // covered = [110,170) ∪ [190,200) = 60 + 10
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_records_parents_and_is_inert_when_off() {
        let mut t = Tracer::new(true);
        t.at(3, 1);
        let outer = t.open("outer");
        t.span("inner", || ());
        t.close(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(
            (s[0].name, s[0].parent, s[0].pass, s[0].segment),
            ("outer", None, 3, 1)
        );
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let by = t.by_name();
        assert_eq!(by["outer"].0, 1);
        assert_eq!(by["outer"].1, by["outer"].2 + by["inner"].1);
        t.span("inner", || ()); // a second one, at top level
        assert_eq!(t.by_name()["inner"].0, 2);
        assert_eq!(t.by_name_under("outer")["inner"].0, 1);
        assert!(!t.by_name_under("inner").contains_key("outer"));

        let mut off = Tracer::new(false);
        let id = off.open("nothing");
        off.close(id);
        assert!(off.spans().is_empty());
    }
}
