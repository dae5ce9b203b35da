//! In-memory spans recorded around the benchmark's calls into the
//! library. Tracing lives in the benchmark only: every span wraps one
//! public call, so the library itself runs unmodified.

use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, `<layer>.<operation>` (see `crate::workload`).
    pub name: &'static str,
    /// Seconds since the tracer started.
    pub start: f64,
    /// Seconds since the tracer started.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The job the span belongs to; `None` during set-up.
    pub job: Option<usize>,
}

impl Span {
    /// Wall time of the span.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans when enabled; a disabled tracer only calls
/// through, without reading the clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: Option<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: None,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans opened from now on with `job`.
    pub fn set_job(&mut self, job: Option<usize>) {
        self.job = job;
    }

    /// Runs `f` inside a span called `name`; `f` may open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Ends every span still open, as of now: used after a panic unwound
    /// through them.
    pub fn close_open_spans(&mut self) {
        let now = self.epoch.elapsed().as_secs_f64();
        for id in self.open.drain(..) {
            self.spans[id].end = now;
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_within(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

fn children(spans: &[Span]) -> Vec<Vec<(f64, f64)>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p].push((s.start, s.end));
        }
    }
    kids
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    children(spans)
        .into_iter()
        .zip(spans)
        .map(|(kids, s)| s.duration() - union_within(kids, s.start, s.end))
        .collect()
}

/// Share of each span's wall time that its direct children cover
/// (`1.0` for a span of zero length).
pub fn child_coverage(spans: &[Span]) -> Vec<f64> {
    children(spans)
        .into_iter()
        .zip(spans)
        .map(|(kids, s)| {
            let d = s.duration();
            if d > 0.0 {
                union_within(kids, s.start, s.end) / d
            } else {
                1.0
            }
        })
        .collect()
}

/// The spans as a JSON array, for writing out at exit.
pub fn to_json(spans: &[Span]) -> String {
    let opt = |v: Option<usize>| v.map_or("null".to_owned(), |v| v.to_string());
    let rows: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {}, \"job\": {}}}",
                s.name,
                s.start,
                s.end,
                opt(s.parent),
                opt(s.job)
            )
        })
        .collect();
    format!("[\n{}\n]", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            job: Some(0),
        }
    }

    #[test]
    fn self_time_of_nested_spans() {
        let spans = [
            span("job", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("a.inner", 2.0, 3.0, Some(1)),
            span("b", 5.0, 9.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![3.0, 2.0, 1.0, 4.0]);
        assert_eq!(child_coverage(&spans)[0], 0.7);
    }

    #[test]
    fn overlapping_or_overhanging_children_count_once() {
        let spans = [
            span("job", 0.0, 10.0, None),
            span("a", 1.0, 6.0, Some(0)),
            span("b", 4.0, 8.0, Some(0)),
            span("c", 9.0, 12.0, Some(0)),
        ];
        // Covered: [1, 8] and [9, 10].
        assert_eq!(self_times(&spans)[0], 2.0);
    }

    #[test]
    fn tracer_nests_and_tags_spans() {
        let mut tr = Tracer::new(true);
        tr.set_job(Some(3));
        let v = tr.span("job", |tr| tr.span("lint", |_| 7));
        assert_eq!(v, 7);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(
            (s[1].name, s[1].parent, s[1].job),
            ("lint", Some(0), Some(3))
        );
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        let st = self_times(s);
        assert!(st.iter().all(|&t| t >= 0.0));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("job", |_| 1), 1);
        assert!(off.spans().is_empty());
    }
}
