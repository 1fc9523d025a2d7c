//! The benchmark's span recorder: named, nested wall-clock spans with a
//! per-span resident-set high-water mark, kept in memory and written out
//! when the run ends.
//!
//! Spans are taken around calls into the library's public API, so they
//! measure each layer from outside. A disabled recorder runs the closure and
//! nothing else: untraced runs pay one branch per span.

use crate::procfs;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.build`.
    pub name: &'static str,
    /// Start, in seconds since the recorder was created.
    pub start: f64,
    /// End, in seconds since the recorder was created.
    pub end: f64,
    /// Index (into [`Recorder::spans`]) of the enclosing span.
    pub parent: Option<usize>,
    /// Peak resident set while the span was open, in MiB; `None` when the
    /// high-water mark could not be reset or read.
    pub peak_mb: Option<f64>,
}

impl Span {
    /// Wall-clock duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// An open span: where it will be stored and the highest `VmHWM` seen so
/// far inside it (folded in before each child resets the mark).
struct Frame {
    index: usize,
    peak_mb: Option<f64>,
}

/// Span sink of one run.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<Frame>,
    bookkeeping: Duration,
}

impl Recorder {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            bookkeeping: Duration::ZERO,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `work` inside a span named `name`. The resident-set high-water
    /// mark is reset when the span opens, so its peak is the span's own.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return work(self);
        }
        let entered = Instant::now();
        if let Some(frame) = self.open.last_mut() {
            frame.peak_mb = max_mb(frame.peak_mb, procfs::peak_rss_mb());
        }
        let reset = procfs::reset_peak_rss();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: 0.0,
            end: 0.0,
            parent: self.open.last().map(|frame| frame.index),
            peak_mb: None,
        });
        self.open.push(Frame {
            index,
            peak_mb: if reset { Some(0.0) } else { None },
        });
        let started = Instant::now();
        self.bookkeeping += started - entered;
        self.spans[index].start = self.seconds(started);

        let value = work(self);

        let ended = Instant::now();
        let frame = self.open.pop().expect("span stack is balanced");
        let peak = frame
            .peak_mb
            .and_then(|seen| max_mb(Some(seen), procfs::peak_rss_mb()));
        if let Some(parent) = self.open.last_mut() {
            parent.peak_mb = max_mb(parent.peak_mb, peak);
        }
        let span = &mut self.spans[index];
        span.end = ended.duration_since(self.origin).as_secs_f64();
        span.peak_mb = peak;
        self.bookkeeping += ended.elapsed();
        value
    }

    fn seconds(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_secs_f64()
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans named `name`, in opening order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |span| span.name == name)
    }

    /// Total duration of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(Span::duration).sum()
    }

    /// Highest peak of the spans named `name`, in MiB (0 when none).
    pub fn peak_mb(&self, name: &str) -> f64 {
        self.named(name)
            .filter_map(|span| span.peak_mb)
            .fold(0.0, f64::max)
    }

    /// Wall time the recorder itself spent on `/proc` reads, resets and
    /// bookkeeping, in seconds: the tracing overhead.
    pub fn bookkeeping_s(&self) -> f64 {
        self.bookkeeping.as_secs_f64()
    }

    /// Self time of span `index`: its duration minus the part of it that
    /// its direct children cover.
    pub fn self_time(&self, index: usize) -> f64 {
        self_time(&self.spans, index)
    }

    /// Renders every span as one JSON object per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let peak = span
                .peak_mb
                .map_or("null".to_string(), |mb| format!("{mb:.3}"));
            out.push_str(&format!(
                "{{\"span\":{index},\"name\":\"{}\",\"parent\":{parent},\"start_s\":{:.6},\"end_s\":{:.6},\"self_s\":{:.6},\"peak_mb\":{peak}}}\n",
                span.name,
                span.start,
                span.end,
                self.self_time(index),
            ));
        }
        out
    }
}

fn max_mb(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    Some(a?.max(b?))
}

/// Self time of `spans[index]`: its duration minus the union of the
/// intervals its direct children cover (clipped to the span, so children
/// that overlap each other are not subtracted twice).
pub fn self_time(spans: &[Span], index: usize) -> f64 {
    let Some(span) = spans.get(index) else {
        return 0.0;
    };
    let mut children: Vec<(f64, f64)> = spans
        .iter()
        .filter(|child| child.parent == Some(index))
        .map(|child| (child.start.max(span.start), child.end.min(span.end)))
        .filter(|(start, end)| end > start)
        .collect();
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = span.start;
    for (start, end) in children {
        let from = start.max(reach);
        if end > from {
            covered += end - from;
            reach = end;
        }
    }
    span.duration() - covered
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
            peak_mb: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span("run", 0.0, 10.0, None),
            span("a", 1.0, 3.0, Some(0)),
            span("a.inner", 1.5, 2.5, Some(1)),
            span("b", 2.0, 4.0, Some(0)),  // overlaps a: union [1, 4]
            span("c", 9.0, 12.0, Some(0)), // clipped to [9, 10]
            span("other", 5.0, 6.0, None),
        ];
        assert!((self_time(&spans, 0) - 6.0).abs() < 1e-12);
        assert!((self_time(&spans, 1) - 1.0).abs() < 1e-12);
        assert!((self_time(&spans, 2) - 1.0).abs() < 1e-12);
        assert!((self_time(&spans, 5) - 1.0).abs() < 1e-12);
        assert_eq!(self_time(&spans, 99), 0.0);
    }

    #[test]
    fn recorder_nests_spans_and_tracks_peaks() {
        let mut recorder = Recorder::new(true);
        let value = recorder.span("outer", |rec| {
            let block = rec.span("inner", |_| {
                let block = vec![7u8; 48 << 20];
                std::hint::black_box(&block);
                block.len()
            });
            block + 1
        });
        assert_eq!(value, (48 << 20) + 1);
        let spans = recorder.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let inner = spans[1].peak_mb.expect("clear_refs works");
        let outer = spans[0].peak_mb.expect("clear_refs works");
        assert!(inner >= 48.0, "inner peak {inner} MiB");
        assert!(outer >= inner, "a parent's peak covers its children");
        assert!(recorder.self_time(0) >= 0.0);
        assert_eq!(recorder.render().lines().count(), 2);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut recorder = Recorder::new(false);
        assert_eq!(recorder.span("x", |rec| rec.span("y", |_| 3)), 3);
        assert!(recorder.spans().is_empty());
        assert_eq!(recorder.bookkeeping_s(), 0.0);
    }
}
