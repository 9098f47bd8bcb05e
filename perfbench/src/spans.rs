//! In-memory spans recorded around calls into each layer.
//!
//! Only the traced run records spans. They stay in memory and are written
//! out once the run ends, so the write never lands inside a timed interval.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span within its [`Spans`] recorder.
pub type SpanId = usize;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `detector.select`.
    pub name: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created (`0` while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Identifier shared by every span of one benchmark operation.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A thread-safe span recorder.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Opens a span and returns its id.
    pub fn begin(&self, name: &str, parent: Option<SpanId>, op: u64) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: 0,
            parent,
            op,
        });
        spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span; returns its result and the span's duration
    /// in nanoseconds.
    pub fn time<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.begin(name, parent, op);
        let out = f();
        let end_ns = self.now_ns();
        let mut spans = self.lock();
        spans[id].end_ns = end_ns;
        (out, spans[id].dur_ns())
    }

    /// A copy of every span recorded so far, indexed by [`SpanId`].
    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Writes every span as JSON, preceded by `provenance` (a JSON object).
    pub fn write_json(&self, path: &std::path::Path, provenance: &str) -> std::io::Result<()> {
        let spans = self.snapshot();
        let mut out = format!("{{\"provenance\":{provenance},\"spans\":[\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 < spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.op
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Children of every span, indexed by parent id.
pub fn children(spans: &[Span]) -> Vec<Vec<SpanId>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for (id, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids[p].push(id);
        }
    }
    kids
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    covered + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of span `id`: its duration minus the part of its interval
/// that its child spans cover.
pub fn self_ns(spans: &[Span], kids: &[Vec<SpanId>], id: SpanId) -> u64 {
    let s = &spans[id];
    let covered = union_ns(
        kids[id]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_ns.max(s.start_ns),
                    spans[c].end_ns.min(s.end_ns),
                )
            })
            .filter(|(a, b)| a < b)
            .collect(),
    );
    s.dur_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "x".into(),
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_ns(vec![(20, 30), (0, 10), (10, 12)]), 22);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100 with overlapping children 10..40 and 30..50 and a
        // grandchild that must not count twice.
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 50, Some(0)),
            span(12, 20, Some(1)),
        ];
        let kids = children(&spans);
        assert_eq!(self_ns(&spans, &kids, 0), 60);
        assert_eq!(self_ns(&spans, &kids, 1), 22);
        assert_eq!(self_ns(&spans, &kids, 3), 8);
    }

    #[test]
    fn recorder_links_parents() {
        let rec = Spans::new();
        let op = rec.begin("op", None, 7);
        let ((), child_ns) = rec.time("child", Some(op), 7, || ());
        rec.end(op);
        let spans = rec.snapshot();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].dur_ns(), child_ns);
        let kids = children(&spans);
        assert_eq!(self_ns(&spans, &kids, 0) + child_ns, spans[0].dur_ns());
    }
}
