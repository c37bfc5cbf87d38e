//! In-memory spans for the traced run.
//!
//! A span is a named interval recorded by the benchmark around a call
//! into one layer, with the span that caused it and the id of the unit
//! of work (arrival, batch, replay or job) that spans of one unit share.
//! Spans stay in memory and are written out once, when the run ends.
//! A span's *self* time is its duration minus the part of it that its
//! child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<SpanId>,
    unit: u64,
}

/// The span log of one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, unit: u64) -> SpanId {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            unit,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = Instant::now();
    }

    /// Record a span whose interval was measured elsewhere (e.g. on a
    /// worker thread).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        unit: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            unit,
        });
        self.spans.len() - 1
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        unit: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, unit);
        let out = f();
        self.close(id);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total self time (ns) and span count per span name. Children of
    /// one parent never overlap in this benchmark except for the job
    /// spans of the two sweep threads, whose covered part is the union
    /// of their intervals.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut intervals: Vec<(Instant, Instant)> = children[i]
                .iter()
                .map(|&c| (self.spans[c].start, self.spans[c].end))
                .collect();
            intervals.sort();
            let mut covered = 0.0;
            let mut cursor = s.start;
            for (a, b) in intervals {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += (b - a).as_nanos() as f64;
                    cursor = b;
                }
            }
            let total = (s.end - s.start).as_nanos() as f64;
            let entry = out.entry(s.name).or_insert((0.0, 0));
            entry.0 += (total - covered).max(0.0);
            entry.1 += 1;
        }
        out
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_nanos() as u64)
            .collect()
    }

    /// Write every span as one JSON line: name, start and end in ns
    /// since the run began, parent index and unit id.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"unit\":{}}}",
                s.name,
                (s.start - self.epoch).as_nanos(),
                (s.end - self.epoch).as_nanos(),
                s.unit
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let mut tr = Tracer::new();
        let root = tr.record("root", ms(0), ms(10), None, 0);
        tr.record("child", ms(2), ms(5), Some(root), 0);
        tr.record("child", ms(4), ms(7), Some(root), 0);
        let st = tr.self_times();
        assert_eq!(st["root"].0, 5e6);
        assert_eq!(st["child"].0, 6e6);
        assert_eq!(st["child"].1, 2);
    }
}
