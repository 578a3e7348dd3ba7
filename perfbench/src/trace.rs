//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in memory while the workload runs and are written out as
//! JSON lines when the run ends. A span's self time is its duration
//! minus the part its child spans cover; per-layer metrics are medians
//! over iterations of the per-iteration self time of the layer's spans.

use lmds_serve::json::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call.
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    /// The workload iteration the span belongs to.
    pub iter: usize,
    pub start: Duration,
    pub end: Duration,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    iter: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), iter: 0 }
    }

    /// Tags the spans that follow with a fresh iteration number, so
    /// medians are taken over iterations of one workload pass.
    pub fn next_iter(&mut self) {
        self.iter += 1;
    }

    /// Times `f` as a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            iter: self.iter,
            start,
            end: start,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    /// Adds a span timed elsewhere (a client thread) as a child of the
    /// innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            iter: self.iter,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
    }

    fn child_time(&self) -> Vec<Duration> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end.saturating_sub(s.start);
            }
        }
        covered
    }

    /// Per iteration, the summed self time (ms) of the spans named
    /// `name`; iterations without such a span are absent.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let covered = self.child_time();
        let mut per_iter: BTreeMap<usize, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                let own = s.end.saturating_sub(s.start).saturating_sub(covered[i]);
                *per_iter.entry(s.iter).or_default() += own.as_secs_f64() * 1e3;
            }
        }
        per_iter.into_values().collect()
    }

    /// Per iteration, the longest single span (ms) named `name`.
    pub fn max_ms(&self, name: &str) -> Vec<f64> {
        let mut per_iter: BTreeMap<usize, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            let d = s.end.saturating_sub(s.start).as_secs_f64() * 1e3;
            let slot = per_iter.entry(s.iter).or_default();
            *slot = slot.max(d);
        }
        per_iter.into_values().collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let covered = self.child_time();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let us = |d: Duration| Value::from(d.as_secs_f64() * 1e6);
            let mut doc = BTreeMap::new();
            doc.insert("id".to_string(), Value::from(i));
            doc.insert("name".to_string(), Value::from(s.name.as_str()));
            doc.insert("parent".to_string(), s.parent.map_or(Value::Null, Value::from));
            doc.insert("iter".to_string(), Value::from(s.iter));
            doc.insert("start_us".to_string(), us(s.start));
            doc.insert("end_us".to_string(), us(s.end));
            doc.insert(
                "self_us".to_string(),
                us(s.end.saturating_sub(s.start).saturating_sub(covered[i])),
            );
            writeln!(out, "{}", Value::Obj(doc).render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(20)));
        });
        let outer = t.self_ms("outer")[0];
        let inner = t.self_ms("inner")[0];
        assert!(inner >= 20.0, "{inner}");
        assert!(outer < inner, "outer self {outer} must exclude the child {inner}");
    }
}
