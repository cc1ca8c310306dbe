//! In-memory span recorder for the traced run.
//!
//! A span is one call from the benchmark into a layer's public API: name,
//! start and end (ns since the recorder was created), the span that
//! enclosed it, and the run id. Spans stay in memory while the run
//! measures and are written as JSON lines when it ends. A disabled
//! recorder (the untraced run) records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Span recorder; see the module docs.
pub struct Spans {
    enabled: bool,
    run_id: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool, run_id: String) -> Self {
        Spans {
            enabled,
            run_id,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f();
        self.spans[id].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Opens a span that encloses the spans recorded until
    /// [`Spans::close`]; used where the enclosed work itself records spans.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Some(id)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Per span name: (count, total ns, self ns). Self time is a span's
    /// duration minus the time its direct children cover; children of one
    /// span never overlap here, since the benchmark records them from one
    /// thread in sequence.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let total = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new(true, "t".into());
        let outer = spans.open("outer");
        spans.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        spans.close(outer);
        let times = spans.self_times();
        let (n, total, own) = times["outer"];
        assert_eq!(n, 1);
        assert!(own < total, "outer self time must exclude the child");
        assert_eq!(total - own, times["inner"].1);
        assert_eq!(spans.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false, "t".into());
        let id = spans.open("a");
        assert_eq!(spans.time("b", || 7), 7);
        spans.close(id);
        assert!(spans.spans.is_empty());
    }
}
