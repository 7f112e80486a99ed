//! Spans recorded from outside the program, around the benchmark's calls
//! into each layer: name, start, end, parent, and the id of the result the
//! span belongs to. Spans stay in memory and are written out when the run
//! ends; a layer's self time is its span's duration minus its children's.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub result: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span recorder. A recorder that is off records nothing, so
/// one code path serves the traced and the untraced pass.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            on: true,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new(Instant::now())
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, result: u64) -> usize {
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            result,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span (or just runs it, when off).
    pub fn span<R>(&mut self, name: &'static str, result: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = self.enter(name, result);
        let r = f();
        self.exit(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per (result, span name), in milliseconds.
    pub fn self_ms_by_result(&self) -> BTreeMap<(u64, &'static str), f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*c);
            *out.entry((s.result, s.name)).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"result\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.result, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.enter("root", 7);
        t.span("child", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit(root);
        t.span("other", 8, || ());
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, None);
        let own = t.self_ms_by_result();
        let root_total = (t.spans()[0].end_ns - t.spans()[0].start_ns) as f64 / 1e6;
        assert!(own[&(7, "child")] >= 5.0);
        assert!((own[&(7, "root")] + own[&(7, "child")] - root_total).abs() < 1e-9);
    }
}
