//! The harness's own span recorder. Spans are recorded *outside* the
//! program under test, around calls into its public functions; they stay in
//! memory and are written out as JSON lines when the workload ends.
//!
//! One line per span: `{"id", "parent", "stmt", "name", "start_ns",
//! "end_ns", "attrs"}`. `parent` is 0 for a root; spans of one statement
//! share `stmt`. A span's self time is its duration minus its children's.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    /// Statement id shared by every span of one statement.
    pub stmt: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(&'static str, String)>,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRec>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { epoch: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, parent: u64, stmt: u64, name: &'static str) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            id,
            parent,
            stmt,
            name,
            start_ns,
            end_ns: start_ns,
            attrs: Vec::new(),
        });
        id
    }

    pub fn close(&mut self, id: u64) {
        let now = self.now_ns();
        self.spans[id as usize - 1].end_ns = now;
    }

    pub fn attr(&mut self, id: u64, key: &'static str, value: impl ToString) {
        self.spans[id as usize - 1].attrs.push((key, value.to_string()));
    }

    /// Records a span that ended just now and lasted `micros`.
    pub fn closed(&mut self, parent: u64, stmt: u64, name: &'static str, micros: f64) -> u64 {
        let id = self.open(parent, stmt, name);
        let span = &mut self.spans[id as usize - 1];
        span.start_ns = span.end_ns.saturating_sub((micros * 1e3) as u64);
        id
    }

    /// Records a span between two clock readings taken where the recorder
    /// was out of reach.
    pub fn interval(
        &mut self,
        parent: u64,
        stmt: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.open(parent, stmt, name);
        let span = &mut self.spans[id as usize - 1];
        span.start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        span.end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        id
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        parent: u64,
        stmt: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(parent, stmt, name);
        let out = std::hint::black_box(f());
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Per span name: how many spans and their total *self* time in µs.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_insert(0) += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(*child_ns.get(&s.id).unwrap_or(&0));
            let slot = out.entry(s.name).or_insert((0, 0.0));
            slot.0 += 1;
            slot.1 += own as f64 / 1e3;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let mut attrs = String::new();
            for (i, (k, v)) in s.attrs.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(attrs, "{sep}\"{k}\": \"{}\"", escape(v));
            }
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"stmt\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"attrs\": {{{attrs}}}}}",
                s.id, s.parent, s.stmt, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Escapes a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
