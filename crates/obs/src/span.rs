//! Hierarchical tracing spans over the logical clock.

use std::fmt::Display;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::LogicalClock;

/// One completed (or still open) span as stored by the [`Tracer`].
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Tracer-local id; records are stored in id order.
    pub id: u64,
    /// Parent span id, or `None` for a root.
    pub parent: Option<u64>,
    /// Span name, e.g. `parse` or `task:t1`.
    pub name: String,
    /// Logical tick at which the span opened.
    pub start: u64,
    /// Logical tick at which the span closed (0 while open).
    pub end: u64,
    /// Key/value annotations in insertion order.
    pub notes: Vec<(String, String)>,
}

struct TracerInner {
    clock: LogicalClock,
    spans: Mutex<Vec<SpanRecord>>,
}

/// Collects the spans of one statement. Cheap to clone; all clones append to
/// the same record list.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// Creates an empty tracer ticking the given clock.
    pub fn new(clock: LogicalClock) -> Self {
        Tracer { inner: Arc::new(TracerInner { clock, spans: Mutex::new(Vec::new()) }) }
    }

    /// The clock this tracer stamps spans with.
    pub fn clock(&self) -> &LogicalClock {
        &self.inner.clock
    }

    /// Opens a root span.
    pub fn root(&self, name: impl Into<String>) -> Span {
        self.open(None, name.into())
    }

    fn open(&self, parent: Option<u64>, name: String) -> Span {
        let start = self.inner.clock.tick();
        let mut spans = self.inner.spans.lock();
        let id = spans.len() as u64;
        spans.push(SpanRecord { id, parent, name, start, end: 0, notes: Vec::new() });
        Span { tracer: Some(self.clone()), id }
    }

    /// Snapshot of all records collected so far.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.inner.spans.lock().clone()
    }

    /// Moves every record collected so far out of the tracer, leaving it
    /// empty — for a finished statement, whose spans nobody writes again.
    pub fn take_records(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.inner.spans.lock())
    }
}

/// Owning span guard: closes (stamps its end tick) when dropped.
///
/// A disabled span is a no-op sink, so instrumentation never needs to branch
/// on whether tracing is active.
pub struct Span {
    tracer: Option<Tracer>,
    id: u64,
}

impl Span {
    /// A span that records nothing; children are also disabled.
    pub fn disabled() -> Span {
        Span { tracer: None, id: 0 }
    }

    /// Whether this span records anything.
    pub fn is_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// Opens a child span.
    pub fn child(&self, name: impl Into<String>) -> Span {
        match &self.tracer {
            Some(t) => t.open(Some(self.id), name.into()),
            None => Span::disabled(),
        }
    }

    /// Attaches a key/value annotation.
    pub fn note(&self, key: &str, value: impl Display) {
        if let Some(t) = &self.tracer {
            // A record taken out of its tracer (`take_records`) is gone.
            if let Some(rec) = t.inner.spans.lock().get_mut(self.id as usize) {
                rec.notes.push((key.to_string(), value.to_string()));
            }
        }
    }

    /// A cloneable, sendable handle for opening children of this span from
    /// elsewhere (other threads, long-lived components).
    pub fn ctx(&self) -> SpanCtx {
        SpanCtx { tracer: self.tracer.clone(), parent: self.tracer.as_ref().map(|_| self.id) }
    }

    /// Closes the span now (otherwise it closes on drop).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(t) = &self.tracer {
            let end = t.inner.clock.tick();
            if let Some(rec) = t.inner.spans.lock().get_mut(self.id as usize) {
                rec.end = end;
            }
        }
    }
}

/// Cheap `Clone + Send` handle onto a position in the span tree.
#[derive(Clone, Default)]
pub struct SpanCtx {
    tracer: Option<Tracer>,
    parent: Option<u64>,
}

impl SpanCtx {
    /// A context that records nothing.
    pub fn disabled() -> SpanCtx {
        SpanCtx::default()
    }

    /// Whether spans opened from this context record anything.
    pub fn is_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// Opens a span under this context's position (a root if the context was
    /// taken from a tracer directly).
    pub fn child(&self, name: impl Into<String>) -> Span {
        match &self.tracer {
            Some(t) => t.open(self.parent, name.into()),
            None => Span::disabled(),
        }
    }
}

impl From<&Tracer> for SpanCtx {
    fn from(tracer: &Tracer) -> Self {
        SpanCtx { tracer: Some(tracer.clone()), parent: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_stamp_ticks() {
        let tracer = Tracer::new(LogicalClock::new());
        {
            let root = tracer.root("stmt");
            root.note("k", "v");
            let child = root.child("parse");
            drop(child);
        }
        let recs = tracer.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].name, "stmt");
        assert_eq!(recs[1].parent, Some(0));
        assert!(recs[1].start > recs[0].start);
        assert!(recs[1].end < recs[0].end);
        assert_eq!(recs[0].notes, vec![("k".to_string(), "v".to_string())]);
    }

    #[test]
    fn disabled_spans_are_noops() {
        let s = Span::disabled();
        assert!(!s.is_enabled());
        let c = s.child("x");
        c.note("k", 1);
        assert!(!c.ctx().is_enabled());
    }

    #[test]
    fn ctx_opens_children_cross_handle() {
        let tracer = Tracer::new(LogicalClock::new());
        let root = tracer.root("stmt");
        let ctx = root.ctx();
        let handle = std::thread::spawn(move || {
            let child = ctx.child("task:t1");
            child.note("db", "avis");
        });
        handle.join().unwrap();
        drop(root);
        let recs = tracer.records();
        assert_eq!(recs[1].parent, Some(0));
        assert_eq!(recs[1].notes[0].1, "avis");
    }
}
