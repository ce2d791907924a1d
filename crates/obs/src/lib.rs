//! Observability substrate for the extended-MSQL federation.
//!
//! Three pieces, all deterministic so traces can be snapshot-tested:
//!
//! * [`LogicalClock`] — a shared atomic tick counter. Every observable event
//!   (span start/end, network send) advances it; no wall-clock ever enters a
//!   trace, which is what makes golden-trace tests byte-identical run to run.
//! * [`Tracer`]/[`Span`] — hierarchical spans collected per statement. A
//!   [`Span`] is an owning guard (ends on drop); a [`SpanCtx`] is a cheap
//!   `Clone + Send` handle used to open children from other threads or from
//!   components that outlive the guard.
//! * [`MetricsRegistry`] — lock-cheap counters/gauges/histograms keyed by
//!   flat names with inline labels (`lam.rows{db=avis}`), rendered in sorted
//!   order for deterministic output.
//!
//! [`SpanTree`]/[`ExplainReport`] turn the raw records into the normalized
//! tree and per-LAM cost table behind the `EXPLAIN` statement.

pub mod clock;
pub mod metrics;
pub mod report;
pub mod span;

pub use clock::LogicalClock;
pub use metrics::{labeled, quantile, Histogram, MetricsRegistry, MetricsSnapshot};
pub use report::{ExplainReport, LamCost, SpanNode, SpanTree};
pub use span::{Span, SpanCtx, SpanRecord, Tracer};
