//! Span-tree assembly, normalization and EXPLAIN rendering.

use std::collections::BTreeMap;

use crate::span::SpanRecord;

/// One node of an assembled span tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Opening tick (normalized after [`SpanTree::normalize`]).
    pub start: u64,
    /// Closing tick.
    pub end: u64,
    /// Key/value annotations in insertion order.
    pub notes: Vec<(String, String)>,
    /// Child spans.
    pub children: Vec<SpanNode>,
}

/// A statement's spans assembled into a forest (usually a single root).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanTree {
    /// Root spans in execution order.
    pub roots: Vec<SpanNode>,
}

impl SpanTree {
    /// Assembles the flat records of a tracer into a tree, moving their names
    /// and notes into it. Records arrive as a [`Tracer`](crate::Tracer) keeps
    /// them: each at the position of its id, a parent before its children;
    /// children stay in record order. A span still open at assembly time (end
    /// tick 0) is clamped to the latest tick observed, keeping durations
    /// well-defined.
    ///
    /// One pass from the last record to the first: when a record is reached,
    /// every child it has was reached before it and is already attached (in
    /// reverse), so the node is complete and moves into its parent.
    pub fn from_records(records: Vec<SpanRecord>) -> SpanTree {
        let horizon = records.iter().map(|r| r.start.max(r.end)).max().unwrap_or(0);
        let mut parents = Vec::with_capacity(records.len());
        let mut nodes = Vec::with_capacity(records.len());
        for r in records {
            parents.push(r.parent);
            nodes.push(Some(SpanNode {
                name: r.name,
                start: r.start,
                end: if r.end == 0 { horizon } else { r.end },
                notes: r.notes,
                children: Vec::new(),
            }));
        }
        let mut roots = Vec::new();
        for id in (0..nodes.len()).rev() {
            let mut node = nodes[id].take().expect("each record is visited once");
            node.children.reverse();
            match parents[id] {
                None => roots.push(node),
                // A parent precedes its child, so it is still waiting here; a
                // record whose parent does not precede it has no place.
                Some(parent) => {
                    if let Some(Some(p)) = nodes.get_mut(parent as usize) {
                        p.children.push(node);
                    }
                }
            }
        }
        roots.reverse();
        SpanTree { roots }
    }

    /// Makes the tree stable for snapshot comparison: children are sorted by
    /// `(start, name)` and every tick is densely renumbered so the first
    /// event is tick 0 and consecutive events differ by 1. Dense renumbering
    /// keeps goldens immune to unrelated clock traffic (connection setup,
    /// other statements) that merely shifts or stretches raw tick values.
    pub fn normalize(&mut self) {
        fn sort_children(nodes: &mut [SpanNode]) {
            nodes.sort_by(|a, b| a.start.cmp(&b.start).then_with(|| a.name.cmp(&b.name)));
            for n in nodes.iter_mut() {
                sort_children(&mut n.children);
            }
        }
        sort_children(&mut self.roots);

        let mut ticks = BTreeMap::new();
        fn collect(nodes: &[SpanNode], ticks: &mut BTreeMap<u64, u64>) {
            for n in nodes {
                ticks.insert(n.start, 0);
                ticks.insert(n.end, 0);
                collect(&n.children, ticks);
            }
        }
        collect(&self.roots, &mut ticks);
        for (dense, slot) in ticks.values_mut().enumerate() {
            *slot = dense as u64;
        }
        fn renumber(nodes: &mut [SpanNode], ticks: &BTreeMap<u64, u64>) {
            for n in nodes {
                n.start = ticks[&n.start];
                n.end = ticks[&n.end];
                renumber(&mut n.children, ticks);
            }
        }
        renumber(&mut self.roots, &ticks);
    }

    /// Renders the forest as an ASCII tree with `[start..end +duration]`
    /// logical timing and inline `{key=value}` notes.
    pub fn render(&self) -> String {
        fn line(out: &mut String, node: &SpanNode, prefix: &str, last: bool, root: bool) {
            let (branch, cont) = if root {
                (String::new(), String::new())
            } else if last {
                (format!("{prefix}└─ "), format!("{prefix}   "))
            } else {
                (format!("{prefix}├─ "), format!("{prefix}│  "))
            };
            out.push_str(&branch);
            out.push_str(&node.name);
            out.push_str(&format!(" [{}..{} +{}]", node.start, node.end, node.end - node.start));
            if !node.notes.is_empty() {
                let notes: Vec<String> =
                    node.notes.iter().map(|(k, v)| format!("{k}={v}")).collect();
                out.push_str(&format!(" {{{}}}", notes.join(" ")));
            }
            out.push('\n');
            for (i, child) in node.children.iter().enumerate() {
                line(out, child, &cont, i + 1 == node.children.len(), false);
            }
        }
        let mut out = String::new();
        for root in &self.roots {
            line(&mut out, root, "", true, true);
        }
        out
    }

    /// Depth-first visit of every node.
    pub fn visit(&self, f: &mut impl FnMut(&SpanNode)) {
        fn walk(nodes: &[SpanNode], f: &mut impl FnMut(&SpanNode)) {
            for n in nodes {
                f(n);
                walk(&n.children, f);
            }
        }
        walk(&self.roots, f);
    }
}

/// Aggregated cost of one LDBS as seen through its LAM spans.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LamCost {
    /// Database the LAM fronts.
    pub database: String,
    /// Number of DOL tasks executed against it.
    pub tasks: u64,
    /// Total LAM round-trip attempts (retries included).
    pub attempts: u64,
    /// Network faults absorbed while talking to it.
    pub faults: u64,
    /// Rows shipped back from it.
    pub rows: u64,
    /// Result payload bytes shipped back from it.
    pub bytes: u64,
    /// Logical ticks spent inside its task spans.
    pub latency: u64,
    /// Distinct local access paths (`probe`, `scan`) reported by its spans,
    /// in encounter order. Empty when the engine reported none.
    pub access: Vec<String>,
}

/// How a cross-database join was executed, as annotated on its `join` span.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JoinSummary {
    /// Strategy name (`hash`, `product`, optionally `semijoin+`-prefixed).
    pub strategy: String,
    /// Distinct join-key values shipped as semi-join filters.
    pub keys_shipped: u64,
    /// Partial-result bytes the semi-join reduction kept off the wire.
    pub bytes_saved: u64,
}

/// One partial dispatched under cost-based planning: the optimizer's row
/// estimate next to what the site actually returned.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlannerRow {
    /// Database the partial ran against.
    pub database: String,
    /// Rows the cost model predicted the partial would return.
    pub est_rows: u64,
    /// Rows the partial actually returned.
    pub actual_rows: u64,
}

/// Estimated-versus-actual accounting for a costed cross-database statement,
/// derived from `lam:partial:*` spans carrying an `est_rows` note. Absent
/// when the statement ran on the heuristic (statistics-free) path, so
/// renders and golden traces without ANALYZE are unchanged.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlannerSummary {
    /// Per-database rows, sorted by database name.
    pub rows: Vec<PlannerRow>,
}

/// One site of an aggregate/top-k pushdown: the rows its rewritten (pre-
/// aggregated or limited) subquery actually shipped, next to what shipping
/// the full partial would have cost.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PushdownRow {
    /// Database the pushed subquery ran against.
    pub database: String,
    /// Rows the pushed site query shipped across the wire.
    pub shipped_rows: u64,
    /// Rows the *unpushed* subquery would have shipped: the measured
    /// baseline when the LAM reported one, the planner's estimate otherwise
    /// (0 when neither is known).
    pub unpushed_rows: u64,
}

/// Aggregate/top-k pushdown accounting, derived from `lam:partial:*` spans
/// carrying a `pushed` note. Absent when the statement took the classic
/// coordinator path, so existing renders and golden traces are unchanged.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PushdownSummary {
    /// What was pushed: `agg` (decomposable aggregates) or `topk`
    /// (pure-product ORDER BY/LIMIT).
    pub kind: String,
    /// Per-database rows, sorted by database name.
    pub rows: Vec<PushdownRow>,
}

/// Wire-level accounting of one statement: which encoding its LAM traffic
/// used and how many payload bytes each format put on the (simulated) wire.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireSummary {
    /// Negotiated format label (`text` or `binary`).
    pub format: String,
    /// Bytes shipped as line-oriented text during the statement.
    pub bytes_text: u64,
    /// Bytes shipped as binary columnar frames during the statement.
    pub bytes_binary: u64,
}

/// The rendered product of an `EXPLAIN` statement: the statement's span tree
/// plus a per-LAM cost table derived from the task spans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExplainReport {
    /// The statement text the report describes.
    pub statement: String,
    /// Normalized span tree.
    pub tree: SpanTree,
    /// Per-database cost rows, sorted by database name.
    pub costs: Vec<LamCost>,
    /// Join execution summary, when the statement ran a cross-database join.
    pub join: Option<JoinSummary>,
    /// Estimated-versus-actual planner rows — populated only when the
    /// statement ran under cost-based planning (fresh statistics present).
    pub planner: Option<PlannerSummary>,
    /// Aggregate/top-k pushdown accounting — populated only when the
    /// statement's sites pre-aggregated (or limited) before shipping.
    pub pushdown: Option<PushdownSummary>,
    /// Wire-format accounting — populated only when the statement shipped
    /// binary frames, so text-mode renders (and golden traces) are
    /// unchanged.
    pub wire: Option<WireSummary>,
}

impl ExplainReport {
    /// Builds a report from a normalized tree, deriving the cost table from
    /// `task:`/`lam:` spans annotated with `db`/`attempts`/`rows`/`bytes`. A
    /// join's partials are `lam:partial:<db>` spans noting their `route`
    /// (`shipped`, or `home` under the coordinator's `lam:combine:<db>`).
    pub fn from_tree(statement: impl Into<String>, tree: SpanTree) -> ExplainReport {
        let mut by_db: BTreeMap<String, LamCost> = BTreeMap::new();
        let mut join: Option<JoinSummary> = None;
        let mut planned: BTreeMap<String, PlannerRow> = BTreeMap::new();
        let mut pushed_kind: Option<String> = None;
        let mut pushed: BTreeMap<String, PushdownRow> = BTreeMap::new();
        tree.visit(&mut |node| {
            let note =
                |key: &str| node.notes.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
            let num = |key: &str| note(key).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
            if node.name.starts_with("lam:partial:") && note("est_rows").is_some() {
                if let Some(db) = note("db") {
                    let row = planned.entry(db.to_string()).or_insert_with(|| PlannerRow {
                        database: db.to_string(),
                        ..PlannerRow::default()
                    });
                    row.est_rows += num("est_rows");
                    row.actual_rows += num("rows");
                }
            }
            if node.name.starts_with("lam:partial:") {
                if let (Some(kind), Some(db)) = (note("pushed"), note("db")) {
                    pushed_kind.get_or_insert_with(|| kind.to_string());
                    let row = pushed.entry(db.to_string()).or_insert_with(|| PushdownRow {
                        database: db.to_string(),
                        ..PushdownRow::default()
                    });
                    row.shipped_rows += num("rows");
                    // The measured unpushed baseline when the LAM reported
                    // one, the planner's pre-pushdown estimate otherwise.
                    row.unpushed_rows += if note("full_rows").is_some() {
                        num("full_rows")
                    } else {
                        num("est_rows")
                    };
                }
            }
            if node.name == "join" {
                if let Some(strategy) = note("strategy") {
                    join = Some(JoinSummary {
                        strategy: strategy.to_string(),
                        keys_shipped: num("keys_shipped"),
                        bytes_saved: num("bytes_saved"),
                    });
                }
                return;
            }
            let Some(db) = note("db") else { return };
            if !(node.name.starts_with("task:") || node.name.starts_with("lam:")) {
                return;
            }
            let cost = by_db
                .entry(db.to_string())
                .or_insert_with(|| LamCost { database: db.to_string(), ..LamCost::default() });
            // A `home` partial is no exchange of its own: it was materialised
            // inside its parent `lam:combine`, and no row of it was shipped.
            if note("route") != Some("home") {
                cost.tasks += 1;
                cost.attempts += num("attempts").max(1);
                cost.faults += num("faults");
                cost.rows += num("rows");
                cost.bytes += num("bytes");
                cost.latency += node.end - node.start;
            }
            if let Some(access) = note("access") {
                if !cost.access.iter().any(|a| a == access) {
                    cost.access.push(access.to_string());
                }
            }
        });
        ExplainReport {
            statement: statement.into(),
            tree,
            costs: by_db.into_values().collect(),
            join,
            planner: if planned.is_empty() {
                None
            } else {
                Some(PlannerSummary { rows: planned.into_values().collect() })
            },
            pushdown: pushed_kind
                .map(|kind| PushdownSummary { kind, rows: pushed.into_values().collect() }),
            wire: None,
        }
    }

    /// Renders the full report: header, span tree, per-LAM cost table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("EXPLAIN\n");
        for line in self.statement.lines() {
            out.push_str(&format!("  | {}\n", line.trim()));
        }
        out.push('\n');
        out.push_str(&self.tree.render());
        if !self.costs.is_empty() {
            out.push('\n');
            out.push_str("database      tasks  attempts  faults    rows   bytes  latency\n");
            for c in &self.costs {
                out.push_str(&format!(
                    "{:<12} {:>6} {:>9} {:>7} {:>7} {:>7} {:>8}\n",
                    c.database, c.tasks, c.attempts, c.faults, c.rows, c.bytes, c.latency
                ));
            }
            for c in self.costs.iter().filter(|c| !c.access.is_empty()) {
                out.push_str(&format!("access path [{}]: {}\n", c.database, c.access.join("+")));
            }
        }
        if let Some(j) = &self.join {
            out.push('\n');
            out.push_str(&format!("join strategy: {}\n", j.strategy));
            out.push_str(&format!("join keys shipped: {}\n", j.keys_shipped));
            out.push_str(&format!("bytes saved by semijoin: {}\n", j.bytes_saved));
        }
        if let Some(p) = &self.planner {
            out.push('\n');
            out.push_str("planner estimates:\n");
            for r in &p.rows {
                out.push_str(&format!(
                    "  [{}] est rows: {}  actual rows: {}\n",
                    r.database, r.est_rows, r.actual_rows
                ));
            }
        }
        if let Some(p) = &self.pushdown {
            out.push('\n');
            out.push_str(&format!("aggregate pushdown: {}\n", p.kind));
            for r in &p.rows {
                out.push_str(&format!(
                    "  [{}] shipped rows: {}  unpushed rows: {}\n",
                    r.database, r.shipped_rows, r.unpushed_rows
                ));
            }
        }
        if let Some(w) = &self.wire {
            out.push('\n');
            out.push_str(&format!("wire format: {}\n", w.format));
            out.push_str(&format!("wire bytes (text): {}\n", w.bytes_text));
            out.push_str(&format!("wire bytes (binary): {}\n", w.bytes_binary));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::LogicalClock;
    use crate::span::{SpanRecord, Tracer};

    /// The builder `from_records` replaced: per node, a scan of every record
    /// for its children. Kept as the reference the one-pass build must match.
    fn reference_from_records(records: &[SpanRecord]) -> SpanTree {
        let horizon = records.iter().map(|r| r.start.max(r.end)).max().unwrap_or(0);
        fn build(records: &[SpanRecord], parent: Option<u64>, horizon: u64) -> Vec<SpanNode> {
            records
                .iter()
                .filter(|r| r.parent == parent)
                .map(|r| SpanNode {
                    name: r.name.clone(),
                    start: r.start,
                    end: if r.end == 0 { horizon } else { r.end },
                    notes: r.notes.clone(),
                    children: build(records, Some(r.id), horizon),
                })
                .collect()
        }
        SpanTree { roots: build(records, None, horizon) }
    }

    /// A random forest as a tracer records one: ids in order, each parent an
    /// earlier record (or none), some spans still open, a few notes.
    fn random_records(seed: u64) -> Vec<SpanRecord> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound.max(1)
        };
        let len = next(40);
        (0..len)
            .map(|id| {
                let parent = if id == 0 || next(5) == 0 { None } else { Some(next(id)) };
                let start = 2 * id + 1;
                let end = if next(6) == 0 { 0 } else { start + 1 + next(90) };
                let notes =
                    (0..next(3)).map(|k| (format!("k{k}"), format!("{}", next(9)))).collect();
                SpanRecord { id, parent, name: format!("s{}", next(7)), start, end, notes }
            })
            .collect()
    }

    #[test]
    fn one_pass_build_matches_the_reference_on_random_forests() {
        for seed in 0..500 {
            let records = random_records(seed);
            let want = reference_from_records(&records);
            let got = SpanTree::from_records(records.clone());
            assert_eq!(got, want, "seed {seed}: {records:?}");
            let (mut got, mut want) = (got, want);
            got.normalize();
            want.normalize();
            assert_eq!(got.render(), want.render(), "seed {seed}");
        }
    }

    fn sample_tree() -> SpanTree {
        let tracer = Tracer::new(LogicalClock::new());
        {
            let root = tracer.root("statement");
            let parse = root.child("parse");
            drop(parse);
            let task = root.child("task:t1");
            task.note("db", "avis");
            task.note("rows", 2);
            task.note("bytes", 64);
            task.note("attempts", 3);
            task.note("faults", 2);
            task.note("access", "probe");
            drop(task);
        }
        SpanTree::from_records(tracer.take_records())
    }

    #[test]
    fn normalize_is_dense_and_stable() {
        let mut tree = sample_tree();
        tree.normalize();
        assert_eq!(tree.roots[0].start, 0);
        let mut max = 0;
        tree.visit(&mut |n| max = max.max(n.end));
        // 3 spans → 6 distinct ticks → densely 0..=5.
        assert_eq!(max, 5);
        let before = tree.render();
        tree.normalize();
        assert_eq!(before, tree.render(), "normalize is idempotent");
    }

    #[test]
    fn explain_report_aggregates_task_costs() {
        let mut tree = sample_tree();
        tree.normalize();
        let report = ExplainReport::from_tree("SELECT 1", tree);
        assert_eq!(report.costs.len(), 1);
        let avis = &report.costs[0];
        assert_eq!(avis.database, "avis");
        assert_eq!(avis.tasks, 1);
        assert_eq!(avis.attempts, 3);
        assert_eq!(avis.faults, 2);
        assert_eq!(avis.rows, 2);
        assert_eq!(avis.bytes, 64);
        assert_eq!(avis.access, vec!["probe".to_string()]);
        let text = report.render();
        assert!(text.contains("task:t1"));
        assert!(text.contains("avis"));
        assert!(text.contains("access path [avis]: probe"));
        assert!(report.join.is_none(), "no join span, no join summary");
    }

    #[test]
    fn explain_report_extracts_planner_summary() {
        let tracer = Tracer::new(LogicalClock::new());
        {
            let root = tracer.root("statement");
            let a = root.child("lam:partial:avis");
            a.note("db", "avis");
            a.note("est_rows", 3);
            a.note("rows", 2);
            drop(a);
            let b = root.child("lam:partial:national");
            b.note("db", "national");
            b.note("est_rows", 7);
            b.note("rows", 7);
        }
        let mut tree = SpanTree::from_records(tracer.take_records());
        tree.normalize();
        let report = ExplainReport::from_tree("SELECT 1", tree);
        let p = report.planner.as_ref().expect("planner summary extracted");
        assert_eq!(p.rows.len(), 2);
        assert_eq!(p.rows[0].database, "avis");
        assert_eq!(p.rows[0].est_rows, 3);
        assert_eq!(p.rows[0].actual_rows, 2);
        assert_eq!(p.rows[1].database, "national");
        let text = report.render();
        assert!(text.contains("planner estimates:"));
        assert!(text.contains("[avis] est rows: 3  actual rows: 2"));
        // Without est_rows notes the section stays absent.
        let plain = ExplainReport::from_tree("SELECT 1", sample_tree());
        assert!(plain.planner.is_none(), "no est_rows note, no planner section");
        assert!(!plain.render().contains("planner estimates"));
    }

    #[test]
    fn explain_report_extracts_pushdown_summary() {
        let tracer = Tracer::new(LogicalClock::new());
        {
            let root = tracer.root("statement");
            let a = root.child("lam:partial:avis");
            a.note("db", "avis");
            a.note("pushed", "agg");
            a.note("rows", 3);
            a.note("full_rows", 40);
            drop(a);
            let b = root.child("lam:partial:national");
            b.note("db", "national");
            b.note("pushed", "agg");
            b.note("est_rows", 25);
            b.note("rows", 5);
        }
        let mut tree = SpanTree::from_records(tracer.take_records());
        tree.normalize();
        let report = ExplainReport::from_tree("SELECT 1", tree);
        let p = report.pushdown.as_ref().expect("pushdown summary extracted");
        assert_eq!(p.kind, "agg");
        assert_eq!(p.rows.len(), 2);
        assert_eq!(p.rows[0].database, "avis");
        assert_eq!(p.rows[0].shipped_rows, 3);
        assert_eq!(p.rows[0].unpushed_rows, 40, "measured baseline wins");
        assert_eq!(p.rows[1].database, "national");
        assert_eq!(p.rows[1].unpushed_rows, 25, "falls back to the estimate");
        let text = report.render();
        assert!(text.contains("aggregate pushdown: agg"));
        assert!(text.contains("[avis] shipped rows: 3  unpushed rows: 40"));
        // Without a `pushed` note the section stays absent.
        let plain = ExplainReport::from_tree("SELECT 1", sample_tree());
        assert!(plain.pushdown.is_none(), "no pushed note, no pushdown section");
        assert!(!plain.render().contains("aggregate pushdown"));
    }

    #[test]
    fn explain_report_extracts_join_summary() {
        let tracer = Tracer::new(LogicalClock::new());
        {
            let root = tracer.root("statement");
            let join = root.child("join");
            join.note("strategy", "semijoin+hash");
            join.note("keys_shipped", 3);
            join.note("bytes_saved", 128);
        }
        let mut tree = SpanTree::from_records(tracer.take_records());
        tree.normalize();
        let report = ExplainReport::from_tree("SELECT 1", tree);
        let j = report.join.as_ref().expect("join summary extracted");
        assert_eq!(j.strategy, "semijoin+hash");
        assert_eq!(j.keys_shipped, 3);
        assert_eq!(j.bytes_saved, 128);
        let text = report.render();
        assert!(text.contains("join strategy: semijoin+hash"));
        assert!(text.contains("join keys shipped: 3"));
        assert!(text.contains("bytes saved by semijoin: 128"));
    }
}
