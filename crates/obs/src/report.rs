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

impl SpanNode {
    /// The value of the first note named `key`.
    pub fn note(&self, key: &str) -> Option<&str> {
        self.notes.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
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

    /// The first node named `name`, depth first.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        fn walk<'a>(nodes: &'a [SpanNode], name: &str) -> Option<&'a SpanNode> {
            nodes
                .iter()
                .find_map(|n| if n.name == name { Some(n) } else { walk(&n.children, name) })
        }
        walk(&self.roots, name)
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

/// The rendered product of an `EXPLAIN` statement: the statement's span tree
/// plus a per-LAM cost table derived from the task spans. Everything else a
/// statement reports — a join's strategy, keys shipped and bytes saved, a
/// partial's estimated, actual and unpushed rows — is a note on its span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExplainReport {
    /// The statement text the report describes.
    pub statement: String,
    /// Normalized span tree.
    pub tree: SpanTree,
    /// Per-database cost rows, sorted by database name.
    pub costs: Vec<LamCost>,
}

impl ExplainReport {
    /// Builds a report from a normalized tree, deriving the cost table from
    /// `task:`/`lam:` spans annotated with `db`/`attempts`/`rows`/`bytes`. A
    /// join's partials are `lam:partial:<db>` spans noting their `route`
    /// (`shipped`, or `home` under the coordinator's `lam:combine:<db>`).
    pub fn from_tree(statement: impl Into<String>, tree: SpanTree) -> ExplainReport {
        let mut by_db: BTreeMap<String, LamCost> = BTreeMap::new();
        tree.visit(&mut |node| {
            let Some(db) = node.note("db") else { return };
            if !(node.name.starts_with("task:") || node.name.starts_with("lam:")) {
                return;
            }
            let num = |key: &str| node.note(key).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
            let cost = by_db
                .entry(db.to_string())
                .or_insert_with(|| LamCost { database: db.to_string(), ..LamCost::default() });
            // A `home` partial is no exchange of its own: it was materialised
            // inside its parent `lam:combine`, and no row of it was shipped.
            if node.note("route") != Some("home") {
                cost.tasks += 1;
                cost.attempts += num("attempts").max(1);
                cost.faults += num("faults");
                cost.rows += num("rows");
                cost.bytes += num("bytes");
                cost.latency += node.end - node.start;
            }
            if let Some(access) = node.note("access") {
                if !cost.access.iter().any(|a| a == access) {
                    cost.access.push(access.to_string());
                }
            }
        });
        ExplainReport { statement: statement.into(), tree, costs: by_db.into_values().collect() }
    }

    /// Renders the full report: header, span tree, per-LAM cost table (its
    /// last column the local access paths, `-` where the engine named none).
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
            out.push_str(
                "database      tasks  attempts  faults    rows   bytes  latency  access\n",
            );
            for c in &self.costs {
                let access = if c.access.is_empty() { "-".to_string() } else { c.access.join("+") };
                out.push_str(&format!(
                    "{:<12} {:>6} {:>9} {:>7} {:>7} {:>7} {:>8}  {}\n",
                    c.database, c.tasks, c.attempts, c.faults, c.rows, c.bytes, c.latency, access
                ));
            }
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
        assert!(text.contains("latency  access\navis "), "{text}");
        assert!(text.ends_with("  probe\n"), "the access column closes the table:\n{text}");
    }

    #[test]
    fn notes_are_read_off_the_first_node_of_a_name() {
        let tracer = Tracer::new(LogicalClock::new());
        {
            let root = tracer.root("statement");
            let join = root.child("join");
            join.note("strategy", "semijoin+hash");
            join.note("keys_shipped", 3);
            let partial = join.child("lam:partial:national");
            partial.note("db", "national");
            partial.note("rows", 7);
            drop(partial);
            drop(join);
            let later = root.child("lam:partial:national");
            later.note("rows", 1);
        }
        let mut tree = SpanTree::from_records(tracer.take_records());
        tree.normalize();
        let join = tree.find("join").expect("a join span");
        assert_eq!(join.note("strategy"), Some("semijoin+hash"));
        assert_eq!(join.note("keys_shipped"), Some("3"));
        assert_eq!(join.note("bytes_saved"), None);
        let partial = tree.find("lam:partial:national").expect("a partial span");
        assert_eq!(partial.note("rows"), Some("7"), "depth first: the join's child comes first");
        assert!(tree.find("lam:partial:avis").is_none());
        // A database whose spans name no access path prints `-`.
        let report = ExplainReport::from_tree("SELECT 1", tree);
        let text = report.render();
        let last = text.lines().last().expect("a cost row");
        assert!(last.starts_with("national ") && last.ends_with("  -"), "{text}");
    }
}
