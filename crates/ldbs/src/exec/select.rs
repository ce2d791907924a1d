//! SELECT execution: access paths, joins, filtering, aggregation, sorting,
//! projection.
//!
//! The executor is an iterate-and-filter engine (SQL-89 style implicit
//! joins, as in all of the paper's examples) in two steps. **Prepare**
//! ([`prepare_select`]) resolves the FROM tables, binds every expression of
//! the block once ([`crate::eval`]) — subqueries included, each into a plan
//! of its own — and collects what access-path selection needs from the WHERE
//! tree. **Run** ([`SelectPlan::run`]) is a tight loop over rows: survivors
//! of the WHERE filter are kept in one flat buffer; GROUP BY hashes the group
//! key and folds every aggregate into per-group accumulators in the same
//! pass, then evaluates HAVING, the projection and the ORDER BY keys from the
//! accumulators and the group's first row; ORDER BY moves rows into place
//! and, under a LIMIT, selects only the first k. A correlated subquery runs
//! its prepared plan once per outer row; nothing is bound twice.
//!
//! Before enumeration each FROM source picks an **access path**: when the
//! WHERE tree carries a sargable conjunct (`col = lit`, `col IN (lits)`,
//! `col < lit`, `col BETWEEN lit AND lit`, …) on an indexed column, the
//! source materialises only the index probe's candidates instead of the
//! whole table. Probes are deliberately *superset-safe*: canonical keys can
//! fold distinct values together and strict bounds are widened to inclusive,
//! but every surviving combination is still re-checked against the original,
//! unmodified WHERE, so index-on and index-off runs return identical rows.
//!
//! Two-table queries whose WHERE contains an equality conjunct between the
//! two FROM bindings skip the cross product: a hash table is built on the
//! smaller side and probed with the larger, so only key-matched pairs reach
//! the (unchanged) full-WHERE filter. When one side already has an index on
//! its join key, that index *is* the build side — no hash table is built at
//! all. The paper's coordinator evaluates the modified global query Q' over
//! shipped partials exactly this way, turning its cost from O(|R|·|S|) into
//! O(|R|+|S|+matches).

use crate::engine::{ColumnMeta, Database, ResultSet, RowSink};
use crate::error::DbError;
use crate::eval::{
    literal_value, lookup, Acc, AggSpec, Binder, Bound, Frame, Scope, ScopeSource, SubqueryCache,
};
use crate::index::KeyBound;
use crate::keyindex::KeyIndex;
use crate::table::{Row, RowId, Table};
use crate::value::{CanonicalKey, DataType, Value};
use msql_lang::printer::print_expr;
use msql_lang::{AggregateKind, BinaryOp, Expr, Select, SelectItem, SortOrder, TableRef};
use std::borrow::Cow;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Per-statement access-path counters, shared by reference so the engine can
/// aggregate them without threading mutable state through the recursion.
#[derive(Debug, Default)]
pub struct AccessStats {
    /// Rows materialised from base tables (after any index reduction).
    pub rows_scanned: Cell<u64>,
    /// Candidate row ids produced by index probes.
    pub index_hits: Cell<u64>,
    /// True when at least one source or join was served by an index.
    pub probed: Cell<bool>,
}

impl AccessStats {
    fn add_scanned(&self, n: u64) {
        self.rows_scanned.set(self.rows_scanned.get() + n);
    }

    fn add_hits(&self, n: u64) {
        self.index_hits.set(self.index_hits.get() + n);
        self.probed.set(true);
    }
}

/// One resolved FROM entry.
struct Source<'a> {
    table: &'a Table,
    binding: String,
}

/// The rows one run reads from a source, in ascending id order so
/// enumeration stays deterministic: the table's visible rows, or the
/// candidates of an index probe and the ids they live under (`rows[i]` is
/// then row `probed[i]`).
struct Input<'a> {
    rows: Vec<&'a Row>,
    probed: Option<Vec<RowId>>,
}

/// The element type of [`execute_select_with`]'s `outer` parameter. A
/// top-level statement has no enclosing block — a subquery receives its
/// enclosing rows as [`Frame`]s from the evaluator — so the type has no
/// values and the slice is always `&[]`.
pub enum NoOuterBlock {}

/// Executes a top-level SELECT against `db`.
pub fn execute_select(db: &Database, sel: &Select) -> Result<ResultSet, DbError> {
    execute_select_with(db, sel, &[], true)
}

/// [`execute_select`] with the index and hash-join fast paths toggleable.
/// `fast = false` forces full scans and the naive cross-product enumeration —
/// the reference semantics the property tests compare the fast paths against.
pub fn execute_select_with(
    db: &Database,
    sel: &Select,
    _outer: &[NoOuterBlock],
    fast: bool,
) -> Result<ResultSet, DbError> {
    let cache = SubqueryCache::new();
    prepare_select(db, sel, None, &cache)?.collect(None, fast, &AccessStats::default())
}

/// [`execute_select`] with access-path accounting: index probe candidates and
/// materialised rows are added to `stats`. Subqueries are intentionally not
/// counted.
pub fn execute_select_stats(
    db: &Database,
    sel: &Select,
    stats: &AccessStats,
) -> Result<ResultSet, DbError> {
    let mut rs = ResultSet::default();
    select_into(db, sel, stats, &mut rs)?;
    Ok(rs)
}

/// [`execute_select_stats`] with the output rows written into `sink`
/// instead of collected.
pub(crate) fn select_into(
    db: &Database,
    sel: &Select,
    stats: &AccessStats,
    sink: &mut dyn RowSink,
) -> Result<(), DbError> {
    let cache = SubqueryCache::new();
    prepare_select(db, sel, None, &cache)?.run(None, true, stats, sink)
}

/// One query block, every name resolved: what [`prepare_select`] builds and
/// [`SelectPlan::run`] executes, once for a top-level statement or an
/// uncorrelated subquery, once per outer row for a correlated one.
pub(crate) struct SelectPlan<'a> {
    sources: Vec<Source<'a>>,
    filter: Option<Bound<'a>>,
    /// Sargable WHERE conjuncts, for access-path selection.
    sargs: Vec<(usize, usize, Sarg)>,
    /// Equality conjuncts joining source 0 to source 1 of a two-table block.
    equi: Vec<(usize, usize)>,
    /// What to do with the rows WHERE lets through — or the error in the
    /// shape of the select list, reported only after WHERE has run.
    body: Result<Body<'a>, DbError>,
    /// Direction of each ORDER BY key.
    order: Vec<SortOrder>,
    distinct: bool,
    limit: Option<u64>,
    /// Output column names with the types static inference could give.
    columns: Vec<(String, Option<DataType>)>,
    /// How many blocks out the block's farthest reference reaches.
    reach: usize,
}

enum Body<'a> {
    /// One output row per surviving row.
    Rows { items: Vec<Proj<'a>>, order_keys: Vec<Bound<'a>> },
    /// One output row per group.
    Groups(Box<Grouping<'a>>),
}

/// One output column of a non-aggregating block.
enum Proj<'a> {
    /// Evaluate this expression.
    Expr(Bound<'a>),
    /// Copy the column directly from a source (for wildcards).
    Direct { source: usize, column: usize },
}

impl Proj<'_> {
    /// True for an item that copies a column or a constant: whether it is
    /// evaluated for a row or not, no one can tell.
    fn cannot_raise(&self) -> bool {
        matches!(self, Proj::Direct { .. } | Proj::Expr(Bound::Slot { .. } | Bound::Const(_)))
    }

    /// The item's value for one row.
    fn eval<'v>(&'v self, frame: &Frame<'_, 'v>) -> Result<Cow<'v, Value>, DbError> {
        match self {
            Proj::Expr(e) => e.eval(frame),
            Proj::Direct { source, column } => Ok(Cow::Borrowed(&frame.rows[*source][*column])),
        }
    }
}

struct Grouping<'a> {
    keys: Vec<Bound<'a>>,
    aggs: Vec<AggSpec<'a>>,
    output: GroupOutput<'a>,
    /// The same expressions bound with *no* innermost row, for the one row
    /// an ungrouped aggregate yields over empty input: a bare column there
    /// resolves in an enclosing block or not at all.
    empty_output: Option<GroupOutput<'a>>,
}

/// What is evaluated per group.
struct GroupOutput<'a> {
    having: Option<GroupExpr<'a>>,
    items: Vec<GroupExpr<'a>>,
    order_keys: Vec<GroupExpr<'a>>,
}

/// One per-group expression and the accumulators its aggregate calls read.
struct GroupExpr<'a> {
    expr: Bound<'a>,
    aggs: std::ops::Range<usize>,
}

impl GroupExpr<'_> {
    /// Evaluates over one group. Every aggregate of the expression is read
    /// first, so one that failed fails the expression even where `AND`
    /// would have short-circuited past it.
    fn eval<'v>(&'v self, frame: &Frame<'_, 'v>) -> Result<Cow<'v, Value>, DbError> {
        frame.aggs[self.aggs.clone()].iter().try_for_each(Acc::check)?;
        self.expr.eval(frame)
    }
}

impl<'a> GroupOutput<'a> {
    /// Binds HAVING, the select list and the ORDER BY keys, in that order.
    /// `bind` binds one expression and says how many aggregate calls the
    /// block has seen so far.
    fn bind(sel: &Select, mut bind: impl FnMut(&Expr) -> (Bound<'a>, usize)) -> Self {
        let mut seen = 0;
        let mut bind = |e: &Expr| {
            let (expr, total) = bind(e);
            let aggs = std::mem::replace(&mut seen, total)..total;
            GroupExpr { expr, aggs }
        };
        let having = sel.having.as_ref().map(&mut bind);
        let items = sel
            .items
            .iter()
            .map(|item| match item {
                SelectItem::Expr { expr, .. } => bind(expr),
                _ => unreachable!("wildcards rejected by the caller"),
            })
            .collect();
        let order_keys = sel.order_by.iter().map(|o| bind(&o.expr)).collect();
        GroupOutput { having, items, order_keys }
    }

    /// Evaluates HAVING and, for a group it accepts, the output row and its
    /// ORDER BY keys.
    fn emit<'v>(
        &'v self,
        frame: &Frame<'_, 'v>,
        rows: &mut Vec<Row>,
        keys: &mut Vec<Cow<'v, Value>>,
    ) -> Result<(), DbError> {
        if let Some(h) = &self.having {
            if h.eval(frame)?.as_truth()? != Some(true) {
                return Ok(());
            }
        }
        let mut row = Vec::with_capacity(self.items.len());
        for item in &self.items {
            row.push(item.eval(frame)?.into_owned());
        }
        for k in &self.order_keys {
            keys.push(k.eval(frame)?);
        }
        rows.push(row);
        Ok(())
    }
}

/// Resolves the FROM clause of `sel` and binds its expressions. `parent` is
/// the enclosing block's scope when `sel` is a subquery.
pub(crate) fn prepare_select<'a>(
    db: &'a Database,
    sel: &Select,
    parent: Option<&Scope<'_>>,
    cache: &'a SubqueryCache,
) -> Result<SelectPlan<'a>, DbError> {
    let mut sources: Vec<Source<'a>> = Vec::with_capacity(sel.from.len());
    for tref in &sel.from {
        let table = resolve_table(db, tref)?;
        let binding = tref.binding_name().to_ascii_lowercase();
        if sources.iter().any(|s| s.binding == binding) {
            return Err(DbError::AmbiguousColumn(format!("duplicate FROM binding `{binding}`")));
        }
        sources.push(Source { table, binding });
    }
    let names: Vec<ScopeSource<'_>> = sources
        .iter()
        .map(|s| ScopeSource { binding: &s.binding, schema: &s.table.schema })
        .collect();
    let scope = Scope { sources: &names, parent };
    let binder = Binder::new(db, cache, Some(&scope));

    let filter = sel.where_clause.as_ref().map(|w| binder.bind(w));
    let mut sargs = Vec::new();
    let mut equi = Vec::new();
    if let Some(w) = &sel.where_clause {
        collect_sargs(w, &names, &mut sargs);
        if names.len() == 2 {
            collect_equi_keys(w, &names, &mut equi);
        }
    }

    let aggregates = !sel.group_by.is_empty()
        || sel.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        })
        || sel.having.as_ref().map(Expr::contains_aggregate).unwrap_or(false);
    let mut empty_reach = 0;
    let body = if !aggregates {
        project_items(sel, &names, &binder).map(|items| Body::Rows {
            items,
            order_keys: sel.order_by.iter().map(|o| binder.bind(&o.expr)).collect(),
        })
    } else if sel.items.iter().any(|i| !matches!(i, SelectItem::Expr { .. })) {
        Err(DbError::TypeError("`*` projection cannot be combined with aggregation".into()))
    } else {
        let mut aggs = Vec::new();
        let output = GroupOutput::bind(sel, |e| {
            let expr = binder.bind_grouped(e, &mut aggs);
            (expr, aggs.len())
        });
        let empty_output = sel.group_by.is_empty().then(|| {
            let no_sources = Scope { sources: &[], parent };
            let no_rows = Binder::new(db, cache, Some(&no_sources));
            let mut next = 0;
            let output = GroupOutput::bind(sel, |e| {
                let expr = no_rows.bind_regrouped(e, &mut next);
                (expr, next)
            });
            empty_reach = no_rows.reach();
            output
        });
        let keys = sel.group_by.iter().map(|g| binder.bind(g)).collect();
        Ok(Body::Groups(Box::new(Grouping { keys, aggs, output, empty_output })))
    };

    let columns = output_columns(sel, &names);
    let reach = binder.reach().max(empty_reach);
    Ok(SelectPlan {
        sources,
        filter,
        sargs,
        equi,
        body,
        order: sel.order_by.iter().map(|o| o.order).collect(),
        distinct: sel.distinct,
        limit: sel.limit,
        columns,
        reach,
    })
}

/// The surviving combinations of a block's sources, `stride` rows each, in
/// one buffer. A block without FROM has stride 0 and at most one (empty)
/// combination.
struct Survivors<'r> {
    flat: Vec<&'r Row>,
    stride: usize,
    len: usize,
}

impl<'r> Survivors<'r> {
    fn push(&mut self, combo: &[&'r Row]) {
        self.flat.extend_from_slice(combo);
        self.len += 1;
    }

    fn get(&self, i: usize) -> &[&'r Row] {
        &self.flat[i * self.stride..(i + 1) * self.stride]
    }

    fn iter(&self) -> impl Iterator<Item = &[&'r Row]> {
        (0..self.len).map(|i| self.get(i))
    }
}

impl<'a> SelectPlan<'a> {
    /// How many blocks out the block's farthest reference reaches: 0 for a
    /// self-contained block, whose result does not depend on where it is
    /// evaluated.
    pub(crate) fn reach(&self) -> usize {
        self.reach
    }

    /// Executes the block into a collected result set.
    pub(crate) fn collect(
        &self,
        parent: Option<&Frame<'_, '_>>,
        fast: bool,
        stats: &AccessStats,
    ) -> Result<ResultSet, DbError> {
        let mut rs = ResultSet::default();
        self.run(parent, fast, stats, &mut rs)?;
        Ok(rs)
    }

    /// Executes the block, writing its output rows into `sink`. `parent`
    /// carries the current rows of the enclosing blocks when the block is a
    /// subquery.
    pub(crate) fn run(
        &self,
        parent: Option<&Frame<'_, '_>>,
        fast: bool,
        stats: &AccessStats,
        sink: &mut dyn RowSink,
    ) -> Result<(), DbError> {
        let survivors = self.survivors(parent, fast, stats)?;
        let body = self.body.as_ref().map_err(Clone::clone)?;
        sink.begin(&self.columns);
        // Column types: static inference refined by the first non-null
        // value of the rows the sink is given.
        let mut types: Vec<Option<DataType>> = self.columns.iter().map(|(_, ty)| *ty).collect();
        let refine = |types: &mut [Option<DataType>], row: &[Cow<'_, Value>]| {
            for (ty, v) in types.iter_mut().zip(row).filter(|(ty, _)| ty.is_none()) {
                *ty = v.data_type();
            }
        };
        match body {
            Body::Rows { items, .. } if self.order.is_empty() && !self.distinct => {
                // Nothing to reorder or deduplicate: each row goes to the
                // sink as it is projected, up to the LIMIT. Past it only an
                // item that could raise is still evaluated — it must go on
                // failing the statement.
                let limit =
                    self.limit.map_or(usize::MAX, |n| usize::try_from(n).unwrap_or(usize::MAX));
                let raises = !items.iter().all(Proj::cannot_raise);
                let mut row: Vec<Cow<'_, Value>> = Vec::with_capacity(items.len());
                for (i, combo) in survivors.iter().enumerate() {
                    if i >= limit && !raises {
                        break;
                    }
                    let frame = Frame::of(combo, parent);
                    for item in items {
                        row.push(item.eval(&frame)?);
                    }
                    if i < limit {
                        refine(&mut types, &row);
                        sink.row(row.drain(..));
                    } else {
                        row.clear();
                    }
                }
            }
            body => {
                let mut row = Vec::new();
                for values in self.materialise(body, &survivors, parent)? {
                    row.extend(values.into_iter().map(Cow::Owned));
                    refine(&mut types, &row);
                    sink.row(row.drain(..));
                }
            }
        }
        let columns = self
            .columns
            .iter()
            .zip(types)
            .map(|((name, _), ty)| ColumnMeta {
                name: name.clone(),
                data_type: ty.unwrap_or(DataType::Char(0)),
            })
            .collect();
        sink.finish(columns);
        Ok(())
    }

    /// Picks each source's access path and keeps the combinations of its
    /// rows that WHERE accepts.
    fn survivors(
        &self,
        parent: Option<&Frame<'_, '_>>,
        fast: bool,
        stats: &AccessStats,
    ) -> Result<Survivors<'a>, DbError> {
        // Rows are borrowed straight out of the tables — no per-statement
        // clone of the stored data.
        let mut inputs: Vec<Input<'a>> = self
            .sources
            .iter()
            .map(|s| Input { rows: s.table.iter().map(|(_, row)| row).collect(), probed: None })
            .collect();
        // Access-path selection: route sargable WHERE conjuncts to index
        // probes, shrinking each source to the candidate rows before
        // enumeration.
        if fast {
            for (si, (source, input)) in self.sources.iter().zip(&mut inputs).enumerate() {
                let Some(candidates) = choose_probe(source, si, &self.sargs) else { continue };
                stats.add_hits(candidates.len() as u64);
                input.rows = candidates.iter().filter_map(|id| source.table.get(*id)).collect();
                input.probed = Some(candidates);
            }
        }
        for input in &inputs {
            stats.add_scanned(input.rows.len() as u64);
        }
        self.filter(&inputs, parent, fast, stats)
    }

    /// The block's output rows, in order: projected or grouped, then
    /// sorted, deduplicated and limited.
    fn materialise(
        &self,
        body: &Body<'_>,
        survivors: &Survivors<'_>,
        parent: Option<&Frame<'_, '_>>,
    ) -> Result<Vec<Row>, DbError> {
        let mut rows = Vec::new();
        let mut keys = Vec::new();
        // Under ORDER BY … LIMIT k only the first k rows of the order are
        // produced (DISTINCT needs them all: it dedups before the LIMIT).
        let top = self.limit.filter(|_| !self.distinct);
        let mut ordered = self.order.is_empty();
        match body {
            Body::Rows { items, order_keys } => {
                let project = |frame: &Frame<'_, '_>| -> Result<Row, DbError> {
                    let mut row = Vec::with_capacity(items.len());
                    for item in items {
                        row.push(item.eval(frame)?.into_owned());
                    }
                    Ok(row)
                };
                // Top-k: order on the keys alone and project the k rows kept
                // — unless an item could raise for a row that is not kept,
                // which must go on failing the statement.
                let late = !ordered && top.is_some() && items.iter().all(Proj::cannot_raise);
                if !late {
                    rows.reserve(survivors.len);
                }
                keys.reserve(survivors.len * order_keys.len());
                for combo in survivors.iter() {
                    let frame = Frame::of(combo, parent);
                    if !late {
                        rows.push(project(&frame)?);
                    }
                    for k in order_keys {
                        keys.push(k.eval(&frame)?);
                    }
                }
                if late {
                    for i in sorted_order(survivors.len, &keys, &self.order, top) {
                        rows.push(project(&Frame::of(survivors.get(i), parent))?);
                    }
                    ordered = true;
                }
            }
            Body::Groups(grouping) => grouping.run(survivors, parent, &mut rows, &mut keys)?,
        }

        if !ordered {
            let order = sorted_order(rows.len(), &keys, &self.order, top);
            rows = order.into_iter().map(|i| std::mem::take(&mut rows[i])).collect();
        }
        if self.distinct {
            // Keeps first occurrences, after ORDER BY and before LIMIT.
            let mut kept: Vec<Row> = Vec::new();
            let mut index = KeyIndex::default();
            for row in rows {
                if index.find_or_insert(&row, |i| &kept[i]).is_err() {
                    kept.push(row);
                }
            }
            rows = kept;
        }
        // LIMIT: applied last, after ORDER BY and DISTINCT (SQL evaluation
        // order).
        if let Some(n) = self.limit {
            rows.truncate(usize::try_from(n).unwrap_or(usize::MAX));
        }
        Ok(rows)
    }

    /// Enumerates the cross product of `inputs` and keeps what WHERE accepts.
    /// An empty FROM clause (e.g. `SELECT 1`) contributes exactly one empty
    /// combination; an empty table anywhere makes the product empty.
    fn filter<'r>(
        &self,
        inputs: &[Input<'r>],
        parent: Option<&Frame<'_, '_>>,
        fast: bool,
        stats: &AccessStats,
    ) -> Result<Survivors<'r>, DbError> {
        let mut survivors = Survivors { flat: Vec::new(), stride: inputs.len(), len: 0 };
        let mut offer = |combo: &[&'r Row]| -> Result<(), DbError> {
            let keep = match &self.filter {
                None => true,
                Some(pred) => pred.accepts(&Frame::of(combo, parent))?,
            };
            if keep {
                survivors.push(combo);
            }
            Ok(())
        };
        if inputs.iter().any(|i| i.rows.is_empty()) {
            // Nothing to enumerate.
        } else if fast && !self.equi.is_empty() {
            // Equi-join: pair only key-matched rows, then apply the full
            // WHERE unchanged, so the result is exactly the filtered cross
            // product (any pair the key-match pruned had an unequal or NULL
            // key, which already falsifies an AND-ed equality; any pair it
            // over-returned is rejected by the re-check).
            let matches = index_join_matches(&self.sources, inputs, &self.equi, stats)
                .unwrap_or_else(|| hash_join_matches(&inputs[0].rows, &inputs[1].rows, &self.equi));
            for (li, ri) in matches {
                offer(&[inputs[0].rows[li], inputs[1].rows[ri]])?;
            }
        } else if let [only] = inputs {
            for row in &only.rows {
                offer(std::slice::from_ref(row))?;
            }
        } else {
            // The odometer, rightmost position fastest. With no source at
            // all it offers the one empty combination and stops.
            let mut idx = vec![0usize; inputs.len()];
            let mut combo: Vec<&Row> = inputs.iter().map(|i| i.rows[0]).collect();
            'product: loop {
                offer(&combo)?;
                let mut k = inputs.len();
                loop {
                    if k == 0 {
                        break 'product;
                    }
                    k -= 1;
                    idx[k] += 1;
                    if idx[k] < inputs[k].rows.len() {
                        combo[k] = inputs[k].rows[idx[k]];
                        break;
                    }
                    idx[k] = 0;
                    combo[k] = inputs[k].rows[0];
                }
            }
        }
        Ok(survivors)
    }
}

impl Grouping<'_> {
    /// Groups `survivors` and appends one output row (and its ORDER BY keys)
    /// per group HAVING accepts, in order of the groups' first appearance.
    fn run<'v>(
        &'v self,
        survivors: &Survivors<'v>,
        parent: Option<&Frame<'_, 'v>>,
        rows: &mut Vec<Row>,
        keys: &mut Vec<Cow<'v, Value>>,
    ) -> Result<(), DbError> {
        let aggs = &self.aggs;
        // Per group: its key and the survivor it first appeared in; its
        // accumulators are `accs[g * aggs.len()..][..aggs.len()]`.
        let mut groups: Vec<(Vec<Value>, usize)> = Vec::new();
        let mut accs = Vec::new();
        let mut index = KeyIndex::default();
        let mut key: Vec<Cow<'_, Value>> = Vec::with_capacity(self.keys.len());
        for (i, combo) in survivors.iter().enumerate() {
            let frame = Frame::of(combo, parent);
            key.clear();
            for k in &self.keys {
                key.push(k.eval(&frame)?);
            }
            let g = index.find_or_insert(&key, |g| &groups[g].0).unwrap_or_else(|g| {
                groups.push((key.drain(..).map(Cow::into_owned).collect(), i));
                accs.extend(aggs.iter().map(AggSpec::start));
                g
            });
            for (spec, acc) in aggs.iter().zip(&mut accs[g * aggs.len()..]) {
                spec.feed(acc, &frame);
            }
        }
        for (g, (_, first)) in groups.iter().enumerate() {
            let group = &accs[g * aggs.len()..][..aggs.len()];
            let frame = Frame { rows: survivors.get(*first), aggs: group, parent };
            self.output.emit(&frame, rows, keys)?;
        }
        // An ungrouped aggregate over empty input still produces one row.
        if let (true, Some(output)) = (groups.is_empty(), &self.empty_output) {
            let group: Vec<_> = aggs.iter().map(AggSpec::start).collect();
            output.emit(&Frame { rows: &[], aggs: &group, parent }, rows, keys)?;
        }
        Ok(())
    }
}

/// The ORDER BY order of `n` rows, as positions. `keys` holds `order.len()`
/// sort keys per row; ties keep enumeration order. With `top = Some(k)` only
/// the first `k` positions of that order are produced (and only they are
/// sorted).
fn sorted_order(
    n: usize,
    keys: &[Cow<'_, Value>],
    order: &[SortOrder],
    top: Option<u64>,
) -> Vec<usize> {
    let by_keys = |a: &usize, b: &usize| {
        let (ka, kb) = (&keys[a * order.len()..], &keys[b * order.len()..]);
        for (i, dir) in order.iter().enumerate() {
            let cmp = ka[i].total_cmp(&kb[i]);
            let cmp = if *dir == SortOrder::Desc { cmp.reverse() } else { cmp };
            if cmp != Ordering::Equal {
                return cmp;
            }
        }
        a.cmp(b)
    };
    let k = top.and_then(|k| usize::try_from(k).ok()).filter(|k| *k < n);
    let mut perm: Vec<usize> = match k {
        None => (0..n).collect(),
        Some(0) => Vec::new(),
        // Top-k in one pass and 2k positions: once k rows are known, a row
        // that does not beat the k-th of them is dropped on one comparison.
        Some(k) => {
            let best_k = |kept: &mut Vec<usize>| {
                kept.select_nth_unstable_by(k - 1, by_keys);
                kept.truncate(k);
                kept[k - 1]
            };
            let mut kept = Vec::with_capacity(2 * k);
            let mut bar = None;
            for i in 0..n {
                if bar.is_some_and(|bar| by_keys(&i, &bar) != Ordering::Less) {
                    continue;
                }
                kept.push(i);
                if kept.len() == 2 * k {
                    bar = Some(best_k(&mut kept));
                }
            }
            if kept.len() > k {
                best_k(&mut kept);
            }
            kept
        }
    };
    perm.sort_unstable_by(by_keys);
    perm
}

fn resolve_table<'a>(db: &'a Database, tref: &TableRef) -> Result<&'a Table, DbError> {
    if tref.table.is_multiple() || tref.database.as_ref().map(|d| d.is_multiple()).unwrap_or(false)
    {
        return Err(DbError::NotLocalSql(format!(
            "table reference `{}` still contains a wildcard",
            tref.table
        )));
    }
    if let Some(d) = &tref.database {
        if d.as_str() != db.name {
            return Err(DbError::NotLocalSql(format!(
                "reference to remote database `{d}` inside local SQL"
            )));
        }
    }
    db.table(tref.table.as_str())
}

/// One sargable WHERE conjunct: a predicate on a single source column whose
/// other side is a literal, so an index can answer it (modulo the residual
/// re-check).
enum Sarg {
    /// `col = literal` (either orientation).
    Eq(Value),
    /// `col IN (literal, …)`, non-negated.
    In(Vec<Value>),
    /// `col <|<=|>|>= literal`, normalised to column-on-the-left.
    Cmp { op: BinaryOp, value: Value },
    /// `col BETWEEN literal AND literal`, non-negated.
    Between { low: Value, high: Value },
}

/// Walks the AND-spine of a WHERE tree collecting sargable conjuncts as
/// `(source index, column index, sarg)`. Branches under OR/NOT are skipped:
/// a disjunct cannot be enforced by shrinking one source.
fn collect_sargs(e: &Expr, sources: &[ScopeSource<'_>], out: &mut Vec<(usize, usize, Sarg)>) {
    match e {
        Expr::Binary { left, op: BinaryOp::And, right } => {
            collect_sargs(left, sources, out);
            collect_sargs(right, sources, out);
        }
        Expr::Binary { left, op, right }
            if matches!(
                op,
                BinaryOp::Eq | BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq
            ) =>
        {
            let (col, lit, op) = match (left.as_ref(), right.as_ref()) {
                (Expr::Column(c), Expr::Literal(l)) => (c, l, *op),
                (Expr::Literal(l), Expr::Column(c)) => (c, l, op.mirrored()),
                _ => return,
            };
            let Some((si, ci)) = resolve_key_column(col, sources) else { return };
            let value = literal_value(lit);
            let sarg = match op {
                BinaryOp::Eq => Sarg::Eq(value),
                other => Sarg::Cmp { op: other, value },
            };
            out.push((si, ci, sarg));
        }
        Expr::InList { expr, list, negated: false } => {
            let Expr::Column(c) = expr.as_ref() else { return };
            let values: Option<Vec<Value>> = list
                .iter()
                .map(|e| match e {
                    Expr::Literal(l) => Some(literal_value(l)),
                    _ => None,
                })
                .collect();
            if let (Some((si, ci)), Some(values)) = (resolve_key_column(c, sources), values) {
                out.push((si, ci, Sarg::In(values)));
            }
        }
        Expr::Between { expr, low, high, negated: false } => {
            let (Expr::Column(c), Expr::Literal(lo), Expr::Literal(hi)) =
                (expr.as_ref(), low.as_ref(), high.as_ref())
            else {
                return;
            };
            if let Some((si, ci)) = resolve_key_column(c, sources) {
                out.push((
                    si,
                    ci,
                    Sarg::Between { low: literal_value(lo), high: literal_value(hi) },
                ));
            }
        }
        _ => {}
    }
}

/// Picks an access path for source `si`: the candidate row ids of the best
/// index probe (`Some`, sorted ascending), or `None` to fall back to a full
/// scan. Preference order: point equality, then IN, then a fused range over
/// all comparison conjuncts on one B-tree-indexed column.
fn choose_probe(source: &Source, si: usize, sargs: &[(usize, usize, Sarg)]) -> Option<Vec<RowId>> {
    let column = |ci: usize| source.table.schema.columns[ci].name.as_str();
    for (s, ci, sarg) in sargs {
        if *s != si {
            continue;
        }
        if let Sarg::Eq(v) = sarg {
            if probe_priced_out(source.table, column(*ci), 1) {
                continue;
            }
            if let Some(idx) = source.table.index_on(column(*ci), false) {
                return Some(idx.probe_eq(std::slice::from_ref(v)));
            }
        }
    }
    for (s, ci, sarg) in sargs {
        if *s != si {
            continue;
        }
        if let Sarg::In(values) = sarg {
            if probe_priced_out(source.table, column(*ci), values.len()) {
                continue;
            }
            if let Some(idx) = source.table.index_on(column(*ci), false) {
                return Some(idx.probe_eq(values));
            }
        }
    }
    // Range: fuse every comparison conjunct on the first B-tree-indexed
    // column into one `[low, high]` probe. Strict bounds are widened to
    // inclusive (the residual WHERE re-check trims the edge); a NULL bound
    // can never compare true, so it empties the candidate set outright.
    let mut tried: Vec<usize> = Vec::new();
    for (s, ci, sarg) in sargs {
        if *s != si || !matches!(sarg, Sarg::Cmp { .. } | Sarg::Between { .. }) {
            continue;
        }
        if tried.contains(ci) {
            continue;
        }
        tried.push(*ci);
        let Some(idx) = source.table.index_on(column(*ci), true) else { continue };
        let mut lows: Vec<CanonicalKey> = Vec::new();
        let mut highs: Vec<CanonicalKey> = Vec::new();
        let mut impossible = false;
        for (s2, ci2, sarg2) in sargs {
            if *s2 != si || ci2 != ci {
                continue;
            }
            let mut push = |slot: &mut Vec<CanonicalKey>, v: &Value| match v.canonical_key() {
                Some(k) => slot.push(k),
                None => impossible = true,
            };
            match sarg2 {
                Sarg::Cmp { op: BinaryOp::Gt | BinaryOp::GtEq, value } => push(&mut lows, value),
                Sarg::Cmp { op: BinaryOp::Lt | BinaryOp::LtEq, value } => push(&mut highs, value),
                Sarg::Between { low, high } => {
                    push(&mut lows, low);
                    push(&mut highs, high);
                }
                _ => {}
            }
        }
        if impossible {
            return Some(Vec::new());
        }
        let lo = lows.into_iter().max().map_or(KeyBound::Unbounded, KeyBound::Inclusive);
        let hi = highs.into_iter().min().map_or(KeyBound::Unbounded, KeyBound::Inclusive);
        return idx.probe_range(&lo, &hi);
    }
    None
}

/// NDV pricing of an equality/IN probe against the scan it replaces: with
/// `ANALYZE` statistics present, a probe over `keys` values of a column with
/// NDV distinct values is expected to return `rows × min(1, keys/NDV)`
/// candidates; at half the table or more, the index walk plus candidate
/// materialization costs more than scanning, so the probe is skipped. The
/// residual WHERE still filters either way, so the choice only moves cost.
/// Without statistics every probe wins, exactly as before `ANALYZE` existed.
fn probe_priced_out(table: &Table, column: &str, keys: usize) -> bool {
    let Some(stats) = table.table_stats() else { return false };
    if stats.row_count == 0 {
        return false;
    }
    let Some(col) = stats.column(column) else { return false };
    if col.ndv == 0 {
        return false;
    }
    let expected = stats.row_count as f64 * (keys as f64 / col.ndv as f64).min(1.0);
    expected * 2.0 >= stats.row_count as f64
}

/// Collects the equality conjuncts of a WHERE tree that join source 0 to
/// source 1, as `(left column index, right column index)` pairs. Only
/// column = column conjuncts whose sides resolve — by the binder's own rules
/// — to the two different FROM bindings qualify; anything unresolvable or
/// ambiguous is left for the evaluator (the block falls back to the cross
/// product).
fn collect_equi_keys(e: &Expr, sources: &[ScopeSource<'_>], keys: &mut Vec<(usize, usize)>) {
    match e {
        Expr::Binary { left, op: BinaryOp::And, right } => {
            collect_equi_keys(left, sources, keys);
            collect_equi_keys(right, sources, keys);
        }
        Expr::Binary { left, op: BinaryOp::Eq, right } => {
            if let (Expr::Column(a), Expr::Column(b)) = (left.as_ref(), right.as_ref()) {
                match (resolve_key_column(a, sources), resolve_key_column(b, sources)) {
                    (Some((0, ca)), Some((1, cb))) => keys.push((ca, cb)),
                    (Some((1, ca)), Some((0, cb))) => keys.push((cb, ca)),
                    _ => {}
                }
            }
        }
        _ => {}
    }
}

/// Resolves a column reference to `(source index, column index)` inside the
/// block, by the binder's [`lookup`]. `None` means "not cleanly ours" —
/// possibly outer-correlated, ambiguous, or unknown — and disqualifies the
/// conjunct from key duty.
fn resolve_key_column(
    c: &msql_lang::ColumnRef,
    sources: &[ScopeSource<'_>],
) -> Option<(usize, usize)> {
    if c.is_multiple() || c.database.is_some() {
        return None;
    }
    lookup(sources, c.table.as_ref().map(|t| t.as_str()), c.column.as_str()).ok().flatten()
}

/// `None` for values that can never satisfy an equality (NULL, NaN): rows
/// keyed by them are skipped on both sides. SQL equality crosses the
/// Int/Float divide (`2 = 2.0`), so both map onto one canonical numeric
/// key — equal values always share a bucket; rare collisions between unequal
/// values (integers beyond 2^53) are resolved by the exact sub-bucket check.
fn key_of(row: &Row, cols: &[usize]) -> Option<(Vec<CanonicalKey>, Vec<Value>)> {
    let mut hashed = Vec::with_capacity(cols.len());
    let mut exact = Vec::with_capacity(cols.len());
    for &c in cols {
        hashed.push(row[c].canonical_key()?);
        exact.push(row[c].clone());
    }
    Some((hashed, exact))
}

fn keys_sql_equal(a: &[Value], b: &[Value]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.sql_cmp(y) == Some(Ordering::Equal))
}

/// Feeds the join from an existing index instead of building a hash table:
/// when either side has an index on its join-key column, the other side's
/// rows probe it directly. Probe hits are filtered through the indexed
/// side's visible-row set (the index covers the whole table, but an earlier
/// sarg probe may have shrunk the source). Returns `None` when neither side
/// has a usable index. Over-returns on canonical-key collisions are allowed —
/// the caller re-applies the full WHERE to every pair.
fn index_join_matches(
    sources: &[Source],
    inputs: &[Input],
    keys: &[(usize, usize)],
    stats: &AccessStats,
) -> Option<Vec<(usize, usize)>> {
    for (b, p) in [(0usize, 1usize), (1usize, 0usize)] {
        for &(c_left, c_right) in keys {
            let (cb, cp) = if b == 0 { (c_left, c_right) } else { (c_right, c_left) };
            let col = sources[b].table.schema.columns[cb].name.as_str();
            let Some(idx) = sources[b].table.index_on(col, false) else { continue };
            // Only this path reads row ids: a scanned source lists its own.
            let pos: HashMap<RowId, usize> = match &inputs[b].probed {
                Some(ids) => ids.iter().enumerate().map(|(i, &id)| (id, i)).collect(),
                None => sources[b].table.iter().enumerate().map(|(i, (id, _))| (id, i)).collect(),
            };
            let mut matches = Vec::new();
            let mut hits = 0u64;
            for (j, row) in inputs[p].rows.iter().enumerate() {
                let Some(key) = row[cp].canonical_key() else { continue };
                for id in idx.probe_key(&key) {
                    if let Some(&i) = pos.get(id) {
                        hits += 1;
                        matches.push(if b == 0 { (i, j) } else { (j, i) });
                    }
                }
            }
            matches.sort_unstable();
            stats.add_hits(hits);
            return Some(matches);
        }
    }
    None
}

/// Builds a hash table on the smaller side, probes with the larger, and
/// returns matched `(left index, right index)` pairs sorted left-major —
/// the exact order the odometer would have visited them in.
fn hash_join_matches(
    left: &[&Row],
    right: &[&Row],
    keys: &[(usize, usize)],
) -> Vec<(usize, usize)> {
    let build_left = left.len() <= right.len();
    let (build, probe): (&[&Row], &[&Row]) = if build_left { (left, right) } else { (right, left) };
    let (build_cols, probe_cols): (Vec<usize>, Vec<usize>) = if build_left {
        (keys.iter().map(|k| k.0).collect(), keys.iter().map(|k| k.1).collect())
    } else {
        (keys.iter().map(|k| k.1).collect(), keys.iter().map(|k| k.0).collect())
    };
    // Bucket → sub-buckets of exactly-equal keys (canonical-key collisions
    // resolved by sql_cmp, which is the equality the pruned conjuncts would
    // apply).
    type KeyBuckets = HashMap<Vec<CanonicalKey>, Vec<(Vec<Value>, Vec<usize>)>>;
    let mut table = KeyBuckets::new();
    for (i, row) in build.iter().enumerate() {
        let Some((hashed, exact)) = key_of(row, &build_cols) else { continue };
        let buckets = table.entry(hashed).or_default();
        match buckets.iter_mut().find(|(k, _)| keys_sql_equal(k, &exact)) {
            Some((_, members)) => members.push(i),
            None => buckets.push((exact, vec![i])),
        }
    }
    let mut matches = Vec::new();
    for (j, row) in probe.iter().enumerate() {
        let Some((hashed, exact)) = key_of(row, &probe_cols) else { continue };
        let Some(buckets) = table.get(&hashed) else { continue };
        if let Some((_, members)) = buckets.iter().find(|(k, _)| keys_sql_equal(k, &exact)) {
            for &i in members {
                matches.push(if build_left { (i, j) } else { (j, i) });
            }
        }
    }
    matches.sort_unstable();
    matches
}

/// Binds the select list of a non-aggregating block, expanding `*` / `t.*`
/// into direct column copies.
fn project_items<'a>(
    sel: &Select,
    sources: &[ScopeSource<'_>],
    binder: &Binder<'a, '_>,
) -> Result<Vec<Proj<'a>>, DbError> {
    let mut out = Vec::new();
    let all_of = |source: usize| {
        (0..sources[source].schema.arity()).map(move |column| Proj::Direct { source, column })
    };
    for item in &sel.items {
        match item {
            SelectItem::Wildcard => out.extend((0..sources.len()).flat_map(all_of)),
            SelectItem::QualifiedWildcard(t) => out.extend(all_of(
                wildcard_source(t.as_str(), sources)
                    .ok_or_else(|| DbError::UnknownTable(t.as_str().to_string()))?,
            )),
            SelectItem::Expr { expr, .. } => out.push(Proj::Expr(binder.bind(expr))),
        }
    }
    Ok(out)
}

/// The source a `t.*` item names: the first whose binding or table is `t`.
fn wildcard_source(target: &str, sources: &[ScopeSource<'_>]) -> Option<usize> {
    sources.iter().position(|s| s.binding == target || s.schema.name == target)
}

/// Output column names and, where derivable from the AST, their types.
fn output_columns(sel: &Select, sources: &[ScopeSource<'_>]) -> Vec<(String, Option<DataType>)> {
    let mut out = Vec::new();
    let all_of = |s: &ScopeSource<'_>| {
        s.schema.columns.iter().map(|c| (c.name.clone(), Some(c.data_type))).collect::<Vec<_>>()
    };
    for item in &sel.items {
        match item {
            SelectItem::Wildcard => out.extend(sources.iter().flat_map(all_of)),
            SelectItem::QualifiedWildcard(t) => out.extend(
                wildcard_source(t.as_str(), sources)
                    .map(|s| all_of(&sources[s]))
                    .unwrap_or_default(),
            ),
            SelectItem::Expr { expr, alias, .. } => out.push((
                alias.clone().unwrap_or_else(|| derive_name(expr)),
                infer_type(expr, sources),
            )),
        }
    }
    out
}

fn derive_name(expr: &Expr) -> String {
    match expr {
        Expr::Column(c) => c.column.as_str().to_string(),
        Expr::Aggregate { kind, .. } => kind.name().to_ascii_lowercase(),
        other => print_expr(other),
    }
}

fn infer_type(expr: &Expr, sources: &[ScopeSource<'_>]) -> Option<DataType> {
    match expr {
        Expr::Column(c) => {
            let table = c.table.as_ref().map(|t| t.as_str());
            for s in sources {
                if let Some(t) = table {
                    if s.binding != t && s.schema.name != t {
                        continue;
                    }
                }
                if let Some(i) = s.schema.column_index(c.column.as_str()) {
                    return Some(s.schema.columns[i].data_type);
                }
            }
            None
        }
        Expr::Literal(l) => literal_value(l).data_type(),
        Expr::Aggregate { kind: AggregateKind::Count, .. } => Some(DataType::Int),
        Expr::Aggregate { kind: AggregateKind::Avg, .. } => Some(DataType::Float),
        Expr::Aggregate { arg: Some(a), .. } => infer_type(a, sources),
        // COALESCE answers one of its arguments: their type, if they agree.
        Expr::Function { name, args } if name == "coalesce" => {
            let mut types = args.iter().map(|a| infer_type(a, sources));
            let first = types.next()??;
            types.all(|t| t == Some(first)).then_some(first)
        }
        Expr::Binary { left, op, right } => match op {
            op if op.is_comparison() => Some(DataType::Bool),
            BinaryOp::And | BinaryOp::Or => Some(DataType::Bool),
            BinaryOp::Concat => Some(DataType::Char(0)),
            BinaryOp::Div => Some(DataType::Float),
            _ => match (infer_type(left, sources), infer_type(right, sources)) {
                (Some(DataType::Int), Some(DataType::Int)) => Some(DataType::Int),
                (Some(_), Some(_)) => Some(DataType::Float),
                _ => None,
            },
        },
        Expr::Unary { op, expr } => match op {
            msql_lang::UnaryOp::Neg => infer_type(expr, sources),
            msql_lang::UnaryOp::Not => Some(DataType::Bool),
        },
        Expr::IsNull { .. }
        | Expr::Like { .. }
        | Expr::Between { .. }
        | Expr::InList { .. }
        | Expr::InSubquery { .. }
        | Expr::Exists { .. } => Some(DataType::Bool),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Database;
    use crate::schema::{ColumnSchema, IndexDef, IndexKind, TableSchema};
    use crate::table::Table;
    use msql_lang::parse_statement;

    fn avis() -> Database {
        let mut db = Database::new("avis");
        let mut cars = Table::new(TableSchema::new(
            "cars",
            vec![
                ColumnSchema::new("code", DataType::Int),
                ColumnSchema::new("cartype", DataType::Char(16)),
                ColumnSchema::new("rate", DataType::Float),
                ColumnSchema::new("carst", DataType::Char(10)),
            ],
        ));
        for (code, ty, rate, st) in [
            (1, "sedan", 39.5, "available"),
            (2, "suv", 59.0, "rented"),
            (3, "sedan", 35.0, "available"),
            (4, "compact", 25.0, "available"),
        ] {
            cars.insert(vec![
                Value::Int(code),
                Value::Str(ty.into()),
                Value::Float(rate),
                Value::Str(st.into()),
            ])
            .unwrap();
        }
        let mut rentals = Table::new(TableSchema::new(
            "rentals",
            vec![
                ColumnSchema::new("code", DataType::Int),
                ColumnSchema::new("client", DataType::Char(20)),
            ],
        ));
        rentals.insert(vec![Value::Int(2), Value::Str("wenders".into())]).unwrap();
        db.insert_table(cars);
        db.insert_table(rentals);
        db
    }

    fn select(db: &Database, sql: &str) -> ResultSet {
        let stmt = parse_statement(sql).unwrap();
        let msql_lang::Statement::Query(q) = stmt else { panic!() };
        let msql_lang::QueryBody::Select(sel) = q.body else { panic!() };
        execute_select(db, &sel).unwrap()
    }

    #[test]
    fn simple_filter_and_projection() {
        let db = avis();
        let rs = select(&db, "SELECT code, rate FROM cars WHERE carst = 'available'");
        assert_eq!(rs.columns.len(), 2);
        assert_eq!(rs.columns[0].name, "code");
        assert_eq!(rs.columns[1].data_type, DataType::Float);
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn star_projection() {
        let db = avis();
        let rs = select(&db, "SELECT * FROM cars");
        assert_eq!(rs.columns.len(), 4);
        assert_eq!(rs.rows.len(), 4);
        assert_eq!(rs.columns[1].name, "cartype");
    }

    #[test]
    fn cross_join_with_predicate() {
        let db = avis();
        let rs = select(
            &db,
            "SELECT cars.code, client FROM cars, rentals WHERE cars.code = rentals.code",
        );
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][1], Value::Str("wenders".into()));
    }

    #[test]
    fn order_by_desc_and_asc() {
        let db = avis();
        let rs = select(&db, "SELECT code FROM cars ORDER BY rate DESC, code");
        let codes: Vec<_> = rs.rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(codes, vec![Value::Int(2), Value::Int(1), Value::Int(3), Value::Int(4)]);
    }

    #[test]
    fn distinct_dedups() {
        let db = avis();
        let rs = select(&db, "SELECT DISTINCT cartype FROM cars");
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn global_aggregates() {
        let db = avis();
        let rs =
            select(&db, "SELECT COUNT(*), MIN(rate), MAX(rate), AVG(rate), SUM(code) FROM cars");
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(4));
        assert_eq!(rs.rows[0][1], Value::Float(25.0));
        assert_eq!(rs.rows[0][2], Value::Float(59.0));
        assert_eq!(rs.rows[0][4], Value::Int(10));
    }

    #[test]
    fn aggregate_on_empty_input_returns_one_row() {
        let db = avis();
        let rs = select(&db, "SELECT COUNT(*), MIN(rate) FROM cars WHERE code > 99");
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(0));
        assert_eq!(rs.rows[0][1], Value::Null);
    }

    #[test]
    fn coalesce_is_typed_when_its_arguments_agree() {
        let db = avis();
        let sql = "SELECT COALESCE(SUM(code), 0), COALESCE(MIN(code), MIN(rate)) FROM cars \
                   WHERE code > 99 GROUP BY cartype";
        let rs = select(&db, sql);
        assert!(rs.rows.is_empty());
        let types: Vec<_> = rs.columns.iter().map(|c| c.data_type).collect();
        assert_eq!(types, [DataType::Int, DataType::Char(0)], "no row to read a type from");
    }

    #[test]
    fn group_by_with_having() {
        let db = avis();
        let rs = select(
            &db,
            "SELECT cartype, COUNT(*) AS n FROM cars GROUP BY cartype HAVING COUNT(*) > 1",
        );
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Str("sedan".into()));
        assert_eq!(rs.rows[0][1], Value::Int(2));
        assert_eq!(rs.columns[1].name, "n");
    }

    #[test]
    fn scalar_subquery_in_where() {
        let db = avis();
        let rs = select(&db, "SELECT code FROM cars WHERE rate = (SELECT MIN(rate) FROM cars)");
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(4));
    }

    #[test]
    fn paper_min_free_seat_pattern() {
        // The §3.4 reservation pattern: pick the row with the lowest key
        // among those in a given state.
        let db = avis();
        let rs = select(
            &db,
            "SELECT code FROM cars WHERE code = (SELECT MIN(code) FROM cars WHERE carst = 'available')",
        );
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(1));
    }

    #[test]
    fn correlated_subquery() {
        let db = avis();
        // Cars that appear in rentals (correlated EXISTS).
        let rs = select(
            &db,
            "SELECT code FROM cars WHERE EXISTS (SELECT 1 FROM rentals WHERE rentals.code = cars.code)",
        );
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(2));
    }

    #[test]
    fn in_subquery() {
        let db = avis();
        let rs = select(&db, "SELECT code FROM cars WHERE code NOT IN (SELECT code FROM rentals)");
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn count_distinct() {
        let db = avis();
        let rs = select(&db, "SELECT COUNT(DISTINCT cartype) FROM cars");
        assert_eq!(rs.rows[0][0], Value::Int(3));
    }

    #[test]
    fn empty_from_table_yields_no_rows() {
        let mut db = avis();
        db.insert_table(Table::new(TableSchema::new(
            "empty",
            vec![ColumnSchema::new("x", DataType::Int)],
        )));
        let rs = select(&db, "SELECT cars.code FROM cars, empty");
        assert_eq!(rs.rows.len(), 0);
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let db = avis();
        let try_select = |sql: &str| {
            let stmt = parse_statement(sql).unwrap();
            let msql_lang::Statement::Query(q) = stmt else { panic!() };
            let msql_lang::QueryBody::Select(sel) = q.body else { panic!() };
            execute_select(&db, &sel)
        };
        assert!(matches!(try_select("SELECT x FROM nonexistent"), Err(DbError::UnknownTable(_))));
        assert!(matches!(
            try_select("SELECT nonexistent FROM cars"),
            Err(DbError::UnknownColumn(_))
        ));
    }

    #[test]
    fn scalar_subquery_cardinality_error() {
        let db = avis();
        let stmt =
            parse_statement("SELECT code FROM cars WHERE rate = (SELECT rate FROM cars)").unwrap();
        let msql_lang::Statement::Query(q) = stmt else { panic!() };
        let msql_lang::QueryBody::Select(sel) = q.body else { panic!() };
        assert!(matches!(execute_select(&db, &sel), Err(DbError::SubqueryCardinality)));
    }

    #[test]
    fn table_alias_binding() {
        let db = avis();
        let rs = select(&db, "SELECT c.code FROM cars c WHERE c.carst = 'rented'");
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(2));
    }

    fn parse_select(sql: &str) -> Select {
        let stmt = parse_statement(sql).unwrap();
        let msql_lang::Statement::Query(q) = stmt else { panic!() };
        let msql_lang::QueryBody::Select(sel) = q.body else { panic!() };
        sel
    }

    #[test]
    fn hash_join_matches_cross_product_semantics() {
        let mut db = avis();
        // Joins cars on rate with Int/Float type mixing and a NULL key.
        let mut quotes = Table::new(TableSchema::new(
            "quotes",
            vec![ColumnSchema::new("q", DataType::Int), ColumnSchema::new("rate", DataType::Float)],
        ));
        for (q, r) in [
            (1, Value::Int(59)),
            (2, Value::Float(25.0)),
            (3, Value::Null),
            (4, Value::Float(99.0)),
        ] {
            quotes.insert(vec![Value::Int(q), r]).unwrap();
        }
        db.insert_table(quotes);
        let sel =
            parse_select("SELECT cars.code, q FROM cars, quotes WHERE cars.rate = quotes.rate");
        let fast = execute_select_with(&db, &sel, &[], true).unwrap();
        let slow = execute_select_with(&db, &sel, &[], false).unwrap();
        assert_eq!(fast.rows, slow.rows, "hash path reproduces the cross product exactly");
        // Int 59 matched Float 59.0; the NULL key matched nothing.
        assert_eq!(fast.rows.len(), 2);
    }

    #[test]
    fn hash_join_keeps_residual_predicates() {
        let db = avis();
        let sel = parse_select(
            "SELECT cars.code FROM cars, rentals
             WHERE cars.code = rentals.code AND cars.rate > 1000",
        );
        let rs = execute_select(&db, &sel).unwrap();
        assert_eq!(rs.rows.len(), 0, "non-key conjuncts still filter the matches");
    }

    #[test]
    fn hash_join_preserves_enumeration_order() {
        let db = avis();
        let sel = parse_select(
            "SELECT cars.code, client FROM cars, rentals WHERE cars.code = rentals.code",
        );
        let fast = execute_select_with(&db, &sel, &[], true).unwrap();
        let slow = execute_select_with(&db, &sel, &[], false).unwrap();
        assert_eq!(fast.rows, slow.rows);
        assert_eq!(fast.columns, slow.columns);
    }

    #[test]
    fn top_k_is_the_head_of_the_full_sort() {
        let mut state = 0xC0FF_EE11u64;
        let mut below = |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for case in 0..300 {
            let n = [0, 1, 2, 5, 40, 200][case % 6];
            let order: Vec<SortOrder> = (0..1 + below(3))
                .map(|_| if below(2) == 0 { SortOrder::Asc } else { SortOrder::Desc })
                .collect();
            // Few distinct values per key: ties everywhere, NULLs among them.
            let keys: Vec<Cow<'_, Value>> = (0..n * order.len())
                .map(|_| match below(5) {
                    0 => Cow::Owned(Value::Null),
                    v => Cow::Owned(Value::Int(v as i64)),
                })
                .collect();
            // A stable sort of all the rows, ties in enumeration order.
            let mut full: Vec<usize> = (0..n).collect();
            full.sort_by(|a, b| {
                let (ka, kb) = (&keys[a * order.len()..], &keys[b * order.len()..]);
                (0..order.len())
                    .map(|i| match order[i] {
                        SortOrder::Asc => ka[i].total_cmp(&kb[i]),
                        SortOrder::Desc => kb[i].total_cmp(&ka[i]),
                    })
                    .find(|o| *o != Ordering::Equal)
                    .unwrap_or(Ordering::Equal)
            });
            assert_eq!(sorted_order(n, &keys, &order, None), full, "case {case}");
            for k in [0, 1, 2, 3, 7, n / 2, n.saturating_sub(1), n, n + 1, 10 * n] {
                let head = &full[..k.min(n)];
                assert_eq!(
                    sorted_order(n, &keys, &order, Some(k as u64)),
                    head,
                    "case {case}, {k}"
                );
            }
        }
    }

    #[test]
    fn top_k_projects_only_what_it_keeps_unless_an_item_can_raise() {
        let db = big_avis(300);
        // Plain columns: the ten rows kept, whatever the rest would give.
        let top = select(&db, "SELECT code, cartype FROM cars ORDER BY rate DESC, code LIMIT 10");
        let all = select(&db, "SELECT code, cartype FROM cars ORDER BY rate DESC, code");
        assert_eq!(top.rows, all.rows[..10]);
        assert_eq!(select(&db, "SELECT code FROM cars ORDER BY rate LIMIT 0").rows.len(), 0);
        assert_eq!(select(&db, "SELECT * FROM cars ORDER BY code DESC LIMIT 999").rows.len(), 300);
        // An item that raises only for rows outside the top one (the product
        // overflows from code 2 on) still fails the statement, as it does
        // without the LIMIT.
        for limit in ["", " LIMIT 1"] {
            let sql = format!("SELECT code * 9223372036854775807 FROM cars ORDER BY code{limit}");
            let cache = SubqueryCache::new();
            let run = prepare_select(&db, &parse_select(&sql), None, &cache)
                .and_then(|plan| plan.collect(None, true, &AccessStats::default()));
            assert!(
                matches!(&run, Err(DbError::TypeError(e)) if e.contains("overflow")),
                "{sql}: {run:?}"
            );
        }
    }

    #[test]
    fn qualified_star() {
        let db = avis();
        let rs = select(&db, "SELECT r.* FROM cars c, rentals r WHERE c.code = r.code");
        assert_eq!(rs.columns.len(), 2);
        assert_eq!(rs.columns[0].name, "code");
        assert_eq!(rs.columns[1].name, "client");
    }

    fn indexed_avis() -> Database {
        let mut db = avis();
        let cars = db.table_mut("cars").unwrap();
        cars.create_index(IndexDef::new("cars_code", "code", IndexKind::BTree)).unwrap();
        cars.create_index(IndexDef::new("cars_type", "cartype", IndexKind::Hash)).unwrap();
        db
    }

    fn run_stats(db: &Database, sql: &str) -> (ResultSet, AccessStats) {
        let sel = parse_select(sql);
        let stats = AccessStats::default();
        let rs = execute_select_stats(db, &sel, &stats).unwrap();
        (rs, stats)
    }

    #[test]
    fn point_probe_uses_index_and_matches_scan() {
        let db = indexed_avis();
        for sql in [
            "SELECT code, rate FROM cars WHERE code = 3",
            "SELECT code FROM cars WHERE 3 = code",
            "SELECT code FROM cars WHERE cartype = 'sedan'",
            "SELECT code FROM cars WHERE code = 2.0",
        ] {
            let sel = parse_select(sql);
            let fast = execute_select_with(&db, &sel, &[], true).unwrap();
            let slow = execute_select_with(&db, &sel, &[], false).unwrap();
            assert_eq!(fast.rows, slow.rows, "{sql}");
            let (_, stats) = run_stats(&db, sql);
            assert!(stats.probed.get(), "{sql} should probe");
            assert!(stats.rows_scanned.get() < 4, "{sql} should not scan the whole table");
        }
    }

    #[test]
    fn in_and_range_probes_match_scan() {
        let db = indexed_avis();
        for sql in [
            "SELECT code FROM cars WHERE code IN (1, 3, 99)",
            "SELECT code FROM cars WHERE code > 2",
            "SELECT code FROM cars WHERE code >= 2 AND code < 4",
            "SELECT code FROM cars WHERE code BETWEEN 2 AND 3",
            "SELECT code FROM cars WHERE 3 <= code",
        ] {
            let sel = parse_select(sql);
            let fast = execute_select_with(&db, &sel, &[], true).unwrap();
            let slow = execute_select_with(&db, &sel, &[], false).unwrap();
            assert_eq!(fast.rows, slow.rows, "{sql}");
            let (_, stats) = run_stats(&db, sql);
            assert!(stats.probed.get(), "{sql} should probe");
        }
    }

    #[test]
    fn probe_keeps_residual_conjuncts() {
        let db = indexed_avis();
        // The probe on `code` over-selects relative to the full predicate;
        // the residual WHERE re-check must still filter.
        let (rs, stats) =
            run_stats(&db, "SELECT code FROM cars WHERE code IN (1, 2, 3) AND carst = 'available'");
        assert!(stats.probed.get());
        let codes: Vec<_> = rs.rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(codes, vec![Value::Int(1), Value::Int(3)]);
    }

    #[test]
    fn null_and_impossible_probes_select_nothing() {
        let db = indexed_avis();
        for sql in [
            "SELECT code FROM cars WHERE code = NULL",
            "SELECT code FROM cars WHERE code > NULL",
            "SELECT code FROM cars WHERE code > 3 AND code < 2",
        ] {
            let sel = parse_select(sql);
            let fast = execute_select_with(&db, &sel, &[], true).unwrap();
            let slow = execute_select_with(&db, &sel, &[], false).unwrap();
            assert_eq!(fast.rows, slow.rows, "{sql}");
            assert!(fast.rows.is_empty(), "{sql}");
        }
    }

    #[test]
    fn unindexed_or_unsargable_predicates_fall_back_to_scan() {
        let db = indexed_avis();
        for sql in [
            "SELECT code FROM cars WHERE rate = 25.0", // no index on rate
            "SELECT code FROM cars WHERE cartype > 'a'", // hash index cannot range
            "SELECT code FROM cars WHERE code = 1 OR code = 2", // disjunction
            "SELECT code FROM cars WHERE code NOT IN (1, 2)", // negated
        ] {
            let (_, stats) = run_stats(&db, sql);
            assert!(!stats.probed.get(), "{sql} must scan");
            assert_eq!(stats.rows_scanned.get(), 4, "{sql}");
        }
    }

    #[test]
    fn index_feeds_join_build_side() {
        let db = indexed_avis();
        let sql = "SELECT cars.code, client FROM cars, rentals WHERE cars.code = rentals.code";
        let sel = parse_select(sql);
        let fast = execute_select_with(&db, &sel, &[], true).unwrap();
        let slow = execute_select_with(&db, &sel, &[], false).unwrap();
        assert_eq!(fast.rows, slow.rows);
        let (_, stats) = run_stats(&db, sql);
        assert!(stats.probed.get(), "join build side should come from the index");
        assert_eq!(stats.index_hits.get(), 1);
    }

    #[test]
    fn index_join_respects_sarg_reduced_source() {
        let db = indexed_avis();
        // The sarg probe shrinks `cars` to code=1 before the join feed; the
        // index still covers the whole table, so the join must filter its
        // hits through the reduced source (code=2 would otherwise match).
        let sql = "SELECT cars.code, client FROM cars, rentals \
                   WHERE cars.code = rentals.code AND cars.code = 1";
        let sel = parse_select(sql);
        let fast = execute_select_with(&db, &sel, &[], true).unwrap();
        let slow = execute_select_with(&db, &sel, &[], false).unwrap();
        assert_eq!(fast.rows, slow.rows);
        assert!(fast.rows.is_empty());
    }

    #[test]
    fn ndv_pricing_skips_low_cardinality_probes() {
        let mut db = indexed_avis();
        let cars = db.table_mut("cars").unwrap();
        cars.create_index(IndexDef::new("cars_st", "carst", IndexKind::Hash)).unwrap();
        cars.analyze();
        // carst has 2 distinct values over 4 rows: an equality probe expects
        // half the table, so it is priced out in favour of the scan.
        let (rs, stats) = run_stats(&db, "SELECT code FROM cars WHERE carst = 'available'");
        assert_eq!(rs.rows.len(), 3);
        assert!(!stats.probed.get(), "low-NDV equality must scan once analyzed");
        // code is unique: the probe stays the cheaper path.
        let (_, stats) = run_stats(&db, "SELECT code FROM cars WHERE code = 3");
        assert!(stats.probed.get(), "high-NDV equality still probes");
        // An IN list covering 3 of the 4 distinct keys is priced out too.
        let (rs, stats) = run_stats(&db, "SELECT code FROM cars WHERE code IN (1, 2, 3)");
        assert_eq!(rs.rows.len(), 3);
        assert!(!stats.probed.get(), "wide IN must scan once analyzed");
    }

    #[test]
    fn probe_preserves_id_order_and_counts() {
        let db = indexed_avis();
        let (rs, stats) = run_stats(&db, "SELECT code FROM cars WHERE code IN (3, 1)");
        // Candidates come back in id order regardless of probe value order.
        let codes: Vec<_> = rs.rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(codes, vec![Value::Int(1), Value::Int(3)]);
        assert_eq!(stats.index_hits.get(), 2);
        assert_eq!(stats.rows_scanned.get(), 2);
    }

    /// `cars` grown to `n` rows (codes 1..=n), `rentals` as in [`avis`].
    fn big_avis(n: i64) -> Database {
        let mut db = avis();
        let cars = db.table_mut("cars").unwrap();
        for code in 5..=n {
            cars.insert(vec![
                Value::Int(code),
                Value::Str(["sedan", "suv", "compact"][code as usize % 3].into()),
                Value::Float(20.0 + (code % 40) as f64),
                Value::Str("available".into()),
            ])
            .unwrap();
        }
        db
    }

    /// Runs `sql` with a cache the test can read afterwards.
    fn run_cached(db: &Database, sql: &str) -> (Result<ResultSet, DbError>, SubqueryCache) {
        let cache = SubqueryCache::new();
        let rs = prepare_select(db, &parse_select(sql), None, &cache)
            .and_then(|plan| plan.collect(None, true, &AccessStats::default()));
        (rs, cache)
    }

    #[test]
    fn uncorrelated_subqueries_run_once_per_statement() {
        let db = big_avis(1000);
        for (sql, rows) in [
            ("SELECT code FROM cars WHERE code NOT IN (SELECT code FROM rentals)", 999),
            ("SELECT code FROM cars WHERE EXISTS (SELECT 1 FROM rentals)", 1000),
            ("SELECT code FROM cars WHERE rate = (SELECT MIN(rate) FROM cars)", 25),
        ] {
            let (rs, cache) = run_cached(&db, sql);
            assert_eq!(rs.unwrap().rows.len(), rows, "{sql}");
            assert_eq!(cache.executions(), 1, "{sql}");
            assert_eq!(cache.len(), 1, "{sql}");
        }
    }

    #[test]
    fn correlated_subqueries_run_per_outer_row() {
        let db = big_avis(50);
        let (rs, cache) = run_cached(
            &db,
            "SELECT code FROM cars WHERE EXISTS (SELECT 1 FROM rentals WHERE rentals.code = cars.code)",
        );
        assert_eq!(rs.unwrap().rows, vec![vec![Value::Int(2)]]);
        assert_eq!(cache.executions(), 50);
        assert!(cache.is_empty(), "a correlated result is never reused");
        // Correlated two levels out: the middle block is correlated too.
        let (rs, cache) = run_cached(
            &db,
            "SELECT code FROM cars c WHERE code < 4 AND EXISTS (SELECT 1 FROM rentals r \
             WHERE r.code IN (SELECT x.code FROM cars x WHERE x.code = c.code))",
        );
        assert_eq!(rs.unwrap().rows, vec![vec![Value::Int(2)]]);
        assert_eq!(cache.executions(), 3 + 3, "3 outer rows x (EXISTS + its IN over 1 rental)");
        assert!(cache.is_empty());
    }

    #[test]
    fn subquery_errors_are_raised_only_when_evaluated() {
        let mut db = avis();
        db.insert_table(Table::new(TableSchema::new(
            "empty",
            vec![ColumnSchema::new("x", DataType::Int)],
        )));
        // Over an empty table the unknown column is never evaluated.
        for sql in [
            "SELECT code FROM cars WHERE code IN (SELECT nonexistent FROM empty)",
            "SELECT code FROM cars WHERE EXISTS (SELECT nonexistent FROM empty)",
            "SELECT code FROM cars WHERE code = (SELECT nonexistent FROM empty)",
            // An unknown table in a subquery no row reaches.
            "SELECT x FROM empty WHERE x IN (SELECT y FROM nowhere)",
            "SELECT code FROM cars WHERE FALSE AND code IN (SELECT y FROM nowhere)",
        ] {
            let (rs, _) = run_cached(&db, sql);
            assert_eq!(rs.unwrap().rows.len(), 0, "{sql}");
        }
        for (sql, unknown_column) in [
            ("SELECT code FROM cars WHERE code IN (SELECT nonexistent FROM rentals)", true),
            ("SELECT code FROM cars WHERE code IN (SELECT y FROM nowhere)", false),
        ] {
            let (rs, _) = run_cached(&db, sql);
            match rs {
                Err(DbError::UnknownColumn(_)) if unknown_column => {}
                Err(DbError::UnknownTable(_)) if !unknown_column => {}
                other => panic!("{sql}: {other:?}"),
            }
        }
    }

    #[test]
    fn binding_is_per_statement_not_per_row() {
        use crate::eval::RESOLUTIONS;
        let resolutions = |db: &Database, sql: &str| {
            let before = RESOLUTIONS.with(Cell::get);
            let (rs, _) = run_cached(db, sql);
            let rows = rs.unwrap().rows.len();
            (RESOLUTIONS.with(Cell::get) - before, rows)
        };
        let (small, large) = (big_avis(10), big_avis(10_000));
        for sql in [
            "SELECT code, rate * 2 FROM cars WHERE carst = 'available' AND rate > 30 ORDER BY rate, code",
            "SELECT cartype, COUNT(*), SUM(rate), MAX(code) FROM cars GROUP BY cartype \
             HAVING COUNT(*) > 1 ORDER BY cartype",
            "SELECT c.code FROM cars c WHERE c.code IN (1, 2, 3) OR EXISTS \
             (SELECT 1 FROM rentals r WHERE r.code = c.code AND r.client LIKE 'w%')",
        ] {
            let (few, rows_small) = resolutions(&small, sql);
            let (many, rows_large) = resolutions(&large, sql);
            assert!(few > 0 && rows_large >= rows_small, "{sql}");
            assert_eq!(few, many, "{sql}: names resolved per row");
        }
    }
}
