//! Planning of cross-database joins (paper §4.3, §5): the *decide* third of
//! plan → sequence → talk.
//!
//! The paper argues that multidatabase optimisation is about *data flow
//! control* — which site reduces, what crosses the wire, in what order the
//! coordinator combines partials — rather than individual database
//! operations. [`plan_join`] makes every such decision before a row moves and
//! returns it as a value, a [`JoinPlan`], which
//! [`crate::executor::Executor::run_join`] writes as one DOL program — the
//! coordinator's `COMBINE` and the partials that travel straight to its LAM,
//! after the reducer's own program only when its keys filter another
//! travelling site — and runs like any other statement's. It is a pure
//! function of the decomposition, the routes, the session's three data-flow
//! switches and — the ingredient the heuristics lacked — per-site statistics.
//! Each LDBS collects them locally with `ANALYZE` ([`ldbs::stats`]), the
//! coordinator pulls them over the `STATS` wire exchange
//! ([`crate::wire::SiteTableStats`]) and assembles a [`PlannerContext`],
//! against which every decomposed subquery's shipped rows and bytes are
//! estimated.
//!
//! The estimates drive four decisions of [`plan_join`]:
//!
//! * **who stays home** — the coordinator, whose subquery is materialised in
//!   place and never crosses the network, becomes the non-reducer site with
//!   the largest estimated partial in bytes, so the small sides travel;
//! * **reducer choice** — the semi-join reducer becomes the subquery with the
//!   smallest estimated partial, not the one with the most WHERE conjuncts;
//! * **reduce-or-not, per edge** — the key set ships iff the bytes it is
//!   predicted to prune from the target's partial exceed the bytes of the key
//!   list itself, replacing the fixed [`DEFAULT_SEMIJOIN_CAP`]. The key list
//!   exists only once the reducer has run, so the plan carries each edge's
//!   rule with its NDV and target bytes priced in, and
//!   [`ReductionEdge::ships`] finishes the decision at run time as a pure
//!   function of `(edge, keys)`;
//! * **global join order** — the modified global query's FROM list is sorted
//!   by ascending estimated partial cardinality.
//!
//! Every decision degrades independently: a database with no (or stale)
//! statistics simply contributes no estimate, and the affected decision falls
//! back to the pre-statistics heuristic, byte-for-byte.

use crate::error::MdbsError;
use crate::translate::plangen::route_for;
use crate::translate::{DbRoute, DbSubquery, Decomposition, JoinKey, PushdownPlan};
use crate::wire::SiteTableStats;
use ldbs::engine::ResultSet;
use ldbs::eval::{literal_value, value_literal};
use ldbs::stats::{ColumnStats, TableStats};
use ldbs::value::{CanonicalKey, Value};
use msql_lang::printer::print_select;
use msql_lang::{BinaryOp, ColumnRef, Expr, Literal, Select, SelectItem, TableRef, UnaryOp};
use std::collections::HashMap;

/// Default per-edge cap on the distinct key values shipped as a semi-join
/// `IN (…)` filter. This is the *no-statistics fallback*: when the cost
/// planner has fresh estimates for both ends of an edge, the decision is an
/// estimated-bytes comparison instead and the cap does not apply.
pub const DEFAULT_SEMIJOIN_CAP: usize = 256;

/// Selectivity assumed for a conjunct the estimator cannot price (an
/// arithmetic comparison, a LIKE, a subquery…).
pub const UNKNOWN_SELECTIVITY: f64 = 1.0 / 3.0;

/// Estimated byte width of a column the statistics say nothing about.
const DEFAULT_COLUMN_WIDTH: f64 = 8.0;

/// Extra mutations a statistics snapshot tolerates before the planner stops
/// trusting it (slack for tiny tables, where a handful of inserts would
/// otherwise invalidate perfectly serviceable statistics).
pub const STALENESS_SLACK: u64 = 16;

/// Whether a statistics snapshot is still fresh enough to plan with: the
/// mutations since `ANALYZE` must not exceed half the analyzed row count
/// (plus [`STALENESS_SLACK`]). Beyond that the estimates are as likely to
/// mislead as the heuristics they replace.
pub fn is_fresh(s: &SiteTableStats) -> bool {
    s.dml_since <= s.stats.row_count / 2 + STALENESS_SLACK
}

/// Estimated size of one shipped partial result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Expected row count.
    pub rows: f64,
    /// Expected payload bytes (rows × estimated row width).
    pub bytes: f64,
}

/// The coordinator's statistics context for one statement: database →
/// table → snapshot, fresh snapshots only (see [`is_fresh`]).
#[derive(Debug, Clone, Default)]
pub struct PlannerContext {
    tables: HashMap<String, HashMap<String, SiteTableStats>>,
}

impl PlannerContext {
    /// Installs one database's exported statistics, keeping only snapshots
    /// that are still [`is_fresh`].
    pub fn insert_db(&mut self, database: &str, tables: Vec<SiteTableStats>) {
        let entry = self.tables.entry(database.to_ascii_lowercase()).or_default();
        for t in tables {
            if is_fresh(&t) {
                entry.insert(t.table.to_ascii_lowercase(), t);
            }
        }
    }

    /// True when no usable snapshot was installed at all.
    pub fn is_empty(&self) -> bool {
        self.tables.values().all(|t| t.is_empty())
    }

    /// The snapshot for `database.table`, if fresh statistics exist.
    pub fn table(&self, database: &str, table: &str) -> Option<&TableStats> {
        self.tables
            .get(&database.to_ascii_lowercase())?
            .get(&table.to_ascii_lowercase())
            .map(|s| &s.stats)
    }

    /// Estimates one decomposed subquery's shipped partial. `None` when any
    /// table it reads lacks fresh statistics — the caller must then keep the
    /// heuristic path for every decision involving this subquery.
    pub fn estimate_subquery(&self, sub: &DbSubquery) -> Option<Estimate> {
        self.estimate_select(&sub.database, &sub.select)
    }

    /// Estimates an arbitrary single-database SELECT (rows after the WHERE,
    /// bytes after projection).
    pub fn estimate_select(&self, database: &str, sel: &Select) -> Option<Estimate> {
        let bindings = self.bindings(database, sel)?;
        let mut rows: f64 = 1.0;
        for (_, ts) in &bindings {
            rows *= ts.row_count as f64;
        }
        if let Some(w) = &sel.where_clause {
            rows *= selectivity(w, &bindings);
        }
        let bytes = rows * row_width(sel, &bindings);
        Some(Estimate { rows, bytes })
    }

    /// NDV of `binding.column` inside `sub` — prices a semi-join filter
    /// shipped *to* that subquery (`min(1, keys / ndv)` of its rows survive).
    pub fn join_key_ndv(&self, sub: &DbSubquery, binding: &str, column: &str) -> Option<u64> {
        let bindings = self.bindings(&sub.database, &sub.select)?;
        let want = binding.to_ascii_lowercase();
        let (_, ts) = bindings.iter().find(|(name, _)| *name == want)?;
        ts.column(column).map(|c| c.ndv)
    }

    /// Resolves a SELECT's FROM list to `(binding name, statistics)` pairs.
    /// `None` as soon as one table has no fresh snapshot.
    fn bindings<'a>(
        &'a self,
        database: &str,
        sel: &Select,
    ) -> Option<Vec<(String, &'a TableStats)>> {
        let mut out = Vec::with_capacity(sel.from.len());
        for tref in &sel.from {
            let ts = self.table(database, tref.table.as_str())?;
            out.push((tref.binding_name().to_ascii_lowercase(), ts));
        }
        Some(out)
    }
}

/// What one site of a cross-database join is sent.
#[derive(Debug, Clone, PartialEq)]
pub struct SitePlan {
    /// The database whose LAM evaluates the subquery.
    pub database: String,
    /// The subquery as decomposed. A site of a classic plan runs it as is
    /// unless a reduction edge ships it a key filter; either way it is the
    /// baseline `EXPLAIN` has a rewritten site measure as well.
    pub sql: String,
    /// A pushdown plan's site query — partial aggregates or a site-local
    /// top-k, by kind (`agg` / `topk`) — which the site runs instead.
    pub pushed: Option<(&'static str, String)>,
    /// Estimated rows of the subquery *as decomposed* (fresh statistics
    /// only), so EXPLAIN can show estimated vs. actual.
    pub est_rows: Option<u64>,
}

/// How one reduction edge's ship-or-not is finished once the reducer's keys
/// are known.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeRule {
    /// No statistics: ship a key set of at most this many values.
    Cap(usize),
    /// Both ends estimated: ship iff the bytes the filter prunes from the
    /// target's partial (`bytes`, estimated unreduced) exceed the key list's
    /// own. `min(1, keys/ndv)` of the target's rows survive a k-key filter
    /// under uniformity, `ndv` being the filtered column's distinct values
    /// there; without one the filter is presumed to prune nothing.
    Bytes { ndv: Option<u64>, bytes: f64 },
}

/// An estimate is a finite number, so a rule always equals itself.
impl Eq for EdgeRule {}

/// One semi-join opportunity: the reducer's distinct values of `key_column`
/// may travel to site `target` as a filter on its `binding.column`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionEdge<'a> {
    /// Column of the reducer's partial that holds the key values.
    pub key_column: &'a str,
    /// Index (in [`JoinPlan::sites`]) of the site the filter goes to.
    pub target: usize,
    /// The target's subquery as decomposed, which the filter is ANDed onto.
    pub select: &'a Select,
    /// FROM binding and name of the filtered column at the target.
    pub binding: &'a str,
    pub column: &'a str,
    /// Ship-or-not, up to the key list.
    pub rule: EdgeRule,
}

impl ReductionEdge<'_> {
    /// The key set this edge may ship: the distinct non-NULL values of its
    /// key column in the reducer's `partial`, sorted. `None` when the partial
    /// has no such column.
    pub fn keys(&self, partial: &ResultSet) -> Option<Vec<Value>> {
        let col = partial.columns.iter().position(|c| c.name == self.key_column)?;
        let mut values: Vec<Value> =
            partial.rows.iter().map(|r| r[col].clone()).filter(|v| !v.is_null()).collect();
        values.sort_by(|a, b| a.total_cmp(b));
        values.dedup_by(|a, b| a.total_cmp(b) == std::cmp::Ordering::Equal);
        Some(values)
    }

    /// Whether the reducer's distinct `keys` ship along this edge; when not,
    /// the target ships its full partial. An empty key set always ships — the
    /// filter is free and prunes everything.
    pub fn ships(&self, keys: &[Value]) -> bool {
        let survives =
            |ndv: u64| if ndv == 0 { 0.0 } else { (keys.len() as f64 / ndv as f64).min(1.0) };
        match self.rule {
            _ if keys.is_empty() => true,
            EdgeRule::Cap(cap) => keys.len() <= cap,
            EdgeRule::Bytes { ndv, bytes } => {
                let key_bytes: f64 = keys.iter().map(value_width).sum();
                bytes * (1.0 - ndv.map_or(1.0, survives)) > key_bytes
            }
        }
    }

    /// The filter `keys` become at the target: `binding.column IN (…)`, or
    /// for an empty key set `0 = 1` — no key can match; the subquery keeps
    /// its shape (the coordinator still needs its column metadata) but ships
    /// zero rows.
    pub fn filter(&self, keys: &[Value]) -> Expr {
        if keys.is_empty() {
            return Expr::Binary {
                left: Box::new(Expr::Literal(Literal::Int(0))),
                op: BinaryOp::Eq,
                right: Box::new(Expr::Literal(Literal::Int(1))),
            };
        }
        Expr::InList {
            expr: Box::new(Expr::Column(ColumnRef::with_table(self.binding, self.column))),
            list: keys.iter().map(|v| Expr::Literal(value_literal(v))).collect(),
            negated: false,
        }
    }
}

/// How the sites' partials become the statement's one table.
#[derive(Debug, Clone, PartialEq)]
pub enum Combine<'a> {
    /// The classic flow of §4.1: the partials are collected as temporary
    /// tables (each `part_<database>`) in one `database`, "acting as the
    /// coordinator", which evaluates the modified global query Q′
    /// (`sql`) over them. Site `home` *is* that database: it is sent no
    /// partial request — its subquery rides inside the combine and is
    /// materialised in place, reduced there by the reducer's keys, so only
    /// the other sites' rows move, each straight to the coordinator's LAM.
    /// It is never the reducer.
    /// `join_order` is Q′'s FROM order, when the estimates changed it;
    /// `labels` are [`Decomposition::labels`].
    Coordinator {
        database: &'a str,
        home: usize,
        sql: String,
        join_order: Option<String>,
        labels: &'a [(usize, String)],
    },
    /// Aggregate / top-k pushdown: the sites shipped pre-reduced partials and
    /// the MDBS layer merges them — no coordinator round trips.
    Merge(&'a PushdownPlan),
}

/// Everything decided about one cross-database join before a row moves:
/// [reducer] → [other sites] → combine.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPlan<'a> {
    /// One entry per subquery of the decomposition, in its order.
    pub sites: Vec<SitePlan>,
    /// Semi-join reduction (§5's data-flow control): this site runs first and
    /// its distinct join-key values are injected into the other subqueries
    /// as filters, so only matching rows cross the wire. `None` sends every
    /// site its subquery at once.
    pub reducer: Option<usize>,
    /// The join edges leaving the reducer, in the decomposition's order.
    pub edges: Vec<ReductionEdge<'a>>,
    /// What happens to the partials.
    pub combine: Combine<'a>,
    /// The strategy as the join span and `join.strategy` report it: the
    /// coordinator's LDBS hash-joins a two-table Q′ on its equi keys
    /// (`hash`), anything else enumerates the (filtered) cross product
    /// (`product`); `agg-pushdown` / `topk-pushdown` merge here. A classic
    /// plan's name gains the prefix `semijoin+` when an edge did ship.
    pub strategy: &'static str,
    /// Whether fresh estimates for *every* subquery drove the decisions.
    pub costed: bool,
    /// Where each database's LAM listens.
    pub routes: &'a HashMap<String, DbRoute>,
}

impl JoinPlan<'_> {
    /// The subquery site `target` runs given what each edge shipped (`None`:
    /// nothing): its decomposed subquery with every shipped key set's filter
    /// ANDed on, or `None` when no edge into it shipped.
    pub fn reduced_sql(&self, target: usize, shipped: &[Option<Vec<Value>>]) -> Option<String> {
        let filters = self.edges.iter().zip(shipped).filter(|(edge, _)| edge.target == target);
        let mut filters =
            filters.filter_map(|(edge, keys)| Some((edge.select, edge.filter(keys.as_ref()?))));
        let (select, first) = filters.next()?;
        Some(and_filters(select, std::iter::once(first).chain(filters.map(|(_, f)| f))))
    }
}

/// `select` with every one of `filters` ANDed onto its WHERE clause, printed:
/// the subquery a reduced site runs, whether the MDBS layer or the
/// coordinator's LAM reduces it.
pub fn and_filters(select: &Select, filters: impl IntoIterator<Item = Expr>) -> String {
    let mut select = select.clone();
    for filter in filters {
        let filter = Box::new(filter);
        select.where_clause = Some(match select.where_clause.take() {
            Some(w) => Expr::Binary { left: Box::new(w), op: BinaryOp::And, right: filter },
            None => *filter,
        });
    }
    print_select(&select)
}

/// Plans a decomposed cross-database join. `ctx` carries the site statistics
/// (`None`, or a context lacking a table, keeps the heuristic decisions
/// byte-for-byte); `semijoin`, `semijoin_cap` and `agg_pushdown` are the
/// session's data-flow switches. Fails only on a database without a route —
/// before any subquery is dispatched.
pub fn plan_join<'a>(
    dec: &'a Decomposition,
    routes: &'a HashMap<String, DbRoute>,
    ctx: Option<&PlannerContext>,
    semijoin: bool,
    semijoin_cap: usize,
    agg_pushdown: bool,
) -> Result<JoinPlan<'a>, MdbsError> {
    // Estimates exist only when the context holds fresh statistics for
    // *every* table of *every* subquery — a single unanalyzed table keeps the
    // whole join on the heuristics.
    let estimates: Option<Vec<Estimate>> =
        ctx.and_then(|ctx| dec.subqueries.iter().map(|s| ctx.estimate_subquery(s)).collect());
    let costed = estimates.is_some();
    let mut sites = Vec::with_capacity(dec.subqueries.len());
    for (i, sub) in dec.subqueries.iter().enumerate() {
        route_for(routes, &sub.database)?;
        sites.push(SitePlan {
            database: sub.database.clone(),
            sql: print_select(&sub.select),
            pushed: None,
            est_rows: estimates.as_ref().map(|e| e[i].rows.round() as u64),
        });
    }

    // Aggregate/top-k pushdown: when decomposition proved the query
    // eligible, skip the coordinator flow entirely. Any ineligible query
    // carries `pushdown: None` and takes the classic path unchanged.
    if let Some(pushdown) = dec.pushdown.as_ref().filter(|_| agg_pushdown) {
        let (kind, strategy, p) = match pushdown {
            PushdownPlan::Aggregate(p) => ("agg", "agg-pushdown", p),
            PushdownPlan::TopK(p) => ("topk", "topk-pushdown", p),
        };
        for (site, pushed) in sites.iter_mut().zip(&p.sites) {
            site.pushed = Some((kind, print_select(&pushed.select)));
        }
        let (reducer, edges, combine) = (None, Vec::new(), Combine::Merge(pushdown));
        return Ok(JoinPlan { sites, reducer, edges, combine, strategy, costed, routes });
    }

    let n = dec.subqueries.len();
    let reducer = (semijoin && n > 1 && !dec.join_keys.is_empty())
        .then(|| pick_reducer(dec, estimates.as_deref()));
    let edge = |from: &str, key: &'a JoinKey| {
        let (own, other) = (key.side_in(from)?, key.side_opposite(from)?);
        let target = dec.subqueries.iter().position(|s| s.database == other.database)?;
        let sub = &dec.subqueries[target];
        let rule = match (&estimates, ctx) {
            (Some(est), Some(ctx)) => EdgeRule::Bytes {
                ndv: ctx.join_key_ndv(sub, &other.binding, &other.column),
                bytes: est[target].bytes,
            },
            _ => EdgeRule::Cap(semijoin_cap),
        };
        Some(ReductionEdge {
            key_column: &own.part_column,
            target,
            select: &sub.select,
            binding: &other.binding,
            column: &other.column,
            rule,
        })
    };
    let edges = reducer.map_or_else(Vec::new, |r| {
        let from = dec.subqueries[r].database.as_str();
        dec.join_keys.iter().filter_map(|key| edge(from, key)).collect()
    });

    // With estimates, Q′'s FROM list is greedily reordered by ascending
    // estimated partial cardinality, so the coordinator's join builds its
    // smallest intermediates first. A wildcard projection expands in FROM
    // order, so reordering would permute columns — skip it.
    let wildcard = dec
        .global_query
        .items
        .iter()
        .any(|i| matches!(i, SelectItem::Wildcard | SelectItem::QualifiedWildcard(_)));
    let (sql, join_order) = match &estimates {
        Some(est) if n > 1 && !wildcard => {
            let mut global = dec.global_query.clone();
            let est_of = |tref: &TableRef| {
                dec.subqueries
                    .iter()
                    .position(|s| s.part_table == tref.table.as_str())
                    .map_or(f64::MAX, |i| est[i].rows)
            };
            global.from.sort_by(|a, b| est_of(a).total_cmp(&est_of(b)));
            let order = (global.from != dec.global_query.from).then(|| {
                global.from.iter().map(|t| t.table.as_str()).collect::<Vec<_>>().join(",")
            });
            (print_select(&global), order)
        }
        _ => (print_select(&dec.global_query), None),
    };
    let home = pick_coordinator(dec, estimates.as_deref(), reducer);
    let database = dec.subqueries[home].database.as_str();
    let combine = Combine::Coordinator { database, home, sql, join_order, labels: &dec.labels };
    let strategy = if n == 2 && !dec.join_keys.is_empty() { "hash" } else { "product" };
    Ok(JoinPlan { sites, reducer, edges, combine, strategy, costed, routes })
}

/// Chooses the semi-join reducer: among the subqueries on at least one join
/// edge, the best-scoring one, ties broken by plan order. With estimates the
/// score is the smallest estimated partial — the most selective site
/// reduces, whatever its conjunct count; without, the most pushed-down local
/// conjuncts in its WHERE clause — a cheap proxy for selectivity.
fn pick_reducer(dec: &Decomposition, estimates: Option<&[Estimate]>) -> usize {
    let (mut best, mut best_score) = (0usize, f64::NEG_INFINITY);
    for (i, sub) in dec.subqueries.iter().enumerate() {
        if !dec.join_keys.iter().any(|k| k.side_in(&sub.database).is_some()) {
            continue;
        }
        let score = match estimates {
            Some(est) => -est[i].rows,
            None => sub.select.where_clause.iter().flat_map(Expr::conjuncts).count() as f64,
        };
        if score > best_score {
            (best, best_score) = (i, score);
        }
    }
    best
}

/// Chooses the coordinator among the sites that are not the reducer: with
/// estimates the largest partial in bytes — the big side stays home, the
/// small sides travel; without, the decomposition's own rule — the most FROM
/// bindings. Ties go to the earlier site, so this is
/// [`Decomposition::coordinator`] whenever that is not the reducer and
/// nothing is estimated.
fn pick_coordinator(
    dec: &Decomposition,
    estimates: Option<&[Estimate]>,
    reducer: Option<usize>,
) -> usize {
    let score = |i: usize| match estimates {
        Some(est) => est[i].bytes,
        None => dec.subqueries[i].select.from.len() as f64,
    };
    (0..dec.subqueries.len())
        .filter(|&i| Some(i) != reducer)
        .reduce(|best, i| if score(i) > score(best) { i } else { best })
        .expect("a decomposition has a subquery besides the reducer")
}

/// Rough encoded width of one value in a shipped partial, in bytes.
pub fn value_width(v: &Value) -> f64 {
    match v {
        Value::Null => 1.0,
        Value::Int(_) | Value::Float(_) => 8.0,
        Value::Bool(_) => 1.0,
        Value::Str(s) => s.len().clamp(1, 255) as f64,
    }
}

/// Average width of a column, interpolated from its min/max extremes.
fn column_width(col: &ColumnStats) -> f64 {
    match (&col.min, &col.max) {
        (Some(lo), Some(hi)) => (value_width(lo) + value_width(hi)) / 2.0,
        _ => DEFAULT_COLUMN_WIDTH,
    }
}

/// Resolves a column reference against the FROM bindings: the qualified
/// binding when given, otherwise the first binding exporting the name.
fn find_column<'a>(
    bindings: &[(String, &'a TableStats)],
    c: &ColumnRef,
) -> Option<(&'a TableStats, &'a ColumnStats)> {
    if let Some(t) = &c.table {
        let want = t.as_str().to_ascii_lowercase();
        let (_, ts) = bindings.iter().find(|(name, _)| *name == want)?;
        return ts.column(c.column.as_str()).map(|cs| (*ts, cs));
    }
    bindings.iter().find_map(|(_, ts)| ts.column(c.column.as_str()).map(|cs| (*ts, cs)))
}

/// Estimated row width of a projection, in bytes.
fn row_width(sel: &Select, bindings: &[(String, &TableStats)]) -> f64 {
    let mut width = 0.0;
    for item in &sel.items {
        match item {
            SelectItem::Wildcard => {
                for (_, ts) in bindings {
                    width += ts.columns.iter().map(column_width).sum::<f64>();
                }
            }
            SelectItem::QualifiedWildcard(name) => {
                let want = name.as_str().to_ascii_lowercase();
                if let Some((_, ts)) = bindings.iter().find(|(b, _)| *b == want) {
                    width += ts.columns.iter().map(column_width).sum::<f64>();
                }
            }
            SelectItem::Expr { expr, .. } => {
                width += match expr {
                    Expr::Column(c) => find_column(bindings, c)
                        .map_or(DEFAULT_COLUMN_WIDTH, |(_, cs)| column_width(cs)),
                    _ => DEFAULT_COLUMN_WIDTH,
                };
            }
        }
    }
    width.max(1.0)
}

fn literal_key(l: &Literal) -> Option<CanonicalKey> {
    literal_value(l).canonical_key()
}

/// Fraction of a column's rows that are NULL.
fn null_fraction(ts: &TableStats, col: &ColumnStats) -> f64 {
    if ts.row_count == 0 {
        0.0
    } else {
        col.null_count as f64 / ts.row_count as f64
    }
}

/// Selectivity of `column = literal`: zero outside the observed [min, max]
/// envelope, `1/NDV` inside it (uniform over the distinct values).
fn eq_selectivity(col: &ColumnStats, key: &CanonicalKey) -> f64 {
    if col.ndv == 0 {
        return 0.0;
    }
    if let (Some(lo), Some(hi)) = (
        col.min.as_ref().and_then(Value::canonical_key),
        col.max.as_ref().and_then(Value::canonical_key),
    ) {
        if *key < lo || *key > hi {
            return 0.0;
        }
    }
    1.0 / col.ndv as f64
}

/// Selectivity of a `column < / <= / > / >= literal` comparison: the
/// equi-depth histogram's fraction below the key when present, the min/max
/// envelope as a coarse 0-or-1 bound otherwise, [`UNKNOWN_SELECTIVITY`] as
/// the last resort. Scaled by the non-null fraction (NULL never compares).
fn range_selectivity(ts: &TableStats, col: &ColumnStats, op: BinaryOp, key: &CanonicalKey) -> f64 {
    let non_null = 1.0 - null_fraction(ts, col);
    let below = col.histogram_fraction_below(key).or_else(|| {
        let lo = col.min.as_ref().and_then(Value::canonical_key)?;
        let hi = col.max.as_ref().and_then(Value::canonical_key)?;
        if *key < lo {
            Some(0.0)
        } else if *key > hi {
            Some(1.0)
        } else {
            None
        }
    });
    let Some(below) = below else { return UNKNOWN_SELECTIVITY * non_null };
    let frac = match op {
        BinaryOp::Lt | BinaryOp::LtEq => below,
        BinaryOp::Gt | BinaryOp::GtEq => 1.0 - below,
        _ => UNKNOWN_SELECTIVITY,
    };
    (frac * non_null).clamp(0.0, 1.0)
}

/// Selectivity of a predicate over the FROM bindings. Conservative: anything
/// the estimator cannot decompose prices at [`UNKNOWN_SELECTIVITY`], and the
/// result is always clamped into `[0, 1]`.
pub fn selectivity(e: &Expr, bindings: &[(String, &TableStats)]) -> f64 {
    let s = match e {
        Expr::Binary { left, op: BinaryOp::And, right } => {
            selectivity(left, bindings) * selectivity(right, bindings)
        }
        Expr::Binary { left, op: BinaryOp::Or, right } => {
            let (l, r) = (selectivity(left, bindings), selectivity(right, bindings));
            l + r - l * r
        }
        Expr::Unary { op: UnaryOp::Not, expr } => 1.0 - selectivity(expr, bindings),
        Expr::Binary { left, op, right } => comparison_selectivity(left, *op, right, bindings),
        Expr::InList { expr, list, negated } => {
            let s = match expr.as_ref() {
                Expr::Column(c) => find_column(bindings, c)
                    .map(|(_, cs)| {
                        if cs.ndv == 0 {
                            0.0
                        } else {
                            (list.len() as f64 / cs.ndv as f64).min(1.0)
                        }
                    })
                    .unwrap_or(UNKNOWN_SELECTIVITY),
                _ => UNKNOWN_SELECTIVITY,
            };
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        Expr::Between { expr, low, high, negated } => {
            let s = match (expr.as_ref(), low.as_ref(), high.as_ref()) {
                (Expr::Column(c), Expr::Literal(lo), Expr::Literal(hi)) => {
                    match (find_column(bindings, c), literal_key(lo), literal_key(hi)) {
                        (Some((ts, cs)), Some(lo), Some(hi)) => {
                            let below_hi = range_selectivity(ts, cs, BinaryOp::LtEq, &hi);
                            let below_lo = range_selectivity(ts, cs, BinaryOp::Lt, &lo);
                            (below_hi - below_lo).max(0.0)
                        }
                        _ => UNKNOWN_SELECTIVITY,
                    }
                }
                _ => UNKNOWN_SELECTIVITY,
            };
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        Expr::IsNull { expr, negated } => {
            let s = match expr.as_ref() {
                Expr::Column(c) => find_column(bindings, c)
                    .map(|(ts, cs)| null_fraction(ts, cs))
                    .unwrap_or(UNKNOWN_SELECTIVITY),
                _ => UNKNOWN_SELECTIVITY,
            };
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        _ => UNKNOWN_SELECTIVITY,
    };
    s.clamp(0.0, 1.0)
}

/// Selectivity of one `left op right` comparison conjunct.
fn comparison_selectivity(
    left: &Expr,
    op: BinaryOp,
    right: &Expr,
    bindings: &[(String, &TableStats)],
) -> f64 {
    match (left, right) {
        // column op literal (and the mirrored literal op column).
        (Expr::Column(c), Expr::Literal(l)) => column_literal(c, op, l, bindings),
        (Expr::Literal(l), Expr::Column(c)) => column_literal(c, mirror(op), l, bindings),
        // column = column: a local equi-join conjunct — 1 / max(NDV).
        (Expr::Column(a), Expr::Column(b)) if op == BinaryOp::Eq => {
            match (find_column(bindings, a), find_column(bindings, b)) {
                (Some((_, ca)), Some((_, cb))) => {
                    let ndv = ca.ndv.max(cb.ndv);
                    if ndv == 0 {
                        0.0
                    } else {
                        1.0 / ndv as f64
                    }
                }
                _ => UNKNOWN_SELECTIVITY,
            }
        }
        _ => UNKNOWN_SELECTIVITY,
    }
}

fn column_literal(
    c: &ColumnRef,
    op: BinaryOp,
    l: &Literal,
    bindings: &[(String, &TableStats)],
) -> f64 {
    let (Some((ts, cs)), Some(key)) = (find_column(bindings, c), literal_key(l)) else {
        return UNKNOWN_SELECTIVITY;
    };
    match op {
        BinaryOp::Eq => eq_selectivity(cs, &key),
        BinaryOp::NotEq => 1.0 - eq_selectivity(cs, &key),
        BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq => {
            range_selectivity(ts, cs, op, &key)
        }
        _ => UNKNOWN_SELECTIVITY,
    }
}

/// Mirrors a comparison across `=` for `literal op column` conjuncts.
fn mirror(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldbs::schema::{ColumnSchema, TableSchema};
    use ldbs::stats::analyze_table;
    use ldbs::table::Table;
    use ldbs::value::DataType;
    use msql_lang::parser::parse_statement;
    use msql_lang::{QueryBody, Statement};

    /// A `cars` table with `n` rows: code 0..n, carst cycling over three
    /// statuses with heavy skew towards `available`.
    fn cars_stats(n: i64) -> SiteTableStats {
        let mut t = Table::new(TableSchema::new(
            "cars",
            vec![
                ColumnSchema::new("code", DataType::Int),
                ColumnSchema::new("carst", DataType::Char(10)),
            ],
        ));
        for i in 0..n {
            let status = if i % 10 == 0 { "rented" } else { "available" };
            t.insert(vec![Value::Int(i), Value::Str(status.into())]).unwrap();
        }
        SiteTableStats { table: "cars".into(), dml_since: 0, stats: analyze_table(&t) }
    }

    fn select_of(sql: &str) -> Select {
        let Statement::Query(q) = parse_statement(sql).unwrap() else { panic!("not a query") };
        let QueryBody::Select(s) = q.body else { panic!("not a select") };
        s
    }

    fn ctx() -> PlannerContext {
        let mut ctx = PlannerContext::default();
        ctx.insert_db("avis", vec![cars_stats(100)]);
        ctx
    }

    #[test]
    fn equality_estimates_one_over_ndv() {
        let ctx = ctx();
        let sel = select_of("SELECT code FROM cars WHERE code = 7");
        let est = ctx.estimate_select("avis", &sel).unwrap();
        assert!((est.rows - 1.0).abs() < 1e-9, "100 rows / 100 distinct codes, got {}", est.rows);
    }

    #[test]
    fn equality_outside_envelope_is_zero() {
        let ctx = ctx();
        let sel = select_of("SELECT code FROM cars WHERE code = 1000");
        let est = ctx.estimate_select("avis", &sel).unwrap();
        assert_eq!(est.rows, 0.0);
    }

    #[test]
    fn skewed_equality_uses_ndv_not_row_count() {
        // carst has NDV 2: `= 'rented'` estimates half the rows even though
        // the true share is 10% — uniform over distinct values, as designed.
        let ctx = ctx();
        let sel = select_of("SELECT code FROM cars WHERE carst = 'rented'");
        let est = ctx.estimate_select("avis", &sel).unwrap();
        assert!((est.rows - 50.0).abs() < 1e-9, "got {}", est.rows);
    }

    #[test]
    fn range_uses_histogram_fraction() {
        let ctx = ctx();
        let low = ctx
            .estimate_select("avis", &select_of("SELECT code FROM cars WHERE code < 10"))
            .unwrap();
        let high = ctx
            .estimate_select("avis", &select_of("SELECT code FROM cars WHERE code < 90"))
            .unwrap();
        assert!(low.rows < high.rows, "histogram fraction must be monotone");
        assert!(high.rows > 50.0, "< 90 covers most of the table, got {}", high.rows);
    }

    #[test]
    fn conjunction_multiplies_and_or_unions() {
        let ctx = ctx();
        let and = ctx
            .estimate_select(
                "avis",
                &select_of("SELECT code FROM cars WHERE code = 7 AND carst = 'rented'"),
            )
            .unwrap();
        assert!((and.rows - 0.5).abs() < 1e-9, "1/100 × 1/2 of 100 rows, got {}", and.rows);
        let or = ctx
            .estimate_select(
                "avis",
                &select_of("SELECT code FROM cars WHERE code = 7 OR carst = 'rented'"),
            )
            .unwrap();
        assert!(or.rows > and.rows);
    }

    #[test]
    fn in_list_scales_by_ndv_and_null_is_null_fraction() {
        let ctx = ctx();
        let inl = ctx
            .estimate_select("avis", &select_of("SELECT code FROM cars WHERE code IN (1, 2, 3)"))
            .unwrap();
        assert!((inl.rows - 3.0).abs() < 1e-9, "got {}", inl.rows);
        let isnull = ctx
            .estimate_select("avis", &select_of("SELECT code FROM cars WHERE code IS NULL"))
            .unwrap();
        assert_eq!(isnull.rows, 0.0, "no NULL codes were analyzed");
    }

    #[test]
    fn missing_table_yields_no_estimate() {
        let ctx = ctx();
        assert!(ctx.estimate_select("avis", &select_of("SELECT x FROM unknown")).is_none());
        assert!(ctx.estimate_select("hertz", &select_of("SELECT code FROM cars")).is_none());
    }

    #[test]
    fn stale_snapshots_are_dropped_on_insert() {
        let mut stats = cars_stats(100);
        stats.dml_since = 100 / 2 + STALENESS_SLACK + 1;
        assert!(!is_fresh(&stats));
        let mut ctx = PlannerContext::default();
        ctx.insert_db("avis", vec![stats]);
        assert!(ctx.is_empty());
        assert!(ctx.estimate_select("avis", &select_of("SELECT code FROM cars")).is_none());
    }

    #[test]
    fn bytes_scale_with_projection_width() {
        let ctx = ctx();
        let narrow = ctx.estimate_select("avis", &select_of("SELECT code FROM cars")).unwrap();
        let wide = ctx.estimate_select("avis", &select_of("SELECT code, carst FROM cars")).unwrap();
        assert_eq!(narrow.rows, wide.rows);
        assert!(wide.bytes > narrow.bytes);
    }

    #[test]
    fn unknown_conjunct_prices_at_one_third() {
        let ctx = ctx();
        let est = ctx
            .estimate_select("avis", &select_of("SELECT code FROM cars WHERE code + 1 = 2"))
            .unwrap();
        assert!((est.rows - 100.0 * UNKNOWN_SELECTIVITY).abs() < 1e-9);
    }

    // ---- plan_join: pure, so none of this builds a network -------------

    /// `avis.cars c` (two local conjuncts, ≈25 of 100 rows estimated) joined
    /// on `code` with all ten rows of `hertz.cars v`, coordinated at avis.
    fn join(global: &str, pushdown: Option<PushdownPlan>) -> Decomposition {
        use crate::translate::{DbSubquery, JoinSide};
        let sub = |db: &str, sql: &str| DbSubquery {
            database: db.into(),
            select: select_of(sql),
            part_table: format!("part_{db}"),
        };
        let side = |db: &str, binding: &str| JoinSide {
            database: db.into(),
            binding: binding.into(),
            column: "code".into(),
            part_column: format!("b_{binding}_code"),
        };
        Decomposition {
            subqueries: vec![
                sub("avis", "SELECT c.code AS b_c_code FROM cars c WHERE c.carst = 'rented' AND c.code < 50"),
                sub("hertz", "SELECT v.code AS b_v_code FROM cars v"),
            ],
            coordinator: "avis".into(),
            global_query: select_of(global),
            labels: Vec::new(),
            join_keys: vec![JoinKey { left: side("avis", "c"), right: side("hertz", "v") }],
            pushdown,
        }
    }

    const Q: &str = "SELECT part_avis.b_c_code FROM part_avis, part_hertz \
                     WHERE part_avis.b_c_code = part_hertz.b_v_code";

    fn routes() -> HashMap<String, DbRoute> {
        let site = |db: &str| format!("site_{db}");
        let route = |db: &str| DbRoute { database: db.into(), site: site(db), supports_2pc: true };
        ["avis", "hertz"].into_iter().map(|db| (db.to_string(), route(db))).collect()
    }

    fn both_sites() -> PlannerContext {
        let mut ctx = ctx();
        ctx.insert_db("hertz", vec![cars_stats(10)]);
        ctx
    }

    fn keys(n: i64) -> Vec<Value> {
        (0..n).map(Value::Int).collect()
    }

    #[test]
    fn reducer_is_the_smallest_estimate_else_the_most_conjuncts() {
        let (dec, routes, ctx, avis_only) = (join(Q, None), routes(), both_sites(), ctx());
        let plan = |ctx, semijoin| plan_join(&dec, &routes, ctx, semijoin, 256, true).unwrap();
        let heuristic = plan(None, true);
        assert_eq!((heuristic.reducer, heuristic.costed), (Some(0), false), "avis: 2 conjuncts");
        assert_eq!(heuristic.sites[0].est_rows, None);
        let costed = plan(Some(&ctx), true);
        assert_eq!((costed.reducer, costed.costed), (Some(1), true), "hertz: 10 rows < 25");
        assert_eq!(costed.edges[0].target, 0);
        assert_eq!(
            costed.sites.iter().map(|s| s.est_rows).collect::<Vec<_>>(),
            [Some(25), Some(10)]
        );
        assert_eq!(costed, plan(Some(&ctx), true), "planning twice gives equal plans");
        // A context lacking one table keeps the whole join on the heuristics.
        assert_eq!(plan(Some(&avis_only), true), heuristic);
        let off = plan(Some(&ctx), false);
        assert!(off.reducer.is_none() && off.edges.is_empty());
        assert_eq!(off.strategy, "hash");
        assert!(plan_join(&dec, &HashMap::new(), None, true, 256, true).is_err(), "no route");
    }

    #[test]
    fn pushdown_is_planned_iff_enabled_and_eligible() {
        use crate::translate::Pushdown;
        let site = |db: &str, sql| DbSubquery {
            database: db.to_string(),
            select: select_of(sql),
            part_table: format!("part_{db}"),
        };
        let topk = PushdownPlan::TopK(Pushdown {
            sites: vec![
                site("avis", "SELECT c.code FROM cars c LIMIT 3"),
                site("hertz", "SELECT v.code FROM cars v LIMIT 3"),
            ],
            global: select_of("SELECT part_avis.b_c_code FROM part_avis, part_hertz LIMIT 3"),
        });
        let (eligible, not, routes) = (join(Q, Some(topk.clone())), join(Q, None), routes());
        let pushed = plan_join(&eligible, &routes, None, true, 256, true).unwrap();
        assert_eq!(pushed.combine, Combine::Merge(&topk));
        assert_eq!((pushed.strategy, pushed.reducer), ("topk-pushdown", None));
        let site_sql = pushed.sites[1].pushed.as_ref().unwrap();
        assert_eq!((site_sql.0, site_sql.1.contains("LIMIT 3")), ("topk", true));
        for (dec, enabled) in [(&eligible, false), (&not, true)] {
            let classic = plan_join(dec, &routes, None, true, 256, enabled).unwrap();
            assert!(matches!(classic.combine, Combine::Coordinator { .. }), "{classic:?}");
            assert!(classic.sites.iter().all(|s| s.pushed.is_none()));
        }
    }

    #[test]
    fn global_from_is_reordered_only_with_estimates_and_no_wildcard() {
        let (routes, ctx) = (routes(), both_sites());
        let coordinator = |global: &str, ctx| {
            let dec = join(global, None);
            let plan = plan_join(&dec, &routes, ctx, true, 256, true).unwrap();
            let Combine::Coordinator { database, home, sql, join_order, .. } = plan.combine else {
                panic!("classic plan expected")
            };
            assert_eq!(database, dec.subqueries[home].database.as_str());
            (database.to_string(), sql, join_order)
        };
        // hertz (10 rows) reduces, so avis stays home; Q′ starts small.
        let (home, sql, order) = coordinator(Q, Some(&ctx));
        assert!(home == "avis" && sql.contains("FROM part_hertz, part_avis"), "{home}: {sql}");
        assert_eq!(order.as_deref(), Some("part_hertz,part_avis"));
        // Unestimated, avis (2 conjuncts) reduces and hertz coordinates.
        let (home, sql, order) = coordinator(Q, None);
        assert!(home == "hertz" && sql.contains("FROM part_avis, part_hertz"), "{home}: {sql}");
        assert!(order.is_none());
        // A wildcard Q′ expands in FROM order: its columns must not move.
        let (_, sql, order) =
            coordinator(&Q.replace("part_avis.b_c_code FROM", "* FROM"), Some(&ctx));
        assert!(sql.contains("FROM part_avis, part_hertz") && order.is_none(), "{sql}");
    }

    /// `n` sites `db<i>.cars t<i>` chained on `code`; site `i` pushes down
    /// `conjuncts(i)` local conjuncts and binds `bindings(i)` tables.
    fn chain(
        n: usize,
        conjuncts: impl Fn(usize) -> usize,
        bindings: impl Fn(usize) -> usize,
    ) -> (Decomposition, HashMap<String, DbRoute>) {
        use crate::translate::{DbSubquery, JoinSide};
        let side = |i: usize| JoinSide {
            database: format!("db{i}"),
            binding: format!("t{i}"),
            column: "code".into(),
            part_column: format!("b_t{i}_code"),
        };
        let sub = |i: usize| {
            let from: Vec<String> =
                (0..bindings(i)).map(|b| format!("cars t{i}{}", "x".repeat(b))).collect();
            let filter: Vec<String> =
                (0..conjuncts(i)).map(|c| format!("t{i}.code >= -{c}")).collect();
            let filter = if filter.is_empty() {
                String::new()
            } else {
                format!(" WHERE {}", filter.join(" AND "))
            };
            DbSubquery {
                database: format!("db{i}"),
                select: select_of(&format!(
                    "SELECT t{i}.code AS b_t{i}_code FROM {}{filter}",
                    from.join(", ")
                )),
                part_table: format!("part_db{i}"),
            }
        };
        let from: Vec<String> = (0..n).map(|i| format!("part_db{i}")).collect();
        let dec = Decomposition {
            subqueries: (0..n).map(sub).collect(),
            coordinator: "db0".into(),
            global_query: select_of(&format!("SELECT part_db0.b_t0_code FROM {}", from.join(", "))),
            labels: Vec::new(),
            join_keys: (1..n).map(|i| JoinKey { left: side(i - 1), right: side(i) }).collect(),
            pushdown: None,
        };
        let route = |i: usize| {
            let route = DbRoute {
                database: format!("db{i}"),
                site: format!("site{i}"),
                supports_2pc: true,
            };
            (format!("db{i}"), route)
        };
        (dec, (0..n).map(route).collect())
    }

    fn home_of(plan: &JoinPlan) -> usize {
        match &plan.combine {
            Combine::Coordinator { home, database, .. } => {
                assert_eq!(*database, plan.sites[*home].database);
                *home
            }
            Combine::Merge(_) => panic!("classic plan expected"),
        }
    }

    #[test]
    fn the_coordinator_is_never_the_reducer() {
        for n in 2..=5 {
            // Unestimated: whichever site has the most conjuncts reduces, and
            // the first of the others (one binding each) coordinates.
            for r in 0..n {
                let (dec, routes) = chain(n, |i| usize::from(i == r), |_| 1);
                let plan = plan_join(&dec, &routes, None, true, 256, true).unwrap();
                assert_eq!(plan.reducer, Some(r), "n={n}");
                assert_eq!(home_of(&plan), usize::from(r == 0), "n={n} r={r}");
                // Without a reducer the decomposition's own choice stands.
                let off = plan_join(&dec, &routes, None, false, 256, true).unwrap();
                assert_eq!((off.reducer, home_of(&off)), (None, 0), "n={n} r={r}");
            }
            // Estimated: the smallest site reduces; the largest of the rest
            // stays home — also when it is the smallest's neighbour, and
            // whatever the conjunct counts say.
            for small in 0..n {
                let rows =
                    |i: usize| if i == small { 10 } else { 100 * (1 + (i + small) % n) as i64 };
                let mut ctx = PlannerContext::default();
                (0..n).for_each(|i| ctx.insert_db(&format!("db{i}"), vec![cars_stats(rows(i))]));
                let (dec, routes) = chain(n, |i| usize::from(i != small), |_| 1);
                let plan = plan_join(&dec, &routes, Some(&ctx), true, 256, true).unwrap();
                let largest = (0..n).filter(|&i| i != small).max_by_key(|&i| rows(i)).unwrap();
                assert!(plan.costed);
                assert_eq!((plan.reducer, home_of(&plan)), (Some(small), largest), "n={n}");
            }
        }
    }

    #[test]
    fn the_largest_estimate_stays_home_else_the_most_bindings() {
        // No join reducer in the way: db1's 1 000 rows stay home (db2's self
        // product is 400).
        let (dec, routes) = chain(3, |_| 0, |i| 1 + usize::from(i == 2));
        let mut ctx = PlannerContext::default();
        for (i, rows) in [10, 1000, 20].into_iter().enumerate() {
            ctx.insert_db(&format!("db{i}"), vec![cars_stats(rows)]);
        }
        let costed = plan_join(&dec, &routes, Some(&ctx), false, 256, true).unwrap();
        assert_eq!(home_of(&costed), 1);
        // A site without statistics puts the whole join back on the
        // heuristic: db2 binds two tables, the most.
        let mut partial = PlannerContext::default();
        partial.insert_db("db0", vec![cars_stats(10)]);
        for ctx in [None, Some(&partial)] {
            let plan = plan_join(&dec, &routes, ctx, false, 256, true).unwrap();
            assert_eq!((plan.costed, home_of(&plan)), (false, 2));
        }
    }

    #[test]
    fn an_edge_ships_by_the_cap_without_statistics_and_by_bytes_with_them() {
        let (dec, routes, ctx) = (join(Q, None), routes(), both_sites());
        let capped = plan_join(&dec, &routes, None, true, 256, true).unwrap();
        let edge = &capped.edges[0];
        assert_eq!((edge.rule, edge.key_column, edge.target), (EdgeRule::Cap(256), "b_c_code", 1));
        assert!(edge.ships(&keys(256)) && !edge.ships(&keys(257)));
        // hertz reduces into avis: 100 distinct codes, ≈25 rows × 8 bytes.
        let costed = plan_join(&dec, &routes, Some(&ctx), true, 256, true).unwrap();
        let edge = &costed.edges[0];
        assert_eq!(edge.rule, EdgeRule::Bytes { ndv: Some(100), bytes: 200.0 });
        assert!(edge.ships(&keys(1)), "8 key bytes prune 99% of 200");
        assert!(!edge.ships(&keys(30)), "240 key bytes prune 70% of 200");
        // No key can match: the free `0 = 1` filter ships under either rule.
        for plan in [&capped, &costed] {
            assert!(plan.edges[0].ships(&[]));
            let sql = plan.reduced_sql(plan.edges[0].target, &[Some(Vec::new())]).unwrap();
            assert!(sql.ends_with("0 = 1"), "{sql}");
            assert_eq!(plan.reduced_sql(plan.edges[0].target, &[None]), None);
        }
        let sql = costed.reduced_sql(0, &[Some(keys(2))]).unwrap();
        assert!(sql.ends_with("AND c.code IN (0, 1)"), "{sql}");
    }
}
