//! Decomposition (paper §4.3, phase 3).
//!
//! *"Each global fully qualified elementary query Q is decomposed into SQL
//! subqueries q1 ... qn and a global modified query Q'. The decomposition of
//! Q is based on the location of the accessed data items and is performed
//! using query graph analysis. The global query is transformed into a set of
//! the largest possible local subqueries, one for each involved LDBS. One of
//! the LDBSs is designated as the coordinator and will evaluate the modified
//! global query."*
//!
//! Given a SELECT whose FROM spans several databases, this module:
//!
//! 1. resolves each table to its owning database (explicit qualifier, or a
//!    unique GDD match within the scope);
//! 2. splits the WHERE conjunction into *local* conjuncts (all columns from
//!    one database — pushed down) and *global* conjuncts (cross-database —
//!    kept in Q');
//! 3. builds, per database, the largest local subquery projecting exactly
//!    the columns the global phase needs (renamed `b_<binding>_<column>` so
//!    partial results cannot collide);
//! 4. builds Q' over the partial-result tables `part_<db>`, and picks the
//!    database with the most bindings as coordinator.

use crate::error::MdbsError;
use crate::scope::SessionScope;
use catalog::{GddTable, GlobalDataDictionary};
use msql_lang::printer::print_expr;
use msql_lang::*;

/// One local subquery of a decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct DbSubquery {
    /// The database that evaluates it.
    pub database: String,
    /// The largest local subquery.
    pub select: Select,
    /// Name of the partial-result table at the coordinator.
    pub part_table: String,
}

/// One side of a cross-database equi-join edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinSide {
    /// Database owning the column.
    pub database: String,
    /// FROM binding the column belongs to (alias or table name).
    pub binding: String,
    /// Column name in the local table.
    pub column: String,
    /// The column's renamed projection in the shipped partial
    /// (`b_<binding>_<column>`).
    pub part_column: String,
}

/// A cross-database equality `left = right` found among the global
/// conjuncts. These are the semi-join reduction opportunities: the distinct
/// key values of one side's partial can be shipped to the other side as an
/// `IN (…)` filter so only matching rows cross the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinKey {
    /// One end of the equality.
    pub left: JoinSide,
    /// The other end (always a different database).
    pub right: JoinSide,
}

impl JoinKey {
    /// The side of this edge living in `database`, if any.
    pub fn side_in(&self, database: &str) -> Option<&JoinSide> {
        if self.left.database == database {
            Some(&self.left)
        } else if self.right.database == database {
            Some(&self.right)
        } else {
            None
        }
    }

    /// The side of this edge *not* living in `database`, if the edge touches
    /// `database` at all.
    pub fn side_opposite(&self, database: &str) -> Option<&JoinSide> {
        if self.left.database == database {
            Some(&self.right)
        } else if self.right.database == database {
            Some(&self.left)
        } else {
            None
        }
    }
}

/// A decomposed global query.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition {
    /// Per-database subqueries (the coordinator's own included).
    pub subqueries: Vec<DbSubquery>,
    /// The database that evaluates the modified global query.
    pub coordinator: String,
    /// The modified global query Q' over the `part_<db>` tables.
    pub global_query: Select,
    /// `(column, name)` for each column of Q′'s answer the printed Q′ cannot
    /// name: an unaliased expression, named as the user wrote it (`c.code + 1`).
    pub labels: Vec<(usize, String)>,
    /// Cross-database equi-join edges extracted from the global conjuncts.
    pub join_keys: Vec<JoinKey>,
    /// Aggregation / top-k pushdown plan, when the query's shape allows the
    /// sites to pre-reduce their partials and the MDBS layer to merge them
    /// without a coordinator. `None` means the classic ship-everything plan
    /// (above fields) is the only option; the fields above are *always*
    /// populated so the executor can fall back byte-identically.
    pub pushdown: Option<PushdownPlan>,
}

impl Decomposition {
    /// Appends `suffix` to the name of every partial-result table: on the
    /// subqueries, in Q′'s FROM list and on Q′'s column qualifiers. (A
    /// pushdown plan names partial *columns* only; it has no coordinator.)
    pub fn suffix_part_tables(&mut self, suffix: &str) {
        let old: Vec<String> = self.subqueries.iter().map(|s| s.part_table.clone()).collect();
        let rename = |name: &mut WildName| {
            if old.iter().any(|o| o == name.as_str()) {
                *name = WildName::new(format!("{}{suffix}", name.as_str()));
            }
        };
        for sub in &mut self.subqueries {
            sub.part_table.push_str(suffix);
        }
        let q = &mut self.global_query;
        q.from.iter_mut().for_each(|t| rename(&mut t.table));
        for expr in q.exprs_mut() {
            expr.walk_columns_mut(&mut |c| {
                if let Some(table) = &mut c.table {
                    rename(table);
                }
            });
        }
    }
}

/// A plan for answering a cross-database query from pre-reduced partials
/// merged at the MDBS layer, instead of shipping raw rows to a coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum PushdownPlan {
    /// Decomposable GROUP BY aggregation: sites group by (join keys ∪ own
    /// group keys) and ship partial states; groups are hash-merged here.
    Aggregate(AggPushdown),
    /// Site-local top-k under `ORDER BY … LIMIT k` on a pure product: each
    /// site ships its own top k rows and the merge takes the global top k.
    TopK(TopKPushdown),
}

/// The kind of a pushed aggregate, with its decomposable partial state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// `COUNT(*)` — derived from the per-group row counts alone.
    CountStar,
    /// `COUNT(col)` — per-group non-null count, scaled by the other side.
    Count,
    /// `SUM(col)` — per-group partial sum, scaled by the other side's count.
    Sum,
    /// `AVG(col)` — kept as an exact (sum, count) pair until the final merge.
    Avg,
    /// `MIN(col)` — per-group minimum, folded across matching groups.
    Min,
    /// `MAX(col)` — per-group maximum, folded across matching groups.
    Max,
}

/// One aggregate of the global query and where its partial state lives.
#[derive(Debug, Clone, PartialEq)]
pub struct AggState {
    /// Aggregate kind.
    pub kind: AggKind,
    /// Index (into [`AggPushdown::sites`]) of the site owning the argument
    /// column. Unused for `CountStar`, which reads both sites' row counts.
    pub site: usize,
    /// Shipped column holding the partial value (sum for `Sum`/`Avg`,
    /// min/max for `Min`/`Max`). `None` for the count-only kinds.
    pub value_col: Option<String>,
    /// Shipped column holding the partial non-null count (`Count`, `Avg`).
    pub count_col: Option<String>,
}

/// One column of the merged output, in user projection order.
#[derive(Debug, Clone, PartialEq)]
pub enum AggOutput {
    /// A GROUP BY key, identified by its slot in the grouping tuple.
    Key {
        /// Position in the grouping tuple.
        slot: usize,
        /// User-visible column name.
        name: String,
    },
    /// An aggregate, identified by its index in [`AggPushdown::aggs`].
    Agg {
        /// Index into [`AggPushdown::aggs`].
        agg: usize,
        /// User-visible column name.
        name: String,
    },
}

/// One site of an aggregate pushdown: the rewritten subquery plus the
/// shipped-column names the merge reads back out of its partial.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSite {
    /// The site's rewritten subquery: GROUP BY (join keys ∪ own group keys)
    /// projecting the keys, `COUNT(*)`, and the owned partial states.
    pub select: Select,
    /// Shipped aliases of this site's join-key columns, aligned with
    /// [`Decomposition::join_keys`] edge order across both sites.
    pub join_cols: Vec<String>,
    /// Shipped aliases of this site's GROUP BY keys as `(slot, alias)`.
    pub key_cols: Vec<(usize, String)>,
    /// Shipped alias of the per-group `COUNT(*)`.
    pub count_col: String,
}

/// A decomposable aggregation pushed down to the sites.
#[derive(Debug, Clone, PartialEq)]
pub struct AggPushdown {
    /// One entry per decomposition subquery, same order.
    pub sites: Vec<AggSite>,
    /// Number of GROUP BY keys in the global grouping tuple.
    pub slots: usize,
    /// The global aggregates, in first-appearance order.
    pub aggs: Vec<AggState>,
    /// Output columns in user projection order.
    pub output: Vec<AggOutput>,
    /// `ORDER BY` over the merged output as `(output index, direction)`.
    pub order_by: Vec<(usize, SortOrder)>,
    /// `LIMIT` applied after the merge (never pushed below the grouping).
    pub limit: Option<u64>,
}

/// One site of a top-k pushdown.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKSite {
    /// The site's subquery with its own ORDER BY components, deterministic
    /// tie-breaks and `LIMIT k` appended.
    pub select: Select,
}

/// One component of the global ORDER BY, pointing at a shipped column.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKOrder {
    /// Site owning the column.
    pub site: usize,
    /// Shipped (renamed) column alias.
    pub col: String,
    /// Sort direction.
    pub order: SortOrder,
}

/// A site-local top-k pushdown for `ORDER BY … LIMIT k` over a pure product
/// (no cross-database conjuncts): any global top-k row is the pairing of
/// per-site rows that each survive their own site's top k.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKPushdown {
    /// One entry per decomposition subquery, same order.
    pub sites: Vec<TopKSite>,
    /// Output columns in user projection order as
    /// `(site, shipped column, user-visible name)`.
    pub output: Vec<(usize, String, String)>,
    /// The global ORDER BY sequence over shipped columns.
    pub order_by: Vec<TopKOrder>,
    /// `LIMIT k`.
    pub limit: u64,
}

#[derive(Debug, Clone)]
struct Binding {
    /// Name the query knows this table by (alias or table name).
    name: String,
    /// Owning database.
    database: String,
    /// Original table reference (db qualifier stripped).
    tref: TableRef,
    /// Exported definition.
    def: GddTable,
}

/// Decomposes a (fully qualified, wildcard-free) SELECT.
pub fn decompose(
    sel: &Select,
    scope: &SessionScope,
    gdd: &GlobalDataDictionary,
) -> Result<Decomposition, MdbsError> {
    if sel.from.is_empty() {
        return Err(MdbsError::Unsupported("decomposition requires at least one table".into()));
    }
    // Resolve bindings.
    let mut bindings: Vec<Binding> = Vec::with_capacity(sel.from.len());
    for tref in &sel.from {
        if tref.table.is_multiple() {
            return Err(MdbsError::Unsupported(format!(
                "wildcard table `{}` cannot be combined with cross-database joins",
                tref.table
            )));
        }
        let database = match &tref.database {
            Some(q) => scope
                .resolve(q.as_str())
                .map(|d| d.database.clone())
                .ok_or_else(|| MdbsError::NotInScope(q.as_str().to_string()))?,
            // A unique scope database exporting this table.
            None => match scope.owners(gdd, tref.table.as_str()).as_slice() {
                [only] => only.database.clone(),
                [] => {
                    return Err(MdbsError::NotPertinent(format!(
                        "no database in scope exports table `{}`",
                        tref.table
                    )))
                }
                _ => {
                    return Err(MdbsError::NotPertinent(format!(
                        "table `{}` is exported by several databases in scope; qualify it",
                        tref.table
                    )))
                }
            },
        };
        let def = gdd
            .table(&database, tref.table.as_str())
            .map_err(|e| MdbsError::Catalog(e.to_string()))?
            .clone();
        let name = tref.binding_name().to_ascii_lowercase();
        if bindings.iter().any(|b| b.name == name) {
            return Err(MdbsError::NotPertinent(format!("duplicate binding `{name}`")));
        }
        bindings.push(Binding {
            name,
            database,
            tref: TableRef { database: None, table: tref.table.clone(), alias: tref.alias.clone() },
            def,
        });
    }

    // Involved databases in first-appearance order.
    let mut databases: Vec<String> = Vec::new();
    for b in &bindings {
        if !databases.contains(&b.database) {
            databases.push(b.database.clone());
        }
    }

    // Split WHERE into conjuncts and classify them.
    let mut local_conjuncts: Vec<(String, Expr)> = Vec::new();
    let mut global_conjuncts: Vec<Expr> = Vec::new();
    for conjunct in sel.where_clause.iter().flat_map(Expr::conjuncts) {
        let used = used_databases(conjunct, &bindings)?;
        if contains_subquery(conjunct) {
            return Err(MdbsError::Unsupported(
                "subqueries are not supported in cross-database joins".into(),
            ));
        }
        match used.as_slice() {
            [db] => local_conjuncts.push((db.clone(), strip_db_qualifiers(conjunct))),
            // A constant conjunct goes to the global query, like a
            // cross-database one.
            _ => global_conjuncts.push(conjunct.clone()),
        }
    }

    // Needed columns per binding: everything the global phase references —
    // wildcard items first, then the columns of the item expressions, the
    // global conjuncts, GROUP BY, HAVING and ORDER BY, in visit order.
    let mut needed: Vec<(String, String)> = Vec::new(); // (binding, column)
    for item in &sel.items {
        for b in wildcard_bindings(item, &bindings)?.unwrap_or_default() {
            for c in &b.def.columns {
                let pair = (b.name.clone(), c.name.clone());
                if !needed.contains(&pair) {
                    needed.push(pair);
                }
            }
        }
    }
    let mut pending: Vec<&ColumnRef> = Vec::new();
    let clauses =
        sel.group_by.iter().chain(&sel.having).chain(sel.order_by.iter().map(|o| &o.expr));
    for e in sel.items.iter().filter_map(SelectItem::expr).chain(&global_conjuncts).chain(clauses) {
        e.walk_columns(&mut |c| pending.push(c));
    }
    for c in pending {
        let (b, col) = resolve_column(c, &bindings)?;
        let pair = (b.name.clone(), col);
        if !needed.contains(&pair) {
            needed.push(pair);
        }
    }

    // Local subqueries.
    let mut subqueries = Vec::with_capacity(databases.len());
    for db in &databases {
        let db_bindings: Vec<&Binding> = bindings.iter().filter(|b| b.database == *db).collect();
        let mut items = Vec::new();
        for (bname, col) in &needed {
            if db_bindings.iter().any(|b| b.name == *bname) {
                items.push(SelectItem::Expr {
                    expr: Expr::Column(ColumnRef::with_table(bname.clone(), col.clone())),
                    alias: Some(part_column(bname, col)),
                    optional: false,
                });
            }
        }
        if items.is_empty() {
            // The global phase needs nothing from this database (it only
            // filters locally); project a constant so the subquery is valid.
            items.push(SelectItem::Expr {
                expr: Expr::Literal(Literal::Int(1)),
                alias: Some("one".into()),
                optional: false,
            });
        }
        let where_clause = local_conjuncts
            .iter()
            .filter(|(cdb, _)| cdb == db)
            .map(|(_, conj)| conj.clone())
            .reduce(Expr::and);
        subqueries.push(DbSubquery {
            database: db.clone(),
            select: Select {
                distinct: false,
                items,
                from: db_bindings.iter().map(|b| b.tref.clone()).collect(),
                where_clause,
                group_by: Vec::new(),
                having: None,
                order_by: Vec::new(),
                limit: None,
            },
            part_table: format!("part_{db}"),
        });
    }

    // Coordinator: most bindings; ties by first appearance.
    let coordinator = databases
        .iter()
        .max_by_key(|db| {
            (
                bindings.iter().filter(|b| &b.database == *db).count(),
                // invert index so earlier databases win ties
                usize::MAX - databases.iter().position(|d| d == *db).unwrap(),
            )
        })
        .unwrap()
        .clone();

    // The modified global query Q'.
    let rewrite = |e: &Expr| rewrite_global(e, &bindings);
    let mut items = Vec::with_capacity(sel.items.len());
    let mut labels = Vec::new();
    for item in &sel.items {
        if let SelectItem::Expr { expr, alias, .. } = item {
            if alias.is_none() && !matches!(expr, Expr::Column(_) | Expr::Aggregate { .. }) {
                labels.push((items.len(), print_expr(expr)));
            }
            let alias = alias.clone().or_else(|| {
                // Preserve the user-visible name of plain column items.
                match expr {
                    Expr::Column(c) => Some(c.column.as_str().to_string()),
                    _ => None,
                }
            });
            items.push(SelectItem::Expr { expr: rewrite(expr)?, alias, optional: false });
            continue;
        }
        for b in wildcard_bindings(item, &bindings)?.unwrap_or_default() {
            for c in &b.def.columns {
                items.push(SelectItem::Expr {
                    expr: Expr::Column(ColumnRef::with_table(
                        format!("part_{}", b.database),
                        part_column(&b.name, &c.name),
                    )),
                    alias: Some(c.name.clone()),
                    optional: false,
                });
            }
        }
    }
    let rewritten_conjuncts =
        global_conjuncts.iter().map(rewrite).collect::<Result<Vec<_>, _>>()?;
    let global_query = Select {
        distinct: sel.distinct,
        items,
        from: subqueries.iter().map(|s| TableRef::named(s.part_table.clone())).collect(),
        where_clause: rewritten_conjuncts.into_iter().reduce(Expr::and),
        group_by: sel.group_by.iter().map(&rewrite).collect::<Result<_, _>>()?,
        having: sel.having.as_ref().map(&rewrite).transpose()?,
        order_by: sel
            .order_by
            .iter()
            .map(|o| Ok(OrderByItem { expr: rewrite(&o.expr)?, order: o.order }))
            .collect::<Result<_, MdbsError>>()?,
        limit: sel.limit,
    };

    // Cross-database equi-join edges among the global conjuncts. Every
    // column here already went through `resolve_column` (via
    // `used_databases`), so resolution cannot fail; the guard is belt and
    // braces.
    let mut join_keys = Vec::new();
    for g in &global_conjuncts {
        let Expr::Binary { left, op: BinaryOp::Eq, right } = g else { continue };
        let (Expr::Column(l), Expr::Column(r)) = (left.as_ref(), right.as_ref()) else { continue };
        let (Ok((lb, lcol)), Ok((rb, rcol))) =
            (resolve_column(l, &bindings), resolve_column(r, &bindings))
        else {
            continue;
        };
        if lb.database == rb.database {
            continue;
        }
        let side = |b: &Binding, col: &str| JoinSide {
            database: b.database.clone(),
            binding: b.name.clone(),
            column: col.to_string(),
            part_column: part_column(&b.name, col),
        };
        join_keys.push(JoinKey { left: side(lb, &lcol), right: side(rb, &rcol) });
    }

    // Pushdown analysis. Pure: only inspects what was built above, so every
    // unsupported shape degrades to `pushdown: None` with the classic plan
    // untouched (byte-identical fallback).
    let pushdown = plan_aggregate_pushdown(
        sel,
        &bindings,
        &databases,
        &subqueries,
        &global_conjuncts,
        &join_keys,
    )
    .map(PushdownPlan::Aggregate)
    .or_else(|| {
        plan_topk_pushdown(sel, &bindings, &databases, &subqueries, &global_conjuncts)
            .map(PushdownPlan::TopK)
    });

    Ok(Decomposition { subqueries, coordinator, global_query, labels, join_keys, pushdown })
}

/// Plans an aggregate pushdown, or `None` when the query's shape is not
/// decomposable. Supported shape: exactly two sites, every global conjunct a
/// cross-database equi-join edge, GROUP BY keys and aggregate arguments all
/// plain columns, no DISTINCT / HAVING / `COUNT(DISTINCT …)`, and every
/// ORDER BY expression matching a projected item. Each site then groups by
/// (its join-key columns ∪ its GROUP BY keys) and ships per-group partial
/// states that merge exactly (Yan-Larson eager aggregation): counts and sums
/// scale by the other side's group cardinality, min/max fold, and AVG stays
/// a (sum, count) pair until the end.
fn plan_aggregate_pushdown(
    sel: &Select,
    bindings: &[Binding],
    databases: &[String],
    subqueries: &[DbSubquery],
    global_conjuncts: &[Expr],
    join_keys: &[JoinKey],
) -> Option<AggPushdown> {
    if databases.len() != 2 || subqueries.len() != 2 {
        return None;
    }
    if sel.distinct || sel.having.is_some() {
        return None;
    }
    // Every global conjunct must be one of the extracted equi-join edges;
    // anything else (inequalities, OR trees, constants) blocks the pushdown.
    if join_keys.len() != global_conjuncts.len() {
        return None;
    }
    let site_of = |b: &Binding| databases.iter().position(|d| *d == b.database).unwrap();

    // GROUP BY keys: plain resolvable columns only.
    let mut slots: Vec<(usize, String, String)> = Vec::new(); // (site, binding, column)
    for g in &sel.group_by {
        let Expr::Column(c) = g else { return None };
        let (b, col) = resolve_column(c, bindings).ok()?;
        slots.push((site_of(b), b.name.clone(), col));
    }

    // Projected items: group keys and decomposable aggregates.
    let mut aggs: Vec<AggState> = Vec::new();
    let mut agg_args: Vec<Option<(usize, String, String)>> = Vec::new(); // (site, binding, col)
    let mut output: Vec<AggOutput> = Vec::new();
    for item in &sel.items {
        let SelectItem::Expr { expr, alias, .. } = item else { return None };
        match expr {
            Expr::Column(c) => {
                let (b, col) = resolve_column(c, bindings).ok()?;
                let slot = slots
                    .iter()
                    .position(|(s, bn, cn)| *s == site_of(b) && *bn == b.name && *cn == col)?;
                let name = alias.clone().unwrap_or_else(|| c.column.as_str().to_string());
                output.push(AggOutput::Key { slot, name });
            }
            Expr::Aggregate { kind, arg, distinct } => {
                if *distinct {
                    return None;
                }
                let (akind, arg_site) = match (kind, arg) {
                    (AggregateKind::Count, None) => (AggKind::CountStar, None),
                    (_, Some(a)) => {
                        let Expr::Column(c) = a.as_ref() else { return None };
                        let (b, col) = resolve_column(c, bindings).ok()?;
                        let k = match kind {
                            AggregateKind::Count => AggKind::Count,
                            AggregateKind::Sum => AggKind::Sum,
                            AggregateKind::Avg => AggKind::Avg,
                            AggregateKind::Min => AggKind::Min,
                            AggregateKind::Max => AggKind::Max,
                        };
                        (k, Some((site_of(b), b.name.clone(), col)))
                    }
                    // SUM(*) etc. never parse; COUNT with no argument is the
                    // only argument-free aggregate.
                    _ => return None,
                };
                let i = aggs.len();
                let (value_col, count_col) = match akind {
                    AggKind::CountStar => (None, None),
                    AggKind::Count => (None, Some(format!("agg{i}_c"))),
                    AggKind::Sum => (Some(format!("agg{i}_s")), None),
                    AggKind::Avg => (Some(format!("agg{i}_s")), Some(format!("agg{i}_c"))),
                    AggKind::Min | AggKind::Max => (Some(format!("agg{i}_m")), None),
                };
                aggs.push(AggState {
                    kind: akind,
                    site: arg_site.as_ref().map(|(s, _, _)| *s).unwrap_or(0),
                    value_col,
                    count_col,
                });
                agg_args.push(arg_site);
                let name = alias.clone().unwrap_or_else(|| kind.name().to_ascii_lowercase());
                output.push(AggOutput::Agg { agg: i, name });
            }
            _ => return None,
        }
    }
    // Not an aggregate query at all → nothing to push.
    if aggs.is_empty() && slots.is_empty() {
        return None;
    }
    // The merge emits groups in sorted-key order, not the engine's
    // first-seen order, so a bare LIMIT without ORDER BY would truncate a
    // different prefix. ORDER BY itself must map onto projected items.
    if sel.limit.is_some() && sel.order_by.is_empty() {
        return None;
    }
    let mut order_by: Vec<(usize, SortOrder)> = Vec::new();
    for o in &sel.order_by {
        let pos = sel.items.iter().position(|it| match it {
            SelectItem::Expr { expr, .. } => *expr == o.expr,
            _ => false,
        })?;
        order_by.push((pos, o.order));
    }

    // Per-site rewritten subqueries.
    let mut sites = Vec::with_capacity(subqueries.len());
    for (si, sub) in subqueries.iter().enumerate() {
        let db = &sub.database;
        let mut items: Vec<SelectItem> = Vec::new();
        let mut group_by: Vec<Expr> = Vec::new();
        let push_key = |items: &mut Vec<SelectItem>,
                        group_by: &mut Vec<Expr>,
                        binding: &str,
                        column: &str,
                        alias: String| {
            if items
                .iter()
                .any(|it| matches!(it, SelectItem::Expr { alias: Some(a), .. } if *a == alias))
            {
                return;
            }
            let expr = Expr::Column(ColumnRef::with_table(binding.to_string(), column.to_string()));
            group_by.push(expr.clone());
            items.push(SelectItem::Expr { expr, alias: Some(alias), optional: false });
        };
        let mut join_cols = Vec::with_capacity(join_keys.len());
        for k in join_keys {
            let side = k.side_in(db)?;
            push_key(
                &mut items,
                &mut group_by,
                &side.binding,
                &side.column,
                side.part_column.clone(),
            );
            join_cols.push(side.part_column.clone());
        }
        let mut key_cols = Vec::new();
        for (slot, (s, bn, cn)) in slots.iter().enumerate() {
            if *s == si {
                let alias = part_column(bn, cn);
                push_key(&mut items, &mut group_by, bn, cn, alias.clone());
                key_cols.push((slot, alias));
            }
        }
        let count_col = "agg_cnt".to_string();
        items.push(SelectItem::Expr {
            expr: Expr::Aggregate { kind: AggregateKind::Count, arg: None, distinct: false },
            alias: Some(count_col.clone()),
            optional: false,
        });
        for (ai, (a, arg)) in aggs.iter().zip(&agg_args).enumerate() {
            let Some((arg_site, bn, cn)) = arg else { continue };
            if *arg_site != si {
                continue;
            }
            let arg_expr = Expr::Column(ColumnRef::with_table(bn.clone(), cn.clone()));
            let mut push_agg = |kind: AggregateKind, alias: &str| {
                items.push(SelectItem::Expr {
                    expr: Expr::Aggregate {
                        kind,
                        arg: Some(Box::new(arg_expr.clone())),
                        distinct: false,
                    },
                    alias: Some(alias.to_string()),
                    optional: false,
                });
            };
            match a.kind {
                AggKind::CountStar => {}
                AggKind::Count => push_agg(AggregateKind::Count, &format!("agg{ai}_c")),
                AggKind::Sum => push_agg(AggregateKind::Sum, &format!("agg{ai}_s")),
                AggKind::Avg => {
                    push_agg(AggregateKind::Sum, &format!("agg{ai}_s"));
                    push_agg(AggregateKind::Count, &format!("agg{ai}_c"));
                }
                AggKind::Min => push_agg(AggregateKind::Min, &format!("agg{ai}_m")),
                AggKind::Max => push_agg(AggregateKind::Max, &format!("agg{ai}_m")),
            }
        }
        sites.push(AggSite {
            select: Select {
                distinct: false,
                items,
                from: sub.select.from.clone(),
                where_clause: sub.select.where_clause.clone(),
                group_by,
                having: None,
                order_by: Vec::new(),
                limit: None,
            },
            join_cols,
            key_cols,
            count_col,
        });
    }

    Some(AggPushdown { sites, slots: slots.len(), aggs, output, order_by, limit: sel.limit })
}

/// Plans a top-k pushdown, or `None` when the shape does not allow one.
/// Supported shape: exactly two sites, an empty global WHERE (pure product —
/// a cross-database conjunct could eliminate a row pairing and invalidate
/// per-site pruning), plain-column projection and ORDER BY, no aggregation
/// machinery, and `LIMIT k`. Each site orders by its own components of the
/// global sort (their relative order preserved), breaks ties over its
/// remaining projected columns for determinism, and ships only its top k;
/// the global top k is then a merge of the ≤ k×k candidate pairings.
fn plan_topk_pushdown(
    sel: &Select,
    bindings: &[Binding],
    databases: &[String],
    subqueries: &[DbSubquery],
    global_conjuncts: &[Expr],
) -> Option<TopKPushdown> {
    if databases.len() != 2 || subqueries.len() != 2 {
        return None;
    }
    if !global_conjuncts.is_empty() {
        return None;
    }
    if sel.distinct || !sel.group_by.is_empty() || sel.having.is_some() {
        return None;
    }
    if sel.order_by.is_empty() {
        return None;
    }
    let limit = sel.limit?;
    let site_of = |b: &Binding| databases.iter().position(|d| *d == b.database).unwrap();

    let mut output: Vec<(usize, String, String)> = Vec::new();
    for item in &sel.items {
        let SelectItem::Expr { expr: Expr::Column(c), alias, .. } = item else { return None };
        let (b, col) = resolve_column(c, bindings).ok()?;
        let name = alias.clone().unwrap_or_else(|| c.column.as_str().to_string());
        output.push((site_of(b), part_column(&b.name, &col), name));
    }
    // The global sort sequence, each component resolved to its owning site.
    let mut order_by: Vec<TopKOrder> = Vec::new();
    let mut site_orders: Vec<Vec<OrderByItem>> = vec![Vec::new(); subqueries.len()];
    for o in &sel.order_by {
        let Expr::Column(c) = &o.expr else { return None };
        let (b, col) = resolve_column(c, bindings).ok()?;
        let site = site_of(b);
        order_by.push(TopKOrder { site, col: part_column(&b.name, &col), order: o.order });
        site_orders[site].push(OrderByItem {
            expr: Expr::Column(ColumnRef::with_table(b.name.clone(), col)),
            order: o.order,
        });
    }

    let mut sites = Vec::with_capacity(subqueries.len());
    for (si, sub) in subqueries.iter().enumerate() {
        let mut order = site_orders[si].clone();
        // Deterministic tie-break: every other shipped column, ascending, so
        // the site's kept prefix (and thus the shipped bytes) is stable
        // across runs even when the ordered components tie.
        for it in &sub.select.items {
            let SelectItem::Expr { expr, .. } = it else { continue };
            if !order.iter().any(|o| o.expr == *expr) {
                order.push(OrderByItem { expr: expr.clone(), order: SortOrder::Asc });
            }
        }
        let mut select = sub.select.clone();
        select.order_by = order;
        select.limit = Some(limit);
        sites.push(TopKSite { select });
    }

    Some(TopKPushdown { sites, output, order_by, limit })
}

/// The bindings a wildcard item expands over: every one for `*`, the one it
/// names for `t.*`; `None` for an expression item.
fn wildcard_bindings<'b>(
    item: &SelectItem,
    bindings: &'b [Binding],
) -> Result<Option<&'b [Binding]>, MdbsError> {
    let target = match item {
        SelectItem::Expr { .. } => return Ok(None),
        SelectItem::Wildcard => return Ok(Some(bindings)),
        SelectItem::QualifiedWildcard(t) => t.as_str(),
    };
    let i = bindings
        .iter()
        .position(|b| b.name == target || b.def.name == target)
        .ok_or_else(|| MdbsError::NotPertinent(format!("unknown binding `{target}`")))?;
    Ok(Some(&bindings[i..=i]))
}

/// `b_<binding>_<column>` — the renamed projection of a needed column.
fn part_column(binding: &str, column: &str) -> String {
    format!("b_{binding}_{column}")
}

/// True if `e` holds a nested SELECT anywhere outside another one.
fn contains_subquery(e: &Expr) -> bool {
    let mut found = e.subquery().is_some();
    e.for_each_child(|child| found = found || contains_subquery(child));
    found
}

/// Resolves a column reference to its binding.
fn resolve_column<'b>(
    c: &ColumnRef,
    bindings: &'b [Binding],
) -> Result<(&'b Binding, String), MdbsError> {
    if c.column.is_multiple() {
        return Err(MdbsError::Unsupported(format!(
            "wildcard column `{}` cannot be combined with cross-database joins",
            c.column
        )));
    }
    let col = c.column.as_str().to_string();
    if let Some(t) = &c.table {
        let target = t.as_str();
        let b = bindings
            .iter()
            .find(|b| b.name == target || b.def.name == target)
            .ok_or_else(|| MdbsError::NotPertinent(format!("unknown table `{target}`")))?;
        if b.def.column(&col).is_none() {
            return Err(MdbsError::NotPertinent(format!("unknown column `{target}.{col}`")));
        }
        return Ok((b, col));
    }
    let mut owner = None;
    for b in bindings {
        if b.def.column(&col).is_some() {
            if owner.is_some() {
                return Err(MdbsError::NotPertinent(format!("ambiguous column `{col}`")));
            }
            owner = Some(b);
        }
    }
    owner
        .map(|b| (b, col.clone()))
        .ok_or_else(|| MdbsError::NotPertinent(format!("unknown column `{col}`")))
}

/// Databases referenced by an expression.
fn used_databases(e: &Expr, bindings: &[Binding]) -> Result<Vec<String>, MdbsError> {
    let mut out: Vec<String> = Vec::new();
    let mut err = None;
    e.walk_columns(&mut |c| {
        if err.is_some() {
            return;
        }
        match resolve_column(c, bindings) {
            Ok((b, _)) => {
                if !out.contains(&b.database) {
                    out.push(b.database.clone());
                }
            }
            Err(e) => err = Some(e),
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Strips database qualifiers from column references (for pushdown).
fn strip_db_qualifiers(e: &Expr) -> Expr {
    let mut out = e.clone();
    out.walk_columns_mut(&mut |c| c.database = None);
    out
}

/// Rewrites an expression for the global query: every column becomes
/// `part_<db>.b_<binding>_<column>`.
fn rewrite_global(e: &Expr, bindings: &[Binding]) -> Result<Expr, MdbsError> {
    if contains_subquery(e) {
        return Err(MdbsError::Unsupported(
            "subqueries are not supported in cross-database joins".into(),
        ));
    }
    let mut out = e.clone();
    let mut err = None;
    out.walk_columns_mut(&mut |c| match resolve_column(c, bindings) {
        Ok((b, col)) => {
            *c = ColumnRef::with_table(format!("part_{}", b.database), part_column(&b.name, &col))
        }
        Err(e) => {
            err.get_or_insert(e);
        }
    });
    err.map_or(Ok(out), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::GddColumn;
    use msql_lang::printer::print_select;
    use msql_lang::TypeName;

    fn gdd() -> GlobalDataDictionary {
        let mut g = GlobalDataDictionary::new();
        g.register_database("avis", "svc4").unwrap();
        g.put_table(
            "avis",
            GddTable::new(
                "cars",
                ["code", "cartype", "rate", "carst"]
                    .iter()
                    .map(|c| GddColumn::new(*c, TypeName::Char(0)))
                    .collect(),
            ),
        )
        .unwrap();
        g.register_database("continental", "svc1").unwrap();
        g.put_table(
            "continental",
            GddTable::new(
                "flights",
                ["flnu", "source", "destination", "rate"]
                    .iter()
                    .map(|c| GddColumn::new(*c, TypeName::Char(0)))
                    .collect(),
            ),
        )
        .unwrap();
        g
    }

    fn scope() -> SessionScope {
        let mut s = SessionScope::new();
        let Statement::Use(u) = msql_lang::parse_statement("USE avis continental").unwrap() else {
            panic!()
        };
        s.apply_use(&u).unwrap();
        s
    }

    fn select(sql: &str) -> Select {
        let Statement::Query(q) = msql_lang::parse_statement(sql).unwrap() else { panic!() };
        let QueryBody::Select(s) = q.body else { panic!() };
        s
    }

    #[test]
    fn cross_db_join_splits_local_and_global_predicates() {
        let d = decompose(
            &select(
                "SELECT c.code, f.flnu FROM avis.cars c, continental.flights f
                 WHERE c.carst = 'available' AND f.source = 'Houston' AND c.rate < f.rate",
            ),
            &scope(),
            &gdd(),
        )
        .unwrap();
        assert_eq!(d.subqueries.len(), 2);
        let avis = d.subqueries.iter().find(|s| s.database == "avis").unwrap();
        let cont = d.subqueries.iter().find(|s| s.database == "continental").unwrap();
        // Local predicates pushed down.
        let avis_sql = print_select(&avis.select);
        assert!(avis_sql.contains("carst = 'available'"), "{avis_sql}");
        assert!(!avis_sql.contains("Houston"), "{avis_sql}");
        let cont_sql = print_select(&cont.select);
        assert!(cont_sql.contains("source = 'Houston'"), "{cont_sql}");
        // Projections renamed.
        assert!(avis_sql.contains("AS b_c_code"), "{avis_sql}");
        assert!(avis_sql.contains("AS b_c_rate"), "{avis_sql}");
        // Global query joins the parts on the cross-db predicate.
        let g = print_select(&d.global_query);
        assert!(g.contains("part_avis"), "{g}");
        assert!(g.contains("part_continental"), "{g}");
        assert!(g.contains("part_avis.b_c_rate < part_continental.b_f_rate"), "{g}");
    }

    #[test]
    fn suffixing_the_part_tables_renames_them_everywhere_in_the_global_query() {
        let mut d = decompose(
            &select(
                "SELECT c.cartype, MAX(c.rate) FROM avis.cars c, continental.flights f
                 WHERE c.rate < f.rate GROUP BY c.cartype HAVING MAX(c.rate) > 1
                 ORDER BY c.cartype",
            ),
            &scope(),
            &gdd(),
        )
        .unwrap();
        let before = print_select(&d.global_query);
        let subqueries = d.subqueries.clone();
        d.suffix_part_tables("_s7");
        for (sub, was) in d.subqueries.iter().zip(&subqueries) {
            assert_eq!(sub.part_table, format!("{}_s7", was.part_table));
            assert_eq!(sub.select, was.select, "what the sites run does not change");
        }
        let expected = before
            .replace("part_avis", "part_avis_s7")
            .replace("part_continental", "part_continental_s7");
        assert_eq!(print_select(&d.global_query), expected);
        assert_eq!(expected.matches("_s7").count(), before.matches("part_").count());
    }

    /// Pins the decomposer's output text: the projection lists follow the
    /// pre-order, left-to-right visit of items → WHERE → GROUP BY → HAVING →
    /// ORDER BY, through every expression shape a site column can hide in.
    #[test]
    fn every_clause_and_expression_shape_decomposes_to_pinned_text() {
        let d = decompose(
            &select(
                "SELECT UPPER(c.cartype), c.rate + f.rate * 2 AS total, COUNT(*)
                 FROM avis.cars c, continental.flights f
                 WHERE f.destination BETWEEN f.flnu AND c.code
                   AND f.source IN ('Houston', c.carst) AND c.carst LIKE 'av%'
                   AND f.destination IS NOT NULL AND c.code IN (1, 2)
                   AND LOWER(f.source) <> c.cartype AND c.code = f.flnu
                 GROUP BY UPPER(c.cartype), c.rate + f.rate * 2
                 HAVING MAX(f.rate) - MIN(c.rate) > 0 AND COUNT(c.code) IS NOT NULL
                 ORDER BY UPPER(c.cartype) DESC, c.rate + f.rate * 2",
            ),
            &scope(),
            &gdd(),
        )
        .unwrap();
        let printed: Vec<(&str, String)> =
            d.subqueries.iter().map(|s| (s.database.as_str(), print_select(&s.select))).collect();
        assert_eq!(
            printed,
            vec![
                (
                    "avis",
                    "SELECT c.cartype AS b_c_cartype, c.rate AS b_c_rate, c.code AS b_c_code, \
                     c.carst AS b_c_carst FROM cars c \
                     WHERE c.carst LIKE 'av%' AND c.code IN (1, 2)"
                        .to_string()
                ),
                (
                    "continental",
                    "SELECT f.rate AS b_f_rate, f.destination AS b_f_destination, \
                     f.flnu AS b_f_flnu, f.source AS b_f_source \
                     FROM flights f WHERE f.destination IS NOT NULL"
                        .to_string()
                ),
            ]
        );
        assert_eq!(
            print_select(&d.global_query),
            "SELECT upper(part_avis.b_c_cartype), \
             part_avis.b_c_rate + part_continental.b_f_rate * 2 AS total, COUNT(*) \
             FROM part_avis, part_continental \
             WHERE part_continental.b_f_destination BETWEEN part_continental.b_f_flnu \
             AND part_avis.b_c_code \
             AND part_continental.b_f_source IN ('Houston', part_avis.b_c_carst) \
             AND lower(part_continental.b_f_source) <> part_avis.b_c_cartype \
             AND part_avis.b_c_code = part_continental.b_f_flnu \
             GROUP BY upper(part_avis.b_c_cartype), \
             part_avis.b_c_rate + part_continental.b_f_rate * 2 \
             HAVING MAX(part_continental.b_f_rate) - MIN(part_avis.b_c_rate) > 0 \
             AND COUNT(part_avis.b_c_code) IS NOT NULL \
             ORDER BY upper(part_avis.b_c_cartype) DESC, \
             part_avis.b_c_rate + part_continental.b_f_rate * 2"
        );
        assert_eq!(d.coordinator, "avis");
        assert_eq!(d.join_keys.len(), 1);
        assert!(d.pushdown.is_none());
    }

    #[test]
    fn unqualified_tables_resolve_through_gdd() {
        let d = decompose(
            &select("SELECT code, flnu FROM cars, flights WHERE rate = 1"),
            &scope(),
            &gdd(),
        );
        // `rate` exists in both → ambiguous.
        assert!(matches!(d, Err(MdbsError::NotPertinent(_))));

        let d = decompose(
            &select("SELECT code, flnu FROM cars, flights WHERE cars.rate = flights.rate"),
            &scope(),
            &gdd(),
        )
        .unwrap();
        assert_eq!(d.subqueries.len(), 2);
    }

    #[test]
    fn coordinator_has_most_bindings() {
        let d = decompose(
            &select(
                "SELECT a.code FROM avis.cars a, avis.cars b, continental.flights f
                 WHERE a.code = b.code AND a.rate = f.rate",
            ),
            &scope(),
            &gdd(),
        )
        .unwrap();
        assert_eq!(d.coordinator, "avis");
        // avis' subquery joins its two bindings locally.
        let avis = d.subqueries.iter().find(|s| s.database == "avis").unwrap();
        assert_eq!(avis.select.from.len(), 2);
    }

    #[test]
    fn single_db_decomposition_is_trivial() {
        let d = decompose(&select("SELECT code FROM avis.cars WHERE rate > 10"), &scope(), &gdd())
            .unwrap();
        assert_eq!(d.subqueries.len(), 1);
        assert_eq!(d.coordinator, "avis");
    }

    #[test]
    fn subqueries_in_join_are_unsupported() {
        let err = decompose(
            &select(
                "SELECT c.code FROM avis.cars c, continental.flights f
                 WHERE c.rate = f.rate AND c.code IN (SELECT code FROM cars)",
            ),
            &scope(),
            &gdd(),
        );
        assert!(matches!(err, Err(MdbsError::Unsupported(_))));
    }

    #[test]
    fn aggregates_stay_in_global_query() {
        let d = decompose(
            &select(
                "SELECT COUNT(*), MAX(c.rate) FROM avis.cars c, continental.flights f
                 WHERE c.rate < f.rate",
            ),
            &scope(),
            &gdd(),
        )
        .unwrap();
        let g = print_select(&d.global_query);
        assert!(g.contains("COUNT(*)"), "{g}");
        assert!(g.contains("MAX(part_avis.b_c_rate)"), "{g}");
        // Local subqueries have no aggregates.
        for s in &d.subqueries {
            assert!(!print_select(&s.select).contains("MAX("));
        }
    }

    #[test]
    fn equi_join_keys_are_extracted() {
        let d = decompose(
            &select(
                "SELECT c.code, f.flnu FROM avis.cars c, continental.flights f
                 WHERE c.rate = f.rate AND c.carst = 'available' AND c.code < f.flnu",
            ),
            &scope(),
            &gdd(),
        )
        .unwrap();
        // Only the cross-db *equality* is a join key: the local conjunct and
        // the `<` comparison are not.
        assert_eq!(d.join_keys.len(), 1);
        let k = &d.join_keys[0];
        assert_eq!((k.left.database.as_str(), k.left.column.as_str()), ("avis", "rate"));
        assert_eq!(k.left.part_column, "b_c_rate");
        assert_eq!((k.right.database.as_str(), k.right.column.as_str()), ("continental", "rate"));
        assert_eq!(k.right.part_column, "b_f_rate");
        assert_eq!(k.side_in("avis").unwrap().binding, "c");
        assert_eq!(k.side_opposite("avis").unwrap().binding, "f");
        assert!(k.side_in("delta").is_none());
    }

    #[test]
    fn same_database_equality_is_not_a_join_key() {
        let d = decompose(
            &select(
                "SELECT a.code FROM avis.cars a, avis.cars b, continental.flights f
                 WHERE a.code = b.code AND a.rate = f.rate",
            ),
            &scope(),
            &gdd(),
        )
        .unwrap();
        assert_eq!(d.join_keys.len(), 1, "a.code = b.code stays local to avis");
        assert_eq!(d.join_keys[0].left.column, "rate");
    }

    #[test]
    fn unknown_qualifier_is_error() {
        let err = decompose(&select("SELECT x FROM delta.flight"), &scope(), &gdd());
        assert!(matches!(err, Err(MdbsError::NotInScope(_))));
    }

    #[test]
    fn group_by_aggregation_plans_a_pushdown() {
        let d = decompose(
            &select(
                "SELECT c.cartype, COUNT(*), SUM(f.rate), AVG(c.rate)
                 FROM avis.cars c, continental.flights f
                 WHERE c.rate = f.rate GROUP BY c.cartype",
            ),
            &scope(),
            &gdd(),
        )
        .unwrap();
        let Some(PushdownPlan::Aggregate(p)) = &d.pushdown else {
            panic!("expected aggregate pushdown: {:?}", d.pushdown)
        };
        assert_eq!(p.sites.len(), 2);
        assert_eq!(p.slots, 1);
        assert_eq!(p.aggs.len(), 3);
        assert_eq!(p.aggs[0].kind, AggKind::CountStar);
        assert_eq!(p.aggs[1].kind, AggKind::Sum);
        assert_eq!(p.aggs[2].kind, AggKind::Avg);
        assert!(p.aggs[2].value_col.is_some() && p.aggs[2].count_col.is_some());
        // Site 0 (avis) groups by its join key and the GROUP BY key, ships
        // COUNT(*) and the AVG partial; site 1 ships SUM's partial.
        let avis = print_select(&p.sites[0].select);
        assert!(avis.contains("GROUP BY c.rate, c.cartype"), "{avis}");
        assert!(avis.contains("COUNT(*) AS agg_cnt"), "{avis}");
        assert!(avis.contains("SUM(c.rate) AS agg2_s"), "{avis}");
        assert!(avis.contains("COUNT(c.rate) AS agg2_c"), "{avis}");
        let cont = print_select(&p.sites[1].select);
        assert!(cont.contains("SUM(f.rate) AS agg1_s"), "{cont}");
        assert_eq!(p.sites[0].join_cols, vec!["b_c_rate".to_string()]);
        assert_eq!(p.sites[1].join_cols, vec!["b_f_rate".to_string()]);
        assert_eq!(p.sites[0].key_cols, vec![(0, "b_c_cartype".to_string())]);
        assert!(p.sites[1].key_cols.is_empty());
        // Output order mirrors the projection.
        assert_eq!(p.output[0], AggOutput::Key { slot: 0, name: "cartype".into() });
        assert_eq!(p.output[1], AggOutput::Agg { agg: 0, name: "count".into() });
        // The classic plan is still fully populated for fallback.
        assert!(print_select(&d.global_query).contains("part_avis"));
    }

    #[test]
    fn join_key_that_is_also_group_key_is_shipped_once() {
        let d = decompose(
            &select(
                "SELECT c.rate, COUNT(*) FROM avis.cars c, continental.flights f
                 WHERE c.rate = f.rate GROUP BY c.rate",
            ),
            &scope(),
            &gdd(),
        )
        .unwrap();
        let Some(PushdownPlan::Aggregate(p)) = &d.pushdown else { panic!() };
        let avis = print_select(&p.sites[0].select);
        assert_eq!(avis.matches("b_c_rate").count(), 1, "{avis}");
        assert_eq!(p.sites[0].key_cols, vec![(0, "b_c_rate".to_string())]);
    }

    #[test]
    fn unsupported_aggregate_shapes_fall_back() {
        let cases = [
            // non-equi global conjunct
            "SELECT COUNT(*) FROM avis.cars c, continental.flights f WHERE c.rate < f.rate",
            // HAVING
            "SELECT c.cartype, COUNT(*) FROM avis.cars c, continental.flights f
             WHERE c.rate = f.rate GROUP BY c.cartype HAVING COUNT(*) > 1",
            // DISTINCT aggregation
            "SELECT DISTINCT c.cartype FROM avis.cars c, continental.flights f
             WHERE c.rate = f.rate GROUP BY c.cartype",
            // COUNT(DISTINCT …)
            "SELECT COUNT(DISTINCT c.code) FROM avis.cars c, continental.flights f
             WHERE c.rate = f.rate",
            // aggregate over an expression
            "SELECT SUM(c.rate + 1) FROM avis.cars c, continental.flights f
             WHERE c.rate = f.rate",
            // projected column outside GROUP BY
            "SELECT c.code, COUNT(*) FROM avis.cars c, continental.flights f
             WHERE c.rate = f.rate GROUP BY c.cartype",
            // LIMIT without ORDER BY truncates first-seen groups, not merged
            "SELECT c.cartype, COUNT(*) FROM avis.cars c, continental.flights f
             WHERE c.rate = f.rate GROUP BY c.cartype LIMIT 2",
        ];
        for sql in cases {
            let d = decompose(&select(sql), &scope(), &gdd()).unwrap();
            assert!(d.pushdown.is_none(), "expected fallback for {sql}");
        }
    }

    #[test]
    fn ordered_limited_product_plans_a_topk_pushdown() {
        let d = decompose(
            &select(
                "SELECT c.code, f.flnu FROM avis.cars c, continental.flights f
                 WHERE c.carst = 'available'
                 ORDER BY c.code DESC, f.flnu LIMIT 5",
            ),
            &scope(),
            &gdd(),
        )
        .unwrap();
        let Some(PushdownPlan::TopK(p)) = &d.pushdown else {
            panic!("expected top-k pushdown: {:?}", d.pushdown)
        };
        assert_eq!(p.limit, 5);
        assert_eq!(p.output.len(), 2);
        assert_eq!(p.output[0], (0, "b_c_code".to_string(), "code".to_string()));
        assert_eq!(p.order_by.len(), 2);
        assert_eq!(p.order_by[0].site, 0);
        assert_eq!(p.order_by[0].order, SortOrder::Desc);
        // Each site keeps its local filter, orders by its own components and
        // caps at k.
        let avis = print_select(&p.sites[0].select);
        assert!(avis.contains("carst = 'available'"), "{avis}");
        assert!(avis.contains("ORDER BY c.code DESC"), "{avis}");
        assert!(avis.ends_with("LIMIT 5"), "{avis}");
        let cont = print_select(&p.sites[1].select);
        assert!(cont.contains("ORDER BY f.flnu"), "{cont}");
        assert!(cont.ends_with("LIMIT 5"), "{cont}");
    }

    #[test]
    fn unsupported_topk_shapes_fall_back() {
        let cases = [
            // cross-database conjunct: per-site pruning could starve pairs
            "SELECT c.code, f.flnu FROM avis.cars c, continental.flights f
             WHERE c.rate = f.rate ORDER BY c.code LIMIT 5",
            // no LIMIT
            "SELECT c.code FROM avis.cars c, continental.flights f ORDER BY c.code",
            // no ORDER BY
            "SELECT c.code FROM avis.cars c, continental.flights f LIMIT 5",
            // DISTINCT collapses across sites after pairing
            "SELECT DISTINCT c.code FROM avis.cars c, continental.flights f
             ORDER BY c.code LIMIT 5",
            // computed projection
            "SELECT c.rate + 1 FROM avis.cars c, continental.flights f
             ORDER BY c.rate LIMIT 5",
        ];
        for sql in cases {
            let d = decompose(&select(sql), &scope(), &gdd()).unwrap();
            assert!(d.pushdown.is_none(), "expected fallback for {sql}");
        }
    }
}
