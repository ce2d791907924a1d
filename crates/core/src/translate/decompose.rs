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

/// A plan for answering a cross-database query from pre-reduced partials
/// merged at the MDBS layer, instead of shipping raw rows to a coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum PushdownPlan {
    /// Decomposable GROUP BY aggregation: sites group by (join keys ∪ own
    /// group keys) and ship partial states, which Q′ re-aggregates.
    Aggregate(Pushdown),
    /// Site-local top-k under `ORDER BY … LIMIT k` on a pure product: each
    /// site ships its own top k rows and Q′ keeps the top k of their pairings.
    TopK(Pushdown),
}

/// The queries of a pushdown: what each site runs instead of its decomposed
/// subquery, and the global query that answers the user's from their
/// partials.
#[derive(Debug, Clone, PartialEq)]
pub struct Pushdown {
    /// One rewritten subquery per decomposition subquery, same order; Q′
    /// reads its partial as `part_table`.
    pub sites: Vec<DbSubquery>,
    /// Q′ over the partials, with the user's answer columns.
    pub global: Select,
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

/// A column of one site as `(site, binding, column)`.
type SiteColumn = (usize, String, String);

/// Plans an aggregate pushdown, or `None` when the query's shape is not
/// decomposable. Supported shape: exactly two sites, every global conjunct a
/// cross-database equi-join edge, GROUP BY keys and aggregate arguments all
/// plain columns, no DISTINCT / HAVING / `COUNT(DISTINCT …)`, and every
/// ORDER BY expression matching a projected item. Each site then groups by
/// (its join-key columns ∪ its GROUP BY keys) and ships per-group partial
/// states that merge exactly (Yan-Larson eager aggregation). Q′ joins the two
/// partials on the join keys and re-aggregates them: a site's counts and
/// sums scale by the other side's group cardinality `agg_cnt`, min/max fold,
/// and AVG divides two such sums.
fn plan_aggregate_pushdown(
    sel: &Select,
    bindings: &[Binding],
    databases: &[String],
    subqueries: &[DbSubquery],
    global_conjuncts: &[Expr],
    join_keys: &[JoinKey],
) -> Option<Pushdown> {
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
    let part = |site: usize, column: &str| {
        Expr::Column(ColumnRef::with_table(subqueries[site].part_table.clone(), column.to_string()))
    };

    // GROUP BY keys: plain resolvable columns only.
    let mut slots: Vec<SiteColumn> = Vec::new();
    for g in &sel.group_by {
        let Expr::Column(c) = g else { return None };
        let (b, col) = resolve_column(c, bindings).ok()?;
        slots.push((site_of(b), b.name.clone(), col));
    }

    // Projected items: group keys and decomposable aggregates, each becoming
    // the Q′ item that re-aggregates it.
    let mut aggs: Vec<(AggregateKind, Option<SiteColumn>)> = Vec::new(); // None: COUNT(*)
    let mut items: Vec<SelectItem> = Vec::new();
    for item in &sel.items {
        let SelectItem::Expr { expr, alias, .. } = item else { return None };
        let (expr, name) = match expr {
            Expr::Column(c) => {
                let (b, col) = resolve_column(c, bindings).ok()?;
                let site = site_of(b);
                if !slots.iter().any(|(s, bn, cn)| *s == site && *bn == b.name && *cn == col) {
                    return None;
                }
                (part(site, &part_column(&b.name, &col)), c.column.as_str().to_string())
            }
            Expr::Aggregate { kind, arg, distinct: false } => {
                let arg = match arg {
                    None if *kind == AggregateKind::Count => None,
                    // SUM(*) etc. never parse; COUNT with no argument is the
                    // only argument-free aggregate.
                    None => return None,
                    Some(a) => {
                        let Expr::Column(c) = a.as_ref() else { return None };
                        let (b, col) = resolve_column(c, bindings).ok()?;
                        Some((site_of(b), b.name.clone(), col))
                    }
                };
                let expr = reaggregate(*kind, arg.as_ref().map(|a| a.0), aggs.len(), &part);
                aggs.push((*kind, arg));
                (expr, kind.name().to_ascii_lowercase())
            }
            _ => return None,
        };
        let alias = Some(alias.clone().unwrap_or(name));
        items.push(SelectItem::Expr { expr, alias, optional: false });
    }
    // Not an aggregate query at all → nothing to push.
    if aggs.is_empty() && slots.is_empty() {
        return None;
    }
    // Q′ emits its groups in their first-seen order over the partials, not
    // the classic plan's over the raw rows, so a bare LIMIT without ORDER BY
    // would truncate a different prefix. ORDER BY itself must map onto
    // projected items.
    if sel.limit.is_some() && sel.order_by.is_empty() {
        return None;
    }
    let mut order_by = Vec::with_capacity(sel.order_by.len());
    for o in &sel.order_by {
        let pos = sel.items.iter().position(|it| match it {
            SelectItem::Expr { expr, .. } => *expr == o.expr,
            _ => false,
        })?;
        let SelectItem::Expr { expr, .. } = &items[pos] else { return None };
        order_by.push(OrderByItem { expr: expr.clone(), order: o.order });
    }

    // Q′ joins the partials on the join keys.
    let mut conjuncts = Vec::with_capacity(join_keys.len());
    for k in join_keys {
        let [left, right] = [0, 1].map(|si| {
            let side = k.side_in(&subqueries[si].database)?;
            Some(Box::new(part(si, &side.part_column)))
        });
        conjuncts.push(Expr::Binary { left: left?, op: BinaryOp::Eq, right: right? });
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
        for k in join_keys {
            let side = k.side_in(db)?;
            push_key(
                &mut items,
                &mut group_by,
                &side.binding,
                &side.column,
                side.part_column.clone(),
            );
        }
        for (s, bn, cn) in &slots {
            if *s == si {
                push_key(&mut items, &mut group_by, bn, cn, part_column(bn, cn));
            }
        }
        items.push(SelectItem::Expr {
            expr: Expr::Aggregate { kind: AggregateKind::Count, arg: None, distinct: false },
            alias: Some("agg_cnt".to_string()),
            optional: false,
        });
        // A site query without GROUP BY answers an empty table with one
        // state row, `agg_cnt = 0`, which stands for no rows: it must join
        // nothing.
        if group_by.is_empty() {
            conjuncts.push(Expr::Binary {
                left: Box::new(part(si, "agg_cnt")),
                op: BinaryOp::Gt,
                right: Box::new(Expr::Literal(Literal::Int(0))),
            });
        }
        for (ai, (kind, arg)) in aggs.iter().enumerate() {
            let Some((arg_site, bn, cn)) = arg else { continue };
            if *arg_site != si {
                continue;
            }
            let arg_expr = Expr::Column(ColumnRef::with_table(bn.clone(), cn.clone()));
            let mut push_agg = |kind: AggregateKind, alias: String| {
                items.push(SelectItem::Expr {
                    expr: Expr::Aggregate {
                        kind,
                        arg: Some(Box::new(arg_expr.clone())),
                        distinct: false,
                    },
                    alias: Some(alias),
                    optional: false,
                });
            };
            let [count, sum, extreme] = state_columns(ai);
            match kind {
                AggregateKind::Count => push_agg(AggregateKind::Count, count),
                AggregateKind::Sum => push_agg(AggregateKind::Sum, sum),
                AggregateKind::Avg => {
                    push_agg(AggregateKind::Sum, sum);
                    push_agg(AggregateKind::Count, count);
                }
                AggregateKind::Min | AggregateKind::Max => push_agg(*kind, extreme),
            }
        }
        let select = Select {
            distinct: false,
            items,
            from: sub.select.from.clone(),
            where_clause: sub.select.where_clause.clone(),
            group_by,
            having: None,
            order_by: Vec::new(),
            limit: None,
        };
        let (database, part_table) = (sub.database.clone(), sub.part_table.clone());
        sites.push(DbSubquery { database, select, part_table });
    }

    let global = Select {
        distinct: false,
        items,
        from: subqueries.iter().map(|s| TableRef::named(s.part_table.clone())).collect(),
        where_clause: conjuncts.into_iter().reduce(Expr::and),
        group_by: slots.iter().map(|(s, bn, cn)| part(*s, &part_column(bn, cn))).collect(),
        having: None,
        order_by,
        limit: sel.limit,
    };
    Some(Pushdown { sites, global })
}

/// The partial-state columns a site ships for aggregate `i`: its non-null
/// count, its sum and its extreme.
fn state_columns(i: usize) -> [String; 3] {
    [format!("agg{i}_c"), format!("agg{i}_s"), format!("agg{i}_m")]
}

/// Q′'s expression for aggregate `i` of kind `kind` over an argument of
/// site `owner` (`None`: `COUNT(*)`), given `part(site, column)` for a
/// partial's column. A site's state stands for its group's rows once per
/// joined row of the other site, so counts and sums scale by the other
/// side's `agg_cnt`; a count over no rows is 0, not SUM's NULL.
fn reaggregate(
    kind: AggregateKind,
    owner: Option<usize>,
    i: usize,
    part: &impl Fn(usize, &str) -> Expr,
) -> Expr {
    let aggregate =
        |kind, arg: Expr| Expr::Aggregate { kind, arg: Some(Box::new(arg)), distinct: false };
    let binary =
        |left, op, right| Expr::Binary { left: Box::new(left), op, right: Box::new(right) };
    let [count, sum, extreme] = state_columns(i);
    let scaled = |site: usize, column: &str| {
        let product = binary(part(site, column), BinaryOp::Mul, part(1 - site, "agg_cnt"));
        aggregate(AggregateKind::Sum, product)
    };
    let or_zero = |e| Expr::Function {
        name: "coalesce".to_string(),
        args: vec![e, Expr::Literal(Literal::Int(0))],
    };
    let Some(s) = owner else { return or_zero(scaled(0, "agg_cnt")) };
    match kind {
        AggregateKind::Count => or_zero(scaled(s, &count)),
        AggregateKind::Sum => scaled(s, &sum),
        AggregateKind::Avg => binary(scaled(s, &sum), BinaryOp::Div, scaled(s, &count)),
        AggregateKind::Min | AggregateKind::Max => aggregate(kind, part(s, &extreme)),
    }
}

/// Plans a top-k pushdown, or `None` when the shape does not allow one.
/// Supported shape: exactly two sites, an empty global WHERE (pure product —
/// a cross-database conjunct could eliminate a row pairing and invalidate
/// per-site pruning), plain-column projection and ORDER BY, no aggregation
/// machinery, and `LIMIT k`. Each site orders by its own components of the
/// global sort (their relative order preserved), breaks ties over its
/// remaining projected columns for determinism, and ships only its top k;
/// Q′ then takes the global top k of the ≤ k×k pairings.
fn plan_topk_pushdown(
    sel: &Select,
    bindings: &[Binding],
    databases: &[String],
    subqueries: &[DbSubquery],
    global_conjuncts: &[Expr],
) -> Option<Pushdown> {
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
    // A column as its site's partial ships it, and as Q′ reads it.
    let shipped = |c: &ColumnRef| {
        let (b, col) = resolve_column(c, bindings).ok()?;
        let site = databases.iter().position(|d| *d == b.database).unwrap();
        let part =
            ColumnRef::with_table(subqueries[site].part_table.clone(), part_column(&b.name, &col));
        Some((site, ColumnRef::with_table(b.name.clone(), col), Expr::Column(part)))
    };

    let mut items = Vec::with_capacity(sel.items.len());
    for item in &sel.items {
        let SelectItem::Expr { expr: Expr::Column(c), alias, .. } = item else { return None };
        let (_, _, expr) = shipped(c)?;
        let alias = Some(alias.clone().unwrap_or_else(|| c.column.as_str().to_string()));
        items.push(SelectItem::Expr { expr, alias, optional: false });
    }
    // The global sort sequence, each component resolved to its owning site.
    let mut order_by = Vec::with_capacity(sel.order_by.len());
    let mut site_orders: Vec<Vec<OrderByItem>> = vec![Vec::new(); subqueries.len()];
    for o in &sel.order_by {
        let Expr::Column(c) = &o.expr else { return None };
        let (site, local, global) = shipped(c)?;
        order_by.push(OrderByItem { expr: global, order: o.order });
        site_orders[site].push(OrderByItem { expr: Expr::Column(local), order: o.order });
    }

    let mut sites = Vec::with_capacity(subqueries.len());
    for (sub, mut order) in subqueries.iter().zip(site_orders) {
        // Deterministic tie-break: every other shipped column, ascending, so
        // the site's kept prefix (and thus the shipped bytes) is stable
        // across runs even when the ordered components tie.
        for it in &sub.select.items {
            let SelectItem::Expr { expr, .. } = it else { continue };
            if !order.iter().any(|o| o.expr == *expr) {
                order.push(OrderByItem { expr: expr.clone(), order: SortOrder::Asc });
            }
        }
        let mut site = sub.clone();
        site.select.order_by = order;
        site.select.limit = Some(limit);
        sites.push(site);
    }

    let global = Select {
        distinct: false,
        items,
        from: subqueries.iter().map(|s| TableRef::named(s.part_table.clone())).collect(),
        where_clause: None,
        group_by: Vec::new(),
        having: None,
        order_by,
        limit: Some(limit),
    };
    Some(Pushdown { sites, global })
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
        // Site 0 (avis) groups by its join key and the GROUP BY key, ships
        // COUNT(*) and the AVG partial; site 1 ships SUM's partial.
        let avis = print_select(&p.sites[0].select);
        assert!(avis.contains("GROUP BY c.rate, c.cartype"), "{avis}");
        assert!(avis.contains("COUNT(*) AS agg_cnt"), "{avis}");
        assert!(avis.contains("SUM(c.rate) AS agg2_s"), "{avis}");
        assert!(avis.contains("COUNT(c.rate) AS agg2_c"), "{avis}");
        let cont = print_select(&p.sites[1].select);
        assert!(cont.contains("SUM(f.rate) AS agg1_s"), "{cont}");
        // Q′ joins the partials on the join key and re-aggregates them, its
        // columns named as the user's query names them.
        assert_eq!(
            print_select(&p.global),
            "SELECT part_avis.b_c_cartype AS cartype, \
             coalesce(SUM(part_avis.agg_cnt * part_continental.agg_cnt), 0) AS count, \
             SUM(part_continental.agg1_s * part_avis.agg_cnt) AS sum, \
             SUM(part_avis.agg2_s * part_continental.agg_cnt) \
             / SUM(part_avis.agg2_c * part_continental.agg_cnt) AS avg \
             FROM part_avis, part_continental \
             WHERE part_avis.b_c_rate = part_continental.b_f_rate \
             GROUP BY part_avis.b_c_cartype"
        );
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
        let global = print_select(&p.global);
        assert!(global.ends_with("GROUP BY part_avis.b_c_rate"), "{global}");
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
        // Q′ pairs the two sites' top k and keeps the global top k.
        assert_eq!(
            print_select(&p.global),
            "SELECT part_avis.b_c_code AS code, part_continental.b_f_flnu AS flnu \
             FROM part_avis, part_continental \
             ORDER BY part_avis.b_c_code DESC, part_continental.b_f_flnu LIMIT 5"
        );
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
