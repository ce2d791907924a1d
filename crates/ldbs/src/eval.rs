//! Expression binding and evaluation: SQL three-valued logic, aggregates as
//! accumulators, correlated subqueries.
//!
//! A statement's expressions are **bound once** and then evaluated per row
//! without resolving a name or allocating:
//!
//! * [`Binder::bind`] turns an [`Expr`] into a [`Bound`] tree. A column
//!   reference becomes a slot `(blocks up, source, column)` found by the
//!   lookup rules of [`lookup`] — innermost block first, then the enclosing
//!   blocks of a correlated subquery; a literal becomes a [`Value`]; an
//!   aggregate call becomes an index into the group's accumulators
//!   ([`AggSpec`] / [`Acc`]); a subquery is prepared into its own
//!   [`SelectPlan`] and knows statically whether it reads an enclosing block.
//!   A reference that does not resolve (unknown, ambiguous, remote-qualified,
//!   still a wildcard), an aggregate where none may stand and a subquery
//!   whose block cannot be prepared all bind to [`Bound::Raise`]: the error
//!   is reported when the node is *evaluated*, so a statement over empty
//!   input still succeeds.
//! * [`Bound::eval`] takes the current rows as a [`Frame`] — one row per FROM
//!   source of the block, linked to the frames of the enclosing blocks — and
//!   borrows stored values and constants instead of cloning them.

use crate::engine::{Database, ResultSet};
use crate::error::DbError;
use crate::exec::select::{prepare_select, AccessStats, SelectPlan};
use crate::keyindex::KeyIndex;
use crate::schema::TableSchema;
use crate::table::Row;
use crate::value::Value;
use msql_lang::{AggregateKind, BinaryOp, ColumnRef, Expr, Literal, Select, UnaryOp};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::rc::Rc;
use std::slice::from_ref;

/// Statement-scoped results of *uncorrelated* subqueries, keyed by node.
///
/// The reservation pattern of §3.4 (`WHERE snu = (SELECT MIN(snu) ...)`)
/// meets the same subquery for every candidate row; binding knows whether it
/// reads the outer row, and when it does not — scalar, `IN` or `EXISTS` —
/// one execution serves the whole statement.
#[derive(Debug, Default)]
pub struct SubqueryCache {
    entries: RefCell<Vec<Option<Rc<ResultSet>>>>,
    executions: Cell<usize>,
}

impl SubqueryCache {
    /// An empty cache.
    pub fn new() -> Self {
        SubqueryCache::default()
    }

    /// Reserves the slot of one subquery node.
    fn node(&self) -> usize {
        let mut entries = self.entries.borrow_mut();
        entries.push(None);
        entries.len() - 1
    }

    /// Number of cached subquery results (for tests).
    pub fn len(&self) -> usize {
        self.entries.borrow().iter().flatten().count()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of subquery executions, cached or not (for tests).
    pub fn executions(&self) -> usize {
        self.executions.get()
    }
}

/// One FROM entry as a name sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScopeSource<'s> {
    /// Binding name: the table alias if given, else the table name.
    pub(crate) binding: &'s str,
    /// The schema of the rows it holds.
    pub(crate) schema: &'s TableSchema,
}

/// The FROM bindings of one query block, linked to the enclosing block's.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scope<'s> {
    /// This block's sources, in FROM order.
    pub(crate) sources: &'s [ScopeSource<'s>],
    /// The enclosing block (for correlated subqueries).
    pub(crate) parent: Option<&'s Scope<'s>>,
}

#[cfg(test)]
thread_local! {
    /// Name resolutions performed on this thread: binding is per statement,
    /// so the count must not depend on how many rows a statement reads.
    pub(crate) static RESOLUTIONS: Cell<usize> = const { Cell::new(0) };
}

/// Looks a column up in one block: `(source, column)` positions, `Ok(None)`
/// for "not bound here". A qualifier selects the first source it names (by
/// binding or by table name); an unqualified column must be unique across
/// the block's sources.
pub(crate) fn lookup(
    sources: &[ScopeSource<'_>],
    table: Option<&str>,
    column: &str,
) -> Result<Option<(usize, usize)>, DbError> {
    #[cfg(test)]
    RESOLUTIONS.with(|n| n.set(n.get() + 1));
    if let Some(t) = table {
        let named = sources.iter().position(|s| s.binding == t || s.schema.name == t);
        return Ok(named.and_then(|si| Some((si, sources[si].schema.column_index(column)?))));
    }
    let mut found = None;
    for (si, s) in sources.iter().enumerate() {
        if let Some(ci) = s.schema.column_index(column) {
            if found.is_some() {
                return Err(DbError::AmbiguousColumn(column.to_string()));
            }
            found = Some((si, ci));
        }
    }
    Ok(found)
}

/// The rows an expression is evaluated against: one per FROM source of its
/// block, the group's accumulators once rows are grouped, and the frame of
/// the enclosing block.
#[derive(Clone, Copy)]
pub(crate) struct Frame<'f, 'v> {
    /// Current row of each source, in FROM order. Empty for constant
    /// expressions and for an ungrouped aggregate over no rows.
    pub(crate) rows: &'f [&'v Row],
    /// Accumulators of the current group; empty before grouping.
    pub(crate) aggs: &'f [Acc],
    /// Frame of the enclosing block.
    pub(crate) parent: Option<&'f Frame<'f, 'v>>,
}

impl<'f, 'v> Frame<'f, 'v> {
    /// No rows at all: constant expressions, `VALUES` lists.
    pub(crate) const EMPTY: Frame<'static, 'static> = Frame { rows: &[], aggs: &[], parent: None };

    /// The current rows of a block that has not grouped (yet).
    pub(crate) fn of(rows: &'f [&'v Row], parent: Option<&'f Frame<'f, 'v>>) -> Self {
        Frame { rows, aggs: &[], parent }
    }
}

/// A scalar function, resolved from its name at bind time.
pub(crate) enum Func {
    Upper,
    Lower,
    Length,
    Abs,
    Round,
    Coalesce,
    Substr,
    Trim,
    Unknown(String),
}

impl Func {
    fn resolve(name: &str) -> Func {
        match name {
            "upper" => Func::Upper,
            "lower" => Func::Lower,
            "length" => Func::Length,
            "abs" => Func::Abs,
            "round" => Func::Round,
            "coalesce" => Func::Coalesce,
            "substr" | "substring" => Func::Substr,
            "trim" => Func::Trim,
            other => Func::Unknown(other.to_string()),
        }
    }

    fn name(&self) -> &str {
        match self {
            Func::Upper => "upper",
            Func::Lower => "lower",
            Func::Length => "length",
            Func::Abs => "abs",
            Func::Round => "round",
            Func::Coalesce => "coalesce",
            Func::Substr => "substr",
            Func::Trim => "trim",
            Func::Unknown(name) => name,
        }
    }
}

/// An expression with every name resolved. See the module docs.
pub(crate) enum Bound<'a> {
    Const(Value),
    /// Column `column` of source `source`, `up` blocks out from the block
    /// the expression belongs to.
    Slot {
        up: usize,
        source: usize,
        column: usize,
    },
    /// Reports this error when evaluated.
    Raise(DbError),
    Neg(Box<Bound<'a>>),
    Not(Box<Bound<'a>>),
    Binary {
        left: Box<Bound<'a>>,
        op: BinaryOp,
        right: Box<Bound<'a>>,
    },
    /// Reads accumulator `n` of the current group.
    Agg(usize),
    Function {
        func: Func,
        args: Vec<Bound<'a>>,
    },
    Scalar(Box<BoundSubquery<'a>>),
    Exists {
        subquery: Box<BoundSubquery<'a>>,
        negated: bool,
    },
    InList {
        expr: Box<Bound<'a>>,
        list: Vec<Bound<'a>>,
        negated: bool,
    },
    /// An IN-list of literals only, converted and indexed once: `members`
    /// are the literals a probe can equal (not NULL, not NaN), in list order.
    InValues {
        expr: Box<Bound<'a>>,
        members: Vec<Value>,
        index: KeyIndex,
        saw_null: bool,
        negated: bool,
    },
    InSubquery {
        expr: Box<Bound<'a>>,
        subquery: Box<BoundSubquery<'a>>,
        negated: bool,
    },
    Between {
        expr: Box<Bound<'a>>,
        low: Box<Bound<'a>>,
        high: Box<Bound<'a>>,
        negated: bool,
    },
    IsNull {
        expr: Box<Bound<'a>>,
        negated: bool,
    },
    Like {
        expr: Box<Bound<'a>>,
        pattern: Box<Bound<'a>>,
        negated: bool,
    },
}

/// A subquery prepared inside the block that contains it.
pub(crate) struct BoundSubquery<'a> {
    /// The prepared block, or what preparing it raised (an unknown table,
    /// say) — reported, like any resolution error, on evaluation.
    plan: Result<SelectPlan<'a>, DbError>,
    cache: &'a SubqueryCache,
    /// This node's slot in `cache`.
    node: usize,
}

impl BoundSubquery<'_> {
    /// The subquery's rows under `frame`: executed once per statement when
    /// it reads no enclosing block, once per call when it does.
    fn rows(&self, frame: &Frame<'_, '_>) -> Result<Rc<ResultSet>, DbError> {
        let plan = self.plan.as_ref().map_err(Clone::clone)?;
        let correlated = plan.reach() > 0;
        if !correlated {
            if let Some(rs) = &self.cache.entries.borrow()[self.node] {
                return Ok(Rc::clone(rs));
            }
        }
        self.cache.executions.set(self.cache.executions.get() + 1);
        // Like every subquery, not counted in the statement's access stats.
        let rs = Rc::new(plan.collect(Some(frame), true, &AccessStats::default())?);
        if !correlated {
            self.cache.entries.borrow_mut()[self.node] = Some(Rc::clone(&rs));
        }
        Ok(rs)
    }
}

/// One aggregate call of a block: what to fold, and how.
pub(crate) struct AggSpec<'a> {
    kind: AggregateKind,
    distinct: bool,
    /// `None` is `COUNT(*)`.
    arg: Option<Bound<'a>>,
}

/// The running state of one aggregate over one group.
///
/// Folding never fails: the first error the argument or the fold raises is
/// kept and reported only if an expression *reads* the aggregate — a group
/// HAVING rejects must not fail the statement because a SUM in its select
/// list would have overflowed.
pub(crate) struct Acc {
    kind: AggregateKind,
    /// Values folded in: rows for `COUNT(*)`, else non-NULL argument values
    /// (first occurrences only under DISTINCT).
    count: i64,
    /// Running SUM, or current MIN / MAX; `None` before the first value.
    value: Option<Value>,
    error: Option<DbError>,
    /// DISTINCT: the values folded so far, in first-appearance order.
    seen: Option<(KeyIndex, Vec<Value>)>,
}

impl AggSpec<'_> {
    /// The accumulator of an empty group.
    pub(crate) fn start(&self) -> Acc {
        Acc {
            kind: self.kind,
            count: 0,
            value: None,
            error: None,
            seen: self.distinct.then(Default::default),
        }
    }

    /// Folds the row(s) of `frame` into `acc`, in enumeration order.
    pub(crate) fn feed(&self, acc: &mut Acc, frame: &Frame<'_, '_>) {
        if acc.error.is_some() {
            return;
        }
        let Some(arg) = &self.arg else {
            acc.count += 1;
            return;
        };
        let v = match arg.eval(frame) {
            Ok(v) => v,
            Err(e) => {
                acc.error = Some(e);
                return;
            }
        };
        if v.is_null() {
            return;
        }
        if let Some((index, seen)) = &mut acc.seen {
            // DISTINCT dedups by `sql_cmp`, keeping first occurrences. NaN
            // equals nothing under `sql_cmp`, so every NaN is a new value;
            // on everything else here `sql_cmp` and the index agree.
            if v.key_ref().is_some() {
                match index.find_or_insert(from_ref(v.as_ref()), |i| from_ref(&seen[i])) {
                    Ok(_) => return,
                    Err(_) => seen.push(v.as_ref().clone()),
                }
            }
        }
        acc.count += 1;
        match (self.kind, &acc.value) {
            (AggregateKind::Count, _) => {}
            // MIN keeps the first minimum, MAX the last maximum (the fold
            // order of `Iterator::min_by` / `max_by` under `total_cmp`).
            (AggregateKind::Min, Some(cur)) if cur.total_cmp(&v) != Ordering::Greater => {}
            (AggregateKind::Max, Some(cur)) if cur.total_cmp(&v) == Ordering::Greater => {}
            (AggregateKind::Min | AggregateKind::Max, _) => acc.value = Some(v.into_owned()),
            (AggregateKind::Sum | AggregateKind::Avg, cur) => {
                match cur.as_ref().unwrap_or(&Value::Int(0)).add(&v) {
                    Ok(sum) => acc.value = Some(sum),
                    Err(e) => acc.error = Some(e),
                }
            }
        }
    }
}

impl Acc {
    /// Reports the error folding ran into, if any.
    pub(crate) fn check(&self) -> Result<(), DbError> {
        self.error.clone().map_or(Ok(()), Err)
    }

    /// The aggregate's value over what was folded; all-NULL or empty input
    /// gives NULL (0 for the counts).
    fn finish(&self) -> Result<Value, DbError> {
        self.check()?;
        match (self.kind, &self.value) {
            (AggregateKind::Count, _) => Ok(Value::Int(self.count)),
            (_, None) => Ok(Value::Null),
            (AggregateKind::Avg, Some(sum)) => sum.div(&Value::Int(self.count)),
            (_, Some(v)) => Ok(v.clone()),
        }
    }
}

/// Where the aggregate calls of an expression being bound go.
enum Aggs<'x, 'a> {
    /// Nowhere: the expression is evaluated per row.
    Misplaced,
    Collect(&'x mut Vec<AggSpec<'a>>),
    Number(&'x mut usize),
}

/// Binds the expressions of one query block. See the module docs.
pub(crate) struct Binder<'a, 's> {
    db: &'a Database,
    cache: &'a SubqueryCache,
    scope: Option<&'s Scope<'s>>,
    /// How many blocks out the farthest name bound so far resolved.
    reach: Cell<usize>,
}

impl<'a, 's> Binder<'a, 's> {
    /// A binder for the block whose FROM bindings are `scope` (`None`:
    /// constant expressions). Subqueries are prepared against `db` and share
    /// `cache`.
    pub(crate) fn new(
        db: &'a Database,
        cache: &'a SubqueryCache,
        scope: Option<&'s Scope<'s>>,
    ) -> Self {
        Binder { db, cache, scope, reach: Cell::new(0) }
    }

    /// How many blocks out the farthest reference bound so far reaches: 0
    /// when everything resolved inside the block itself.
    pub(crate) fn reach(&self) -> usize {
        self.reach.get()
    }

    /// Binds an expression evaluated per row: WHERE, GROUP BY keys, a plain
    /// projection, SET values. An aggregate call there is an error.
    pub(crate) fn bind(&self, e: &Expr) -> Bound<'a> {
        self.node(e, &mut Aggs::Misplaced)
    }

    /// Binds an expression evaluated per group (projection, HAVING, ORDER BY
    /// of an aggregating block): each aggregate call is appended to `aggs`
    /// and reads that accumulator.
    pub(crate) fn bind_grouped(&self, e: &Expr, aggs: &mut Vec<AggSpec<'a>>) -> Bound<'a> {
        self.node(e, &mut Aggs::Collect(aggs))
    }

    /// [`Self::bind_grouped`] for a second binding of expressions whose
    /// aggregates were collected by the first, in the same order: calls are
    /// numbered from `*next` on and their arguments left alone.
    pub(crate) fn bind_regrouped(&self, e: &Expr, next: &mut usize) -> Bound<'a> {
        self.node(e, &mut Aggs::Number(next))
    }

    fn node(&self, e: &Expr, aggs: &mut Aggs<'_, 'a>) -> Bound<'a> {
        let mut bx = |e: &Expr| Box::new(self.node(e, aggs));
        match e {
            Expr::Literal(l) => Bound::Const(literal_value(l)),
            Expr::Column(c) => self.column(c),
            Expr::Unary { op: UnaryOp::Neg, expr } => Bound::Neg(bx(expr)),
            Expr::Unary { op: UnaryOp::Not, expr } => Bound::Not(bx(expr)),
            Expr::Binary { left, op, right } => {
                Bound::Binary { left: bx(left), op: *op, right: bx(right) }
            }
            Expr::Aggregate { kind, arg, distinct } => match aggs {
                // The argument is a per-row expression: an aggregate nested
                // in it is an error, like one in WHERE.
                Aggs::Collect(list) => {
                    let arg = arg.as_deref().map(|a| self.bind(a));
                    list.push(AggSpec { kind: *kind, distinct: *distinct, arg });
                    Bound::Agg(list.len() - 1)
                }
                Aggs::Number(next) => {
                    **next += 1;
                    Bound::Agg(**next - 1)
                }
                Aggs::Misplaced => Bound::Raise(DbError::Internal(
                    "aggregate call where no group is being formed".into(),
                )),
            },
            Expr::Function { name, args } => Bound::Function {
                func: Func::resolve(name),
                args: args.iter().map(|a| self.node(a, aggs)).collect(),
            },
            Expr::Subquery(sel) => Bound::Scalar(self.subquery(sel)),
            Expr::Exists { subquery, negated } => {
                Bound::Exists { subquery: self.subquery(subquery), negated: *negated }
            }
            Expr::InList { expr, list, negated } => {
                let literals = list.iter().map(|i| match i {
                    Expr::Literal(l) => Some(literal_value(l)),
                    _ => None,
                });
                match literals.collect::<Option<Vec<Value>>>() {
                    Some(values) => {
                        let saw_null = values.iter().any(Value::is_null);
                        // Every member is indexed, equal ones too: `=` is not
                        // transitive past 2^53, so a probe may equal a later
                        // duplicate and not the first.
                        let members: Vec<Value> =
                            values.into_iter().filter(|v| v.key_ref().is_some()).collect();
                        let mut index = KeyIndex::default();
                        for v in &members {
                            index.insert(from_ref(v));
                        }
                        Bound::InValues {
                            expr: bx(expr),
                            members,
                            index,
                            saw_null,
                            negated: *negated,
                        }
                    }
                    None => Bound::InList {
                        expr: bx(expr),
                        list: list.iter().map(|i| self.node(i, aggs)).collect(),
                        negated: *negated,
                    },
                }
            }
            Expr::InSubquery { expr, subquery, negated } => Bound::InSubquery {
                expr: bx(expr),
                subquery: self.subquery(subquery),
                negated: *negated,
            },
            Expr::Between { expr, low, high, negated } => {
                Bound::Between { expr: bx(expr), low: bx(low), high: bx(high), negated: *negated }
            }
            Expr::IsNull { expr, negated } => Bound::IsNull { expr: bx(expr), negated: *negated },
            Expr::Like { expr, pattern, negated } => {
                Bound::Like { expr: bx(expr), pattern: bx(pattern), negated: *negated }
            }
        }
    }

    fn column(&self, c: &ColumnRef) -> Bound<'a> {
        if c.is_multiple() {
            return Bound::Raise(DbError::NotLocalSql(format!(
                "column reference `{}` still contains a wildcard",
                c.column
            )));
        }
        if let Some(db) = &c.database {
            if db.as_str() != self.db.name {
                return Bound::Raise(DbError::NotLocalSql(format!(
                    "reference to remote database `{db}` inside local SQL"
                )));
            }
        }
        let table = c.table.as_ref().map(|t| t.as_str());
        let column = c.column.as_str();
        let mut scope = self.scope;
        let mut up = 0;
        while let Some(s) = scope {
            match lookup(s.sources, table, column) {
                Ok(Some((source, column))) => {
                    self.reach.set(self.reach.get().max(up));
                    return Bound::Slot { up, source, column };
                }
                Ok(None) => {}
                Err(e) => return Bound::Raise(e),
            }
            scope = s.parent;
            up += 1;
        }
        Bound::Raise(DbError::UnknownColumn(match table {
            Some(t) => format!("{t}.{column}"),
            None => column.to_string(),
        }))
    }

    fn subquery(&self, sel: &Select) -> Box<BoundSubquery<'a>> {
        let plan = prepare_select(self.db, sel, self.scope, self.cache);
        if let Ok(plan) = &plan {
            // What the subquery reads beyond its own block, this block reads
            // one level closer.
            self.reach.set(self.reach.get().max(plan.reach().saturating_sub(1)));
        }
        Box::new(BoundSubquery { plan, cache: self.cache, node: self.cache.node() })
    }
}

/// An owned NULL, for filling fixed-size argument buffers.
const NULL: Cow<'static, Value> = Cow::Owned(Value::Null);

fn owned<'v>(v: Value) -> Result<Cow<'v, Value>, DbError> {
    Ok(Cow::Owned(v))
}

impl Bound<'_> {
    /// True when the expression, read as a predicate, holds: only TRUE
    /// accepts a row, UNKNOWN does not.
    pub(crate) fn accepts(&self, frame: &Frame<'_, '_>) -> Result<bool, DbError> {
        Ok(self.eval(frame)?.as_truth()? == Some(true))
    }

    /// Evaluates against the current rows.
    #[inline]
    pub(crate) fn eval<'v>(&'v self, frame: &Frame<'_, 'v>) -> Result<Cow<'v, Value>, DbError> {
        // The leaves of almost every predicate, kept out of the big match.
        match self {
            Bound::Const(v) => Ok(Cow::Borrowed(v)),
            Bound::Slot { up: 0, source, column } => {
                Ok(Cow::Borrowed(&frame.rows[*source][*column]))
            }
            _ => self.eval_inner(frame),
        }
    }

    fn eval_inner<'v>(&'v self, frame: &Frame<'_, 'v>) -> Result<Cow<'v, Value>, DbError> {
        match self {
            Bound::Const(v) => Ok(Cow::Borrowed(v)),
            Bound::Slot { up, source, column } => {
                let mut f = frame;
                for _ in 0..*up {
                    f = f.parent.expect("a slot is bound against the frames it is evaluated in");
                }
                Ok(Cow::Borrowed(&f.rows[*source][*column]))
            }
            Bound::Raise(e) => Err(e.clone()),
            Bound::Neg(expr) => owned(expr.eval(frame)?.neg()?),
            Bound::Not(expr) => owned(truth_value(expr.eval(frame)?.as_truth()?.map(|b| !b))),
            Bound::Binary { left, op, right } => owned(eval_binary(left, *op, right, frame)?),
            Bound::Agg(n) => owned(frame.aggs[*n].finish()?),
            Bound::Function { func, args } => owned(call_function(func, args, frame)?),
            Bound::Scalar(subquery) => owned(scalar_result(subquery.rows(frame)?.as_ref())?),
            Bound::Exists { subquery, negated } => {
                let exists = !subquery.rows(frame)?.rows.is_empty();
                owned(Value::Bool(exists != *negated))
            }
            Bound::InList { expr, list, negated } => {
                let probe = expr.eval(frame)?;
                let mut state = InState::default();
                // Every candidate is evaluated, because it may raise.
                for item in list {
                    state.see(&probe, item.eval(frame)?.as_ref());
                }
                owned(state.result(&probe, *negated))
            }
            Bound::InValues { expr, members, index, saw_null, negated } => {
                let probe = expr.eval(frame)?;
                // One hash and a bucket re-check. NULL and NaN equal no
                // member (and would read the index by another relation).
                let found = probe.key_ref().is_some()
                    && index.find(from_ref(probe.as_ref()), |i| from_ref(&members[i])).is_some();
                owned(InState { found, saw_null: *saw_null }.result(&probe, *negated))
            }
            Bound::InSubquery { expr, subquery, negated } => {
                let probe = expr.eval(frame)?;
                let rs = subquery.rows(frame)?;
                if rs.columns.len() != 1 {
                    return Err(DbError::TypeError("IN subquery must return one column".into()));
                }
                owned(in_values(&probe, rs.rows.iter().map(|row| &row[0]), *negated))
            }
            Bound::Between { expr, low, high, negated } => {
                let v = expr.eval(frame)?;
                let lo = low.eval(frame)?;
                let hi = high.eval(frame)?;
                let ge = v.sql_cmp(&lo).map(|o| o != Ordering::Less);
                let le = v.sql_cmp(&hi).map(|o| o != Ordering::Greater);
                owned(truth_value(negate_if(three_and(ge, le), *negated)))
            }
            Bound::IsNull { expr, negated } => {
                owned(Value::Bool(expr.eval(frame)?.is_null() != *negated))
            }
            Bound::Like { expr, pattern, negated } => {
                let v = expr.eval(frame)?;
                let p = pattern.eval(frame)?;
                owned(match v.sql_like(&p)? {
                    Value::Bool(b) => Value::Bool(b != *negated),
                    other => other,
                })
            }
        }
    }
}

/// Evaluates every argument (each may raise) before the function looks at
/// any. The built-ins take at most three, which need no heap buffer.
fn call_function(func: &Func, args: &[Bound<'_>], frame: &Frame<'_, '_>) -> Result<Value, DbError> {
    let mut inline = [NULL, NULL, NULL];
    let mut spilled = Vec::new();
    let vals: &[Cow<'_, Value>] = if args.len() <= inline.len() {
        for (slot, a) in inline.iter_mut().zip(args) {
            *slot = a.eval(frame)?;
        }
        &inline[..args.len()]
    } else {
        for a in args {
            spilled.push(a.eval(frame)?);
        }
        &spilled
    };
    eval_function(func, vals)
}

fn eval_binary(
    left: &Bound<'_>,
    op: BinaryOp,
    right: &Bound<'_>,
    frame: &Frame<'_, '_>,
) -> Result<Value, DbError> {
    // AND/OR get SQL three-valued logic with short-circuiting.
    if op == BinaryOp::And || op == BinaryOp::Or {
        let l = left.eval(frame)?.as_truth()?;
        match (op, l) {
            (BinaryOp::And, Some(false)) => return Ok(Value::Bool(false)),
            (BinaryOp::Or, Some(true)) => return Ok(Value::Bool(true)),
            _ => {}
        }
        let r = right.eval(frame)?.as_truth()?;
        let out = match op {
            BinaryOp::And => three_and(l, r),
            _ => three_or(l, r),
        };
        return Ok(truth_value(out));
    }
    let l = left.eval(frame)?;
    let r = right.eval(frame)?;
    let compare = |f: fn(Ordering) -> bool| Ok(truth_value(l.sql_cmp(&r).map(f)));
    match op {
        BinaryOp::Add => l.add(&r),
        BinaryOp::Sub => l.sub(&r),
        BinaryOp::Mul => l.mul(&r),
        BinaryOp::Div => l.div(&r),
        BinaryOp::Concat => l.concat(&r),
        BinaryOp::Eq => compare(|o| o == Ordering::Equal),
        BinaryOp::NotEq => compare(|o| o != Ordering::Equal),
        BinaryOp::Lt => compare(|o| o == Ordering::Less),
        BinaryOp::LtEq => compare(|o| o != Ordering::Greater),
        BinaryOp::Gt => compare(|o| o == Ordering::Greater),
        BinaryOp::GtEq => compare(|o| o != Ordering::Less),
        BinaryOp::And | BinaryOp::Or => unreachable!("handled above"),
    }
}

/// Extracts the single value of a scalar subquery result.
fn scalar_result(rs: &ResultSet) -> Result<Value, DbError> {
    if rs.columns.len() != 1 {
        return Err(DbError::TypeError(format!(
            "scalar subquery must return one column, returned {}",
            rs.columns.len()
        )));
    }
    match rs.rows.as_slice() {
        [] => Ok(Value::Null),
        [row] => Ok(row[0].clone()),
        _ => Err(DbError::SubqueryCardinality),
    }
}

/// Converts a parsed literal to a runtime value.
pub fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Null => Value::Null,
        Literal::Int(v) => Value::Int(*v),
        Literal::Float(v) => Value::Float(*v),
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::Bool(b) => Value::Bool(*b),
    }
}

/// Converts a runtime value back to a literal (the multidatabase layer
/// prints shipped values into the SQL it sends: semi-join `IN` lists, the
/// rows of a coordinator temp table).
pub fn value_literal(v: &Value) -> Literal {
    match v {
        Value::Null => Literal::Null,
        Value::Int(i) => Literal::Int(*i),
        Value::Float(f) => Literal::Float(*f),
        Value::Str(s) => Literal::Str(s.clone()),
        Value::Bool(b) => Literal::Bool(*b),
    }
}

fn three_and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn three_or(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

fn negate_if(v: Option<bool>, negate: bool) -> Option<bool> {
    if negate {
        v.map(|b| !b)
    } else {
        v
    }
}

fn truth_value(v: Option<bool>) -> Value {
    match v {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}

/// SQL IN over candidates that are already values.
fn in_values<'c>(
    probe: &Value,
    candidates: impl IntoIterator<Item = &'c Value>,
    negated: bool,
) -> Value {
    let mut state = InState::default();
    for c in candidates {
        state.see(probe, c);
        if state.found {
            break;
        }
    }
    state.result(probe, negated)
}

/// SQL IN semantics, one candidate at a time: TRUE if any candidate equals
/// the probe; otherwise UNKNOWN if the probe or any candidate is NULL;
/// otherwise FALSE.
#[derive(Default)]
struct InState {
    found: bool,
    saw_null: bool,
}

impl InState {
    fn see(&mut self, probe: &Value, candidate: &Value) {
        if candidate.is_null() {
            self.saw_null = true;
        } else if probe.sql_cmp(candidate) == Some(Ordering::Equal) {
            self.found = true;
        }
    }

    fn result(&self, probe: &Value, negated: bool) -> Value {
        if probe.is_null() {
            Value::Null
        } else if self.found {
            Value::Bool(!negated)
        } else if self.saw_null {
            Value::Null
        } else {
            Value::Bool(negated)
        }
    }
}

/// Built-in scalar functions.
fn eval_function(func: &Func, args: &[Cow<'_, Value>]) -> Result<Value, DbError> {
    let name = func.name();
    let arity = |n: usize| -> Result<(), DbError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(DbError::TypeError(format!("{name} expects {n} argument(s), got {}", args.len())))
        }
    };
    match func {
        Func::Upper | Func::Lower => {
            arity(1)?;
            match args[0].as_ref() {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Str(if matches!(func, Func::Upper) {
                    s.to_uppercase()
                } else {
                    s.to_lowercase()
                })),
                other => Err(DbError::TypeError(format!("{name} requires a string, got {other}"))),
            }
        }
        Func::Length => {
            arity(1)?;
            match args[0].as_ref() {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                other => Err(DbError::TypeError(format!("length requires a string, got {other}"))),
            }
        }
        Func::Abs => {
            arity(1)?;
            match args[0].as_ref() {
                Value::Null => Ok(Value::Null),
                Value::Int(v) => Ok(Value::Int(v.abs())),
                Value::Float(v) => Ok(Value::Float(v.abs())),
                other => Err(DbError::TypeError(format!("abs requires a number, got {other}"))),
            }
        }
        Func::Round => {
            if args.is_empty() || args.len() > 2 {
                return Err(DbError::TypeError("round expects 1 or 2 arguments".into()));
            }
            let digits = match args.get(1).map(Cow::as_ref) {
                None => 0i64,
                Some(Value::Int(d)) => *d,
                Some(other) => {
                    return Err(DbError::TypeError(format!(
                        "round digits must be an integer, got {other}"
                    )));
                }
            };
            match args[0].as_ref() {
                Value::Null => Ok(Value::Null),
                Value::Int(v) => Ok(Value::Int(*v)),
                Value::Float(v) => {
                    let scale = 10f64.powi(digits as i32);
                    Ok(Value::Float((v * scale).round() / scale))
                }
                other => Err(DbError::TypeError(format!("round requires a number, got {other}"))),
            }
        }
        Func::Coalesce => {
            Ok(args.iter().find(|a| !a.is_null()).map_or(Value::Null, |a| a.as_ref().clone()))
        }
        Func::Substr => {
            if args.len() < 2 || args.len() > 3 {
                return Err(DbError::TypeError("substr expects 2 or 3 arguments".into()));
            }
            let (s, start) = match (args[0].as_ref(), args[1].as_ref()) {
                (Value::Null, _) | (_, Value::Null) => return Ok(Value::Null),
                (Value::Str(s), Value::Int(i)) => (s, *i),
                _ => return Err(DbError::TypeError("substr(string, int[, int])".into())),
            };
            let chars: Vec<char> = s.chars().collect();
            let start_idx = (start.max(1) - 1) as usize;
            let len = match args.get(2).map(Cow::as_ref) {
                None => chars.len().saturating_sub(start_idx),
                Some(Value::Int(l)) => (*l).max(0) as usize,
                Some(Value::Null) => return Ok(Value::Null),
                Some(_) => return Err(DbError::TypeError("substr length must be int".into())),
            };
            Ok(Value::Str(chars.iter().skip(start_idx).take(len).collect()))
        }
        Func::Trim => {
            arity(1)?;
            match args[0].as_ref() {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Str(s.trim().to_string())),
                other => Err(DbError::TypeError(format!("trim requires a string, got {other}"))),
            }
        }
        Func::Unknown(other) => Err(DbError::TypeError(format!("unknown function `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnSchema;
    use crate::value::DataType;
    use msql_lang::parse_expr;

    /// Binds `src` in `scope` and evaluates it over `rows`.
    fn eval_in(
        db: &Database,
        scope: Option<&Scope<'_>>,
        rows: &[&Row],
        src: &str,
    ) -> Result<Value, DbError> {
        let cache = SubqueryCache::new();
        let bound = Binder::new(db, &cache, scope).bind(&parse_expr(src).unwrap());
        let value = bound.eval(&Frame::of(rows, None)).map(Cow::into_owned);
        value
    }

    fn eval_const(src: &str) -> Result<Value, DbError> {
        eval_in(&Database::new("testdb"), None, &[], src)
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(eval_const("1 + 2 * 3").unwrap(), Value::Int(7));
        assert_eq!(eval_const("(1 + 2) * 3").unwrap(), Value::Int(9));
        assert_eq!(eval_const("10 / 4").unwrap(), Value::Float(2.5));
        assert_eq!(eval_const("-(2 + 3)").unwrap(), Value::Int(-5));
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(eval_const("NULL AND FALSE").unwrap(), Value::Bool(false));
        assert_eq!(eval_const("NULL AND TRUE").unwrap(), Value::Null);
        assert_eq!(eval_const("NULL OR TRUE").unwrap(), Value::Bool(true));
        assert_eq!(eval_const("NULL OR FALSE").unwrap(), Value::Null);
        assert_eq!(eval_const("NOT NULL IS NULL").unwrap(), Value::Bool(false));
        assert_eq!(eval_const("NULL = NULL").unwrap(), Value::Null);
        assert_eq!(eval_const("NULL IS NULL").unwrap(), Value::Bool(true));
    }

    #[test]
    fn in_list_null_semantics() {
        assert_eq!(eval_const("1 IN (1, 2)").unwrap(), Value::Bool(true));
        assert_eq!(eval_const("3 IN (1, 2)").unwrap(), Value::Bool(false));
        assert_eq!(eval_const("3 IN (1, NULL)").unwrap(), Value::Null);
        assert_eq!(eval_const("1 IN (1, NULL)").unwrap(), Value::Bool(true));
        assert_eq!(eval_const("1 NOT IN (2, NULL)").unwrap(), Value::Null);
        assert_eq!(eval_const("NULL IN (1)").unwrap(), Value::Null);
    }

    #[test]
    fn indexed_in_lists_answer_as_the_linear_walk_does() {
        let mut state = 0x1234_5678_9ABCu64;
        let mut below = |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        // NULLs, `2` beside `2.0`, both zeros, NaN, integers past 2^53 (where
        // `=` stops being transitive), strings beside numbers, booleans.
        let big = 1i64 << 53;
        let pool = [
            Value::Null,
            Value::Int(2),
            Value::Float(2.0),
            Value::Int(0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(2.5),
            Value::Int(big),
            Value::Int(big + 1),
            Value::Float(big as f64),
            Value::Str("2".into()),
            Value::Str(String::new()),
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-7),
        ];
        let literal = |v: &Value| match v {
            Value::Float(f) if f.is_nan() => "(1e308 * 1e308 - 1e308 * 1e308)".to_string(),
            Value::Float(f) if f.is_infinite() => "(1e308 * 1e308)".to_string(),
            Value::Float(f) if f.is_sign_negative() && *f == 0.0 => "(-(0.0))".to_string(),
            Value::Float(f) => format!("{f:?}"),
            Value::Str(s) => format!("'{s}'"),
            Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            other => other.to_string(),
        };
        let db = Database::new("testdb");
        let cache = SubqueryCache::new();
        let mut indexed = 0;
        for case in 0..400 {
            let list: Vec<Value> =
                (0..1 + below(6)).map(|_| pool[below(17) as usize].clone()).collect();
            // Only literals are indexed: NaN, the infinities and anything
            // negative have no literal, so they reach a list as a probe does
            // — computed — and the list is walked as before.
            let constant = |v: &Value| match v {
                Value::Int(i) => *i >= 0,
                Value::Float(f) => f.is_finite() && f.is_sign_positive(),
                _ => true,
            };
            let literals = list.iter().all(constant);
            let negated = below(2) == 0;
            let items: Vec<String> = list.iter().map(literal).collect();
            let src = format!("x {}IN ({})", if negated { "NOT " } else { "" }, items.join(", "));
            let schema = TableSchema::new("t", vec![ColumnSchema::new("x", DataType::Float)]);
            let sources = [ScopeSource { binding: "t", schema: &schema }];
            let scope = Scope { sources: &sources, parent: None };
            let bound = Binder::new(&db, &cache, Some(&scope)).bind(&parse_expr(&src).unwrap());
            assert_eq!(matches!(bound, Bound::InValues { .. }), literals, "case {case}: {src}");
            indexed += usize::from(literals);
            for probe in &pool {
                let row = vec![probe.clone()];
                let got = bound.eval(&Frame::of(&[&row], None)).map(Cow::into_owned).unwrap();
                let want = in_values(probe, &list, negated);
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "case {case}: {probe:?} in {src}"
                );
            }
        }
        assert!(indexed > 100, "{indexed} lists took the indexed path");
    }

    #[test]
    fn between_and_like() {
        assert_eq!(eval_const("5 BETWEEN 1 AND 10").unwrap(), Value::Bool(true));
        assert_eq!(eval_const("5 NOT BETWEEN 1 AND 10").unwrap(), Value::Bool(false));
        assert_eq!(eval_const("NULL BETWEEN 1 AND 10").unwrap(), Value::Null);
        assert_eq!(eval_const("'Houston' LIKE 'Hou%'").unwrap(), Value::Bool(true));
        assert_eq!(eval_const("'Houston' NOT LIKE '%x%'").unwrap(), Value::Bool(true));
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(eval_const("UPPER('abc')").unwrap(), Value::Str("ABC".into()));
        assert_eq!(eval_const("length('héllo')").unwrap(), Value::Int(5));
        assert_eq!(eval_const("abs(-(3))").unwrap(), Value::Int(3));
        assert_eq!(eval_const("round(2.567, 1)").unwrap(), Value::Float(2.6));
        assert_eq!(eval_const("coalesce(NULL, NULL, 7)").unwrap(), Value::Int(7));
        assert_eq!(eval_const("substr('Houston', 1, 3)").unwrap(), Value::Str("Hou".into()));
        assert_eq!(eval_const("substr('Houston', 4)").unwrap(), Value::Str("ston".into()));
        assert_eq!(eval_const("trim('  hi ')").unwrap(), Value::Str("hi".into()));
        assert!(eval_const("frobnicate(1)").is_err());
    }

    #[test]
    fn concat_operator() {
        assert_eq!(eval_const("'a' || 'b' || 'c'").unwrap(), Value::Str("abc".into()));
        assert_eq!(eval_const("'a' || NULL").unwrap(), Value::Null);
    }

    #[test]
    fn column_against_scope() {
        let db = Database::new("avis");
        let schema = TableSchema::new(
            "cars",
            vec![
                ColumnSchema::new("code", DataType::Int),
                ColumnSchema::new("rate", DataType::Float),
            ],
        );
        let row = vec![Value::Int(7), Value::Float(39.5)];
        let sources = [ScopeSource { binding: "cars", schema: &schema }];
        let scope = Scope { sources: &sources, parent: None };
        let ev = |src: &str| eval_in(&db, Some(&scope), &[&row], src);
        assert_eq!(ev("code").unwrap(), Value::Int(7));
        assert_eq!(ev("cars.rate").unwrap(), Value::Float(39.5));
        assert_eq!(ev("rate * 1.1").unwrap(), Value::Float(39.5 * 1.1));
        assert!(matches!(ev("missing"), Err(DbError::UnknownColumn(_))));
        // Remote qualifier is rejected.
        assert!(matches!(ev("national.cars.rate"), Err(DbError::NotLocalSql(_))));
        // Same-database qualifier is accepted.
        assert_eq!(ev("avis.cars.code").unwrap(), Value::Int(7));
    }

    #[test]
    fn ambiguous_column_is_error() {
        let db = Database::new("d");
        let s1 = TableSchema::new("a", vec![ColumnSchema::new("x", DataType::Int)]);
        let s2 = TableSchema::new("b", vec![ColumnSchema::new("x", DataType::Int)]);
        let r1 = vec![Value::Int(1)];
        let r2 = vec![Value::Int(2)];
        let sources =
            [ScopeSource { binding: "a", schema: &s1 }, ScopeSource { binding: "b", schema: &s2 }];
        let scope = Scope { sources: &sources, parent: None };
        let ev = |src: &str| eval_in(&db, Some(&scope), &[&r1, &r2], src);
        assert!(matches!(ev("x"), Err(DbError::AmbiguousColumn(_))));
        assert_eq!(ev("a.x").unwrap(), Value::Int(1));
        assert_eq!(ev("b.x").unwrap(), Value::Int(2));
    }

    #[test]
    fn wildcard_column_is_rejected_locally() {
        assert!(matches!(eval_const("rate%"), Err(DbError::NotLocalSql(_))));
    }

    #[test]
    fn resolution_errors_are_raised_on_evaluation_only() {
        // Binding never fails; an unresolved name behind a short-circuit is
        // never evaluated, so it is never reported.
        assert_eq!(eval_const("FALSE AND missing = 1").unwrap(), Value::Bool(false));
        assert_eq!(eval_const("TRUE OR other.missing = 1").unwrap(), Value::Bool(true));
        assert!(matches!(eval_const("TRUE AND missing = 1"), Err(DbError::UnknownColumn(_))));
        // An aggregate call outside a grouping block is such an error too.
        assert_eq!(eval_const("FALSE AND COUNT(*) > 0").unwrap(), Value::Bool(false));
        assert!(matches!(eval_const("COUNT(*) > 0"), Err(DbError::Internal(_))));
    }

    #[test]
    fn enclosing_blocks_are_searched_innermost_first() {
        let db = Database::new("d");
        let outer_schema = TableSchema::new(
            "o",
            vec![ColumnSchema::new("x", DataType::Int), ColumnSchema::new("y", DataType::Int)],
        );
        let inner_schema = TableSchema::new("i", vec![ColumnSchema::new("x", DataType::Int)]);
        let outer_row = vec![Value::Int(1), Value::Int(10)];
        let inner_row = vec![Value::Int(2)];
        let outer_sources = [ScopeSource { binding: "o", schema: &outer_schema }];
        let outer = Scope { sources: &outer_sources, parent: None };
        let inner_sources = [ScopeSource { binding: "i", schema: &inner_schema }];
        let inner = Scope { sources: &inner_sources, parent: Some(&outer) };
        let cache = SubqueryCache::new();
        let binder = Binder::new(&db, &cache, Some(&inner));
        let outer_rows = [&outer_row];
        let outer_frame = Frame::of(&outer_rows, None);
        let inner_rows = [&inner_row];
        let frame = Frame::of(&inner_rows, Some(&outer_frame));
        let ev = |src: &str| {
            binder.bind(&parse_expr(src).unwrap()).eval(&frame).map(Cow::into_owned).unwrap()
        };
        // `x` is bound by both blocks: the inner one shadows.
        assert_eq!(ev("x"), Value::Int(2));
        assert_eq!(binder.reach(), 0);
        assert_eq!(ev("o.x + y"), Value::Int(11));
        assert_eq!(binder.reach(), 1, "the binder saw a reference to the enclosing block");
    }
}
