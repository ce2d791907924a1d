//! Abstract syntax tree for MSQL.
//!
//! The tree covers plain SQL plus every MSQL construct used by the ICDE'93
//! paper. Names are [`WildName`]s throughout: after parsing they may contain
//! `%` wildcards; the multidatabase translator replaces them with concrete
//! names before any statement is shipped to a local database system.

use crate::ident::WildName;

/// A literal value.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// SQL NULL.
    Null,
    /// Integer literal.
    Int(i64),
    /// Floating point literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Boolean literal (`TRUE`/`FALSE`).
    Bool(bool),
}

/// Binary operators, in increasing precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Logical OR.
    Or,
    /// Logical AND.
    And,
    /// Equality `=`.
    Eq,
    /// Inequality `<>`.
    NotEq,
    /// Less than.
    Lt,
    /// Less than or equal.
    LtEq,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    GtEq,
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// String concatenation `||`.
    Concat,
}

impl BinaryOp {
    /// SQL spelling of the operator.
    pub fn symbol(&self) -> &'static str {
        match self {
            BinaryOp::Or => "OR",
            BinaryOp::And => "AND",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Concat => "||",
        }
    }

    /// True for comparison operators.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }

    /// For a comparison, the one that says the same with its operands
    /// swapped (`a < b` is `b > a`; `=` and `<>` are their own), so that
    /// `literal op column` reads as `column op' literal`. Any other operator
    /// is returned as it is.
    pub fn mirrored(self) -> BinaryOp {
        match self {
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::LtEq => BinaryOp::GtEq,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::GtEq => BinaryOp::LtEq,
            other => other,
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Logical NOT.
    Not,
}

/// A (possibly qualified, possibly wild) column reference:
/// `[database.][table.]column`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Optional database qualifier.
    pub database: Option<WildName>,
    /// Optional table (or semantic-variable) qualifier.
    pub table: Option<WildName>,
    /// Column name (or semantic-variable component).
    pub column: WildName,
}

impl ColumnRef {
    /// An unqualified column reference.
    pub fn bare(column: impl Into<WildName>) -> Self {
        ColumnRef { database: None, table: None, column: column.into() }
    }

    /// A `table.column` reference.
    pub fn with_table(table: impl Into<WildName>, column: impl Into<WildName>) -> Self {
        ColumnRef { database: None, table: Some(table.into()), column: column.into() }
    }

    /// A fully qualified `database.table.column` reference.
    pub fn full(
        database: impl Into<WildName>,
        table: impl Into<WildName>,
        column: impl Into<WildName>,
    ) -> Self {
        ColumnRef {
            database: Some(database.into()),
            table: Some(table.into()),
            column: column.into(),
        }
    }

    /// True if any component carries a `%` wildcard.
    pub fn is_multiple(&self) -> bool {
        self.database.as_ref().map(WildName::is_multiple).unwrap_or(false)
            || self.table.as_ref().map(WildName::is_multiple).unwrap_or(false)
            || self.column.is_multiple()
    }
}

/// Aggregate function kinds recognised by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateKind {
    /// `COUNT`.
    Count,
    /// `SUM`.
    Sum,
    /// `AVG`.
    Avg,
    /// `MIN`.
    Min,
    /// `MAX`.
    Max,
}

impl AggregateKind {
    /// Parses an aggregate name, case-insensitively.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "count" => Some(AggregateKind::Count),
            "sum" => Some(AggregateKind::Sum),
            "avg" => Some(AggregateKind::Avg),
            "min" => Some(AggregateKind::Min),
            "max" => Some(AggregateKind::Max),
            _ => None,
        }
    }

    /// SQL spelling.
    pub fn name(&self) -> &'static str {
        match self {
            AggregateKind::Count => "COUNT",
            AggregateKind::Sum => "SUM",
            AggregateKind::Avg => "AVG",
            AggregateKind::Min => "MIN",
            AggregateKind::Max => "MAX",
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference.
    Column(ColumnRef),
    /// Literal value.
    Literal(Literal),
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// The operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Aggregate call, e.g. `MIN(snu)`. `COUNT(*)` has `arg == None`.
    Aggregate {
        /// Which aggregate.
        kind: AggregateKind,
        /// Argument; `None` means `*`.
        arg: Option<Box<Expr>>,
        /// Whether `DISTINCT` was specified.
        distinct: bool,
    },
    /// Scalar function call (e.g. `UPPER(x)`); the multidatabase layer also
    /// uses these for MSQL's dynamic attribute transformations.
    Function {
        /// Function name.
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Scalar subquery: `( SELECT ... )` used as a value.
    Subquery(Box<Select>),
    /// `expr IN (e1, e2, ...)`.
    InList {
        /// Probe expression.
        expr: Box<Expr>,
        /// The candidate list.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr IN ( SELECT ... )`.
    InSubquery {
        /// Probe expression.
        expr: Box<Expr>,
        /// The subquery producing candidates.
        subquery: Box<Select>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr BETWEEN low AND high`.
    Between {
        /// Probe expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Probe expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr LIKE pattern` (pattern uses SQL `%`/`_`).
    Like {
        /// Probe expression.
        expr: Box<Expr>,
        /// Pattern expression (usually a string literal).
        pattern: Box<Expr>,
        /// True for `NOT LIKE`.
        negated: bool,
    },
    /// `EXISTS ( SELECT ... )`.
    Exists {
        /// The subquery.
        subquery: Box<Select>,
        /// True for `NOT EXISTS`.
        negated: bool,
    },
}

impl Expr {
    /// Shorthand for a column expression.
    pub fn col(c: ColumnRef) -> Self {
        Expr::Column(c)
    }

    /// Shorthand for a literal.
    pub fn lit(l: Literal) -> Self {
        Expr::Literal(l)
    }

    /// Builds `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::Binary { left: Box::new(self), op: BinaryOp::And, right: Box::new(other) }
    }

    /// Calls `f` on each direct sub-expression, in source (printing) order.
    /// A nested `SELECT` is not entered — see [`Self::subquery`]; an
    /// `IN (SELECT …)` hands out only its probe. [`Self::walk_columns`],
    /// [`Self::contains_aggregate`] and the translator's walks are built on
    /// this and [`Self::for_each_child_mut`], so they all visit in one order:
    /// pre-order, left to right.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Expr)) {
        match self {
            Expr::Column(_) | Expr::Literal(_) | Expr::Subquery(_) | Expr::Exists { .. } => {}
            Expr::Unary { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::InSubquery { expr, .. } => f(expr),
            Expr::Aggregate { arg, .. } => arg.iter().for_each(|a| f(a)),
            Expr::Function { args, .. } => args.iter().for_each(f),
            Expr::Binary { left: a, right: b, .. } | Expr::Like { expr: a, pattern: b, .. } => {
                f(a);
                f(b);
            }
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            Expr::Between { expr, low, high, .. } => {
                f(expr);
                f(low);
                f(high);
            }
        }
    }

    /// [`Self::for_each_child`] with the sub-expressions handed out mutably.
    pub fn for_each_child_mut(&mut self, mut f: impl FnMut(&mut Expr)) {
        match self {
            Expr::Column(_) | Expr::Literal(_) | Expr::Subquery(_) | Expr::Exists { .. } => {}
            Expr::Unary { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::InSubquery { expr, .. } => f(expr),
            Expr::Aggregate { arg, .. } => arg.iter_mut().for_each(|a| f(a)),
            Expr::Function { args, .. } => args.iter_mut().for_each(f),
            Expr::Binary { left: a, right: b, .. } | Expr::Like { expr: a, pattern: b, .. } => {
                f(a);
                f(b);
            }
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter_mut().for_each(f);
            }
            Expr::Between { expr, low, high, .. } => {
                f(expr);
                f(low);
                f(high);
            }
        }
    }

    /// The nested `SELECT` of a scalar subquery, `IN (SELECT …)` or
    /// `EXISTS`. A walk that enters subqueries visits it after the node's
    /// children, so an `IN` probe comes before its subquery.
    pub fn subquery(&self) -> Option<&Select> {
        match self {
            Expr::Subquery(s)
            | Expr::InSubquery { subquery: s, .. }
            | Expr::Exists { subquery: s, .. } => Some(s),
            _ => None,
        }
    }

    /// [`Self::subquery`], mutably.
    pub fn subquery_mut(&mut self) -> Option<&mut Select> {
        match self {
            Expr::Subquery(s)
            | Expr::InSubquery { subquery: s, .. }
            | Expr::Exists { subquery: s, .. } => Some(s),
            _ => None,
        }
    }

    /// The conjuncts of an AND tree, left to right; `self` alone when it is
    /// not an `AND`.
    pub fn conjuncts(&self) -> impl Iterator<Item = &Expr> {
        let mut stack = vec![self];
        std::iter::from_fn(move || loop {
            match stack.pop()? {
                Expr::Binary { left, op: BinaryOp::And, right } => {
                    stack.push(right);
                    stack.push(left);
                }
                other => return Some(other),
            }
        })
    }

    /// Visits every column reference in the expression tree (outside nested
    /// subqueries), pre-order, left to right.
    pub fn walk_columns<'a>(&'a self, f: &mut impl FnMut(&'a ColumnRef)) {
        match self {
            Expr::Column(c) => f(c),
            e => e.for_each_child(|child| child.walk_columns(f)),
        }
    }

    /// [`Self::walk_columns`] with the references handed out mutably.
    pub fn walk_columns_mut(&mut self, f: &mut impl FnMut(&mut ColumnRef)) {
        match self {
            Expr::Column(c) => f(c),
            e => e.for_each_child_mut(|child| child.walk_columns_mut(f)),
        }
    }

    /// True if the expression (outside of nested subqueries) contains any
    /// multiple identifier.
    pub fn has_multiple_identifier(&self) -> bool {
        let mut found = false;
        self.walk_columns(&mut |c| {
            if c.is_multiple() {
                found = true;
            }
        });
        found
    }

    /// True if the expression contains an aggregate call at any depth
    /// (outside nested subqueries).
    pub fn contains_aggregate(&self) -> bool {
        let mut found = matches!(self, Expr::Aggregate { .. });
        self.for_each_child(|child| found = found || child.contains_aggregate());
        found
    }
}

/// One item of a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Wildcard,
    /// `table.*`.
    QualifiedWildcard(WildName),
    /// An expression, optionally aliased, optionally marked *optional* with
    /// MSQL's `~` designator (schema-heterogeneity resolution, paper §2).
    Expr {
        /// The projected expression.
        expr: Expr,
        /// `AS alias`, if given.
        alias: Option<String>,
        /// True when prefixed with `~`: databases lacking the column still
        /// participate, producing a table without it.
        optional: bool,
    },
}

impl SelectItem {
    /// The projected expression; `None` for a wildcard.
    pub fn expr(&self) -> Option<&Expr> {
        match self {
            SelectItem::Expr { expr, .. } => Some(expr),
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => None,
        }
    }
}

/// A table reference in a FROM clause.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Optional database qualifier (`avis.cars`).
    pub database: Option<WildName>,
    /// Table (or multitable / semantic-variable) name; may be wild.
    pub table: WildName,
    /// Optional alias.
    pub alias: Option<String>,
}

impl TableRef {
    /// An unqualified table reference.
    pub fn named(table: impl Into<WildName>) -> Self {
        TableRef { database: None, table: table.into(), alias: None }
    }

    /// The name this table is known by inside the query (alias if present).
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or_else(|| self.table.as_str())
    }
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Ascending (default).
    Asc,
    /// Descending.
    Desc,
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    /// Key expression.
    pub expr: Expr,
    /// Direction.
    pub order: SortOrder,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// Whether `DISTINCT` was specified.
    pub distinct: bool,
    /// The projection list.
    pub items: Vec<SelectItem>,
    /// FROM tables (implicit cross join, restricted by WHERE — SQL-89 style,
    /// as in the paper's examples).
    pub from: Vec<TableRef>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY keys.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderByItem>,
    /// `LIMIT n` row cap, applied after ORDER BY and DISTINCT.
    pub limit: Option<u64>,
}

impl Select {
    /// An empty SELECT skeleton used by builders and tests.
    pub fn new() -> Self {
        Select {
            distinct: false,
            items: Vec::new(),
            from: Vec::new(),
            where_clause: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
        }
    }

    /// The expression slots in printing order: item expressions, WHERE,
    /// GROUP BY, HAVING, ORDER BY. FROM holds no expression.
    pub fn exprs(&self) -> impl Iterator<Item = &Expr> {
        let items = self.items.iter().filter_map(SelectItem::expr);
        items
            .chain(&self.where_clause)
            .chain(&self.group_by)
            .chain(&self.having)
            .chain(self.order_by.iter().map(|o| &o.expr))
    }

    /// [`Self::exprs`] with the slots handed out mutably.
    pub fn exprs_mut(&mut self) -> impl Iterator<Item = &mut Expr> {
        let items = self.items.iter_mut().filter_map(|item| match item {
            SelectItem::Expr { expr, .. } => Some(expr),
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => None,
        });
        items
            .chain(&mut self.where_clause)
            .chain(&mut self.group_by)
            .chain(&mut self.having)
            .chain(self.order_by.iter_mut().map(|o| &mut o.expr))
    }
}

impl Default for Select {
    fn default() -> Self {
        Select::new()
    }
}

/// Source of rows for INSERT.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    /// `VALUES (..), (..)`.
    Values(Vec<Vec<Expr>>),
    /// `INSERT ... SELECT`.
    Select(Box<Select>),
}

/// An INSERT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    /// Target table (possibly database-qualified, possibly wild).
    pub table: TableRef,
    /// Explicit column list, if given.
    pub columns: Vec<WildName>,
    /// Row source.
    pub source: InsertSource,
}

/// One `SET col = expr` assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Target column (may be wild before expansion).
    pub column: WildName,
    /// New value.
    pub value: Expr,
}

/// An UPDATE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// Target table.
    pub table: TableRef,
    /// SET assignments.
    pub assignments: Vec<Assignment>,
    /// Optional WHERE predicate.
    pub where_clause: Option<Expr>,
}

/// A DELETE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    /// Target table.
    pub table: TableRef,
    /// Optional WHERE predicate.
    pub where_clause: Option<Expr>,
}

/// SQL column types supported by the engine (the GDD stores name, type and
/// width, exactly the information the paper lists in §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeName {
    /// `INT` / `INTEGER`.
    Int,
    /// `FLOAT` / `REAL` / `NUMERIC`.
    Float,
    /// `CHAR(width)` / `VARCHAR(width)`; width 0 means unbounded.
    Char(u32),
    /// `BOOLEAN`.
    Bool,
    /// `DATE` (stored as ISO-8601 text).
    Date,
}

/// A column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub type_name: TypeName,
    /// Whether NULLs are forbidden.
    pub not_null: bool,
}

/// CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    /// Target (possibly database-qualified) table name.
    pub table: TableRef,
    /// Column definitions.
    pub columns: Vec<ColumnDef>,
}

/// DROP TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct DropTable {
    /// Target table.
    pub table: TableRef,
}

/// The physical shape requested by `CREATE INDEX ... USING <method>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexMethod {
    /// `USING HASH`: equality/`IN` probes only.
    Hash,
    /// `USING BTREE` (the default): equality, `IN`, and range probes.
    Btree,
}

/// `CREATE INDEX <name> ON <table> (<column>) [USING HASH|BTREE]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateIndex {
    /// Index name.
    pub name: String,
    /// Target (possibly database-qualified) table.
    pub table: TableRef,
    /// The single indexed column.
    pub column: String,
    /// Physical shape; defaults to `Btree` when `USING` is omitted.
    pub method: IndexMethod,
}

/// `DROP INDEX <name> ON <table>`.
#[derive(Debug, Clone, PartialEq)]
pub struct DropIndex {
    /// Index name.
    pub name: String,
    /// The table the index belongs to.
    pub table: TableRef,
}

/// One element of a USE scope: a database (or multidatabase) name with an
/// optional alias and the ICDE'93 `VITAL` designator.
#[derive(Debug, Clone, PartialEq)]
pub struct UseElement {
    /// Database name.
    pub database: WildName,
    /// `(db alias)` alias, if given.
    pub alias: Option<String>,
    /// True when designated `VITAL` (paper §3.2).
    pub vital: bool,
}

/// The `USE` statement defining the current query scope (paper §2, extended
/// in §3.2 with `VITAL`).
#[derive(Debug, Clone, PartialEq)]
pub struct UseStatement {
    /// True for `USE CURRENT ...`, which extends rather than replaces the
    /// scope.
    pub current: bool,
    /// Scope elements in declaration order.
    pub elements: Vec<UseElement>,
}

impl UseStatement {
    /// The vital set: names (alias if present) of all VITAL elements.
    pub fn vital_set(&self) -> Vec<&str> {
        self.elements
            .iter()
            .filter(|e| e.vital)
            .map(|e| e.alias.as_deref().unwrap_or_else(|| e.database.as_str()))
            .collect()
    }
}

/// An explicit semantic variable: `LET car.type.status BE
/// cars.cartype.carst vehicle.vty.vstat` (paper §2).
///
/// `names` is the variable path introduced on the left of `BE`; `bindings`
/// holds one concrete path per database in scope, in USE order.
#[derive(Debug, Clone, PartialEq)]
pub struct SemanticVariable {
    /// The variable path (e.g. `["car", "type", "status"]`).
    pub names: Vec<String>,
    /// Per-database bindings (e.g. `[["cars","cartype","carst"],
    /// ["vehicle","vty","vstat"]]`).
    pub bindings: Vec<Vec<String>>,
}

/// A LET statement introducing one or more semantic variables.
#[derive(Debug, Clone, PartialEq)]
pub struct LetStatement {
    /// The variables.
    pub variables: Vec<SemanticVariable>,
}

/// A compensation clause: `COMP <db|alias> <subquery>` (paper §3.3).
#[derive(Debug, Clone, PartialEq)]
pub struct CompClause {
    /// Database (or alias) whose subquery this compensates.
    pub database: WildName,
    /// The compensating statement, expressed in the local database's own
    /// names (it is shipped verbatim).
    pub statement: Box<Statement>,
}

/// The body of an MSQL manipulation statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryBody {
    /// A retrieval query.
    Select(Select),
    /// A multiple insert.
    Insert(Insert),
    /// A multiple update.
    Update(Update),
    /// A multiple delete.
    Delete(Delete),
}

/// A full MSQL manipulation statement: optional USE scope, LET declarations,
/// a body, and optional COMP clauses (grammar of §3.3).
#[derive(Debug, Clone, PartialEq)]
pub struct MsqlQuery {
    /// The scope, if the query carries its own USE.
    pub use_clause: Option<UseStatement>,
    /// Semantic-variable declarations.
    pub lets: Vec<LetStatement>,
    /// The statement body.
    pub body: QueryBody,
    /// Compensation clauses, one per non-2PC vital database.
    pub comps: Vec<CompClause>,
}

/// One acceptable termination state: a conjunction of database names/aliases
/// whose subtransactions must commit (paper §3.4).
#[derive(Debug, Clone, PartialEq)]
pub struct AcceptableState {
    /// The conjunction, e.g. `["continental", "national"]`.
    pub databases: Vec<WildName>,
}

/// `BEGIN MULTITRANSACTION ... COMMIT <states> END MULTITRANSACTION`
/// (paper §3.4).
#[derive(Debug, Clone, PartialEq)]
pub struct Multitransaction {
    /// The component MSQL queries, in program order.
    pub queries: Vec<MsqlQuery>,
    /// Acceptable termination states in preference order; an implicit OR is
    /// assumed between them.
    pub acceptable_states: Vec<AcceptableState>,
}

/// Commit behaviour a service advertises for a statement class
/// (`COMMIT`/`NOCOMMIT` in the INCORPORATE grammar, §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitCapability {
    /// The LDBMS automatically commits the operation (no visible
    /// prepared-to-commit state).
    AutoCommit,
    /// The LDBMS exposes a two-phase-commit interface for the operation.
    TwoPhase,
}

/// `INCORPORATE SERVICE` statement (paper §3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Incorporate {
    /// Service (LDBMS) name.
    pub service: String,
    /// `SITE <site>`, if given.
    pub site: Option<String>,
    /// Whether the LDBMS supports multiple databases (`CONNECT`) or a single
    /// default one (`NOCONNECT`).
    pub multi_database: bool,
    /// Default commit mode for DML.
    pub commit_mode: CommitCapability,
    /// Commit mode for CREATE statements, if it differs.
    pub create_mode: Option<CommitCapability>,
    /// Commit mode for INSERT statements, if it differs.
    pub insert_mode: Option<CommitCapability>,
    /// Commit mode for DROP statements, if it differs.
    pub drop_mode: Option<CommitCapability>,
}

/// What an IMPORT statement imports.
#[derive(Debug, Clone, PartialEq)]
pub enum ImportItem {
    /// All public tables of the database.
    AllPublicTables,
    /// One table, optionally restricted to specific columns.
    Table {
        /// The table name.
        table: String,
        /// Columns to import; empty means the whole definition.
        columns: Vec<String>,
    },
    /// One view, optionally restricted to specific columns.
    View {
        /// The view name.
        view: String,
        /// Columns to import; empty means the whole definition.
        columns: Vec<String>,
    },
}

/// `IMPORT DATABASE <db> FROM SERVICE <service> ...` (paper §3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Import {
    /// Database whose schema is imported.
    pub database: String,
    /// Service hosting it.
    pub service: String,
    /// What to import.
    pub item: ImportItem,
}

/// Events an interdatabase trigger can fire on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TriggerEvent {
    /// After a committed UPDATE.
    Update,
    /// After a committed INSERT.
    Insert,
    /// After a committed DELETE.
    Delete,
}

impl TriggerEvent {
    /// SQL spelling.
    pub fn name(&self) -> &'static str {
        match self {
            TriggerEvent::Update => "UPDATE",
            TriggerEvent::Insert => "INSERT",
            TriggerEvent::Delete => "DELETE",
        }
    }
}

/// `CREATE TRIGGER <name> ON <db>.<table> AFTER <event> EXECUTE <stmt>` —
/// MSQL's interdatabase triggers (§2: "definition of interdatabase
/// triggers"). The action is a full MSQL statement executed at the
/// multidatabase level.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTrigger {
    /// Trigger name (unique in the federation).
    pub name: String,
    /// Watched database.
    pub database: WildName,
    /// Watched table.
    pub table: WildName,
    /// Firing event.
    pub event: TriggerEvent,
    /// The MSQL statement to execute when the trigger fires.
    pub action: Box<Statement>,
}

/// Any top-level statement.
// Variant sizes are dominated by `Query`; statements are parsed once and
// moved rarely, so boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A manipulation statement (optionally with USE/LET/COMP attached).
    Query(MsqlQuery),
    /// A standalone USE changing the session scope.
    Use(UseStatement),
    /// A standalone LET adding session semantic variables.
    Let(LetStatement),
    /// A multitransaction block.
    Multitransaction(Multitransaction),
    /// Service incorporation.
    Incorporate(Incorporate),
    /// Schema import.
    Import(Import),
    /// `CREATE DATABASE <name>`.
    CreateDatabase(String),
    /// `DROP DATABASE <name>`.
    DropDatabase(String),
    /// `CREATE TABLE`.
    CreateTable(CreateTable),
    /// `DROP TABLE`.
    DropTable(DropTable),
    /// `CREATE INDEX`.
    CreateIndex(CreateIndex),
    /// `DROP INDEX`.
    DropIndex(DropIndex),
    /// Interdatabase trigger definition.
    CreateTrigger(CreateTrigger),
    /// `DROP TRIGGER <name>`.
    DropTrigger(String),
    /// Global `COMMIT` — a synchronization point for the vital set (§3.2.2).
    Commit,
    /// Global `ROLLBACK`.
    Rollback,
    /// `EXPLAIN <statement>`: execute the target with tracing and return the
    /// measured profile instead of its outcome.
    Explain(Box<Statement>),
    /// `ANALYZE [<table>]`: collect optimizer statistics for one table, or —
    /// without a target — for every table of the database in scope.
    Analyze(Option<TableRef>),
}

impl Statement {
    /// Wraps a bare SELECT into a statement.
    pub fn select(s: Select) -> Statement {
        Statement::Query(MsqlQuery {
            use_clause: None,
            lets: Vec::new(),
            body: QueryBody::Select(s),
            comps: Vec::new(),
        })
    }

    /// Wraps a bare UPDATE into a statement.
    pub fn update(u: Update) -> Statement {
        Statement::Query(MsqlQuery {
            use_clause: None,
            lets: Vec::new(),
            body: QueryBody::Update(u),
            comps: Vec::new(),
        })
    }
}

/// A parsed script: a sequence of statements.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// The statements in source order.
    pub statements: Vec<Statement>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_ref_wildcard_detection() {
        assert!(ColumnRef::bare("%code").is_multiple());
        assert!(!ColumnRef::bare("code").is_multiple());
        assert!(ColumnRef::with_table("flight%", "rate").is_multiple());
        assert!(ColumnRef::full("avis%", "cars", "rate").is_multiple());
    }

    #[test]
    fn vital_set_uses_aliases() {
        let use_stmt = UseStatement {
            current: false,
            elements: vec![
                UseElement {
                    database: "continental".into(),
                    alias: Some("cont".into()),
                    vital: true,
                },
                UseElement { database: "delta".into(), alias: None, vital: false },
                UseElement { database: "united".into(), alias: None, vital: true },
            ],
        };
        assert_eq!(use_stmt.vital_set(), vec!["cont", "united"]);
    }

    #[test]
    fn expr_walk_columns_sees_nested() {
        let e = Expr::Binary {
            left: Box::new(Expr::col(ColumnRef::bare("a"))),
            op: BinaryOp::And,
            right: Box::new(Expr::IsNull {
                expr: Box::new(Expr::col(ColumnRef::bare("b%"))),
                negated: false,
            }),
        };
        let mut seen = Vec::new();
        e.walk_columns(&mut |c| seen.push(c.column.as_str().to_string()));
        assert_eq!(seen, vec!["a", "b%"]);
        assert!(e.has_multiple_identifier());
    }

    #[test]
    fn conjuncts_flatten_the_and_spine_left_to_right() {
        let col = |n: &str| Expr::col(ColumnRef::bare(n));
        let or =
            Expr::Binary { left: Box::new(col("c")), op: BinaryOp::Or, right: Box::new(col("d")) };
        let e = col("a").and(col("b").and(or.clone())).and(col("e"));
        let got: Vec<&Expr> = e.conjuncts().collect();
        assert_eq!(got, vec![&col("a"), &col("b"), &or, &col("e")]);
        assert_eq!(col("a").conjuncts().count(), 1);
    }

    #[test]
    fn contains_aggregate_detects_nesting() {
        let agg = Expr::Aggregate {
            kind: AggregateKind::Min,
            arg: Some(Box::new(Expr::col(ColumnRef::bare("snu")))),
            distinct: false,
        };
        let e = Expr::Binary {
            left: Box::new(Expr::lit(Literal::Int(1))),
            op: BinaryOp::Add,
            right: Box::new(agg),
        };
        assert!(e.contains_aggregate());
        assert!(!Expr::lit(Literal::Int(1)).contains_aggregate());
    }

    #[test]
    fn table_ref_binding_name_prefers_alias() {
        let mut t = TableRef::named("cars");
        assert_eq!(t.binding_name(), "cars");
        t.alias = Some("c".into());
        assert_eq!(t.binding_name(), "c");
    }

    #[test]
    fn aggregate_kind_from_name() {
        assert_eq!(AggregateKind::from_name("min"), Some(AggregateKind::Min));
        assert_eq!(AggregateKind::from_name("CoUnT"), Some(AggregateKind::Count));
        assert_eq!(AggregateKind::from_name("median"), None);
    }
}
