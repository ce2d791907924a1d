//! Multiple-identifier substitution (paper §4.3, phase 1).
//!
//! For every database in the current scope, this module derives the *local*
//! variant of the query body:
//!
//! * semantic table/column variables (`LET car.type.status BE ...`) are
//!   replaced by their positional bindings;
//! * multiple identifiers (`flight%`, `%code`) are matched against the
//!   Global Data Dictionary; "all possible substitutions of multiple
//!   identifiers are generated";
//! * optional columns (`~rate`) are dropped for databases that lack them
//!   (schema-heterogeneity resolution, §2);
//! * candidates that reference objects a database does not export are *not
//!   pertinent* and are discarded (the paper's disambiguation phase prunes
//!   them).
//!
//! The result is a list of [`LocalQuery`]s — at most a handful per database,
//! each printable as plain SQL for that database.

use crate::error::MdbsError;
use crate::scope::SessionScope;
use catalog::{GddTable, GlobalDataDictionary};
use msql_lang::*;
use std::collections::HashMap;

/// One fully qualified elementary query bound to one database.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalQuery {
    /// The target database.
    pub database: String,
    /// The scope key (alias if the USE gave one) — what COMP clauses and
    /// acceptable states refer to.
    pub key: String,
    /// Whether the database is VITAL in the scope.
    pub vital: bool,
    /// The local statement (no wildcards, no remote references).
    pub statement: Statement,
}

/// Outcome of rewriting one candidate.
enum Rejection {
    /// The candidate references something this database does not export.
    NotPertinent,
    /// A real error that must abort the whole translation.
    Hard(MdbsError),
}

impl From<MdbsError> for Rejection {
    fn from(e: MdbsError) -> Self {
        Rejection::Hard(e)
    }
}

type Rw<T> = Result<T, Rejection>;

/// Expands a query body over every database in scope.
pub fn expand(
    body: &QueryBody,
    scope: &SessionScope,
    gdd: &GlobalDataDictionary,
) -> Result<Vec<LocalQuery>, MdbsError> {
    if scope.databases.is_empty() {
        return Err(MdbsError::EmptyScope);
    }
    let mut out = Vec::new();
    for (i, db) in scope.databases.iter().enumerate() {
        if !gdd.has_database(&db.database) {
            // Scope names a database the federation has not imported; that
            // is a user error, not mere non-pertinence.
            return Err(MdbsError::Catalog(format!(
                "database `{}` is in scope but not imported into the GDD",
                db.database
            )));
        }
        let statements = expand_for_db(body, scope, gdd, i)?;
        for statement in statements {
            out.push(LocalQuery {
                database: db.database.clone(),
                key: db.key().to_string(),
                vital: db.vital,
                statement,
            });
        }
    }
    Ok(out)
}

/// Expands a body for the `db_index`-th scope database; empty = not
/// pertinent.
pub fn expand_for_db(
    body: &QueryBody,
    scope: &SessionScope,
    gdd: &GlobalDataDictionary,
    db_index: usize,
) -> Result<Vec<Statement>, MdbsError> {
    let db_name = scope.databases[db_index].database.clone();
    let Scan { tables: table_refs, wilds, .. } = Scan::body(body, scope, db_index);

    // Phase 1: per-table-reference substitution options, in traversal order.
    let mut per_ref_options: Vec<Vec<String>> = Vec::with_capacity(table_refs.len());
    for tref in &table_refs {
        let options = table_options(tref, scope, gdd, db_index)?;
        if options.is_empty() {
            return Ok(Vec::new()); // not pertinent to this database
        }
        per_ref_options.push(options);
    }

    // The wild column identifiers, each once; `true` while every occurrence
    // is optional.
    let mut merged: Vec<(String, bool)> = Vec::new();
    for w in wilds {
        match merged.iter_mut().find(|(t, _)| *t == w.text) {
            Some((_, only_opt)) => *only_opt &= w.optional,
            None => merged.push((w.text, w.optional)),
        }
    }

    // Phase 2: cartesian product over table choices.
    let mut candidates = Vec::new();
    for table_choice in cartesian(&per_ref_options) {
        // Resolved table definitions for this choice.
        let mut resolved: Vec<&GddTable> = Vec::new();
        for name in &table_choice {
            let t = gdd.table(&db_name, name).map_err(|e| MdbsError::Catalog(e.to_string()))?;
            if !resolved.iter().any(|r| r.name == t.name) {
                resolved.push(t);
            }
        }

        // Phase 3: the wild column identifiers' options.
        let mut wild_names: Vec<String> = Vec::new();
        let mut wild_options: Vec<Vec<Option<String>>> = Vec::new();
        let mut pertinent = true;
        for (text, only_optional) in &merged {
            let pattern = WildName::new(text.clone());
            let mut options: Vec<Option<String>> = Vec::new();
            for table in &resolved {
                for col in &table.columns {
                    if pattern.matches(&col.name)
                        && !options.iter().any(|o| o.as_deref() == Some(col.name.as_str()))
                    {
                        options.push(Some(col.name.clone()));
                    }
                }
            }
            if options.is_empty() {
                if *only_optional {
                    options.push(None); // drop the optional item
                } else {
                    pertinent = false;
                    break;
                }
            }
            wild_names.push(text.clone());
            wild_options.push(options);
        }
        if !pertinent {
            continue;
        }

        // Phase 4: cartesian over wild-column choices, then rewrite.
        for wild_choice in cartesian(&wild_options) {
            let subst: HashMap<String, Option<String>> =
                wild_names.iter().cloned().zip(wild_choice.iter().cloned()).collect();
            let mut rewriter = Rewriter {
                scope,
                db_index,
                db_name: &db_name,
                assignments: table_choice.clone(),
                next_assignment: 0,
                binding_map: HashMap::new(),
                alias_heads: HashMap::new(),
                subst: &subst,
                resolved: resolved.clone(),
                select_aliases: Vec::new(),
            };
            match rewriter.rewrite_body(body) {
                Ok(stmt) => {
                    if !candidates.contains(&stmt) {
                        candidates.push(stmt);
                    }
                }
                Err(Rejection::NotPertinent) => continue,
                Err(Rejection::Hard(e)) => return Err(e),
            }
        }
    }
    Ok(candidates)
}

/// Cartesian product of option lists.
fn cartesian<T: Clone>(options: &[Vec<T>]) -> Vec<Vec<T>> {
    let mut out = vec![Vec::new()];
    for opts in options {
        let mut next = Vec::with_capacity(out.len() * opts.len());
        for prefix in &out {
            for o in opts {
                let mut row = prefix.clone();
                row.push(o.clone());
                next.push(row);
            }
        }
        out = next;
    }
    out
}

// ------------------------------------------------------------ the one scan

/// A wild column identifier and whether it occurs in an optional (`~`) item.
struct WildOccurrence {
    text: String,
    optional: bool,
}

/// What substitution reads off a body before rewriting it, in one walk:
/// the table references in the order [`Rewriter`] consumes its table
/// assignments in, and the wild column identifiers — SET and INSERT targets,
/// and column references no LET binding resolves. The walk enters nested
/// SELECTs (FROM first, then the expression slots) and visits each
/// expression pre-order, an `IN` probe before its subquery — the rewriter's
/// order.
struct Scan<'a> {
    scope: &'a SessionScope,
    db_index: usize,
    tables: Vec<&'a TableRef>,
    wilds: Vec<WildOccurrence>,
}

impl<'a> Scan<'a> {
    fn body(body: &'a QueryBody, scope: &'a SessionScope, db_index: usize) -> Self {
        let mut s = Scan { scope, db_index, tables: Vec::new(), wilds: Vec::new() };
        match body {
            QueryBody::Select(sel) => s.select(sel, false),
            QueryBody::Update(u) => {
                s.tables.push(&u.table);
                for a in &u.assignments {
                    s.target(&a.column);
                    s.expr(&a.value, false);
                }
                u.where_clause.iter().for_each(|w| s.expr(w, false));
            }
            QueryBody::Insert(i) => {
                s.tables.push(&i.table);
                i.columns.iter().for_each(|c| s.target(c));
                match &i.source {
                    InsertSource::Values(rows) => {
                        rows.iter().flatten().for_each(|e| s.expr(e, false))
                    }
                    InsertSource::Select(sel) => s.select(sel, false),
                }
            }
            QueryBody::Delete(d) => {
                s.tables.push(&d.table);
                d.where_clause.iter().for_each(|w| s.expr(w, false));
            }
        }
        s
    }

    /// A SET or INSERT target column.
    fn target(&mut self, column: &WildName) {
        if column.is_multiple() {
            self.wilds.push(WildOccurrence { text: column.as_str().to_string(), optional: false });
        }
    }

    fn select(&mut self, s: &'a Select, optional: bool) {
        self.tables.extend(&s.from);
        let item_optional = s.items.iter().filter_map(|item| match item {
            SelectItem::Expr { optional, .. } => Some(*optional),
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => None,
        });
        for (e, item_optional) in s.exprs().zip(item_optional.chain(std::iter::repeat(false))) {
            self.expr(e, optional || item_optional);
        }
    }

    fn expr(&mut self, e: &'a Expr, optional: bool) {
        if let Expr::Column(c) = e {
            let head = c.table.as_ref().map(|t| t.as_str());
            if c.column.is_multiple()
                && self.scope.column_binding(head, c.column.as_str(), self.db_index).is_none()
            {
                self.wilds.push(WildOccurrence { text: c.column.as_str().to_string(), optional });
            }
        }
        e.for_each_child(|child| self.expr(child, optional));
        if let Some(s) = e.subquery() {
            self.select(s, optional);
        }
    }
}

fn table_options(
    tref: &TableRef,
    scope: &SessionScope,
    gdd: &GlobalDataDictionary,
    db_index: usize,
) -> Result<Vec<String>, MdbsError> {
    let db = &scope.databases[db_index];
    if let Some(q) = &tref.database {
        // Explicit database qualifier: pertinent only when it names this
        // scope element.
        let Some(target) = scope.resolve(q.as_str()) else {
            return Err(MdbsError::NotInScope(q.as_str().to_string()));
        };
        if target.database != db.database {
            return Ok(Vec::new());
        }
    }
    let name = &tref.table;
    if scope.is_table_variable(name.as_str()) {
        let Some(binding) = scope.table_binding(name.as_str(), db_index) else {
            return Ok(Vec::new());
        };
        return Ok(match gdd.table(&db.database, binding) {
            Ok(t) => vec![t.name.clone()],
            Err(_) => Vec::new(),
        });
    }
    if name.is_multiple() {
        let matches =
            gdd.match_tables(&db.database, name).map_err(|e| MdbsError::Catalog(e.to_string()))?;
        return Ok(matches.into_iter().map(|t| t.name.clone()).collect());
    }
    Ok(match gdd.table(&db.database, name.as_str()) {
        Ok(t) => vec![t.name.clone()],
        Err(_) => Vec::new(),
    })
}

// ----------------------------------------------------------------- rewriting

struct Rewriter<'a> {
    scope: &'a SessionScope,
    db_index: usize,
    db_name: &'a str,
    /// Concrete table names per table reference, in traversal order.
    assignments: Vec<String>,
    next_assignment: usize,
    /// Original FROM name (semantic head / wild text / concrete) → binding
    /// name column qualifiers should use after rewriting.
    binding_map: HashMap<String, String>,
    /// Binding name (alias or concrete) → the original FROM name, so column
    /// qualifiers that use an alias still resolve semantic variables.
    alias_heads: HashMap<String, String>,
    /// Wild column text → chosen concrete column (None = drop optional item).
    subst: &'a HashMap<String, Option<String>>,
    resolved: Vec<&'a GddTable>,
    select_aliases: Vec<String>,
}

impl<'a> Rewriter<'a> {
    fn rewrite_body(&mut self, body: &QueryBody) -> Rw<Statement> {
        let body = match body {
            QueryBody::Select(s) => QueryBody::Select(self.rewrite_select(s, true)?),
            QueryBody::Update(u) => {
                let mut u = u.clone();
                u.table = self.rewrite_table(&u.table)?;
                for a in &mut u.assignments {
                    let column = self.rewrite_target_column(&a.column, u.table.table.as_str())?;
                    a.column = WildName::new(column);
                    self.rewrite_in_place(&mut a.value)?;
                }
                if let Some(w) = &mut u.where_clause {
                    self.rewrite_in_place(w)?;
                }
                QueryBody::Update(u)
            }
            QueryBody::Insert(i) => {
                let mut i = i.clone();
                i.table = self.rewrite_table(&i.table)?;
                for c in &mut i.columns {
                    *c = WildName::new(self.rewrite_target_column(c, i.table.table.as_str())?);
                }
                match &mut i.source {
                    InsertSource::Values(rows) => {
                        for e in rows.iter_mut().flatten() {
                            self.rewrite_in_place(e)?;
                        }
                    }
                    InsertSource::Select(s) => **s = self.rewrite_select(s, false)?,
                }
                QueryBody::Insert(i)
            }
            QueryBody::Delete(d) => {
                let mut d = d.clone();
                d.table = self.rewrite_table(&d.table)?;
                if let Some(w) = &mut d.where_clause {
                    self.rewrite_in_place(w)?;
                }
                QueryBody::Delete(d)
            }
        };
        Ok(Statement::Query(MsqlQuery {
            use_clause: None,
            lets: Vec::new(),
            body,
            comps: Vec::new(),
        }))
    }

    fn rewrite_table(&mut self, tref: &TableRef) -> Rw<TableRef> {
        let assigned = self
            .assignments
            .get(self.next_assignment)
            .cloned()
            .ok_or_else(|| MdbsError::Internal("table assignment underflow".into()))?;
        self.next_assignment += 1;
        let binding =
            tref.alias.clone().map(|a| a.to_ascii_lowercase()).unwrap_or_else(|| assigned.clone());
        self.binding_map.insert(tref.table.as_str().to_string(), binding.clone());
        self.alias_heads.insert(binding, tref.table.as_str().to_string());
        Ok(TableRef { database: None, table: WildName::new(assigned), alias: tref.alias.clone() })
    }

    fn rewrite_select(&mut self, s: &Select, top_level: bool) -> Rw<Select> {
        let mut out = s.clone();
        for t in &mut out.from {
            *t = self.rewrite_table(t)?;
        }
        if top_level {
            for item in &s.items {
                if let SelectItem::Expr { alias: Some(a), .. } = item {
                    self.select_aliases.push(a.to_ascii_lowercase());
                }
            }
        }
        let mut items = Vec::with_capacity(s.items.len());
        for item in std::mem::take(&mut out.items) {
            match item {
                SelectItem::Wildcard => items.push(SelectItem::Wildcard),
                SelectItem::QualifiedWildcard(t) => {
                    let mapped = self.map_qualifier(t.as_str());
                    items.push(SelectItem::QualifiedWildcard(WildName::new(mapped)));
                }
                SelectItem::Expr { mut expr, alias, optional } => {
                    match self.rewrite_in_place(&mut expr) {
                        // Once resolved, the column is no longer optional in
                        // the local statement.
                        Ok(()) => items.push(SelectItem::Expr { expr, alias, optional: false }),
                        Err(Rejection::NotPertinent) if optional => {
                            // Schema heterogeneity: this database lacks the
                            // optional column; drop the item (paper §2).
                            continue;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        if items.is_empty() {
            return Err(Rejection::NotPertinent);
        }
        // The items are out, so the slots left are WHERE … ORDER BY.
        for e in out.exprs_mut() {
            self.rewrite_in_place(e)?;
        }
        out.items = items;
        Ok(out)
    }

    /// Rewrites a column that targets a specific table (SET / INSERT column
    /// lists).
    fn rewrite_target_column(&mut self, col: &WildName, target_table: &str) -> Rw<String> {
        let table =
            self.resolved.iter().find(|t| t.name == target_table).ok_or_else(|| {
                MdbsError::Internal(format!("unresolved target `{target_table}`"))
            })?;
        // Semantic column component?
        if let Some(bound) = self.scope.column_binding(None, col.as_str(), self.db_index) {
            let bound = bound.to_string();
            return self.validate_column_in(table, &bound);
        }
        if col.is_multiple() {
            match self.subst.get(col.as_str()) {
                Some(Some(concrete)) => {
                    let concrete = concrete.clone();
                    return self.validate_column_in(table, &concrete);
                }
                _ => return Err(Rejection::NotPertinent),
            }
        }
        self.validate_column_in(table, col.as_str())
    }

    fn validate_column_in(&self, table: &GddTable, column: &str) -> Rw<String> {
        if table.column(column).is_some() {
            Ok(column.to_string())
        } else {
            Err(Rejection::NotPertinent)
        }
    }

    /// Rewrites `e`'s columns and nested SELECTs in [`Scan`]'s order, which
    /// is the order the table assignments were collected in; stops at the
    /// first rejection.
    fn rewrite_in_place(&mut self, e: &mut Expr) -> Rw<()> {
        if let Expr::Column(c) = e {
            *c = self.rewrite_column(c)?;
            return Ok(());
        }
        let mut result = Ok(());
        e.for_each_child_mut(|child| {
            if result.is_ok() {
                result = self.rewrite_in_place(child);
            }
        });
        result?;
        if let Some(s) = e.subquery_mut() {
            *s = self.rewrite_select(s, false)?;
        }
        Ok(())
    }

    fn rewrite_column(&mut self, c: &ColumnRef) -> Rw<ColumnRef> {
        // Database qualifier: pertinent only for this database; strip it.
        if let Some(q) = &c.database {
            let Some(target) = self.scope.resolve(q.as_str()) else {
                return Err(Rejection::Hard(MdbsError::NotInScope(q.as_str().to_string())));
            };
            if target.database != self.db_name {
                return Err(Rejection::NotPertinent);
            }
        }
        let orig_qualifier = c.table.as_ref().map(|t| t.as_str().to_string());
        // Semantic column component (qualified by the variable head, by a
        // FROM alias of it, or bare).
        let sem_head = orig_qualifier
            .as_deref()
            .map(|q| self.alias_heads.get(q).map(|s| s.as_str()).unwrap_or(q));
        if let Some(bound) = self.scope.column_binding(sem_head, c.column.as_str(), self.db_index) {
            let bound = bound.to_string();
            self.validate_any(&bound)?;
            let qualifier = orig_qualifier.as_deref().map(|q| self.map_qualifier(q));
            return Ok(ColumnRef {
                database: None,
                table: qualifier.map(WildName::new),
                column: WildName::new(bound),
            });
        }
        // Wild column.
        if c.column.is_multiple() {
            match self.subst.get(c.column.as_str()) {
                Some(Some(concrete)) => {
                    let concrete = concrete.clone();
                    self.validate_any(&concrete)?;
                    let qualifier = orig_qualifier.as_deref().map(|q| self.map_qualifier(q));
                    return Ok(ColumnRef {
                        database: None,
                        table: qualifier.map(WildName::new),
                        column: WildName::new(concrete),
                    });
                }
                // A dropped optional item never reaches here (the item is
                // skipped before its expression is rewritten) — except when
                // the same wild identifier also appears in a mandatory
                // position, which makes the candidate non-pertinent.
                _ => return Err(Rejection::NotPertinent),
            }
        }
        // Concrete column: validate against resolved tables or output
        // aliases (ORDER BY may reference an alias).
        let name = c.column.as_str().to_string();
        if self.select_aliases.contains(&name) && orig_qualifier.is_none() {
            return Ok(ColumnRef::bare(name));
        }
        match &orig_qualifier {
            Some(q) => {
                let mapped = self.map_qualifier(q);
                let table = self.resolved.iter().find(|t| t.name == mapped).copied();
                match table {
                    Some(t) if t.column(&name).is_some() => Ok(ColumnRef {
                        database: None,
                        table: Some(WildName::new(mapped)),
                        column: WildName::new(name),
                    }),
                    // Qualifier may be an alias we cannot see a GddTable
                    // for; fall back to any-table validation.
                    _ => {
                        self.validate_any(&name)?;
                        Ok(ColumnRef {
                            database: None,
                            table: Some(WildName::new(mapped)),
                            column: WildName::new(name),
                        })
                    }
                }
            }
            None => {
                self.validate_any(&name)?;
                Ok(ColumnRef::bare(name))
            }
        }
    }

    fn map_qualifier(&self, q: &str) -> String {
        self.binding_map.get(q).cloned().unwrap_or_else(|| q.to_string())
    }

    fn validate_any(&self, column: &str) -> Rw<()> {
        if self.resolved.iter().any(|t| t.column(column).is_some()) {
            Ok(())
        } else {
            Err(Rejection::NotPertinent)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::GddColumn;
    use msql_lang::printer::print;
    use msql_lang::TypeName;

    /// The paper's appendix schemas in the GDD.
    fn gdd() -> GlobalDataDictionary {
        let mut g = GlobalDataDictionary::new();
        let t = |name: &str, cols: &[&str]| {
            GddTable::new(
                name,
                cols.iter().map(|c| GddColumn::new(*c, TypeName::Char(0))).collect(),
            )
        };
        g.register_database("continental", "svc1").unwrap();
        g.put_table(
            "continental",
            t("flights", &["flnu", "source", "dep", "destination", "arr", "day", "rate"]),
        )
        .unwrap();
        g.put_table("continental", t("f838", &["seatnu", "seatty", "seatstatus", "clientname"]))
            .unwrap();
        g.register_database("delta", "svc2").unwrap();
        g.put_table("delta", t("flight", &["fnu", "source", "dest", "dep", "arr", "day", "rate"]))
            .unwrap();
        g.put_table("delta", t("f747", &["snu", "sty", "sstat", "passname"])).unwrap();
        g.register_database("united", "svc3").unwrap();
        g.put_table("united", t("flight", &["fn", "sour", "dest", "depa", "arri", "day", "rates"]))
            .unwrap();
        g.put_table("united", t("fn727", &["sn", "st", "sst", "pasna"])).unwrap();
        g.register_database("avis", "svc4").unwrap();
        g.put_table(
            "avis",
            t("cars", &["code", "cartype", "rate", "carst", "from", "to", "client"]),
        )
        .unwrap();
        g.register_database("national", "svc5").unwrap();
        g.put_table("national", t("vehicle", &["vcode", "vty", "vstat", "from", "to", "client"]))
            .unwrap();
        g
    }

    fn scope(sql: &str) -> SessionScope {
        let mut s = SessionScope::new();
        let script = msql_lang::parse_script(sql).unwrap();
        for stmt in script.statements {
            match stmt {
                Statement::Use(u) => s.apply_use(&u).unwrap(),
                Statement::Let(l) => s.apply_let(&l).unwrap(),
                other => panic!("{other:?}"),
            }
        }
        s
    }

    fn body(sql: &str) -> QueryBody {
        let Statement::Query(q) = msql_lang::parse_statement(sql).unwrap() else { panic!() };
        q.body
    }

    fn printed(locals: &[LocalQuery]) -> Vec<(String, String)> {
        locals.iter().map(|l| (l.database.clone(), print(&l.statement))).collect()
    }

    #[test]
    fn paper_section2_query_expands_to_two_locals() {
        let s = scope(
            "USE avis national
             LET car.type.status BE cars.cartype.carst vehicle.vty.vstat",
        );
        let locals = expand(
            &body("SELECT %code, type, ~rate FROM car WHERE status = 'available'"),
            &s,
            &gdd(),
        )
        .unwrap();
        let got = printed(&locals);
        assert_eq!(
            got,
            vec![
                (
                    "avis".to_string(),
                    "SELECT code, cartype, rate FROM cars WHERE carst = 'available'".to_string()
                ),
                (
                    "national".to_string(),
                    // national lacks a rate column: the optional item is
                    // dropped (schema heterogeneity, §2).
                    "SELECT vcode, vty FROM vehicle WHERE vstat = 'available'".to_string()
                ),
            ]
        );
    }

    #[test]
    fn paper_section32_update_expands_to_three_locals() {
        let s = scope("USE continental VITAL delta united VITAL");
        let locals = expand(
            &body(
                "UPDATE flight% SET rate% = rate% * 1.1
                 WHERE sour% = 'Houston' AND dest% = 'San Antonio'",
            ),
            &s,
            &gdd(),
        )
        .unwrap();
        let got = printed(&locals);
        assert_eq!(
            got,
            vec![
                (
                    "continental".to_string(),
                    "UPDATE flights SET rate = rate * 1.1 WHERE source = 'Houston' AND destination = 'San Antonio'".to_string()
                ),
                (
                    "delta".to_string(),
                    "UPDATE flight SET rate = rate * 1.1 WHERE source = 'Houston' AND dest = 'San Antonio'".to_string()
                ),
                (
                    "united".to_string(),
                    "UPDATE flight SET rates = rates * 1.1 WHERE sour = 'Houston' AND dest = 'San Antonio'".to_string()
                ),
            ]
        );
        assert!(locals[0].vital);
        assert!(!locals[1].vital);
        assert!(locals[2].vital);
    }

    #[test]
    fn paper_section34_reservation_expands_with_subquery() {
        let s = scope(
            "USE continental delta
             LET fltab.snu.sstat.clname BE
                 f838.seatnu.seatstatus.clientname
                 f747.snu.sstat.passname",
        );
        let locals = expand(
            &body(
                "UPDATE fltab SET sstat = 'TAKEN', clname = 'wenders'
                 WHERE snu = (SELECT MIN(snu) FROM fltab WHERE sstat = 'FREE')",
            ),
            &s,
            &gdd(),
        )
        .unwrap();
        let got = printed(&locals);
        assert_eq!(got.len(), 2);
        assert_eq!(
            got[0].1,
            "UPDATE f838 SET seatstatus = 'TAKEN', clientname = 'wenders' \
             WHERE seatnu = (SELECT MIN(seatnu) FROM f838 WHERE seatstatus = 'FREE')"
        );
        assert_eq!(
            got[1].1,
            "UPDATE f747 SET sstat = 'TAKEN', passname = 'wenders' \
             WHERE snu = (SELECT MIN(snu) FROM f747 WHERE sstat = 'FREE')"
        );
    }

    #[test]
    fn non_pertinent_database_is_skipped() {
        // `cars` exists only in avis; national produces no local query.
        let s = scope("USE avis national");
        let locals = expand(&body("SELECT code FROM cars"), &s, &gdd()).unwrap();
        assert_eq!(locals.len(), 1);
        assert_eq!(locals[0].database, "avis");
    }

    #[test]
    fn db_qualified_table_restricts_pertinence() {
        let s = scope("USE avis national");
        let locals = expand(&body("SELECT vcode FROM national.vehicle"), &s, &gdd()).unwrap();
        assert_eq!(locals.len(), 1);
        assert_eq!(locals[0].database, "national");
        // The local statement is unqualified.
        assert_eq!(printed(&locals)[0].1, "SELECT vcode FROM vehicle");
    }

    #[test]
    fn qualifier_outside_scope_is_an_error() {
        let s = scope("USE avis");
        assert!(matches!(
            expand(&body("SELECT x FROM continental.flights"), &s, &gdd()),
            Err(MdbsError::NotInScope(_))
        ));
    }

    #[test]
    fn empty_scope_is_an_error() {
        let s = SessionScope::new();
        assert!(matches!(
            expand(&body("SELECT code FROM cars"), &s, &gdd()),
            Err(MdbsError::EmptyScope)
        ));
    }

    #[test]
    fn unimported_database_is_a_catalog_error() {
        let s = scope("USE ghostdb");
        assert!(matches!(expand(&body("SELECT x FROM t"), &s, &gdd()), Err(MdbsError::Catalog(_))));
    }

    #[test]
    fn wild_table_with_multiple_matches_generates_all_substitutions() {
        // In continental, `f%` matches both flights and f838.
        let s = scope("USE continental");
        let locals = expand(&body("SELECT day FROM f%"), &s, &gdd()).unwrap();
        // Only flights has `day`; the f838 substitution is not pertinent.
        assert_eq!(locals.len(), 1);
        assert_eq!(printed(&locals)[0].1, "SELECT day FROM flights");

        // `f%8` matches only f838.
        let locals = expand(&body("SELECT seatnu FROM f%8"), &s, &gdd()).unwrap();
        assert_eq!(locals.len(), 1);
        assert_eq!(printed(&locals)[0].1, "SELECT seatnu FROM f838");
    }

    #[test]
    fn consistent_substitution_within_statement() {
        // rate% appears twice in the §3.2 update; both occurrences must
        // pick the same concrete column.
        let s = scope("USE united");
        let locals =
            expand(&body("UPDATE flight% SET rate% = rate% * 2 WHERE rate% > 0"), &s, &gdd())
                .unwrap();
        assert_eq!(printed(&locals)[0].1, "UPDATE flight SET rates = rates * 2 WHERE rates > 0");
    }

    #[test]
    fn optional_wild_column_dropped_when_unmatched() {
        let s = scope("USE national");
        let locals = expand(&body("SELECT vcode, ~ra% FROM vehicle"), &s, &gdd()).unwrap();
        assert_eq!(printed(&locals)[0].1, "SELECT vcode FROM vehicle");
    }

    #[test]
    fn all_items_dropped_makes_db_non_pertinent() {
        let s = scope("USE national");
        let locals = expand(&body("SELECT ~rate FROM vehicle"), &s, &gdd()).unwrap();
        assert!(locals.is_empty());
    }

    #[test]
    fn alias_preserved_and_qualifiers_mapped() {
        let s = scope(
            "USE avis national
             LET car.type BE cars.cartype vehicle.vty",
        );
        let locals =
            expand(&body("SELECT c.type FROM car c WHERE c.type = 'suv'"), &s, &gdd()).unwrap();
        assert_eq!(printed(&locals)[0].1, "SELECT c.cartype FROM cars c WHERE c.cartype = 'suv'");
        assert_eq!(printed(&locals)[1].1, "SELECT c.vty FROM vehicle c WHERE c.vty = 'suv'");
    }

    #[test]
    fn insert_and_delete_expand() {
        let s = scope("USE avis national");
        let locals =
            expand(&body("INSERT INTO %s (client) VALUES ('wenders')"), &s, &gdd()).unwrap();
        // %s matches cars (avis); vehicle does not end in s.
        assert_eq!(locals.len(), 1);
        assert_eq!(printed(&locals)[0].1, "INSERT INTO cars (client) VALUES ('wenders')");

        let locals = expand(&body("DELETE FROM vehicle WHERE vstat = 'old'"), &s, &gdd()).unwrap();
        assert_eq!(locals.len(), 1);
        assert_eq!(locals[0].database, "national");
    }
}
