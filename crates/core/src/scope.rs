//! Session scope: the current `USE` databases and `LET` semantic variables.

use crate::error::MdbsError;
use catalog::GlobalDataDictionary;
use msql_lang::{LetStatement, SemanticVariable, UseStatement};

/// One database in the current scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeDb {
    /// Database name.
    pub database: String,
    /// Alias from `USE (db alias)`, if any.
    pub alias: Option<String>,
    /// VITAL designator (paper §3.2).
    pub vital: bool,
}

impl ScopeDb {
    /// The name this element is referred to by (alias if present) — what
    /// COMP clauses and acceptable states use.
    pub fn key(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.database)
    }
}

/// The query scope: databases plus semantic variables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionScope {
    /// Scope databases in USE order.
    pub databases: Vec<ScopeDb>,
    /// Declared semantic variables.
    pub variables: Vec<SemanticVariable>,
}

impl SessionScope {
    /// An empty scope.
    pub fn new() -> Self {
        SessionScope::default()
    }

    /// Applies a USE statement: `USE` replaces the scope (and invalidates
    /// semantic variables, whose bindings were positional in the old scope);
    /// `USE CURRENT` appends to it.
    pub fn apply_use(&mut self, u: &UseStatement) -> Result<(), MdbsError> {
        if !u.current {
            self.databases.clear();
            self.variables.clear();
        }
        for e in &u.elements {
            let database = e.database.as_str().to_string();
            if e.database.is_multiple() {
                return Err(MdbsError::Parse(format!(
                    "USE cannot take a wildcard database name `{database}`"
                )));
            }
            let element = ScopeDb {
                database,
                alias: e.alias.as_ref().map(|a| a.to_ascii_lowercase()),
                vital: e.vital,
            };
            if self.databases.iter().any(|d| d.key() == element.key()) {
                return Err(MdbsError::Parse(format!(
                    "duplicate scope name `{}` in USE",
                    element.key()
                )));
            }
            self.databases.push(element);
        }
        Ok(())
    }

    /// Adds LET variables, validating them against the current scope: one
    /// binding per scope database (positional, in USE order), all paths of
    /// the variable's arity.
    pub fn apply_let(&mut self, l: &LetStatement) -> Result<(), MdbsError> {
        if self.databases.is_empty() {
            return Err(MdbsError::EmptyScope);
        }
        for var in &l.variables {
            if var.names.len() < 2 {
                return Err(MdbsError::BadSemanticVariable(format!(
                    "variable `{}` needs at least a table and a column component",
                    var.names.join(".")
                )));
            }
            if var.bindings.len() != self.databases.len() {
                return Err(MdbsError::BadSemanticVariable(format!(
                    "variable `{}` has {} bindings for {} databases in scope",
                    var.names.join("."),
                    var.bindings.len(),
                    self.databases.len()
                )));
            }
            for b in &var.bindings {
                if b.len() != var.names.len() {
                    return Err(MdbsError::BadSemanticVariable(format!(
                        "binding `{}` does not match the arity of `{}`",
                        b.join("."),
                        var.names.join(".")
                    )));
                }
            }
            let mut lowered = var.clone();
            lowered.names = lowered.names.iter().map(|n| n.to_ascii_lowercase()).collect();
            lowered.bindings = lowered
                .bindings
                .iter()
                .map(|b| b.iter().map(|n| n.to_ascii_lowercase()).collect())
                .collect();
            self.variables.push(lowered);
        }
        Ok(())
    }

    /// Resolves a database name or alias to its scope element.
    pub fn resolve(&self, name: &str) -> Option<&ScopeDb> {
        let lower = name.to_ascii_lowercase();
        self.databases.iter().find(|d| d.key() == lower || d.database == lower)
    }

    /// Index of a database (by name or alias) in USE order.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        let lower = name.to_ascii_lowercase();
        self.databases.iter().position(|d| d.key() == lower || d.database == lower)
    }

    /// The scope databases whose GDD entry exports `table`, in USE order.
    /// Callers apply their own rule to the list: a join wants exactly one
    /// owner, a transfer takes the first.
    pub fn owners(&self, gdd: &GlobalDataDictionary, table: &str) -> Vec<&ScopeDb> {
        self.databases.iter().filter(|d| gdd.table(&d.database, table).is_ok()).collect()
    }

    /// The one database in scope, for a statement that names none:
    /// [`MdbsError::EmptyScope`] without one, `Unsupported(ambiguous)` with
    /// several.
    pub fn only_database(&self, ambiguous: &str) -> Result<&str, MdbsError> {
        match self.databases.as_slice() {
            [only] => Ok(&only.database),
            [] => Err(MdbsError::EmptyScope),
            _ => Err(MdbsError::Unsupported(ambiguous.into())),
        }
    }

    /// The vital set: scope elements designated VITAL.
    pub fn vital_set(&self) -> Vec<&ScopeDb> {
        self.databases.iter().filter(|d| d.vital).collect()
    }

    /// If `head` is a semantic table variable, the bound table name for the
    /// `db_index`-th scope database.
    pub fn table_binding(&self, head: &str, db_index: usize) -> Option<&str> {
        let lower = head.to_ascii_lowercase();
        self.variables
            .iter()
            .find(|v| v.names[0] == lower)
            .and_then(|v| v.bindings.get(db_index))
            .map(|b| b[0].as_str())
    }

    /// If `component` is a column component of a semantic variable (whose
    /// head matches `head` when given), the bound column name for the
    /// `db_index`-th scope database.
    pub fn column_binding(
        &self,
        head: Option<&str>,
        component: &str,
        db_index: usize,
    ) -> Option<&str> {
        let comp = component.to_ascii_lowercase();
        let head = head.map(|h| h.to_ascii_lowercase());
        for v in &self.variables {
            if let Some(h) = &head {
                if v.names[0] != *h {
                    continue;
                }
            }
            if let Some(k) = v.names[1..].iter().position(|n| *n == comp) {
                return v.bindings.get(db_index).map(|b| b[k + 1].as_str());
            }
        }
        None
    }

    /// True if `name` is the head (table variable) of any semantic variable.
    pub fn is_table_variable(&self, name: &str) -> bool {
        let lower = name.to_ascii_lowercase();
        self.variables.iter().any(|v| v.names[0] == lower)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msql_lang::{parse_statement, Statement};

    fn use_stmt(sql: &str) -> UseStatement {
        match parse_statement(sql).unwrap() {
            Statement::Use(u) => u,
            other => panic!("{other:?}"),
        }
    }

    fn let_stmt(sql: &str) -> LetStatement {
        match parse_statement(sql).unwrap() {
            Statement::Let(l) => l,
            other => panic!("{other:?}"),
        }
    }

    fn paper_scope() -> SessionScope {
        let mut s = SessionScope::new();
        s.apply_use(&use_stmt("USE avis national")).unwrap();
        s.apply_let(&let_stmt("LET car.type.status BE cars.cartype.carst vehicle.vty.vstat"))
            .unwrap();
        s
    }

    #[test]
    fn use_replaces_and_current_appends() {
        let mut s = SessionScope::new();
        s.apply_use(&use_stmt("USE avis national")).unwrap();
        assert_eq!(s.databases.len(), 2);
        s.apply_use(&use_stmt("USE continental")).unwrap();
        assert_eq!(s.databases.len(), 1);
        s.apply_use(&use_stmt("USE CURRENT delta")).unwrap();
        assert_eq!(s.databases.len(), 2);
        assert_eq!(s.databases[1].database, "delta");
    }

    #[test]
    fn use_clears_variables() {
        let mut s = paper_scope();
        assert_eq!(s.variables.len(), 1);
        s.apply_use(&use_stmt("USE continental")).unwrap();
        assert!(s.variables.is_empty());
    }

    #[test]
    fn vital_and_alias_resolution() {
        let mut s = SessionScope::new();
        s.apply_use(&use_stmt("USE (continental cont) VITAL delta united VITAL")).unwrap();
        let vitals: Vec<&str> = s.vital_set().iter().map(|d| d.key()).collect();
        assert_eq!(vitals, vec!["cont", "united"]);
        assert_eq!(s.resolve("cont").unwrap().database, "continental");
        assert_eq!(s.resolve("continental").unwrap().key(), "cont");
        assert_eq!(s.index_of("united"), Some(2));
        assert!(s.resolve("avis").is_none());
    }

    #[test]
    fn duplicate_scope_name_rejected() {
        let mut s = SessionScope::new();
        assert!(s.apply_use(&use_stmt("USE avis avis")).is_err());
    }

    #[test]
    fn let_bindings_resolve_positionally() {
        let s = paper_scope();
        assert!(s.is_table_variable("car"));
        assert!(!s.is_table_variable("cars"));
        assert_eq!(s.table_binding("car", 0), Some("cars"));
        assert_eq!(s.table_binding("CAR", 1), Some("vehicle"));
        assert_eq!(s.column_binding(Some("car"), "type", 0), Some("cartype"));
        assert_eq!(s.column_binding(Some("car"), "type", 1), Some("vty"));
        assert_eq!(s.column_binding(None, "status", 1), Some("vstat"));
        assert_eq!(s.column_binding(None, "rate", 0), None);
    }

    #[test]
    fn let_arity_validation() {
        let mut s = SessionScope::new();
        s.apply_use(&use_stmt("USE avis national")).unwrap();
        // Only one binding for two databases.
        assert!(matches!(
            s.apply_let(&let_stmt("LET car.type BE cars.cartype")),
            Err(MdbsError::BadSemanticVariable(_))
        ));
        // Binding arity mismatch.
        assert!(matches!(
            s.apply_let(&let_stmt("LET car.type BE cars.cartype vehicle.vty.vstat")),
            Err(MdbsError::BadSemanticVariable(_))
        ));
        // LET before USE.
        let mut empty = SessionScope::new();
        assert!(matches!(
            empty.apply_let(&let_stmt("LET car.type BE cars.cartype vehicle.vty")),
            Err(MdbsError::EmptyScope)
        ));
    }

    #[test]
    fn single_component_variable_rejected() {
        let mut s = SessionScope::new();
        s.apply_use(&use_stmt("USE avis national")).unwrap();
        assert!(s.apply_let(&let_stmt("LET car BE cars vehicle")).is_err());
    }
}
