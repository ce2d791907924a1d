//! Table and column schemas.
//!
//! Schema objects double as the *Local Conceptual Schema* of the paper's
//! architecture (Figure 2): tables marked [`TableSchema::public`] are the
//! ones an `IMPORT DATABASE` statement may pull into the Global Data
//! Dictionary.

use crate::error::DbError;
use crate::value::DataType;

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSchema {
    /// Column name (stored lowercase; SQL identifiers are case-insensitive).
    pub name: String,
    /// Data type, including the advertised width for CHAR columns — the GDD
    /// stores "names, types and widths" (paper §3.1).
    pub data_type: DataType,
    /// NOT NULL constraint.
    pub not_null: bool,
}

impl ColumnSchema {
    /// Creates a nullable column.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnSchema { name: name.into().to_ascii_lowercase(), data_type, not_null: false }
    }

    /// Creates a NOT NULL column.
    pub fn not_null(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnSchema { name: name.into().to_ascii_lowercase(), data_type, not_null: true }
    }
}

/// A table definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name (lowercase).
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColumnSchema>,
    /// Whether the table is exported to the multidatabase level.
    pub public: bool,
}

impl TableSchema {
    /// Creates a public table schema.
    pub fn new(name: impl Into<String>, columns: Vec<ColumnSchema>) -> Self {
        TableSchema { name: name.into().to_ascii_lowercase(), columns, public: true }
    }

    /// Index of a column by (case-insensitive) name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// The column schema for `name`, or an error.
    pub fn column(&self, name: &str) -> Result<&ColumnSchema, DbError> {
        self.column_index(name)
            .map(|i| &self.columns[i])
            .ok_or_else(|| DbError::UnknownColumn(format!("{}.{}", self.name, name)))
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }
}

/// The physical shape of a secondary index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Hash map: serves equality and `IN` probes only.
    Hash,
    /// Ordered map: serves equality, `IN`, and range probes.
    BTree,
}

impl IndexKind {
    /// The MSQL keyword for the kind (`USING <kind>`).
    pub fn keyword(&self) -> &'static str {
        match self {
            IndexKind::Hash => "HASH",
            IndexKind::BTree => "BTREE",
        }
    }
}

/// A secondary-index definition: a named, single-column access path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name (lowercase, unique per table).
    pub name: String,
    /// Indexed column name (lowercase).
    pub column: String,
    /// Physical shape.
    pub kind: IndexKind,
}

impl IndexDef {
    /// Creates an index definition, normalising names.
    pub fn new(name: impl Into<String>, column: impl Into<String>, kind: IndexKind) -> Self {
        IndexDef {
            name: name.into().to_ascii_lowercase(),
            column: column.into().to_ascii_lowercase(),
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cars() -> TableSchema {
        TableSchema::new(
            "Cars",
            vec![
                ColumnSchema::not_null("Code", DataType::Int),
                ColumnSchema::new("CarType", DataType::Char(16)),
                ColumnSchema::new("rate", DataType::Float),
            ],
        )
    }

    #[test]
    fn names_are_normalised() {
        let t = cars();
        assert_eq!(t.name, "cars");
        assert_eq!(t.columns[0].name, "code");
    }

    #[test]
    fn column_lookup_is_case_insensitive() {
        let t = cars();
        assert_eq!(t.column_index("CODE"), Some(0));
        assert_eq!(t.column_index("cartype"), Some(1));
        assert_eq!(t.column_index("missing"), None);
        assert!(t.column("RATE").is_ok());
        assert!(matches!(t.column("nope"), Err(DbError::UnknownColumn(_))));
    }

    #[test]
    fn arity_and_names() {
        let t = cars();
        assert_eq!(t.arity(), 3);
        assert_eq!(t.column_names(), vec!["code", "cartype", "rate"]);
    }

    #[test]
    fn index_def_normalises_names() {
        let d = IndexDef::new("Cars_Code", "Code", IndexKind::Hash);
        assert_eq!(d.name, "cars_code");
        assert_eq!(d.column, "code");
        assert_eq!(d.kind.keyword(), "HASH");
        assert_eq!(IndexKind::BTree.keyword(), "BTREE");
    }
}
