//! Multitables — the result of a multiple query.
//!
//! §2: *"The result of this multiple query is a multitable, which is a set of
//! two tables. These two tables are generated as partial results by the
//! accessed databases."* A multitable is deliberately **not** a union: the
//! per-database tables may have different schemas (optional `~` columns) and
//! keep their provenance.

use ldbs::engine::ResultSet;
use ldbs::value::Value;
use std::fmt;

/// One member table of a multitable.
#[derive(Debug, Clone, PartialEq)]
pub struct MultitableEntry {
    /// The database that produced the table.
    pub database: String,
    /// The partial result.
    pub result: ResultSet,
}

/// A database that contributed no table because its subquery failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultitableFailure {
    /// The database.
    pub database: String,
    /// Its error, in the site's words.
    pub error: String,
}

/// A set of tables, one per database that contributed a partial result, and
/// a record of each database that failed to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Multitable {
    /// Member tables in scope order.
    pub tables: Vec<MultitableEntry>,
    /// The databases whose subquery failed, in plan order: a partly failed
    /// retrieval says which databases are missing and why.
    pub failed: Vec<MultitableFailure>,
}

impl Multitable {
    /// The table produced by `database`, if any.
    pub fn table(&self, database: &str) -> Option<&ResultSet> {
        let lower = database.to_ascii_lowercase();
        self.tables.iter().find(|t| t.database == lower).map(|t| &t.result)
    }

    /// Total number of rows across all member tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.result.rows.len()).sum()
    }

    /// Number of member tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no database contributed.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Column names present in *every* member table (in the first member's
    /// order) — the usable basis for multitable-level manipulation when the
    /// schemas differ (e.g. after optional `~` columns were dropped).
    pub fn common_columns(&self) -> Vec<String> {
        let Some(first) = self.tables.first() else { return Vec::new() };
        first
            .result
            .columns
            .iter()
            .map(|c| c.name.clone())
            .filter(|name| {
                self.tables.iter().all(|t| t.result.columns.iter().any(|c| &c.name == name))
            })
            .collect()
    }

    /// Projects every member onto `columns` and unions the rows, prepending
    /// a provenance column `mdb` naming the contributing database — one of
    /// MSQL's multitable manipulation functions (§2 lists "new built-in
    /// functions for aggregation and manipulation of multiple tables").
    pub fn project_union(&self, columns: &[&str]) -> Result<ResultSet, String> {
        use ldbs::engine::ColumnMeta;
        use ldbs::value::DataType;
        let mut out_columns = vec![ColumnMeta { name: "mdb".into(), data_type: DataType::Char(0) }];
        // Types from the first member that has each column.
        for want in columns {
            let meta = self
                .tables
                .iter()
                .find_map(|t| t.result.columns.iter().find(|c| c.name == *want))
                .ok_or_else(|| format!("column `{want}` is in no member table"))?;
            out_columns.push(meta.clone());
        }
        let mut rows = Vec::new();
        for entry in &self.tables {
            let mut positions = Vec::with_capacity(columns.len());
            for want in columns {
                let pos = entry.result.column_index(want).ok_or_else(|| {
                    format!("column `{want}` is missing from `{}`", entry.database)
                })?;
                positions.push(pos);
            }
            for row in &entry.result.rows {
                let mut out = Vec::with_capacity(columns.len() + 1);
                out.push(Value::Str(entry.database.clone()));
                for &p in &positions {
                    out.push(row[p].clone());
                }
                rows.push(out);
            }
        }
        Ok(ResultSet { columns: out_columns, rows })
    }

    /// Unions the member tables over their common columns, with provenance.
    pub fn union_all(&self) -> Result<ResultSet, String> {
        let common = self.common_columns();
        let refs: Vec<&str> = common.iter().map(|s| s.as_str()).collect();
        self.project_union(&refs)
    }
}

fn render_cell(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        other => other.display_raw(),
    }
}

/// Renders one result set as an ASCII table.
pub fn render_result_set(rs: &ResultSet) -> String {
    let headers: Vec<String> = rs.columns.iter().map(|c| c.name.clone()).collect();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    let rendered_rows: Vec<Vec<String>> =
        rs.rows.iter().map(|row| row.iter().map(render_cell).collect()).collect();
    for row in &rendered_rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let rule = || {
        let mut s = String::from("+");
        for w in &widths {
            s.push_str(&"-".repeat(w + 2));
            s.push('+');
        }
        s.push('\n');
        s
    };
    let mut out = rule();
    out.push('|');
    for (h, w) in headers.iter().zip(&widths) {
        out.push_str(&format!(" {h:<w$} |"));
    }
    out.push('\n');
    out.push_str(&rule());
    for row in &rendered_rows {
        out.push('|');
        for (cell, w) in row.iter().zip(&widths) {
            out.push_str(&format!(" {cell:<w$} |"));
        }
        out.push('\n');
    }
    out.push_str(&rule());
    out
}

impl fmt::Display for Multitable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for entry in &self.tables {
            writeln!(f, "-- {} ({} rows)", entry.database, entry.result.rows.len())?;
            write!(f, "{}", render_result_set(&entry.result))?;
        }
        for failure in &self.failed {
            writeln!(f, "-- {} failed: {}", failure.database, failure.error)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldbs::engine::ColumnMeta;
    use ldbs::value::DataType;

    fn sample() -> Multitable {
        Multitable {
            tables: vec![
                MultitableEntry {
                    database: "avis".into(),
                    result: ResultSet {
                        columns: vec![
                            ColumnMeta { name: "code".into(), data_type: DataType::Int },
                            ColumnMeta { name: "rate".into(), data_type: DataType::Float },
                        ],
                        rows: vec![vec![Value::Int(1), Value::Float(39.5)]],
                    },
                },
                MultitableEntry {
                    database: "national".into(),
                    result: ResultSet {
                        columns: vec![ColumnMeta {
                            name: "vcode".into(),
                            data_type: DataType::Int,
                        }],
                        rows: vec![vec![Value::Int(7)], vec![Value::Int(8)]],
                    },
                },
            ],
            failed: Vec::new(),
        }
    }

    #[test]
    fn lookup_and_counts() {
        let mt = sample();
        assert_eq!(mt.len(), 2);
        assert_eq!(mt.total_rows(), 3);
        assert!(mt.table("AVIS").is_some());
        assert!(mt.table("delta").is_none());
        assert!(!mt.is_empty());
    }

    #[test]
    fn member_schemas_may_differ() {
        let mt = sample();
        assert_eq!(mt.table("avis").unwrap().columns.len(), 2);
        assert_eq!(mt.table("national").unwrap().columns.len(), 1);
    }

    #[test]
    fn display_renders_each_member() {
        let text = sample().to_string();
        assert!(text.contains("-- avis (1 rows)"));
        assert!(text.contains("-- national (2 rows)"));
        assert!(text.contains("| code | rate |"));
        assert!(text.contains("| 39.5 |"));
    }

    #[test]
    fn display_names_each_failed_database_and_why() {
        let mut mt = sample();
        mt.tables.truncate(1);
        mt.failed.push(MultitableFailure {
            database: "national".into(),
            error: "site `site5` unreachable".into(),
        });
        let text = mt.to_string();
        assert!(text.contains("-- avis (1 rows)"), "{text}");
        assert!(text.ends_with("-- national failed: site `site5` unreachable\n"), "{text}");
    }

    #[test]
    fn render_handles_empty_result() {
        let rs = ResultSet { columns: vec![], rows: vec![] };
        let text = render_result_set(&rs);
        assert!(text.starts_with('+'));
    }

    fn heterogeneous() -> Multitable {
        Multitable {
            tables: vec![
                MultitableEntry {
                    database: "avis".into(),
                    result: ResultSet {
                        columns: vec![
                            ColumnMeta { name: "code".into(), data_type: DataType::Int },
                            ColumnMeta { name: "status".into(), data_type: DataType::Char(10) },
                            ColumnMeta { name: "rate".into(), data_type: DataType::Float },
                        ],
                        rows: vec![vec![
                            Value::Int(1),
                            Value::Str("free".into()),
                            Value::Float(39.5),
                        ]],
                    },
                },
                MultitableEntry {
                    database: "national".into(),
                    result: ResultSet {
                        columns: vec![
                            ColumnMeta { name: "status".into(), data_type: DataType::Char(10) },
                            ColumnMeta { name: "code".into(), data_type: DataType::Int },
                        ],
                        rows: vec![
                            vec![Value::Str("free".into()), Value::Int(7)],
                            vec![Value::Str("taken".into()), Value::Int(8)],
                        ],
                    },
                },
            ],
            failed: Vec::new(),
        }
    }

    #[test]
    fn common_columns_respect_first_member_order() {
        let mt = heterogeneous();
        assert_eq!(mt.common_columns(), vec!["code".to_string(), "status".to_string()]);
    }

    #[test]
    fn union_all_merges_with_provenance() {
        let mt = heterogeneous();
        let merged = mt.union_all().unwrap();
        assert_eq!(
            merged.columns.iter().map(|c| c.name.as_str()).collect::<Vec<_>>(),
            vec!["mdb", "code", "status"]
        );
        assert_eq!(merged.rows.len(), 3);
        assert_eq!(merged.rows[0][0], Value::Str("avis".into()));
        assert_eq!(
            merged.rows[1],
            vec![Value::Str("national".into()), Value::Int(7), Value::Str("free".into())]
        );
    }

    #[test]
    fn project_union_rejects_missing_columns() {
        let mt = heterogeneous();
        assert!(mt.project_union(&["rate"]).is_err()); // national lacks rate
        assert!(mt.project_union(&["ghost"]).is_err());
        assert!(mt.project_union(&["code"]).is_ok());
    }

    #[test]
    fn union_of_empty_multitable_is_empty() {
        let mt = Multitable::default();
        assert!(mt.common_columns().is_empty());
        let merged = mt.union_all().unwrap();
        assert_eq!(merged.rows.len(), 0);
        assert_eq!(merged.columns.len(), 1); // just the provenance column
    }
}
