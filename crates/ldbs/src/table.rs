//! Row storage.
//!
//! Rows carry stable identifiers so the undo log can refer to them across
//! updates and deletes; a `BTreeMap` keeps iteration order deterministic,
//! which makes query results and benchmarks reproducible.

use crate::engine::ResultSet;
use crate::error::DbError;
use crate::index::Index;
use crate::schema::{ColumnSchema, IndexDef, TableSchema};
use crate::stats::{analyze_table, TableStats};
use crate::value::Value;
use std::collections::BTreeMap;

/// Stable identifier of a stored row.
pub type RowId = u64;

/// A stored row: one value per schema column.
pub type Row = Vec<Value>;

/// A heap table plus its secondary indexes.
///
/// Every mutation path goes through [`Table::insert`], [`Table::remove`],
/// [`Table::replace`] or [`Table::restore`], and each of them maintains the
/// indexes in the same step — including when the undo log replays those
/// operations during rollback, so aborted transactions leave indexes
/// consistent for free.
#[derive(Debug, Clone)]
pub struct Table {
    /// The table schema.
    pub schema: TableSchema,
    rows: BTreeMap<RowId, Row>,
    next_id: RowId,
    indexes: Vec<Index>,
    /// Optimizer statistics from the last `ANALYZE`, if any.
    stats: Option<TableStats>,
    /// Mutations applied since the last `ANALYZE` — the staleness signal the
    /// cost layer consults before trusting `stats`.
    dml_since_analyze: u64,
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: TableSchema) -> Self {
        Table {
            schema,
            rows: BTreeMap::new(),
            next_id: 1,
            indexes: Vec::new(),
            stats: None,
            dml_since_analyze: 0,
        }
    }

    /// A temporary table `name` holding `rs`'s rows under its column names
    /// and types, not exported to the multidatabase level: a partial result
    /// that a global query reads.
    pub fn temporary(name: &str, rs: ResultSet) -> Result<Table, DbError> {
        let columns =
            rs.columns.into_iter().map(|c| ColumnSchema::new(c.name, c.data_type)).collect();
        let mut schema = TableSchema::new(name, columns);
        schema.public = false;
        let mut t = Table::new(schema);
        for row in rs.rows {
            t.insert(row)?;
        }
        Ok(t)
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Validates a row against the schema (arity, NOT NULL, type coercion)
    /// and returns it coerced — in place: no value is copied.
    pub fn validate(&self, mut row: Row) -> Result<Row, DbError> {
        if row.len() != self.schema.arity() {
            return Err(DbError::TypeError(format!(
                "table `{}` expects {} values, got {}",
                self.schema.name,
                self.schema.arity(),
                row.len()
            )));
        }
        for (value, col) in row.iter_mut().zip(&self.schema.columns) {
            if value.is_null() && col.not_null {
                return Err(DbError::NullViolation(col.name.clone()));
            }
            let given = std::mem::replace(value, Value::Null);
            *value = given.coerce_into(col.data_type).map_err(|given| {
                DbError::TypeError(format!(
                    "value {given} does not fit column `{}` ({})",
                    col.name, col.data_type
                ))
            })?;
        }
        Ok(row)
    }

    /// Inserts a validated row, returning its id.
    pub fn insert(&mut self, row: Row) -> Result<RowId, DbError> {
        let row = self.validate(row)?;
        let id = self.next_id;
        self.next_id += 1;
        for idx in &mut self.indexes {
            idx.insert(id, &row);
        }
        self.rows.insert(id, row);
        self.dml_since_analyze += 1;
        Ok(id)
    }

    /// Re-inserts a row under a previously assigned id (undo of a delete).
    pub fn restore(&mut self, id: RowId, row: Row) {
        for idx in &mut self.indexes {
            idx.insert(id, &row);
        }
        self.rows.insert(id, row);
        if id >= self.next_id {
            self.next_id = id + 1;
        }
        self.dml_since_analyze += 1;
    }

    /// Removes a row, returning it.
    pub fn remove(&mut self, id: RowId) -> Option<Row> {
        let row = self.rows.remove(&id)?;
        for idx in &mut self.indexes {
            idx.remove(id, &row);
        }
        self.dml_since_analyze += 1;
        Some(row)
    }

    /// Reads a row.
    pub fn get(&self, id: RowId) -> Option<&Row> {
        self.rows.get(&id)
    }

    /// Replaces a row in place, returning the previous contents.
    pub fn replace(&mut self, id: RowId, row: Row) -> Result<Row, DbError> {
        let row = self.validate(row)?;
        let old = match self.rows.get_mut(&id) {
            Some(slot) => std::mem::replace(slot, row),
            None => return Err(DbError::Internal(format!("row {id} vanished during update"))),
        };
        let new = &self.rows[&id];
        for idx in &mut self.indexes {
            // An index whose key did not change already holds the row.
            let col = idx.column_pos;
            if old[col].canonical_key() != new[col].canonical_key() {
                idx.remove(id, &old);
                idx.insert(id, new);
            }
        }
        self.dml_since_analyze += 1;
        Ok(old)
    }

    /// (Re)collects optimizer statistics and resets the staleness counter.
    /// Returns the previous snapshot and counter so `ANALYZE` can be undone
    /// on engines whose profile rolls DDL back.
    pub fn analyze(&mut self) -> (Option<TableStats>, u64) {
        let fresh = analyze_table(self);
        let prev = self.stats.replace(fresh);
        let prev_staleness = std::mem::replace(&mut self.dml_since_analyze, 0);
        (prev, prev_staleness)
    }

    /// The statistics snapshot from the last `ANALYZE`, if any.
    pub fn table_stats(&self) -> Option<&TableStats> {
        self.stats.as_ref()
    }

    /// Mutations applied since the last `ANALYZE` (staleness indicator).
    pub fn dml_since_analyze(&self) -> u64 {
        self.dml_since_analyze
    }

    /// Restores a previous statistics snapshot (undo of `ANALYZE`).
    pub fn restore_stats(&mut self, stats: Option<TableStats>, dml_since_analyze: u64) {
        self.stats = stats;
        self.dml_since_analyze = dml_since_analyze;
    }

    /// Iterates `(id, row)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.rows.iter().map(|(id, row)| (*id, row))
    }

    /// Builds a secondary index over the current rows. Errors when the name
    /// is taken or the column does not exist.
    pub fn create_index(&mut self, def: IndexDef) -> Result<(), DbError> {
        if self.index_by_name(&def.name).is_some() {
            return Err(DbError::DuplicateIndex(def.name));
        }
        let pos = self.schema.column_index(&def.column).ok_or_else(|| {
            DbError::UnknownColumn(format!("{}.{}", self.schema.name, def.column))
        })?;
        self.indexes.push(Index::build(def, pos, self.iter()));
        Ok(())
    }

    /// Drops an index by name, returning its definition (for undo).
    pub fn drop_index(&mut self, name: &str) -> Result<IndexDef, DbError> {
        let lower = name.to_ascii_lowercase();
        match self.indexes.iter().position(|i| i.def.name == lower) {
            Some(pos) => Ok(self.indexes.remove(pos).def),
            None => Err(DbError::UnknownIndex(lower)),
        }
    }

    /// The index named `name`, if any.
    pub fn index_by_name(&self, name: &str) -> Option<&Index> {
        let lower = name.to_ascii_lowercase();
        self.indexes.iter().find(|i| i.def.name == lower)
    }

    /// The first index covering `column` (preferring one that can serve
    /// range probes when `need_range` is set).
    pub fn index_on(&self, column: &str, need_range: bool) -> Option<&Index> {
        self.indexes.iter().find(|i| {
            i.def.column.eq_ignore_ascii_case(column) && (!need_range || i.supports_range())
        })
    }

    /// All index definitions, in creation order.
    pub fn index_defs(&self) -> Vec<&IndexDef> {
        self.indexes.iter().map(|i| &i.def).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnSchema;
    use crate::value::DataType;

    fn table() -> Table {
        Table::new(TableSchema::new(
            "cars",
            vec![
                ColumnSchema::not_null("code", DataType::Int),
                ColumnSchema::new("rate", DataType::Float),
            ],
        ))
    }

    #[test]
    fn insert_assigns_increasing_ids() {
        let mut t = table();
        let a = t.insert(vec![Value::Int(1), Value::Float(10.0)]).unwrap();
        let b = t.insert(vec![Value::Int(2), Value::Null]).unwrap();
        assert!(b > a);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn validation_rejects_bad_rows() {
        let mut t = table();
        assert!(matches!(t.insert(vec![Value::Int(1)]), Err(DbError::TypeError(_))));
        assert!(matches!(t.insert(vec![Value::Null, Value::Null]), Err(DbError::NullViolation(_))));
        assert!(matches!(
            t.insert(vec![Value::Str("x".into()), Value::Null]),
            Err(DbError::TypeError(_))
        ));
    }

    #[test]
    fn int_widens_to_float_column() {
        let mut t = table();
        let id = t.insert(vec![Value::Int(1), Value::Int(10)]).unwrap();
        assert_eq!(t.get(id).unwrap()[1], Value::Float(10.0));
    }

    #[test]
    fn remove_restore_roundtrip() {
        let mut t = table();
        let id = t.insert(vec![Value::Int(1), Value::Float(10.0)]).unwrap();
        let row = t.remove(id).unwrap();
        assert!(t.is_empty());
        t.restore(id, row);
        assert_eq!(t.get(id).unwrap()[0], Value::Int(1));
        // next_id moves past restored ids
        let id2 = t.insert(vec![Value::Int(2), Value::Null]).unwrap();
        assert!(id2 > id);
    }

    #[test]
    fn replace_returns_old_row() {
        let mut t = table();
        let id = t.insert(vec![Value::Int(1), Value::Float(10.0)]).unwrap();
        let old = t.replace(id, vec![Value::Int(1), Value::Float(11.0)]).unwrap();
        assert_eq!(old[1], Value::Float(10.0));
        assert_eq!(t.get(id).unwrap()[1], Value::Float(11.0));
    }

    #[test]
    fn indexes_follow_every_mutation_path() {
        use crate::schema::{IndexDef, IndexKind};
        let mut t = table();
        let a = t.insert(vec![Value::Int(1), Value::Float(10.0)]).unwrap();
        t.create_index(IndexDef::new("cars_code", "code", IndexKind::BTree)).unwrap();
        // Bulk-loaded from existing rows…
        assert_eq!(t.index_by_name("cars_code").unwrap().probe_eq(&[Value::Int(1)]), vec![a]);
        // …and maintained by insert/replace/remove/restore.
        let b = t.insert(vec![Value::Int(2), Value::Null]).unwrap();
        assert_eq!(t.index_by_name("cars_code").unwrap().probe_eq(&[Value::Int(2)]), vec![b]);
        t.replace(b, vec![Value::Int(3), Value::Null]).unwrap();
        let idx = t.index_by_name("cars_code").unwrap();
        assert!(idx.probe_eq(&[Value::Int(2)]).is_empty());
        assert_eq!(idx.probe_eq(&[Value::Int(3)]), vec![b]);
        // A replace that leaves the indexed column alone leaves the index alone.
        t.replace(b, vec![Value::Int(3), Value::Float(7.0)]).unwrap();
        assert_eq!(t.index_by_name("cars_code").unwrap().probe_eq(&[Value::Int(3)]), vec![b]);
        assert_eq!(t.index_by_name("cars_code").unwrap().distinct_keys(), 2);
        let row = t.remove(a).unwrap();
        assert!(t.index_by_name("cars_code").unwrap().probe_eq(&[Value::Int(1)]).is_empty());
        t.restore(a, row);
        assert_eq!(t.index_by_name("cars_code").unwrap().probe_eq(&[Value::Int(1)]), vec![a]);
    }

    #[test]
    fn index_ddl_errors() {
        use crate::schema::{IndexDef, IndexKind};
        let mut t = table();
        t.create_index(IndexDef::new("i", "code", IndexKind::Hash)).unwrap();
        assert!(matches!(
            t.create_index(IndexDef::new("I", "rate", IndexKind::Hash)),
            Err(DbError::DuplicateIndex(_))
        ));
        assert!(matches!(
            t.create_index(IndexDef::new("j", "missing", IndexKind::Hash)),
            Err(DbError::UnknownColumn(_))
        ));
        assert!(matches!(t.drop_index("nope"), Err(DbError::UnknownIndex(_))));
        let def = t.drop_index("I").unwrap();
        assert_eq!(def.name, "i");
        assert!(t.index_defs().is_empty());
        // Lookup by column honours the range requirement.
        t.create_index(IndexDef::new("h", "code", IndexKind::Hash)).unwrap();
        assert!(t.index_on("code", false).is_some());
        assert!(t.index_on("code", true).is_none());
        t.create_index(IndexDef::new("b", "code", IndexKind::BTree)).unwrap();
        assert_eq!(t.index_on("code", true).unwrap().def.name, "b");
    }

    #[test]
    fn staleness_counter_tracks_every_mutation_path() {
        let mut t = table();
        assert_eq!(t.dml_since_analyze(), 0);
        assert!(t.table_stats().is_none());
        let a = t.insert(vec![Value::Int(1), Value::Float(10.0)]).unwrap();
        assert_eq!(t.dml_since_analyze(), 1);
        let (prev, prev_staleness) = t.analyze();
        assert!(prev.is_none());
        assert_eq!(prev_staleness, 1);
        assert_eq!(t.dml_since_analyze(), 0);
        assert_eq!(t.table_stats().unwrap().row_count, 1);
        t.replace(a, vec![Value::Int(2), Value::Null]).unwrap();
        let row = t.remove(a).unwrap();
        t.restore(a, row);
        assert_eq!(t.dml_since_analyze(), 3);
        // Rollback of an ANALYZE restores the prior snapshot wholesale.
        let snapshot = t.table_stats().cloned();
        let (prev, prev_staleness) = t.analyze();
        assert_eq!(prev, snapshot);
        assert_eq!(prev_staleness, 3);
        t.restore_stats(prev, prev_staleness);
        assert_eq!(t.table_stats(), snapshot.as_ref());
        assert_eq!(t.dml_since_analyze(), 3);
    }

    #[test]
    fn iteration_is_in_id_order() {
        let mut t = table();
        for i in 0..5 {
            t.insert(vec![Value::Int(i), Value::Null]).unwrap();
        }
        let codes: Vec<i64> = t
            .iter()
            .map(|(_, r)| match r[0] {
                Value::Int(v) => v,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(codes, vec![0, 1, 2, 3, 4]);
    }
}
