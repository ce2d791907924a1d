//! INSERT / UPDATE / DELETE execution with undo logging.
//!
//! Each statement is planned against an immutable view of the database
//! (predicates and new values are fully computed first) and then applied,
//! so a failing expression never leaves a half-applied statement behind.

use crate::engine::Database;
use crate::error::DbError;
use crate::eval::{Binder, Bound, Frame, Scope, ScopeSource, SubqueryCache};
use crate::table::{Row, RowId};
use crate::txn::UndoOp;
use crate::value::Value;
use msql_lang::{Delete, Insert, InsertSource, Update};
use std::sync::Arc;

/// The `(database, table)` a statement writes: the two names every undo entry
/// of the statement shares.
fn check_local_table(
    t: &msql_lang::TableRef,
    db: &Database,
) -> Result<(Arc<str>, Arc<str>), DbError> {
    if t.table.is_multiple() {
        return Err(DbError::NotLocalSql(format!("table `{}` still contains a wildcard", t.table)));
    }
    if let Some(d) = &t.database {
        if d.as_str() != db.name {
            return Err(DbError::NotLocalSql(format!(
                "reference to remote database `{d}` inside local SQL"
            )));
        }
    }
    Ok((db.name.as_str().into(), t.table.as_str().into()))
}

/// Executes an INSERT; returns the number of rows inserted.
pub fn execute_insert(
    db: &mut Database,
    ins: &Insert,
    undo: &mut Vec<UndoOp>,
) -> Result<usize, DbError> {
    let (database, table_name) = check_local_table(&ins.table, db)?;

    // Plan: compute the concrete rows first (immutable phase).
    let planned: Vec<Row> = {
        let dbr: &Database = db;
        let table = dbr.table(&table_name)?;
        let schema = &table.schema;
        // Map the optional column list to schema positions.
        let positions: Vec<usize> = if ins.columns.is_empty() {
            (0..schema.arity()).collect()
        } else {
            let mut pos = Vec::with_capacity(ins.columns.len());
            for c in &ins.columns {
                let name = c
                    .as_concrete()
                    .ok_or_else(|| DbError::NotLocalSql(format!("wildcard column `{c}`")))?;
                pos.push(
                    schema
                        .column_index(name)
                        .ok_or_else(|| DbError::UnknownColumn(name.to_string()))?,
                );
            }
            pos
        };
        let source_rows: Vec<Row> = match &ins.source {
            InsertSource::Values(rows) => {
                let cache = SubqueryCache::new();
                let binder = Binder::new(dbr, &cache, None);
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    let mut vals = Vec::with_capacity(row.len());
                    for e in row {
                        vals.push(binder.bind(e).eval(&Frame::EMPTY)?.into_owned());
                    }
                    out.push(vals);
                }
                out
            }
            InsertSource::Select(sel) => crate::exec::select::execute_select(dbr, sel)?.rows,
        };
        let mut planned = Vec::with_capacity(source_rows.len());
        for vals in source_rows {
            if vals.len() != positions.len() {
                return Err(DbError::TypeError(format!(
                    "INSERT provides {} values for {} columns",
                    vals.len(),
                    positions.len()
                )));
            }
            let mut full = vec![Value::Null; schema.arity()];
            for (p, v) in positions.iter().zip(vals) {
                full[*p] = v;
            }
            planned.push(full);
        }
        planned
    };

    // Apply.
    let table = db.table_mut(&table_name)?;
    let mut inserted = 0usize;
    for row in planned {
        let id = table.insert(row)?;
        undo.push(UndoOp::Insert { database: database.clone(), table: table_name.clone(), id });
        inserted += 1;
    }
    Ok(inserted)
}

/// Executes an UPDATE; returns the number of rows changed.
pub fn execute_update(
    db: &mut Database,
    up: &Update,
    undo: &mut Vec<UndoOp>,
) -> Result<usize, DbError> {
    let (database, table_name) = check_local_table(&up.table, db)?;
    let binding_name = up.table.binding_name().to_ascii_lowercase();

    // Plan.
    let planned: Vec<(RowId, Row)> = {
        let dbr: &Database = db;
        let table = dbr.table(&table_name)?;
        let schema = &table.schema;
        let mut targets: Vec<usize> = Vec::with_capacity(up.assignments.len());
        for a in &up.assignments {
            let name = a
                .column
                .as_concrete()
                .ok_or_else(|| DbError::NotLocalSql(format!("wildcard column `{}`", a.column)))?;
            targets.push(
                schema
                    .column_index(name)
                    .ok_or_else(|| DbError::UnknownColumn(name.to_string()))?,
            );
        }
        let cache = SubqueryCache::new();
        let sources = [ScopeSource { binding: &binding_name, schema }];
        let scope = Scope { sources: &sources, parent: None };
        let binder = Binder::new(dbr, &cache, Some(&scope));
        let pred = up.where_clause.as_ref().map(|p| binder.bind(p));
        let values: Vec<Bound<'_>> = up.assignments.iter().map(|a| binder.bind(&a.value)).collect();
        let mut planned = Vec::new();
        for (id, row) in table.iter() {
            let frame = Frame::of(std::slice::from_ref(&row), None);
            if !pred.as_ref().map_or(Ok(true), |p| p.accepts(&frame))? {
                continue;
            }
            let mut new_row = row.clone();
            for (pos, value) in targets.iter().zip(&values) {
                new_row[*pos] = value.eval(&frame)?.into_owned();
            }
            planned.push((id, new_row));
        }
        planned
    };

    // Apply.
    let table = db.table_mut(&table_name)?;
    let mut changed = 0usize;
    for (id, new_row) in planned {
        let old = table.replace(id, new_row)?;
        undo.push(UndoOp::Update {
            database: database.clone(),
            table: table_name.clone(),
            id,
            old,
        });
        changed += 1;
    }
    Ok(changed)
}

/// Executes a DELETE; returns the number of rows removed.
pub fn execute_delete(
    db: &mut Database,
    del: &Delete,
    undo: &mut Vec<UndoOp>,
) -> Result<usize, DbError> {
    let (database, table_name) = check_local_table(&del.table, db)?;
    let binding_name = del.table.binding_name().to_ascii_lowercase();

    let victims: Vec<RowId> = {
        let dbr: &Database = db;
        let table = dbr.table(&table_name)?;
        let cache = SubqueryCache::new();
        let sources = [ScopeSource { binding: &binding_name, schema: &table.schema }];
        let scope = Scope { sources: &sources, parent: None };
        let pred =
            del.where_clause.as_ref().map(|p| Binder::new(dbr, &cache, Some(&scope)).bind(p));
        let mut victims = Vec::new();
        for (id, row) in table.iter() {
            let frame = Frame::of(std::slice::from_ref(&row), None);
            if pred.as_ref().map_or(Ok(true), |p| p.accepts(&frame))? {
                victims.push(id);
            }
        }
        victims
    };

    let table = db.table_mut(&table_name)?;
    let mut removed = 0usize;
    for id in victims {
        if let Some(row) = table.remove(id) {
            undo.push(UndoOp::Delete {
                database: database.clone(),
                table: table_name.clone(),
                id,
                row,
            });
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnSchema, TableSchema};
    use crate::table::Table;
    use crate::value::DataType;
    use msql_lang::{parse_statement, QueryBody, Statement};

    fn flights_db() -> Database {
        let mut db = Database::new("continental");
        let mut t = Table::new(TableSchema::new(
            "flights",
            vec![
                ColumnSchema::new("flnu", DataType::Int),
                ColumnSchema::new("source", DataType::Char(20)),
                ColumnSchema::new("destination", DataType::Char(20)),
                ColumnSchema::new("rate", DataType::Float),
            ],
        ));
        for (n, s, d, r) in [
            (1, "Houston", "San Antonio", 100.0),
            (2, "Houston", "Dallas", 80.0),
            (3, "Austin", "San Antonio", 60.0),
        ] {
            t.insert(vec![
                Value::Int(n),
                Value::Str(s.into()),
                Value::Str(d.into()),
                Value::Float(r),
            ])
            .unwrap();
        }
        db.insert_table(t);
        db
    }

    fn as_update(sql: &str) -> Update {
        let Statement::Query(q) = parse_statement(sql).unwrap() else { panic!() };
        let QueryBody::Update(u) = q.body else { panic!() };
        u
    }

    fn as_insert(sql: &str) -> Insert {
        let Statement::Query(q) = parse_statement(sql).unwrap() else { panic!() };
        let QueryBody::Insert(i) = q.body else { panic!() };
        i
    }

    fn as_delete(sql: &str) -> Delete {
        let Statement::Query(q) = parse_statement(sql).unwrap() else { panic!() };
        let QueryBody::Delete(d) = q.body else { panic!() };
        d
    }

    #[test]
    fn paper_update_raises_rates() {
        let mut db = flights_db();
        let mut undo = Vec::new();
        let up = as_update(
            "UPDATE flights SET rate = rate * 1.1
             WHERE source = 'Houston' AND destination = 'San Antonio'",
        );
        let n = execute_update(&mut db, &up, &mut undo).unwrap();
        assert_eq!(n, 1);
        assert_eq!(undo.len(), 1);
        let rows: Vec<&Row> = db.table("flights").unwrap().iter().map(|(_, r)| r).collect();
        assert_eq!(rows[0][3], Value::Float(100.0 * 1.1));
        assert_eq!(rows[1][3], Value::Float(80.0));
    }

    #[test]
    fn update_without_where_hits_all() {
        let mut db = flights_db();
        let mut undo = Vec::new();
        let up = as_update("UPDATE flights SET rate = 0");
        assert_eq!(execute_update(&mut db, &up, &mut undo).unwrap(), 3);
    }

    #[test]
    fn update_undo_restores_old_image() {
        let mut db = flights_db();
        let mut undo = Vec::new();
        let up = as_update("UPDATE flights SET rate = rate * 2 WHERE flnu = 1");
        execute_update(&mut db, &up, &mut undo).unwrap();
        let UndoOp::Update { old, .. } = &undo[0] else { panic!() };
        assert_eq!(old[3], Value::Float(100.0));
    }

    #[test]
    fn insert_values_with_column_list() {
        let mut db = flights_db();
        let mut undo = Vec::new();
        let ins = as_insert("INSERT INTO flights (flnu, rate) VALUES (9, 55.0)");
        assert_eq!(execute_insert(&mut db, &ins, &mut undo).unwrap(), 1);
        let rows: Vec<&Row> = db.table("flights").unwrap().iter().map(|(_, r)| r).collect();
        let last = rows.last().unwrap();
        assert_eq!(last[0], Value::Int(9));
        assert_eq!(last[1], Value::Null); // unlisted column defaults to NULL
        assert_eq!(last[3], Value::Float(55.0));
    }

    #[test]
    fn insert_select_copies_rows() {
        let mut db = flights_db();
        let mut t = Table::new(TableSchema::new(
            "archive",
            vec![
                ColumnSchema::new("flnu", DataType::Int),
                ColumnSchema::new("source", DataType::Char(20)),
                ColumnSchema::new("destination", DataType::Char(20)),
                ColumnSchema::new("rate", DataType::Float),
            ],
        ));
        t.insert(vec![Value::Int(0), Value::Null, Value::Null, Value::Null]).unwrap();
        db.insert_table(t);
        let mut undo = Vec::new();
        let ins = as_insert("INSERT INTO archive SELECT * FROM flights WHERE source = 'Houston'");
        assert_eq!(execute_insert(&mut db, &ins, &mut undo).unwrap(), 2);
        assert_eq!(db.table("archive").unwrap().len(), 3);
    }

    #[test]
    fn insert_arity_mismatch_is_atomic() {
        let mut db = flights_db();
        let mut undo = Vec::new();
        let ins = as_insert("INSERT INTO flights (flnu, rate) VALUES (9, 55.0, 1)");
        assert!(execute_insert(&mut db, &ins, &mut undo).is_err());
        assert!(undo.is_empty());
        assert_eq!(db.table("flights").unwrap().len(), 3);
    }

    #[test]
    fn delete_with_predicate() {
        let mut db = flights_db();
        let mut undo = Vec::new();
        let del = as_delete("DELETE FROM flights WHERE source = 'Houston'");
        assert_eq!(execute_delete(&mut db, &del, &mut undo).unwrap(), 2);
        assert_eq!(db.table("flights").unwrap().len(), 1);
        assert_eq!(undo.len(), 2);
    }

    #[test]
    fn update_with_scalar_subquery_reservation() {
        // §3.4 pattern: mark the lowest FREE seat TAKEN.
        let mut db = Database::new("continental");
        let mut t = Table::new(TableSchema::new(
            "f838",
            vec![
                ColumnSchema::new("seatnu", DataType::Int),
                ColumnSchema::new("seatstatus", DataType::Char(8)),
                ColumnSchema::new("clientname", DataType::Char(20)),
            ],
        ));
        for (n, st) in [(1, "TAKEN"), (2, "FREE"), (3, "FREE")] {
            t.insert(vec![Value::Int(n), Value::Str(st.into()), Value::Null]).unwrap();
        }
        db.insert_table(t);
        let mut undo = Vec::new();
        let up = as_update(
            "UPDATE f838 SET seatstatus = 'TAKEN', clientname = 'wenders'
             WHERE seatnu = (SELECT MIN(seatnu) FROM f838 WHERE seatstatus = 'FREE')",
        );
        assert_eq!(execute_update(&mut db, &up, &mut undo).unwrap(), 1);
        let rows: Vec<&Row> = db.table("f838").unwrap().iter().map(|(_, r)| r).collect();
        assert_eq!(rows[1][1], Value::Str("TAKEN".into()));
        assert_eq!(rows[1][2], Value::Str("wenders".into()));
        assert_eq!(rows[2][1], Value::Str("FREE".into()));
    }

    #[test]
    fn remote_table_is_rejected() {
        let mut db = flights_db();
        let mut undo = Vec::new();
        let up = as_update("UPDATE delta.flight SET rate = 1");
        assert!(matches!(execute_update(&mut db, &up, &mut undo), Err(DbError::NotLocalSql(_))));
    }

    #[test]
    fn wildcard_assignment_is_rejected() {
        let mut db = flights_db();
        let mut undo = Vec::new();
        let up = as_update("UPDATE flights SET rate% = 1");
        assert!(matches!(execute_update(&mut db, &up, &mut undo), Err(DbError::NotLocalSql(_))));
    }
}
