//! The engine facade: databases, sessions, transactions, 2PC.
//!
//! One [`Engine`] models one LDBMS *service* in the paper's sense — it hosts
//! one or more databases (per `CONNECTMODE`), executes local SQL, and exposes
//! whatever commit interface its [`DbmsProfile`] advertises. The
//! multidatabase layer never touches tables directly; it drives engines
//! through this API exactly the way a DOL `TASK` block drives a remote
//! service.

use crate::error::DbError;
use crate::exec::{analyze, ddl, dml, select};
use crate::failure::FailurePolicy;
use crate::profile::{DbmsProfile, StatementClass};
use crate::table::{Row, Table};
use crate::txn::{Transaction, TxnId, TxnState, UndoOp};
use crate::value::{DataType, Value};
use msql_lang::{parse_statement, QueryBody, Select, Statement};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

/// Output column metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMeta {
    /// Column display name.
    pub name: String,
    /// Best-effort data type.
    pub data_type: DataType,
}

/// A query result: column metadata plus rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    /// The output columns.
    pub columns: Vec<ColumnMeta>,
    /// The output rows.
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }
}

/// Where a SELECT's output rows go. The evaluator calls [`RowSink::begin`]
/// once, then [`RowSink::row`] for each output row in order, then
/// [`RowSink::finish`]; a statement that fails stops anywhere in between,
/// and its sink is dropped. A [`ResultSet`] collects the rows; a wire
/// codec's writer encodes each one as it comes, so a result set need not
/// exist between the engine and the network. The trait is object safe: the
/// evaluator runs one copy for every sink.
pub trait RowSink {
    /// The output columns, before any row: each name and the type static
    /// inference gave it. A `None` type is decided by the column's first
    /// non-null value, and arrives with [`RowSink::finish`].
    fn begin(&mut self, columns: &[(String, Option<DataType>)]);
    /// One output row, its values in column order. The sink may keep them;
    /// what it leaves is dropped with the drain.
    fn row(&mut self, values: std::vec::Drain<'_, Cow<'_, Value>>);
    /// After the last row: every column's name and final type.
    fn finish(&mut self, columns: Vec<ColumnMeta>);
}

/// The collecting sink: what [`crate::exec::select::execute_select`] and
/// [`Engine::execute`] return.
impl RowSink for ResultSet {
    fn begin(&mut self, _: &[(String, Option<DataType>)]) {}

    fn row(&mut self, values: std::vec::Drain<'_, Cow<'_, Value>>) {
        self.rows.push(values.map(Cow::into_owned).collect());
    }

    fn finish(&mut self, columns: Vec<ColumnMeta>) {
        self.columns = columns;
    }
}

/// Outcome of executing one statement: a SELECT's rows are in the sink it
/// ran into — a [`ResultSet`] unless the caller chose another.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome<R = ResultSet> {
    /// A SELECT produced rows.
    Rows(R),
    /// A DML/DDL statement affected this many rows.
    Affected(usize),
}

impl ExecOutcome {
    /// Unwraps a row outcome.
    pub fn into_result_set(self) -> Result<ResultSet, DbError> {
        match self {
            ExecOutcome::Rows(rs) => Ok(rs),
            ExecOutcome::Affected(_) => {
                Err(DbError::Internal("statement did not produce rows".into()))
            }
        }
    }
}

impl<R> ExecOutcome<R> {
    /// The outcome with a SELECT's rows replaced by `f` of them.
    fn map<T>(self, f: impl FnOnce(R) -> T) -> ExecOutcome<T> {
        match self {
            ExecOutcome::Rows(rows) => ExecOutcome::Rows(f(rows)),
            ExecOutcome::Affected(n) => ExecOutcome::Affected(n),
        }
    }

    /// Number of affected rows (0 for SELECT).
    pub fn affected(&self) -> usize {
        match self {
            ExecOutcome::Rows(_) => 0,
            ExecOutcome::Affected(n) => *n,
        }
    }
}

/// One named database hosted by a service: a set of tables.
#[derive(Debug, Default)]
pub struct Database {
    /// Database name (lowercase).
    pub name: String,
    tables: HashMap<String, Table>,
}

impl Database {
    /// Creates an empty database.
    pub fn new(name: impl Into<String>) -> Self {
        Database { name: name.into().to_ascii_lowercase(), tables: HashMap::new() }
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Result<&Table, DbError> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Looks up a table mutably.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, DbError> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Adds (or replaces) a table.
    pub fn insert_table(&mut self, table: Table) {
        self.tables.insert(table.schema.name.clone(), table);
    }

    /// Removes a table, returning it.
    pub fn remove_table(&mut self, name: &str) -> Result<Table, DbError> {
        self.tables
            .remove(&name.to_ascii_lowercase())
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Names of all tables, sorted (deterministic for IMPORT).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }
}

/// Execution statistics, used by benchmarks and the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Statements executed (any kind).
    pub statements: u64,
    /// Transactions committed (including autocommits).
    pub commits: u64,
    /// Transactions rolled back or failed.
    pub aborts: u64,
    /// Successful prepares (votes of YES).
    pub prepares: u64,
    /// Rows materialized by top-level SELECT scans and probes (subquery
    /// re-evaluation is not counted — it reuses the outer row sets).
    pub rows_scanned: u64,
    /// Candidate rows returned by index probes in top-level SELECTs.
    pub index_hits: u64,
}

/// Default number of terminal (committed/aborted) transactions retained for
/// idempotent resolve / at-most-once retry paths before being GC'd.
const DEFAULT_TERMINAL_RETENTION: usize = 256;

/// Condition-variable signal that lock waiters park on. The epoch increments
/// on every lock release, so a waiter that captured the epoch *before* a
/// failed acquisition attempt cannot miss the wake-up in between.
#[derive(Debug, Clone, Default)]
pub struct LockSignal {
    inner: Arc<(StdMutex<u64>, Condvar)>,
}

impl LockSignal {
    /// Current epoch; capture it before attempting an acquisition.
    pub fn epoch(&self) -> u64 {
        *self.inner.0.lock().unwrap()
    }

    /// Blocks until the epoch moves past `seen` or `timeout` elapses.
    pub fn wait_past(&self, seen: u64, timeout: Duration) {
        let (lock, cv) = &*self.inner;
        let deadline = Instant::now() + timeout;
        let mut epoch = lock.lock().unwrap();
        while *epoch <= seen {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            let (next, result) = cv.wait_timeout(epoch, deadline - now).unwrap();
            epoch = next;
            if result.timed_out() {
                return;
            }
        }
    }

    fn bump(&self) {
        let (lock, cv) = &*self.inner;
        *lock.lock().unwrap() += 1;
        cv.notify_all();
    }
}

/// One exclusive table lock: the holder plus a FIFO queue of waiters. A
/// release hands the lock directly to the front waiter (no barging).
#[derive(Debug)]
struct LockEntry {
    holder: TxnId,
    waiters: VecDeque<TxnId>,
}

/// A table's committed changesets, oldest first: `(commit_seq, undo ops)`.
type VersionChain = VecDeque<(u64, Vec<UndoOp>)>;

/// An LDBMS service: named databases plus transactional machinery.
#[derive(Debug)]
pub struct Engine {
    /// Service name (as registered in the Auxiliary Directory).
    pub service_name: String,
    /// Capability profile.
    pub profile: DbmsProfile,
    databases: HashMap<String, Database>,
    txns: HashMap<TxnId, Transaction>,
    locks: HashMap<(String, String), LockEntry>,
    failure: FailurePolicy,
    next_txn: TxnId,
    stats: EngineStats,
    last_access: Option<&'static str>,
    /// Terminal transactions in retirement order; older ones are GC'd.
    terminal: VecDeque<TxnId>,
    terminal_cap: usize,
    /// Transactions Active or Prepared (cheap horizon fast path).
    active_txns: usize,
    /// Deadlock victims rolled back by the detector, keyed to the table
    /// whose lock completed the cycle; the victim's session learns of its
    /// fate on its next statement.
    victims: HashMap<TxnId, String>,
    /// Monotonic commit sequence; a transaction's snapshot pins a value.
    commit_seq: u64,
    /// Committed row-level changesets per `(database, table)`, oldest
    /// first, kept while any live snapshot might still need them.
    versions: HashMap<(String, String), VersionChain>,
    signal: LockSignal,
}

impl Engine {
    /// Creates a service with the given profile and no databases.
    pub fn new(service_name: impl Into<String>, profile: DbmsProfile) -> Self {
        Engine {
            service_name: service_name.into(),
            profile,
            databases: HashMap::new(),
            txns: HashMap::new(),
            locks: HashMap::new(),
            failure: FailurePolicy::none(),
            next_txn: 1,
            stats: EngineStats::default(),
            last_access: None,
            terminal: VecDeque::new(),
            terminal_cap: DEFAULT_TERMINAL_RETENTION,
            active_txns: 0,
            victims: HashMap::new(),
            commit_seq: 0,
            versions: HashMap::new(),
            signal: LockSignal::default(),
        }
    }

    /// The lock-release signal; callers that received [`DbError::LockWait`]
    /// park on it (capturing the epoch *before* the attempt) and retry.
    pub fn lock_signal(&self) -> LockSignal {
        self.signal.clone()
    }

    /// Number of write locks currently held.
    pub fn held_locks(&self) -> usize {
        self.locks.len()
    }

    /// Number of transactions currently tracked (active plus the bounded
    /// terminal-retention window).
    pub fn tracked_txns(&self) -> usize {
        self.txns.len()
    }

    /// Overrides how many terminal transactions are retained before GC.
    pub fn set_terminal_retention(&mut self, cap: usize) {
        self.terminal_cap = cap.max(1);
    }

    /// Replaces the failure-injection policy.
    pub fn set_failure_policy(&mut self, policy: FailurePolicy) {
        self.failure = policy;
    }

    /// Mutable access to the failure policy (to arm per-table failures).
    pub fn failure_policy_mut(&mut self) -> &mut FailurePolicy {
        &mut self.failure
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The access path of the most recent statement: `Some("probe")` when at
    /// least one FROM source was served by an index, `Some("scan")` for a
    /// full-scan SELECT, `None` when the last statement was not a SELECT.
    pub fn last_access(&self) -> Option<&'static str> {
        self.last_access
    }

    /// Creates a database on this service, respecting `CONNECTMODE`.
    pub fn create_database(&mut self, name: &str) -> Result<(), DbError> {
        let lower = name.to_ascii_lowercase();
        if self.databases.contains_key(&lower) {
            return Err(DbError::AlreadyExists(lower));
        }
        if !self.profile.multi_database && !self.databases.is_empty() {
            return Err(DbError::Internal(format!(
                "service `{}` is CONNECTMODE NOCONNECT and already hosts its default database",
                self.service_name
            )));
        }
        self.databases.insert(lower.clone(), Database::new(lower));
        Ok(())
    }

    /// Drops a database.
    pub fn drop_database(&mut self, name: &str) -> Result<(), DbError> {
        self.databases
            .remove(&name.to_ascii_lowercase())
            .map(|_| ())
            .ok_or_else(|| DbError::UnknownDatabase(name.to_string()))
    }

    /// Immutable access to a database (used by IMPORT and tests).
    pub fn database(&self, name: &str) -> Result<&Database, DbError> {
        self.databases
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| DbError::UnknownDatabase(name.to_string()))
    }

    /// Mutable access to a database (fixtures/seeding).
    pub fn database_mut(&mut self, name: &str) -> Result<&mut Database, DbError> {
        self.databases
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| DbError::UnknownDatabase(name.to_string()))
    }

    /// Names of hosted databases, sorted.
    pub fn database_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.databases.keys().cloned().collect();
        names.sort();
        names
    }

    // ------------------------------------------------------------ autocommit

    /// Executes one SQL statement in autocommit mode: an implicit transaction
    /// that commits on success and rolls back on failure.
    pub fn execute(&mut self, database: &str, sql: &str) -> Result<ExecOutcome, DbError> {
        self.execute_with(database, sql, ResultSet::default())
    }

    /// [`Engine::execute`] with a SELECT's rows written into `sink`.
    pub fn execute_with<S: RowSink>(
        &mut self,
        database: &str,
        sql: &str,
        sink: S,
    ) -> Result<ExecOutcome<S>, DbError> {
        let stmt = parse_local_sql(sql)?;
        self.execute_stmt_with(database, &stmt, sink)
    }

    /// Executes a pre-parsed statement in autocommit mode, a SELECT's rows
    /// written into `sink`.
    fn execute_stmt_with<S: RowSink>(
        &mut self,
        database: &str,
        stmt: &Statement,
        mut sink: S,
    ) -> Result<ExecOutcome<S>, DbError> {
        let txn = self.begin();
        match self.run_stmt(txn, database, stmt, &mut sink) {
            Ok(out) => {
                self.commit(txn)?;
                Ok(out.map(|()| sink))
            }
            Err(e) => {
                let _ = self.rollback(txn);
                Err(e)
            }
        }
    }

    // ---------------------------------------------------------- transactions

    /// Starts an explicit transaction. Its snapshot pins the current commit
    /// sequence: reads inside the transaction see exactly the state
    /// committed so far plus its own writes.
    pub fn begin(&mut self) -> TxnId {
        let id = self.next_txn;
        self.next_txn += 1;
        let mut t = Transaction::new(id);
        t.snapshot = self.commit_seq;
        self.txns.insert(id, t);
        self.active_txns += 1;
        id
    }

    /// Executes one SQL statement inside a transaction.
    pub fn execute_in(
        &mut self,
        txn: TxnId,
        database: &str,
        sql: &str,
    ) -> Result<ExecOutcome, DbError> {
        self.execute_in_with(txn, database, sql, ResultSet::default())
    }

    /// [`Engine::execute_in`] with a SELECT's rows written into `sink`.
    pub fn execute_in_with<S: RowSink>(
        &mut self,
        txn: TxnId,
        database: &str,
        sql: &str,
        mut sink: S,
    ) -> Result<ExecOutcome<S>, DbError> {
        let stmt = parse_local_sql(sql)?;
        Ok(self.run_stmt(txn, database, &stmt, &mut sink)?.map(|()| sink))
    }

    /// The one way a statement runs, inside `txn`: a SELECT reads the
    /// transaction's snapshot, through the same overlays whatever the sink.
    fn run_stmt(
        &mut self,
        txn: TxnId,
        database: &str,
        stmt: &Statement,
        sink: &mut dyn RowSink,
    ) -> Result<ExecOutcome<()>, DbError> {
        // A deadlock victim learns of its fate here: the detector already
        // rolled the transaction back (releasing its locks), so the next
        // statement fails with the retriable error instead of a confusing
        // state mismatch.
        if let Some(table) = self.victims.remove(&txn) {
            return Err(DbError::Deadlock { table });
        }
        self.require_state(txn, TxnState::Active, "execute in")?;
        self.stats.statements += 1;
        self.last_access = None;
        let dbname = database.to_ascii_lowercase();
        if let Statement::Query(q) = stmt {
            if let QueryBody::Select(sel) = &q.body {
                self.select_in(txn, &dbname, sel, sink)?;
                return Ok(ExecOutcome::Rows(()));
            }
        }
        self.execute_change(txn, dbname, stmt).map(ExecOutcome::Affected)
    }

    /// Runs a SELECT inside `txn` into `sink`.
    fn select_in(
        &mut self,
        txn: TxnId,
        dbname: &str,
        sel: &Select,
        sink: &mut dyn RowSink,
    ) -> Result<(), DbError> {
        let stats = select::AccessStats::default();
        let snapshot = self.txns.get(&txn).map_or(self.commit_seq, |t| t.snapshot);
        let overlays = self.snapshot_overlays(dbname, txn, snapshot);
        if overlays.is_empty() {
            // Fast path: nothing changed since the snapshot — read the live
            // tables zero-copy.
            let db = self.database(dbname)?;
            select::select_into(db, sel, &stats, sink)?;
        } else {
            // Swap reconstructed snapshot tables in, run the SELECT, swap
            // the live tables back (even on error).
            let db = self
                .databases
                .get_mut(dbname)
                .ok_or_else(|| DbError::UnknownDatabase(dbname.to_string()))?;
            let mut saved = Vec::with_capacity(overlays.len());
            for (name, snap_table) in overlays {
                if let Ok(slot) = db.table_mut(&name) {
                    saved.push((name, std::mem::replace(slot, snap_table)));
                }
            }
            let result = select::select_into(db, sel, &stats, sink);
            for (name, live) in saved {
                if let Ok(slot) = db.table_mut(&name) {
                    *slot = live;
                }
            }
            result?;
        }
        self.stats.rows_scanned += stats.rows_scanned.get();
        self.stats.index_hits += stats.index_hits.get();
        self.last_access = Some(if stats.probed.get() { "probe" } else { "scan" });
        Ok(())
    }

    /// Runs a statement that is not a SELECT inside `txn`: the rows it
    /// affected.
    fn execute_change(
        &mut self,
        txn: TxnId,
        dbname: String,
        stmt: &Statement,
    ) -> Result<usize, DbError> {
        match stmt {
            Statement::Query(q) => match &q.body {
                QueryBody::Select(_) => unreachable!("a SELECT runs into its sink"),
                QueryBody::Insert(ins) => {
                    let table = ins.table.table.as_str().to_string();
                    let fresh = self.write_guard(txn, &dbname, &table)?;
                    let mut undo = Vec::new();
                    let db = self
                        .databases
                        .get_mut(&dbname)
                        .ok_or_else(|| DbError::UnknownDatabase(dbname.clone()))?;
                    let out = dml::execute_insert(db, ins, &mut undo);
                    self.absorb_stmt_undo(txn, undo, &out);
                    if out.is_err() && fresh {
                        self.release_failed_lock(txn, &dbname, &table);
                    }
                    out
                }
                QueryBody::Update(up) => {
                    let table = up.table.table.as_str().to_string();
                    let fresh = self.write_guard(txn, &dbname, &table)?;
                    let mut undo = Vec::new();
                    let db = self
                        .databases
                        .get_mut(&dbname)
                        .ok_or_else(|| DbError::UnknownDatabase(dbname.clone()))?;
                    let out = dml::execute_update(db, up, &mut undo);
                    self.absorb_stmt_undo(txn, undo, &out);
                    if out.is_err() && fresh {
                        self.release_failed_lock(txn, &dbname, &table);
                    }
                    out
                }
                QueryBody::Delete(del) => {
                    let table = del.table.table.as_str().to_string();
                    let fresh = self.write_guard(txn, &dbname, &table)?;
                    let mut undo = Vec::new();
                    let db = self
                        .databases
                        .get_mut(&dbname)
                        .ok_or_else(|| DbError::UnknownDatabase(dbname.clone()))?;
                    let out = dml::execute_delete(db, del, &mut undo);
                    self.absorb_stmt_undo(txn, undo, &out);
                    if out.is_err() && fresh {
                        self.release_failed_lock(txn, &dbname, &table);
                    }
                    out
                }
            },
            Statement::CreateTable(ct) => {
                let table = ct.table.table.as_str().to_string();
                self.ddl_prologue(txn);
                self.write_guard(txn, &dbname, &table)?;
                let log_undo = self.profile.ddl_rollbackable;
                let db = self
                    .databases
                    .get_mut(&dbname)
                    .ok_or_else(|| DbError::UnknownDatabase(dbname.clone()))?;
                let mut undo = Vec::new();
                let out = ddl::execute_create_table(db, ct, log_undo.then_some(&mut undo));
                self.absorb_stmt_undo(
                    txn,
                    undo,
                    &out.as_ref().map(|_| 0usize).map_err(Clone::clone),
                );
                out.map(|_| 0)
            }
            Statement::DropTable(dt) => {
                let table = dt.table.table.as_str().to_string();
                self.ddl_prologue(txn);
                self.write_guard(txn, &dbname, &table)?;
                let log_undo = self.profile.ddl_rollbackable;
                let db = self
                    .databases
                    .get_mut(&dbname)
                    .ok_or_else(|| DbError::UnknownDatabase(dbname.clone()))?;
                let mut undo = Vec::new();
                let out = ddl::execute_drop_table(db, dt, log_undo.then_some(&mut undo));
                self.absorb_stmt_undo(
                    txn,
                    undo,
                    &out.as_ref().map(|_| 0usize).map_err(Clone::clone),
                );
                out.map(|_| 0)
            }
            Statement::CreateIndex(ci) => {
                let table = ci.table.table.as_str().to_string();
                self.ddl_prologue(txn);
                self.write_guard(txn, &dbname, &table)?;
                let log_undo = self.profile.ddl_rollbackable;
                let db = self
                    .databases
                    .get_mut(&dbname)
                    .ok_or_else(|| DbError::UnknownDatabase(dbname.clone()))?;
                let mut undo = Vec::new();
                let out = ddl::execute_create_index(db, ci, log_undo.then_some(&mut undo));
                self.absorb_stmt_undo(
                    txn,
                    undo,
                    &out.as_ref().map(|_| 0usize).map_err(Clone::clone),
                );
                out.map(|_| 0)
            }
            Statement::DropIndex(di) => {
                let table = di.table.table.as_str().to_string();
                self.ddl_prologue(txn);
                self.write_guard(txn, &dbname, &table)?;
                let log_undo = self.profile.ddl_rollbackable;
                let db = self
                    .databases
                    .get_mut(&dbname)
                    .ok_or_else(|| DbError::UnknownDatabase(dbname.clone()))?;
                let mut undo = Vec::new();
                let out = ddl::execute_drop_index(db, di, log_undo.then_some(&mut undo));
                self.absorb_stmt_undo(
                    txn,
                    undo,
                    &out.as_ref().map(|_| 0usize).map_err(Clone::clone),
                );
                out.map(|_| 0)
            }
            Statement::Analyze(target) => {
                // ANALYZE is DDL-shaped: it triggers the profile's implicit
                // commit, takes the table locks of its targets, and is
                // undoable exactly when the profile rolls DDL back.
                self.ddl_prologue(txn);
                let tables = analyze::resolve_targets(self.database(&dbname)?, target.as_ref())?;
                let log_undo = self.profile.ddl_rollbackable;
                let mut undo = Vec::new();
                let mut result: Result<usize, DbError> = Ok(tables.len());
                for table in &tables {
                    if let Err(e) = self.write_guard(txn, &dbname, table) {
                        result = Err(e);
                        break;
                    }
                    let db = match self.databases.get_mut(&dbname) {
                        Some(db) => db,
                        None => {
                            result = Err(DbError::UnknownDatabase(dbname.clone()));
                            break;
                        }
                    };
                    if let Err(e) =
                        analyze::execute_analyze_table(db, table, log_undo.then_some(&mut undo))
                    {
                        result = Err(e);
                        break;
                    }
                }
                self.absorb_stmt_undo(txn, undo, &result);
                result
            }
            Statement::CreateDatabase(name) => {
                self.ddl_prologue(txn);
                self.create_database(name)?;
                Ok(0)
            }
            Statement::DropDatabase(name) => {
                self.ddl_prologue(txn);
                self.drop_database(name)?;
                Ok(0)
            }
            other => Err(DbError::NotLocalSql(format!(
                "statement is handled at the multidatabase level: {other:?}"
            ))),
        }
    }

    /// Injected-failure and lock check before a write statement. The failure
    /// check runs before any mutation, so a failed statement has no effects.
    ///
    /// Returns `Ok(true)` when the lock was acquired by this call (so a
    /// failed statement can release it again), `Ok(false)` when it was
    /// already held. On conflict the transaction is enqueued behind the
    /// holder and the waits-for graph is checked: if the new edge closes a
    /// cycle, the youngest cycle member is rolled back — with
    /// [`DbError::Deadlock`] if that is the requester itself, otherwise the
    /// victim is marked and the requester gets [`DbError::LockWait`] like
    /// any other blocked statement.
    fn write_guard(&mut self, txn: TxnId, dbname: &str, table: &str) -> Result<bool, DbError> {
        if let Some(reason) = self.failure.check_statement(table) {
            return Err(DbError::InjectedFailure(reason));
        }
        let key = (dbname.to_string(), table.to_ascii_lowercase());
        match self.locks.get_mut(&key) {
            None => {
                self.locks.insert(key.clone(), LockEntry { holder: txn, waiters: VecDeque::new() });
                if let Some(t) = self.txns.get_mut(&txn) {
                    t.locks.push(key);
                }
                Ok(true)
            }
            Some(entry) if entry.holder == txn => Ok(false),
            Some(entry) => {
                if !entry.waiters.contains(&txn) {
                    entry.waiters.push_back(txn);
                }
                if let Some(victim) = self.find_deadlock_victim(txn) {
                    if victim == txn {
                        let _ = self.rollback(txn);
                        return Err(DbError::Deadlock { table: table.to_string() });
                    }
                    let _ = self.rollback(victim);
                    self.victims.insert(victim, key.1.clone());
                    // The victim's released locks may have been handed
                    // straight to us.
                    if self.locks.get(&key).is_some_and(|e| e.holder == txn) {
                        return Ok(true);
                    }
                }
                Err(DbError::LockWait { table: table.to_string() })
            }
        }
    }

    /// DFS over the waits-for graph (waiter → holder plus waiter → earlier
    /// queue members, since FIFO handoff makes those block it too) looking
    /// for a cycle through `start`. Returns the youngest (largest-id)
    /// member of the first cycle found — the designated victim.
    fn find_deadlock_victim(&self, start: TxnId) -> Option<TxnId> {
        fn blockers(engine: &Engine, of: TxnId, out: &mut Vec<TxnId>) {
            for entry in engine.locks.values() {
                if let Some(pos) = entry.waiters.iter().position(|w| *w == of) {
                    out.push(entry.holder);
                    out.extend(entry.waiters.iter().take(pos).copied());
                }
            }
        }
        fn dfs(
            engine: &Engine,
            start: TxnId,
            node: TxnId,
            path: &mut Vec<TxnId>,
            visited: &mut HashSet<TxnId>,
        ) -> bool {
            let mut next = Vec::new();
            blockers(engine, node, &mut next);
            for n in next {
                if n == start {
                    return true;
                }
                if visited.insert(n) {
                    path.push(n);
                    if dfs(engine, start, n, path, visited) {
                        return true;
                    }
                    path.pop();
                }
            }
            false
        }
        let mut path = vec![start];
        let mut visited = HashSet::new();
        if dfs(self, start, start, &mut path, &mut visited) {
            // Prepared transactions are exempt: they voted YES in 2PC and
            // only their coordinator may decide their fate. `start` itself
            // is requesting a lock, so it is Active and always eligible —
            // the fallback can never leave a cycle unbroken.
            let eligible =
                |id: &TxnId| self.txns.get(id).is_none_or(|t| t.state != TxnState::Prepared);
            path.iter().copied().filter(eligible).max().or(Some(start))
        } else {
            None
        }
    }

    /// Removes a transaction from every wait queue (it gave up waiting or
    /// terminated). Queues thereby only ever hold live waiters, so a lock
    /// handoff can never promote a dead transaction.
    pub fn cancel_wait(&mut self, txn: TxnId) {
        for entry in self.locks.values_mut() {
            entry.waiters.retain(|w| *w != txn);
        }
    }

    /// Releases one lock, handing it directly to the next queued waiter
    /// (which then owns it without re-requesting) or dropping the entry.
    fn release_lock(&mut self, key: &(String, String)) {
        let Some(entry) = self.locks.get_mut(key) else { return };
        match entry.waiters.pop_front() {
            Some(next) => {
                entry.holder = next;
                if let Some(t) = self.txns.get_mut(&next) {
                    t.locks.push(key.clone());
                }
            }
            None => {
                self.locks.remove(key);
            }
        }
    }

    /// Statement-level atomicity for locks: a statement that failed after
    /// freshly acquiring a table lock gives it back, since the error path
    /// already removed all its effects.
    fn release_failed_lock(&mut self, txn: TxnId, dbname: &str, table: &str) {
        let key = (dbname.to_string(), table.to_ascii_lowercase());
        if self.locks.get(&key).map(|e| e.holder) != Some(txn) {
            return;
        }
        if let Some(t) = self.txns.get_mut(&txn) {
            t.locks.retain(|k| k != &key);
        }
        self.release_lock(&key);
        self.signal.bump();
    }

    /// Models Oracle-style "DDL commits all previously issued uncommitted
    /// statements": the prior work becomes permanent — its undo is
    /// installed as a committed changeset for snapshot readers, its write
    /// locks are released (handing them to waiting sessions), and the
    /// implicit commit is accounted in `stats`. Runs *before* the DDL
    /// statement acquires its own lock, so only prior locks are released.
    fn ddl_prologue(&mut self, txn: TxnId) {
        if !self.profile.ddl_autocommits_prior {
            return;
        }
        let Some(t) = self.txns.get_mut(&txn) else { return };
        let undo = std::mem::take(&mut t.undo);
        let locks = std::mem::take(&mut t.locks);
        if undo.is_empty() && locks.is_empty() {
            return;
        }
        self.install_versions(undo);
        for key in &locks {
            self.release_lock(key);
        }
        self.signal.bump();
        self.stats.commits += 1;
        self.prune_versions();
    }

    fn absorb_stmt_undo<T>(
        &mut self,
        txn: TxnId,
        mut undo: Vec<UndoOp>,
        outcome: &Result<T, DbError>,
    ) {
        match outcome {
            Ok(_) => {
                if let Some(t) = self.txns.get_mut(&txn) {
                    t.undo.append(&mut undo);
                }
            }
            Err(_) => {
                // Statement-level atomicity: undo partial effects immediately.
                self.apply_undo(undo);
            }
        }
    }

    /// Votes to commit: Active → Prepared. Only 2PC-capable profiles expose
    /// this; an injected prepare failure aborts the transaction.
    pub fn prepare(&mut self, txn: TxnId) -> Result<(), DbError> {
        if !self.profile.supports_2pc {
            return Err(DbError::TwoPhaseNotSupported(self.service_name.clone()));
        }
        self.require_state(txn, TxnState::Active, "prepare")?;
        if let Some(reason) = self.failure.check_prepare() {
            self.rollback(txn)?;
            return Err(DbError::InjectedFailure(reason));
        }
        // Drop any stale wait-queue entries: a prepared transaction runs no
        // further statements, so a later lock handoff to it would strand the
        // lock until the coordinator settles the branch.
        self.cancel_wait(txn);
        self.txns.get_mut(&txn).unwrap().state = TxnState::Prepared;
        self.stats.prepares += 1;
        Ok(())
    }

    /// Commits a transaction (from Active for one-phase, or Prepared for the
    /// second phase of 2PC). Installs the transaction's row-level changes as
    /// a committed version atomically under the engine lock, then hands its
    /// write locks to waiting sessions.
    pub fn commit(&mut self, txn: TxnId) -> Result<(), DbError> {
        let t = self.txns.get_mut(&txn).ok_or(DbError::UnknownTransaction(txn))?;
        match t.state {
            TxnState::Active | TxnState::Prepared => {
                t.state = TxnState::Committed;
                let undo = std::mem::take(&mut t.undo);
                let locks = std::mem::take(&mut t.locks);
                self.install_versions(undo);
                for key in &locks {
                    self.release_lock(key);
                }
                self.cancel_wait(txn);
                self.victims.remove(&txn);
                self.signal.bump();
                self.stats.commits += 1;
                self.active_txns -= 1;
                self.retire(txn);
                self.prune_versions();
                Ok(())
            }
            state => Err(DbError::InvalidTxnState { action: "commit", state: state.name() }),
        }
    }

    /// Rolls a transaction back (from Active or Prepared), restoring all
    /// undone state before its locks are handed over.
    pub fn rollback(&mut self, txn: TxnId) -> Result<(), DbError> {
        let t = self.txns.get_mut(&txn).ok_or(DbError::UnknownTransaction(txn))?;
        match t.state {
            TxnState::Active | TxnState::Prepared => {
                t.state = TxnState::Aborted;
                let undo = std::mem::take(&mut t.undo);
                let locks = std::mem::take(&mut t.locks);
                self.apply_undo(undo);
                for key in &locks {
                    self.release_lock(key);
                }
                self.cancel_wait(txn);
                self.victims.remove(&txn);
                self.signal.bump();
                self.stats.aborts += 1;
                self.active_txns -= 1;
                self.retire(txn);
                self.prune_versions();
                Ok(())
            }
            state => Err(DbError::InvalidTxnState { action: "rollback", state: state.name() }),
        }
    }

    /// Bounded terminal-transaction retention: the most recent
    /// `terminal_cap` committed/aborted transactions stay queryable (for
    /// idempotent resolve / at-most-once retry paths); older ones are GC'd
    /// so `txns` stays flat over a long session.
    fn retire(&mut self, txn: TxnId) {
        self.terminal.push_back(txn);
        while self.terminal.len() > self.terminal_cap {
            if let Some(old) = self.terminal.pop_front() {
                self.txns.remove(&old);
                self.victims.remove(&old);
            }
        }
    }

    /// Retains a committed transaction's row-level undo as a versioned
    /// changeset so snapshot readers can reconstruct earlier table states.
    /// Structural (DDL) operations are not versioned: schema changes become
    /// visible to every snapshot immediately (see DESIGN.md §3a.6).
    fn install_versions(&mut self, undo: Vec<UndoOp>) {
        if undo.is_empty() {
            return;
        }
        let mut per_table: HashMap<(Arc<str>, Arc<str>), Vec<UndoOp>> = HashMap::new();
        for op in undo {
            let key = match &op {
                UndoOp::Insert { database, table, .. }
                | UndoOp::Delete { database, table, .. }
                | UndoOp::Update { database, table, .. } => (database.clone(), table.clone()),
                _ => continue,
            };
            per_table.entry(key).or_default().push(op);
        }
        if per_table.is_empty() {
            return;
        }
        self.commit_seq += 1;
        let ts = self.commit_seq;
        for ((database, table), ops) in per_table {
            let key = (database.to_string(), table.to_string());
            self.versions.entry(key).or_default().push_back((ts, ops));
        }
    }

    /// Drops version changesets no live snapshot can still need: the GC
    /// horizon is the oldest snapshot among Active/Prepared transactions.
    /// With no readers in flight everything goes — the common serial case
    /// keeps the version store empty.
    fn prune_versions(&mut self) {
        if self.versions.is_empty() {
            return;
        }
        if self.active_txns == 0 {
            self.versions.clear();
            return;
        }
        let horizon = self
            .txns
            .values()
            .filter(|t| !t.state.is_terminal())
            .map(|t| t.snapshot)
            .min()
            .unwrap_or(self.commit_seq);
        self.versions.retain(|_, chain| {
            chain.retain(|(ts, _)| *ts > horizon);
            !chain.is_empty()
        });
    }

    /// Reconstructs, for each table of `dbname` whose live contents differ
    /// from what `reader`'s snapshot should observe, a copy rolled back to
    /// that snapshot: an uncommitted writer's effects are undone first
    /// (they are the newest), then committed changesets newer than the
    /// snapshot, newest first. Tables untouched since the snapshot — the
    /// common case — produce no overlay and are read zero-copy. Tables the
    /// reader itself has write-locked are skipped entirely:
    /// read-your-own-writes takes precedence over the snapshot there.
    fn snapshot_overlays(
        &self,
        dbname: &str,
        reader: TxnId,
        snapshot: u64,
    ) -> Vec<(String, Table)> {
        if self.locks.is_empty() && self.versions.is_empty() {
            return Vec::new();
        }
        let mine = |table: &str| {
            self.locks
                .get(&(dbname.to_string(), table.to_string()))
                .is_some_and(|e| e.holder == reader)
        };
        let mut names: BTreeSet<&str> = BTreeSet::new();
        for ((db, table), entry) in &self.locks {
            if db == dbname && entry.holder != reader {
                if let Some(t) = self.txns.get(&entry.holder) {
                    if !t.state.is_terminal() && !t.undo.is_empty() {
                        names.insert(table);
                    }
                }
            }
        }
        for ((db, table), chain) in &self.versions {
            if db == dbname && chain.back().is_some_and(|(ts, _)| *ts > snapshot) && !mine(table) {
                names.insert(table);
            }
        }
        if names.is_empty() {
            return Vec::new();
        }
        let Some(db) = self.databases.get(dbname) else { return Vec::new() };
        let mut out = Vec::new();
        for name in names {
            let Ok(live) = db.table(name) else { continue };
            let mut snap = live.clone();
            if let Some(entry) = self.locks.get(&(dbname.to_string(), name.to_string())) {
                if entry.holder != reader {
                    if let Some(t) = self.txns.get(&entry.holder) {
                        if !t.state.is_terminal() {
                            undo_rows_on_table(&mut snap, &t.undo, dbname, name);
                        }
                    }
                }
            }
            if let Some(chain) = self.versions.get(&(dbname.to_string(), name.to_string())) {
                for (ts, ops) in chain.iter().rev() {
                    if *ts > snapshot {
                        undo_rows_on_table(&mut snap, ops, dbname, name);
                    }
                }
            }
            out.push((name.to_string(), snap));
        }
        out
    }

    /// The observable state of a transaction.
    pub fn txn_state(&self, txn: TxnId) -> Result<TxnState, DbError> {
        self.txns.get(&txn).map(|t| t.state).ok_or(DbError::UnknownTransaction(txn))
    }

    /// Transactions still sitting in the prepared state, in id order. After
    /// coordinator recovery this must be empty — a non-empty list means an
    /// in-doubt subtransaction was orphaned (it holds locks forever).
    pub fn prepared_txns(&self) -> Vec<TxnId> {
        let mut out: Vec<TxnId> = self
            .txns
            .iter()
            .filter(|(_, t)| t.state == TxnState::Prepared)
            .map(|(id, _)| *id)
            .collect();
        out.sort_unstable();
        out
    }

    fn require_state(
        &self,
        txn: TxnId,
        expected: TxnState,
        action: &'static str,
    ) -> Result<(), DbError> {
        let t = self.txns.get(&txn).ok_or(DbError::UnknownTransaction(txn))?;
        if t.state != expected {
            return Err(DbError::InvalidTxnState { action, state: t.state.name() });
        }
        Ok(())
    }

    /// Applies undo operations newest-first.
    fn apply_undo(&mut self, undo: Vec<UndoOp>) {
        for op in undo.into_iter().rev() {
            match op {
                UndoOp::Insert { database, table, id } => {
                    if let Some(db) = self.databases.get_mut(&*database) {
                        if let Ok(t) = db.table_mut(&table) {
                            t.remove(id);
                        }
                    }
                }
                UndoOp::Delete { database, table, id, row } => {
                    if let Some(db) = self.databases.get_mut(&*database) {
                        if let Ok(t) = db.table_mut(&table) {
                            t.restore(id, row);
                        }
                    }
                }
                UndoOp::Update { database, table, id, old } => {
                    if let Some(db) = self.databases.get_mut(&*database) {
                        if let Ok(t) = db.table_mut(&table) {
                            let _ = t.replace(id, old);
                        }
                    }
                }
                UndoOp::CreateTable { database, table } => {
                    if let Some(db) = self.databases.get_mut(&database) {
                        let _ = db.remove_table(&table);
                    }
                }
                UndoOp::DropTable { database, table } => {
                    if let Some(db) = self.databases.get_mut(&database) {
                        db.insert_table(*table);
                    }
                }
                UndoOp::CreateIndex { database, table, name } => {
                    if let Some(db) = self.databases.get_mut(&database) {
                        if let Ok(t) = db.table_mut(&table) {
                            let _ = t.drop_index(&name);
                        }
                    }
                }
                UndoOp::DropIndex { database, table, def } => {
                    if let Some(db) = self.databases.get_mut(&database) {
                        if let Ok(t) = db.table_mut(&table) {
                            // Rebuilds the key map from the table contents,
                            // which the surrounding undo replay has already
                            // restored (newest-first order).
                            let _ = t.create_index(def);
                        }
                    }
                }
                UndoOp::Analyze { database, table, prev, prev_staleness } => {
                    if let Some(db) = self.databases.get_mut(&database) {
                        if let Ok(t) = db.table_mut(&table) {
                            t.restore_stats(prev.map(|b| *b), prev_staleness);
                        }
                    }
                }
            }
        }
    }

    /// Commit capability this service advertises for a statement class.
    pub fn capability_for(&self, class: StatementClass) -> msql_lang::CommitCapability {
        self.profile.capability_for(class)
    }
}

/// Applies the row-level operations of an undo slice (newest first) to a
/// detached table copy, skipping structural operations and entries for
/// other tables. Used to roll a cloned table back to a snapshot state.
fn undo_rows_on_table(table: &mut Table, undo: &[UndoOp], database: &str, name: &str) {
    for op in undo.iter().rev() {
        match op {
            UndoOp::Insert { database: d, table: t, id } if **d == *database && **t == *name => {
                table.remove(*id);
            }
            UndoOp::Delete { database: d, table: t, id, row }
                if **d == *database && **t == *name =>
            {
                table.restore(*id, row.clone());
            }
            UndoOp::Update { database: d, table: t, id, old }
                if **d == *database && **t == *name =>
            {
                let _ = table.replace(*id, old.clone());
            }
            _ => {}
        }
    }
}

/// Parses SQL and checks it is *local*: no USE/LET/COMP attachments.
fn parse_local_sql(sql: &str) -> Result<Statement, DbError> {
    let stmt = parse_statement(sql)?;
    if let Statement::Query(q) = &stmt {
        if q.use_clause.is_some() || !q.lets.is_empty() || !q.comps.is_empty() {
            return Err(DbError::NotLocalSql(
                "USE/LET/COMP clauses must be resolved by the multidatabase layer".into(),
            ));
        }
    }
    Ok(stmt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn engine_with_cars(profile: DbmsProfile) -> Engine {
        let mut e = Engine::new("svc", profile);
        e.create_database("avis").unwrap();
        e.execute("avis", "CREATE TABLE cars (code INT, rate FLOAT, carst CHAR(10))").unwrap();
        e.execute("avis", "INSERT INTO cars VALUES (1, 40.0, 'available')").unwrap();
        e.execute("avis", "INSERT INTO cars VALUES (2, 60.0, 'rented')").unwrap();
        e
    }

    #[test]
    fn autocommit_select_and_update() {
        let mut e = engine_with_cars(DbmsProfile::oracle_like());
        let out = e.execute("avis", "UPDATE cars SET rate = rate * 2 WHERE code = 1").unwrap();
        assert_eq!(out.affected(), 1);
        let rs = e
            .execute("avis", "SELECT rate FROM cars WHERE code = 1")
            .unwrap()
            .into_result_set()
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Float(80.0));
    }

    #[test]
    fn explicit_txn_rollback_restores_state() {
        let mut e = engine_with_cars(DbmsProfile::oracle_like());
        let txn = e.begin();
        e.execute_in(txn, "avis", "UPDATE cars SET rate = 0").unwrap();
        e.execute_in(txn, "avis", "INSERT INTO cars VALUES (3, 10.0, 'available')").unwrap();
        e.execute_in(txn, "avis", "DELETE FROM cars WHERE code = 2").unwrap();
        e.rollback(txn).unwrap();
        let rs = e
            .execute("avis", "SELECT code, rate FROM cars ORDER BY code")
            .unwrap()
            .into_result_set()
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0], vec![Value::Int(1), Value::Float(40.0)]);
        assert_eq!(rs.rows[1], vec![Value::Int(2), Value::Float(60.0)]);
        assert_eq!(e.txn_state(txn).unwrap(), TxnState::Aborted);
    }

    #[test]
    fn two_phase_commit_happy_path() {
        let mut e = engine_with_cars(DbmsProfile::oracle_like());
        let txn = e.begin();
        e.execute_in(txn, "avis", "UPDATE cars SET rate = 99 WHERE code = 1").unwrap();
        e.prepare(txn).unwrap();
        assert_eq!(e.txn_state(txn).unwrap(), TxnState::Prepared);
        e.commit(txn).unwrap();
        assert_eq!(e.txn_state(txn).unwrap(), TxnState::Committed);
        let rs = e
            .execute("avis", "SELECT rate FROM cars WHERE code = 1")
            .unwrap()
            .into_result_set()
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Float(99.0));
    }

    #[test]
    fn prepared_transaction_can_still_roll_back() {
        let mut e = engine_with_cars(DbmsProfile::oracle_like());
        let txn = e.begin();
        e.execute_in(txn, "avis", "UPDATE cars SET rate = 99 WHERE code = 1").unwrap();
        e.prepare(txn).unwrap();
        e.rollback(txn).unwrap();
        let rs = e
            .execute("avis", "SELECT rate FROM cars WHERE code = 1")
            .unwrap()
            .into_result_set()
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Float(40.0));
    }

    #[test]
    fn autocommit_only_profile_rejects_prepare() {
        let mut e = engine_with_cars(DbmsProfile::autocommit_only());
        let txn = e.begin();
        e.execute_in(txn, "avis", "UPDATE cars SET rate = 1 WHERE code = 1").unwrap();
        assert!(matches!(e.prepare(txn), Err(DbError::TwoPhaseNotSupported(_))));
    }

    #[test]
    fn terminal_states_reject_further_transitions() {
        let mut e = engine_with_cars(DbmsProfile::oracle_like());
        let txn = e.begin();
        e.commit(txn).unwrap();
        assert!(matches!(e.rollback(txn), Err(DbError::InvalidTxnState { .. })));
        assert!(matches!(e.commit(txn), Err(DbError::InvalidTxnState { .. })));
        assert!(matches!(e.prepare(txn), Err(DbError::InvalidTxnState { .. })));
    }

    #[test]
    fn lock_conflict_between_transactions() {
        let mut e = engine_with_cars(DbmsProfile::oracle_like());
        let t1 = e.begin();
        let t2 = e.begin();
        e.execute_in(t1, "avis", "UPDATE cars SET rate = 1 WHERE code = 1").unwrap();
        let err = e.execute_in(t2, "avis", "UPDATE cars SET rate = 2 WHERE code = 2");
        assert!(matches!(err, Err(DbError::LockWait { .. })));
        // t1's termination hands the lock straight to the enqueued t2.
        e.rollback(t1).unwrap();
        e.execute_in(t2, "avis", "UPDATE cars SET rate = 2 WHERE code = 2").unwrap();
        e.commit(t2).unwrap();
        assert_eq!(e.held_locks(), 0, "all locks released after both txns end");
    }

    #[test]
    fn deadlock_rolls_back_youngest_and_is_retriable() {
        let mut e = engine_with_cars(DbmsProfile::oracle_like());
        e.execute("avis", "CREATE TABLE vans (code INT, rate FLOAT)").unwrap();
        e.execute("avis", "INSERT INTO vans VALUES (1, 30.0)").unwrap();
        let t1 = e.begin();
        let t2 = e.begin();
        e.execute_in(t1, "avis", "UPDATE cars SET rate = 1 WHERE code = 1").unwrap();
        e.execute_in(t2, "avis", "UPDATE vans SET rate = 2 WHERE code = 1").unwrap();
        // t1 blocks behind t2's lock on vans: a plain wait, no cycle yet.
        assert!(matches!(
            e.execute_in(t1, "avis", "UPDATE vans SET rate = 3"),
            Err(DbError::LockWait { .. })
        ));
        // t2 requesting cars closes the cycle; t2 is younger and becomes
        // the victim, rolled back with the retriable error.
        let err = e.execute_in(t2, "avis", "UPDATE cars SET rate = 4");
        match &err {
            Err(DbError::Deadlock { .. }) => {}
            other => panic!("expected Deadlock, got {other:?}"),
        }
        assert!(err.unwrap_err().to_string().contains("deadlock"));
        assert_eq!(e.txn_state(t2).unwrap(), TxnState::Aborted);
        // t2's rollback handed vans to the waiting t1; its retry succeeds.
        e.execute_in(t1, "avis", "UPDATE vans SET rate = 3").unwrap();
        e.commit(t1).unwrap();
        assert_eq!(e.held_locks(), 0);
        // t2's effects were rolled back.
        let rs = e
            .execute("avis", "SELECT rate FROM vans WHERE code = 1")
            .unwrap()
            .into_result_set()
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Float(3.0));
    }

    #[test]
    fn deadlock_victim_marked_across_sessions_learns_on_next_statement() {
        let mut e = engine_with_cars(DbmsProfile::oracle_like());
        e.execute("avis", "CREATE TABLE vans (code INT, rate FLOAT)").unwrap();
        e.execute("avis", "INSERT INTO vans VALUES (1, 30.0)").unwrap();
        let t1 = e.begin();
        let t2 = e.begin();
        let t3 = e.begin();
        e.execute_in(t1, "avis", "UPDATE cars SET rate = 1").unwrap();
        e.execute_in(t2, "avis", "UPDATE vans SET rate = 2").unwrap();
        assert!(matches!(
            e.execute_in(t2, "avis", "UPDATE cars SET rate = 4"),
            Err(DbError::LockWait { .. })
        ));
        // t1 closes the cycle; t2 (younger than t1) is picked as victim and
        // t1 inherits vans via handoff immediately.
        e.execute_in(t1, "avis", "UPDATE vans SET rate = 3").unwrap();
        // t2's session discovers the verdict on its next statement.
        assert!(matches!(
            e.execute_in(t2, "avis", "UPDATE vans SET rate = 5"),
            Err(DbError::Deadlock { .. })
        ));
        e.commit(t1).unwrap();
        e.execute_in(t3, "avis", "UPDATE cars SET rate = 9").unwrap();
        e.commit(t3).unwrap();
        assert_eq!(e.held_locks(), 0);
    }

    #[test]
    fn snapshot_read_ignores_uncommitted_writer() {
        let mut e = engine_with_cars(DbmsProfile::oracle_like());
        let writer = e.begin();
        e.execute_in(writer, "avis", "UPDATE cars SET rate = 999").unwrap();
        e.execute_in(writer, "avis", "INSERT INTO cars VALUES (3, 10.0, 'available')").unwrap();
        // An independent reader never blocks and sees the pre-write state.
        let rs = e
            .execute("avis", "SELECT code, rate FROM cars ORDER BY code")
            .unwrap()
            .into_result_set()
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0], vec![Value::Int(1), Value::Float(40.0)]);
        assert_eq!(rs.rows[1], vec![Value::Int(2), Value::Float(60.0)]);
        // The writer itself reads its own writes.
        let own = e
            .execute_in(writer, "avis", "SELECT code FROM cars ORDER BY code")
            .unwrap()
            .into_result_set()
            .unwrap();
        assert_eq!(own.rows.len(), 3);
        e.commit(writer).unwrap();
        // After commit the new state is visible to fresh readers.
        let rs = e
            .execute("avis", "SELECT rate FROM cars WHERE code = 1")
            .unwrap()
            .into_result_set()
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Float(999.0));
    }

    #[test]
    fn pinned_snapshot_is_repeatable_across_other_commits() {
        let mut e = engine_with_cars(DbmsProfile::oracle_like());
        let reader = e.begin();
        let before = e
            .execute_in(reader, "avis", "SELECT rate FROM cars WHERE code = 1")
            .unwrap()
            .into_result_set()
            .unwrap();
        // Another transaction commits a change after the reader's snapshot.
        e.execute("avis", "UPDATE cars SET rate = 777 WHERE code = 1").unwrap();
        let after = e
            .execute_in(reader, "avis", "SELECT rate FROM cars WHERE code = 1")
            .unwrap()
            .into_result_set()
            .unwrap();
        assert_eq!(before, after, "pinned snapshot must not observe later commits");
        assert_eq!(after.rows[0][0], Value::Float(40.0));
        e.commit(reader).unwrap();
        let now = e
            .execute("avis", "SELECT rate FROM cars WHERE code = 1")
            .unwrap()
            .into_result_set()
            .unwrap();
        assert_eq!(now.rows[0][0], Value::Float(777.0));
        assert!(e.versions.is_empty(), "version store drains once no snapshot needs it");
    }

    #[test]
    fn ddl_autocommit_releases_prior_locks_and_counts_commit() {
        let mut e = engine_with_cars(DbmsProfile::oracle_like());
        let t1 = e.begin();
        let t2 = e.begin();
        e.execute_in(t1, "avis", "UPDATE cars SET rate = 0 WHERE code = 1").unwrap();
        let commits_before = e.stats().commits;
        // Oracle-style DDL commits the prior update implicitly …
        e.execute_in(t1, "avis", "CREATE TABLE extras (x INT)").unwrap();
        assert_eq!(e.stats().commits, commits_before + 1, "implicit commit accounted");
        // … so its lock on cars is released and another session can write.
        e.execute_in(t2, "avis", "UPDATE cars SET rate = 8 WHERE code = 2").unwrap();
        e.commit(t2).unwrap();
        e.rollback(t1).unwrap();
        let rs = e
            .execute("avis", "SELECT rate FROM cars ORDER BY code")
            .unwrap()
            .into_result_set()
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Float(0.0), "pre-DDL work survives the rollback");
        assert_eq!(rs.rows[1][0], Value::Float(8.0));
    }

    #[test]
    fn failed_statement_releases_freshly_acquired_lock() {
        let mut e = engine_with_cars(DbmsProfile::oracle_like());
        e.execute("avis", "CREATE TABLE extras (x INT)").unwrap();
        let t1 = e.begin();
        let t2 = e.begin();
        e.execute_in(t1, "avis", "UPDATE cars SET rate = 5 WHERE code = 1").unwrap();
        // This statement acquires a fresh lock on extras, then errors
        // (unknown column); statement atomicity must give the lock back.
        assert!(e.execute_in(t1, "avis", "UPDATE extras SET nope = 1").is_err());
        e.execute_in(t2, "avis", "INSERT INTO extras VALUES (1)").unwrap();
        e.commit(t2).unwrap();
        // But a lock held from *before* the failed statement stays held.
        let t3 = e.begin();
        assert!(matches!(
            e.execute_in(t3, "avis", "UPDATE cars SET rate = 2"),
            Err(DbError::LockWait { .. })
        ));
        e.commit(t1).unwrap();
        e.rollback(t3).unwrap();
        assert_eq!(e.held_locks(), 0);
    }

    #[test]
    fn terminal_transactions_are_garbage_collected() {
        let mut e = engine_with_cars(DbmsProfile::oracle_like());
        e.set_terminal_retention(8);
        let tracked_after_setup = e.tracked_txns();
        for i in 0..1000 {
            let sql = format!("UPDATE cars SET rate = {} WHERE code = 1", i % 50);
            e.execute("avis", &sql).unwrap();
        }
        assert!(
            e.tracked_txns() <= tracked_after_setup + 8,
            "txn map must stay flat: {} tracked",
            e.tracked_txns()
        );
        // Recent terminal transactions stay queryable for retry paths.
        let txn = e.begin();
        e.commit(txn).unwrap();
        assert_eq!(e.txn_state(txn).unwrap(), TxnState::Committed);
    }

    #[test]
    fn injected_failure_aborts_statement_without_effects() {
        let mut e = engine_with_cars(DbmsProfile::oracle_like());
        e.failure_policy_mut().fail_writes_to("cars");
        let err = e.execute("avis", "UPDATE cars SET rate = 0");
        assert!(matches!(err, Err(DbError::InjectedFailure(_))));
        let rs = e
            .execute("avis", "SELECT rate FROM cars WHERE code = 1")
            .unwrap()
            .into_result_set()
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Float(40.0));
    }

    #[test]
    fn injected_prepare_failure_auto_rolls_back() {
        let mut e = engine_with_cars(DbmsProfile::oracle_like());
        e.set_failure_policy(FailurePolicy::with_probabilities(1, 0.0, 1.0));
        let txn = e.begin();
        e.execute_in(txn, "avis", "UPDATE cars SET rate = 0 WHERE code = 1").unwrap();
        assert!(matches!(e.prepare(txn), Err(DbError::InjectedFailure(_))));
        assert_eq!(e.txn_state(txn).unwrap(), TxnState::Aborted);
        let rs = e
            .execute("avis", "SELECT rate FROM cars WHERE code = 1")
            .unwrap()
            .into_result_set()
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Float(40.0));
    }

    #[test]
    fn ingres_like_rolls_back_ddl() {
        let mut e = engine_with_cars(DbmsProfile::ingres_like());
        let txn = e.begin();
        e.execute_in(txn, "avis", "CREATE TABLE extras (x INT)").unwrap();
        e.execute_in(txn, "avis", "INSERT INTO extras VALUES (1)").unwrap();
        e.rollback(txn).unwrap();
        assert!(e.execute("avis", "SELECT x FROM extras").is_err());
    }

    #[test]
    fn oracle_like_ddl_autocommits_prior_work() {
        let mut e = engine_with_cars(DbmsProfile::oracle_like());
        let txn = e.begin();
        e.execute_in(txn, "avis", "UPDATE cars SET rate = 0 WHERE code = 1").unwrap();
        // DDL flushes the undo log: the update becomes permanent.
        e.execute_in(txn, "avis", "CREATE TABLE extras (x INT)").unwrap();
        e.rollback(txn).unwrap();
        let rs = e
            .execute("avis", "SELECT rate FROM cars WHERE code = 1")
            .unwrap()
            .into_result_set()
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Float(0.0));
        // And the created table also survives the rollback.
        assert!(e.execute("avis", "SELECT x FROM extras").is_ok());
    }

    #[test]
    fn noconnect_service_hosts_single_database() {
        let mut e = Engine::new("small", DbmsProfile::autocommit_only());
        e.create_database("main").unwrap();
        assert!(e.create_database("second").is_err());
    }

    #[test]
    fn failed_statement_in_txn_keeps_prior_work() {
        let mut e = engine_with_cars(DbmsProfile::oracle_like());
        let txn = e.begin();
        e.execute_in(txn, "avis", "UPDATE cars SET rate = 5 WHERE code = 1").unwrap();
        // This statement fails (unknown column) but must not poison the txn.
        assert!(e.execute_in(txn, "avis", "UPDATE cars SET nope = 1").is_err());
        e.commit(txn).unwrap();
        let rs = e
            .execute("avis", "SELECT rate FROM cars WHERE code = 1")
            .unwrap()
            .into_result_set()
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Float(5.0));
    }

    #[test]
    fn stats_count_outcomes() {
        let mut e = engine_with_cars(DbmsProfile::oracle_like());
        let base = e.stats();
        let txn = e.begin();
        e.execute_in(txn, "avis", "UPDATE cars SET rate = 1 WHERE code = 1").unwrap();
        e.prepare(txn).unwrap();
        e.commit(txn).unwrap();
        let s = e.stats();
        assert_eq!(s.prepares, base.prepares + 1);
        assert_eq!(s.commits, base.commits + 1);
    }

    #[test]
    fn ingres_like_rolls_back_index_ddl() {
        let mut e = engine_with_cars(DbmsProfile::ingres_like());
        let txn = e.begin();
        e.execute_in(txn, "avis", "CREATE INDEX cars_code ON cars (code)").unwrap();
        e.rollback(txn).unwrap();
        assert!(e
            .database("avis")
            .unwrap()
            .table("cars")
            .unwrap()
            .index_by_name("cars_code")
            .is_none());

        // DROP INDEX rolls back too: the index is rebuilt with its contents.
        e.execute("avis", "CREATE INDEX cars_code ON cars (code) USING HASH").unwrap();
        let txn = e.begin();
        e.execute_in(txn, "avis", "INSERT INTO cars VALUES (7, 10.0, 'available')").unwrap();
        e.execute_in(txn, "avis", "DROP INDEX cars_code ON cars").unwrap();
        e.rollback(txn).unwrap();
        let idx = e.database("avis").unwrap().table("cars").unwrap().index_by_name("cars_code");
        let idx = idx.expect("rollback restores the dropped index");
        // The rolled-back insert is not in the rebuilt index.
        assert!(idx.probe_eq(&[Value::Int(7)]).is_empty());
        assert_eq!(idx.probe_eq(&[Value::Int(1)]).len(), 1);
    }

    #[test]
    fn oracle_like_index_ddl_autocommits() {
        let mut e = engine_with_cars(DbmsProfile::oracle_like());
        let txn = e.begin();
        e.execute_in(txn, "avis", "CREATE INDEX cars_code ON cars (code)").unwrap();
        e.rollback(txn).unwrap();
        // DDL does not roll back on an Oracle-like profile.
        assert!(e
            .database("avis")
            .unwrap()
            .table("cars")
            .unwrap()
            .index_by_name("cars_code")
            .is_some());
    }

    #[test]
    fn aborted_dml_leaves_indexes_consistent() {
        let mut e = engine_with_cars(DbmsProfile::oracle_like());
        e.execute("avis", "CREATE INDEX cars_code ON cars (code)").unwrap();
        let txn = e.begin();
        e.execute_in(txn, "avis", "INSERT INTO cars VALUES (3, 10.0, 'available')").unwrap();
        e.execute_in(txn, "avis", "UPDATE cars SET code = 9 WHERE code = 1").unwrap();
        e.execute_in(txn, "avis", "DELETE FROM cars WHERE code = 2").unwrap();
        e.rollback(txn).unwrap();
        let idx =
            e.database("avis").unwrap().table("cars").unwrap().index_by_name("cars_code").unwrap();
        assert!(idx.probe_eq(&[Value::Int(3)]).is_empty());
        assert!(idx.probe_eq(&[Value::Int(9)]).is_empty());
        assert_eq!(idx.probe_eq(&[Value::Int(1)]).len(), 1);
        assert_eq!(idx.probe_eq(&[Value::Int(2)]).len(), 1);
    }

    #[test]
    fn select_stats_and_access_label() {
        let mut e = engine_with_cars(DbmsProfile::oracle_like());
        assert_eq!(e.last_access(), None);
        e.execute("avis", "SELECT code FROM cars WHERE code = 1").unwrap();
        assert_eq!(e.last_access(), Some("scan"));
        let scanned_before = e.stats().rows_scanned;
        assert!(scanned_before >= 2, "full scan reads both rows");
        e.execute("avis", "CREATE INDEX cars_code ON cars (code)").unwrap();
        assert_eq!(e.last_access(), None, "DDL is not an access path");
        e.execute("avis", "SELECT code FROM cars WHERE code = 1").unwrap();
        assert_eq!(e.last_access(), Some("probe"));
        let s = e.stats();
        assert_eq!(s.index_hits, 1);
        assert_eq!(s.rows_scanned, scanned_before + 1, "probe materializes one candidate");
    }

    #[test]
    fn msql_constructs_rejected_as_local_sql() {
        let mut e = engine_with_cars(DbmsProfile::oracle_like());
        assert!(matches!(
            e.execute("avis", "USE avis SELECT code FROM cars"),
            Err(DbError::NotLocalSql(_))
        ));
        assert!(matches!(
            e.execute("avis", "SELECT %code FROM cars"),
            Err(DbError::NotLocalSql(_)) | Err(DbError::UnknownColumn(_))
        ));
    }

    use crate::failure::FailurePolicy;
}
