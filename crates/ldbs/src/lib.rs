//! # ldbs — Local Database System substrate
//!
//! A from-scratch, in-memory relational database engine standing in for the
//! autonomous local DBMSs (Oracle, Ingres, Sybase, ...) that the ICDE'93
//! paper federates. The engine executes the SQL subset produced by the MSQL
//! translator and — crucially for the paper — reproduces the **commit
//! protocol heterogeneity** the paper's semantics revolve around:
//!
//! * [`profile::DbmsProfile`] describes what a local system can do: whether
//!   it exposes a two-phase-commit (prepared-to-commit) interface or only
//!   autocommits, whether DDL can be rolled back or instead autocommits
//!   together with all previously issued uncommitted statements (the
//!   Ingres/Oracle difference called out in §3.2.2), and whether it serves
//!   multiple databases (`CONNECTMODE`).
//! * [`txn`] implements the transaction state machine
//!   (Active → Prepared → Committed/Aborted) with undo logging, so a
//!   prepared subtransaction can be committed or rolled back by the global
//!   layer.
//! * [`failure::FailurePolicy`] injects local aborts (conflicts, deadlocks,
//!   crashes) deterministically or stochastically, which the paper's
//!   vital/compensation machinery must tolerate.
//!
//! The execution engine ([`exec`]) supports scans, filters, cross joins,
//! scalar/`IN` subqueries (correlated), aggregates with `GROUP BY`/`HAVING`,
//! `ORDER BY`, `DISTINCT`, and the DML/DDL statements of the MSQL subset.
//!
//! ```
//! use ldbs::{Engine, profile::DbmsProfile};
//!
//! let mut engine = Engine::new("avis_svc", DbmsProfile::oracle_like());
//! engine.create_database("avis").unwrap();
//! engine.execute("avis", "CREATE TABLE cars (code INT, cartype CHAR(16), rate FLOAT, carst CHAR(10))").unwrap();
//! engine.execute("avis", "INSERT INTO cars VALUES (1, 'sedan', 39.5, 'available')").unwrap();
//! let rs = engine.execute("avis", "SELECT code, rate FROM cars WHERE carst = 'available'").unwrap();
//! assert_eq!(rs.into_result_set().unwrap().rows.len(), 1);
//! ```

pub mod engine;
pub mod error;
pub mod eval;
pub mod exec;
pub mod failure;
pub mod index;
mod keyindex;
pub mod profile;
pub mod schema;
pub mod stats;
pub mod table;
pub mod txn;
pub mod value;

pub use engine::{Engine, ExecOutcome, ResultSet, RowSink};
pub use error::DbError;
pub use profile::DbmsProfile;
pub use schema::{ColumnSchema, IndexDef, IndexKind, TableSchema};
pub use stats::{ColumnStats, TableStats};
pub use txn::{TxnId, TxnState};
pub use value::{CanonicalKey, DataType, Value};
