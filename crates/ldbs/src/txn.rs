//! Transaction state machine and undo logging.
//!
//! A local subtransaction moves through the states the paper's evaluation
//! plans test for:
//!
//! ```text
//!            execute ok            commit
//!  Active ──────────────▶ Prepared ───────▶ Committed
//!     │                      │
//!     │ local failure        │ global rollback
//!     ▼                      ▼
//!  Aborted ◀─────────────────┘
//! ```
//!
//! (`P`, `C`, `A` in the DOL listings of §4.3.) Autocommit-only engines skip
//! the Prepared state: execution success commits immediately.

use crate::table::{Row, RowId, Table};
use std::sync::Arc;

/// Transaction identifier.
pub type TxnId = u64;

/// The observable state of a local (sub)transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnState {
    /// Work in progress.
    Active,
    /// All statements executed; the transaction voted YES and awaits the
    /// global decision (the paper's prepared-to-commit, `P`).
    Prepared,
    /// Durably committed (`C`).
    Committed,
    /// Rolled back (`A`).
    Aborted,
}

impl TxnState {
    /// The single-letter code used by DOL status tests (`T1 = P`).
    pub fn dol_code(&self) -> char {
        match self {
            TxnState::Active => 'E',
            TxnState::Prepared => 'P',
            TxnState::Committed => 'C',
            TxnState::Aborted => 'A',
        }
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            TxnState::Active => "Active",
            TxnState::Prepared => "Prepared",
            TxnState::Committed => "Committed",
            TxnState::Aborted => "Aborted",
        }
    }

    /// True if the transaction has reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        matches!(self, TxnState::Committed | TxnState::Aborted)
    }
}

/// One entry of the undo log. Applying the inverse operations in reverse
/// order restores the pre-transaction state. The row-level entries of one
/// statement share their two names.
#[derive(Debug, Clone)]
pub enum UndoOp {
    /// A row was inserted; undo removes it.
    Insert {
        /// Database name.
        database: Arc<str>,
        /// Table name.
        table: Arc<str>,
        /// The inserted row id.
        id: RowId,
    },
    /// A row was deleted; undo restores it.
    Delete {
        /// Database name.
        database: Arc<str>,
        /// Table name.
        table: Arc<str>,
        /// The deleted row id.
        id: RowId,
        /// The deleted row contents.
        row: Row,
    },
    /// A row was updated; undo restores the old image.
    Update {
        /// Database name.
        database: Arc<str>,
        /// Table name.
        table: Arc<str>,
        /// The updated row id.
        id: RowId,
        /// The pre-update row contents.
        old: Row,
    },
    /// A table was created; undo drops it.
    CreateTable {
        /// Database name.
        database: String,
        /// Table name.
        table: String,
    },
    /// A table was dropped; undo restores it wholesale.
    DropTable {
        /// Database name.
        database: String,
        /// The dropped table (schema and rows).
        table: Box<Table>,
    },
    /// An index was created; undo drops it.
    CreateIndex {
        /// Database name.
        database: String,
        /// Table name.
        table: String,
        /// Index name.
        name: String,
    },
    /// An index was dropped; undo rebuilds it from the definition (the
    /// key → row map is derivable from the table contents at undo time).
    DropIndex {
        /// Database name.
        database: String,
        /// Table name.
        table: String,
        /// The dropped index definition.
        def: crate::schema::IndexDef,
    },
    /// Statistics were (re)collected by `ANALYZE`; undo restores the
    /// previous snapshot and staleness counter.
    Analyze {
        /// Database name.
        database: String,
        /// Table name.
        table: String,
        /// The statistics in place before the `ANALYZE` (None if never
        /// analyzed).
        prev: Option<Box<crate::stats::TableStats>>,
        /// The staleness counter before the `ANALYZE`.
        prev_staleness: u64,
    },
}

/// A live transaction: its state, its undo log, and the write locks it
/// holds (`(database, table)` pairs).
#[derive(Debug)]
pub struct Transaction {
    /// The transaction id.
    pub id: TxnId,
    /// Current state.
    pub state: TxnState,
    /// Undo log in execution order.
    pub undo: Vec<UndoOp>,
    /// Held write locks.
    pub locks: Vec<(String, String)>,
    /// The commit sequence number observed at `BEGIN`: this transaction's
    /// snapshot reads see exactly the changes committed up to it.
    pub snapshot: u64,
}

impl Transaction {
    /// Creates a fresh active transaction.
    pub fn new(id: TxnId) -> Self {
        Transaction {
            id,
            state: TxnState::Active,
            undo: Vec::new(),
            locks: Vec::new(),
            snapshot: 0,
        }
    }

    /// Makes all work so far permanent without terminating the transaction —
    /// used to model DDL that "automatically commits ... all previously
    /// issued uncommitted statements" (paper §3.2.2).
    pub fn flush_undo(&mut self) -> usize {
        let n = self.undo.len();
        self.undo.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dol_codes_match_paper() {
        assert_eq!(TxnState::Prepared.dol_code(), 'P');
        assert_eq!(TxnState::Committed.dol_code(), 'C');
        assert_eq!(TxnState::Aborted.dol_code(), 'A');
    }

    #[test]
    fn terminal_states() {
        assert!(!TxnState::Active.is_terminal());
        assert!(!TxnState::Prepared.is_terminal());
        assert!(TxnState::Committed.is_terminal());
        assert!(TxnState::Aborted.is_terminal());
    }

    #[test]
    fn flush_undo_reports_dropped_entries() {
        let mut t = Transaction::new(1);
        t.undo.push(UndoOp::Insert { database: "d".into(), table: "t".into(), id: 1 });
        t.undo.push(UndoOp::Insert { database: "d".into(), table: "t".into(), id: 2 });
        assert_eq!(t.flush_undo(), 2);
        assert!(t.undo.is_empty());
    }
}
