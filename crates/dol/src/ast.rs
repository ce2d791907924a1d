//! DOL abstract syntax.

/// Observable status of a DOL task, matching the codes tested in the paper's
/// §4.3 listing (`IF (T1=P) AND (T3=P) ...`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskStatus {
    /// Executed under NOCOMMIT and reached prepared-to-commit.
    Prepared,
    /// Executed and committed (autocommit tasks, or after phase 2).
    Committed,
    /// Aborted / rolled back.
    Aborted,
    /// Failed with an error before producing a vote.
    Error,
    /// Committed, then semantically undone by its compensating action.
    Compensated,
}

impl TaskStatus {
    /// One-letter code used in DOL conditions.
    pub fn code(&self) -> char {
        match self {
            TaskStatus::Prepared => 'P',
            TaskStatus::Committed => 'C',
            TaskStatus::Aborted => 'A',
            TaskStatus::Error => 'E',
            TaskStatus::Compensated => 'K',
        }
    }

    /// Parses a one-letter status code.
    pub fn from_code(c: char) -> Option<TaskStatus> {
        match c.to_ascii_uppercase() {
            'P' => Some(TaskStatus::Prepared),
            'C' => Some(TaskStatus::Committed),
            'A' => Some(TaskStatus::Aborted),
            'E' => Some(TaskStatus::Error),
            'K' => Some(TaskStatus::Compensated),
            _ => None,
        }
    }
}

/// A task definition: commands shipped to one service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskDef {
    /// Task name (`T1`).
    pub name: String,
    /// Service alias the task runs on (`FOR cont`).
    pub service: String,
    /// `NOCOMMIT`: run under 2PC and stop in the prepared state; otherwise
    /// the task autocommits on success.
    pub nocommit: bool,
    /// What the task sends its service: the paper's plain `TASK` unless a
    /// verb follows the name.
    pub verb: TaskVerb,
    /// SQL statements to execute, in order.
    pub commands: Vec<String>,
    /// Compensating statements (the §3.3 extension), executed by
    /// `COMPENSATE <task>` after the task has committed.
    pub compensation: Vec<String>,
}

impl TaskDef {
    /// The paper's plain `TASK`, autocommitted and with no COMP clause.
    pub fn new(name: impl Into<String>, service: impl Into<String>, commands: Vec<String>) -> Self {
        let (name, service, compensation) = (name.into(), service.into(), Vec::new());
        TaskDef { name, service, nocommit: false, verb: TaskVerb::Run, commands, compensation }
    }
}

/// What a task sends (`TASK <name> [NOCOMMIT] [<verb>] FOR …`): the paper's
/// `TASK`, what a member of a deferred global transaction (§3.2.2) or
/// recovery sends about a subtransaction open under the task's name at its
/// service, or a cross-database join's partial or combine (§4.1).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TaskVerb {
    /// Run the commands, autocommitted or (`NOCOMMIT`) stopping prepared.
    #[default]
    Run,
    /// `HOLD`: open the subtransaction and run the commands in it.
    Hold,
    /// `EXEC`: run the commands in the open subtransaction.
    Exec,
    /// `PREPARE`: vote on the open subtransaction.
    Prepare,
    /// `ABORT`: roll it back without a vote.
    Abort,
    /// `RESOLVE COMMIT | ABORT`: settle it per a logged decision.
    Resolve(bool),
    /// `COMPENSATE`: undo the committed task with its COMP commands.
    Compensate,
    /// `SETTLED <status>`: send nothing; the task ends in this status.
    Settled(TaskStatus),
    /// `PARTIALAGG`: a join's partial (the command), its rows coming back.
    PartialAgg(Partial),
    /// `SHIP <key> TO <site> ECHO`: a partial whose rows also go straight to
    /// the join's coordinator at `site`, for its `COMBINE <key>`.
    Ship { key: u64, to: String, partial: Partial },
    /// `COMBINE <key> [MEASURE]`: the join's global query (the command).
    Combine(Box<Combine>),
}

/// A join partial's `[BASELINE { sql }]`, measured beside it under `EXPLAIN`,
/// and the notes for its span (`NOTE <key> '<value>'`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Partial {
    pub baseline: Option<String>,
    pub notes: Vec<(String, String)>,
}

/// `COMBINE`'s arguments: its span's notes, `HOME { sql }` (the coordinator's
/// own subquery) and its notes, its `EDGE`s and the `PART`s shipped to it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Combine {
    /// The correlation key every part of the join travels under.
    pub key: u64,
    /// `MEASURE`: size the home subquery's baseline too.
    pub measure: bool,
    pub notes: Vec<(String, String)>,
    pub home: String,
    pub home_notes: Vec<(String, String)>,
    pub edges: Vec<HomeEdge>,
    pub travellers: Vec<Traveller>,
}

/// `PART <database> AT <site> [ECHOED] { sql } …`: a partial shipped straight
/// to the coordinator — by the `COMBINE`'s task unless `ECHOED` (`posted`
/// false): a reducer's `SHIP … ECHO` sent it, and only a resend ships it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Traveller {
    pub site: String,
    pub database: String,
    pub sql: String,
    pub posted: bool,
    pub partial: Partial,
}

/// `EDGE <reducer> <key_column> <binding> <column> '<rule>'`: the reducer's
/// distinct keys (its part's `key_column`) may filter the home subquery's
/// `binding.column`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HomeEdge {
    pub reducer: String,
    pub key_column: String,
    pub binding: String,
    pub column: String,
    pub rule: EdgeRule,
}

/// How one reduction edge's ship-or-not is finished once the reducer's keys
/// are known. Written as one word: `C<cap>`, or `B<ndv|->/<bytes>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeRule {
    /// No statistics: ship a key set of at most this many values.
    Cap(usize),
    /// Both ends estimated: ship iff the bytes the filter prunes from the
    /// target's partial (`bytes`, estimated unreduced) exceed the key list's
    /// own. `min(1, keys/ndv)` of the target's rows survive a k-key filter
    /// under uniformity, `ndv` being the filtered column's distinct values
    /// there; without one the filter is presumed to prune nothing.
    Bytes { ndv: Option<u64>, bytes: f64 },
}

/// An estimate is a finite number, so a rule always equals itself.
impl Eq for EdgeRule {}

impl std::fmt::Display for EdgeRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeRule::Cap(cap) => write!(f, "C{cap}"),
            EdgeRule::Bytes { ndv, bytes } => {
                write!(f, "B{}/{bytes}", ndv.map_or("-".to_string(), |n| n.to_string()))
            }
        }
    }
}

impl std::str::FromStr for EdgeRule {
    type Err = String;

    fn from_str(word: &str) -> Result<Self, String> {
        let bad = || format!("bad reduction rule `{word}`");
        if let Some(cap) = word.strip_prefix('C') {
            return cap.parse().map(EdgeRule::Cap).map_err(|_| bad());
        }
        let (ndv, bytes) =
            word.strip_prefix('B').and_then(|b| b.split_once('/')).ok_or_else(bad)?;
        let ndv = if ndv == "-" { None } else { Some(ndv.parse().map_err(|_| bad())?) };
        Ok(EdgeRule::Bytes { ndv, bytes: bytes.parse().map_err(|_| bad())? })
    }
}

/// A status condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DolCond {
    /// `(T1 = P)`.
    StatusEq {
        /// Task name.
        task: String,
        /// Expected status.
        status: TaskStatus,
    },
    /// Conjunction.
    And(Box<DolCond>, Box<DolCond>),
    /// Disjunction.
    Or(Box<DolCond>, Box<DolCond>),
    /// Negation.
    Not(Box<DolCond>),
}

/// One DOL statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DolStmt {
    /// `OPEN <service> AT <site> AS <alias>;` — connect to a known service.
    Open {
        /// Service (database) name as known to the resource directory.
        service: String,
        /// Site where the service listens.
        site: String,
        /// Alias used by TASK/CLOSE statements.
        alias: String,
    },
    /// `TASK ... ENDTASK;`
    Task(TaskDef),
    /// `IF <cond> THEN BEGIN ... END; [ELSE BEGIN ... END;]`
    If {
        /// The condition over task statuses.
        cond: DolCond,
        /// Statements executed when the condition holds.
        then_branch: Vec<DolStmt>,
        /// Statements executed otherwise.
        else_branch: Vec<DolStmt>,
    },
    /// `COMMIT T1, T3;` — second commit phase for prepared tasks.
    Commit {
        /// The tasks to commit.
        tasks: Vec<String>,
    },
    /// `ABORT T1, T3;` — roll prepared tasks back.
    Abort {
        /// The tasks to abort.
        tasks: Vec<String>,
    },
    /// `COMPENSATE T1;` — run a committed task's compensating action
    /// (the §3.3 extension).
    Compensate {
        /// The task to compensate.
        task: String,
    },
    /// `DECIDE <n>;` — record the coordinator's settle decision *before* any
    /// second-phase message goes out. The engine forwards the code to its
    /// [`crate::engine::TaskObserver`] (the coordinator's write-ahead log);
    /// the statement has no effect on task statuses or `DOLSTATUS`.
    Decide(i32),
    /// `DOLSTATUS = <n>;` — set the program's return code.
    SetStatus(i32),
    /// `CLOSE a b c;` — disconnect service aliases.
    Close {
        /// The aliases to close.
        aliases: Vec<String>,
    },
}

/// A full DOL program (`DOLBEGIN ... DOLEND`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DolProgram {
    /// Top-level statements in order.
    pub statements: Vec<DolStmt>,
}

impl DolProgram {
    /// All task definitions (recursively, including branches), in program
    /// order.
    pub fn tasks(&self) -> Vec<&TaskDef> {
        fn walk<'a>(stmts: &'a [DolStmt], out: &mut Vec<&'a TaskDef>) {
            for s in stmts {
                match s {
                    DolStmt::Task(t) => out.push(t),
                    DolStmt::If { then_branch, else_branch, .. } => {
                        walk(then_branch, out);
                        walk(else_branch, out);
                    }
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.statements, &mut out);
        out
    }

    /// Applies `rename` to every mention of a task name: definitions, status
    /// conditions, `COMMIT` / `ABORT` lists and `COMPENSATE`.
    pub fn rename_tasks(&mut self, rename: &dyn Fn(&mut String)) {
        fn cond(c: &mut DolCond, rename: &dyn Fn(&mut String)) {
            match c {
                DolCond::StatusEq { task, .. } => rename(task),
                DolCond::And(a, b) | DolCond::Or(a, b) => {
                    cond(a, rename);
                    cond(b, rename);
                }
                DolCond::Not(a) => cond(a, rename),
            }
        }
        fn block(stmts: &mut [DolStmt], rename: &dyn Fn(&mut String)) {
            for stmt in stmts {
                match stmt {
                    DolStmt::Task(t) => rename(&mut t.name),
                    DolStmt::If { cond: c, then_branch, else_branch } => {
                        cond(c, rename);
                        block(then_branch, rename);
                        block(else_branch, rename);
                    }
                    DolStmt::Commit { tasks } | DolStmt::Abort { tasks } => {
                        tasks.iter_mut().for_each(rename)
                    }
                    DolStmt::Compensate { task } => rename(task),
                    DolStmt::Open { .. }
                    | DolStmt::Decide(_)
                    | DolStmt::SetStatus(_)
                    | DolStmt::Close { .. } => {}
                }
            }
        }
        block(&mut self.statements, rename);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_codes_roundtrip() {
        for s in [
            TaskStatus::Prepared,
            TaskStatus::Committed,
            TaskStatus::Aborted,
            TaskStatus::Error,
            TaskStatus::Compensated,
        ] {
            assert_eq!(TaskStatus::from_code(s.code()), Some(s));
        }
        assert_eq!(TaskStatus::from_code('x'), None);
        assert_eq!(TaskStatus::from_code('p'), Some(TaskStatus::Prepared));
    }

    #[test]
    fn tasks_walks_branches() {
        let t = |n: &str| {
            DolStmt::Task(TaskDef {
                name: n.into(),
                service: "s".into(),
                nocommit: false,
                verb: TaskVerb::Run,
                commands: vec![],
                compensation: vec![],
            })
        };
        let prog = DolProgram {
            statements: vec![
                t("T1"),
                DolStmt::If {
                    cond: DolCond::StatusEq { task: "T1".into(), status: TaskStatus::Prepared },
                    then_branch: vec![t("T2")],
                    else_branch: vec![t("T3")],
                },
            ],
        };
        let names: Vec<&str> = prog.tasks().iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["T1", "T2", "T3"]);

        let mut renamed = prog.clone();
        renamed.rename_tasks(&|name| name.push_str("_s7"));
        let names: Vec<&str> = renamed.tasks().iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["T1_s7", "T2_s7", "T3_s7"]);
        let DolStmt::If { cond: DolCond::StatusEq { task, .. }, .. } = &renamed.statements[1]
        else {
            panic!("{renamed:?}")
        };
        assert_eq!(task, "T1_s7");
    }
}
