//! DOL plan generation (paper §4.3, phase 4).
//!
//! Every MSQL statement becomes one kind of DOL program, and one function,
//! `dol_plan`, writes it: an `OPEN` per service, every task in one `TASK`
//! batch, then — when the statement has acceptable termination states — the
//! settle phase. §3.2's vital set commits all together or is undone all
//! together; §3.4's acceptable states give the same rule for a list of
//! candidate sets, tried in preference order. So a vital update is a
//! multitransaction with one acceptable state, its vital subqueries, and the
//! settle phase has one rule:
//!
//! * state `k` is reachable when each member reached the status its mode can:
//!   `P` after a `NOCOMMIT` task, `C` after an autocommitted one;
//! * the first reachable state's branch is `DECIDE k`, `COMMIT` its
//!   `NOCOMMIT` members, `ABORT` the oracle's other `NOCOMMIT` tasks,
//!   `IF (t=C) THEN COMPENSATE t` for each of the oracle's other
//!   autocommitted tasks that has a COMP clause, `DOLSTATUS=k`;
//! * when no state is reachable, the same branch with no members runs under
//!   the failure code.
//!
//! The oracle is the set of tasks whose outcome decides the statement: a
//! non-vital update subquery autocommits outside it, under either decision.
//! The plan keeps no table of what each `DECIDE` code means: the executor
//! reads `DOLSTATUS = k < states.len()` as state `k` installed, and recovery
//! derives a logged code's `COMMIT` and `COMPENSATE` sets from the `BEGIN`
//! and `PREP` records (`wal::MtxImage::settlement`) by the same
//! rule the branches follow. So a failure code must index no state: a
//! multitransaction takes at most [`MTX_FAILED`] states.
//!
//! The callers differ only in what they hand it:
//!
//! | caller | tasks | states | failure code |
//! |---|---|---|---|
//! | [`retrieval_plan`] | `Q<n>`, autocommit | none | — |
//! | [`update_plan`] | `T<n>`; a vital is `NOCOMMIT` on a 2PC service, else autocommit with its COMP (§3.3) | the vitals | `UPDATE_FAILED` |
//! | a deferred-mode statement (`gtxn.rs`) | a vital is its member's task (`HOLD` / `EXEC` on a 2PC service, else autocommit under the member's name), a non-vital `NV_<key>` | none | — |
//! | a deferred synchronization point (`gtxn.rs`) | the members' votes: `PREPARE`, else `ABORT` or `SETTLED` | all members; `ROLLBACK` plans the failure branch alone | `UPDATE_FAILED` |
//! | [`multitransaction_plan`] | the scope keys; `NOCOMMIT` on 2PC services, else autocommit with their COMP | the user's | [`MTX_FAILED`] |
//! | a transfer's INSERT, local DDL and `ANALYZE` ([`autocommit_plan`]) | one autocommit task: `TRANSFER`, `DDL` or `ANALYZE` | none | — |
//! | a recovery wave (`federation.rs`) | each unresolved logged task's `RESOLVE`, or `COMPENSATE` | none | — |
//! | a cross-database join ([`autocommit_plan`]) | the coordinator's `COMBINE` (a reducer whose keys the MDBS layer needs first `SHIP … ECHO`s in a program of its own), or each pushed site's `PARTIALAGG`; each named after its database | none | — |
//!
//! `DOLSTATUS` is the `DECIDE` code of the branch taken: `k` for state `k`
//! (`0` is the preferred state, and an update's success), else the failure
//! code. A program with no states decides nothing and sets `0`.

use crate::error::MdbsError;
use crate::translate::expand::LocalQuery;
use crate::wal::{installed_state, WalTask};
use dol::{DolCond, DolProgram, DolStmt, TaskDef, TaskStatus};
use msql_lang::printer::print;
use std::collections::HashMap;

/// DOLSTATUS for a failed multitransaction (no acceptable state reachable).
pub const MTX_FAILED: i32 = 99;

/// DOLSTATUS for a vital set that did not commit: an update statement, or a
/// deferred global transaction at its synchronization point.
pub(crate) const UPDATE_FAILED: i32 = 1;

/// Where a database lives and what its service can do — derived from the
/// GDD (service) and the Auxiliary Directory (site, commit mode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbRoute {
    /// Database name.
    pub database: String,
    /// Network site of its LAM.
    pub site: String,
    /// Whether the service offers a prepared-to-commit state for DML.
    pub supports_2pc: bool,
}

/// One task of a generated plan, with its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanTask {
    /// DOL task name.
    pub task: String,
    /// Target database.
    pub database: String,
    /// Scope key (alias or database name).
    pub key: String,
    /// VITAL designation.
    pub vital: bool,
}

/// A generated DOL program plus task provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedPlan {
    /// The program.
    pub program: DolProgram,
    /// Task metadata in task order.
    pub tasks: Vec<PlanTask>,
    /// Write-ahead-log material, present for every plan with a settle phase
    /// (vital updates and multitransactions). `None` means a coordinator
    /// crash leaves nothing to recover: every task autocommits and no
    /// decision is ever taken.
    pub recovery: Option<PlanRecovery>,
}

impl GeneratedPlan {
    /// Appends `suffix` to the name of every task — in the program, the
    /// provenance and the recovery material alike. LAMs key the
    /// subtransactions open at them by task name alone, so a coordinator
    /// that shares LAMs with others makes its names its own this way before
    /// anything is logged or sent (DESIGN §3a.6).
    pub fn suffix_tasks(&mut self, suffix: &str) {
        let rename = |name: &mut String| name.push_str(suffix);
        self.program.rename_tasks(&rename);
        self.tasks.iter_mut().for_each(|t| rename(&mut t.task));
        if let Some(recovery) = &mut self.recovery {
            recovery.tasks.iter_mut().for_each(|t| rename(&mut t.name));
            recovery
                .states
                .iter_mut()
                .chain([&mut recovery.oracle, &mut recovery.abort_compensate])
                .for_each(|list| list.iter_mut().for_each(rename));
        }
    }
}

/// Everything the executor logs at BEGIN: with the `PREP` records and the
/// `DECIDE` code, all recovery needs to settle the statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanRecovery {
    /// Every task with its routing and compensation, in task order.
    pub tasks: Vec<WalTask>,
    /// Unread: fedbench still hands it to `WalObserver::new` (ROADMAP item
    /// 1(b) deletes both).
    pub decisions: (),
    /// Acceptable termination states in preference order (task names). For
    /// vital updates: the single all-vitals state.
    pub states: Vec<Vec<String>>,
    /// Tasks the §3.4 consistency oracle covers. Non-vital update tasks are
    /// excluded: they commit under either decision, by design.
    pub oracle: Vec<String>,
    /// Tasks compensated when recovery presumes abort.
    pub abort_compensate: Vec<String>,
}

pub(crate) fn route_for<'r>(
    routes: &'r HashMap<String, DbRoute>,
    database: &str,
) -> Result<&'r DbRoute, MdbsError> {
    routes.get(database).ok_or_else(|| {
        MdbsError::Catalog(format!("no route (service/site) known for database `{database}`"))
    })
}

/// One `OPEN` per scope key, in first-appearance order, over `(key, database)`
/// pairs.
fn open_statements<'a>(
    services: impl Iterator<Item = (&'a str, &'a str)>,
    routes: &HashMap<String, DbRoute>,
) -> Result<(Vec<DolStmt>, Vec<String>), MdbsError> {
    let mut opens = Vec::new();
    let mut aliases: Vec<String> = Vec::new();
    for (key, database) in services {
        if aliases.iter().any(|a| a == key) {
            continue;
        }
        let route = route_for(routes, database)?;
        opens.push(DolStmt::Open {
            service: database.to_string(),
            site: route.site.clone(),
            alias: key.to_string(),
        });
        aliases.push(key.to_string());
    }
    Ok((opens, aliases))
}

/// One task of a DOL program, as `dol_plan` takes it: the task, on the
/// service of its scope key, and its database. `vital` puts it in the oracle
/// (a VITAL subquery, every subquery of a multitransaction): provenance only
/// in a plan without states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DolTask {
    pub def: TaskDef,
    pub database: String,
    pub vital: bool,
}

/// Generates a DOL program (module docs): the `OPEN`s, the `TASK` batch
/// and, when there are `states` (acceptable termination states in
/// preference order, task names each), the nested `IF` chain that settles
/// on the first reachable one or on `failure`. `rollback` plans the failure
/// branch alone: a `ROLLBACK`, or a set known not to be committable, decides
/// without asking. Callers have checked that every state is a non-empty set
/// of task names.
pub(crate) fn dol_plan(
    tasks: &[DolTask],
    states: &[Vec<String>],
    failure: i32,
    rollback: bool,
    routes: &HashMap<String, DbRoute>,
) -> Result<GeneratedPlan, MdbsError> {
    let services = tasks.iter().map(|t| (t.def.service.as_str(), t.database.as_str()));
    let (mut statements, aliases) = open_statements(services, routes)?;
    statements.extend(tasks.iter().map(|t| DolStmt::Task(t.def.clone())));
    let plan_tasks: Vec<PlanTask> = tasks
        .iter()
        .map(|t| PlanTask {
            task: t.def.name.clone(),
            database: t.database.clone(),
            key: t.def.service.clone(),
            vital: t.vital,
        })
        .collect();
    if states.is_empty() {
        // "If all subqueries are NON VITAL the multiple query is always
        // successful": nothing to decide, nothing to log or recover.
        statements.extend([DolStmt::SetStatus(0), DolStmt::Close { aliases }]);
        let program = DolProgram { statements };
        return Ok(GeneratedPlan { program, tasks: plan_tasks, recovery: None });
    }

    // The IF chain, built from the last resort outwards; each branch's
    // DECIDE is logged before any second-phase message goes out, and
    // recovery replays it after a coordinator crash.
    debug_assert!(
        installed_state(failure, states.len()).is_none(),
        "failure code {failure} is the index of one of {} states",
        states.len()
    );
    let mut chain = settle(tasks, failure, None);
    if !rollback {
        for (k, state) in states.iter().enumerate().rev() {
            let cond = reachable(tasks, state);
            let then_branch = settle(tasks, k as i32, Some(state));
            chain = vec![DolStmt::If { cond, then_branch, else_branch: chain }];
        }
    }
    statements.extend(chain);
    statements.push(DolStmt::Close { aliases });
    let wal_task = |t: &DolTask| -> Result<WalTask, MdbsError> {
        Ok(WalTask {
            name: t.def.name.clone(),
            database: t.database.clone(),
            site: route_for(routes, &t.database)?.site.clone(),
            compensation: t.def.compensation.clone(),
        })
    };
    let recovery = PlanRecovery {
        tasks: tasks.iter().map(wal_task).collect::<Result<_, _>>()?,
        decisions: (),
        states: states.to_vec(),
        oracle: tasks.iter().filter(|t| t.vital).map(|t| t.def.name.clone()).collect(),
        // Presumed abort — no decision record at all — undoes what the
        // failure branch would.
        abort_compensate: tasks
            .iter()
            .filter(|t| compensable(t))
            .map(|t| t.def.name.clone())
            .collect(),
    };
    let program = DolProgram { statements };
    Ok(GeneratedPlan { program, tasks: plan_tasks, recovery: Some(recovery) })
}

/// The branch that installs `state` (`None`: no state, the failure branch)
/// under `DECIDE code`. One `COMMIT` list and one `ABORT` list, so each costs
/// a single round trip when the engine fans it out; the engine skips a listed
/// task already where the list wants it (`ABORT` on `A`/`E`), so no per-task
/// guard is needed. An autocommitted task cannot be aborted: it is
/// compensated, and only if it committed.
fn settle(tasks: &[DolTask], code: i32, state: Option<&[String]>) -> Vec<DolStmt> {
    let member = |t: &DolTask| state.is_some_and(|s| s.contains(&t.def.name));
    let names = |keep: &dyn Fn(&DolTask) -> bool| -> Vec<String> {
        tasks.iter().filter(|t| keep(t)).map(|t| t.def.name.clone()).collect()
    };
    let commit = names(&|t| t.def.nocommit && member(t));
    let abort = names(&|t| t.def.nocommit && t.vital && !member(t));
    let compensate = names(&|t| compensable(t) && !member(t));
    let mut branch = vec![DolStmt::Decide(code)];
    if !commit.is_empty() {
        branch.push(DolStmt::Commit { tasks: commit });
    }
    if !abort.is_empty() {
        branch.push(DolStmt::Abort { tasks: abort });
    }
    branch.extend(compensate.into_iter().map(|t| DolStmt::If {
        cond: DolCond::StatusEq { task: t.clone(), status: TaskStatus::Committed },
        then_branch: vec![DolStmt::Compensate { task: t }],
        else_branch: Vec::new(),
    }));
    branch.push(DolStmt::SetStatus(code));
    branch
}

/// An oracle task that autocommits with a COMP clause: the failure branch
/// compensates it, and so does every state it is not a member of.
fn compensable(t: &DolTask) -> bool {
    !t.def.nocommit && t.vital && !t.def.compensation.is_empty()
}

/// `state` is reachable when every member reached the status its mode can
/// reach in phase one — `NOCOMMIT` members tested first, then autocommitted
/// ones, each in the state's order.
fn reachable(tasks: &[DolTask], state: &[String]) -> DolCond {
    let mut members: Vec<&DolTask> =
        state.iter().filter_map(|m| tasks.iter().find(|t| &t.def.name == m)).collect();
    members.sort_by_key(|t| !t.def.nocommit);
    let voted = members.into_iter().map(|t| DolCond::StatusEq {
        task: t.def.name.clone(),
        status: if t.def.nocommit { TaskStatus::Prepared } else { TaskStatus::Committed },
    });
    voted.reduce(|acc, c| DolCond::And(Box::new(acc), Box::new(c))).expect("state is not empty")
}

/// Generates a retrieval plan: one autocommit task per local query.
pub fn retrieval_plan(
    locals: &[LocalQuery],
    routes: &HashMap<String, DbRoute>,
) -> Result<GeneratedPlan, MdbsError> {
    let tasks: Vec<DolTask> = locals
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let def = TaskDef::new(format!("Q{}", i + 1), &l.key, vec![print(&l.statement)]);
            DolTask { def, database: l.database.clone(), vital: l.vital }
        })
        .collect();
    dol_plan(&tasks, &[], 0, false, routes)
}

/// A program of autocommitted tasks, each on the service of its database
/// (`service`), in one `TASK` batch: a transfer's INSERT, local DDL or
/// `ANALYZE`, a recovery wave, or a join's program (DESIGN §3a.14).
pub(crate) fn autocommit_plan(
    tasks: Vec<TaskDef>,
    routes: &HashMap<String, DbRoute>,
) -> Result<GeneratedPlan, MdbsError> {
    let task = |def: TaskDef| DolTask { database: def.service.clone(), def, vital: true };
    dol_plan(&tasks.into_iter().map(task).collect::<Vec<_>>(), &[], 0, false, routes)
}

/// The COMP clause of `local` in `comps` (empty without one) — refused for a
/// vital subquery on a service without a prepared state, which nothing else
/// could undo (§3.3): "our prototype MDBS raises an error condition and
/// refuses to process the query".
pub(crate) fn vital_compensation(
    local: &LocalQuery,
    route: &DbRoute,
    comps: &HashMap<String, Vec<String>>,
) -> Result<Vec<String>, MdbsError> {
    let compensation = comps.get(&local.key).cloned().unwrap_or_default();
    if local.vital && !route.supports_2pc && compensation.is_empty() {
        return Err(MdbsError::VitalWithoutCompensation { database: local.key.clone() });
    }
    Ok(compensation)
}

/// Generates the §3.2/§3.3 vital-update plan: a multitransaction whose one
/// acceptable state is its vital subqueries. A vital on a 2PC service runs
/// `NOCOMMIT`; one on an autocommit-only service needs a COMP clause; a
/// non-vital subquery autocommits outside the oracle.
///
/// `comps` maps scope keys to compensating SQL commands (from COMP clauses).
pub fn update_plan(
    locals: &[LocalQuery],
    comps: &HashMap<String, Vec<String>>,
    routes: &HashMap<String, DbRoute>,
) -> Result<GeneratedPlan, MdbsError> {
    let mut tasks = Vec::with_capacity(locals.len());
    for (i, l) in locals.iter().enumerate() {
        let route = route_for(routes, &l.database)?;
        let def = TaskDef {
            nocommit: l.vital && route.supports_2pc,
            compensation: vital_compensation(l, route, comps)?,
            ..TaskDef::new(format!("T{}", i + 1), &l.key, vec![print(&l.statement)])
        };
        tasks.push(DolTask { def, database: l.database.clone(), vital: l.vital });
    }
    let vitals: Vec<String> =
        tasks.iter().filter(|t| t.vital).map(|t| t.def.name.clone()).collect();
    let states = if vitals.is_empty() { Vec::new() } else { vec![vitals] };
    dol_plan(&tasks, &states, UPDATE_FAILED, false, routes)
}

/// One component query of a multitransaction, ready for planning.
#[derive(Debug, Clone)]
pub struct MtxQueryPlan {
    /// The disambiguated local queries of this component.
    pub locals: Vec<LocalQuery>,
    /// COMP clauses of this component, keyed by scope key.
    pub comps: HashMap<String, Vec<String>>,
}

/// Generates the §3.4 multitransaction plan.
///
/// `states` lists the acceptable termination states in preference order,
/// each a conjunction of scope keys. Task names are the scope keys
/// themselves (the paper refers to subqueries by database name/alias).
pub fn multitransaction_plan(
    queries: &[MtxQueryPlan],
    states: &[Vec<String>],
    routes: &HashMap<String, DbRoute>,
) -> Result<GeneratedPlan, MdbsError> {
    // Flatten and check key uniqueness ("The aliasing mechanism in the USE
    // statement allows database names to be unique inside a
    // multitransaction specification").
    let mut all: Vec<(&LocalQuery, &HashMap<String, Vec<String>>)> = Vec::new();
    for q in queries {
        for l in &q.locals {
            if all.iter().any(|(existing, _)| existing.key == l.key) {
                return Err(MdbsError::Mtx(format!(
                    "scope key `{}` is used by two subqueries; alias the databases so keys \
                     are unique inside the multitransaction",
                    l.key
                )));
            }
            all.push((l, &q.comps));
        }
    }
    if all.is_empty() {
        return Err(MdbsError::Mtx("multitransaction has no pertinent subqueries".into()));
    }

    // Validate acceptable states: at least one, and fewer than the failure
    // code, which no state's index may equal.
    if states.is_empty() {
        return Err(MdbsError::Mtx("multitransaction has no acceptable state".into()));
    }
    if states.len() > MTX_FAILED as usize {
        return Err(MdbsError::Mtx(format!(
            "multitransaction has {} acceptable states; at most {MTX_FAILED} are allowed",
            states.len()
        )));
    }
    for state in states {
        if state.is_empty() {
            return Err(MdbsError::Mtx("empty acceptable state".into()));
        }
        for member in state {
            if !all.iter().any(|(l, _)| &l.key == member) {
                return Err(MdbsError::Mtx(format!(
                    "acceptable state references `{member}`, which is not a subquery of this \
                     multitransaction"
                )));
            }
        }
    }

    let mut tasks = Vec::with_capacity(all.len());
    for (l, comps) in all {
        let route = route_for(routes, &l.database)?;
        let compensation = comps.get(&l.key).cloned().unwrap_or_default();
        if !route.supports_2pc && compensation.is_empty() {
            // §3.4: "If some of the accessed databases do not support 2PC,
            // compensation must be specified for all subqueries that are
            // executed on those databases."
            return Err(MdbsError::Mtx(format!(
                "database `{}` supports automatic commit only; its subquery needs a COMP clause",
                l.key
            )));
        }
        let def = TaskDef {
            nocommit: route.supports_2pc,
            compensation,
            ..TaskDef::new(&l.key, &l.key, vec![print(&l.statement)])
        };
        // Every subquery matters to state selection.
        tasks.push(DolTask { def, database: l.database.clone(), vital: true });
    }
    dol_plan(&tasks, states, MTX_FAILED, false, routes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{Wal, WalRecord};
    use dol::engine::TaskExecution;
    use dol::{print_program, DolEngine, DolError, DolService, ServiceFactory, TaskObserver};
    use msql_lang::parse_statement;
    use parking_lot::Mutex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn local(db: &str, key: &str, vital: bool, sql: &str) -> LocalQuery {
        LocalQuery {
            database: db.to_string(),
            key: key.to_string(),
            vital,
            statement: parse_statement(sql).unwrap(),
        }
    }

    fn routes(entries: &[(&str, bool)]) -> HashMap<String, DbRoute> {
        entries
            .iter()
            .enumerate()
            .map(|(i, (db, twopc))| {
                (
                    db.to_string(),
                    DbRoute {
                        database: db.to_string(),
                        site: format!("site{}", i + 1),
                        supports_2pc: *twopc,
                    },
                )
            })
            .collect()
    }

    fn paper_locals() -> Vec<LocalQuery> {
        vec![
            local(
                "continental",
                "continental",
                true,
                "UPDATE flights SET rate = rate * 1.1 WHERE source = 'Houston' AND destination = 'San Antonio'",
            ),
            local(
                "delta",
                "delta",
                false,
                "UPDATE flight SET rate = rate * 1.1 WHERE source = 'Houston' AND dest = 'San Antonio'",
            ),
            local(
                "united",
                "united",
                true,
                "UPDATE flight SET rates = rates * 1.1 WHERE sour = 'Houston' AND dest = 'San Antonio'",
            ),
        ]
    }

    #[test]
    fn paper_update_plan_shape() {
        // The §4.3 golden program: T1/T3 NOCOMMIT, T2 plain, IF (T1=P) AND
        // (T3=P) THEN COMMIT/0 ELSE ABORT/1, CLOSE.
        let plan = update_plan(
            &paper_locals(),
            &HashMap::new(),
            &routes(&[("continental", true), ("delta", true), ("united", true)]),
        )
        .unwrap();
        let text = print_program(&plan.program);
        assert!(text.contains("OPEN continental AT site1 AS continental;"), "{text}");
        assert!(text.contains("TASK T1 NOCOMMIT FOR continental"), "{text}");
        assert!(text.contains("TASK T2 FOR delta"), "{text}");
        assert!(!text.contains("TASK T2 NOCOMMIT"), "{text}");
        assert!(text.contains("TASK T3 NOCOMMIT FOR united"), "{text}");
        assert!(text.contains("IF (T1=P) AND (T3=P) THEN"), "{text}");
        assert!(text.contains("COMMIT T1, T3;"), "{text}");
        assert!(text.contains("DOLSTATUS=0;"), "{text}");
        assert!(text.contains("ABORT T1, T3;"), "{text}");
        assert!(text.contains("DOLSTATUS=1;"), "{text}");
        // The decision is logged before the first settle message.
        assert!(text.find("DECIDE 0;").unwrap() < text.find("COMMIT T1, T3;").unwrap(), "{text}");
        assert!(text.find("DECIDE 1;").unwrap() < text.find("ABORT T1, T3;").unwrap(), "{text}");
        assert!(text.contains("CLOSE continental delta united;"), "{text}");
        // And it reparses.
        assert!(dol::parse_program(&text).is_ok());
    }

    #[test]
    fn a_join_is_one_batch_with_its_combine_first() {
        let routes = routes(&[("avis", false), ("national", false), ("delta", false)]);
        let read = |db: &str| TaskDef::new(db, db, vec![format!("SELECT * FROM {db}_t")]);
        let plan =
            autocommit_plan(vec![read("delta"), read("avis"), read("national")], &routes).unwrap();
        let text = print_program(&plan.program);
        let combine = text.find("TASK delta FOR delta").unwrap();
        assert!(combine < text.find("TASK avis FOR avis").unwrap(), "{text}");
        assert!(!text.contains("IF"), "nothing waits behind a guard: {text}");
        assert!(text.trim_end().ends_with("CLOSE delta avis national;\nDOLEND"), "{text}");
        assert!(plan.recovery.is_none() && !text.contains("NOCOMMIT"), "{text}");
        assert_eq!(dol::parse_program(&text).unwrap(), plan.program);
        let reducer = autocommit_plan(vec![read("avis")], &routes).unwrap();
        assert_eq!(reducer.tasks.len(), 1);
    }

    #[test]
    fn vital_on_autocommit_service_requires_comp() {
        let err = update_plan(
            &paper_locals(),
            &HashMap::new(),
            &routes(&[("continental", false), ("delta", true), ("united", true)]),
        );
        assert!(matches!(err, Err(MdbsError::VitalWithoutCompensation { .. })));
    }

    #[test]
    fn comp_clause_enables_vital_on_autocommit_service() {
        let mut comps = HashMap::new();
        comps.insert(
            "continental".to_string(),
            vec!["UPDATE flights SET rate = rate / 1.1 WHERE source = 'Houston' AND destination = 'San Antonio'".to_string()],
        );
        let plan = update_plan(
            &paper_locals(),
            &comps,
            &routes(&[("continental", false), ("delta", true), ("united", true)]),
        )
        .unwrap();
        let text = print_program(&plan.program);
        // Continental runs autocommit with a COMP block.
        assert!(text.contains("TASK T1 FOR continental"), "{text}");
        assert!(text.contains("rate / 1.1"), "{text}");
        // Success now requires T1 committed and T3 prepared.
        assert!(text.contains("IF (T3=P) AND (T1=C) THEN"), "{text}");
        // The abort path compensates T1 only if it committed.
        assert!(text.contains("IF (T1=C) THEN"), "{text}");
        assert!(text.contains("COMPENSATE T1;"), "{text}");
        assert!(dol::parse_program(&text).is_ok());
    }

    #[test]
    fn all_non_vital_is_always_successful() {
        let locals = vec![
            local("delta", "delta", false, "UPDATE flight SET rate = 1"),
            local("united", "united", false, "UPDATE flight SET rates = 1"),
        ];
        let plan =
            update_plan(&locals, &HashMap::new(), &routes(&[("delta", true), ("united", true)]))
                .unwrap();
        let text = print_program(&plan.program);
        assert!(!text.contains("IF"), "{text}");
        assert!(text.contains("DOLSTATUS=0;"), "{text}");
    }

    #[test]
    fn retrieval_plan_uses_autocommit_tasks() {
        let locals = vec![
            local("avis", "avis", false, "SELECT code FROM cars"),
            local("national", "national", false, "SELECT vcode FROM vehicle"),
        ];
        let plan =
            retrieval_plan(&locals, &routes(&[("avis", true), ("national", false)])).unwrap();
        let text = print_program(&plan.program);
        assert!(text.contains("TASK Q1 FOR avis"), "{text}");
        assert!(text.contains("TASK Q2 FOR national"), "{text}");
        assert!(!text.contains("NOCOMMIT"), "{text}");
        assert_eq!(plan.tasks.len(), 2);
    }

    #[test]
    fn missing_route_is_a_catalog_error() {
        let locals = vec![local("ghost", "ghost", false, "SELECT x FROM t")];
        assert!(matches!(retrieval_plan(&locals, &HashMap::new()), Err(MdbsError::Catalog(_))));
    }

    fn travel_agent_queries() -> Vec<MtxQueryPlan> {
        vec![
            MtxQueryPlan {
                locals: vec![
                    local(
                        "continental",
                        "continental",
                        false,
                        "UPDATE f838 SET seatstatus = 'TAKEN' WHERE seatnu = 1",
                    ),
                    local("delta", "delta", false, "UPDATE f747 SET sstat = 'TAKEN' WHERE snu = 1"),
                ],
                comps: HashMap::new(),
            },
            MtxQueryPlan {
                locals: vec![
                    local("avis", "avis", false, "UPDATE cars SET carst = 'TAKEN' WHERE code = 1"),
                    local(
                        "national",
                        "national",
                        false,
                        "UPDATE vehicle SET vstat = 'TAKEN' WHERE vcode = 1",
                    ),
                ],
                comps: HashMap::new(),
            },
        ]
    }

    #[test]
    fn multitransaction_plan_tests_states_in_order() {
        let plan = multitransaction_plan(
            &travel_agent_queries(),
            &[vec!["continental".into(), "national".into()], vec!["delta".into(), "avis".into()]],
            &routes(&[("continental", true), ("delta", true), ("avis", true), ("national", true)]),
        )
        .unwrap();
        let text = print_program(&plan.program);
        // All four subqueries run NOCOMMIT.
        for key in ["continental", "delta", "avis", "national"] {
            assert!(text.contains(&format!("TASK {key} NOCOMMIT FOR {key}")), "{text}");
        }
        // Preferred state first.
        // Each member is tested for the status its mode can reach: a
        // NOCOMMIT task is never `C` after phase one.
        let first = text.find("(continental=P) AND (national=P)").unwrap();
        let second = text.find("(delta=P) AND (avis=P)").unwrap();
        assert!(first < second, "{text}");
        // Preferred branch sets DOLSTATUS=0, alternative 1, failure 99.
        assert!(text.contains("DOLSTATUS=0;"), "{text}");
        assert!(text.contains("DOLSTATUS=1;"), "{text}");
        assert!(text.contains(&format!("DOLSTATUS={MTX_FAILED};")), "{text}");
        // Every settle branch (including the failure chain) logs its
        // decision before any COMMIT/ABORT goes out.
        for decision in ["DECIDE 0;", "DECIDE 1;", &format!("DECIDE {MTX_FAILED};")] {
            assert!(text.contains(decision), "{text}");
        }
        // Each state settles with two lists — one round trip each when the
        // engine fans them out — not one guarded statement per subquery.
        for list in [
            "COMMIT continental, national;",
            "ABORT delta, avis;",
            "COMMIT delta, avis;",
            "ABORT continental, national;",
            "ABORT continental, delta, avis, national;",
        ] {
            assert!(text.contains(list), "missing `{list}` in {text}");
        }
        assert_eq!(text.matches("IF ").count(), 2, "one IF per state, no per-key guard: {text}");
        assert!(dol::parse_program(&text).is_ok());
    }

    #[test]
    fn duplicate_keys_across_queries_rejected() {
        let mut queries = travel_agent_queries();
        queries[1].locals[0].key = "continental".into();
        let err = multitransaction_plan(
            &queries,
            &[vec!["continental".into()]],
            &routes(&[("continental", true), ("delta", true), ("avis", true), ("national", true)]),
        );
        assert!(matches!(err, Err(MdbsError::Mtx(_))));
    }

    #[test]
    fn state_referencing_unknown_key_rejected() {
        let err = multitransaction_plan(
            &travel_agent_queries(),
            &[vec!["hertz".into()]],
            &routes(&[("continental", true), ("delta", true), ("avis", true), ("national", true)]),
        );
        assert!(matches!(err, Err(MdbsError::Mtx(_))));
    }

    #[test]
    fn update_plan_recovery_covers_vitals_only() {
        let mut comps = HashMap::new();
        comps.insert(
            "continental".to_string(),
            vec!["UPDATE flights SET rate = rate / 1.1".to_string()],
        );
        let plan = update_plan(
            &paper_locals(),
            &comps,
            &routes(&[("continental", false), ("delta", true), ("united", true)]),
        )
        .unwrap();
        let rec = plan.recovery.clone().expect("vital update has recovery material");
        assert_eq!(rec.tasks.len(), 3, "all tasks are logged for routing");
        assert_eq!(rec.tasks[0].site, "site1");
        assert!(!rec.tasks[0].compensation.is_empty());
        // Oracle and the single acceptable state cover the vitals T1, T3.
        assert_eq!(rec.states, vec![vec!["T1".to_string(), "T3".to_string()]]);
        assert_eq!(rec.oracle, vec!["T1".to_string(), "T3".to_string()]);
        // DECIDE 0 commits the prepared vital; DECIDE 1 compensates the
        // autocommitted one. Presumed abort matches DECIDE 1.
        assert_eq!(settled(&plan, Some(0)), (Some(0), vec!["T3".to_string()], vec![]));
        assert_eq!(settled(&plan, Some(1)), (None, vec![], vec!["T1".to_string()]));
        assert_eq!(settled(&plan, None), settled(&plan, Some(1)));
        assert_eq!(rec.abort_compensate, vec!["T1".to_string()]);
    }

    #[test]
    fn non_vital_plans_have_no_recovery_material() {
        let locals = vec![local("delta", "delta", false, "UPDATE flight SET rate = 1")];
        let plan = update_plan(&locals, &HashMap::new(), &routes(&[("delta", true)])).unwrap();
        assert!(plan.recovery.is_none());
        let locals = vec![local("delta", "delta", false, "SELECT rate FROM flight")];
        let plan = retrieval_plan(&locals, &routes(&[("delta", true)])).unwrap();
        assert!(plan.recovery.is_none());
    }

    #[test]
    fn mtx_recovery_derives_each_decide_code() {
        let mut queries = travel_agent_queries();
        // avis becomes autocommit-only with a COMP clause.
        queries[1].comps.insert(
            "avis".to_string(),
            vec!["UPDATE cars SET carst = 'AVAIL' WHERE code = 1".to_string()],
        );
        let states = vec![
            vec!["continental".to_string(), "national".to_string()],
            vec!["delta".to_string(), "avis".to_string()],
        ];
        let plan = multitransaction_plan(
            &queries,
            &states,
            &routes(&[("continental", true), ("delta", true), ("avis", false), ("national", true)]),
        )
        .unwrap();
        // Only NOCOMMIT subqueries are listed: autocommitted avis is already
        // `C` as a member, and as a non-member can only be compensated.
        let text = print_program(&plan.program);
        for settle in [
            "IF (delta=P) AND (avis=C) THEN",
            "COMMIT continental, national;",
            "ABORT delta;",
            "COMMIT delta;",
            "ABORT continental, national;",
            "ABORT continental, delta, national;",
            "IF (avis=C) THEN",
            "COMPENSATE avis;",
        ] {
            assert!(text.contains(settle), "missing `{settle}` in {text}");
        }
        assert!(!text.contains("ABORT delta, avis"), "{text}");
        let rec = plan.recovery.clone().expect("multitransactions always have recovery material");
        assert_eq!(rec.states, states);
        assert_eq!(
            rec.oracle,
            vec![
                "continental".to_string(),
                "delta".to_string(),
                "avis".to_string(),
                "national".to_string()
            ]
        );
        // State 0 (continental+national): avis is an autocommitted
        // non-member, so it is compensated.
        let avis = vec!["avis".to_string()];
        assert_eq!(settled(&plan, Some(0)), (Some(0), states[0].clone(), avis.clone()));
        // State 1 (delta+avis): avis is a member — nothing to compensate,
        // and nothing to commit either: it committed in phase one.
        assert_eq!(settled(&plan, Some(1)), (Some(1), vec!["delta".to_string()], vec![]));
        // Failure and presumed abort compensate every COMP-bearing task.
        assert_eq!(settled(&plan, Some(MTX_FAILED)), (None, vec![], avis.clone()));
        assert_eq!(settled(&plan, None), settled(&plan, Some(MTX_FAILED)));
        assert_eq!(rec.abort_compensate, avis);
    }

    /// State 99's `DECIDE 99` would be the failure branch's too, and a run
    /// that installed it would read as failed: 99 states is the most a
    /// multitransaction takes.
    #[test]
    fn a_multitransaction_takes_at_most_99_states() {
        let keys = ["continental", "delta", "avis", "national"];
        let routes = routes(&keys.map(|k| (k, true)));
        let states: Vec<Vec<String>> = (0..100).map(|i| vec![keys[i % 4].to_string()]).collect();
        let err = multitransaction_plan(&travel_agent_queries(), &states, &routes);
        assert!(matches!(err, Err(MdbsError::Mtx(_))), "{err:?}");
        let plan = multitransaction_plan(&travel_agent_queries(), &states[..99], &routes).unwrap();
        let text = print_program(&plan.program);
        assert_eq!(text.matches(&format!("DECIDE {MTX_FAILED};")).count(), 1, "{text}");
        assert_eq!(settled(&plan, Some(98)).0, Some(98));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "failure code 1 is the index of one of 2 states")]
    fn a_failure_code_that_indexes_a_state_is_a_planner_bug() {
        let routes = routes(&[("delta", true)]);
        let def = TaskDef { nocommit: true, ..TaskDef::new("T1", "delta", vec![]) };
        let tasks = [DolTask { def, database: "delta".into(), vital: true }];
        let states = vec![vec!["T1".to_string()]; 2];
        let _ = dol_plan(&tasks, &states, UPDATE_FAILED, false, &routes);
    }

    #[test]
    fn non_2pc_subquery_needs_comp_in_multitransaction() {
        let err = multitransaction_plan(
            &travel_agent_queries(),
            &[vec!["continental".into(), "national".into()]],
            &routes(&[("continental", false), ("delta", true), ("avis", true), ("national", true)]),
        );
        assert!(matches!(err, Err(MdbsError::Mtx(_))));
    }

    /// The generators as they were before `dol_plan` — a vital set and a
    /// multitransaction each written out — kept as the definition of the
    /// settle rule (`PlanTask` has lost its unread `compensated` field), with
    /// the decision table each built beside its plan: the oracle for what
    /// recovery derives from the log.
    mod reference {
        use super::*;

        /// What one `DECIDE` code meant: the state it installs (`None`: the
        /// failure branch), the tasks it commits and those it compensates.
        #[derive(Debug)]
        pub struct DecisionPlan {
            pub state: Option<i32>,
            pub commit: Vec<String>,
            pub compensate: Vec<String>,
        }

        /// A plan's decision table, keyed by `DECIDE` code.
        pub type Decisions = HashMap<i32, DecisionPlan>;

        pub fn retrieval_plan(
            locals: &[LocalQuery],
            routes: &HashMap<String, DbRoute>,
        ) -> Result<GeneratedPlan, MdbsError> {
            let services = locals.iter().map(|l| (l.key.as_str(), l.database.as_str()));
            let (mut statements, aliases) = open_statements(services, routes)?;
            let mut tasks = Vec::new();
            for (i, l) in locals.iter().enumerate() {
                let name = format!("Q{}", i + 1);
                statements.push(DolStmt::Task(TaskDef {
                    name: name.clone(),
                    service: l.key.clone(),
                    nocommit: false,
                    verb: dol::TaskVerb::Run,
                    commands: vec![print(&l.statement)],
                    compensation: Vec::new(),
                }));
                tasks.push(PlanTask {
                    task: name,
                    database: l.database.clone(),
                    key: l.key.clone(),
                    vital: l.vital,
                });
            }
            statements.push(DolStmt::SetStatus(0));
            statements.push(DolStmt::Close { aliases });
            Ok(GeneratedPlan { program: DolProgram { statements }, tasks, recovery: None })
        }

        pub struct VitalTask {
            pub name: String,
            pub database: String,
            pub key: String,
            pub vital: bool,
            pub commands: Vec<String>,
            pub compensation: Vec<String>,
        }

        pub fn update_plan(
            locals: &[LocalQuery],
            comps: &HashMap<String, Vec<String>>,
            routes: &HashMap<String, DbRoute>,
        ) -> Result<(GeneratedPlan, Decisions), MdbsError> {
            let mut tasks = Vec::with_capacity(locals.len());
            for (i, l) in locals.iter().enumerate() {
                let compensation = comps.get(&l.key).cloned().unwrap_or_default();
                if l.vital
                    && !route_for(routes, &l.database)?.supports_2pc
                    && compensation.is_empty()
                {
                    return Err(MdbsError::VitalWithoutCompensation { database: l.key.clone() });
                }
                tasks.push(VitalTask {
                    name: format!("T{}", i + 1),
                    database: l.database.clone(),
                    key: l.key.clone(),
                    vital: l.vital,
                    commands: vec![print(&l.statement)],
                    compensation,
                });
            }
            vital_set_plan(tasks, routes, false)
        }

        pub fn vital_set_plan(
            set: Vec<VitalTask>,
            routes: &HashMap<String, DbRoute>,
            rollback: bool,
        ) -> Result<(GeneratedPlan, Decisions), MdbsError> {
            let services = set.iter().map(|t| (t.key.as_str(), t.database.as_str()));
            let (mut statements, aliases) = open_statements(services, routes)?;
            let mut tasks = Vec::new();
            let mut wal_tasks = Vec::new();
            let mut prepared_vitals: Vec<String> = Vec::new();
            let mut compensated_vitals: Vec<String> = Vec::new();
            let mut vitals: Vec<String> = Vec::new();

            for t in set {
                let route = route_for(routes, &t.database)?;
                let nocommit = t.vital && route.supports_2pc;
                if nocommit {
                    prepared_vitals.push(t.name.clone());
                } else if t.vital {
                    compensated_vitals.push(t.name.clone());
                }
                if t.vital {
                    vitals.push(t.name.clone());
                }
                wal_tasks.push(WalTask {
                    name: t.name.clone(),
                    database: t.database.clone(),
                    site: route.site.clone(),
                    compensation: t.compensation.clone(),
                });
                tasks.push(PlanTask {
                    task: t.name.clone(),
                    database: t.database,
                    key: t.key.clone(),
                    vital: t.vital,
                });
                statements.push(DolStmt::Task(TaskDef {
                    name: t.name,
                    service: t.key,
                    nocommit,
                    verb: dol::TaskVerb::Run,
                    commands: t.commands,
                    compensation: t.compensation,
                }));
            }

            if vitals.is_empty() {
                statements.push(DolStmt::SetStatus(0));
            } else {
                fn voted(
                    tasks: &[String],
                    status: TaskStatus,
                ) -> impl Iterator<Item = DolCond> + '_ {
                    tasks.iter().map(move |t| DolCond::StatusEq { task: t.clone(), status })
                }
                let cond = voted(&prepared_vitals, TaskStatus::Prepared)
                    .chain(voted(&compensated_vitals, TaskStatus::Committed))
                    .reduce(|acc, c| DolCond::And(Box::new(acc), Box::new(c)))
                    .expect("vital set non-empty");
                let mut then_branch = vec![DolStmt::Decide(0)];
                if !prepared_vitals.is_empty() {
                    then_branch.push(DolStmt::Commit { tasks: prepared_vitals.clone() });
                }
                then_branch.push(DolStmt::SetStatus(0));
                let mut else_branch = vec![DolStmt::Decide(1)];
                if !prepared_vitals.is_empty() {
                    else_branch.push(DolStmt::Abort { tasks: prepared_vitals.clone() });
                }
                for t in &compensated_vitals {
                    else_branch.push(DolStmt::If {
                        cond: DolCond::StatusEq { task: t.clone(), status: TaskStatus::Committed },
                        then_branch: vec![DolStmt::Compensate { task: t.clone() }],
                        else_branch: Vec::new(),
                    });
                }
                else_branch.push(DolStmt::SetStatus(1));
                if rollback {
                    statements.extend(else_branch);
                } else {
                    statements.push(DolStmt::If { cond, then_branch, else_branch });
                }
            }
            statements.push(DolStmt::Close { aliases });
            let (recovery, decisions) = if vitals.is_empty() {
                (None, Decisions::new())
            } else {
                let decisions = HashMap::from([
                    (
                        0,
                        DecisionPlan {
                            state: Some(0),
                            commit: prepared_vitals,
                            compensate: Vec::new(),
                        },
                    ),
                    (
                        1,
                        DecisionPlan {
                            state: None,
                            commit: Vec::new(),
                            compensate: compensated_vitals.clone(),
                        },
                    ),
                ]);
                let recovery = PlanRecovery {
                    tasks: wal_tasks,
                    decisions: (),
                    states: vec![vitals.clone()],
                    oracle: vitals,
                    abort_compensate: compensated_vitals,
                };
                (Some(recovery), decisions)
            };
            let plan = GeneratedPlan { program: DolProgram { statements }, tasks, recovery };
            Ok((plan, decisions))
        }

        pub fn multitransaction_plan(
            queries: &[MtxQueryPlan],
            states: &[Vec<String>],
            routes: &HashMap<String, DbRoute>,
        ) -> Result<(GeneratedPlan, Decisions), MdbsError> {
            let mut all: Vec<(&LocalQuery, &HashMap<String, Vec<String>>)> = Vec::new();
            for q in queries {
                for l in &q.locals {
                    if all.iter().any(|(existing, _)| existing.key == l.key) {
                        return Err(MdbsError::Mtx(format!(
                            "scope key `{}` is used by two subqueries; alias the databases so \
                             keys are unique inside the multitransaction",
                            l.key
                        )));
                    }
                    all.push((l, &q.comps));
                }
            }
            if all.is_empty() {
                return Err(MdbsError::Mtx("multitransaction has no pertinent subqueries".into()));
            }
            for state in states {
                if state.is_empty() {
                    return Err(MdbsError::Mtx("empty acceptable state".into()));
                }
                for member in state {
                    if !all.iter().any(|(l, _)| &l.key == member) {
                        return Err(MdbsError::Mtx(format!(
                            "acceptable state references `{member}`, which is not a subquery \
                             of this multitransaction"
                        )));
                    }
                }
            }

            let services = all.iter().map(|(l, _)| (l.key.as_str(), l.database.as_str()));
            let (mut statements, aliases) = open_statements(services, routes)?;
            let mut tasks = Vec::new();
            let mut wal_tasks = Vec::new();
            let mut two_phase: HashMap<String, bool> = HashMap::new();
            for (l, comps) in &all {
                let route = route_for(routes, &l.database)?;
                let compensation = comps.get(&l.key).cloned().unwrap_or_default();
                let nocommit = route.supports_2pc;
                two_phase.insert(l.key.clone(), nocommit);
                if !route.supports_2pc && compensation.is_empty() {
                    return Err(MdbsError::Mtx(format!(
                        "database `{}` supports automatic commit only; its subquery needs a \
                         COMP clause",
                        l.key
                    )));
                }
                statements.push(DolStmt::Task(TaskDef {
                    name: l.key.clone(),
                    service: l.key.clone(),
                    nocommit,
                    verb: dol::TaskVerb::Run,
                    commands: vec![print(&l.statement)],
                    compensation: compensation.clone(),
                }));
                wal_tasks.push(WalTask {
                    name: l.key.clone(),
                    database: l.database.clone(),
                    site: route.site.clone(),
                    compensation: compensation.clone(),
                });
                tasks.push(PlanTask {
                    task: l.key.clone(),
                    database: l.database.clone(),
                    key: l.key.clone(),
                    vital: true,
                });
            }

            let all_keys: Vec<String> = all.iter().map(|(l, _)| l.key.clone()).collect();
            let comp_map: HashMap<String, bool> = all
                .iter()
                .map(|(l, comps)| {
                    (l.key.clone(), comps.get(&l.key).map(|c| !c.is_empty()).unwrap_or(false))
                })
                .collect();

            let mut chain = vec![DolStmt::Decide(MTX_FAILED)];
            chain.extend(settle_branch(&all_keys, &[], &two_phase, &comp_map));
            chain.push(DolStmt::SetStatus(MTX_FAILED));

            for (idx, state) in states.iter().enumerate().rev() {
                let mut cond: Option<DolCond> = None;
                for member in state {
                    let c = DolCond::Or(
                        Box::new(DolCond::StatusEq {
                            task: member.clone(),
                            status: TaskStatus::Prepared,
                        }),
                        Box::new(DolCond::StatusEq {
                            task: member.clone(),
                            status: TaskStatus::Committed,
                        }),
                    );
                    cond = Some(match cond {
                        Some(acc) => DolCond::And(Box::new(acc), Box::new(c)),
                        None => c,
                    });
                }
                let mut branch = vec![DolStmt::Decide(idx as i32)];
                branch.extend(settle_branch(&all_keys, state, &two_phase, &comp_map));
                branch.push(DolStmt::SetStatus(idx as i32));
                chain = vec![DolStmt::If {
                    cond: cond.expect("state non-empty"),
                    then_branch: branch,
                    else_branch: chain,
                }];
            }
            statements.extend(chain);
            statements.push(DolStmt::Close { aliases });

            let comp_keys = |keys: &[String]| -> Vec<String> {
                keys.iter()
                    .filter(|k| comp_map.get(*k).copied().unwrap_or(false))
                    .cloned()
                    .collect()
            };
            let mut decisions = HashMap::new();
            for (idx, state) in states.iter().enumerate() {
                let non_members: Vec<String> =
                    all_keys.iter().filter(|k| !state.contains(k)).cloned().collect();
                decisions.insert(
                    idx as i32,
                    DecisionPlan {
                        state: Some(idx as i32),
                        commit: state.clone(),
                        compensate: comp_keys(&non_members),
                    },
                );
            }
            decisions.insert(
                MTX_FAILED,
                DecisionPlan { state: None, commit: Vec::new(), compensate: comp_keys(&all_keys) },
            );
            let recovery = Some(PlanRecovery {
                tasks: wal_tasks,
                decisions: (),
                states: states.to_vec(),
                oracle: all_keys.clone(),
                abort_compensate: comp_keys(&all_keys),
            });
            Ok((GeneratedPlan { program: DolProgram { statements }, tasks, recovery }, decisions))
        }

        fn settle_branch(
            all_keys: &[String],
            members: &[String],
            two_phase: &HashMap<String, bool>,
            comp_map: &HashMap<String, bool>,
        ) -> Vec<DolStmt> {
            let listed = |member: bool| -> Vec<String> {
                all_keys
                    .iter()
                    .filter(|k| members.contains(k) == member && two_phase[*k])
                    .cloned()
                    .collect()
            };
            let mut out = Vec::new();
            let commit = listed(true);
            if !commit.is_empty() {
                out.push(DolStmt::Commit { tasks: commit });
            }
            let abort = listed(false);
            if !abort.is_empty() {
                out.push(DolStmt::Abort { tasks: abort });
            }
            for key in all_keys.iter().filter(|k| !members.contains(k) && comp_map[*k]) {
                out.push(DolStmt::If {
                    cond: DolCond::StatusEq { task: key.clone(), status: TaskStatus::Committed },
                    then_branch: vec![DolStmt::Compensate { task: key.clone() }],
                    else_branch: Vec::new(),
                });
            }
            out
        }
    }

    /// A scripted run: each task ends phase one in the status the script
    /// gives it; every step after that — second-phase messages, DECIDE codes,
    /// resolutions — lands in one log, in the order the engine takes it.
    struct Scripted {
        statuses: HashMap<String, TaskStatus>,
        log: Arc<Mutex<Vec<String>>>,
    }

    impl ServiceFactory for Scripted {
        fn connect(&self, _service: &str, _site: &str) -> Result<Box<dyn DolService>, DolError> {
            let log = Arc::clone(&self.log);
            Ok(Box::new(Scripted { statuses: self.statuses.clone(), log }))
        }
    }

    impl DolService for Scripted {
        fn execute_task(&mut self, task: &TaskDef) -> TaskExecution {
            TaskExecution { status: self.statuses[&task.name], result: None, error: None }
        }

        fn commit_task(&mut self, task: &str) -> Result<(), DolError> {
            self.log.lock().push(format!("commit {task}"));
            Ok(())
        }

        fn abort_task(&mut self, task: &str) -> Result<(), DolError> {
            self.log.lock().push(format!("abort {task}"));
            Ok(())
        }

        fn compensate_task(&mut self, task: &TaskDef) -> Result<(), DolError> {
            self.log.lock().push(format!("compensate {}", task.name));
            Ok(())
        }

        fn close(&mut self) {}
    }

    impl TaskObserver for Scripted {
        fn task_executed(&self, _task: &TaskDef, _status: TaskStatus) -> Result<(), DolError> {
            Ok(())
        }

        fn decision(&self, code: i32) -> Result<(), DolError> {
            self.log.lock().push(format!("decide {code}"));
            Ok(())
        }

        fn task_resolved(&self, task: &str, status: TaskStatus) -> Result<(), DolError> {
            self.log.lock().push(format!("resolved {task} {}", status.code()));
            Ok(())
        }
    }

    /// What a run did after phase one, its DOLSTATUS and every task's final
    /// status.
    type Settled = (Vec<String>, i32, BTreeMap<String, TaskStatus>);

    /// Runs `program` with its tasks ending phase one as `statuses` says.
    fn run(
        program: &DolProgram,
        statuses: &HashMap<String, TaskStatus>,
    ) -> Result<Settled, String> {
        let log = Arc::new(Mutex::new(Vec::new()));
        let scripted = Arc::new(Scripted { statuses: statuses.clone(), log: Arc::clone(&log) });
        let mut engine = DolEngine::new(&*scripted);
        engine.observer = Some(Arc::clone(&scripted) as Arc<dyn TaskObserver>);
        let out = engine.execute(program).map_err(|e| e.to_string())?;
        let finals = out.task_statuses.into_iter().collect();
        let steps = std::mem::take(&mut *log.lock());
        Ok((steps, out.dolstatus, finals))
    }

    /// Every phase-one outcome a plan's tasks can reach: `P`/`A`/`E` for a
    /// `NOCOMMIT` task, `C`/`A`/`E` for an autocommitted one.
    fn outcome_vectors(program: &DolProgram) -> Vec<HashMap<String, TaskStatus>> {
        let mut vectors = vec![HashMap::new()];
        for task in program.tasks() {
            let done = if task.nocommit { TaskStatus::Prepared } else { TaskStatus::Committed };
            vectors = vectors
                .into_iter()
                .flat_map(|v| {
                    [done, TaskStatus::Aborted, TaskStatus::Error].map(|status| {
                        let mut v = v.clone();
                        v.insert(task.name.clone(), status);
                        v
                    })
                })
                .collect();
        }
        vectors
    }

    /// What recovery settles for `plan` after `decision` is logged (`None`:
    /// the coordinator died first), every task having reached its phase-one
    /// success — `P` after `NOCOMMIT`, `C` after autocommit — as the branch
    /// of a state requires of its members.
    fn settled(
        plan: &GeneratedPlan,
        decision: Option<i32>,
    ) -> (Option<usize>, Vec<String>, Vec<String>) {
        let rec = plan.recovery.as_ref().expect("a plan with a settle phase");
        let mtx_id = 1;
        let begin = WalRecord::Begin {
            mtx_id,
            tasks: rec.tasks.clone(),
            states: rec.states.clone(),
            oracle: rec.oracle.clone(),
            abort_compensate: rec.abort_compensate.clone(),
        };
        let prepared = plan.program.tasks().into_iter().map(|t| WalRecord::TaskPrepared {
            mtx_id,
            task: t.name.clone(),
            status: if t.nocommit { 'P' } else { 'C' },
        });
        let decide = decision.map(|code| WalRecord::Decide { mtx_id, code });
        let wal = Wal::in_memory();
        for record in std::iter::once(begin).chain(prepared).chain(decide) {
            wal.append(&record).unwrap();
        }
        let [image] = &wal.replay().unwrap()[..] else { panic!("one image") };
        image.settlement()
    }

    /// Requires recovery to derive, from a log of `new`, each entry of the
    /// decision table the reference generator built beside it, and the
    /// failure code's entry when no decision was logged — under DESIGN
    /// §3a.4's rule that a decision commits `NOCOMMIT` tasks only and
    /// compensates autocommitted ones only.
    fn derives_table(new: &GeneratedPlan, table: &reference::Decisions, failure: i32, case: &str) {
        if table.is_empty() {
            assert!(new.recovery.is_none(), "{case}");
            return;
        }
        let nocommit: HashMap<&str, bool> =
            new.program.tasks().into_iter().map(|t| (t.name.as_str(), t.nocommit)).collect();
        let only = |list: &[String], two_phase: bool| -> Vec<String> {
            list.iter().filter(|t| nocommit[t.as_str()] == two_phase).cloned().collect()
        };
        for (&code, d) in table {
            let state = d.state.map(|k| k as usize);
            let expected = (state, only(&d.commit, true), only(&d.compensate, false));
            assert_eq!(settled(new, Some(code)), expected, "{case}\nDECIDE {code}");
        }
        assert!(table[&failure].state.is_none(), "{case}");
        assert_eq!(settled(new, None), settled(new, Some(failure)), "{case}\npresumed abort");
    }

    /// Requires `old` and `new` to settle alike on every phase-one outcome.
    fn settles_alike(old: &GeneratedPlan, new: &GeneratedPlan, case: &str) {
        assert_eq!(old.tasks, new.tasks, "{case}");
        for statuses in outcome_vectors(&old.program) {
            let (o, n) = (run(&old.program, &statuses), run(&new.program, &statuses));
            assert_eq!(o, n, "{case}\nphase one: {statuses:?}");
        }
    }

    #[test]
    fn the_one_generator_settles_as_the_vital_set_and_multitransaction_generators_did() {
        let mut rng = StdRng::seed_from_u64(30);
        for case in 0..150 {
            // 1–5 tasks: 2PC or autocommit, vital or not, COMP or not — a
            // vital on an autocommit-only service always has one, as §3.3
            // refuses it otherwise.
            let n = rng.gen_range(1..6usize);
            let shape: Vec<(bool, bool, bool)> = (0..n)
                .map(|_| {
                    let (twopc, vital) = (rng.gen_bool(0.5), rng.gen_bool(0.6));
                    (twopc, vital, (vital && !twopc) || rng.gen_bool(0.5))
                })
                .collect();
            // 1–3 overlapping acceptable states over them, and the rollback flag.
            let states: Vec<Vec<String>> = (0..rng.gen_range(1..4usize))
                .map(|_| {
                    let mut state: Vec<String> =
                        (0..n).filter(|_| rng.gen_bool(0.5)).map(|i| format!("k{i}")).collect();
                    if state.is_empty() {
                        state.push(format!("k{}", rng.gen_range(0..n)));
                    }
                    state
                })
                .collect();
            let rollback = rng.gen_bool(0.3);
            let label = format!("case {case}: {shape:?} states {states:?} rollback {rollback}");

            let entries: Vec<(String, bool)> =
                shape.iter().enumerate().map(|(i, s)| (format!("db{i}"), s.0)).collect();
            let entries: Vec<(&str, bool)> =
                entries.iter().map(|(d, t)| (d.as_str(), *t)).collect();
            let routes = routes(&entries);
            let locals: Vec<LocalQuery> = shape
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    local(
                        &format!("db{i}"),
                        &format!("k{i}"),
                        s.1,
                        &format!("UPDATE t SET x = {i}"),
                    )
                })
                .collect();
            let comp = |i: usize| vec![format!("UPDATE t SET x = -{i}")];
            let comps: HashMap<String, Vec<String>> =
                (0..n).filter(|&i| shape[i].2).map(|i| (format!("k{i}"), comp(i))).collect();

            // Updates and retrievals print byte for byte as they did, and
            // carry the same provenance and recovery material.
            let ((old, table), new) = (
                reference::update_plan(&locals, &comps, &routes).unwrap(),
                update_plan(&locals, &comps, &routes).unwrap(),
            );
            assert_eq!(print_program(&old.program), print_program(&new.program), "{label}");
            assert_eq!(old, new, "{label}");
            derives_table(&new, &table, UPDATE_FAILED, &label);
            let old = reference::retrieval_plan(&locals, &routes).unwrap();
            let new = retrieval_plan(&locals, &routes).unwrap();
            assert_eq!(print_program(&old.program), print_program(&new.program), "{label}");
            assert_eq!(old, new, "{label}");

            // A vital set under the rollback flag: a synchronization point's
            // shape, its tasks being the members' votes.
            let vital_set = |i: usize, s: &(bool, bool, bool)| reference::VitalTask {
                name: format!("G{i}"),
                database: format!("db{i}"),
                key: format!("k{i}"),
                vital: s.1,
                commands: Vec::new(),
                compensation: if s.2 { comp(i) } else { Vec::new() },
            };
            let set: Vec<reference::VitalTask> =
                shape.iter().enumerate().map(|(i, s)| vital_set(i, s)).collect();
            let tasks: Vec<DolTask> = set
                .iter()
                .zip(&shape)
                .map(|(t, s)| DolTask {
                    def: TaskDef {
                        nocommit: t.vital && s.0,
                        compensation: t.compensation.clone(),
                        ..TaskDef::new(&t.name, &t.key, Vec::new())
                    },
                    database: t.database.clone(),
                    vital: t.vital,
                })
                .collect();
            let vitals: Vec<String> =
                tasks.iter().filter(|t| t.vital).map(|t| t.def.name.clone()).collect();
            let one_state = if vitals.is_empty() { Vec::new() } else { vec![vitals] };
            let (old, table) = reference::vital_set_plan(set, &routes, rollback).unwrap();
            let new = dol_plan(&tasks, &one_state, UPDATE_FAILED, rollback, &routes).unwrap();
            assert_eq!(print_program(&old.program), print_program(&new.program), "{label}");
            settles_alike(&old, &new, &label);
            derives_table(&new, &table, UPDATE_FAILED, &label);

            // The same tasks as a multitransaction, one component query each.
            let queries: Vec<MtxQueryPlan> = locals
                .iter()
                .map(|l| MtxQueryPlan {
                    locals: vec![l.clone()],
                    comps: comps
                        .get(&l.key)
                        .map(|c| (l.key.clone(), c.clone()))
                        .into_iter()
                        .collect(),
                })
                .collect();
            let old = reference::multitransaction_plan(&queries, &states, &routes);
            let new = multitransaction_plan(&queries, &states, &routes);
            match (old, new) {
                (Ok((old, table)), Ok(new)) => {
                    settles_alike(&old, &new, &label);
                    derives_table(&new, &table, MTX_FAILED, &label);
                }
                (old, new) => assert_eq!(old.err(), new.err(), "{label}"),
            }
        }
    }
}
