//! Plan execution and outcome reporting: the *sequence* third of
//! plan → sequence → talk.
//!
//! The executor decides nothing about data flow and speaks no protocol. It
//! runs generated DOL programs ([`crate::translate::GeneratedPlan`]) through
//! [`dol::DolEngine`] — one way, [`Executor::run_program`], each task sending
//! what its verb ([`dol::TaskVerb`]) says over the session's LAM connections:
//! the program is the whole plan — and reads what each task produced from the
//! run's [`DolOutcome`] alone (its [`TaskOutput`] under the task's name), then
//! shapes the task statuses and outputs into user-facing reports:
//!
//! * retrievals become [`Multitable`]s (one table per database, §2);
//! * a cross-database join's [`JoinPlan`] becomes one program — two only
//!   when the reducer's keys must filter another travelling site — whose
//!   one task is the coordinator's `COMBINE`: the partials it names travel
//!   straight to the coordinator's LAM (the "partial results are collected
//!   in one database, acting as the coordinator" flow of §4.1, results "sent
//!   … to other LAMs"), and it returns a single table; nothing here moves a
//!   partial's rows on to anyone;
//! * updates and multitransactions report per-database termination states
//!   and the DOL return code.

use crate::error::MdbsError;
use crate::lamclient::{correlation_id, LamFactory, TaskOutput};
use crate::merge;
use crate::multitable::{Multitable, MultitableEntry, MultitableFailure};
use crate::planner::{Combine, JoinPlan, SitePlan};
use crate::retry::{shared_stats, ExecStats, SharedExecStats};
use crate::translate::plangen::autocommit_plan;
use crate::translate::{GeneratedPlan, PushdownPlan};
use crate::wal::{installed_state, Wal, WalObserver, WalRecord};
use dol::Traveller;
use dol::{DolEngine, DolError, DolOutcome, HomeEdge, Partial, TaskDef, TaskStatus, TaskVerb};
use ldbs::engine::ResultSet;
use ldbs::value::Value;
use netsim::FaultKind;
use obs::{labeled, ExplainReport, SpanCtx};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-database outcome of a modification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbOutcome {
    /// The database.
    pub database: String,
    /// Its scope key.
    pub key: String,
    /// Terminal status of its subquery.
    pub status: TaskStatus,
    /// Rows affected (0 when the subquery aborted).
    pub affected: u64,
    /// Local error, if the subquery failed.
    pub error: Option<String>,
    /// Network attempts spent on the subquery (0 = its LAM was never
    /// reached, 1 = no retries).
    pub attempts: u32,
    /// The last network fault seen executing the subquery, if any.
    pub fault: Option<FaultKind>,
}

/// Outcome of a vital multiple update (§3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateReport {
    /// True when all vital subqueries committed.
    pub success: bool,
    /// The DOL return code.
    pub return_code: i32,
    /// Per-database outcomes, in plan order.
    pub outcomes: Vec<DbOutcome>,
    /// Communication accounting for this statement (retries, faults,
    /// degraded subqueries).
    pub stats: ExecStats,
}

/// Outcome of a multitransaction (§3.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MtxReport {
    /// Index of the achieved acceptable state (0 = preferred), or `None`
    /// when the multitransaction failed.
    pub achieved_state: Option<usize>,
    /// The DOL return code.
    pub return_code: i32,
    /// Per-database outcomes.
    pub outcomes: Vec<DbOutcome>,
    /// Communication accounting for this statement.
    pub stats: ExecStats,
}

impl From<MtxReport> for UpdateReport {
    /// A vital update is a multitransaction with one acceptable state, its
    /// vitals: it succeeded when it reached that state.
    fn from(r: MtxReport) -> Self {
        let success = r.achieved_state.is_some();
        UpdateReport { success, return_code: r.return_code, outcomes: r.outcomes, stats: r.stats }
    }
}

/// The result of executing one MSQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum MsqlOutcome {
    /// A multiple retrieval: a set of tables.
    Multitable(Multitable),
    /// A cross-database join: a single table evaluated at the coordinator.
    Table(ResultSet),
    /// A (vital) multiple update.
    Update(UpdateReport),
    /// A multitransaction.
    Mtx(MtxReport),
    /// Scope/dictionary/DDL administration.
    Admin(String),
    /// An `EXPLAIN`ed statement: the traced profile of its execution.
    Explain(Box<ExplainReport>),
}

impl MsqlOutcome {
    /// Unwraps a multitable outcome.
    pub fn into_multitable(self) -> Result<Multitable, MdbsError> {
        match self {
            MsqlOutcome::Multitable(mt) => Ok(mt),
            other => Err(MdbsError::Internal(format!("expected a multitable, got {other:?}"))),
        }
    }

    /// Unwraps a single-table outcome.
    pub fn into_table(self) -> Result<ResultSet, MdbsError> {
        match self {
            MsqlOutcome::Table(rs) => Ok(rs),
            other => Err(MdbsError::Internal(format!("expected a table, got {other:?}"))),
        }
    }

    /// Unwraps an update report.
    pub fn into_update(self) -> Result<UpdateReport, MdbsError> {
        match self {
            MsqlOutcome::Update(u) => Ok(u),
            other => Err(MdbsError::Internal(format!("expected an update report, got {other:?}"))),
        }
    }

    /// Unwraps a multitransaction report.
    pub fn into_mtx(self) -> Result<MtxReport, MdbsError> {
        match self {
            MsqlOutcome::Mtx(m) => Ok(m),
            other => Err(MdbsError::Internal(format!("expected an mtx report, got {other:?}"))),
        }
    }

    /// Unwraps an EXPLAIN report.
    pub fn into_explain(self) -> Result<ExplainReport, MdbsError> {
        match self {
            MsqlOutcome::Explain(r) => Ok(*r),
            other => Err(MdbsError::Internal(format!("expected an explain report, got {other:?}"))),
        }
    }
}

/// Executes generated plans against the federation's network. Built per
/// statement by the owning session; holds only what sequencing needs — every
/// data-flow decision arrives inside the plan.
#[derive(Clone)]
pub struct Executor {
    /// How every LAM connection this executor uses is opened: the session's
    /// pool, timeout, retry policy, wire format and metrics sink. Its
    /// `stats` cell is the session-level accounting every run merges into.
    pub lams: LamFactory,
    /// Where execution spans hang (disabled unless the federation is
    /// tracing the statement).
    pub trace: SpanCtx,
    /// Set by `EXPLAIN` alone: sites that run a reduced or pushed-down
    /// subquery also evaluate — never ship — the subquery the classic plan
    /// would have run, so the report can show what the rewrite saved. Any
    /// other statement makes a site run each subquery once.
    pub(crate) measure_baseline: bool,
    /// Durable multitransaction log. When set, every plan that carries
    /// recovery material logs its lifecycle (BEGIN, first-phase outcomes,
    /// the settle decision, resolutions, END) so
    /// [`crate::Federation::recover`] can finish interrupted statements.
    pub wal: Option<Wal>,
}

impl Executor {
    /// Runs the program, returning the DOL outcome — each task's status and,
    /// under its name, the [`TaskOutput`] it handed back — and this run's own
    /// communication accounting (also merged into the session stats). An
    /// `OPEN` that fails fails the run with the error opening the connection
    /// gave.
    pub(crate) fn run_program(
        &self,
        plan: &GeneratedPlan,
    ) -> Result<(DolOutcome<TaskOutput>, ExecStats), MdbsError> {
        // What runs is what prints: every program reparses to itself.
        debug_assert_eq!(
            dol::parse_program(&dol::print_program(&plan.program)).ok().as_ref(),
            Some(&plan.program),
            "{}",
            dol::print_program(&plan.program)
        );
        let run_stats = shared_stats();
        let factory = LamFactory {
            stats: SharedExecStats::clone(&run_stats),
            open_error: Arc::default(),
            ..self.lams.clone()
        };
        let mut engine = DolEngine::new(&factory);
        engine.trace = self.trace.clone();
        // Log the multitransaction BEGIN (tasks, states, oracle, the
        // presumed-abort compensation set) before anything executes, and
        // install the observer that records every later transition.
        let logged = match (&self.wal, &plan.recovery) {
            (Some(wal), Some(recovery)) => {
                let mtx_id = wal.next_mtx_id();
                wal.append(&WalRecord::Begin {
                    mtx_id,
                    tasks: recovery.tasks.clone(),
                    states: recovery.states.clone(),
                    oracle: recovery.oracle.clone(),
                    abort_compensate: recovery.abort_compensate.clone(),
                })
                .map_err(MdbsError::from)?;
                engine.observer = Some(Arc::new(WalObserver::new(wal.clone(), mtx_id, ())));
                Some((wal.clone(), mtx_id))
            }
            _ => None,
        };
        let result = engine.execute(&plan.program);
        // Merge the run's accounting even when the program failed — the
        // faults that sank it are exactly what the session stats must show.
        let snapshot = run_stats.lock().clone();
        self.lams.stats.lock().merge(&snapshot);
        let out = result.map_err(|e| match (e, factory.open_error.lock().take()) {
            (DolError::OpenFailed { .. }, Some(open_error)) => open_error,
            (e, _) => e.into(),
        })?;
        // END only once every subtransaction's fate is known. Any error
        // (including a simulated crash) leaves the image open so recovery
        // re-resolves it — and so does a task whose request went out but
        // whose replies were all lost: the plan treats it as aborted (§3.2),
        // yet it may sit prepared or committed at its LAM, and only
        // recovery's RESOLVE can find out.
        let in_doubt = plan.tasks.iter().any(|t| {
            out.status(&t.task) == Some(TaskStatus::Error)
                && out.task_results.get(&t.task).is_some_and(|o| o.attempts > 0)
        });
        if let (Some((wal, mtx_id)), false) = (logged, in_doubt) {
            wal.append(&WalRecord::End { mtx_id }).map_err(MdbsError::from)?;
        }
        Ok((out, snapshot))
    }

    fn outcomes(&self, plan: &GeneratedPlan, out: &DolOutcome<TaskOutput>) -> Vec<DbOutcome> {
        plan.tasks
            .iter()
            .map(|t| {
                let output = out.task_results.get(&t.task);
                DbOutcome {
                    database: t.database.clone(),
                    key: t.key.clone(),
                    status: out.status(&t.task).unwrap_or(TaskStatus::Error),
                    affected: output.map_or(0, |o| o.affected),
                    error: out.error(&t.task).map(str::to_string),
                    attempts: output.map_or(0, |o| o.attempts),
                    fault: output.and_then(|o| o.fault),
                }
            })
            .collect()
    }

    /// Counts non-vital subqueries that failed while the statement as a
    /// whole survived — the §3.2 "tolerated" losses — into both the run
    /// snapshot and the session stats.
    fn count_degraded(&self, plan: &GeneratedPlan, outcomes: &[DbOutcome], stats: &mut ExecStats) {
        let degraded = plan
            .tasks
            .iter()
            .zip(outcomes)
            .filter(|(t, o)| {
                !t.vital && !matches!(o.status, TaskStatus::Committed | TaskStatus::Prepared)
            })
            .count() as u64;
        if degraded > 0 {
            stats.degraded += degraded;
            self.lams.stats.lock().degraded += degraded;
        }
    }

    /// Runs a retrieval plan, assembling a multitable from the per-database
    /// partial results. A database whose task failed contributes no table but
    /// a record of its error, in plan order and in the site's words; if every
    /// database failed the query fails with the first one's error.
    pub fn run_retrieval(&self, plan: &GeneratedPlan) -> Result<Multitable, MdbsError> {
        let (mut out, _) = self.run_program(plan)?;
        let outcomes = self.outcomes(plan, &out);
        let (mut tables, mut failed) = (Vec::new(), Vec::new());
        for (t, outcome) in plan.tasks.iter().zip(&outcomes) {
            if outcome.status == TaskStatus::Committed {
                let output = out.task_results.remove(&t.task).ok_or_else(|| {
                    MdbsError::Internal(format!("task {} lost its result", t.task))
                })?;
                tables.push(MultitableEntry {
                    database: t.database.clone(),
                    result: output.rows.unwrap_or_default(),
                });
            } else {
                let error = outcome.error.clone().unwrap_or_default();
                failed.push(MultitableFailure { database: t.database.clone(), error });
            }
        }
        if tables.is_empty() && !plan.tasks.is_empty() {
            return Err(task_failed(&outcomes[0]));
        }
        Ok(Multitable { tables, failed })
    }

    /// Runs a plan that settles on an acceptable state — a multitransaction,
    /// a vital update (one state; convert the report with
    /// [`UpdateReport::from`]) or a synchronization point. `DOLSTATUS` is the
    /// `DECIDE` code of the branch the program took: state `k` when
    /// `k < states.len()`, else the failure code; a plan with no decision (a
    /// vital-free update) always reaches its one, empty state.
    pub fn run_settle(&self, plan: &GeneratedPlan) -> Result<MtxReport, MdbsError> {
        let (out, mut stats) = self.run_program(plan)?;
        let achieved_state = match &plan.recovery {
            Some(recovery) => installed_state(out.dolstatus, recovery.states.len()),
            None => (out.dolstatus == 0).then_some(0),
        };
        let outcomes = self.outcomes(plan, &out);
        if achieved_state.is_some() {
            self.count_degraded(plan, &outcomes, &mut stats);
        }
        Ok(MtxReport { achieved_state, return_code: out.dolstatus, outcomes, stats })
    }

    /// Runs a planned cross-database join. A classic plan is one DOL program
    /// (plangen's [`autocommit_plan`], each task named after its database),
    /// `OPEN <coordinator>; TASK <COMBINE>`: the coordinator's `COMBINE`,
    /// whose task also ships every other site's partial straight to the
    /// coordinator's LAM — a partial is no task of its own. The coordinator's
    /// LAM applies the reduction edges into its own subquery itself. Only a
    /// reducer whose keys must filter another travelling site runs first, in
    /// a program of its own, its rows echoed here for those filters; an edge
    /// whose rule does not ship ([`crate::planner::ReductionEdge::ships`],
    /// finished by the reducer's actual key list) leaves its target on its
    /// full subquery. A pushdown plan's partials come back here and are
    /// merged. A join cannot degrade, so it runs with `tolerate_unreachable`
    /// off.
    pub fn run_join(&self, plan: &JoinPlan) -> Result<ResultSet, MdbsError> {
        let join_span = self.trace.child("join");
        let metrics = &self.lams.metrics;
        if plan.costed {
            metrics.counter_add("planner.costed_joins", 1);
        }
        let mut executor = Executor { trace: join_span.ctx(), ..self.clone() };
        executor.lams.tolerate_unreachable = false;
        // Per reduction edge: the reducer's distinct keys and whether they
        // shipped, once known.
        let mut verdicts: Vec<Option<(u64, bool)>> = vec![None; plan.edges.len()];
        let (result, outputs) = match &plan.combine {
            Combine::Merge(pushdown) => {
                let tasks = plan.sites.iter().map(|site| {
                    let (sql, partial) = self.partial(site, "shipped", None);
                    join_task(&site.database, sql, TaskVerb::PartialAgg(partial))
                });
                let mut outputs = executor.join_step(plan, tasks.collect())?;
                metrics.counter_add("agg.pushdown", 1);
                let mut rows = |task: &str| outputs.get_mut(task).and_then(|o| o.rows.take());
                let parts = plan.sites.iter().map(|s| rows(&s.database).unwrap_or_default());
                let parts: Vec<ResultSet> = parts.collect();
                let rs = match pushdown {
                    PushdownPlan::Aggregate(p) => {
                        let rs = merge::merge(p, parts)?;
                        metrics.counter_add("agg.groups_merged", rs.rows.len() as u64);
                        rs
                    }
                    PushdownPlan::TopK(p) => {
                        let shipped: u64 = parts.iter().map(|p| p.rows.len() as u64).sum();
                        metrics.counter_add("topk.rows_shipped", shipped);
                        merge::merge(p, parts)?
                    }
                };
                (rs, outputs)
            }
            Combine::Coordinator { database, labels, .. } => {
                let mut outputs = executor.coordinate(plan, &mut verdicts)?;
                let rs = outputs.get_mut(*database).and_then(|o| o.rows.take());
                let mut rs = rs.unwrap_or_default();
                for (column, label) in *labels {
                    if let Some(column) = rs.columns.get_mut(*column) {
                        column.name.clone_from(label);
                    }
                }
                (rs, outputs)
            }
        };
        if plan.costed {
            for (_, ships) in verdicts.iter().flatten().filter(|(keys, _)| *keys > 0) {
                let verdict =
                    if *ships { "planner.edges_reduced" } else { "planner.edges_skipped" };
                metrics.counter_add(verdict, 1);
            }
        }
        let shipped = verdicts.iter().flatten().filter(|(_, ships)| *ships);
        let keys_shipped: u64 = shipped.clone().map(|(keys, _)| keys).sum();
        let prefix = if shipped.count() > 0 { "semijoin+" } else { "" };
        let strategy = format!("{prefix}{}", plan.strategy);
        join_span.note("strategy", &strategy);
        join_span.note("keys_shipped", keys_shipped);
        metrics.counter_add(&labeled("join.strategy", "strategy", &strategy), 1);
        if let Combine::Coordinator { database, .. } = &plan.combine {
            metrics.counter_add("join.keys_shipped", keys_shipped);
            join_span.note("coordinator", database);
        }
        if self.measure_baseline {
            let bytes_saved: u64 = outputs.values().filter_map(|o| o.saved).sum();
            join_span.note("bytes_saved", bytes_saved);
        }
        if plan.costed {
            join_span.note("planner", "costed");
        }
        Ok(result)
    }

    /// A classic plan's data flow, its outputs by task name: the reducer
    /// first when its keys must filter another travelling site — its rows
    /// then also come back here, and go to the coordinator's LAM under the
    /// `COMBINE`'s key — then the `COMBINE`, the one task of its program,
    /// with every other partial travelling straight to it. Fills in
    /// `verdicts`: the MDBS layer's edges here, the coordinator's from its
    /// reply.
    fn coordinate(
        &self,
        plan: &JoinPlan,
        verdicts: &mut [Option<(u64, bool)>],
    ) -> Result<HashMap<String, TaskOutput>, MdbsError> {
        let Combine::Coordinator { database, home, sql, join_order, .. } = &plan.combine else {
            return Err(MdbsError::Internal("a pushdown plan has no coordinator".to_string()));
        };
        let (key, home) = (correlation_id(), *home);
        let site_of = |database: &str| plan.routes.get(database).map(|r| r.site.clone());
        let to = site_of(database).unwrap_or_default();
        let relay = plan.reducer.filter(|_| plan.edges.iter().any(|e| e.target != home));
        let mut reduced: Vec<Option<String>> = vec![None; plan.sites.len()];
        if let Some(r) = relay {
            let site = &plan.sites[r];
            let (sql, partial) = self.partial(site, "shipped", None);
            let verb = TaskVerb::Ship { key, to: to.clone(), partial };
            let outputs = self.join_step(plan, vec![join_task(&site.database, sql, verb)])?;
            let rows = outputs[&site.database].rows.as_ref();
            let mut shipped: Vec<Option<Vec<Value>>> = vec![None; plan.edges.len()];
            for (i, edge) in plan.edges.iter().enumerate().filter(|(_, e)| e.target != home) {
                let Some(keys) = rows.and_then(|rows| edge.keys(rows)) else { continue };
                let ships = edge.ships(&keys);
                verdicts[i] = Some((keys.len() as u64, ships));
                shipped[i] = ships.then_some(keys);
            }
            reduced = (0..plan.sites.len()).map(|i| plan.reduced_sql(i, &shipped)).collect();
        }

        let mut travellers = Vec::new();
        for (i, site) in plan.sites.iter().enumerate().filter(|&(i, _)| i != home) {
            let (sql, partial) = self.partial(site, "direct", reduced[i].take());
            let (database, posted) = (site.database.clone(), Some(i) != relay);
            let site = site_of(&database).unwrap_or_default();
            travellers.push(Traveller { site, database, sql, posted, partial });
        }
        let edges: Vec<(usize, HomeEdge)> = plan
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.target == home)
            .map(|(i, e)| {
                let reducer = plan.reducer.map(|r| plan.sites[r].database.clone());
                let edge = HomeEdge {
                    reducer: reducer.unwrap_or_default(),
                    key_column: e.key_column.to_string(),
                    binding: e.binding.to_string(),
                    column: e.column.to_string(),
                    rule: e.rule,
                };
                (i, edge)
            })
            .collect();
        let (_, own) = self.partial(&plan.sites[home], "home", None);
        let mut notes = vec![("partials".to_string(), plan.sites.len().to_string())];
        notes.extend(join_order.iter().map(|order| ("join_order".to_string(), order.clone())));
        let combine = dol::Combine {
            key,
            measure: self.measure_baseline && !edges.is_empty(),
            notes,
            home: plan.sites[home].sql.clone(),
            home_notes: own.notes,
            edges: edges.iter().map(|(_, e)| e.clone()).collect(),
            travellers,
        };
        let verb = TaskVerb::Combine(Box::new(combine));
        let outputs = self.join_step(plan, vec![join_task(database, sql.clone(), verb)])?;
        let reductions = outputs.get(*database).and_then(|o| o.join.as_deref());
        for ((i, _), &verdict) in edges.iter().zip(reductions.map_or(&[][..], |r| &r.0)) {
            verdicts[*i] = Some(verdict);
        }
        Ok(outputs)
    }

    /// Runs one program of a join, `tasks` ([`join_task`]s). Returns its
    /// tasks' outputs; the first task that did not commit fails the join, with
    /// its exchange's own error when the wire, an unreachable traveller or a
    /// travelled partial failed it, else in the site's words.
    fn join_step(
        &self,
        plan: &JoinPlan,
        tasks: Vec<TaskDef>,
    ) -> Result<HashMap<String, TaskOutput>, MdbsError> {
        let program = autocommit_plan(tasks, plan.routes)?;
        let (mut out, _) = self.run_program(&program)?;
        for (task, outcome) in program.tasks.iter().zip(self.outcomes(&program, &out)) {
            if outcome.status != TaskStatus::Committed {
                let error = out.task_results.remove(&task.task).and_then(|o| o.error);
                return Err(error.map_or_else(|| task_failed(&outcome), |e| *e));
            }
        }
        Ok(out.task_results)
    }

    /// What `site` evaluates — its pushed site query, else `reduced` (its
    /// subquery with the shipped key filters ANDed on), else its subquery as
    /// decomposed — and its [`Partial`]: the baseline `EXPLAIN` has a
    /// rewritten site measure beside it, and its span's notes: the row
    /// estimate (so EXPLAIN can show estimated vs. actual), the `route` its
    /// rows take to the combine — `shipped` back here, `direct` to the
    /// coordinator's LAM, or `home`, materialised where it runs — and the
    /// rewrite.
    fn partial(&self, site: &SitePlan, route: &str, reduced: Option<String>) -> (String, Partial) {
        let mut notes: Vec<(String, String)> =
            site.est_rows.iter().map(|est| ("est_rows".to_string(), est.to_string())).collect();
        notes.push(("route".to_string(), route.to_string()));
        let (sql, rewrite) = match (&site.pushed, reduced) {
            (Some((kind, sql)), _) => (sql.clone(), Some(("pushed", *kind))),
            (None, Some(sql)) => (sql, Some(("reduced", "semijoin"))),
            (None, None) => (site.sql.clone(), None),
        };
        notes.extend(rewrite.map(|(key, value)| (key.to_string(), value.to_string())));
        let baseline = (self.measure_baseline && rewrite.is_some()).then(|| site.sql.clone());
        (sql, Partial { baseline, notes })
    }
}

/// A join's task at `database`, named after it: `verb` over `sql`.
fn join_task(database: &str, sql: String, verb: TaskVerb) -> TaskDef {
    TaskDef { verb, ..TaskDef::new(database, database, vec![sql]) }
}

/// A task that did not end as its statement needs: its database's error, in
/// the site's words (a task that did not end as asked always carries one).
pub(crate) fn task_failed(outcome: &DbOutcome) -> MdbsError {
    let message = outcome.error.clone().unwrap_or_default();
    MdbsError::Local { service: outcome.database.clone(), message }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_unwrappers_reject_wrong_kind() {
        let admin = MsqlOutcome::Admin("ok".into());
        assert!(admin.clone().into_multitable().is_err());
        assert!(admin.clone().into_update().is_err());
        assert!(admin.clone().into_mtx().is_err());
        assert!(admin.into_table().is_err());
        let mt = MsqlOutcome::Multitable(Multitable::default());
        assert!(mt.into_multitable().is_ok());
    }
}
