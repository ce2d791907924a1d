//! Plan execution and outcome reporting: the *sequence* third of
//! plan → sequence → talk.
//!
//! The executor decides nothing about data flow and speaks no protocol. It
//! runs what the planning layers produced — generated DOL programs
//! ([`crate::translate::GeneratedPlan`]) through [`dol::DolEngine`], a
//! cross-database join's [`JoinPlan`] through [`Executor::run_join`] — over
//! the typed calls of [`crate::lamclient::LamClient`], then shapes the raw
//! task statuses/results into user-facing reports:
//!
//! * retrievals become [`Multitable`]s (one table per database, §2);
//! * cross-database joins are executed by shipping partial results to the
//!   coordinator (the "partial results are collected in one database,
//!   acting as the coordinator" flow of §4.1) and return a single table;
//! * updates and multitransactions report per-database termination states
//!   and the DOL return code.

use crate::error::MdbsError;
use crate::lamclient::{
    LamClient, LamFactory, PartialResult, Posted, TaskOutput, TaskOutputs, Vote,
};
use crate::merge;
use crate::multitable::{Multitable, MultitableEntry};
use crate::planner::{Combine, JoinPlan, ReductionEdge, SitePlan};
use crate::retry::{shared_stats, ExecStats, SharedExecStats};
use crate::translate::{GeneratedPlan, PushdownPlan};
use crate::wal::{Wal, WalObserver, WalRecord};
use dol::{DolEngine, DolOutcome, TaskStatus};
use ldbs::engine::ResultSet;
use ldbs::value::Value;
use netsim::FaultKind;
use obs::{labeled, ExplainReport, Span, SpanCtx};
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
    /// Runs the program, returning the DOL outcome, this run's own
    /// communication accounting (also merged into the session stats) and what
    /// its tasks produced, by task name.
    pub(crate) fn run_program(
        &self,
        plan: &GeneratedPlan,
    ) -> Result<(DolOutcome, ExecStats, HashMap<String, TaskOutput>), MdbsError> {
        let run_stats = shared_stats();
        let outputs = TaskOutputs::default();
        let factory = LamFactory {
            stats: SharedExecStats::clone(&run_stats),
            outputs: TaskOutputs::clone(&outputs),
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
                engine.observer = Some(Arc::new(WalObserver::new(
                    wal.clone(),
                    mtx_id,
                    recovery.decisions.clone(),
                )));
                Some((wal.clone(), mtx_id))
            }
            _ => None,
        };
        let result = engine.execute(&plan.program);
        // Merge the run's accounting even when the program failed — the
        // faults that sank it are exactly what the session stats must show.
        let snapshot = run_stats.lock().clone();
        self.lams.stats.lock().merge(&snapshot);
        let out = result?;
        // END only once every subtransaction's fate is known. Any error
        // (including a simulated crash) leaves the image open so recovery
        // re-resolves it — and so does a task whose request went out but
        // whose replies were all lost: the plan treats it as aborted (§3.2),
        // yet it may sit prepared or committed at its LAM, and only
        // recovery's RESOLVE can find out.
        let in_doubt = plan.tasks.iter().any(|t| {
            out.status(&t.task) == Some(TaskStatus::Error)
                && snapshot.task(&t.task).is_some_and(|m| m.attempts > 0)
        });
        if let (Some((wal, mtx_id)), false) = (logged, in_doubt) {
            wal.append(&WalRecord::End { mtx_id }).map_err(MdbsError::from)?;
        }
        let outputs = std::mem::take(&mut *outputs.lock());
        Ok((out, snapshot, outputs))
    }

    fn outcomes(
        &self,
        plan: &GeneratedPlan,
        out: &DolOutcome,
        stats: &ExecStats,
        outputs: &HashMap<String, TaskOutput>,
    ) -> Vec<DbOutcome> {
        plan.tasks
            .iter()
            .map(|t| {
                let status = out.status(&t.task).unwrap_or(TaskStatus::Error);
                let affected = outputs.get(&t.task).map_or(0, |o| o.affected);
                let telemetry = stats.task(&t.task);
                DbOutcome {
                    database: t.database.clone(),
                    key: t.key.clone(),
                    status,
                    affected,
                    error: out.error(&t.task).map(str::to_string),
                    attempts: telemetry.map(|m| m.attempts).unwrap_or(0),
                    fault: telemetry.and_then(|m| m.fault),
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
    /// partial results. A database whose task failed contributes no table;
    /// if every database failed the query fails.
    pub fn run_retrieval(&self, plan: &GeneratedPlan) -> Result<Multitable, MdbsError> {
        let (out, _stats, mut outputs) = self.run_program(plan)?;
        let mut tables = Vec::new();
        let mut last_error: Option<String> = None;
        for t in &plan.tasks {
            match out.status(&t.task) {
                Some(TaskStatus::Committed) => {
                    let output = outputs.remove(&t.task).ok_or_else(|| {
                        MdbsError::Internal(format!("task {} lost its result", t.task))
                    })?;
                    tables.push(MultitableEntry {
                        database: t.database.clone(),
                        result: output.rows.unwrap_or_default(),
                    });
                }
                _ => {
                    last_error = Some(format!("retrieval failed at `{}`", t.database));
                }
            }
        }
        if tables.is_empty() {
            if let Some(e) = last_error {
                return Err(MdbsError::Local { service: "retrieval".into(), message: e });
            }
        }
        Ok(Multitable { tables })
    }

    /// Runs a plan that settles on an acceptable state — a multitransaction,
    /// a vital update (one state; convert the report with
    /// [`UpdateReport::from`]) or a synchronization point. `DOLSTATUS` is the
    /// `DECIDE` code of the branch the program took, which the plan's decision
    /// table maps to the state it installed; a plan with no decision (a
    /// vital-free update) always reaches its one, empty state.
    pub fn run_settle(&self, plan: &GeneratedPlan) -> Result<MtxReport, MdbsError> {
        let (out, mut stats, outputs) = self.run_program(plan)?;
        let achieved_state = match &plan.recovery {
            Some(recovery) => recovery.decisions.get(&out.dolstatus).and_then(|d| d.state),
            None => (out.dolstatus == 0).then_some(0),
        };
        let achieved_state = achieved_state.map(|state| state as usize);
        let outcomes = self.outcomes(plan, &out, &stats, &outputs);
        if achieved_state.is_some() {
            self.count_degraded(plan, &outcomes, &mut stats);
        }
        Ok(MtxReport { achieved_state, return_code: out.dolstatus, outcomes, stats })
    }

    /// [`Self::run_settle`], each task `votes` names sending what its [`Vote`]
    /// says instead of its own request.
    pub(crate) fn run_voted(
        &self,
        plan: &GeneratedPlan,
        votes: HashMap<String, (Vote, u64)>,
    ) -> Result<MtxReport, MdbsError> {
        let mut executor = self.clone();
        executor.lams.votes = Arc::new(votes);
        executor.run_settle(plan)
    }

    /// Runs a planned cross-database join: [reducer] → [other travelling
    /// sites] → combine; a classic plan's coordinator is sent no partial
    /// request, its subquery (reduced like any other) rides inside the one
    /// `COMBINE`. It still decides which edges ship, because only now can it
    /// be known: a reduction edge's rule is finished by the reducer's actual
    /// key list ([`crate::planner::ReductionEdge::ships`]), and an edge that
    /// does not ship leaves its target on its full subquery. The requests of
    /// the sites left after the reducer are all posted before any reply is
    /// read, so N sites cost ≈1 round trip instead of N.
    pub fn run_join(&self, plan: &JoinPlan) -> Result<ResultSet, MdbsError> {
        let join_span = self.trace.child("join");
        let metrics = &self.lams.metrics;
        if plan.costed {
            metrics.counter_add("planner.costed_joins", 1);
        }

        // 1. Semi-join reduction: run the reducer, harvest its join keys and
        // rewrite the subquery of every site an edge ships them to.
        let n = plan.sites.len();
        let ctx = join_span.ctx();
        let mut travelled: Vec<(usize, PartialResult)> = Vec::with_capacity(n);
        let mut reduced: Vec<Option<String>> = vec![None; n];
        let mut keys_shipped = 0u64;
        if let Some(reducer) = plan.reducer {
            let result =
                SiteCall::post(&self.lams, &ctx, &plan.sites[reducer], None, self.measure_baseline)
                    .and_then(|call| call.finish(&self.lams))?;
            let ship = |edge: &ReductionEdge| {
                let keys = edge.keys(&result.rows)?;
                let ships = edge.ships(&keys);
                if plan.costed && !keys.is_empty() {
                    let verdict =
                        if ships { "planner.edges_reduced" } else { "planner.edges_skipped" };
                    metrics.counter_add(verdict, 1);
                }
                // Not shipping means predicted (or presumed) too expensive —
                // the target runs its full subquery.
                ships.then_some(keys)
            };
            let shipped: Vec<Option<Vec<Value>>> = plan.edges.iter().map(ship).collect();
            keys_shipped = shipped.iter().flatten().map(|keys| keys.len() as u64).sum();
            reduced = (0..n).map(|i| plan.reduced_sql(i, &shipped)).collect();
            travelled.push((reducer, result));
        }
        let prefix = if reduced.iter().any(Option::is_some) { "semijoin+" } else { "" };
        let strategy = format!("{prefix}{}", plan.strategy);
        join_span.note("strategy", &strategy);
        join_span.note("keys_shipped", keys_shipped);
        metrics.counter_add(&labeled("join.strategy", "strategy", &strategy), 1);

        // 2. Run the other travelling sites concurrently: every request is
        // posted before any reply is read, and the replies are finished in
        // site order. Every site runs; when several fail, the error of the
        // first one in site order wins.
        let mut posted = Vec::new();
        for i in (0..n).filter(|&i| Some(i) != plan.reducer && Some(i) != plan.home()) {
            let (site, sql) = (&plan.sites[i], reduced[i].take());
            let call =
                SiteCall::post(&self.lams, &ctx, site, sql.as_deref(), self.measure_baseline);
            posted.push((i, call));
        }
        let finished: Vec<_> = posted
            .into_iter()
            .map(|(i, call)| (i, call.and_then(|call| call.finish(&self.lams))))
            .collect();
        for (i, partial) in finished {
            travelled.push((i, partial?));
        }
        travelled.sort_by_key(|(i, _)| *i); // back into site order
        let mut bytes_saved: u64 = travelled.iter().filter_map(|(_, p)| p.saved).sum();

        // 3. Combine the partials into the statement's one table.
        let result = match &plan.combine {
            Combine::Merge(pushdown) => {
                metrics.counter_add("agg.pushdown", 1);
                let parts: Vec<ResultSet> = travelled.into_iter().map(|(_, p)| p.rows).collect();
                match pushdown {
                    PushdownPlan::Aggregate(p) => {
                        let rs = merge::merge_aggregate(p, &parts)?;
                        metrics.counter_add("agg.groups_merged", rs.rows.len() as u64);
                        rs
                    }
                    PushdownPlan::TopK(p) => {
                        let shipped: u64 = parts.iter().map(|p| p.rows.len() as u64).sum();
                        metrics.counter_add("topk.rows_shipped", shipped);
                        merge::merge_topk(p, &parts)?
                    }
                }
            }
            Combine::Coordinator { database, site, home, temps, sql, join_order } => {
                metrics.counter_add("join.keys_shipped", keys_shipped);
                join_span.note("coordinator", database);
                let span = join_span.child(format!("lam:combine:{database}"));
                span.note("partials", temps.len());
                if let Some(order) = join_order {
                    span.note("join_order", order);
                }
                // The travelled rows move into the request as they are.
                let home_site = &plan.sites[*home];
                let home_sql = reduced[*home].take();
                let baseline =
                    (self.measure_baseline && home_sql.is_some()).then_some(home_site.sql.as_str());
                let part = partial_span(&span.ctx(), home_site, "home", home_sql.is_some());
                let home_sql = home_sql.unwrap_or_else(|| home_site.sql.clone());
                let parts = travelled.into_iter().map(|(i, p)| (temps[i].to_string(), p.rows));
                let (rows, saved) = self.lams.checkout(site, database)?.combine(
                    (temps[*home].to_string(), home_sql),
                    parts.collect(),
                    sql,
                    baseline,
                    (&span, &part),
                )?;
                if baseline.is_some() {
                    part.note("saved", saved);
                    metrics.counter_add(&labeled("lam.bytes_saved", "db", database), saved);
                    bytes_saved += saved;
                }
                rows
            }
        };
        if self.measure_baseline {
            join_span.note("bytes_saved", bytes_saved);
        }
        if plan.costed {
            join_span.note("planner", "costed");
        }
        Ok(result)
    }
}

/// Opens the span of one site's partial under `ctx` and notes the plan's side
/// of it: the row estimate (so EXPLAIN can show estimated vs. actual), the
/// `route` its rows take to the combine — `shipped` over the network, or
/// `home`, materialised where the combine runs — and the rewrite, if any.
fn partial_span(ctx: &SpanCtx, site: &SitePlan, route: &str, reduced: bool) -> Span {
    let span = ctx.child(format!("lam:partial:{}", site.database));
    if let Some(est) = site.est_rows {
        span.note("est_rows", est);
    }
    span.note("route", route);
    match &site.pushed {
        Some((kind, _)) => span.note("pushed", kind),
        None if reduced => span.note("reduced", "semijoin"),
        None => {}
    }
    span
}

/// One travelling site's share of a cross-database join, evaluated at its
/// LAM: its request posted, its reply not yet read.
struct SiteCall<'p> {
    client: LamClient,
    span: Span,
    site: &'p SitePlan,
    pushed: bool,
    posted: Posted,
}

impl<'p> SiteCall<'p> {
    /// Posts the site's pushed site query of a pushdown plan, else `reduced`
    /// (the subquery with shipped key filters ANDed on), else the subquery as
    /// decomposed. With `baseline` the LAM also measures the decomposed
    /// subquery beside a rewritten one.
    fn post(
        lams: &LamFactory,
        ctx: &SpanCtx,
        site: &'p SitePlan,
        reduced: Option<&str>,
        baseline: bool,
    ) -> Result<Self, MdbsError> {
        let client = lams.checkout(&site.site, &site.database)?;
        let span = partial_span(ctx, site, "shipped", reduced.is_some());
        let (sql, pushed) = match (&site.pushed, reduced) {
            (Some((_, sql)), _) => (sql.as_str(), true),
            (None, Some(sql)) => (sql, false),
            (None, None) => (site.sql.as_str(), false),
        };
        let baseline = (baseline && (pushed || reduced.is_some())).then_some(site.sql.as_str());
        let posted = client.post_partial(sql, baseline, pushed, &span);
        Ok(SiteCall { client, span, site, pushed, posted })
    }

    /// Reads the site's rows. Notes — when a baseline was measured — what the
    /// rewrite kept off the wire, on the span and the metrics.
    fn finish(self, lams: &LamFactory) -> Result<PartialResult, MdbsError> {
        let SiteCall { client, span, site, pushed, posted } = self;
        let result = client.finish_partial(posted, &span)?;
        if let Some(access) = &result.access {
            span.note("access", access);
        }
        if pushed && result.full_rows > 0 {
            span.note("full_rows", result.full_rows);
        }
        if let Some(saved) = result.saved {
            span.note("saved", saved);
            lams.metrics.counter_add(&labeled("lam.bytes_saved", "db", &site.database), saved);
        }
        Ok(result)
    }
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
