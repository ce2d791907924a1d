//! Plan execution and outcome reporting.
//!
//! The executor drives generated DOL programs through [`dol::DolEngine`]
//! with [`crate::lamclient::LamFactory`] services, then shapes the raw task
//! statuses/results into user-facing reports:
//!
//! * retrievals become [`Multitable`]s (one table per database, §2);
//! * cross-database joins are executed by shipping partial results to the
//!   coordinator (the "partial results are collected in one database,
//!   acting as the coordinator" flow of §4.1) and return a single table;
//! * updates and multitransactions report per-database termination states
//!   and the DOL return code.

use crate::error::MdbsError;
use crate::lamclient::{LamFactory, PartialResult, TaskOutput, TaskOutputs};
use crate::merge;
use crate::multitable::{Multitable, MultitableEntry};
use crate::planner::{self, Estimate, PlannerContext};
use crate::proto::{RowsRequest as Request, RowsResponse as Response, TaskMode};
use crate::retry::{shared_stats, ExecStats, SharedExecStats};
use crate::translate::{
    DbRoute, DbSubquery, Decomposition, GeneratedPlan, PushdownPlan, MTX_FAILED,
};
use crate::wal::{Wal, WalObserver, WalRecord};
use dol::{DolEngine, DolOutcome, TaskStatus, WorkerSet};
use ldbs::engine::ResultSet;
use ldbs::eval::value_literal;
use ldbs::value::Value;
use msql_lang::printer::print_select;
use msql_lang::{BinaryOp, ColumnRef, Expr, Literal, Select, SelectItem};
use netsim::FaultKind;
use obs::{labeled, ExplainReport, Span, SpanCtx};
use std::collections::HashMap;
use std::sync::Arc;

/// Default per-edge cap on the distinct key values shipped as a semi-join
/// `IN (…)` filter. This is the *no-statistics fallback*: when the cost
/// planner has fresh estimates for both ends of an edge, the decision is an
/// estimated-bytes comparison instead and the cap does not apply.
pub const DEFAULT_SEMIJOIN_CAP: usize = 256;

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

impl DbOutcome {
    /// An outcome with no network telemetry attached.
    pub fn new(
        database: String,
        key: String,
        status: TaskStatus,
        affected: u64,
        error: Option<String>,
    ) -> Self {
        DbOutcome { database, key, status, affected, error, attempts: 0, fault: None }
    }
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

/// Executes generated plans against the federation's network.
pub struct Executor {
    /// How every LAM connection this executor uses is opened: the session's
    /// pool, timeout, retry policy, wire format and metrics sink. Its
    /// `stats` cell is the session-level accounting every run merges into.
    pub lams: LamFactory,
    /// Whether the services of a DOL task batch or settle list, and the
    /// sites of a cross-database join's partials, work concurrently.
    pub parallel: bool,
    /// Semi-join reduction of cross-database joins: ship the reducer's
    /// distinct join-key values to the other sites as `IN (…)` filters so
    /// only matching rows cross the wire.
    pub semijoin: bool,
    /// Per-edge cap on the distinct key values shipped as an `IN (…)`
    /// filter; an edge whose key set exceeds it falls back to full shipping.
    pub semijoin_cap: usize,
    /// Aggregate/top-k pushdown of cross-database joins: when the
    /// decomposition proved the query's aggregates decomposable (or it is a
    /// pure-product top-k), each site computes partial aggregates (or a
    /// site-local top-k) and the MDBS layer merges them, instead of shipping
    /// full partials to a coordinator. Off — or an ineligible query — takes
    /// the classic coordinator path, byte-for-byte.
    pub agg_pushdown: bool,
    /// Where execution spans hang (disabled unless the federation is
    /// tracing the statement).
    pub trace: SpanCtx,
    /// Set by `EXPLAIN` alone: sites that run a reduced or pushed-down
    /// subquery also evaluate — never ship — the subquery the classic plan
    /// would have run, so the report can show what the rewrite saved. Any
    /// other statement makes a site run each subquery once.
    pub(crate) measure_baseline: bool,
    /// Site statistics for cost-based planning of cross-database joins.
    /// `None` (or a context lacking a table) keeps the heuristic data-flow
    /// decisions, byte-for-byte.
    pub planner: Option<PlannerContext>,
    /// Durable multitransaction log. When set, every plan that carries
    /// recovery material logs its lifecycle (BEGIN, first-phase outcomes,
    /// the settle decision, resolutions, END) so
    /// [`crate::Federation::recover`] can finish interrupted statements.
    pub wal: Option<Wal>,
    /// The threads every fan-out of this executor runs on — the owning
    /// session's, so they outlive the executor; its DOL engines share them.
    pub(crate) workers: WorkerSet,
}

impl Executor {
    /// An executor over `lams` with the default data-flow policies and a
    /// worker set of its own.
    pub fn new(lams: LamFactory, parallel: bool) -> Self {
        Executor {
            lams,
            parallel,
            semijoin: true,
            semijoin_cap: DEFAULT_SEMIJOIN_CAP,
            agg_pushdown: true,
            trace: SpanCtx::disabled(),
            measure_baseline: false,
            planner: None,
            wal: None,
            workers: WorkerSet::new(),
        }
    }

    /// Runs the program, returning the DOL outcome, this run's own
    /// communication accounting (also merged into the session stats) and what
    /// its tasks produced, by task name.
    fn run_program(
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
        let mut engine = DolEngine::new(&factory).with_workers(&self.workers);
        engine.parallel = self.parallel;
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

    /// Runs a vital update plan.
    pub fn run_update(&self, plan: &GeneratedPlan) -> Result<UpdateReport, MdbsError> {
        let (out, mut stats, outputs) = self.run_program(plan)?;
        let outcomes = self.outcomes(plan, &out, &stats, &outputs);
        let success = out.dolstatus == 0;
        if success {
            self.count_degraded(plan, &outcomes, &mut stats);
        }
        Ok(UpdateReport { success, return_code: out.dolstatus, outcomes, stats })
    }

    /// Runs a multitransaction plan. `n_states` is the number of acceptable
    /// states (to map the DOL return code back to a state index).
    pub fn run_mtx(&self, plan: &GeneratedPlan, n_states: usize) -> Result<MtxReport, MdbsError> {
        let (out, mut stats, outputs) = self.run_program(plan)?;
        let achieved_state = if out.dolstatus >= 0
            && (out.dolstatus as usize) < n_states
            && out.dolstatus != MTX_FAILED
        {
            Some(out.dolstatus as usize)
        } else {
            None
        };
        let outcomes = self.outcomes(plan, &out, &stats, &outputs);
        if achieved_state.is_some() {
            self.count_degraded(plan, &outcomes, &mut stats);
        }
        Ok(MtxReport { achieved_state, return_code: out.dolstatus, outcomes, stats })
    }

    /// Executes a decomposed cross-database join: runs each local subquery,
    /// ships the partial results to the coordinator, evaluates the modified
    /// global query there, and cleans up the temporaries.
    ///
    /// Two data-flow optimisations apply (§5 argues multidatabase
    /// optimisation is about exactly this — data flow control and
    /// parallelism across sites, not individual database operations):
    ///
    /// * **Semi-join reduction** (when [`Self::semijoin`] and the
    ///   decomposition carries equi-join edges): one *reducer* subquery runs
    ///   first, its distinct join-key values are injected into the other
    ///   subqueries as `IN (…)` filters, and only matching rows cross the
    ///   wire. An edge whose key set exceeds [`Self::semijoin_cap`] falls
    ///   back to full shipping.
    /// * **Parallel partial dispatch** (when [`Self::parallel`]): the
    ///   remaining subqueries run concurrently — the first on this thread,
    ///   the others on the session's parked workers — so N sites cost ≈1
    ///   round trip instead of N.
    pub fn run_cross_db(
        &self,
        dec: &Decomposition,
        routes: &HashMap<String, DbRoute>,
    ) -> Result<ResultSet, MdbsError> {
        let join_span = self.trace.child("join");

        // Resolve every route up front so a missing one fails before any
        // subquery is dispatched.
        let sub_routes: Vec<&DbRoute> = dec
            .subqueries
            .iter()
            .map(|sub| {
                routes.get(&sub.database).ok_or_else(|| {
                    MdbsError::Catalog(format!("no route for database `{}`", sub.database))
                })
            })
            .collect::<Result<_, _>>()?;

        // Cost-based planning: estimates exist only when the planner context
        // holds fresh statistics for *every* table of *every* subquery — a
        // single unanalyzed table keeps the whole join on the heuristics.
        let estimates: Option<Vec<Estimate>> = self
            .planner
            .as_ref()
            .and_then(|ctx| dec.subqueries.iter().map(|s| ctx.estimate_subquery(s)).collect());
        if estimates.is_some() {
            self.lams.metrics.counter_add("planner.costed_joins", 1);
        }

        // Aggregate/top-k pushdown: when decomposition proved the query
        // eligible, skip the coordinator flow entirely — each site computes
        // its partial aggregates (or local top-k) and the merge happens
        // here, at the MDBS layer. Any ineligible query carries
        // `pushdown: None` and continues on the classic path unchanged.
        if self.agg_pushdown {
            if let Some(plan) = &dec.pushdown {
                return self.run_pushdown(dec, plan, &sub_routes, estimates.as_deref(), &join_span);
            }
        }

        // 1. Semi-join reduction: run the reducer, harvest its join keys.
        let n = dec.subqueries.len();
        let mut results: Vec<Option<PartialResult>> = vec![None; n];
        let mut filters: Vec<Vec<Expr>> = vec![Vec::new(); n];
        let mut keys_shipped = 0u64;
        if self.semijoin && n > 1 && !dec.join_keys.is_empty() {
            let reducer = match &estimates {
                Some(est) => pick_reducer_costed(dec, est),
                None => pick_reducer(dec),
            };
            let sub = &dec.subqueries[reducer];
            let est_rows = estimates.as_ref().map(|e| e[reducer].rows.round() as u64);
            let result = self
                .site_dispatch(
                    sub,
                    sub_routes[reducer],
                    print_select(&sub.select),
                    Rewrite::None,
                    est_rows,
                )
                .run(&self.lams, &join_span.ctx())?;
            let rs = &result.rows;
            for key in &dec.join_keys {
                let (Some(own), Some(other)) =
                    (key.side_in(&sub.database), key.side_opposite(&sub.database))
                else {
                    continue;
                };
                let Some(col) = rs.columns.iter().position(|c| c.name == own.part_column) else {
                    continue;
                };
                let mut values: Vec<Value> = rs
                    .rows
                    .iter()
                    .map(|r| r[col].clone())
                    .filter(|v| !matches!(v, Value::Null))
                    .collect();
                values.sort_by(|a, b| a.total_cmp(b));
                values.dedup_by(|a, b| a.total_cmp(b) == std::cmp::Ordering::Equal);
                let Some(target) = dec.subqueries.iter().position(|s| s.database == other.database)
                else {
                    continue;
                };
                // Reduce-or-not: costed when both ends have estimates (an
                // empty key set always reduces — the filter is free and
                // prunes everything), the fixed cap otherwise.
                if !values.is_empty() {
                    let ship = match (&estimates, &self.planner) {
                        (Some(est), Some(ctx)) => {
                            // Ship iff the bytes the filter prunes from the
                            // target's partial exceed the key list's own
                            // bytes. `min(1, keys/NDV)` of the target's rows
                            // survive a k-key filter under uniformity.
                            let key_bytes: f64 = values.iter().map(planner::value_width).sum();
                            let survives = ctx
                                .join_key_ndv(
                                    &dec.subqueries[target],
                                    other.binding.as_str(),
                                    other.column.as_str(),
                                )
                                .map_or(1.0, |ndv| {
                                    if ndv == 0 {
                                        0.0
                                    } else {
                                        (values.len() as f64 / ndv as f64).min(1.0)
                                    }
                                });
                            let benefit = est[target].bytes * (1.0 - survives);
                            let ship = benefit > key_bytes;
                            let verdict = if ship {
                                "planner.edges_reduced"
                            } else {
                                "planner.edges_skipped"
                            };
                            self.lams.metrics.counter_add(verdict, 1);
                            ship
                        }
                        _ => values.len() <= self.semijoin_cap,
                    };
                    if !ship {
                        continue; // predicted (or presumed) too expensive — full shipping
                    }
                }
                let filter = if values.is_empty() {
                    // No key can match; keep the subquery's shape (the
                    // coordinator still needs its column metadata) but let
                    // it ship zero rows.
                    Expr::Binary {
                        left: Box::new(Expr::Literal(Literal::Int(0))),
                        op: BinaryOp::Eq,
                        right: Box::new(Expr::Literal(Literal::Int(1))),
                    }
                } else {
                    keys_shipped += values.len() as u64;
                    Expr::InList {
                        expr: Box::new(Expr::Column(ColumnRef::with_table(
                            other.binding.as_str(),
                            other.column.as_str(),
                        ))),
                        list: values.iter().map(|v| Expr::Literal(value_literal(v))).collect(),
                        negated: false,
                    }
                };
                filters[target].push(filter);
            }
            results[reducer] = Some(result);
        }

        // 2. Dispatch the remaining subqueries — concurrently when allowed.
        let pending: Vec<usize> = (0..n).filter(|&i| results[i].is_none()).collect();
        let dispatches = pending
            .iter()
            .map(|&i| {
                let sub = &dec.subqueries[i];
                let (sql, rewrite) = if filters[i].is_empty() {
                    (print_select(&sub.select), Rewrite::None)
                } else {
                    (print_select(&with_conjuncts(&sub.select, &filters[i])), Rewrite::Semijoin)
                };
                let est_rows = estimates.as_ref().map(|e| e[i].rows.round() as u64);
                self.site_dispatch(sub, sub_routes[i], sql, rewrite, est_rows)
            })
            .collect();
        let dispatched = self.dispatch_all(dispatches, &join_span.ctx())?;
        for (&i, p) in pending.iter().zip(dispatched) {
            results[i] = Some(p);
        }
        let partials: Vec<PartialResult> = results
            .into_iter()
            .zip(&dec.subqueries)
            .map(|(r, sub)| {
                r.ok_or_else(|| {
                    MdbsError::Internal(format!("subquery for `{}` was never run", sub.database))
                })
            })
            .collect::<Result<_, _>>()?;

        // 3. Name the strategy and total savings on the join span/metrics.
        // The coordinator's LDBS hash-joins a two-table Q' on its equi keys;
        // anything else enumerates the (filtered) cross product.
        let reduced = filters.iter().any(|f| !f.is_empty());
        let base = if n == 2 && !dec.join_keys.is_empty() { "hash" } else { "product" };
        let strategy = if reduced { format!("semijoin+{base}") } else { base.to_string() };
        let bytes_saved: u64 = partials.iter().map(PartialResult::saved).sum();
        join_span.note("strategy", &strategy);
        join_span.note("keys_shipped", keys_shipped);
        if self.measure_baseline {
            join_span.note("bytes_saved", bytes_saved);
        }
        if estimates.is_some() {
            join_span.note("planner", "costed");
        }
        self.lams.metrics.counter_add(&labeled("join.strategy", "strategy", &strategy), 1);
        self.lams.metrics.counter_add("join.keys_shipped", keys_shipped);
        let route = routes.get(&dec.coordinator).ok_or_else(|| {
            MdbsError::Catalog(format!("no route for coordinator `{}`", dec.coordinator))
        })?;
        // 4. Collect the partial results at the coordinator: the rows move
        // into the request as they are.
        let coord = self.lams.checkout(&route.site, &dec.coordinator)?;
        let temps: Vec<String> = dec.subqueries.iter().map(|s| s.part_table.clone()).collect();
        {
            let span = join_span.child(format!("lam:collect:{}", dec.coordinator));
            span.note("db", &dec.coordinator);
            span.note("partials", partials.len());
            // One batched round trip: collection stays ≈1 link latency no
            // matter how many sites contributed partials.
            coord.load_partials(
                temps.iter().cloned().zip(partials.into_iter().map(|p| p.rows)).collect(),
            )?;
        }

        // 5. Evaluate the modified global query Q' and clean up. With
        // estimates, its FROM list is greedily reordered by ascending
        // estimated partial cardinality, so the coordinator's join builds
        // its smallest intermediates first. A wildcard projection expands
        // in FROM order, so reordering would permute columns — skip it.
        let span = join_span.child(format!("lam:global:{}", dec.coordinator));
        span.note("db", &dec.coordinator);
        let wildcard = dec
            .global_query
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Wildcard | SelectItem::QualifiedWildcard(_)));
        let sql = match &estimates {
            Some(est) if n > 1 && !wildcard => {
                let mut global = dec.global_query.clone();
                let est_of = |tref: &msql_lang::TableRef| {
                    dec.subqueries
                        .iter()
                        .position(|s| s.part_table == tref.table.as_str())
                        .map_or(f64::MAX, |i| est[i].rows)
                };
                global.from.sort_by(|a, b| est_of(a).total_cmp(&est_of(b)));
                if global.from != dec.global_query.from {
                    let order: Vec<&str> = global.from.iter().map(|t| t.table.as_str()).collect();
                    span.note("join_order", order.join(","));
                }
                print_select(&global)
            }
            _ => print_select(&dec.global_query),
        };
        let req = Request::Task {
            name: "QGLOBAL".into(),
            mode: TaskMode::Auto,
            database: dec.coordinator.clone(),
            commands: vec![sql],
        };
        let (resp, attempts, _faults) = coord.call_traced(&req, &span);
        span.note("attempts", attempts);
        let _ = coord.drop_temps(temps);
        match resp? {
            (Response::TaskDone { status: 'C', payload: Some(rs), .. }, bytes) => {
                span.note("bytes", bytes);
                span.note("rows", rs.rows.len());
                Ok(rs)
            }
            (Response::TaskDone { status: 'C', payload: None, .. }, _) => Ok(ResultSet::default()),
            (Response::TaskDone { error, .. }, _) => Err(MdbsError::Local {
                service: dec.coordinator.clone(),
                message: error.unwrap_or_else(|| "global query failed".into()),
            }),
            (other, _) => Err(MdbsError::Wire(format!("unexpected reply: {other:?}"))),
        }
    }

    /// Runs every dispatch — concurrently on the worker set when
    /// [`Self::parallel`], the first on this thread — and returns the results
    /// in order. When several sites fail, the error of the first one in that
    /// order wins, so serial and parallel runs report the same one.
    fn dispatch_all(
        &self,
        dispatches: Vec<SiteDispatch>,
        ctx: &SpanCtx,
    ) -> Result<Vec<PartialResult>, MdbsError> {
        let dispatched: Vec<Result<PartialResult, MdbsError>> =
            if self.parallel && dispatches.len() > 1 {
                let jobs = dispatches
                    .into_iter()
                    .map(|dispatch| {
                        let (lams, ctx) = (self.lams.clone(), ctx.clone());
                        move || dispatch.run(&lams, &ctx)
                    })
                    .collect();
                self.workers.run(jobs)
            } else {
                dispatches.into_iter().map(|dispatch| dispatch.run(&self.lams, ctx)).collect()
            };
        dispatched.into_iter().collect()
    }

    /// What to send one subquery's site: `sql` is the subquery as decomposed,
    /// or rewritten as `rewrite` says. `est_rows` is the planner's row
    /// estimate for the subquery *as decomposed*. Under
    /// [`Self::measure_baseline`] a rewritten subquery's LAM is also asked to
    /// measure the decomposed one.
    fn site_dispatch(
        &self,
        sub: &DbSubquery,
        route: &DbRoute,
        sql: String,
        rewrite: Rewrite,
        est_rows: Option<u64>,
    ) -> SiteDispatch {
        let baseline = (self.measure_baseline && !matches!(rewrite, Rewrite::None))
            .then(|| print_select(&sub.select));
        SiteDispatch {
            database: sub.database.clone(),
            site: route.site.clone(),
            sql,
            rewrite,
            baseline,
            est_rows,
        }
    }

    /// Executes an aggregate/top-k pushdown plan: every site evaluates its
    /// rewritten subquery (partial aggregates grouped by join + group keys,
    /// or a site-local top-k), the reduced partials cross the wire, and the
    /// merge happens here at the MDBS layer — no coordinator round trips.
    fn run_pushdown(
        &self,
        dec: &Decomposition,
        plan: &PushdownPlan,
        sub_routes: &[&DbRoute],
        estimates: Option<&[Estimate]>,
        join_span: &Span,
    ) -> Result<ResultSet, MdbsError> {
        let (kind, site_sql): (&'static str, Vec<String>) = match plan {
            PushdownPlan::Aggregate(p) => {
                ("agg", p.sites.iter().map(|s| print_select(&s.select)).collect())
            }
            PushdownPlan::TopK(p) => {
                ("topk", p.sites.iter().map(|s| print_select(&s.select)).collect())
            }
        };
        let dispatches = site_sql
            .into_iter()
            .enumerate()
            .map(|(i, sql)| {
                let est_rows = estimates.map(|e| e[i].rows.round() as u64);
                self.site_dispatch(
                    &dec.subqueries[i],
                    sub_routes[i],
                    sql,
                    Rewrite::Pushed(kind),
                    est_rows,
                )
            })
            .collect();
        let partials = self.dispatch_all(dispatches, &join_span.ctx())?;
        let bytes_saved: u64 = partials.iter().map(PartialResult::saved).sum();
        let parts: Vec<ResultSet> = partials.into_iter().map(|p| p.rows).collect();
        self.lams.metrics.counter_add("agg.pushdown", 1);
        let merged = match plan {
            PushdownPlan::Aggregate(p) => {
                let rs = merge::merge_aggregate(p, &parts)?;
                self.lams.metrics.counter_add("agg.groups_merged", rs.rows.len() as u64);
                rs
            }
            PushdownPlan::TopK(p) => {
                let shipped: u64 = parts.iter().map(|p| p.rows.len() as u64).sum();
                self.lams.metrics.counter_add("topk.rows_shipped", shipped);
                merge::merge_topk(p, &parts)?
            }
        };
        join_span.note("strategy", format!("{kind}-pushdown"));
        join_span.note("keys_shipped", 0u64);
        if self.measure_baseline {
            join_span.note("bytes_saved", bytes_saved);
        }
        if estimates.is_some() {
            join_span.note("planner", "costed");
        }
        self.lams
            .metrics
            .counter_add(&labeled("join.strategy", "strategy", &format!("{kind}-pushdown")), 1);
        Ok(merged)
    }
}

/// How the subquery a site is sent differs from the one decomposition
/// produced for it.
#[derive(Clone, Copy)]
enum Rewrite {
    /// It does not.
    None,
    /// Semi-join filters were ANDed onto its WHERE clause.
    Semijoin,
    /// It is a pushdown plan's site query of this kind (`agg` / `topk`).
    Pushed(&'static str),
}

/// One site's share of a cross-database join, owning all it needs so that
/// it can run on a worker thread.
struct SiteDispatch {
    database: String,
    site: String,
    sql: String,
    rewrite: Rewrite,
    /// The subquery as decomposed, when its LAM should measure it too.
    baseline: Option<String>,
    est_rows: Option<u64>,
}

impl SiteDispatch {
    /// Checks out the site's LAM and evaluates the subquery there, noting
    /// the estimate (so EXPLAIN can show estimated vs. actual), the rewrite
    /// and — when a baseline was measured — what it kept off the wire on the
    /// span and the metrics.
    fn run(self, lams: &LamFactory, ctx: &SpanCtx) -> Result<PartialResult, MdbsError> {
        let client = lams.checkout(&self.site, &self.database)?;
        let span = ctx.child(format!("lam:partial:{}", self.database));
        if let Some(est) = self.est_rows {
            span.note("est_rows", est);
        }
        let pushed = match self.rewrite {
            Rewrite::None => false,
            Rewrite::Semijoin => {
                span.note("reduced", "semijoin");
                false
            }
            Rewrite::Pushed(kind) => {
                span.note("pushed", kind);
                true
            }
        };
        let result = client.run_partial(&self.sql, self.baseline.as_deref(), pushed, &span)?;
        if let Some(access) = &result.access {
            span.note("access", access);
        }
        if pushed && result.full_rows > 0 {
            span.note("full_rows", result.full_rows);
        }
        if result.full_bytes > 0 {
            span.note("saved", result.saved());
            lams.metrics
                .counter_add(&labeled("lam.bytes_saved", "db", &self.database), result.saved());
        }
        Ok(result)
    }
}

/// Chooses the semi-join reducer: among the subqueries on at least one join
/// edge, the one whose WHERE clause carries the most pushed-down local
/// conjuncts — a cheap proxy for selectivity — ties broken by plan order.
fn pick_reducer(dec: &Decomposition) -> usize {
    let mut best = 0usize;
    let mut best_score = -1i64;
    for (i, sub) in dec.subqueries.iter().enumerate() {
        if !dec.join_keys.iter().any(|k| k.side_in(&sub.database).is_some()) {
            continue;
        }
        let score = conjunct_count(sub.select.where_clause.as_ref()) as i64;
        if score > best_score {
            best = i;
            best_score = score;
        }
    }
    best
}

/// Chooses the semi-join reducer from the planner's estimates: among the
/// subqueries on at least one join edge, the one with the smallest estimated
/// partial — the most selective site reduces, whatever its conjunct count —
/// ties broken by plan order.
fn pick_reducer_costed(dec: &Decomposition, est: &[Estimate]) -> usize {
    let mut best = 0usize;
    let mut best_rows = f64::MAX;
    for (i, sub) in dec.subqueries.iter().enumerate() {
        if !dec.join_keys.iter().any(|k| k.side_in(&sub.database).is_some()) {
            continue;
        }
        if est[i].rows < best_rows {
            best = i;
            best_rows = est[i].rows;
        }
    }
    best
}

/// Counts the AND-ed conjuncts of a WHERE clause (0 when absent).
fn conjunct_count(e: Option<&Expr>) -> usize {
    fn walk(e: &Expr) -> usize {
        match e {
            Expr::Binary { left, op: BinaryOp::And, right } => walk(left) + walk(right),
            _ => 1,
        }
    }
    e.map_or(0, walk)
}

/// ANDs extra conjuncts onto a subquery's WHERE clause.
fn with_conjuncts(sel: &Select, extra: &[Expr]) -> Select {
    let mut out = sel.clone();
    let mut clause = out.where_clause.take();
    for e in extra {
        clause = Some(match clause {
            Some(w) => {
                Expr::Binary { left: Box::new(w), op: BinaryOp::And, right: Box::new(e.clone()) }
            }
            None => e.clone(),
        });
    }
    out.where_clause = clause;
    out
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
