//! The outside-in per-layer budget. After every traced pass each statement
//! is *replayed* through the layers' public functions — parser, translator,
//! plan generator, DOL engine, codecs, local engines, merge, WAL — with one
//! child span per call. Nothing inside the program is instrumented: a
//! layer's number is the time its public entry points take on the actual
//! statements, local subqueries, frames and partials of the workload.
//!
//! Replays change data exactly like the statement they mirror (they run the
//! same local SQL on the same engines), so the checker's model is told.

use crate::check::Checker;
use crate::run::Observer;
use crate::trace::Recorder;
use crate::workload::{Kind, Stmt};
use dol::engine::TaskExecution;
use dol::{DolEngine, DolError, DolService, ServiceFactory, TaskDef};
use ldbs::value::Value;
use ldbs::{ColumnSchema, Engine, ExecOutcome, ResultSet, TableSchema, TxnId};
use mdbs::lamclient::LamClient;
use mdbs::planner::PlannerContext;
use mdbs::proto::{self, Request, Response, TaskMode};
use mdbs::translate::{
    self, multitransaction_plan, retrieval_plan, update_plan, DbRoute, Decomposition,
    GeneratedPlan, MtxQueryPlan, PushdownPlan, Translated,
};
use mdbs::wal::{Wal, WalObserver, WalRecord};
use mdbs::{codec, merge, wire, Session};
use msql_lang::printer::print_select;
use msql_lang::{
    parse_statement, print, BinaryOp, ColumnRef, Expr, MsqlQuery, Multitransaction, QueryBody,
    Select, Statement,
};
use netsim::BufferPool;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counts taken at the same boundaries as the spans.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    /// Statements replayed (the denominator of every per-statement mean).
    pub statements: u64,
    pub expand_candidates: u64,
    pub pertinent: u64,
    pub dol_tasks: u64,
    pub merged_groups: u64,
    /// Response frames: bytes in each format and the rows they carry.
    pub text_response_bytes: u64,
    pub binary_response_bytes: u64,
    pub response_rows: u64,
}

/// Messages per statement kind, counted around `Session::execute` on the
/// probe's `net.messages` counter. (`Network::stats()` would do, but it
/// clones a per-link map that gains two entries with every LAM connection,
/// and a statement opens several: asked per statement it slowed the traced
/// stretch down by the minute.)
#[derive(Debug, Clone, Default)]
pub struct KindTraffic {
    before: u64,
    /// kind → (messages, statements).
    pub by_kind: BTreeMap<&'static str, (u64, u64)>,
}

impl KindTraffic {
    pub fn msgs_per_stmt(&self, kind: Kind) -> f64 {
        self.by_kind.get(kind.name()).map_or(0.0, |(m, n)| *m as f64 / (*n).max(1) as f64)
    }
}

impl KindTraffic {
    fn before(&mut self, session: &Session) {
        self.before = session.metrics_registry().counter("net.messages");
    }

    fn after(&mut self, session: &Session, stmt: &Stmt) {
        let msgs = session.metrics_registry().counter("net.messages") - self.before;
        let slot = self.by_kind.entry(stmt.class.kind().name()).or_insert((0, 0));
        slot.0 += msgs;
        slot.1 += 1;
    }
}

/// The traced run's observer: a root span per statement, then the replay of
/// every statement of the pass.
pub struct Replayer {
    pub rec: Recorder,
    pub counts: LayerCounts,
    pub traffic: KindTraffic,
    workload: &'static str,
    next_stmt: u64,
    /// Statement ids of the pass being run, in order (roots ↔ replays).
    pass_ids: Vec<u64>,
    pool: BufferPool,
    /// What went wrong in a replay (a replay never fails the benchmark's
    /// statements, but a broken replay must not go unnoticed).
    pub errors: Vec<String>,
}

impl Replayer {
    pub fn new(workload: &'static str) -> Replayer {
        Replayer {
            rec: Recorder::new(),
            counts: LayerCounts::default(),
            traffic: KindTraffic::default(),
            workload,
            next_stmt: 1,
            pass_ids: Vec::new(),
            pool: BufferPool::default(),
            errors: Vec::new(),
        }
    }
}

impl Observer for Replayer {
    fn before(&mut self, session: &Session, _pass: u64, _stmt: &Stmt) {
        self.traffic.before(session);
    }

    fn after(&mut self, session: &Session, stmt: &Stmt, micros: f64, ok: bool) {
        self.traffic.after(session, stmt);
        let id = self.next_stmt;
        self.next_stmt += 1;
        self.pass_ids.push(id);
        let root = self.rec.closed(0, id, "session.execute", micros);
        self.rec.attr(root, "workload", self.workload);
        self.rec.attr(root, "class", stmt.class.name());
        self.rec.attr(root, "ok", ok);
    }

    fn pass_done(
        &mut self,
        session: &mut Session,
        checker: &mut Checker,
        pass: u64,
        stmts: &[Stmt],
    ) {
        let ids = std::mem::take(&mut self.pass_ids);
        for (stmt, id) in stmts.iter().zip(ids) {
            let root = self.rec.open(0, id, "replay");
            self.rec.attr(root, "class", stmt.class.name());
            self.rec.attr(root, "pass", pass);
            if let Err(e) = self.replay(session, stmt, root, id) {
                if self.errors.len() < 5 {
                    self.errors.push(format!("replay of {}: {e}", stmt.class.name()));
                }
            }
            self.rec.close(root);
            checker.apply_effect(stmt);
            self.counts.statements += 1;
        }
    }
}

/// `database → route`, as `Session` derives it from the GDD and the AD.
fn routes(session: &Session) -> Result<HashMap<String, DbRoute>, String> {
    let gdd = session.gdd();
    let ad = session.ad();
    let mut out = HashMap::new();
    for db in gdd.database_names() {
        let service = gdd.service_of(db).map_err(|e| e.to_string())?;
        let entry = ad.service(service).map_err(|e| e.to_string())?;
        out.insert(
            db.to_string(),
            DbRoute {
                database: db.to_string(),
                site: entry.site.clone(),
                supports_2pc: entry.supports_2pc(),
            },
        );
    }
    Ok(out)
}

fn engine_of(session: &Session, database: &str) -> Result<Arc<Mutex<Engine>>, String> {
    let service = session.gdd().service_of(database).map_err(|e| e.to_string())?.to_string();
    session.engine(&service).ok_or_else(|| format!("no engine for service `{service}`"))
}

/// One timed call inside the direct DOL services (turned into a span after
/// the run: services run behind `dyn DolService` and cannot hold the
/// recorder).
struct Event {
    name: &'static str,
    start: Instant,
    end: Instant,
}

#[derive(Default)]
struct DirectLog {
    events: Vec<Event>,
    frames: Vec<(Request, Response)>,
}

/// A DOL service that runs tasks straight on the local engine, the way the
/// LAM does, and logs the frames the LAM protocol would have carried.
struct DirectService {
    engine: Arc<Mutex<Engine>>,
    database: String,
    txns: HashMap<String, TxnId>,
    log: Arc<Mutex<DirectLog>>,
}

impl DirectService {
    fn timed<T>(&self, name: &'static str, f: impl FnOnce(&mut Engine) -> T) -> T {
        let mut engine = self.engine.lock();
        let start = Instant::now();
        let out = f(&mut engine);
        let end = Instant::now();
        drop(engine);
        self.log.lock().events.push(Event { name, start, end });
        out
    }

    fn phase_two(&mut self, req: Request, f: impl FnOnce(&mut Engine, TxnId)) {
        if let Request::Commit { task } | Request::Abort { task } = &req {
            if let Some(txn) = self.txns.remove(task) {
                self.timed("ldbs.prepare_commit", |e| f(e, txn));
            }
        }
        self.log.lock().frames.push((req, Response::Ok));
    }
}

impl DolService for DirectService {
    fn execute_task(&mut self, task: &TaskDef) -> TaskExecution {
        let mode = if task.nocommit { TaskMode::NoCommit } else { TaskMode::Auto };
        let req = Request::Task {
            name: task.name.clone(),
            mode,
            database: self.database.clone(),
            commands: task.commands.clone(),
        };
        let db = self.database.clone();
        let mut affected = 0u64;
        let mut rows: Option<ResultSet> = None;
        let mut error = None;
        if task.nocommit {
            let txn = self.timed("ldbs.prepare_commit", |e| {
                let txn = e.begin();
                for cmd in &task.commands {
                    match e.execute_in(txn, &db, cmd) {
                        Ok(ExecOutcome::Affected(n)) => affected += n as u64,
                        Ok(ExecOutcome::Rows(rs)) => rows = Some(rs),
                        Err(err) => {
                            let _ = e.rollback(txn);
                            error = Some(err.to_string());
                            return None;
                        }
                    }
                }
                match e.prepare(txn) {
                    Ok(()) => Some(txn),
                    Err(err) => {
                        error = Some(err.to_string());
                        None
                    }
                }
            });
            if let Some(txn) = txn {
                self.txns.insert(task.name.clone(), txn);
            }
        } else {
            for cmd in &task.commands {
                let is_read =
                    cmd.trim_start().get(..6).is_some_and(|p| p.eq_ignore_ascii_case("select"));
                let name = if is_read { "ldbs.exec" } else { "ldbs.write" };
                let out = self.timed(name, |e| {
                    let txn = e.begin();
                    match e.execute_in(txn, &db, cmd) {
                        Ok(out) => e.commit(txn).map(|()| out),
                        Err(err) => {
                            let _ = e.rollback(txn);
                            Err(err)
                        }
                    }
                });
                match out {
                    Ok(ExecOutcome::Affected(n)) => affected += n as u64,
                    Ok(ExecOutcome::Rows(rs)) => rows = Some(rs),
                    Err(err) => {
                        error = Some(err.to_string());
                        break;
                    }
                }
            }
        }
        let payload = rows.map(|rs| {
            let start = Instant::now();
            let p = wire::encode_result_set(&rs);
            let end = Instant::now();
            self.log.lock().events.push(Event { name: "codec.rows_to_payload", start, end });
            p
        });
        let status = match (&error, task.nocommit) {
            (Some(_), _) => 'A',
            (None, true) => 'P',
            (None, false) => 'C',
        };
        let resp = Response::TaskDone { status, affected, payload, error: error.clone() };
        self.log.lock().frames.push((req, resp));
        match (error, task.nocommit) {
            (Some(e), _) => TaskExecution::aborted(e),
            (None, true) => TaskExecution::prepared(),
            (None, false) => TaskExecution::committed(None),
        }
    }

    fn commit_task(&mut self, task_name: &str) -> Result<(), DolError> {
        self.phase_two(Request::Commit { task: task_name.to_string() }, |e, txn| {
            let _ = e.commit(txn);
        });
        Ok(())
    }

    fn abort_task(&mut self, task_name: &str) -> Result<(), DolError> {
        self.phase_two(Request::Abort { task: task_name.to_string() }, |e, txn| {
            let _ = e.rollback(txn);
        });
        Ok(())
    }

    fn compensate_task(&mut self, _task: &TaskDef) -> Result<(), DolError> {
        Ok(())
    }

    fn close(&mut self) {}
}

struct DirectFactory<'a> {
    session: &'a Session,
    log: Arc<Mutex<DirectLog>>,
}

impl ServiceFactory for DirectFactory<'_> {
    fn connect(&self, service: &str, _site: &str) -> Result<Box<dyn DolService>, DolError> {
        let engine = engine_of(self.session, service).map_err(DolError::Service)?;
        Ok(Box::new(DirectService {
            engine,
            database: service.to_string(),
            txns: HashMap::new(),
            log: Arc::clone(&self.log),
        }))
    }
}

/// A service that does nothing: what is left of `DolEngine::execute` is the
/// engine's own scheduling, status bookkeeping and thread hand-offs.
struct NoopService;

impl DolService for NoopService {
    fn execute_task(&mut self, task: &TaskDef) -> TaskExecution {
        if task.nocommit {
            TaskExecution::prepared()
        } else {
            TaskExecution::committed(None)
        }
    }
    fn commit_task(&mut self, _task_name: &str) -> Result<(), DolError> {
        Ok(())
    }
    fn abort_task(&mut self, _task_name: &str) -> Result<(), DolError> {
        Ok(())
    }
    fn compensate_task(&mut self, _task: &TaskDef) -> Result<(), DolError> {
        Ok(())
    }
    fn close(&mut self) {}
}

struct NoopFactory;

impl ServiceFactory for NoopFactory {
    fn connect(&self, _service: &str, _site: &str) -> Result<Box<dyn DolService>, DolError> {
        Ok(Box::new(NoopService))
    }
}

fn rows_in(resp: &Response) -> Option<&str> {
    match resp {
        Response::TaskDone { payload, .. }
        | Response::PartialDone { payload, .. }
        | Response::PartialAggDone { payload, .. } => payload.as_deref(),
        _ => None,
    }
}

/// ANDs extra conjuncts onto a subquery's WHERE clause (what the executor
/// does with semi-join filters).
fn with_conjuncts(sel: &Select, extra: Vec<Expr>) -> Select {
    let mut out = sel.clone();
    let mut clause = out.where_clause.take();
    for e in extra {
        clause = Some(match clause {
            Some(w) => Expr::Binary { left: Box::new(w), op: BinaryOp::And, right: Box::new(e) },
            None => e,
        });
    }
    out.where_clause = clause;
    out
}

impl Replayer {
    fn replay(
        &mut self,
        session: &mut Session,
        stmt: &Stmt,
        root: u64,
        id: u64,
    ) -> Result<(), String> {
        let parsed = self
            .rec
            .time(root, id, "msql-lang.parse", || parse_statement(&stmt.sql))
            .map_err(|e| e.to_string())?;
        self.rec.time(root, id, "msql-lang.print", || print(&parsed));
        match &parsed {
            Statement::Query(q) => self.replay_query(session, q, root, id),
            Statement::Multitransaction(m) => self.replay_mtx(session, m, root, id),
            Statement::Analyze(_) => self.replay_analyze(session, root, id),
            other => Err(format!("no replay for {other:?}")),
        }
    }

    fn replay_query(
        &mut self,
        session: &mut Session,
        q: &MsqlQuery,
        root: u64,
        id: u64,
    ) -> Result<(), String> {
        let mut scope = session.scope().clone();
        if let Some(u) = &q.use_clause {
            scope.apply_use(u).map_err(|e| e.to_string())?;
        }
        for l in &q.lets {
            scope.apply_let(l).map_err(|e| e.to_string())?;
        }
        let routes = routes(session)?;
        let translated = {
            let gdd = session.gdd();
            let t = self
                .rec
                .time(root, id, "translate.body", || {
                    translate::translate_body(&q.body, &scope, &gdd)
                })
                .map_err(|e| e.to_string())?;
            if let Translated::PerDb(locals) = &t {
                // Useful outcomes ÷ attempts of the substitution phase.
                let candidates =
                    translate::expand(&q.body, &scope, &gdd).map_err(|e| e.to_string())?;
                self.counts.expand_candidates += candidates.len() as u64;
                self.counts.pertinent += locals.len() as u64;
            }
            t
        };
        match translated {
            Translated::PerDb(locals) => {
                let plan = self
                    .rec
                    .time(root, id, "translate.plangen", || match &q.body {
                        QueryBody::Select(_) => retrieval_plan(&locals, &routes),
                        _ => update_plan(&locals, &HashMap::new(), &routes),
                    })
                    .map_err(|e| e.to_string())?;
                self.replay_plan(session, &plan, root, id)
            }
            Translated::CrossDb(dec) => self.replay_cross_db(session, &dec, &routes, root, id),
        }
    }

    fn replay_mtx(
        &mut self,
        session: &mut Session,
        m: &Multitransaction,
        root: u64,
        id: u64,
    ) -> Result<(), String> {
        let routes = routes(session)?;
        let mut working = session.scope().clone();
        let mut queries = Vec::with_capacity(m.queries.len());
        for q in &m.queries {
            if let Some(u) = &q.use_clause {
                working.apply_use(u).map_err(|e| e.to_string())?;
            }
            for l in &q.lets {
                working.apply_let(l).map_err(|e| e.to_string())?;
            }
            let gdd = session.gdd();
            let translated = self
                .rec
                .time(root, id, "translate.body", || {
                    translate::translate_body(&q.body, &working, &gdd)
                })
                .map_err(|e| e.to_string())?;
            let Translated::PerDb(locals) = translated else {
                return Err("cross-database join inside a multitransaction".into());
            };
            let candidates =
                translate::expand(&q.body, &working, &gdd).map_err(|e| e.to_string())?;
            self.counts.expand_candidates += candidates.len() as u64;
            self.counts.pertinent += locals.len() as u64;
            queries.push(MtxQueryPlan { locals, comps: HashMap::new() });
        }
        let states: Vec<Vec<String>> = m
            .acceptable_states
            .iter()
            .map(|s| s.databases.iter().map(|d| d.as_str().to_string()).collect())
            .collect();
        let plan = self
            .rec
            .time(root, id, "translate.plangen", || {
                multitransaction_plan(&queries, &states, &routes)
            })
            .map_err(|e| e.to_string())?;
        self.replay_plan(session, &plan, root, id)
    }

    /// A generated DOL plan: the engine alone (no-op services), then the
    /// same program on direct services for the local-engine and frame costs,
    /// then the WAL records the run produced.
    fn replay_plan(
        &mut self,
        session: &Session,
        plan: &GeneratedPlan,
        root: u64,
        id: u64,
    ) -> Result<(), String> {
        self.counts.dol_tasks += plan.tasks.len() as u64;
        self.rec
            .time(root, id, "dol.engine", || DolEngine::new(&NoopFactory).execute(&plan.program))
            .map_err(|e| e.to_string())?;

        let log = Arc::new(Mutex::new(DirectLog::default()));
        let factory = DirectFactory { session, log: Arc::clone(&log) };
        let mut engine = DolEngine::serial(&factory);
        let scratch = Wal::in_memory();
        let logged = match &plan.recovery {
            Some(recovery) => {
                let mtx_id = scratch.next_mtx_id();
                scratch
                    .append(&WalRecord::Begin {
                        mtx_id,
                        tasks: recovery.tasks.clone(),
                        states: recovery.states.clone(),
                        oracle: recovery.oracle.clone(),
                        abort_compensate: recovery.abort_compensate.clone(),
                    })
                    .map_err(|e| e.to_string())?;
                engine.observer = Some(Arc::new(WalObserver::new(
                    scratch.clone(),
                    mtx_id,
                    recovery.decisions.clone(),
                )));
                Some(mtx_id)
            }
            None => None,
        };
        let direct = self.rec.open(root, id, "harness.direct_run");
        let out = engine.execute(&plan.program);
        self.rec.close(direct);
        out.map_err(|e| e.to_string())?;
        if let Some(mtx_id) = logged {
            scratch.append(&WalRecord::End { mtx_id }).map_err(|e| e.to_string())?;
        }
        drop(engine);
        let log = std::mem::take(&mut *log.lock());
        self.log_to_spans(log, root, direct, id);

        // The records this statement logged, appended again under a span.
        let records = scratch.records().map_err(|e| e.to_string())?;
        if !records.is_empty() {
            let replay_wal = Wal::in_memory();
            for record in &records {
                self.rec
                    .time(root, id, "wal.append", || replay_wal.append(record))
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    /// Turns a direct run's timed engine calls into spans and measures both
    /// codecs on every frame it logged.
    fn log_to_spans(&mut self, log: DirectLog, root: u64, direct: u64, id: u64) {
        for e in log.events {
            self.rec.interval(direct, id, e.name, e.start, e.end);
        }
        for (req, resp) in &log.frames {
            self.frame(req, resp, root, id);
        }
    }

    /// Both codecs over one request/response pair, plus the payload parse
    /// the coordinator does on the response.
    fn frame(&mut self, req: &Request, resp: &Response, root: u64, id: u64) {
        let corr = id;
        let (text_req, text_resp) = self.rec.time(root, id, "codec.text.encode", || {
            (
                proto::encode_with_correlation(corr, &req.encode()),
                proto::encode_with_correlation(corr, &resp.encode()),
            )
        });
        let _decoded = self.rec.time(root, id, "codec.text.decode", || {
            let (_, body) = proto::split_correlation(&text_req);
            let r = Request::decode(body);
            let (_, body) = proto::split_correlation(&text_resp);
            (r, Response::decode(body))
        });
        let pool = self.pool.clone();
        let (bin_req, bin_resp) = self.rec.time(root, id, "codec.binary.encode", || {
            (
                codec::encode_request(&pool, Some(corr), req).into_vec(),
                codec::encode_response(&pool, Some(corr), resp).into_vec(),
            )
        });
        let _decoded = self.rec.time(root, id, "codec.binary.decode", || {
            (codec::decode_request(&bin_req), codec::decode_response(&bin_resp))
        });
        self.counts.text_response_bytes += text_resp.len() as u64;
        self.counts.binary_response_bytes += bin_resp.len() as u64;
        if let Some(payload) = rows_in(resp) {
            if let Ok(rs) = self
                .rec
                .time(root, id, "codec.payload_to_rows", || wire::decode_result_set(payload))
            {
                self.counts.response_rows += rs.rows.len() as u64;
            }
        }
    }

    /// Runs `sql` on `database`'s engine under an `ldbs.exec` span and
    /// encodes the rows the way the LAM does before shipping them.
    fn site_query(
        &mut self,
        session: &Session,
        database: &str,
        sql: &str,
        root: u64,
        id: u64,
    ) -> Result<(ResultSet, String), String> {
        let engine = engine_of(session, database)?;
        let rs = {
            let mut engine = engine.lock();
            self.rec
                .time(root, id, "ldbs.exec", || engine.execute(database, sql))
                .map_err(|e| e.to_string())?
                .into_result_set()
                .map_err(|e| e.to_string())?
        };
        let payload =
            self.rec.time(root, id, "codec.rows_to_payload", || wire::encode_result_set(&rs));
        Ok((rs, payload))
    }

    fn replay_cross_db(
        &mut self,
        session: &Session,
        dec: &Decomposition,
        routes: &HashMap<String, DbRoute>,
        root: u64,
        id: u64,
    ) -> Result<(), String> {
        // The statistics the coordinator would hold (fetched by the harness,
        // untimed), then the estimator alone.
        let mut ctx = PlannerContext::default();
        for sub in &dec.subqueries {
            let route = routes.get(&sub.database).ok_or("no route")?;
            let client = LamClient::connect(
                session.network(),
                &route.site,
                &sub.database,
                Duration::from_secs(10),
            )
            .map_err(|e| e.to_string())?;
            ctx.insert_db(&sub.database, client.fetch_stats().map_err(|e| e.to_string())?);
        }
        let estimates: Option<Vec<_>> = self.rec.time(root, id, "planner.estimate", || {
            dec.subqueries.iter().map(|s| ctx.estimate_subquery(s)).collect()
        });

        if let (true, Some(plan)) = (session.agg_pushdown, &dec.pushdown) {
            let site_sql: Vec<String> = match plan {
                PushdownPlan::Aggregate(p) => {
                    p.sites.iter().map(|s| print_select(&s.select)).collect()
                }
                PushdownPlan::TopK(p) => p.sites.iter().map(|s| print_select(&s.select)).collect(),
            };
            let mut parts = Vec::new();
            for (sub, sql) in dec.subqueries.iter().zip(&site_sql) {
                let (rs, payload) = self.site_query(session, &sub.database, sql, root, id)?;
                let req = Request::PartialAgg {
                    database: sub.database.clone(),
                    sql: sql.clone(),
                    baseline: None,
                };
                let resp = Response::PartialAggDone {
                    payload: Some(payload),
                    error: None,
                    groups: rs.rows.len() as u64,
                    full_rows: 0,
                    full_bytes: 0,
                };
                self.frame(&req, &resp, root, id);
                parts.push(rs);
            }
            let merged = match plan {
                PushdownPlan::Aggregate(p) => {
                    self.rec.time(root, id, "merge.aggregate", || merge::merge_aggregate(p, &parts))
                }
                PushdownPlan::TopK(p) => {
                    self.rec.time(root, id, "merge.topk", || merge::merge_topk(p, &parts))
                }
            }
            .map_err(|e| e.to_string())?;
            self.counts.merged_groups += merged.rows.len() as u64;
            return Ok(());
        }

        // Classic plan: semi-join reducer first (smallest estimate, else
        // the first subquery on a join edge), its distinct keys filter the
        // other subqueries, partials load at the coordinator, Q' runs there.
        let n = dec.subqueries.len();
        let on_edge = |i: usize| {
            dec.join_keys.iter().any(|k| k.side_in(&dec.subqueries[i].database).is_some())
        };
        let reducer = (0..n).filter(|&i| on_edge(i)).min_by(|&a, &b| match &estimates {
            Some(est) => est[a].rows.total_cmp(&est[b].rows),
            None => std::cmp::Ordering::Equal,
        });
        let mut partials: Vec<Option<(ResultSet, String)>> = vec![None; n];
        let mut filters: Vec<Vec<Expr>> = vec![Vec::new(); n];
        let mut sqls: Vec<String> =
            dec.subqueries.iter().map(|s| print_select(&s.select)).collect();
        if let (true, Some(r)) = (session.semijoin && n > 1, reducer) {
            let sub = &dec.subqueries[r];
            let (rs, payload) = self.site_query(session, &sub.database, &sqls[r], root, id)?;
            for key in &dec.join_keys {
                let (Some(own), Some(other)) =
                    (key.side_in(&sub.database), key.side_opposite(&sub.database))
                else {
                    continue;
                };
                let Some(col) = rs.columns.iter().position(|c| c.name == own.part_column) else {
                    continue;
                };
                let Some(target) = dec.subqueries.iter().position(|s| s.database == other.database)
                else {
                    continue;
                };
                let mut values: Vec<Value> = rs
                    .rows
                    .iter()
                    .map(|row| row[col].clone())
                    .filter(|v| !matches!(v, Value::Null))
                    .collect();
                values.sort_by(|a, b| a.total_cmp(b));
                values.dedup_by(|a, b| a.total_cmp(b).is_eq());
                if values.is_empty() || values.len() > session.semijoin_cap {
                    continue;
                }
                filters[target].push(Expr::InList {
                    expr: Box::new(Expr::Column(ColumnRef::with_table(
                        other.binding.as_str(),
                        other.column.as_str(),
                    ))),
                    list: values
                        .iter()
                        .map(|v| Expr::Literal(ldbs::eval::value_literal(v)))
                        .collect::<Vec<Expr>>(),
                    negated: false,
                });
            }
            partials[r] = Some((rs, payload));
        }
        for i in 0..n {
            if partials[i].is_some() {
                continue;
            }
            let sub = &dec.subqueries[i];
            let extra = std::mem::take(&mut filters[i]);
            if !extra.is_empty() {
                sqls[i] = print_select(&with_conjuncts(&sub.select, extra));
            }
            partials[i] = Some(self.site_query(session, &sub.database, &sqls[i], root, id)?);
        }
        let mut parts = Vec::with_capacity(n);
        for (i, sub) in dec.subqueries.iter().enumerate() {
            let (_, payload) = partials[i].take().ok_or("subquery not dispatched")?;
            let req = Request::Partial {
                database: sub.database.clone(),
                sql: sqls[i].clone(),
                baseline: None,
            };
            let resp = Response::PartialDone {
                payload: Some(payload.clone()),
                error: None,
                full_rows: 0,
                full_bytes: 0,
                access: None,
            };
            self.frame(&req, &resp, root, id);
            parts.push((sub.part_table.clone(), payload));
        }

        // Collect at the coordinator: one LOADMANY, Q', one DROPMANY.
        let load = Request::LoadMany { database: dec.coordinator.clone(), parts: parts.clone() };
        self.frame(&load, &Response::Ok, root, id);
        let engine = engine_of(session, &dec.coordinator)?;
        let global_sql = print_select(&dec.global_query);
        let coord = self.rec.open(root, id, "ldbs.coord_join");
        let result = (|| -> Result<ResultSet, String> {
            for (table, payload) in &parts {
                let rs = self
                    .rec
                    .time(coord, id, "codec.payload_to_rows", || wire::decode_result_set(payload))
                    .map_err(|e| e.to_string())?;
                let columns = rs
                    .columns
                    .iter()
                    .map(|c| ColumnSchema::new(c.name.clone(), c.data_type))
                    .collect();
                let mut schema = TableSchema::new(table.as_str(), columns);
                schema.public = false;
                let mut t = ldbs::table::Table::new(schema);
                for row in rs.rows {
                    t.insert(row).map_err(|e| e.to_string())?;
                }
                let mut engine = engine.lock();
                let db = engine.database_mut(&dec.coordinator).map_err(|e| e.to_string())?;
                let _ = db.remove_table(table);
                db.insert_table(t);
            }
            let out = engine.lock().execute(&dec.coordinator, &global_sql);
            let mut engine = engine.lock();
            let db = engine.database_mut(&dec.coordinator).map_err(|e| e.to_string())?;
            for (table, _) in &parts {
                let _ = db.remove_table(table);
            }
            out.map_err(|e| e.to_string())?.into_result_set().map_err(|e| e.to_string())
        })();
        self.rec.close(coord);
        let rs = result?;
        let payload =
            self.rec.time(root, id, "codec.rows_to_payload", || wire::encode_result_set(&rs));
        let global = Request::Task {
            name: "QGLOBAL".into(),
            mode: TaskMode::Auto,
            database: dec.coordinator.clone(),
            commands: vec![global_sql],
        };
        let done =
            Response::TaskDone { status: 'C', affected: 0, payload: Some(payload), error: None };
        self.frame(&global, &done, root, id);
        let drop = Request::DropMany {
            database: dec.coordinator.clone(),
            tables: parts.into_iter().map(|(t, _)| t).collect(),
        };
        self.frame(&drop, &Response::Ok, root, id);
        Ok(())
    }

    fn replay_analyze(&mut self, session: &Session, root: u64, id: u64) -> Result<(), String> {
        let engine = engine_of(session, "db0")?;
        let sql = "ANALYZE fact";
        let affected = {
            let mut engine = engine.lock();
            self.rec
                .time(root, id, "ldbs.analyze", || engine.execute("db0", sql))
                .map_err(|e| e.to_string())?
                .affected()
        };
        let req = Request::Task {
            name: "ANALYZE".into(),
            mode: TaskMode::Auto,
            database: "db0".into(),
            commands: vec![sql.into()],
        };
        let resp = Response::TaskDone {
            status: 'C',
            affected: affected as u64,
            payload: None,
            error: None,
        };
        self.frame(&req, &resp, root, id);
        Ok(())
    }
}
