//! The public facade: a loosely coupled federation executing extended MSQL.
//!
//! Since the concurrency split, the facade is layered the way the paper's
//! server is ("the server handles multiple user sessions"):
//!
//! * [`FederationCore`] — the shared, thread-safe substrate: the network,
//!   both dictionaries, the LAM handles, the trigger registry, the logical
//!   clock and the metrics registry. One per federation, behind an `Arc`.
//! * [`Session`] — one user's execution context: scope, deferred-commit
//!   global transaction, per-session accounting, tracing and WAL. Cheap to
//!   create ([`Session::session`]), `Send`, and independent — N threads run
//!   N sessions against the same core at once. [`Federation`] is another
//!   name for the primary session, the one [`Session::new`] creates with
//!   its core.

use crate::codec::WireFormat;
use crate::error::MdbsError;
use crate::executor::{task_failed, DbOutcome, Executor, MsqlOutcome, MtxReport, UpdateReport};
use crate::gtxn::GlobalTransaction;
use crate::lam::{spawn_lam, LamHandle, LamServerStats};
use crate::lamclient::{ConnectionPool, LamFactory, TaskOutput};
use crate::planner::{plan_join, PlannerContext, DEFAULT_SEMIJOIN_CAP};
use crate::retry::{shared_stats, ExecStats, RetryPolicy, SharedExecStats};
use crate::scope::{ScopeDb, SessionScope};
use crate::translate::plangen::autocommit_plan;
use crate::translate::{
    self, multitransaction_plan, retrieval_plan, update_plan, DbRoute, Decomposition,
    GeneratedPlan, LocalQuery, MtxQueryPlan, Translated,
};
use crate::wal::{Wal, WalRecord, WalTask};
use catalog::{
    apply_import, AuxiliaryDirectory, GddColumn, GddTable, GlobalDataDictionary, ServiceEntry,
};
use dol::{TaskDef, TaskVerb};
use ldbs::profile::StatementClass;
use ldbs::Engine;
use msql_lang::printer::print;
use msql_lang::{CreateTrigger, MsqlQuery, Multitransaction, QueryBody, Statement};
use netsim::Network;
use obs::{
    labeled, ExplainReport, LogicalClock, MetricsRegistry, MetricsSnapshot, Span, SpanCtx,
    SpanTree, Tracer,
};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How many times a session transparently re-runs a statement whose every
/// subtransaction aborted as a deadlock victim. Victims are chosen so the
/// surviving transaction makes progress, so a bounded retry almost always
/// succeeds; past the bound the retriable error surfaces to the caller.
const DEADLOCK_RETRIES: u32 = 4;

/// How many prepared statements a session keeps; past it, the oldest entry
/// goes first (DESIGN §3a.18).
pub const PLAN_CACHE_CAPACITY: usize = 128;

/// A write to a table, as interdatabase triggers match it:
/// `(database, table, event)`.
type WriteEvent = (String, msql_lang::WildName, msql_lang::TriggerEvent);

/// The shared substrate of a federation: everything that is one-per-server
/// rather than one-per-user. All mutable pieces sit behind their own locks,
/// so concurrent sessions only serialize on catalog *changes*, never on
/// statement execution.
pub struct FederationCore {
    net: Network,
    ad: RwLock<AuxiliaryDirectory>,
    gdd: RwLock<GlobalDataDictionary>,
    lams: RwLock<HashMap<String, LamHandle>>,
    /// Interdatabase triggers (MSQL §2), fired after committed
    /// modifications in immediate (non-deferred) mode.
    triggers: RwLock<Vec<CreateTrigger>>,
    /// Deterministic logical clock, shared with the network probe and every
    /// statement tracer (no wall time: identical runs read identical ticks).
    clock: LogicalClock,
    /// Shared metrics registry: the network probe, LAM clients and the
    /// executor all write here; [`Session::metrics`] reads it back.
    metrics: MetricsRegistry,
    /// The GDD's statistics tier: per database, the site statistics its LAM
    /// exported over the `STATS` exchange. Filled lazily the first time a
    /// cross-database join touches the database, invalidated by DDL and
    /// `ANALYZE` against it.
    site_stats: RwLock<HashMap<String, Vec<crate::wire::SiteTableStats>>>,
    /// Next session id (the primary session is 0).
    session_seq: AtomicU64,
    /// Bumped by every write to `gdd` / `ad` ([`FederationCore::write_catalog`]):
    /// a prepared statement is valid while it reads what it was prepared at.
    catalog_epoch: AtomicU64,
}

impl FederationCore {
    /// The one way to change the catalog: runs `f` on both dictionaries under
    /// their write locks and bumps the catalog epoch before they are released,
    /// whether `f` succeeded or not — a write that fails half way may already
    /// have changed something. A session reads the epoch before it reads the
    /// dictionaries, so a plan tagged with the new epoch saw the new catalog.
    fn write_catalog<T>(
        &self,
        f: impl FnOnce(&mut GlobalDataDictionary, &mut AuxiliaryDirectory) -> T,
    ) -> T {
        let (mut gdd, mut ad) = (self.gdd.write(), self.ad.write());
        let out = f(&mut gdd, &mut ad);
        self.catalog_epoch.fetch_add(1, Ordering::SeqCst);
        out
    }
}

/// One user session on a federation: private scope, deferred-commit state,
/// accounting, tracing and WAL, plus an `Arc` to the shared core. `Send`, so
/// sessions move to worker threads; create them with [`Session::session`].
pub struct Session {
    /// Pending vital subqueries in deferred-commit mode. Declared before
    /// `core` so a drop-time rollback still finds live LAM threads.
    gtxn: GlobalTransaction,
    /// §3.2.2 deferred-commit mode: vital subqueries stay prepared across
    /// statements until a synchronization point.
    deferred: bool,
    scope: SessionScope,
    /// Recursion guard for cascading triggers.
    trigger_depth: u32,
    /// True while an EXPLAIN runs its target: the one time sites
    /// are asked to measure the subquery a rewrite replaced.
    explaining: bool,
    /// Per-request network timeout.
    pub timeout: Duration,
    /// Transient-fault retry policy for every LAM request (default: a
    /// single attempt, faults surface immediately).
    pub retry: RetryPolicy,
    /// Graceful degradation: tolerate services unreachable at OPEN time,
    /// letting the §3.2 vital semantics decide the statement's fate
    /// (default false: an unreachable service fails the plan at OPEN).
    pub tolerate_unreachable: bool,
    /// Semi-join reduction of cross-database joins (default true): ship the
    /// reducer's distinct join-key values to the other sites as `IN (…)`
    /// filters so only matching rows cross the wire.
    pub semijoin: bool,
    /// Per-edge cap on the distinct key values shipped as a semi-join
    /// filter; beyond it the edge falls back to full shipping. Applies only
    /// when the cost planner has no estimates for the edge — with fresh
    /// `ANALYZE` statistics the decision is an estimated-bytes comparison
    /// instead. Without statistics a join is planned heuristically.
    pub semijoin_cap: usize,
    /// Aggregate/top-k pushdown of cross-database joins (default true):
    /// when decomposition proves a 2-site query's aggregates decomposable
    /// (or it is a pure-product top-k), each site pre-aggregates (or limits)
    /// locally and the MDBS layer merges the reduced partials. Off — or any
    /// ineligible query — executes the classic ship-everything coordinator
    /// plan, byte-for-byte.
    pub agg_pushdown: bool,
    /// Encoding LAM requests travel in (default [`WireFormat::Text`], the
    /// debug and golden-trace format). [`WireFormat::Binary`] switches this
    /// session's clients to length-prefixed columnar frames; the servers
    /// mirror whatever format each request arrives in, so sessions with
    /// different settings coexist on one federation.
    pub wire_format: WireFormat,
    /// Session-level communication accounting.
    stats: SharedExecStats,
    /// This session's LAM connections: opened on first use, reused by every
    /// later statement, closed with the session. Declared before `core`.
    pool: ConnectionPool,
    /// The tracer of the statement currently executing (None between
    /// statements; trigger actions reuse the active tracer).
    trace: Option<Tracer>,
    /// Where spans opened by long-lived components (executor, DOL engine)
    /// hang while a statement runs.
    trace_ctx: SpanCtx,
    /// Raw span forest of the most recently completed top-level statement.
    last_trace: Option<SpanTree>,
    /// Durable multitransaction log (None until [`Session::enable_wal`]
    /// or [`Session::set_wal`]). When present, the executor records every
    /// settle-bearing statement's lifecycle and [`Session::recover`] can
    /// finish statements a crashed coordinator left behind.
    wal: Option<Wal>,
    /// This session's id (0 = the primary session; span notes and labeled
    /// metrics carry it for every spawned session).
    id: u64,
    /// Statements this session translated, by text (DESIGN §3a.18).
    plans: PlanCache,
    core: Arc<FederationCore>,
}

/// A statement prepared to run (DESIGN §3a.18): all [`Session::run_prepared`]
/// needs, and all a repeat of a cached text skips.
#[derive(Debug, PartialEq)]
struct Prepared {
    /// The scope the statement leaves the session in (`None`: it leaves the
    /// scope alone, as a multitransaction does).
    scope: Option<SessionScope>,
    plan: PreparedPlan,
}

/// A DOL program or a join's decomposition, then — or alone — the typed step
/// that follows it.
#[derive(Debug, PartialEq)]
enum PreparedPlan {
    Retrieval(GeneratedPlan),
    /// A vital update or a multitransaction — one settle program — with what
    /// each task writes, in task order, for the triggers it may fire once
    /// committed; `mtx` picks the report it returns.
    Settle {
        plan: GeneratedPlan,
        writes: Vec<Option<WriteEvent>>,
        mtx: bool,
    },
    /// A join is planned at run time, against the statistics of the moment.
    Join {
        dec: Box<Decomposition>,
        routes: HashMap<String, DbRoute>,
    },
    /// A deferred-mode modification: the global transaction's next `TASK`
    /// batch, planned at run time against its members of the moment (§3a.16).
    Deferred {
        locals: Vec<LocalQuery>,
        comps: HashMap<String, Vec<String>>,
        routes: HashMap<String, DbRoute>,
    },
    /// A transfer: its source (a retrieval of one database, or a join), then
    /// one task at `target` inserting the source's rows as `insert` says.
    Transfer {
        source: Box<PreparedPlan>,
        target: DbRoute,
        insert: msql_lang::Insert,
    },
    /// DDL or `ANALYZE`: the one-task program at `database`, then what the
    /// committed `stmt` changes at the coordinator.
    Local {
        database: String,
        plan: GeneratedPlan,
        stmt: Box<Statement>,
    },
    /// A synchronization point (§3.2.2) — `USE`, `COMMIT`, `ROLLBACK` — whose
    /// outcome is `idle` when nothing is pending.
    SyncPoint {
        rollback: bool,
        idle: String,
    },
    /// Nothing to run (`LET`): the outcome.
    Message(String),
    /// A catalog write.
    Incorporate(msql_lang::Incorporate),
    /// The database's schema fetched from `site`, then written to the GDD.
    Import {
        import: msql_lang::Import,
        site: String,
    },
    CreateTrigger(CreateTrigger),
    DropTrigger(String),
    /// EXPLAIN: its target is prepared and run as a statement nested in it.
    Explain(Box<Statement>),
}

/// A session's prepared statements by text, at most [`PLAN_CACHE_CAPACITY`].
#[derive(Default)]
struct PlanCache {
    entries: HashMap<String, CachedPlan>,
    inserted: u64,
}

struct CachedPlan {
    /// The catalog epoch the statement was translated at.
    epoch: u64,
    /// The scope it was translated in; `None` when it opens with a `USE`
    /// that replaces the scope, so it reads none of the scope it finds.
    scope: Option<SessionScope>,
    /// Insertion order: the smallest is evicted first.
    seq: u64,
    prepared: Arc<Prepared>,
}

impl PlanCache {
    fn get(&self, text: &str, epoch: u64, scope: &SessionScope) -> Option<Arc<Prepared>> {
        let entry = self.entries.get(text)?;
        let fresh = entry.epoch == epoch && entry.scope.as_ref().is_none_or(|s| s == scope);
        fresh.then(|| Arc::clone(&entry.prepared))
    }

    fn insert(&mut self, text: &str, epoch: u64, scope: Option<SessionScope>, prepared: Prepared) {
        if self.entries.len() >= PLAN_CACHE_CAPACITY && !self.entries.contains_key(text) {
            let oldest = self.entries.iter().min_by_key(|(_, e)| e.seq).map(|(t, _)| t.clone());
            if let Some(oldest) = oldest {
                self.entries.remove(&oldest);
            }
        }
        self.inserted += 1;
        let entry = CachedPlan { epoch, scope, seq: self.inserted, prepared: Arc::new(prepared) };
        self.entries.insert(text.to_string(), entry);
    }
}

// Sessions are handed to worker threads; keep that a compile-time guarantee.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Session>();
};

/// A running federation: its primary session, which [`Session::new`] and
/// [`Session::with_network`] create together with the shared core.
pub type Federation = Session;

/// Collapses statement text to a deterministic one-line span label.
fn text_note(text: &str) -> String {
    let flat = text.split_whitespace().collect::<Vec<_>>().join(" ");
    if flat.chars().count() > 72 {
        let cut: String = flat.chars().take(72).collect();
        format!("{cut}...")
    } else {
        flat
    }
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// Creates an empty federation on a fresh (zero-latency) network and
    /// returns its primary session.
    pub fn new() -> Self {
        Session::with_network(Network::new())
    }

    /// Creates a federation on an existing network (latency/failure models
    /// installed by the caller) and returns its primary session.
    pub fn with_network(net: Network) -> Self {
        let clock = LogicalClock::new();
        let metrics = MetricsRegistry::new();
        net.attach_probe(clock.clone(), metrics.clone());
        let core = Arc::new(FederationCore {
            net,
            ad: RwLock::new(AuxiliaryDirectory::new()),
            gdd: RwLock::new(GlobalDataDictionary::new()),
            lams: RwLock::new(HashMap::new()),
            triggers: RwLock::new(Vec::new()),
            clock,
            metrics,
            site_stats: RwLock::new(HashMap::new()),
            session_seq: AtomicU64::new(1),
            catalog_epoch: AtomicU64::new(0),
        });
        Session::with_core(core, 0)
    }

    fn with_core(core: Arc<FederationCore>, id: u64) -> Session {
        Session {
            gtxn: GlobalTransaction::new(session_suffix(id)),
            deferred: false,
            scope: SessionScope::new(),
            trigger_depth: 0,
            explaining: false,
            timeout: Duration::from_secs(10),
            retry: RetryPolicy::default(),
            tolerate_unreachable: false,
            semijoin: true,
            semijoin_cap: DEFAULT_SEMIJOIN_CAP,
            agg_pushdown: true,
            wire_format: WireFormat::default(),
            stats: shared_stats(),
            pool: ConnectionPool::new(core.net.clone()),
            trace: None,
            trace_ctx: SpanCtx::disabled(),
            last_trace: None,
            wal: None,
            id,
            plans: PlanCache::default(),
            core,
        }
    }

    /// Opens a new independent session on the same federation core: fresh
    /// scope, fresh accounting, no WAL, configuration copied from this
    /// session. The handle is `Send` — move it to a worker thread and run
    /// statements concurrently with every other session.
    pub fn session(&self) -> Session {
        let id = self.core.session_seq.fetch_add(1, Ordering::Relaxed);
        let mut s = Session::with_core(Arc::clone(&self.core), id);
        s.timeout = self.timeout;
        s.retry = self.retry.clone();
        s.tolerate_unreachable = self.tolerate_unreachable;
        s.semijoin = self.semijoin;
        s.semijoin_cap = self.semijoin_cap;
        s.agg_pushdown = self.agg_pushdown;
        s.wire_format = self.wire_format;
        s
    }

    /// This session's id (0 for the federation's primary session).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The federation's logical clock. It advances on observable events only
    /// (span open/close, simulated network traffic), so latencies read off it
    /// are deterministic.
    pub fn clock(&self) -> &LogicalClock {
        &self.core.clock
    }

    /// Observability snapshot: every counter/gauge/histogram accumulated so
    /// far (network traffic, per-LAM calls and payloads, per-phase
    /// latencies), with each service's local engine statistics and LAM server
    /// counters scraped into `ldbs.*{service=...}` / `lam.*{service=...}`
    /// gauges, at call time.
    pub fn metrics(&self) -> MetricsSnapshot {
        for (service, lam) in self.core.lams.read().iter() {
            let stats = lam.engine.lock().stats();
            let gauge = |name: &str, value: u64| {
                self.core.metrics.gauge_set(&labeled(name, "service", service), value as i64);
            };
            gauge("ldbs.statements", stats.statements);
            gauge("ldbs.commits", stats.commits);
            gauge("ldbs.aborts", stats.aborts);
            gauge("ldbs.prepares", stats.prepares);
            gauge("ldbs.rows_scanned", stats.rows_scanned);
            gauge("ldbs.index_hits", stats.index_hits);
            gauge("lam.served", lam.stats.served.load(Ordering::Relaxed));
            gauge("lam.replayed", lam.stats.replayed.load(Ordering::Relaxed));
            gauge("lam.server_threads", lam.stats.server_threads.load(Ordering::Relaxed));
        }
        self.core.metrics.snapshot()
    }

    /// The live metrics registry (to snapshot between phases or to share
    /// with external components).
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.core.metrics
    }

    /// The normalized span tree of the most recently completed top-level
    /// statement, or `None` before the first statement runs.
    pub fn last_trace(&self) -> Option<SpanTree> {
        self.last_trace.clone().map(|mut t| {
            t.normalize();
            t
        })
    }

    /// A snapshot of the session's communication accounting (attempts,
    /// retries, faults, degraded subqueries) across every statement
    /// executed so far.
    pub fn exec_stats(&self) -> ExecStats {
        self.stats.lock().clone()
    }

    /// The shared network (to install latency models or read traffic stats).
    pub fn network(&self) -> &Network {
        &self.core.net
    }

    /// The Global Data Dictionary (a read guard: concurrent sessions read
    /// in parallel, catalog changes briefly exclude them).
    pub fn gdd(&self) -> RwLockReadGuard<'_, GlobalDataDictionary> {
        self.core.gdd.read()
    }

    /// The Auxiliary Directory (a read guard).
    pub fn ad(&self) -> RwLockReadGuard<'_, AuxiliaryDirectory> {
        self.core.ad.read()
    }

    /// The current session scope.
    pub fn scope(&self) -> &SessionScope {
        &self.scope
    }

    /// The shared engine of a service (tests and fixtures seed data and
    /// inject failures through this).
    pub fn engine(&self, service: &str) -> Option<Arc<Mutex<Engine>>> {
        self.core.lams.read().get(&service.to_ascii_lowercase()).map(|l| Arc::clone(&l.engine))
    }

    /// The live counters of a service's LAM server.
    pub fn lam_stats(&self, service: &str) -> Option<Arc<LamServerStats>> {
        self.core.lams.read().get(&service.to_ascii_lowercase()).map(|l| Arc::clone(&l.stats))
    }

    /// Registers a service: spawns its LAM at `site` and records an
    /// Auxiliary Directory entry derived from the engine's capability
    /// profile (equivalent to the INCORPORATE statement an administrator
    /// would issue).
    pub fn add_service(
        &mut self,
        service: &str,
        site: &str,
        engine: Engine,
    ) -> Result<(), MdbsError> {
        let service = service.to_ascii_lowercase();
        let mut lams = self.core.lams.write();
        if lams.contains_key(&service) {
            return Err(MdbsError::Catalog(format!("service `{service}` already added")));
        }
        let profile = engine.profile.clone();
        let lam = spawn_lam(&self.core.net, &service, site, engine)?;
        self.core.write_catalog(|_, ad| {
            ad.insert(ServiceEntry {
                name: service.clone(),
                site: site.to_string(),
                multi_database: profile.multi_database,
                commit_mode: profile.capability_for(StatementClass::Dml),
                create_mode: Some(profile.capability_for(StatementClass::Create)),
                insert_mode: Some(profile.capability_for(StatementClass::Insert)),
                drop_mode: Some(profile.capability_for(StatementClass::Drop)),
            })
        });
        lams.insert(service, lam);
        Ok(())
    }

    /// Creates a database on a service and registers it in the GDD.
    pub fn create_database(&mut self, service: &str, database: &str) -> Result<(), MdbsError> {
        let service = service.to_ascii_lowercase();
        let lams = self.core.lams.read();
        let lam = lams
            .get(&service)
            .ok_or_else(|| MdbsError::Catalog(format!("unknown service `{service}`")))?;
        lam.engine
            .lock()
            .create_database(database)
            .map_err(|e| MdbsError::Local { service: service.clone(), message: e.to_string() })?;
        drop(lams);
        self.core.write_catalog(|gdd, _| gdd.register_database(database, &service))?;
        Ok(())
    }

    /// Builds the `database → route` map the planner and executor need.
    fn routes(&self) -> Result<HashMap<String, DbRoute>, MdbsError> {
        let (gdd, ad) = (self.core.gdd.read(), self.core.ad.read());
        gdd.database_names()
            .into_iter()
            .map(|db| Ok((db.to_string(), route_in(&gdd, &ad, db)?)))
            .collect()
    }

    /// How this session opens LAM connections right now: its pool, plus the
    /// timeout, retry policy, wire format and degradation setting of the
    /// moment (all of which may change between statements).
    fn lams(&self) -> LamFactory {
        LamFactory {
            pool: self.pool.clone(),
            timeout: self.timeout,
            retry: self.retry.clone(),
            stats: SharedExecStats::clone(&self.stats),
            metrics: self.core.metrics.clone(),
            tolerate_unreachable: self.tolerate_unreachable,
            wire_format: self.wire_format,
            open_error: Default::default(),
        }
    }

    fn executor(&self) -> Executor {
        Executor {
            lams: self.lams(),
            trace: self.trace_ctx.clone(),
            measure_baseline: self.explaining,
            wal: self.wal.clone(),
        }
    }

    /// Gives the tasks of a plan with a settle phase — the ones that stay open
    /// at a LAM between their vote and the decision — names of this session's
    /// own (see [`session_suffix`]), before anything is logged or sent.
    fn own_tasks(&self, mut plan: GeneratedPlan) -> GeneratedPlan {
        if self.id != 0 && plan.recovery.is_some() {
            plan.suffix_tasks(&session_suffix(self.id));
        }
        plan
    }

    /// Enables an in-memory write-ahead log and returns its handle. The
    /// handle is the log's "disk": it stays valid after this session (or
    /// a statement running on it) dies, so a successor coordinator can be
    /// built around the same log and [`Session::recover`] from it.
    pub fn enable_wal(&mut self) -> Wal {
        let wal = Wal::in_memory();
        self.set_wal(wal.clone());
        wal
    }

    /// Installs an existing log — file-backed, or carried over from a
    /// crashed coordinator.
    pub fn set_wal(&mut self, wal: Wal) {
        wal.attach_metrics(self.core.metrics.clone());
        self.wal = Some(wal);
    }

    /// The installed write-ahead log, if any.
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// Finishes every multitransaction the log shows as interrupted: for
    /// each un-ended image, replays the logged decision (or presumes abort
    /// when the coordinator died before deciding) as two DOL programs — the
    /// unresolved tasks' `RESOLVE`s, committing or rolling back prepared
    /// subtransactions, then the `COMPENSATE`s of autocommitted ones the
    /// decision undoes (DESIGN §3a.4). Idempotent and re-enterable: each
    /// wave's resolutions are logged when it lands, so a crash *during*
    /// recovery just leaves less for the next pass.
    pub fn recover(&mut self) -> Result<RecoveryReport, MdbsError> {
        let Some(wal) = self.wal.clone() else {
            return Ok(RecoveryReport::default());
        };
        let tracer = Tracer::new(self.core.clock.clone());
        let root = tracer.root("recovery");
        let started = self.core.clock.now();
        self.core.metrics.counter_add("recovery.runs", 1);
        let result = self.recover_images(&wal, &root);
        if let Err(e) = &result {
            root.note("error", text_note(&e.to_string()));
        }
        root.end();
        self.core.metrics.observe("phase.recovery", self.core.clock.now().saturating_sub(started));
        self.last_trace = Some(SpanTree::from_records(tracer.take_records()));
        result
    }

    fn recover_images(&mut self, wal: &Wal, root: &Span) -> Result<RecoveryReport, MdbsError> {
        let mut report = RecoveryReport::default();
        for image in wal.replay()? {
            if image.ended {
                continue;
            }
            let span = root.child("recover-mtx");
            span.note("mtx", image.mtx_id.to_string());
            self.core.metrics.counter_add("recovery.mtx", 1);
            // The decision rules the settle phase. No decision record means
            // the coordinator died first: presume abort (§3.4 semantics —
            // prepared tasks roll back, autocommitted ones are compensated).
            let (achieved_state, commit_set, compensate_set) = image.settlement();
            match (image.decision, achieved_state) {
                (_, Some(state)) => span.note("decision", format!("commit-state-{state}")),
                (Some(_), None) => span.note("decision", "abort"),
                (None, None) => {
                    span.note("decision", "presumed-abort");
                    self.core.metrics.counter_add("recovery.presumed_abort", 1);
                }
            }
            let mut statuses: HashMap<String, dol::TaskStatus> = image
                .resolved
                .iter()
                .map(|(task, &code)| (task.clone(), status_from_code(code)))
                .collect();
            // Wave 1: every unresolved task learns its fate. A task logged `C`
            // autocommitted and is settled at its LAM: it sends nothing. The
            // others RESOLVE per the decision, all at once.
            let unresolved = image.tasks.iter().filter(|t| !image.resolved.contains_key(&t.name));
            let resolve = unresolved
                .clone()
                .filter(|t| image.prepared.get(&t.name) != Some(&'C'))
                .map(|t| (t, TaskVerb::Resolve(commit_set.contains(&t.name))));
            let mut outcomes = self.recovery_wave("resolve", resolve.collect(), &span)?;
            // An autocommitted task that the decision excludes is undone
            // semantically (§3.3) by wave 2, and logged only then: a crash in
            // between leaves it to the next pass.
            let (undo, settled): (Vec<&WalTask>, Vec<&WalTask>) = unresolved.partition(|t| {
                outcomes.get(&t.name).is_none_or(|o| o.status == dol::TaskStatus::Committed)
                    && !commit_set.contains(&t.name)
                    && compensate_set.contains(&t.name)
            });
            self.core.metrics.counter_add("recovery.resolved", (undo.len() + settled.len()) as u64);
            log_resolved(wal, image.mtx_id, &settled, &outcomes, &mut statuses)?;

            // Wave 2: COMPENSATE them, all at once (idempotent: the LAM's `K` memory).
            let compensate = undo.iter().map(|&t| (t, TaskVerb::Compensate)).collect();
            outcomes.extend(self.recovery_wave("compensate", compensate, &span)?);
            log_resolved(wal, image.mtx_id, &undo, &outcomes, &mut statuses)?;
            self.core.metrics.counter_add("recovery.compensated", undo.len() as u64);
            wal.append(&WalRecord::End { mtx_id: image.mtx_id })?;
            span.end();
            report.recovered.push(RecoveredMtx {
                mtx_id: image.mtx_id,
                achieved_state,
                presumed_abort: image.decision.is_none(),
                statuses,
                states: image.states,
                oracle: image.oracle,
            });
        }
        Ok(report)
    }

    /// One recovery wave, under a `wave` child of `span`: a DOL program of
    /// the logged tasks `verbs` names, each task sending its verb (`RESOLVE`
    /// or `COMPENSATE`), all posted before any reply is read. Returns each
    /// task's outcome; a site that cannot be opened fails its task, not the
    /// wave.
    fn recovery_wave(
        &self,
        wave: &str,
        verbs: Vec<(&WalTask, TaskVerb)>,
        span: &Span,
    ) -> Result<HashMap<String, DbOutcome>, MdbsError> {
        if verbs.is_empty() {
            return Ok(HashMap::new());
        }
        let span = span.child(wave);
        let plan = wave_plan(verbs)?;
        let mut executor = self.executor();
        executor.trace = span.ctx();
        executor.lams.tolerate_unreachable = true;
        let report = executor.run_settle(&plan)?;
        Ok(plan.tasks.into_iter().map(|t| t.task).zip(report.outcomes).collect())
    }

    /// Parses and executes a raw DOL program against the federation's
    /// services — the paper's intermediate language, exposed directly for
    /// hand-written evaluation plans and tooling. `OPEN <database> AT
    /// <site>` statements resolve against the live network. A retrieval
    /// task's rows are in its [`TaskOutput`] under the task's name.
    pub fn execute_dol(&mut self, program: &str) -> Result<dol::DolOutcome<TaskOutput>, MdbsError> {
        let program = dol::parse_program(program)?;
        let plan = GeneratedPlan { program, tasks: Vec::new(), recovery: None };
        Ok(self.executor().run_program(&plan)?.0)
    }

    /// Switches §3.2.2 deferred-commit mode on or off. In deferred mode,
    /// vital subqueries stay prepared across statements and are resolved
    /// together at the next synchronization point (`COMMIT`, `ROLLBACK`, a
    /// `USE` scope change, or session end). Turning the mode off is itself a
    /// synchronization point — one that cannot report an error: `None` when
    /// nothing was pending or it failed (issue `COMMIT` first to see why).
    pub fn set_deferred_commit(&mut self, deferred: bool) -> Option<UpdateReport> {
        let report = if deferred { None } else { self.sync_point(false).ok().flatten() };
        self.deferred = deferred;
        report
    }

    /// A synchronization point (§3.2.2): settles the pending global
    /// transaction, if there is one, as the vital set it is — through this
    /// session's executor, so under its WAL, its tracer and its accounting.
    fn sync_point(&mut self, rollback: bool) -> Result<Option<UpdateReport>, MdbsError> {
        if self.gtxn.is_empty() {
            return Ok(None);
        }
        let executor = self.executor();
        self.gtxn.settle(rollback, &executor).map(Some)
    }

    /// Number of vital subqueries currently pending in the global
    /// transaction (deferred-commit mode).
    pub fn pending_vital_subqueries(&self) -> usize {
        self.gtxn.len()
    }

    /// True when the statement's result is an all-aborted deadlock outcome
    /// the session may transparently re-run: nothing committed, nothing is
    /// held open, and at least one subtransaction was a deadlock victim.
    fn retriable_deadlock(&self, result: &Result<MsqlOutcome, MdbsError>) -> bool {
        if self.deferred || self.trigger_depth > 0 {
            return false;
        }
        match result {
            Err(e) => e.to_string().contains("deadlock victim"),
            Ok(MsqlOutcome::Update(r)) => {
                !r.success
                    && r.outcomes.iter().all(|o| o.status != dol::TaskStatus::Committed)
                    && r.outcomes
                        .iter()
                        .any(|o| o.error.as_deref().is_some_and(|e| e.contains("deadlock victim")))
            }
            _ => false,
        }
    }

    /// Parses and executes one MSQL statement under a root span, which a
    /// deadlock retry opens again: the retry is the whole statement again.
    ///
    /// Every statement is prepared — parse → USE/LET on a working scope →
    /// translate → plan, sending and changing nothing — then run, which
    /// installs the scope it leaves even if it then fails (DESIGN §3a.18).
    /// Outside deferred-commit mode, a query's or multitransaction's prepared
    /// statement (not a transfer's) is kept: a repeat of its text runs it
    /// without preparing while the catalog and, unless it opens with a
    /// scope-replacing `USE`, the scope are those it was prepared in. Its
    /// root span is then noted `plan=cached`.
    pub fn execute(&mut self, msql: &str) -> Result<MsqlOutcome, MdbsError> {
        self.run_retrying(text_note(msql), |fed, span| {
            // Read before the catalog is: see `FederationCore::write_catalog`.
            let epoch = fed.core.catalog_epoch.load(Ordering::SeqCst);
            let cached = if fed.deferred { None } else { fed.plans.get(msql, epoch, &fed.scope) };
            if let Some(prepared) = cached {
                span.note("plan", "cached");
                fed.core.metrics.counter_add("plan_cache.hits", 1);
                return fed.run_prepared(&prepared);
            }
            let stmt = fed.timed("phase.parse", || {
                let parse = span.child("parse");
                msql_lang::parse_statement(msql).map_err(|e| {
                    parse.note("error", "syntax");
                    MdbsError::Parse(e.display_with_source(msql))
                })
            })?;
            fed.run_statement(&stmt, span, Some((msql, epoch)))
        })
    }

    /// Runs `f` as one traced statement, transparently re-running it (up to
    /// [`DEADLOCK_RETRIES`] times, each under a root span of its own) while
    /// its outcome is a [`Self::retriable_deadlock`].
    fn run_retrying<F>(&mut self, label: String, mut f: F) -> Result<MsqlOutcome, MdbsError>
    where
        F: FnMut(&mut Session, &Span) -> Result<MsqlOutcome, MdbsError>,
    {
        let mut attempts = 0;
        loop {
            let result = self.traced_statement(label.clone(), &mut f);
            if attempts < DEADLOCK_RETRIES && self.retriable_deadlock(&result) {
                attempts += 1;
                self.core.metrics.counter_add("session.deadlock_retries", 1);
                continue;
            }
            return result;
        }
    }

    /// Runs `f` and, when it succeeds, records the logical ticks it took in
    /// the `phase` histogram.
    fn timed<T>(
        &self,
        phase: &str,
        f: impl FnOnce() -> Result<T, MdbsError>,
    ) -> Result<T, MdbsError> {
        let started = self.core.clock.now();
        let out = f()?;
        self.core.metrics.observe(phase, self.core.clock.now().saturating_sub(started));
        Ok(out)
    }

    /// Runs `f` under a per-statement root span. A top-level call starts a
    /// fresh tracer and captures the finished span forest into
    /// [`Session::last_trace`]; a nested call (a trigger action, an
    /// EXPLAIN target) hangs a `statement` span under the active context.
    fn traced_statement<F>(&mut self, label: String, f: F) -> Result<MsqlOutcome, MdbsError>
    where
        F: FnOnce(&mut Session, &Span) -> Result<MsqlOutcome, MdbsError>,
    {
        let nested = self.trace.is_some();
        let span = if nested {
            self.trace_ctx.child("statement")
        } else {
            let tracer = Tracer::new(self.core.clock.clone());
            let root = tracer.root("statement");
            self.trace = Some(tracer);
            root
        };
        if !label.is_empty() {
            span.note("text", label);
        }
        // Label spawned sessions' spans and metrics; the primary session
        // (id 0) stays unlabeled so single-user traces are unchanged.
        if self.id != 0 {
            span.note("session", self.id.to_string());
        }
        let prev_ctx = std::mem::replace(&mut self.trace_ctx, span.ctx());
        let started = self.core.clock.now();
        let result = f(self, &span);
        self.trace_ctx = prev_ctx;
        if let Err(e) = &result {
            span.note("error", text_note(&e.to_string()));
        }
        span.end();
        self.core.metrics.observe("phase.statement", self.core.clock.now().saturating_sub(started));
        if self.id != 0 {
            self.core
                .metrics
                .counter_add(&labeled("session.statements", "session", &self.id.to_string()), 1);
        }
        if !nested {
            if let Some(tracer) = self.trace.take() {
                self.last_trace = Some(SpanTree::from_records(tracer.take_records()));
            }
        }
        result
    }

    /// Parses and executes a script, returning one outcome per statement.
    pub fn execute_script(&mut self, msql: &str) -> Result<Vec<MsqlOutcome>, MdbsError> {
        let script = msql_lang::parse_script(msql)
            .map_err(|e| MdbsError::Parse(e.display_with_source(msql)))?;
        let mut out = Vec::with_capacity(script.statements.len());
        for stmt in &script.statements {
            out.push(self.execute_statement(stmt)?);
        }
        Ok(out)
    }

    /// Executes a pre-parsed statement: prepared and run as
    /// [`Session::execute`] does, never through the plan cache.
    pub fn execute_statement(&mut self, stmt: &Statement) -> Result<MsqlOutcome, MdbsError> {
        self.run_retrying(text_note(&print(stmt)), |fed, span| fed.run_statement(stmt, span, None))
    }

    /// The one body of [`Self::execute`] and [`Self::execute_statement`]:
    /// prepares `stmt`, runs it and, given its text and the epoch read before
    /// it was parsed, keeps a cacheable plan that ran without an error.
    fn run_statement(
        &mut self,
        stmt: &Statement,
        span: &Span,
        keep: Option<(&str, u64)>,
    ) -> Result<MsqlOutcome, MdbsError> {
        let prepared = self.prepare(stmt, span)?;
        let cacheable = matches!(
            prepared.plan,
            PreparedPlan::Retrieval(_) | PreparedPlan::Settle { .. } | PreparedPlan::Join { .. }
        );
        let keep = keep.filter(|_| cacheable && !self.deferred);
        let Some((text, epoch)) = keep else {
            return self.run_prepared(&prepared);
        };
        let scope = (!replaces_scope(stmt)).then(|| self.scope.clone());
        let outcome = self.run_prepared(&prepared)?;
        self.core.metrics.counter_add("plan_cache.misses", 1);
        self.plans.insert(text, epoch, scope, prepared);
        Ok(outcome)
    }

    /// Prepares a statement under `span` (DESIGN §3a.18). It reads the
    /// catalog, the scope and the session's settings, and may open spans and
    /// observe `phase.*`, but sends nothing and changes nothing: not the
    /// catalog, the trigger list, the scope, the global transaction, the WAL
    /// or the cached site statistics. [`Self::run_prepared`] does all that.
    fn prepare(&self, stmt: &Statement, span: &Span) -> Result<Prepared, MdbsError> {
        let plan = match stmt {
            Statement::Query(q) => return self.prepare_query(q, span),
            Statement::Multitransaction(m) => self.prepare_multitransaction(m, span)?,
            Statement::Use(u) => {
                let mut scope = self.scope.clone();
                scope.apply_use(u)?;
                let vital = |d: &ScopeDb| if d.vital { " VITAL" } else { "" };
                let keys = scope.databases.iter().map(|d| format!("{}{}", d.key(), vital(d)));
                let idle = format!("scope: {}", keys.collect::<Vec<_>>().join(", "));
                // A scope change is a synchronization point (§3.2.2).
                let plan = PreparedPlan::SyncPoint { rollback: false, idle };
                return Ok(Prepared { scope: Some(scope), plan });
            }
            Statement::Let(l) => {
                let mut scope = self.scope.clone();
                scope.apply_let(l)?;
                let message = format!("{} semantic variable(s) declared", l.variables.len());
                return Ok(Prepared { scope: Some(scope), plan: PreparedPlan::Message(message) });
            }
            Statement::Incorporate(inc) => PreparedPlan::Incorporate(inc.clone()),
            Statement::Import(imp) => {
                let site = self.core.ad.read().service(&imp.service)?.site.clone();
                PreparedPlan::Import { import: imp.clone(), site }
            }
            Statement::Explain(target) => PreparedPlan::Explain(target.clone()),
            Statement::CreateTable(_)
            | Statement::DropTable(_)
            | Statement::CreateIndex(_)
            | Statement::DropIndex(_)
            | Statement::Analyze(_) => self.prepare_local(stmt)?,
            Statement::CreateDatabase(_) | Statement::DropDatabase(_) => {
                return Err(MdbsError::Unsupported(
                    "CREATE/DROP DATABASE must name a service; use \
                     Federation::create_database(service, name)"
                        .into(),
                ))
            }
            Statement::CreateTrigger(t) => PreparedPlan::CreateTrigger(t.clone()),
            Statement::DropTrigger(name) => PreparedPlan::DropTrigger(name.clone()),
            Statement::Commit => PreparedPlan::SyncPoint {
                rollback: false,
                idle: "synchronization point: nothing pending (each MSQL statement commits or \
                       aborts its vital set when it terminates, §3.2.2)"
                    .into(),
            },
            Statement::Rollback => PreparedPlan::SyncPoint {
                rollback: true,
                idle: "synchronization point: nothing pending to roll back".into(),
            },
        };
        Ok(Prepared { scope: None, plan })
    }

    /// Prepares a query: its USE / LET applied to a working scope, which the
    /// query leaves the session in (interactive MSQL behaviour), then its
    /// body — or a transfer's source — translated and planned there.
    fn prepare_query(&self, q: &MsqlQuery, span: &Span) -> Result<Prepared, MdbsError> {
        let mut scope = self.scope.clone();
        apply_use_let(&mut scope, q)?;
        // Inter-database data transfer (an MSQL §2 capability): INSERT INTO
        // a table of one database from a SELECT over other databases.
        let transfer = match &q.body {
            QueryBody::Insert(ins) => self.transfer_target(&scope, ins)?.map(|t| (ins, t)),
            _ => None,
        };
        let routes = self.routes()?;
        let Some((ins, (target, source))) = transfer else {
            let plan = self.prepare_body(&scope, &q.body, &q.comps, routes, span)?;
            return Ok(Prepared { scope: Some(scope), plan });
        };
        // The source is a retrieval of one database, or a join.
        let source =
            self.prepare_body(&scope, &QueryBody::Select(source.clone()), &[], routes, span)?;
        if let PreparedPlan::Retrieval(plan) = &source {
            if plan.tasks.len() != 1 {
                let sources: Vec<&str> = plan.tasks.iter().map(|t| t.database.as_str()).collect();
                return Err(MdbsError::Unsupported(format!(
                    "the transfer source must resolve to a single database; it is \
                     pertinent to {sources:?} — qualify the source tables"
                )));
            }
        }
        let target = route_in(&self.core.gdd.read(), &self.core.ad.read(), &target)?;
        let plan = PreparedPlan::Transfer { source: Box::new(source), target, insert: ins.clone() };
        Ok(Prepared { scope: Some(scope), plan })
    }

    /// Translates `body` in `scope` (§4.3) and plans it: a retrieval or an
    /// update as one DOL program (or a deferred batch), a cross-database
    /// join as its decomposition. `comps` are the body's COMP clauses.
    fn prepare_body(
        &self,
        scope: &SessionScope,
        body: &QueryBody,
        comps: &[msql_lang::CompClause],
        routes: HashMap<String, DbRoute>,
        span: &Span,
    ) -> Result<PreparedPlan, MdbsError> {
        let locals = match self.translate(body, scope, span)? {
            Translated::PerDb(locals) => locals,
            Translated::CrossDb(dec) => return Ok(PreparedPlan::Join { dec, routes }),
        };
        if let QueryBody::Select(_) = body {
            if !comps.is_empty() {
                return Err(MdbsError::BadCompClause(
                    "COMP applies to modification statements".into(),
                ));
            }
            let pg = span.child("plangen");
            pg.note("shape", "retrieval");
            let plan = retrieval_plan(&locals, &routes)?;
            pg.note("tasks", plan.tasks.len());
            return Ok(PreparedPlan::Retrieval(plan));
        }
        let comps = comp_map(scope, comps, &locals)?;
        if self.deferred {
            return Ok(PreparedPlan::Deferred { locals, comps, routes });
        }
        let pg = span.child("plangen");
        pg.note("shape", "update");
        let plan = self.own_tasks(update_plan(&locals, &comps, &routes)?);
        pg.note("tasks", plan.tasks.len());
        let writes = locals.iter().map(write_event).collect();
        Ok(PreparedPlan::Settle { plan, writes, mtx: false })
    }

    /// Translates `body` in `scope`, one span per §4.3 phase under `span`.
    fn translate(
        &self,
        body: &QueryBody,
        scope: &SessionScope,
        span: &Span,
    ) -> Result<Translated, MdbsError> {
        self.timed("phase.translate", || {
            translate::translate_body_traced(body, scope, &self.core.gdd.read(), span)
        })
    }

    fn prepare_multitransaction(
        &self,
        m: &Multitransaction,
        span: &Span,
    ) -> Result<PreparedPlan, MdbsError> {
        let routes = self.routes()?;
        // Each component query manages its own scope; the session scope is
        // untouched by the block.
        let mut working = self.scope.clone();
        let mut queries = Vec::with_capacity(m.queries.len());
        for q in &m.queries {
            apply_use_let(&mut working, q)?;
            let Translated::PerDb(locals) = self.translate(&q.body, &working, span)? else {
                return Err(MdbsError::Mtx(
                    "cross-database joins are not allowed inside a multitransaction".into(),
                ));
            };
            let comps = comp_map(&working, &q.comps, &locals)?;
            queries.push(MtxQueryPlan { locals, comps });
        }
        let states: Vec<Vec<String>> = m
            .acceptable_states
            .iter()
            .map(|s| s.databases.iter().map(|d| d.as_str().to_string()).collect())
            .collect();
        let pg = span.child("plangen");
        pg.note("shape", "multitransaction");
        pg.note("queries", queries.len());
        pg.note("states", states.len());
        let plan = self.own_tasks(multitransaction_plan(&queries, &states, &routes)?);
        pg.note("tasks", plan.tasks.len());
        let writes = queries.iter().flat_map(|q| q.locals.iter().map(write_event)).collect();
        Ok(PreparedPlan::Settle { plan, writes, mtx: true })
    }

    /// Prepares a statement that one database executes on its own — CREATE /
    /// DROP TABLE, CREATE / DROP INDEX, ANALYZE — as a one-task program at the
    /// database it targets (a qualified table names it; otherwise the scope
    /// must hold one database), shipped with the qualifier stripped.
    fn prepare_local(&self, stmt: &Statement) -> Result<PreparedPlan, MdbsError> {
        let mut local = stmt.clone();
        let (target, task) = match &mut local {
            Statement::CreateTable(s) => (Some(&mut s.table), "DDL"),
            Statement::DropTable(s) => (Some(&mut s.table), "DDL"),
            Statement::CreateIndex(s) => (Some(&mut s.table), "DDL"),
            Statement::DropIndex(s) => (Some(&mut s.table), "DDL"),
            Statement::Analyze(target) => (target.as_mut(), "ANALYZE"),
            _ => return Err(MdbsError::Internal(format!("`{}` is not local DDL", print(stmt)))),
        };
        let ambiguous = if target.is_some() {
            "DDL over a multi-database scope is ambiguous; qualify the table name"
        } else {
            "ANALYZE over a multi-database scope is ambiguous; name the table or narrow the scope"
        };
        let database = match target.and_then(|table| table.database.take()) {
            Some(q) => self.named_database(&self.scope, q.as_str())?,
            None => self.scope.only_database(ambiguous)?.to_string(),
        };
        let route = route_in(&self.core.gdd.read(), &self.core.ad.read(), &database)?;
        let plan = local_plan(route, task, print(&local))?;
        Ok(PreparedPlan::Local { database, plan, stmt: Box::new(stmt.clone()) })
    }

    /// Runs a statement prepared just now or, for a cached text, earlier: the
    /// one place, with [`Self::run_plan`], where a statement has effects.
    fn run_prepared(&mut self, prepared: &Prepared) -> Result<MsqlOutcome, MdbsError> {
        if let Some(scope) = &prepared.scope {
            self.scope.clone_from(scope);
        }
        self.run_plan(&prepared.plan)
    }

    /// Runs a prepared plan, firing the triggers its committed writes match.
    fn run_plan(&mut self, plan: &PreparedPlan) -> Result<MsqlOutcome, MdbsError> {
        Ok(match plan {
            PreparedPlan::Retrieval(plan) => {
                let mt = self.timed("phase.execute", || self.executor().run_retrieval(plan))?;
                MsqlOutcome::Multitable(mt)
            }
            PreparedPlan::Settle { plan, writes, mtx } => {
                let report = self.run_settle(plan, writes)?;
                if *mtx {
                    MsqlOutcome::Mtx(report)
                } else {
                    MsqlOutcome::Update(report.into())
                }
            }
            PreparedPlan::Join { dec, routes } => {
                let rows = self.timed("phase.execute", || {
                    // With the cost planner's context when statistics exist.
                    let ctx = self.planner_context(dec, routes);
                    let (semijoin, cap, pushdown) =
                        (self.semijoin, self.semijoin_cap, self.agg_pushdown);
                    let plan = plan_join(dec, routes, ctx.as_ref(), semijoin, cap, pushdown)?;
                    self.executor().run_join(&plan)
                })?;
                MsqlOutcome::Table(rows)
            }
            PreparedPlan::Deferred { locals, comps, routes } => {
                let executor = self.executor();
                MsqlOutcome::Update(self.gtxn.execute(locals, comps, routes, &executor)?)
            }
            PreparedPlan::Transfer { source, target, insert } => {
                let rows = match self.run_plan(source)? {
                    MsqlOutcome::Multitable(mt) => {
                        mt.tables.into_iter().next().map(|t| t.result).unwrap_or_default()
                    }
                    joined => joined.into_table()?,
                };
                MsqlOutcome::Update(self.run_transfer(rows, target, insert)?)
            }
            // A new or dropped table is exported to or removed from the GDD;
            // an index is a local access path, not a multidatabase object, so
            // it registers nothing. A table change or ANALYZE invalidates the
            // statistics cached for the database: the next costed join
            // re-pulls them.
            PreparedPlan::Local { database, plan, stmt } => {
                let affected = self.run_local(plan, None)?.outcomes[0].affected;
                let message = match &**stmt {
                    Statement::CreateTable(ct) => {
                        let columns =
                            ct.columns.iter().map(|c| GddColumn::new(c.name.clone(), c.type_name));
                        let table = GddTable::new(ct.table.table.as_str(), columns.collect());
                        self.core.write_catalog(|gdd, _| gdd.put_table(database, table))?;
                        format!("table `{}` created in `{database}`", ct.table.table)
                    }
                    Statement::DropTable(dt) => {
                        let table = dt.table.table.as_str();
                        let _ = self.core.write_catalog(|gdd, _| gdd.drop_table(database, table));
                        format!("table `{table}` dropped from `{database}`")
                    }
                    Statement::CreateIndex(ci) => {
                        format!("index `{}` created on `{database}`.`{}`", ci.name, ci.table.table)
                    }
                    Statement::DropIndex(di) => {
                        format!(
                            "index `{}` dropped from `{database}`.`{}`",
                            di.name, di.table.table
                        )
                    }
                    _ => format!("analyzed {affected} table(s) in `{database}`"),
                };
                if !matches!(**stmt, Statement::CreateIndex(_) | Statement::DropIndex(_)) {
                    self.core.site_stats.write().remove(database);
                }
                MsqlOutcome::Admin(message)
            }
            PreparedPlan::SyncPoint { rollback, idle } => match self.sync_point(*rollback)? {
                Some(report) => MsqlOutcome::Update(report),
                None => MsqlOutcome::Admin(idle.clone()),
            },
            PreparedPlan::Message(message) => MsqlOutcome::Admin(message.clone()),
            PreparedPlan::Incorporate(inc) => {
                let entry = self.core.write_catalog(|_, ad| ad.incorporate(inc).clone());
                MsqlOutcome::Admin(format!(
                    "service `{}` incorporated at site `{}`",
                    entry.name, entry.site
                ))
            }
            PreparedPlan::Import { import, site } => {
                let schema = self.lams().checkout(site, &import.database)?.fetch_schema()?;
                let names = self.core.write_catalog(|gdd, _| apply_import(gdd, import, &schema))?;
                let (n, db, names) = (names.len(), &import.database, names.join(", "));
                MsqlOutcome::Admin(format!("imported {n} object(s) from `{db}`: {names}"))
            }
            PreparedPlan::CreateTrigger(t) => {
                let mut triggers = self.core.triggers.write();
                if triggers.iter().any(|existing| existing.name == t.name) {
                    return Err(MdbsError::Catalog(format!("trigger `{}` already exists", t.name)));
                }
                triggers.push(t.clone());
                let (name, db, table, event) = (&t.name, &t.database, &t.table, t.event.name());
                MsqlOutcome::Admin(format!(
                    "trigger `{name}` created on {db}.{table} AFTER {event}"
                ))
            }
            PreparedPlan::DropTrigger(name) => {
                let mut triggers = self.core.triggers.write();
                let before = triggers.len();
                triggers.retain(|t| &t.name != name);
                if triggers.len() == before {
                    return Err(MdbsError::Catalog(format!("unknown trigger `{name}`")));
                }
                MsqlOutcome::Admin(format!("trigger `{name}` dropped"))
            }
            PreparedPlan::Explain(target) => {
                // The one run during which sites are asked to measure the
                // subqueries a semi-join or pushdown rewrite replaced.
                let outer = std::mem::replace(&mut self.explaining, true);
                let run = self.execute_statement(target);
                self.explaining = outer;
                run?;
                // The target ran as a statement nested under this one's span:
                // report on the spans collected so far.
                let records = self.trace.as_ref().map(Tracer::records).unwrap_or_default();
                let mut tree = SpanTree::from_records(records);
                tree.normalize();
                MsqlOutcome::Explain(Box::new(ExplainReport::from_tree(print(target), tree)))
            }
        })
    }

    /// Runs a program that writes, settling it if it has states, and fires
    /// the interdatabase triggers its committed writes match: `writes` holds
    /// what each task writes, in task order.
    fn run_settle(
        &mut self,
        plan: &GeneratedPlan,
        writes: &[Option<WriteEvent>],
    ) -> Result<MtxReport, MdbsError> {
        let report = self.timed("phase.execute", || self.executor().run_settle(plan))?;
        let events: Vec<WriteEvent> = writes
            .iter()
            .zip(&report.outcomes)
            .filter(|(_, o)| o.status == dol::TaskStatus::Committed && o.affected > 0)
            .filter_map(|(write, _)| write.clone())
            .collect();
        self.fire_triggers(&events)?;
        Ok(report)
    }

    /// Runs a [`local_plan`] program with [`Self::run_settle`], so a committed
    /// `write` fires its triggers. A task that does not commit fails the
    /// statement in the site's words.
    fn run_local(
        &mut self,
        plan: &GeneratedPlan,
        write: Option<WriteEvent>,
    ) -> Result<MtxReport, MdbsError> {
        let report = self.run_settle(plan, &[write])?;
        match &report.outcomes[0] {
            o if o.status == dol::TaskStatus::Committed => Ok(report),
            o => Err(task_failed(o)),
        }
    }

    /// Detects an inter-database transfer: an `INSERT ... SELECT` whose
    /// explicitly qualified target database differs, in `scope`, from every
    /// database the source SELECT reads. Returns the target and the source.
    fn transfer_target<'q>(
        &self,
        scope: &SessionScope,
        ins: &'q msql_lang::Insert,
    ) -> Result<Option<(String, &'q msql_lang::Select)>, MdbsError> {
        let Some(tq) = &ins.table.database else { return Ok(None) };
        let msql_lang::InsertSource::Select(sel) = &ins.source else { return Ok(None) };
        let target = self.named_database(scope, tq.as_str())?;
        let gdd = self.core.gdd.read();
        // Does the source read the target database? Then it is a local
        // insert-select, handled by the ordinary pipeline.
        for tref in &sel.from {
            let owner = match &tref.database {
                Some(q) => scope.resolve(q.as_str()),
                None => scope.owners(&gdd, tref.table.as_str()).first().copied(),
            };
            if owner.is_some_and(|d| d.database == target) {
                return Ok(None);
            }
        }
        Ok(Some((target, sel)))
    }

    /// Ships a transfer's source rows to `target` as `insert` with one
    /// multi-row `VALUES`, run like any update: one local statement, so one
    /// transaction at the target — a row it refuses applies none.
    fn run_transfer(
        &mut self,
        rows: ldbs::engine::ResultSet,
        target: &DbRoute,
        insert: &msql_lang::Insert,
    ) -> Result<UpdateReport, MdbsError> {
        let database = target.database.clone();
        if rows.rows.is_empty() {
            let nothing = DbOutcome {
                key: database.clone(),
                database,
                status: dol::TaskStatus::Committed,
                affected: 0,
                error: None,
                attempts: 0,
                fault: None,
            };
            let (outcomes, stats) = (vec![nothing], ExecStats::default());
            return Ok(UpdateReport { success: true, return_code: 0, outcomes, stats });
        }
        let values = rows.rows.iter().map(|row| {
            row.iter().map(|v| msql_lang::Expr::Literal(ldbs::eval::value_literal(v))).collect()
        });
        let mut insert = insert.clone();
        (insert.table.database, insert.table.alias) = (None, None);
        insert.source = msql_lang::InsertSource::Values(values.collect());
        let write = (database, insert.table.table.clone(), msql_lang::TriggerEvent::Insert);
        let command = print(&Statement::Query(MsqlQuery {
            use_clause: None,
            lets: Vec::new(),
            body: QueryBody::Insert(insert),
            comps: Vec::new(),
        }));
        let plan = local_plan(target.clone(), "TRANSFER", command)?;
        Ok(self.run_local(&plan, Some(write))?.into())
    }

    /// Fires the interdatabase triggers matching the given
    /// `(database, table, event)` occurrences. Cascades are bounded to depth
    /// 4; a failing action fails the calling statement (the local updates
    /// have already committed — exactly the loose coupling the paper's
    /// compensation machinery exists for).
    fn fire_triggers(&mut self, events: &[WriteEvent]) -> Result<usize, MdbsError> {
        if events.is_empty() || self.trigger_depth >= 4 {
            return Ok(0);
        }
        let mut actions = Vec::new();
        {
            let triggers = self.core.triggers.read();
            for (db, table, event) in events {
                for t in triggers.iter() {
                    if t.event == *event
                        && t.database.matches(db)
                        && t.table.matches(table.as_str())
                    {
                        actions.push(t.action.clone());
                    }
                }
            }
        }
        if actions.is_empty() {
            return Ok(0);
        }
        // Actions run in their own scope (they usually start with USE);
        // the interrupted session scope is restored afterwards. Their nested
        // statement spans hang under one `triggers` span.
        let span = self.trace_ctx.child("triggers");
        span.note("actions", actions.len());
        let prev_ctx = std::mem::replace(&mut self.trace_ctx, span.ctx());
        let saved_scope = self.scope.clone();
        self.trigger_depth += 1;
        let run = (|| {
            for action in &actions {
                self.execute_statement(action)?;
            }
            Ok(actions.len())
        })();
        self.trigger_depth -= 1;
        self.scope = saved_scope;
        self.trace_ctx = prev_ctx;
        span.end();
        run
    }

    /// Builds the statistics context for one decomposition: per involved
    /// database, the cached site statistics, pulled over the `STATS`
    /// exchange on first use. Failures degrade rather than fail — a
    /// database whose statistics cannot be fetched simply contributes no
    /// estimates, which keeps its decisions heuristic. `None` when nothing
    /// usable was found.
    fn planner_context(
        &self,
        dec: &Decomposition,
        routes: &HashMap<String, DbRoute>,
    ) -> Option<PlannerContext> {
        let mut ctx = PlannerContext::default();
        let mut dbs: Vec<&str> = dec.subqueries.iter().map(|s| s.database.as_str()).collect();
        dbs.sort_unstable();
        dbs.dedup();
        for db in dbs {
            let cached = self.core.site_stats.read().get(db).cloned();
            let tables = match cached {
                Some(t) => {
                    self.core.metrics.counter_add("planner.stats_cache_hits", 1);
                    t
                }
                None => {
                    let Some(route) = routes.get(db) else { continue };
                    let Ok(client) = self.lams().checkout(&route.site, db) else { continue };
                    match client.fetch_stats() {
                        Ok(t) => {
                            self.core.metrics.counter_add("planner.stats_fetches", 1);
                            self.core.site_stats.write().insert(db.to_string(), t.clone());
                            t
                        }
                        Err(_) => {
                            self.core.metrics.counter_add("planner.stats_fetch_errors", 1);
                            continue;
                        }
                    }
                }
            };
            ctx.insert_db(db, tables);
        }
        (!ctx.is_empty()).then_some(ctx)
    }

    /// The database a qualifier names: a database in `scope`, or an
    /// imported one outside it, which DDL and a transfer may target too.
    fn named_database(&self, scope: &SessionScope, name: &str) -> Result<String, MdbsError> {
        match scope.resolve(name) {
            Some(d) => Ok(d.database.clone()),
            None if self.core.gdd.read().has_database(name) => Ok(name.to_string()),
            None => Err(MdbsError::NotInScope(name.to_string())),
        }
    }
}

/// What a session appends to the names it leaves at sites it shares with other
/// sessions — the tasks of its plans that stay open at a LAM between their two
/// phases, which LAMs key by name alone. Nothing for the primary session:
/// single-user names, traces and goldens stay as they are.
fn session_suffix(id: u64) -> String {
    if id == 0 {
        String::new()
    } else {
        format!("_s{id}")
    }
}

/// True when `stmt` opens with a `USE` that replaces the scope (not `USE
/// CURRENT`): nothing it prepares then reads the scope it finds, so its cache
/// entry does not key on it. For a multitransaction that is its first member:
/// every later member starts from the scope the one before it left.
fn replaces_scope(stmt: &Statement) -> bool {
    let first = match stmt {
        Statement::Query(q) => Some(q),
        Statement::Multitransaction(m) => m.queries.first(),
        _ => None,
    };
    first.and_then(|q| q.use_clause.as_ref()).is_some_and(|u| !u.current)
}

/// Applies a query's USE and LET clauses to `scope`, in order.
fn apply_use_let(scope: &mut SessionScope, q: &MsqlQuery) -> Result<(), MdbsError> {
    if let Some(u) = &q.use_clause {
        scope.apply_use(u)?;
    }
    q.lets.iter().try_for_each(|l| scope.apply_let(l))
}

/// Validates a query's COMP clauses against the scope it runs in and the
/// local subqueries it was decomposed into, and renders each compensating
/// statement as SQL, keyed by the scope key it compensates.
fn comp_map(
    scope: &SessionScope,
    comps: &[msql_lang::CompClause],
    locals: &[LocalQuery],
) -> Result<HashMap<String, Vec<String>>, MdbsError> {
    let mut out: HashMap<String, Vec<String>> = HashMap::new();
    for comp in comps {
        let name = comp.database.as_str();
        let Some(scope_db) = scope.resolve(name) else {
            return Err(MdbsError::BadCompClause(format!("`{name}` is not in the current scope")));
        };
        let key = scope_db.key().to_string();
        if !locals.iter().any(|l| l.key == key) {
            return Err(MdbsError::BadCompClause(format!(
                "`{name}` has no pertinent subquery to compensate"
            )));
        }
        out.entry(key).or_default().push(print(&comp.statement));
    }
    Ok(out)
}

/// What a local subquery writes, as the triggers it may fire match it.
fn write_event(local: &LocalQuery) -> Option<WriteEvent> {
    let Statement::Query(inner) = &local.statement else { return None };
    let (event, table) = match &inner.body {
        QueryBody::Update(u) => (msql_lang::TriggerEvent::Update, &u.table.table),
        QueryBody::Insert(i) => (msql_lang::TriggerEvent::Insert, &i.table.table),
        QueryBody::Delete(d) => (msql_lang::TriggerEvent::Delete, &d.table.table),
        QueryBody::Select(_) => return None,
    };
    Some((local.database.clone(), table.clone(), event))
}

impl Drop for Session {
    /// "The last MSQL statement is terminated" (§3.2.2): a session that ends
    /// with vital work pending rolls it back — the safe default.
    fn drop(&mut self) {
        let _ = self.sync_point(true);
    }
}

/// Where `database` is served, per the two dictionaries.
fn route_in(
    gdd: &GlobalDataDictionary,
    ad: &AuxiliaryDirectory,
    database: &str,
) -> Result<DbRoute, MdbsError> {
    let entry = ad.service(gdd.service_of(database)?)?;
    Ok(DbRoute {
        database: database.to_string(),
        site: entry.site.clone(),
        supports_2pc: entry.supports_2pc(),
    })
}

/// Logs `RESOLVED` for each of `tasks` of multitransaction `mtx_id`, in the
/// status its outcome holds — `C` for one logged committed, which had
/// nothing to send. One that ended `E` logs nothing and fails the pass: its
/// image stays open for the next.
fn log_resolved(
    wal: &Wal,
    mtx_id: u64,
    tasks: &[&WalTask],
    outcomes: &HashMap<String, DbOutcome>,
    statuses: &mut HashMap<String, dol::TaskStatus>,
) -> Result<(), MdbsError> {
    for task in tasks {
        let outcome = outcomes.get(&task.name);
        let status = outcome.map_or(dol::TaskStatus::Committed, |o| o.status);
        if let (Some(o), dol::TaskStatus::Error) = (outcome, status) {
            return Err(task_failed(o));
        }
        statuses.insert(task.name.clone(), status);
        let task = task.name.clone();
        wal.append(&WalRecord::TaskResolved { mtx_id, task, status: status.code() })?;
    }
    Ok(())
}

/// The program of one recovery wave ([`Session::recovery_wave`]): each
/// logged task in `verbs` sending its verb at its database.
fn wave_plan(verbs: Vec<(&WalTask, TaskVerb)>) -> Result<GeneratedPlan, MdbsError> {
    let (mut tasks, mut routes) = (Vec::new(), HashMap::new());
    for (t, verb) in verbs {
        let (database, site) = (t.database.clone(), t.site.clone());
        routes.insert(database.clone(), DbRoute { database, site, supports_2pc: false });
        let def = TaskDef::new(&t.name, &t.database, Vec::new());
        tasks.push(TaskDef { verb, compensation: t.compensation.clone(), ..def });
    }
    autocommit_plan(tasks, &routes)
}

/// `command`, one statement, as the one autocommit task `name` of a DOL
/// program at `route`'s database: the program of a transfer's INSERT, DDL
/// and `ANALYZE` ([`Session::run_local`]).
fn local_plan(route: DbRoute, name: &str, command: String) -> Result<GeneratedPlan, MdbsError> {
    let task = TaskDef::new(name, &route.database, vec![command]);
    autocommit_plan(vec![task], &HashMap::from([(route.database.clone(), route)]))
}

fn status_from_code(code: char) -> dol::TaskStatus {
    dol::TaskStatus::from_code(code).unwrap_or(dol::TaskStatus::Error)
}

/// What [`Session::recover`] did for one interrupted multitransaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredMtx {
    /// The log's multitransaction id.
    pub mtx_id: u64,
    /// The acceptable state the logged decision installed (`None` for
    /// abort, logged or presumed).
    pub achieved_state: Option<usize>,
    /// True when no decision record existed and recovery presumed abort.
    pub presumed_abort: bool,
    /// Final per-task statuses after recovery (logged resolutions plus the
    /// ones this pass produced).
    pub statuses: HashMap<String, dol::TaskStatus>,
    /// The acceptable termination states, from the log.
    pub states: Vec<Vec<String>>,
    /// The tasks the consistency oracle covers, from the log.
    pub oracle: Vec<String>,
}

impl RecoveredMtx {
    /// The §3.4 consistency check over the oracle's task set: either some
    /// acceptable state is exactly realised, or everything is undone.
    /// Non-oracle tasks (non-vital update subqueries) are excluded — they
    /// commit under either decision, by design.
    pub fn is_consistent(&self) -> bool {
        let filtered: HashMap<String, dol::TaskStatus> = self
            .statuses
            .iter()
            .filter(|(task, _)| self.oracle.contains(task))
            .map(|(task, &status)| (task.clone(), status))
            .collect();
        crate::mtx::is_consistent_outcome(&self.states, &filtered)
    }
}

/// Everything one [`Session::recover`] pass settled.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// One entry per interrupted multitransaction, in log order.
    pub recovered: Vec<RecoveredMtx>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_federation;

    const Q1: &str = "USE avis national
        LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
        SELECT %code, type, ~rate FROM car WHERE status = 'available'";
    const Q2: &str = "USE continental VITAL delta united VITAL
        UPDATE flight% SET rate% = rate% * 1.1
        WHERE sour% = 'Houston' AND dest% = 'San Antonio'";
    const Q3: &str = "USE continental VITAL delta united VITAL
        UPDATE flight% SET rate% = rate% * 1.1
        WHERE sour% = 'Houston' AND dest% = 'San Antonio'
        COMP continental UPDATE flights SET rate = rate / 1.1
        WHERE source = 'Houston' AND destination = 'San Antonio'";
    const Q4: &str = "BEGIN MULTITRANSACTION
        USE continental delta
        LET fltab.snu.sstat.clname BE
            f838.seatnu.seatstatus.clientname f747.snu.sstat.passname
        UPDATE fltab SET sstat = 'TAKEN', clname = 'wenders'
        WHERE snu = ( SELECT MIN(snu) FROM fltab WHERE sstat = 'FREE');
        USE avis national
        LET cartab.ccode.cstat BE cars.code.carst vehicle.vcode.vstat
        UPDATE cartab SET cstat = 'TAKEN', client = 'wenders'
        WHERE ccode = ( SELECT MIN(ccode) FROM cartab WHERE cstat = 'available');
        COMMIT continental AND national delta AND avis
        END MULTITRANSACTION";
    const JOIN: &str = "USE continental delta
        SELECT f.flnu, g.fnu FROM continental.flights f, delta.flight g
        WHERE f.source = g.source AND f.destination = g.dest";

    /// One statement of every `Statement` variant (see [`variant`]), the
    /// paper's Q1–Q4, a join, an aggregate pushdown, transfers from one
    /// database and from a join, and an update that is deferred when the
    /// session is. Those that do not open with a `USE` prepare in the scope
    /// [`setup`] leaves: `continental VITAL`.
    fn statements() -> Vec<String> {
        let texts = [
            Q1,
            Q2,
            Q3,
            Q4,
            JOIN,
            "USE continental delta
             SELECT f.source, COUNT(*), MIN(g.rate)
             FROM continental.flights f, delta.flight g
             WHERE f.source = g.source GROUP BY f.source",
            "USE continental avis
             INSERT INTO avis.cars (code, rate) SELECT flnu, rate FROM continental.flights",
            "USE continental delta avis
             INSERT INTO avis.cars (code) SELECT f.flnu
             FROM continental.flights f, delta.flight g WHERE f.source = g.source",
            "UPDATE flights SET rate = rate * 2 WHERE flnu = 2",
            "USE continental delta",
            "LET flt.src BE flights.source",
            "INCORPORATE SERVICE svc_extra SITE site9 CONNECTMODE CONNECT COMMITMODE COMMIT",
            "IMPORT DATABASE avis FROM SERVICE svc_avis",
            "CREATE DATABASE extra",
            "DROP DATABASE extra",
            "CREATE TABLE scratch (x INT)",
            "DROP TABLE flights",
            "CREATE INDEX flights_src ON flights (source)",
            "DROP INDEX flights_src ON flights",
            "CREATE TRIGGER watch ON continental.flights AFTER UPDATE EXECUTE
             USE continental UPDATE flights SET rate = rate",
            "DROP TRIGGER fare_watch",
            "COMMIT",
            "ROLLBACK",
            "ANALYZE",
        ];
        let mut out: Vec<String> = texts.iter().map(|t| t.to_string()).collect();
        out.push(format!("EXPLAIN {Q1}"));
        out
    }

    /// Which `Statement` variant `stmt` is. The match is exhaustive, so a new
    /// variant fails to compile here until [`statements`] covers it.
    fn variant(stmt: &Statement) -> usize {
        match stmt {
            Statement::Query(_) => 0,
            Statement::Use(_) => 1,
            Statement::Let(_) => 2,
            Statement::Multitransaction(_) => 3,
            Statement::Incorporate(_) => 4,
            Statement::Import(_) => 5,
            Statement::CreateDatabase(_) => 6,
            Statement::DropDatabase(_) => 7,
            Statement::CreateTable(_) => 8,
            Statement::DropTable(_) => 9,
            Statement::CreateIndex(_) => 10,
            Statement::DropIndex(_) => 11,
            Statement::CreateTrigger(_) => 12,
            Statement::DropTrigger(_) => 13,
            Statement::Commit => 14,
            Statement::Rollback => 15,
            Statement::Explain(_) => 16,
            Statement::Analyze(_) => 17,
        }
    }
    const VARIANTS: usize = 18;

    /// The paper federation with a trigger, a WAL that holds records, cached
    /// site statistics and, in deferred-commit mode, one pending vital member
    /// — on a network that loses every message.
    fn setup() -> Session {
        let mut fed = paper_federation();
        fed.enable_wal();
        fed.execute(
            "CREATE TRIGGER fare_watch ON continental.flights AFTER UPDATE EXECUTE
             USE continental UPDATE flights SET rate = rate",
        )
        .unwrap();
        fed.execute(JOIN).unwrap();
        assert!(fed.execute(Q2).unwrap().into_update().unwrap().success);
        fed.set_deferred_commit(true);
        fed.execute("USE continental VITAL").unwrap();
        fed.execute("UPDATE flights SET rate = rate * 2 WHERE flnu = 1").unwrap();
        assert_eq!(fed.pending_vital_subqueries(), 1);
        fed.network().set_drop_probability(1.0);
        fed
    }

    /// Everything preparing must leave as it is.
    #[derive(Debug, PartialEq)]
    struct Observed {
        messages: u64,
        dropped: u64,
        epoch: u64,
        triggers: Vec<CreateTrigger>,
        site_stats: HashMap<String, Vec<crate::wire::SiteTableStats>>,
        wal_records: usize,
        scope: SessionScope,
        pending: usize,
    }

    fn observe(fed: &Session) -> Observed {
        let net = fed.network().stats();
        Observed {
            messages: net.messages,
            dropped: net.dropped,
            epoch: fed.core.catalog_epoch.load(Ordering::SeqCst),
            triggers: fed.core.triggers.read().clone(),
            site_stats: fed.core.site_stats.read().clone(),
            wal_records: fed.wal().map_or(0, Wal::record_count),
            scope: fed.scope.clone(),
            pending: fed.pending_vital_subqueries(),
        }
    }

    fn prepare(fed: &Session, msql: &str) -> Result<Prepared, MdbsError> {
        let stmt = msql_lang::parse_statement(msql).unwrap();
        fed.prepare(&stmt, &Span::disabled())
    }

    #[test]
    fn preparing_sends_nothing_and_changes_nothing() {
        let mut fed = setup();
        let before = observe(&fed);
        assert!(before.wal_records > 0 && !before.site_stats.is_empty());
        let mut seen = [false; VARIANTS];
        for deferred in [true, false] {
            fed.deferred = deferred;
            for msql in statements() {
                seen[variant(&msql_lang::parse_statement(&msql).unwrap())] = true;
                let prepared = prepare(&fed, &msql);
                if msql.contains("DATABASE extra") {
                    assert!(prepared.is_err(), "{msql}");
                } else if let Err(e) = prepared {
                    panic!("`{msql}` failed to prepare: {e}");
                }
                assert_eq!(observe(&fed), before, "preparing `{msql}` changed something");
            }
        }
        assert_eq!(seen, [true; VARIANTS], "one statement of every variant");
        // What the two modes prepare an update to.
        fed.deferred = true;
        let update = "UPDATE flights SET rate = rate * 2 WHERE flnu = 2";
        assert!(matches!(prepare(&fed, update).unwrap().plan, PreparedPlan::Deferred { .. }));
        fed.deferred = false;
        assert!(matches!(prepare(&fed, update).unwrap().plan, PreparedPlan::Settle { .. }));
        fed.deferred = true;
        fed.network().set_drop_probability(0.0);
    }

    #[test]
    fn preparing_twice_gives_equal_prepared_statements() {
        let mut fed = setup();
        for deferred in [true, false] {
            fed.deferred = deferred;
            for msql in statements() {
                match (prepare(&fed, &msql), prepare(&fed, &msql)) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "{msql}"),
                    (a, b) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "{msql}"),
                }
            }
        }
        fed.deferred = true;
        fed.network().set_drop_probability(0.0);
    }

    fn scope_keys(fed: &Session) -> Vec<String> {
        fed.scope().databases.iter().map(|d| d.key().to_string()).collect()
    }

    /// A statement that fails to prepare leaves the scope as it found it; one
    /// that fails while it runs keeps the scope it set, as a cache hit does.
    #[test]
    fn only_a_statement_that_runs_changes_the_scope() {
        let mut fed = paper_federation();
        fed.execute("USE continental delta").unwrap();
        fed.execute("USE avis SELECT nosuch FROM nosuchtable").unwrap_err();
        assert_eq!(scope_keys(&fed), ["continental", "delta"]);
        fed.execute("USE avis SELECT code + 'x' FROM cars").unwrap_err();
        assert_eq!(scope_keys(&fed), ["avis"]);
    }

    /// A `USE` that fails to apply is no synchronization point: the pending
    /// global transaction stays pending, and nothing is sent.
    #[test]
    fn a_use_that_fails_to_apply_runs_no_sync_point() {
        let mut fed = paper_federation();
        fed.set_deferred_commit(true);
        fed.execute("USE continental VITAL").unwrap();
        fed.execute("UPDATE flights SET rate = rate * 2 WHERE flnu = 1").unwrap();
        let sent = fed.network().stats().messages;
        let err = fed.execute("USE avis avis").unwrap_err();
        assert!(err.to_string().contains("duplicate scope name"), "{err}");
        assert_eq!(fed.pending_vital_subqueries(), 1);
        assert_eq!(fed.network().stats().messages, sent);
        assert_eq!(scope_keys(&fed), ["continental"]);
        // A USE that applies is one.
        assert!(fed.execute("USE avis").unwrap().into_update().unwrap().success);
        assert_eq!(fed.pending_vital_subqueries(), 0);
    }

    /// A recovery wave's program says what each logged task sends. Q3,
    /// crashed before its decision, is presumed aborted: one wave
    /// `RESOLVE`s its prepared task, the next `COMPENSATE`s the
    /// autocommitted one with its logged COMP — the tasks recovery runs.
    #[test]
    fn a_recovery_wave_is_its_printed_program() {
        use crate::fixtures::{paper_federation_with, FederationProfiles};
        use crate::wal::{CrashPlan, CrashWhen};
        let continental = ldbs::profile::DbmsProfile::autocommit_only();
        let profiles = FederationProfiles { continental, ..Default::default() };
        let mut fed = paper_federation_with(netsim::Network::new(), profiles);
        let wal = fed.enable_wal();
        // BEGIN and the three first-phase outcomes are logged; the decision is not.
        wal.arm_crash(CrashPlan { at: 4, when: CrashWhen::Before });
        fed.execute(Q3).unwrap_err();
        let [image] = &wal.replay().unwrap()[..] else { panic!("one interrupted image") };
        let task = |name: &str| image.tasks.iter().find(|t| t.name == name).unwrap();
        let print = |verbs| dol::print_program(&wave_plan(verbs).unwrap().program);
        let resolve = "\
DOLBEGIN
  OPEN united AT site3 AS united;
  TASK T3 RESOLVE ABORT FOR united
  {  }
  ENDTASK;
  DOLSTATUS=0;
  CLOSE united;
DOLEND
";
        assert_eq!(print(vec![(task("T3"), TaskVerb::Resolve(false))]), resolve);
        let compensate = "\
DOLBEGIN
  OPEN continental AT site1 AS continental;
  TASK T1 COMPENSATE FOR continental
  {  }
  COMP
  { UPDATE flights SET rate = rate / 1.1 WHERE source = 'Houston' AND destination = 'San Antonio' }
  ENDTASK;
  DOLSTATUS=0;
  CLOSE continental;
DOLEND
";
        assert_eq!(print(vec![(task("T1"), TaskVerb::Compensate)]), compensate);

        assert!(fed.recover().unwrap().recovered[0].presumed_abort);
        let trace = fed.last_trace().unwrap();
        let tasks = |wave: &str| {
            let mut names = Vec::new();
            let mut stack = vec![trace.find(wave).unwrap()];
            while let Some(node) = stack.pop() {
                names.extend(node.name.strip_prefix("task:").map(str::to_string));
                stack.extend(&node.children);
            }
            names
        };
        assert_eq!((tasks("resolve"), tasks("compensate")), (vec!["T3".into()], vec!["T1".into()]));
    }
}
