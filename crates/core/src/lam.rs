//! Local Access Managers — the server side.
//!
//! A LAM (paper §4.1) runs at a site, wraps one local DBMS engine, executes
//! the commands the DOL engine ships to it, and sends partial results back.
//! "LAMs execute local commands and produce partial results, which are sent
//! either to the engine or to other LAMs." Both halves hold. A task's rows
//! go back to the engine (the MDBS layer). A cross-database join's partial
//! goes to the other LAM: a `SHIP` makes this LAM run the subquery and send
//! the rows as a `PART` straight to the coordinator's LAM, keyed by the
//! coordinator's `COMBINE` correlation id, and nothing answers the sender
//! (unless the MDBS layer also needs the reducer's keys, when the rows come
//! back too). At the coordinator the `COMBINE` and its parts meet in a
//! bounded stash: whichever frame arrives first waits there, no server thread
//! waits for the others, and the thread that files the last one runs the
//! combine and answers the `COMBINE`'s sender. The coordinator's own partial
//! never travels at all: it is materialised in place, reduced by the
//! reducer's keys along the plan's edges into it. Here each LAM is a
//! long-running server on a [`netsim`] mailbox speaking the [`crate::proto`]
//! protocol: one thread that receives a request, executes it against the
//! engine and sends the reply itself, joined by a second (third, …)
//! identical thread only while a request is parked on a lock wait — see
//! [`spawn_lam_with`].

use crate::codec::{self, RowWriter, WireFormat};
use crate::error::MdbsError;
use crate::planner::{and_filters, ReductionEdge};
use crate::proto::{self, CombineReport, Encoded, HomeEdge, PartDone};
use crate::proto::{RowsRequest as Request, TaskMode};
use crate::translate::decompose::part_table;
use crate::wire;
use catalog::{GddColumn, GddTable};
use ldbs::engine::{Engine, ExecOutcome, ResultSet, RowSink};
use ldbs::error::DbError;
use ldbs::table::Table;
use ldbs::txn::TxnId;
use ldbs::value::DataType;
use msql_lang::TypeName;
use netsim::{Body, Endpoint, Network};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A LAM's reply. The rows it carries, if any, are already written in the
/// format of the request it answers: the engine runs a SELECT into that
/// format's [`RowWriter`], and no result set stands between it and the wire.
type Response = proto::Response<Encoded>;

/// How long a blocked statement parks on the engine's lock signal per retry
/// slice (it wakes earlier the moment a lock is released).
const LOCK_WAIT_SLICE: Duration = Duration::from_millis(50);

/// Tunables for a LAM server ([`spawn_lam_with`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LamConfig {
    /// How long shutdown waits for a server thread to acknowledge the
    /// control message before taking the site down anyway.
    pub control_timeout: Duration,
    /// How long a statement may wait for a local write lock before the
    /// server gives up, rolls the transaction back, and reports a
    /// retriable deadlock. This is the backstop for *distributed*
    /// deadlocks, which no single engine's waits-for graph can see.
    pub lock_wait_timeout: Duration,
}

impl Default for LamConfig {
    fn default() -> Self {
        LamConfig {
            control_timeout: Duration::from_secs(2),
            lock_wait_timeout: Duration::from_secs(2),
        }
    }
}

/// Converts an engine data type to the GDD's type representation.
fn to_type_name(t: DataType) -> TypeName {
    match t {
        DataType::Int => TypeName::Int,
        DataType::Float => TypeName::Float,
        DataType::Char(w) => TypeName::Char(w),
        DataType::Bool => TypeName::Bool,
        DataType::Date => TypeName::Date,
    }
}

/// The public Local Conceptual Schema of a database, as GDD entries.
pub fn local_conceptual_schema(
    engine: &Engine,
    database: &str,
) -> Result<Vec<GddTable>, MdbsError> {
    let db = engine.database(database).map_err(|e| MdbsError::Local {
        service: engine.service_name.clone(),
        message: e.to_string(),
    })?;
    let mut out = Vec::new();
    for name in db.table_names() {
        let table = db.table(&name).expect("listed table exists");
        if !table.schema.public {
            continue;
        }
        let columns = table
            .schema
            .columns
            .iter()
            .map(|c| GddColumn::new(c.name.clone(), to_type_name(c.data_type)))
            .collect();
        out.push(GddTable::new(name, columns));
    }
    Ok(out)
}

/// The optimizer statistics a database has collected via `ANALYZE`, in
/// exportable form. Tables that were never analyzed are omitted — their
/// absence tells the coordinator to fall back to heuristics.
pub fn site_statistics(
    engine: &Engine,
    database: &str,
    table: Option<&str>,
) -> Result<Vec<wire::SiteTableStats>, MdbsError> {
    let local = |e: ldbs::DbError| MdbsError::Local {
        service: engine.service_name.clone(),
        message: e.to_string(),
    };
    let db = engine.database(database).map_err(local)?;
    let names: Vec<String> = match table {
        Some(t) => {
            let name = t.to_ascii_lowercase();
            db.table(&name).map_err(local)?;
            vec![name]
        }
        None => db.table_names(),
    };
    let mut out = Vec::new();
    for name in names {
        let t = db.table(&name).expect("listed table exists");
        if let Some(stats) = t.table_stats() {
            out.push(wire::SiteTableStats {
                table: name,
                dml_since: t.dml_since_analyze(),
                stats: stats.clone(),
            });
        }
    }
    Ok(out)
}

/// Live counters of one LAM server, shared with the handle (and scraped
/// into the federation's metrics registry on demand).
#[derive(Debug, Default)]
pub struct LamServerStats {
    /// Requests executed against the wrapped engine.
    pub served: AtomicU64,
    /// Retried requests answered from the reply cache without re-execution
    /// (the at-most-once deduplication path).
    pub replayed: AtomicU64,
    /// Server threads ever started: 1, plus one for every request that was
    /// parked on a lock wait while all the others were parked too.
    pub server_threads: AtomicU64,
    /// Messages taken from the site's mailbox.
    pub received: AtomicU64,
    /// Received messages the server is done with — replied to, or dropped as
    /// a retry of one still executing: `received` while none is in progress.
    pub answered: AtomicU64,
}

/// A received message, answered when its turn of the serve loop ends.
struct InProgress<'a>(&'a LamServerStats);

impl Drop for InProgress<'_> {
    fn drop(&mut self) {
        self.0.answered.fetch_add(1, Ordering::SeqCst);
    }
}

/// A running LAM: owns the server threads and shares the engine with the
/// test/benchmark harness (so fixtures can seed data and inspect outcomes).
pub struct LamHandle {
    /// Service name (as incorporated).
    pub service: String,
    /// Site the LAM listens at.
    pub site: String,
    /// The wrapped engine, shared with the harness.
    pub engine: Arc<Mutex<Engine>>,
    /// Counters kept by the server threads.
    pub stats: Arc<LamServerStats>,
    shared: Arc<SrvShared>,
}

impl LamHandle {
    /// True while the server is processing requests. A LAM that was shut
    /// down, or whose site was taken off the network under it (a terminal
    /// fault), turns this off; either way the site is deregistered, so
    /// clients get an immediate `UnknownSite` instead of hanging until
    /// timeout.
    pub fn is_alive(&self) -> bool {
        self.shared.alive.load(Ordering::SeqCst)
    }

    /// Stops the server threads and deregisters the site.
    pub fn shutdown(mut self) {
        self.do_shutdown();
    }

    fn do_shutdown(&mut self) {
        let shared = &self.shared;
        // Only go through the control round while the server is alive; a
        // dead one would never acknowledge and we would block for the full
        // control timeout.
        if self.is_alive() {
            let ctl_name = format!("__ctl_{}", shared.site);
            if let Ok(ctl) = shared.net.register(&ctl_name) {
                // Nothing to wait for if the site just went off the network.
                if ctl.send(&shared.site, Request::Shutdown.encode()).is_ok() {
                    let _ = ctl.recv_timeout(shared.config.control_timeout);
                }
                shared.net.deregister(&ctl_name);
            }
            // Acknowledged or not (every thread may be busy): taking the
            // site down disconnects the mailbox, which wakes every thread
            // blocked on it, and clearing the flag ends every lock wait at
            // its next slice and keeps new threads from starting.
            shared.alive.store(false, Ordering::SeqCst);
            shared.net.deregister(&shared.site);
        }
        let threads = std::mem::take(&mut shared.threads.lock().handles);
        for thread in threads {
            let _ = thread.join();
        }
    }
}

impl Drop for LamHandle {
    fn drop(&mut self) {
        self.do_shutdown();
    }
}

/// Spawns a LAM serving `engine` at `site` with default tunables.
pub fn spawn_lam(
    net: &Network,
    service: &str,
    site: &str,
    engine: Engine,
) -> Result<LamHandle, MdbsError> {
    spawn_lam_with(net, service, site, engine, LamConfig::default())
}

/// Spawns a LAM serving `engine` at `site`.
///
/// The server is one or more identical, long-lived threads blocked on the
/// site's mailbox. Whichever dequeues a request serves it start to finish
/// (`serve`): it answers a cached or inflight retry or a control message
/// on the spot, and otherwise decodes the request, executes it against the
/// engine, frames the reply and sends it — no hand-off, and no thread is
/// created for it. Threads lock the shared state only briefly — never across
/// a lock wait — and put the framed reply in the cache *before* clearing
/// the inflight marker, so client retries stay at-most-once: a retry
/// arriving while the original executes is dropped (the client re-asks and
/// hits the populated cache), and a retry after completion replays the
/// cached reply without re-execution.
///
/// A LAM starts with one thread, and requests to it serialise on the engine
/// mutex anyway. The one time a request holds its thread *without* the
/// engine is a lock wait (`exec_with_wait`), and one session's lock wait
/// must never stall another session's statements — least of all the lock
/// holder's own `COMMIT`. So a request about to park first makes sure some
/// other thread is not parked, starting one if need be. Threads stay until
/// shutdown: their number is 1 + the most requests ever parked at once, and
/// is 1 for a LAM that never saw contention.
///
/// Shutdown, and a terminal fault (the site taken off the network), mark
/// the handle dead and leave the site deregistered, so clients fail fast
/// instead of timing out; [`LamHandle`] joins every thread.
pub fn spawn_lam_with(
    net: &Network,
    service: &str,
    site: &str,
    engine: Engine,
    config: LamConfig,
) -> Result<LamHandle, MdbsError> {
    let endpoint = net.register(site)?;
    let engine = Arc::new(Mutex::new(engine));
    let stats = Arc::new(LamServerStats::default());
    let shared = Arc::new(SrvShared {
        engine: Arc::clone(&engine),
        state: Mutex::new(SrvState {
            open: HashMap::new(),
            // Far more than a coordinator's retries and recovery ever reach
            // back for.
            resolved: Fifo::new(1024),
            replies: Fifo::new(256),
            inflight: HashSet::new(),
            stash: Fifo::new(256),
            ran: Fifo::new(256),
        }),
        config,
        endpoint,
        net: net.clone(),
        site: site.to_string(),
        alive: AtomicBool::new(true),
        stats: Arc::clone(&stats),
        threads: Mutex::new(ServerThreads::default()),
    });
    if let Err(e) = start_server_thread(&shared, &mut shared.threads.lock()) {
        net.deregister(site);
        return Err(MdbsError::Internal(format!("failed to spawn LAM thread: {e}")));
    }
    Ok(LamHandle { service: service.to_string(), site: site.to_string(), engine, stats, shared })
}

/// The threads of one LAM server.
#[derive(Default)]
struct ServerThreads {
    /// Every thread started so far (emptied by shutdown, which joins them).
    handles: Vec<JoinHandle<()>>,
    /// How many of them are parked on a lock wait right now.
    parked: usize,
}

/// Starts one more thread serving `shared`'s mailbox.
fn start_server_thread(shared: &Arc<SrvShared>, threads: &mut ServerThreads) -> io::Result<()> {
    let server = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("lam-{}", shared.site))
        .spawn(move || serve(&server))?;
    threads.handles.push(handle);
    shared.stats.server_threads.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// A request's claim on "parked": counted from its first lock wait until it
/// is done waiting.
struct Parked<'a>(&'a SrvShared);

impl Drop for Parked<'_> {
    fn drop(&mut self) {
        self.0.threads.lock().parked -= 1;
    }
}

/// Called by a request about to wait for a lock with the engine released:
/// counts its thread as parked and, if that leaves none to listen, starts
/// another first. `None` — do not park — when the server is going down or
/// the thread it needs cannot be had: better to fail this one request than
/// to leave the mailbox, and with it the lock holder's `COMMIT`, unserved.
fn park(shared: &Arc<SrvShared>) -> Option<Parked<'_>> {
    let mut threads = shared.threads.lock();
    if !shared.alive.load(Ordering::SeqCst) {
        return None;
    }
    if threads.parked + 1 == threads.handles.len() {
        start_server_thread(shared, &mut threads).ok()?;
    }
    threads.parked += 1;
    Some(Parked(shared))
}

/// One server thread: receive, serve, reply, until the LAM goes down.
fn serve(shared: &Arc<SrvShared>) {
    let endpoint = &shared.endpoint;
    while let Ok(msg) = endpoint.recv_blocking() {
        shared.stats.received.fetch_add(1, Ordering::SeqCst);
        let _in_progress = InProgress(&shared.stats);
        if !shared.alive.load(Ordering::SeqCst) {
            // Queued behind the shutdown: the site is gone, the client's
            // next attempt says so.
            break;
        }
        // The server mirrors whatever format each request arrived in, so
        // mixed-format clients coexist on one LAM. The correlation id is
        // peeked *before* full decoding, keeping the cache-check →
        // inflight-insert → decode order that the at-most-once guarantee
        // depends on. A request is known by who sent it and its id: two
        // clients that number their requests alike never share a reply.
        let (corr, format) = codec::peek(&msg.body);
        let asked: Option<ReplyKey> = corr.map(|id| (msg.from.as_str().into(), id));
        if let Some(asked) = &asked {
            let mut state = shared.state.lock();
            if let Some(cached) = state.replies.get(asked).cloned() {
                drop(state);
                shared.stats.replayed.fetch_add(1, Ordering::Relaxed);
                let _ = endpoint.send(&msg.from, cached);
                continue;
            }
            if !state.inflight.insert(asked.clone()) {
                // The original request is still executing on a sibling
                // thread: drop this retry silently; the client's next retry
                // will hit the reply cache.
                continue;
            }
        }
        let decoded = codec::read_request(&msg.body);
        let combine = matches!(decoded, Ok((Request::Combine { .. }, _)));
        let response = match decoded {
            Ok((Request::Shutdown, _)) => {
                reply(shared, &msg.from, corr, Response::Ok, format);
                // Taking the site down disconnects the mailbox, which is
                // what wakes the sibling threads.
                shared.alive.store(false, Ordering::SeqCst);
                shared.net.deregister(&shared.site);
                break;
            }
            Ok((req, size)) => {
                shared.stats.served.fetch_add(1, Ordering::Relaxed);
                match req {
                    Request::Ship { key, to, database, sql, baseline, echo } => {
                        let part = Shipped { key, to, database, sql, baseline, echo };
                        ship(shared, part, format)
                    }
                    Request::Part { key, database, payload, access, error, full_bytes } => {
                        let arrived = Arrived { payload, bytes: size, access, error, full_bytes };
                        gather(shared, key, Frame::Part(database, arrived))
                    }
                    Request::Combine { database, home, parts, edges, sql, measure } => {
                        let spec = CombineSpec { database, home, parts, edges, sql, measure };
                        match &asked {
                            Some(asked) => {
                                let waiting = Waiting { asked: asked.clone(), format, spec };
                                gather(shared, asked.1, Frame::Combine(waiting))
                            }
                            None => Some(run_combine(shared, spec, HashMap::new(), format)),
                        }
                    }
                    req => Some(handle_request(shared, req, format)),
                }
            }
            // A reply that failed to decode as a request is not answered:
            // two LAMs must never bounce errors at each other.
            Err(_) if codec::is_reply(&msg.body) => None,
            Err(e) => Some(Response::Err { message: e.to_string() }),
        };
        match (response, asked) {
            (Some(response), _) => reply(shared, &msg.from, corr, response, format),
            // Not answered here. A `COMBINE` that waits left the inflight set
            // in `gather`; anything else leaves it now, or every later
            // request from its sender under its id would be dropped.
            (None, Some(asked)) if !combine => {
                shared.state.lock().inflight.remove(&asked);
            }
            (None, _) => {}
        }
    }
    // Shut down, or a terminal fault: the mailbox only disconnects when the
    // site is off the network. Either way the handle reads dead.
    shared.alive.store(false, Ordering::SeqCst);
}

/// Frames a response to `to`'s request `corr` and sends it. A correlated
/// reply goes into the reply cache — the body itself, shared, not a copy —
/// and its inflight marker clears under the same lock, so a client retry can
/// never slip between the two and re-execute.
fn reply(shared: &SrvShared, to: &str, corr: Option<u64>, response: Response, format: WireFormat) {
    let body = codec::frame_response(format, corr, &response);
    if let Some(id) = corr {
        let asked: ReplyKey = (to.into(), id);
        let mut state = shared.state.lock();
        state.inflight.remove(&asked);
        state.replies.insert(asked, body.clone());
    }
    let _ = shared.endpoint.send(to, body);
}

/// A map that remembers its newest `capacity` keys and forgets the oldest
/// first, so a long-lived server's memory stays flat. What a LAM remembers
/// about finished work is one: the framed replies it already sent (by sender
/// and correlation id — a retry is replayed verbatim, in the format the
/// original request used), the outcomes of settled tasks (by name — what
/// recovery's `RESOLVE` and a repeated `COMPENSATE` are answered from) and
/// the ids of the joins it ran (a late part is dropped by them). The
/// retained window comfortably covers the horizon the retry paths need.
struct Fifo<K, V> {
    capacity: usize,
    entries: HashMap<K, V>,
    order: VecDeque<K>,
}

impl<K: std::hash::Hash + Eq + Clone, V> Fifo<K, V> {
    fn new(capacity: usize) -> Self {
        Fifo { capacity: capacity.max(1), entries: HashMap::new(), order: VecDeque::new() }
    }

    fn get(&self, key: &K) -> Option<&V> {
        self.entries.get(key)
    }

    /// A key already present keeps its place in the queue.
    fn insert(&mut self, key: K, value: V) {
        if self.entries.insert(key.clone(), value).is_none() {
            self.order.push_back(key);
            while self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.entries.remove(&old);
                }
            }
        }
    }

    fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.entries.get_mut(key)
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        let value = self.entries.remove(key)?;
        self.order.retain(|k| k != key);
        Some(value)
    }
}

/// Mutable LAM server state, shared between the server threads. The mutex is
/// only ever held for map bookkeeping — never across engine execution or a
/// lock wait.
struct SrvState {
    /// Open subtransactions — active or prepared — by task name, each with
    /// the database it runs on. [`open_task`] alone inserts, [`close_task`]
    /// alone removes.
    open: HashMap<String, (TxnId, String)>,
    /// Final outcome (`C`/`A`/`K`) of every settled task. A coordinator that
    /// crashed after delivering COMMIT but before logging the resolution
    /// re-asks and gets the recorded outcome instead of presumed abort.
    /// Entries are superseded when a task name is re-executed.
    resolved: Fifo<String, char>,
    /// Correlated responses already sent (retry deduplication), by sender
    /// and correlation id.
    replies: Fifo<ReplyKey, Body>,
    /// Correlated requests currently executing; retries of them are dropped
    /// until the reply lands in the cache.
    inflight: HashSet<ReplyKey>,
    /// Join frames waiting for their partners, by the `COMBINE`'s
    /// correlation id alone: a part comes from another LAM ([`gather`]).
    /// Bounded like the reply cache: a join whose client gave up is
    /// forgotten with the oldest entries.
    stash: Fifo<u64, Stash>,
    /// The ids of the joins that ran (or are running), bounded apart from
    /// the stash so they never evict a waiting join: a part for one of them
    /// is a late copy.
    ran: Fifo<u64, ()>,
}

/// Who sent a correlated request, and under which id. The name is shared by
/// a cached reply's entry and its place in the eviction queue.
type ReplyKey = (Arc<str>, u64);

/// What one join's coordinator has received so far.
#[derive(Default)]
struct Stash {
    /// The `COMBINE`, once it arrived.
    combine: Option<Waiting>,
    /// The parts that arrived, by database.
    parts: HashMap<String, Arrived>,
}

/// A correlated `COMBINE`, with who sent it under which id and in what
/// format: whoever runs it answers that sender.
struct Waiting {
    asked: ReplyKey,
    format: WireFormat,
    spec: CombineSpec,
}

/// The fields of a [`Request::Combine`].
struct CombineSpec {
    database: String,
    home: Option<String>,
    parts: Vec<String>,
    edges: Vec<HomeEdge>,
    sql: String,
    measure: bool,
}

/// The fields of a [`Request::Part`], plus its payload block's wire size.
struct Arrived {
    payload: Option<ResultSet>,
    bytes: usize,
    access: Option<String>,
    error: Option<String>,
    full_bytes: u64,
}

/// The fields of a [`Request::Ship`].
struct Shipped {
    key: u64,
    to: String,
    database: String,
    sql: String,
    baseline: Option<String>,
    echo: bool,
}

/// Per reduction edge: the reducer's distinct keys and whether they shipped.
type Verdicts = Vec<(u64, bool)>;

/// A join frame for the stash.
enum Frame {
    Combine(Waiting),
    Part(String, Arrived),
}

/// Everything the server threads of one LAM share: the engine behind its own
/// lock, the server state behind another, and the mailbox they all block on.
struct SrvShared {
    engine: Arc<Mutex<Engine>>,
    state: Mutex<SrvState>,
    config: LamConfig,
    /// The site's mailbox.
    endpoint: Endpoint,
    net: Network,
    site: String,
    /// Cleared when the server goes down (shutdown or terminal fault).
    alive: AtomicBool,
    stats: Arc<LamServerStats>,
    threads: Mutex<ServerThreads>,
}

/// Executes one command inside `txn`, parking on the engine's lock signal
/// whenever the statement would block on a write lock. The engine mutex is
/// released while parked and another server thread is listening ([`park`]),
/// so other sessions keep executing. If the wait outlives the configured
/// timeout — or the server goes down, or may not park — the transaction is
/// rolled back and the retriable deadlock error returned: the backstop for
/// lock cycles that span engines.
fn exec_with_wait(
    shared: &Arc<SrvShared>,
    txn: TxnId,
    database: &str,
    cmd: &str,
    format: WireFormat,
) -> Result<ExecOutcome<RowWriter>, DbError> {
    let signal = shared.engine.lock().lock_signal();
    let deadline = Instant::now() + shared.config.lock_wait_timeout;
    let mut parked = None;
    loop {
        let epoch = signal.epoch();
        let result = shared.engine.lock().execute_in_with(txn, database, cmd, format.row_writer());
        match result {
            Err(DbError::LockWait { table }) => {
                if parked.is_none() {
                    parked = park(shared);
                }
                if parked.is_none()
                    || Instant::now() >= deadline
                    || !shared.alive.load(Ordering::SeqCst)
                {
                    let mut engine = shared.engine.lock();
                    engine.cancel_wait(txn);
                    let _ = engine.rollback(txn);
                    return Err(DbError::Deadlock { table });
                }
                signal.wait_past(epoch, LOCK_WAIT_SLICE);
            }
            other => return other,
        }
    }
}

/// Rolls `txn` back; one the deadlock detector already aborted stays aborted.
fn rollback_tolerant(shared: &SrvShared, txn: TxnId) -> Result<(), DbError> {
    match shared.engine.lock().rollback(txn) {
        Err(DbError::InvalidTxnState { state: "Aborted", .. }) => Ok(()),
        other => other,
    }
}

// One lifecycle for a subtransaction, whoever drives it: open → run … →
// prepare → settle. `TASK … NOCOMMIT` is the first three in one request;
// a deferred global transaction's member (§3.2.2) takes them one statement at
// a time — `TASK … HOLD` opens and runs, `EXEC` runs again, `PREPARE` votes;
// `COMMIT` / `ABORT` / `RESOLVE` are the last.
// The open-task table is keyed by name alone, so names are the coordinators'
// to keep apart (DESIGN §3a.6): a name that is open is refused, never
// replaced — replacing it would hand its `COMMIT` to the wrong transaction
// and leave the first one prepared, with its locks, for good.

/// Opens subtransaction `name` on `database`: the one way into the open-task
/// table.
fn open_task(shared: &SrvShared, name: &String, database: &str) -> Result<(), String> {
    let mut state = shared.state.lock();
    if state.open.contains_key(name) {
        return Err(format!("task `{name}` already open"));
    }
    let mut engine = shared.engine.lock();
    engine.database(database).map_err(|e| e.to_string())?;
    let txn = engine.begin();
    drop(engine);
    state.resolved.remove(name); // new incarnation supersedes
    state.open.insert(name.clone(), (txn, database.to_string()));
    Ok(())
}

/// The one way out of the table: `name` is open no more, and `outcome` is
/// what a `RESOLVE` for it hears from now on.
fn close_task(shared: &SrvShared, name: &str, outcome: char) {
    let mut state = shared.state.lock();
    state.open.remove(name);
    state.resolved.insert(name.to_string(), outcome);
}

/// The transaction and database of open task `name`, or the refusal naming
/// it.
fn open_entry(shared: &SrvShared, name: &str) -> Result<(TxnId, String), String> {
    let entry = shared.state.lock().open.get(name).cloned();
    entry.ok_or_else(|| format!("unknown open task `{name}`"))
}

/// What a run of commands came to: the rows affected by those that succeeded,
/// the last SELECT's rows, and the error that stopped the run, if one did.
#[derive(Default)]
struct Ran {
    affected: u64,
    payload: Option<Encoded>,
    error: Option<DbError>,
}

/// Runs `commands` in order until one fails — inside `held`, an open
/// subtransaction, or, given none, each in a transaction of its own that is
/// committed on the spot. That is autocommit: the commands before a failed
/// one stay committed, exactly the hazard §3.3's compensation exists to
/// handle. An explicit begin / commit rather than `engine.execute`, so a lock
/// wait retries under the *same* transaction id and its wait-queue entry
/// stays valid across attempts. A SELECT's rows are written in `format`, the
/// reply's.
fn run_commands(
    shared: &Arc<SrvShared>,
    database: &str,
    commands: &[String],
    held: Option<TxnId>,
    format: WireFormat,
) -> Ran {
    let mut ran = Ran::default();
    for cmd in commands {
        let txn = held.unwrap_or_else(|| shared.engine.lock().begin());
        let mut result = exec_with_wait(shared, txn, database, cmd, format);
        if held.is_none() {
            result = result.and_then(|out| shared.engine.lock().commit(txn).map(|()| out));
            if result.is_err() {
                let _ = rollback_tolerant(shared, txn);
            }
        }
        match result {
            Ok(ExecOutcome::Affected(n)) => ran.affected += n as u64,
            Ok(ExecOutcome::Rows(rows)) => ran.payload = Some(rows.into_payload()),
            Err(e) => {
                ran.error = Some(e);
                break;
            }
        }
    }
    ran
}

fn task_done(
    status: char,
    affected: u64,
    payload: Option<Encoded>,
    error: Option<String>,
) -> Response {
    Response::TaskDone { status, affected, payload, error }
}

/// `EXEC`: runs `commands` inside open task `task`. A statement that fails
/// leaves the transaction open — statement-level atomicity holds, the caller
/// decides whether to continue or roll back — unless it failed as a deadlock
/// victim: that transaction is rolled back already, so the task is closed and
/// the coordinator's abort sweep finds nothing to do.
///
/// `EXEC` on a name that is not open is an error, never an implicit open:
/// otherwise a deadlock victim's next statement would silently begin a fresh
/// transaction, and the statements before it would be lost.
fn exec_task(
    shared: &Arc<SrvShared>,
    task: &str,
    commands: &[String],
    format: WireFormat,
) -> Response {
    let (txn, database) = match open_entry(shared, task) {
        Ok(entry) => entry,
        Err(message) => return Response::Err { message },
    };
    let ran = run_commands(shared, &database, commands, Some(txn), format);
    match ran.error {
        None => task_done('E', ran.affected, ran.payload, None),
        Some(e) => {
            if matches!(e, DbError::Deadlock { .. }) {
                close_task(shared, task, 'A');
            }
            task_done('A', ran.affected, None, Some(e.to_string()))
        }
    }
}

/// `PREPARE`: the vote of open task `task`. A failed vote aborts it.
fn prepare_task(shared: &SrvShared, task: &str) -> Response {
    let txn = match open_entry(shared, task) {
        Ok((txn, _)) => txn,
        Err(message) => return Response::Err { message },
    };
    let result = shared.engine.lock().prepare(txn);
    match result {
        Ok(()) => task_done('P', 0, None, None),
        Err(e) => {
            // prepare() rolls back on an injected failure, not on a refusal.
            let _ = rollback_tolerant(shared, txn);
            close_task(shared, task, 'A');
            task_done('A', 0, None, Some(e.to_string()))
        }
    }
}

/// Settles open task `task` — commits or rolls back its transaction — and
/// closes it. Returns the status it ended in, or `None` when no such task is
/// open: never opened here, or closed already (a deadlock victim, a failed
/// vote, an earlier settle).
fn settle_task(shared: &SrvShared, task: &str, commit: bool) -> Result<Option<char>, String> {
    let Ok((txn, _)) = open_entry(shared, task) else { return Ok(None) };
    let result =
        if commit { shared.engine.lock().commit(txn) } else { rollback_tolerant(shared, txn) };
    result.map_err(|e| e.to_string())?;
    let status = if commit { 'C' } else { 'A' };
    close_task(shared, task, status);
    Ok(Some(status))
}

/// Executes one request. `format` is the wire format it arrived in — the
/// format its reply's rows are written in, and the unit a requested baseline
/// measurement is reported in.
fn handle_request(shared: &Arc<SrvShared>, req: Request, format: WireFormat) -> Response {
    match req {
        Request::Exec { task, commands } => exec_task(shared, &task, &commands, format),
        Request::Prepare { task } => prepare_task(shared, &task),
        // Open → run; `NOCOMMIT` then prepares, `HOLD` leaves the task open
        // and replies as `EXEC` does. Either way a task whose commands fail
        // is rolled back and closed, so an `A` means nothing is open under
        // the name — a refusal included: the name is someone else's.
        Request::Task {
            name,
            mode: mode @ (TaskMode::NoCommit | TaskMode::Hold),
            database,
            commands,
        } => {
            let engine = shared.engine.lock();
            if !engine.profile.supports_2pc {
                let refusal =
                    format!("service `{}` supports automatic commit only", engine.service_name);
                return task_done('A', 0, None, Some(refusal));
            }
            drop(engine);
            if let Err(refusal) = open_task(shared, &name, &database) {
                return task_done('A', 0, None, Some(refusal));
            }
            match exec_task(shared, &name, &commands, format) {
                Response::TaskDone { status: 'E', affected, payload, .. }
                    if mode == TaskMode::NoCommit =>
                {
                    match prepare_task(shared, &name) {
                        Response::TaskDone { status: 'P', .. } => {
                            task_done('P', affected, payload, None)
                        }
                        failed => failed,
                    }
                }
                Response::TaskDone { status: 'A', error, .. } => {
                    let _ = settle_task(shared, &name, false);
                    task_done('A', 0, None, error)
                }
                held => held,
            }
        }
        Request::Task { name, mode: TaskMode::Auto, database, commands } => {
            let ran = run_commands(shared, &database, &commands, None, format);
            match ran.error {
                Some(e) => task_done('A', ran.affected, None, Some(e.to_string())),
                None => {
                    // Autocommitted: already durable, so a later RESOLVE
                    // answers `C` (recovery undoes such tasks via
                    // compensation, never by rollback).
                    shared.state.lock().resolved.insert(name, 'C');
                    task_done('C', ran.affected, ran.payload, None)
                }
            }
        }
        Request::Commit { task } => match settle_task(shared, &task, true) {
            Ok(Some(_)) => Response::Ok,
            Ok(None) => Response::Err { message: format!("unknown prepared task `{task}`") },
            Err(message) => Response::Err { message },
        },
        // Presumed abort: a task that is not open may be gone because its
        // transaction was rolled back as a deadlock victim — the
        // coordinator's abort sweep must succeed idempotently.
        Request::Abort { task } => match settle_task(shared, &task, false) {
            Ok(_) => Response::Ok,
            Err(message) => Response::Err { message },
        },
        // Recovery's `RESOLVE`: settle an in-doubt task per the coordinator's
        // replayed decision, answering from local state so the reply is
        // truthful even when the first settle round already ran: a task
        // settled before (by the pre-crash coordinator, an earlier recovery
        // pass, or autocommit) answers its recorded outcome, one never
        // prepared here (or aborted locally) is presumed aborted.
        Request::Resolve { task, commit } => {
            let recorded = shared.state.lock().resolved.get(&task).copied();
            let settled = match recorded {
                Some(status) => Ok(Some(status)),
                None => settle_task(shared, &task, commit),
            };
            match settled {
                Ok(status) => task_done(status.unwrap_or('A'), 0, None, None),
                Err(message) => Response::Err { message },
            }
        }
        Request::Compensate { task, database, commands } => {
            // Idempotent: a recovery pass re-sending COMPENSATE (under a
            // fresh correlation id, so the reply cache cannot dedup it)
            // must not apply the compensation twice. The 'K' record is
            // claimed *before* executing so a concurrent duplicate skips
            // instead of double-applying; a failure revokes the claim.
            {
                let mut state = shared.state.lock();
                if state.resolved.get(&task) == Some(&'K') {
                    return Response::Ok;
                }
                state.resolved.insert(task.clone(), 'K');
            }
            match run_commands(shared, &database, &commands, None, format).error {
                None => Response::Ok,
                Some(e) => {
                    shared.state.lock().resolved.remove(&task);
                    Response::Err { message: e.to_string() }
                }
            }
        }
        Request::PartialAgg { database, sql, baseline } => {
            let (baseline, rows) = (baseline.as_deref(), format.row_writer());
            let sub =
                run_subquery(&mut shared.engine.lock(), &database, &sql, baseline, format, rows);
            match sub {
                Ok(sub) => Response::PartialAggDone {
                    groups: sub.rows.count() as u64,
                    payload: Some(sub.rows.into_payload()),
                    error: None,
                    full_rows: sub.full_rows,
                    full_bytes: sub.full_bytes,
                },
                Err(e) => Response::PartialAggDone {
                    payload: None,
                    error: Some(e),
                    groups: 0,
                    full_rows: 0,
                    full_bytes: 0,
                },
            }
        }
        Request::Schema { database } => {
            let engine = shared.engine.lock();
            match local_conceptual_schema(&engine, &database) {
                Ok(tables) => Response::OkPayload { payload: wire::encode_schema(&tables) },
                Err(e) => Response::Err { message: e.to_string() },
            }
        }
        Request::Stats { database, table } => {
            let engine = shared.engine.lock();
            match site_statistics(&engine, &database, table.as_deref()) {
                Ok(tables) => Response::OkPayload { payload: wire::encode_stats(&tables) },
                Err(e) => Response::Err { message: e.to_string() },
            }
        }
        // Join frames meet in the stash before anything runs (`serve`).
        Request::Combine { .. } | Request::Ship { .. } | Request::Part { .. } => {
            Response::Err { message: "join frame outside the serve loop".to_string() }
        }
        // Sent by no client: a classic partial travels LAM to LAM, and the
        // coordinator's temporaries are `COMBINE`'s own. Still decodable
        // until ROADMAP 1(b), because fedbench frames them.
        unserved @ (Request::Partial { .. }
        | Request::LoadMany { .. }
        | Request::DropMany { .. }) => {
            let text = unserved.encode();
            let name = text.split_whitespace().next().unwrap_or_default();
            Response::Err { message: format!("{name} is not served: no client sends it") }
        }
        Request::Ping => Response::Ok,
        Request::Shutdown => Response::Ok,
    }
}

/// What one site subquery of a join produced: its rows in the sink it ran
/// into.
struct Subquery<R> {
    rows: R,
    /// Access path the engine took for the shipped subquery.
    access: Option<String>,
    /// Row and payload-byte volume of the baseline (0 when not asked for).
    full_rows: u64,
    full_bytes: u64,
}

/// Evaluates one site subquery of a cross-database join — reduced by a
/// semi-join filter, pre-aggregated or top-k-limited, the LAM does not care.
/// `baseline`, sent only by `EXPLAIN`, is the subquery the classic plan would
/// have shipped: it is sized in `format` by a counting writer, and never
/// shipped. A baseline failure only zeroes the measurement; it must not fail
/// a request whose real subquery succeeded.
fn run_subquery<S: RowSink>(
    engine: &mut Engine,
    database: &str,
    sql: &str,
    baseline: Option<&str>,
    format: WireFormat,
    sink: S,
) -> Result<Subquery<S>, String> {
    // Autocommit SELECTs read a snapshot and never block on locks, so the
    // caller holds the engine only for the statements themselves.
    let rows = match engine.execute_with(database, sql, sink) {
        Ok(ExecOutcome::Rows(rows)) => rows,
        Ok(ExecOutcome::Affected(_)) => return Err("subquery did not produce rows".to_string()),
        Err(e) => return Err(e.to_string()),
    };
    // Read before the baseline run below can overwrite it.
    let access = engine.last_access().map(str::to_string);
    let (full_rows, full_bytes) =
        match baseline.map(|b| engine.execute_with(database, b, format.row_counter())) {
            Some(Ok(ExecOutcome::Rows(sized))) => (sized.count() as u64, sized.wire_len() as u64),
            _ => (0, 0),
        };
    Ok(Subquery { rows, access, full_rows, full_bytes })
}

/// Serves one `SHIP`: evaluates the subquery and sends its rows — or its
/// error — straight to the coordinator's LAM as a `PART`, in the format the
/// `SHIP` arrived in. Answers the sender only when asked to echo the rows.
/// A resent `SHIP` (its `COMBINE` timed out) runs again: it is a snapshot
/// read, and the coordinator drops a part that comes too late.
fn ship(shared: &SrvShared, ship: Shipped, format: WireFormat) -> Option<Response> {
    let Shipped { key, to, database, sql, baseline, echo } = ship;
    let (baseline, rows) = (baseline.as_deref(), format.row_writer());
    let sub = run_subquery(&mut shared.engine.lock(), &database, &sql, baseline, format, rows);
    let (rows, access, error, full_rows, full_bytes) = match sub {
        Ok(sub) => (Some(sub.rows.into_payload()), sub.access, None, sub.full_rows, sub.full_bytes),
        Err(e) => (None, None, Some(e), 0, 0),
    };
    let echoed = echo.then(|| Response::PartialDone {
        payload: rows.clone(),
        error: error.clone(),
        full_rows,
        full_bytes,
        access: access.clone(),
    });
    let part = proto::Request::Part { key, database, payload: rows, access, error, full_bytes };
    // A lost part is the coordinator's timeout, and its client resends.
    let _ = shared.endpoint.send(&to, codec::frame_request(format, None, &part));
    echoed
}

/// Files a join frame under `key` and, once the `COMBINE` and every part it
/// names are in, runs the combine: returned when the `COMBINE` itself
/// completed the set, else sent from here to whoever sent the `COMBINE`. A
/// part for a `COMBINE` that ran, or is running, is a late copy and dropped.
/// A `COMBINE` that must wait leaves the inflight set, so its client's resend
/// is filed again rather than dropped.
fn gather(shared: &Arc<SrvShared>, key: u64, frame: Frame) -> Option<Response> {
    let mut state = shared.state.lock();
    let combine = match &frame {
        Frame::Combine(waiting) => Some(waiting.asked.clone()),
        // A part comes from another LAM: its `COMBINE` is known by id alone.
        Frame::Part(..) if state.ran.get(&key).is_some() => return None,
        Frame::Part(..) => None,
    };
    if state.stash.get(&key).is_none() {
        state.stash.insert(key, Stash::default());
    }
    let stash = state.stash.get_mut(&key).expect("filed above");
    match frame {
        Frame::Combine(waiting) => stash.combine = Some(waiting),
        Frame::Part(database, arrived) => {
            stash.parts.insert(database, arrived);
        }
    }
    let complete = stash
        .combine
        .as_ref()
        .is_some_and(|w| w.spec.parts.iter().all(|db| stash.parts.contains_key(db)));
    if !complete {
        if let Some(asked) = &combine {
            state.inflight.remove(asked);
        }
        return None;
    }
    let Stash { combine: waiting, parts } = state.stash.remove(&key).expect("filed above");
    state.ran.insert(key, ());
    let Waiting { asked, format, spec } = waiting.expect("complete");
    state.inflight.insert(asked.clone());
    drop(state);
    let response = run_combine(shared, spec, parts, format);
    if combine.is_some() {
        return Some(response);
    }
    reply(shared, &asked.0, Some(asked.1), response, format);
    None
}

/// Serves one complete `COMBINE` (§4.1's "partial results are collected in
/// one database, acting as the coordinator", in one exchange). A part that
/// carries its site's error fails the join before anything runs here, and
/// the reply says which.
fn run_combine(
    shared: &SrvShared,
    spec: CombineSpec,
    mut arrived: HashMap<String, Arrived>,
    format: WireFormat,
) -> Response {
    let (mut reports, mut parts) = (Vec::new(), Vec::new());
    for database in &spec.parts {
        let Some(part) = arrived.remove(database) else {
            return Response::Err { message: format!("no part from `{database}` arrived") };
        };
        let saved = part.full_bytes.saturating_sub(part.bytes as u64);
        reports.push(PartDone {
            rows: part.payload.as_ref().map_or(0, |rows| rows.rows.len() as u64),
            bytes: part.bytes as u64,
            access: part.access,
            error: part.error,
            saved: if part.full_bytes > 0 { saved } else { 0 },
        });
        parts.push((database.clone(), part.payload.unwrap_or_default()));
    }
    if reports.iter().any(|r| r.error.is_some()) {
        let report = Box::new(CombineReport { edges: Vec::new(), parts: reports });
        return Response::CombineDone {
            payload: None,
            home_rows: 0,
            access: None,
            saved: 0,
            report,
        };
    }
    match combine(&mut shared.engine.lock(), &spec, parts, format) {
        Ok(Response::CombineDone { payload, home_rows, access, saved, mut report }) => {
            report.parts = reports;
            Response::CombineDone { payload, home_rows, access, saved, report }
        }
        Ok(other) => other,
        Err(message) => Response::Err { message },
    }
}

/// The home subquery as it runs: reduced by the reducer's keys along every
/// edge whose rule ships them — the planner's own
/// [`ReductionEdge::keys`] / [`ReductionEdge::ships`] / [`ReductionEdge::filter`],
/// applied to the rows that arrived — or `None` when no edge ships; plus
/// the edges' verdicts.
fn reduce_home(
    home: &str,
    edges: &[HomeEdge],
    parts: &[(String, ResultSet)],
) -> Result<(Option<String>, Verdicts), String> {
    if edges.is_empty() {
        return Ok((None, Vec::new()));
    }
    let select = msql_lang::Parser::new(home).and_then(|mut p| p.parse_select());
    let select = select.map_err(|e| e.to_string())?;
    let (mut filters, mut done) = (Vec::new(), Vec::new());
    for e in edges {
        let edge = ReductionEdge {
            key_column: &e.key_column,
            target: 0,
            select: &select,
            binding: &e.binding,
            column: &e.column,
            rule: e.rule,
        };
        let rows = parts.iter().find(|(database, _)| *database == e.reducer);
        match rows.and_then(|(_, rows)| edge.keys(rows)) {
            Some(keys) if edge.ships(&keys) => {
                done.push((keys.len() as u64, true));
                filters.push(edge.filter(&keys));
            }
            keys => done.push((keys.map_or(0, |keys| keys.len() as u64), false)),
        }
    }
    Ok(((!filters.is_empty()).then(|| and_filters(&select, filters)), done))
}

/// The combine itself: the home subquery is evaluated and materialised in
/// place — a local copy; its rows cross no network — beside the partials
/// that travelled, Q′ runs over the temporaries, and every one of them is
/// gone again before the reply. The caller holds the engine throughout
/// (every statement here is a snapshot read, so nothing waits for a lock):
/// no other request sees a temporary, and none outlives this one — `Err` or
/// not.
fn combine(
    engine: &mut Engine,
    spec: &CombineSpec,
    parts: Vec<(String, ResultSet)>,
    format: WireFormat,
) -> Result<Response, String> {
    let database = spec.database.as_str();
    let (reduced, edges) = match &spec.home {
        Some(home) => reduce_home(home, &spec.edges, &parts)?,
        None => (None, Vec::new()),
    };
    let mut temps = Vec::with_capacity(parts.len() + 1);
    for (table, rows) in parts {
        temps.push(Table::temporary(&part_table(&table), rows).map_err(|e| e.to_string())?);
    }
    let (mut home_rows, mut access, mut saved) = (0, None, 0);
    if let Some(home) = &spec.home {
        let baseline = (spec.measure && reduced.is_some()).then_some(home.as_str());
        let sql = reduced.as_deref().unwrap_or(home);
        let sub = run_subquery(engine, database, sql, baseline, format, ResultSet::default())?;
        home_rows = sub.rows.rows.len() as u64;
        access = sub.access;
        if sub.full_bytes > 0 {
            saved = sub.full_bytes.saturating_sub(format.payload_len(&sub.rows) as u64);
        }
        temps.push(Table::temporary(&part_table(database), sub.rows).map_err(|e| e.to_string())?);
    }
    let names: Vec<String> = temps.iter().map(|t| t.schema.name.clone()).collect();
    install_temps(engine, database, temps)?;
    let result = engine.execute_with(database, &spec.sql, format.row_writer());
    drop_temps(engine, database, &names)?;
    match result {
        Ok(ExecOutcome::Rows(rows)) => Ok(Response::CombineDone {
            payload: Some(rows.into_payload()),
            home_rows,
            access,
            saved,
            report: Box::new(CombineReport { edges, parts: Vec::new() }),
        }),
        Ok(ExecOutcome::Affected(_)) => Err("global query did not produce rows".to_string()),
        Err(e) => Err(e.to_string()),
    }
}

/// Puts `temps` into `database`, all or none. The site is autonomous: a
/// temporary may replace only what an earlier temporary left behind (a
/// non-exported table), never a table the local DBA exports under that name.
fn install_temps(engine: &mut Engine, database: &str, temps: Vec<Table>) -> Result<(), String> {
    let db = engine.database_mut(database).map_err(|e| e.to_string())?;
    if let Some(t) = temps.iter().find(|t| db.table(&t.schema.name).is_ok_and(|t| t.schema.public))
    {
        return Err(format!(
            "temporary `{}` would replace an exported table of `{database}`",
            t.schema.name
        ));
    }
    temps.into_iter().for_each(|t| db.insert_table(t));
    Ok(())
}

/// Removes temporaries from `database`; one that is not there is not an
/// error, and an exported table of the same name is not a temporary.
fn drop_temps(engine: &mut Engine, database: &str, tables: &[String]) -> Result<(), String> {
    let db = engine.database_mut(database).map_err(|e| e.to_string())?;
    for table in tables {
        if db.table(table).is_ok_and(|t| !t.schema.public) {
            let _ = db.remove_table(table);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::RowsResponse as Response;
    use ldbs::profile::DbmsProfile;
    use ldbs::value::Value;

    #[test]
    fn fifo_map_is_bounded_and_evicts_oldest_first() {
        let mut mem = Fifo::new(4);
        for i in 0..100 {
            mem.insert(format!("t{i}"), 'C');
        }
        assert_eq!(mem.entries.len(), 4);
        // Oldest entries evicted, newest retained.
        let get = |mem: &Fifo<String, char>, key: &str| mem.get(&key.to_string()).copied();
        assert_eq!(get(&mem, "t96"), Some('C'));
        assert_eq!(get(&mem, "t99"), Some('C'));
        assert_eq!(get(&mem, "t0"), None);
        // Re-inserting an existing key updates in place without growth.
        mem.insert("t99".to_string(), 'A');
        assert_eq!(mem.entries.len(), 4);
        assert_eq!(get(&mem, "t99"), Some('A'));
        mem.remove(&"t99".to_string());
        assert_eq!(get(&mem, "t99"), None);
        assert_eq!(mem.entries.len(), 3);
        // The reply cache is the same map keyed by sender and correlation id.
        let mut replies: Fifo<ReplyKey, Body> = Fifo::new(2);
        let asked = |id: u64| -> ReplyKey { ("client".into(), id) };
        replies.insert(asked(1), "a".into());
        replies.insert(asked(2), "b".into());
        replies.insert(asked(3), "c".into());
        assert_eq!(replies.get(&asked(1)), None, "oldest evicted");
        assert_eq!(replies.get(&asked(2)), Some(&"b".into()));
        assert_eq!(replies.get(&asked(3)), Some(&"c".into()));
    }

    fn setup() -> (Network, LamHandle, netsim::Endpoint) {
        let net = Network::new();
        let mut engine = Engine::new("svc", DbmsProfile::oracle_like());
        engine.create_database("avis").unwrap();
        engine.execute("avis", "CREATE TABLE cars (code INT, rate FLOAT, carst CHAR(10))").unwrap();
        engine.execute("avis", "INSERT INTO cars VALUES (1, 40.0, 'available')").unwrap();
        engine.execute("avis", "INSERT INTO cars VALUES (2, 60.0, 'rented')").unwrap();
        let lam = spawn_lam(&net, "svc", "site1", engine).unwrap();
        let client = net.register("engine").unwrap();
        (net, lam, client)
    }

    fn call(client: &netsim::Endpoint, req: Request) -> Response {
        client.send("site1", req.encode()).unwrap();
        let msg = client.recv().unwrap();
        Response::decode_as(msg.body.as_str()).unwrap().0
    }

    #[test]
    fn ping_and_shutdown() {
        let (_net, lam, client) = setup();
        assert_eq!(call(&client, Request::Ping), Response::Ok);
        lam.shutdown();
    }

    #[test]
    fn auto_task_selects() {
        let (_net, _lam, client) = setup();
        let resp = call(
            &client,
            Request::Task {
                name: "Q1".into(),
                mode: TaskMode::Auto,
                database: "avis".into(),
                commands: vec!["SELECT code FROM cars WHERE carst = 'available'".into()],
            },
        );
        let Response::TaskDone { status: 'C', payload: Some(rs), .. } = resp else {
            panic!("{resp:?}");
        };
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn nocommit_task_prepares_then_commits() {
        let (_net, lam, client) = setup();
        let resp = call(
            &client,
            Request::Task {
                name: "T1".into(),
                mode: TaskMode::NoCommit,
                database: "avis".into(),
                commands: vec!["UPDATE cars SET rate = 99 WHERE code = 1".into()],
            },
        );
        let Response::TaskDone { status: 'P', affected: 1, .. } = resp else { panic!("{resp:?}") };
        assert_eq!(call(&client, Request::Commit { task: "T1".into() }), Response::Ok);
        let rate = {
            let mut e = lam.engine.lock();
            e.execute("avis", "SELECT rate FROM cars WHERE code = 1")
                .unwrap()
                .into_result_set()
                .unwrap()
                .rows[0][0]
                .clone()
        };
        assert_eq!(rate, ldbs::value::Value::Float(99.0));
    }

    #[test]
    fn nocommit_task_abort_restores() {
        let (_net, lam, client) = setup();
        call(
            &client,
            Request::Task {
                name: "T1".into(),
                mode: TaskMode::NoCommit,
                database: "avis".into(),
                commands: vec!["UPDATE cars SET rate = 99".into()],
            },
        );
        assert_eq!(call(&client, Request::Abort { task: "T1".into() }), Response::Ok);
        let rate = {
            let mut e = lam.engine.lock();
            e.execute("avis", "SELECT rate FROM cars WHERE code = 1")
                .unwrap()
                .into_result_set()
                .unwrap()
                .rows[0][0]
                .clone()
        };
        assert_eq!(rate, ldbs::value::Value::Float(40.0));
    }

    /// Two coordinators that both call a subtransaction `T1`, on different
    /// tables of one database. Replacing the open `T1` handed the first
    /// `COMMIT T1` the second client's transaction and left the first
    /// prepared, with its lock, for good.
    #[test]
    fn an_open_name_is_refused_not_replaced() {
        let net = Network::new();
        let mut engine = Engine::new("svc", DbmsProfile::oracle_like());
        engine.create_database("continental").unwrap();
        for sql in [
            "CREATE TABLE flights (flnu INT, rate FLOAT)",
            "CREATE TABLE f838 (seatnu INT, seatstatus CHAR(10))",
            "INSERT INTO flights VALUES (1, 100.0)",
            "INSERT INTO f838 VALUES (1, 'FREE')",
        ] {
            engine.execute("continental", sql).unwrap();
        }
        let lam = spawn_lam(&net, "svc", "site1", engine).unwrap();
        let (a, b) =
            (Peer::new(&net, "a", WireFormat::Text), Peer::new(&net, "b", WireFormat::Text));
        let t1 = |sql: &str| Request::Task {
            name: "T1".into(),
            mode: TaskMode::NoCommit,
            database: "continental".into(),
            commands: vec![sql.into()],
        };
        let take_seat = t1("UPDATE f838 SET seatstatus = 'TAKEN' WHERE seatnu = 1");
        let value = |sql: &str| {
            let rs = lam.engine.lock().execute("continental", sql).unwrap();
            rs.into_result_set().unwrap().rows[0][0].clone()
        };

        let first = a.call(1, &t1("UPDATE flights SET rate = 1 WHERE flnu = 1"));
        assert!(matches!(first, Response::TaskDone { status: 'P', .. }), "{first:?}");
        let begun = lam.engine.lock().stats().statements;
        let Response::TaskDone { status: 'A', affected: 0, error: Some(refusal), .. } =
            b.call(2, &take_seat)
        else {
            panic!("an open name must be refused")
        };
        assert!(refusal.contains("`T1`"), "{refusal}");
        assert_eq!(lam.engine.lock().stats().statements, begun, "nothing ran");
        assert_eq!(lam.engine.lock().prepared_txns().len(), 1, "the open T1 is untouched");

        // The one COMMIT T1 commits the transaction T1 names: the first.
        assert_eq!(a.call(3, &Request::Commit { task: "T1".into() }), Response::Ok);
        assert_eq!(value("SELECT rate FROM flights WHERE flnu = 1"), Value::Float(1.0));
        assert_eq!(
            value("SELECT seatstatus FROM f838 WHERE seatnu = 1"),
            Value::Str("FREE".into())
        );
        assert!(lam.engine.lock().prepared_txns().is_empty());
        assert_eq!(lam.engine.lock().held_locks(), 0);

        // Settled, the name is free again.
        let retried = b.call(4, &take_seat);
        assert!(matches!(retried, Response::TaskDone { status: 'P', affected: 1, .. }));
        assert_eq!(b.call(5, &Request::Abort { task: "T1".into() }), Response::Ok);
        assert_eq!(lam.engine.lock().held_locks(), 0);
    }

    /// `TASK … HOLD` is `BEGIN` and the first `EXEC` in one request: the task
    /// stays open for `EXEC` and `PREPARE`. One whose commands fail is rolled
    /// back and closed, so a later `EXEC` is refused, never a fresh begin.
    #[test]
    fn a_hold_task_stays_open_until_it_is_settled() {
        let (_net, lam, client) = setup();
        let hold = |name: &str, sql: &str| Request::Task {
            name: name.into(),
            mode: TaskMode::Hold,
            database: "avis".into(),
            commands: vec![sql.into()],
        };
        let exec =
            |name: &str, sql: &str| Request::Exec { task: name.into(), commands: vec![sql.into()] };
        let held = call(&client, hold("G1", "UPDATE cars SET rate = 99 WHERE code = 1"));
        assert!(matches!(held, Response::TaskDone { status: 'E', affected: 1, .. }), "{held:?}");
        assert!(lam.engine.lock().prepared_txns().is_empty(), "held, not prepared");
        let again = call(&client, exec("G1", "UPDATE cars SET rate = rate + 1 WHERE code = 1"));
        assert!(matches!(again, Response::TaskDone { status: 'E', affected: 1, .. }), "{again:?}");
        let refused = call(&client, hold("G1", "UPDATE cars SET rate = 0"));
        assert!(matches!(refused, Response::TaskDone { status: 'A', affected: 0, .. }));
        let voted = call(&client, Request::Prepare { task: "G1".into() });
        assert!(matches!(voted, Response::TaskDone { status: 'P', .. }), "{voted:?}");
        assert_eq!(call(&client, Request::Commit { task: "G1".into() }), Response::Ok);
        let rate = lam.engine.lock().execute("avis", "SELECT rate FROM cars WHERE code = 1");
        let rate = rate.unwrap().into_result_set().unwrap().rows[0][0].clone();
        assert_eq!(rate, ldbs::value::Value::Float(100.0));

        let failed = call(&client, hold("G2", "UPDATE cars SET nonexistent = 1"));
        assert!(matches!(failed, Response::TaskDone { status: 'A', .. }), "{failed:?}");
        assert_eq!(lam.engine.lock().held_locks(), 0);
        let after = call(&client, exec("G2", "UPDATE cars SET rate = 1"));
        assert!(matches!(after, Response::Err { .. }), "{after:?}");
    }

    #[test]
    fn failing_command_reports_abort_status() {
        let (_net, _lam, client) = setup();
        let resp = call(
            &client,
            Request::Task {
                name: "T1".into(),
                mode: TaskMode::NoCommit,
                database: "avis".into(),
                commands: vec!["UPDATE cars SET nonexistent = 1".into()],
            },
        );
        let Response::TaskDone { status: 'A', error: Some(e), .. } = resp else {
            panic!("{resp:?}")
        };
        assert!(e.contains("nonexistent"));
    }

    #[test]
    fn schema_request_returns_public_lcs() {
        let (_net, _lam, client) = setup();
        let resp = call(&client, Request::Schema { database: "avis".into() });
        let Response::OkPayload { payload } = resp else { panic!("{resp:?}") };
        let tables = wire::decode_schema(&payload).unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].name, "cars");
        assert_eq!(tables[0].columns.len(), 3);
    }

    #[test]
    fn partial_loadmany_and_dropmany_are_refused_and_change_nothing() {
        let (_net, lam, client) = setup();
        let tables = || lam.engine.lock().database("avis").unwrap().table_names();
        let before = tables();
        let refusal = |body: &str, name: &str| {
            let Response::Err { message } = Response::decode_as(body).unwrap().0 else {
                panic!("{name} was served: {body}")
            };
            assert!(message.starts_with(name), "{message}");
        };
        // A hand-written text client: LOADMANY's rows decode, and go nowhere.
        let payload = "COLS x:int|y:char(0)\nR I:7|S:hello\n";
        client
            .send("site1", format!("LOADMANY avis\npart_t {}\n{payload}", payload.len()))
            .unwrap();
        refusal(client.recv().unwrap().body.as_str(), "LOADMANY");
        let drop = Request::DropMany { database: "avis".into(), tables: vec!["cars".into()] };
        client.send("site1", drop.encode()).unwrap();
        refusal(client.recv().unwrap().body.as_str(), "DROPMANY");
        let partial = Request::Partial {
            database: "avis".into(),
            sql: "SELECT code FROM cars".into(),
            baseline: None,
        };
        client.send("site1", partial.encode()).unwrap();
        refusal(client.recv().unwrap().body.as_str(), "PARTIAL");
        assert_eq!(tables(), before, "nothing installed, nothing dropped");
        let resp = call(
            &client,
            Request::Task {
                name: "Q".into(),
                mode: TaskMode::Auto,
                database: "avis".into(),
                commands: vec!["SELECT code FROM cars".into()],
            },
        );
        let Response::TaskDone { payload: Some(rs), .. } = resp else { panic!("{resp:?}") };
        assert_eq!(rs.rows.len(), 2, "the table the DROPMANY named is intact");
        // The retired single-table requests are refused too.
        client.send("site1", format!("LOAD avis part_t\n{payload}")).unwrap();
        let refused = client.recv().unwrap();
        assert!(refused.body.as_str().starts_with("ERR "), "{:?}", refused.body);
    }

    #[test]
    fn partialagg_ships_reduced_rows_and_measures_baseline() {
        let (_net, _lam, client) = setup();
        let resp = call(
            &client,
            Request::PartialAgg {
                database: "avis".into(),
                sql: "SELECT code FROM cars WHERE code IN (1)".into(),
                baseline: Some("SELECT code FROM cars".into()),
            },
        );
        let Response::PartialAggDone {
            payload: Some(rs),
            error: None,
            groups,
            full_rows,
            full_bytes,
        } = resp
        else {
            panic!("{resp:?}")
        };
        assert_eq!((rs.rows.len(), groups), (1, 1), "reduced result ships one row");
        assert_eq!(full_rows, 2, "baseline measured both rows");
        assert!(
            full_bytes as usize > WireFormat::Text.payload_len(&rs),
            "baseline payload is larger"
        );
    }

    #[test]
    fn partialagg_error_and_bad_baseline_are_benign() {
        let (_net, _lam, client) = setup();
        let resp = call(
            &client,
            Request::PartialAgg {
                database: "avis".into(),
                sql: "SELECT nope FROM cars".into(),
                baseline: None,
            },
        );
        let Response::PartialAggDone { payload: None, error: Some(e), .. } = resp else {
            panic!("{resp:?}")
        };
        assert!(e.contains("nope"));
        // A failing baseline zeroes the measurement but does not fail the
        // request.
        let resp = call(
            &client,
            Request::PartialAgg {
                database: "avis".into(),
                sql: "SELECT code FROM cars".into(),
                baseline: Some("SELECT nope FROM cars".into()),
            },
        );
        let Response::PartialAggDone {
            payload: Some(_),
            error: None,
            full_rows: 0,
            full_bytes: 0,
            ..
        } = resp
        else {
            panic!("{resp:?}")
        };
    }

    /// Two LAMs of a join: avis (site1, the `setup` LAM) ships its cars to
    /// continental (site2), which coordinates. Whichever of the `COMBINE`
    /// and the `PART` reaches continental first waits in its stash, no
    /// server thread waits for the other, and the `COMBINE`'s sender gets
    /// one answer; a late copy of the part is dropped, unanswered.
    #[test]
    fn a_combine_and_its_part_meet_in_either_order() {
        let (net, avis, client) = setup();
        let mut engine = Engine::new("svc2", DbmsProfile::oracle_like());
        engine.create_database("continental").unwrap();
        engine.execute("continental", "CREATE TABLE flights (flnu INT, rate FLOAT)").unwrap();
        engine.execute("continental", "INSERT INTO flights VALUES (7, 40.0)").unwrap();
        let continental = spawn_lam(&net, "svc2", "site2", engine).unwrap();
        let ship = |key: u64| Request::Ship {
            key,
            to: "site2".into(),
            database: "avis".into(),
            sql: "SELECT rate AS k FROM cars".into(),
            baseline: None,
            echo: false,
        };
        let combine = |key: u64| {
            let combine = Request::Combine {
                database: "continental".into(),
                home: Some("SELECT f.flnu AS n, f.rate AS r FROM flights f".into()),
                parts: vec!["avis".into()],
                edges: vec![HomeEdge {
                    reducer: "avis".into(),
                    key_column: "k".into(),
                    binding: "f".into(),
                    column: "rate".into(),
                    rule: crate::planner::EdgeRule::Cap(10),
                }],
                sql: "SELECT n FROM part_continental, part_avis WHERE r = k".into(),
                measure: false,
            };
            proto::encode_with_correlation(key, &combine.encode())
        };
        let answer = |key: u64| {
            let msg = client.recv_timeout(Duration::from_secs(5)).expect("one answer");
            let (corr, body) = proto::split_correlation(msg.body.as_str());
            assert_eq!(corr, Some(key));
            Response::decode_as(body).unwrap().0
        };
        let served = |lam: &LamHandle| lam.stats.served.load(Ordering::SeqCst);
        for (key, combine_first) in [(1u64, true), (2, false)] {
            if combine_first {
                client.send("site2", combine(key)).unwrap();
                client.send("site1", ship(key).encode()).unwrap();
            } else {
                let before = served(&continental);
                client.send("site1", ship(key).encode()).unwrap();
                while served(&continental) == before {
                    std::thread::yield_now(); // the part is filed
                }
                client.send("site2", combine(key)).unwrap();
            }
            let Response::CombineDone { payload: Some(rows), home_rows, report, .. } = answer(key)
            else {
                panic!("key {key}: no CombineDone")
            };
            let CombineReport { edges, parts } = *report;
            assert_eq!(rows.rows, vec![vec![Value::Int(7)]], "key {key}");
            assert_eq!(home_rows, 1, "key {key}: the home subquery was reduced to 40.0");
            assert_eq!(edges, vec![(2, true)], "key {key}: avis' two distinct rates");
            assert_eq!((parts[0].rows, parts[0].error.clone()), (2, None), "key {key}");
        }
        // A late copy of either join's part: filed nowhere, answered by no
        // one — the LAM remembers only that both joins ran.
        for key in [1, 2] {
            let before = served(&continental);
            client.send("site1", ship(key).encode()).unwrap();
            while served(&continental) == before {
                std::thread::yield_now();
            }
        }
        assert!(!client.has_mail(), "a late part is not answered");
        let state = continental.shared.state.lock();
        assert!(state.stash.entries.is_empty());
        assert_eq!(state.ran.entries.len(), 2);
        drop(state);
        assert_eq!(avis.shared.threads.lock().handles.len(), 1, "no thread waited");
        assert_eq!(continental.shared.threads.lock().handles.len(), 1);
    }

    #[test]
    fn compensate_runs_commands() {
        let (_net, lam, client) = setup();
        call(
            &client,
            Request::Task {
                name: "T1".into(),
                mode: TaskMode::Auto,
                database: "avis".into(),
                commands: vec!["UPDATE cars SET rate = rate * 2 WHERE code = 1".into()],
            },
        );
        let resp = call(
            &client,
            Request::Compensate {
                task: "T1".into(),
                database: "avis".into(),
                commands: vec!["UPDATE cars SET rate = rate / 2 WHERE code = 1".into()],
            },
        );
        assert_eq!(resp, Response::Ok);
        let rate = {
            let mut e = lam.engine.lock();
            e.execute("avis", "SELECT rate FROM cars WHERE code = 1")
                .unwrap()
                .into_result_set()
                .unwrap()
                .rows[0][0]
                .clone()
        };
        assert_eq!(rate, ldbs::value::Value::Float(40.0));
    }

    #[test]
    fn repeated_compensate_applies_once() {
        let (_net, lam, client) = setup();
        call(
            &client,
            Request::Task {
                name: "T1".into(),
                mode: TaskMode::Auto,
                database: "avis".into(),
                commands: vec!["UPDATE cars SET rate = rate * 2 WHERE code = 1".into()],
            },
        );
        let comp = Request::Compensate {
            task: "T1".into(),
            database: "avis".into(),
            commands: vec!["UPDATE cars SET rate = rate / 2 WHERE code = 1".into()],
        };
        // First compensation applies; a recovery pass that lost the record
        // re-sends it (fresh correlation id) and must hit the 'K' memory.
        assert_eq!(call(&client, comp.clone()), Response::Ok);
        assert_eq!(call(&client, comp), Response::Ok);
        let rate = {
            let mut e = lam.engine.lock();
            e.execute("avis", "SELECT rate FROM cars WHERE code = 1")
                .unwrap()
                .into_result_set()
                .unwrap()
                .rows[0][0]
                .clone()
        };
        assert_eq!(rate, ldbs::value::Value::Float(40.0), "halved once, not twice");
        // RESOLVE on a compensated task answers the recorded 'K'.
        let resp = call(&client, Request::Resolve { task: "T1".into(), commit: false });
        assert!(matches!(resp, Response::TaskDone { status: 'K', .. }), "{resp:?}");
    }

    #[test]
    fn resolve_commits_an_in_doubt_prepared_task() {
        let (_net, lam, client) = setup();
        call(
            &client,
            Request::Task {
                name: "T1".into(),
                mode: TaskMode::NoCommit,
                database: "avis".into(),
                commands: vec!["UPDATE cars SET rate = 99 WHERE code = 1".into()],
            },
        );
        // The coordinator "crashed"; recovery re-resolves the prepared task.
        let resp = call(&client, Request::Resolve { task: "T1".into(), commit: true });
        assert!(matches!(resp, Response::TaskDone { status: 'C', .. }), "{resp:?}");
        let rate = {
            let mut e = lam.engine.lock();
            e.execute("avis", "SELECT rate FROM cars WHERE code = 1")
                .unwrap()
                .into_result_set()
                .unwrap()
                .rows[0][0]
                .clone()
        };
        assert_eq!(rate, ldbs::value::Value::Float(99.0));
        // Re-asking answers the recorded outcome, idempotently.
        let again = call(&client, Request::Resolve { task: "T1".into(), commit: true });
        assert!(matches!(again, Response::TaskDone { status: 'C', .. }), "{again:?}");
    }

    #[test]
    fn resolve_unknown_task_is_presumed_abort() {
        let (_net, _lam, client) = setup();
        let resp = call(&client, Request::Resolve { task: "ghost".into(), commit: true });
        assert!(matches!(resp, Response::TaskDone { status: 'A', .. }), "{resp:?}");
    }

    #[test]
    fn resolve_after_normal_settle_answers_recorded_outcome() {
        let (_net, _lam, client) = setup();
        call(
            &client,
            Request::Task {
                name: "T1".into(),
                mode: TaskMode::NoCommit,
                database: "avis".into(),
                commands: vec!["UPDATE cars SET rate = 77 WHERE code = 1".into()],
            },
        );
        assert_eq!(call(&client, Request::Commit { task: "T1".into() }), Response::Ok);
        // A recovery pass that lost the coordinator's TaskResolved record
        // re-asks — and must hear `C`, not presumed abort.
        let resp = call(&client, Request::Resolve { task: "T1".into(), commit: true });
        assert!(matches!(resp, Response::TaskDone { status: 'C', .. }), "{resp:?}");
        // An autocommitted task also answers `C`.
        call(
            &client,
            Request::Task {
                name: "T2".into(),
                mode: TaskMode::Auto,
                database: "avis".into(),
                commands: vec!["UPDATE cars SET rate = 55 WHERE code = 2".into()],
            },
        );
        let resp = call(&client, Request::Resolve { task: "T2".into(), commit: true });
        assert!(matches!(resp, Response::TaskDone { status: 'C', .. }), "{resp:?}");
    }

    #[test]
    fn unknown_prepared_task_errors() {
        let (_net, _lam, client) = setup();
        let resp = call(&client, Request::Commit { task: "ghost".into() });
        assert!(matches!(resp, Response::Err { .. }));
    }

    #[test]
    fn malformed_request_gets_err_response() {
        let (_net, _lam, client) = setup();
        client.send("site1", "GARBAGE").unwrap();
        let msg = client.recv().unwrap();
        assert!(matches!(Response::decode_as(msg.body.as_str()).unwrap().0, Response::Err { .. }));
    }

    #[test]
    fn correlated_resend_is_answered_from_cache_not_re_executed() {
        let (_net, lam, client) = setup();
        let req = Request::Task {
            name: "T1".into(),
            mode: TaskMode::Auto,
            database: "avis".into(),
            commands: vec!["UPDATE cars SET rate = rate + 1 WHERE code = 1".into()],
        };
        let framed = proto::encode_with_correlation(99, &req.encode());
        client.send("site1", framed.clone()).unwrap();
        let first = client.recv().unwrap();
        // A client that lost the reply re-sends the same correlated request.
        client.send("site1", framed).unwrap();
        let second = client.recv().unwrap();
        assert_eq!(first.body, second.body, "replayed verbatim");
        assert_eq!(
            first.body.as_str().as_ptr(),
            second.body.as_str().as_ptr(),
            "the cached reply is the body sent, not a copy"
        );
        let (corr, body) = proto::split_correlation(second.body.as_str());
        assert_eq!(corr, Some(99));
        assert!(matches!(
            Response::decode_as(body).unwrap().0,
            Response::TaskDone { status: 'C', affected: 1, .. }
        ));
        // The update ran exactly once: 40.0 + 1, not + 2.
        let rate = {
            let mut e = lam.engine.lock();
            e.execute("avis", "SELECT rate FROM cars WHERE code = 1")
                .unwrap()
                .into_result_set()
                .unwrap()
                .rows[0][0]
                .clone()
        };
        assert_eq!(rate, ldbs::value::Value::Float(41.0));
    }

    #[test]
    fn one_correlation_id_from_two_senders_is_two_requests() {
        let (net, _lam, _client) = setup();
        let text = Peer::new(&net, "t", WireFormat::Text);
        let binary = Peer::new(&net, "b", WireFormat::Binary);
        let select = |column: &str| Request::Task {
            name: format!("Q_{column}"),
            mode: TaskMode::Auto,
            database: "avis".into(),
            commands: vec![format!("SELECT {column} FROM cars")],
        };
        // Each peer's `recv` checks the reply came in its own format.
        let mut asked = [(&text, "code"), (&binary, "rate")];
        for _ in 0..2 {
            for (peer, column) in asked {
                let reply = peer.call(7, &select(column));
                let Response::TaskDone { payload: Some(rows), .. } = reply else {
                    panic!("{reply:?}")
                };
                assert_eq!(rows.columns[0].name, column);
            }
            // The second round is answered from the cache, each its own.
            asked.reverse();
        }
    }

    #[test]
    fn a_correlated_reply_sent_to_a_lam_leaves_its_id_free() {
        let (net, _lam, _client) = setup();
        for format in [WireFormat::Text, WireFormat::Binary] {
            let peer = Peer::new(&net, &format!("p_{}", format.label()), format);
            let stray = codec::frame_response(format, Some(3), &Response::Ok);
            peer.endpoint.send("site1", stray).unwrap();
            assert_eq!(peer.call(3, &Request::Ping), Response::Ok, "the request is served");
        }
    }

    #[test]
    fn distinct_correlation_ids_execute_independently() {
        let (_net, lam, client) = setup();
        let req = Request::Task {
            name: "T1".into(),
            mode: TaskMode::Auto,
            database: "avis".into(),
            commands: vec!["UPDATE cars SET rate = rate + 1 WHERE code = 1".into()],
        };
        for id in [1u64, 2] {
            client.send("site1", proto::encode_with_correlation(id, &req.encode())).unwrap();
            let _ = client.recv().unwrap();
        }
        let rate = {
            let mut e = lam.engine.lock();
            e.execute("avis", "SELECT rate FROM cars WHERE code = 1")
                .unwrap()
                .into_result_set()
                .unwrap()
                .rows[0][0]
                .clone()
        };
        assert_eq!(rate, ldbs::value::Value::Float(42.0));
    }

    #[test]
    fn handle_is_alive_until_shutdown() {
        let (_net, lam, client) = setup();
        assert!(lam.is_alive());
        assert_eq!(call(&client, Request::Ping), Response::Ok);
        lam.shutdown();
    }

    /// The `setup` LAM with a lock-wait timeout no test outlasts (a server
    /// that failed to grow must fail the test, not be rescued by the
    /// timeout) and a short shutdown control round.
    fn contended_setup() -> (Network, LamHandle) {
        let net = Network::new();
        let mut engine = Engine::new("svc", DbmsProfile::oracle_like());
        engine.create_database("avis").unwrap();
        engine.execute("avis", "CREATE TABLE cars (code INT, rate FLOAT)").unwrap();
        engine.execute("avis", "INSERT INTO cars VALUES (1, 40.0)").unwrap();
        let config = LamConfig {
            lock_wait_timeout: Duration::from_secs(60),
            control_timeout: Duration::from_millis(200),
        };
        let lam = spawn_lam_with(&net, "svc", "site1", engine, config).unwrap();
        (net, lam)
    }

    /// A test client speaking one wire format, one correlated request at a
    /// time. Replies are awaited for 5 s: an unserved request fails its test.
    struct Peer {
        endpoint: netsim::Endpoint,
        format: WireFormat,
    }

    impl Peer {
        fn new(net: &Network, name: &str, format: WireFormat) -> Peer {
            Peer { endpoint: net.register(name).unwrap(), format }
        }

        fn send(&self, id: u64, req: &Request) {
            self.endpoint.send("site1", codec::frame_request(self.format, Some(id), req)).unwrap();
        }

        fn recv(&self) -> (u64, Response) {
            let msg = self.endpoint.recv_timeout(Duration::from_secs(5)).expect("request served");
            let (id, format) = codec::peek(&msg.body);
            assert_eq!(format, self.format, "answered in the request's format");
            (id.unwrap(), codec::read_response(&msg.body).unwrap().0)
        }

        fn call(&self, id: u64, req: &Request) -> Response {
            self.send(id, req);
            let (got, resp) = self.recv();
            assert_eq!(got, id);
            resp
        }

        fn silent(&self) -> bool {
            !self.endpoint.has_mail()
        }
    }

    fn bump_rate(name: &str, mode: TaskMode) -> Request {
        Request::Task {
            name: name.into(),
            mode,
            database: "avis".into(),
            commands: vec!["UPDATE cars SET rate = rate + 1 WHERE code = 1".into()],
        }
    }

    fn rate(lam: &LamHandle) -> Value {
        let mut e = lam.engine.lock();
        let rs = e.execute("avis", "SELECT rate FROM cars WHERE code = 1").unwrap();
        rs.into_result_set().unwrap().rows[0][0].clone()
    }

    fn threads(lam: &LamHandle) -> u64 {
        lam.stats.server_threads.load(Ordering::Relaxed)
    }

    #[test]
    fn the_lock_holders_commit_is_served_while_a_waiter_is_parked() {
        for format in [WireFormat::Text, WireFormat::Binary] {
            let (net, lam) = contended_setup();
            let (a, b) = (Peer::new(&net, "a", format), Peer::new(&net, "b", format));
            let held = a.call(1, &bump_rate("TA", TaskMode::NoCommit));
            assert!(matches!(held, Response::TaskDone { status: 'P', .. }), "{held:?}");
            assert_eq!(threads(&lam), 1, "an uncontended LAM is one thread");
            // B's task needs A's lock: it parks. A's COMMIT is queued behind
            // it — only a second server thread can serve it, and only it can
            // release B.
            b.send(2, &bump_rate("TB", TaskMode::Auto));
            assert_eq!(a.call(3, &Request::Commit { task: "TA".into() }), Response::Ok);
            let (id, done) = b.recv();
            assert!(
                id == 2 && matches!(done, Response::TaskDone { status: 'C', affected: 1, .. }),
                "{done:?}"
            );
            assert_eq!(rate(&lam), Value::Float(42.0));
            assert_eq!(threads(&lam), 2, "grown by the one parked request");
            // Both threads stay: the next contention starts none.
            a.call(4, &bump_rate("TA2", TaskMode::NoCommit));
            b.send(5, &bump_rate("TB2", TaskMode::Auto));
            assert_eq!(a.call(6, &Request::Commit { task: "TA2".into() }), Response::Ok);
            b.recv();
            assert_eq!(threads(&lam), 2);
        }
    }

    #[test]
    fn three_parked_waiters_leave_a_thread_to_answer_ping() {
        for format in [WireFormat::Text, WireFormat::Binary] {
            let (net, lam) = contended_setup();
            let a = Peer::new(&net, "a", format);
            a.call(1, &bump_rate("TA", TaskMode::NoCommit));
            let waiters: Vec<Peer> =
                (0..3).map(|i| Peer::new(&net, &format!("w{i}"), format)).collect();
            for (i, w) in waiters.iter().enumerate() {
                w.send(10 + i as u64, &bump_rate(&format!("TW{i}"), TaskMode::Auto));
            }
            assert_eq!(a.call(2, &Request::Ping), Response::Ok);
            assert_eq!(threads(&lam), 4, "1 + the three requests parked at once");
            assert!(waiters.iter().all(Peer::silent), "nobody gets the lock before A commits");
            assert_eq!(a.call(3, &Request::Commit { task: "TA".into() }), Response::Ok);
            for w in &waiters {
                let (_, done) = w.recv();
                assert!(matches!(done, Response::TaskDone { status: 'C', .. }), "{done:?}");
            }
            assert_eq!(rate(&lam), Value::Float(44.0));
        }
    }

    #[test]
    fn a_parked_requests_retry_is_dropped_and_a_finished_ones_replayed() {
        for format in [WireFormat::Text, WireFormat::Binary] {
            let (net, lam) = contended_setup();
            let (a, b) = (Peer::new(&net, "a", format), Peer::new(&net, "b", format));
            a.call(1, &bump_rate("TA", TaskMode::NoCommit));
            let task = bump_rate("TB", TaskMode::Auto);
            b.send(7, &task);
            // The retry finds the original inflight (parked): dropped. The
            // PING queued behind it is answered, so it was looked at.
            b.send(7, &task);
            assert_eq!(b.call(8, &Request::Ping), Response::Ok);
            assert!(b.silent());
            assert_eq!(a.call(2, &Request::Commit { task: "TA".into() }), Response::Ok);
            let (id, first) = b.recv();
            assert!(
                id == 7 && matches!(first, Response::TaskDone { status: 'C', .. }),
                "{first:?}"
            );
            // Finished: the same retry is now answered from the cache.
            assert_eq!(b.call(7, &task), first);
            assert_eq!(rate(&lam), Value::Float(42.0), "A's and B's update, once each");
            let served = lam.stats.served.load(Ordering::Relaxed);
            let replayed = lam.stats.replayed.load(Ordering::Relaxed);
            assert_eq!((served, replayed), (4, 1), "TA, TB, PING, COMMIT executed; one replay");
        }
    }

    #[test]
    fn shutdown_is_prompt_idle_busy_parked_or_dead() {
        let prompt = |what: &str, lam: LamHandle| {
            let start = Instant::now();
            lam.shutdown();
            assert!(start.elapsed() < Duration::from_secs(2), "{what}: {:?}", start.elapsed());
        };
        // Idle: the one thread acknowledges the control message.
        let (_net, lam) = contended_setup();
        prompt("idle", lam);

        // Dead: the site was taken off the network under the LAM.
        let (net, lam) = contended_setup();
        net.deregister("site1");
        prompt("dead", lam);

        // Parked: a request sits in a lock wait that would last a minute.
        let (net, lam) = contended_setup();
        let (a, b) =
            (Peer::new(&net, "a", WireFormat::Text), Peer::new(&net, "b", WireFormat::Text));
        a.call(1, &bump_rate("TA", TaskMode::NoCommit));
        b.send(2, &bump_rate("TB", TaskMode::Auto));
        assert_eq!(a.call(3, &Request::Ping), Response::Ok); // B's request is being served
        prompt("parked", lam);
        let (_, gave_up) = b.recv();
        assert!(matches!(gave_up, Response::TaskDone { status: 'A', .. }), "{gave_up:?}");

        // Busy: the only thread is inside a request (held up on the engine)
        // and cannot acknowledge; shutdown takes the site down after the
        // control round and returns as soon as that request is done.
        let (net, mut lam) = contended_setup();
        let a = Peer::new(&net, "a", WireFormat::Text);
        let engine = Arc::clone(&lam.engine);
        let busy = engine.lock();
        a.send(1, &bump_rate("TA", TaskMode::Auto));
        let stopper = std::thread::spawn(move || {
            lam.do_shutdown();
            lam
        });
        while net.link_is_up("a", "site1") {
            std::thread::yield_now();
        }
        drop(busy);
        let lam = stopper.join().unwrap();
        assert!(!lam.is_alive());
        let (_, done) = a.recv();
        assert!(matches!(done, Response::TaskDone { status: 'C', .. }), "{done:?}");
    }

    #[test]
    fn a_terminal_fault_marks_the_handle_dead() {
        let (net, mut lam) = contended_setup();
        net.deregister("site1");
        lam.do_shutdown();
        assert!(!lam.is_alive());
        assert_eq!(Arc::strong_count(&lam.shared), 1, "the server thread is gone");
    }

    #[test]
    fn shutdown_joins_every_sibling_thread() {
        let (net, mut lam) = contended_setup();
        let a = Peer::new(&net, "a", WireFormat::Text);
        a.call(1, &bump_rate("TA", TaskMode::NoCommit));
        let waiters: Vec<Peer> =
            (0..2).map(|i| Peer::new(&net, &format!("w{i}"), WireFormat::Binary)).collect();
        for (i, w) in waiters.iter().enumerate() {
            w.send(10 + i as u64, &bump_rate(&format!("TW{i}"), TaskMode::Auto));
        }
        assert_eq!(a.call(2, &Request::Ping), Response::Ok);
        assert_eq!(threads(&lam), 3);
        // Every thread holds one reference to the shared state until it ends.
        assert_eq!(Arc::strong_count(&lam.shared), 4);
        lam.do_shutdown();
        assert_eq!(
            Arc::strong_count(&lam.shared),
            1,
            "two parked threads and one idle, all joined"
        );
        assert!(!net.link_is_up("a", "site1"));
        // A second shutdown (the handle's Drop) has nothing left to do.
        lam.do_shutdown();
    }
}
