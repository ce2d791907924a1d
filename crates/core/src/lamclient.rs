//! Local Access Managers — the client side: the *talk* third of
//! plan → sequence → talk.
//!
//! A [`LamClient`] is one open connection from the DOL engine to a remote
//! LAM: it implements [`dol::DolService`] by shipping [`crate::proto`]
//! requests over the simulated network, handing each task's [`TaskOutput`]
//! — its rows, affected count, the exchange's error, attempts and last fault
//! — back to the engine with its status, and adds the catalog reads the
//! facade needs. It is the only client-side module that names a protocol
//! message (`ci.sh` gates that). Everything else the coordinator ships is a
//! task of a DOL program, and the task's verb ([`dol::TaskVerb`]) is the one
//! request it sends — `TASK`, `HOLD`, `EXEC`, `PREPARE`, `ABORT`, `RESOLVE`,
//! `COMPENSATE`, `PARTIALAGG`, `SHIP … ECHO`, `COMBINE` — or, `SETTLED`, none.
//! A `COMBINE` also posts a `SHIP` to each traveller's site under its
//! correlation id, resent on every retry: the parts travel straight to the
//! coordinator's LAM (no `OPEN` reaches a traveller), and the `COMBINE`'s one
//! reply says what became of them.
//!
//! Connections are session-scoped: a [`ConnectionPool`] keeps the links a
//! session has opened, keyed by `(site, database)`, and
//! [`LamFactory::checkout`] — the one way the federation gets a connection —
//! reuses an idle link instead of paying the `PING` handshake again.

use crate::codec::{self, WireFormat};
use crate::error::MdbsError;
use crate::proto::TaskMode;
use crate::proto::{CombineReport, PartDone};
use crate::proto::{RowsRequest as Request, RowsResponse as Response};
use crate::retry::{shared_stats, RetryPolicy, SharedExecStats};
use dol::engine::TaskExecution;
use dol::{DolError, DolService, ServiceFactory, Step, TaskStatus, TaskVerb, Traveller};
use ldbs::engine::ResultSet;
use netsim::{Body, Endpoint, FaultKind, NetError, Network};
use obs::{labeled, MetricsRegistry, Span};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Correlation ids for logical requests. Each logical call gets one id; all
/// of its retry attempts share it, so the LAM can deduplicate resends and
/// the client can discard stale responses from abandoned attempts.
static REQUEST_SEQ: AtomicU64 = AtomicU64::new(1);

/// A fresh correlation id: what a join's `COMBINE` is sent under, taken
/// before any of its partials leaves its site, because each is keyed by it.
pub(crate) fn correlation_id() -> u64 {
    REQUEST_SEQ.fetch_add(1, Ordering::Relaxed)
}

/// What a task produced besides its status, handed back to the DOL engine
/// with it ([`dol::DolOutcome::task_results`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskOutput {
    /// Rows affected by the task's DML commands.
    pub affected: u64,
    /// Result set of its last SELECT, if any.
    pub rows: Option<ResultSet>,
    /// Bytes a join task's rewrite kept off the wire, in the connection's wire
    /// format, when `EXPLAIN` measured its baseline.
    pub saved: Option<u64>,
    /// The exchange's own error, when the wire rather than the site failed
    /// the task — or a travelled partial's site failed the `COMBINE`. Boxed,
    /// like `join`: only a failed task carries one.
    pub error: Option<Box<MdbsError>>,
    /// Network attempts spent on the task (0 = its LAM was never reached,
    /// or the task sends nothing; 1 = no retries).
    pub attempts: u32,
    /// The last network fault seen running the task, if any.
    pub fault: Option<FaultKind>,
    /// What a join's `COMBINE` said besides Q′'s rows. Boxed: every task's
    /// output is moved about, and only a join's carries this.
    pub(crate) join: Option<Box<JoinReport>>,
}

/// What a join's `COMBINE` reply said of the edges into its home subquery:
/// the reducer's distinct keys on each and whether they reduced it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JoinReport(pub Vec<(u64, bool)>);

/// A decoded reply plus the byte size of the payload block that carried its
/// result set on the wire (0 when it carried none).
pub type Reply = (Response, usize);

/// `SHIP`s posted beside a request: site, request, whether the first attempt sends it.
type Ships = Vec<(String, Request, bool)>;

/// The part of a connection that outlives a checkout: the client endpoint
/// registered on the network. It carries no per-request state (correlation
/// ids are per request, the LAM keeps nothing per client), so whoever checks
/// it out next can drive it as is.
struct Link {
    endpoint: Endpoint,
    net: Network,
}

impl Drop for Link {
    fn drop(&mut self) {
        self.net.deregister(self.endpoint.name());
    }
}

/// A session's open LAM connections, keyed by `(site, database)`. Cloning
/// shares the pool; the links are closed (their endpoints deregistered) when
/// the last clone — the session's — goes away.
///
/// A key holds as many idle links as were ever checked out at once, which is
/// bounded by what one statement opens concurrently, so there is nothing to
/// size.
#[derive(Clone)]
pub struct ConnectionPool {
    inner: Arc<PoolInner>,
}

struct PoolInner {
    net: Network,
    idle: Mutex<HashMap<PoolKey, Vec<Arc<Link>>>>,
}

/// `(site, database)`.
type PoolKey = (String, String);

impl ConnectionPool {
    /// An empty pool on `net`.
    pub fn new(net: Network) -> Self {
        ConnectionPool { inner: Arc::new(PoolInner { net, idle: Mutex::new(HashMap::new()) }) }
    }

    /// The network the pooled connections run over.
    pub fn network(&self) -> &Network {
        &self.inner.net
    }

    /// Connections currently checked in.
    pub fn idle_connections(&self) -> usize {
        self.inner.idle.lock().values().map(Vec::len).sum()
    }

    fn take(&self, site: &str, database: &str) -> Option<Arc<Link>> {
        self.inner.idle.lock().get_mut(&(site.to_string(), database.to_string()))?.pop()
    }

    fn put(&self, site: &str, database: &str, link: Arc<Link>) {
        let key = (site.to_string(), database.to_string());
        self.inner.idle.lock().entry(key).or_default().push(link);
    }
}

/// One connection to a LAM, bound to a database on that service.
pub struct LamClient {
    link: Arc<Link>,
    /// The pool the link goes back to when this client is dropped (`None`
    /// for a connection opened directly with [`LamClient::connect_with`]).
    home: Option<ConnectionPool>,
    /// Set once any request on this connection hit a network fault or a
    /// protocol error. A suspect connection is closed instead of pooled: a
    /// late reply to the abandoned request may still arrive in its mailbox,
    /// and the next statement must never find it there.
    suspect: AtomicBool,
    /// Requests posted and not yet finished. A connection with a reply still
    /// unread is closed instead of pooled, like a suspect one.
    unread: AtomicU32,
    /// The step the DOL engine [posted](DolService::post), finished by the
    /// engine's next call on this connection, with a join task's own spans —
    /// or why it was posted nowhere.
    posted: Option<Result<(Posted, Vec<Span>), MdbsError>>,
    site: String,
    /// The database this connection is opened on.
    pub database: String,
    timeout: Duration,
    /// Transient-fault retry policy (default: a single attempt).
    retry: RetryPolicy,
    /// Shared fault/retry accounting.
    stats: SharedExecStats,
    /// Metrics sink for `lam.*` series (a private registry unless checked
    /// out from a [`LamFactory`], which attaches its own).
    metrics: MetricsRegistry,
    /// Encoding used for requests (the server mirrors it in replies). Text
    /// unless checked out from a [`LamFactory`], which sets its own; the
    /// LAM needs no coordination, so it may change between calls.
    wire_format: WireFormat,
}

/// One attempt's failure: a classified network fault and the site it hit,
/// or a protocol error that no resend can fix.
enum AttemptError {
    Net(NetError, String),
    Fatal(MdbsError),
}

/// A logical request whose first attempt is on the wire and whose reply has
/// not been read: what [`LamClient::post`] returns and [`LamClient::finish`]
/// takes.
struct Posted {
    id: u64,
    /// The encoded request; every attempt sends these bytes.
    framed: Body,
    /// `SHIP` frames to other sites that every attempt sends after the
    /// request, the first attempt only those flagged.
    ships: Vec<(String, Body, bool)>,
    max_attempts: u32,
    /// No attempt starts after this instant.
    deadline: Instant,
    /// The first attempt's `rpc` span and its send: when it went out, or the
    /// fault that stopped it. Taken by the first turn of the retry loop.
    first: Option<(Span, Result<Instant, AttemptError>)>,
}

impl LamClient {
    /// Opens a connection: registers a unique client endpoint and pings the
    /// LAM to verify it is reachable. No retries; see [`Self::connect_with`].
    pub fn connect(
        net: &Network,
        site: &str,
        database: &str,
        timeout: Duration,
    ) -> Result<Self, MdbsError> {
        LamClient::connect_with(
            net,
            site,
            database,
            timeout,
            RetryPolicy::default(),
            shared_stats(),
        )
    }

    /// Opens a connection with an explicit retry policy and a shared stats
    /// cell (so the executor can aggregate accounting across clients).
    pub fn connect_with(
        net: &Network,
        site: &str,
        database: &str,
        timeout: Duration,
        retry: RetryPolicy,
        stats: SharedExecStats,
    ) -> Result<Self, MdbsError> {
        let endpoint = net.register_client(&format!("__cli_{site}_"))?;
        let link = Arc::new(Link { endpoint, net: net.clone() });
        let client = LamClient::over(link, site, database, timeout, retry, stats);
        client.handshake()?;
        Ok(client)
    }

    /// A client driving `link`, with text framing and a private metrics
    /// registry until the owner says otherwise.
    fn over(
        link: Arc<Link>,
        site: &str,
        database: &str,
        timeout: Duration,
        retry: RetryPolicy,
        stats: SharedExecStats,
    ) -> Self {
        LamClient {
            link,
            home: None,
            suspect: AtomicBool::new(false),
            unread: AtomicU32::new(0),
            posted: None,
            site: site.to_string(),
            database: database.to_string(),
            timeout,
            retry,
            stats,
            metrics: MetricsRegistry::new(),
            wire_format: WireFormat::default(),
        }
    }

    /// Pings the LAM to verify it is reachable. Runs before the owner
    /// negotiates a format, so it always travels as text — the universal
    /// fallback.
    fn handshake(&self) -> Result<(), MdbsError> {
        match self.call(Request::Ping)? {
            Response::Ok => Ok(()),
            other => Err(MdbsError::Net(format!("unexpected ping reply: {other:?}"))),
        }
    }

    /// The shared stats cell this client records into.
    pub fn stats(&self) -> SharedExecStats {
        SharedExecStats::clone(&self.stats)
    }

    /// Sends one logical request and waits for its response, retrying
    /// transient faults per the client's [`RetryPolicy`]: `finish(post(req))`,
    /// untraced.
    ///
    /// Every attempt of one logical call shares a correlation id, so the
    /// LAM server executes the request at most once no matter how often it
    /// is resent — state-changing requests (`Task`, `Commit`, `Abort`,
    /// `Exec`, `Compensate`) are as safe to retry as reads. A lost
    /// `Commit` acknowledgement in particular is re-asked rather than
    /// misreported as an abort. Only `Shutdown` is never retried.
    pub fn call(&self, req: Request) -> Result<Response, MdbsError> {
        let off = Span::disabled();
        self.finish(self.post(&req, &off), &off).0.map(|(resp, _)| resp)
    }

    /// The first half of a call: encodes `req` once (every retry resends the
    /// same bytes), takes its correlation id and makes the first attempt's
    /// send under an `rpc` child of `span`. The reply is left for
    /// [`Self::finish`], so a caller can post to several LAMs before it waits
    /// for any. Until then the connection is not pooled again: a client
    /// dropped with a reply unread is closed.
    fn post(&self, req: &Request, span: &Span) -> Posted {
        self.post_as(correlation_id(), req, Vec::new(), span)
    }

    /// [`Self::post`] under correlation id `id`, with `ships`: requests to
    /// other sites, each sent uncorrelated after `req` on every attempt — on
    /// the first only those flagged — and never answered.
    fn post_as(&self, id: u64, req: &Request, ships: Ships, span: &Span) -> Posted {
        let ships =
            ships.into_iter().map(|(site, ship, first)| (site, self.encode(None, &ship), first));
        let ships = ships.collect();
        let framed = self.encode(Some(id), req);
        let max_attempts =
            if matches!(req, Request::Shutdown) { 1 } else { self.retry.max_attempts.max(1) };
        let deadline = Instant::now() + self.retry.deadline;
        self.unread.fetch_add(1, Ordering::Relaxed);
        let rpc = span.child("rpc");
        rpc.note("attempt", 1);
        let mut posted = Posted { id, framed, ships, max_attempts, deadline, first: None };
        posted.first = Some((rpc, self.send(&posted, true)));
        posted
    }

    /// Encodes one frame in this connection's format, metered.
    fn encode(&self, id: Option<u64>, req: &Request) -> Body {
        let encode_start = Instant::now();
        let framed = codec::frame_request(self.wire_format, id, req);
        self.metrics.observe(
            &labeled("wire.encode_us", "format", self.wire_format.label()),
            encode_start.elapsed().as_micros() as u64,
        );
        framed
    }

    /// The second half of a call: reads the reply of what [`Self::post`]
    /// sent — the first attempt's timeout counts from its send — and runs
    /// the retry loop from there, opening each further attempt's `rpc` span
    /// under `span` (noted with the fault that killed it, if any). Returns
    /// the reply with its payload block's wire size, the attempts spent and
    /// every fault seen.
    fn finish(
        &self,
        mut posted: Posted,
        span: &Span,
    ) -> (Result<Reply, MdbsError>, u32, Vec<FaultKind>) {
        self.unread.fetch_sub(1, Ordering::Relaxed);
        let mut faults: Vec<FaultKind> = Vec::new();
        let mut last_net: Option<(NetError, String)> = None;
        let mut attempts = 0u32;
        while attempts < posted.max_attempts {
            let (rpc, sent) = match posted.first.take() {
                Some(first) => first,
                None => {
                    let pause = self.retry.backoff(attempts + 1);
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                    if Instant::now() >= posted.deadline {
                        break;
                    }
                    let rpc = span.child("rpc");
                    rpc.note("attempt", attempts + 1);
                    (rpc, self.send(&posted, false))
                }
            };
            attempts += 1;
            match sent.and_then(|at| self.receive(posted.id, at)) {
                Ok(resp) => {
                    drop(rpc);
                    self.stats.lock().record_call(attempts, &faults, true);
                    return (Ok(resp), attempts, faults);
                }
                Err(AttemptError::Net(e, site)) => {
                    let kind = e.fault_kind();
                    rpc.note("fault", fault_label(kind));
                    self.suspect.store(true, Ordering::Relaxed);
                    faults.push(kind);
                    last_net = Some((e, site));
                    if kind == FaultKind::Terminal {
                        break;
                    }
                }
                Err(AttemptError::Fatal(e)) => {
                    rpc.note("error", "protocol");
                    self.suspect.store(true, Ordering::Relaxed);
                    drop(rpc);
                    self.stats.lock().record_call(attempts, &faults, false);
                    return (Err(e), attempts, faults);
                }
            }
        }
        self.stats.lock().record_call(attempts, &faults, false);
        // The last fault names its site: a `SHIP`'s is the traveller's.
        let (detail, site) = match last_net {
            Some((e, site)) => (e.to_string(), site),
            None => ("retry deadline exceeded".to_string(), self.site.clone()),
        };
        let err = match faults.last().copied() {
            Some(FaultKind::Terminal) => MdbsError::LamUnavailable { site },
            _ => MdbsError::Net(format!("{detail} (site `{site}`, {attempts} attempt(s))")),
        };
        (Err(err), attempts, faults)
    }

    /// One attempt's sends — the request, then the `SHIP`s, the `first`
    /// attempt's only the flagged ones; returns when the request went out.
    /// The request goes first, so the coordinator's LAM always takes its
    /// `COMBINE` before the part a `SHIP` produces: which frame waits, and so
    /// every message a lossy schedule draws, is the same on every run.
    fn send(&self, posted: &Posted, first: bool) -> Result<Instant, AttemptError> {
        let sent_to = |site: &String, body: &Body| {
            let sent = self.link.endpoint.send(site, body.clone());
            sent.map_err(|e| AttemptError::Net(e, site.clone()))
        };
        sent_to(&self.site, &posted.framed)?;
        let sent = Instant::now();
        for (site, ship, _) in posted.ships.iter().filter(|(.., flagged)| *flagged || !first) {
            sent_to(site, ship)?;
        }
        Ok(sent)
    }

    /// One attempt's receive, for a request sent at `sent`. Responses whose
    /// correlation id does not match are stale replies to abandoned attempts
    /// and are discarded. Replies are accepted in either wire format — the
    /// server mirrors the request's format, but a stale text reply must not
    /// wedge a binary client.
    fn receive(&self, id: u64, sent: Instant) -> Result<Reply, AttemptError> {
        let deadline = sent + self.timeout;
        loop {
            // A reply waiting in the mailbox is read even past the deadline:
            // a caller that posted to several LAMs may come for it late.
            let wait = deadline.saturating_duration_since(Instant::now());
            let msg = self
                .link
                .endpoint
                .recv_timeout(wait)
                .map_err(|e| AttemptError::Net(e, self.site.clone()))?;
            let decode_start = Instant::now();
            // A reply to an earlier attempt or an earlier logical call is
            // skipped; the server's dedup cache already answered (or will
            // answer) the live id.
            let (corr, format) = codec::peek(&msg.body);
            if corr == Some(id) {
                let result = codec::read_response(&msg.body);
                self.metrics.observe(
                    &labeled("wire.decode_us", "format", format.label()),
                    decode_start.elapsed().as_micros() as u64,
                );
                return result.map_err(AttemptError::Fatal);
            }
        }
    }

    /// How every typed call below ends when the reply is not the one it
    /// asked for: a refusal (`ERR`) is its database's local error, anything else
    /// a protocol violation naming the exchange (`what`).
    fn refused<T>(&self, what: &str, reply: Response) -> Result<T, MdbsError> {
        match reply {
            Response::Err { message } => {
                Err(MdbsError::Local { service: self.database.clone(), message })
            }
            other => Err(MdbsError::Wire(format!("unexpected {what} reply: {other:?}"))),
        }
    }

    /// Fetches the public Local Conceptual Schema of this connection's
    /// database (for IMPORT).
    pub fn fetch_schema(&self) -> Result<Vec<catalog::GddTable>, MdbsError> {
        match self.call(Request::Schema { database: self.database.clone() })? {
            Response::OkPayload { payload } => crate::wire::decode_schema(&payload),
            other => self.refused("schema", other),
        }
    }

    /// Fetches the optimizer statistics this connection's database collected
    /// via `ANALYZE`. Tables never analyzed are absent from the answer; the
    /// coordinator caches what it gets in the GDD statistics tier.
    pub fn fetch_stats(&self) -> Result<Vec<crate::wire::SiteTableStats>, MdbsError> {
        match self.call(Request::Stats { database: self.database.clone(), table: None })? {
            Response::OkPayload { payload } => crate::wire::decode_stats(&payload),
            other => self.refused("stats", other),
        }
    }
}

impl LamClient {
    /// Annotates the span of a request on `db` with its communication
    /// telemetry and folds it into the `lam.*` metrics.
    fn record_obs(&self, span: &Span, db: &str, attempts: u32, faults: &[FaultKind]) {
        span.note("db", db);
        span.note("attempts", attempts);
        if let Some(kind) = faults.last() {
            span.note("fault", fault_label(*kind));
            span.note("faults", faults.len());
        }
        self.metrics.counter_add(&labeled("lam.calls", "db", db), 1);
        self.metrics.counter_add(&labeled("lam.attempts", "db", db), u64::from(attempts.max(1)));
        self.metrics
            .counter_add(&labeled("lam.retries", "db", db), u64::from(attempts.saturating_sub(1)));
        self.metrics.counter_add(&labeled("lam.faults", "db", db), faults.len() as u64);
    }

    /// Notes a result set of `rows` rows that `db` shipped on `span` and the
    /// `lam.*` volume counters; `bytes` is the size of the payload block that
    /// carried it.
    fn record_shipped(&self, span: &Span, db: &str, rows: usize, bytes: usize) {
        span.note("rows", rows);
        span.note("bytes", bytes);
        self.metrics.counter_add(&labeled("lam.rows", "db", db), rows as u64);
        self.metrics.counter_add(&labeled("lam.bytes", "db", db), bytes as u64);
    }

    /// The request that runs `task` on this connection — what its verb sends
    /// — with the `SHIP`s a `COMBINE` posts beside it, and the spans a join's
    /// task opens under `span`, innermost first so that they close in order:
    /// a partial's `lam:partial:<db>`, or the coordinator's own partial's
    /// under its `lam:combine:<db>`. A settled task never gets here.
    fn task_request(&self, task: &dol::TaskDef, span: &Span) -> (Request, Ships, Vec<Span>) {
        let (name, commands, database) =
            (task.name.clone(), task.commands.clone(), self.database.clone());
        let ship = |key, to: &str, database, sql, baseline, echo| Request::Ship {
            key,
            to: to.to_string(),
            database,
            sql,
            baseline,
            echo,
        };
        let (mut spans, mut ships): (Vec<Span>, Ships) = (Vec::new(), Vec::new());
        let mut open = |kind: &str, notes: &[(String, String)]| {
            let child = spans.first().unwrap_or(span).child(format!("lam:{kind}:{database}"));
            notes.iter().for_each(|(key, value)| child.note(key, value));
            spans.insert(0, child);
        };
        let req = match &task.verb {
            TaskVerb::Run | TaskVerb::Hold => {
                let mode = match (&task.verb, task.nocommit) {
                    (TaskVerb::Hold, _) => TaskMode::Hold,
                    (_, true) => TaskMode::NoCommit,
                    _ => TaskMode::Auto,
                };
                Request::Task { name, mode, database, commands }
            }
            TaskVerb::Exec => Request::Exec { task: name, commands },
            TaskVerb::Prepare => Request::Prepare { task: name },
            TaskVerb::Abort => Request::Abort { task: name },
            TaskVerb::Resolve(commit) => Request::Resolve { task: name, commit: *commit },
            TaskVerb::Compensate => self.compensate_request(task),
            TaskVerb::Settled(_) => unreachable!("a settled task sends nothing"),
            TaskVerb::PartialAgg(partial) => {
                open("partial", &partial.notes);
                let (sql, baseline) = (commands.concat(), partial.baseline.clone());
                Request::PartialAgg { database, sql, baseline }
            }
            TaskVerb::Ship { key, to, partial } => {
                open("partial", &partial.notes);
                let (sql, baseline) = (commands.concat(), partial.baseline.clone());
                ship(*key, to, database, sql, baseline, true)
            }
            TaskVerb::Combine(c) => {
                open("combine", &c.notes);
                open("partial", &c.home_notes);
                for t in &c.travellers {
                    let (database, sql) = (t.database.clone(), t.sql.clone());
                    let req =
                        ship(c.key, &self.site, database, sql, t.partial.baseline.clone(), false);
                    ships.push((t.site.clone(), req, t.posted));
                }
                Request::Combine {
                    database,
                    home: Some(c.home.clone()),
                    parts: c.travellers.iter().map(|t| t.database.clone()).collect(),
                    edges: c.edges.clone(),
                    sql: commands.concat(),
                    measure: c.measure,
                }
            }
        };
        (req, ships, spans)
    }

    /// Posts `task`'s request under `span` — a `COMBINE` under its key, with
    /// a `SHIP` to each travelling partial's site — and opens its spans. A
    /// `COMBINE` one of whose travellers this connection's endpoint cannot
    /// reach is posted nowhere: it fails as a checkout of that site would.
    fn post_task(
        &self,
        task: &dol::TaskDef,
        span: &Span,
    ) -> Result<(Posted, Vec<Span>), MdbsError> {
        if let TaskVerb::Combine(c) = &task.verb {
            c.travellers.iter().try_for_each(|t| self.reach(&t.site))?;
        }
        let (req, ships, spans) = self.task_request(task, span);
        let id = if let TaskVerb::Combine(c) = &task.verb { c.key } else { correlation_id() };
        Ok((self.post_as(id, &req, ships, spans.last().unwrap_or(span)), spans))
    }

    /// Whether a `SHIP` from this connection's endpoint reaches `site`, read
    /// from the network's own tables as a pooled link's checkout reads them
    /// (no message) — else the error that checkout would give: the LAM is
    /// gone, or the site is partitioned from the endpoint.
    fn reach(&self, site: &str) -> Result<(), MdbsError> {
        let (net, from) = (&self.link.net, self.link.endpoint.name());
        if net.link_is_up(from, site) {
            Ok(())
        } else if !net.site_names().iter().any(|name| name == site) {
            Err(MdbsError::LamUnavailable { site: site.to_string() })
        } else {
            let cut = NetError::Partitioned { from: from.to_string(), to: site.to_string() };
            Err(MdbsError::Net(format!("{cut} (site `{site}`)")))
        }
    }

    /// The `COMPENSATE` that undoes `task` with its compensating commands: a
    /// program's `COMPENSATE` step, or a task whose verb is `COMPENSATE`.
    fn compensate_request(&self, task: &dol::TaskDef) -> Request {
        Request::Compensate {
            task: task.name.clone(),
            database: self.database.clone(),
            commands: task.compensation.clone(),
        }
    }

    /// Runs a task on the LAM — or reads the reply of the one
    /// [posted](DolService::post) — and hands back its status with its
    /// [`TaskOutput`]. A task sends what its verb says, and a settled one
    /// sends nothing and produces nothing.
    fn run_task(&mut self, task: &dol::TaskDef, span: &Span) -> TaskExecution<TaskOutput> {
        if let TaskVerb::Settled(status) = task.verb {
            return TaskExecution { status, result: None, error: None };
        }
        let (result, attempts, faults, spans) =
            match self.posted.take().unwrap_or_else(|| self.post_task(task, span)) {
                Ok((posted, spans)) => {
                    let (result, attempts, faults) =
                        self.finish(posted, spans.last().unwrap_or(span));
                    (result, attempts, faults, spans)
                }
                Err(e) => (Err(e), 0, Vec::new(), Vec::new()),
            };
        let traced = spans.last().unwrap_or(span);
        self.record_obs(traced, &self.database, attempts, &faults);
        let output =
            TaskOutput { attempts, fault: faults.last().copied(), ..TaskOutput::default() };
        match result {
            Ok((reply, bytes)) if !spans.is_empty() => {
                self.join_done(task, &spans, reply, bytes, output)
            }
            Ok((Response::TaskDone { status, affected, payload, error }, bytes)) => {
                // `E`: a held subtransaction ran its commands and stays open.
                let status = match status {
                    'P' | 'E' => TaskStatus::Prepared,
                    'C' => TaskStatus::Committed,
                    'A' => TaskStatus::Aborted,
                    'K' => TaskStatus::Compensated,
                    _ => TaskStatus::Error,
                };
                if affected > 0 {
                    span.note("affected", affected);
                }
                if let Some(rows) = &payload {
                    self.record_shipped(span, &self.database, rows.rows.len(), bytes);
                }
                let result = Some(TaskOutput { affected, rows: payload, ..output });
                TaskExecution { status, result, error }
            }
            // `ABORT` and `COMPENSATE` only acknowledge: the held
            // subtransaction is rolled back, the committed one undone.
            Ok((Response::Ok, _)) if task.verb == TaskVerb::Abort => {
                TaskExecution { status: TaskStatus::Aborted, result: Some(output), error: None }
            }
            Ok((Response::Ok, _)) if task.verb == TaskVerb::Compensate => {
                let status = TaskStatus::Compensated;
                TaskExecution { status, result: Some(output), error: None }
            }
            // A refusal, in the site's words.
            Ok((Response::Err { message }, _)) => failed(message, output),
            Ok((other, _)) => failed(format!("unexpected reply: {other:?}"), output),
            // Exhausted retries (or a terminal fault) surface as errors —
            // the global plan treats them like local aborts (paper §3.2:
            // "one or more LDBMSs may be forced to abort") — and the output
            // keeps the exchange's own error for whoever cannot degrade.
            Err(e) => failed(e.to_string(), TaskOutput { error: Some(Box::new(e)), ..output }),
        }
    }

    /// A join task's reply, noted on its `spans`: a partial's rows, access
    /// path and unpushed rows, or Q′'s answer from the `COMBINE`, whose own
    /// partial crossed no network — the innermost span noting, with a measured
    /// baseline, the bytes a rewrite kept off the wire. A reply naming an
    /// error is the site's refusal, whatever else it carries; a `COMBINE`'s
    /// reports on the partials it posted are written under its span, and the
    /// first that names its site's error fails it in that site's words.
    /// `output` holds the exchange's attempts and last fault.
    fn join_done(
        &self,
        task: &dol::TaskDef,
        spans: &[Span],
        reply: Response,
        bytes: usize,
        output: TaskOutput,
    ) -> TaskExecution<TaskOutput> {
        let (span, own) = (&spans[spans.len() - 1], &spans[0]);
        let saved_of = |full: u64| (full > 0).then(|| full.saturating_sub(bytes as u64));
        let (mut join, mut travelled) = (None, None);
        let (rows, access, saved) = match reply {
            Response::PartialDone { error: Some(message), .. }
            | Response::PartialAggDone { error: Some(message), .. }
            | Response::Err { message } => return failed(message, output),
            Response::CombineDone { payload, home_rows, access, saved, report } => {
                let CombineReport { edges, parts } = *report;
                let TaskVerb::Combine(c) = &task.verb else {
                    return failed("a COMBINE reply to another request".to_string(), output);
                };
                let mut refused = None;
                for (traveller, part) in c.travellers.iter().zip(parts) {
                    if let (None, Some(message)) = (&refused, &part.error) {
                        let service = traveller.database.clone();
                        refused = Some(MdbsError::Local { service, message: message.clone() });
                    }
                    if traveller.posted {
                        if let Some(saved) = self.travelled(traveller, part, output.attempts, span)
                        {
                            *travelled.get_or_insert(0) += saved;
                        }
                    }
                }
                if let Some(error) = refused {
                    let message = error.to_string();
                    return failed(message, TaskOutput { error: Some(Box::new(error)), ..output });
                }
                let rows = payload.unwrap_or_default();
                span.note("bytes", bytes);
                span.note("rows", rows.rows.len());
                let reduced = edges.iter().any(|&(_, reduced)| reduced);
                if reduced {
                    own.note("reduced", "semijoin");
                }
                own.note("db", &self.database);
                own.note("rows", home_rows);
                own.note("bytes", 0);
                join = Some(Box::new(JoinReport(edges)));
                (rows, access, (c.measure && reduced).then_some(saved))
            }
            Response::PartialDone { payload: Some(rows), full_bytes, access, .. } => {
                self.record_shipped(span, &self.database, rows.rows.len(), bytes);
                (rows, access, saved_of(full_bytes))
            }
            Response::PartialAggDone { payload: Some(rows), full_rows, full_bytes, .. } => {
                self.record_shipped(span, &self.database, rows.rows.len(), bytes);
                if full_rows > 0 {
                    span.note("full_rows", full_rows);
                }
                (rows, None, saved_of(full_bytes))
            }
            other => return failed(format!("unexpected reply: {other:?}"), output),
        };
        self.note_partial(own, &self.database, access, saved);
        // The task's saving is its own partial's and its travellers'.
        let saved = saved.into_iter().chain(travelled).reduce(|a, b| a + b);
        TaskExecution::committed(Some(TaskOutput { rows: Some(rows), saved, join, ..output }))
    }

    /// Notes the access path of `db`'s partial and — with a measured baseline
    /// — the bytes its rewrite kept off the wire, on its span and in `lam.*`.
    fn note_partial(&self, span: &Span, db: &str, access: Option<String>, saved: Option<u64>) {
        if let Some(access) = access {
            span.note("access", access);
        }
        if let Some(saved) = saved {
            span.note("saved", saved);
            self.metrics.counter_add(&labeled("lam.bytes_saved", "db", db), saved);
        }
    }

    /// A partial that travelled straight to the coordinator, as the
    /// `COMBINE`'s reply reported on it: its `lam:partial:<db>` span under the
    /// `COMBINE`'s `span`, noted like a partial that came back here, the
    /// `COMBINE`'s attempts being its own. Returns the bytes its rewrite kept
    /// off the wire, when `EXPLAIN` measured its baseline.
    fn travelled(&self, t: &Traveller, part: PartDone, attempts: u32, span: &Span) -> Option<u64> {
        let child = span.child(format!("lam:partial:{}", t.database));
        t.partial.notes.iter().for_each(|(key, value)| child.note(key, value));
        self.record_obs(&child, &t.database, attempts, &[]);
        if part.error.is_some() {
            return None;
        }
        self.record_shipped(&child, &t.database, part.rows as usize, part.bytes as usize);
        let saved = t.partial.baseline.as_ref().map(|_| part.saved);
        self.note_partial(&child, &t.database, part.access, saved);
        saved
    }

    /// Sends an ack-only second-phase request — or reads the reply of the
    /// one [posted](DolService::post) — tracing its round trips.
    ///
    /// A `COMMIT` whose every acknowledgement is lost to *transient* faults
    /// (the site is still registered — the LAM may well have committed) is
    /// reported as [`DolError::InDoubt`], never as a plain service error:
    /// the caller must route it to recovery rather than presume abort.
    fn phase_two(&mut self, req: Request, span: &Span) -> Result<(), DolError> {
        let posted = match self.posted.take() {
            Some(Ok((posted, _))) => posted,
            _ => LamClient::post(self, &req, span),
        };
        let (result, attempts, faults) = self.finish(posted, span);
        self.record_obs(span, &self.database, attempts, &faults);
        match (result.map(|(resp, _)| resp), &req) {
            (Ok(Response::Ok), _) => Ok(()),
            (Ok(Response::Err { message }), _) => Err(DolError::Service(message)),
            (Ok(other), _) => Err(DolError::Service(format!("unexpected reply: {other:?}"))),
            (Err(MdbsError::Net(_)), Request::Commit { task }) => {
                span.note("in_doubt", task);
                Err(DolError::InDoubt { service: self.site.clone(), task: task.clone() })
            }
            (Err(e), _) => Err(DolError::Service(e.to_string())),
        }
    }
}

/// A task that ended in `E` with `output`, `message` being its local error.
fn failed(message: String, output: TaskOutput) -> TaskExecution<TaskOutput> {
    TaskExecution { status: TaskStatus::Error, result: Some(output), error: Some(message) }
}

/// Stable lower-case label for fault annotations in spans and goldens.
fn fault_label(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Transient => "transient",
        FaultKind::Terminal => "terminal",
    }
}

impl Drop for LamClient {
    /// Checks a healthy pooled link with no reply pending back in; anything
    /// else closes with the last reference to the link.
    fn drop(&mut self) {
        if let Some(pool) = self.home.take() {
            if !*self.suspect.get_mut() && *self.unread.get_mut() == 0 {
                pool.put(&self.site, &self.database, Arc::clone(&self.link));
            }
        }
    }
}

impl DolService<TaskOutput> for LamClient {
    fn post(&mut self, step: Step<'_>, span: &Span) {
        let req = match step {
            Step::Execute(task) => {
                if !matches!(task.verb, TaskVerb::Settled(_)) {
                    self.posted = Some(self.post_task(task, span));
                }
                return;
            }
            Step::Commit(task) => Request::Commit { task: task.to_string() },
            Step::Abort(task) => Request::Abort { task: task.to_string() },
        };
        self.posted = Some(Ok((LamClient::post(self, &req, span), Vec::new())));
    }

    fn execute_task(&mut self, task: &dol::TaskDef) -> TaskExecution<TaskOutput> {
        self.run_task(task, &Span::disabled())
    }

    fn execute_task_traced(
        &mut self,
        task: &dol::TaskDef,
        span: &Span,
    ) -> TaskExecution<TaskOutput> {
        self.run_task(task, span)
    }

    fn commit_task(&mut self, task_name: &str) -> Result<(), DolError> {
        self.commit_task_traced(task_name, &Span::disabled())
    }

    fn commit_task_traced(&mut self, task_name: &str, span: &Span) -> Result<(), DolError> {
        self.phase_two(Request::Commit { task: task_name.to_string() }, span)
    }

    fn abort_task(&mut self, task_name: &str) -> Result<(), DolError> {
        self.abort_task_traced(task_name, &Span::disabled())
    }

    fn abort_task_traced(&mut self, task_name: &str, span: &Span) -> Result<(), DolError> {
        self.phase_two(Request::Abort { task: task_name.to_string() }, span)
    }

    fn compensate_task(&mut self, task: &dol::TaskDef) -> Result<(), DolError> {
        self.compensate_task_traced(task, &Span::disabled())
    }

    fn compensate_task_traced(&mut self, task: &dol::TaskDef, span: &Span) -> Result<(), DolError> {
        self.phase_two(self.compensate_request(task), span)
    }

    fn close(&mut self) {
        // The link goes back to its pool (or closes) in Drop.
    }
}

/// How the federation opens LAM connections: every `OPEN <database> AT
/// <site>` of a DOL program and every catalog read is one
/// [`Self::checkout`].
#[derive(Clone)]
pub struct LamFactory {
    /// The owning session's connections.
    pub pool: ConnectionPool,
    /// Per-request timeout.
    pub timeout: Duration,
    /// Retry policy handed to every client this factory opens.
    pub retry: RetryPolicy,
    /// Stats cell shared by every client this factory opens.
    pub stats: SharedExecStats,
    /// Metrics registry shared by every client this factory opens.
    pub metrics: MetricsRegistry,
    /// Graceful degradation: when set, a service whose LAM cannot be
    /// reached at OPEN time yields a stub that reports every task as failed
    /// instead of failing the whole plan — the §3.2 vital semantics then
    /// decide whether the statement survives the loss.
    pub tolerate_unreachable: bool,
    /// Wire format handed to every client this factory opens.
    pub wire_format: WireFormat,
    /// Why the `OPEN` that failed the program this factory serves failed:
    /// the checkout's own error.
    pub(crate) open_error: Arc<Mutex<Option<MdbsError>>>,
}

impl LamFactory {
    /// A factory with the default (no-retry, fail-fast) behaviour and a pool
    /// of its own.
    pub fn new(net: Network, timeout: Duration) -> Self {
        LamFactory {
            pool: ConnectionPool::new(net),
            timeout,
            retry: RetryPolicy::default(),
            stats: shared_stats(),
            metrics: MetricsRegistry::new(),
            tolerate_unreachable: false,
            wire_format: WireFormat::default(),
            open_error: Arc::default(),
        }
    }

    /// Checks out a connection to `database` at `site`, wired to this
    /// factory's timeout, retry policy, accounting, metrics and wire format;
    /// dropping the client checks it back in.
    ///
    /// An idle pooled link is validated against the network's own tables (no
    /// message): while the site is registered and not partitioned from the
    /// link's endpoint, it is reused as is. Otherwise the handshake runs
    /// again over the same endpoint and decides — so a LAM that went down or
    /// became unreachable since the last statement fails here, at OPEN, with
    /// the error a first connection would get, and the link is closed. A
    /// miss (nothing pooled for the key, or every link for it checked out)
    /// opens a connection and pays the handshake.
    pub fn checkout(&self, site: &str, database: &str) -> Result<LamClient, MdbsError> {
        let stats = SharedExecStats::clone(&self.stats);
        let mut client = match self.pool.take(site, database) {
            Some(link) => {
                let up = self.pool.network().link_is_up(link.endpoint.name(), site);
                let client =
                    LamClient::over(link, site, database, self.timeout, self.retry.clone(), stats);
                if !up {
                    client.handshake()?;
                }
                client
            }
            None => LamClient::connect_with(
                self.pool.network(),
                site,
                database,
                self.timeout,
                self.retry.clone(),
                stats,
            )?,
        };
        client.home = Some(self.pool.clone());
        client.metrics = self.metrics.clone();
        client.wire_format = self.wire_format;
        Ok(client)
    }
}

impl ServiceFactory<TaskOutput> for LamFactory {
    fn connect(
        &self,
        service: &str,
        site: &str,
    ) -> Result<Box<dyn DolService<TaskOutput>>, DolError> {
        match self.checkout(site, service) {
            Ok(client) => Ok(Box::new(client)),
            Err(e) if self.tolerate_unreachable => Ok(Box::new(UnreachableService {
                error: format!("site `{site}` unreachable: {e}"),
            })),
            Err(e) => {
                let reason = e.to_string();
                *self.open_error.lock() = Some(e);
                Err(DolError::OpenFailed { service: service.to_string(), reason })
            }
        }
    }
}

/// Stand-in service for a LAM that could not be reached at OPEN time. Every
/// task fails with an error status (never panics or hangs), so the DOL
/// program's vital semantics decide the statement's fate; commit/abort of
/// tasks that never ran are no-ops, a compensation fails. A settled task
/// sends nothing, so it ends as its verb says.
struct UnreachableService {
    error: String,
}

impl DolService<TaskOutput> for UnreachableService {
    fn execute_task(&mut self, task: &dol::TaskDef) -> TaskExecution<TaskOutput> {
        if let TaskVerb::Settled(status) = task.verb {
            return TaskExecution { status, result: None, error: None };
        }
        // The terminal fault itself was counted by the failed connect; the
        // task reached no LAM, so it spent no attempt.
        let fault = Some(FaultKind::Terminal);
        failed(self.error.clone(), TaskOutput { fault, ..TaskOutput::default() })
    }

    fn commit_task(&mut self, _task_name: &str) -> Result<(), DolError> {
        Ok(())
    }

    fn abort_task(&mut self, _task_name: &str) -> Result<(), DolError> {
        Ok(())
    }

    fn compensate_task(&mut self, _task: &dol::TaskDef) -> Result<(), DolError> {
        Err(DolError::Service(self.error.clone()))
    }

    fn close(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lam::spawn_lam;
    use ldbs::profile::DbmsProfile;
    use ldbs::Engine;

    /// Generous per-request timeout for tests (nothing should ever wait
    /// this long on the zero-latency test network).
    const TEST_TIMEOUT: Duration = Duration::from_secs(5);

    fn setup() -> (Network, crate::lam::LamHandle) {
        setup_on(Network::new())
    }

    fn setup_on(net: Network) -> (Network, crate::lam::LamHandle) {
        let mut engine = Engine::new("svc", DbmsProfile::oracle_like());
        engine.create_database("avis").unwrap();
        engine.execute("avis", "CREATE TABLE cars (code INT, rate FLOAT)").unwrap();
        engine.execute("avis", "INSERT INTO cars VALUES (1, 40.0)").unwrap();
        let lam = spawn_lam(&net, "svc", "site1", engine).unwrap();
        (net, lam)
    }

    #[test]
    fn client_executes_select_task() {
        let (net, _lam) = setup();
        let mut client = LamClient::connect(&net, "site1", "avis", TEST_TIMEOUT).unwrap();
        let task = dol::TaskDef {
            name: "Q1".into(),
            service: "a".into(),
            nocommit: false,
            verb: TaskVerb::Run,
            commands: vec!["SELECT code FROM cars".into()],
            compensation: vec![],
        };
        let exec = client.execute_task(&task);
        assert_eq!(exec.status, TaskStatus::Committed);
        // The rows come back with the status, as the task's output.
        let output = exec.result.unwrap();
        assert_eq!((output.affected, output.attempts, output.fault), (0, 1, None));
        assert_eq!(output.rows.unwrap().rows, vec![vec![ldbs::value::Value::Int(1)]]);
    }

    #[test]
    fn client_prepare_commit_cycle() {
        let (net, lam) = setup();
        let mut client = LamClient::connect(&net, "site1", "avis", TEST_TIMEOUT).unwrap();
        let task = dol::TaskDef {
            name: "T1".into(),
            service: "a".into(),
            nocommit: true,
            verb: TaskVerb::Run,
            commands: vec!["UPDATE cars SET rate = 50 WHERE code = 1".into()],
            compensation: vec![],
        };
        let exec = client.execute_task(&task);
        assert_eq!(exec.status, TaskStatus::Prepared);
        client.commit_task("T1").unwrap();
        let rate = {
            let mut e = lam.engine.lock();
            e.execute("avis", "SELECT rate FROM cars WHERE code = 1")
                .unwrap()
                .into_result_set()
                .unwrap()
                .rows[0][0]
                .clone()
        };
        assert_eq!(rate, ldbs::value::Value::Float(50.0));
    }

    #[test]
    fn connect_to_missing_site_fails() {
        let net = Network::new();
        assert!(LamClient::connect(&net, "nowhere", "db", Duration::from_millis(100)).is_err());
    }

    #[test]
    fn partitioned_site_yields_error_status() {
        let (net, _lam) = setup();
        let mut client =
            LamClient::connect(&net, "site1", "avis", Duration::from_millis(200)).unwrap();
        net.partition(client.link.endpoint.name(), "site1");
        let task = dol::TaskDef {
            name: "T1".into(),
            service: "a".into(),
            nocommit: false,
            verb: TaskVerb::Run,
            commands: vec!["SELECT code FROM cars".into()],
            compensation: vec![],
        };
        let exec = client.execute_task(&task);
        assert_eq!(exec.status, TaskStatus::Error);
        assert!(exec.error.unwrap().contains("partition"));
    }

    #[test]
    fn schema_fetch_via_client() {
        let (net, _lam) = setup();
        let client = LamClient::connect(&net, "site1", "avis", TEST_TIMEOUT).unwrap();
        let tables = client.fetch_schema().unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].name, "cars");
    }

    #[test]
    fn factory_builds_working_service() {
        let (net, _lam) = setup();
        let factory = LamFactory::new(net.clone(), TEST_TIMEOUT);
        let mut svc = factory.connect("avis", "site1").unwrap();
        let task = dol::TaskDef {
            name: "Q".into(),
            service: "a".into(),
            nocommit: false,
            verb: TaskVerb::Run,
            commands: vec!["SELECT code FROM cars".into()],
            compensation: vec![],
        };
        assert_eq!(svc.execute_task(&task).status, TaskStatus::Committed);
        assert!(factory.connect("avis", "ghost_site").is_err());
    }

    #[test]
    fn lenient_factory_degrades_unreachable_service_to_error_tasks() {
        let (net, _lam) = setup();
        let mut factory = LamFactory::new(net.clone(), TEST_TIMEOUT);
        factory.tolerate_unreachable = true;
        let mut svc = factory.connect("void", "ghost_site").unwrap();
        let task = dol::TaskDef {
            name: "NV".into(),
            service: "v".into(),
            nocommit: false,
            verb: TaskVerb::Run,
            commands: vec!["SELECT 1".into()],
            compensation: vec![],
        };
        let exec = svc.execute_task(&task);
        assert_eq!(exec.status, TaskStatus::Error);
        assert!(exec.error.unwrap().contains("unreachable"));
        let output = exec.result.unwrap();
        assert_eq!((output.attempts, output.fault), (0, Some(FaultKind::Terminal)));
        assert!(svc.commit_task("NV").is_ok(), "no-op on a task that never ran");
        assert_eq!(factory.stats.lock().terminal_faults, 1);
    }

    #[test]
    fn retry_recovers_from_forced_request_drop() {
        let net = Network::with_seed(11);
        let (net, _lam) = setup_on(net);
        let stats = shared_stats();
        let client = LamClient::connect_with(
            &net,
            "site1",
            "avis",
            Duration::from_millis(100),
            RetryPolicy::retries(4),
            SharedExecStats::clone(&stats),
        )
        .unwrap();
        // The next client→LAM message is lost; the retry must succeed.
        net.drop_next(client.link.endpoint.name(), "site1", 1);
        let resp = client.call(Request::Ping).unwrap();
        assert_eq!(resp, Response::Ok);
        let s = stats.lock();
        assert_eq!(s.retries, 1, "exactly one resend");
        assert_eq!(s.transient_faults, 1);
        assert_eq!(s.recovered, 1);
    }

    #[test]
    fn retry_recovers_from_lost_reply_without_reexecuting() {
        let net = Network::with_seed(12);
        let (net, lam) = setup_on(net);
        let client = LamClient::connect_with(
            &net,
            "site1",
            "avis",
            Duration::from_millis(100),
            RetryPolicy::retries(4),
            shared_stats(),
        )
        .unwrap();
        // The LAM's *reply* is lost: the update commits locally, the ack
        // does not arrive. Without a re-ask this misreports an abort.
        net.drop_next("site1", client.link.endpoint.name(), 1);
        let resp = client
            .call(Request::Task {
                name: "T1".into(),
                mode: TaskMode::Auto,
                database: "avis".into(),
                commands: vec!["UPDATE cars SET rate = rate + 1 WHERE code = 1".into()],
            })
            .unwrap();
        assert!(
            matches!(resp, Response::TaskDone { status: 'C', affected: 1, .. }),
            "re-ask reports the commit: {resp:?}"
        );
        // Dedup at the server: the update ran once, not twice.
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
    fn no_retry_policy_fails_on_drop() {
        let net = Network::with_seed(13);
        let (net, _lam) = setup_on(net);
        let client = LamClient::connect(&net, "site1", "avis", Duration::from_millis(50)).unwrap();
        net.drop_next(client.link.endpoint.name(), "site1", 1);
        let err = client.call(Request::Ping).unwrap_err();
        assert!(matches!(err, MdbsError::Net(_)), "single attempt times out: {err:?}");
    }

    #[test]
    fn lost_commit_acks_surface_in_doubt() {
        let net = Network::with_seed(14);
        let (net, lam) = setup_on(net);
        let mut client = LamClient::connect_with(
            &net,
            "site1",
            "avis",
            Duration::from_millis(50),
            RetryPolicy::retries(3),
            shared_stats(),
        )
        .unwrap();
        let task = dol::TaskDef {
            name: "T1".into(),
            service: "a".into(),
            nocommit: true,
            verb: TaskVerb::Run,
            commands: vec!["UPDATE cars SET rate = 60 WHERE code = 1".into()],
            compensation: vec![],
        };
        assert_eq!(client.execute_task(&task).status, TaskStatus::Prepared);
        // Every commit acknowledgement is lost; the commit itself lands.
        net.set_link_drop_probability("site1", client.link.endpoint.name(), 1.0);
        let err = client.commit_task("T1").unwrap_err();
        assert!(
            matches!(err, DolError::InDoubt { ref service, ref task }
                if service == "site1" && task == "T1"),
            "expected InDoubt, got {err:?}"
        );
        // Mapped across the DOL boundary with the variant intact.
        let mdbs: MdbsError = err.into();
        assert!(matches!(mdbs, MdbsError::InDoubt { ref site, ref task }
            if site == "site1" && task == "T1"));
        // The LAM really did commit — recovery's re-ask would find 'C'.
        net.set_link_drop_probability("site1", client.link.endpoint.name(), 0.0);
        let resolve = dol::TaskDef { verb: TaskVerb::Resolve(true), ..task };
        assert_eq!(client.execute_task(&resolve).status, TaskStatus::Committed);
        let rate = {
            let mut e = lam.engine.lock();
            e.execute("avis", "SELECT rate FROM cars WHERE code = 1")
                .unwrap()
                .into_result_set()
                .unwrap()
                .rows[0][0]
                .clone()
        };
        assert_eq!(rate, ldbs::value::Value::Float(60.0));
    }

    #[test]
    fn dead_lam_commit_is_not_in_doubt() {
        let (net, lam) = setup();
        let mut client = LamClient::connect(&net, "site1", "avis", TEST_TIMEOUT).unwrap();
        let task = dol::TaskDef {
            name: "T1".into(),
            service: "a".into(),
            nocommit: true,
            verb: TaskVerb::Run,
            commands: vec!["UPDATE cars SET rate = 70 WHERE code = 1".into()],
            compensation: vec![],
        };
        assert_eq!(client.execute_task(&task).status, TaskStatus::Prepared);
        lam.shutdown();
        let err = client.commit_task("T1").unwrap_err();
        assert!(
            matches!(err, DolError::Service(ref m) if m.contains("unavailable")),
            "terminal fault is a plain service error, got {err:?}"
        );
    }

    #[test]
    fn a_client_dropped_with_an_unread_posted_reply_is_closed_not_pooled() {
        let (net, _lam) = setup();
        let factory = LamFactory::new(net.clone(), TEST_TIMEOUT);
        let read = factory.checkout("site1", "avis").unwrap();
        let unread = factory.checkout("site1", "avis").unwrap();
        let posted = read.post(&Request::Ping, &Span::disabled());
        assert_eq!(read.finish(posted, &Span::disabled()).0.unwrap().0, Response::Ok);
        let _abandoned = unread.post(&Request::Ping, &Span::disabled());
        drop((read, unread));
        // The reply still owed to the second client must never be found in a
        // pooled mailbox by the next statement: only the first link is back.
        assert_eq!(factory.pool.idle_connections(), 1);
        let next = factory.checkout("site1", "avis").unwrap();
        assert_eq!(next.call(Request::Ping).unwrap(), Response::Ok);

        // The same holds for a step the DOL engine posted and never finished.
        let mut svc = factory.checkout("site1", "avis").unwrap();
        DolService::post(&mut svc, dol::Step::Commit("T9"), &Span::disabled());
        drop((next, svc));
        assert_eq!(factory.pool.idle_connections(), 1);
    }

    #[test]
    fn a_posted_reply_that_never_arrives_is_a_net_fault_retried_per_policy() {
        let (net, _lam) = setup_on(Network::with_seed(15));
        let timeout = Duration::from_millis(100);
        for (retry, recovers) in [(RetryPolicy::retries(3), true), (RetryPolicy::none(), false)] {
            let client =
                LamClient::connect_with(&net, "site1", "avis", timeout, retry, shared_stats())
                    .unwrap();
            net.drop_next("site1", client.link.endpoint.name(), 1);
            let posted = client.post(&Request::Ping, &Span::disabled());
            // The first attempt's timeout runs from its send: by now it has
            // expired, and finishing does not wait for it again.
            std::thread::sleep(timeout);
            let start = Instant::now();
            let (result, attempts, faults) = client.finish(posted, &Span::disabled());
            assert!(start.elapsed() < timeout, "{:?}", start.elapsed());
            assert_eq!(faults, vec![FaultKind::Transient]);
            if recovers {
                assert_eq!((result.unwrap().0, attempts), (Response::Ok, 2));
            } else {
                assert!(matches!(result, Err(MdbsError::Net(_))), "{result:?}");
                assert_eq!(attempts, 1);
            }
        }
    }

    #[test]
    fn dead_lam_yields_lam_unavailable_not_timeout() {
        let (net, lam) = setup();
        let client = LamClient::connect(&net, "site1", "avis", TEST_TIMEOUT).unwrap();
        lam.shutdown(); // deregisters the site
        let start = Instant::now();
        let err = client.call(Request::Ping).unwrap_err();
        assert!(
            matches!(err, MdbsError::LamUnavailable { ref site } if site == "site1"),
            "expected LamUnavailable, got {err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "terminal faults fail fast, no timeout wait"
        );
    }
}
