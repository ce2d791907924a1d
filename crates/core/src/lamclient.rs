//! Local Access Managers — the client side: the *talk* third of
//! plan → sequence → talk.
//!
//! A [`LamClient`] is one open connection from the DOL engine to a remote
//! LAM: it implements [`dol::DolService`] by shipping [`crate::proto`]
//! requests over the simulated network, and adds the catalog reads the
//! facade needs (schema and statistics fetch). It is the only client-side
//! module that names a protocol message: the facade and the executor call
//! its typed methods and get Rust values back (`ci.sh` gates that). Past the
//! catalog reads, everything the coordinator ships is a task of a DOL
//! program; a deferred global transaction's members, recovery's resolutions
//! and a cross-database join's partials and `COMBINE` are tasks whose
//! [`Vote`] says what they send. A join's `COMBINE` task sends more than its
//! own request: it posts, beside it and under its correlation id, a `SHIP`
//! to each partial's site that travels straight to the coordinator's LAM,
//! and it resends all of them on a retry. No partial's rows pass through
//! here on their way to the coordinator: a travelling partial's task reads
//! what became of its rows from the `COMBINE`'s one reply.
//!
//! Connections are session-scoped: a [`ConnectionPool`] keeps the links a
//! session has opened, keyed by `(site, database)`, and
//! [`LamFactory::checkout`] — the one way the federation gets a connection —
//! reuses an idle link instead of paying the `PING` handshake again.

use crate::codec::{self, WireFormat};
use crate::error::MdbsError;
use crate::proto::TaskMode;
use crate::proto::{self, CombineReport, HomeEdge, PartDone};
use crate::proto::{RowsRequest as Request, RowsResponse as Response};
use crate::retry::{shared_stats, RetryPolicy, SharedExecStats};
use dol::engine::TaskExecution;
use dol::TaskStatus;
use dol::{DolError, DolService, ServiceFactory, Step};
use ldbs::engine::ResultSet;
use netsim::{Body, BufferPool, Endpoint, FaultKind, NetError, Network};
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

/// What a task produced besides its status.
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
    /// the task — or a travelled partial's site failed the `COMBINE`.
    pub error: Option<MdbsError>,
    /// What a join's `COMBINE` said besides Q′'s rows. Boxed: every task's
    /// output is moved about, and only a join's carries this.
    pub(crate) join: Option<Box<JoinReport>>,
}

/// A join's `COMBINE` reply, as its program's tasks leave it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JoinReport {
    /// On a partial that travelled straight to the coordinator, left under
    /// the partial's task, with the attempts the exchange took.
    Travelled(PartDone, u32),
    /// On the edges into the home subquery, left under the `COMBINE`'s task:
    /// the reducer's distinct keys on each and whether they reduced it.
    Reduced(Vec<(u64, bool)>),
}

/// The outputs of one DOL program's tasks, by task name. The services one
/// [`LamFactory`] opens share it, so a task's rows reach whoever ran the
/// program as rows — DOL itself only carries statuses and errors.
pub type TaskOutputs = Arc<Mutex<HashMap<String, TaskOutput>>>;

/// A decoded reply plus the byte size of the payload block that carried its
/// result set on the wire (0 when it carried none).
pub type Reply = (Response, usize);

/// What a task sends in place of an ordinary `TASK`: a deferred global
/// transaction's member (§3.2.2) names a subtransaction open at the LAM
/// across statements under the task's name whatever connection reaches it, a
/// task of an interrupted multitransaction is settled by recovery (DESIGN
/// §3a.4), and a cross-database join's task evaluates a partial or combines
/// them (§3a.14).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Vote {
    /// The member's first statement: `TASK … HOLD` opens the subtransaction
    /// and runs the commands in it (`E`, read as prepared, or `A`).
    Hold,
    /// A later statement: `EXEC` runs the commands in the open one.
    Exec,
    /// The synchronization point's vote: `PREPARE` it — `P`, or `A` when the
    /// vote fails.
    Prepare,
    /// The coordinator is rolling back: abort it without asking.
    Abort,
    /// Nothing to send: the task ends in this status (a member whose
    /// statements autocommitted as they ran).
    Settled(TaskStatus),
    /// Recovery: `RESOLVE` the task per the logged decision — commit it if
    /// set — and end in the status the LAM answers from its own state (`C`,
    /// `A`, or `K` once compensated).
    Resolve(bool),
    /// Recovery: `COMPENSATE` the committed task with its logged commands
    /// (`K`). The LAM's `K` memory makes a repeat harmless.
    Compensate,
    /// A join site's partial whose rows come back here: a pushed-down site's
    /// `PARTIALAGG` of the task's command, `EXPLAIN` measuring `baseline`
    /// beside it — or, with `echo`, `(site, key)`, a reducer whose keys filter
    /// another travelling site: a `SHIP … ECHO`, whose rows also travel
    /// straight to the coordinator's LAM there, keyed for its `COMBINE`.
    /// `notes` are the plan's side of its `lam:partial:<db>` span.
    Partial {
        baseline: Option<String>,
        notes: Vec<(&'static str, String)>,
        echo: Option<(String, u64)>,
    },
    /// A partial that travels straight to the coordinator's LAM: nothing to
    /// send — the `COMBINE`'s task ships it — and it ends as the `COMBINE`'s
    /// reply reports. `measured` when `EXPLAIN` sent its baseline.
    Direct { measured: bool, notes: Vec<(&'static str, String)> },
    /// The join's coordinator: one `COMBINE` of Q′, the task's command, under
    /// correlation id `key`, over its own partial — `home`, reduced there
    /// along `edges`, measured under `EXPLAIN` — and those of `travellers`,
    /// each shipped straight to it. `notes` are its `lam:combine:<db>` span's,
    /// then its own partial's.
    Combine {
        key: u64,
        home: String,
        measure: bool,
        travellers: Vec<Traveller>,
        edges: Vec<HomeEdge>,
        notes: [Vec<(&'static str, String)>; 2],
    },
}

/// A partial the `COMBINE`'s task ships: its site, database, subquery and
/// the baseline `EXPLAIN` measures beside it. `posted` is false for one
/// already on its way (a reducer's echo): only a resend ships it again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Traveller {
    pub site: String,
    pub database: String,
    pub sql: String,
    pub baseline: Option<String>,
    pub posted: bool,
}

/// A run's [`Vote`]s, by task name, each with the rows its member's
/// statements affected so far — what a vote reports, since `PREPARE` carries
/// no count. Empty for every program that is not a member's, recovery's or a
/// join's.
pub(crate) type Votes = Arc<HashMap<String, (Vote, u64)>>;

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
    /// engine's next call on this connection, with a join task's own spans.
    posted: Option<(Posted, Vec<Span>)>,
    /// The `lam:partial:<db>` span of a partial travelling straight to the
    /// coordinator, opened when the engine posted its task: it is in flight
    /// while the `COMBINE` is.
    travelling: Option<Span>,
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
    /// Lease pool for binary frame buffers.
    pool: BufferPool,
    /// Where the tasks this connection executes as a [`DolService`] leave
    /// their outputs (the factory's table when checked out from one).
    outputs: TaskOutputs,
    /// What the run's member tasks send (the factory's table).
    votes: Votes,
}

/// One attempt's failure: a classified network fault, or a protocol error
/// that no resend can fix.
enum AttemptError {
    Net(NetError),
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
            travelling: None,
            site: site.to_string(),
            database: database.to_string(),
            timeout,
            retry,
            stats,
            metrics: MetricsRegistry::new(),
            wire_format: WireFormat::default(),
            pool: BufferPool::default(),
            outputs: TaskOutputs::default(),
            votes: Votes::default(),
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
    fn post_as(
        &self,
        id: u64,
        req: &Request,
        ships: Vec<(String, Request, bool)>,
        span: &Span,
    ) -> Posted {
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
        let framed = match (self.wire_format, id) {
            (WireFormat::Text, Some(id)) => {
                Body::Text(proto::encode_with_correlation(id, &req.encode()))
            }
            (WireFormat::Text, None) => Body::Text(req.encode()),
            (WireFormat::Binary, id) => Body::Binary(codec::encode_request(&self.pool, id, req)),
        };
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
        let mut last_net: Option<NetError> = None;
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
                Err(AttemptError::Net(e)) => {
                    let kind = e.fault_kind();
                    rpc.note("fault", fault_label(kind));
                    self.suspect.store(true, Ordering::Relaxed);
                    faults.push(kind);
                    last_net = Some(e);
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
        let err = match faults.last().copied() {
            Some(FaultKind::Terminal) => MdbsError::LamUnavailable { site: self.site.clone() },
            _ => {
                let detail = last_net
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "retry deadline exceeded".to_string());
                MdbsError::Net(format!("{detail} (site `{}`, {attempts} attempt(s))", self.site))
            }
        };
        (Err(err), attempts, faults)
    }

    /// One attempt's sends — the request, then the `SHIP`s, the `first`
    /// attempt's only the flagged ones; returns when the request went out.
    /// The request goes first, so the coordinator's LAM always takes its
    /// `COMBINE` before the part a `SHIP` produces: which frame waits, and so
    /// every message a lossy schedule draws, is the same on every run.
    fn send(&self, posted: &Posted, first: bool) -> Result<Instant, AttemptError> {
        self.link.endpoint.send(&self.site, posted.framed.clone()).map_err(AttemptError::Net)?;
        let sent = Instant::now();
        for (site, ship, _) in posted.ships.iter().filter(|(.., flagged)| *flagged || !first) {
            self.link.endpoint.send(site, ship.clone()).map_err(AttemptError::Net)?;
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
            let msg = self.link.endpoint.recv_timeout(wait).map_err(AttemptError::Net)?;
            let decode_start = Instant::now();
            let (matched, format) = match &msg.body {
                Body::Text(text) => {
                    let (corr, body) = proto::split_correlation(text);
                    let matched = (corr == Some(id)).then(|| Response::decode_as(body));
                    (matched, WireFormat::Text)
                }
                Body::Binary(bytes) => {
                    let matched = (codec::peek_correlation(bytes) == Some(id)).then(|| {
                        codec::decode_response_as(bytes).map(|(_, resp, size)| (resp, size))
                    });
                    (matched, WireFormat::Binary)
                }
            };
            // A reply to an earlier attempt or an earlier logical call is
            // skipped; the server's dedup cache already answered (or will
            // answer) the live id.
            if let Some(result) = matched {
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
    /// Annotates a request's span with this client's communication telemetry
    /// and folds it into the `lam.*` metrics.
    fn record_obs(&self, span: &Span, attempts: u32, faults: &[FaultKind]) {
        span.note("db", &self.database);
        span.note("attempts", attempts);
        if let Some(kind) = faults.last() {
            span.note("fault", fault_label(*kind));
            span.note("faults", faults.len());
        }
        let db = self.database.as_str();
        self.metrics.counter_add(&labeled("lam.calls", "db", db), 1);
        self.metrics.counter_add(&labeled("lam.attempts", "db", db), u64::from(attempts.max(1)));
        self.metrics
            .counter_add(&labeled("lam.retries", "db", db), u64::from(attempts.saturating_sub(1)));
        self.metrics.counter_add(&labeled("lam.faults", "db", db), faults.len() as u64);
    }

    /// Notes a shipped result set of `rows` rows on `span` and the `lam.*`
    /// volume counters; `bytes` is the size of the payload block that carried
    /// it.
    fn record_shipped(&self, span: &Span, rows: usize, bytes: usize) {
        span.note("rows", rows);
        span.note("bytes", bytes);
        let db = self.database.as_str();
        self.metrics.counter_add(&labeled("lam.rows", "db", db), rows as u64);
        self.metrics.counter_add(&labeled("lam.bytes", "db", db), bytes as u64);
    }

    /// The request that runs `task` on this connection — the task itself, or
    /// what its [`Vote`] sends instead — and the spans a join's task opens
    /// under `span` for its exchange, innermost first so that they close in
    /// order: a partial's `lam:partial:<db>`, or the coordinator's own
    /// partial's under its `lam:combine:<db>`.
    fn task_request(&self, task: &dol::TaskDef, span: &Span) -> (Request, Vec<Span>) {
        let (name, commands, database) =
            (task.name.clone(), task.commands.clone(), self.database.clone());
        let mut spans: Vec<Span> = Vec::new();
        let mut open = |kind: &str, notes: &[(&str, String)]| {
            let child = spans.first().unwrap_or(span).child(format!("lam:{kind}:{database}"));
            notes.iter().for_each(|(key, value)| child.note(key, value));
            spans.insert(0, child);
        };
        let req = match self.votes.get(&name) {
            Some((Vote::Prepare, _)) => Request::Prepare { task: name },
            Some((Vote::Abort, _)) => Request::Abort { task: name },
            Some((Vote::Resolve(commit), _)) => Request::Resolve { task: name, commit: *commit },
            Some((Vote::Compensate, _)) => self.compensate_request(task),
            Some((Vote::Exec, _)) => Request::Exec { task: name, commands },
            Some((Vote::Partial { baseline, notes, echo }, _)) => {
                open("partial", notes);
                let (sql, baseline) = (commands.concat(), baseline.clone());
                match echo {
                    Some((to, key)) => ship_request(*key, to, database, sql, baseline, true),
                    None => Request::PartialAgg { database, sql, baseline },
                }
            }
            Some((Vote::Combine { home, measure, travellers, edges, notes, .. }, _)) => {
                open("combine", &notes[0]);
                open("partial", &notes[1]);
                Request::Combine {
                    database,
                    home: Some(home.clone()),
                    parts: travellers.iter().map(|t| t.database.clone()).collect(),
                    edges: edges.clone(),
                    sql: commands.concat(),
                    measure: *measure,
                }
            }
            vote => {
                let mode = match vote {
                    Some((Vote::Hold, _)) => TaskMode::Hold,
                    _ if task.nocommit => TaskMode::NoCommit,
                    _ => TaskMode::Auto,
                };
                Request::Task { name, mode, database, commands }
            }
        };
        (req, spans)
    }

    /// Posts `task`'s request under `span` — a `COMBINE` under its key, with
    /// a `SHIP` to each travelling partial's site — and opens its spans.
    fn post_task(&self, task: &dol::TaskDef, span: &Span) -> (Posted, Vec<Span>) {
        let (req, spans) = self.task_request(task, span);
        let traced = spans.last().unwrap_or(span);
        let posted = match self.votes.get(&task.name) {
            Some((Vote::Combine { key, travellers, .. }, _)) => {
                let ship = |t: &Traveller| {
                    let (database, sql, baseline) =
                        (t.database.clone(), t.sql.clone(), t.baseline.clone());
                    let ship = ship_request(*key, &self.site, database, sql, baseline, false);
                    (t.site.clone(), ship, t.posted)
                };
                self.post_as(*key, &req, travellers.iter().map(ship).collect(), traced)
            }
            _ => LamClient::post(self, &req, traced),
        };
        (posted, spans)
    }

    /// The `COMPENSATE` that undoes `task` with its compensating commands: a
    /// program's `COMPENSATE` step, or recovery's [`Vote::Compensate`].
    fn compensate_request(&self, task: &dol::TaskDef) -> Request {
        Request::Compensate {
            task: task.name.clone(),
            database: self.database.clone(),
            commands: task.compensation.clone(),
        }
    }

    /// Runs a task on the LAM — or reads the reply of the one
    /// [posted](DolService::post) — its affected-row count and rows going to
    /// [`Self::outputs`] under the task's name. A member's task sends what
    /// its [`Vote`] says, and one with nothing to send sends nothing.
    fn run_task(&mut self, task: &dol::TaskDef, span: &Span) -> TaskExecution {
        let votes = Votes::clone(&self.votes);
        let vote = votes.get(&task.name);
        match vote {
            Some(&(Vote::Settled(status), affected)) => {
                return settled(&self.outputs, &task.name, status, affected)
            }
            Some((Vote::Direct { measured, notes }, _)) => {
                return self.direct_done(task, *measured, notes, span)
            }
            _ => {}
        }
        let (posted, spans) = match self.posted.take() {
            Some(posted) => posted,
            None => self.post_task(task, span),
        };
        let traced = spans.last().unwrap_or(span);
        let (result, attempts, faults) = self.finish(posted, traced);
        self.record_obs(traced, attempts, &faults);
        self.stats.lock().record_task(&task.name, attempts, faults.last().copied());
        match result {
            Ok((reply, bytes)) if !spans.is_empty() => {
                self.join_done(task, vote, &spans, reply, bytes, attempts)
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
                // A vote carries no count: what the member's statements
                // affected is known here.
                let affected = match vote {
                    Some(&(Vote::Prepare, held)) if status == TaskStatus::Prepared => held,
                    _ => affected,
                };
                if affected > 0 {
                    span.note("affected", affected);
                }
                if let Some(rows) = &payload {
                    self.record_shipped(span, rows.rows.len(), bytes);
                }
                let output = TaskOutput { affected, rows: payload, ..TaskOutput::default() };
                self.outputs.lock().insert(task.name.clone(), output);
                TaskExecution { status, result: None, error }
            }
            // `ABORT` and `COMPENSATE` only acknowledge: the held
            // subtransaction is rolled back, the committed one undone.
            Ok((Response::Ok, _)) if matches!(vote, Some((Vote::Abort, _))) => {
                TaskExecution { status: TaskStatus::Aborted, result: None, error: None }
            }
            Ok((Response::Ok, _)) if matches!(vote, Some((Vote::Compensate, _))) => {
                TaskExecution { status: TaskStatus::Compensated, result: None, error: None }
            }
            // A refusal, in the site's words.
            Ok((Response::Err { message }, _)) => failed(message),
            Ok((other, _)) => failed(format!("unexpected reply: {other:?}")),
            // Exhausted retries (or a terminal fault) surface as errors —
            // the global plan treats them like local aborts (paper §3.2:
            // "one or more LDBMSs may be forced to abort") — and the output
            // keeps the exchange's own error for whoever cannot degrade.
            Err(e) => {
                let message = e.to_string();
                let output = TaskOutput { error: Some(e), ..TaskOutput::default() };
                self.outputs.lock().insert(task.name.clone(), output);
                failed(message)
            }
        }
    }

    /// A join task's reply, noted on its `spans`: a partial's rows, access
    /// path and unpushed rows, or Q′'s answer from the `COMBINE`, whose own
    /// partial crossed no network — the innermost span noting, with a measured
    /// baseline, the bytes a rewrite kept off the wire. A reply naming an
    /// error is the site's refusal, whatever else it carries; a `COMBINE`'s
    /// reports on the partials that travelled to it go to their tasks, and
    /// the first that names its site's error fails it in that site's words.
    fn join_done(
        &self,
        task: &dol::TaskDef,
        vote: Option<&(Vote, u64)>,
        spans: &[Span],
        reply: Response,
        bytes: usize,
        attempts: u32,
    ) -> TaskExecution {
        let (span, own) = (&spans[spans.len() - 1], &spans[0]);
        let saved_of = |full: u64| (full > 0).then(|| full.saturating_sub(bytes as u64));
        let mut join = None;
        let (rows, access, saved) = match reply {
            Response::PartialDone { error: Some(message), .. }
            | Response::PartialAggDone { error: Some(message), .. }
            | Response::Err { message } => return failed(message),
            Response::CombineDone { payload, home_rows, access, saved, report } => {
                let CombineReport { edges, parts } = *report;
                let Some((Vote::Combine { travellers, measure, .. }, _)) = vote else {
                    return failed("a COMBINE reply to another request".to_string());
                };
                let mut outputs = self.outputs.lock();
                let mut refused = None;
                for (traveller, part) in travellers.iter().zip(parts) {
                    if let (None, Some(message)) = (&refused, &part.error) {
                        let service = traveller.database.clone();
                        refused = Some(MdbsError::Local { service, message: message.clone() });
                    }
                    let output = TaskOutput {
                        join: Some(Box::new(JoinReport::Travelled(part, attempts))),
                        ..TaskOutput::default()
                    };
                    outputs.insert(traveller.database.clone(), output);
                }
                if let Some(error) = refused {
                    let message = error.to_string();
                    outputs.insert(
                        task.name.clone(),
                        TaskOutput { error: Some(error), ..TaskOutput::default() },
                    );
                    return failed(message);
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
                join = Some(Box::new(JoinReport::Reduced(edges)));
                (rows, access, (*measure && reduced).then_some(saved))
            }
            Response::PartialDone { payload: Some(rows), full_bytes, access, .. } => {
                self.record_shipped(span, rows.rows.len(), bytes);
                (rows, access, saved_of(full_bytes))
            }
            Response::PartialAggDone { payload: Some(rows), full_rows, full_bytes, .. } => {
                self.record_shipped(span, rows.rows.len(), bytes);
                if full_rows > 0 {
                    span.note("full_rows", full_rows);
                }
                (rows, None, saved_of(full_bytes))
            }
            other => return failed(format!("unexpected reply: {other:?}")),
        };
        self.note_partial(own, access, saved);
        let output = TaskOutput { rows: Some(rows), saved, join, ..TaskOutput::default() };
        self.outputs.lock().insert(task.name.clone(), output);
        TaskExecution::committed(None)
    }

    /// Notes a partial's access path and — with a measured baseline — the
    /// bytes its rewrite kept off the wire, on its span and in `lam.*`.
    fn note_partial(&self, span: &Span, access: Option<String>, saved: Option<u64>) {
        if let Some(access) = access {
            span.note("access", access);
        }
        if let Some(saved) = saved {
            span.note("saved", saved);
            self.metrics.counter_add(&labeled("lam.bytes_saved", "db", &self.database), saved);
        }
    }

    /// Opens a travelling partial's `lam:partial:<db>` span under `span`.
    fn open_partial(&self, notes: &[(&'static str, String)], span: &Span) -> Span {
        let child = span.child(format!("lam:partial:{}", self.database));
        notes.iter().for_each(|(key, value)| child.note(key, value));
        child
    }

    /// A partial that travelled straight to the coordinator: sends nothing,
    /// and ends as the `COMBINE`'s reply reported on it — noted on its
    /// `lam:partial:<db>` span like a partial that came back here, the
    /// `COMBINE`'s attempts being its own.
    fn direct_done(
        &mut self,
        task: &dol::TaskDef,
        measured: bool,
        notes: &[(&'static str, String)],
        span: &Span,
    ) -> TaskExecution {
        let child = self.travelling.take().unwrap_or_else(|| self.open_partial(notes, span));
        let report = self.outputs.lock().get_mut(&task.name).and_then(|o| o.join.take());
        let Some(JoinReport::Travelled(part, attempts)) = report.map(|report| *report) else {
            return failed(format!("no report on the partial of `{}`", self.database));
        };
        self.record_obs(&child, attempts, &[]);
        self.stats.lock().record_task(&task.name, attempts, None);
        if let Some(message) = part.error {
            return failed(message);
        }
        self.record_shipped(&child, part.rows as usize, part.bytes as usize);
        let saved = measured.then_some(part.saved);
        self.note_partial(&child, part.access, saved);
        self.outputs
            .lock()
            .insert(task.name.clone(), TaskOutput { saved, ..TaskOutput::default() });
        TaskExecution::committed(None)
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
            Some((posted, _)) => posted,
            None => LamClient::post(self, &req, span),
        };
        let (result, attempts, faults) = self.finish(posted, span);
        self.record_obs(span, attempts, &faults);
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

/// The `SHIP` that sends a partial's rows straight to the coordinator's LAM at
/// site `to`, for the `COMBINE` under correlation id `key` — echoed back here
/// too when `echo` is set.
fn ship_request(
    key: u64,
    to: &str,
    database: String,
    sql: String,
    baseline: Option<String>,
    echo: bool,
) -> Request {
    Request::Ship { key, to: to.to_string(), database, sql, baseline, echo }
}

/// A task that ended in `E`, `message` being its local error.
fn failed(message: String) -> TaskExecution {
    TaskExecution { status: TaskStatus::Error, result: None, error: Some(message) }
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

impl DolService for LamClient {
    fn post(&mut self, step: Step<'_>, span: &Span) {
        let (req, spans) = match step {
            Step::Execute(task) => match self.votes.get(&task.name) {
                Some((Vote::Settled(_), _)) => return,
                Some((Vote::Direct { notes, .. }, _)) => {
                    self.travelling = Some(self.open_partial(notes, span));
                    return;
                }
                _ => {
                    self.posted = Some(self.post_task(task, span));
                    return;
                }
            },
            Step::Commit(task) => (Request::Commit { task: task.to_string() }, Vec::new()),
            Step::Abort(task) => (Request::Abort { task: task.to_string() }, Vec::new()),
        };
        self.posted = Some((LamClient::post(self, &req, spans.last().unwrap_or(span)), spans));
    }

    fn execute_task(&mut self, task: &dol::TaskDef) -> TaskExecution {
        self.run_task(task, &Span::disabled())
    }

    fn execute_task_traced(&mut self, task: &dol::TaskDef, span: &Span) -> TaskExecution {
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
    /// Where the tasks of the program this factory serves leave their
    /// outputs, beside any an earlier program handed on; emptied by each run.
    pub(crate) outputs: TaskOutputs,
    /// What the member tasks of the program this factory serves send.
    pub(crate) votes: Votes,
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
            outputs: TaskOutputs::default(),
            votes: Votes::default(),
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
        client.outputs = TaskOutputs::clone(&self.outputs);
        client.votes = Votes::clone(&self.votes);
        client.metrics = self.metrics.clone();
        client.wire_format = self.wire_format;
        Ok(client)
    }
}

impl ServiceFactory for LamFactory {
    fn connect(&self, service: &str, site: &str) -> Result<Box<dyn DolService>, DolError> {
        match self.checkout(site, service) {
            Ok(client) => Ok(Box::new(client)),
            Err(e) if self.tolerate_unreachable => Ok(Box::new(UnreachableService {
                error: format!("site `{site}` unreachable: {e}"),
                stats: SharedExecStats::clone(&self.stats),
                outputs: TaskOutputs::clone(&self.outputs),
                votes: Votes::clone(&self.votes),
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
/// tasks that never ran are no-ops, a compensation fails. A member's task
/// whose [`Vote`] sends nothing ends as its vote says.
struct UnreachableService {
    error: String,
    stats: SharedExecStats,
    outputs: TaskOutputs,
    votes: Votes,
}

/// A member's task whose [`Vote::Settled`] vote sends nothing: it ends in
/// `status`, and a committed one reports what its statements affected.
fn settled(outputs: &TaskOutputs, task: &str, status: TaskStatus, affected: u64) -> TaskExecution {
    if status == TaskStatus::Committed {
        outputs.lock().insert(task.to_string(), TaskOutput { affected, ..TaskOutput::default() });
    }
    TaskExecution { status, result: None, error: None }
}

impl DolService for UnreachableService {
    fn execute_task(&mut self, task: &dol::TaskDef) -> TaskExecution {
        if let Some(&(Vote::Settled(status), affected)) = self.votes.get(&task.name) {
            return settled(&self.outputs, &task.name, status, affected);
        }
        // The terminal fault itself was counted by the failed connect; here
        // we only pin the task-level telemetry.
        self.stats.lock().record_task(&task.name, 0, Some(FaultKind::Terminal));
        failed(self.error.clone())
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
            commands: vec!["SELECT code FROM cars".into()],
            compensation: vec![],
        };
        let exec = client.execute_task(&task);
        assert_eq!(exec.status, TaskStatus::Committed);
        // DOL carries the status; the rows wait under the task's name.
        assert_eq!(exec.result, None);
        let output = client.outputs.lock().remove("Q1").unwrap();
        assert_eq!(output.affected, 0);
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
            commands: vec!["SELECT 1".into()],
            compensation: vec![],
        };
        let exec = svc.execute_task(&task);
        assert_eq!(exec.status, TaskStatus::Error);
        assert!(exec.error.unwrap().contains("unreachable"));
        assert!(svc.commit_task("NV").is_ok(), "no-op on a task that never ran");
        let stats = factory.stats.lock();
        assert_eq!(stats.terminal_faults, 1);
        assert_eq!(stats.task("NV").unwrap().fault, Some(netsim::FaultKind::Terminal));
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
        client.votes = Arc::new(HashMap::from([("T1".into(), (Vote::Resolve(true), 0))]));
        assert_eq!(client.execute_task(&task).status, TaskStatus::Committed);
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
