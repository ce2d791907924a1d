//! Local Access Managers — the client side: the *talk* third of
//! plan → sequence → talk.
//!
//! A [`LamClient`] is one open connection from the DOL engine to a remote
//! LAM: it implements [`dol::DolService`] by shipping [`crate::proto`]
//! requests over the simulated network, and adds the data-flow operations
//! the executor needs (schema fetch, a join's partials and its combine at the
//! coordinator). It is the only client-side module that names a protocol
//! message: the facade and the executor call its typed methods and get Rust
//! values back (`ci.sh` gates that), and a deferred global transaction's
//! members are tasks of the executor's programs (`Vote`).
//!
//! Connections are session-scoped: a [`ConnectionPool`] keeps the links a
//! session has opened, keyed by `(site, database)`, and
//! [`LamFactory::checkout`] — the one way the federation gets a connection —
//! reuses an idle link instead of paying the `PING` handshake again.

use crate::codec::{self, WireFormat};
use crate::error::MdbsError;
use crate::proto::{self, RowsRequest as Request, RowsResponse as Response, TaskMode};
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

/// What a task produced besides its status.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskOutput {
    /// Rows affected by the task's DML commands.
    pub affected: u64,
    /// Result set of its last SELECT, if any.
    pub rows: Option<ResultSet>,
}

/// The outputs of one DOL program's tasks, by task name. The services one
/// [`LamFactory`] opens share it, so a task's rows reach whoever ran the
/// program as rows — DOL itself only carries statuses and errors.
pub type TaskOutputs = Arc<Mutex<HashMap<String, TaskOutput>>>;

/// A decoded reply plus the byte size of the payload block that carried its
/// result set on the wire (0 when it carried none).
pub type Reply = (Response, usize);

/// The outcome of one site's partial of a cross-database join.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialResult {
    /// Result set of the (possibly reduced or pushed-down) subquery.
    pub rows: ResultSet,
    /// Rows the baseline subquery would have shipped (0 when unmeasured).
    pub full_rows: u64,
    /// Bytes the rewrite kept off the wire — the baseline's payload block
    /// minus the one that carried `rows`, in the connection's wire format —
    /// when a baseline was measured.
    pub saved: Option<u64>,
    /// Access path the local engine took (`probe` or `scan`), when reported.
    pub access: Option<String>,
}

/// What one autocommit task came to at its LAM ([`LamClient::run_commands`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskReply {
    /// The LAM's verdict: `'C'` committed, `'A'` aborted.
    pub status: char,
    /// Rows affected by the task's DML commands.
    pub affected: u64,
    /// The local error of an aborted task.
    pub error: Option<String>,
}

impl TaskReply {
    /// For a task that had to commit: an abort becomes `database`'s local
    /// error, in the site's words (or "`what` failed" when it gave none).
    pub fn committed(self, database: &str, what: &str) -> Result<Self, MdbsError> {
        if self.status == 'C' {
            return Ok(self);
        }
        Err(MdbsError::Local {
            service: database.to_string(),
            message: self.error.unwrap_or_else(|| format!("{what} failed")),
        })
    }
}

/// What a task of a deferred global transaction's member (§3.2.2) sends in
/// place of an ordinary `TASK`: its subtransaction stays open at the LAM
/// across statements, under the task's name, whatever connection reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
}

/// A run's [`Vote`]s, by task name, each with the rows its member's
/// statements affected so far — what a vote reports, since `PREPARE` carries
/// no count. Empty for every program that is not a member's.
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
    /// engine's next call on this connection.
    posted: Option<Posted>,
    site: String,
    /// The database this connection is opened on.
    pub database: String,
    timeout: Duration,
    /// Transient-fault retry policy (default: a single attempt).
    retry: RetryPolicy,
    /// Shared fault/retry accounting.
    stats: SharedExecStats,
    /// Metrics sink for `lam.*` series (a private registry unless attached
    /// to a federation's via [`Self::set_metrics`]).
    metrics: MetricsRegistry,
    /// Encoding used for requests (the server mirrors it in replies). Text
    /// unless negotiated up via [`Self::set_wire_format`].
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
pub(crate) struct Posted {
    id: u64,
    /// The encoded request; every attempt sends these bytes.
    framed: Body,
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

    /// Points the client's `lam.*` metric series at a shared registry.
    pub fn set_metrics(&mut self, metrics: MetricsRegistry) {
        self.metrics = metrics;
    }

    /// Switches the request encoding. The LAM mirrors whatever format each
    /// request arrives in, so this needs no server-side coordination and may
    /// change between calls.
    pub fn set_wire_format(&mut self, format: WireFormat) {
        self.wire_format = format;
    }

    /// The request encoding in use.
    pub fn wire_format(&self) -> WireFormat {
        self.wire_format
    }

    /// Sends one logical request and waits for its response, retrying
    /// transient faults per the client's [`RetryPolicy`].
    pub fn call(&self, req: Request) -> Result<Response, MdbsError> {
        self.call_traced(&req, &Span::disabled()).0.map(|(resp, _)| resp)
    }

    /// Like [`Self::call`], opening one `rpc` child of `span` per attempt
    /// (annotated with the fault that killed it, if any) and also returning
    /// how many attempts were spent, every fault observed across them, and
    /// the wire size of the reply's payload block.
    ///
    /// Every attempt of one logical call shares a correlation id, so the
    /// LAM server executes the request at most once no matter how often it
    /// is resent — state-changing requests (`Task`, `Commit`, `Abort`,
    /// `Exec`, `Compensate`) are as safe to retry as reads. A lost
    /// `Commit` acknowledgement in particular is re-asked here rather than
    /// misreported as an abort. Only `Shutdown` is never retried.
    pub fn call_traced(
        &self,
        req: &Request,
        span: &Span,
    ) -> (Result<Reply, MdbsError>, u32, Vec<FaultKind>) {
        self.finish(self.post(req, span), span)
    }

    /// The first half of a call: encodes `req` once (every retry resends the
    /// same bytes), takes its correlation id and makes the first attempt's
    /// send under an `rpc` child of `span`. The reply is left for
    /// [`Self::finish`], so a caller can post to several LAMs before it waits
    /// for any. Until then the connection is not pooled again: a client
    /// dropped with a reply unread is closed.
    pub(crate) fn post(&self, req: &Request, span: &Span) -> Posted {
        let id = REQUEST_SEQ.fetch_add(1, Ordering::Relaxed);
        let encode_start = Instant::now();
        let framed: Body = match self.wire_format {
            WireFormat::Text => Body::Text(proto::encode_with_correlation(id, &req.encode())),
            WireFormat::Binary => Body::Binary(codec::encode_request(&self.pool, Some(id), req)),
        };
        self.metrics.observe(
            &labeled("wire.encode_us", "format", self.wire_format.label()),
            encode_start.elapsed().as_micros() as u64,
        );
        let max_attempts =
            if matches!(req, Request::Shutdown) { 1 } else { self.retry.max_attempts.max(1) };
        let deadline = Instant::now() + self.retry.deadline;
        self.unread.fetch_add(1, Ordering::Relaxed);
        let rpc = span.child("rpc");
        rpc.note("attempt", 1);
        let sent = self.send(&framed);
        Posted { id, framed, max_attempts, deadline, first: Some((rpc, sent)) }
    }

    /// The second half of a call: reads the reply of what [`Self::post`]
    /// sent — the first attempt's timeout counts from its send — and runs
    /// the retry loop from there, opening each further attempt's `rpc` span
    /// under `span`.
    pub(crate) fn finish(
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
                    (rpc, self.send(&posted.framed))
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

    /// One attempt's send; returns when it went out.
    fn send(&self, framed: &Body) -> Result<Instant, AttemptError> {
        self.link.endpoint.send(&self.site, framed.clone()).map_err(AttemptError::Net)?;
        Ok(Instant::now())
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
    /// asked for: a refusal (`ERR`) is this site's local error, anything else
    /// a protocol violation naming the exchange (`what`).
    fn refused<T>(&self, what: &str, reply: Response) -> Result<T, MdbsError> {
        match reply {
            Response::Err { message } => {
                Err(MdbsError::Local { service: self.site.clone(), message })
            }
            other => Err(MdbsError::Wire(format!("unexpected {what} reply: {other:?}"))),
        }
    }

    /// Runs `commands` on this connection's database as one autocommit task
    /// named `name` — how the federation ships a statement that is no DOL
    /// program: DDL, `ANALYZE`, a transfer's INSERT batches. `span` gets the
    /// attempts spent.
    pub fn run_commands(
        &self,
        name: &str,
        commands: Vec<String>,
        span: &Span,
    ) -> Result<TaskReply, MdbsError> {
        let req = Request::Task {
            name: name.to_string(),
            mode: TaskMode::Auto,
            database: self.database.clone(),
            commands,
        };
        let (result, attempts, _faults) = self.call_traced(&req, span);
        span.note("attempts", attempts);
        match result?.0 {
            Response::TaskDone { status, affected, error, .. } => {
                Ok(TaskReply { status, affected, error })
            }
            other => self.refused("task", other),
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

    /// Posts one site subquery of a decomposed cross-database join to the
    /// LAM, whose reply [`Self::finish_partial`] reads. `pushed` marks a
    /// pre-aggregating or top-k site query of a pushdown plan (`PARTIALAGG`)
    /// rather than a plain, possibly semi-join-reduced one (`PARTIAL`). When
    /// `baseline` is set — `EXPLAIN` only — the LAM also measures, without
    /// shipping, the subquery the classic plan would have run, so the savings
    /// are quantifiable.
    pub(crate) fn post_partial(
        &self,
        sql: &str,
        baseline: Option<&str>,
        pushed: bool,
        span: &Span,
    ) -> Posted {
        let (database, sql, baseline) =
            (self.database.clone(), sql.to_string(), baseline.map(str::to_string));
        let req = if pushed {
            Request::PartialAgg { database, sql, baseline }
        } else {
            Request::Partial { database, sql, baseline }
        };
        self.post(&req, span)
    }

    /// Reads a posted partial's result set, annotating `span` and the
    /// `lam.*` metrics with the shipped volume.
    pub(crate) fn finish_partial(
        &self,
        posted: Posted,
        span: &Span,
    ) -> Result<PartialResult, MdbsError> {
        let (result, attempts, faults) = self.finish(posted, span);
        self.record_obs(span, attempts, &faults);
        let (resp, bytes) = result?;
        let (rows, full_rows, full_bytes, access) = match resp {
            Response::PartialDone {
                payload: Some(rows),
                error: None,
                full_rows,
                full_bytes,
                access,
            } => (rows, full_rows, full_bytes, access),
            Response::PartialAggDone {
                payload: Some(rows),
                error: None,
                full_rows,
                full_bytes,
                ..
            } => (rows, full_rows, full_bytes, None),
            Response::PartialDone { error: Some(message), .. }
            | Response::PartialAggDone { error: Some(message), .. } => {
                return Err(MdbsError::Local { service: self.site.clone(), message });
            }
            other => return self.refused("partial", other),
        };
        self.record_shipped(span, &rows, bytes);
        let saved = (full_bytes > 0).then(|| full_bytes.saturating_sub(bytes as u64));
        Ok(PartialResult { rows, full_rows, saved, access })
    }

    /// The coordinator's share of a cross-database join in one `COMBINE`:
    /// this connection's database materialises `home` — `(temp table,
    /// subquery)`, its own partial — loads the travelled `parts`, evaluates Q′
    /// (`sql`) over the temporaries and drops them before replying. Returns
    /// Q′'s rows and the bytes `baseline` (as in [`Self::post_partial`]) showed
    /// the home key filter to save; `home_span` is the unshipped partial's.
    pub fn combine(
        &self,
        home: (String, String),
        parts: Vec<(String, ResultSet)>,
        sql: &str,
        baseline: Option<&str>,
        (span, home_span): (&Span, &Span),
    ) -> Result<(ResultSet, u64), MdbsError> {
        let (database, baseline) = (self.database.clone(), baseline.map(str::to_string));
        let req = Request::Combine { database, home: Some(home), parts, sql: sql.into(), baseline };
        let (result, attempts, faults) = self.call_traced(&req, span);
        self.record_obs(span, attempts, &faults);
        match result? {
            (Response::CombineDone { payload, home_rows, access, saved }, bytes) => {
                let rows = payload.unwrap_or_default();
                span.note("bytes", bytes);
                span.note("rows", rows.rows.len());
                home_span.note("db", &self.database);
                home_span.note("rows", home_rows);
                home_span.note("bytes", 0);
                if let Some(access) = access {
                    home_span.note("access", access);
                }
                Ok((rows, saved))
            }
            (other, _) => self.refused("combine", other),
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

    /// Notes a shipped result set on `span` and the `lam.*` volume counters;
    /// `bytes` is the size of the payload block that carried it.
    fn record_shipped(&self, span: &Span, rows: &ResultSet, bytes: usize) {
        span.note("rows", rows.rows.len());
        span.note("bytes", bytes);
        let db = self.database.as_str();
        self.metrics.counter_add(&labeled("lam.rows", "db", db), rows.rows.len() as u64);
        self.metrics.counter_add(&labeled("lam.bytes", "db", db), bytes as u64);
    }

    /// The [`Vote`] of `task`, if it is a member's.
    fn vote(&self, task: &str) -> Option<(Vote, u64)> {
        self.votes.get(task).copied()
    }

    /// The request that runs `task` on this connection: the task itself, or
    /// what its [`Vote`] sends instead.
    fn task_request(&self, task: &dol::TaskDef) -> Request {
        let (name, commands) = (task.name.clone(), task.commands.clone());
        let mode = match self.vote(&name) {
            Some((Vote::Prepare, _)) => return Request::Prepare { task: name },
            Some((Vote::Abort, _)) => return Request::Abort { task: name },
            Some((Vote::Exec, _)) => return Request::Exec { task: name, commands },
            Some((Vote::Hold, _)) => TaskMode::Hold,
            _ if task.nocommit => TaskMode::NoCommit,
            _ => TaskMode::Auto,
        };
        Request::Task { name, mode, database: self.database.clone(), commands }
    }

    /// Runs a task on the LAM — or reads the reply of the one
    /// [posted](DolService::post) — its affected-row count and rows going to
    /// [`Self::outputs`] under the task's name. A member's task sends what
    /// its [`Vote`] says, and one with nothing to send sends nothing.
    fn run_task(&mut self, task: &dol::TaskDef, span: &Span) -> TaskExecution {
        let vote = self.vote(&task.name);
        if let Some((Vote::Settled(status), affected)) = vote {
            return settled(&self.outputs, &task.name, status, affected);
        }
        let posted = match self.posted.take() {
            Some(posted) => posted,
            None => LamClient::post(self, &self.task_request(task), span),
        };
        let (result, attempts, faults) = self.finish(posted, span);
        self.record_obs(span, attempts, &faults);
        self.stats.lock().record_task(&task.name, attempts, faults.last().copied());
        match result {
            Ok((Response::TaskDone { status, affected, payload, error }, bytes)) => {
                // `E`: a held subtransaction ran its commands and stays open.
                let status = match status {
                    'P' | 'E' => TaskStatus::Prepared,
                    'C' => TaskStatus::Committed,
                    'A' => TaskStatus::Aborted,
                    _ => TaskStatus::Error,
                };
                // A vote carries no count: what the member's statements
                // affected is known here.
                let affected = match vote {
                    Some((Vote::Prepare, held)) if status == TaskStatus::Prepared => held,
                    _ => affected,
                };
                if affected > 0 {
                    span.note("affected", affected);
                }
                if let Some(rows) = &payload {
                    self.record_shipped(span, rows, bytes);
                }
                self.outputs
                    .lock()
                    .insert(task.name.clone(), TaskOutput { affected, rows: payload });
                TaskExecution { status, result: None, error }
            }
            // `ABORT` only acknowledges: the held subtransaction is rolled back.
            Ok((Response::Ok, _)) if matches!(vote, Some((Vote::Abort, _))) => {
                TaskExecution { status: TaskStatus::Aborted, result: None, error: None }
            }
            Ok((other, _)) => TaskExecution {
                status: TaskStatus::Error,
                result: None,
                error: Some(format!("unexpected reply: {other:?}")),
            },
            // Exhausted retries (or a terminal fault) surface as errors —
            // the global plan treats them like local aborts (paper §3.2:
            // "one or more LDBMSs may be forced to abort").
            Err(e) => TaskExecution {
                status: TaskStatus::Error,
                result: None,
                error: Some(e.to_string()),
            },
        }
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
            Some(posted) => posted,
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

    /// Recovery's outcome query: asks the LAM to settle `task` per the
    /// coordinator's logged decision and report the status it ended in
    /// (`'C'`/`'A'`). The LAM answers from its own state — committing or
    /// rolling back a still-prepared subtransaction, repeating a recorded
    /// outcome, or presuming abort for a task it never heard of.
    pub fn resolve_task_outcome(
        &self,
        task: &str,
        commit: bool,
        span: &Span,
    ) -> Result<char, MdbsError> {
        let req = Request::Resolve { task: task.to_string(), commit };
        let (result, attempts, faults) = self.call_traced(&req, span);
        self.record_obs(span, attempts, &faults);
        match result?.0 {
            Response::TaskDone { status, .. } => Ok(status),
            other => self.refused("resolve", other),
        }
    }

    /// Recovery's compensation path: runs the logged compensating commands
    /// for `task`. The LAM's `'K'` outcome memory makes this idempotent, so
    /// a recovery pass that repeats it (after losing the resolution record)
    /// cannot double-apply.
    pub fn compensate_commands(
        &self,
        task: &str,
        commands: &[String],
        span: &Span,
    ) -> Result<(), MdbsError> {
        let req = Request::Compensate {
            task: task.to_string(),
            database: self.database.clone(),
            commands: commands.to_vec(),
        };
        let (result, attempts, faults) = self.call_traced(&req, span);
        self.record_obs(span, attempts, &faults);
        match result?.0 {
            Response::Ok => Ok(()),
            other => self.refused("compensate", other),
        }
    }
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
        let req = match step {
            Step::Execute(task) if matches!(self.vote(&task.name), Some((Vote::Settled(_), _))) => {
                return
            }
            Step::Execute(task) => self.task_request(task),
            Step::Commit(task) => Request::Commit { task: task.to_string() },
            Step::Abort(task) => Request::Abort { task: task.to_string() },
        };
        self.posted = Some(LamClient::post(self, &req, span));
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
        self.phase_two(
            Request::Compensate {
                task: task.name.clone(),
                database: self.database.clone(),
                commands: task.compensation.clone(),
            },
            span,
        )
    }

    fn close(&mut self) {
        // The link goes back to its pool (or closes) in Drop.
    }
}

/// How the federation opens LAM connections: every `OPEN <database> AT
/// <site>` of a DOL program, every partial dispatch, coordinator collect and
/// direct catalog request is one [`Self::checkout`].
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
    /// outputs.
    pub(crate) outputs: TaskOutputs,
    /// What the member tasks of the program this factory serves send.
    pub(crate) votes: Votes,
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
        client.set_metrics(self.metrics.clone());
        client.set_wire_format(self.wire_format);
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
                Err(DolError::OpenFailed { service: service.to_string(), reason: e.to_string() })
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
        outputs.lock().insert(task.to_string(), TaskOutput { affected, rows: None });
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
        TaskExecution { status: TaskStatus::Error, result: None, error: Some(self.error.clone()) }
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
        assert_eq!(client.resolve_task_outcome("T1", true, &Span::disabled()).unwrap(), 'C');
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
