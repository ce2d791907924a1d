//! The engine ↔ LAM request/response protocol.
//!
//! One request message yields exactly one response message. Requests carry a
//! header line plus optional payload lines; SQL commands are escaped (so
//! they occupy one line each) with [`crate::wire::escape`].
//!
//! Messages are generic over how they hold a result set ([`Payload`]): the
//! LAM, its client and the executor exchange `Request<ResultSet>` /
//! `Response<ResultSet>` and the codecs serialise the rows exactly once at
//! the network boundary. The default parameter, `String`, is the frozen
//! text-payload shim described on [`Payload`].

use crate::codec::columnar;
use crate::codec::frame::{PAYLOAD_COLUMNAR, PAYLOAD_VERBATIM};
use crate::codec::varint::{write_str, Reader};
use crate::error::MdbsError;
use crate::planner::EdgeRule;
use crate::wire::{self, escape, unescape};
use ldbs::engine::ResultSet;

/// Frames a message body with a correlation id: `@<id>` on the first line,
/// the body after it. The id lets a retrying client match responses to the
/// logical request they answer (stale duplicates are discarded) and lets the
/// LAM server deduplicate resends: a retried request is executed at most
/// once, later copies are answered from a response cache. Bodies without the
/// prefix (hand-written test clients) pass through unchanged on both sides.
pub fn encode_with_correlation(id: u64, body: &str) -> String {
    format!("@{id}\n{body}")
}

/// Splits an optional correlation prefix off a message body. Returns the id
/// (if present and well-formed) and the remaining body.
pub fn split_correlation(body: &str) -> (Option<u64>, &str) {
    let Some(rest) = body.strip_prefix('@') else { return (None, body) };
    let Some((id_text, tail)) = rest.split_once('\n') else { return (None, body) };
    match id_text.parse::<u64>() {
        Ok(id) => (Some(id), tail),
        Err(_) => (None, body),
    }
}

/// How a result set rides inside a [`Request`] or [`Response`]: its text
/// form in a text body and its payload block in a binary frame.
///
/// [`ResultSet`] is the payload production code uses. `String` — a
/// `wire::encode_result_set` text — is a compatibility shim, frozen because
/// `fedbench/` (which a change claiming a gain may not edit), the text
/// goldens and the codec corpora build and match messages with text
/// payloads; it keeps the verbatim fallback for hand-built texts that are not
/// canonical. Both produce byte-identical messages for the same rows. The
/// shim goes once fedbench moves to the typed API.
pub trait Payload: Sized {
    /// Appends the text form to a message body.
    fn write_text(&self, out: &mut String);
    /// Reads the text form.
    fn from_text(text: &str) -> Result<Self, MdbsError>;
    /// Appends a payload block (tag byte + body) to a binary frame.
    fn write_block(&self, buf: &mut Vec<u8>);
    /// Reads a payload block.
    fn read_block(r: &mut Reader) -> Result<Self, MdbsError>;
}

impl Payload for ResultSet {
    fn write_text(&self, out: &mut String) {
        wire::write_result_set(out, self);
    }

    fn from_text(text: &str) -> Result<Self, MdbsError> {
        wire::decode_result_set(text)
    }

    fn write_block(&self, buf: &mut Vec<u8>) {
        buf.push(PAYLOAD_COLUMNAR);
        columnar::write_result_set(buf, self);
    }

    fn read_block(r: &mut Reader) -> Result<Self, MdbsError> {
        match r.u8()? {
            PAYLOAD_COLUMNAR => columnar::read_result_set(r),
            // A peer on the `String` shim sent a text that was not canonical.
            PAYLOAD_VERBATIM => wire::decode_result_set(&r.string()?),
            other => Err(MdbsError::Wire(format!("unknown payload block tag {other}"))),
        }
    }
}

impl Payload for String {
    fn write_text(&self, out: &mut String) {
        out.push_str(self);
    }

    fn from_text(text: &str) -> Result<Self, MdbsError> {
        Ok(text.to_string())
    }

    /// Canonical result-set texts go columnar, everything else ships verbatim
    /// so arbitrary strings survive exactly.
    fn write_block(&self, buf: &mut Vec<u8>) {
        match wire::decode_result_set(self) {
            Ok(rs) if wire::encode_result_set(&rs) == *self => rs.write_block(buf),
            _ => {
                buf.push(PAYLOAD_VERBATIM);
                write_str(buf, self);
            }
        }
    }

    fn read_block(r: &mut Reader) -> Result<Self, MdbsError> {
        match r.u8()? {
            PAYLOAD_VERBATIM => r.string(),
            PAYLOAD_COLUMNAR => Ok(wire::encode_result_set(&columnar::read_result_set(r)?)),
            other => Err(MdbsError::Wire(format!("unknown payload block tag {other}"))),
        }
    }
}

/// How a task's commands are committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskMode {
    /// Run inside one transaction and stop in prepared-to-commit.
    NoCommit,
    /// Autocommit each command.
    Auto,
    /// Open the task's transaction, run the commands in it and leave it open
    /// for later `EXEC`s and its `PREPARE` (a deferred global transaction's
    /// member, §3.2.2): `BEGIN` and the first `EXEC` in one request.
    Hold,
}

impl TaskMode {
    fn as_str(&self) -> &'static str {
        match self {
            TaskMode::NoCommit => "NOCOMMIT",
            TaskMode::Auto => "AUTO",
            TaskMode::Hold => "HOLD",
        }
    }
}

/// A request to a LAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request<P = String> {
    /// Execute more commands inside a transaction a `TASK … HOLD` opened.
    Exec {
        /// The task.
        task: String,
        /// SQL commands.
        commands: Vec<String>,
    },
    /// Vote: move a held transaction to prepared-to-commit.
    Prepare {
        /// The task.
        task: String,
    },
    /// Execute a task's commands against a database.
    Task {
        /// Task name (used later by Commit/Abort).
        name: String,
        /// Commit discipline.
        mode: TaskMode,
        /// Target database on the service.
        database: String,
        /// SQL commands in order.
        commands: Vec<String>,
    },
    /// Second commit phase for a prepared task.
    Commit {
        /// The task.
        task: String,
    },
    /// Roll a prepared task back.
    Abort {
        /// The task.
        task: String,
    },
    /// Recovery: settle an in-doubt prepared task per the coordinator's
    /// logged (or presumed-abort) decision. The LAM answers from its
    /// transaction state — `C`/`A` for a task it still holds prepared, its
    /// recorded outcome for a task it already settled, and `A` (presumed
    /// abort) for a task it never heard of or never prepared.
    Resolve {
        /// The task.
        task: String,
        /// True to commit, false to abort.
        commit: bool,
    },
    /// Run compensating commands (autocommit) for a committed task.
    Compensate {
        /// The task being compensated (for logging).
        task: String,
        /// Target database.
        database: String,
        /// The compensating SQL commands.
        commands: Vec<String>,
    },
    /// Evaluate one local subquery of a decomposed cross-database join and
    /// return its result set. When `baseline` is present (the unreduced
    /// subquery), the LAM also evaluates it and reports its row/byte volume
    /// without shipping the unreduced rows. No client of this crate sends it
    /// since a join's partials travel LAM to LAM ([`Request::Ship`]); the LAM
    /// serves it for hand-written clients and `fedbench/src/layers.rs`.
    Partial {
        /// Target database.
        database: String,
        /// The (possibly semi-join-reduced) subquery to evaluate.
        sql: String,
        /// Unreduced subquery to measure (result discarded, never shipped).
        baseline: Option<String>,
    },
    /// Evaluate one pre-reduced site query of an aggregation/top-k pushdown
    /// and return its result set. Like [`Request::Partial`] but the subquery
    /// aggregates (or truncates) locally, so the response also reports how
    /// many reduced groups/rows it shipped; `baseline` (sent only by
    /// `EXPLAIN`) is the unpushed subquery, evaluated to measure the
    /// row/byte volume the pushdown kept off the wire.
    PartialAgg {
        /// Target database.
        database: String,
        /// The pushed-down (pre-aggregating or top-k) site query.
        sql: String,
        /// Unpushed subquery to measure (result discarded, never shipped).
        baseline: Option<String>,
    },
    /// Fetch the public Local Conceptual Schema of a database.
    Schema {
        /// The database.
        database: String,
    },
    /// Fetch the optimizer statistics a database has collected via
    /// `ANALYZE` (the coordinator caches them in the GDD tier). Tables
    /// without statistics are simply absent from the answer.
    Stats {
        /// The database.
        database: String,
        /// Restrict the export to one table, or fetch all analyzed tables.
        table: Option<String>,
    },
    /// The coordinator's whole share of a cross-database join in one
    /// exchange: materialise its own subquery in place — reduced by the
    /// reducer's keys along `edges` — beside the partials that travelled to it
    /// straight from their LAMs, evaluate the modified global query Q′ over
    /// the temporaries and drop every one of them again before replying — a
    /// temporary never outlives the request that made it. Each travelled part
    /// is a [`Request::Part`] keyed by this request's correlation id, and each
    /// temporary is `part_<database>`.
    Combine {
        /// The coordinator database.
        database: String,
        /// The coordinator's own subquery as decomposed, whose rows never
        /// cross the network. `None` when every partial travels.
        home: Option<String>,
        /// The databases whose partials travel here, in plan order.
        parts: Vec<String>,
        /// The reducer's edges into the home subquery, applied here to the
        /// reducer's part once it arrived.
        edges: Vec<HomeEdge>,
        /// The modified global query Q′ over the temporaries.
        sql: String,
        /// Set only by `EXPLAIN`: when an edge reduces the home subquery, the
        /// unreduced one is evaluated and measured beside it, never
        /// materialised.
        measure: bool,
    },
    /// Evaluate one local subquery of a cross-database join and ship its rows
    /// straight to the coordinator's LAM at site `to`, as a [`Request::Part`]
    /// keyed by `key` (the coordinator's `COMBINE` correlation id). Unless
    /// `echo` is set nothing answers the sender; with it, the rows also come
    /// back as a [`Response::PartialDone`] (the reducer whose keys the MDBS
    /// layer needs for another site's filter). `baseline` is as for
    /// [`Request::Partial`].
    Ship {
        /// The coordinator's `COMBINE` correlation id.
        key: u64,
        /// The coordinator LAM's site.
        to: String,
        /// Target database.
        database: String,
        /// The subquery to evaluate.
        sql: String,
        /// Unreduced subquery to measure (result discarded, never shipped).
        baseline: Option<String>,
        /// Also answer the sender with the rows.
        echo: bool,
    },
    /// One LAM's partial, shipped straight to the coordinator's LAM: the
    /// rows of a [`Request::Ship`]'s subquery (or its local error), for the
    /// `COMBINE` whose correlation id is `key`. Nothing answers it.
    Part {
        /// The `COMBINE` it belongs to.
        key: u64,
        /// The database that produced it; it becomes `part_<database>`.
        database: String,
        /// The subquery's rows, when it succeeded.
        payload: Option<P>,
        /// Access path the local engine took.
        access: Option<String>,
        /// The local error, when the subquery failed.
        error: Option<String>,
        /// Payload bytes the unreduced baseline would have shipped (0 when
        /// not asked for).
        full_bytes: u64,
    },
    /// Create and load several temporary tables in one round trip. No client
    /// of this crate sends it since [`Request::Combine`]; it and
    /// [`Request::DropMany`] stay decodable and served only because
    /// `fedbench/src/layers.rs` builds them field by field, and go with
    /// ROADMAP item 1(b).
    LoadMany {
        /// Target database.
        database: String,
        /// `(temp table, result set)` pairs.
        parts: Vec<(String, P)>,
    },
    /// Drop several temporary tables in one round trip.
    DropMany {
        /// Target database.
        database: String,
        /// Temp table names.
        tables: Vec<String>,
    },
    /// Liveness probe.
    Ping,
    /// Stop the LAM server thread.
    Shutdown,
}

/// A response from a LAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response<P = String> {
    /// Task execution finished with a status code (`P`/`C`/`A`/`E`), an
    /// affected-row count, and an optional result set.
    TaskDone {
        /// Status code.
        status: char,
        /// Rows affected by DML commands.
        affected: u64,
        /// Result set of the last SELECT, if any.
        payload: Option<P>,
        /// Error description when the status is not `P`/`C`.
        error: Option<String>,
    },
    /// A [`Request::Partial`] finished: the reduced result set (if the
    /// subquery succeeded) plus the measured volume of the unreduced
    /// baseline (zero when no baseline was requested or it failed).
    PartialDone {
        /// Result set of the reduced subquery.
        payload: Option<P>,
        /// Error description when the subquery failed.
        error: Option<String>,
        /// Rows the unreduced baseline would have shipped.
        full_rows: u64,
        /// Payload bytes the unreduced baseline would have shipped, in the
        /// format of the connection that asked.
        full_bytes: u64,
        /// Access path the local engine took for the reduced subquery
        /// (`probe` or `scan`), when the engine reported one.
        access: Option<String>,
    },
    /// A [`Request::PartialAgg`] finished: the pre-reduced result set plus
    /// the measured volume of the unpushed baseline (zero when no baseline
    /// was requested or it failed).
    PartialAggDone {
        /// Result set of the pushed site query.
        payload: Option<P>,
        /// Error description when the site query failed.
        error: Option<String>,
        /// Reduced groups (or top-k rows) the site shipped.
        groups: u64,
        /// Rows the unpushed subquery would have shipped.
        full_rows: u64,
        /// Payload bytes the unpushed subquery would have shipped, in the
        /// format of the connection that asked.
        full_bytes: u64,
    },
    /// A [`Request::Combine`] finished (a failed home subquery or Q′ is an
    /// [`Response::Err`], and no temporary remains either way): Q′'s result
    /// set, what became of the home subquery (all zero / absent when it had
    /// none) and of each edge into it, and the travelled parts' own reports.
    /// A part that failed leaves `payload` empty: nothing was evaluated.
    CombineDone {
        /// Result set of Q′.
        payload: Option<P>,
        /// Rows the home subquery materialised.
        home_rows: u64,
        /// Access path the local engine took for the home subquery.
        access: Option<String>,
        /// Payload bytes, in the format of the connection that asked, by
        /// which the baseline exceeds the home rows (0 when unmeasured).
        saved: u64,
        /// What became of the edges and the travelled parts.
        report: Box<CombineReport>,
    },
    /// Generic success.
    Ok,
    /// Success with a payload (schema replies).
    OkPayload {
        /// The payload.
        payload: String,
    },
    /// Failure.
    Err {
        /// What went wrong.
        message: String,
    },
}

/// One reduction edge into the coordinator's home subquery, as a `COMBINE`
/// carries it: the planner's [`crate::planner::ReductionEdge`] minus its
/// target, which is the home subquery itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HomeEdge {
    /// The reducer's database: whose part holds the keys.
    pub reducer: String,
    /// Column of the reducer's partial that holds the key values.
    pub key_column: String,
    /// FROM binding and name of the filtered column in the home subquery.
    pub binding: String,
    pub column: String,
    /// Ship-or-not, up to the key list.
    pub rule: EdgeRule,
}

/// What a [`Response::CombineDone`] reports of a join's edges and travelled
/// parts. Boxed there, so no other reply grows by it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CombineReport {
    /// Per edge of the request: the reducer's distinct keys and whether they
    /// reduced the home subquery.
    pub edges: Vec<(u64, bool)>,
    /// Per travelled part of the request, in its order.
    pub parts: Vec<PartDone>,
}

/// What became of one partial that travelled straight to the coordinator,
/// as the coordinator's LAM saw it arrive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartDone {
    /// Rows it carried.
    pub rows: u64,
    /// Its payload block's bytes on the wire.
    pub bytes: u64,
    /// Access path its site's engine took.
    pub access: Option<String>,
    /// Its site's local error.
    pub error: Option<String>,
    /// Payload bytes by which its baseline exceeds it (0 when unmeasured).
    pub saved: u64,
}

/// A request as the LAM, its client and the executor hold it: result sets as
/// rows.
pub type RowsRequest = Request<ResultSet>;
/// A response as the LAM, its client and the executor hold it.
pub type RowsResponse = Response<ResultSet>;

/// `header` followed by one escaped line per entry of `lines`.
fn with_lines<'a>(header: String, lines: impl IntoIterator<Item = &'a String>) -> String {
    let mut out = header;
    for line in lines {
        out.push('\n');
        out.push_str(&escape(line));
    }
    out.push('\n');
    out
}

/// An optional field of a response header: `-` when absent.
fn opt_field(field: &Option<String>) -> String {
    field.as_deref().map_or_else(|| "-".to_string(), escape)
}

fn parse_opt_field(text: &str) -> Result<Option<String>, MdbsError> {
    if text == "-" {
        Ok(None)
    } else {
        unescape(text).map(Some)
    }
}

fn parse_count(text: &str, what: &str) -> Result<u64, MdbsError> {
    text.parse().map_err(|_| MdbsError::Wire(format!("bad {what} `{text}`")))
}

/// A reduction rule as one word: `C<cap>`, or `B<ndv|->/<bytes>`.
fn rule_word(rule: &EdgeRule) -> String {
    match rule {
        EdgeRule::Cap(cap) => format!("C{cap}"),
        EdgeRule::Bytes { ndv, bytes } => {
            format!("B{}/{bytes}", ndv.map_or_else(|| "-".to_string(), |n| n.to_string()))
        }
    }
}

fn parse_rule(word: &str) -> Result<EdgeRule, MdbsError> {
    let bad = || MdbsError::Wire(format!("bad reduction rule `{word}`"));
    if let Some(cap) = word.strip_prefix('C') {
        return Ok(EdgeRule::Cap(parse_count(cap, "key cap")? as usize));
    }
    let (ndv, bytes) = word.strip_prefix('B').and_then(|b| b.split_once('/')).ok_or_else(bad)?;
    let ndv = if ndv == "-" { None } else { Some(parse_count(ndv, "key NDV")?) };
    Ok(EdgeRule::Bytes { ndv, bytes: bytes.parse().map_err(|_| bad())? })
}

/// Appends `(temp table, payload)` parts. Length-prefixed framing: payloads
/// are multi-line, so each part header carries the exact byte count that
/// follows it.
fn write_parts<P: Payload>(out: &mut String, parts: &[(String, P)]) {
    let mut text = String::new();
    for (table, payload) in parts {
        text.clear();
        payload.write_text(&mut text);
        out.push_str(&format!("{table} {}\n", text.len()));
        out.push_str(&text);
    }
}

/// Reads the parts [`write_parts`] wrote, to the end of the body.
fn read_parts<P: Payload>(mut rest: &str) -> Result<Vec<(String, P)>, MdbsError> {
    let mut parts = Vec::new();
    while !rest.is_empty() {
        let (head, tail) = rest
            .split_once('\n')
            .ok_or_else(|| MdbsError::Wire("part without a header line".to_string()))?;
        let (table, len) = head
            .split_once(' ')
            .ok_or_else(|| MdbsError::Wire(format!("malformed part header `{head}`")))?;
        let len = parse_count(len, "part length")? as usize;
        if tail.len() < len || !tail.is_char_boundary(len) {
            return Err(MdbsError::Wire(format!("truncated part for `{table}`")));
        }
        parts.push((table.to_string(), P::from_text(&tail[..len])?));
        rest = &tail[len..];
    }
    Ok(parts)
}

impl<P: Payload> Request<P> {
    /// Encodes the request as a message body.
    pub fn encode(&self) -> String {
        match self {
            Request::Exec { task, commands } => with_lines(format!("EXEC {task}"), commands),
            Request::Prepare { task } => format!("PREPARE {task}"),
            Request::Task { name, mode, database, commands } => {
                with_lines(format!("TASK {name} {} {database}", mode.as_str()), commands)
            }
            Request::Commit { task } => format!("COMMIT {task}"),
            Request::Abort { task } => format!("ABORT {task}"),
            Request::Resolve { task, commit } => {
                format!("RESOLVE {task} {}", if *commit { "COMMIT" } else { "ABORT" })
            }
            Request::Compensate { task, database, commands } => {
                with_lines(format!("COMP {task} {database}"), commands)
            }
            Request::Partial { database, sql, baseline } => {
                with_lines(format!("PARTIAL {database}"), std::iter::once(sql).chain(baseline))
            }
            Request::PartialAgg { database, sql, baseline } => {
                with_lines(format!("PARTIALAGG {database}"), std::iter::once(sql).chain(baseline))
            }
            Request::Schema { database } => format!("SCHEMA {database}"),
            Request::Stats { database, table } => match table {
                Some(t) => format!("STATS {database} {t}"),
                None => format!("STATS {database}"),
            },
            Request::Combine { database, home, parts, edges, sql, measure } => {
                // Q′, then the home line (`-` when absent; the letter keeps a
                // present one apart from it), the travelled databases and
                // one line per edge.
                let measure = if *measure { " MEASURE" } else { "" };
                let mut out = format!("COMBINE {database}{measure}\n{}\n", escape(sql));
                match home {
                    Some(sql) => out.push_str(&format!("H {}\n", escape(sql))),
                    None => out.push_str("-\n"),
                }
                out.push('P');
                parts.iter().for_each(|db| out.push_str(&format!(" {db}")));
                out.push('\n');
                for e in edges {
                    let rule = rule_word(&e.rule);
                    let HomeEdge { reducer, key_column, binding, column, .. } = e;
                    out.push_str(&format!("E {reducer} {key_column} {binding} {column} {rule}\n"));
                }
                out
            }
            Request::Ship { key, to, database, sql, baseline, echo } => {
                let echo = if *echo { " ECHO" } else { "" };
                let header = format!("SHIP {key} {to} {database}{echo}");
                with_lines(header, std::iter::once(sql).chain(baseline))
            }
            Request::Part { key, database, payload, access, error, full_bytes } => {
                let mut out = format!(
                    "PART {key} {database} {full_bytes} {} {}\n",
                    opt_field(access),
                    opt_field(error)
                );
                if let Some(p) = payload {
                    p.write_text(&mut out);
                }
                out
            }
            Request::LoadMany { database, parts } => {
                let mut out = format!("LOADMANY {database}\n");
                write_parts(&mut out, parts);
                out
            }
            Request::DropMany { database, tables } => {
                format!("DROPMANY {database} {}", tables.join(" "))
            }
            Request::Ping => "PING".to_string(),
            Request::Shutdown => "SHUTDOWN".to_string(),
        }
    }

    /// Decodes a message body into a request holding `P` payloads.
    pub fn decode_as(body: &str) -> Result<Self, MdbsError> {
        let (header, payload) = body.split_once('\n').unwrap_or((body, ""));
        let words: Vec<&str> = header.split_whitespace().collect();
        let decode_commands = |payload: &str| -> Result<Vec<String>, MdbsError> {
            payload.lines().filter(|l| !l.is_empty()).map(unescape).collect()
        };
        // `<sql>` and an optional `<baseline>` line.
        let decode_subquery = |what: &str| -> Result<(String, Option<String>), MdbsError> {
            let mut lines = decode_commands(payload)?.into_iter();
            let sql = lines
                .next()
                .ok_or_else(|| MdbsError::Wire(format!("{what} without a subquery")))?;
            Ok((sql, lines.next()))
        };
        match words.as_slice() {
            ["EXEC", task] => {
                Ok(Request::Exec { task: task.to_string(), commands: decode_commands(payload)? })
            }
            ["PREPARE", task] => Ok(Request::Prepare { task: task.to_string() }),
            ["TASK", name, mode, database] => {
                let mode = match *mode {
                    "NOCOMMIT" => TaskMode::NoCommit,
                    "AUTO" => TaskMode::Auto,
                    "HOLD" => TaskMode::Hold,
                    other => {
                        return Err(MdbsError::Wire(format!("unknown task mode `{other}`")));
                    }
                };
                Ok(Request::Task {
                    name: name.to_string(),
                    mode,
                    database: database.to_string(),
                    commands: decode_commands(payload)?,
                })
            }
            ["COMMIT", task] => Ok(Request::Commit { task: task.to_string() }),
            ["ABORT", task] => Ok(Request::Abort { task: task.to_string() }),
            ["RESOLVE", task, verdict] => {
                let commit = match *verdict {
                    "COMMIT" => true,
                    "ABORT" => false,
                    other => {
                        return Err(MdbsError::Wire(format!("unknown RESOLVE verdict `{other}`")));
                    }
                };
                Ok(Request::Resolve { task: task.to_string(), commit })
            }
            ["COMP", task, database] => Ok(Request::Compensate {
                task: task.to_string(),
                database: database.to_string(),
                commands: decode_commands(payload)?,
            }),
            ["PARTIAL", database] => {
                let (sql, baseline) = decode_subquery("PARTIAL")?;
                Ok(Request::Partial { database: database.to_string(), sql, baseline })
            }
            ["PARTIALAGG", database] => {
                let (sql, baseline) = decode_subquery("PARTIALAGG")?;
                Ok(Request::PartialAgg { database: database.to_string(), sql, baseline })
            }
            ["SCHEMA", database] => Ok(Request::Schema { database: database.to_string() }),
            ["STATS", database] => {
                Ok(Request::Stats { database: database.to_string(), table: None })
            }
            ["STATS", database, table] => Ok(Request::Stats {
                database: database.to_string(),
                table: Some(table.to_string()),
            }),
            ["COMBINE", database, measure @ ..] => {
                let measure = match measure {
                    [] => false,
                    ["MEASURE"] => true,
                    _ => return Err(MdbsError::Wire(format!("malformed COMBINE `{header}`"))),
                };
                let mut lines = payload.split('\n');
                let mut line = |what: &str| {
                    lines.next().ok_or_else(|| MdbsError::Wire(format!("COMBINE without {what}")))
                };
                let sql = unescape(line("a global query")?)?;
                let home = match line("a home line")? {
                    "-" => None,
                    home => Some(unescape(home.strip_prefix("H ").ok_or_else(|| {
                        MdbsError::Wire(format!("malformed COMBINE home line `{home}`"))
                    })?)?),
                };
                let parts = match line("a parts line")?.split(' ').collect::<Vec<_>>().as_slice() {
                    ["P", dbs @ ..] => dbs.iter().map(|db| db.to_string()).collect(),
                    _ => return Err(MdbsError::Wire("malformed COMBINE parts line".to_string())),
                };
                let mut edges = Vec::new();
                for edge in lines.filter(|l| !l.is_empty()) {
                    let ["E", reducer, key_column, binding, column, rule] =
                        edge.split(' ').collect::<Vec<_>>()[..]
                    else {
                        return Err(MdbsError::Wire(format!("malformed COMBINE edge `{edge}`")));
                    };
                    edges.push(HomeEdge {
                        reducer: reducer.to_string(),
                        key_column: key_column.to_string(),
                        binding: binding.to_string(),
                        column: column.to_string(),
                        rule: parse_rule(rule)?,
                    });
                }
                let database = database.to_string();
                Ok(Request::Combine { database, home, parts, edges, sql, measure })
            }
            ["SHIP", key, to, database, echo @ ..] => {
                let echo = match echo {
                    [] => false,
                    ["ECHO"] => true,
                    _ => return Err(MdbsError::Wire(format!("malformed SHIP `{header}`"))),
                };
                let (sql, baseline) = decode_subquery("SHIP")?;
                Ok(Request::Ship {
                    key: parse_count(key, "ship key")?,
                    to: to.to_string(),
                    database: database.to_string(),
                    sql,
                    baseline,
                    echo,
                })
            }
            ["PART", ..] => Ok(Self::decode_part(header, payload)?.0),
            ["LOADMANY", database] => Ok(Request::LoadMany {
                database: database.to_string(),
                parts: read_parts(payload)?,
            }),
            ["DROPMANY", database, tables @ ..] => Ok(Request::DropMany {
                database: database.to_string(),
                tables: tables.iter().map(|t| t.to_string()).collect(),
            }),
            ["PING"] => Ok(Request::Ping),
            ["SHUTDOWN"] => Ok(Request::Shutdown),
            _ => Err(MdbsError::Wire(format!("unknown request `{header}`"))),
        }
    }
}

impl<P: Payload> Request<P> {
    /// [`Self::decode_as`], plus the byte size of the result-set payload a
    /// [`Request::Part`] carried (0 for every other request).
    pub fn decode_sized(body: &str) -> Result<(Self, usize), MdbsError> {
        match body.split_once('\n') {
            Some((header, payload)) if header.starts_with("PART ") => {
                Self::decode_part(header, payload)
            }
            _ => Ok((Self::decode_as(body)?, 0)),
        }
    }

    /// A `PART` header's fields — the error is the tail of the line and may
    /// contain spaces — and the payload after it.
    fn decode_part(header: &str, payload: &str) -> Result<(Self, usize), MdbsError> {
        let mut f = header.splitn(6, ' ').skip(1);
        let mut field = || f.next().unwrap_or("");
        let key = parse_count(field(), "part key")?;
        let database = field().to_string();
        let full_bytes = parse_count(field(), "baseline bytes")?;
        let access = parse_opt_field(field())?;
        let error = parse_opt_field(f.next().unwrap_or("-"))?;
        let rows = if payload.is_empty() { None } else { Some(P::from_text(payload)?) };
        let part = Request::Part { key, database, payload: rows, access, error, full_bytes };
        Ok((part, payload.len()))
    }
}

impl Request {
    /// Decodes a message body into a request with text payloads.
    pub fn decode(body: &str) -> Result<Request, MdbsError> {
        Request::decode_as(body)
    }
}

impl<P: Payload> Response<P> {
    /// Encodes the response as a message body.
    pub fn encode(&self) -> String {
        let (mut out, payload) = match self {
            Response::TaskDone { status, affected, payload, error } => {
                (format!("OK TASK {status} {affected} {}\n", opt_field(error)), payload)
            }
            Response::PartialDone { payload, error, full_rows, full_bytes, access } => (
                format!(
                    "OK PARTIAL {full_rows} {full_bytes} {} {}\n",
                    opt_field(access),
                    opt_field(error)
                ),
                payload,
            ),
            Response::PartialAggDone { payload, error, groups, full_rows, full_bytes } => (
                format!("OK PARTIALAGG {groups} {full_rows} {full_bytes} {}\n", opt_field(error)),
                payload,
            ),
            Response::CombineDone { payload, home_rows, access, saved, report } => {
                let CombineReport { edges, parts } = &**report;
                // The edges close the header line; one line per part follows.
                let mut out =
                    format!("OK COMBINE {home_rows} {saved} {} {}", opt_field(access), parts.len());
                for (keys, reduced) in edges {
                    out.push_str(&format!(" {keys}{}", if *reduced { '+' } else { '-' }));
                }
                out.push('\n');
                for p in parts {
                    let (access, error) = (opt_field(&p.access), opt_field(&p.error));
                    out.push_str(&format!("{} {} {} {access} {error}\n", p.rows, p.bytes, p.saved));
                }
                (out, payload)
            }
            Response::Ok => return "OK".to_string(),
            Response::OkPayload { payload } => return format!("OK PAYLOAD\n{payload}"),
            Response::Err { message } => return format!("ERR {}", escape(message)),
        };
        if let Some(p) = payload {
            p.write_text(&mut out);
        }
        out
    }

    /// Decodes a message body into a response holding a `P` payload. Also
    /// returns the byte size of the result-set payload it carried (0 when it
    /// carried none).
    pub fn decode_as(body: &str) -> Result<(Self, usize), MdbsError> {
        let (header, payload) = body.split_once('\n').unwrap_or((body, ""));
        if let Some(msg) = header.strip_prefix("ERR ") {
            return Ok((Response::Err { message: unescape(msg)? }, 0));
        }
        if header == "OK" {
            return Ok((Response::Ok, 0));
        }
        if header == "OK PAYLOAD" {
            return Ok((Response::OkPayload { payload: payload.to_string() }, 0));
        }
        let rows = || -> Result<Option<P>, MdbsError> {
            if payload.is_empty() {
                Ok(None)
            } else {
                P::from_text(payload).map(Some)
            }
        };
        // Header fields are space-separated; the last one (the error) is the
        // tail of the line and may contain spaces. `OK PARTIALAGG` is tested
        // before `OK PARTIAL `, which is a prefix of it.
        let resp = if let Some(rest) = header.strip_prefix("OK PARTIALAGG ") {
            let mut f = rest.splitn(4, ' ');
            Response::PartialAggDone {
                groups: parse_count(f.next().unwrap_or(""), "group count")?,
                full_rows: parse_count(f.next().unwrap_or(""), "baseline rows")?,
                full_bytes: parse_count(f.next().unwrap_or(""), "baseline bytes")?,
                error: parse_opt_field(f.next().unwrap_or("-"))?,
                payload: rows()?,
            }
        } else if let Some(rest) = header.strip_prefix("OK PARTIAL ") {
            let mut f = rest.splitn(4, ' ');
            Response::PartialDone {
                full_rows: parse_count(f.next().unwrap_or(""), "baseline rows")?,
                full_bytes: parse_count(f.next().unwrap_or(""), "baseline bytes")?,
                access: parse_opt_field(f.next().unwrap_or("-"))?,
                error: parse_opt_field(f.next().unwrap_or("-"))?,
                payload: rows()?,
            }
        } else if let Some(rest) = header.strip_prefix("OK COMBINE ") {
            let mut f = rest.split(' ');
            let mut field = || f.next().unwrap_or("");
            let home_rows = parse_count(field(), "home rows")?;
            let saved = parse_count(field(), "saved bytes")?;
            let access = parse_opt_field(field())?;
            let n = parse_count(field(), "part count")?;
            let edge = |word: &str| {
                let (keys, reduced) = match word.strip_suffix('+') {
                    Some(keys) => (keys, true),
                    None => (word.strip_suffix('-').unwrap_or("?"), false),
                };
                Ok::<_, MdbsError>((parse_count(keys, "edge keys")?, reduced))
            };
            let edges = f.map(edge).collect::<Result<Vec<_>, _>>()?;
            let (mut parts, mut rest) = (Vec::new(), payload);
            for _ in 0..n {
                let (line, tail) = rest
                    .split_once('\n')
                    .ok_or_else(|| MdbsError::Wire("COMBINE reply missing a part".to_string()))?;
                let mut f = line.splitn(5, ' ');
                let mut field = || f.next().unwrap_or("");
                parts.push(PartDone {
                    rows: parse_count(field(), "part rows")?,
                    bytes: parse_count(field(), "part bytes")?,
                    saved: parse_count(field(), "part saved bytes")?,
                    access: parse_opt_field(field())?,
                    error: parse_opt_field(f.next().unwrap_or("-"))?,
                });
                rest = tail;
            }
            let payload = if rest.is_empty() { None } else { Some(P::from_text(rest)?) };
            let report = Box::new(CombineReport { edges, parts });
            let resp = Response::CombineDone { payload, home_rows, access, saved, report };
            return Ok((resp, rest.len()));
        } else if let Some(rest) = header.strip_prefix("OK TASK ") {
            let mut f = rest.splitn(3, ' ');
            let status_text = f.next().unwrap_or("");
            let status = status_text
                .chars()
                .next()
                .filter(|_| status_text.len() == 1)
                .ok_or_else(|| MdbsError::Wire(format!("bad status `{status_text}`")))?;
            Response::TaskDone {
                status,
                affected: parse_count(f.next().unwrap_or(""), "affected count")?,
                error: parse_opt_field(f.next().unwrap_or("-"))?,
                payload: rows()?,
            }
        } else {
            return Err(MdbsError::Wire(format!("unknown response `{header}`")));
        };
        Ok((resp, payload.len()))
    }
}

impl Response {
    /// Decodes a message body into a response with a text payload.
    pub fn decode(body: &str) -> Result<Response, MdbsError> {
        Response::decode_as(body).map(|(resp, _)| resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(r: Request) {
        let enc = r.encode();
        assert_eq!(Request::decode(&enc).unwrap(), r, "encoded: {enc}");
    }

    fn roundtrip_response(r: Response) {
        let enc = r.encode();
        assert_eq!(Response::decode(&enc).unwrap(), r, "encoded: {enc}");
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Task {
            name: "T1".into(),
            mode: TaskMode::NoCommit,
            database: "continental".into(),
            commands: vec![
                "UPDATE flights SET rate = rate * 1.1 WHERE source = 'Houston'".into(),
                "SELECT 'multi\nline | literal' FROM flights".into(),
            ],
        });
        roundtrip_request(Request::Commit { task: "T1".into() });
        roundtrip_request(Request::Abort { task: "T1".into() });
        roundtrip_request(Request::Resolve { task: "T1".into(), commit: true });
        roundtrip_request(Request::Resolve { task: "T1".into(), commit: false });
        roundtrip_request(Request::Compensate {
            task: "T1".into(),
            database: "continental".into(),
            commands: vec!["UPDATE flights SET rate = rate / 1.1".into()],
        });
        roundtrip_request(Request::Schema { database: "avis".into() });
        roundtrip_request(Request::Stats { database: "avis".into(), table: None });
        roundtrip_request(Request::Stats { database: "avis".into(), table: Some("cars".into()) });
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Task {
            name: "G1".into(),
            mode: TaskMode::Hold,
            database: "avis".into(),
            commands: vec!["UPDATE cars SET rate = 2".into()],
        });
        roundtrip_request(Request::Exec {
            task: "G1".into(),
            commands: vec!["UPDATE cars SET rate = 1".into()],
        });
        roundtrip_request(Request::Prepare { task: "G1".into() });
        roundtrip_request(Request::Partial {
            database: "avis".into(),
            sql: "SELECT code AS b_c_code FROM cars WHERE rate IN (10, 20)".into(),
            baseline: None,
        });
        roundtrip_request(Request::Partial {
            database: "avis".into(),
            sql: "SELECT code AS b_c_code FROM cars WHERE rate IN (10, 20)".into(),
            baseline: Some("SELECT code AS b_c_code\nFROM cars".into()),
        });
        roundtrip_request(Request::PartialAgg {
            database: "avis".into(),
            sql: "SELECT cartype AS b_c_cartype, COUNT(*) AS agg_cnt FROM cars GROUP BY cartype"
                .into(),
            baseline: None,
        });
        roundtrip_request(Request::PartialAgg {
            database: "avis".into(),
            sql: "SELECT COUNT(*) AS agg_cnt FROM cars".into(),
            baseline: Some("SELECT code AS b_c_code\nFROM cars".into()),
        });
        roundtrip_request(Request::LoadMany { database: "avis".into(), parts: vec![] });
        roundtrip_request(Request::LoadMany {
            database: "avis".into(),
            parts: vec![
                ("part_national".into(), "COLS code:int\nR I:1\n".into()),
                ("part_avis".into(), "COLS rate:float\nR F:39.5\nR F:25\n".into()),
                ("part_empty".into(), String::new()),
            ],
        });
        let edge = |rule| HomeEdge {
            reducer: "national".into(),
            key_column: "b_v_vcode".into(),
            binding: "c".into(),
            column: "code".into(),
            rule,
        };
        roundtrip_request(Request::Combine {
            database: "avis".into(),
            home: Some("SELECT code AS b_c_code\nFROM cars | x".into()),
            parts: vec!["national".into(), "hertz".into()],
            edges: vec![
                edge(EdgeRule::Cap(100)),
                edge(EdgeRule::Bytes { ndv: Some(12), bytes: 1234.5 }),
                edge(EdgeRule::Bytes { ndv: None, bytes: 1e300 }),
            ],
            sql: "SELECT * FROM part_avis, part_national".into(),
            measure: true,
        });
        // No home, no parts, no edges; SQL that looks like an absent line.
        roundtrip_request(Request::Combine {
            database: "avis".into(),
            home: None,
            parts: vec![],
            edges: vec![],
            sql: "-".into(),
            measure: false,
        });
        roundtrip_request(Request::Combine {
            database: "avis".into(),
            home: Some("-".into()),
            parts: vec!["P".into()],
            edges: vec![],
            sql: String::new(),
            measure: false,
        });
        roundtrip_request(Request::Ship {
            key: 42,
            to: "site2".into(),
            database: "avis".into(),
            sql: "SELECT code\nFROM cars".into(),
            baseline: None,
            echo: false,
        });
        roundtrip_request(Request::Ship {
            key: u64::MAX,
            to: "site2".into(),
            database: "avis".into(),
            sql: "SELECT code FROM cars WHERE code IN (1)".into(),
            baseline: Some("SELECT code FROM cars".into()),
            echo: true,
        });
        roundtrip_request(Request::Part {
            key: 42,
            database: "avis".into(),
            payload: Some("COLS code:int\nR I:1\n".into()),
            access: Some("scan".into()),
            error: None,
            full_bytes: 17,
        });
        roundtrip_request(Request::Part {
            key: 43,
            database: "avis".into(),
            payload: None,
            access: None,
            error: Some("type error: cannot apply + to 1 and 'x' | more\nline2".into()),
            full_bytes: 0,
        });
        roundtrip_request(Request::DropMany { database: "avis".into(), tables: vec![] });
        roundtrip_request(Request::DropMany {
            database: "avis".into(),
            tables: vec!["part_national".into(), "part_avis".into()],
        });
    }

    #[test]
    fn partial_without_sql_rejected() {
        assert!(Request::decode("PARTIAL avis").is_err());
        assert!(Request::decode("PARTIAL avis\n").is_err());
    }

    #[test]
    fn malformed_loadmany_is_rejected() {
        // Header with no length word.
        assert!(Request::decode("LOADMANY avis\npart_t\nx").is_err());
        // Non-numeric length.
        assert!(Request::decode("LOADMANY avis\npart_t abc\nx").is_err());
        // Length pointing past the end of the body.
        assert!(Request::decode("LOADMANY avis\npart_t 99\nshort").is_err());
    }

    #[test]
    fn malformed_combine_is_rejected() {
        // Q′ only; no home line; no parts line.
        assert!(Request::decode("COMBINE avis").is_err());
        assert!(Request::decode("COMBINE avis\nSELECT 1\n").is_err());
        assert!(Request::decode("COMBINE avis\nSELECT 1\n-\n").is_err());
        // A home line without its letter, a parts line without its own.
        assert!(Request::decode("COMBINE avis\nSELECT 1\nSELECT 2\nP\n").is_err());
        assert!(Request::decode("COMBINE avis\nSELECT 1\n-\nnational\n").is_err());
        // An edge short of a field, an edge with an unknown rule, a flag
        // that is not one.
        assert!(Request::decode("COMBINE avis\nSELECT 1\n-\nP\nE n k c\n").is_err());
        assert!(Request::decode("COMBINE avis\nSELECT 1\n-\nP\nE n k b c X9\n").is_err());
        assert!(Request::decode("COMBINE avis NOW\nSELECT 1\n-\nP\n").is_err());
        assert!(Request::decode("COMBINE avis\nSELECT 1\n-\nP\n").is_ok());
        assert!(Request::decode("COMBINE avis MEASURE\nSELECT 1\n-\nP n\nE n k b c B-/2\n").is_ok());
    }

    #[test]
    fn malformed_ship_and_part_are_rejected() {
        assert!(Request::decode("SHIP 1 site2 avis").is_err(), "no subquery");
        assert!(Request::decode("SHIP x site2 avis\nSELECT 1\n").is_err(), "no key");
        assert!(Request::decode("SHIP 1 site2 avis LOUD\nSELECT 1\n").is_err());
        assert!(Request::decode("PART x avis 0 - -\n").is_err(), "no key");
        assert!(Request::decode("PART 1 avis x - -\n").is_err(), "no baseline count");
        let rows = RowsRequest::decode_as("PART 1 avis 0 - -\nR I:1|extra\n");
        assert!(rows.is_err(), "rows without columns");
        // A part is not a reply, and a reply is not a part.
        assert!(Response::decode("PART 1 avis 0 - -\n").is_err());
        assert!(Request::decode("OK COMBINE 0 0 - 0\n").is_err());
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(Response::Ok);
        roundtrip_response(Response::OkPayload { payload: "TABLE t x:int\n".into() });
        roundtrip_response(Response::Err { message: "lock conflict | details\nline2".into() });
        roundtrip_response(Response::TaskDone {
            status: 'P',
            affected: 3,
            payload: None,
            error: None,
        });
        roundtrip_response(Response::TaskDone {
            status: 'C',
            affected: 0,
            payload: Some("COLS code:int\nR I:1\n".into()),
            error: None,
        });
        roundtrip_response(Response::TaskDone {
            status: 'A',
            affected: 0,
            payload: None,
            error: Some("simulated deadlock".into()),
        });
        roundtrip_response(Response::PartialDone {
            payload: Some("COLS code:int\nR I:1\n".into()),
            error: None,
            full_rows: 12,
            full_bytes: 340,
            access: Some("probe".into()),
        });
        roundtrip_response(Response::PartialDone {
            payload: Some("COLS code:int\nR I:1\n".into()),
            error: None,
            full_rows: 12,
            full_bytes: 340,
            access: None,
        });
        roundtrip_response(Response::PartialDone {
            payload: None,
            error: Some("unknown table | details\nline2".into()),
            full_rows: 0,
            full_bytes: 0,
            access: Some("scan".into()),
        });
        roundtrip_response(Response::PartialAggDone {
            payload: Some("COLS b_c_cartype:char agg_cnt:int\nR S:bus I:3\n".into()),
            error: None,
            groups: 1,
            full_rows: 40,
            full_bytes: 900,
        });
        roundtrip_response(Response::CombineDone {
            payload: Some("COLS code:int\nR I:1\n".into()),
            home_rows: 12,
            access: Some("probe".into()),
            saved: 900,
            report: Box::new(CombineReport {
                edges: vec![(4, true), (0, false)],
                parts: vec![
                    PartDone {
                        rows: 3,
                        bytes: 72,
                        access: Some("scan".into()),
                        error: None,
                        saved: 5,
                    },
                    PartDone { rows: 0, bytes: 31, access: None, error: None, saved: 0 },
                ],
            }),
        });
        roundtrip_response(Response::CombineDone {
            payload: None,
            home_rows: 0,
            access: None,
            saved: 0,
            report: Box::new(CombineReport {
                edges: vec![],
                parts: vec![PartDone {
                    error: Some("type error: cannot apply + to 1 and 'x'".into()),
                    ..PartDone::default()
                }],
            }),
        });
        roundtrip_response(Response::PartialAggDone {
            payload: None,
            error: Some("unknown column | details\nline2".into()),
            groups: 0,
            full_rows: 0,
            full_bytes: 0,
        });
    }

    #[test]
    fn partialagg_without_sql_rejected() {
        assert!(Request::decode("PARTIALAGG avis").is_err());
        assert!(Request::decode("PARTIALAGG avis\n").is_err());
    }

    #[test]
    fn partialagg_header_is_not_mistaken_for_partial() {
        // `OK PARTIAL ` is a prefix of `OK PARTIALAGG `; make sure the
        // decoder keeps the two apart in both directions.
        let agg: Response = Response::PartialAggDone {
            payload: None,
            error: None,
            groups: 2,
            full_rows: 5,
            full_bytes: 100,
        };
        assert!(matches!(
            Response::decode(&agg.encode()).unwrap(),
            Response::PartialAggDone { groups: 2, full_rows: 5, full_bytes: 100, .. }
        ));
        let plain: Response = Response::PartialDone {
            payload: None,
            error: None,
            full_rows: 5,
            full_bytes: 100,
            access: None,
        };
        assert!(matches!(Response::decode(&plain.encode()).unwrap(), Response::PartialDone { .. }));
    }

    #[test]
    fn garbage_rejected() {
        assert!(Request::decode("FROB x").is_err());
        assert!(Request::decode("TASK t BADMODE db").is_err());
        assert!(Request::decode("RESOLVE t MAYBE").is_err());
        assert!(Response::decode("NOPE").is_err());
        assert!(Response::decode("OK TASK PP 3 -").is_err());
        assert!(Response::decode("OK TASK P x -").is_err());
    }

    #[test]
    fn correlation_frame_roundtrips() {
        let framed = encode_with_correlation(42, "PING");
        assert_eq!(split_correlation(&framed), (Some(42), "PING"));
        let multi = encode_with_correlation(7, "OK PAYLOAD\nTABLE t x:int\n");
        assert_eq!(split_correlation(&multi), (Some(7), "OK PAYLOAD\nTABLE t x:int\n"));
    }

    #[test]
    fn unframed_bodies_pass_through() {
        assert_eq!(split_correlation("PING"), (None, "PING"));
        assert_eq!(split_correlation("@notanumber\nPING"), (None, "@notanumber\nPING"));
        assert_eq!(split_correlation("@12"), (None, "@12"), "id without body line");
    }

    #[test]
    fn task_with_no_commands_roundtrips() {
        roundtrip_request(Request::Task {
            name: "T".into(),
            mode: TaskMode::Auto,
            database: "d".into(),
            commands: vec![],
        });
    }
}
