//! Binary frames for the engine ↔ LAM protocol.
//!
//! One frame per message, mirroring [`crate::proto`] variant-for-variant:
//!
//! ```text
//! 0xB1 · version 0x01 · flags (bit0 = correlation id follows)
//! [varint correlation id]
//! tag byte · fields
//! ```
//!
//! Requests use tags `0x01..=0x15` (declaration order in `proto.rs`, with
//! later additions appended; `0x01`, `0x0B` and `0x0C` are retired and stay
//! reserved), responses `0x81..=0x87`. Result-set payloads travel as *payload
//! blocks* written and read by the message's [`Payload`] type: a result set ships
//! columnar (`codec::columnar`); the `String` shim falls back to a verbatim
//! length-prefixed string for texts that are not canonical result sets, so
//! `decode(encode(x)) == x` holds for every input, bit for bit. Frames are
//! encoded into buffers leased from a [`BufferPool`] and must decode with
//! exact consumption: trailing bytes are an error.

use super::varint::{write_f64, write_str, write_u64, Reader};
use crate::error::MdbsError;
use crate::planner::EdgeRule;
use crate::proto::{CombineReport, HomeEdge, PartDone, Payload, Request, Response, TaskMode};
use netsim::{BufferPool, PooledBuf};

/// First byte of every binary frame (never a printable ASCII byte, so text
/// and binary bodies cannot be confused).
pub const MAGIC: u8 = 0xB1;
/// Frame grammar version.
pub const VERSION: u8 = 0x01;

const FLAG_CORRELATED: u8 = 0x01;

const REQ_EXEC: u8 = 0x02;
const REQ_PREPARE: u8 = 0x03;
const REQ_TASK: u8 = 0x04;
const REQ_COMMIT: u8 = 0x05;
const REQ_ABORT: u8 = 0x06;
const REQ_RESOLVE: u8 = 0x07;
const REQ_COMPENSATE: u8 = 0x08;
const REQ_PARTIAL: u8 = 0x09;
const REQ_SCHEMA: u8 = 0x0A;
/// `BEGIN`, folded into `TASK … HOLD`, and `LOAD` / `DROPTEMP`, superseded by
/// `LOADMANY` / `DROPMANY`: the numbers stay reserved so an old peer gets an
/// error, never a misparse.
const REQ_RETIRED: [u8; 3] = [0x01, 0x0B, 0x0C];
const REQ_LOADMANY: u8 = 0x0D;
const REQ_DROPMANY: u8 = 0x0E;
const REQ_PING: u8 = 0x0F;
const REQ_SHUTDOWN: u8 = 0x10;
const REQ_STATS: u8 = 0x11;
const REQ_PARTIALAGG: u8 = 0x12;
const REQ_COMBINE: u8 = 0x13;
const REQ_SHIP: u8 = 0x14;
const REQ_PART: u8 = 0x15;

const RESP_TASKDONE: u8 = 0x81;
const RESP_PARTIALDONE: u8 = 0x82;
const RESP_OK: u8 = 0x83;
const RESP_OKPAYLOAD: u8 = 0x84;
const RESP_ERR: u8 = 0x85;
const RESP_PARTIALAGGDONE: u8 = 0x86;
const RESP_COMBINEDONE: u8 = 0x87;

/// Payload block tag: a length-prefixed string follows.
pub(crate) const PAYLOAD_VERBATIM: u8 = 0;
/// Payload block tag: a `codec::columnar` result set follows.
pub(crate) const PAYLOAD_COLUMNAR: u8 = 1;

fn write_header(buf: &mut Vec<u8>, corr: Option<u64>) {
    buf.push(MAGIC);
    buf.push(VERSION);
    match corr {
        Some(id) => {
            buf.push(FLAG_CORRELATED);
            write_u64(buf, id);
        }
        None => buf.push(0),
    }
}

fn read_header(r: &mut Reader) -> Result<Option<u64>, MdbsError> {
    let magic = r.u8()?;
    if magic != MAGIC {
        return Err(MdbsError::Wire(format!("not a binary frame (magic {magic:#04x})")));
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(MdbsError::Wire(format!("unsupported frame version {version}")));
    }
    let flags = r.u8()?;
    if flags & !FLAG_CORRELATED != 0 {
        return Err(MdbsError::Wire(format!("unknown frame flags {flags:#04x}")));
    }
    if flags & FLAG_CORRELATED != 0 {
        Ok(Some(r.u64()?))
    } else {
        Ok(None)
    }
}

/// Extracts the correlation id from a frame without decoding the rest —
/// the server's reply-cache check and the client's response matching both
/// need only the id.
pub fn peek_correlation(bytes: &[u8]) -> Option<u64> {
    read_header(&mut Reader::new(bytes)).ok().flatten()
}

fn write_opt_str(buf: &mut Vec<u8>, s: &Option<String>) {
    match s {
        Some(s) => {
            buf.push(1);
            write_str(buf, s);
        }
        None => buf.push(0),
    }
}

fn read_opt_str(r: &mut Reader) -> Result<Option<String>, MdbsError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.string()?)),
        other => Err(MdbsError::Wire(format!("bad presence byte {other}"))),
    }
}

fn write_opt_payload<P: Payload>(buf: &mut Vec<u8>, payload: &Option<P>) {
    match payload {
        Some(p) => {
            buf.push(1);
            p.write_block(buf);
        }
        None => buf.push(0),
    }
}

/// Reads an optional payload block; also returns the block's byte size (0
/// when absent).
fn read_opt_payload<P: Payload>(r: &mut Reader) -> Result<(Option<P>, usize), MdbsError> {
    match r.u8()? {
        0 => Ok((None, 0)),
        1 => {
            let start = r.pos();
            let payload = P::read_block(r)?;
            Ok((Some(payload), r.pos() - start))
        }
        other => Err(MdbsError::Wire(format!("bad presence byte {other}"))),
    }
}

fn write_parts<P: Payload>(buf: &mut Vec<u8>, parts: &[(String, P)]) {
    write_u64(buf, parts.len() as u64);
    for (table, payload) in parts {
        write_str(buf, table);
        payload.write_block(buf);
    }
}

fn read_parts<P: Payload>(r: &mut Reader) -> Result<Vec<(String, P)>, MdbsError> {
    let n = r.u64()? as usize;
    if n > r.remaining() {
        return Err(MdbsError::Wire(format!("implausible part count {n}")));
    }
    let mut parts = Vec::with_capacity(n);
    for _ in 0..n {
        parts.push((r.string()?, P::read_block(r)?));
    }
    Ok(parts)
}

fn write_edge(buf: &mut Vec<u8>, edge: &HomeEdge) {
    for s in [&edge.reducer, &edge.key_column, &edge.binding, &edge.column] {
        write_str(buf, s);
    }
    match edge.rule {
        EdgeRule::Cap(cap) => {
            buf.push(0);
            write_u64(buf, cap as u64);
        }
        EdgeRule::Bytes { ndv, bytes } => {
            buf.push(1);
            match ndv {
                Some(n) => {
                    buf.push(1);
                    write_u64(buf, n);
                }
                None => buf.push(0),
            }
            write_f64(buf, bytes);
        }
    }
}

fn read_edge(r: &mut Reader) -> Result<HomeEdge, MdbsError> {
    let (reducer, key_column, binding, column) =
        (r.string()?, r.string()?, r.string()?, r.string()?);
    let rule = match r.u8()? {
        0 => EdgeRule::Cap(r.u64()? as usize),
        1 => {
            let ndv = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                other => return Err(MdbsError::Wire(format!("bad presence byte {other}"))),
            };
            EdgeRule::Bytes { ndv, bytes: r.f64()? }
        }
        other => return Err(MdbsError::Wire(format!("unknown reduction rule tag {other}"))),
    };
    Ok(HomeEdge { reducer, key_column, binding, column, rule })
}

/// Reads a count of items at least one byte each, refusing one larger than
/// what is left of the frame.
fn read_len(r: &mut Reader, what: &str) -> Result<usize, MdbsError> {
    let n = r.u64()? as usize;
    if n > r.remaining() {
        return Err(MdbsError::Wire(format!("implausible {what} {n}")));
    }
    Ok(n)
}

fn write_strings(buf: &mut Vec<u8>, items: &[String]) {
    write_u64(buf, items.len() as u64);
    for s in items {
        write_str(buf, s);
    }
}

fn read_strings(r: &mut Reader) -> Result<Vec<String>, MdbsError> {
    let n = r.u64()? as usize;
    if n > r.remaining() {
        return Err(MdbsError::Wire(format!("implausible list length {n}")));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.string()?);
    }
    Ok(out)
}

/// Encodes a request frame into a pooled buffer.
pub fn encode_request<P: Payload>(
    pool: &BufferPool,
    corr: Option<u64>,
    req: &Request<P>,
) -> PooledBuf {
    let mut buf = pool.lease();
    write_header(&mut buf, corr);
    match req {
        Request::Exec { task, commands } => {
            buf.push(REQ_EXEC);
            write_str(&mut buf, task);
            write_strings(&mut buf, commands);
        }
        Request::Prepare { task } => {
            buf.push(REQ_PREPARE);
            write_str(&mut buf, task);
        }
        Request::Task { name, mode, database, commands } => {
            buf.push(REQ_TASK);
            write_str(&mut buf, name);
            buf.push(match mode {
                TaskMode::NoCommit => 0,
                TaskMode::Auto => 1,
                TaskMode::Hold => 2,
            });
            write_str(&mut buf, database);
            write_strings(&mut buf, commands);
        }
        Request::Commit { task } => {
            buf.push(REQ_COMMIT);
            write_str(&mut buf, task);
        }
        Request::Abort { task } => {
            buf.push(REQ_ABORT);
            write_str(&mut buf, task);
        }
        Request::Resolve { task, commit } => {
            buf.push(REQ_RESOLVE);
            write_str(&mut buf, task);
            buf.push(u8::from(*commit));
        }
        Request::Compensate { task, database, commands } => {
            buf.push(REQ_COMPENSATE);
            write_str(&mut buf, task);
            write_str(&mut buf, database);
            write_strings(&mut buf, commands);
        }
        Request::Partial { database, sql, baseline } => {
            buf.push(REQ_PARTIAL);
            write_str(&mut buf, database);
            write_str(&mut buf, sql);
            write_opt_str(&mut buf, baseline);
        }
        Request::PartialAgg { database, sql, baseline } => {
            buf.push(REQ_PARTIALAGG);
            write_str(&mut buf, database);
            write_str(&mut buf, sql);
            write_opt_str(&mut buf, baseline);
        }
        Request::Schema { database } => {
            buf.push(REQ_SCHEMA);
            write_str(&mut buf, database);
        }
        Request::Stats { database, table } => {
            buf.push(REQ_STATS);
            write_str(&mut buf, database);
            write_opt_str(&mut buf, table);
        }
        Request::Combine { database, home, parts, edges, sql, measure } => {
            buf.push(REQ_COMBINE);
            write_str(&mut buf, database);
            write_str(&mut buf, sql);
            write_opt_str(&mut buf, home);
            write_strings(&mut buf, parts);
            write_u64(&mut buf, edges.len() as u64);
            edges.iter().for_each(|edge| write_edge(&mut buf, edge));
            buf.push(u8::from(*measure));
        }
        Request::Ship { key, to, database, sql, baseline, echo } => {
            buf.push(REQ_SHIP);
            write_u64(&mut buf, *key);
            write_str(&mut buf, to);
            write_str(&mut buf, database);
            write_str(&mut buf, sql);
            write_opt_str(&mut buf, baseline);
            buf.push(u8::from(*echo));
        }
        Request::Part { key, database, payload, access, error, full_bytes } => {
            buf.push(REQ_PART);
            write_u64(&mut buf, *key);
            write_str(&mut buf, database);
            write_u64(&mut buf, *full_bytes);
            write_opt_str(&mut buf, access);
            write_opt_str(&mut buf, error);
            write_opt_payload(&mut buf, payload);
        }
        Request::LoadMany { database, parts } => {
            buf.push(REQ_LOADMANY);
            write_str(&mut buf, database);
            write_parts(&mut buf, parts);
        }
        Request::DropMany { database, tables } => {
            buf.push(REQ_DROPMANY);
            write_str(&mut buf, database);
            write_strings(&mut buf, tables);
        }
        Request::Ping => buf.push(REQ_PING),
        Request::Shutdown => buf.push(REQ_SHUTDOWN),
    }
    buf
}

/// Decodes a request frame with text payloads: correlation id (if any) plus
/// the request.
pub fn decode_request(bytes: &[u8]) -> Result<(Option<u64>, Request), MdbsError> {
    decode_request_as(bytes)
}

/// Decodes a request frame holding `P` payloads.
pub fn decode_request_as<P: Payload>(bytes: &[u8]) -> Result<(Option<u64>, Request<P>), MdbsError> {
    decode_request_sized(bytes).map(|(corr, req, _)| (corr, req))
}

/// [`decode_request_as`], plus the byte size of the payload block a
/// [`Request::Part`] carried (0 for every other request).
pub fn decode_request_sized<P: Payload>(
    bytes: &[u8],
) -> Result<(Option<u64>, Request<P>, usize), MdbsError> {
    let mut r = Reader::new(bytes);
    let mut payload_bytes = 0;
    let corr = read_header(&mut r)?;
    let tag = r.u8()?;
    let req = match tag {
        REQ_EXEC => Request::Exec { task: r.string()?, commands: read_strings(&mut r)? },
        REQ_PREPARE => Request::Prepare { task: r.string()? },
        REQ_TASK => {
            let name = r.string()?;
            let mode = match r.u8()? {
                0 => TaskMode::NoCommit,
                1 => TaskMode::Auto,
                2 => TaskMode::Hold,
                other => {
                    return Err(MdbsError::Wire(format!("unknown task mode byte {other}")));
                }
            };
            Request::Task { name, mode, database: r.string()?, commands: read_strings(&mut r)? }
        }
        REQ_COMMIT => Request::Commit { task: r.string()? },
        REQ_ABORT => Request::Abort { task: r.string()? },
        REQ_RESOLVE => {
            let task = r.string()?;
            let commit = match r.u8()? {
                0 => false,
                1 => true,
                other => {
                    return Err(MdbsError::Wire(format!("bad RESOLVE verdict byte {other}")));
                }
            };
            Request::Resolve { task, commit }
        }
        REQ_COMPENSATE => Request::Compensate {
            task: r.string()?,
            database: r.string()?,
            commands: read_strings(&mut r)?,
        },
        REQ_PARTIAL => Request::Partial {
            database: r.string()?,
            sql: r.string()?,
            baseline: read_opt_str(&mut r)?,
        },
        REQ_PARTIALAGG => Request::PartialAgg {
            database: r.string()?,
            sql: r.string()?,
            baseline: read_opt_str(&mut r)?,
        },
        REQ_SCHEMA => Request::Schema { database: r.string()? },
        REQ_STATS => Request::Stats { database: r.string()?, table: read_opt_str(&mut r)? },
        REQ_COMBINE => {
            let (database, sql) = (r.string()?, r.string()?);
            let (home, parts) = (read_opt_str(&mut r)?, read_strings(&mut r)?);
            let edges = (0..read_len(&mut r, "edge count")?)
                .map(|_| read_edge(&mut r))
                .collect::<Result<Vec<_>, _>>()?;
            let measure = read_flag(&mut r)?;
            Request::Combine { database, home, parts, edges, sql, measure }
        }
        REQ_SHIP => Request::Ship {
            key: r.u64()?,
            to: r.string()?,
            database: r.string()?,
            sql: r.string()?,
            baseline: read_opt_str(&mut r)?,
            echo: read_flag(&mut r)?,
        },
        REQ_PART => {
            let (key, database, full_bytes) = (r.u64()?, r.string()?, r.u64()?);
            let (access, error) = (read_opt_str(&mut r)?, read_opt_str(&mut r)?);
            let (payload, size) = read_opt_payload(&mut r)?;
            payload_bytes = size;
            Request::Part { key, database, payload, access, error, full_bytes }
        }
        REQ_LOADMANY => Request::LoadMany { database: r.string()?, parts: read_parts(&mut r)? },
        REQ_DROPMANY => Request::DropMany { database: r.string()?, tables: read_strings(&mut r)? },
        REQ_PING => Request::Ping,
        REQ_SHUTDOWN => Request::Shutdown,
        retired if REQ_RETIRED.contains(&retired) => {
            return Err(MdbsError::Wire(format!("retired request tag {retired:#04x}")));
        }
        other => {
            return Err(MdbsError::Wire(format!("unknown request tag {other:#04x}")));
        }
    };
    r.finish()?;
    Ok((corr, req, payload_bytes))
}

fn read_flag(r: &mut Reader) -> Result<bool, MdbsError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(MdbsError::Wire(format!("bad flag byte {other}"))),
    }
}

/// Encodes a response frame into a pooled buffer.
pub fn encode_response<P: Payload>(
    pool: &BufferPool,
    corr: Option<u64>,
    resp: &Response<P>,
) -> PooledBuf {
    let mut buf = pool.lease();
    write_header(&mut buf, corr);
    match resp {
        Response::TaskDone { status, affected, payload, error } => {
            buf.push(RESP_TASKDONE);
            write_u64(&mut buf, u64::from(u32::from(*status)));
            write_u64(&mut buf, *affected);
            write_opt_str(&mut buf, error);
            write_opt_payload(&mut buf, payload);
        }
        Response::PartialDone { payload, error, full_rows, full_bytes, access } => {
            buf.push(RESP_PARTIALDONE);
            write_u64(&mut buf, *full_rows);
            write_u64(&mut buf, *full_bytes);
            write_opt_str(&mut buf, access);
            write_opt_str(&mut buf, error);
            write_opt_payload(&mut buf, payload);
        }
        Response::PartialAggDone { payload, error, groups, full_rows, full_bytes } => {
            buf.push(RESP_PARTIALAGGDONE);
            write_u64(&mut buf, *groups);
            write_u64(&mut buf, *full_rows);
            write_u64(&mut buf, *full_bytes);
            write_opt_str(&mut buf, error);
            write_opt_payload(&mut buf, payload);
        }
        Response::CombineDone { payload, home_rows, access, saved, report } => {
            let CombineReport { edges, parts } = &**report;
            buf.push(RESP_COMBINEDONE);
            write_u64(&mut buf, *home_rows);
            write_u64(&mut buf, *saved);
            write_opt_str(&mut buf, access);
            write_u64(&mut buf, edges.len() as u64);
            for (keys, reduced) in edges {
                write_u64(&mut buf, (keys << 1) | u64::from(*reduced));
            }
            write_u64(&mut buf, parts.len() as u64);
            for p in parts {
                write_u64(&mut buf, p.rows);
                write_u64(&mut buf, p.bytes);
                write_u64(&mut buf, p.saved);
                write_opt_str(&mut buf, &p.access);
                write_opt_str(&mut buf, &p.error);
            }
            write_opt_payload(&mut buf, payload);
        }
        Response::Ok => buf.push(RESP_OK),
        Response::OkPayload { payload } => {
            buf.push(RESP_OKPAYLOAD);
            write_str(&mut buf, payload);
        }
        Response::Err { message } => {
            buf.push(RESP_ERR);
            write_str(&mut buf, message);
        }
    }
    buf
}

/// Decodes a response frame with a text payload: correlation id (if any)
/// plus the response.
pub fn decode_response(bytes: &[u8]) -> Result<(Option<u64>, Response), MdbsError> {
    decode_response_as(bytes).map(|(corr, resp, _)| (corr, resp))
}

/// Decodes a response frame holding a `P` payload. The third element is the
/// byte size of the payload block it carried (0 when it carried none).
pub fn decode_response_as<P: Payload>(
    bytes: &[u8],
) -> Result<(Option<u64>, Response<P>, usize), MdbsError> {
    let mut r = Reader::new(bytes);
    let corr = read_header(&mut r)?;
    let tag = r.u8()?;
    let mut payload_bytes = 0;
    let mut payload = |r: &mut Reader| -> Result<Option<P>, MdbsError> {
        let (payload, size) = read_opt_payload(r)?;
        payload_bytes = size;
        Ok(payload)
    };
    let resp = match tag {
        RESP_TASKDONE => {
            let code = r.u64()?;
            let status = u32::try_from(code)
                .ok()
                .and_then(char::from_u32)
                .ok_or_else(|| MdbsError::Wire(format!("bad status char code {code}")))?;
            Response::TaskDone {
                status,
                affected: r.u64()?,
                error: read_opt_str(&mut r)?,
                payload: payload(&mut r)?,
            }
        }
        RESP_PARTIALDONE => Response::PartialDone {
            full_rows: r.u64()?,
            full_bytes: r.u64()?,
            access: read_opt_str(&mut r)?,
            error: read_opt_str(&mut r)?,
            payload: payload(&mut r)?,
        },
        RESP_PARTIALAGGDONE => Response::PartialAggDone {
            groups: r.u64()?,
            full_rows: r.u64()?,
            full_bytes: r.u64()?,
            error: read_opt_str(&mut r)?,
            payload: payload(&mut r)?,
        },
        RESP_COMBINEDONE => {
            let (home_rows, saved, access) = (r.u64()?, r.u64()?, read_opt_str(&mut r)?);
            let edges = (0..read_len(&mut r, "edge count")?)
                .map(|_| r.u64().map(|word| (word >> 1, word & 1 == 1)))
                .collect::<Result<Vec<_>, _>>()?;
            let mut parts = Vec::new();
            for _ in 0..read_len(&mut r, "part count")? {
                parts.push(PartDone {
                    rows: r.u64()?,
                    bytes: r.u64()?,
                    saved: r.u64()?,
                    access: read_opt_str(&mut r)?,
                    error: read_opt_str(&mut r)?,
                });
            }
            let report = Box::new(CombineReport { edges, parts });
            Response::CombineDone { home_rows, saved, access, report, payload: payload(&mut r)? }
        }
        RESP_OK => Response::Ok,
        RESP_OKPAYLOAD => Response::OkPayload { payload: r.string()? },
        RESP_ERR => Response::Err { message: r.string()? },
        other => {
            return Err(MdbsError::Wire(format!("unknown response tag {other:#04x}")));
        }
    };
    r.finish()?;
    Ok((corr, resp, payload_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldbs::engine::{ColumnMeta, ResultSet};
    use ldbs::value::{DataType, Value};

    fn pool() -> BufferPool {
        BufferPool::new(8)
    }

    fn roundtrip_request(corr: Option<u64>, req: Request) {
        let frame = encode_request(&pool(), corr, &req);
        assert_eq!(peek_correlation(&frame), corr);
        let (got_corr, got) = decode_request(&frame).unwrap();
        assert_eq!(got_corr, corr);
        assert_eq!(got, req);
    }

    fn roundtrip_response(corr: Option<u64>, resp: Response) {
        let frame = encode_response(&pool(), corr, &resp);
        assert_eq!(peek_correlation(&frame), corr);
        let (got_corr, got) = decode_response(&frame).unwrap();
        assert_eq!(got_corr, corr);
        assert_eq!(got, resp);
    }

    #[test]
    fn every_request_variant_roundtrips() {
        roundtrip_request(
            Some(42),
            Request::Task {
                name: "G1".into(),
                mode: TaskMode::Hold,
                database: "avis".into(),
                commands: vec!["UPDATE cars SET rate = 2".into()],
            },
        );
        roundtrip_request(
            None,
            Request::Exec { task: "G1".into(), commands: vec!["UPDATE cars SET rate = 1".into()] },
        );
        roundtrip_request(Some(0), Request::Prepare { task: "G1".into() });
        roundtrip_request(
            Some(u64::MAX),
            Request::Task {
                name: "T1".into(),
                mode: TaskMode::NoCommit,
                database: "continental".into(),
                commands: vec!["SELECT 'multi\nline | literal' FROM flights".into()],
            },
        );
        roundtrip_request(
            Some(7),
            Request::Task {
                name: "T".into(),
                mode: TaskMode::Auto,
                database: "d".into(),
                commands: vec![],
            },
        );
        roundtrip_request(Some(1), Request::Commit { task: "T1".into() });
        roundtrip_request(Some(2), Request::Abort { task: "T1".into() });
        roundtrip_request(Some(3), Request::Resolve { task: "T1".into(), commit: true });
        roundtrip_request(Some(4), Request::Resolve { task: "T1".into(), commit: false });
        roundtrip_request(
            Some(5),
            Request::Compensate {
                task: "T1".into(),
                database: "continental".into(),
                commands: vec!["UPDATE flights SET rate = rate / 1.1".into()],
            },
        );
        roundtrip_request(
            Some(6),
            Request::Partial {
                database: "avis".into(),
                sql: "SELECT code FROM cars".into(),
                baseline: Some("SELECT code\nFROM cars".into()),
            },
        );
        roundtrip_request(
            Some(6),
            Request::Partial { database: "avis".into(), sql: "SELECT 1".into(), baseline: None },
        );
        roundtrip_request(
            Some(18),
            Request::PartialAgg {
                database: "avis".into(),
                sql: "SELECT cartype AS b_c_cartype, COUNT(*) AS agg_cnt FROM cars \
                      GROUP BY cartype"
                    .into(),
                baseline: Some("SELECT code\nFROM cars".into()),
            },
        );
        roundtrip_request(
            Some(19),
            Request::PartialAgg {
                database: "avis".into(),
                sql: "SELECT COUNT(*) AS agg_cnt FROM cars".into(),
                baseline: None,
            },
        );
        roundtrip_request(Some(8), Request::Schema { database: "avis".into() });
        roundtrip_request(Some(16), Request::Stats { database: "avis".into(), table: None });
        roundtrip_request(
            Some(17),
            Request::Stats { database: "avis".into(), table: Some("cars".into()) },
        );
        roundtrip_request(
            Some(11),
            Request::LoadMany {
                database: "avis".into(),
                parts: vec![
                    ("part_national".into(), "COLS code:int\nR I:1\n".into()),
                    ("part_avis".into(), "COLS rate:float\nR F:39.5\nR F:25.0\n".into()),
                    ("part_weird".into(), "not a result set at all".into()),
                    ("part_empty".into(), String::new()),
                ],
            },
        );
        roundtrip_request(Some(12), Request::LoadMany { database: "a".into(), parts: vec![] });
        roundtrip_request(
            Some(20),
            Request::Combine {
                database: "avis".into(),
                home: Some("SELECT code\nFROM cars".into()),
                parts: vec!["national".into(), "hertz".into()],
                edges: vec![
                    HomeEdge {
                        reducer: "national".into(),
                        key_column: "b_v_vcode".into(),
                        binding: "c".into(),
                        column: "code".into(),
                        rule: EdgeRule::Cap(100),
                    },
                    HomeEdge {
                        reducer: "national".into(),
                        key_column: "b_v_rate".into(),
                        binding: "c".into(),
                        column: "rate".into(),
                        rule: EdgeRule::Bytes { ndv: None, bytes: 0.1 },
                    },
                ],
                sql: "SELECT * FROM part_avis, part_national, part_hertz".into(),
                measure: true,
            },
        );
        roundtrip_request(
            Some(21),
            Request::Combine {
                database: "a".into(),
                home: None,
                parts: vec![],
                edges: vec![],
                sql: String::new(),
                measure: false,
            },
        );
        roundtrip_request(
            None,
            Request::Ship {
                key: u64::MAX,
                to: "site2".into(),
                database: "avis".into(),
                sql: "SELECT code FROM cars".into(),
                baseline: Some("SELECT code\nFROM cars".into()),
                echo: false,
            },
        );
        roundtrip_request(
            Some(22),
            Request::Ship {
                key: 0,
                to: "site2".into(),
                database: "avis".into(),
                sql: "SELECT 1".into(),
                baseline: None,
                echo: true,
            },
        );
        roundtrip_request(
            None,
            Request::Part {
                key: 23,
                database: "avis".into(),
                payload: Some("COLS code:int\nR I:1\n".into()),
                access: Some("scan".into()),
                error: None,
                full_bytes: 340,
            },
        );
        roundtrip_request(
            None,
            Request::Part {
                key: 24,
                database: "avis".into(),
                payload: None,
                access: None,
                error: Some("unknown column | nope\nline2".into()),
                full_bytes: 0,
            },
        );
        roundtrip_request(
            Some(13),
            Request::DropMany { database: "avis".into(), tables: vec!["p1".into(), "p2".into()] },
        );
        roundtrip_request(Some(14), Request::DropMany { database: "a".into(), tables: vec![] });
        roundtrip_request(Some(15), Request::Ping);
        roundtrip_request(None, Request::Shutdown);
    }

    #[test]
    fn every_response_variant_roundtrips() {
        roundtrip_response(Some(42), Response::Ok);
        roundtrip_response(None, Response::OkPayload { payload: "TABLE t x:int\n".into() });
        roundtrip_response(
            Some(1),
            Response::Err { message: "lock conflict | details\nline2".into() },
        );
        roundtrip_response(
            Some(2),
            Response::TaskDone { status: 'P', affected: 3, payload: None, error: None },
        );
        roundtrip_response(
            Some(3),
            Response::TaskDone {
                status: 'C',
                affected: 0,
                payload: Some("COLS code:int\nR I:1\n".into()),
                error: None,
            },
        );
        roundtrip_response(
            Some(4),
            Response::TaskDone {
                status: 'A',
                affected: 0,
                payload: None,
                error: Some("simulated deadlock".into()),
            },
        );
        roundtrip_response(
            Some(5),
            Response::PartialDone {
                payload: Some("COLS code:int|status:char(16)\nR I:1|S:available\n".into()),
                error: None,
                full_rows: 12,
                full_bytes: 340,
                access: Some("probe".into()),
            },
        );
        roundtrip_response(
            Some(6),
            Response::PartialDone {
                payload: None,
                error: Some("unknown table | details\nline2".into()),
                full_rows: 0,
                full_bytes: 0,
                access: None,
            },
        );
        roundtrip_response(
            Some(7),
            Response::PartialAggDone {
                payload: Some("COLS b_c_cartype:char(16)|agg_cnt:int\nR S:bus|I:3\n".into()),
                error: None,
                groups: 1,
                full_rows: 40,
                full_bytes: 900,
            },
        );
        roundtrip_response(
            Some(9),
            Response::CombineDone {
                payload: Some("COLS code:int\nR I:1\n".into()),
                home_rows: 12,
                access: Some("scan".into()),
                saved: 900,
                report: Box::new(CombineReport {
                    edges: vec![(4, true), (7, false)],
                    parts: vec![PartDone {
                        rows: 3,
                        bytes: 72,
                        access: Some("probe".into()),
                        error: None,
                        saved: 0,
                    }],
                }),
            },
        );
        roundtrip_response(
            Some(10),
            Response::CombineDone {
                payload: None,
                home_rows: 0,
                access: None,
                saved: 0,
                report: Box::new(CombineReport {
                    edges: vec![],
                    parts: vec![PartDone {
                        error: Some("type error | x".into()),
                        ..PartDone::default()
                    }],
                }),
            },
        );
        roundtrip_response(
            Some(8),
            Response::PartialAggDone {
                payload: None,
                error: Some("unknown column | details\nline2".into()),
                groups: 0,
                full_rows: 0,
                full_bytes: 0,
            },
        );
    }

    #[test]
    fn non_canonical_payloads_ship_verbatim_and_survive() {
        // Trailing blank line: decodes as a result set but does not re-encode
        // to itself, so the frame must carry it verbatim.
        for payload in
            ["COLS code:int\nR I:1\n\n", "COLS code:int\n\nR I:1\n", "plain text", "R |||"]
        {
            roundtrip_response(
                Some(9),
                Response::TaskDone {
                    status: 'C',
                    affected: 0,
                    payload: Some(payload.to_string()),
                    error: None,
                },
            );
        }
    }

    #[test]
    fn canonical_payloads_ship_columnar() {
        let rows: String = (0..100).map(|i| format!("R I:{i}|S:available\n")).collect();
        let payload = format!("COLS code:int|status:char(16)\n{rows}");
        let frame = encode_response(
            &pool(),
            Some(1),
            &Response::PartialDone {
                payload: Some(payload.clone()),
                error: None,
                full_rows: 0,
                full_bytes: 0,
                access: None,
            },
        );
        assert!(
            frame.len() < payload.len() / 2,
            "columnar frame {} not smaller than text payload {}",
            frame.len(),
            payload.len()
        );
    }

    #[test]
    fn bad_frames_rejected() {
        let frame = encode_request(&pool(), Some(1), &Request::<String>::Ping);
        // Wrong magic.
        let mut bad = frame.clone().into_vec();
        bad[0] = b'@';
        assert!(decode_request(&bad).is_err());
        // Wrong version.
        let mut bad = frame.clone().into_vec();
        bad[1] = 9;
        assert!(decode_request(&bad).is_err());
        // Unknown flags.
        let mut bad = frame.clone().into_vec();
        bad[2] = 0xF0;
        assert!(decode_request(&bad).is_err());
        // Trailing garbage.
        let mut bad = frame.clone().into_vec();
        bad.push(0);
        assert!(decode_request(&bad).is_err());
        // Unknown tag.
        let mut bad = frame.clone().into_vec();
        *bad.last_mut().unwrap() = 0x7F;
        assert!(decode_request(&bad).is_err());
        // A request frame is not a response frame.
        assert!(decode_response(&frame).is_err());
        // Empty body.
        assert!(decode_request(&[]).is_err());
        assert!(peek_correlation(&[]).is_none());
    }

    /// A hand-built text that the `String` shim ships verbatim still reaches
    /// a peer holding rows as rows (`codec_proptests` covers the canonical
    /// case: both payload types frame byte-identically).
    #[test]
    fn verbatim_blocks_decode_into_rows() {
        let rs = ResultSet {
            columns: vec![ColumnMeta { name: "code".into(), data_type: DataType::Int }],
            rows: vec![vec![Value::Int(1)], vec![Value::Null]],
        };
        // A trailing blank line makes the text non-canonical.
        let loose = format!("{}\n", crate::wire::encode_result_set(&rs));
        let req =
            Request::LoadMany { database: "avis".into(), parts: vec![("t".to_string(), loose)] };
        let frame = encode_request(&pool(), None, &req);
        let (_, typed) = decode_request_as::<ResultSet>(&frame).unwrap();
        assert_eq!(
            typed,
            Request::LoadMany { database: "avis".into(), parts: vec![("t".to_string(), rs)] }
        );
    }

    #[test]
    fn frames_reuse_pooled_buffers() {
        let pool = pool();
        drop(encode_request(&pool, Some(1), &Request::<String>::Ping));
        assert_eq!(pool.idle(), 1);
        drop(encode_request(&pool, Some(2), &Request::<String>::Ping));
        assert_eq!(pool.reuses(), 1);
    }
}
