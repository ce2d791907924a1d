//! Message framing, in both wire formats: the one module that knows how a
//! message body is laid out.
//!
//! The line-oriented text format in [`crate::proto`] / [`crate::wire`]
//! remains the default — and the debug and golden-trace format. This module
//! adds a compact binary frame grammar ([`frame`]) over LEB128 varints
//! ([`varint`]) with columnar result-set payloads ([`columnar`]).
//!
//! **Bodies.** [`frame_request`] / [`frame_response`] frame a message in
//! either format, behind an optional correlation id, into the buffer that
//! becomes its [`netsim::Body`]: the payload is written last, so the buffer
//! grows to its final size once, and from there the body is shared — a
//! resend and the LAM's reply cache copy no byte. [`peek`] reads a body's
//! correlation id and format, [`read_request`] / [`read_response`] decode
//! it, and [`is_reply`] tells a reply from a request. The LAM and its client
//! frame and read bodies through these alone, so a change of framing is a
//! change here.
//!
//! **Negotiation.** The client picks the format per connection
//! ([`crate::lamclient::LamFactory::wire_format`], threaded down from
//! `Session.wire_format`); the LAM server simply mirrors whatever format a
//! request arrived in, so mixed-format clients coexist and the bootstrap
//! `PING` (sent before negotiation applies) always travels as text.
//! Correlation-id framing and the at-most-once reply cache behave
//! identically under both formats — the differential harness
//! (`tests/wire_differential.rs`) proves results, `ExecStats` and metrics
//! match modulo byte counters.

pub mod columnar;
pub mod frame;
pub mod varint;

use crate::error::MdbsError;
use crate::proto::{self, Encoded, Payload, Request, Response};
use crate::wire::TextRows;
use columnar::ColumnarRows;
use ldbs::engine::{ColumnMeta, ResultSet, RowSink};
use ldbs::value::{DataType, Value};
use netsim::{Body, BufferPool};
use std::borrow::Cow;
use std::vec::Drain;

pub use frame::{
    decode_request, decode_request_as, decode_request_sized, decode_response, decode_response_as,
    peek_correlation, request_bytes, response_bytes,
};

/// Frames `req` as a message body in `format`, behind correlation id `corr`
/// if given.
pub fn frame_request<P: Payload>(format: WireFormat, corr: Option<u64>, req: &Request<P>) -> Body {
    match format {
        WireFormat::Text => Body::from(req.encode_framed(corr)),
        WireFormat::Binary => Body::from(request_bytes(corr, req)),
    }
}

/// Frames `resp` as a message body in `format`, behind correlation id
/// `corr` if given.
pub fn frame_response<P: Payload>(
    format: WireFormat,
    corr: Option<u64>,
    resp: &Response<P>,
) -> Body {
    match format {
        WireFormat::Text => Body::from(resp.encode_framed(corr)),
        WireFormat::Binary => Body::from(response_bytes(corr, resp)),
    }
}

/// A body's correlation id, if it carries one, and its format — read from
/// its prefix or frame header without decoding the rest.
pub fn peek(body: &Body) -> (Option<u64>, WireFormat) {
    match body {
        Body::Text(text) => (proto::split_correlation(text).0, WireFormat::Text),
        Body::Binary(bytes) => (peek_correlation(bytes), WireFormat::Binary),
    }
}

/// Decodes a request body holding `P` payloads, with the byte size of the
/// payload block a [`Request::Part`] carried (0 for every other request).
pub fn read_request<P: Payload>(body: &Body) -> Result<(Request<P>, usize), MdbsError> {
    match body {
        Body::Text(text) => Request::decode_sized(proto::split_correlation(text).1),
        Body::Binary(bytes) => decode_request_sized(bytes).map(|(_, req, size)| (req, size)),
    }
}

/// Decodes a response body holding a `P` payload, with the byte size of the
/// payload block it carried (0 when it carried none).
pub fn read_response<P: Payload>(body: &Body) -> Result<(Response<P>, usize), MdbsError> {
    match body {
        Body::Text(text) => Response::decode_as(proto::split_correlation(text).1),
        Body::Binary(bytes) => decode_response_as(bytes).map(|(_, resp, size)| (resp, size)),
    }
}

/// Whether `body` is a reply, which a LAM only ever receives by mistake.
pub fn is_reply(body: &Body) -> bool {
    read_response::<ResultSet>(body).is_ok()
}

/// [`request_bytes`] behind the signature `fedbench/src/layers.rs` calls
/// (the pool is stateless); kept for it until ROADMAP item 1(b).
pub fn encode_request<P: Payload>(
    _: &BufferPool,
    corr: Option<u64>,
    req: &Request<P>,
) -> Box<[u8]> {
    request_bytes(corr, req).into()
}

/// [`response_bytes`] behind the signature `fedbench/src/layers.rs` calls;
/// kept for it until ROADMAP item 1(b).
pub fn encode_response<P: Payload>(
    _: &BufferPool,
    corr: Option<u64>,
    resp: &Response<P>,
) -> Box<[u8]> {
    response_bytes(corr, resp).into()
}

/// Which encoding a client uses for LAM requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// Line-oriented text (`proto.rs` / `wire.rs`) — the default, the debug
    /// format, and the format golden traces pin.
    #[default]
    Text,
    /// Length-prefixed binary frames with columnar payloads.
    Binary,
}

impl WireFormat {
    /// Byte size of the payload block `rs` occupies on a connection of this
    /// format: its `wire::encode_result_set` text, or its columnar block.
    /// This is the unit of every `bytes=` / `saved=` span note and `lam.bytes*`
    /// counter, so the two formats honestly report different volumes.
    pub fn payload_len(&self, rs: &ResultSet) -> usize {
        match self {
            WireFormat::Text => {
                let mut text = String::new();
                rs.write_text(&mut text);
                text.len()
            }
            WireFormat::Binary => {
                let mut block = Vec::new();
                rs.write_block(&mut block);
                block.len()
            }
        }
    }

    /// A writer of a SELECT's rows into a payload of this format, as the
    /// engine produces them.
    pub fn row_writer(&self) -> RowWriter {
        match self {
            WireFormat::Text => RowWriter::Text(TextRows::default()),
            WireFormat::Binary => RowWriter::Columnar(ColumnarRows::default()),
        }
    }

    /// A writer that only sizes the payload of this format: what a LAM
    /// measures an `EXPLAIN` baseline with. A text one keeps no row; a
    /// columnar one keeps its columns, which choose their layout last, and
    /// writes no block.
    pub fn row_counter(&self) -> RowWriter {
        match self {
            WireFormat::Text => RowWriter::Text(TextRows::counting()),
            WireFormat::Binary => RowWriter::Columnar(ColumnarRows::default()),
        }
    }

    /// Metric-label form (`wire.encode_us{format=...}`).
    pub fn label(&self) -> &'static str {
        match self {
            WireFormat::Text => "text",
            WireFormat::Binary => "binary",
        }
    }
}

/// The row writer of one format ([`WireFormat::row_writer`]): the sink a
/// LAM runs a SELECT into, so the rows go from the engine straight into the
/// payload of its reply. The bytes are those the format's
/// `write_result_set` writes for the same rows.
pub enum RowWriter {
    /// Text lines ([`crate::wire::TextRows`]).
    Text(TextRows),
    /// A columnar block ([`columnar::ColumnarRows`]).
    Columnar(ColumnarRows),
}

impl RowWriter {
    /// Rows written so far.
    pub fn count(&self) -> usize {
        match self {
            RowWriter::Text(w) => w.count(),
            RowWriter::Columnar(w) => w.count(),
        }
    }

    /// The payload's bytes on the wire: [`Encoded::wire_len`] of
    /// [`RowWriter::into_payload`], without writing the payload out.
    pub fn wire_len(&self) -> usize {
        match self {
            RowWriter::Text(w) => w.byte_len(),
            RowWriter::Columnar(w) => 1 + w.byte_len(),
        }
    }

    /// The payload written.
    pub fn into_payload(self) -> Encoded {
        match self {
            RowWriter::Text(w) => Encoded::Text(w.into_string()),
            RowWriter::Columnar(w) => {
                let mut block = Vec::new();
                w.write_to(&mut block);
                Encoded::Columnar(block)
            }
        }
    }
}

impl RowSink for RowWriter {
    fn begin(&mut self, columns: &[(String, Option<DataType>)]) {
        match self {
            RowWriter::Text(w) => w.begin(columns),
            RowWriter::Columnar(w) => w.begin(columns),
        }
    }

    fn row(&mut self, values: Drain<'_, Cow<'_, Value>>) {
        match self {
            RowWriter::Text(w) => w.row(values),
            RowWriter::Columnar(w) => w.row(values),
        }
    }

    fn finish(&mut self, columns: Vec<ColumnMeta>) {
        match self {
            RowWriter::Text(w) => w.finish(columns),
            RowWriter::Columnar(w) => w.finish(columns),
        }
    }
}
