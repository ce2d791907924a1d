//! Binary wire codec: a negotiated alternative to the text proto.
//!
//! The line-oriented text format in [`crate::proto`] / [`crate::wire`]
//! remains the default — and the debug and golden-trace format. This module
//! adds a compact binary frame grammar ([`frame`]) over LEB128 varints
//! ([`varint`]) with columnar result-set payloads ([`columnar`]), encoded
//! into buffers leased from a [`netsim::BufferPool`].
//!
//! **Negotiation.** The client picks the format per connection
//! ([`crate::lamclient::LamClient::set_wire_format`], threaded down from
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

use crate::proto::Payload;
use ldbs::engine::ResultSet;

pub use frame::{
    decode_request, decode_request_as, decode_response, decode_response_as, encode_request,
    encode_response, peek_correlation,
};

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

    /// Metric-label form (`wire.encode_us{format=...}`).
    pub fn label(&self) -> &'static str {
        match self {
            WireFormat::Text => "text",
            WireFormat::Binary => "binary",
        }
    }
}
