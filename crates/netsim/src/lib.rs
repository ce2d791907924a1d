//! # netsim — simulated multi-site network
//!
//! Stand-in for the TCP/IP + ISODE communication substrate of the Narada
//! environment (paper §4.1). The multidatabase engine and the Local Access
//! Managers run at named *sites* and exchange messages ("messages, data and
//! command files" in the paper's words) through this crate.
//!
//! Features the reproduction needs:
//!
//! * **mailbox endpoints** — register a site, get an [`Endpoint`] with
//!   blocking/timeout receive;
//! * **shared bodies** — a message [`Body`] (text or a binary frame) is the
//!   buffer its encoder wrote, behind an `Arc`: sending, resending and
//!   caching it copy no byte;
//! * **latency model** — a base one-way delay plus per-link overrides;
//!   delivery time is enforced at the receiver, so messages in flight overlap
//!   (what a fan-out's parallel requests rely on);
//! * **failure injection** — per-link partitions and seeded stochastic drops,
//!   producing the timeout-driven abort paths of §3.2; each directed link
//!   draws its losses from a stream of its own, so a fan-out replays from
//!   the seed;
//! * **traffic accounting** — message and byte counts per link, used by the
//!   benchmarks to count 2PC rounds (experiment B3).

pub mod error;
pub mod latency;
pub mod message;
pub mod network;
pub mod stats;

pub use error::{FaultKind, NetError};
pub use latency::LatencyModel;
pub use message::{Body, Message};
pub use network::{Endpoint, Network};
pub use stats::NetStats;

/// Stateless, and kept only for `fedbench/src/layers.rs`, which hands one to
/// `mdbs::codec::encode_request` / `encode_response`: a body is framed into a
/// buffer of its own and shared from there, so nothing is pooled. It goes with
/// ROADMAP item 1(b).
#[derive(Debug, Clone, Copy, Default)]
pub struct BufferPool;
