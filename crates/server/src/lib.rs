//! Sharded serving for the ring-constrained join: per-shard
//! [`Engine`](ringjoin_core::Engine)s behind a space partition and a
//! small length-prefixed TCP wire protocol.
//!
//! The layers, bottom up:
//!
//! * [`SpacePartition`] — a longest-axis median split of the plane into
//!   `n` disjoint half-open cells, balanced by the dataset's points;
//!   [`SpacePartition::locate`] is total, so every leaf group and every
//!   point is owned by exactly one shard.
//! * [`ShardedEngine`] — `n` long-lived shard workers, each owning a
//!   full [`Engine`](ringjoin_core::Engine) replica (the ring
//!   constraint is *global*, so verification needs the whole index —
//!   shards partition the **work**, not the data) and one cell of the
//!   partition. Join output is byte-identical to a single engine: pairs
//!   merge by global outer-leaf index, top-k merges each shard's `k`
//!   best pairs in rank order with a k-bounded heap, and per-shard
//!   [`RcjStats`](ringjoin_core::RcjStats) merge to the sequential
//!   totals.
//! * [`proto`] — the frame format (`u32` big-endian length + UTF-8
//!   payload), the client grammar (`LOAD`, `INSERT`, `DELETE`,
//!   `UPSERT`, `JOIN`, `SELFJOIN`, `TOPK`, `EXPLAIN`, `STATS`, `HELLO`,
//!   `SHUTDOWN`) with optional `#<id>` request tokens echoed in replies
//!   so clients can pipeline, and the shard message
//!   ([`proto::ShardRequest`] / [`proto::ShardReply`]) every shard
//!   worker — thread or process — answers.
//! * [`Server`] / [`Client`] — the blocking TCP endpoints, and the only
//!   ones: one session loop serves a coordinator and a shard worker
//!   process alike ([`Server::bind_worker`], `serve --shard-of auto`),
//!   and the coordinator reaches its worker processes through the
//!   client. A coordinator, bound to the [`ShardedEngine`] it serves
//!   ([`Server::bind`]), accepts up to `max_sessions` concurrent
//!   sessions (one thread each), with a bounded admission queue in front
//!   of the shard workers: overload is shed as `ERR busy` + retry hint
//!   ([`ServerError::Busy`] client-side), never buffered without bound.
//!   Results stay byte-identical to a single in-process engine no
//!   matter how many sessions are interleaving.
//!
//! ```no_run
//! use ringjoin_server::{Client, Server, ServerConfig, ShardedEngine};
//! use ringjoin_core::{IndexKind, RcjAlgorithm};
//! # fn items() -> Vec<ringjoin_geom::Item> { Vec::new() }
//!
//! let config = ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..ServerConfig::default()
//! };
//! let server = Server::bind(&config, ShardedEngine::new(4)?)?;
//! let addr = server.local_addr();
//! std::thread::spawn(move || server.serve());
//!
//! let mut client = Client::connect(addr)?;
//! client.load("shops", IndexKind::Rtree, &items())?;
//! client.load("homes", IndexKind::Rtree, &items())?;
//! let out = client.join("homes", "shops", RcjAlgorithm::Auto, None)?;
//! println!("{} fair middleman locations from {} shard(s)", out.pairs.len(), out.shards_queried);
//! client.shutdown()?;
//! # Ok::<(), ringjoin_server::ServerError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod client;
mod num;
mod partition;
pub mod proto;
mod remote;
mod server;
mod sharded;
mod topology;

pub use client::{Client, RemoteOutput, DEFAULT_TIMEOUT};
pub use partition::SpacePartition;
pub use ringjoin_core::{Mutation, RingBounds};
pub use server::{Server, ServerConfig, ServerHandle};
pub use sharded::{
    DatasetInfo, ShardedEngine, ShardedOutput, TopologyConfig, UpdateInfo, WorkerSpec,
};

use std::fmt;

/// Everything that can go wrong serving a request — always reported to
/// the client as an `ERR` frame, never a panic of the serving process.
#[derive(Clone, Debug)]
pub enum ServerError {
    /// A shard *count* must be at least 1 (mirrors the `--threads 0`
    /// validation of the executor and CLI).
    InvalidShards,
    /// `LOAD` named a dataset that is already registered; a serving
    /// process refuses to swap data under a running client.
    DuplicateDataset(String),
    /// A query referenced a dataset never loaded.
    UnknownDataset(String),
    /// Malformed request line, option, or parameter.
    BadRequest(String),
    /// A shard worker died (its thread is gone).
    ShardGone(usize),
    /// A shard-side failure (plan error surfaced by a worker).
    Internal(String),
    /// Socket-level failure.
    Io(String),
    /// A socket operation exceeded its deadline (client side) — the
    /// peer is hung or unreachable, not merely slow to compute.
    Timeout(String),
    /// The server shed load: the admission queue (or the session limit)
    /// is full. Carries the server's retry hint.
    Busy {
        /// How long the server suggests waiting before retrying.
        retry_after_ms: u64,
    },
    /// The server answered `ERR` (client side).
    Remote(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::InvalidShards => {
                write!(f, "shard count must be at least 1 (got 0)")
            }
            ServerError::DuplicateDataset(name) => write!(
                f,
                "dataset {name:?} is already loaded (pick a new name; serving never replaces data in place)"
            ),
            ServerError::UnknownDataset(name) => {
                write!(f, "unknown dataset {name:?} (LOAD it first)")
            }
            ServerError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServerError::ShardGone(i) => write!(f, "shard worker {i} is gone"),
            ServerError::Internal(msg) => write!(f, "shard error: {msg}"),
            ServerError::Io(msg) => write!(f, "io error: {msg}"),
            ServerError::Timeout(msg) => write!(f, "timed out: {msg}"),
            ServerError::Busy { retry_after_ms } => {
                write!(f, "server busy: retry after {retry_after_ms} ms")
            }
            ServerError::Remote(msg) => write!(f, "server error: {msg}"),
        }
    }
}

impl std::error::Error for ServerError {}
