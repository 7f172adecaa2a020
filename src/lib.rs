//! # ringjoin — the Ring-Constrained Join
//!
//! A complete, from-scratch reproduction of **Yiu, Karras, Mamoulis:
//! "Ring-constrained Join: Deriving Fair Middleman Locations from
//! Pointsets via a Geometric Constraint" (EDBT 2008)** — the spatial join
//! whose result pairs `⟨p, q⟩` are exactly those whose smallest enclosing
//! circle contains no other data point. The circle centers are *fair
//! middleman locations*: recycling stations between restaurants and
//! residences, taxi stands between cinemas and restaurants, postboxes
//! between buildings.
//!
//! This crate is a facade re-exporting the workspace's layers:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`geom`] | `ringjoin-geom` | points, MBRs, circles, the Ψ⁻ pruning half-planes |
//! | [`storage`] | `ringjoin-storage` | 1 KB pages, the LRU buffer pool, the 10 ms/fault cost model |
//! | [`rtree`] | `ringjoin-rtree` | disk-based R*-tree with incremental NN search |
//! | [`core`] | `ringjoin-core` | the RCJ: INJ / BIJ / OBJ, self-join, streams, brute oracle |
//! | [`spatialjoin`] | `ringjoin-spatialjoin` | ε-join, k-closest-pairs, kNN join, precision/recall |
//! | [`datagen`] | `ringjoin-datagen` | UI / Gaussian / GNIS-like workload generators |
//! | [`server`] | `ringjoin-server` | sharded serving: space partition, shard engines, TCP wire protocol, client |
//!
//! The most common entry points are re-exported at the top level. The
//! documented front door is the session API (`Engine` → `Plan` →
//! `RcjStream`):
//!
//! ```
//! use ringjoin::{uniform, Engine, IndexKind};
//!
//! let mut engine = Engine::new();
//! engine.load("shops", uniform(500, 1)).index(IndexKind::Rtree);
//! engine.load("homes", uniform(500, 2)).index(IndexKind::Rtree);
//! let plan = engine.query().join("homes", "shops").plan()?;
//! println!("{plan}"); // `explain`: resolved algorithm + cost estimates
//! let out = plan.collect();
//! println!("{} fair middleman locations", out.pairs.len());
//! # assert!(out.pairs.len() > 0);
//! # Ok::<(), ringjoin::EngineError>(())
//! ```
//!
//! The paper-shaped one-shot call remains as a compat layer over the
//! same drivers:
//!
//! ```
//! use ringjoin::{bulk_load, rcj_join, uniform, MemDisk, Pager, RcjOptions};
//!
//! let pager = Pager::new(MemDisk::new(1024), 64).into_shared();
//! let tp = bulk_load(pager.clone(), uniform(500, 1));
//! let tq = bulk_load(pager.clone(), uniform(500, 2));
//! let out = rcj_join(&tq, &tp, &RcjOptions::default());
//! println!("{} fair middleman locations", out.pairs.len());
//! # assert!(out.pairs.len() > 0);
//! ```
//!
//! A browsing UI needs only the most compact pairs first: the
//! diameter-ordered stream yields them in ascending ring diameter, and
//! `take(k)` stops after a top-k without computing the whole join:
//!
//! ```
//! use ringjoin::{bulk_load, rcj_stream_by_diameter, uniform, MemDisk, Pager, RcjOptions};
//!
//! let pager = Pager::new(MemDisk::new(1024), 128).into_shared();
//! let tp = bulk_load(pager.clone(), uniform(300, 1));
//! let tq = bulk_load(pager.clone(), uniform(300, 2));
//! let top3: Vec<_> = rcj_stream_by_diameter(&tq, &tp, &RcjOptions::default())
//!     .take(3)
//!     .collect();
//! assert_eq!(top3.len(), 3);
//! assert!(top3[0].diameter() <= top3[1].diameter());
//! assert!(top3[1].diameter() <= top3[2].diameter());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ringjoin_core as core;
pub use ringjoin_datagen as datagen;
pub use ringjoin_geom as geom;
pub use ringjoin_quadtree as quadtree;
pub use ringjoin_rtree as rtree;
pub use ringjoin_server as server;
pub use ringjoin_spatialjoin as spatialjoin;
pub use ringjoin_storage as storage;

pub use ringjoin_core::{
    pair_keys, rcj_brute, rcj_brute_self, rcj_join, rcj_join_into, rcj_self_join,
    rcj_self_join_into, rcj_self_stream, rcj_self_stream_by_diameter, rcj_stream,
    rcj_stream_by_diameter, sort_by_diameter, DatasetHandle, Engine, EngineError, Executor,
    IndexKind, IndexProbe, Mutation, OuterOrder, PairSink, Plan, QueryBuilder, RcjAlgorithm,
    RcjIndex, RcjOptions, RcjOutput, RcjPair, RcjStats, RcjStream,
};
pub use ringjoin_datagen::{gaussian_clusters, gnis_like, uniform, GnisDataset};
pub use ringjoin_geom::{pt, Circle, HalfPlane, Point, Rect};
pub use ringjoin_rtree::{bulk_load, bulk_load_with, Item, RTree, RTreeConfig};
pub use ringjoin_server::{
    Client, RingBounds, Server, ServerConfig, ServerHandle, ShardedEngine, TopologyConfig,
    UpdateInfo, WorkerSpec,
};
pub use ringjoin_spatialjoin::{epsilon_join, k_closest_pairs, knn_join, precision_recall};
pub use ringjoin_storage::{
    BufferPool, CostModel, FileDisk, IoStats, MemDisk, Pager, PooledPager, SharedPager,
};

/// Compiles the README's code blocks as doctests so the documented
/// quickstart can never drift from the real API.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;
