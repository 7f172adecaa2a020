//! The ring-constrained join (RCJ) — the core contribution of Yiu,
//! Karras and Mamoulis, *"Ring-constrained Join: Deriving Fair Middleman
//! Locations from Pointsets via a Geometric Constraint"* (EDBT 2008).
//!
//! Given two pointsets `P` and `Q` indexed by disk-based R*-trees, the RCJ
//! returns every pair `⟨p, q⟩` whose smallest enclosing circle contains no
//! other point of `P ∪ Q`. The circle center is a *fair middleman
//! location*: equidistant from `p` and `q`, minimising the maximum
//! distance to both, and — because the circle is empty — guaranteed that
//! `p` and `q` are the nearest members of their datasets for anyone
//! standing there. Unlike the ε-distance join or k-closest-pairs, the
//! constraint is purely geometric and parameter-free, and adapts to local
//! data density.
//!
//! # The session API: Engine → Plan → Stream
//!
//! The documented entry point is the three-layer query API:
//!
//! * [`Engine`] — a session owning a shared pager and named datasets
//!   ([`Engine::load`] + [`LoadBuilder::index`] with
//!   [`IndexKind::Rtree`] or [`IndexKind::Quadtree`]); datasets persist
//!   across queries and the two sides of one join may mix index kinds.
//! * [`Plan`] — [`Engine::query`] builders ([`QueryBuilder::join`],
//!   [`QueryBuilder::self_join`], [`QueryBuilder::top_k`],
//!   [`QueryBuilder::within`], ...) resolve
//!   into an inspectable plan: concrete algorithm (with
//!   [`RcjAlgorithm::Auto`] resolved by the [`planner`]'s calibrated
//!   cost model), index kinds, executor, and per-algorithm cost
//!   estimates. `Plan` implements `Display` — this is the CLI's
//!   `explain`.
//! * [`RcjStream`] — [`Plan::stream`] consumes results lazily
//!   (leaf-batch by leaf-batch, bounded memory, early exit for top-k),
//!   while [`Plan::collect`] materialises the classic [`RcjOutput`].
//!
//! # Quickstart
//!
//! ```
//! use ringjoin_core::{Engine, IndexKind, RcjAlgorithm, RingBounds};
//! use ringjoin_geom::{pt, Item, Rect};
//!
//! let mut engine = Engine::new();
//! let restaurants =
//!     (0..50).map(|i| Item::new(i, pt((i % 7) as f64 * 13.0, (i % 5) as f64 * 17.0)));
//! let residences =
//!     (0..80).map(|i| Item::new(i, pt((i % 11) as f64 * 9.0, (i % 13) as f64 * 7.0)));
//! engine.load("restaurants", restaurants.collect()).index(IndexKind::Rtree);
//! engine.load("residences", residences.collect()).index(IndexKind::Quadtree);
//!
//! // Inspect before running: Auto resolves via the cost model.
//! let plan = engine.query().join("residences", "restaurants").plan()?;
//! assert_ne!(plan.algorithm(), RcjAlgorithm::Auto);
//! println!("{plan}");
//!
//! // Stream lazily (bounded memory) ...
//! for pair in plan.stream().take(3) {
//!     println!("recycling station at {} serving restaurant {} and residence {}",
//!              pair.center(), pair.p.id, pair.q.id);
//! }
//! // ... or materialise the classic output shape.
//! let out = plan.collect();
//! assert!(out.stats.result_pairs > 0);
//!
//! // Within a window: the rings meeting a region and at most 20 wide,
//! // exactly the full answer's pairs the window admits.
//! let view = RingBounds { bounds: Rect::new(pt(0.0, 0.0), pt(40.0, 30.0)), max_diameter: 20.0 };
//! let windowed = engine.query().join("residences", "restaurants").within(view).collect()?;
//! assert!(windowed.pairs.iter().eq(out.pairs.iter().filter(|pr| view.admits(pr))));
//! # Ok::<(), ringjoin_core::EngineError>(())
//! ```
//!
//! # Compat: the one-shot function API
//!
//! The paper-shaped one-shot calls remain and delegate to the same
//! sink-based drivers the engine runs (every pre-engine test doubles as
//! a regression test for the redesign):
//!
//! ```
//! use ringjoin_core::{rcj_join, RcjOptions};
//! use ringjoin_rtree::{bulk_load, Item};
//! use ringjoin_storage::{MemDisk, Pager};
//! use ringjoin_geom::pt;
//!
//! let pager = Pager::new(MemDisk::new(1024), 32).into_shared();
//! let restaurants = (0..50).map(|i| Item::new(i, pt((i % 7) as f64 * 13.0, (i % 5) as f64 * 17.0)));
//! let residences = (0..80).map(|i| Item::new(i, pt((i % 11) as f64 * 9.0, (i % 13) as f64 * 7.0)));
//! let tp = bulk_load(pager.clone(), restaurants.collect());
//! let tq = bulk_load(pager.clone(), residences.collect());
//!
//! let out = rcj_join(&tq, &tp, &RcjOptions::default());
//! assert!(out.stats.result_pairs > 0);
//! ```
//!
//! # Algorithms
//!
//! * [`rcj_brute`] — the `O(|P|·|Q|)` oracle.
//! * [`RcjAlgorithm::Inj`] — Index Nested Loop Join (Algorithms 2–5): a
//!   per-point filter built on incremental nearest-neighbour search with
//!   the half-plane pruning of Lemmas 1/3, followed by bulk circle
//!   verification (Algorithm 3).
//! * [`RcjAlgorithm::Bij`] — Bulk INJ (Algorithms 6–7): one filter and
//!   one verification per *leaf* of `T_Q`, slashing tree traversals.
//! * [`RcjAlgorithm::Obj`] — Optimized BIJ (Lemma 5): sibling points of
//!   the same leaf prune for each other at zero extra I/O — the paper's
//!   winner across all experiments.
//! * [`RcjAlgorithm::Auto`] — defer to the [`planner`]'s calibrated
//!   cost model at plan time.
//!
//! Plus, beyond the paper's evaluation:
//!
//! * [`rcj_self_join`] — the self-RCJ (postboxes application).
//! * [`RcjIndex`]/[`IndexProbe`] — the drivers are index-agnostic: the
//!   same INJ/BIJ/OBJ code runs over R*-trees, quadtrees, and any index
//!   that can expand a node into items and region-bounded children.
//! * [`Executor`] — sequential or deterministic multi-threaded
//!   execution ([`Executor::Parallel`] output is identical to
//!   sequential, pair for pair); `RINGJOIN_THREADS` switches the
//!   session default.
//! * [`PairSink`]/[`rcj_join_into`] — the drivers emit pairs instead of
//!   materialising them; streams, early exit, custom sinks and ranked
//!   queries (the [`TopK`] sink, which cuts the filter at its `k`-th
//!   best squared diameter) all hang off this seam.
//! * [`RingBounds`] — windowed joins: the pairs whose ring meets a
//!   region and is at most a given diameter wide, with each leaf point's
//!   filter cut at that diameter and the rest of the map left unread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
mod brute;
mod engine;
mod executor;
mod filter;
mod index;
mod join;
mod pair;
pub mod planner;
mod stats;
mod stream;
mod verify;
mod window;

pub use brute::{brute_candidates, rcj_brute, rcj_brute_self};
pub use engine::{
    validate_batch, DatasetHandle, Engine, EngineError, IndexKind, LoadBuilder, Mutation, Plan,
    QueryBuilder, UpdateBuilder,
};
pub use executor::Executor;
pub use filter::{bulk_filter, filter, BulkFilterResult};
pub use index::{IndexEntry, IndexProbe, NodeRef, QuadTreeProbe, RTreeProbe, RcjIndex};
pub use join::{
    leaf_regions, rcj_join, rcj_join_into, rcj_self_join, rcj_self_join_into, OuterOrder,
    RcjAlgorithm, RcjOptions, RcjOutput,
};
pub use pair::{pair_keys, sort_by_diameter, RcjPair};
pub use stats::RcjStats;
pub use stream::{
    rcj_self_stream, rcj_self_stream_by_diameter, rcj_stream, rcj_stream_by_diameter, PairSink,
    RcjStream, TaggedPairSink, TopK,
};
pub use verify::verify;
pub use window::{validate_bounds, RingBounds};
