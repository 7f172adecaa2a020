//! The session layer: an [`Engine`] holding named, indexed datasets and
//! serving repeated RCJ queries over them.
//!
//! The paper's interface — one function call over two freshly built
//! trees — is the wrong shape for serving: facility-location workloads
//! (the (1|1)-centroid problem, line-constrained server placement) ask
//! *many* placement queries against *standing* pointsets. The engine is
//! that session:
//!
//! ```text
//!   Engine::new()                         session: one pager, a default executor
//!     .load("shops", items).index(Rtree)  named datasets, any index kind
//!     .query().join("homes", "shops")     builder: what to join, how
//!     .within(window)                     optional: only the rings a window admits
//!     .plan()?                            inspectable Plan (algorithm, cost
//!                                         estimates, executor) — `explain`
//!     .stream() / .collect()              lazy RcjStream or materialised RcjOutput
//! ```
//!
//! Datasets persist across queries, so index construction is paid once;
//! a query pins the pager's own pages, sharing them rather than copying
//! them; and because both built-in probes live in this crate, the
//! two sides of one join can mix index kinds freely. The
//! [`Plan`] resolves [`RcjAlgorithm::Auto`] through the
//! [`planner`](crate::planner)'s calibrated cost model and implements
//! [`std::fmt::Display`] — the CLI's `explain` subcommand prints it
//! verbatim.

use crate::executor::{execute, run_subset};
use crate::index::NodeRef;
use crate::join::{LeafPass, LeafRegionMemo, RcjAlgorithm, RcjOptions, RcjOutput};
use crate::planner::{DatasetSummary, JoinCostModel, PlanEstimate};
use crate::stats::RcjStats;
use crate::stream::{open, RcjStream, TaggedPairSink};
use crate::window::{validate_bounds, RingBounds};
use crate::{Executor, RcjIndex};
use ringjoin_geom::{pt, Item, Point, Rect};
use ringjoin_quadtree::QuadTree;
use ringjoin_rtree::{bulk_load, RTree};
use ringjoin_storage::{MemDisk, Pager, SharedPager};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Index kind to build for a dataset registered with
/// [`Engine::load`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum IndexKind {
    /// Disk-based R*-tree (the paper's index; minimal MBRs, so the
    /// verification face rule applies).
    #[default]
    Rtree,
    /// Disk-based bucket PR quadtree (space-partitioning regions; the
    /// face rule is disabled automatically).
    Quadtree,
}

impl IndexKind {
    /// Lower-case tag used in plan lines and summaries.
    pub fn name(&self) -> &'static str {
        match self {
            IndexKind::Rtree => "rtree",
            IndexKind::Quadtree => "quadtree",
        }
    }
}

/// Errors surfaced by the query builder / planner.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A query referenced a dataset name never registered with
    /// [`Engine::load`].
    UnknownDataset(String),
    /// [`QueryBuilder::plan`] was called before
    /// [`QueryBuilder::join`]/[`QueryBuilder::self_join`] chose inputs.
    NoQuery,
    /// An [`UpdateBuilder::insert`] id already exists in the dataset
    /// (or earlier in the same batch). Use
    /// [`UpdateBuilder::upsert`] to replace.
    DuplicateId {
        /// The dataset being updated.
        dataset: String,
        /// The offending point id.
        id: u64,
    },
    /// An [`UpdateBuilder::delete`] id is not present in the dataset
    /// (or was already deleted earlier in the same batch).
    MissingId {
        /// The dataset being updated.
        dataset: String,
        /// The offending point id.
        id: u64,
    },
    /// A [`QueryBuilder::within`] window that
    /// [`validate_bounds`](crate::validate_bounds) refuses; carries the
    /// reason.
    InvalidWindow(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownDataset(name) => {
                write!(
                    f,
                    "unknown dataset {name:?} (register it with Engine::load)"
                )
            }
            EngineError::NoQuery => {
                write!(
                    f,
                    "no query inputs: call .join(outer, inner) or .self_join(dataset)"
                )
            }
            EngineError::DuplicateId { dataset, id } => {
                write!(
                    f,
                    "insert into {dataset:?}: id {id} already exists (use upsert to replace)"
                )
            }
            EngineError::MissingId { dataset, id } => {
                write!(f, "delete from {dataset:?}: id {id} not present")
            }
            EngineError::InvalidWindow(why) => write!(f, "invalid window: {why}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// One registered dataset: its name, the index built over it, the
/// authoritative id → point catalog, its mutation epoch and its outer
/// leaf list.
struct Dataset {
    name: String,
    index: AnyIndex,
    /// Authoritative pointset: every id currently in the dataset and its
    /// coordinates. Updates validate and apply against this map; the
    /// sorted iteration order is the canonical pointset of the epoch
    /// ([`Engine::dataset_items`]), which is what a rebuild-from-scratch
    /// oracle loads.
    items: BTreeMap<u64, Point>,
    /// Mutation epoch: 0 at load, +1 per applied non-empty update batch.
    /// Queries planned at different epochs may see different answers.
    epoch: u64,
    /// The decoded nodes the leaf walk keeps, so the walk after a
    /// mutation batch reads only the pages the batch wrote.
    memo: LeafRegionMemo,
    /// The index's leaf groups in depth-first order, each with the tight
    /// MBR of its items as its region: the list every leaf pass with
    /// this dataset as `Q` runs. Refreshed where the index changes, at
    /// load and after each applied update batch.
    leaves: Arc<[NodeRef]>,
}

/// The index kinds the engine can host natively.
enum AnyIndex {
    Rtree(RTree),
    Quadtree(QuadTree),
}

impl Dataset {
    fn kind(&self) -> IndexKind {
        match self.index {
            AnyIndex::Rtree(_) => IndexKind::Rtree,
            AnyIndex::Quadtree(_) => IndexKind::Quadtree,
        }
    }

    fn summary(&self) -> DatasetSummary {
        match &self.index {
            AnyIndex::Rtree(t) => t.summary(),
            AnyIndex::Quadtree(t) => t.summary(),
        }
    }

    /// Re-lists the leaves after the index changed. The memo re-reads
    /// only pages written since its last walk: every page after a load,
    /// the batch's pages after an update.
    fn refresh_leaves(&mut self) {
        let leaves = match &self.index {
            AnyIndex::Rtree(t) => self.memo.leaves(t),
            AnyIndex::Quadtree(t) => self.memo.leaves(t),
        };
        self.leaves = leaves.into();
    }
}

/// Dispatches a two-sided closure over the concrete index types of an
/// (outer, inner) dataset pair — the monomorphisation point of every
/// engine query.
macro_rules! with_tree_pair {
    ($outer:expr, $inner:expr, |$tq:ident, $tp:ident| $body:expr) => {
        match (&$outer.index, &$inner.index) {
            (AnyIndex::Rtree($tq), AnyIndex::Rtree($tp)) => $body,
            (AnyIndex::Rtree($tq), AnyIndex::Quadtree($tp)) => $body,
            (AnyIndex::Quadtree($tq), AnyIndex::Rtree($tp)) => $body,
            (AnyIndex::Quadtree($tq), AnyIndex::Quadtree($tp)) => $body,
        }
    };
}

/// Single-sided variant of [`with_tree_pair!`] for self-joins.
macro_rules! with_tree {
    ($ds:expr, |$t:ident| $body:expr) => {
        match &$ds.index {
            AnyIndex::Rtree($t) => $body,
            AnyIndex::Quadtree($t) => $body,
        }
    };
}

/// A long-lived RCJ session: one shared pager, named indexed datasets,
/// and a default [`Executor`]. See the crate-level docs for the
/// Engine → Plan → Stream walkthrough.
pub struct Engine {
    pager: SharedPager,
    datasets: BTreeMap<String, Dataset>,
    executor: Executor,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An in-memory engine: 1 KB pages (the paper's size) and an
    /// effectively unlimited buffer. Use [`Engine::with_pager`] to bring
    /// your own storage, and [`Engine::set_buffer_frac`] for the paper's
    /// buffer-sizing rule.
    pub fn new() -> Self {
        Engine::with_pager(Pager::new(MemDisk::new(1024), usize::MAX / 2).into_shared())
    }

    /// An engine over an existing pager — every dataset loaded into this
    /// engine allocates its pages there, and all queries share its
    /// buffer.
    pub fn with_pager(pager: SharedPager) -> Self {
        Engine {
            pager,
            datasets: BTreeMap::new(),
            executor: Executor::default(),
        }
    }

    /// The session's shared pager (I/O statistics live here).
    ///
    /// Spilling it ([`Pager::spill_to`](ringjoin_storage::Pager::spill_to))
    /// after the last load makes the engine **disk-native**: the whole
    /// page space — every dataset, as they share the pager — moves to a
    /// page file, and from then on the buffer pool's frames are the only
    /// RAM residency. Combine with [`Engine::set_buffer_pages`] to join
    /// datasets several times larger than the memory budget.
    pub fn pager(&self) -> SharedPager {
        self.pager.clone()
    }

    /// Sets the default executor new queries inherit (individual queries
    /// override it with [`QueryBuilder::executor`]).
    pub fn set_default_executor(&mut self, executor: Executor) {
        self.executor = executor;
    }

    /// Applies the paper's buffer rule — capacity = `frac` of the total
    /// index pages currently loaded (min 1) — then cold-starts the
    /// buffer and zeroes the I/O statistics, so subsequent queries are
    /// measured from a clean slate. Call after loading datasets.
    pub fn set_buffer_frac(&mut self, frac: f64) {
        let total: u64 = self.datasets.values().map(|d| d.summary().pages).sum();
        let cap = ((total as f64 * frac).ceil() as usize).max(1);
        self.set_buffer_pages(cap);
    }

    /// Sets the buffer budget to an absolute page count (min 1), then
    /// cold-starts the buffer and zeroes the I/O statistics — the
    /// disk-native counterpart of [`Engine::set_buffer_frac`], where the
    /// budget is the point (`--buffer-pages` on the CLI): a dataset
    /// several times larger than this many pages still joins, faulting
    /// pages through the pool as the paper's cost model intends.
    pub fn set_buffer_pages(&mut self, pages: usize) {
        let mut pg = self.pager.borrow_mut();
        pg.set_buffer_capacity(pages.max(1));
        pg.clear_buffer();
        pg.reset_stats();
    }

    /// Starts registering a dataset: `engine.load(name, items)` returns
    /// a [`LoadBuilder`]; choosing the index kind
    /// ([`LoadBuilder::index`]) builds it and completes the
    /// registration. Re-using a name replaces the dataset (the old
    /// index's pages remain allocated in the pager — a session-level
    /// trade-off documented on [`LoadBuilder::index`]).
    pub fn load(&mut self, name: impl Into<String>, items: Vec<Item>) -> LoadBuilder<'_> {
        LoadBuilder {
            engine: self,
            name: name.into(),
            items,
        }
    }

    /// Handle describing a registered dataset, if any.
    pub fn dataset(&self, name: &str) -> Option<DatasetHandle> {
        self.datasets.get(name).map(|ds| DatasetHandle {
            name: ds.name.clone(),
            kind: ds.kind(),
            summary: ds.summary(),
            epoch: ds.epoch,
        })
    }

    /// The exact pointset of a dataset's current epoch, sorted by id —
    /// what a rebuild-from-scratch oracle bulk-loads to reproduce this
    /// dataset's query answers.
    pub fn dataset_items(&self, name: &str) -> Result<Vec<Item>, EngineError> {
        let ds = self.get(name)?;
        Ok(ds
            .items
            .iter()
            .map(|(&id, &point)| Item::new(id, point))
            .collect())
    }

    /// Starts a mutation batch against a registered dataset:
    /// `engine.update(name).insert(..).delete(..).apply()`. Operations
    /// apply in call order; the whole batch is validated up front and
    /// either applies completely (advancing the dataset's epoch by one)
    /// or not at all. See [`UpdateBuilder`].
    pub fn update(&mut self, name: impl Into<String>) -> UpdateBuilder<'_> {
        UpdateBuilder {
            engine: self,
            name: name.into(),
            ops: Vec::new(),
        }
    }

    /// Names of all registered datasets (sorted).
    pub fn dataset_names(&self) -> Vec<String> {
        self.datasets.keys().cloned().collect()
    }

    /// The regions of a dataset's leaf groups in depth-first order — the
    /// position of a region in this list is the leaf group's **global
    /// leaf index**, the key [`Plan::run_leaves`] partitions by and
    /// sharded executions merge by. Equal to
    /// [`leaf_regions`](crate::leaf_regions) over the dataset's index.
    ///
    /// The result holds until the next applied [`Engine::update`] batch
    /// or re-load of the name, which can move, split or merge leaf
    /// groups. Reads no page: the engine keeps each dataset's leaf list,
    /// the one its plans run. [`LoadBuilder::index`] lists it, reading
    /// every index page once, and [`UpdateBuilder::apply`] refreshes it
    /// from decoded nodes keyed by page and checked against the page's
    /// write stamp, re-reading only the pages the batch wrote.
    pub fn leaf_regions(&self, name: &str) -> Result<Vec<Rect>, EngineError> {
        Ok(self.leaves(name)?.iter().map(|leaf| leaf.region).collect())
    }

    /// The dataset's kept leaf list, borrowed: the leaf groups
    /// [`Engine::leaf_regions`] reports, in the same order, each with its
    /// page. Reads no page and copies nothing, so a router can look up
    /// the regions of a few positions.
    pub fn leaves(&self, name: &str) -> Result<&[NodeRef], EngineError> {
        Ok(&self.get(name)?.leaves)
    }

    /// Starts building a query over this engine's datasets.
    pub fn query(&self) -> QueryBuilder<'_> {
        QueryBuilder {
            engine: self,
            kind: None,
            algorithm: RcjAlgorithm::Auto,
            executor: None,
            top_k: None,
            window: None,
            skip_verification: false,
        }
    }

    fn get(&self, name: &str) -> Result<&Dataset, EngineError> {
        self.datasets
            .get(name)
            .ok_or_else(|| EngineError::UnknownDataset(name.to_string()))
    }
}

/// Pending dataset registration: created by [`Engine::load`], completed
/// by [`LoadBuilder::index`].
pub struct LoadBuilder<'e> {
    engine: &'e mut Engine,
    name: String,
    items: Vec<Item>,
}

impl LoadBuilder<'_> {
    /// Builds the chosen index over the items in the engine's pager and
    /// registers the dataset under its name, returning a descriptive
    /// [`DatasetHandle`].
    ///
    /// R-trees are STR bulk-loaded; quadtrees cover the items' bounding
    /// box and are built by insertion. The dataset's leaf list is then
    /// walked once, reading every page of the new index (see
    /// [`Engine::leaf_regions`]). Replacing an existing name keeps
    /// the old index's pages allocated (pages are never reclaimed within
    /// a session) — the buffer can be re-sized afterwards with
    /// [`Engine::set_buffer_frac`].
    pub fn index(self, kind: IndexKind) -> DatasetHandle {
        let LoadBuilder {
            engine,
            name,
            items,
        } = self;
        let catalog: BTreeMap<u64, Point> = items.iter().map(|it| (it.id, it.point)).collect();
        let index = match kind {
            IndexKind::Rtree => AnyIndex::Rtree(bulk_load(engine.pager.clone(), items)),
            IndexKind::Quadtree => {
                let region = Rect::from_points(items.iter().map(|it| it.point))
                    .unwrap_or_else(|| Rect::new(pt(0.0, 0.0), pt(1.0, 1.0)));
                let mut tree = QuadTree::new(engine.pager.clone(), region);
                for it in items {
                    tree.insert(it.id, it.point);
                }
                AnyIndex::Quadtree(tree)
            }
        };
        let mut ds = Dataset {
            name: name.clone(),
            index,
            items: catalog,
            epoch: 0,
            memo: LeafRegionMemo::default(),
            leaves: Arc::new([]),
        };
        ds.refresh_leaves();
        let handle = DatasetHandle {
            name: ds.name.clone(),
            kind: ds.kind(),
            summary: ds.summary(),
            epoch: ds.epoch,
        };
        engine.datasets.insert(name, ds);
        handle
    }
}

/// One live-update operation of a mutation batch. A batch
/// ([`UpdateBuilder`]) applies its operations in order, atomically:
/// validation runs against the dataset's pointset with earlier
/// operations simulated, so a failing batch changes nothing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mutation {
    /// Add a new point; its id must not exist yet.
    Insert(Item),
    /// Remove a point by id; the id must exist.
    Delete(u64),
    /// Insert-or-replace; never fails validation.
    Upsert(Item),
}

/// Validates a mutation batch against `items`, the pointset of
/// `dataset`, as [`UpdateBuilder::apply`] does before it touches a page:
/// operations are checked in order, each against the pointset with the
/// batch's earlier operations already applied, and the first failing
/// one refuses the batch. An [`Mutation::Insert`] of a present id is
/// [`EngineError::DuplicateId`], a [`Mutation::Delete`] of an absent id
/// is [`EngineError::MissingId`], and a [`Mutation::Upsert`] never
/// fails.
///
/// On success, returns the batch's net effect: every id it touches,
/// mapped to the id's point after the batch (`None` if the batch
/// deletes it). The check reads `items` and never copies it, so it
/// costs the batch, not the dataset.
pub fn validate_batch(
    dataset: &str,
    items: &BTreeMap<u64, Point>,
    ops: &[Mutation],
) -> Result<BTreeMap<u64, Option<Point>>, EngineError> {
    let mut delta: BTreeMap<u64, Option<Point>> = BTreeMap::new();
    for op in ops {
        let (id, after) = match *op {
            Mutation::Insert(it) | Mutation::Upsert(it) => (it.id, Some(it.point)),
            Mutation::Delete(id) => (id, None),
        };
        let present = match delta.get(&id) {
            Some(now) => now.is_some(),
            None => items.contains_key(&id),
        };
        match op {
            Mutation::Insert(_) if present => {
                return Err(EngineError::DuplicateId {
                    dataset: dataset.to_string(),
                    id,
                })
            }
            Mutation::Delete(_) if !present => {
                return Err(EngineError::MissingId {
                    dataset: dataset.to_string(),
                    id,
                })
            }
            _ => {}
        }
        delta.insert(id, after);
    }
    Ok(delta)
}

/// Pending mutation batch: created by [`Engine::update`], applied by
/// [`UpdateBuilder::apply`].
///
/// The batch is **atomic**: every operation is validated against the
/// dataset's catalog (with earlier operations in the batch already
/// simulated) before any page is touched, so a failing batch leaves the
/// dataset, its index, and its epoch exactly as they were. A successful
/// non-empty batch advances the dataset's epoch by one and opens a new
/// storage epoch first
/// ([`Pager::begin_epoch`](ringjoin_storage::Pager::begin_epoch)), so
/// streams opened before the batch keep draining the pages they pinned
/// while new queries see the updated pointset. The batch copies only
/// what such a stream still holds: each resident page it rewrites, or,
/// on a disk-native engine, the page file, versioned to `<base>.e<N>`.
/// With no reader pinned, it writes in place.
///
/// Indexes are maintained **incrementally**: R-trees take the R*
/// insert/delete path (ChooseSubtree, forced reinsertion, CondenseTree),
/// quadtrees insert/remove in place — except that a point outside a
/// quadtree's loaded region forces a rebuild over the grown bounding
/// box, since PR decomposition is region-anchored. Either way the
/// resulting pointset is exactly [`Engine::dataset_items`]; pair-set
/// equality with a bulk-loaded oracle is guaranteed, byte-order equality
/// additionally holds for diameter-ordered (top-k) streams, whose
/// [rank order](crate::RcjPair::rank_cmp) is independent of tree shape.
pub struct UpdateBuilder<'e> {
    engine: &'e mut Engine,
    name: String,
    ops: Vec<Mutation>,
}

impl UpdateBuilder<'_> {
    /// Queues point insertions. Inserting an id that already exists (in
    /// the dataset or earlier in this batch) fails the whole batch with
    /// [`EngineError::DuplicateId`].
    pub fn insert(mut self, items: impl IntoIterator<Item = Item>) -> Self {
        self.ops.extend(items.into_iter().map(Mutation::Insert));
        self
    }

    /// Queues point deletions by id. Deleting an id that is not present
    /// (or was deleted earlier in this batch) fails the whole batch with
    /// [`EngineError::MissingId`].
    pub fn delete(mut self, ids: impl IntoIterator<Item = u64>) -> Self {
        self.ops.extend(ids.into_iter().map(Mutation::Delete));
        self
    }

    /// Queues insert-or-replace operations; never fails validation.
    pub fn upsert(mut self, items: impl IntoIterator<Item = Item>) -> Self {
        self.ops.extend(items.into_iter().map(Mutation::Upsert));
        self
    }

    /// Queues a recorded batch of mixed operations, in order — the
    /// replay of a mutation history.
    pub fn mutations(mut self, ops: &[Mutation]) -> Self {
        self.ops.extend_from_slice(ops);
        self
    }

    /// Validates and applies the batch, returning the dataset's handle
    /// at its new epoch. An empty batch is a no-op: no storage epoch is
    /// opened and the dataset epoch does not advance. The dataset's leaf
    /// list is refreshed last, re-reading only the pages the batch wrote
    /// (every page of a rebuilt quadtree).
    pub fn apply(self) -> Result<DatasetHandle, EngineError> {
        let UpdateBuilder { engine, name, ops } = self;
        // Whole-batch validation before any mutation.
        validate_batch(&name, &engine.get(&name)?.items, &ops)?;
        if ops.is_empty() {
            return Ok(engine.dataset(&name).expect("existence checked above"));
        }
        // Open the new storage epoch BEFORE touching any page: readers
        // pinned to the previous epoch (in-flight streams) keep their
        // pages, and every page version written below — including
        // rewrites of existing page ids — belongs to the new epoch.
        engine.pager.borrow_mut().begin_epoch();
        let ds = engine
            .datasets
            .get_mut(&name)
            .expect("existence checked above");
        // PR quadtrees cannot host out-of-region points: grow by
        // rebuilding over the new bounding box (fresh pages; retired
        // snapshots keep reading the old tree).
        let needs_rebuild = match &ds.index {
            AnyIndex::Quadtree(t) => {
                let region = t.region();
                ops.iter().any(|op| match op {
                    Mutation::Insert(it) | Mutation::Upsert(it) => !region.contains_point(it.point),
                    Mutation::Delete(_) => false,
                })
            }
            AnyIndex::Rtree(_) => false,
        };
        if needs_rebuild {
            for op in ops {
                match op {
                    Mutation::Insert(it) | Mutation::Upsert(it) => {
                        ds.items.insert(it.id, it.point);
                    }
                    Mutation::Delete(id) => {
                        ds.items.remove(&id);
                    }
                }
            }
            let region = Rect::from_points(ds.items.values().copied())
                .unwrap_or_else(|| Rect::new(pt(0.0, 0.0), pt(1.0, 1.0)));
            let mut tree = QuadTree::new(engine.pager.clone(), region);
            for (&id, &point) in &ds.items {
                tree.insert(id, point);
            }
            ds.index = AnyIndex::Quadtree(tree);
        } else {
            for op in ops {
                match op {
                    Mutation::Insert(it) => {
                        ds.items.insert(it.id, it.point);
                        match &mut ds.index {
                            AnyIndex::Rtree(t) => t.insert(it),
                            AnyIndex::Quadtree(t) => t.insert(it.id, it.point),
                        }
                    }
                    Mutation::Delete(id) => {
                        let point = ds.items.remove(&id).expect("validated above");
                        let removed = match &mut ds.index {
                            AnyIndex::Rtree(t) => t.remove(Item::new(id, point)),
                            AnyIndex::Quadtree(t) => t.remove(id, point),
                        };
                        debug_assert!(removed, "catalog and index disagree on id {id}");
                    }
                    Mutation::Upsert(it) => {
                        if let Some(old) = ds.items.insert(it.id, it.point) {
                            let removed = match &mut ds.index {
                                AnyIndex::Rtree(t) => t.remove(Item::new(it.id, old)),
                                AnyIndex::Quadtree(t) => t.remove(it.id, old),
                            };
                            debug_assert!(removed, "catalog and index disagree on id {}", it.id);
                        }
                        match &mut ds.index {
                            AnyIndex::Rtree(t) => t.insert(it),
                            AnyIndex::Quadtree(t) => t.insert(it.id, it.point),
                        }
                    }
                }
            }
        }
        ds.refresh_leaves();
        ds.epoch += 1;
        Ok(DatasetHandle {
            name: ds.name.clone(),
            kind: ds.kind(),
            summary: ds.summary(),
            epoch: ds.epoch,
        })
    }
}

/// Description of a registered dataset: its name, index kind, and
/// catalog summary. Cheap to clone; dereferences to the dataset name so
/// it can be passed wherever a query expects one.
#[derive(Clone, Debug)]
pub struct DatasetHandle {
    name: String,
    kind: IndexKind,
    summary: DatasetSummary,
    epoch: u64,
}

impl DatasetHandle {
    /// The dataset's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The index kind built over the dataset.
    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// The catalog summary the planner costs queries with.
    pub fn summary(&self) -> DatasetSummary {
        self.summary
    }

    /// The dataset's mutation epoch: 0 at load, +1 per applied update
    /// batch. Two handles with equal epochs describe identical
    /// pointsets.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl std::ops::Deref for DatasetHandle {
    type Target = str;

    fn deref(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for DatasetHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}: {} items, {} pages)",
            self.name,
            self.kind.name(),
            self.summary.items,
            self.summary.pages
        )
    }
}

/// What a query joins.
#[derive(Clone, Debug)]
enum QueryKind {
    /// Bichromatic join: outer `Q`, inner `P`.
    Join { outer: String, inner: String },
    /// Self-join of one dataset.
    SelfJoin { dataset: String },
}

/// Fluent query specification over an [`Engine`]; terminal call is
/// [`QueryBuilder::plan`] (or the [`QueryBuilder::collect`] /
/// [`QueryBuilder::stream`] shortcuts).
pub struct QueryBuilder<'e> {
    engine: &'e Engine,
    kind: Option<QueryKind>,
    algorithm: RcjAlgorithm,
    executor: Option<Executor>,
    top_k: Option<usize>,
    window: Option<RingBounds>,
    skip_verification: bool,
}

impl<'e> QueryBuilder<'e> {
    /// Joins dataset `outer` (the `Q` side, whose leaves drive the scan)
    /// with dataset `inner` (the `P` side the filter probes).
    pub fn join(mut self, outer: impl AsRef<str>, inner: impl AsRef<str>) -> Self {
        self.kind = Some(QueryKind::Join {
            outer: outer.as_ref().to_string(),
            inner: inner.as_ref().to_string(),
        });
        self
    }

    /// Self-joins one dataset (the postboxes application); each
    /// unordered pair is reported once, smaller id first.
    pub fn self_join(mut self, dataset: impl AsRef<str>) -> Self {
        self.kind = Some(QueryKind::SelfJoin {
            dataset: dataset.as_ref().to_string(),
        });
        self
    }

    /// Algorithm choice (default [`RcjAlgorithm::Auto`]: the planner
    /// picks by estimated cost).
    pub fn algorithm(mut self, algorithm: RcjAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Overrides the engine's default executor for this query.
    pub fn executor(mut self, executor: Executor) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Shorthand for [`QueryBuilder::executor`] with
    /// [`Executor::threads`].
    pub fn threads(self, n: usize) -> Self {
        self.executor(Executor::threads(n))
    }

    /// Asks for only the `k` most compact pairs (smallest ring
    /// diameters, the tourist-recommendation ranking), in
    /// [rank order](crate::RcjPair::rank_cmp). The plan runs its leaf
    /// algorithm once, in depth-first leaf order, into a
    /// [`TopK`](crate::TopK) sink that cuts each leaf's filter at the
    /// `k`-th best squared diameter found so far. The pass is
    /// sequential, so any [`QueryBuilder::executor`] choice is
    /// overridden and the plan reports `threads=1 topk=<k>`. Within a
    /// window, the answer is the `k` best pairs the window admits: the
    /// sink's cut and the window's combine by `min`.
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Restricts the query to a window: the answer is exactly the
    /// pairs of the unrestricted query that
    /// [`RingBounds::admits`] accepts, in the same order. The plan does
    /// only the work those pairs need: it skips the outer leaves whose
    /// region misses [`RingBounds::inflated`] without reading them, cuts
    /// each leaf point's filter at the exact `max_diameter` (at −∞ for a
    /// point outside that rectangle), and drops the candidates the
    /// window rejects before verifying any (see [`RingBounds`]). Its
    /// [`RcjStats`] therefore count less than the unrestricted query's.
    /// [`QueryBuilder::plan`] refuses a window
    /// [`validate_bounds`](crate::validate_bounds) refuses.
    pub fn within(mut self, rb: RingBounds) -> Self {
        self.window = Some(rb);
        self
    }

    /// Skips verification, reporting raw filter candidates (a superset).
    pub fn skip_verification(mut self) -> Self {
        self.skip_verification = true;
        self
    }

    /// Resolves dataset names and the algorithm choice into an
    /// inspectable [`Plan`]. No page is read: planning works on catalog
    /// summaries only.
    pub fn plan(self) -> Result<Plan<'e>, EngineError> {
        let kind = self.kind.ok_or(EngineError::NoQuery)?;
        if let Some(rb) = &self.window {
            validate_bounds(rb)?;
        }
        let (outer, inner, self_join) = match &kind {
            QueryKind::Join { outer, inner } => {
                (self.engine.get(outer)?, self.engine.get(inner)?, false)
            }
            QueryKind::SelfJoin { dataset } => {
                let ds = self.engine.get(dataset)?;
                (ds, ds, true)
            }
        };
        let model = JoinCostModel::default();
        let outer_summary = outer.summary();
        let algorithm = self.algorithm.resolve(&outer_summary);
        // A top-k plan runs its cut leaf pass sequentially, the cut
        // shrinking leaf by leaf — the plan must say so rather than
        // report an executor that would never run.
        let executor = if self.top_k.is_some() {
            Executor::Sequential
        } else {
            self.executor.unwrap_or(self.engine.executor)
        };
        Ok(Plan {
            outer,
            inner,
            self_join,
            algorithm,
            auto_resolved: self.algorithm == RcjAlgorithm::Auto,
            estimates: model.estimates(&outer_summary),
            executor,
            top_k: self.top_k,
            window: self.window,
            skip_verification: self.skip_verification,
        })
    }

    /// Plans and materialises in one call.
    pub fn collect(self) -> Result<RcjOutput, EngineError> {
        Ok(self.plan()?.collect())
    }

    /// Plans and opens the lazy stream in one call.
    pub fn stream(self) -> Result<RcjStream, EngineError> {
        Ok(self.plan()?.stream())
    }
}

/// A resolved, inspectable query plan: concrete algorithm, executor,
/// cost estimates, and the datasets it runs over. Produced by
/// [`QueryBuilder::plan`]; execute it with [`Plan::stream`] (lazy) or
/// [`Plan::collect`] (materialised). `Display` renders the `explain`
/// text.
pub struct Plan<'e> {
    outer: &'e Dataset,
    inner: &'e Dataset,
    self_join: bool,
    algorithm: RcjAlgorithm,
    auto_resolved: bool,
    estimates: [PlanEstimate; 3],
    executor: Executor,
    top_k: Option<usize>,
    window: Option<RingBounds>,
    skip_verification: bool,
}

impl Plan<'_> {
    /// The concrete algorithm this plan runs ([`RcjAlgorithm::Auto`] is
    /// already resolved), top-k plans included.
    pub fn algorithm(&self) -> RcjAlgorithm {
        self.algorithm
    }

    /// `true` when the algorithm was chosen by the planner (the query
    /// asked for [`RcjAlgorithm::Auto`]).
    pub fn auto_resolved(&self) -> bool {
        self.auto_resolved
    }

    /// The executor this plan runs under.
    pub fn executor(&self) -> Executor {
        self.executor
    }

    /// The top-k bound, if the query asked for one.
    pub fn top_k(&self) -> Option<usize> {
        self.top_k
    }

    /// The planner's estimates for all three concrete algorithms
    /// (OBJ, BIJ, INJ order) on this workload.
    pub fn estimates(&self) -> &[PlanEstimate; 3] {
        &self.estimates
    }

    /// Index kinds as a compact tag: `rtree` when both sides match,
    /// `rtree+quadtree` (outer+inner) otherwise.
    pub fn index_tag(&self) -> String {
        let (o, i) = (self.outer.kind().name(), self.inner.kind().name());
        if o == i {
            o.to_string()
        } else {
            format!("{o}+{i}")
        }
    }

    /// One-line summary (`algo=obj index=rtree threads=4`), printed by
    /// the CLI's `--stats` reporting. Top-k plans add their bound
    /// (`algo=obj index=rtree threads=1 topk=10`).
    pub fn summary_line(&self) -> String {
        let mut line = format!(
            "algo={} index={} threads={}",
            self.algorithm.name().to_lowercase(),
            self.index_tag(),
            self.executor.worker_count(),
        );
        if let Some(k) = self.top_k {
            line.push_str(&format!(" topk={k}"));
        }
        line
    }

    /// The resolved driver options this plan executes with.
    fn options(&self) -> RcjOptions {
        RcjOptions {
            algorithm: self.algorithm,
            skip_verification: self.skip_verification,
            executor: self.executor,
            ..RcjOptions::default()
        }
    }

    /// Runs the plan and materialises the result. Top-k plans collect
    /// the `k` most compact pairs in rank order (one cut leaf pass,
    /// through [`Plan::stream`]); other plans run the whole-list
    /// executor. Either way the pass runs the outer dataset's kept leaf
    /// list, so it reads each page of `T_Q` once less than the one-shot
    /// [`rcj_join`](crate::rcj_join), which walks `T_Q` for the list.
    pub fn collect(&self) -> RcjOutput {
        if self.top_k.is_some() {
            let mut stream = self.stream();
            let pairs: Vec<_> = stream.by_ref().collect();
            let mut stats = stream.stats();
            stats.result_pairs = pairs.len() as u64;
            return RcjOutput { pairs, stats };
        }
        let opts = self.options();
        let mut pairs: Vec<_> = Vec::new();
        let stats = with_tree_pair!(self.outer, self.inner, |tq, tp| execute(
            &LeafPass::new(tq, tp, self.self_join, &opts, self.outer.leaves.clone())
                .within(self.window),
            tq.pager(),
            tp.pager(),
            &mut pairs,
        ));
        RcjOutput { pairs, stats }
    }

    /// Runs the plan's leaf drivers over an explicit **subset** of the
    /// outer dataset's leaf groups (positions into
    /// [`Engine::leaf_regions`]), emitting every pair tagged with the
    /// global leaf index that produced it. The positions index the
    /// dataset's kept leaf list, so an empty subset reads no page.
    ///
    /// This is the per-shard execution primitive: disjoint position sets
    /// run independently, and ordering the union of tagged pairs by leaf
    /// index reproduces [`Plan::collect`] byte for byte, with the
    /// per-run [`RcjStats`] merging to the sequential totals. The subset
    /// runs sequentially in-thread (the caller owns the parallelism) and
    /// any `top_k` bound on the plan is ignored — a top-k shard passes a
    /// [`TopK`](crate::TopK) sink, whose cut bounds the run, and merges
    /// by rank. A [window](QueryBuilder::within) is not ignored: the run
    /// skips, unread and unprefetched, the positions whose leaf the
    /// window does not reach, and emits only the pairs it admits, so a
    /// shard passes all its positions and filters nothing. Out-of-range
    /// positions are ignored; a sink returning `false` stops the run
    /// early. Pages are counted in the engine pager's buffer.
    pub fn run_leaves(&self, positions: &[usize], sink: &mut dyn TaggedPairSink) -> RcjStats {
        let pool = with_tree!(self.outer, |t| t.pager().borrow().pool().clone());
        self.run_leaves_pooled(positions, &pool, sink)
    }

    /// [`Plan::run_leaves`] with page accounting routed through a
    /// caller-supplied shared
    /// [`BufferPool`](ringjoin_storage::BufferPool) instead of the
    /// engine pager's.
    ///
    /// Engine datasets all live in one pager, so the run pins its pages
    /// once — the resident page table, or the page file on disk, shared
    /// and not copied — and reads them through the pool;
    /// per-run I/O counters are absorbed back into the engine pager on
    /// return. This is how the sharded server keeps its replicas on
    /// **one** warm cache: every shard passes the same pool, and pages
    /// faulted by one shard's leaf subset are hits for the next. On a
    /// disk-native engine the run stages its upcoming leaf pages in the
    /// background as it goes: on every eighth position, the pages of the
    /// next 16.
    pub fn run_leaves_pooled(
        &self,
        positions: &[usize],
        pool: &ringjoin_storage::BufferPool,
        sink: &mut dyn TaggedPairSink,
    ) -> RcjStats {
        let opts = self.options().depth_first();
        with_tree_pair!(self.outer, self.inner, |tq, tp| run_subset(
            &LeafPass::new(tq, tp, self.self_join, &opts, self.outer.leaves.clone())
                .within(self.window),
            &tq.pager(),
            &tp.pager(),
            positions,
            pool,
            sink,
        ))
    }

    /// Opens the plan's lazy [`RcjStream`]. Leaf-order plans yield
    /// exactly the [`Plan::collect`] pairs in the same order with
    /// bounded memory; top-k plans yield up to `k` pairs in rank order,
    /// from one sequential leaf pass into a [`TopK`](crate::TopK) sink.
    pub fn stream(&self) -> RcjStream {
        let opts = self.options();
        let stream = with_tree_pair!(self.outer, self.inner, |tq, tp| open(
            LeafPass::new(tq, tp, self.self_join, &opts, self.outer.leaves.clone())
                .within(self.window),
            tq.pager(),
            tp.pager(),
            self.top_k.is_some(),
        ));
        match self.top_k {
            Some(k) => stream.limit(k),
            None => stream,
        }
    }
}

impl fmt::Display for Plan<'_> {
    /// The `explain` rendering: query shape, resolved algorithm with the
    /// planner's per-algorithm estimates, executor, and option flags.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let describe = |ds: &Dataset| {
            let s = ds.summary();
            format!(
                "{} ({}: {} items, {} pages, ~{} leaves)",
                ds.name, s.kind, s.items, s.pages, s.leaf_pages
            )
        };
        if self.self_join {
            writeln!(f, "RCJ self-join over {}", describe(self.outer))?;
        } else {
            writeln!(
                f,
                "RCJ join outer={} inner={}",
                describe(self.outer),
                describe(self.inner)
            )?;
        }
        writeln!(
            f,
            "  algorithm: {}{}",
            self.algorithm.name(),
            if self.auto_resolved {
                " (resolved from AUTO by the cost model)"
            } else {
                " (fixed by the query)"
            }
        )?;
        for e in &self.estimates {
            writeln!(
                f,
                "    est {}: {:.0} filter + {:.0} verify = {:.0} node reads ({} {}){}",
                e.algorithm.name(),
                e.filter_reads,
                e.verify_reads,
                e.total_reads(),
                e.units,
                e.unit,
                if e.algorithm == self.algorithm {
                    "  <- chosen"
                } else {
                    ""
                }
            )?;
        }
        match (self.top_k, self.executor) {
            (Some(k), _) => {
                // The cut shrinks leaf by leaf, so the pass has no
                // parallel path; a thread count would describe a run
                // that never happens.
                writeln!(
                    f,
                    "  executor: sequential (forced: the top-k cut shrinks leaf by leaf)"
                )?;
                writeln!(
                    f,
                    "  top-k: {k} (one leaf pass; each filter is cut at the k-th best squared diameter so far)"
                )?;
            }
            (None, Executor::Sequential) => writeln!(f, "  executor: sequential")?,
            (None, Executor::Parallel { threads }) => {
                writeln!(f, "  executor: parallel ({threads} threads)")?
            }
        }
        if self.skip_verification {
            writeln!(f, "  verification: skipped (candidates only)")?;
        }
        if let Some(rb) = &self.window {
            let r = rb.bounds;
            writeln!(
                f,
                "  window: rings meeting [{}, {}, {}, {}] at most {} wide (leaves skipped, filters cut)",
                r.min.x, r.min.y, r.max.x, r.max.y, rb.max_diameter
            )?;
        }
        write!(f, "  plan line: {}", self.summary_line())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pair_keys, rcj_brute, IndexEntry, IndexProbe, RcjPair};
    use proptest::prelude::*;
    use ringjoin_storage::{PageId, PooledPager};

    fn points(n: usize, seed: u64, span: f64) -> Vec<Item> {
        ringjoin_testsupport::lcg_points(n, seed, span)
            .into_iter()
            .enumerate()
            .map(|(i, (x, y))| Item::new(i as u64, pt(x, y)))
            .collect()
    }

    #[test]
    fn a_window_keeps_a_pair_whose_squared_bound_rounds_below_it() {
        // `maxd * maxd` is 12.999999999999998, below the pair's squared
        // diameter 13, yet `admits` accepts the pair: the filter's cut
        // must be the exact one.
        let mut engine = Engine::new();
        engine
            .load("p", vec![Item::new(1, pt(0.0, 0.0))])
            .index(IndexKind::Rtree);
        engine
            .load("q", vec![Item::new(2, pt(2.0, 3.0))])
            .index(IndexKind::Rtree);
        let rb = RingBounds {
            bounds: Rect::new(pt(-1.0, -1.0), pt(1.0, 1.0)),
            max_diameter: 13f64.sqrt(),
        };
        assert!(rb.max_diameter * rb.max_diameter < 13.0);
        let full = engine.query().join("q", "p").collect().unwrap().pairs;
        assert!(rb.admits(&full[0]));
        for algo in [RcjAlgorithm::Inj, RcjAlgorithm::Bij, RcjAlgorithm::Obj] {
            let out = engine
                .query()
                .join("q", "p")
                .algorithm(algo)
                .within(rb)
                .collect()
                .unwrap();
            assert_eq!(out.pairs, full, "{}", algo.name());
        }
    }

    #[test]
    fn top_k_within_a_window_ranks_the_windowed_join() {
        let mut engine = Engine::new();
        engine
            .load("p", points(300, 11, 2000.0))
            .index(IndexKind::Rtree);
        engine
            .load("q", points(300, 13, 2000.0))
            .index(IndexKind::Quadtree);
        let rb = RingBounds {
            bounds: Rect::new(pt(500.0, 500.0), pt(1200.0, 1100.0)),
            max_diameter: 180.0,
        };
        for self_join in [false, true] {
            let query = || match self_join {
                false => engine.query().join("q", "p"),
                true => engine.query().self_join("p"),
            };
            let full = query().collect().unwrap().pairs;
            let mut ranked = query().within(rb).collect().unwrap().pairs;
            assert!(ranked.len() > 10, "widen the window");
            assert!(ranked.iter().eq(full.iter().filter(|pr| rb.admits(pr))));
            ranked.sort_by(RcjPair::rank_cmp);
            for k in [1, 7, ranked.len(), ranked.len() + 3] {
                let top = query().top_k(k).within(rb).collect().unwrap();
                assert_eq!(top.pairs, ranked[..k.min(ranked.len())], "k={k}");
            }
        }
    }

    #[test]
    fn plans_show_a_window_and_refuse_one_validation_refuses() {
        let mut engine = Engine::new();
        engine
            .load("d", points(20, 3, 100.0))
            .index(IndexKind::Rtree);
        let rb = RingBounds {
            bounds: Rect::new(pt(0.0, 0.0), pt(1.0, 1.5)),
            max_diameter: 2.0,
        };
        let plan = engine.query().self_join("d").within(rb).plan().unwrap();
        let text = plan.to_string();
        assert!(
            text.contains("window: rings meeting [0, 0, 1, 1.5] at most 2 wide"),
            "{text}"
        );
        let bad = RingBounds {
            max_diameter: -1.0,
            ..rb
        };
        let err = engine.query().self_join("d").within(bad).plan().err();
        assert!(
            matches!(err, Some(EngineError::InvalidWindow(_))),
            "{err:?}"
        );
    }

    #[test]
    fn load_query_collect_roundtrip() {
        let ps = points(150, 3, 800.0);
        let qs = points(150, 7, 800.0);
        let expect = pair_keys(&rcj_brute(&ps, &qs));
        assert!(!expect.is_empty());

        let mut engine = Engine::new();
        let hp = engine.load("restaurants", ps).index(IndexKind::Rtree);
        let hq = engine.load("residences", qs).index(IndexKind::Rtree);
        assert_eq!(hp.name(), "restaurants");
        assert_eq!(hq.kind(), IndexKind::Rtree);
        assert!(hq.to_string().contains("150 items"));

        let out = engine
            .query()
            .join("residences", "restaurants")
            .collect()
            .unwrap();
        assert_eq!(pair_keys(&out.pairs), expect);
    }

    #[test]
    fn mixed_index_join_agrees_with_rtree_join() {
        let ps = points(200, 11, 1000.0);
        let qs = points(200, 13, 1000.0);
        let mut engine = Engine::new();
        engine.load("p_rt", ps.clone()).index(IndexKind::Rtree);
        engine.load("p_qt", ps).index(IndexKind::Quadtree);
        engine.load("q_rt", qs.clone()).index(IndexKind::Rtree);
        engine.load("q_qt", qs).index(IndexKind::Quadtree);

        let reference = engine.query().join("q_rt", "p_rt").collect().unwrap();
        for (q, p) in [("q_rt", "p_qt"), ("q_qt", "p_rt"), ("q_qt", "p_qt")] {
            let out = engine.query().join(q, p).collect().unwrap();
            assert_eq!(
                pair_keys(&out.pairs),
                pair_keys(&reference.pairs),
                "{q} x {p}"
            );
        }
    }

    #[test]
    fn self_join_plan_reports_each_pair_once() {
        let mut engine = Engine::new();
        engine
            .load("buildings", points(180, 17, 600.0))
            .index(IndexKind::Rtree);
        let out = engine.query().self_join("buildings").collect().unwrap();
        assert!(!out.pairs.is_empty());
        for pr in &out.pairs {
            assert!(pr.p.id < pr.q.id);
        }
    }

    #[test]
    fn plan_is_inspectable_and_auto_resolves() {
        let mut engine = Engine::new();
        engine
            .load("a", points(300, 19, 900.0))
            .index(IndexKind::Rtree);
        engine
            .load("b", points(300, 23, 900.0))
            .index(IndexKind::Quadtree);
        let plan = engine.query().join("a", "b").threads(4).plan().unwrap();
        assert!(plan.auto_resolved());
        assert_ne!(plan.algorithm(), RcjAlgorithm::Auto);
        assert_eq!(plan.executor(), Executor::Parallel { threads: 4 });
        assert_eq!(plan.index_tag(), "rtree+quadtree");
        assert_eq!(
            plan.summary_line(),
            format!(
                "algo={} index=rtree+quadtree threads=4",
                plan.algorithm().name().to_lowercase()
            )
        );
        let text = plan.to_string();
        assert!(text.contains("RCJ join outer=a"), "{text}");
        assert!(text.contains("<- chosen"), "{text}");
        assert!(text.contains("parallel (4 threads)"), "{text}");
        assert!(text.contains("plan line: algo="), "{text}");
    }

    #[test]
    fn unknown_names_and_missing_query_error() {
        let engine = Engine::new();
        assert_eq!(
            engine.query().join("x", "y").plan().err(),
            Some(EngineError::UnknownDataset("x".into()))
        );
        assert_eq!(engine.query().plan().err(), Some(EngineError::NoQuery));
        assert!(engine.dataset("x").is_none());
        let msg = EngineError::UnknownDataset("x".into()).to_string();
        assert!(msg.contains('x'), "{msg}");
    }

    #[test]
    fn top_k_plan_streams_most_compact_pairs() {
        let mut engine = Engine::new();
        engine
            .load("p", points(250, 29, 2000.0))
            .index(IndexKind::Rtree);
        engine
            .load("q", points(250, 31, 2000.0))
            .index(IndexKind::Rtree);
        let full = engine.query().join("q", "p").collect().unwrap();
        let k = 10.min(full.pairs.len());
        let plan = engine.query().join("q", "p").top_k(k).plan().unwrap();
        assert!(plan.to_string().contains("top-k"), "{plan}");
        // Top-k reports the sequential leaf pass it actually runs.
        assert_eq!(
            plan.summary_line(),
            format!(
                "algo={} index=rtree threads=1 topk={k}",
                plan.algorithm().name().to_lowercase()
            )
        );
        assert_eq!(plan.executor(), Executor::Sequential);
        let top = plan.collect();
        assert_eq!(top.pairs.len(), k);
        for w in top.pairs.windows(2) {
            assert!(w[0].diameter() <= w[1].diameter());
        }
        // Every top pair is a real join result.
        let all: std::collections::HashSet<_> = pair_keys(&full.pairs).into_iter().collect();
        for pr in &top.pairs {
            assert!(all.contains(&pr.key()));
        }
    }

    #[test]
    fn stream_equals_collect_through_the_engine() {
        let mut engine = Engine::new();
        engine
            .load("p", points(220, 37, 1500.0))
            .index(IndexKind::Quadtree);
        engine
            .load("q", points(220, 41, 1500.0))
            .index(IndexKind::Rtree);
        for threads in [1, 4] {
            let plan = engine
                .query()
                .join("q", "p")
                .threads(threads)
                .plan()
                .unwrap();
            let collected = plan.collect();
            let streamed: Vec<RcjPair> = plan.stream().collect();
            assert_eq!(streamed, collected.pairs, "threads={threads}");
        }
    }

    #[test]
    fn leaf_subset_runs_partition_the_join() {
        for kind in [IndexKind::Rtree, IndexKind::Quadtree] {
            let mut engine = Engine::new();
            engine.load("p", points(250, 63, 1500.0)).index(kind);
            engine.load("q", points(250, 67, 1500.0)).index(kind);
            let plan = engine
                .query()
                .join("q", "p")
                .executor(Executor::Sequential)
                .plan()
                .unwrap();
            let full = plan.collect();
            let n = engine.leaf_regions("q").unwrap().len();
            assert!(n > 1, "workload too small to partition");
            let pool = engine.pager().borrow().pool().clone();
            // Split the leaf list into interleaved (non-contiguous)
            // subsets: the merge key is the tag, not the subset shape.
            let evens: Vec<usize> = (0..n).step_by(2).collect();
            let odds: Vec<usize> = (1..n).step_by(2).collect();
            let mut tagged: Vec<(usize, RcjPair)> = Vec::new();
            let mut stats = plan.run_leaves_pooled(&odds, &pool, &mut tagged);
            stats.merge(plan.run_leaves(&evens, &mut tagged));
            // Ordering by the global leaf index reproduces the sequential
            // output byte for byte, and the stats merge to its totals.
            tagged.sort_by_key(|(leaf, _)| *leaf);
            let merged: Vec<RcjPair> = tagged.into_iter().map(|(_, pr)| pr).collect();
            assert_eq!(merged, full.pairs, "{}", kind.name());
            assert_eq!(stats, full.stats, "{}", kind.name());
            // Out-of-range positions are ignored, not a panic.
            let mut none: Vec<(usize, RcjPair)> = Vec::new();
            let s = plan.run_leaves_pooled(&[n + 7], &pool, &mut none);
            assert!(none.is_empty());
            assert_eq!(s, RcjStats::default());
        }
    }

    #[test]
    fn self_join_leaf_subsets_partition_too() {
        for kind in [IndexKind::Rtree, IndexKind::Quadtree] {
            let mut engine = Engine::new();
            engine.load("d", points(220, 71, 900.0)).index(kind);
            let plan = engine
                .query()
                .self_join("d")
                .executor(Executor::Sequential)
                .plan()
                .unwrap();
            let full = plan.collect();
            let n = engine.leaf_regions("d").unwrap().len();
            let mut tagged: Vec<(usize, RcjPair)> = Vec::new();
            let mut stats = RcjStats::default();
            for start in 0..3usize {
                let subset: Vec<usize> = (start..n).step_by(3).collect();
                stats.merge(plan.run_leaves(&subset, &mut tagged));
            }
            tagged.sort_by_key(|(leaf, _)| *leaf);
            let merged: Vec<RcjPair> = tagged.into_iter().map(|(_, pr)| pr).collect();
            assert_eq!(merged, full.pairs, "{}", kind.name());
            assert_eq!(stats, full.stats, "{}", kind.name());
        }
    }

    #[test]
    fn updates_do_not_grow_an_unbounded_pool() {
        // Recency-only frames are keyed by page, not by (epoch, page): a
        // resident dataset joined after each of many one-point batches
        // keeps at most one frame per page, in the caller's pool and in
        // the pager's own buffer alike.
        let mut engine = Engine::new();
        engine
            .load("p", points(1500, 83, 3000.0))
            .index(IndexKind::Rtree);
        engine
            .load("q", points(1500, 89, 3000.0))
            .index(IndexKind::Rtree);
        let pool = ringjoin_storage::BufferPool::new(usize::MAX / 2);
        for i in 0..50u64 {
            engine
                .update("p")
                .upsert([Item::new(i, pt(i as f64 * 7.0, 11.0))])
                .apply()
                .unwrap();
            let all: Vec<usize> = (0..engine.leaf_regions("q").unwrap().len()).collect();
            let plan = engine.query().join("q", "p").plan().unwrap();
            let mut sink: Vec<(usize, RcjPair)> = Vec::new();
            plan.run_leaves_pooled(&all, &pool, &mut sink);
        }
        let pager = engine.pager();
        let pages = pager.borrow().num_pages() as usize;
        assert!(
            pool.len() <= pages,
            "{} frames for {pages} pages",
            pool.len()
        );
        let own = pager.borrow().pool().len();
        assert!(own <= pages, "{own} pager frames for {pages} pages");
    }

    /// Every node holding data items, depth-first, by plain recursion
    /// through `IndexProbe::expand`: the reference the memo's walk is
    /// checked against.
    fn collect_leaves<P: IndexProbe>(
        probe: &P,
        pg: &mut PooledPager,
        node: NodeRef,
        out: &mut Vec<NodeRef>,
    ) {
        let mut entries = Vec::new();
        probe.expand(pg, node, &mut entries);
        if entries.iter().any(|e| matches!(e, IndexEntry::Item(_))) {
            out.push(node);
        }
        for e in entries {
            if let IndexEntry::Node(child) = e {
                collect_leaves(probe, pg, child, out);
            }
        }
    }

    /// The leaf list as first defined: collect the leaf groups in one
    /// plain recursive walk, then re-read each leaf for its items.
    fn two_pass_leaves(engine: &Engine, name: &str) -> Vec<(PageId, Rect)> {
        let ds = engine.get(name).unwrap();
        with_tree!(ds, |t| {
            let probe = t.probe();
            crate::executor::read_pinned(&t.pager(), |pg| {
                let mut leaves = Vec::new();
                collect_leaves(&probe, pg, probe.root(), &mut leaves);
                leaves
                    .into_iter()
                    .map(|n| {
                        let items = crate::join::leaf_items(&probe, pg, n);
                        let region = Rect::from_points(items.iter().map(|it| it.point)).unwrap();
                        (n.page, region)
                    })
                    .collect()
            })
        })
    }

    /// The leaf list a dataset keeps, as pages and regions.
    fn kept_leaves(engine: &Engine, name: &str) -> Vec<(PageId, Rect)> {
        let ds = engine.get(name).unwrap();
        ds.leaves.iter().map(|n| (n.page, n.region)).collect()
    }

    #[test]
    fn a_write_reads_only_the_pages_it_wrote() {
        // The refresh that ends `UpdateBuilder::apply`, driven on an
        // index mutated through its own insert, so the insert's reads
        // are not counted as the refresh's.
        for kind in [IndexKind::Rtree, IndexKind::Quadtree] {
            let items = points(20_000, 97, 10_000.0);
            let inside = items[0].point;
            let mut engine = Engine::new();
            engine.load("d", items).index(kind);
            let pager = engine.pager();
            let ds = engine.datasets.get_mut("d").unwrap();
            let before = pager.borrow().stats();
            match &mut ds.index {
                AnyIndex::Rtree(t) => t.insert(Item::new(1 << 40, inside)),
                AnyIndex::Quadtree(t) => t.insert(1 << 40, inside),
            }
            let inserted = pager.borrow().stats();
            ds.refresh_leaves();
            let walked = pager.borrow().stats().since(inserted);
            let wrote = inserted.since(before).logical_writes;
            assert!(wrote > 0, "{}: the insert wrote nothing", kind.name());
            assert!(
                walked.logical_reads <= wrote,
                "{}: the refresh after a one-point insert read {} pages, the insert wrote {wrote}",
                kind.name(),
                walked.logical_reads
            );
            assert_eq!(kept_leaves(&engine, "d"), two_pass_leaves(&engine, "d"));
        }
    }

    #[test]
    fn memoized_leaf_regions_track_splits_condenses_chains_and_rebuilds() {
        for kind in [IndexKind::Rtree, IndexKind::Quadtree] {
            let mut engine = Engine::new();
            engine.load("d", points(600, 5, 1000.0)).index(kind);
            let grow = points(400, 6, 1000.0)
                .into_iter()
                .map(|it| Item::new(it.id + 1000, it.point));
            // Splits and forced reinserts; co-located points past the
            // quadtree's depth limit (overflow chains); deletes that
            // underfill nodes (condense); an out-of-region point (the
            // quadtree rebuild); upserts that move points.
            let batches: Vec<Vec<Mutation>> = vec![
                grow.map(Mutation::Insert).collect(),
                (2000..2120)
                    .map(|id| Mutation::Insert(Item::new(id, pt(250.0, 250.0))))
                    .collect(),
                (0..600).step_by(2).map(Mutation::Delete).collect(),
                (2000..2100).map(Mutation::Delete).collect(),
                vec![Mutation::Insert(Item::new(3000, pt(-500.0, 1800.0)))],
                (1001..1300)
                    .step_by(3)
                    .map(|id| Mutation::Upsert(Item::new(id, pt(id as f64 % 997.0, 3.5))))
                    .collect(),
            ];
            assert_eq!(kept_leaves(&engine, "d"), two_pass_leaves(&engine, "d"));
            for (i, ops) in batches.iter().enumerate() {
                engine.update("d").mutations(ops).apply().unwrap();
                let kept = kept_leaves(&engine, "d");
                assert_eq!(
                    kept,
                    two_pass_leaves(&engine, "d"),
                    "{}: batch {i}",
                    kind.name()
                );
                let regions: Vec<Rect> = kept.iter().map(|&(_, r)| r).collect();
                assert_eq!(engine.leaf_regions("d").unwrap(), regions);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The kept list against a from-scratch walk, on random batches:
        /// inserts spread out or stacked on one point (overflow chains),
        /// now and then one outside the data's box (a quadtree rebuild),
        /// deletes (condensed R-tree nodes) and upserts that move
        /// points. After every batch, on both index kinds, the kept list
        /// equals `two_pass_leaves` page for page and region for region,
        /// and a plan's self-join equals the one-shot `rcj_self_join`
        /// over the same tree, whose list is a fresh walk, in pairs,
        /// pair order and counters.
        #[test]
        fn kept_leaves_equal_a_from_scratch_walk_after_random_batches(
            seed in 0..1000u64,
            batches in proptest::collection::vec(
                (any::<bool>(), 0..130usize, 0..80usize, 0..60usize, any::<u64>()),
                1..6,
            ),
        ) {
            for kind in [IndexKind::Rtree, IndexKind::Quadtree] {
                let mut engine = Engine::new();
                engine.load("d", points(300, seed, 1000.0)).index(kind);
                let mut next_id = 1u64 << 32;
                let mut fresh_id = || {
                    next_id += 1;
                    next_id
                };
                for (i, batch) in batches.iter().enumerate() {
                    let &(stacked, inserts, deletes, upserts, salt) = batch;
                    let spot = pt((salt % 997) as f64, (salt % 991) as f64);
                    let mut ops: Vec<Mutation> = points(inserts, salt, 1000.0)
                        .into_iter()
                        .map(|it| if stacked { spot } else { it.point })
                        .map(|point| Item::new(fresh_id(), point))
                        .map(Mutation::Insert)
                        .collect();
                    if salt % 4 == 0 {
                        let outside = pt(-300.0 - (salt % 50) as f64, 1400.0);
                        ops.push(Mutation::Insert(Item::new(fresh_id(), outside)));
                    }
                    // Deletes take every other live item from a random
                    // start, upserts the ones between.
                    let live = engine.dataset_items("d").unwrap();
                    let start = (salt % live.len().max(1) as u64) as usize;
                    let mut moved = points(upserts, salt ^ 0x5eed, 1000.0).into_iter();
                    for (k, it) in live.iter().skip(start).enumerate() {
                        if k % 2 == 0 && k / 2 < deletes {
                            ops.push(Mutation::Delete(it.id));
                        } else if k % 2 == 1 {
                            if let Some(to) = moved.next() {
                                ops.push(Mutation::Upsert(Item::new(it.id, to.point)));
                            }
                        }
                    }
                    engine.update("d").mutations(&ops).apply().unwrap();
                    let what = format!("{}: batch {i}", kind.name());
                    let kept = kept_leaves(&engine, "d");
                    prop_assert_eq!(kept, two_pass_leaves(&engine, "d"), "{}", what);
                    let opts = RcjOptions::default();
                    let planned = engine.query().self_join("d").plan().unwrap().collect();
                    let ds = engine.get("d").unwrap();
                    let one_shot = with_tree!(ds, |t| crate::rcj_self_join(t, &opts));
                    prop_assert!(planned.pairs == one_shot.pairs, "{}", what);
                    prop_assert_eq!(planned.stats, one_shot.stats, "{}", what);
                }
            }
        }
    }

    #[test]
    fn plans_read_no_page_before_their_first_leaf() {
        // A plan runs the dataset's kept leaf list: running no leaf, on
        // either index kind, for a join or a self-join, reads nothing.
        for kind in [IndexKind::Rtree, IndexKind::Quadtree] {
            let mut engine = Engine::new();
            engine.load("p", points(800, 101, 2000.0)).index(kind);
            engine.load("q", points(800, 103, 2000.0)).index(kind);
            let pager = engine.pager();
            for self_join in [false, true] {
                let query = engine.query();
                let query = if self_join {
                    query.self_join("q")
                } else {
                    query.join("q", "p")
                };
                let plan = query.plan().unwrap();
                let before = pager.borrow().stats();
                let mut sink: Vec<(usize, RcjPair)> = Vec::new();
                let stats = plan.run_leaves(&[], &mut sink);
                let io = pager.borrow().stats().since(before);
                assert!(sink.is_empty());
                assert_eq!(stats, RcjStats::default());
                assert_eq!(
                    io.logical_reads,
                    0,
                    "{}: self_join={self_join}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn the_one_shot_join_reads_each_page_of_t_q_once_more() {
        // The one-shot join lists T_Q's leaves with one walk, reading
        // each of its pages once; an engine plan runs the kept list.
        // Nothing else differs: same pairs, same counters.
        for kind in [IndexKind::Rtree, IndexKind::Quadtree] {
            let mut engine = Engine::new();
            engine.load("p", points(800, 107, 2000.0)).index(kind);
            engine.load("q", points(800, 109, 2000.0)).index(kind);
            let pager = engine.pager();
            let reads = |run: &dyn Fn() -> RcjOutput| {
                let before = pager.borrow().stats();
                let out = run();
                (out, pager.borrow().stats().since(before).logical_reads)
            };
            let (q, p) = (engine.get("q").unwrap(), engine.get("p").unwrap());
            let opts = RcjOptions::default();
            for self_join in [false, true] {
                let query = engine.query().algorithm(opts.algorithm);
                let query = if self_join {
                    query.self_join("q")
                } else {
                    query.join("q", "p")
                };
                let plan = query.plan().unwrap();
                let (planned, planned_reads) = reads(&|| plan.collect());
                let (one_shot, one_shot_reads) = reads(&|| {
                    if self_join {
                        with_tree!(q, |t| crate::rcj_self_join(t, &opts))
                    } else {
                        with_tree_pair!(q, p, |tq, tp| crate::rcj_join(tq, tp, &opts))
                    }
                });
                let what = format!("{}: self_join={self_join}", kind.name());
                assert_eq!(one_shot.pairs, planned.pairs, "{what}");
                assert_eq!(one_shot.stats, planned.stats, "{what}");
                assert_eq!(one_shot_reads - planned_reads, q.summary().pages, "{what}");
            }
        }
    }

    #[test]
    fn replacing_a_dataset_swaps_the_index() {
        let mut engine = Engine::new();
        engine
            .load("d", points(50, 43, 400.0))
            .index(IndexKind::Rtree);
        assert_eq!(engine.dataset("d").unwrap().kind(), IndexKind::Rtree);
        engine
            .load("d", points(80, 47, 400.0))
            .index(IndexKind::Quadtree);
        let h = engine.dataset("d").unwrap();
        assert_eq!(h.kind(), IndexKind::Quadtree);
        assert_eq!(h.summary().items, 80);
        assert_eq!(engine.dataset_names(), vec!["d".to_string()]);
    }

    #[test]
    fn updates_apply_atomically_and_advance_the_epoch() {
        for kind in [IndexKind::Rtree, IndexKind::Quadtree] {
            let mut engine = Engine::new();
            let h = engine.load("p", points(200, 71, 900.0)).index(kind);
            assert_eq!(h.epoch(), 0);

            // Empty batch: no-op, no epoch bump.
            let h = engine.update("p").apply().unwrap();
            assert_eq!(h.epoch(), 0, "{}", kind.name());

            // Mixed batch: insert fresh ids, delete some, move one.
            let h = engine
                .update("p")
                .insert((1000..1020u64).map(|i| Item::new(i, pt(i as f64, 30.0))))
                .delete(0..10u64)
                .upsert([Item::new(42, pt(123.0, 456.0))])
                .apply()
                .unwrap();
            assert_eq!(h.epoch(), 1, "{}", kind.name());
            assert_eq!(h.summary().items, 210, "{}", kind.name());
            let items = engine.dataset_items("p").unwrap();
            assert_eq!(items.len(), 210);
            assert!(items
                .iter()
                .any(|it| it.id == 42 && it.point == pt(123.0, 456.0)));
            assert!(!items.iter().any(|it| it.id < 10));

            // Failing batches leave everything untouched — even ops
            // queued before the failing one.
            let err = engine
                .update("p")
                .insert([Item::new(5000, pt(1.0, 1.0)), Item::new(42, pt(2.0, 2.0))])
                .apply()
                .unwrap_err();
            assert_eq!(
                err,
                EngineError::DuplicateId {
                    dataset: "p".into(),
                    id: 42
                }
            );
            let err = engine.update("p").delete([0u64]).apply().unwrap_err();
            assert_eq!(
                err,
                EngineError::MissingId {
                    dataset: "p".into(),
                    id: 0
                }
            );
            assert_eq!(engine.dataset("p").unwrap().epoch(), 1, "{}", kind.name());
            assert_eq!(engine.dataset_items("p").unwrap().len(), 210);

            // Intra-batch conflicts are caught too: delete-then-delete,
            // insert colliding with an upsert earlier in the batch.
            assert!(engine.update("p").delete([42, 42]).apply().is_err());
            assert!(engine
                .update("p")
                .upsert([Item::new(7777, pt(5.0, 5.0))])
                .insert([Item::new(7777, pt(6.0, 6.0))])
                .apply()
                .is_err());

            // Updates must error on unknown datasets.
            assert_eq!(
                engine.update("nope").delete([1u64]).apply().unwrap_err(),
                EngineError::UnknownDataset("nope".into())
            );
        }
    }

    #[test]
    fn updated_datasets_answer_like_a_fresh_bulk_load() {
        for kind in [IndexKind::Rtree, IndexKind::Quadtree] {
            let mut engine = Engine::new();
            engine.load("p", points(150, 73, 700.0)).index(kind);
            engine
                .load("q", points(150, 79, 700.0))
                .index(IndexKind::Rtree);
            // Out-of-region inserts on the quadtree exercise the grow
            // path (points(…, 700.0) spans [0, 700)²; 900 is outside).
            engine
                .update("p")
                .insert([
                    Item::new(900, pt(900.0, 900.0)),
                    Item::new(901, pt(-50.0, 200.0)),
                ])
                .delete((0..150).step_by(3).map(|i| i as u64))
                .upsert(
                    (0..150u64)
                        .step_by(7)
                        .map(|i| Item::new(i, pt(i as f64, i as f64))),
                )
                .apply()
                .unwrap();

            let mut oracle = Engine::new();
            oracle
                .load("p", engine.dataset_items("p").unwrap())
                .index(kind);
            oracle
                .load("q", engine.dataset_items("q").unwrap())
                .index(IndexKind::Rtree);

            let live = engine.query().join("q", "p").collect().unwrap();
            let fresh = oracle.query().join("q", "p").collect().unwrap();
            assert_eq!(
                pair_keys(&live.pairs),
                pair_keys(&fresh.pairs),
                "{}",
                kind.name()
            );
            // Diameter order is canonical — byte-identical even though
            // the incremental tree's shape differs from the bulk load.
            let live_top: Vec<RcjPair> = engine
                .query()
                .join("q", "p")
                .top_k(25)
                .stream()
                .unwrap()
                .collect();
            let fresh_top: Vec<RcjPair> = oracle
                .query()
                .join("q", "p")
                .top_k(25)
                .stream()
                .unwrap()
                .collect();
            assert_eq!(live_top, fresh_top, "{}", kind.name());
        }
    }

    #[test]
    fn in_flight_streams_drain_their_snapshot() {
        let mut engine = Engine::new();
        engine
            .load("p", points(200, 83, 1200.0))
            .index(IndexKind::Rtree);
        engine
            .load("q", points(200, 89, 1200.0))
            .index(IndexKind::Rtree);
        let expected = engine.query().join("q", "p").collect().unwrap();

        for threads in [1, 4] {
            // Open (and partially drain) a stream, then mutate.
            let mut stream = engine
                .query()
                .join("q", "p")
                .threads(threads)
                .stream()
                .unwrap();
            let mut drained: Vec<RcjPair> = Vec::new();
            drained.extend(stream.by_ref().take(expected.pairs.len() / 3));

            engine
                .update("p")
                .delete([expected.pairs[0].p.id])
                .insert([Item::new(
                    100_000 + threads as u64,
                    pt(expected.pairs[0].p.point.x, expected.pairs[0].p.point.y),
                )])
                .apply()
                .unwrap();

            drained.extend(stream);
            assert_eq!(
                drained, expected.pairs,
                "threads={threads}: in-flight stream must keep its snapshot"
            );
            // New queries see the new epoch.
            let now = engine.query().join("q", "p").collect().unwrap();
            assert_ne!(pair_keys(&now.pairs), pair_keys(&expected.pairs));
            // Undo for the next round.
            engine
                .update("p")
                .delete([100_000 + threads as u64])
                .insert([Item::new(expected.pairs[0].p.id, expected.pairs[0].p.point)])
                .apply()
                .unwrap();
        }
    }

    #[test]
    fn in_flight_topk_stream_survives_updates_on_a_disk_native_engine() {
        let dir =
            std::env::temp_dir().join(format!("ringjoin-engine-live-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.rj");

        let mut engine = Engine::new();
        engine
            .load("p", points(300, 91, 2000.0))
            .index(IndexKind::Rtree);
        engine
            .load("q", points(300, 97, 2000.0))
            .index(IndexKind::Rtree);
        engine.pager().borrow_mut().spill_to(&path).unwrap();
        let expected: Vec<RcjPair> = engine
            .query()
            .join("q", "p")
            .top_k(40)
            .stream()
            .unwrap()
            .collect();
        assert_eq!(expected.len(), 40);

        let mut stream = engine.query().join("q", "p").top_k(40).stream().unwrap();
        let mut drained: Vec<RcjPair> = stream.by_ref().take(10).collect();
        // Delete the endpoints of several upcoming pairs; the pinned
        // stream must still produce them from its snapshot (the stream
        // holds the page file, so the batch versions it).
        engine
            .update("p")
            .delete(
                expected[10..20]
                    .iter()
                    .map(|pr| pr.p.id)
                    .collect::<std::collections::BTreeSet<_>>(),
            )
            .apply()
            .unwrap();
        drained.extend(stream);
        assert_eq!(drained, expected, "pinned top-k stream changed answers");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn buffer_frac_applies_papers_rule() {
        let mut engine = Engine::new();
        engine
            .load("p", points(1000, 53, 5000.0))
            .index(IndexKind::Rtree);
        engine
            .load("q", points(1000, 59, 5000.0))
            .index(IndexKind::Quadtree);
        engine.set_buffer_frac(0.5);
        let total: u64 = ["p", "q"]
            .iter()
            .map(|n| engine.dataset(n).unwrap().summary().pages)
            .sum();
        assert_eq!(
            engine.pager().borrow().buffer_capacity(),
            ((total as f64 * 0.5).ceil() as usize).max(1)
        );
    }

    #[test]
    fn disk_native_engine_matches_in_memory_under_a_tight_budget() {
        let build = |engine: &mut Engine| {
            engine
                .load("p", points(600, 61, 3000.0))
                .index(IndexKind::Rtree);
            engine
                .load("q", points(600, 67, 3000.0))
                .index(IndexKind::Quadtree);
        };
        let mut mem = Engine::new();
        build(&mut mem);
        let expected = mem.query().join("q", "p").collect().unwrap();

        let dir = std::env::temp_dir().join(format!("ringjoin-engine-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.rj");
        let mut disk = Engine::new();
        disk.load("p", points(600, 61, 3000.0))
            .index(IndexKind::Rtree);
        disk.load("q", points(600, 67, 3000.0))
            .index(IndexKind::Quadtree);
        disk.pager().borrow_mut().spill_to(&path).unwrap();
        // Budget ~1/4 of the page space: the dataset cannot be resident.
        let total: u64 = ["p", "q"]
            .iter()
            .map(|n| disk.dataset(n).unwrap().summary().pages)
            .sum();
        disk.set_buffer_pages((total as usize / 4).max(1));

        for threads in [1, 4] {
            let before = disk.pager().borrow().stats();
            let out = disk
                .query()
                .join("q", "p")
                .threads(threads)
                .collect()
                .unwrap();
            let io = disk.pager().borrow().stats().since(before);
            assert_eq!(out.pairs, expected.pairs, "threads={threads}");
            assert_eq!(out.stats, expected.stats, "threads={threads}");
            assert!(
                io.read_faults > 0,
                "threads={threads}: a budget smaller than the dataset must fault"
            );
            assert_eq!(
                io.read_hits + io.read_faults,
                io.logical_reads,
                "threads={threads}: hit/fault split must sum to logical reads"
            );
            assert!(
                io.prefetch_hits <= io.read_hits,
                "threads={threads}: prefetch hits are a subset of hits"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sequential_joins_and_leaf_walks_leave_the_page_file_unpinned() {
        // A sequential join and the leaf walk that ends every batch pin
        // the page file; a batch opened while a pin lives would version
        // the file to `<file>.e<N>`. None may be left, and the join
        // after the batches must equal a resident engine's.
        let dir = ringjoin_testsupport::scratch_dir("engine-unpinned");
        let path = dir.join("pages.rj");
        let (mut mem, mut disk) = (Engine::new(), Engine::new());
        for (engine, on_disk) in [(&mut mem, None), (&mut disk, Some(&path))] {
            engine
                .load("p", points(500, 113, 2000.0))
                .index(IndexKind::Rtree);
            engine
                .load("q", points(500, 127, 2000.0))
                .index(IndexKind::Quadtree);
            if let Some(path) = on_disk {
                engine.pager().borrow_mut().spill_to(path).unwrap();
            }
        }
        let join = |engine: &Engine| {
            let query = engine.query().join("q", "p");
            query.executor(Executor::Sequential).collect().unwrap()
        };
        assert_eq!(join(&disk).pairs, join(&mem).pairs);
        for engine in [&mut mem, &mut disk] {
            let added = Item::new(1 << 40, pt(7.0, 9.0));
            engine
                .update("p")
                .delete([3])
                .insert([added])
                .apply()
                .unwrap();
            let moved = Item::new(5, pt(1500.0, 20.0));
            engine
                .update("q")
                .upsert([moved])
                .delete([8])
                .apply()
                .unwrap();
        }
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(files, ["pages.rj"], "a batch versioned the page file");
        let (got, want) = (join(&disk), join(&mem));
        assert_eq!(got.pairs, want.pairs);
        assert_eq!(got.stats, want.stats);
        std::fs::remove_dir_all(&dir).ok();
    }
}
