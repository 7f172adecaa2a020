//! The sharded RCJ session: one [`Engine`] per shard behind a space
//! partition, with deterministic cross-shard merges.
//!
//! # Why shards replicate the index
//!
//! The ring constraint is **global**: a pair qualifies only if its
//! circle is empty of *every* point of `P ∪ Q`, so no shard can verify
//! a pair from a fragment of the data alone. The sharding that
//! preserves exact semantics therefore partitions the **work**, not the
//! data: each shard owns one half-open cell of a longest-axis
//! median-split [`SpacePartition`] and drives the join for the outer
//! leaf groups whose region centers fall in its cell, against a full
//! (read-only) index replica it can filter and verify on locally. This
//! is the classic replicated-index / partitioned-query serving layout —
//! on a multi-node deployment each shard engine is a node.
//!
//! # Determinism
//!
//! * **Join / self-join** — shards emit pairs tagged with the global
//!   outer-leaf index ([`Plan::run_leaves`]); the merge orders tagged
//!   pairs by `(leaf index, shard id)` (the shard id can never tie —
//!   each leaf is owned by exactly one shard), reproducing the
//!   single-engine output *byte for byte*, with per-shard [`RcjStats`]
//!   merging to the sequential totals.
//! * **Bounded join** — a [`RingBounds`] window is validated once by
//!   the coordinator ([`validate_bounds`], which each worker's planning
//!   repeats for requests that reach it directly), fans out only to the
//!   cells whose extent meets [`RingBounds::inflated`], and travels to
//!   each shard as a plan constraint
//!   ([`QueryBuilder::within`]): the shard's leaf pass skips the owned
//!   leaves the window does not reach, cuts each filter at the window's
//!   diameter and verifies only admitted candidates. Shards return only
//!   admitted pairs and their counters as counted, so the merge is the
//!   single engine's windowed answer and [`RcjStats`], byte for byte.
//! * **Top-k** — each shard runs its owned outer leaves, as for a join
//!   ([`Plan::run_leaves_pooled`]), into a [`TopK`] sink whose cut
//!   bounds every filter at the shard's `k`-th best squared diameter
//!   so far. Every pair comes from one leaf and so from one shard, so
//!   a k-bounded merge of the shards' answers in
//!   [rank order](RcjPair::rank_cmp) (squared diameter, then pair key)
//!   is the single-engine answer, byte for byte, ties included. (Top-k
//!   *stats* do depend on the partition: each shard's cut falls with
//!   its own pairs only.)
//!
//! Shard workers are long-lived threads owning their engines, so index
//! construction is paid once per `LOAD` and queries are message
//! round-trips. The message is the [`ShardRequest`] worker processes
//! parse off the wire, and one dispatch answers it in both places.

use crate::partition::SpacePartition;
use crate::proto::{encode_load, Ownership, Request, ShardReply, ShardRequest};
use crate::remote::{RemoteShard, SpawnedShard};
use crate::topology::{BackendFactory, HealFn, ShardBackend, ShardFault, Topology};
use crate::ServerError;
use ringjoin_core::{
    validate_batch, validate_bounds, Engine, EngineError, IndexKind, Mutation, PairSink, Plan,
    QueryBuilder, RcjAlgorithm, RcjPair, RcjStats, RingBounds, TopK,
};
use ringjoin_geom::{Item, Point, Rect};
use ringjoin_storage::{BufferPool, MemDisk, Pager, Wal};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a sharded query returns: the merged pairs, the merged run
/// counters, and how many shards participated.
#[derive(Clone, Debug)]
pub struct ShardedOutput {
    /// Merged result pairs (leaf order for joins, ascending ring
    /// diameter for top-k).
    pub pairs: Vec<RcjPair>,
    /// Per-shard [`RcjStats`] merged component-wise.
    pub stats: RcjStats,
    /// Number of shards the request fanned out to.
    pub shards_queried: usize,
}

/// Catalog description of one loaded dataset, as reported by
/// [`ShardedEngine::load`] and [`ShardedEngine::dataset`].
#[derive(Clone, Debug)]
pub struct DatasetInfo {
    /// Registered name.
    pub name: String,
    /// Index kind every shard built.
    pub kind: IndexKind,
    /// Total points.
    pub items: u64,
    /// Mutation epoch: `0` at load, `+1` per applied update batch.
    pub epoch: u64,
    /// Outer leaf groups owned by each shard (sums to the dataset's
    /// leaf-group count).
    pub leaves_per_shard: Vec<usize>,
    /// Points located in each shard's cell.
    pub items_per_shard: Vec<u64>,
}

/// What [`ShardedEngine::update`] reports for one applied batch.
#[derive(Clone, Debug)]
pub struct UpdateInfo {
    /// The mutated dataset.
    pub name: String,
    /// The dataset's new mutation epoch.
    pub epoch: u64,
    /// How many operations the batch carried.
    pub applied: usize,
    /// Total points after the batch.
    pub items: u64,
}

// ---------------------------------------------------------------------
// The worker: one long-lived thread owning one Engine
// ---------------------------------------------------------------------

struct WorkerDataset {
    cell: Rect,
    /// Positions, in the engine's leaf list, of the leaves whose centre
    /// lies in `cell`.
    owned: Vec<usize>,
}

/// One shard worker: an engine replica plus each dataset's owned
/// leaves. [`ShardWorker::handle`] is the single dispatch behind both
/// the in-process backend and the worker-process server.
struct ShardWorker {
    engine: Engine,
    datasets: BTreeMap<String, WorkerDataset>,
    /// The pool shared by **every** shard worker of this
    /// [`ShardedEngine`]. Replicas are built identically, so their
    /// page-id spaces (and, disk-native, their page files' bytes)
    /// coincide — inner-tree pages one shard's join faults in are warm
    /// for every other shard's, instead of each replica re-faulting its
    /// private engine buffer.
    pool: BufferPool,
    /// Disk-native serving: the page file every `LOAD` spills to. The
    /// worker is its only reader and writer (`None` = resident).
    page_file: Option<PathBuf>,
}

impl ShardWorker {
    /// A worker accounting its joins through `pool`. A disk-native
    /// worker's pager buffers at most the pool's budget, which bounds
    /// the page bytes a spill leaves in its frames.
    fn new(pool: BufferPool, page_file: Option<PathBuf>) -> ShardWorker {
        ShardWorker {
            engine: Self::empty_engine(&pool, page_file.is_some()),
            datasets: BTreeMap::new(),
            pool,
            page_file,
        }
    }

    /// The empty engine a worker starts with, and starts over with when
    /// its first spill is refused.
    fn empty_engine(pool: &BufferPool, disk_native: bool) -> Engine {
        let buffer = if disk_native {
            pool.capacity()
        } else {
            usize::MAX / 2
        };
        Engine::with_pager(Pager::new(MemDisk::new(1024), buffer).into_shared())
    }

    /// Answers one shard message.
    fn handle(&mut self, req: &ShardRequest) -> Result<ShardReply, String> {
        match req {
            ShardRequest::Hello => Ok(ShardReply::Hello),
            ShardRequest::Load {
                name,
                kind,
                cell,
                items,
            } => self
                .load(name, *kind, *cell, items)
                .map(ShardReply::Indexed),
            ShardRequest::Update {
                name,
                target_epoch,
                ops,
            } => self
                .update(name, ops, *target_epoch)
                .map(ShardReply::Indexed),
            ShardRequest::Join {
                outer,
                inner,
                algo,
                bounds,
            } => self.join(outer, inner.as_deref(), *algo, *bounds),
            ShardRequest::TopK { outer, inner, k } => self.top_k(outer, inner.as_deref(), *k),
            ShardRequest::Explain {
                outer,
                inner,
                algo,
                k,
            } => Self::plan(&self.engine, outer, inner.as_deref(), *algo, *k, None)
                .map(|plan| ShardReply::Plan(plan.to_string())),
            ShardRequest::Shutdown => Ok(ShardReply::Bye),
        }
    }

    /// Builds the replica and, in disk mode, spills it to the worker's
    /// page file (after the first load's copy, write-through keeps the
    /// file current and the spill is a no-op). So only a first load's
    /// spill can be refused, and the worker then starts over empty: the
    /// refused dataset and its pages go.
    fn load(
        &mut self,
        name: &str,
        kind: IndexKind,
        cell: Rect,
        items: &[Item],
    ) -> Result<Ownership, String> {
        self.engine
            .load(name.to_string(), items.to_vec())
            .index(kind);
        if let Some(path) = &self.page_file {
            let spilled = self.engine.pager().borrow_mut().spill_to(path);
            if let Err(e) = spilled {
                self.engine = Self::empty_engine(&self.pool, true);
                return Err(format!("spilling pages to {}: {e}", path.display()));
            }
        }
        self.reindex_ownership(name, cell)
    }

    /// Recomputes which leaf groups this worker owns for `name` (their
    /// regions changed under a load or a mutation batch) and records
    /// them, returning the ownership the coordinator's routing catalog
    /// wants. The regions come from the engine's leaf list, which the
    /// load or the batch refreshed; reading them reads no page.
    fn reindex_ownership(&mut self, name: &str, cell: Rect) -> Result<Ownership, String> {
        let leaves = self.engine.leaves(name).map_err(|e| e.to_string())?;
        let owned: Vec<usize> = leaves
            .iter()
            .enumerate()
            .filter(|(_, leaf)| cell.contains_point_half_open(leaf.region.center()))
            .map(|(i, _)| i)
            .collect();
        let mut extent = Rect::empty();
        for &i in &owned {
            extent.expand_rect(leaves[i].region);
        }
        let leaves = owned.len();
        self.datasets
            .insert(name.to_string(), WorkerDataset { cell, owned });
        Ok(Ownership { leaves, extent })
    }

    /// Applies one mutation batch, keyed by its **target epoch** for
    /// idempotent delivery: a worker already at `target_epoch` applied
    /// this very batch on a previous delivery whose reply was lost —
    /// it re-answers without re-applying — and any epoch other than
    /// `target_epoch - 1` is a hard refusal (the worker has diverged
    /// and must be rebuilt from the log).
    ///
    /// The coordinator serializes updates against every query under its
    /// catalog write lock, so no reader holds a worker's page file when
    /// the batch lands, and the batch writes the file in place. Every
    /// slot applies the same history, so its file stays byte-identical
    /// to every other slot's.
    fn update(
        &mut self,
        name: &str,
        ops: &[Mutation],
        target_epoch: u64,
    ) -> Result<Ownership, String> {
        let current = self
            .engine
            .dataset(name)
            .ok_or_else(|| format!("shard has no dataset {name:?}"))?
            .epoch();
        if current + 1 == target_epoch {
            let handle = self
                .engine
                .update(name.to_string())
                .mutations(ops)
                .apply()
                .map_err(|e| e.to_string())?;
            debug_assert_eq!(handle.epoch(), target_epoch);
        } else if current != target_epoch {
            return Err(format!(
                "dataset {name:?} is at epoch {current}, cannot apply batch for epoch {target_epoch}"
            ));
        }
        let cell = self
            .datasets
            .get(name)
            .ok_or_else(|| format!("shard has no cell recorded for {name:?}"))?
            .cell;
        self.reindex_ownership(name, cell)
    }

    /// The plan of one shard query. Planning validates the window, so a
    /// worker refuses one the coordinator would have refused.
    fn plan<'e>(
        engine: &'e Engine,
        outer: &str,
        inner: Option<&str>,
        algo: RcjAlgorithm,
        top_k: Option<usize>,
        window: Option<RingBounds>,
    ) -> Result<Plan<'e>, String> {
        let mut q: QueryBuilder<'e> = match inner {
            Some(inner) => engine.query().join(outer, inner),
            None => engine.query().self_join(outer),
        };
        q = q.algorithm(algo);
        if let Some(k) = top_k {
            q = q.top_k(k);
        }
        if let Some(rb) = window {
            q = q.within(rb);
        }
        q.plan().map_err(|e| e.to_string())
    }

    /// Runs the owned leaves. Within a window the plan skips the leaves
    /// the window does not reach and reports only the pairs it admits.
    fn join(
        &mut self,
        outer: &str,
        inner: Option<&str>,
        algo: RcjAlgorithm,
        bounds: Option<RingBounds>,
    ) -> Result<ShardReply, String> {
        let ds = self
            .datasets
            .get(outer)
            .ok_or_else(|| format!("shard has no dataset {outer:?}"))?;
        let plan = Self::plan(&self.engine, outer, inner, algo, None, bounds)?;
        let mut tagged: Vec<(usize, RcjPair)> = Vec::new();
        let stats = plan.run_leaves_pooled(&ds.owned, &self.pool, &mut tagged);
        Ok(ShardReply::Joined {
            pairs: tagged,
            stats,
        })
    }

    fn top_k(&mut self, outer: &str, inner: Option<&str>, k: usize) -> Result<ShardReply, String> {
        let ds = self
            .datasets
            .get(outer)
            .ok_or_else(|| format!("shard has no dataset {outer:?}"))?;
        let plan = Self::plan(&self.engine, outer, inner, RcjAlgorithm::Auto, None, None)?;
        let mut top = TopK::new(k);
        let stats = plan.run_leaves_pooled(&ds.owned, &self.pool, &mut top);
        Ok(ShardReply::Ranked {
            pairs: top.into_pairs(),
            stats,
        })
    }
}

/// The buffer pool of a `buffer_pages` frame budget, `0` meaning
/// effectively unbounded: the one pool rule of a coordinator's shared
/// pool and a worker process's own.
pub(crate) fn buffer_pool(buffer_pages: usize) -> BufferPool {
    BufferPool::new(if buffer_pages == 0 {
        usize::MAX / 2
    } else {
        buffer_pages
    })
}

// ---------------------------------------------------------------------
// Local backend: the worker thread behind the ShardBackend trait
// ---------------------------------------------------------------------

/// One shard message plus the channel its reply goes back on.
type Envelope = (ShardRequest, Sender<Result<ShardReply, String>>);

/// The in-process [`ShardBackend`]: one worker thread reached over a
/// channel that carries the shard message itself. The engine is built
/// *inside* the thread: its pager is single-threaded by design
/// (`Rc`-shared) and never leaves the thread that owns it. A closed
/// channel (the worker thread died) surfaces as [`ShardFault::Gone`],
/// so even thread workers are respawned and replayed by the topology's
/// supervisor. A worker [`Server`](crate::Server) puts the same thread
/// behind a TCP listener.
pub(crate) struct LocalShard {
    tx: Sender<Envelope>,
    handle: Option<JoinHandle<()>>,
}

impl LocalShard {
    /// Spawns one worker thread accounting through `pool` and, when
    /// `page_file` is set, serving its pages from that file.
    pub(crate) fn spawn(pool: BufferPool, page_file: Option<PathBuf>) -> LocalShard {
        let (tx, rx) = channel::<Envelope>();
        let handle = std::thread::spawn(move || {
            let mut worker = ShardWorker::new(pool, page_file);
            while let Ok((req, reply)) = rx.recv() {
                let _ = reply.send(worker.handle(&req));
                if matches!(req, ShardRequest::Shutdown) {
                    break;
                }
            }
        });
        LocalShard {
            tx,
            handle: Some(handle),
        }
    }

    fn stop(&mut self) {
        let _ = self.request(&ShardRequest::Shutdown);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl ShardBackend for LocalShard {
    /// One message round trip; channel loss on either leg is a
    /// transport fault, a worker-reported error a request fault.
    fn request(&mut self, req: &ShardRequest) -> Result<ShardReply, ShardFault> {
        let (reply, rx) = channel();
        self.tx
            .send((req.clone(), reply))
            .map_err(|_| ShardFault::Gone("worker thread hung up".into()))?;
        rx.recv()
            .map_err(|_| ShardFault::Gone("worker thread died mid-request".into()))?
            .map_err(ShardFault::Request)
    }

    fn shutdown(&mut self) {
        self.stop();
    }
}

impl Drop for LocalShard {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------
// Topology configuration
// ---------------------------------------------------------------------

/// Where a topology's shard workers live.
#[derive(Clone)]
pub enum WorkerSpec {
    /// In-process worker threads sharing the coordinator's buffer pool
    /// (the PR-4 serving shape, and the default).
    Local,
    /// Pre-started worker processes at these `host:port` addresses, in
    /// flat cell-major order — the list length must equal
    /// `shards * replicas`.
    Remote(Vec<String>),
    /// Child worker processes the coordinator spawns (and respawns)
    /// itself by running `<program> serve --shard-of auto` on loopback,
    /// with the slot's page file (`--on-disk`) and the pool budget
    /// (`--buffer-pages`) on the command line.
    Spawn {
        /// The worker binary — normally the serving binary itself.
        program: PathBuf,
    },
    /// A callback that provisions (or re-provisions) the worker for
    /// `(cell, replica)` and returns its address — the test hook for
    /// in-process TCP workers, and the seam a cluster scheduler plugs
    /// into.
    Provision(Arc<dyn Fn(usize, usize) -> Result<String, String> + Send + Sync>),
}

impl std::fmt::Debug for WorkerSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerSpec::Local => write!(f, "Local"),
            WorkerSpec::Remote(addrs) => f.debug_tuple("Remote").field(addrs).finish(),
            WorkerSpec::Spawn { program } => {
                f.debug_struct("Spawn").field("program", program).finish()
            }
            WorkerSpec::Provision(_) => write!(f, "Provision(..)"),
        }
    }
}

/// What a [`ShardedEngine`] is built from: its shape, where its workers
/// live, their storage, and its durable log. A worker request's socket
/// deadline (30 s) and the supervisor's first respawn backoff (100 ms)
/// are fixed.
#[derive(Clone, Debug)]
pub struct TopologyConfig {
    /// Partition cells (the shard count; must be at least 1).
    pub shards: usize,
    /// Workers per cell (must be at least 1). Replicas answer
    /// byte-identically, so reads round-robin across them and fail
    /// over on loss.
    pub replicas: usize,
    /// Where the workers live (in-process threads by default).
    pub workers: WorkerSpec,
    /// Disk-native serving: worker slot `s` (cell-major, as `STATS`
    /// numbers `shard<s>`) spills every `LOAD` to its own page file
    /// `<on_disk>.<s>`. An error for pre-started workers
    /// ([`WorkerSpec::Remote`], [`WorkerSpec::Provision`]), which keep
    /// the storage they were started with.
    pub on_disk: Option<PathBuf>,
    /// Buffer-pool frame budget (`0` = effectively unbounded). Local
    /// workers share the coordinator's pool; each spawned worker
    /// process has its own. Nonzero, an error for pre-started workers.
    pub buffer_pages: usize,
    /// Durable coordinator state: when set, every LOAD and update batch
    /// is appended to a write-ahead log under `<data_dir>/wal` and
    /// fsynced **before** the fan-out, and construction replays the log
    /// so a restarted coordinator re-drives every shard/replica back to
    /// the logged epochs. `None` (the default) keeps the replay log in
    /// memory only — the pre-durability behavior.
    pub data_dir: Option<PathBuf>,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            shards: 1,
            replicas: 1,
            workers: WorkerSpec::Local,
            on_disk: None,
            buffer_pages: 0,
            data_dir: None,
        }
    }
}

// ---------------------------------------------------------------------
// The sharded engine: router + catalog over the topology
// ---------------------------------------------------------------------

struct CatalogEntry {
    kind: IndexKind,
    items: u64,
    /// Mutation epoch: `0` at load, `+1` per applied update batch —
    /// always equal to every live worker's engine-level epoch for this
    /// dataset (the fan-out keeps them in lockstep; a worker that
    /// drifts is quarantined and rebuilt from the log).
    epoch: u64,
    /// The current pointset, id → point. Update batches validate
    /// against it through [`validate_batch`], the rules
    /// [`Engine::update`] runs, **once** at the coordinator so a
    /// rejected batch provably never reaches a worker.
    points: BTreeMap<u64, Point>,
    /// The dataset's partition cells (fixed at load; updates move
    /// points between existing cells but never re-partition).
    cells: Vec<Rect>,
    /// Leaf groups owned by each shard.
    leaves: Vec<usize>,
    /// Points located in each shard's cell, moved by each batch's net
    /// effect.
    item_counts: Vec<u64>,
    /// Union of each shard's owned leaf regions — the shard extent
    /// ring-expanded bounds are routed against. Empty for shards that
    /// own nothing.
    extents: Vec<Rect>,
}

type Catalog = BTreeMap<String, CatalogEntry>;

// ---------------------------------------------------------------------
// Durable log + crash-fault injection
// ---------------------------------------------------------------------

/// Crash-fault injection hook: aborts the process (no unwinding, no
/// flushing — the closest in-process stand-in for SIGKILL) when the
/// `RINGJOIN_CRASH_POINT` environment variable names this point. A
/// `point:N` spec skips the first `N` hits of the point first, so a
/// test can let some batches land durably and crash mid-stream. The
/// recovery tests and the CI crash-smoke job drive it with
/// `wal-pre-sync`, `wal-post-sync` and `mid-fanout`.
fn crash_point(point: &str) {
    static HITS: AtomicU64 = AtomicU64::new(0);
    let Ok(spec) = std::env::var("RINGJOIN_CRASH_POINT") else {
        return;
    };
    let (armed, skip) = match spec.split_once(':') {
        Some((p, n)) => (p, n.parse().unwrap_or(0)),
        None => (spec.as_str(), 0u64),
    };
    if armed == point && HITS.fetch_add(1, Ordering::SeqCst) >= skip {
        eprintln!("crash-fault injection: aborting at {point}");
        std::process::abort();
    }
}

/// Appends the batch's wire payload to the durable log (if one is
/// configured) and fsyncs it — the log-*durably*-before-fan-out point.
/// A no-op without a `data_dir`, which then never encodes the payload.
fn wal_append(st: &mut CatalogState, payload: impl FnOnce() -> String) -> Result<(), ServerError> {
    if let Some(wal) = st.wal.as_mut() {
        wal.append(payload().as_bytes())
            .map_err(|e| ServerError::Internal(format!("WAL append failed: {e}")))?;
        crash_point("wal-pre-sync");
        wal.sync()
            .map_err(|e| ServerError::Internal(format!("WAL fsync failed: {e}")))?;
        crash_point("wal-post-sync");
    }
    Ok(())
}

/// Mirrors an `st.log.pop()` on the durable log: truncates the record
/// appended for a batch whose fan-out was abandoned, so a restart does
/// not replay it. Best-effort — the in-memory pop is authoritative for
/// the running process.
fn wal_abort(st: &mut CatalogState) {
    if let Some(wal) = st.wal.as_mut() {
        if let Err(e) = wal.abort_last() {
            eprintln!(
                "warning: WAL abort-last failed ({e}); a restart may replay an abandoned batch"
            );
        }
    }
}

/// The routing catalog and the replay log behind **one** lock. One
/// lock, not two, is load-bearing: the heal function replays the log
/// and flips its slot up under the read lock, and `load`/`update`
/// append and fan out under the write lock, so a healing slot can never
/// land between "missed the fan-out" and "missed the log".
#[derive(Default)]
struct CatalogState {
    catalog: Catalog,
    /// The replay log: every applied load and mutation batch, in
    /// order, stored as the shard requests a respawned worker of each
    /// cell re-receives (`log[record][cell]`). A load's requests differ
    /// only in their `cell=`; an update sends every cell the same one.
    log: Vec<Vec<ShardRequest>>,
    /// The durable image of `log` (`None` without a `data_dir`). Living
    /// behind the same lock, it appends exactly when the in-memory log
    /// pushes and truncates exactly when it pops — the two can never
    /// disagree about which batches exist.
    wal: Option<Wal>,
}

/// A sharded RCJ session: shard workers (in-process threads or worker
/// processes, `replicas` of each) behind a per-dataset
/// [`SpacePartition`], answering joins, self-joins and top-k queries
/// with output byte-identical to a single [`Engine`]. See the module
/// docs for the architecture and the determinism contract, and the
/// `topology` module for routing, failover and self-healing.
///
/// Every method takes `&self`, so one engine can serve **concurrent
/// sessions** behind an `Arc`: queries hold the catalog's read lock
/// across their fan-out and merge, while [`ShardedEngine::load`] takes
/// the write lock — a `LOAD` is serialized against every in-flight
/// join and can never swap the catalog under one.
pub struct ShardedEngine {
    topology: Topology,
    state: Arc<RwLock<CatalogState>>,
    /// The one buffer pool all *local* shard workers account through
    /// (see [`ShardedEngine::pool_stats`]); worker processes run their
    /// own.
    pool: BufferPool,
    /// Lifetime count of applied update batches, across all datasets —
    /// what `STATS` reports as `updates_total`.
    updates: AtomicU64,
    /// How many durable-log records construction replayed (LOADs
    /// re-establishing epoch 0 plus update batches advancing one epoch
    /// each) — `0` for a fresh or non-durable engine; what `STATS`
    /// reports as `recovered_epochs`.
    recovered: u64,
    /// How long that replay took, WAL open included — zero when nothing
    /// was replayed; what `STATS` reports as `recovery_ms`.
    recovery: Duration,
}

impl ShardedEngine {
    /// Spawns `shards >= 1` shard workers (rejecting `0` — a shard
    /// *count* must be at least one, mirroring the `--threads`
    /// validation of the executor). All workers share **one** buffer
    /// pool: sized effectively unbounded like each engine's default
    /// buffer, it exists so replicas warm pages for each other and so
    /// cache behavior is observable per serving process.
    pub fn new(shards: usize) -> Result<ShardedEngine, ServerError> {
        Self::with_topology(TopologyConfig {
            shards,
            ..TopologyConfig::default()
        })
    }

    /// The fully general constructor: every knob of the topology —
    /// worker placement, replicas per cell, storage residency and the
    /// durable log, which it replays before returning.
    /// [`ShardedEngine::new`] is a thin wrapper over this.
    pub fn with_topology(cfg: TopologyConfig) -> Result<ShardedEngine, ServerError> {
        if cfg.shards == 0 {
            return Err(ServerError::InvalidShards);
        }
        if cfg.replicas == 0 {
            return Err(ServerError::BadRequest(
                "replicas must be at least 1 (got 0)".into(),
            ));
        }
        let pool = buffer_pool(cfg.buffer_pages);
        let state: Arc<RwLock<CatalogState>> = Arc::new(RwLock::new(CatalogState::default()));
        let pre_started = matches!(
            cfg.workers,
            WorkerSpec::Remote(_) | WorkerSpec::Provision(_)
        );
        if pre_started && (cfg.on_disk.is_some() || cfg.buffer_pages > 0) {
            return Err(ServerError::BadRequest(
                "pre-started workers keep the storage they were started with: start each \
                 worker with its own --on-disk FILE and --buffer-pages N instead"
                    .into(),
            ));
        }
        let (on_disk, replicas) = (cfg.on_disk.clone(), cfg.replicas);
        let page_file = move |cell: usize, rep: usize| {
            let mut path = on_disk.clone()?.into_os_string();
            path.push(format!(".{}", cell * replicas + rep));
            Some(PathBuf::from(path))
        };
        let factory: BackendFactory = match &cfg.workers {
            WorkerSpec::Local => {
                let pool = pool.clone();
                Arc::new(move |cell, rep| {
                    let shard = LocalShard::spawn(pool.clone(), page_file(cell, rep));
                    Ok(Box::new(shard) as Box<dyn ShardBackend>)
                })
            }
            WorkerSpec::Remote(addrs) => {
                if addrs.len() != cfg.shards * cfg.replicas {
                    return Err(ServerError::BadRequest(format!(
                        "worker list has {} address(es), need shards x replicas = {}",
                        addrs.len(),
                        cfg.shards * cfg.replicas
                    )));
                }
                let addrs = addrs.clone();
                let replicas = cfg.replicas;
                Arc::new(move |cell, rep| {
                    RemoteShard::connect(&addrs[cell * replicas + rep])
                        .map(|b| Box::new(b) as Box<dyn ShardBackend>)
                })
            }
            WorkerSpec::Spawn { program } => {
                let program = program.clone();
                let buffer_pages = cfg.buffer_pages;
                Arc::new(move |cell, rep| {
                    SpawnedShard::launch(&program, page_file(cell, rep), buffer_pages)
                        .map(|b| Box::new(b) as Box<dyn ShardBackend>)
                })
            }
            WorkerSpec::Provision(provision) => {
                let provision = Arc::clone(provision);
                Arc::new(move |cell, rep| {
                    let addr = provision(cell, rep)?;
                    RemoteShard::connect(&addr).map(|b| Box::new(b) as Box<dyn ShardBackend>)
                })
            }
        };
        let heal: HealFn = {
            let state = Arc::clone(&state);
            Arc::new(move |cell, mut backend, slot| {
                // Catalog READ lock: excludes a concurrent load's or
                // update's write lock, so the replay plus the up flip
                // are atomic with respect to new batches (see the
                // topology module docs for the race this closes).
                let st = state.read().expect("catalog lock poisoned");
                for record in &st.log {
                    match backend
                        .request(&record[cell])
                        .map_err(ShardFault::message)?
                    {
                        ShardReply::Indexed(_) => {}
                        _ => return Err(WRONG_REPLY.to_string()),
                    }
                }
                slot.install(backend);
                Ok(st.log.len() as u64)
            })
        };
        let topology = Topology::new(cfg.shards, cfg.replicas, factory, heal)?;
        let mut engine = ShardedEngine {
            topology,
            state,
            pool,
            updates: AtomicU64::new(0),
            recovered: 0,
            recovery: Duration::ZERO,
        };
        if let Some(dir) = &cfg.data_dir {
            let started = Instant::now();
            engine.recovered = engine.recover(dir)?;
            if engine.recovered > 0 {
                engine.recovery = started.elapsed();
            }
        }
        Ok(engine)
    }

    /// Opens the durable log under `<data_dir>/wal`, re-drives every
    /// recovered record through the normal [`ShardedEngine::load`] /
    /// [`ShardedEngine::update`] paths (the WAL is installed only
    /// *afterwards*, so replay does not re-append what it reads), and
    /// verifies each update batch lands on exactly the epoch the log
    /// recorded. Runs inside construction — before the server binds its
    /// listener — so no session ever observes a half-recovered catalog.
    /// Returns how many records it replayed.
    fn recover(&self, data_dir: &Path) -> Result<u64, ServerError> {
        let (payloads, wal) = Wal::open(data_dir.join("wal"))
            .map_err(|e| ServerError::Internal(format!("WAL open failed: {e}")))?;
        for (i, payload) in payloads.iter().enumerate() {
            let corrupt = |e: &dyn std::fmt::Display| {
                ServerError::Internal(format!("WAL record {i} corrupt: {e}"))
            };
            let text = std::str::from_utf8(payload).map_err(|e| corrupt(&e))?;
            // Each record is the wire request that carried its batch.
            if text.starts_with("SUPDATE ") {
                let ShardRequest::Update {
                    name,
                    target_epoch,
                    ops,
                } = ShardRequest::parse(text).map_err(|e| corrupt(&e))?
                else {
                    return Err(corrupt(&"not an SUPDATE payload"));
                };
                let info = self.update(&name, Arc::unwrap_or_clone(ops))?;
                if info.epoch != target_epoch {
                    return Err(ServerError::Internal(format!(
                        "recovery drove dataset {name:?} to epoch {} but the log recorded {target_epoch}",
                        info.epoch
                    )));
                }
            } else {
                let Request::Load { name, kind, items } =
                    Request::parse(text).map_err(|e| corrupt(&e))?
                else {
                    return Err(corrupt(&"neither a LOAD nor an SUPDATE payload"));
                };
                self.load(&name, items, kind)?;
            }
        }
        // The replayed-and-truncated log now becomes the live one:
        // every batch from here on appends after the recovered prefix.
        self.state.write().expect("catalog lock poisoned").wal = Some(wal);
        Ok(payloads.len() as u64)
    }

    /// Number of shards (partition cells).
    pub fn shard_count(&self) -> usize {
        self.topology.cells()
    }

    /// Workers per cell.
    pub fn replicas(&self) -> usize {
        self.topology.replicas()
    }

    /// Per-slot `(state, lifetime requests)` in flat cell-major slot
    /// order (slot `cell * replicas + rep`) — what `STATS` reports as
    /// `shard<i>_state` / `shard<i>_requests`.
    pub fn shard_health(&self) -> Vec<(&'static str, u64)> {
        self.topology.health()
    }

    /// Lifetime count of datasets replayed into respawned workers.
    pub fn replays_total(&self) -> u64 {
        self.topology.replays_total()
    }

    /// Lifetime count of applied update batches across all datasets
    /// (batches replayed from the durable log at startup included —
    /// recovery applies them through the same path).
    pub fn updates_total(&self) -> u64 {
        self.updates.load(Ordering::Relaxed)
    }

    /// Durable-log counters `(records, bytes)`: valid records currently
    /// in the WAL and their total framed size on disk. `(0, 0)` when the
    /// engine runs without a `data_dir` — what `STATS` reports as
    /// `wal_records` / `wal_bytes`.
    pub fn wal_stats(&self) -> (u64, u64) {
        self.read_state()
            .wal
            .as_ref()
            .map_or((0, 0), |w| (w.records(), w.bytes()))
    }

    /// How many durable-log records startup recovery replayed into the
    /// fleet (`0` for a fresh directory or a non-durable engine) — what
    /// `STATS` reports as `recovered_epochs`, and what the CI crash-
    /// smoke job polls to confirm a restarted coordinator healed.
    pub fn recovered_epochs(&self) -> u64 {
        self.recovered
    }

    /// Wall time of that startup recovery in milliseconds (`0` for a
    /// fresh or non-durable engine) — what `STATS` reports as
    /// `recovery_ms`. A timing: it stays out of [`RcjStats`].
    pub fn recovery_ms(&self) -> f64 {
        self.recovery.as_secs_f64() * 1e3
    }

    /// Polls until every worker slot is up, or `timeout` lapses.
    /// Returns whether full health was reached — the test and CI hook
    /// for "the supervisor has finished healing".
    pub fn wait_healthy(&self, timeout: Duration) -> bool {
        self.topology.wait_healthy(timeout)
    }

    /// Each worker slot's OS process id in flat cell-major slot order
    /// (`None` for in-process workers and down slots) — the
    /// fault-injection hook: tests SIGKILL a real worker pid and watch
    /// the topology heal.
    pub fn worker_pids(&self) -> Vec<Option<u32>> {
        self.topology.pids()
    }

    /// Lifetime counters of the pool shared by every shard worker:
    /// `(hits, faults, prefetch hits, hit rate)` — prefetch hits are the
    /// subset of hits served from frames a prefetcher staged ahead of
    /// the workers (always `0` in resident serving). Surfaced on the
    /// wire by the `STATS` response, so cache behavior is observable
    /// end to end.
    pub fn pool_stats(&self) -> (u64, u64, u64, f64) {
        (
            self.pool.hits(),
            self.pool.faults(),
            self.pool.prefetch_hits(),
            self.pool.hit_rate(),
        )
    }

    fn read_state(&self) -> RwLockReadGuard<'_, CatalogState> {
        self.state.read().expect("catalog lock poisoned")
    }

    /// Names of all loaded datasets (sorted).
    pub fn dataset_names(&self) -> Vec<String> {
        self.read_state().catalog.keys().cloned().collect()
    }

    /// Catalog description of one loaded dataset.
    pub fn dataset(&self, name: &str) -> Option<DatasetInfo> {
        self.read_state().catalog.get(name).map(|e| DatasetInfo {
            name: name.to_string(),
            kind: e.kind,
            items: e.items,
            epoch: e.epoch,
            leaves_per_shard: e.leaves.clone(),
            items_per_shard: e.item_counts.clone(),
        })
    }

    /// The exact pointset of a dataset's current epoch, sorted by id —
    /// what a rebuild-from-scratch oracle bulk-loads to reproduce this
    /// sharded engine's query answers.
    pub fn dataset_items(&self, name: &str) -> Result<Vec<Item>, ServerError> {
        let st = self.read_state();
        let entry = Self::require(&st.catalog, name)?;
        Ok(entry
            .points
            .iter()
            .map(|(&id, &point)| Item::new(id, point))
            .collect())
    }

    /// Loads a dataset on every shard: computes the dataset's space
    /// partition, hands each worker the full item set (the index is
    /// replicated — see the module docs) plus its cell, and records the
    /// routing catalog. Rejects a name that is already loaded with a
    /// protocol-level error instead of silently replacing the dataset
    /// (a serving process must not swap data under a running client),
    /// and refuses items with a non-finite coordinate.
    ///
    /// Holds the catalog's **write** lock for the whole load, so a
    /// `LOAD` waits for in-flight joins (which hold read locks) and
    /// joins admitted after it wait for the load — no query ever sees a
    /// half-registered dataset.
    pub fn load(
        &self,
        name: &str,
        items: Vec<Item>,
        kind: IndexKind,
    ) -> Result<DatasetInfo, ServerError> {
        let mut st = self.state.write().expect("catalog lock poisoned");
        if st.catalog.contains_key(name) {
            return Err(ServerError::DuplicateDataset(name.to_string()));
        }
        items.iter().try_for_each(require_finite)?;
        let cells_n = self.topology.cells();
        let points: Vec<_> = items.iter().map(|it| it.point).collect();
        let partition = SpacePartition::build(&points, cells_n);
        let mut item_counts = vec![0u64; cells_n];
        for p in &points {
            item_counts[partition.locate(*p)] += 1;
        }
        let cells: Vec<Rect> = (0..cells_n).map(|i| partition.cell(i)).collect();
        let items = Arc::new(items);
        // One request per cell, exactly as a replay re-sends it.
        let record = cells
            .iter()
            .map(|&cell| ShardRequest::Load {
                name: name.to_string(),
                kind,
                cell,
                items: Arc::clone(&items),
            })
            .collect();
        let owners = self.log_and_fan_out(&mut st, record, || encode_load(name, kind, &items))?;
        let (leaves, extents) = routing(&owners);
        st.catalog.insert(
            name.to_string(),
            CatalogEntry {
                kind,
                items: items.len() as u64,
                epoch: 0,
                points: items.iter().map(|it| (it.id, it.point)).collect(),
                cells,
                leaves: leaves.clone(),
                item_counts: item_counts.clone(),
                extents,
            },
        );
        Ok(DatasetInfo {
            name: name.to_string(),
            kind,
            items: items.len() as u64,
            epoch: 0,
            leaves_per_shard: leaves,
            items_per_shard: item_counts,
        })
    }

    /// Applies a mutation batch to a live dataset on every shard,
    /// advancing its epoch by one. Like [`ShardedEngine::load`] this
    /// holds the catalog's **write** lock end to end: in-flight joins
    /// (read locks) drain first, and every query admitted afterwards
    /// plans and routes against the new epoch — no query ever observes
    /// a half-applied batch.
    ///
    /// The whole batch is validated *here*, against the coordinator's
    /// authoritative pointset, by the engine's own [`validate_batch`]
    /// (`INSERT` of a present id and `DELETE` of an absent id refuse the
    /// whole batch; `UPSERT` never fails), plus finite coordinates. Like
    /// the catalog refresh after it, the check costs the batch, not the
    /// dataset. Workers therefore only see batches that must succeed — a
    /// worker-side refusal means its state has diverged from the log,
    /// and the topology layer tears it down for a rebuild. If the batch
    /// cannot land on at least one replica of every cell, it is
    /// abandoned: the log record is popped and every worker that *did*
    /// apply it is quarantined (it sits one epoch ahead of the log and
    /// would otherwise silently diverge on the next batch).
    pub fn update(&self, name: &str, ops: Vec<Mutation>) -> Result<UpdateInfo, ServerError> {
        if ops.is_empty() {
            return Err(ServerError::BadRequest(
                "an update batch needs at least one mutation".to_string(),
            ));
        }
        let mut st = self.state.write().expect("catalog lock poisoned");
        let entry = Self::require(&st.catalog, name)?;
        // The engine's own validator, so a batch accepted here cannot
        // fail on any in-sync worker. Ids are checked in batch order up
        // to the first non-finite point, which is refused in its turn.
        let finite = ops
            .iter()
            .take_while(|op| match op {
                Mutation::Insert(it) | Mutation::Upsert(it) => require_finite(it).is_ok(),
                Mutation::Delete(_) => true,
            })
            .count();
        let delta = validate_batch(name, &entry.points, &ops[..finite]).map_err(refusal)?;
        if let Some(Mutation::Insert(it) | Mutation::Upsert(it)) = ops.get(finite) {
            require_finite(it)?;
        }
        let target_epoch = entry.epoch + 1;
        let ops = Arc::new(ops);
        let req = ShardRequest::Update {
            name: name.to_string(),
            target_epoch,
            ops: Arc::clone(&ops),
        };
        let record = vec![req.clone(); self.topology.cells()];
        let owners = self.log_and_fan_out(&mut st, record, || req.encode())?;
        // Unanimous: refresh the routing catalog from the fan-out, and
        // the pointset and per-cell counts from the batch's net effect.
        let entry = st.catalog.get_mut(name).expect("validated above");
        let cell_of = |p: Point| {
            entry
                .cells
                .iter()
                .position(|c| c.contains_point_half_open(p))
                .expect("partition cells tile the plane")
        };
        for (id, after) in delta {
            let before = match after {
                Some(p) => entry.points.insert(id, p),
                None => entry.points.remove(&id),
            };
            if let Some(p) = before {
                entry.item_counts[cell_of(p)] -= 1;
            }
            if let Some(p) = after {
                entry.item_counts[cell_of(p)] += 1;
            }
        }
        entry.items = entry.points.len() as u64;
        entry.epoch = target_epoch;
        (entry.leaves, entry.extents) = routing(&owners);
        self.updates.fetch_add(1, Ordering::Relaxed);
        Ok(UpdateInfo {
            name: name.to_string(),
            epoch: target_epoch,
            applied: ops.len(),
            items: entry.items,
        })
    }

    /// The one fan-out of a history record — a load, or an update
    /// batch — given as the request each cell receives.
    ///
    /// The record enters the replay log and the WAL (fsynced) **before**
    /// any worker sees it: a slot healing concurrently cannot flip up
    /// while the caller holds the write lock, so it replays a log that
    /// already carries this record, and every batch a worker ever sees
    /// is already on disk. Then every replica slot receives its cell's
    /// request concurrently; a disk-native slot spills to, or writes
    /// through to, its own page file.
    ///
    /// Returns each cell's ownership (identical across a cell's
    /// replicas). A record that a live worker refuses, or that cannot
    /// land on at least one replica of every cell, is abandoned: popped
    /// from both logs, with any slot that applied an abandoned update
    /// quarantined for a rebuild.
    fn log_and_fan_out(
        &self,
        st: &mut CatalogState,
        record: Vec<ShardRequest>,
        payload: impl FnOnce() -> String,
    ) -> Result<Vec<Ownership>, ServerError> {
        st.log.push(record.clone());
        if let Err(e) = wal_append(st, payload) {
            st.log.pop();
            return Err(e);
        }
        let update = matches!(record[0], ShardRequest::Update { .. });
        let replicas = self.topology.replicas();
        let total = record.len() * replicas;
        let topo = &self.topology;
        let outcomes = fan_out(0..total, |idx| {
            let out = topo.call_slot(idx, &record[idx / replicas]);
            if update && idx == 0 {
                // Slot 0 has applied the batch; the rest of the fleet
                // may not have — the genuinely partial state a recovery
                // must heal.
                crash_point("mid-fanout");
            }
            out
        });
        let mut owners: Vec<Option<Ownership>> = vec![None; record.len()];
        let mut applied = Vec::new();
        let mut hard_err = None;
        for (idx, out) in outcomes.into_iter().enumerate() {
            match out {
                Some(Ok(ShardReply::Indexed(own))) => {
                    owners[idx / replicas].get_or_insert(own);
                    applied.push(idx);
                }
                Some(Ok(_)) => {
                    hard_err.get_or_insert_with(|| WRONG_REPLY.to_string());
                }
                Some(Err(msg)) => {
                    hard_err.get_or_insert(msg);
                }
                // Not up (or died mid-call): the supervisor's replay
                // delivers this very record later.
                None => {}
            }
        }
        let dark_cell = owners.iter().position(Option::is_none);
        if hard_err.is_none() && dark_cell.is_none() {
            return Ok(owners.into_iter().flatten().collect());
        }
        st.log.pop();
        wal_abort(st);
        if update {
            for idx in applied {
                self.topology.quarantine(idx);
            }
        }
        Err(match hard_err {
            Some(msg) => ServerError::Internal(msg),
            None => ServerError::ShardGone(dark_cell.unwrap_or_default()),
        })
    }

    fn require<'c>(catalog: &'c Catalog, name: &str) -> Result<&'c CatalogEntry, ServerError> {
        catalog
            .get(name)
            .ok_or_else(|| ServerError::UnknownDataset(name.to_string()))
    }

    /// Shards a bichromatic join across the outer dataset's partition
    /// and merges the per-shard streams back into the exact
    /// single-engine answer (same pairs, same order, same merged
    /// [`RcjStats`]). With `bounds`, only pairs whose ring intersects
    /// the bounds (and is at most `max_diameter` wide) are computed, as
    /// by [`QueryBuilder::within`], and only the shards whose extent
    /// meets the ring-expanded bounds are queried. A window
    /// [`validate_bounds`] refuses is a [`ServerError::BadRequest`].
    pub fn join(
        &self,
        outer: &str,
        inner: &str,
        algo: RcjAlgorithm,
        bounds: Option<RingBounds>,
    ) -> Result<ShardedOutput, ServerError> {
        let st = self.read_state();
        Self::require(&st.catalog, inner)?;
        self.join_locked(&st.catalog, outer, Some(inner), algo, bounds)
    }

    /// Sharded self-join; see [`ShardedEngine::join`].
    pub fn self_join(
        &self,
        dataset: &str,
        algo: RcjAlgorithm,
        bounds: Option<RingBounds>,
    ) -> Result<ShardedOutput, ServerError> {
        let st = self.read_state();
        self.join_locked(&st.catalog, dataset, None, algo, bounds)
    }

    /// The shared join fan-out, run under the catalog's read lock (held
    /// by the caller through `catalog`): routing, the replica
    /// round-trips (with failover — see the topology module) and the
    /// deterministic merge. The requested algorithm travels unchanged:
    /// each shard resolves `Auto` over its own replica, and every
    /// replica is built from the same history, so all shards pick what
    /// a single engine picks.
    fn join_locked(
        &self,
        catalog: &Catalog,
        outer: &str,
        inner: Option<&str>,
        algo: RcjAlgorithm,
        bounds: Option<RingBounds>,
    ) -> Result<ShardedOutput, ServerError> {
        let entry = Self::require(catalog, outer)?;
        if let Some(rb) = &bounds {
            validate_bounds(rb).map_err(refusal)?;
        }
        // Route: cells owning no leaf of the outer dataset can never
        // contribute; with bounds, neither can cells whose extent
        // misses the ring-expanded bounds.
        let participating: Vec<usize> = (0..self.topology.cells())
            .filter(|&i| entry.leaves[i] > 0)
            .filter(|&i| match &bounds {
                None => true,
                Some(rb) => entry.extents[i].intersects(rb.inflated()),
            })
            .collect();
        let req = ShardRequest::Join {
            outer: outer.to_string(),
            inner: inner.map(str::to_string),
            algo,
            bounds,
        };
        let replies = fan_out(participating.iter().copied(), |cell| {
            match self.topology.call(cell, &req)? {
                ShardReply::Joined { pairs, stats } => Ok((pairs, stats)),
                _ => Err(ServerError::Internal(WRONG_REPLY.into())),
            }
        })
        .into_iter()
        .collect::<Result<Vec<_>, ServerError>>()?;
        let mut stats = RcjStats::default();
        let mut tagged: Vec<(usize, RcjPair)> = Vec::new();
        for (pairs, shard_stats) in replies {
            tagged.extend(pairs);
            stats.merge(shard_stats);
        }
        // The deterministic merge: global leaf order. Each leaf is owned
        // by exactly one cell and each cell's batch is already in leaf
        // order, so a stable sort on the leaf index alone reproduces the
        // sequential emission order exactly.
        tagged.sort_by_key(|(leaf, _)| *leaf);
        Ok(ShardedOutput {
            pairs: tagged.into_iter().map(|(_, pr)| pr).collect(),
            stats,
            shards_queried: participating.len(),
        })
    }

    /// Sharded top-k by ascending ring diameter: every shard owning
    /// outer leaves keeps the `k` best pairs of its leaves (a cut leaf
    /// pass into a [`TopK`] sink), and a k-bounded merge in
    /// [rank order](RcjPair::rank_cmp) keeps the `k` most compact
    /// overall — the single-engine answer, ties included.
    pub fn top_k(&self, outer: &str, inner: &str, k: usize) -> Result<ShardedOutput, ServerError> {
        let st = self.read_state();
        Self::require(&st.catalog, inner)?;
        self.top_k_locked(&st.catalog, outer, Some(inner), k)
    }

    /// Sharded self-join top-k; see [`ShardedEngine::top_k`].
    pub fn top_k_self(&self, dataset: &str, k: usize) -> Result<ShardedOutput, ServerError> {
        let st = self.read_state();
        self.top_k_locked(&st.catalog, dataset, None, k)
    }

    fn top_k_locked(
        &self,
        catalog: &Catalog,
        outer: &str,
        inner: Option<&str>,
        k: usize,
    ) -> Result<ShardedOutput, ServerError> {
        let entry = Self::require(catalog, outer)?;
        // As for a join, cells owning no leaf of the outer dataset can
        // never contribute.
        let participating: Vec<usize> = (0..self.topology.cells())
            .filter(|&i| entry.leaves[i] > 0)
            .collect();
        let req = ShardRequest::TopK {
            outer: outer.to_string(),
            inner: inner.map(str::to_string),
            k,
        };
        let replies = fan_out(participating.iter().copied(), |cell| {
            match self.topology.call(cell, &req)? {
                ShardReply::Ranked { pairs, stats } => Ok((pairs, stats)),
                _ => Err(ServerError::Internal(WRONG_REPLY.into())),
            }
        })
        .into_iter()
        .collect::<Result<Vec<_>, ServerError>>()?;
        let mut stats = RcjStats::default();
        let mut streams: Vec<std::vec::IntoIter<RcjPair>> = Vec::new();
        for (pairs, shard_stats) in replies {
            stats.merge(shard_stats);
            streams.push(pairs.into_iter());
        }
        let pairs = merge_top_k(streams, k);
        stats.result_pairs = pairs.len() as u64;
        Ok(ShardedOutput {
            pairs,
            stats,
            shards_queried: participating.len(),
        })
    }

    /// The resolved plan a shard runs for this query (they are identical
    /// across shards — every shard plans over the same replica), plus a
    /// sharding postscript: shard count and the per-shard routing the
    /// request would fan out with.
    pub fn explain(
        &self,
        outer: &str,
        inner: Option<&str>,
        algo: RcjAlgorithm,
        top_k: Option<usize>,
    ) -> Result<String, ServerError> {
        let st = self.read_state();
        let entry = Self::require(&st.catalog, outer)?;
        if let Some(inner) = inner {
            Self::require(&st.catalog, inner)?;
        }
        let req = ShardRequest::Explain {
            outer: outer.to_string(),
            inner: inner.map(str::to_string),
            algo,
            k: top_k,
        };
        let ShardReply::Plan(mut out) = self.topology.call(0, &req)? else {
            return Err(ServerError::Internal(WRONG_REPLY.into()));
        };
        out.push('\n');
        out.push_str(&format!(
            "  sharding: {} shard(s) x {} replica(s); outer leaves per shard: {:?}; items per shard: {:?}",
            self.topology.cells(),
            self.topology.replicas(),
            entry.leaves,
            entry.item_counts,
        ));
        Ok(out)
    }

    /// Stops the supervisor and every shard worker. The drop of the
    /// inner topology does the same; explicit shutdown just makes the
    /// teardown point visible at call sites.
    pub fn shutdown(mut self) {
        self.topology.shutdown();
    }
}

/// How a reply of the wrong shape for its request is reported — only
/// a misbehaving worker sends one.
const WRONG_REPLY: &str = "shard worker answered with the wrong reply shape";

/// Refuses a point no index can hold: one with a NaN or infinite
/// coordinate.
fn require_finite(it: &Item) -> Result<(), ServerError> {
    if it.point.x.is_finite() && it.point.y.is_finite() {
        Ok(())
    } else {
        Err(ServerError::BadRequest(format!(
            "item {} has a non-finite coordinate ({}, {})",
            it.id, it.point.x, it.point.y
        )))
    }
}

/// The wire refusal of a batch [`validate_batch`] or a window
/// [`validate_bounds`] turned down.
fn refusal(e: EngineError) -> ServerError {
    ServerError::BadRequest(match e {
        EngineError::InvalidWindow(why) => why,
        EngineError::DuplicateId { dataset, id } => {
            format!("INSERT of duplicate id {id} into dataset {dataset:?}")
        }
        EngineError::MissingId { dataset, id } => {
            format!("DELETE of missing id {id} from dataset {dataset:?}")
        }
        other => other.to_string(),
    })
}

/// Runs `op` for every index — on scoped threads when there is more
/// than one, inline when there is one — and returns the results in
/// index order, which the merges rely on for byte-identity.
fn fan_out<T: Send>(
    indices: impl ExactSizeIterator<Item = usize>,
    op: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    if indices.len() < 2 {
        return indices.map(op).collect();
    }
    std::thread::scope(|s| {
        let op = &op;
        let handles: Vec<_> = indices.map(|i| s.spawn(move || op(i))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fan-out thread panicked"))
            .collect()
    })
}

/// The routing-catalog view of a fan-out: per-cell owned-leaf counts
/// and extents.
fn routing(owners: &[Ownership]) -> (Vec<usize>, Vec<Rect>) {
    (
        owners.iter().map(|o| o.leaves).collect(),
        owners.iter().map(|o| o.extent).collect(),
    )
}

/// K-bounded merge of per-shard answers in
/// [rank order](RcjPair::rank_cmp): the `k` best pairs of all streams,
/// ranked by the same [`TopK`] sink each shard ranked its own pairs with.
fn merge_top_k(streams: Vec<std::vec::IntoIter<RcjPair>>, k: usize) -> Vec<RcjPair> {
    let mut top = TopK::new(k);
    for pair in streams.into_iter().flatten() {
        PairSink::push(&mut top, pair);
    }
    top.into_pairs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ringjoin_core::{Engine, RcjStream};
    use ringjoin_geom::pt;

    fn items(n: usize, seed: u64, span: f64) -> Vec<Item> {
        ringjoin_testsupport::lcg_points(n, seed, span)
            .into_iter()
            .enumerate()
            .map(|(i, (x, y))| Item::new(i as u64, pt(x, y)))
            .collect()
    }

    fn unsharded(p: &[Item], q: &[Item], kind: IndexKind) -> Engine {
        let mut engine = Engine::new();
        engine.load("p", p.to_vec()).index(kind);
        engine.load("q", q.to_vec()).index(kind);
        engine
    }

    #[test]
    fn sharded_join_is_byte_identical_to_single_engine() {
        let ps = items(220, 3, 1200.0);
        // `Auto` resolves on the shards. A 3-point R-tree outer is cheaper
        // under INJ, a 220-point one under OBJ: both choices must match
        // the single engine's.
        for (qs, chosen) in [
            (items(220, 5, 1200.0), RcjAlgorithm::Obj),
            (items(3, 5, 1200.0), RcjAlgorithm::Inj),
        ] {
            let engine = unsharded(&ps, &qs, IndexKind::Rtree);
            let plan = engine.query().join("q", "p").plan().unwrap();
            assert_eq!(plan.algorithm(), chosen);
            let reference = plan.collect();
            for shards in [1usize, 2, 3, 4] {
                let se = ShardedEngine::new(shards).unwrap();
                se.load("p", ps.clone(), IndexKind::Rtree).unwrap();
                se.load("q", qs.clone(), IndexKind::Rtree).unwrap();
                let out = se.join("q", "p", RcjAlgorithm::Auto, None).unwrap();
                let label = format!("outer={} shards={shards}", qs.len());
                assert_eq!(out.pairs, reference.pairs, "{label}");
                assert_eq!(out.stats, reference.stats, "{label}");
                assert!(out.shards_queried >= 1 && out.shards_queried <= shards);
            }
        }
    }

    #[test]
    fn sharded_self_join_matches_and_reports_once() {
        let its = items(200, 7, 900.0);
        let mut engine = Engine::new();
        engine.load("d", its.clone()).index(IndexKind::Quadtree);
        let reference = engine.query().self_join("d").collect().unwrap();

        let se = ShardedEngine::new(3).unwrap();
        se.load("d", its, IndexKind::Quadtree).unwrap();
        let out = se.self_join("d", RcjAlgorithm::Auto, None).unwrap();
        assert_eq!(out.pairs, reference.pairs);
        assert_eq!(out.stats, reference.stats);
        for pr in &out.pairs {
            assert!(pr.p.id < pr.q.id);
        }
    }

    #[test]
    fn sharded_top_k_matches_single_engine_stream() {
        let ps = items(260, 11, 2500.0);
        let qs = items(260, 13, 2500.0);
        let engine = unsharded(&ps, &qs, IndexKind::Rtree);
        let k = 15;
        let reference: Vec<RcjPair> = {
            let plan = engine.query().join("q", "p").top_k(k).plan().unwrap();
            let s: RcjStream = plan.stream();
            s.collect()
        };
        for shards in [1usize, 2, 4] {
            let se = ShardedEngine::new(shards).unwrap();
            se.load("p", ps.clone(), IndexKind::Rtree).unwrap();
            se.load("q", qs.clone(), IndexKind::Rtree).unwrap();
            let out = se.top_k("q", "p", k).unwrap();
            assert_eq!(out.pairs.len(), k);
            assert_eq!(out.pairs, reference, "shards={shards}");
            assert_eq!(out.stats.result_pairs, k as u64);
        }
    }

    #[test]
    fn ring_bounds_restrict_and_route() {
        let ps = items(300, 17, 2000.0);
        let qs = items(300, 19, 2000.0);
        let engine = unsharded(&ps, &qs, IndexKind::Rtree);
        let full = engine.query().join("q", "p").collect().unwrap();
        let rb = RingBounds {
            bounds: Rect::new(pt(400.0, 400.0), pt(900.0, 900.0)),
            max_diameter: 150.0,
        };
        let expect: Vec<RcjPair> = full
            .pairs
            .iter()
            .copied()
            .filter(|pr| rb.admits(pr))
            .collect();

        let se = ShardedEngine::new(4).unwrap();
        se.load("p", ps, IndexKind::Rtree).unwrap();
        se.load("q", qs, IndexKind::Rtree).unwrap();
        let out = se.join("q", "p", RcjAlgorithm::Auto, Some(rb)).unwrap();
        assert_eq!(out.pairs, expect);
        assert_eq!(out.stats.result_pairs, expect.len() as u64);
        assert!(
            !out.pairs.is_empty(),
            "bounds query found nothing; widen the test region"
        );
        // A far-away region of interest routes to no shard at all.
        let far = RingBounds {
            bounds: Rect::new(pt(1e6, 1e6), pt(2e6, 2e6)),
            max_diameter: 10.0,
        };
        let out = se.join("q", "p", RcjAlgorithm::Auto, Some(far)).unwrap();
        assert!(out.pairs.is_empty());
        assert_eq!(out.shards_queried, 0);
    }

    #[test]
    fn a_bounded_join_routes_to_an_admitted_pair_an_ulp_outside_the_plain_inflation() {
        // `bounds.inflate(maxd)` starts at x = -233.66812400133205, one
        // ulp right of q, so routing by it queried no shard at all.
        let p = vec![Item::new(1, pt(437.7759677280631, 0.5))];
        let q = vec![Item::new(2, pt(-233.66812400133207, 0.5))];
        let rb = RingBounds {
            bounds: Rect::new(pt(437.7759677280631, 0.0), pt(444.9772559251448, 1.0)),
            max_diameter: 671.4440917293952,
        };
        let se = ShardedEngine::new(1).unwrap();
        se.load("p", p, IndexKind::Rtree).unwrap();
        se.load("q", q, IndexKind::Rtree).unwrap();
        let full = se.join("q", "p", RcjAlgorithm::Auto, None).unwrap();
        assert_eq!(full.pairs.len(), 1);
        assert!(rb.admits(&full.pairs[0]));
        let out = se.join("q", "p", RcjAlgorithm::Auto, Some(rb)).unwrap();
        assert_eq!(out.pairs, full.pairs);
        assert_eq!(out.shards_queried, 1);
    }

    #[test]
    fn validation_rejects_bad_inputs_without_panicking() {
        assert!(matches!(
            ShardedEngine::new(0),
            Err(ServerError::InvalidShards)
        ));
        let se = ShardedEngine::new(2).unwrap();
        se.load("d", items(40, 23, 300.0), IndexKind::Rtree)
            .unwrap();
        // Duplicate name: protocol error, dataset untouched.
        let err = se.load("d", items(10, 29, 300.0), IndexKind::Quadtree);
        assert!(matches!(err, Err(ServerError::DuplicateDataset(_))));
        assert_eq!(se.dataset("d").unwrap().items, 40);
        // Unknown datasets and malformed bounds are errors, not panics.
        assert!(matches!(
            se.join("d", "missing", RcjAlgorithm::Auto, None),
            Err(ServerError::UnknownDataset(_))
        ));
        assert!(matches!(
            se.top_k("missing", "d", 3),
            Err(ServerError::UnknownDataset(_))
        ));
        let bad = RingBounds {
            bounds: Rect::empty(),
            max_diameter: 1.0,
        };
        assert!(matches!(
            se.self_join("d", RcjAlgorithm::Auto, Some(bad)),
            Err(ServerError::BadRequest(_))
        ));
        let nan = RingBounds {
            bounds: Rect::new(pt(0.0, 0.0), pt(1.0, 1.0)),
            max_diameter: f64::NAN,
        };
        assert!(matches!(
            se.self_join("d", RcjAlgorithm::Auto, Some(nan)),
            Err(ServerError::BadRequest(why)) if why == "maxd must be finite and non-negative"
        ));
    }

    /// Applies a mutation batch to a plain single engine — the oracle
    /// every sharded update must stay byte-identical to. (A bulk-load
    /// rebuild over the same points is only *set*-equal: pair emission
    /// order follows tree structure, and an incrementally mutated tree
    /// legitimately differs from a bulk-built one.)
    fn apply_to_engine(engine: &mut Engine, name: &str, ops: &[Mutation]) {
        engine
            .update(name.to_string())
            .mutations(ops)
            .apply()
            .expect("oracle batch must apply");
    }

    #[test]
    fn updates_advance_epoch_and_match_an_identically_mutated_engine() {
        let ps = items(180, 3, 1200.0);
        let qs = items(180, 5, 1200.0);
        // A mixed batch on p: fresh inserts (some outside the load-time
        // extent), deletes, and an upsert that moves a surviving point.
        let p_batch = vec![
            Mutation::Insert(Item::new(900, pt(-200.0, 1500.0))),
            Mutation::Insert(Item::new(901, pt(640.0, 230.0))),
            Mutation::Delete(17),
            Mutation::Delete(44),
            Mutation::Upsert(Item::new(50, pt(333.25, 777.5))),
            Mutation::Upsert(Item::new(902, pt(10.0, 10.0))),
        ];
        let q_batch = vec![Mutation::Delete(0), Mutation::Delete(1)];
        let mut reference = unsharded(&ps, &qs, IndexKind::Rtree);
        apply_to_engine(&mut reference, "p", &p_batch);
        apply_to_engine(&mut reference, "q", &q_batch);

        for shards in [1usize, 4] {
            let se = ShardedEngine::new(shards).unwrap();
            se.load("p", ps.clone(), IndexKind::Rtree).unwrap();
            se.load("q", qs.clone(), IndexKind::Rtree).unwrap();

            let info = se.update("p", p_batch.clone()).unwrap();
            assert_eq!(info.epoch, 1, "first batch lands epoch 1");
            assert_eq!(info.applied, 6);
            assert_eq!(info.items, 181, "180 + 3 inserts/upserts - 2 deletes");
            assert_eq!(se.dataset("p").unwrap().epoch, 1);
            assert_eq!(se.dataset("q").unwrap().epoch, 0, "q untouched");

            // A second batch on q advances its epoch independently.
            se.update("q", q_batch.clone()).unwrap();
            assert_eq!(se.updates_total(), 2);

            // The catalog's authoritative pointset tracks the batches.
            let live = se.dataset_items("p").unwrap();
            assert_eq!(live.len(), 181);
            assert!(live.iter().any(|it| it.id == 900));
            assert!(!live.iter().any(|it| it.id == 17));
            let ref_join = reference.query().join("q", "p").collect().unwrap();
            let out = se.join("q", "p", RcjAlgorithm::Auto, None).unwrap();
            assert_eq!(out.pairs, ref_join.pairs, "shards={shards}");
            assert_eq!(out.stats, ref_join.stats, "shards={shards}");

            let ref_self = reference.query().self_join("p").collect().unwrap();
            let out = se.self_join("p", RcjAlgorithm::Auto, None).unwrap();
            assert_eq!(out.pairs, ref_self.pairs, "shards={shards}");
            assert_eq!(out.stats, ref_self.stats, "shards={shards}");

            let ref_top: Vec<RcjPair> = {
                let plan = reference.query().join("q", "p").top_k(11).plan().unwrap();
                let s: RcjStream = plan.stream();
                s.collect()
            };
            let top = se.top_k("q", "p", 11).unwrap();
            assert_eq!(top.pairs, ref_top, "shards={shards}");
        }
    }

    /// A random operation over ids `0..160` of a 120-point dataset
    /// (ids `0..120`): inserts that may collide, deletes that may miss,
    /// upserts, and repeats within one batch.
    fn mutation() -> impl Strategy<Value = Mutation> {
        let item = || {
            (0..160u64, 0.0..800.0f64, 0.0..800.0f64).prop_map(|(id, x, y)| Item::new(id, pt(x, y)))
        };
        prop_oneof![
            2 => item().prop_map(Mutation::Insert),
            2 => (0..160u64).prop_map(Mutation::Delete),
            1 => item().prop_map(Mutation::Upsert),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// One validator, one verdict: every batch gets the same accept
        /// or refuse verdict from a plain [`Engine`] and from the
        /// sharded coordinator, a refusal names the same offending id in
        /// the wire text, and a refused batch changes nothing.
        #[test]
        fn update_validation_refuses_whole_batches_and_leaves_state_intact(
            batches in proptest::collection::vec(proptest::collection::vec(mutation(), 1..5), 1..8),
        ) {
            let its = items(120, 7, 800.0);
            let se = ShardedEngine::new(2).unwrap();
            se.load("d", its.clone(), IndexKind::Quadtree).unwrap();
            let mut engine = Engine::new();
            engine.load("d", its).index(IndexKind::Quadtree);
            let before = se.self_join("d", RcjAlgorithm::Auto, None).unwrap();

            // Each refused batch: a protocol error, no epoch movement.
            prop_assert!(matches!(se.update("d", Vec::new()), Err(ServerError::BadRequest(_))));
            // id 3 exists: the whole batch (including the valid delete)
            // must be refused.
            let fixed = vec![
                vec![Mutation::Delete(0), Mutation::Insert(Item::new(3, pt(1.0, 2.0)))],
                vec![Mutation::Delete(4242)],
                // Intra-batch conflict: the upsert introduces the id the
                // later insert collides with.
                vec![
                    Mutation::Upsert(Item::new(500, pt(5.0, 6.0))),
                    Mutation::Insert(Item::new(500, pt(7.0, 8.0))),
                ],
            ];
            for ops in &fixed {
                prop_assert!(matches!(se.update("d", ops.clone()), Err(ServerError::BadRequest(_))));
            }
            prop_assert!(matches!(
                se.update("missing", vec![Mutation::Delete(0)]),
                Err(ServerError::UnknownDataset(_))
            ));
            let info = se.dataset("d").unwrap();
            prop_assert_eq!((info.epoch, info.items), (0, 120));
            prop_assert_eq!(se.updates_total(), 0);
            let after = se.self_join("d", RcjAlgorithm::Auto, None).unwrap();
            prop_assert!(after.pairs == before.pairs, "refused batches must be no-ops");
            prop_assert_eq!(after.stats, before.stats);

            // Delete-then-insert of one id is accepted.
            let reinsert = vec![Mutation::Delete(5), Mutation::Insert(Item::new(5, pt(9.0, 9.0)))];
            for ops in fixed.into_iter().chain([reinsert]).chain(batches) {
                let live = se.dataset_items("d").unwrap();
                let info = se.dataset("d").unwrap();
                let verdict = engine.update("d").mutations(&ops).apply();
                match (verdict, se.update("d", ops.clone())) {
                    (Ok(handle), Ok(applied)) => {
                        prop_assert_eq!(handle.epoch(), applied.epoch);
                        prop_assert_eq!(handle.summary().items, applied.items);
                    }
                    (Err(e), Err(ServerError::BadRequest(msg))) => {
                        let expected = match &e {
                            EngineError::DuplicateId { id, .. } => {
                                format!("INSERT of duplicate id {id} into dataset \"d\"")
                            }
                            EngineError::MissingId { id, .. } => {
                                format!("DELETE of missing id {id} from dataset \"d\"")
                            }
                            other => format!("unexpected engine refusal {other}"),
                        };
                        prop_assert_eq!(msg, expected);
                        prop_assert!(se.dataset_items("d").unwrap() == live);
                        let now = se.dataset("d").unwrap();
                        prop_assert_eq!((now.epoch, now.items_per_shard), (info.epoch, info.items_per_shard));
                    }
                    (verdict, served) => prop_assert!(
                        false,
                        "{ops:?}: the engine said {verdict:?}, the coordinator {served:?}"
                    ),
                }
            }
            prop_assert!(se.dataset_items("d").unwrap() == engine.dataset_items("d").unwrap());
            let served = se.self_join("d", RcjAlgorithm::Auto, None).unwrap();
            let reference = engine.query().self_join("d").collect().unwrap();
            prop_assert!(served.pairs == reference.pairs);
            prop_assert_eq!(served.stats, reference.stats);
        }
    }

    /// Five batches over a 400-point dataset in `[0, 1000)²` whose sizes
    /// `sizes` picks: random inserts into full STR leaves (R* forced
    /// reinserts and splits, quadtree splits); a pile of co-located
    /// points past the quadtree's depth limit (overflow chains); deletes
    /// that underfill nodes (condense); points outside the loaded region
    /// (the quadtree rebuild); upserts that move points.
    fn routing_batches(seed: u64, sizes: &[usize]) -> Vec<Vec<Mutation>> {
        let at = |n: usize, salt: u64| items(n, seed * 8 + salt, 1000.0).into_iter();
        let fresh = |id: u64, p: Item| Item::new(10_000 + 1_000 * id + p.id, p.point);
        vec![
            at(sizes[0], 1)
                .map(|p| Mutation::Insert(fresh(0, p)))
                .collect(),
            (0..45 + sizes[1] as u64)
                .map(|i| Mutation::Insert(Item::new(20_000 + i, pt(333.25, 666.5))))
                .collect(),
            (0..400)
                .step_by(400 / sizes[2])
                .map(Mutation::Delete)
                .collect(),
            at(sizes[3] % 3 + 1, 4)
                .map(|p| {
                    Mutation::Insert(fresh(4, Item::new(p.id, pt(p.point.x + 1000.0, p.point.y))))
                })
                .collect(),
            at(sizes[4], 5)
                .map(|p| Mutation::Upsert(Item::new(10_000 + p.id, p.point)))
                .collect(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Routing gate: after every batch, the routing state the batch
        /// patched in — each worker's leaf regions and owned leaves, the
        /// coordinator's per-cell leaf counts, extents, and item counts
        /// moved by the batch's net effect — equals that state
        /// recomputed on a fresh engine that replays the same history
        /// into the same tree: ownership from its leaf regions, counts
        /// from every point. The fresh engine keeps its leaf list the way
        /// a worker's does, refreshed by each batch, so this gate does
        /// not check the list itself; core's
        /// `kept_leaves_equal_a_from_scratch_walk_after_random_batches`
        /// checks it against a walk from scratch.
        #[test]
        fn batch_patched_routing_equals_a_replay_on_a_fresh_engine(
            shards in 1..5usize,
            quadtree in any::<bool>(),
            seed in 0..1000u64,
            sizes in proptest::collection::vec(20..90usize, 5),
        ) {
            let kind = if quadtree { IndexKind::Quadtree } else { IndexKind::Rtree };
            let base = items(400, seed, 1000.0);
            let se = ShardedEngine::new(shards).unwrap();
            se.load("d", base.clone(), kind).unwrap();
            let cells = se.read_state().catalog["d"].cells.clone();
            let cell_of = |p: Point| cells.iter().position(|c| c.contains_point_half_open(p)).unwrap();
            // The workers behind `se` are out of reach, so the same
            // messages also drive one worker per cell in the open.
            let mut workers: Vec<ShardWorker> = cells
                .iter()
                .map(|&cell| {
                    let mut worker = ShardWorker::new(BufferPool::new(usize::MAX / 2), None);
                    worker
                        .handle(&ShardRequest::Load {
                            name: "d".into(),
                            kind,
                            cell,
                            items: Arc::new(base.clone()),
                        })
                        .unwrap();
                    worker
                })
                .collect();
            let mut history: Vec<Vec<Mutation>> = Vec::new();
            let mut fresh = Engine::new();
            for ops in routing_batches(seed, &sizes) {
                se.update("d", ops.clone()).unwrap();
                let update = ShardRequest::Update {
                    name: "d".into(),
                    target_epoch: history.len() as u64 + 1,
                    ops: Arc::new(ops.clone()),
                };
                for worker in &mut workers {
                    worker.handle(&update).unwrap();
                }
                history.push(ops);
                fresh = Engine::new();
                fresh.load("d", base.clone()).index(kind);
                for ops in &history {
                    fresh.update("d").mutations(ops).apply().unwrap();
                }
                let regions = fresh.leaf_regions("d").unwrap();
                let mut owned = vec![Vec::new(); cells.len()];
                let mut extents = vec![Rect::empty(); cells.len()];
                for (i, region) in regions.iter().enumerate() {
                    let cell = cell_of(region.center());
                    owned[cell].push(i);
                    extents[cell].expand_rect(*region);
                }
                for (worker, owned) in workers.iter().zip(&owned) {
                    prop_assert_eq!(&worker.engine.leaf_regions("d").unwrap(), &regions);
                    prop_assert_eq!(&worker.datasets["d"].owned, owned);
                }
                let leaves: Vec<usize> = owned.iter().map(Vec::len).collect();
                let mut counts = vec![0u64; cells.len()];
                for it in fresh.dataset_items("d").unwrap() {
                    counts[cell_of(it.point)] += 1;
                }
                let st = se.read_state();
                let entry = &st.catalog["d"];
                prop_assert_eq!(&entry.leaves, &leaves);
                prop_assert_eq!(&entry.extents, &extents);
                prop_assert_eq!(&entry.item_counts, &counts);
            }
            let served = se.self_join("d", RcjAlgorithm::Auto, None).unwrap();
            let reference = fresh.query().self_join("d").collect().unwrap();
            prop_assert!(served.pairs == reference.pairs);
            prop_assert_eq!(served.stats, reference.stats);
        }
    }

    #[test]
    fn recovery_reports_its_wall_time_beside_its_record_count() {
        let dir = ringjoin_testsupport::scratch_dir("sharded-recovery-ms");
        let cfg = TopologyConfig {
            data_dir: Some(dir.clone()),
            ..TopologyConfig::default()
        };
        let fresh = ShardedEngine::with_topology(cfg.clone()).unwrap();
        assert_eq!((fresh.recovered_epochs(), fresh.recovery_ms()), (0, 0.0));
        fresh
            .load("d", items(300, 41, 900.0), IndexKind::Rtree)
            .unwrap();
        fresh.update("d", vec![Mutation::Delete(7)]).unwrap();
        fresh.shutdown();
        let restarted = ShardedEngine::with_topology(cfg).unwrap();
        assert_eq!(restarted.recovered_epochs(), 2);
        assert!(restarted.recovery_ms() > 0.0);
        restarted.shutdown();
        assert_eq!(ShardedEngine::new(1).unwrap().recovery_ms(), 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_logged_load_of_a_name_no_verb_accepts_fails_recovery() {
        // A name holding `=` is refused on the wire, so a log that loads
        // one was not written by this server: recovery refuses it as a
        // corrupt record instead of serving a dataset `EXPLAIN` cannot
        // name.
        let dir = ringjoin_testsupport::scratch_dir("sharded-recovery-bad-name");
        let (_, mut wal) = Wal::open(dir.join("wal")).unwrap();
        let load = encode_load("v=2", IndexKind::Rtree, &items(20, 43, 100.0));
        wal.append(load.as_bytes()).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let cfg = TopologyConfig {
            data_dir: Some(dir.clone()),
            ..TopologyConfig::default()
        };
        let err = ShardedEngine::with_topology(cfg)
            .err()
            .map(|e| e.to_string());
        assert!(
            err.as_deref()
                .is_some_and(|e| e.contains("WAL record 0 corrupt")),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Asserts that each of `slots` workers spilled to its own page
    /// file `<base>.<slot>`, byte-identical to slot 0's, that no worker
    /// wrote `<base>` itself, and that no file was versioned to
    /// `<base>.<slot>.e<N>`.
    fn assert_slot_files_identical(base: &Path, slots: usize) {
        let slot_file = |s: usize| {
            let mut path = base.as_os_str().to_owned();
            path.push(format!(".{s}"));
            PathBuf::from(path)
        };
        let read = |s: usize| {
            std::fs::read(slot_file(s)).unwrap_or_else(|e| panic!("slot {s}'s page file: {e}"))
        };
        let first = read(0);
        assert!(!first.is_empty(), "slot 0's page file is empty");
        for s in 1..slots {
            assert!(
                read(s) == first,
                "slot {s}'s page file differs from slot 0's"
            );
        }
        assert!(!base.exists(), "no worker writes the unnumbered path");
        let dir = base.parent().expect("a page file lives in a directory");
        let versions: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".e"))
            .collect();
        assert!(
            versions.is_empty(),
            "page files were versioned: {versions:?}"
        );
    }

    #[test]
    fn disk_native_updates_match_resident_serving() {
        let dir = ringjoin_testsupport::scratch_dir("sharded-disk-update");
        let path = dir.join("pages.rjp");
        let its = items(200, 61, 1000.0);
        let batch = vec![
            Mutation::Insert(Item::new(700, pt(-50.0, 1200.0))),
            Mutation::Delete(13),
            Mutation::Upsert(Item::new(20, pt(444.5, 91.25))),
        ];

        let resident = ShardedEngine::new(3).unwrap();
        resident.load("d", its.clone(), IndexKind::Rtree).unwrap();
        resident.update("d", batch.clone()).unwrap();
        let reference = resident.self_join("d", RcjAlgorithm::Auto, None).unwrap();

        let se = ShardedEngine::with_topology(TopologyConfig {
            shards: 3,
            on_disk: Some(path.clone()),
            buffer_pages: 8,
            ..TopologyConfig::default()
        })
        .unwrap();
        se.load("d", its, IndexKind::Rtree).unwrap();
        se.update("d", batch).unwrap();
        assert_slot_files_identical(&path, 3);
        let out = se.self_join("d", RcjAlgorithm::Auto, None).unwrap();
        assert_eq!(out.pairs, reference.pairs);
        assert_eq!(out.stats, reference.stats);
        // Again: the mutated pages keep serving deterministically.
        let again = se.self_join("d", RcjAlgorithm::Auto, None).unwrap();
        assert_eq!(again.pairs, reference.pairs);
        // A second LOAD, then a second batch, write through to every
        // slot's own file, in place.
        let more = items(180, 67, 1000.0);
        let batch = vec![
            Mutation::Delete(21),
            Mutation::Insert(Item::new(900, pt(300.5, 610.0))),
        ];
        for engine in [&resident, &se] {
            engine.load("e", more.clone(), IndexKind::Quadtree).unwrap();
        }
        assert_slot_files_identical(&path, 3);
        for engine in [&resident, &se] {
            engine.update("d", batch.clone()).unwrap();
        }
        assert_slot_files_identical(&path, 3);
        let reference = resident.join("e", "d", RcjAlgorithm::Auto, None).unwrap();
        let out = se.join("e", "d", RcjAlgorithm::Auto, None).unwrap();
        assert_eq!(out.pairs, reference.pairs);
        assert_eq!(out.stats, reference.stats);
        drop(se);
        drop(resident);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_replicas_share_one_warm_pool() {
        let ps = items(220, 91, 1100.0);
        let qs = items(220, 93, 1100.0);
        let se = ShardedEngine::new(4).unwrap();
        se.load("p", ps, IndexKind::Rtree).unwrap();
        se.load("q", qs, IndexKind::Rtree).unwrap();
        let (h0, f0, _, _) = se.pool_stats();
        assert_eq!(h0 + f0, 0, "loads alone must not touch the pool");

        let first = se.join("q", "p", RcjAlgorithm::Auto, None).unwrap();
        assert!(!first.pairs.is_empty());
        let (h1, f1, _, rate1) = se.pool_stats();
        assert!(f1 > 0, "a cold pool must fault");
        assert!(
            h1 > 0,
            "shards replaying the same inner tree must hit each other's pages"
        );
        assert!(rate1 > 0.0 && rate1 < 1.0);

        // Second identical join: the (unbounded) pool is fully warm, so
        // not a single new fault — the serving win in one assertion.
        let second = se.join("q", "p", RcjAlgorithm::Auto, None).unwrap();
        assert_eq!(second.pairs, first.pairs);
        let (h2, f2, _, rate2) = se.pool_stats();
        assert_eq!(f2, f1, "warm pool must not fault again");
        assert!(h2 > h1);
        assert!(rate2 > rate1);
    }

    #[test]
    fn disk_native_shards_spill_identical_slot_files_and_match_resident_serving() {
        let dir = ringjoin_testsupport::scratch_dir("sharded-disk");
        let path = dir.join("pages.rjp");
        let ps = items(240, 41, 1300.0);
        let qs = items(240, 43, 1300.0);
        // Resident reference: the byte-exact answer disk mode must hit.
        let resident = ShardedEngine::new(4).unwrap();
        resident.load("p", ps.clone(), IndexKind::Rtree).unwrap();
        resident.load("q", qs.clone(), IndexKind::Rtree).unwrap();
        let reference = resident.join("q", "p", RcjAlgorithm::Auto, None).unwrap();

        // Disk-native with a pool far smaller than the page space: the
        // joins must fault pages in from the shards' page files.
        let se = ShardedEngine::with_topology(TopologyConfig {
            shards: 4,
            on_disk: Some(path.clone()),
            buffer_pages: 8,
            ..TopologyConfig::default()
        })
        .unwrap();
        se.load("p", ps.clone(), IndexKind::Rtree).unwrap();
        se.load("q", qs.clone(), IndexKind::Rtree).unwrap();
        assert_slot_files_identical(&path, 4);
        let out = se.join("q", "p", RcjAlgorithm::Auto, None).unwrap();
        assert_eq!(out.pairs, reference.pairs);
        assert_eq!(out.stats, reference.stats);
        let (hits, faults, prefetch_hits, _) = se.pool_stats();
        assert!(faults > 0, "an 8-frame pool cannot hold the dataset");
        assert!(prefetch_hits <= hits, "prefetch hits are a subset of hits");

        // A second identical join stays byte-identical; the tight pool
        // keeps faulting instead of going fully warm.
        let again = se.join("q", "p", RcjAlgorithm::Auto, None).unwrap();
        assert_eq!(again.pairs, reference.pairs);
        let (_, faults2, _, _) = se.pool_stats();
        assert!(faults2 > faults, "the 8-frame pool must keep faulting");
        drop(se);
        drop(resident);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_disk_native_worker_buffers_at_most_its_budget_after_a_load() {
        let dir = ringjoin_testsupport::scratch_dir("sharded-worker-budget");
        let budget = 8;
        let mut worker = ShardWorker::new(BufferPool::new(budget), Some(dir.join("pages.rjp")));
        let everything = Rect::new(
            pt(f64::NEG_INFINITY, f64::NEG_INFINITY),
            pt(f64::INFINITY, f64::INFINITY),
        );
        worker
            .handle(&ShardRequest::Load {
                name: "d".into(),
                kind: IndexKind::Rtree,
                cell: everything,
                items: Arc::new(items(600, 71, 1000.0)),
            })
            .unwrap();
        let pager = worker.engine.pager();
        let pager = pager.borrow();
        assert!(
            pager.num_pages() as usize > budget,
            "the index outgrows the budget"
        );
        assert!(
            pager.pool().len() <= budget,
            "the pager buffers {} pages over a budget of {budget}",
            pager.pool().len()
        );
        drop(pager);
        drop(worker);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_refused_spill_leaves_no_dataset_and_no_pages_behind() {
        let dir = ringjoin_testsupport::scratch_dir("sharded-worker-refused");
        let path = dir.join("missing").join("pages.rjp");
        let mut worker = ShardWorker::new(BufferPool::new(64), Some(path));
        let everything = Rect::new(
            pt(f64::NEG_INFINITY, f64::NEG_INFINITY),
            pt(f64::INFINITY, f64::INFINITY),
        );
        for seed in 0..3 {
            let err = worker
                .handle(&ShardRequest::Load {
                    name: "d".into(),
                    kind: IndexKind::Rtree,
                    cell: everything,
                    items: Arc::new(items(3000, 80 + seed, 1000.0)),
                })
                .err()
                .unwrap_or_default();
            assert!(err.starts_with("spilling pages to "), "{err}");
            assert!(
                worker.engine.dataset("d").is_none(),
                "the refused load stayed"
            );
            assert_eq!(worker.engine.pager().borrow().num_pages(), 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_sized_topologies_are_rejected() {
        assert!(matches!(
            ShardedEngine::with_topology(TopologyConfig {
                shards: 0,
                ..TopologyConfig::default()
            }),
            Err(ServerError::InvalidShards)
        ));
        // Zero replicas is not reported as a zero shard count.
        let err = ShardedEngine::with_topology(TopologyConfig {
            shards: 2,
            replicas: 0,
            ..TopologyConfig::default()
        })
        .err()
        .map(|e| e.to_string());
        assert_eq!(
            err.as_deref(),
            Some("bad request: replicas must be at least 1 (got 0)")
        );
    }

    #[test]
    fn a_worker_list_of_the_wrong_length_is_refused_without_connecting() {
        // Nothing listens on port 1: a connection attempt would fail
        // with a different error.
        let err = ShardedEngine::with_topology(TopologyConfig {
            shards: 2,
            replicas: 2,
            workers: WorkerSpec::Remote(vec!["127.0.0.1:1".into(); 3]),
            ..TopologyConfig::default()
        })
        .err()
        .map(|e| e.to_string());
        assert_eq!(
            err.as_deref(),
            Some("bad request: worker list has 3 address(es), need shards x replicas = 4")
        );
    }

    #[test]
    fn pre_started_workers_refuse_coordinator_storage_without_connecting() {
        let provisioned = Arc::new(AtomicU64::new(0));
        let count = Arc::clone(&provisioned);
        let specs = [
            // Nothing listens on port 1: a connection attempt would fail
            // with a different error.
            WorkerSpec::Remote(vec!["127.0.0.1:1".into()]),
            WorkerSpec::Provision(Arc::new(move |_, _| {
                count.fetch_add(1, Ordering::SeqCst);
                Err("no worker".into())
            })),
        ];
        for workers in specs {
            for (on_disk, buffer_pages) in [(Some(PathBuf::from("pages.rjp")), 0), (None, 64)] {
                let err = ShardedEngine::with_topology(TopologyConfig {
                    workers: workers.clone(),
                    on_disk,
                    buffer_pages,
                    ..TopologyConfig::default()
                })
                .err()
                .map(|e| e.to_string());
                assert!(
                    err.as_deref().is_some_and(|e| e.contains("pre-started")
                        && e.contains("--on-disk FILE")
                        && e.contains("--buffer-pages N")),
                    "{workers:?}: {err:?}"
                );
            }
        }
        assert_eq!(
            provisioned.load(Ordering::SeqCst),
            0,
            "no worker was provisioned"
        );
    }

    #[test]
    fn disk_native_top_k_and_self_join_match_resident_serving() {
        let dir = ringjoin_testsupport::scratch_dir("sharded-disk-topk");
        let path = dir.join("pages.rjp");
        let its = items(230, 47, 1000.0);
        let resident = ShardedEngine::new(3).unwrap();
        resident
            .load("d", its.clone(), IndexKind::Quadtree)
            .unwrap();
        let self_ref = resident.self_join("d", RcjAlgorithm::Auto, None).unwrap();
        let topk_ref = resident.top_k_self("d", 9).unwrap();

        let se = ShardedEngine::with_topology(TopologyConfig {
            shards: 3,
            on_disk: Some(path),
            buffer_pages: 8,
            ..TopologyConfig::default()
        })
        .unwrap();
        se.load("d", its, IndexKind::Quadtree).unwrap();
        let out = se.self_join("d", RcjAlgorithm::Auto, None).unwrap();
        assert_eq!(out.pairs, self_ref.pairs);
        assert_eq!(out.stats, self_ref.stats);
        // A served top-k reads through the shards' 8-frame pool, within
        // the page budget and counted in the pool's hits and faults.
        let (hits, faults, _, _) = se.pool_stats();
        let topk = se.top_k_self("d", 9).unwrap();
        assert_eq!(topk.pairs, topk_ref.pairs);
        let (hits_after, faults_after, _, _) = se.pool_stats();
        assert!(
            hits_after + faults_after > hits + faults,
            "top-k bypassed the pool: {hits}+{faults} -> {hits_after}+{faults_after}"
        );
        drop(se);
        drop(resident);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explain_includes_the_sharding_postscript() {
        let se = ShardedEngine::new(2).unwrap();
        se.load("p", items(120, 31, 700.0), IndexKind::Rtree)
            .unwrap();
        se.load("q", items(120, 37, 700.0), IndexKind::Rtree)
            .unwrap();
        let text = se
            .explain("q", Some("p"), RcjAlgorithm::Auto, None)
            .unwrap();
        assert!(text.contains("RCJ join"), "{text}");
        assert!(text.contains("sharding: 2 shard(s)"), "{text}");
        let text = se.explain("q", None, RcjAlgorithm::Auto, Some(5)).unwrap();
        assert!(text.contains("self-join"), "{text}");
        assert!(text.contains("top-k"), "{text}");
    }

    #[test]
    fn top_k_byte_identity_survives_exact_diameter_ties() {
        // Two result pairs of identical diameter 1.0 that a 2-shard
        // median split separates, with the traversal discovering them
        // in the opposite order of their pair keys: byte-identity then
        // rests entirely on the canonical (diameter, key) tie order
        // shared by the single-engine stream and the sharded merge.
        let ps = vec![Item::new(1, pt(0.0, 0.0)), Item::new(0, pt(10.0, 0.0))];
        let qs = vec![Item::new(1, pt(1.0, 0.0)), Item::new(0, pt(11.0, 0.0))];
        let engine = unsharded(&ps, &qs, IndexKind::Rtree);
        let reference: Vec<RcjPair> = engine
            .query()
            .join("q", "p")
            .top_k(2)
            .plan()
            .unwrap()
            .stream()
            .collect();
        assert_eq!(reference.len(), 2);
        assert_eq!(reference[0].diameter(), reference[1].diameter());
        // Canonical order: ascending pair key among exact ties.
        assert!(reference[0].key() < reference[1].key());

        for shards in [1usize, 2, 4] {
            let se = ShardedEngine::new(shards).unwrap();
            se.load("p", ps.clone(), IndexKind::Rtree).unwrap();
            se.load("q", qs.clone(), IndexKind::Rtree).unwrap();
            let out = se.top_k("q", "p", 2).unwrap();
            assert_eq!(
                out.pairs, reference,
                "tie order diverged at {shards} shards"
            );
        }
    }

    #[test]
    fn top_k_merge_breaks_ties_deterministically() {
        let mk = |pid: u64, qid: u64, d: f64| {
            RcjPair::new(Item::new(pid, pt(0.0, 0.0)), Item::new(qid, pt(d, 0.0)))
        };
        let a = vec![mk(1, 1, 1.0), mk(1, 2, 2.0)];
        let b = vec![mk(0, 9, 1.0), mk(2, 2, 2.0)];
        let merged = merge_top_k(vec![a.into_iter(), b.into_iter()], 3);
        let keys: Vec<_> = ringjoin_core::pair_keys(&merged);
        assert_eq!(merged.len(), 3);
        // Equal diameters order by pair key: (0,9) before (1,1).
        assert_eq!(merged[0].key(), (0, 9));
        assert_eq!(merged[1].key(), (1, 1));
        assert!(keys.contains(&(1, 2)) || keys.contains(&(2, 2)));
    }

    #[test]
    fn top_k_merge_ranks_near_ties_by_squared_diameter() {
        // Squared diameters 2^52 + 1 and 2^52: both diameters round to
        // 2^26, so only the squares order the two pairs.
        let a = RcjPair::new(
            Item::new(0, pt(1e9, 0.0)),
            Item::new(0, pt(1e9 + 67_108_864.0, 1.0)),
        );
        let b = RcjPair::new(
            Item::new(1, pt(0.0, 0.0)),
            Item::new(1, pt(67_108_864.0, 0.0)),
        );
        assert_eq!(a.diameter(), b.diameter());
        assert!(a.diameter_sq() > b.diameter_sq());
        let merged = merge_top_k(vec![vec![a].into_iter(), vec![b].into_iter()], 2);
        assert_eq!(merged, vec![b, a]);
    }
}
