//! In-process references: a single resident `Engine` per check, run
//! through the same public calls the shards make, so every served
//! answer can be compared byte for byte with the wire encoding of an
//! engine's answer.

use ringjoin_core::{Engine, Executor, IndexKind, RcjAlgorithm, RcjPair, RcjStats};
use ringjoin_geom::{Item, Rect};
use ringjoin_server::proto::{encode_pairs, Request};
use ringjoin_server::{Mutation, RingBounds, SpacePartition};
use ringjoin_storage::BufferPool;

/// Verified run through the engine's pager — the reference answer.
pub const VERIFIED: Reads<'static> = Reads::Engine {
    skip_verification: false,
};

/// A sequential resident engine holding `q` and `p`.
pub fn engine(q: &[Item], p: &[Item]) -> Engine {
    let mut engine = Engine::new();
    engine.set_default_executor(Executor::Sequential);
    engine.load("q", q.to_vec()).index(IndexKind::Rtree);
    engine.load("p", p.to_vec()).index(IndexKind::Rtree);
    engine
}

/// Applies one mutation batch to `p` through `Engine::update`,
/// returning the dataset's new epoch.
pub fn apply(engine: &mut Engine, batch: &[Mutation]) -> Result<u64, String> {
    let mut update = engine.update("p");
    for op in batch {
        update = match *op {
            Mutation::Insert(it) => update.insert([it]),
            Mutation::Delete(id) => update.delete([id]),
            Mutation::Upsert(it) => update.upsert([it]),
        };
    }
    update
        .apply()
        .map(|h| h.epoch())
        .map_err(|e| format!("engine update failed: {e}"))
}

/// The wire request carrying a homogeneous batch.
pub fn write_request(batch: &[Mutation]) -> Request {
    let name = "p".to_string();
    match batch.first() {
        Some(Mutation::Delete(_)) => Request::Delete {
            name,
            ids: batch
                .iter()
                .map(|m| match m {
                    Mutation::Delete(id) => *id,
                    other => panic!("mixed batch: {other:?}"),
                })
                .collect(),
        },
        Some(Mutation::Upsert(_)) => Request::Upsert {
            name,
            items: batch.iter().map(item_of).collect(),
        },
        _ => Request::Insert {
            name,
            items: batch.iter().map(item_of).collect(),
        },
    }
}

fn item_of(m: &Mutation) -> Item {
    match m {
        Mutation::Insert(it) | Mutation::Upsert(it) => *it,
        Mutation::Delete(id) => panic!("mixed batch: delete of {id}"),
    }
}

/// The durable-log record the coordinator writes for a batch — the
/// same text the server's WAL stores (`UPDATE epoch n name` plus one
/// `+`/`-`/`^` row per op), so the WAL rung appends the bytes a served
/// batch costs.
pub fn wal_record(target_epoch: u64, batch: &[Mutation]) -> Vec<u8> {
    use std::fmt::Write;
    let mut out = format!("UPDATE {target_epoch} {} p\n", batch.len());
    for op in batch {
        match op {
            Mutation::Insert(it) => writeln!(out, "+ {} {} {}", it.id, it.point.x, it.point.y),
            Mutation::Delete(id) => writeln!(out, "- {id}"),
            Mutation::Upsert(it) => writeln!(out, "^ {} {} {}", it.id, it.point.x, it.point.y),
        }
        .expect("writing to a String cannot fail");
    }
    out.into_bytes()
}

/// The outer leaf groups each shard owns, as the coordinator assigns
/// them: the space partition of `q`'s points, and a leaf belongs to the
/// cell holding its region's centre.
pub fn shard_positions(q: &[Item], leaves: &[Rect], shards: usize) -> Vec<Vec<usize>> {
    let points: Vec<_> = q.iter().map(|it| it.point).collect();
    let partition = SpacePartition::build(&points, shards);
    (0..shards)
        .map(|cell| {
            let rect = partition.cell(cell);
            (0..leaves.len())
                .filter(|&i| rect.contains_point_half_open(leaves[i].center()))
                .collect()
        })
        .collect()
}

/// Positions among `positions` whose leaf region can hold a pair the
/// window admits (all of them without a window).
pub fn routed(positions: &[usize], leaves: &[Rect], bounds: Option<&RingBounds>) -> Vec<usize> {
    match bounds {
        None => positions.to_vec(),
        Some(rb) => {
            let inflated = rb.inflated();
            positions
                .iter()
                .copied()
                .filter(|&i| leaves[i].intersects(inflated))
                .collect()
        }
    }
}

/// One leaf-subset run of `JOIN q p` (algo=auto).
pub struct LeafRun {
    /// Pairs the window admits, in leaf order.
    pub pairs: Vec<RcjPair>,
    /// Pairs computed over the routed leaves, before the window filter.
    pub computed: usize,
    /// The run's counters.
    pub stats: RcjStats,
}

/// How a leaf run reads its pages.
#[derive(Clone, Copy)]
pub enum Reads<'a> {
    /// Through the engine's own pager; `true` skips verification.
    Engine { skip_verification: bool },
    /// Through a shared buffer pool, as a served shard reads.
    Pool(&'a BufferPool),
}

/// Runs `JOIN q p` over `positions` and applies the window, exactly as
/// a shard does.
pub fn leaf_join(
    engine: &Engine,
    positions: &[usize],
    bounds: Option<&RingBounds>,
    reads: Reads,
) -> LeafRun {
    let mut query = engine.query().join("q", "p").algorithm(RcjAlgorithm::Auto);
    if let Reads::Engine {
        skip_verification: true,
    } = reads
    {
        query = query.skip_verification();
    }
    let plan = query.plan().expect("q and p are loaded");
    let mut tagged: Vec<(usize, RcjPair)> = Vec::new();
    let stats = match reads {
        Reads::Engine { .. } => plan.run_leaves(positions, &mut tagged),
        Reads::Pool(pool) => plan.run_leaves_pooled(positions, pool, &mut tagged),
    };
    tagged.sort_by_key(|(leaf, _)| *leaf);
    let computed = tagged.len();
    let pairs = tagged
        .into_iter()
        .map(|(_, pr)| pr)
        .filter(|pr| bounds.is_none_or(|rb| rb.admits(pr)))
        .collect();
    LeafRun {
        pairs,
        computed,
        stats,
    }
}

/// The full `JOIN q p` over every outer leaf, in leaf order.
pub fn full_join(engine: &Engine) -> Vec<RcjPair> {
    let leaves = engine.leaf_regions("q").expect("q is loaded");
    let all: Vec<usize> = (0..leaves.len()).collect();
    leaf_join(engine, &all, None, VERIFIED).pairs
}

/// `TOPK q p k` on the engine: the `k` most compact pairs.
pub fn top_k(engine: &Engine, k: usize) -> Vec<RcjPair> {
    engine
        .query()
        .join("q", "p")
        .top_k(k)
        .collect()
        .expect("q and p are loaded")
        .pairs
}

/// Wire encoding of an expected answer, for byte comparison.
pub fn body(pairs: &[RcjPair]) -> String {
    encode_pairs(pairs)
}
