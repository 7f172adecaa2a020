//! Disk-native **byte-identity**: an engine whose page space lives in a
//! file-backed page store — with the buffer pool's frames as the only
//! RAM residency — must answer join, self-join and top-k queries with
//! exactly the output of the all-in-memory engine over the same data:
//! same pairs, same order, same [`RcjStats`], across both index kinds,
//! sequential and parallel executors, and sharded serving.
//!
//! The residency *accounting* is checked separately: with a buffer
//! budget far under the dataset's page count, `read_faults` must be
//! positive and `read_hits + read_faults` must equal `logical_reads` —
//! the paper's I/O model tracks the budget, not RAM size.

use proptest::prelude::*;
use ringjoin::{
    pt, Engine, Executor, IndexKind, Item, RcjAlgorithm, RcjPair, ShardedEngine, TopologyConfig,
};
use std::path::PathBuf;

const REGION: f64 = 1000.0;
const KINDS: [IndexKind; 2] = [IndexKind::Rtree, IndexKind::Quadtree];
const THREADS: [usize; 2] = [1, 4];
const SHARDS: [usize; 2] = [1, 4];

/// A scratch directory unique to this process and thread, so parallel
/// proptest workers never collide on a page file.
fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ringjoin-disk-eq-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn to_items(v: &[(f64, f64)]) -> Vec<Item> {
    v.iter()
        .enumerate()
        .map(|(i, &(x, y))| Item::new(i as u64, pt(x, y)))
        .collect()
}

/// Uniform points over the region.
fn uniform_pts(max: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((0.0..REGION, 0.0..REGION), 4..max)
}

/// Clustered points: a few tight centers.
fn clustered_pts(max: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    (
        proptest::collection::vec((100.0..900.0f64, 100.0..900.0f64), 1..4),
        proptest::collection::vec((0usize..4, -30.0..30.0f64, -30.0..30.0f64), 4..max),
    )
        .prop_map(|(centers, offsets)| {
            offsets
                .into_iter()
                .map(|(c, dx, dy)| {
                    let (cx, cy) = centers[c % centers.len()];
                    (
                        (cx + dx).clamp(0.0, REGION - 1e-9),
                        (cy + dy).clamp(0.0, REGION - 1e-9),
                    )
                })
                .collect()
        })
}

fn any_pts(max: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop_oneof![uniform_pts(max), clustered_pts(max)]
}

/// Builds a two-dataset engine, optionally spilled to a page file with
/// a deliberately tight buffer budget (the disk-native configuration
/// under test).
fn build_pair(p: &[Item], q: &[Item], kind: IndexKind, on_disk: Option<PathBuf>) -> Engine {
    let mut engine = Engine::new();
    engine.load("p", p.to_vec()).index(kind);
    engine.load("q", q.to_vec()).index(kind);
    if let Some(path) = on_disk {
        engine.pager().borrow_mut().spill_to(path).unwrap();
        engine.set_buffer_pages(8);
    }
    engine
}

/// Builds a one-dataset engine the same way for self-joins.
fn build_self(items: &[Item], kind: IndexKind, on_disk: Option<PathBuf>) -> Engine {
    let mut engine = Engine::new();
    engine.load("input", items.to_vec()).index(kind);
    if let Some(path) = on_disk {
        engine.pager().borrow_mut().spill_to(path).unwrap();
        engine.set_buffer_pages(8);
    }
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Join: pairs, order and stats byte-identical between the resident
    /// and the disk-native engine, across both index kinds and both
    /// executors.
    #[test]
    fn disk_join_is_byte_identical_to_memory(
        pv in any_pts(60),
        qv in any_pts(60),
        kind_idx in 0usize..2,
    ) {
        let kind = KINDS[kind_idx];
        let (p, q) = (to_items(&pv), to_items(&qv));
        let dir = scratch_dir();
        let memory = build_pair(&p, &q, kind, None);
        for threads in THREADS {
            let reference = memory
                .query()
                .join("q", "p")
                .executor(Executor::threads(threads))
                .collect()
                .unwrap();
            let disk = build_pair(&p, &q, kind, Some(dir.join(format!("join-{threads}.rjp"))));
            let out = disk
                .query()
                .join("q", "p")
                .executor(Executor::threads(threads))
                .collect()
                .unwrap();
            prop_assert_eq!(
                &out.pairs, &reference.pairs,
                "disk join diverged ({:?}, {} thread(s))", kind, threads
            );
            prop_assert_eq!(
                out.stats, reference.stats,
                "disk join stats diverged ({:?}, {} thread(s))", kind, threads
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Self-join and top-k through the disk-native engine match the
    /// resident answers exactly (top-k streams bypass the pool — the
    /// pager reads the page file directly — so they too must agree).
    #[test]
    fn disk_self_join_and_top_k_match_memory(
        pv in any_pts(60),
        kind_idx in 0usize..2,
    ) {
        let kind = KINDS[kind_idx];
        let items = to_items(&pv);
        let dir = scratch_dir();
        let memory = build_self(&items, kind, None);
        let disk = build_self(&items, kind, Some(dir.join("self.rjp")));
        for threads in THREADS {
            let reference = memory
                .query()
                .self_join("input")
                .executor(Executor::threads(threads))
                .collect()
                .unwrap();
            let out = disk
                .query()
                .self_join("input")
                .executor(Executor::threads(threads))
                .collect()
                .unwrap();
            prop_assert_eq!(
                &out.pairs, &reference.pairs,
                "disk self-join diverged ({:?}, {} thread(s))", kind, threads
            );
            prop_assert_eq!(out.stats, reference.stats);
        }
        let k = 8usize;
        let ref_top: Vec<RcjPair> = memory
            .query()
            .self_join("input")
            .top_k(k)
            .plan()
            .unwrap()
            .stream()
            .collect();
        let disk_top: Vec<RcjPair> = disk
            .query()
            .self_join("input")
            .top_k(k)
            .plan()
            .unwrap()
            .stream()
            .collect();
        prop_assert_eq!(disk_top, ref_top, "disk top-k diverged ({:?})", kind);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Disk-native *sharded* serving — every shard spilled to a page
    /// file of its own behind one shared tight pool — still reproduces
    /// the single resident engine byte for byte at 1 and 4 shards.
    #[test]
    fn sharded_disk_serving_is_byte_identical_to_memory(
        pv in any_pts(50),
        qv in any_pts(50),
        kind_idx in 0usize..2,
    ) {
        let kind = KINDS[kind_idx];
        let (p, q) = (to_items(&pv), to_items(&qv));
        let memory = build_pair(&p, &q, kind, None);
        let reference = memory.query().join("q", "p").collect().unwrap();
        let dir = scratch_dir();
        for shards in SHARDS {
            let path = dir.join(format!("shard-{shards}.rjp"));
            let se = ShardedEngine::with_topology(TopologyConfig {
                shards,
                on_disk: Some(path),
                buffer_pages: 8,
                ..TopologyConfig::default()
            })
            .unwrap();
            se.load("p", p.clone(), kind).unwrap();
            se.load("q", q.clone(), kind).unwrap();
            let out = se.join("q", "p", RcjAlgorithm::Auto, None).unwrap();
            prop_assert_eq!(
                &out.pairs, &reference.pairs,
                "sharded disk join diverged ({:?}, {} shard(s))", kind, shards
            );
            prop_assert_eq!(out.stats, reference.stats);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The residency accounting under a budget several times smaller than
/// the dataset: the join completes, faults are positive, and the
/// hit/fault split partitions the logical reads exactly — with
/// prefetch hits a subset of the hits.
#[test]
fn out_of_core_budget_faults_without_breaking_the_accounting() {
    let pts: Vec<(f64, f64)> = (0..1500)
        .map(|i| {
            let a = (i as f64 * 0.618_033_988_749) % 1.0;
            let b = (i as f64 * 0.754_877_666_247) % 1.0;
            (a * REGION, b * REGION)
        })
        .collect();
    let items = to_items(&pts);
    let dir = scratch_dir();
    for kind in KINDS {
        let mut engine = Engine::new();
        let pages = engine
            .load("input", items.clone())
            .index(kind)
            .summary()
            .pages as usize;
        let path = dir.join(format!("ooc-{}.rjp", kind.name()));
        engine.pager().borrow_mut().spill_to(path).unwrap();
        // A quarter of the dataset's pages: the pool cannot go fully
        // warm, so the join must keep faulting pages in from the file.
        engine.set_buffer_pages((pages / 4).max(1));
        for threads in THREADS {
            engine.set_buffer_pages((pages / 4).max(1)); // also resets stats
            let out = engine
                .query()
                .self_join("input")
                .executor(Executor::threads(threads))
                .collect()
                .unwrap();
            assert!(out.stats.result_pairs > 0);
            let io = engine.pager().borrow().stats();
            assert!(
                io.read_faults > 0,
                "{kind:?}/{threads}t: a quarter-size budget must fault"
            );
            assert_eq!(
                io.read_hits + io.read_faults,
                io.logical_reads,
                "{kind:?}/{threads}t: hits + faults must partition the logical reads"
            );
            assert!(
                io.prefetch_hits <= io.read_hits,
                "{kind:?}/{threads}t: prefetch hits are a subset of hits"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
