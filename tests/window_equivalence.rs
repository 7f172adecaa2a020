//! Windowed joins against the full join: a query
//! [`within`](ringjoin::QueryBuilder::within) a [`RingBounds`] must
//! answer exactly the full join's pairs that
//! [`RingBounds::admits`] accepts, in the full join's order, while
//! doing no more work than the unbounded join over the outer leaves the
//! window reaches.
//!
//! Windows are random, and the cases that stress rounding are drawn on
//! purpose: a `max_diameter` equal to the exact diameter of a pair of
//! the full join (the cut's tie), a window edge through a data point,
//! and infinite corners (up to the everything-window). Every case runs
//! INJ, BIJ and OBJ, join and self-join, on the sequential and a
//! 4-thread executor, and through a [`ShardedEngine`] at 1, 2 and 4
//! shards, whose merged counters must equal the engine's.

use proptest::prelude::*;
use ringjoin::{
    pt, sort_by_diameter, Engine, Executor, IndexKind, Item, RcjAlgorithm, RcjPair, RcjStats, Rect,
    RingBounds, ShardedEngine,
};

const REGION: f64 = 1000.0;
const KINDS: [IndexKind; 2] = [IndexKind::Rtree, IndexKind::Quadtree];
const ALGOS: [RcjAlgorithm; 3] = [RcjAlgorithm::Inj, RcjAlgorithm::Bij, RcjAlgorithm::Obj];
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn to_items(v: &[(f64, f64)]) -> Vec<Item> {
    v.iter()
        .enumerate()
        .map(|(i, &(x, y))| Item::new(i as u64, pt(x, y)))
        .collect()
}

/// Uniform points, or a few tight clusters (dense leaves, near ties).
fn any_pts(max: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop_oneof![
        proptest::collection::vec((0.0..REGION, 0.0..REGION), 4..max),
        (
            proptest::collection::vec((100.0..900.0f64, 100.0..900.0f64), 1..4),
            proptest::collection::vec((0usize..4, -40.0..40.0f64, -40.0..40.0f64), 4..max),
        )
            .prop_map(|(centers, offsets)| {
                offsets
                    .into_iter()
                    .map(|(c, dx, dy)| {
                        let (cx, cy) = centers[c % centers.len()];
                        (cx + dx, cy + dy)
                    })
                    .collect()
            }),
    ]
}

/// The data-independent part of a window; [`window`] places it.
#[derive(Clone, Debug)]
struct RawWindow {
    /// 0: random corners; 1: an edge through a data point; 2: infinite
    /// corners.
    shape: u8,
    a: (f64, f64),
    b: (f64, f64),
    /// Which data point, pair, edge or infinite side the shape uses.
    pick: usize,
    /// 0: random; 1: the exact diameter of a full-join pair; 2: small.
    maxd_kind: u8,
    maxd: f64,
}

fn raw_window() -> impl Strategy<Value = RawWindow> {
    (
        0u8..3,
        (-100.0..REGION + 100.0, -100.0..REGION + 100.0),
        (-100.0..REGION + 100.0, -100.0..REGION + 100.0),
        any::<usize>(),
        0u8..3,
        0.0..400.0f64,
    )
        .prop_map(|(shape, a, b, pick, maxd_kind, maxd)| RawWindow {
            shape,
            a,
            b,
            pick,
            maxd_kind,
            maxd,
        })
}

/// Places `raw` over the data: `points` for an edge through a point,
/// `pairs` (the full join) for an exact diameter.
fn window(raw: &RawWindow, points: &[Item], pairs: &[RcjPair]) -> RingBounds {
    let (inf, ninf) = (f64::INFINITY, f64::NEG_INFINITY);
    let bounds = match raw.shape {
        0 => Rect::new(pt(raw.a.0, raw.a.1), pt(raw.b.0, raw.b.1)),
        1 => {
            let at = points[raw.pick % points.len()].point;
            let (w, h) = ((raw.b.0 - raw.a.0).abs(), (raw.b.1 - raw.a.1).abs());
            match raw.pick / points.len() % 4 {
                0 => Rect::new(pt(at.x, at.y - h / 2.0), pt(at.x + w, at.y + h / 2.0)),
                1 => Rect::new(pt(at.x - w, at.y - h / 2.0), pt(at.x, at.y + h / 2.0)),
                2 => Rect::new(pt(at.x - w / 2.0, at.y), pt(at.x + w / 2.0, at.y + h)),
                _ => Rect::new(pt(at.x - w / 2.0, at.y - h), pt(at.x + w / 2.0, at.y)),
            }
        }
        _ => match raw.pick % 4 {
            0 => Rect::new(pt(ninf, ninf), pt(inf, inf)),
            1 => Rect::new(pt(ninf, raw.a.1), pt(raw.a.0, raw.b.1)),
            2 => Rect::new(pt(raw.a.0, raw.a.1), pt(inf, inf)),
            _ => Rect::new(pt(raw.a.0, ninf), pt(raw.b.0, inf)),
        },
    };
    let max_diameter = match raw.maxd_kind {
        1 if !pairs.is_empty() => pairs[raw.pick % pairs.len()].diameter(),
        2 => raw.maxd / 16.0,
        _ => raw.maxd,
    };
    RingBounds {
        bounds,
        max_diameter,
    }
}

/// The full join filtered by the window: the answer every windowed
/// query must give.
fn filtered(full: &[RcjPair], rb: RingBounds) -> Vec<RcjPair> {
    full.iter().copied().filter(|pr| rb.admits(pr)).collect()
}

/// The counters of a windowed run may not exceed the unbounded run's.
fn at_most(bounded: RcjStats, unbounded: RcjStats) -> bool {
    bounded.candidate_pairs <= unbounded.candidate_pairs
        && bounded.result_pairs <= unbounded.result_pairs
        && bounded.filter_heap_pops <= unbounded.filter_heap_pops
        && bounded.filter_node_reads <= unbounded.filter_node_reads
        && bounded.verify_node_visits <= unbounded.verify_node_visits
}

/// Checks one windowed query of `engine` (outer `outer`, inner `inner`,
/// or a self-join of `outer`) against its full join, on both executors,
/// against the unbounded run over the leaves the window reaches, and
/// with top-k inside the window. Returns the bounded counters.
fn check_engine(
    engine: &Engine,
    outer: &str,
    inner: Option<&str>,
    algo: RcjAlgorithm,
    full: &[RcjPair],
    rb: RingBounds,
    label: &str,
) -> Result<RcjStats, TestCaseError> {
    let query = || {
        let q = engine.query();
        match inner {
            Some(inner) => q.join(outer, inner),
            None => q.self_join(outer),
        }
        .algorithm(algo)
    };
    let expect = filtered(full, rb);
    let seq = query()
        .executor(Executor::Sequential)
        .within(rb)
        .collect()
        .unwrap();
    prop_assert_eq!(&seq.pairs, &expect, "{} sequential {:?}", label, rb);
    prop_assert_eq!(seq.stats.result_pairs, expect.len() as u64, "{}", label);
    let par = query().threads(4).within(rb).collect().unwrap();
    prop_assert_eq!(&par.pairs, &expect, "{} 4 threads {:?}", label, rb);
    prop_assert_eq!(par.stats, seq.stats, "{} 4-thread counters", label);

    let reach = rb.inflated();
    let leaves = engine.leaf_regions(outer).unwrap();
    let reached: Vec<usize> = (0..leaves.len())
        .filter(|&i| leaves[i].intersects(reach))
        .collect();
    let mut unbounded_pairs: Vec<(usize, RcjPair)> = Vec::new();
    let unbounded = query()
        .plan()
        .unwrap()
        .run_leaves(&reached, &mut unbounded_pairs);
    prop_assert!(
        at_most(seq.stats, unbounded),
        "{}: bounded {:?} exceeds unbounded {:?} over the same {} leaves",
        label,
        seq.stats,
        unbounded,
        reached.len()
    );

    let mut ranked = expect;
    sort_by_diameter(&mut ranked);
    let k = 1 + ranked.len() / 2;
    let top = query().top_k(k).within(rb).collect().unwrap();
    prop_assert_eq!(
        &top.pairs[..],
        &ranked[..k.min(ranked.len())],
        "{} top-{}",
        label,
        k
    );
    Ok(seq.stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Join and self-join within random windows: the engine (both
    /// executors, all three algorithms) and the sharded engine at 1, 2
    /// and 4 shards answer the full join filtered by `admits`, byte for
    /// byte, and the shards' merged counters equal the engine's.
    #[test]
    fn windowed_joins_equal_the_filtered_full_join(
        pv in any_pts(120),
        qv in any_pts(120),
        kind_idx in 0usize..2,
        raws in proptest::collection::vec(raw_window(), 3),
    ) {
        let kind = KINDS[kind_idx];
        let (p, q) = (to_items(&pv), to_items(&qv));
        let mut engine = Engine::new();
        engine.load("p", p.clone()).index(kind);
        engine.load("q", q.clone()).index(kind);
        let shards: Vec<ShardedEngine> = SHARD_COUNTS
            .iter()
            .map(|&n| {
                let se = ShardedEngine::new(n).unwrap();
                se.load("p", p.clone(), kind).unwrap();
                se.load("q", q.clone(), kind).unwrap();
                se
            })
            .collect();

        for algo in ALGOS {
            let full_join = engine.query().join("q", "p").algorithm(algo).collect().unwrap().pairs;
            let full_self = engine.query().self_join("p").algorithm(algo).collect().unwrap().pairs;
            for raw in &raws {
                let rb = window(raw, &q, &full_join);
                let label = format!("{kind:?} {} join", algo.name());
                let stats = check_engine(&engine, "q", Some("p"), algo, &full_join, rb, &label)?;
                for se in &shards {
                    let out = se.join("q", "p", algo, Some(rb)).unwrap();
                    let n = se.shard_count();
                    prop_assert_eq!(&out.pairs, &filtered(&full_join, rb), "{} at {} shards", label, n);
                    prop_assert_eq!(out.stats, stats, "{} counters at {} shards", label, n);
                }

                let rb = window(raw, &p, &full_self);
                let label = format!("{kind:?} {} self-join", algo.name());
                let stats = check_engine(&engine, "p", None, algo, &full_self, rb, &label)?;
                for se in &shards {
                    let out = se.self_join("p", algo, Some(rb)).unwrap();
                    let n = se.shard_count();
                    prop_assert_eq!(&out.pairs, &filtered(&full_self, rb), "{} at {} shards", label, n);
                    prop_assert_eq!(out.stats, stats, "{} counters at {} shards", label, n);
                }
            }
        }
    }
}
