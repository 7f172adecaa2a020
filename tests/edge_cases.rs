//! Edge-case integration tests: degenerate geometry, pathological
//! inputs, and ablation claims that deserve assertions rather than just
//! bench numbers.

use ringjoin::quadtree::QuadTree;
use ringjoin::{
    bulk_load, pair_keys, pt, rcj_brute_self, rcj_join, rcj_self_join, rcj_self_stream_by_diameter,
    rcj_stream_by_diameter, sort_by_diameter, uniform, Executor, Item, MemDisk, OuterOrder, Pager,
    RcjIndex, RcjOptions, RcjPair, Rect,
};

#[test]
fn colocated_self_join_is_complete_within_the_group() {
    // Five buildings at one location plus two elsewhere: every pair of
    // co-located buildings has a radius-zero circle nothing can invade,
    // so all C(5,2) = 10 pairs qualify (strict-interior semantics).
    let mut items: Vec<Item> = (0..5).map(|i| Item::new(i, pt(100.0, 100.0))).collect();
    items.push(Item::new(10, pt(500.0, 500.0)));
    items.push(Item::new(11, pt(900.0, 100.0)));

    let expect = pair_keys(&rcj_brute_self(&items));
    let tree = bulk_load(Pager::new(MemDisk::new(1024), 16).into_shared(), items);
    let out = rcj_self_join(&tree, &RcjOptions::default());
    assert_eq!(pair_keys(&out.pairs), expect);
    let colocated = out
        .pairs
        .iter()
        .filter(|p| p.p.id < 5 && p.q.id < 5)
        .count();
    assert_eq!(colocated, 10);
}

#[test]
fn collinear_points_chain() {
    // Points on a line: only consecutive ones pair (any skipped point is
    // strictly inside the longer circle).
    let ps: Vec<Item> = (0..10)
        .map(|i| Item::new(i, pt(i as f64 * 10.0, 0.0)))
        .collect();
    let qs: Vec<Item> = (0..10)
        .map(|i| Item::new(i, pt(i as f64 * 10.0 + 5.0, 0.0)))
        .collect();
    let pager = Pager::new(MemDisk::new(1024), 32).into_shared();
    let tp = bulk_load(pager.clone(), ps.clone());
    let tq = bulk_load(pager.clone(), qs.clone());
    let out = rcj_join(&tq, &tp, &RcjOptions::default());
    // Each q at x = 10i + 5 pairs exactly with p_i (left neighbour at
    // distance 5) and p_{i+1} (right neighbour at distance 5).
    let keys = pair_keys(&out.pairs);
    for (i, q) in qs.iter().enumerate() {
        assert!(keys.contains(&(i as u64, q.id)), "left neighbour of q{i}");
        if i + 1 < ps.len() {
            assert!(
                keys.contains(&((i + 1) as u64, q.id)),
                "right neighbour of q{i}"
            );
        }
    }
    assert_eq!(keys.len(), 2 * 10 - 1); // q9 has no right neighbour
}

#[test]
fn identical_datasets_bichromatic_join() {
    // P == Q coordinate-wise (distinct id spaces): every point is
    // "mirrored" at distance zero, and those zero-radius circles are
    // unbeatable -> the identity pairing is always in the result.
    let items = uniform(300, 5);
    let pager = Pager::new(MemDisk::new(1024), 64).into_shared();
    let tp = bulk_load(pager.clone(), items.clone());
    let tq = bulk_load(pager.clone(), items.clone());
    let out = rcj_join(&tq, &tp, &RcjOptions::default());
    let keys: std::collections::HashSet<_> = pair_keys(&out.pairs).into_iter().collect();
    for it in &items {
        assert!(
            keys.contains(&(it.id, it.id)),
            "identity pair for {}",
            it.id
        );
    }
}

#[test]
fn shuffled_order_costs_more_io_than_depth_first() {
    // Section 3.4's claim as an assertion: destroying leaf-order
    // locality increases page faults (with the paper's 1% buffer).
    let p_items = uniform(20_000, 71);
    let q_items = uniform(20_000, 72);
    let pager = Pager::new(MemDisk::new(1024), usize::MAX / 2).into_shared();
    let tp = bulk_load(pager.clone(), p_items);
    let tq = bulk_load(pager.clone(), q_items);
    let buffer = (((tp.node_pages() + tq.node_pages()) as f64 * 0.01).ceil() as usize).max(1);

    let mut faults = Vec::new();
    for order in [OuterOrder::DepthFirst, OuterOrder::Shuffled(1234)] {
        {
            let mut pg = pager.borrow_mut();
            pg.set_buffer_capacity(buffer);
            pg.clear_buffer();
            pg.reset_stats();
        }
        // Pinned to the sequential executor: Section 3.4's claim is
        // about locality in the *one shared* LRU buffer. (Per-worker
        // buffers in parallel mode have their own, smaller histories,
        // and results are executor-independent anyway.)
        let out = rcj_join(
            &tq,
            &tp,
            &RcjOptions {
                outer_order: order,
                executor: Executor::Sequential,
                ..Default::default()
            },
        );
        assert!(!out.pairs.is_empty());
        faults.push(pager.borrow().stats().read_faults);
    }
    // The margin is modest at this scale (most I/O is filter probes into
    // T_P, which are query-local regardless of outer order), but the
    // direction must hold.
    assert!(
        faults[1] as f64 > faults[0] as f64 * 1.05,
        "shuffled order should fault measurably more: DF {} vs shuffled {}",
        faults[0],
        faults[1]
    );
}

#[test]
fn extreme_coordinates_do_not_break_predicates() {
    // Very large but finite coordinates.
    let ps = vec![Item::new(0, pt(1e12, 1e12)), Item::new(1, pt(-1e12, 1e12))];
    let qs = vec![
        Item::new(0, pt(0.0, -1e12)),
        Item::new(1, pt(1e12 + 1.0, 1e12)),
    ];
    let pager = Pager::new(MemDisk::new(1024), 16).into_shared();
    let tp = bulk_load(pager.clone(), ps.clone());
    let tq = bulk_load(pager.clone(), qs.clone());
    let out = rcj_join(&tq, &tp, &RcjOptions::default());
    let expect = pair_keys(&ringjoin::rcj_brute(&ps, &qs));
    assert_eq!(pair_keys(&out.pairs), expect);
}

#[test]
fn one_sided_giant_input() {
    // 1 point vs 5000: the single p pairs with the q's on "its side" of
    // the cloud — exactness against brute force either way around.
    let ps = vec![Item::new(0, pt(5_000.0, 5_000.0))];
    let qs = uniform(5_000, 91);
    let pager = Pager::new(MemDisk::new(1024), 128).into_shared();
    let tp = bulk_load(pager.clone(), ps.clone());
    let tq = bulk_load(pager.clone(), qs.clone());
    let out = rcj_join(&tq, &tp, &RcjOptions::default());
    let expect = pair_keys(&ringjoin::rcj_brute(&ps, &qs));
    assert_eq!(pair_keys(&out.pairs), expect);
    assert!(!out.pairs.is_empty());
    // And flipped.
    let out2 = rcj_join(&tp, &tq, &RcjOptions::default());
    assert_eq!(out2.pairs.len(), out.pairs.len());
}

#[test]
fn grid_data_with_massive_cocircularity() {
    // Integer grids put four points on many circles — the strict
    // interior semantics must keep all algorithms in agreement.
    let ps: Vec<Item> = (0..100)
        .map(|i| Item::new(i, pt((i % 10) as f64, (i / 10) as f64)))
        .collect();
    let qs: Vec<Item> = (0..100)
        .map(|i| Item::new(i, pt((i % 10) as f64 + 0.5, (i / 10) as f64 + 0.5)))
        .collect();
    let expect = pair_keys(&ringjoin::rcj_brute(&ps, &qs));
    let pager = Pager::new(MemDisk::new(1024), 64).into_shared();
    let tp = bulk_load(pager.clone(), ps.clone());
    let tq = bulk_load(pager.clone(), qs);
    for algo in [
        ringjoin::RcjAlgorithm::Inj,
        ringjoin::RcjAlgorithm::Bij,
        ringjoin::RcjAlgorithm::Obj,
    ] {
        let out = rcj_join(&tq, &tp, &RcjOptions::algorithm(algo));
        assert_eq!(pair_keys(&out.pairs), expect, "{}", algo.name());
    }

    // The diameter stream prunes with the same strict-interior test, so
    // every pruning decision here sits on a circle boundary: drained and
    // cut at k, it must equal the sorted full join, ties included.
    let opts = RcjOptions::default();
    let mut sorted = rcj_join(&tq, &tp, &opts).pairs;
    sort_by_diameter(&mut sorted);
    let drained: Vec<RcjPair> = rcj_stream_by_diameter(&tq, &tp, &opts).collect();
    assert_eq!(drained, sorted);
    for k in [1, 10] {
        let top: Vec<RcjPair> = rcj_stream_by_diameter(&tq, &tp, &opts).limit(k).collect();
        assert_eq!(top, sorted[..k], "k = {k}");
    }

    // Self-join streams over the grid plus co-located duplicates, on
    // both indexes.
    let twins: Vec<Item> = (0..12)
        .map(|i| Item::new(100 + i, ps[(i * 7) as usize].point))
        .collect();
    let items: Vec<Item> = ps.into_iter().chain(twins).collect();
    let expect = pair_keys(&rcj_brute_self(&items));
    let rtree = bulk_load(pager.clone(), items.clone());
    let mut quad = QuadTree::new(pager, Rect::new(pt(-1.0, -1.0), pt(11.0, 11.0)));
    for it in &items {
        quad.insert(it.id, it.point);
    }
    fn check_self_stream<I: RcjIndex>(tree: &I, expect: &[(u64, u64)], index: &str) {
        let opts = RcjOptions::default();
        let mut sorted = rcj_self_join(tree, &opts).pairs;
        assert_eq!(pair_keys(&sorted), expect, "{index}");
        sort_by_diameter(&mut sorted);
        let drained: Vec<RcjPair> = rcj_self_stream_by_diameter(tree, &opts).collect();
        assert_eq!(drained, sorted, "{index}");
        for k in [1, 10] {
            let top: Vec<RcjPair> = rcj_self_stream_by_diameter(tree, &opts).limit(k).collect();
            assert_eq!(top, sorted[..k], "{index}, k = {k}");
        }
    }
    check_self_stream(&rtree, &expect, "rtree");
    check_self_stream(&quad, &expect, "quadtree");
}

#[test]
fn near_tie_diameters_rank_by_their_squares() {
    // Squared diameters 2^52 (pair (1,1)) and 2^52 + 1 (pair (0,0)) both
    // round to the diameter 2^26. Ranking by the rounded diameter would
    // put (0,0) first on its key; every ranked answer orders by the
    // squares instead, and so agrees with every other one.
    let ps = vec![Item::new(1, pt(0.0, 0.0)), Item::new(0, pt(1e9, 0.0))];
    let qs = vec![
        Item::new(1, pt(67_108_864.0, 0.0)),
        Item::new(0, pt(1e9 + 67_108_864.0, 1.0)),
    ];
    let pager = Pager::new(MemDisk::new(1024), 16).into_shared();
    let tp = bulk_load(pager.clone(), ps.clone());
    let tq = bulk_load(pager, qs.clone());
    let opts = RcjOptions::default();
    let mut sorted = rcj_join(&tq, &tp, &opts).pairs;
    sort_by_diameter(&mut sorted);
    assert_eq!(sorted[0].diameter(), sorted[1].diameter());
    assert_eq!(sorted[0].key(), (1, 1));
    let drained: Vec<RcjPair> = rcj_stream_by_diameter(&tq, &tp, &opts).collect();
    assert_eq!(drained, sorted);
    let top: Vec<RcjPair> = rcj_stream_by_diameter(&tq, &tp, &opts).limit(2).collect();
    assert_eq!(top, sorted[..2]);
    for shards in [1, 2] {
        let se = ringjoin::ShardedEngine::new(shards).unwrap();
        se.load("p", ps.clone(), ringjoin::IndexKind::Rtree)
            .unwrap();
        se.load("q", qs.clone(), ringjoin::IndexKind::Rtree)
            .unwrap();
        assert_eq!(
            se.top_k("q", "p", 2).unwrap().pairs,
            sorted[..2],
            "{shards} shards"
        );
    }
}
