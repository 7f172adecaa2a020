//! The diameter-ordered stream through the facade: the tourist-browsing
//! access path. `rcj_stream_by_diameter` yields the RCJ result in
//! ascending ring-diameter order (ties by pair key); `take(k)` answers a
//! top-k query, and its cut filter verifies far fewer candidates than the
//! cross product, even when the stream is drained.

use ringjoin::{
    bulk_load, pair_keys, pt, rcj_join, rcj_stream_by_diameter, sort_by_diameter, uniform, MemDisk,
    Pager, RTree, RcjOptions, RcjPair, Rect, SharedPager,
};

fn trees() -> (SharedPager, RTree, RTree) {
    let pager = Pager::new(MemDisk::new(1024), 256).into_shared();
    let tp = bulk_load(pager.clone(), uniform(800, 11));
    let tq = bulk_load(pager.clone(), uniform(800, 12));
    (pager, tp, tq)
}

#[test]
fn streams_in_ascending_diameter_order() {
    let (_pg, tp, tq) = trees();
    let stream: Vec<RcjPair> = rcj_stream_by_diameter(&tq, &tp, &RcjOptions::default())
        .take(50)
        .collect();
    assert_eq!(stream.len(), 50);
    for w in stream.windows(2) {
        assert!(w[0].diameter() <= w[1].diameter());
    }
}

#[test]
fn prefix_matches_full_join_sorted() {
    let (_pg, tp, tq) = trees();
    let mut full = rcj_join(&tq, &tp, &RcjOptions::default()).pairs;
    sort_by_diameter(&mut full);
    let k = 40;
    let stream: Vec<RcjPair> = rcj_stream_by_diameter(&tq, &tp, &RcjOptions::default())
        .take(k)
        .collect();
    // Diameters must agree rank-by-rank (ids may swap among exact
    // ties, which random data does not produce here).
    for (s, f) in stream.iter().zip(full.iter()) {
        assert_eq!(s.key(), f.key());
    }
}

#[test]
fn exhausting_the_stream_yields_the_whole_join() {
    let pager = Pager::new(MemDisk::new(1024), 128).into_shared();
    let tp = bulk_load(pager.clone(), uniform(150, 21));
    let tq = bulk_load(pager.clone(), uniform(150, 22));
    let mut stream = rcj_stream_by_diameter(&tq, &tp, &RcjOptions::default());
    let all: Vec<RcjPair> = stream.by_ref().collect();
    let full = rcj_join(&tq, &tp, &RcjOptions::default()).pairs;
    assert_eq!(pair_keys(&all), pair_keys(&full));
    // Each round's cut filter drops most of the cross product before
    // it is ever verified, even when the whole stream is drained.
    let verified = stream.stats().candidate_pairs;
    assert!(
        verified <= 150 * 150 / 4,
        "drained stream verified {verified} of 22,500 pairs"
    );
}

#[test]
fn top_k_touches_fewer_candidates_than_the_cartesian_product() {
    let (_pg, tp, tq) = trees();
    let mut it = rcj_stream_by_diameter(&tq, &tp, &RcjOptions::default());
    let _top: Vec<RcjPair> = it.by_ref().take(10).collect();
    let checked = it.stats().candidate_pairs;
    assert!(
        checked < 800 * 800 / 100,
        "streamed top-10 checked {checked} pairs"
    );
}

#[test]
fn works_over_quadtrees_too() {
    use ringjoin::quadtree::QuadTree;

    let pager = Pager::new(MemDisk::new(1024), 128).into_shared();
    let items_p = uniform(200, 31);
    let items_q = uniform(200, 32);
    let region = Rect::new(pt(0.0, 0.0), pt(10_000.0, 10_000.0));
    let mut tp = QuadTree::new(pager.clone(), region);
    for it in &items_p {
        tp.insert(it.id, it.point);
    }
    let tq = bulk_load(pager.clone(), items_q);
    let top: Vec<RcjPair> = rcj_stream_by_diameter(&tq, &tp, &RcjOptions::default())
        .take(20)
        .collect();
    assert_eq!(top.len(), 20);
    for w in top.windows(2) {
        assert!(w[0].diameter() <= w[1].diameter());
    }
    let full = rcj_join(&tq, &tp, &RcjOptions::default()).pairs;
    let all: std::collections::HashSet<_> = pair_keys(&full).into_iter().collect();
    for pr in &top {
        assert!(all.contains(&pr.key()), "streamed pair not in full join");
    }
}
