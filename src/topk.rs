//! Streaming top-k RCJ by ring diameter — the tourist-recommendation
//! access path.
//!
//! The paper suggests sorting the RCJ result in ascending ring-diameter
//! order so a tourist can browse the most compact facility pairs first.
//! Computing the *whole* join and sorting works (see
//! [`sort_by_diameter`](crate::sort_by_diameter)), but a browsing UI only
//! needs the first few results.
//!
//! This module is a thin veneer over the core engine's streaming layer:
//! [`rcj_by_diameter`] opens a diameter-ordered [`RcjStream`], which runs
//! the join's own leaf pass into a top-k sink that cuts each leaf's
//! filter at the `k`-th best squared diameter found so far. The same
//! pass backs the engine's `query().top_k(k)` plans, the CLI's `top-k`
//! subcommand and the server's `TOPK`; prefer
//! [`Engine`](crate::core::Engine) when the datasets live in a session.
//!
//! The stream is unbounded, so it runs rounds of that pass with `k`
//! growing eightfold from 16 (see
//! [`ringjoin_core::rcj_stream_by_diameter`]); `.limit(k)` sizes the
//! first round and makes a top-k one pass. On the paper's SP pair a
//! top-10 verifies 187 candidates, and a drained stream costs a few
//! joins.

use ringjoin_core::{rcj_stream_by_diameter, RcjIndex, RcjOptions, RcjStream};

/// Compatibility alias: the diameter-ordered stream *is* the core
/// [`RcjStream`] (older revisions had a dedicated iterator type here).
pub type RcjByDiameter = RcjStream;

/// Streams the RCJ result of `(tp, tq)` in ascending ring-diameter
/// order, ties by pair key; `.limit(k)` (or `take(k)`, in more rounds)
/// answers a top-k query (see the module docs). Works over any
/// [`RcjIndex`] on either side.
///
/// ```
/// use ringjoin::{bulk_load, rcj_by_diameter, uniform, MemDisk, Pager};
///
/// let pager = Pager::new(MemDisk::new(1024), 128).into_shared();
/// let tp = bulk_load(pager.clone(), uniform(300, 1));
/// let tq = bulk_load(pager.clone(), uniform(300, 2));
/// let top3: Vec<_> = rcj_by_diameter(&tp, &tq).take(3).collect();
/// assert_eq!(top3.len(), 3);
/// assert!(top3[0].diameter() <= top3[1].diameter());
/// assert!(top3[1].diameter() <= top3[2].diameter());
/// ```
pub fn rcj_by_diameter<IP: RcjIndex, IQ: RcjIndex>(tp: &IP, tq: &IQ) -> RcjByDiameter {
    rcj_stream_by_diameter(tq, tp, &RcjOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringjoin_core::{pair_keys, rcj_join, sort_by_diameter, RcjPair};
    use ringjoin_datagen::uniform;
    use ringjoin_rtree::{bulk_load, RTree};
    use ringjoin_storage::{MemDisk, Pager};

    fn trees() -> (ringjoin_storage::SharedPager, RTree, RTree) {
        let pager = Pager::new(MemDisk::new(1024), 256).into_shared();
        let tp = bulk_load(pager.clone(), uniform(800, 11));
        let tq = bulk_load(pager.clone(), uniform(800, 12));
        (pager, tp, tq)
    }

    #[test]
    fn streams_in_ascending_diameter_order() {
        let (_pg, tp, tq) = trees();
        let stream: Vec<RcjPair> = rcj_by_diameter(&tp, &tq).take(50).collect();
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
        let stream: Vec<RcjPair> = rcj_by_diameter(&tp, &tq).take(k).collect();
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
        let mut stream = rcj_by_diameter(&tp, &tq);
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
        let mut it = rcj_by_diameter(&tp, &tq);
        let _top: Vec<RcjPair> = it.by_ref().take(10).collect();
        let checked = it.stats().candidate_pairs;
        assert!(
            checked < 800 * 800 / 100,
            "streamed top-10 checked {checked} pairs"
        );
    }

    #[test]
    fn works_over_quadtrees_too() {
        use ringjoin_geom::{pt, Rect};
        use ringjoin_quadtree::QuadTree;

        let pager = Pager::new(MemDisk::new(1024), 128).into_shared();
        let items_p = uniform(200, 31);
        let items_q = uniform(200, 32);
        let region = Rect::new(pt(0.0, 0.0), pt(10_000.0, 10_000.0));
        let mut tp = QuadTree::new(pager.clone(), region);
        for it in &items_p {
            tp.insert(it.id, it.point);
        }
        let tq = bulk_load(pager.clone(), items_q);
        let top: Vec<RcjPair> = rcj_by_diameter(&tp, &tq).take(20).collect();
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
}
