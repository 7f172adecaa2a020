//! The verification step (Algorithm 3 of the paper), index-agnostic.
//!
//! Candidate pairs that survive the filter are checked against both
//! datasets: a pair `⟨p, q⟩` is an RCJ result iff its enclosing circle
//! contains no other data point strictly inside. Verification descends an
//! index once for a whole *set* of circles, pruning with three rules from
//! Section 3.2:
//!
//! * **point inside** — a data point strictly inside a circle kills the
//!   corresponding pair;
//! * **disjoint entry** — subtrees whose region does not reach a circle's
//!   open interior are never descended for that circle;
//! * **face inside** — if a face of a *minimal* region (an R-tree MBR)
//!   lies strictly inside a circle, minimality guarantees a data point
//!   strictly inside, so the pair dies *without* descending the subtree.
//!
//! The first two rules are sound for any subtree-bounding region and are
//! applied on every index; the face rule is gated on
//! [`IndexProbe::minimal_regions`] — quadtree quadrants partition space,
//! not data, so a quadrant face inside a circle guarantees nothing.
//!
//! All point-level predicates use the exact dot-product form
//! ([`Circle::strictly_contains_diameter`]), so the circle's own
//! endpoints — which live in the verified trees — never invalidate their
//! own pair and no id bookkeeping is needed.

use crate::executor::read_pinned;
use crate::index::{IndexEntry, IndexProbe, NodeRef, RcjIndex};
use crate::pair::RcjPair;
use crate::stats::RcjStats;
use ringjoin_geom::{Circle, Point, Rect};
use ringjoin_storage::PooledPager;

/// A candidate circle with cached geometry for the rectangle tests.
struct Cand {
    p: Point,
    q: Point,
    circle: Circle,
    /// Bounding box of the circle, the plane-sweep key.
    bbox: Rect,
}

/// Verifies `pairs` against `tree`, clearing `alive[i]` for every pair
/// whose circle strictly contains a point of the tree. Reads through a
/// reader pinned on the tree's pager, whose counters the pager absorbs.
///
/// `face_rule` enables the face-inside-circle shortcut (on in all paper
/// algorithms; exposed for the ablation benchmark). It only takes effect
/// on indexes whose regions are minimal MBRs — see the module docs.
///
/// Candidate-vs-entry comparisons use the paper's plane-sweep idea
/// (Section 3.2, "plane-sweep is an efficient method for detecting the
/// intersection between two groups of rectangles"): the candidate list is
/// kept sorted by the left edge of each circle's bounding box, so each
/// node entry only probes the prefix of candidates whose boxes can reach
/// it in x, with a cheap y/x reject before the exact circle tests.
pub fn verify<I: RcjIndex>(
    tree: &I,
    pairs: &[RcjPair],
    alive: &mut [bool],
    face_rule: bool,
    stats: &mut RcjStats,
) {
    read_pinned(&tree.pager(), |pg| {
        verify_with(&tree.probe(), pg, pairs, alive, face_rule, stats)
    })
}

/// [`verify`] over an explicit probe and reader — the form the leaf pass
/// calls.
pub(crate) fn verify_with(
    probe: &impl IndexProbe,
    pg: &mut PooledPager,
    pairs: &[RcjPair],
    alive: &mut [bool],
    face_rule: bool,
    stats: &mut RcjStats,
) {
    debug_assert_eq!(pairs.len(), alive.len());
    let face_rule = face_rule && probe.minimal_regions();
    let cands: Vec<Cand> = pairs
        .iter()
        .map(|pr| {
            let circle = pr.circle();
            Cand {
                p: pr.p.point,
                q: pr.q.point,
                bbox: circle.bounding_rect(),
                circle,
            }
        })
        .collect();
    let mut idxs: Vec<usize> = (0..cands.len()).filter(|&i| alive[i]).collect();
    if idxs.is_empty() {
        return;
    }
    // Sweep order: ascending left edge. Sub-lists built in this order
    // stay sorted, so the prefix property holds throughout the recursion.
    idxs.sort_by(|&a, &b| cands[a].bbox.min.x.total_cmp(&cands[b].bbox.min.x));
    verify_node(
        probe,
        pg,
        probe.root(),
        &idxs,
        &cands,
        alive,
        face_rule,
        stats,
    );
}

/// Number of candidates in the sorted prefix whose bounding box starts
/// at or left of `x_limit` — the sweep frontier for one entry.
#[inline]
fn sweep_prefix(idxs: &[usize], cands: &[Cand], x_limit: f64) -> usize {
    idxs.partition_point(|&i| cands[i].bbox.min.x <= x_limit)
}

#[allow(clippy::too_many_arguments)]
fn verify_node(
    probe: &impl IndexProbe,
    pg: &mut PooledPager,
    node: NodeRef,
    idxs: &[usize],
    cands: &[Cand],
    alive: &mut [bool],
    face_rule: bool,
    stats: &mut RcjStats,
) {
    stats.verify_node_visits += 1;
    let mut entries: Vec<IndexEntry> = Vec::new();
    probe.expand(pg, node, &mut entries);
    for e in &entries {
        match e {
            IndexEntry::Item(it) => {
                let frontier = sweep_prefix(idxs, cands, it.point.x);
                for &i in &idxs[..frontier] {
                    if alive[i]
                        && cands[i].bbox.contains_point(it.point)
                        && Circle::strictly_contains_diameter(it.point, cands[i].p, cands[i].q)
                    {
                        alive[i] = false;
                    }
                }
            }
            IndexEntry::Node(child) => {
                let frontier = sweep_prefix(idxs, cands, child.region.max.x);
                let mut sub: Vec<usize> = Vec::new();
                for &i in &idxs[..frontier] {
                    if !alive[i] || !cands[i].bbox.intersects(child.region) {
                        continue;
                    }
                    if face_rule && face_inside(child.region, cands[i].p, cands[i].q) {
                        // Guaranteed point inside: the pair dies without I/O.
                        alive[i] = false;
                        continue;
                    }
                    if intersects_interior(&cands[i].circle, child.region) {
                        sub.push(i);
                    }
                }
                if !sub.is_empty() {
                    verify_node(probe, pg, *child, &sub, cands, alive, face_rule, stats);
                }
            }
        }
    }
}

/// The face-inside-circle rule, evaluated with the exact dot test per
/// corner so it is consistent with the point-level predicate: a face is
/// strictly inside iff both its endpoints are (open disks are convex),
/// and the data point touching that face is then strictly inside too.
#[inline]
fn face_inside(r: Rect, p: Point, q: Point) -> bool {
    let c = r.corners();
    let inside = [
        Circle::strictly_contains_diameter(c[0], p, q),
        Circle::strictly_contains_diameter(c[1], p, q),
        Circle::strictly_contains_diameter(c[2], p, q),
        Circle::strictly_contains_diameter(c[3], p, q),
    ];
    // Faces are the adjacent corner pairs (0,1), (1,2), (2,3), (3,0).
    // Corners alternate even/odd around the rectangle, so every even–odd
    // pair is adjacent: some face is inside iff at least one even and at
    // least one odd corner are.
    (inside[0] || inside[2]) && (inside[1] || inside[3])
}

/// Conservative descent test: could the subtree under `r` contain a point
/// strictly inside `c`? A hair of slack guards against the constructed
/// center/radius rounding differently from the exact dot predicate used
/// at the leaves — descending a little too often is harmless, skipping a
/// subtree with a qualifying point would be a false positive pair.
#[inline]
fn intersects_interior(c: &Circle, r: Rect) -> bool {
    r.mindist_sq(c.center) < c.radius_sq() * (1.0 + 1e-9)
}
#[cfg(test)]
mod tests {
    use super::*;
    use ringjoin_geom::pt;
    use ringjoin_rtree::{bulk_load, Item, RTree};
    use ringjoin_storage::{MemDisk, Pager};

    fn tree_of(points: &[(f64, f64)]) -> RTree {
        let pager = Pager::new(MemDisk::new(1024), 64).into_shared();
        let items: Vec<Item> = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Item::new(i as u64, pt(x, y)))
            .collect();
        bulk_load(pager, items)
    }

    fn pair(px: f64, py: f64, qx: f64, qy: f64) -> RcjPair {
        RcjPair::new(Item::new(900, pt(px, py)), Item::new(901, pt(qx, qy)))
    }

    fn naive_valid(points: &[(f64, f64)], pr: &RcjPair) -> bool {
        !points
            .iter()
            .any(|&(x, y)| Circle::strictly_contains_diameter(pt(x, y), pr.p.point, pr.q.point))
    }

    #[test]
    fn verification_matches_naive_for_many_circles() {
        let points: Vec<(f64, f64)> = (0..300)
            .map(|i| (((i * 37) % 173) as f64 * 5.0, ((i * 91) % 157) as f64 * 6.0))
            .collect();
        let tree = tree_of(&points);
        let pairs: Vec<RcjPair> = (0..80)
            .map(|i| {
                let a = ((i * 13) % 100) as f64 * 8.0;
                let b = ((i * 7) % 90) as f64 * 9.0;
                pair(a, b, a + 50.0 + (i % 11) as f64 * 30.0, b + 40.0)
            })
            .collect();
        for face_rule in [true, false] {
            let mut alive = vec![true; pairs.len()];
            let mut stats = RcjStats::default();
            verify(&tree, &pairs, &mut alive, face_rule, &mut stats);
            for (i, pr) in pairs.iter().enumerate() {
                assert_eq!(
                    alive[i],
                    naive_valid(&points, pr),
                    "pair {i} mismatch (face_rule={face_rule})"
                );
            }
            assert!(stats.verify_node_visits > 0);
        }
    }

    #[test]
    fn endpoints_in_tree_do_not_kill_their_own_pair() {
        // The pair's own points are in the tree; they sit exactly on the
        // circle and must not invalidate it.
        let points = [(0.0, 0.0), (10.0, 0.0), (50.0, 50.0)];
        let tree = tree_of(&points);
        let pr = pair(0.0, 0.0, 10.0, 0.0);
        let mut alive = vec![true];
        let mut stats = RcjStats::default();
        verify(&tree, &[pr], &mut alive, true, &mut stats);
        assert!(alive[0]);
    }

    #[test]
    fn boundary_point_does_not_invalidate() {
        // A third point exactly on the circle boundary (Thales) is allowed.
        let points = [(5.0, 5.0)]; // on the circle with diameter (0,0)-(10,0)
        let tree = tree_of(&points);
        let pr = pair(0.0, 0.0, 10.0, 0.0);
        let mut alive = vec![true];
        verify(&tree, &[pr], &mut alive, true, &mut RcjStats::default());
        assert!(alive[0]);
        // Nudge it inside -> invalid.
        let tree2 = tree_of(&[(5.0, 4.999)]);
        let mut alive2 = vec![true];
        verify(&tree2, &[pr], &mut alive2, true, &mut RcjStats::default());
        assert!(!alive2[0]);
    }

    #[test]
    fn face_rule_saves_subtree_descents() {
        // A big circle covering a dense cluster: with the face rule the
        // cluster's subtree need not be opened.
        let mut points: Vec<(f64, f64)> = Vec::new();
        for i in 0..400 {
            points.push((450.0 + (i % 20) as f64, 450.0 + (i / 20) as f64));
        }
        let tree = tree_of(&points);
        let pr = pair(0.0, 0.0, 1000.0, 1000.0);

        let mut stats_with = RcjStats::default();
        let mut alive = vec![true];
        verify(&tree, &[pr], &mut alive, true, &mut stats_with);
        assert!(!alive[0]);

        let mut stats_without = RcjStats::default();
        let mut alive = vec![true];
        verify(&tree, &[pr], &mut alive, false, &mut stats_without);
        assert!(!alive[0]);

        assert!(
            stats_with.verify_node_visits <= stats_without.verify_node_visits,
            "face rule should not visit more nodes ({} > {})",
            stats_with.verify_node_visits,
            stats_without.verify_node_visits
        );
    }

    #[test]
    fn disjoint_circles_visit_little() {
        let points: Vec<(f64, f64)> = (0..500)
            .map(|i| ((i % 25) as f64 * 4.0, (i / 25) as f64 * 5.0))
            .collect();
        let tree = tree_of(&points);
        // A tiny far-away circle: only the root should be visited.
        let pr = pair(5000.0, 5000.0, 5001.0, 5000.0);
        let mut alive = vec![true];
        let mut stats = RcjStats::default();
        verify(&tree, &[pr], &mut alive, true, &mut stats);
        assert!(alive[0]);
        assert_eq!(stats.verify_node_visits, 1, "only the root is touched");
    }

    #[test]
    fn dead_pairs_are_skipped() {
        let points = [(1.0, 1.0)];
        let tree = tree_of(&points);
        let pr = pair(0.0, 0.0, 2.0, 2.0);
        let mut alive = vec![false];
        let mut stats = RcjStats::default();
        verify(&tree, &[pr], &mut alive, true, &mut stats);
        assert!(!alive[0]);
        assert_eq!(stats.verify_node_visits, 0, "nothing alive, nothing read");
    }
}
