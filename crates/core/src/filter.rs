//! The filter step (Algorithms 2 and 7 of the paper), index-agnostic.
//!
//! Given a query point `q ∈ Q`, the filter retrieves from the index of
//! `P` a *candidate set* `S` of points that may form RCJ pairs with `q`.
//! It runs the incremental nearest-neighbour traversal of Hjaltason &
//! Samet from `q`, interleaved with the half-plane pruning of Lemmas 1
//! and 3: an entry strictly inside `Ψ⁻(q, p)` for any already-discovered
//! candidate `p ∈ S` can be discarded — points (Lemma 1) outright,
//! subtree regions (Lemma 3) with their whole subtree. Because points
//! arrive in ascending distance from `q`, close points enter `S` first
//! and their pruning regions are largest (Section 3.1), which is what
//! keeps `|S|` tiny in practice.
//!
//! The traversal is written against [`IndexProbe`], so the same code
//! filters through R-tree MBRs and quadtree quadrant regions — Lemma 3
//! only needs the region to bound the subtree's points. Pages are read
//! through an explicit [`PooledPager`], the reader the leaf pass hands
//! it (one per worker in parallel runs).
//!
//! The bulk variant (Algorithm 7) filters a whole leaf node of `T_Q` in a
//! single traversal of `T_P`, ordered by distance from the leaf centroid;
//! an entry is discarded only when it is prunable *for every* `q` in the
//! leaf. With the symmetric rule of Lemma 5 enabled (the OBJ algorithm),
//! sibling points of `q`'s leaf act as additional pruners at zero I/O
//! cost. The single-point filter is the same traversal over a "leaf" of
//! one point, with the point itself as the reference location.
//!
//! # Live sets
//!
//! Each query point owns one flat list of precomputed half-planes: its
//! leaf siblings (under Lemma 5), then each candidate as it joins `S`.
//! A test is an `any` over that list, so its order is free; the slot
//! that pruned last is tried first.
//!
//! The siblings are built at the point's first pruner test, not when
//! the traversal starts: a cut traversal never tests most of its points
//! against any pruner (see *The cut*), and their `n − 1` half-planes
//! would go unread. The list is the same either way: siblings first,
//! born at 0, since a candidate joins only after an item passed the
//! point's pruner test, and the pop-time re-test (below) reads only
//! pruners born after the push.
//!
//! Every heap entry carries a *live set*: a bitset of the query points
//! its parent was not pruned for (⌈n/64⌉ words, whatever the leaf size).
//! A node is tested only for its live points and hands the survivors to
//! its children; a point is tested only for its live points. Once a
//! region is pruned for `q`, `q`'s verdict on everything below it is
//! known, and that knowledge is exact:
//!
//! * [`HalfPlane::contains_rect`] evaluates the expression of
//!   [`HalfPlane::contains_point`] at the region's extreme corner, and
//!   IEEE rounding is monotone, so a half-plane that covers a region
//!   also covers every point and every sub-rectangle of it (see the
//!   [`HalfPlane`] docs);
//! * every child region and item lies inside its parent's region (an
//!   index invariant, `debug_assert!`ed at expansion — the one fact the
//!   inheritance adds to what Lemma 3 already assumes);
//! * pruner lists only grow, so the half-plane that pruned the parent
//!   still prunes when the child is popped.
//!
//! One verdict is known before any test: a region that holds `q`
//! (closed, [`Rect::contains_point`]) is in no `Ψ⁻(q, p)`, so a child
//! whose region holds a live point is not tested against that point's
//! pruners. At `q` the expression `(x − p) · (p − q)` rounds to
//! `−|p − q|²`, never above 0, and `contains_rect` evaluates it at a
//! corner where it can only be smaller (the inheritance argument of the
//! [`HalfPlane`] docs, run from `q`). This skips the R-tree root (the
//! whole plane), the quadtree root when it holds `q`, and every node on
//! the path down to `q`'s own location.
//!
//! # Push-time discard
//!
//! A child is tested against the current pruners as soon as its node is
//! expanded; one with no live point left is never pushed. At pop time an
//! entry is re-tested only against the pruners that joined since its
//! push — the earlier ones already failed for every live point. The
//! traversal drains its heap, so a discarded child would have been
//! popped and thrown away: it still counts in
//! [`RcjStats::filter_heap_pops`], which stays one (the root) plus every
//! entry produced. Pop order, candidate sets, their order and every
//! counter are those of testing each popped entry for every query point
//! against every pruner.
//!
//! # The cut
//!
//! A ranked or windowed query needs only the candidates within a
//! squared distance of their query point: the `k`-th best squared
//! diameter so far, a window's exact `max_diameter` cut, or −∞ for a
//! point that can end no admitted pair (see
//! [`RingBounds`](crate::RingBounds)). Each query point therefore
//! carries its own cut, and `Traversal::offer` also discards, per live
//! point, every entry farther than that point's cut. This changes
//! nothing within the cut: a point that prunes a candidate lies
//! strictly inside the candidate's circle, so it is strictly closer to
//! `q` and within the cut too. The candidates within each point's cut,
//! and their order, are those of the uncut filter. When every cut is
//! infinite (every unbounded join) the traversal is compiled without
//! the test.
//!
//! A cut traversal first tests each child once for all the live points
//! together: against the bounding box of their locations, at the
//! largest of their cuts ([`Rect::mindist_rect_sq`] for a node,
//! [`Rect::mindist_sq`] for an item). A child beyond that is beyond
//! every live point's own cut, because for `q` in the box the rounded
//! box distance is never larger than the rounded distance from `q`
//! (subtraction, squaring and addition round monotonically). Only the
//! children that pass are tested point by point. With one live point
//! the box test is that point's own, so it is skipped. No cut is NaN
//! (ranked cuts are squared diameters of finite points, window cuts
//! come from validated bounds), which the box test relies on.
//!
//! None of these shortcuts changes a verdict for any (point, entry)
//! pair, so pops, pushes, candidate sets, their order and every
//! [`RcjStats`] counter are those of testing everything.

use crate::executor::read_pinned;
use crate::index::{IndexEntry, IndexProbe, RcjIndex};
use crate::stats::RcjStats;
use ringjoin_geom::{HalfPlane, Item, Point, Rect};
use ringjoin_storage::PooledPager;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Priority-queue key of the filter traversal: ascending squared
/// distance from the reference location, ties in push order. `idx` is
/// the push order itself and names the entry in [`Traversal::pushed`].
struct HeapKey {
    key: f64,
    idx: usize,
}

impl PartialEq for HeapKey {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.idx == other.idx
    }
}
impl Eq for HeapKey {}
impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

/// A pushed entry: a node (Lemma 3) or a data point (Lemma 1).
struct Pushed {
    entry: IndexEntry,
    /// [`Traversal::clock`] at the push: the pruners born later are the
    /// only ones the entry has not been tested against.
    clock: u64,
}

/// The pruning half-planes `Ψ⁻(q, ·)` of one query point, in one flat
/// list in the order they joined.
struct PrunerList {
    planes: Vec<HalfPlane>,
    /// `born[k]`: the traversal clock when `planes[k]` joined
    /// (non-decreasing; leaf siblings are born at 0).
    born: Vec<u64>,
    /// The slot that pruned last, tried first.
    hint: usize,
}

impl PrunerList {
    fn push(&mut self, q: Point, p: Point, clock: u64) {
        self.planes.push(HalfPlane::pruning_region(q, p));
        self.born.push(clock);
    }

    /// Does any pruner cover the entry (`covers` is Lemma 1 for a point,
    /// Lemma 3 for a region)?
    #[inline]
    fn any(&mut self, covers: impl Fn(&HalfPlane) -> bool) -> bool {
        if self.planes.get(self.hint).is_some_and(&covers) {
            return true;
        }
        match self.planes.iter().position(covers) {
            Some(k) => {
                self.hint = k;
                true
            }
            None => false,
        }
    }

    /// Does any pruner born after `clock` cover the entry?
    #[inline]
    fn any_since(&self, clock: u64, covers: impl Fn(&HalfPlane) -> bool) -> bool {
        let fresh = self.born.iter().rev().take_while(|&&b| b > clock).count();
        self.planes[self.planes.len() - fresh..].iter().any(covers)
    }
}

/// One query point of a traversal: its candidate set `S` and the list of
/// half-planes that prune on its behalf.
struct Query {
    q: Point,
    /// Self-join mode: the id of `q` itself, never its own candidate.
    exclude: Option<u64>,
    /// Squared distance from `q` beyond which its entries are
    /// discarded; read only by a cut traversal. Never NaN.
    cut: f64,
    /// Lemma 5: the leaf siblings have yet to join `pruners` (they do
    /// at the point's first pruner test).
    siblings_due: bool,
    cands: Vec<Item>,
    pruners: PrunerList,
}

impl Query {
    /// A query point cut at `cut`, pruned by its leaf siblings when
    /// `symmetric`.
    fn new(q: Point, exclude: Option<u64>, cut: f64, symmetric: bool) -> Self {
        debug_assert!(!cut.is_nan(), "the cut of {q:?} is NaN");
        Query {
            q,
            exclude,
            cut,
            siblings_due: symmetric,
            cands: Vec::new(),
            pruners: PrunerList {
                planes: Vec::new(),
                born: Vec::new(),
                hint: 0,
            },
        }
    }

    /// The pruners of leaf point `i`, for a test; `leaf` holds the leaf's
    /// points, which join as Lemma 5 siblings, born at 0, on the first
    /// call. No candidate precedes them: a candidate joins only after
    /// an item passed a test of this point.
    #[inline]
    fn pruners(&mut self, i: usize, leaf: &[Item]) -> &mut PrunerList {
        if self.siblings_due {
            self.siblings_due = false;
            self.push_siblings(i, leaf);
        }
        &mut self.pruners
    }

    /// Is `entry` discarded for this point, leaf point `i` of `leaf`:
    /// its own id in a self-join, beyond its cut (`CUT` only), or covered
    /// by one of its pruners?
    #[inline(always)]
    fn discards<const CUT: bool>(&mut self, i: usize, leaf: &[Item], entry: IndexEntry) -> bool {
        match entry {
            IndexEntry::Item(it) => {
                self.exclude == Some(it.id)
                    || (CUT && self.q.dist_sq(it.point) > self.cut)
                    || self.pruners(i, leaf).any(|h| h.contains_point(it.point))
            }
            // A region that holds `q` is in no `Ψ⁻(q, ·)`.
            IndexEntry::Node(node) => {
                (CUT && node.region.mindist_sq(self.q) > self.cut)
                    || (!node.region.contains_point(self.q)
                        && self.pruners(i, leaf).any(|h| h.contains_rect(node.region)))
            }
        }
    }

    #[cold]
    fn push_siblings(&mut self, i: usize, leaf: &[Item]) {
        // The `n − 1` siblings plus room for a few candidates.
        let room = leaf.len() + 7;
        self.pruners.planes.reserve(room);
        self.pruners.born.reserve(room);
        for (j, sib) in leaf.iter().enumerate() {
            if j != i {
                self.pruners.push(self.q, sib.point, 0);
            }
        }
    }
}

/// Calls `f` for every query point in the live set.
#[inline]
fn for_each_live(live: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in live.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Clears the bit of every live point `i` with `pruned(i)`; returns
/// `true` if any bit is left.
#[inline]
fn retain_live(live: &mut [u64], mut pruned: impl FnMut(usize) -> bool) -> bool {
    let mut left = 0;
    for (w, word) in live.iter_mut().enumerate() {
        let mut bits = *word;
        while bits != 0 {
            let b = bits.trailing_zeros();
            bits &= bits - 1;
            if pruned(w * 64 + b as usize) {
                *word &= !(1 << b);
            }
        }
        left |= *word;
    }
    left != 0
}

/// The incremental-NN traversal of `T_P` for a set of query points (see
/// the module docs for the live-set rule). `CUT` compiles in the tests
/// against the query points' cuts: each point's own, and the box test.
struct Traversal<'q, const CUT: bool> {
    /// The location heap keys are measured from.
    origin: Point,
    queries: &'q mut [Query],
    /// The leaf's points, for the queries' Lemma 5 siblings.
    leaf: &'q [Item],
    /// The children of the expansion in hand that some live point's
    /// cut may reach (indices into them).
    reach: Vec<usize>,
    /// Words per live set.
    words: usize,
    /// Every pushed entry, in push order.
    pushed: Vec<Pushed>,
    /// Live sets: `pushed[idx]`'s is `slab[idx * words..][..words]`.
    slab: Vec<u64>,
    heap: BinaryHeap<HeapKey>,
    /// Point pops so far: the birth time of the pruners they add.
    clock: u64,
}

impl<'q, const CUT: bool> Traversal<'q, CUT> {
    fn new(origin: Point, queries: &'q mut [Query], leaf: &'q [Item]) -> Self {
        Traversal {
            origin,
            words: queries.len().div_ceil(64),
            queries,
            leaf,
            reach: Vec::new(),
            pushed: Vec::new(),
            slab: Vec::new(),
            heap: BinaryHeap::new(),
            clock: 0,
        }
    }

    /// Tests `children`, just produced by a node whose live set is
    /// `parent`, against the cuts and the current pruners of the
    /// parent's live points. Pushes each child that keeps a live point,
    /// in order; a child with none is discarded and counted as popped.
    fn offer(&mut self, children: &[IndexEntry], parent: &[u64], stats: &mut RcjStats) {
        let words = self.words;
        let first = self.slab.len();
        self.slab.resize(first + children.len() * words, 0);
        let sets = &mut self.slab[first..];
        let queries = &mut *self.queries;
        let leaf = self.leaf;
        // The cut's box test: a child beyond the largest cut from the box
        // of the live points is beyond every live point's own cut. With
        // one live point it would repeat that point's test.
        let reach = &mut self.reach;
        let mut live = 0;
        let (mut bbox, mut widest) = (Rect::empty(), f64::NEG_INFINITY);
        if CUT {
            for_each_live(parent, |i| {
                live += 1;
                bbox.expand_point(queries[i].q);
                widest = widest.max(queries[i].cut);
            });
        }
        let boxed = live > 1;
        if boxed {
            reach.clear();
            reach.extend(children.iter().enumerate().filter_map(|(k, child)| {
                let gap = match *child {
                    IndexEntry::Item(it) => bbox.mindist_sq(it.point),
                    IndexEntry::Node(node) => node.region.mindist_rect_sq(bbox),
                };
                (gap <= widest).then_some(k)
            }));
        }
        for_each_live(parent, |i| {
            let qp = &mut queries[i];
            let (w, bit) = (i / 64, 1u64 << (i % 64));
            if boxed {
                for &k in reach.iter() {
                    if !qp.discards::<CUT>(i, leaf, children[k]) {
                        sets[k * words + w] |= bit;
                    }
                }
            } else {
                for (k, &child) in children.iter().enumerate() {
                    if !qp.discards::<CUT>(i, leaf, child) {
                        sets[k * words + w] |= bit;
                    }
                }
            }
        });
        // Survivors move down into their push slots.
        let mut slot = first;
        for (k, &child) in children.iter().enumerate() {
            let at = first + k * words;
            if self.slab[at..at + words].iter().all(|&w| w == 0) {
                stats.filter_heap_pops += 1;
                continue;
            }
            self.slab.copy_within(at..at + words, slot);
            slot += words;
            let key = match child {
                IndexEntry::Item(it) => self.origin.dist_sq(it.point),
                IndexEntry::Node(node) => node.region.mindist_sq(self.origin),
            };
            self.heap.push(HeapKey {
                key,
                idx: self.pushed.len(),
            });
            self.pushed.push(Pushed {
                entry: child,
                clock: self.clock,
            });
        }
        self.slab.truncate(slot);
    }

    fn run(mut self, probe: &impl IndexProbe, pg: &mut PooledPager, stats: &mut RcjStats) {
        let n = self.queries.len();
        // The root's parent set: every query point.
        let mut parent: Vec<u64> = (0..self.words)
            .map(|w| match n - 64 * w {
                r if r >= 64 => !0,
                r => (1 << r) - 1,
            })
            .collect();
        self.offer(&[IndexEntry::Node(probe.root())], &parent, stats);

        let mut children: Vec<IndexEntry> = Vec::new();
        while let Some(HeapKey { idx, .. }) = self.heap.pop() {
            stats.filter_heap_pops += 1;
            let Pushed { entry, clock } = self.pushed[idx];
            let live = idx * self.words..(idx + 1) * self.words;
            match entry {
                IndexEntry::Node(node) => {
                    // Lemma 3 at deheap time, for the live points, against
                    // the pruners that joined since the push (Algorithm 7,
                    // line 7: discard once no point is left).
                    let queries = &*self.queries;
                    let alive = retain_live(&mut self.slab[live.clone()], |i| {
                        queries[i]
                            .pruners
                            .any_since(clock, |h| h.contains_rect(node.region))
                    });
                    if !alive {
                        continue;
                    }
                    parent.clear();
                    parent.extend_from_slice(&self.slab[live]);
                    children.clear();
                    stats.filter_node_reads += 1;
                    probe.expand(pg, node, &mut children);
                    debug_assert!(
                        children.iter().all(|e| match e {
                            IndexEntry::Item(it) => node.region.contains_point(it.point),
                            IndexEntry::Node(child) => node.region.contains_rect(child.region),
                        }),
                        "an entry of {node:?} escapes its region"
                    );
                    self.offer(&children, &parent, stats);
                }
                IndexEntry::Item(it) => {
                    // Lemma 1 for the live points; a survivor joins `S`
                    // and prunes on its query point's behalf from now on.
                    self.clock += 1;
                    let born = self.clock;
                    let queries = &mut *self.queries;
                    for_each_live(&self.slab[live], |i| {
                        let qp = &mut queries[i];
                        if !qp.pruners.any_since(clock, |h| h.contains_point(it.point)) {
                            qp.cands.push(it);
                            qp.pruners.push(qp.q, it.point, born);
                        }
                    });
                }
            }
        }
    }
}

/// Runs the filter traversal from `origin` for `queries`, each cut at
/// its own cut, returning each query point's candidate set in the order
/// of discovery. `leaf` holds the points whose queries take Lemma 5
/// siblings.
fn traverse(
    probe: &impl IndexProbe,
    pg: &mut PooledPager,
    origin: Point,
    mut queries: Vec<Query>,
    leaf: &[Item],
    stats: &mut RcjStats,
) -> Vec<Vec<Item>> {
    if queries.iter().any(|qp| qp.cut < f64::INFINITY) {
        Traversal::<true>::new(origin, &mut queries, leaf).run(probe, pg, stats);
    } else {
        Traversal::<false>::new(origin, &mut queries, leaf).run(probe, pg, stats);
    }
    queries.into_iter().map(|qp| qp.cands).collect()
}

/// Algorithm 2: candidate retrieval for a single query point, through a
/// reader pinned on the tree's pager whose counters the pager absorbs.
///
/// `exclude_id` removes one identity from consideration — the query point
/// itself during a self-join, where `T_P` is the same tree that contains
/// `q` and the degenerate pair `⟨q, q⟩` must not be generated.
///
/// Returns the candidate set `S` in the order of discovery (ascending
/// distance from `q`).
pub fn filter<I: RcjIndex>(
    tree_p: &I,
    q: Point,
    exclude_id: Option<u64>,
    stats: &mut RcjStats,
) -> Vec<Item> {
    read_pinned(&tree_p.pager(), |pg| {
        filter_with(&tree_p.probe(), pg, q, exclude_id, f64::INFINITY, stats)
    })
}

/// [`filter`] over an explicit probe and reader — the form the leaf
/// pass calls — returning only the candidates within squared distance
/// `cut` of `q` (see the module docs; `f64::INFINITY` for all of them).
pub(crate) fn filter_with(
    probe: &impl IndexProbe,
    pg: &mut PooledPager,
    q: Point,
    exclude_id: Option<u64>,
    cut: f64,
    stats: &mut RcjStats,
) -> Vec<Item> {
    let queries = vec![Query::new(q, exclude_id, cut, false)];
    traverse(probe, pg, q, queries, &[], stats).swap_remove(0)
}

/// Output of the bulk filter: one candidate set per point of the leaf.
pub struct BulkFilterResult {
    /// `sets[i]` is the candidate set of `leaf_points[i]`.
    pub sets: Vec<Vec<Item>>,
}

/// Algorithm 7 + Section 4.2: bulk candidate retrieval for all points of
/// one leaf node of `T_Q`, through a reader pinned on the tree's pager
/// whose counters the pager absorbs.
///
/// * `leaf_points` — the points `V` of the leaf.
/// * `symmetric` — enables the Lemma 5 rule (the OBJ optimisation):
///   points of `V − {q}` prune on behalf of `q` even before `q.S` has any
///   member.
/// * `exclude_same_id` — self-join mode: a `T_P` point with the same id
///   as `q` is `q` itself and never becomes its own candidate.
pub fn bulk_filter<I: RcjIndex>(
    tree_p: &I,
    leaf_points: &[Item],
    symmetric: bool,
    exclude_same_id: bool,
    stats: &mut RcjStats,
) -> BulkFilterResult {
    read_pinned(&tree_p.pager(), |pg| {
        bulk_filter_with(
            &tree_p.probe(),
            pg,
            leaf_points,
            symmetric,
            exclude_same_id,
            &vec![f64::INFINITY; leaf_points.len()],
            stats,
        )
    })
}

/// [`bulk_filter`] over an explicit probe and reader, set `i` holding
/// only the candidates within squared distance `cuts[i]` of
/// `leaf_points[i]` (see the module docs; `f64::INFINITY` for all of
/// them, `f64::NEG_INFINITY` for none).
///
/// # Panics
/// Panics unless there is one cut per leaf point.
pub(crate) fn bulk_filter_with(
    probe: &impl IndexProbe,
    pg: &mut PooledPager,
    leaf_points: &[Item],
    symmetric: bool,
    exclude_same_id: bool,
    cuts: &[f64],
    stats: &mut RcjStats,
) -> BulkFilterResult {
    let n = leaf_points.len();
    assert_eq!(cuts.len(), n, "one cut per leaf point");
    if n == 0 {
        return BulkFilterResult { sets: Vec::new() };
    }

    // The reference location: centroid of the leaf's points.
    let centroid = {
        let (sx, sy) = leaf_points.iter().fold((0.0f64, 0.0f64), |(sx, sy), it| {
            (sx + it.point.x, sy + it.point.y)
        });
        Point::new(sx / n as f64, sy / n as f64)
    };

    // Lemma 5: every sibling prunes on q's behalf from the start (born
    // at 0, built at q's first pruner test).
    let queries = leaf_points
        .iter()
        .zip(cuts)
        .map(|(it, &cut)| Query::new(it.point, exclude_same_id.then_some(it.id), cut, symmetric))
        .collect();
    let sets = traverse(probe, pg, centroid, queries, leaf_points, stats);
    BulkFilterResult { sets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ringjoin_geom::{prunes, pt, Rect};
    use ringjoin_quadtree::QuadTree;
    use ringjoin_rtree::{bulk_load, RTree};
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

    /// Brute-force reference for the candidate set: `p` is a candidate of
    /// `q` iff no *closer-or-equal ranked* point of `P` prunes it. The
    /// incremental discovery order means `S` is exactly the set of points
    /// not pruned by any point of `P` that precedes them in distance
    /// order and itself survived.
    fn naive_filter(points: &[(f64, f64)], q: Point) -> Vec<u64> {
        let mut order: Vec<(f64, usize)> = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (q.dist_sq(pt(x, y)), i))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut s: Vec<usize> = Vec::new();
        for &(_, i) in &order {
            let x = pt(points[i].0, points[i].1);
            if !s
                .iter()
                .any(|&j| prunes(q, pt(points[j].0, points[j].1), x))
            {
                s.push(i);
            }
        }
        let mut ids: Vec<u64> = s.into_iter().map(|i| i as u64).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn filter_matches_naive_reference() {
        let points: Vec<(f64, f64)> = (0..200)
            .map(|i| {
                let a = i as f64 * 0.7;
                (
                    5000.0 + 4000.0 * (a.sin() * (i as f64 / 200.0)),
                    5000.0 + 4000.0 * (a.cos() * ((i * 7 % 200) as f64 / 200.0)),
                )
            })
            .collect();
        let tree = tree_of(&points);
        let mut stats = RcjStats::default();
        for q in [pt(5000.0, 5000.0), pt(100.0, 9000.0), pt(7200.0, 3500.0)] {
            let mut got: Vec<u64> = filter(&tree, q, None, &mut stats)
                .into_iter()
                .map(|it| it.id)
                .collect();
            got.sort_unstable();
            assert_eq!(got, naive_filter(&points, q), "at query {q:?}");
        }
        assert!(stats.filter_heap_pops > 0);
    }

    #[test]
    fn filter_excludes_identity() {
        let points = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)];
        let tree = tree_of(&points);
        let mut stats = RcjStats::default();
        let s = filter(&tree, pt(1.0, 0.0), Some(1), &mut stats);
        assert!(s.iter().all(|it| it.id != 1));
        assert!(!s.is_empty());
    }

    #[test]
    fn figure6_walkthrough_prunes_far_groups() {
        // Figure 6 of the paper: q on the left, four leaf groups; after
        // p1 and p4 enter S, everything else is pruned.
        let q = pt(0.0, 5.0);
        // e1 group (closest): p1 nearest to q, p2, p3 behind it.
        // e2 group: p4 survives (different direction), p5, p6 behind.
        // e3, e4 groups: far right, fully pruned.
        let points = [
            (2.0, 5.0), // 0 = p1
            (3.2, 6.4), // 1 = p2 (behind p1's line, same direction)
            (3.4, 4.0), // 2 = p3
            (1.5, 0.5), // 3 = p4 (south direction, inside p1's line x=2)
            (3.6, 0.2), // 4 = p5
            (4.0, 1.4), // 5 = p6
            (9.0, 6.0), // 6..: far east, pruned by p1
            (9.5, 5.5),
            (10.0, 4.0),
            (11.0, 6.5),
            (12.0, 5.0),
            (12.5, 3.5),
        ];
        let tree = tree_of(&points);
        let mut stats = RcjStats::default();
        let s: Vec<u64> = filter(&tree, q, None, &mut stats)
            .into_iter()
            .map(|it| it.id)
            .collect();
        assert!(s.contains(&0), "p1 must be a candidate: {s:?}");
        assert!(s.contains(&3), "p4 must be a candidate: {s:?}");
        assert!(
            !s.iter().any(|id| *id >= 6),
            "far-east groups must be pruned: {s:?}"
        );
        assert_eq!(s, naive_filter(&points, q));
    }

    #[test]
    fn bulk_filter_supersets_single_filters() {
        // Per the paper, BIJ's candidate sets can only be larger than
        // INJ's: the bulk traversal runs in distance order from the leaf
        // centroid, not from each q, so q's closest pruners may arrive
        // later. Every candidate of the single-point filter for q must
        // therefore appear in the bulk set for q.
        let points: Vec<(f64, f64)> = (0..150)
            .map(|i| {
                (
                    ((i * 37) % 100) as f64 * 10.0,
                    ((i * 61) % 100) as f64 * 10.0,
                )
            })
            .collect();
        let tree = tree_of(&points);
        let leaf: Vec<Item> = [(120.0, 340.0), (180.0, 410.0), (90.0, 400.0)]
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Item::new(1000 + i as u64, pt(x, y)))
            .collect();
        let mut stats = RcjStats::default();
        let bulk = bulk_filter(&tree, &leaf, false, false, &mut stats);
        for (i, q) in leaf.iter().enumerate() {
            let single = filter(&tree, q.point, None, &mut stats);
            let bulk_ids: std::collections::HashSet<u64> =
                bulk.sets[i].iter().map(|it| it.id).collect();
            for it in single {
                assert!(
                    bulk_ids.contains(&it.id),
                    "bulk set for q{i} lost candidate {}",
                    it.id
                );
            }
        }
    }

    #[test]
    fn symmetric_pruning_never_loses_true_candidates_and_shrinks_sets() {
        let points: Vec<(f64, f64)> = (0..200)
            .map(|i| (((i * 53) % 97) as f64 * 11.0, ((i * 29) % 89) as f64 * 13.0))
            .collect();
        let tree = tree_of(&points);
        let leaf: Vec<Item> = (0..8)
            .map(|i| {
                Item::new(
                    2000 + i as u64,
                    pt(300.0 + 40.0 * i as f64, 500.0 + 25.0 * (i % 3) as f64),
                )
            })
            .collect();
        let mut stats = RcjStats::default();
        let plain = bulk_filter(&tree, &leaf, false, false, &mut stats);
        let symmetric = bulk_filter(&tree, &leaf, true, false, &mut stats);
        let plain_total: usize = plain.sets.iter().map(Vec::len).sum();
        let sym_total: usize = symmetric.sets.iter().map(Vec::len).sum();
        assert!(
            sym_total <= plain_total,
            "symmetric pruning must not enlarge candidate sets ({sym_total} > {plain_total})"
        );
        // No point pruned by a sibling may be a genuine RCJ partner: if
        // sibling q' prunes p for q, then q' is strictly inside
        // circle(q, p), so the pair is invalid. Verify via brute force.
        for (i, q) in leaf.iter().enumerate() {
            let sym_ids: std::collections::HashSet<u64> =
                symmetric.sets[i].iter().map(|it| it.id).collect();
            for p in &plain.sets[i] {
                if !sym_ids.contains(&p.id) {
                    // must be invalidated by some sibling
                    let invalidated = leaf.iter().enumerate().any(|(j, sib)| {
                        j != i
                            && ringjoin_geom::Circle::strictly_contains_diameter(
                                sib.point, q.point, p.point,
                            )
                    });
                    assert!(invalidated, "symmetric rule wrongly pruned p{}", p.id);
                }
            }
        }
    }

    /// The bulk filter without live sets: every popped entry is tested
    /// for every leaf point against all of its siblings and candidates,
    /// each half-plane rebuilt per test. The oracle of
    /// `bulk_filter_matches_the_reference_loop`.
    fn bulk_filter_reference(
        probe: &impl IndexProbe,
        pg: &mut PooledPager,
        leaf_points: &[Item],
        symmetric: bool,
        exclude_same_id: bool,
        stats: &mut RcjStats,
    ) -> BulkFilterResult {
        let n = leaf_points.len();
        let mut sets: Vec<Vec<Item>> = vec![Vec::new(); n];
        if n == 0 {
            return BulkFilterResult { sets };
        }

        // The reference location: centroid of the leaf's points.
        let centroid = {
            let (sx, sy) = leaf_points.iter().fold((0.0f64, 0.0f64), |(sx, sy), it| {
                (sx + it.point.x, sy + it.point.y)
            });
            Point::new(sx / n as f64, sy / n as f64)
        };

        // Entries in push order; a heap key's `idx` names its entry.
        let mut heap = BinaryHeap::new();
        let mut targets = vec![IndexEntry::Node(probe.root())];
        heap.push(HeapKey { key: 0.0, idx: 0 });

        // Pruner enumeration for leaf point `i`: its candidate set plus
        // (under the symmetric rule) every sibling point of the leaf.
        let rect_pruned_for = |i: usize, sets: &[Vec<Item>], r: Rect| -> bool {
            let q = leaf_points[i].point;
            if sets[i]
                .iter()
                .any(|p| HalfPlane::pruning_region(q, p.point).contains_rect(r))
            {
                return true;
            }
            if symmetric {
                for (j, sib) in leaf_points.iter().enumerate() {
                    if j != i && HalfPlane::pruning_region(q, sib.point).contains_rect(r) {
                        return true;
                    }
                }
            }
            false
        };
        let point_pruned_for = |i: usize, sets: &[Vec<Item>], x: Point| -> bool {
            let q = leaf_points[i].point;
            if sets[i].iter().any(|p| prunes(q, p.point, x)) {
                return true;
            }
            if symmetric {
                for (j, sib) in leaf_points.iter().enumerate() {
                    if j != i && prunes(q, sib.point, x) {
                        return true;
                    }
                }
            }
            false
        };

        let mut entries: Vec<IndexEntry> = Vec::new();
        while let Some(HeapKey { idx, .. }) = heap.pop() {
            stats.filter_heap_pops += 1;
            match targets[idx] {
                IndexEntry::Node(node) => {
                    // Discard only if prunable with respect to *every*
                    // leaf point (Algorithm 7, line 7).
                    if (0..n).all(|i| rect_pruned_for(i, &sets, node.region)) {
                        continue;
                    }
                    entries.clear();
                    stats.filter_node_reads += 1;
                    probe.expand(pg, node, &mut entries);
                    for e in &entries {
                        let key = match e {
                            IndexEntry::Item(it) => centroid.dist_sq(it.point),
                            IndexEntry::Node(child) => child.region.mindist_sq(centroid),
                        };
                        heap.push(HeapKey {
                            key,
                            idx: targets.len(),
                        });
                        targets.push(*e);
                    }
                }
                IndexEntry::Item(it) => {
                    for i in 0..n {
                        if exclude_same_id && it.id == leaf_points[i].id {
                            continue;
                        }
                        if !point_pruned_for(i, &sets, it.point) {
                            sets[i].push(it);
                        }
                    }
                }
            }
        }

        BulkFilterResult { sets }
    }

    /// Lays raw coordinates in `[0, 100)²` out as one of the shapes that
    /// stress pruning ties: uniform, a handful of duplicate sites, a
    /// line, or a coarse grid.
    fn layout(shape: u8, raw: &[(f64, f64)]) -> Vec<Point> {
        raw.iter()
            .map(|&(x, y)| match shape {
                0 => pt(x, y),
                1 => {
                    let site = (x / 20.0).floor();
                    pt(site * 17.0 + 5.0, site * 11.0 + 40.0)
                }
                2 => pt(x, x),
                _ => pt((x / 8.0).floor() * 8.0, (y / 8.0).floor() * 8.0),
            })
            .collect()
    }

    fn coords(
        len: impl Into<proptest::collection::SizeRange>,
    ) -> impl Strategy<Value = Vec<(f64, f64)>> {
        proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), len)
    }

    /// An R*-tree and a quadtree over `points` after one update batch:
    /// `inserts` one by one (R* forced reinsertion; quadtree splits and,
    /// on duplicate sites, overflow chains), then the deletions `deletes`
    /// picks (R* condensing). Returns the trees and their live items.
    fn updated_trees(
        points: &[Point],
        inserts: &[Point],
        deletes: &[usize],
    ) -> (RTree, QuadTree, Vec<Item>) {
        let pager = Pager::new(MemDisk::new(256), 64).into_shared();
        let mut items: Vec<Item> = points
            .iter()
            .enumerate()
            .map(|(i, &p)| Item::new(i as u64, p))
            .collect();
        let mut rtree = bulk_load(pager.clone(), items.clone());
        let mut quad = QuadTree::new(pager, Rect::new(pt(0.0, 0.0), pt(100.0, 100.0)));
        for it in &items {
            quad.insert(it.id, it.point);
        }
        for (k, &p) in inserts.iter().enumerate() {
            let it = Item::new(10_000 + k as u64, p);
            rtree.insert(it);
            quad.insert(it.id, it.point);
            items.push(it);
        }
        for &d in deletes {
            if items.is_empty() {
                break;
            }
            let it = items.swap_remove(d % items.len());
            assert!(rtree.remove(it));
            assert!(quad.remove(it.id, it.point));
        }
        (rtree, quad, items)
    }

    /// Both kernels over `tree`, for BIJ and OBJ, with and without
    /// self-join exclusion: same sets in the same order, same counters.
    /// Cut at `cuts`, the kernel's set `i` is reference set `i`
    /// restricted to squared distance `<= cuts[i]` from its point, in the
    /// same order, and the cut run counts no more than the uncut one.
    fn kernels_agree<I: RcjIndex>(
        tree: &I,
        leaf: &[Item],
        cuts: &[f64],
    ) -> Result<(), TestCaseError> {
        let probe = tree.probe();
        let uncut = vec![f64::INFINITY; leaf.len()];
        for symmetric in [false, true] {
            for exclude in [false, true] {
                let (mut got_stats, mut want_stats) = (RcjStats::default(), RcjStats::default());
                let kernel = |cuts: &[f64], stats: &mut RcjStats| {
                    read_pinned(&tree.pager(), |pg| {
                        bulk_filter_with(&probe, pg, leaf, symmetric, exclude, cuts, stats)
                    })
                };
                let got = kernel(&uncut, &mut got_stats);
                let mut cut_stats = RcjStats::default();
                let got_cut = kernel(cuts, &mut cut_stats);
                let want = read_pinned(&tree.pager(), |pg| {
                    bulk_filter_reference(&probe, pg, leaf, symmetric, exclude, &mut want_stats)
                });
                prop_assert_eq!(
                    &got.sets,
                    &want.sets,
                    "sets differ (symmetric {}, exclude {})",
                    symmetric,
                    exclude
                );
                prop_assert_eq!(got_stats, want_stats);
                let want_cut: Vec<Vec<Item>> = want
                    .sets
                    .iter()
                    .zip(leaf.iter().zip(cuts))
                    .map(|(set, (q, &cut))| {
                        set.iter()
                            .copied()
                            .filter(|p| q.point.dist_sq(p.point) <= cut)
                            .collect()
                    })
                    .collect();
                prop_assert_eq!(
                    &got_cut.sets,
                    &want_cut,
                    "cut sets differ (cuts {:?}, symmetric {}, exclude {})",
                    cuts,
                    symmetric,
                    exclude
                );
                prop_assert!(cut_stats.filter_heap_pops <= got_stats.filter_heap_pops);
                prop_assert!(cut_stats.filter_node_reads <= got_stats.filter_node_reads);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The live-set kernel returns exactly what testing every popped
        /// entry for every leaf point returns — sets, their order,
        /// `filter_heap_pops` and `filter_node_reads` — on R*-trees and
        /// quadtrees after an update batch, for leaves of 1 to 130
        /// points (more than 64 needs a multi-word live set). A leaf is
        /// either a subset of the tree's own items (as in a self-join,
        /// where exclusion bites) or fresh points. Each leaf point has
        /// its own cut: random, the exact squared distance from the
        /// point to one item (so ties at the cut occur), −∞ (a point
        /// that can end no windowed pair) or +∞.
        #[test]
        fn bulk_filter_matches_the_reference_loop(
            shape in 0u8..4,
            raw in coords(0..200),
            inserts in coords(0..60),
            deletes in proptest::collection::vec(any::<usize>(), 0..60),
            leaf_size in prop_oneof![1usize..20, 20usize..65, 65usize..131],
            own_items in any::<bool>(),
            leaf_raw in coords(130),
            offset in any::<usize>(),
            cut_kinds in proptest::collection::vec(0u8..4, 130),
            cut_items in proptest::collection::vec(any::<usize>(), 130),
            random_cuts in proptest::collection::vec(0.0..5000.0f64, 130),
        ) {
            let (rtree, quad, items) = updated_trees(
                &layout(shape, &raw),
                &layout(shape, &inserts),
                &deletes,
            );
            let leaf: Vec<Item> = if own_items && !items.is_empty() {
                (0..leaf_size.min(items.len()))
                    .map(|k| items[(offset % items.len() + k) % items.len()])
                    .collect()
            } else {
                layout(shape, &leaf_raw[..leaf_size])
                    .into_iter()
                    .enumerate()
                    .map(|(k, p)| Item::new(1_000_000 + k as u64, p))
                    .collect()
            };
            let cuts: Vec<f64> = leaf
                .iter()
                .enumerate()
                .map(|(i, q)| match (cut_kinds[i], items.len()) {
                    (1, n) if n > 0 => q.point.dist_sq(items[cut_items[i] % n].point),
                    (2, _) => f64::NEG_INFINITY,
                    (3, _) => f64::INFINITY,
                    _ => random_cuts[i],
                })
                .collect();
            kernels_agree(&rtree, &leaf, &cuts)?;
            kernels_agree(&quad, &leaf, &cuts)?;
        }
    }
}
