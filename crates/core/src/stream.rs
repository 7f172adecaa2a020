//! Lazy, bounded-memory result streaming for the RCJ.
//!
//! The paper's algorithms are described as "compute the whole join" —
//! but their structure is naturally incremental: every driver processes
//! the outer tree one leaf group at a time, and each leaf group's
//! contribution is final the moment it is produced. This module exposes
//! that seam in two pieces:
//!
//! * [`PairSink`] — the emission half. The generic INJ/BIJ/OBJ drivers
//!   report result pairs through this trait instead of pushing into a
//!   `Vec`; a sink may stop the run early. `Vec<RcjPair>` implements it
//!   (never stopping), which is all [`rcj_join`](crate::rcj_join) needs
//!   to keep its one-shot shape.
//! * [`RcjStream`] — the consumption half: a lazy iterator over result
//!   pairs. Two sources back it:
//!   * **leaf order** — the one-shot join's leaf pass, suspended between
//!     batches. With one worker a batch is one outer leaf group, read
//!     with no prefetch, so a drained stream reads what
//!     [`Plan::collect`](crate::Plan::collect) reads. With more, a batch
//!     is a *wave* of `workers × 4` leaf groups on the work-stealing
//!     executor, over per-worker
//!     [`PooledPager`](ringjoin_storage::PooledPager)s that all account
//!     into the pager's [buffer pool](ringjoin_storage::Pager::pool) and
//!     merged on the leaf tag. The pair sequence is **identical** to
//!     [`rcj_join`](crate::rcj_join) under either executor; memory stays
//!     bounded by one wave, and the cache stays warm across waves and
//!     across runs;
//!   * **ascending ring diameter** — an index-agnostic incremental
//!     distance join (Hjaltason–Samet) over the two probes, with each
//!     candidate lazily verified. Since candidate distance *is* ring
//!     diameter, taking the first `k` pairs answers a top-k query with
//!     early exit: the traversal never expands subtree pairs further
//!     than the `k`-th diameter. That bound is loose in one way that
//!     sets the cost: every pair of *overlapping* regions is at
//!     distance 0, so the whole overlap of the two trees is expanded
//!     before the first pair of positive diameter is emitted. Two rules
//!     keep that walk small. **Sibling pruning** (Lemma 1, with Lemma
//!     5's free pruners) drops an item pair when another item of the
//!     node just read lies strictly inside its circle. **One read per
//!     partner node** pairs the children of an expanded node that meet
//!     the (larger) partner node's region with the partner's entries
//!     directly, instead of re-reading the partner once per child. The
//!     order is canonical (diameter, then pair key), and only pairs
//!     verification would reject are dropped, so neither rule changes a
//!     pair or its position. On the SP pair of the paper's real data
//!     (21,523 × 22,247 points) a top-10 reads 5,998 pages, a sixth of a
//!     full join's 34,947.
//!
//! The engine's [`Plan::stream`](crate::Plan::stream) picks the source;
//! the free functions [`rcj_stream`], [`rcj_self_stream`],
//! [`rcj_stream_by_diameter`] and [`rcj_self_stream_by_diameter`] build
//! streams directly over trees.

use crate::executor::{run_stealing, Readers};
use crate::index::{IndexEntry, IndexProbe, NodeRef, RcjIndex};
use crate::join::{LeafPass, RcjOptions};
use crate::pair::RcjPair;
use crate::stats::RcjStats;
use crate::verify::verify_with;
use ringjoin_geom::{Circle, Item, Point, Rect};
use ringjoin_storage::{BufferPool, Prefetcher, SharedPager};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Receiver of RCJ result pairs.
///
/// The join drivers emit every verified pair through a sink. Returning
/// `false` asks the driver to stop: the sequential executor abandons the
/// remaining outer leaves (see [`rcj_join_into`](crate::rcj_join_into)),
/// which is what gives streams and top-k queries their early exit.
pub trait PairSink {
    /// Receives one result pair; returns `false` to stop the run.
    fn push(&mut self, pair: RcjPair) -> bool;
}

/// The materialising sink: plain collection, never stops.
impl PairSink for Vec<RcjPair> {
    fn push(&mut self, pair: RcjPair) -> bool {
        self.push(pair);
        true
    }
}

/// Receiver of RCJ result pairs tagged with the **global outer-leaf
/// index** that produced them.
///
/// The tag is what makes distributed execution mergeable: a shard
/// router runs [`rcj_join_leaves_pooled`](crate::rcj_join_leaves_pooled)
/// over disjoint leaf subsets and orders the union of tagged pairs by
/// leaf index, reproducing the single-engine output byte for byte (the
/// router adds its own shard id as provenance). Returning `false` asks
/// the driver to stop early, as with [`PairSink`].
pub trait TaggedPairSink {
    /// Receives one result pair produced by outer leaf group `leaf`;
    /// returns `false` to stop the run.
    fn push(&mut self, leaf: usize, pair: RcjPair) -> bool;
}

/// The materialising tagged sink: collects `(leaf, pair)`, never stops.
impl TaggedPairSink for Vec<(usize, RcjPair)> {
    fn push(&mut self, leaf: usize, pair: RcjPair) -> bool {
        self.push((leaf, pair));
        true
    }
}

/// Internal supplier of pair batches (one outer leaf group, one wave of
/// leaf groups, or one diameter-ordered candidate per call).
trait BatchSource {
    /// Appends the next batch of pairs to `out` (possibly none), charging
    /// counters to `stats`. Returns `false` when the stream is exhausted.
    fn next_batch(&mut self, out: &mut Vec<RcjPair>, stats: &mut RcjStats) -> bool;
}

/// A lazy iterator over RCJ result pairs.
///
/// Built by [`Plan::stream`](crate::Plan::stream) or the free
/// [`rcj_stream`]-family constructors. Leaf-order streams yield exactly
/// the [`rcj_join`](crate::rcj_join) output — same pairs, same order —
/// while holding at most one leaf batch (sequential) or one wave
/// (parallel) in memory. Diameter-order streams yield pairs in ascending
/// ring diameter with early exit.
pub struct RcjStream {
    source: Box<dyn BatchSource>,
    buf: VecDeque<RcjPair>,
    scratch: Vec<RcjPair>,
    stats: RcjStats,
    limit: Option<usize>,
    yielded: usize,
}

impl RcjStream {
    fn new(source: Box<dyn BatchSource>) -> Self {
        RcjStream {
            source,
            buf: VecDeque::new(),
            scratch: Vec::new(),
            stats: RcjStats::default(),
            limit: None,
            yielded: 0,
        }
    }

    /// Caps the stream at `k` pairs: after the `k`-th pair the stream
    /// ends and no further index page is read. This is the top-k early
    /// exit when combined with a diameter-ordered stream.
    pub fn limit(mut self, k: usize) -> Self {
        self.limit = Some(k);
        self
    }

    /// Counters accumulated so far. `result_pairs` counts the pairs
    /// *produced* by the underlying driver (at least the pairs yielded;
    /// a leaf-order stream may have buffered a few more from the current
    /// batch).
    pub fn stats(&self) -> RcjStats {
        self.stats
    }
}

impl Iterator for RcjStream {
    type Item = RcjPair;

    fn next(&mut self) -> Option<RcjPair> {
        if self.limit.is_some_and(|k| self.yielded >= k) {
            return None;
        }
        while self.buf.is_empty() {
            self.scratch.clear();
            if !self.source.next_batch(&mut self.scratch, &mut self.stats) {
                return None;
            }
            self.buf.extend(self.scratch.drain(..));
        }
        self.yielded += 1;
        self.buf.pop_front()
    }
}

// ---------------------------------------------------------------------
// Leaf-order source
// ---------------------------------------------------------------------

/// Number of outer leaf groups each worker processes per wave of the
/// parallel stream. Small enough to bound buffered output, large enough
/// to amortise the scoped-thread spawn.
const WAVE_LEAVES_PER_WORKER: usize = 4;

/// Leaf-order source: the one-shot join's [`LeafPass`], suspended
/// between batches. With one worker a batch is one leaf group, read with
/// no prefetch, so a drained stream reads what
/// [`Plan::collect`](crate::Plan::collect) reads. With more, a batch is
/// a wave of `workers × WAVE_LEAVES_PER_WORKER` leaf groups on the
/// work-stealing executor, whose merge on the leaf tag keeps the
/// sequential order.
///
/// The source is **pinned to the epoch it was opened at**: construction
/// captures each pager's page source and current epoch into private
/// [`Readers`] handles on the pager's buffer, so a mutation batch
/// ([`Pager::begin_epoch`](ringjoin_storage::Pager::begin_epoch)) landing
/// while the stream is suspended between batches cannot change what the
/// remaining batches read — the stream drains the snapshot it started on.
struct LeafSource<PQ: IndexProbe, PP: IndexProbe> {
    pass: LeafPass<PQ, PP>,
    /// Owning pagers, kept to absorb the readers' I/O counters when the
    /// stream is dropped (consumed or abandoned).
    pager_q: SharedPager,
    pager_p: SharedPager,
    /// Each worker's handles, kept across waves. The cache itself is
    /// the pager's buffer — residency survives waves, workers and whole
    /// runs; only the per-worker counters are private here.
    readers: Vec<Readers>,
    /// Stages a disk-native parallel stream's upcoming leaf pages;
    /// `None` for resident sources and for the sequential stream.
    prefetcher: Option<Prefetcher>,
    pos: usize,
}

impl<PQ: IndexProbe, PP: IndexProbe> BatchSource for LeafSource<PQ, PP> {
    fn next_batch(&mut self, out: &mut Vec<RcjPair>, stats: &mut RcjStats) -> bool {
        let n = self.pass.leaves.len();
        if self.pos >= n {
            return false;
        }
        if let [reader] = &mut self.readers[..] {
            self.pass.run(self.pos, &mut reader.pagers(), out, stats);
            self.pos += 1;
        } else {
            let end = n.min(self.pos + self.readers.len() * WAVE_LEAVES_PER_WORKER);
            out.extend(run_stealing(
                &self.pass,
                self.pos..end,
                &mut self.readers,
                self.prefetcher.as_ref(),
                stats,
            ));
            self.pos = end;
        }
        true
    }
}

impl<PQ: IndexProbe, PP: IndexProbe> Drop for LeafSource<PQ, PP> {
    /// Folds the readers' I/O counters back into the owning pagers so
    /// aggregate statistics match the whole-run executor's accounting
    /// even for partially consumed streams.
    fn drop(&mut self) {
        for r in &self.readers {
            r.absorb(&self.pager_q, &self.pager_p);
        }
    }
}

// ---------------------------------------------------------------------
// Diameter-order source (top-k)
// ---------------------------------------------------------------------

/// Traversal target of the incremental distance join: an index node (with
/// its subtree-bounding region) or a data item.
#[derive(Clone, Copy)]
enum CpRef {
    Node(NodeRef),
    Item(Item),
}

impl CpRef {
    fn rect(&self) -> Rect {
        match self {
            CpRef::Node(n) => n.region,
            CpRef::Item(it) => Rect::from_point(it.point),
        }
    }
}

impl From<IndexEntry> for CpRef {
    fn from(e: IndexEntry) -> CpRef {
        match e {
            IndexEntry::Item(it) => CpRef::Item(it),
            IndexEntry::Node(n) => CpRef::Node(n),
        }
    }
}

/// The tree a traversal target comes from: `P` targets are the first
/// member of every heap pair, `Q` targets the second.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    P,
    Q,
}

impl Side {
    fn other(self) -> Side {
        match self {
            Side::P => Side::Q,
            Side::Q => Side::P,
        }
    }
}

/// Heap element: a pair of targets ordered by ascending mindist; ties
/// order node expansions first, then item pairs by ascending pair key
/// (see [`CpElem::rank`]), then insertion sequence.
struct CpElem {
    key: f64,
    seq: u64,
    a: CpRef,
    b: CpRef,
}

impl CpElem {
    /// Tie rank among elements at the same distance key: elements still
    /// containing a node come first (a node at mindist `d` may hide a
    /// pair of diameter exactly `d` with a smaller key, so it must be
    /// expanded before any tied pair is emitted), then item-item pairs
    /// in ascending pair key. This makes the emission order of
    /// equal-diameter pairs **canonical** — independent of traversal
    /// history — which is what lets a sharded k-bounded merge keyed on
    /// `(diameter, pair key)` reproduce the single-engine stream byte
    /// for byte even through exact ties (duplicate coordinates).
    fn rank(&self) -> (u8, (u64, u64)) {
        match (&self.a, &self.b) {
            (CpRef::Item(p), CpRef::Item(q)) => (1, (p.id, q.id)),
            _ => (0, (0, 0)),
        }
    }
}

impl PartialEq for CpElem {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for CpElem {}
impl PartialOrd for CpElem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CpElem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed comparisons: BinaryHeap is a max-heap, and the
        // traversal needs the smallest (key, rank, seq) on top.
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.rank().cmp(&self.rank()))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Which node of a popped node pair `(a, b)` is expanded: the larger one
/// (the classic heuristic), `a` on ties.
fn expands_p_side(a: NodeRef, b: NodeRef) -> bool {
    a.region.area() >= b.region.area()
}

/// The traversal frontier: the heap of target pairs. Every push applies
/// the shard-cell restriction and, in a self-join, drops the item pairs
/// that are never reported.
struct Frontier {
    heap: BinaryHeap<CpElem>,
    seq: u64,
    self_join: bool,
    /// Restriction of the `Q` side to one shard's cell: only pairs whose
    /// `q` lies in the region (half-open membership, so adjacent cells
    /// partition boundary points) are emitted, and `q`-subtrees disjoint
    /// from the region are never expanded. `None` = unrestricted.
    q_region: Option<Rect>,
}

impl Frontier {
    /// May the `Q`-side target `b` still produce an in-region `q`?
    /// Nodes use a (conservative, closed) intersection test; items use
    /// the exact half-open membership.
    fn q_side_admissible(&self, b: &CpRef) -> bool {
        match (self.q_region, b) {
            (None, _) => true,
            (Some(region), CpRef::Node(n)) => n.region.intersects(region),
            (Some(region), CpRef::Item(it)) => region.contains_point_half_open(it.point),
        }
    }

    fn push(&mut self, a: CpRef, b: CpRef) {
        if !self.q_side_admissible(&b) {
            // Outside this shard's cell: the subtree (or point) cannot
            // contribute an owned pair, so it never enters the heap.
            return;
        }
        let key = match (&a, &b) {
            // Self-joins meet each unordered pair from both sides (and
            // each point against itself); only the smaller-id-first
            // orientation is ever reported.
            (CpRef::Item(p), CpRef::Item(q)) if self.self_join && p.id >= q.id => return,
            (CpRef::Item(p), CpRef::Item(q)) => p.point.dist_sq(q.point),
            _ => a.rect().mindist_rect_sq(b.rect()),
        };
        self.seq += 1;
        self.heap.push(CpElem {
            key,
            seq: self.seq,
            a,
            b,
        });
    }

    /// Pushes the pair of `x`, a target of `side`'s tree, and `y`, a
    /// target of the other tree.
    fn push_from(&mut self, side: Side, x: CpRef, y: CpRef) {
        match side {
            Side::P => self.push(x, y),
            Side::Q => self.push(y, x),
        }
    }
}

/// Diameter-ordered source: an index-agnostic incremental distance join
/// over the two probes (`a` targets from `T_P`, `b` targets from `T_Q`),
/// lazily verifying each candidate. Candidate distance equals ring
/// diameter, so the emission order is ascending diameter, ties in
/// ascending pair key ([`CpElem::rank`]), and every RCJ pair eventually
/// appears if the stream is fully drained.
///
/// Every pair of overlapping regions has mindist 0, so all of them are
/// expanded before the first pair of positive diameter is emitted: even a
/// top-10 walks the whole overlap of the two trees. Two rules keep that
/// walk small. Neither moves the output, because the order is canonical
/// (independent of when a node is expanded) and only pairs verification
/// would reject are dropped:
///
/// * **Sibling pruning** (Lemma 1 with Lemma 5's free pruners): a node
///   expanded against a fixed item `f` does not push its item `x` when
///   a sibling item lies strictly inside the circle with diameter
///   `x f` — the exact predicate verification applies. Verified
///   streams only.
/// * **One read per partner node**: expanding node `A` against node `B`
///   queues `(child, B)` for each child of `A`. A child that meets `B`'s
///   region has key 0, and if `B` is the larger of the two, popping that
///   pair would read `B`, once per such child. Instead `B` is read once
///   and those children are paired with its entries directly. Every
///   other child stays a lazy `(child, B)` pair, so each node pair is
///   expanded on the same side as before.
///
/// Like the leaf-order sources, the traversal is **pinned to the epoch
/// it was opened at**: expansion and verification read through private
/// [`Readers`] handles captured at construction, so a top-k stream
/// being drained incrementally keeps its answer set stable across
/// concurrent mutation batches.
struct DiameterSource<PQ: IndexProbe, PP: IndexProbe> {
    probe_q: PQ,
    probe_p: PP,
    /// Owning pagers, kept to absorb the pinned handles' I/O counters
    /// when the stream is dropped (consumed or abandoned).
    pager_q: SharedPager,
    pager_p: SharedPager,
    readers: Readers,
    frontier: Frontier,
    /// Entries of the node being expanded and of its partner node.
    entries: Vec<IndexEntry>,
    partner: Vec<IndexEntry>,
    /// Sibling-pruning scratch: the node's items with their squared
    /// distance to the fixed item, and the points of the items kept.
    order: Vec<(f64, Item)>,
    kept: Vec<Point>,
    verify: bool,
    face_rule: bool,
}

impl<PQ: IndexProbe, PP: IndexProbe> DiameterSource<PQ, PP> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        probe_q: PQ,
        probe_p: PP,
        pager_q: SharedPager,
        pager_p: SharedPager,
        self_join: bool,
        q_region: Option<Rect>,
        pool: Option<&BufferPool>,
        opts: &RcjOptions,
    ) -> Self {
        let readers = Readers::pin(&pager_q, &pager_p, pool);
        let mut src = DiameterSource {
            probe_q,
            probe_p,
            pager_q,
            pager_p,
            readers,
            frontier: Frontier {
                heap: BinaryHeap::new(),
                seq: 0,
                self_join,
                q_region,
            },
            entries: Vec::new(),
            partner: Vec::new(),
            order: Vec::new(),
            kept: Vec::new(),
            verify: !opts.skip_verification,
            face_rule: !opts.no_face_rule,
        };
        src.frontier
            .push(CpRef::Node(probe_p.root()), CpRef::Node(probe_q.root()));
        src
    }

    /// Decodes `node` of `side`'s tree into `out`.
    fn read(&mut self, side: Side, node: NodeRef, out: &mut Vec<IndexEntry>, stats: &mut RcjStats) {
        stats.filter_node_reads += 1;
        out.clear();
        let mut pagers = self.readers.pagers();
        match side {
            Side::P => self.probe_p.expand(pagers.p(), node, out),
            Side::Q => self.probe_q.expand(pagers.q(), node, out),
        }
    }

    /// Expands `node` of `side`'s tree against the fixed item `f`.
    fn expand_against_item(&mut self, side: Side, node: NodeRef, f: Item, stats: &mut RcjStats) {
        let mut entries = std::mem::take(&mut self.entries);
        self.read(side, node, &mut entries, stats);
        self.push_against_item(side, &entries, f);
        self.entries = entries;
    }

    /// Expands `node` of `side`'s tree against `partner`, a node of the
    /// other tree, reading `partner` at most once (see the type docs).
    fn expand_against_node(
        &mut self,
        side: Side,
        node: NodeRef,
        partner: NodeRef,
        stats: &mut RcjStats,
    ) {
        let mut entries = std::mem::take(&mut self.entries);
        let mut partner_entries = std::mem::take(&mut self.partner);
        self.read(side, node, &mut entries, stats);
        let mut partner_read = false;
        for &e in &entries {
            let child = CpRef::from(e);
            if side == Side::Q && !self.frontier.q_side_admissible(&child) {
                continue;
            }
            // Would the pair `(child, partner)` expand the partner when
            // popped? Then, at key 0, expand it now.
            let partner_next = match (child, side) {
                (CpRef::Item(_), _) => true,
                (CpRef::Node(c), Side::P) => !expands_p_side(c, partner),
                (CpRef::Node(c), Side::Q) => expands_p_side(partner, c),
            };
            if !partner_next || child.rect().mindist_rect_sq(partner.region) > 0.0 {
                self.frontier.push_from(side, child, CpRef::Node(partner));
                continue;
            }
            if !partner_read {
                if self.frontier.self_join && partner.page == node.page {
                    // A self-join pairs each node with itself: its
                    // entries are already in hand.
                    partner_entries.clone_from(&entries);
                } else {
                    self.read(side.other(), partner, &mut partner_entries, stats);
                }
                partner_read = true;
            }
            match child {
                CpRef::Item(f) => self.push_against_item(side.other(), &partner_entries, f),
                CpRef::Node(_) => {
                    for &pe in &partner_entries {
                        self.frontier.push_from(side, child, CpRef::from(pe));
                    }
                }
            }
        }
        self.entries = entries;
        self.partner = partner_entries;
    }

    /// Pushes the pair of every entry of one node of `side`'s tree with
    /// the fixed item `f` of the other tree. Child nodes are pushed as
    /// they are; child items are sibling-pruned when the stream verifies.
    ///
    /// A sibling `y` strictly inside the circle with diameter `x f` is
    /// strictly closer to `f` than `x`, so the items are taken nearest
    /// first and each is tested only against the items kept before it
    /// (Algorithm 2's loop).
    fn push_against_item(&mut self, side: Side, entries: &[IndexEntry], f: Item) {
        let fixed = CpRef::Item(f);
        self.order.clear();
        for e in entries {
            match *e {
                IndexEntry::Node(n) => self.frontier.push_from(side, CpRef::Node(n), fixed),
                IndexEntry::Item(x) if self.verify => {
                    self.order.push((x.point.dist_sq(f.point), x));
                }
                IndexEntry::Item(x) => self.frontier.push_from(side, CpRef::Item(x), fixed),
            }
        }
        self.order
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.id.cmp(&b.1.id)));
        self.kept.clear();
        for &(_, x) in &self.order {
            // The pair's (p, q) order, as verification tests it.
            let (p, q) = match side {
                Side::P => (x.point, f.point),
                Side::Q => (f.point, x.point),
            };
            if self
                .kept
                .iter()
                .any(|&y| Circle::strictly_contains_diameter(y, p, q))
            {
                continue;
            }
            self.kept.push(x.point);
            self.frontier.push_from(side, CpRef::Item(x), fixed);
        }
    }
}

impl<PQ: IndexProbe, PP: IndexProbe> BatchSource for DiameterSource<PQ, PP> {
    fn next_batch(&mut self, out: &mut Vec<RcjPair>, stats: &mut RcjStats) -> bool {
        while let Some(elem) = self.frontier.heap.pop() {
            stats.filter_heap_pops += 1;
            match (elem.a, elem.b) {
                (CpRef::Item(p), CpRef::Item(q)) => {
                    let pair = RcjPair::new(p, q);
                    stats.candidate_pairs += 1;
                    let mut alive = [true];
                    if self.verify {
                        let mut pagers = self.readers.pagers();
                        verify_with(
                            &self.probe_q,
                            pagers.q(),
                            &[pair],
                            &mut alive,
                            self.face_rule,
                            stats,
                        );
                        if alive[0] && !self.frontier.self_join {
                            verify_with(
                                &self.probe_p,
                                pagers.p(),
                                &[pair],
                                &mut alive,
                                self.face_rule,
                                stats,
                            );
                        }
                    }
                    if alive[0] {
                        stats.result_pairs += 1;
                        out.push(pair);
                        return true;
                    }
                }
                (CpRef::Node(na), CpRef::Node(nb)) => {
                    if expands_p_side(na, nb) {
                        self.expand_against_node(Side::P, na, nb, stats);
                    } else {
                        self.expand_against_node(Side::Q, nb, na, stats);
                    }
                }
                (CpRef::Node(na), CpRef::Item(f)) => {
                    self.expand_against_item(Side::P, na, f, stats)
                }
                (CpRef::Item(f), CpRef::Node(nb)) => {
                    self.expand_against_item(Side::Q, nb, f, stats)
                }
            }
        }
        false
    }
}

impl<PQ: IndexProbe, PP: IndexProbe> Drop for DiameterSource<PQ, PP> {
    /// Folds the pinned handles' I/O counters back into the owning
    /// pagers, mirroring [`LeafSource`]'s accounting.
    fn drop(&mut self) {
        self.readers.absorb(&self.pager_q, &self.pager_p);
    }
}

// ---------------------------------------------------------------------
// Constructors
// ---------------------------------------------------------------------

fn leaf_stream<IQ: RcjIndex, IP: RcjIndex>(
    tq: &IQ,
    tp: &IP,
    self_join: bool,
    opts: &RcjOptions,
) -> RcjStream {
    let pass = LeafPass::new(tq, tp, self_join, opts);
    let (pager_q, pager_p) = (tq.pager(), tp.pager());
    let pinned = Readers::pin(&pager_q, &pager_p, None);
    let workers = pass.workers();
    let prefetcher = if workers > 1 {
        pinned.prefetcher()
    } else {
        None
    };
    RcjStream::new(Box::new(LeafSource {
        pass,
        pager_q,
        pager_p,
        readers: vec![pinned; workers],
        prefetcher,
        pos: 0,
    }))
}

/// Lazily streams the RCJ of `(tq, tp)` in deterministic leaf order —
/// the same pairs in the same order as
/// [`rcj_join`](crate::rcj_join) with the same options, with memory
/// bounded by one leaf batch (sequential executor) or one wave
/// (parallel executor).
pub fn rcj_stream<IQ: RcjIndex, IP: RcjIndex>(tq: &IQ, tp: &IP, opts: &RcjOptions) -> RcjStream {
    leaf_stream(tq, tp, false, opts)
}

/// Lazily streams the self-RCJ of one dataset; the streaming analogue of
/// [`rcj_self_join`](crate::rcj_self_join).
pub fn rcj_self_stream<I: RcjIndex>(tree: &I, opts: &RcjOptions) -> RcjStream {
    leaf_stream(tree, tree, true, opts)
}

/// Streams the RCJ of `(tq, tp)` in **ascending ring diameter** order —
/// the tourist-recommendation ranking, ties in ascending pair key.
/// Combine with [`RcjStream::limit`] (or just `take(k)`) for a top-k
/// query with early exit: no node pair farther apart than the `k`-th
/// diameter is expanded.
///
/// What a top-k costs: every pair of overlapping index regions is at
/// distance 0, so the stream expands the whole overlap of the two trees
/// before it emits the first pair of positive diameter. Sibling pruning
/// and one read per partner node (see the module docs) keep that walk
/// to a fraction of a full join's pages without changing a pair.
/// Honors `opts.skip_verification` (which also turns sibling pruning
/// off, so every raw candidate is emitted) and `opts.no_face_rule`; the
/// executor choice is ignored (the incremental traversal is inherently
/// sequential).
pub fn rcj_stream_by_diameter<IQ: RcjIndex, IP: RcjIndex>(
    tq: &IQ,
    tp: &IP,
    opts: &RcjOptions,
) -> RcjStream {
    RcjStream::new(Box::new(DiameterSource::new(
        tq.probe(),
        tp.probe(),
        tq.pager(),
        tp.pager(),
        false,
        None,
        None,
        opts,
    )))
}

/// [`rcj_stream_by_diameter`] restricted to one shard's cell: only
/// pairs whose `q` lies in `q_region` (half-open membership:
/// min-inclusive, max-exclusive) are emitted, and `Q`-subtrees disjoint
/// from the region are never expanded. Pages are read through `pool`,
/// the caller's page budget, rather than the pagers' own buffers.
///
/// Running this stream per cell of a space partition yields **disjoint**
/// sub-streams whose union is exactly the unrestricted stream — so a
/// shard router can merge per-shard diameter-ordered streams with a
/// k-bounded heap and keep the top-k early exit across shards.
pub fn rcj_stream_by_diameter_in<IQ: RcjIndex, IP: RcjIndex>(
    tq: &IQ,
    tp: &IP,
    q_region: Rect,
    pool: &BufferPool,
    opts: &RcjOptions,
) -> RcjStream {
    RcjStream::new(Box::new(DiameterSource::new(
        tq.probe(),
        tp.probe(),
        tq.pager(),
        tp.pager(),
        false,
        Some(q_region),
        Some(pool),
        opts,
    )))
}

/// Diameter-ordered self-RCJ stream; each unordered pair appears once,
/// smaller id first. See [`rcj_stream_by_diameter`].
pub fn rcj_self_stream_by_diameter<I: RcjIndex>(tree: &I, opts: &RcjOptions) -> RcjStream {
    RcjStream::new(Box::new(DiameterSource::new(
        tree.probe(),
        tree.probe(),
        tree.pager(),
        tree.pager(),
        true,
        None,
        None,
        opts,
    )))
}

/// [`rcj_self_stream_by_diameter`] restricted to one shard's cell: a
/// pair `{i, j}` (reported `p.id < q.id`) is owned by the cell that
/// contains its **larger-id** endpoint, so per-cell streams partition
/// the self-join result exactly as the bichromatic variant does. See
/// [`rcj_stream_by_diameter_in`].
pub fn rcj_self_stream_by_diameter_in<I: RcjIndex>(
    tree: &I,
    q_region: Rect,
    pool: &BufferPool,
    opts: &RcjOptions,
) -> RcjStream {
    RcjStream::new(Box::new(DiameterSource::new(
        tree.probe(),
        tree.probe(),
        tree.pager(),
        tree.pager(),
        true,
        Some(q_region),
        Some(pool),
        opts,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pair_keys, rcj_join, rcj_self_join, sort_by_diameter, Executor, RcjAlgorithm};
    use ringjoin_geom::pt;
    use ringjoin_rtree::bulk_load;
    use ringjoin_storage::{MemDisk, Pager, SharedPager};

    fn pager() -> SharedPager {
        Pager::new(MemDisk::new(512), 64).into_shared()
    }

    fn items(n: usize, seed: u64, span: f64) -> Vec<Item> {
        ringjoin_testsupport::lcg_points(n, seed, span)
            .into_iter()
            .enumerate()
            .map(|(i, (x, y))| Item::new(i as u64, pt(x, y)))
            .collect()
    }

    #[test]
    fn sequential_stream_equals_materialised_join() {
        let pg = pager();
        let tp = bulk_load(pg.clone(), items(400, 3, 2000.0));
        let tq = bulk_load(pg.clone(), items(400, 5, 2000.0));
        for algo in [RcjAlgorithm::Inj, RcjAlgorithm::Bij, RcjAlgorithm::Obj] {
            let opts = RcjOptions::algorithm(algo).with_executor(Executor::Sequential);
            let full = rcj_join(&tq, &tp, &opts);
            let mut stream = rcj_stream(&tq, &tp, &opts);
            let streamed: Vec<RcjPair> = stream.by_ref().collect();
            assert_eq!(streamed, full.pairs, "{}", algo.name());
            assert_eq!(stream.stats(), full.stats, "{}", algo.name());
        }
    }

    #[test]
    fn parallel_stream_equals_materialised_join() {
        let pg = pager();
        let tp = bulk_load(pg.clone(), items(500, 7, 3000.0));
        let tq = bulk_load(pg.clone(), items(500, 11, 3000.0));
        for threads in [2, 4, 8] {
            let opts = RcjOptions::default().with_executor(Executor::Parallel { threads });
            let full = rcj_join(&tq, &tp, &opts);
            let mut stream = rcj_stream(&tq, &tp, &opts);
            let streamed: Vec<RcjPair> = stream.by_ref().collect();
            assert_eq!(streamed, full.pairs, "threads={threads}");
            assert_eq!(stream.stats(), full.stats, "threads={threads}");
        }
    }

    #[test]
    fn parallel_stream_absorbs_io_counters() {
        let pg = pager();
        let tp = bulk_load(pg.clone(), items(400, 13, 2500.0));
        let tq = bulk_load(pg.clone(), items(400, 17, 2500.0));
        let opts = RcjOptions::default().with_executor(Executor::Parallel { threads: 4 });

        let before = pg.borrow().stats();
        let seq_opts = RcjOptions::default().with_executor(Executor::Sequential);
        let _ = rcj_join(&tq, &tp, &seq_opts);
        let seq_reads = pg.borrow().stats().since(before).logical_reads;

        let before = pg.borrow().stats();
        {
            let stream = rcj_stream(&tq, &tp, &opts);
            let _: Vec<RcjPair> = stream.collect();
        } // drop absorbs worker counters
        let par_reads = pg.borrow().stats().since(before).logical_reads;
        assert_eq!(seq_reads, par_reads);
    }

    #[test]
    fn self_join_stream_equals_materialised() {
        let pg = pager();
        let tree = bulk_load(pg.clone(), items(400, 19, 1500.0));
        for threads in [1, 4] {
            let opts = RcjOptions::default().with_executor(Executor::threads(threads));
            let full = rcj_self_join(&tree, &opts);
            let streamed: Vec<RcjPair> = rcj_self_stream(&tree, &opts).collect();
            assert_eq!(streamed, full.pairs, "threads={threads}");
        }
    }

    #[test]
    fn diameter_stream_is_sorted_and_complete() {
        let pg = pager();
        let tp = bulk_load(pg.clone(), items(150, 23, 800.0));
        let tq = bulk_load(pg.clone(), items(150, 29, 800.0));
        let opts = RcjOptions::default();
        let all: Vec<RcjPair> = rcj_stream_by_diameter(&tq, &tp, &opts).collect();
        for w in all.windows(2) {
            assert!(w[0].diameter() <= w[1].diameter());
        }
        let full = rcj_join(&tq, &tp, &opts);
        assert_eq!(pair_keys(&all), pair_keys(&full.pairs));
    }

    #[test]
    fn diameter_stream_prefix_matches_sorted_join() {
        let pg = pager();
        let tp = bulk_load(pg.clone(), items(300, 31, 2000.0));
        let tq = bulk_load(pg.clone(), items(300, 37, 2000.0));
        let opts = RcjOptions::default();
        let mut full = rcj_join(&tq, &tp, &opts).pairs;
        sort_by_diameter(&mut full);
        let top: Vec<RcjPair> = rcj_stream_by_diameter(&tq, &tp, &opts).limit(25).collect();
        assert_eq!(top.len(), 25);
        for (s, f) in top.iter().zip(full.iter()) {
            assert_eq!(s.key(), f.key());
        }
    }

    #[test]
    fn unverified_diameter_stream_emits_every_raw_candidate() {
        // Sibling pruning is a verification shortcut: without
        // verification the stream must emit the whole cross product, in
        // ascending squared diameter and then pair key.
        let pg = pager();
        let ps = items(60, 61, 500.0);
        let qs = items(70, 67, 500.0);
        let tp = bulk_load(pg.clone(), ps.clone());
        let tq = bulk_load(pg.clone(), qs.clone());
        let opts = RcjOptions {
            skip_verification: true,
            ..RcjOptions::default()
        };
        let all: Vec<RcjPair> = rcj_stream_by_diameter(&tq, &tp, &opts).collect();
        let mut expect: Vec<RcjPair> = ps
            .iter()
            .flat_map(|&p| qs.iter().map(move |&q| RcjPair::new(p, q)))
            .collect();
        let rank = |pr: &RcjPair| (pr.p.point.dist_sq(pr.q.point), pr.key());
        expect.sort_by(|a, b| rank(a).partial_cmp(&rank(b)).unwrap());
        assert_eq!(all, expect);

        let tree = bulk_load(pg, ps);
        let pairs = rcj_self_stream_by_diameter(&tree, &opts).count();
        assert_eq!(pairs, 60 * 59 / 2);
    }

    #[test]
    fn diameter_self_stream_reports_each_pair_once() {
        let pg = pager();
        let tree = bulk_load(pg.clone(), items(200, 41, 1000.0));
        let opts = RcjOptions::default();
        let all: Vec<RcjPair> = rcj_self_stream_by_diameter(&tree, &opts).collect();
        for pr in &all {
            assert!(pr.p.id < pr.q.id);
        }
        let full = rcj_self_join(&tree, &opts);
        assert_eq!(pair_keys(&all), pair_keys(&full.pairs));
    }

    #[test]
    fn region_restricted_diameter_streams_partition_the_result() {
        let pg = pager();
        let tp = bulk_load(pg.clone(), items(200, 51, 1000.0));
        let tq = bulk_load(pg.clone(), items(200, 53, 1000.0));
        let opts = RcjOptions::default();
        let pool = BufferPool::new(16);
        let all: Vec<RcjPair> = rcj_stream_by_diameter(&tq, &tp, &opts).collect();
        // Two half-open cells split at x = 500: every q belongs to
        // exactly one, so the union of the restricted streams is the
        // unrestricted stream.
        let inf = f64::INFINITY;
        let left = Rect::new(ringjoin_geom::pt(-inf, -inf), ringjoin_geom::pt(500.0, inf));
        let right = Rect::new(ringjoin_geom::pt(500.0, -inf), ringjoin_geom::pt(inf, inf));
        let mut union: Vec<RcjPair> = Vec::new();
        for cell in [left, right] {
            let part: Vec<RcjPair> =
                rcj_stream_by_diameter_in(&tq, &tp, cell, &pool, &opts).collect();
            for w in part.windows(2) {
                assert!(w[0].diameter() <= w[1].diameter());
            }
            for pr in &part {
                assert!(cell.contains_point_half_open(pr.q.point));
            }
            union.extend(part);
        }
        assert_eq!(pair_keys(&union), pair_keys(&all));

        // Self-join: ownership is by the larger-id endpoint (reported as
        // the pair's q side), partitioning the result the same way.
        let tree = bulk_load(pg.clone(), items(180, 57, 800.0));
        let self_all: Vec<RcjPair> = rcj_self_stream_by_diameter(&tree, &opts).collect();
        let mut self_union: Vec<RcjPair> = Vec::new();
        for cell in [left, right] {
            let part: Vec<RcjPair> =
                rcj_self_stream_by_diameter_in(&tree, cell, &pool, &opts).collect();
            for pr in &part {
                assert!(pr.p.id < pr.q.id);
                assert!(cell.contains_point_half_open(pr.q.point));
            }
            self_union.extend(part);
        }
        assert_eq!(pair_keys(&self_union), pair_keys(&self_all));
    }

    #[test]
    fn limit_stops_reading_pages() {
        let pg = pager();
        let tp = bulk_load(pg.clone(), items(600, 43, 4000.0));
        let tq = bulk_load(pg.clone(), items(600, 47, 4000.0));
        let opts = RcjOptions::default();

        let before = pg.borrow().stats();
        let top: Vec<RcjPair> = rcj_stream_by_diameter(&tq, &tp, &opts).limit(5).collect();
        let topk_reads = pg.borrow().stats().since(before).logical_reads;
        assert_eq!(top.len(), 5);

        let before = pg.borrow().stats();
        let full = rcj_join(
            &tq,
            &tp,
            &RcjOptions::default().with_executor(Executor::Sequential),
        );
        let full_reads = pg.borrow().stats().since(before).logical_reads;
        assert!(full.pairs.len() > 5);
        assert!(
            topk_reads < full_reads,
            "top-5 stream read {topk_reads} pages, full join {full_reads}"
        );
    }
}
