//! Lazy, bounded-memory result streaming for the RCJ, and the sinks
//! the leaf pass emits into.
//!
//! The paper's algorithms are described as "compute the whole join" —
//! but their structure is naturally incremental: every driver processes
//! the outer tree one leaf group at a time, and each leaf group's
//! contribution is final the moment it is produced. This module exposes
//! that seam in two pieces:
//!
//! * [`PairSink`] — the emission half. The leaf pass reports result
//!   pairs through this trait instead of pushing into a `Vec`; a sink
//!   may stop the run early, and may bound it with a
//!   [cut](PairSink::cut). `Vec<RcjPair>` implements it (never
//!   stopping, never cutting), which is all
//!   [`rcj_join`](crate::rcj_join) needs to keep its one-shot shape.
//!   [`TopK`] is the ranked sink: it keeps the `k` best pairs and cuts
//!   the pass at the `k`-th best squared diameter.
//! * [`RcjStream`] — the consumption half: a lazy iterator over result
//!   pairs. Both of its orders run the one leaf pass:
//!   * **leaf order** — the pass suspended between batches. With one
//!     worker a batch is one outer leaf group, read with no prefetch, so
//!     a drained stream reads what
//!     [`Plan::collect`](crate::Plan::collect) reads. With more, a batch
//!     is a *wave* of `workers × 4` leaf groups on the work-stealing
//!     executor, over per-worker
//!     [`PooledPager`](ringjoin_storage::PooledPager)s that all account
//!     into the pager's [buffer pool](ringjoin_storage::Pager::pool) and
//!     merged on the leaf tag. The pair sequence is **identical** to
//!     [`rcj_join`](crate::rcj_join) under either executor; memory stays
//!     bounded by one wave, and the cache stays warm across waves and
//!     across runs;
//!   * **ascending ring diameter** — rounds of the pass into a [`TopK`]
//!     sink, in depth-first leaf order. A round for `k` pairs cuts each
//!     leaf's filter at the `k`-th best squared diameter found so far,
//!     so only candidates within it are verified, and the cut falls as
//!     better pairs arrive. A round that fills its sink hands over to
//!     the next, with `k` eight times larger, which skips the pairs
//!     already yielded. [`RcjStream::limit`] sizes the first round, so a
//!     top-k is one pass. The order is the
//!     [rank order](RcjPair::rank_cmp): squared diameter, then pair key,
//!     whatever the tree shape.
//!
//! The engine's [`Plan::stream`](crate::Plan::stream) picks the order;
//! the free functions [`rcj_stream`], [`rcj_self_stream`],
//! [`rcj_stream_by_diameter`] and [`rcj_self_stream_by_diameter`] build
//! streams directly over trees.

use crate::executor::{run_stealing, Readers};
use crate::index::{IndexProbe, RcjIndex};
use crate::join::{outer_leaves, LeafPass, RcjOptions};
use crate::pair::RcjPair;
use crate::stats::RcjStats;
use ringjoin_storage::{Prefetcher, SharedPager};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Receiver of RCJ result pairs.
///
/// The join drivers emit every verified pair through a sink. Returning
/// `false` asks the driver to stop: the sequential executor abandons the
/// remaining outer leaves (see [`rcj_join_into`](crate::rcj_join_into)),
/// which is what gives leaf-order streams their early exit.
pub trait PairSink {
    /// Receives one result pair; returns `false` to stop the run.
    fn push(&mut self, pair: RcjPair) -> bool;

    /// The squared diameter beyond which the sink takes no more pairs.
    /// The leaf pass reads it before each filter and cuts the filter
    /// there, which drops no pair within it. The default, `f64::INFINITY`,
    /// takes every pair and runs the filter uncut.
    fn cut(&self) -> f64 {
        f64::INFINITY
    }
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
/// The tag is what makes distributed execution mergeable: each shard
/// runs [`Plan::run_leaves_pooled`](crate::Plan::run_leaves_pooled) over
/// its own leaf subset, and the router orders the union of tagged pairs
/// by leaf index, reproducing the single-engine output byte for byte
/// (the router adds its own shard id as provenance). Returning `false` asks
/// the driver to stop early, and the cut bounds the run, as with
/// [`PairSink`].
pub trait TaggedPairSink {
    /// Receives one result pair produced by outer leaf group `leaf`;
    /// returns `false` to stop the run.
    fn push(&mut self, leaf: usize, pair: RcjPair) -> bool;

    /// See [`PairSink::cut`].
    fn cut(&self) -> f64 {
        f64::INFINITY
    }
}

/// The materialising tagged sink: collects `(leaf, pair)`, never stops.
impl TaggedPairSink for Vec<(usize, RcjPair)> {
    fn push(&mut self, leaf: usize, pair: RcjPair) -> bool {
        self.push((leaf, pair));
        true
    }
}

/// The ranked sink: keeps the `k` best pairs in
/// [rank order](RcjPair::rank_cmp) and, once it holds `k`, reports the
/// `k`-th squared diameter as its [cut](PairSink::cut).
///
/// Whatever leaves a pass runs into it, in whatever order, the sink ends
/// holding the `k` best pairs those leaves produce: a pair is dropped
/// only when `k` better ones are held, and the cut only drops pairs
/// farther than the `k`-th held one. Pairs at exactly the cut survive
/// it, so exact ties are ranked by key. Under `skip_verification` the
/// sink ranks the filter's candidates instead of verified pairs.
///
/// As a [`TaggedPairSink`] it ignores the leaf tag: a shard runs it over
/// the leaves it owns, and merging the shards' answers by rank gives the
/// whole pass's answer.
pub struct TopK {
    k: usize,
    /// The best pairs so far, the worst on top.
    best: BinaryHeap<Ranked>,
}

/// A pair ordered by [`RcjPair::rank_cmp`].
struct Ranked(RcjPair);

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Ranked {}
impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.rank_cmp(&other.0)
    }
}

impl TopK {
    /// An empty sink for the `k` best pairs.
    pub fn new(k: usize) -> TopK {
        TopK {
            k,
            best: BinaryHeap::new(),
        }
    }

    /// The pairs held, in rank order.
    pub fn into_pairs(self) -> Vec<RcjPair> {
        self.best
            .into_sorted_vec()
            .into_iter()
            .map(|r| r.0)
            .collect()
    }
}

impl PairSink for TopK {
    fn push(&mut self, pair: RcjPair) -> bool {
        if self.best.len() < self.k {
            self.best.push(Ranked(pair));
        } else if let Some(mut worst) = self.best.peek_mut() {
            if pair.rank_cmp(&worst.0).is_lt() {
                *worst = Ranked(pair);
            }
        }
        true
    }

    fn cut(&self) -> f64 {
        if self.best.len() < self.k {
            return f64::INFINITY;
        }
        // `k = 0` holds nothing and takes nothing.
        self.best
            .peek()
            .map_or(f64::NEG_INFINITY, |worst| worst.0.diameter_sq())
    }
}

impl TaggedPairSink for TopK {
    fn push(&mut self, _leaf: usize, pair: RcjPair) -> bool {
        PairSink::push(self, pair)
    }

    fn cut(&self) -> f64 {
        PairSink::cut(self)
    }
}

/// Internal supplier of pair batches (one outer leaf group, one wave of
/// leaf groups, or one ranked round).
trait BatchSource {
    /// Appends the next batch of pairs to `out` (possibly none), charging
    /// counters to `stats`. Returns `false` when the stream is exhausted.
    fn next_batch(&mut self, out: &mut Vec<RcjPair>, stats: &mut RcjStats) -> bool;

    /// Told the stream's [limit](RcjStream::limit) before any batch.
    fn limit(&mut self, _k: usize) {}
}

/// A lazy iterator over RCJ result pairs.
///
/// Built by [`Plan::stream`](crate::Plan::stream) or the free
/// [`rcj_stream`]-family constructors. Leaf-order streams yield exactly
/// the [`rcj_join`](crate::rcj_join) output — same pairs, same order —
/// while holding at most one leaf batch (sequential) or one wave
/// (parallel) in memory. Diameter-order streams yield pairs in rank
/// order, one round of the leaf pass at a time.
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
    /// ends and no further index page is read. A diameter-ordered stream
    /// sizes its first round at `k`, so a top-k is one leaf pass.
    pub fn limit(mut self, k: usize) -> Self {
        self.limit = Some(k);
        self.source.limit(k);
        self
    }

    /// Counters accumulated so far. `result_pairs` counts the pairs
    /// *produced* by the underlying driver (at least the pairs yielded;
    /// a leaf-order stream may have buffered a few more from the current
    /// batch, and a ranked round counts every pair its sink was offered).
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
/// pins private [`Readers`] on each pager's device and current epoch,
/// counting in the pager's buffer, so a mutation batch
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
            self.pass.run(self.pos, reader, out, stats);
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
// Diameter-order source
// ---------------------------------------------------------------------

/// `k` of an unlimited diameter-ordered stream's first round.
const FIRST_ROUND: usize = 16;

/// Factor by which each round's `k` exceeds the last one's.
const ROUND_GROWTH: usize = 8;

/// Diameter-order source: rounds of the leaf pass, in depth-first order
/// on one reader, each into a fresh [`TopK`] sink. Round `r` returns the
/// `k_r` best pairs in rank order, whose first `k_{r-1}` are the last
/// round's answer, so it yields only the rest. A round that comes back
/// short of its `k` held the whole join, and ends the stream.
///
/// Like [`LeafSource`], it is pinned to the epoch it was opened at:
/// every round reads through the [`Readers`] captured at construction.
struct RankedSource<PQ: IndexProbe, PP: IndexProbe> {
    pass: LeafPass<PQ, PP>,
    pager_q: SharedPager,
    pager_p: SharedPager,
    readers: Readers,
    /// The next round's `k`; 0 once a round came back short.
    k: usize,
    /// Pairs the earlier rounds yielded.
    yielded: usize,
}

impl<PQ: IndexProbe, PP: IndexProbe> BatchSource for RankedSource<PQ, PP> {
    fn next_batch(&mut self, out: &mut Vec<RcjPair>, stats: &mut RcjStats) -> bool {
        if self.k == 0 {
            return false;
        }
        let mut top = TopK::new(self.k);
        self.pass.run_all(&mut self.readers, &mut top, stats);
        let pairs = top.into_pairs();
        out.extend_from_slice(&pairs[self.yielded..]);
        self.k = if pairs.len() < self.k {
            0
        } else {
            self.k.saturating_mul(ROUND_GROWTH)
        };
        self.yielded = pairs.len();
        true
    }

    fn limit(&mut self, k: usize) {
        if self.yielded == 0 && self.k > 0 {
            self.k = k.max(1);
        }
    }
}

impl<PQ: IndexProbe, PP: IndexProbe> Drop for RankedSource<PQ, PP> {
    /// Folds the reader's I/O counters back into the owning pagers,
    /// mirroring [`LeafSource`]'s accounting.
    fn drop(&mut self) {
        self.readers.absorb(&self.pager_q, &self.pager_p);
    }
}

// ---------------------------------------------------------------------
// Constructors
// ---------------------------------------------------------------------

/// Opens a stream over `pass`, whose outer and inner trees live in
/// `pager_q` and `pager_p`, pinned to the pagers' current epoch: in
/// diameter order if `ranked`, else in leaf order.
pub(crate) fn open<PQ: IndexProbe, PP: IndexProbe>(
    pass: LeafPass<PQ, PP>,
    pager_q: SharedPager,
    pager_p: SharedPager,
    ranked: bool,
) -> RcjStream {
    let pinned = Readers::pin(&pager_q, &pager_p, None);
    if ranked {
        return RcjStream::new(Box::new(RankedSource {
            pass,
            pager_q,
            pager_p,
            readers: pinned,
            k: FIRST_ROUND,
            yielded: 0,
        }));
    }
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

/// [`open`] over a fresh pass of `(tq, tp)`, whose leaf list costs one
/// walk of `tq`.
fn open_trees<IQ: RcjIndex, IP: RcjIndex>(
    tq: &IQ,
    tp: &IP,
    self_join: bool,
    ranked: bool,
    opts: &RcjOptions,
) -> RcjStream {
    let pass = LeafPass::new(tq, tp, self_join, opts, outer_leaves(tq));
    open(pass, tq.pager(), tp.pager(), ranked)
}

/// Lazily streams the RCJ of `(tq, tp)` in deterministic leaf order —
/// the same pairs in the same order as
/// [`rcj_join`](crate::rcj_join) with the same options, with memory
/// bounded by one leaf batch (sequential executor) or one wave
/// (parallel executor).
pub fn rcj_stream<IQ: RcjIndex, IP: RcjIndex>(tq: &IQ, tp: &IP, opts: &RcjOptions) -> RcjStream {
    open_trees(tq, tp, false, false, opts)
}

/// Lazily streams the self-RCJ of one dataset; the streaming analogue of
/// [`rcj_self_join`](crate::rcj_self_join).
pub fn rcj_self_stream<I: RcjIndex>(tree: &I, opts: &RcjOptions) -> RcjStream {
    open_trees(tree, tree, true, false, opts)
}

/// Streams the RCJ of `(tq, tp)` in **ascending ring diameter** order —
/// the tourist-recommendation ranking, in [rank order](RcjPair::rank_cmp)
/// (squared diameter, then pair key).
///
/// The stream runs rounds of the leaf pass into a [`TopK`] sink (see the
/// module docs). Combine with [`RcjStream::limit`] for a top-k query: the
/// first round is then sized at `k`, and the answer costs one pass whose
/// filters are cut at the `k`-th best squared diameter found so far.
/// Without a limit the first round takes 16 pairs and each next round
/// eight times more, so `take(n)` runs about `log8(n / 16) + 1` passes.
/// Honors the options' algorithm, `skip_verification` (the stream then
/// ranks the filter's candidates) and `no_face_rule`; the rounds always
/// run sequentially, in the options' outer order.
pub fn rcj_stream_by_diameter<IQ: RcjIndex, IP: RcjIndex>(
    tq: &IQ,
    tp: &IP,
    opts: &RcjOptions,
) -> RcjStream {
    open_trees(tq, tp, false, true, opts)
}

/// Diameter-ordered self-RCJ stream; each unordered pair appears once,
/// smaller id first. See [`rcj_stream_by_diameter`].
pub fn rcj_self_stream_by_diameter<I: RcjIndex>(tree: &I, opts: &RcjOptions) -> RcjStream {
    open_trees(tree, tree, true, true, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        pair_keys, rcj_join, rcj_self_join, sort_by_diameter, Executor, IndexKind, RcjAlgorithm,
    };
    use ringjoin_geom::{pt, Item};
    use ringjoin_rtree::bulk_load;
    use ringjoin_storage::{BufferPool, MemDisk, Pager, SharedPager};

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
        let mut stream = rcj_stream_by_diameter(&tq, &tp, &opts);
        let all: Vec<RcjPair> = stream.by_ref().collect();
        for w in all.windows(2) {
            assert!(w[0].diameter() <= w[1].diameter());
        }
        let full = rcj_join(&tq, &tp, &opts);
        assert_eq!(pair_keys(&all), pair_keys(&full.pairs));
        // Each round's cut filter drops most of the cross product before
        // it is ever verified, even when the whole stream is drained.
        let verified = stream.stats().candidate_pairs;
        assert!(
            verified <= 150 * 150 / 4,
            "drained stream verified {verified} of 22,500 pairs"
        );
    }

    #[test]
    fn a_top_10_verifies_a_sliver_of_the_cross_product() {
        let pg = Pager::new(MemDisk::new(1024), 256).into_shared();
        let tp = bulk_load(pg.clone(), items(800, 71, 10_000.0));
        let tq = bulk_load(pg.clone(), items(800, 73, 10_000.0));
        let mut stream = rcj_stream_by_diameter(&tq, &tp, &RcjOptions::default());
        let top: Vec<RcjPair> = stream.by_ref().take(10).collect();
        assert_eq!(top.len(), 10);
        let verified = stream.stats().candidate_pairs;
        assert!(
            verified < 800 * 800 / 100,
            "streamed top-10 verified {verified} pairs"
        );
    }

    #[test]
    fn diameter_stream_over_a_quadtree_inner_and_an_rtree_outer() {
        let pg = pager();
        let mut tp = ringjoin_quadtree::QuadTree::new(
            pg.clone(),
            ringjoin_geom::Rect::new(pt(0.0, 0.0), pt(1000.0, 1000.0)),
        );
        for it in items(200, 79, 1000.0) {
            tp.insert(it.id, it.point);
        }
        let tq = bulk_load(pg.clone(), items(200, 83, 1000.0));
        let opts = RcjOptions::default();
        let top: Vec<RcjPair> = rcj_stream_by_diameter(&tq, &tp, &opts).take(20).collect();
        assert_eq!(top.len(), 20);
        for w in top.windows(2) {
            assert!(w[0].diameter() <= w[1].diameter());
        }
        let mut full = rcj_join(&tq, &tp, &opts).pairs;
        sort_by_diameter(&mut full);
        assert_eq!(top, full[..20]);
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
    fn unverified_diameter_stream_ranks_the_filter_candidates() {
        // Without verification a join reports the filter's candidates;
        // the diameter stream ranks exactly those, across its rounds.
        let pg = pager();
        let tp = bulk_load(pg.clone(), items(60, 61, 500.0));
        let tq = bulk_load(pg.clone(), items(70, 67, 500.0));
        let opts = RcjOptions {
            skip_verification: true,
            ..RcjOptions::default()
        };
        let mut expect = rcj_join(&tq, &tp, &opts).pairs;
        sort_by_diameter(&mut expect);
        assert!(expect.len() > FIRST_ROUND * ROUND_GROWTH);
        let all: Vec<RcjPair> = rcj_stream_by_diameter(&tq, &tp, &opts).collect();
        assert_eq!(all, expect);

        let mut expect = rcj_self_join(&tp, &opts).pairs;
        sort_by_diameter(&mut expect);
        let all: Vec<RcjPair> = rcj_self_stream_by_diameter(&tp, &opts).collect();
        assert_eq!(all, expect);
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
    fn top_k_over_leaf_subsets_merges_to_the_ranked_stream() {
        // A shard's top-k: a TopK sink over a subset of the outer
        // leaves. Every pair comes from one leaf, so the subsets' answers
        // merged by rank are the whole pass's answer.
        let mut engine = crate::Engine::new();
        engine
            .load("p", items(200, 51, 1000.0))
            .index(IndexKind::Rtree);
        engine
            .load("q", items(200, 53, 1000.0))
            .index(IndexKind::Rtree);
        engine
            .load("d", items(180, 57, 800.0))
            .index(IndexKind::Rtree);
        let pool = BufferPool::new(16);
        for k in [1, 7, 40, 10_000] {
            for (outer, inner) in [("q", Some("p")), ("d", None)] {
                let query = || {
                    let query = engine.query();
                    match inner {
                        Some(inner) => query.join(outer, inner),
                        None => query.self_join(outer),
                    }
                };
                let plan = query().plan().unwrap();
                let n = engine.leaf_regions(outer).unwrap().len();
                let mut merged = Vec::new();
                for start in 0..2 {
                    let subset: Vec<usize> = (start..n).step_by(2).collect();
                    let mut top = TopK::new(k);
                    plan.run_leaves_pooled(&subset, &pool, &mut top);
                    merged.extend(top.into_pairs());
                }
                sort_by_diameter(&mut merged);
                merged.truncate(k);
                let want: Vec<RcjPair> = query().top_k(k).stream().unwrap().collect();
                assert_eq!(merged, want, "{outer}: k={k}");
            }
        }
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
