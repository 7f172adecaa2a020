//! The schedules of the RCJ leaf pass.
//!
//! Every leaf-order path runs the same per-leaf work, the paper's
//! Algorithms 5–7 held by one `LeafPass`: expand a leaf group of `T_Q`,
//! filter it against `T_P`, verify its candidates. The paths differ only
//! in which leaves run, in what order, on which threads:
//!
//! * **Sequential** ([`Executor::Sequential`]): every leaf in list order
//!   on one reader, with no prefetch, so the paper's fault counts are
//!   exact. A sink's early exit stops it leaf by leaf.
//! * **Work stealing** ([`Executor::Parallel`]): the leaves spread over
//!   worker threads, as below. The parallel leaf-order stream runs the
//!   same scheduler one wave at a time, on readers it keeps across waves.
//! * **Leaf subset**, behind every shard's
//!   [`Plan::run_leaves_pooled`](crate::Plan::run_leaves_pooled): the
//!   caller's positions in the caller's order on one reader, each pair
//!   tagged with its leaf index.
//!
//! A ranked query is a schedule too: a [`TopK`](crate::TopK) sink's cut
//! shrinks leaf by leaf, so top-k runs the whole list in depth-first
//! order on one reader (the engine's diameter stream), or a shard's
//! subset in its order; the merge then goes by rank, not leaf index.
//!
//! On disk, a reader that knows its upcoming leaves stages their pages
//! on a background [`Prefetcher`] through one lookahead: on every eighth
//! claim, the next 16 leaf pages. A work-stealing worker looks ahead in
//! its own deque, the subset reader along its subset. The sequential
//! executor and the sequential and ranked streams never prefetch.
//!
//! The outer-leaf loop is embarrassingly parallel: leaf groups of `T_Q`
//! touch disjoint slices of the output and all index access is
//! read-only. Two design decisions carry the parallel cold-cache fix:
//!
//! * **One shared cache, not `workers` cold ones.** Every reader, the
//!   sequential one included, is a
//!   [`PooledPager`](ringjoin_storage::PooledPager) pinned on the pager
//!   ([`Pager::reader`](ringjoin_storage::Pager::reader): a clone of the
//!   pager's device, sharing its pages by `Arc`, none copied) and
//!   accounting into the pager's own
//!   [buffer pool](ringjoin_storage::Pager::pool) — one
//!   exact-LRU cache at the **same total budget** for every schedule.
//!   Hot inner nodes faulted by one worker are hits for every other
//!   worker (and for later runs: the pool stays warm across joins over
//!   an unmodified pager). A run's pin ends with the run, so a batch
//!   after it writes a page file in place.
//! * **Work stealing, merged by leaf index.** The outer leaf list is
//!   seeded into per-worker deques as contiguous chunks weighted by
//!   **leaf spatial extent** (a cheap locality-aware proxy for work on
//!   skewed `T_Q`), and an idle worker steals a bounded batch from the
//!   **tail** of a loaded peer — the end farthest from the victim's own
//!   scan position, so locality within each deque survives the steal.
//!   Every emitted pair is tagged with its **global leaf index** through
//!   the [`TaggedPairSink`](crate::TaggedPairSink) seam; a stable merge
//!   on that tag reproduces the sequential emission order byte for byte
//!   regardless of which worker processed which leaf — the same merge
//!   contract the sharded server uses.
//!
//! Per-worker [`RcjStats`] and [`IoStats`](ringjoin_storage::IoStats)
//! are plain sums over leaf groups, so merging them
//! ([`RcjStats::merge`], [`Pager::absorb`](ringjoin_storage::Pager::absorb))
//! yields the exact sequential totals — parallel CPU counters and
//! `logical_reads` are deterministic; only the hit/fault split varies
//! with scheduling (the order in which workers touch the one LRU, and
//! two workers racing on a cold store page may both fault it), which is
//! why the bench guard gates parallel faults with a tolerance and
//! sequential faults and all logical reads exactly.
//!
//! Workers are plain `std::thread::scope` threads. Pairs leave the
//! executor through the caller's [`PairSink`](crate::PairSink), in the
//! parallel path after its deterministic merge.

use crate::index::{IndexProbe, NodeRef};
use crate::join::LeafPass;
use crate::pair::RcjPair;
use crate::stats::RcjStats;
use crate::stream::{PairSink, TaggedPairSink};
use ringjoin_storage::{BufferPool, PooledPager, Prefetcher, SharedPager};
use std::collections::VecDeque;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Mutex;

/// Execution mode of an RCJ run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Executor {
    /// Process the outer leaves one by one on one reader, with no
    /// prefetch — the paper's original cost model.
    Sequential,
    /// Schedule the outer leaves across `threads` work-stealing workers
    /// over the shared buffer pool. Output is byte-identical to
    /// [`Executor::Sequential`].
    Parallel {
        /// Number of worker threads (values ≤ 1 behave sequentially).
        threads: usize,
    },
}

impl Executor {
    /// An executor for `n` worker threads: [`Executor::Sequential`] for
    /// `n ≤ 1`, [`Executor::Parallel`] otherwise.
    pub fn threads(n: usize) -> Executor {
        if n <= 1 {
            Executor::Sequential
        } else {
            Executor::Parallel { threads: n }
        }
    }

    /// Reads the executor from the `RINGJOIN_THREADS` environment
    /// variable (unset or empty mean sequential). This is the
    /// [`Default`], so every entry point — tests included — can be
    /// switched to the parallel engine without touching code.
    ///
    /// # Panics
    /// Panics on a set-but-unparsable value, and on `0` — matching the
    /// CLI's `--threads` validation, a thread *count* must be at least
    /// one (unset the variable for the default). Silently coercing a
    /// typo to sequential would let a CI lane that exists to exercise
    /// the parallel engine go green while testing nothing parallel.
    pub fn from_env() -> Executor {
        match std::env::var("RINGJOIN_THREADS") {
            Ok(v) if v.trim().is_empty() => Executor::Sequential,
            Ok(v) => {
                let n: usize = v.trim().parse().unwrap_or_else(|_| {
                    panic!("RINGJOIN_THREADS must be a thread count, got {v:?}")
                });
                assert!(
                    n >= 1,
                    "RINGJOIN_THREADS must be at least 1 (got 0); unset it for the default"
                );
                Executor::threads(n)
            }
            Err(_) => Executor::Sequential,
        }
    }

    /// The number of workers this executor would use.
    pub fn worker_count(&self) -> usize {
        match self {
            Executor::Sequential => 1,
            Executor::Parallel { threads } => (*threads).max(1),
        }
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::from_env()
    }
}

/// A reader's private handles on the pages of a join's two trees: one
/// [`PooledPager`] per distinct pager, pinned to the pager's device and
/// epoch at the time of [`Readers::pin`], so a mutation batch landing
/// mid-run cannot change what the reader sees.
///
/// Cloning a set that has not read yet gives another reader over the
/// same devices, pools and epochs (a parallel worker);
/// [`Readers::absorb`] folds a set's I/O counters back into the pagers.
#[derive(Clone)]
pub(crate) struct Readers {
    q: PooledPager,
    /// `None` when both trees share a pager (always for self-joins): the
    /// outer handle serves both sides, as one pager serves both
    /// sequentially.
    p: Option<PooledPager>,
}

impl Readers {
    /// Pins `pager_q` and, if it is a different pager, `pager_p`. The
    /// handles account through `pool`, or through each pager's own
    /// buffer when `pool` is `None`.
    pub(crate) fn pin(
        pager_q: &SharedPager,
        pager_p: &SharedPager,
        pool: Option<&BufferPool>,
    ) -> Readers {
        Readers {
            q: pager_q.borrow().reader(pool),
            p: (!Rc::ptr_eq(pager_q, pager_p)).then(|| pager_p.borrow().reader(pool)),
        }
    }

    /// The outer tree's reader.
    pub(crate) fn q(&mut self) -> &mut PooledPager {
        &mut self.q
    }

    /// The inner tree's reader (the outer one when they share a pager).
    pub(crate) fn p(&mut self) -> &mut PooledPager {
        self.p.as_mut().unwrap_or(&mut self.q)
    }

    /// A background stager for the outer tree's pages, when they live
    /// in a page store.
    pub(crate) fn prefetcher(&self) -> Option<Prefetcher> {
        self.q.prefetcher()
    }

    /// Adds the handles' I/O counters to the pagers they read.
    pub(crate) fn absorb(&self, pager_q: &SharedPager, pager_p: &SharedPager) {
        pager_q.borrow_mut().absorb(self.q.stats());
        if let Some(p) = &self.p {
            pager_p.borrow_mut().absorb(p.stats());
        }
    }
}

/// Runs `read` on a reader pinned on `pager`, then ends the pin and adds
/// the reader's I/O counters to the pager: the leaf walk and the
/// tree-level filter and verify read this way.
pub(crate) fn read_pinned<T>(pager: &SharedPager, read: impl FnOnce(&mut PooledPager) -> T) -> T {
    let mut reader = pager.borrow().reader(None);
    let out = read(&mut reader);
    pager.borrow_mut().absorb(reader.stats());
    out
}

/// Runs the pass under the executor chosen in its options, emitting
/// pairs into `sink` in deterministic leaf order and returning the
/// accumulated CPU-side counters.
pub(crate) fn execute<PQ: IndexProbe, PP: IndexProbe>(
    pass: &LeafPass<PQ, PP>,
    pager_q: SharedPager,
    pager_p: SharedPager,
    sink: &mut dyn PairSink,
) -> RcjStats {
    let mut stats = RcjStats::default();
    // Every reader reads a clone of each pager's device through the
    // pager's own buffer: trees sharing a pager (the paper's setup, and
    // every self-join) share both, and the buffer stays warm across
    // runs. A disk-native pager's device is its file — the pool's frames
    // become the only RAM copy.
    let mut pinned = Readers::pin(&pager_q, &pager_p, None);
    let workers = pass.workers();
    if workers <= 1 {
        // One reader and no prefetch, so the paper's fault counts are
        // exact.
        pass.run_all(&mut pinned, sink, &mut stats);
        pinned.absorb(&pager_q, &pager_p);
        return stats;
    }
    let prefetcher = pinned.prefetcher();
    let mut readers = vec![pinned; workers];
    let pairs = run_stealing(
        pass,
        0..pass.leaves.len(),
        &mut readers,
        prefetcher.as_ref(),
        &mut stats,
    );
    // Counters and I/O are always fully absorbed (the work has already
    // happened); the sink can only stop the *reporting* early.
    for r in &readers {
        r.absorb(&pager_q, &pager_p);
    }
    for pr in pairs {
        if !sink.push(pr) {
            break;
        }
    }
    stats
}

/// Adapts a [`TaggedPairSink`] to the per-leaf [`PairSink`] contract,
/// stamping every pair with the global leaf index being processed — the
/// work-stealing merge key, and what a shard's leaf subset reports.
struct TagAdapter<'a> {
    leaf: usize,
    inner: &'a mut dyn TaggedPairSink,
}

impl PairSink for TagAdapter<'_> {
    fn push(&mut self, pair: RcjPair) -> bool {
        self.inner.push(self.leaf, pair)
    }

    fn cut(&self) -> f64 {
        self.inner.cut()
    }
}

/// Runs the pass over an explicit subset of leaf positions, in the
/// given order, on one reader pinned to `pool`, emitting each pair
/// tagged with its leaf position. Out-of-range positions are skipped; a
/// sink returning `false` stops the run. The reader's I/O counters are
/// absorbed into the pagers on return, like a parallel worker's.
///
/// Disk-native pages are prefetched along the subset itself: it is this
/// call's schedule, so each [`lookahead`] stages the upcoming positions,
/// the current one included. A windowed pass schedules only the leaves
/// its window [reaches](LeafPass::reaches): the others are neither
/// claimed nor staged.
pub(crate) fn run_subset<PQ: IndexProbe, PP: IndexProbe>(
    pass: &LeafPass<PQ, PP>,
    pager_q: &SharedPager,
    pager_p: &SharedPager,
    positions: &[usize],
    pool: &BufferPool,
    sink: &mut dyn TaggedPairSink,
) -> RcjStats {
    let mut readers = Readers::pin(pager_q, pager_p, Some(pool));
    let prefetcher = readers.prefetcher();
    let mut stats = RcjStats::default();
    let mut claim = 0;
    for (i, &pos) in positions.iter().enumerate() {
        if pos >= pass.leaves.len() || !pass.reaches(pos) {
            continue;
        }
        lookahead(prefetcher.as_ref(), claim, pass, || {
            positions[i..].iter().copied()
        });
        claim += 1;
        let mut tagged = TagAdapter {
            leaf: pos,
            inner: sink,
        };
        if !pass.run(pos, &mut readers, &mut tagged, &mut stats) {
            break;
        }
    }
    readers.absorb(pager_q, pager_p);
    stats
}

// ---------------------------------------------------------------------
// The work-stealing scheduler
// ---------------------------------------------------------------------

/// Upper bound on the leaves moved by one steal. Stealing half the
/// victim's tail balances fast, but an unbounded grab from a huge deque
/// would just relocate the imbalance; a batch bound keeps every steal a
/// small, cache-friendly contiguous run.
const STEAL_BATCH: usize = 32;

/// Number of upcoming leaf pages a prefetching reader hands the
/// background [`Prefetcher`] at each [`lookahead`] (store-backed runs
/// only). Deep enough that staging overlaps the verification of the
/// current leaves, shallow enough not to flood a tight buffer budget
/// with pages that would be evicted before their turn.
const PREFETCH_WINDOW: usize = 16;

/// A reader's prefetch lookahead, called once per claimed leaf: on the
/// first claim and every `PREFETCH_WINDOW / 2` claims after it, stages
/// the pages of the first `PREFETCH_WINDOW` leaves `upcoming` lists.
/// Positions index the pass's leaves; out-of-range ones, and leaves the
/// pass's window does not [reach](LeafPass::reaches), are passed over,
/// so a windowed pass stages `PREFETCH_WINDOW` leaves it will run. Does
/// nothing without a prefetcher (resident pages).
fn lookahead<PQ: IndexProbe, PP: IndexProbe, I: IntoIterator<Item = usize>>(
    prefetcher: Option<&Prefetcher>,
    claim: usize,
    pass: &LeafPass<PQ, PP>,
    upcoming: impl FnOnce() -> I,
) {
    if let Some(pf) = prefetcher.filter(|_| claim.is_multiple_of(PREFETCH_WINDOW / 2)) {
        pf.request(
            upcoming()
                .into_iter()
                .filter(|&pos| pos < pass.leaves.len() && pass.reaches(pos))
                .take(PREFETCH_WINDOW)
                .map(|pos| pass.leaves[pos].page)
                .collect(),
        );
    }
}

/// Scheduling weight of one outer leaf group: the extent (rectangle
/// half-perimeter) of its region, the tight MBR of its items. On skewed
/// `T_Q` a wide leaf spans more of the inner tree — more filter
/// sub-trees opened, more verification probes — so extent-weighted
/// seeding hands each worker comparable *work*, not just comparable leaf
/// counts. The `1.0` floor keeps zero-extent leaves (duplicate-heavy
/// data) and non-finite regions (points at infinity) schedulable.
fn leaf_weight(leaf: &NodeRef) -> f64 {
    let margin = leaf.region.margin();
    if margin.is_finite() && margin > 0.0 {
        1.0 + margin
    } else {
        1.0
    }
}

/// Seeds the per-worker deques: contiguous runs of leaf positions whose
/// cumulative extent weight is balanced across workers. Contiguity
/// preserves the Section 3.4 locality argument within each deque; the
/// weighting front-loads balance so stealing is a correction, not the
/// primary scheduler.
fn seed_queues(leaves: &[NodeRef], workers: usize) -> Vec<Mutex<VecDeque<usize>>> {
    let total: f64 = leaves.iter().map(leaf_weight).sum();
    let mut queues: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
    let mut chunk = 0usize;
    let mut acc = 0.0;
    for (pos, leaf) in leaves.iter().enumerate() {
        queues[chunk].push_back(pos);
        acc += leaf_weight(leaf);
        // Cut to the next chunk once this one carries its share of the
        // total weight; an over-heavy leaf (one giant group on skewed
        // data) closes its chunk immediately instead of dragging
        // neighbours along.
        while chunk + 1 < workers && acc >= total * (chunk + 1) as f64 / workers as f64 {
            chunk += 1;
        }
    }
    queues.into_iter().map(Mutex::new).collect()
}

/// Takes the next leaf position for worker `w`: its own deque's front,
/// or a bounded batch stolen from the tail of the first non-empty peer
/// (scanned round-robin from `w + 1`). Returns `None` when every deque
/// is empty at scan time — a racing peer may still repopulate one, in
/// which case that peer simply finishes the work itself.
fn next_leaf(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(pos) = queues[w].lock().expect("worker deque poisoned").pop_front() {
        return Some(pos);
    }
    let n = queues.len();
    for off in 1..n {
        let victim = (w + off) % n;
        let mut vq = queues[victim].lock().expect("worker deque poisoned");
        let len = vq.len();
        if len == 0 {
            continue;
        }
        // Bounded tail steal: up to half the victim's remaining leaves,
        // capped at STEAL_BATCH, taken from the end farthest from the
        // victim's own scan position.
        let take = len.div_ceil(2).min(STEAL_BATCH);
        let mut stolen = vq.split_off(len - take);
        drop(vq);
        let first = stolen.pop_front();
        if !stolen.is_empty() {
            queues[w]
                .lock()
                .expect("worker deque poisoned")
                .extend(stolen);
        }
        return first;
    }
    None
}

/// Runs the pass's leaf groups at `positions` on one work-stealing
/// worker per reader set (at most one per leaf), adding the workers'
/// counters to `stats` and returning their pairs in leaf order. The
/// executor runs the whole leaf list this way; the parallel stream runs
/// it one wave at a time, on readers it keeps across waves.
///
/// With a prefetcher, each worker's [`lookahead`] stages the front of
/// its own deque (steals land on the tail, so the front stays an
/// accurate schedule).
pub(crate) fn run_stealing<PQ: IndexProbe, PP: IndexProbe>(
    pass: &LeafPass<PQ, PP>,
    positions: Range<usize>,
    readers: &mut [Readers],
    prefetcher: Option<&Prefetcher>,
    stats: &mut RcjStats,
) -> Vec<RcjPair> {
    let base = positions.start;
    let leaves = &pass.leaves[positions];
    let workers = readers.len().min(leaves.len());
    let queues = seed_queues(leaves, workers);
    let results: Vec<(Vec<(usize, RcjPair)>, RcjStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = readers[..workers]
            .iter_mut()
            .enumerate()
            .map(|(w, reader)| {
                let queues = &queues;
                scope.spawn(move || {
                    let mut tagged: Vec<(usize, RcjPair)> = Vec::new();
                    let mut stats = RcjStats::default();
                    let mut claim = 0;
                    while let Some(i) = next_leaf(queues, w) {
                        if !pass.reaches(base + i) {
                            continue;
                        }
                        lookahead(prefetcher, claim, pass, || {
                            let dq = queues[w].lock().expect("worker deque poisoned");
                            dq.iter()
                                .map(|&i| base + i)
                                .filter(|&pos| pass.reaches(pos))
                                .take(PREFETCH_WINDOW)
                                .collect::<Vec<_>>()
                        });
                        claim += 1;
                        let mut tag_sink = TagAdapter {
                            leaf: base + i,
                            inner: &mut tagged,
                        };
                        pass.run(base + i, reader, &mut tag_sink, &mut stats);
                    }
                    (tagged, stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("RCJ worker thread panicked"))
            .collect()
    });

    // Deterministic merge: every leaf is processed by exactly one worker
    // and its pairs are contiguous in that worker's emission order, so a
    // stable sort on the leaf tag reconstructs the sequential sequence
    // exactly — whichever worker ended up with which leaf.
    let mut merged: Vec<(usize, RcjPair)> = Vec::new();
    for (tagged, worker_stats) in results {
        stats.merge(worker_stats);
        merged.extend(tagged);
    }
    merged.sort_by_key(|(leaf, _)| *leaf);
    merged.into_iter().map(|(_, pr)| pr).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringjoin_geom::{pt, Rect};

    #[test]
    fn threads_constructor_folds_to_sequential() {
        assert_eq!(Executor::threads(0), Executor::Sequential);
        assert_eq!(Executor::threads(1), Executor::Sequential);
        assert_eq!(Executor::threads(4), Executor::Parallel { threads: 4 });
        assert_eq!(Executor::Sequential.worker_count(), 1);
        assert_eq!(Executor::Parallel { threads: 8 }.worker_count(), 8);
    }

    fn leaf(w: f64) -> NodeRef {
        NodeRef {
            page: ringjoin_storage::PageId(0),
            region: Rect::new(pt(0.0, 0.0), pt(w, 0.0)),
        }
    }

    #[test]
    fn seeding_is_contiguous_complete_and_weight_balanced() {
        // Nine leaves: one hugely wide, eight slim. Equal-count chunking
        // would give worker 0 the giant *plus* a third of the rest;
        // weighted seeding isolates the giant.
        let leaves: Vec<NodeRef> = [1000.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
            .iter()
            .map(|&w| leaf(w))
            .collect();
        let queues = seed_queues(&leaves, 3);
        let chunks: Vec<Vec<usize>> = queues
            .iter()
            .map(|q| q.lock().unwrap().iter().copied().collect())
            .collect();
        // Complete and contiguous.
        let flat: Vec<usize> = chunks.iter().flatten().copied().collect();
        assert_eq!(flat, (0..9).collect::<Vec<_>>());
        // The giant leaf dominates two-thirds of the weight: it must sit
        // alone in its chunk (its midpoint lands in worker 0's band and
        // every slim leaf's midpoint lands past it).
        assert_eq!(chunks[0], vec![0]);
        assert!(!chunks[1].is_empty() || !chunks[2].is_empty());
    }

    #[test]
    fn degenerate_weights_still_schedule_every_leaf() {
        // Zero-extent and non-finite regions fall back to unit weight.
        let inf = f64::INFINITY;
        let leaves = vec![
            leaf(0.0),
            NodeRef {
                page: ringjoin_storage::PageId(0),
                region: Rect::new(pt(-inf, -inf), pt(inf, inf)),
            },
            leaf(0.0),
            leaf(5.0),
        ];
        let queues = seed_queues(&leaves, 8);
        let mut flat: Vec<usize> = queues
            .iter()
            .flat_map(|q| q.lock().unwrap().iter().copied().collect::<Vec<_>>())
            .collect();
        flat.sort_unstable();
        assert_eq!(flat, vec![0, 1, 2, 3]);
    }

    #[test]
    fn stealing_drains_everything_exactly_once() {
        let leaves: Vec<NodeRef> = (0..100).map(|_| leaf(1.0)).collect();
        // Pathological seed: everything on worker 0 — the other three
        // live purely off steals.
        let queues: Vec<Mutex<VecDeque<usize>>> = vec![
            Mutex::new((0..100).collect()),
            Mutex::new(VecDeque::new()),
            Mutex::new(VecDeque::new()),
            Mutex::new(VecDeque::new()),
        ];
        let _ = leaves;
        let processed: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|w| {
                    let queues = &queues;
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some(pos) = next_leaf(queues, w) {
                            mine.push(pos);
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<usize> = processed.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(
            all,
            (0..100).collect::<Vec<_>>(),
            "lost or duplicated leaves"
        );
    }
}
