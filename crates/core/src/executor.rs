//! The pluggable execution layer of the RCJ engine.
//!
//! The outer-leaf loop of every RCJ algorithm is embarrassingly parallel:
//! leaf groups of `T_Q` touch disjoint slices of the output and all index
//! access is read-only. What made the seed single-threaded was the
//! storage layer (one `Rc<RefCell<_>>` pager), not the algorithms — so
//! the executor parallelises at exactly that seam. Two design decisions
//! carry the parallel cold-cache fix:
//!
//! * **One shared cache, not `workers` cold ones.** Every worker reads
//!   the `Arc`-shared read-only
//!   [`PageSnapshot`](ringjoin_storage::PageSnapshot) through a
//!   [`PooledPager`](ringjoin_storage::PooledPager) accounting into the
//!   pager's own [buffer pool](ringjoin_storage::Pager::pool) — the
//!   exact-LRU cache sequential runs read through, at the **same total
//!   budget**. Hot inner nodes faulted by one worker are hits for every
//!   other worker (and for later runs: the pool stays warm across joins
//!   over an unmodified pager).
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
//! executor through the caller's [`PairSink`](crate::PairSink); the
//! sequential path honors a sink's early-exit request leaf by leaf, the
//! parallel path after its deterministic merge.

use crate::index::{IndexProbe, NodeRef};
use crate::join::{leaf_items, process_leaf, RcjOptions, TagAdapter};
use crate::stats::RcjStats;
use crate::stream::PairSink;
use ringjoin_storage::{BufferPool, PageAccess, PageId, PooledPager, Prefetcher, SharedPager};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Mutex;

/// Execution mode of an RCJ run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Executor {
    /// Process the outer leaves one by one through the shared pager —
    /// the paper's original cost model.
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

/// Page-access handles for the two sides of a join.
///
/// Sequential runs hand out two clones of the shared pager(s); parallel
/// workers hand out their private pooled pagers — one if both trees live
/// in the same pager (always true for self-joins), two otherwise.
pub(crate) enum Pagers<'a> {
    /// Both trees through one handle.
    Shared(&'a mut dyn PageAccess),
    /// Separate handles for the outer (`q`) and inner (`p`) tree.
    Split {
        /// Outer-tree access.
        q: &'a mut dyn PageAccess,
        /// Inner-tree access.
        p: &'a mut dyn PageAccess,
    },
}

impl Pagers<'_> {
    /// Access to the outer tree's pages.
    pub(crate) fn q(&mut self) -> &mut dyn PageAccess {
        match self {
            Pagers::Shared(pg) => *pg,
            Pagers::Split { q, .. } => *q,
        }
    }

    /// Access to the inner tree's pages.
    pub(crate) fn p(&mut self) -> &mut dyn PageAccess {
        match self {
            Pagers::Shared(pg) => *pg,
            Pagers::Split { p, .. } => *p,
        }
    }
}

/// A reader's private handles on the pages of a join's two trees: one
/// [`PooledPager`] per distinct pager, pinned to the pager's page source
/// and epoch at the time of [`Readers::pin`], so a mutation batch landing
/// mid-run cannot change what the reader sees.
///
/// Cloning a set that has not read yet gives another reader over the
/// same sources, pools and epochs (a parallel worker);
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
        let pin = |pager: &SharedPager| {
            let mut pg = pager.borrow_mut();
            let pool = pool.unwrap_or(pg.pool()).clone();
            PooledPager::new(pg.page_source(), pool, pg.epoch())
        };
        Readers {
            q: pin(pager_q),
            p: (!Rc::ptr_eq(pager_q, pager_p)).then(|| pin(pager_p)),
        }
    }

    /// The handles as the per-leaf driver takes them.
    pub(crate) fn pagers(&mut self) -> Pagers<'_> {
        match &mut self.p {
            None => Pagers::Shared(&mut self.q),
            Some(p) => Pagers::Split { q: &mut self.q, p },
        }
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

/// Runs the per-leaf driver over `leaves` under the executor chosen in
/// `opts`, emitting pairs into `sink` in deterministic leaf order and
/// returning the accumulated CPU-side counters.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute<PQ: IndexProbe, PP: IndexProbe>(
    probe_q: &PQ,
    probe_p: &PP,
    pager_q: SharedPager,
    pager_p: SharedPager,
    leaves: &[NodeRef],
    self_join: bool,
    opts: &RcjOptions,
    sink: &mut dyn PairSink,
) -> RcjStats {
    let workers = opts.executor.worker_count().min(leaves.len().max(1));
    if workers <= 1 {
        return run_sequential(
            probe_q, probe_p, pager_q, pager_p, leaves, self_join, opts, sink,
        );
    }
    run_parallel(
        probe_q, probe_p, pager_q, pager_p, leaves, workers, self_join, opts, sink,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_sequential<PQ: IndexProbe, PP: IndexProbe>(
    probe_q: &PQ,
    probe_p: &PP,
    pager_q: SharedPager,
    pager_p: SharedPager,
    leaves: &[NodeRef],
    self_join: bool,
    opts: &RcjOptions,
    sink: &mut dyn PairSink,
) -> RcjStats {
    let mut stats = RcjStats::default();
    let mut pgq = pager_q;
    let mut pgp = pager_p;
    let mut pagers = Pagers::Split {
        q: &mut pgq,
        p: &mut pgp,
    };
    for leaf in leaves {
        let items = leaf_items(probe_q, pagers.q(), *leaf);
        if !process_leaf(
            probe_q,
            probe_p,
            &mut pagers,
            &items,
            self_join,
            opts,
            sink,
            &mut stats,
        ) {
            break;
        }
    }
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

/// Number of upcoming leaf pages a worker hands the background
/// [`Prefetcher`] each time it refreshes its lookahead (store-backed
/// runs only). Deep enough that staging overlaps the verification of
/// the current chunk, shallow enough not to flood a tight buffer
/// budget with pages that would be evicted before their turn.
const PREFETCH_WINDOW: usize = 16;

/// Scheduling weight of one outer leaf group: its spatial extent
/// (rectangle half-perimeter). On skewed `T_Q` a wide leaf spans more of
/// the inner tree — more filter sub-trees opened, more verification
/// probes — so extent-weighted seeding hands each worker comparable
/// *work*, not just comparable leaf counts. The `1.0` floor keeps
/// zero-extent leaves (duplicate-heavy data) and non-finite regions (a
/// root standing in for the whole plane) schedulable.
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

/// Per-worker result, merged deterministically by leaf tag.
struct WorkerOutput {
    /// Pairs tagged with the position of their outer leaf group in the
    /// scheduled leaf list.
    tagged: Vec<(usize, crate::RcjPair)>,
    stats: RcjStats,
    readers: Readers,
}

#[allow(clippy::too_many_arguments)]
fn run_parallel<PQ: IndexProbe, PP: IndexProbe>(
    probe_q: &PQ,
    probe_p: &PP,
    pager_q: SharedPager,
    pager_p: SharedPager,
    leaves: &[NodeRef],
    workers: usize,
    self_join: bool,
    opts: &RcjOptions,
    sink: &mut dyn PairSink,
) -> RcjStats {
    // Workers read each pager's page source through its own buffer:
    // trees sharing a pager (the paper's setup, and every self-join)
    // share both, exactly as they share one LRU buffer sequentially,
    // and the buffer stays warm across runs. A disk-native pager hands
    // out its store instead of a resident snapshot — the pool's frames
    // become the only RAM copy.
    let pinned = Readers::pin(&pager_q, &pager_p, None);

    // The prefetch schedule rides on the outer (`T_Q`) store: the
    // extent-weighted chunks the workers claim are known in advance, so
    // a background thread can stage each worker's upcoming leaf pages
    // while it verifies the current ones.
    let prefetcher = pinned.prefetcher();

    let queues = seed_queues(leaves, workers);

    let results: Vec<WorkerOutput> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let mut readers = pinned.clone();
                let queues = &queues;
                let prefetcher = prefetcher.as_ref();
                scope.spawn(move || {
                    let mut tagged: Vec<(usize, crate::RcjPair)> = Vec::new();
                    let mut stats = RcjStats::default();
                    {
                        let mut pagers = readers.pagers();
                        // Claims until the next lookahead refresh: each
                        // refresh stages the next window of this
                        // worker's own deque (steals land on the tail,
                        // so the front stays an accurate schedule).
                        let mut until_refresh = 0usize;
                        while let Some(pos) = next_leaf(queues, w) {
                            if let Some(pf) = prefetcher {
                                if until_refresh == 0 {
                                    let upcoming: Vec<PageId> = {
                                        let dq = queues[w].lock().expect("worker deque poisoned");
                                        dq.iter()
                                            .take(PREFETCH_WINDOW)
                                            .map(|&p| leaves[p].page)
                                            .collect()
                                    };
                                    until_refresh = (upcoming.len() / 2).max(1);
                                    pf.request(upcoming);
                                } else {
                                    until_refresh -= 1;
                                }
                            }
                            let items = leaf_items(probe_q, pagers.q(), leaves[pos]);
                            let mut tag_sink = TagAdapter {
                                leaf: pos,
                                inner: &mut tagged,
                            };
                            process_leaf(
                                probe_q,
                                probe_p,
                                &mut pagers,
                                &items,
                                self_join,
                                opts,
                                &mut tag_sink,
                                &mut stats,
                            );
                        }
                    }
                    WorkerOutput {
                        tagged,
                        stats,
                        readers,
                    }
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
    // exactly — whichever worker ended up with which leaf. Counters and
    // I/O are always fully absorbed (the work has already happened); the
    // sink can only stop the *reporting* early.
    let mut stats = RcjStats::default();
    let mut merged: Vec<(usize, crate::RcjPair)> = Vec::new();
    for w in results {
        stats.merge(w.stats);
        w.readers.absorb(&pager_q, &pager_p);
        merged.extend(w.tagged);
    }
    merged.sort_by_key(|(leaf, _)| *leaf);
    for (_, pr) in merged {
        if !sink.push(pr) {
            break;
        }
    }
    stats
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
