//! The RCJ join: INJ (Algorithms 4–5), BIJ (Algorithm 6) and OBJ
//! (Section 4.2), plus the self-join variant.
//!
//! All three algorithms are one loop over the outer tree's leaf groups,
//! held by `LeafPass`: its `run` filters one leaf group of `T_Q` against
//! `T_P` (per point for INJ, in bulk for BIJ and OBJ) and verifies the
//! candidates. The pass is generic over [`RcjIndex`], so it serves every
//! index (R*-tree, quadtree, and any future one) — the index-specific
//! knowledge lives entirely in the [`IndexProbe`](crate::IndexProbe).
//!
//! The pass is handed its leaf list, in depth-first order. One walk
//! lists an index's leaves: the page-keyed memo behind
//! [`leaf_regions`]. The [`Engine`](crate::Engine) keeps each dataset's
//! list, so its plans read no page before the first leaf; the one-shot
//! functions here walk `T_Q` once per call.
//! When and where each leaf runs is the
//! [`executor`](crate::executor)'s schedule: sequentially on one reader,
//! on work-stealing threads, or over an explicit leaf subset
//! ([`Plan::run_leaves_pooled`](crate::Plan::run_leaves_pooled)). Every
//! schedule, and the leaf walk, reads through readers pinned on the
//! pager ([`PooledPager`](ringjoin_storage::PooledPager)s); every one
//! gives the same pairs in the same order and counts in one LRU.
//!
//! Result pairs are *emitted*, not materialised: every driver reports
//! through a [`PairSink`](crate::PairSink), and a plain `Vec<RcjPair>`
//! is just one sink. [`rcj_join`]/[`rcj_self_join`] are thin
//! materialising wrappers over [`rcj_join_into`]/[`rcj_self_join_into`];
//! the lazy access path over the same drivers is
//! [`RcjStream`](crate::RcjStream) (via the engine's
//! [`Plan::stream`](crate::Plan::stream) or [`rcj_stream`](crate::rcj_stream)).
//! Ranked queries are one more sink: the [`TopK`](crate::TopK) sink
//! keeps the `k` best pairs, and the pass cuts each leaf's filter at
//! the sink's [cut](crate::PairSink::cut), its `k`-th best squared
//! diameter so far. A windowed plan
//! ([`QueryBuilder::within`](crate::QueryBuilder::within)) hands the
//! pass its [`RingBounds`]: the pass skips the outer leaves the window
//! does not reach, cuts each leaf point's filter at the window's exact
//! diameter (at −∞ for a point no admitted pair can end; a sink's cut
//! combines with it by `min`), and verifies only the candidates the
//! window admits. Without a window and with an unbounded sink every cut
//! is infinite, and the filter runs without the test.
//! [`RcjAlgorithm::Auto`] defers the algorithm choice to the
//! [`planner`](crate::planner)'s calibrated cost model.

use crate::executor::{execute, read_pinned, Readers};
use crate::filter::{bulk_filter_with, filter_with};
use crate::index::{IndexEntry, IndexProbe, NodeRef, RcjIndex};
use crate::pair::RcjPair;
use crate::planner::JoinCostModel;
use crate::stats::RcjStats;
use crate::stream::PairSink;
use crate::verify::verify_with;
use crate::window::{RingBounds, Window};
use crate::Executor;
use ringjoin_geom::{Item, Rect};
use ringjoin_storage::{PageId, PooledPager};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

/// Which RCJ algorithm to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RcjAlgorithm {
    /// Index Nested Loop Join (Algorithm 5): one filter + one verification
    /// per point of `Q`, depth-first over `T_Q`.
    Inj,
    /// Bulk Index Nested Loop Join (Algorithm 6): one bulk filter + one
    /// verification per *leaf* of `T_Q`.
    Bij,
    /// Optimized BIJ (Section 4.2): BIJ plus the symmetric pruning rule of
    /// Lemma 5 — the paper's best algorithm.
    #[default]
    Obj,
    /// Defer the choice to the [`planner`](crate::planner): the
    /// calibrated cost model picks the concrete algorithm with the
    /// smallest estimated node reads at plan time (before any page is
    /// touched). The engine's [`Plan`](crate::Plan) records — and
    /// `explain` shows — what `Auto` resolved to.
    Auto,
}

impl RcjAlgorithm {
    /// Display name as used in the paper's figures (`Auto` before
    /// resolution renders as `AUTO`).
    pub fn name(&self) -> &'static str {
        match self {
            RcjAlgorithm::Inj => "INJ",
            RcjAlgorithm::Bij => "BIJ",
            RcjAlgorithm::Obj => "OBJ",
            RcjAlgorithm::Auto => "AUTO",
        }
    }

    /// Parses the lowercase user-facing spelling
    /// (`auto`/`inj`/`bij`/`obj`) — the one mapping the CLI flags and
    /// the server wire protocol both resolve through, so the two
    /// surfaces cannot drift apart.
    pub fn from_name(s: &str) -> Option<RcjAlgorithm> {
        match s {
            "auto" => Some(RcjAlgorithm::Auto),
            "inj" => Some(RcjAlgorithm::Inj),
            "bij" => Some(RcjAlgorithm::Bij),
            "obj" => Some(RcjAlgorithm::Obj),
            _ => None,
        }
    }

    /// Resolves `Auto` against an outer-dataset summary with the default
    /// cost model; concrete algorithms resolve to themselves.
    pub fn resolve(self, outer: &crate::planner::DatasetSummary) -> RcjAlgorithm {
        match self {
            RcjAlgorithm::Auto => JoinCostModel::default().choose(outer),
            concrete => concrete,
        }
    }
}

/// Processing order of the outer tree's leaf nodes (Section 3.4 studies
/// why depth-first matters; `Shuffled` exists for the ablation bench).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OuterOrder {
    /// Depth-first traversal of `T_Q` — spatially adjacent leaves are
    /// processed consecutively, so filter/verification probes share
    /// buffered pages.
    #[default]
    DepthFirst,
    /// Deterministically shuffled leaf order (seeded) — destroys access
    /// locality, quantifying the benefit of depth-first order.
    Shuffled(u64),
}

/// Options controlling an RCJ run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RcjOptions {
    /// Algorithm choice (default [`RcjAlgorithm::Obj`];
    /// [`RcjAlgorithm::Auto`] defers to the planner).
    pub algorithm: RcjAlgorithm,
    /// Skip the verification step, reporting raw filter candidates
    /// (Figure 14 measures its cost share; results are then a superset).
    pub skip_verification: bool,
    /// Disable the face-inside-circle verification shortcut (ablation;
    /// only ever active on indexes with minimal regions).
    pub no_face_rule: bool,
    /// Leaf processing order for the outer tree.
    pub outer_order: OuterOrder,
    /// Execution mode (default [`Executor::from_env`]: sequential unless
    /// `RINGJOIN_THREADS` says otherwise). Parallel runs produce output
    /// identical to sequential runs, pair for pair.
    pub executor: Executor,
}

impl RcjOptions {
    /// Options for a given algorithm with everything else default.
    pub fn algorithm(algorithm: RcjAlgorithm) -> Self {
        RcjOptions {
            algorithm,
            ..Default::default()
        }
    }

    /// Returns these options with the given executor.
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// These options in depth-first outer order: the order of a run over
    /// a subset of leaf positions, which are global leaf indices only in
    /// that order.
    pub(crate) fn depth_first(&self) -> RcjOptions {
        RcjOptions {
            outer_order: OuterOrder::DepthFirst,
            ..*self
        }
    }
}

/// The outcome of an RCJ run: result pairs plus CPU-side counters (I/O
/// counters live in the shared pager and are snapshotted by the caller;
/// every run folds its readers' I/O counters back into it).
#[derive(Clone, Debug)]
pub struct RcjOutput {
    /// The join result (or the unverified candidates when
    /// [`RcjOptions::skip_verification`] is set).
    pub pairs: Vec<RcjPair>,
    /// Run counters.
    pub stats: RcjStats,
}

/// Computes the ring-constrained join between `Q` (outer, indexed by
/// `tq`) and `P` (inner, indexed by `tp`).
///
/// Returns all pairs `⟨p, q⟩`, `p ∈ P`, `q ∈ Q`, whose smallest enclosing
/// circle contains no other point of `P ∪ Q` strictly inside. The two
/// indexes need not be of the same kind — any [`RcjIndex`] works on
/// either side.
///
/// This is the one-shot materialising form: a thin wrapper that runs
/// [`rcj_join_into`] with a `Vec` sink. Sessions holding datasets across
/// queries should use the [`Engine`](crate::Engine); lazy consumption
/// goes through [`rcj_stream`](crate::rcj_stream) /
/// [`Plan::stream`](crate::Plan::stream).
///
/// ```
/// use ringjoin_core::{rcj_join, RcjOptions};
/// use ringjoin_rtree::{bulk_load, Item};
/// use ringjoin_storage::{MemDisk, Pager};
/// use ringjoin_geom::pt;
///
/// // Figure 1 of the paper: three of the four pairs qualify.
/// let pager = Pager::new(MemDisk::new(1024), 16).into_shared();
/// let p = vec![Item::new(1, pt(0.28, 0.88)), Item::new(2, pt(0.40, 0.35))];
/// let q = vec![Item::new(1, pt(0.15, 0.59)), Item::new(2, pt(0.83, 0.20))];
/// let tp = bulk_load(pager.clone(), p);
/// let tq = bulk_load(pager.clone(), q);
/// let out = rcj_join(&tq, &tp, &RcjOptions::default());
/// let mut keys: Vec<(u64, u64)> = out.pairs.iter().map(|pr| pr.key()).collect();
/// keys.sort();
/// assert_eq!(keys, vec![(1, 1), (2, 1), (2, 2)]); // <p1,q2> is excluded
/// ```
pub fn rcj_join<IQ: RcjIndex, IP: RcjIndex>(tq: &IQ, tp: &IP, opts: &RcjOptions) -> RcjOutput {
    run(tq, tp, false, opts)
}

/// Computes the self-RCJ of one dataset (the paper's postboxes
/// application): all unordered pairs of distinct points whose circle
/// contains no third point. Each pair is reported once, with
/// `p.id < q.id`. Like [`rcj_join`], a materialising wrapper over
/// [`rcj_self_join_into`].
pub fn rcj_self_join<I: RcjIndex>(tree: &I, opts: &RcjOptions) -> RcjOutput {
    run(tree, tree, true, opts)
}

/// [`rcj_join`] emitting through a caller-supplied [`PairSink`] instead
/// of materialising a `Vec`.
///
/// Under [`Executor::Sequential`] pairs reach the sink leaf group by
/// leaf group, and a sink returning `false` stops the join early (the
/// remaining outer leaves are never read). Under a parallel executor the
/// deterministic merge happens first, so the sink sees the same pairs in
/// the same order but only after all workers finish; early exit then
/// saves reporting, not work. Returns the run's counters
/// (`result_pairs` counts the pairs the drivers reported to the sink).
pub fn rcj_join_into<IQ: RcjIndex, IP: RcjIndex>(
    tq: &IQ,
    tp: &IP,
    opts: &RcjOptions,
    sink: &mut dyn PairSink,
) -> RcjStats {
    run_into(tq, tp, false, opts, sink)
}

/// [`rcj_self_join`] emitting through a caller-supplied [`PairSink`];
/// see [`rcj_join_into`] for the sink contract.
pub fn rcj_self_join_into<I: RcjIndex>(
    tree: &I,
    opts: &RcjOptions,
    sink: &mut dyn PairSink,
) -> RcjStats {
    run_into(tree, tree, true, opts, sink)
}

fn run<IQ: RcjIndex, IP: RcjIndex>(
    tq: &IQ,
    tp: &IP,
    self_join: bool,
    opts: &RcjOptions,
) -> RcjOutput {
    let mut pairs: Vec<RcjPair> = Vec::new();
    let stats = run_into(tq, tp, self_join, opts, &mut pairs);
    RcjOutput { pairs, stats }
}

fn run_into<IQ: RcjIndex, IP: RcjIndex>(
    tq: &IQ,
    tp: &IP,
    self_join: bool,
    opts: &RcjOptions,
    sink: &mut dyn PairSink,
) -> RcjStats {
    execute(
        &LeafPass::new(tq, tp, self_join, opts, outer_leaves(tq)),
        tq.pager(),
        tp.pager(),
        sink,
    )
}

/// The regions of `tree`'s leaf groups in depth-first order — the same
/// order [`rcj_join`]'s drivers process them in (with the default
/// [`OuterOrder::DepthFirst`]), so the position of a region in this list
/// is the leaf group's **global leaf index**: the partition key of
/// [`Plan::run_leaves`](crate::Plan::run_leaves) and the merge key
/// sharded executions order their results by.
///
/// Each region is the *tight* MBR of the group's data items, not the
/// stored node region — node regions can be conservative (the R-tree
/// probe bounds its root by the whole plane, and a quadtree quadrant is
/// a space partition, not a data bound), and a shard router needs a
/// finite, data-derived rectangle to assign and route by.
///
/// Reads every index page once. Callers that route repeatedly should go
/// through [`Engine::leaf_regions`](crate::Engine::leaf_regions), which
/// reads none: the engine keeps each dataset's list.
pub fn leaf_regions<I: RcjIndex>(tree: &I) -> Vec<Rect> {
    outer_leaves(tree).iter().map(|leaf| leaf.region).collect()
}

/// `tree`'s leaf groups in depth-first order, each with the tight MBR of
/// its items as its region: one fresh walk of the memo behind
/// [`leaf_regions`], reading every index page once.
pub(crate) fn outer_leaves<I: RcjIndex>(tree: &I) -> Arc<[NodeRef]> {
    LeafRegionMemo::default().leaves(tree).into()
}

/// What the leaf walk keeps of one decoded node.
struct NodeSummary {
    /// The page's [write stamp](ringjoin_storage::Pager::page_stamp)
    /// when it was decoded.
    stamp: u64,
    /// Child pages, overflow continuations included, in storage order.
    children: Box<[PageId]>,
    /// Tight MBR of the node's own data items; `None` if it holds none.
    items: Option<Rect>,
    /// Whether the walk in progress has reached the node; cleared when
    /// the walk ends.
    seen: bool,
}

/// A page-keyed memo of decoded node summaries for one tree: the one
/// walk that lists an index's leaves.
///
/// Invariant: an entry decoded at stamp `s` is used only while the
/// pager still reports stamp `s` for its page, so it always equals what
/// decoding the page now would give. A walk re-reads exactly the pages a
/// write moved — after a mutation batch, the pages the batch wrote — and
/// answers the rest from memory. It still visits every node, in the
/// order a from-scratch walk would, so leaf indices need no splicing.
/// Entries stay in place: a walk looks each page up once and marks it
/// seen, and entries for pages it no longer reaches (a condensed R-tree
/// node, a rebuilt quadtree) are dropped when it ends. A walk from an
/// empty memo reads every page once, in depth-first preorder.
#[derive(Default)]
pub(crate) struct LeafRegionMemo {
    nodes: HashMap<PageId, NodeSummary>,
}

impl LeafRegionMemo {
    /// `tree`'s leaf groups in depth-first order: every node that stores
    /// data items (R-tree leaves, quadtree buckets and their
    /// overflow-chain pages alike), each with the tight MBR of its items
    /// as its region, as [`leaf_regions`] documents them. Pages are read
    /// through a reader pinned on the tree's pager; their stamps come
    /// from the pager itself.
    pub(crate) fn leaves<I: RcjIndex>(&mut self, tree: &I) -> Vec<NodeRef> {
        let probe = tree.probe();
        let root = probe.root();
        let pager = tree.pager();
        let mut leaves = Vec::new();
        let mut entries = Vec::new();
        let mut stack = vec![root.page];
        read_pinned(&pager, |pg| {
            while let Some(page) = stack.pop() {
                let stamp = pager.borrow().page_stamp(page);
                let mut decode = || {
                    // Only child pages and item bounds are kept, so the
                    // region the node is expanded under does not matter.
                    entries.clear();
                    probe.expand(pg, NodeRef { page, ..root }, &mut entries);
                    summarize(stamp, &entries)
                };
                let node = match self.nodes.entry(page) {
                    Entry::Occupied(known) => {
                        let node = known.into_mut();
                        if node.stamp != stamp {
                            *node = decode();
                        }
                        node
                    }
                    Entry::Vacant(slot) => slot.insert(decode()),
                };
                node.seen = true;
                leaves.extend(node.items.map(|region| NodeRef { page, region }));
                stack.extend(node.children.iter().rev());
            }
        });
        self.nodes
            .retain(|_, node| std::mem::replace(&mut node.seen, false));
        leaves
    }
}

fn summarize(stamp: u64, entries: &[IndexEntry]) -> NodeSummary {
    NodeSummary {
        stamp,
        children: entries
            .iter()
            .filter_map(|e| match e {
                IndexEntry::Node(child) => Some(child.page),
                IndexEntry::Item(_) => None,
            })
            .collect(),
        items: Rect::from_points(entries.iter().filter_map(|e| match e {
            IndexEntry::Item(it) => Some(it.point),
            IndexEntry::Node(_) => None,
        })),
        seen: false,
    }
}

/// One pass over the outer tree's leaf groups — the loop of Algorithms
/// 5–7: filter a leaf group of `T_Q` against `T_P`, then verify its
/// candidates.
///
/// The pass holds what every leaf needs: both probes, the outer leaf
/// groups in processing order, the self-join flag, the run's options
/// with [`RcjAlgorithm::Auto`] resolved, and a windowed plan's window
/// in the form the pass tests it (see [`LeafPass::within`]). Every
/// leaf-order path runs its leaves through [`LeafPass::run`] and
/// differs only in schedule (see the [`executor`](crate::executor)):
/// the sequential and work-stealing executors, the leaf-subset driver
/// behind [`Plan::run_leaves_pooled`](crate::Plan::run_leaves_pooled),
/// and the leaf-order [`RcjStream`](crate::RcjStream).
pub(crate) struct LeafPass<PQ: IndexProbe, PP: IndexProbe> {
    probe_q: PQ,
    probe_p: PP,
    /// The outer leaf groups, each with the tight MBR of its items as
    /// its region; a position in this list is a leaf's global index when
    /// the order is depth-first.
    pub(crate) leaves: Arc<[NodeRef]>,
    self_join: bool,
    opts: RcjOptions,
    window: Option<Window>,
}

impl<PQ: IndexProbe, PP: IndexProbe> LeafPass<PQ, PP> {
    /// Resolves `Auto` against the outer summary and takes `leaves`,
    /// `tq`'s leaf groups in depth-first order as [`outer_leaves`] lists
    /// them, shuffling a copy for the ablation order. Reads no page:
    /// [`LeafPass::run`] reads each leaf page right before its group is
    /// processed, which keeps it hot in the buffer in the depth-first
    /// case, matching Algorithm 5's inline recursion.
    pub(crate) fn new<IQ, IP>(
        tq: &IQ,
        tp: &IP,
        self_join: bool,
        opts: &RcjOptions,
        leaves: Arc<[NodeRef]>,
    ) -> Self
    where
        IQ: RcjIndex<Probe = PQ>,
        IP: RcjIndex<Probe = PP>,
    {
        let opts = RcjOptions {
            algorithm: opts.algorithm.resolve(&tq.summary()),
            ..*opts
        };
        let leaves = match opts.outer_order {
            OuterOrder::DepthFirst => leaves,
            OuterOrder::Shuffled(seed) => {
                let mut shuffled = leaves.to_vec();
                shuffle(&mut shuffled, seed);
                shuffled.into()
            }
        };
        LeafPass {
            probe_q: tq.probe(),
            probe_p: tp.probe(),
            leaves,
            self_join,
            opts,
            window: None,
        }
    }

    /// Restricts the pass to `window`, a window the plan has checked
    /// with [`validate_bounds`](crate::validate_bounds): see
    /// [`LeafPass::reaches`] and [`LeafPass::run`]. `None` leaves the
    /// pass unbounded.
    pub(crate) fn within(mut self, window: Option<RingBounds>) -> Self {
        self.window = window.map(Window::new);
        self
    }

    /// The number of workers the options' executor runs the pass on: at
    /// most one per leaf group.
    pub(crate) fn workers(&self) -> usize {
        self.opts
            .executor
            .worker_count()
            .min(self.leaves.len().max(1))
    }

    /// Can the leaf group at `pos` hold the `q` of a pair the window
    /// admits? Always without a window. A leaf that cannot is neither
    /// read nor prefetched.
    pub(crate) fn reaches(&self, pos: usize) -> bool {
        self.window
            .as_ref()
            .is_none_or(|w| w.reaches(self.leaves[pos].region))
    }

    /// Expands the leaf group at `pos` and computes its RCJ contribution,
    /// emitting result pairs into `sink`. Returns `false` as soon as the
    /// sink requests a stop (early exit), `true` otherwise.
    ///
    /// Each filter is cut at the sink's [cut](PairSink::cut), read just
    /// before it runs: a ranked sink's shrinking bound. Within a window,
    /// a leaf the window does not reach is skipped unread, and each
    /// point's cut is the smaller of the sink's and the window's for
    /// that point.
    pub(crate) fn run(
        &self,
        pos: usize,
        readers: &mut Readers,
        sink: &mut dyn PairSink,
        stats: &mut RcjStats,
    ) -> bool {
        if !self.reaches(pos) {
            return true;
        }
        let leaf_points = leaf_items(&self.probe_q, readers.q(), self.leaves[pos]);
        let cut_of = |q: &Item, sink_cut: f64| match &self.window {
            None => sink_cut,
            Some(w) => w.cut(q.point).min(sink_cut),
        };
        match self.opts.algorithm {
            RcjAlgorithm::Inj => {
                // Algorithm 4: per-point filter and verification.
                for &q in &leaf_points {
                    let exclude = self.self_join.then_some(q.id);
                    let cut = cut_of(&q, sink.cut());
                    let cands =
                        filter_with(&self.probe_p, readers.p(), q.point, exclude, cut, stats);
                    stats.candidate_pairs += cands.len() as u64;
                    let pairs: Vec<RcjPair> =
                        cands.into_iter().map(|p| RcjPair::new(p, q)).collect();
                    if !self.finish(readers, pairs, sink, stats) {
                        return false;
                    }
                }
                true
            }
            RcjAlgorithm::Bij | RcjAlgorithm::Obj => {
                let symmetric = self.opts.algorithm == RcjAlgorithm::Obj;
                let sink_cut = sink.cut();
                let cuts: Vec<f64> = leaf_points.iter().map(|q| cut_of(q, sink_cut)).collect();
                let bulk = bulk_filter_with(
                    &self.probe_p,
                    readers.p(),
                    &leaf_points,
                    symmetric,
                    self.self_join,
                    &cuts,
                    stats,
                );
                let mut pairs: Vec<RcjPair> = Vec::new();
                for (i, &q) in leaf_points.iter().enumerate() {
                    stats.candidate_pairs += bulk.sets[i].len() as u64;
                    pairs.extend(bulk.sets[i].iter().map(|&p| RcjPair::new(p, q)));
                }
                self.finish(readers, pairs, sink, stats)
            }
            RcjAlgorithm::Auto => unreachable!("Auto is resolved when the pass is built"),
        }
    }

    /// Runs every leaf group in list order, stopping when the sink does:
    /// the sequential executor's loop, and one round of a ranked stream.
    pub(crate) fn run_all(
        &self,
        readers: &mut Readers,
        sink: &mut dyn PairSink,
        stats: &mut RcjStats,
    ) {
        for pos in 0..self.leaves.len() {
            if !self.run(pos, readers, sink, stats) {
                break;
            }
        }
    }

    /// Verification + reporting for a batch of candidate pairs, of which
    /// a window's pass verifies only those the window admits. Returns
    /// `false` when the sink stopped the run mid-batch.
    fn finish(
        &self,
        readers: &mut Readers,
        mut pairs: Vec<RcjPair>,
        sink: &mut dyn PairSink,
        stats: &mut RcjStats,
    ) -> bool {
        if let Some(w) = &self.window {
            pairs.retain(|pr| w.admits(pr));
        }
        if pairs.is_empty() {
            return true;
        }
        let mut alive = vec![true; pairs.len()];
        if !self.opts.skip_verification {
            let face = !self.opts.no_face_rule;
            verify_with(&self.probe_q, readers.q(), &pairs, &mut alive, face, stats);
            if !self.self_join {
                verify_with(&self.probe_p, readers.p(), &pairs, &mut alive, face, stats);
            }
        }
        for (i, pr) in pairs.into_iter().enumerate() {
            if !alive[i] {
                continue;
            }
            // Self-joins discover each unordered pair from both endpoints;
            // report it from the smaller id only.
            if self.self_join && pr.p.id >= pr.q.id {
                continue;
            }
            stats.result_pairs += 1;
            if !sink.push(pr) {
                return false;
            }
        }
        true
    }
}

/// The data items of one listed leaf group (expanding the node, so the
/// page is hot right when the group is processed).
pub(crate) fn leaf_items(
    probe: &impl IndexProbe,
    pg: &mut PooledPager,
    leaf: NodeRef,
) -> Vec<Item> {
    let mut entries: Vec<IndexEntry> = Vec::new();
    probe.expand(pg, leaf, &mut entries);
    entries
        .into_iter()
        .filter_map(|e| match e {
            IndexEntry::Item(it) => Some(it),
            IndexEntry::Node(_) => None,
        })
        .collect()
}

/// Deterministic Fisher–Yates shuffle with an xorshift generator — no RNG
/// dependency needed for the ablation path.
fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut state = seed.wrapping_mul(2685821657736338717).max(1);
    for i in (1..v.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::{rcj_brute, rcj_brute_self};
    use crate::pair::pair_keys;
    use ringjoin_geom::pt;
    use ringjoin_rtree::bulk_load;
    use ringjoin_storage::{MemDisk, Pager, SharedPager};

    fn pager() -> SharedPager {
        Pager::new(MemDisk::new(1024), 128).into_shared()
    }

    fn items(points: &[(f64, f64)], id_base: u64) -> Vec<Item> {
        points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Item::new(id_base + i as u64, pt(x, y)))
            .collect()
    }

    use ringjoin_testsupport::lcg_points;

    #[test]
    fn all_algorithms_match_brute_force() {
        let ps = items(&lcg_points(120, 7, 1000.0), 0);
        let qs = items(&lcg_points(150, 13, 1000.0), 0);
        let expect = pair_keys(&rcj_brute(&ps, &qs));
        assert!(!expect.is_empty());

        for algo in [RcjAlgorithm::Inj, RcjAlgorithm::Bij, RcjAlgorithm::Obj] {
            let pg = pager();
            let tp = bulk_load(pg.clone(), ps.clone());
            let tq = bulk_load(pg.clone(), qs.clone());
            let out = rcj_join(&tq, &tp, &RcjOptions::algorithm(algo));
            assert_eq!(
                pair_keys(&out.pairs),
                expect,
                "{} disagrees with brute force",
                algo.name()
            );
            assert_eq!(out.stats.result_pairs, expect.len() as u64);
            assert!(out.stats.candidate_pairs >= out.stats.result_pairs);
        }
    }

    #[test]
    fn auto_resolves_and_matches_brute_force() {
        let ps = items(&lcg_points(130, 17, 900.0), 0);
        let qs = items(&lcg_points(140, 19, 900.0), 0);
        let expect = pair_keys(&rcj_brute(&ps, &qs));
        let pg = pager();
        let tp = bulk_load(pg.clone(), ps);
        let tq = bulk_load(pg.clone(), qs);
        let out = rcj_join(&tq, &tp, &RcjOptions::algorithm(RcjAlgorithm::Auto));
        assert_eq!(pair_keys(&out.pairs), expect, "AUTO diverged from oracle");
        // Resolution is deterministic and concrete.
        let resolved = RcjAlgorithm::Auto.resolve(&tq.summary());
        assert_ne!(resolved, RcjAlgorithm::Auto);
        assert_eq!(resolved.name(), resolved.resolve(&tq.summary()).name());
    }

    #[test]
    fn sink_early_exit_stops_the_sequential_run() {
        struct TakeTwo(Vec<RcjPair>);
        impl crate::PairSink for TakeTwo {
            fn push(&mut self, pair: RcjPair) -> bool {
                self.0.push(pair);
                self.0.len() < 2
            }
        }
        let ps = items(&lcg_points(300, 23, 2000.0), 0);
        let qs = items(&lcg_points(300, 27, 2000.0), 0);
        let pg = pager();
        let tp = bulk_load(pg.clone(), ps);
        let tq = bulk_load(pg.clone(), qs);
        let full = rcj_join(
            &tq,
            &tp,
            &RcjOptions::default().with_executor(Executor::Sequential),
        );
        assert!(full.pairs.len() > 2);

        let mut sink = TakeTwo(Vec::new());
        let stats = rcj_join_into(
            &tq,
            &tp,
            &RcjOptions::default().with_executor(Executor::Sequential),
            &mut sink,
        );
        assert_eq!(sink.0.len(), 2);
        // The prefix matches the full run, and the early exit did
        // strictly less filter work than the full run.
        assert_eq!(sink.0[0].key(), full.pairs[0].key());
        assert_eq!(sink.0[1].key(), full.pairs[1].key());
        assert!(stats.filter_heap_pops < full.stats.filter_heap_pops);
    }

    #[test]
    fn self_join_matches_brute_force() {
        let its = items(&lcg_points(130, 29, 500.0), 0);
        let expect = pair_keys(&rcj_brute_self(&its));
        assert!(!expect.is_empty());
        for algo in [RcjAlgorithm::Inj, RcjAlgorithm::Bij, RcjAlgorithm::Obj] {
            let pg = pager();
            let tree = bulk_load(pg.clone(), its.clone());
            let out = rcj_self_join(&tree, &RcjOptions::algorithm(algo));
            assert_eq!(
                pair_keys(&out.pairs),
                expect,
                "{} self-join disagrees with brute force",
                algo.name()
            );
            // Every pair reported once, smaller id first.
            for pr in &out.pairs {
                assert!(pr.p.id < pr.q.id);
            }
        }
    }

    #[test]
    fn shuffled_order_changes_io_not_results() {
        let ps = items(&lcg_points(400, 31, 2000.0), 0);
        let qs = items(&lcg_points(400, 37, 2000.0), 0);
        let pg = pager();
        let tp = bulk_load(pg.clone(), ps);
        let tq = bulk_load(pg.clone(), qs);
        let df = rcj_join(&tq, &tp, &RcjOptions::default());
        let sh = rcj_join(
            &tq,
            &tp,
            &RcjOptions {
                outer_order: OuterOrder::Shuffled(99),
                ..Default::default()
            },
        );
        assert_eq!(pair_keys(&df.pairs), pair_keys(&sh.pairs));
    }

    #[test]
    fn skip_verification_yields_candidate_superset() {
        let ps = items(&lcg_points(200, 41, 800.0), 0);
        let qs = items(&lcg_points(200, 43, 800.0), 0);
        let pg = pager();
        let tp = bulk_load(pg.clone(), ps);
        let tq = bulk_load(pg.clone(), qs);
        let verified = rcj_join(&tq, &tp, &RcjOptions::default());
        let raw = rcj_join(
            &tq,
            &tp,
            &RcjOptions {
                skip_verification: true,
                ..Default::default()
            },
        );
        let vk = pair_keys(&verified.pairs);
        let rk = pair_keys(&raw.pairs);
        assert!(rk.len() >= vk.len());
        let raw_set: std::collections::HashSet<_> = rk.into_iter().collect();
        for k in vk {
            assert!(
                raw_set.contains(&k),
                "verified pair {k:?} missing from candidates"
            );
        }
    }

    #[test]
    fn no_face_rule_same_results() {
        let ps = items(&lcg_points(150, 47, 600.0), 0);
        let qs = items(&lcg_points(150, 53, 600.0), 0);
        let pg = pager();
        let tp = bulk_load(pg.clone(), ps);
        let tq = bulk_load(pg.clone(), qs);
        let with = rcj_join(&tq, &tp, &RcjOptions::default());
        let without = rcj_join(
            &tq,
            &tp,
            &RcjOptions {
                no_face_rule: true,
                ..Default::default()
            },
        );
        assert_eq!(pair_keys(&with.pairs), pair_keys(&without.pairs));
    }

    #[test]
    fn obj_candidates_never_exceed_bij() {
        let ps = items(&lcg_points(500, 59, 3000.0), 0);
        let qs = items(&lcg_points(500, 61, 3000.0), 0);
        let pg = pager();
        let tp = bulk_load(pg.clone(), ps);
        let tq = bulk_load(pg.clone(), qs);
        let bij = rcj_join(&tq, &tp, &RcjOptions::algorithm(RcjAlgorithm::Bij));
        let obj = rcj_join(&tq, &tp, &RcjOptions::algorithm(RcjAlgorithm::Obj));
        assert!(obj.stats.candidate_pairs <= bij.stats.candidate_pairs);
        assert_eq!(pair_keys(&bij.pairs), pair_keys(&obj.pairs));
    }

    #[test]
    fn empty_inputs() {
        let pg = pager();
        let tp = bulk_load(pg.clone(), vec![]);
        let tq = bulk_load(pg.clone(), items(&lcg_points(10, 3, 100.0), 0));
        let out = rcj_join(&tq, &tp, &RcjOptions::default());
        assert!(out.pairs.is_empty());
        let out2 = rcj_join(&tp, &tq, &RcjOptions::default());
        assert!(out2.pairs.is_empty());
    }

    #[test]
    fn singleton_inputs_always_join() {
        let pg = pager();
        let tp = bulk_load(pg.clone(), vec![Item::new(1, pt(10.0, 10.0))]);
        let tq = bulk_load(pg.clone(), vec![Item::new(5, pt(90.0, 90.0))]);
        let out = rcj_join(&tq, &tp, &RcjOptions::default());
        assert_eq!(out.pairs.len(), 1);
        assert_eq!(out.pairs[0].key(), (1, 5));
    }
}
