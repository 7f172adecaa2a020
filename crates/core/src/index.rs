//! The index abstraction the join drivers are generic over.
//!
//! Section 3 of the paper notes the RCJ methodology "is directly
//! applicable to other hierarchical spatial indexes". Making that claim
//! executable needs surprisingly little from an index:
//!
//! 1. a **node-expansion primitive** — decode one node into data items
//!    and child references, each child carrying a region that bounds its
//!    subtree's points. The filter's Lemma 3 pruning and the
//!    verification's disjoint-entry rule are valid for *any*
//!    subtree-bounding region (MBRs, quadrants, ...);
//! 2. the **root** to start from;
//! 3. one **capability flag**: whether regions are *minimal* (every face
//!    touches a data point, as for R-tree MBRs). The face-inside-circle
//!    verification shortcut is only sound on minimal regions — a
//!    quadtree quadrant face strictly inside a circle guarantees
//!    nothing, a porting subtlety the paper's remark glosses over.
//!
//! [`IndexProbe`] captures exactly that. It is deliberately a tiny
//! `Copy + Send + Sync + 'static` value (root page plus decode
//! parameters) with **no** interior page access of its own: every read
//! goes through the [`PooledPager`] argument, a reader pinned on the
//! tree's pager, which is how the same driver code runs on one reader
//! sequentially and on one per worker in parallel. [`RcjIndex`] ties a
//! probe to the tree that owns the pages, and additionally describes the
//! dataset ([`RcjIndex::summary`]) so the
//! [`planner`](crate::planner) can cost queries without touching pages.
//!
//! Both built-in indexes implement the traits here: the R*-tree
//! ([`RTreeProbe`]) and the bucket PR quadtree ([`QuadTreeProbe`]).

use crate::planner::DatasetSummary;
use ringjoin_geom::{Item, Point, Rect};
use ringjoin_quadtree::{quadrant, quadtree_decode, QNode, QuadTree};
use ringjoin_rtree::{NodeCodec, NodeEntry, RTree};
use ringjoin_storage::{PageId, PooledPager, SharedPager};

/// A reference to an index node: its page plus a region bounding every
/// point in its subtree (an MBR for R-trees, a quadrant region for
/// quadtrees).
#[derive(Clone, Copy, Debug)]
pub struct NodeRef {
    /// Page holding the node.
    pub page: PageId,
    /// Region bounding the subtree's points.
    pub region: Rect,
}

/// One entry obtained by expanding a node.
#[derive(Clone, Copy, Debug)]
pub enum IndexEntry {
    /// A data record stored in the node.
    Item(Item),
    /// A child (or overflow-continuation) node.
    Node(NodeRef),
}

/// A compact, thread-shareable traversal handle for one spatial index.
///
/// All INJ/BIJ/OBJ driver logic — leaf enumeration, the incremental-NN
/// filter, circle verification — is written once against this trait; see
/// the crate's [`filter`](crate::filter), [`verify`](crate::verify)
/// and [`rcj_join`](crate::rcj_join). The `'static` bound keeps probes
/// storable inside long-lived values such as [`RcjStream`](crate::RcjStream);
/// a probe is a value (codec parameters plus a root page), never a
/// borrow of its tree.
pub trait IndexProbe: Copy + Send + Sync + 'static {
    /// The root node. Its region may be conservative (the R-tree uses
    /// the whole plane rather than reading the root's MBR); drivers
    /// never apply pruning tests to the root region itself.
    fn root(&self) -> NodeRef;

    /// `true` if subtree regions are minimal, i.e. every region face
    /// touches a data point. Gates the face-inside-circle verification
    /// rule.
    fn minimal_regions(&self) -> bool;

    /// Decodes the node at `node` through `pg` and appends its entries
    /// to `out` in storage order. Child regions must bound the child's
    /// subtree; overflow continuations reuse the node's own region.
    fn expand(&self, pg: &mut PooledPager, node: NodeRef, out: &mut Vec<IndexEntry>);
}

/// An index the RCJ drivers can run over.
pub trait RcjIndex {
    /// The thread-shareable traversal handle.
    type Probe: IndexProbe;

    /// Creates a probe for this tree.
    fn probe(&self) -> Self::Probe;

    /// The pager owning this tree's pages, which every join reader is
    /// pinned on.
    fn pager(&self) -> SharedPager;

    /// Catalog-style description of the indexed dataset (cardinality,
    /// page counts, index kind) — the input of the
    /// [`planner`](crate::planner)'s cost model. Must be O(1): summaries
    /// are consulted at plan time, before any page is read.
    fn summary(&self) -> DatasetSummary;
}

/// [`IndexProbe`] of the R*-tree: the node codec plus the root page.
#[derive(Clone, Copy, Debug)]
pub struct RTreeProbe {
    codec: NodeCodec,
    root: PageId,
}

impl IndexProbe for RTreeProbe {
    fn root(&self) -> NodeRef {
        // The root's MBR is unknown without a read, and pruning the root
        // would be pointless anyway: bound it by the whole plane.
        NodeRef {
            page: self.root,
            region: Rect::new(
                Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
                Point::new(f64::INFINITY, f64::INFINITY),
            ),
        }
    }

    fn minimal_regions(&self) -> bool {
        true
    }

    fn expand(&self, pg: &mut PooledPager, node: NodeRef, out: &mut Vec<IndexEntry>) {
        let decoded = pg.read(node.page, |bytes| self.codec.decode(bytes));
        for e in &decoded.entries {
            match e {
                NodeEntry::Item(it) => out.push(IndexEntry::Item(*it)),
                NodeEntry::Child { mbr, page } => out.push(IndexEntry::Node(NodeRef {
                    page: *page,
                    region: *mbr,
                })),
            }
        }
    }
}

impl RcjIndex for RTree {
    type Probe = RTreeProbe;

    fn probe(&self) -> RTreeProbe {
        RTreeProbe {
            codec: self.codec(),
            root: self.root_page(),
        }
    }

    fn pager(&self) -> SharedPager {
        self.pager()
    }

    fn summary(&self) -> DatasetSummary {
        DatasetSummary::new(
            "rtree",
            self.len(),
            self.node_pages(),
            self.codec().leaf_capacity as u64,
        )
    }
}

/// [`IndexProbe`] of the bucket PR quadtree: the root page plus the
/// covered region (quadrant regions are derived, not stored).
///
/// There is no quadtree-specific join code: INJ, BIJ and OBJ run through
/// the shared generic drivers, and all this probe contributes is node
/// expansion over quadrant regions (Lemma 3's pruning test applies to
/// *any* region that bounds the subtree's points), with overflow-chain
/// pages surfacing as continuation nodes.
///
/// One capability does **not** transfer, and the probe says so: the
/// verification step's face-inside-circle rule relies on region
/// *minimality* — every face of an R-tree MBR touches a data point —
/// and quadrant regions are fixed-space partitions with no such
/// guarantee. [`IndexProbe::minimal_regions`] therefore answers `false`
/// here, and the generic verification falls back to the point-inside and
/// region-intersects rules alone — a porting subtlety the paper's
/// Section 3 remark glosses over.
#[derive(Clone, Copy, Debug)]
pub struct QuadTreeProbe {
    root: PageId,
    region: Rect,
}

impl IndexProbe for QuadTreeProbe {
    fn root(&self) -> NodeRef {
        NodeRef {
            page: self.root,
            region: self.region,
        }
    }

    fn minimal_regions(&self) -> bool {
        // Quadrants partition space, not data: a face strictly inside a
        // circle guarantees no point inside, so the face rule is unsound.
        false
    }

    fn expand(&self, pg: &mut PooledPager, node: NodeRef, out: &mut Vec<IndexEntry>) {
        match pg.read(node.page, quadtree_decode) {
            QNode::Leaf { items, next } => {
                out.extend(items.into_iter().map(IndexEntry::Item));
                if !next.is_invalid() {
                    // Overflow chains bound the same quadrant region.
                    out.push(IndexEntry::Node(NodeRef {
                        page: next,
                        region: node.region,
                    }));
                }
            }
            QNode::Internal { children } => {
                for (qi, child) in children.iter().enumerate() {
                    if !child.is_invalid() {
                        out.push(IndexEntry::Node(NodeRef {
                            page: *child,
                            region: quadrant(node.region, qi),
                        }));
                    }
                }
            }
        }
    }
}

impl RcjIndex for QuadTree {
    type Probe = QuadTreeProbe;

    fn probe(&self) -> QuadTreeProbe {
        QuadTreeProbe {
            root: self.root_page(),
            region: self.region(),
        }
    }

    fn pager(&self) -> SharedPager {
        self.pager()
    }

    fn summary(&self) -> DatasetSummary {
        DatasetSummary::new(
            "quadtree",
            self.len(),
            self.node_pages(),
            self.leaf_capacity() as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pair_keys, rcj_join, RcjAlgorithm, RcjOptions};
    use ringjoin_geom::{pt, Circle};
    use ringjoin_rtree::bulk_load;
    use ringjoin_storage::{MemDisk, Pager};

    #[test]
    fn rtree_probe_expands_every_item_exactly_once() {
        let pager = Pager::new(MemDisk::new(256), 64).into_shared();
        let items: Vec<Item> = (0..300)
            .map(|i| Item::new(i, pt((i % 17) as f64, (i % 23) as f64)))
            .collect();
        let tree = bulk_load(pager.clone(), items);
        let probe = tree.probe();
        assert!(probe.minimal_regions());

        // Exhaustive DF walk through the trait only.
        let mut stack = vec![probe.root()];
        let mut seen = Vec::new();
        crate::executor::read_pinned(&RcjIndex::pager(&tree), |pg| {
            while let Some(node) = stack.pop() {
                let mut entries = Vec::new();
                probe.expand(pg, node, &mut entries);
                for e in entries {
                    match e {
                        IndexEntry::Item(it) => seen.push(it.id),
                        IndexEntry::Node(child) => {
                            // Child regions bound their subtrees (spot
                            // check: the region is inside the parent's).
                            assert!(node.region.contains_point(child.region.min));
                            assert!(node.region.contains_point(child.region.max));
                            stack.push(child);
                        }
                    }
                }
            }
        });
        seen.sort_unstable();
        assert_eq!(seen, (0..300u64).collect::<Vec<_>>());
    }

    #[test]
    fn summaries_describe_the_trees() {
        let pager = Pager::new(MemDisk::new(512), 64).into_shared();
        let items: Vec<Item> = (0..500)
            .map(|i| Item::new(i, pt((i % 31) as f64 * 3.0, (i % 29) as f64 * 5.0)))
            .collect();
        let rt = bulk_load(pager.clone(), items.clone());
        let s = rt.summary();
        assert_eq!(s.kind, "rtree");
        assert_eq!(s.items, 500);
        assert_eq!(s.pages, rt.node_pages());
        assert!(s.leaf_pages >= 1 && s.leaf_pages <= s.pages);

        let region = Rect::new(pt(0.0, 0.0), pt(100.0, 150.0));
        let mut qt = QuadTree::new(pager, region);
        for it in &items {
            qt.insert(it.id, it.point);
        }
        let s = qt.summary();
        assert_eq!(s.kind, "quadtree");
        assert_eq!(s.items, 500);
        assert_eq!(s.pages, qt.node_pages());
        assert!(s.leaf_pages >= 1);
    }

    // --- Quadtree probe behaviour (moved here with the probe itself when
    // the dependency edge flipped: core now owns both built-in probes).

    fn lcg(n: usize, seed: u64) -> Vec<(f64, f64)> {
        ringjoin_testsupport::lcg_points(n, seed, 1000.0)
    }

    fn build_quad(points: &[(f64, f64)]) -> QuadTree {
        let pager = Pager::new(MemDisk::new(256), 64).into_shared();
        let mut t = QuadTree::new(pager, Rect::new(pt(0.0, 0.0), pt(1000.0, 1000.0)));
        for (i, &(x, y)) in points.iter().enumerate() {
            t.insert(i as u64, pt(x, y));
        }
        t
    }

    fn brute(ps: &[(f64, f64)], qs: &[(f64, f64)]) -> Vec<(u64, u64)> {
        let inside = |x: (f64, f64), a: (f64, f64), b: (f64, f64)| {
            Circle::strictly_contains_diameter(pt(x.0, x.1), pt(a.0, a.1), pt(b.0, b.1))
        };
        let mut keys = Vec::new();
        for (i, &p) in ps.iter().enumerate() {
            for (j, &q) in qs.iter().enumerate() {
                let blocked =
                    ps.iter().any(|&x| inside(x, p, q)) || qs.iter().any(|&x| inside(x, p, q));
                if !blocked {
                    keys.push((i as u64, j as u64));
                }
            }
        }
        keys.sort_unstable();
        keys
    }

    #[test]
    fn all_generic_algorithms_match_brute_force_on_quadtrees() {
        let ps = lcg(150, 5);
        let qs = lcg(150, 9);
        let tp = build_quad(&ps);
        let tq = build_quad(&qs);
        let expect = brute(&ps, &qs);
        assert!(!expect.is_empty());
        for algo in [RcjAlgorithm::Inj, RcjAlgorithm::Bij, RcjAlgorithm::Obj] {
            let out = rcj_join(&tq, &tp, &RcjOptions::algorithm(algo));
            assert_eq!(
                pair_keys(&out.pairs),
                expect,
                "{} over quadtrees disagrees with brute force",
                algo.name()
            );
        }
    }

    #[test]
    fn quadtree_rcj_on_clustered_data() {
        // Two tight clusters: cross-cluster pairs are mostly blocked.
        let mut ps = Vec::new();
        let mut qs = Vec::new();
        for i in 0..60 {
            let o = (i % 8) as f64;
            ps.push((100.0 + o, 100.0 + (i / 8) as f64));
            qs.push((105.0 + o, 103.0 + (i / 8) as f64));
        }
        let tp = build_quad(&ps);
        let tq = build_quad(&qs);
        let out = rcj_join(&tq, &tp, &RcjOptions::default());
        assert_eq!(pair_keys(&out.pairs), brute(&ps, &qs));
    }

    #[test]
    fn duplicate_flood_joins_through_overflow_chains() {
        // 300 co-located points chain past MAX_DEPTH; the probe must
        // surface chain pages as continuation nodes, or the join would
        // silently lose most of the data.
        let pager = Pager::new(MemDisk::new(256), 64).into_shared();
        let region = Rect::new(pt(0.0, 0.0), pt(100.0, 100.0));
        let mut tq = QuadTree::new(pager.clone(), region);
        for i in 0..300u64 {
            tq.insert(i, pt(50.0, 50.0));
        }
        let mut tp = QuadTree::new(pager, region);
        tp.insert(0, pt(10.0, 10.0));
        // The co-located q's sit exactly ON each other's circles (never
        // strictly inside), so every one of the 300 pairs qualifies.
        let out = rcj_join(&tq, &tp, &RcjOptions::default());
        assert_eq!(out.pairs.len(), 300);
    }
}
