//! The disk-based bucket PR quadtree.

use crate::node::{decode, encode, leaf_capacity, quadrant, quadrant_of, QItem, QNode};
use ringjoin_geom::{Point, Rect};
use ringjoin_storage::{PageId, SharedPager};

/// Maximum subdivision depth; deeper duplicate-heavy buckets chain into
/// overflow pages instead of splitting further.
const MAX_DEPTH: u32 = 40;

/// A bucket PR quadtree whose nodes each occupy one disk page of the
/// shared pager, mirroring the R*-tree's storage discipline so the two
/// indexes are cost-comparable under the paper's model.
pub struct QuadTree {
    pager: SharedPager,
    root: PageId,
    region: Rect,
    leaf_cap: usize,
    len: u64,
    node_count: u64,
}

impl QuadTree {
    /// Creates an empty tree covering `region` (points outside the
    /// region are rejected at insert).
    pub fn new(pager: SharedPager, region: Rect) -> Self {
        let (root, leaf_cap) = {
            let mut pg = pager.borrow_mut();
            (pg.allocate(), leaf_capacity(pg.page_size()))
        };
        let tree = QuadTree {
            pager,
            root,
            region,
            leaf_cap,
            len: 0,
            node_count: 1,
        };
        tree.write_node(root, &QNode::empty_leaf());
        tree
    }

    /// Number of indexed points.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of node/overflow pages.
    pub fn node_pages(&self) -> u64 {
        self.node_count
    }

    /// Points a leaf page can hold before splitting (page-size derived).
    pub fn leaf_capacity(&self) -> usize {
        self.leaf_cap
    }

    /// The covered region.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Root page (for external traversals like the RCJ driver).
    pub fn root_page(&self) -> PageId {
        self.root
    }

    /// A clone of the shared pager handle.
    pub fn pager(&self) -> SharedPager {
        self.pager.clone()
    }

    /// Reads a node through the buffer manager.
    pub fn read_node(&self, page: PageId) -> QNode {
        self.pager.borrow_mut().read(page, decode)
    }

    fn write_node(&self, page: PageId, node: &QNode) {
        self.pager
            .borrow_mut()
            .write(page, |bytes| encode(node, bytes));
    }

    fn allocate(&mut self) -> PageId {
        self.node_count += 1;
        self.pager.borrow_mut().allocate()
    }

    /// Inserts a point.
    ///
    /// # Panics
    /// Panics if the point lies outside the tree's region — region
    /// membership is part of the PR-quadtree contract.
    pub fn insert(&mut self, id: u64, point: Point) {
        assert!(
            self.region.contains_point(point),
            "{point:?} outside the quadtree region {:?}",
            self.region
        );
        let mut page = self.root;
        let mut region = self.region;
        let mut depth = 0u32;
        loop {
            match self.read_node(page) {
                QNode::Internal { mut children } => {
                    let q = quadrant_of(region, point);
                    region = quadrant(region, q);
                    depth += 1;
                    if children[q].is_invalid() {
                        let child = self.allocate();
                        self.write_node(child, &QNode::empty_leaf());
                        children[q] = child;
                        self.write_node(page, &QNode::Internal { children });
                    }
                    page = children[q];
                }
                QNode::Leaf { mut items, next } => {
                    if items.len() < self.leaf_cap {
                        items.push(QItem { id, point });
                        self.write_node(page, &QNode::Leaf { items, next });
                        self.len += 1;
                        return;
                    }
                    if depth >= MAX_DEPTH {
                        // Overflow chain: walk to (or create) the tail.
                        if next.is_invalid() {
                            let over = self.allocate();
                            self.write_node(
                                over,
                                &QNode::Leaf {
                                    items: vec![QItem { id, point }],
                                    next: PageId::INVALID,
                                },
                            );
                            self.write_node(page, &QNode::Leaf { items, next: over });
                            self.len += 1;
                            return;
                        }
                        page = next;
                        continue;
                    }
                    // Split: rewrite this page as an internal node and
                    // reinsert the bucket one level down.
                    debug_assert!(next.is_invalid(), "chained leaf above max depth");
                    let mut children = [PageId::INVALID; 4];
                    let mut buckets: [Vec<QItem>; 4] = Default::default();
                    for it in items {
                        buckets[quadrant_of(region, it.point)].push(it);
                    }
                    for (qi, bucket) in buckets.into_iter().enumerate() {
                        if !bucket.is_empty() {
                            let child = self.allocate();
                            self.write_node(
                                child,
                                &QNode::Leaf {
                                    items: bucket,
                                    next: PageId::INVALID,
                                },
                            );
                            children[qi] = child;
                        }
                    }
                    self.write_node(page, &QNode::Internal { children });
                    // Loop continues: descend into the fresh structure.
                }
            }
        }
    }

    /// Removes the point `(id, point)`, returning `true` if it was
    /// present. The bucket keeps its page (and its place in any overflow
    /// chain) even when emptied — PR-quadtree structure depends only on
    /// the region decomposition, so an empty bucket is simply a bucket
    /// awaiting reinsertion, and no page recycling is needed.
    pub fn remove(&mut self, id: u64, point: Point) -> bool {
        if !self.region.contains_point(point) {
            return false;
        }
        let mut page = self.root;
        let mut region = self.region;
        loop {
            match self.read_node(page) {
                QNode::Internal { children } => {
                    let q = quadrant_of(region, point);
                    if children[q].is_invalid() {
                        return false;
                    }
                    region = quadrant(region, q);
                    page = children[q];
                }
                QNode::Leaf { mut items, next } => {
                    if let Some(i) = items.iter().position(|it| it.id == id && it.point == point) {
                        items.remove(i);
                        self.write_node(page, &QNode::Leaf { items, next });
                        self.len -= 1;
                        return true;
                    }
                    if next.is_invalid() {
                        return false;
                    }
                    page = next;
                }
            }
        }
    }

    /// All points inside `window` (closed boundaries).
    pub fn range(&self, window: Rect) -> Vec<QItem> {
        let mut out = Vec::new();
        self.range_rec(self.root, self.region, window, &mut out);
        out
    }

    fn range_rec(&self, page: PageId, region: Rect, window: Rect, out: &mut Vec<QItem>) {
        if !region.intersects(window) {
            return;
        }
        match self.read_node(page) {
            QNode::Leaf { items, next } => {
                out.extend(
                    items
                        .into_iter()
                        .filter(|it| window.contains_point(it.point)),
                );
                if !next.is_invalid() {
                    self.range_rec(next, region, window, out);
                }
            }
            QNode::Internal { children } => {
                for (qi, child) in children.iter().enumerate() {
                    if !child.is_invalid() {
                        self.range_rec(*child, quadrant(region, qi), window, out);
                    }
                }
            }
        }
    }

    /// Structural check: every point lies in its region, bucket sizes
    /// respect capacity, counters match. Returns the item count.
    pub fn validate(&self) -> Result<u64, String> {
        let mut count = 0u64;
        let mut nodes = 0u64;
        self.validate_rec(self.root, self.region, 0, &mut count, &mut nodes)?;
        if count != self.len {
            return Err(format!("len {} but found {count}", self.len));
        }
        if nodes != self.node_count {
            return Err(format!("node_count {} but found {nodes}", self.node_count));
        }
        Ok(count)
    }

    fn validate_rec(
        &self,
        page: PageId,
        region: Rect,
        depth: u32,
        count: &mut u64,
        nodes: &mut u64,
    ) -> Result<(), String> {
        *nodes += 1;
        match self.read_node(page) {
            QNode::Leaf { items, next } => {
                if items.len() > self.leaf_cap {
                    return Err(format!("bucket {page:?} over capacity: {}", items.len()));
                }
                for it in &items {
                    if !region.contains_point(it.point) {
                        return Err(format!("{:?} escaped its region {region:?}", it.point));
                    }
                }
                *count += items.len() as u64;
                if !next.is_invalid() {
                    if depth < MAX_DEPTH {
                        return Err(format!("overflow chain above max depth at {page:?}"));
                    }
                    self.validate_rec(next, region, depth, count, nodes)?;
                }
                Ok(())
            }
            QNode::Internal { children } => {
                if children.iter().all(|c| c.is_invalid()) {
                    return Err(format!("internal node {page:?} with no children"));
                }
                for (qi, child) in children.iter().enumerate() {
                    if !child.is_invalid() {
                        self.validate_rec(*child, quadrant(region, qi), depth + 1, count, nodes)?;
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringjoin_geom::pt;
    use ringjoin_storage::{MemDisk, Pager};

    fn tree_with(points: &[(f64, f64)]) -> QuadTree {
        let pager = Pager::new(MemDisk::new(256), 64).into_shared();
        let region = Rect::new(pt(0.0, 0.0), pt(1000.0, 1000.0));
        let mut t = QuadTree::new(pager, region);
        for (i, &(x, y)) in points.iter().enumerate() {
            t.insert(i as u64, pt(x, y));
        }
        t
    }

    fn lcg(n: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| (next() * 1000.0, next() * 1000.0)).collect()
    }

    #[test]
    fn range_matches_naive() {
        let pts = lcg(2000, 3);
        let t = tree_with(&pts);
        assert_eq!(t.validate().unwrap(), 2000);
        for (wx, wy) in [(100.0, 100.0), (500.0, 200.0), (0.0, 900.0)] {
            let w = Rect::new(pt(wx, wy), pt(wx + 250.0, wy + 99.0));
            let mut got: Vec<u64> = t.range(w).into_iter().map(|it| it.id).collect();
            got.sort_unstable();
            let mut expect: Vec<u64> = pts
                .iter()
                .enumerate()
                .filter(|(_, &(x, y))| w.contains_point(pt(x, y)))
                .map(|(i, _)| i as u64)
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn duplicate_flood_uses_overflow_chains() {
        let pager = Pager::new(MemDisk::new(256), 64).into_shared();
        let region = Rect::new(pt(0.0, 0.0), pt(100.0, 100.0));
        let mut t = QuadTree::new(pager, region);
        for i in 0..300u64 {
            t.insert(i, pt(50.0, 50.0));
        }
        assert_eq!(t.validate().unwrap(), 300);
        let hits = t.range(Rect::new(pt(50.0, 50.0), pt(50.0, 50.0)));
        assert_eq!(hits.len(), 300);
    }

    #[test]
    fn remove_round_trips_with_range_and_validate() {
        let pts = lcg(600, 13);
        let mut t = tree_with(&pts);
        // Remove every third point; misses (wrong id, wrong point,
        // out-of-region) leave the tree untouched.
        for (i, &(x, y)) in pts.iter().enumerate() {
            if i % 3 == 0 {
                assert!(t.remove(i as u64, pt(x, y)), "point {i} should be present");
                assert!(!t.remove(i as u64, pt(x, y)), "double remove must miss");
            }
        }
        assert!(!t.remove(9999, pt(1.0, 1.0)));
        assert!(!t.remove(1, pt(-5.0, -5.0)));
        assert_eq!(t.validate().unwrap(), 400);
        let window = Rect::new(pt(0.0, 0.0), pt(1000.0, 1000.0));
        let mut got: Vec<u64> = t.range(window).into_iter().map(|it| it.id).collect();
        got.sort_unstable();
        let expect: Vec<u64> = (0..600u64).filter(|i| i % 3 != 0).collect();
        assert_eq!(got, expect);
        // Emptied buckets accept reinsertion.
        for (i, &(x, y)) in pts.iter().enumerate() {
            if i % 3 == 0 {
                t.insert(i as u64, pt(x, y));
            }
        }
        assert_eq!(t.validate().unwrap(), 600);
    }

    #[test]
    fn remove_walks_overflow_chains() {
        let pager = Pager::new(MemDisk::new(256), 64).into_shared();
        let region = Rect::new(pt(0.0, 0.0), pt(100.0, 100.0));
        let mut t = QuadTree::new(pager, region);
        for i in 0..300u64 {
            t.insert(i, pt(50.0, 50.0));
        }
        // Ids scattered across the whole chain, including the tail.
        for id in [0u64, 150, 299, 7, 250] {
            assert!(t.remove(id, pt(50.0, 50.0)), "id {id}");
        }
        assert_eq!(t.validate().unwrap(), 295);
        assert_eq!(
            t.range(Rect::new(pt(50.0, 50.0), pt(50.0, 50.0))).len(),
            295
        );
    }

    #[test]
    #[should_panic(expected = "outside the quadtree region")]
    fn out_of_region_insert_panics() {
        let pager = Pager::new(MemDisk::new(256), 8).into_shared();
        let mut t = QuadTree::new(pager, Rect::new(pt(0.0, 0.0), pt(10.0, 10.0)));
        t.insert(0, pt(50.0, 50.0));
    }
}
