//! Axis-aligned rectangles (MBRs — minimum bounding rectangles).

use crate::{Point, Vec2};
use std::fmt;

/// An axis-aligned rectangle, used as the minimum bounding rectangle (MBR)
/// of R-tree entries.
///
/// Invariant: `min.x <= max.x && min.y <= max.y`. Degenerate rectangles
/// (zero width and/or height) are valid — a leaf MBR of a single point is a
/// degenerate rectangle.
#[derive(Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two corner points, normalising the corner
    /// order.
    #[inline]
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The degenerate rectangle covering a single point.
    #[inline]
    pub fn from_point(p: Point) -> Self {
        Rect { min: p, max: p }
    }

    /// The smallest rectangle enclosing all points of `iter`.
    ///
    /// Returns `None` for an empty iterator.
    pub fn from_points<I: IntoIterator<Item = Point>>(iter: I) -> Option<Self> {
        let mut iter = iter.into_iter();
        let first = iter.next()?;
        let mut r = Rect::from_point(first);
        for p in iter {
            r.expand_point(p);
        }
        Some(r)
    }

    /// The "empty" rectangle: the identity element of [`Rect::union`].
    ///
    /// Useful as the starting accumulator when unioning a set of MBRs.
    #[inline]
    pub fn empty() -> Self {
        Rect {
            min: Point::new(f64::INFINITY, f64::INFINITY),
            max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// `true` if this is the [`Rect::empty`] rectangle (or otherwise
    /// inverted).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    /// Grows the rectangle in place to cover `p`.
    #[inline]
    pub fn expand_point(&mut self, p: Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// Grows the rectangle in place to cover `other`.
    #[inline]
    pub fn expand_rect(&mut self, other: Rect) {
        self.min.x = self.min.x.min(other.min.x);
        self.min.y = self.min.y.min(other.min.y);
        self.max.x = self.max.x.max(other.max.x);
        self.max.y = self.max.y.max(other.max.y);
    }

    /// The smallest rectangle covering both `self` and `other`.
    #[inline]
    pub fn union(&self, other: Rect) -> Rect {
        let mut r = *self;
        r.expand_rect(other);
        r
    }

    /// Area of the rectangle (zero for degenerate rectangles).
    #[inline]
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            (self.max.x - self.min.x) * (self.max.y - self.min.y)
        }
    }

    /// Margin (half-perimeter) of the rectangle: the R*-tree split heuristic
    /// minimises the sum of margins over candidate distributions.
    #[inline]
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            (self.max.x - self.min.x) + (self.max.y - self.min.y)
        }
    }

    /// Center of the rectangle.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// The four corners, counter-clockwise from `min`.
    #[inline]
    pub fn corners(&self) -> [Point; 4] {
        [
            self.min,
            Point::new(self.max.x, self.min.y),
            self.max,
            Point::new(self.min.x, self.max.y),
        ]
    }

    /// The four faces (sides) as endpoint pairs: bottom, right, top, left.
    ///
    /// Used by the verification step's *face-inside-circle* rule
    /// (Section 3.2 of the paper): by MBR minimality, every face touches at
    /// least one data point of the subtree, so a face strictly inside a
    /// circle proves the subtree contains a point strictly inside it.
    #[inline]
    pub fn faces(&self) -> [(Point, Point); 4] {
        let [a, b, c, d] = self.corners();
        [(a, b), (b, c), (c, d), (d, a)]
    }

    /// `true` if `p` lies inside or on the boundary of the rectangle.
    #[inline]
    pub fn contains_point(&self, p: Point) -> bool {
        self.min.x <= p.x && p.x <= self.max.x && self.min.y <= p.y && p.y <= self.max.y
    }

    /// Half-open membership: min-inclusive, max-exclusive
    /// (`min <= p < max` per axis).
    ///
    /// With this convention, rectangles sharing an edge *partition* the
    /// points along it instead of both claiming them — which is what
    /// space-partitioned sharding needs to route every point to exactly
    /// one cell. Cells extending to `+∞` accept everything on that side.
    #[inline]
    pub fn contains_point_half_open(&self, p: Point) -> bool {
        self.min.x <= p.x && p.x < self.max.x && self.min.y <= p.y && p.y < self.max.y
    }

    /// The rectangle grown by `margin` on every side (the *ring-expanded*
    /// bounds of a region query: a ring of diameter at most `d` that
    /// intersects `B` lies entirely within `B.inflate(d)`).
    ///
    /// `margin` must be non-negative; the empty rectangle stays empty
    /// rather than inverting into a spurious region.
    #[inline]
    pub fn inflate(&self, margin: f64) -> Rect {
        debug_assert!(margin >= 0.0, "inflate takes a non-negative margin");
        if self.is_empty() {
            return *self;
        }
        Rect {
            min: Point::new(self.min.x - margin, self.min.y - margin),
            max: Point::new(self.max.x + margin, self.max.y + margin),
        }
    }

    /// `true` if `other` lies entirely inside `self` (boundaries allowed).
    #[inline]
    pub fn contains_rect(&self, other: Rect) -> bool {
        self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && other.max.x <= self.max.x
            && other.max.y <= self.max.y
    }

    /// `true` if the rectangles share at least one point (closed semantics).
    #[inline]
    pub fn intersects(&self, other: Rect) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Area of the intersection with `other` (zero if disjoint).
    #[inline]
    pub fn overlap_area(&self, other: Rect) -> f64 {
        let w = self.max.x.min(other.max.x) - self.min.x.max(other.min.x);
        let h = self.max.y.min(other.max.y) - self.min.y.max(other.min.y);
        if w <= 0.0 || h <= 0.0 {
            0.0
        } else {
            w * h
        }
    }

    /// How much [`Rect::area`] grows if the rectangle is expanded to cover
    /// `other` — the classical R-tree `ChooseSubtree` criterion.
    #[inline]
    pub fn enlargement(&self, other: Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Squared minimum distance from `p` to any point of the rectangle
    /// (zero when `p` is inside).
    ///
    /// This is the `mindist` bound of Roussopoulos et al. used to order the
    /// incremental nearest-neighbour search.
    #[inline]
    pub fn mindist_sq(&self, p: Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        dx * dx + dy * dy
    }

    /// Squared minimum distance between any point of `self` and any point
    /// of `other` (zero when the rectangles intersect).
    ///
    /// The rectangle–rectangle `mindist` bound that orders incremental
    /// distance-join traversals (Hjaltason & Samet, SIGMOD 1998).
    #[inline]
    pub fn mindist_rect_sq(&self, other: Rect) -> f64 {
        let dx = (self.min.x - other.max.x)
            .max(0.0)
            .max(other.min.x - self.max.x);
        let dy = (self.min.y - other.max.y)
            .max(0.0)
            .max(other.min.y - self.max.y);
        dx * dx + dy * dy
    }

    /// Squared maximum distance from `p` to any point of the rectangle.
    #[inline]
    pub fn maxdist_sq(&self, p: Point) -> f64 {
        let dx = (p.x - self.min.x).abs().max((p.x - self.max.x).abs());
        let dy = (p.y - self.min.y).abs().max((p.y - self.max.y).abs());
        dx * dx + dy * dy
    }

    /// Minimum of the linear functional `x ↦ d · (x - origin)` over the
    /// rectangle.
    ///
    /// A linear functional over a box attains its minimum at a corner chosen
    /// coordinate-wise by the sign of `d`; this closed form is what makes
    /// the Lemma 3 MBR pruning test O(1).
    ///
    /// The corner is picked by indexing, not branching: the filter scans
    /// pruners of every orientation against one rectangle, and a branch
    /// on the sign of `d` would mispredict half the time.
    #[inline]
    pub fn min_linear(&self, origin: Point, d: Vec2) -> f64 {
        // A non-negative component takes the min side; a negative (or
        // NaN) one the max side.
        let x = [self.max.x, self.min.x][usize::from(d.x >= 0.0)];
        let y = [self.max.y, self.min.y][usize::from(d.y >= 0.0)];
        d.x * (x - origin.x) + d.y * (y - origin.y)
    }
}

impl fmt::Debug for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}..{}, {}..{}]",
            self.min.x, self.max.x, self.min.y, self.max.y
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pt;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(pt(x0, y0), pt(x1, y1))
    }

    #[test]
    fn new_normalises_corners() {
        let a = Rect::new(pt(5.0, 1.0), pt(2.0, 7.0));
        assert_eq!(a, r(2.0, 1.0, 5.0, 7.0));
    }

    #[test]
    fn empty_is_union_identity() {
        let a = r(1.0, 2.0, 3.0, 4.0);
        assert_eq!(Rect::empty().union(a), a);
        assert!(Rect::empty().is_empty());
        assert_eq!(Rect::empty().area(), 0.0);
        assert_eq!(Rect::empty().margin(), 0.0);
    }

    #[test]
    fn from_points_covers_all() {
        let pts = [pt(1.0, 5.0), pt(-2.0, 0.0), pt(4.0, 3.0)];
        let b = Rect::from_points(pts).unwrap();
        assert_eq!(b, r(-2.0, 0.0, 4.0, 5.0));
        for p in pts {
            assert!(b.contains_point(p));
        }
        assert!(Rect::from_points(std::iter::empty()).is_none());
    }

    #[test]
    fn area_margin_center() {
        let a = r(0.0, 0.0, 4.0, 2.0);
        assert_eq!(a.area(), 8.0);
        assert_eq!(a.margin(), 6.0);
        assert_eq!(a.center(), pt(2.0, 1.0));
    }

    #[test]
    fn degenerate_point_rect() {
        let a = Rect::from_point(pt(3.0, 3.0));
        assert_eq!(a.area(), 0.0);
        assert!(a.contains_point(pt(3.0, 3.0)));
        assert!(!a.contains_point(pt(3.0, 3.1)));
    }

    #[test]
    fn intersection_cases() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert!(a.intersects(r(1.0, 1.0, 3.0, 3.0)));
        assert!(a.intersects(r(2.0, 2.0, 3.0, 3.0))); // corner touch
        assert!(!a.intersects(r(2.1, 0.0, 3.0, 1.0)));
        assert_eq!(a.overlap_area(r(1.0, 1.0, 3.0, 3.0)), 1.0);
        assert_eq!(a.overlap_area(r(2.0, 2.0, 3.0, 3.0)), 0.0);
        assert_eq!(a.overlap_area(r(5.0, 5.0, 6.0, 6.0)), 0.0);
    }

    #[test]
    fn containment() {
        let a = r(0.0, 0.0, 4.0, 4.0);
        assert!(a.contains_rect(r(1.0, 1.0, 2.0, 2.0)));
        assert!(a.contains_rect(a));
        assert!(!a.contains_rect(r(1.0, 1.0, 5.0, 2.0)));
    }

    #[test]
    fn enlargement_zero_when_contained() {
        let a = r(0.0, 0.0, 4.0, 4.0);
        assert_eq!(a.enlargement(r(1.0, 1.0, 2.0, 2.0)), 0.0);
        assert_eq!(a.enlargement(r(0.0, 0.0, 6.0, 4.0)), 8.0);
    }

    #[test]
    fn mindist_inside_is_zero() {
        let a = r(0.0, 0.0, 4.0, 4.0);
        assert_eq!(a.mindist_sq(pt(2.0, 2.0)), 0.0);
        assert_eq!(a.mindist_sq(pt(7.0, 2.0)), 9.0);
        assert_eq!(a.mindist_sq(pt(7.0, 8.0)), 9.0 + 16.0);
    }

    #[test]
    fn mindist_rect_handles_overlap_and_gaps() {
        let a = r(0.0, 0.0, 4.0, 4.0);
        // Overlapping and touching rectangles are at distance zero.
        assert_eq!(a.mindist_rect_sq(r(2.0, 2.0, 6.0, 6.0)), 0.0);
        assert_eq!(a.mindist_rect_sq(r(4.0, 0.0, 5.0, 4.0)), 0.0);
        // Gap in x only, then a diagonal gap; symmetric both ways.
        assert_eq!(a.mindist_rect_sq(r(7.0, 1.0, 9.0, 3.0)), 9.0);
        assert_eq!(a.mindist_rect_sq(r(7.0, 8.0, 9.0, 9.0)), 9.0 + 16.0);
        assert_eq!(r(7.0, 8.0, 9.0, 9.0).mindist_rect_sq(a), 9.0 + 16.0);
        // Degenerate (point) rectangle agrees with point mindist.
        let p = pt(7.0, 8.0);
        assert_eq!(a.mindist_rect_sq(Rect::from_point(p)), a.mindist_sq(p));
    }

    #[test]
    fn half_open_membership_partitions_shared_edges() {
        let left = r(0.0, 0.0, 2.0, 4.0);
        let right = r(2.0, 0.0, 4.0, 4.0);
        // A point on the shared edge belongs to exactly one cell.
        let p = pt(2.0, 1.0);
        assert!(!left.contains_point_half_open(p));
        assert!(right.contains_point_half_open(p));
        assert!(left.contains_point(p) && right.contains_point(p)); // closed: both
        assert!(left.contains_point_half_open(pt(0.0, 0.0))); // min-inclusive
        assert!(!left.contains_point_half_open(pt(1.0, 4.0))); // max-exclusive
                                                               // Infinite max edges accept everything on that side.
        let open = Rect::new(pt(2.0, 0.0), pt(f64::INFINITY, f64::INFINITY));
        assert!(open.contains_point_half_open(pt(1e300, 1e300)));
    }

    #[test]
    fn inflate_grows_every_side() {
        let a = r(1.0, 2.0, 3.0, 5.0);
        assert_eq!(a.inflate(2.0), r(-1.0, 0.0, 5.0, 7.0));
        assert_eq!(a.inflate(0.0), a);
        // Empty stays empty instead of inverting into a region.
        assert!(Rect::empty().inflate(10.0).is_empty());
    }

    #[test]
    fn maxdist_reaches_far_corner() {
        let a = r(0.0, 0.0, 4.0, 4.0);
        assert_eq!(a.maxdist_sq(pt(0.0, 0.0)), 32.0);
        assert_eq!(a.maxdist_sq(pt(2.0, 2.0)), 8.0);
    }

    #[test]
    fn corners_and_faces() {
        let a = r(0.0, 0.0, 2.0, 1.0);
        let cs = a.corners();
        assert_eq!(cs[0], pt(0.0, 0.0));
        assert_eq!(cs[2], pt(2.0, 1.0));
        let fs = a.faces();
        assert_eq!(fs.len(), 4);
        // Every face endpoint is a corner.
        for (u, v) in fs {
            assert!(cs.contains(&u) && cs.contains(&v));
        }
    }

    #[test]
    fn min_linear_picks_extreme_corner() {
        let a = r(0.0, 0.0, 2.0, 3.0);
        let origin = pt(1.0, 1.0);
        // d = (1, 0): minimised at x = 0 -> value -1.
        assert_eq!(a.min_linear(origin, crate::Vec2 { x: 1.0, y: 0.0 }), -1.0);
        // d = (-1, -1): minimised at (2, 3) -> -(2-1) - (3-1) = -3.
        assert_eq!(a.min_linear(origin, crate::Vec2 { x: -1.0, y: -1.0 }), -3.0);
        // Brute-force check against all corners for a few directions.
        for d in [
            crate::Vec2 { x: 0.3, y: -0.7 },
            crate::Vec2 { x: -2.0, y: 0.5 },
            crate::Vec2 { x: 0.0, y: 0.0 },
        ] {
            let by_corner = a
                .corners()
                .iter()
                .map(|c| d.x * (c.x - origin.x) + d.y * (c.y - origin.y))
                .fold(f64::INFINITY, f64::min);
            assert!((a.min_linear(origin, d) - by_corner).abs() < 1e-12);
        }
    }
}
