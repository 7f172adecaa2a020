//! The pruning regions `Ψ⁺(q, p)` / `Ψ⁻(q, p)` of Definition 1.
//!
//! Given a query point `q ∈ Q` and a discovered point `p ∈ P`, let
//! `L(q, p)` be the line through `p` perpendicular to the segment `qp`. The
//! line splits the plane into `Ψ⁺(q, p)` (the side containing `q`) and
//! `Ψ⁻(q, p)` (the far side). Lemma 1 of the paper shows that any
//! `p′ ∈ Ψ⁻(q, p)` cannot form an RCJ pair with `q` — because `p` lies
//! inside the circle with diameter `q p′` — and Lemma 2 shows the region is
//! maximal.

use crate::{Circle, Point, Rect, Vec2};

/// The **open** pruning half-plane `Ψ⁻(q, p)`: everything strictly beyond
/// the line through `p` perpendicular to `qp`, on the side away from `q`.
///
/// # Relation to the circle constraint
///
/// `x ∈ Ψ⁻(q, p)` is *equivalent* to "`p` lies strictly inside the circle
/// with diameter `qx`":
///
/// ```text
/// (x − p) · (p − q) > 0   ⟺   (q − p) · (x − p) < 0   ⟺   ∠ q p x obtuse
/// ```
///
/// and by Thales' theorem an obtuse angle at `p` means `p` is strictly
/// inside the circle over diameter `qx`. This makes the openness of the
/// region the correct choice: a point exactly on the boundary line yields a
/// circle passing *through* `p` (boundary, not interior), which does not
/// violate the RCJ constraint under strict-interior semantics.
///
/// ```
/// use ringjoin_geom::{pt, Circle, HalfPlane};
///
/// let q = pt(0.0, 0.0);
/// let p = pt(2.0, 0.0);
/// let psi = HalfPlane::pruning_region(q, p);
///
/// let x = pt(5.0, 1.0); // beyond the line x = 2
/// assert!(psi.contains_point(x));
/// assert!(Circle::strictly_contains_diameter(p, q, x));
///
/// let y = pt(2.0, 3.0); // exactly on the line -> not pruned
/// assert!(!psi.contains_point(y));
/// assert!(!Circle::strictly_contains_diameter(p, q, y));
/// ```
///
/// # Containment is inherited, in floating point too
///
/// [`HalfPlane::contains_rect`] evaluates exactly the expression of
/// [`HalfPlane::contains_point`], `(x − p) · (p − q)`, at the rectangle's
/// extreme corner: the one that minimises it. Moving `x` from that corner
/// into the rectangle moves each coordinate difference in the direction
/// that raises its product with the normal, and IEEE-754 rounding is
/// monotone, so the computed value can only grow. [`prunes`] computes the
/// exact negation of the same value. Hence, whenever `contains_rect(r)`
/// holds:
///
/// * `contains_point(x)` and `prunes(q, p, x)` hold for every point `x`
///   of `r` — corners, edges and interior;
/// * `contains_rect(r')` holds for every rectangle `r' ⊆ r`, including
///   those that share a corner with `r`.
///
/// The bulk filter relies on this to carry a subtree's pruning verdicts
/// down to its children; `rect_containment_is_inherited` in the crate's
/// property tests checks it on rectangles within a few ulps of the line.
#[derive(Clone, Copy, Debug)]
pub struct HalfPlane {
    /// A point on the boundary line (the pruning point `p`).
    origin: Point,
    /// Outward normal: direction from `q` to `p`. Points `x` with
    /// `(x − origin) · normal > 0` are in the open region.
    normal: Vec2,
}

impl HalfPlane {
    /// Builds `Ψ⁻(q, p)`: the open half-plane beyond the line through `p`
    /// perpendicular to the segment `qp`, not containing `q`.
    ///
    /// Degenerate input `q == p` yields a zero normal, for which the region
    /// is empty (nothing is pruned) — the conservative, correct behaviour.
    #[inline]
    pub fn pruning_region(q: Point, p: Point) -> Self {
        HalfPlane {
            origin: p,
            normal: p.sub(q),
        }
    }

    /// `true` if `x` lies strictly inside the pruning region (Lemma 1: `x`
    /// cannot join with `q`).
    #[inline]
    pub fn contains_point(&self, x: Point) -> bool {
        x.sub(self.origin).dot(self.normal) > 0.0
    }

    /// `true` if the whole rectangle lies strictly inside the pruning
    /// region (Lemma 3: the subtree under this MBR cannot contain any point
    /// joining with `q`).
    #[inline]
    pub fn contains_rect(&self, r: Rect) -> bool {
        r.min_linear(self.origin, self.normal) > 0.0
    }

    /// Witness accessor used in diagnostics: the pruning point `p` on the
    /// boundary line.
    #[inline]
    pub fn origin(&self) -> Point {
        self.origin
    }
}

/// Free-function form of the Lemma 1 test, kept for call-site brevity in
/// the filter inner loops: `true` iff `x ∈ Ψ⁻(q, p)`.
///
/// Equivalent to `HalfPlane::pruning_region(q, p).contains_point(x)` and to
/// [`Circle::strictly_contains_diameter`]`(p, q, x)`.
#[inline]
pub fn prunes(q: Point, p: Point, x: Point) -> bool {
    Circle::strictly_contains_diameter(p, q, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pt;

    #[test]
    fn region_excludes_q_side() {
        let q = pt(0.0, 0.0);
        let p = pt(1.0, 1.0);
        let psi = HalfPlane::pruning_region(q, p);
        assert!(!psi.contains_point(q));
        assert!(!psi.contains_point(p)); // p is on the line
        assert!(psi.contains_point(pt(2.0, 2.0)));
        assert!(!psi.contains_point(pt(-1.0, 0.5)));
    }

    #[test]
    fn equivalence_with_circle_interior() {
        // x in psi-minus(q, p)  <=>  p strictly inside circle(q, x).
        let q = pt(3.0, -2.0);
        let p = pt(5.0, 1.0);
        let psi = HalfPlane::pruning_region(q, p);
        for x in [
            pt(9.0, 4.0),
            pt(5.0, 5.0),
            pt(0.0, 0.0),
            pt(5.0, 1.0),
            pt(6.0, 0.0),
            pt(-3.0, 7.0),
        ] {
            assert_eq!(
                psi.contains_point(x),
                Circle::strictly_contains_diameter(p, q, x),
                "mismatch at {x:?}"
            );
            assert_eq!(psi.contains_point(x), prunes(q, p, x));
        }
    }

    #[test]
    fn rect_containment_matches_corner_tests() {
        let q = pt(0.0, 0.0);
        let p = pt(2.0, 1.0);
        let psi = HalfPlane::pruning_region(q, p);
        let cases = [
            Rect::new(pt(3.0, 2.0), pt(5.0, 4.0)),    // fully beyond
            Rect::new(pt(1.0, 1.0), pt(5.0, 4.0)),    // straddles the line
            Rect::new(pt(-3.0, -3.0), pt(-1.0, 0.0)), // fully on q's side
        ];
        for r in cases {
            let all_corners = r.corners().iter().all(|&c| psi.contains_point(c));
            assert_eq!(psi.contains_rect(r), all_corners, "mismatch for {r:?}");
        }
    }

    #[test]
    fn rect_touching_line_is_not_pruned() {
        // The rect's near corner lies exactly on the boundary line x = 2
        // (with q at origin, p = (2, 0)).
        let psi = HalfPlane::pruning_region(pt(0.0, 0.0), pt(2.0, 0.0));
        let touching = Rect::new(pt(2.0, -1.0), pt(4.0, 1.0));
        assert!(!psi.contains_rect(touching));
        let beyond = Rect::new(pt(2.0 + 1e-9, -1.0), pt(4.0, 1.0));
        assert!(psi.contains_rect(beyond));
    }

    #[test]
    fn degenerate_q_equals_p_prunes_nothing() {
        let psi = HalfPlane::pruning_region(pt(1.0, 1.0), pt(1.0, 1.0));
        assert!(!psi.contains_point(pt(5.0, 5.0)));
        assert!(!psi.contains_rect(Rect::new(pt(3.0, 3.0), pt(4.0, 4.0))));
    }

    #[test]
    fn lemma2_regions_are_never_pruned() {
        // The three cases of Lemma 2 (Figure 5): points between q and the
        // line, behind q, and on the parallel line through q must not be
        // pruned.
        let q = pt(0.0, 0.0);
        let p = pt(4.0, 0.0);
        let psi = HalfPlane::pruning_region(q, p);
        // Region I: between q and L(q, p).
        assert!(!psi.contains_point(pt(2.0, 3.0)));
        // Region II: behind q.
        assert!(!psi.contains_point(pt(-3.0, -1.0)));
        // Region III: the line through q parallel to L.
        assert!(!psi.contains_point(pt(0.0, 7.0)));
    }
}
