//! Property-based tests for the geometry substrate.
//!
//! These pin down the invariants the RCJ algorithms rely on: the
//! equivalence between the Lemma 1 half-plane and circle interiors, the
//! convexity argument behind the face-inside-circle rule, and the metric
//! axioms of the Section 6 generalisation.

use proptest::prelude::*;
use ringjoin_geom::{prunes, pt, Circle, HalfPlane, Metric, Point, Rect};

fn coord() -> impl Strategy<Value = f64> {
    // The evaluation domain of the paper plus a margin; finite and tame so
    // predicates are well-conditioned.
    -1000.0..11000.0f64
}

fn point() -> impl Strategy<Value = Point> {
    (coord(), coord()).prop_map(|(x, y)| pt(x, y))
}

fn rect() -> impl Strategy<Value = Rect> {
    (point(), point()).prop_map(|(a, b)| Rect::new(a, b))
}

/// The point of `r` at fractions `(tx, ty)` of its extent, clamped so
/// rounding cannot carry it outside.
fn at(r: Rect, (tx, ty): (f64, f64)) -> Point {
    pt(
        (r.min.x + tx * (r.max.x - r.min.x)).clamp(r.min.x, r.max.x),
        (r.min.y + ty * (r.max.y - r.min.y)).clamp(r.min.y, r.max.y),
    )
}

/// A `w × h` rectangle beyond the boundary line of `Ψ⁻(q, p)` whose
/// extreme corner lies `gap · |p − q|²` from the line (negative: on
/// `q`'s side), `along` times `|p − q|` along it — where rounding decides
/// containment.
fn hugging_rect(q: Point, p: Point, along: f64, gap: f64, w: f64, h: f64) -> Rect {
    let (nx, ny) = (p.x - q.x, p.y - q.y);
    let c = pt(p.x - along * ny + gap * nx, p.y + along * nx + gap * ny);
    let far = pt(
        c.x + if nx >= 0.0 { w } else { -w },
        c.y + if ny >= 0.0 { h } else { -h },
    );
    Rect::new(c, far)
}

proptest! {
    /// `x ∈ Ψ⁻(q, p)` iff `p` is strictly inside the circle over diameter
    /// `qx` — the identity that makes Lemma 1 pruning exact.
    #[test]
    fn halfplane_equals_circle_interior(q in point(), p in point(), x in point()) {
        let psi = HalfPlane::pruning_region(q, p);
        prop_assert_eq!(
            psi.contains_point(x),
            Circle::strictly_contains_diameter(p, q, x)
        );
    }

    /// Lemma 3 reduces to Lemma 1 on all rectangle corners; since the
    /// half-plane is convex, corner containment is rectangle containment.
    #[test]
    fn halfplane_rect_test_matches_corners(q in point(), p in point(), r in rect()) {
        let psi = HalfPlane::pruning_region(q, p);
        let corners = r.corners().iter().all(|&c| psi.contains_point(c));
        prop_assert_eq!(psi.contains_rect(r), corners);
    }

    /// The floating-point fact the bulk filter's live sets rest on: once
    /// `Ψ⁻(q, p)` contains a rectangle, both Lemma 1 tests
    /// (`contains_point` and `prunes`) hold at every corner, edge point
    /// and interior point of it, and `contains_rect` holds for every
    /// rectangle inside it — including those sharing one of its corners.
    /// A point is the degenerate rectangle: the two tests agree on it.
    /// Half the rectangles hug the boundary line, within a few ulps of it.
    #[test]
    fn rect_containment_is_inherited(
        q in point(),
        p in point(),
        hug in any::<bool>(),
        shape in (-2.0..2.0f64, 6.0..18.0f64, any::<bool>(), 0.0..200.0f64, 0.0..200.0f64),
        random in rect(),
        ts in proptest::collection::vec((0.0..1.0f64, 0.0..1.0f64), 6),
    ) {
        let (along, exponent, behind, w, h) = shape;
        let gap = if behind { -1.0 } else { 1.0 } * 10f64.powf(-exponent);
        let r = if hug { hugging_rect(q, p, along, gap, w, h) } else { random };
        let psi = HalfPlane::pruning_region(q, p);
        prop_assume!(psi.contains_rect(r));

        let [c0, c1, c2, c3] = r.corners();
        let edges = [
            pt(at(r, ts[0]).x, r.min.y),
            pt(r.max.x, at(r, ts[1]).y),
            pt(at(r, ts[2]).x, r.max.y),
            pt(r.min.x, at(r, ts[3]).y),
        ];
        let inside = [at(r, ts[4]), at(r, ts[5])];
        for x in [c0, c1, c2, c3].into_iter().chain(edges).chain(inside) {
            prop_assert!(psi.contains_point(x), "{:?} of {:?}", x, r);
            prop_assert!(prunes(q, p, x), "{:?} of {:?}", x, r);
            prop_assert_eq!(psi.contains_rect(Rect::from_point(x)), psi.contains_point(x));
        }
        for corner in [c0, c1, c2, c3] {
            for x in inside {
                prop_assert!(psi.contains_rect(Rect::new(corner, x)));
            }
        }
        prop_assert!(psi.contains_rect(Rect::new(inside[0], inside[1])));
        prop_assert!(psi.contains_rect(Rect::new(edges[0], edges[2])));
    }

    /// The diameter-circle dot test agrees with the constructed
    /// center/radius test whenever the point is not razor-close to the
    /// boundary (where the constructed form may round differently).
    #[test]
    fn dot_test_agrees_with_constructed_circle(a in point(), b in point(), x in point()) {
        let c = Circle::from_diameter(a, b);
        let margin = (x.dist(c.center) - c.radius).abs();
        prop_assume!(margin > 1e-6 * (1.0 + c.radius));
        prop_assert_eq!(
            Circle::strictly_contains_diameter(x, a, b),
            c.strictly_contains(x)
        );
    }

    /// The defining endpoints of a diameter circle are never strictly
    /// inside it — verification must not let a pair invalidate itself.
    #[test]
    fn endpoints_never_inside(a in point(), b in point()) {
        prop_assert!(!Circle::strictly_contains_diameter(a, a, b));
        prop_assert!(!Circle::strictly_contains_diameter(b, a, b));
    }

    /// Convexity argument of the face rule: if a face is inside the open
    /// disk, every point along the face is inside.
    #[test]
    fn face_inside_implies_all_face_points_inside(
        c in point(), radius in 1.0..5000.0f64, r in rect(), t in 0.0..1.0f64
    ) {
        let circle = Circle::new(c, radius);
        if circle.contains_rect_face(r) {
            // Find one face strictly inside and sample it.
            for (u, v) in r.faces() {
                if circle.strictly_contains(u) && circle.strictly_contains(v) {
                    let s = pt(u.x + t * (v.x - u.x), u.y + t * (v.y - u.y));
                    prop_assert!(circle.strictly_contains(s));
                }
            }
        }
    }

    /// `mindist_sq` lower-bounds the distance to every point inside the
    /// rectangle (sampled at clamped positions).
    #[test]
    fn mindist_is_a_lower_bound(p in point(), r in rect(), s in point()) {
        let inside = pt(s.x.clamp(r.min.x, r.max.x), s.y.clamp(r.min.y, r.max.y));
        prop_assert!(r.mindist_sq(p) <= p.dist_sq(inside) + 1e-9 * (1.0 + p.dist_sq(inside)));
    }

    /// `maxdist_sq` upper-bounds the distance to every point inside.
    #[test]
    fn maxdist_is_an_upper_bound(p in point(), r in rect(), s in point()) {
        let inside = pt(s.x.clamp(r.min.x, r.max.x), s.y.clamp(r.min.y, r.max.y));
        prop_assert!(r.maxdist_sq(p) >= p.dist_sq(inside) - 1e-9 * (1.0 + p.dist_sq(inside)));
    }

    /// Union is commutative, covering, and monotone in area.
    #[test]
    fn union_properties(a in rect(), b in rect()) {
        let u = a.union(b);
        prop_assert_eq!(u, b.union(a));
        prop_assert!(u.contains_rect(a));
        prop_assert!(u.contains_rect(b));
        prop_assert!(u.area() + 1e-9 >= a.area().max(b.area()));
    }

    /// Metric axioms (identity, symmetry, triangle inequality) for all
    /// three metrics.
    #[test]
    fn metric_axioms(a in point(), b in point(), c in point()) {
        for m in [Metric::L2, Metric::L1, Metric::Linf] {
            prop_assert!(m.dist(a, a) == 0.0);
            prop_assert_eq!(m.dist(a, b), m.dist(b, a));
            let slack = 1e-9 * (1.0 + m.dist(a, c));
            prop_assert!(m.dist(a, c) <= m.dist(a, b) + m.dist(b, c) + slack);
        }
    }

    /// The midpoint ball is a *smallest* enclosing ball: its radius is
    /// d(a,b)/2 and both endpoints are at exactly that distance from the
    /// center.
    #[test]
    fn midball_is_smallest(a in point(), b in point()) {
        for m in [Metric::L2, Metric::L1, Metric::Linf] {
            let mid = a.midpoint(b);
            let d = m.dist(a, b);
            let slack = 1e-9 * (1.0 + d);
            prop_assert!((m.dist(a, mid) - 0.5 * d).abs() <= slack);
            prop_assert!((m.dist(b, mid) - 0.5 * d).abs() <= slack);
            // Endpoints on the boundary, never strictly inside.
            prop_assert!(!m.strictly_inside_midball(a, a, b));
            prop_assert!(!m.strictly_inside_midball(b, a, b));
        }
    }

    /// The midball bounding rect is a superset of the ball in all metrics.
    #[test]
    fn midball_bbox_superset(a in point(), b in point(), x in point()) {
        for m in [Metric::L2, Metric::L1, Metric::Linf] {
            if m.strictly_inside_midball(x, a, b) {
                prop_assert!(m.midball_bounding_rect(a, b).contains_point(x));
            }
        }
    }
}
