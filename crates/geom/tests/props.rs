//! Property-based tests for the geometry substrate.
//!
//! These pin down the invariants the RCJ algorithms rely on: the
//! equivalence between the Lemma 1 half-plane and circle interiors, the
//! exact strict-interior circle test (the defining endpoints are never
//! inside), the convexity argument behind the face-inside-circle rule,
//! the distance bounds of MBRs, and the two floating-point facts that
//! let the filter skip tests whose verdict is known.

use proptest::prelude::*;
use ringjoin_geom::{prunes, pt, Circle, HalfPlane, Point, Rect};

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

/// A coordinate scale, from products that underflow into subnormals
/// to squares that overflow to infinity.
fn scale() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(1e-300),
        Just(1e-160),
        Just(1.0),
        Just(1e4),
        Just(1e154),
        Just(1e300),
    ]
}

/// `x` moved `n` ulps up (or down, for negative `n`).
fn ulps(x: f64, n: i8) -> f64 {
    (0..n.unsigned_abs()).fold(x, |x, _| if n > 0 { x.next_up() } else { x.next_down() })
}

/// A rectangle that holds `q`: the box of `a`, `b` and `q` (`kind` 0),
/// that box with side `side` pulled onto `q` (1, `q` on its boundary),
/// the single point `q` (2), the whole plane (3, the R-tree root's
/// region), or the box with sides `side` and `side + 1` at infinity (4).
fn holding(q: Point, a: Point, b: Point, kind: u8, side: u8) -> Rect {
    let mut r = Rect::new(a, b).union(Rect::from_point(q));
    let (inf, ninf) = (f64::INFINITY, f64::NEG_INFINITY);
    let mut pull = |side: u8, to_q: bool| match side % 4 {
        0 => r.min.x = if to_q { q.x } else { ninf },
        1 => r.max.x = if to_q { q.x } else { inf },
        2 => r.min.y = if to_q { q.y } else { ninf },
        _ => r.max.y = if to_q { q.y } else { inf },
    };
    match kind {
        0 => {}
        1 => pull(side, true),
        2 => return Rect::from_point(q),
        3 => return Rect::new(pt(ninf, ninf), pt(inf, inf)),
        _ => {
            pull(side, false);
            pull(side + 1, false);
        }
    }
    r
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

    /// No pruning region `Ψ⁻(q, ·)` covers a rectangle that holds `q`:
    /// `contains_rect` evaluates `(x − p) · (p − q)` at the rectangle's
    /// extreme corner, where it is no larger than at `q`, and at `q` it
    /// rounds to `−|p − q|²`, never above 0 (a zero times an infinite
    /// side is NaN, which fails the test too). So the filter skips the
    /// pruner test of a node whose region holds the point. The
    /// rectangle holds `q` inside, on its boundary, as a single point or
    /// with infinite sides; `p` lies anywhere, within a few ulps of `q`,
    /// or on it.
    #[test]
    fn no_pruning_region_covers_a_rectangle_holding_q(
        scale in scale(),
        raw in proptest::collection::vec((-1.0..1.0f64, -1.0..1.0f64), 4),
        p_kind in 0u8..3,
        steps in (-4i8..5, -4i8..5),
        r_kind in 0u8..5,
        side in 0u8..4,
    ) {
        let [q, p, a, b] = [0, 1, 2, 3].map(|k| pt(raw[k].0 * scale, raw[k].1 * scale));
        let p = match p_kind {
            0 => p,
            1 => pt(ulps(q.x, steps.0), ulps(q.y, steps.1)),
            _ => q,
        };
        let r = holding(q, a, b, r_kind, side);
        prop_assert!(r.contains_point(q), "{:?} does not hold {:?}", r, q);
        prop_assert!(
            !HalfPlane::pruning_region(q, p).contains_rect(r),
            "Ψ⁻({:?}, {:?}) covers {:?}",
            q,
            p,
            r
        );
    }

    /// The cut's box test bounds from below in floating point: for `q`
    /// in a box `b`, the distance from `b` to a region `r` or a point
    /// `x` never exceeds the distance from `q` (subtraction, squaring
    /// and addition round monotonically). So an entry beyond the largest
    /// cut from the box of a node's live points is beyond each point's
    /// own cut. `q` lies inside `b` or on its boundary, `b` may be a
    /// single point, `r` may have infinite sides or hold `q`, and `x`
    /// may lie within a few ulps of `q`.
    #[test]
    fn box_distance_never_exceeds_a_member_distance(
        scale in scale(),
        raw in proptest::collection::vec((-1.0..1.0f64, -1.0..1.0f64), 7),
        b_kind in 0u8..3,
        r_kind in 0u8..5,
        sides in (0u8..4, 0u8..4),
        x_near in any::<bool>(),
        steps in (-4i8..5, -4i8..5),
    ) {
        let [q, a, c, r0, r1, x, at] =
            [0, 1, 2, 3, 4, 5, 6].map(|k| pt(raw[k].0 * scale, raw[k].1 * scale));
        let b = holding(q, a, c, b_kind, sides.0);
        let r = match r_kind {
            0 => Rect::new(r0, r1),
            1 => holding(at, r0, r1, 1, sides.1),
            2 => holding(q, r0, r1, 0, sides.1),
            3 => holding(at, r0, r1, 3, sides.1),
            _ => holding(at, r0, r1, 4, sides.1),
        };
        let x = if x_near { pt(ulps(q.x, steps.0), ulps(q.y, steps.1)) } else { x };
        prop_assert!(b.contains_point(q));
        prop_assert!(
            r.mindist_rect_sq(b) <= r.mindist_sq(q),
            "{:?} from {:?}: {} > {} from {:?}",
            r,
            b,
            r.mindist_rect_sq(b),
            r.mindist_sq(q),
            q
        );
        prop_assert!(
            b.mindist_sq(x) <= q.dist_sq(x),
            "{:?} from {:?}: {} > {} from {:?}",
            x,
            b,
            b.mindist_sq(x),
            q.dist_sq(x),
            q
        );
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
}
