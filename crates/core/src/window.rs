//! Windowed joins: the pairs whose ring meets a region of interest and
//! is at most a given diameter wide. [`RingBounds`] is the constraint
//! and its oracle; `Window` is the form a leaf pass tests it in.

use crate::pair::RcjPair;
use crate::EngineError;
use ringjoin_geom::{pt, Point, Rect};

/// A region-of-interest restriction on a join: report only the pairs
/// whose ring (the pair's circle) intersects `bounds` and whose diameter
/// is at most `max_diameter`.
///
/// A window is a query constraint
/// ([`QueryBuilder::within`](crate::QueryBuilder::within)). The leaf
/// pass reports exactly the pairs of the full join that
/// [`RingBounds::admits`] accepts, in the full join's order, and does
/// only the work those pairs need:
///
/// * **The leaf skip.** An admitted pair's `q` lies within
///   [`RingBounds::inflated`], the **ring-expanded bounds**, so the pass
///   skips every outer leaf whose region misses that rectangle without
///   reading or prefetching the leaf's page. A sharded coordinator
///   routes by the same rectangle.
/// * **The per-point cut.** Each leaf point's filter is cut at the
///   exact squared form of `max_diameter` when the point lies in the
///   ring-expanded bounds, and at −∞ (no candidate at all) when it does
///   not: such a point ends no admitted pair. A filter's cut drops no
///   candidate within it (a pruner lies strictly closer to `q` than
///   what it prunes), so no admitted pair is lost, and a ranked sink's
///   cut combines with the window's by `min`.
/// * **Admission before verification.** `admits` depends on the pair
///   alone, so the pass drops the candidates it rejects before they are
///   verified. The pass's [`RcjStats`](crate::RcjStats) count only the
///   work done, so a windowed query counts less than the unbounded one.
///
/// # Rounding
///
/// `admits` is the oracle and is computed on rounded values. The cut
/// and the ring-expanded bounds are built so that no pair it accepts is
/// lost to rounding:
///
/// * The cut is the largest `c` with `c.sqrt() <= max_diameter`, so a
///   squared distance `d² > c` exactly when `d².sqrt()`, the pair's
///   [`diameter`](crate::RcjPair::diameter), exceeds `max_diameter`.
///   `max_diameter²` is not that number: for `p = (0, 0)`,
///   `q = (2, 3)` and `max_diameter = 13f64.sqrt()` the pair is
///   admitted, yet `max_diameter * max_diameter` is
///   `12.999999999999998 < 13`.
/// * The ring-expanded bounds inflate `bounds` by `max_diameter` plus a
///   slack of `4ε·(|x0| + |y0| + |x1| + |y1| + max_diameter)` and the
///   smallest normal `f64` (for windows in the subnormal range). The
///   roundings between the exact geometry and `admits`' values (the
///   difference, squares and square root of the diameter, the
///   midpoint, the radius, and the inflation itself) add up to about
///   `ε·(3.75·max_diameter + |x0|)` on the low-x side, and likewise on
///   the others. Inflating by `max_diameter` alone loses pairs: an
///   admitted `q` can lie an ulp outside. An infinite corner gives an
///   infinite slack: the everything-window.
#[derive(Clone, Copy, Debug)]
pub struct RingBounds {
    /// The region of interest the ring must intersect.
    pub bounds: Rect,
    /// Upper bound on the ring diameter of reported pairs (must be
    /// non-negative and finite).
    pub max_diameter: f64,
}

impl RingBounds {
    /// The ring-expanded routing rectangle: `bounds` inflated by
    /// `max_diameter` plus a rounding slack, so that it holds both
    /// points of every pair [`RingBounds::admits`] accepts (see
    /// *Rounding* above). An infinite corner makes it the whole plane;
    /// empty bounds stay empty.
    pub fn inflated(&self) -> Rect {
        let r = self.bounds;
        if r.is_empty() {
            return r;
        }
        let magnitude =
            r.min.x.abs() + r.min.y.abs() + r.max.x.abs() + r.max.y.abs() + self.max_diameter;
        let slack = 4.0 * f64::EPSILON * magnitude + f64::MIN_POSITIVE;
        if !slack.is_finite() {
            return Rect {
                min: pt(f64::NEG_INFINITY, f64::NEG_INFINITY),
                max: pt(f64::INFINITY, f64::INFINITY),
            };
        }
        r.inflate(self.max_diameter + slack)
    }

    /// Does `pair` satisfy the restriction? (Circle-rectangle
    /// intersection: the circle meets `bounds` iff the center is within
    /// one radius of it.)
    pub fn admits(&self, pair: &RcjPair) -> bool {
        pair.diameter() <= self.max_diameter
            && self.bounds.mindist_sq(pair.center()) <= pair.radius() * pair.radius()
    }

    /// The exact squared cut: the largest `c` with
    /// `c.sqrt() <= max_diameter`. Square roots are correctly rounded
    /// and monotone, so `max_diameter²` is within a step or two of it.
    /// Call only on a window [`validate_bounds`] accepts.
    fn cut(&self) -> f64 {
        let d = self.max_diameter;
        let mut c = d * d;
        while c.sqrt() > d {
            c = c.next_down();
        }
        while c.next_up().sqrt() <= d {
            c = c.next_up();
        }
        c
    }
}

/// Validates a [`RingBounds`]: no `NaN` corner, non-empty bounds, and a
/// finite, non-negative `max_diameter`. Infinite corners are valid (an
/// everything-window). The engine refuses a query whose window fails
/// here, and the sharded server refuses such a request before routing
/// it.
pub fn validate_bounds(rb: &RingBounds) -> Result<(), EngineError> {
    let r = rb.bounds;
    let refuse = |why: &str| Err(EngineError::InvalidWindow(why.to_string()));
    if [r.min.x, r.min.y, r.max.x, r.max.y]
        .iter()
        .any(|c| c.is_nan())
    {
        return refuse("bounds has a NaN corner");
    }
    if r.is_empty() {
        return refuse("bounds rectangle is empty");
    }
    if !(rb.max_diameter.is_finite() && rb.max_diameter >= 0.0) {
        return refuse("maxd must be finite and non-negative");
    }
    Ok(())
}

/// A validated window as a leaf pass uses it: the oracle, the routing
/// rectangle and the exact cut.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Window {
    bounds: RingBounds,
    reach: Rect,
    cut: f64,
}

impl Window {
    /// The pass's form of `bounds`, a window [`validate_bounds`] accepts
    /// (the engine validates when it plans).
    pub(crate) fn new(bounds: RingBounds) -> Window {
        debug_assert!(validate_bounds(&bounds).is_ok(), "{bounds:?}");
        Window {
            bounds,
            reach: bounds.inflated(),
            cut: bounds.cut(),
        }
    }

    /// Can a leaf group with this region hold the `q` of an admitted
    /// pair?
    pub(crate) fn reaches(&self, region: Rect) -> bool {
        region.intersects(self.reach)
    }

    /// The squared cut of `q`'s filter: the exact `max_diameter` cut if
    /// `q` can end an admitted pair, −∞ if it cannot.
    pub(crate) fn cut(&self, q: Point) -> f64 {
        if self.reach.contains_point(q) {
            self.cut
        } else {
            f64::NEG_INFINITY
        }
    }

    /// See [`RingBounds::admits`].
    pub(crate) fn admits(&self, pair: &RcjPair) -> bool {
        self.bounds.admits(pair)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringjoin_geom::Item;

    fn pair(p: Point, q: Point) -> RcjPair {
        RcjPair::new(Item::new(1, p), Item::new(2, q))
    }

    #[test]
    fn the_cut_is_exact_where_the_square_is_not() {
        let rb = RingBounds {
            bounds: Rect::new(pt(-1.0, -1.0), pt(1.0, 1.0)),
            max_diameter: 13f64.sqrt(),
        };
        let pr = pair(pt(0.0, 0.0), pt(2.0, 3.0));
        assert!(rb.admits(&pr));
        assert!(rb.max_diameter * rb.max_diameter < pr.diameter_sq());
        assert!(pr.diameter_sq() <= rb.cut());
        // And the cut is tight: one step past it the root exceeds maxd.
        assert!(rb.cut().next_up().sqrt() > rb.max_diameter);
        for d in [0.0, 1e-300, 1e-160, 0.5, 3.0, 1e154, 1e200, f64::MAX] {
            let c = RingBounds {
                max_diameter: d,
                ..rb
            }
            .cut();
            assert!(c.sqrt() <= d && c.next_up().sqrt() > d, "maxd {d}: cut {c}");
        }
    }

    #[test]
    fn infinite_corners_route_everywhere_and_empty_bounds_nowhere() {
        let rb = RingBounds {
            bounds: Rect::new(pt(f64::INFINITY, 0.0), pt(f64::INFINITY, 1.0)),
            max_diameter: 1.0,
        };
        let all = rb.inflated();
        assert!(all.contains_point(pt(-1e308, 1e308)));
        assert!(!all.min.x.is_nan() && !all.max.x.is_nan());
        let empty = RingBounds {
            bounds: Rect::empty(),
            max_diameter: 1.0,
        };
        assert!(empty.inflated().is_empty());
    }

    /// Every admitted pair has both points inside the routing rectangle
    /// and within the cut, on windows and pairs placed a few ulps from
    /// the edges of what `admits` accepts.
    #[test]
    fn admitted_pairs_lie_inside_the_routing_rectangle_and_the_cut() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
        let mut admitted = 0;
        for _ in 0..200_000 {
            let scale = [1e-3, 1.0, 1e3, 1e6][(unit() * 4.0) as usize];
            let x0 = (unit() - 0.5) * 2.0 * scale;
            let y0 = (unit() - 0.5) * 2.0 * scale;
            let bounds = Rect::new(pt(x0, y0), pt(x0 + unit() * scale, y0 + unit() * scale));
            let maxd = unit() * scale;
            let rb = RingBounds {
                bounds,
                max_diameter: maxd,
            };
            // p on or near a side; q about maxd away, outward.
            let (ux, uy) = match (unit() * 4.0) as usize {
                0 => (-1.0, 0.0),
                1 => (1.0, 0.0),
                2 => (0.0, -1.0),
                _ => (0.0, 1.0),
            };
            let along = unit();
            let p = pt(
                if ux < 0.0 {
                    bounds.min.x
                } else if ux > 0.0 {
                    bounds.max.x
                } else {
                    bounds.min.x + along * (bounds.max.x - bounds.min.x)
                },
                if uy < 0.0 {
                    bounds.min.y
                } else if uy > 0.0 {
                    bounds.max.y
                } else {
                    bounds.min.y + along * (bounds.max.y - bounds.min.y)
                },
            );
            let mut q = pt(p.x + ux * maxd, p.y + uy * maxd);
            let steps = (next() % 9) as i32 - 4;
            for _ in 0..steps.abs() {
                q = if steps > 0 {
                    pt(q.x.next_up(), q.y.next_up())
                } else {
                    pt(q.x.next_down(), q.y.next_down())
                };
            }
            for pr in [pair(p, q), pair(q, p)] {
                if !rb.admits(&pr) {
                    continue;
                }
                admitted += 1;
                let w = Window::new(rb);
                assert!(w.reaches(Rect::from_point(pr.q.point)), "{rb:?} {pr:?}");
                assert!(pr.p.point.dist_sq(pr.q.point) <= w.cut(pr.q.point));
            }
        }
        assert!(admitted > 10_000, "only {admitted} admitted pairs");
    }

    #[test]
    fn validation_refuses_what_no_window_can_mean() {
        let ok = RingBounds {
            bounds: Rect::new(pt(0.0, 0.0), pt(1.0, 1.0)),
            max_diameter: 0.0,
        };
        assert!(validate_bounds(&ok).is_ok());
        let everything = RingBounds {
            bounds: Rect::new(
                pt(f64::NEG_INFINITY, f64::NEG_INFINITY),
                pt(f64::INFINITY, f64::INFINITY),
            ),
            ..ok
        };
        assert!(validate_bounds(&everything).is_ok());
        for bad in [
            RingBounds {
                max_diameter: -1.0,
                ..ok
            },
            RingBounds {
                max_diameter: f64::NAN,
                ..ok
            },
            RingBounds {
                max_diameter: f64::INFINITY,
                ..ok
            },
            RingBounds {
                bounds: Rect::empty(),
                ..ok
            },
            RingBounds {
                bounds: Rect {
                    min: pt(f64::NAN, 0.0),
                    max: pt(1.0, 1.0),
                },
                ..ok
            },
        ] {
            assert!(
                matches!(validate_bounds(&bad), Err(EngineError::InvalidWindow(_))),
                "{bad:?}"
            );
        }
    }
}
