//! Result pairs of the ring-constrained join.

use ringjoin_geom::{Circle, Point};
use ringjoin_rtree::Item;
use std::cmp::Ordering;
use std::fmt;

/// A result pair `⟨p, q⟩` of the ring-constrained join.
///
/// Each pair is semantically a *circle*: the smallest circle enclosing `p`
/// and `q`. The paper's applications consume the derived data —
/// [`RcjPair::center`] is the fair middleman location (equidistant from
/// both facilities, minimising the maximum distance to them), and
/// [`RcjPair::radius`] is the "ring" radius used to rank recommendations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RcjPair {
    /// The member of the inner dataset `P`.
    pub p: Item,
    /// The member of the outer dataset `Q`.
    pub q: Item,
}

impl RcjPair {
    /// Creates a pair.
    #[inline]
    pub fn new(p: Item, q: Item) -> Self {
        RcjPair { p, q }
    }

    /// The smallest circle enclosing the pair.
    #[inline]
    pub fn circle(&self) -> Circle {
        Circle::from_diameter(self.p.point, self.q.point)
    }

    /// The fair middleman location: the circle center.
    #[inline]
    pub fn center(&self) -> Point {
        self.p.point.midpoint(self.q.point)
    }

    /// The ring radius (half the pair distance).
    #[inline]
    pub fn radius(&self) -> f64 {
        0.5 * self.p.point.dist(self.q.point)
    }

    /// The ring diameter (the pair distance) — the sort key suggested for
    /// the tourist-recommendation application.
    #[inline]
    pub fn diameter(&self) -> f64 {
        self.p.point.dist(self.q.point)
    }

    /// The squared ring diameter: the exact rank key. Two distinct
    /// squares can round to one [`RcjPair::diameter`].
    #[inline]
    pub fn diameter_sq(&self) -> f64 {
        self.p.point.dist_sq(self.q.point)
    }

    /// Identity key `(p.id, q.id)` for set comparisons between algorithms.
    #[inline]
    pub fn key(&self) -> (u64, u64) {
        (self.p.id, self.q.id)
    }

    /// The rank order of ranked queries: ascending squared diameter, then
    /// ascending pair key. The top-k sink, the shard merge and
    /// [`sort_by_diameter`] all order by it, so their answers agree
    /// even on exact and near ties.
    pub fn rank_cmp(&self, other: &RcjPair) -> Ordering {
        self.diameter_sq()
            .total_cmp(&other.diameter_sq())
            .then_with(|| self.key().cmp(&other.key()))
    }
}

impl fmt::Display for RcjPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "<p{}, q{}> center={} r={:.3}",
            self.p.id,
            self.q.id,
            self.center(),
            self.radius()
        )
    }
}

/// Sorts pairs by ascending ring diameter (tourist-recommendation order),
/// in [rank order](RcjPair::rank_cmp): the order of every top-k answer.
pub fn sort_by_diameter(pairs: &mut [RcjPair]) {
    pairs.sort_by(RcjPair::rank_cmp);
}

/// Normalises a pair list into sorted `(p.id, q.id)` keys, the canonical
/// form used when comparing algorithm outputs.
pub fn pair_keys(pairs: &[RcjPair]) -> Vec<(u64, u64)> {
    let mut keys: Vec<(u64, u64)> = pairs.iter().map(RcjPair::key).collect();
    keys.sort_unstable();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringjoin_geom::pt;

    #[test]
    fn derived_geometry() {
        let pair = RcjPair::new(Item::new(1, pt(0.0, 0.0)), Item::new(2, pt(6.0, 8.0)));
        assert_eq!(pair.center(), pt(3.0, 4.0));
        assert_eq!(pair.radius(), 5.0);
        assert_eq!(pair.diameter(), 10.0);
        assert_eq!(pair.circle().center, pt(3.0, 4.0));
        assert_eq!(pair.key(), (1, 2));
    }

    #[test]
    fn diameter_sort_is_deterministic() {
        let a = RcjPair::new(Item::new(1, pt(0.0, 0.0)), Item::new(1, pt(2.0, 0.0)));
        let b = RcjPair::new(Item::new(2, pt(0.0, 0.0)), Item::new(2, pt(1.0, 0.0)));
        let c = RcjPair::new(Item::new(0, pt(5.0, 0.0)), Item::new(9, pt(7.0, 0.0)));
        let mut v = vec![a, b, c];
        sort_by_diameter(&mut v);
        assert_eq!(v[0].key(), (2, 2));
        // a and c tie on diameter; id order breaks the tie.
        assert_eq!(v[1].key(), (0, 9));
        assert_eq!(v[2].key(), (1, 1));
    }

    #[test]
    fn center_is_equidistant_fairness() {
        let pair = RcjPair::new(Item::new(1, pt(1.0, 7.0)), Item::new(2, pt(-3.0, 2.0)));
        let c = pair.center();
        assert!((c.dist(pair.p.point) - c.dist(pair.q.point)).abs() < 1e-12);
        assert!((c.dist(pair.p.point) - pair.radius()).abs() < 1e-12);
    }
}
