//! Theoretical bounds on the RCJ result size — the paper's second
//! future-work question ("determine the theoretical upper bound of RCJ
//! result size ... for the worst possible data distributions").
//!
//! # The RCJ is a bichromatic Gabriel graph
//!
//! A pair `⟨p, q⟩` qualifies iff the disk with diameter `pq` contains no
//! other point of `P ∪ Q` — which is precisely the edge condition of the
//! *Gabriel graph* of the union set `S = P ∪ Q`. The RCJ result is
//! therefore the set of **bichromatic** Gabriel edges of `S`.
//!
//! The Gabriel graph is a subgraph of the Delaunay triangulation, hence
//! planar, and a planar graph on `|S| ≥ 3` vertices has at most
//! `3·|S| − 6` edges. So for points *in general position* the RCJ
//! returns at most `3·(|P| + |Q|) − 6` pairs: the value of
//! [`general_position_bound`], which is 1 when each set holds one point
//! and 0 when either is empty. This confirms and explains the paper's
//! empirical observation that the result cardinality grows linearly with
//! the input size (Figure 16b).
//!
//! # Degenerate inputs
//!
//! General position matters: with *coincident* points the bound fails
//! spectacularly — `n` copies of `P` at one location and `m` copies of
//! `Q` at another yield `n · m` result pairs, because co-located points
//! sit on (not inside) every pair's circle under strict-interior
//! semantics. [`worst_case_bound`] therefore distinguishes the two
//! regimes.

/// Upper bound on the RCJ result size for inputs in **general position**
/// (no two points coincide, no four points co-circular): the Delaunay
/// edge bound `3·(|P| + |Q|) − 6` on the union set. Computed in `u128`,
/// like [`worst_case_bound`], so no pair of `u64` sizes overflows.
///
/// ```
/// use ringjoin_core::bounds::general_position_bound;
/// assert_eq!(general_position_bound(100, 100), 594);
/// assert_eq!(general_position_bound(1, 1), 1); // a single pair
/// ```
pub fn general_position_bound(np: u64, nq: u64) -> u128 {
    let s = u128::from(np) + u128::from(nq);
    if np == 0 || nq == 0 {
        return 0;
    }
    if s < 3 {
        // Two points: exactly one (bichromatic) pair.
        return 1;
    }
    3 * s - 6
}

/// Upper bound on the RCJ result size with **no** general-position
/// assumption: degenerate (co-located / co-circular) inputs can realise
/// the full Cartesian product.
pub fn worst_case_bound(np: u64, nq: u64) -> u128 {
    np as u128 * nq as u128
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::rcj_brute;
    use ringjoin_geom::pt;
    use ringjoin_rtree::Item;

    #[test]
    fn bound_values() {
        assert_eq!(general_position_bound(0, 10), 0);
        assert_eq!(general_position_bound(10, 0), 0);
        assert_eq!(general_position_bound(1, 1), 1);
        assert_eq!(general_position_bound(2, 1), 3);
        assert_eq!(general_position_bound(500, 500), 2994);
    }

    #[test]
    fn bound_does_not_overflow_at_u64_max() {
        let max = u128::from(u64::MAX);
        assert_eq!(general_position_bound(u64::MAX, 1), 3 * (max + 1) - 6);
        assert_eq!(general_position_bound(1, u64::MAX), 3 * (max + 1) - 6);
        assert_eq!(general_position_bound(u64::MAX, u64::MAX), 6 * max - 6);
        // 3·(|P| + |Q|) − 6 lands exactly on u64::MAX here.
        assert_eq!(general_position_bound(6148914691236517206, 1), max);
    }

    #[test]
    fn random_inputs_respect_general_position_bound() {
        let mut state = 0xabcdefu64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..5 {
            let n = 40 + trial * 25;
            let ps: Vec<Item> = (0..n)
                .map(|i| Item::new(i as u64, pt(next() * 1000.0, next() * 1000.0)))
                .collect();
            let qs: Vec<Item> = (0..n)
                .map(|i| Item::new(i as u64, pt(next() * 1000.0, next() * 1000.0)))
                .collect();
            let result = rcj_brute(&ps, &qs).len() as u128;
            assert!(
                result <= general_position_bound(n as u64, n as u64),
                "trial {trial}: {result} pairs exceeds the planar bound"
            );
        }
    }

    #[test]
    fn coincident_points_blow_past_the_planar_bound() {
        // The degenerate regime the docs warn about: 20 P-copies at one
        // spot, 20 Q-copies at another -> 400 pairs (each circle's only
        // potential blockers lie exactly ON it).
        let ps: Vec<Item> = (0..20).map(|i| Item::new(i, pt(0.0, 0.0))).collect();
        let qs: Vec<Item> = (0..20).map(|i| Item::new(i, pt(10.0, 0.0))).collect();
        let result = rcj_brute(&ps, &qs).len() as u128;
        assert_eq!(result, 400);
        assert!(result > general_position_bound(20, 20));
        assert_eq!(worst_case_bound(20, 20), 400);
    }
}
