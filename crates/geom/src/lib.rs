//! Computational-geometry substrate for the ring-constrained join (RCJ).
//!
//! This crate contains the geometric primitives and predicates that the RCJ
//! algorithms of Yiu, Karras and Mamoulis (EDBT 2008) are built from:
//!
//! * [`Point`] and [`Rect`] — 2-D points and minimum bounding rectangles
//!   (MBRs), the vocabulary of the R-tree substrate.
//! * [`Circle`] — the *smallest enclosing circle* of a point pair, i.e. the
//!   circle whose diameter is the segment between the two points. An RCJ
//!   result pair is exactly a pair whose circle contains no other data point
//!   in its **open** interior (strict-interior a.k.a. Gabriel semantics).
//! * [`HalfPlane`] — the pruning regions `Ψ⁺(q, p)` / `Ψ⁻(q, p)` of
//!   Definition 1 in the paper, together with the point test of Lemma 1 and
//!   the MBR test of Lemma 3.
//!
//! # Exactness conventions
//!
//! All predicates are *strict-interior*: a point lying exactly **on** a
//! circle does not invalidate an RCJ pair, and a point lying exactly on the
//! boundary line of a half-plane is **not** pruned. These two conventions are
//! two faces of the same coin — see [`HalfPlane`] for the equivalence — and
//! they make the algorithms exact for datasets containing co-circular or
//! collinear points (up to floating-point evaluation of the predicates,
//! which uses forms chosen to avoid constructed intermediates wherever
//! possible, e.g. the dot-product interior test of
//! [`Circle::strictly_contains_diameter`]).
//!
//! # Example: the Figure 1 dataset of the paper
//!
//! ```
//! use ringjoin_geom::{pt, Circle};
//!
//! // P = {p1, p2}, Q = {q1, q2} as in Figure 1 of the paper.
//! let p1 = pt(0.28, 0.88);
//! let p2 = pt(0.40, 0.35);
//! let q1 = pt(0.15, 0.59);
//! let q2 = pt(0.83, 0.20);
//!
//! // <p1, q2> is not an RCJ pair: its circle contains p2.
//! assert!(Circle::strictly_contains_diameter(p2, p1, q2));
//! // <p2, q1> is an RCJ pair even though p2 and q1 are not nearest
//! // neighbours: none of the remaining points lies in its circle.
//! assert!(!Circle::strictly_contains_diameter(p1, p2, q1));
//! assert!(!Circle::strictly_contains_diameter(q2, p2, q1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circle;
mod halfplane;
mod item;
mod point;
mod rect;

pub use circle::Circle;
pub use halfplane::{prunes, HalfPlane};
pub use item::Item;
pub use point::{pt, Point, Vec2};
pub use rect::Rect;
