//! A disk-based bucket PR quadtree — the "other hierarchical spatial
//! index" of the RCJ paper.
//!
//! Section 3 of the paper notes that its methodology "is directly
//! applicable to other hierarchical spatial indexes (e.g., point
//! quad-tree) as well". This crate makes that claim executable: a
//! page-per-node PR quadtree over the same [`ringjoin_storage`] pager
//! (so the same buffer manager and I/O accounting), with insertion,
//! removal and range search. The shared generic INJ/BIJ/OBJ drivers of
//! `ringjoin_core` run over quadrant regions exactly as they run over
//! R-tree MBRs (minus the face-inside-circle rule, which needs minimal
//! regions): they read the tree only through core's `QuadTreeProbe`,
//! which decodes one node at a time, so every traversal the join needs
//! (the filter's, the verification's and the depth-first list of outer
//! leaves) lives in core, once for both index kinds.
//!
//! # Structure
//!
//! The tree partitions a fixed square region. Leaves hold up to a
//! page-derived number of points; on overflow a leaf is rewritten in
//! place as an internal node with four on-demand children (NW/NE/SW/SE
//! by midpoint). Duplicate-heavy data cannot split forever: past a
//! maximum depth, leaves chain into overflow pages instead.
//!
//! The ring-constrained join itself is **not** implemented here — and
//! not even its probe is: `ringjoin_core` owns the `QuadTreeProbe`
//! (core depends on this crate, not the other way around), so the core
//! engine can register quadtree datasets natively alongside R-trees.
//! This crate only exports the node codec primitives the probe needs
//! ([`quadtree_decode`], [`quadrant`]).
//!
//! ```
//! use ringjoin_quadtree::QuadTree;
//! use ringjoin_storage::{MemDisk, Pager};
//! use ringjoin_geom::{pt, Rect};
//!
//! let pager = Pager::new(MemDisk::new(1024), 64).into_shared();
//! let region = Rect::new(pt(0.0, 0.0), pt(100.0, 100.0));
//! let mut tree = QuadTree::new(pager, region);
//! for i in 0..500u64 {
//!     tree.insert(i, pt((i % 25) as f64 * 4.0, (i / 25) as f64 * 5.0));
//! }
//! let hits = tree.range(Rect::new(pt(0.0, 0.0), pt(10.0, 10.0)));
//! assert!(!hits.is_empty());
//! assert_eq!(tree.validate().unwrap(), 500);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod node;
mod tree;

pub use node::{decode as quadtree_decode, quadrant, QItem, QNode};
pub use tree::QuadTree;
