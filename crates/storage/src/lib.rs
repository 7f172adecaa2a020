//! Disk-page and buffer-manager substrate for the RCJ reproduction.
//!
//! The EDBT 2008 evaluation is I/O-centric: each dataset is indexed by a
//! *disk-based* R\*-tree with a 1 KB page size, a small LRU memory buffer
//! (default 1% of the total size of both trees) exploits access locality,
//! and the cost model charges **10 ms per page fault** while CPU time tracks
//! the number of (possibly repeated) node accesses. This crate provides that
//! exact machinery:
//!
//! * [`MemDisk`] and [`FileDisk`] — the raw page devices: resident pages
//!   (used by tests and benchmarks for determinism) or a page file.
//! * [`BufferPool`] — the LRU page cache of configurable capacity that
//!   every access path counts in.
//! * [`Pager`] — ties the two together and maintains [`IoStats`]: logical
//!   reads (the paper's CPU proxy), page faults (the paper's I/O unit), and
//!   writes.
//! * [`CostModel`] — converts fault counts into the simulated I/O time the
//!   paper reports (10 ms per fault by default).
//! * [`PooledPager`] — the one read path. Index maintenance (bulk loads,
//!   inserts, deletes) reads and writes through the pager, whose reads
//!   are those of the reader it keeps on its live device; every join
//!   reader — sequential or parallel, stream, top-k, server shard, leaf
//!   walk — is pinned on the pager ([`Pager::reader`]) and counts in a
//!   shared [`BufferPool`] (usually the pager's own, [`Pager::pool`]),
//!   so all of them read through one warm cache at one budget, without
//!   a contended lock on the bytes. The caller absorbs the reader's
//!   counters into the pager ([`Pager::absorb`]).
//! * One page space. A pinned reader holds a clone of the pager's
//!   device, which shares its pages by `Arc` and copies none: a
//!   [`MemDisk`]'s page table, or the [`FileDisk`] page file, which the
//!   pool faults pages out of and a background [`Prefetcher`] stages
//!   ahead of the readers. A write copies only what a pinned reader
//!   still holds: a resident page, or, at [`Pager::begin_epoch`], the
//!   page file. [`Pager::spill_to`] moves a pager onto a page file,
//!   after which the pool's frames own whatever page bytes fit the
//!   budget, so `read_faults` tracks the paper's I/O model instead of
//!   RAM size. The file belongs to the pager that spilled it: that
//!   pager is its only writer, and only the readers pinned on it read
//!   the file.
//! * [`Wal`] — the durable write-ahead mutation log the serving
//!   coordinator appends LOAD/mutation batches to (length-prefixed,
//!   CRC32-checksummed, fsynced before fan-out), with segment rotation
//!   and torn-tail-tolerant recovery ([`decode_segment`]) so a
//!   restarted coordinator can replay its fleet back to the logged
//!   epochs.
//!
//! # Example
//!
//! ```
//! use ringjoin_storage::{MemDisk, Pager, CostModel};
//!
//! let mut pager = Pager::new(MemDisk::new(1024), 2); // 2-page buffer
//! let a = pager.allocate();
//! let b = pager.allocate();
//! let c = pager.allocate();
//! pager.write(a, |bytes| bytes[0] = 7);
//! pager.read(a, |bytes| assert_eq!(bytes[0], 7));
//! pager.read(b, |_| ());
//! pager.read(c, |_| ()); // evicts a (LRU)
//! pager.read(a, |bytes| assert_eq!(bytes[0], 7)); // faults again
//! let stats = pager.stats();
//! assert_eq!(stats.logical_reads, 4);
//! assert!(stats.read_faults >= 2);
//! let model = CostModel::default();
//! assert!(model.io_seconds(&stats) > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer_pool;
mod disk;
mod pager;
mod wal;

pub use buffer_pool::{BufferPool, PoolRead, PooledPager, Prefetcher};
pub use disk::{FileDisk, MemDisk, PageId};
pub use pager::{CostModel, IoStats, Pager, SharedPager};
pub use wal::{crc32, decode_segment, Wal, DEFAULT_SEGMENT_BYTES, MAX_RECORD_BYTES};
