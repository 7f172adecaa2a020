//! Read-only page snapshots — the storage side of the parallel
//! executor.
//!
//! The paper's pager is inherently serial: one LRU buffer, one fault
//! counter, interior mutability on every read. To let join workers run
//! concurrently without a contended lock, the parallel read path splits
//! that design in two: an immutable [`PageSnapshot`] holding the bytes
//! (this module), and per-worker
//! [`PooledPager`](crate::PooledPager) handles accounting hits and
//! faults through the pager's shared [`BufferPool`](crate::BufferPool).
//! Worker stats are merged back into the owning pager when the run
//! completes.

use crate::disk::{PageId, PageStore};
use std::path::Path;
use std::sync::Arc;

/// An immutable snapshot of every allocated page of a pager.
///
/// Cloning is cheap (an `Arc` bump); all clones share the same page
/// bytes. Reads never fault, never lock and never touch statistics —
/// per-access accounting is the job of the
/// [`PooledPager`](crate::PooledPager) layered on top.
#[derive(Clone)]
pub struct PageSnapshot {
    inner: Arc<SnapshotInner>,
}

struct SnapshotInner {
    page_size: usize,
    pages: Vec<Box<[u8]>>,
}

impl PageSnapshot {
    pub(crate) fn from_pages(page_size: usize, pages: Vec<Box<[u8]>>) -> Self {
        PageSnapshot {
            inner: Arc::new(SnapshotInner { page_size, pages }),
        }
    }

    /// Loads an entire page file (as written by
    /// [`Pager::spill_to`](crate::Pager::spill_to)) into a resident
    /// snapshot. The memory-hungry counterpart of
    /// [`FilePageStore::open`](crate::FilePageStore::open) — useful when
    /// the dataset fits in RAM and page reads should never fault.
    pub fn open<P: AsRef<Path>>(path: P, page_size: usize) -> std::io::Result<Self> {
        let store = crate::disk::FilePageStore::open(path, page_size)?;
        let mut pages = Vec::with_capacity(store.num_pages() as usize);
        for i in 0..store.num_pages() {
            let mut buf = vec![0u8; page_size].into_boxed_slice();
            store.read_into(PageId(i), &mut buf);
            pages.push(buf);
        }
        Ok(PageSnapshot::from_pages(page_size, pages))
    }

    /// Page size of the snapshotted device.
    pub fn page_size(&self) -> usize {
        self.inner.page_size
    }

    /// Number of captured pages.
    pub fn num_pages(&self) -> u32 {
        self.inner.pages.len() as u32
    }

    /// The bytes of page `id`.
    ///
    /// # Panics
    /// Panics if `id` was not allocated when the snapshot was taken.
    #[inline]
    pub fn page(&self, id: PageId) -> &[u8] {
        &self.inner.pages[id.0 as usize]
    }

    /// `true` if both handles share the same underlying page copy (an
    /// `Arc` identity test — cheap, used to verify snapshot caching).
    pub fn shares_pages(&self, other: &PageSnapshot) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// A snapshot is a perfectly valid (RAM-resident) [`PageStore`]: reads
/// copy out of the shared page vector. Lets tests and benches exercise
/// the pool's store-backed path without touching the filesystem.
impl PageStore for PageSnapshot {
    fn page_size(&self) -> usize {
        PageSnapshot::page_size(self)
    }

    fn num_pages(&self) -> u32 {
        PageSnapshot::num_pages(self)
    }

    fn read_into(&self, id: PageId, buf: &mut [u8]) {
        buf.copy_from_slice(self.page(id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::pager::Pager;

    fn snapshot_with_pages(n: u32) -> PageSnapshot {
        let mut p = Pager::new(MemDisk::new(128), 4);
        for i in 0..n {
            let id = p.allocate();
            p.write(id, |bytes| bytes[0] = i as u8 + 1);
        }
        p.snapshot()
    }

    #[test]
    fn snapshot_captures_written_pages() {
        let snap = snapshot_with_pages(3);
        assert_eq!(snap.num_pages(), 3);
        assert_eq!(snap.page_size(), 128);
        for i in 0..3u32 {
            assert_eq!(snap.page(PageId(i))[0], i as u8 + 1);
        }
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut p = Pager::new(MemDisk::new(128), 4);
        let a = p.allocate();
        p.write(a, |bytes| bytes[0] = 7);
        let snap = p.snapshot();
        p.write(a, |bytes| bytes[0] = 99);
        assert_eq!(snap.page(a)[0], 7, "snapshot must not see later writes");
    }

    #[test]
    fn snapshot_is_cached_until_invalidated() {
        let mut p = Pager::new(MemDisk::new(128), 4);
        let a = p.allocate();
        p.write(a, |b| b[0] = 1);
        let s1 = p.snapshot();
        let s2 = p.snapshot();
        assert!(
            s1.shares_pages(&s2),
            "no writes between snapshots -> same Arc, no re-copy"
        );
        p.write(a, |b| b[0] = 2);
        let s3 = p.snapshot();
        assert!(!s3.shares_pages(&s1), "a write invalidates the cache");
        assert_eq!(s1.page(a)[0], 1, "old handle keeps the old bytes");
        assert_eq!(s3.page(a)[0], 2);
        p.allocate();
        let s4 = p.snapshot();
        assert!(!s4.shares_pages(&s3), "an allocation invalidates too");
        assert_eq!(s4.num_pages(), 2);
    }

    #[test]
    fn snapshots_are_shareable_across_threads() {
        let snap = snapshot_with_pages(8);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let snap = snap.clone();
                scope.spawn(move || {
                    for i in 0..8u32 {
                        assert_eq!(snap.page(PageId(i))[0], i as u8 + 1);
                    }
                });
            }
        });
    }
}
