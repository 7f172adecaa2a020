//! The pager: buffer-managed page access with the paper's I/O accounting.

use crate::buffer_pool::{BufferPool, PageSource, PoolRead};
use crate::disk::{DiskStorage, FileDisk, PageId};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;

/// I/O statistics accumulated by a [`Pager`].
///
/// * `logical_reads` counts every page access, cached or not — the paper's
///   CPU-cost proxy ("CPU time roughly models the total number (including
///   repeated) of R-tree node accesses", Section 5).
/// * `read_faults` / `write_faults` count buffer misses — the paper's I/O
///   unit, charged at 10 ms each by the default [`CostModel`].
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct IoStats {
    /// Page accesses for reading, including buffer hits.
    pub logical_reads: u64,
    /// Read accesses served from the buffer (or the shared
    /// [`BufferPool`](crate::BufferPool)) — always
    /// `logical_reads - read_faults`, maintained explicitly so hit
    /// rates survive [`IoStats::merge`]/[`IoStats::since`] arithmetic
    /// without re-derivation.
    pub read_hits: u64,
    /// Read accesses that missed the buffer and went to the device.
    pub read_faults: u64,
    /// Read accesses that hit a frame only because the background
    /// prefetcher staged it — always a subset of `read_hits` (the
    /// hit/fault split is unaffected; this isolates how much of the hit
    /// rate the prefetch schedule bought). Only store-backed reads can
    /// produce prefetch hits; resident-snapshot runs keep this at 0.
    pub prefetch_hits: u64,
    /// Page accesses for writing, including buffer hits.
    pub logical_writes: u64,
    /// Write accesses that had to fetch the page from the device first.
    pub write_faults: u64,
}

impl IoStats {
    /// Total buffer misses (read + write).
    pub fn faults(&self) -> u64 {
        self.read_faults + self.write_faults
    }

    /// Total logical accesses (read + write).
    pub fn accesses(&self) -> u64 {
        self.logical_reads + self.logical_writes
    }

    /// Fraction of read accesses served without a fault, in `[0, 1]`
    /// (`0` before any read). The observability headline of the shared
    /// buffer pool: parallel runs should hold this near the sequential
    /// figure instead of collapsing toward zero as workers multiply.
    pub fn read_hit_rate(&self) -> f64 {
        if self.logical_reads == 0 {
            0.0
        } else {
            self.read_hits as f64 / self.logical_reads as f64
        }
    }

    /// Component-wise difference `self - earlier`, for measuring a phase.
    pub fn since(&self, earlier: IoStats) -> IoStats {
        IoStats {
            logical_reads: self.logical_reads - earlier.logical_reads,
            read_hits: self.read_hits - earlier.read_hits,
            read_faults: self.read_faults - earlier.read_faults,
            prefetch_hits: self.prefetch_hits - earlier.prefetch_hits,
            logical_writes: self.logical_writes - earlier.logical_writes,
            write_faults: self.write_faults - earlier.write_faults,
        }
    }

    /// Component-wise sum — aggregates per-worker counters into the
    /// totals the paper reports for a whole join.
    pub fn merge(&mut self, other: IoStats) {
        self.logical_reads += other.logical_reads;
        self.read_hits += other.read_hits;
        self.read_faults += other.read_faults;
        self.prefetch_hits += other.prefetch_hits;
        self.logical_writes += other.logical_writes;
        self.write_faults += other.write_faults;
    }

    /// Counts one page read that the buffer served as `outcome`.
    pub(crate) fn count_read(&mut self, outcome: PoolRead) {
        self.logical_reads += 1;
        match outcome {
            PoolRead::Hit => self.read_hits += 1,
            PoolRead::PrefetchHit => {
                self.read_hits += 1;
                self.prefetch_hits += 1;
            }
            PoolRead::Fault => self.read_faults += 1,
        }
    }
}

/// Converts [`IoStats`] into simulated I/O time.
///
/// The paper charges 10 ms per page fault ("a typical value", citing
/// Silberschatz et al.); experiments report `faults × ms_per_fault` as I/O
/// time next to measured CPU time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Milliseconds charged per page fault.
    pub ms_per_fault: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { ms_per_fault: 10.0 }
    }
}

impl CostModel {
    /// Simulated I/O time in seconds for the given stats.
    pub fn io_seconds(&self, stats: &IoStats) -> f64 {
        stats.faults() as f64 * self.ms_per_fault / 1000.0
    }
}

/// Buffer-managed access to a [`DiskStorage`], with I/O accounting.
///
/// Both R-trees of a join live in **one** pager so they share the single
/// LRU buffer, exactly as in the paper ("the default size of the memory
/// buffer is 1% of the sum of both tree sizes").
///
/// The pager and the readers pinned on it ([`Pager::page_source`]) share
/// one page space: the device's. A pin copies no page. A write copies
/// only what a pinned reader still holds — a resident page
/// ([`MemDisk`](crate::MemDisk)), or, at [`Pager::begin_epoch`], the
/// page file.
pub struct Pager {
    disk: Box<dyn DiskStorage>,
    /// A page file another pager writes, holding the pages of this one
    /// ([`Pager::attach_store`]): what this pager's readers pin in place
    /// of the device.
    attached: Option<FileDisk>,
    /// The LRU buffer. The pager's own reads and writes count in it, and
    /// so does every [`PooledPager`](crate::PooledPager) pinned on
    /// [`Pager::pool`] — parallel workers and streams — so every access
    /// path replays one LRU. It stays warm across runs and is resized
    /// and emptied in place, so handles taken earlier keep accounting
    /// against the live budget.
    pool: BufferPool,
    stats: IoStats,
    /// Dataset version counter: bumped by [`Pager::begin_epoch`] before
    /// a mutation batch, so byte-owning frames read under the old epoch
    /// stay isolated from pages rewritten under the new one.
    epoch: u64,
    /// Write stamps: `stamps[i]` is the `write_clock` value of the last
    /// [`Pager::write`] to page `i` (`0`, or past the end: never written
    /// through this pager). See [`Pager::page_stamp`].
    stamps: Vec<u64>,
    /// Writes so far; only ever grows, so no two writes share a stamp.
    write_clock: u64,
}

impl Pager {
    /// Creates a pager over `disk` with a buffer of `buffer_pages` pages
    /// (clamped to at least 1).
    pub fn new<D: DiskStorage + 'static>(disk: D, buffer_pages: usize) -> Self {
        Pager {
            disk: Box::new(disk),
            attached: None,
            pool: BufferPool::new(buffer_pages),
            stats: IoStats::default(),
            epoch: 0,
            stamps: Vec::new(),
            write_clock: 0,
        }
    }

    /// Wraps this pager for shared ownership by several indexes.
    pub fn into_shared(self) -> SharedPager {
        Rc::new(RefCell::new(self))
    }

    /// Page size of the underlying device.
    pub fn page_size(&self) -> usize {
        self.disk.page_size()
    }

    /// Number of allocated pages on the device.
    pub fn num_pages(&self) -> u32 {
        self.disk.num_pages()
    }

    /// Allocates a fresh zeroed page.
    pub fn allocate(&mut self) -> PageId {
        self.disk.allocate()
    }

    /// Reads page `id` through the buffer and passes its bytes to `f`.
    ///
    /// A memory-resident device is read in place, and its page's frame
    /// only tracks recency. Any other device's page is served from its
    /// frame on a hit and read from the device into one on a fault.
    pub fn read<T>(&mut self, id: PageId, f: impl FnOnce(&[u8]) -> T) -> T {
        if let Some(bytes) = self.disk.resident_page(id) {
            self.stats
                .count_read(PoolRead::touched(self.pool.access(id)));
            return f(bytes);
        }
        let (bytes, outcome) = self.fetch(id);
        self.stats.count_read(outcome);
        f(&bytes)
    }

    /// The byte-owning frame of page `id` at the current epoch, read
    /// from the device on a fault.
    fn fetch(&mut self, id: PageId) -> (Arc<[u8]>, PoolRead) {
        let disk = &mut self.disk;
        self.pool.fetch(self.epoch, id, disk.page_size(), |buf| {
            disk.read_page(id, buf)
        })
    }

    /// Updates page `id` through `f` and writes it through to the device.
    ///
    /// Write-through keeps the device authoritative, so evictions never
    /// need a dirty-page flush — the join algorithms are read-only and the
    /// paper's measurements exclude index construction anyway. A page
    /// not in the buffer is a write fault; the written bytes refresh its
    /// frame.
    pub fn write(&mut self, id: PageId, f: impl FnOnce(&mut [u8])) {
        self.stats.logical_writes += 1;
        self.write_clock += 1;
        let slot = id.0 as usize;
        if self.stamps.len() <= slot {
            self.stamps.resize(slot + 1, 0);
        }
        self.stamps[slot] = self.write_clock;
        let resident = self.disk.resident_page(id).is_some();
        let (mut bytes, outcome) = if resident {
            let mut bytes = vec![0u8; self.disk.page_size()];
            self.disk.read_page(id, &mut bytes);
            (bytes, PoolRead::touched(self.pool.access(id)))
        } else {
            let (bytes, outcome) = self.fetch(id);
            (bytes.to_vec(), outcome)
        };
        if outcome == PoolRead::Fault {
            self.stats.write_faults += 1;
        }
        f(&mut bytes);
        self.disk.write_page(id, &bytes);
        if !resident {
            self.pool.refresh(self.epoch, id, bytes.into());
        }
    }

    /// The write stamp of page `id`: a value that changes every time
    /// [`Pager::write`] rewrites the page and at no other time. A reader
    /// that decoded the page when its stamp was `s` may keep the decoded
    /// form for as long as the stamp still reads `s`, without reading
    /// the page again. Stamps are not I/O: asking costs no logical read.
    ///
    /// The invariant holds because every change to a page's bytes goes
    /// through [`Pager::write`]: [`Pager::spill_to`],
    /// [`Pager::attach_store`] and [`Pager::begin_epoch`] move or
    /// version the bytes without changing them, and a page fresh from
    /// [`Pager::allocate`] reads as zeroes until its first write.
    pub fn page_stamp(&self, id: PageId) -> u64 {
        self.stamps.get(id.0 as usize).copied().unwrap_or(0)
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Adds externally accumulated statistics (per-worker counters from
    /// a parallel run) into this pager's totals, so `stats()` reports the
    /// same aggregate figures a sequential run would.
    pub fn absorb(&mut self, delta: IoStats) {
        self.stats.merge(delta);
    }

    /// The resident pages as they are now, for a reader that holds the
    /// view until it is done: the device's page table, shared, with no
    /// page copied and no buffer access or statistic counted. Later
    /// writes leave the view as it was (see
    /// [`PageSnapshot`](crate::PageSnapshot)).
    ///
    /// # Panics
    /// Panics if the pager is disk-native: its readers pin the page
    /// file instead ([`Pager::page_source`]).
    pub fn snapshot(&self) -> crate::PageSnapshot {
        match self.disk.pin() {
            PageSource::Resident(snapshot) => snapshot,
            PageSource::Store(_) => panic!("a disk-native pager has no resident snapshot"),
        }
    }

    /// Spills every allocated page to a page file at `path` and switches
    /// this pager's device to that file — from here on the pager is
    /// **disk-native**: sequential reads fault pages in from the file,
    /// write-through keeps the file authoritative, and
    /// [`Pager::page_source`] hands readers the file itself.
    ///
    /// Spilling to the path of the pager's own file is a no-op (the
    /// write-through discipline already keeps the file current —
    /// re-copying would truncate the very file the pager is reading
    /// from). Spilling to a new path re-copies and re-targets, and an
    /// *attached* pager asked to spill always copies: it holds current
    /// pages locally but never wrote the file, so when it is promoted
    /// to writer (the previous writer died) it must materialize its own
    /// page space — mutation batches may have made the file stale.
    pub fn spill_to<P: AsRef<Path>>(&mut self, path: P) -> std::io::Result<()> {
        let path = path.as_ref();
        if self.disk.file().is_some_and(|file| file.path() == path) {
            return Ok(());
        }
        self.spill(path, path)
    }

    /// Copies every page into a new page file at `path`, sized once, whose
    /// versions are named after `base`, and makes it the device.
    fn spill(&mut self, path: &Path, base: &Path) -> std::io::Result<()> {
        let page_size = self.disk.page_size();
        let mut file = FileDisk::sized(path, base, page_size, self.disk.num_pages())?;
        let mut buf = vec![0u8; page_size];
        for i in 0..file.num_pages() {
            let id = PageId(i);
            self.disk.read_page(id, &mut buf);
            file.write_page(id, &buf);
        }
        // The buffer keeps its contents across the move, as a buffer of
        // the file: its frames take the bytes of the pages they hold.
        let old = &mut self.disk;
        self.pool
            .own_bytes(self.epoch, page_size, |id, buf| old.read_page(id, buf));
        self.disk = Box::new(file);
        self.attached = None;
        Ok(())
    }

    /// Marks this pager disk-native over an **externally maintained**
    /// page file at `path`, without copying anything: its readers pin
    /// the file, read-only, in place of the pager's own pages. The
    /// caller guarantees the file holds byte-identical pages under the
    /// same page-id space as this pager's own device — the sharded
    /// server's replicas satisfy this by construction: every shard builds
    /// the same indexes in the same order, and shard 0 spills (and
    /// write-through maintains) the one file all replicas then read.
    ///
    /// # Errors
    /// Fails if the file cannot be opened, or its length is not a whole
    /// number of pages.
    pub fn attach_store<P: AsRef<Path>>(&mut self, path: P) -> std::io::Result<()> {
        self.attached = Some(FileDisk::attach(path.as_ref(), self.page_size())?);
        Ok(())
    }

    /// Drops an **attached** (non-owned) store, returning reads to this
    /// pager's own device; an owned store (or no store) is untouched and
    /// returns `false`. An attached file is maintained by its writer's
    /// write-through — the moment this pager mutates its *local* pages
    /// (a live-update batch) the file no longer speaks for them, and a
    /// dead writer would leave it stale forever, so updaters detach and
    /// serve resident from their own (current) page space.
    pub fn detach_unowned_store(&mut self) -> bool {
        self.attached.take().is_some()
    }

    /// Current dataset epoch: `0` until the first
    /// [`Pager::begin_epoch`], then one per mutation batch. Readers that
    /// pin a [`page_source`](Pager::page_source) tag the byte-owning
    /// frames they read with this value, so bytes read under different
    /// epochs never alias.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Opens a new epoch ahead of a mutation batch: bumps the epoch
    /// counter and drops the buffer's byte-owning frames of retired
    /// epochs, so page sources handed out *before* this call keep the
    /// old bytes while sources taken *after* the batch see the new page
    /// versions.
    ///
    /// A resident pager needs nothing more: its writes copy the pages a
    /// pinned reader holds. A disk-native pager's writes change its file
    /// in place, so while a reader still holds the file, the current
    /// page space is first copied to `<base>.e<N>` and the pager
    /// retargeted there; `<base>` is the path first spilled to. The
    /// previous epoch's file is unlinked (POSIX keeps it readable
    /// through open descriptors); the base file is never removed. With
    /// no reader holding the file, the batch writes it in place. An
    /// attached (externally maintained) store is never versioned — its
    /// replication protocol serializes readers and writers above this
    /// layer.
    ///
    /// # Panics
    /// Panics if the versioned page file cannot be written, matching
    /// [`Pager::spill_to`]'s callers.
    pub fn begin_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.pool.drop_epochs_before(self.epoch);
        let held = self.disk.file().filter(|file| file.is_shared());
        if let Some((prev, base)) =
            held.map(|file| (file.path().to_path_buf(), file.base().to_path_buf()))
        {
            let mut next = base.clone().into_os_string();
            next.push(format!(".e{}", self.epoch));
            let next = PathBuf::from(next);
            self.spill(&next, &base)
                .unwrap_or_else(|e| panic!("versioning page file to {}: {e}", next.display()));
            if prev != base {
                let _ = std::fs::remove_file(prev);
            }
        }
        self.epoch
    }

    /// The page file readers pin, if this pager is disk-native: an
    /// attached file, or the pager's own device.
    fn store(&self) -> Option<&FileDisk> {
        self.attached.as_ref().or_else(|| self.disk.file())
    }

    /// Path of the on-disk page file, if this pager is disk-native.
    pub fn store_path(&self) -> Option<&Path> {
        self.store().map(FileDisk::path)
    }

    /// A handle on the page file parallel runs read through, if this
    /// pager is disk-native. The handle shares the open file; while it
    /// is alive, [`Pager::begin_epoch`] moves the pager's own writes to
    /// a new file, so the handle keeps reading the pages as they were.
    pub fn page_store(&self) -> Option<FileDisk> {
        self.store().cloned()
    }

    /// The page source a reader pins: the shared page file when
    /// disk-native, else a resident [`PageSnapshot`](crate::PageSnapshot).
    /// Either way the source shares the pager's pages, copying none.
    pub fn page_source(&self) -> PageSource {
        match &self.attached {
            Some(file) => file.pin(),
            None => self.disk.pin(),
        }
    }

    /// The pager's buffer, for [`PooledPager`](crate::PooledPager)s to
    /// account through: a parallel run competes with the sequential one
    /// at the **same total budget**, in the same LRU, and hits pages
    /// earlier runs warmed.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Zeroes the statistics (e.g. after index construction, before the
    /// measured join phase).
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::default();
    }

    /// Resizes the LRU buffer (Figure 15 sweeps this) **in place**, so
    /// workers holding an old pool handle account against the live,
    /// re-budgeted buffer.
    pub fn set_buffer_capacity(&mut self, pages: usize) {
        self.pool.set_capacity(pages);
    }

    /// Current buffer capacity in pages.
    pub fn buffer_capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// Empties the buffer in place for a cold start without touching
    /// statistics.
    pub fn clear_buffer(&mut self) {
        self.pool.clear();
    }
}

/// Shared-ownership handle to a [`Pager`], letting two R-trees (and the
/// join operators walking both) go through one buffer pool.
///
/// This is the *sequential* access path, so `Rc<RefCell<_>>` suffices.
/// Parallel runs read the pages they pinned ([`Pager::page_source`])
/// through per-worker [`PooledPager`](crate::PooledPager)s instead;
/// both paths count in the pager's one [`BufferPool`] and meet in the
/// [`PageAccess`] trait.
pub type SharedPager = Rc<RefCell<Pager>>;

/// Object-safe read access to pages.
///
/// The join drivers are generic over this, so one implementation serves
/// both execution modes: the owning [`SharedPager`] for sequential runs
/// and a per-worker [`PooledPager`](crate::PooledPager) for parallel
/// runs. Every call counts as one logical read (and possibly one fault)
/// in the implementation's statistics.
pub trait PageAccess {
    /// Page size in bytes.
    fn page_size(&self) -> usize;

    /// Reads page `id`, counting the access, and hands its bytes to `f`
    /// exactly once.
    fn with_page(&mut self, id: PageId, f: &mut dyn FnMut(&[u8]));
}

/// Reads a page through a [`PageAccess`] and maps its bytes to a value —
/// the ergonomic (non-object-safe) wrapper over
/// [`PageAccess::with_page`].
pub fn read_page_as<T>(
    pg: &mut (impl PageAccess + ?Sized),
    id: PageId,
    f: impl FnOnce(&[u8]) -> T,
) -> T {
    let mut f = Some(f);
    let mut out = None;
    pg.with_page(id, &mut |bytes| {
        if let Some(f) = f.take() {
            out = Some(f(bytes));
        }
    });
    out.expect("PageAccess::with_page must invoke the callback")
}

impl PageAccess for Pager {
    fn page_size(&self) -> usize {
        self.disk.page_size()
    }

    fn with_page(&mut self, id: PageId, f: &mut dyn FnMut(&[u8])) {
        self.read(id, |bytes| f(bytes));
    }
}

impl PageAccess for SharedPager {
    fn page_size(&self) -> usize {
        self.borrow().page_size()
    }

    fn with_page(&mut self, id: PageId, f: &mut dyn FnMut(&[u8])) {
        self.borrow_mut().read(id, |bytes| f(bytes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{MemDisk, PageStore};

    /// A device that must be read (no resident pages) and counts reads.
    struct CountingDisk {
        inner: MemDisk,
        reads: Rc<std::cell::Cell<u32>>,
    }

    impl DiskStorage for CountingDisk {
        fn page_size(&self) -> usize {
            self.inner.page_size()
        }
        fn num_pages(&self) -> u32 {
            self.inner.num_pages()
        }
        fn allocate(&mut self) -> PageId {
            self.inner.allocate()
        }
        fn read_page(&mut self, id: PageId, buf: &mut [u8]) {
            self.reads.set(self.reads.get() + 1);
            self.inner.read_page(id, buf);
        }
        fn write_page(&mut self, id: PageId, buf: &[u8]) {
            self.inner.write_page(id, buf);
        }
        fn pin(&self) -> PageSource {
            self.inner.pin()
        }
    }

    #[test]
    fn hits_on_a_read_device_serve_frames_without_device_reads() {
        let reads = Rc::new(std::cell::Cell::new(0));
        let disk = CountingDisk {
            inner: MemDisk::new(128),
            reads: Rc::clone(&reads),
        };
        let mut p = Pager::new(disk, 4);
        let a = p.allocate();
        p.write(a, |b| b[0] = 1);
        assert_eq!(reads.get(), 1, "the first write faults the page in");
        // The write refreshed the frame: reads hit it, with new bytes.
        p.read(a, |b| assert_eq!(b[0], 1));
        p.write(a, |b| b[0] = 2);
        p.read(a, |b| assert_eq!(b[0], 2));
        assert_eq!(reads.get(), 1, "hits never read the device");
        assert_eq!(p.stats().read_faults, 0);
        assert_eq!(p.stats().write_faults, 1);
        // A new epoch drops the retired epoch's frames.
        p.begin_epoch();
        assert!(p.pool().is_empty());
        p.read(a, |b| assert_eq!(b[0], 2));
        assert_eq!(reads.get(), 2);
        assert_eq!(p.stats().read_faults, 1);
    }

    #[test]
    fn a_write_moves_only_its_own_page_stamp() {
        let dir = std::env::temp_dir().join(format!("ringjoin-stamps-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut p = Pager::new(MemDisk::new(128), 4);
        let (a, b) = (p.allocate(), p.allocate());
        assert_eq!((p.page_stamp(a), p.page_stamp(b)), (0, 0));
        p.write(a, |bytes| bytes[0] = 1);
        let stamp_a = p.page_stamp(a);
        assert_ne!(stamp_a, 0);
        assert_eq!(p.page_stamp(b), 0, "b was not written");
        // Reads, moves and epochs keep the bytes, so they keep the stamps.
        let reads = p.stats().logical_reads;
        p.read(a, |_| ());
        p.spill_to(dir.join("pages.rj")).unwrap();
        p.begin_epoch();
        assert_eq!(p.page_stamp(a), stamp_a);
        assert_eq!(p.stats().logical_reads, reads + 1, "asking is not a read");
        // Every write moves the stamp, even one that rewrites equal bytes.
        p.write(a, |bytes| bytes[0] = 1);
        assert!(p.page_stamp(a) > stamp_a);
        p.write(b, |_| ());
        assert!(p.page_stamp(b) > p.page_stamp(a));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_faults_then_hits() {
        let mut p = Pager::new(MemDisk::new(128), 4);
        let a = p.allocate();
        p.read(a, |_| ());
        p.read(a, |_| ());
        p.read(a, |_| ());
        let s = p.stats();
        assert_eq!(s.logical_reads, 3);
        assert_eq!(s.read_faults, 1);
    }

    #[test]
    fn write_through_persists_across_eviction() {
        let mut p = Pager::new(MemDisk::new(128), 1);
        let a = p.allocate();
        let b = p.allocate();
        p.write(a, |bytes| bytes[7] = 99);
        p.read(b, |_| ()); // evicts a
        p.read(a, |bytes| assert_eq!(bytes[7], 99)); // must come from disk
        let s = p.stats();
        assert_eq!(s.read_faults, 2);
        // The write path stages the page from the device before mutating,
        // so the first touch of a page via write() is a write fault.
        assert_eq!(s.write_faults, 1);
    }

    #[test]
    fn write_to_uncached_page_counts_write_fault() {
        let mut p = Pager::new(MemDisk::new(128), 1);
        let a = p.allocate();
        let b = p.allocate();
        p.write(a, |bytes| bytes[0] = 1);
        p.write(b, |bytes| bytes[0] = 2); // evicts a
        p.write(a, |bytes| bytes[1] = 3); // a no longer cached -> write fault
        let s = p.stats();
        assert_eq!(s.logical_writes, 3);
        assert_eq!(s.write_faults, 3);
        // Partial update preserved earlier write-through content.
        p.read(a, |bytes| {
            assert_eq!(bytes[0], 1);
            assert_eq!(bytes[1], 3);
        });
    }

    #[test]
    fn stats_since_and_reset() {
        let mut p = Pager::new(MemDisk::new(128), 2);
        let a = p.allocate();
        p.read(a, |_| ());
        let before = p.stats();
        p.read(a, |_| ());
        let delta = p.stats().since(before);
        assert_eq!(delta.logical_reads, 1);
        assert_eq!(delta.read_faults, 0);
        p.reset_stats();
        assert_eq!(p.stats(), IoStats::default());
    }

    #[test]
    fn cost_model_default_is_ten_ms() {
        let stats = IoStats {
            read_faults: 100,
            write_faults: 50,
            ..Default::default()
        };
        assert_eq!(CostModel::default().io_seconds(&stats), 1.5);
    }

    #[test]
    fn buffer_resize_affects_fault_rate() {
        let mut p = Pager::new(MemDisk::new(128), 8);
        let pages: Vec<_> = (0..8).map(|_| p.allocate()).collect();
        // Warm all 8 in an 8-page buffer: 8 faults, then loops are free.
        for _ in 0..3 {
            for &id in &pages {
                p.read(id, |_| ());
            }
        }
        assert_eq!(p.stats().read_faults, 8);
        // Shrink to 4: cyclic scanning now faults every access.
        p.set_buffer_capacity(4);
        p.reset_stats();
        for _ in 0..2 {
            for &id in &pages {
                p.read(id, |_| ());
            }
        }
        assert_eq!(p.stats().read_faults, 16);
    }

    #[test]
    fn clear_buffer_forces_cold_reads() {
        let mut p = Pager::new(MemDisk::new(128), 4);
        let a = p.allocate();
        p.read(a, |_| ());
        p.clear_buffer();
        p.read(a, |_| ());
        assert_eq!(p.stats().read_faults, 2);
    }

    #[test]
    fn resize_reaches_workers_holding_an_old_pool_handle() {
        // Regression: set_buffer_capacity used to *replace* the shared
        // pool, so a worker handle taken before the resize kept
        // accounting against a dead pool at the stale budget.
        let mut p = Pager::new(MemDisk::new(128), 8);
        for _ in 0..8 {
            p.allocate();
        }
        let old_handle = p.pool().clone();
        p.set_buffer_capacity(2);
        assert!(
            old_handle.shares_frames(p.pool()),
            "resize must keep outstanding handles on the live pool"
        );
        assert_eq!(old_handle.capacity(), 2, "old handle sees the new budget");
        // The old handle evicts at the new budget: a cyclic scan of 8
        // pages through 2 frames cannot accumulate 8 residents.
        for i in 0..8u32 {
            old_handle.access(PageId(i));
        }
        for i in 0..8u32 {
            old_handle.access(PageId(i));
        }
        assert!(
            old_handle.len() <= 2,
            "old handle must evict at the resized budget, not the stale one"
        );
    }

    #[test]
    fn spill_to_makes_the_pager_disk_native() {
        let dir = std::env::temp_dir().join(format!("ringjoin-spill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.rj");

        let mut p = Pager::new(MemDisk::new(128), 2);
        let ids: Vec<_> = (0..6).map(|_| p.allocate()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.write(id, |b| b[0] = i as u8 + 1);
        }
        assert!(p.page_store().is_none(), "memory-resident before the spill");
        p.spill_to(&path).unwrap();
        assert_eq!(p.store_path(), Some(path.as_path()));

        // The buffer keeps its contents across the spill: the two pages
        // written last are still resident, now with their bytes.
        p.reset_stats();
        p.read(ids[5], |b| assert_eq!(b[0], 6));
        p.read(ids[4], |b| assert_eq!(b[0], 5));
        assert_eq!(p.stats().read_hits, 2);

        // Sequential reads now come from the file, faulting under the
        // 2-page buffer, with the same bytes.
        p.clear_buffer();
        p.reset_stats();
        for (i, &id) in ids.iter().enumerate() {
            p.read(id, |b| assert_eq!(b[0], i as u8 + 1));
        }
        assert_eq!(p.stats().read_faults, 6);

        // Parallel runs get a store-backed source over the same file.
        let PageSource::Store(store) = p.page_source() else {
            panic!("a spilled pager hands out its page store");
        };
        let mut buf = vec![0u8; 128];
        store.read_into(ids[3], &mut buf);
        assert_eq!(buf[0], 4);

        // Write-through keeps the file authoritative: a later write is
        // visible through a fresh handle.
        p.write(ids[0], |b| b[0] = 42);
        let store = p.page_store().unwrap();
        store.read_into(ids[0], &mut buf);
        assert_eq!(buf[0], 42);

        // Re-spilling to the same path must not truncate the live file.
        p.spill_to(&path).unwrap();
        p.read(ids[0], |b| assert_eq!(b[0], 42));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn begin_epoch_isolates_pinned_snapshots() {
        let mut p = Pager::new(MemDisk::new(128), 4);
        let a = p.allocate();
        p.write(a, |b| b[0] = 1);
        assert_eq!(p.epoch(), 0);
        let old = p.snapshot();
        assert_eq!(p.begin_epoch(), 1);
        p.write(a, |b| b[0] = 2);
        let new = p.snapshot();
        assert!(!old.shares_pages(&new), "epoch bump invalidates the cache");
        assert_eq!(old.page(a)[0], 1, "pinned snapshot keeps the old bytes");
        assert_eq!(new.page(a)[0], 2);
    }

    #[test]
    fn begin_epoch_versions_an_owned_store_file() {
        let dir = std::env::temp_dir().join(format!("ringjoin-epoch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("pages.rj");

        let mut p = Pager::new(MemDisk::new(128), 4);
        let a = p.allocate();
        p.write(a, |b| b[0] = 1);
        p.spill_to(&base).unwrap();

        // Pin a reader on epoch 0, then mutate under epoch 1.
        let old_store = p.page_store().unwrap();
        p.begin_epoch();
        assert_eq!(p.store_path(), Some(dir.join("pages.rj.e1").as_path()));
        p.write(a, |b| b[0] = 2);

        let mut buf = vec![0u8; 128];
        old_store.read_into(a, &mut buf);
        assert_eq!(buf[0], 1, "pinned store keeps reading the old file");
        let new_store = p.page_store().unwrap();
        new_store.read_into(a, &mut buf);
        assert_eq!(buf[0], 2);
        assert!(base.exists(), "the original spill path is never removed");

        // The next epoch chains off the base name and unlinks the
        // retired intermediate (open descriptors keep it readable).
        p.begin_epoch();
        assert_eq!(p.store_path(), Some(dir.join("pages.rj.e2").as_path()));
        assert!(!dir.join("pages.rj.e1").exists());
        old_store.read_into(a, &mut buf);
        assert_eq!(buf[0], 1, "unlinked file stays readable through the pin");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn attached_stores_are_never_versioned() {
        let dir = std::env::temp_dir().join(format!("ringjoin-attach-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("pages.rj");

        let mut writer = Pager::new(MemDisk::new(128), 4);
        let a = writer.allocate();
        writer.write(a, |b| b[0] = 7);
        writer.spill_to(&base).unwrap();

        let mut replica = Pager::new(MemDisk::new(128), 4);
        let ra = replica.allocate();
        replica.write(ra, |b| b[0] = 7);
        replica.attach_store(&base).unwrap();
        replica.begin_epoch();
        assert_eq!(
            replica.store_path(),
            Some(base.as_path()),
            "an attached store keeps pointing at the shared file"
        );
        assert_eq!(replica.epoch(), 1);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn begin_epoch_writes_an_unheld_file_in_place() {
        let dir = std::env::temp_dir().join(format!("ringjoin-inplace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("pages.rj");

        let mut p = Pager::new(MemDisk::new(128), 4);
        let a = p.allocate();
        p.spill_to(&base).unwrap();
        // A reader that has come and gone leaves nothing to version.
        drop(p.page_source());
        p.begin_epoch();
        p.write(a, |b| b[0] = 5);
        assert_eq!(p.store_path(), Some(base.as_path()));
        assert!(!dir.join("pages.rj.e1").exists());
        let mut buf = vec![0u8; 128];
        p.page_store().unwrap().read_into(a, &mut buf);
        assert_eq!(buf[0], 5);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_store_handle_taken_after_growth_reads_the_new_pages() {
        let dir = std::env::temp_dir().join(format!("ringjoin-grow-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.rj");

        let mut p = Pager::new(MemDisk::new(128), 4);
        p.allocate();
        p.spill_to(&path).unwrap();
        assert_eq!(p.page_store().unwrap().num_pages(), 1);
        let b = p.allocate();
        p.write(b, |bytes| bytes[0] = 9);
        let store = p.page_store().unwrap();
        assert_eq!(store.num_pages(), 2, "the handle counts the new page");
        let mut buf = vec![0u8; 128];
        store.read_into(b, &mut buf);
        assert_eq!(buf[0], 9);

        std::fs::remove_dir_all(&dir).ok();
    }
}
