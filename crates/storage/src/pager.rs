//! The pager: buffer-managed page access with the paper's I/O accounting.

use crate::buffer_pool::{BufferPool, PoolRead, PooledPager};
use crate::disk::{Device, FileDisk, MemDisk, PageId};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;

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

/// Buffer-managed access to a page device, with I/O accounting.
///
/// Both R-trees of a join live in **one** pager so they share the single
/// LRU buffer, exactly as in the paper ("the default size of the memory
/// buffer is 1% of the sum of both tree sizes").
///
/// The pager reads and writes for index maintenance: bulk loads,
/// inserts, deletes and the trees' own searches. Joins read through
/// [`PooledPager`]s pinned on it ([`Pager::reader`]), and the caller
/// absorbs their counters ([`Pager::absorb`]).
///
/// The pager and its pinned readers share one page space: the
/// device's. The pager starts on a resident [`MemDisk`], and
/// [`Pager::spill_to`] moves it to a [`FileDisk`] page file of its own:
/// the pager is the file's only writer, and only the readers pinned on
/// the pager read it. A pin is a clone of the device and copies no
/// page. A write copies only what a pinned reader still holds — a
/// resident page, or, at [`Pager::begin_epoch`], the page file.
pub struct Pager {
    /// The pager's own reader, over its live device, and so the one
    /// home of the LRU buffer, the counters and the epoch. Readers
    /// pinned on the pager count in the same buffer unless given
    /// another, so every access path replays one LRU; the buffer is
    /// resized and emptied in place, so handles taken earlier keep
    /// accounting against the live budget. [`Pager::begin_epoch`] bumps
    /// the epoch before a mutation batch, so byte-owning frames read
    /// under the old epoch stay isolated from pages rewritten under the
    /// new one.
    own: PooledPager,
    /// Write stamps: `stamps[i]` is the `write_clock` value of the last
    /// [`Pager::write`] to page `i` (`0`, or past the end: never written
    /// through this pager). See [`Pager::page_stamp`].
    stamps: Vec<u64>,
    /// Writes so far; only ever grows, so no two writes share a stamp.
    write_clock: u64,
}

impl Pager {
    /// Creates a pager over the empty device `disk` with a buffer of
    /// `buffer_pages` pages (clamped to at least 1).
    ///
    /// # Panics
    /// Panics if `disk` holds pages: every page of a pager is allocated
    /// through it, so one it never wrote is a zero page
    /// ([`Pager::write`] relies on that).
    pub fn new(disk: MemDisk, buffer_pages: usize) -> Self {
        assert_eq!(disk.num_pages(), 0, "a pager starts on an empty device");
        Pager {
            own: PooledPager::new(Device::Mem(disk), BufferPool::new(buffer_pages), 0),
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
        self.own.device.page_size()
    }

    /// Number of allocated pages on the device.
    pub fn num_pages(&self) -> u32 {
        self.own.device.num_pages()
    }

    /// Allocates a fresh zeroed page.
    pub fn allocate(&mut self) -> PageId {
        self.own.device.allocate()
    }

    /// Reads page `id` through the buffer and passes its bytes to `f`,
    /// exactly as a reader pinned on the pager now would
    /// ([`PooledPager::read`]).
    pub fn read<T>(&mut self, id: PageId, f: impl FnOnce(&[u8]) -> T) -> T {
        self.own.read(id, f)
    }

    /// Updates page `id` through `f` and writes it through to the device.
    ///
    /// Write-through keeps the device authoritative, so evictions never
    /// need a dirty-page flush — the join algorithms are read-only and the
    /// paper's measurements exclude index construction anyway. A page
    /// not in the buffer is a write fault; on a page file the written
    /// bytes refresh its frame. A page never written before is the zero
    /// page it was allocated as, and is not read from the file.
    pub fn write(&mut self, id: PageId, f: impl FnOnce(&mut [u8])) {
        let fresh = self.page_stamp(id) == 0;
        self.write_clock += 1;
        let slot = id.0 as usize;
        if self.stamps.len() <= slot {
            self.stamps.resize(slot + 1, 0);
        }
        self.stamps[slot] = self.write_clock;
        let own = &mut self.own;
        own.stats.logical_writes += 1;
        let (mut bytes, outcome) = match &own.device {
            Device::Mem(disk) => (
                disk.page(id).to_vec(),
                PoolRead::touched(own.pool.access(id)),
            ),
            Device::File(file) => {
                let (bytes, outcome) = own.pool.fetch(own.epoch, id, file.page_size(), |buf| {
                    if !fresh {
                        file.read_into(id, buf)
                    }
                });
                (bytes.to_vec(), outcome)
            }
        };
        if outcome == PoolRead::Fault {
            own.stats.write_faults += 1;
        }
        f(&mut bytes);
        match &mut own.device {
            Device::Mem(disk) => disk.write_page(id, &bytes),
            Device::File(file) => {
                file.write_page(id, &bytes);
                own.pool.refresh(own.epoch, id, bytes.into());
            }
        }
    }

    /// The write stamp of page `id`: a value that changes every time
    /// [`Pager::write`] rewrites the page and at no other time. A reader
    /// that decoded the page when its stamp was `s` may keep the decoded
    /// form for as long as the stamp still reads `s`, without reading
    /// the page again. Stamps are not I/O: asking costs no logical read.
    ///
    /// The invariant holds because every change to a page's bytes goes
    /// through [`Pager::write`]: [`Pager::spill_to`] and
    /// [`Pager::begin_epoch`] move or version the bytes without changing
    /// them, and a page fresh from [`Pager::allocate`] reads as zeroes
    /// until its first write.
    pub fn page_stamp(&self, id: PageId) -> u64 {
        self.stamps.get(id.0 as usize).copied().unwrap_or(0)
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> IoStats {
        self.own.stats
    }

    /// Adds externally accumulated statistics (per-worker counters from
    /// a parallel run) into this pager's totals, so `stats()` reports the
    /// same aggregate figures a sequential run would.
    pub fn absorb(&mut self, delta: IoStats) {
        self.own.stats.merge(delta);
    }

    /// Spills every allocated page to a page file at `path` and switches
    /// this pager's device to that file — from here on the pager is
    /// **disk-native**: its own reads fault pages in from the file,
    /// write-through keeps the file authoritative, and
    /// [`Pager::reader`] hands readers the file itself.
    ///
    /// Spilling to the path of the pager's own file, or to the path it
    /// first spilled to, is a no-op: the write-through discipline
    /// already keeps the file current, and re-copying would truncate
    /// the very file the pager reads from, or the base file that
    /// readers pinned before a [`Pager::begin_epoch`] still read.
    /// Spilling to a new path re-copies and re-targets.
    pub fn spill_to<P: AsRef<Path>>(&mut self, path: P) -> std::io::Result<()> {
        let path = path.as_ref();
        match &self.own.device {
            Device::File(file) if file.path() == path || file.base() == path => Ok(()),
            _ => self.spill(path, path),
        }
    }

    /// Copies every page into a new page file at `path`, sized once, whose
    /// versions are named after `base`, and makes it the device.
    fn spill(&mut self, path: &Path, base: &Path) -> std::io::Result<()> {
        let own = &mut self.own;
        let page_size = own.device.page_size();
        let mut file = FileDisk::sized(path, base, page_size, own.device.num_pages())?;
        let mut buf = vec![0u8; page_size];
        for i in 0..file.num_pages() {
            let id = PageId(i);
            own.device.read_into(id, &mut buf);
            file.write_page(id, &buf);
        }
        // The buffer keeps its contents across the move, as a buffer of
        // the file: its frames take the bytes of the pages they hold.
        let old = &own.device;
        own.pool
            .own_bytes(own.epoch, page_size, |id, buf| old.read_into(id, buf));
        own.device = Device::File(file);
        Ok(())
    }

    /// Opens a new epoch ahead of a mutation batch: bumps the epoch
    /// counter and drops the buffer's byte-owning frames of retired
    /// epochs, so readers pinned *before* this call keep the old bytes
    /// while readers pinned *after* the batch see the new page versions.
    ///
    /// A resident pager needs nothing more: its writes copy the pages a
    /// pinned reader holds. A disk-native pager's writes change its file
    /// in place, so while a reader still holds the file, the current
    /// page space is first copied to `<base>.e<N>` and the pager
    /// retargeted there; `<base>` is the path first spilled to. The
    /// previous epoch's file is unlinked (POSIX keeps it readable
    /// through open descriptors); the base file is never removed. With
    /// no reader holding the file, the batch writes it in place.
    ///
    /// # Panics
    /// Panics if the versioned page file cannot be written.
    pub fn begin_epoch(&mut self) -> u64 {
        self.own.epoch += 1;
        let epoch = self.own.epoch;
        self.own.pool.drop_epochs_before(epoch);
        if let Device::File(file) = &self.own.device {
            if file.is_shared() {
                let (prev, base) = (file.path().to_path_buf(), file.base().to_path_buf());
                let mut next = base.clone().into_os_string();
                next.push(format!(".e{epoch}"));
                let next = PathBuf::from(next);
                self.spill(&next, &base)
                    .unwrap_or_else(|e| panic!("versioning page file to {}: {e}", next.display()));
                if prev != base {
                    let _ = std::fs::remove_file(prev);
                }
            }
        }
        epoch
    }

    /// A reader of the pages as they are now, at the current epoch,
    /// counting in `pool`, or in the pager's own buffer when `None`.
    /// The reader holds a clone of the device: the resident page table,
    /// or the page file, shared and not copied. A resident pin keeps its
    /// bytes whatever the pager writes later. While a pinned page file
    /// is alive, [`Pager::begin_epoch`] moves the pager's own writes to
    /// a new file, so the pin keeps reading the pages as they were.
    pub fn reader(&self, pool: Option<&BufferPool>) -> PooledPager {
        let own = &self.own;
        PooledPager::new(
            own.device.clone(),
            pool.unwrap_or(&own.pool).clone(),
            own.epoch,
        )
    }

    /// The pager's buffer, which every join reader competes in with
    /// index maintenance at the **same total budget**, in the same LRU,
    /// hitting pages earlier runs warmed.
    pub fn pool(&self) -> &BufferPool {
        &self.own.pool
    }

    /// Zeroes the statistics (e.g. after index construction, before the
    /// measured join phase).
    pub fn reset_stats(&mut self) {
        self.own.stats = IoStats::default();
    }

    /// Resizes the LRU buffer (Figure 15 sweeps this) **in place**, so
    /// workers holding an old pool handle account against the live,
    /// re-budgeted buffer.
    pub fn set_buffer_capacity(&mut self, pages: usize) {
        self.own.pool.set_capacity(pages);
    }

    /// Current buffer capacity in pages.
    pub fn buffer_capacity(&self) -> usize {
        self.own.pool.capacity()
    }

    /// Empties the buffer in place for a cold start without touching
    /// statistics.
    pub fn clear_buffer(&mut self) {
        self.own.pool.clear();
    }
}

/// Shared-ownership handle to a [`Pager`], letting two R-trees (and the
/// join operators walking both) go through one buffer pool.
///
/// Index maintenance borrows the pager through it; a join borrows it
/// only to pin its readers ([`PooledPager`](crate::PooledPager)) and to
/// absorb their counters, so `Rc<RefCell<_>>` suffices.
pub type SharedPager = Rc<RefCell<Pager>>;

#[cfg(test)]
mod tests {
    use super::*;

    /// The page file a reader pinned now reads, if the pager is
    /// disk-native.
    fn pinned_file(p: &Pager) -> Option<FileDisk> {
        match p.reader(None).device {
            Device::File(file) => Some(file),
            Device::Mem(_) => None,
        }
    }

    /// Overwrites page `id` of the file at `path` with `byte`, behind
    /// the back of the pager that owns it.
    fn tamper(path: &Path, id: PageId, byte: u8) {
        use std::io::{Seek, SeekFrom, Write};
        let mut file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        file.seek(SeekFrom::Start(id.0 as u64 * 128)).unwrap();
        file.write_all(&[byte; 128]).unwrap();
    }

    #[test]
    fn a_fresh_page_is_written_without_a_read_and_hits_serve_frames() {
        let dir = ringjoin_testsupport::scratch_dir("pager-fresh");
        let path = dir.join("pages.rj");
        let mut p = Pager::new(MemDisk::new(128), 4);
        let a = p.allocate();
        p.spill_to(&path).unwrap();
        // A page never written is the zero page: the write does not read
        // the file, yet the access is a write fault, as the page has no
        // frame.
        tamper(&path, a, 7);
        p.write(a, |b| {
            assert!(b.iter().all(|&x| x == 0), "the write read the file");
            b[0] = 1;
        });
        assert_eq!(p.stats().write_faults, 1);
        // The write refreshed the frame: reads and writes hit it, with
        // the written bytes, and never read the file.
        tamper(&path, a, 9);
        p.read(a, |b| assert_eq!(b[..2], [1, 0]));
        p.write(a, |b| {
            assert_eq!(b[..2], [1, 0]);
            b[0] = 2;
        });
        p.read(a, |b| assert_eq!(b[..2], [2, 0]));
        assert_eq!(p.stats().read_faults, 0);
        assert_eq!(p.stats().write_faults, 1);
        // A new epoch drops the retired epoch's frames: the next read
        // faults, and reads the file.
        tamper(&path, a, 9);
        p.begin_epoch();
        assert!(p.pool().is_empty());
        p.read(a, |b| assert_eq!(b[0], 9));
        assert_eq!(p.stats().read_faults, 1);
        std::fs::remove_dir_all(&dir).ok();
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
        assert!(
            pinned_file(&p).is_none(),
            "memory-resident before the spill"
        );
        p.spill_to(&path).unwrap();
        assert_eq!(pinned_file(&p).unwrap().path(), path.as_path());

        // The buffer keeps its contents across the spill: the two pages
        // written last are still resident, now with their bytes.
        p.reset_stats();
        p.read(ids[5], |b| assert_eq!(b[0], 6));
        p.read(ids[4], |b| assert_eq!(b[0], 5));
        assert_eq!(p.stats().read_hits, 2);

        // The pager's reads now come from the file, faulting under the
        // 2-page buffer, with the same bytes.
        p.clear_buffer();
        p.reset_stats();
        for (i, &id) in ids.iter().enumerate() {
            p.read(id, |b| assert_eq!(b[0], i as u8 + 1));
        }
        assert_eq!(p.stats().read_faults, 6);

        // Readers pin the same file.
        let store = pinned_file(&p).unwrap();
        let mut buf = vec![0u8; 128];
        store.read_into(ids[3], &mut buf);
        assert_eq!(buf[0], 4);

        // Write-through keeps the file authoritative: a later write is
        // visible through a fresh handle, and a pager's own page file
        // stays pinned through its writes.
        p.write(ids[0], |b| b[0] = 42);
        let store = pinned_file(&p).unwrap();
        assert_eq!(store.path(), path.as_path());
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
        let mut old = p.reader(None);
        assert_eq!(p.begin_epoch(), 1);
        p.write(a, |b| b[0] = 2);
        let mut new = p.reader(None);
        assert_eq!((old.epoch, new.epoch), (0, 1));
        assert_eq!(
            old.read(a, |b| b[0]),
            1,
            "pinned snapshot keeps the old bytes"
        );
        assert_eq!(new.read(a, |b| b[0]), 2);
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
        let old_store = pinned_file(&p).unwrap();
        p.begin_epoch();
        assert_eq!(pinned_file(&p).unwrap().path(), dir.join("pages.rj.e1"));
        p.write(a, |b| b[0] = 2);

        let mut buf = vec![0u8; 128];
        old_store.read_into(a, &mut buf);
        assert_eq!(buf[0], 1, "pinned store keeps reading the old file");
        let new_store = pinned_file(&p).unwrap();
        new_store.read_into(a, &mut buf);
        assert_eq!(buf[0], 2);
        assert!(base.exists(), "the original spill path is never removed");

        // The next epoch chains off the base name and unlinks the
        // retired intermediate (open descriptors keep it readable).
        p.begin_epoch();
        assert_eq!(pinned_file(&p).unwrap().path(), dir.join("pages.rj.e2"));
        assert!(!dir.join("pages.rj.e1").exists());
        old_store.read_into(a, &mut buf);
        assert_eq!(buf[0], 1, "unlinked file stays readable through the pin");

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
        drop(p.reader(None));
        p.begin_epoch();
        p.write(a, |b| b[0] = 5);
        assert_eq!(pinned_file(&p).unwrap().path(), base.as_path());
        assert!(!dir.join("pages.rj.e1").exists());
        let mut buf = vec![0u8; 128];
        pinned_file(&p).unwrap().read_into(a, &mut buf);
        assert_eq!(buf[0], 5);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn re_spilling_to_the_base_path_leaves_pinned_readers_their_file() {
        let dir = std::env::temp_dir().join(format!("ringjoin-respill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("pages.rj");

        let mut p = Pager::new(MemDisk::new(128), 4);
        let a = p.allocate();
        p.spill_to(&base).unwrap();
        p.write(a, |b| b[0] = 1);
        // A reader pinned at 1 holds the base file, so the next epoch
        // moves the pager's writes to `pages.rj.e1`.
        let mut old = p.reader(None);
        p.begin_epoch();
        p.write(a, |b| b[0] = 2);
        // A LOAD spills to the path its worker was started with.
        p.spill_to(&base).unwrap();
        p.clear_buffer();
        assert_eq!(
            old.read(a, |b| b[0]),
            1,
            "the pinned reader's base file was rewritten"
        );
        assert_eq!(p.read(a, |b| b[0]), 2);
        assert_eq!(pinned_file(&p).unwrap().path(), dir.join("pages.rj.e1"));

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
        assert_eq!(pinned_file(&p).unwrap().num_pages(), 1);
        let b = p.allocate();
        p.write(b, |bytes| bytes[0] = 9);
        let store = pinned_file(&p).unwrap();
        assert_eq!(store.num_pages(), 2, "the handle counts the new page");
        let mut buf = vec![0u8; 128];
        store.read_into(b, &mut buf);
        assert_eq!(buf[0], 9);

        std::fs::remove_dir_all(&dir).ok();
    }
}
