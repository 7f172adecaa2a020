//! The buffer pool: one exact-LRU page cache behind every read path.
//!
//! The paper charges every join against one LRU buffer (Section 5:
//! 1 KB pages, a buffer of 1% of both trees by default). A
//! [`BufferPool`] is that buffer. Each [`Pager`](crate::Pager) owns one,
//! and everything that reads the pager's pages counts its hits and
//! faults there: the pager's own reads and writes (index maintenance)
//! and every [`PooledPager`] pinned on it (every join reader: the
//! sequential and parallel executors, streams, server shard replicas,
//! the leaf walk). A run's counts are those of one LRU.
//!
//! One mutex guards a frame arena threaded on an intrusive
//! doubly-linked recency list, plus a hash map from key to frame: a hit,
//! a fault and an eviction are each O(1), and the arena stops allocating
//! once it is full. Frames are of two kinds:
//!
//! * **Recency-only**, keyed by page. The bytes live elsewhere (a
//!   memory-resident [`MemDisk`](crate::MemDisk), or a reader's clone
//!   of it), and a fault means "under this budget the access would have
//!   gone to the device". The key carries no epoch: a page rewritten by a mutation
//!   batch keeps its frame, so a resident dataset's pool never outgrows
//!   its page count, however many epochs it lives through.
//! * **Byte-owning**, keyed by `(epoch, page)`. A fault reads the page
//!   from a page file ([`FileDisk`]) into the frame, and a hit serves
//!   the frame's bytes. The epoch keeps bytes read under a retired
//!   epoch away from readers of the current one;
//!   [`Pager::begin_epoch`](crate::Pager::begin_epoch) drops them.
//!   Readers pin bytes by cloning the frame's `Arc<[u8]>` under the
//!   lock, so eviction never invalidates an outstanding read and no lock
//!   is held across a callback (callbacks re-enter the pool: probe
//!   expansion nests page reads).
//!
//! A background [`Prefetcher`] can stage store pages into frames ahead
//! of the readers; an access that finds its page resident only because
//! the prefetcher staged it counts as a *prefetch hit* (a subset of
//! hits), surfaced separately in [`IoStats`].

use crate::disk::{Device, FileDisk, PageId};
use crate::pager::IoStats;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// End of the recency list.
const NIL: usize = usize::MAX;

/// Frame key: the page, qualified by the epoch its bytes were read
/// under for a byte-owning frame (`None` for a recency-only frame).
type FrameKey = (Option<u64>, PageId);

/// One frame of the arena with its recency-list links.
struct Frame {
    key: FrameKey,
    /// The page bytes; `Some` exactly for byte-owning frames.
    data: Option<Arc<[u8]>>,
    /// Staged by the prefetcher and not yet claimed by a reader: the
    /// next hit is a prefetch hit.
    prefetched: bool,
    prev: usize,
    next: usize,
}

/// Everything behind the pool's one lock.
struct Lru {
    capacity: usize,
    /// Grows lazily to the most frames ever resident at once; freed
    /// frames are reused, so huge capacities allocate nothing up front.
    frames: Vec<Frame>,
    map: HashMap<FrameKey, usize>,
    /// Most recently used frame.
    head: usize,
    /// Least recently used frame.
    tail: usize,
    free: Vec<usize>,
    hits: u64,
    faults: u64,
    prefetch_hits: u64,
}

impl Lru {
    /// The frame of `key`, promoted to most recently used.
    fn get(&mut self, key: FrameKey) -> Option<&mut Frame> {
        let idx = *self.map.get(&key)?;
        self.touch(idx);
        Some(&mut self.frames[idx])
    }

    /// Makes `key` the most recently used frame, holding `data`, and
    /// evicts the least recently used frame if that overfills the
    /// arena. A key already framed (a racing reader or the prefetcher
    /// got there first, or a write refreshes it) is updated in place.
    fn put(&mut self, key: FrameKey, data: Option<Arc<[u8]>>, prefetched: bool) {
        if let Some(frame) = self.get(key) {
            if data.is_some() {
                frame.data = data;
                frame.prefetched = prefetched;
            }
            return;
        }
        if self.map.len() >= self.capacity {
            self.remove(self.tail);
        }
        let frame = Frame {
            key,
            data,
            prefetched,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.frames[idx] = frame;
                idx
            }
            None => {
                self.frames.push(frame);
                self.frames.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    /// Frees frame `idx`, dropping the pool's reference to its bytes
    /// (readers holding a cloned `Arc` keep reading valid data).
    fn remove(&mut self, idx: usize) {
        self.map.remove(&self.frames[idx].key);
        self.unlink(idx);
        self.frames[idx].data = None;
        self.free.push(idx);
    }

    fn shrink_to_capacity(&mut self) {
        while self.map.len() > self.capacity {
            self.remove(self.tail);
        }
    }

    fn touch(&mut self, idx: usize) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.frames[idx].prev, self.frames[idx].next);
        if prev != NIL {
            self.frames[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.frames[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.frames[idx].prev = NIL;
        self.frames[idx].next = self.head;
        if self.head != NIL {
            self.frames[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// How a byte-owning read ([`BufferPool::load`]) was satisfied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PoolRead {
    /// The page was resident and a reader already claimed it before.
    Hit,
    /// The page was resident *because the prefetcher staged it* — still
    /// a hit, counted separately.
    PrefetchHit,
    /// The page was read into a frame.
    Fault,
}

impl PoolRead {
    /// The outcome of a recency-only access that hit or missed.
    pub(crate) fn touched(hit: bool) -> PoolRead {
        if hit {
            PoolRead::Hit
        } else {
            PoolRead::Fault
        }
    }
}

/// A shared exact-LRU page cache (see the module docs).
///
/// Cloning is cheap (an `Arc` bump); all clones address the same frames
/// and counters, and the pool is `Send + Sync`, so one pool can back any
/// number of concurrent [`PooledPager`]s.
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<Mutex<Lru>>,
}

impl BufferPool {
    /// A pool of `capacity` frames, clamped to at least 1 (a zero-page
    /// buffer would make every access a fault *and* leave nowhere to
    /// stage a page).
    pub fn new(capacity: usize) -> BufferPool {
        BufferPool {
            inner: Arc::new(Mutex::new(Lru {
                capacity: capacity.max(1),
                frames: Vec::new(),
                map: HashMap::new(),
                head: NIL,
                tail: NIL,
                free: Vec::new(),
                hits: 0,
                faults: 0,
                prefetch_hits: 0,
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.inner.lock().expect("buffer pool poisoned")
    }

    /// Number of frames the pool may hold.
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// Resizes the pool **in place**: every clone — including handles
    /// taken before the resize — sees the new budget at once. Shrinking
    /// evicts the least recently used frames first; the capacity is
    /// clamped to at least 1.
    pub fn set_capacity(&self, capacity: usize) {
        let mut lru = self.lock();
        lru.capacity = capacity.max(1);
        lru.shrink_to_capacity();
    }

    /// Touches the recency-only frame of `page`, returning `true` on a
    /// hit; a miss installs it.
    pub fn access(&self, page: PageId) -> bool {
        let key = (None, page);
        let mut lru = self.lock();
        let hit = lru.get(key).is_some();
        if hit {
            lru.hits += 1;
        } else {
            lru.faults += 1;
            lru.put(key, None, false);
        }
        hit
    }

    /// Reads `page` of dataset epoch `epoch` through a byte-owning frame:
    /// a hit serves the frame's bytes, a miss fills a fresh page buffer
    /// with `fill` and installs it. The returned `Arc<[u8]>` *is* the
    /// pin. `fill` runs with no lock held, so two racing readers may both
    /// fault a cold page; both reads really happened, so both count.
    pub(crate) fn fetch(
        &self,
        epoch: u64,
        page: PageId,
        page_size: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> (Arc<[u8]>, PoolRead) {
        let key = (Some(epoch), page);
        {
            let mut lru = self.lock();
            if let Some(frame) = lru.get(key) {
                let bytes = frame.data.clone().expect("byte-owning frame");
                let outcome = if std::mem::take(&mut frame.prefetched) {
                    lru.prefetch_hits += 1;
                    PoolRead::PrefetchHit
                } else {
                    PoolRead::Hit
                };
                lru.hits += 1;
                return (bytes, outcome);
            }
        }
        let mut buf = vec![0u8; page_size];
        fill(&mut buf);
        let bytes: Arc<[u8]> = buf.into();
        let mut lru = self.lock();
        lru.faults += 1;
        lru.put(key, Some(Arc::clone(&bytes)), false);
        (bytes, PoolRead::Fault)
    }

    /// Store-backed read of `page` at dataset epoch `epoch`: serves the
    /// frame's bytes on a hit, otherwise reads the page from `store`
    /// into a frame. A frame faulted under one epoch is invisible to
    /// readers of every other, which keeps in-flight streams draining an
    /// old snapshot from poisoning — or being poisoned by — the live
    /// epoch's cache.
    pub fn load(&self, epoch: u64, page: PageId, store: &FileDisk) -> (Arc<[u8]>, PoolRead) {
        self.fetch(epoch, page, store.page_size(), |buf| {
            store.read_into(page, buf)
        })
    }

    /// Stages `page` from `store` into a frame of epoch `epoch` ahead of
    /// the readers. A no-op if the page is already framed; bumps **no**
    /// hit/fault counter (the prefetcher's own reads are not demand I/O
    /// — the access that later claims the frame counts as a prefetch hit
    /// instead of a fault).
    pub fn prefetch(&self, epoch: u64, page: PageId, store: &FileDisk) {
        let key = (Some(epoch), page);
        if self.lock().map.contains_key(&key) {
            return;
        }
        let mut buf = vec![0u8; store.page_size()];
        store.read_into(page, &mut buf);
        self.lock().put(key, Some(buf.into()), true);
    }

    /// Replaces the bytes of `page`'s frame at `epoch` (installing it if
    /// absent): a pager's write-through keeps its frames current.
    pub(crate) fn refresh(&self, epoch: u64, page: PageId, bytes: Arc<[u8]>) {
        self.lock().put((Some(epoch), page), Some(bytes), false);
    }

    /// Turns every recency-only frame into a byte-owning frame of
    /// `epoch`, filled by `read`, in place: the buffer keeps its contents
    /// and its recency order when the pages move from a memory device to
    /// a page file. A page already framed with bytes of `epoch` just
    /// loses its recency-only frame.
    pub(crate) fn own_bytes(
        &self,
        epoch: u64,
        page_size: usize,
        mut read: impl FnMut(PageId, &mut [u8]),
    ) {
        let mut lru = self.lock();
        let recency: Vec<(PageId, usize)> = lru
            .map
            .iter()
            .filter(|((e, _), _)| e.is_none())
            .map(|(&(_, page), &idx)| (page, idx))
            .collect();
        for (page, idx) in recency {
            let key = (Some(epoch), page);
            if lru.map.contains_key(&key) {
                lru.remove(idx);
                continue;
            }
            let mut buf = vec![0u8; page_size];
            read(page, &mut buf);
            lru.map.remove(&(None, page));
            lru.map.insert(key, idx);
            let frame = &mut lru.frames[idx];
            frame.key = key;
            frame.data = Some(buf.into());
        }
    }

    /// Drops every byte-owning frame read under an epoch before `epoch`.
    pub(crate) fn drop_epochs_before(&self, epoch: u64) {
        let mut lru = self.lock();
        let retired: Vec<usize> = lru
            .map
            .iter()
            .filter(|((e, _), _)| e.is_some_and(|e| e < epoch))
            .map(|(_, &idx)| idx)
            .collect();
        for idx in retired {
            lru.remove(idx);
        }
    }

    /// Pages currently resident.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// `true` if no page is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit counter (all clones, all threads).
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Lifetime fault counter (all clones, all threads).
    pub fn faults(&self) -> u64 {
        self.lock().faults
    }

    /// Lifetime prefetch-hit counter — accesses satisfied by a frame
    /// the prefetcher staged. Always a subset of [`hits`](Self::hits).
    pub fn prefetch_hits(&self) -> u64 {
        self.lock().prefetch_hits
    }

    /// Lifetime hit rate in `[0, 1]` (`0` before any access).
    pub fn hit_rate(&self) -> f64 {
        let lru = self.lock();
        let total = lru.hits + lru.faults;
        if total == 0 {
            0.0
        } else {
            lru.hits as f64 / total as f64
        }
    }

    /// Evicts every resident page (a cold start between measured runs)
    /// without touching the lifetime counters.
    pub fn clear(&self) {
        let mut lru = self.lock();
        lru.frames.clear();
        lru.map.clear();
        lru.free.clear();
        lru.head = NIL;
        lru.tail = NIL;
    }

    /// `true` if both handles address the same frames and counters.
    pub fn shares_frames(&self, other: &BufferPool) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// A reader's handle onto a shared [`BufferPool`]: page reads whose
/// hit/fault accounting goes through the pool, with private
/// [`IoStats`] the caller merges back into the owning pager
/// ([`Pager::absorb`](crate::Pager::absorb)).
///
/// It is the one way pages are read: the sequential and parallel
/// executors, streams, top-k, server shards, the leaf walk and the
/// filter and verify kernels all read through a handle pinned on the
/// pager ([`Pager::reader`](crate::Pager::reader)), and the pager's own
/// reads go through the one it keeps on its live device.
///
/// The handle holds a clone of the pager's device. On a resident
/// [`MemDisk`](crate::MemDisk), bytes always come from that clone and
/// the pool only decides whether the access counts as a hit or a
/// fault. On a [`FileDisk`], the pool is the actual residency layer: a
/// fault reads the page from the file into a frame, a hit serves the
/// frame's bytes. (When several handles over *different* pagers share
/// one pool — the sharded server's replicas — their page-id spaces
/// coincide because the replicas are built identically, each into a
/// byte-identical page file of its own.)
///
/// Cloning a handle that has not read yet gives another reader over the
/// same device, pool and epoch (a parallel worker).
#[derive(Clone)]
pub struct PooledPager {
    pub(crate) device: Device,
    pub(crate) pool: BufferPool,
    pub(crate) stats: IoStats,
    /// Dataset epoch this handle's device was pinned under; every
    /// byte-owning frame it reads is keyed by it (see
    /// [`BufferPool::load`]).
    pub(crate) epoch: u64,
}

impl PooledPager {
    /// A handle over `device`, captured at dataset `epoch`, accounting
    /// through `pool`.
    pub(crate) fn new(device: Device, pool: BufferPool, epoch: u64) -> PooledPager {
        PooledPager {
            device,
            pool,
            stats: IoStats::default(),
            epoch,
        }
    }

    /// This handle's accumulated statistics.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// A background [`Prefetcher`] staging pages of this handle's page
    /// file into its pool at its epoch; `None` on a resident device,
    /// which has nothing to stage.
    pub fn prefetcher(&self) -> Option<Prefetcher> {
        match &self.device {
            Device::File(file) => Some(Prefetcher::spawn(
                self.pool.clone(),
                file.clone(),
                self.epoch,
            )),
            Device::Mem(_) => None,
        }
    }

    /// Reads page `id`, counting one logical read (and a fault on a
    /// miss) through the pool, and maps its bytes with `f`.
    pub fn read<T>(&mut self, id: PageId, f: impl FnOnce(&[u8]) -> T) -> T {
        match &self.device {
            Device::Mem(disk) => {
                self.stats
                    .count_read(PoolRead::touched(self.pool.access(id)));
                f(disk.page(id))
            }
            Device::File(file) => {
                let (bytes, outcome) = self.pool.load(self.epoch, id, file);
                self.stats.count_read(outcome);
                // No pool lock is held here: `f` may recurse into
                // further page reads (probe expansion does).
                f(&bytes)
            }
        }
    }
}

/// A background thread that stages upcoming pages into a [`BufferPool`]
/// so demand reads find them resident ([`PoolRead::PrefetchHit`]).
///
/// The schedulers drive it: when a worker claims a chunk of leaves, it
/// [`request`](Prefetcher::request)s the *next* chunk's leaf pages, so
/// store I/O overlaps verification. Requests are best-effort — dropping
/// the `Prefetcher` closes the queue and joins the thread, and a
/// request for a page that is already resident is a no-op.
pub struct Prefetcher {
    tx: Option<std::sync::mpsc::Sender<Vec<PageId>>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Prefetcher {
    /// Spawns the staging thread over `pool` and `store`. Staged frames
    /// carry dataset epoch `epoch`, so they satisfy exactly the readers
    /// pinned under the same epoch.
    pub fn spawn(pool: BufferPool, store: FileDisk, epoch: u64) -> Prefetcher {
        let (tx, rx) = std::sync::mpsc::channel::<Vec<PageId>>();
        let handle = std::thread::Builder::new()
            .name("ringjoin-prefetch".into())
            .spawn(move || {
                while let Ok(batch) = rx.recv() {
                    for id in batch {
                        pool.prefetch(epoch, id, &store);
                    }
                }
            })
            .expect("spawning prefetch thread");
        Prefetcher {
            tx: Some(tx),
            handle: Some(handle),
        }
    }

    /// Queues `pages` for staging (FIFO, best-effort).
    pub fn request(&self, pages: Vec<PageId>) {
        if pages.is_empty() {
            return;
        }
        if let Some(tx) = &self.tx {
            // A closed queue (only possible mid-teardown) is fine to
            // ignore: prefetch is an optimization, never correctness.
            let _ = tx.send(pages);
        }
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    impl BufferPool {
        /// The resident pages from most to least recently used.
        fn lru_order(&self) -> Vec<PageId> {
            let lru = self.lock();
            let mut out = Vec::with_capacity(lru.map.len());
            let mut cur = lru.head;
            while cur != NIL {
                out.push(lru.frames[cur].key.1);
                cur = lru.frames[cur].next;
            }
            out
        }
    }

    /// `n` resident pages, page `i` starting with byte `i + 1`.
    fn mem_with_pages(n: u32) -> Device {
        let mut disk = MemDisk::new(128);
        for i in 0..n {
            let id = disk.allocate();
            disk.write_page(id, &[i as u8 + 1; 128]);
        }
        Device::Mem(disk)
    }

    /// A page file of `n` pages named `name` in a scratch directory,
    /// page `i` starting with byte `first + i`.
    fn file_with_pages(name: &str, n: u32, first: u8) -> FileDisk {
        let dir = ringjoin_testsupport::scratch_dir("pool");
        let mut file = FileDisk::create(dir.join(name), 128).unwrap();
        for i in 0..n {
            let id = file.allocate();
            file.write_page(id, &[first + i as u8; 128]);
        }
        file
    }

    fn remove_scratch(file: &FileDisk) {
        std::fs::remove_dir_all(file.path().parent().unwrap()).ok();
    }

    fn ids(v: &[u32]) -> Vec<PageId> {
        v.iter().map(|&x| PageId(x)).collect()
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        assert_eq!(BufferPool::new(0).capacity(), 1);
        let pool = BufferPool::new(4);
        pool.set_capacity(0);
        assert_eq!(pool.capacity(), 1);
        pool.access(PageId(0));
        assert!(!pool.access(PageId(1)));
        assert!(!pool.access(PageId(0)), "one frame holds one page");
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn hits_and_faults_count() {
        let pool = BufferPool::new(8);
        assert!(!pool.access(PageId(1)));
        assert!(pool.access(PageId(1)));
        assert!(!pool.access(PageId(2)));
        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.faults(), 2);
        assert!((pool.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn clear_resets() {
        let pool = BufferPool::new(2);
        pool.access(PageId(0));
        pool.clear();
        assert!(pool.is_empty());
        assert!(pool.lru_order().is_empty());
        assert!(!pool.access(PageId(0)), "cold after clear");
        assert_eq!(pool.faults(), 2, "clear keeps lifetime counters");
        // The arena is reusable after a clear.
        pool.access(PageId(5));
        assert_eq!(pool.lru_order(), ids(&[5, 0]));
    }

    #[test]
    fn lru_eviction_order() {
        let pool = BufferPool::new(3);
        for i in 0..3 {
            pool.access(PageId(i));
        }
        assert_eq!(pool.lru_order(), ids(&[2, 1, 0]));
        // Touch 0 -> becomes MRU.
        assert!(pool.access(PageId(0)));
        assert_eq!(pool.lru_order(), ids(&[0, 2, 1]));
        // A miss evicts 1, the LRU, and spares the recently touched 0.
        assert!(!pool.access(PageId(3)));
        assert_eq!(pool.lru_order(), ids(&[3, 0, 2]));
        assert!(!pool.access(PageId(1)), "the LRU page was evicted");
    }

    #[test]
    fn shrink_evicts_lru_first() {
        let pool = BufferPool::new(4);
        for i in 0..4 {
            pool.access(PageId(i));
        }
        pool.access(PageId(0)); // order: 0,3,2,1
        pool.set_capacity(2);
        assert_eq!(pool.lru_order(), ids(&[0, 3]));
    }

    #[test]
    fn cyclic_scan_over_capacity_faults_forever() {
        let pool = BufferPool::new(4);
        for round in 0..3 {
            for i in 0..8u32 {
                let hit = pool.access(PageId(i));
                if round > 0 {
                    assert!(!hit, "a 4-frame LRU on an 8-page cycle must thrash");
                }
            }
        }
    }

    /// Model-based test: hit/miss and recency order against a naive
    /// `Vec`-backed LRU across a pseudo-random workload.
    #[test]
    fn matches_reference_model() {
        struct RefLru {
            cap: usize,
            order: Vec<u32>, // front = MRU
        }
        impl RefLru {
            fn access(&mut self, p: u32) -> bool {
                if let Some(pos) = self.order.iter().position(|&x| x == p) {
                    self.order.remove(pos);
                    self.order.insert(0, p);
                    true
                } else {
                    if self.order.len() >= self.cap {
                        self.order.pop();
                    }
                    self.order.insert(0, p);
                    false
                }
            }
        }

        let pool = BufferPool::new(7);
        let mut model = RefLru {
            cap: 7,
            order: Vec::new(),
        };
        let mut state = 0x12345678u64;
        for _ in 0..10_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let p = ((state >> 33) % 20) as u32;
            assert_eq!(
                pool.access(PageId(p)),
                model.access(p),
                "divergence at page {p}"
            );
            assert_eq!(
                pool.lru_order(),
                model.order.iter().map(|&x| PageId(x)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn huge_pool_shrunk_to_a_small_budget_holds_only_the_budget() {
        let pool = BufferPool::new(usize::MAX / 2);
        pool.set_capacity(4);
        for i in 0..64u32 {
            pool.access(PageId(i));
        }
        assert_eq!(pool.len(), 4);
        assert_eq!(pool.lru_order(), ids(&[63, 62, 61, 60]));
    }

    #[test]
    fn pooled_pager_serves_snapshot_bytes_and_counts() {
        let snap = mem_with_pages(3);
        let pool = BufferPool::new(8);
        let mut pg = PooledPager::new(snap, pool.clone(), 0);
        pg.read(PageId(0), |b| assert_eq!(b[0], 1));
        pg.read(PageId(0), |b| assert_eq!(b[0], 1));
        pg.read(PageId(2), |b| assert_eq!(b[0], 3));
        let s = pg.stats();
        assert_eq!(s.logical_reads, 3);
        assert_eq!(s.read_hits, 1);
        assert_eq!(s.read_faults, 2);
        assert_eq!(s.logical_reads, s.read_hits + s.read_faults);
        assert_eq!(pool.hits() + pool.faults(), 3);
    }

    #[test]
    fn workers_share_one_warm_pool_across_threads() {
        // The cold-cache fix in miniature: 4 workers scanning the same 8
        // pages through one pool fault 8 times *total*, not 8 per
        // worker (modulo races on the initial touch).
        let snap = mem_with_pages(8);
        let pool = BufferPool::new(64);
        let totals: Vec<IoStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let snap = snap.clone();
                    let pool = pool.clone();
                    scope.spawn(move || {
                        let mut pg = PooledPager::new(snap, pool, 0);
                        for i in 0..8u32 {
                            pg.read(PageId(i), |b| {
                                assert_eq!(b[0], i as u8 + 1);
                            });
                        }
                        pg.stats()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut merged = IoStats::default();
        for s in totals {
            merged.merge(s);
        }
        assert_eq!(merged.logical_reads, 32);
        // Recency-only accesses are decided under the lock: exactly one
        // fault per page, whatever the interleaving.
        assert_eq!(merged.read_faults, 8);
        assert_eq!(merged.read_hits, 24);
        assert_eq!(pool.hits(), merged.read_hits);
        assert_eq!(pool.faults(), merged.read_faults);
    }

    #[test]
    fn clones_share_frames() {
        let a = BufferPool::new(4);
        let b = a.clone();
        assert!(a.shares_frames(&b));
        assert!(!a.shares_frames(&BufferPool::new(4)));
        a.access(PageId(7));
        assert!(b.access(PageId(7)), "clone sees the resident page");
    }

    #[test]
    fn store_backed_load_serves_bytes_and_faults_under_budget() {
        let store = file_with_pages("load.rjp", 8, 1);
        let pool = BufferPool::new(2);
        let mut pg = PooledPager::new(Device::File(store.clone()), pool.clone(), 0);
        // Cold pass over 8 pages through a 2-frame pool: all faults,
        // but every byte is correct.
        for i in 0..8u32 {
            pg.read(PageId(i), |b| assert_eq!(b[0], i as u8 + 1));
        }
        let s = pg.stats();
        assert_eq!(s.logical_reads, 8);
        assert_eq!(s.read_faults, 8);
        assert_eq!(s.read_hits, 0);
        // Re-reading the last resident page is a frame hit.
        pg.read(PageId(7), |b| assert_eq!(b[0], 8));
        assert_eq!(pg.stats().read_hits, 1);
        assert_eq!(pg.stats().prefetch_hits, 0);
        assert_eq!(
            pg.stats().read_hits + pg.stats().read_faults,
            pg.stats().logical_reads
        );
        remove_scratch(&store);
    }

    #[test]
    fn evicted_readers_keep_pinned_bytes() {
        let store = file_with_pages("evict.rjp", 4, 1);
        let pool = BufferPool::new(1);
        let (pinned, outcome) = pool.load(0, PageId(0), &store);
        assert_eq!(outcome, PoolRead::Fault);
        // Evict page 0 by cycling other pages through the single frame.
        pool.load(0, PageId(1), &store);
        pool.load(0, PageId(2), &store);
        assert_eq!(pinned[0], 1, "evicted frame's bytes stay valid via the pin");
        remove_scratch(&store);
    }

    #[test]
    fn prefetched_pages_hit_and_count_separately() {
        let store = file_with_pages("prefetch.rjp", 8, 1);
        let pool = BufferPool::new(8);
        for i in 0..4u32 {
            pool.prefetch(0, PageId(i), &store);
        }
        assert_eq!(pool.hits() + pool.faults(), 0, "prefetch is not demand I/O");
        let mut pg = PooledPager::new(Device::File(store.clone()), pool.clone(), 0);
        for i in 0..8u32 {
            pg.read(PageId(i), |b| assert_eq!(b[0], i as u8 + 1));
        }
        let s = pg.stats();
        assert_eq!(s.prefetch_hits, 4, "staged pages are prefetch hits");
        assert_eq!(s.read_hits, 4, "prefetch hits are a subset of hits");
        assert_eq!(s.read_faults, 4);
        assert_eq!(pool.prefetch_hits(), 4);
        // The flag is consumed: a second read of a staged page is a
        // plain hit.
        pg.read(PageId(0), |_| {});
        assert_eq!(pg.stats().prefetch_hits, 4);
        assert_eq!(pg.stats().read_hits, 5);
        remove_scratch(&store);
    }

    #[test]
    fn prefetcher_thread_stages_batches() {
        let store = file_with_pages("stage.rjp", 8, 1);
        let pool = BufferPool::new(8);
        {
            let prefetcher = Prefetcher::spawn(pool.clone(), store.clone(), 0);
            prefetcher.request((0..8).map(PageId).collect());
            // Drop joins the thread, so the batch is fully staged below.
        }
        assert_eq!(pool.len(), 8);
        let mut pg = PooledPager::new(Device::File(store.clone()), pool, 0);
        for i in 0..8u32 {
            pg.read(PageId(i), |b| assert_eq!(b[0], i as u8 + 1));
        }
        assert_eq!(pg.stats().prefetch_hits, 8);
        assert_eq!(pg.stats().read_faults, 0);
        remove_scratch(&store);
    }

    #[test]
    fn epochs_partition_byte_frames() {
        // Two "epochs" of the same page id space with different bytes:
        // a reader pinned to epoch 0 and a reader at epoch 1 share one
        // pool without ever serving each other's bytes.
        let old_store = file_with_pages("old.rjp", 4, 1);
        let new_store = file_with_pages("new.rjp", 4, 100);

        let pool = BufferPool::new(16);
        let mut old_rd = PooledPager::new(Device::File(old_store), pool.clone(), 0);
        let mut new_rd = PooledPager::new(Device::File(new_store.clone()), pool.clone(), 1);
        for i in 0..4u32 {
            old_rd.read(PageId(i), |b| assert_eq!(b[0], i as u8 + 1));
            new_rd.read(PageId(i), |b| assert_eq!(b[0], 100 + i as u8));
        }
        // Same page ids, different epochs: no cross-epoch hits.
        assert_eq!(old_rd.stats().read_faults, 4);
        assert_eq!(new_rd.stats().read_faults, 4);
        assert_eq!(pool.len(), 8, "one frame per (epoch, page)");
        // Re-reads hit within each epoch.
        old_rd.read(PageId(0), |b| assert_eq!(b[0], 1));
        new_rd.read(PageId(0), |b| assert_eq!(b[0], 100));
        assert_eq!(old_rd.stats().read_hits, 1);
        assert_eq!(new_rd.stats().read_hits, 1);
        // Retiring epoch 0 drops its frames and keeps the live epoch's.
        pool.drop_epochs_before(1);
        assert_eq!(pool.len(), 4);
        new_rd.read(PageId(3), |b| assert_eq!(b[0], 103));
        assert_eq!(new_rd.stats().read_hits, 2);
        remove_scratch(&new_store);
    }

    #[test]
    fn snapshot_readers_share_frames_across_epochs() {
        // Recency-only frames are keyed by page alone: readers of two
        // epochs' snapshots of one page space share them.
        let snap = mem_with_pages(4);
        let pool = BufferPool::new(usize::MAX / 2);
        for epoch in 0..10 {
            let mut rd = PooledPager::new(snap.clone(), pool.clone(), epoch);
            for i in 0..4u32 {
                rd.read(PageId(i), |_| {});
            }
        }
        assert_eq!(pool.len(), 4);
        assert_eq!(pool.faults(), 4);
    }

    #[test]
    fn prefetch_stages_into_its_own_epoch() {
        let store = file_with_pages("epoch.rjp", 4, 1);
        let pool = BufferPool::new(16);
        {
            let pf = Prefetcher::spawn(pool.clone(), store.clone(), 3);
            pf.request((0..4).map(PageId).collect());
        }
        // A reader on a different epoch sees nothing staged...
        let mut other = PooledPager::new(Device::File(store.clone()), pool.clone(), 2);
        other.read(PageId(0), |_| {});
        assert_eq!(other.stats().read_faults, 1);
        assert_eq!(other.stats().prefetch_hits, 0);
        // ...while the matching epoch takes prefetch hits.
        let mut pinned = PooledPager::new(Device::File(store.clone()), pool, 3);
        for i in 0..4u32 {
            pinned.read(PageId(i), |b| assert_eq!(b[0], i as u8 + 1));
        }
        assert_eq!(pinned.stats().prefetch_hits, 4);
        assert_eq!(pinned.stats().read_faults, 0);
        remove_scratch(&store);
    }

    #[test]
    fn set_capacity_resizes_all_clones_in_place() {
        let pool = BufferPool::new(8);
        let clone = pool.clone();
        for i in 0..8u32 {
            pool.access(PageId(i));
        }
        assert_eq!(pool.len(), 8);
        clone.set_capacity(2);
        assert_eq!(pool.capacity(), 2, "resize is visible through every handle");
        assert_eq!(pool.len(), 2, "shrinking evicts surplus frames");
        // The old handle now evicts at the new budget.
        for i in 0..8u32 {
            pool.access(PageId(100 + i));
        }
        assert_eq!(pool.len(), 2);
        // Growing back raises the arena again.
        clone.set_capacity(8);
        for i in 0..8u32 {
            pool.access(PageId(200 + i));
        }
        assert_eq!(pool.len(), 8);
    }
}
