//! The page devices — resident [`MemDisk`] and the page file
//! [`FileDisk`] — and the read-only views readers pin on them.

use crate::buffer_pool::PageSource;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Identifier of a disk page. Pages are allocated sequentially from 0.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PageId(pub u32);

impl PageId {
    /// Sentinel used in serialized node headers for "no page" (e.g. the
    /// parent of the root). Never returned by an allocator.
    pub const INVALID: PageId = PageId(u32::MAX);

    /// `true` if this is the [`PageId::INVALID`] sentinel.
    #[inline]
    pub fn is_invalid(&self) -> bool {
        *self == Self::INVALID
    }
}

/// A device that stores fixed-size pages addressed by [`PageId`].
///
/// Implementations do not count I/O — accounting lives in the
/// [`Pager`](crate::Pager), which sees every access. A `DiskStorage` is the
/// "platter": dumb, page-granular, and with no notion of caching.
pub trait DiskStorage {
    /// Size of every page in bytes.
    fn page_size(&self) -> usize;

    /// Number of allocated pages.
    fn num_pages(&self) -> u32;

    /// Appends a fresh zeroed page and returns its id.
    fn allocate(&mut self) -> PageId;

    /// Reads page `id` into `buf` (`buf.len() == page_size()`).
    ///
    /// # Panics
    /// Panics if `id` was never allocated — an unallocated read is a logic
    /// error in the index layer, not a runtime condition to handle.
    fn read_page(&mut self, id: PageId, buf: &mut [u8]);

    /// Writes `buf` to page `id` (`buf.len() == page_size()`).
    fn write_page(&mut self, id: PageId, buf: &[u8]);

    /// The bytes of page `id` if the device keeps its pages in memory;
    /// `None` (the default) for a device that must be read. The
    /// [`Pager`](crate::Pager) reads resident pages in place, and buffers
    /// copies of the others.
    fn resident_page(&self, _id: PageId) -> Option<&[u8]> {
        None
    }

    /// The pages as they are now, for a reader that holds the view until
    /// it is done. The view shares the device's pages; it copies none.
    /// A [`MemDisk`] hands out its page table, and a later write copies
    /// what the view holds before changing it. A [`FileDisk`] hands out
    /// its file, which a later write changes in place, so a writer that
    /// must not disturb a held view moves to a new file first
    /// ([`Pager::begin_epoch`](crate::Pager::begin_epoch)).
    fn pin(&self) -> PageSource;

    /// The page file this device is, if it is one.
    fn file(&self) -> Option<&FileDisk> {
        None
    }
}

/// A shared, read-only page source that many readers can hit at once.
///
/// This is the residency boundary of the disk-native engine: the
/// [`BufferPool`](crate::BufferPool) reads pages *from* a store into its
/// frames on a miss, and serves frame bytes on a hit. Unlike
/// [`DiskStorage`] (the pager's exclusive, mutable device), a
/// `PageStore` takes `&self` so one handle can serve parallel join
/// workers and the background prefetch thread concurrently.
pub trait PageStore: Send + Sync {
    /// Size of every page in bytes.
    fn page_size(&self) -> usize;

    /// Number of readable pages.
    fn num_pages(&self) -> u32;

    /// Reads page `id` into `buf` (`buf.len() == page_size()`).
    ///
    /// # Panics
    /// Panics if `id` is out of range — like [`DiskStorage::read_page`],
    /// an unallocated read is a logic error in the index layer.
    fn read_into(&self, id: PageId, buf: &mut [u8]);
}

/// The pages of a [`MemDisk`]: each page's bytes behind an `Arc`, and
/// the table of them behind another, so a view is one `Arc` clone.
type PageTable = Arc<Vec<Arc<[u8]>>>;

/// An in-memory page device.
///
/// Used throughout the benchmarks: the paper's cost model *charges* a fixed
/// 10 ms per page fault rather than timing a physical device, so the
/// experiments are deterministic with a memory-backed "disk" while
/// reproducing the same accounting.
///
/// Its pages are shared copy-on-write with the [`PageSnapshot`]s taken
/// of it. A write edits its page in place when no snapshot holds the
/// page, and otherwise gives the device a fresh copy of the table (an
/// `Arc` bump per page) holding new bytes for that page alone.
pub struct MemDisk {
    page_size: usize,
    pages: PageTable,
}

impl MemDisk {
    /// Creates an empty device with the given page size (the paper uses
    /// 1024 bytes).
    pub fn new(page_size: usize) -> Self {
        assert!(page_size >= 64, "page size too small to hold a node header");
        MemDisk {
            page_size,
            pages: Arc::default(),
        }
    }

    /// A view of the pages as they are now; see [`PageSnapshot`].
    pub fn snapshot(&self) -> PageSnapshot {
        PageSnapshot {
            page_size: self.page_size,
            pages: Arc::clone(&self.pages),
        }
    }
}

impl DiskStorage for MemDisk {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u32 {
        self.pages.len() as u32
    }

    fn allocate(&mut self) -> PageId {
        let id = PageId(self.pages.len() as u32);
        Arc::make_mut(&mut self.pages).push(vec![0u8; self.page_size].into());
        id
    }

    fn read_page(&mut self, id: PageId, buf: &mut [u8]) {
        buf.copy_from_slice(&self.pages[id.0 as usize]);
    }

    fn write_page(&mut self, id: PageId, buf: &[u8]) {
        let page = &mut Arc::make_mut(&mut self.pages)[id.0 as usize];
        match Arc::get_mut(page) {
            Some(bytes) => bytes.copy_from_slice(buf),
            None => *page = buf.into(),
        }
    }

    fn resident_page(&self, id: PageId) -> Option<&[u8]> {
        Some(&self.pages[id.0 as usize])
    }

    fn pin(&self) -> PageSource {
        PageSource::Resident(self.snapshot())
    }
}

/// A read-only view of a [`MemDisk`]'s pages as they were when it was
/// taken: the device's own page table, shared by `Arc`, so taking one
/// copies nothing and later writes to the device never show through.
///
/// Cloning is cheap (an `Arc` bump); all clones share the same pages.
/// Reads never fault, never lock and never touch statistics — per-access
/// accounting is the job of the [`PooledPager`](crate::PooledPager)
/// layered on top.
#[derive(Clone)]
pub struct PageSnapshot {
    page_size: usize,
    pages: PageTable,
}

impl PageSnapshot {
    /// Page size of the snapshotted device.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of captured pages.
    pub fn num_pages(&self) -> u32 {
        self.pages.len() as u32
    }

    /// The bytes of page `id`.
    ///
    /// # Panics
    /// Panics if `id` was not allocated when the snapshot was taken.
    #[inline]
    pub fn page(&self, id: PageId) -> &[u8] {
        &self.pages[id.0 as usize]
    }

    /// `true` if both views share one page table: no write or
    /// allocation reached the device between them.
    pub fn shares_pages(&self, other: &PageSnapshot) -> bool {
        Arc::ptr_eq(&self.pages, &other.pages)
    }
}

/// A snapshot is a perfectly valid (RAM-resident) [`PageStore`]: reads
/// copy out of the shared pages. Lets tests and benches exercise the
/// pool's store-backed path without touching the filesystem.
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

/// A page file: page `i` at byte offset `i * page_size`, read and
/// written with positioned I/O.
///
/// A `FileDisk` is a handle. Its clones share the one open file by
/// `Arc` — the pager's device, the readers pinned on it, the prefetch
/// thread — and none of them moves a seek cursor another depends on.
/// A clone keeps the page count it was cloned with. The file is the
/// [`DiskStorage`] of a disk-native [`Pager`](crate::Pager) and the
/// [`PageStore`] of its readers.
#[derive(Clone)]
pub struct FileDisk {
    page_size: usize,
    num_pages: u32,
    file: Arc<File>,
    path: PathBuf,
    /// The path versions of this file are named after, `<base>.e<N>`
    /// ([`Pager::begin_epoch`](crate::Pager::begin_epoch)): the path the
    /// first file was spilled to.
    base: PathBuf,
}

impl FileDisk {
    /// Creates (truncating) an empty page file at `path`.
    pub fn create<P: AsRef<Path>>(path: P, page_size: usize) -> io::Result<Self> {
        let path = path.as_ref();
        FileDisk::sized(path, path, page_size, 0)
    }

    /// Creates (truncating) a page file of `num_pages` zeroed pages at
    /// `path`, sizing it once, with versions named after `base`.
    pub(crate) fn sized(
        path: &Path,
        base: &Path,
        page_size: usize,
        num_pages: u32,
    ) -> io::Result<Self> {
        assert!(page_size >= 64, "page size too small to hold a node header");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.set_len(num_pages as u64 * page_size as u64)?;
        Ok(FileDisk {
            page_size,
            num_pages,
            file: Arc::new(file),
            path: path.to_path_buf(),
            base: base.to_path_buf(),
        })
    }

    /// Opens the page file another pager writes at `path`, read-only,
    /// for a pager whose pages it holds
    /// ([`Pager::attach_store`](crate::Pager::attach_store)). Its length
    /// must be a whole number of pages.
    pub(crate) fn attach(path: &Path, page_size: usize) -> io::Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let num_pages = u32::try_from(len / page_size as u64)
            .ok()
            .filter(|_| len % page_size as u64 == 0)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("file length {len} is not a whole number of {page_size}-byte pages"),
                )
            })?;
        Ok(FileDisk {
            page_size,
            num_pages,
            file: Arc::new(file),
            path: path.to_path_buf(),
            base: path.to_path_buf(),
        })
    }

    /// Size of every page in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of pages this handle reads and writes.
    pub fn num_pages(&self) -> u32 {
        self.num_pages
    }

    /// Where the file lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    pub(crate) fn base(&self) -> &Path {
        &self.base
    }

    /// `true` while another handle on the file is alive — a reader
    /// pinned on it.
    pub(crate) fn is_shared(&self) -> bool {
        Arc::strong_count(&self.file) > 1
    }

    fn offset(&self, id: PageId) -> u64 {
        id.0 as u64 * self.page_size as u64
    }
}

impl PageStore for FileDisk {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u32 {
        self.num_pages
    }

    fn read_into(&self, id: PageId, buf: &mut [u8]) {
        assert!(id.0 < self.num_pages, "read of unallocated page {id:?}");
        read_at(&self.file, buf, self.offset(id)).expect("reading page");
    }
}

impl DiskStorage for FileDisk {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u32 {
        self.num_pages
    }

    fn allocate(&mut self) -> PageId {
        let id = PageId(self.num_pages);
        self.num_pages += 1;
        // Extend the file eagerly so reads of freshly allocated pages see
        // zeroes, matching MemDisk.
        self.file
            .set_len(self.offset(PageId(self.num_pages)))
            .expect("extending page file");
        id
    }

    fn read_page(&mut self, id: PageId, buf: &mut [u8]) {
        self.read_into(id, buf);
    }

    fn write_page(&mut self, id: PageId, buf: &[u8]) {
        assert!(id.0 < self.num_pages, "write of unallocated page {id:?}");
        write_at(&self.file, buf, self.offset(id)).expect("writing page");
    }

    fn pin(&self) -> PageSource {
        PageSource::Store(Arc::new(self.clone()))
    }

    fn file(&self) -> Option<&FileDisk> {
        Some(self)
    }
}

#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

#[cfg(unix)]
fn write_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, buf, offset)
}

/// Without positioned I/O a transfer is a seek and a read or write on
/// the one shared cursor; this lock keeps the pair together.
#[cfg(not(unix))]
static CURSOR: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(not(unix))]
fn read_at(mut file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let _cursor = CURSOR.lock().expect("page file cursor poisoned");
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

#[cfg(not(unix))]
fn write_at(mut file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    let _cursor = CURSOR.lock().expect("page file cursor poisoned");
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(disk: &mut dyn DiskStorage) {
        let a = disk.allocate();
        let b = disk.allocate();
        assert_eq!(disk.num_pages(), 2);

        let ps = disk.page_size();
        let mut buf = vec![0u8; ps];

        // Fresh pages read as zeroes.
        disk.read_page(a, &mut buf);
        assert!(buf.iter().all(|&x| x == 0));

        buf[0] = 0xAB;
        buf[ps - 1] = 0xCD;
        disk.write_page(b, &buf);

        let mut out = vec![0u8; ps];
        disk.read_page(b, &mut out);
        assert_eq!(out, buf);
        // Page a is untouched.
        disk.read_page(a, &mut out);
        assert!(out.iter().all(|&x| x == 0));
    }

    fn snapshot_with_pages(n: u32) -> PageSnapshot {
        let mut disk = MemDisk::new(128);
        for i in 0..n {
            let id = disk.allocate();
            let mut buf = vec![0u8; 128];
            buf[0] = i as u8 + 1;
            disk.write_page(id, &buf);
        }
        disk.snapshot()
    }

    #[test]
    fn memdisk_roundtrip() {
        let mut d = MemDisk::new(256);
        roundtrip(&mut d);
    }

    #[test]
    fn filedisk_roundtrip_and_attach() {
        let dir = std::env::temp_dir().join(format!("ringjoin-filedisk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.bin");
        {
            let mut d = FileDisk::create(&path, 256).unwrap();
            roundtrip(&mut d);
        }
        let d = FileDisk::attach(&path, 256).unwrap();
        assert_eq!(d.num_pages(), 2);
        let mut buf = vec![0u8; 256];
        d.read_into(PageId(1), &mut buf);
        assert_eq!(buf[0], 0xAB);
        assert_eq!(buf[255], 0xCD);
        assert!(
            FileDisk::attach(&path, 96).is_err(),
            "512 bytes are no 96-byte pages"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn filedisk_read_unallocated_panics() {
        let dir = std::env::temp_dir().join(format!("ringjoin-filedisk2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.bin");
        let mut d = FileDisk::create(&path, 256).unwrap();
        let mut buf = vec![0u8; 256];
        d.read_page(PageId(0), &mut buf);
    }

    #[test]
    fn file_handles_serve_concurrent_readers_beside_the_writer() {
        let dir = std::env::temp_dir().join(format!("ringjoin-pagestore-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.bin");
        let mut d = FileDisk::sized(&path, &path, 128, 16).unwrap();
        for i in 0..16u32 {
            let mut buf = vec![0u8; 128];
            buf[0] = i as u8 + 1;
            d.write_page(PageId(i), &buf);
        }
        let store = d.clone();
        assert!(d.is_shared(), "a clone shares the file");
        d.allocate();
        assert_eq!(store.num_pages(), 16, "a clone keeps its page count");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let store = &store;
                scope.spawn(move || {
                    let mut buf = vec![0u8; 128];
                    for i in 0..16u32 {
                        store.read_into(PageId(i), &mut buf);
                        assert_eq!(buf[0], i as u8 + 1);
                    }
                });
            }
        });
        drop(store);
        assert!(!d.is_shared());
        std::fs::remove_dir_all(&dir).ok();
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
    fn snapshots_share_the_table_until_a_write_copies_the_held_page() {
        let mut disk = MemDisk::new(128);
        let (a, b) = (disk.allocate(), disk.allocate());
        disk.write_page(a, &[1; 128]);
        let s1 = disk.snapshot();
        assert!(s1.shares_pages(&disk.snapshot()), "no write between them");
        disk.write_page(a, &[2; 128]);
        let s2 = disk.snapshot();
        assert!(!s2.shares_pages(&s1), "a write leaves the held table alone");
        assert_eq!(s1.page(a)[0], 1, "the old view keeps the old bytes");
        assert_eq!(s2.page(a)[0], 2);
        assert!(
            std::ptr::eq(s1.page(b), s2.page(b)),
            "an unwritten page is shared, not copied"
        );
        // A second write to a page no view holds edits it in place.
        drop(s2);
        let before = disk.resident_page(a).unwrap().as_ptr();
        disk.write_page(a, &[3; 128]);
        assert_eq!(disk.resident_page(a).unwrap().as_ptr(), before);
        disk.allocate();
        assert_eq!(s1.num_pages(), 2, "an allocation leaves the view alone");
        assert_eq!(disk.num_pages(), 3);
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

    #[test]
    fn invalid_sentinel() {
        assert!(PageId::INVALID.is_invalid());
        assert!(!PageId(0).is_invalid());
    }
}
