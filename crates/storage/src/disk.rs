//! Raw page devices and the shared read-only [`PageStore`].

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
#[cfg(not(unix))]
use std::sync::Mutex;

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
}

/// An in-memory page device.
///
/// Used throughout the benchmarks: the paper's cost model *charges* a fixed
/// 10 ms per page fault rather than timing a physical device, so the
/// experiments are deterministic with a memory-backed "disk" while
/// reproducing the same accounting.
pub struct MemDisk {
    page_size: usize,
    pages: Vec<Box<[u8]>>,
}

impl MemDisk {
    /// Creates an empty device with the given page size (the paper uses
    /// 1024 bytes).
    pub fn new(page_size: usize) -> Self {
        assert!(page_size >= 64, "page size too small to hold a node header");
        MemDisk {
            page_size,
            pages: Vec::new(),
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
        self.pages
            .push(vec![0u8; self.page_size].into_boxed_slice());
        id
    }

    fn read_page(&mut self, id: PageId, buf: &mut [u8]) {
        buf.copy_from_slice(&self.pages[id.0 as usize]);
    }

    fn write_page(&mut self, id: PageId, buf: &[u8]) {
        self.pages[id.0 as usize].copy_from_slice(buf);
    }

    fn resident_page(&self, id: PageId) -> Option<&[u8]> {
        Some(&self.pages[id.0 as usize])
    }
}

/// A file-backed page device, for datasets that should persist across
/// processes (e.g. generating a workload once and joining it many times).
pub struct FileDisk {
    page_size: usize,
    num_pages: u32,
    file: File,
}

impl FileDisk {
    /// Creates (truncating) a page file at `path`.
    pub fn create<P: AsRef<Path>>(path: P, page_size: usize) -> std::io::Result<Self> {
        assert!(page_size >= 64, "page size too small to hold a node header");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileDisk {
            page_size,
            num_pages: 0,
            file,
        })
    }

    /// Opens an existing page file; its length must be a multiple of
    /// `page_size`.
    pub fn open<P: AsRef<Path>>(path: P, page_size: usize) -> std::io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        assert_eq!(
            len % page_size as u64,
            0,
            "file length {len} is not a multiple of the page size {page_size}"
        );
        Ok(FileDisk {
            page_size,
            num_pages: (len / page_size as u64) as u32,
            file,
        })
    }

    fn offset(&self, id: PageId) -> u64 {
        id.0 as u64 * self.page_size as u64
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
            .set_len(self.num_pages as u64 * self.page_size as u64)
            .expect("extending page file");
        id
    }

    fn read_page(&mut self, id: PageId, buf: &mut [u8]) {
        assert!(id.0 < self.num_pages, "read of unallocated page {id:?}");
        self.file
            .seek(SeekFrom::Start(self.offset(id)))
            .and_then(|_| self.file.read_exact(buf))
            .expect("reading page");
    }

    fn write_page(&mut self, id: PageId, buf: &[u8]) {
        assert!(id.0 < self.num_pages, "write of unallocated page {id:?}");
        self.file
            .seek(SeekFrom::Start(self.offset(id)))
            .and_then(|_| self.file.write_all(buf))
            .expect("writing page");
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

/// A file-backed [`PageStore`] over a page file written by
/// [`Pager::spill_to`](crate::Pager::spill_to) (same layout as
/// [`FileDisk`]: page `i` at byte offset `i * page_size`).
///
/// On Unix, reads use positioned I/O (`read_at`), so concurrent readers
/// never contend on a seek cursor; elsewhere a mutex serializes the
/// seek+read pair.
pub struct FilePageStore {
    page_size: usize,
    num_pages: u32,
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: Mutex<File>,
}

impl FilePageStore {
    /// Opens the page file at `path` read-only; its length must be a
    /// multiple of `page_size`.
    pub fn open<P: AsRef<Path>>(path: P, page_size: usize) -> std::io::Result<Self> {
        assert!(page_size >= 64, "page size too small to hold a node header");
        let file = OpenOptions::new().read(true).open(path)?;
        let len = file.metadata()?.len();
        assert_eq!(
            len % page_size as u64,
            0,
            "file length {len} is not a multiple of the page size {page_size}"
        );
        Ok(FilePageStore {
            page_size,
            num_pages: (len / page_size as u64) as u32,
            #[cfg(unix)]
            file,
            #[cfg(not(unix))]
            file: Mutex::new(file),
        })
    }
}

impl PageStore for FilePageStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u32 {
        self.num_pages
    }

    fn read_into(&self, id: PageId, buf: &mut [u8]) {
        assert!(id.0 < self.num_pages, "read of unallocated page {id:?}");
        let offset = id.0 as u64 * self.page_size as u64;
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, offset).expect("reading page");
        }
        #[cfg(not(unix))]
        {
            let mut file = self.file.lock().expect("page store file poisoned");
            file.seek(SeekFrom::Start(offset))
                .and_then(|_| file.read_exact(buf))
                .expect("reading page");
        }
    }
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

    #[test]
    fn memdisk_roundtrip() {
        let mut d = MemDisk::new(256);
        roundtrip(&mut d);
    }

    #[test]
    fn filedisk_roundtrip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("ringjoin-filedisk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.bin");
        {
            let mut d = FileDisk::create(&path, 256).unwrap();
            roundtrip(&mut d);
        }
        {
            let mut d = FileDisk::open(&path, 256).unwrap();
            assert_eq!(d.num_pages(), 2);
            let mut buf = vec![0u8; 256];
            d.read_page(PageId(1), &mut buf);
            assert_eq!(buf[0], 0xAB);
            assert_eq!(buf[255], 0xCD);
        }
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
    fn file_page_store_serves_concurrent_readers() {
        let dir = std::env::temp_dir().join(format!("ringjoin-pagestore-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.bin");
        {
            let mut d = FileDisk::create(&path, 128).unwrap();
            for i in 0..16u32 {
                let id = d.allocate();
                let mut buf = vec![0u8; 128];
                buf[0] = i as u8 + 1;
                d.write_page(id, &buf);
            }
        }
        let store = FilePageStore::open(&path, 128).unwrap();
        assert_eq!(store.num_pages(), 16);
        assert_eq!(store.page_size(), 128);
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
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_sentinel() {
        assert!(PageId::INVALID.is_invalid());
        assert!(!PageId(0).is_invalid());
    }
}
