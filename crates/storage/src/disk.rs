//! The page devices: resident [`MemDisk`] and the page file
//! [`FileDisk`], the two arms of the device a pager owns and its
//! readers pin a clone of.

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

/// The pages of a [`MemDisk`]: each page's bytes behind an `Arc`, and
/// the table of them behind another, so a clone is one `Arc` bump.
type PageTable = Arc<Vec<Arc<[u8]>>>;

/// An in-memory page device.
///
/// Used throughout the benchmarks: the paper's cost model *charges* a fixed
/// 10 ms per page fault rather than timing a physical device, so the
/// experiments are deterministic with a memory-backed "disk" while
/// reproducing the same accounting.
///
/// A clone is a view of the pages as they are now: it shares the page
/// table and copies nothing, and later writes to either never show
/// through the other. A write edits its page in place when no clone
/// holds the page, and otherwise gives the writer a fresh copy of the
/// table (an `Arc` bump per page) holding new bytes for that page
/// alone.
#[derive(Clone)]
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

    /// Size of every page in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> u32 {
        self.pages.len() as u32
    }

    /// Appends a fresh zeroed page and returns its id.
    pub fn allocate(&mut self) -> PageId {
        let id = PageId(self.pages.len() as u32);
        Arc::make_mut(&mut self.pages).push(vec![0u8; self.page_size].into());
        id
    }

    /// The bytes of page `id`.
    ///
    /// # Panics
    /// Panics if `id` was never allocated — an unallocated read is a logic
    /// error in the index layer, not a runtime condition to handle.
    #[inline]
    pub fn page(&self, id: PageId) -> &[u8] {
        &self.pages[id.0 as usize]
    }

    /// Writes `buf` to page `id` (`buf.len() == page_size()`).
    pub fn write_page(&mut self, id: PageId, buf: &[u8]) {
        let page = &mut Arc::make_mut(&mut self.pages)[id.0 as usize];
        match Arc::get_mut(page) {
            Some(bytes) => bytes.copy_from_slice(buf),
            None => *page = buf.into(),
        }
    }
}

/// A page file: page `i` at byte offset `i * page_size`, read and
/// written with positioned I/O.
///
/// A `FileDisk` is a handle. Its clones share the one open file by
/// `Arc` — the pager's device, the readers pinned on it, the prefetch
/// thread — and none of them moves a seek cursor another depends on.
/// A clone keeps the page count it was cloned with. The file is the
/// device of a disk-native [`Pager`](crate::Pager), and the store the
/// [`BufferPool`](crate::BufferPool) faults its readers' pages out of:
/// [`FileDisk::read_into`] takes `&self`, so one handle serves parallel
/// join workers and the background prefetch thread at once.
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

    /// Appends a fresh zeroed page and returns its id.
    pub fn allocate(&mut self) -> PageId {
        let id = PageId(self.num_pages);
        self.num_pages += 1;
        // Extend the file eagerly so reads of freshly allocated pages see
        // zeroes, matching MemDisk.
        self.file
            .set_len(self.offset(PageId(self.num_pages)))
            .expect("extending page file");
        id
    }

    /// Reads page `id` into `buf` (`buf.len() == page_size()`).
    ///
    /// # Panics
    /// Panics if `id` is past this handle's page count — like
    /// [`MemDisk::page`], an unallocated read is a logic error in the
    /// index layer.
    pub fn read_into(&self, id: PageId, buf: &mut [u8]) {
        assert!(id.0 < self.num_pages, "read of unallocated page {id:?}");
        read_at(&self.file, buf, self.offset(id)).expect("reading page");
    }

    /// Writes `buf` to page `id` (`buf.len() == page_size()`).
    pub fn write_page(&mut self, id: PageId, buf: &[u8]) {
        assert!(id.0 < self.num_pages, "write of unallocated page {id:?}");
        write_at(&self.file, buf, self.offset(id)).expect("writing page");
    }
}

/// A pager's device: resident pages or a page file. A clone is a
/// reader's pin — the pages as they are now, sharing the device's
/// bytes and copying none. A [`MemDisk`] clone keeps its bytes however
/// the device is written later; a [`FileDisk`] clone shares the file,
/// which a later write changes in place, so a writer that must not
/// disturb a held pin moves to a new file first
/// ([`Pager::begin_epoch`](crate::Pager::begin_epoch)).
#[derive(Clone)]
pub(crate) enum Device {
    /// All pages resident in RAM; the pool tracks recency only.
    Mem(MemDisk),
    /// Pages live in the file; the pool's frames own whatever subset
    /// currently fits the budget.
    File(FileDisk),
}

impl Device {
    pub(crate) fn page_size(&self) -> usize {
        match self {
            Device::Mem(disk) => disk.page_size(),
            Device::File(file) => file.page_size(),
        }
    }

    pub(crate) fn num_pages(&self) -> u32 {
        match self {
            Device::Mem(disk) => disk.num_pages(),
            Device::File(file) => file.num_pages(),
        }
    }

    pub(crate) fn allocate(&mut self) -> PageId {
        match self {
            Device::Mem(disk) => disk.allocate(),
            Device::File(file) => file.allocate(),
        }
    }

    /// Copies page `id` into `buf` (`buf.len() == page_size()`).
    pub(crate) fn read_into(&self, id: PageId, buf: &mut [u8]) {
        match self {
            Device::Mem(disk) => buf.copy_from_slice(disk.page(id)),
            Device::File(file) => file.read_into(id, buf),
        }
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

    fn mem_with_pages(n: u32) -> MemDisk {
        let mut disk = MemDisk::new(128);
        for i in 0..n {
            let id = disk.allocate();
            let mut buf = vec![0u8; 128];
            buf[0] = i as u8 + 1;
            disk.write_page(id, &buf);
        }
        disk
    }

    #[test]
    fn memdisk_roundtrip() {
        let mut d = MemDisk::new(256);
        let (a, b) = (d.allocate(), d.allocate());
        assert_eq!(d.num_pages(), 2);
        assert!(d.page(a).iter().all(|&x| x == 0), "fresh pages are zeroes");
        let mut buf = vec![0u8; 256];
        buf[0] = 0xAB;
        buf[255] = 0xCD;
        d.write_page(b, &buf);
        assert_eq!(d.page(b), &buf[..]);
        assert!(d.page(a).iter().all(|&x| x == 0), "page a is untouched");
    }

    #[test]
    fn filedisk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ringjoin-filedisk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut d = FileDisk::create(dir.join("pages.bin"), 256).unwrap();
        let (a, b) = (d.allocate(), d.allocate());
        assert_eq!(d.num_pages(), 2);
        let mut out = vec![0u8; 256];
        d.read_into(a, &mut out);
        assert!(out.iter().all(|&x| x == 0), "fresh pages are zeroes");
        let mut buf = vec![0u8; 256];
        buf[0] = 0xAB;
        buf[255] = 0xCD;
        d.write_page(b, &buf);
        d.read_into(b, &mut out);
        assert_eq!(out, buf);
        d.read_into(a, &mut out);
        assert!(out.iter().all(|&x| x == 0), "page a is untouched");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn filedisk_read_unallocated_panics() {
        let dir = std::env::temp_dir().join(format!("ringjoin-filedisk2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.bin");
        let d = FileDisk::create(&path, 256).unwrap();
        let mut buf = vec![0u8; 256];
        d.read_into(PageId(0), &mut buf);
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
    fn a_clone_captures_written_pages() {
        let view = mem_with_pages(3).clone();
        assert_eq!(view.num_pages(), 3);
        assert_eq!(view.page_size(), 128);
        for i in 0..3u32 {
            assert_eq!(view.page(PageId(i))[0], i as u8 + 1);
        }
    }

    #[test]
    fn clones_share_the_table_until_a_write_copies_the_held_page() {
        let mut disk = MemDisk::new(128);
        let (a, b) = (disk.allocate(), disk.allocate());
        disk.write_page(a, &[1; 128]);
        let s1 = disk.clone();
        assert!(
            Arc::ptr_eq(&s1.pages, &disk.pages),
            "a clone copies nothing"
        );
        disk.write_page(a, &[2; 128]);
        let s2 = disk.clone();
        assert!(
            !Arc::ptr_eq(&s2.pages, &s1.pages),
            "a write leaves the held table alone"
        );
        assert_eq!(s1.page(a)[0], 1, "the old view keeps the old bytes");
        assert_eq!(s2.page(a)[0], 2);
        assert!(
            std::ptr::eq(s1.page(b), s2.page(b)),
            "an unwritten page is shared, not copied"
        );
        // A second write to a page no view holds edits it in place.
        drop(s2);
        let before = disk.page(a).as_ptr();
        disk.write_page(a, &[3; 128]);
        assert_eq!(disk.page(a).as_ptr(), before);
        disk.allocate();
        assert_eq!(s1.num_pages(), 2, "an allocation leaves the view alone");
        assert_eq!(disk.num_pages(), 3);
    }

    #[test]
    fn clones_are_shareable_across_threads() {
        let disk = mem_with_pages(8);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let view = disk.clone();
                scope.spawn(move || {
                    for i in 0..8u32 {
                        assert_eq!(view.page(PageId(i))[0], i as u8 + 1);
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
