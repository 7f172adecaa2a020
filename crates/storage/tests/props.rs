//! Property-based tests for the storage layer: the pager must behave
//! like a plain array of pages regardless of buffer capacity, fault
//! accounting must obey the LRU inclusion property, and a reader pinned
//! on the pager's pages must keep reading them as they were.

use proptest::prelude::*;
use ringjoin_storage::{DiskStorage, FileDisk, MemDisk, PageId, PageSource, Pager, PooledPager};
use std::path::Path;

#[derive(Clone, Debug)]
enum Op {
    /// Write `byte` at `offset` of page `page % allocated`.
    Write(u8, u8, u8),
    /// Read page `page % allocated` and check it.
    Read(u8),
    /// Allocate a new page.
    Allocate,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(p, o, b)| Op::Write(p, o, b)),
        3 => any::<u8>().prop_map(Op::Read),
        1 => Just(Op::Allocate),
    ]
}

/// What happens to the pinned views before a batch opens.
#[derive(Clone, Debug)]
enum Views {
    /// Pin a view of the pages as they are.
    Pin,
    /// Drop the view at this index (modulo the views held), if any.
    Drop(u8),
    /// Leave the views as they are.
    Keep,
}

fn views() -> impl Strategy<Value = Views> {
    prop_oneof![
        2 => Just(Views::Pin),
        2 => any::<u8>().prop_map(Views::Drop),
        1 => Just(Views::Keep),
    ]
}

/// The names of the files in `dir`, sorted.
fn files_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pager is transparent: contents equal a reference model for
    /// any op sequence and any (tiny) buffer capacity.
    #[test]
    fn pager_is_transparent(ops in proptest::collection::vec(op(), 1..120), cap in 1usize..5) {
        const PS: usize = 128;
        let mut pager = Pager::new(MemDisk::new(PS), cap);
        let mut model: Vec<[u8; PS]> = Vec::new();
        let first = pager.allocate();
        prop_assert_eq!(first, PageId(0));
        model.push([0u8; PS]);

        for o in ops {
            match o {
                Op::Allocate => {
                    pager.allocate();
                    model.push([0u8; PS]);
                }
                Op::Write(p, off, b) => {
                    let idx = p as usize % model.len();
                    let off = off as usize % PS;
                    pager.write(PageId(idx as u32), |bytes| bytes[off] = b);
                    model[idx][off] = b;
                }
                Op::Read(p) => {
                    let idx = p as usize % model.len();
                    let expect = model[idx];
                    pager.read(PageId(idx as u32), |bytes| {
                        assert_eq!(bytes, &expect[..], "page {idx} diverged");
                    });
                }
            }
        }
        // Every page equals the model at the end.
        for (i, expect) in model.iter().enumerate() {
            pager.read(PageId(i as u32), |bytes| {
                assert_eq!(bytes, &expect[..]);
            });
        }
    }

    /// LRU inclusion property: for the same access string, a bigger
    /// buffer never faults more.
    #[test]
    fn bigger_buffer_never_faults_more(
        accesses in proptest::collection::vec(0u8..16, 1..300),
        small in 1usize..4,
        extra in 1usize..8,
    ) {
        let run = |cap: usize| {
            let mut pager = Pager::new(MemDisk::new(128), cap);
            for _ in 0..16 {
                pager.allocate();
            }
            pager.reset_stats();
            for &a in &accesses {
                pager.read(PageId(a as u32), |_| ());
            }
            pager.stats().read_faults
        };
        prop_assert!(run(small + extra) <= run(small));
    }

    /// FileDisk and MemDisk are interchangeable bit-for-bit.
    #[test]
    fn file_and_mem_disks_agree(ops in proptest::collection::vec(op(), 1..60)) {
        const PS: usize = 128;
        let dir = ringjoin_testsupport::scratch_dir("storage-props");
        let path = dir.join("disk.bin");

        let mut mem = MemDisk::new(PS);
        let mut file = FileDisk::create(&path, PS).unwrap();
        mem.allocate();
        file.allocate();
        let mut n = 1usize;

        for o in &ops {
            match o {
                Op::Allocate => {
                    mem.allocate();
                    file.allocate();
                    n += 1;
                }
                Op::Write(p, off, b) => {
                    let idx = PageId((*p as usize % n) as u32);
                    let mut buf = vec![0u8; PS];
                    mem.read_page(idx, &mut buf);
                    buf[*off as usize % PS] = *b;
                    mem.write_page(idx, &buf);
                    file.write_page(idx, &buf);
                }
                Op::Read(p) => {
                    let idx = PageId((*p as usize % n) as u32);
                    let mut a = vec![0u8; PS];
                    let mut b = vec![0u8; PS];
                    let mut c = vec![0u8; PS];
                    mem.read_page(idx, &mut a);
                    file.read_page(idx, &mut b);
                    // The reader side of the same handle: what a pinned
                    // reader of the file reads.
                    file.read_into(idx, &mut c);
                    prop_assert_eq!(&a, &b);
                    prop_assert_eq!(&a, &c);
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    /// One page space, one isolation rule. Batches of allocations and
    /// writes, each opened by `begin_epoch` as the engine opens an
    /// update, run against a resident pager and a spilled one, with
    /// views pinned and dropped between batches. Every pinned view
    /// keeps reading its pin-time bytes, through the pager's own pool,
    /// and a batch opened while no view is pinned writes in place: it
    /// creates no page file.
    #[test]
    fn pinned_views_keep_their_bytes(
        batches in proptest::collection::vec(
            (views(), proptest::collection::vec(op(), 0..16)),
            1..12,
        ),
    ) {
        const PS: usize = 128;
        for spilled in [false, true] {
            let dir = ringjoin_testsupport::scratch_dir("storage-pinned");
            let mut pager = Pager::new(MemDisk::new(PS), 2);
            pager.allocate();
            let mut model: Vec<[u8; PS]> = vec![[0u8; PS]];
            if spilled {
                pager.spill_to(dir.join("pages.rjp")).unwrap();
            }
            let mut pinned: Vec<(PageSource, u64, Vec<[u8; PS]>)> = Vec::new();
            for (views, ops) in &batches {
                match views {
                    Views::Pin => pinned.push((pager.page_source(), pager.epoch(), model.clone())),
                    Views::Drop(i) if !pinned.is_empty() => {
                        pinned.remove(*i as usize % pinned.len());
                    }
                    _ => {}
                }
                let files = files_in(&dir);
                pager.begin_epoch();
                for o in ops {
                    match o {
                        Op::Allocate => {
                            pager.allocate();
                            model.push([0u8; PS]);
                        }
                        Op::Write(p, off, b) => {
                            let idx = *p as usize % model.len();
                            let off = *off as usize % PS;
                            pager.write(PageId(idx as u32), |bytes| bytes[off] = *b);
                            model[idx][off] = *b;
                        }
                        Op::Read(p) => {
                            let idx = *p as usize % model.len();
                            let same = pager.read(PageId(idx as u32), |bytes| bytes == &model[idx][..]);
                            prop_assert!(same, "spilled={}: page {} diverged", spilled, idx);
                        }
                    }
                }
                if pinned.is_empty() {
                    prop_assert_eq!(
                        files_in(&dir),
                        files,
                        "spilled={}: a batch with no view pinned wrote a page file",
                        spilled
                    );
                }
                for (source, epoch, pages) in &pinned {
                    let mut reader = PooledPager::new(source.clone(), pager.pool().clone(), *epoch);
                    for (i, expect) in pages.iter().enumerate() {
                        let same = reader.read(PageId(i as u32), |bytes| bytes == &expect[..]);
                        prop_assert!(
                            same,
                            "spilled={}: the view pinned at epoch {} lost page {}",
                            spilled,
                            epoch,
                            i
                        );
                    }
                }
            }
            drop(pinned);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
