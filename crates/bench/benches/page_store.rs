//! Micro-benchmarks of the disk-native read path: what a page access
//! costs when it misses the pool and reads the page file (cold fault),
//! when it finds the bytes already framed (hit), and when a prefetched
//! frame absorbs what would have been a fault (prefetch hit).
//!
//! The gap between `pool_fault_cyclic` and `prefetch_then_load_cyclic`
//! is the latency the scheduler-driven prefetcher can hide per page;
//! `pool_hit_warm` bounds the bookkeeping floor it can never beat.

use criterion::{criterion_group, criterion_main, Criterion};
use ringjoin_storage::{BufferPool, FileDisk, PageId};
use std::hint::black_box;
use std::path::PathBuf;

/// The paper's page size: 1 KB.
const PAGE_SIZE: usize = 1024;
/// Pages in the benchmark's page file (1 MB), touched once per
/// measured iteration of the scan benchmarks.
const SCAN: u32 = 1024;

/// Writes a `SCAN`-page file of deterministic junk; the handle that
/// wrote it is the store the readers read.
fn store() -> (FileDisk, PathBuf) {
    let path = std::env::temp_dir().join(format!(
        "ringjoin-bench-page-store-{}.rjp",
        std::process::id()
    ));
    let mut file = FileDisk::create(&path, PAGE_SIZE).expect("create benchmark page file");
    let mut page = vec![0u8; PAGE_SIZE];
    for i in 0..SCAN {
        let id = file.allocate();
        for (j, b) in page.iter_mut().enumerate() {
            *b = ((i as usize * PAGE_SIZE + j) % 251) as u8;
        }
        file.write_page(id, &page);
    }
    (file, path)
}

fn bench_page_store(c: &mut Criterion) {
    let (store, path) = store();
    let mut g = c.benchmark_group("page_store");

    // Raw pread path, no pool: the floor cost of one page file read.
    g.bench_function("raw_read_scan", |b| {
        let mut buf = vec![0u8; PAGE_SIZE].into_boxed_slice();
        b.iter(|| {
            for i in 0..SCAN {
                store.read_into(black_box(PageId(i)), &mut buf);
                black_box(&buf);
            }
        })
    });

    // Every load faults: a cyclic scan over twice the pool's capacity
    // defeats the LRU, so each access evicts a frame and reads
    // the file on demand.
    g.bench_function("pool_fault_cyclic", |b| {
        let pool = BufferPool::new(SCAN as usize / 2);
        b.iter(|| {
            for i in 0..SCAN {
                black_box(pool.load(0, black_box(PageId(i)), &store));
            }
        })
    });

    // Every load hits: the pool holds the whole file, so after the
    // warm-up pass each access is one locked probe plus an `Arc`
    // clone of the frame's bytes.
    g.bench_function("pool_hit_warm", |b| {
        let pool = BufferPool::new(SCAN as usize * 2);
        for i in 0..SCAN {
            pool.load(0, PageId(i), &store);
        }
        b.iter(|| {
            for i in 0..SCAN {
                black_box(pool.load(0, black_box(PageId(i)), &store));
            }
        })
    });

    // Every load is a prefetch hit: the same fault-heavy cyclic scan,
    // but each page is staged into its frame first — the load then
    // claims the prefetched bytes instead of reading the file.
    g.bench_function("prefetch_then_load_cyclic", |b| {
        let pool = BufferPool::new(SCAN as usize / 2);
        b.iter(|| {
            for i in 0..SCAN {
                pool.prefetch(0, PageId(i), &store);
                black_box(pool.load(0, black_box(PageId(i)), &store));
            }
        })
    });

    g.finish();
    std::fs::remove_file(&path).ok();
}

criterion_group!(benches, bench_page_store);
criterion_main!(benches);
