//! Micro-benchmarks of the shared exact-LRU buffer pool: the hit, miss
//! and eviction paths that sit on every pooled page access, single-
//! threaded and under 8-way contention on its one lock.
//!
//! The pool is bookkeeping-only (bytes are served from the immutable
//! snapshot), so these numbers bound the *accounting overhead* the
//! shared-cache design adds to a page read — the quantity that must
//! stay small for the fault savings to be a net win.

use criterion::{criterion_group, criterion_main, Criterion};
use ringjoin_storage::{BufferPool, PageId};
use std::hint::black_box;

/// Pages touched per measured iteration of the scan benchmarks.
const SCAN: u32 = 1024;

fn bench_single_thread(c: &mut Criterion) {
    let mut g = c.benchmark_group("buffer_pool_1thread");

    // Pure hit path: every access finds its page resident.
    g.bench_function("hit_scan_warm", |b| {
        let pool = BufferPool::new(SCAN as usize * 2);
        for i in 0..SCAN {
            pool.access(PageId(i));
        }
        b.iter(|| {
            for i in 0..SCAN {
                black_box(pool.access(black_box(PageId(i))));
            }
        })
    });

    // Pure miss/eviction path: a cyclic scan over twice the capacity
    // defeats the LRU, so every access faults and evicts.
    g.bench_function("miss_evict_cyclic_scan", |b| {
        let pool = BufferPool::new(SCAN as usize / 2);
        b.iter(|| {
            for i in 0..SCAN {
                black_box(pool.access(black_box(PageId(i))));
            }
        })
    });

    g.finish();
}

fn bench_contended(c: &mut Criterion) {
    let mut g = c.benchmark_group("buffer_pool_8threads");
    g.sample_size(10);

    // 8 workers hammering one warm pool: measures lock contention on
    // the hit path (each worker scans the same pages).
    g.bench_function("hit_scan_warm_shared", |b| {
        let pool = BufferPool::new(SCAN as usize * 2);
        for i in 0..SCAN {
            pool.access(PageId(i));
        }
        b.iter(|| {
            std::thread::scope(|scope| {
                for _ in 0..8 {
                    let pool = pool.clone();
                    scope.spawn(move || {
                        for i in 0..SCAN {
                            black_box(pool.access(black_box(PageId(i))));
                        }
                    });
                }
            })
        })
    });

    // 8 workers evicting concurrently: the worst case for the lock
    // (every access mutates the recency list).
    g.bench_function("miss_evict_cyclic_shared", |b| {
        let pool = BufferPool::new(SCAN as usize / 2);
        b.iter(|| {
            std::thread::scope(|scope| {
                for t in 0..8u32 {
                    let pool = pool.clone();
                    scope.spawn(move || {
                        for i in 0..SCAN {
                            // Offset per thread so workers sweep
                            // different phases of the cycle.
                            black_box(pool.access(black_box(PageId((i + t * 128) % SCAN))));
                        }
                    });
                }
            })
        })
    });

    g.finish();
}

criterion_group!(benches, bench_single_thread, bench_contended);
criterion_main!(benches);
