//! Benchmarks of the two phases of the RCJ pipeline in isolation: the
//! filter (Algorithm 2 / 7) and the verification (Algorithm 3) — the
//! decomposition behind Figure 14.
//!
//! The inputs are the ones a join hands these phases: leaf groups of a
//! bulk-loaded outer tree `T_Q`, and the candidate pairs the bulk filter
//! produces for them. `filter_sp` runs the whole filter phase of an OBJ
//! join of the SP pair (GNIS-like Schools leaves against
//! PopulatedPlaces, at the served benchmark's scale) with every page
//! resident, so the kernel can be timed without the server.

use criterion::{criterion_group, criterion_main, Criterion};
use ringjoin_bench::harness::{Workload, DEFAULT_BUFFER_FRAC};
use ringjoin_core::{
    bulk_filter, filter, verify, IndexEntry, IndexProbe, RcjIndex, RcjPair, RcjStats,
};
use ringjoin_datagen::{gnis_like, uniform, GnisDataset};
use ringjoin_rtree::{Item, RTree};
use std::hint::black_box;

/// The item groups of every leaf of `tree`, in depth-first order, read
/// through a reader pinned on the tree's pager.
fn leaf_groups(tree: &RTree) -> Vec<Vec<Item>> {
    let probe = tree.probe();
    let mut pg = RcjIndex::pager(tree).borrow().reader(None);
    let mut stack = vec![probe.root()];
    let mut groups = Vec::new();
    while let Some(node) = stack.pop() {
        let mut entries = Vec::new();
        probe.expand(&mut pg, node, &mut entries);
        let mut items = Vec::new();
        for e in entries {
            match e {
                IndexEntry::Item(it) => items.push(it),
                IndexEntry::Node(child) => stack.push(child),
            }
        }
        if !items.is_empty() {
            groups.push(items);
        }
    }
    groups
}

/// A 20k × 20k uniform pair and one leaf group from the middle of `T_Q`.
fn uniform_pair() -> (Workload, Vec<Item>) {
    let w = Workload::build(uniform(20_000, 5), uniform(20_000, 6), DEFAULT_BUFFER_FRAC);
    let mut leaves = leaf_groups(&w.tq);
    let leaf = leaves.swap_remove(leaves.len() / 2);
    (w, leaf)
}

fn bench_filter(c: &mut Criterion) {
    let (w, leaf) = uniform_pair();
    let mut g = c.benchmark_group("filter_20k");
    g.bench_function("single_point", |b| {
        let q = leaf[0].point;
        b.iter(|| {
            let mut stats = RcjStats::default();
            black_box(filter(&w.tp, black_box(q), None, &mut stats))
        })
    });
    for (name, symmetric) in [("bulk_leaf", false), ("bulk_leaf_symmetric", true)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut stats = RcjStats::default();
                black_box(bulk_filter(
                    &w.tp,
                    black_box(&leaf),
                    symmetric,
                    false,
                    &mut stats,
                ))
            })
        });
    }
    g.finish();

    let sp = Workload::build(
        gnis_like(GnisDataset::PopulatedPlaces, 22_247),
        gnis_like(GnisDataset::Schools, 21_523),
        1.0,
    );
    let leaves = leaf_groups(&sp.tq);
    let mut g = c.benchmark_group("filter_sp");
    g.sample_size(10);
    g.bench_function("obj_every_leaf", |b| {
        b.iter(|| {
            let mut stats = RcjStats::default();
            for leaf in &leaves {
                black_box(bulk_filter(&sp.tp, leaf, true, false, &mut stats));
            }
            stats
        })
    });
    g.finish();
}

fn bench_verify(c: &mut Criterion) {
    let (w, leaf) = uniform_pair();
    // The candidate batch of one leaf group, as OBJ's filter emits it.
    let mut stats = RcjStats::default();
    let bulk = bulk_filter(&w.tp, &leaf, true, false, &mut stats);
    let pairs: Vec<RcjPair> = leaf
        .iter()
        .zip(&bulk.sets)
        .flat_map(|(&q, set)| set.iter().map(move |&p| RcjPair::new(p, q)))
        .collect();
    let mut g = c.benchmark_group("verify_20k");
    for (name, face) in [("face_rule_on", true), ("face_rule_off", false)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                // Both trees, as a join verifies each candidate batch.
                let mut alive = vec![true; pairs.len()];
                let mut stats = RcjStats::default();
                verify(&w.tq, black_box(&pairs), &mut alive, face, &mut stats);
                verify(&w.tp, black_box(&pairs), &mut alive, face, &mut stats);
                black_box(alive)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_filter, bench_verify);
criterion_main!(benches);
