//! The wire's pair-row codec on a real answer: the 40,476 pairs of the
//! full SP join (GNIS-like Schools `q` ⋈ PopulatedPlaces `p`, at the
//! served benchmark's scale), as a client receives them (`encode_pairs`
//! / `parse_pairs`) and as a shard worker tags them with their outer
//! leaf (`encode_tagged_pairs` / `parse_tagged_pairs`).
//!
//! Prints the row count and the bytes per row once; divide a mean by
//! the row count for the cost per row.

use criterion::{criterion_group, criterion_main, Criterion};
use ringjoin_core::{Engine, IndexKind, RcjPair};
use ringjoin_datagen::{gnis_like, GnisDataset};
use ringjoin_server::proto::{encode_pairs, encode_tagged_pairs, parse_pairs, parse_tagged_pairs};
use std::hint::black_box;

/// The SP full join's pairs, each tagged with its outer leaf.
fn sp_answer() -> Vec<(usize, RcjPair)> {
    let mut engine = Engine::new();
    engine
        .load("q", gnis_like(GnisDataset::Schools, 21_523))
        .index(IndexKind::Rtree);
    engine
        .load("p", gnis_like(GnisDataset::PopulatedPlaces, 22_247))
        .index(IndexKind::Rtree);
    let leaves: Vec<usize> = (0..engine.leaf_regions("q").unwrap().len()).collect();
    let plan = engine.query().join("q", "p").plan().unwrap();
    let mut tagged = Vec::new();
    plan.run_leaves(&leaves, &mut tagged);
    tagged
}

fn bench_codec(c: &mut Criterion) {
    let tagged = sp_answer();
    let pairs: Vec<RcjPair> = tagged.iter().map(|&(_, pr)| pr).collect();
    let plain = encode_pairs(&pairs);
    let tagged_rows = encode_tagged_pairs(&tagged);
    let rows = pairs.len() as f64;
    println!(
        "pair_codec: {} rows; {:.1} bytes/row plain, {:.1} bytes/row tagged",
        pairs.len(),
        plain.len() as f64 / rows,
        tagged_rows.len() as f64 / rows
    );

    let mut g = c.benchmark_group("pair_codec_sp");
    g.sample_size(20);
    g.bench_function("encode_pairs", |b| {
        b.iter(|| encode_pairs(black_box(&pairs)))
    });
    g.bench_function("parse_pairs", |b| {
        b.iter(|| parse_pairs(black_box(&plain)).unwrap())
    });
    g.bench_function("encode_tagged_pairs", |b| {
        b.iter(|| encode_tagged_pairs(black_box(&tagged)))
    });
    g.bench_function("parse_tagged_pairs", |b| {
        b.iter(|| parse_tagged_pairs(black_box(&tagged_rows)).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
