//! The row codec on real payloads. Pair rows: the 40,476 pairs of the
//! full SP join (GNIS-like Schools `q` ⋈ PopulatedPlaces `p`, at the
//! served benchmark's scale), as a client receives them (`encode_pairs`
//! / `parse_pairs`) and as a shard worker tags them with their outer
//! leaf (`encode_tagged_pairs` / `parse_tagged_pairs`). Item rows: the
//! two SP `LOAD` requests that register `q` and `p` (both in one
//! iteration, through `Request::encode` / `Request::parse`).
//!
//! Prints the row counts and the bytes per row once, and each case's
//! mean per row (`ns/elem`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ringjoin_core::{Engine, IndexKind, RcjPair};
use ringjoin_datagen::{gnis_like, GnisDataset};
use ringjoin_geom::Item;
use ringjoin_server::proto::{
    encode_pairs, encode_tagged_pairs, parse_pairs, parse_tagged_pairs, Request,
};
use std::hint::black_box;

/// The SP pair's points: `q` (Schools) and `p` (PopulatedPlaces).
fn sp_items() -> [(&'static str, Vec<Item>); 2] {
    [
        ("q", gnis_like(GnisDataset::Schools, 21_523)),
        ("p", gnis_like(GnisDataset::PopulatedPlaces, 22_247)),
    ]
}

/// The SP full join's pairs, each tagged with its outer leaf.
fn sp_answer(items: &[(&str, Vec<Item>)]) -> Vec<(usize, RcjPair)> {
    let mut engine = Engine::new();
    for &(name, ref points) in items {
        engine.load(name, points.clone()).index(IndexKind::Rtree);
    }
    let leaves: Vec<usize> = (0..engine.leaf_regions("q").unwrap().len()).collect();
    let plan = engine.query().join("q", "p").plan().unwrap();
    let mut tagged = Vec::new();
    plan.run_leaves(&leaves, &mut tagged);
    tagged
}

fn bench_codec(c: &mut Criterion) {
    let items = sp_items();
    let tagged = sp_answer(&items);
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
    let loads: Vec<Request> = items
        .into_iter()
        .map(|(name, items)| Request::Load {
            name: name.to_string(),
            kind: IndexKind::Rtree,
            items,
        })
        .collect();
    let payloads: Vec<String> = loads.iter().map(Request::encode).collect();
    let load_rows: usize = loads
        .iter()
        .map(|load| match load {
            Request::Load { items, .. } => items.len(),
            _ => unreachable!("only loads"),
        })
        .sum();
    println!(
        "pair_codec: {load_rows} LOAD rows; {:.1} bytes/row",
        payloads.iter().map(String::len).sum::<usize>() as f64 / load_rows as f64
    );

    let mut g = c.benchmark_group("pair_codec_sp");
    g.sample_size(20);
    g.throughput(Throughput::Elements(pairs.len() as u64));
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
    g.throughput(Throughput::Elements(load_rows as u64));
    g.bench_function("encode_loads", |b| {
        b.iter(|| {
            black_box(&loads)
                .iter()
                .map(Request::encode)
                .collect::<Vec<_>>()
        })
    });
    g.bench_function("parse_loads", |b| {
        b.iter(|| {
            black_box(&payloads)
                .iter()
                .map(|payload| Request::parse(payload).unwrap())
                .collect::<Vec<_>>()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
