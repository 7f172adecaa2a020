//! Every `RcjStats` counter of INJ, BIJ and OBJ, pinned on real-like
//! data.
//!
//! The join's counters are part of its contract: pairs, pair order and
//! `RcjStats` stay byte-identical across refactors of the filter and the
//! verification (the candidate sets are defined by the paper's lemmas,
//! not by how a kernel evaluates them). This suite runs joins and
//! self-joins over a small GNIS-like SP pair — Schools as the outer
//! dataset, PopulatedPlaces as the inner — on the R*-tree and on the
//! quadtree, fresh and after seeded mutation batches (R* reinsertion and
//! condensing; quadtree splits and overflow chains), and compares every
//! counter with a recorded constant.
//!
//! The engine's executor follows `RINGJOIN_THREADS`; a parallel run
//! reports the sequential counters exactly, so one table serves every
//! thread count. If a change moves a counter on purpose, the failure
//! message prints the whole table in this file's syntax.

use ringjoin::{
    gnis_like, pt, Engine, GnisDataset, IndexKind, Item, Mutation, RcjAlgorithm, RcjStats,
};

/// Outer dataset size (GNIS-like Schools).
const Q_POINTS: usize = 6_000;
/// Inner dataset size (GNIS-like PopulatedPlaces).
const P_POINTS: usize = 6_500;
/// Mutation batches applied to each dataset for the "updated" state.
const BATCHES: u64 = 3;
/// Operations per mutation batch.
const BATCH_OPS: usize = 600;
/// Exact copies of one point each batch inserts: more than a quadtree
/// bucket holds (42 items on a 1 KB page), so the bucket splits down to
/// the maximum depth and chains overflow pages.
const DUPLICATES: usize = 100;

const ALGOS: [RcjAlgorithm; 3] = [RcjAlgorithm::Inj, RcjAlgorithm::Bij, RcjAlgorithm::Obj];

/// SplitMix64: a seeded stream for the mutation batches.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A jitter in `[-span, span)`.
    fn jitter(&mut self, span: f64) -> f64 {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * span
    }
}

fn engine(kind: IndexKind) -> Engine {
    let mut engine = Engine::new();
    engine
        .load("q", gnis_like(GnisDataset::Schools, Q_POINTS))
        .index(kind);
    engine
        .load("p", gnis_like(GnisDataset::PopulatedPlaces, P_POINTS))
        .index(kind);
    engine
}

/// One seeded batch: inserts near existing points (plus a stack of exact
/// duplicates), deletes, and upserts that move existing points.
fn batch(live: &[Item], next_id: &mut u64, rng: &mut Rng) -> Vec<Mutation> {
    let mut ops = Vec::with_capacity(BATCH_OPS);
    let mut touched = std::collections::HashSet::new();
    let stack = live[rng.below(live.len())].point;
    for _ in 0..DUPLICATES {
        ops.push(Mutation::Insert(Item::new(*next_id, stack)));
        *next_id += 1;
    }
    while ops.len() < BATCH_OPS {
        let it = live[rng.below(live.len())];
        match rng.below(3) {
            0 => {
                let p = pt(it.point.x + rng.jitter(30.0), it.point.y + rng.jitter(30.0));
                ops.push(Mutation::Insert(Item::new(*next_id, p)));
                *next_id += 1;
            }
            1 if touched.insert(it.id) => ops.push(Mutation::Delete(it.id)),
            2 if touched.insert(it.id) => {
                let p = pt(it.point.x + rng.jitter(60.0), it.point.y + rng.jitter(60.0));
                ops.push(Mutation::Upsert(Item::new(it.id, p)));
            }
            _ => {}
        }
    }
    ops
}

fn apply_batches(engine: &mut Engine, seed: u64) {
    let mut rng = Rng(seed);
    for name in ["q", "p"] {
        let mut next_id = 1 << 32;
        for _ in 0..BATCHES {
            let live = engine.dataset_items(name).unwrap();
            let ops = batch(&live, &mut next_id, &mut rng);
            engine.update(name).mutations(&ops).apply().unwrap();
        }
    }
}

/// The counters of the join `q ⋈ p` and the self-join of `q`, per
/// algorithm, in `ALGOS` order.
fn counters(engine: &Engine) -> Vec<RcjStats> {
    let mut out = Vec::new();
    for self_join in [false, true] {
        for algo in ALGOS {
            let query = engine.query().algorithm(algo);
            let query = if self_join {
                query.self_join("q")
            } else {
                query.join("q", "p")
            };
            out.push(query.collect().unwrap().stats);
        }
    }
    out
}

type Row = (&'static str, &'static str, &'static str, RcjStats);

const fn stats(
    candidate_pairs: u64,
    result_pairs: u64,
    filter_heap_pops: u64,
    filter_node_reads: u64,
    verify_node_visits: u64,
) -> RcjStats {
    RcjStats {
        candidate_pairs,
        result_pairs,
        filter_heap_pops,
        filter_node_reads,
        verify_node_visits,
    }
}

/// `(index, state, query, counters)`, in the order [`all_counters`]
/// produces them.
const EXPECTED: &[Row] = &[
    (
        "rtree",
        "fresh",
        "INJ join",
        stats(25822, 11262, 1005993, 46169, 46913),
    ),
    (
        "rtree",
        "fresh",
        "BIJ join",
        stats(55800, 11262, 110634, 4635, 3615),
    ),
    (
        "rtree",
        "fresh",
        "OBJ join",
        stats(19238, 11262, 91774, 3830, 3601),
    ),
    (
        "rtree",
        "fresh",
        "INJ self-join",
        stats(25941, 11675, 918765, 43243, 27458),
    ),
    (
        "rtree",
        "fresh",
        "BIJ self-join",
        stats(52994, 11675, 96496, 4129, 2184),
    ),
    (
        "rtree",
        "fresh",
        "OBJ self-join",
        stats(26001, 11675, 81326, 3449, 2157),
    ),
    (
        "rtree",
        "updated",
        "INJ join",
        stats(28445, 11582, 1125944, 50398, 50179),
    ),
    (
        "rtree",
        "updated",
        "BIJ join",
        stats(60738, 11582, 118475, 4910, 3944),
    ),
    (
        "rtree",
        "updated",
        "OBJ join",
        stats(22138, 11582, 100414, 4143, 3920),
    ),
    (
        "rtree",
        "updated",
        "INJ self-join",
        stats(55142, 25890, 1087552, 48955, 30368),
    ),
    (
        "rtree",
        "updated",
        "BIJ self-join",
        stats(86045, 25890, 112808, 4688, 2420),
    ),
    (
        "rtree",
        "updated",
        "OBJ self-join",
        stats(56013, 25890, 94179, 3902, 2391),
    ),
    (
        "quadtree",
        "fresh",
        "INJ join",
        stats(25822, 11262, 637262, 71365, 79653),
    ),
    (
        "quadtree",
        "fresh",
        "BIJ join",
        stats(42852, 11262, 99760, 10036, 9977),
    ),
    (
        "quadtree",
        "fresh",
        "OBJ join",
        stats(18250, 11262, 88033, 8881, 9952),
    ),
    (
        "quadtree",
        "fresh",
        "INJ self-join",
        stats(25941, 11675, 600897, 68484, 45841),
    ),
    (
        "quadtree",
        "fresh",
        "BIJ self-join",
        stats(41058, 11675, 92345, 9718, 5830),
    ),
    (
        "quadtree",
        "fresh",
        "OBJ self-join",
        stats(25353, 11675, 80187, 8340, 5797),
    ),
    (
        "quadtree",
        "updated",
        "INJ join",
        stats(28445, 11582, 666230, 77384, 92893),
    ),
    (
        "quadtree",
        "updated",
        "BIJ join",
        stats(44178, 11582, 105107, 11315, 11451),
    ),
    (
        "quadtree",
        "updated",
        "OBJ join",
        stats(20443, 11582, 94115, 10159, 11396),
    ),
    (
        "quadtree",
        "updated",
        "INJ self-join",
        stats(55142, 25890, 658602, 88088, 60830),
    ),
    (
        "quadtree",
        "updated",
        "BIJ self-join",
        stats(69314, 25890, 102797, 12303, 7476),
    ),
    (
        "quadtree",
        "updated",
        "OBJ self-join",
        stats(54450, 25890, 90811, 10866, 7390),
    ),
];

fn all_counters() -> Vec<Row> {
    let mut rows = Vec::new();
    for (kind, kind_name) in [
        (IndexKind::Rtree, "rtree"),
        (IndexKind::Quadtree, "quadtree"),
    ] {
        let mut engine = engine(kind);
        for state in ["fresh", "updated"] {
            if state == "updated" {
                apply_batches(&mut engine, 0x5eed_0018);
            }
            let queries = [
                "INJ join",
                "BIJ join",
                "OBJ join",
                "INJ self-join",
                "BIJ self-join",
                "OBJ self-join",
            ];
            for (query, stats) in queries.into_iter().zip(counters(&engine)) {
                rows.push((kind_name, state, query, stats));
            }
        }
    }
    rows
}

fn render(rows: &[Row]) -> String {
    let mut out = String::from("const EXPECTED: &[Row] = &[\n");
    for (kind, state, query, s) in rows {
        out.push_str(&format!(
            "    (\"{kind}\", \"{state}\", \"{query}\", stats({}, {}, {}, {}, {})),\n",
            s.candidate_pairs,
            s.result_pairs,
            s.filter_heap_pops,
            s.filter_node_reads,
            s.verify_node_visits
        ));
    }
    out.push_str("];");
    out
}

#[test]
fn join_counters_match_the_recorded_table() {
    let got = all_counters();
    assert!(
        got.as_slice() == EXPECTED,
        "join counters moved; the current table is:\n{}",
        render(&got)
    );
}
