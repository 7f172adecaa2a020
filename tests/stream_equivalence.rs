//! Streaming equivalence: `plan.stream()` must be **byte-identical** —
//! the same pairs, in the same order, with the same coordinates — to
//! `plan.collect().pairs`, across both index kinds, all three concrete
//! algorithms, and sequential vs. parallel executors. This is the
//! guarantee that lets a serving layer switch between the lazy,
//! bounded-memory stream and full materialisation without observable
//! difference.
//!
//! Plus the cost of a ranked query: a top-k plan's leaf pass, cut at the
//! `k`-th best squared diameter so far, must read strictly fewer index
//! pages than full materialisation, and a top-k past the result count
//! must cost no more than the join it returns.

use proptest::prelude::*;
use ringjoin::{
    pt, sort_by_diameter, uniform, Engine, IndexKind, IoStats, Item, RcjAlgorithm, RcjPair,
    RcjStats,
};

const REGION: f64 = 1000.0;
const ALGOS: [RcjAlgorithm; 3] = [RcjAlgorithm::Inj, RcjAlgorithm::Bij, RcjAlgorithm::Obj];
const KINDS: [IndexKind; 2] = [IndexKind::Rtree, IndexKind::Quadtree];
const THREADS: [usize; 2] = [1, 4];

fn to_items(v: &[(f64, f64)]) -> Vec<Item> {
    v.iter()
        .enumerate()
        .map(|(i, &(x, y))| Item::new(i as u64, pt(x, y)))
        .collect()
}

/// Uniform points over the region.
fn uniform_pts(max: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((0.0..REGION, 0.0..REGION), 4..max)
}

/// Clustered points: a few centers with tight offsets (box-clamped).
fn clustered_pts(max: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    (
        proptest::collection::vec((100.0..900.0f64, 100.0..900.0f64), 1..4),
        proptest::collection::vec((0usize..4, -30.0..30.0f64, -30.0..30.0f64), 4..max),
    )
        .prop_map(|(centers, offsets)| {
            offsets
                .into_iter()
                .map(|(c, dx, dy)| {
                    let (cx, cy) = centers[c % centers.len()];
                    (
                        (cx + dx).clamp(0.0, REGION - 1e-9),
                        (cy + dy).clamp(0.0, REGION - 1e-9),
                    )
                })
                .collect()
        })
}

/// For every index kind × algorithm × thread count: stream == collect,
/// byte for byte (RcjPair derives PartialEq over ids *and* coordinates).
fn assert_stream_equals_collect(ps: &[(f64, f64)], qs: &[(f64, f64)]) {
    for kind in KINDS {
        let mut engine = Engine::new();
        engine.load("p", to_items(ps)).index(kind);
        engine.load("q", to_items(qs)).index(kind);
        for algo in ALGOS {
            for threads in THREADS {
                let plan = engine
                    .query()
                    .join("q", "p")
                    .algorithm(algo)
                    .threads(threads)
                    .plan()
                    .unwrap();
                let collected = plan.collect();
                let streamed: Vec<RcjPair> = plan.stream().collect();
                assert_eq!(
                    streamed,
                    collected.pairs,
                    "{}/{}/{threads} threads: stream diverged from collect",
                    kind.name(),
                    algo.name(),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn stream_equals_collect_uniform(
        ps in uniform_pts(70),
        qs in uniform_pts(70),
    ) {
        assert_stream_equals_collect(&ps, &qs);
    }

    #[test]
    fn stream_equals_collect_clustered(
        ps in clustered_pts(70),
        qs in clustered_pts(70),
    ) {
        assert_stream_equals_collect(&ps, &qs);
    }

    #[test]
    fn self_join_stream_equals_collect(
        pts in uniform_pts(70),
    ) {
        for kind in KINDS {
            let mut engine = Engine::new();
            engine.load("d", to_items(&pts)).index(kind);
            for threads in THREADS {
                let plan = engine
                    .query()
                    .self_join("d")
                    .threads(threads)
                    .plan()
                    .unwrap();
                let collected = plan.collect();
                let streamed: Vec<RcjPair> = plan.stream().collect();
                prop_assert_eq!(&streamed, &collected.pairs);
            }
        }
    }
}

/// One query, one I/O count: after `set_buffer_pages`, a sequential
/// `collect()` and a drained `stream()` of the same plan read the same
/// pages, in the same order, through the pager's one LRU buffer — so
/// they report equal logical reads, hits and faults, for either index,
/// resident or on disk, whether the budget holds every page or not.
///
/// The served reader counts the same way: `Plan::run_leaves` over every
/// leaf position gives `collect()`'s pairs, counters and logical reads
/// (and, resident, its hits and faults; on disk its prefetcher moves
/// the split, but every read is still a hit or a fault). Two
/// interleaved position subsets merged by leaf tag give the same pairs
/// and merged counters, and so does a four-thread stream, with the same
/// logical reads.
#[test]
fn sequential_collect_and_stream_count_the_same_io() {
    let dir = std::env::temp_dir().join(format!("ringjoin-stream-io-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for kind in KINDS {
        for on_disk in [false, true] {
            let mut engine = Engine::new();
            engine.load("p", uniform(3000, 1)).index(kind);
            let load = engine.load("q", uniform(3000, 2));
            if on_disk {
                load.on_disk(dir.join(format!("{}.rjp", kind.name())))
                    .index(kind);
            } else {
                load.index(kind);
            }
            let pages = engine.pager().borrow().num_pages() as usize;
            let leaves = engine.leaf_regions("q").unwrap().len();
            let mut run = |budget: usize, mode: Mode| -> (Vec<RcjPair>, RcjStats, IoStats) {
                engine.set_buffer_pages(budget);
                let threads = if mode == Mode::Stream4 { 4 } else { 1 };
                let plan = engine
                    .query()
                    .join("q", "p")
                    .threads(threads)
                    .plan()
                    .unwrap();
                let (pairs, stats) = match mode {
                    Mode::Collect => {
                        let out = plan.collect();
                        (out.pairs, out.stats)
                    }
                    Mode::Stream | Mode::Stream4 => {
                        let mut stream = plan.stream();
                        let pairs: Vec<RcjPair> = stream.by_ref().collect();
                        (pairs, stream.stats())
                    }
                    Mode::Leaves | Mode::Subsets => {
                        let subsets: Vec<Vec<usize>> = if mode == Mode::Leaves {
                            vec![(0..leaves).collect()]
                        } else {
                            vec![
                                (1..leaves).step_by(2).collect(),
                                (0..leaves).step_by(2).collect(),
                            ]
                        };
                        let mut tagged: Vec<(usize, RcjPair)> = Vec::new();
                        let mut stats = RcjStats::default();
                        for subset in &subsets {
                            stats.merge(plan.run_leaves(subset, &mut tagged));
                        }
                        tagged.sort_by_key(|(leaf, _)| *leaf);
                        (tagged.into_iter().map(|(_, pr)| pr).collect(), stats)
                    }
                };
                let io = engine.pager().borrow().stats();
                (pairs, stats, io)
            };
            for budget in [pages, pages / 8] {
                let at = format!("{} on_disk={on_disk} budget={budget}/{pages}", kind.name());
                let (pairs, stats, collected) = run(budget, Mode::Collect);
                let (_, _, streamed) = run(budget, Mode::Stream);
                assert!(collected.read_faults > 0);
                assert_eq!(
                    (
                        streamed.logical_reads,
                        streamed.read_hits,
                        streamed.read_faults
                    ),
                    (
                        collected.logical_reads,
                        collected.read_hits,
                        collected.read_faults
                    ),
                    "{at}",
                );

                let (served_pairs, served_stats, served) = run(budget, Mode::Leaves);
                assert_eq!(served_pairs, pairs, "{at}: run_leaves pairs");
                assert_eq!(served_stats, stats, "{at}: run_leaves stats");
                assert_eq!(served.logical_reads, collected.logical_reads, "{at}");
                if on_disk {
                    assert_eq!(
                        served.read_hits + served.read_faults,
                        served.logical_reads,
                        "{at}: every served read is a hit or a fault"
                    );
                } else {
                    assert_eq!(
                        (served.read_hits, served.read_faults),
                        (collected.read_hits, collected.read_faults),
                        "{at}: run_leaves hits and faults"
                    );
                }

                let (merged_pairs, merged_stats, _) = run(budget, Mode::Subsets);
                assert_eq!(merged_pairs, pairs, "{at}: merged subset pairs");
                assert_eq!(merged_stats, stats, "{at}: merged subset stats");

                let (par_pairs, par_stats, par) = run(budget, Mode::Stream4);
                assert_eq!(par_pairs, pairs, "{at}: 4-thread stream pairs");
                assert_eq!(par_stats, stats, "{at}: 4-thread stream stats");
                assert_eq!(par.logical_reads, collected.logical_reads, "{at}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// How [`sequential_collect_and_stream_count_the_same_io`] runs a plan.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// `collect()` on one thread.
    Collect,
    /// A drained `stream()` on one thread.
    Stream,
    /// `run_leaves` over every leaf position in one call.
    Leaves,
    /// `run_leaves` over the odd, then the even positions.
    Subsets,
    /// A drained `stream()` on four threads.
    Stream4,
}

/// Ranked-query cost on both indexes: a top-5 plan must touch strictly
/// fewer index pages than materialising the whole join — the cut is
/// real, not cosmetic — and a top-k past the result count returns the
/// whole join in rank order for no more page reads and no more verified
/// candidates than the join itself.
#[test]
fn top_k_stream_reads_strictly_fewer_pages_than_full_join() {
    let n = 1500;
    let mk = |seed: u64| -> Vec<Item> {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| Item::new(i as u64, pt(next() * 10_000.0, next() * 10_000.0)))
            .collect()
    };
    for kind in KINDS {
        let mut engine = Engine::new();
        engine.load("p", mk(77)).index(kind);
        engine.load("q", mk(78)).index(kind);
        let pager = engine.pager();
        let run = |k: Option<usize>| {
            let before = pager.borrow().stats();
            let mut query = engine.query().join("q", "p").threads(1);
            if let Some(k) = k {
                query = query.top_k(k);
            }
            let out = query.plan().unwrap().collect();
            (out, pager.borrow().stats().since(before).logical_reads)
        };

        let (top, topk_reads) = run(Some(5));
        assert_eq!(top.pairs.len(), 5);
        for w in top.pairs.windows(2) {
            assert!(w[0].diameter() <= w[1].diameter());
        }

        let (full, full_reads) = run(None);
        assert!(full.pairs.len() > 5);
        assert!(
            topk_reads < full_reads,
            "{}: top-5 read {topk_reads} pages, full materialisation {full_reads}",
            kind.name()
        );

        let (all, all_reads) = run(Some(full.pairs.len() + 1));
        let mut ranked = full.pairs.clone();
        sort_by_diameter(&mut ranked);
        assert_eq!(all.pairs, ranked, "{}", kind.name());
        assert!(
            all_reads <= full_reads,
            "{}: top-all read {all_reads} pages, full materialisation {full_reads}",
            kind.name()
        );
        assert!(
            all.stats.candidate_pairs <= full.stats.candidate_pairs,
            "{}: top-all verified {} candidates, full materialisation {}",
            kind.name(),
            all.stats.candidate_pairs,
            full.stats.candidate_pairs
        );
    }
}
