//! The three workloads and their seeded inputs.
//!
//! All three serve the SP pair of the paper's real-data experiments at
//! scale 0.125: GNIS-like Schools as the outer dataset `q` (21,523
//! points) and PopulatedPlaces as the inner dataset `p` (22,247 points).
//! The points are fixed; the seed decides everything a client chooses —
//! window centres, sizes and `maxd`, which ops are `TOPK`, and every
//! mutation batch.

use crate::stats::Rng;
use ringjoin_datagen::{gnis_like, GnisDataset};
use ringjoin_geom::{pt, Item, Point, Rect};
use ringjoin_server::{Mutation, RingBounds};

/// Outer dataset size (GNIS Schools x 0.125).
pub const Q_POINTS: usize = 21_523;
/// Inner dataset size (GNIS PopulatedPlaces x 0.125).
pub const P_POINTS: usize = 22_247;
/// `k` of the ring-window workload's zoomed-out `TOPK` view.
pub const TOPK_K: usize = 10;
/// One op in this many of the ring-window sequence is a `TOPK`.
const TOPK_EVERY: usize = 10;
/// Data points a ring-window view is zoomed to (sets ~400 pairs).
const WINDOW_POINTS: usize = 300;
/// Points per live-durable mutation batch.
pub const BATCH: usize = 8;
/// Mutation batches in the live-durable history recovered at set-up.
pub const HISTORY_BATCHES: usize = 600;
/// First id minted by the history; timed-phase batches mint from
/// `ID_BASE + HISTORY_ID_SPAN` so the two never collide.
const ID_BASE: u64 = 1 << 40;
const HISTORY_ID_SPAN: u64 = 1 << 30;

/// The outer (`q`) and inner (`p`) pointsets.
pub fn datasets() -> (Vec<Item>, Vec<Item>) {
    (
        gnis_like(GnisDataset::Schools, Q_POINTS),
        gnis_like(GnisDataset::PopulatedPlaces, P_POINTS),
    )
}

/// The workloads, by their `--workload` name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Resident, 2 shards, repeated full `JOIN q p`.
    FullAnswer,
    /// On-disk behind a small pool, 1 shard, bounded `JOIN`s plus `TOPK`.
    RingWindow,
    /// Durable, resident, 1 shard: mutation batch + bounded `JOIN` rounds.
    LiveDurable,
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "full-answer" => Some(Workload::FullAnswer),
            "ring-window" => Some(Workload::RingWindow),
            "live-durable" => Some(Workload::LiveDurable),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FullAnswer => "full-answer",
            Workload::RingWindow => "ring-window",
            Workload::LiveDurable => "live-durable",
        }
    }

    /// Shard count of the served topology (never more than the cores
    /// the benchmark is sized for).
    pub fn shards(self) -> usize {
        match self {
            Workload::FullAnswer => 2,
            _ => 1,
        }
    }

    /// Ops per second of `--seconds` the timed phase runs. The count is
    /// fixed from the seconds, never from a clock, so two builds always
    /// do the same work; the rates are what the workload sustains on a
    /// 2-core x86-64 container, so one run takes about `--seconds`.
    fn ops_per_second(self) -> f64 {
        match self {
            Workload::FullAnswer => 4.0,
            Workload::RingWindow => 40.0,
            Workload::LiveDurable => 80.0,
        }
    }

    /// Timed ops for a `--seconds` budget (at least 30, so the tail
    /// percentile has samples beyond it).
    pub fn timed_ops(self, seconds: u64) -> usize {
        ((seconds as f64 * self.ops_per_second()).round() as usize).max(30)
    }

    /// The traced pass runs the read rungs of every this-many-th timed
    /// op (all ops still go over the wire), keeping a traced run within
    /// a few times an untraced one. Ring-window samples more densely, so
    /// its in-process pools see most of the served window stream.
    pub fn ladder_every(self) -> usize {
        match self {
            Workload::RingWindow => 2,
            _ => 3,
        }
    }

    /// Untimed ops run first, to fill caches and the plan cache.
    pub fn warmup_ops(self) -> usize {
        match self {
            Workload::FullAnswer => 2,
            _ => 30,
        }
    }

    /// How many times a run repeats the set-up; `setup_s` is their
    /// median.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::LiveDurable => 9,
            _ => 11,
        }
    }
}

/// One client operation.
#[derive(Clone, Debug)]
pub enum Op {
    /// `JOIN q p`, bounded or not.
    Join(Option<RingBounds>),
    /// `TOPK q p k`.
    TopK(usize),
    /// One live-durable round: a homogeneous mutation batch against `p`,
    /// then a bounded `JOIN q p` whose window covers the batch.
    Round {
        /// The batch (one verb: all inserts, all upserts or all deletes).
        batch: Vec<Mutation>,
        /// The read-your-writes window.
        bounds: RingBounds,
    },
}

/// The seeded op sequence of a workload: `warmup + timed` ops.
pub fn ops(workload: Workload, seed: u64, count: usize, points: &[Point]) -> Vec<Op> {
    match workload {
        Workload::FullAnswer => vec![Op::Join(None); count],
        Workload::RingWindow => ring_windows(seed, count, points),
        Workload::LiveDurable => rounds(seed, 2, ID_BASE + HISTORY_ID_SPAN, count, points)
            .into_iter()
            .map(|(batch, bounds)| Op::Round { batch, bounds })
            .collect(),
    }
}

/// The live-durable history written before set-up: the same round
/// shape as the timed phase, from its own stream and id range.
pub fn history(seed: u64, points: &[Point]) -> Vec<Vec<Mutation>> {
    rounds(seed, 3, ID_BASE, HISTORY_BATCHES, points)
        .into_iter()
        .map(|(batch, _)| batch)
        .collect()
}

/// Mostly bounded joins with exactly one op in [`TOPK_EVERY`] a `TOPK`,
/// at seeded positions. A window is a square centred on a seeded data
/// point, zoomed like a map view to its neighbourhood: its half-side and
/// `maxd` are the distance to the centre's [`WINDOW_POINTS`]-th nearest
/// data point times a seeded factor, so every window holds a similar
/// number of points (and pairs) whether it lands in a city or in the
/// countryside.
fn ring_windows(seed: u64, count: usize, points: &[Point]) -> Vec<Op> {
    let mut rng = Rng::new(seed, 1);
    let mut out = Vec::with_capacity(count);
    let mut dist2 = vec![0.0; points.len()];
    for block in 0..count.div_ceil(TOPK_EVERY) {
        let topk_at = rng.below(TOPK_EVERY);
        for slot in 0..TOPK_EVERY {
            if block * TOPK_EVERY + slot == count {
                break;
            }
            if slot == topk_at {
                out.push(Op::TopK(TOPK_K));
                continue;
            }
            let c = points[rng.below(points.len())];
            for (d, p) in dist2.iter_mut().zip(points) {
                *d = (p.x - c.x).powi(2) + (p.y - c.y).powi(2);
            }
            let (_, r2, _) = dist2.select_nth_unstable_by(WINDOW_POINTS, f64::total_cmp);
            let r = r2.sqrt();
            let half = r * rng.range(0.8, 1.25);
            out.push(Op::Join(Some(RingBounds {
                bounds: Rect::new(pt(c.x - half, c.y - half), pt(c.x + half, c.y + half)),
                max_diameter: r * rng.range(0.8, 1.25),
            })));
        }
    }
    out
}

/// Rounds in cycles of three sharing one anchor: INSERT `BATCH` fresh
/// ids near the anchor, UPSERT the same ids to new points near it, then
/// DELETE them. The rotation follows `client mutate-stream`; keeping a
/// cycle's ids local keeps every round's window small, and retiring
/// them keeps the dataset's size flat however long the run.
fn rounds(
    seed: u64,
    stream: u64,
    id_base: u64,
    count: usize,
    points: &[Point],
) -> Vec<(Vec<Mutation>, RingBounds)> {
    const SPREAD: f64 = 80.0;
    let mut rng = Rng::new(seed, stream);
    let mut out = Vec::with_capacity(count);
    let mut next_id = id_base;
    let mut anchor = points[0];
    let mut ids: Vec<u64> = Vec::new();
    for round in 0..count {
        let near = |rng: &mut Rng, a: Point| {
            pt(
                a.x + rng.range(-SPREAD, SPREAD),
                a.y + rng.range(-SPREAD, SPREAD),
            )
        };
        let batch: Vec<Mutation> = match round % 3 {
            0 => {
                anchor = points[rng.below(points.len())];
                ids = (next_id..next_id + BATCH as u64).collect();
                next_id += BATCH as u64;
                ids.iter()
                    .map(|&id| Mutation::Insert(Item::new(id, near(&mut rng, anchor))))
                    .collect()
            }
            1 => ids
                .iter()
                .map(|&id| Mutation::Upsert(Item::new(id, near(&mut rng, anchor))))
                .collect(),
            _ => ids.iter().map(|&id| Mutation::Delete(id)).collect(),
        };
        let bounds = RingBounds {
            bounds: Rect::new(
                pt(anchor.x - SPREAD, anchor.y - SPREAD),
                pt(anchor.x + SPREAD, anchor.y + SPREAD),
            ),
            max_diameter: rng.range(60.0, 140.0),
        };
        out.push((batch, bounds));
    }
    out
}
