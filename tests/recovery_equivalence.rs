//! Restartable-coordinator equivalence: a [`ShardedEngine`] built with
//! a `data_dir` and torn down mid-life must, when reopened on the same
//! directory, recover every dataset to its logged epoch and answer
//! joins **byte-identically** to (a) its pre-restart self and (b) a
//! single [`Engine`] that replays the identical mutation history — the
//! replayed-history oracle discipline of the live-pointset tests,
//! extended across a process boundary.
//!
//! Recovery is also shard-count-invariant (the WAL stores the logical
//! history, not the partition), and torn or truncated log tails recover
//! the longest valid prefix instead of failing.

use ringjoin::server::TopologyConfig;
use ringjoin::{pt, Engine, IndexKind, Item, Mutation, RcjAlgorithm, RcjPair, ShardedEngine};
use std::path::{Path, PathBuf};

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ringjoin-recovery-{label}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn lcg_items(n: usize, seed: u64, span: f64) -> Vec<Item> {
    let mut state = seed | 1;
    (0..n)
        .map(|i| {
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as f64 / (1u64 << 31) as f64 * span
            };
            let (x, y) = (next(), next());
            Item::new(i as u64, pt(x, y))
        })
        .collect()
}

/// Five deterministic mixed batches against ids loaded as 0..n, minting
/// fresh ids from 1000 up — inserts, deletes of loaded ids, upserts
/// moving both kinds.
fn batches(n: usize) -> Vec<Vec<Mutation>> {
    vec![
        vec![
            Mutation::Insert(Item::new(1000, pt(11.0, 23.0))),
            Mutation::Insert(Item::new(1001, pt(480.0, 77.0))),
        ],
        vec![Mutation::Delete(3), Mutation::Delete((n - 1) as u64)],
        vec![
            Mutation::Upsert(Item::new(1000, pt(250.0, 250.0))),
            Mutation::Upsert(Item::new(1002, pt(404.0, 101.0))),
        ],
        vec![
            Mutation::Insert(Item::new(1003, pt(33.0, 440.0))),
            Mutation::Delete(7),
        ],
        vec![Mutation::Upsert(Item::new(5, pt(270.0, 260.0)))],
    ]
}

fn durable_engine(dir: &Path, shards: usize, replicas: usize) -> ShardedEngine {
    ShardedEngine::with_topology(TopologyConfig {
        shards,
        replicas,
        data_dir: Some(dir.to_path_buf()),
        ..TopologyConfig::default()
    })
    .expect("engine with data_dir")
}

/// The replayed-history oracle: a single engine loading the same files
/// and applying the same batches through its own update path. Pair
/// *order* follows the mutation history, which is exactly why the
/// oracle replays instead of bulk-rebuilding the final pointset.
fn oracle_join(p: &[Item], q: &[Item], history: &[Vec<Mutation>]) -> Vec<RcjPair> {
    let mut engine = Engine::new();
    engine.load("p", p.to_vec()).index(IndexKind::Rtree);
    engine.load("q", q.to_vec()).index(IndexKind::Rtree);
    for ops in history {
        engine
            .update("p")
            .mutations(ops)
            .apply()
            .expect("oracle batch");
    }
    engine
        .query()
        .join("q", "p")
        .collect()
        .expect("oracle join")
        .pairs
}

fn wal_segments(dir: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir.join("wal"))
        .expect("wal dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    segs.sort();
    segs
}

#[test]
fn restarted_coordinator_recovers_epochs_and_answers_byte_identically() {
    let dir = scratch("restart");
    let p = lcg_items(60, 0xDA7A, 500.0);
    let q = lcg_items(40, 0x5EED, 500.0);
    let history = batches(60);

    let live_pairs = {
        let se = durable_engine(&dir, 2, 2);
        se.load("p", p.clone(), IndexKind::Rtree).unwrap();
        se.load("q", q.clone(), IndexKind::Rtree).unwrap();
        for ops in &history {
            se.update("p", ops.clone()).unwrap();
        }
        assert_eq!(se.wal_stats().0, 7, "2 loads + 5 update batches");
        assert_eq!(
            se.recovered_epochs(),
            0,
            "nothing to recover on a fresh dir"
        );
        se.join("q", "p", RcjAlgorithm::Auto, None).unwrap().pairs
    };

    // Reopen on the same directory with a DIFFERENT shard layout:
    // recovery replays the logical history and recomputes the
    // partition, so the answer — which is shard-count-invariant by the
    // serving contract — must not change.
    let se = durable_engine(&dir, 3, 1);
    assert_eq!(se.recovered_epochs(), 7, "every logged record replayed");
    assert_eq!(se.wal_stats().0, 7, "replay must not re-append records");
    let info = se.dataset("p").expect("p recovered");
    assert_eq!(info.epoch, 5);
    assert_eq!(info.items, 60 + 4 - 3, "4 minted, 3 deleted");
    assert_eq!(se.dataset("q").expect("q recovered").epoch, 0);

    let recovered_pairs = se.join("q", "p", RcjAlgorithm::Auto, None).unwrap().pairs;
    assert_eq!(recovered_pairs, live_pairs, "restart changed the answer");
    assert_eq!(
        recovered_pairs,
        oracle_join(&p, &q, &history),
        "recovered fleet diverged from the replayed-history oracle"
    );

    // The recovered log keeps accepting batches after the prefix.
    se.update("p", vec![Mutation::Delete(1000)]).unwrap();
    assert_eq!(se.wal_stats().0, 8);
    assert_eq!(se.dataset("p").unwrap().epoch, 6);
    drop(se);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn garbage_tail_is_tolerated_on_restart() {
    let dir = scratch("torn");
    let p = lcg_items(30, 0xBEEF, 300.0);
    let q = lcg_items(20, 0xF00D, 300.0);
    let history = batches(30);
    {
        let se = durable_engine(&dir, 2, 1);
        se.load("p", p.clone(), IndexKind::Rtree).unwrap();
        se.load("q", q.clone(), IndexKind::Rtree).unwrap();
        for ops in &history {
            se.update("p", ops.clone()).unwrap();
        }
    }
    // A torn tail: half a frame of garbage past the last valid record,
    // as a crash mid-append would leave.
    let last = wal_segments(&dir).pop().expect("one segment");
    let mut raw = std::fs::read(&last).unwrap();
    raw.extend_from_slice(&[0x99, 0x03, 0x00, 0x00, 0xAB]);
    std::fs::write(&last, &raw).unwrap();

    let se = durable_engine(&dir, 2, 1);
    assert_eq!(se.recovered_epochs(), 7, "the garbage tail costs nothing");
    assert_eq!(se.dataset("p").unwrap().epoch, 5);
    assert_eq!(
        se.join("q", "p", RcjAlgorithm::Auto, None).unwrap().pairs,
        oracle_join(&p, &q, &history)
    );
    drop(se);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_final_record_recovers_the_shorter_prefix() {
    let dir = scratch("truncated");
    let p = lcg_items(30, 0xCAFE, 300.0);
    let q = lcg_items(20, 0xD1CE, 300.0);
    let history = batches(30);
    {
        let se = durable_engine(&dir, 1, 1);
        se.load("p", p.clone(), IndexKind::Rtree).unwrap();
        se.load("q", q.clone(), IndexKind::Rtree).unwrap();
        for ops in &history {
            se.update("p", ops.clone()).unwrap();
        }
    }
    // Cut into the final record: the log now ends mid-frame, exactly a
    // crash between append and fsync. Recovery must land one epoch
    // earlier and the oracle over that shorter prefix must agree.
    let last = wal_segments(&dir).pop().expect("one segment");
    let len = std::fs::metadata(&last).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&last)
        .unwrap()
        .set_len(len - 3)
        .unwrap();

    let se = durable_engine(&dir, 2, 2);
    assert_eq!(se.recovered_epochs(), 6, "the cut record is gone");
    assert_eq!(se.dataset("p").unwrap().epoch, 4);
    assert_eq!(
        se.join("q", "p", RcjAlgorithm::Auto, None).unwrap().pairs,
        oracle_join(&p, &q, &history[..4]),
        "recovered fleet must match the oracle over the surviving prefix"
    );
    drop(se);
    std::fs::remove_dir_all(&dir).ok();
}
