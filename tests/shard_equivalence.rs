//! Sharded vs unsharded **byte-identity**: a [`ShardedEngine`] must
//! answer join, self-join and top-k queries with exactly the output of
//! a single [`Engine`] over the same data — same pairs, same order,
//! same coordinates — across shard counts, index kinds, and data
//! shapes.
//!
//! For leaf-driven queries (join, self-join) the merged per-shard
//! [`RcjStats`] must also equal the single-engine counters exactly:
//! every leaf group is processed once by exactly one shard, so the
//! counters are a partition-invariant sum. Top-k counters are *not*
//! asserted equal — each shard's cut falls with its own pairs only —
//! but the answer itself is, and it is checked against the full join
//! sorted by rank, at a small `k` and at a `k` past the result count.

use proptest::prelude::*;
use ringjoin::{pt, sort_by_diameter, Engine, IndexKind, Item, RcjPair, RcjStats, ShardedEngine};

const REGION: f64 = 1000.0;
const KINDS: [IndexKind; 2] = [IndexKind::Rtree, IndexKind::Quadtree];
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

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

/// Gaussian-ish points: box-clamped offsets around a single center.
fn gaussian_pts(max: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    (
        (200.0..800.0f64, 200.0..800.0f64),
        proptest::collection::vec((-150.0..150.0f64, -150.0..150.0f64), 4..max),
    )
        .prop_map(|((cx, cy), offsets)| {
            offsets
                .into_iter()
                .map(|(dx, dy)| {
                    (
                        (cx + dx * dx.abs() / 150.0).clamp(0.0, REGION - 1e-9),
                        (cy + dy * dy.abs() / 150.0).clamp(0.0, REGION - 1e-9),
                    )
                })
                .collect()
        })
}

/// Clustered points: a few tight centers.
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

/// One of the three data shapes, chosen by the case.
fn any_pts(max: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop_oneof![uniform_pts(max), gaussian_pts(max), clustered_pts(max)]
}

/// Single-engine reference: (pairs, stats) for the full join, and its
/// top-k for a small `k`. Both of the engine's top-k answers, that `k`
/// and one past the result count, are checked against the full join
/// sorted by rank.
fn reference_join(
    p: &[Item],
    q: &[Item],
    kind: IndexKind,
) -> (Vec<RcjPair>, RcjStats, Vec<RcjPair>) {
    let mut engine = Engine::new();
    engine.load("p", p.to_vec()).index(kind);
    engine.load("q", q.to_vec()).index(kind);
    let out = engine.query().join("q", "p").collect().unwrap();
    let top_k = |k: usize| -> Vec<RcjPair> {
        let plan = engine.query().join("q", "p").top_k(k).plan().unwrap();
        plan.stream().collect()
    };
    let k = 8.min(out.pairs.len().max(1));
    let top = top_k(k);
    let mut ranked = out.pairs.clone();
    sort_by_diameter(&mut ranked);
    assert_eq!(top, ranked[..k.min(ranked.len())], "top-{k} ({kind:?})");
    assert_eq!(top_k(ranked.len() + 1), ranked, "top-all ({kind:?})");
    (out.pairs, out.stats, top)
}

proptest! {
    /// Join: pairs, order and merged stats byte-identical across
    /// {1,2,4} shards and both index kinds.
    #[test]
    fn sharded_join_is_byte_identical(
        pv in any_pts(60),
        qv in any_pts(60),
        kind_idx in 0usize..2,
    ) {
        let kind = KINDS[kind_idx];
        let (p, q) = (to_items(&pv), to_items(&qv));
        let (ref_pairs, ref_stats, ref_top) = reference_join(&p, &q, kind);

        for shards in SHARD_COUNTS {
            let se = ShardedEngine::new(shards).unwrap();
            se.load("p", p.clone(), kind).unwrap();
            se.load("q", q.clone(), kind).unwrap();

            let out = se.join("q", "p", ringjoin::RcjAlgorithm::Auto, None).unwrap();
            prop_assert_eq!(&out.pairs, &ref_pairs, "join diverged at {} shards ({:?})", shards, kind);
            prop_assert_eq!(out.stats, ref_stats, "join stats diverged at {} shards ({:?})", shards, kind);

            let k = ref_top.len();
            if k > 0 {
                let top = se.top_k("q", "p", k).unwrap();
                prop_assert_eq!(&top.pairs, &ref_top, "top-{} diverged at {} shards ({:?})", k, shards, kind);
            }
            let mut ranked = ref_pairs.clone();
            sort_by_diameter(&mut ranked);
            let all = se.top_k("q", "p", ranked.len() + 1).unwrap();
            prop_assert_eq!(&all.pairs, &ranked, "top-all diverged at {} shards ({:?})", shards, kind);
        }
    }

    /// Self-join: each unordered pair once (smaller id first), same
    /// order and stats as the single engine; self top-k agrees with the
    /// single-engine diameter stream.
    #[test]
    fn sharded_self_join_is_byte_identical(
        v in any_pts(70),
        kind_idx in 0usize..2,
    ) {
        let kind = KINDS[kind_idx];
        let items = to_items(&v);
        let mut engine = Engine::new();
        engine.load("d", items.clone()).index(kind);
        let reference = engine.query().self_join("d").collect().unwrap();
        let top_k = |k: usize| -> Vec<RcjPair> {
            let plan = engine.query().self_join("d").top_k(k).plan().unwrap();
            plan.stream().collect()
        };
        let k = 6.min(reference.pairs.len().max(1));
        let ref_top = top_k(k);
        let mut ranked = reference.pairs.clone();
        sort_by_diameter(&mut ranked);
        prop_assert_eq!(&ref_top[..], &ranked[..k.min(ranked.len())]);
        prop_assert_eq!(&top_k(ranked.len() + 1), &ranked);

        for shards in SHARD_COUNTS {
            let se = ShardedEngine::new(shards).unwrap();
            se.load("d", items.clone(), kind).unwrap();
            let out = se.self_join("d", ringjoin::RcjAlgorithm::Auto, None).unwrap();
            prop_assert_eq!(&out.pairs, &reference.pairs, "self-join diverged at {} shards ({:?})", shards, kind);
            prop_assert_eq!(out.stats, reference.stats, "self-join stats diverged at {} shards ({:?})", shards, kind);
            for pr in &out.pairs {
                prop_assert!(pr.p.id < pr.q.id);
            }
            if k > 0 {
                let top = se.top_k_self("d", k).unwrap();
                prop_assert_eq!(&top.pairs, &ref_top, "self top-{} diverged at {} shards ({:?})", k, shards, kind);
            }
            let all = se.top_k_self("d", ranked.len() + 1).unwrap();
            prop_assert_eq!(&all.pairs, &ranked, "self top-all diverged at {} shards ({:?})", shards, kind);
        }
    }

    /// Concurrent sessions: every method of [`ShardedEngine`] takes
    /// `&self`, so several sessions can share one engine behind an
    /// `Arc`. Three threads interleaving join and top-k must each get
    /// the single-engine answer byte for byte, every round — the
    /// serving-path invariant the multi-session server rests on.
    #[test]
    fn concurrent_sessions_are_byte_identical(
        pv in any_pts(50),
        qv in any_pts(50),
        kind_idx in 0usize..2,
    ) {
        let kind = KINDS[kind_idx];
        let (p, q) = (to_items(&pv), to_items(&qv));
        let (ref_pairs, _, ref_top) = reference_join(&p, &q, kind);

        let se = std::sync::Arc::new(ShardedEngine::new(3).unwrap());
        se.load("p", p.clone(), kind).unwrap();
        se.load("q", q.clone(), kind).unwrap();

        let mut mismatch: Option<String> = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|session| {
                    let se = std::sync::Arc::clone(&se);
                    let (ref_pairs, ref_top) = (&ref_pairs, &ref_top);
                    scope.spawn(move || -> Result<(), String> {
                        for round in 0..2 {
                            let out = se
                                .join("q", "p", ringjoin::RcjAlgorithm::Auto, None)
                                .map_err(|e| e.to_string())?;
                            if &out.pairs != ref_pairs {
                                return Err(format!(
                                    "session {session} round {round}: join diverged"
                                ));
                            }
                            if !ref_top.is_empty() {
                                let top = se
                                    .top_k("q", "p", ref_top.len())
                                    .map_err(|e| e.to_string())?;
                                if &top.pairs != ref_top {
                                    return Err(format!(
                                        "session {session} round {round}: top-k diverged"
                                    ));
                                }
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            for h in handles {
                if let Err(e) = h.join().expect("session thread panicked") {
                    mismatch.get_or_insert(e);
                }
            }
        });
        prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
    }
}

// ---------------------------------------------------------------------
// Remote workers: the same oracle across the process hop
// ---------------------------------------------------------------------

use ringjoin::{Server, ServerHandle, ShardedEngine as SE, TopologyConfig, WorkerSpec};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Deterministic pseudo-random items (inline LCG — keeps the remote
/// tests deterministic without touching proptest's RNG budget).
fn lcg_items(n: usize, seed: u64) -> Vec<Item> {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let x = next() * REGION;
            let y = next() * REGION;
            Item::new(i as u64, pt(x, y))
        })
        .collect()
}

/// A sharded engine whose workers are in-process TCP shard-worker
/// servers, provisioned on demand — so the supervisor's respawn path
/// provisions *fresh* workers after a kill, exactly like relaunching a
/// process. Returns the engine and the registry of worker handles in
/// provisioning order (cell-major: `cell * replicas + replica`).
fn provisioned(shards: usize, replicas: usize) -> (SE, Arc<Mutex<Vec<ServerHandle>>>) {
    let handles: Arc<Mutex<Vec<ServerHandle>>> = Arc::default();
    let registry = Arc::clone(&handles);
    let spec = WorkerSpec::Provision(Arc::new(move |_cell, _rep| {
        let server = Server::bind_worker("127.0.0.1:0", 0, None).map_err(|e| e.to_string())?;
        let addr = server.local_addr().to_string();
        registry.lock().unwrap().push(server.handle());
        std::thread::spawn(move || {
            let _ = server.serve();
        });
        Ok(addr)
    }));
    let engine = SE::with_topology(TopologyConfig {
        shards,
        replicas,
        workers: spec,
        ..TopologyConfig::default()
    })
    .expect("provisioned topology");
    (engine, handles)
}

/// Remote: cross-process (well, cross-socket) workers answer byte for
/// byte what the single local engine answers, across {1,2,4} shards
/// and both index kinds — merge keys survive the wire.
#[test]
fn remote_workers_match_the_local_engine_byte_for_byte() {
    for kind in KINDS {
        let p = lcg_items(110, 11);
        let q = lcg_items(110, 23);
        let (ref_pairs, ref_stats, ref_top) = reference_join(&p, &q, kind);
        for shards in SHARD_COUNTS {
            let (se, _fleet) = provisioned(shards, 1);
            se.load("p", p.clone(), kind).unwrap();
            se.load("q", q.clone(), kind).unwrap();
            let out = se
                .join("q", "p", ringjoin::RcjAlgorithm::Auto, None)
                .unwrap();
            assert_eq!(
                out.pairs, ref_pairs,
                "remote join diverged at {shards} shards ({kind:?})"
            );
            assert_eq!(
                out.stats, ref_stats,
                "remote stats diverged at {shards} shards ({kind:?})"
            );
            if !ref_top.is_empty() {
                let top = se.top_k("q", "p", ref_top.len()).unwrap();
                assert_eq!(
                    top.pairs, ref_top,
                    "remote top-k diverged at {shards} shards ({kind:?})"
                );
            }
        }
    }
}

/// Degraded then healed, with a spare replica: killing one worker of a
/// 2-replica cell must be invisible — the very next query fails over
/// and stays byte-identical, and after the supervisor respawns and
/// replays the dataset log, the healed topology still answers
/// byte-identically.
#[test]
fn degraded_then_healed_replica_is_byte_identical_and_errorless() {
    let kind = IndexKind::Rtree;
    let p = lcg_items(100, 31);
    let q = lcg_items(100, 47);
    let (ref_pairs, ref_stats, _) = reference_join(&p, &q, kind);
    for shards in SHARD_COUNTS {
        let (se, fleet) = provisioned(shards, 2);
        se.load("p", p.clone(), kind).unwrap();
        se.load("q", q.clone(), kind).unwrap();

        // Kill replica 0 of cell 0 (provisioning order is cell-major).
        fleet.lock().unwrap()[0].kill();

        // Degraded: the spare answers; the client never sees an error.
        let out = se
            .join("q", "p", ringjoin::RcjAlgorithm::Auto, None)
            .expect("a 2-replica cell must survive one kill");
        assert_eq!(
            out.pairs, ref_pairs,
            "degraded join diverged at {shards} shards"
        );
        assert_eq!(
            out.stats, ref_stats,
            "degraded stats diverged at {shards} shards"
        );

        // Healed: the supervisor respawned and replayed both datasets.
        assert!(
            se.wait_healthy(Duration::from_secs(20)),
            "supervisor never healed the killed replica at {shards} shards"
        );
        assert!(se.replays_total() >= 2, "heal must replay the dataset log");
        for _ in 0..2 * shards {
            // Enough queries to round-robin onto the healed slot.
            let out = se
                .join("q", "p", ringjoin::RcjAlgorithm::Auto, None)
                .unwrap();
            assert_eq!(
                out.pairs, ref_pairs,
                "healed join diverged at {shards} shards"
            );
            assert_eq!(
                out.stats, ref_stats,
                "healed stats diverged at {shards} shards"
            );
        }
    }
}

/// Degraded without a spare: at `--replicas 1` a killed worker
/// surfaces as a *clean* ShardGone error — never a wrong answer — and
/// after healing the answers are byte-identical again.
#[test]
fn single_replica_kill_is_a_clean_error_then_heals() {
    let kind = IndexKind::Quadtree;
    let p = lcg_items(90, 53);
    let q = lcg_items(90, 59);
    let (ref_pairs, ref_stats, _) = reference_join(&p, &q, kind);
    let (se, fleet) = provisioned(2, 1);
    se.load("p", p.clone(), kind).unwrap();
    se.load("q", q.clone(), kind).unwrap();
    fleet.lock().unwrap()[0].kill();

    match se.join("q", "p", ringjoin::RcjAlgorithm::Auto, None) {
        Ok(out) => {
            // The kill may land after the query completed its cell —
            // a correct answer is acceptable, a wrong one never.
            assert_eq!(
                out.pairs, ref_pairs,
                "degraded single-replica join must not lie"
            );
        }
        Err(e) => {
            let msg = e.to_string();
            assert!(
                msg.contains("gone"),
                "expected a clean shard-gone error, got: {msg}"
            );
        }
    }

    assert!(se.wait_healthy(Duration::from_secs(20)), "heal timed out");
    assert!(se.replays_total() >= 2);
    let out = se
        .join("q", "p", ringjoin::RcjAlgorithm::Auto, None)
        .unwrap();
    assert_eq!(out.pairs, ref_pairs, "healed join diverged");
    assert_eq!(out.stats, ref_stats, "healed stats diverged");
}

/// Live updates across the process hop, surviving a kill: mutation
/// batches land on remote workers (`SUPDATE`), keep answers
/// byte-identical to an identically mutated single engine, and —
/// because the heal log carries update records — a worker respawned
/// after SIGKILL replays the *mutations*, not just the loads, before
/// serving again.
#[test]
fn remote_updates_replay_into_healed_workers() {
    use ringjoin::Mutation;
    let kind = IndexKind::Rtree;
    let p = lcg_items(100, 71);
    let q = lcg_items(100, 73);
    let batch = vec![
        Mutation::Insert(Item::new(800, pt(REGION * 1.5, REGION * 0.25))),
        Mutation::Delete(7),
        Mutation::Upsert(Item::new(12, pt(421.125, 77.75))),
    ];
    // The oracle: a single engine that applied the same history.
    let mut reference = Engine::new();
    reference.load("p", p.clone()).index(kind);
    reference.load("q", q.clone()).index(kind);
    reference.update("p").mutations(&batch).apply().unwrap();
    let ref_out = reference.query().join("q", "p").collect().unwrap();

    let (se, fleet) = provisioned(2, 2);
    se.load("p", p, kind).unwrap();
    se.load("q", q, kind).unwrap();
    let info = se.update("p", batch).unwrap();
    assert_eq!(info.epoch, 1);
    let out = se
        .join("q", "p", ringjoin::RcjAlgorithm::Auto, None)
        .unwrap();
    assert_eq!(out.pairs, ref_out.pairs, "remote update diverged");
    assert_eq!(out.stats, ref_out.stats);

    // Kill a replica, then apply a second batch while degraded: the
    // update fan-out touches every slot, so it both trips the failure
    // detection on the dead worker and lands epoch 2 on the survivors.
    let replays_before = se.replays_total();
    fleet.lock().unwrap()[0].kill();
    let mut oracle_batch2 = reference.update("p");
    oracle_batch2 = oracle_batch2.delete([21]);
    oracle_batch2.apply().unwrap();
    let ref_out = reference.query().join("q", "p").collect().unwrap();
    let info = se.update("p", vec![Mutation::Delete(21)]).unwrap();
    assert_eq!(info.epoch, 2, "degraded update still advances the epoch");

    // The respawned worker must replay LOAD p, LOAD q *and* both
    // update records (4 log records) before flipping up.
    assert!(se.wait_healthy(Duration::from_secs(20)), "heal timed out");
    assert!(
        se.replays_total() >= replays_before + 4,
        "heal must replay the mutation log, not just the loads"
    );
    assert_eq!(se.dataset("p").unwrap().epoch, 2, "epoch survives the heal");
    for _ in 0..4 {
        // Enough queries to round-robin onto the healed slot.
        let out = se
            .join("q", "p", ringjoin::RcjAlgorithm::Auto, None)
            .unwrap();
        assert_eq!(out.pairs, ref_out.pairs, "healed worker diverged");
        assert_eq!(out.stats, ref_out.stats);
    }
}

proptest! {
    /// Property form of the remote oracle: random data shapes through
    /// 2 remote shards stay byte-identical to the local single engine.
    #[test]
    fn remote_sharding_is_byte_identical(
        pv in any_pts(40),
        qv in any_pts(40),
        kind_idx in 0usize..2,
    ) {
        let kind = KINDS[kind_idx];
        let (p, q) = (to_items(&pv), to_items(&qv));
        let (ref_pairs, ref_stats, ref_top) = reference_join(&p, &q, kind);
        let (se, _fleet) = provisioned(2, 1);
        se.load("p", p, kind).unwrap();
        se.load("q", q, kind).unwrap();
        let out = se.join("q", "p", ringjoin::RcjAlgorithm::Auto, None).unwrap();
        prop_assert_eq!(&out.pairs, &ref_pairs, "remote join diverged");
        prop_assert_eq!(out.stats, ref_stats, "remote stats diverged");
        if !ref_top.is_empty() {
            let top = se.top_k("q", "p", ref_top.len()).unwrap();
            prop_assert_eq!(&top.pairs, &ref_top, "remote top-k diverged");
        }
    }
}
