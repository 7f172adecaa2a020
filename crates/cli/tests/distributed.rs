//! Distributed serving against *real* worker processes: the
//! coordinator spawns `ringjoin serve --shard-of auto` children
//! (`WorkerSpec::Spawn`), and the suite SIGKILLs one mid-run — the
//! ISSUE's acceptance bar is that a killed worker with `--replicas 2`
//! never surfaces an error to the caller, and that the respawned,
//! replayed topology stays byte-identical to a local single engine.

use ringjoin_core::{Engine, IndexKind, RcjAlgorithm, RcjPair, RcjStats};
use ringjoin_rtree::Item;
use ringjoin_server::{ShardedEngine, TopologyConfig, WorkerSpec};
use std::path::{Path, PathBuf};
use std::time::Duration;

const REGION: f64 = 1000.0;

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
            let (x, y) = (next() * REGION, next() * REGION);
            Item::new(i as u64, ringjoin_geom::pt(x, y))
        })
        .collect()
}

fn reference(p: &[Item], q: &[Item]) -> (Vec<RcjPair>, RcjStats) {
    let mut engine = Engine::new();
    engine.load("p", p.to_vec()).index(IndexKind::Rtree);
    engine.load("q", q.to_vec()).index(IndexKind::Rtree);
    let out = engine.query().join("q", "p").collect().unwrap();
    (out.pairs, out.stats)
}

/// Slot `slot`'s page file of a disk-native topology over `base`.
fn slot_file(base: &Path, slot: usize) -> PathBuf {
    let mut path = base.as_os_str().to_owned();
    path.push(format!(".{slot}"));
    PathBuf::from(path)
}

/// Asserts that each of `slots` workers wrote its own page file, and
/// that every file equals slot 0's byte for byte.
fn assert_slot_files_identical(base: &Path, slots: usize) {
    let first = std::fs::read(slot_file(base, 0)).expect("slot 0's page file");
    assert!(!first.is_empty(), "slot 0's page file is empty");
    for slot in 1..slots {
        let bytes = std::fs::read(slot_file(base, slot))
            .unwrap_or_else(|e| panic!("slot {slot}'s page file: {e}"));
        assert!(
            bytes == first,
            "slot {slot}'s page file differs from slot 0's"
        );
    }
}

fn kill_9(pid: u32) {
    let killed = std::process::Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("spawn kill(1)");
    assert!(killed.success(), "kill -9 {pid} failed");
}

fn spawned_engine(shards: usize, replicas: usize) -> ShardedEngine {
    ShardedEngine::with_topology(TopologyConfig {
        shards,
        replicas,
        workers: WorkerSpec::Spawn {
            program: PathBuf::from(env!("CARGO_BIN_EXE_ringjoin")),
        },
        ..TopologyConfig::default()
    })
    .expect("spawned topology")
}

/// 2 shards x 2 replicas = 4 real child processes. One is SIGKILLed
/// between queries; with a spare replica per cell the client must
/// never see an error, and every answer — degraded, healing, healed —
/// must be byte-identical to the local reference.
#[test]
fn sigkilled_worker_with_a_spare_replica_is_invisible_to_the_client() {
    let p = lcg_items(120, 7);
    let q = lcg_items(120, 13);
    let (ref_pairs, ref_stats) = reference(&p, &q);

    let se = spawned_engine(2, 2);
    se.load("p", p, IndexKind::Rtree).unwrap();
    se.load("q", q, IndexKind::Rtree).unwrap();

    let out = se.join("q", "p", RcjAlgorithm::Auto, None).unwrap();
    assert_eq!(out.pairs, ref_pairs, "pre-kill join diverged");
    assert_eq!(out.stats, ref_stats, "pre-kill stats diverged");

    // SIGKILL the first worker process — no shutdown handshake, the
    // coordinator finds out the hard way.
    let victim = se.worker_pids()[0].expect("spawned slot 0 has a pid");
    kill_9(victim);

    // Every query during the outage and the heal must succeed and
    // match: that is the whole point of --replicas 2.
    for round in 0..6 {
        let out = se
            .join("q", "p", RcjAlgorithm::Auto, None)
            .unwrap_or_else(|e| {
                panic!("round {round} surfaced an error despite a spare replica: {e}")
            });
        assert_eq!(out.pairs, ref_pairs, "round {round} join diverged");
        assert_eq!(out.stats, ref_stats, "round {round} stats diverged");
    }

    assert!(
        se.wait_healthy(Duration::from_secs(30)),
        "supervisor never respawned the SIGKILLed worker"
    );
    assert!(
        se.replays_total() >= 2,
        "respawn must replay both LOAD records, saw {}",
        se.replays_total()
    );
    let pid_after = se.worker_pids()[0].expect("healed slot 0 has a pid");
    assert_ne!(pid_after, victim, "healed slot must be a fresh process");

    for _ in 0..4 {
        let out = se.join("q", "p", RcjAlgorithm::Auto, None).unwrap();
        assert_eq!(out.pairs, ref_pairs, "healed join diverged");
        assert_eq!(out.stats, ref_stats, "healed stats diverged");
    }
    se.shutdown();
}

/// A spawned 2x2 disk-native fleet: each worker process is started
/// with its own slot file and the coordinator's page budget, and every
/// slot file equals slot 0's — after the LOADs, and again after a
/// SIGKILLed worker is respawned and replayed. Every join, before and
/// after the heal, equals the local reference.
#[test]
fn spawned_disk_native_workers_spill_identical_slot_files_and_heal() {
    let p = lcg_items(150, 23);
    let q = lcg_items(150, 29);
    let (ref_pairs, ref_stats) = reference(&p, &q);

    let dir =
        std::env::temp_dir().join(format!("ringjoin-distributed-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("fleet.rjp");
    let se = ShardedEngine::with_topology(TopologyConfig {
        shards: 2,
        replicas: 2,
        workers: WorkerSpec::Spawn {
            program: PathBuf::from(env!("CARGO_BIN_EXE_ringjoin")),
        },
        on_disk: Some(base.clone()),
        buffer_pages: 16,
        ..TopologyConfig::default()
    })
    .expect("spawned disk-native topology");
    se.load("p", p, IndexKind::Rtree).unwrap();
    se.load("q", q, IndexKind::Rtree).unwrap();
    assert_slot_files_identical(&base, 4);
    assert!(!base.exists(), "no worker writes the unnumbered path");

    if cfg!(target_os = "linux") {
        for (slot, pid) in se.worker_pids().into_iter().enumerate() {
            let pid = pid.expect("a spawned slot has a pid");
            let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).expect("worker cmdline");
            let args: Vec<String> = cmdline
                .split(|&b| b == 0)
                .map(|arg| String::from_utf8_lossy(arg).into_owned())
                .collect();
            let value = |flag: &str| {
                let at = args.iter().position(|arg| arg == flag)?;
                args.get(at + 1).cloned()
            };
            assert_eq!(value("--buffer-pages").as_deref(), Some("16"), "{args:?}");
            assert_eq!(
                value("--on-disk").map(PathBuf::from),
                Some(slot_file(&base, slot)),
                "{args:?}"
            );
        }
    }

    let out = se.join("q", "p", RcjAlgorithm::Auto, None).unwrap();
    assert_eq!(out.pairs, ref_pairs, "disk-native join diverged");
    assert_eq!(out.stats, ref_stats, "disk-native stats diverged");

    let victim = se.worker_pids()[1].expect("spawned slot 1 has a pid");
    kill_9(victim);
    for round in 0..6 {
        let out = se
            .join("q", "p", RcjAlgorithm::Auto, None)
            .unwrap_or_else(|e| panic!("round {round} surfaced an error: {e}"));
        assert_eq!(out.pairs, ref_pairs, "round {round} join diverged");
        assert_eq!(out.stats, ref_stats, "round {round} stats diverged");
    }
    assert!(
        se.wait_healthy(Duration::from_secs(30)),
        "supervisor never respawned the SIGKILLed worker"
    );
    assert_ne!(
        se.worker_pids()[1],
        Some(victim),
        "slot 1 is a fresh process"
    );
    let out = se.join("q", "p", RcjAlgorithm::Auto, None).unwrap();
    assert_eq!(out.pairs, ref_pairs, "healed join diverged");
    assert_eq!(out.stats, ref_stats, "healed stats diverged");
    assert_slot_files_identical(&base, 4);
    se.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The CLI worker mode end to end: a real `ringjoin serve --shard-of
/// auto --addr-file ... --on-disk ...` child, discovered through its
/// address file and addressed via `WorkerSpec::Remote`, spills to the
/// page file it was started with and answers byte-identically.
#[test]
fn shard_of_worker_discovered_by_addr_file_answers_byte_identically() {
    let p = lcg_items(80, 17);
    let q = lcg_items(80, 19);
    let (ref_pairs, ref_stats) = reference(&p, &q);

    let addr_file = std::env::temp_dir().join(format!(
        "ringjoin-distributed-test-{}.addr",
        std::process::id()
    ));
    let page_file = std::env::temp_dir().join(format!(
        "ringjoin-distributed-test-{}.rjp",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&addr_file);
    let _ = std::fs::remove_file(&page_file);
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_ringjoin"))
        .args([
            "serve",
            "--shard-of",
            "auto",
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
        ])
        .arg(&addr_file)
        .arg("--on-disk")
        .arg(&page_file)
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn worker");

    // Poll the address file: the trailing newline marks a complete write.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let addr = loop {
        if let Ok(contents) = std::fs::read_to_string(&addr_file) {
            if let Some(addr) = contents.strip_suffix('\n') {
                break addr.trim().to_string();
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "worker never wrote its address file"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    let _ = std::fs::remove_file(&addr_file);

    let se = ShardedEngine::with_topology(TopologyConfig {
        shards: 1,
        workers: WorkerSpec::Remote(vec![addr]),
        ..TopologyConfig::default()
    })
    .expect("remote topology over the addr-file worker");
    se.load("p", p, IndexKind::Rtree).unwrap();
    se.load("q", q, IndexKind::Rtree).unwrap();
    assert!(page_file.is_file(), "the worker never wrote its page file");
    let out = se.join("q", "p", RcjAlgorithm::Auto, None).unwrap();
    assert_eq!(out.pairs, ref_pairs, "addr-file worker join diverged");
    assert_eq!(out.stats, ref_stats, "addr-file worker stats diverged");

    // Engine shutdown sends the worker SHUTDOWN; the process exits.
    se.shutdown();
    let exit_deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match child.try_wait() {
            Ok(Some(_)) => break,
            _ if std::time::Instant::now() >= exit_deadline => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("worker ignored SHUTDOWN");
            }
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    let _ = std::fs::remove_file(&page_file);
}
