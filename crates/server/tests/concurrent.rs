//! The concurrency suite: M sessions interleaving JOIN/TOPK/STATS
//! against one server must each receive replies byte-identical to a
//! solo session against a single in-process engine — and pipelined
//! request ids must map replies to requests exactly.

use ringjoin_core::{Engine, IndexKind, RcjAlgorithm, RcjPair, RcjStream};
use ringjoin_geom::{pt, Item};
use ringjoin_server::proto::Request;
use ringjoin_server::{Client, Server, ServerConfig, ShardedEngine};

fn items(n: usize, seed: u64, span: f64) -> Vec<Item> {
    ringjoin_testsupport::lcg_points(n, seed, span)
        .into_iter()
        .enumerate()
        .map(|(i, (x, y))| Item::new(i as u64, pt(x, y)))
        .collect()
}

struct Reference {
    join: Vec<RcjPair>,
    top_k: Vec<RcjPair>,
    k: usize,
}

fn reference(ps: &[Item], qs: &[Item], k: usize) -> Reference {
    let mut engine = Engine::new();
    engine.load("p", ps.to_vec()).index(IndexKind::Rtree);
    engine.load("q", qs.to_vec()).index(IndexKind::Rtree);
    let join = engine.query().join("q", "p").collect().unwrap().pairs;
    let top_k: Vec<RcjPair> = {
        let plan = engine.query().join("q", "p").top_k(k).plan().unwrap();
        let s: RcjStream = plan.stream();
        s.collect()
    };
    Reference { join, top_k, k }
}

/// M concurrent sessions, each interleaving JOIN, TOPK and STATS:
/// every session's every answer is byte-identical to the solo
/// in-process reference, no matter how the sessions interleave.
#[test]
fn concurrent_sessions_match_a_solo_engine_byte_for_byte() {
    const SESSIONS: usize = 4;
    const ROUNDS: usize = 3;
    let ps = items(300, 71, 1800.0);
    let qs = items(300, 73, 1800.0);
    let reference = reference(&ps, &qs, 7);

    let server = Server::bind(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_sessions: SESSIONS + 2,
            ..ServerConfig::default()
        },
        ShardedEngine::new(3).unwrap(),
    )
    .unwrap();
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.serve().unwrap());

    let mut loader = Client::connect(addr).unwrap();
    loader.load("p", IndexKind::Rtree, &ps).unwrap();
    loader.load("q", IndexKind::Rtree, &qs).unwrap();

    std::thread::scope(|scope| {
        for session in 0..SESSIONS {
            let reference = &reference;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..ROUNDS {
                    let out = client.join("q", "p", RcjAlgorithm::Auto, None).unwrap();
                    assert_eq!(
                        out.pairs, reference.join,
                        "session {session} round {round}: join diverged"
                    );
                    let top = client.top_k("q", "p", reference.k).unwrap();
                    assert_eq!(
                        top.pairs, reference.top_k,
                        "session {session} round {round}: top-k diverged"
                    );
                    let stats = client.stats().unwrap();
                    assert!(stats.contains("shards 3"), "{stats}");
                }
            });
        }
    });

    loader.shutdown().unwrap();
    handle.join().unwrap();
}

/// Pipelining: a batch of heterogeneous requests sent back to back
/// comes home with in-order ids, each reply matching its request —
/// join-shaped replies equal the reference, STATS replies carry fields.
#[test]
fn pipelined_request_ids_map_replies_to_requests() {
    let ps = items(200, 79, 1200.0);
    let qs = items(200, 83, 1200.0);
    let reference = reference(&ps, &qs, 5);

    let server = Server::bind(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        },
        ShardedEngine::new(2).unwrap(),
    )
    .unwrap();
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.serve().unwrap());

    let mut client = Client::connect(addr).unwrap();
    client.load("p", IndexKind::Rtree, &ps).unwrap();
    client.load("q", IndexKind::Rtree, &qs).unwrap();

    let join = Request::Join {
        outer: "q".to_string(),
        inner: "p".to_string(),
        algo: RcjAlgorithm::Auto,
        bounds: None,
    };
    let top_k = Request::TopK {
        outer: "q".to_string(),
        inner: "p".to_string(),
        k: reference.k,
    };
    let batch = [
        join.clone(),
        top_k.clone(),
        Request::Stats,
        join.clone(),
        top_k,
        join,
    ];

    // Low-level check: ids come back in send order.
    let mut ids = Vec::new();
    for req in &batch {
        ids.push(client.send(req).unwrap());
    }
    assert_eq!(ids.windows(2).filter(|w| w[1] != w[0] + 1).count(), 0);
    for &id in &ids {
        let (reply_id, outcome) = client.recv().unwrap();
        assert_eq!(reply_id, Some(id), "reply out of order");
        assert!(outcome.is_ok());
    }

    // High-level check: pipeline() returns decoded replies in order,
    // and each decodes to the reference answer for its request shape.
    let replies = client.pipeline(&batch).unwrap();
    assert_eq!(replies.len(), batch.len());
    for (i, reply) in replies.iter().enumerate() {
        match &batch[i] {
            Request::Join { .. } => {
                let out = Client::decode_output(reply).unwrap();
                assert_eq!(out.pairs, reference.join, "pipelined join {i}");
            }
            Request::TopK { .. } => {
                let out = Client::decode_output(reply).unwrap();
                assert_eq!(out.pairs, reference.top_k, "pipelined top-k {i}");
            }
            Request::Stats => {
                assert!(reply.field("shards").is_some());
            }
            _ => unreachable!(),
        }
    }

    // A pipelined batch with a failing request surfaces that error
    // after the batch drains — and the session remains usable.
    let bad = [
        Request::Stats,
        Request::Join {
            outer: "q".to_string(),
            inner: "missing".to_string(),
            algo: RcjAlgorithm::Auto,
            bounds: None,
        },
        Request::Stats,
    ];
    let err = client.pipeline(&bad).unwrap_err();
    assert!(err.to_string().contains("unknown dataset"), "{err}");
    let out = client.join("q", "p", RcjAlgorithm::Auto, None).unwrap();
    assert_eq!(out.pairs, reference.join);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Concurrent sessions must also serialize correctly against LOAD: a
/// dataset loaded mid-stream becomes queryable by every session, while
/// queries on the already-loaded datasets keep their byte-identity.
#[test]
fn load_during_concurrent_queries_is_serialized() {
    let ps = items(220, 89, 1400.0);
    let qs = items(220, 97, 1400.0);
    let rs = items(120, 101, 1400.0);
    let reference = reference(&ps, &qs, 6);

    let server = Server::bind(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        },
        ShardedEngine::new(2).unwrap(),
    )
    .unwrap();
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.serve().unwrap());

    let mut loader = Client::connect(addr).unwrap();
    loader.load("p", IndexKind::Rtree, &ps).unwrap();
    loader.load("q", IndexKind::Rtree, &qs).unwrap();

    std::thread::scope(|scope| {
        let reference = &reference;
        for _ in 0..3 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..4 {
                    let out = client.join("q", "p", RcjAlgorithm::Auto, None).unwrap();
                    assert_eq!(out.pairs, reference.join);
                }
            });
        }
        let rs = &rs;
        scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.load("r", IndexKind::Quadtree, rs).unwrap();
            // Immediately queryable by the session that loaded it...
            let out = client.self_join("r", RcjAlgorithm::Auto, None).unwrap();
            assert!(out.stats.candidate_pairs > 0);
        });
    });

    // ...and by a session that connects afterwards.
    let mut after = Client::connect(addr).unwrap();
    let stats = after.stats().unwrap();
    assert!(stats.contains("dataset r"), "{stats}");
    assert!(stats.contains("datasets 3"), "{stats}");

    after.shutdown().unwrap();
    handle.join().unwrap();
}
