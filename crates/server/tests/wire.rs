//! End-to-end wire tests: a real `Server` on an ephemeral port, driven
//! by the blocking `Client` over TCP, checked against an in-process
//! single `Engine` — the same round trip CI's server smoke job performs
//! with the CLI.

use ringjoin_core::{Engine, IndexKind, RcjAlgorithm};
use ringjoin_geom::{pt, Item, Rect};
use ringjoin_server::{Client, RingBounds, Server, ServerConfig};
use std::collections::BTreeSet;

fn items(n: usize, seed: u64, span: f64) -> Vec<Item> {
    ringjoin_testsupport::lcg_points(n, seed, span)
        .into_iter()
        .enumerate()
        .map(|(i, (x, y))| Item::new(i as u64, pt(x, y)))
        .collect()
}

/// Starts a server on an ephemeral port, returns its address and the
/// serve-thread handle (joined after SHUTDOWN).
fn start(shards: usize) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    start_with(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards,
        ..ServerConfig::default()
    })
}

fn start_with(config: ServerConfig) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind(&config).expect("bind ephemeral");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));
    (addr, handle)
}

#[test]
fn tcp_round_trip_matches_in_process_engine() {
    let ps = items(240, 41, 1500.0);
    let qs = items(240, 43, 1500.0);
    let mut engine = Engine::new();
    engine.load("p", ps.clone()).index(IndexKind::Rtree);
    engine.load("q", qs.clone()).index(IndexKind::Rtree);
    let local = engine.query().join("q", "p").collect().unwrap();

    let (addr, handle) = start(3);
    let mut client = Client::connect(addr).unwrap();
    client.load("p", IndexKind::Rtree, &ps).unwrap();
    client.load("q", IndexKind::Rtree, &qs).unwrap();

    // JOIN: byte-identical pairs in identical order, stats agree.
    let remote = client.join("q", "p", RcjAlgorithm::Auto, None).unwrap();
    assert_eq!(remote.pairs, local.pairs);
    assert_eq!(remote.stats.result_pairs, local.stats.result_pairs);
    assert_eq!(remote.stats.candidate_pairs, local.stats.candidate_pairs);
    assert!(remote.shards_queried >= 1);

    // TOPK: ascending diameter, a prefix-consistent answer.
    let k = 9usize.min(local.pairs.len());
    let top = client.top_k("q", "p", k).unwrap();
    assert_eq!(top.pairs.len(), k);
    for w in top.pairs.windows(2) {
        assert!(w[0].diameter() <= w[1].diameter());
    }

    // Bounds-restricted join: the post-filtered local answer.
    let rb = RingBounds {
        bounds: Rect::new(pt(300.0, 300.0), pt(1000.0, 1000.0)),
        max_diameter: 120.0,
    };
    let restricted = client.join("q", "p", RcjAlgorithm::Auto, Some(rb)).unwrap();
    let expect: Vec<_> = local
        .pairs
        .iter()
        .copied()
        .filter(|p| rb.admits(p))
        .collect();
    assert_eq!(restricted.pairs, expect);

    // EXPLAIN carries the plan and the sharding postscript.
    let text = client
        .explain("q", Some("p"), RcjAlgorithm::Auto, None)
        .unwrap();
    assert!(text.contains("RCJ join"), "{text}");
    assert!(text.contains("sharding: 3 shard(s)"), "{text}");

    // STATS reflects the catalog and counts our requests.
    let stats = client.stats().unwrap();
    assert!(stats.contains("shards 3"), "{stats}");
    assert!(stats.contains("dataset p"), "{stats}");
    assert!(stats.contains("dataset q"), "{stats}");

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn tcp_updates_advance_epochs_and_match_a_mutated_engine() {
    let ps = items(160, 51, 1200.0);
    let qs = items(160, 53, 1200.0);
    // The oracle: a single engine that applies the identical history.
    let mut engine = Engine::new();
    engine.load("p", ps.clone()).index(IndexKind::Rtree);
    engine.load("q", qs.clone()).index(IndexKind::Rtree);
    engine
        .update("p")
        .insert([
            Item::new(700, pt(33.5, 44.25)),
            Item::new(701, pt(1500.0, -10.0)),
        ])
        .delete([5])
        .upsert([Item::new(9, pt(620.125, 333.5))])
        .apply()
        .unwrap();
    let local = engine.query().join("q", "p").collect().unwrap();

    let (addr, handle) = start(3);
    let mut client = Client::connect(addr).unwrap();
    client.load("p", IndexKind::Rtree, &ps).unwrap();
    client.load("q", IndexKind::Rtree, &qs).unwrap();

    // The same history over the wire, one verb per mutation kind.
    let reply = client
        .insert(
            "p",
            &[
                Item::new(700, pt(33.5, 44.25)),
                Item::new(701, pt(1500.0, -10.0)),
            ],
        )
        .unwrap();
    assert_eq!(reply.field("epoch"), Some("1"));
    assert_eq!(reply.field("applied"), Some("2"));
    let reply = client.delete("p", &[5]).unwrap();
    assert_eq!(reply.field("epoch"), Some("2"));
    let reply = client
        .upsert("p", &[Item::new(9, pt(620.125, 333.5))])
        .unwrap();
    assert_eq!(reply.field("epoch"), Some("3"));
    assert_eq!(reply.field("items"), Some("161"));

    let remote = client.join("q", "p", RcjAlgorithm::Auto, None).unwrap();
    assert_eq!(remote.pairs, local.pairs);
    assert_eq!(remote.stats, local.stats);

    // Refused batches are protocol errors that move nothing.
    assert!(client.insert("p", &[Item::new(9, pt(0.0, 0.0))]).is_err());
    assert!(client.delete("p", &[999_999]).is_err());
    assert!(client
        .insert("nosuch", &[Item::new(1, pt(0.0, 0.0))])
        .is_err());

    // STATS surfaces the epoch and the lifetime update counter.
    let stats = client.stats().unwrap();
    assert!(stats.contains("updates_total 3"), "{stats}");
    assert!(
        stats
            .lines()
            .any(|l| l.starts_with("dataset p") && l.contains("epoch=3")),
        "{stats}"
    );
    assert!(
        stats
            .lines()
            .any(|l| l.starts_with("dataset q") && l.contains("epoch=0")),
        "{stats}"
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn protocol_errors_do_not_kill_the_server() {
    let (addr, handle) = start(2);
    let mut client = Client::connect(addr).unwrap();
    let data = items(60, 47, 400.0);
    client.load("d", IndexKind::Quadtree, &data).unwrap();

    // Duplicate LOAD: protocol error, dataset intact, server alive.
    let err = client.load("d", IndexKind::Rtree, &data).unwrap_err();
    assert!(err.to_string().contains("already loaded"), "{err}");
    // Unknown dataset: protocol error.
    let err = client
        .join("d", "missing", RcjAlgorithm::Auto, None)
        .unwrap_err();
    assert!(err.to_string().contains("unknown dataset"), "{err}");
    // Malformed request straight through the frame layer.
    let reply = client
        .request(&ringjoin_server::proto::Request::Stats)
        .unwrap();
    assert_eq!(reply.field("datasets"), Some("1"));

    // The session still works after all those errors.
    let out = client.self_join("d", RcjAlgorithm::Auto, None).unwrap();
    let mut engine = Engine::new();
    engine.load("d", data).index(IndexKind::Quadtree);
    let local = engine.query().self_join("d").collect().unwrap();
    assert_eq!(out.pairs, local.pairs);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn sessions_can_reconnect() {
    let (addr, handle) = start(1);
    {
        let mut first = Client::connect(addr).unwrap();
        first
            .load("d", IndexKind::Rtree, &items(50, 53, 300.0))
            .unwrap();
        // Dropped without SHUTDOWN: the connection closes, the server
        // keeps running and keeps the loaded data.
    }
    let mut second = Client::connect(addr).unwrap();
    let stats = second.stats().unwrap();
    assert!(stats.contains("dataset d"), "{stats}");
    let out = second.self_join("d", RcjAlgorithm::Auto, None).unwrap();
    assert!(out.stats.result_pairs > 0);
    second.shutdown().unwrap();
    handle.join().unwrap();
}

/// Regression (lost-shutdown bug): a client that sends `SHUTDOWN` and
/// dies before the ack can be written must still stop the server — the
/// decision is acted on before (and regardless of) ack delivery.
#[test]
fn shutdown_is_honored_even_if_the_ack_is_lost() {
    use ringjoin_server::proto::{write_frame, Request};
    let (addr, handle) = start(1);
    {
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        write_frame(&mut raw, Request::Shutdown.encode().as_bytes()).unwrap();
        // Kill the connection immediately — never read the ack.
        raw.shutdown(std::net::Shutdown::Both).unwrap();
    }
    // The serve loop must still wind down; join would hang forever on
    // the old behavior (the harness test timeout is the failure mode).
    handle.join().unwrap();
}

/// Regression (no-socket-timeout bug): a server that accepts but never
/// replies must surface as `ServerError::Timeout`, not wedge the client
/// forever.
#[test]
fn client_times_out_instead_of_hanging() {
    use ringjoin_server::ServerError;
    // A bare listener that never answers: connects succeed (backlog),
    // frames go nowhere.
    let mute = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = mute.local_addr().unwrap();
    let mut client =
        Client::connect_with_timeout(addr, Some(std::time::Duration::from_millis(200))).unwrap();
    let err = client.stats().unwrap_err();
    assert!(
        matches!(err, ServerError::Timeout(_)),
        "expected Timeout, got {err:?}"
    );
}

/// Regression (stats NaN / conflated-counter bug): a fresh server
/// reports `pool_hit_rate 0.0000` (never NaN) and counts unparseable
/// frames in `requests_err`, not alongside successful requests.
#[test]
fn fresh_server_stats_are_finite_and_split_ok_from_err() {
    use ringjoin_server::proto::{read_frame, write_frame, Request};
    let (addr, handle) = start(1);
    let mut client = Client::connect(addr).unwrap();
    let reply = client.request(&Request::Stats).unwrap();
    assert_eq!(reply.field("pool_hit_rate"), Some("0.0000"));
    assert_eq!(reply.field("requests_ok"), Some("0"));
    assert_eq!(reply.field("requests_err"), Some("0"));

    // One garbage frame on a raw connection: answered ERR, server alive.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    write_frame(&mut raw, b"FROBNICATE the server").unwrap();
    let err_payload = read_frame(&mut raw).unwrap().unwrap();
    assert!(err_payload.starts_with("ERR"), "{err_payload}");
    drop(raw);

    let reply = client.request(&Request::Stats).unwrap();
    assert_eq!(reply.field("requests_err"), Some("1"));
    // The earlier STATS was a success; this one isn't counted yet
    // (counters exclude the request reporting them).
    assert_eq!(reply.field("requests_ok"), Some("1"));
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// The README's STATS schema table, as `(line, key)` pairs: `line` is
/// `status`, `dataset row` or `shard row`.
fn documented_stats_keys() -> BTreeSet<(String, String)> {
    let readme = include_str!("../../../README.md");
    let section = readme
        .split("### STATS schema")
        .nth(1)
        .expect("README has a STATS schema section");
    section
        .lines()
        .skip(1)
        .take_while(|line| !line.starts_with('#'))
        .filter(|line| line.starts_with("| `"))
        .map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let key = cells[1].trim_matches('`');
            (cells[2].to_string(), key.to_string())
        })
        .collect()
}

/// Every STATS key the server emits is documented, and every documented
/// key is emitted.
#[test]
fn stats_keys_match_the_documented_schema() {
    use ringjoin_server::proto::Request;
    let (addr, handle) = start(2);
    let mut client = Client::connect(addr).unwrap();
    client
        .load("p", IndexKind::Rtree, &items(120, 5, 900.0))
        .unwrap();
    let reply = client.request(&Request::Stats).unwrap();
    let mut emitted: BTreeSet<(String, String)> = reply
        .fields
        .iter()
        .filter(|(k, _)| k != "id")
        .map(|(k, _)| ("status".to_string(), k.clone()))
        .collect();
    let keys_of = |row: &str| -> Vec<String> {
        row.split_whitespace()
            .filter_map(|token| token.split_once('=').map(|(k, _)| k.to_string()))
            .collect()
    };
    let mut rows = (0, 0);
    for row in reply.body.lines() {
        if let Some(rest) = row.strip_prefix("dataset ") {
            rows.0 += 1;
            emitted.insert(("dataset row".into(), "dataset".into()));
            for key in keys_of(rest) {
                emitted.insert(("dataset row".into(), key));
            }
        } else {
            rows.1 += 1;
            for key in keys_of(row) {
                // `shard3_state` is documented as `shard<i>_state`.
                let digits = key.trim_start_matches("shard");
                let suffix = digits.trim_start_matches(|c: char| c.is_ascii_digit());
                assert!(
                    key.starts_with("shard") && suffix.len() < digits.len(),
                    "unexpected body row {row:?}"
                );
                emitted.insert(("shard row".into(), format!("shard<i>{suffix}")));
            }
        }
    }
    assert_eq!(rows, (1, 2), "one dataset row, one row per shard slot");
    let status_keys = emitted.iter().filter(|(line, _)| line == "status");
    assert_eq!(status_keys.count(), 22, "{:?}", reply.fields);
    let documented = documented_stats_keys();
    let undocumented: Vec<_> = emitted.difference(&documented).collect();
    let missing: Vec<_> = documented.difference(&emitted).collect();
    assert!(
        undocumented.is_empty(),
        "emitted but undocumented: {undocumented:?}"
    );
    assert!(
        missing.is_empty(),
        "documented but not emitted: {missing:?}"
    );
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Backpressure: with one admission slot and a zero-depth queue, a
/// client whose join lands while another is running gets `ERR busy`
/// plus a retry hint — never an unbounded wait.
///
/// The hog keeps the only slot busy until the probe has collided with
/// it: it keeps a few joins pipelined and sends a fresh one per reply
/// until the probe raises `probe_saw_busy`. A generous deadline is the
/// only way the test can fail on a slow host.
#[test]
fn admission_queue_overflow_returns_busy() {
    use ringjoin_server::proto::Request;
    use ringjoin_server::ServerError;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    let (addr, handle) = start_with(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 1,
        queue_depth: 0,
        ..ServerConfig::default()
    });
    let mut loader = Client::connect(addr).unwrap();
    loader
        .load("p", IndexKind::Rtree, &items(400, 61, 1500.0))
        .unwrap();
    loader
        .load("q", IndexKind::Rtree, &items(400, 67, 1500.0))
        .unwrap();

    let deadline = Instant::now() + Duration::from_secs(120);
    let probe_saw_busy = Arc::new(AtomicBool::new(false));
    let hog = {
        let probe_saw_busy = Arc::clone(&probe_saw_busy);
        std::thread::spawn(move || {
            let mut hog = Client::connect(addr).unwrap();
            let join_req = Request::Join {
                outer: "q".to_string(),
                inner: "p".to_string(),
                algo: RcjAlgorithm::Auto,
                bounds: None,
            };
            const PIPELINED: usize = 4;
            let mut pending = std::collections::VecDeque::new();
            for _ in 0..PIPELINED {
                pending.push_back(hog.send(&join_req).unwrap());
            }
            // Each reply is either a result or a busy rejection (the
            // probe may have held the slot) — in-order ids either way.
            while let Some(id) = pending.pop_front() {
                let (reply_id, outcome) = hog.recv().unwrap();
                assert_eq!(reply_id, Some(id));
                match outcome {
                    Ok(_) | Err(ServerError::Busy { .. }) => {}
                    Err(other) => panic!("unexpected error: {other:?}"),
                }
                if !probe_saw_busy.load(Ordering::SeqCst) && Instant::now() < deadline {
                    pending.push_back(hog.send(&join_req).unwrap());
                }
            }
            // The session stays usable.
            let after = hog.join("q", "p", RcjAlgorithm::Auto, None).unwrap();
            assert!(!after.pairs.is_empty());
        })
    };

    // The probe keeps asking until it collides with the hog.
    let mut probe = Client::connect(addr).unwrap();
    let mut saw_busy = None;
    while saw_busy.is_none() && Instant::now() < deadline {
        match probe.join("q", "p", RcjAlgorithm::Auto, None) {
            Err(ServerError::Busy { retry_after_ms }) => saw_busy = Some(retry_after_ms),
            Err(other) => panic!("unexpected error: {other:?}"),
            Ok(_) => {}
        }
    }
    probe_saw_busy.store(true, Ordering::SeqCst);
    hog.join().unwrap();
    let retry_after_ms = saw_busy.expect("probe never saw ERR busy before the deadline");
    assert!(retry_after_ms > 0, "busy must carry a retry hint");

    loader.shutdown().unwrap();
    handle.join().unwrap();
}

/// Regression (admission-barging bug): with one admission slot, a
/// client pipelining joins back-to-back used to re-take the freed slot
/// before any queued waiter could wake — one hot connection could
/// starve everyone else for the length of its burst. FIFO tickets make
/// an interleaved slow client progress after at most one hog request.
#[test]
fn interleaved_client_progresses_despite_a_pipelining_hog() {
    use ringjoin_server::proto::Request;
    let (addr, handle) = start_with(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 1,
        queue_depth: 32,
        ..ServerConfig::default()
    });
    let mut loader = Client::connect(addr).unwrap();
    loader
        .load("p", IndexKind::Rtree, &items(600, 71, 1600.0))
        .unwrap();
    loader
        .load("q", IndexKind::Rtree, &items(600, 73, 1600.0))
        .unwrap();

    // The hog pipelines a long burst on one connection.
    let mut hog = Client::connect(addr).unwrap();
    let join_req = Request::Join {
        outer: "q".to_string(),
        inner: "p".to_string(),
        algo: RcjAlgorithm::Auto,
        bounds: None,
    };
    const BURST: usize = 40;
    let mut hog_ids = Vec::new();
    for _ in 0..BURST {
        hog_ids.push(hog.send(&join_req).unwrap());
    }
    // Let the burst get going so the slow client genuinely interleaves.
    std::thread::sleep(std::time::Duration::from_millis(30));

    // One blocking join from the slow client. FIFO admission means it
    // waits behind at most the hog request ahead of it — not the burst.
    let slow = loader.join("q", "p", RcjAlgorithm::Auto, None).unwrap();
    assert!(!slow.pairs.is_empty());

    // STATS bypasses admission: snapshot the completed-request count
    // the instant the slow join returned. If the hog had starved the
    // slow client to the end of the burst, every one of its joins would
    // already be counted here.
    let reply = loader.request(&Request::Stats).unwrap();
    let done: u64 = reply.field("requests_ok").unwrap().parse().unwrap();
    assert!(
        done < (2 + BURST + 1) as u64,
        "slow client only finished after the hog's whole burst \
         (requests_ok = {done})"
    );

    for id in hog_ids {
        let (reply_id, outcome) = hog.recv().unwrap();
        assert_eq!(reply_id, Some(id));
        outcome.unwrap();
    }
    loader.shutdown().unwrap();
    handle.join().unwrap();
}

/// Disk-native serving end to end: a server with `on_disk` and a tight
/// `buffer_pages` budget answers byte-identically to an in-process
/// resident engine, while its pool faults pages in from the shared
/// page file and reports the residency counters on the wire.
#[test]
fn disk_native_server_round_trip_matches_resident_engine() {
    use ringjoin_server::proto::Request;
    let dir = ringjoin_testsupport::scratch_dir("wire-disk");
    let ps = items(260, 81, 1400.0);
    let qs = items(260, 83, 1400.0);
    let mut engine = Engine::new();
    engine.load("p", ps.clone()).index(IndexKind::Rtree);
    engine.load("q", qs.clone()).index(IndexKind::Rtree);
    let local = engine.query().join("q", "p").collect().unwrap();

    let (addr, handle) = start_with(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 2,
        on_disk: Some(dir.join("pages.rjp")),
        buffer_pages: 8,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    client.load("p", IndexKind::Rtree, &ps).unwrap();
    client.load("q", IndexKind::Rtree, &qs).unwrap();
    let remote = client.join("q", "p", RcjAlgorithm::Auto, None).unwrap();
    assert_eq!(remote.pairs, local.pairs);
    assert_eq!(remote.stats.result_pairs, local.stats.result_pairs);

    let reply = client.request(&Request::Stats).unwrap();
    let faults: u64 = reply.field("pool_faults").unwrap().parse().unwrap();
    assert!(faults > 0, "an 8-frame pool must fault on this dataset");
    let prefetch: u64 = reply.field("pool_prefetch_hits").unwrap().parse().unwrap();
    let hits: u64 = reply.field("pool_hits").unwrap().parse().unwrap();
    assert!(prefetch <= hits, "prefetch hits are a subset of pool hits");

    // One batch of each mutation verb, served and in process: the
    // served join after them is the resident engine's.
    let added = [
        Item::new(10_000, pt(700.0, 650.0)),
        Item::new(10_001, pt(1500.0, -20.0)),
    ];
    let moved = [
        Item::new(ps[3].id, pt(ps[3].point.x + 1.5, ps[3].point.y - 2.0)),
        Item::new(10_002, pt(20.0, 1390.0)),
    ];
    let gone = [ps[7].id, 10_000];
    client.insert("p", &added).unwrap();
    client.upsert("p", &moved).unwrap();
    client.delete("p", &gone).unwrap();
    engine.update("p").insert(added).apply().unwrap();
    engine.update("p").upsert(moved).apply().unwrap();
    engine.update("p").delete(gone).apply().unwrap();
    let local = engine.query().join("q", "p").collect().unwrap();
    let remote = client.join("q", "p", RcjAlgorithm::Auto, None).unwrap();
    assert_eq!(remote.pairs, local.pairs);
    // Updates run under the catalog's write lock, so no reader holds
    // the page file when a batch lands: the file is written in place,
    // never versioned to `pages.rjp.e<N>`.
    let versions: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("pages.rjp.e"))
        .collect();
    assert!(
        versions.is_empty(),
        "served updates versioned the page file: {versions:?}"
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The connection limit: a server with `max_sessions = 1` turns the
/// second connection away with `ERR busy` instead of accepting without
/// bound.
#[test]
fn session_limit_rejects_with_busy() {
    use ringjoin_server::ServerError;
    let (addr, handle) = start_with(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 1,
        max_sessions: 1,
        ..ServerConfig::default()
    });
    let mut first = Client::connect(addr).unwrap();
    first.stats().unwrap(); // session established and serving

    let mut second = Client::connect(addr).unwrap();
    let err = second.stats().unwrap_err();
    assert!(
        matches!(err, ServerError::Busy { retry_after_ms } if retry_after_ms > 0),
        "expected Busy, got {err:?}"
    );

    // The first session keeps working; once it closes, a new session
    // gets its slot.
    first.stats().unwrap();
    drop(first);
    let mut third = loop {
        let mut candidate = Client::connect(addr).unwrap();
        match candidate.stats() {
            Ok(_) => break candidate,
            Err(ServerError::Busy { .. }) => {
                std::thread::sleep(std::time::Duration::from_millis(20))
            }
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    };
    third.shutdown().unwrap();
    handle.join().unwrap();
}

/// `Client::request_with_retry` against a scripted peer: the first
/// attempt is shed with `ERR busy` (id echoed, connection kept open —
/// the admission-queue shape), the retry gets the real answer. One
/// client, one connection, deterministic schedule.
#[test]
fn shed_request_is_retried_on_the_same_connection() {
    use ringjoin_server::proto::{read_frame, write_frame, Reply, Request};
    use std::io::{BufReader, BufWriter};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let id_of = |payload: &str| {
            payload
                .strip_prefix('#')
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|tok| tok.parse::<u64>().ok())
        };
        // First request: shed it, keep the connection.
        let first = read_frame(&mut reader).unwrap().unwrap();
        let busy = Reply::encode_busy(id_of(&first), 10, "scripted shed");
        write_frame(&mut writer, busy.as_bytes()).unwrap();
        // Retry: answer it for real.
        let second = read_frame(&mut reader).unwrap().unwrap();
        assert!(second.contains("STATS"), "retry resent the request");
        let ok = Reply::encode_ok(id_of(&second), &[("shards", "1".to_string())], "");
        write_frame(&mut writer, ok.as_bytes()).unwrap();
    });

    let mut client = Client::connect(addr).unwrap();
    let reply = client
        .request_with_retry(&ringjoin_server::proto::Request::Stats, 3)
        .expect("shed request must succeed on retry");
    assert_eq!(reply.field("shards"), Some("1"));
    let _ = &Request::Stats; // silence unused-import pedantry if grammar shifts
    fake.join().unwrap();
}

/// `Client::request_with_retry` against a real server over its session
/// limit: the shed closes the connection, so the retry must reconnect.
/// Once the occupying session leaves, the retried request succeeds —
/// the caller never sees the `Busy`.
#[test]
fn session_limit_shed_succeeds_on_retry_after_reconnect() {
    use ringjoin_server::proto::Request;
    let (addr, handle) = start_with(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 1,
        max_sessions: 1,
        ..ServerConfig::default()
    });
    let mut holder = Client::connect(addr).unwrap();
    holder.stats().unwrap(); // the only session slot is now taken

    let vacate = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(250));
        drop(holder);
    });

    let mut probe = Client::connect(addr).unwrap();
    let reply = probe
        .request_with_retry(&Request::Stats, 40)
        .expect("retries must outlast the squatting session");
    assert_eq!(reply.field("shards"), Some("1"));
    vacate.join().unwrap();

    probe.shutdown().unwrap();
    handle.join().unwrap();
}

/// A client spanning a coordinator restart sees at most retryable
/// errors, never a hang: the first request on the dead socket fails
/// fast, every connect during the down window is refused, and
/// `request_with_retry`'s bounded reconnect/backoff rides it out until
/// the restarted — and WAL-recovered — coordinator answers.
#[test]
fn retry_rides_out_a_coordinator_restart_window() {
    use ringjoin_server::proto::Request;
    let dir = std::env::temp_dir().join(format!("ringjoin-wire-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, handle) = start_with(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 2,
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut probe = Client::connect(addr).unwrap();
    probe
        .load("p", IndexKind::Rtree, &items(50, 47, 800.0))
        .unwrap();
    probe.shutdown().unwrap();
    handle.join().unwrap();

    // Restart on the SAME port after a real down window, so the probe's
    // retries first hit a dead socket, then connection-refused, then the
    // recovered server. (std listeners set SO_REUSEADDR on Unix, so the
    // rebind succeeds immediately once the thread wakes.)
    let rebind = dir.clone();
    let restarter = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(600));
        start_with(ServerConfig {
            addr: addr.to_string(),
            shards: 2,
            data_dir: Some(rebind),
            ..ServerConfig::default()
        })
    });

    let reply = probe
        .request_with_retry(&Request::Stats, 12)
        .expect("retries must span the restart window");
    assert_eq!(reply.field("shards"), Some("2"));
    assert_eq!(reply.field("recovered_epochs"), Some("1"));

    let (_, handle2) = restarter.join().unwrap();
    probe.shutdown().unwrap();
    handle2.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression (non-finite coordinates): `NaN` and `inf` rows used to
/// pass every parser. One `NaN` INSERT panicked a durable coordinator
/// while it held the catalog write lock — poisoning it for every later
/// session — after the batch was already fsynced, so the restart
/// panicked in recovery too. A `NaN` `bounds=` corner was silently
/// dropped and the join answered for another window. All of these are
/// protocol errors now, and a refused batch never reaches the log.
#[test]
fn non_finite_coordinates_are_refused_and_never_logged() {
    use ringjoin_server::proto::{read_frame, write_frame};
    let dir = ringjoin_testsupport::scratch_dir("wire-non-finite");
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 1,
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let (addr, handle) = start_with(config.clone());
    let mut client = Client::connect(addr).unwrap();
    client
        .load("p", IndexKind::Rtree, &items(40, 7, 300.0))
        .unwrap();
    client
        .load("q", IndexKind::Rtree, &items(40, 9, 300.0))
        .unwrap();
    client
        .insert("p", &[Item::new(9000, pt(1.0, 2.0))])
        .unwrap();

    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(client
            .insert("p", &[Item::new(9999, pt(bad, 1.0))])
            .is_err());
        assert!(client.upsert("p", &[Item::new(3, pt(1.0, bad))]).is_err());
        assert!(client
            .load("r", IndexKind::Rtree, &[Item::new(1, pt(bad, bad))])
            .is_err());
    }
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    write_frame(&mut raw, b"JOIN q p bounds=nan,0,1,1 maxd=1").unwrap();
    let reply = read_frame(&mut raw).unwrap().unwrap();
    assert!(reply.starts_with("ERR"), "{reply}");
    drop(raw);

    // A fresh session still gets answers: nothing was poisoned, and
    // only the one valid batch moved the epoch.
    let mut fresh = Client::connect(addr).unwrap();
    let stats = fresh.stats().unwrap();
    assert!(stats.contains("updates_total 1"), "{stats}");
    assert!(stats.contains("datasets 2"), "{stats}");
    fresh.self_join("p", RcjAlgorithm::Auto, None).unwrap();
    fresh.shutdown().unwrap();
    handle.join().unwrap();

    // The restart recovers the two loads and the one valid batch.
    let (addr, handle) = start_with(config);
    let mut client = Client::connect(addr).unwrap();
    let reply = client
        .request(&ringjoin_server::proto::Request::Stats)
        .unwrap();
    assert_eq!(reply.field("recovered_epochs"), Some("3"));
    assert_eq!(reply.field("datasets"), Some("2"));
    client.shutdown().unwrap();
    handle.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
