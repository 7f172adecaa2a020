//! Totality properties for every wire parser, in the style of the WAL
//! decoder's `wal_props.rs`: whatever bytes arrive — random soup, any
//! truncation of a valid encoding, or a valid encoding with one
//! character changed — `split_request_id` + `Request::parse`,
//! `split_request_id` + `ShardRequest::parse` (a worker's path),
//! `ShardRequest::parse`, `Reply::parse_with_id`, `ShardReply::parse`,
//! the pair-row parsers and the durable-log decode return a value or an
//! error and never panic. Valid encodings of every request and reply
//! variant round-trip exactly. The frame readers meet the same bar over
//! byte streams delivered in short reads, interrupted and timed out:
//! valid frames come back whole and in order, and the first bad frame
//! is an error.

use proptest::prelude::*;
use ringjoin_core::{IndexKind, Mutation, RcjAlgorithm, RcjPair, RcjStats};
use ringjoin_geom::{pt, Item, Rect};
use ringjoin_server::proto::{
    encode_pairs, encode_request_id, encode_stats_fields, encode_tagged_pairs, parse_pairs,
    parse_tagged_pairs, read_frame, read_frame_idle, split_request_id, stats_from_reply,
    write_frame, FrameRead, Ownership, Reply, Request, ShardReply, ShardRequest, MAX_FRAME,
};
use ringjoin_server::{RingBounds, ServerError, ShardedEngine, TopologyConfig};
use ringjoin_storage::Wal;
use std::io::{ErrorKind, Read};
use std::sync::Arc;

/// Expands one drawn seed into structured values (xorshift64*), so a
/// single `any::<u64>()` drives every variant.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Mostly short coordinates, plus the values that stress the
    /// shortest-round-trip float text.
    fn coord(&mut self) -> f64 {
        match self.below(12) {
            0 => 0.1 + 0.2,
            1 => -0.0,
            2 => 2.5e-8,
            3 => -1234.5,
            // One-character coordinates, so a one-character change can
            // turn a valid row into a non-finite one.
            4 => 7.0,
            _ => (self.below(20_000) as f64 - 10_000.0) / 8.0,
        }
    }

    fn item(&mut self) -> Item {
        let id = if self.below(8) == 0 {
            u64::MAX
        } else {
            self.below(1000)
        };
        Item::new(id, pt(self.coord(), self.coord()))
    }

    fn items(&mut self) -> Vec<Item> {
        (0..self.below(4)).map(|_| self.item()).collect()
    }

    fn name(&mut self) -> String {
        ["p", "q", "shops", "d-1"][self.below(4) as usize].to_string()
    }

    fn algo(&mut self) -> RcjAlgorithm {
        [
            RcjAlgorithm::Auto,
            RcjAlgorithm::Inj,
            RcjAlgorithm::Bij,
            RcjAlgorithm::Obj,
        ][self.below(4) as usize]
    }

    fn rect(&mut self) -> Rect {
        match self.below(4) {
            0 => Rect::empty(),
            1 => Rect::new(
                pt(f64::NEG_INFINITY, f64::NEG_INFINITY),
                pt(f64::INFINITY, self.coord()),
            ),
            _ => Rect::new(
                pt(self.coord(), self.coord()),
                pt(self.coord(), self.coord()),
            ),
        }
    }

    fn bounds(&mut self) -> Option<RingBounds> {
        (self.below(2) == 0).then(|| RingBounds {
            bounds: Rect::new(
                pt(self.coord(), self.coord()),
                pt(self.coord(), self.coord()),
            ),
            max_diameter: self.below(500) as f64 / 4.0,
        })
    }

    fn maybe_name(&mut self) -> Option<String> {
        (self.below(2) == 0).then(|| self.name())
    }

    fn maybe_k(&mut self) -> Option<usize> {
        (self.below(2) == 0).then(|| self.below(50) as usize)
    }

    fn pair(&mut self) -> RcjPair {
        RcjPair::new(self.item(), self.item())
    }

    fn stats(&mut self) -> RcjStats {
        RcjStats {
            candidate_pairs: self.below(1 << 20),
            result_pairs: self.below(1 << 20),
            filter_heap_pops: self.below(1 << 20),
            filter_node_reads: self.below(1 << 20),
            verify_node_visits: self.below(1 << 20),
        }
    }

    fn mutations(&mut self) -> Vec<Mutation> {
        (0..self.below(4))
            .map(|_| match self.below(3) {
                0 => Mutation::Insert(self.item()),
                1 => Mutation::Delete(self.item().id),
                _ => Mutation::Upsert(self.item()),
            })
            .collect()
    }

    /// One of every client request variant.
    fn requests(&mut self) -> Vec<Request> {
        vec![
            Request::Load {
                name: self.name(),
                kind: [IndexKind::Rtree, IndexKind::Quadtree][self.below(2) as usize],
                items: self.items(),
            },
            Request::Insert {
                name: self.name(),
                items: self.items(),
            },
            Request::Delete {
                name: self.name(),
                ids: self.items().iter().map(|it| it.id).collect(),
            },
            Request::Upsert {
                name: self.name(),
                items: self.items(),
            },
            Request::Join {
                outer: self.name(),
                inner: self.name(),
                algo: self.algo(),
                bounds: self.bounds(),
            },
            Request::SelfJoin {
                dataset: self.name(),
                algo: self.algo(),
                bounds: self.bounds(),
            },
            Request::TopK {
                outer: self.name(),
                inner: self.name(),
                k: self.below(100) as usize,
            },
            Request::Explain {
                outer: self.name(),
                inner: self.maybe_name(),
                algo: self.algo(),
                k: self.maybe_k(),
            },
            Request::Stats,
            Request::Hello,
            Request::Shutdown,
        ]
    }

    /// One of every shard request variant.
    fn shard_requests(&mut self) -> Vec<ShardRequest> {
        vec![
            ShardRequest::Hello,
            ShardRequest::Load {
                name: self.name(),
                kind: IndexKind::Rtree,
                cell: self.rect(),
                items: Arc::new(self.items()),
            },
            ShardRequest::Update {
                name: self.name(),
                target_epoch: self.below(1 << 30),
                ops: Arc::new(self.mutations()),
            },
            ShardRequest::Join {
                outer: self.name(),
                inner: self.maybe_name(),
                algo: self.algo(),
                bounds: self.bounds(),
            },
            ShardRequest::TopK {
                outer: self.name(),
                inner: self.maybe_name(),
                k: self.below(100) as usize,
            },
            ShardRequest::Explain {
                outer: self.name(),
                inner: self.maybe_name(),
                algo: self.algo(),
                k: self.maybe_k(),
            },
            ShardRequest::Shutdown,
        ]
    }

    /// One of every shard reply variant, each with a request it answers.
    fn shard_replies(&mut self) -> Vec<(ShardRequest, ShardReply)> {
        let reqs = self.shard_requests();
        let pairs: Vec<RcjPair> = (0..self.below(4)).map(|_| self.pair()).collect();
        vec![
            (reqs[0].clone(), ShardReply::Hello),
            (
                reqs[1].clone(),
                ShardReply::Indexed(Ownership {
                    leaves: self.below(100) as usize,
                    extent: self.rect(),
                }),
            ),
            (
                reqs[3].clone(),
                ShardReply::Joined {
                    pairs: pairs
                        .iter()
                        .map(|&pr| (self.below(64) as usize, pr))
                        .collect(),
                    stats: self.stats(),
                },
            ),
            (
                reqs[4].clone(),
                ShardReply::Ranked {
                    pairs,
                    stats: self.stats(),
                },
            ),
            (
                reqs[5].clone(),
                ShardReply::Plan(format!("RCJ plan\n  k={}\n", self.below(9))),
            ),
            (reqs[6].clone(), ShardReply::Bye),
        ]
    }

    /// Every valid payload the codecs produce — requests of both
    /// grammars (with and without an id token), replies of both kinds,
    /// and pair-row bodies.
    fn payloads(&mut self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for req in self.requests() {
            out.push(encode_request_id(self.below(1 << 40), &req.encode()));
            out.push(req.encode());
        }
        for req in self.shard_requests() {
            out.push(encode_request_id(self.below(1 << 40), &req.encode()));
            out.push(req.encode());
        }
        for (_, reply) in self.shard_replies() {
            out.push(reply.encode(Some(self.below(1 << 40))));
            out.push(reply.encode(None));
        }
        let pairs: Vec<RcjPair> = (0..3).map(|_| self.pair()).collect();
        out.push(encode_pairs(&pairs));
        let tagged: Vec<(usize, RcjPair)> = pairs.iter().map(|&pr| (7, pr)).collect();
        out.push(encode_tagged_pairs(&tagged));
        let fields: Vec<(&str, String)> = encode_stats_fields(&self.stats()).into();
        out.push(Reply::encode_ok(Some(self.below(99)), &fields, "a b\n"));
        out.push(Reply::encode_err_id(Some(3), "nope"));
        out.push(Reply::encode_busy(None, 50, "queue full"));
        out
    }
}

/// Feeds one payload to every parser; none may panic.
fn parse_everything(payload: &str) {
    if let Ok((_, rest)) = split_request_id(payload) {
        let _ = Request::parse(rest);
        let _ = ShardRequest::parse(rest);
    }
    let _ = ShardRequest::parse(payload);
    let _ = Reply::parse_with_id(payload);
    let _ = parse_pairs(payload);
    let _ = parse_tagged_pairs(payload);
    for req in Gen::new(1).shard_requests() {
        let _ = ShardReply::parse(&req, payload);
    }
}

/// Replacements for one character: every character the grammars give
/// meaning to, deletion, a multi-byte character, and the non-finite
/// float spellings.
const EDITS: &[&str] = &[
    "", " ", "\n", "\t", "#", "=", ",", "-", "+", "^", ".", "0", "9", "e", "x", "é", "NaN", "inf",
];

/// `payload` with the character at `frac` of its length replaced.
fn flip(payload: &str, frac: f64, edit: &str) -> String {
    let chars: Vec<char> = payload.chars().collect();
    if chars.is_empty() {
        return edit.to_string();
    }
    let at = ((chars.len() - 1) as f64 * frac) as usize;
    let mut out: String = chars[..at].iter().collect();
    out.push_str(edit);
    out.extend(&chars[at + 1..]);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_variant_round_trips(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        for req in g.requests() {
            let wire = encode_request_id(42, &req.encode());
            let (id, rest) = split_request_id(&wire).unwrap();
            prop_assert_eq!(id, Some(42));
            let back = Request::parse(rest).unwrap();
            prop_assert_eq!(back.encode(), req.encode());
        }
        for req in g.shard_requests() {
            let back = ShardRequest::parse(&req.encode()).unwrap();
            prop_assert_eq!(back.encode(), req.encode());
            // A worker splits the id its coordinator's client stamped.
            let wire = encode_request_id(43, &req.encode());
            let (id, rest) = split_request_id(&wire).unwrap();
            prop_assert_eq!(id, Some(43));
            prop_assert_eq!(ShardRequest::parse(rest).unwrap().encode(), req.encode());
        }
        for (req, reply) in g.shard_replies() {
            let back = ShardReply::parse(&req, &reply.encode(None)).unwrap();
            prop_assert_eq!(back.encode(None), reply.encode(None));
            // ...and echoes it, which leaves the reply itself unchanged.
            let echoed = reply.encode(Some(43));
            prop_assert_eq!(Reply::parse_with_id(&echoed).0, Some(43));
            let back = ShardReply::parse(&req, &echoed).unwrap();
            prop_assert_eq!(back.encode(None), reply.encode(None));
        }
        // The handshake refuses anything that is not a shard worker.
        let coordinator = Reply::encode_ok(None, &[("role", "coordinator".into())], "");
        prop_assert!(ShardReply::parse(&ShardRequest::Hello, &coordinator).is_err());

        let stats = g.stats();
        let fields: Vec<(&str, String)> = encode_stats_fields(&stats).into();
        let (id, reply) = Reply::parse_with_id(&Reply::encode_ok(Some(9), &fields, "x y\n"));
        let reply = reply.unwrap();
        prop_assert_eq!(id, Some(9));
        prop_assert_eq!(stats_from_reply(&reply), stats);
        prop_assert_eq!(reply.body.as_str(), "x y\n");
        let (id, err) = Reply::parse_with_id(&Reply::encode_err_id(Some(4), "no such dataset"));
        prop_assert_eq!(id, Some(4));
        prop_assert!(
            matches!(err, Err(ServerError::Remote(m)) if m == "no such dataset"),
            "ERR message lost"
        );
        let (_, err) = Reply::parse_with_id(&Reply::encode_busy(None, 75, "queue full"));
        prop_assert!(
            matches!(err, Err(ServerError::Busy { retry_after_ms: 75 })),
            "busy hint lost"
        );

        let pairs: Vec<RcjPair> = (0..g.below(6)).map(|_| g.pair()).collect();
        prop_assert_eq!(parse_pairs(&encode_pairs(&pairs)).unwrap(), pairs.clone());
        let tagged: Vec<(usize, RcjPair)> =
            pairs.iter().map(|&pr| (g.below(1 << 30) as usize, pr)).collect();
        prop_assert_eq!(parse_tagged_pairs(&encode_tagged_pairs(&tagged)).unwrap(), tagged);
    }

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        parse_everything(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn single_character_changes_never_panic(
        seed in any::<u64>(),
        at in 0.0f64..1.0,
        edit in 0usize..EDITS.len(),
    ) {
        for payload in Gen::new(seed).payloads() {
            parse_everything(&flip(&payload, at, EDITS[edit]));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_truncation_never_panics(seed in any::<u64>()) {
        for payload in Gen::new(seed).payloads() {
            for cut in (0..=payload.len()).filter(|&c| payload.is_char_boundary(c)) {
                parse_everything(&payload[..cut]);
            }
        }
    }
}

/// A byte stream delivered the way a socket delivers it: reads of 1 to
/// 9 bytes, an `Interrupted` now and then and, with `ticks`, read
/// timeouts between and inside frames. From offset `stall` on (if set),
/// every read times out.
struct Trickle {
    bytes: Vec<u8>,
    at: usize,
    g: Gen,
    ticks: bool,
    stall: Option<usize>,
}

impl Trickle {
    fn new(bytes: Vec<u8>, seed: u64, ticks: bool, stall: Option<usize>) -> Trickle {
        Trickle {
            bytes,
            at: 0,
            g: Gen::new(seed),
            ticks,
            stall,
        }
    }
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.stall == Some(self.at) {
            return Err(ErrorKind::WouldBlock.into());
        }
        match self.g.below(10) {
            0 => return Err(ErrorKind::Interrupted.into()),
            1 if self.ticks => return Err(ErrorKind::WouldBlock.into()),
            _ => {}
        }
        let until = self.stall.unwrap_or(usize::MAX).min(self.bytes.len());
        let n = (1 + self.g.below(9) as usize)
            .min(buf.len())
            .min(until - self.at);
        buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// How a frame reader stopped.
#[derive(Clone, Copy, Debug, PartialEq)]
enum End {
    /// A clean end of stream between frames.
    Eof,
    /// Idle between frames for longer than any random run of timeouts
    /// lasts (the peer went quiet).
    Quiet,
    /// The first error.
    Failed(ErrorKind),
}

/// Reads frames off `r` until it stops — with [`read_frame_idle`] when
/// `idle`, as a serving loop reads, else with [`read_frame`], as a
/// client reads — returning the frames in order and how it stopped.
fn read_all(mut r: Trickle, idle: bool) -> (Vec<String>, End) {
    let mut frames = Vec::new();
    let mut quiet = 0;
    loop {
        let next = if idle {
            read_frame_idle(&mut r)
        } else {
            read_frame(&mut r).map(|frame| frame.map_or(FrameRead::Eof, FrameRead::Frame))
        };
        match next {
            Ok(FrameRead::Frame(frame)) => {
                frames.push(frame);
                quiet = 0;
            }
            Ok(FrameRead::Idle) => {
                quiet += 1;
                if quiet > 1000 {
                    return (frames, End::Quiet);
                }
            }
            Ok(FrameRead::Eof) => return (frames, End::Eof),
            Err(e) => return (frames, End::Failed(e.kind())),
        }
    }
}

/// Valid payloads framed back to back, and the offset each frame
/// starts at (plus the stream's length).
fn framed(payloads: &[String]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut starts = vec![0];
    for payload in payloads {
        write_frame(&mut bytes, payload.as_bytes()).unwrap();
        starts.push(bytes.len());
    }
    (bytes, starts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frames_arrive_whole_and_in_order(seed in any::<u64>()) {
        let payloads = Gen::new(seed).payloads();
        let (bytes, _) = framed(&payloads);
        for idle in [false, true] {
            let (frames, end) = read_all(Trickle::new(bytes.clone(), seed, idle, None), idle);
            prop_assert_eq!(&frames, &payloads);
            prop_assert_eq!(end, End::Eof);
        }
    }

    /// A stream damaged at one spot: cut there, its frame's length
    /// prefix grown past the stream, a byte of its payload made
    /// non-UTF-8, one bit flipped, or the peer stalled there. Every
    /// frame before the damaged one comes back byte-exact, and a
    /// damaged frame the readers can tell is bad is an error.
    #[test]
    fn damaged_streams_fail_at_the_first_bad_frame(
        seed in any::<u64>(),
        damage in 0usize..5,
        at in 0.0f64..1.0,
    ) {
        let mut g = Gen::new(seed);
        let payloads = g.payloads();
        let (mut bytes, starts) = framed(&payloads);
        let spot = (bytes.len() as f64 * at) as usize;
        // The damaged frame: the one whose bytes hold `spot`.
        let hit = starts.iter().rposition(|&s| s <= spot).unwrap();
        let whole = |cut: usize| starts.iter().filter(|&&s| s <= cut).count() - 1;
        let mut stall = None;
        // How the client's and the serving loop's reader must end, after
        // the frames before the damage: `None` where the damaged bytes
        // may still read as frames.
        let (kept, want): (usize, [Option<End>; 2]) = match damage {
            0 => {
                bytes.truncate(spot);
                let end = if starts.contains(&spot) {
                    End::Eof
                } else {
                    End::Failed(ErrorKind::UnexpectedEof)
                };
                (whole(spot), [Some(end), Some(end)])
            }
            1 => {
                let rest = bytes.len() - starts[hit] - 4;
                let (len, end) = match g.below(3) {
                    0 => (MAX_FRAME + 1, ErrorKind::InvalidData),
                    1 => (u32::MAX, ErrorKind::InvalidData),
                    _ => (rest as u32 + 1, ErrorKind::UnexpectedEof),
                };
                bytes[starts[hit]..starts[hit] + 4].copy_from_slice(&len.to_be_bytes());
                (hit, [Some(End::Failed(end)), Some(End::Failed(end))])
            }
            2 => {
                let first = starts[hit] + 4;
                let byte = first + g.below((starts[hit + 1] - first) as u64) as usize;
                bytes[byte] = 0xFF;
                let end = End::Failed(ErrorKind::InvalidData);
                (hit, [Some(end), Some(end)])
            }
            3 => {
                bytes[spot] ^= 1 << g.below(8);
                (hit, [None, None])
            }
            _ => {
                stall = Some(spot);
                let idle_end = if starts.contains(&spot) {
                    End::Quiet
                } else {
                    End::Failed(ErrorKind::TimedOut)
                };
                (whole(spot), [Some(End::Failed(ErrorKind::WouldBlock)), Some(idle_end)])
            }
        };
        for (idle, want) in [false, true].into_iter().zip(want) {
            // Random timeouts only where no stall is planted.
            let ticks = idle && stall.is_none();
            let (frames, end) = read_all(Trickle::new(bytes.clone(), seed, ticks, stall), idle);
            prop_assert!(frames.len() >= kept, "a frame before the damage was lost");
            prop_assert_eq!(&frames[..kept], &payloads[..kept]);
            if let Some(want) = want {
                prop_assert_eq!(frames.len(), kept, "read a frame past the damage");
                prop_assert_eq!(end, want);
            }
        }
    }

    #[test]
    fn arbitrary_streams_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        seed in any::<u64>(),
    ) {
        for idle in [false, true] {
            let (_, end) = read_all(Trickle::new(bytes.clone(), seed, idle, None), idle);
            prop_assert!(end != End::Quiet, "a finite stream never goes quiet");
        }
    }
}

/// A valid durable history: two loads and one mutation batch, as the
/// wire payloads the coordinator logs.
fn history(g: &mut Gen) -> Vec<String> {
    let mut load = |name: &str| {
        let items: Vec<Item> = (0..12)
            .map(|i| Item::new(i, pt(g.coord(), g.coord())))
            .collect();
        Request::Load {
            name: name.to_string(),
            kind: IndexKind::Rtree,
            items,
        }
        .encode()
    };
    let (p, q) = (load("p"), load("q"));
    let update = ShardRequest::Update {
        name: "p".to_string(),
        target_epoch: 1,
        ops: Arc::new(vec![
            Mutation::Insert(Item::new(100, pt(g.coord(), g.coord()))),
            Mutation::Delete(3),
            Mutation::Upsert(Item::new(5, pt(g.coord(), g.coord()))),
        ]),
    }
    .encode();
    vec![p, q, update]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The durable-log decode is recovery itself: a log whose records
    /// passed their checksums but were damaged in between (truncated,
    /// or one character changed — a NaN coordinate included) either
    /// recovers or fails with an error; construction never panics.
    #[test]
    fn recovery_of_damaged_records_never_panics(
        seed in any::<u64>(),
        victim in 0usize..3,
        at in 0.0f64..1.0,
        edit in 0usize..EDITS.len(),
        truncate in any::<bool>(),
    ) {
        let mut g = Gen::new(seed);
        let mut records = history(&mut g);
        let record = &records[victim];
        records[victim] = if truncate {
            let cut = (record.len() as f64 * at) as usize;
            record[..cut].to_string()
        } else {
            flip(record, at, EDITS[edit])
        };
        let dir = ringjoin_testsupport::scratch_dir("parser-props-recovery");
        std::fs::remove_dir_all(dir.join("wal")).ok();
        {
            let (_, mut wal) = Wal::open(dir.join("wal")).unwrap();
            for record in records.iter().filter(|r| !r.is_empty()) {
                wal.append(record.as_bytes()).unwrap();
            }
            wal.sync().unwrap();
        }
        let recovered = ShardedEngine::with_topology(TopologyConfig {
            data_dir: Some(dir.clone()),
            ..TopologyConfig::default()
        });
        if let Ok(engine) = recovered {
            for name in engine.dataset_names() {
                let _ = engine.self_join(&name, RcjAlgorithm::Auto, None);
            }
            engine.shutdown();
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
