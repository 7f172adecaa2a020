//! The wire protocol: length-prefixed UTF-8 frames over TCP.
//!
//! Every message — request or response — is one **frame**: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8 text.
//! A request payload is a command line (plus, for the data verbs, a body
//! of rows); a response payload is a status line (`OK key=value ...` or
//! `ERR message`) plus an optional body. One request yields exactly one
//! response; requests are served in order on a connection, so a client
//! may **pipeline**: send several frames back to back and read the
//! replies afterwards.
//!
//! | request | body | response body |
//! |---|---|---|
//! | `[#<id>] LOAD <name> <rtree\|quadtree>` | `id x y` rows | — |
//! | `[#<id>] INSERT <name>` | `id x y` rows | — (`OK epoch=..`) |
//! | `[#<id>] DELETE <name>` | `id` rows | — (`OK epoch=..`) |
//! | `[#<id>] UPSERT <name>` | `id x y` rows | — (`OK epoch=..`) |
//! | `[#<id>] JOIN <outer> <inner> [algo=..] [bounds=x0,y0,x1,y1 maxd=D]` | — | pair rows |
//! | `[#<id>] SELFJOIN <dataset> [algo=..] [bounds=.. maxd=..]` | — | pair rows |
//! | `[#<id>] TOPK <outer> <inner> <k>` | — | pair rows |
//! | `[#<id>] EXPLAIN <outer> [<inner>] [algo=..] [k=K]` | — | plan text |
//! | `[#<id>] STATS` | — | catalog text |
//! | `[#<id>] HELLO` | — | — (role handshake) |
//! | `[#<id>] SHUTDOWN` | — | — |
//!
//! Coordinates must be finite: a row with a `NaN` or infinite coordinate
//! is refused with `ERR` (and never reaches the log), and so is a
//! `bounds=` rectangle with a `NaN` corner.
//!
//! # Shard-worker grammar
//!
//! A **shard worker** (`ringjoin serve --shard-of auto`) speaks the same
//! frame format but a different command set, parsed as
//! [`ShardRequest`] and answered as [`ShardReply`]. These two types are
//! the *only* shard message: in-process worker threads receive the same
//! `ShardRequest` values over a channel, so a worker process is just the
//! thread worker behind this codec. It is served by the coordinator's
//! own session loop, so it too echoes a request's `#<id>` token and
//! answers a reply too large for one frame with `ERR`. The coordinator
//! reaches it through a [`Client`](crate::Client), whose ids it checks;
//! a request that hits the client's socket deadline fails over to a
//! sibling replica at once.
//!
//! | request | body | response |
//! |---|---|---|
//! | `HELLO` | — | `OK role=shard` |
//! | `SLOAD <name> <kind> cell=<rect>` | `id x y` rows | `OK leaves=.. extent=<rect>` |
//! | `SUPDATE <name> epoch=<n>` | `+ id x y` / `- id` / `^ id x y` rows | same fields as `SLOAD` |
//! | `SJOIN <outer> [inner=<name>] [algo=..] [bounds=.. maxd=..]` | — | counters + tagged pair rows |
//! | `STOPK <outer> <k> [inner=<name>]` | — | counters + pair rows |
//! | `SEXPLAIN <outer> [inner=<name>] [algo=..] [k=K]` | — | plan text |
//! | `SHUTDOWN` | — | `OK bye=1` |
//!
//! Both grammars share one `key=value` option parser: the shard grammar
//! accepts the client keys (`algo`, `bounds`, `maxd`, `k`) plus `cell`,
//! `inner` and `epoch`; each grammar refuses any other key. `bounds=`
//! corners are normalised (`x0,y0,x1,y1` in any corner order), while
//! `cell=` corners travel verbatim, so the empty rectangle round-trips
//! as empty. A worker's page file is not on the wire: the worker is
//! started with it (`serve --shard-of auto --on-disk FILE`).
//!
//! The coordinator's merge keys are **global outer-leaf indices**, so
//! `SJOIN` replies carry leaf-tagged rows (`leaf p_id p_x p_y q_id q_x
//! q_y`) and the full [`RcjStats`] counter set — byte-identity of the
//! sharded answer survives the process hop because nothing is lost or
//! reordered on the wire. `HELLO` is the role handshake: a coordinator
//! answers `role=coordinator`, a worker `role=shard`, so a topology
//! misconfiguration (pointing `--workers` at another coordinator) fails
//! fast instead of misbehaving. Rects travel as `x0,y0,x1,y1` in the
//! same shortest-round-trip float form (`inf`/`-inf` included — the
//! outermost partition cells are unbounded).
//!
//! # Durable history records
//!
//! The coordinator's write-ahead log stores each batch as the wire
//! request that carried it: a load as the client `LOAD` payload (which
//! names no partition cell, so recovery is shard-count invariant), an
//! update as the shard `SUPDATE <name> epoch=<n>` payload. Recovery
//! decodes records with [`Request::parse`] and [`ShardRequest::parse`];
//! there is no separate log grammar.
//!
//! # Request IDs
//!
//! A request payload may start with a `#<id>` token (a `u64`); the
//! server echoes it back as the first status-line field (`OK id=<id>
//! ...`) or, on failure, right after the status word (`ERR id=<id>
//! message`). IDs let a pipelining client check that the in-order
//! replies really match its in-order requests. The framing is
//! version-tolerant in both directions: id-less requests are still
//! accepted (the reply then carries no `id`), and clients ignore
//! status-line fields they do not know.
//!
//! An overloaded server rejects work with `ERR [id=N] busy
//! retry_after_ms=<ms> (...)`; clients surface that as
//! [`ServerError::Busy`] carrying the retry hint.
//!
//! # Rows
//!
//! One codec per row shape serves the wire, the durable log and the
//! CLI's mutation log alike: item rows `id x y`, mutation rows
//! `+ id x y`, `- id`, `^ id x y` (the item row behind a sign;
//! [`write_mutation_row`]/[`parse_mutation_row`]),
//! and pair rows `p_id p_x p_y q_id q_x q_y`, optionally led by a leaf
//! index. Floats use Rust's shortest-round-trip `Display` form, so
//! coordinates survive the wire bit-exactly and a client can re-derive
//! centers and radii without loss. Numbers in command lines use the same
//! convention.
//!
//! Every row shape and [`encode_rect`] write their numbers with one
//! writer and read their rows with one scanner:
//!
//! * The writer's text equals `Display` byte for byte, for every `f64`
//!   and every `u64`. Floats get the shortest digits that read back to
//!   the same bits (Ryū), laid out as `Display` lays them out (no
//!   exponent form; `-0`, `inf`, `-inf`, `NaN`). When the exact value
//!   lies halfway between two shortest candidates, the larger digit
//!   wins, as in `Display`, not the even one of Ryū as published.
//! * The reader splits rows on `\n` only, skips blank and
//!   whitespace-only rows, and separates fields by exactly
//!   [`char::is_whitespace`]: space, tab, `\r`, VT, FF, NBSP, U+0085,
//!   U+2028, U+3000 and the rest of Unicode's `White_Space`. A field
//!   becomes a number through `str::parse`.

use crate::num::{write_f64, write_u64, Row, Rows};
use crate::ServerError;
use ringjoin_core::{IndexKind, Mutation, RcjAlgorithm, RcjPair, RcjStats, RingBounds};
use ringjoin_geom::{pt, Item, Rect};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::sync::Arc;

/// Hard cap on a frame payload (64 MiB): a malformed or hostile length
/// prefix must not make either end allocate unboundedly.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Writes one frame: 4-byte big-endian length, then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame exceeds u32 length")
    })?;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME",
        ));
    }
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// The payload a serving loop sends for `reply`: the reply itself, or —
/// when it is larger than `limit` bytes — an `ERR [id=N]` naming its
/// size. The peer gets an answer and the session stays open, where a
/// failed [`write_frame`] would end it. The flag is `false` when the
/// reply was replaced.
pub(crate) fn bounded_reply(id: Option<u64>, reply: String, limit: u32) -> (String, bool) {
    if reply.len() <= limit as usize {
        return (reply, true);
    }
    const MIB: u32 = 1024 * 1024;
    let limit = if limit.is_multiple_of(MIB) {
        format!("{} MiB", limit / MIB)
    } else {
        format!("{limit}-byte")
    };
    let message = format!(
        "reply of {} bytes exceeds the {limit} frame limit",
        reply.len()
    );
    (Reply::encode_err_id(id, &message), false)
}

/// Largest single read while receiving a payload. The receive buffer
/// grows with the bytes that actually arrive, so a corrupt or hostile
/// length prefix costs at most one chunk of allocation — not the 64 MiB
/// the prefix promises.
pub const READ_CHUNK: usize = 64 * 1024;

/// How many consecutive read-timeout ticks [`read_frame_idle`] tolerates
/// *inside* a frame before declaring the peer stalled. (Timeouts before
/// the first length byte are a normal idle connection, reported as
/// [`FrameRead::Idle`] so the caller can run housekeeping.)
const MID_FRAME_PATIENCE: u32 = 150;

/// Outcome of one read attempt on a connection with a read timeout.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame payload.
    Frame(String),
    /// The read timeout expired with no frame in flight — the peer is
    /// connected but quiet. Poll your shutdown flag and try again.
    Idle,
    /// Clean end of stream before any length byte.
    Eof,
}

/// Reads one frame's payload. Returns `Ok(None)` on a clean end of
/// stream (EOF before any length byte); errors on truncated frames,
/// oversized lengths, non-UTF-8 payloads — and read timeouts, which a
/// blocking client treats as a hung server.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<String>> {
    match read_frame_inner(r, false)? {
        FrameRead::Frame(payload) => Ok(Some(payload)),
        FrameRead::Eof => Ok(None),
        FrameRead::Idle => unreachable!("strict reads never report Idle"),
    }
}

/// [`read_frame`] for a socket with a short read timeout: a timeout
/// between frames is reported as [`FrameRead::Idle`] instead of an
/// error, so a serving loop can interleave shutdown checks with reads.
/// A peer that stalls *mid-frame* for `MID_FRAME_PATIENCE` consecutive
/// ticks is an error.
pub fn read_frame_idle(r: &mut impl Read) -> std::io::Result<FrameRead> {
    read_frame_inner(r, true)
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn read_frame_inner(r: &mut impl Read, idle_ok: bool) -> std::io::Result<FrameRead> {
    let mut buf = Vec::with_capacity(4);
    if let Some(quiet) = fill(r, &mut buf, 4, idle_ok, true)? {
        return Ok(quiet);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    buf.clear();
    fill(r, &mut buf, len as usize, idle_ok, false)?;
    String::from_utf8(buf)
        .map(FrameRead::Frame)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// The one receive loop, for the length prefix (`frame_start`) and the
/// payload alike: receives `len` bytes straight into the empty `buf`.
/// The buffer grows by at most [`READ_CHUNK`] zeroed bytes past what has
/// arrived, so each byte is zeroed once and allocation tracks the bytes
/// received, never the (untrusted) length. It retries `Interrupted`
/// and, when `idle_ok`, up to `MID_FRAME_PATIENCE` consecutive timeouts.
/// An end of stream — or, when `idle_ok`, a timeout — before a frame's
/// first byte is [`FrameRead::Eof`] or [`FrameRead::Idle`]; anywhere
/// else it is an error.
fn fill(
    r: &mut impl Read,
    buf: &mut Vec<u8>,
    len: usize,
    idle_ok: bool,
    frame_start: bool,
) -> std::io::Result<Option<FrameRead>> {
    let mut filled = 0;
    let mut stalls = 0u32;
    while filled < len {
        if buf.len() == filled {
            buf.resize(filled + (len - filled).min(READ_CHUNK), 0);
        }
        let quiet = frame_start && filled == 0;
        match r.read(&mut buf[filled..]) {
            Ok(0) if quiet => return Ok(Some(FrameRead::Eof)),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    if frame_start {
                        "truncated frame length"
                    } else {
                        "truncated frame payload"
                    },
                ))
            }
            Ok(n) => {
                filled += n;
                stalls = 0;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if idle_ok && is_timeout(&e) => {
                if quiet {
                    return Ok(Some(FrameRead::Idle));
                }
                stalls += 1;
                if stalls > MID_FRAME_PATIENCE {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "peer stalled mid-frame",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

/// Prefixes a request payload with its `#<id>` token.
pub fn encode_request_id(id: u64, payload: &str) -> String {
    format!("#{id} {payload}")
}

/// Splits an optional leading `#<id>` token off a request payload,
/// returning the id (if any) and the rest of the payload. Id-less
/// payloads pass through untouched — the framing is optional.
pub fn split_request_id(payload: &str) -> Result<(Option<u64>, &str), ServerError> {
    let Some(rest) = payload.strip_prefix('#') else {
        return Ok((None, payload));
    };
    let end = rest.find(char::is_whitespace).unwrap_or(rest.len());
    let (digits, tail) = rest.split_at(end);
    let id: u64 = digits
        .parse()
        .map_err(|_| ServerError::BadRequest(format!("malformed request id {digits:?}")))?;
    Ok((Some(id), tail.strip_prefix(' ').unwrap_or(tail)))
}

/// A parsed client request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Register a dataset on every shard.
    Load {
        /// Dataset name (no whitespace).
        name: String,
        /// Index kind to build.
        kind: IndexKind,
        /// The points.
        items: Vec<Item>,
    },
    /// Insert new points into a live dataset (whole batch refused if
    /// any id is already present).
    Insert {
        /// Dataset name.
        name: String,
        /// The new points.
        items: Vec<Item>,
    },
    /// Delete points from a live dataset by id (whole batch refused if
    /// any id is absent).
    Delete {
        /// Dataset name.
        name: String,
        /// The ids to remove.
        ids: Vec<u64>,
    },
    /// Insert-or-replace points in a live dataset (never refused).
    Upsert {
        /// Dataset name.
        name: String,
        /// The points.
        items: Vec<Item>,
    },
    /// Bichromatic join (`outer` drives, `inner` is probed).
    Join {
        /// Outer dataset name.
        outer: String,
        /// Inner dataset name.
        inner: String,
        /// Algorithm (default `Auto`).
        algo: RcjAlgorithm,
        /// Optional region-of-interest restriction.
        bounds: Option<RingBounds>,
    },
    /// Self-join of one dataset.
    SelfJoin {
        /// The dataset.
        dataset: String,
        /// Algorithm (default `Auto`).
        algo: RcjAlgorithm,
        /// Optional region-of-interest restriction.
        bounds: Option<RingBounds>,
    },
    /// The `k` most compact pairs, ascending ring diameter.
    TopK {
        /// Outer dataset name.
        outer: String,
        /// Inner dataset name.
        inner: String,
        /// How many pairs.
        k: usize,
    },
    /// Print the resolved plan plus the sharding postscript.
    Explain {
        /// Outer dataset name.
        outer: String,
        /// Inner dataset (`None` = self-join explain).
        inner: Option<String>,
        /// Algorithm (default `Auto`).
        algo: RcjAlgorithm,
        /// Optional top-k bound.
        k: Option<usize>,
    },
    /// Server catalog and counters.
    Stats,
    /// Role handshake: the server answers `role=coordinator` (a shard
    /// worker answers `role=shard` to its own grammar's `HELLO`).
    Hello,
    /// Stop the server after acknowledging.
    Shutdown,
}

/// Validates a dataset name for the wire: non-empty, no whitespace or
/// control characters (names are whitespace-delimited on the wire), and
/// no `=` (a token holding one is a `key=value` option, so a name with
/// one could be loaded but not named in every verb).
pub fn validate_name(name: &str) -> Result<(), ServerError> {
    if name.is_empty() {
        return Err(ServerError::BadRequest("empty dataset name".into()));
    }
    if name.chars().any(|c| c.is_whitespace() || c.is_control()) {
        return Err(ServerError::BadRequest(format!(
            "dataset name {name:?} contains whitespace or control characters"
        )));
    }
    if name.contains('=') {
        return Err(ServerError::BadRequest(format!(
            "dataset name {name:?} contains '=', which marks a key=value option"
        )));
    }
    Ok(())
}

fn parse_kind(s: &str) -> Result<IndexKind, ServerError> {
    match s {
        "rtree" => Ok(IndexKind::Rtree),
        "quadtree" => Ok(IndexKind::Quadtree),
        other => Err(ServerError::BadRequest(format!(
            "unknown index kind {other:?}"
        ))),
    }
}

fn algo_name(algo: RcjAlgorithm) -> String {
    algo.name().to_lowercase()
}

fn parse_algo(s: &str) -> Result<RcjAlgorithm, ServerError> {
    RcjAlgorithm::from_name(s)
        .ok_or_else(|| ServerError::BadRequest(format!("unknown algorithm {s:?}")))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, ServerError> {
    s.parse()
        .map_err(|_| ServerError::BadRequest(format!("invalid {what}: {s:?}")))
}

fn encode_bounds(out: &mut String, bounds: &Option<RingBounds>) {
    if let Some(rb) = bounds {
        let _ = write!(
            out,
            " bounds={} maxd={}",
            encode_rect(rb.bounds),
            rb.max_diameter
        );
    }
}

/// The option keys of the client grammar.
const CLIENT_OPTIONS: &[&str] = &["algo", "bounds", "maxd", "k"];

/// The option keys of the shard-worker grammar: the client keys plus
/// the placement (`cell`), routing (`inner`) and history (`epoch`)
/// extras.
const SHARD_OPTIONS: &[&str] = &["algo", "bounds", "maxd", "k", "cell", "inner", "epoch"];

/// The `key=value` options of a request line. One parser serves both
/// grammars; each is handed the keys it allows, and every other key is
/// a protocol error.
struct Options {
    algo: RcjAlgorithm,
    bounds: Option<Rect>,
    maxd: Option<f64>,
    k: Option<usize>,
    cell: Option<Rect>,
    inner: Option<String>,
    epoch: Option<u64>,
}

impl Options {
    fn parse(tokens: &[&str], allowed: &[&str]) -> Result<Options, ServerError> {
        let mut opts = Options {
            algo: RcjAlgorithm::Auto,
            bounds: None,
            maxd: None,
            k: None,
            cell: None,
            inner: None,
            epoch: None,
        };
        for t in tokens {
            let (key, value) = t.split_once('=').ok_or_else(|| {
                ServerError::BadRequest(format!("expected key=value option, got {t:?}"))
            })?;
            let unknown = || ServerError::BadRequest(format!("unknown option {key:?}"));
            if !allowed.contains(&key) {
                return Err(unknown());
            }
            match key {
                "algo" => opts.algo = parse_algo(value)?,
                "maxd" => opts.maxd = Some(parse_num(value, "maxd")?),
                "k" => opts.k = Some(parse_num(value, "k")?),
                "bounds" => opts.bounds = Some(parse_bounds(value)?),
                "cell" => opts.cell = Some(parse_rect(value)?),
                "inner" => {
                    validate_name(value)?;
                    opts.inner = Some(value.to_string());
                }
                "epoch" => opts.epoch = Some(parse_num(value, "epoch")?),
                _ => return Err(unknown()),
            }
        }
        Ok(opts)
    }

    /// The `bounds=`/`maxd=` pair as a ring restriction: both or
    /// neither.
    fn ring_bounds(&self) -> Result<Option<RingBounds>, ServerError> {
        match (self.bounds, self.maxd) {
            (None, None) => Ok(None),
            (Some(bounds), Some(max_diameter)) => Ok(Some(RingBounds {
                bounds,
                max_diameter,
            })),
            _ => Err(ServerError::BadRequest(
                "bounds= and maxd= must be given together".into(),
            )),
        }
    }
}

/// Splits a payload into its command line and body, and the command
/// line into its verb and arguments.
fn split_command(payload: &str) -> Option<(&str, Vec<&str>, &str)> {
    let (line, body) = payload.split_once('\n').unwrap_or((payload, ""));
    let mut tokens = line.split_whitespace();
    let cmd = tokens.next()?;
    Some((cmd, tokens.collect(), body))
}

/// The `LOAD` payload: a header plus one item row per point. It is
/// both the client request that registers a dataset and the durable-log
/// record of that load.
pub(crate) fn encode_load(name: &str, kind: IndexKind, items: &[Item]) -> String {
    with_item_rows(format!("LOAD {name} {}\n", kind.name()), items)
}

/// A header line, then one item row per point.
fn with_item_rows(header: String, items: &[Item]) -> String {
    let mut out = header.into_bytes();
    for it in items {
        write_item_row(&mut out, it);
    }
    text(out)
}

/// A body built as bytes, as a `String`. The check cannot fail: bodies
/// hold UTF-8 names and ASCII numbers.
fn text(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("row text is UTF-8 names and ASCII numbers")
}

impl Request {
    /// Encodes the request as a frame payload.
    pub fn encode(&self) -> String {
        match self {
            Request::Load { name, kind, items } => encode_load(name, *kind, items),
            Request::Insert { name, items } => with_item_rows(format!("INSERT {name}\n"), items),
            Request::Delete { name, ids } => {
                let mut out = format!("DELETE {name}\n").into_bytes();
                for &id in ids {
                    write_u64(&mut out, id);
                    out.push(b'\n');
                }
                text(out)
            }
            Request::Upsert { name, items } => with_item_rows(format!("UPSERT {name}\n"), items),
            Request::Join {
                outer,
                inner,
                algo,
                bounds,
            } => {
                let mut out = format!("JOIN {outer} {inner} algo={}", algo_name(*algo));
                encode_bounds(&mut out, bounds);
                out
            }
            Request::SelfJoin {
                dataset,
                algo,
                bounds,
            } => {
                let mut out = format!("SELFJOIN {dataset} algo={}", algo_name(*algo));
                encode_bounds(&mut out, bounds);
                out
            }
            Request::TopK { outer, inner, k } => format!("TOPK {outer} {inner} {k}"),
            Request::Explain {
                outer,
                inner,
                algo,
                k,
            } => {
                let mut out = format!("EXPLAIN {outer}");
                if let Some(inner) = inner {
                    let _ = write!(out, " {inner}");
                }
                let _ = write!(out, " algo={}", algo_name(*algo));
                if let Some(k) = k {
                    let _ = write!(out, " k={k}");
                }
                out
            }
            Request::Stats => "STATS".to_string(),
            Request::Hello => "HELLO".to_string(),
            Request::Shutdown => "SHUTDOWN".to_string(),
        }
    }

    /// Parses a frame payload into a request.
    pub fn parse(payload: &str) -> Result<Request, ServerError> {
        let Some((cmd, args, body)) = split_command(payload) else {
            return Err(ServerError::BadRequest("empty request".into()));
        };
        match cmd {
            "LOAD" => {
                let [name, kind] = args[..] else {
                    return Err(ServerError::BadRequest(
                        "usage: LOAD <name> <rtree|quadtree>".into(),
                    ));
                };
                validate_name(name)?;
                let items = parse_rows(body, item_row)?;
                Ok(Request::Load {
                    name: name.to_string(),
                    kind: parse_kind(kind)?,
                    items,
                })
            }
            "INSERT" | "UPSERT" => {
                let [name] = args[..] else {
                    return Err(ServerError::BadRequest(format!(
                        "usage: {cmd} <name> (with `id x y` data rows)"
                    )));
                };
                validate_name(name)?;
                let name = name.to_string();
                let items = parse_rows(body, item_row)?;
                Ok(if cmd == "INSERT" {
                    Request::Insert { name, items }
                } else {
                    Request::Upsert { name, items }
                })
            }
            "DELETE" => {
                let [name] = args[..] else {
                    return Err(ServerError::BadRequest(
                        "usage: DELETE <name> (with `id` data rows)".into(),
                    ));
                };
                validate_name(name)?;
                Ok(Request::Delete {
                    name: name.to_string(),
                    ids: parse_rows(body, id_row)?,
                })
            }
            "JOIN" => {
                let [outer, inner, ref rest @ ..] = args[..] else {
                    return Err(ServerError::BadRequest(
                        "usage: JOIN <outer> <inner> [algo=..] [bounds=.. maxd=..]".into(),
                    ));
                };
                let opts = Options::parse(rest, CLIENT_OPTIONS)?;
                Ok(Request::Join {
                    outer: outer.to_string(),
                    inner: inner.to_string(),
                    algo: opts.algo,
                    bounds: opts.ring_bounds()?,
                })
            }
            "SELFJOIN" => {
                let [dataset, ref rest @ ..] = args[..] else {
                    return Err(ServerError::BadRequest(
                        "usage: SELFJOIN <dataset> [algo=..] [bounds=.. maxd=..]".into(),
                    ));
                };
                let opts = Options::parse(rest, CLIENT_OPTIONS)?;
                Ok(Request::SelfJoin {
                    dataset: dataset.to_string(),
                    algo: opts.algo,
                    bounds: opts.ring_bounds()?,
                })
            }
            "TOPK" => {
                let [outer, inner, k] = args[..] else {
                    return Err(ServerError::BadRequest(
                        "usage: TOPK <outer> <inner> <k>".into(),
                    ));
                };
                Ok(Request::TopK {
                    outer: outer.to_string(),
                    inner: inner.to_string(),
                    k: parse_num(k, "k")?,
                })
            }
            "EXPLAIN" => {
                let (names, rest): (Vec<&str>, Vec<&str>) =
                    args.iter().partition(|t| !t.contains('='));
                let (outer, inner) = match names[..] {
                    [outer] => (outer.to_string(), None),
                    [outer, inner] => (outer.to_string(), Some(inner.to_string())),
                    _ => {
                        return Err(ServerError::BadRequest(
                            "usage: EXPLAIN <outer> [<inner>] [algo=..] [k=K]".into(),
                        ))
                    }
                };
                let opts = Options::parse(&rest, CLIENT_OPTIONS)?;
                Ok(Request::Explain {
                    outer,
                    inner,
                    algo: opts.algo,
                    k: opts.k,
                })
            }
            "STATS" => Ok(Request::Stats),
            "HELLO" => Ok(Request::Hello),
            "SHUTDOWN" => Ok(Request::Shutdown),
            other => Err(ServerError::BadRequest(format!(
                "unknown command {other:?}"
            ))),
        }
    }
}

// ---------------------------------------------------------------------
// Row codecs
// ---------------------------------------------------------------------

/// Parses every non-blank row of a body with `row`, which sees the
/// row's first `N` fields.
fn parse_rows<T, const N: usize>(
    body: &str,
    row: impl Fn(&Row<'_, N>) -> Result<T, ServerError>,
) -> Result<Vec<T>, ServerError> {
    let mut rows = Rows::body(body);
    let mut out = Vec::new();
    while let Some(r) = rows.next_row() {
        out.push(row(&r)?);
    }
    Ok(out)
}

fn item(id: &str, x: &str, y: &str) -> Result<Item, ServerError> {
    Ok(Item::new(
        parse_num(id, "item id")?,
        pt(parse_num(x, "x coordinate")?, parse_num(y, "y coordinate")?),
    ))
}

/// Appends `id x y` (no row break).
fn write_item(out: &mut Vec<u8>, it: &Item) {
    write_u64(out, it.id);
    out.push(b' ');
    write_f64(out, it.point.x);
    out.push(b' ');
    write_f64(out, it.point.y);
}

/// Appends one `id x y` item row.
fn write_item_row(out: &mut Vec<u8>, it: &Item) {
    write_item(out, it);
    out.push(b'\n');
}

fn item_row_error(line: &str) -> ServerError {
    ServerError::BadRequest(format!("expected `id x y` data row, got {line:?}"))
}

/// One `id x y` item row (bit-exact round trip of [`write_item_row`]).
fn item_row(row: &Row<'_, 3>) -> Result<Item, ServerError> {
    let [id, x, y] = row.fields().ok_or_else(|| item_row_error(row.line()))?;
    item(id, x, y)
}

/// One `DELETE` row: an item id alone.
fn id_row(row: &Row<'_, 1>) -> Result<u64, ServerError> {
    let id = if row.count() == 1 {
        row.field(0)
    } else {
        row.line()
    };
    parse_num(id, "item id")
}

/// Appends one mutation row: `+ id x y` (insert), `- id` (delete) or
/// `^ id x y` (upsert) — the item-row codec behind a sign.
pub fn write_mutation_row(out: &mut String, op: &Mutation) {
    let mut row = Vec::new();
    push_mutation_row(&mut row, op);
    out.push_str(&text(row));
}

fn push_mutation_row(out: &mut Vec<u8>, op: &Mutation) {
    match op {
        Mutation::Insert(it) => {
            out.extend_from_slice(b"+ ");
            write_item_row(out, it);
        }
        Mutation::Delete(id) => {
            out.extend_from_slice(b"- ");
            write_u64(out, *id);
            out.push(b'\n');
        }
        Mutation::Upsert(it) => {
            out.extend_from_slice(b"^ ");
            write_item_row(out, it);
        }
    }
}

fn mutation_row_error(line: &str) -> ServerError {
    ServerError::BadRequest(format!(
        "expected `+ id x y`, `- id` or `^ id x y` mutation row, got {line:?}"
    ))
}

/// Parses one [`write_mutation_row`] row (bit-exact round trip).
pub fn parse_mutation_row(line: &str) -> Result<Mutation, ServerError> {
    match Rows::line(line).next_row() {
        Some(row) => mutation_row(&row),
        None => Err(mutation_row_error(line)),
    }
}

fn mutation_row(row: &Row<'_, 4>) -> Result<Mutation, ServerError> {
    let rest = row
        .after_first()
        .ok_or_else(|| mutation_row_error(row.line()))?;
    match row.field(0) {
        sign @ ("+" | "^") => {
            let [_, id, x, y] = row.fields().ok_or_else(|| item_row_error(rest))?;
            let it = item(id, x, y)?;
            Ok(if sign == "+" {
                Mutation::Insert(it)
            } else {
                Mutation::Upsert(it)
            })
        }
        "-" => parse_num(rest.trim(), "item id").map(Mutation::Delete),
        _ => Err(mutation_row_error(row.line())),
    }
}

fn write_pair_row(out: &mut Vec<u8>, pr: &RcjPair) {
    write_item(out, &pr.p);
    out.push(b' ');
    write_item(out, &pr.q);
    out.push(b'\n');
}

fn pair_row_error(line: &str) -> ServerError {
    ServerError::BadRequest(format!("expected 6-field pair row, got {line:?}"))
}

fn pair(fields: [&str; 6]) -> Result<RcjPair, ServerError> {
    let [pid, px, py, qid, qx, qy] = fields;
    Ok(RcjPair::new(item(pid, px, py)?, item(qid, qx, qy)?))
}

fn pair_row(row: &Row<'_, 6>) -> Result<RcjPair, ServerError> {
    pair(row.fields().ok_or_else(|| pair_row_error(row.line()))?)
}

fn tagged_pair_row(row: &Row<'_, 7>) -> Result<(usize, RcjPair), ServerError> {
    let rest = row.after_first().ok_or_else(|| {
        ServerError::BadRequest(format!(
            "expected 7-field tagged pair row, got {:?}",
            row.line()
        ))
    })?;
    let leaf = parse_num(row.field(0), "leaf index")?;
    let [_, pair_fields @ ..] = row.fields().ok_or_else(|| pair_row_error(rest))?;
    Ok((leaf, pair(pair_fields)?))
}

/// Encodes result pairs as wire rows (`p_id p_x p_y q_id q_x q_y`, one
/// per line, shortest-round-trip floats).
pub fn encode_pairs(pairs: &[RcjPair]) -> String {
    let mut out = Vec::new();
    for pr in pairs {
        write_pair_row(&mut out, pr);
    }
    text(out)
}

/// Parses wire pair rows back into [`RcjPair`]s (bit-exact round trip).
pub fn parse_pairs(body: &str) -> Result<Vec<RcjPair>, ServerError> {
    parse_rows(body, pair_row)
}

/// Encodes leaf-tagged result pairs as wire rows (`leaf p_id p_x p_y
/// q_id q_x q_y`): the shard-worker reply shape whose leading global
/// outer-leaf index is the coordinator's deterministic merge key.
pub fn encode_tagged_pairs(pairs: &[(usize, RcjPair)]) -> String {
    let mut out = Vec::new();
    for (leaf, pr) in pairs {
        write_u64(&mut out, *leaf as u64);
        out.push(b' ');
        write_pair_row(&mut out, pr);
    }
    text(out)
}

/// Parses [`encode_tagged_pairs`] rows (bit-exact round trip).
pub fn parse_tagged_pairs(body: &str) -> Result<Vec<(usize, RcjPair)>, ServerError> {
    parse_rows(body, tagged_pair_row)
}

/// Encodes a rectangle as `x0,y0,x1,y1` (shortest-round-trip floats;
/// `inf`/`-inf` legal — partition cells reach to infinity, and
/// [`Rect::empty`] round-trips as `inf,inf,-inf,-inf`).
pub fn encode_rect(r: Rect) -> String {
    let mut out = Vec::new();
    for (i, c) in [r.min.x, r.min.y, r.max.x, r.max.y].into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_f64(&mut out, c);
    }
    text(out)
}

/// Parses a [`encode_rect`] rectangle (bit-exact round trip).
pub fn parse_rect(s: &str) -> Result<Rect, ServerError> {
    let bad = || ServerError::BadRequest(format!("rect needs exactly x0,y0,x1,y1, got {s:?}"));
    let mut parts = s.split(',');
    let mut c = [0.0f64; 4];
    for v in &mut c {
        *v = parse_num(parts.next().ok_or_else(bad)?, "rect coordinate")?;
    }
    if parts.next().is_some() {
        return Err(bad());
    }
    // Construct the corners verbatim: `Rect::new` would normalize a
    // min > max pair, silently turning the empty rect (`inf,inf,-inf,
    // -inf`) into an everything-rect on the way in.
    Ok(Rect {
        min: pt(c[0], c[1]),
        max: pt(c[2], c[3]),
    })
}

/// Parses a region of interest, `x0,y0,x1,y1` with the corners in any
/// order (they are normalised). A NaN corner is refused: `Rect::new`
/// would silently drop it and answer for another window.
pub fn parse_bounds(s: &str) -> Result<Rect, ServerError> {
    let r = parse_rect(s)?;
    if [r.min.x, r.min.y, r.max.x, r.max.y]
        .iter()
        .any(|c| c.is_nan())
    {
        return Err(ServerError::BadRequest(format!(
            "bounds {s:?} has a NaN corner"
        )));
    }
    Ok(Rect::new(r.min, r.max))
}

/// The full [`RcjStats`] counter set as status-line fields — shard
/// replies must carry every counter so the coordinator's merged stats
/// stay byte-identical to a local run.
pub fn encode_stats_fields(stats: &RcjStats) -> [(&'static str, String); 5] {
    [
        ("candidates", stats.candidate_pairs.to_string()),
        ("result_pairs", stats.result_pairs.to_string()),
        ("heap_pops", stats.filter_heap_pops.to_string()),
        ("filter_node_reads", stats.filter_node_reads.to_string()),
        ("verify_node_visits", stats.verify_node_visits.to_string()),
    ]
}

/// Reads the [`encode_stats_fields`] counters back off a reply (fields
/// the peer did not send stay zero — version tolerance).
pub fn stats_from_reply(reply: &Reply) -> RcjStats {
    let f = |key: &str| -> u64 {
        reply
            .field(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or_default()
    };
    RcjStats {
        candidate_pairs: f("candidates"),
        result_pairs: f("result_pairs"),
        filter_heap_pops: f("heap_pops"),
        filter_node_reads: f("filter_node_reads"),
        verify_node_visits: f("verify_node_visits"),
    }
}

// ---------------------------------------------------------------------
// The shard message
// ---------------------------------------------------------------------

/// A shard-worker request — the one message a coordinator sends its
/// shard workers, whether they are threads (over a channel) or
/// processes (over the worker grammar in the module docs). Items and
/// operations sit behind an [`Arc`], so one fan-out to every replica
/// shares one copy.
#[derive(Clone, Debug)]
pub enum ShardRequest {
    /// Role handshake; a worker answers `role=shard`.
    Hello,
    /// Register (or replay) a dataset replica with this worker's owned
    /// cell of the dataset's space partition. Re-loading a name this
    /// worker already holds replaces it — that is what makes the
    /// coordinator's replay log idempotent.
    Load {
        /// Dataset name (no whitespace).
        name: String,
        /// Index kind to build.
        kind: IndexKind,
        /// The half-open partition cell this worker owns for the
        /// dataset (decides outer-leaf ownership).
        cell: Rect,
        /// The full point set (the index is replicated; the cell
        /// partitions the *work*).
        items: Arc<Vec<Item>>,
    },
    /// Apply a mutation batch carrying the epoch it must produce. The
    /// target epoch makes the message **idempotent**: a worker already
    /// at the target epoch answers without re-applying (the retry of a
    /// request whose reply was lost), while any other epoch mismatch is
    /// a hard refusal — the worker has diverged from the mutation log.
    Update {
        /// Dataset name.
        name: String,
        /// The epoch this batch advances the dataset to.
        target_epoch: u64,
        /// The mutations, in application order.
        ops: Arc<Vec<Mutation>>,
    },
    /// Leaf-driven join over the worker's owned outer leaves; the reply
    /// carries leaf-tagged pairs plus full counters.
    Join {
        /// Outer dataset name.
        outer: String,
        /// Inner dataset (`None` = self-join).
        inner: Option<String>,
        /// Algorithm; the worker resolves `Auto` over its replica.
        algo: RcjAlgorithm,
        /// Optional region-of-interest restriction.
        bounds: Option<RingBounds>,
    },
    /// Diameter-ordered top-k restricted to the worker's cell.
    TopK {
        /// Outer dataset name.
        outer: String,
        /// Inner dataset (`None` = self-join).
        inner: Option<String>,
        /// How many pairs.
        k: usize,
    },
    /// The plan this worker would run.
    Explain {
        /// Outer dataset name.
        outer: String,
        /// Inner dataset (`None` = self-join).
        inner: Option<String>,
        /// Algorithm (may be `Auto` for plan display).
        algo: RcjAlgorithm,
        /// Optional top-k bound.
        k: Option<usize>,
    },
    /// Stop the worker after acknowledging.
    Shutdown,
}

fn encode_inner(out: &mut String, inner: &Option<String>) {
    if let Some(inner) = inner {
        let _ = write!(out, " inner={inner}");
    }
}

impl ShardRequest {
    /// Encodes the shard request as a frame payload.
    pub fn encode(&self) -> String {
        match self {
            ShardRequest::Hello => "HELLO".to_string(),
            ShardRequest::Load {
                name,
                kind,
                cell,
                items,
            } => with_item_rows(
                format!("SLOAD {name} {} cell={}\n", kind.name(), encode_rect(*cell)),
                items,
            ),
            ShardRequest::Update {
                name,
                target_epoch,
                ops,
            } => {
                let mut out = format!("SUPDATE {name} epoch={target_epoch}\n").into_bytes();
                for op in ops.iter() {
                    push_mutation_row(&mut out, op);
                }
                text(out)
            }
            ShardRequest::Join {
                outer,
                inner,
                algo,
                bounds,
            } => {
                let mut out = format!("SJOIN {outer}");
                encode_inner(&mut out, inner);
                let _ = write!(out, " algo={}", algo_name(*algo));
                encode_bounds(&mut out, bounds);
                out
            }
            ShardRequest::TopK { outer, inner, k } => {
                let mut out = format!("STOPK {outer} {k}");
                encode_inner(&mut out, inner);
                out
            }
            ShardRequest::Explain {
                outer,
                inner,
                algo,
                k,
            } => {
                let mut out = format!("SEXPLAIN {outer}");
                encode_inner(&mut out, inner);
                let _ = write!(out, " algo={}", algo_name(*algo));
                if let Some(k) = k {
                    let _ = write!(out, " k={k}");
                }
                out
            }
            ShardRequest::Shutdown => "SHUTDOWN".to_string(),
        }
    }

    /// Parses a frame payload into a shard request.
    pub fn parse(payload: &str) -> Result<ShardRequest, ServerError> {
        let Some((cmd, args, body)) = split_command(payload) else {
            return Err(ServerError::BadRequest("empty shard request".into()));
        };
        match cmd {
            "HELLO" => Ok(ShardRequest::Hello),
            "SHUTDOWN" => Ok(ShardRequest::Shutdown),
            "SLOAD" => {
                let [name, kind, ref rest @ ..] = args[..] else {
                    return Err(ServerError::BadRequest(
                        "usage: SLOAD <name> <kind> cell=<rect>".into(),
                    ));
                };
                validate_name(name)?;
                let opts = Options::parse(rest, SHARD_OPTIONS)?;
                let cell = opts.cell.ok_or_else(|| {
                    ServerError::BadRequest("SLOAD requires a cell= rectangle".into())
                })?;
                Ok(ShardRequest::Load {
                    name: name.to_string(),
                    kind: parse_kind(kind)?,
                    cell,
                    items: Arc::new(parse_rows(body, item_row)?),
                })
            }
            "SUPDATE" => {
                let [name, ref rest @ ..] = args[..] else {
                    return Err(ServerError::BadRequest(
                        "usage: SUPDATE <name> epoch=<n> (with mutation rows)".into(),
                    ));
                };
                validate_name(name)?;
                let opts = Options::parse(rest, SHARD_OPTIONS)?;
                let target_epoch = opts.epoch.ok_or_else(|| {
                    ServerError::BadRequest("SUPDATE requires an epoch= target".into())
                })?;
                Ok(ShardRequest::Update {
                    name: name.to_string(),
                    target_epoch,
                    ops: Arc::new(parse_rows(body, mutation_row)?),
                })
            }
            "SJOIN" => {
                let [outer, ref rest @ ..] = args[..] else {
                    return Err(ServerError::BadRequest(
                        "usage: SJOIN <outer> [inner=<name>] [algo=..] [bounds=.. maxd=..]".into(),
                    ));
                };
                let opts = Options::parse(rest, SHARD_OPTIONS)?;
                let bounds = opts.ring_bounds()?;
                Ok(ShardRequest::Join {
                    outer: outer.to_string(),
                    inner: opts.inner,
                    algo: opts.algo,
                    bounds,
                })
            }
            "STOPK" => {
                let [outer, k, ref rest @ ..] = args[..] else {
                    return Err(ServerError::BadRequest(
                        "usage: STOPK <outer> <k> [inner=<name>]".into(),
                    ));
                };
                let opts = Options::parse(rest, SHARD_OPTIONS)?;
                Ok(ShardRequest::TopK {
                    outer: outer.to_string(),
                    inner: opts.inner,
                    k: parse_num(k, "k")?,
                })
            }
            "SEXPLAIN" => {
                let [outer, ref rest @ ..] = args[..] else {
                    return Err(ServerError::BadRequest(
                        "usage: SEXPLAIN <outer> [inner=<name>] [algo=..] [k=K]".into(),
                    ));
                };
                let opts = Options::parse(rest, SHARD_OPTIONS)?;
                Ok(ShardRequest::Explain {
                    outer: outer.to_string(),
                    inner: opts.inner,
                    algo: opts.algo,
                    k: opts.k,
                })
            }
            other => Err(ServerError::BadRequest(format!(
                "unknown shard command {other:?}"
            ))),
        }
    }
}

/// A worker's ownership of a dataset after a load or an update batch:
/// its owned outer-leaf count and the union of those leaves' regions.
#[derive(Clone, Copy, Debug)]
pub struct Ownership {
    /// Outer leaf groups the worker owns.
    pub leaves: usize,
    /// Union of the owned leaf regions (empty when none are owned).
    pub extent: Rect,
}

/// A shard worker's answer to one [`ShardRequest`] — one variant per
/// reply shape.
#[derive(Clone, Debug)]
pub enum ShardReply {
    /// `HELLO`: the peer is a shard worker.
    Hello,
    /// `SLOAD` / `SUPDATE`: the worker's ownership afterwards.
    Indexed(Ownership),
    /// `SJOIN`: leaf-tagged pairs in leaf order plus the run counters.
    Joined {
        /// `(global outer-leaf index, pair)` rows.
        pairs: Vec<(usize, RcjPair)>,
        /// The worker's run counters.
        stats: RcjStats,
    },
    /// `STOPK`: the most compact pairs of the shard's outer leaves, in
    /// rank order.
    Ranked {
        /// At most `k` pairs.
        pairs: Vec<RcjPair>,
        /// The worker's run counters.
        stats: RcjStats,
    },
    /// `SEXPLAIN`: the plan text.
    Plan(String),
    /// `SHUTDOWN` acknowledged.
    Bye,
}

fn required<'r>(reply: &'r Reply, key: &str) -> Result<&'r str, ServerError> {
    reply
        .field(key)
        .ok_or_else(|| ServerError::BadRequest(format!("worker reply lacks {key}=")))
}

impl ShardReply {
    /// Encodes the reply as an `OK` frame payload, echoing the request
    /// id (if any) as [`Reply::encode_ok`] does.
    pub fn encode(&self, id: Option<u64>) -> String {
        match self {
            ShardReply::Hello => Reply::encode_ok(id, &[("role", "shard".to_string())], ""),
            ShardReply::Indexed(own) => Reply::encode_ok(
                id,
                &[
                    ("leaves", own.leaves.to_string()),
                    ("extent", encode_rect(own.extent)),
                ],
                "",
            ),
            ShardReply::Joined { pairs, stats } => {
                let mut fields = vec![("pairs", pairs.len().to_string())];
                fields.extend(encode_stats_fields(stats));
                Reply::encode_ok(id, &fields, &encode_tagged_pairs(pairs))
            }
            ShardReply::Ranked { pairs, stats } => {
                let mut fields = vec![("pairs", pairs.len().to_string())];
                fields.extend(encode_stats_fields(stats));
                Reply::encode_ok(id, &fields, &encode_pairs(pairs))
            }
            ShardReply::Plan(text) => Reply::encode_ok(id, &[], text),
            ShardReply::Bye => Reply::encode_ok(id, &[("bye", "1".to_string())], ""),
        }
    }

    /// Parses a worker's answer to `req`. An `ERR` payload is an error,
    /// and so is a `HELLO` answered by anything but a shard worker.
    pub fn parse(req: &ShardRequest, payload: &str) -> Result<ShardReply, ServerError> {
        Self::from_reply(req, Reply::parse(payload)?)
    }

    /// [`ShardReply::parse`] of an `OK` reply already split into its
    /// fields and body.
    pub(crate) fn from_reply(req: &ShardRequest, reply: Reply) -> Result<ShardReply, ServerError> {
        Ok(match req {
            ShardRequest::Hello => {
                let role = reply.field("role");
                if role != Some("shard") {
                    return Err(ServerError::BadRequest(format!(
                        "peer is not a shard worker (role={})",
                        role.unwrap_or("?")
                    )));
                }
                ShardReply::Hello
            }
            ShardRequest::Load { .. } | ShardRequest::Update { .. } => {
                ShardReply::Indexed(Ownership {
                    leaves: parse_num(required(&reply, "leaves")?, "leaves")?,
                    extent: parse_rect(required(&reply, "extent")?)?,
                })
            }
            ShardRequest::Join { .. } => ShardReply::Joined {
                pairs: parse_tagged_pairs(&reply.body)?,
                stats: stats_from_reply(&reply),
            },
            ShardRequest::TopK { .. } => ShardReply::Ranked {
                pairs: parse_pairs(&reply.body)?,
                stats: stats_from_reply(&reply),
            },
            ShardRequest::Explain { .. } => ShardReply::Plan(reply.body),
            ShardRequest::Shutdown => ShardReply::Bye,
        })
    }
}

/// A parsed server response: the `OK` status-line fields plus the body.
/// (`ERR` responses surface as errors before a `Reply` is built.)
#[derive(Clone, Debug, Default)]
pub struct Reply {
    /// The echoed request id, when the request carried one.
    pub id: Option<u64>,
    /// `key=value` fields of the status line, in order.
    pub fields: Vec<(String, String)>,
    /// Everything after the status line.
    pub body: String,
}

impl Reply {
    /// Builds an `OK` payload, echoing the request id (if any) as the
    /// first status-line field.
    pub fn encode_ok(id: Option<u64>, fields: &[(&str, String)], body: &str) -> String {
        let mut out = String::from("OK");
        if let Some(id) = id {
            let _ = write!(out, " id={id}");
        }
        for (k, v) in fields {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
        out.push_str(body);
        out
    }

    /// Builds an `ERR` payload, echoing the request id (if any) right
    /// after the status word so pipelining clients can still match the
    /// failure to its request.
    pub fn encode_err_id(id: Option<u64>, message: &str) -> String {
        // Keep the status machine-parsable: the message stays on one line.
        let msg = message.replace('\n', " ");
        match id {
            Some(id) => format!("ERR id={id} {msg}"),
            None => format!("ERR {msg}"),
        }
    }

    /// The backpressure rejection: `ERR [id=N] busy retry_after_ms=<ms>
    /// (<what>)`. Clients parse it back as [`ServerError::Busy`].
    pub fn encode_busy(id: Option<u64>, retry_after_ms: u64, what: &str) -> String {
        Self::encode_err_id(
            id,
            &format!("busy retry_after_ms={retry_after_ms} ({what})"),
        )
    }

    /// Parses a response payload; `ERR` payloads become
    /// [`ServerError::Remote`] (or [`ServerError::Busy`] for the
    /// backpressure rejection).
    pub fn parse(payload: &str) -> Result<Reply, ServerError> {
        Self::parse_with_id(payload).1
    }

    /// [`Reply::parse`], but the echoed request id survives even when
    /// the response is an error — a pipelining client needs it to match
    /// an `ERR` to the request that caused it.
    pub fn parse_with_id(payload: &str) -> (Option<u64>, Result<Reply, ServerError>) {
        let (line, body) = payload.split_once('\n').unwrap_or((payload, ""));
        if let Some(msg) = line.strip_prefix("ERR") {
            let mut msg = msg.trim();
            let mut id = None;
            if let Some(rest) = msg.strip_prefix("id=") {
                let end = rest.find(char::is_whitespace).unwrap_or(rest.len());
                if let Ok(n) = rest[..end].parse::<u64>() {
                    id = Some(n);
                    msg = rest[end..].trim_start();
                }
            }
            let err = if let Some(rest) = msg.strip_prefix("busy") {
                let retry_after_ms = rest
                    .split_whitespace()
                    .find_map(|t| t.strip_prefix("retry_after_ms="))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0);
                ServerError::Busy { retry_after_ms }
            } else {
                ServerError::Remote(msg.to_string())
            };
            return (id, Err(err));
        }
        let Some(rest) = line.strip_prefix("OK") else {
            return (
                None,
                Err(ServerError::BadRequest(format!(
                    "malformed response status line {line:?}"
                ))),
            );
        };
        let fields: Vec<(String, String)> = match rest
            .split_whitespace()
            .map(|t| match t.split_once('=') {
                Some((k, v)) => Ok((k.to_string(), v.to_string())),
                None => Err(ServerError::BadRequest(format!(
                    "malformed response field {t:?}"
                ))),
            })
            .collect()
        {
            Ok(fields) => fields,
            Err(e) => return (None, Err(e)),
        };
        let id = fields
            .iter()
            .find(|(k, _)| k == "id")
            .and_then(|(_, v)| v.parse().ok());
        (
            id,
            Ok(Reply {
                id,
                fields,
                body: body.to_string(),
            }),
        )
    }

    /// Looks up a status-line field.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Parses one `id x y` item row.
    fn parse_item_row(line: &str) -> Result<Item, ServerError> {
        match Rows::line(line).next_row() {
            Some(row) => item_row(&row),
            None => Err(item_row_error(line)),
        }
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, b"hello frame").unwrap();
        write_frame(&mut buf, "unicode ✓".as_bytes()).unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "hello frame");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "unicode ✓");
        assert!(read_frame(&mut r).unwrap().is_none()); // clean EOF

        // A hostile length prefix is rejected before allocation.
        let huge = (MAX_FRAME + 1).to_be_bytes().to_vec();
        let mut r = std::io::Cursor::new(huge);
        assert!(read_frame(&mut r).is_err());
        // Truncated payloads error rather than hang or return garbage.
        let mut short: Vec<u8> = 10u32.to_be_bytes().to_vec();
        short.extend_from_slice(b"abc");
        assert!(read_frame(&mut std::io::Cursor::new(short)).is_err());
    }

    /// Regression (oversized-allocation bug): a length prefix promising
    /// MAX_FRAME with no payload behind it must fail after at most one
    /// read chunk of allocation — the receive buffer tracks bytes that
    /// actually arrive, not the untrusted prefix.
    #[test]
    fn hostile_length_prefix_does_not_preallocate() {
        struct CountingEof(usize);
        impl Read for CountingEof {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                self.0 += 1;
                Ok(0) // EOF right after the length prefix
            }
        }
        let prefix = MAX_FRAME.to_be_bytes();
        let mut r = std::io::Cursor::new(prefix.to_vec()).chain(CountingEof(0));
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);

        // Payloads larger than one read chunk still round-trip intact.
        let big = "x".repeat(READ_CHUNK * 3 + 17);
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, big.as_bytes()).unwrap();
        let got = read_frame(&mut std::io::Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(got, big);
    }

    #[test]
    fn request_ids_split_and_round_trip() {
        assert_eq!(split_request_id("STATS").unwrap(), (None, "STATS"));
        assert_eq!(
            split_request_id(&encode_request_id(7, "STATS")).unwrap(),
            (Some(7), "STATS")
        );
        let (id, rest) = split_request_id("#42 LOAD d rtree\n1 2 3\n").unwrap();
        assert_eq!(id, Some(42));
        assert_eq!(rest, "LOAD d rtree\n1 2 3\n");
        assert!(split_request_id("#x STATS").is_err());
        assert!(split_request_id("# STATS").is_err());
        // A bare id with no command is a valid split, then a parse error.
        let (id, rest) = split_request_id("#9").unwrap();
        assert_eq!(id, Some(9));
        assert!(Request::parse(rest).is_err());
    }

    #[test]
    fn replies_echo_ids_on_ok_and_err() {
        let payload = Reply::encode_ok(Some(3), &[("pairs", "1".into())], "row\n");
        let (id, reply) = Reply::parse_with_id(&payload);
        let reply = reply.unwrap();
        assert_eq!(id, Some(3));
        assert_eq!(reply.id, Some(3));
        assert_eq!(reply.field("pairs"), Some("1"));

        let (id, err) = Reply::parse_with_id(&Reply::encode_err_id(Some(8), "nope"));
        assert_eq!(id, Some(8));
        assert!(matches!(err, Err(ServerError::Remote(m)) if m == "nope"));

        let (id, err) = Reply::parse_with_id(&Reply::encode_busy(Some(5), 75, "queue full"));
        assert_eq!(id, Some(5));
        assert!(matches!(err, Err(ServerError::Busy { retry_after_ms: 75 })));
        // Version tolerance: id-less replies keep parsing.
        let (id, reply) = Reply::parse_with_id(&Reply::encode_ok(None, &[("x", "1".into())], ""));
        assert_eq!(id, None);
        assert!(reply.unwrap().id.is_none());
    }

    #[test]
    fn idle_reads_distinguish_quiet_peers_from_stalled_frames() {
        struct Timeouts<R>(R, Vec<bool>);
        impl<R: Read> Read for Timeouts<R> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.1.pop().unwrap_or(false) {
                    return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "tick"));
                }
                self.0.read(buf)
            }
        }
        let mut framed: Vec<u8> = Vec::new();
        write_frame(&mut framed, b"STATS").unwrap();
        // Timeout before any byte: Idle; then the frame arrives whole.
        let mut r = Timeouts(std::io::Cursor::new(framed), vec![false, true]);
        assert!(matches!(read_frame_idle(&mut r).unwrap(), FrameRead::Idle));
        match read_frame_idle(&mut r).unwrap() {
            FrameRead::Frame(p) => assert_eq!(p, "STATS"),
            other => panic!("expected frame, got {other:?}"),
        }
        assert!(matches!(read_frame_idle(&mut r).unwrap(), FrameRead::Eof));
    }

    #[test]
    fn replies_parse_fields_and_errors() {
        let payload = Reply::encode_ok(
            None,
            &[("pairs", "3".into()), ("shards", "2".into())],
            "a b\n",
        );
        let reply = Reply::parse(&payload).unwrap();
        assert_eq!(reply.field("pairs"), Some("3"));
        assert_eq!(reply.field("shards"), Some("2"));
        assert_eq!(reply.field("missing"), None);
        assert_eq!(reply.body, "a b\n");

        let err = Reply::parse(&Reply::encode_err_id(None, "it\nbroke")).unwrap_err();
        match err {
            ServerError::Remote(msg) => assert_eq!(msg, "it broke"),
            other => panic!("expected Remote, got {other:?}"),
        }
        assert!(Reply::parse("WAT 1").is_err());
        assert!(Reply::parse("OK pairs").is_err());
    }

    #[test]
    fn rects_round_trip_including_degenerate_and_empty() {
        for rect in [
            Rect::new(pt(-1.5, 2.25), pt(3.75, 1e300)),
            Rect::new(pt(0.1 + 0.2, -0.0), pt(0.1 + 0.2, -0.0)),
            Rect::empty(),
        ] {
            let wire = encode_rect(rect);
            let back = parse_rect(&wire).unwrap();
            assert_eq!(encode_rect(back), wire, "rect drifted through the wire");
        }
        assert!(parse_rect("1,2,3").is_err(), "three coordinates");
        assert!(parse_rect("1,2,3,x").is_err(), "non-numeric");
        assert!(parse_rect("1,2,3,4,5").is_err(), "five coordinates");
    }

    #[test]
    fn requests_round_trip_through_encode_parse() {
        let awkward = [
            Item::new(7, pt(0.1 + 0.2, 1e300)),
            Item::new(u64::MAX, pt(-0.0, 2.5e-308)),
        ];
        let bounds = Some(RingBounds {
            bounds: Rect::new(pt(0.5, 1.5), pt(10.25, 20.75)),
            max_diameter: 3.375,
        });
        let reqs = [
            Request::Load {
                name: "shops".into(),
                kind: IndexKind::Quadtree,
                items: awkward.to_vec(),
            },
            Request::Insert {
                name: "pts".into(),
                items: awkward.to_vec(),
            },
            Request::Delete {
                name: "pts".into(),
                ids: vec![7, 9, u64::MAX],
            },
            Request::Upsert {
                name: "pts".into(),
                items: vec![Item::new(7, pt(4.25, 5.5))],
            },
            Request::Join {
                outer: "q".into(),
                inner: "p".into(),
                algo: RcjAlgorithm::Obj,
                bounds: None,
            },
            Request::SelfJoin {
                dataset: "d".into(),
                algo: RcjAlgorithm::Auto,
                bounds,
            },
            Request::TopK {
                outer: "q".into(),
                inner: "p".into(),
                k: 12,
            },
            Request::Explain {
                outer: "q".into(),
                inner: Some("p".into()),
                algo: RcjAlgorithm::Inj,
                k: Some(4),
            },
            Request::Explain {
                outer: "d".into(),
                inner: None,
                algo: RcjAlgorithm::Auto,
                k: None,
            },
            Request::Stats,
            Request::Hello,
            Request::Shutdown,
        ];
        for req in reqs {
            // RingBounds has no PartialEq; compare the re-encoding,
            // which is injective over the request structure.
            let parsed = Request::parse(&req.encode()).unwrap();
            assert_eq!(req.encode(), parsed.encode(), "{req:?}");
        }
        let cell = Rect::new(pt(-10.0, -10.0), pt(0.5, 7.25));
        let shard_reqs = [
            ShardRequest::Hello,
            ShardRequest::Shutdown,
            ShardRequest::Load {
                name: "pts".into(),
                kind: IndexKind::Quadtree,
                cell,
                items: Arc::new(awkward.to_vec()),
            },
            ShardRequest::Load {
                name: "q".into(),
                kind: IndexKind::Rtree,
                cell: Rect::empty(),
                items: Arc::default(),
            },
            ShardRequest::Update {
                name: "pts".into(),
                target_epoch: 3,
                ops: Arc::new(vec![
                    Mutation::Insert(awkward[0]),
                    Mutation::Delete(2),
                    Mutation::Upsert(awkward[1]),
                ]),
            },
            ShardRequest::Join {
                outer: "a".into(),
                inner: Some("b".into()),
                algo: RcjAlgorithm::Bij,
                bounds,
            },
            ShardRequest::Join {
                outer: "a".into(),
                inner: None,
                algo: RcjAlgorithm::Auto,
                bounds: None,
            },
            ShardRequest::TopK {
                outer: "a".into(),
                inner: Some("b".into()),
                k: 12,
            },
            ShardRequest::Explain {
                outer: "a".into(),
                inner: None,
                algo: RcjAlgorithm::Inj,
                k: Some(3),
            },
        ];
        for req in shard_reqs {
            let wire = req.encode();
            let back = ShardRequest::parse(&wire).unwrap();
            assert_eq!(back.encode(), wire, "shard request drifted: {wire:?}");
        }
    }

    #[test]
    fn malformed_requests_are_protocol_errors() {
        for bad in [
            "",
            "FROBNICATE x",
            "LOAD",
            "LOAD name btree",
            "LOAD bad name rtree",
            "LOAD d rtree\n1 2",
            "LOAD d rtree\n1 x y",
            "INSERT",
            "DELETE d\n1 2 3",
            "UPSERT d\n1 2",
            "JOIN onlyone",
            "JOIN q p algo=fastest",
            "JOIN q p bounds=1,2,3",
            "JOIN q p bounds=1,2,3,4", // maxd missing
            "JOIN q p maxd=5",         // bounds missing
            "JOIN q p frobnicate=1",
            "TOPK q p notanumber",
            "EXPLAIN",
            "EXPLAIN a b c",
            // The shard grammar's extra keys are unknown options here.
            "JOIN q p cell=0,0,1,1",
            "SELFJOIN d epoch=3",
            "EXPLAIN q p inner=p",
        ] {
            assert!(Request::parse(bad).is_err(), "accepted {bad:?}");
        }
        for bad in [
            "",
            "SLOAD x rtree", // no cell
            "SJOIN",
            "SJOIN q frobnicate=1",
            "STOPK a notanum",
            "SUPDATE pts\n+ 1 2 3", // epoch= is mandatory
            "SUPDATE pts epoch=1\n* 1 2 3",
            "LOAD d rtree", // a client verb
        ] {
            assert!(ShardRequest::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert!(ShardRequest::parse("SJOIN q inner=p cell=0,0,1,1 epoch=2").is_ok());
        // A worker's page file is fixed when the worker starts: a load
        // that names one is refused like any key the grammar lacks.
        for key in ["spill", "writer"] {
            let err = ShardRequest::parse(&format!("SLOAD d rtree cell=0,0,1,1 {key}=1\n1 2 3"))
                .err()
                .map(|e| e.to_string());
            assert!(
                err.as_deref()
                    .is_some_and(|e| e.contains(&format!("unknown option {key:?}"))),
                "{key}: {err:?}"
            );
        }
    }

    #[test]
    fn names_holding_an_equals_sign_are_refused_up_front() {
        // `EXPLAIN` tells names from options by the `=`, so such a name
        // could be loaded but never explained: every verb that
        // introduces or mutates a name refuses it instead.
        for bad in [
            "LOAD v=2 rtree\n1 2 3",
            "INSERT v=2\n1 2 3",
            "UPSERT v=2\n1 2 3",
            "DELETE v=2\n1",
        ] {
            let err = Request::parse(bad).unwrap_err().to_string();
            assert!(err.contains("\"v=2\""), "{bad:?}: {err}");
        }
        for bad in [
            "SLOAD v=2 rtree cell=0,0,1,1\n1 2 3",
            "SUPDATE v=2 epoch=1\n+ 1 2 3",
            "SJOIN q inner=v=2",
        ] {
            let err = ShardRequest::parse(bad).unwrap_err().to_string();
            assert!(err.contains("\"v=2\""), "{bad:?}: {err}");
        }
        assert!(validate_name("v2").is_ok());
        assert!(matches!(
            Request::parse("EXPLAIN v2 p").unwrap(),
            Request::Explain { outer, inner: Some(inner), .. } if outer == "v2" && inner == "p"
        ));
    }

    #[test]
    fn bounds_normalise_and_refuse_nan_while_cells_travel_verbatim() {
        let Request::Join {
            bounds: Some(rb), ..
        } = Request::parse("JOIN q p bounds=5,6,1,2 maxd=1").unwrap()
        else {
            panic!("bounds lost");
        };
        assert_eq!((rb.bounds.min, rb.bounds.max), (pt(1.0, 2.0), pt(5.0, 6.0)));
        let ShardRequest::Load { cell, .. } =
            ShardRequest::parse("SLOAD d rtree cell=inf,inf,-inf,-inf").unwrap()
        else {
            panic!("not a load");
        };
        assert!(cell.is_empty(), "the empty cell must stay empty");
        // A NaN corner would silently vanish inside `Rect::new`; it is
        // a protocol error in both grammars instead.
        assert!(Request::parse("JOIN q p bounds=nan,0,1,1 maxd=1").is_err());
        assert!(Request::parse("SELFJOIN d bounds=0,0,NaN,1 maxd=1").is_err());
        assert!(ShardRequest::parse("SJOIN q bounds=0,nan,1,1 maxd=1").is_err());
        // Infinite corners are a legitimate everything-window.
        assert!(Request::parse("JOIN q p bounds=-inf,-inf,inf,inf maxd=1").is_ok());
    }

    #[test]
    fn pair_rows_round_trip_bit_exactly() {
        let pairs = vec![
            RcjPair::new(
                Item::new(1, pt(0.1 + 0.2, 1e300)),
                Item::new(2, pt(-0.0, 2.5e-308)),
            ),
            RcjPair::new(Item::new(3, pt(7.0, 8.0)), Item::new(4, pt(9.5, 10.25))),
        ];
        assert_eq!(parse_pairs(&encode_pairs(&pairs)).unwrap(), pairs);
        assert!(parse_pairs("1 2 3\n").is_err());
        let tagged: Vec<(usize, RcjPair)> = vec![(0, pairs[0]), (41, pairs[1])];
        let parsed = parse_tagged_pairs(&encode_tagged_pairs(&tagged)).unwrap();
        assert_eq!(parsed, tagged);
        assert!(parse_tagged_pairs("1 2 3 4 5 6\n").is_err(), "untagged row");
        assert!(parse_tagged_pairs("x 1 2 3 4 5 6\n").is_err(), "bad leaf");

        let stats = RcjStats {
            candidate_pairs: 10,
            result_pairs: 3,
            filter_heap_pops: 77,
            filter_node_reads: 5,
            verify_node_visits: 9,
        };
        let fields: Vec<(&str, String)> = encode_stats_fields(&stats).into_iter().collect();
        let reply = Reply::parse(&Reply::encode_ok(None, &fields, "")).unwrap();
        assert_eq!(stats_from_reply(&reply), stats);
        // Absent fields default to zero rather than failing the reply.
        let bare =
            Reply::parse(&Reply::encode_ok(None, &[("candidates", "4".into())], "")).unwrap();
        assert_eq!(stats_from_reply(&bare).candidate_pairs, 4);
        assert_eq!(stats_from_reply(&bare).result_pairs, 0);
    }

    #[test]
    fn item_and_mutation_rows_round_trip_and_refuse_malformed_rows() {
        let ops = [
            Mutation::Insert(Item::new(1, pt(0.1 + 0.2, -0.0))),
            Mutation::Delete(u64::MAX),
            Mutation::Upsert(Item::new(3, pt(1e-300, f64::MAX))),
        ];
        for op in ops {
            let mut row = String::new();
            write_mutation_row(&mut row, &op);
            assert_eq!(parse_mutation_row(row.trim_end()).unwrap(), op, "{row:?}");
        }
        for bad in [
            "",
            "+",
            "+ 1 2",
            "+ 1 2 3 4",
            "- ",
            "- 1 2",
            "* 1 2 3",
            "+1 2 3",
        ] {
            assert!(parse_mutation_row(bad).is_err(), "accepted {bad:?}");
        }
        for bad in ["", "1 2", "1 2 3 4", "x 2 3", "1 y 3"] {
            assert!(parse_item_row(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(
            parse_item_row(" 5\t1.5  -2 ").unwrap(),
            Item::new(5, pt(1.5, -2.0))
        );
    }

    #[test]
    fn replies_too_large_for_a_frame_become_err_and_keep_their_id() {
        let reply = Reply::encode_ok(Some(4), &[("pairs", "2".into())], "1 2 3 4 5 6\n");
        let (sent, fits) = bounded_reply(Some(4), reply.clone(), reply.len() as u32);
        assert!(fits);
        assert_eq!(sent, reply, "a reply that fits goes out unchanged");

        let (sent, fits) = bounded_reply(Some(4), reply.clone(), 16);
        assert!(!fits);
        let (id, err) = Reply::parse_with_id(&sent);
        assert_eq!(id, Some(4));
        let want = format!(
            "reply of {} bytes exceeds the 16-byte frame limit",
            reply.len()
        );
        assert!(
            matches!(err, Err(ServerError::Remote(m)) if m == want),
            "{sent}"
        );

        let (sent, _) = bounded_reply(None, "x".repeat(3 << 20), 2 << 20);
        assert_eq!(
            sent,
            "ERR reply of 3145728 bytes exceeds the 2 MiB frame limit"
        );
    }

    // -----------------------------------------------------------------
    // The previous row codec (`write!` writers, `lines().map(str::trim)`
    // and `split_whitespace` reader), kept as the new codec's oracle
    // -----------------------------------------------------------------

    mod reference {
        use super::super::{item, parse_num};
        use crate::ServerError;
        use ringjoin_core::{Mutation, RcjPair};
        use ringjoin_geom::{Item, Rect};
        use std::fmt::Write;

        pub fn parse_rows<T>(
            body: &str,
            row: impl Fn(&str) -> Result<T, ServerError>,
        ) -> Result<Vec<T>, ServerError> {
            body.lines()
                .map(str::trim)
                .filter(|line| !line.is_empty())
                .map(row)
                .collect()
        }

        fn fields<const N: usize>(line: &str) -> Option<[&str; N]> {
            let mut tokens = line.split_whitespace();
            let mut out = [""; N];
            for slot in &mut out {
                *slot = tokens.next()?;
            }
            tokens.next().is_none().then_some(out)
        }

        pub fn item_row(line: &str) -> Result<Item, ServerError> {
            let [id, x, y] = fields(line).ok_or_else(|| {
                ServerError::BadRequest(format!("expected `id x y` data row, got {line:?}"))
            })?;
            item(id, x, y)
        }

        pub fn id_row(line: &str) -> Result<u64, ServerError> {
            parse_num(line, "item id")
        }

        pub fn mutation_row(line: &str) -> Result<Mutation, ServerError> {
            let bad = || {
                ServerError::BadRequest(format!(
                    "expected `+ id x y`, `- id` or `^ id x y` mutation row, got {line:?}"
                ))
            };
            let (sign, rest) = line
                .trim_start()
                .split_once(char::is_whitespace)
                .ok_or_else(bad)?;
            match sign {
                "+" => item_row(rest).map(Mutation::Insert),
                "^" => item_row(rest).map(Mutation::Upsert),
                "-" => parse_num(rest.trim(), "item id").map(Mutation::Delete),
                _ => Err(bad()),
            }
        }

        pub fn pair_row(line: &str) -> Result<RcjPair, ServerError> {
            let [pid, px, py, qid, qx, qy] = fields(line).ok_or_else(|| {
                ServerError::BadRequest(format!("expected 6-field pair row, got {line:?}"))
            })?;
            Ok(RcjPair::new(item(pid, px, py)?, item(qid, qx, qy)?))
        }

        pub fn tagged_pair_row(line: &str) -> Result<(usize, RcjPair), ServerError> {
            let (leaf, row) = line.split_once(char::is_whitespace).ok_or_else(|| {
                ServerError::BadRequest(format!("expected 7-field tagged pair row, got {line:?}"))
            })?;
            Ok((parse_num(leaf, "leaf index")?, pair_row(row)?))
        }

        pub fn write_item_row(out: &mut String, it: &Item) {
            let _ = writeln!(out, "{} {} {}", it.id, it.point.x, it.point.y);
        }

        pub fn write_mutation_row(out: &mut String, op: &Mutation) {
            match op {
                Mutation::Insert(it) => {
                    out.push_str("+ ");
                    write_item_row(out, it);
                }
                Mutation::Delete(id) => {
                    let _ = writeln!(out, "- {id}");
                }
                Mutation::Upsert(it) => {
                    out.push_str("^ ");
                    write_item_row(out, it);
                }
            }
        }

        pub fn write_pair_row(out: &mut String, pr: &RcjPair) {
            let _ = writeln!(
                out,
                "{} {} {} {} {} {}",
                pr.p.id, pr.p.point.x, pr.p.point.y, pr.q.id, pr.q.point.x, pr.q.point.y
            );
        }

        pub fn encode_rect(r: Rect) -> String {
            format!("{},{},{},{}", r.min.x, r.min.y, r.max.x, r.max.y)
        }
    }

    /// A parsed row's values, floats as bits: "the same `Ok`" means bit
    /// for bit (`-0` is not `0`, and NaN equals NaN).
    trait Bits {
        fn bits(&self) -> Vec<u64>;
    }

    impl Bits for Item {
        fn bits(&self) -> Vec<u64> {
            vec![self.id, self.point.x.to_bits(), self.point.y.to_bits()]
        }
    }

    impl Bits for u64 {
        fn bits(&self) -> Vec<u64> {
            vec![*self]
        }
    }

    impl Bits for RcjPair {
        fn bits(&self) -> Vec<u64> {
            [self.p.bits(), self.q.bits()].concat()
        }
    }

    impl Bits for (usize, RcjPair) {
        fn bits(&self) -> Vec<u64> {
            [vec![self.0 as u64], self.1.bits()].concat()
        }
    }

    impl Bits for Mutation {
        fn bits(&self) -> Vec<u64> {
            match self {
                Mutation::Insert(it) => [vec![0], it.bits()].concat(),
                Mutation::Delete(id) => vec![1, *id],
                Mutation::Upsert(it) => [vec![2], it.bits()].concat(),
            }
        }
    }

    /// A parse outcome in comparable form: the values as bits, or the
    /// error's full message.
    fn outcome<T: Bits>(parsed: Result<Vec<T>, ServerError>) -> Result<Vec<Vec<u64>>, String> {
        parsed
            .map(|rows| rows.iter().map(Bits::bits).collect())
            .map_err(|e| e.to_string())
    }

    /// Every row shape, read by the new reader and by the reference.
    fn assert_readers_agree(body: &str) {
        assert_eq!(
            outcome(parse_pairs(body)),
            outcome(reference::parse_rows(body, reference::pair_row)),
            "pair rows of {body:?}"
        );
        assert_eq!(
            outcome(parse_tagged_pairs(body)),
            outcome(reference::parse_rows(body, reference::tagged_pair_row)),
            "tagged pair rows of {body:?}"
        );
        assert_eq!(
            outcome(parse_rows(body, item_row)),
            outcome(reference::parse_rows(body, reference::item_row)),
            "item rows of {body:?}"
        );
        assert_eq!(
            outcome(parse_rows(body, mutation_row)),
            outcome(reference::parse_rows(body, reference::mutation_row)),
            "mutation rows of {body:?}"
        );
        assert_eq!(
            outcome(parse_rows(body, id_row)),
            outcome(reference::parse_rows(body, reference::id_row)),
            "id rows of {body:?}"
        );
        // One row given whole (the CLI log's entry point, and the
        // `+`/`-`/`^` row inside `SUPDATE`).
        assert_eq!(
            outcome(parse_mutation_row(body).map(|op| vec![op])),
            outcome(reference::mutation_row(body).map(|op| vec![op])),
            "one mutation row {body:?}"
        );
        assert_eq!(
            outcome(parse_item_row(body).map(|it| vec![it])),
            outcome(reference::item_row(body).map(|it| vec![it])),
            "one item row {body:?}"
        );
    }

    /// Field separators: every ASCII member of `char::is_whitespace`
    /// (a lone `\r` included) and a few wide ones.
    const SEPARATORS: &[&str] = &[
        " ", " ", " ", "\t", "\r", "\x0b", "\x0c", "  ", " \t", "\u{a0}", "\u{85}", "\u{2028}",
        "\u{3000}", "\u{2003}",
    ];

    /// Field tokens: valid ids and floats, the edge forms `str::parse`
    /// accepts or refuses, and junk.
    const TOKENS: &[&str] = &[
        "0",
        "7",
        "42",
        "-0",
        "1e5",
        ".5",
        "5.",
        "+3",
        "inf",
        "-inf",
        "NaN",
        "nan",
        "infinity",
        "18446744073709551615",
        "18446744073709551616",
        "00012",
        "-3",
        "1.5e-7",
        "4.9e-324",
        "1e400",
        "+",
        "-",
        "^",
        "x",
        "é",
        "1,2",
        "--1",
        "1.2.3",
        "0x10",
        "∞",
        "#",
    ];

    /// Expands one drawn seed into a body of rows shaped like one of
    /// the row kinds (a row of another shape now and then), with
    /// separators, CRLF ends and blank rows mixed in.
    fn random_body(seed: u64) -> String {
        let mut state = seed | 1;
        let mut next = move |n: usize| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
        };
        let mut body = String::new();
        let body_shape = next(6);
        for _ in 0..1 + next(6) {
            let sep = |next: &mut dyn FnMut(usize) -> usize| SEPARATORS[next(SEPARATORS.len())];
            if next(5) == 0 {
                // A blank or whitespace-only row.
                for _ in 0..next(3) {
                    body.push_str(sep(&mut next));
                }
            } else {
                let shape = if next(8) == 0 { next(6) } else { body_shape };
                // Mostly the shape's own field count, sometimes one off.
                let count = match next(10) {
                    0 => [6, 7, 3, 4, 2, 1][shape] - 1,
                    1 => [6, 7, 3, 4, 2, 1][shape] + 1,
                    _ => [6, 7, 3, 4, 2, 1][shape],
                };
                if next(3) == 0 {
                    body.push_str(sep(&mut next));
                }
                for i in 0..count {
                    if i > 0 {
                        body.push_str(sep(&mut next));
                    }
                    let id_fields: &[usize] = match shape {
                        0 => &[0, 3],
                        1 => &[0, 1, 4],
                        3 | 4 => &[1],
                        _ => &[0],
                    };
                    let token = if (shape == 3 || shape == 4) && i == 0 {
                        ["+", "-", "^", "*"][next(4)].to_string()
                    } else if next(12) == 0 {
                        TOKENS[next(TOKENS.len())].to_string()
                    } else if id_fields.contains(&i) {
                        next(1_000_000).to_string()
                    } else if next(2) == 0 {
                        format!("{}", next(1 << 30) as f64 / 1024.0 - 5e5)
                    } else {
                        format!("{}", f64::from_bits(next(1 << 30) as u64 * 0x1_0000_0001))
                    };
                    body.push_str(&token);
                }
                if next(3) == 0 {
                    body.push_str(sep(&mut next));
                }
            }
            body.push_str(["\n", "\r\n", "\n", "\n"][next(4)]);
        }
        if next(4) == 0 {
            // No final row break.
            body.pop();
        }
        body
    }

    #[test]
    fn readers_agree_on_hand_picked_bodies() {
        for body in [
            "",
            "\n\n",
            "1 2 3",
            "1 2 3\r\n4 5 6\n",
            "1\u{3000}2\u{a0}3\u{85}\n\u{2028}\n 4\t5\r6 \n",
            "1 2\r3 4 5 6",
            "7 1 2 3 4 5 6\n0 1 2 3 4 5 6 7\n",
            "x 1 2 3 4 5 6",
            "7",
            "+ 1 2 3\n- 4\n^ 5 6 7\n",
            "- 1 2",
            "-\u{a0}",
            "+\t1 2",
            "  * 1 2 3  ",
            "+ 1 nan inf\n+ 2 -0 1e5\n+ 3 .5 5.\n",
            "18446744073709551616 1 2",
            "1 2 3 4 5 6 7 8 9",
        ] {
            assert_readers_agree(body);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3_000))]

        #[test]
        fn readers_agree_on_random_bodies(seed in any::<u64>()) {
            assert_readers_agree(&random_body(seed));
        }

        #[test]
        fn writers_agree_with_the_write_macro_codec(
            seed in any::<u64>(),
            raw in proptest::collection::vec(any::<u64>(), 1..24),
        ) {
            // Random bit patterns (NaN, inf and subnormals included)
            // mixed with the plain coordinates the wire mostly carries.
            let coord = |i: usize| match raw[i % raw.len()] % 3 {
                0 => f64::from_bits(raw[(i + 1) % raw.len()]),
                _ => (raw[(i + 2) % raw.len()] % 2_000_000) as f64 / 7.0 - 1e5,
            };
            let items: Vec<Item> = (0..raw.len())
                .map(|i| Item::new(raw[i] ^ seed, pt(coord(2 * i), coord(2 * i + 1))))
                .collect();
            let pairs: Vec<RcjPair> = items
                .windows(2)
                .map(|w| RcjPair::new(w[0], w[1]))
                .collect();
            let tagged: Vec<(usize, RcjPair)> = pairs
                .iter()
                .enumerate()
                .map(|(i, &pr)| ((seed as usize).wrapping_add(i), pr))
                .collect();
            let ops: Vec<Mutation> = items
                .iter()
                .enumerate()
                .map(|(i, &it)| match i % 3 {
                    0 => Mutation::Insert(it),
                    1 => Mutation::Delete(it.id),
                    _ => Mutation::Upsert(it),
                })
                .collect();

            let mut want = String::new();
            for pr in &pairs {
                reference::write_pair_row(&mut want, pr);
            }
            prop_assert_eq!(encode_pairs(&pairs), want);

            let mut want = String::new();
            for (leaf, pr) in &tagged {
                let _ = write!(want, "{leaf} ");
                reference::write_pair_row(&mut want, pr);
            }
            prop_assert_eq!(encode_tagged_pairs(&tagged), want);

            let mut want = String::from("LOAD pts rtree\n");
            for it in &items {
                reference::write_item_row(&mut want, it);
            }
            prop_assert_eq!(encode_load("pts", IndexKind::Rtree, &items), want);

            let mut want = String::from("SUPDATE pts epoch=9\n");
            let mut got = String::new();
            for op in &ops {
                reference::write_mutation_row(&mut want, op);
                write_mutation_row(&mut got, op);
            }
            prop_assert_eq!(&got, &want["SUPDATE pts epoch=9\n".len()..]);
            let update = ShardRequest::Update {
                name: "pts".into(),
                target_epoch: 9,
                ops: Arc::new(ops),
            };
            prop_assert_eq!(update.encode(), want);

            let ids: Vec<u64> = items.iter().map(|it| it.id).collect();
            let want: String = std::iter::once("DELETE pts\n".to_string())
                .chain(ids.iter().map(|id| format!("{id}\n")))
                .collect();
            let delete = Request::Delete { name: "pts".into(), ids };
            prop_assert_eq!(delete.encode(), want);

            for w in items.windows(2) {
                let rect = Rect { min: w[0].point, max: w[1].point };
                prop_assert_eq!(encode_rect(rect), reference::encode_rect(rect));
            }
        }
    }
}
