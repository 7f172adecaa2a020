//! Subcommand implementations.
//!
//! Every join-shaped command (`join`, `self-join`, `top-k`, `explain`)
//! goes through the core [`Engine`]: datasets are registered under
//! names, the query builder produces an inspectable [`Plan`] (which
//! `explain` prints verbatim and `--stats` summarises as a plan line),
//! and execution is `plan.collect()` — for `top-k`, one leaf pass cut at
//! the `k`-th best squared diameter so far.

use crate::args::{ArgError, Args};
use ringjoin_core::{
    bounds, rcj_join, Engine, Executor, IndexKind, Plan, QueryBuilder, RcjAlgorithm, RcjOptions,
    RcjOutput, RingBounds,
};
use ringjoin_datagen::{gaussian_clusters, gnis_like, io as dio, uniform, GnisDataset};
use ringjoin_rtree::{bulk_load, Item, RTree};
use ringjoin_server::proto::{self, parse_mutation_row, write_mutation_row};
use ringjoin_server::{Client, Mutation, Server, ServerConfig};
use ringjoin_spatialjoin::{epsilon_join, k_closest_pairs, knn_join, precision_recall};
use ringjoin_storage::{CostModel, MemDisk, Pager, SharedPager};
use std::collections::HashSet;
use std::io::Write;
use std::path::Path;

/// Usage text printed on error or `help`.
pub const USAGE: &str = "\
ringjoin-cli — the ring-constrained join (EDBT 2008)

USAGE: ringjoin-cli <command> [options]

COMMANDS
  generate   --kind uniform|gaussian|pp|sc|lo --n N --out FILE
             [--seed S] [--clusters W] [--sigma X]
  join       --p FILE --q FILE [--algo auto|inj|bij|obj] [--out FILE]
             [--index rtree|quadtree] [--buffer-frac F] [--page-size B]
             [--threads N] [--on-disk FILE] [--buffer-pages N] [--stats]
             [--bounds X0,Y0,X1,Y1 --max-diameter D]
  self-join  --input FILE [--algo auto|inj|bij|obj] [--out FILE]
             [--index rtree|quadtree] [--threads N] [--on-disk FILE]
             [--buffer-pages N] [--stats]
             [--bounds X0,Y0,X1,Y1 --max-diameter D]
             (--bounds/--max-diameter keep only the rings that meet the
              rectangle and are at most D wide: the in-process oracle of
              a served bounded `client join`/`client self-join`)
  top-k      --p FILE --q FILE --k K [--out FILE] [--index rtree|quadtree]
             [--threads N] [--on-disk FILE] [--buffer-pages N] [--stats]
             (smallest ring diameters first, one leaf pass; runs
              sequentially whatever --threads says)
  explain    (--p FILE --q FILE | --input FILE) [--algo ...] [--k K]
             [--index rtree|quadtree] [--threads N]
             [--bounds X0,Y0,X1,Y1 --max-diameter D]
             (print the resolved query plan without running it)
  replay     --p FILE --q FILE --target p|q --log FILE [--batches N]
             [--algo ...] [--out FILE] [--index rtree|quadtree]
             [--threads N] [--stats]
             (offline oracle for live serving: load both files, apply a
              recorded mutation log batch by batch to the target dataset
              through the same engine update path, then join q against p.
              Pair order follows the mutation history, so the oracle must
              replay it — a bulk rebuild of the final pointset is wrong.
              --batches N replays only the first N batches: the oracle
              for a coordinator recovered to epoch N of a longer stream)
  compare    --p FILE --q FILE (--epsilon E | --kcp K | --knn K)
  bound      --np N --nq N  (result-size bounds)
  serve      [--addr HOST:PORT | --port N] [--shards N] [--replicas N]
             [--workers spawn|ADDR,ADDR,...] [--addr-file FILE]
             [--max-sessions N] [--queue-depth N]
             [--on-disk FILE] [--buffer-pages N] [--data-dir DIR]
             (long-lived sharded server; default 127.0.0.1:4815, 1 shard,
              16 concurrent sessions, admission queue depth 32.
              --workers promotes shard workers to remote processes:
              `spawn` launches one child per shard x replica, an address
              list connects to already-running --shard-of workers.
              --data-dir DIR makes the coordinator durable: every LOAD
              and mutation batch is fsynced to a write-ahead log there
              before any fan-out, and a restart on the same directory
              replays the log — rebuilding every dataset to its logged
              epoch — before accepting a single session. --on-disk FILE
              gives each worker slot S (cell-major) its own page file
              FILE.S; with an address list, start each worker with its
              own --on-disk and --buffer-pages instead)
  serve      --shard-of auto|X0,Y0,X1,Y1 [--addr HOST:PORT | --port N]
             [--addr-file FILE] [--on-disk FILE] [--buffer-pages N]
             (shard-worker mode: serve one coordinator's cell over the
              shard wire grammar; `auto` accepts any cell. --addr-file
              writes the bound address, for coordinators and scripts.
              --on-disk FILE spills every load to FILE, which this
              worker alone reads and writes)
  client load      --name NAME --input FILE [--index rtree|quadtree]
  client join      --outer Q --inner P [--algo ..] [--out FILE] [--stats]
                   [--bounds X0,Y0,X1,Y1 --max-diameter D] [--pipeline N]
  client self-join --dataset NAME [--algo ..] [--out FILE] [--stats]
                   [--bounds X0,Y0,X1,Y1 --max-diameter D] [--pipeline N]
  client top-k     --outer Q --inner P --k K [--out FILE] [--pipeline N]
  client explain   --outer Q [--inner P] [--algo ..] [--k K]
  client insert    --name NAME --input FILE
  client upsert    --name NAME --input FILE
  client delete    --name NAME --ids ID[,ID,...]
                   (one atomic mutation batch per call: the whole batch
                    validates or refuses, the dataset epoch advances by
                    one, and the reply's epoch/applied/items are printed)
  client mutate-stream --name NAME [--batches N] [--batch-size M]
                   [--seed S] [--id-base B] [--interval-ms T] [--log FILE]
                   (deterministic seeded stream of INSERT/UPSERT/DELETE
                    batches against a live dataset; --log records every
                    batch so `replay` can rebuild the identical mutation
                    history offline. The log is appended and fsynced at
                    every batch boundary, before the batch is sent — a
                    SIGKILLed driver always leaves a valid replayable
                    prefix covering everything the server applied)
  client stats
  client shutdown
             (every client operation takes [--addr HOST:PORT],
              [--timeout SECS] (default 30; 0 = wait forever) and
              [--retries N] (default 1 attempt; retries honor the
              server's `ERR busy` retry_after_ms hint with jittered
              backoff, and ride out connection loss — e.g. a durable
              coordinator restarting — with exponential-backoff
              reconnects); --pipeline N sends N copies back to back on
              one connection and checks the replies agree byte for byte)
  help

Dataset files are .csv (id,x,y with header) or the .bin format written
by `generate`; the extension decides the codec.

`--algo auto` (the `explain` default) lets the cost-model planner pick
the algorithm. `--threads N` runs the join on N >= 1 worker threads
(default 1, or the RINGJOIN_THREADS environment variable); parallel
output is identical to sequential output, pair for pair. `serve` shards
by space partition instead: the answer is byte-identical to the
in-process commands, whatever --shards is.

`--on-disk FILE` spills the index pages to a page file and serves them
through the buffer pool's frames alone; `--buffer-pages N` caps that
pool at N pages, so a dataset several times larger than the budget
still joins — byte-identically — with `read_faults` tracking the
paper's I/O model instead of RAM size.";

/// Executor selection: an explicit `--threads` wins; otherwise the
/// `RINGJOIN_THREADS`-aware default applies. A thread *count* must be at
/// least 1 — `--threads 0` is rejected here, and the env-var path
/// rejects `RINGJOIN_THREADS=0` the same way, so neither spelling
/// silently coerces to sequential.
fn parse_executor(args: &Args) -> Result<Executor, ArgError> {
    Ok(match args.opt("threads") {
        None => Executor::default(),
        Some(_) => {
            let n: usize = args.req_parse("threads")?;
            if n == 0 {
                return Err(ArgError(
                    "--threads must be at least 1 (got 0); omit the flag for the default".into(),
                ));
            }
            Executor::threads(n)
        }
    })
}

fn load_items(path: &str) -> Result<Vec<Item>, ArgError> {
    let res = if path.ends_with(".csv") {
        dio::load_csv(path)
    } else {
        dio::load_bin(path)
    };
    res.map_err(|e| ArgError(format!("cannot read {path}: {e}")))
}

fn save_items(path: &str, items: &[Item]) -> Result<(), ArgError> {
    let res = if path.ends_with(".csv") {
        dio::save_csv(path, items)
    } else {
        dio::save_bin(path, items)
    };
    res.map_err(|e| ArgError(format!("cannot write {path}: {e}")))
}

/// Parses `--algo`; `default` differs by command (`obj` for joins,
/// `auto` for `explain`).
fn parse_algo(s: Option<&str>, default: &str) -> Result<RcjAlgorithm, ArgError> {
    let name = s.unwrap_or(default);
    RcjAlgorithm::from_name(name).ok_or_else(|| ArgError(format!("unknown algorithm {name:?}")))
}

fn parse_index(s: Option<&str>) -> Result<IndexKind, ArgError> {
    match s.unwrap_or("rtree") {
        "rtree" => Ok(IndexKind::Rtree),
        "quadtree" => Ok(IndexKind::Quadtree),
        other => Err(ArgError(format!("unknown index kind {other:?}"))),
    }
}

/// Builds an engine session for one command invocation: datasets loaded
/// from the given files under fixed names, the paper's buffer rule
/// applied (or the absolute `--buffer-pages` budget), construction I/O
/// excluded from the statistics. With `--on-disk FILE` the whole page
/// space — every dataset shares one pager — is spilled to a page file
/// after the last load, making the engine disk-native.
fn build_engine(args: &Args, self_join: bool) -> Result<Engine, ArgError> {
    let page_size: usize = args.opt_parse("page-size", 1024)?;
    let buffer_frac: f64 = args.opt_parse("buffer-frac", 0.01)?;
    let on_disk = args.opt("on-disk").map(std::path::PathBuf::from);
    let index = parse_index(args.opt("index"))?;
    let mut engine =
        Engine::with_pager(Pager::new(MemDisk::new(page_size), usize::MAX / 2).into_shared());
    if self_join {
        let items = load_items(args.req("input")?)?;
        engine.load("input", items).index(index);
    } else {
        engine.load("p", load_items(args.req("p")?)?).index(index);
        engine.load("q", load_items(args.req("q")?)?).index(index);
    }
    if let Some(path) = on_disk {
        engine
            .pager()
            .borrow_mut()
            .spill_to(&path)
            .map_err(|e| ArgError(format!("--on-disk {}: {e}", path.display())))?;
    }
    match args.opt("buffer-pages") {
        Some(_) => {
            let pages: usize = args.req_parse("buffer-pages")?;
            if pages == 0 {
                return Err(ArgError(
                    "--buffer-pages must be at least 1 (got 0); omit the flag for --buffer-frac"
                        .into(),
                ));
            }
            engine.set_buffer_pages(pages);
        }
        None => engine.set_buffer_frac(buffer_frac),
    }
    Ok(engine)
}

/// Query builder over the fixed dataset names of [`build_engine`].
fn query(engine: &Engine, self_join: bool) -> QueryBuilder<'_> {
    if self_join {
        engine.query().self_join("input")
    } else {
        engine.query().join("q", "p")
    }
}

/// Legacy tree builder for the `compare` command, whose baselines
/// (ε-join, k-closest-pairs, kNN) run over concrete R-trees.
fn build_trees(
    p_items: Vec<Item>,
    q_items: Vec<Item>,
    page_size: usize,
    buffer_frac: f64,
) -> (SharedPager, RTree, RTree) {
    let pager = Pager::new(MemDisk::new(page_size), usize::MAX / 2).into_shared();
    let tp = bulk_load(pager.clone(), p_items);
    let tq = bulk_load(pager.clone(), q_items);
    let buffer =
        (((tp.node_pages() + tq.node_pages()) as f64 * buffer_frac).ceil() as usize).max(1);
    {
        let mut pg = pager.borrow_mut();
        pg.set_buffer_capacity(buffer);
        pg.clear_buffer();
        pg.reset_stats();
    }
    (pager, tp, tq)
}

fn write_pairs(out: Option<&str>, pairs: &[ringjoin_core::RcjPair]) -> Result<(), ArgError> {
    let mut sink: Box<dyn Write> = match out {
        Some(path) => Box::new(
            std::fs::File::create(Path::new(path))
                .map_err(|e| ArgError(format!("cannot create {path}: {e}")))?,
        ),
        None => Box::new(std::io::stdout().lock()),
    };
    let mut emit = || -> std::io::Result<()> {
        writeln!(sink, "p_id,q_id,center_x,center_y,radius")?;
        for pr in pairs {
            let c = pr.center();
            writeln!(
                sink,
                "{},{},{},{},{}",
                pr.p.id,
                pr.q.id,
                c.x,
                c.y,
                pr.radius()
            )?;
        }
        Ok(())
    };
    emit().map_err(|e| ArgError(format!("write failed: {e}")))
}

/// `--stats` reporting: the resolved plan line first, then the run
/// counters.
fn report_stats(pager: &SharedPager, plan: &Plan<'_>, out: &RcjOutput) {
    let io = pager.borrow().stats();
    eprintln!("plan: {}", plan.summary_line());
    eprintln!(
        "pairs: {}  candidates: {}  node accesses: {}  hits: {}  faults: {}  \
         prefetch-hits: {}  hit-rate: {:.1}%  io-time: {:.2}s (10ms/fault)",
        out.stats.result_pairs,
        out.stats.candidate_pairs,
        io.logical_reads,
        io.read_hits,
        io.read_faults,
        io.prefetch_hits,
        100.0 * io.read_hit_rate(),
        CostModel::default().io_seconds(&io),
    );
}

fn engine_err(e: ringjoin_core::EngineError) -> ArgError {
    ArgError(e.to_string())
}

fn server_err(e: ringjoin_server::ServerError) -> ArgError {
    ArgError(e.to_string())
}

/// Parses the `--bounds X0,Y0,X1,Y1` / `--max-diameter D` pair into a
/// [`RingBounds`] (both or neither must be present).
fn parse_bounds(args: &Args) -> Result<Option<RingBounds>, ArgError> {
    match (args.opt("bounds"), args.opt("max-diameter")) {
        (None, None) => Ok(None),
        (Some(b), Some(d)) => Ok(Some(RingBounds {
            bounds: proto::parse_bounds(b)
                .map_err(|e| ArgError(format!("invalid --bounds: {e}")))?,
            max_diameter: d
                .parse()
                .map_err(|_| ArgError(format!("invalid --max-diameter {d:?}")))?,
        })),
        _ => Err(ArgError(
            "--bounds and --max-diameter must be given together".into(),
        )),
    }
}

/// Parses `--ids 1,2,3` into the id list of a DELETE batch.
fn parse_id_list(s: &str) -> Result<Vec<u64>, ArgError> {
    s.split(',')
        .map(|v| {
            v.trim()
                .parse()
                .map_err(|_| ArgError(format!("invalid --ids entry {v:?}")))
        })
        .collect()
}

/// Renders an applied-update reply; `client insert|delete|upsert` and
/// every `mutate-stream` batch report through this one format.
fn describe_update(name: &str, reply: &ringjoin_server::proto::Reply) -> String {
    format!(
        "dataset {name:?} at epoch {}: applied {} mutation(s), {} item(s) live",
        reply.field("epoch").unwrap_or("?"),
        reply.field("applied").unwrap_or("?"),
        reply.field("items").unwrap_or("?"),
    )
}

/// Appends one batch to a mutation log in the `replay` grammar: a
/// `batch` separator line, then one wire mutation row (`+ id x y` /
/// `- id` / `^ id x y`) per operation. `f64` Display round-trips
/// exactly, so a replayed log rebuilds bit-identical coordinates.
fn encode_log_batch(out: &mut String, ops: &[Mutation]) {
    out.push_str("batch\n");
    for op in ops {
        write_mutation_row(out, op);
    }
}

/// Parses one log line (already trimmed, non-empty, non-comment) into
/// `batches`: a `batch` separator opens a batch, any other line is a
/// mutation row of the open batch.
fn parse_log_line(line: &str, batches: &mut Vec<Vec<Mutation>>) -> Result<(), String> {
    if line.split_whitespace().next() == Some("batch") {
        batches.push(Vec::new());
        return Ok(());
    }
    let op = parse_mutation_row(line).map_err(|e| e.to_string())?;
    batches
        .last_mut()
        .ok_or("mutation row before the first `batch` separator")?
        .push(op);
    Ok(())
}

/// Parses a mutation log back into batches. Blank lines and `#`
/// comments are skipped; every mutation row must follow a `batch`
/// separator so the replay applies the same batch boundaries (and so
/// lands on the same epoch) as the live stream did.
///
/// Torn-tail rule: a malformed **final** line with no trailing newline
/// is dropped, not an error. `mutate-stream --log` fsyncs at batch
/// boundaries, so a SIGKILLed driver leaves every fsynced line intact
/// plus at most one line cut mid-byte — that torn tail must not cost
/// the valid prefix. A malformed line anywhere else is still corruption
/// and still fails.
fn parse_mutation_log(text: &str) -> Result<Vec<Vec<Mutation>>, ArgError> {
    let mut batches: Vec<Vec<Mutation>> = Vec::new();
    let lines: Vec<&str> = text.lines().collect();
    let terminated = text.ends_with('\n');
    for (idx, raw) in lines.iter().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_log_line(line, &mut batches) {
            Ok(()) => {}
            Err(_) if !terminated && idx + 1 == lines.len() => break,
            Err(e) => return Err(ArgError(format!("log line {}: {e}", idx + 1))),
        }
    }
    Ok(batches)
}

/// Replays one recorded batch through the engine's update builder,
/// preserving operation order: the tree shape — and with it the pair
/// emission order — depends on the exact mutation history, not just the
/// final pointset.
fn apply_log_batch(engine: &mut Engine, name: &str, ops: &[Mutation]) -> Result<(), ArgError> {
    engine
        .update(name)
        .mutations(ops)
        .apply()
        .map_err(engine_err)?;
    Ok(())
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Deterministic seeded mutation stream: round r is INSERT (r % 3 == 0),
/// UPSERT (1) or DELETE (2). Inserts mint fresh ids from `id_base` up;
/// upserts alternate between moving a previously-inserted live id and
/// minting a fresh one; deletes retire up to half the stream's live ids
/// (falling back to an insert round if none are left). Every batch is
/// homogeneous — the wire grammar has one verb per request — and the
/// whole stream derives from (seed, batches, batch_size, id_base), which
/// is what lets CI replay the identical history offline.
fn mutation_stream(
    seed: u64,
    batches: usize,
    batch_size: usize,
    id_base: u64,
) -> Vec<Vec<Mutation>> {
    let pool = uniform(batches * batch_size, seed);
    let mut cursor = 0usize;
    let mut rng = (seed ^ 0x9E37_79B9_7F4A_7C15) | 1;
    let mut live: Vec<u64> = Vec::new();
    let mut next_id = id_base;
    let mut out = Vec::with_capacity(batches);
    for round in 0..batches {
        let mut ops = Vec::with_capacity(batch_size);
        let kind = match round % 3 {
            2 if live.is_empty() => 0,
            k => k,
        };
        match kind {
            0 => {
                for _ in 0..batch_size {
                    let point = pool[cursor].point;
                    cursor += 1;
                    ops.push(Mutation::Insert(Item::new(next_id, point)));
                    live.push(next_id);
                    next_id += 1;
                }
            }
            1 => {
                for slot in 0..batch_size {
                    let point = pool[cursor].point;
                    cursor += 1;
                    if slot % 2 == 0 && !live.is_empty() {
                        let id = live[xorshift(&mut rng) as usize % live.len()];
                        ops.push(Mutation::Upsert(Item::new(id, point)));
                    } else {
                        ops.push(Mutation::Upsert(Item::new(next_id, point)));
                        live.push(next_id);
                        next_id += 1;
                    }
                }
            }
            _ => {
                let retire = batch_size.min(live.len().div_ceil(2));
                for _ in 0..retire {
                    let idx = xorshift(&mut rng) as usize % live.len();
                    ops.push(Mutation::Delete(live.swap_remove(idx)));
                }
            }
        }
        out.push(ops);
    }
    out
}

/// Sends one stream batch under its wire verb. Stream batches are
/// homogeneous by construction; a mixed batch could not be one atomic
/// remote update, so [`mutation_stream`] never produces one.
fn send_stream_batch(
    client: &mut Client,
    args: &Args,
    name: &str,
    ops: &[Mutation],
) -> Result<ringjoin_server::proto::Reply, ArgError> {
    use ringjoin_server::proto::Request;
    let req = match ops[0] {
        Mutation::Insert(_) => Request::Insert {
            name: name.to_string(),
            items: ops
                .iter()
                .filter_map(|op| match op {
                    Mutation::Insert(it) => Some(*it),
                    _ => None,
                })
                .collect(),
        },
        Mutation::Upsert(_) => Request::Upsert {
            name: name.to_string(),
            items: ops
                .iter()
                .filter_map(|op| match op {
                    Mutation::Upsert(it) => Some(*it),
                    _ => None,
                })
                .collect(),
        },
        Mutation::Delete(_) => Request::Delete {
            name: name.to_string(),
            ids: ops
                .iter()
                .filter_map(|op| match op {
                    Mutation::Delete(id) => Some(*id),
                    _ => None,
                })
                .collect(),
        },
    };
    client_request(client, args, &req)
}

/// `--stats` reporting for remote (client) runs: the counters the
/// server sent on the status line.
fn report_remote_stats(out: &ringjoin_server::RemoteOutput) {
    eprintln!(
        "pairs: {}  candidates: {}  filter node reads: {}  verify node visits: {}  shards queried: {}",
        out.pairs.len(),
        out.stats.candidate_pairs,
        out.stats.filter_node_reads,
        out.stats.verify_node_visits,
        out.shards_queried,
    );
}

/// Writes the bound address (plus a trailing newline, the
/// "write complete" marker pollers wait for) where `--addr-file` asked.
fn write_addr_file(args: &Args, addr: std::net::SocketAddr) -> Result<(), ArgError> {
    if let Some(path) = args.opt("addr-file") {
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| ArgError(format!("cannot write --addr-file {path}: {e}")))?;
    }
    Ok(())
}

/// The `serve --shard-of ...` form: a shard-worker process serving one
/// coordinator over the shard wire grammar.
fn cmd_serve_worker(args: &Args, spec: &str) -> Result<Option<String>, ArgError> {
    let cell = "a --shard-of worker serves whatever cell its coordinator assigns";
    for (coordinator_only, why) in [
        ("shards", cell),
        ("replicas", cell),
        ("workers", cell),
        ("max-sessions", cell),
        ("queue-depth", cell),
        (
            "data-dir",
            "a --shard-of worker keeps no log; its coordinator logs every batch and replays it to the worker",
        ),
    ] {
        if args.opt(coordinator_only).is_some() {
            return Err(ArgError(format!(
                "--{coordinator_only} is a coordinator option; {why}"
            )));
        }
    }
    let accepts = match spec {
        "auto" => None,
        rect => Some(
            ringjoin_server::proto::parse_rect(rect)
                .map_err(|e| ArgError(format!("invalid --shard-of cell: {e}")))?,
        ),
    };
    let buffer_pages: usize = args.opt_parse("buffer-pages", 0)?;
    let page_file = args.opt("on-disk").map(std::path::PathBuf::from);
    let addr = match args.opt("addr") {
        Some(a) => a.to_string(),
        None => format!("127.0.0.1:{}", args.opt_parse::<u16>("port", 4815)?),
    };
    let server = ringjoin_server::ShardWorkerServer::bind(&addr, accepts, buffer_pages, page_file)
        .map_err(server_err)?;
    write_addr_file(args, server.local_addr())?;
    eprintln!(
        "ringjoin-worker listening on {} (accepts {})",
        server.local_addr(),
        accepts.map_or("any cell".to_string(), |r| format!(
            "{},{},{},{}",
            r.min.x, r.min.y, r.max.x, r.max.y
        ))
    );
    server
        .serve()
        .map_err(|e| ArgError(format!("worker serve failed: {e}")))?;
    Ok(Some("worker stopped".into()))
}

/// The `serve` command: bind, announce, and block until SHUTDOWN.
fn cmd_serve(args: &Args) -> Result<Option<String>, ArgError> {
    if let Some(spec) = args.opt("shard-of") {
        return cmd_serve_worker(args, spec);
    }
    let shards: usize = args.opt_parse("shards", 1)?;
    if shards == 0 {
        return Err(ArgError(
            "--shards must be at least 1 (got 0); omit the flag for a single shard".into(),
        ));
    }
    let replicas: usize = args.opt_parse("replicas", 1)?;
    if replicas == 0 {
        return Err(ArgError(
            "--replicas must be at least 1 (got 0); omit the flag for a single replica".into(),
        ));
    }
    let workers = match args.opt("workers") {
        None => ringjoin_server::WorkerSpec::Local,
        Some("spawn") => ringjoin_server::WorkerSpec::Spawn {
            program: std::env::current_exe().map_err(|e| {
                ArgError(format!("cannot locate own binary for --workers spawn: {e}"))
            })?,
        },
        Some(list) => {
            ringjoin_server::WorkerSpec::Remote(list.split(',').map(str::to_string).collect())
        }
    };
    let max_sessions: usize = args.opt_parse("max-sessions", 16)?;
    if max_sessions == 0 {
        return Err(ArgError(
            "--max-sessions must be at least 1 (got 0); omit the flag for the default 16".into(),
        ));
    }
    let queue_depth: usize = args.opt_parse("queue-depth", 32)?;
    let on_disk = args.opt("on-disk").map(std::path::PathBuf::from);
    let data_dir = args.opt("data-dir").map(std::path::PathBuf::from);
    let buffer_pages: usize = args.opt_parse("buffer-pages", 0)?;
    let addr = match args.opt("addr") {
        Some(a) => a.to_string(),
        None => format!("127.0.0.1:{}", args.opt_parse::<u16>("port", 4815)?),
    };
    let residency = match &on_disk {
        Some(path) => format!(
            ", disk-native on {} ({} buffer page(s))",
            path.display(),
            if buffer_pages == 0 {
                "unbounded".to_string()
            } else {
                buffer_pages.to_string()
            }
        ),
        None => String::new(),
    };
    let worker_note = match (&workers, replicas) {
        (ringjoin_server::WorkerSpec::Local, 1) => String::new(),
        (ringjoin_server::WorkerSpec::Local, r) => format!(" x {r} replica(s)"),
        (ringjoin_server::WorkerSpec::Spawn { .. }, r) => {
            format!(" x {r} replica(s), spawned worker processes")
        }
        (_, r) => format!(" x {r} replica(s), remote workers"),
    };
    let durability = match &data_dir {
        Some(dir) => format!(", durable log in {}", dir.display()),
        None => String::new(),
    };
    // Bind runs startup recovery (replaying the durable log into the
    // fleet) before the listener accepts its first session.
    let server = Server::bind(&ServerConfig {
        addr,
        shards,
        replicas,
        workers,
        max_sessions,
        queue_depth,
        on_disk,
        buffer_pages,
        data_dir,
    })
    .map_err(server_err)?;
    write_addr_file(args, server.local_addr())?;
    eprintln!(
        "ringjoin-server listening on {} with {shards} shard(s){worker_note}, {max_sessions} session(s), queue depth {queue_depth}{residency}{durability}",
        server.local_addr()
    );
    server
        .serve()
        .map_err(|e| ArgError(format!("serve failed: {e}")))?;
    Ok(Some("server stopped".into()))
}

/// One request through the retry budget: `--retries N` (default 1 =
/// no retry) bounds the attempts [`Client::request_with_retry`] spends
/// honoring `ERR busy` hints.
fn client_request(
    client: &mut Client,
    args: &Args,
    req: &ringjoin_server::proto::Request,
) -> Result<ringjoin_server::proto::Reply, ArgError> {
    let retries: u32 = args.opt_parse("retries", 1)?;
    if retries == 0 {
        return Err(ArgError(
            "--retries must be at least 1 (got 0); omit the flag for a single attempt".into(),
        ));
    }
    client.request_with_retry(req, retries).map_err(server_err)
}

/// Runs a join-shaped request once, or `--pipeline N` times back to
/// back on the same connection. Pipelined replies must agree byte for
/// byte (the serving invariant); the decoded last reply is returned.
fn run_join_shaped(
    client: &mut Client,
    args: &Args,
    req: ringjoin_server::proto::Request,
) -> Result<ringjoin_server::RemoteOutput, ArgError> {
    let n: usize = args.opt_parse("pipeline", 1)?;
    if n == 0 {
        return Err(ArgError(
            "--pipeline must be at least 1 (got 0); omit the flag for a single request".into(),
        ));
    }
    if n == 1 {
        let reply = client_request(client, args, &req)?;
        return Client::decode_output(&reply).map_err(server_err);
    }
    let batch = vec![req; n];
    let replies = client.pipeline(&batch).map_err(server_err)?;
    let first = &replies[0];
    for (i, reply) in replies.iter().enumerate().skip(1) {
        if reply.body != first.body {
            return Err(ArgError(format!(
                "pipelined reply {i} diverged from reply 0 (the server broke byte-identity)"
            )));
        }
    }
    let last = replies.last().expect("pipeline returned no replies");
    Client::decode_output(last).map_err(server_err)
}

/// The `client <op>` command family: one connection, one operation.
fn cmd_client(args: &Args) -> Result<Option<String>, ArgError> {
    let op = args.sub.as_deref().ok_or_else(|| {
        ArgError(
            "client needs an operation: load|join|self-join|top-k|explain|\
             insert|delete|upsert|mutate-stream|stats|shutdown"
                .into(),
        )
    })?;
    let addr = args.opt("addr").unwrap_or("127.0.0.1:4815");
    let timeout = match args.opt_parse::<u64>("timeout", 30)? {
        0 => None,
        secs => Some(std::time::Duration::from_secs(secs)),
    };
    let mut client = Client::connect_with_timeout(addr, timeout).map_err(server_err)?;
    match op {
        "load" => {
            let name = args.req("name")?;
            let items = load_items(args.req("input")?)?;
            let kind = parse_index(args.opt("index"))?;
            let n = items.len();
            let req = ringjoin_server::proto::Request::Load {
                name: name.to_string(),
                kind,
                items: items.clone(),
            };
            let reply = client_request(&mut client, args, &req)?;
            let shards = reply.field("shards").unwrap_or("?").to_string();
            Ok(Some(format!(
                "loaded {n} points as {name:?} ({}) on {shards} shard(s)",
                kind.name()
            )))
        }
        "join" => {
            let req = ringjoin_server::proto::Request::Join {
                outer: args.req("outer")?.to_string(),
                inner: args.req("inner")?.to_string(),
                algo: parse_algo(args.opt("algo"), "obj")?,
                bounds: parse_bounds(args)?,
            };
            let out = run_join_shaped(&mut client, args, req)?;
            if args.flag("stats") {
                report_remote_stats(&out);
            }
            write_pairs(args.opt("out"), &out.pairs)?;
            Ok(None)
        }
        "self-join" => {
            let req = ringjoin_server::proto::Request::SelfJoin {
                dataset: args.req("dataset")?.to_string(),
                algo: parse_algo(args.opt("algo"), "obj")?,
                bounds: parse_bounds(args)?,
            };
            let out = run_join_shaped(&mut client, args, req)?;
            if args.flag("stats") {
                report_remote_stats(&out);
            }
            write_pairs(args.opt("out"), &out.pairs)?;
            Ok(None)
        }
        "top-k" => {
            let req = ringjoin_server::proto::Request::TopK {
                outer: args.req("outer")?.to_string(),
                inner: args.req("inner")?.to_string(),
                k: args.req_parse("k")?,
            };
            let out = run_join_shaped(&mut client, args, req)?;
            if args.flag("stats") {
                report_remote_stats(&out);
            }
            write_pairs(args.opt("out"), &out.pairs)?;
            Ok(None)
        }
        "explain" => {
            let algo = parse_algo(args.opt("algo"), "auto")?;
            let k = match args.opt("k") {
                Some(_) => Some(args.req_parse("k")?),
                None => None,
            };
            let text = client
                .explain(args.req("outer")?, args.opt("inner"), algo, k)
                .map_err(server_err)?;
            Ok(Some(text))
        }
        "insert" | "upsert" => {
            let name = args.req("name")?;
            let items = load_items(args.req("input")?)?;
            let req = if op == "insert" {
                ringjoin_server::proto::Request::Insert {
                    name: name.to_string(),
                    items,
                }
            } else {
                ringjoin_server::proto::Request::Upsert {
                    name: name.to_string(),
                    items,
                }
            };
            let reply = client_request(&mut client, args, &req)?;
            Ok(Some(describe_update(name, &reply)))
        }
        "delete" => {
            let name = args.req("name")?;
            let req = ringjoin_server::proto::Request::Delete {
                name: name.to_string(),
                ids: parse_id_list(args.req("ids")?)?,
            };
            let reply = client_request(&mut client, args, &req)?;
            Ok(Some(describe_update(name, &reply)))
        }
        "mutate-stream" => {
            let name = args.req("name")?;
            let batches: usize = args.opt_parse("batches", 10)?;
            let batch_size: usize = args.opt_parse("batch-size", 8)?;
            if batches == 0 || batch_size == 0 {
                return Err(ArgError(
                    "--batches and --batch-size must be at least 1; omit them for the defaults"
                        .into(),
                ));
            }
            let seed: u64 = args.opt_parse("seed", 42)?;
            let id_base: u64 = args.opt_parse("id-base", 1 << 40)?;
            let interval =
                std::time::Duration::from_millis(args.opt_parse::<u64>("interval-ms", 0)?);
            let stream = mutation_stream(seed, batches, batch_size, id_base);
            // The history file is written incrementally, and each batch
            // is appended + fsynced BEFORE its wire send: the server's
            // durably applied epoch can therefore never exceed the
            // batches on disk, so a SIGKILLed driver (or coordinator)
            // always leaves a valid replayable prefix — `replay`
            // (optionally `--batches E`) stays a correct oracle for
            // whatever prefix survived.
            let mut log_file = match args.opt("log") {
                Some(path) => {
                    let mut f = std::fs::File::create(path)
                        .map_err(|e| ArgError(format!("cannot write --log {path}: {e}")))?;
                    f.write_all(
                        b"# ringjoin-cli mutation log (rebuild offline with `replay --log`)\n",
                    )
                    .and_then(|()| f.sync_data())
                    .map_err(|e| ArgError(format!("cannot write --log {path}: {e}")))?;
                    Some((f, path))
                }
                None => None,
            };
            let mut applied = 0usize;
            let mut last = None;
            for (i, ops) in stream.iter().enumerate() {
                if i > 0 && !interval.is_zero() {
                    std::thread::sleep(interval);
                }
                if let Some((f, path)) = log_file.as_mut() {
                    let mut entry = String::new();
                    encode_log_batch(&mut entry, ops);
                    f.write_all(entry.as_bytes())
                        .and_then(|()| f.flush())
                        .and_then(|()| f.sync_data())
                        .map_err(|e| ArgError(format!("cannot append to --log {path}: {e}")))?;
                }
                let reply = send_stream_batch(&mut client, args, name, ops)?;
                applied += ops.len();
                if !args.flag("quiet") {
                    eprintln!(
                        "batch {}/{batches}: {}",
                        i + 1,
                        describe_update(name, &reply)
                    );
                }
                last = Some(reply);
            }
            let last = last.expect("--batches >= 1 was checked above");
            Ok(Some(format!(
                "streamed {batches} batch(es), {applied} mutation(s); {}",
                describe_update(name, &last)
            )))
        }
        "stats" => Ok(Some(client.stats().map_err(server_err)?)),
        "shutdown" => {
            client.shutdown().map_err(server_err)?;
            Ok(Some("server acknowledged shutdown".into()))
        }
        other => Err(ArgError(format!(
            "unknown client operation {other:?}\n\n{USAGE}"
        ))),
    }
}

/// The `replay` command: the offline oracle for live serving. Loads the
/// two files, applies a recorded mutation log batch by batch to the
/// target dataset through the same engine update path a server uses,
/// then joins — giving CI a CSV to diff against the live server's.
fn cmd_replay(args: &Args) -> Result<Option<String>, ArgError> {
    let target = args.req("target")?;
    if target != "p" && target != "q" {
        return Err(ArgError(format!(
            "--target must be p or q (got {target:?})"
        )));
    }
    let log_path = args.req("log")?;
    let text = std::fs::read_to_string(log_path)
        .map_err(|e| ArgError(format!("cannot read --log {log_path}: {e}")))?;
    let log = parse_mutation_log(&text)?;
    // `--batches N` replays only the first N batches — the oracle for a
    // crashed coordinator recovered to epoch N of a longer recorded
    // stream (the durable prefix).
    let limit: usize = args.opt_parse("batches", log.len())?;
    let algo = parse_algo(args.opt("algo"), "obj")?;
    let executor = parse_executor(args)?;
    let mut engine = build_engine(args, false)?;
    for ops in log.iter().take(limit) {
        apply_log_batch(&mut engine, target, ops)?;
    }
    let plan = query(&engine, false)
        .algorithm(algo)
        .executor(executor)
        .plan()
        .map_err(engine_err)?;
    let out = plan.collect();
    if args.flag("stats") {
        report_stats(&engine.pager(), &plan, &out);
    }
    write_pairs(args.opt("out"), &out.pairs)?;
    Ok(None)
}

/// The options `command` reads — with `sub`, the client operation —
/// or `None` for a command or operation that dispatch refuses anyway.
fn accepted_options(command: &str, sub: Option<&str>) -> Option<Vec<&'static str>> {
    // What `build_engine` reads beside the dataset files.
    const ENGINE: &str = "index page-size buffer-frac on-disk buffer-pages";
    // What every client operation takes.
    const CLIENT: &str = "addr timeout retries";
    let (own, shared) = match (command, sub) {
        ("generate", _) => ("kind n out seed clusters sigma", ""),
        ("join", _) => ("p q algo threads bounds max-diameter stats out", ENGINE),
        ("self-join", _) => ("input algo threads bounds max-diameter stats out", ENGINE),
        ("top-k", _) => ("p q k threads stats out", ENGINE),
        ("explain", _) => ("p q input algo k threads bounds max-diameter", ENGINE),
        ("replay", _) => ("p q target log batches algo threads stats out", ENGINE),
        ("compare", _) => ("p q epsilon kcp knn", ""),
        ("bound", _) => ("np nq", ""),
        ("help", _) => ("", ""),
        ("serve", _) => (
            "addr port addr-file shards replicas workers max-sessions queue-depth \
             on-disk buffer-pages data-dir shard-of",
            "",
        ),
        ("client", Some(op)) => (
            match op {
                "load" => "name input index",
                "join" => "outer inner algo bounds max-diameter pipeline stats out",
                "self-join" => "dataset algo bounds max-diameter pipeline stats out",
                "top-k" => "outer inner k pipeline stats out",
                "explain" => "outer inner algo k",
                "insert" | "upsert" => "name input",
                "delete" => "name ids",
                "mutate-stream" => "name batches batch-size seed id-base interval-ms log quiet",
                "stats" | "shutdown" => "",
                _ => return None,
            },
            CLIENT,
        ),
        _ => return None,
    };
    Some(
        own.split_whitespace()
            .chain(shared.split_whitespace())
            .collect(),
    )
}

/// Runs one parsed command; returns the text to print on stdout (pair
/// CSVs go straight to their sink instead).
pub fn run(args: &Args) -> Result<Option<String>, ArgError> {
    if args.command != "client" {
        if let Some(sub) = &args.sub {
            return Err(ArgError(format!(
                "unexpected positional argument {sub:?} after {:?}",
                args.command
            )));
        }
    }
    // An option the command would not read is refused before it runs:
    // a misspelt flag or a window on `top-k` must not pass silently.
    if let Some(accepted) = accepted_options(&args.command, args.sub.as_deref()) {
        if let Some(key) = args
            .options
            .keys()
            .find(|k| !accepted.contains(&k.as_str()))
        {
            let command = match &args.sub {
                Some(op) => format!("{} {op}", args.command),
                None => args.command.clone(),
            };
            return Err(ArgError(format!("{command} does not take --{key}")));
        }
    }
    match args.command.as_str() {
        "serve" => cmd_serve(args),
        "client" => cmd_client(args),
        "replay" => cmd_replay(args),
        "help" => Ok(Some(USAGE.to_string())),
        "generate" => {
            let n: usize = args.req_parse("n")?;
            let seed: u64 = args.opt_parse("seed", 42)?;
            let out = args.req("out")?;
            let items = match args.req("kind")? {
                "uniform" => uniform(n, seed),
                "gaussian" => {
                    let w: usize = args.opt_parse("clusters", 10)?;
                    let sigma: f64 = args.opt_parse("sigma", 1000.0)?;
                    gaussian_clusters(n, w, sigma, seed)
                }
                "pp" => gnis_like(GnisDataset::PopulatedPlaces, n),
                "sc" => gnis_like(GnisDataset::Schools, n),
                "lo" => gnis_like(GnisDataset::Locales, n),
                other => return Err(ArgError(format!("unknown dataset kind {other:?}"))),
            };
            save_items(out, &items)?;
            Ok(Some(format!("wrote {n} points to {out}")))
        }
        "join" | "self-join" => {
            let self_join = args.command == "self-join";
            let algo = parse_algo(args.opt("algo"), "obj")?;
            let executor = parse_executor(args)?;
            let window = parse_bounds(args)?;
            let engine = build_engine(args, self_join)?;
            let mut builder = query(&engine, self_join).algorithm(algo).executor(executor);
            if let Some(rb) = window {
                builder = builder.within(rb);
            }
            let plan = builder.plan().map_err(engine_err)?;
            let out = plan.collect();
            if args.flag("stats") {
                report_stats(&engine.pager(), &plan, &out);
            }
            write_pairs(args.opt("out"), &out.pairs)?;
            Ok(None)
        }
        "top-k" => {
            let k: usize = args.req_parse("k")?;
            let executor = parse_executor(args)?;
            let engine = build_engine(args, false)?;
            // The plan's top-k path is one leaf pass into a ranked sink
            // that cuts each filter — no full join, no sort.
            let plan = query(&engine, false)
                .executor(executor)
                .top_k(k)
                .plan()
                .map_err(engine_err)?;
            let out = plan.collect();
            if args.flag("stats") {
                report_stats(&engine.pager(), &plan, &out);
            }
            write_pairs(args.opt("out"), &out.pairs)?;
            Ok(None)
        }
        "explain" => {
            let self_join = args.opt("input").is_some();
            let algo = parse_algo(args.opt("algo"), "auto")?;
            let executor = parse_executor(args)?;
            let engine = build_engine(args, self_join)?;
            let mut builder = query(&engine, self_join).algorithm(algo).executor(executor);
            if let Some(_k) = args.opt("k") {
                builder = builder.top_k(args.req_parse("k")?);
            }
            if let Some(rb) = parse_bounds(args)? {
                builder = builder.within(rb);
            }
            let plan = builder.plan().map_err(engine_err)?;
            Ok(Some(plan.to_string()))
        }
        "compare" => {
            let p_items = load_items(args.req("p")?)?;
            let q_items = load_items(args.req("q")?)?;
            let (_pager, tp, tq) = build_trees(p_items, q_items, 1024, 0.01);
            let rcj: HashSet<(u64, u64)> =
                ringjoin_core::pair_keys(&rcj_join(&tq, &tp, &RcjOptions::default()).pairs)
                    .into_iter()
                    .collect();
            let (name, keys): (String, Vec<(u64, u64)>) = if let Some(e) = args.opt("epsilon") {
                let eps: f64 = e
                    .parse()
                    .map_err(|_| ArgError(format!("invalid --epsilon {e:?}")))?;
                (
                    format!("eps-join(eps={eps})"),
                    epsilon_join(&tp, &tq, eps)
                        .into_iter()
                        .map(|(a, b)| (a.id, b.id))
                        .collect(),
                )
            } else if let Some(k) = args.opt("kcp") {
                let k: usize = k
                    .parse()
                    .map_err(|_| ArgError(format!("invalid --kcp {k:?}")))?;
                (
                    format!("{k}-closest-pairs"),
                    k_closest_pairs(&tp, &tq, k)
                        .into_iter()
                        .map(|(a, b, _)| (a.id, b.id))
                        .collect(),
                )
            } else if let Some(k) = args.opt("knn") {
                let k: usize = k
                    .parse()
                    .map_err(|_| ArgError(format!("invalid --knn {k:?}")))?;
                (
                    format!("{k}NN-join"),
                    knn_join(&tp, &tq, k)
                        .into_iter()
                        .map(|(a, b)| (a.id, b.id))
                        .collect(),
                )
            } else {
                return Err(ArgError(
                    "compare needs one of --epsilon E, --kcp K, --knn K".into(),
                ));
            };
            let q = precision_recall(&keys, &rcj);
            Ok(Some(format!(
                "{name}: {} pairs, precision {:.1}%, recall {:.1}% (|RCJ| = {})",
                keys.len(),
                q.precision,
                q.recall,
                rcj.len()
            )))
        }
        "bound" => {
            let np: u64 = args.req_parse("np")?;
            let nq: u64 = args.req_parse("nq")?;
            Ok(Some(format!(
                "general-position bound: {}   worst case (degenerate): {}",
                bounds::general_position_bound(np, nq),
                bounds::worst_case_bound(np, nq)
            )))
        }
        other => Err(ArgError(format!("unknown command {other:?}\n\n{USAGE}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use ringjoin_core::RcjPair;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        ringjoin_testsupport::scratch_dir("cli")
            .join(name)
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn generate_then_join_roundtrip() {
        let p = tmp("p.bin");
        let q = tmp("q.csv");
        let out = tmp("pairs.csv");
        run(&parse(&s(&[
            "generate", "--kind", "uniform", "--n", "400", "--seed", "1", "--out", &p,
        ]))
        .unwrap())
        .unwrap();
        run(&parse(&s(&[
            "generate",
            "--kind",
            "gaussian",
            "--n",
            "400",
            "--clusters",
            "4",
            "--out",
            &q,
        ]))
        .unwrap())
        .unwrap();
        run(&parse(&s(&[
            "join", "--p", &p, "--q", &q, "--algo", "obj", "--out", &out,
        ]))
        .unwrap())
        .unwrap();
        let csv = std::fs::read_to_string(&out).unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "p_id,q_id,center_x,center_y,radius");
        assert!(lines.len() > 100, "join produced {} rows", lines.len() - 1);
        // Every row parses.
        for line in &lines[1..] {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields.len(), 5);
            fields[2].parse::<f64>().unwrap();
            fields[4].parse::<f64>().unwrap();
        }
        // The auto algorithm and the quadtree index produce the same
        // pair set over the same files.
        let out_auto = tmp("pairs_auto.csv");
        let out_quad = tmp("pairs_quad.csv");
        run(&parse(&s(&[
            "join", "--p", &p, "--q", &q, "--algo", "auto", "--out", &out_auto,
        ]))
        .unwrap())
        .unwrap();
        run(&parse(&s(&[
            "join", "--p", &p, "--q", &q, "--index", "quadtree", "--out", &out_quad,
        ]))
        .unwrap())
        .unwrap();
        let keys = |csv: &str| -> std::collections::BTreeSet<String> {
            csv.lines()
                .skip(1)
                .map(|l| l.split(',').take(2).collect::<Vec<_>>().join(","))
                .collect()
        };
        let base = keys(&csv);
        assert_eq!(keys(&std::fs::read_to_string(&out_auto).unwrap()), base);
        assert_eq!(keys(&std::fs::read_to_string(&out_quad).unwrap()), base);
    }

    #[test]
    fn self_join_and_topk() {
        let input = tmp("buildings.bin");
        run(&parse(&s(&[
            "generate", "--kind", "pp", "--n", "300", "--out", &input,
        ]))
        .unwrap())
        .unwrap();
        let out = tmp("self.csv");
        run(&parse(&s(&["self-join", "--input", &input, "--out", &out])).unwrap()).unwrap();
        let n_self = std::fs::read_to_string(&out).unwrap().lines().count() - 1;
        assert!(n_self > 0);

        let p = tmp("tp.bin");
        let q = tmp("tq.bin");
        run(&parse(&s(&[
            "generate", "--kind", "uniform", "--n", "200", "--seed", "2", "--out", &p,
        ]))
        .unwrap())
        .unwrap();
        run(&parse(&s(&[
            "generate", "--kind", "uniform", "--n", "200", "--seed", "3", "--out", &q,
        ]))
        .unwrap())
        .unwrap();
        let out2 = tmp("topk.csv");
        run(&parse(&s(&[
            "top-k", "--p", &p, "--q", &q, "--k", "5", "--out", &out2,
        ]))
        .unwrap())
        .unwrap();
        let csv = std::fs::read_to_string(&out2).unwrap();
        assert_eq!(csv.lines().count(), 6); // header + 5
                                            // Radii ascending.
        let radii: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(4).unwrap().parse().unwrap())
            .collect();
        for w in radii.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn local_bounded_joins_equal_the_full_join_filtered_by_admits() {
        let p = tmp("wp.bin");
        let q = tmp("wq.bin");
        run(&parse(&s(&[
            "generate", "--kind", "uniform", "--n", "600", "--seed", "4", "--out", &p,
        ]))
        .unwrap())
        .unwrap();
        run(&parse(&s(&[
            "generate",
            "--kind",
            "gaussian",
            "--n",
            "600",
            "--clusters",
            "3",
            "--seed",
            "5",
            "--out",
            &q,
        ]))
        .unwrap())
        .unwrap();
        let (ps, qs) = (load_items(&p).unwrap(), load_items(&q).unwrap());
        let extent =
            ringjoin_geom::Rect::from_points(ps.iter().chain(&qs).map(|it| it.point)).unwrap();
        let (w, h) = (extent.max.x - extent.min.x, extent.max.y - extent.min.y);
        let bounds = format!(
            "{},{},{},{}",
            extent.min.x + 0.6 * w,
            extent.min.y + 0.6 * h,
            extent.min.x + 0.3 * w,
            extent.min.y + 0.3 * h,
        );
        let maxd = (0.08 * w).to_string();
        let rb = RingBounds {
            bounds: proto::parse_bounds(&bounds).unwrap(),
            max_diameter: maxd.parse().unwrap(),
        };
        let point_of = |items: &[Item]| -> std::collections::HashMap<u64, Item> {
            items.iter().map(|it| (it.id, *it)).collect()
        };
        for self_join in [false, true] {
            let (command, inputs, inner, outer) = match self_join {
                false => (
                    "join",
                    vec!["--p", &p, "--q", &q],
                    point_of(&ps),
                    point_of(&qs),
                ),
                true => (
                    "self-join",
                    vec!["--input", &p],
                    point_of(&ps),
                    point_of(&ps),
                ),
            };
            for index in ["rtree", "quadtree"] {
                let (full, bounded) = (tmp("w_full.csv"), tmp("w_bounded.csv"));
                let mut argv = vec![command, "--index", index, "--out", &full];
                argv.extend(&inputs);
                run(&parse(&s(&argv)).unwrap()).unwrap();
                argv[4] = &bounded;
                argv.extend(["--bounds", &bounds, "--max-diameter", &maxd]);
                run(&parse(&s(&argv)).unwrap()).unwrap();
                let full = std::fs::read_to_string(&full).unwrap();
                let expect: Vec<&str> = full
                    .lines()
                    .enumerate()
                    .filter(|&(i, line)| {
                        let ids: Vec<u64> = line
                            .split(',')
                            .take(2)
                            .map(|f| f.parse().unwrap_or(0))
                            .collect();
                        i == 0 || rb.admits(&RcjPair::new(inner[&ids[0]], outer[&ids[1]]))
                    })
                    .map(|(_, line)| line)
                    .collect();
                let label = format!("{command} --index {index}");
                assert!(expect.len() > 10, "{label}: widen the window");
                assert!(expect.len() < full.lines().count(), "{label}: narrow it");
                let got = std::fs::read_to_string(&bounded).unwrap();
                assert_eq!(got.lines().collect::<Vec<_>>(), expect, "{label}");
            }
        }
        // Both flags or neither, and a window validation refuses is an
        // error, not a panic.
        let lone = s(&["join", "--p", &p, "--q", &q, "--bounds", &bounds]);
        assert!(run(&parse(&lone).unwrap()).is_err());
        let negative = s(&[
            "join",
            "--p",
            &p,
            "--q",
            &q,
            "--bounds",
            &bounds,
            "--max-diameter",
            "-1",
        ]);
        let err = run(&parse(&negative).unwrap()).unwrap_err();
        assert!(err.0.contains("maxd"), "{err}");
    }

    #[test]
    fn explain_prints_the_plan() {
        let p = tmp("ep.bin");
        let q = tmp("eq.bin");
        for (path, seed) in [(&p, "21"), (&q, "22")] {
            run(&parse(&s(&[
                "generate", "--kind", "uniform", "--n", "400", "--seed", seed, "--out", path,
            ]))
            .unwrap())
            .unwrap();
        }
        let text = run(&parse(&s(&["explain", "--p", &p, "--q", &q])).unwrap())
            .unwrap()
            .unwrap();
        assert!(text.contains("RCJ join"), "{text}");
        assert!(text.contains("resolved from AUTO"), "{text}");
        assert!(text.contains("<- chosen"), "{text}");
        assert!(text.contains("plan line: algo="), "{text}");

        // Fixed algorithm and threads show up.
        let text = run(&parse(&s(&[
            "explain",
            "--p",
            &p,
            "--q",
            &q,
            "--algo",
            "inj",
            "--threads",
            "4",
        ]))
        .unwrap())
        .unwrap()
        .unwrap();
        assert!(text.contains("INJ (fixed by the query)"), "{text}");
        assert!(text.contains("parallel (4 threads)"), "{text}");

        // Top-k plans are honest: they run the chosen leaf algorithm
        // sequentially, whatever the thread flag said.
        let text = run(&parse(&s(&[
            "explain",
            "--p",
            &p,
            "--q",
            &q,
            "--algo",
            "inj",
            "--threads",
            "4",
            "--k",
            "7",
        ]))
        .unwrap())
        .unwrap()
        .unwrap();
        assert!(text.contains("top-k: 7"), "{text}");
        assert!(text.contains("INJ (fixed by the query)"), "{text}");
        assert!(text.contains("executor: sequential (forced"), "{text}");
        assert!(text.contains("algo=inj"), "{text}");
        assert!(text.contains("threads=1 topk=7"), "{text}");

        // Self-join form.
        let text = run(&parse(&s(&["explain", "--input", &p])).unwrap())
            .unwrap()
            .unwrap();
        assert!(text.contains("RCJ self-join"), "{text}");

        // A window shows in the plan.
        let text = run(&parse(&s(&[
            "explain",
            "--input",
            &p,
            "--bounds",
            "0,0,10,20",
            "--max-diameter",
            "5",
        ]))
        .unwrap())
        .unwrap()
        .unwrap();
        assert!(
            text.contains("window: rings meeting [0, 0, 10, 20] at most 5 wide"),
            "{text}"
        );

        // Mixed-kind tag appears when --index differs between runs is
        // impossible through one flag, but the quadtree tag must show.
        let text = run(&parse(&s(&[
            "explain", "--p", &p, "--q", &q, "--index", "quadtree",
        ]))
        .unwrap())
        .unwrap()
        .unwrap();
        assert!(text.contains("index=quadtree"), "{text}");
    }

    #[test]
    fn compare_and_bound() {
        let p = tmp("cp.bin");
        let q = tmp("cq.bin");
        run(&parse(&s(&[
            "generate", "--kind", "uniform", "--n", "300", "--seed", "5", "--out", &p,
        ]))
        .unwrap())
        .unwrap();
        run(&parse(&s(&[
            "generate", "--kind", "uniform", "--n", "300", "--seed", "6", "--out", &q,
        ]))
        .unwrap())
        .unwrap();
        let msg = run(&parse(&s(&["compare", "--p", &p, "--q", &q, "--knn", "1"])).unwrap())
            .unwrap()
            .unwrap();
        assert!(msg.contains("precision"), "{msg}");

        let b = run(&parse(&s(&["bound", "--np", "100", "--nq", "100"])).unwrap())
            .unwrap()
            .unwrap();
        assert!(b.contains("594"), "{b}");
        assert!(b.contains("10000"), "{b}");
    }

    #[test]
    fn bound_does_not_overflow_on_huge_inputs() {
        let b = run(&parse(&s(&["bound", "--np", "18446744073709551615", "--nq", "1"])).unwrap())
            .unwrap()
            .unwrap();
        assert_eq!(
            b,
            "general-position bound: 55340232221128654842   \
             worst case (degenerate): 18446744073709551615"
        );
    }

    #[test]
    fn threaded_join_output_is_identical_to_sequential() {
        let p = tmp("tp_par.bin");
        let q = tmp("tq_par.bin");
        for (path, seed) in [(&p, "11"), (&q, "12")] {
            run(&parse(&s(&[
                "generate", "--kind", "uniform", "--n", "600", "--seed", seed, "--out", path,
            ]))
            .unwrap())
            .unwrap();
        }
        let seq = tmp("pairs_seq.csv");
        let par = tmp("pairs_par.csv");
        run(&parse(&s(&[
            "join",
            "--p",
            &p,
            "--q",
            &q,
            "--threads",
            "1",
            "--out",
            &seq,
        ]))
        .unwrap())
        .unwrap();
        run(&parse(&s(&[
            "join",
            "--p",
            &p,
            "--q",
            &q,
            "--threads",
            "4",
            "--out",
            &par,
        ]))
        .unwrap())
        .unwrap();
        let seq_csv = std::fs::read_to_string(&seq).unwrap();
        assert_eq!(
            seq_csv,
            std::fs::read_to_string(&par).unwrap(),
            "parallel CSV must be byte-identical to sequential"
        );
        assert!(seq_csv.lines().count() > 1);
        // Bad thread counts surface as argument errors.
        assert!(
            run(&parse(&s(&["join", "--p", &p, "--q", &q, "--threads", "x"])).unwrap()).is_err()
        );
    }

    #[test]
    fn on_disk_join_csv_is_byte_identical_to_in_memory() {
        let p = tmp("od_p.bin");
        let q = tmp("od_q.bin");
        for (path, seed) in [(&p, "71"), (&q, "72")] {
            run(&parse(&s(&[
                "generate", "--kind", "uniform", "--n", "500", "--seed", seed, "--out", path,
            ]))
            .unwrap())
            .unwrap();
        }
        let resident = tmp("od_resident.csv");
        run(&parse(&s(&["join", "--p", &p, "--q", &q, "--out", &resident])).unwrap()).unwrap();
        let reference = std::fs::read_to_string(&resident).unwrap();
        assert!(reference.lines().count() > 1);

        // Disk-native with a buffer budget far under the page space, in
        // both sequential and parallel form: byte-identical CSVs.
        for (threads, out_name) in [("1", "od_seq.csv"), ("4", "od_par.csv")] {
            let pages = tmp(&format!("od_pages_{threads}.rjp"));
            let out = tmp(out_name);
            run(&parse(&s(&[
                "join",
                "--p",
                &p,
                "--q",
                &q,
                "--on-disk",
                &pages,
                "--buffer-pages",
                "8",
                "--threads",
                threads,
                "--out",
                &out,
            ]))
            .unwrap())
            .unwrap();
            assert_eq!(
                std::fs::read_to_string(&out).unwrap(),
                reference,
                "disk-native join ({threads} thread(s)) must match in-memory byte for byte"
            );
            assert!(
                std::path::Path::new(&pages).is_file(),
                "--on-disk must materialize the page file"
            );
        }

        // --buffer-pages 0 is rejected with a clear error.
        let err = run(&parse(&s(&["join", "--p", &p, "--q", &q, "--buffer-pages", "0"])).unwrap())
            .unwrap_err();
        assert!(
            err.0.contains("--buffer-pages must be at least 1"),
            "{}",
            err.0
        );
    }

    #[test]
    fn an_unwritable_on_disk_path_is_an_argument_error() {
        let p = tmp("odm_p.bin");
        let q = tmp("odm_q.bin");
        for (path, seed) in [(&p, "81"), (&q, "82")] {
            run(&parse(&s(&[
                "generate", "--kind", "uniform", "--n", "80", "--seed", seed, "--out", path,
            ]))
            .unwrap())
            .unwrap();
        }
        let log = tmp("odm_log.txt");
        std::fs::write(&log, "").unwrap();
        let pages = tmp("no-such-dir/pages.rjp");
        for command in [
            vec!["join", "--p", &p, "--q", &q],
            vec!["self-join", "--input", &p],
            vec!["top-k", "--p", &p, "--q", &q, "--k", "3"],
            vec![
                "replay", "--p", &p, "--q", &q, "--target", "p", "--log", &log,
            ],
        ] {
            let argv = [&command[..], &["--on-disk", &pages]].concat();
            let err = run(&parse(&s(&argv)).unwrap()).unwrap_err();
            assert!(
                err.0.starts_with(&format!("--on-disk {pages}: ")),
                "{}: {}",
                command[0],
                err.0
            );
        }
    }

    #[test]
    fn zero_threads_is_rejected_with_a_clear_error() {
        let p = tmp("zt_p.bin");
        let q = tmp("zt_q.bin");
        for (path, seed) in [(&p, "31"), (&q, "32")] {
            run(&parse(&s(&[
                "generate", "--kind", "uniform", "--n", "50", "--seed", seed, "--out", path,
            ]))
            .unwrap())
            .unwrap();
        }
        for cmd in [
            vec!["join", "--p", &p, "--q", &q, "--threads", "0"],
            vec!["self-join", "--input", &p, "--threads", "0"],
            vec!["top-k", "--p", &p, "--q", &q, "--k", "3", "--threads", "0"],
            vec!["explain", "--p", &p, "--q", &q, "--threads", "0"],
        ] {
            let err = run(&parse(&s(&cmd)).unwrap()).unwrap_err();
            assert!(
                err.0.contains("--threads must be at least 1"),
                "{cmd:?}: unhelpful message {}",
                err.0
            );
        }
    }

    #[test]
    fn client_join_csv_is_byte_identical_to_in_process_join() {
        // The CI server-smoke job in shell form: generate data, serve,
        // load + join over TCP, and diff against the in-process answer.
        let p = tmp("srv_p.bin");
        let q = tmp("srv_q.bin");
        for (path, seed) in [(&p, "61"), (&q, "62")] {
            run(&parse(&s(&[
                "generate", "--kind", "uniform", "--n", "500", "--seed", seed, "--out", path,
            ]))
            .unwrap())
            .unwrap();
        }
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            shards: 3,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.serve().unwrap());

        for (name, file) in [("p", &p), ("q", &q)] {
            let msg = run(&parse(&s(&[
                "client", "load", "--addr", &addr, "--name", name, "--input", file,
            ]))
            .unwrap())
            .unwrap()
            .unwrap();
            assert!(msg.contains("3 shard(s)"), "{msg}");
        }
        let remote_csv = tmp("srv_join.csv");
        let local_csv = tmp("srv_local.csv");
        run(&parse(&s(&[
            "client",
            "join",
            "--addr",
            &addr,
            "--outer",
            "q",
            "--inner",
            "p",
            "--out",
            &remote_csv,
        ]))
        .unwrap())
        .unwrap();
        run(&parse(&s(&["join", "--p", &p, "--q", &q, "--out", &local_csv])).unwrap()).unwrap();
        let remote = std::fs::read_to_string(&remote_csv).unwrap();
        assert_eq!(
            remote,
            std::fs::read_to_string(&local_csv).unwrap(),
            "sharded server CSV must be byte-identical to the in-process join"
        );
        assert!(remote.lines().count() > 1);

        // A pipelined run sends N copies on one connection, asserts the
        // replies agree, and writes the same bytes.
        let piped_csv = tmp("srv_piped.csv");
        run(&parse(&s(&[
            "client",
            "join",
            "--addr",
            &addr,
            "--outer",
            "q",
            "--inner",
            "p",
            "--pipeline",
            "3",
            "--out",
            &piped_csv,
        ]))
        .unwrap())
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&piped_csv).unwrap(),
            remote,
            "pipelined CSV must be byte-identical to the single-request run"
        );

        // top-k, explain and stats round-trip too.
        let topk_csv = tmp("srv_topk.csv");
        run(&parse(&s(&[
            "client", "top-k", "--addr", &addr, "--outer", "q", "--inner", "p", "--k", "5",
            "--out", &topk_csv,
        ]))
        .unwrap())
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&topk_csv).unwrap().lines().count(),
            6
        );
        let text = run(&parse(&s(&[
            "client", "explain", "--addr", &addr, "--outer", "q", "--inner", "p",
        ]))
        .unwrap())
        .unwrap()
        .unwrap();
        assert!(text.contains("sharding: 3 shard(s)"), "{text}");
        let stats = run(&parse(&s(&["client", "stats", "--addr", &addr])).unwrap())
            .unwrap()
            .unwrap();
        assert!(stats.contains("dataset p"), "{stats}");

        // Duplicate load is a clean client-visible error, then shutdown.
        let err = run(&parse(&s(&[
            "client", "load", "--addr", &addr, "--name", "p", "--input", &p,
        ]))
        .unwrap())
        .unwrap_err();
        assert!(err.0.contains("already loaded"), "{}", err.0);
        run(&parse(&s(&["client", "shutdown", "--addr", &addr])).unwrap()).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn mutation_stream_is_deterministic_and_round_trips_its_log() {
        let a = mutation_stream(7, 9, 5, 1000);
        assert_eq!(a, mutation_stream(7, 9, 5, 1000));
        assert_eq!(a.len(), 9);
        // Every batch is non-empty and homogeneous (one wire verb each).
        for ops in &a {
            assert!(!ops.is_empty());
            let kind = std::mem::discriminant(&ops[0]);
            assert!(ops.iter().all(|op| std::mem::discriminant(op) == kind));
        }
        // Rounds rotate INSERT / UPSERT / DELETE.
        assert!(matches!(a[0][0], Mutation::Insert(_)));
        assert!(matches!(a[1][0], Mutation::Upsert(_)));
        assert!(matches!(a[2][0], Mutation::Delete(_)));
        // The log encodes and parses back to the identical batches,
        // coordinates included.
        let mut log = String::new();
        for ops in &a {
            encode_log_batch(&mut log, ops);
        }
        assert_eq!(parse_mutation_log(&log).unwrap(), a);
        // Malformed logs are rejected with the offending line.
        for bad in ["+ 1 2 3\n", "batch\n* 1 2 3\n", "batch\n+ x 2 3\n"] {
            assert!(parse_mutation_log(bad).is_err(), "{bad:?} must not parse");
        }
        // Comments and blank lines are noise.
        assert_eq!(
            parse_mutation_log("# header\n\nbatch\n- 4\n").unwrap(),
            vec![vec![Mutation::Delete(4)]]
        );
    }

    /// `mutate-stream --log` fsyncs at batch boundaries, so the file a
    /// SIGKILLed driver leaves behind is a complete-line prefix plus at
    /// most one line cut mid-byte. Replaying any such truncation must
    /// succeed and preserve every fully-written batch.
    #[test]
    fn truncated_mutation_logs_replay_cleanly() {
        let stream = mutation_stream(11, 4, 3, 5000);
        let mut log = String::from("# torn-tail harness\n");
        let mut ends = Vec::new();
        for ops in &stream {
            encode_log_batch(&mut log, ops);
            ends.push(log.len());
        }
        assert_eq!(parse_mutation_log(&log).unwrap(), stream);

        // Cut the log at every byte position: the parse never errors,
        // and every batch fully inside the cut survives verbatim. (The
        // batch the cut lands in may keep its complete leading rows —
        // that is the durable prefix, not corruption.)
        for cut in 0..=log.len() {
            let parsed = parse_mutation_log(&log[..cut])
                .unwrap_or_else(|e| panic!("cut at byte {cut} failed to replay: {}", e.0));
            let whole = ends.iter().filter(|&&e| e <= cut).count();
            assert!(
                parsed.len() >= whole,
                "cut at byte {cut} lost a fully-written batch"
            );
            assert_eq!(
                &parsed[..whole],
                &stream[..whole],
                "cut at byte {cut} corrupted a fully-written batch"
            );
        }

        // Tolerance is ONLY for the unterminated last line: the same
        // malformed row followed by a newline is corruption and fails.
        assert!(parse_mutation_log("batch\n+ 1 2\n").is_err());
        assert_eq!(
            parse_mutation_log("batch\n- 4\nbatch\n+ 1 2").unwrap(),
            vec![vec![Mutation::Delete(4)], vec![]]
        );

        // End to end: `replay` on a torn log produces the same CSV as
        // on the log explicitly truncated at the last newline.
        let p = tmp("torn_p.bin");
        let q = tmp("torn_q.bin");
        for (path, seed) in [(&p, "91"), (&q, "92")] {
            run(&parse(&s(&[
                "generate", "--kind", "uniform", "--n", "200", "--seed", seed, "--out", path,
            ]))
            .unwrap())
            .unwrap();
        }
        // Cut after the first byte of the final row — a lone verb
        // character is never a valid row, so the torn tail is dropped.
        // (A cut mid-*number* can parse as a different op; bounding the
        // replay by the server's durable epoch — `--batches E`, as the
        // CI smoke job does — is what rules that case out.)
        let boundary = log[..log.len() - 1].rfind('\n').unwrap() + 1;
        let cut = boundary + 1;
        let torn = tmp("torn.log");
        let clean = tmp("torn_clean.log");
        std::fs::write(&torn, &log[..cut]).unwrap();
        std::fs::write(&clean, &log[..boundary]).unwrap();
        let torn_csv = tmp("torn_out.csv");
        let clean_csv = tmp("torn_clean_out.csv");
        for (file, out) in [(&torn, &torn_csv), (&clean, &clean_csv)] {
            run(&parse(&s(&[
                "replay", "--p", &p, "--q", &q, "--target", "p", "--log", file, "--out", out,
            ]))
            .unwrap())
            .unwrap();
        }
        assert_eq!(
            std::fs::read_to_string(&torn_csv).unwrap(),
            std::fs::read_to_string(&clean_csv).unwrap(),
            "a torn tail must replay exactly like the complete-line prefix"
        );
    }

    #[test]
    fn client_mutations_and_replay_oracle_agree() {
        let p = tmp("mut_p.bin");
        let q = tmp("mut_q.bin");
        for (path, seed) in [(&p, "81"), (&q, "82")] {
            run(&parse(&s(&[
                "generate", "--kind", "uniform", "--n", "400", "--seed", seed, "--out", path,
            ]))
            .unwrap())
            .unwrap();
        }
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            shards: 3,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.serve().unwrap());
        for (name, file) in [("p", &p), ("q", &q)] {
            run(&parse(&s(&[
                "client", "load", "--addr", &addr, "--name", name, "--input", file,
            ]))
            .unwrap())
            .unwrap();
        }

        // Three manual batches: insert fresh points, delete one of them
        // plus an original, move one and mint another via upsert.
        let ins = tmp("mut_ins.csv");
        std::fs::write(
            &ins,
            "id,x,y\n900001,10.5,20.25\n900002,30,40\n900003,50,60\n",
        )
        .unwrap();
        let msg = run(&parse(&s(&[
            "client", "insert", "--addr", &addr, "--name", "p", "--input", &ins,
        ]))
        .unwrap())
        .unwrap()
        .unwrap();
        assert!(msg.contains("epoch 1"), "{msg}");
        assert!(msg.contains("applied 3"), "{msg}");
        let msg = run(&parse(&s(&[
            "client", "delete", "--addr", &addr, "--name", "p", "--ids", "900001,5",
        ]))
        .unwrap())
        .unwrap()
        .unwrap();
        assert!(msg.contains("epoch 2"), "{msg}");
        let ups = tmp("mut_ups.csv");
        std::fs::write(&ups, "id,x,y\n900002,-5.5,7.75\n900004,70,80\n").unwrap();
        let msg = run(&parse(&s(&[
            "client", "upsert", "--addr", &addr, "--name", "p", "--input", &ups,
        ]))
        .unwrap())
        .unwrap()
        .unwrap();
        assert!(msg.contains("epoch 3"), "{msg}");

        // A deterministic seeded stream on top, recording its log.
        let mlog = tmp("mut_stream.log");
        let msg = run(&parse(&s(&[
            "client",
            "mutate-stream",
            "--addr",
            &addr,
            "--name",
            "p",
            "--seed",
            "7",
            "--batches",
            "6",
            "--batch-size",
            "5",
            "--id-base",
            "910000",
            "--log",
            &mlog,
            "--quiet",
        ]))
        .unwrap())
        .unwrap()
        .unwrap();
        assert!(msg.contains("streamed 6 batch(es)"), "{msg}");
        assert!(msg.contains("epoch 9"), "{msg}");

        let live = tmp("mut_live.csv");
        run(&parse(&s(&[
            "client", "join", "--addr", &addr, "--outer", "q", "--inner", "p", "--out", &live,
        ]))
        .unwrap())
        .unwrap();

        // The oracle replays the identical history — the hand-written
        // manual batches prepended to the recorded stream log — through
        // a single in-process engine. Byte-identity is the contract.
        let full = tmp("mut_full.log");
        let manual = "batch\n+ 900001 10.5 20.25\n+ 900002 30 40\n+ 900003 50 60\n\
                      batch\n- 900001\n- 5\n\
                      batch\n^ 900002 -5.5 7.75\n^ 900004 70 80\n";
        std::fs::write(
            &full,
            format!("{manual}{}", std::fs::read_to_string(&mlog).unwrap()),
        )
        .unwrap();
        let oracle = tmp("mut_oracle.csv");
        run(&parse(&s(&[
            "replay", "--p", &p, "--q", &q, "--target", "p", "--log", &full, "--out", &oracle,
        ]))
        .unwrap())
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&live).unwrap(),
            std::fs::read_to_string(&oracle).unwrap(),
            "live server CSV must be byte-identical to the replayed oracle"
        );

        // Refused batches surface as client errors and leave the epoch
        // alone: 900001 is already deleted, 900002/900003 already exist.
        let err = run(&parse(&s(&[
            "client", "delete", "--addr", &addr, "--name", "p", "--ids", "900001",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(err.0.contains("missing id"), "{}", err.0);
        let err = run(&parse(&s(&[
            "client", "insert", "--addr", &addr, "--name", "p", "--input", &ins,
        ]))
        .unwrap())
        .unwrap_err();
        assert!(err.0.contains("duplicate id"), "{}", err.0);
        let stats = run(&parse(&s(&["client", "stats", "--addr", &addr])).unwrap())
            .unwrap()
            .unwrap();
        assert!(stats.contains("epoch=9"), "{stats}");
        assert!(stats.contains("updates_total 9"), "{stats}");

        // Replay argument validation.
        let err = run(&parse(&s(&[
            "replay", "--p", &p, "--q", &q, "--target", "r", "--log", &full,
        ]))
        .unwrap())
        .unwrap_err();
        assert!(err.0.contains("--target must be p or q"), "{}", err.0);

        run(&parse(&s(&["client", "shutdown", "--addr", &addr])).unwrap()).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn serve_rejects_zero_shards_and_stray_positionals_error() {
        let err = run(&parse(&s(&["serve", "--shards", "0"])).unwrap()).unwrap_err();
        assert!(err.0.contains("--shards must be at least 1"), "{}", err.0);
        // Zero sessions would make the server unreachable: rejected.
        let err = run(&parse(&s(&["serve", "--max-sessions", "0"])).unwrap()).unwrap_err();
        assert!(
            err.0.contains("--max-sessions must be at least 1"),
            "{}",
            err.0
        );
        // A worker refuses every coordinator option instead of ignoring
        // it. The port is out of range, so a worker that skipped the
        // check would fail on its bind (without a name lookup) rather
        // than serve.
        for (opt, value) in [
            ("shards", "2"),
            ("replicas", "2"),
            ("workers", "spawn"),
            ("max-sessions", "4"),
            ("queue-depth", "4"),
            ("data-dir", "wal"),
        ] {
            let flag = format!("--{opt}");
            let argv = [
                "serve",
                "--shard-of",
                "auto",
                "--addr",
                "127.0.0.1:99999",
                &flag,
                value,
            ];
            let err = run(&parse(&s(&argv)).unwrap()).unwrap_err();
            let refusal = format!("{flag} is a coordinator option");
            assert!(err.0.starts_with(&refusal), "{}", err.0);
        }
        // --pipeline 0 would send nothing and hang: rejected before any
        // request goes out (the server is real, so the error is ours).
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            shards: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let paddr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.serve().unwrap());
        let err = run(&parse(&s(&[
            "client",
            "join",
            "--addr",
            &paddr,
            "--outer",
            "q",
            "--inner",
            "p",
            "--pipeline",
            "0",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(err.0.contains("--pipeline must be at least 1"), "{}", err.0);
        run(&parse(&s(&["client", "shutdown", "--addr", &paddr])).unwrap()).unwrap();
        handle.join().unwrap();
        // Commands without a sub-operation reject a stray positional.
        let err = run(&parse(&s(&["join", "stray", "--p", "a", "--q", "b"])).unwrap()).unwrap_err();
        assert!(err.0.contains("stray"), "{}", err.0);
        // client without an operation names the valid ones.
        let err = run(&parse(&s(&["client", "--addr", "127.0.0.1:1"])).unwrap()).unwrap_err();
        assert!(err.0.contains("client needs an operation"), "{}", err.0);
        // Unknown client op is rejected (before any connection succeeds
        // it must still error cleanly — use an unreachable addr).
        let err = run(&parse(&s(&["client", "frobnicate", "--addr", "127.0.0.1:1"])).unwrap())
            .unwrap_err();
        assert!(!err.0.is_empty());
    }

    #[test]
    fn options_a_command_does_not_read_are_refused_before_it_runs() {
        let p = tmp("refuse_p.bin");
        let q = tmp("refuse_q.bin");
        for (path, seed) in [(&p, "5"), (&q, "6")] {
            run(&parse(&s(&[
                "generate", "--kind", "uniform", "--n", "200", "--seed", seed, "--out", path,
            ]))
            .unwrap())
            .unwrap();
        }
        // `top-k` takes no window: it would print the unwindowed top-k.
        let out = tmp("refuse_topk.csv");
        let err = run(&parse(&s(&[
            "top-k",
            "--p",
            &p,
            "--q",
            &q,
            "--k",
            "3",
            "--bounds",
            "0,0,1,1",
            "--max-diameter",
            "1",
            "--out",
            &out,
        ]))
        .unwrap())
        .unwrap_err();
        assert_eq!(err.0, "top-k does not take --bounds");
        assert!(!Path::new(&out).exists(), "the command must not run");
        // A misspelt flag names itself.
        let err = run(&parse(&s(&[
            "join", "--p", &p, "--q", &q, "--thread", "4", "--out", &out,
        ]))
        .unwrap())
        .unwrap_err();
        assert_eq!(err.0, "join does not take --thread");
        assert!(!Path::new(&out).exists(), "the command must not run");
        // Client operations are checked per operation, before connecting.
        let err = run(&parse(&s(&[
            "client",
            "stats",
            "--addr",
            "127.0.0.1:1",
            "--name",
            "p",
        ]))
        .unwrap())
        .unwrap_err();
        assert_eq!(err.0, "client stats does not take --name");
    }

    #[test]
    fn errors_are_reported() {
        assert!(
            run(&parse(&s(&["join", "--p", "/nonexistent.bin", "--q", "x.bin"])).unwrap()).is_err()
        );
        assert!(run(&parse(&s(&["frobnicate"])).unwrap()).is_err());
        assert!(run(&parse(&s(&["compare", "--p", "a", "--q", "b"])).unwrap()).is_err());
        assert!(run(&parse(&s(&[
            "generate", "--kind", "nope", "--n", "10", "--out", "/tmp/x"
        ]))
        .unwrap())
        .is_err());
        // Unknown index kinds and algorithms are argument errors too.
        assert!(run(&parse(&s(&[
            "join", "--p", "a.bin", "--q", "b.bin", "--index", "btree"
        ]))
        .unwrap())
        .is_err());
        assert!(run(&parse(&s(&[
            "join", "--p", "a.bin", "--q", "b.bin", "--algo", "fastest"
        ]))
        .unwrap())
        .is_err());
    }
}
