//! The traced run: a "ladder" of rungs that re-runs each op at every
//! layer, from outside the program, through the layers' public
//! functions.
//!
//! The traced pass sends the same seeded sequence the untraced pass ran
//! to a freshly set-up server (the `tcp` rung). After each sampled op
//! (see `Workload::ladder_every`) it repeats the op in process, one
//! layer lower at a time; writes repeat after every op, so the
//! in-process layers stay at the served epoch:
//!
//! ```text
//! tcp                      the served op (write + read for a round)
//! ├─ server.sharded        ShardedEngine::{join,top_k,update}, same topology as the server
//! │  ├─ storage.disk       Plan::run_leaves_pooled on a spilled engine behind the same pool
//! │  │  └─ core.engine     Plan::run_leaves on a resident engine (per shard; slowest shard)
//! │  │     └─ core.filter  the same with .skip_verification()
//! │  ├─ core.update_apply  Engine::update().apply()
//! │  ├─ storage.wal_append Wal::append of the batch's record bytes
//! │  └─ storage.wal_sync   Wal::sync
//! ├─ server.proto.encode   Reply::encode_ok + encode_pairs of the answer
//! └─ server.proto.decode   Reply::parse + parse_pairs of that payload
//! ```
//!
//! Each rung is a span (name, start, end, op id, parent = the rung it is
//! subtracted from), kept in memory and written out as JSON lines at the
//! end. A layer's self time is its rung minus the rung below:
//! `server.transport = tcp - sharded - encode - decode`,
//! `server.sharded.fanout_merge = sharded - (disk or engine)`,
//! `storage.page_wait = disk - engine`, `core.verify = engine - filter`,
//! `server.sharded.coordinator = update - apply - wal_append - wal_sync`.
//!
//! Layers a workload's ops bypass are still measured, by a small off-path
//! probe: the disk rung on the first [`PROBE_OPS`] ops of a resident
//! workload, the write rungs on [`PROBE_BATCHES`] seeded batches of a
//! read-only workload, and `TOPK` where the sequence has none. The
//! prediction for those metrics on that workload is "no change".

use crate::child::copy_dir;
use crate::oracle::{self, Reads, VERIFIED};
use crate::workload::{self, Op, Workload};
use crate::{start_server, stat, wire_op, Ctx, EndToEnd};
use ringjoin_core::{Engine, IndexKind, RcjAlgorithm, RcjPair};
use ringjoin_geom::{Point, Rect};
use ringjoin_server::proto::{encode_pairs, encode_stats_fields, parse_pairs, Reply, Request};
use ringjoin_server::{Mutation, RingBounds, ShardedEngine, ShardedOutput, TopologyConfig};
use ringjoin_storage::{BufferPool, IoStats, MemDisk, Pager, Wal};
use std::fmt::Write as _;
use std::time::Instant;

/// Ops of a resident workload that also run the off-path disk rung.
const PROBE_OPS: usize = 3;
/// Seeded batches the off-path write probe applies.
const PROBE_BATCHES: usize = 24;
/// Repetitions of the one-off set-up rungs (their median is reported).
const SETUP_RUNG_REPS: usize = 3;

/// The traced run's result.
pub struct Traced {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(String, f64, &'static str)>,
}

/// One recorded rung.
struct Span {
    name: &'static str,
    /// Op index in the sequence; `None` for set-up and probe rungs.
    op: Option<usize>,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

/// The in-memory span store.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    fn begin(&mut self, name: &'static str, op: Option<usize>, parent: Option<usize>) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_us,
            end_us: start_us,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, returning its duration in ms.
    fn end(&mut self, id: usize) -> f64 {
        let end_us = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = end_us;
        (end_us - span.start_us) / 1e3
    }

    /// Runs `f` inside a span; returns its value, duration (ms) and id.
    fn rung<T>(
        &mut self,
        name: &'static str,
        op: Option<usize>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64, usize) {
        let id = self.begin(name, op, parent);
        let value = f();
        (value, self.end(id), id)
    }

    fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {}, \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                s.name,
                s.op.map_or("null".to_string(), |o| o.to_string()),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_us,
                s.end_us
            );
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Sums over the timed ops, turned into per-op metrics at the end.
#[derive(Default)]
struct Acc {
    topks: f64,
    batches: f64,
    tcp_ms: f64,
    sharded_ms: f64,
    engine_ms: f64,
    filter_ms: f64,
    encode_ms: f64,
    decode_ms: f64,
    topk_ms: f64,
    /// Disk-rung time and the resident time of the same ops.
    disk_ms: f64,
    disk_resident_ms: f64,
    disk_ops: f64,
    update_ms: f64,
    apply_ms: f64,
    wal_append_ms: f64,
    wal_sync_ms: f64,
    candidates: f64,
    results: f64,
    heap_pops: f64,
    filter_reads: f64,
    verify_visits: f64,
    computed: f64,
    admitted: f64,
    logical_reads: f64,
    reply_bytes: f64,
    pairs: f64,
}

/// The in-process replicas of the served system that the rungs run on.
struct Layers {
    /// Resident engine; mirrors the server's data epoch by epoch.
    engine: Engine,
    /// Outer leaf regions and each shard's owned positions.
    leaves: Vec<Rect>,
    shard_positions: Vec<Vec<usize>>,
    /// Spilled engine and the pool its runs read through.
    disk: Engine,
    pool: BufferPool,
    /// Same topology as the served one.
    sharded: ShardedEngine,
    /// A scratch log for the WAL rungs.
    wal: Wal,
}

fn io_stats(engine: &Engine) -> IoStats {
    engine.pager().borrow().stats()
}

fn sharded_config(ctx: &Ctx, name: &str) -> TopologyConfig {
    let mut cfg = TopologyConfig {
        shards: ctx.workload.shards(),
        ..TopologyConfig::default()
    };
    match ctx.workload {
        Workload::RingWindow => {
            cfg.on_disk = Some(ctx.scratch.join(&format!("{name}.pages")));
            cfg.buffer_pages = ctx.pool_pages;
        }
        Workload::LiveDurable => cfg.data_dir = Some(ctx.scratch.join(name)),
        Workload::FullAnswer => {}
    }
    cfg
}

fn sharded_err(e: ringjoin_server::ServerError) -> String {
    format!("in-process sharded engine: {e}")
}

/// Set-up rungs plus the in-process layers the op rungs run on.
fn build_layers(
    ctx: &Ctx,
    tr: &mut Tracer,
    m: &mut Vec<(String, f64, &'static str)>,
) -> Result<Layers, String> {
    // rtree: STR bulk load of both datasets into a fresh pager.
    let mut bulk = Vec::new();
    for _ in 0..SETUP_RUNG_REPS {
        let (q, p) = (ctx.q.clone(), ctx.p.clone());
        let pager = Pager::new(MemDisk::new(1024), usize::MAX / 2).into_shared();
        let (_, t, _) = tr.rung("rtree.bulk_load", None, None, || {
            let tq = ringjoin_rtree::bulk_load(pager.clone(), q);
            let tp = ringjoin_rtree::bulk_load(pager.clone(), p);
            (tq, tp)
        });
        bulk.push(t);
    }
    m.push((
        "rtree.bulk_load_ms".into(),
        crate::stats::median(&bulk),
        "ms",
    ));

    // server.sharded: a fresh coordinator of the served topology loads
    // both datasets (a durable one logs and fsyncs the LOADs).
    let mut loads = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_RUNG_REPS {
        let name = format!("ladder-load-{rep}");
        let cfg = sharded_config(ctx, &name);
        let (engine, t, _) = tr.rung("server.sharded.load", None, None, || {
            let engine = ShardedEngine::with_topology(cfg)?;
            engine.load("q", ctx.q.clone(), IndexKind::Rtree)?;
            engine.load("p", ctx.p.clone(), IndexKind::Rtree)?;
            Ok::<_, ringjoin_server::ServerError>(engine)
        });
        loads.push(t);
        let engine = engine.map_err(sharded_err)?;
        if ctx.workload != Workload::LiveDurable && kept.is_none() {
            kept = Some(engine);
        } else {
            engine.shutdown();
        }
    }
    m.push((
        "server.sharded.load_ms".into(),
        crate::stats::median(&loads),
        "ms",
    ));
    let load_bytes: usize = [("q", &ctx.q), ("p", &ctx.p)]
        .iter()
        .map(|(name, items)| {
            Request::Load {
                name: name.to_string(),
                kind: IndexKind::Rtree,
                items: items.to_vec(),
            }
            .encode()
            .len()
        })
        .sum();
    m.push(("server.proto.load_bytes".into(), load_bytes as f64, "bytes"));

    // A live-durable coordinator is the recovered one: the restart the
    // served set-up times, on a pristine copy of the history.
    let sharded = match kept {
        Some(engine) => engine,
        None => {
            let dir = ctx.scratch.join("ladder-recovered");
            copy_dir(&ctx.scratch.join("history"), &dir)?;
            let cfg = TopologyConfig {
                shards: 1,
                data_dir: Some(dir),
                ..TopologyConfig::default()
            };
            let (engine, t, _) = tr.rung("server.sharded.recovery", None, None, || {
                ShardedEngine::with_topology(cfg)
            });
            m.push(("server.sharded.recovery_ms".into(), t, "ms"));
            engine.map_err(sharded_err)?
        }
    };

    // storage: spill a resident engine's pages to a page file.
    let disk = oracle::engine(&ctx.q, &ctx.p);
    let path = ctx.scratch.join("ladder-disk.pages");
    let (spilled, t, _) = tr.rung("storage.spill", None, None, || {
        disk.pager().borrow_mut().spill_to(&path)
    });
    spilled.map_err(|e| format!("cannot spill to {}: {e}", path.display()))?;
    m.push(("storage.spill_ms".into(), t, "ms"));

    let mut engine = oracle::engine(&ctx.q, &ctx.p);
    for batch in &ctx.history {
        oracle::apply(&mut engine, batch)?;
    }
    let leaves = engine.leaf_regions("q").expect("q is loaded");
    let shard_positions = oracle::shard_positions(&ctx.q, &leaves, ctx.workload.shards());
    let (_, wal) = Wal::open(ctx.scratch.join("ladder-wal"))
        .map_err(|e| format!("cannot open the scratch WAL: {e}"))?;
    Ok(Layers {
        engine,
        leaves,
        shard_positions,
        disk,
        pool: BufferPool::new(ctx.pool_pages),
        sharded,
        wal,
    })
}

/// The write rungs of one batch; returns the in-process epoch reached.
fn write_rungs(
    layers: &mut Layers,
    tr: &mut Tracer,
    acc: Option<&mut Acc>,
    op: Option<usize>,
    parent: Option<usize>,
    batch: &[Mutation],
) -> Result<u64, String> {
    let sharded = &layers.sharded;
    let (info, update_ms, up) = tr.rung("server.sharded.update", op, parent, || {
        sharded.update("p", batch.to_vec())
    });
    let info = info.map_err(sharded_err)?;
    let engine = &mut layers.engine;
    let (epoch, apply_ms, _) = tr.rung("core.update_apply", op, Some(up), || {
        oracle::apply(engine, batch)
    });
    if epoch? != info.epoch {
        return Err("engine and sharded engine disagree on the epoch".into());
    }
    let record = oracle::wal_record(info.epoch, batch);
    let wal = &mut layers.wal;
    let (appended, append_ms, _) =
        tr.rung("storage.wal_append", op, Some(up), || wal.append(&record));
    let (synced, sync_ms, _) = tr.rung("storage.wal_sync", op, Some(up), || wal.sync());
    appended
        .and(synced)
        .map_err(|e| format!("scratch WAL: {e}"))?;
    if let Some(acc) = acc {
        acc.batches += 1.0;
        acc.update_ms += update_ms;
        acc.apply_ms += apply_ms;
        acc.wal_append_ms += append_ms;
        acc.wal_sync_ms += sync_ms;
    }
    Ok(info.epoch)
}

/// The read rungs of one op; returns the reference answer's wire body
/// (`None` where the served answer is checked elsewhere).
#[allow(clippy::too_many_arguments)]
fn read_rungs(
    ctx: &Ctx,
    layers: &Layers,
    tr: &mut Tracer,
    acc: &mut Acc,
    op_id: usize,
    parent: usize,
    op: &Op,
    with_disk: bool,
) -> Result<Option<String>, String> {
    let op_tag = Some(op_id);
    let bounds: Option<RingBounds> = match op {
        Op::Join(b) => *b,
        Op::Round { bounds, .. } => Some(*bounds),
        Op::TopK(_) => None,
    };
    let sharded = &layers.sharded;
    let (out, sharded_ms, sh) = tr.rung("server.sharded", op_tag, Some(parent), || match op {
        Op::TopK(k) => sharded.top_k("q", "p", *k),
        _ => sharded.join("q", "p", RcjAlgorithm::Auto, bounds),
    });
    let out: ShardedOutput = out.map_err(sharded_err)?;
    // The server's join reply: the same status fields, then pair rows.
    let (payload, encode_ms, _) = tr.rung("server.proto.encode", op_tag, Some(parent), || {
        let mut fields = vec![
            ("pairs", out.pairs.len().to_string()),
            ("shards_queried", out.shards_queried.to_string()),
        ];
        fields.extend(encode_stats_fields(&out.stats));
        Reply::encode_ok(None, &fields, &encode_pairs(&out.pairs))
    });
    let (decoded, decode_ms, _) = tr.rung("server.proto.decode", op_tag, Some(parent), || {
        Reply::parse(&payload).and_then(|r| parse_pairs(&r.body))
    });
    let decoded = decoded.map_err(|e| format!("proto round trip: {e}"))?;
    if decoded != out.pairs {
        return Err("proto round trip changed the answer".into());
    }
    acc.sharded_ms += sharded_ms;
    acc.encode_ms += encode_ms;
    acc.decode_ms += decode_ms;
    acc.reply_bytes += payload.len() as f64;
    acc.pairs += out.pairs.len() as f64;

    if let Op::TopK(k) = op {
        let engine = &layers.engine;
        let (pairs, topk_ms, _) =
            tr.rung("core.topk", op_tag, Some(sh), || oracle::top_k(engine, *k));
        acc.topks += 1.0;
        acc.topk_ms += topk_ms;
        if with_disk {
            let disk = &layers.disk;
            let (_, disk_ms, _) =
                tr.rung("storage.disk", op_tag, Some(sh), || oracle::top_k(disk, *k));
            acc.disk_ms += disk_ms;
            acc.disk_resident_ms += topk_ms;
            acc.disk_ops += 1.0;
        }
        return Ok(Some(oracle::body(&pairs)));
    }

    // The disk rung: the whole routed set through the shared-pool path.
    let all: Vec<usize> = (0..layers.leaves.len()).collect();
    let mut disk_parent = Some(sh);
    let mut disk_ms = None;
    if with_disk {
        let routed = oracle::routed(&all, &layers.leaves, bounds.as_ref());
        let (disk, pool) = (&layers.disk, &layers.pool);
        let (_, t, id) = tr.rung("storage.disk", op_tag, Some(sh), || {
            oracle::leaf_join(disk, &routed, bounds.as_ref(), Reads::Pool(pool))
        });
        disk_ms = Some(t);
        if ctx.workload == Workload::RingWindow {
            disk_parent = Some(id);
        }
    }

    // The engine rungs, per shard: the slowest shard is the critical
    // path the fan-out waits for, and its filter rung is the one below.
    let before = io_stats(&layers.engine);
    let engine = &layers.engine;
    let mut slowest: Option<(f64, usize, Vec<usize>)> = None;
    let mut answer: Vec<RcjPair> = Vec::new();
    for positions in &layers.shard_positions {
        let routed = oracle::routed(positions, &layers.leaves, bounds.as_ref());
        let (run, engine_ms, id) = tr.rung("core.engine", op_tag, disk_parent, || {
            oracle::leaf_join(engine, &routed, bounds.as_ref(), VERIFIED)
        });
        acc.candidates += run.stats.candidate_pairs as f64;
        acc.results += run.stats.result_pairs as f64;
        acc.heap_pops += run.stats.filter_heap_pops as f64;
        acc.filter_reads += run.stats.filter_node_reads as f64;
        acc.verify_visits += run.stats.verify_node_visits as f64;
        acc.computed += run.computed as f64;
        acc.admitted += run.pairs.len() as f64;
        answer.extend(run.pairs);
        if slowest.as_ref().is_none_or(|(t, _, _)| engine_ms > *t) {
            slowest = Some((engine_ms, id, routed));
        }
    }
    acc.logical_reads += io_stats(engine).since(before).logical_reads as f64;
    let (engine_ms, id, routed) = slowest.expect("at least one shard");
    let filter_only = Reads::Engine {
        skip_verification: true,
    };
    let (_, filter_ms, _) = tr.rung("core.filter", op_tag, Some(id), || {
        oracle::leaf_join(engine, &routed, bounds.as_ref(), filter_only)
    });
    acc.engine_ms += engine_ms;
    acc.filter_ms += filter_ms;
    if let Some(t) = disk_ms {
        acc.disk_ms += t;
        acc.disk_resident_ms += engine_ms;
        acc.disk_ops += 1.0;
    }
    if layers.shard_positions.len() == 1 {
        Ok(Some(oracle::body(&answer)))
    } else {
        // Multi-shard answers are checked against the full engine answer
        // the untraced pass used.
        Ok(None)
    }
}

/// Off-path write probe for read-only workloads: seeded batches through
/// a fresh durable coordinator, a resident engine and the scratch WAL,
/// then the restart that recovers them.
fn write_probe(
    ctx: &Ctx,
    layers: &mut Layers,
    tr: &mut Tracer,
    acc: &mut Acc,
    points: &[Point],
) -> Result<(f64, f64), String> {
    let dir = ctx.scratch.join("probe-data");
    let cfg = TopologyConfig {
        shards: ctx.workload.shards(),
        data_dir: Some(dir.clone()),
        ..TopologyConfig::default()
    };
    let sharded = ShardedEngine::with_topology(cfg.clone()).map_err(sharded_err)?;
    sharded
        .load("q", ctx.q.clone(), IndexKind::Rtree)
        .and_then(|_| sharded.load("p", ctx.p.clone(), IndexKind::Rtree))
        .map_err(sharded_err)?;
    let wal_before = sharded.wal_stats().1;
    let served = std::mem::replace(&mut layers.sharded, sharded);
    let engine = std::mem::replace(&mut layers.engine, oracle::engine(&ctx.q, &ctx.p));
    let batches: Vec<Vec<Mutation>> = workload::history(ctx.seed, points)
        .into_iter()
        .take(PROBE_BATCHES)
        .collect();
    for batch in &batches {
        write_rungs(layers, tr, Some(&mut *acc), None, None, batch)?;
    }
    let wal_bytes = (layers.sharded.wal_stats().1 - wal_before) as f64 / batches.len() as f64;
    std::mem::replace(&mut layers.sharded, served).shutdown();
    layers.engine = engine;
    let (recovered, recovery_ms, _) = tr.rung("server.sharded.recovery", None, None, || {
        ShardedEngine::with_topology(cfg)
    });
    recovered.map_err(sharded_err)?.shutdown();
    Ok((wal_bytes, recovery_ms))
}

/// The traced pass: the same seeded sequence against a fresh server,
/// every op followed by its in-process rungs; plus the set-up rungs and
/// the off-path probes. `untraced` is the untraced pass's end-to-end
/// result, for the tracing overhead.
pub fn traced_pass(ctx: &Ctx, untraced: &EndToEnd, untraced_wall_s: f64) -> Result<Traced, String> {
    let mut tr = Tracer {
        t0: Instant::now(),
        spans: Vec::new(),
    };
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut layers = build_layers(ctx, &mut tr, &mut m)?;
    let points: Vec<Point> = ctx.q.iter().chain(&ctx.p).map(|it| it.point).collect();
    let full_body = match ctx.workload {
        Workload::FullAnswer => Some(oracle::body(&oracle::full_join(&layers.engine))),
        _ => None,
    };

    let (child, mut sess, _) = start_server(ctx, "served")?;
    let mut stats_before = Vec::new();
    let mut wal_before = 0;
    let mut acc = Acc::default();
    let every = ctx.workload.ladder_every();
    let mut sampled = 0usize;
    let mut epoch = ctx.history.len() as u64;
    let mut failed = 0;
    let mut lat_ms = Vec::new();
    let mut t_start = Instant::now();
    for (i, op) in ctx.ops.iter().enumerate() {
        let timed = i >= ctx.warmup;
        if i == ctx.warmup {
            stats_before = sess.stats()?;
            wal_before = layers.sharded.wal_stats().1;
            t_start = Instant::now();
        }
        // Every op goes over the wire; every `every`-th timed op also
        // runs its read rungs (writes always run theirs, to keep the
        // in-process layers at the served epoch).
        let rungs = timed && (i - ctx.warmup).is_multiple_of(every);
        let root = tr.begin("op", Some(i), None);
        let tcp = tr.begin("tcp", Some(i), Some(root));
        let served = wire_op(&mut sess, op, &mut epoch);
        let tcp_ms = tr.end(tcp);
        let mut ok = served.is_ok();
        if let Err(e) = &served {
            eprintln!("traced op {i}: {e}");
        }
        // Writes keep every in-process layer at the served epoch, warm-up
        // included; reads run their rungs on timed ops only.
        if let Op::Round { batch, .. } = op {
            let acc_ref = if rungs { Some(&mut acc) } else { None };
            match write_rungs(&mut layers, &mut tr, acc_ref, Some(i), Some(tcp), batch) {
                Ok(e) if e == epoch => {}
                Ok(e) => {
                    eprintln!("traced op {i}: in-process epoch {e}, served {epoch}");
                    ok = false;
                }
                Err(e) => return Err(e),
            }
        }
        let expected = if rungs {
            let with_disk = ctx.workload == Workload::RingWindow || sampled < PROBE_OPS;
            sampled += 1;
            acc.tcp_ms += tcp_ms;
            read_rungs(ctx, &layers, &mut tr, &mut acc, i, tcp, op, with_disk)?
        } else {
            None
        };
        // Sampled ops are checked against their engine rung, full
        // answers against the engine's full join; the untraced pass has
        // already checked every op of this sequence.
        if let (Ok(body), Some(expected)) = (&served, expected.as_deref().or(full_body.as_deref()))
        {
            if body != expected {
                eprintln!("traced op {i}: served answer differs from the engine's");
                ok = false;
            }
        }
        if timed {
            lat_ms.push(if ok { tcp_ms } else { f64::INFINITY });
        }
        tr.end(root);
        if !ok {
            failed += 1;
        }
    }
    let traced_wall_s = t_start.elapsed().as_secs_f64();
    let stats_after = sess.stats()?;
    let retries = sess.retries;
    child.stop(&mut sess.client);

    // Off-path probes.
    let timed_ops = (ctx.ops.len() - ctx.warmup) as f64;
    let wal_bytes = match ctx.workload {
        Workload::LiveDurable => (layers.sharded.wal_stats().1 - wal_before) as f64 / timed_ops,
        _ => {
            let (bytes, recovery_ms) = write_probe(ctx, &mut layers, &mut tr, &mut acc, &points)?;
            m.push(("server.sharded.recovery_ms".into(), recovery_ms, "ms"));
            bytes
        }
    };
    if acc.topks == 0.0 {
        for _ in 0..SETUP_RUNG_REPS {
            let engine = &layers.engine;
            let (_, t, _) = tr.rung("core.topk", None, None, || {
                oracle::top_k(engine, workload::TOPK_K)
            });
            acc.topk_ms += t;
            acc.topks += 1.0;
        }
    }

    // Per-op metrics: rung times and counts are per op that ran its
    // rungs, except core.topk_ms (per TOPK call), the write rungs (per
    // batch; one per op on live-durable) and storage.page_wait_ms (per
    // op that ran the disk rung). STATS deltas are per timed op.
    let batches = acc.batches.max(1.0);
    let delta = |k: &str| stat(&stats_after, k) - stat(&stats_before, k);
    let ops = sampled.max(1) as f64;
    let below_sharded = if ctx.workload == Workload::RingWindow {
        acc.disk_ms
    } else {
        acc.engine_ms
    };
    let coordinator = acc.update_ms - acc.apply_ms - acc.wal_append_ms - acc.wal_sync_ms;
    let transport = acc.tcp_ms
        - acc.sharded_ms
        - acc.encode_ms
        - acc.decode_ms
        - if ctx.workload == Workload::LiveDurable {
            acc.update_ms
        } else {
            0.0
        };
    let traced = EndToEnd::of(&lat_ms, traced_wall_s);
    let pool_hits = delta("pool_hits");
    let pool_faults = delta("pool_faults");
    let plan_hits = delta("plan_cache_hits");
    let plan_total = plan_hits + delta("plan_cache_misses");
    m.extend([
        ("ladder.tcp_ms".to_string(), acc.tcp_ms / ops, "ms"),
        ("core.filter_ms".into(), acc.filter_ms / ops, "ms"),
        (
            "core.verify_ms".into(),
            (acc.engine_ms - acc.filter_ms) / ops,
            "ms",
        ),
        (
            "core.candidates_per_op".into(),
            acc.candidates / ops,
            "count",
        ),
        (
            "core.filter_node_reads_per_op".into(),
            acc.filter_reads / ops,
            "count",
        ),
        (
            "core.verify_node_visits_per_op".into(),
            acc.verify_visits / ops,
            "count",
        ),
        ("core.heap_pops_per_op".into(), acc.heap_pops / ops, "count"),
        (
            "core.verify_yield".into(),
            acc.results / acc.candidates.max(1.0),
            "ratio",
        ),
        (
            "core.window_yield".into(),
            acc.admitted / acc.computed.max(1.0),
            "ratio",
        ),
        ("core.topk_ms".into(), acc.topk_ms / acc.topks, "ms"),
        ("core.update_apply_ms".into(), acc.apply_ms / batches, "ms"),
        (
            "storage.logical_reads_per_op".into(),
            acc.logical_reads / ops,
            "count",
        ),
        (
            "storage.faults_per_op".into(),
            pool_faults / timed_ops,
            "count",
        ),
        (
            "storage.hit_rate".into(),
            pool_hits / (pool_hits + pool_faults).max(1.0),
            "ratio",
        ),
        (
            "storage.prefetch_hits_per_op".into(),
            delta("pool_prefetch_hits") / timed_ops,
            "count",
        ),
        (
            "storage.page_wait_ms".into(),
            (acc.disk_ms - acc.disk_resident_ms) / acc.disk_ops.max(1.0),
            "ms",
        ),
        (
            "storage.wal_append_ms".into(),
            acc.wal_append_ms / batches,
            "ms",
        ),
        (
            "storage.wal_sync_ms".into(),
            acc.wal_sync_ms / batches,
            "ms",
        ),
        ("storage.wal_bytes_per_batch".into(), wal_bytes, "bytes"),
        (
            "server.sharded.fanout_merge_ms".into(),
            (acc.sharded_ms - below_sharded) / ops,
            "ms",
        ),
        (
            "server.sharded.update_ms".into(),
            acc.update_ms / batches,
            "ms",
        ),
        (
            "server.sharded.coordinator_ms".into(),
            coordinator / batches,
            "ms",
        ),
        ("server.proto.encode_ms".into(), acc.encode_ms / ops, "ms"),
        ("server.proto.decode_ms".into(), acc.decode_ms / ops, "ms"),
        (
            "server.proto.reply_bytes_per_op".into(),
            acc.reply_bytes / ops,
            "bytes",
        ),
        (
            "server.proto.bytes_per_pair".into(),
            acc.reply_bytes / acc.pairs.max(1.0),
            "bytes",
        ),
        ("server.transport_ms".into(), transport / ops, "ms"),
        (
            "server.plan_cache.hit_rate".into(),
            plan_hits / plan_total.max(1.0),
            "ratio",
        ),
        (
            "server.admission.rejected_busy".into(),
            delta("rejected_busy"),
            "count",
        ),
        ("client.retries".into(), retries as f64, "count"),
        (
            "trace.overhead_p50_ms".into(),
            traced.p50_ms - untraced.p50_ms,
            "ms",
        ),
        (
            "trace.overhead_wall_share".into(),
            (traced_wall_s - untraced_wall_s) / untraced_wall_s,
            "ratio",
        ),
    ]);
    let path = ctx.out_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        ctx.workload.name(),
        ctx.seed
    ));
    tr.write_jsonl(&path)?;
    layers.sharded.shutdown();
    Ok(Traced {
        attempted: ctx.ops.len(),
        failed,
        metrics: m,
    })
}
