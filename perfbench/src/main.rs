//! Served-join benchmark for the ring-constrained join.
//!
//! ```text
//! perfbench --workload full-answer|ring-window|live-durable --seed N
//!           --seconds S --trace 0|1 --server-bin PATH --out-dir DIR
//! ```
//!
//! The system under test is one `ringjoin serve` child process; this
//! process is its single closed-loop client. A run repeats the set-up
//! (spawn the server until it is ready for the first op) and reports the
//! median, runs a warm-up, then times a fixed, seeded op sequence and
//! checks every answer against an in-process engine. `--trace 1` adds a
//! second pass over the same sequence that times each layer through its
//! public functions (see `ladder.rs`). The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! `perfbench/README.md` describes the workloads and metrics.

mod child;
mod ladder;
mod oracle;
mod stats;
mod workload;

use child::{copy_dir, Scratch, ServerChild};
use ringjoin_core::{IndexKind, RcjAlgorithm};
use ringjoin_geom::{Item, Point};
use ringjoin_server::proto::{Reply, Request};
use ringjoin_server::{Client, Mutation, ServerError, ShardedEngine, TopologyConfig};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::{Op, Workload};

/// Socket deadline of the benchmark's client: a hung server fails the
/// run instead of wedging it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// Attempts per request when the server sheds load with `ERR busy`.
const MAX_ATTEMPTS: u32 = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server_bin: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key}"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|e| format!("bad --seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("bad --seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        server_bin: PathBuf::from(get("--server-bin")?),
        out_dir: PathBuf::from(get("--out-dir")?),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Everything one run shares: the data, the seeded ops and the sizes.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub q: Vec<Item>,
    pub p: Vec<Item>,
    pub ops: Vec<Op>,
    pub warmup: usize,
    pub bin: PathBuf,
    /// Where reports go; run scratch lives in a subdirectory.
    pub out_dir: PathBuf,
    pub scratch: Scratch,
    /// Index pages of both datasets.
    pub dataset_pages: u64,
    /// The ring-window server's buffer-pool budget.
    pub pool_pages: usize,
    /// The live-durable history recovered at set-up.
    pub history: Vec<Vec<Mutation>>,
}

impl Ctx {
    /// Server flags of this workload (beyond address and address file);
    /// `slot` names the page file or data directory, so a set-up can run
    /// while another server keeps serving.
    fn server_flags(&self, slot: &str) -> Vec<String> {
        let mut flags = vec!["--shards".to_string(), self.workload.shards().to_string()];
        match self.workload {
            Workload::FullAnswer => {}
            Workload::RingWindow => flags.extend([
                "--on-disk".to_string(),
                self.scratch
                    .join(&format!("{slot}.pages"))
                    .display()
                    .to_string(),
                "--buffer-pages".to_string(),
                self.pool_pages.to_string(),
            ]),
            Workload::LiveDurable => flags.extend([
                "--data-dir".to_string(),
                self.scratch
                    .join(&format!("{slot}-data"))
                    .display()
                    .to_string(),
            ]),
        }
        flags
    }

    /// Where the pristine live-durable history lives.
    fn history_dir(&self) -> PathBuf {
        self.scratch.join("history")
    }
}

/// One client session with `ERR busy` retries counted.
pub struct Session {
    pub client: Client,
    pub retries: u64,
}

impl Session {
    /// One request, retried on `ERR busy` after the server's hint.
    pub fn call(&mut self, req: &Request) -> Result<Reply, ServerError> {
        let mut attempt = 1;
        loop {
            match self.client.request(req) {
                Err(ServerError::Busy { retry_after_ms }) if attempt < MAX_ATTEMPTS => {
                    self.retries += 1;
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(retry_after_ms));
                }
                outcome => return outcome,
            }
        }
    }

    /// A `STATS` reply's numeric status fields.
    pub fn stats(&mut self) -> Result<Vec<(String, f64)>, String> {
        let reply = self.call(&Request::Stats).map_err(|e| e.to_string())?;
        Ok(reply
            .fields
            .iter()
            .filter_map(|(k, v)| v.parse().ok().map(|v| (k.clone(), v)))
            .collect())
    }
}

/// A named field of a `STATS` snapshot (0 when absent).
pub fn stat(snapshot: &[(String, f64)], key: &str) -> f64 {
    snapshot
        .iter()
        .find(|(k, _)| k == key)
        .map_or(0.0, |(_, v)| *v)
}

/// Runs one op over the wire — request, reply, and decoding of the pair
/// rows, what a client waits for — and returns the reply body. A
/// round's write must advance the epoch by exactly one.
pub fn wire_op(sess: &mut Session, op: &Op, epoch: &mut u64) -> Result<String, String> {
    let read = match op {
        Op::Join(bounds) => join_request(*bounds),
        Op::TopK(k) => Request::TopK {
            outer: "q".into(),
            inner: "p".into(),
            k: *k,
        },
        Op::Round { batch, bounds } => {
            let reply = sess
                .call(&oracle::write_request(batch))
                .map_err(|e| format!("write refused: {e}"))?;
            let got: u64 = reply
                .field("epoch")
                .and_then(|e| e.parse().ok())
                .ok_or("write reply carries no epoch")?;
            if got != *epoch + 1 {
                return Err(format!("write moved the epoch from {epoch} to {got}"));
            }
            *epoch = got;
            join_request(Some(*bounds))
        }
    };
    let reply = sess.call(&read).map_err(|e| format!("read refused: {e}"))?;
    Client::decode_output(&reply).map_err(|e| format!("undecodable reply: {e}"))?;
    Ok(reply.body)
}

fn join_request(bounds: Option<ringjoin_server::RingBounds>) -> Request {
    Request::Join {
        outer: "q".into(),
        inner: "p".into(),
        algo: RcjAlgorithm::Auto,
        bounds,
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Spawns the server and brings it to the state the first op expects:
/// both datasets loaded (or, for live-durable, the history recovered).
/// Returns the child, its session and the set-up time in seconds.
pub fn start_server(ctx: &Ctx, slot: &str) -> Result<(ServerChild, Session, f64), String> {
    match ctx.workload {
        Workload::RingWindow => {
            let _ = std::fs::remove_file(ctx.scratch.join(&format!("{slot}.pages")));
        }
        Workload::LiveDurable => copy_dir(
            &ctx.history_dir(),
            &ctx.scratch.join(&format!("{slot}-data")),
        )?,
        Workload::FullAnswer => {}
    }
    let addr_file = ctx.scratch.join(&format!("{slot}.addr"));
    let t0 = Instant::now();
    let child = ServerChild::spawn(&ctx.bin, &addr_file, &ctx.server_flags(slot))?;
    let client = Client::connect_with_timeout(child.addr(), Some(CLIENT_TIMEOUT))
        .map_err(|e| format!("cannot connect: {e}"))?;
    let mut sess = Session { client, retries: 0 };
    if ctx.workload != Workload::LiveDurable {
        for (name, items) in [("q", &ctx.q), ("p", &ctx.p)] {
            sess.call(&Request::Load {
                name: name.into(),
                kind: IndexKind::Rtree,
                items: items.clone(),
            })
            .map_err(|e| format!("LOAD {name} failed: {e}"))?;
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    if ctx.workload == Workload::LiveDurable {
        let recovered = stat(&sess.stats()?, "recovered_epochs");
        let want = (2 + ctx.history.len()) as f64;
        if recovered != want {
            return Err(format!(
                "server recovered {recovered} records, expected {want}"
            ));
        }
    }
    Ok((child, sess, setup_s))
}

/// One more cold start, timed and shut down again; it runs beside the
/// serving child, on its own page file or data directory.
fn extra_setup(ctx: &Ctx) -> Result<f64, String> {
    let (child, mut sess, t) = start_server(ctx, "setup")?;
    child.stop(&mut sess.client);
    Ok(t)
}

/// Outcome of driving the op sequence once, untraced.
struct Drive {
    /// Latency of each timed op; a failed op counts as infinitely slow.
    lat_ms: Vec<f64>,
    wall_s: f64,
    /// Reply bodies of every op (warm-up included) kept for the
    /// post-run check; `None` where the op failed or was checked inline.
    bodies: Vec<Option<String>>,
    failed: usize,
}

/// Drives the op sequence: the warm-up, then the timed ops in
/// `chunks` equal chunks with `between` run (untimed) after every chunk
/// but the last. The timed wall time is the chunks' sum.
fn drive(
    ctx: &Ctx,
    sess: &mut Session,
    inline_oracle: Option<&str>,
    chunks: usize,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Drive, String> {
    let mut epoch = ctx.history.len() as u64;
    let mut out = Drive {
        lat_ms: Vec::with_capacity(ctx.ops.len()),
        wall_s: 0.0,
        bodies: Vec::with_capacity(ctx.ops.len()),
        failed: 0,
    };
    let timed = ctx.ops.len() - ctx.warmup;
    let breaks: Vec<usize> = (1..chunks)
        .map(|k| ctx.warmup + k * timed / chunks)
        .collect();
    let mut chunk_start = Instant::now();
    for (i, op) in ctx.ops.iter().enumerate() {
        if breaks.contains(&i) {
            out.wall_s += chunk_start.elapsed().as_secs_f64();
            between()?;
            chunk_start = Instant::now();
        } else if i == ctx.warmup {
            chunk_start = Instant::now();
        }
        let t0 = Instant::now();
        let served = wire_op(sess, op, &mut epoch);
        let lat = ms(t0.elapsed());
        let ok = match (&served, inline_oracle) {
            (Err(e), _) => {
                eprintln!("op {i}: {e}");
                false
            }
            (Ok(body), Some(expected)) if body != expected => {
                eprintln!("op {i}: full answer differs from the engine's");
                false
            }
            (Ok(_), _) => true,
        };
        if !ok {
            out.failed += 1;
        }
        if i >= ctx.warmup {
            out.lat_ms.push(if ok { lat } else { f64::INFINITY });
        }
        out.bodies
            .push(served.ok().filter(|_| ok && inline_oracle.is_none()));
    }
    out.wall_s += chunk_start.elapsed().as_secs_f64();
    Ok(out)
}

/// Checks the kept reply bodies against the engine, op by op. Returns
/// how many differ. For live-durable the engine replays every batch in
/// order, so round `i` is checked against the state after batch `i`.
fn post_check(
    ctx: &Ctx,
    bodies: &[Option<String>],
    oracle_engine: &mut ringjoin_core::Engine,
) -> usize {
    let leaves = oracle_engine.leaf_regions("q").expect("q is loaded");
    let all: Vec<usize> = (0..leaves.len()).collect();
    let full = match ctx.workload {
        Workload::RingWindow => oracle::full_join(oracle_engine),
        _ => Vec::new(),
    };
    let topk = match ctx.workload {
        Workload::RingWindow => oracle::body(&oracle::top_k(oracle_engine, workload::TOPK_K)),
        _ => String::new(),
    };
    let mut bad = 0;
    for (i, (op, body)) in ctx.ops.iter().zip(bodies).enumerate() {
        let expected = match op {
            Op::Join(Some(rb)) => oracle::body(
                &full
                    .iter()
                    .filter(|pr| rb.admits(pr))
                    .copied()
                    .collect::<Vec<_>>(),
            ),
            Op::Join(None) => continue,
            Op::TopK(_) => topk.clone(),
            Op::Round { batch, bounds } => {
                if let Err(e) = oracle::apply(oracle_engine, batch) {
                    eprintln!("op {i}: {e}");
                    bad += 1;
                    continue;
                }
                let routed = oracle::routed(&all, &leaves, Some(bounds));
                oracle::body(
                    &oracle::leaf_join(oracle_engine, &routed, Some(bounds), oracle::VERIFIED)
                        .pairs,
                )
            }
        };
        if let Some(body) = body {
            if *body != expected {
                eprintln!("op {i}: served answer differs from the engine's");
                bad += 1;
            }
        }
    }
    bad
}

/// Writes the live-durable history into `dir` through an in-process
/// durable coordinator: the same WAL the server recovers at set-up.
fn write_history(ctx: &Ctx) -> Result<(), String> {
    let engine = ShardedEngine::with_topology(TopologyConfig {
        shards: 1,
        data_dir: Some(ctx.history_dir()),
        ..TopologyConfig::default()
    })
    .map_err(|e| format!("history coordinator: {e}"))?;
    engine
        .load("q", ctx.q.clone(), IndexKind::Rtree)
        .and_then(|_| engine.load("p", ctx.p.clone(), IndexKind::Rtree))
        .map_err(|e| format!("history LOAD: {e}"))?;
    for batch in &ctx.history {
        engine
            .update("p", batch.clone())
            .map_err(|e| format!("history batch: {e}"))?;
    }
    engine.shutdown();
    Ok(())
}

/// End-to-end numbers of one pass over the timed ops.
pub struct EndToEnd {
    pub ops_per_s: f64,
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub tail_pct: f64,
    pub quarters_p50_ms: Vec<f64>,
}

impl EndToEnd {
    fn of(lat_ms: &[f64], wall_s: f64) -> EndToEnd {
        let sorted = stats::sorted(lat_ms);
        let (tail_ms, tail_pct) = stats::tail(&sorted);
        let quarter = lat_ms.len().div_ceil(4);
        EndToEnd {
            ops_per_s: lat_ms.len() as f64 / wall_s,
            p50_ms: stats::percentile(&sorted, 50.0),
            tail_ms,
            tail_pct,
            quarters_p50_ms: lat_ms.chunks(quarter).map(stats::median).collect(),
        }
    }
}

/// A finite rendering of a measured value (a failed op's infinite
/// latency becomes a huge finite one, so the JSON stays valid).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".to_string()
    }
}

fn metric_json(out: &mut String, metrics: &[(String, f64, &str)]) {
    out.push('{');
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    out.push('}');
}

fn run(args: &Args) -> Result<String, String> {
    let workload = args.workload;
    let (q, p) = workload::datasets();
    let points: Vec<Point> = q.iter().chain(&p).map(|it| it.point).collect();
    let warmup = workload.warmup_ops();
    let timed = workload.timed_ops(args.seconds);
    let ops = workload::ops(workload, args.seed, warmup + timed, &points);
    let history = match workload {
        Workload::LiveDurable => workload::history(args.seed, &points),
        _ => Vec::new(),
    };
    let scratch = Scratch::create(args.out_dir.join(format!(
        "run-{}-{}",
        workload.name(),
        std::process::id()
    )))?;
    let mut oracle_engine = oracle::engine(&q, &p);
    let dataset_pages: u64 = ["q", "p"]
        .iter()
        .map(|n| oracle_engine.dataset(n).expect("loaded").summary().pages)
        .sum();
    let ctx = Ctx {
        workload,
        seed: args.seed,
        q,
        p,
        ops,
        warmup,
        bin: args.server_bin.clone(),
        out_dir: args.out_dir.clone(),
        scratch,
        dataset_pages,
        pool_pages: (dataset_pages as usize).div_ceil(6),
        history,
    };
    if workload == Workload::LiveDurable {
        write_history(&ctx)?;
        for batch in &ctx.history {
            oracle::apply(&mut oracle_engine, batch)?;
        }
    }
    let full_body = match workload {
        Workload::FullAnswer => Some(oracle::body(&oracle::full_join(&oracle_engine))),
        _ => None,
    };

    // The first set-up serves the untraced timed pass; the others run
    // between its chunks, so the set-up median and the op latencies
    // sample the same stretch of time.
    let reps = workload.setup_reps();
    let (child, mut sess, t) = start_server(&ctx, "served")?;
    let mut setup_times = vec![t];
    let pass = drive(&ctx, &mut sess, full_body.as_deref(), reps, &mut || {
        setup_times.push(extra_setup(&ctx)?);
        Ok(())
    })?;
    let peak_rss_mb = child.peak_rss_mb()?;
    let mut failed = pass.failed;
    let mut attempted = ctx.ops.len();
    failed += post_check(&ctx, &pass.bodies, &mut oracle_engine);
    let mut end_ok = true;
    if workload == Workload::LiveDurable {
        // The served state after every round equals an engine that
        // replayed the identical history.
        let reply = sess.call(&join_request(None)).map_err(|e| e.to_string())?;
        end_ok = reply.body == oracle::body(&oracle::full_join(&oracle_engine));
        if !end_ok {
            eprintln!("final served join differs from the replayed-history engine");
        }
    }
    child.stop(&mut sess.client);
    let setup_s = stats::median(&setup_times);
    let e2e = EndToEnd::of(&pass.lat_ms, pass.wall_s);
    eprintln!(
        "{} seed {}: {} timed ops (+{} warm-up), p50 {:.3} ms, tail p{:.1} {:.3} ms over {} samples, \
         {:.2} ops/s, set-up median {:.4} s of {:?}, quarters p50 {:?}, {} dataset pages, pool {} pages",
        workload.name(),
        args.seed,
        pass.lat_ms.len(),
        ctx.warmup,
        e2e.p50_ms,
        e2e.tail_pct,
        e2e.tail_ms,
        pass.lat_ms.len(),
        e2e.ops_per_s,
        setup_s,
        setup_times,
        e2e.quarters_p50_ms,
        ctx.dataset_pages,
        ctx.pool_pages,
    );

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let traced = ladder::traced_pass(&ctx, &e2e, pass.wall_s)?;
        attempted += traced.attempted;
        failed += traced.failed;
        metrics = traced.metrics;
    } else {
        metrics.extend([
            ("setup_s".to_string(), setup_s, "s"),
            ("ops_per_s".to_string(), e2e.ops_per_s, "1/s"),
            ("p50_ms".to_string(), e2e.p50_ms, "ms"),
            ("tail_ms".to_string(), e2e.tail_ms, "ms"),
            ("peak_rss_mb".to_string(), peak_rss_mb, "MiB"),
        ]);
    }

    // Details the steadiness report reads: drift within the run and the
    // tail's percentile and sample count.
    let detail = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"timed_ops\": {}, \"warmup_ops\": {}, \
         \"tail_percentile\": {}, \"quarters_p50_ms\": [{}], \"setup_samples_s\": {:?}, \
         \"dataset_pages\": {}, \"pool_pages\": {}, \"history_batches\": {}, \"shards\": {}}}\n",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        pass.lat_ms.len(),
        ctx.warmup,
        e2e.tail_pct,
        e2e.quarters_p50_ms.iter().map(|&v| num(v)).collect::<Vec<_>>().join(", "),
        setup_times,
        ctx.dataset_pages,
        ctx.pool_pages,
        ctx.history.len(),
        workload.shards(),
    );
    let detail_path = args.out_dir.join(format!(
        "detail-{}-seed{}-trace{}.json",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&detail_path, detail)
        .map_err(|e| format!("cannot write {}: {e}", detail_path.display()))?;

    let correct = failed == 0 && end_ok;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": "
    );
    metric_json(&mut line, &metrics);
    line.push('}');
    Ok(line)
}
