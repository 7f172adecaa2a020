//! The process-lifetime half of serving: a TCP listener translating
//! wire-protocol frames into engine calls, one session thread per
//! connection. One loop serves both roles: a coordinator answers the
//! client grammar from the [`ShardedEngine`] it was bound to
//! ([`Server::bind`]), and a shard worker (`serve --shard-of auto`,
//! [`Server::bind_worker`]) answers the shard grammar through its
//! worker thread, with the same request-id echo, reply bound, idle tick
//! and shutdown order.
//!
//! # Concurrency model
//!
//! The listener accepts up to [`ServerConfig::max_sessions`] concurrent
//! connections; each gets its own session thread reading frames in
//! order (so clients can pipeline) against the one shared engine.
//! Connections beyond the limit are not queued blind — they get an
//! `ERR busy` frame with a retry hint and are closed. Below the
//! sessions sits the admission gate: at most one engine-bound request
//! per shard runs at once, `queue_depth` more wait, and the rest are
//! bounced with the same `ERR busy` shape. Memory is bounded by
//! construction at both layers — overload sheds load, it never
//! accumulates it.
//!
//! A request can never take the process down: every failure — protocol,
//! catalog, validation, overload, a reply too large for one frame — is
//! returned to the client as an `ERR` frame and the serving loop
//! continues; only `SHUTDOWN` ends it.
//! The shutdown decision is acted on *before* the ack write, so a
//! client that dies right after sending `SHUTDOWN` still stops the
//! server.

use crate::admission::Admission;
use crate::proto::{
    bounded_reply, encode_pairs, encode_stats_fields, read_frame_idle, split_request_id,
    write_frame, FrameRead, Reply, Request, ShardRequest, MAX_FRAME,
};
use crate::sharded::{buffer_pool, LocalShard, ShardedEngine, ShardedOutput, UpdateInfo};
use crate::topology::ShardBackend;
use crate::ServerError;
use ringjoin_core::Mutation;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long a session blocks in `read` before checking the shutdown
/// flag (the poll granularity of an idle connection).
const IDLE_TICK: Duration = Duration::from_millis(100);

/// The retry hint attached to `ERR busy` rejections.
const RETRY_AFTER_MS: u64 = 50;

/// The listener's own settings. What it serves, and where the shard
/// workers live, is the [`ShardedEngine`] handed to [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:4815` (port `0` picks an
    /// ephemeral port — query it with [`Server::local_addr`]).
    pub addr: String,
    /// Concurrent client sessions accepted (must be at least 1);
    /// further connections are rejected with `ERR busy`.
    pub max_sessions: usize,
    /// Engine-bound requests that may *wait* for an admission slot
    /// before the server starts shedding load with `ERR busy`.
    pub queue_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:4815".to_string(),
            max_sessions: 16,
            queue_depth: 32,
        }
    }
}

/// A bound, ready-to-serve RCJ server: the TCP listener plus the
/// sharded engine behind it, or a shard worker's thread. Construct with
/// [`Server::bind`] or [`Server::bind_worker`], run with
/// [`Server::serve`] (blocking until a `SHUTDOWN` request).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// What a server answers, and from what.
enum Role {
    /// The client grammar, from a sharded engine behind the admission
    /// gate.
    Coordinator(ShardedEngine, Admission),
    /// The shard grammar, through one engine-owning worker thread (the
    /// backend of an in-process shard), which answers one request at a
    /// time.
    Worker(Mutex<LocalShard>),
}

/// Everything the session threads share.
struct Shared {
    role: Role,
    max_sessions: usize,
    /// Live session count (incremented at accept, decremented when the
    /// session thread finishes).
    sessions: AtomicUsize,
    sessions_total: AtomicU64,
    /// Requests answered `OK` / answered `ERR` (unparseable frames land
    /// in the error bucket, not in the success count).
    requests_ok: AtomicU64,
    requests_err: AtomicU64,
    /// Connections turned away at the session limit.
    rejected_sessions: AtomicU64,
    shutdown: AtomicBool,
    /// Set by [`ServerHandle::kill`]: sessions drop their sockets
    /// without writing another byte.
    killed: AtomicBool,
    addr: SocketAddr,
}

impl Shared {
    /// Flips the shutdown flag and pokes the listener awake so the
    /// accept loop observes it. Runs *before* any ack is written: the
    /// decision to stop must survive a client that vanishes mid-ack.
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// Decrements the live-session gauge even if the session errors out.
struct SessionGuard(Arc<Shared>);

impl Drop for SessionGuard {
    fn drop(&mut self) {
        self.0.sessions.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What handling one request decided: the request id, the response
/// payload, whether the server should stop after sending it, and
/// whether it counts as a success.
struct Handled {
    id: Option<u64>,
    payload: String,
    shutdown: bool,
    ok: bool,
}

impl Handled {
    fn err(id: Option<u64>, e: &ServerError) -> Handled {
        Handled {
            id,
            payload: Reply::encode_err_id(id, &e.to_string()),
            shutdown: false,
            ok: false,
        }
    }
}

impl Server {
    /// Validates the session limit (at least 1) and binds the listener
    /// in front of `engine`, whose shard count sizes the admission gate.
    /// Building the engine ([`ShardedEngine::with_topology`]) replayed
    /// any durable log, so no session sees a half-recovered catalog.
    pub fn bind(config: &ServerConfig, engine: ShardedEngine) -> Result<Server, ServerError> {
        if config.max_sessions == 0 {
            return Err(ServerError::BadRequest(
                "max_sessions must be at least 1 (got 0)".into(),
            ));
        }
        let admission = Admission::new(engine.shard_count(), config.queue_depth);
        let role = Role::Coordinator(engine, admission);
        Self::listen(&config.addr, role, config.max_sessions)
    }

    /// Binds a shard worker, what `serve --shard-of auto` runs: one
    /// engine-owning worker thread (identical to an in-process shard)
    /// answering the shard grammar, with no session limit.
    /// `buffer_pages` bounds its private buffer pool (`0` = effectively
    /// unbounded); every `SLOAD` spills to `page_file`, when set, which
    /// this worker alone reads and writes.
    pub fn bind_worker(
        addr: &str,
        buffer_pages: usize,
        page_file: Option<PathBuf>,
    ) -> Result<Server, ServerError> {
        let worker = LocalShard::spawn(buffer_pool(buffer_pages), page_file);
        Self::listen(addr, Role::Worker(Mutex::new(worker)), usize::MAX)
    }

    /// Binds the listener in front of `role`.
    fn listen(addr: &str, role: Role, max_sessions: usize) -> Result<Server, ServerError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| ServerError::Io(format!("cannot bind {addr}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServerError::Io(format!("bound listener has no address: {e}")))?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                role,
                max_sessions,
                sessions: AtomicUsize::new(0),
                sessions_total: AtomicU64::new(0),
                requests_ok: AtomicU64::new(0),
                requests_err: AtomicU64::new(0),
                rejected_sessions: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                killed: AtomicBool::new(false),
                addr,
            }),
        })
    }

    /// The bound address (the actual port when the config asked for 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A control handle usable from other threads: the fault-injection
    /// hook of in-process wire tests.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves connections until a `SHUTDOWN` request (or
    /// [`ServerHandle::kill`]): each accepted connection gets a session
    /// thread, up to the session limit — beyond it, connections receive
    /// `ERR busy` and are closed. On shutdown the listener stops
    /// accepting, live sessions are joined (they observe the flag
    /// within one idle tick), and the shard workers drain. A
    /// per-connection I/O error drops that connection and the loop
    /// continues; only a failing `accept` (the listener itself is
    /// broken) is fatal.
    pub fn serve(self) -> std::io::Result<()> {
        let Server { listener, shared } = self;
        let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            let (stream, _peer) = listener.accept()?;
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            sessions.retain(|h| !h.is_finished());
            if shared.sessions.load(Ordering::SeqCst) >= shared.max_sessions {
                shared.rejected_sessions.fetch_add(1, Ordering::Relaxed);
                let mut stream = stream;
                let reject = Reply::encode_busy(
                    None,
                    RETRY_AFTER_MS,
                    &format!("session limit {} reached", shared.max_sessions),
                );
                let _ = write_frame(&mut stream, reject.as_bytes());
                continue;
            }
            shared.sessions.fetch_add(1, Ordering::SeqCst);
            shared.sessions_total.fetch_add(1, Ordering::Relaxed);
            let session_shared = Arc::clone(&shared);
            sessions.push(std::thread::spawn(move || {
                let guard = SessionGuard(session_shared);
                if let Err(e) = serve_session(stream, &guard.0) {
                    eprintln!("ringjoin-server: connection error: {e}");
                }
            }));
        }
        for handle in sessions {
            let _ = handle.join();
        }
        // A handle may outlive the loop; the worker thread does not.
        if let Role::Worker(worker) = &shared.role {
            worker.lock().expect("worker lock poisoned").shutdown();
        }
        Ok(())
    }
}

/// A clonable control handle onto a running [`Server`] — the
/// fault-injection hook of in-process wire tests.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Simulates a SIGKILL: the server stops replying, drops every
    /// session socket without a farewell frame, and stops accepting.
    /// A peer observes exactly what a killed process looks like — a
    /// dead transport mid-request.
    pub fn kill(&self) {
        self.shared.killed.store(true, Ordering::SeqCst);
        self.shared.begin_shutdown();
    }
}

/// One session: frames in order until EOF, a fatal I/O error, or
/// shutdown (ours or another session's, observed within an idle tick).
fn serve_session(mut stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(IDLE_TICK))?;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let payload = match read_frame_idle(&mut stream)? {
            FrameRead::Eof => return Ok(()),
            FrameRead::Idle => continue,
            FrameRead::Frame(payload) => payload,
        };
        let handled = handle_payload(&payload, shared);
        // A killed server never writes another byte, not even the
        // answer it was computing when the kill came.
        if shared.killed.load(Ordering::SeqCst) {
            return Ok(());
        }
        let (reply, fits) = bounded_reply(handled.id, handled.payload, MAX_FRAME);
        if handled.ok && fits {
            shared.requests_ok.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.requests_err.fetch_add(1, Ordering::Relaxed);
        }
        if handled.shutdown {
            // Commit to stopping *before* the ack write: if the client
            // is already gone, the decision must not be lost with it.
            shared.begin_shutdown();
            let _ = write_frame(&mut stream, reply.as_bytes());
            return Ok(());
        }
        write_frame(&mut stream, reply.as_bytes())?;
    }
}

/// Splits the request id, parses the command, passes the admission
/// gate (engine-bound work only) and dispatches; a worker hands the
/// shard request to its worker thread. Every failure becomes an `ERR`
/// payload carrying the request id when one was given.
fn handle_payload(payload: &str, shared: &Shared) -> Handled {
    let (id, body) = match split_request_id(payload) {
        Ok(split) => split,
        Err(e) => return Handled::err(None, &e),
    };
    let (engine, admission) = match &shared.role {
        Role::Coordinator(engine, admission) => (engine, admission),
        Role::Worker(worker) => return answer_shard(id, body, worker),
    };
    let req = match Request::parse(body) {
        Ok(req) => req,
        Err(e) => return Handled::err(id, &e),
    };
    // STATS and SHUTDOWN never touch the shard workers and must stay
    // answerable on an overloaded server; everything else takes an
    // admission permit (released when the dispatch returns).
    let _permit = match req {
        Request::Hello | Request::Stats | Request::Shutdown => None,
        _ => match admission.admit() {
            Ok(permit) => Some(permit),
            Err(_) => {
                return Handled {
                    id,
                    payload: Reply::encode_busy(id, RETRY_AFTER_MS, "admission queue full"),
                    shutdown: false,
                    ok: false,
                }
            }
        },
    };
    dispatch(req, id, engine, admission, shared)
}

/// A worker's answer to one shard request, from its worker thread. A
/// refusal, or a worker thread that is gone, is an `ERR`.
fn answer_shard(id: Option<u64>, body: &str, worker: &Mutex<LocalShard>) -> Handled {
    let req = match ShardRequest::parse(body) {
        Ok(req) => req,
        Err(e) => return Handled::err(id, &e),
    };
    let out = worker.lock().expect("worker lock poisoned").request(&req);
    Handled {
        id,
        shutdown: matches!(req, ShardRequest::Shutdown),
        ok: out.is_ok(),
        payload: match out {
            Ok(reply) => reply.encode(id),
            Err(fault) => Reply::encode_err_id(id, &fault.message()),
        },
    }
}

/// Dispatches one parsed request against the sharded engine. Every
/// error becomes an `ERR` payload — the serving process never panics on
/// a request.
fn dispatch(
    req: Request,
    id: Option<u64>,
    engine: &ShardedEngine,
    admission: &Admission,
    shared: &Shared,
) -> Handled {
    let result: Result<(String, bool), ServerError> = match req {
        Request::Load { name, kind, items } => engine.load(&name, items, kind).map(|info| {
            (
                Reply::encode_ok(
                    id,
                    &[
                        ("dataset", info.name.clone()),
                        ("kind", info.kind.name().to_string()),
                        ("items", info.items.to_string()),
                        ("shards", engine.shard_count().to_string()),
                    ],
                    "",
                ),
                false,
            )
        }),
        Request::Insert { name, items } => {
            let ops = items.into_iter().map(Mutation::Insert).collect();
            engine
                .update(&name, ops)
                .map(|info| (update_reply(id, &info), false))
        }
        Request::Delete { name, ids } => {
            let ops = ids.into_iter().map(Mutation::Delete).collect();
            engine
                .update(&name, ops)
                .map(|info| (update_reply(id, &info), false))
        }
        Request::Upsert { name, items } => {
            let ops = items.into_iter().map(Mutation::Upsert).collect();
            engine
                .update(&name, ops)
                .map(|info| (update_reply(id, &info), false))
        }
        Request::Join {
            outer,
            inner,
            algo,
            bounds,
        } => engine
            .join(&outer, &inner, algo, bounds)
            .map(|out| (join_reply(id, &out), false)),
        Request::SelfJoin {
            dataset,
            algo,
            bounds,
        } => engine
            .self_join(&dataset, algo, bounds)
            .map(|out| (join_reply(id, &out), false)),
        Request::TopK { outer, inner, k } => engine
            .top_k(&outer, &inner, k)
            .map(|out| (join_reply(id, &out), false)),
        Request::Explain {
            outer,
            inner,
            algo,
            k,
        } => engine
            .explain(&outer, inner.as_deref(), algo, k)
            .map(|text| (Reply::encode_ok(id, &[], &text), false)),
        Request::Hello => Ok((
            Reply::encode_ok(
                id,
                &[
                    ("role", "coordinator".to_string()),
                    ("shards", engine.shard_count().to_string()),
                    ("replicas", engine.replicas().to_string()),
                ],
                "",
            ),
            false,
        )),
        Request::Stats => Ok((stats_reply(id, engine, admission, shared), false)),
        Request::Shutdown => Ok((Reply::encode_ok(id, &[("bye", "1".to_string())], ""), true)),
    };
    match result {
        Ok((payload, shutdown)) => Handled {
            id,
            payload,
            shutdown,
            ok: true,
        },
        Err(e) => Handled::err(id, &e),
    }
}

/// The `STATS` body: shard count, session and request counters (split
/// into `requests_ok`/`requests_err`; the counters exclude the `STATS`
/// request reporting them), admission counters, the shared buffer
/// pool's lifetime hit/fault counters (cache behavior on the wire), and
/// one line per loaded dataset.
fn stats_reply(
    id: Option<u64>,
    engine: &ShardedEngine,
    admission: &Admission,
    shared: &Shared,
) -> String {
    let mut body = String::new();
    for name in engine.dataset_names() {
        let info = engine.dataset(&name).expect("catalog name listed");
        body.push_str(&format!(
            "dataset {name} kind={} items={} epoch={} leaves_per_shard={:?} items_per_shard={:?}\n",
            info.kind.name(),
            info.items,
            info.epoch,
            info.leaves_per_shard,
            info.items_per_shard,
        ));
    }
    let (pool_hits, pool_faults, pool_prefetch_hits, pool_hit_rate) = engine.pool_stats();
    let (admitted, rejected_busy) = admission.stats();
    let (wal_records, wal_bytes) = engine.wal_stats();
    // Per-slot health rows (flat cell-major slot index, matching the
    // topology's routing order) keep a degraded topology observable.
    let health = engine.shard_health();
    for (i, (state, requests)) in health.iter().enumerate() {
        body.push_str(&format!(
            "shard{i}_state={state} shard{i}_requests={requests}\n"
        ));
    }
    Reply::encode_ok(
        id,
        &[
            ("shards", engine.shard_count().to_string()),
            ("replicas", engine.replicas().to_string()),
            ("replays_total", engine.replays_total().to_string()),
            ("updates_total", engine.updates_total().to_string()),
            ("wal_records", wal_records.to_string()),
            ("wal_bytes", wal_bytes.to_string()),
            ("recovered_epochs", engine.recovered_epochs().to_string()),
            ("recovery_ms", format!("{:.3}", engine.recovery_ms())),
            (
                "shards_up",
                health
                    .iter()
                    .filter(|(state, _)| *state == "up")
                    .count()
                    .to_string(),
            ),
            ("datasets", engine.dataset_names().len().to_string()),
            (
                "sessions",
                shared.sessions.load(Ordering::SeqCst).to_string(),
            ),
            (
                "sessions_total",
                shared.sessions_total.load(Ordering::Relaxed).to_string(),
            ),
            ("max_sessions", shared.max_sessions.to_string()),
            (
                "requests_ok",
                shared.requests_ok.load(Ordering::Relaxed).to_string(),
            ),
            (
                "requests_err",
                shared.requests_err.load(Ordering::Relaxed).to_string(),
            ),
            (
                "rejected_sessions",
                shared.rejected_sessions.load(Ordering::Relaxed).to_string(),
            ),
            ("admitted", admitted.to_string()),
            ("rejected_busy", rejected_busy.to_string()),
            ("pool_hits", pool_hits.to_string()),
            ("pool_faults", pool_faults.to_string()),
            ("pool_prefetch_hits", pool_prefetch_hits.to_string()),
            ("pool_hit_rate", format!("{pool_hit_rate:.4}")),
        ],
        &body,
    )
}

/// The shared reply shape of `INSERT`/`DELETE`/`UPSERT`: the dataset's
/// new epoch and size on the status line, no body.
fn update_reply(id: Option<u64>, info: &UpdateInfo) -> String {
    Reply::encode_ok(
        id,
        &[
            ("dataset", info.name.clone()),
            ("epoch", info.epoch.to_string()),
            ("applied", info.applied.to_string()),
            ("items", info.items.to_string()),
        ],
        "",
    )
}

/// The shared reply shape of `JOIN`/`SELFJOIN`/`TOPK`: run counters on
/// the status line, pair rows in the body.
fn join_reply(id: Option<u64>, out: &ShardedOutput) -> String {
    let mut fields = vec![
        ("pairs", out.pairs.len().to_string()),
        ("shards_queried", out.shards_queried.to_string()),
    ];
    fields.extend(encode_stats_fields(&out.stats));
    Reply::encode_ok(id, &fields, &encode_pairs(&out.pairs))
}
