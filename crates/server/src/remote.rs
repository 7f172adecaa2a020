//! Cross-process shard workers: the worker-side TCP server
//! ([`ShardWorkerServer`]) and the coordinator-side backends that
//! reach it — [`RemoteShard`] for a connection to a running worker,
//! [`SpawnedShard`] for a child process the coordinator launches (and
//! relaunches) itself.
//!
//! The worker speaks the shard grammar of [`proto`](crate::proto)
//! (`HELLO`/`SLOAD`/`SUPDATE`/`SJOIN`/`STOPK`/`SEXPLAIN`/`SHUTDOWN`)
//! over the same length-prefixed frames as the client protocol: a
//! worker process is the in-process worker thread behind the
//! [`ShardRequest`]/[`ShardReply`] codec. Join replies carry
//! **leaf-tagged** pairs: merge keys are global outer-leaf indices, so
//! the coordinator's deterministic merge — and with it byte-identity to
//! a local run — survives the process hop.
//!
//! Failure semantics: any socket-level failure (reset, EOF, deadline)
//! surfaces as [`ShardFault::Gone`] after bounded in-place reconnect
//! attempts, which makes the topology fail the query over to a sibling
//! replica and hand the slot to the supervisor. A worker-reported
//! `ERR` is [`ShardFault::Request`]: the worker is alive, the request
//! is wrong, and no failover would change the answer. Whole-request
//! retries are safe because every worker operation is idempotent —
//! `SLOAD` *replaces* a dataset the worker already holds, and
//! `SUPDATE` carries the epoch it must produce (a worker already at
//! the target epoch answers without re-applying) — which is also what
//! makes the supervisor's replay log idempotent.

use crate::proto::{
    bounded_reply, read_frame, read_frame_idle, write_frame, FrameRead, Reply, ShardReply,
    ShardRequest, MAX_FRAME,
};
use crate::sharded::LocalShard;
use crate::topology::{ShardBackend, ShardFault};
use crate::ServerError;
use ringjoin_geom::Rect;
use ringjoin_storage::BufferPool;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Idle-poll granularity of worker sessions (mirrors the coordinator
/// server's tick).
const IDLE_TICK: Duration = Duration::from_millis(100);

/// In-place reconnect attempts of [`RemoteShard`] before a request is
/// declared [`ShardFault::Gone`] and the slot fails over.
const RECONNECT_ATTEMPTS: u32 = 3;

/// Base backoff between reconnect attempts (doubled each retry).
const RECONNECT_BACKOFF: Duration = Duration::from_millis(25);

// ---------------------------------------------------------------------
// Worker side: the shard worker server
// ---------------------------------------------------------------------

/// Everything worker session threads share.
struct WorkerShared {
    /// The worker thread — the same backend the coordinator uses for
    /// in-process shards, behind TCP instead of a direct call. It
    /// answers one request at a time either way.
    worker: Mutex<LocalShard>,
    /// Fault injection: a killed worker stops replying and drops its
    /// sockets, exactly like a SIGKILLed process as seen from the
    /// coordinator.
    dead: AtomicBool,
    stop: AtomicBool,
    addr: SocketAddr,
}

/// A clonable control handle onto a running [`ShardWorkerServer`] —
/// the fault-injection hook of in-process wire tests.
#[derive(Clone)]
pub struct WorkerHandle {
    shared: Arc<WorkerShared>,
}

impl WorkerHandle {
    /// The worker's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Simulates a SIGKILL: the worker stops replying, drops every
    /// session socket without a farewell frame, and stops accepting.
    /// The coordinator observes exactly what a killed process looks
    /// like — a dead transport mid-request.
    pub fn kill(&self) {
        self.shared.dead.store(true, Ordering::SeqCst);
        self.shared.stop.store(true, Ordering::SeqCst);
        // Poke the accept loop awake so it observes the flag.
        let _ = TcpStream::connect(self.shared.addr);
    }
}

/// A shard worker process's serving half: one engine-owning worker
/// thread (identical to an in-process shard worker) behind a TCP
/// listener speaking the shard grammar. This is what
/// `ringjoin serve --shard-of <cell-spec>` runs.
pub struct ShardWorkerServer {
    listener: TcpListener,
    shared: Arc<WorkerShared>,
}

impl ShardWorkerServer {
    /// Binds the worker listener and starts its engine thread.
    /// `accepts` restricts which partition cells this worker will
    /// `SLOAD` (`None` = any); `buffer_pages` bounds its private
    /// buffer pool (`0` = effectively unbounded); every `SLOAD` spills
    /// to `page_file`, when set, which this worker alone reads and writes.
    pub fn bind(
        addr: &str,
        accepts: Option<Rect>,
        buffer_pages: usize,
        page_file: Option<PathBuf>,
    ) -> Result<ShardWorkerServer, ServerError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| ServerError::Io(format!("cannot bind {addr}: {e}")))?;
        let bound = listener
            .local_addr()
            .map_err(|e| ServerError::Io(format!("bound listener has no address: {e}")))?;
        let pool = BufferPool::new(if buffer_pages == 0 {
            usize::MAX / 2
        } else {
            buffer_pages
        });
        Ok(ShardWorkerServer {
            listener,
            shared: Arc::new(WorkerShared {
                worker: Mutex::new(LocalShard::spawn(pool, accepts, page_file)),
                dead: AtomicBool::new(false),
                stop: AtomicBool::new(false),
                addr: bound,
            }),
        })
    }

    /// The bound address (the actual port when `bind` asked for 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A control handle usable from other threads (fault injection,
    /// orderly remote stop).
    pub fn handle(&self) -> WorkerHandle {
        WorkerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves coordinator connections until `SHUTDOWN` (or
    /// [`WorkerHandle::kill`]), then drains the engine thread.
    pub fn serve(self) -> std::io::Result<()> {
        let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            let (stream, _peer) = self.listener.accept()?;
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            sessions.retain(|h| !h.is_finished());
            let shared = Arc::clone(&self.shared);
            sessions.push(std::thread::spawn(move || {
                let _ = serve_worker_session(stream, &shared);
            }));
        }
        for handle in sessions {
            let _ = handle.join();
        }
        self.shared
            .worker
            .lock()
            .expect("worker lock poisoned")
            .shutdown();
        Ok(())
    }
}

/// One coordinator connection: frames in, shard requests through the
/// engine thread, frames out. A killed worker drops the socket
/// without a reply.
fn serve_worker_session(mut stream: TcpStream, shared: &WorkerShared) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(IDLE_TICK))?;
    loop {
        if shared.stop.load(Ordering::SeqCst) || shared.dead.load(Ordering::SeqCst) {
            return Ok(());
        }
        let payload = match read_frame_idle(&mut stream)? {
            FrameRead::Eof => return Ok(()),
            FrameRead::Idle => continue,
            FrameRead::Frame(payload) => payload,
        };
        let (reply, stop) = match ShardRequest::parse(&payload) {
            Ok(req) => {
                let out = shared
                    .worker
                    .lock()
                    .expect("worker lock poisoned")
                    .request(&req);
                let reply = match out {
                    Ok(reply) => reply.encode(),
                    Err(fault) => Reply::encode_err(&fault.message()),
                };
                (reply, matches!(req, ShardRequest::Shutdown))
            }
            Err(e) => (Reply::encode_err(&e.to_string()), false),
        };
        // The kill switch may have flipped while the engine worked:
        // a dead worker never writes another byte.
        if shared.dead.load(Ordering::SeqCst) {
            return Ok(());
        }
        let (reply, _) = bounded_reply(None, reply, MAX_FRAME);
        write_frame(&mut stream, reply.as_bytes())?;
        if stop {
            shared.stop.store(true, Ordering::SeqCst);
            // Poke the accept loop awake.
            let _ = TcpStream::connect(shared.addr);
            return Ok(());
        }
    }
}

// ---------------------------------------------------------------------
// Coordinator side: the remote backend
// ---------------------------------------------------------------------

/// A [`ShardBackend`] over a TCP connection to a shard worker, with
/// per-request socket deadlines and bounded in-place reconnects. See
/// the module docs for the failure semantics.
pub(crate) struct RemoteShard {
    addr: String,
    stream: Option<TcpStream>,
    timeout: Duration,
}

impl RemoteShard {
    /// Connects and handshakes eagerly, so a topology construction (or
    /// respawn) fails fast on an unreachable or mis-roled address.
    pub(crate) fn connect(addr: &str, timeout: Duration) -> Result<RemoteShard, String> {
        let mut shard = RemoteShard {
            addr: addr.to_string(),
            stream: None,
            timeout,
        };
        shard.ensure_connected()?;
        Ok(shard)
    }

    /// (Re)establishes the connection, including the `HELLO` role
    /// handshake: connecting a coordinator to another coordinator (or
    /// anything else speaking the protocol) is a configuration error
    /// caught here, not a hang later.
    fn ensure_connected(&mut self) -> Result<(), String> {
        if self.stream.is_some() {
            return Ok(());
        }
        let mut stream = TcpStream::connect(&self.addr)
            .map_err(|e| format!("connecting to worker {}: {e}", self.addr))?;
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(self.timeout))
            .map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(self.timeout))
            .map_err(|e| e.to_string())?;
        Self::round_trip_on(&mut stream, &ShardRequest::Hello)
            .map_err(|f| format!("{}: {}", self.addr, f.message()))?;
        self.stream = Some(stream);
        Ok(())
    }

    /// One request/response exchange on an established stream: encode,
    /// frame, parse.
    fn round_trip_on(stream: &mut TcpStream, req: &ShardRequest) -> Result<ShardReply, ShardFault> {
        write_frame(stream, req.encode().as_bytes())
            .map_err(|e| ShardFault::Gone(format!("worker write failed: {e}")))?;
        let payload = read_frame(stream)
            .map_err(|e| ShardFault::Gone(format!("worker read failed: {e}")))?
            .ok_or_else(|| ShardFault::Gone("worker closed the connection".into()))?;
        ShardReply::parse(req, &payload).map_err(|e| ShardFault::Request(e.to_string()))
    }
}

impl ShardBackend for RemoteShard {
    /// Sends one request with bounded whole-request retries. Safe
    /// because every shard operation is idempotent (see module docs);
    /// a worker-reported `ERR` is never retried.
    fn request(&mut self, req: &ShardRequest) -> Result<ShardReply, ShardFault> {
        let mut last = String::new();
        for attempt in 0..RECONNECT_ATTEMPTS {
            if attempt > 0 {
                // Deterministic jitter (no RNG dependency) keeps
                // concurrent retries from stampeding in lockstep.
                let jitter = (attempt as u64 * 13) % 11;
                std::thread::sleep(
                    RECONNECT_BACKOFF * 2u32.saturating_pow(attempt - 1)
                        + Duration::from_millis(jitter),
                );
            }
            if let Err(e) = self.ensure_connected() {
                last = e;
                continue;
            }
            let stream = self.stream.as_mut().expect("just connected");
            match Self::round_trip_on(stream, req) {
                Err(ShardFault::Gone(msg)) => {
                    // Drop the stream; the next attempt reconnects.
                    self.stream = None;
                    last = msg;
                }
                outcome => return outcome,
            }
        }
        Err(ShardFault::Gone(last))
    }

    fn shutdown(&mut self) {
        // Best effort, no reconnect: a worker that is already gone
        // needs no farewell.
        if let Some(mut stream) = self.stream.take() {
            let _ = Self::round_trip_on(&mut stream, &ShardRequest::Shutdown);
        }
    }
}

// ---------------------------------------------------------------------
// Coordinator side: self-spawned worker processes
// ---------------------------------------------------------------------

/// Distinguishes concurrently launched workers' address files within
/// one coordinator process.
static SPAWN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// How long a spawned worker gets to bind and report its address.
const SPAWN_DEADLINE: Duration = Duration::from_secs(10);

/// How long an orderly `SHUTDOWN` gets before the child is killed.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(2);

/// A [`ShardBackend`] whose worker is a child process this
/// coordinator launched: `<program> serve --shard-of auto` on an
/// ephemeral loopback port, discovered through an address file, with
/// the slot's `--on-disk` file and `--buffer-pages` budget. The
/// topology's supervisor respawns by simply launching another child —
/// always on a fresh port, which sidesteps `TIME_WAIT` rebinding — and
/// its replay of the log rewrites the slot's page file.
pub(crate) struct SpawnedShard {
    child: std::process::Child,
    remote: RemoteShard,
}

impl SpawnedShard {
    /// Launches the worker — disk-native on `page_file` when set, with a
    /// pool of `buffer_pages` frames when nonzero — and connects to it.
    pub(crate) fn launch(
        program: &Path,
        timeout: Duration,
        page_file: Option<PathBuf>,
        buffer_pages: usize,
    ) -> Result<SpawnedShard, String> {
        let addr_file = std::env::temp_dir().join(format!(
            "ringjoin-worker-{}-{}.addr",
            std::process::id(),
            SPAWN_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&addr_file);
        let mut command = std::process::Command::new(program);
        command.args([
            "serve",
            "--shard-of",
            "auto",
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
        ]);
        command.arg(&addr_file);
        if let Some(path) = page_file {
            command.arg("--on-disk").arg(path);
        }
        if buffer_pages > 0 {
            command.args(["--buffer-pages", &buffer_pages.to_string()]);
        }
        let mut child = command
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning worker {}: {e}", program.display()))?;
        let addr = match Self::await_addr(&addr_file, &mut child) {
            Ok(addr) => addr,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = std::fs::remove_file(&addr_file);
                return Err(e);
            }
        };
        let _ = std::fs::remove_file(&addr_file);
        let remote = match RemoteShard::connect(&addr, timeout) {
            Ok(remote) => remote,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        Ok(SpawnedShard { child, remote })
    }

    /// Polls the address file (newline-terminated by the worker once
    /// it is bound and serving) while watching for early child death.
    fn await_addr(addr_file: &Path, child: &mut std::process::Child) -> Result<String, String> {
        let deadline = Instant::now() + SPAWN_DEADLINE;
        loop {
            if let Ok(contents) = std::fs::read_to_string(addr_file) {
                if let Some(addr) = contents.strip_suffix('\n') {
                    return Ok(addr.trim().to_string());
                }
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("worker exited during startup: {status}"));
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "worker never reported its address to {}",
                    addr_file.display()
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl ShardBackend for SpawnedShard {
    fn request(&mut self, req: &ShardRequest) -> Result<ShardReply, ShardFault> {
        self.remote.request(req)
    }

    fn shutdown(&mut self) {
        self.remote.shutdown();
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn pid(&self) -> Option<u32> {
        Some(self.child.id())
    }
}

impl Drop for SpawnedShard {
    fn drop(&mut self) {
        // A dropped backend (failover path) must not leak a child.
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringjoin_core::{IndexKind, RcjAlgorithm, RingBounds};
    use ringjoin_geom::{pt, Item};

    fn items(n: usize, seed: u64, span: f64) -> Arc<Vec<Item>> {
        Arc::new(
            ringjoin_testsupport::lcg_points(n, seed, span)
                .into_iter()
                .enumerate()
                .map(|(i, (x, y))| Item::new(i as u64, pt(x, y)))
                .collect(),
        )
    }

    fn load(cell: Rect, items: Arc<Vec<Item>>) -> ShardRequest {
        ShardRequest::Load {
            name: "d".into(),
            kind: IndexKind::Rtree,
            cell,
            items,
        }
    }

    /// Binds a worker on an ephemeral port, serving on its own thread.
    fn start_worker() -> (WorkerHandle, String) {
        let server = ShardWorkerServer::bind("127.0.0.1:0", None, 0, None).unwrap();
        let handle = server.handle();
        let addr = server.local_addr().to_string();
        std::thread::spawn(move || {
            let _ = server.serve();
        });
        (handle, addr)
    }

    #[test]
    fn remote_worker_round_trips_load_join_topk_explain() {
        let (_handle, addr) = start_worker();
        let mut shard = RemoteShard::connect(&addr, Duration::from_secs(10)).unwrap();
        let everything = Rect::new(
            pt(f64::NEG_INFINITY, f64::NEG_INFINITY),
            pt(f64::INFINITY, f64::INFINITY),
        );
        let Ok(ShardReply::Indexed(out)) = shard.request(&load(everything, items(150, 3, 800.0)))
        else {
            panic!("load did not index");
        };
        assert!(out.leaves > 0);

        let join = ShardRequest::Join {
            outer: "d".into(),
            inner: None,
            algo: RcjAlgorithm::Auto,
            bounds: None,
        };
        let Ok(ShardReply::Joined { pairs, stats }) = shard.request(&join) else {
            panic!("join did not answer with tagged pairs");
        };
        assert_eq!(stats.result_pairs as usize, pairs.len());
        // Tagged rows arrive in leaf order, ready for the global merge.
        assert!(pairs.windows(2).all(|w| w[0].0 <= w[1].0));

        let top = ShardRequest::TopK {
            outer: "d".into(),
            inner: None,
            k: 5,
        };
        let Ok(ShardReply::Ranked { pairs, .. }) = shard.request(&top) else {
            panic!("top-k did not answer with ranked pairs");
        };
        assert!(pairs.len() <= 5);

        let explain = ShardRequest::Explain {
            outer: "d".into(),
            inner: None,
            algo: RcjAlgorithm::Auto,
            k: None,
        };
        let Ok(ShardReply::Plan(plan)) = shard.request(&explain) else {
            panic!("explain did not answer with a plan");
        };
        assert!(plan.contains("self-join"), "{plan}");
        shard.shutdown();
    }

    #[test]
    fn worker_answers_an_invalid_window_with_err_and_keeps_serving() {
        let (_handle, addr) = start_worker();
        let mut shard = RemoteShard::connect(&addr, Duration::from_secs(10)).unwrap();
        let everything = Rect::new(
            pt(f64::NEG_INFINITY, f64::NEG_INFINITY),
            pt(f64::INFINITY, f64::INFINITY),
        );
        assert!(shard
            .request(&load(everything, items(60, 7, 300.0)))
            .is_ok());
        // `SJOIN d bounds=0,0,100,100 maxd=-1`, sent straight to the
        // worker: no coordinator validated it first.
        let join = |max_diameter| ShardRequest::Join {
            outer: "d".into(),
            inner: None,
            algo: RcjAlgorithm::Auto,
            bounds: Some(RingBounds {
                bounds: Rect::new(pt(0.0, 0.0), pt(100.0, 100.0)),
                max_diameter,
            }),
        };
        let err = shard.request(&join(-1.0));
        assert!(
            matches!(&err, Err(ShardFault::Request(msg)) if msg.contains("maxd")),
            "{err:?}"
        );
        assert!(matches!(
            shard.request(&join(40.0)),
            Ok(ShardReply::Joined { .. })
        ));
        shard.shutdown();
    }

    #[test]
    fn worker_rejects_loads_outside_its_cell_and_wrong_roles_fail_fast() {
        let accepts = Rect::new(pt(0.0, 0.0), pt(100.0, 100.0));
        let server = ShardWorkerServer::bind("127.0.0.1:0", Some(accepts), 0, None).unwrap();
        let addr = server.local_addr().to_string();
        let handle = server.handle();
        std::thread::spawn(move || {
            let _ = server.serve();
        });
        let mut shard = RemoteShard::connect(&addr, Duration::from_secs(10)).unwrap();
        let far = Rect::new(pt(500.0, 500.0), pt(600.0, 600.0));
        let err = shard.request(&load(far, items(10, 5, 50.0)));
        assert!(matches!(err, Err(ShardFault::Request(_))));
        handle.kill();
    }

    #[test]
    fn a_worker_that_cannot_spill_answers_err_naming_the_file_and_keeps_serving() {
        let missing = std::env::temp_dir()
            .join(format!("ringjoin-no-such-dir-{}", std::process::id()))
            .join("pages.rjp");
        let server =
            ShardWorkerServer::bind("127.0.0.1:0", None, 0, Some(missing.clone())).unwrap();
        let addr = server.local_addr().to_string();
        let handle = server.handle();
        std::thread::spawn(move || {
            let _ = server.serve();
        });
        let mut shard = RemoteShard::connect(&addr, Duration::from_secs(10)).unwrap();
        let everything = Rect::new(
            pt(f64::NEG_INFINITY, f64::NEG_INFINITY),
            pt(f64::INFINITY, f64::INFINITY),
        );
        let path = missing.display().to_string();
        for _ in 0..2 {
            let err = shard.request(&load(everything, items(60, 7, 300.0)));
            assert!(
                matches!(&err, Err(ShardFault::Request(msg)) if msg.contains(&path)),
                "{err:?}"
            );
        }
        assert!(matches!(
            shard.request(&ShardRequest::Hello),
            Ok(ShardReply::Hello { .. })
        ));
        handle.kill();
    }

    #[test]
    fn killed_worker_surfaces_gone_after_bounded_retries() {
        let (handle, addr) = start_worker();
        let mut shard = RemoteShard::connect(&addr, Duration::from_secs(2)).unwrap();
        handle.kill();
        let err = shard.request(&ShardRequest::Explain {
            outer: "d".into(),
            inner: None,
            algo: RcjAlgorithm::Auto,
            k: None,
        });
        assert!(matches!(err, Err(ShardFault::Gone(_))), "want Gone");
    }
}
