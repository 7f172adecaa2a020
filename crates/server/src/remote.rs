//! The coordinator-side backends that reach shard worker processes:
//! [`RemoteShard`] for a connection to a running worker,
//! [`SpawnedShard`] for a child process the coordinator launches (and
//! relaunches) itself.
//!
//! A worker process is a [`Server`](crate::Server) bound with
//! [`Server::bind_worker`](crate::Server::bind_worker): the coordinator's
//! own session loop in front of the in-process worker thread, answering
//! the shard grammar of [`proto`](crate::proto)
//! (`HELLO`/`SLOAD`/`SUPDATE`/`SJOIN`/`STOPK`/`SEXPLAIN`/`SHUTDOWN`)
//! over the same length-prefixed frames, with the same `#<id>` echo and
//! reply bound. Join replies carry **leaf-tagged** pairs: merge keys
//! are global outer-leaf indices, so the coordinator's deterministic
//! merge — and with it byte-identity to a local run — survives the
//! process hop.
//!
//! Failure semantics: a [`RemoteShard`] is a [`Client`] whose socket
//! deadline is [`REQUEST_TIMEOUT`], and each request goes through the
//! client's retry loop: a lost connection reconnects and resends,
//! [`ATTEMPTS`] attempts in all. A worker-reported `ERR` is
//! [`ShardFault::Request`]: the worker is alive, the request is wrong,
//! and no failover would change the answer. Anything else is
//! [`ShardFault::Gone`] — a connection still lost after the last
//! attempt, or a request that hit its deadline, which is not re-sent to
//! the same busy worker — and makes the topology fail the query over to
//! a sibling replica and hand the slot to the supervisor. Whole-request
//! retries are safe because every worker operation is idempotent —
//! `SLOAD` *replaces* a dataset the worker already holds, and `SUPDATE`
//! carries the epoch it must produce (a worker already at the target
//! epoch answers without re-applying) — which is also what makes the
//! supervisor's replay log idempotent.

use crate::proto::{ShardReply, ShardRequest};
use crate::topology::{ShardBackend, ShardFault};
use crate::{Client, ServerError};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Attempts [`RemoteShard`] gives one request, reconnecting between
/// them, before it is [`ShardFault::Gone`] and the slot fails over.
const ATTEMPTS: u32 = 3;

/// The socket deadline of one worker request: a request past it fails
/// over to a sibling replica.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// A [`ShardBackend`] over a [`Client`] connection to a shard worker,
/// with [`REQUEST_TIMEOUT`] as its socket deadline. See the module docs
/// for the failure semantics.
pub(crate) struct RemoteShard {
    client: Client,
}

impl RemoteShard {
    /// Connects and handshakes eagerly, so a topology construction (or
    /// respawn) fails fast on an unreachable or mis-roled address:
    /// connecting a coordinator to another coordinator (or anything else
    /// speaking the protocol) is a configuration error caught here, not
    /// a hang later.
    pub(crate) fn connect(addr: &str) -> Result<RemoteShard, String> {
        let mut client = Client::connect_with_timeout(addr, Some(REQUEST_TIMEOUT))
            .map_err(|e| format!("connecting to worker {addr}: {e}"))?;
        let hello = ShardRequest::Hello;
        client
            .request_payload(&hello.encode(), 1)
            .and_then(|reply| ShardReply::from_reply(&hello, reply))
            .map_err(|e| format!("{addr}: {e}"))?;
        Ok(RemoteShard { client })
    }
}

impl ShardBackend for RemoteShard {
    /// Sends one request through the client's retry loop (see the
    /// module docs); a worker-reported `ERR` is never retried.
    fn request(&mut self, req: &ShardRequest) -> Result<ShardReply, ShardFault> {
        match self.client.request_payload(&req.encode(), ATTEMPTS) {
            Ok(reply) => {
                ShardReply::from_reply(req, reply).map_err(|e| ShardFault::Request(e.to_string()))
            }
            Err(e @ ServerError::Remote(_)) => Err(ShardFault::Request(e.to_string())),
            Err(e) => Err(ShardFault::Gone(e.to_string())),
        }
    }

    fn shutdown(&mut self) {
        // Best effort, one attempt: a worker that is already gone needs
        // no farewell.
        let _ = self
            .client
            .request_payload(&ShardRequest::Shutdown.encode(), 1);
    }
}

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
        let remote =
            Self::await_addr(&addr_file, &mut child).and_then(|addr| RemoteShard::connect(&addr));
        let _ = std::fs::remove_file(&addr_file);
        match remote {
            Ok(remote) => Ok(SpawnedShard { child, remote }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
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

    /// Asks the worker to stop and gives it the grace to exit; a child
    /// still running after it is killed when the backend drops.
    fn shutdown(&mut self) {
        self.remote.shutdown();
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        while Instant::now() < deadline && !matches!(self.child.try_wait(), Ok(Some(_))) {
            std::thread::sleep(Duration::from_millis(20));
        }
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
    use crate::{Server, ServerConfig, ServerHandle, ShardedEngine, TopologyConfig, WorkerSpec};
    use ringjoin_core::{IndexKind, RcjAlgorithm, RingBounds};
    use ringjoin_geom::{pt, Item, Rect};
    use std::sync::Arc;

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
    fn start_worker() -> (ServerHandle, String) {
        let server = Server::bind_worker("127.0.0.1:0", 0, None).unwrap();
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
        let mut shard = RemoteShard::connect(&addr).unwrap();
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
        let mut shard = RemoteShard::connect(&addr).unwrap();
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
    fn wrong_roles_fail_fast() {
        // A coordinator listed as a worker: its `HELLO` answers
        // `role=coordinator`, so the topology is refused at
        // construction, before any dataset reaches it.
        let coordinator = Server::bind(
            &ServerConfig {
                addr: "127.0.0.1:0".into(),
                ..ServerConfig::default()
            },
            ShardedEngine::new(1).unwrap(),
        )
        .unwrap();
        let addr = coordinator.local_addr().to_string();
        let handle = coordinator.handle();
        std::thread::spawn(move || {
            let _ = coordinator.serve();
        });
        let err = ShardedEngine::with_topology(TopologyConfig {
            workers: WorkerSpec::Remote(vec![addr]),
            ..TopologyConfig::default()
        })
        .err()
        .map(|e| e.to_string());
        assert!(
            err.as_deref()
                .is_some_and(|e| e.contains("role=coordinator")),
            "{err:?}"
        );
        handle.kill();
    }

    #[test]
    fn a_worker_that_cannot_spill_answers_err_naming_the_file_and_keeps_serving() {
        let missing = std::env::temp_dir()
            .join(format!("ringjoin-no-such-dir-{}", std::process::id()))
            .join("pages.rjp");
        let server = Server::bind_worker("127.0.0.1:0", 0, Some(missing.clone())).unwrap();
        let addr = server.local_addr().to_string();
        let handle = server.handle();
        std::thread::spawn(move || {
            let _ = server.serve();
        });
        let mut shard = RemoteShard::connect(&addr).unwrap();
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
            Ok(ShardReply::Hello)
        ));
        handle.kill();
    }

    #[test]
    fn killed_worker_surfaces_gone_after_bounded_retries() {
        let (handle, addr) = start_worker();
        let mut shard = RemoteShard::connect(&addr).unwrap();
        handle.kill();
        let err = shard.request(&ShardRequest::Explain {
            outer: "d".into(),
            inner: None,
            algo: RcjAlgorithm::Auto,
            k: None,
        });
        assert!(matches!(err, Err(ShardFault::Gone(_))), "want Gone");
    }

    #[test]
    fn a_worker_echoes_request_ids_and_stops_on_a_shutdown_it_never_acks() {
        use crate::proto::{read_frame, write_frame};
        let server = Server::bind_worker("127.0.0.1:0", 0, None).unwrap();
        let addr = server.local_addr();
        let (done, stopped) = std::sync::mpsc::channel();
        std::thread::spawn(move || done.send(server.serve().is_ok()));
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        write_frame(&mut raw, b"#7 HELLO").unwrap();
        let hello = read_frame(&mut raw).unwrap().unwrap();
        assert_eq!(hello, "OK id=7 role=shard\n");
        // The worker commits to stopping before it writes the ack, so a
        // coordinator that vanishes right after sending still stops it.
        write_frame(&mut raw, b"#8 SHUTDOWN").unwrap();
        drop(raw);
        assert_eq!(stopped.recv_timeout(Duration::from_secs(10)), Ok(true));
    }
}
