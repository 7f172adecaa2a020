//! The system under test: one `ringjoin serve` child process on an
//! ephemeral loopback port.
//!
//! The child's environment is scrubbed of `RINGJOIN_THREADS` (unset, each
//! shard's join runs on one thread with no in-engine workers; shards of a
//! multi-shard topology still run concurrently, one thread each) and
//! `RINGJOIN_CRASH_POINT` (fault injection must never fire here).
//! Its port is discovered through `--addr-file`, and the process is
//! always reaped: [`ServerChild::stop`] asks for a clean shutdown, and
//! `Drop` kills whatever is still running, even when a check failed.

use ringjoin_server::Client;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a child may take to write its address file. Recovery of a
/// long history happens before the file appears, so this is generous.
const READY_TIMEOUT: Duration = Duration::from_secs(120);

/// A running server child; killed and reaped on drop.
pub struct ServerChild {
    child: Child,
    addr: SocketAddr,
}

impl ServerChild {
    /// Spawns `<bin> serve --addr 127.0.0.1:0 --addr-file <addr_file>
    /// <extra...>` and blocks until the address file holds a complete
    /// line (the server writes it only after binding, and after any
    /// durable-log recovery).
    pub fn spawn(bin: &Path, addr_file: &Path, extra: &[String]) -> Result<ServerChild, String> {
        let _ = std::fs::remove_file(addr_file);
        let child = Command::new(bin)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--addr-file"])
            .arg(addr_file)
            .args(extra)
            .env_remove("RINGJOIN_THREADS")
            .env_remove("RINGJOIN_CRASH_POINT")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut guard = ServerChild {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            if let Ok(text) = std::fs::read_to_string(addr_file) {
                if let Some(line) = text.strip_suffix('\n') {
                    guard.addr = line
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad address file {line:?}: {e}"))?;
                    return Ok(guard);
                }
            }
            if let Ok(Some(status)) = guard.child.try_wait() {
                return Err(format!("server exited before it was ready: {status}"));
            }
            if Instant::now() > deadline {
                return Err("server did not become ready in time".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The bound loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The child's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("no VmHWM line in {path}"))?;
        Ok(kb / 1024.0)
    }

    /// Asks the server to shut down through `client` and waits for the
    /// process to exit; kills it if it does not within a few seconds.
    pub fn stop(mut self, client: &mut Client) {
        let _ = client.shutdown();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // Drop kills and reaps.
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A scratch directory inside the checkout, removed on drop: page
/// files, durable-log directories and address files all live here.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates (emptying first) the directory at `path`.
    pub fn create(path: PathBuf) -> Result<Scratch, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(Scratch(path))
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Copies a directory tree (regular files only) — a pristine durable
/// log is copied before each server restart that will append to it.
/// The copies are synced, as a log that survived a restart would be, so
/// the restart's own fsyncs do not pay for flushing them.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("cannot create {}: {e}", to.display()))?;
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("cannot list {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", from.display()))?;
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)
                .and_then(|_| std::fs::File::open(&target)?.sync_all())
                .map_err(|e| format!("cannot copy {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}
