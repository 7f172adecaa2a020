//! The self-healing shard topology: replicated worker slots behind
//! round-robin routing, health-aware failover, and a supervisor that
//! respawns dead workers and replays the coordinator's history log.
//!
//! # Slots, cells and replicas
//!
//! A topology serves `cells` partition cells with `replicas` workers
//! each: slot `cell * replicas + rep` is replica `rep` of cell `cell`
//! (flat **cell-major** order — the same order `STATS` reports
//! `shard<i>_state` in). Every replica of a cell is interchangeable:
//! replicas hold identical replicated indexes and own the same outer
//! leaves, so answers are byte-identical no matter which replica a
//! query lands on — which is precisely what makes failover invisible.
//!
//! # Routing and failover
//!
//! [`Topology::call`] picks a starting replica round-robin (per cell)
//! and walks the cell's replicas until one answers. A replica whose
//! transport dies mid-call ([`ShardFault::Gone`]) is marked down,
//! handed to the supervisor, and the call moves on to the next replica
//! — the client never sees the loss while a sibling lives. Only when
//! every replica of the cell is unavailable does the call surface
//! [`ServerError::ShardGone`]. A *request* error from a live worker
//! ([`ShardFault::Request`]) is returned as-is: the worker is healthy,
//! the request is not, and failing over would just repeat it.
//!
//! # Healing
//!
//! The supervisor thread receives down slot indices, re-creates the
//! backend through the topology's factory (bounded attempts with
//! exponential backoff), and runs the heal function the
//! [`ShardedEngine`](crate::ShardedEngine) provides — which replays
//! the history log (every logged load and mutation batch, in order)
//! into the fresh worker under the catalog's read lock and only then
//! installs it as up. Because installation happens under that lock, a
//! healing slot can never miss a concurrent load or update: either the
//! slot is up before the batch takes the write lock (and is fanned out
//! to), or the batch's record is already in the log the replay reads.

use crate::proto::{ShardReply, ShardRequest};
use crate::ServerError;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a backend call failed — the distinction that drives failover.
#[derive(Debug)]
pub(crate) enum ShardFault {
    /// The transport to the worker is dead (closed channel, reset or
    /// timed-out socket, killed process): the slot goes down, the
    /// supervisor respawns it, and the call fails over to a sibling
    /// replica.
    Gone(String),
    /// The worker is alive but rejected the request. No failover — a
    /// sibling replica would answer the same way.
    Request(String),
}

impl ShardFault {
    /// The human-readable message either way.
    pub(crate) fn message(self) -> String {
        match self {
            ShardFault::Gone(m) | ShardFault::Request(m) => m,
        }
    }
}

/// One shard worker the topology can route to — an in-process worker
/// thread, a TCP connection to a worker process, or a mock in tests.
/// Implementations are owned by their slot's mutex, so calls take
/// `&mut self` and need no internal locking.
pub(crate) trait ShardBackend: Send {
    /// Sends one shard message and waits for its reply.
    fn request(&mut self, req: &ShardRequest) -> Result<ShardReply, ShardFault>;
    /// Best-effort orderly stop (the topology is shutting down).
    fn shutdown(&mut self) {}
    /// The worker's OS process id, when it has one of its own.
    fn pid(&self) -> Option<u32> {
        None
    }
}

/// Creates the backend for `(cell, replica)` — used for initial
/// construction and for every respawn.
pub(crate) type BackendFactory =
    Arc<dyn Fn(usize, usize) -> Result<Box<dyn ShardBackend>, String> + Send + Sync>;

/// Replays the history log (loads and mutation batches) into a fresh
/// backend for `cell` and, on success, installs it into the slot
/// (flipping it up) — all under whatever catalog lock the engine needs
/// to exclude concurrent loads and updates. Returns how many records
/// were replayed.
pub(crate) type HealFn =
    Arc<dyn Fn(usize, Box<dyn ShardBackend>, &Slot) -> Result<u64, String> + Send + Sync>;

/// Spawn-and-heal attempts the supervisor makes per down event before
/// it parks the slot down (a later routed call kicks it again).
const RESPAWN_ATTEMPTS: u32 = 5;

/// The supervisor's wait before its second attempt on a slot, doubled
/// on each attempt after that.
const RESPAWN_BACKOFF: Duration = Duration::from_millis(100);

// ---------------------------------------------------------------------
// Slots
// ---------------------------------------------------------------------

const UP: u8 = 0;
const DOWN: u8 = 1;
const RESPAWNING: u8 = 2;

/// One replica's mailbox: the backend (when alive) behind a mutex,
/// plus lock-free health state and a request counter. Lock order is
/// catalog lock → slot mutex everywhere (queries, loads, heals), so
/// the two can never deadlock.
pub(crate) struct Slot {
    backend: Mutex<Option<Box<dyn ShardBackend>>>,
    state: AtomicU8,
    requests: AtomicU64,
}

impl Slot {
    fn new(backend: Box<dyn ShardBackend>) -> Slot {
        Slot {
            backend: Mutex::new(Some(backend)),
            state: AtomicU8::new(UP),
            requests: AtomicU64::new(0),
        }
    }

    /// Installs a healed backend and flips the slot up. Called by the
    /// heal function under the engine's catalog lock — see the module
    /// docs for why that ordering closes the missed-batch race.
    pub(crate) fn install(&self, backend: Box<dyn ShardBackend>) {
        *self.backend.lock().expect("slot lock poisoned") = Some(backend);
        self.state.store(UP, Ordering::SeqCst);
    }

    fn state_name(&self) -> &'static str {
        match self.state.load(Ordering::SeqCst) {
            UP => "up",
            RESPAWNING => "respawning",
            _ => "down",
        }
    }
}

// ---------------------------------------------------------------------
// The topology
// ---------------------------------------------------------------------

/// The routing fabric of a [`ShardedEngine`](crate::ShardedEngine):
/// `cells * replicas` slots, round-robin replica selection with
/// failover, and the self-healing supervisor. See the module docs.
pub(crate) struct Topology {
    replicas: usize,
    slots: Vec<Arc<Slot>>,
    /// Per-cell round-robin cursors (load-balancing across replicas).
    rr: Vec<AtomicUsize>,
    respawn_tx: Option<Sender<usize>>,
    supervisor: Option<JoinHandle<()>>,
    replays_total: Arc<AtomicU64>,
}

impl Topology {
    /// Builds the full topology strictly: every `(cell, replica)` slot
    /// must spawn, or construction fails. The supervisor thread starts
    /// immediately. Its caller,
    /// [`ShardedEngine::with_topology`](crate::ShardedEngine::with_topology),
    /// has checked that `cells` and `replicas` are at least 1.
    pub(crate) fn new(
        cells: usize,
        replicas: usize,
        factory: BackendFactory,
        heal: HealFn,
    ) -> Result<Topology, ServerError> {
        let mut slots = Vec::with_capacity(cells * replicas);
        for cell in 0..cells {
            for rep in 0..replicas {
                let backend = factory(cell, rep).map_err(|e| {
                    ServerError::Internal(format!("spawning shard {cell} replica {rep}: {e}"))
                })?;
                slots.push(Arc::new(Slot::new(backend)));
            }
        }
        let (respawn_tx, respawn_rx) = channel::<usize>();
        let replays_total = Arc::new(AtomicU64::new(0));
        let supervisor = {
            let slots: Vec<Arc<Slot>> = slots.clone();
            let replays_total = Arc::clone(&replays_total);
            std::thread::spawn(move || {
                while let Ok(idx) = respawn_rx.recv() {
                    let slot = &slots[idx];
                    // Duplicate kicks for an already-healed slot are
                    // no-ops; only a down slot enters respawning.
                    if slot
                        .state
                        .compare_exchange(DOWN, RESPAWNING, Ordering::SeqCst, Ordering::SeqCst)
                        .is_err()
                    {
                        continue;
                    }
                    let cell = idx / replicas;
                    let rep = idx % replicas;
                    let mut healed = false;
                    for attempt in 0..RESPAWN_ATTEMPTS {
                        if attempt > 0 {
                            // Jittered by slot, so sibling respawns
                            // don't stampede.
                            std::thread::sleep(crate::client::backoff(
                                RESPAWN_BACKOFF,
                                attempt,
                                idx as u64,
                            ));
                        }
                        let backend = match factory(cell, rep) {
                            Ok(b) => b,
                            Err(_) => continue,
                        };
                        match heal(cell, backend, slot) {
                            Ok(replayed) => {
                                replays_total.fetch_add(replayed, Ordering::Relaxed);
                                healed = true;
                                break;
                            }
                            Err(_) => continue,
                        }
                    }
                    if !healed {
                        // Park the slot down; the next routed call that
                        // probes it kicks the supervisor again.
                        slot.state.store(DOWN, Ordering::SeqCst);
                    }
                }
            })
        };
        Ok(Topology {
            replicas,
            slots,
            rr: (0..cells).map(|_| AtomicUsize::new(0)).collect(),
            respawn_tx: Some(respawn_tx),
            supervisor: Some(supervisor),
            replays_total,
        })
    }

    /// Number of partition cells.
    pub(crate) fn cells(&self) -> usize {
        self.rr.len()
    }

    /// Replicas per cell.
    pub(crate) fn replicas(&self) -> usize {
        self.replicas
    }

    /// Lifetime count of datasets replayed into respawned workers.
    pub(crate) fn replays_total(&self) -> u64 {
        self.replays_total.load(Ordering::Relaxed)
    }

    fn kick(&self, idx: usize) {
        if let Some(tx) = &self.respawn_tx {
            let _ = tx.send(idx);
        }
    }

    /// Marks a slot down after a transport fault and wakes the
    /// supervisor. Idempotent: only an up slot transitions.
    fn mark_down(&self, idx: usize) {
        if self.slots[idx]
            .state
            .compare_exchange(UP, DOWN, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            self.kick(idx);
        }
    }

    /// Routes one query to `cell`: starts at the round-robin replica,
    /// fails over across siblings on [`ShardFault::Gone`] (marking the
    /// faulty slot down), and surfaces [`ServerError::ShardGone`] only
    /// when no replica of the cell can answer. [`ShardFault::Request`]
    /// returns immediately as an internal error — the worker is
    /// healthy, so a sibling would answer the same way.
    pub(crate) fn call(&self, cell: usize, req: &ShardRequest) -> Result<ShardReply, ServerError> {
        let start = self.rr[cell].fetch_add(1, Ordering::Relaxed);
        for probe in 0..self.replicas {
            let idx = cell * self.replicas + (start + probe) % self.replicas;
            match self.call_slot(idx, req) {
                Some(Ok(out)) => return Ok(out),
                Some(Err(msg)) => return Err(ServerError::Internal(msg)),
                // Not up, or its transport just died (and the slot went
                // to the supervisor): fail over to the next replica.
                None => continue,
            }
        }
        Err(ServerError::ShardGone(cell))
    }

    /// Sends one request to a specific slot. `None` means the slot was
    /// not up (a parked slot is kicked to the supervisor again) or its
    /// transport died mid-call — it is then marked down for healing,
    /// whose log replay delivers any history record it missed;
    /// `Some(Err)` is a refusal from a live worker.
    ///
    /// A refused **update** also tears the slot down: coordinator-side
    /// validation makes refusals unreachable for a worker in sync, so a
    /// refusing worker has diverged, and the supervisor's full-log
    /// replay rebuilds it. Any other refusal leaves the slot as it is.
    pub(crate) fn call_slot(
        &self,
        idx: usize,
        req: &ShardRequest,
    ) -> Option<Result<ShardReply, String>> {
        let slot = &self.slots[idx];
        match slot.state.load(Ordering::SeqCst) {
            UP => {}
            DOWN => {
                self.kick(idx);
                return None;
            }
            _ => return None,
        }
        let mut guard = slot.backend.lock().expect("slot lock poisoned");
        let backend = guard.as_mut()?;
        slot.requests.fetch_add(1, Ordering::Relaxed);
        let (out, tear_down) = match backend.request(req) {
            Ok(out) => (Some(Ok(out)), false),
            Err(ShardFault::Gone(_)) => (None, true),
            Err(ShardFault::Request(msg)) => {
                let diverged = matches!(req, ShardRequest::Update { .. });
                (Some(Err(msg)), diverged)
            }
        };
        if tear_down {
            *guard = None;
            drop(guard);
            self.mark_down(idx);
        }
        out
    }

    /// Tears a slot down for rebuild: drops its backend and hands it to
    /// the supervisor, whose replay reconstructs the worker from the
    /// log. Used when a worker's *state* can no longer be trusted (it
    /// applied a mutation batch the coordinator had to abandon), not
    /// just its transport.
    pub(crate) fn quarantine(&self, idx: usize) {
        let slot = &self.slots[idx];
        *slot.backend.lock().expect("slot lock poisoned") = None;
        self.mark_down(idx);
    }

    /// Per-slot `(state, requests)` in flat cell-major slot order — the
    /// `STATS` health rows.
    pub(crate) fn health(&self) -> Vec<(&'static str, u64)> {
        self.slots
            .iter()
            .map(|s| (s.state_name(), s.requests.load(Ordering::Relaxed)))
            .collect()
    }

    /// Polls until every slot is up (true) or the timeout lapses
    /// (false). Test and CI convenience — production callers rely on
    /// per-call failover instead.
    pub(crate) fn wait_healthy(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self
                .slots
                .iter()
                .all(|s| s.state.load(Ordering::SeqCst) == UP)
            {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Each slot's worker process id (`None` for in-process workers and
    /// down slots), in flat cell-major slot order.
    pub(crate) fn pids(&self) -> Vec<Option<u32>> {
        self.slots
            .iter()
            .map(|s| {
                s.backend
                    .lock()
                    .expect("slot lock poisoned")
                    .as_ref()
                    .and_then(|b| b.pid())
            })
            .collect()
    }

    /// Stops the supervisor, then shuts every live backend down.
    pub(crate) fn shutdown(&mut self) {
        // Closing the channel ends the supervisor's recv loop; join it
        // *before* tearing down backends so no heal races the shutdown.
        self.respawn_tx.take();
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
        for slot in &self.slots {
            if let Some(mut backend) = slot.backend.lock().expect("slot lock poisoned").take() {
                backend.shutdown();
            }
        }
    }
}

impl Drop for Topology {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Ownership;
    use ringjoin_core::{IndexKind, RcjAlgorithm};
    use ringjoin_geom::Rect;
    use std::sync::atomic::AtomicBool;

    /// A scriptable backend: acknowledges history records, answers
    /// `explain` with its label, and reports its transport dead when
    /// `gone` is set.
    struct Mock {
        label: String,
        gone: Arc<AtomicBool>,
    }

    impl ShardBackend for Mock {
        fn request(&mut self, req: &ShardRequest) -> Result<ShardReply, ShardFault> {
            if self.gone.load(Ordering::SeqCst) {
                return Err(ShardFault::Gone("mock transport dead".into()));
            }
            match req {
                ShardRequest::Load { .. } | ShardRequest::Update { .. } => {
                    Ok(ShardReply::Indexed(Ownership {
                        leaves: 1,
                        extent: Rect::empty(),
                    }))
                }
                ShardRequest::Explain { .. } => Ok(ShardReply::Plan(self.label.clone())),
                _ => Err(ShardFault::Request("mock has no such verb".into())),
            }
        }
    }

    fn explain(topo: &Topology, cell: usize) -> Result<String, ServerError> {
        let req = ShardRequest::Explain {
            outer: "d".into(),
            inner: None,
            algo: RcjAlgorithm::Auto,
            k: None,
        };
        match topo.call(cell, &req)? {
            ShardReply::Plan(text) => Ok(text),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    /// Factory + heal that build healthy mocks and count replays.
    fn fixture(kill_switches: Arc<Mutex<Vec<Arc<AtomicBool>>>>) -> (BackendFactory, HealFn) {
        let factory: BackendFactory = Arc::new(move |cell, rep| {
            let gone = Arc::new(AtomicBool::new(false));
            kill_switches.lock().unwrap().push(Arc::clone(&gone));
            Ok(Box::new(Mock {
                label: format!("cell{cell}-rep{rep}"),
                gone,
            }) as Box<dyn ShardBackend>)
        });
        let heal: HealFn = Arc::new(|_cell, backend, slot: &Slot| {
            slot.install(backend);
            Ok(2)
        });
        (factory, heal)
    }

    #[test]
    fn failover_hides_a_dead_replica_and_supervisor_heals_it() {
        let switches = Arc::new(Mutex::new(Vec::new()));
        let (factory, heal) = fixture(Arc::clone(&switches));
        let topo = Topology::new(1, 2, factory, heal).unwrap();
        // Kill replica 0's transport: the next calls must still answer
        // (replica 1) without ever surfacing an error.
        switches.lock().unwrap()[0].store(true, Ordering::SeqCst);
        for _ in 0..4 {
            assert_eq!(explain(&topo, 0).unwrap(), "cell0-rep1");
        }
        // The supervisor respawns slot 0 (the factory hands out a fresh
        // healthy mock) and counts the heal's replays.
        assert!(topo.wait_healthy(Duration::from_secs(5)));
        assert_eq!(topo.replays_total(), 2);
        assert_eq!(topo.health().len(), 2);
        assert!(topo.health().iter().all(|(state, _)| *state == "up"));
        // Round-robin reaches the healed replica again.
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..4 {
            seen.insert(explain(&topo, 0).unwrap());
        }
        assert!(seen.contains("cell0-rep0"));
    }

    #[test]
    fn single_replica_loss_is_a_clean_shard_gone_then_heals() {
        let switches = Arc::new(Mutex::new(Vec::new()));
        let (factory, heal) = fixture(Arc::clone(&switches));
        let topo = Topology::new(2, 1, factory, heal).unwrap();
        switches.lock().unwrap()[1].store(true, Ordering::SeqCst);
        // Cell 1 has no sibling: the loss surfaces as ShardGone(1).
        let err = explain(&topo, 1);
        assert!(matches!(err, Err(ServerError::ShardGone(1))), "{err:?}");
        // Cell 0 is untouched.
        assert_eq!(explain(&topo, 0).unwrap(), "cell0-rep0");
        // ...and the supervisor brings cell 1 back.
        assert!(topo.wait_healthy(Duration::from_secs(5)));
        assert_eq!(explain(&topo, 1).unwrap(), "cell1-rep0");
    }

    #[test]
    fn request_errors_do_not_fail_over() {
        let switches = Arc::new(Mutex::new(Vec::new()));
        let (factory, heal) = fixture(Arc::clone(&switches));
        let topo = Topology::new(1, 2, factory, heal).unwrap();
        let join = ShardRequest::Join {
            outer: "d".into(),
            inner: None,
            algo: RcjAlgorithm::Auto,
            bounds: None,
        };
        let err = topo.call(0, &join);
        assert!(matches!(err, Err(ServerError::Internal(_))), "{err:?}");
        // Both replicas stay up: a bad request is not a bad worker.
        assert!(topo.health().iter().all(|(state, _)| *state == "up"));
        // Exactly one replica was charged the request.
        let total: u64 = topo.health().iter().map(|(_, r)| r).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn call_slot_skips_down_slots_and_reports_hard_errors() {
        let switches = Arc::new(Mutex::new(Vec::new()));
        let (factory, heal) = fixture(Arc::clone(&switches));
        let topo = Topology::new(1, 2, factory, heal).unwrap();
        let load = ShardRequest::Load {
            name: "d".into(),
            kind: IndexKind::Rtree,
            cell: Rect::empty(),
            items: Arc::new(Vec::new()),
        };
        assert!(matches!(topo.call_slot(0, &load), Some(Ok(_))));
        // A refused request that is not an update leaves the slot up.
        assert!(matches!(
            topo.call_slot(0, &ShardRequest::Hello),
            Some(Err(_))
        ));
        assert_eq!(topo.health()[0].0, "up");
        // Kill slot 1 mid-load: the fan-out sees None (the heal's
        // replay owns delivering this dataset), not an error.
        switches.lock().unwrap()[1].store(true, Ordering::SeqCst);
        assert!(topo.call_slot(1, &load).is_none());
        assert!(topo.wait_healthy(Duration::from_secs(5)));
    }
}
