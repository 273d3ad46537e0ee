//! The global epoch manager and per-worker epoch handles.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;

use crate::{shared_write_audit, snap};

/// Sentinel value stored in a worker's local epoch while the worker is
/// *quiescent* (not inside any transaction and holding no references to
/// shared objects). Quiescent workers do not hold back reclamation or epoch
/// advancement.
pub const QUIESCENT: u64 = u64::MAX;

/// Configuration for the epoch subsystem.
#[derive(Debug, Clone)]
pub struct EpochConfig {
    /// Period between global-epoch advances. The paper uses 40 ms; tests and
    /// benchmarks typically use 1 ms so that epoch-related behaviour shows up
    /// quickly.
    pub epoch_interval: Duration,
    /// Number of epochs per snapshot epoch (`k` in the paper, default 25).
    pub snapshot_interval_epochs: u64,
}

impl Default for EpochConfig {
    fn default() -> Self {
        EpochConfig {
            epoch_interval: Duration::from_millis(40),
            snapshot_interval_epochs: 25,
        }
    }
}

/// Per-worker epoch slot shared between the worker and the epoch manager.
#[derive(Debug)]
struct WorkerSlot {
    /// Local epoch `e_w`, or [`QUIESCENT`].
    local_epoch: CachePadded<AtomicU64>,
    /// Local snapshot epoch `se_w`, or [`QUIESCENT`].
    local_snapshot_epoch: CachePadded<AtomicU64>,
    /// Whether the owning worker handle is still alive.
    active: AtomicBool,
}

impl WorkerSlot {
    fn new() -> Self {
        WorkerSlot {
            local_epoch: CachePadded::new(AtomicU64::new(QUIESCENT)),
            local_snapshot_epoch: CachePadded::new(AtomicU64::new(QUIESCENT)),
            active: AtomicBool::new(true),
        }
    }
}

/// Worker slots per registry chunk. Chunks are append-only and never freed,
/// so scans can walk them without synchronizing with registration.
const REGISTRY_CHUNK: usize = 64;

/// One chunk of the append-only, lock-free worker registry.
///
/// Registration (rare: worker startup) fills `slots` strictly left to right
/// under [`EpochManager::register_lock`] and chains a fresh chunk into `next`
/// when full. Scans — the epoch advancer's min-epoch computation and, more
/// importantly, every worker's GC-path reclamation-epoch reads — walk the
/// `OnceLock`s with plain acquire loads: the first unset slot is the end of
/// the registry. The previous design kept the slots in a `Mutex<Vec<_>>`,
/// which made every garbage-collection check a *write* to a shared cache
/// line (the mutex word) that all workers bounced on.
struct RegistryChunk {
    slots: [OnceLock<Arc<WorkerSlot>>; REGISTRY_CHUNK],
    next: OnceLock<Box<RegistryChunk>>,
}

impl std::fmt::Debug for RegistryChunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let filled = self.slots.iter().take_while(|s| s.get().is_some()).count();
        f.debug_struct("RegistryChunk")
            .field("filled", &filled)
            .field("chained", &self.next.get().is_some())
            .finish()
    }
}

impl RegistryChunk {
    fn new() -> Box<RegistryChunk> {
        Box::new(RegistryChunk {
            slots: [const { OnceLock::new() }; REGISTRY_CHUNK],
            next: OnceLock::new(),
        })
    }
}

/// A callback run after every successful epoch advance (see
/// [`EpochManager::on_advance`]).
type AdvanceListener = Box<dyn Fn() -> bool + Send + Sync>;

/// The registered advance listeners. A newtype only so that
/// [`EpochManager`] can keep deriving `Debug`.
#[derive(Default)]
struct AdvanceListeners(Mutex<Vec<AdvanceListener>>);

impl std::fmt::Debug for AdvanceListeners {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} advance listener(s)", self.0.lock().len())
    }
}

/// The global epoch state: `E`, `SE`, and all registered workers.
///
/// A single `EpochManager` is shared (via `Arc`) by every worker thread, the
/// epoch-advancer thread, the garbage collector and the durability subsystem.
#[derive(Debug)]
pub struct EpochManager {
    config: EpochConfig,
    /// The global epoch `E`. Read by every committing transaction, written
    /// only by the epoch advancer; padded to its own cache line so commits
    /// never false-share with unrelated state.
    global_epoch: CachePadded<AtomicU64>,
    /// The global snapshot epoch `SE = snap(E - k)`.
    global_snapshot_epoch: CachePadded<AtomicU64>,
    /// Head of the append-only worker registry. Scans (min-epoch
    /// computations on the advancer *and* on every worker's GC path) walk it
    /// lock-free; only registration takes `register_lock`.
    workers: Box<RegistryChunk>,
    /// Number of registered slots (monotone; inactive slots stay counted
    /// here and are filtered by the `active` flag during scans).
    registered: AtomicUsize,
    /// Serializes registration (worker startup only — never on a hot path).
    register_lock: Mutex<()>,
    /// Run after each successful [`EpochManager::try_advance`].
    listeners: AdvanceListeners,
}

impl EpochManager {
    /// Creates a new epoch manager with the given configuration.
    ///
    /// The global epoch starts at 1 so that TID epoch 0 can be reserved for
    /// "never committed" placeholder records.
    pub fn new(config: EpochConfig) -> Arc<Self> {
        Arc::new(EpochManager {
            config,
            global_epoch: CachePadded::new(AtomicU64::new(1)),
            global_snapshot_epoch: CachePadded::new(AtomicU64::new(0)),
            workers: RegistryChunk::new(),
            registered: AtomicUsize::new(0),
            register_lock: Mutex::new(()),
            listeners: AdvanceListeners::default(),
        })
    }

    /// Creates an epoch manager with the paper's default configuration.
    pub fn with_defaults() -> Arc<Self> {
        Self::new(EpochConfig::default())
    }

    /// The configuration this manager was created with.
    pub fn config(&self) -> &EpochConfig {
        &self.config
    }

    /// Reads the global epoch `E`.
    ///
    /// The load is `SeqCst` (as cheap as `Acquire` on x86 and ARMv8): the
    /// durability subsystem's bound on quiescent workers rests on it, see
    /// [`EpochManager::local_epoch_of`].
    pub fn global_epoch(&self) -> u64 {
        self.global_epoch.load(Ordering::SeqCst)
    }

    /// Reads the global snapshot epoch `SE`.
    pub fn global_snapshot_epoch(&self) -> u64 {
        self.global_snapshot_epoch.load(Ordering::Acquire)
    }

    /// Registers a new worker and returns its epoch handle.
    ///
    /// The worker starts quiescent; it must call [`WorkerEpochHandle::refresh`]
    /// at the start of each transaction (or batch of transactions).
    pub fn register_worker(self: &Arc<Self>) -> WorkerEpochHandle {
        shared_write_audit::note();
        let slot = Arc::new(WorkerSlot::new());
        let guard = self.register_lock.lock();
        let id = self.registered.load(Ordering::Relaxed);
        let mut chunk = &*self.workers;
        for _ in 0..id / REGISTRY_CHUNK {
            chunk = chunk.next.get_or_init(RegistryChunk::new);
        }
        chunk.slots[id % REGISTRY_CHUNK]
            .set(Arc::clone(&slot))
            .unwrap_or_else(|_| unreachable!("registry slot {id} filled twice"));
        // Publish the count only after the slot is set, so lock-free scans
        // never see a gap. `SeqCst` so that `local_epoch_of` reporting an id
        // as unregistered carries the same guarantee as a quiescent slot.
        self.registered.store(id + 1, Ordering::SeqCst);
        drop(guard);
        WorkerEpochHandle {
            manager: Arc::clone(self),
            slot,
            id,
        }
    }

    /// Walks every registered worker slot, lock-free. The registry is
    /// append-only: the first unset slot terminates the walk.
    fn for_each_slot(&self, mut f: impl FnMut(&WorkerSlot)) {
        let mut chunk = &*self.workers;
        loop {
            for slot in &chunk.slots {
                match slot.get() {
                    Some(w) => f(w),
                    None => return,
                }
            }
            match chunk.next.get() {
                Some(next) => chunk = next,
                None => return,
            }
        }
    }

    /// The local epoch `e_w` of the worker whose handle has this
    /// [`WorkerEpochHandle::id`], or [`QUIESCENT`] if that worker is
    /// quiescent, dropped, or not registered yet.
    ///
    /// This is how the durability subsystem bounds the epoch of a commit a
    /// worker may still have in flight. Read `E` with
    /// [`EpochManager::global_epoch`] *before* calling this; then:
    ///
    /// * a result `e_w ≠ QUIESCENT` means every commit the worker has not
    ///   finished yet gets an epoch `≥ e_w` (a commit's epoch is read from
    ///   `E` after the refresh that set `e_w`);
    /// * a result of `QUIESCENT` means every later commit gets an epoch at
    ///   least the `E` read before. The worker must first run
    ///   [`WorkerEpochHandle::refresh`], which stores `e_w` and then re-reads
    ///   `E`. The caller's two loads and the worker's store and re-load are
    ///   all `SeqCst`, so they fall in one total order: caller reads `E`,
    ///   caller reads the slot (missing the store), worker stores, worker
    ///   re-reads `E`. A `SeqCst` load cannot return a value older than one
    ///   an earlier `SeqCst` load of the same location returned, so the
    ///   re-read sees at least the caller's `E`, and the refresh only exits
    ///   once `e_w` equals it. Registration publishes its count with
    ///   `SeqCst` too, so an id reported as unregistered behaves the same.
    pub fn local_epoch_of(&self, id: usize) -> u64 {
        if id >= self.registered.load(Ordering::SeqCst) {
            return QUIESCENT;
        }
        let mut chunk = &*self.workers;
        for _ in 0..id / REGISTRY_CHUNK {
            match chunk.next.get() {
                Some(next) => chunk = next,
                None => return QUIESCENT,
            }
        }
        match chunk.slots[id % REGISTRY_CHUNK].get() {
            Some(slot) => slot.local_epoch.load(Ordering::SeqCst),
            None => QUIESCENT,
        }
    }

    /// Registers `listener` to run, on the advancing thread, after every
    /// successful [`EpochManager::try_advance`]. The listener returns
    /// `false` once it is obsolete (its owner is gone) and is then dropped.
    /// Listeners must be short and must not advance the epoch themselves.
    pub fn on_advance(&self, listener: impl Fn() -> bool + Send + Sync + 'static) {
        self.listeners.0.lock().push(Box::new(listener));
    }

    /// Number of registered workers (including quiescent but not dropped ones).
    pub fn worker_count(&self) -> usize {
        let mut n = 0;
        self.for_each_slot(|w| {
            if w.active.load(Ordering::Acquire) {
                n += 1;
            }
        });
        n
    }

    /// The minimum local epoch over all active, non-quiescent workers, or
    /// `None` if every worker is quiescent.
    ///
    /// Read-only: called from every worker's GC path, so it must not touch a
    /// shared lock (see [`RegistryChunk`]).
    fn min_worker_epoch(&self) -> Option<u64> {
        let mut min: Option<u64> = None;
        self.for_each_slot(|w| {
            if w.active.load(Ordering::Acquire) {
                let e = w.local_epoch.load(Ordering::Acquire);
                if e != QUIESCENT {
                    min = Some(min.map_or(e, |m: u64| m.min(e)));
                }
            }
        });
        min
    }

    /// The minimum local snapshot epoch over all active, non-quiescent
    /// workers, or `None` if every worker is quiescent. Read-only, like
    /// [`EpochManager::min_worker_epoch`].
    fn min_worker_snapshot_epoch(&self) -> Option<u64> {
        let mut min: Option<u64> = None;
        self.for_each_slot(|w| {
            if w.active.load(Ordering::Acquire) {
                let e = w.local_snapshot_epoch.load(Ordering::Acquire);
                if e != QUIESCENT {
                    min = Some(min.map_or(e, |m: u64| m.min(e)));
                }
            }
        });
        min
    }

    /// Attempts to advance the global epoch by one, maintaining the invariant
    /// `E − e_w ≤ 1` for every active worker (paper §4.1). If some worker is
    /// still in epoch `E − 1`, the advance is deferred and the current epoch
    /// is returned unchanged.
    ///
    /// Also refreshes the global snapshot epoch.
    ///
    /// Returns the (possibly unchanged) global epoch after the call.
    pub fn try_advance(&self) -> u64 {
        let e = self.global_epoch.load(Ordering::Acquire);
        let may_advance = match self.min_worker_epoch() {
            // Advancing to `e + 1` keeps `E − e_w ≤ 1` only if every active
            // worker has already refreshed to the current epoch.
            Some(min_ew) => min_ew >= e,
            // No worker is inside a transaction; always safe.
            None => true,
        };
        let new_e = if may_advance {
            shared_write_audit::note();
            // Only the advancer thread calls this concurrently with readers,
            // so a plain store (no CAS loop) is sufficient; `fetch_add` keeps
            // it correct even if multiple advancers are ever used.
            self.global_epoch.fetch_add(1, Ordering::AcqRel) + 1
        } else {
            e
        };
        self.refresh_snapshot_epoch(new_e);
        if new_e != e {
            self.listeners.0.lock().retain(|listener| listener());
        }
        new_e
    }

    fn refresh_snapshot_epoch(&self, e: u64) {
        let k = self.config.snapshot_interval_epochs;
        let se = if e > k { snap(e - k, k) } else { 0 };
        // Snapshot epochs only move forward.
        let cur = self.global_snapshot_epoch.load(Ordering::Acquire);
        if se > cur {
            shared_write_audit::note();
            self.global_snapshot_epoch.store(se, Ordering::Release);
        }
    }

    /// Fast-forwards the global epoch to at least `target` (and refreshes the
    /// snapshot epoch accordingly).
    ///
    /// This is the recovery hook: a freshly opened database starts at epoch 1,
    /// but the state recovered from a checkpoint + log tail carries TIDs from
    /// epochs up to the recovered durable horizon. Fast-forwarding past that
    /// horizon keeps post-recovery commit TIDs (and durable-epoch markers)
    /// strictly above every recovered TID, which both log truncation and
    /// TID-based replay conflict resolution rely on.
    ///
    /// Must only be called while no worker is inside a transaction (recovery
    /// runs before workers start); a jump would otherwise break the
    /// `E − e_w ≤ 1` invariant.
    pub fn advance_to(&self, target: u64) {
        debug_assert!(
            self.min_worker_epoch().is_none(),
            "advance_to with non-quiescent workers"
        );
        shared_write_audit::note();
        self.global_epoch.fetch_max(target, Ordering::AcqRel);
        self.refresh_snapshot_epoch(self.global_epoch());
    }

    /// Advances the global epoch by (up to) `n` steps, used by tests and by
    /// deterministic benchmarks that do not run an advancer thread.
    pub fn advance_n(&self, n: u64) -> u64 {
        let mut e = self.global_epoch();
        for _ in 0..n {
            e = self.try_advance();
        }
        e
    }

    /// The *tree reclamation epoch*: garbage (tree nodes, record memory)
    /// registered with a reclamation epoch `≤` this value can be freed
    /// (paper §4.8: `min e_w − 1`).
    pub fn tree_reclamation_epoch(&self) -> u64 {
        let floor = match self.min_worker_epoch() {
            Some(min_ew) => min_ew,
            None => self.global_epoch(),
        };
        floor.saturating_sub(1)
    }

    /// The *snapshot reclamation epoch*: old record versions registered with
    /// a reclamation epoch `≤` this value can be freed (paper §4.9:
    /// `min se_w − 1`).
    pub fn snapshot_reclamation_epoch(&self) -> u64 {
        let floor = match self.min_worker_snapshot_epoch() {
            Some(min_sew) => min_sew,
            None => self.global_snapshot_epoch(),
        };
        floor.saturating_sub(1)
    }

    /// Computes `snap(e)` with this manager's configured `k`.
    pub fn snapshot_of(&self, epoch: u64) -> u64 {
        snap(epoch, self.config.snapshot_interval_epochs)
    }
}

/// A worker's handle onto the epoch subsystem.
///
/// The handle owns the worker's `e_w` / `se_w` slots. Dropping the handle
/// marks the worker inactive so it no longer holds back epoch advancement or
/// reclamation.
#[derive(Debug)]
pub struct WorkerEpochHandle {
    manager: Arc<EpochManager>,
    slot: Arc<WorkerSlot>,
    id: usize,
}

impl WorkerEpochHandle {
    /// The worker's registration index: unique per manager, dense from 0,
    /// and the key of [`EpochManager::local_epoch_of`].
    pub fn id(&self) -> usize {
        self.id
    }

    /// The epoch manager this worker is registered with.
    pub fn manager(&self) -> &Arc<EpochManager> {
        &self.manager
    }

    /// Refreshes the worker's local epochs from the global values, as done at
    /// the start of every transaction: `e_w ← E`, `se_w ← SE`.
    ///
    /// The publish-then-verify loop closes the race where the advancer reads
    /// "no non-quiescent workers", advances `E`, and only then sees our stale
    /// `e_w`: we re-check `E` after publishing and retry until the published
    /// value matches, so from that moment on the `E − e_w ≤ 1` invariant is
    /// enforced by the advancer's own check. The store and the re-check are
    /// `SeqCst`, which also gives [`EpochManager::local_epoch_of`] its
    /// guarantee for quiescent workers.
    ///
    /// Returns `(e_w, se_w)`.
    ///
    /// Not a [`shared_write_audit`] site: the stores land in this worker's
    /// own cache-line-padded slot, the sanctioned per-worker pattern — no
    /// other thread's writes ever touch that line.
    pub fn refresh(&self) -> (u64, u64) {
        loop {
            let e = self.manager.global_epoch();
            let se = self.manager.global_snapshot_epoch();
            self.slot.local_epoch.store(e, Ordering::SeqCst);
            self.slot.local_snapshot_epoch.store(se, Ordering::SeqCst);
            if self.manager.global_epoch() == e {
                return (e, se);
            }
        }
    }

    /// Refreshes the worker's local epoch `e_w` from the global value while
    /// pinning its local snapshot epoch `se_w` to the (typically older)
    /// `snapshot_epoch` instead of the current `SE`.
    ///
    /// This is the checkpointer's hook: a long table walk over a fixed
    /// snapshot must keep refreshing `e_w` (so it never stalls global epoch
    /// advancement) while holding `se_w` at the snapshot it reads — the
    /// pinned `se_w` bounds [`EpochManager::snapshot_reclamation_epoch`], so
    /// every record version the snapshot can reach stays alive for the whole
    /// walk. `snapshot_epoch` must not exceed the current global `SE` (the
    /// versions of a *future* snapshot cannot be pinned retroactively).
    ///
    /// Returns the refreshed `e_w`.
    pub fn refresh_pinned(&self, snapshot_epoch: u64) -> u64 {
        loop {
            let e = self.manager.global_epoch();
            self.slot.local_epoch.store(e, Ordering::SeqCst);
            self.slot
                .local_snapshot_epoch
                .store(snapshot_epoch, Ordering::SeqCst);
            if self.manager.global_epoch() == e {
                return e;
            }
        }
    }

    /// The worker's current local epoch `e_w` (or [`QUIESCENT`]).
    pub fn local_epoch(&self) -> u64 {
        self.slot.local_epoch.load(Ordering::Acquire)
    }

    /// The worker's current local snapshot epoch `se_w` (or [`QUIESCENT`]).
    pub fn local_snapshot_epoch(&self) -> u64 {
        self.slot.local_snapshot_epoch.load(Ordering::Acquire)
    }

    /// Marks the worker quiescent: it is outside any transaction and holds no
    /// references to shared objects, so it neither delays epoch advancement
    /// nor holds back reclamation.
    pub fn quiesce(&self) {
        self.slot.local_epoch.store(QUIESCENT, Ordering::Release);
        self.slot
            .local_snapshot_epoch
            .store(QUIESCENT, Ordering::Release);
    }
}

impl Drop for WorkerEpochHandle {
    fn drop(&mut self) {
        self.quiesce();
        self.slot.active.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> Arc<EpochManager> {
        EpochManager::new(EpochConfig {
            epoch_interval: Duration::from_millis(1),
            snapshot_interval_epochs: 5,
        })
    }

    #[test]
    fn starts_at_epoch_one() {
        let m = mgr();
        assert_eq!(m.global_epoch(), 1);
        assert_eq!(m.global_snapshot_epoch(), 0);
    }

    #[test]
    fn advance_with_no_workers_is_unbounded() {
        let m = mgr();
        assert_eq!(m.advance_n(10), 11);
    }

    #[test]
    fn lagging_worker_blocks_advance() {
        let m = mgr();
        let w = m.register_worker();
        w.refresh(); // e_w = 1
        assert_eq!(m.try_advance(), 2); // E=2, e_w=1, E - e_w = 1: ok
        assert_eq!(m.try_advance(), 2); // would make E - e_w = 2: blocked
        assert_eq!(m.try_advance(), 2);
        w.refresh(); // e_w = 2
        assert_eq!(m.try_advance(), 3);
    }

    #[test]
    fn quiescent_worker_does_not_block_advance() {
        let m = mgr();
        let w = m.register_worker();
        w.refresh();
        assert_eq!(m.try_advance(), 2);
        w.quiesce();
        assert_eq!(m.advance_n(5), 7);
    }

    #[test]
    fn dropped_worker_does_not_block_advance() {
        let m = mgr();
        let w = m.register_worker();
        w.refresh();
        assert_eq!(m.try_advance(), 2);
        assert_eq!(m.try_advance(), 2);
        drop(w);
        assert_eq!(m.try_advance(), 3);
        assert_eq!(m.worker_count(), 0);
    }

    #[test]
    fn invariant_holds_under_many_advances() {
        let m = mgr();
        let w1 = m.register_worker();
        let w2 = m.register_worker();
        for _ in 0..100 {
            w1.refresh();
            if m.global_epoch() % 3 == 0 {
                w2.refresh();
            }
            let e = m.try_advance();
            for w in [&w1, &w2] {
                let ew = w.local_epoch();
                if ew != QUIESCENT {
                    assert!(e - ew <= 1, "invariant violated: E={e} e_w={ew}");
                }
            }
        }
    }

    #[test]
    fn snapshot_epoch_lags_by_k() {
        let m = mgr(); // k = 5
        m.advance_n(4); // E = 5
        assert_eq!(m.global_snapshot_epoch(), 0);
        m.advance_n(6); // E = 11 -> snap(11 - 5) = snap(6) = 5
        assert_eq!(m.global_snapshot_epoch(), 5);
        m.advance_n(10); // E = 21 -> snap(16) = 15
        assert_eq!(m.global_snapshot_epoch(), 15);
    }

    #[test]
    fn snapshot_epoch_is_monotone() {
        let m = mgr();
        let mut prev = m.global_snapshot_epoch();
        for _ in 0..200 {
            m.try_advance();
            let se = m.global_snapshot_epoch();
            assert!(se >= prev);
            prev = se;
        }
    }

    #[test]
    fn reclamation_epochs_respect_active_workers() {
        let m = mgr();
        let w1 = m.register_worker();
        let w2 = m.register_worker();
        w1.refresh();
        w2.refresh();
        m.advance_n(1); // E = 2 (both at 1)
                        // min e_w = 1 -> tree reclamation epoch 0
        assert_eq!(m.tree_reclamation_epoch(), 0);
        w1.refresh();
        w2.refresh(); // both at 2
        assert_eq!(m.tree_reclamation_epoch(), 1);
        // With all quiescent the global epoch bounds reclamation.
        w1.quiesce();
        w2.quiesce();
        assert_eq!(m.tree_reclamation_epoch(), m.global_epoch() - 1);
    }

    #[test]
    fn snapshot_reclamation_tracks_min_sew() {
        let m = mgr(); // k = 5
        let w1 = m.register_worker();
        let w2 = m.register_worker();
        m.advance_n(20); // both quiescent: E = 21, SE = snap(16) = 15
        w1.refresh();
        w2.refresh();
        assert_eq!(w1.local_snapshot_epoch(), 15);
        assert_eq!(m.snapshot_reclamation_epoch(), 14);
        // Advance while both keep refreshing; snapshot epochs follow E - k.
        for _ in 0..10 {
            w1.refresh();
            w2.refresh();
            m.try_advance();
        }
        assert_eq!(m.global_epoch(), 31);
        assert_eq!(m.global_snapshot_epoch(), 25);
        w1.refresh();
        assert_eq!(w1.local_snapshot_epoch(), 25);
        // The reclamation epoch is governed by the slowest worker's se_w.
        let min_sew = w1.local_snapshot_epoch().min(w2.local_snapshot_epoch());
        assert_eq!(m.snapshot_reclamation_epoch(), min_sew - 1);
    }

    #[test]
    fn refresh_returns_current_values() {
        let m = mgr();
        m.advance_n(30);
        let w = m.register_worker();
        let (e, se) = w.refresh();
        assert_eq!(e, m.global_epoch());
        assert_eq!(se, m.global_snapshot_epoch());
        assert_eq!(w.local_epoch(), e);
        assert_eq!(w.local_snapshot_epoch(), se);
    }

    #[test]
    fn local_epoch_of_follows_refresh_and_quiesce() {
        let m = mgr();
        assert_eq!(m.local_epoch_of(0), QUIESCENT, "unregistered id");
        let w0 = m.register_worker();
        let w1 = m.register_worker();
        assert_eq!((w0.id(), w1.id()), (0, 1));
        assert_eq!(m.local_epoch_of(1), QUIESCENT);
        m.advance_n(2);
        w1.refresh();
        assert_eq!(m.local_epoch_of(1), 3);
        assert_eq!(m.local_epoch_of(0), QUIESCENT);
        w1.quiesce();
        assert_eq!(m.local_epoch_of(1), QUIESCENT);
        // Ids past the first registry chunk resolve too.
        let rest: Vec<_> = (0..REGISTRY_CHUNK).map(|_| m.register_worker()).collect();
        let last = rest.last().unwrap();
        last.refresh();
        assert_eq!(m.local_epoch_of(last.id()), m.global_epoch());
        assert_eq!(m.local_epoch_of(last.id() + 1), QUIESCENT);
    }

    #[test]
    fn advance_listeners_run_on_each_advance_until_they_retire() {
        let m = mgr();
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        m.on_advance(move || counter.fetch_add(1, Ordering::Relaxed) + 1 < 3);
        let w = m.register_worker();
        w.refresh();
        m.advance_n(3); // one advance, then blocked by the worker at 1
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        w.quiesce();
        m.advance_n(3); // two more calls; the third retires the listener
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(m.global_epoch(), 5);
    }

    #[test]
    fn concurrent_refresh_and_advance_preserve_invariant() {
        let m = mgr();
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let m = Arc::clone(&m);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let w = m.register_worker();
                while !stop.load(Ordering::Relaxed) {
                    let (ew, _) = w.refresh();
                    let e = m.global_epoch();
                    // E may have advanced at most once past our refresh.
                    assert!(e >= ew && e - ew <= 1, "E={e} e_w={ew}");
                    w.quiesce();
                }
            }));
        }
        for _ in 0..200 {
            m.try_advance();
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }
}
