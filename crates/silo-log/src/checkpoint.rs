//! Checkpointing: periodic consistent snapshots of the whole database,
//! written to disk in parallel slices, so recovery replays only a log *tail*
//! and log growth stays bounded (paper §4.9/§4.10; SiloR refines the same
//! design).
//!
//! # On-disk layout
//!
//! Under the durability root directory (the same directory the log segments
//! live in):
//!
//! ```text
//! <root>/
//!   silo-log-<logger>-seg<seq>.bin      log segments
//!   checkpoints/
//!     ckpt-<epoch:016x>/
//!       slice-<i>.bin                   one file per checkpoint writer
//!       MANIFEST                        written last; its presence makes the
//!                                       checkpoint complete
//! ```
//!
//! Each slice starts with the magic `SILOSLC2` followed by CRC-framed
//! chunks `len u32 | crc32 u32 | payload`; each payload is a whole number of
//! records `table u32 | key_len u32 | key | tid u64 | val_len u32 | value` —
//! the live records of a consistent snapshot at the checkpoint epoch, with
//! the commit TID of each version. Deleted keys are simply not present
//! (recovery starts from an empty database). Readers verify every frame's
//! CRC-32 before parsing it, so a flipped bit in a slice is a typed error —
//! and recovery then falls back to the previous complete checkpoint — rather
//! than silently corrupt state. A slice without the magic is rejected the
//! same way.
//!
//! # Protocol
//!
//! 1. Pick the current global snapshot epoch `ce` and walk every table on
//!    `writers` threads via [`silo_core::SnapshotTxn::scan_versions_into`] —
//!    a consistent cut that runs concurrently with commits and never blocks
//!    them.
//! 2. fsync the slices, wait until the durable epoch reaches `ce`, then write
//!    `MANIFEST` (via a temp file + rename). Waiting first guarantees that
//!    any crash after the manifest exists recovers a durable horizon `≥ ce`.
//! 3. Ask the logger to truncate: segments whose records all have epochs
//!    `≤ ce` are redundant — the checkpoint covers them — and are deleted.
//! 4. Delete older checkpoints.

use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use silo_core::{Database, Tid};

use crate::fault::{crash_point, FaultPlan, FaultSite};
use crate::{lock, SiloLogger};

/// Name of the per-checkpoint completeness marker / metadata file.
const MANIFEST: &str = "MANIFEST";
/// Subdirectory of the durability root holding checkpoints.
const CHECKPOINT_DIR: &str = "checkpoints";
/// Leading magic of a checkpoint slice.
pub(crate) const SLICE_MAGIC: &[u8; 8] = b"SILOSLC2";
/// Target payload size of one CRC frame (flushed at record boundaries).
const SLICE_FRAME: usize = 64 * 1024;

/// Checkpointer configuration.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// The durability root directory (same as the log directory).
    pub root: PathBuf,
    /// Period between checkpoint attempts.
    pub interval: Duration,
    /// Number of parallel slice-writer threads.
    pub writers: usize,
    /// Index keys scanned per chunk while walking a table (bounds memory and
    /// the epoch-pin granularity of the walk).
    pub chunk: usize,
    /// How long to wait for the checkpoint epoch to become durable before
    /// abandoning the checkpoint.
    pub durable_timeout: Duration,
    /// Rate limit for the table walk, in serialized bytes per second summed
    /// across all writer threads (0 = unthrottled). On machines where the
    /// walk competes with workers for CPU, pacing keeps the checkpoint from
    /// starving commit throughput — at the cost of a longer walk, so budget
    /// it well above `database size / checkpoint interval`.
    pub max_walk_bytes_per_sec: u64,
    /// Fault-injection plan scheduling crashes at the checkpointer's
    /// protocol-critical points; `None` (the default) costs nothing.
    pub fault: Option<Arc<FaultPlan>>,
}

impl CheckpointConfig {
    /// A configuration rooted at `root` with defaults suitable for
    /// production-ish runs.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            root: root.into(),
            interval: Duration::from_secs(10),
            writers: 2,
            chunk: 1024,
            durable_timeout: Duration::from_secs(30),
            max_walk_bytes_per_sec: 0,
            fault: None,
        }
    }
}

/// Cumulative checkpointer counters (see [`Checkpointer::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Checkpoints completed (manifest written).
    pub completed: u64,
    /// Attempts skipped because the snapshot epoch had not advanced.
    pub skipped: u64,
    /// Attempts abandoned (durability wait timed out or I/O failed).
    pub failed: u64,
    /// Epoch of the most recent complete checkpoint.
    pub last_epoch: u64,
    /// Records written by the most recent complete checkpoint.
    pub last_records: u64,
    /// Bytes written by the most recent complete checkpoint.
    pub last_bytes: u64,
    /// Wall-clock microseconds the most recent complete checkpoint took
    /// (walk + fsync + durability wait + manifest).
    pub last_micros: u64,
    /// Bytes written by all completed checkpoints.
    pub total_bytes: u64,
}

impl CheckpointStats {
    /// Write rate of the most recent checkpoint, in bytes per second.
    pub fn last_write_rate(&self) -> f64 {
        if self.last_micros == 0 {
            return 0.0;
        }
        self.last_bytes as f64 / (self.last_micros as f64 / 1e6)
    }
}

#[derive(Default)]
struct StatCells {
    completed: AtomicU64,
    skipped: AtomicU64,
    failed: AtomicU64,
    last_epoch: AtomicU64,
    last_records: AtomicU64,
    last_bytes: AtomicU64,
    last_micros: AtomicU64,
    total_bytes: AtomicU64,
}

struct CheckpointerShared {
    config: CheckpointConfig,
    db: Arc<Database>,
    logger: Arc<SiloLogger>,
    stats: StatCells,
    /// Serializes checkpoint runs (the periodic thread vs. `run_now`) and
    /// holds the epoch of the last complete checkpoint.
    run_state: StdMutex<u64>,
    stop: AtomicBool,
    stop_cv: Condvar,
    /// Paired with `stop_cv` for the interval sleep.
    stop_mutex: StdMutex<()>,
}

/// The checkpointer: owns a background thread that periodically writes
/// consistent, epoch-stamped checkpoints and truncates the log behind them.
pub struct Checkpointer {
    shared: Arc<CheckpointerShared>,
    handle: parking_lot::Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Checkpointer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpointer")
            .field("root", &self.shared.config.root)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Checkpointer {
    /// Spawns the checkpointer thread.
    pub fn spawn(
        db: Arc<Database>,
        logger: Arc<SiloLogger>,
        config: CheckpointConfig,
    ) -> Arc<Checkpointer> {
        let shared = Arc::new(CheckpointerShared {
            config,
            db,
            logger,
            stats: StatCells::default(),
            run_state: StdMutex::new(0),
            stop: AtomicBool::new(false),
            stop_cv: Condvar::new(),
            stop_mutex: StdMutex::new(()),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("silo-checkpointer".to_string())
            .spawn(move || {
                loop {
                    // Interruptible interval sleep.
                    {
                        let guard = lock(&thread_shared.stop_mutex);
                        if !thread_shared.stop.load(Ordering::Acquire) {
                            drop(
                                thread_shared
                                    .stop_cv
                                    .wait_timeout(guard, thread_shared.config.interval)
                                    .unwrap_or_else(PoisonError::into_inner),
                            );
                        }
                    }
                    if thread_shared.stop.load(Ordering::Acquire) {
                        return;
                    }
                    if let Err(e) = run_once(&thread_shared) {
                        thread_shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                        eprintln!("silo-checkpointer: checkpoint failed: {e}");
                    }
                }
            })
            .expect("spawn checkpointer thread");
        Arc::new(Checkpointer {
            shared,
            handle: parking_lot::Mutex::new(Some(handle)),
        })
    }

    /// Runs one checkpoint attempt synchronously (used by benchmarks and
    /// tests). Returns the epoch of the checkpoint written, or `None` if the
    /// attempt was skipped (snapshot epoch unchanged) or abandoned.
    pub fn run_now(&self) -> std::io::Result<Option<u64>> {
        run_once(&self.shared)
    }

    /// A snapshot of the checkpointer's counters.
    pub fn stats(&self) -> CheckpointStats {
        let s = &self.shared.stats;
        CheckpointStats {
            completed: s.completed.load(Ordering::Relaxed),
            skipped: s.skipped.load(Ordering::Relaxed),
            failed: s.failed.load(Ordering::Relaxed),
            last_epoch: s.last_epoch.load(Ordering::Relaxed),
            last_records: s.last_records.load(Ordering::Relaxed),
            last_bytes: s.last_bytes.load(Ordering::Relaxed),
            last_micros: s.last_micros.load(Ordering::Relaxed),
            total_bytes: s.total_bytes.load(Ordering::Relaxed),
        }
    }

    /// Stops the checkpointer thread (a checkpoint in flight completes
    /// first).
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
        {
            let _guard = lock(&self.shared.stop_mutex);
            self.shared.stop_cv.notify_all();
        }
        if let Some(handle) = self.handle.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The directory holding all checkpoints under `root`.
fn checkpoints_root(root: &Path) -> PathBuf {
    root.join(CHECKPOINT_DIR)
}

fn checkpoint_dir(root: &Path, epoch: u64) -> PathBuf {
    checkpoints_root(root).join(format!("ckpt-{epoch:016x}"))
}

fn parse_checkpoint_dir(name: &str) -> Option<u64> {
    u64::from_str_radix(name.strip_prefix("ckpt-")?, 16).ok()
}

fn slice_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("slice-{index}.bin"))
}

/// One checkpoint attempt: see the module docs for the protocol.
fn run_once(shared: &CheckpointerShared) -> std::io::Result<Option<u64>> {
    // A consistent checkpoint needs the snapshot mechanism: without it the
    // walk would read the live head of every record — a fuzzy cut that can
    // capture transactions beyond the eventual recovery horizon.
    if !shared.db.config().enable_snapshots {
        return Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "checkpointing requires enable_snapshots",
        ));
    }
    let mut last_epoch = lock(&shared.run_state);
    // Pin the chosen snapshot for the whole checkpoint: this worker's `se_w`
    // bounds the snapshot reclamation epoch, so no version the `ce` snapshot
    // can reach is freed while the writers re-pin table by table (each
    // writer's own pin has per-table gaps — registration, and the txn
    // boundary inside `begin_snapshot_at`).
    let mut pin_worker = shared.db.register_worker();
    let pin = pin_worker.begin_snapshot();
    let ce = pin.snapshot_epoch();
    if ce == 0 || ce <= *last_epoch {
        shared.stats.skipped.fetch_add(1, Ordering::Relaxed);
        return Ok(None);
    }
    let started = Instant::now();
    let root = &shared.config.root;
    let dir = checkpoint_dir(root, ce);
    // A leftover directory for this epoch can only be an earlier incomplete
    // attempt (complete ones bump `last_epoch`).
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;

    // Walk every table in parallel slices: a shared work queue of table ids,
    // one slice file per writer thread.
    let tables = shared.db.table_ids();
    let writers = shared.config.writers.clamp(1, tables.len().max(1));
    let next_table = AtomicUsize::new(0);
    let chunk = shared.config.chunk;
    // One pacer shared by every writer: the configured rate is a global
    // budget for the whole walk, not per-thread.
    let pacer = match shared.config.max_walk_bytes_per_sec {
        0 => None,
        rate => Some(silo_core::WalkPacer::new(rate)),
    };
    let fault = shared.config.fault.as_ref();
    let mut slices: Vec<(u64, u64)> = Vec::with_capacity(writers); // (bytes, records)
    let results: Vec<std::io::Result<(u64, u64)>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(writers);
        for w in 0..writers {
            let db = &shared.db;
            let tables = &tables;
            let next_table = &next_table;
            let pacer = pacer.as_ref();
            let path = slice_path(&dir, w);
            handles.push(scope.spawn(move || -> std::io::Result<(u64, u64)> {
                let file = std::fs::File::create(&path)?;
                let mut out = BufWriter::new(file);
                out.write_all(SLICE_MAGIC)?;
                let mut worker = db.register_worker();
                let mut bytes = SLICE_MAGIC.len() as u64;
                let mut records = 0u64;
                let mut staging = Vec::with_capacity(4096);
                let mut frame: Vec<u8> = Vec::with_capacity(SLICE_FRAME + 4096);
                loop {
                    let i = next_table.fetch_add(1, Ordering::Relaxed);
                    let Some(&table) = tables.get(i) else { break };
                    crash_point(fault, FaultSite::CkptSlice)?;
                    let mut snap = worker.begin_snapshot_at(ce);
                    let mut io_err: Option<std::io::Error> = None;
                    records += snap.scan_versions_paced(table, chunk, pacer, |key, tid, value| {
                        if io_err.is_some() {
                            return;
                        }
                        staging.clear();
                        staging.extend_from_slice(&table.to_le_bytes());
                        staging.extend_from_slice(&(key.len() as u32).to_le_bytes());
                        staging.extend_from_slice(key);
                        staging.extend_from_slice(&tid.raw().to_le_bytes());
                        staging.extend_from_slice(&(value.len() as u32).to_le_bytes());
                        staging.extend_from_slice(value);
                        if let Some(p) = pacer {
                            p.note(staging.len() as u64);
                        }
                        // Records never span frames, so the reader can verify
                        // a frame's checksum before parsing anything in it.
                        frame.extend_from_slice(&staging);
                        if frame.len() >= SLICE_FRAME {
                            match write_frame(&mut out, &frame) {
                                Ok(n) => bytes += n,
                                Err(e) => io_err = Some(e),
                            }
                            frame.clear();
                        }
                    });
                    snap.finish();
                    if let Some(e) = io_err {
                        return Err(e);
                    }
                }
                worker.quiesce();
                if !frame.is_empty() {
                    bytes += write_frame(&mut out, &frame)?;
                }
                out.flush()?;
                out.get_ref().sync_data()?;
                Ok((bytes, records))
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("checkpoint writer panicked"))
            .collect()
    });
    for result in results {
        match result {
            Ok(pair) => slices.push(pair),
            Err(e) => {
                // An injected crash simulates `kill -9`: leave the partial
                // slice directory behind exactly as a real crash would, so
                // recovery is exercised against the mess.
                if !crate::fault::is_injected_crash(&e) {
                    let _ = std::fs::remove_dir_all(&dir);
                }
                return Err(e);
            }
        }
    }
    // The walk is complete; release the snapshot pin before the durability
    // wait so an idle checkpoint epoch does not hold back reclamation.
    pin.finish();
    pin_worker.quiesce();

    // The checkpoint claims every transaction with epoch ≤ ce; only publish
    // it once the log guarantees that claim survives a crash.
    if !shared
        .logger
        .wait_for_durable(ce, shared.config.durable_timeout)
        .is_durable()
    {
        let _ = std::fs::remove_dir_all(&dir);
        shared.stats.failed.fetch_add(1, Ordering::Relaxed);
        return Ok(None);
    }

    crash_point(fault, FaultSite::CkptBeforeManifest)?;

    // Manifest written via temp file + rename: its presence is the atomic
    // "checkpoint complete" bit.
    let mut manifest = String::new();
    manifest.push_str("silo-checkpoint v2\n");
    manifest.push_str(&format!("epoch {ce}\n"));
    manifest.push_str(&format!("slices {}\n", slices.len()));
    for (i, (bytes, records)) in slices.iter().enumerate() {
        manifest.push_str(&format!("slice {i} {bytes} {records}\n"));
    }
    manifest.push_str("end\n");
    let tmp = dir.join("MANIFEST.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(manifest.as_bytes())?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, dir.join(MANIFEST))?;
    crash_point(fault, FaultSite::CkptAfterManifest)?;
    if let Ok(d) = std::fs::File::open(&dir) {
        let _ = d.sync_all();
    }

    crash_point(fault, FaultSite::CkptBeforeTruncate)?;

    // The checkpoint is durable: logs covering epochs ≤ ce are redundant.
    shared.logger.truncate_logs(ce);

    // Older checkpoints are superseded — but keep the newest complete
    // predecessor as a fallback should this checkpoint's slices rot on disk
    // before the next one lands. Everything older than that (and any stale
    // incomplete attempt) goes.
    if let Ok(entries) = std::fs::read_dir(checkpoints_root(root)) {
        let mut older: Vec<(u64, PathBuf)> = entries
            .flatten()
            .filter_map(|entry| {
                let name = entry.file_name();
                let epoch = parse_checkpoint_dir(name.to_str()?)?;
                (epoch < ce).then(|| (epoch, entry.path()))
            })
            .collect();
        older.sort_by_key(|(epoch, _)| *epoch);
        let fallback = older
            .iter()
            .rev()
            .find(|(_, path)| read_manifest(path).is_some())
            .map(|(epoch, _)| *epoch);
        for (epoch, path) in older {
            if Some(epoch) != fallback {
                let _ = std::fs::remove_dir_all(path);
            }
        }
    }

    let bytes: u64 = slices.iter().map(|(b, _)| *b).sum();
    let records: u64 = slices.iter().map(|(_, r)| *r).sum();
    let stats = &shared.stats;
    stats.completed.fetch_add(1, Ordering::Relaxed);
    stats.last_epoch.store(ce, Ordering::Relaxed);
    stats.last_records.store(records, Ordering::Relaxed);
    stats.last_bytes.store(bytes, Ordering::Relaxed);
    stats
        .last_micros
        .store(started.elapsed().as_micros() as u64, Ordering::Relaxed);
    stats.total_bytes.fetch_add(bytes, Ordering::Relaxed);
    *last_epoch = ce;
    Ok(Some(ce))
}

// ---------------------------------------------------------------------------
// Reading checkpoints back (recovery side)
// ---------------------------------------------------------------------------

/// A complete checkpoint found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// The checkpoint epoch: every transaction with epoch `≤` this value is
    /// reflected in the checkpoint.
    pub epoch: u64,
    /// The checkpoint directory.
    pub dir: PathBuf,
    /// Per-slice `(path, bytes, records)` as recorded by the manifest.
    pub slices: Vec<(PathBuf, u64, u64)>,
}

impl CheckpointInfo {
    /// Total bytes across all slices.
    pub fn bytes(&self) -> u64 {
        self.slices.iter().map(|(_, b, _)| *b).sum()
    }

    /// Total records across all slices.
    pub fn records(&self) -> u64 {
        self.slices.iter().map(|(_, _, r)| *r).sum()
    }
}

fn read_manifest(dir: &Path) -> Option<CheckpointInfo> {
    let text = std::fs::read_to_string(dir.join(MANIFEST)).ok()?;
    let mut lines = text.lines();
    if lines.next()? != "silo-checkpoint v2" {
        return None;
    }
    let epoch: u64 = lines.next()?.strip_prefix("epoch ")?.parse().ok()?;
    let count: usize = lines.next()?.strip_prefix("slices ")?.parse().ok()?;
    let mut slices = Vec::with_capacity(count);
    for line in lines {
        if line == "end" {
            if slices.len() != count {
                return None;
            }
            // Validate the slice files against the manifest: a slice that is
            // missing or short means the checkpoint must not be trusted.
            for (path, bytes, _) in &slices {
                let len = std::fs::metadata(path).ok()?.len();
                if len != *bytes {
                    return None;
                }
            }
            return Some(CheckpointInfo {
                epoch,
                dir: dir.to_path_buf(),
                slices,
            });
        }
        let rest = line.strip_prefix("slice ")?;
        let mut parts = rest.split(' ');
        let index: usize = parts.next()?.parse().ok()?;
        let bytes: u64 = parts.next()?.parse().ok()?;
        let records: u64 = parts.next()?.parse().ok()?;
        slices.push((slice_path(dir, index), bytes, records));
    }
    None
}

/// Every *complete* checkpoint (manifest present, slice lengths matching)
/// under the durability root `root`, newest first. Recovery walks this list
/// in order, falling back past any checkpoint whose slices fail
/// [`verify_checkpoint`].
pub fn complete_checkpoints(root: &Path) -> Vec<CheckpointInfo> {
    let Ok(entries) = std::fs::read_dir(checkpoints_root(root)) else {
        return Vec::new();
    };
    let mut found: Vec<CheckpointInfo> = entries
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name();
            parse_checkpoint_dir(name.to_str()?)?;
            read_manifest(&entry.path())
        })
        .collect();
    found.sort_by_key(|info| std::cmp::Reverse(info.epoch));
    found
}

/// Finds the most recent *complete* checkpoint under the durability root
/// `root` (the directory the logs are written to), if any.
pub fn latest_checkpoint(root: &Path) -> Option<CheckpointInfo> {
    complete_checkpoints(root).into_iter().next()
}

/// Reads every slice of `info` end to end without applying anything: each
/// slice must open with the magic, each CRC frame must checksum correctly
/// and every record must parse. A corrupt slice surfaces as the underlying
/// typed error, letting recovery report it and fall back to an older
/// checkpoint instead of loading silently-corrupted state.
pub fn verify_checkpoint(info: &CheckpointInfo) -> std::io::Result<()> {
    for (path, _, _) in &info.slices {
        let file = std::fs::File::open(path)?;
        let mut reader = SliceReader::new(BufReader::new(file))?;
        while reader.next_record()?.is_some() {}
    }
    Ok(())
}

/// One record streamed out of a checkpoint slice.
pub(crate) struct SliceRecord {
    pub table: silo_core::TableId,
    pub key: Vec<u8>,
    pub tid: Tid,
    pub value: Vec<u8>,
}

/// Writes one CRC frame `len u32 | crc32 u32 | payload`, returning the bytes
/// it added to the slice.
pub(crate) fn write_frame(out: &mut impl Write, payload: &[u8]) -> std::io::Result<u64> {
    out.write_all(&(payload.len() as u32).to_le_bytes())?;
    out.write_all(&crate::record::crc32(payload).to_le_bytes())?;
    out.write_all(payload)?;
    Ok(8 + payload.len() as u64)
}

/// Streams the records of one CRC-framed checkpoint slice. Unlike log
/// streams, slices were fsynced before the manifest was written, so any
/// malformation — a missing magic, truncation, a failed frame checksum, a
/// record spanning frames — is a hard error rather than a tolerated torn
/// tail.
pub(crate) struct SliceReader<R> {
    reader: R,
    /// The current checksum-verified frame.
    buf: Vec<u8>,
    pos: usize,
}

impl<R: Read> SliceReader<R> {
    /// Checks the slice's leading magic.
    pub(crate) fn new(mut reader: R) -> std::io::Result<Self> {
        let mut magic = [0u8; SLICE_MAGIC.len()];
        match reader.read_exact(&mut magic) {
            Ok(()) if &magic == SLICE_MAGIC => {}
            Err(e) if e.kind() != std::io::ErrorKind::UnexpectedEof => return Err(e),
            _ => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "checkpoint slice lacks the SILOSLC2 magic",
                ))
            }
        }
        Ok(SliceReader {
            reader,
            buf: Vec::new(),
            pos: 0,
        })
    }

    /// Loads and checksum-verifies the next frame. `Ok(false)` at clean
    /// end of slice.
    fn next_frame(&mut self) -> std::io::Result<bool> {
        let mut head = [0u8; 8];
        if !read_exact_or_eof(&mut self.reader, &mut head)? {
            return Ok(false);
        }
        let len = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
        self.buf.resize(len, 0);
        self.reader.read_exact(&mut self.buf)?;
        if crate::record::crc32(&self.buf) != crc {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "checkpoint slice frame failed checksum verification",
            ));
        }
        self.pos = 0;
        Ok(true)
    }

    /// Reads exactly `out.len()` record bytes. `at_boundary` permits a clean
    /// end of slice *before* any byte is read (between records).
    fn read_record_bytes(&mut self, out: &mut [u8], at_boundary: bool) -> std::io::Result<bool> {
        if out.is_empty() {
            return Ok(true);
        }
        while self.pos == self.buf.len() {
            if !self.next_frame()? {
                if at_boundary {
                    return Ok(false);
                }
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "checkpoint slice truncated mid-record",
                ));
            }
        }
        let end = self.pos + out.len();
        let Some(chunk) = self.buf.get(self.pos..end) else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "checkpoint slice record spans CRC frames",
            ));
        };
        out.copy_from_slice(chunk);
        self.pos = end;
        Ok(true)
    }

    pub(crate) fn next_record(&mut self) -> std::io::Result<Option<SliceRecord>> {
        let mut head = [0u8; 8];
        // table + key_len, tolerating clean EOF only at a record boundary.
        if !self.read_record_bytes(&mut head, true)? {
            return Ok(None);
        }
        let table = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes"));
        let key_len = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes")) as usize;
        let mut key = vec![0u8; key_len];
        self.read_record_bytes(&mut key, false)?;
        let mut tail = [0u8; 12];
        self.read_record_bytes(&mut tail, false)?;
        let tid = Tid::from_raw(u64::from_le_bytes(tail[0..8].try_into().expect("8 bytes")));
        let val_len = u32::from_le_bytes(tail[8..12].try_into().expect("4 bytes")) as usize;
        let mut value = vec![0u8; val_len];
        self.read_record_bytes(&mut value, false)?;
        Ok(Some(SliceRecord {
            table,
            key,
            tid,
            value,
        }))
    }
}

/// Reads exactly `buf.len()` bytes, or returns `Ok(false)` when the source is
/// already exhausted (0 bytes read). A partial read is an error.
fn read_exact_or_eof(reader: &mut impl Read, buf: &mut [u8]) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "checkpoint slice truncated mid-record",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Loads a checkpoint into `db` with up to `threads` concurrent slice
/// loaders. The database's tables must already be recreated (with the same
/// ids as before the crash). Returns `(records, bytes)` loaded.
pub(crate) fn load_checkpoint(
    db: &Arc<Database>,
    info: &CheckpointInfo,
    threads: usize,
) -> Result<(u64, u64), crate::RecoveryError> {
    let threads = threads.clamp(1, info.slices.len().max(1));
    let next_slice = AtomicUsize::new(0);
    let results: Vec<Result<(u64, u64), crate::RecoveryError>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let next_slice = &next_slice;
            let info = &info;
            handles.push(
                scope.spawn(move || -> Result<(u64, u64), crate::RecoveryError> {
                    let mut records = 0u64;
                    let mut bytes = 0u64;
                    loop {
                        let i = next_slice.fetch_add(1, Ordering::Relaxed);
                        let Some((path, slice_bytes, _)) = info.slices.get(i) else {
                            return Ok((records, bytes));
                        };
                        let file = std::fs::File::open(path)?;
                        let mut reader = SliceReader::new(BufReader::new(file))?;
                        while let Some(record) = reader.next_record()? {
                            let table = db.try_table(record.table).ok_or_else(|| {
                                crate::RecoveryError::Apply(format!(
                                "table id {} does not exist; recreate the schema before recovery",
                                record.table
                            ))
                            })?;
                            // SAFETY: recovery-mode exclusivity — no transactions
                            // run during recovery, and checkpoint slices never
                            // repeat a key (each key is scanned exactly once), so
                            // no two loaders touch the same key.
                            unsafe {
                                silo_core::bulk_apply(
                                    &table,
                                    &record.key,
                                    record.tid,
                                    Some(&record.value),
                                );
                            }
                            records += 1;
                        }
                        bytes += slice_bytes;
                    }
                }),
            );
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("checkpoint loader panicked"))
            .collect()
    });
    let mut records = 0;
    let mut bytes = 0;
    for result in results {
        let (r, b) = result?;
        records += r;
        bytes += b;
    }
    Ok((records, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_roundtrip_and_incomplete_detection() {
        let root = std::env::temp_dir().join(format!("silo-ckpt-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = checkpoint_dir(&root, 42);
        std::fs::create_dir_all(&dir).unwrap();
        let mut slice = SLICE_MAGIC.to_vec();
        let payload: Vec<u8> = (0..3u8)
            .flat_map(|k| slice_record(1, &[k], 7, b"v"))
            .collect();
        write_frame(&mut slice, &payload).unwrap();
        std::fs::write(slice_path(&dir, 0), &slice).unwrap();
        assert!(
            latest_checkpoint(&root).is_none(),
            "no manifest means no checkpoint"
        );
        std::fs::write(
            dir.join(MANIFEST),
            format!(
                "silo-checkpoint v2\nepoch 42\nslices 1\nslice 0 {} 3\nend\n",
                slice.len()
            ),
        )
        .unwrap();
        let info = latest_checkpoint(&root).expect("complete checkpoint");
        assert_eq!(info.epoch, 42);
        assert_eq!(info.bytes(), slice.len() as u64);
        assert_eq!(info.records(), 3);

        // A slice shorter than the manifest claims invalidates the checkpoint.
        std::fs::write(slice_path(&dir, 0), &slice[..slice.len() - 4]).unwrap();
        assert!(latest_checkpoint(&root).is_none());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn latest_checkpoint_picks_max_epoch() {
        let root = std::env::temp_dir().join(format!("silo-ckpt-latest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for epoch in [7u64, 19, 12] {
            let dir = checkpoint_dir(&root, epoch);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(
                dir.join(MANIFEST),
                format!("silo-checkpoint v2\nepoch {epoch}\nslices 0\nend\n"),
            )
            .unwrap();
        }
        assert_eq!(latest_checkpoint(&root).unwrap().epoch, 19);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Builds one staging record in the slice wire format.
    fn slice_record(table: u32, key: &[u8], tid: u64, value: &[u8]) -> Vec<u8> {
        let mut rec = Vec::new();
        rec.extend_from_slice(&table.to_le_bytes());
        rec.extend_from_slice(&(key.len() as u32).to_le_bytes());
        rec.extend_from_slice(key);
        rec.extend_from_slice(&tid.to_le_bytes());
        rec.extend_from_slice(&(value.len() as u32).to_le_bytes());
        rec.extend_from_slice(value);
        rec
    }

    #[test]
    fn framed_slice_roundtrip_and_bit_flip_detection() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&slice_record(1, b"alice", 77, b"100"));
        payload.extend_from_slice(&slice_record(2, b"", 78, b""));
        let mut slice = SLICE_MAGIC.to_vec();
        write_frame(&mut slice, &payload).unwrap();

        let mut reader = SliceReader::new(std::io::Cursor::new(slice.clone())).unwrap();
        let first = reader.next_record().unwrap().expect("first record");
        assert_eq!(
            (first.table, first.key.as_slice()),
            (1, b"alice".as_slice())
        );
        assert_eq!(
            (first.tid.raw(), first.value.as_slice()),
            (77, b"100".as_slice())
        );
        let second = reader.next_record().unwrap().expect("empty key and value");
        assert_eq!(
            (second.table, second.key.len(), second.value.len()),
            (2, 0, 0)
        );
        assert!(
            reader.next_record().unwrap().is_none(),
            "clean end of slice"
        );

        // Any flipped bit in the frame payload is a typed error, not garbage.
        let mut corrupt = slice.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x04;
        let mut reader = SliceReader::new(std::io::Cursor::new(corrupt)).unwrap();
        let err = loop {
            match reader.next_record() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("corruption must not pass as a clean end"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn magic_less_slices_and_v1_manifests_are_skipped_by_recovery() {
        // A bare record stream without the magic, as older builds wrote.
        let bare = slice_record(0, b"k", silo_core::Tid::new(5, 1).raw(), b"bare");
        for slice in [bare.clone(), Vec::new(), b"SILO".to_vec()] {
            let err = SliceReader::new(std::io::Cursor::new(slice))
                .err()
                .expect("a slice without the magic is rejected");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }

        let root = std::env::temp_dir().join(format!("silo-ckpt-v1-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let write_ckpt = |epoch: u64, version: &str, slice: &[u8]| {
            let dir = checkpoint_dir(&root, epoch);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(slice_path(&dir, 0), slice).unwrap();
            std::fs::write(
                dir.join(MANIFEST),
                format!(
                    "silo-checkpoint {version}\nepoch {epoch}\nslices 1\nslice 0 {} 1\nend\n",
                    slice.len()
                ),
            )
            .unwrap();
        };
        let mut good = SLICE_MAGIC.to_vec();
        let good_tid = silo_core::Tid::new(3, 1).raw();
        write_frame(&mut good, &slice_record(0, b"k", good_tid, b"good")).unwrap();
        write_ckpt(3, "v2", &good);
        // A v2 manifest over a magic-less slice fails verification ...
        write_ckpt(5, "v2", &bare);
        // ... and a v1 manifest does not even make a complete checkpoint.
        write_ckpt(7, "v1", &bare);
        let epochs: Vec<u64> = complete_checkpoints(&root)
            .iter()
            .map(|c| c.epoch)
            .collect();
        assert_eq!(epochs, vec![5, 3]);

        let db = Database::open(silo_core::SiloConfig::for_testing());
        db.create_table("t").unwrap();
        let report =
            crate::recover_directory(&db, &root, &crate::RecoveryOptions::default()).unwrap();
        assert_eq!(report.checkpoints_skipped, 1);
        assert_eq!(report.checkpoint_epoch, 3);
        let mut w = db.register_worker();
        let mut txn = w.begin();
        assert_eq!(txn.read(0, b"k").unwrap(), Some(b"good".to_vec()));
        txn.commit().unwrap();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn verify_checkpoint_flags_a_corrupt_slice() {
        let root = std::env::temp_dir().join(format!("silo-ckpt-verify-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = checkpoint_dir(&root, 5);
        std::fs::create_dir_all(&dir).unwrap();
        let mut slice = SLICE_MAGIC.to_vec();
        write_frame(&mut slice, &slice_record(1, b"key", 11, b"value")).unwrap();
        std::fs::write(slice_path(&dir, 0), &slice).unwrap();
        std::fs::write(
            dir.join(MANIFEST),
            format!(
                "silo-checkpoint v2\nepoch 5\nslices 1\nslice 0 {} 1\nend\n",
                slice.len()
            ),
        )
        .unwrap();
        let info = latest_checkpoint(&root).expect("complete checkpoint");
        verify_checkpoint(&info).expect("intact slices verify");

        // Flip one payload bit (keeping the length, so the manifest check
        // still passes) — verification must now fail.
        slice[SLICE_MAGIC.len() + 8] ^= 0x01;
        std::fs::write(slice_path(&dir, 0), &slice).unwrap();
        assert!(verify_checkpoint(&info).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn complete_checkpoints_lists_newest_first() {
        let root = std::env::temp_dir().join(format!("silo-ckpt-complete-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for epoch in [4u64, 9, 6] {
            let dir = checkpoint_dir(&root, epoch);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(
                dir.join(MANIFEST),
                format!("silo-checkpoint v2\nepoch {epoch}\nslices 0\nend\n"),
            )
            .unwrap();
        }
        // An incomplete attempt (no manifest) is not listed.
        std::fs::create_dir_all(checkpoint_dir(&root, 11)).unwrap();
        let epochs: Vec<u64> = complete_checkpoints(&root)
            .iter()
            .map(|c| c.epoch)
            .collect();
        assert_eq!(epochs, vec![9, 6, 4]);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
