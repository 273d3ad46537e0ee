//! Crash recovery: reconstruct a database state from a checkpoint plus the
//! redo-log tail (paper §4.10 "To recover, Silo would read the most recent
//! `d_l` for each logger, compute `D = min d_l`, and then replay the logs,
//! ignoring entries for transactions whose TIDs are from epochs after `D`.").
//!
//! With checkpoints the horizon story becomes: load the latest *complete*
//! checkpoint (epoch `ce`; every transaction with epoch `≤ ce` is reflected
//! in it), compute the durable epoch `D = max(ce, min_l max-marker)` from the
//! surviving log segments, and replay exactly the transactions with
//! `ce < epoch(tid) ≤ D` — the log *tail*. Replay fans out across worker
//! threads: one streaming decoder per logger feeds writes, sharded by key
//! hash, to appliers that resolve conflicts by TID ([`silo_core::bulk_apply`]),
//! so records of the same key are always applied in TID order no matter which
//! stream they came from. Nothing is ever loaded whole-file into memory.

use std::collections::HashMap;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use silo_core::{Database, TableId, Tid};

use crate::record::{Block, DecodeError, StreamDecoder};
use crate::sink::parse_segment_name;

/// The state reconstructed from a set of log streams before it is applied.
#[derive(Debug, Default)]
pub struct RecoveredState {
    /// The recovery horizon: transactions with epochs `≤ durable_epoch` were
    /// replayed.
    pub durable_epoch: u64,
    /// Number of logged transactions that fell inside the horizon.
    pub replayed_txns: u64,
    /// Number of logged transactions ignored because their epoch was after
    /// the horizon.
    pub skipped_txns: u64,
    /// The latest surviving write per (table, key): value (or `None` for a
    /// delete) together with the TID that produced it.
    pub latest: HashMap<(TableId, Vec<u8>), (Tid, Option<Vec<u8>>)>,
    /// Streams that ended at a malformed block (failed checksum, bad tag)
    /// rather than a clean or torn-tail end. The malformed suffix is treated
    /// as the torn tail of §4.10 — ignored, never replayed.
    pub corrupt_tails: u64,
}

/// Errors produced during recovery.
#[derive(Debug)]
pub enum RecoveryError {
    /// A log stream could not be decoded.
    Decode(DecodeError),
    /// A log file could not be read.
    Io(std::io::Error),
    /// Applying the recovered state to the database failed (e.g. the schema
    /// was not recreated before recovery).
    Apply(String),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Decode(e) => write!(f, "log decode error: {e}"),
            RecoveryError::Io(e) => write!(f, "log read error: {e}"),
            RecoveryError::Apply(e) => write!(f, "recovery apply error: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<DecodeError> for RecoveryError {
    fn from(e: DecodeError) -> Self {
        RecoveryError::Decode(e)
    }
}

impl From<std::io::Error> for RecoveryError {
    fn from(e: std::io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

/// Decodes the next block leniently: a malformed block (failed checksum, bad
/// length, unknown tag) ends the stream — it is the corrupt tail of §4.10,
/// everything durably acknowledged precedes it — instead of failing recovery.
/// Real I/O errors still propagate; corruption is recorded in `corrupt`.
fn next_block_lenient<R: std::io::Read>(
    decoder: &mut StreamDecoder<R>,
    corrupt: &mut bool,
) -> Result<Option<Block>, RecoveryError> {
    match decoder.next_block() {
        Ok(block) => Ok(block),
        Err(e @ DecodeError::Io(_)) => Err(e.into()),
        Err(_) => {
            *corrupt = true;
            Ok(None)
        }
    }
}

/// The largest durable-epoch marker a stream of blocks contains, plus whether
/// the stream ended at a corrupt block. Transaction payloads are parsed but
/// not materialized.
fn stream_durable(
    mut decoder: StreamDecoder<impl std::io::Read>,
) -> Result<(u64, bool), RecoveryError> {
    let mut durable = 0u64;
    let mut corrupt = false;
    while let Some(block) = next_block_lenient(&mut decoder, &mut corrupt)? {
        if let Block::EpochMarker(e) = block {
            durable = durable.max(e);
        }
    }
    Ok((durable, corrupt))
}

/// Folds one stream's transactions (with `epoch ≤ durable_epoch`) into the
/// recovered state, resolving same-key conflicts by TID.
fn fold_stream(
    mut decoder: StreamDecoder<impl std::io::Read>,
    durable_epoch: u64,
    state: &mut RecoveredState,
) -> Result<(), RecoveryError> {
    // Corruption was already counted by the horizon pre-scan over the same
    // stream; here it just ends the fold.
    let mut corrupt = false;
    while let Some(block) = next_block_lenient(&mut decoder, &mut corrupt)? {
        let Block::Txn(txn) = block else { continue };
        if txn.tid.epoch() > durable_epoch {
            state.skipped_txns += 1;
            continue;
        }
        state.replayed_txns += 1;
        for write in txn.writes {
            let entry = state
                .latest
                .entry((write.table, write.key))
                .or_insert((Tid::ZERO, None));
            // Log records for the same record must be applied in TID
            // order; scanning applies only the one with the largest TID.
            if txn.tid >= entry.0 {
                *entry = (txn.tid, write.value);
            }
        }
    }
    Ok(())
}

/// Scans the log streams and builds the recovered state without applying it.
///
/// `streams` holds the raw contents of each logger's stream. The durable
/// epoch is the minimum over the streams of each stream's most recent
/// durable-epoch marker; transactions from later epochs are ignored, and log
/// records for the same key are resolved in TID order.
pub fn scan_streams(streams: &[Vec<u8>]) -> Result<RecoveredState, RecoveryError> {
    let mut corrupt_tails = 0u64;
    let mut min_marker: Option<u64> = None;
    for stream in streams {
        let (durable, corrupt) = stream_durable(StreamDecoder::new_skipping(stream.as_slice()))?;
        corrupt_tails += corrupt as u64;
        min_marker = Some(min_marker.map_or(durable, |m: u64| m.min(durable)));
    }
    let durable_epoch = min_marker.unwrap_or(0);
    let mut state = RecoveredState {
        durable_epoch,
        corrupt_tails,
        ..Default::default()
    };
    for stream in streams {
        fold_stream(
            StreamDecoder::new(stream.as_slice()),
            durable_epoch,
            &mut state,
        )?;
    }
    Ok(state)
}

/// The log files under `dir`, grouped into one logical stream per logger:
/// segments in sequence order. Returned as `(logger_index, paths)` sorted by
/// logger.
fn log_streams(dir: &Path) -> Result<Vec<(usize, Vec<PathBuf>)>, std::io::Error> {
    let mut by_logger: HashMap<usize, Vec<(u64, PathBuf)>> = HashMap::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some((logger, seq)) = parse_segment_name(name) {
            by_logger
                .entry(logger)
                .or_default()
                .push((seq, entry.path()));
        }
    }
    let mut streams: Vec<(usize, Vec<PathBuf>)> = by_logger
        .into_iter()
        .map(|(logger, mut files)| {
            files.sort();
            (logger, files.into_iter().map(|(_, p)| p).collect())
        })
        .collect();
    streams.sort();
    Ok(streams)
}

/// A reader chaining a logger's segment files into one logical stream.
struct ChainedFiles {
    paths: std::vec::IntoIter<PathBuf>,
    current: Option<BufReader<std::fs::File>>,
}

impl ChainedFiles {
    fn new(paths: Vec<PathBuf>) -> Self {
        ChainedFiles {
            paths: paths.into_iter(),
            current: None,
        }
    }
}

impl std::io::Read for ChainedFiles {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            if let Some(reader) = &mut self.current {
                let n = reader.read(buf)?;
                if n > 0 {
                    return Ok(n);
                }
            }
            match self.paths.next() {
                Some(path) => {
                    self.current = Some(BufReader::new(std::fs::File::open(path)?));
                }
                None => return Ok(0),
            }
        }
    }
}

/// Reads the log files under `dir` (as written by
/// [`crate::LogDestination::Directory`]) and builds the recovered state,
/// streaming each file instead of loading it whole. A logger's segments form
/// one logical stream.
pub fn scan_directory(dir: &Path) -> Result<RecoveredState, RecoveryError> {
    let streams = log_streams(dir)?;
    let mut corrupt_tails = 0u64;
    let mut min_marker: Option<u64> = None;
    for (_, paths) in &streams {
        let (durable, corrupt) = stream_durable(StreamDecoder::new_skipping(ChainedFiles::new(
            paths.clone(),
        )))?;
        corrupt_tails += corrupt as u64;
        min_marker = Some(min_marker.map_or(durable, |m: u64| m.min(durable)));
    }
    let durable_epoch = min_marker.unwrap_or(0);
    let mut state = RecoveredState {
        durable_epoch,
        corrupt_tails,
        ..Default::default()
    };
    for (_, paths) in streams {
        fold_stream(
            StreamDecoder::new(ChainedFiles::new(paths)),
            durable_epoch,
            &mut state,
        )?;
    }
    Ok(state)
}

/// Applies a recovered state to a freshly opened database whose tables have
/// already been recreated (with the same [`TableId`]s as before the crash).
///
/// Returns the number of keys installed. Deletes in the recovered state are
/// simply not installed (the database starts empty).
pub fn apply_recovered(db: &Arc<Database>, state: &RecoveredState) -> Result<u64, RecoveryError> {
    let mut worker = db.register_worker();
    let mut installed = 0u64;
    let mut batch = 0usize;
    let mut txn = worker.begin();
    for ((table, key), (_tid, value)) in &state.latest {
        let Some(value) = value else { continue };
        if db.try_table(*table).is_none() {
            return Err(RecoveryError::Apply(format!(
                "table id {table} does not exist; recreate the schema before recovery"
            )));
        }
        txn.write(*table, key, value)
            .map_err(|e| RecoveryError::Apply(e.to_string()))?;
        installed += 1;
        batch += 1;
        if batch >= 512 {
            txn.commit()
                .map_err(|e| RecoveryError::Apply(e.to_string()))?;
            txn = worker.begin();
            batch = 0;
        }
    }
    txn.commit()
        .map_err(|e| RecoveryError::Apply(e.to_string()))?;
    Ok(installed)
}

/// One-call recovery: scan `streams` and apply the surviving writes to `db`.
pub fn recover_into(
    db: &Arc<Database>,
    streams: &[Vec<u8>],
) -> Result<RecoveredState, RecoveryError> {
    let state = scan_streams(streams)?;
    apply_recovered(db, &state)?;
    Ok(state)
}

// ---------------------------------------------------------------------------
// Checkpoint-aware parallel recovery
// ---------------------------------------------------------------------------

/// Knobs for [`recover_directory`].
#[derive(Debug, Clone)]
pub struct RecoveryOptions {
    /// Worker threads used both to load checkpoint slices and to apply
    /// replayed log writes (one streaming decoder additionally runs per log
    /// stream).
    pub replay_threads: usize,
    /// Sweep absent records (delete tombstones and recovered final deletes)
    /// out of the indexes once replay completes, instead of leaving them
    /// hooked until some future write touches their keys.
    pub sweep_tombstones: bool,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            replay_threads: 4,
            sweep_tombstones: true,
        }
    }
}

/// What [`recover_directory`] did, with enough detail to reason about restart
/// time: how much came from the checkpoint, how much log tail was replayed,
/// and how long each phase took.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Epoch of the checkpoint restored (0 = no checkpoint found).
    pub checkpoint_epoch: u64,
    /// Records restored from the checkpoint.
    pub checkpoint_records: u64,
    /// Checkpoint bytes read.
    pub checkpoint_bytes: u64,
    /// Wall-clock microseconds loading the checkpoint.
    pub checkpoint_micros: u64,
    /// The recovered durable horizon `D`: every transaction with
    /// `epoch ≤ D` is restored; nothing newer is.
    pub durable_epoch: u64,
    /// Log-tail transactions replayed (`checkpoint_epoch < epoch ≤ D`).
    pub replayed_txns: u64,
    /// Individual writes applied during replay.
    pub replayed_writes: u64,
    /// Transactions skipped because their epoch was beyond the horizon.
    pub skipped_txns: u64,
    /// Transactions skipped because the checkpoint already covers their epoch
    /// (their segments simply had not been truncated yet).
    pub covered_txns: u64,
    /// Log bytes scanned during replay (the surviving segments — the tail).
    pub log_bytes_scanned: u64,
    /// Number of surviving log files scanned.
    pub log_files: u64,
    /// Wall-clock microseconds replaying the log tail (includes the horizon
    /// pre-scan).
    pub replay_micros: u64,
    /// Absent records (delete tombstones, superseded deleted keys) unhooked
    /// and freed by the post-replay sweep.
    pub tombstones_reclaimed: u64,
    /// Log streams whose tail was malformed (failed checksum, bad tag) and
    /// treated as the torn tail of §4.10 — ignored past the last good block.
    pub corrupt_log_tails: u64,
    /// Complete-looking checkpoints that failed slice verification and were
    /// skipped in favor of an older one.
    pub checkpoints_skipped: u64,
}

/// One write routed from a log decoder to a shard applier.
struct ReplayOp {
    table: TableId,
    key: Vec<u8>,
    tid: Tid,
    /// `None` for a delete.
    value: Option<Vec<u8>>,
}

fn shard_of(table: TableId, key: &[u8], shards: usize) -> usize {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    table.hash(&mut hasher);
    key.hash(&mut hasher);
    (hasher.finish() % shards as u64) as usize
}

/// Full crash recovery from a durability root directory: restores the latest
/// complete checkpoint (slices loaded concurrently), then replays the log
/// tail — streaming decoders, one per logger stream, fan writes out to
/// `replay_threads` appliers sharded by key hash, with TID-based conflict
/// resolution — and finally fast-forwards the epoch manager past the
/// recovered horizon so post-recovery commits (and their log records) sort
/// after everything recovered.
///
/// The database must be freshly opened with its tables recreated (same
/// [`TableId`]s as before the crash) and no concurrent transactional access.
///
/// The horizon is the minimum over **all** streams found under `dir` —
/// including streams of logger indices a previous run used but a
/// reconfigured run no longer writes. Such stale streams cap the horizon at
/// their final durable marker until a checkpoint truncates them (live sinks
/// adopt orphan streams at install, so the first durable checkpoint reclaims
/// them); keep the logger count stable across restarts, or checkpoint
/// promptly after shrinking it, to avoid under-recovering a later crash.
pub fn recover_directory(
    db: &Arc<Database>,
    dir: &Path,
    options: &RecoveryOptions,
) -> Result<RecoveryReport, RecoveryError> {
    let threads = options.replay_threads.max(1);
    let mut report = RecoveryReport::default();

    // Phase 1: the checkpoint. Checkpoints are tried newest first; one whose
    // slices fail checksum verification is skipped in favor of the next
    // complete one (the checkpointer keeps the previous complete checkpoint
    // around as exactly this fallback) rather than loaded as garbage.
    let ckpt_start = Instant::now();
    for info in crate::checkpoint::complete_checkpoints(dir) {
        if let Err(e) = crate::checkpoint::verify_checkpoint(&info) {
            eprintln!(
                "silo-log: checkpoint at epoch {} failed verification ({e}); \
                 falling back to an older checkpoint",
                info.epoch
            );
            report.checkpoints_skipped += 1;
            continue;
        }
        let (records, bytes) = crate::checkpoint::load_checkpoint(db, &info, threads)?;
        report.checkpoint_epoch = info.epoch;
        report.checkpoint_records = records;
        report.checkpoint_bytes = bytes;
        report.checkpoint_micros = ckpt_start.elapsed().as_micros() as u64;
        break;
    }
    let ce = report.checkpoint_epoch;

    // Phase 2: the log tail.
    let replay_start = Instant::now();
    let streams = log_streams(dir)?;
    report.log_files = streams.iter().map(|(_, paths)| paths.len() as u64).sum();

    // Horizon pre-scan (parallel, skipping payloads): per-stream max marker.
    let per_stream: Vec<Result<(u64, bool), RecoveryError>> = std::thread::scope(|scope| {
        streams
            .iter()
            .map(|(_, paths)| {
                let paths = paths.clone();
                scope.spawn(move || {
                    stream_durable(StreamDecoder::new_skipping(ChainedFiles::new(paths)))
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("horizon scanner panicked"))
            .collect()
    });
    let mut min_marker: Option<u64> = None;
    for result in per_stream {
        let (durable, corrupt) = result?;
        report.corrupt_log_tails += corrupt as u64;
        min_marker = Some(min_marker.map_or(durable, |m: u64| m.min(durable)));
    }
    let durable_epoch = min_marker.unwrap_or(0).max(ce);
    report.durable_epoch = durable_epoch;

    // Replay fan-out: one decoder per stream, `threads` shard appliers.
    const BATCH: usize = 128;
    let replayed = AtomicU64::new(0);
    let skipped = AtomicU64::new(0);
    let covered = AtomicU64::new(0);
    let bytes_scanned = AtomicU64::new(0);
    let (decoder_results, applier_results) = std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(threads);
        let mut applier_handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (tx, rx) = std::sync::mpsc::channel::<Vec<ReplayOp>>();
            senders.push(tx);
            let db = Arc::clone(db);
            applier_handles.push(scope.spawn(move || -> Result<u64, RecoveryError> {
                let mut applied = 0u64;
                while let Ok(batch) = rx.recv() {
                    for op in batch {
                        let table = db.try_table(op.table).ok_or_else(|| {
                            RecoveryError::Apply(format!(
                                "table id {} does not exist; recreate the schema before recovery",
                                op.table
                            ))
                        })?;
                        // SAFETY: recovery-mode exclusivity — no transactions
                        // run during recovery, and sharding by key hash means
                        // no other applier ever touches this key.
                        unsafe {
                            silo_core::bulk_apply(&table, &op.key, op.tid, op.value.as_deref());
                        }
                        applied += 1;
                    }
                }
                Ok(applied)
            }));
        }

        let mut decoder_handles = Vec::with_capacity(streams.len());
        for (_, paths) in &streams {
            let paths = paths.clone();
            let senders = senders.clone();
            let replayed = &replayed;
            let skipped = &skipped;
            let covered = &covered;
            let bytes_scanned = &bytes_scanned;
            decoder_handles.push(scope.spawn(move || -> Result<(), RecoveryError> {
                let mut decoder = StreamDecoder::new(ChainedFiles::new(paths));
                let mut batches: Vec<Vec<ReplayOp>> = (0..senders.len())
                    .map(|_| Vec::with_capacity(BATCH))
                    .collect();
                // Corruption was counted by the pre-scan; here it ends replay
                // of this stream at the same point the pre-scan stopped.
                let mut corrupt = false;
                while let Some(block) = next_block_lenient(&mut decoder, &mut corrupt)? {
                    let Block::Txn(txn) = block else { continue };
                    let epoch = txn.tid.epoch();
                    if epoch <= ce {
                        covered.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if epoch > durable_epoch {
                        skipped.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    replayed.fetch_add(1, Ordering::Relaxed);
                    for write in txn.writes {
                        let shard = shard_of(write.table, &write.key, senders.len());
                        batches[shard].push(ReplayOp {
                            table: write.table,
                            key: write.key,
                            tid: txn.tid,
                            value: write.value,
                        });
                        if batches[shard].len() >= BATCH {
                            let batch =
                                std::mem::replace(&mut batches[shard], Vec::with_capacity(BATCH));
                            let _ = senders[shard].send(batch);
                        }
                    }
                }
                for (shard, batch) in batches.into_iter().enumerate() {
                    if !batch.is_empty() {
                        let _ = senders[shard].send(batch);
                    }
                }
                bytes_scanned.fetch_add(decoder.bytes_consumed(), Ordering::Relaxed);
                Ok(())
            }));
        }
        // Applier receivers terminate when the last sender clone is dropped.
        drop(senders);
        let decoder_results: Vec<Result<(), RecoveryError>> = decoder_handles
            .into_iter()
            .map(|h| h.join().expect("replay decoder panicked"))
            .collect();
        let applier_results: Vec<Result<u64, RecoveryError>> = applier_handles
            .into_iter()
            .map(|h| h.join().expect("replay applier panicked"))
            .collect();
        (decoder_results, applier_results)
    });
    for result in decoder_results {
        result?;
    }
    for result in applier_results {
        report.replayed_writes += result?;
    }
    report.replayed_txns = replayed.load(Ordering::Relaxed);
    report.skipped_txns = skipped.load(Ordering::Relaxed);
    report.covered_txns = covered.load(Ordering::Relaxed);
    report.log_bytes_scanned = bytes_scanned.load(Ordering::Relaxed);
    report.replay_micros = replay_start.elapsed().as_micros() as u64;

    // Phase 2.5: reclaim tombstones. Replay installs absent records (delete
    // tombstones for unseen keys; final deletes of checkpointed keys) that
    // would otherwise stay hooked in the index until a future write happens
    // to touch them. Recovery still holds exclusive access, so they can be
    // unhooked and freed directly, one table per thread.
    if options.sweep_tombstones {
        let table_ids = db.table_ids();
        let next = AtomicU64::new(0);
        let reclaimed = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads.min(table_ids.len().max(1)) {
                let next = &next;
                let reclaimed = &reclaimed;
                let table_ids = &table_ids;
                let db = Arc::clone(db);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                    let Some(&table) = table_ids.get(i) else {
                        break;
                    };
                    let table = db.table(table);
                    // SAFETY: recovery-mode exclusivity — replay finished and
                    // no transactional workers run yet; each table is swept
                    // by exactly one thread.
                    let n = unsafe { silo_core::sweep_absent(&table) };
                    reclaimed.fetch_add(n, Ordering::Relaxed);
                });
            }
        });
        report.tombstones_reclaimed = reclaimed.load(Ordering::Relaxed);
    }

    // Phase 3: fast-forward the epochs past everything recovered, far enough
    // that the next snapshot epoch covers the whole recovered state (§4.9:
    // `SE = snap(E − k)`); post-recovery commits, markers and snapshots all
    // sort after the recovered horizon.
    let k = db.epochs().config().snapshot_interval_epochs;
    db.epochs().advance_to(durable_epoch + 2 * k);

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{encode_epoch_marker, encode_txn};
    use silo_core::SiloConfig;

    fn txn_block(tid: Tid, table: TableId, key: &[u8], value: Option<&[u8]>) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_txn(&mut buf, tid, &[(table, key, value)], false);
        buf
    }

    #[test]
    fn durable_epoch_is_min_across_streams() {
        let mut s1 = Vec::new();
        encode_epoch_marker(&mut s1, 5);
        encode_epoch_marker(&mut s1, 9);
        let mut s2 = Vec::new();
        encode_epoch_marker(&mut s2, 7);
        let state = scan_streams(&[s1, s2]).unwrap();
        assert_eq!(state.durable_epoch, 7);
    }

    #[test]
    fn transactions_after_horizon_are_skipped() {
        let mut s = Vec::new();
        s.extend(txn_block(Tid::new(3, 1), 0, b"a", Some(b"old")));
        s.extend(txn_block(Tid::new(9, 1), 0, b"a", Some(b"too-new")));
        encode_epoch_marker(&mut s, 5);
        let state = scan_streams(&[s]).unwrap();
        assert_eq!(state.durable_epoch, 5);
        assert_eq!(state.replayed_txns, 1);
        assert_eq!(state.skipped_txns, 1);
        assert_eq!(
            state.latest.get(&(0, b"a".to_vec())).unwrap().1.as_deref(),
            Some(b"old".as_ref())
        );
    }

    #[test]
    fn same_key_resolves_to_largest_tid() {
        let mut s = Vec::new();
        s.extend(txn_block(Tid::new(2, 7), 1, b"k", Some(b"v2")));
        s.extend(txn_block(Tid::new(2, 3), 1, b"k", Some(b"v1")));
        s.extend(txn_block(Tid::new(3, 1), 1, b"k", None));
        encode_epoch_marker(&mut s, 10);
        let state = scan_streams(&[s]).unwrap();
        let (tid, value) = state.latest.get(&(1, b"k".to_vec())).unwrap();
        assert_eq!(*tid, Tid::new(3, 1));
        assert_eq!(*value, None, "the delete is the newest action");
    }

    #[test]
    fn empty_streams_recover_nothing() {
        let state = scan_streams(&[]).unwrap();
        assert_eq!(state.durable_epoch, 0);
        assert!(state.latest.is_empty());
        let state = scan_streams(&[Vec::new()]).unwrap();
        assert_eq!(state.durable_epoch, 0);
    }

    #[test]
    fn apply_restores_keys_into_database() {
        let mut s = Vec::new();
        s.extend(txn_block(Tid::new(1, 1), 0, b"alpha", Some(b"1")));
        s.extend(txn_block(Tid::new(1, 2), 0, b"beta", Some(b"2")));
        s.extend(txn_block(Tid::new(2, 1), 0, b"alpha", Some(b"updated")));
        s.extend(txn_block(Tid::new(2, 2), 0, b"gone", Some(b"x")));
        s.extend(txn_block(Tid::new(2, 3), 0, b"gone", None));
        encode_epoch_marker(&mut s, 4);

        let db = Database::open(SiloConfig::for_testing());
        db.create_table("t").unwrap();
        let state = recover_into(&db, &[s]).unwrap();
        assert_eq!(state.durable_epoch, 4);

        let mut w = db.register_worker();
        let mut txn = w.begin();
        assert_eq!(txn.read(0, b"alpha").unwrap(), Some(b"updated".to_vec()));
        assert_eq!(txn.read(0, b"beta").unwrap(), Some(b"2".to_vec()));
        assert_eq!(txn.read(0, b"gone").unwrap(), None);
        txn.commit().unwrap();
    }

    #[test]
    fn interleaved_out_of_epoch_order_buffers_recover_in_tid_order() {
        // Loggers append buffers in arrival order, not epoch order: a slow
        // worker's epoch-2 buffer can land *after* a fast worker's epoch-3
        // buffer in the same stream. Replay must still resolve each key to
        // its largest TID, not to stream order.
        let mut s = Vec::new();
        s.extend(txn_block(Tid::new(3, 5), 0, b"a", Some(b"epoch3"))); // newest first in stream
        s.extend(txn_block(Tid::new(2, 9), 0, b"a", Some(b"epoch2")));
        s.extend(txn_block(Tid::new(2, 1), 0, b"b", Some(b"b-old")));
        encode_epoch_marker(&mut s, 2);
        s.extend(txn_block(Tid::new(3, 2), 0, b"b", Some(b"b-new")));
        s.extend(txn_block(Tid::new(2, 4), 0, b"c", None)); // late delete from an earlier epoch
        encode_epoch_marker(&mut s, 4);

        let state = scan_streams(&[s]).unwrap();
        assert_eq!(state.durable_epoch, 4);
        assert_eq!(state.replayed_txns, 5);
        let get = |k: &[u8]| state.latest.get(&(0, k.to_vec())).unwrap().clone();
        assert_eq!(get(b"a"), (Tid::new(3, 5), Some(b"epoch3".to_vec())));
        assert_eq!(get(b"b"), (Tid::new(3, 2), Some(b"b-new".to_vec())));
        assert_eq!(get(b"c"), (Tid::new(2, 4), None));
    }

    #[test]
    fn torn_final_record_is_dropped_without_losing_the_prefix() {
        // A crash mid-append tears the last block; everything before it —
        // including buffers that arrived out of epoch order — must survive.
        let mut s = Vec::new();
        s.extend(txn_block(Tid::new(3, 1), 0, b"x", Some(b"keep-3")));
        s.extend(txn_block(Tid::new(2, 8), 0, b"y", Some(b"keep-2")));
        encode_epoch_marker(&mut s, 3);
        let good_len = s.len();
        s.extend(txn_block(Tid::new(4, 1), 0, b"z", Some(b"torn")));
        s.truncate(good_len + 6); // crash tears the final record mid-header

        let state = scan_streams(&[s]).unwrap();
        assert_eq!(state.durable_epoch, 3);
        assert_eq!(state.replayed_txns, 2);
        assert!(state.latest.contains_key(&(0, b"x".to_vec())));
        assert!(state.latest.contains_key(&(0, b"y".to_vec())));
        assert!(
            !state.latest.contains_key(&(0, b"z".to_vec())),
            "the torn record must not be replayed"
        );

        // The recovered prefix applies cleanly.
        let db = Database::open(SiloConfig::for_testing());
        db.create_table("t").unwrap();
        let installed = apply_recovered(
            &db,
            &scan_streams(&[{
                let mut s = Vec::new();
                s.extend(txn_block(Tid::new(3, 1), 0, b"x", Some(b"keep-3")));
                encode_epoch_marker(&mut s, 3);
                s
            }])
            .unwrap(),
        )
        .unwrap();
        assert_eq!(installed, 1);
    }

    #[test]
    fn apply_fails_without_schema() {
        let mut s = Vec::new();
        s.extend(txn_block(Tid::new(1, 1), 5, b"k", Some(b"v")));
        encode_epoch_marker(&mut s, 2);
        let db = Database::open(SiloConfig::for_testing());
        assert!(matches!(
            recover_into(&db, &[s]),
            Err(RecoveryError::Apply(_))
        ));
    }

    #[test]
    fn zero_length_and_truncated_header_files_recover_cleanly() {
        // Regression: a crash can leave zero-length segments (killed right
        // after rotation) and files torn inside the very first block header.
        // Every recovery entry point must treat those as empty streams — not
        // panic, not error, not load anything whole-file.
        let dir = std::env::temp_dir().join(format!("silo-empty-log-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("silo-log-0-seg000000.bin"), b"").unwrap();
        std::fs::write(dir.join("silo-log-1-seg000003.bin"), b"").unwrap();
        let torn = &txn_block(Tid::new(3, 1), 0, b"key", Some(b"value"))[..4];
        std::fs::write(dir.join("silo-log-2-seg000000.bin"), torn).unwrap();

        let state = scan_directory(&dir).unwrap();
        assert_eq!(state.durable_epoch, 0);
        assert_eq!(state.replayed_txns, 0);
        assert!(state.latest.is_empty());

        let db = Database::open(SiloConfig::for_testing());
        db.create_table("t").unwrap();
        let report = recover_directory(&db, &dir, &RecoveryOptions::default()).unwrap();
        assert_eq!(report.durable_epoch, 0);
        assert_eq!(report.replayed_txns, 0);
        assert_eq!(report.log_files, 3);

        // The in-memory entry point tolerates the same shapes.
        let state = scan_streams(&[Vec::new(), torn.to_vec()]).unwrap();
        assert_eq!(state.durable_epoch, 0);
        assert!(state.latest.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mixed_complete_and_truncated_streams_keep_the_good_data() {
        // One healthy stream plus one that tore mid-header: the healthy
        // stream's durable marker must not be dragged down incorrectly, and
        // its transactions must survive.
        let dir = std::env::temp_dir().join(format!("silo-mixed-log-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut good = Vec::new();
        good.extend(txn_block(Tid::new(2, 1), 0, b"keep", Some(b"v")));
        encode_epoch_marker(&mut good, 3);
        std::fs::write(dir.join("silo-log-0-seg000000.bin"), &good).unwrap();
        let mut torn = txn_block(Tid::new(2, 2), 0, b"also", Some(b"w"));
        encode_epoch_marker(&mut torn, 3);
        let tear_at = torn.len() - 4; // tear inside the trailing marker
        std::fs::write(dir.join("silo-log-1-seg000000.bin"), &torn[..tear_at]).unwrap();

        let state = scan_directory(&dir).unwrap();
        // The torn stream never durably recorded epoch 3, so the horizon is
        // the min over streams: 0 for the torn one.
        assert_eq!(state.durable_epoch, 0);
        assert_eq!(state.skipped_txns, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_block_ends_the_stream_instead_of_failing_recovery() {
        // A malformed block mid-stream (here: an unknown tag, as a flipped
        // bit in a tag byte would produce) is the corrupt tail of §4.10:
        // everything before it is replayed, everything after it is not, and
        // recovery reports rather than errors.
        let mut s = Vec::new();
        s.extend(txn_block(Tid::new(2, 1), 0, b"good", Some(b"v")));
        encode_epoch_marker(&mut s, 2);
        s.push(0x7F);
        s.extend(txn_block(Tid::new(2, 2), 0, b"lost", Some(b"w")));

        let state = scan_streams(&[s]).unwrap();
        assert_eq!(state.durable_epoch, 2);
        assert_eq!(state.replayed_txns, 1);
        assert_eq!(state.corrupt_tails, 1);
        assert!(state.latest.contains_key(&(0, b"good".to_vec())));
        assert!(
            !state.latest.contains_key(&(0, b"lost".to_vec())),
            "nothing past the corrupt block may be resurrected"
        );
    }

    #[test]
    fn recovery_falls_back_past_a_corrupt_checkpoint() {
        let dir = std::env::temp_dir().join(format!("silo-ckpt-fallback-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("checkpoints")).unwrap();

        let slice_record = |tid: Tid, key: &[u8], value: &[u8]| {
            let mut rec = Vec::new();
            rec.extend_from_slice(&0u32.to_le_bytes());
            rec.extend_from_slice(&(key.len() as u32).to_le_bytes());
            rec.extend_from_slice(key);
            rec.extend_from_slice(&tid.raw().to_le_bytes());
            rec.extend_from_slice(&(value.len() as u32).to_le_bytes());
            rec.extend_from_slice(value);
            rec
        };
        let framed_slice = |payload: &[u8]| {
            let mut slice = b"SILOSLC2".to_vec();
            slice.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            slice.extend_from_slice(&crate::record::crc32(payload).to_le_bytes());
            slice.extend_from_slice(payload);
            slice
        };
        let write_ckpt = |epoch: u64, slice: &[u8]| {
            let d = dir.join("checkpoints").join(format!("ckpt-{epoch:016x}"));
            std::fs::create_dir_all(&d).unwrap();
            std::fs::write(d.join("slice-0.bin"), slice).unwrap();
            std::fs::write(
                d.join("MANIFEST"),
                format!(
                    "silo-checkpoint v2\nepoch {epoch}\nslices 1\nslice 0 {} 1\nend\n",
                    slice.len()
                ),
            )
            .unwrap();
        };

        write_ckpt(
            3,
            &framed_slice(&slice_record(Tid::new(3, 1), b"k", b"good")),
        );
        // The newer checkpoint has one payload bit flipped (length intact, so
        // the manifest alone cannot tell).
        let mut corrupt = framed_slice(&slice_record(Tid::new(5, 1), b"k", b"evil"));
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        write_ckpt(5, &corrupt);

        let db = Database::open(SiloConfig::for_testing());
        db.create_table("t").unwrap();
        let report = recover_directory(&db, &dir, &RecoveryOptions::default()).unwrap();
        assert_eq!(report.checkpoints_skipped, 1);
        assert_eq!(report.checkpoint_epoch, 3);

        let mut w = db.register_worker();
        let mut txn = w.begin();
        assert_eq!(txn.read(0, b"k").unwrap(), Some(b"good".to_vec()));
        txn.commit().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
