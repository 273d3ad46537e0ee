//! Fault-matrix: end-to-end durability under injected I/O faults.
//!
//! Every fault profile runs the same workload — two writer threads, a
//! checkpoint in the middle, a crash (whatever is on disk is all recovery
//! gets) — against a seeded random fault schedule, then recovers into a fresh
//! database and checks the durability contract:
//!
//! * recovery never panics and never returns an error for on-disk damage
//!   these faults can produce (it degrades: corrupt tails end streams,
//!   corrupt checkpoints fall back);
//! * every transaction acknowledged as durable (epoch ≤ the logger's durable
//!   epoch) is recovered with exactly its committed value — except under
//!   `corrupt`, where bits were flipped on their way to disk *after* the ack
//!   and the checksums' job is detection, not resurrection;
//! * nothing is recovered that was never committed (no invented or
//!   resurrected data past the corrupt horizon).
//!
//! The seed count scales with `SILO_FAULT_SEEDS` (default 2; CI runs 16 for
//! a 112-schedule sweep). Each case prints its profile and seed before
//! running; on failure the case's durability directory is left behind under
//! `SILO_FAULT_DIR` (or the temp dir) for post-mortem.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use silo_core::{Database, SiloConfig};
use silo_log::fault::is_injected_crash;
use silo_log::{
    recover_directory, CheckpointConfig, Checkpointer, FaultPlan, LogConfig, RecoveryOptions,
    SiloLogger,
};

const PROFILES: &[&str] = &[
    "transient",
    "permanent",
    "torn",
    "corrupt",
    "enospc",
    "stall",
    "crash",
];

const WRITERS: usize = 2;
const WAVES: u32 = 12;
const TXNS_PER_WAVE: u32 = 10;

fn seeds() -> u64 {
    std::env::var("SILO_FAULT_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

fn scratch_root() -> PathBuf {
    std::env::var_os("SILO_FAULT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir)
}

fn open_db() -> Arc<Database> {
    Database::open(
        SiloConfig::for_testing()
            .with_spawn_epoch_advancer(true)
            .with_epoch(silo_core::EpochConfig {
                epoch_interval: Duration::from_millis(2),
                snapshot_interval_epochs: 5,
            }),
    )
}

/// Runs one wave of the workload: `WRITERS` threads, each committing
/// `TXNS_PER_WAVE` transactions with unique keys. Returns every commit as
/// `(key, value, epoch)`.
fn commit_wave(db: &Arc<Database>, table: u32, wave: u32) -> Vec<(String, String, u64)> {
    let mut handles = Vec::new();
    for writer in 0..WRITERS as u32 {
        let db = Arc::clone(db);
        handles.push(std::thread::spawn(move || {
            let mut w = db.register_worker();
            let mut committed = Vec::new();
            for i in 0..TXNS_PER_WAVE {
                let key = format!("w{writer}-v{wave}-{i:05}");
                let value = format!("val-{writer}-{wave}-{i}");
                // Both the write and the commit can abort under concurrency
                // (e.g. a node-set fixup); retry the whole transaction.
                loop {
                    let mut txn = w.begin();
                    if txn.write(table, key.as_bytes(), value.as_bytes()).is_err() {
                        continue;
                    }
                    if let Ok(tid) = txn.commit() {
                        committed.push((key, value, tid.epoch()));
                        break;
                    }
                }
            }
            committed
        }));
    }
    handles
        .into_iter()
        .flat_map(|h| h.join().expect("writer thread panicked"))
        .collect()
}

/// One fault-matrix case: run the workload under `profile`'s seeded schedule,
/// crash, recover, check the contract. Panics (failing the test) on any
/// violation; returns the case directory for cleanup on success.
fn run_case(profile: &str, seed: u64) -> PathBuf {
    let dir = scratch_root().join(format!(
        "silo-fault-{profile}-{seed}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    eprintln!(
        "fault-matrix case: profile={profile} seed={seed} dir={}",
        dir.display()
    );

    let plan = Arc::new(FaultPlan::profile(profile, seed));
    let committed = {
        let db = open_db();
        let logger = SiloLogger::install(
            LogConfig::to_directory(&dir, 2)
                .with_segment_bytes(16 * 1024)
                .with_fault(Arc::clone(&plan))
                .with_retry_backoff(Duration::from_micros(100))
                .with_retry_budget(Duration::from_millis(250)),
            &db,
        )
        .expect("install logger");
        let table = db.create_table("t").unwrap();
        let ckpt = Checkpointer::spawn(
            Arc::clone(&db),
            Arc::clone(&logger),
            CheckpointConfig {
                interval: Duration::from_secs(3600), // only explicit run_now
                writers: 2,
                chunk: 64,
                fault: Some(Arc::clone(&plan)),
                ..CheckpointConfig::new(&dir)
            },
        );

        // Many small waves with a durable wait between them: each wave forces
        // at least one group-commit round, so the schedule's "nth append /
        // nth sync" positions (up to ~24) are actually reached. Checkpoints
        // interleave three times so per-run crash points (scheduled up to
        // the 3rd occurrence) fire too.
        let mut committed = Vec::new();
        let mut last_ckpt_target = 0u64;
        for wave in 0..WAVES {
            committed.extend(commit_wave(&db, table, wave));
            let wave_max = committed.iter().map(|(_, _, e)| *e).max().unwrap();
            // Best-effort: a degraded/failed logger legitimately times out or
            // reports failure here; the contract is checked after recovery.
            let _ = logger.wait_for_durable(wave_max, Duration::from_millis(300));
            if wave == 3 || wave == 7 || wave == WAVES - 1 {
                // An effective run needs a snapshot epoch the previous run
                // did not already cover; without this the checkpointer skips
                // and the scheduled crash points are never reached.
                let deadline = std::time::Instant::now() + Duration::from_secs(5);
                while db.epochs().global_snapshot_epoch() <= last_ckpt_target {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "snapshot epoch stalled"
                    );
                    std::thread::sleep(Duration::from_millis(2));
                }
                last_ckpt_target = db.epochs().global_snapshot_epoch();
                // Under the crash profile this is where the injected kill
                // lands, leaving the protocol's on-disk state torn at
                // whichever point the schedule chose.
                if let Err(e) = ckpt.run_now() {
                    assert!(
                        is_injected_crash(&e),
                        "checkpoint failed with a non-injected error: {e}"
                    );
                }
            }
        }

        let max_epoch = committed.iter().map(|(_, _, e)| *e).max().unwrap();
        // Give the round a chance to drain; Failed/Timeout are legitimate
        // outcomes for the destructive profiles.
        let _ = logger.wait_for_durable(max_epoch, Duration::from_secs(10));
        ckpt.shutdown();
        logger.shutdown();
        let stats = logger.stats();
        eprintln!(
            "  injected={} retries={} failures={} durable_epoch={}",
            plan.injected(),
            stats.retries,
            stats.logger_failures,
            logger.durable_epoch()
        );
        // The schedule must actually have fired — a matrix that never reaches
        // its fault positions tests nothing.
        assert!(
            plan.injected() > 0,
            "profile={profile} seed={seed}: no scheduled fault fired; \
             the workload no longer reaches the schedule's positions"
        );
        // The durable horizon the application observed: everything at or
        // below it was acknowledged as crash-proof.
        let acked_epoch = logger.durable_epoch();
        db.stop_epoch_advancer();
        (committed, acked_epoch)
    };
    let (committed, acked_epoch) = committed;

    // "Crash": recover from whatever is on disk into a fresh database.
    let db = open_db();
    let table = db.create_table("t").unwrap();
    let report = recover_directory(
        &db,
        &dir,
        &RecoveryOptions {
            replay_threads: 2,
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| {
        panic!("recovery must degrade, not fail: profile={profile} seed={seed}: {e}")
    });

    let mut w = db.register_worker();
    let mut txn = w.begin();
    let rows = txn
        .scan(table, b"", None, None)
        .expect("scan recovered table");
    txn.commit().unwrap();
    drop(w);

    let by_key: HashMap<&str, &str> = committed
        .iter()
        .map(|(k, v, _)| (k.as_str(), v.as_str()))
        .collect();
    let recovered: HashMap<String, String> = rows
        .into_iter()
        .map(|(k, v)| {
            (
                String::from_utf8(k).expect("recovered key is utf-8"),
                String::from_utf8(v).expect("recovered value is utf-8"),
            )
        })
        .collect();

    // Nothing recovered that was never committed, and never a wrong value.
    for (key, value) in &recovered {
        match by_key.get(key.as_str()) {
            Some(expected) => assert_eq!(
                value, expected,
                "profile={profile} seed={seed}: key {key} recovered with a value never committed"
            ),
            None => panic!("profile={profile} seed={seed}: key {key} was never committed"),
        }
    }

    // Every durably-acknowledged transaction is recovered — except under
    // `corrupt`, where acked bytes were damaged after the ack and the
    // checksums exist to *detect* that, shrinking the horizon honestly.
    if profile != "corrupt" {
        for (key, value, epoch) in &committed {
            if *epoch > acked_epoch {
                continue;
            }
            match recovered.get(key) {
                Some(got) => assert_eq!(
                    got, value,
                    "profile={profile} seed={seed}: acked key {key} has the wrong value"
                ),
                None => panic!(
                    "profile={profile} seed={seed}: acked txn lost \
                     (key {key}, epoch {epoch} ≤ acked {acked_epoch}, \
                     recovery horizon {})",
                    report.durable_epoch
                ),
            }
        }
    }
    db.stop_epoch_advancer();
    dir
}

#[test]
fn fault_matrix_over_seeded_schedules() {
    let seeds = seeds();
    for profile in PROFILES {
        for seed in 0..seeds {
            let dir = run_case(profile, seed);
            // Reached only on success: failures leave the dir for post-mortem.
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

mod bit_flips {
    //! Single-bit corruption sweep: record a real durability directory once
    //! (logs + a checkpoint), then flip one random bit in one random file and
    //! recover. The invariant is graceful degradation: recovery must never
    //! panic or error, and must never report a value that was not committed —
    //! whatever the bit hit (segment payload, checkpoint slice, manifest).

    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    struct Fixture {
        /// Durability root recorded once.
        dir: PathBuf,
        /// key → value committed while recording.
        committed: HashMap<String, String>,
    }

    fn fixture() -> &'static Fixture {
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let dir = scratch_root().join(format!("silo-bitflip-fixture-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let db = open_db();
            let logger = SiloLogger::install(
                LogConfig::to_directory(&dir, 2).with_segment_bytes(8 * 1024),
                &db,
            )
            .expect("install logger");
            let table = db.create_table("t").unwrap();
            let ckpt = Checkpointer::spawn(
                Arc::clone(&db),
                Arc::clone(&logger),
                CheckpointConfig {
                    interval: Duration::from_secs(3600),
                    writers: 2,
                    chunk: 64,
                    ..CheckpointConfig::new(&dir)
                },
            );
            let mut committed = commit_wave(&db, table, 0);
            let max = committed.iter().map(|(_, _, e)| *e).max().unwrap();
            assert!(logger
                .wait_for_durable(max, Duration::from_secs(10))
                .is_durable());
            // Wait for the snapshot horizon so the checkpoint sees the data.
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while db.epochs().global_snapshot_epoch() <= max {
                assert!(
                    std::time::Instant::now() < deadline,
                    "snapshot epoch stalled"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
            ckpt.run_now().expect("checkpoint");
            committed.extend(commit_wave(&db, table, 1));
            let max = committed.iter().map(|(_, _, e)| *e).max().unwrap();
            assert!(logger
                .wait_for_durable(max, Duration::from_secs(10))
                .is_durable());
            ckpt.shutdown();
            logger.shutdown();
            db.stop_epoch_advancer();
            Fixture {
                dir,
                committed: committed.into_iter().map(|(k, v, _)| (k, v)).collect(),
            }
        })
    }

    /// All regular files under the fixture, relative paths, sorted for
    /// determinism.
    fn files_of(dir: &PathBuf) -> Vec<PathBuf> {
        let mut files = Vec::new();
        let mut stack = vec![dir.clone()];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    files.push(path.strip_prefix(dir).unwrap().to_path_buf());
                }
            }
        }
        files.sort();
        files
    }

    /// Copies the fixture into a scratch dir, flips bit `bit_index` of the
    /// whole-directory byte stream (file `file_pick`, offset scaled into that
    /// file), and returns the scratch dir.
    fn corrupted_copy(case: u64, file_pick: usize, bit_index: u64) -> PathBuf {
        let fx = fixture();
        let scratch =
            scratch_root().join(format!("silo-bitflip-case-{case}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        let files = files_of(&fx.dir);
        for rel in &files {
            let to = scratch.join(rel);
            std::fs::create_dir_all(to.parent().unwrap()).unwrap();
            std::fs::copy(fx.dir.join(rel), to).unwrap();
        }
        let rel = &files[file_pick % files.len()];
        let path = scratch.join(rel);
        let mut bytes = std::fs::read(&path).unwrap();
        if !bytes.is_empty() {
            let bit = bit_index % (bytes.len() as u64 * 8);
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            std::fs::write(&path, &bytes).unwrap();
            eprintln!(
                "bit-flip case {case}: flipped bit {bit} of {} ({} bytes)",
                rel.display(),
                bytes.len()
            );
        }
        scratch
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn one_flipped_bit_never_panics_recovery_or_invents_data(
            case in 0u64..u64::MAX,
            file_pick in 0usize..64,
            bit_index in 0u64..u64::MAX,
        ) {
            let scratch = corrupted_copy(case, file_pick, bit_index);
            let db = open_db();
            let table = db.create_table("t").unwrap();
            let report = recover_directory(
                &db,
                &scratch,
                &RecoveryOptions { replay_threads: 2, ..Default::default() },
            );
            // Graceful degradation: a flipped bit may shrink what is
            // recovered, never turn recovery into a panic or an error.
            let report = report.expect("recovery must degrade, not fail");
            let mut w = db.register_worker();
            let mut txn = w.begin();
            let rows = txn.scan(table, b"", None, None).expect("scan");
            txn.commit().unwrap();
            drop(w);
            for (k, v) in rows {
                let key = String::from_utf8(k).expect("recovered key is utf-8");
                let value = String::from_utf8_lossy(&v).into_owned();
                let expected = fixture().committed.get(&key);
                prop_assert_eq!(
                    expected,
                    Some(&value),
                    "key {} recovered with uncommitted data (horizon {})",
                    key,
                    report.durable_epoch
                );
            }
            db.stop_epoch_advancer();
            std::fs::remove_dir_all(&scratch).unwrap();
        }
    }
}
