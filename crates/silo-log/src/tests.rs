//! End-to-end durability tests: commit → log → durable epoch → recovery.

use super::*;
use silo_core::SiloConfig;
use std::sync::Arc;

fn logged_db(log_config: LogConfig) -> (Arc<Database>, Arc<SiloLogger>) {
    open_logged(true, Duration::from_millis(2), log_config)
}

/// A logged database whose epoch ticks every `epoch_interval`: on an
/// advancer thread when `spawn_advancer` is set, else only when a test calls
/// `advance_n`. The interval is also the loggers' idle timer.
fn open_logged(
    spawn_advancer: bool,
    epoch_interval: Duration,
    log_config: LogConfig,
) -> (Arc<Database>, Arc<SiloLogger>) {
    let db = Database::open(
        SiloConfig::for_testing()
            .with_spawn_epoch_advancer(spawn_advancer)
            .with_epoch(silo_core::EpochConfig {
                epoch_interval,
                snapshot_interval_epochs: 5,
            }),
    );
    let logger = SiloLogger::install(log_config, &db).expect("install logger");
    (db, logger)
}

#[test]
fn committed_transactions_become_durable() {
    let (db, logger) = logged_db(LogConfig::in_memory(2));
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();

    let mut last_tid = silo_core::Tid::ZERO;
    for i in 0..50u32 {
        let mut txn = w.begin();
        txn.write(t, format!("key{i}").as_bytes(), b"value")
            .unwrap();
        last_tid = txn.commit().unwrap();
    }
    // The worker is done; dropping it flushes its buffer and stops it from
    // holding back the durable epoch.
    drop(w);
    // The group-commit property: once the durable epoch passes the commit
    // epoch, the transaction is recoverable.
    assert!(
        logger
            .wait_for_durable(last_tid.epoch(), Duration::from_secs(5))
            .is_durable(),
        "durable epoch never reached {} (currently {})",
        last_tid.epoch(),
        logger.durable_epoch()
    );
    assert!(logger.is_durable(last_tid));
    assert!(logger.bytes_published() > 0);
    db.stop_epoch_advancer();
}

#[test]
fn durable_epoch_lags_commits_until_logged() {
    let (db, logger) = logged_db(LogConfig::in_memory(1));
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut txn = w.begin();
    txn.write(t, b"k", b"v").unwrap();
    let tid = txn.commit().unwrap();
    // Group commit means durability is deferred to an epoch boundary: the
    // commit's epoch cannot already be durable at the instant commit returns,
    // because the epoch it belongs to is still open.
    assert!(logger.durable_epoch() <= tid.epoch());
    drop(w);
    assert!(logger
        .wait_for_durable(tid.epoch(), Duration::from_secs(5))
        .is_durable());
    db.stop_epoch_advancer();
}

#[test]
fn recovery_restores_exactly_the_durable_prefix() {
    let (db, logger) = logged_db(LogConfig::in_memory(2));
    let t = db.create_table("accounts").unwrap();
    let mut w = db.register_worker();

    for i in 0..100u32 {
        let mut txn = w.begin();
        txn.write(t, format!("acct{i:03}").as_bytes(), &i.to_be_bytes())
            .unwrap();
        txn.commit().unwrap();
    }
    let mut txn = w.begin();
    txn.delete(t, b"acct007").unwrap();
    let delete_tid = txn.commit().unwrap();
    drop(w);
    assert!(logger
        .wait_for_durable(delete_tid.epoch(), Duration::from_secs(5))
        .is_durable());
    logger.shutdown();
    let logs = logger.memory_logs();
    db.stop_epoch_advancer();

    // "Crash": open a fresh database, recreate the schema, replay the logs.
    let db2 = Database::open(SiloConfig::for_testing());
    let t2 = db2.create_table("accounts").unwrap();
    assert_eq!(t2, t, "schema must be recreated with the same table ids");
    let state = recover_into(&db2, &logs).unwrap();
    assert!(state.durable_epoch >= delete_tid.epoch());
    assert!(state.replayed_txns >= 100);

    let mut w2 = db2.register_worker();
    let mut txn = w2.begin();
    for i in 0..100u32 {
        let key = format!("acct{i:03}");
        let expected = if i == 7 {
            None
        } else {
            Some(i.to_be_bytes().to_vec())
        };
        assert_eq!(
            txn.read(t2, key.as_bytes()).unwrap(),
            expected,
            "acct{i:03}"
        );
    }
    txn.commit().unwrap();
}

#[test]
fn recovery_ignores_epochs_after_the_durable_horizon() {
    // Hand-build two logger streams where one logger is behind: the recovered
    // prefix must respect the *minimum* durable epoch.
    use record::{encode_epoch_marker, encode_txn};
    let mut fast = Vec::new();
    encode_txn(
        &mut fast,
        silo_core::Tid::new(2, 1),
        &[(0, b"a".as_ref(), Some(b"1".as_ref()))],
        false,
    );
    encode_txn(
        &mut fast,
        silo_core::Tid::new(6, 1),
        &[(0, b"b".as_ref(), Some(b"2".as_ref()))],
        false,
    );
    encode_epoch_marker(&mut fast, 6);
    let mut slow = Vec::new();
    encode_txn(
        &mut slow,
        silo_core::Tid::new(3, 1),
        &[(0, b"c".as_ref(), Some(b"3".as_ref()))],
        false,
    );
    encode_epoch_marker(&mut slow, 3);

    let db = Database::open(SiloConfig::for_testing());
    db.create_table("t").unwrap();
    let state = recover_into(&db, &[fast, slow]).unwrap();
    assert_eq!(state.durable_epoch, 3);

    let mut w = db.register_worker();
    let mut txn = w.begin();
    assert_eq!(txn.read(0, b"a").unwrap(), Some(b"1".to_vec()));
    assert_eq!(txn.read(0, b"c").unwrap(), Some(b"3".to_vec()));
    assert_eq!(
        txn.read(0, b"b").unwrap(),
        None,
        "epoch-6 transaction is beyond the durable horizon and must not be recovered"
    );
    txn.commit().unwrap();
}

#[test]
fn file_destination_roundtrip() {
    let dir = std::env::temp_dir().join(format!("silo-log-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let (db, logger) = logged_db(LogConfig::to_directory(&dir, 2));
        let t = db.create_table("t").unwrap();
        let mut w = db.register_worker();
        let mut last = silo_core::Tid::ZERO;
        for i in 0..40u32 {
            let mut txn = w.begin();
            txn.write(t, format!("k{i}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
            last = txn.commit().unwrap();
        }
        drop(w);
        assert!(logger
            .wait_for_durable(last.epoch(), Duration::from_secs(5))
            .is_durable());
        logger.shutdown();
        db.stop_epoch_advancer();
    }
    let state = recovery::scan_directory(&dir).unwrap();
    assert_eq!(state.latest.len(), 40);
    let db2 = Database::open(SiloConfig::for_testing());
    let t2 = db2.create_table("t").unwrap();
    recovery::apply_recovered(&db2, &state).unwrap();
    let mut w = db2.register_worker();
    let mut txn = w.begin();
    assert_eq!(txn.read(t2, b"k39").unwrap(), Some(b"v39".to_vec()));
    txn.commit().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn small_records_mode_logs_less_but_recovers_nothing_useful() {
    let (db, logger) = logged_db(LogConfig {
        mode: LogMode::SmallRecords,
        ..LogConfig::in_memory(1)
    });
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut last = silo_core::Tid::ZERO;
    for i in 0..50u32 {
        let mut txn = w.begin();
        txn.write(
            t,
            format!("key-with-a-long-name-{i}").as_bytes(),
            &[0u8; 100],
        )
        .unwrap();
        last = txn.commit().unwrap();
    }
    drop(w);
    assert!(logger
        .wait_for_durable(last.epoch(), Duration::from_secs(5))
        .is_durable());
    logger.shutdown();
    let small_bytes = logger.bytes_published();
    db.stop_epoch_advancer();

    let (db_full, logger_full) = logged_db(LogConfig::in_memory(1));
    let tf = db_full.create_table("t").unwrap();
    let mut wf = db_full.register_worker();
    let mut last = silo_core::Tid::ZERO;
    for i in 0..50u32 {
        let mut txn = wf.begin();
        txn.write(
            tf,
            format!("key-with-a-long-name-{i}").as_bytes(),
            &[0u8; 100],
        )
        .unwrap();
        last = txn.commit().unwrap();
    }
    drop(wf);
    assert!(logger_full
        .wait_for_durable(last.epoch(), Duration::from_secs(5))
        .is_durable());
    logger_full.shutdown();
    let full_bytes = logger_full.bytes_published();
    db_full.stop_epoch_advancer();

    assert!(
        small_bytes * 4 < full_bytes,
        "SmallRecords ({small_bytes} B) should be much smaller than FullRecords ({full_bytes} B)"
    );
    // And the small-records log carries no key/value data.
    let state = recovery::scan_streams(&logger.memory_logs()).unwrap();
    assert!(state.latest.is_empty());
}

#[test]
fn compressed_logs_shrink_and_recover_identically() {
    let make = |compress: bool| {
        let (db, logger) = logged_db(LogConfig {
            compress,
            ..LogConfig::in_memory(1)
        });
        let t = db.create_table("t").unwrap();
        let mut w = db.register_worker();
        let mut last = silo_core::Tid::ZERO;
        for i in 0..80u32 {
            let mut txn = w.begin();
            // Highly repetitive values, as OLTP records tend to be.
            let value = format!(
                "warehouse-{:04}-district-{:02}-padding-{}",
                i % 4,
                i % 10,
                "x".repeat(60)
            );
            txn.write(t, format!("key{i:04}").as_bytes(), value.as_bytes())
                .unwrap();
            last = txn.commit().unwrap();
        }
        drop(w);
        assert!(logger
            .wait_for_durable(last.epoch(), Duration::from_secs(5))
            .is_durable());
        logger.shutdown();
        db.stop_epoch_advancer();
        let logs = logger.memory_logs();
        let bytes: usize = logs.iter().map(Vec::len).sum();
        (logs, bytes)
    };
    let (plain_logs, plain_bytes) = make(false);
    let (comp_logs, comp_bytes) = make(true);
    assert!(
        comp_bytes < plain_bytes,
        "compressed log ({comp_bytes}) should be smaller than plain ({plain_bytes})"
    );

    let restore = |logs: &[Vec<u8>]| {
        let db = Database::open(SiloConfig::for_testing());
        let t = db.create_table("t").unwrap();
        recover_into(&db, logs).unwrap();
        let mut w = db.register_worker();
        let mut txn = w.begin();
        let rows = txn.scan(t, b"", None, None).unwrap();
        txn.commit().unwrap();
        rows
    };
    assert_eq!(restore(&plain_logs), restore(&comp_logs));
}

#[test]
fn idle_worker_partial_buffer_is_stolen_and_becomes_durable() {
    // A worker commits once (a partial buffer, far below the watermark) and
    // then goes idle without finishing. The event-driven logger must
    // steal-publish the stale buffer once the epoch advances — otherwise the
    // durable epoch would be stuck behind the idle worker forever.
    let (db, logger) = logged_db(LogConfig {
        buffer_capacity: 1024 * 1024,
        ..LogConfig::in_memory(1)
    });
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut txn = w.begin();
    txn.write(t, b"lonely", b"value").unwrap();
    let tid = txn.commit().unwrap();
    // Quiesce (but keep the worker alive and unfinished) so the global epoch
    // can advance past the commit.
    w.quiesce();
    assert!(
        logger
            .wait_for_durable(tid.epoch(), Duration::from_secs(5))
            .is_durable(),
        "stolen partial buffer never became durable (durable epoch {})",
        logger.durable_epoch()
    );
    assert!(
        logger.stats().steal_publishes >= 1,
        "the only publish path for an idle worker is the steal"
    );
    let state = recovery::scan_streams(&logger.memory_logs()).unwrap();
    assert!(state.latest.contains_key(&(t, b"lonely".to_vec())));
    db.stop_epoch_advancer();
}

#[test]
fn a_quiescent_workers_commit_is_durable_after_one_advance() {
    let (db, logger) = open_logged(false, Duration::from_millis(1), LogConfig::in_memory(1));
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut txn = w.begin();
    txn.write(t, b"k", b"v").unwrap();
    let tid = txn.commit().unwrap();
    w.quiesce();
    // The commit's epoch is still the open epoch `E`: the loggers run many
    // rounds on their 1 ms timer, and none may declare it durable.
    std::thread::sleep(Duration::from_millis(30));
    assert!(logger.durable_epoch() < tid.epoch());
    // One advance closes the epoch; a quiescent worker's next commit lands
    // in the new one, so nothing else holds the commit back.
    assert_eq!(db.epochs().advance_n(1), tid.epoch() + 1);
    assert!(
        logger
            .wait_for_durable(tid.epoch(), Duration::from_secs(5))
            .is_durable(),
        "epoch {} not durable after one advance (durable epoch {})",
        tid.epoch(),
        logger.durable_epoch()
    );
    assert_eq!(
        db.epochs().global_epoch(),
        tid.epoch() + 1,
        "no second advance"
    );
    let state = recovery::scan_streams(&logger.memory_logs()).unwrap();
    assert_eq!(
        state.latest.get(&(t, b"k".to_vec())).map(|(tid, _)| *tid),
        Some(tid)
    );
}

#[test]
fn a_worker_inside_a_transaction_bounds_the_durable_epoch_by_its_local_epoch() {
    let (db, logger) = open_logged(
        false,
        Duration::from_millis(1),
        LogConfig {
            buffer_capacity: 1024 * 1024,
            ..LogConfig::in_memory(1)
        },
    );
    let epochs = Arc::clone(db.epochs());
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let id = w.id();
    let mut txn = w.begin();
    txn.write(t, b"first", b"v").unwrap();
    let first = txn.commit().unwrap();
    let e = first.epoch();
    epochs.advance_n(1);
    // Pin the worker inside a transaction at e_w = e + 1. Its partial buffer
    // of epoch e is now in the past, so the logger steals it.
    let mut pinned = w.begin();
    assert_eq!(epochs.local_epoch_of(id), e + 1);
    assert!(logger
        .wait_for_durable(e, Duration::from_secs(5))
        .is_durable());
    assert!(logger.stats().steal_publishes >= 1);
    // The global epoch may move one step past the pinned worker, but the
    // worker's in-flight commit can still land in e + 1: the durable epoch
    // must stay at e_w − 1 however many rounds the loggers run.
    assert_eq!(epochs.advance_n(5), e + 2);
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(logger.durable_epoch(), e);
    pinned.write(t, b"second", b"v").unwrap();
    let second = pinned.commit().unwrap();
    w.quiesce();
    epochs.advance_n(1);
    assert!(logger
        .wait_for_durable(second.epoch(), Duration::from_secs(5))
        .is_durable());
    let state = recovery::scan_streams(&logger.memory_logs()).unwrap();
    for (key, tid) in [(&b"first"[..], first), (&b"second"[..], second)] {
        assert_eq!(
            state.latest.get(&(t, key.to_vec())).map(|(tid, _)| *tid),
            Some(tid)
        );
    }
}

#[test]
fn an_epoch_advance_wakes_the_logger_before_its_idle_timer() {
    // A 10 s idle timer cannot fire within the test, so only the advance
    // listener can wake the logger.
    let (db, logger) = open_logged(false, Duration::from_secs(10), LogConfig::in_memory(1));
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut txn = w.begin();
    txn.write(t, b"k", b"v").unwrap();
    let tid = txn.commit().unwrap();
    w.quiesce();
    // Let the logger finish its start-up round and park.
    std::thread::sleep(Duration::from_millis(50));
    assert!(logger.durable_epoch() < tid.epoch());
    db.epochs().advance_n(1);
    assert!(
        logger
            .wait_for_durable(tid.epoch(), Duration::from_secs(2))
            .is_durable(),
        "the advance did not wake the logger (durable epoch {})",
        logger.durable_epoch()
    );
}

#[test]
fn released_commits_are_always_on_the_log() {
    // The §4.10 release rule, black-box: once `wait_for_durable` says a
    // commit's epoch is durable, recovery from the log as it stands must
    // already hold the commit. Workers randomly interleave writes, aborts,
    // read-only transactions, transactions held open across epoch
    // boundaries, workers lingering after a commit and quiescent spells
    // against a 1 ms advancer, so a durable bound that runs ahead of the log
    // shows up as a missing record.
    let (db, logger) = open_logged(
        true,
        Duration::from_millis(1),
        LogConfig {
            buffer_capacity: 512,
            ..LogConfig::in_memory(2)
        },
    );
    let t = db.create_table("t").unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let handles: Vec<_> = (0..3u64)
        .map(|thread| {
            let (db, logger) = (Arc::clone(&db), Arc::clone(&logger));
            std::thread::spawn(move || release_rule_worker(thread, &db, &logger, t, deadline))
        })
        .collect();
    let checked: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("release-rule worker panicked"))
        .sum();
    assert!(checked > 0);
    logger.shutdown();
    db.stop_epoch_advancer();
}

/// One worker of `released_commits_are_always_on_the_log`; returns how many
/// released commits it checked against the log.
fn release_rule_worker(
    thread: u64,
    db: &Arc<Database>,
    logger: &SiloLogger,
    t: silo_core::TableId,
    deadline: std::time::Instant,
) -> u64 {
    let mut w = db.register_worker();
    let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ (thread + 1);
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut checks = 0;
    let mut seq = 0u64;
    while std::time::Instant::now() < deadline && checks < 60 {
        match next() % 8 {
            0..=4 => {
                seq += 1;
                let keys: Vec<Vec<u8>> = (0..1 + next() % 3)
                    .map(|j| format!("w{thread}-{seq}-{j}").into_bytes())
                    .collect();
                let value = seq.to_le_bytes();
                let abort = next() % 4 == 0;
                let hold = next() % 8 == 0;
                let mut txn = w.begin();
                if keys.iter().any(|k| txn.write(t, k, &value).is_err()) || abort {
                    continue; // dropping the transaction aborts it
                }
                if hold {
                    // Keep the commit in flight across a tick.
                    std::thread::sleep(Duration::from_millis(1));
                }
                let Ok(tid) = txn.commit() else { continue };
                match next() % 4 {
                    0 | 1 => continue,
                    // Linger in the commit's epoch past a tick before
                    // quiescing: the partial buffer stays unpublished while
                    // `E` moves on.
                    2 => std::thread::sleep(Duration::from_millis(2)),
                    _ => {}
                }
                w.quiesce();
                let wait = logger.wait_for_durable(tid.epoch(), Duration::from_secs(5));
                assert!(wait.is_durable(), "{tid:?} never durable: {wait:?}");
                let state = recovery::scan_streams(&logger.memory_logs()).unwrap();
                for key in &keys {
                    assert_eq!(
                        state.latest.get(&(t, key.clone())),
                        Some(&(tid, Some(value.to_vec()))),
                        "released {tid:?} missing (log durable to {})",
                        state.durable_epoch
                    );
                }
                checks += 1;
            }
            5 => {
                let mut txn = w.begin();
                let _ = txn.read(t, b"w0-1-0");
                let _ = txn.commit();
            }
            _ => {
                w.quiesce();
                std::thread::yield_now();
            }
        }
    }
    checks
}

#[test]
fn compression_happens_on_the_logger_side() {
    // Workers publish raw bytes; the logger compresses while batching. The
    // counters make the division of labour observable: published (raw) bytes
    // must exceed written (compressed) bytes on repetitive data.
    let (db, logger) = logged_db(LogConfig {
        compress: true,
        ..LogConfig::in_memory(1)
    });
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut last = silo_core::Tid::ZERO;
    for i in 0..60u32 {
        let mut txn = w.begin();
        let value = format!("district-{:02}-{}", i % 10, "pad".repeat(40));
        txn.write(t, format!("key{i:04}").as_bytes(), value.as_bytes())
            .unwrap();
        last = txn.commit().unwrap();
    }
    drop(w);
    assert!(logger
        .wait_for_durable(last.epoch(), Duration::from_secs(5))
        .is_durable());
    logger.shutdown();
    let stats = logger.stats();
    assert!(
        stats.bytes_written < stats.bytes_published,
        "logger-side compression must shrink the stream ({} written vs {} published)",
        stats.bytes_written,
        stats.bytes_published
    );
    db.stop_epoch_advancer();
}

#[test]
fn pool_survives_finish_steal_and_shutdown_races() {
    // Stress the recycled pool: workers registering/finishing in a loop,
    // epoch-boundary and watermark publishes, logger steals, and a shutdown
    // fired while workers are still committing. The run must not panic, the
    // pool accounting must balance, and whatever reached the sinks must
    // still be a decodable, replayable log.
    use std::sync::atomic::{AtomicBool, Ordering};
    let (db, logger) = logged_db(LogConfig {
        buffer_capacity: 256, // tiny watermark: publish every couple of txns
        pool_buffers: 2,      // force pool misses under pressure
        ..LogConfig::in_memory(2)
    });
    let t = db.create_table("t").unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for thread in 0..3u64 {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            // Bounded re-registration (worker ids are finite): each drop
            // exercises on_worker_finish racing the logger's steal scan.
            for generation in 0..25u64 {
                let mut w = db.register_worker();
                for i in 0..80u64 {
                    let key = format!("t{thread}g{generation}k{}", i % 17);
                    let value = vec![b'v'; 64];
                    // OCC aborts (e.g. node-set validation when a concurrent
                    // insert splits a shared leaf), at the write or at
                    // commit, are legitimate under this storm; the one-shot
                    // model simply re-executes.
                    loop {
                        let mut txn = w.begin();
                        if txn.write(t, key.as_bytes(), &value).is_ok() && txn.commit().is_ok() {
                            break;
                        }
                    }
                    if i % 19 == 0 {
                        w.quiesce(); // let steals and epoch advances interleave
                        std::thread::yield_now();
                    }
                }
                if stop.load(Ordering::Relaxed) {
                    return;
                }
            }
        }));
    }
    // Shut the logging subsystem down in the middle of the commit storm.
    std::thread::sleep(Duration::from_millis(30));
    logger.shutdown();
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("stress worker panicked");
    }

    let stats = logger.stats();
    assert_eq!(
        stats.pool_hits + stats.pool_misses,
        stats.buffers_published,
        "every publish draws exactly one replacement buffer"
    );
    assert!(stats.buffers_published > 0);

    // The sinks hold a valid log prefix: decodable, and replayable into a
    // fresh database.
    let state = recovery::scan_streams(&logger.memory_logs()).unwrap();
    let db2 = Database::open(SiloConfig::for_testing());
    let t2 = db2.create_table("t").unwrap();
    assert_eq!(t2, t);
    recovery::apply_recovered(&db2, &state).unwrap();
    db.stop_epoch_advancer();
}

#[test]
fn worker_finish_flushes_partial_buffers() {
    let (db, logger) = logged_db(LogConfig {
        buffer_capacity: 1024 * 1024, // never fills by size
        ..LogConfig::in_memory(1)
    });
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut txn = w.begin();
    txn.write(t, b"solo", b"value").unwrap();
    let tid = txn.commit().unwrap();
    // Nothing forces the buffer out except the epoch boundary / finish call.
    use silo_core::CommitHook;
    logger.on_worker_finish(w.id());
    assert!(logger
        .wait_for_durable(tid.epoch(), Duration::from_secs(5))
        .is_durable());
    logger.shutdown();
    let state = recovery::scan_streams(&logger.memory_logs()).unwrap();
    assert!(state.latest.contains_key(&(t, b"solo".to_vec())));
    db.stop_epoch_advancer();
}

// ---------------------------------------------------------------------------
// Checkpointing + parallel recovery
// ---------------------------------------------------------------------------

/// Every row of `table`, via a fresh worker (sorted by key, as `scan` is).
fn full_scan(db: &Arc<Database>, table: silo_core::TableId) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut w = db.register_worker();
    let mut txn = w.begin();
    let rows = txn.scan(table, b"", None, None).unwrap();
    txn.commit().unwrap();
    rows
}

#[test]
fn checkpoint_truncates_log_and_recovery_replays_only_the_tail() {
    let dir = std::env::temp_dir().join(format!("silo-ckpt-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let expected;
    let ckpt_epoch;
    {
        let (db, logger) = logged_db(LogConfig {
            // Tiny segments so the pre-checkpoint history spans several files
            // truncation can reclaim.
            segment_bytes: 4096,
            ..LogConfig::to_directory(&dir, 2)
        });
        let t = db.create_table("t").unwrap();
        let mut w = db.register_worker();
        // Pre-checkpoint history: inserts, overwrites, and deletes.
        let mut last = silo_core::Tid::ZERO;
        for i in 0..300u32 {
            let mut txn = w.begin();
            txn.write(t, format!("ka{i:03}").as_bytes(), &[b'a'; 64])
                .unwrap();
            last = txn.commit().unwrap();
        }
        for i in 0..20u32 {
            let mut txn = w.begin();
            txn.delete(t, format!("ka{i:03}").as_bytes()).unwrap();
            last = txn.commit().unwrap();
        }
        drop(w);
        assert!(logger
            .wait_for_durable(last.epoch(), Duration::from_secs(10))
            .is_durable());
        // The checkpoint scan walks the snapshot at `SE`; wait until that
        // snapshot covers the history above.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while db.epochs().global_snapshot_epoch() <= last.epoch() {
            assert!(
                std::time::Instant::now() < deadline,
                "snapshot epoch stalled"
            );
            std::thread::sleep(Duration::from_millis(2));
        }

        let ckpt = Checkpointer::spawn(
            Arc::clone(&db),
            Arc::clone(&logger),
            CheckpointConfig {
                interval: Duration::from_secs(3600), // only explicit run_now
                writers: 2,
                chunk: 64,
                ..CheckpointConfig::new(&dir)
            },
        );
        ckpt_epoch = ckpt.run_now().unwrap().expect("checkpoint written");
        let stats = ckpt.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.last_epoch, ckpt_epoch);
        assert_eq!(stats.last_records, 280, "300 inserts minus 20 deletes");
        assert!(stats.last_bytes > 0 && stats.last_micros > 0);

        // Post-checkpoint tail: overwrite checkpointed keys, delete a
        // checkpointed key, re-insert a pre-checkpoint delete, add new keys.
        let mut w = db.register_worker();
        for i in 100..150u32 {
            let mut txn = w.begin();
            txn.write(t, format!("ka{i:03}").as_bytes(), b"tail-overwrite")
                .unwrap();
            txn.commit().unwrap();
        }
        {
            let mut txn = w.begin();
            txn.delete(t, b"ka299").unwrap();
            txn.write(t, b"ka000", b"revived-after-ckpt").unwrap();
            txn.write(t, b"kb-new", b"tail-insert").unwrap();
            last = txn.commit().unwrap();
        }
        drop(w);
        assert!(logger
            .wait_for_durable(last.epoch(), Duration::from_secs(10))
            .is_durable());

        // Truncation is asynchronous (logger threads act on their next
        // round): poll for it.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while logger.stats().segments_deleted == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "no segment was truncated: {}",
                logger.stats()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(logger.stats().bytes_truncated > 0);

        expected = full_scan(&db, t);
        ckpt.shutdown();
        logger.shutdown();
        db.stop_epoch_advancer();
    }

    // Recover into a fresh database: schema first, then checkpoint + tail.
    let db2 = Database::open(SiloConfig::for_testing());
    let t2 = db2.create_table("t").unwrap();
    let report = recover_directory(
        &db2,
        &dir,
        &RecoveryOptions {
            replay_threads: 3,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(report.checkpoint_epoch, ckpt_epoch);
    assert_eq!(report.checkpoint_records, 280);
    assert!(report.durable_epoch > ckpt_epoch);
    assert!(
        report.replayed_txns >= 51,
        "the 51 tail transactions must replay"
    );
    assert!(
        report.log_bytes_scanned > 0 && report.checkpoint_bytes > 0,
        "both sources must contribute"
    );
    assert_eq!(full_scan(&db2, t2), expected);

    // The tail's delete of a checkpointed key left an absent record that the
    // post-replay sweep must have unhooked: the index holds exactly the live
    // keys, not live keys + tombstones.
    assert!(
        report.tombstones_reclaimed >= 1,
        "the ka299 delete tombstone must be swept: {report:?}"
    );
    assert_eq!(
        db2.table(t2).approximate_len(),
        expected.len(),
        "no absent records may stay hooked after recovery"
    );

    // Post-recovery, the epochs are past the recovered horizon: new commits
    // get TIDs that sort after everything recovered.
    let mut w = db2.register_worker();
    let mut txn = w.begin();
    txn.write(t2, b"post", b"recovery").unwrap();
    let tid = txn.commit().unwrap();
    assert!(tid.epoch() > report.durable_epoch);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn paced_checkpoint_is_throttled_but_complete() {
    let dir = std::env::temp_dir().join(format!("silo-ckpt-paced-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (db, logger) = logged_db(LogConfig::to_directory(&dir, 1));
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut last = silo_core::Tid::ZERO;
    for i in 0..300u32 {
        let mut txn = w.begin();
        txn.write(t, format!("k{i:03}").as_bytes(), &[b'x'; 64])
            .unwrap();
        last = txn.commit().unwrap();
    }
    drop(w);
    assert!(logger
        .wait_for_durable(last.epoch(), Duration::from_secs(10))
        .is_durable());
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while db.epochs().global_snapshot_epoch() <= last.epoch() {
        assert!(
            std::time::Instant::now() < deadline,
            "snapshot epoch stalled"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // ~25 KB of slice data at 100 KB/s: the walk alone must take ≥ 200 ms
    // (the unpaced walk finishes in single-digit milliseconds).
    let ckpt = Checkpointer::spawn(
        Arc::clone(&db),
        Arc::clone(&logger),
        CheckpointConfig {
            interval: Duration::from_secs(3600),
            writers: 2,
            chunk: 32,
            max_walk_bytes_per_sec: 100_000,
            ..CheckpointConfig::new(&dir)
        },
    );
    let started = std::time::Instant::now();
    let epoch = ckpt.run_now().unwrap().expect("checkpoint written");
    assert!(
        started.elapsed() >= Duration::from_millis(150),
        "paced walk finished too fast: {:?}",
        started.elapsed()
    );
    let stats = ckpt.stats();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.last_records, 300);

    // The paced checkpoint is just as usable: recover from it.
    let expected = full_scan(&db, t);
    ckpt.shutdown();
    logger.shutdown();
    db.stop_epoch_advancer();
    let db2 = Database::open(SiloConfig::for_testing());
    let t2 = db2.create_table("t").unwrap();
    let report = recover_directory(&db2, &dir, &RecoveryOptions::default()).unwrap();
    assert_eq!(report.checkpoint_epoch, epoch);
    assert_eq!(full_scan(&db2, t2), expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_without_any_checkpoint_still_replays_the_whole_log() {
    let dir = std::env::temp_dir().join(format!("silo-nockpt-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let expected;
    {
        let (db, logger) = logged_db(LogConfig::to_directory(&dir, 2));
        let t = db.create_table("t").unwrap();
        let mut w = db.register_worker();
        let mut last = silo_core::Tid::ZERO;
        for i in 0..64u32 {
            let mut txn = w.begin();
            txn.write(t, format!("k{i:02}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
            last = txn.commit().unwrap();
        }
        drop(w);
        assert!(logger
            .wait_for_durable(last.epoch(), Duration::from_secs(10))
            .is_durable());
        expected = full_scan(&db, t);
        logger.shutdown();
        db.stop_epoch_advancer();
    }
    let db2 = Database::open(SiloConfig::for_testing());
    let t2 = db2.create_table("t").unwrap();
    let report = recover_directory(&db2, &dir, &RecoveryOptions::default()).unwrap();
    assert_eq!(report.checkpoint_epoch, 0);
    assert_eq!(report.checkpoint_records, 0);
    assert_eq!(report.replayed_txns, 64);
    assert_eq!(full_scan(&db2, t2), expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn transient_faults_are_retried_and_commits_stay_durable() {
    let plan = Arc::new(
        crate::fault::FaultPlan::new()
            .fail_at(FaultSite::Append, 1, FaultKind::Transient)
            .fail_at(FaultSite::Append, 3, FaultKind::Transient)
            .fail_at(FaultSite::Sync, 2, FaultKind::Transient),
    );
    let (db, logger) = logged_db(LogConfig {
        fault: Some(Arc::clone(&plan)),
        retry_backoff: Duration::from_micros(50),
        ..LogConfig::in_memory(1)
    });
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut last = silo_core::Tid::ZERO;
    for i in 0..200u32 {
        let mut txn = w.begin();
        txn.write(t, format!("k{i}").as_bytes(), b"v").unwrap();
        last = txn.commit().unwrap();
    }
    drop(w);
    assert!(logger
        .wait_for_durable(last.epoch(), Duration::from_secs(10))
        .is_durable());
    assert_eq!(
        logger.durability_health(),
        silo_core::DurabilityHealth::Healthy
    );
    let stats = logger.stats();
    assert!(
        stats.retries >= 1,
        "injected transient faults must be retried"
    );
    assert!(stats.backoff_micros > 0);
    assert_eq!(stats.logger_failures, 0);
    assert!(stats.faults_injected >= 1);
    logger.shutdown();

    // Every committed transaction survives the retried faults.
    let db2 = Database::open(SiloConfig::for_testing());
    db2.create_table("t").unwrap();
    let state = recover_into(&db2, &logger.memory_logs()).unwrap();
    assert!(state.durable_epoch >= last.epoch());
    assert_eq!(state.replayed_txns, 200);
    db.stop_epoch_advancer();
}

#[test]
fn failed_syncs_reopen_the_segment_before_retrying() {
    // fsyncgate: after a failed fsync the kernel may mark dirty pages clean,
    // so retrying fsync on the same descriptor can falsely succeed. The
    // logger must instead reopen the segment, discard the unsynced tail, and
    // rewrite the round. Inject transient sync failures (plus a stall, which
    // succeeds slowly and must NOT trigger a reopen) against a real file
    // sink and verify both the reopen counter and that every commit is
    // recoverable from the files afterwards.
    let dir = std::env::temp_dir().join(format!("silo-log-fsyncgate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let expected;
    let last;
    {
        let plan = Arc::new(
            crate::fault::FaultPlan::new()
                .fail_at(FaultSite::Sync, 1, FaultKind::Transient)
                .fail_at(FaultSite::Sync, 3, FaultKind::SyncStall { millis: 5 })
                .fail_at(FaultSite::Sync, 4, FaultKind::Transient),
        );
        let (db, logger) = logged_db(LogConfig {
            fault: Some(Arc::clone(&plan)),
            retry_backoff: Duration::from_micros(50),
            ..LogConfig::to_directory(&dir, 1)
        });
        let t = db.create_table("t").unwrap();
        let mut w = db.register_worker();
        let mut tid = silo_core::Tid::ZERO;
        for i in 0..200u32 {
            let mut txn = w.begin();
            txn.write(t, format!("k{i:03}").as_bytes(), b"v").unwrap();
            tid = txn.commit().unwrap();
        }
        drop(w);
        assert!(logger
            .wait_for_durable(tid.epoch(), Duration::from_secs(10))
            .is_durable());
        let stats = logger.stats();
        assert!(
            stats.sync_reopens >= 1,
            "a failed sync must reopen the segment, not re-sync the fd: {stats}"
        );
        assert!(stats.retries >= stats.sync_reopens);
        assert_eq!(stats.logger_failures, 0);
        expected = full_scan(&db, t);
        last = tid;
        logger.shutdown();
        db.stop_epoch_advancer();
    }
    // The rewritten rounds must leave a clean, fully replayable log.
    let db2 = Database::open(SiloConfig::for_testing());
    let t2 = db2.create_table("t").unwrap();
    let report = recover_directory(&db2, &dir, &RecoveryOptions::default()).unwrap();
    assert!(report.durable_epoch >= last.epoch());
    assert_eq!(report.replayed_txns, 200);
    assert_eq!(full_scan(&db2, t2), expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_permanent_fault_degrades_the_logger_instead_of_aborting() {
    let plan = Arc::new(crate::fault::FaultPlan::new().fail_at(
        FaultSite::Append,
        1,
        FaultKind::Permanent,
    ));
    let (db, logger) = logged_db(LogConfig {
        fault: Some(plan),
        retry_budget: Duration::from_millis(50),
        ..LogConfig::in_memory(1)
    });
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let tid = {
        let mut txn = w.begin();
        txn.write(t, b"doomed", b"v").unwrap();
        txn.commit().unwrap()
    };
    drop(w);

    // The first append fails permanently: the logger marks itself failed and
    // the wait reports that as a typed outcome — the process never aborts.
    assert_eq!(
        logger.wait_for_durable(tid.epoch(), Duration::from_secs(10)),
        DurableWait::Failed
    );
    assert_eq!(
        logger.durability_health(),
        silo_core::DurabilityHealth::Failed
    );
    assert_eq!(db.durability_health(), silo_core::DurabilityHealth::Failed);
    assert_eq!(logger.stats().logger_failures, 1);

    // Commits still complete (acknowledged-but-not-durable) and shutdown
    // drains cleanly through the degraded logger.
    let mut w = db.register_worker();
    let mut txn = w.begin();
    txn.write(t, b"after-failure", b"v").unwrap();
    txn.commit().unwrap();
    drop(w);
    logger.shutdown();
    db.stop_epoch_advancer();
}

#[test]
fn enospc_on_rotation_keeps_the_current_segment_writable() {
    let dir = std::env::temp_dir().join(format!("silo-log-enospc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let plan = Arc::new(crate::fault::FaultPlan::new().fail_at(
            FaultSite::Rotate,
            1,
            FaultKind::NoSpace,
        ));
        let (db, logger) = logged_db(LogConfig {
            segment_bytes: 4096,
            fault: Some(Arc::clone(&plan)),
            ..LogConfig::to_directory(&dir, 1)
        });
        let t = db.create_table("t").unwrap();
        let mut last = silo_core::Tid::ZERO;
        // Commit in waves (a fresh worker per wave, so each wave's partial
        // buffer is published when it drops), waiting out each group-commit
        // round, so the logger attempts rotation more than once — a single
        // burst can coalesce into one round: one rotate attempt (the injected
        // failure) and done.
        let mut i = 0u32;
        for _wave in 0..40 {
            let mut w = db.register_worker();
            for _ in 0..50 {
                let mut txn = w.begin();
                txn.write(t, format!("key{i:04}").as_bytes(), &[b'x'; 64])
                    .unwrap();
                last = txn.commit().unwrap();
                i += 1;
            }
            drop(w);
            assert!(logger
                .wait_for_durable(last.epoch(), Duration::from_secs(10))
                .is_durable());
            if i >= 400 && logger.stats().segments_rotated >= 1 {
                break;
            }
        }
        let total = i;

        // The failed rotation is non-fatal: the segment that was due to roll
        // stays writable, durability keeps advancing, and a later round
        // rotates successfully.
        assert!(logger
            .wait_for_durable(last.epoch(), Duration::from_secs(10))
            .is_durable());
        let stats = logger.stats();
        assert_eq!(stats.logger_failures, 0);
        assert_eq!(stats.faults_injected, 1);
        assert!(stats.segments_rotated >= 1, "a later rotation must succeed");
        logger.shutdown();
        db.stop_epoch_advancer();

        // Everything acknowledged recovers.
        let db2 = Database::open(SiloConfig::for_testing());
        let t2 = db2.create_table("t").unwrap();
        let report = recover_directory(&db2, &dir, &RecoveryOptions::default()).unwrap();
        assert!(report.durable_epoch >= last.epoch());
        assert_eq!(full_scan(&db2, t2).len(), total as usize);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

mod checkpoint_equivalence {
    //! Property test for the recovery horizon story: restoring the latest
    //! checkpoint (epoch `ce`) and replaying only the log tail must be
    //! byte-for-byte equivalent to replaying the *full* log from scratch,
    //! for arbitrary commit histories — including deletes and re-inserts
    //! whose lifetimes straddle the checkpoint epoch, and whether or not the
    //! covered log prefix was already truncated away.

    use super::*;
    use crate::record::{encode_epoch_marker, encode_txn};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use silo_core::Tid;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique scratch-directory counter across proptest cases.
    static CASE: AtomicU64 = AtomicU64::new(0);

    const MAX_EPOCH: u64 = 5;

    fn key_bytes(k: u8) -> Vec<u8> {
        vec![b'k', b'0' + k / 10, b'0' + k % 10]
    }

    fn value_bytes(v: u8) -> Vec<u8> {
        vec![v; (v % 5) as usize + 1]
    }

    /// One logged transaction: (epoch, writes as (key, Some(value) | delete)).
    fn arb_txn() -> impl Strategy<Value = (u8, Vec<(u8, Option<u8>)>)> {
        (
            1u8..=MAX_EPOCH as u8,
            vec((0u8..12, proptest::option::of(any::<u8>())), 1..4),
        )
    }

    /// Writes `streams` as one segment file per logger under `dir`, each
    /// stream terminated by a durable-epoch marker at `durable`.
    fn write_log_dir(dir: &std::path::Path, streams: &[Vec<u8>], durable: u64) {
        std::fs::create_dir_all(dir).unwrap();
        for (i, stream) in streams.iter().enumerate() {
            let mut bytes = stream.clone();
            encode_epoch_marker(&mut bytes, durable);
            std::fs::write(dir.join(format!("silo-log-{i}-seg000000.bin")), bytes).unwrap();
        }
    }

    /// Writes a checkpoint at `ce` holding `state` (key -> (tid, value)) in
    /// the on-disk slice + manifest format.
    fn write_checkpoint(dir: &std::path::Path, ce: u64, state: &HashMap<u8, (Tid, Vec<u8>)>) {
        let ckpt = dir.join("checkpoints").join(format!("ckpt-{ce:016x}"));
        std::fs::create_dir_all(&ckpt).unwrap();
        let mut payload = Vec::new();
        let mut keys: Vec<&u8> = state.keys().collect();
        keys.sort();
        for k in &keys {
            let (tid, value) = &state[k];
            let key = key_bytes(**k);
            payload.extend_from_slice(&0u32.to_le_bytes());
            payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
            payload.extend_from_slice(&key);
            payload.extend_from_slice(&tid.raw().to_le_bytes());
            payload.extend_from_slice(&(value.len() as u32).to_le_bytes());
            payload.extend_from_slice(value);
        }
        let mut slice = crate::checkpoint::SLICE_MAGIC.to_vec();
        crate::checkpoint::write_frame(&mut slice, &payload).unwrap();
        std::fs::write(ckpt.join("slice-0.bin"), &slice).unwrap();
        std::fs::write(
            ckpt.join("MANIFEST"),
            format!(
                "silo-checkpoint v2\nepoch {ce}\nslices 1\nslice 0 {} {}\nend\n",
                slice.len(),
                keys.len()
            ),
        )
        .unwrap();
    }

    /// Recovers `dir` into a fresh database and returns the full table scan.
    fn recover_scan(dir: &std::path::Path) -> Vec<(Vec<u8>, Vec<u8>)> {
        let db = Database::open(SiloConfig::for_testing());
        let t = db.create_table("t").unwrap();
        recover_directory(
            &db,
            dir,
            &RecoveryOptions {
                replay_threads: 2,
                ..Default::default()
            },
        )
        .unwrap();
        full_scan(&db, t)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn checkpoint_plus_tail_equals_full_log_replay(
            txns in vec(arb_txn(), 1..32),
            ce in 0u64..=MAX_EPOCH,
            split_bits in any::<u64>(),
        ) {
            // Assign each transaction a unique TID (its position is the
            // sequence number, so same-epoch TIDs are distinct) and spread
            // them over two logger streams — arrival order within a stream is
            // *not* TID order, exactly as with real loggers.
            let mut streams = vec![Vec::new(), Vec::new()];
            let mut tail_streams = vec![Vec::new(), Vec::new()];
            let mut model: HashMap<u8, (Tid, Option<Vec<u8>>)> = HashMap::new();
            // Same shape for the checkpoint-time state: deletes must keep
            // their TID as a tombstone while folding (generation order is
            // not TID order), and only materialize as "key absent" at the
            // end.
            let mut ckpt_model: HashMap<u8, (Tid, Option<Vec<u8>>)> = HashMap::new();
            for (i, (epoch, raw_writes)) in txns.iter().enumerate() {
                let tid = Tid::new(*epoch as u64, i as u64 + 1);
                // A committed write-set holds one entry per key (later writes
                // in a transaction overwrite earlier ones): dedupe last-wins.
                let mut writes: Vec<(u8, Option<u8>)> = Vec::new();
                for (k, v) in raw_writes {
                    if let Some(slot) = writes.iter_mut().find(|(key, _)| key == k) {
                        slot.1 = *v;
                    } else {
                        writes.push((*k, *v));
                    }
                }
                let encoded: Vec<(silo_core::TableId, Vec<u8>, Option<Vec<u8>>)> = writes
                    .iter()
                    .map(|(k, v)| (0, key_bytes(*k), v.map(value_bytes)))
                    .collect();
                let borrowed: Vec<(silo_core::TableId, &[u8], Option<&[u8]>)> = encoded
                    .iter()
                    .map(|(t, k, v)| (*t, k.as_slice(), v.as_deref()))
                    .collect();
                let stream = ((split_bits >> (i % 64)) & 1) as usize;
                encode_txn(&mut streams[stream], tid, &borrowed, false);
                if tid.epoch() > ce {
                    encode_txn(&mut tail_streams[stream], tid, &borrowed, false);
                }
                for (k, v) in &writes {
                    // Reference model: the largest TID wins per key.
                    let slot = model.entry(*k).or_insert((Tid::ZERO, None));
                    if tid > slot.0 {
                        *slot = (tid, v.map(value_bytes));
                    }
                    // Checkpoint state: largest TID at or below `ce` wins.
                    if tid.epoch() <= ce {
                        let slot = ckpt_model.entry(*k).or_insert((Tid::ZERO, None));
                        if tid > slot.0 {
                            *slot = (tid, v.map(value_bytes));
                        }
                    }
                }
            }
            // Deleted keys are simply not present in a written checkpoint.
            let ckpt_state: HashMap<u8, (Tid, Vec<u8>)> = ckpt_model
                .into_iter()
                .filter_map(|(k, (tid, v))| v.map(|v| (k, (tid, v))))
                .collect();
            let expected: Vec<(Vec<u8>, Vec<u8>)> = {
                let mut rows: Vec<_> = model
                    .iter()
                    .filter_map(|(k, (_, v))| v.clone().map(|v| (key_bytes(*k), v)))
                    .collect();
                rows.sort();
                rows
            };

            let case = CASE.fetch_add(1, Ordering::Relaxed);
            let root = std::env::temp_dir()
                .join(format!("silo-ckpt-prop-{}-{case}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);

            // (a) Full-log replay, no checkpoint.
            let full = root.join("full");
            write_log_dir(&full, &streams, MAX_EPOCH + 1);
            prop_assert_eq!(&recover_scan(&full), &expected, "full-log replay diverged");

            if ce > 0 {
                // (b) Checkpoint + *untruncated* logs: the covered prefix is
                // still on disk and must be skipped, not double-applied.
                let with_ckpt = root.join("ckpt-full-logs");
                write_log_dir(&with_ckpt, &streams, MAX_EPOCH + 1);
                write_checkpoint(&with_ckpt, ce, &ckpt_state);
                prop_assert_eq!(
                    &recover_scan(&with_ckpt), &expected,
                    "checkpoint + untruncated log diverged (ce={})", ce
                );

                // (c) Checkpoint + truncated logs: only the tail survives.
                let truncated = root.join("ckpt-tail-only");
                write_log_dir(&truncated, &tail_streams, MAX_EPOCH + 1);
                write_checkpoint(&truncated, ce, &ckpt_state);
                prop_assert_eq!(
                    &recover_scan(&truncated), &expected,
                    "checkpoint + truncated log diverged (ce={})", ce
                );
            }
            std::fs::remove_dir_all(&root).unwrap();
        }
    }
}
