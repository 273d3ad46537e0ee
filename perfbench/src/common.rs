//! What every workload shares: the run plan and its phases, the metric and
//! check collectors, and the per-layer readings taken from outside a layer
//! (stats snapshots, the epoch poller, timed index probes).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use silo_core::{Database, IndexStats, TableId, WorkerStats};
use silo_log::{DurableWait, LoggerStats, SiloLogger};

use crate::hist::Histogram;
use crate::trace::Span;

/// Epoch interval of every workload (the paper uses 40 ms; 10 ms lets a
/// 10-second run cross about a thousand epochs).
pub const EPOCH_MS: u64 = 10;

/// One request in this many is traced in a traced phase.
pub const TRACE_EVERY: u64 = 64;

/// The database configuration every workload opens: engine defaults with
/// 10 ms epochs.
pub fn silo_config() -> silo_core::SiloConfig {
    silo_core::SiloConfig::default().with_epoch(silo_core::EpochConfig {
        epoch_interval: Duration::from_millis(EPOCH_MS),
        snapshot_interval_epochs: 25,
    })
}

/// The phases of one run, back to back on the same threads: a warm-up whose
/// results are dropped, then one or more measured phases.
#[derive(Clone, Debug)]
pub struct Plan {
    pub seed: u64,
    /// Scratch directory for log files; removed at teardown.
    pub dir: PathBuf,
    pub phases: Vec<PhaseSpec>,
    /// Shorter runs and smaller data, for the self-test.
    pub small: bool,
    pub mem: Arc<MemProbe>,
}

/// Reads the process's peak memory once a run has completed a set number of
/// operations. TPC-C's tables grow with every transaction, so a reading
/// taken at a set time would also measure how fast the machine ran.
#[derive(Debug, Default)]
pub struct MemProbe {
    /// 0 takes no reading.
    after_ops: u64,
    done: AtomicU64,
    mb: OnceLock<f64>,
}

impl MemProbe {
    pub fn new(after_ops: u64) -> Arc<MemProbe> {
        Arc::new(MemProbe {
            after_ops,
            ..MemProbe::default()
        })
    }

    /// Counts one completed operation; the one that reaches the set number
    /// takes the reading. Once it is taken, a call only loads the count.
    pub fn completed(&self) {
        if self.done.load(Ordering::Relaxed) < self.after_ops
            && self.done.fetch_add(1, Ordering::Relaxed) + 1 == self.after_ops
        {
            let _ = self.mb.set(mem_peak_mb());
        }
    }

    /// The reading, if the run completed enough operations to take it.
    pub fn mb(&self) -> Option<f64> {
        self.mb.get().copied()
    }
}

#[derive(Clone, Copy, Debug)]
pub struct PhaseSpec {
    pub dur: Duration,
    /// Trace one request in this many; 0 traces none.
    pub trace_every: u64,
}

/// Phase boundaries on the run's clock; each thread checks them between
/// requests, so every thread switches phase without coordination.
#[derive(Clone)]
pub struct Timeline {
    pub origin: Instant,
    ends: Vec<u64>,
    every: Vec<u64>,
    mem: Arc<MemProbe>,
}

impl Timeline {
    pub fn new(plan: &Plan) -> Timeline {
        let phases = &plan.phases;
        let mut end = 0u64;
        let ends = phases
            .iter()
            .map(|p| {
                end += p.dur.as_nanos() as u64;
                end
            })
            .collect();
        let every = phases.iter().map(|p| p.trace_every).collect();
        Timeline {
            origin: Instant::now(),
            ends,
            every,
            mem: Arc::clone(&plan.mem),
        }
    }

    /// Notes one completed operation, for the memory probe.
    pub fn completed(&self) {
        self.mem.completed();
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// The phase that holds time `now_ns`, or `None` once the run is over.
    pub fn phase_at(&self, now_ns: u64) -> Option<usize> {
        self.ends.iter().position(|&end| now_ns < end)
    }

    pub fn trace_every(&self, phase: usize) -> u64 {
        self.every[phase]
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sleeps until the end of each phase in turn and calls `at_end` with the
    /// phase's index (used to snapshot a layer's counters at the boundary).
    pub fn follow(&self, mut at_end: impl FnMut(usize)) {
        for (i, &end) in self.ends.iter().enumerate() {
            let now = self.now_ns();
            if end > now {
                std::thread::sleep(Duration::from_nanos(end - now));
            }
            at_end(i);
        }
    }
}

/// What one phase of a run produced, merged over its threads.
#[derive(Default)]
pub struct Phase {
    /// Operations started (a retried transaction counts once).
    pub attempted: u64,
    /// Operations that completed successfully.
    pub completed: u64,
    /// Operations that failed for good.
    pub failed: u64,
    /// Conflict aborts the benchmark retried.
    pub retries: u64,
    /// End-to-end latency, in ns, of the workload's read and write classes.
    pub read: Histogram,
    pub write: Histogram,
    pub spans: Vec<Span>,
}

impl Phase {
    pub fn merge(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.retries += other.retries;
        self.read.merge(&other.read);
        self.write.merge(&other.write);
        self.spans.extend(other.spans);
    }
}

/// Named metric values in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Records the p50 and p99 of `h` (in ns) as `<name>.p50` and
    /// `<name>.p99`, scaled to `unit`.
    pub fn quantiles(&mut self, name: &str, h: Option<&Histogram>, unit: &'static str) {
        let scale = match unit {
            "ns" => 1.0,
            "us" => 1e3,
            "ms" => 1e6,
            other => panic!("not a time unit: {other}"),
        };
        let q = |q: f64| h.map_or(0.0, |h| h.quantile(q) / scale);
        self.put(format!("{name}.p50"), q(0.5), unit);
        self.put(format!("{name}.p99"), q(0.99), unit);
    }
}

/// Correctness checks; any failure makes the run incorrect.
#[derive(Default)]
pub struct Checks {
    pub passed: Vec<String>,
    pub failed: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if ok {
            self.passed.push(what);
        } else {
            eprintln!("CHECK FAILED: {what}");
            self.failed.push(what);
        }
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn mem_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time used so far by every thread of this process, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`). Unlike elapsed time, it does not grow while
/// a virtual machine's host runs something else on this machine's CPUs.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec (64-bit Linux layout) for
    // the whole call, and the clock id is a valid one.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Watches the epoch layer from outside: polls the global epoch (and the
/// logger's durable epoch) to time epoch advances and the durable lag. A
/// durable probe also times `wait_for_durable_epoch` from a point where a
/// commit could have returned, for workloads whose commits happen out of
/// the benchmark's sight (inside the server).
pub struct EpochWatch {
    stop: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<(Histogram, Histogram, u64, u64)>>,
}

pub struct EpochReadings {
    pub tick_ns: Histogram,
    pub durable_wait_ns: Histogram,
    pub lag_sum: u64,
    pub polls: u64,
}

impl EpochWatch {
    pub fn start(db: &Arc<Database>, logger: Option<&Arc<SiloLogger>>, probe: bool) -> EpochWatch {
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        {
            let (db, logger, stop) = (Arc::clone(db), logger.cloned(), Arc::clone(&stop));
            handles.push(std::thread::spawn(move || {
                let mut ticks = Histogram::default();
                let (mut lag_sum, mut polls) = (0u64, 0u64);
                let mut last = (db.epochs().global_epoch(), Instant::now());
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_micros(500));
                    let e = db.epochs().global_epoch();
                    if e != last.0 {
                        // The first change after start measures a partial tick.
                        if polls > 0 {
                            ticks.record(last.1.elapsed().as_nanos() as u64);
                        }
                        last = (e, Instant::now());
                    }
                    if let Some(l) = &logger {
                        lag_sum += e.saturating_sub(l.durable_epoch());
                    }
                    polls += 1;
                }
                (ticks, Histogram::default(), lag_sum, polls)
            }));
        }
        if let (true, Some(logger)) = (probe, logger) {
            let (db, logger, stop) = (Arc::clone(db), Arc::clone(logger), Arc::clone(&stop));
            handles.push(std::thread::spawn(move || {
                let mut waits = Histogram::default();
                while !stop.load(Ordering::Relaxed) {
                    let epoch = db.epochs().global_epoch();
                    let t0 = Instant::now();
                    if logger.wait_for_durable_epoch(epoch) != DurableWait::Durable {
                        break;
                    }
                    waits.record(t0.elapsed().as_nanos() as u64);
                    std::thread::sleep(Duration::from_millis(1));
                }
                (Histogram::default(), waits, 0, 0)
            }));
        }
        EpochWatch { stop, handles }
    }

    pub fn finish(self) -> EpochReadings {
        self.stop.store(true, Ordering::Relaxed);
        let mut r = EpochReadings {
            tick_ns: Histogram::default(),
            durable_wait_ns: Histogram::default(),
            lag_sum: 0,
            polls: 0,
        };
        for h in self.handles {
            let (ticks, waits, lag, polls) = h.join().expect("epoch watcher panicked");
            r.tick_ns.merge(&ticks);
            r.durable_wait_ns.merge(&waits);
            r.lag_sum += lag;
            r.polls += polls;
        }
        r
    }
}

/// Epoch readings; the durable lag is 0 without a logger (nothing polled it).
pub fn epoch_metrics(m: &mut Metrics, r: &EpochReadings) {
    m.quantiles("epoch.tick_ms", Some(&r.tick_ns), "ms");
    let lag = ratio(r.lag_sum as f64, r.polls as f64);
    m.put("epoch.durable_lag", lag, "epochs");
}

/// `silo-core` counters from the workers' merged `WorkerStats` over a phase.
pub fn core_metrics(m: &mut Metrics, s: &WorkerStats) {
    let reasons = &s.abort_reasons;
    let conflicts = s.aborts - reasons.user_requested;
    let attempts = s.commits + conflicts;
    let per_k = |n: u64| ratio(n as f64 * 1000.0, (s.commits + s.snapshot_commits) as f64);
    m.put("core.conflict_aborts_per_ktxn", per_k(conflicts), "1/ktxn");
    m.put(
        "core.aborts.read_validation_per_ktxn",
        per_k(reasons.read_validation),
        "1/ktxn",
    );
    m.put(
        "core.aborts.node_validation_per_ktxn",
        per_k(reasons.node_validation),
        "1/ktxn",
    );
    m.put(
        "core.aborts.unstable_read_per_ktxn",
        per_k(reasons.unstable_read),
        "1/ktxn",
    );
    m.put(
        "core.aborts.node_set_fixup_per_ktxn",
        per_k(reasons.node_set_fixup),
        "1/ktxn",
    );
    m.put(
        "core.aborts.duplicate_key_per_ktxn",
        per_k(reasons.duplicate_key),
        "1/ktxn",
    );
    m.put(
        "core.commit_ratio",
        ratio(s.commits as f64, attempts as f64),
        "ratio",
    );
    m.put("core.allocs_per_txn", s.allocs_per_txn(), "count");
    let pool = (s.pool_hits + s.pool_misses) as f64;
    m.put(
        "core.pool_hit_ratio",
        ratio(s.pool_hits as f64, pool),
        "ratio",
    );
    m.put(
        "core.reclaimed_per_ktxn",
        per_k(s.records_reclaimed),
        "1/ktxn",
    );
}

/// `WorkerStats` accumulated over a phase: `after` minus `before`.
pub fn stats_delta(after: &WorkerStats, before: &WorkerStats) -> WorkerStats {
    let r = (&after.abort_reasons, &before.abort_reasons);
    let mut d = after.clone();
    d.commits -= before.commits;
    d.aborts -= before.aborts;
    d.snapshot_commits -= before.snapshot_commits;
    d.records_reclaimed -= before.records_reclaimed;
    d.pool_hits -= before.pool_hits;
    d.pool_misses -= before.pool_misses;
    d.arena_chunk_allocs -= before.arena_chunk_allocs;
    d.inplace_overwrites -= before.inplace_overwrites;
    d.new_versions -= before.new_versions;
    d.abort_reasons.read_validation = r.0.read_validation - r.1.read_validation;
    d.abort_reasons.node_validation = r.0.node_validation - r.1.node_validation;
    d.abort_reasons.duplicate_key = r.0.duplicate_key - r.1.duplicate_key;
    d.abort_reasons.unstable_read = r.0.unstable_read - r.1.unstable_read;
    d.abort_reasons.node_set_fixup = r.0.node_set_fixup - r.1.node_set_fixup;
    d.abort_reasons.user_requested = r.0.user_requested - r.1.user_requested;
    d
}

/// `silo-log` counters over a phase; `acks` is what one sync releases
/// (commits on the embedded workload, acknowledged writes on `net-kv`).
pub fn log_metrics(
    m: &mut Metrics,
    before: &LoggerStats,
    after: &LoggerStats,
    secs: f64,
    acks: u64,
) {
    let syncs = after.sync_calls - before.sync_calls;
    let written = after.bytes_written - before.bytes_written;
    let published = after.bytes_published - before.bytes_published;
    let hits = after.pool_hits - before.pool_hits;
    let misses = after.pool_misses - before.pool_misses;
    m.put("log.syncs_per_s", ratio(syncs as f64, secs), "1/s");
    m.put(
        "log.commits_per_sync",
        ratio(acks as f64, syncs as f64),
        "count",
    );
    m.put(
        "log.bytes_per_commit",
        ratio(written as f64, acks as f64),
        "B",
    );
    m.put(
        "log.write_amp",
        ratio(written as f64, published as f64),
        "ratio",
    );
    m.put(
        "log.pool_miss_ratio",
        ratio(misses as f64, (hits + misses) as f64),
        "ratio",
    );
    m.put(
        "log.steal_publishes",
        (after.steal_publishes - before.steal_publishes) as f64,
        "count",
    );
    m.put(
        "log.retries",
        (after.retries - before.retries) as f64,
        "count",
    );
    m.put(
        "log.backoff_ms",
        (after.backoff_micros - before.backoff_micros) as f64 / 1e3,
        "ms",
    );
}

/// Checks on a logger that has shut down, so every published buffer has
/// been written: bytes written (published bytes plus framing) can then be no
/// fewer than bytes published, and no logger may have failed.
pub fn log_final_checks(checks: &mut Checks, logger: &SiloLogger) {
    let s = logger.stats();
    checks.check(
        s.bytes_written >= s.bytes_published,
        format!(
            "log bytes written ({}) >= log bytes published ({})",
            s.bytes_written, s.bytes_published
        ),
    );
    checks.check(s.logger_failures == 0, "no logger failed");
}

/// `silo-index` readings: a timed `Tree::get` probe over `keys`, plus the
/// structure counters of `Database::index_stats()` (`before` is taken at the
/// start of the traced phase, to turn splits and retries into rates).
pub fn index_metrics(
    m: &mut Metrics,
    db: &Arc<Database>,
    table: TableId,
    keys: &[Vec<u8>],
    before: &IndexStats,
    commits: u64,
) {
    let handle = db.table(table);
    let tree = handle.tree();
    let mut gets = Histogram::default();
    let mut found = 0u64;
    // Two passes: the first warms the path the second one times.
    for pass in 0..2 {
        for key in keys {
            let t0 = Instant::now();
            let hit = std::hint::black_box(tree.get(std::hint::black_box(key))).is_some();
            let ns = t0.elapsed().as_nanos() as u64;
            if pass == 1 {
                gets.record(ns);
                found += u64::from(hit);
            }
        }
    }
    assert_eq!(found, keys.len() as u64, "index probe keys must all exist");
    m.quantiles("index.get_ns", Some(&gets), "ns");
    let after = db.index_stats();
    let nodes = (after.leaves + after.inners) as f64;
    m.put(
        "index.nodes_per_kentry",
        ratio(nodes * 1000.0, after.entries as f64),
        "count",
    );
    m.put("index.depth", after.max_btree_depth as f64, "levels");
    m.put(
        "index.reader_retries",
        (after.reader_retries - before.reader_retries) as f64,
        "count",
    );
    let splits = (after.splits - before.splits) as f64;
    m.put(
        "index.splits_per_ktxn",
        ratio(splits * 1000.0, commits as f64),
        "1/ktxn",
    );
}

/// Metrics of layers a workload does not use: reported as 0 so every
/// workload prints the same per-layer names.
pub fn zero(m: &mut Metrics, names: &[(&str, &'static str)]) {
    for &(name, unit) in names {
        m.put(name, 0.0, unit);
    }
}

pub const CORE_TIMINGS: &[(&str, &str)] = &[
    ("core.read_ns.p50", "ns"),
    ("core.read_ns.p99", "ns"),
    ("core.write_ns.p50", "ns"),
    ("core.write_ns.p99", "ns"),
    ("core.commit_ns.p50", "ns"),
    ("core.commit_ns.p99", "ns"),
];

pub const TPCC_TIMINGS: &[(&str, &str)] = &[
    ("tpcc.new_order_us.p50", "us"),
    ("tpcc.new_order_us.p99", "us"),
    ("tpcc.payment_us.p50", "us"),
    ("tpcc.payment_us.p99", "us"),
    ("tpcc.order_status_us.p50", "us"),
    ("tpcc.order_status_us.p99", "us"),
    ("tpcc.delivery_us.p50", "us"),
    ("tpcc.delivery_us.p99", "us"),
    ("tpcc.stock_level_us.p50", "us"),
    ("tpcc.stock_level_us.p99", "us"),
];

pub const NET_METRICS: &[(&str, &str)] = &[
    ("server.requests", "count"),
    ("server.writes_acked", "count"),
    ("server.shed", "count"),
    ("server.protocol_errors", "count"),
    ("server.txns_aborted", "count"),
    ("client.send_us.p50", "us"),
    ("client.send_us.p99", "us"),
    ("client.recv_wait_us.p50", "us"),
    ("client.recv_wait_us.p99", "us"),
    ("client.batch_len", "count"),
];

pub const LOG_METRICS: &[(&str, &str)] = &[
    ("log.durable_wait_us.p50", "us"),
    ("log.durable_wait_us.p99", "us"),
    ("log.syncs_per_s", "1/s"),
    ("log.commits_per_sync", "count"),
    ("log.bytes_per_commit", "B"),
    ("log.write_amp", "ratio"),
    ("log.pool_miss_ratio", "ratio"),
    ("log.steal_publishes", "count"),
    ("log.retries", "count"),
    ("log.backoff_ms", "ms"),
];

pub const CORE_COUNTERS: &[(&str, &str)] = &[
    ("core.conflict_aborts_per_ktxn", "1/ktxn"),
    ("core.aborts.read_validation_per_ktxn", "1/ktxn"),
    ("core.aborts.node_validation_per_ktxn", "1/ktxn"),
    ("core.aborts.unstable_read_per_ktxn", "1/ktxn"),
    ("core.aborts.node_set_fixup_per_ktxn", "1/ktxn"),
    ("core.aborts.duplicate_key_per_ktxn", "1/ktxn"),
    ("core.commit_ratio", "ratio"),
    ("core.allocs_per_txn", "count"),
    ("core.pool_hit_ratio", "ratio"),
    ("core.reclaimed_per_ktxn", "1/ktxn"),
];

/// Layer counters read at a phase boundary.
pub struct Snapshot {
    pub index: IndexStats,
    pub log: Option<LoggerStats>,
    pub server: Option<silo_net::ServerStats>,
}

/// What the main thread saw while the workload's threads ran.
pub struct Watched {
    /// `marks[0]` is taken at the start; `marks[i + 1]` at the end of phase `i`.
    pub marks: Vec<Snapshot>,
    /// Epoch readings of each phase; only traced phases have them.
    pub epochs: Vec<Option<EpochReadings>>,
}

/// Follows the timeline on the calling thread, snapshotting the layer
/// counters at every boundary and watching the epoch layer during traced
/// phases. The watcher threads and the index walk (which visits every tree
/// node) run only for traced phases, so untraced phases stay clean.
pub fn watch(
    timeline: &Timeline,
    db: &Arc<Database>,
    logger: Option<&Arc<SiloLogger>>,
    probe: bool,
    server: impl Fn() -> Option<silo_net::ServerStats>,
) -> Watched {
    let traced = |phase: usize| phase < timeline.len() && timeline.trace_every(phase) > 0;
    let snap = |walk: bool| Snapshot {
        index: if walk {
            db.index_stats()
        } else {
            IndexStats::default()
        },
        log: logger.map(|l| l.stats()),
        server: server(),
    };
    let start_watch = |phase: usize| traced(phase).then(|| EpochWatch::start(db, logger, probe));
    let mut marks = vec![snap(traced(0))];
    let mut epochs = Vec::new();
    let mut current = start_watch(0);
    timeline.follow(|i| {
        epochs.push(current.take().map(EpochWatch::finish));
        marks.push(snap(traced(i) || traced(i + 1)));
        current = start_watch(i + 1);
    });
    Watched { marks, epochs }
}
