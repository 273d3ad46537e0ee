//! The multi-threaded benchmark driver (paper §5.1).
//!
//! "Each thread combines a database worker with a workload generator. These
//! threads run within the same process, and share Silo trees in the same
//! address space. We run each experiment for 60 seconds."
//!
//! The driver spawns one thread per requested worker, each of which registers
//! a [`Worker`] with the database, repeatedly asks the [`Workload`] for one
//! transaction, and counts commits and aborts. When a [`SiloLogger`] is
//! supplied, a sample of transactions additionally measures *durable latency*
//! — the time from the start of the transaction until its epoch becomes
//! durable — which is what Figure 7 plots.
//!
//! Latency sampling is asynchronous: workers hand each sampled transaction's
//! start time and commit epoch to a dedicated sampler thread, which parks in
//! [`SiloLogger::wait_for_durable`] on their behalf. Group-commit latency is
//! epochs long (tens of milliseconds), so a worker that waited inline would
//! spend almost all of its time parked and the "persistent" series would
//! measure the sampling policy rather than the logging subsystem.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use silo_core::{Database, Worker, WorkerStats};
use silo_log::{CheckpointStats, Checkpointer, LoggerStats, SiloLogger};

/// A workload: produces one transaction per call against the given worker.
///
/// Implementations decide the transaction type (e.g. the TPC-C mix) using the
/// supplied RNG and report whether the transaction committed.
pub trait Workload: Send + Sync {
    /// Runs exactly one transaction attempt. Returns `true` on commit,
    /// `false` on abort.
    fn run_one(&self, worker: &mut Worker, rng: &mut SmallRng, thread_index: usize) -> bool;

    /// Called once per thread before the measurement loop starts.
    fn setup_thread(&self, _worker: &mut Worker, _thread_index: usize) {}
}

/// Options for one driver run: thread count, duration, seeding, latency
/// sampling, and the durability attachments (logger, checkpointer) that the
/// run should sample and report on.
///
/// This is the single entry point for both MemSilo-style and persistent
/// runs — what used to be the `run_workload`/`run_workload_durable` pair is
/// now one builder:
///
/// ```no_run
/// use std::time::Duration;
/// use silo_wl::driver::RunOptions;
/// # let db = silo_core::Database::open(silo_core::SiloConfig::for_testing());
/// # struct W; impl silo_wl::driver::Workload for W {
/// #   fn run_one(&self, _: &mut silo_core::Worker, _: &mut rand::rngs::SmallRng, _: usize) -> bool { true }
/// # }
/// let result = RunOptions::default()
///     .with_threads(4)
///     .with_duration(Duration::from_secs(10))
///     .run(&db, std::sync::Arc::new(W));
/// println!("{:.0} txn/s", result.throughput());
/// ```
///
/// The struct is `#[non_exhaustive]`: construct it with [`Default`] and
/// refine with the `with_*` methods, so new knobs (as the server and future
/// subsystems grow) are never a breaking change.
#[derive(Clone)]
#[non_exhaustive]
pub struct RunOptions {
    /// Number of worker threads.
    pub threads: usize,
    /// Measured run duration.
    pub duration: Duration,
    /// Random seed base (thread `i` uses `seed + i`).
    pub seed: u64,
    /// Sample 1-in-N committed transactions for durable-latency measurement
    /// (0 disables sampling even when a logger is present).
    pub latency_sample_every: u64,
    /// Durability subsystem to sample durable latency against and whose
    /// counters the result should include (`None` = MemSilo-style run).
    pub logger: Option<Arc<SiloLogger>>,
    /// Periodic checkpointer (spawned by the caller against the same
    /// database and logger) whose counters the result should include. The
    /// checkpointer keeps running when the run returns — shutting it down
    /// (and deciding whether a final checkpoint is taken) stays with the
    /// caller, mirroring how the logger is handled.
    pub checkpointer: Option<Arc<Checkpointer>>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            threads: 1,
            duration: Duration::from_secs(1),
            seed: 0xC0FFEE,
            latency_sample_every: 64,
            logger: None,
            checkpointer: None,
        }
    }
}

impl std::fmt::Debug for RunOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("threads", &self.threads)
            .field("duration", &self.duration)
            .field("seed", &self.seed)
            .field("latency_sample_every", &self.latency_sample_every)
            .field("logger", &self.logger.is_some())
            .field("checkpointer", &self.checkpointer.is_some())
            .finish()
    }
}

impl RunOptions {
    /// Sets the number of worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the measured run duration.
    pub fn with_duration(mut self, duration: Duration) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the random seed base.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the 1-in-N durable-latency sampling rate (0 disables).
    pub fn with_latency_sample_every(mut self, every: u64) -> Self {
        self.latency_sample_every = every;
        self
    }

    /// Attaches the durability subsystem (enables durable-latency sampling).
    pub fn with_logger(mut self, logger: Arc<SiloLogger>) -> Self {
        self.logger = Some(logger);
        self
    }

    /// Attaches a running checkpointer whose counters the result includes.
    pub fn with_checkpointer(mut self, checkpointer: Arc<Checkpointer>) -> Self {
        self.checkpointer = Some(checkpointer);
        self
    }

    /// Runs `workload` against `db` with these options
    /// (method form of [`run_workload`]).
    pub fn run(self, db: &Arc<Database>, workload: Arc<dyn Workload>) -> RunResult {
        run_workload(db, workload, self)
    }
}

/// Latency statistics over the sampled transactions, in microseconds.
#[derive(Debug, Clone, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub samples: u64,
    /// Mean latency (µs).
    pub mean_us: f64,
    /// Median latency (µs).
    pub p50_us: u64,
    /// 99th-percentile latency (µs).
    pub p99_us: u64,
    /// Maximum observed latency (µs).
    pub max_us: u64,
}

/// The nearest-rank `p`-quantile (`0.0..=1.0`) of ascending `sorted`
/// samples: the sample at index `round((n − 1) · p)`, or 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

impl LatencySummary {
    fn from_samples(mut samples: Vec<u64>) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        let n = samples.len();
        let sum: u64 = samples.iter().sum();
        LatencySummary {
            samples: n as u64,
            mean_us: sum as f64 / n as f64,
            p50_us: percentile(&samples, 0.50),
            p99_us: percentile(&samples, 0.99),
            max_us: samples[n - 1],
        }
    }
}

/// Result of a driver run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Committed transactions across all threads.
    pub committed: u64,
    /// Aborted transaction attempts across all threads.
    pub aborted: u64,
    /// Wall-clock duration of the measured run.
    pub duration: Duration,
    /// Aggregated engine statistics.
    pub stats: WorkerStats,
    /// Durable-latency summary (empty when no logger / sampling disabled).
    pub latency: LatencySummary,
    /// Number of worker threads used.
    pub threads: usize,
    /// Logging-subsystem counters at the end of the run (`None` when the run
    /// had no logger).
    pub logger_stats: Option<LoggerStats>,
    /// Checkpointer counters at the end of the run (`None` when the run had
    /// no checkpointer).
    pub checkpoint_stats: Option<CheckpointStats>,
    /// Index statistics (node counts, trie layers, splits, reader retries),
    /// filled in by the benchmark binaries after the run from
    /// `Database::index_stats()` (or the Key-Value store's tree).
    pub index_stats: Option<silo_core::IndexStats>,
}

impl RunResult {
    /// Committed transactions per second.
    pub fn throughput(&self) -> f64 {
        self.committed as f64 / self.duration.as_secs_f64()
    }

    /// Committed transactions per second per worker thread.
    pub fn per_core_throughput(&self) -> f64 {
        self.throughput() / self.threads.max(1) as f64
    }

    /// Aborts per second.
    pub fn abort_rate(&self) -> f64 {
        self.aborted as f64 / self.duration.as_secs_f64()
    }
}

/// Runs `workload` against `db` with the given options (see [`RunOptions`];
/// [`RunOptions::run`] is the method form).
pub fn run_workload(
    db: &Arc<Database>,
    workload: Arc<dyn Workload>,
    options: RunOptions,
) -> RunResult {
    let RunOptions { logger, checkpointer, .. } = options.clone();
    let config = options;
    let stop = Arc::new(AtomicBool::new(false));
    let start_barrier = Arc::new(std::sync::Barrier::new(config.threads + 1));
    let mut handles = Vec::new();

    // Asynchronous durable-latency sampling: sampled commits send their
    // (start time, post-commit epoch) to this thread, which parks in
    // `wait_for_durable` so the workers never stall on group commit.
    let (sample_tx, sampler) = match (&logger, config.latency_sample_every) {
        (Some(logger), n) if n > 0 => {
            let logger = Arc::clone(logger);
            let (tx, rx) = std::sync::mpsc::channel::<(Instant, u64)>();
            let handle = std::thread::Builder::new()
                .name("silo-latency-sampler".to_string())
                .spawn(move || {
                    let mut latencies = Vec::new();
                    // Batch group-commit waits: `wait_for_durable_epoch`
                    // parks only for the *first* sample of each epoch group —
                    // samples arrive in roughly epoch order and the durable
                    // epoch is monotone, so every queued sample the advance
                    // covered passes the fast path (one atomic load, no
                    // condvar) instead of taking the durable mutex per
                    // transaction.
                    let mut failed = false;
                    while let Ok((begin, epoch)) = rx.recv() {
                        if failed {
                            // A failed logger never becomes durable again;
                            // drain the queue without recording.
                            continue;
                        }
                        match logger.wait_for_durable_epoch(epoch) {
                            silo_log::DurableWait::Durable => {
                                latencies.push(begin.elapsed().as_micros() as u64);
                            }
                            _ => failed = true,
                        }
                    }
                    latencies
                })
                .expect("spawn latency sampler");
            (Some(tx), Some(handle))
        }
        _ => (None, None),
    };

    for thread_index in 0..config.threads {
        let db = Arc::clone(db);
        let workload = Arc::clone(&workload);
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&start_barrier);
        let sample_tx = sample_tx.clone();
        let sample_every = config.latency_sample_every.max(1);
        let seed = config.seed + thread_index as u64;
        handles.push(std::thread::spawn(move || {
            let mut worker = db.register_worker();
            let mut rng = SmallRng::seed_from_u64(seed);
            workload.setup_thread(&mut worker, thread_index);
            barrier.wait();
            let mut committed = 0u64;
            let mut aborted = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let sample = sample_tx.is_some() && (committed + aborted) % sample_every == 0;
                let begin = if sample { Some(Instant::now()) } else { None };
                let ok = workload.run_one(&mut worker, &mut rng, thread_index);
                if ok {
                    committed += 1;
                    if let (Some(begin), Some(tx)) = (begin, sample_tx.as_ref()) {
                        // The commit epoch is at most the global epoch read
                        // right after commit, so waiting for that epoch is a
                        // conservative durable-latency measurement. The wait
                        // itself happens on the sampler thread.
                        let _ = tx.send((begin, db.epochs().global_epoch()));
                    }
                } else {
                    aborted += 1;
                }
            }
            worker.quiesce();
            let stats = worker.stats().clone();
            drop(worker);
            (committed, aborted, stats)
        }));
    }

    start_barrier.wait();
    let started = Instant::now();
    std::thread::sleep(config.duration);
    stop.store(true, Ordering::Relaxed);

    let mut committed = 0;
    let mut aborted = 0;
    let mut stats = WorkerStats::default();
    for handle in handles {
        let (c, a, s) = handle.join().expect("worker thread panicked");
        committed += c;
        aborted += a;
        stats.merge(&s);
    }
    let duration = started.elapsed();

    // All worker threads (and their sender clones) are gone; dropping the
    // last sender lets the sampler drain its queue and exit. Joining it
    // *after* the workers is what lets in-flight samples complete: with the
    // workers quiesced, the epoch — and with it the durable epoch — keeps
    // advancing.
    drop(sample_tx);
    let all_latencies = sampler
        .map(|h| h.join().expect("latency sampler panicked"))
        .unwrap_or_default();

    RunResult {
        committed,
        aborted,
        duration,
        stats,
        latency: LatencySummary::from_samples(all_latencies),
        threads: config.threads,
        logger_stats: logger.map(|l| l.stats()),
        checkpoint_stats: checkpointer.map(|c| c.stats()),
        index_stats: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_core::SiloConfig;

    struct TrivialWorkload {
        table: silo_core::TableId,
    }

    impl Workload for TrivialWorkload {
        fn run_one(&self, worker: &mut Worker, rng: &mut SmallRng, thread: usize) -> bool {
            use rand::Rng;
            let key = format!("t{}k{}", thread, rng.gen_range(0..100u32));
            let mut txn = worker.begin();
            if txn.write(self.table, key.as_bytes(), b"value").is_err() {
                txn.abort();
                return false;
            }
            txn.commit().is_ok()
        }
    }

    #[test]
    fn driver_runs_and_counts_commits() {
        let db = Database::open(SiloConfig::for_testing().with_spawn_epoch_advancer(true));
        let table = db.create_table("t").unwrap();
        let result = RunOptions::default()
            .with_threads(2)
            .with_duration(Duration::from_millis(100))
            .run(&db, Arc::new(TrivialWorkload { table }));
        assert!(result.committed > 0);
        assert!(result.throughput() > 0.0);
        assert!(result.per_core_throughput() <= result.throughput());
        db.stop_epoch_advancer();
    }

    #[test]
    fn latency_summary_percentiles() {
        let s = LatencySummary::from_samples(vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(s.samples, 10);
        assert_eq!(s.p50_us, 60);
        assert_eq!(s.max_us, 100);
        assert!(s.mean_us > 10.0 && s.mean_us < 100.0);
        let empty = LatencySummary::from_samples(vec![]);
        assert_eq!(empty.samples, 0);
    }
}
