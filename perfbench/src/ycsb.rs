//! `ycsb-mem`: the paper's YCSB variant on an embedded MemSilo (no logger).
//!
//! Two closed-loop workers; 80% single-read transactions, 20%
//! read-modify-write transactions that add 1 to every byte of a 100-byte
//! record, keys uniform over 1 M. A conflict abort is retried on the same key
//! until the transaction commits, so every operation completes.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use silo_core::{Database, TableId, WorkerStats};
use silo_wl::ycsb::{load_silo, ycsb_key, ycsb_value, YcsbConfig, RECORD_SIZE};

use crate::common::*;
use crate::hist::Histogram;
use crate::trace::{self_times, Span, Tracer, REQUEST};
use crate::Workload;

pub const THREADS: usize = 2;
const KEYS: u64 = 1_000_000;
const SMALL_KEYS: u64 = 20_000;
const READ_FRACTION: f64 = 0.8;
/// A transaction that aborts this many times in a row counts as failed.
const MAX_RETRIES: u64 = 1000;
const INDEX_PROBES: usize = 20_000;

pub struct Ycsb {
    db: Arc<Database>,
    table: TableId,
    keys: u64,
    seed: u64,
    /// Read-modify-writes committed per key, mod 256.
    rmws: Vec<u8>,
    /// Per phase: commits the benchmark counted and the workers' merged stats at its end.
    commits: Vec<u64>,
    stats: Vec<WorkerStats>,
    watched: Option<Watched>,
}

/// What one worker thread brings back.
struct ThreadOut {
    phases: Vec<Phase>,
    commits: Vec<u64>,
    stats: Vec<WorkerStats>,
    rmws: Vec<u8>,
}

impl Workload for Ycsb {
    // A set-up loads a million records and takes seconds on its own.
    const SETUPS_PER_CYCLE: u32 = 1;
    const MEM_AFTER_OPS: u64 = 100_000;

    fn config(small: bool) -> Vec<(&'static str, String)> {
        vec![
            ("keys", (if small { SMALL_KEYS } else { KEYS }).to_string()),
            ("record_bytes", RECORD_SIZE.to_string()),
            ("read_fraction", READ_FRACTION.to_string()),
            ("workers", THREADS.to_string()),
            ("logger", "none".to_string()),
        ]
    }

    fn setup(plan: &Plan) -> Ycsb {
        let keys = if plan.small { SMALL_KEYS } else { KEYS };
        let db = Database::open(silo_config());
        let config = YcsbConfig {
            keys,
            read_fraction: READ_FRACTION,
            record_size: RECORD_SIZE,
        };
        let table = load_silo(&db, &config);
        Ycsb {
            db,
            table,
            keys,
            seed: plan.seed,
            rmws: vec![0; keys as usize],
            commits: Vec::new(),
            stats: Vec::new(),
            watched: None,
        }
    }

    fn teardown(self) {
        self.db.stop_epoch_advancer();
    }

    fn run(&mut self, plan: &Plan) -> Vec<Phase> {
        let timeline = Timeline::new(plan);
        let this = &*self;
        let (outs, watched) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let timeline = &timeline;
                    s.spawn(move || this.worker_loop(t, timeline))
                })
                .collect();
            let watched = watch(&timeline, &this.db, None, false, || None);
            let outs: Vec<ThreadOut> = handles
                .into_iter()
                .map(|h| h.join().expect("ycsb worker panicked"))
                .collect();
            (outs, watched)
        });
        self.watched = Some(watched);
        let n = timeline.len();
        let mut phases: Vec<Phase> = (0..n).map(|_| Phase::default()).collect();
        self.commits = vec![0; n];
        self.stats = vec![WorkerStats::default(); n];
        for out in outs {
            for (i, p) in out.phases.into_iter().enumerate() {
                phases[i].merge(p);
                self.commits[i] += out.commits[i];
                self.stats[i].merge(&out.stats[i]);
            }
            for (total, add) in self.rmws.iter_mut().zip(&out.rmws) {
                *total = total.wrapping_add(*add);
            }
        }
        phases
    }

    fn layers(&mut self, phases: &[Phase], traced: usize, m: &mut Metrics, checks: &mut Checks) {
        let watched = self.watched.as_ref().expect("run before layers");
        let selfs = self_times(&phases[traced].spans);
        m.quantiles("core.read_ns", selfs.get("core.read"), "ns");
        m.quantiles("core.write_ns", selfs.get("core.write"), "ns");
        m.quantiles("core.commit_ns", selfs.get("core.commit"), "ns");
        let before = if traced == 0 {
            WorkerStats::default()
        } else {
            self.stats[traced - 1].clone()
        };
        let stats = stats_delta(&self.stats[traced], &before);
        core_metrics(m, &stats);
        let commits = self.commits[traced]
            - if traced == 0 {
                0
            } else {
                self.commits[traced - 1]
            };
        checks.check(
            commits == stats.commits,
            format!(
                "commits the benchmark counted ({commits}) == WorkerStats commits ({})",
                stats.commits
            ),
        );
        zero(m, TPCC_TIMINGS);
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x1D3);
        let probes: Vec<Vec<u8>> = (0..INDEX_PROBES)
            .map(|_| ycsb_key(rng.gen_range(0..self.keys)).to_vec())
            .collect();
        index_metrics(
            m,
            &self.db,
            self.table,
            &probes,
            &watched.marks[traced].index,
            commits,
        );
        let epochs = watched.epochs[traced]
            .as_ref()
            .expect("traced phase has epoch readings");
        epoch_metrics(m, epochs);
        zero(m, LOG_METRICS);
        zero(m, NET_METRICS);
    }

    fn verify(self, checks: &mut Checks) {
        // Each record must equal its load payload with every byte shifted by
        // the number of read-modify-writes committed on it: a lost or doubled
        // update shows as a mismatch.
        let mut worker = self.db.register_worker();
        let mut buf = Vec::new();
        let mut bad = Vec::new();
        let mut i = 0u64;
        while i < self.keys {
            let end = (i + 1024).min(self.keys);
            let mut txn = worker.begin();
            for k in i..end {
                let present = txn
                    .read_into(self.table, &ycsb_key(k), &mut buf)
                    .unwrap_or(false);
                let shift = self.rmws[k as usize];
                let want = ycsb_value(k, RECORD_SIZE);
                let ok = present
                    && buf.len() == want.len()
                    && buf
                        .iter()
                        .zip(&want)
                        .all(|(b, w)| *b == w.wrapping_add(shift));
                if !ok && bad.len() < 5 {
                    bad.push(k);
                }
            }
            let _ = txn.commit();
            i = end;
        }
        let touched = self.rmws.iter().filter(|&&c| c != 0).count();
        checks.check(
            bad.is_empty(),
            format!(
                "every one of {} records equals its load payload shifted by its committed \
                 read-modify-writes ({touched} keys updated; first mismatches: {bad:?})",
                self.keys
            ),
        );
        drop(worker);
        self.db.stop_epoch_advancer();
    }
}

impl Ycsb {
    fn worker_loop(&self, thread: usize, timeline: &Timeline) -> ThreadOut {
        let n = timeline.len();
        let mut worker = self.db.register_worker();
        let mut rng =
            SmallRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ thread as u64);
        let mut tracer = Tracer::new(timeline.origin, thread as u64, timeline.trace_every(0));
        let mut out = ThreadOut {
            phases: (0..n).map(|_| Phase::default()).collect(),
            commits: vec![0; n],
            stats: vec![WorkerStats::default(); n],
            rmws: vec![0; self.keys as usize],
        };
        let mut buf = Vec::with_capacity(RECORD_SIZE);
        let mut cur = 0;
        let mut commits = 0u64;
        let mut req = 0u64;
        loop {
            let start = timeline.now_ns();
            let Some(phase) = timeline.phase_at(start) else {
                break;
            };
            while cur < phase {
                out.stats[cur] = worker.stats().clone();
                out.commits[cur] = commits;
                out.phases[cur].spans = std::mem::take(&mut tracer.spans);
                cur += 1;
                tracer.set_every(timeline.trace_every(cur));
            }
            req += 1;
            let k = rng.gen_range(0..self.keys);
            let key = ycsb_key(k);
            let is_read = rng.gen_bool(READ_FRACTION);
            let traced = tracer.sampled(req);
            let root = if traced { tracer.open() } else { 0 };
            let p = &mut out.phases[cur];
            p.attempted += 1;
            let mut attempts = 0;
            let committed = loop {
                attempts += 1;
                let mut txn = worker.begin();
                let body = tracer.call(traced, "core.read", root, req, || {
                    txn.read_into(self.table, &key, &mut buf)
                });
                let body = body.and_then(|_| {
                    if is_read {
                        return Ok(());
                    }
                    buf.resize(RECORD_SIZE, 0);
                    for b in buf.iter_mut() {
                        *b = b.wrapping_add(1);
                    }
                    tracer.call(traced, "core.write", root, req, || {
                        txn.write(self.table, &key, &buf)
                    })
                });
                let result = match body {
                    Ok(()) => tracer
                        .call(traced, "core.commit", root, req, || txn.commit())
                        .map(|_| ()),
                    Err(e) => {
                        txn.abort();
                        Err(e)
                    }
                };
                match result {
                    Ok(()) => break true,
                    Err(_) if attempts < MAX_RETRIES => p.retries += 1,
                    Err(_) => break false,
                }
            };
            let end = timeline.now_ns();
            if traced {
                tracer.record(Span {
                    name: REQUEST,
                    id: root,
                    parent: 0,
                    req,
                    start_ns: start,
                    end_ns: end,
                });
            }
            if !committed {
                p.failed += 1;
                continue;
            }
            commits += 1;
            p.completed += 1;
            timeline.completed();
            let hist: &mut Histogram = if is_read { &mut p.read } else { &mut p.write };
            hist.record(end - start);
            if !is_read {
                out.rmws[k as usize] = out.rmws[k as usize].wrapping_add(1);
            }
        }
        while cur < n {
            out.stats[cur] = worker.stats().clone();
            out.commits[cur] = commits;
            out.phases[cur].spans = std::mem::take(&mut tracer.spans);
            cur += 1;
        }
        worker.quiesce();
        out
    }
}
