//! `tpcc-durable`: the TPC-C standard mix on an embedded Silo with
//! persistent logging.
//!
//! Two closed-loop workers, each on its own home warehouse (2 warehouses at
//! scale 0.05). A `SiloLogger` with 2 loggers writes to a scratch directory
//! with fsync on; epochs are 10 ms. The benchmark picks each transaction
//! from the 45/43/4/4/4 mix and calls the public `silo_wl::tpcc::txns`
//! function for it, retrying conflict aborts; the spec's 1% new-order
//! rollbacks are neither retried nor failures. One request in 64 is sampled
//! for durable latency: its epoch bound is handed to a sampler thread that
//! parks in `wait_for_durable_epoch`.

use std::sync::mpsc;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use silo_core::{Abort, AbortReason, Database, WorkerStats};
use silo_log::{DurableWait, LogConfig, RecoveryOptions, SiloLogger};
use silo_wl::tpcc::check::check_consistency;
use silo_wl::tpcc::schema::{customer_key, district_key, DistrictRow, TpccTable};
use silo_wl::tpcc::{self, txns, TpccConfig, TpccTables};

use crate::common::*;
use crate::hist::Histogram;
use crate::trace::{self, self_times, Span, Tracer, REQUEST};
use crate::Workload;

pub const THREADS: usize = 2;
const WAREHOUSES: u32 = 2;
const SCALE: f64 = 0.05;
const SMALL_SCALE: f64 = 0.01;
const LOGGERS: usize = 2;
const MAX_RETRIES: u64 = 1000;
const INDEX_PROBES: usize = 20_000;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    NewOrder,
    Payment,
    OrderStatus,
    Delivery,
    StockLevel,
}

impl Kind {
    /// The standard mix: 45% new-order, 43% payment, 4% each of the rest.
    fn pick(rng: &mut SmallRng) -> Kind {
        match rng.gen_range(0..100u32) {
            0..=44 => Kind::NewOrder,
            45..=87 => Kind::Payment,
            88..=91 => Kind::OrderStatus,
            92..=95 => Kind::Delivery,
            _ => Kind::StockLevel,
        }
    }

    fn span(self) -> &'static str {
        match self {
            Kind::NewOrder => "tpcc.new_order",
            Kind::Payment => "tpcc.payment",
            Kind::OrderStatus => "tpcc.order_status",
            Kind::Delivery => "tpcc.delivery",
            Kind::StockLevel => "tpcc.stock_level",
        }
    }
}

/// A committed read-write transaction sampled for durable latency.
struct Sample {
    phase: usize,
    req: u64,
    root: Option<u64>,
    start_ns: u64,
    commit_ns: u64,
    /// Global epoch read after commit returned: at least the commit's epoch.
    epoch: u64,
}

/// The sampler's findings, per phase.
#[derive(Default)]
struct Durable {
    latency: Vec<Histogram>,
    wait: Vec<Histogram>,
    spans: Vec<Vec<Span>>,
    max_epoch: u64,
    failures: u64,
}

pub struct Tpcc {
    db: Arc<Database>,
    logger: Arc<SiloLogger>,
    cfg: TpccConfig,
    tables: TpccTables,
    plan: Plan,
    commits: Vec<u64>,
    stats: Vec<WorkerStats>,
    /// Committed new-orders by the epoch bound read after their commit.
    new_orders_by_epoch: Vec<u64>,
    durable: Durable,
    watched: Option<Watched>,
}

struct ThreadOut {
    phases: Vec<Phase>,
    commits: Vec<u64>,
    stats: Vec<WorkerStats>,
    new_orders_by_epoch: Vec<u64>,
}

fn tpcc_config(small: bool) -> TpccConfig {
    TpccConfig::scaled(WAREHOUSES, if small { SMALL_SCALE } else { SCALE })
}

fn log_config(plan: &Plan) -> LogConfig {
    LogConfig::to_directory(&plan.dir, LOGGERS).with_fsync(true)
}

impl Workload for Tpcc {
    const SETUPS_PER_CYCLE: u32 = 8;
    const MEM_AFTER_OPS: u64 = 20_000;

    fn config(small: bool) -> Vec<(&'static str, String)> {
        let c = tpcc_config(small);
        vec![
            ("warehouses", c.warehouses.to_string()),
            (
                "scale",
                (if small { SMALL_SCALE } else { SCALE }).to_string(),
            ),
            (
                "customers_per_district",
                c.customers_per_district.to_string(),
            ),
            ("items", c.items.to_string()),
            ("mix", "45/43/4/4/4".to_string()),
            ("workers", THREADS.to_string()),
            ("loggers", LOGGERS.to_string()),
            ("fsync", "on".to_string()),
            ("durable_sample_every", TRACE_EVERY.to_string()),
        ]
    }

    fn setup(plan: &Plan) -> Tpcc {
        let cfg = tpcc_config(plan.small);
        let db = Database::open(silo_config());
        let logger = SiloLogger::install(log_config(plan), &db).expect("install logger");
        let tables = tpcc::load(&db, &cfg);
        Tpcc {
            db,
            logger,
            cfg,
            tables,
            plan: plan.clone(),
            commits: Vec::new(),
            stats: Vec::new(),
            new_orders_by_epoch: Vec::new(),
            durable: Durable::default(),
            watched: None,
        }
    }

    fn teardown(self) {
        self.logger.shutdown();
        self.db.stop_epoch_advancer();
    }

    fn run(&mut self, plan: &Plan) -> Vec<Phase> {
        let timeline = Timeline::new(plan);
        let n = timeline.len();
        let (tx, rx) = mpsc::channel::<Sample>();
        let this = &*self;
        let (outs, watched, durable) = std::thread::scope(|s| {
            let sampler = {
                let timeline = &timeline;
                s.spawn(move || sampler_loop(&this.logger, timeline, rx))
            };
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (timeline, tx) = (&timeline, tx.clone());
                    s.spawn(move || this.worker_loop(t, timeline, tx))
                })
                .collect();
            drop(tx);
            let watched = watch(&timeline, &this.db, Some(&this.logger), false, || None);
            let outs: Vec<ThreadOut> = handles
                .into_iter()
                .map(|h| h.join().expect("tpcc worker panicked"))
                .collect();
            (
                outs,
                watched,
                sampler.join().expect("durable sampler panicked"),
            )
        });
        self.watched = Some(watched);
        self.durable = durable;
        let mut phases: Vec<Phase> = (0..n).map(|_| Phase::default()).collect();
        self.commits = vec![0; n];
        self.stats = vec![WorkerStats::default(); n];
        for out in outs {
            for (i, p) in out.phases.into_iter().enumerate() {
                phases[i].merge(p);
                self.commits[i] += out.commits[i];
                self.stats[i].merge(&out.stats[i]);
            }
            if self.new_orders_by_epoch.len() < out.new_orders_by_epoch.len() {
                self.new_orders_by_epoch
                    .resize(out.new_orders_by_epoch.len(), 0);
            }
            for (total, add) in self
                .new_orders_by_epoch
                .iter_mut()
                .zip(&out.new_orders_by_epoch)
            {
                *total += add;
            }
        }
        for (i, p) in phases.iter_mut().enumerate() {
            p.write.merge(&self.durable.latency[i]);
            p.spans.append(&mut self.durable.spans[i]);
        }
        phases
    }

    fn layers(&mut self, phases: &[Phase], traced: usize, m: &mut Metrics, checks: &mut Checks) {
        let watched = self.watched.as_ref().expect("run before layers");
        zero(m, CORE_TIMINGS);
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
        let engine = stats.commits + stats.snapshot_commits;
        checks.check(
            commits == engine,
            format!(
                "commits the benchmark counted ({commits}) == WorkerStats commits + snapshot commits ({engine})"
            ),
        );
        let selfs = self_times(&phases[traced].spans);
        for kind in [
            "new_order",
            "payment",
            "order_status",
            "delivery",
            "stock_level",
        ] {
            m.quantiles(
                &format!("tpcc.{kind}_us"),
                selfs.get(format!("tpcc.{kind}").as_str()),
                "us",
            );
        }
        let mut rng = SmallRng::seed_from_u64(self.plan.seed ^ 0x1D3);
        let probes: Vec<Vec<u8>> = (0..INDEX_PROBES)
            .map(|_| {
                customer_key(
                    rng.gen_range(1..=self.cfg.warehouses),
                    rng.gen_range(1..=self.cfg.districts_per_warehouse),
                    rng.gen_range(1..=self.cfg.customers_per_district),
                )
            })
            .collect();
        let customers = self.tables.id(TpccTable::Customer, 1);
        index_metrics(
            m,
            &self.db,
            customers,
            &probes,
            &watched.marks[traced].index,
            commits,
        );
        let epochs = watched.epochs[traced]
            .as_ref()
            .expect("traced phase has epoch readings");
        epoch_metrics(m, epochs);
        m.quantiles(
            "log.durable_wait_us",
            Some(&self.durable.wait[traced]),
            "us",
        );
        let (log_before, log_after) = (&watched.marks[traced].log, &watched.marks[traced + 1].log);
        let (log_before, log_after) = (
            log_before.as_ref().expect("log"),
            log_after.as_ref().expect("log"),
        );
        log_metrics(
            m,
            log_before,
            log_after,
            self.plan.phases[traced].dur.as_secs_f64(),
            commits,
        );
        zero(m, NET_METRICS);
    }

    fn verify(self, checks: &mut Checks) {
        checks.check(
            self.durable.failures == 0,
            "every sampled commit became durable",
        );
        let consistent = check_consistency(&self.db, &self.cfg, &self.tables);
        checks.check(
            consistent.is_ok(),
            format!("TPC-C consistency C1/C3/C4 after the run: {consistent:?}"),
        );
        self.logger.shutdown();
        self.db.stop_epoch_advancer();
        log_final_checks(checks, &self.logger);
        if self.plan.small {
            recover_and_check(&self, checks);
        }
    }
}

impl Tpcc {
    fn worker_loop(
        &self,
        thread: usize,
        timeline: &Timeline,
        tx: mpsc::Sender<Sample>,
    ) -> ThreadOut {
        let n = timeline.len();
        let w_id = thread as u32 % self.cfg.warehouses + 1;
        let mut worker = self.db.register_worker();
        let mut rng = SmallRng::seed_from_u64(
            self.plan.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ thread as u64,
        );
        let mut tracer = Tracer::new(timeline.origin, thread as u64, timeline.trace_every(0));
        let mut out = ThreadOut {
            phases: (0..n).map(|_| Phase::default()).collect(),
            commits: vec![0; n],
            stats: vec![WorkerStats::default(); n],
            new_orders_by_epoch: Vec::new(),
        };
        let (mut cur, mut commits, mut req) = (0, 0u64, 0u64);
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
            let kind = Kind::pick(&mut rng);
            let traced = tracer.sampled(req);
            let root = if traced { tracer.open() } else { 0 };
            let p = &mut out.phases[cur];
            p.attempted += 1;
            let mut attempts = 0;
            let outcome = loop {
                attempts += 1;
                let t0 = if traced { tracer.now() } else { 0 };
                let result = match kind {
                    Kind::NewOrder => {
                        txns::new_order(&mut worker, &self.tables, &self.cfg, &mut rng, w_id)
                            .map(|_| ())
                    }
                    Kind::Payment => {
                        txns::payment(&mut worker, &self.tables, &self.cfg, &mut rng, w_id)
                    }
                    Kind::OrderStatus => {
                        txns::order_status(&mut worker, &self.tables, &self.cfg, &mut rng, w_id)
                    }
                    Kind::Delivery => {
                        txns::delivery(&mut worker, &self.tables, &self.cfg, &mut rng, w_id)
                    }
                    Kind::StockLevel => {
                        txns::stock_level(&mut worker, &self.tables, &self.cfg, &mut rng, w_id)
                            .map(|_| ())
                    }
                };
                if traced {
                    tracer.child(kind.span(), root, req, t0);
                }
                match result {
                    Ok(()) => break Some(true),
                    // The application's own rollback (TPC-C's 1% of new-orders).
                    Err(Abort(AbortReason::UserRequested)) => break Some(false),
                    Err(_) if attempts < MAX_RETRIES => p.retries += 1,
                    Err(_) => break None,
                }
            };
            let end = timeline.now_ns();
            let committed = match outcome {
                None => {
                    p.failed += 1;
                    false
                }
                Some(committed) => committed,
            };
            if committed {
                commits += 1;
                p.completed += 1;
                timeline.completed();
                if kind == Kind::NewOrder {
                    let e = self.db.epochs().global_epoch() as usize;
                    if out.new_orders_by_epoch.len() <= e {
                        out.new_orders_by_epoch.resize(e + 1, 0);
                    }
                    out.new_orders_by_epoch[e] += 1;
                }
            }
            if kind == Kind::OrderStatus {
                // The read class is order-status alone: pooled with
                // stock-level, which is as frequent and about four times
                // slower, the median would sit in the gap between the two.
                if committed {
                    p.read.record(end - start);
                }
            } else if kind != Kind::StockLevel && committed && trace::sampled(req, TRACE_EVERY) {
                // The sampler closes the root span once the epoch is durable.
                let epoch = self.db.epochs().global_epoch();
                let root = traced.then_some(root);
                let sample = Sample {
                    phase: cur,
                    req,
                    root,
                    start_ns: start,
                    commit_ns: end,
                    epoch,
                };
                tx.send(sample).expect("durable sampler alive");
                continue;
            }
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

/// Waits for each sample's epoch to become durable, in arrival order. The
/// durable epoch is monotone, so a wait that covers one sample also covers
/// the samples queued behind it from the same or earlier epochs.
fn sampler_loop(logger: &SiloLogger, timeline: &Timeline, rx: mpsc::Receiver<Sample>) -> Durable {
    let n = timeline.len();
    let mut tracer = Tracer::new(timeline.origin, THREADS as u64, 0);
    let mut d = Durable {
        latency: (0..n).map(|_| Histogram::default()).collect(),
        wait: (0..n).map(|_| Histogram::default()).collect(),
        spans: vec![Vec::new(); n],
        ..Durable::default()
    };
    for s in rx {
        if logger.wait_for_durable_epoch(s.epoch) != DurableWait::Durable {
            d.failures += 1;
            continue;
        }
        let end = timeline.now_ns();
        d.max_epoch = d.max_epoch.max(s.epoch);
        d.latency[s.phase].record(end - s.start_ns);
        d.wait[s.phase].record(end - s.commit_ns);
        if let Some(root) = s.root {
            tracer.child("log.durable_wait", root, s.req, s.commit_ns);
            let span = Span {
                name: REQUEST,
                id: root,
                parent: 0,
                req: s.req,
                start_ns: s.start_ns,
                end_ns: end,
            };
            tracer.record(span);
            d.spans[s.phase].append(&mut tracer.spans);
        }
    }
    d
}

/// Recovers the run's log directory into a fresh database and checks it: it
/// must pass the consistency conditions, and it must hold every new-order
/// that committed in an epoch at or below the recovered horizon, which
/// covers every transaction the sampler saw become durable.
fn recover_and_check(run: &Tpcc, checks: &mut Checks) {
    let (cfg, max_sampled_epoch) = (&run.cfg, run.durable.max_epoch);
    let loaded_orders = u64::from(cfg.initial_orders_per_district);
    let db = Database::open(silo_config());
    let tables = TpccTables::create(&db, cfg);
    let report = silo_log::recover_directory(&db, &run.plan.dir, &RecoveryOptions::default());
    let Ok(report) = report else {
        checks.check(false, format!("recover the tpcc-durable log: {report:?}"));
        return;
    };
    let horizon = report.durable_epoch;
    checks.check(
        horizon >= max_sampled_epoch,
        format!("recovered horizon {horizon} covers every sampled durable epoch (max {max_sampled_epoch})"),
    );
    let consistent = check_consistency(&db, cfg, &tables);
    checks.check(
        consistent.is_ok(),
        format!("recovered state passes C1/C3/C4: {consistent:?}"),
    );
    let mut worker = db.register_worker();
    let mut txn = worker.begin();
    let mut recovered = 0u64;
    for w in 1..=cfg.warehouses {
        for d in 1..=cfg.districts_per_warehouse {
            let row = txn.read(tables.id(TpccTable::District, w), &district_key(w, d));
            if let Ok(Some(row)) = row {
                recovered += u64::from(DistrictRow::decode(&row).next_o_id) - 1 - loaded_orders;
            }
        }
    }
    let _ = txn.commit();
    drop(worker);
    let by_epoch = &run.new_orders_by_epoch;
    let must = by_epoch.iter().take(horizon as usize + 1).sum::<u64>();
    let all = by_epoch.iter().sum::<u64>();
    checks.check(
        must <= recovered && recovered <= all,
        format!(
            "recovered new-orders ({recovered}) cover the {must} committed at or below the horizon \
             and do not exceed the {all} committed"
        ),
    );
    db.stop_epoch_advancer();
}
