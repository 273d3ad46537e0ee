//! `net-kv`: a `silo-net` server driven over loopback by `silo-client`
//! connections in the same process.
//!
//! The server runs 2 workers on a durable Silo (2 loggers, fsync on, 10 ms
//! epochs), so a PUT is acknowledged only once its epoch is durable. Two
//! connections each keep 32 requests in flight, 50% GET and 50% PUT of
//! 100-byte values, each over its own range of 10 k keys preloaded during
//! set-up. A connection's requests execute in order on one server worker,
//! so every GET must return exactly the value of the last PUT the connection
//! sent to that key before it.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use silo_client::{ClientError, Connection};
use silo_core::Database;
use silo_log::{LogConfig, RecoveryOptions, SiloLogger};
use silo_net::{Request, Response, Server, ServerConfig, ServerStats, TxnOp};

use crate::common::*;
use crate::trace::{self_times, Span, Tracer, REQUEST};
use crate::Workload;

pub const CONNS: usize = 2;
const PIPELINE: usize = 32;
const SERVER_WORKERS: usize = 2;
const LOGGERS: usize = 2;
const KEYS: u32 = 10_000;
const SMALL_KEYS: u32 = 1_000;
const VALUE_BYTES: usize = 100;
const PUT_FRACTION: f64 = 0.5;
const TABLE: &str = "net_kv";
/// Preload writes per transaction request.
const PRELOAD_BATCH: u32 = 100;

fn key(conn: usize, k: u32) -> Vec<u8> {
    format!("c{conn}:k{k:06}").into_bytes()
}

/// The value a connection writes with its `seq`-th PUT to key `k`
/// (`seq == 0` is the preloaded value). Every byte depends on all three.
fn value(conn: usize, k: u32, seq: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_BYTES);
    v.extend_from_slice(&(conn as u32).to_le_bytes());
    v.extend_from_slice(&k.to_le_bytes());
    v.extend_from_slice(&seq.to_le_bytes());
    let mut x = seq ^ (u64::from(k) << 20) ^ ((conn as u64) << 52) ^ 0x9E37_79B9_7F4A_7C15;
    while v.len() < VALUE_BYTES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.push(x as u8);
    }
    v
}

pub struct NetKv {
    db: Arc<Database>,
    logger: Arc<SiloLogger>,
    server: Server,
    addr: SocketAddr,
    table: u32,
    keys: u32,
    plan: Plan,
    /// Per connection and key: the sequence number of the last PUT acked.
    acked: Vec<Vec<u64>>,
    client_put_acks: u64,
    errors: Vec<String>,
    stale_reads: u64,
    batches: Vec<(u64, u64)>,
    server_before: ServerStats,
    server_after: ServerStats,
    watched: Option<Watched>,
}

/// A request on the wire, waiting for its response.
struct InFlight {
    phase: usize,
    req: u64,
    root: Option<u64>,
    sent_ns: u64,
    k: u32,
    put: bool,
    /// The PUT's sequence number, or for a GET the one it must read.
    seq: u64,
}

struct ConnOut {
    phases: Vec<Phase>,
    acked: Vec<u64>,
    put_acks: u64,
    stale_reads: u64,
    /// Per phase: flushes and requests sent in them.
    batches: Vec<(u64, u64)>,
    error: Option<String>,
}

impl Workload for NetKv {
    const SETUPS_PER_CYCLE: u32 = 10;
    const MEM_AFTER_OPS: u64 = 1_000;

    fn config(small: bool) -> Vec<(&'static str, String)> {
        vec![
            ("connections", CONNS.to_string()),
            ("pipeline", PIPELINE.to_string()),
            (
                "keys_per_connection",
                (if small { SMALL_KEYS } else { KEYS }).to_string(),
            ),
            ("value_bytes", VALUE_BYTES.to_string()),
            ("put_fraction", PUT_FRACTION.to_string()),
            ("server_workers", SERVER_WORKERS.to_string()),
            ("loggers", LOGGERS.to_string()),
            ("fsync", "on".to_string()),
            ("transport", "loopback TCP".to_string()),
        ]
    }

    fn setup(plan: &Plan) -> NetKv {
        let keys = if plan.small { SMALL_KEYS } else { KEYS };
        let db = Database::open(silo_config());
        let log = LogConfig::to_directory(&plan.dir, LOGGERS).with_fsync(true);
        let logger = SiloLogger::install(log, &db).expect("install logger");
        let config = ServerConfig::default().with_workers(SERVER_WORKERS);
        let server = Server::start(Arc::clone(&db), Some(Arc::clone(&logger)), config)
            .expect("start server");
        let addr = server.local_addr();
        let mut conn = Connection::connect(addr).expect("connect for set-up");
        let table = match conn.call(&Request::OpenTable {
            name: TABLE.to_string(),
        }) {
            Ok(Response::TableId { id }) => id,
            other => panic!("OpenTable failed: {other:?}"),
        };
        // Preload every key with its seq-0 value, pipelined in batches.
        let mut sent = 0;
        for c in 0..CONNS {
            for start in (0..keys).step_by(PRELOAD_BATCH as usize) {
                let ops = (start..(start + PRELOAD_BATCH).min(keys))
                    .map(|k| TxnOp::Put {
                        table,
                        key: key(c, k),
                        value: value(c, k, 0),
                    })
                    .collect();
                conn.send(&Request::Txn { ops }).expect("send preload");
                sent += 1;
            }
        }
        for _ in 0..sent {
            match conn.recv() {
                Ok(Response::Error { code, detail }) => panic!("preload failed: {code}: {detail}"),
                Ok(_) => {}
                Err(e) => panic!("preload failed: {e}"),
            }
        }
        NetKv {
            db,
            logger,
            server,
            addr,
            table,
            keys,
            plan: plan.clone(),
            acked: vec![vec![0; keys as usize]; CONNS],
            client_put_acks: 0,
            errors: Vec::new(),
            stale_reads: 0,
            batches: Vec::new(),
            server_before: ServerStats::default(),
            server_after: ServerStats::default(),
            watched: None,
        }
    }

    fn teardown(mut self) {
        self.server.shutdown();
        self.logger.shutdown();
        self.db.stop_epoch_advancer();
    }

    fn run(&mut self, plan: &Plan) -> Vec<Phase> {
        let timeline = Timeline::new(plan);
        let n = timeline.len();
        self.server_before = self.server.stats();
        let this = &*self;
        let (outs, watched) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CONNS)
                .map(|c| {
                    let timeline = &timeline;
                    s.spawn(move || this.client_loop(c, timeline))
                })
                .collect();
            let stats = || Some(this.server.stats());
            let watched = watch(&timeline, &this.db, Some(&this.logger), true, stats);
            let outs: Vec<ConnOut> = handles
                .into_iter()
                .map(|h| h.join().expect("client panicked"))
                .collect();
            (outs, watched)
        });
        self.watched = Some(watched);
        self.server_after = self.server.stats();
        let mut phases: Vec<Phase> = (0..n).map(|_| Phase::default()).collect();
        self.batches = vec![(0, 0); n];
        for (c, out) in outs.into_iter().enumerate() {
            for (i, p) in out.phases.into_iter().enumerate() {
                phases[i].merge(p);
                self.batches[i].0 += out.batches[i].0;
                self.batches[i].1 += out.batches[i].1;
            }
            self.acked[c] = out.acked;
            self.client_put_acks += out.put_acks;
            self.stale_reads += out.stale_reads;
            self.errors.extend(out.error);
        }
        phases
    }

    fn layers(&mut self, phases: &[Phase], traced: usize, m: &mut Metrics, _checks: &mut Checks) {
        let watched = self.watched.as_ref().expect("run before layers");
        zero(m, CORE_TIMINGS);
        zero(m, CORE_COUNTERS);
        zero(m, TPCC_TIMINGS);
        let mut rng = SmallRng::seed_from_u64(self.plan.seed ^ 0x1D3);
        let probes: Vec<Vec<u8>> = (0..20_000)
            .map(|_| key(rng.gen_range(0..CONNS), rng.gen_range(0..self.keys)))
            .collect();
        let (before, after) = (&watched.marks[traced], &watched.marks[traced + 1]);
        let (srv0, srv1) = (
            before.server.expect("server stats"),
            after.server.expect("server stats"),
        );
        let acks = srv1.writes_acked - srv0.writes_acked;
        index_metrics(
            m,
            &self.db,
            self.table,
            &probes,
            &before.index,
            srv1.txns_committed - srv0.txns_committed,
        );
        let epochs = watched.epochs[traced]
            .as_ref()
            .expect("traced phase has epoch readings");
        epoch_metrics(m, epochs);
        m.quantiles("log.durable_wait_us", Some(&epochs.durable_wait_ns), "us");
        let (log0, log1) = (
            before.log.as_ref().expect("log"),
            after.log.as_ref().expect("log"),
        );
        log_metrics(
            m,
            log0,
            log1,
            self.plan.phases[traced].dur.as_secs_f64(),
            acks,
        );
        m.put(
            "server.requests",
            (srv1.requests - srv0.requests) as f64,
            "count",
        );
        m.put("server.writes_acked", acks as f64, "count");
        let shed = |s: &ServerStats| s.writes_shed_busy + s.writes_shed_degraded;
        m.put("server.shed", (shed(&srv1) - shed(&srv0)) as f64, "count");
        m.put(
            "server.protocol_errors",
            (srv1.protocol_errors - srv0.protocol_errors) as f64,
            "count",
        );
        m.put(
            "server.txns_aborted",
            (srv1.txns_aborted - srv0.txns_aborted) as f64,
            "count",
        );
        let selfs = self_times(&phases[traced].spans);
        m.quantiles("client.send_us", selfs.get("client.send"), "us");
        m.quantiles("client.recv_wait_us", selfs.get("client.recv_wait"), "us");
        let (flushes, sent) = self.batches[traced];
        m.put(
            "client.batch_len",
            ratio(sent as f64, flushes as f64),
            "count",
        );
    }

    fn verify(mut self, checks: &mut Checks) {
        for e in &self.errors {
            checks.check(false, format!("client connection: {e}"));
        }
        checks.check(
            self.stale_reads == 0,
            format!(
                "every GET returned the connection's latest PUT ({} did not)",
                self.stale_reads
            ),
        );
        let acked_by_server = self.server_after.writes_acked - self.server_before.writes_acked;
        checks.check(
            acked_by_server == self.client_put_acks,
            format!(
                "server.writes_acked ({acked_by_server}) == PUT acks the clients counted ({})",
                self.client_put_acks
            ),
        );
        let protocol_errors =
            self.server_after.protocol_errors - self.server_before.protocol_errors;
        checks.check(
            protocol_errors == 0,
            format!("no protocol errors ({protocol_errors})"),
        );
        let mismatched = self.read_back();
        checks.check(
            mismatched == Ok(0),
            format!("every key reads back the last PUT its connection had acked ({mismatched:?} did not)"),
        );
        self.server.shutdown();
        self.logger.shutdown();
        self.db.stop_epoch_advancer();
        log_final_checks(checks, &self.logger);
        let recovered = self.recover();
        checks.check(
            recovered == Ok(0),
            format!("a fresh database recovered from the log holds every acked PUT ({recovered:?} missing)"),
        );
    }
}

impl NetKv {
    fn client_loop(&self, c: usize, timeline: &Timeline) -> ConnOut {
        let n = timeline.len();
        let mut out = ConnOut {
            phases: (0..n).map(|_| Phase::default()).collect(),
            acked: vec![0; self.keys as usize],
            put_acks: 0,
            stale_reads: 0,
            batches: vec![(0, 0); n],
            error: None,
        };
        if let Err(e) = self.drive(c, timeline, &mut out) {
            out.error = Some(e.to_string());
        }
        out
    }

    fn drive(&self, c: usize, timeline: &Timeline, out: &mut ConnOut) -> Result<(), ClientError> {
        let mut conn = Connection::connect(self.addr)?;
        let mut rng =
            SmallRng::seed_from_u64(self.plan.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ c as u64);
        let mut tracer = Tracer::new(timeline.origin, c as u64, timeline.trace_every(0));
        let mut last_put = vec![0u64; self.keys as usize];
        let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(PIPELINE);
        let (mut cur, mut req, mut seq) = (0usize, 0u64, 0u64);
        loop {
            let now = timeline.now_ns();
            let phase = timeline.phase_at(now);
            if let Some(phase) = phase {
                while cur < phase {
                    out.phases[cur].spans.append(&mut tracer.spans);
                    cur += 1;
                    tracer.set_every(timeline.trace_every(cur));
                }
                let batch_start = in_flight.len();
                let mut roots = Vec::new();
                while in_flight.len() < PIPELINE {
                    req += 1;
                    let k = rng.gen_range(0..self.keys);
                    let put = rng.gen_bool(PUT_FRACTION);
                    let root = tracer.sampled(req).then(|| tracer.open());
                    let sent_ns = timeline.now_ns();
                    let (request, s) = if put {
                        seq += 1;
                        last_put[k as usize] = seq;
                        let value = value(c, k, seq);
                        (
                            Request::Put {
                                table: self.table,
                                key: key(c, k),
                                value,
                            },
                            seq,
                        )
                    } else {
                        (
                            Request::Get {
                                table: self.table,
                                key: key(c, k),
                            },
                            last_put[k as usize],
                        )
                    };
                    conn.send(&request)?;
                    out.phases[cur].attempted += 1;
                    roots.extend(root.map(|r| (r, req, sent_ns)));
                    in_flight.push_back(InFlight {
                        phase: cur,
                        req,
                        root,
                        sent_ns,
                        k,
                        put,
                        seq: s,
                    });
                }
                conn.flush()?;
                if in_flight.len() > batch_start {
                    out.batches[cur].0 += 1;
                    out.batches[cur].1 += (in_flight.len() - batch_start) as u64;
                }
                for (root, req, sent_ns) in roots {
                    tracer.child("client.send", root, req, sent_ns);
                }
            } else if in_flight.is_empty() {
                break;
            }
            let wait_start = timeline.now_ns();
            let resp = conn.recv()?;
            let done = in_flight
                .pop_front()
                .expect("a response answers a request in flight");
            let end = timeline.now_ns();
            let p = &mut out.phases[done.phase];
            let ok = match resp {
                Response::Error { .. } => false,
                Response::Ok if done.put => {
                    out.acked[done.k as usize] = done.seq;
                    out.put_acks += 1;
                    true
                }
                Response::Value { value: Some(v) } if !done.put => {
                    if v != value(c, done.k, done.seq) {
                        out.stale_reads += 1;
                    }
                    true
                }
                _ => false,
            };
            if let Some(root) = done.root {
                tracer.child("client.recv_wait", root, done.req, wait_start);
                let span = Span {
                    name: REQUEST,
                    id: root,
                    parent: 0,
                    req: done.req,
                    start_ns: done.sent_ns,
                    end_ns: end,
                };
                tracer.record(span);
            }
            if !ok {
                p.failed += 1;
                continue;
            }
            p.completed += 1;
            timeline.completed();
            let hist = if done.put { &mut p.write } else { &mut p.read };
            hist.record(end - done.sent_ns);
        }
        out.phases[cur].spans.append(&mut tracer.spans);
        Ok(())
    }

    /// GETs every key over the wire; returns how many differ from the last
    /// PUT their connection saw acknowledged.
    fn read_back(&self) -> Result<u64, String> {
        let mut conn = Connection::connect(self.addr).map_err(|e| e.to_string())?;
        let mut bad = 0;
        for (c, acked) in self.acked.iter().enumerate() {
            for chunk in (0..self.keys).collect::<Vec<_>>().chunks(PIPELINE) {
                for &k in chunk {
                    conn.send(&Request::Get {
                        table: self.table,
                        key: key(c, k),
                    })
                    .map_err(|e| e.to_string())?;
                }
                for &k in chunk {
                    let want = value(c, k, acked[k as usize]);
                    match conn.recv().map_err(|e| e.to_string())? {
                        Response::Value { value: Some(v) } if v == want => {}
                        _ => bad += 1,
                    }
                }
            }
        }
        Ok(bad)
    }

    /// Recovers the log directory into a fresh database and returns how many
    /// keys miss their last acknowledged PUT.
    fn recover(&self) -> Result<u64, String> {
        let db = Database::open(silo_config());
        let table = db.create_table(TABLE).map_err(|e| e.to_string())?;
        if table != self.table {
            return Err(format!(
                "table id {table} differs from the served table {}",
                self.table
            ));
        }
        let report = silo_log::recover_directory(&db, &self.plan.dir, &RecoveryOptions::default());
        let result = report.map_err(|e| e.to_string()).map(|_| {
            let mut worker = db.register_worker();
            let mut txn = worker.begin();
            let mut missing = 0;
            for (c, acked) in self.acked.iter().enumerate() {
                for k in 0..self.keys {
                    let got = txn.read(table, &key(c, k)).ok().flatten();
                    if got.as_deref() != Some(value(c, k, acked[k as usize]).as_slice()) {
                        missing += 1;
                    }
                }
            }
            let _ = txn.commit();
            missing
        });
        db.stop_epoch_advancer();
        result
    }
}
