//! fig_net: loopback load generator for the network front-end.
//!
//! Starts an in-process `silo-net` server (durable: a `SiloLogger` with
//! group commit is installed, and every write is acked only after its epoch
//! is durable), then drives it over loopback TCP with pipelined client
//! connections and reports client-observed throughput and latency
//! percentiles (p50/p99/p999) plus the group-commit amortization ratio
//! `syncs_per_acked_write` — the figure that shows one fsync releasing many
//! pipelined acks.
//!
//! Environment knobs (on top of the usual harness ones):
//!
//! * `SILO_BENCH_NET_CONNS` — client connections, each on its own thread
//!   (default 2).
//! * `SILO_BENCH_NET_PIPELINE` — requests kept in flight per connection
//!   (default 32; 1 = strict request/response).
//! * `SILO_BENCH_NET_WORKERS` — server worker threads (default 2).
//! * `SILO_BENCH_NET_WRITE_PCT` — percentage of requests that are writes
//!   (default 50).
//! * `SILO_BENCH_NET_KEYS` — key space per connection (default 10_000).
//! * `SILO_BENCH_NET_VALUE_BYTES` — value payload size (default 100).
//!
//! A run without a fault seed also checks two cross-layer identities and
//! exits non-zero if either fails: the server's `writes_acked` equals the
//! durable write acks the clients received, and the server's
//! `txns_committed` equals the non-error responses the clients received
//! (every such response is one committed one-shot transaction).
//!
//! Chaos knobs (both off in plain runs — the resilience counters in
//! `BENCH_JSON` then report zero, which net-smoke CI asserts):
//!
//! * `SILO_NET_FAULT_SEED` — seeds wire fault injection on *both* sides of
//!   every connection (resets, torn frames, stalls, dribbles, corrupted
//!   headers).
//! * `SILO_NET_RECONNECT` — `1` re-dials dead connections and re-issues
//!   lost in-flight *reads*; lost in-flight (untokenized) writes are
//!   counted as `net_ack_unknown`, never blindly re-sent. Defaults to on
//!   when a fault seed is set.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use silo_bench::*;
use silo_client::{ClientConfig, ClientError, Connection};
use silo_core::Database;
use silo_log::{LogConfig, SiloLogger};
use silo_net::{ErrorCode, NetFaultPlan, Request, Response, Server, ServerConfig};
use silo_wl::driver::percentile;

/// Per-connection tally brought back to the main thread.
#[derive(Default)]
struct ConnResult {
    ok: u64,
    reads: u64,
    writes_acked: u64,
    aborted: u64,
    shed_busy: u64,
    shed_degraded: u64,
    retries: u64,
    reconnects: u64,
    ack_unknown: u64,
    latencies_us: Vec<u64>,
}

/// The request-mix knobs every connection shares.
#[derive(Clone)]
struct DriveConfig {
    pipeline: usize,
    write_pct: u64,
    keys: u64,
    value: Vec<u8>,
    /// Wire fault plan spliced into this connection (chaos runs only).
    fault: Option<Arc<NetFaultPlan>>,
    /// Re-dial dead connections instead of failing the thread.
    reconnect: bool,
}

/// An in-flight request: send time, write flag, and (in chaos runs only)
/// the request itself so lost *reads* can be re-issued after a reconnect.
type InFlight = std::collections::VecDeque<(Instant, bool, Option<Request>)>;

fn receive_one(
    conn: &mut Connection,
    in_flight: &mut InFlight,
    out: &mut ConnResult,
) -> Result<(), ClientError> {
    let resp = conn.recv()?;
    let (sent, is_write, _) = in_flight.pop_front().expect("response without request");
    out.latencies_us.push(sent.elapsed().as_micros() as u64);
    match resp {
        Response::Error { code, .. } => match code {
            ErrorCode::Aborted => out.aborted += 1,
            ErrorCode::ServerBusy => out.shed_busy += 1,
            ErrorCode::DurabilityDegraded => out.shed_degraded += 1,
            other => {
                return Err(ClientError::Protocol(format!(
                    "unexpected error from server: {other}"
                )))
            }
        },
        _ => {
            out.ok += 1;
            if is_write {
                out.writes_acked += 1;
            } else {
                out.reads += 1;
            }
        }
    }
    Ok(())
}

/// Handles a dead connection in chaos mode: classifies every lost in-flight
/// request (writes are untokenized on this raw pipelined path, so their
/// outcome is unknowable — counted, never re-sent; reads are queued for
/// re-issue), then re-dials.
fn reconnect_after(
    addr: std::net::SocketAddr,
    client_config: &ClientConfig,
    in_flight: &mut InFlight,
    resend: &mut Vec<Request>,
    out: &mut ConnResult,
) -> Result<Connection, ClientError> {
    for (_, is_write, req) in in_flight.drain(..) {
        if is_write {
            out.ack_unknown += 1;
        } else if let Some(req) = req {
            resend.push(req);
            out.retries += 1;
        }
    }
    let mut last = None;
    for _ in 0..10 {
        match Connection::connect_with(addr, client_config) {
            Ok(conn) => {
                out.reconnects += 1;
                return Ok(conn);
            }
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    Err(last.expect("at least one dial attempt"))
}

fn drive(
    addr: std::net::SocketAddr,
    table: u32,
    stop: &AtomicBool,
    seed: u64,
    config: &DriveConfig,
) -> Result<ConnResult, ClientError> {
    let mut client_config = ClientConfig::default();
    if let Some(plan) = &config.fault {
        client_config = client_config.with_fault(Arc::clone(plan));
    }
    let mut conn = Connection::connect_with(addr, &client_config)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = ConnResult::default();
    let mut in_flight: InFlight = std::collections::VecDeque::with_capacity(config.pipeline);
    let mut resend: Vec<Request> = Vec::new();

    while !stop.load(Ordering::Relaxed) {
        let step = (|| -> Result<(), ClientError> {
            for req in resend.drain(..) {
                conn.send(&req)?;
                in_flight.push_back((Instant::now(), false, Some(req)));
            }
            while in_flight.len() < config.pipeline && !stop.load(Ordering::Relaxed) {
                let key = format!("k{:08}", rng.gen_range(0..config.keys));
                let is_write = rng.gen_range(0..100u64) < config.write_pct;
                let req = if is_write {
                    Request::Put {
                        table,
                        key: key.into_bytes(),
                        value: config.value.to_vec(),
                    }
                } else {
                    Request::Get {
                        table,
                        key: key.into_bytes(),
                    }
                };
                conn.send(&req)?;
                // Only chaos runs pay for tracking the request body.
                in_flight.push_back((Instant::now(), is_write, config.reconnect.then_some(req)));
            }
            conn.flush()?;
            receive_one(&mut conn, &mut in_flight, &mut out)
        })();
        if let Err(e) = step {
            if !config.reconnect {
                return Err(e);
            }
            conn = reconnect_after(addr, &client_config, &mut in_flight, &mut resend, &mut out)?;
        }
    }
    // Drain the tail so every sent request is accounted for. In chaos mode
    // a death here just abandons the tail (classified, not re-issued).
    let drain = (|| -> Result<(), ClientError> {
        conn.flush()?;
        while !in_flight.is_empty() {
            receive_one(&mut conn, &mut in_flight, &mut out)?;
        }
        Ok(())
    })();
    if let Err(e) = drain {
        if !config.reconnect {
            return Err(e);
        }
        for (_, is_write, _) in in_flight.drain(..) {
            if is_write {
                out.ack_unknown += 1;
            }
        }
    }
    Ok(out)
}

fn main() {
    let conns = env_u64("SILO_BENCH_NET_CONNS", 2) as usize;
    let pipeline = env_u64("SILO_BENCH_NET_PIPELINE", 32) as usize;
    let workers = env_u64("SILO_BENCH_NET_WORKERS", 2) as usize;
    let write_pct = env_u64("SILO_BENCH_NET_WRITE_PCT", 50);
    let keys = env_u64("SILO_BENCH_NET_KEYS", 10_000);
    let value = vec![0xABu8; env_u64("SILO_BENCH_NET_VALUE_BYTES", 100) as usize];
    let seconds = bench_seconds();
    let fault_seed: Option<u64> = std::env::var("SILO_NET_FAULT_SEED")
        .ok()
        .map(|s| s.parse().expect("SILO_NET_FAULT_SEED must be a u64"));
    let reconnect = env_u64("SILO_NET_RECONNECT", u64::from(fault_seed.is_some())) != 0;

    let log_dir = std::env::temp_dir().join(format!("silo-fig-net-log-{}", std::process::id()));
    let db = open_memsilo();
    let logger =
        SiloLogger::install(LogConfig::to_directory(&log_dir, 2), &db).expect("install logger");
    let mut server_config = ServerConfig::default().with_workers(workers);
    let server_plan = fault_seed.map(|seed| Arc::new(NetFaultPlan::from_seed(seed)));
    if let Some(plan) = &server_plan {
        server_config = server_config.with_fault(Arc::clone(plan));
    }
    let mut server = Server::start(
        Arc::clone(&db),
        Some(Arc::clone(&logger)),
        server_config,
    )
    .expect("start server");
    let addr = server.local_addr();
    let table = open_table(&db, addr);

    println!(
        "# fig_net — loopback, {conns} conns x pipeline {pipeline}, {workers} server workers, \
         {write_pct}% writes over {keys} keys, {}s",
        seconds.as_secs_f64()
    );
    if let Some(seed) = fault_seed {
        println!("# chaos: wire fault seed {seed:#x}, reconnect {}", u64::from(reconnect));
    }

    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let config = DriveConfig {
        pipeline: pipeline.max(1),
        write_pct,
        keys: keys.max(1),
        value,
        fault: None,
        reconnect,
    };
    let client_plans: Vec<Option<Arc<NetFaultPlan>>> = (0..conns)
        .map(|i| {
            fault_seed.map(|seed| {
                Arc::new(NetFaultPlan::from_seed(
                    seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ))
            })
        })
        .collect();
    let handles: Vec<_> = (0..conns)
        .map(|i| {
            let stop = Arc::clone(&stop);
            let config = DriveConfig { fault: client_plans[i].clone(), ..config.clone() };
            std::thread::Builder::new()
                .name(format!("fig-net-client-{i}"))
                .spawn(move || drive(addr, table, &stop, 0xBADC0DE + i as u64, &config))
                .expect("spawn client")
        })
        .collect();

    std::thread::sleep(seconds);
    stop.store(true, Ordering::Relaxed);

    let mut total = ConnResult::default();
    for h in handles {
        let r = h
            .join()
            .expect("client thread")
            .expect("client connection failed");
        total.ok += r.ok;
        total.reads += r.reads;
        total.writes_acked += r.writes_acked;
        total.aborted += r.aborted;
        total.shed_busy += r.shed_busy;
        total.shed_degraded += r.shed_degraded;
        total.retries += r.retries;
        total.reconnects += r.reconnects;
        total.ack_unknown += r.ack_unknown;
        total.latencies_us.extend(r.latencies_us);
    }
    let elapsed = start.elapsed();
    let faults_injected = server_plan.as_ref().map_or(0, |p| p.injected())
        + client_plans.iter().flatten().map(|p| p.injected()).sum::<u64>();

    let log_stats = logger.stats();
    let srv_stats = server.stats();
    let health = db.durability_health();
    server.shutdown();
    logger.shutdown();
    db.stop_epoch_advancer();
    let _ = std::fs::remove_dir_all(&log_dir);

    total.latencies_us.sort_unstable();
    let lat = &total.latencies_us;
    let throughput = total.ok as f64 / elapsed.as_secs_f64();
    let syncs_per_acked_write = if total.writes_acked > 0 {
        log_stats.sync_calls as f64 / total.writes_acked as f64
    } else {
        0.0
    };

    println!(
        "# {:.0} req/s ({} ok: {} reads, {} durable-acked writes; {} aborted, {} shed busy, {} shed degraded)",
        throughput, total.ok, total.reads, total.writes_acked, total.aborted, total.shed_busy,
        total.shed_degraded
    );
    println!(
        "# latency p50 {} us, p99 {} us, p999 {} us, max {} us ({} samples)",
        percentile(lat, 0.50),
        percentile(lat, 0.99),
        percentile(lat, 0.999),
        lat.last().copied().unwrap_or(0),
        lat.len()
    );
    println!(
        "# group commit: {} fsyncs for {} acked writes = {:.4} syncs/acked write; durability {health:?}",
        log_stats.sync_calls, total.writes_acked, syncs_per_acked_write
    );
    if faults_injected + total.retries + total.reconnects + total.ack_unknown > 0 {
        println!(
            "# chaos: {} wire faults injected, {} reads re-issued, {} reconnects, {} write acks lost",
            faults_injected, total.retries, total.reconnects, total.ack_unknown
        );
    }

    emit_bench_json_raw(format!(
        "{{\"bench\":\"fig_net\",\"series\":\"loopback pipelined\",\"threads\":{conns},\"seconds\":{:.3},\"committed\":{},\"aborted\":{},\"throughput_txns_per_s\":{throughput:.1},\"pipeline\":{pipeline},\"server_workers\":{workers},\"reads\":{},\"writes_acked\":{},\"writes_shed_busy\":{},\"writes_shed_degraded\":{},\"latency_samples\":{},\"latency_p50_us\":{},\"latency_p99_us\":{},\"latency_p999_us\":{},\"latency_max_us\":{},\"log_sync_calls\":{},\"syncs_per_acked_write\":{syncs_per_acked_write:.4},\"server_requests\":{},\"server_protocol_errors\":{},\"server_txns_committed\":{},\"server_writes_acked\":{},\"net_fault_seed\":{},\"net_faults_injected\":{faults_injected},\"net_retries\":{},\"net_reconnects\":{},\"net_ack_unknown\":{}}}",
        elapsed.as_secs_f64(),
        total.ok,
        total.aborted,
        total.reads,
        total.writes_acked,
        total.shed_busy,
        total.shed_degraded,
        lat.len(),
        percentile(lat, 0.50),
        percentile(lat, 0.99),
        percentile(lat, 0.999),
        lat.last().copied().unwrap_or(0),
        log_stats.sync_calls,
        srv_stats.requests,
        srv_stats.protocol_errors,
        srv_stats.txns_committed,
        srv_stats.writes_acked,
        fault_seed.unwrap_or(0),
        total.retries,
        total.reconnects,
        total.ack_unknown,
    ));
    write_bench_json("fig_net");

    // Cross-layer identities; wire faults legitimately break them (a lost
    // response was counted by the server but never seen by a client).
    if fault_seed.is_none() {
        let identities = [
            ("writes_acked", srv_stats.writes_acked, "durable write acks", total.writes_acked),
            ("txns_committed", srv_stats.txns_committed, "non-error responses", total.ok),
        ];
        for (server_name, server, client_name, clients) in identities {
            if server != clients {
                eprintln!(
                    "fig_net: cross-layer identity failed: server {server_name} {server} \
                     != client {client_name} {clients}"
                );
                std::process::exit(1);
            }
        }
        println!("# identities hold: server writes_acked and txns_committed match the clients");
    }
}

/// Creates the benchmark table through the wire protocol (exercising
/// `OpenTable`) rather than reaching into the embedded handle.
fn open_table(db: &Arc<Database>, addr: std::net::SocketAddr) -> u32 {
    let mut conn = Connection::connect(addr).expect("connect for setup");
    let resp = conn
        .call(&Request::OpenTable {
            name: "net_kv".to_string(),
        })
        .expect("open table");
    match resp {
        Response::TableId { id } => {
            assert!(db.try_table(id).is_some(), "server returned a live table");
            id
        }
        other => panic!("unexpected OpenTable response: {other:?}"),
    }
}
