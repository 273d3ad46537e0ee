//! The batching server: a small thread pool of request executors riding the
//! engine's epoch group commit.
//!
//! # Architecture
//!
//! ```text
//!  acceptor ──► per-connection reader ──► worker inbox (pinned by conn id)
//!                                              │  drain ≤ BATCH_MAX per
//!                                              │  iteration, execute each
//!                                              ▼  through a Session
//!                                         per-connection outbox
//!                                              │  writes tagged with their
//!                                              ▼  commit epoch
//!              per-connection writer ◄─────────┘
//!              waits once per group for the durable epoch,
//!              then flushes the whole pipelined burst
//! ```
//!
//! Each worker thread owns a [`silo_core::Session`] and drains a *batch* of
//! decoded requests per iteration, executing each through the session's
//! verbs: `get`/`put`/`insert`/`delete`/`scan`/`open_table` for single
//! operations (one-shot transactions that retry transient OCC aborts) and
//! `transact` for a `TXN` batch (run once; the client owns its retries).
//! The server adds only what the wire needs on top: catalog validation, the
//! write sheds, the token-replay window and durable-epoch tagging. A
//! connection's requests are pinned to one worker, so its
//! responses come back in request order — which is what makes fire-N-drain-N
//! pipelining work without request ids.
//!
//! # Durable acknowledgement
//!
//! A write's `Ok` frame is held back by the connection's writer thread until
//! the write's commit epoch passes the logger's durable watermark
//! ([`SiloLogger::wait_for_durable_epoch`]). Because the durable epoch is
//! monotone, one condvar wake releases *every* write the group fsync covered
//! — thousands of pipelined connections amortize a single `fsync` exactly as
//! §4.10 of the paper intends. If durability fails while an ack is pending,
//! the ack is rewritten into a typed [`ErrorCode::DurabilityDegraded`] frame
//! rather than sent as a false positive.
//!
//! The wait is short and in phase with the epoch. Each global-epoch advance
//! wakes the loggers, and a server worker is quiescent while it parks
//! between batches, so a write committed in epoch `e` is durable one logger
//! round (one `fsync`) after the epoch moves to `e + 1`. A write therefore
//! waits between the round alone and one epoch interval plus the round,
//! half an interval plus the round on average. On a 2-core loopback run with
//! 10 ms epochs, 2 connections and 32 requests in flight each, acks have a
//! median of about 10 ms at about 6.4k req/s.
//!
//! # Load shedding
//!
//! * **Backlog** — when a worker's inbox holds more than `INBOX_LIMIT`
//!   (4096) jobs, incoming *writes* are answered with
//!   [`ErrorCode::ServerBusy`] without being executed (the rejection rides
//!   the normal inbox path so response order is preserved).
//! * **Durability degradation** — each batch checks
//!   [`Database::durability_health`] once; while `Degraded`/`Failed`, writes
//!   are answered with [`ErrorCode::DurabilityDegraded`] instead of being
//!   executed. Reads keep flowing: the in-memory state is still consistent.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use silo_core::{Database, DurabilityHealth, Session, Tid, WorkerStats};
use silo_log::{DurableWait, SiloLogger};

use crate::fault::{FaultStream, NetFaultPlan};
use crate::protocol::{
    self, ErrorCode, FrameError, Request, Response, TxnOp, DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION, SUPPORTED_FEATURES,
};

/// Maximum requests a worker drains and executes per iteration.
const BATCH_MAX: usize = 64;
/// Per-worker inbox backlog beyond which arriving writes are shed with
/// `ServerBusy`.
const INBOX_LIMIT: usize = 4096;
/// Socket write timeout for response frames: bounds the shutdown drain even
/// against a half-open peer that never reads.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);
/// Tokenized write outcomes remembered per connection lineage for
/// exactly-once replay (see [`crate::protocol::FEATURE_REQUEST_TOKENS`]).
const TOKEN_WINDOW: usize = 128;

/// Configuration for [`Server::start`].
///
/// Non-exhaustive with builder-style `with_*` methods, so new server knobs
/// never break downstream constructors:
///
/// ```
/// use silo_net::ServerConfig;
///
/// let config = ServerConfig::default()
///     .with_workers(4)
///     .with_max_connections(256);
/// assert_eq!(config.workers, 4);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Address to listen on. Use port 0 to let the OS pick
    /// (see [`Server::local_addr`]).
    pub listen: String,
    /// Number of request-executor threads, each owning one engine `Session`.
    pub workers: usize,
    /// Maximum concurrent connections; the acceptor drops connections beyond
    /// this without serving them.
    pub max_connections: usize,
    /// Maximum accepted frame payload, in bytes. Oversized frames are
    /// answered with a `BadRequest` error and the connection is closed
    /// (the stream can no longer be trusted to be frame-aligned).
    pub max_frame_bytes: usize,
    /// Per-frame read deadline: once a frame's first byte arrives, the rest
    /// must follow within this budget or the connection is dropped
    /// (slow-loris defense). `Duration::ZERO` disables it.
    pub read_timeout: Duration,
    /// Idle timeout: a connection with no frame activity for this long is
    /// closed. `Duration::ZERO` disables it.
    pub idle_timeout: Duration,
    /// Wire fault-injection plan installed on every accepted connection
    /// (`None` in production: the I/O path then costs one branch per call).
    pub fault: Option<Arc<NetFaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            workers: 2,
            max_connections: 1024,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            read_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(300),
            fault: None,
        }
    }
}

impl ServerConfig {
    /// Sets the listen address (e.g. `"127.0.0.1:4000"`, port 0 = OS pick).
    pub fn with_listen(mut self, listen: impl Into<String>) -> Self {
        self.listen = listen.into();
        self
    }

    /// Sets the number of request-executor threads.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the maximum number of concurrent connections.
    pub fn with_max_connections(mut self, max: usize) -> Self {
        self.max_connections = max.max(1);
        self
    }

    /// Sets the maximum accepted frame payload size.
    pub fn with_max_frame_bytes(mut self, bytes: usize) -> Self {
        self.max_frame_bytes = bytes;
        self
    }

    /// Sets the per-frame read deadline (`Duration::ZERO` disables).
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Sets the idle-connection timeout (`Duration::ZERO` disables).
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Installs a wire fault-injection plan on every accepted connection.
    pub fn with_fault(mut self, plan: Arc<NetFaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }
}

/// A snapshot of the server's counters (see [`Server::stats`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Connections accepted and served.
    pub connections_accepted: u64,
    /// Connections dropped because `max_connections` was reached.
    pub connections_rejected: u64,
    /// Requests executed (including rejected/shed ones).
    pub requests: u64,
    /// Frames that failed to decode, plus torn/oversized streams.
    pub protocol_errors: u64,
    /// Transactions committed on behalf of clients: the sum of the server
    /// workers' [`WorkerStats::commits`].
    pub txns_committed: u64,
    /// Aborted transaction attempts, each retry of a single-operation
    /// request included: the sum of the server workers'
    /// [`WorkerStats::aborts`].
    pub txns_aborted: u64,
    /// Writes durably acknowledged (an `Ok` frame actually sent after the
    /// durable-epoch wait).
    pub writes_acked: u64,
    /// Writes shed with `ServerBusy` (inbox backlog).
    pub writes_shed_busy: u64,
    /// Writes shed with `DurabilityDegraded` (health-based, including acks
    /// rewritten after a failed durable wait).
    pub writes_shed_degraded: u64,
    /// Connections that ended on a transport error (reset, broken pipe,
    /// torn stream — a peer that died rather than hung up cleanly).
    pub connections_reset: u64,
    /// Connections that ended with a clean end-of-stream.
    pub disconnects: u64,
    /// Connections dropped because a frame missed its read deadline
    /// (slow-loris / stalled peer).
    pub read_timeouts: u64,
    /// Connections closed for exceeding the idle timeout.
    pub idle_closed: u64,
    /// Tokenized writes answered from the replay window instead of being
    /// re-applied.
    pub token_replays: u64,
}

#[derive(Default)]
struct StatsInner {
    connections_accepted: AtomicU64,
    connections_rejected: AtomicU64,
    requests: AtomicU64,
    protocol_errors: AtomicU64,
    writes_acked: AtomicU64,
    writes_shed_busy: AtomicU64,
    writes_shed_degraded: AtomicU64,
    connections_reset: AtomicU64,
    disconnects: AtomicU64,
    read_timeouts: AtomicU64,
    idle_closed: AtomicU64,
    token_replays: AtomicU64,
}

impl StatsInner {
    fn snapshot(&self, txns: &[TxnCounts]) -> ServerStats {
        let sum = |count: fn(&TxnCounts) -> &AtomicU64| {
            txns.iter().map(|t| count(t).load(Ordering::Acquire)).sum()
        };
        ServerStats {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_rejected: self.connections_rejected.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            txns_committed: sum(|t| &t.commits),
            txns_aborted: sum(|t| &t.aborts),
            writes_acked: self.writes_acked.load(Ordering::Relaxed),
            writes_shed_busy: self.writes_shed_busy.load(Ordering::Relaxed),
            writes_shed_degraded: self.writes_shed_degraded.load(Ordering::Relaxed),
            connections_reset: self.connections_reset.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            read_timeouts: self.read_timeouts.load(Ordering::Relaxed),
            idle_closed: self.idle_closed.load(Ordering::Relaxed),
            token_replays: self.token_replays.load(Ordering::Relaxed),
        }
    }
}

/// One server worker's engine transaction counts, copied from its session's
/// [`WorkerStats`] before each response is queued, so a client that has
/// seen a response also sees the transaction it ran counted.
#[derive(Default)]
struct TxnCounts {
    commits: AtomicU64,
    aborts: AtomicU64,
}

impl TxnCounts {
    fn publish(&self, stats: &WorkerStats) {
        self.commits.store(stats.commits, Ordering::Release);
        self.aborts.store(stats.aborts, Ordering::Release);
    }
}

/// A response queued for a connection's writer thread. `durable_epoch > 0`
/// means "hold this frame until that epoch is durable".
struct Outgoing {
    durable_epoch: u64,
    resp: Response,
}

/// Per-connection shared state between reader, workers, and writer.
struct Conn {
    id: u64,
    stream: TcpStream,
    outbox: Mutex<VecDeque<Outgoing>>,
    cv: Condvar,
    /// Set once no more responses will ever be enqueued (the reader's
    /// `Hangup` marker has drained through the worker); the writer exits
    /// after emptying the outbox.
    closed: AtomicBool,
    /// The connection's lineage from its `Hello` handshake (0 until a
    /// handshake negotiates request tokens). Keys the token-replay window.
    lineage: AtomicU64,
}

impl Conn {
    fn push(&self, out: Outgoing) {
        if self.closed.load(Ordering::Acquire) {
            return;
        }
        let mut q = self.outbox.lock().unwrap_or_else(|e| e.into_inner());
        q.push_back(out);
        drop(q);
        self.cv.notify_one();
    }

    fn close(&self) {
        // Setting the flag while holding the outbox lock pairs with the
        // writer's check-then-wait under the same lock, so a plain (untimed)
        // condvar wait cannot miss the close.
        let q = self.outbox.lock().unwrap_or_else(|e| e.into_inner());
        self.closed.store(true, Ordering::Release);
        drop(q);
        self.cv.notify_all();
    }
}

/// The remembered outcome of one tokenized write.
struct StoredAck {
    durable_epoch: u64,
    resp: Response,
}

/// A bounded FIFO of tokenized-write outcomes for one connection lineage.
/// Replaying a remembered token returns the stored outcome instead of
/// re-applying the write — the exactly-once half of reconnect safety.
struct TokenWindow {
    cap: usize,
    order: VecDeque<u64>,
    acks: HashMap<u64, StoredAck>,
}

impl TokenWindow {
    fn new(cap: usize) -> TokenWindow {
        TokenWindow { cap, order: VecDeque::new(), acks: HashMap::new() }
    }

    fn lookup(&self, token: u64) -> Option<Outgoing> {
        self.acks.get(&token).map(|a| Outgoing {
            durable_epoch: a.durable_epoch,
            resp: a.resp.clone(),
        })
    }

    fn record(&mut self, token: u64, durable_epoch: u64, resp: Response) {
        if self.acks.contains_key(&token) {
            return;
        }
        if self.order.len() >= self.cap {
            if let Some(evicted) = self.order.pop_front() {
                self.acks.remove(&evicted);
            }
        }
        self.order.push_back(token);
        self.acks.insert(token, StoredAck { durable_epoch, resp });
    }
}

/// Cap on remembered lineages; beyond it the oldest-registered lineage is
/// evicted (a reconnect after eviction simply loses replay protection and
/// surfaces retried tokens as fresh writes — bounded memory wins).
const MAX_LINEAGES: usize = 1024;

#[derive(Default)]
struct LineageTable {
    map: HashMap<u64, Arc<Mutex<TokenWindow>>>,
    order: VecDeque<u64>,
}

impl LineageTable {
    fn acquire(&mut self, lineage: u64, cap: usize) -> Arc<Mutex<TokenWindow>> {
        if let Some(w) = self.map.get(&lineage) {
            return Arc::clone(w);
        }
        if self.map.len() >= MAX_LINEAGES {
            if let Some(evicted) = self.order.pop_front() {
                self.map.remove(&evicted);
            }
        }
        let w = Arc::new(Mutex::new(TokenWindow::new(cap)));
        self.map.insert(lineage, Arc::clone(&w));
        self.order.push_back(lineage);
        w
    }

    fn get(&self, lineage: u64) -> Option<Arc<Mutex<TokenWindow>>> {
        self.map.get(&lineage).map(Arc::clone)
    }
}

/// Work routed to an executor thread. Everything a connection produces —
/// including rejections and its end-of-stream marker — flows through the
/// same pinned inbox, which is what keeps response order equal to request
/// order.
enum Job {
    Request(Arc<Conn>, Request),
    Reject(Arc<Conn>, ErrorCode, String),
    /// The connection's reader is done; after this drains, no more responses
    /// can be enqueued for the connection.
    Hangup(Arc<Conn>),
}

#[derive(Default)]
struct Inbox {
    q: Mutex<VecDeque<Job>>,
    cv: Condvar,
}

impl Inbox {
    fn len(&self) -> usize {
        self.q.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    fn push(&self, job: Job) {
        let mut q = self.q.lock().unwrap_or_else(|e| e.into_inner());
        q.push_back(job);
        drop(q);
        self.cv.notify_one();
    }
}

struct Shared {
    db: Arc<Database>,
    logger: Option<Arc<SiloLogger>>,
    config: ServerConfig,
    stats: StatsInner,
    stop: AtomicBool,
    inboxes: Vec<Inbox>,
    /// One slot per worker, indexed like `inboxes`.
    txns: Vec<TxnCounts>,
    conns: Mutex<Vec<Arc<Conn>>>,
    lineages: Mutex<LineageTable>,
    active_conns: AtomicUsize,
    /// Reader/writer thread handles, appended by the acceptor.
    io_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// A running network front-end over a [`Database`].
///
/// Start it with [`Server::start`], connect with `silo-client`, and stop it
/// with [`Server::shutdown`] (also invoked on drop). Shut the server down
/// *before* the logger: in-flight durable waits resolve against a live
/// logger, while a detached one fails them (acks are then rewritten as
/// `DurabilityDegraded`, never silently dropped).
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listen address and spawns the acceptor and worker threads.
    ///
    /// `logger` should be the [`SiloLogger`] installed on `db` when the
    /// server is to acknowledge durable writes; pass `None` for a purely
    /// in-memory server (writes are acked on commit).
    pub fn start(
        db: Arc<Database>,
        logger: Option<Arc<SiloLogger>>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.listen)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            db,
            logger,
            config,
            stats: StatsInner::default(),
            stop: AtomicBool::new(false),
            inboxes: (0..workers).map(|_| Inbox::default()).collect(),
            txns: (0..workers).map(|_| TxnCounts::default()).collect(),
            conns: Mutex::new(Vec::new()),
            lineages: Mutex::new(LineageTable::default()),
            active_conns: AtomicUsize::new(0),
            io_threads: Mutex::new(Vec::new()),
        });

        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("silo-net-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn server worker")
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("silo-net-acceptor".to_string())
                .spawn(move || acceptor_loop(&shared, listener))
                .expect("spawn server acceptor")
        };

        Ok(Server { shared, local_addr, acceptor: Some(acceptor), workers })
    }

    /// The bound listen address (resolves port 0 to the OS-picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the server's counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot(&self.shared.txns)
    }

    /// Stops accepting, closes every connection, drains in-flight requests,
    /// and joins every thread. In-flight durable acks are resolved (sent or
    /// rewritten as errors) before the corresponding writer exits. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Unblock every reader: readers observe EOF, push their Hangup
        // marker, and exit.
        for conn in self.shared.conns.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        // Workers drain what the readers enqueued (including the Hangups,
        // which close the outboxes), then exit on the stop flag. The stop
        // flag was set above, *before* taking each inbox lock: a worker is
        // either inside cv.wait (this notify wakes it) or will re-check the
        // flag under the lock — either way the wakeup cannot be lost, so the
        // workers' untimed waits stay sound.
        for inbox in &self.shared.inboxes {
            let q = inbox.q.lock().unwrap_or_else(|e| e.into_inner());
            inbox.cv.notify_all();
            drop(q);
        }
        let mut io_threads: Vec<_> =
            std::mem::take(&mut *self.shared.io_threads.lock().unwrap_or_else(|e| e.into_inner()));
        // Join readers and writers *after* the workers so writers see their
        // final responses; order within io_threads does not matter because
        // every thread has an exit condition that is now satisfied.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Safety net: if a worker exited without processing a Hangup (it
        // cannot, but a panic would), force-close every outbox so writers
        // cannot park forever.
        for conn in self.shared.conns.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            conn.close();
        }
        for t in io_threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn acceptor_loop(shared: &Arc<Shared>, listener: TcpListener) {
    let mut next_conn_id = 0u64;
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.active_conns.load(Ordering::Acquire) >= shared.config.max_connections {
                    shared.stats.connections_rejected.fetch_add(1, Ordering::Relaxed);
                    reject_connection(stream);
                    continue;
                }
                let id = next_conn_id;
                next_conn_id += 1;
                if let Err(e) = spawn_connection(shared, stream, id) {
                    // Accepted but could not serve (fd clone failure):
                    // nothing to do but drop it.
                    let _ = e;
                    shared.stats.connections_rejected.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Answers an over-limit connection with one typed `ServerBusy` frame
/// (best effort, bounded by a short write timeout) before dropping it, so
/// the client can back off instead of guessing why it was reset.
fn reject_connection(stream: TcpStream) {
    // An accepted socket may inherit the listener's nonblocking mode on
    // some platforms; be explicit so the write timeout governs.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let mut payload = Vec::new();
    protocol::encode_response(
        &mut payload,
        &Response::Error {
            code: ErrorCode::ServerBusy,
            detail: "connection limit reached".to_string(),
        },
    );
    let mut w = &stream;
    let _ = protocol::write_frame(&mut w, &payload);
    let _ = w.flush();
    drop(stream);
}

fn spawn_connection(shared: &Arc<Shared>, stream: TcpStream, id: u64) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    // Accepted sockets may inherit the listener's nonblocking mode on some
    // platforms; the I/O loops below rely on blocking reads with timeouts.
    stream.set_nonblocking(false)?;
    let read_half = stream.try_clone()?;
    let write_half = stream.try_clone()?;
    write_half.set_write_timeout(Some(WRITE_TIMEOUT)).ok();
    let conn = Arc::new(Conn {
        id,
        stream,
        outbox: Mutex::new(VecDeque::new()),
        cv: Condvar::new(),
        closed: AtomicBool::new(false),
        lineage: AtomicU64::new(0),
    });
    shared.stats.connections_accepted.fetch_add(1, Ordering::Relaxed);
    shared.active_conns.fetch_add(1, Ordering::AcqRel);
    shared.conns.lock().unwrap_or_else(|e| e.into_inner()).push(Arc::clone(&conn));

    let reader = {
        let shared = Arc::clone(shared);
        let conn = Arc::clone(&conn);
        std::thread::Builder::new()
            .name(format!("silo-net-read-{id}"))
            .spawn(move || reader_loop(&shared, &conn, read_half))?
    };
    let writer = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("silo-net-write-{id}"))
            .spawn(move || writer_loop(&shared, &conn, write_half))?
    };
    let mut io_threads = shared.io_threads.lock().unwrap_or_else(|e| e.into_inner());
    io_threads.push(reader);
    io_threads.push(writer);
    Ok(())
}

/// The socket-timeout tick used as the clock for the frame deadline and the
/// idle budget: fine enough that short test timeouts resolve promptly,
/// coarse enough that an idle connection costs a handful of wakeups per
/// second. Under load, reads return data and the tick never fires.
fn read_tick(config: &ServerConfig) -> Option<Duration> {
    let budgets = [config.read_timeout, config.idle_timeout]
        .into_iter()
        .filter(|d| !d.is_zero())
        .min()?;
    Some((budgets / 4).clamp(Duration::from_millis(5), Duration::from_millis(250)))
}

fn reader_loop(shared: &Arc<Shared>, conn: &Arc<Conn>, stream: TcpStream) {
    let inbox = &shared.inboxes[(conn.id as usize) % shared.inboxes.len()];
    let socket = stream.try_clone().ok();
    if let Some(tick) = read_tick(&shared.config) {
        stream.set_read_timeout(Some(tick)).ok();
    }
    let mut r = BufReader::new({
        let mut fs = FaultStream::new(stream, shared.config.fault.clone());
        if let Some(socket) = socket {
            fs = fs.with_socket(socket);
        }
        fs
    });
    let frame_timeout =
        (!shared.config.read_timeout.is_zero()).then_some(shared.config.read_timeout);
    let idle_timeout = shared.config.idle_timeout;
    let mut last_activity = Instant::now();
    let mut buf = Vec::new();
    loop {
        match protocol::read_frame_deadline(&mut r, &mut buf, shared.config.max_frame_bytes, frame_timeout)
        {
            Ok(true) => {
                last_activity = Instant::now();
            }
            Ok(false) => {
                shared.stats.disconnects.fetch_add(1, Ordering::Relaxed);
                break; // clean EOF between frames
            }
            Err(FrameError::TimedOut { mid_frame: false }) => {
                // The connection is idle; tolerate it up to the idle budget
                // (and re-check the stop flag so shutdown stays prompt).
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
                if !idle_timeout.is_zero() && last_activity.elapsed() >= idle_timeout {
                    shared.stats.idle_closed.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                continue;
            }
            Err(FrameError::TimedOut { mid_frame: true }) => {
                // A frame started but stalled past its deadline: the stream
                // is no longer frame-aligned. Answer once and hang up.
                shared.stats.read_timeouts.fetch_add(1, Ordering::Relaxed);
                inbox.push(Job::Reject(
                    Arc::clone(conn),
                    ErrorCode::BadRequest,
                    "frame read deadline exceeded".to_string(),
                ));
                break;
            }
            Err(FrameError::Torn) => {
                // A crashed peer: nothing sensible to answer.
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                shared.stats.connections_reset.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Err(FrameError::Oversized { len, max }) => {
                // The stream is no longer frame-aligned: answer once (in
                // order, through the inbox) and hang up.
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                inbox.push(Job::Reject(
                    Arc::clone(conn),
                    ErrorCode::BadRequest,
                    format!("frame of {len} bytes exceeds the {max}-byte limit"),
                ));
                break;
            }
            Err(FrameError::Io(_)) => {
                shared.stats.connections_reset.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        match protocol::decode_request(&buf) {
            Ok(req) => {
                // Backlog shedding: drop writes (only) while the pinned
                // worker's inbox is over the watermark. The rejection rides
                // the inbox so the response order still matches the request
                // order.
                if req.is_write() && inbox.len() >= INBOX_LIMIT {
                    shared.stats.writes_shed_busy.fetch_add(1, Ordering::Relaxed);
                    inbox.push(Job::Reject(
                        Arc::clone(conn),
                        ErrorCode::ServerBusy,
                        "worker inbox over backlog limit".to_string(),
                    ));
                } else {
                    inbox.push(Job::Request(Arc::clone(conn), req));
                }
            }
            Err(e) => {
                // Framing is still intact after a payload-level decode
                // error, so answer and keep the connection.
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                inbox.push(Job::Reject(Arc::clone(conn), ErrorCode::BadRequest, e.to_string()));
            }
        }
    }
    let _ = conn.stream.shutdown(std::net::Shutdown::Read);
    inbox.push(Job::Hangup(Arc::clone(conn)));
    shared.active_conns.fetch_sub(1, Ordering::AcqRel);
}

fn writer_loop(shared: &Arc<Shared>, conn: &Arc<Conn>, stream: TcpStream) {
    let socket = stream.try_clone().ok();
    let mut w = BufWriter::new({
        let mut fs = FaultStream::new(stream, shared.config.fault.clone());
        if let Some(socket) = socket {
            fs = fs.with_socket(socket);
        }
        fs
    });
    let mut payload = Vec::new();
    'outer: loop {
        let next = {
            let mut q = conn.outbox.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(out) = q.pop_front() {
                    break out;
                }
                if conn.closed.load(Ordering::Acquire) {
                    break 'outer;
                }
                // Nothing pending: flush the burst we just wrote before
                // parking, so the client sees its pipeline drain.
                drop(q);
                if w.flush().is_err() {
                    break 'outer;
                }
                q = conn.outbox.lock().unwrap_or_else(|e| e.into_inner());
                if q.is_empty() && !conn.closed.load(Ordering::Acquire) {
                    // An untimed wait is safe: push() enqueues under this
                    // lock before notifying, and close() flips the flag
                    // under this lock, so whichever happens after our
                    // re-check necessarily reaches the condvar.
                    q = conn.cv.wait(q).unwrap_or_else(|e| e.into_inner());
                }
            }
        };
        let mut resp = next.resp;
        if next.durable_epoch > 0 {
            if let Some(logger) = &shared.logger {
                // The group-commit wait: parks until the batch's epoch is
                // durable. Coalesces across the pipeline — once the epoch
                // is durable every queued ack behind it passes the fast
                // path without touching the condvar.
                match logger.wait_for_durable_epoch(next.durable_epoch) {
                    DurableWait::Durable => {
                        shared.stats.writes_acked.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        // Never send a false ack: the write committed in
                        // memory but its durability can no longer be
                        // guaranteed.
                        shared.stats.writes_shed_degraded.fetch_add(1, Ordering::Relaxed);
                        resp = Response::Error {
                            code: ErrorCode::DurabilityDegraded,
                            detail: "durability failed before the write's epoch became durable"
                                .to_string(),
                        };
                    }
                }
            } else {
                shared.stats.writes_acked.fetch_add(1, Ordering::Relaxed);
            }
        }
        payload.clear();
        protocol::encode_response(&mut payload, &resp);
        if protocol::write_frame(&mut w, &payload).is_err() {
            break;
        }
    }
    let _ = w.flush();
    let _ = conn.stream.shutdown(std::net::Shutdown::Write);
}

fn worker_loop(shared: &Arc<Shared>, index: usize) {
    let mut session = shared.db.session();
    let inbox = &shared.inboxes[index];
    let mut batch = Vec::with_capacity(BATCH_MAX);
    loop {
        {
            let mut q = inbox.q.lock().unwrap_or_else(|e| e.into_inner());
            if q.is_empty() {
                // Mark this worker quiescent before parking: an idle worker
                // whose local epoch stays pinned would stall the global
                // epoch (the `E − e_w ≤ 1` invariant) and with it the
                // durable watermark every pending ack waits on.
                drop(q);
                session.quiesce();
                q = inbox.q.lock().unwrap_or_else(|e| e.into_inner());
            }
            while q.is_empty() && !shared.stop.load(Ordering::Acquire) {
                // Untimed: push() notifies after enqueuing under this lock,
                // and shutdown() sets the stop flag before notifying under
                // this lock, so neither wakeup can be lost.
                q = inbox.cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
            if q.is_empty() {
                return; // stop requested and fully drained
            }
            let take = q.len().min(BATCH_MAX);
            batch.extend(q.drain(..take));
        }
        // One health probe per batch — the whole point of batching the
        // check: thousands of pipelined requests cost one atomic load each
        // iteration, not one per request.
        let health = shared.db.durability_health();
        let degraded = !matches!(health, DurabilityHealth::Healthy) && shared.logger.is_some();
        for job in batch.drain(..) {
            match job {
                Job::Hangup(conn) => conn.close(),
                Job::Reject(conn, code, detail) => {
                    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                    conn.push(Outgoing {
                        durable_epoch: 0,
                        resp: Response::Error { code, detail },
                    });
                }
                Job::Request(conn, req) => {
                    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                    let out = handle_request(shared, &mut session, &conn, req, degraded, health);
                    shared.txns[index].publish(session.worker().stats());
                    conn.push(out);
                }
            }
        }
    }
}

/// Dispatches one decoded request: protocol-level requests (`Hello`,
/// `Tokenized`) are resolved here — including the token-replay window and
/// the degraded-writes shed — and everything else goes to [`execute`].
fn handle_request(
    shared: &Shared,
    session: &mut Session,
    conn: &Arc<Conn>,
    req: Request,
    degraded: bool,
    health: DurabilityHealth,
) -> Outgoing {
    match req {
        Request::Hello { version, features, lineage } => {
            if version != PROTOCOL_VERSION {
                return reply_err(
                    ErrorCode::UnsupportedVersion,
                    format!("server speaks protocol version {PROTOCOL_VERSION}, client sent {version}"),
                );
            }
            let granted = features & SUPPORTED_FEATURES;
            if granted & protocol::FEATURE_REQUEST_TOKENS != 0 && lineage != 0 {
                conn.lineage.store(lineage, Ordering::Release);
                // Materialize the lineage's window now so a replayed token
                // finds it even if the original ack raced the reconnect.
                shared
                    .lineages
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .acquire(lineage, TOKEN_WINDOW);
            }
            Outgoing {
                durable_epoch: 0,
                resp: Response::HelloOk { version: PROTOCOL_VERSION, features: granted },
            }
        }
        Request::Tokenized { token, req } => {
            let lineage = conn.lineage.load(Ordering::Acquire);
            if lineage == 0 {
                return reply_err(
                    ErrorCode::BadRequest,
                    "tokenized request without a token-negotiating handshake".to_string(),
                );
            }
            let window = shared
                .lineages
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get(lineage);
            let Some(window) = window else {
                // Evicted under lineage pressure: execute as a fresh write
                // (replay protection is bounded, not infinite).
                return shed_or_execute(shared, session, &req, degraded, health);
            };
            // Replay check *before* the degraded shed: a write that was
            // already applied and remembered must return its recorded
            // outcome, not a fresh rejection — the stored durable epoch
            // still gates the ack on actual durability.
            if let Some(stored) = window.lock().unwrap_or_else(|e| e.into_inner()).lookup(token) {
                shared.stats.token_replays.fetch_add(1, Ordering::Relaxed);
                return stored;
            }
            let out = shed_or_execute(shared, session, &req, degraded, health);
            // Remember only successful outcomes: a shed or abort is safe to
            // re-execute, and recording it would pin a transient failure as
            // the token's permanent answer.
            if !matches!(out.resp, Response::Error { .. }) {
                window
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .record(token, out.durable_epoch, out.resp.clone());
            }
            out
        }
        req => shed_or_execute(shared, session, &req, degraded, health),
    }
}

/// The degraded-durability write shed, applied on the way into [`execute`].
fn shed_or_execute(
    shared: &Shared,
    session: &mut Session,
    req: &Request,
    degraded: bool,
    health: DurabilityHealth,
) -> Outgoing {
    if degraded && req.is_write() {
        shared.stats.writes_shed_degraded.fetch_add(1, Ordering::Relaxed);
        return Outgoing {
            durable_epoch: 0,
            resp: Response::Error {
                code: ErrorCode::DurabilityDegraded,
                detail: format!("shedding writes: durability {}", match health {
                    DurabilityHealth::Degraded { lag_epochs } => {
                        format!("lags by {lag_epochs} epochs")
                    }
                    DurabilityHealth::Failed => "failed permanently".to_string(),
                    DurabilityHealth::Healthy => "healthy".to_string(),
                }),
            },
        };
    }
    execute(shared, session, req)
}

/// Executes one request through the worker's session: single operations
/// map onto the session's one-shot verbs (which retry transient OCC aborts),
/// a `TXN` batch onto one [`Session::transact`] call. A committed write is
/// tagged with its commit epoch so the writer holds the response until that
/// epoch is durable (when a logger backs the server).
fn execute(shared: &Shared, session: &mut Session, req: &Request) -> Outgoing {
    let db = &shared.db;
    // Catalog errors first, so transactions never see unknown table ids.
    if let Some(table) = req_tables(req).find(|&t| db.try_table(t).is_none()) {
        return reply_err(ErrorCode::NoSuchTable, format!("unknown table id {table}"));
    }
    let durable = |tid: Tid| if shared.logger.is_some() { tid.epoch() } else { 0 };
    let done = match req {
        Request::Health => {
            let health = db.durability_health();
            let global_epoch = db.epochs().global_epoch();
            let durable_epoch = shared
                .logger
                .as_ref()
                .map(|l| l.durable_epoch())
                .unwrap_or(global_epoch);
            Ok((0, Response::Health {
                health: health.into(),
                lag_epochs: global_epoch.saturating_sub(durable_epoch),
                durable_epoch,
                global_epoch,
            }))
        }
        Request::OpenTable { name } => match session.open_table(name) {
            Ok(id) => Ok((0, Response::TableId { id })),
            Err(e) => return reply_err(ErrorCode::NoSuchTable, e.to_string()),
        },
        Request::Get { table, key } => {
            session.get(*table, key).map(|value| (0, Response::Value { value }))
        }
        Request::Scan { table, start, end, limit } => session
            .scan(*table, start, end.as_deref(), (*limit != 0).then_some(*limit as usize))
            .map(|entries| (0, Response::Entries { entries })),
        Request::Put { table, key, value } => {
            session.put(*table, key, value).map(|tid| (durable(tid), Response::Ok))
        }
        Request::Insert { table, key, value } => {
            session.insert(*table, key, value).map(|tid| (durable(tid), Response::Ok))
        }
        Request::Delete { table, key } => {
            session.delete(*table, key).map(|(_, tid)| (durable(tid), Response::Ok))
        }
        Request::Txn { ops } => {
            let writes = ops.iter().any(TxnOp::is_write);
            session
                .transact(|txn| {
                    let mut reads = Vec::new();
                    for op in ops {
                        match op {
                            TxnOp::Get { table, key } => reads.push(txn.read(*table, key)?),
                            TxnOp::Put { table, key, value } => txn.write(*table, key, value)?,
                            TxnOp::Insert { table, key, value } => {
                                txn.insert(*table, key, value)?
                            }
                            TxnOp::Delete { table, key } => {
                                txn.delete(*table, key)?;
                            }
                        }
                    }
                    Ok(reads)
                })
                .map(|(reads, tid)| {
                    (if writes { durable(tid) } else { 0 }, Response::TxnOk { reads })
                })
        }
        // Resolved by `handle_request` before execution ever sees them.
        Request::Hello { .. } | Request::Tokenized { .. } => {
            return reply_err(
                ErrorCode::Internal,
                "protocol-level request reached the executor".to_string(),
            )
        }
    };
    match done {
        Ok((durable_epoch, resp)) => Outgoing { durable_epoch, resp },
        Err(abort) => reply_err(ErrorCode::Aborted, abort.0.to_string()),
    }
}

/// Every table id a request references, for catalog validation.
fn req_tables(req: &Request) -> impl Iterator<Item = u32> + '_ {
    let (single, ops): (Option<u32>, &[TxnOp]) = match req {
        Request::Get { table, .. }
        | Request::Put { table, .. }
        | Request::Insert { table, .. }
        | Request::Delete { table, .. }
        | Request::Scan { table, .. } => (Some(*table), &[]),
        Request::Txn { ops } => (None, ops.as_slice()),
        // `Tokenized` is unwrapped by `handle_request` before validation.
        Request::Health
        | Request::OpenTable { .. }
        | Request::Hello { .. }
        | Request::Tokenized { .. } => (None, &[]),
    };
    single.into_iter().chain(ops.iter().map(|op| match op {
        TxnOp::Get { table, .. }
        | TxnOp::Put { table, .. }
        | TxnOp::Insert { table, .. }
        | TxnOp::Delete { table, .. } => *table,
    }))
}

fn reply_err(code: ErrorCode, detail: String) -> Outgoing {
    Outgoing { durable_epoch: 0, resp: Response::Error { code, detail } }
}
