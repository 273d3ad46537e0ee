//! # silo-client — a blocking, pipelining client for the silo-net protocol
//!
//! Two layers:
//!
//! * [`Connection`] — one TCP connection speaking the length-prefixed frame
//!   protocol, with explicit **pipelining**: [`Connection::send`] queues a
//!   request without waiting, [`Connection::recv`] takes the next response
//!   (responses arrive in request order, so no ids are needed). Issue `N`,
//!   then drain `N` — the server executes the whole burst as batches and one
//!   group commit releases every write ack in it.
//! * [`Session`] — the same session vocabulary the embedded
//!   `silo_core::Session` API uses: `get`/`put`/`insert`/`delete`/`scan` as
//!   single-operation transactions plus [`Session::transact`] for atomic
//!   multi-operation transactions, each call synchronous (`send` + `flush` +
//!   `recv`).
//!
//! ```no_run
//! use silo_client::{Connection, Session};
//!
//! let mut session = Session::connect("127.0.0.1:4000").unwrap();
//! let accounts = session.open_table("accounts").unwrap();
//! session.put(accounts, b"alice", b"100").unwrap(); // acked once durable
//! assert_eq!(session.get(accounts, b"alice").unwrap(), Some(b"100".to_vec()));
//! ```
//!
//! # Resilience
//!
//! A [`Session`] opened with [`ClientConfig::resilient`] rides out partial
//! failure instead of surfacing it:
//!
//! * **Timeouts** — the socket read timeout ([`ClientConfig::read_timeout`])
//!   and a fixed 30 s socket write timeout bound every blocking call
//!   ([`ClientError::TimedOut`]); there is no separate per-request deadline.
//! * **Retries** — a [`RetryPolicy`] (capped exponential backoff + jitter,
//!   bounded attempts) transparently retries `ServerBusy`, OCC `Aborted`
//!   outcomes, and — after probing [`Session::health`] until the server
//!   recovers — `DurabilityDegraded` sheds.
//! * **Reconnect + exactly-once replay** — the `HELLO` handshake negotiates
//!   *request tokens*: every write is wrapped in a client-assigned token and
//!   the server remembers recent outcomes per connection *lineage*, so a
//!   write whose ack was lost to a connection reset can be re-issued after
//!   reconnecting without being applied twice. A write that was in flight
//!   *without* a token when the transport died is never silently retried —
//!   it surfaces as the typed [`ClientError::AckUnknown`], telling the
//!   application the write may or may not have committed.
//!
//! A server shedding load surfaces as a typed [`ClientError::Server`] whose
//! [`ErrorCode`] distinguishes `ServerBusy` (backlog — retry after backoff)
//! from `DurabilityDegraded` (the log can't back new acks — probe
//! [`Session::health`] and retry once healthy) from `Aborted` (OCC conflict —
//! retry the transaction).

#![warn(missing_docs)]

use std::io::{BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use silo_net::fault::{xorshift, FaultStream, NetFaultPlan};
use silo_net::protocol::{
    self, FrameError, Request, Response, TxnOp, DEFAULT_MAX_FRAME_BYTES, FEATURE_REQUEST_TOKENS,
    PROTOCOL_VERSION,
};

pub use silo_net::protocol::{ErrorCode, HealthStatus, ProtocolError};

/// A typed error frame returned by the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerError {
    /// The error class (retryability is encoded here).
    pub code: ErrorCode,
    /// Human-readable detail from the server.
    pub detail: String,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

impl std::error::Error for ServerError {}

/// Everything that can go wrong on the client side.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (includes the server closing the connection
    /// mid-frame).
    Io(std::io::Error),
    /// The server sent a frame this client could not decode, or a response
    /// of an unexpected type for the request.
    Protocol(String),
    /// The connection was closed by the server while responses were still
    /// outstanding.
    Closed,
    /// The server answered with a typed error frame.
    Server(ServerError),
    /// A socket read or write timeout expired.
    TimedOut,
    /// The transport died while an **untokenized write** was in flight: the
    /// write may or may not have committed, and retrying it blindly could
    /// apply it twice. The payload is the underlying transport error.
    /// Sessions with request tokens negotiated never surface this — their
    /// writes replay safely instead.
    AckUnknown(Box<ClientError>),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(d) => write!(f, "protocol error: {d}"),
            ClientError::Closed => write!(f, "connection closed with responses outstanding"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::TimedOut => write!(f, "request timed out"),
            ClientError::AckUnknown(cause) => {
                write!(f, "write outcome unknown (transport died mid-request: {cause})")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) {
            ClientError::TimedOut
        } else {
            ClientError::Io(e)
        }
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::from(e),
            FrameError::TimedOut { .. } => ClientError::TimedOut,
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

impl ClientError {
    /// Whether this is a typed shed/abort the caller should retry (possibly
    /// after backoff or a health probe): `Aborted`, `ServerBusy`, or
    /// `DurabilityDegraded`.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ClientError::Server(ServerError {
                code: ErrorCode::Aborted | ErrorCode::ServerBusy | ErrorCode::DurabilityDegraded,
                ..
            })
        )
    }

    /// The typed server error code, if this is a server error.
    pub fn server_code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server(e) => Some(e.code),
            _ => None,
        }
    }

    /// Whether the transport (rather than the server's typed answer) failed:
    /// the connection is dead and only a reconnect can continue.
    fn is_transport(&self) -> bool {
        matches!(
            self,
            ClientError::Io(_)
                | ClientError::Protocol(_)
                | ClientError::Closed
                | ClientError::TimedOut
        )
    }
}

/// How a [`Session`] retries retryable outcomes (OCC `Aborted`,
/// `ServerBusy`, `DurabilityDegraded`): capped exponential backoff with
/// jitter and a bounded attempt budget. Retrying an abort is safe: a
/// single-op request is value-idempotent, and a `transact` retry re-runs the
/// whole batch.
///
/// Non-exhaustive with `with_*` builders. [`RetryPolicy::none`] (the
/// [`ClientConfig`] default) disables retries entirely; every error
/// surfaces on the first attempt.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RetryPolicy {
    /// Maximum retries after the first attempt (0 = never retry).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub initial_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
    /// Randomize each backoff within `[backoff/2, backoff]` so synchronized
    /// clients do not retry in lockstep.
    pub jitter: bool,
    /// On `DurabilityDegraded`, poll [`Session::health`] for up to this long
    /// waiting for the server to report `Healthy` before retrying
    /// (`Duration::ZERO` = retry on plain backoff instead).
    pub wait_for_health: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 8,
            initial_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(250),
            jitter: true,
            wait_for_health: Duration::from_secs(5),
        }
    }
}

impl RetryPolicy {
    /// No retries: every error surfaces on the first attempt.
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_retries: 0, ..RetryPolicy::default() }
    }

    /// Sets the retry budget.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Sets the initial backoff.
    pub fn with_initial_backoff(mut self, backoff: Duration) -> Self {
        self.initial_backoff = backoff;
        self
    }

    /// Sets the backoff cap.
    pub fn with_max_backoff(mut self, backoff: Duration) -> Self {
        self.max_backoff = backoff;
        self
    }

    /// Enables or disables backoff jitter.
    pub fn with_jitter(mut self, jitter: bool) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sets the health-recovery wait budget for `DurabilityDegraded`.
    pub fn with_wait_for_health(mut self, budget: Duration) -> Self {
        self.wait_for_health = budget;
        self
    }
}

/// Configuration for [`Session::connect_with`] /
/// [`Connection::connect_with`].
///
/// The default matches the historical client: no retries, no reconnection,
/// generous socket timeouts, and a protocol handshake. Opt into the full
/// resilience stack with [`ClientConfig::resilient`]. Dialing gives up after
/// 5 s, a blocked socket write after 30 s, and response frames are capped at
/// [`DEFAULT_MAX_FRAME_BYTES`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ClientConfig {
    /// Socket read timeout: the longest a blocking receive may sit with no
    /// bytes arriving (`Duration::ZERO` disables).
    pub read_timeout: Duration,
    /// The retry policy for retryable outcomes.
    pub retry: RetryPolicy,
    /// Whether a dead connection is transparently re-dialed (with a fresh
    /// handshake and token replay for in-flight tokenized writes). A
    /// reconnecting session derives a process-unique connection lineage,
    /// which keys the server's token-replay window across reconnects.
    pub reconnect: bool,
    /// Whether to open connections with a `HELLO` handshake (negotiating the
    /// protocol version, and request tokens when `reconnect` is on).
    pub handshake: bool,
    /// Wire fault-injection plan spliced into every connection this config
    /// opens (`None` in production: one branch per I/O call).
    pub fault: Option<Arc<NetFaultPlan>>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Duration::from_secs(30),
            retry: RetryPolicy::none(),
            reconnect: false,
            handshake: true,
            fault: None,
        }
    }
}

impl ClientConfig {
    /// The full resilience stack: default retries, reconnection, and
    /// tokenized write replay.
    pub fn resilient() -> ClientConfig {
        ClientConfig {
            retry: RetryPolicy::default(),
            reconnect: true,
            ..ClientConfig::default()
        }
    }

    /// Sets the socket read timeout (`Duration::ZERO` disables).
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables or disables transparent reconnection.
    pub fn with_reconnect(mut self, reconnect: bool) -> Self {
        self.reconnect = reconnect;
        self
    }

    /// Enables or disables the `HELLO` handshake.
    pub fn with_handshake(mut self, handshake: bool) -> Self {
        self.handshake = handshake;
        self
    }

    /// Splices a wire fault-injection plan into every connection.
    pub fn with_fault(mut self, plan: Arc<NetFaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }
}

/// TCP connect timeout for every dial.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// Socket write timeout: bounds a send to a peer that stopped reading.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Counters a resilient [`Session`] keeps about its own recovery actions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Requests re-issued after a retryable outcome or transport failure.
    pub retries: u64,
    /// Connections re-dialed after the transport died.
    pub reconnects: u64,
    /// Writes whose outcome was lost with the transport
    /// ([`ClientError::AckUnknown`]).
    pub ack_unknown: u64,
}

/// One pipelined connection to a silo-net server.
///
/// [`Connection::send`] buffers a request and counts it as in-flight;
/// [`Connection::flush`] pushes the burst onto the wire; [`Connection::recv`]
/// reads the next response (flushing first if needed). [`Connection::call`]
/// is the synchronous send-flush-recv convenience. The server answers in
/// request order, so the `k`-th `recv` after a burst corresponds to the
/// `k`-th `send`.
pub struct Connection {
    reader: BufReader<FaultStream<TcpStream>>,
    writer: BufWriter<FaultStream<TcpStream>>,
    in_flight: usize,
    encode_buf: Vec<u8>,
    frame_buf: Vec<u8>,
}

impl Connection {
    /// Connects to a server with default settings (no timeouts beyond the
    /// 30 s socket defaults, no fault injection).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Connection, ClientError> {
        Connection::connect_with(addr, &ClientConfig::default())
    }

    /// Connects with explicit timeouts and (optionally) fault injection.
    /// Does *not* perform the handshake — [`Session`] owns that.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: &ClientConfig,
    ) -> Result<Connection, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        Connection::connect_addrs(&addrs, config)
    }

    fn connect_addrs(addrs: &[SocketAddr], config: &ClientConfig) -> Result<Connection, ClientError> {
        let mut last_err: Option<std::io::Error> = None;
        for addr in addrs {
            match TcpStream::connect_timeout(addr, CONNECT_TIMEOUT) {
                Ok(stream) => return Connection::from_stream(stream, config),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err
            .map(ClientError::from)
            .unwrap_or_else(|| ClientError::Protocol("no socket address resolved".to_string())))
    }

    fn from_stream(stream: TcpStream, config: &ClientConfig) -> Result<Connection, ClientError> {
        stream.set_nodelay(true).ok();
        if !config.read_timeout.is_zero() {
            stream.set_read_timeout(Some(config.read_timeout))?;
        }
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        let read_half = FaultStream::new(stream.try_clone()?, config.fault.clone())
            .with_socket(stream.try_clone()?);
        let write_half = FaultStream::new(stream.try_clone()?, config.fault.clone())
            .with_socket(stream)
            .with_shared_death(read_half.share_death());
        Ok(Connection {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(write_half),
            in_flight: 0,
            encode_buf: Vec::new(),
            frame_buf: Vec::new(),
        })
    }

    /// Performs the protocol handshake, requesting `features`; returns the
    /// granted feature bits.
    pub fn hello(&mut self, lineage: u64, features: u64) -> Result<u64, ClientError> {
        match self.call(&Request::Hello { version: PROTOCOL_VERSION, features, lineage })? {
            Response::HelloOk { version: _, features } => Ok(features),
            other => Err(unexpected("HelloOk", &other)),
        }
    }

    /// Queues one request into the connection's write buffer without
    /// flushing. Pair each `send` with a later [`Connection::recv`].
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        self.encode_buf.clear();
        protocol::encode_request(&mut self.encode_buf, req);
        protocol::write_frame(&mut self.writer, &self.encode_buf)?;
        self.in_flight += 1;
        Ok(())
    }

    /// Pushes every buffered request onto the wire.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Reads the next response, flushing buffered requests first. Returns
    /// [`ClientError::Closed`] if the server hung up with responses
    /// outstanding. A typed error frame is returned as `Ok(Response::Error)`
    /// — use [`Connection::recv_result`] to turn those into
    /// [`ClientError::Server`].
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        if self.in_flight == 0 {
            return Err(ClientError::Protocol("recv with no request in flight".to_string()));
        }
        self.flush()?;
        if !protocol::read_frame(&mut self.reader, &mut self.frame_buf, DEFAULT_MAX_FRAME_BYTES)? {
            return Err(ClientError::Closed);
        }
        self.in_flight -= 1;
        protocol::decode_response(&self.frame_buf)
            .map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Like [`Connection::recv`], but converts a typed error frame into
    /// [`ClientError::Server`].
    pub fn recv_result(&mut self) -> Result<Response, ClientError> {
        match self.recv()? {
            Response::Error { code, detail } => {
                Err(ClientError::Server(ServerError { code, detail }))
            }
            resp => Ok(resp),
        }
    }

    /// Synchronous request: send, flush, receive (typed errors become
    /// [`ClientError::Server`]).
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send(req)?;
        self.recv_result()
    }

    /// Requests sent but not yet answered.
    pub fn pending(&self) -> usize {
        self.in_flight
    }
}

/// A durability health report from [`Session::health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthReport {
    /// The server's durability classification.
    pub health: HealthStatus,
    /// Epochs the durable epoch trails the global epoch by.
    pub lag_epochs: u64,
    /// The server's durable epoch `D`.
    pub durable_epoch: u64,
    /// The server's global epoch `E`.
    pub global_epoch: u64,
}

/// Key-value entries returned by [`Session::scan`], in key order.
pub type ScanEntries = Vec<(Vec<u8>, Vec<u8>)>;

/// Source of process-unique lineage ids.
static LINEAGE_COUNTER: AtomicU64 = AtomicU64::new(1);

fn derive_lineage() -> u64 {
    let counter = LINEAGE_COUNTER.fetch_add(1, Ordering::Relaxed) & 0xFFFF_FFFF;
    ((std::process::id() as u64) << 32) | counter
}

/// The remote counterpart of the embedded `silo_core::Session`: each method
/// is one transaction against the server, synchronous and in the same
/// vocabulary (`get`/`put`/`insert`/`delete`/`scan`/`transact`).
///
/// With [`ClientConfig::resilient`] the session owns the whole failure
/// lifecycle: timeouts, typed-error retries, reconnection, and exactly-once
/// write replay via request tokens (see the crate docs).
///
/// For throughput, use [`Session::connection`]-level pipelining (or the
/// `fig_net` load generator's pattern): issue a burst of `send`s, then drain
/// with `recv`.
pub struct Session {
    conn: Option<Connection>,
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    lineage: u64,
    /// Whether the server granted request tokens on the live connection.
    tokens: bool,
    next_token: u64,
    connected_once: bool,
    stats: ClientStats,
    /// xorshift64* state for backoff jitter.
    rng: u64,
}

impl Session {
    /// Connects a new session with the default (non-resilient) config.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Session, ClientError> {
        Session::connect_with(addr, ClientConfig::default())
    }

    /// Connects a new session with an explicit [`ClientConfig`].
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Session, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(ClientError::Protocol("no socket address resolved".to_string()));
        }
        let lineage = if config.reconnect { derive_lineage() } else { 0 };
        let mut session = Session {
            conn: None,
            addrs,
            lineage,
            tokens: false,
            next_token: 0,
            connected_once: false,
            stats: ClientStats::default(),
            rng: lineage | 0x9E37_79B9_7F4A_7C15,
            config,
        };
        session.redial()?;
        Ok(session)
    }

    /// Wraps an existing connection (no handshake, no reconnection — the
    /// session cannot re-dial an address it never knew).
    pub fn from_connection(conn: Connection) -> Session {
        Session {
            conn: Some(conn),
            addrs: Vec::new(),
            config: ClientConfig { handshake: false, ..ClientConfig::default() },
            lineage: 0,
            tokens: false,
            next_token: 0,
            connected_once: true,
            stats: ClientStats::default(),
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// The underlying connection, for explicit pipelining.
    ///
    /// # Panics
    ///
    /// Panics if the connection previously died and has not been re-dialed
    /// by a [`Session`] verb since.
    pub fn connection(&mut self) -> &mut Connection {
        self.conn.as_mut().expect("session connection is down; issue a request to reconnect")
    }

    /// The session's recovery counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Whether the live connection negotiated request tokens.
    pub fn tokens_negotiated(&self) -> bool {
        self.tokens
    }

    /// Resolves a table name to an id, creating the table if missing.
    pub fn open_table(&mut self, name: &str) -> Result<u32, ClientError> {
        match self.call(Request::OpenTable { name: name.to_string() })? {
            Response::TableId { id } => Ok(id),
            other => Err(unexpected("TableId", &other)),
        }
    }

    /// Reads one key (a single-operation transaction).
    pub fn get(&mut self, table: u32, key: &[u8]) -> Result<Option<Vec<u8>>, ClientError> {
        match self.call(Request::Get { table, key: key.to_vec() })? {
            Response::Value { value } => Ok(value),
            other => Err(unexpected("Value", &other)),
        }
    }

    /// Upserts one key. `Ok(())` means *durably committed* when the server
    /// runs with a durability subsystem.
    pub fn put(&mut self, table: u32, key: &[u8], value: &[u8]) -> Result<(), ClientError> {
        match self.call(Request::Put {
            table,
            key: key.to_vec(),
            value: value.to_vec(),
        })? {
            Response::Ok => Ok(()),
            other => Err(unexpected("Ok", &other)),
        }
    }

    /// Inserts one key; a duplicate key surfaces as a typed `Aborted` error.
    pub fn insert(&mut self, table: u32, key: &[u8], value: &[u8]) -> Result<(), ClientError> {
        match self.call(Request::Insert {
            table,
            key: key.to_vec(),
            value: value.to_vec(),
        })? {
            Response::Ok => Ok(()),
            other => Err(unexpected("Ok", &other)),
        }
    }

    /// Deletes one key (idempotent).
    pub fn delete(&mut self, table: u32, key: &[u8]) -> Result<(), ClientError> {
        match self.call(Request::Delete { table, key: key.to_vec() })? {
            Response::Ok => Ok(()),
            other => Err(unexpected("Ok", &other)),
        }
    }

    /// Range scan `[start, end)`, at most `limit` entries (`None` = all).
    pub fn scan(
        &mut self,
        table: u32,
        start: &[u8],
        end: Option<&[u8]>,
        limit: Option<u32>,
    ) -> Result<ScanEntries, ClientError> {
        match self.call(Request::Scan {
            table,
            start: start.to_vec(),
            end: end.map(<[u8]>::to_vec),
            limit: limit.unwrap_or(0),
        })? {
            Response::Entries { entries } => Ok(entries),
            other => Err(unexpected("Entries", &other)),
        }
    }

    /// Executes a multi-operation transaction atomically on the server and
    /// returns the values observed by its `get`s, in operation order. If the
    /// transaction wrote, success means the writes are durable.
    ///
    /// ```no_run
    /// # use silo_client::{Session, TxnBuilder};
    /// # let mut session = Session::connect("127.0.0.1:4000").unwrap();
    /// # let accounts = session.open_table("accounts").unwrap();
    /// let reads = session.transact(
    ///     TxnBuilder::new()
    ///         .get(accounts, b"alice")
    ///         .put(accounts, b"bob", b"250"),
    /// ).unwrap();
    /// let alice = reads[0].as_deref();
    /// # let _ = alice;
    /// ```
    pub fn transact(&mut self, txn: TxnBuilder) -> Result<Vec<Option<Vec<u8>>>, ClientError> {
        match self.call(Request::Txn { ops: txn.ops })? {
            Response::TxnOk { reads } => Ok(reads),
            other => Err(unexpected("TxnOk", &other)),
        }
    }

    /// Probes the server's durability health.
    pub fn health(&mut self) -> Result<HealthReport, ClientError> {
        match self.call(Request::Health)? {
            Response::Health { health, lag_epochs, durable_epoch, global_epoch } => {
                Ok(HealthReport { health, lag_epochs, durable_epoch, global_epoch })
            }
            other => Err(unexpected("Health", &other)),
        }
    }

    // -- the resilience core ------------------------------------------------

    /// Issues one request through the session's full retry/reconnect/replay
    /// machinery. Writes are wrapped in a fresh request token when the
    /// handshake negotiated tokens, making their replay after a reconnect
    /// exactly-once.
    fn call(&mut self, req: Request) -> Result<Response, ClientError> {
        let is_write = req.is_write();
        let req = if is_write && self.tokens {
            self.next_token += 1;
            Request::Tokenized { token: self.next_token, req: Box::new(req) }
        } else {
            req
        };
        let tokenized = matches!(req, Request::Tokenized { .. });
        let policy = self.config.retry.clone();
        let mut attempt: u32 = 0;
        let mut backoff = policy.initial_backoff.max(Duration::from_millis(1));
        loop {
            let (err, sent) = match self.try_call(&req) {
                Ok(resp) => return Ok(resp),
                Err(pair) => pair,
            };
            if err.is_transport() {
                self.conn = None;
            }
            let degraded = matches!(err.server_code(), Some(ErrorCode::DurabilityDegraded));
            let retryable = match &err {
                ClientError::Server(se) => matches!(
                    se.code,
                    ErrorCode::Aborted | ErrorCode::ServerBusy | ErrorCode::DurabilityDegraded
                ),
                _ if !sent => self.config.reconnect,
                _ if !is_write || tokenized => self.config.reconnect,
                _ => {
                    // An untokenized write died in flight: its outcome is
                    // unknowable and a blind retry could double-apply. Only
                    // surface the typed uncertainty when this session would
                    // otherwise have retried — a plain session keeps the
                    // plain transport error.
                    if self.config.reconnect {
                        self.stats.ack_unknown += 1;
                        return Err(ClientError::AckUnknown(Box::new(err)));
                    }
                    false
                }
            };
            if !retryable || attempt >= policy.max_retries {
                return Err(err);
            }
            attempt += 1;
            self.stats.retries += 1;
            if degraded && !policy.wait_for_health.is_zero() {
                self.await_health(policy.wait_for_health);
            } else {
                self.sleep_backoff(&mut backoff, &policy);
            }
        }
    }

    /// One attempt: ensure a live (handshaken) connection, then call.
    /// The error carries whether the request may have reached the server.
    fn try_call(&mut self, req: &Request) -> Result<Response, (ClientError, bool)> {
        if self.conn.is_none() {
            self.redial().map_err(|e| (e, false))?;
        }
        let conn = self.conn.as_mut().expect("redial populated the connection");
        conn.call(req).map_err(|e| (e, true))
    }

    /// Dials (or re-dials) and re-runs the handshake.
    fn redial(&mut self) -> Result<(), ClientError> {
        if self.addrs.is_empty() {
            // A `from_connection` session has no address to return to.
            return Err(ClientError::Closed);
        }
        let mut conn = Connection::connect_addrs(&self.addrs, &self.config)?;
        if self.config.handshake {
            // Only a reconnecting session has a lineage to key replays by.
            let want = if self.config.reconnect { FEATURE_REQUEST_TOKENS } else { 0 };
            let granted = conn.hello(self.lineage, want)?;
            self.tokens = granted & want != 0;
        }
        if self.connected_once {
            self.stats.reconnects += 1;
        }
        self.connected_once = true;
        self.conn = Some(conn);
        Ok(())
    }

    /// Polls the server's health until it reports `Healthy` or the budget
    /// runs out (used before retrying a `DurabilityDegraded` shed).
    fn await_health(&mut self, budget: Duration) {
        let deadline = Instant::now() + budget;
        loop {
            if let Ok(Response::Health { health: HealthStatus::Healthy, .. }) =
                self.try_call(&Request::Health).map_err(|(e, _)| {
                    if e.is_transport() {
                        self.conn = None;
                    }
                    e
                })
            {
                return;
            }
            if Instant::now() >= deadline {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn sleep_backoff(&mut self, backoff: &mut Duration, policy: &RetryPolicy) {
        let mut sleep = *backoff;
        if policy.jitter {
            // Jitter within [backoff/2, backoff].
            let r = xorshift(&mut self.rng);
            let half = sleep / 2;
            let span_micros = half.as_micros().max(1) as u64;
            sleep = half + Duration::from_micros(r % span_micros);
        }
        std::thread::sleep(sleep);
        *backoff = (*backoff * 2).min(policy.max_backoff.max(policy.initial_backoff));
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted} response, got {got:?}"))
}

/// Builds the operation list for [`Session::transact`].
#[derive(Debug, Default, Clone)]
pub struct TxnBuilder {
    ops: Vec<TxnOp>,
}

impl TxnBuilder {
    /// An empty transaction.
    pub fn new() -> TxnBuilder {
        TxnBuilder::default()
    }

    /// Adds a read; its result lands in the corresponding slot of the
    /// vector [`Session::transact`] returns.
    pub fn get(mut self, table: u32, key: &[u8]) -> Self {
        self.ops.push(TxnOp::Get { table, key: key.to_vec() });
        self
    }

    /// Adds an upsert.
    pub fn put(mut self, table: u32, key: &[u8], value: &[u8]) -> Self {
        self.ops.push(TxnOp::Put { table, key: key.to_vec(), value: value.to_vec() });
        self
    }

    /// Adds an insert (duplicate key aborts the whole transaction).
    pub fn insert(mut self, table: u32, key: &[u8], value: &[u8]) -> Self {
        self.ops.push(TxnOp::Insert { table, key: key.to_vec(), value: value.to_vec() });
        self
    }

    /// Adds a delete.
    pub fn delete(mut self, table: u32, key: &[u8]) -> Self {
        self.ops.push(TxnOp::Delete { table, key: key.to_vec() });
        self
    }

    /// The operations queued so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}
