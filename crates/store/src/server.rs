//! Event-driven multi-client TCP query server.
//!
//! One *reactor* thread owns every socket: a nonblocking `poll(2)` loop
//! (see [`crate::reactor`]) drives accepts, per-connection state
//! machines for the 4-byte length-framed protocol — partial reads,
//! partial writes, write backpressure, idle timeouts — and the
//! replication streams. Requests are handed to a small evaluator worker
//! pool over a queue, so a slow query never stalls the event loop, and
//! each connection has at most one request in flight at a time, which
//! is what keeps responses in request order. The old thread-per-
//! connection server capped simultaneous clients at the evaluator's
//! thread budget; the reactor holds thousands of connections open while
//! the same small pool does the actual evaluation.
//!
//! ## Connection state machine
//!
//! ```text
//!             read gated while pending full or write buffer over cap
//!                 ┌──────────────────────────────────────────┐
//!                 v                                          │
//!   accept → [reading frames] → pending queue → [in-flight] ─┤
//!                 │     ACK (repl conns)             │ reply │
//!                 │ REPL                             v       │
//!                 └────→ [streaming WAL records] → write buf ┘
//!                                                    │ drained & close-requested
//!                                                    v
//!                                                  close
//! ```
//!
//! Backpressure: a connection whose write buffer exceeds
//! [`WRITE_BUF_CAP`] stops being read and stops dispatching queued
//! requests (counted once per stall in the `backpressure_stalls`
//! counter) until the peer drains it; a replication stream simply stops
//! pumping until there is room. Shutdown is a wake-token flip — no
//! loopback self-connect, no acceptor poke.
//!
//! ## Request lifecycle: deadlines and load shedding
//!
//! `QUERY`/`EXPLAIN` may carry a client deadline and budgets (the
//! wire's `@deadline_ms=…` options). The lifecycle enforces them at
//! three points:
//!
//! 1. **Admission (reactor)** — before a request is handed to the
//!    pool, the reactor projects its queue wait from the current depth
//!    and a calibrated per-job service-time EWMA; when the projection
//!    alone exceeds the request's deadline, or the queue is past its
//!    high-water mark, the request is shed *immediately* with a typed
//!    `ERR OVERLOADED retry_after_ms=…` (counted in `shed_overload`).
//! 2. **Dequeue (worker)** — a request whose deadline elapsed while it
//!    sat in the queue is answered `ERR DEADLINE_EXCEEDED` without
//!    evaluating (never spend cycles on dead work; counted in
//!    `expired_deadline`). Otherwise the per-request guard deadline is
//!    `min(client deadline − queue wait, `[`SERVER_DEADLINE_CAP`]`)`,
//!    and the planner's cost estimate × a calibrated ns-per-cost-unit
//!    EWMA projects completion: a request that cannot finish in time
//!    (unless it is a `QUERY` whose answer already sits in the prepared
//!    cache) is shed here too.
//! 3. **Completion** — a successful reply that still slipped past the
//!    client's deadline (scheduling skew) increments `served_late`.
//!
//! ## Replication
//!
//! A replica's connection upgrades with the `REPL <last_seq>` verb: the
//! reactor answers `OK repl <seq>` and from then on pushes binary
//! frames — sealed WAL records from [`Store::repl_backlog`] (group-
//! commit batches forwarded verbatim), or a full checkpoint when the
//! replica is too far behind — and parses `ACK <seq>` frames coming
//! back to maintain the `repl_lag` gauge (primary seq − slowest replica
//! seq). A store commit watcher pokes the wake token, so records flow
//! the moment a batch publishes instead of on the next poll tick.

use crate::reactor::{self, PollFd, WakeReader, WakeToken, POLLERR, POLLHUP, POLLIN, POLLOUT};
use crate::store::{ReplBacklog, Store, StoreError};
use crate::wire::{self, QueryOpts, Request};
use dco_analysis::cost;
use dco_core::guard::GuardLimits;
use dco_encoding::relation_from_json_str;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A connection whose write buffer holds more than this many bytes is
/// backpressured: no more reads, no more dispatch, no more replication
/// pumping until the peer drains it.
pub const WRITE_BUF_CAP: usize = 1 << 20;

/// Maximum parsed-but-undispatched requests buffered per connection
/// before reads are gated (bounds memory under pipelining abuse).
const PENDING_CAP: usize = 256;

/// Soft per-tick read budget per connection: fairness, not a limit.
const RBUF_SOFT_CAP: usize = 1 << 20;

/// Idle connections (no traffic, nothing queued, not a replication
/// stream) are closed after this long.
const IDLE_TIMEOUT: Duration = Duration::from_secs(300);

/// Poll tick: upper bound on how stale the idle sweep and any missed
/// wakeup can get. Readiness and wake-token events interrupt it.
const POLL_TICK_MS: i32 = 100;

/// Server-side cap on any single evaluation's wall clock. Every query
/// runs under `min(client deadline − queue wait, this cap)` — a client
/// that sends no deadline still cannot pin a worker forever.
pub const SERVER_DEADLINE_CAP: Duration = Duration::from_secs(30);

/// Queue high-water mark, per worker: past `workers × this`, new
/// queries are shed with `OVERLOADED` regardless of their deadline.
/// This is the last-ditch guard against a runaway queue, not the
/// primary shedding signal (deadline projection is) — it sits well
/// above the reactor's documented burst scale (a thousand simultaneous
/// connections, one in-flight request each), which must queue, not
/// shed.
const HIGH_WATER_PER_WORKER: u64 = 1024;

/// Max sealed records fetched from the backlog per replication frame.
const REPL_CHUNK: usize = 256;

/// Soft byte budget per replication batch frame (a single oversized
/// record still goes out alone).
const REPL_BATCH_BYTES: usize = 1 << 20;

fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(unix)]
fn os_fd<T: std::os::fd::AsRawFd>(t: &T) -> reactor::OsFd {
    t.as_raw_fd()
}

#[cfg(not(unix))]
fn os_fd<T>(_t: &T) -> reactor::OsFd {
    -1
}

/// Serving/replication counters, shared between the reactor, the worker
/// pool, and `STATS` rendering. The metric handles register into the
/// served store's registry, so a `METRICS` scrape covers the serving
/// layer alongside the store's own instruments.
pub(crate) struct ServeCounters {
    conns_open: AtomicU64,
    conns_total: AtomicU64,
    queued: AtomicU64,
    backpressure_stalls: AtomicU64,
    repl_streams: AtomicU64,
    repl_lag: AtomicU64,
    repl_bytes: AtomicU64,
    /// Requests shed with `OVERLOADED` (admission or cost projection).
    shed_overload: AtomicU64,
    /// Requests whose deadline elapsed in the queue (never evaluated).
    expired_deadline: AtomicU64,
    /// Successful replies that still slipped past their deadline.
    served_late: AtomicU64,
    /// Worker-pool size, for queue-wait projection.
    workers: AtomicU64,
    /// EWMA of per-job service time in ns (all verbs).
    ewma_job_ns: AtomicU64,
    /// EWMA of evaluation ns per planner cost unit (calibration for the
    /// cost-aware shed decision); 0 = not yet calibrated.
    ewma_cost_ns: AtomicU64,
    /// Server start instant, for `VERSION` uptime.
    started: Instant,
    /// `server.requests` — jobs dequeued by the worker pool. Recorded at
    /// the same site as `h_queue_wait`, so the counter always equals the
    /// queue-wait histogram's total count.
    requests: Arc<dco_obs::Counter>,
    /// `server.queue_wait` — ns each job waited before a worker took it.
    h_queue_wait: Arc<dco_obs::Histogram>,
    /// `server.eval` — ns a worker spent computing each reply.
    h_eval: Arc<dco_obs::Histogram>,
    /// `server.repl.lag` — commit seqs the slowest replica trails by,
    /// sampled once per reactor tick while any stream is attached (a
    /// *seq* histogram, not a latency one).
    h_repl_lag: Arc<dco_obs::Histogram>,
    /// `server.backpressure.stall` — ns each gated connection spent
    /// stalled before dispatch resumed.
    h_stall: Arc<dco_obs::Histogram>,
}

impl ServeCounters {
    fn new(registry: &dco_obs::Registry) -> ServeCounters {
        ServeCounters {
            conns_open: AtomicU64::new(0),
            conns_total: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            backpressure_stalls: AtomicU64::new(0),
            repl_streams: AtomicU64::new(0),
            repl_lag: AtomicU64::new(0),
            repl_bytes: AtomicU64::new(0),
            shed_overload: AtomicU64::new(0),
            expired_deadline: AtomicU64::new(0),
            served_late: AtomicU64::new(0),
            workers: AtomicU64::new(0),
            ewma_job_ns: AtomicU64::new(0),
            ewma_cost_ns: AtomicU64::new(0),
            started: Instant::now(),
            requests: registry.counter("server.requests"),
            h_queue_wait: registry.histogram("server.queue_wait"),
            h_eval: registry.histogram("server.eval"),
            h_repl_lag: registry.histogram("server.repl.lag"),
            h_stall: registry.histogram("server.backpressure.stall"),
        }
    }
}

impl Default for ServeCounters {
    /// Counters wired to a private throwaway registry — for tests and
    /// in-process callers that never scrape `METRICS`.
    fn default() -> ServeCounters {
        ServeCounters::new(&dco_obs::Registry::new())
    }
}

/// Decaying average with 1/8 gain; the first sample seeds it outright.
/// Relaxed load/store races can drop an update — these are heuristics,
/// not ledgers.
fn ewma_update(cell: &AtomicU64, sample: u64) {
    let old = cell.load(Ordering::Relaxed);
    let new = if old == 0 {
        sample
    } else {
        old - old / 8 + sample / 8
    };
    cell.store(new.max(1), Ordering::Relaxed);
}

/// Suggested client backoff: the projected time for the current queue
/// to drain (plus `floor` for cost-shed requests), clamped to [1 ms, 5 s].
fn retry_hint(counters: &ServeCounters, floor: Duration) -> u64 {
    let queued = counters.queued.load(Ordering::Relaxed);
    let workers = counters.workers.load(Ordering::Relaxed).max(1);
    let drain_ms =
        queued.saturating_mul(counters.ewma_job_ns.load(Ordering::Relaxed)) / workers / 1_000_000;
    drain_ms.max(floor.as_millis() as u64).clamp(1, 5_000)
}

/// The reactor-side shed decision, made before a query is queued: shed
/// when the queue is past its high-water mark, or when the projected
/// queue wait alone already exceeds the request's whole deadline. Cheap
/// on purpose — two atomic loads — because it runs on the event loop.
fn admission_shed(opts: &QueryOpts, counters: &ServeCounters) -> Option<StoreError> {
    let queued = counters.queued.load(Ordering::Relaxed);
    let workers = counters.workers.load(Ordering::Relaxed).max(1);
    if queued >= workers.saturating_mul(HIGH_WATER_PER_WORKER) {
        return Some(StoreError::Overloaded {
            retry_after_ms: retry_hint(counters, Duration::ZERO),
        });
    }
    if let Some(d) = opts.deadline_ms {
        let wait_ms = queued.saturating_mul(counters.ewma_job_ns.load(Ordering::Relaxed))
            / workers
            / 1_000_000;
        if wait_ms >= d {
            return Some(StoreError::Overloaded {
                retry_after_ms: retry_hint(counters, Duration::ZERO),
            });
        }
    }
    None
}

/// One request handed to the worker pool: (connection id, command line,
/// enqueue instant — the queue-wait clock for deadline propagation).
type Job = (u64, String, Instant);

/// One finished request: (connection id, reply, close-after-reply).
type Completion = (u64, String, bool);

/// Shared state between the reactor and the evaluator workers.
struct JobQueue {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
    completions: Mutex<Vec<Completion>>,
    stop: AtomicBool,
}

impl JobQueue {
    fn push(&self, job: Job) {
        plock(&self.jobs).push_back(job);
        self.available.notify_one();
    }

    fn pop(&self) -> Option<Job> {
        let mut jobs = plock(&self.jobs);
        loop {
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
            jobs = self.available.wait(jobs).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn complete(&self, done: Completion) {
        plock(&self.completions).push(done);
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.available.notify_all();
    }
}

/// Per-connection replication state: the next seq to stream and the
/// last seq the replica acknowledged.
struct ReplConn {
    next_seq: u64,
    acked_seq: u64,
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    pending: VecDeque<String>,
    in_flight: bool,
    closed_read: bool,
    close_after_flush: bool,
    /// When dispatch last gated on backpressure: set the moment a
    /// pending request could not be queued because the write buffer was
    /// over its cap, cleared (and its duration recorded) when the
    /// reactor unstalls the connection.
    stalled_since: Option<Instant>,
    last_active: Instant,
    repl: Option<ReplConn>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            pending: VecDeque::new(),
            in_flight: false,
            closed_read: false,
            close_after_flush: false,
            stalled_since: None,
            last_active: Instant::now(),
            repl: None,
        }
    }

    /// Unflushed bytes queued for the peer.
    fn buffered(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Over the backpressure threshold: stop reading and dispatching.
    fn gated(&self) -> bool {
        self.buffered() >= WRITE_BUF_CAP
    }

    fn wants_read(&self) -> bool {
        !self.closed_read
            && !self.close_after_flush
            && !self.gated()
            && self.pending.len() < PENDING_CAP
    }

    fn wants_write(&self) -> bool {
        self.buffered() > 0
    }

    /// Nothing left to do for this peer.
    fn is_done(&self) -> bool {
        if self.close_after_flush && self.buffered() == 0 {
            return true;
        }
        self.closed_read
            && self.buffered() == 0
            && !self.in_flight
            && self.pending.is_empty()
            && self.repl.is_none()
    }

    /// Frame a reply (text or binary) onto the write buffer.
    fn push_frame(&mut self, payload: &[u8]) -> Result<(), ()> {
        if payload.len() > wire::MAX_FRAME {
            return Err(());
        }
        self.wbuf
            .extend_from_slice(&(payload.len() as u32).to_be_bytes());
        self.wbuf.extend_from_slice(payload);
        Ok(())
    }

    /// Nonblocking read into `rbuf`. Returns `Ok(true)` at EOF.
    fn fill(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 16 * 1024];
        let start = self.rbuf.len();
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(true),
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    self.last_active = Instant::now();
                    if self.rbuf.len() - start >= RBUF_SOFT_CAP {
                        return Ok(false); // yield to other connections
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Nonblocking flush of the write buffer.
    fn flush(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wpos += n;
                    self.last_active = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > RBUF_SOFT_CAP {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        Ok(())
    }
}

/// Handle to a running server. Dropping it does *not* stop the server;
/// call [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    wake: Arc<WakeToken>,
    reactor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the reactor and join it. In-flight requests finish in the
    /// worker pool (writes are acknowledged durable before any reply is
    /// sent), but their connections are closed without the final reply.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.notify();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish()
    }
}

/// Serve `store` on `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
/// Returns once the listener is bound; the reactor and its evaluator
/// worker pool run on background threads until [`ServerHandle::shutdown`].
pub fn serve(store: Store, addr: &str) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let (wake, wake_reader) = reactor::wake_pair()?;

    let reactor = {
        let stop = stop.clone();
        let wake = wake.clone();
        std::thread::spawn(move || {
            reactor_loop(store, listener, stop, wake, wake_reader);
        })
    };

    Ok(ServerHandle {
        addr: bound,
        stop,
        wake,
        reactor: Some(reactor),
    })
}

/// Spawn the evaluator worker pool: a few threads draining the job
/// queue through [`respond_ctx`], one per available CPU and at least
/// two — the reactor multiplexes any number of connections onto it.
/// Each request is evaluated on the worker that dequeued it.
fn spawn_workers(
    store: &Store,
    jobs: &Arc<JobQueue>,
    counters: &Arc<ServeCounters>,
    wake: &Arc<WakeToken>,
) -> Vec<JoinHandle<()>> {
    let n = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .max(2);
    counters.workers.store(n as u64, Ordering::Relaxed);
    (0..n)
        .map(|_| {
            let store = store.clone();
            let jobs = jobs.clone();
            let counters = counters.clone();
            let wake = wake.clone();
            std::thread::spawn(move || {
                while let Some((conn_id, line, enqueued)) = jobs.pop() {
                    // One dequeue = one request served: the counter and
                    // the queue-wait sample move together, so scrapes
                    // can assert `requests == queue_wait count`. The
                    // wait is also handed to the tracing layer, where
                    // the store turns it into the leading span.
                    let waited = enqueued.elapsed();
                    counters.requests.inc();
                    counters.h_queue_wait.record_duration(waited);
                    dco_obs::trace::note_queue_wait(waited);
                    let started = Instant::now();
                    let (reply, close) =
                        respond_timed(&store, &line, Some(&counters), Some(enqueued));
                    let served = started.elapsed();
                    counters.h_eval.record_duration(served);
                    ewma_update(&counters.ewma_job_ns, served.as_nanos() as u64);
                    jobs.complete((conn_id, reply, close));
                    wake.notify();
                }
            })
        })
        .collect()
}

/// The reactor: the single thread that owns the listener, every
/// connection, and the wake pipe.
fn reactor_loop(
    store: Store,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    wake: Arc<WakeToken>,
    mut wake_reader: WakeReader,
) {
    let counters = Arc::new(ServeCounters::new(&store.registry()));
    let jobs = Arc::new(JobQueue {
        jobs: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        completions: Mutex::new(Vec::new()),
        stop: AtomicBool::new(false),
    });
    let workers = spawn_workers(&store, &jobs, &counters, &wake);
    // Committed batches wake the reactor so replication frames flow
    // immediately, not on the next poll tick.
    let watcher_id = store.on_commit({
        let wake = wake.clone();
        move |_| wake.notify()
    });

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 1;

    loop {
        // Registration set: wake pipe, listener, then every connection.
        let mut fds = Vec::with_capacity(conns.len() + 2);
        fds.push(PollFd::new(wake_reader.fd(), POLLIN));
        fds.push(PollFd::new(os_fd(&listener), POLLIN));
        let mut order = Vec::with_capacity(conns.len());
        for (&id, c) in conns.iter() {
            let mut events = 0i16;
            if c.wants_read() {
                events |= POLLIN;
            }
            if c.wants_write() {
                events |= POLLOUT;
            }
            order.push(id);
            fds.push(PollFd::new(os_fd(&c.stream), events));
        }
        if reactor::poll(&mut fds, POLL_TICK_MS).is_err() {
            break; // poll itself failing is unrecoverable
        }
        if fds[0].ready(POLLIN) {
            wake_reader.drain(&wake);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }

        let mut dead: Vec<u64> = Vec::new();

        // Finished evaluations: frame the reply, dispatch the next
        // queued request on that connection.
        let done = std::mem::take(&mut *plock(&jobs.completions));
        for (id, reply, close) in done {
            counters.queued.fetch_sub(1, Ordering::Relaxed);
            let Some(conn) = conns.get_mut(&id) else {
                continue; // connection died while the request ran
            };
            conn.in_flight = false;
            if conn.push_frame(reply.as_bytes()).is_err() {
                dead.push(id);
                continue;
            }
            if close {
                conn.close_after_flush = true;
                conn.pending.clear();
            } else {
                dispatch(&store, conn, id, &jobs, &counters);
            }
        }

        // New connections: accept until the backlog is dry.
        if fds[1].ready(POLLIN) {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        conns.insert(next_id, Conn::new(stream));
                        next_id += 1;
                        counters.conns_open.fetch_add(1, Ordering::Relaxed);
                        counters.conns_total.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
        }

        // Readable connections: pull bytes, pop frames, queue requests.
        for (i, &id) in order.iter().enumerate() {
            let pfd = &fds[i + 2];
            if !pfd.ready(POLLIN | POLLHUP | POLLERR) {
                continue;
            }
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            if pfd.ready(POLLERR) {
                dead.push(id);
                continue;
            }
            if !conn.wants_read() {
                continue;
            }
            match conn.fill() {
                Ok(eof) => conn.closed_read |= eof,
                Err(_) => {
                    dead.push(id);
                    continue;
                }
            }
            if drain_frames(&store, conn, id, &jobs, &counters).is_err() {
                dead.push(id);
            }
        }

        // Replication: push whatever each stream is owed, within its
        // write budget; recompute the lag gauge.
        pump_replication(&store, &mut conns, &counters, &mut dead);

        // Flush + lifecycle sweep. Opportunistic write on every
        // connection with buffered output (not just POLLOUT-flagged
        // ones): a freshly framed reply almost always fits the socket
        // buffer, and waiting a tick would add up to 100 ms latency.
        let now = Instant::now();
        for (&id, conn) in conns.iter_mut() {
            if conn.wants_write() && conn.flush().is_err() {
                dead.push(id);
                continue;
            }
            if let Some(since) = conn.stalled_since {
                if !conn.gated() {
                    counters.h_stall.record_duration(since.elapsed());
                    conn.stalled_since = None;
                    dispatch(&store, conn, id, &jobs, &counters);
                }
            }
            let idle = conn.repl.is_none()
                && !conn.in_flight
                && conn.pending.is_empty()
                && conn.buffered() == 0
                && now.duration_since(conn.last_active) > IDLE_TIMEOUT;
            if conn.is_done() || idle {
                dead.push(id);
            }
        }

        for id in dead {
            if let Some(conn) = conns.remove(&id) {
                counters.conns_open.fetch_sub(1, Ordering::Relaxed);
                if conn.repl.is_some() {
                    counters.repl_streams.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }

    store.remove_commit_watcher(watcher_id);
    drop(conns); // RST/close every socket before the workers drain
    jobs.shutdown();
    for w in workers {
        let _ = w.join();
    }
}

/// Pop every complete frame from `conn.rbuf` and route it: `ACK`s on
/// replication streams update the acked seq; everything else joins the
/// pending request queue. `Err` means protocol violation → close.
fn drain_frames(
    store: &Store,
    conn: &mut Conn,
    id: u64,
    jobs: &Arc<JobQueue>,
    counters: &Arc<ServeCounters>,
) -> Result<(), ()> {
    loop {
        let frame = match wire::take_frame(&mut conn.rbuf) {
            Ok(Some(f)) => f,
            Ok(None) => return Ok(()),
            Err(_) => return Err(()),
        };
        let Ok(text) = String::from_utf8(frame) else {
            return Err(()); // requests and ACKs are text; binary is ours to send
        };
        if conn.repl.is_some() {
            let Some(repl) = conn.repl.as_mut() else {
                return Err(());
            };
            match text.trim().strip_prefix("ACK ") {
                Some(rest) => match rest.trim().parse::<u64>() {
                    Ok(seq) => repl.acked_seq = repl.acked_seq.max(seq),
                    Err(_) => return Err(()),
                },
                None => return Err(()), // a replica speaks only ACK
            }
            continue;
        }
        if conn.pending.len() >= PENDING_CAP {
            return Err(()); // peer ignored the read gate by miles
        }
        conn.pending.push_back(text);
        dispatch(store, conn, id, jobs, counters);
    }
}

/// Move queued requests toward the worker pool: at most one in flight
/// per connection (response order == request order), none while the
/// write buffer is over its cap. `HELLO` and `REPL` never reach the
/// pool — they are connection-state transitions the reactor answers
/// inline, in queue order.
fn dispatch(
    store: &Store,
    conn: &mut Conn,
    id: u64,
    jobs: &Arc<JobQueue>,
    counters: &Arc<ServeCounters>,
) {
    while !conn.in_flight && !conn.close_after_flush && conn.repl.is_none() {
        if conn.gated() {
            if conn.stalled_since.is_none() && !conn.pending.is_empty() {
                conn.stalled_since = Some(Instant::now());
                counters.backpressure_stalls.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        let Some(line) = conn.pending.pop_front() else {
            return;
        };
        match wire::parse_request(&line) {
            Ok(Request::Hello(proto, codec)) => {
                let ours = (wire::PROTOCOL_VERSION, crate::codec::FORMAT_VERSION);
                if (proto, codec) == ours {
                    let reply = format!("OK {proto} {codec}");
                    let _ = conn.push_frame(reply.as_bytes());
                } else {
                    let err = StoreError::VersionMismatch {
                        ours,
                        theirs: (proto, codec),
                    };
                    let _ = conn.push_frame(format!("ERR {err}").as_bytes());
                    conn.close_after_flush = true;
                    conn.pending.clear();
                    return;
                }
            }
            Ok(Request::Repl(last_seq)) => {
                // The OK carries our current seq; the stream itself is
                // pushed by the replication pump.
                let reply = format!("OK repl {}", store.read().seq);
                let _ = conn.push_frame(reply.as_bytes());
                conn.repl = Some(ReplConn {
                    next_seq: last_seq + 1,
                    acked_seq: last_seq,
                });
                conn.pending.clear(); // a replica sends no further requests
                counters.repl_streams.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Ok(Request::Query(opts, _)) | Ok(Request::Explain(opts, _)) => {
                // Cost-aware admission: shed now, with a typed reply and
                // a retry hint, rather than queue work that cannot make
                // its deadline. Shed replies keep request order — the
                // loop only runs while nothing is in flight.
                if let Some(err) = admission_shed(&opts, counters) {
                    counters.shed_overload.fetch_add(1, Ordering::Relaxed);
                    if conn.push_frame(format!("ERR {err}").as_bytes()).is_err() {
                        conn.close_after_flush = true;
                        return;
                    }
                    continue;
                }
                conn.in_flight = true;
                counters.queued.fetch_add(1, Ordering::Relaxed);
                jobs.push((id, line, Instant::now()));
                return;
            }
            _ => {
                // Everything else (including parse errors, which the
                // worker turns into `ERR …`) evaluates off-thread.
                conn.in_flight = true;
                counters.queued.fetch_add(1, Ordering::Relaxed);
                jobs.push((id, line, Instant::now()));
                return;
            }
        }
    }
}

/// Stream backlog to every replication connection with write-buffer
/// room, then refresh the lag gauge.
fn pump_replication(
    store: &Store,
    conns: &mut HashMap<u64, Conn>,
    counters: &Arc<ServeCounters>,
    dead: &mut Vec<u64>,
) {
    let mut have_repl = false;
    let mut min_acked = u64::MAX;
    for (&id, conn) in conns.iter_mut() {
        if conn.repl.is_none() {
            continue;
        }
        have_repl = true;
        if pump_one(store, conn, counters).is_err() {
            dead.push(id);
            continue;
        }
        if let Some(repl) = conn.repl.as_ref() {
            min_acked = min_acked.min(repl.acked_seq);
        }
    }
    let lag = if have_repl && min_acked != u64::MAX {
        store.read().seq.saturating_sub(min_acked)
    } else {
        0
    };
    counters.repl_lag.store(lag, Ordering::Relaxed);
    if have_repl {
        // One lag sample per reactor tick with streams attached: the
        // histogram shows the lag *distribution* over time, while the
        // gauge above keeps only the latest value.
        counters.h_repl_lag.record(lag);
    }
}

/// Push frames at one replication connection until it is caught up or
/// its write buffer is full. `Err` = the stream is broken (replica from
/// a different history, or a frame that cannot be framed) → close.
fn pump_one(store: &Store, conn: &mut Conn, counters: &Arc<ServeCounters>) -> Result<(), ()> {
    loop {
        if conn.gated() {
            return Ok(());
        }
        let Some(next_seq) = conn.repl.as_ref().map(|r| r.next_seq) else {
            return Ok(());
        };
        if next_seq > store.read().seq {
            return Ok(()); // caught up
        }
        let advanced_to = match store.repl_backlog(next_seq, REPL_CHUNK) {
            Ok(ReplBacklog::Records { records, .. }) => {
                if records.is_empty() {
                    return Ok(());
                }
                // Records are contiguous from `next_seq`; include a
                // byte-budgeted prefix and advance by that many.
                let mut payload = vec![wire::REPL_FRAME_BATCH];
                let mut included = 0u64;
                for rec in &records {
                    if included > 0 && payload.len() + rec.len() > REPL_BATCH_BYTES {
                        break;
                    }
                    payload.extend_from_slice(rec);
                    included += 1;
                }
                conn.push_frame(&payload)?;
                counters
                    .repl_bytes
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                next_seq + included
            }
            Ok(ReplBacklog::Checkpoint { seq, bytes }) => {
                let mut payload = Vec::with_capacity(bytes.len() + 1);
                payload.push(wire::REPL_FRAME_CHECKPOINT);
                payload.extend_from_slice(&bytes);
                conn.push_frame(&payload)?;
                counters
                    .repl_bytes
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                seq + 1
            }
            Err(_) => return Err(()),
        };
        if let Some(repl) = conn.repl.as_mut() {
            repl.next_seq = advanced_to;
        }
    }
}

/// Compute the response for one request line. Pure with respect to the
/// connection: also the in-process entry point the tests use.
pub fn respond(store: &Store, line: &str) -> (String, bool) {
    respond_ctx(store, line, None)
}

/// [`respond`] with the serving counters in scope (the worker-pool
/// entry point): `STATS` then includes the serving/replication section.
fn respond_ctx(store: &Store, line: &str, serve: Option<&ServeCounters>) -> (String, bool) {
    respond_timed(store, line, serve, None)
}

/// Evaluate a `QUERY` (or, with `explain`, an `EXPLAIN`) under the
/// request's deadline/budget options; both run the same guarded
/// [`Store::query_formula_limited`] pipeline. `enqueued` (when known) is
/// the queue-wait clock: a request whose deadline elapsed while queued is
/// rejected without evaluating, and the evaluation guard gets the
/// *remaining* deadline, capped by [`SERVER_DEADLINE_CAP`]. With
/// calibrated cost data, a request whose projected evaluation cannot
/// finish in the remainder is shed instead of started (unless it is a
/// `QUERY` whose answer the prepared cache already holds).
fn run_read(
    store: &Store,
    opts: QueryOpts,
    src: &str,
    explain: bool,
    serve: Option<&ServeCounters>,
    enqueued: Option<Instant>,
) -> Result<String, StoreError> {
    let waited = enqueued.map_or(Duration::ZERO, |t| t.elapsed());
    if let Some(d) = opts.deadline_ms {
        if waited >= Duration::from_millis(d) {
            if let Some(c) = serve {
                c.expired_deadline.fetch_add(1, Ordering::Relaxed);
            }
            return Err(StoreError::DeadlineExceeded {
                elapsed_ms: waited.as_millis() as u64,
                limit_ms: d,
            });
        }
    }
    let budget = opts
        .deadline_ms
        .map_or(SERVER_DEADLINE_CAP, |d| {
            Duration::from_millis(d).saturating_sub(waited)
        })
        .min(SERVER_DEADLINE_CAP);
    let formula = dco_logic::parse_formula(src).map_err(|e| StoreError::Parse(e.to_string()))?;
    let est = store.estimate_query_cost(&formula);
    if let Some(c) = serve {
        let rate = c.ewma_cost_ns.load(Ordering::Relaxed);
        if rate > 0 && (explain || !store.has_prepared(&formula)) {
            let projected = cost::projected_eval_time(est, rate);
            if projected > budget {
                c.shed_overload.fetch_add(1, Ordering::Relaxed);
                return Err(StoreError::Overloaded {
                    retry_after_ms: retry_hint(c, projected.saturating_sub(budget)),
                });
            }
        }
    }
    let started = Instant::now();
    let mut limits = GuardLimits::none().with_deadline(budget);
    if let Some(n) = opts.max_tuples {
        limits = limits.with_max_tuples(n);
    }
    if let Some(n) = opts.max_atoms {
        limits = limits.with_max_atoms(n);
    }
    let out = store.query_formula_limited(&formula, limits, explain)?;
    if let Some(c) = serve {
        if !out.cached {
            let per_unit = started.elapsed().as_nanos() as f64 / est.max(1.0);
            ewma_update(&c.ewma_cost_ns, per_unit as u64);
        }
        if let Some(d) = opts.deadline_ms {
            let total = enqueued.map_or_else(|| started.elapsed(), |t| t.elapsed());
            if total > Duration::from_millis(d) {
                c.served_late.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    Ok(match &out.plan {
        Some(plan) => wire::explain_output_to_json(&out, plan),
        None => wire::query_output_to_json(&out),
    })
}

/// [`respond_ctx`] with the enqueue instant in scope — the full serving
/// path, including deadline expiry, cost-aware shedding, and late-reply
/// accounting for `QUERY`/`EXPLAIN`.
fn respond_timed(
    store: &Store,
    line: &str,
    serve: Option<&ServeCounters>,
    enqueued: Option<Instant>,
) -> (String, bool) {
    let request = match wire::parse_request(line) {
        Ok(r) => r,
        Err(e) => return (format!("ERR {e}"), false),
    };
    let reply = match request {
        Request::Hello(proto, codec) => {
            let ours = (wire::PROTOCOL_VERSION, crate::codec::FORMAT_VERSION);
            if (proto, codec) == ours {
                Ok(format!("{proto} {codec}"))
            } else {
                let err = StoreError::VersionMismatch {
                    ours,
                    theirs: (proto, codec),
                };
                return (format!("ERR {err}"), true);
            }
        }
        Request::Ping => Ok("pong".to_string()),
        Request::Close => return ("OK bye".to_string(), true),
        Request::Query(opts, src) => run_read(store, opts, &src, false, serve, enqueued),
        Request::Explain(opts, src) => run_read(store, opts, &src, true, serve, enqueued),
        Request::Create(name, arity) => store.create(&name, arity).map(|seq| seq.to_string()),
        Request::Drop(name) => store.drop_relation(&name).map(|seq| seq.to_string()),
        Request::Insert(name, body) => with_relation(&body, |rel| store.insert(&name, rel)),
        Request::Remove(name, body) => {
            with_relation(&body, |rel| store.remove_subsumed(&name, rel))
        }
        Request::Replace(name, body) => with_relation(&body, |rel| store.replace(&name, rel)),
        Request::Snapshot => store.snapshot().map(|bytes| bytes.to_string()),
        Request::Stats => Ok(stats_json(store, serve)),
        Request::Metrics => Ok(metrics_text(store, serve)),
        Request::Version => Ok(version_json(serve)),
        Request::Slowlog => Ok(slowlog_json(store)),
        Request::Repl(_) => Err(StoreError::Invalid(
            "REPL requires a streaming server connection".into(),
        )),
    };
    match reply {
        Ok(body) => (format!("OK {body}"), false),
        Err(e) => (format!("ERR {e}"), false),
    }
}

fn with_relation(
    body: &str,
    f: impl FnOnce(dco_core::prelude::GeneralizedRelation) -> Result<u64, StoreError>,
) -> Result<String, StoreError> {
    let rel = relation_from_json_str(body)
        .map_err(|e| StoreError::Invalid(format!("bad relation JSON: {e}")))?;
    f(rel).map(|seq| seq.to_string())
}

fn stats_json(store: &Store, serve: Option<&ServeCounters>) -> String {
    use dco_encoding::Json;
    let s = store.stats();
    let mut fields = vec![
        ("generation".into(), Json::Num(s.generation as f64)),
        ("relations".into(), Json::Num(s.relations as f64)),
        ("shards".into(), Json::Num(s.shards as f64)),
        ("commits".into(), Json::Num(s.commits as f64)),
        ("batches".into(), Json::Num(s.batches as f64)),
        ("fsyncs".into(), Json::Num(s.fsyncs as f64)),
        (
            "commit_batch_max".into(),
            Json::Num(s.commit_batch_max as f64),
        ),
        ("cache_hits".into(), Json::Num(s.cache_hits as f64)),
        ("cache_misses".into(), Json::Num(s.cache_misses as f64)),
        ("cache_entries".into(), Json::Num(s.cache_entries as f64)),
    ];
    if let Some(c) = serve {
        let n = |v: &AtomicU64| Json::Num(v.load(Ordering::Relaxed) as f64);
        fields.extend([
            ("conns_open".into(), n(&c.conns_open)),
            ("conns_total".into(), n(&c.conns_total)),
            ("queued_requests".into(), n(&c.queued)),
            ("backpressure_stalls".into(), n(&c.backpressure_stalls)),
            ("shed_overload".into(), n(&c.shed_overload)),
            ("expired_deadline".into(), n(&c.expired_deadline)),
            ("served_late".into(), n(&c.served_late)),
            ("repl_streams".into(), n(&c.repl_streams)),
            ("repl_lag".into(), n(&c.repl_lag)),
            ("repl_bytes".into(), n(&c.repl_bytes)),
        ]);
    }
    Json::Obj(fields).compact()
}

/// The `METRICS` exposition: mirror the serving/replication counters
/// into gauges on the store's registry (the counters predate the
/// registry and stay authoritative for `STATS`), then render the whole
/// registry — store write path, query path, WAL, and serving layer in
/// one scrape. Frames tolerate newlines, so the multi-line text rides
/// an ordinary `OK ` reply.
fn metrics_text(store: &Store, serve: Option<&ServeCounters>) -> String {
    if let Some(c) = serve {
        let r = store.registry();
        let g = |name: &str, v: &AtomicU64| r.set_gauge(name, v.load(Ordering::Relaxed));
        g("server.conns.open", &c.conns_open);
        g("server.conns.total", &c.conns_total);
        g("server.queued", &c.queued);
        g("server.backpressure.stalls", &c.backpressure_stalls);
        g("server.shed.overload", &c.shed_overload);
        g("server.expired.deadline", &c.expired_deadline);
        g("server.served.late", &c.served_late);
        g("server.repl.streams", &c.repl_streams);
        g("server.repl.lag_now", &c.repl_lag);
        g("server.repl.bytes", &c.repl_bytes);
        g("server.workers", &c.workers);
    }
    store.metrics_text()
}

/// The `VERSION` reply: what this server was built as and how long it
/// has been up. Uptime is 0 outside a serving context (in-process
/// `respond` calls have no server start instant).
fn version_json(serve: Option<&ServeCounters>) -> String {
    use dco_encoding::Json;
    let uptime_ms = serve.map_or(0, |c| c.started.elapsed().as_millis() as u64);
    Json::Obj(vec![
        (
            "version".into(),
            Json::Str(env!("CARGO_PKG_VERSION").into()),
        ),
        ("protocol".into(), Json::Num(wire::PROTOCOL_VERSION as f64)),
        (
            "format".into(),
            Json::Num(crate::codec::FORMAT_VERSION as f64),
        ),
        ("uptime_ms".into(), Json::Num(uptime_ms as f64)),
    ])
    .compact()
}

/// The `SLOWLOG` reply: the store's slow-query log as a JSON array,
/// oldest first, each entry carrying the rendered span tree and EXPLAIN
/// plan (multi-line strings, JSON-escaped).
fn slowlog_json(store: &Store) -> String {
    use dco_encoding::Json;
    Json::Arr(
        store
            .slow_queries()
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("ms".into(), Json::Num(e.total_ms())),
                    ("query".into(), Json::Str(e.query.clone())),
                    ("trace".into(), Json::Str(e.trace.clone())),
                    ("plan".into(), Json::Str(e.plan.clone())),
                ])
            })
            .collect(),
    )
    .compact()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::store::StoreOptions;
    use dco_core::prelude::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dco-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn respond_covers_the_command_surface() {
        let dir = tmpdir("respond");
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        let (r, _) = respond(&store, "PING");
        assert_eq!(r, "OK pong");
        let (r, _) = respond(&store, "CREATE r 2");
        assert_eq!(r, "OK 1");
        let rel = GeneralizedRelation::from_raw(
            2,
            vec![RawAtom::new(Term::var(0), RawOp::Lt, Term::var(1))],
        );
        let (r, _) = respond(
            &store,
            &format!("INSERT r {}", dco_encoding::relation_to_json_str(&rel)),
        );
        assert_eq!(r, "OK 2");
        let (r, _) = respond(&store, "QUERY r(x, y) & x < y");
        assert!(r.starts_with("OK {"), "got {r}");
        let out = wire::query_output_from_json(&r[3..]).unwrap();
        assert_eq!(out.generation, 2);
        assert_eq!(out.columns, vec!["x", "y"]);
        assert_eq!(out.relation, rel);
        let (r, _) = respond(&store, "QUERY r(x, y, z)");
        assert!(r.starts_with("ERR query rejected"), "got {r}");
        let (r, _) = respond(&store, "EXPLAIN r(x, y) & x < y");
        assert!(r.starts_with("OK {"), "got {r}");
        assert!(r.contains("\"est\":") && r.contains("\"act\":"), "got {r}");
        assert!(!r.contains("\"act\":-1"), "every node measured: {r}");
        let (r, _) = respond(&store, "EXPLAIN");
        assert!(r.starts_with("ERR"), "got {r}");
        let (r, _) = respond(&store, "STATS");
        assert!(r.contains("\"cache_misses\":1"), "got {r}");
        assert!(r.contains("\"shards\":"), "got {r}");
        assert!(r.contains("\"commits\":2"), "got {r}");
        assert!(r.contains("\"fsyncs\":"), "got {r}");
        assert!(r.contains("\"commit_batch_max\":1"), "got {r}");
        let (r, _) = respond(&store, "METRICS");
        assert!(
            r.starts_with("OK # TYPE") || r.starts_with("OK dco_"),
            "got {r}"
        );
        assert!(r.contains("dco_store_query_total_count"), "got {r}");
        let (r, _) = respond(&store, "VERSION");
        assert!(r.contains("\"protocol\":4"), "got {r}");
        assert!(r.contains("\"version\":"), "got {r}");
        assert!(r.contains("\"uptime_ms\":"), "got {r}");
        let (r, _) = respond(&store, "SLOWLOG");
        assert!(r.starts_with("OK ["), "got {r}");
        let (r, close) = respond(&store, "CLOSE");
        assert_eq!((r.as_str(), close), ("OK bye", true));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A deliberately slow query (threshold forced to zero) lands in the
    /// slow-query log carrying both the span tree and the EXPLAIN plan
    /// with estimated and measured-root cardinalities.
    #[test]
    fn slow_queries_are_logged_with_span_tree_and_plan() {
        let dir = tmpdir("slowlog");
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        store.set_slow_query_threshold(Duration::ZERO);
        respond(&store, "CREATE r 2");
        let rel = GeneralizedRelation::from_raw(
            2,
            vec![RawAtom::new(Term::var(0), RawOp::Lt, Term::var(1))],
        );
        respond(
            &store,
            &format!("INSERT r {}", dco_encoding::relation_to_json_str(&rel)),
        );
        let (r, _) = respond(&store, "QUERY exists y . (r(x, y) & x < y)");
        assert!(r.starts_with("OK {"), "got {r}");

        let entries = store.slow_queries();
        assert!(!entries.is_empty(), "threshold 0 logs every query");
        let e = entries.last().unwrap();
        assert!(e.query.contains("r(x, y)"), "got {}", e.query);
        assert!(e.trace.contains("preflight"), "span tree: {}", e.trace);
        assert!(e.trace.contains("plan"), "span tree: {}", e.trace);
        assert!(e.trace.contains("eval"), "span tree: {}", e.trace);
        assert!(
            e.trace.contains("probe "),
            "guard probes fan into the trace: {}",
            e.trace
        );
        assert!(e.plan.contains("est="), "plan: {}", e.plan);
        assert!(e.plan.contains("act=1"), "root actual: {}", e.plan);
        assert!(e.plan.contains("exists"), "plan tree: {}", e.plan);

        // The wire verb carries the same entries as JSON.
        let (r, _) = respond(&store, "SLOWLOG");
        assert!(r.contains("\"trace\":"), "got {r}");
        assert!(r.contains("\"plan\":"), "got {r}");
        assert!(r.contains("est="), "got {r}");

        // The trace ring holds the span records too.
        let traces = store.recent_traces();
        assert!(!traces.is_empty());
        assert!(traces
            .iter()
            .any(|t| t.spans.iter().any(|s| s.name == "eval")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Tracing off (per-store switch or global kill switch) still
    /// answers queries identically and records nothing.
    #[test]
    fn tracing_switch_disables_trace_and_slowlog_capture() {
        let dir = tmpdir("traceoff");
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        store.set_slow_query_threshold(Duration::ZERO);
        store.set_tracing(false);
        respond(&store, "CREATE r 1");
        let (r, _) = respond(&store, "QUERY r(x)");
        assert!(r.starts_with("OK {"), "got {r}");
        assert!(store.slow_queries().is_empty(), "no trace, no slow entry");
        assert!(store.recent_traces().is_empty());
        // Histograms still record (they are gated only globally).
        let text = store.metrics_text();
        assert!(text.contains("dco_store_query_total_count 1"), "got {text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hello_handshake_accepts_matching_versions_and_refuses_others() {
        let dir = tmpdir("hello");
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        let line = format!(
            "HELLO {} {}",
            wire::PROTOCOL_VERSION,
            crate::codec::FORMAT_VERSION
        );
        let (r, close) = respond(&store, &line);
        assert_eq!(
            r,
            format!(
                "OK {} {}",
                wire::PROTOCOL_VERSION,
                crate::codec::FORMAT_VERSION
            )
        );
        assert!(!close);
        // Wrong protocol: typed version mismatch, connection closes.
        let (r, close) = respond(&store, "HELLO 999 1");
        assert!(r.starts_with("ERR version mismatch"), "got {r}");
        assert!(r.contains("999"), "mismatch names the peer's version: {r}");
        assert!(close, "a mismatched peer must be hung up on");
        // Wrong codec version: same treatment.
        let line = format!("HELLO {} 99", wire::PROTOCOL_VERSION);
        let (r, close) = respond(&store, &line);
        assert!(r.starts_with("ERR version mismatch"), "got {r}");
        assert!(close);
        // REPL outside a server connection is a typed refusal, not a hang.
        let (r, close) = respond(&store, "REPL 0");
        assert!(r.starts_with("ERR invalid operation"), "got {r}");
        assert!(!close);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deadline_and_budget_options_produce_typed_errors() {
        let dir = tmpdir("deadline");
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        let (r, _) = respond(&store, "CREATE r 2");
        assert_eq!(r, "OK 1");
        let rel = GeneralizedRelation::from_raw(
            2,
            vec![RawAtom::new(Term::var(0), RawOp::Lt, Term::var(1))],
        );
        let (r, _) = respond(
            &store,
            &format!("INSERT r {}", dco_encoding::relation_to_json_str(&rel)),
        );
        assert_eq!(r, "OK 2");
        // A zero deadline has already elapsed: rejected before eval,
        // with the machine-readable token leading the message.
        let counters = ServeCounters::default();
        let (r, close) = respond_timed(
            &store,
            "QUERY @deadline_ms=0 r(x, y)",
            Some(&counters),
            Some(Instant::now()),
        );
        assert!(r.starts_with("ERR DEADLINE_EXCEEDED"), "got {r}");
        assert!(!close);
        assert_eq!(counters.expired_deadline.load(Ordering::Relaxed), 1);
        // A starved tuple budget trips the guard, typed as a fault.
        let (r, _) = respond(&store, "QUERY @max_tuples=1 !(r(x, y) | r(y, x) | x < y)");
        assert!(r.starts_with("ERR"), "got {r}");
        assert!(r.contains("budget exceeded"), "got {r}");
        // A generous deadline changes nothing about the answer.
        let (r, _) = respond(&store, "QUERY @deadline_ms=60000 r(x, y) & x < y");
        assert!(r.starts_with("OK {"), "got {r}");
        let out = wire::query_output_from_json(&r[3..]).unwrap();
        assert_eq!(out.relation, rel);
        // EXPLAIN honors deadline expiry the same way.
        let (r, _) = respond_timed(
            &store,
            "EXPLAIN @deadline_ms=0 r(x, y)",
            Some(&counters),
            Some(Instant::now()),
        );
        assert!(r.starts_with("ERR DEADLINE_EXCEEDED"), "got {r}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explain_runs_under_the_same_guard_as_query() {
        let dir = tmpdir("explain-guard");
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        let lt = GeneralizedRelation::from_raw(
            2,
            vec![RawAtom::new(Term::var(0), RawOp::Lt, Term::var(1))],
        );
        // 32 overlapping boxes: composing and complementing them takes
        // far longer than a millisecond.
        let boxes = GeneralizedRelation::from_tuples(
            2,
            (0..32i128).map(|i| {
                let (a, b) = (2 * i, (7 * i) % 61);
                GeneralizedTuple::from_raw(
                    2,
                    vec![
                        RawAtom::new(Term::cst(rat(a, 1)), RawOp::Le, Term::var(0)),
                        RawAtom::new(Term::var(0), RawOp::Le, Term::cst(rat(a + 5, 1))),
                        RawAtom::new(Term::cst(rat(b, 1)), RawOp::Le, Term::var(1)),
                        RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(b + 9, 1))),
                    ],
                )
                .pop()
                .unwrap()
            }),
        );
        for (name, rel) in [("r", &lt), ("s", &boxes)] {
            store.create(name, 2).unwrap();
            store.insert(name, rel.clone()).unwrap();
        }
        // A starved tuple budget trips EXPLAIN exactly as it trips QUERY.
        for verb in ["QUERY", "EXPLAIN"] {
            let (r, _) = respond(
                &store,
                &format!("{verb} @max_tuples=1 !(r(x, y) | r(y, x) | x < y)"),
            );
            assert!(r.starts_with("ERR"), "{verb}: got {r}");
            assert!(r.contains("budget exceeded"), "{verb}: got {r}");
        }
        // A deadline that expires mid-evaluation, not in the queue.
        let counters = ServeCounters::default();
        let (r, _) = respond_timed(
            &store,
            "EXPLAIN @deadline_ms=1 !(exists z . (s(x, z) & s(z, y)) | s(y, x))",
            Some(&counters),
            Some(Instant::now()),
        );
        assert!(r.starts_with("ERR DEADLINE_EXCEEDED"), "got {r}");
        assert_eq!(counters.expired_deadline.load(Ordering::Relaxed), 0);
        // Within its limits, EXPLAIN still answers with the measured plan.
        let (r, _) = respond(&store, "EXPLAIN @deadline_ms=60000 r(x, y) & x < y");
        assert!(r.starts_with("OK {") && r.contains("\"act\":"), "got {r}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overloaded_error_renders_a_machine_readable_retry_hint() {
        let counters = ServeCounters::default();
        counters.workers.store(2, Ordering::Relaxed);
        counters
            .queued
            .store(2 * HIGH_WATER_PER_WORKER, Ordering::Relaxed);
        counters.ewma_job_ns.store(1_000_000, Ordering::Relaxed); // 1 ms/job
        let err = admission_shed(&QueryOpts::none(), &counters).expect("past high water");
        let msg = format!("ERR {err}");
        assert!(
            msg.starts_with("ERR OVERLOADED retry_after_ms="),
            "got {msg}"
        );
        // Below high water, a request with no deadline is admitted …
        counters.queued.store(8, Ordering::Relaxed);
        assert!(admission_shed(&QueryOpts::none(), &counters).is_none());
        // … but one whose whole deadline is eaten by queue wait is shed.
        let tight = QueryOpts::none().with_deadline_ms(3);
        assert!(
            admission_shed(&tight, &counters).is_some(),
            "8 jobs × 1 ms / 2 workers = 4 ms wait > 3 ms deadline"
        );
        let loose = QueryOpts::none().with_deadline_ms(100);
        assert!(admission_shed(&loose, &counters).is_none());
    }

    #[test]
    fn stats_includes_serving_counters_when_in_server_context() {
        let dir = tmpdir("servestats");
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        let counters = ServeCounters::default();
        counters.conns_open.store(3, Ordering::Relaxed);
        counters.repl_lag.store(7, Ordering::Relaxed);
        let (r, _) = respond_ctx(&store, "STATS", Some(&counters));
        for key in [
            "\"conns_open\":3",
            "\"conns_total\":",
            "\"queued_requests\":",
            "\"backpressure_stalls\":",
            "\"shed_overload\":",
            "\"expired_deadline\":",
            "\"served_late\":",
            "\"repl_streams\":",
            "\"repl_lag\":7",
            "\"repl_bytes\":",
        ] {
            assert!(r.contains(key), "missing {key} in {r}");
        }
        // Plain respond (no server) keeps the original surface only.
        let (r, _) = respond(&store, "STATS");
        assert!(!r.contains("conns_open"), "got {r}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
