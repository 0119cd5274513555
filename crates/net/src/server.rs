//! The event-loop TCP query server.
//!
//! [`QsServer::spawn`] wraps a bootstrapped [`ShardedQueryServer`] in a
//! single-threaded readiness loop over non-blocking sockets: one thread
//! accepts, reads, dispatches, and writes for every connection. The handle
//! keeps shared access to the underlying server so the DA-side driver can
//! keep pushing update messages and summaries while queries are being
//! answered — exactly the Section 3.1 deployment, where fresh data
//! dissemination is decoupled from query traffic.
//!
//! The old thread-per-connection server serialized proof construction under
//! one server-wide mutex; this one holds **no** lock around dispatch. The
//! [`ShardedQueryServer`] is snapshot-concurrent (readers pin an immutable
//! epoch snapshot; writers publish by swapping it), so every request is
//! answered against `&ShardedQueryServer` directly.
//!
//! # Multiplexing and backpressure
//!
//! Connections carry either classic one-request/one-response exchanges or
//! pipelined [`Request::Tagged`] frames: a client may write a whole batch
//! before reading, and the loop answers each frame in arrival order with
//! the request's id echoed, so responses can be matched without counting.
//!
//! Two byte caps bound what a slow or hostile reader can pin:
//!
//! * **Per-connection** ([`QsServerOptions::max_conn_queue`]): while a
//!   connection's queued-but-unwritten response bytes exceed the cap, its
//!   socket is not read (TCP pushes back on the sender) and any requests
//!   already buffered are answered with [`Response::Busy`] instead of
//!   being dispatched — a typed, retryable shed, never a silent drop.
//! * **Global** ([`QsServerOptions::max_queued_bytes`]): when the sum of
//!   all queues exceeds this, newly parsed requests shed as `Busy`
//!   regardless of which connection they arrived on.
//!
//! Clients surface `Busy` as `NetError::Overloaded`, which
//! [`is_retryable`](crate::NetError::is_retryable) admits — the resilient
//! client backs off and re-asks, and soundness is untouched because a shed
//! request was never answered at all.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use authdb_core::qs::QueryError;
use authdb_core::shard::ShardedQueryServer;
use authdb_core::wire::{Request, Response};
use authdb_wire::{deframe, frame, frame_body_len, try_frame, DEFAULT_MAX_FRAME_LEN};

use crate::NetError;

/// How long the loop sleeps when a full pass made no progress — the
/// latency floor for a quiescent server, and the price of portability
/// (no `epoll` without unsafe bindings; `forbid(unsafe_code)` holds).
const IDLE_TICK: Duration = Duration::from_micros(500);

/// Per-pass read burst cap: one connection blasting requests cannot keep
/// the loop in its read syscall forever while the other connections starve.
const READ_BURST: usize = 64 << 10;

/// Construction options for [`QsServer::spawn`].
#[derive(Clone, Copy, Debug)]
pub struct QsServerOptions {
    /// Cap on an *incoming* request frame's declared body length. Requests
    /// are tiny; the default (64 KiB) bounds what a hostile client's length
    /// prefix can make the server allocate.
    pub max_request_len: usize,
    /// Idle deadline per connection: a connection with no read or write
    /// progress for this long is dropped (the slow-loris guard). Honest
    /// clients re-connect.
    pub read_timeout: Duration,
    /// Write-stall deadline: a client that stops draining its receive
    /// window while responses are queued is dropped after this long
    /// without a single accepted byte.
    pub write_timeout: Duration,
    /// Cap on concurrently served connections. Excess connections are
    /// closed at accept (clients observe a reset and retry against a
    /// less-loaded moment).
    pub max_connections: usize,
    /// How long [`QsServer::shutdown`] waits for queued responses to
    /// drain before returning anyway.
    pub drain_timeout: Duration,
    /// Per-connection cap on queued-but-unwritten response bytes. Above
    /// it, the connection's socket is not read and buffered requests are
    /// answered with [`Response::Busy`].
    pub max_conn_queue: usize,
    /// Global cap on queued response bytes across all connections; above
    /// it, newly parsed requests shed as [`Response::Busy`].
    pub max_queued_bytes: usize,
}

impl Default for QsServerOptions {
    fn default() -> Self {
        QsServerOptions {
            max_request_len: 64 << 10,
            // Generous defaults: long enough that no honest interactive
            // client notices, short enough that an abandoned socket frees
            // its slot the same minute.
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            max_connections: 256,
            drain_timeout: Duration::from_secs(5),
            max_conn_queue: 4 << 20,
            max_queued_bytes: 32 << 20,
        }
    }
}

struct Shared {
    server: ShardedQueryServer,
    opts: QsServerOptions,
    stop: AtomicBool,
    /// Connections currently being served (mirrors the loop's ledger so
    /// the handle can observe it without touching loop state).
    active: AtomicUsize,
    /// Set by the event loop once every queued response is flushed (or the
    /// drain window expires) after `stop`; [`QsServer::shutdown`] waits on
    /// the condvar instead of sleep-polling.
    drained: Mutex<bool>,
    drain_cv: Condvar,
}

/// A running networked query server. Dropping the handle stops the event
/// loop; queued responses get one drain pass before the sockets close.
pub struct QsServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    event_loop: Option<JoinHandle<()>>,
}

impl QsServer {
    /// Serve `server` on a loopback port chosen by the OS. Returns once the
    /// listener is bound, with the event loop running in the background.
    pub fn spawn(server: ShardedQueryServer, opts: QsServerOptions) -> Result<Self, NetError> {
        Self::bind(server, "127.0.0.1:0", opts)
    }

    /// Serve `server` on an explicit bind address.
    pub fn bind(
        server: ShardedQueryServer,
        bind_addr: &str,
        opts: QsServerOptions,
    ) -> Result<Self, NetError> {
        let listener = TcpListener::bind(bind_addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            server,
            opts,
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            drained: Mutex::new(false),
            drain_cv: Condvar::new(),
        });
        let loop_shared = Arc::clone(&shared);
        let event_loop = std::thread::spawn(move || event_loop(listener, loop_shared));
        Ok(QsServer {
            addr,
            shared,
            event_loop: Some(event_loop),
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Run `f` against the underlying sharded server — the DA-side path for
    /// applying update messages, summaries, and rebalances while serving.
    /// No lock is taken: the sharded server is snapshot-concurrent, so this
    /// runs alongside in-flight request dispatch.
    pub fn with_server<R>(&self, f: impl FnOnce(&ShardedQueryServer) -> R) -> R {
        f(&self.shared.server)
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Acquire)
    }

    /// Graceful shutdown: stop accepting and reading, flush queued
    /// responses (up to the configured drain timeout), then return. The
    /// wait is condvar-based — the event loop signals the drain's
    /// completion, so shutdown wakes exactly when the last byte is flushed
    /// instead of discovering it on a poll tick.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Margin on top of the drain window: the loop itself enforces the
        // timeout; the margin only covers its last bookkeeping pass.
        let deadline = Instant::now() + self.shared.opts.drain_timeout + Duration::from_millis(250);
        {
            let mut drained = self.shared.drained.lock();
            while !*drained {
                if self
                    .shared
                    .drain_cv
                    .wait_until(&mut drained, deadline)
                    .timed_out()
                {
                    break;
                }
            }
        }
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
    }
}

impl Drop for QsServer {
    fn drop(&mut self) {
        if let Some(h) = self.event_loop.take() {
            self.shared.stop.store(true, Ordering::Release);
            let _ = h.join();
        }
    }
}

/// One connection's loop state: a non-blocking socket, the bytes read but
/// not yet parsed, and the response bytes queued but not yet accepted by
/// the kernel.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Prefix of `wbuf` already written.
    wpos: usize,
    last_activity: Instant,
    /// When the current write stall began (queued bytes, zero progress).
    stalled_since: Option<Instant>,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            last_activity: Instant::now(),
            stalled_since: None,
            dead: false,
        }
    }

    /// Queued-but-unwritten response bytes — the backpressure measure.
    fn backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Push queued bytes at the socket until it would block.
    fn flush(&mut self, opts: &QsServerOptions) -> bool {
        if self.dead || self.backlog() == 0 {
            return false;
        }
        let mut progress = false;
        loop {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return progress;
                }
                Ok(n) => {
                    self.wpos += n;
                    progress = true;
                    if self.wpos == self.wbuf.len() {
                        self.wbuf.clear();
                        self.wpos = 0;
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return progress;
                }
            }
        }
        if progress {
            self.stalled_since = None;
            self.last_activity = Instant::now();
        } else if self.backlog() > 0 {
            // A peer that stops draining its window cannot pin its queue
            // forever: the stall clock starts at the first zero-progress
            // flush and the connection dies at the write deadline.
            let since = *self.stalled_since.get_or_insert_with(Instant::now);
            if since.elapsed() > opts.write_timeout {
                self.dead = true;
            }
        }
        progress
    }

    /// Read available bytes, respecting the per-connection backpressure
    /// cap and the per-pass burst cap.
    fn fill(&mut self, opts: &QsServerOptions) -> bool {
        if self.dead || self.backlog() > opts.max_conn_queue {
            return false;
        }
        let mut progress = false;
        let mut chunk = [0u8; 4096];
        loop {
            if self.rbuf.len() >= READ_BURST {
                break;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    self.last_activity = Instant::now();
                    progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        progress
    }

    /// Parse complete frames out of the read buffer and answer each. A
    /// frame that fails the length gate or canonical decoding kills the
    /// connection — once framing is lost there is no resynchronizing, and
    /// answering unparseable bytes would mean guessing what was asked.
    fn serve(&mut self, shared: &Shared, global_backlog: &mut usize) -> bool {
        let mut progress = false;
        while !self.dead {
            if self.rbuf.len() < 4 {
                break;
            }
            let header = [self.rbuf[0], self.rbuf[1], self.rbuf[2], self.rbuf[3]];
            let body_len = match frame_body_len(header, shared.opts.max_request_len) {
                Ok(l) => l,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            };
            if self.rbuf.len() < 4 + body_len {
                break;
            }
            let body: Vec<u8> = self.rbuf[4..4 + body_len].to_vec();
            self.rbuf.drain(..4 + body_len);
            let request: Request = match deframe(&body) {
                Ok(r) => r,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            };
            // Load shedding is decided per request, *before* any proof
            // work: a shed request costs the server a handful of bytes.
            let overloaded = self.backlog() > shared.opts.max_conn_queue
                || *global_backlog > shared.opts.max_queued_bytes;
            let response = if overloaded {
                busy_response(&request)
            } else {
                dispatch(&shared.server, request)
            };
            let bytes = encode_response(response);
            *global_backlog += bytes.len();
            self.wbuf.extend_from_slice(&bytes);
            progress = true;
        }
        progress
    }
}

/// The readiness loop: accept, flush, read, serve, repeat — one thread for
/// every connection, no blocking syscalls, a short sleep only when a full
/// pass made no progress.
fn event_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut conns: Vec<Conn> = Vec::new();
    loop {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let mut progress = false;

        // Admission control at accept: over the cap, the socket is closed
        // unserved (clients observe a reset and retry).
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    progress = true;
                    if conns.len() >= shared.opts.max_connections
                        || stream.set_nonblocking(true).is_err()
                    {
                        drop(stream);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    conns.push(Conn::new(stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }

        let mut global_backlog: usize = conns.iter().map(Conn::backlog).sum();
        for conn in &mut conns {
            let queued = conn.backlog();
            progress |= conn.flush(&shared.opts);
            global_backlog -= queued - conn.backlog();
            progress |= conn.fill(&shared.opts);
            progress |= conn.serve(&shared, &mut global_backlog);
            // Answer-then-flush in the same pass: a request's response
            // hits the socket before the loop sleeps.
            let queued = conn.backlog();
            conn.flush(&shared.opts);
            global_backlog -= queued - conn.backlog();
            if conn.last_activity.elapsed() > shared.opts.read_timeout {
                conn.dead = true;
            }
        }
        conns.retain(|c| !c.dead);
        shared.active.store(conns.len(), Ordering::Release);

        if !progress {
            std::thread::sleep(IDLE_TICK);
        }
    }

    // Drain: flush what is queued (bounded by the drain window), then
    // close everything and signal the condvar shutdown waits on.
    let deadline = Instant::now() + shared.opts.drain_timeout;
    while conns.iter().any(|c| !c.dead && c.backlog() > 0) && Instant::now() < deadline {
        let mut progress = false;
        for conn in &mut conns {
            progress |= conn.flush(&shared.opts);
        }
        conns.retain(|c| !c.dead && c.backlog() > 0);
        if !progress {
            std::thread::sleep(IDLE_TICK);
        }
    }
    drop(conns);
    shared.active.store(0, Ordering::Release);
    *shared.drained.lock() = true;
    shared.drain_cv.notify_all();
}

/// The typed shed for an overloaded moment: tagged requests keep their id
/// (so a pipelined client attributes the rejection to the right request),
/// everything else gets a bare [`Response::Busy`].
fn busy_response(request: &Request) -> Response {
    match request {
        Request::Tagged { id, .. } => Response::Tagged {
            id: *id,
            inner: Box::new(Response::Busy),
        },
        _ => Response::Busy,
    }
}

/// Writer-side frame cap: an answer too large for any client's default
/// reader cap (or the u32 length prefix itself) becomes a typed refusal
/// instead of a frame the peer must reject — with the request id kept on
/// the tagged path.
fn encode_response(response: Response) -> Vec<u8> {
    match try_frame(&response, DEFAULT_MAX_FRAME_LEN) {
        Ok(b) => b,
        Err(_) => match response {
            Response::Tagged { id, .. } => frame(&Response::Tagged {
                id,
                inner: Box::new(Response::Refused(QueryError::AnswerTooLarge)),
            }),
            _ => frame(&Response::Refused(QueryError::AnswerTooLarge)),
        },
    }
}

/// Map one request onto the sharded server. Server-side refusals travel as
/// [`Response::Refused`]; nothing here panics on hostile input (the codec
/// already rejected malformed frames, `project` bounds attribute indices
/// itself, and `apply_rebalance` checks the package's DA signatures and
/// shape before touching any state). Dispatch takes `&ShardedQueryServer` — queries run
/// against an epoch snapshot and writers order themselves, so the event
/// loop holds no lock here.
fn dispatch(server: &ShardedQueryServer, request: Request) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::Select { lo, hi } => match server.select_range(lo, hi) {
            Ok(answer) => Response::Selection(answer),
            Err(e) => Response::Refused(e),
        },
        Request::SelectShard { shard, lo, hi } => {
            match server.select_shard(shard as usize, lo, hi) {
                Ok(answer) => Response::ShardSelection(Box::new(answer)),
                Err(e) => Response::Refused(e),
            }
        }
        Request::Project { lo, hi, attrs } => {
            let attrs: Vec<usize> = attrs.into_iter().map(|a| a as usize).collect();
            match server.project(lo, hi, &attrs) {
                Ok(answer) => Response::Projection(Box::new(answer)),
                Err(e) => Response::Refused(e),
            }
        }
        Request::Stats => Response::Stats(server.stats()),
        Request::ShardStats => Response::ShardStats(server.shard_stats()),
        Request::Checkpoint => Response::Checkpoint(Box::new(server.epoch_bootstrap())),
        Request::Rebalance(rb) => match server.apply_rebalance(&rb) {
            Ok(()) => Response::Rebalanced,
            Err(e) => Response::Refused(e),
        },
        Request::Tagged { id, inner } => {
            // The codec already rejects nested wrappers; this arm keeps
            // the refusal typed for in-process callers too.
            let inner = match *inner {
                Request::Tagged { .. } => Response::Refused(QueryError::Unsupported),
                other => dispatch(server, other),
            };
            Response::Tagged {
                id,
                inner: Box::new(inner),
            }
        }
    }
}
