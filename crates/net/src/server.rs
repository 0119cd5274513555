//! The thread-per-connection TCP query server.
//!
//! [`QsServer::spawn`] wraps a bootstrapped [`ShardedQueryServer`] in the
//! simplest shape std allows: an acceptor thread blocked in `accept()`, and
//! one thread per admitted connection doing *blocking read → answer every
//! complete frame in the buffer → one blocking write*. Nothing polls and
//! nothing sleeps: a request wakes exactly the thread that will answer it,
//! a quiet server costs no CPU, and connections are served on every core.
//! The handle keeps shared access to the underlying server so the DA-side
//! driver can keep pushing update messages and summaries while queries are
//! being answered — exactly the Section 3.1 deployment, where fresh data
//! dissemination is decoupled from query traffic.
//!
//! The first thread-per-connection server here was slow for a reason that
//! had nothing to do with threads: it serialized proof construction under
//! one server-wide mutex. That mutex is gone — the [`ShardedQueryServer`]
//! is snapshot-concurrent (readers pin an immutable epoch snapshot; writers
//! publish by swapping it), so every request is answered against
//! `&ShardedQueryServer` with **no** lock around dispatch. The single
//! readiness loop that replaced that server could, without `epoll` (no
//! unsafe bindings; `forbid(unsafe_code)` holds), only discover work by
//! sleeping between passes, which put a wake-up tick under every serial
//! round trip and kept one core busy for all connections. With the lock
//! gone, blocking threads are both the simple and the fast shape.
//!
//! # Multiplexing and backpressure
//!
//! Connections carry either classic one-request/one-response exchanges or
//! pipelined [`Request::Tagged`] frames: a client may write a whole batch
//! before reading, and its thread answers each frame in arrival order with
//! the request's id echoed, so responses can be matched without counting.
//!
//! A *pass* is the frames one blocking read (at most 64 KiB, `READ_BURST`)
//! delivered. Their responses queue in the connection's write buffer, which
//! is then written whole and cleared — no cursor into it survives a pass,
//! so a client that drains slower than it asks cannot make it grow. While
//! that write blocks the socket is not read: TCP pushes back on the sender.
//! Two byte caps bound what a slow or hostile reader can pin:
//!
//! * **Per-connection** ([`QsServerOptions::max_conn_queue`]): a request
//!   parsed while the pass's queued response bytes exceed the cap is
//!   answered with [`Response::Busy`] instead of being dispatched — a
//!   typed, retryable shed, never a silent drop.
//! * **Global** ([`QsServerOptions::max_queued_bytes`]): when the sum of
//!   all queues exceeds this, newly parsed requests shed as `Busy`
//!   regardless of which connection they arrived on.
//!
//! Clients surface `Busy` as `NetError::Overloaded`, which
//! [`is_retryable`](crate::NetError::is_retryable) admits — the fan-out
//! client backs off and re-asks, and soundness is untouched because a shed
//! request was never answered at all.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
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

/// Most bytes one blocking read takes: bounds a pass, and with it how much
/// one pipelined window can queue before the per-connection cap is consulted.
const READ_BURST: usize = 64 << 10;

/// Pause after a failed `accept` — error path only, the one sleep in this
/// file: a persistent failure (`EMFILE`) would otherwise spin the acceptor.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Construction options for [`QsServer::spawn`].
#[derive(Clone, Copy, Debug)]
pub struct QsServerOptions {
    /// Cap on an *incoming* request frame's declared body length. Requests
    /// are tiny; the default (64 KiB) bounds what a hostile client's length
    /// prefix can make the server allocate.
    pub max_request_len: usize,
    /// Idle deadline per connection, set as the socket's read timeout: a
    /// connection that delivers no byte for this long is dropped (the
    /// slow-loris guard). Honest clients re-connect.
    pub read_timeout: Duration,
    /// Write-stall deadline, set as the socket's write timeout: a client
    /// that stops draining its receive window while responses are queued is
    /// dropped after this long without a single accepted byte.
    pub write_timeout: Duration,
    /// Cap on concurrently served connections. Excess connections are
    /// closed at accept (clients observe a reset and retry against a
    /// less-loaded moment).
    pub max_connections: usize,
    /// How long [`QsServer::shutdown`] waits for queued responses to
    /// drain before returning anyway.
    pub drain_timeout: Duration,
    /// Per-connection cap on the response bytes one pass may queue before
    /// they are written. Above it, the pass's remaining requests are
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
    /// Response bytes queued on all connections and not yet written. A
    /// load-shedding threshold that publishes no other data: `Relaxed`.
    queued: AtomicUsize,
    /// The live connections, each with a clone of its socket: the admission
    /// cap's measure, [`QsServer::active_connections`], and the list the
    /// drain shuts down. A connection removes itself when its thread ends.
    conns: Mutex<Vec<(u64, TcpStream)>>,
    /// Notified on every removal from `conns`; the drain waits on it.
    drain_cv: Condvar,
}

/// A running networked query server. Dropping the handle is
/// [`QsServer::shutdown`].
pub struct QsServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl QsServer {
    /// Serve `server` on a loopback port chosen by the OS. Returns once the
    /// listener is bound, with the acceptor running in the background.
    pub fn spawn(server: ShardedQueryServer, opts: QsServerOptions) -> Result<Self, NetError> {
        Self::bind(server, "127.0.0.1:0", opts)
    }

    /// Serve `server` on an explicit bind address.
    // authdb-lint: allow(serving-surface): the deployment entry point for a client on another host; `spawn` is its loopback form
    pub fn bind(
        server: ShardedQueryServer,
        bind_addr: &str,
        opts: QsServerOptions,
    ) -> Result<Self, NetError> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            server,
            opts,
            stop: AtomicBool::new(false),
            queued: AtomicUsize::new(0),
            conns: Mutex::new(Vec::new()),
            drain_cv: Condvar::new(),
        });
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("qs-accept".into())
            .spawn(move || accept_loop(listener, acceptor_shared))?;
        Ok(QsServer {
            addr,
            shared,
            acceptor: Some(acceptor),
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
    // authdb-lint: allow(serving-surface): read by the `idle` and `hardening` suites in `crates/net/tests`
    pub fn active_connections(&self) -> usize {
        self.shared.conns.lock().len()
    }

    /// Graceful shutdown: stop accepting and reading, let every connection
    /// finish the pass it is in and write what it queued (up to the
    /// configured drain timeout), then join every thread and return. The
    /// acceptor waits on a condvar the departing connections notify, so
    /// this wakes exactly when the last one is gone.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for QsServer {
    fn drop(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            self.shared.stop.store(true, Ordering::Release);
            // The acceptor is blocked in `accept()`: one loopback connect
            // wakes it. A connect that fails for want of descriptors finds
            // the acceptor in its error back-off, which reads `stop` too.
            let _ = TcpStream::connect(self.addr);
            let _ = acceptor.join();
        }
    }
}

/// Admission control at accept, then the drain once `stop` is set.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id = 0u64;
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                threads.retain(|t| !t.is_finished());
                // Shed or admitted; a shed socket is closed unserved
                // (clients observe a reset and retry).
                threads.extend(admit(stream, next_id, &shared).ok());
                next_id += 1;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
    drop(listener);

    // Drain: end every connection's reads — each thread finishes its pass,
    // writes, and leaves — and wait for the list to empty, bounded by the
    // drain window; then cut whatever is still stuck in a write, and join:
    // once the handle's drop returns no thread of this server is left, and
    // the handle, not a straggler, frees the served state.
    let mut conns = shared.conns.lock();
    for (_, stream) in conns.iter() {
        let _ = stream.shutdown(Shutdown::Read);
    }
    let deadline = Instant::now() + shared.opts.drain_timeout;
    while !conns.is_empty() {
        if shared.drain_cv.wait_until(&mut conns, deadline).timed_out() {
            break;
        }
    }
    for (_, stream) in conns.iter() {
        let _ = stream.shutdown(Shutdown::Both);
    }
    drop(conns);
    for thread in threads {
        let _ = thread.join();
    }
}

/// Give `stream` a slot and a thread, or shed it: over the connection cap,
/// or when the socket cannot be configured or cloned or the thread cannot
/// be spawned, the error returns and the socket closes with it.
fn admit(stream: TcpStream, id: u64, shared: &Arc<Shared>) -> std::io::Result<JoinHandle<()>> {
    let mut conns = shared.conns.lock();
    if conns.len() >= shared.opts.max_connections {
        return Err(ErrorKind::ConnectionRefused.into());
    }
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(shared.opts.read_timeout))?;
    stream.set_write_timeout(Some(shared.opts.write_timeout))?;
    conns.push((id, stream.try_clone()?));
    let conn = Conn {
        shared: Arc::clone(shared),
        id,
        wbuf: Vec::new(),
    };
    // The lock is released first: a failed spawn drops the closure, and
    // `conn` with it, whose guard takes the lock to free the slot — the
    // same way the slot is freed when the thread ends.
    drop(conns);
    std::thread::Builder::new()
        .name("qs-conn".into())
        .spawn(move || conn.serve(stream))
}

/// One admitted connection: its slot in the live list and the responses
/// queued for it. `Shared::queued` counts `wbuf.len()` for every live
/// `Conn`; dropping one — however its thread ends — settles both.
struct Conn {
    shared: Arc<Shared>,
    id: u64,
    wbuf: Vec<u8>,
}

impl Conn {
    /// The connection's thread: blocking read, answer, blocking write,
    /// until the peer leaves, a deadline fires, framing is lost, or the
    /// server stops.
    fn serve(mut self, mut stream: TcpStream) {
        let mut rbuf = Vec::new();
        let mut chunk = vec![0u8; READ_BURST];
        // The drain's `shutdown(Read)` wakes a blocked read, but the kernel
        // keeps delivering what a chatty peer sends afterwards: `stop` is
        // what ends such a connection after the pass it is in.
        while !self.shared.stop.load(Ordering::Acquire) {
            let n = match stream.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Includes the read deadline: the slow-loris guard.
                Err(_) => return,
            };
            rbuf.extend_from_slice(&chunk[..n]);
            let framed = self.answer(&mut rbuf);
            // Includes the write deadline: a peer that stops draining its
            // window cannot pin its queue, or this thread, forever.
            let written = stream.write_all(&self.wbuf);
            self.settle();
            if !framed || written.is_err() {
                return;
            }
        }
    }

    /// Answer every complete frame in `rbuf` into `wbuf`, in place, and
    /// drop the consumed prefix once. Returns `false` when a frame fails
    /// the length gate or canonical decoding: once framing is lost there
    /// is no resynchronizing, and answering unparseable bytes would mean
    /// guessing what was asked — the connection ends after what was
    /// answered so far is written.
    fn answer(&mut self, rbuf: &mut Vec<u8>) -> bool {
        let opts = &self.shared.opts;
        let mut pos = 0;
        let framed = loop {
            let rest = &rbuf[pos..];
            let Some(header) = rest.first_chunk::<4>() else {
                break true;
            };
            let Ok(body_len) = frame_body_len(*header, opts.max_request_len) else {
                break false;
            };
            let Some(body) = rest.get(4..4 + body_len) else {
                break true;
            };
            let Ok(request) = deframe::<Request>(body) else {
                break false;
            };
            pos += 4 + body_len;
            // Load shedding is decided per request, *before* any proof
            // work: a shed request costs the server a handful of bytes.
            let overloaded = self.wbuf.len() > opts.max_conn_queue
                || self.shared.queued.load(Ordering::Relaxed) > opts.max_queued_bytes;
            let response = if overloaded {
                busy_response(&request)
            } else {
                dispatch(&self.shared.server, request)
            };
            let bytes = encode_response(response);
            self.shared.queued.fetch_add(bytes.len(), Ordering::Relaxed);
            self.wbuf.extend_from_slice(&bytes);
        };
        rbuf.drain(..pos);
        framed
    }

    /// The queue is written (or abandoned): take it out of the global count.
    fn settle(&mut self) {
        self.shared
            .queued
            .fetch_sub(self.wbuf.len(), Ordering::Relaxed);
        self.wbuf.clear();
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.settle();
        self.shared.conns.lock().retain(|(id, _)| *id != self.id);
        self.shared.drain_cv.notify_all();
    }
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
/// already rejected malformed frames, `select_shard` bounds the shard
/// index, and `apply_rebalance` checks the package's DA signatures and
/// shape before touching any state). Dispatch takes `&ShardedQueryServer` — queries run
/// against an epoch snapshot and writers order themselves, so connection
/// threads hold no lock here and run it concurrently.
fn dispatch(server: &ShardedQueryServer, request: Request) -> Response {
    match request {
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
