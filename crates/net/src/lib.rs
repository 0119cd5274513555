#![forbid(unsafe_code)]
//! # authdb-net — the networked query server
//!
//! The paper's setting is an *outsourced* publisher answering clients over
//! a network (Section 5 models an OC-12 DA uplink and a 14.4 Mbps HSDPA
//! user link); this crate turns the in-process
//! [`ShardedQueryServer`](authdb_core::shard::ShardedQueryServer) into an
//! actual TCP service speaking the canonical [`authdb_wire`] format:
//!
//! * [`QsServer`] — a thread-per-connection server: an acceptor blocked in
//!   `accept()` and one blocking thread per connection that reads,
//!   dispatches, and writes; nothing polls. Each connection carries a
//!   sequence of framed
//!   [`Request`](authdb_core::wire::Request)s — classic one-at-a-time
//!   exchanges or pipelined [`Request::Tagged`](authdb_core::wire::Request)
//!   batches — each answered with exactly one framed
//!   [`Response`](authdb_core::wire::Response).
//! * [`QsClient`] — a blocking client whose decoded answers feed straight
//!   into the **existing** `Verifier` (`verify_sharded_selection`). The
//!   verifier is not weakened or forked for the network path: the client
//!   performs *no* trust decisions of its own — it only decodes, and
//!   decoding failures are typed [`WireError`]s.
//!   [`QsClient::pipeline_select`] multiplexes a batch of selections over
//!   one connection, matching responses to requests by echoed id.
//! * [`ShardFanout`] — the one retrying client: one endpoint per shard,
//!   deadlines and bounded retries per endpoint, and a sound
//!   [`PartialAnswer`] when some shards stay dark.
//!
//! The serving path has no adversarial mode and takes no lock for one. The
//! byte-level arm of the adversary catalog, `authdb_testkit::tamper::WireTamper`
//! (frame corruptions a malicious server or the network can apply, each
//! pinned to the typed error it must surface as), is applied *by a proxy*
//! (`authdb_testkit::fault::ChaosProxy`) to the bytes of an honest server's
//! response, in a crate that only tests link.
//!
//! A peer speaking garbage can at worst make the other side drop the
//! connection: frames are length-capped before allocation, decoding is
//! panic-free, and a request the server cannot decode closes the stream
//! (once framing is lost there is no way to resynchronize, and answering
//! unparseable bytes would mean guessing what was asked).
//!
//! # Concurrency architecture
//!
//! Three pieces compose so that the server reshapes itself under live
//! traffic without a server-wide lock anywhere on the answer path:
//!
//! 1. **Per-shard snapshots** (`authdb_core::shard`). Readers pin an
//!    immutable epoch snapshot (`Arc`) and build proofs against it; the
//!    DA-side writer applies updates under the shard's write lock and
//!    publishes a certified rebalance by swapping the snapshot pointer once
//!    (one writer gate orders the two). A query
//!    that straddles a swap restarts against the new epoch — honest
//!    answers are never rejected, and every proof is single-epoch.
//! 2. **Connection multiplexing** (`Request::Tagged`). A client pipelines
//!    a batch of id-tagged requests on one connection and matches the
//!    echoed ids; the connection's thread answers them in arrival order.
//!    On a single connection this amortizes round-trips and syscalls.
//! 3. **Write backpressure**. Per-connection and global caps on queued
//!    response bytes: a connection is not read while its queue is being
//!    written (TCP pushes back) and over-cap requests shed as
//!    `Response::Busy` → [`NetError::Overloaded`] — typed, retryable, and
//!    never a silent drop. Shed requests were never answered, so soundness
//!    is untouched.
//!
//! # Failure model
//!
//! Real networks fault; the paper's soundness promise must survive them
//! without ever being *weakened* by them. Every fault the client stack can
//! encounter maps to a typed detection, a prescribed client action, and a
//! verdict — the `authdb_testkit::fault::ChaosProxy` fault-injection
//! catalog (`authdb_testkit::netfault::run_netfault_catalog`) pins each row:
//!
//! | fault | detection | client action | verdict |
//! |---|---|---|---|
//! | endpoint down / connect refused | connect error ([`NetError::Io`]) | retry with backoff, then report the endpoint unreachable | none — no answer was accepted |
//! | accept-then-stall (slow or dead server) | read deadline fires ([`NetError::Timeout`]) | bounded retry, then unreachable | none — the client never hangs past its deadline budget |
//! | delay within deadline | none (slower RTT) | accept | unchanged — latency is not evidence |
//! | disconnect mid-frame | short read ([`NetError::Io`], `UnexpectedEof`) | retry (idempotent requests only) | none until a complete frame verifies |
//! | truncated / version-rewritten / bit-corrupted frame (`Fault::Tamper`, `Fault::CorruptBody`) | [`NetError::Wire`] typed decode error | **fail fast — never retried blindly**: corruption of a length-checked frame is evidence of tampering, not weather | none; the error is surfaced |
//! | per-shard partition | per-endpoint retries exhausted | degrade: return a [`PartialAnswer`] naming the unreachable shards | `verify_partial_selection` certifies the reachable tiles, marks the rest `ShardUnavailable` |
//! | reachable shard withholds its part | verifier | none available | `VerifyError::ShardWithheld` — degradation never excuses withholding |
//! | server refusal ([`NetError::Refused`]) | typed response | fail fast (the server answered; retrying cannot change a deterministic refusal) | none |
//! | server overloaded ([`NetError::Overloaded`]) | typed `Busy` response | retry with backoff — the shed is about load, not content | none — the request was never answered |
//!
//! Retries are restricted to **idempotent** requests (shard selections and
//! the epoch bundle); `Rebalance` is never retried — [`ShardFanout`], the
//! only client that retries, simply does not expose it, so the type system
//! enforces the restriction. Projections and joins (§3.4, §3.5) have no
//! network request at all: `authdb-paper` reproduces them in process, one
//! shard.

pub mod client;
pub mod fanout;
pub mod retry;
pub mod server;

pub use client::QsClient;
pub use fanout::{PartialAnswer, ShardFanout, ShardOutage};
pub use retry::{ClientConfig, RetryPolicy};
pub use server::{QsServer, QsServerOptions};

use std::fmt;
use std::io::Read;

use authdb_core::qs::QueryError;
use authdb_wire::WireError;

/// Why a network operation failed. The taxonomy is the client's retry
/// policy: [`NetError::is_retryable`] splits transient transport faults
/// (worth another attempt) from integrity faults (evidence — fail fast).
#[derive(Debug)]
pub enum NetError {
    /// Transport failure (connect, read, write, EOF mid-frame). Retryable:
    /// a reset or short read says nothing about the answer's content.
    Io(std::io::Error),
    /// A configured deadline fired (connect, read, or write). Retryable —
    /// and the reason the client can never hang: every blocking operation
    /// is bounded.
    Timeout(&'static str),
    /// The peer's bytes failed canonical decoding. **Not** retryable: a
    /// frame that passed the length gate but failed decoding is corrupt in
    /// a way retransmission-protected TCP does not produce — treat it as
    /// tampering evidence and surface it.
    Wire(WireError),
    /// The server refused the request with its own typed error. Not
    /// retryable: the server is alive and deterministic.
    Refused(QueryError),
    /// The server shed the request under load (`Response::Busy`) without
    /// doing any proof work. Retryable: the shed is a statement about the
    /// server's queues at one moment, not about the request — backing off
    /// and re-asking is exactly what the backpressure design expects.
    Overloaded,
    /// The server answered with a well-formed but wrong-kinded response
    /// (e.g. a pong to a selection request). Not retryable.
    Protocol(&'static str),
}

impl NetError {
    /// Whether a fresh attempt could plausibly succeed. The transport
    /// faults qualify, and so does a load shed — an overloaded server asked
    /// to be re-asked later. Wire corruption, refusals, and protocol
    /// violations are answers *about* the server and retrying them blindly
    /// would only re-solicit the evidence.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            NetError::Io(_) | NetError::Timeout(_) | NetError::Overloaded
        )
    }

    /// Classify an I/O error raised during `during`: deadline expiries
    /// become [`NetError::Timeout`], everything else stays [`NetError::Io`].
    /// (Platform sockets report a fired `SO_RCVTIMEO`/`SO_SNDTIMEO` as
    /// `WouldBlock` or `TimedOut` depending on the OS.)
    pub fn from_io(e: std::io::Error, during: &'static str) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                NetError::Timeout(during)
            }
            _ => NetError::Io(e),
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Timeout(during) => write!(f, "deadline expired during {during}"),
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::Refused(e) => write!(f, "server refused: {e}"),
            NetError::Overloaded => write!(f, "server overloaded: request shed, retry later"),
            NetError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::from_io(e, "transport")
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

/// Read one frame body (version byte + payload) from a stream. The header's
/// declared length is checked against `max` **before** the body buffer is
/// allocated, so a lying prefix cannot reserve memory.
pub(crate) fn read_frame_body(stream: &mut impl Read, max: usize) -> Result<Vec<u8>, NetError> {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header)?;
    let body_len = authdb_wire::frame_body_len(header, max)?;
    let mut body = vec![0u8; body_len];
    stream.read_exact(&mut body)?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_classification_pins_timeout_vs_io() {
        // Fired socket deadlines surface as Timeout regardless of how the
        // platform spells them; everything else stays a transport Io fault.
        for kind in [std::io::ErrorKind::TimedOut, std::io::ErrorKind::WouldBlock] {
            let e = NetError::from_io(std::io::Error::from(kind), "read");
            assert!(matches!(e, NetError::Timeout("read")), "{kind:?}: {e}");
        }
        let reset = std::io::Error::from(std::io::ErrorKind::ConnectionReset);
        assert!(matches!(NetError::from_io(reset, "read"), NetError::Io(_)));
    }

    #[test]
    fn retry_taxonomy_splits_transport_from_evidence() {
        // The retry policy IS the taxonomy: transport faults retry,
        // integrity faults (wire corruption, refusals, wrong-kinded
        // responses) are evidence and must fail fast.
        let io = NetError::from(std::io::Error::from(std::io::ErrorKind::BrokenPipe));
        assert!(io.is_retryable());
        assert!(NetError::Timeout("connect").is_retryable());
        // A load shed is an invitation to come back, not evidence: the
        // fan-out backs off and re-asks.
        assert!(NetError::Overloaded.is_retryable());
        assert!(!NetError::Wire(WireError::Truncated).is_retryable());
        assert!(!NetError::Refused(QueryError::Unsupported).is_retryable());
        assert!(!NetError::Protocol("pong to a selection").is_retryable());
    }
}
