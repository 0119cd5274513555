//! Deterministic fault injection: a chaos proxy for the QS wire protocol.
//!
//! [`ChaosProxy`] sits between a client and any QS TCP endpoint and applies
//! *scheduled* faults — refuse, stall, delay, mid-frame disconnect, the
//! byte-level [`WireTamper`] catalog, bit corruption, partition — one per
//! accepted connection,
//! driven by a [`FaultPlan`]. Determinism is the point: a chaos test that
//! fails must replay byte-for-byte from its seed, so the plan is a script
//! indexed by connection ordinal, not a coin flipped at fault time.
//!
//! The proxy understands the frame format just enough to be surgical: it
//! relays whole frames (4-byte length prefix + body) in each direction, so
//! "disconnect mid-frame" can cut a response at half its body and
//! "corrupt" can flip a chosen bit of a response body rather than of some
//! arbitrary TCP segment. Faults apply to the **response** path — the
//! direction an adversarial network (or publisher) attacks, and the one the
//! verifier must survive.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::tamper::WireTamper;

/// One scheduled fault, applied to a single proxied connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Relay faithfully.
    Pass,
    /// Close the client connection immediately after accept — the client
    /// observes a refused/reset connect, as if the endpoint were down.
    RefuseConnect,
    /// Accept, read the request, then send nothing until the client's read
    /// deadline fires (the slow-loris server / silent partition case).
    Stall,
    /// Relay, but sleep this long before forwarding each response frame
    /// (latency within or beyond the deadline, the plan decides).
    Delay {
        /// Added one-way delay in microseconds.
        micros: u64,
    },
    /// Forward exactly half of the response body, then close — a short
    /// read that the client must classify as transport, not content.
    DisconnectMidFrame,
    /// Deliver a *complete* response frame corrupted by one entry of the
    /// byte-level catalog ([`WireTamper::apply`], the only implementation
    /// of those corruptions). Framing succeeds (or fails at the header, for
    /// the oversized-length entry) and the *decoder* reports a typed
    /// `WireError` — distinguishing "the bytes lie" (fail fast) from "the
    /// bytes stopped" (retry), which a mid-frame cut cannot.
    Tamper(WireTamper),
    /// Flip one bit of the response body payload. The decode outcome
    /// depends on what the bit hits (typed `WireError` or a verifier
    /// rejection) — chaos-suite material, where any typed failure is
    /// acceptable and only a *silently accepted wrong answer* is not.
    CorruptBody {
        /// Which payload bit to flip (wrapped modulo the body length).
        bit: u64,
    },
}

/// A reproducible fault schedule: connection `k` (in accept order) gets
/// `script[k]`; connections beyond the script relay faithfully. The
/// whole-proxy [`ChaosProxy::partition`] switch overrides the script — a
/// partitioned endpoint refuses everything until healed.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Per-connection faults, in accept order.
    pub script: Vec<Fault>,
}

impl FaultPlan {
    /// No faults at all.
    pub fn healthy() -> Self {
        FaultPlan { script: Vec::new() }
    }

    /// An explicit per-connection schedule.
    pub fn from_script(script: Vec<Fault>) -> Self {
        FaultPlan { script }
    }

    /// The fault for connection ordinal `k`.
    pub fn fault_for(&self, k: u64) -> Fault {
        self.script.get(k as usize).copied().unwrap_or(Fault::Pass)
    }
}

/// Upper bound on how long a [`Fault::Stall`] holds a connection open. Far
/// beyond any test deadline (the client gives up first) but finite, so an
/// orphaned stall thread cannot outlive a test binary by much.
const STALL_CAP: Duration = Duration::from_secs(30);

struct ProxyShared {
    upstream: SocketAddr,
    plan: Mutex<FaultPlan>,
    partitioned: AtomicBool,
    connections: AtomicU64,
    stop: AtomicBool,
    /// Condvar twin of `stop`: stall threads wait on this instead of
    /// sleep-polling, so shutdown wakes them immediately and an orphaned
    /// stall still dies at the cap.
    stopped: Mutex<bool>,
    stop_cv: Condvar,
}

/// A fault-injecting TCP proxy in front of one QS endpoint.
///
/// Each accepted client connection opens its own upstream connection and
/// relays framed traffic, applying the fault its ordinal draws from the
/// plan. The connection counter doubles as the retry-attempt meter: a
/// client that reconnects per attempt registers one proxied connection per
/// attempt, so a test can count retries without instrumenting the client.
pub struct ChaosProxy {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Listen on an OS-chosen loopback port, relaying to `upstream` under
    /// `plan`.
    pub fn spawn(upstream: SocketAddr, plan: FaultPlan) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            upstream,
            plan: Mutex::new(plan),
            partitioned: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            stopped: Mutex::new(false),
            stop_cv: Condvar::new(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shared.stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let k = accept_shared.connections.fetch_add(1, Ordering::AcqRel);
                let conn_shared = Arc::clone(&accept_shared);
                std::thread::spawn(move || proxy_connection(stream, k, conn_shared));
            }
        });
        Ok(ChaosProxy {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Replace the fault schedule (connection ordinals keep counting).
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.shared.plan.lock() = plan;
    }

    /// Sever (or heal) the endpoint wholesale: while partitioned, every
    /// connection — current ordinal notwithstanding — is refused.
    pub fn partition(&self, on: bool) {
        self.shared.partitioned.store(on, Ordering::Release);
    }

    /// Connections accepted so far (the retry-attempt meter).
    pub fn connections(&self) -> u64 {
        self.shared.connections.load(Ordering::Acquire)
    }

    /// Stop accepting and join the accept thread. Stalled relay threads
    /// are woken through the stop condvar immediately; relaying ones wind
    /// down at connection end.
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        *self.shared.stopped.lock() = true;
        self.shared.stop_cv.notify_all();
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_accepting();
        }
    }
}

/// Read one whole frame (4-byte length prefix + body) without interpreting
/// it. Length is bounds-checked so a corrupt peer cannot make the proxy
/// allocate unboundedly.
fn read_raw_frame(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header)?;
    let len = u32::from_be_bytes(header) as usize;
    if len > authdb_wire::DEFAULT_MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame too large to relay",
        ));
    }
    let mut out = Vec::with_capacity(4 + len);
    out.extend_from_slice(&header);
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    out.extend_from_slice(&body);
    Ok(out)
}

/// Hold the connection open, sending nothing, until the proxy's stop
/// condvar fires or the stall cap passes — whichever first. The client's
/// deadline is expected to fire long before either; a waiting stall costs
/// zero wakeups until then (no sleep-poll tick), and shutdown releases it
/// instantly.
fn stall(shared: &ProxyShared) {
    let deadline = Instant::now() + STALL_CAP;
    let mut stopped = shared.stopped.lock();
    while !*stopped {
        if shared
            .stop_cv
            .wait_until(&mut stopped, deadline)
            .timed_out()
        {
            break;
        }
    }
}

/// Relay one client connection under its scheduled fault.
fn proxy_connection(mut client: TcpStream, ordinal: u64, shared: Arc<ProxyShared>) {
    let fault = if shared.partitioned.load(Ordering::Acquire) {
        Fault::RefuseConnect
    } else {
        shared.plan.lock().fault_for(ordinal)
    };
    if fault == Fault::RefuseConnect {
        // Drop the accepted socket immediately; the client sees a closed
        // connection on (or immediately after) connect.
        return;
    }
    let _ = client.set_nodelay(true);
    // Bound relay reads so a dead peer cannot pin this thread forever.
    let _ = client.set_read_timeout(Some(STALL_CAP));
    let Ok(mut upstream) = TcpStream::connect(shared.upstream) else {
        return;
    };
    let _ = upstream.set_nodelay(true);
    let _ = upstream.set_read_timeout(Some(STALL_CAP));

    loop {
        // Request direction: always relayed faithfully (the catalog attacks
        // the answer path; a mangled request would just be refused).
        let Ok(request) = read_raw_frame(&mut client) else {
            return;
        };
        if upstream.write_all(&request).is_err() {
            return;
        }
        if fault == Fault::Stall {
            // The upstream has the request; the client never hears back.
            stall(&shared);
            return;
        }
        let Ok(mut response) = read_raw_frame(&mut upstream) else {
            return;
        };
        match fault {
            Fault::Pass | Fault::RefuseConnect | Fault::Stall => {}
            Fault::Delay { micros } => {
                std::thread::sleep(Duration::from_micros(micros));
            }
            Fault::DisconnectMidFrame => {
                let half = response.len() / 2;
                let _ = client.write_all(&response[..half]);
                return;
            }
            Fault::Tamper(tamper) => tamper.apply(&mut response),
            Fault::CorruptBody { bit } => {
                // Flip a payload bit (past the version byte) so framing
                // survives and the corruption reaches the decoder/verifier.
                if response.len() > 5 {
                    let payload_bits = ((response.len() - 5) * 8) as u64;
                    let b = (bit % payload_bits) as usize;
                    response[5 + b / 8] ^= 1 << (b % 8);
                }
            }
        }
        if client.write_all(&response).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_defaults_to_pass_beyond_script() {
        let plan = FaultPlan::from_script(vec![Fault::Stall]);
        assert_eq!(plan.fault_for(0), Fault::Stall);
        assert_eq!(plan.fault_for(1), Fault::Pass);
        assert_eq!(plan.fault_for(1_000_000), Fault::Pass);
    }
}
