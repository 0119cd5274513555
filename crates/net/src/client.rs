//! The blocking query-server client.
//!
//! A [`QsClient`] owns one TCP connection and exchanges framed
//! request/response pairs — one at a time, or as an id-tagged pipelined
//! batch ([`QsClient::pipeline_select`]) that amortizes the round-trip
//! over many queries. It decodes — nothing more: every answer must
//! still go through the existing `Verifier` on the caller's side, with the
//! caller's own clock and independently obtained public parameters. The
//! client also meters bytes in both directions, which is what the loopback
//! suite uses to check the simulator's message-size model against reality.

use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};

use authdb_core::qs::{ProjectionAnswer, QsStats, SelectionAnswer};
use authdb_core::shard::{EpochBootstrap, Rebalance, ShardedSelectionAnswer};
use authdb_core::wire::{Request, Response};
use authdb_wire::{deframe, frame, DEFAULT_MAX_FRAME_LEN};

use crate::retry::ClientConfig;
use crate::{read_frame_body, NetError};

/// A connected client.
pub struct QsClient {
    stream: TcpStream,
    max_frame_len: usize,
    bytes_received: u64,
    last_response_bytes: usize,
}

impl QsClient {
    /// Connect with the default cap on a response frame's declared length —
    /// the client-side guard against a malicious server's oversized length
    /// prefix.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(QsClient {
            stream,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            bytes_received: 0,
            last_response_bytes: 0,
        })
    }

    /// Connect with deadlines: the connect attempt, every read, and every
    /// write are bounded by `config`. A fired deadline surfaces as
    /// [`NetError::Timeout`] — this is the connection the chaos suite uses,
    /// because it provably cannot hang on a stalled or partitioned peer.
    pub fn connect_with(addr: impl ToSocketAddrs, config: &ClientConfig) -> Result<Self, NetError> {
        let mut last: Option<std::io::Error> = None;
        let mut stream = None;
        for a in addr
            .to_socket_addrs()
            .map_err(|e| NetError::from_io(e, "resolve"))?
        {
            match TcpStream::connect_timeout(&a, config.connect_timeout) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last = Some(e),
            }
        }
        let stream = match stream {
            Some(s) => s,
            None => {
                let e = last.unwrap_or_else(|| {
                    std::io::Error::new(std::io::ErrorKind::InvalidInput, "no addresses resolved")
                });
                return Err(NetError::from_io(e, "connect"));
            }
        };
        stream.set_nodelay(true)?;
        stream
            .set_read_timeout(Some(config.read_timeout))
            .map_err(|e| NetError::from_io(e, "connect"))?;
        stream
            .set_write_timeout(Some(config.write_timeout))
            .map_err(|e| NetError::from_io(e, "connect"))?;
        Ok(QsClient {
            stream,
            max_frame_len: config.max_frame_len,
            bytes_received: 0,
            last_response_bytes: 0,
        })
    }

    /// Total bytes read from the server (frame headers included).
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Size of the most recent response, header included — the per-answer
    /// bytes-on-wire measurement.
    pub fn last_response_bytes(&self) -> usize {
        self.last_response_bytes
    }

    fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        let out = frame(request);
        self.stream
            .write_all(&out)
            .map_err(|e| NetError::from_io(e, "write"))?;
        let response = self.read_response()?;
        // A shed is never the answer to anything: surface it as the typed
        // retryable error before any per-method matching.
        match response {
            Response::Busy => Err(NetError::Overloaded),
            r => Ok(r),
        }
    }

    /// One exchange whose answer `pick` takes out of the expected response
    /// variant: a refusal is typed, any other variant is a protocol error
    /// reading `expected`.
    fn exchange<T>(
        &mut self,
        request: &Request,
        expected: &'static str,
        pick: impl FnOnce(Response) -> Option<T>,
    ) -> Result<T, NetError> {
        match self.call(request)? {
            Response::Refused(e) => Err(NetError::Refused(e)),
            r => pick(r).ok_or(NetError::Protocol(expected)),
        }
    }

    fn read_response(&mut self) -> Result<Response, NetError> {
        let body = read_frame_body(&mut self.stream, self.max_frame_len)?;
        self.last_response_bytes = 4 + body.len();
        self.bytes_received += self.last_response_bytes as u64;
        Ok(deframe(&body)?)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), NetError> {
        self.exchange(&Request::Ping, "expected Pong", |r| match r {
            Response::Pong => Some(()),
            _ => None,
        })
    }

    /// Range selection `lo <= Aind <= hi`. The returned fan-out answer is
    /// exactly what `Verifier::verify_sharded_selection` consumes.
    pub fn select_range(&mut self, lo: i64, hi: i64) -> Result<ShardedSelectionAnswer, NetError> {
        let request = Request::Select { lo, hi };
        self.exchange(&request, "expected Selection", |r| match r {
            Response::Selection(answer) => Some(answer),
            _ => None,
        })
    }

    /// One shard's tile of a range selection, addressed by shard index —
    /// the per-endpoint request a [`ShardFanout`](crate::ShardFanout)
    /// issues so that one partitioned shard cannot take the whole answer
    /// down with it. The sub-range and index come from the client's pinned
    /// map, never from the server.
    pub fn select_shard(
        &mut self,
        shard: usize,
        lo: i64,
        hi: i64,
    ) -> Result<SelectionAnswer, NetError> {
        let request = Request::SelectShard {
            shard: shard as u32,
            lo,
            hi,
        };
        self.exchange(&request, "expected ShardSelection", |r| match r {
            Response::ShardSelection(answer) => Some(*answer),
            _ => None,
        })
    }

    /// Projection of `attrs` over the range, for
    /// `Verifier::verify_projection`.
    pub fn project(
        &mut self,
        lo: i64,
        hi: i64,
        attrs: &[usize],
    ) -> Result<ProjectionAnswer, NetError> {
        let attrs: Vec<u32> = attrs.iter().map(|&a| a as u32).collect();
        let request = Request::Project { lo, hi, attrs };
        self.exchange(&request, "expected Projection", |r| match r {
            Response::Projection(answer) => Some(*answer),
            _ => None,
        })
    }

    /// The server's aggregated proof-construction statistics.
    pub fn stats(&mut self) -> Result<QsStats, NetError> {
        self.exchange(&Request::Stats, "expected Stats", |r| match r {
            Response::Stats(stats) => Some(stats),
            _ => None,
        })
    }

    /// Per-shard proof-construction statistics, in shard order — the load
    /// signal an auto-rebalance driver feeds to
    /// `authdb_core::policy::AutoRebalancer`.
    pub fn shard_stats(&mut self) -> Result<Vec<QsStats>, NetError> {
        self.exchange(&Request::ShardStats, "expected ShardStats", |r| match r {
            Response::ShardStats(stats) => Some(stats),
            _ => None,
        })
    }

    /// Pipeline a batch of range selections over this one connection:
    /// every request is written up front as an id-tagged frame, then all
    /// responses are read back and matched by their echoed ids. One
    /// round-trip's latency is paid once for the whole batch instead of
    /// once per query — the multiplexing win `fig_conc` measures.
    ///
    /// The outer `Result` is the connection's fate; the per-query results
    /// distinguish an answer from a typed per-request failure (a refusal,
    /// or a [`NetError::Overloaded`] shed under backpressure — retryable
    /// individually without abandoning the batch's other answers).
    #[allow(clippy::type_complexity)]
    pub fn pipeline_select(
        &mut self,
        ranges: &[(i64, i64)],
    ) -> Result<Vec<Result<ShardedSelectionAnswer, NetError>>, NetError> {
        let mut out = Vec::with_capacity(ranges.len() * 16);
        for (id, &(lo, hi)) in ranges.iter().enumerate() {
            let request = Request::Tagged {
                id: id as u64,
                inner: Box::new(Request::Select { lo, hi }),
            };
            out.extend_from_slice(&frame(&request));
        }
        self.stream
            .write_all(&out)
            .map_err(|e| NetError::from_io(e, "write"))?;

        let mut results: Vec<Option<Result<ShardedSelectionAnswer, NetError>>> =
            (0..ranges.len()).map(|_| None).collect();
        for _ in 0..ranges.len() {
            let (id, inner) = match self.read_response()? {
                Response::Tagged { id, inner } => (id, *inner),
                _ => return Err(NetError::Protocol("expected Tagged response")),
            };
            let slot = results
                .get_mut(id as usize)
                .ok_or(NetError::Protocol("tagged response to an unknown id"))?;
            if slot.is_some() {
                return Err(NetError::Protocol("duplicate tagged response id"));
            }
            *slot = Some(match inner {
                Response::Selection(answer) => Ok(answer),
                Response::Busy => Err(NetError::Overloaded),
                Response::Refused(e) => Err(NetError::Refused(e)),
                _ => Err(NetError::Protocol("expected Selection in Tagged")),
            });
        }
        // Every id in 0..n seen exactly once (unknowns and duplicates were
        // typed errors above), so every slot is filled.
        Ok(results.into_iter().flatten().collect())
    }

    /// The server's latest certified epoch bundle: the current map, its
    /// transition, and the epoch checkpoint hash-chained to it. Feed it to
    /// `EpochView::from_bootstrap` (fresh client) or `EpochView::observe`
    /// (pinned client catching up) — the client decides nothing here, and
    /// either way verifies O(1) signatures over O(1) bytes regardless of
    /// how many epochs have passed.
    pub fn checkpoint(&mut self) -> Result<EpochBootstrap, NetError> {
        self.exchange(&Request::Checkpoint, "expected Checkpoint", |r| match r {
            Response::Checkpoint(boot) => Some(*boot),
            _ => None,
        })
    }

    /// Push a DA-certified rebalance package to the live server (the
    /// epoch-bump channel a DA-side driver uses; a structurally
    /// inconsistent package is refused without touching the server).
    pub fn rebalance(&mut self, rb: &Rebalance) -> Result<(), NetError> {
        let request = Request::Rebalance(Box::new(rb.clone()));
        self.exchange(&request, "expected Rebalanced", |r| match r {
            Response::Rebalanced => Some(()),
            _ => None,
        })
    }
}
