//! Deadlines, bounded retries, and jittered exponential backoff.
//!
//! The paper's verifier makes the *content* of an answer trustworthy; this
//! module makes the *transport* survivable without ever trading soundness
//! for liveness. Three rules, all enforced by types rather than discipline:
//!
//! 1. **Every blocking operation has a deadline.** [`ClientConfig`] bounds
//!    connect, read, and write; a stalled or partitioned server costs at
//!    most the deadline budget, never a hung client.
//! 2. **Only transport faults and load sheds are retried.**
//!    [`NetError::is_retryable`] admits timeouts, I/O errors, and
//!    [`NetError::Overloaded`] (the server's typed backpressure shed — an
//!    explicit "come back later"); a decode failure or refusal is an
//!    answer, and re-soliciting it blindly would let a tampering server
//!    use "retry" as a second chance to be believed.
//! 3. **Only idempotent requests are retried.** [`ResilientClient`]
//!    exposes what its callers retry — a shard's selection tile and the
//!    epoch bundle — not `Rebalance`. A retried rebalance whose first attempt actually landed
//!    would be refused as a stale epoch, but the restriction keeps the
//!    reasoning local: nothing retried here mutates the server.
//!
//! Backoff is exponential with deterministic jitter: attempt `k` sleeps
//! `min(max_backoff, base << k)` scaled by a factor in `[0.5, 1.0]` drawn
//! from a [splitmix64](https://prng.di.unimi.it/splitmix64.c) stream seeded
//! by [`RetryPolicy::jitter_seed`]. Seeded jitter keeps chaos tests and the
//! `fig_chaos` bench exactly reproducible while still decorrelating
//! concurrent clients in deployment (give each a different seed).

use std::time::Duration;

use authdb_core::qs::SelectionAnswer;
use authdb_core::shard::EpochBootstrap;
use authdb_wire::DEFAULT_MAX_FRAME_LEN;

use crate::client::QsClient;
use crate::{splitmix64, NetError};

/// Deadlines and retry behavior for a resilient connection.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Bound on the TCP connect attempt.
    pub connect_timeout: Duration,
    /// Bound on each blocking read (applies per `read` call, so a response
    /// streamed at a trickle still makes progress as long as every chunk
    /// arrives within this bound).
    pub read_timeout: Duration,
    /// Bound on each blocking write.
    pub write_timeout: Duration,
    /// Cap on a response frame's declared length.
    pub max_frame_len: usize,
    /// How transport faults are retried.
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            retry: RetryPolicy::default(),
        }
    }
}

impl ClientConfig {
    /// A tight-deadline profile for tests: sub-second timeouts so a
    /// deliberately stalled peer costs milliseconds, not CI minutes.
    pub fn fast() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_millis(300),
            read_timeout: Duration::from_millis(300),
            write_timeout: Duration::from_millis(300),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::from_millis(10),
                max_backoff: Duration::from_millis(40),
                jitter_seed: 7,
            },
        }
    }

    /// Worst-case wall-clock budget for one request through
    /// [`ResilientClient`]: every attempt hitting its connect + write +
    /// read deadlines, plus every backoff sleep at its maximum. Chaos tests
    /// assert elapsed time never exceeds this — the "never hangs" bound.
    pub fn deadline_budget(&self) -> Duration {
        let attempts = self.retry.max_retries as u32 + 1;
        let per_attempt = self.connect_timeout + self.write_timeout + self.read_timeout;
        let mut backoff = Duration::ZERO;
        for k in 0..self.retry.max_retries {
            backoff += self.retry.backoff_ceiling(k);
        }
        per_attempt * attempts + backoff
    }
}

/// Bounded, jittered exponential backoff.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail on first transport fault).
    pub max_retries: usize,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff sleep.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(800),
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// The un-jittered ceiling for the sleep before retry `k` (0-based):
    /// `min(max_backoff, base_backoff * 2^k)`.
    pub fn backoff_ceiling(&self, k: usize) -> Duration {
        let doubled = self
            .base_backoff
            .checked_mul(1u32 << k.min(20))
            .unwrap_or(self.max_backoff);
        doubled.min(self.max_backoff)
    }

    /// The actual sleep before retry `k`: the ceiling scaled by a jitter
    /// factor in `[0.5, 1.0]` drawn deterministically from
    /// `(jitter_seed, k)`.
    pub fn backoff(&self, k: usize) -> Duration {
        let ceiling = self.backoff_ceiling(k);
        let unit = splitmix64(self.jitter_seed.wrapping_add(k as u64)) as f64 / (u64::MAX as f64);
        ceiling.mul_f64(0.5 + 0.5 * unit)
    }
}

/// A client that reconnects and retries idempotent requests through
/// transport faults, under the deadlines and backoff of its
/// [`ClientConfig`]. Each attempt uses a fresh connection: after a timeout
/// or mid-frame disconnect the old stream's framing state is unknown, and a
/// response to a *previous* attempt arriving on a reused stream would be
/// misattributed to the current one.
///
/// `Rebalance` is deliberately absent — it mutates the server and is not
/// safe to blind-retry; drivers that push rebalances use [`QsClient`]
/// directly and handle their own at-most-once semantics.
pub struct ResilientClient {
    addr: String,
    config: ClientConfig,
    attempts: u64,
}

impl ResilientClient {
    /// Target `addr` (resolved fresh per attempt) under `config`.
    pub fn new(addr: impl Into<String>, config: ClientConfig) -> Self {
        ResilientClient {
            addr: addr.into(),
            config,
            attempts: 0,
        }
    }

    /// Total connection attempts made (successful or not) — the numerator
    /// of the retry-amplification factor `fig_chaos` measures.
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Run one idempotent request, retrying retryable faults with backoff.
    fn with_retries<T>(
        &mut self,
        mut op: impl FnMut(&mut QsClient) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let mut k = 0usize;
        loop {
            self.attempts += 1;
            let outcome =
                QsClient::connect_with(&*self.addr, &self.config).and_then(|mut c| op(&mut c));
            match outcome {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() && k < self.config.retry.max_retries => {
                    std::thread::sleep(self.config.retry.backoff(k));
                    k += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One shard's tile of a selection, addressed by index.
    pub fn select_shard(
        &mut self,
        shard: usize,
        lo: i64,
        hi: i64,
    ) -> Result<SelectionAnswer, NetError> {
        self.with_retries(|c| c.select_shard(shard, lo, hi))
    }

    /// The server's O(1) epoch bundle (live map, latest transition, epoch
    /// checkpoint) for `EpochView::from_bootstrap` / `EpochView::observe`.
    pub fn checkpoint(&mut self) -> Result<EpochBootstrap, NetError> {
        self.with_retries(|c| c.checkpoint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_bounded_and_deterministic() {
        let p = RetryPolicy {
            max_retries: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(60),
            jitter_seed: 42,
        };
        for k in 0..8 {
            let ceiling = p.backoff_ceiling(k);
            assert!(ceiling <= Duration::from_millis(60));
            let b1 = p.backoff(k);
            let b2 = p.backoff(k);
            assert_eq!(b1, b2, "jitter must be deterministic per (seed, k)");
            assert!(b1 <= ceiling);
            assert!(b1 >= ceiling.mul_f64(0.5));
        }
        // Exponential until the cap.
        assert_eq!(p.backoff_ceiling(0), Duration::from_millis(10));
        assert_eq!(p.backoff_ceiling(1), Duration::from_millis(20));
        assert_eq!(p.backoff_ceiling(2), Duration::from_millis(40));
        assert_eq!(p.backoff_ceiling(3), Duration::from_millis(60));
    }

    #[test]
    fn deadline_budget_covers_all_attempts() {
        let c = ClientConfig::fast();
        let budget = c.deadline_budget();
        // 3 attempts * (300+300+300)ms + backoffs (10 + 20 capped at 40).
        assert!(budget >= Duration::from_millis(2700));
        assert!(budget <= Duration::from_millis(2700 + 60));
    }

    #[test]
    fn different_seeds_decorrelate() {
        let a = RetryPolicy {
            jitter_seed: 1,
            ..RetryPolicy::default()
        };
        let b = RetryPolicy {
            jitter_seed: 2,
            ..RetryPolicy::default()
        };
        let same = (0..4).all(|k| a.backoff(k) == b.backoff(k));
        assert!(
            !same,
            "distinct seeds should give distinct jitter somewhere"
        );
    }
}
