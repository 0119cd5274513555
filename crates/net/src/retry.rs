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
//!    [`NetError::is_retryable`](crate::NetError::is_retryable) admits
//!    timeouts, I/O errors, and
//!    [`NetError::Overloaded`](crate::NetError::Overloaded) (the server's
//!    typed backpressure shed — an explicit "come back later"); a decode
//!    failure or refusal is an answer, and re-soliciting it blindly would
//!    let a tampering server use "retry" as a second chance to be believed.
//! 3. **Only idempotent requests are retried.**
//!    [`ShardFanout`](crate::ShardFanout) is the one retrying client, and
//!    it exposes only what is safe to re-ask — a shard's selection tile and
//!    the epoch bundle — not `Rebalance`. A retried rebalance whose first
//!    attempt actually landed would be refused as a stale epoch, but the
//!    restriction keeps the reasoning local: nothing retried mutates the
//!    server.
//!
//! Backoff is exponential with deterministic jitter: attempt `k` sleeps
//! `min(max_backoff, base << k)` scaled by a factor in `[0.5, 1.0]` drawn
//! from a [splitmix64](https://prng.di.unimi.it/splitmix64.c) stream seeded
//! by [`RetryPolicy::jitter_seed`]. Seeded jitter keeps chaos tests exactly
//! reproducible while still decorrelating concurrent clients in deployment
//! (give each a different seed).

use std::time::Duration;

/// Deadlines and retry behavior for a resilient connection. A response
/// frame's declared length is capped at `authdb_wire::DEFAULT_MAX_FRAME_LEN`
/// on every connection.
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
    /// How transport faults are retried.
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            retry: RetryPolicy::default(),
        }
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
    fn backoff_ceiling(&self, k: usize) -> Duration {
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

/// One step of the splitmix64 PRNG: seeded jitter without a random-number
/// crate in the runtime dependencies.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
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
