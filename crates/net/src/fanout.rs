//! Per-shard fan-out with sound partial-answer degradation — the one
//! retrying client.
//!
//! A single [`QsClient`] talking to a single endpoint is all-or-nothing:
//! one partitioned shard takes the whole answer down. [`ShardFanout`]
//! instead queries each shard's endpoint independently (a fresh connection
//! per attempt, each endpoint with its own deadlines and retry budget, see
//! [`crate::retry`]) and degrades *soundly* when some shards are dark:
//!
//! * The sub-range each shard is asked for comes from the fanout's
//!   **pinned map** — never from the servers — so no endpoint can shrink
//!   its own responsibility.
//! * A shard that exhausts its retries on *transport* faults is recorded
//!   as a [`ShardOutage`] with its typed error. That outage list is the
//!   client's own evidence, and it is exactly what
//!   `Verifier::verify_partial_selection` consumes as the `unreachable`
//!   set: the verifier certifies every reachable tile and marks only the
//!   listed shards `ShardUnavailable`.
//! * An **integrity** fault on any shard (wire corruption, refusal,
//!   protocol violation) fails the whole fan-out. Degradation is for
//!   weather, not for tampering — folding a corrupt shard into "partial"
//!   would launder evidence into unavailability.
//!
//! The asymmetry this preserves is the tentpole invariant: a shard the
//! client *could* reach but whose part is missing from the answer is
//! `ShardWithheld` (a verification failure), while only shards the client
//! itself failed to reach become `ShardUnavailable` (a certified partial
//! answer). A malicious publisher cannot convert withholding into an
//! innocent-looking outage, because the outage list never passes through
//! its hands.
//!
//! Both calls, [`ShardFanout::select_range`] and [`ShardFanout::checkpoint`],
//! are idempotent and so safe to retry; a rebalance goes through a plain
//! [`QsClient`], whose caller owns its at-most-once semantics.

use authdb_core::shard::{EpochBootstrap, ShardAnswer, ShardMap, ShardedSelectionAnswer};

use crate::client::QsClient;
use crate::retry::ClientConfig;
use crate::NetError;

/// One shard the fan-out could not reach, with the final typed transport
/// error (always retryable-class — integrity faults abort the fan-out
/// instead of landing here).
#[derive(Debug)]
pub struct ShardOutage {
    /// The unreachable shard's index.
    pub shard: usize,
    /// The transport error its last attempt surfaced.
    pub error: NetError,
}

/// A fan-out result: the stitched multi-shard answer for every shard that
/// responded, plus the client's own record of which shards were dark.
#[derive(Debug)]
pub struct PartialAnswer {
    /// Parts from every reachable shard, in shard order, under the pinned
    /// map — directly consumable by `verify_partial_selection`.
    pub answer: ShardedSelectionAnswer,
    /// Shards that exhausted their retry budget, with the final errors.
    pub outages: Vec<ShardOutage>,
}

impl PartialAnswer {
    /// Whether every overlapping shard answered (the fault-free case; the
    /// answer then also satisfies the ordinary full verifier).
    pub fn is_complete(&self) -> bool {
        self.outages.is_empty()
    }

    /// The unreachable shard indices — the `unreachable` argument for
    /// `Verifier::verify_partial_selection`.
    pub fn unreachable(&self) -> Vec<usize> {
        self.outages.iter().map(|o| o.shard).collect()
    }
}

/// The retrying multi-endpoint client: shard `i` of the pinned map is
/// served by `endpoints[i]`.
pub struct ShardFanout {
    map: ShardMap,
    endpoints: Vec<String>,
    config: ClientConfig,
}

impl ShardFanout {
    /// Fan out over `endpoints` under the client's pinned `map` — the
    /// `map` of an `EpochBootstrap` bundle (`QsClient::checkpoint`) that
    /// `EpochView::from_bootstrap` or `EpochView::observe` accepted, so its
    /// hash is the one the view pins.
    ///
    /// # Panics
    ///
    /// If the endpoint list does not cover the map's shards one-to-one.
    pub fn new(map: ShardMap, endpoints: Vec<String>, config: ClientConfig) -> Self {
        assert_eq!(
            endpoints.len(),
            map.shard_count(),
            "one endpoint per shard of the pinned map"
        );
        ShardFanout {
            map,
            endpoints,
            config,
        }
    }

    /// Select `lo..=hi`, querying each overlapping shard independently.
    ///
    /// Returns `Ok` with a (possibly partial) answer when every fault
    /// encountered was transport-class; returns `Err` on the first
    /// integrity fault — a corrupt or refusing shard poisons the whole
    /// answer rather than hiding among outages.
    pub fn select_range(&self, lo: i64, hi: i64) -> Result<PartialAnswer, NetError> {
        let mut parts = Vec::new();
        let mut outages = Vec::new();
        for (shard, (sub_lo, sub_hi)) in self.map.overlapping(lo, hi) {
            match self.with_retries(shard, |c| c.select_shard(shard, sub_lo, sub_hi)) {
                Ok(answer) => parts.push(ShardAnswer { shard, answer }),
                Err(e) if e.is_retryable() => outages.push(ShardOutage { shard, error: e }),
                Err(e) => return Err(e),
            }
        }
        Ok(PartialAnswer {
            answer: ShardedSelectionAnswer {
                map: self.map.clone(),
                parts,
            },
            outages,
        })
    }

    /// The server's O(1) epoch bundle (live map, latest transition, epoch
    /// checkpoint) for `EpochView::from_bootstrap` / `EpochView::observe`,
    /// asked of the first endpoint: every endpoint fronts the same
    /// deployment, and the bundle verifies on its own signatures.
    pub fn checkpoint(&self) -> Result<EpochBootstrap, NetError> {
        self.with_retries(0, QsClient::checkpoint)
    }

    /// Run one idempotent request against `shard`'s endpoint, retrying
    /// retryable faults with backoff. Each attempt uses a fresh connection:
    /// after a timeout or mid-frame disconnect the old stream's framing
    /// state is unknown, and a response to a *previous* attempt arriving on
    /// a reused stream would be misattributed to the current one.
    fn with_retries<T>(
        &self,
        shard: usize,
        mut op: impl FnMut(&mut QsClient) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        // Per-shard jitter seed: decorrelate shard retries while keeping
        // the whole fan-out reproducible from one config.
        let mut retry = self.config.retry;
        retry.jitter_seed = retry
            .jitter_seed
            .wrapping_add((shard as u64).wrapping_mul(0x9e37_79b9));
        let mut k = 0usize;
        loop {
            let outcome = QsClient::connect_with(&*self.endpoints[shard], &self.config)
                .and_then(|mut c| op(&mut c));
            match outcome {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() && k < retry.max_retries => {
                    std::thread::sleep(retry.backoff(k));
                    k += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}
