//! The one-shard deployment the integration tests share: a DA, its honest
//! server, and a client (verifier plus pinned view).
#![allow(dead_code)] // each suite uses its own subset

use authdb::core::da::DaConfig;
use authdb::core::qs::{QsOptions, SelectionAnswer};
use authdb::core::shard::{ShardedAggregator, ShardedQueryServer, ShardedSelectionAnswer};
use authdb::core::verify::{EpochView, Verifier, VerifyError, VerifyReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub struct OneShard {
    pub sa: ShardedAggregator,
    pub sqs: ShardedQueryServer,
    pub v: Verifier,
    pub view: EpochView,
}

impl OneShard {
    pub fn new(cfg: DaConfig, rows: Vec<Vec<i64>>, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sa = ShardedAggregator::new(cfg, vec![], &mut rng);
        let boots = sa.bootstrap(rows, 4);
        let sqs = sa.replica(&boots, &QsOptions::default());
        let (v, view) = (sa.verifier(), sa.epoch_view());
        OneShard { sa, sqs, v, view }
    }

    pub fn select(&self, lo: i64, hi: i64) -> ShardedSelectionAnswer {
        self.sqs.select_range(lo, hi).expect("chained mode")
    }

    /// Verify `ans` as the answer to `lo..=hi` at the DA's clock, freshness
    /// on.
    pub fn verify(
        &self,
        lo: i64,
        hi: i64,
        ans: &ShardedSelectionAnswer,
    ) -> Result<VerifyReport, VerifyError> {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let now = self.sa.now();
        self.v
            .verify_sharded_selection(lo, hi, ans, &self.view, now, true, &mut rng)
    }

    /// Update record `rid` and forward the certified messages.
    pub fn update(&mut self, rid: u64, attrs: Vec<i64>) {
        self.sqs.apply_all(&self.sa.update_record(0, rid, attrs).1);
    }

    /// Forward whatever summaries fall due.
    pub fn publish(&mut self) {
        self.sqs.ingest(self.sa.maybe_publish_summaries());
    }
}

/// The single part of a one-shard fan-out.
pub fn part(ans: &mut ShardedSelectionAnswer) -> &mut SelectionAnswer {
    &mut ans.parts[0].answer
}
