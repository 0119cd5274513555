//! The deployment every test drives, and the scripted-workload vocabulary
//! the property suites share.
//!
//! A [`Deployment`] is the three parties of one deployment — DA, honest
//! server, and a client (verifier plus pinned view) — addressed by
//! *logical* record id, so one script drives deployments whose shard-local
//! rids diverge and are reshuffled by every handoff. The verifier's suite,
//! `crates/core/tests/verifier.rs`, runs on it too, and [`serve`] puts one
//! behind a loopback [`QsServer`]. [`Model`] is the plain
//! model of the logical operations every deployment's answers are compared
//! against; [`Op`] and its decoders turn proptest tuples into scripts.

use authdb_core::da::DaConfig;
use authdb_core::freshness::SummaryCheckpoint;
use authdb_core::qs::{QsOptions, SelectionAnswer};
use authdb_core::record::Tick;
use authdb_core::shard::{
    RebalancePlan, ShardedAggregator, ShardedQueryServer, ShardedSelectionAnswer,
};
use authdb_core::verify::{EpochView, Verifier, VerifyError, VerifyReport};
use authdb_crypto::signer::SchemeKind;
use authdb_net::{QsServer, QsServerOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// [`DaConfig::small`] under `scheme`.
pub fn config(scheme: SchemeKind) -> DaConfig {
    DaConfig {
        scheme,
        ..DaConfig::small()
    }
}

/// The single part of a one-shard fan-out.
pub fn part(ans: &mut ShardedSelectionAnswer) -> &mut SelectionAnswer {
    &mut ans.parts[0].answer
}

/// `d` behind a loopback [`QsServer`] started with `opts`: the DA, the
/// running server, and the client's verifier and pinned view. The DA keeps
/// certifying while the server answers; its updates and summaries reach the
/// serving replica through `server.with_server`.
pub fn serve(
    d: Deployment,
    opts: QsServerOptions,
) -> (ShardedAggregator, QsServer, Verifier, EpochView) {
    let server = QsServer::spawn(d.sqs, opts).expect("bind loopback");
    (d.sa, server, d.v, d.view)
}

/// One scripted operation over *logical* records.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    Insert {
        key: i64,
        val: i64,
    },
    Update {
        target: u64,
        key: i64,
        val: i64,
    },
    Delete {
        target: u64,
    },
    Advance {
        dt: u64,
    },
    /// Split (sel even) or merge (sel odd), the concrete plan derived from
    /// the live map at execution time ([`derive_plan`]).
    Rebalance {
        sel: u64,
        at_raw: i64,
    },
    /// Compact one shard's summary log.
    Checkpoint {
        sel: u64,
        keep_raw: u64,
    },
}

/// Decode proptest tuples into ops, drawing from the first `kinds` kinds in
/// [`Op`]'s declaration order (4: data and clock; 5: + rebalances; 6: +
/// checkpoints).
pub fn decode_ops(raw: &[(u8, i64, i64)], kinds: u8) -> Vec<Op> {
    raw.iter()
        .map(|&(op, a, b)| match op % kinds {
            0 => Op::Insert { key: a, val: b },
            1 => Op::Update {
                target: a.unsigned_abs(),
                key: b,
                val: a,
            },
            2 => Op::Delete {
                target: a.unsigned_abs(),
            },
            3 => Op::Advance {
                dt: (a.unsigned_abs() % 4) + 1,
            },
            4 => Op::Rebalance {
                sel: a.unsigned_abs(),
                at_raw: b,
            },
            _ => Op::Checkpoint {
                sel: a.unsigned_abs(),
                keep_raw: b.unsigned_abs(),
            },
        })
        .collect()
}

/// The bootstrap rows every suite starts from: duplicate keys on purpose
/// (`i % (key_span / 2)` collides quickly).
pub fn initial_rows(n0: usize, key_span: i64) -> Vec<Vec<i64>> {
    let modulus = (key_span / 2).max(1);
    (0..n0 as i64).map(|i| vec![i % modulus, i]).collect()
}

/// Valid split keys inside the workload's key domain `(-key_span, key_span)`.
pub fn decode_splits(raw: &[i64], key_span: i64) -> Vec<i64> {
    let mut splits: Vec<i64> = raw
        .iter()
        .map(|&s| s.rem_euclid(2 * key_span) - key_span)
        .collect();
    splits.sort_unstable();
    splits.dedup();
    splits
}

/// Derive a concrete valid plan from an op's raw material and the live
/// map, or `None` when no valid plan exists (e.g. a merge on one shard, or a
/// split window with no room). Split keys are confined to
/// `[-2*key_span, 2*key_span]` so the partition stays meaningful for the
/// workload's key domain, and the fan-out stays bounded at 8 shards.
pub fn derive_plan(sel: u64, at_raw: i64, splits: &[i64], key_span: i64) -> Option<RebalancePlan> {
    let shard_count = splits.len() + 1;
    let window = 2 * key_span;
    if sel % 2 == 1 && shard_count >= 2 {
        return Some(RebalancePlan::Merge {
            left: (sel as usize / 2) % (shard_count - 1),
        });
    }
    if shard_count >= 8 {
        return None;
    }
    let shard = (sel as usize / 2) % shard_count;
    let lo = if shard == 0 {
        -window
    } else {
        splits[shard - 1].saturating_add(1)
    };
    let hi = if shard == splits.len() {
        window
    } else {
        splits[shard].saturating_sub(1)
    };
    if lo > hi {
        return None;
    }
    let span = (hi - lo + 1) as i128;
    let at = lo + (at_raw as i128).rem_euclid(span) as i64;
    Some(RebalancePlan::Split { shard, at })
}

/// The plain model of the logical operations: logical id → live row.
pub struct Model(Vec<Option<Vec<i64>>>);

impl Model {
    pub fn new(rows: &[Vec<i64>]) -> Self {
        Model(rows.iter().cloned().map(Some).collect())
    }

    /// Live logical ids, ascending.
    pub fn live(&self) -> Vec<usize> {
        let ids = self.0.iter().enumerate();
        ids.filter_map(|(i, row)| row.as_ref().map(|_| i)).collect()
    }

    /// The live logical id a script's `target` selects, if any record lives.
    pub fn pick(&self, target: u64) -> Option<usize> {
        let live = self.live();
        (!live.is_empty()).then(|| live[target as usize % live.len()])
    }

    pub fn insert(&mut self, attrs: Vec<i64>) {
        self.0.push(Some(attrs));
    }

    pub fn update(&mut self, logical: usize, attrs: Vec<i64>) {
        self.0[logical] = Some(attrs);
    }

    pub fn delete(&mut self, logical: usize) {
        self.0[logical] = None;
    }

    /// The rows whose key lies in `lo..=hi`, sorted.
    pub fn range(&self, lo: i64, hi: i64) -> Vec<Vec<i64>> {
        let live = self.0.iter().flatten();
        let mut rows: Vec<Vec<i64>> = live
            .filter(|row| lo <= row[0] && row[0] <= hi)
            .cloned()
            .collect();
        rows.sort();
        rows
    }
}

/// Apply a data or clock op to the model and to every deployment alike.
/// Returns `false`, touching nothing, for the ops a suite scripts itself
/// (rebalances and checkpoints).
pub fn apply_op(
    op: Op,
    key_span: i64,
    model: &mut Model,
    deployments: &mut [&mut Deployment],
) -> bool {
    match op {
        Op::Insert { key, val } => {
            let attrs = vec![key % key_span, val];
            model.insert(attrs.clone());
            for d in deployments {
                d.insert(attrs.clone());
            }
        }
        Op::Update { target, key, val } => {
            if let Some(logical) = model.pick(target) {
                let attrs = vec![key % key_span, val];
                model.update(logical, attrs.clone());
                for d in deployments {
                    d.update(logical, attrs.clone());
                }
            }
        }
        Op::Delete { target } => {
            if let Some(logical) = model.pick(target) {
                model.delete(logical);
                for d in deployments {
                    d.delete(logical);
                }
            }
        }
        Op::Advance { dt } => {
            for d in deployments {
                d.sa.advance_clock(dt);
            }
        }
        Op::Rebalance { .. } | Op::Checkpoint { .. } => return false,
    }
    true
}

/// One deployment — DA, server, verifier and the client's pinned view —
/// addressed by logical record id.
pub struct Deployment {
    pub sa: ShardedAggregator,
    pub sqs: ShardedQueryServer,
    pub v: Verifier,
    pub view: EpochView,
    /// logical id -> live `(shard, rid)`.
    pub loc: Vec<Option<(usize, u64)>>,
    /// logical id -> current indexed key (to replay handoff routing when a
    /// rebalance reassigns shard-local rids).
    keys: Vec<Option<i64>>,
}

impl Deployment {
    /// Bootstrap `rows` (logical id = position) under `cfg`, split at
    /// `splits`, the DA keyed from `seed`.
    pub fn new(cfg: DaConfig, rows: &[Vec<i64>], splits: Vec<i64>, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sa = ShardedAggregator::new(cfg, splits, &mut rng);
        // The bootstrap reorders rows by shard; recover each logical row's
        // address by replaying the routing.
        let mut next_rid = vec![0u64; sa.map().shard_count()];
        let loc = rows
            .iter()
            .map(|row| {
                let shard = sa.map().shard_of(row[0]);
                let rid = next_rid[shard];
                next_rid[shard] += 1;
                Some((shard, rid))
            })
            .collect();
        let keys = rows.iter().map(|row| Some(row[0])).collect();
        let boots = sa.bootstrap(rows.to_vec(), 2);
        let sqs = sa.replica(&boots, &QsOptions::default());
        let (v, view) = (sa.verifier(), sa.epoch_view());
        Deployment {
            sa,
            sqs,
            v,
            view,
            loc,
            keys,
        }
    }

    /// The deployment every scripted scenario shares — the tamper and
    /// network-fault catalogs and the loopback tests: `n` records
    /// `[i·10, i]` in `shards` equal key ranges (one shard: the whole key
    /// space) under `cfg`, the DA keyed from seed 1337.
    pub fn catalog(cfg: DaConfig, shards: i64, n: i64) -> Self {
        let splits = (1..shards).map(|i| i * n * 10 / shards).collect();
        let rows: Vec<Vec<i64>> = (0..n).map(|i| vec![i * 10, i]).collect();
        Self::new(cfg, &rows, splits, 1337)
    }

    /// The honest answer to `lo..=hi`.
    pub fn select(&self, lo: i64, hi: i64) -> ShardedSelectionAnswer {
        self.sqs
            .select_range(lo, hi)
            .expect("selections are never refused")
    }

    /// Verify `ans` as the answer to `lo..=hi` under the pinned view at the
    /// DA's clock, freshness on, with fold coefficients from a fixed seed.
    pub fn verify(
        &self,
        lo: i64,
        hi: i64,
        ans: &ShardedSelectionAnswer,
    ) -> Result<VerifyReport, VerifyError> {
        self.verify_at(lo, hi, ans, self.sa.now())
    }

    /// [`Deployment::verify`] with the client's clock at `now`.
    pub fn verify_at(
        &self,
        lo: i64,
        hi: i64,
        ans: &ShardedSelectionAnswer,
        now: Tick,
    ) -> Result<VerifyReport, VerifyError> {
        self.check(lo, hi, ans, now, &mut StdRng::seed_from_u64(0xC0FFEE))
    }

    /// The one verifier call: freshness on, coefficients from `rng`.
    fn check(
        &self,
        lo: i64,
        hi: i64,
        ans: &ShardedSelectionAnswer,
        now: Tick,
        rng: &mut StdRng,
    ) -> Result<VerifyReport, VerifyError> {
        self.v
            .verify_sharded_selection(lo, hi, ans, &self.view, now, true, rng)
    }

    pub fn insert(&mut self, attrs: Vec<i64>) {
        self.keys.push(Some(attrs[0]));
        let (shard, msgs) = self.sa.insert(attrs);
        self.loc.push(Some((shard, msgs[0].record.rid)));
        for m in &msgs {
            self.sqs.apply(shard, m);
        }
    }

    pub fn update(&mut self, logical: usize, attrs: Vec<i64>) {
        let (shard, rid) = self.loc[logical].expect("live");
        self.keys[logical] = Some(attrs[0]);
        let (new_addr, msgs) = self.sa.update_record(shard, rid, attrs);
        self.loc[logical] = Some(new_addr);
        self.sqs.apply_all(&msgs);
    }

    pub fn delete(&mut self, logical: usize) {
        let (shard, rid) = self.loc[logical].take().expect("live");
        self.keys[logical] = None;
        self.sqs.apply_all(&self.sa.delete_record(shard, rid));
    }

    /// Forward whatever summaries fall due.
    pub fn publish(&mut self) {
        self.sqs.ingest(self.sa.maybe_publish_summaries());
    }

    /// Compact all but the newest `keep` of `shard`'s summaries on the DA
    /// and apply the checkpoint on the server; `None` (and nothing changed)
    /// when there is no prefix to compact.
    pub fn checkpoint(&mut self, shard: usize, keep: usize) -> Option<SummaryCheckpoint> {
        let ckpt = self.sa.checkpoint_shard_summaries(shard, keep)?;
        self.sqs.apply_checkpoint(shard, ckpt.clone());
        Some(ckpt)
    }

    /// Cross one epoch transition on all three parties: the DA certifies
    /// it, the server applies the package, the client advances its view.
    pub fn rebalance(&mut self, plan: RebalancePlan) {
        let rb = self.sa.rebalance(plan, 2);
        self.sqs
            .apply_rebalance(&rb)
            .expect("honest rebalance applies");
        self.view
            .advance(&rb.transition, &self.sa.public_params())
            .expect("honest transition advances the view");
        self.remap_addresses(plan);
    }

    /// Recompute the address book after a rebalance by replaying the
    /// handoff routing: donors' live records travel in `(key, rid)` order
    /// and the successor bootstrap assigns fresh rids by input position.
    fn remap_addresses(&mut self, plan: RebalancePlan) {
        let mover_ids = |this: &Self, shard: usize| -> Vec<usize> {
            let mut ids: Vec<usize> = this
                .loc
                .iter()
                .enumerate()
                .filter_map(|(lg, loc)| loc.filter(|l| l.0 == shard).map(|_| lg))
                .collect();
            ids.sort_by_key(|&lg| (this.keys[lg].expect("live"), this.loc[lg].unwrap().1));
            ids
        };
        match plan {
            RebalancePlan::Split { shard, at } => {
                let movers = mover_ids(self, shard);
                for loc in self.loc.iter_mut().flatten() {
                    if loc.0 > shard {
                        loc.0 += 1;
                    }
                }
                let (mut left_next, mut right_next) = (0u64, 0u64);
                for lg in movers {
                    let next = if self.keys[lg].expect("live") < at {
                        (shard, &mut left_next)
                    } else {
                        (shard + 1, &mut right_next)
                    };
                    self.loc[lg] = Some((next.0, *next.1));
                    *next.1 += 1;
                }
            }
            RebalancePlan::Merge { left } => {
                let mut movers = mover_ids(self, left);
                movers.extend(mover_ids(self, left + 1));
                for loc in self.loc.iter_mut().flatten() {
                    if loc.0 > left + 1 {
                        loc.0 -= 1;
                    }
                }
                for (next, lg) in movers.into_iter().enumerate() {
                    self.loc[lg] = Some((left, next as u64));
                }
            }
        }
    }

    /// Answer `lo..=hi` and verify it with coefficients from `rng`: the
    /// verdict, and the returned rows in fan-out order.
    pub fn query(
        &self,
        lo: i64,
        hi: i64,
        rng: &mut StdRng,
    ) -> (Result<VerifyReport, VerifyError>, Vec<Vec<i64>>) {
        let ans = self.select(lo, hi);
        let verdict = self.check(lo, hi, &ans, self.sa.now(), rng);
        let records = ans.parts.iter().flat_map(|p| &p.answer.records);
        (verdict, records.map(|r| r.attrs.clone()).collect())
    }
}
