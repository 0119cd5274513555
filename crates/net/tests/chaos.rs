//! Chaos property: **no lies under chaos**.
//!
//! Random fault schedules (stalls, refused connects, mid-frame cuts,
//! delays, frame corruption) are injected between a `ShardFanout` and a
//! 4-shard deployment. Whatever the weather, each query must end in one of
//! exactly three ways:
//!
//! 1. a **complete verdict** whose certified content is byte-identical to
//!    the in-process ground truth,
//! 2. a **sound partial verdict** — certified tiles identical to ground
//!    truth, unavailable tiles exactly the shards the client itself failed
//!    to reach, or
//! 3. a **typed error** (transport or wire).
//!
//! Never an accepted wrong answer; never a verdict that hides a reachable
//! shard; never a hang past the fan-out's deadline budget.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use authdb_core::shard::RebalancePlan;
use authdb_core::verify::EpochView;
use authdb_crypto::signer::SchemeKind;
use authdb_net::NetError;
use authdb_testkit::adversary::tick_and_publish;
use authdb_testkit::fault::{Fault, FaultPlan};
use authdb_testkit::netfault::{unavailable_shards, ChaosSystem};
use authdb_testkit::tamper::WireTamper;

/// A random per-connection fault script. `chaos_pct` is the probability
/// (in %) that a connection faults at all; the fault kind is then drawn
/// uniformly across the whole menagerie, corruption included.
fn random_script(seed: u64, len: usize, chaos_pct: u64) -> (Vec<Fault>, bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut corrupting = false;
    let script = (0..len)
        .map(|_| {
            if rng.gen_range(0..100) >= chaos_pct {
                return Fault::Pass;
            }
            let kind = rng.gen_range(0..6);
            corrupting |= kind >= 4;
            match kind {
                0 => Fault::Stall,
                1 => Fault::RefuseConnect,
                2 => Fault::DisconnectMidFrame,
                3 => Fault::Delay { micros: 20_000 },
                4 => Fault::Tamper(WireTamper::VersionDowngrade),
                _ => Fault::CorruptBody { bit: rng.gen() },
            }
        })
        .collect();
    (script, corrupting)
}

/// A fan-out pinned to a stale map reaches the O(1) bootstrap: the first
/// connection is refused, the retried `checkpoint()` bundle pins the live
/// epoch.
#[test]
fn retried_checkpoint_bundle_bootstraps_the_live_epoch() {
    let mut sys = ChaosSystem::new(SchemeKind::Mock);
    sys.server
        .with_server(|sqs| tick_and_publish(&mut sys.sa, sqs, 12));
    let fanout = sys.fanout();
    let rb = sys
        .sa
        .rebalance(RebalancePlan::Split { shard: 0, at: 50 }, 2);
    sys.server
        .with_server(|sqs| sqs.apply_rebalance(&rb))
        .expect("honest rebalance applies");
    sys.proxies[0].set_plan(FaultPlan::from_script(vec![Fault::RefuseConnect]));

    let before = sys.proxies[0].connections();
    let boot = fanout.checkpoint().expect("second attempt gets through");
    let attempts = sys.proxies[0].connections() - before;
    assert_eq!(attempts, 2, "one refused connect, one retry");
    assert!(
        boot.checkpoint.is_some(),
        "past genesis the bundle is checkpointed"
    );
    let view = EpochView::from_bootstrap(&boot, &sys.sa.public_params()).expect("bundle verifies");
    assert_eq!(view.epoch(), sys.sa.map().epoch());
    assert_eq!(view.map_hash(), &sys.sa.map().hash());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn no_lies_under_chaos(
        plan_seed in any::<u64>(),
        chaos_pct in 0u64..35,
        queries in prop::collection::vec((-20i64..420, 0i64..420), 1..3),
        rng_seed in any::<u64>(),
    ) {
        let mut sys = ChaosSystem::new(SchemeKind::Mock);
        sys.server
            .with_server(|sqs| tick_and_publish(&mut sys.sa, sqs, 12));
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let budget = sys.fanout_budget(Duration::from_secs(2));

        // Arm every endpoint with its own random schedule, long enough to
        // cover all retries of all queries.
        let mut any_corruption = false;
        for (i, proxy) in sys.proxies.iter().enumerate() {
            let (script, corrupting) = random_script(
                plan_seed.wrapping_add(i as u64),
                queries.len() * (sys.config.retry.max_retries + 1),
                chaos_pct,
            );
            any_corruption |= corrupting;
            proxy.set_plan(FaultPlan::from_script(script));
        }

        for &(lo, w) in &queries {
            let hi = lo + w;
            let started = Instant::now();
            let result = sys.fanout().select_range(lo, hi);
            let elapsed = started.elapsed();
            prop_assert!(
                elapsed <= budget,
                "fan-out exceeded deadline budget: {elapsed:?} > {budget:?}"
            );

            match result {
                Err(NetError::Wire(_)) => {
                    // Typed corruption evidence: only possible if some
                    // schedule actually corrupts.
                    prop_assert!(any_corruption, "Wire error without corruption scheduled");
                }
                Err(e) => {
                    prop_assert!(
                        e.is_retryable(),
                        "fan-out may only fail with retryable or wire errors, got {e:?}"
                    );
                }
                Ok(partial) => {
                    let unreachable = partial.unreachable();
                    match sys.v.verify_partial_selection(
                        lo, hi, &partial.answer, &unreachable,
                        &sys.view, sys.sa.now(), true, &mut rng,
                    ) {
                        Err(e) => {
                            // The verifier may only reject when corruption
                            // could have produced a decodable-but-wrong
                            // part; availability faults alone must never
                            // trip it.
                            prop_assert!(
                                any_corruption,
                                "verify rejected without corruption scheduled: {e:?}"
                            );
                        }
                        Ok(verdict) => {
                            // Sound degradation: unavailable tiles are
                            // exactly the client's own outages.
                            let mut unavailable = unavailable_shards(&verdict);
                            unavailable.sort_unstable();
                            let mut outages = unreachable.clone();
                            outages.sort_unstable();
                            prop_assert_eq!(unavailable, outages);

                            // No lies: every certified tile's records match
                            // the in-process ground truth for its sub-range.
                            for part in &partial.answer.parts {
                                let (sub_lo, sub_hi) = sys
                                    .sa
                                    .map()
                                    .overlapping(lo, hi)
                                    .into_iter()
                                    .find(|(s, _)| *s == part.shard)
                                    .expect("part for an overlapping shard")
                                    .1;
                                let truth = sys.server.with_server(|sqs| {
                                    sqs.select_shard(part.shard, sub_lo, sub_hi)
                                        .expect("ground truth")
                                });
                                prop_assert_eq!(&part.answer.records, &truth.records);
                            }
                        }
                    }
                }
            }
        }
    }
}
