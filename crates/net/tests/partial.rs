//! Acceptance: sound partial answers under a single-shard partition.
//!
//! With 1 of 4 shards partitioned, the fan-out must still deliver a
//! verdict certifying the other three tiles — quickly (the dark shard
//! costs its bounded retry budget, not a hang) — and the dual invariant
//! must hold: a shard that *is* reachable but whose part is missing is
//! withholding, and the verifier says so no matter what the outage list
//! claims.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use authdb_core::adversary::{sharded_system, tick_and_publish};
use authdb_core::verify::{TileStatus, VerifyError};
use authdb_crypto::signer::SchemeKind;
use authdb_net::{
    ChaosProxy, ClientConfig, FaultPlan, QsServer, QsServerOptions, RetryPolicy, ShardFanout,
};

#[test]
fn partitioned_shard_degrades_soundly_and_fast() {
    let mut rng = StdRng::seed_from_u64(99);
    let (mut sa, sqs, verifier, view) = sharded_system(SchemeKind::Mock, 4, 40);
    let server = QsServer::spawn(sqs, QsServerOptions::default()).expect("bind");
    server.with_server(|sqs| tick_and_publish(&mut sa, sqs, 12));
    let proxies: Vec<ChaosProxy> = (0..4)
        .map(|_| ChaosProxy::spawn(server.addr(), FaultPlan::healthy()).expect("proxy"))
        .collect();
    // Keep the backoff tax tiny so the partitioned-path latency is
    // dominated by real work, making the 2x bound below meaningful.
    let config = ClientConfig {
        retry: RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            jitter_seed: 7,
        },
        ..ClientConfig::fast()
    };
    let endpoints: Vec<String> = proxies.iter().map(|p| p.addr().to_string()).collect();
    let mut fanout = ShardFanout::new(sa.map().clone(), endpoints, config.clone());
    let now = sa.now();

    // Fault-free baseline: warm once, then measure the healthy RTT.
    let warm = fanout.select_range(0, 390).expect("warm-up");
    assert!(warm.is_complete());
    let started = Instant::now();
    let healthy = fanout.select_range(0, 390).expect("healthy fan-out");
    let healthy_rtt = started.elapsed();
    assert!(healthy.is_complete());
    let full = verifier
        .verify_partial_selection(0, 390, &healthy.answer, &[], &view, now, true, &mut rng)
        .expect("healthy answer verifies");
    assert!(full.is_complete());

    // Partition shard 2 and query again.
    proxies[2].partition(true);
    let started = Instant::now();
    let partial = fanout.select_range(0, 390).expect("degraded fan-out");
    let degraded_rtt = started.elapsed();
    assert_eq!(partial.unreachable(), vec![2]);

    // The dark shard costs refused connects and millisecond backoffs, not
    // a hang: the degraded answer arrives within ~2x the healthy RTT
    // (floored against loopback noise — healthy RTTs here are far below a
    // millisecond of scheduler jitter).
    let bound = (healthy_rtt * 2).max(Duration::from_millis(100));
    assert!(
        degraded_rtt <= bound,
        "degraded fan-out took {degraded_rtt:?}, bound {bound:?} (healthy {healthy_rtt:?})"
    );

    // The verdict certifies the three reachable tiles and marks shard 2
    // unavailable — nothing more, nothing less.
    let verdict = verifier
        .verify_partial_selection(
            0,
            390,
            &partial.answer,
            &partial.unreachable(),
            &view,
            now,
            true,
            &mut rng,
        )
        .expect("sound partial verdict");
    assert!(!verdict.is_complete());
    assert_eq!(verdict.unavailable_shards(), vec![2]);
    let certified: Vec<usize> = verdict
        .tiles
        .iter()
        .filter(|t| t.is_certified())
        .map(|t| t.shard())
        .collect();
    assert_eq!(certified, vec![0, 1, 3]);
    for tile in &verdict.tiles {
        if let TileStatus::Certified { shard, records, .. } = tile {
            // Each reachable quarter of 0..=390 holds its 10 records.
            assert_eq!(*records, 10, "shard {shard} tile");
        }
    }

    // The dual: the same parts with shard 2's tile dropped but *no* outage
    // claimed is withholding — reachability makes the omission culpable.
    let mut withheld = healthy.answer.clone();
    withheld.parts.retain(|p| p.shard != 2);
    match verifier.verify_partial_selection(0, 390, &withheld, &[], &view, now, true, &mut rng) {
        Err(VerifyError::ShardWithheld { shard: 2 }) => {}
        other => panic!("expected ShardWithheld for shard 2, got {other:?}"),
    }

    // And claiming an outage while the part rides along is equally dead:
    // forged transport evidence cannot smuggle a part past the check.
    match verifier.verify_partial_selection(
        0,
        390,
        &healthy.answer,
        &[2],
        &view,
        now,
        true,
        &mut rng,
    ) {
        Err(VerifyError::UnexpectedShardAnswer { shard: 2 }) => {}
        other => panic!("expected UnexpectedShardAnswer for shard 2, got {other:?}"),
    }

    // Healing the partition restores complete verdicts for the same client.
    proxies[2].partition(false);
    let healed = fanout.select_range(0, 390).expect("healed fan-out");
    assert!(healed.is_complete());
    let verdict = verifier
        .verify_partial_selection(0, 390, &healed.answer, &[], &view, now, true, &mut rng)
        .expect("healed answer verifies");
    assert!(verdict.is_complete());
}
