//! Loopback end-to-end: DA → TCP `QsServer` (4 shards) → `QsClient` →
//! the existing `Verifier::verify_sharded_selection`.
//!
//! Honest answers decoded off the wire must verify exactly like in-process
//! answers, and every entry of the wire-tamper catalog — applied to the
//! honest server's frames by a `ChaosProxy` in between — must surface as
//! its pinned typed error (`WireError` at the codec or `VerifyError` at the
//! verifier) — never a panic, a hang, or an accepted forgery.

use rand::rngs::StdRng;
use rand::SeedableRng;

use authdb_core::da::DaConfig;
use authdb_core::qs::QueryError;
use authdb_core::shard::{RebalancePlan, ShardedAggregator};
use authdb_core::verify::{EpochView, Verifier, VerifyError};
use authdb_crypto::signer::{Keypair, SchemeKind};
use authdb_net::{NetError, QsClient, QsServer, QsServerOptions};
use authdb_sim::cost::wire_model;
use authdb_testkit::adversary::{run_sharded_timeline, tick_and_publish};
use authdb_testkit::deploy::{config, serve, Deployment};
use authdb_testkit::fault::{ChaosProxy, Fault, FaultPlan};
use authdb_testkit::tamper::WireTamper;

/// A 4-shard system over keys 0..=390, served over loopback TCP, after the
/// shared timeline (summaries at t=12/24/34, one update at t=14) so answers
/// carry summaries and freshness checks are live.
fn serve_live(scheme: SchemeKind, n: i64) -> (ShardedAggregator, QsServer, Verifier, EpochView) {
    let deployment = Deployment::catalog(config(scheme), 4, n);
    let (mut sa, server, v, view) = serve(deployment, QsServerOptions::default());
    server.with_server(|sqs| run_sharded_timeline(&mut sa, sqs));
    (sa, server, v, view)
}

#[test]
fn honest_answers_over_tcp_verify() {
    let mut rng = StdRng::seed_from_u64(7);
    let (sa, server, verifier, view) = serve_live(SchemeKind::Mock, 40);
    let now = sa.now();
    let mut client = QsClient::connect(server.addr()).expect("connect");
    client.ping().expect("ping");

    for (lo, hi) in [
        (0, 390),     // all four shards
        (95, 205),    // straddles two seams
        (110, 190),   // inside one shard
        (1000, 2000), // beyond the data (gap proof)
        (250, 150),   // inverted
    ] {
        let answer = client.select_range(lo, hi).expect("network answer");
        // The wire round trip is transparent: the decoded answer is the
        // very answer the server built...
        let direct = server.with_server(|sqs| sqs.select_range(lo, hi).unwrap());
        assert_eq!(answer, direct, "[{lo}, {hi}] wire round trip");
        // ...and the unmodified verifier accepts it.
        verifier
            .verify_sharded_selection(lo, hi, &answer, &view, now, true, &mut rng)
            .unwrap_or_else(|e| panic!("[{lo}, {hi}] rejected: {e:?}"));
    }

    // The per-shard counters, summed, are the in-process total.
    let stats = client.stats().expect("stats");
    let direct = server.with_server(|sqs| sqs.stats());
    assert_eq!(stats, direct);
    assert!(stats.queries > 0);
}

/// Bytes on the wire stay within 20 % of the simulator's message-size model
/// at 1 and 8 shards, before and after summaries attach — a codec change
/// that drifts from `authdb_sim`'s accounting fails here instead of
/// silently skewing the DES figures.
#[test]
fn bytes_on_wire_track_the_sim_wire_model() {
    for shards in [1, 8] {
        let deployment = Deployment::catalog(DaConfig::small(), shards, 256);
        let (mut sa, server, v, _) = serve(deployment, QsServerOptions::default());
        let sig_len = v.public_params().wire_len();
        let mut client = QsClient::connect(server.addr()).expect("connect");
        for summaries in [false, true] {
            if summaries {
                server.with_server(|sqs| {
                    tick_and_publish(&mut sa, sqs, 12);
                    tick_and_publish(&mut sa, sqs, 10);
                });
            }
            // Every seam at once, one mid-range slice, and a gap proof.
            for (lo, hi) in [(0, 2550), (600, 1300), (1001, 1009)] {
                let ans = client.select_range(lo, hi).expect("network answer");
                let measured = client.last_response_bytes() as f64;
                let parts: Vec<wire_model::AnswerShape> = ans
                    .parts
                    .iter()
                    .map(|p| wire_model::AnswerShape {
                        records: p.answer.records.len(),
                        gap: p.answer.gap.is_some(),
                        vacancy: p.answer.vacancy.is_some(),
                        summaries: p.answer.summaries.len(),
                        summary_bitmap_bytes: p
                            .answer
                            .summaries
                            .iter()
                            .map(|s| s.compressed.len())
                            .sum(),
                    })
                    .collect();
                assert_eq!(parts.iter().any(|p| p.summaries > 0), summaries);
                let model = wire_model::sharded_selection_response(
                    ans.map.splits().len(),
                    &parts,
                    2,
                    sig_len,
                ) as f64;
                let drift = (measured - model).abs() / measured;
                assert!(
                    drift <= 0.20,
                    "{shards} shards, summaries {summaries}, [{lo}, {hi}]: \
                     {measured} B on the wire vs {model} B modelled"
                );
            }
        }
    }
}

/// One tampered exchange: the server stays honest, a proxy in front of it
/// corrupts the one response of its one connection (a fresh connection per
/// strategy — a corrupted frame legitimately desynchronizes the stream),
/// and the client stack must reject with the strategy's pinned typed error.
fn assert_tamper_rejected(
    server: &QsServer,
    verifier: &Verifier,
    view: &EpochView,
    tamper: WireTamper,
    now: u64,
    rng: &mut StdRng,
) {
    let plan = FaultPlan::from_script(vec![Fault::Tamper(tamper)]);
    let proxy = ChaosProxy::spawn(server.addr(), plan).expect("proxy");
    let mut client = QsClient::connect(proxy.addr()).expect("connect");
    let name = tamper.name();
    match client.select_range(95, 205) {
        Err(NetError::Wire(e)) => assert!(tamper.expects_wire(&e), "{name}: unexpected {e:?}"),
        Ok(answer) => {
            let e = verifier
                .verify_sharded_selection(95, 205, &answer, view, now, true, rng)
                .expect_err("tampered frame accepted");
            assert!(tamper.expects_verify(&e), "{name}: unexpected {e:?}");
        }
        Err(other) => panic!("{name}: unexpected failure class {other:?}"),
    }
}

#[test]
fn wire_tamper_catalog_rejected_with_typed_errors() {
    let mut rng = StdRng::seed_from_u64(8);
    let (sa, server, verifier, view) = serve_live(SchemeKind::Mock, 40);
    let now = sa.now();
    for tamper in WireTamper::CATALOG {
        assert_tamper_rejected(&server, &verifier, &view, tamper, now, &mut rng);
    }
    // The server is unharmed: a fresh honest exchange still verifies.
    let mut client = QsClient::connect(server.addr()).expect("connect");
    let answer = client.select_range(95, 205).expect("honest answer");
    assert!(verifier
        .verify_sharded_selection(95, 205, &answer, &view, now, true, &mut rng)
        .is_ok());
}

#[test]
fn bas_spot_check_over_tcp() {
    // Full crypto end-to-end once: honest verification plus the two
    // strategies whose rejection path depends on the scheme's encoding.
    let mut rng = StdRng::seed_from_u64(9);
    let (sa, server, verifier, view) = serve_live(SchemeKind::Bas, 16);
    let now = sa.now();
    let mut client = QsClient::connect(server.addr()).expect("connect");
    let answer = client.select_range(35, 125).expect("network answer");
    assert!(!answer.parts.is_empty());
    verifier
        .verify_sharded_selection(35, 125, &answer, &view, now, true, &mut rng)
        .expect("honest BAS answer verifies");
    for tamper in [WireTamper::BitFlipSignature, WireTamper::VersionDowngrade] {
        assert_tamper_rejected(&server, &verifier, &view, tamper, now, &mut rng);
    }
}

#[test]
fn garbage_request_bytes_do_not_kill_the_server() {
    use std::io::{Read, Write};
    let (_sa, server, _verifier, _view) = serve_live(SchemeKind::Mock, 40);

    // A hostile client: a lying length prefix, then raw garbage.
    let mut raw = std::net::TcpStream::connect(server.addr()).expect("connect");
    raw.write_all(&u32::MAX.to_be_bytes()).expect("write");
    let _ = raw.write_all(b"definitely not a frame");
    // The server drops the stream (read returns EOF) instead of answering
    // or crashing.
    let mut sink = Vec::new();
    let _ = raw.read_to_end(&mut sink);
    assert!(sink.is_empty(), "no response to an unparseable request");

    // And keeps serving honest clients.
    let mut client = QsClient::connect(server.addr()).expect("connect");
    client.ping().expect("server still alive");
}

#[test]
fn live_rebalance_over_tcp_mid_query_stream() {
    // The DA→TCP→client pipeline crosses an epoch bump without a restart:
    // in-flight epoch-1 answers verify until the client observes the
    // transition, after which epoch-1 replays are rejected as StaleEpoch
    // and the epoch-2 deployment keeps serving verifiable answers.
    let mut rng = StdRng::seed_from_u64(10);
    let (mut sa, server, verifier, mut view) = serve_live(SchemeKind::Mock, 40);
    let now = sa.now();
    let mut client = QsClient::connect(server.addr()).expect("connect");

    // An in-flight epoch-1 answer, captured mid-stream.
    let in_flight = client.select_range(95, 205).expect("epoch-1 answer");
    verifier
        .verify_sharded_selection(95, 205, &in_flight, &view, now, true, &mut rng)
        .expect("epoch-1 answer verifies under the epoch-1 view");

    // The DA rebalances: split the hot first shard. The package travels to
    // the live server over the same TCP protocol (Request::Rebalance).
    let split_at = sa.map().splits()[0] / 2;
    let rb = sa.rebalance(
        RebalancePlan::Split {
            shard: 0,
            at: split_at,
        },
        2,
    );
    client
        .rebalance(&rb)
        .expect("server applies the epoch bump");
    let now = sa.now();

    // Until the client observes the transition, its pinned epoch is still
    // 1: the captured answer verifies, a fresh epoch-2 answer is premature.
    verifier
        .verify_sharded_selection(95, 205, &in_flight, &view, now, true, &mut rng)
        .expect("in-flight epoch-1 answer still verifies before observation");
    let fresh = client.select_range(95, 205).expect("epoch-2 answer");
    assert!(matches!(
        verifier.verify_sharded_selection(95, 205, &fresh, &view, now, true, &mut rng),
        Err(VerifyError::StaleEpoch {
            answer_epoch: 2,
            live_epoch: 1
        })
    ));

    // The client fetches the certified epoch bundle over the wire and
    // catches up.
    let bundle = client.checkpoint().expect("epoch bundle");
    assert_eq!(bundle.map.epoch(), 2);
    view.observe(&bundle, verifier.public_params())
        .expect("observe the epoch bump");

    // Now the situation flips exactly: replays are stale, fresh verifies.
    assert!(matches!(
        verifier.verify_sharded_selection(95, 205, &in_flight, &view, now, true, &mut rng),
        Err(VerifyError::StaleEpoch {
            answer_epoch: 1,
            live_epoch: 2
        })
    ));
    verifier
        .verify_sharded_selection(95, 205, &fresh, &view, now, true, &mut rng)
        .expect("epoch-2 answer verifies after observation");

    // The deployment stays live in the new epoch: an update + summary flow
    // through the handle, and queries keep verifying.
    sa.advance_clock(2);
    let (_, msgs) = sa.update_record(2, 1, vec![115, 4242]);
    server.with_server(|sqs| {
        sqs.apply_all(&msgs);
        tick_and_publish(&mut sa, sqs, 10);
    });
    let now = sa.now();
    let post = client.select_range(0, 390).expect("post-bump answer");
    verifier
        .verify_sharded_selection(0, 390, &post, &view, now, true, &mut rng)
        .expect("live epoch-2 deployment keeps verifying");

    // A hostile package (wrong epoch arithmetic) is refused without
    // touching the server.
    let mut forged = rb.clone();
    forged.plan = RebalancePlan::Merge { left: 0 };
    match client.rebalance(&forged) {
        Err(NetError::Refused(QueryError::BadRebalance)) => {}
        other => panic!("expected BadRebalance refusal, got {other:?}"),
    }
    let again = client.select_range(0, 390).expect("server unharmed");
    verifier
        .verify_sharded_selection(0, 390, &again, &view, now, true, &mut rng)
        .expect("refused package changed nothing");
}

/// `Request::Rebalance` is reachable from any TCP peer. A package that is
/// structurally perfect — right epoch arithmetic, right splits, hash-linked
/// to the live map — but signed by somebody else's key must be refused, or
/// one frame takes an honest server's every later answer away from its
/// clients. So must the genuine package with one handoff signature of the
/// other scheme: the codec decodes either scheme without context, and the
/// server, accepting it, would panic folding that record into any answer.
#[test]
fn rebalance_package_under_a_foreign_key_is_refused_over_tcp() {
    for (scheme, other, n) in [
        (SchemeKind::Mock, SchemeKind::Bas, 40),
        (SchemeKind::Bas, SchemeKind::Mock, 16),
    ] {
        let mut rng = StdRng::seed_from_u64(11);
        let (mut sa, server, verifier, view) = serve_live(scheme, n);
        let plan = RebalancePlan::Split {
            shard: 0,
            at: sa.map().splits()[0] / 2,
        };
        // An impostor DA: same configuration, partition and rows, its own
        // key — so its package differs from the genuine one in signatures
        // only.
        let mut impostor = ShardedAggregator::new(
            sa.config().clone(),
            sa.map().splits().to_vec(),
            &mut StdRng::seed_from_u64(666),
        );
        impostor.bootstrap((0..n).map(|i| vec![i * 10, i]).collect(), 2);
        let forged = impostor.rebalance(plan, 2);
        assert_eq!(forged.transition.parent_hash, sa.map().hash());
        let mut doctored = sa.rebalance(plan, 2);
        doctored.handoffs[0].sigs[0] = Keypair::generate(other, &mut rng).sign(b"foreign");

        let mut client = QsClient::connect(server.addr()).expect("connect");
        for (what, package) in [("foreign key", &forged), ("foreign scheme", &doctored)] {
            match client.rebalance(package) {
                Err(NetError::Refused(QueryError::BadRebalance)) => {}
                got => panic!("{scheme:?} {what}: expected BadRebalance refusal, got {got:?}"),
            }
            // The server is still at epoch 1, serving answers the pinned
            // client accepts.
            let (lo, hi) = (0, n * 10);
            let ans = client.select_range(lo, hi).expect("server unharmed");
            assert_eq!(ans.map.epoch(), 1);
            verifier
                .verify_sharded_selection(lo, hi, &ans, &view, sa.now(), true, &mut rng)
                .unwrap_or_else(|e| panic!("{scheme:?} {what}: epoch-1 answer rejected: {e:?}"));
        }
    }
}

/// Flat epoch state: however many rebalances a deployment has been through,
/// a client still pinned at genesis catches up in one exchange of the same
/// size — nothing the server holds or ships grows with the epoch count.
#[test]
fn catch_up_after_many_rebalances_is_one_constant_size_exchange() {
    let mut rng = StdRng::seed_from_u64(12);
    let (mut sa, server, verifier, mut view) = serve_live(SchemeKind::Mock, 40);
    let mut da = QsClient::connect(server.addr()).expect("DA connect");
    let mut client = QsClient::connect(server.addr()).expect("connect");
    let split = RebalancePlan::Split {
        shard: 0,
        at: sa.map().splits()[0] / 2,
    };

    da.rebalance(&sa.rebalance(split, 2)).expect("first split");
    client.checkpoint().expect("epoch-2 bundle");
    let after_one = client.last_response_bytes();

    // 64 more, alternating merge / split: the deployment ends in the same
    // shape as after the first, 64 epochs later.
    for round in 0..64 {
        let plan = if round % 2 == 0 {
            RebalancePlan::Merge { left: 0 }
        } else {
            split
        };
        da.rebalance(&sa.rebalance(plan, 2)).expect("rebalance");
        // Each rebalance takes a clock tick; the summary stream keeps pace.
        server.with_server(|sqs| tick_and_publish(&mut sa, sqs, 0));
    }
    assert_eq!(sa.map().epoch(), 66);

    // The client never saw epochs 2..=65: one exchange, the same size.
    let bundle = client.checkpoint().expect("epoch-66 bundle");
    assert_eq!(client.last_response_bytes(), after_one);
    view.observe(&bundle, verifier.public_params())
        .expect("genesis-pinned client catches up");
    assert_eq!(view.epoch(), 66);
    let ans = client.select_range(0, 390).expect("live answer");
    verifier
        .verify_sharded_selection(0, 390, &ans, &view, sa.now(), true, &mut rng)
        .expect("epoch-66 answer verifies under the caught-up view");
}
