//! Property tests: **the wire codec is canonical and total**.
//!
//! Over the same random insert/update/delete/clock workloads the
//! honest-conformance suite drives (duplicate keys, emptying tables,
//! key moves, extreme ranges), every wire type must satisfy
//! `decode(encode(x)) == x` with bit-identical re-encoding — the property
//! the signatures' message-binding rests on — and decoding arbitrary
//! mutated bytes must return a typed error, never panic.

mod common;

use proptest::prelude::*;

use authdb_core::da::{SigningMode, UpdateMsg};
use authdb_core::freshness::{Exposure, ExposureTree, SummaryCheckpoint};
use authdb_core::qs::QsOptions;
use authdb_core::record::Record;
use authdb_core::shard::{ShardedAggregator, ShardedQueryServer};
use authdb_core::verify::VerifyError;
use authdb_core::wire::{Request, Response};
use authdb_wire::{decode_frame, frame, WireDecode, WireEncode, WireError, DEFAULT_MAX_FRAME_LEN};
use common::{cfg, decode_ops, initial_rows, Op};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The canonicality contract every wire value must satisfy.
fn assert_canonical<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(x: &T) {
    let enc = x.encode();
    let dec = T::decode(&enc).expect("canonical bytes decode");
    assert_eq!(&dec, x, "decode . encode = id");
    assert_eq!(dec.encode(), enc, "re-encoding is bit-identical");
    // The framed form round-trips too (header + version byte).
    let f = frame(x);
    assert_eq!(&decode_frame::<T>(&f, DEFAULT_MAX_FRAME_LEN).unwrap(), x);
}

/// Run a workload against a one-shard deployment, round-tripping every
/// update message and summary as it flows DA → QS, and return the system for
/// answer-level checks.
fn run_workload(
    mode: SigningMode,
    n0: usize,
    key_span: i64,
    ops: &[Op],
) -> (ShardedAggregator, ShardedQueryServer) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut sa = ShardedAggregator::new(cfg(mode), vec![], &mut rng);
    let boots = sa.bootstrap(initial_rows(n0, key_span), 2);
    let sqs = sa.replica(&boots, &QsOptions::default());
    let apply_all = |msgs: Vec<(usize, UpdateMsg)>| {
        for (shard, m) in msgs {
            assert_canonical(&m);
            sqs.apply(shard, &m);
        }
    };
    for &op in ops {
        let slots = sa.shard(0).record_slots();
        match op {
            Op::Insert { key, val } => {
                let (shard, msgs) = sa.insert(vec![key % key_span, val]);
                apply_all(msgs.into_iter().map(|m| (shard, m)).collect());
            }
            Op::Update { target, key, val } if slots > 0 => {
                apply_all(
                    sa.update_record(0, target % slots, vec![key % key_span, val])
                        .1,
                );
            }
            Op::Delete { target } if slots > 0 => {
                apply_all(sa.delete_record(0, target % slots));
            }
            Op::Advance { dt } => sa.advance_clock(dt),
            _ => {}
        }
        for (shard, s, recerts) in sa.maybe_publish_summaries() {
            assert_canonical(&s);
            sqs.add_summary(shard, s);
            apply_all(recerts.into_iter().map(|m| (shard, m)).collect());
        }
    }
    (sa, sqs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn selection_answers_round_trip_canonically(
        n0 in 0usize..30,
        key_span in 4i64..40,
        raw_ops in prop::collection::vec((any::<u8>(), any::<i64>(), any::<i64>()), 0..30),
        queries in prop::collection::vec((-50i64..50, -5i64..30), 1..6),
    ) {
        let ops = decode_ops(&raw_ops, 4);
        let (_sa, sqs) = run_workload(SigningMode::Chained, n0, key_span, &ops);
        // Random ranges (negative widths give inverted queries) plus the
        // extremes, so every answer shape appears: records, gap proofs,
        // vacancy proofs, inverted-empty.
        let mut ranges: Vec<(i64, i64)> = queries.iter().map(|&(lo, w)| (lo, lo + w)).collect();
        ranges.push((i64::MIN + 1, i64::MAX - 1));
        ranges.push((key_span + 1, i64::MAX - 1));
        for (lo, hi) in ranges {
            // The shard's own tile (for an inverted range, the engine's
            // canonical empty form)...
            assert_canonical(&sqs.select_shard(0, lo, hi).unwrap());
            // ...and the full response frame a networked server would ship.
            assert_canonical(&Response::Selection(sqs.select_range(lo, hi).unwrap()));
        }
    }

    #[test]
    fn projection_answers_round_trip_canonically(
        n0 in 0usize..25,
        key_span in 4i64..40,
        raw_ops in prop::collection::vec((any::<u8>(), any::<i64>(), any::<i64>()), 0..20),
        queries in prop::collection::vec((-50i64..50, 0i64..30, 0u8..3), 1..5),
    ) {
        let ops = decode_ops(&raw_ops, 4);
        let (_sa, sqs) = run_workload(SigningMode::PerAttribute, n0, key_span, &ops);
        for &(lo, w, attr_sel) in &queries {
            let attrs: &[usize] = match attr_sel % 3 {
                0 => &[0],
                1 => &[1],
                _ => &[0, 1],
            };
            let ans = sqs.project(lo, lo + w, attrs).unwrap();
            assert_canonical(&ans);
            assert_canonical(&Response::Projection(Box::new(ans)));
        }
    }

    #[test]
    fn sharded_answers_round_trip_canonically(
        n0 in 1usize..30,
        raw_splits in prop::collection::vec(1i64..40, 0..7),
        queries in prop::collection::vec((-50i64..50, -5i64..40), 1..5),
    ) {
        let mut splits = raw_splits;
        splits.sort_unstable();
        splits.dedup();
        let mut rng = StdRng::seed_from_u64(11);
        let mut sa = ShardedAggregator::new(cfg(SigningMode::Chained), splits, &mut rng);
        let boots = sa.bootstrap((0..n0 as i64).map(|i| vec![i % 37, i]).collect(), 2);
        let sqs = sa.replica(&boots, &QsOptions::default());
        assert_canonical(sa.map());
        for &(lo, w) in &queries {
            let ans = sqs.select_range(lo, lo + w).unwrap();
            assert_canonical(&ans);
            assert_canonical(&Response::Selection(ans));
            // The per-shard fan-out protocol: every overlapping shard's
            // tile request and answer round-trips too.
            for (shard, (sub_lo, sub_hi)) in sa.map().overlapping(lo, lo + w) {
                assert_canonical(&Request::SelectShard {
                    shard: shard as u32,
                    lo: sub_lo,
                    hi: sub_hi,
                });
                let tile = sqs.select_shard(shard, sub_lo, sub_hi).unwrap();
                assert_canonical(&Response::ShardSelection(Box::new(tile)));
            }
        }
        // A tile request for a shard this deployment does not have is a
        // typed refusal, and the refusal itself is canonical on the wire.
        let beyond = sa.map().shard_count() as u64 + 3;
        match sqs.select_shard(beyond as usize, 0, 10) {
            Err(authdb_core::qs::QueryError::UnknownShard { shard }) => {
                assert_eq!(shard, beyond);
                assert_canonical(&Response::Refused(
                    authdb_core::qs::QueryError::UnknownShard { shard },
                ));
            }
            other => panic!("expected UnknownShard refusal, got {other:?}"),
        }
    }

    #[test]
    fn rebalance_frames_round_trip_canonically(
        n0 in 1usize..30,
        schedule in prop::collection::vec((any::<u64>(), 1i64..37), 1..5),
    ) {
        // A random split/merge chain: every Rebalance package and
        // EpochTransition it produces must round-trip canonically, bare
        // and framed, as must the protocol messages that carry them.
        let mut rng = StdRng::seed_from_u64(15);
        let mut sa = ShardedAggregator::new(cfg(SigningMode::Chained), vec![], &mut rng);
        let boots = sa.bootstrap((0..n0 as i64).map(|i| vec![i % 37, i]).collect(), 2);
        let sqs = sa.replica(&boots, &QsOptions::default());
        for &(sel, at_raw) in &schedule {
            let splits = sa.map().splits().to_vec();
            let plan = if sel % 2 == 1 && !splits.is_empty() {
                authdb_core::shard::RebalancePlan::Merge {
                    left: (sel as usize / 2) % splits.len(),
                }
            } else {
                // Split the shard owning `at_raw` (keys live in 0..37, so
                // at_raw in 1..37 is a valid new split unless taken).
                if splits.contains(&at_raw) {
                    continue;
                }
                authdb_core::shard::RebalancePlan::Split {
                    shard: sa.map().shard_of(at_raw),
                    at: at_raw,
                }
            };
            let rb = sa.rebalance(plan, 2);
            assert_canonical(&rb.transition);
            assert_canonical(&rb.plan);
            assert_canonical(&rb);
            assert_canonical(&Request::Rebalance(Box::new(rb.clone())));
            sqs.apply_rebalance(&rb).expect("honest package applies");
            assert_canonical(&Response::Checkpoint(Box::new(sqs.epoch_bootstrap())));
            // Post-transition answers (epoch-tagged summaries, handoff
            // baselines, possibly vacancies) stay canonical too.
            let ans = sqs.select_range(0, 40).unwrap();
            assert_canonical(&ans);
        }
    }

    #[test]
    fn checkpoints_round_trip_whole_and_opened_and_list_chunks_once_in_order(
        map in prop::collection::vec(0u64..4, 0..200),
        rids in prop::collection::vec(0u64..260, 0..10),
        swap in (any::<u8>(), any::<u8>()),
    ) {
        // The whole-map form — what the DA hands a server and a rebalance
        // carries — and the form an answer carries, opened for some rids.
        let kp = authdb_crypto::signer::Keypair::generate(
            authdb_crypto::signer::SchemeKind::Mock,
            &mut StdRng::seed_from_u64(14),
        );
        let whole = SummaryCheckpoint::create(&kp, 3, 1, 7, 90, &map);
        assert_canonical(&whole);
        let tree = ExposureTree::build(&whole.exposure.chunks);
        let opened = whole.opened_for(&tree, rids.iter().copied());
        assert_canonical(&opened);
        prop_assert!(opened.verify(&kp.public_params()));
        // The same chunks in another order, or one of them twice, are not a
        // second encoding of the opening: a typed refusal, for every pair.
        let chunks = &opened.exposure.chunks;
        if chunks.len() >= 2 {
            let (a, b) = (swap.0 as usize % chunks.len(), swap.1 as usize % chunks.len());
            let mut twisted = opened.exposure.clone();
            if a == b {
                twisted.chunks[(a + 1) % chunks.len()].0 = chunks[a].0;
            } else {
                twisted.chunks.swap(a, b);
            }
            prop_assert_eq!(
                Exposure::decode(&twisted.encode()),
                Err(WireError::NonCanonical { what: "exposure chunk order" })
            );
        }
        // A forged chunk count cannot reserve what the frame does not hold.
        let mut bytes = opened.exposure.encode();
        bytes[56..60].copy_from_slice(&u32::MAX.to_be_bytes());
        let overflow = matches!(Exposure::decode(&bytes), Err(WireError::LengthOverflow { .. }));
        prop_assert!(overflow);
    }

    #[test]
    fn mutated_rebalance_frames_never_panic(
        flips in prop::collection::vec((any::<u16>(), any::<u8>()), 1..12),
        truncate_to in any::<u16>(),
    ) {
        let mut rng = StdRng::seed_from_u64(16);
        let mut sa = ShardedAggregator::new(cfg(SigningMode::Chained), vec![10], &mut rng);
        sa.bootstrap((0..20i64).map(|i| vec![i, i]).collect(), 2);
        sa.advance_clock(1);
        let rb = sa.rebalance(
            authdb_core::shard::RebalancePlan::Split { shard: 1, at: 15 },
            2,
        );
        let mut bytes = frame(&Request::Rebalance(Box::new(rb)));
        for &(pos, val) in &flips {
            let idx = pos as usize % bytes.len();
            bytes[idx] ^= val;
        }
        let keep = (truncate_to as usize) % (bytes.len() + 1);
        bytes.truncate(keep);
        let _ = decode_frame::<Request>(&bytes, DEFAULT_MAX_FRAME_LEN);
        let _ = Request::decode(&bytes);
        // If the mutated package still decodes, applying it must refuse
        // or succeed — never panic or corrupt the server into panicking.
        if let Ok(Request::Rebalance(mutated)) = decode_frame::<Request>(&bytes, DEFAULT_MAX_FRAME_LEN) {
            let boots_rng = &mut StdRng::seed_from_u64(16);
            let mut sa2 = ShardedAggregator::new(cfg(SigningMode::Chained), vec![10], boots_rng);
            let boots = sa2.bootstrap((0..20i64).map(|i| vec![i, i]).collect(), 2);
            let sqs = sa2.replica(&boots, &QsOptions::default());
            let _ = sqs.apply_rebalance(&mutated);
            let _ = sqs.select_range(0, 40).unwrap();
        }
    }

    #[test]
    fn decoding_mutated_bytes_never_panics(
        seed_query in (-50i64..50, 0i64..30),
        flips in prop::collection::vec((any::<u16>(), any::<u8>()), 1..12),
        truncate_to in any::<u16>(),
    ) {
        // Start from honest response bytes, then corrupt them arbitrarily:
        // every outcome must be Ok or a typed WireError — no panics, no
        // unbounded allocation.
        let mut rng = StdRng::seed_from_u64(13);
        let mut sa = ShardedAggregator::new(cfg(SigningMode::Chained), vec![10], &mut rng);
        let boots = sa.bootstrap((0..20i64).map(|i| vec![i, i]).collect(), 2);
        let sqs = sa.replica(&boots, &QsOptions::default());
        // Summaries and an opened checkpoint ride on the answer, so their
        // decoders see the corrupted bytes too.
        for _ in 0..3 {
            sa.advance_clock(10);
            sqs.ingest(sa.maybe_publish_summaries());
        }
        for shard in 0..2 {
            let ckpt = sa.checkpoint_shard_summaries(shard, 1).expect("compactable");
            sqs.apply_checkpoint(shard, ckpt);
        }
        let (lo, w) = seed_query;
        let ans = sqs.select_range(lo, lo + w).unwrap();
        let mut bytes = frame(&Response::Selection(ans));
        for &(pos, val) in &flips {
            let idx = pos as usize % bytes.len();
            bytes[idx] ^= val;
        }
        let keep = (truncate_to as usize) % (bytes.len() + 1);
        bytes.truncate(keep);
        let _ = decode_frame::<Response>(&bytes, DEFAULT_MAX_FRAME_LEN);
        let _ = Response::decode(&bytes);
        let _ = Request::decode(&bytes);
    }
}

#[test]
fn malformed_record_shapes_are_typed_errors_not_panics() {
    // The codec is schema-agnostic, so a malicious peer can ship records
    // whose arity disagrees with the schema; the verifier must reject them
    // with MalformedRecord before any schema-indexed access.
    let one_shard = |mode, seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sa = ShardedAggregator::new(cfg(mode), vec![], &mut rng);
        let boots = sa.bootstrap((0..10i64).map(|i| vec![i * 10, i]).collect(), 2);
        let sqs = sa.replica(&boots, &QsOptions::default());
        (sqs, sa.verifier(), sa.epoch_view())
    };
    let (sqs, v, view) = one_shard(SigningMode::Chained, 3);
    let mut rng = StdRng::seed_from_u64(5);

    // A returned record with too few attributes.
    let mut ans = sqs.select_range(20, 60).unwrap();
    let records = &mut ans.parts[0].answer.records;
    let rid = records[1].rid;
    records[1] = Record {
        rid,
        attrs: vec![30],
        ts: records[1].ts,
    };
    assert_eq!(
        v.verify_sharded_selection(20, 60, &ans, &view, 0, true, &mut rng),
        Err(VerifyError::MalformedRecord { rid })
    );

    // A gap proof whose bracketing record has the wrong arity.
    let mut gap_ans = sqs.select_range(21, 29).unwrap();
    let g = gap_ans.parts[0].answer.gap.as_mut().unwrap();
    g.record.attrs = vec![20, 2, 99];
    let rid = g.record.rid;
    assert_eq!(
        v.verify_sharded_selection(21, 29, &gap_ans, &view, 0, true, &mut rng),
        Err(VerifyError::MalformedRecord { rid })
    );

    // A projected row naming an attribute index past the schema.
    let (sqs, v, view) = one_shard(SigningMode::PerAttribute, 4);
    let mut proj = sqs.project(0, 50, &[1]).unwrap();
    proj.rows[0].values[0].0 = usize::MAX;
    assert_eq!(
        v.verify_projection(&proj, &view, 0, true),
        Err(VerifyError::MalformedRecord {
            rid: proj.rows[0].rid
        })
    );
}
