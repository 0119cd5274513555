//! The verifier's suite: the client-side checks of `authdb_core::verify`,
//! driven through the public API on the shared [`Deployment`]. Honest
//! answers of every shape verify — records, gap proofs, vacancies, inverted
//! ranges, checkpoint-anchored and multi-shard fan-outs, batches, partial
//! verdicts — and every forgery, omission, replay, foreign epoch or shard
//! and broken transition surfaces as its typed [`VerifyError`]. The client's
//! cost is pinned as exact pairing-check counts. The three probes that read
//! the verifier's private counters and transcript stay unit tests in
//! `verify.rs`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use authdb_core::freshness::{EmptyTableProof, UpdateSummary};
use authdb_core::record::Tick;
use authdb_core::shard::{
    RebalancePlan, ShardAnswer, ShardMap, ShardedQueryServer, ShardedSelectionAnswer, GENESIS_EPOCH,
};
use authdb_core::verify::{BatchFailure, EpochView, TileStatus, VerifyError};
use authdb_crypto::signer::{Keypair, SchemeKind};
use authdb_testkit::adversary::{entry_mut, tick_and_publish};
use authdb_testkit::deploy::{config, part, timeline, Deployment};
use authdb_testkit::netfault::unavailable_shards;

/// The published summaries of `d`'s one shard — what a client fetches
/// independently of any answer.
fn summaries(d: &Deployment) -> Vec<Arc<UpdateSummary>> {
    d.sqs.with_shard(0, |qs| qs.summaries().to_vec())
}

/// 50 records `[i·10, i]` on one shard under `scheme`, after the shared
/// [`timeline`] (rid 23 takes `[230, 777]` in the second period), and the
/// prefix compacted into a checkpoint with `keep` summaries retained.
fn checkpointed(scheme: SchemeKind, keep: usize) -> Deployment {
    let mut d = Deployment::catalog(config(scheme), 1, 50);
    timeline(&mut d.sa, &d.sqs, (0, 23, vec![230, 777]));
    d.checkpoint(0, keep).expect("compactable");
    d
}

#[test]
fn honest_selection_verifies() {
    let d = Deployment::catalog(config(SchemeKind::Mock), 1, 200);
    let ans = d.select(500, 700);
    let rep = d.verify(500, 700, &ans).expect("valid");
    assert_eq!(rep.records, 21);
}

#[test]
fn tampered_value_rejected() {
    let d = Deployment::catalog(config(SchemeKind::Mock), 1, 100);
    let mut ans = d.select(100, 300);
    part(&mut ans).records[2].attrs[1] = 666;
    assert_eq!(d.verify(100, 300, &ans), Err(VerifyError::BadAggregate));
}

#[test]
fn dropped_record_rejected() {
    let d = Deployment::catalog(config(SchemeKind::Mock), 1, 100);
    let mut ans = d.select(100, 300);
    part(&mut ans).records.remove(3); // break the chain
    assert_eq!(d.verify(100, 300, &ans), Err(VerifyError::BadAggregate));
}

#[test]
fn truncated_tail_with_forged_boundary_rejected() {
    let d = Deployment::catalog(config(SchemeKind::Mock), 1, 100);
    let mut ans = d.select(100, 300);
    // Server drops the tail and moves the right boundary inward.
    part(&mut ans).records.truncate(5);
    part(&mut ans).right_key = 150;
    assert!(matches!(
        d.verify(100, 300, &ans),
        Err(VerifyError::BadBoundary) | Err(VerifyError::BadAggregate)
    ));
}

#[test]
fn out_of_range_record_rejected() {
    let d = Deployment::catalog(config(SchemeKind::Mock), 1, 100);
    let extra = part(&mut d.select(400, 400)).records[0].clone();
    let mut ans = d.select(100, 300);
    part(&mut ans).records.push(extra.clone());
    assert_eq!(
        d.verify(100, 300, &ans),
        Err(VerifyError::RecordOutOfRange { rid: extra.rid })
    );
}

#[test]
fn empty_answer_gap_proof_verifies() {
    let d = Deployment::catalog(config(SchemeKind::Mock), 1, 100);
    let ans = d.select(101, 109);
    let rep = d.verify(101, 109, &ans).expect("valid");
    assert_eq!(rep.records, 0);
}

#[test]
fn forged_gap_proof_rejected() {
    let d = Deployment::catalog(config(SchemeKind::Mock), 1, 100);
    let mut ans = d.select(101, 109);
    // Claim a wider gap than certified.
    part(&mut ans).gap.as_mut().unwrap().right_key = 10_000;
    assert_eq!(d.verify(101, 109, &ans), Err(VerifyError::BadAggregate));
}

#[test]
fn gap_proof_not_bracketing_rejected() {
    let d = Deployment::catalog(config(SchemeKind::Mock), 1, 100);
    let ans = d.select(101, 109);
    // Replay the same (valid) proof against a different range it does
    // not bracket: rejected via the boundary check or the gap check.
    assert!(matches!(
        d.verify(301, 309, &ans),
        Err(VerifyError::BadBoundary) | Err(VerifyError::BadGapProof)
    ));
}

#[test]
fn unchecked_artifacts_cannot_ride_on_nonempty_answers() {
    // Nothing on the non-empty path signature-checks a gap or vacancy
    // artifact, so a forged one attached to an otherwise-honest answer
    // must be rejected, not delivered inside a verified result. (These
    // shapes are network-reachable: the wire codec accepts them.)
    let d = Deployment::catalog(config(SchemeKind::Mock), 1, 100);
    let honest = d.select(100, 300);
    assert!(d.verify(100, 300, &honest).is_ok());

    let mut with_gap = honest.clone();
    part(&mut with_gap).gap = part(&mut d.select(2001, 2009)).gap.clone();
    assert!(part(&mut with_gap).gap.is_some());
    assert_eq!(d.verify(100, 300, &with_gap), Err(VerifyError::BadGapProof));

    // Tagged for this shard's own domain, so only the shape can object.
    let forged_vacancy = Some(EmptyTableProof {
        epoch: GENESIS_EPOCH,
        shard: 0,
        ts: 0,
        signature: d.v.public_params().identity(),
    });
    let mut with_vacancy = honest.clone();
    part(&mut with_vacancy).vacancy = forged_vacancy.clone();
    assert_eq!(
        d.verify(100, 300, &with_vacancy),
        Err(VerifyError::BadGapProof)
    );

    // Same for a vacancy co-attached to a genuine gap-proof answer.
    let mut gap_ans = d.select(101, 109);
    assert!(part(&mut gap_ans).gap.is_some());
    part(&mut gap_ans).vacancy = forged_vacancy;
    assert_eq!(d.verify(101, 109, &gap_ans), Err(VerifyError::BadGapProof));
}

#[test]
fn stale_record_detected_via_summaries() {
    let mut d = Deployment::catalog(config(SchemeKind::Mock), 1, 50);
    // Capture the answer before an update...
    let stale_ans = d.select(200, 260);
    // ...then update record key=230 and publish the summary trail.
    tick_and_publish(&mut d.sa, &d.sqs, 12);
    d.sa.advance_clock(2);
    d.update(23, vec![230, 777]);
    tick_and_publish(&mut d.sa, &d.sqs, 10);
    // A malicious server replays the stale answer but must attach the
    // published summaries (the client fetches them independently).
    let mut replay = stale_ans;
    part(&mut replay).summaries = summaries(&d);
    assert_eq!(
        d.verify_at(200, 260, &replay, 25),
        Err(VerifyError::Stale {
            rid: 23,
            exposed_by: 1
        })
    );
    // The honest fresh answer passes.
    let fresh = d.select(200, 260);
    assert!(d.verify_at(200, 260, &fresh, 25).is_ok());
}

#[test]
fn checkpoint_anchored_answers_verify_and_exposure_keeps_stale_verdicts() {
    let stale_ans = Deployment::catalog(config(SchemeKind::Mock), 1, 50).select(200, 260);
    // Compact everything but the newest summary — including seq 1, the
    // summary that used to prove the replay stale.
    let d = checkpointed(SchemeKind::Mock, 1);
    let ckpt = d.sa.shard(0).summary_checkpoint().cloned().unwrap();
    // Honest answers now ride on checkpoint + retained suffix: the DA's
    // own commitment and signature, opened for rids 20..=26 — one chunk
    // of the four, so two sibling digests.
    let mut honest = d.select(200, 260);
    let anchor = part(&mut honest).checkpoint.clone().expect("anchor");
    assert_eq!(anchor.signed_message(), ckpt.signed_message());
    assert_eq!(anchor.signature, ckpt.signature);
    let opened = &anchor.exposure;
    assert_eq!((opened.chunks.len(), opened.siblings.len()), (1, 2));
    assert!(part(&mut honest)
        .summaries
        .iter()
        .all(|s| s.seq > ckpt.through_seq));
    assert!(d.verify(200, 260, &honest).is_ok());
    // A gap proof older than the cut anchors on the checkpoint too.
    let mut gap_ans = d.select(201, 209);
    assert!(part(&mut gap_ans).gap.is_some() && part(&mut gap_ans).checkpoint.is_some());
    assert!(d.verify(201, 209, &gap_ans).is_ok());
    // The pre-update replay is exposed by the *checkpoint*: the marking
    // summary was compacted away, and the exposure map keeps its
    // verdict alive across the cut — read off the opening the honest
    // answer carries, or off the whole map (every chunk, no sibling).
    for anchor in [anchor, ckpt.clone()] {
        let mut replay = stale_ans.clone();
        part(&mut replay).summaries = summaries(&d);
        part(&mut replay).checkpoint = Some(anchor);
        assert_eq!(
            d.verify(200, 260, &replay),
            Err(VerifyError::StaleCheckpoint { rid: 23 })
        );
    }
    // A genuine checkpoint opened for *other* rids (0..=10, chunk 0)
    // hashes to its root and says nothing about these: withholding rid
    // 23's entry is not a fresh verdict. The first returned rid is
    // named.
    let mut replay = stale_ans;
    part(&mut replay).summaries = summaries(&d);
    part(&mut replay).checkpoint = part(&mut d.select(0, 100)).checkpoint.clone();
    assert!(part(&mut replay).checkpoint.is_some());
    assert_eq!(
        d.verify(200, 260, &replay),
        Err(VerifyError::CheckpointUnopened { rid: 20 })
    );
}

#[test]
fn forged_checkpoint_and_seam_gap_rejected() {
    let d = checkpointed(SchemeKind::Mock, 2);
    let mut honest = d.select(200, 260);
    assert_eq!(part(&mut honest).summaries.len(), 2);
    assert!(d.verify(200, 260, &honest).is_ok());
    // Any field flip breaks the checkpoint's signature.
    let mut forged = honest.clone();
    part(&mut forged).checkpoint.as_mut().unwrap().through_seq += 1;
    assert_eq!(d.verify(200, 260, &forged), Err(VerifyError::BadCheckpoint));
    // Dropping the retained summary that abuts the cut leaves seq 1
    // covered by nobody: the run no longer anchors at the checkpoint
    // and the seam failure is typed, not a generic indeterminate.
    let mut gappy = honest.clone();
    part(&mut gappy).summaries.remove(0);
    assert_eq!(
        d.verify(200, 260, &gappy),
        Err(VerifyError::CheckpointGap {
            expected_seq: 1,
            found_seq: 2
        })
    );
}

#[test]
fn empty_retained_run_rides_on_the_cut_within_two_rho() {
    // keep = 1: through_ts is the second summary's publication tick
    // (24), and the clock stands at 34.
    let d = checkpointed(SchemeKind::Mock, 1);
    let mut bare = d.select(200, 260);
    part(&mut bare).summaries.clear();
    // Within 2ρ of the cut the checkpoint itself is recency evidence —
    // the complete-prefix guarantee plus the exposure pass make an
    // empty retained run sound.
    assert!(d.verify(200, 260, &bare).is_ok());
    // Past 2ρ the server may be sitting on newer summaries that mark
    // these versions: the recency gate survives compaction.
    assert!(matches!(
        d.verify_at(200, 260, &bare, d.sa.now() + 10),
        Err(VerifyError::FreshnessIndeterminate { .. })
    ));
}

#[test]
fn vacancy_older_than_checkpoint_is_stale_by_exposure() {
    let mut d = Deployment::catalog(config(SchemeKind::Mock), 1, 0);
    let mut stale = d.select(0, 100);
    assert!(part(&mut stale).vacancy.is_some());
    d.sa.advance_clock(3);
    d.insert(vec![50, 1]);
    tick_and_publish(&mut d.sa, &d.sqs, 9);
    tick_and_publish(&mut d.sa, &d.sqs, 10);
    // Compact the summary that recorded the insertion.
    let ckpt = d.checkpoint(0, 1).expect("compactable");
    // The replayed pre-insert vacancy is voided by the exposure map's
    // record of the insertion, naming the inserted rid.
    let mut replay = stale;
    part(&mut replay).summaries = summaries(&d);
    part(&mut replay).checkpoint = Some(ckpt);
    assert_eq!(
        d.verify(0, 100, &replay),
        Err(VerifyError::StaleCheckpoint { rid: 0 })
    );
    // The honest answer (now containing the record) passes with the
    // checkpoint attached.
    let mut honest = d.select(0, 100);
    assert_eq!(part(&mut honest).records.len(), 1);
    assert!(part(&mut honest).checkpoint.is_some());
    assert!(d.verify(0, 100, &honest).is_ok());
}

#[test]
fn tampered_summary_rejected() {
    let mut d = Deployment::catalog(config(SchemeKind::Mock), 1, 20);
    tick_and_publish(&mut d.sa, &d.sqs, 12);
    let mut ans = d.select(0, 50);
    Arc::make_mut(&mut part(&mut ans).summaries[0]).ts += 1; // tamper
    assert!(matches!(
        d.verify_at(0, 50, &ans, 13),
        Err(VerifyError::BadSummarySignature { .. })
    ));
}

#[test]
fn signature_faults_outrank_freshness_and_keep_their_order() {
    for scheme in [SchemeKind::Mock, SchemeKind::Bas] {
        // Capture a pre-update answer, then the checkpointed timeline:
        // the cut covers seq 0, seqs 1 and 2 ride along, rid 23 moved
        // in seq 1's period.
        let old = Deployment::catalog(config(scheme), 1, 50).select(200, 260);
        let d = checkpointed(scheme, 2);
        let honest = d.select(200, 260);
        let honest_part = &honest.parts[0].answer;
        let seqs: Vec<u64> = honest_part.summaries.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, [1, 2], "{scheme:?}");
        assert!(honest_part.checkpoint.is_some());
        let verify = |ans: &ShardedSelectionAnswer| d.verify(200, 260, ans);
        assert_eq!(verify(&honest).map(|r| r.sig_claims), Ok(4), "{scheme:?}");

        // The checkpoint's signature covers its window and the root of
        // its exposure map; the opened entries hang off the root.
        let bad_ckpt = |ans: &mut ShardedSelectionAnswer| {
            part(ans).checkpoint.as_mut().unwrap().exposure.max ^= 1;
        };
        let bad_entry = |ans: &mut ShardedSelectionAnswer| {
            let exposure = &mut part(ans).checkpoint.as_mut().unwrap().exposure;
            *entry_mut(exposure, 23).expect("rid 23 opened") ^= 1;
        };
        let bad_summary = |ans: &mut ShardedSelectionAnswer, k: usize| {
            Arc::make_mut(&mut part(ans).summaries[k]).period_start ^= 1;
        };

        let mut a = honest.clone();
        bad_ckpt(&mut a);
        assert_eq!(verify(&a), Err(VerifyError::BadCheckpoint), "{scheme:?}");

        // The k-th summary bad names the k-th seq, not the first.
        for (k, &seq) in seqs.iter().enumerate() {
            let mut a = honest.clone();
            bad_summary(&mut a, k);
            assert_eq!(
                verify(&a),
                Err(VerifyError::BadSummarySignature { seq }),
                "{scheme:?} k={k}"
            );
        }

        // Both bad: the checkpoint is blamed first, as before the fold.
        let mut a = honest.clone();
        bad_summary(&mut a, 0);
        bad_ckpt(&mut a);
        assert_eq!(verify(&a), Err(VerifyError::BadCheckpoint), "{scheme:?}");

        // A doctored entry is no signature fault: every claim holds,
        // and the root it no longer hashes to rejects it after the fold
        // — so it ranks below any forged signature and above any
        // freshness verdict.
        let mut a = honest.clone();
        bad_entry(&mut a);
        assert_eq!(verify(&a), Err(VerifyError::BadCheckpoint), "{scheme:?}");
        bad_summary(&mut a, 1);
        assert_eq!(
            verify(&a),
            Err(VerifyError::BadSummarySignature { seq: 2 }),
            "{scheme:?}"
        );
        let mut a = old.clone();
        part(&mut a).summaries = honest_part.summaries.clone();
        part(&mut a).checkpoint = honest_part.checkpoint.clone();
        bad_entry(&mut a);
        assert_eq!(verify(&a), Err(VerifyError::BadCheckpoint), "{scheme:?}");

        // A bad summary outranks a bad aggregate...
        let mut a = honest.clone();
        part(&mut a).records[0].attrs[1] ^= 1;
        bad_summary(&mut a, 1);
        assert_eq!(
            verify(&a),
            Err(VerifyError::BadSummarySignature { seq: 2 }),
            "{scheme:?}"
        );

        // ...and a replay whose every signature is genuine gets past
        // the fold and is exposed by the vouched summaries.
        let mut replay = old.clone();
        part(&mut replay).summaries = honest_part.summaries.clone();
        part(&mut replay).checkpoint = honest_part.checkpoint.clone();
        assert_eq!(
            verify(&replay),
            Err(VerifyError::Stale {
                rid: 23,
                exposed_by: 1
            }),
            "{scheme:?}"
        );
    }
}

#[test]
fn static_point_answer_is_a_single_claim() {
    let d = Deployment::catalog(config(SchemeKind::Mock), 1, 100);
    let ans = d.select(500, 500);
    let rep = d.verify(500, 500, &ans).expect("valid");
    assert_eq!((rep.records, rep.sig_claims), (1, 1));
}

#[test]
fn empty_table_answer_verifies() {
    let d = Deployment::catalog(config(SchemeKind::Mock), 1, 0);
    let mut ans = d.select(-500, 500);
    assert!(part(&mut ans).vacancy.is_some());
    let rep = d.verify(-500, 500, &ans).expect("valid");
    assert_eq!(rep.records, 0);
}

#[test]
fn empty_table_then_deletes_keep_verifying() {
    let mut d = Deployment::catalog(config(SchemeKind::Mock), 1, 2);
    d.sa.advance_clock(2);
    for rid in 0..2 {
        d.sqs.apply_all(&d.sa.delete_record(0, rid));
    }
    tick_and_publish(&mut d.sa, &d.sqs, 10);
    let mut ans = d.select(0, 100);
    assert!(part(&mut ans).gap.is_none() && part(&mut ans).vacancy.is_some());
    assert!(d.verify(0, 100, &ans).is_ok());
}

#[test]
fn replayed_vacancy_proof_rejected_after_insert() {
    let mut d = Deployment::catalog(config(SchemeKind::Mock), 1, 0);
    let mut stale = d.select(0, 100);
    assert!(part(&mut stale).vacancy.is_some());
    d.sa.advance_clock(3);
    d.insert(vec![50, 1]);
    tick_and_publish(&mut d.sa, &d.sqs, 9);
    // Malicious replay of the pre-insert vacancy claim, with the
    // published summaries the client fetches independently.
    let mut replay = stale;
    part(&mut replay).summaries = summaries(&d);
    assert!(matches!(
        d.verify(0, 100, &replay),
        Err(VerifyError::StaleVacancy { .. })
    ));
    // The honest answer (which now contains the record) passes.
    let mut honest = d.select(0, 100);
    assert_eq!(part(&mut honest).records.len(), 1);
    assert!(d.verify(0, 100, &honest).is_ok());
}

#[test]
fn empty_answer_without_gap_or_vacancy_rejected() {
    // An empty result must certify its emptiness: stripping both the
    // gap proof and the vacancy certificate is the laziest possible
    // omission attack and must surface as MissingGapProof.
    let d = Deployment::catalog(config(SchemeKind::Mock), 1, 50);
    let mut ans = d.select(231, 239);
    assert!(part(&mut ans).records.is_empty() && part(&mut ans).gap.is_some());
    part(&mut ans).gap = None;
    assert!(matches!(
        d.verify(231, 239, &ans),
        Err(VerifyError::MissingGapProof)
    ));
}

#[test]
fn vacancy_with_gappy_summary_run_is_indeterminate() {
    // A vacancy claim whose summary run withholds the middle summary
    // can hide the insertion that voids it; contiguity failure must
    // surface as VacancyIndeterminate, not as a fresh verdict.
    let mut d = Deployment::catalog(config(SchemeKind::Mock), 1, 0);
    for _ in 0..3 {
        tick_and_publish(&mut d.sa, &d.sqs, 12);
    }
    let mut ans = d.select(0, 100);
    assert!(part(&mut ans).vacancy.is_some());
    assert_eq!(part(&mut ans).summaries.len(), 3);
    let mut gappy = ans.clone();
    part(&mut gappy).summaries.remove(1);
    assert!(matches!(
        d.verify(0, 100, &gappy),
        Err(VerifyError::VacancyIndeterminate)
    ));
    // The full contiguous run verifies.
    assert!(d.verify(0, 100, &ans).is_ok());
}

#[test]
fn stale_gap_record_rejected() {
    // Satellite regression: the bracketing record of a gap proof must
    // go through the summary check like any returned record.
    let mut d = Deployment::catalog(config(SchemeKind::Mock), 1, 50);
    let mut stale_empty = d.select(231, 239);
    assert_eq!(part(&mut stale_empty).gap.as_ref().unwrap().record.rid, 23);
    tick_and_publish(&mut d.sa, &d.sqs, 12);
    d.sa.advance_clock(2);
    d.update(23, vec![230, 777]);
    tick_and_publish(&mut d.sa, &d.sqs, 10);
    let mut replay = stale_empty;
    part(&mut replay).summaries = summaries(&d);
    assert!(matches!(
        d.verify(231, 239, &replay),
        Err(VerifyError::Stale { rid: 23, .. })
    ));
    // The honest gap proof (re-certified bracket) passes.
    let fresh = d.select(231, 239);
    assert!(d.verify(231, 239, &fresh).is_ok());
}

#[test]
fn withheld_summary_suffix_rejected() {
    // Satellite regression: stripping the newest summaries must yield
    // Indeterminate, not FreshWithin(rho).
    let mut d = Deployment::catalog(config(SchemeKind::Mock), 1, 50);
    tick_and_publish(&mut d.sa, &d.sqs, 12);
    d.sa.advance_clock(2);
    d.update(23, vec![230, 777]);
    tick_and_publish(&mut d.sa, &d.sqs, 10);
    tick_and_publish(&mut d.sa, &d.sqs, 10);
    let mut ans = d.select(200, 260);
    // Withhold everything after the first summary: the stale-looking
    // window.
    part(&mut ans).summaries.truncate(1);
    assert!(matches!(
        d.verify(200, 260, &ans),
        Err(VerifyError::FreshnessIndeterminate { .. })
    ));
    let honest = d.select(200, 260);
    assert!(d.verify(200, 260, &honest).is_ok());
}

/// Pair each query with the answer to it — the batch entry's input.
fn paired<'a>(
    queries: &[(i64, i64)],
    answers: &'a [ShardedSelectionAnswer],
) -> Vec<(i64, i64, &'a ShardedSelectionAnswer)> {
    let pairs = queries.iter().zip(answers);
    pairs.map(|(&(lo, hi), ans)| (lo, hi, ans)).collect()
}

fn answer_all(d: &Deployment, queries: &[(i64, i64)]) -> Vec<ShardedSelectionAnswer> {
    queries.iter().map(|&(lo, hi)| d.select(lo, hi)).collect()
}

#[test]
fn batch_verifies_honest_answers() {
    let mut rng = StdRng::seed_from_u64(91);
    let d = Deployment::catalog(config(SchemeKind::Mock), 1, 200);
    let queries: Vec<(i64, i64)> = (0..8).map(|i| (i * 200, i * 200 + 150)).collect();
    let answers = answer_all(&d, &queries);
    let reports =
        d.v.verify_sharded_batch(&paired(&queries, &answers), &d.view, 0, true, &mut rng)
            .expect("honest batch verifies");
    assert_eq!(reports.len(), 8);
    for (rep, ans) in reports.iter().zip(&answers) {
        assert_eq!(rep.records, ans.parts[0].answer.records.len());
    }
}

#[test]
fn batch_localizes_tampered_answer() {
    let mut rng = StdRng::seed_from_u64(92);
    let d = Deployment::catalog(config(SchemeKind::Mock), 1, 200);
    let queries: Vec<(i64, i64)> = (0..6).map(|i| (i * 300, i * 300 + 200)).collect();
    let mut answers = answer_all(&d, &queries);
    // Tamper answer 3's content: the batch check fails, and the
    // fallback localizes exactly that index.
    part(&mut answers[3]).records[1].attrs[1] = 31337;
    let err =
        d.v.verify_sharded_batch(&paired(&queries, &answers), &d.view, 0, true, &mut rng)
            .expect_err("tampered batch rejected");
    assert_eq!(
        err,
        BatchFailure {
            index: 3,
            error: VerifyError::BadAggregate
        }
    );
    // A structural fault and a stale map are localized the same way.
    let mut answers = answer_all(&d, &queries);
    part(&mut answers[4]).records.swap(0, 1);
    let err =
        d.v.verify_sharded_batch(&paired(&queries, &answers), &d.view, 0, true, &mut rng)
            .expect_err("unsorted answer rejected");
    assert_eq!((err.index, err.error), (4, VerifyError::Unsorted));
}

#[test]
fn batch_mixes_gap_and_vacancy_claims() {
    let mut rng = StdRng::seed_from_u64(93);
    // Three shards, the middle one empty: a batch mixing a multi-part
    // answer, gap proofs, a vacancy claim and an inverted range.
    let rows: Vec<Vec<i64>> = (0..100).map(|i| vec![i * 10, i]).collect();
    let Deployment { sqs, v, view, .. } =
        Deployment::new(config(SchemeKind::Mock), &rows, vec![1000, 2000], 21);
    let queries = [(100, 300), (101, 109), (900, 2100), (1200, 1300), (9, 1)];
    let answers: Vec<_> = queries
        .iter()
        .map(|&(lo, hi)| sqs.select_range(lo, hi).unwrap())
        .collect();
    assert!(answers[1].parts[0].answer.gap.is_some());
    assert_eq!(answers[2].parts.len(), 3);
    assert!(answers[3].parts[0].answer.vacancy.is_some());
    assert!(answers[4].parts.is_empty());
    let reports = v
        .verify_sharded_batch(&paired(&queries, &answers), &view, 0, true, &mut rng)
        .expect("mixed batch verifies");
    let records: Vec<usize> = reports.iter().map(|r| r.records).collect();
    assert_eq!(records, [21, 0, 10, 0, 0]);
    let claims: Vec<usize> = reports.iter().map(|r| r.sig_claims).collect();
    assert_eq!(claims, [1, 1, 3, 1, 0]);
}

/// Counts the coefficient draws a fold makes.
struct CountingRng(StdRng, usize);

impl rand::RngCore for CountingRng {
    fn next_u64(&mut self) -> u64 {
        self.1 += 1;
        self.0.next_u64()
    }
}

#[test]
fn batch_with_bas_scheme_verifies_and_localizes() {
    let mut d = Deployment::catalog(config(SchemeKind::Bas), 1, 30);
    tick_and_publish(&mut d.sa, &d.sqs, 12);
    let queries = [(0, 40), (50, 120), (201, 209)];
    let mut answers = answer_all(&d, &queries);
    // One fold for the whole batch: K claims draw K − 1 coefficients of
    // two words each. (A fold per answer would draw 2·(K − N).)
    let mut rng = CountingRng(StdRng::seed_from_u64(41), 0);
    let (reports, checks) = pairing_checks_of(|| {
        d.v.verify_sharded_batch(&paired(&queries, &answers), &d.view, 12, true, &mut rng)
    });
    let claims: usize = reports
        .expect("honest batch verifies")
        .iter()
        .map(|r| r.sig_claims)
        .sum();
    assert_eq!(claims, 6, "an aggregate and a summary per answer");
    assert_eq!((rng.1, checks), (2 * (claims - 1), 1));
    part(&mut answers[1]).records[0].attrs[1] = 777;
    let err =
        d.v.verify_sharded_batch(&paired(&queries, &answers), &d.view, 12, true, &mut rng)
            .expect_err("tamper caught");
    assert_eq!(err.index, 1);
    assert_eq!(err.error, VerifyError::BadAggregate);
}

#[test]
fn end_to_end_with_bas_scheme() {
    // Full cryptographic path once (slow): BAS signatures.
    let d = Deployment::catalog(config(SchemeKind::Bas), 1, 30);
    let ans = d.select(50, 120);
    let rep = d.verify(50, 120, &ans).expect("valid");
    assert_eq!(rep.records, 8);
    let mut bad = ans.clone();
    part(&mut bad).records[0].attrs[1] = 9;
    assert_eq!(d.verify(50, 120, &bad), Err(VerifyError::BadAggregate));
}

/// What `f` returned, and how many pairing checks it cost this thread.
fn pairing_checks_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = authdb_crypto::bls::pairing_checks();
    let out = f();
    (out, authdb_crypto::bls::pairing_checks() - before)
}

/// However many claims an honest BAS fold covers, the client pays one
/// pairing check for it: a fan-out over 1, 2, 4 or 8 shards, the same
/// deployment after a split and after a merge, a live answer carrying a
/// checkpoint and four summaries, and a batch of sixteen such answers.
#[test]
fn every_honest_bas_fold_is_one_pairing_check() {
    let mut rng = StdRng::seed_from_u64(47);
    let (lo, hi) = (0, 310);
    for shards in [1, 2, 4, 8] {
        let Deployment {
            mut sa,
            sqs,
            v,
            mut view,
            ..
        } = Deployment::catalog(config(SchemeKind::Bas), shards, 32);
        let mut fold = |view: &EpochView, now| {
            let ans = sqs.select_range(lo, hi).unwrap();
            let (rep, checks) = pairing_checks_of(|| {
                v.verify_sharded_selection(lo, hi, &ans, view, now, true, &mut rng)
            });
            (rep.expect("honest answer verifies").sig_claims, checks)
        };
        assert_eq!(fold(&view, 0), (shards as usize, 1), "{shards} shards");
        if shards == 8 {
            for plan in [
                RebalancePlan::Split { shard: 3, at: 140 },
                RebalancePlan::Merge { left: 3 },
            ] {
                let rb = sa.rebalance(plan, 2);
                sqs.apply_rebalance(&rb).unwrap();
                view.advance(&rb.transition, v.public_params()).unwrap();
                assert_eq!(fold(&view, sa.now()).1, 1, "after {plan:?}");
            }
        }
    }

    // Six quiet periods, then all but the last four summaries compact
    // into a checkpoint.
    let mut d = Deployment::catalog(config(SchemeKind::Bas), 1, 32);
    for _ in 0..6 {
        tick_and_publish(&mut d.sa, &d.sqs, 12);
    }
    d.checkpoint(0, 4).expect("compactable");
    let now = d.sa.now();
    let live = d.select(lo, hi);
    let part = &live.parts[0].answer;
    assert_eq!((part.checkpoint.is_some(), part.summaries.len()), (true, 4));
    let (rep, checks) = pairing_checks_of(|| d.verify(lo, hi, &live));
    assert_eq!((rep.map(|r| r.sig_claims), checks), (Ok(6), 1));
    let queries: Vec<(i64, i64)> = (0..16).map(|i| (i * 20, i * 20 + 15)).collect();
    let answers = answer_all(&d, &queries);
    let (reports, checks) = pairing_checks_of(|| {
        d.v.verify_sharded_batch(&paired(&queries, &answers), &d.view, now, true, &mut rng)
    });
    assert_eq!(
        (reports.expect("honest batch verifies").len(), checks),
        (16, 1)
    );
}

#[test]
fn inverted_range_honest_answer_verifies() {
    // An inverted range overlaps no shard: the honest answer is the
    // empty fan-out, and nothing in it needs certifying.
    let d = Deployment::catalog(config(SchemeKind::Mock), 1, 50);
    let ans = d.select(300, 200);
    assert!(ans.parts.is_empty());
    let rep = d.verify(300, 200, &ans).expect("valid");
    assert_eq!((rep.records, rep.sig_claims), (0, 0));
    // Even on an empty table, and even with freshness on late clocks.
    let e = Deployment::catalog(config(SchemeKind::Mock), 1, 0);
    let ans = e.select(10, -10);
    assert!(e.verify_at(10, -10, &ans, 500).is_ok());
}

#[test]
fn inverted_range_with_records_rejected() {
    // Nothing attached to an inverted range would ever be
    // signature-checked, so any part at all is rejected whole.
    let d = checkpointed(SchemeKind::Mock, 1);
    let unexpected = Err(VerifyError::UnexpectedShardAnswer { shard: 0 });
    // A server smuggles genuine records into a vacuously-empty query...
    let genuine = d.select(200, 260);
    assert_eq!(d.verify(300, 200, &genuine), unexpected);
    // ...or a genuine gap proof...
    let gap = d.select(201, 209);
    assert!(gap.parts[0].answer.gap.is_some());
    assert_eq!(d.verify(300, 200, &gap), unexpected);
    // ...or the engine's own canonical empty tile, bare or dressed with
    // a (genuine) checkpoint.
    let mut tile = d.select(300, 200);
    tile.parts.push(ShardAnswer {
        shard: 0,
        answer: d.sqs.select_shard(0, 300, 200).unwrap(),
    });
    assert_eq!(d.verify(300, 200, &tile), unexpected);
    part(&mut tile).checkpoint = d.sa.shard(0).summary_checkpoint().cloned();
    assert!(part(&mut tile).checkpoint.is_some());
    assert_eq!(d.verify(300, 200, &tile), unexpected);
}

// -- Sharded deployments: the signed map, epochs and their transitions,
// partial verdicts, and artifacts vouching across a shard or an epoch. --

#[test]
fn honest_sharded_answers_verify() {
    let mut rng = StdRng::seed_from_u64(7);
    let Deployment { sqs, v, view, .. } = Deployment::catalog(config(SchemeKind::Mock), 4, 40);
    for (lo, hi) in [
        (0, 390),     // all four shards
        (150, 250),   // straddles two seams
        (110, 190),   // inside one shard
        (200, 200),   // exactly a split key
        (1000, 2000), // beyond the data
        (250, 150),   // inverted
    ] {
        let ans = sqs.select_range(lo, hi).unwrap();
        let rep = v
            .verify_sharded_selection(lo, hi, &ans, &view, 0, true, &mut rng)
            .unwrap_or_else(|e| panic!("[{lo},{hi}] rejected: {e:?}"));
        let total: usize = ans.parts.iter().map(|p| p.answer.records.len()).sum();
        assert_eq!(rep.records, total);
    }
}

#[test]
fn forged_map_rejected() {
    let mut rng = StdRng::seed_from_u64(8);
    let Deployment { sqs, v, view, .. } = Deployment::catalog(config(SchemeKind::Mock), 2, 40);
    let mut ans = sqs.select_range(150, 250).unwrap();
    // Re-partitioning: shift the split without the DA's signature.
    let forged = forge_map(&ans.map);
    ans.map = forged;
    assert_eq!(
        v.verify_sharded_selection(150, 250, &ans, &view, 0, true, &mut rng),
        Err(VerifyError::BadShardMap)
    );
}

/// Build an unsigned variant of a map by re-creating it under a
/// different (attacker) key.
fn forge_map(map: &ShardMap) -> ShardMap {
    let mut rng = StdRng::seed_from_u64(666);
    let attacker = Keypair::generate(SchemeKind::Mock, &mut rng);
    let mut splits = map.splits().to_vec();
    splits[0] += 50;
    ShardMap::create(&attacker, splits)
}

#[test]
fn withheld_and_alien_parts_rejected() {
    let mut rng = StdRng::seed_from_u64(9);
    let Deployment { sqs, v, view, .. } = Deployment::catalog(config(SchemeKind::Mock), 2, 40);
    let full = sqs.select_range(150, 250).unwrap();
    // Withhold the second shard's contribution.
    let mut withheld = full.clone();
    withheld.parts.remove(1);
    assert_eq!(
        v.verify_sharded_selection(150, 250, &withheld, &view, 0, true, &mut rng),
        Err(VerifyError::ShardWithheld { shard: 1 })
    );
    // Duplicate a part.
    let mut dup = full.clone();
    let extra = dup.parts[0].clone();
    dup.parts.push(extra);
    assert_eq!(
        v.verify_sharded_selection(150, 250, &dup, &view, 0, true, &mut rng),
        Err(VerifyError::UnexpectedShardAnswer { shard: 0 })
    );
    // Attach an answer for a shard the query does not overlap.
    let mut alien = full.clone();
    let inside = sqs.select_range(120, 180).unwrap();
    assert_eq!(
        v.verify_sharded_selection(120, 180, &inside, &view, 0, true, &mut rng)
            .unwrap()
            .records,
        7
    );
    alien.parts[1].shard = 5;
    assert_eq!(
        v.verify_sharded_selection(150, 250, &alien, &view, 0, true, &mut rng),
        Err(VerifyError::UnexpectedShardAnswer { shard: 5 })
    );
}

#[test]
fn partial_verdict_certifies_reachable_tiles() {
    let mut rng = StdRng::seed_from_u64(21);
    let Deployment { sqs, v, view, .. } = Deployment::catalog(config(SchemeKind::Mock), 4, 40);
    let full = sqs.select_range(0, 390).unwrap();

    // Shard 2 unreachable: its part is absent and the client says
    // so. The other three tiles are certified; the dark one is a
    // ShardUnavailable tile, not an error.
    let mut partial = full.clone();
    partial.parts.retain(|p| p.shard != 2);
    let verdict = v
        .verify_partial_selection(0, 390, &partial, &[2], &view, 0, true, &mut rng)
        .expect("sound partial verdict");
    assert!(!verdict.is_complete());
    assert_eq!(unavailable_shards(&verdict), vec![2]);
    assert_eq!(verdict.tiles.len(), 4);
    assert_eq!(
        verdict
            .tiles
            .iter()
            .filter(|t| matches!(t, TileStatus::Certified { .. }))
            .count(),
        3
    );
    // The unavailable tile still names its sub-range, so a caller
    // knows exactly which keys the verdict does not cover.
    match verdict
        .tiles
        .iter()
        .find(|t| !matches!(t, TileStatus::Certified { .. }))
        .unwrap()
    {
        TileStatus::ShardUnavailable {
            shard,
            sub_lo,
            sub_hi,
        } => {
            assert_eq!(*shard, 2);
            assert!(sub_lo <= sub_hi);
        }
        other => panic!("expected ShardUnavailable, got {other:?}"),
    }

    // With an empty unreachable list the same machinery is exactly
    // the full verifier: complete verdict on the full answer...
    let verdict = v
        .verify_partial_selection(0, 390, &full, &[], &view, 0, true, &mut rng)
        .expect("complete answer verifies");
    assert!(verdict.is_complete());
    assert_eq!(unavailable_shards(&verdict), Vec::<usize>::new());

    // ...and a missing part without transport evidence is
    // withholding, not unavailability.
    assert_eq!(
        v.verify_partial_selection(0, 390, &partial, &[], &view, 0, true, &mut rng),
        Err(VerifyError::ShardWithheld { shard: 2 })
    );

    // A part present for a shard claimed unreachable is rejected:
    // the outage list is evidence, and evidence that contradicts
    // the answer kills it.
    assert_eq!(
        v.verify_partial_selection(0, 390, &full, &[1], &view, 0, true, &mut rng),
        Err(VerifyError::UnexpectedShardAnswer { shard: 1 })
    );
}

#[test]
fn partial_verdict_still_catches_tampered_reachable_tiles() {
    let mut rng = StdRng::seed_from_u64(22);
    let Deployment { sqs, v, view, .. } = Deployment::catalog(config(SchemeKind::Mock), 4, 40);
    let mut ans = sqs.select_range(0, 390).unwrap();
    // Shard 3 dark, shard 1 tampered: degradation must not dilute
    // detection on the tiles that did arrive.
    ans.parts.retain(|p| p.shard != 3);
    ans.parts[1].answer.records[2].attrs[1] = 31337;
    assert_eq!(
        v.verify_partial_selection(0, 390, &ans, &[3], &view, 0, true, &mut rng),
        Err(VerifyError::BadAggregate)
    );
}

#[test]
fn sharded_batch_localizes_tampered_shard() {
    let mut rng = StdRng::seed_from_u64(10);
    let Deployment { sqs, v, view, .. } = Deployment::catalog(config(SchemeKind::Mock), 2, 40);
    let mut ans = sqs.select_range(150, 250).unwrap();
    ans.parts[1].answer.records[2].attrs[1] = 31337;
    assert_eq!(
        v.verify_sharded_selection(150, 250, &ans, &view, 0, true, &mut rng),
        Err(VerifyError::BadAggregate)
    );
}

#[test]
fn live_server_survives_split_and_merge_with_zero_rejections() {
    // The acceptance-criterion scenario: a live deployment crosses
    // a split and then a merge, and every honest answer — before,
    // between, and after the transitions — verifies.
    let mut rng = StdRng::seed_from_u64(12);
    let Deployment {
        mut sa,
        mut sqs,
        v,
        mut view,
        ..
    } = Deployment::catalog(config(SchemeKind::Mock), 2, 40);
    let queries = [(0, 390), (150, 250), (250, 350), (290, 310), (395, 500)];
    let check_all = |sqs: &mut ShardedQueryServer,
                     view: &EpochView,
                     now: Tick,
                     rng: &mut StdRng,
                     label: &str| {
        for &(lo, hi) in &queries {
            let ans = sqs.select_range(lo, hi).unwrap();
            v.verify_sharded_selection(lo, hi, &ans, view, now, true, rng)
                .unwrap_or_else(|e| panic!("{label}: [{lo},{hi}] rejected: {e:?}"));
        }
    };
    check_all(&mut sqs, &view, sa.now(), &mut rng, "epoch 1");

    // Split shard 1 (keys >= 200) at 300.
    let rb = sa.rebalance(RebalancePlan::Split { shard: 1, at: 300 }, 2);
    sqs.apply_rebalance(&rb).expect("honest split applies");
    view.advance(&rb.transition, v.public_params())
        .expect("honest transition");
    assert_eq!(view.epoch(), 2);
    assert_eq!(sqs.map().splits(), &[200, 300]);
    check_all(&mut sqs, &view, sa.now(), &mut rng, "epoch 2 (post-split)");

    // Keep the deployment live: an update and a summary in the new
    // epoch, then verify again.
    sa.advance_clock(2);
    let (_, msgs) = sa.update_record(0, 3, vec![35, 999]);
    sqs.apply_all(&msgs);
    tick_and_publish(&mut sa, &sqs, 10);
    check_all(&mut sqs, &view, sa.now(), &mut rng, "epoch 2 (live)");

    // Merge the split pair back together.
    let rb = sa.rebalance(RebalancePlan::Merge { left: 1 }, 2);
    sqs.apply_rebalance(&rb).expect("honest merge applies");
    view.advance(&rb.transition, v.public_params())
        .expect("honest transition");
    assert_eq!(view.epoch(), 3);
    assert_eq!(sqs.map().splits(), &[200]);
    check_all(&mut sqs, &view, sa.now(), &mut rng, "epoch 3 (post-merge)");
}

#[test]
fn stale_epoch_answers_rejected_after_observation() {
    let mut rng = StdRng::seed_from_u64(13);
    let Deployment {
        mut sa,
        sqs,
        v,
        mut view,
        ..
    } = Deployment::catalog(config(SchemeKind::Mock), 2, 40);
    let old_ans = sqs.select_range(150, 250).unwrap();
    assert!(v
        .verify_sharded_selection(150, 250, &old_ans, &view, 0, true, &mut rng)
        .is_ok());
    let rb = sa.rebalance(RebalancePlan::Split { shard: 1, at: 300 }, 2);
    sqs.apply_rebalance(&rb).unwrap();
    // Until the client observes the transition, the in-flight
    // epoch-1 answer still verifies — and the epoch-2 answer is
    // *premature*.
    assert!(v
        .verify_sharded_selection(150, 250, &old_ans, &view, 0, true, &mut rng)
        .is_ok());
    let new_ans = sqs.select_range(150, 250).unwrap();
    assert_eq!(
        v.verify_sharded_selection(150, 250, &new_ans, &view, sa.now(), true, &mut rng),
        Err(VerifyError::StaleEpoch {
            answer_epoch: 2,
            live_epoch: 1
        })
    );
    // After observation the situation flips exactly.
    view.advance(&rb.transition, v.public_params()).unwrap();
    assert_eq!(
        v.verify_sharded_selection(150, 250, &old_ans, &view, sa.now(), true, &mut rng),
        Err(VerifyError::StaleEpoch {
            answer_epoch: 1,
            live_epoch: 2
        })
    );
    assert!(v
        .verify_sharded_selection(150, 250, &new_ans, &view, sa.now(), true, &mut rng)
        .is_ok());
}

#[test]
fn broken_transitions_rejected() {
    let Deployment {
        mut sa,
        sqs,
        v,
        view,
        ..
    } = Deployment::catalog(config(SchemeKind::Mock), 2, 40);
    let rb = sa.rebalance(RebalancePlan::Split { shard: 0, at: 100 }, 2);
    sqs.apply_rebalance(&rb).unwrap();
    let pp = v.public_params();
    // Wrong parent hash (chain splice).
    let mut spliced = rb.transition.clone();
    spliced.parent_hash[0] ^= 1;
    assert_eq!(
        view.clone().advance(&spliced, pp),
        Err(VerifyError::BrokenTransition)
    );
    // Skipped epoch.
    let mut skipped = rb.transition.clone();
    skipped.epoch += 1;
    assert_eq!(
        view.clone().advance(&skipped, pp),
        Err(VerifyError::BrokenTransition)
    );
    // Tampered map hash (signature no longer covers it).
    let mut redirected = rb.transition.clone();
    redirected.map_hash[0] ^= 1;
    assert_eq!(
        view.clone().advance(&redirected, pp),
        Err(VerifyError::BrokenTransition)
    );
    // The genuine transition advances.
    let mut ok = view.clone();
    ok.advance(&rb.transition, pp).unwrap();
    assert_eq!(ok.map_hash(), &sqs.map().hash());
}

#[test]
fn observe_catches_up_in_one_bundle_and_never_moves_backwards() {
    let Deployment {
        mut sa,
        sqs,
        v,
        view: genesis,
        ..
    } = Deployment::catalog(config(SchemeKind::Mock), 2, 40);
    let pp = v.public_params();
    // At genesis the (checkpoint-free) bundle is the pinned one.
    let mut view = genesis.clone();
    view.observe(&sqs.epoch_bootstrap(), pp).unwrap();
    assert_eq!(view, genesis);

    // Three rebalances; the reference view folds `advance` over
    // every link, the observing one sees only the last bundle.
    let mut walked = genesis;
    let mut bundles = Vec::new();
    for plan in [
        RebalancePlan::Split { shard: 1, at: 300 },
        RebalancePlan::Merge { left: 1 },
        RebalancePlan::Split { shard: 0, at: 100 },
    ] {
        let rb = sa.rebalance(plan, 2);
        sqs.apply_rebalance(&rb).unwrap();
        walked.advance(&rb.transition, pp).unwrap();
        bundles.push(sqs.epoch_bootstrap());
    }
    // The same seeded deployment (same DA key) split elsewhere: a
    // genuinely signed second partition for epoch 2.
    let Deployment {
        sa: mut fork,
        sqs: fork_qs,
        ..
    } = Deployment::catalog(config(SchemeKind::Mock), 2, 40);
    let rb = fork.rebalance(RebalancePlan::Split { shard: 1, at: 250 }, 2);
    fork_qs.apply_rebalance(&rb).unwrap();
    let foreign = fork_qs.epoch_bootstrap();
    assert!(EpochView::from_bootstrap(&foreign, pp).is_ok());

    view.observe(&bundles[0], pp).unwrap();
    assert_eq!(view.epoch(), 2);
    assert_eq!(view.observe(&foreign, pp), Err(VerifyError::BadShardMap));
    view.observe(&bundles[2], pp).unwrap();
    assert_eq!(view, walked);
    // The pinned bundle again is a no-op; an older one is a rollback.
    view.observe(&bundles[2], pp).unwrap();
    let rollback = VerifyError::StaleEpoch {
        answer_epoch: 2,
        live_epoch: 4,
    };
    assert_eq!(view.observe(&bundles[0], pp), Err(rollback.clone()));
    assert_eq!(view.observe(&foreign, pp), Err(rollback));
    // Every refusal left the view where it was.
    assert_eq!(view, walked);
}

#[test]
fn cross_epoch_summaries_rejected() {
    // Split-brain within one answer: a part backed by the previous
    // epoch's (genuinely signed) summary stream.
    let mut rng = StdRng::seed_from_u64(15);
    let Deployment {
        mut sa,
        sqs,
        v,
        mut view,
        ..
    } = Deployment::catalog(config(SchemeKind::Mock), 2, 40);
    tick_and_publish(&mut sa, &sqs, 12);
    let old = sqs.select_range(150, 250).unwrap();
    let rb = sa.rebalance(RebalancePlan::Split { shard: 1, at: 300 }, 2);
    sqs.apply_rebalance(&rb).unwrap();
    view.advance(&rb.transition, v.public_params()).unwrap();
    let mut mixed = sqs.select_range(150, 250).unwrap();
    // Shard 0 survived the split untouched except for the re-bound
    // stream; vouch for it with its old epoch-1 summaries instead.
    assert_eq!(mixed.parts[0].shard, 0);
    mixed.parts[0].answer.summaries = old.parts[0].answer.summaries.clone();
    assert!(!mixed.parts[0].answer.summaries.is_empty());
    assert_eq!(
        v.verify_sharded_selection(150, 250, &mixed, &view, sa.now(), true, &mut rng),
        Err(VerifyError::EpochMismatch { shard: 0 })
    );
    // The honest (re-bound) answer passes.
    let honest = sqs.select_range(150, 250).unwrap();
    assert!(v
        .verify_sharded_selection(150, 250, &honest, &view, sa.now(), true, &mut rng)
        .is_ok());
}

#[test]
fn handoff_replay_of_pre_transition_versions_is_stale() {
    // The rid-space gate: a pre-split answer replayed under the
    // new epoch (with the new map and the new, genuinely-signed
    // baseline summaries) must read as Stale — the baseline marks
    // the whole donor rid space.
    let mut rng = StdRng::seed_from_u64(16);
    let Deployment {
        mut sa,
        sqs,
        v,
        mut view,
        ..
    } = Deployment::catalog(config(SchemeKind::Mock), 2, 40);
    let old = sqs.select_range(210, 290).unwrap(); // inside shard 1
    assert_eq!(old.parts.len(), 1);
    let rb = sa.rebalance(RebalancePlan::Split { shard: 1, at: 300 }, 2);
    sqs.apply_rebalance(&rb).unwrap();
    view.advance(&rb.transition, v.public_params()).unwrap();
    let honest = sqs.select_range(210, 290).unwrap();
    assert_eq!(honest.parts.len(), 1);
    assert_eq!(honest.parts[0].shard, 1);
    // Forge: old records + old aggregate, dressed with the new
    // epoch's stream (boundary keys kept plausible: the old
    // sub-range [210, 290] lies strictly inside the new shard).
    let mut forged = honest.clone();
    forged.parts[0].answer.records = old.parts[0].answer.records.clone();
    forged.parts[0].answer.agg = old.parts[0].answer.agg.clone();
    forged.parts[0].answer.left_key = old.parts[0].answer.left_key;
    forged.parts[0].answer.right_key = old.parts[0].answer.right_key;
    assert!(matches!(
        v.verify_sharded_selection(210, 290, &forged, &view, sa.now(), true, &mut rng),
        Err(VerifyError::Stale { .. })
    ));
    assert!(v
        .verify_sharded_selection(210, 290, &honest, &view, sa.now(), true, &mut rng)
        .is_ok());
}

#[test]
fn bootstrap_from_checkpoint_pins_the_live_epoch_in_constant_signatures() {
    let mut rng = StdRng::seed_from_u64(17);
    let Deployment {
        mut sa,
        sqs,
        v,
        view: mut walked,
        ..
    } = Deployment::catalog(config(SchemeKind::Mock), 2, 40);
    // Genesis bundle: no checkpoint exists yet; the bundle pins via
    // the map alone.
    let boot = sqs.epoch_bootstrap();
    assert!(boot.checkpoint.is_none() && boot.transition.is_none());
    let view = EpochView::from_bootstrap(&boot, v.public_params()).expect("genesis pin");
    assert_eq!(view.epoch(), 1);
    // Two rebalances later the bundle carries the latest transition
    // plus its checkpoint, and a fresh client pins epoch 3 without
    // ever seeing the epoch-2 link.
    for plan in [
        RebalancePlan::Split { shard: 1, at: 300 },
        RebalancePlan::Merge { left: 1 },
    ] {
        let rb = sa.rebalance(plan, 2);
        sqs.apply_rebalance(&rb).unwrap();
        walked.advance(&rb.transition, v.public_params()).unwrap();
    }
    let boot = sqs.epoch_bootstrap();
    assert_eq!(boot.checkpoint.as_ref().map(|c| c.epoch), Some(3));
    let view = EpochView::from_bootstrap(&boot, v.public_params()).expect("O(1) pin");
    assert_eq!(view.epoch(), 3);
    // The checkpoint-pinned view is exactly the link-by-link one...
    assert_eq!(view, walked);
    // ...and certifies live answers like it.
    let ans = sqs.select_range(150, 250).unwrap();
    assert!(v
        .verify_sharded_selection(150, 250, &ans, &view, sa.now(), true, &mut rng)
        .is_ok());
}

#[test]
fn tampered_bootstrap_bundles_rejected() {
    let Deployment { mut sa, sqs, v, .. } = Deployment::catalog(config(SchemeKind::Mock), 2, 40);
    let genesis_map = sa.map().clone();
    let rb1 = sa.rebalance(RebalancePlan::Split { shard: 1, at: 300 }, 2);
    sqs.apply_rebalance(&rb1).unwrap();
    let rb2 = sa.rebalance(RebalancePlan::Merge { left: 1 }, 2);
    sqs.apply_rebalance(&rb2).unwrap();
    let boot = sqs.epoch_bootstrap();
    let pp = v.public_params();
    assert!(EpochView::from_bootstrap(&boot, pp).is_ok());
    // Forged checkpoint content: the signature no longer covers it.
    let mut forged = boot.clone();
    forged.checkpoint.as_mut().unwrap().ts += 1;
    assert_eq!(
        EpochView::from_bootstrap(&forged, pp),
        Err(VerifyError::BadCheckpoint)
    );
    // Wrong-epoch replay: a genuine checkpoint presented with a
    // different genuinely-signed map.
    let mut replayed = boot.clone();
    replayed.map = genesis_map;
    assert_eq!(
        EpochView::from_bootstrap(&replayed, pp),
        Err(VerifyError::BadCheckpoint)
    );
    // Chain break: the transition the checkpoint names is replaced
    // by a different (still genuinely signed) link...
    let mut spliced = boot.clone();
    spliced.transition = Some(rb1.transition.clone());
    assert_eq!(
        EpochView::from_bootstrap(&spliced, pp),
        Err(VerifyError::BadCheckpoint)
    );
    // ...or tampered outright (its own signature fails first).
    let mut broken = boot.clone();
    broken.transition.as_mut().unwrap().ts += 1;
    assert_eq!(
        EpochView::from_bootstrap(&broken, pp),
        Err(VerifyError::BrokenTransition)
    );
    // Withheld transition: past genesis the chain link is owed.
    let mut withheld = boot.clone();
    withheld.transition = None;
    assert_eq!(
        EpochView::from_bootstrap(&withheld, pp),
        Err(VerifyError::BadCheckpoint)
    );
}

#[test]
fn one_check_covers_every_signature_of_a_live_sharded_answer() {
    let mut rng = StdRng::seed_from_u64(19);
    let mut d = Deployment::catalog(config(SchemeKind::Mock), 2, 40);
    for _ in 0..3 {
        tick_and_publish(&mut d.sa, &d.sqs, 12);
    }
    for s in 0..2 {
        d.checkpoint(s, 2).expect("compactable");
    }
    let Deployment {
        sa, sqs, v, view, ..
    } = d;
    // Straddles the seam: two parts, each with its checkpoint and
    // its two retained summaries.
    let ans = sqs.select_range(150, 250).unwrap();
    let (mut summaries, mut checkpoints) = (0, 0);
    for p in &ans.parts {
        summaries += p.answer.summaries.len();
        checkpoints += usize::from(p.answer.checkpoint.is_some());
    }
    assert_eq!((ans.parts.len(), summaries, checkpoints), (2, 4, 2));
    let rep = v
        .verify_sharded_selection(150, 250, &ans, &view, sa.now(), true, &mut rng)
        .expect("valid");
    assert_eq!(rep.sig_claims, summaries + checkpoints + ans.parts.len());
    // Freshness off: the artifacts are neither claimed nor read.
    let rep = v
        .verify_sharded_selection(150, 250, &ans, &view, sa.now(), false, &mut rng)
        .expect("valid");
    assert_eq!(rep.sig_claims, ans.parts.len());
}

#[test]
fn alien_checkpoint_cannot_vouch_for_another_shard() {
    let mut rng = StdRng::seed_from_u64(18);
    let mut d = Deployment::catalog(config(SchemeKind::Mock), 2, 40);
    for _ in 0..2 {
        tick_and_publish(&mut d.sa, &d.sqs, 12);
    }
    for s in 0..2 {
        d.checkpoint(s, 1).expect("compactable");
    }
    let Deployment {
        sa, sqs, v, view, ..
    } = d;
    let honest = sqs.select_range(150, 250).unwrap();
    assert!(honest.parts.iter().all(|p| p.answer.checkpoint.is_some()));
    assert!(v
        .verify_sharded_selection(150, 250, &honest, &view, sa.now(), true, &mut rng)
        .is_ok());
    // Cross-shard vouching: shard 1's (genuine) checkpoint on shard
    // 0's part is caught by the domain gate before any signature
    // or freshness work.
    let mut cross = honest.clone();
    cross.parts[0].answer.checkpoint = honest.parts[1].answer.checkpoint.clone();
    assert_eq!(
        v.verify_sharded_selection(150, 250, &cross, &view, sa.now(), true, &mut rng),
        Err(VerifyError::ShardMismatch { shard: 0 })
    );
    // Cross-epoch: an epoch flip likewise fails the domain gate.
    let mut alien = honest.clone();
    alien.parts[0].answer.checkpoint.as_mut().unwrap().epoch = 9;
    assert_eq!(
        v.verify_sharded_selection(150, 250, &alien, &view, sa.now(), true, &mut rng),
        Err(VerifyError::EpochMismatch { shard: 0 })
    );
}
