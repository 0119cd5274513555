//! Property test: **no combination of faults is ever accepted**.
//!
//! The tamper catalogs pin one typed error per single fault. Since every
//! signature of an answer is judged by one folded check, and freshness only
//! afterwards, what several simultaneous faults must still guarantee is the
//! verdict itself: on a live two-shard checkpointed deployment, any
//! non-empty subset of {flip a summary byte, flip an opened checkpoint
//! exposure entry, flip a record attribute, vouch for one part with the
//! other shard's summaries, replay a pre-update version} is rejected —
//! whichever error wins — and the untouched answer is always accepted.
//!
//! The exposure entry is the one fault no signature sees: the checkpoint's
//! signature covers the root of its exposure map, and a doctored entry is
//! caught after the fold, by the root its opening no longer hashes to. So
//! alone it is `BadCheckpoint`, and beside a forged signature it is that
//! signature's error — pinned below.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use authdb_core::shard::ShardedSelectionAnswer;
use authdb_core::verify::{EpochView, Verifier, VerifyError};
use authdb_crypto::signer::SchemeKind;
use authdb_testkit::adversary::run_sharded_timeline;
use authdb_testkit::deploy::{config, Deployment};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The seam-straddling query every case answers.
const QUERY: (i64, i64) = (150, 250);

/// One scheme's deployment after the shared timeline and a checkpoint on
/// both shards, frozen: what the client holds, the honest answer, and the
/// answer captured before shard 1's update.
struct Fixture {
    v: Verifier,
    view: EpochView,
    now: u64,
    honest: ShardedSelectionAnswer,
    pre_update: ShardedSelectionAnswer,
}

fn fixture(scheme: SchemeKind) -> &'static Fixture {
    static MOCK: OnceLock<Fixture> = OnceLock::new();
    static BAS: OnceLock<Fixture> = OnceLock::new();
    let cell = match scheme {
        SchemeKind::Bas => &BAS,
        _ => &MOCK,
    };
    cell.get_or_init(|| {
        let mut d = Deployment::catalog(config(scheme), 2, 40);
        let pre_update = d.select(QUERY.0, QUERY.1);
        run_sharded_timeline(&mut d.sa, &d.sqs);
        for shard in 0..2 {
            let ckpt = d.sa.checkpoint_shard_summaries(shard, 2);
            d.sqs.apply_checkpoint(shard, ckpt.expect("compactable"));
        }
        let honest = d.select(QUERY.0, QUERY.1);
        assert_eq!(honest.parts.len(), 2);
        for p in &honest.parts {
            assert!(p.answer.checkpoint.is_some() && p.answer.summaries.len() == 2);
        }
        Fixture {
            now: d.sa.now(),
            v: d.v,
            view: d.view,
            honest,
            pre_update,
        }
    })
}

/// Apply the faults selected by `mask`'s low five bits; `pick` chooses where
/// each lands.
fn tamper(fx: &Fixture, mask: u8, pick: u64) -> ShardedSelectionAnswer {
    let mut ans = fx.honest.clone();
    let at = |n: usize, salt: u64| ((pick >> salt) % n as u64) as usize;
    if mask & 1 != 0 {
        let a = &mut ans.parts[at(2, 0)].answer;
        let s = Arc::make_mut(&mut a.summaries[at(2, 1)]);
        let i = at(s.compressed.len(), 2);
        s.compressed[i] ^= 1 << at(8, 10);
    }
    if mask & 2 != 0 {
        let c = ans.parts[at(2, 13)].answer.checkpoint.as_mut().unwrap();
        let chunk = at(c.exposure.chunks.len(), 14);
        let entries = &mut c.exposure.chunks[chunk].1;
        entries[at(entries.len(), 17)] ^= 1 << at(8, 20);
    }
    if mask & 4 != 0 {
        let a = &mut ans.parts[at(2, 23)].answer;
        let i = at(a.records.len(), 24);
        a.records[i].attrs[1] ^= 1 << at(8, 30);
    }
    if mask & 8 != 0 {
        ans.parts[1].answer.summaries = fx.honest.parts[0].answer.summaries.clone();
    }
    if mask & 16 != 0 {
        // Shard 1 took the timeline's update: its pre-update records under
        // the current freshness artifacts.
        let old = &fx.pre_update.parts[1].answer;
        let a = &mut ans.parts[1].answer;
        a.records = old.records.clone();
        a.agg = old.agg.clone();
        a.left_key = old.left_key;
        a.right_key = old.right_key;
    }
    ans
}

fn check(scheme: SchemeKind, mask: u8, pick: u64, rng_seed: u64) -> Result<(), TestCaseError> {
    let fx = fixture(scheme);
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let (lo, hi) = QUERY;
    let honest =
        fx.v.verify_sharded_selection(lo, hi, &fx.honest, &fx.view, fx.now, true, &mut rng);
    prop_assert!(honest.is_ok(), "honest answer rejected: {honest:?}");
    let tampered = tamper(fx, mask, pick);
    let verdict =
        fx.v.verify_sharded_selection(lo, hi, &tampered, &fx.view, fx.now, true, &mut rng);
    prop_assert!(verdict.is_err(), "faults {mask:#07b} accepted: {verdict:?}");
    // Where the doctored entry ranks (the summary swap aside, which the
    // structural phase names before any of this): a forged summary beside
    // it is named instead; alone, or beside a replay only the freshness
    // pass would see, it is the root's `BadCheckpoint`.
    if mask & 2 != 0 && mask & 8 == 0 {
        if mask & 1 != 0 {
            let named = matches!(verdict, Err(VerifyError::BadSummarySignature { .. }));
            prop_assert!(named, "faults {mask:#07b}: {verdict:?}");
        } else if mask & 4 == 0 {
            prop_assert_eq!(verdict, Err(VerifyError::BadCheckpoint));
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn no_fault_subset_is_accepted_mock(
        mask in 1u8..32,
        pick in any::<u64>(),
        rng_seed in any::<u64>(),
    ) {
        check(SchemeKind::Mock, mask, pick, rng_seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn no_fault_subset_is_accepted_bas(
        mask in 1u8..32,
        pick in any::<u64>(),
        rng_seed in any::<u64>(),
    ) {
        check(SchemeKind::Bas, mask, pick, rng_seed)?;
    }
}
