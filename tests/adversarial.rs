//! Adversarial integration tests: a compromised query server tries every
//! class of forgery the paper's correctness properties rule out, across
//! all three signature schemes.

use authdb::core::da::{DaConfig, DataAggregator};
use authdb::core::qs::QueryServer;
use authdb::core::record::Schema;
use authdb::core::verify::{Verifier, VerifyError};
use authdb::crypto::signer::SchemeKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn system(scheme: SchemeKind) -> (DataAggregator, QueryServer, Verifier) {
    let schema = Schema::new(2, 64);
    let cfg = DaConfig {
        schema,
        scheme,
        rho: 5,
        rho_prime: 1000,
        buffer_pages: 1024,
        ..DaConfig::small()
    };
    let mut rng = StdRng::seed_from_u64(99);
    let mut da = DataAggregator::new(cfg, &mut rng);
    let boot = da.bootstrap((0..100).map(|i| vec![i * 5, i]).collect(), 4);
    let qs = da.replica(&boot);
    let verifier = da.verifier();
    (da, qs, verifier)
}

fn schemes() -> Vec<SchemeKind> {
    vec![SchemeKind::Bas, SchemeKind::Mock]
}

#[test]
fn authenticity_value_forgery_rejected() {
    for scheme in schemes() {
        let (da, qs, v) = system(scheme);
        let mut ans = qs.select_range(100, 300).unwrap();
        ans.records[7].attrs[1] = 12345;
        assert_eq!(
            v.verify_selection(100, 300, &ans, da.now(), true),
            Err(VerifyError::BadAggregate),
            "{scheme:?}"
        );
    }
}

#[test]
fn completeness_omission_rejected() {
    for scheme in schemes() {
        let (da, qs, v) = system(scheme);
        for victim in [0usize, 5, 40] {
            let mut ans = qs.select_range(100, 300).unwrap();
            ans.records.remove(victim);
            assert!(
                v.verify_selection(100, 300, &ans, da.now(), true).is_err(),
                "{scheme:?} omission at {victim}"
            );
        }
    }
}

#[test]
fn completeness_boundary_shrink_rejected() {
    for scheme in schemes() {
        let (da, qs, v) = system(scheme);
        // Drop the first two records and pretend the range started later.
        let mut ans = qs.select_range(100, 300).unwrap();
        ans.records.drain(0..2);
        ans.left_key = 105;
        assert!(
            v.verify_selection(100, 300, &ans, da.now(), true).is_err(),
            "{scheme:?}"
        );
    }
}

#[test]
fn record_injection_rejected() {
    for scheme in schemes() {
        let (da, qs, v) = system(scheme);
        // Duplicate a legitimate record inside the answer.
        let mut ans = qs.select_range(100, 300).unwrap();
        let dup = ans.records[3].clone();
        ans.records.insert(4, dup);
        assert!(
            v.verify_selection(100, 300, &ans, da.now(), true).is_err(),
            "{scheme:?}"
        );
    }
}

#[test]
fn cross_query_signature_reuse_rejected() {
    for scheme in schemes() {
        let (da, qs, v) = system(scheme);
        // Take the aggregate from one range and attach it to another.
        let other = qs.select_range(300, 400).unwrap();
        let mut ans = qs.select_range(100, 200).unwrap();
        ans.agg = other.agg;
        assert_eq!(
            v.verify_selection(100, 200, &ans, da.now(), true),
            Err(VerifyError::BadAggregate),
            "{scheme:?}"
        );
    }
}

#[test]
fn reordered_records_rejected() {
    for scheme in schemes() {
        let (da, qs, v) = system(scheme);
        let mut ans = qs.select_range(100, 300).unwrap();
        ans.records.swap(2, 9);
        assert!(
            v.verify_selection(100, 300, &ans, da.now(), true).is_err(),
            "{scheme:?}"
        );
    }
}

#[test]
fn stale_version_with_valid_signature_rejected() {
    for scheme in schemes() {
        let (mut da, mut qs, v) = system(scheme);
        let stale = qs.select_range(100, 200).unwrap();
        da.advance_clock(3);
        qs.apply_all(&da.update_record(25, vec![125, 4242]));
        da.advance_clock(10);
        let (summary, _) = da.force_publish_summary();
        qs.add_summary(summary.clone());
        // The replayed answer is cryptographically intact but stale; the
        // client cross-checks against the summaries it fetched itself.
        let mut replay = stale.clone();
        replay.summaries = vec![std::sync::Arc::new(summary)];
        assert!(
            matches!(
                v.verify_selection(100, 200, &replay, da.now(), true),
                Err(VerifyError::Stale { rid: 25, .. })
            ),
            "{scheme:?}"
        );
    }
}

#[test]
fn withheld_summary_detected_as_gap() {
    let (mut da, mut qs, v) = system(SchemeKind::Mock);
    // Publish three summaries; the server withholds the middle one.
    let mut sums = Vec::new();
    for _ in 0..3 {
        da.advance_clock(6);
        let (s, _) = da.maybe_publish_summary().unwrap();
        sums.push(s.clone());
        qs.add_summary(s);
    }
    da.advance_clock(1);
    qs.apply_all(&da.update_record(10, vec![50, 1]));
    let mut ans = qs.select_range(0, 495).unwrap();
    ans.summaries = vec![
        std::sync::Arc::new(sums[0].clone()),
        std::sync::Arc::new(sums[2].clone()),
    ]; // gap at seq 1
    assert!(matches!(
        v.verify_selection(0, 495, &ans, da.now(), true),
        Err(VerifyError::FreshnessIndeterminate { .. })
    ));
}

#[test]
fn empty_range_cannot_hide_records() {
    for scheme in schemes() {
        let (da, qs, v) = system(scheme);
        // The server claims 150..200 is empty (it contains 10 records).
        // It must forge a gap proof — the only honest one available brackets
        // some other range and fails.
        let honest_gap = qs.select_range(101, 104).unwrap(); // genuinely empty
        let mut forged = honest_gap.clone();
        forged.left_key = 145;
        forged.right_key = 205;
        assert!(
            v.verify_selection(150, 200, &forged, da.now(), true)
                .is_err(),
            "{scheme:?}"
        );
    }
}
