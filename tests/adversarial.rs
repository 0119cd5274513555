//! Adversarial integration tests: a compromised query server tries every
//! class of forgery the paper's correctness properties rule out, across
//! all three signature schemes.

mod common;

use authdb::core::da::DaConfig;
use authdb::core::verify::VerifyError;
use authdb::crypto::signer::SchemeKind;
use common::{part, OneShard};

fn system(scheme: SchemeKind) -> OneShard {
    let cfg = DaConfig {
        scheme,
        rho: 5,
        rho_prime: 1000,
        buffer_pages: 1024,
        ..DaConfig::small()
    };
    OneShard::new(cfg, (0..100).map(|i| vec![i * 5, i]).collect(), 99)
}

fn schemes() -> Vec<SchemeKind> {
    vec![SchemeKind::Bas, SchemeKind::Mock]
}

#[test]
fn authenticity_value_forgery_rejected() {
    for scheme in schemes() {
        let s = system(scheme);
        let mut ans = s.select(100, 300);
        part(&mut ans).records[7].attrs[1] = 12345;
        assert_eq!(
            s.verify(100, 300, &ans),
            Err(VerifyError::BadAggregate),
            "{scheme:?}"
        );
    }
}

#[test]
fn completeness_omission_rejected() {
    for scheme in schemes() {
        let s = system(scheme);
        for victim in [0usize, 5, 40] {
            let mut ans = s.select(100, 300);
            part(&mut ans).records.remove(victim);
            assert!(
                s.verify(100, 300, &ans).is_err(),
                "{scheme:?} omission at {victim}"
            );
        }
    }
}

#[test]
fn completeness_boundary_shrink_rejected() {
    for scheme in schemes() {
        let s = system(scheme);
        // Drop the first two records and pretend the range started later.
        let mut ans = s.select(100, 300);
        part(&mut ans).records.drain(0..2);
        part(&mut ans).left_key = 105;
        assert!(s.verify(100, 300, &ans).is_err(), "{scheme:?}");
    }
}

#[test]
fn record_injection_rejected() {
    for scheme in schemes() {
        let s = system(scheme);
        // Duplicate a legitimate record inside the answer.
        let mut ans = s.select(100, 300);
        let dup = part(&mut ans).records[3].clone();
        part(&mut ans).records.insert(4, dup);
        assert!(s.verify(100, 300, &ans).is_err(), "{scheme:?}");
    }
}

#[test]
fn cross_query_signature_reuse_rejected() {
    for scheme in schemes() {
        let s = system(scheme);
        // Take the aggregate from one range and attach it to another.
        let mut other = s.select(300, 400);
        let mut ans = s.select(100, 200);
        part(&mut ans).agg = part(&mut other).agg.clone();
        assert_eq!(
            s.verify(100, 200, &ans),
            Err(VerifyError::BadAggregate),
            "{scheme:?}"
        );
    }
}

#[test]
fn reordered_records_rejected() {
    for scheme in schemes() {
        let s = system(scheme);
        let mut ans = s.select(100, 300);
        part(&mut ans).records.swap(2, 9);
        assert!(s.verify(100, 300, &ans).is_err(), "{scheme:?}");
    }
}

#[test]
fn stale_version_with_valid_signature_rejected() {
    for scheme in schemes() {
        let mut s = system(scheme);
        let stale = s.select(100, 200);
        s.sa.advance_clock(3);
        s.update(25, vec![125, 4242]);
        s.sa.advance_clock(10);
        s.sqs.ingest(s.sa.force_publish_summaries());
        // The replayed answer is cryptographically intact but stale; the
        // client cross-checks against the summaries it fetched itself.
        let mut replay = stale.clone();
        part(&mut replay).summaries = s.sqs.with_shard(0, |qs| qs.summaries().to_vec());
        assert!(
            matches!(
                s.verify(100, 200, &replay),
                Err(VerifyError::Stale { rid: 25, .. })
            ),
            "{scheme:?}"
        );
    }
}

#[test]
fn withheld_summary_detected_as_gap() {
    let mut s = system(SchemeKind::Mock);
    // Publish three summaries; the server withholds the middle one.
    for _ in 0..3 {
        s.sa.advance_clock(6);
        s.publish();
    }
    s.sa.advance_clock(1);
    s.update(10, vec![50, 1]);
    let mut ans = s.select(0, 495);
    assert_eq!(part(&mut ans).summaries.len(), 3);
    part(&mut ans).summaries.remove(1); // gap at seq 1
    assert!(matches!(
        s.verify(0, 495, &ans),
        Err(VerifyError::FreshnessIndeterminate { .. })
    ));
}

#[test]
fn empty_range_cannot_hide_records() {
    for scheme in schemes() {
        let s = system(scheme);
        // The server claims 150..200 is empty (it contains 10 records).
        // It must forge a gap proof — the only honest one available brackets
        // some other range and fails.
        let mut forged = s.select(101, 104); // genuinely empty
        part(&mut forged).left_key = 145;
        part(&mut forged).right_key = 205;
        assert!(s.verify(150, 200, &forged).is_err(), "{scheme:?}");
    }
}
