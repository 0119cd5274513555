//! fig_checkpoint: certified checkpoints bound the two unbounded histories.
//!
//! Two verification-relevant histories would grow without bound if nothing
//! cut them: the `EpochTransition` chain from genesis (one signed link per
//! rebalance), and the per-shard `UpdateSummary` log — which the 2ρ-recency
//! gate forces into answers for old records. This bench measures what
//! DA-certified checkpoints buy at history lengths 10²–10⁵.
//!
//! Part 1 (epoch chain): a deployment rebalances N times. A client joining
//! at epoch N (`EpochView::from_bootstrap`) consumes a three-artifact
//! bundle — map, latest transition, epoch checkpoint — whose wire size is
//! asserted byte-identical at every N, and whose pinned view is asserted
//! equal to the reference view that was pushed every link
//! (`EpochView::advance`, one signature per transition). O(1) signatures
//! and O(1) bytes regardless of N; nobody holds the chain.
//!
//! Part 2 (summary log): a DA publishes H summary periods with a live
//! update stream, checkpointing every 64 periods (keep 32). Resident
//! summaries are asserted ≤ 96 (interval + keep) at every point of the
//! whole run — flat, bounded by the checkpoint interval instead of H —
//! while a never-compacted twin's answers attach Θ(H) summaries for
//! never-updated records. Verify cost per answer is reported for both;
//! the checkpointed answers are asserted to stay ≤ 96 attached summaries
//! and to keep verifying at every H.
//!
//! Part 3 (exposure opening): a summary checkpoint commits to its per-rid
//! exposure map by a hash root and an answer carries only the chunks of its
//! own rids plus their sibling digests. The same 16-record answer is taken
//! at shard sizes 2¹⁰, 2¹³ and 2¹⁶: the checkpoint bytes it carries are
//! asserted to grow by at most 64 B per doubling of the shard (two paths,
//! one 32-byte digest each) where the whole map grows by 8 B per rid, and
//! every opened answer is asserted to verify.
//!
//! Part 4 (adversary): the checkpoint tamper catalog — forged digest,
//! wrong-epoch replay, gap-straddling cut, chain-break bootstrap, bundle
//! rollback, and the opening strategies (forged entry, chunk at the wrong
//! index, omitted chunk, understated maximum, dropped and surplus sibling)
//! — under Mock and real BAS; every strategy must be rejected with its
//! pinned `VerifyError` while the honest answer or bundle is accepted.
//!
//! Acceptance bar: constant bootstrap-bundle bytes across N = 10²..10⁵,
//! pinned view == walked view, retained summaries ≤ 96 across H = 10²..10⁵,
//! every checkpoint-anchored answer verifies, per-answer checkpoint bytes
//! logarithmic in the shard, and the catalog fully rejects.

use std::time::Instant;

use authdb_bench::{
    banner, chained_cfg, csv_begin, csv_end, fmt_time, print_catalog, replica_opts,
};
use authdb_core::adversary::CheckpointTamper;
use authdb_core::da::DaConfig;
use authdb_core::shard::{EpochBootstrap, RebalancePlan, ShardedAggregator};
use authdb_core::verify::EpochView;
use authdb_crypto::signer::SchemeKind;
use authdb_wire::WireEncode;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// History lengths (epochs for part 1, summary periods for part 2).
const POINTS: [usize; 4] = [100, 1_000, 10_000, 100_000];
/// Checkpoint every this many summary periods...
const CKPT_EVERY: usize = 64;
/// ...keeping this many trailing summaries as the anchored run.
const KEEP: usize = 32;
/// Resident-summary ceiling implied by the schedule.
const FLAT_BOUND: usize = CKPT_EVERY + KEEP;
/// Timed repetitions per measurement.
const REPS: usize = 32;

fn cfg() -> DaConfig {
    DaConfig {
        // Recertification out of frame: the subject is history length.
        rho_prime: u64::MAX / 4,
        buffer_pages: 256,
        ..chained_cfg(SchemeKind::Mock)
    }
}

/// Part 1: epoch-chain bootstrap — the O(1) certified bundle at epoch N.
fn epoch_chain() {
    println!("\n== epoch chain: client bootstrap at epoch N ==");
    println!("{:>7} | {:>11} | {:>8}", "epochs", "bootstrap", "bundle");
    println!("{:->7}-+-{:->11}-+-{:->8}", "", "", "");
    csv_begin("epochs,bootstrap_us,bundle_bytes");
    let mut rng = StdRng::seed_from_u64(4242);
    let mut sa = ShardedAggregator::new(cfg(), vec![], &mut rng);
    sa.bootstrap((0..4i64).map(|i| vec![i * 10, i]).collect(), 2);
    let pp = sa.public_params();
    // The reference view is pushed every link as it is minted; only the
    // latest link is kept, as on the server.
    let mut walked = sa.epoch_view();
    let mut latest = None;
    let mut epochs = 0usize;
    let mut bundle_bytes: Option<usize> = None;
    for &n in &POINTS {
        while epochs < n {
            let plan = if epochs.is_multiple_of(2) {
                RebalancePlan::Split { shard: 0, at: 20 }
            } else {
                RebalancePlan::Merge { left: 0 }
            };
            let t = sa.rebalance(plan, 2).transition;
            walked.advance(&t, &pp).expect("chain link");
            latest = Some(t);
            epochs += 1;
        }
        // The checkpoint client: three artifacts, whatever N is.
        let boot = EpochBootstrap {
            map: sa.map().clone(),
            transition: latest.clone(),
            checkpoint: sa.epoch_checkpoint().cloned(),
        };
        let bytes = boot.encode().len();
        match bundle_bytes {
            None => bundle_bytes = Some(bytes),
            Some(b) => assert_eq!(
                b, bytes,
                "acceptance: bootstrap bundle must be constant-size, grew at N={n}"
            ),
        }
        let t = Instant::now();
        let mut pinned = EpochView::from_bootstrap(&boot, &pp).expect("O(1) pin");
        for _ in 1..REPS {
            pinned = EpochView::from_bootstrap(&boot, &pp).expect("O(1) pin");
        }
        let boot_us = t.elapsed().as_secs_f64() * 1e6 / REPS as f64;
        assert_eq!(
            pinned, walked,
            "acceptance: checkpoint-pinned view must equal the link-by-link view at N={n}"
        );
        println!("{n:>7} | {:>11} | {bytes:>7}B", fmt_time(boot_us * 1e-6));
        println!("{n},{boot_us:.3},{bytes}");
    }
    csv_end();
}

/// Part 2: summary-log compaction — resident memory and verify cost.
fn summary_log() {
    println!("\n== summary log: verify cost and resident summaries at history H ==");
    println!(
        "{:>7} | {:>9} | {:>11} | {:>9} | {:>11}",
        "periods", "retained", "ckpt-verify", "full-run", "full-verify"
    );
    println!(
        "{:->7}-+-{:->9}-+-{:->11}-+-{:->9}-+-{:->11}",
        "", "", "", "", ""
    );
    csv_begin("periods,retained,ckpt_verify_us,full_run,full_verify_us");
    let mk = || {
        let mut rng = StdRng::seed_from_u64(99);
        let mut da = ShardedAggregator::new(cfg(), vec![], &mut rng);
        let boots = da.bootstrap((0..256i64).map(|i| vec![i, i]).collect(), 2);
        let qs = da.replica(&boots, &replica_opts(&cfg()));
        (da, qs)
    };
    let (mut da, qs) = mk(); // checkpointed
    let (mut fda, fqs) = mk(); // never-compacted twin
    let (v, view) = (da.verifier(), da.epoch_view());
    let (fv, fview) = (fda.verifier(), fda.epoch_view());
    let mut rng = StdRng::seed_from_u64(100);
    let mut period = 0usize;
    let mut max_retained = 0usize;
    for &h in &POINTS {
        while period < h {
            // Rids 128.. take the update stream; rids 0..128 stay pristine
            // so their freshness run reaches all the way back to the cut.
            let rid = 128 + (period as u64 % 128);
            let key = rid as i64;
            for (da, qs) in [(&mut da, &qs), (&mut fda, &fqs)] {
                da.advance_clock(2);
                qs.apply_all(&da.update_record(0, rid, vec![key, period as i64]).1);
                da.advance_clock(8);
                qs.ingest(da.maybe_publish_summaries());
            }
            period += 1;
            if period.is_multiple_of(CKPT_EVERY) {
                if let Some(c) = da.checkpoint_shard_summaries(0, KEEP) {
                    qs.apply_checkpoint(0, c);
                }
            }
            let retained = da.shard(0).summary_log().len();
            max_retained = max_retained.max(retained);
            assert!(
                retained <= FLAT_BOUND,
                "acceptance: resident summaries must stay <= {FLAT_BOUND}, \
                 got {retained} at period {period}"
            );
        }
        let retained = da.shard(0).summary_log().len();
        // Query the pristine prefix: the oldest versions in the system,
        // exactly the records whose freshness run is longest.
        let now = da.now();
        let ans = qs.select_range(0, 31).expect("chained mode");
        let attached = ans.parts[0].answer.summaries.len();
        assert!(
            attached <= FLAT_BOUND,
            "checkpoint-anchored answer attached {attached} summaries at H={h}"
        );
        let t = Instant::now();
        for _ in 0..REPS {
            v.verify_sharded_selection(0, 31, &ans, &view, now, true, &mut rng)
                .expect("checkpoint-anchored answer verifies");
        }
        let ckpt_us = t.elapsed().as_secs_f64() * 1e6 / REPS as f64;
        let fans = fqs.select_range(0, 31).expect("chained mode");
        let full_run = fans.parts[0].answer.summaries.len();
        let t = Instant::now();
        for _ in 0..REPS.min(8) {
            fv.verify_sharded_selection(0, 31, &fans, &fview, now, true, &mut rng)
                .expect("full-history answer verifies");
        }
        let full_us = t.elapsed().as_secs_f64() * 1e6 / REPS.min(8) as f64;
        println!(
            "{h:>7} | {retained:>9} | {:>11} | {full_run:>9} | {:>11}",
            fmt_time(ckpt_us * 1e-6),
            fmt_time(full_us * 1e-6)
        );
        println!("{h},{retained},{ckpt_us:.2},{full_run},{full_us:.2}");
    }
    csv_end();
    println!(
        "\nmax resident summaries over the whole {}-period run: {max_retained} \
         (bound {FLAT_BOUND})",
        POINTS[POINTS.len() - 1]
    );
}

/// Part 3: what an answer carries of its checkpoint, against shard size.
fn opening_size() {
    println!("\n== exposure opening: checkpoint bytes on a 16-record answer at shard size S ==");
    println!(
        "{:>7} | {:>10} | {:>8} | {:>10} | {:>9}",
        "rids", "ckpt_bytes", "siblings", "whole_map", "verify"
    );
    println!(
        "{:->7}-+-{:->10}-+-{:->8}-+-{:->10}-+-{:->9}",
        "", "", "", "", ""
    );
    csv_begin("shard_rids,ckpt_bytes,siblings,whole_map_bytes,verify_us");
    let mut last: Option<(u32, usize)> = None;
    for log2 in [10u32, 13, 16] {
        let n = 1i64 << log2;
        let mut rng = StdRng::seed_from_u64(7);
        let mut da = ShardedAggregator::new(cfg(), vec![], &mut rng);
        let boots = da.bootstrap((0..n).map(|i| vec![i, i]).collect(), 2);
        let qs = da.replica(&boots, &replica_opts(&cfg()));
        for period in 0..3 {
            da.advance_clock(2);
            qs.apply_all(
                &da.update_record(0, 7 + period, vec![7 + period as i64, 1])
                    .1,
            );
            da.advance_clock(8);
            qs.ingest(da.maybe_publish_summaries());
        }
        let whole = da.checkpoint_shard_summaries(0, 1).expect("compactable");
        let whole_bytes = whole.encode().len();
        qs.apply_checkpoint(0, whole);
        // Rids 500..=515 straddle two chunks: two paths to the root.
        let (lo, hi) = (500, 515);
        let ans = qs.select_range(lo, hi).expect("chained mode");
        let ckpt = ans.parts[0].answer.checkpoint.as_ref().expect("anchored");
        let (bytes, siblings) = (ckpt.encode().len(), ckpt.exposure.siblings.len());
        let (v, view, now) = (da.verifier(), da.epoch_view(), da.now());
        let t = Instant::now();
        for _ in 0..REPS {
            let rep = v.verify_sharded_selection(lo, hi, &ans, &view, now, true, &mut rng);
            assert_eq!(rep.expect("acceptance: opened answer verifies").records, 16);
        }
        let verify_us = t.elapsed().as_secs_f64() * 1e6 / REPS as f64;
        if let Some((prev_log2, prev)) = last {
            let per_doubling = bytes.saturating_sub(prev) / (log2 - prev_log2) as usize;
            assert!(
                bytes > prev && per_doubling <= 64,
                "acceptance: checkpoint bytes per answer must grow by <= 64 B per \
                 doubling of the shard, got {prev} -> {bytes} from 2^{prev_log2} to 2^{log2}"
            );
        }
        last = Some((log2, bytes));
        println!(
            "{n:>7} | {bytes:>9}B | {siblings:>8} | {whole_bytes:>9}B | {:>9}",
            fmt_time(verify_us * 1e-6)
        );
        println!("{n},{bytes},{siblings},{whole_bytes},{verify_us:.2}");
    }
    csv_end();
}

fn main() {
    banner(
        "fig_checkpoint",
        "certified checkpoints: O(1) client bootstrap, flat summary-log memory",
    );
    println!(
        "Mock scheme. Part 1 rebalances a deployment N times and bootstraps a \
         client from the three-artifact certified bundle at each N; part 2 \
         publishes H summary periods checkpointing every {CKPT_EVERY} (keep {KEEP}); \
         part 3 sizes the checkpoint a 16-record answer carries at three shard sizes."
    );
    epoch_chain();
    summary_log();
    opening_size();
    let mock_ok = print_catalog::<CheckpointTamper>("Checkpoint", SchemeKind::Mock);
    let bas_ok = print_catalog::<CheckpointTamper>("Checkpoint", SchemeKind::Bas);
    assert!(mock_ok, "checkpoint catalog must fully reject under Mock");
    assert!(bas_ok, "checkpoint catalog must fully reject under BAS");
    println!(
        "\nAcceptance holds: constant bundle bytes and pinned==walked across \
         N=10^2..10^5; resident summaries <= {FLAT_BOUND} across H=10^2..10^5; \
         every checkpoint-anchored answer verified; checkpoint bytes per answer \
         logarithmic in the shard; every checkpoint tamper rejected."
    );
}
