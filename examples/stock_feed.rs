//! The paper's motivating scenario (Section 1): an online trading platform.
//!
//! A data aggregator disseminates live price quotes through an untrusted
//! query server. Users verify authenticity, completeness, *and freshness* —
//! a server replaying yesterday's price is caught by the certified bitmap
//! summaries, even though the stale answer carries a perfectly valid
//! signature.
//!
//! ```sh
//! cargo run --release --example stock_feed
//! ```

use authdb::core::da::DaConfig;
use authdb::core::qs::QsOptions;
use authdb::core::record::Schema;
use authdb::core::shard::ShardedAggregator;
use authdb::core::verify::VerifyError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // Records: (symbol id, price in cents, volume). One tick = one second;
    // summaries publish every rho = 2s; signatures are renewed after 60s.
    let cfg = DaConfig {
        schema: Schema::new(3, 64),
        rho: 2,
        rho_prime: 60,
        ..DaConfig::paper_defaults()
    };
    // One shard holds the whole feed; the client pins its signed map.
    let mut da = ShardedAggregator::new(cfg, vec![], &mut rng);
    println!("Exchange opens: certifying 200 symbols...");
    let rows: Vec<Vec<i64>> = (0..200)
        .map(|i| vec![i, 10_000 + rng.gen_range(0..5_000), 0])
        .collect();
    let boots = da.bootstrap(rows, 4);
    let qs = da.replica(&boots, &QsOptions::default());
    let verifier = da.verifier();
    let view = da.epoch_view();

    // A user watches symbols 40..=45.
    let watchlist = (40, 45);
    let before = qs.select_range(watchlist.0, watchlist.1).unwrap();
    println!(
        "Initial quotes: {:?}",
        before.parts[0]
            .answer
            .records
            .iter()
            .map(|r| (r.attrs[0], r.attrs[1]))
            .collect::<Vec<_>>()
    );

    // Trading: 30 seconds of live updates, summaries flowing on schedule.
    println!("\nLive feed: 30s of updates, summary every 2s...");
    let mut summaries_published = 0;
    for _second in 0..30 {
        da.advance_clock(1);
        for _ in 0..rng.gen_range(1..5) {
            let sym = rng.gen_range(0..200u64);
            let new_price = 10_000 + rng.gen_range(0..5_000);
            let volume = rng.gen_range(0..1_000);
            qs.apply_all(
                &da.update_record(0, sym, vec![sym as i64, new_price, volume])
                    .1,
            );
        }
        let periods = da.maybe_publish_summaries();
        summaries_published += periods.len();
        qs.ingest(periods);
    }
    println!("Published {summaries_published} certified update summaries.");

    // The honest fresh answer verifies with a tight staleness bound.
    let fresh = qs.select_range(watchlist.0, watchlist.1).unwrap();
    let (lo, hi) = watchlist;
    let mut verify =
        |ans: &_| verifier.verify_sharded_selection(lo, hi, ans, &view, da.now(), true, &mut rng);
    let report = verify(&fresh).expect("fresh quotes verify");
    println!(
        "\nFresh watchlist verified: {} quotes, staleness bound {} s (rho = 2 s)",
        report.records, report.max_staleness
    );

    // A compromised server replays the pre-open answer. The signature is
    // genuine — but the bitmap summaries expose the withheld updates.
    let mut replay = before.clone();
    // The client fetched the summaries itself.
    replay.parts[0].answer.summaries = fresh.parts[0].answer.summaries.clone();
    match verify(&replay) {
        Err(VerifyError::Stale { rid, exposed_by }) => println!(
            "Replay attack caught: symbol {rid} is stale (exposed by summary #{exposed_by})"
        ),
        Ok(_) => {
            // Possible only if no watched symbol was updated in 30 s.
            println!("(no watched symbol changed during the session — rerun with another seed)")
        }
        Err(e) => println!("Replay rejected: {e:?}"),
    }

    // Old quiet symbols still verify cheaply thanks to active renewal: their
    // signatures were refreshed, so few summaries are needed.
    let (avg_age, max_age) = da.shard(0).signature_age_stats();
    println!("\nSignature ages after renewal: avg {avg_age:.1} s, max {max_age} s (rho' = 60 s)");
}
