//! Real-thread concurrency tests: verified reads beside a live update
//! stream, and the end-to-end stress test for the snapshot-concurrent
//! sharded server: multiplexed TCP query streams racing live certified
//! rebalances with zero rejected honest answers, after which a client
//! pinned at genesis catches up over TCP.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use authdb::core::da::DaConfig;
use authdb::core::shard::RebalancePlan;
use authdb::core::verify::{EpochView, Verifier, VerifyError};
use authdb_net::{NetError, QsClient, QsServerOptions};
use authdb_testkit::deploy::{serve, Deployment};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn concurrent_queries_verify_during_update_stream() {
    // A shared server: one writer applies DA updates while reader threads
    // continuously verify answers. Every answer observed by any reader must
    // verify — the replica is never in a bad intermediate state.
    let cfg = DaConfig {
        rho: 1_000_000, // keep summaries out of this test
        rho_prime: 1_000_000,
        buffer_pages: 2048,
        ..DaConfig::small()
    };
    let rows: Vec<Vec<i64>> = (0..400).map(|i| vec![i, 0]).collect();
    let mut d = Deployment::new(cfg, &rows, vec![], 7);
    let (sqs, verifier, view) = (&d.sqs, &d.v, &d.view);

    let stop = Arc::new(AtomicU64::new(0));
    let verified = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        // Readers.
        for seed in 0..3u64 {
            let (verifier, view) = (verifier.clone(), view.clone());
            let stop = stop.clone();
            let verified = verified.clone();
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                while stop.load(Ordering::Relaxed) == 0 {
                    let lo = rng.gen_range(0..300i64);
                    let hi = lo + rng.gen_range(0..60);
                    let ans = sqs.select_range(lo, hi).expect("chained mode");
                    verifier
                        .verify_sharded_selection(lo, hi, &ans, &view, 0, true, &mut rng)
                        .expect("every observed answer verifies");
                    verified.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Writer: 200 updates through the DA, applied atomically.
        for step in 0..200 {
            let rid = (step * 7) % 400;
            let (_, msgs) = d.sa.update_record(0, rid as u64, vec![rid, step]);
            sqs.apply_all(&msgs);
            std::thread::yield_now();
        }
        // Keep the system live until the readers have demonstrably verified
        // answers concurrently with (and after) the update stream.
        let deadline = Instant::now() + Duration::from_secs(10);
        while verified.load(Ordering::Relaxed) < 10 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        stop.store(1, Ordering::Relaxed);
    });
    assert!(
        verified.load(Ordering::Relaxed) >= 10,
        "readers must have made progress"
    );
}

// ---------------------------------------------------------------------------
// Networked stress: snapshot-concurrent shards under live rebalancing.
// ---------------------------------------------------------------------------

/// Shared state between the reader threads and the orchestrating test.
struct ReaderBoard {
    /// DA clock as published by the writer; readers use it as `now`.
    clock: AtomicU64,
    stop: AtomicU64,
    /// Answers that fully verified.
    verified: AtomicU64,
    /// Times a reader crossed an epoch bump mid-stream (StaleEpoch →
    /// fetched the transition chain → advanced its pinned view).
    resynced: AtomicU64,
    /// Soundness violations: any honest answer rejected, any unexpected
    /// transport or verification failure. Must stay empty.
    failures: Mutex<Vec<String>>,
}

impl ReaderBoard {
    fn new(now: u64) -> Self {
        ReaderBoard {
            clock: AtomicU64::new(now),
            stop: AtomicU64::new(0),
            verified: AtomicU64::new(0),
            resynced: AtomicU64::new(0),
            failures: Mutex::new(Vec::new()),
        }
    }

    fn fail(&self, msg: String) {
        self.failures.lock().push(msg);
    }
}

/// A verifying client: pipelines `ranges` over one connection in a loop and
/// holds every answer to the full protocol. On `StaleEpoch` it fetches the
/// server's certified epoch bundle and re-judges; an answer superseded by yet
/// another epoch while in flight is dropped and re-asked — the one outcome
/// that must never happen is an honest answer rejected as forged.
fn run_reader(
    addr: SocketAddr,
    ranges: &[(i64, i64)],
    mut view: EpochView,
    verifier: &Verifier,
    board: &ReaderBoard,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut client = match QsClient::connect(addr) {
        Ok(c) => c,
        Err(e) => return board.fail(format!("reader {seed} connect: {e}")),
    };
    while board.stop.load(Ordering::Relaxed) == 0 {
        let batch = match client.pipeline_select(ranges) {
            Ok(b) => b,
            Err(e) => return board.fail(format!("reader {seed} pipeline: {e}")),
        };
        for (&(lo, hi), slot) in ranges.iter().zip(batch) {
            let ans = match slot {
                Ok(a) => a,
                // A typed load shed is an invitation to re-ask, not a fault.
                Err(NetError::Overloaded) => continue,
                Err(e) => return board.fail(format!("[{lo},{hi}] transport: {e}")),
            };
            let now = board.clock.load(Ordering::Acquire);
            match verifier.verify_sharded_selection(lo, hi, &ans, &view, now, true, &mut rng) {
                Ok(_) => {
                    board.verified.fetch_add(1, Ordering::Relaxed);
                }
                Err(VerifyError::StaleEpoch { .. }) => {
                    let bundle = match client.checkpoint() {
                        Ok(b) => b,
                        Err(e) => return board.fail(format!("epoch fetch: {e}")),
                    };
                    if let Err(e) = view.observe(&bundle, verifier.public_params()) {
                        return board.fail(format!("observe: {e:?}"));
                    }
                    board.resynced.fetch_add(1, Ordering::Relaxed);
                    match verifier
                        .verify_sharded_selection(lo, hi, &ans, &view, now, true, &mut rng)
                    {
                        Ok(_) => {
                            board.verified.fetch_add(1, Ordering::Relaxed);
                        }
                        // Still stale: superseded by a second bump while in
                        // flight. Drop and re-query — not a rejection.
                        Err(VerifyError::StaleEpoch { .. }) => {}
                        Err(e) => return board.fail(format!("[{lo},{hi}] post-resync: {e:?}")),
                    }
                }
                Err(e) => return board.fail(format!("[{lo},{hi}] rejected: {e:?}")),
            }
        }
    }
}

#[test]
fn multiplexed_queries_race_live_certified_rebalances_over_tcp() {
    // Readers pipeline multiplexed selections over TCP without pause while
    // the DA pushes four certified rebalances (split, merge, split, merge)
    // and keeps inserting records. Every answer either verifies under the
    // epoch the reader has observed or is a StaleEpoch the protocol
    // resolves — zero honest answers rejected, every proof single-epoch.
    //
    // Two shards over keys 0..=3990 (seam at 2000), served over loopback
    // TCP. Huge ρ keeps update summaries out: freshness machinery is
    // covered elsewhere, here the subject is epoch concurrency.
    let cfg = DaConfig {
        rho: 1_000_000,
        rho_prime: 1_000_000,
        ..DaConfig::small()
    };
    let rows: Vec<Vec<i64>> = (0..400).map(|i| vec![i * 10, i]).collect();
    let deployment = Deployment::new(cfg, &rows, vec![2000], 4040);
    let (mut sa, server, verifier, view) = serve(deployment, QsServerOptions::default());
    let board = ReaderBoard::new(sa.now());
    let addr = server.addr();
    let ranges = [(0, 3990), (500, 2500), (1900, 2100), (3000, 3500)];

    std::thread::scope(|s| {
        for seed in 0..2u64 {
            let view = view.clone();
            let (verifier, board) = (&verifier, &board);
            s.spawn(move || run_reader(addr, &ranges, view, verifier, board, seed));
        }

        let mut da_client = QsClient::connect(addr).expect("DA connect");
        for round in 0..4i64 {
            std::thread::sleep(Duration::from_millis(40));
            let plan = if sa.map().shard_count() == 2 {
                RebalancePlan::Split {
                    shard: 0,
                    at: 1000 - round * 10,
                }
            } else {
                RebalancePlan::Merge { left: 0 }
            };
            let rb = sa.rebalance(plan, 2);
            // Publish the DA clock before the package: a reader that sees
            // the new epoch then already holds a `now` at or past its
            // certification timestamps.
            board.clock.store(sa.now(), Ordering::Release);
            da_client.rebalance(&rb).expect("server applies epoch bump");
            // The ordinary update stream never pauses for a rebalance.
            let (shard, msgs) = sa.insert(vec![round * 7 + 3, 999]);
            server.with_server(|sqs| {
                for m in &msgs {
                    sqs.apply(shard, m);
                }
            });
        }

        // Run until the readers demonstrably verified plenty AND crossed an
        // epoch mid-stream (or a failure ends the test early).
        let deadline = Instant::now() + Duration::from_secs(20);
        while (board.verified.load(Ordering::Relaxed) < 50
            || board.resynced.load(Ordering::Relaxed) == 0)
            && board.failures.lock().is_empty()
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        board.stop.store(1, Ordering::Relaxed);
    });

    let failures = board.failures.lock();
    assert!(failures.is_empty(), "unsound observations: {:?}", *failures);
    assert_eq!(sa.map().epoch(), 5, "four certified epoch bumps");
    assert!(
        board.verified.load(Ordering::Relaxed) >= 50,
        "readers verified {} answers",
        board.verified.load(Ordering::Relaxed)
    );
    assert!(
        board.resynced.load(Ordering::Relaxed) > 0,
        "readers never crossed an epoch mid-stream"
    );

    // End to end: a client still pinned at genesis catches up across all
    // four bumps with one server bundle and verifies a full-range answer
    // from the final epoch.
    let mut rng = StdRng::seed_from_u64(99);
    let mut client = QsClient::connect(addr).expect("connect");
    let mut main_view = view;
    main_view
        .observe(
            &client.checkpoint().expect("epoch bundle"),
            verifier.public_params(),
        )
        .expect("observe every bump");
    let ans = client.select_range(0, 3990).expect("final-epoch answer");
    verifier
        .verify_sharded_selection(0, 3990, &ans, &main_view, sa.now(), true, &mut rng)
        .expect("final-epoch full-range answer verifies");
}
