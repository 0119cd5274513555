//! Real-thread concurrency tests: verified reads beside a live update
//! stream, and the end-to-end stress tests for the snapshot-concurrent
//! sharded server: multiplexed TCP query streams racing live certified
//! rebalances, and the load-driven auto-rebalancer splitting a hot shard
//! under skew, with zero rejected honest answers.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use authdb::core::da::DaConfig;
use authdb::core::policy::LoadPolicy;
use authdb::core::qs::QsOptions;
use authdb::core::shard::{RebalancePlan, ShardedAggregator};
use authdb::core::verify::{EpochView, Verifier, VerifyError};
use authdb_net::{AutoRebalanceDriver, NetError, QsClient, QsServer, QsServerOptions};
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
    let mut rng = StdRng::seed_from_u64(7);
    let mut sa = ShardedAggregator::new(cfg, vec![], &mut rng);
    let boots = sa.bootstrap((0..400).map(|i| vec![i, 0]).collect(), 2);
    let sqs = &sa.replica(&boots, &QsOptions::default());
    let (verifier, view) = (sa.verifier(), sa.epoch_view());

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
            let (_, msgs) = sa.update_record(0, rid as u64, vec![rid, step]);
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

/// Two shards over keys 0..=3990 (seam at 2000), served over loopback TCP.
/// Huge ρ keeps update summaries out of these tests: freshness machinery is
/// covered elsewhere, here the subject is epoch concurrency.
fn spawn_two_shard_server() -> (ShardedAggregator, QsServer, Verifier, EpochView) {
    let cfg = DaConfig {
        rho: 1_000_000,
        rho_prime: 1_000_000,
        ..DaConfig::small()
    };
    let mut rng = StdRng::seed_from_u64(4040);
    let mut sa = ShardedAggregator::new(cfg, vec![2000], &mut rng);
    let boots = sa.bootstrap((0..400).map(|i| vec![i * 10, i]).collect(), 2);
    let sqs = sa.replica(&boots, &QsOptions::default());
    let verifier = sa.verifier();
    let server = QsServer::spawn(sqs, QsServerOptions::default()).expect("bind loopback");
    let view = sa.epoch_view();
    (sa, server, verifier, view)
}

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
    let (mut sa, server, verifier, view) = spawn_two_shard_server();
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
}

#[test]
fn auto_rebalance_splits_hot_shard_under_skewed_load_over_tcp() {
    // Readers hammer ranges that all land in the high-key shard. The
    // auto-rebalance driver — polling per-shard counters over the same TCP
    // protocol — must notice the skew, certify a split of that shard at
    // its median key, and push it mid-stream without a single rejected
    // honest answer.
    let (mut sa, server, verifier, view) = spawn_two_shard_server();
    let board = ReaderBoard::new(sa.now());
    let addr = server.addr();
    let hot_ranges = [(2100, 2400), (2500, 2900), (3000, 3500), (2050, 3950)];

    let planned = std::thread::scope(|s| {
        for seed in 0..2u64 {
            let view = view.clone();
            let (verifier, board) = (&verifier, &board);
            s.spawn(move || run_reader(addr, &hot_ranges, view, verifier, board, 100 + seed));
        }

        let mut driver_client = QsClient::connect(addr).expect("driver connect");
        let mut driver = AutoRebalanceDriver::new(
            LoadPolicy {
                // Low bar: all reader traffic lands in shard 1 and shard 0
                // sits at zero, so even a starved 1-CPU box trips it while
                // a false positive would need traffic that cannot exist.
                split_threshold: 8,
                merge_threshold: 0, // merging is not under test
                cooldown_rounds: 1,
                min_split_records: 8,
                max_shards: 8,
            },
            2,
        );
        let mut planned = None;
        for _ in 0..200 {
            std::thread::sleep(Duration::from_millis(20));
            match driver.step(&mut sa, &mut driver_client) {
                Ok(Some(plan)) => {
                    board.clock.store(sa.now(), Ordering::Release);
                    planned = Some(plan);
                    break;
                }
                Ok(None) => {}
                Err(e) => {
                    board.fail(format!("driver: {e}"));
                    break;
                }
            }
        }

        // Keep the readers going past the split so post-split answers are
        // demonstrably verified too.
        let mark = board.verified.load(Ordering::Relaxed);
        let deadline = Instant::now() + Duration::from_secs(10);
        while board.verified.load(Ordering::Relaxed) < mark + 20
            && board.failures.lock().is_empty()
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        board.stop.store(1, Ordering::Relaxed);
        planned
    });

    {
        let failures = board.failures.lock();
        assert!(failures.is_empty(), "unsound observations: {:?}", *failures);
    }
    let plan = planned.expect("the policy split the hot shard within the round budget");
    match plan {
        RebalancePlan::Split { shard, at } => {
            assert_eq!(shard, 1, "the hot shard is the high-key shard");
            assert!(
                2000 < at && at < 3990,
                "split key {at} lies inside the hot shard"
            );
        }
        other => panic!("expected a split of the hot shard, got {other:?}"),
    }
    assert_eq!(
        sa.map().shard_count(),
        3,
        "the deployment followed its hotspot"
    );
    assert!(
        board.resynced.load(Ordering::Relaxed) > 0,
        "readers crossed the auto-split mid-stream"
    );

    // End to end: a client still pinned at genesis catches up with the
    // server's bundle and verifies a full-range answer from the post-split
    // deployment.
    let mut rng = StdRng::seed_from_u64(99);
    let mut client = QsClient::connect(addr).expect("connect");
    let mut main_view = view;
    main_view
        .observe(
            &client.checkpoint().expect("epoch bundle"),
            verifier.public_params(),
        )
        .expect("observe the auto-split");
    let ans = client.select_range(0, 3990).expect("post-split answer");
    verifier
        .verify_sharded_selection(0, 3990, &ans, &main_view, sa.now(), true, &mut rng)
        .expect("post-split full-range answer verifies");
}
