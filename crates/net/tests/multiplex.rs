//! Connection multiplexing and write backpressure, pinned at the wire:
//! a pipelined `Request::Tagged` batch is answer-for-answer identical to
//! classic sequential exchanges, per-shard telemetry crosses the wire
//! unchanged, and a server out of queue budget sheds with a typed `Busy`
//! (→ [`NetError::Overloaded`]) instead of dropping or blocking.

use rand::rngs::StdRng;
use rand::SeedableRng;

use authdb_core::da::DaConfig;
use authdb_net::{NetError, QsClient, QsServerOptions};
use authdb_testkit::deploy::{serve, Deployment};

/// Two shards over keys 0..=990 (seam at 500). The clock never advances, so
/// no update summaries exist: the subject here is the transport.
fn two_shards() -> Deployment {
    Deployment::catalog(DaConfig::small(), 2, 100)
}

#[test]
fn pipelined_batch_matches_sequential_answers_and_verifies() {
    let mut rng = StdRng::seed_from_u64(1);
    let (sa, server, verifier, view) = serve(two_shards(), QsServerOptions::default());
    let now = sa.now();
    // Seam-straddling, in-shard, beyond-the-data, and inverted ranges: the
    // whole answer taxonomy rides one multiplexed batch.
    let ranges = [(0, 990), (120, 480), (450, 700), (2000, 3000), (300, 200)];

    let mut client = QsClient::connect(server.addr()).expect("connect");
    let batch = client.pipeline_select(&ranges).expect("pipelined batch");
    assert_eq!(batch.len(), ranges.len());

    let mut seq = QsClient::connect(server.addr()).expect("connect");
    for (&(lo, hi), slot) in ranges.iter().zip(&batch) {
        let ans = slot.as_ref().expect("uncontended batch fully answered");
        // Multiplexing is transparent: each tagged answer is byte-for-byte
        // the answer a classic exchange gets...
        assert_eq!(
            *ans,
            seq.select_range(lo, hi).expect("sequential answer"),
            "[{lo}, {hi}] pipelined vs sequential"
        );
        // ...and the unmodified verifier accepts it.
        verifier
            .verify_sharded_selection(lo, hi, ans, &view, now, true, &mut rng)
            .unwrap_or_else(|e| panic!("[{lo}, {hi}] rejected: {e:?}"));
    }

    // The connection stays usable for classic exchanges afterwards.
    client.stats().expect("plain call after a pipelined batch");
}

#[test]
fn shard_stats_over_the_wire_match_the_handle_and_attribute_load() {
    let (_sa, server, _verifier, _view) = serve(two_shards(), QsServerOptions::default());
    let mut client = QsClient::connect(server.addr()).expect("connect");

    // Skewed traffic: every query lands strictly in the high-key shard.
    for _ in 0..5 {
        client.select_range(600, 900).expect("hot-shard query");
    }

    let wire = client.shard_stats().expect("shard stats over the wire");
    let direct = server.with_server(|sqs| sqs.shard_stats());
    assert_eq!(wire, direct, "telemetry crosses the wire unchanged");
    assert_eq!(wire.len(), 2);
    // Per-shard attribution is what an operator reads a hotspot from: the
    // cold shard must not inherit the hot shard's counters.
    assert!(wire[1].queries >= 5, "hot shard counted: {wire:?}");
    assert_eq!(wire[0].queries, 0, "cold shard untouched: {wire:?}");

    // The aggregate view stays the sum of the parts.
    let total = client.stats().expect("aggregate stats");
    assert_eq!(total.queries, wire[0].queries + wire[1].queries);
}

#[test]
fn overload_sheds_with_typed_busy_and_retry_succeeds() {
    // A zero queue budget makes the shed deterministic: the batch arrives
    // in one read, the first request's queued answer exhausts the budget,
    // and every follower in the same pass sheds as Busy.
    let opts = QsServerOptions {
        max_conn_queue: 0,
        ..QsServerOptions::default()
    };
    let (_sa, server, _verifier, _view) = serve(two_shards(), opts);
    let mut client = QsClient::connect(server.addr()).expect("connect");

    let ranges = [(0, 990); 8];
    let batch = client.pipeline_select(&ranges).expect("pipelined batch");
    let ok = batch.iter().filter(|s| s.is_ok()).count();
    let shed = batch
        .iter()
        .filter(|s| matches!(s, Err(NetError::Overloaded)))
        .count();
    assert!(ok >= 1, "the first request is served, not shed");
    assert!(shed >= 1, "a zero-budget queue sheds pipelined followers");
    // Every slot is answered — served or shed, never silently dropped —
    // and a shed is retryable by taxonomy.
    assert_eq!(ok + shed, ranges.len(), "no third outcome: {batch:?}");
    for slot in &batch {
        if let Err(e) = slot {
            assert!(e.is_retryable(), "{e}: sheds invite a retry");
        }
    }

    // The shed was about the queue, not the request: once the queue has
    // drained, the same connection re-asks and gets the real answer.
    let again = client.select_range(0, 990).expect("retry after shed");
    let direct = server.with_server(|sqs| sqs.select_range(0, 990).unwrap());
    assert_eq!(again, direct);
}
