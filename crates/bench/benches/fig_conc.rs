//! fig_conc: aggregate throughput of the thread-per-connection server
//! under concurrent, multiplexed connections.
//!
//! The tentpole claim of the concurrency refactor is that tearing out the
//! server-wide lock — per-shard snapshots on the answer path, one blocking
//! thread per connection on the transport, pipelined `Request::Tagged`
//! batches on the wire — turns the networked QS from "one outstanding
//! request at a time" into a service whose aggregate throughput scales
//! with offered concurrency. This bench measures aggregate queries/sec and p99 window
//! round-trip as concurrent connections grow 1 → 64, each connection
//! keeping a pipelined window in flight, on two transports:
//!
//! * **loopback** — zero RTT, so the measurement isolates the per-exchange
//!   overhead (syscalls, scheduler ping-pong, thread wake-ups) that
//!   pipelining amortizes; the win is bounded by proof-construction CPU
//!   and the runner's cores;
//! * **a simulated client link** (1 ms one-way delay injected by a
//!   full-duplex byte relay) — the paper's Section 5 deployment shape,
//!   where clients reach the publisher over real links. Here multiplexing
//!   pays twice: a pipelined window crosses the link once per *batch*
//!   instead of once per query, and the connections' threads serve
//!   many RTT-bound peers while their bytes are in flight.
//!
//! Both sweeps run with and without a live DA update stream applying
//! certified inserts through the server handle mid-measurement —
//! concurrency must not depend on the replica being read-only.
//!
//! The serialized baseline (one connection, one outstanding request,
//! classic request/response — the pre-refactor service discipline) is
//! measured per transport. Acceptance bar: on the client link, 16
//! connections must deliver at least 4× the serialized aggregate qps.
//! (Companion numbers: the ledger's `point_bas` / `range_live_bas`
//! workloads measure the same stack serialized with BAS crypto
//! (`net.roundtrip_us`); this bench uses Mock point lookups so the
//! transport, not the signature scheme, is the subject.)

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use authdb_bench::{banner, csv_begin, csv_end, env_jobs, fmt_time};
use authdb_core::da::DaConfig;
use authdb_core::qs::QsOptions;
use authdb_core::shard::ShardedAggregator;
use authdb_core::verify::{EpochView, Verifier};
use authdb_net::{QsClient, QsServer, QsServerOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: i64 = 2_048;
const KEY_STRIDE: i64 = 10;
const SHARDS: i64 = 4;
/// Pipelined requests in flight per connection.
const DEPTH: usize = 16;
/// Batches per connection per scenario.
const BATCHES: usize = 16;
/// Query width in keys (~1–2 records per answer): point-lookup-sized
/// answers keep proof construction small so the measurement exposes the
/// per-exchange transport overhead that pipelining amortizes.
const WIDTH: i64 = KEY_STRIDE;
/// One-way delay of the simulated client link.
const LINK_DELAY: Duration = Duration::from_millis(1);
const CONNS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

fn mock_cfg() -> DaConfig {
    DaConfig {
        // Summaries out of frame: the subject is transport concurrency.
        rho: 1_000_000,
        rho_prime: 1_000_000,
        buffer_pages: 4096,
        ..DaConfig::small()
    }
}

fn system() -> (ShardedAggregator, QsServer, Verifier, EpochView) {
    let span = N * KEY_STRIDE;
    let splits: Vec<i64> = (1..SHARDS).map(|i| i * span / SHARDS).collect();
    let mut rng = StdRng::seed_from_u64(42);
    let mut sa = ShardedAggregator::new(mock_cfg(), splits, &mut rng);
    let boots = sa.bootstrap(
        (0..N).map(|i| vec![i * KEY_STRIDE, i]).collect(),
        env_jobs(),
    );
    let sqs = sa.replica(&boots, &QsOptions::default());
    let verifier = sa.verifier();
    let server = QsServer::spawn(sqs, QsServerOptions::default()).expect("bind loopback");
    let view = sa.epoch_view();
    (sa, server, verifier, view)
}

/// A full-duplex byte relay that delivers every read chunk after a fixed
/// one-way delay — the bench's stand-in for a client access link. Unlike
/// the lock-step `ChaosProxy` (built to attack one frame at a time), this
/// relay never re-frames: a pipelined batch written in one burst crosses
/// the link as one delayed chunk, exactly like bytes on a wire.
struct LinkSim {
    addr: SocketAddr,
}

impl LinkSim {
    fn spawn(upstream: SocketAddr, delay: Duration) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        std::thread::spawn(move || {
            for client in listener.incoming().flatten() {
                let Ok(server) = TcpStream::connect(upstream) else {
                    continue;
                };
                let _ = client.set_nodelay(true);
                let _ = server.set_nodelay(true);
                let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) else {
                    continue;
                };
                std::thread::spawn(move || pump(client, server, delay));
                std::thread::spawn(move || pump(s2, c2, delay));
            }
        });
        Ok(LinkSim { addr })
    }
}

/// Relay one direction, sleeping the link delay before delivering each
/// chunk. Exits (propagating the close) when either side goes away.
fn pump(mut from: TcpStream, mut to: TcpStream, delay: Duration) {
    let mut buf = [0u8; 64 << 10];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => {
                let _ = to.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => {
                std::thread::sleep(delay);
                if to.write_all(&buf[..n]).is_err() {
                    let _ = from.shutdown(Shutdown::Read);
                    return;
                }
            }
        }
    }
}

fn random_ranges(rng: &mut StdRng, k: usize) -> Vec<(i64, i64)> {
    let span = N * KEY_STRIDE;
    (0..k)
        .map(|_| {
            let lo = rng.gen_range(0..span - WIDTH);
            (lo, lo + WIDTH - 1)
        })
        .collect()
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * p) as usize]
}

struct Measure {
    qps: f64,
    /// p99 round-trip of one in-flight window (the sojourn bound every
    /// query in the window experiences).
    p99: f64,
}

/// `conns` connections, each keeping a DEPTH-deep pipelined window in
/// flight for BATCHES rounds. Returns aggregate qps and p99 window RTT.
fn pipelined(addr: SocketAddr, conns: usize) -> Measure {
    let lats: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let t = Instant::now();
    std::thread::scope(|s| {
        for c in 0..conns {
            let lats = &lats;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(1000 + c as u64);
                let mut client = QsClient::connect(addr).expect("connect");
                let mut local = Vec::with_capacity(BATCHES);
                for _ in 0..BATCHES {
                    let ranges = random_ranges(&mut rng, DEPTH);
                    let t = Instant::now();
                    let batch = client.pipeline_select(&ranges).expect("pipelined batch");
                    local.push(t.elapsed().as_secs_f64());
                    for slot in &batch {
                        slot.as_ref().expect("within queue budget: no sheds");
                    }
                }
                lats.lock().unwrap().extend(local);
            });
        }
    });
    let wall = t.elapsed().as_secs_f64();
    let mut lats = lats.into_inner().unwrap();
    lats.sort_by(f64::total_cmp);
    Measure {
        qps: (conns * BATCHES * DEPTH) as f64 / wall,
        p99: percentile(&lats, 0.99),
    }
}

/// The pre-refactor discipline: one connection, one outstanding request.
fn serialized(addr: SocketAddr) -> Measure {
    let mut rng = StdRng::seed_from_u64(7);
    let mut client = QsClient::connect(addr).expect("connect");
    let queries = BATCHES * DEPTH;
    let mut lats = Vec::with_capacity(queries);
    let t = Instant::now();
    for &(lo, hi) in &random_ranges(&mut rng, queries) {
        let q = Instant::now();
        client.select_range(lo, hi).expect("answer");
        lats.push(q.elapsed().as_secs_f64());
    }
    let wall = t.elapsed().as_secs_f64();
    lats.sort_by(f64::total_cmp);
    Measure {
        qps: queries as f64 / wall,
        p99: percentile(&lats, 0.99),
    }
}

/// Run `pipelined` while a certified insert stream flows through the
/// server handle.
fn pipelined_with_updates(
    addr: SocketAddr,
    conns: usize,
    sa: &mut ShardedAggregator,
    server: &QsServer,
) -> Measure {
    let stop = AtomicBool::new(false);
    let stop_ref = &stop;
    std::thread::scope(|s| {
        let updater = s.spawn(move || {
            let mut rng = StdRng::seed_from_u64(9);
            let mut applied = 0u64;
            while !stop_ref.load(Ordering::Relaxed) {
                let key = rng.gen_range(0..N * KEY_STRIDE);
                let (shard, msgs) = sa.insert(vec![key, -1]);
                server.with_server(|sqs| {
                    for m in &msgs {
                        sqs.apply(shard, m);
                    }
                });
                applied += 1;
                std::thread::sleep(Duration::from_micros(500));
            }
            applied
        });
        let m = pipelined(addr, conns);
        stop.store(true, Ordering::Relaxed);
        let applied = updater.join().expect("updater");
        assert!(applied > 0, "the update stream must actually run");
        m
    })
}

fn main() {
    banner(
        "fig_conc",
        "Thread-per-connection QS: aggregate qps & p99 vs concurrent pipelined connections",
    );
    println!(
        "N = {N} Mock records, {SHARDS} shards, window depth {DEPTH}, \
         {BATCHES} windows/connection, ~1 record/answer, link delay {:?} one-way",
        LINK_DELAY
    );

    let (mut sa, server, verifier, view) = system();
    let direct = server.addr();
    let link = LinkSim::spawn(direct, LINK_DELAY).expect("bind link relay");

    // Sanity: a pipelined answer over the simulated link is a real,
    // verifying answer.
    {
        let mut rng = StdRng::seed_from_u64(3);
        let mut client = QsClient::connect(link.addr).expect("connect via link");
        let batch = client.pipeline_select(&[(0, 990)]).expect("batch");
        let ans = batch[0].as_ref().expect("answer");
        verifier
            .verify_sharded_selection(0, 990, ans, &view, sa.now(), true, &mut rng)
            .expect("pipelined answer verifies");
    }

    println!(
        "\n{:>8} | {:>8} | {:>8} | {:>10} | {:>12} | {:>8}",
        "link", "updates", "conns", "qps", "p99 window", "vs base"
    );
    println!(
        "{:->8}-+-{:->8}-+-{:->8}-+-{:->10}-+-{:->12}-+-{:->8}",
        "", "", "", "", "", ""
    );

    let mut csv_rows: Vec<String> = Vec::new();
    let mut speedup_at_16 = 0.0f64;
    for (transport, addr) in [("loopback", direct), ("1ms-link", link.addr)] {
        let base = serialized(addr);
        println!(
            "{:>8} | {:>8} | {:>8} | {:>10.0} | {:>12} | {:>8}",
            transport,
            "no",
            "serial",
            base.qps,
            fmt_time(base.p99),
            "1.00x"
        );
        csv_rows.push(format!("qps_serial_{transport},{}", base.qps));
        csv_rows.push(format!("p99_s_serial_{transport},{}", base.p99));
        for with_updates in [false, true] {
            for &conns in &CONNS {
                let m = if with_updates {
                    pipelined_with_updates(addr, conns, &mut sa, &server)
                } else {
                    pipelined(addr, conns)
                };
                let label = if with_updates { "yes" } else { "no" };
                println!(
                    "{:>8} | {:>8} | {:>8} | {:>10.0} | {:>12} | {:>7.2}x",
                    transport,
                    label,
                    conns,
                    m.qps,
                    fmt_time(m.p99),
                    m.qps / base.qps
                );
                csv_rows.push(format!(
                    "qps_{transport}_{conns}_conns_updates_{label},{}",
                    m.qps
                ));
                csv_rows.push(format!(
                    "p99_s_{transport}_{conns}_conns_updates_{label},{}",
                    m.p99
                ));
                if transport == "1ms-link" && !with_updates && conns == 16 {
                    speedup_at_16 = m.qps / base.qps;
                }
            }
        }
    }
    server.shutdown();

    csv_begin("metric,value");
    for row in &csv_rows {
        println!("{row}");
    }
    println!("qps_speedup_at_16_conns_1ms_link,{speedup_at_16}");
    csv_end();

    assert!(
        speedup_at_16 >= 4.0,
        "16 pipelined connections over the client link must deliver >= 4x \
         the serialized baseline (got {speedup_at_16:.2}x)"
    );
    println!(
        "\nAggregate speedup at 16 connections over the 1 ms client link: \
         {speedup_at_16:.2}x the serialized baseline (bar: 4x)."
    );
}
