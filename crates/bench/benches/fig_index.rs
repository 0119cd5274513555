//! fig_index: per-answer `select_range` cost with the decoded-node cache.
//!
//! After the transport went concurrent (PR 8), `fig_conc`'s loopback sweep
//! showed the next bottleneck in-process: `select_range` cost ~16 µs per
//! answer even under Mock crypto, because the B+-tree re-decoded a full
//! `Node` from page bytes on every access and the aggregate-signature
//! cache rebuilt its leaf mirror via `scan_all` whenever an update landed.
//! This bench measures what the decoded-node cache, the zero-clone range
//! visitor, and incremental sigcache maintenance bought back.
//!
//! Two identical Mock replicas are bootstrapped from the *same* DA
//! signing pass; the only difference is `QsOptions::node_cache` — the
//! paper-shaped configuration (`DEFAULT_NODE_CACHE` decoded nodes) versus
//! `0`, which decodes each page afresh on every read, the pre-PR
//! discipline. The grid: N ∈ {2048, 16384} records, uniform versus skewed
//! (hot-prefix) query ranges, with and without a live certified update
//! stream applied to both replicas mid-measurement. Every answer from the
//! cached replica is checked bit-identical (canonical wire encoding)
//! against the uncached one — the cache must be invisible to clients.
//!
//! Acceptance bar: at N = 2048 (the `fig_conc` loopback shape) the cached
//! replica must answer at least 3× cheaper per query than the uncached
//! baseline, in both distributions, without updates. Buffer-pool and
//! node-cache hit rates are reported per scenario.

use std::time::Instant;

use authdb_bench::{banner, chained_cfg, csv_begin, csv_end, fmt_time, replica_opts};
use authdb_core::da::DaConfig;
use authdb_core::qs::QsOptions;
use authdb_core::shard::{ShardedAggregator, ShardedQueryServer};
use authdb_crypto::signer::SchemeKind;
use authdb_wire::WireEncode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KEY_STRIDE: i64 = 10;
/// Query width in keys (~2 records per answer): point-lookup-sized
/// answers keep aggregation and heap reads small, so the measurement
/// exposes the per-traversal decode cost the node cache removes.
const WIDTH: i64 = 2 * KEY_STRIDE;
/// Measured queries per scenario (after warmup).
const QUERIES: usize = 512;
/// Warmup queries (populate buffer pool and node cache).
const WARMUP: usize = 128;
/// With the update stream on: one certified insert + one delete applied
/// to both replicas every this many queries.
const UPDATE_EVERY: usize = 8;

fn cfg() -> DaConfig {
    DaConfig {
        // Summaries out of frame: the subject is proof-construction CPU.
        rho: 1_000_000,
        rho_prime: 1_000_000,
        buffer_pages: 8192,
        ..chained_cfg(SchemeKind::Mock)
    }
}

struct Bed {
    da: ShardedAggregator,
    cached: ShardedQueryServer,
    plain: ShardedQueryServer,
    n: i64,
    /// Next key offset for stream inserts (odd, so they never collide
    /// with the stride-10 bootstrap keys).
    next_insert: i64,
    /// Rids inserted by the stream, eligible for deletion.
    live: Vec<u64>,
}

fn build(n: i64) -> Bed {
    let cfg = cfg();
    let mut rng = StdRng::seed_from_u64(97);
    let mut da = ShardedAggregator::new(cfg.clone(), vec![], &mut rng);
    let boots = da.bootstrap((0..n).map(|i| vec![i * KEY_STRIDE, i]).collect(), 4);
    let mk = |node_cache: usize| {
        let opts = QsOptions {
            node_cache,
            ..replica_opts(&cfg)
        };
        da.replica(&boots, &opts)
    };
    let cached = mk(QsOptions::default().node_cache);
    let plain = mk(0);
    Bed {
        da,
        cached,
        plain,
        n,
        next_insert: 5,
        live: Vec::new(),
    }
}

impl Bed {
    fn span(&self) -> i64 {
        self.n * KEY_STRIDE
    }

    /// One certified insert plus (once a backlog exists) one certified
    /// delete, applied identically to both replicas.
    fn stream_update(&mut self) {
        let key = self.next_insert % self.span();
        self.next_insert += 7 * KEY_STRIDE; // stays odd: never a bootstrap key
        let (shard, msgs) = self.da.insert(vec![key, -1]);
        self.live.push(msgs[0].record.rid);
        for m in &msgs {
            self.cached.apply(shard, m);
            self.plain.apply(shard, m);
        }
        if self.live.len() > 32 {
            let rid = self.live.remove(0);
            let msgs = self.da.delete_record(0, rid);
            self.cached.apply_all(&msgs);
            self.plain.apply_all(&msgs);
        }
    }
}

/// Draw a query range: uniform start, or skewed (quadratic hot prefix —
/// low keys queried far more often, the shape that makes a small decoded
/// set cover most traffic).
fn draw(rng: &mut StdRng, span: i64, skewed: bool) -> (i64, i64) {
    let r: f64 = rng.gen();
    let frac = if skewed { r * r * 0.25 } else { r };
    let lo = ((span - WIDTH) as f64 * frac) as i64;
    (lo, lo + WIDTH - 1)
}

struct Row {
    cached_us: f64,
    plain_us: f64,
    node_hit_rate: f64,
    pool_hit_rate: f64,
}

fn scenario(bed: &mut Bed, skewed: bool, updates: bool, seed: u64) -> Row {
    let span = bed.span();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..WARMUP {
        let (lo, hi) = draw(&mut rng, span, skewed);
        let a = bed.cached.select_shard(0, lo, hi).expect("cached warmup");
        let b = bed.plain.select_shard(0, lo, hi).expect("plain warmup");
        assert_eq!(a.encode(), b.encode(), "warmup answers diverged");
    }
    let nc0 = bed.cached.stats();
    let pool0 = bed.cached.with_shard(0, |qs| qs.pool_stats());
    let (mut t_cached, mut t_plain) = (0.0f64, 0.0f64);
    for q in 0..QUERIES {
        if updates && q % UPDATE_EVERY == 0 {
            bed.stream_update();
        }
        let (lo, hi) = draw(&mut rng, span, skewed);
        let t = Instant::now();
        let a = bed.cached.select_shard(0, lo, hi).expect("cached query");
        t_cached += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let b = bed.plain.select_shard(0, lo, hi).expect("plain query");
        t_plain += t.elapsed().as_secs_f64();
        assert_eq!(
            a.encode(),
            b.encode(),
            "cached answer diverged from uncached at [{lo}, {hi}]"
        );
    }
    let nc1 = bed.cached.stats();
    let pool1 = bed.cached.with_shard(0, |qs| qs.pool_stats());
    let (nh, nm) = (
        nc1.node_cache_hits - nc0.node_cache_hits,
        nc1.node_cache_misses - nc0.node_cache_misses,
    );
    let (ph, pm) = (pool1.hits - pool0.hits, pool1.misses - pool0.misses);
    let rate = |h: u64, m: u64| {
        if h + m == 0 {
            1.0
        } else {
            h as f64 / (h + m) as f64
        }
    };
    Row {
        cached_us: t_cached / QUERIES as f64 * 1e6,
        plain_us: t_plain / QUERIES as f64 * 1e6,
        node_hit_rate: rate(nh, nm),
        pool_hit_rate: rate(ph, pm),
    }
}

fn main() {
    banner(
        "fig_index",
        "select_range cost per answer: decoded-node cache vs per-read decode",
    );
    println!(
        "Mock scheme, {WIDTH}-key ranges (~2 records/answer), {QUERIES} queries per \
         scenario after {WARMUP} warmup; identical certified replicas, only \
         `QsOptions::node_cache` differs. Pre-PR ROADMAP floor: ~16 µs/answer."
    );
    println!(
        "\n{:>6} | {:>8} | {:>8} | {:>11} | {:>11} | {:>7} | {:>9} | {:>9}",
        "N", "dist", "updates", "cached", "uncached", "speedup", "node-hit", "pool-hit"
    );
    println!(
        "{:->6}-+-{:->8}-+-{:->8}-+-{:->11}-+-{:->11}-+-{:->7}-+-{:->9}-+-{:->9}",
        "", "", "", "", "", "", "", ""
    );
    csv_begin("n,dist,updates,cached_us,plain_us,speedup,node_hit_rate,pool_hit_rate");
    let mut seed = 1000u64;
    for &n in &[2_048i64, 16_384] {
        let mut bed = build(n);
        for &(skewed, updates) in &[(false, false), (true, false), (false, true), (true, true)] {
            seed += 1;
            let row = scenario(&mut bed, skewed, updates, seed);
            let dist = if skewed { "skewed" } else { "uniform" };
            let upd = if updates { "live" } else { "off" };
            let speedup = row.plain_us / row.cached_us;
            println!(
                "{n:>6} | {dist:>8} | {upd:>8} | {:>11} | {:>11} | {speedup:>6.1}x | {:>8.1}% | {:>8.1}%",
                fmt_time(row.cached_us * 1e-6),
                fmt_time(row.plain_us * 1e-6),
                row.node_hit_rate * 100.0,
                row.pool_hit_rate * 100.0
            );
            println!(
                "{n},{dist},{upd},{:.3},{:.3},{speedup:.2},{:.4},{:.4}",
                row.cached_us, row.plain_us, row.node_hit_rate, row.pool_hit_rate
            );
            if n == 2_048 && !updates {
                assert!(
                    speedup >= 3.0,
                    "acceptance: cached select_range must be >=3x cheaper at N=2048 \
                     ({dist}), got {speedup:.2}x ({:.2} vs {:.2} us/answer)",
                    row.cached_us,
                    row.plain_us
                );
            }
        }
    }
    csv_end();
    println!("\nAcceptance holds: >=3x per-answer reduction at N=2048, answers bit-identical.");
}
