#![forbid(unsafe_code)]
//! Shared helpers for the `authdb` benchmark harnesses.
//!
//! Every table/figure of the paper's evaluation has a `harness = false`
//! bench target in `benches/` that prints the same rows or series the paper
//! reports, plus a machine-readable CSV block. Scale knobs:
//!
//! * `AUTHDB_N` — records in the main relation (default 100,000; the
//!   paper's 1,000,000 works but takes correspondingly longer to certify).
//! * `AUTHDB_JOBS` — signer threads for bootstrap (default: all cores).
//! * `AUTHDB_FULL=1` — run every experiment at full paper scale.

use std::time::Instant;

use authdb_core::adversary::{run_catalog, Strategy};
use authdb_core::da::DaConfig;
use authdb_core::qs::QsOptions;
use authdb_crypto::signer::SchemeKind;

/// Records for database-scale experiments.
pub fn env_n() -> usize {
    if full_scale() {
        return 1_000_000;
    }
    std::env::var("AUTHDB_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000)
}

/// Signer threads.
pub fn env_jobs() -> usize {
    std::env::var("AUTHDB_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        })
}

/// Whether to run at the paper's full scale.
pub fn full_scale() -> bool {
    std::env::var("AUTHDB_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The deployment the networked and sharded figures share: two-attribute
/// 64-byte records, chained signing, ρ = 10, ρ′ = 100 000, a 4096-page
/// pool, fill 2/3. Figures that differ override single fields with
/// struct-update syntax.
pub fn chained_cfg(scheme: SchemeKind) -> DaConfig {
    DaConfig {
        scheme,
        rho_prime: 100_000,
        buffer_pages: 4096,
        ..DaConfig::small()
    }
}

/// Replica options sized like the DA's own storage: the paper's figures give
/// the query server the same buffer pool and fill factor as the aggregator.
pub fn replica_opts(cfg: &DaConfig) -> QsOptions {
    QsOptions {
        buffer_pages: cfg.buffer_pages,
        fill: cfg.fill,
    }
}

/// Run tamper catalog `T` under `scheme` and print one row per strategy:
/// whether the honest counterpart was accepted and what the tampered
/// artifact was rejected with. Returns whether every row passed.
pub fn print_catalog<T: Strategy>(what: &str, scheme: SchemeKind) -> bool {
    let label = match scheme {
        SchemeKind::Mock => "Mock (structural)",
        SchemeKind::Bas => "BAS (real BLS/BN254)",
    };
    println!("\n{what} tamper catalog under {label}:");
    println!(
        "{:<26} | {:>9} | {:<44} | {:>4}",
        "strategy", "honest ok", "tampered artifact rejected with", "pass"
    );
    println!("{:-<26}-+-{:->9}-+-{:-<44}-+-{:->4}", "", "", "", "");
    let mut all_ok = true;
    for c in run_catalog::<T>(scheme) {
        let rejection = match &c.outcome {
            Ok(_) => "ACCEPTED (soundness hole!)".to_string(),
            Err(e) => format!("{e:?}"),
        };
        let ok = c.ok();
        all_ok &= ok;
        println!(
            "{:<26} | {:>9} | {:<44} | {:>4}",
            c.tamper.name(),
            if c.honest_ok { "yes" } else { "NO" },
            rejection,
            if ok { "ok" } else { "FAIL" },
        );
    }
    all_ok
}

/// Print a header banner for a bench.
pub fn banner(id: &str, caption: &str) {
    println!();
    println!("==============================================================");
    println!("{id} — {caption}");
    println!("==============================================================");
}

/// Print a CSV block delimiter so output is machine-parseable.
pub fn csv_begin(columns: &str) {
    println!("--- csv ---");
    println!("{columns}");
}

/// End the CSV block.
pub fn csv_end() {
    println!("--- end csv ---");
}

/// Time a closure, returning (result, seconds).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Format seconds as adaptive ms/µs/s.
pub fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else {
        format!("{:.2} µs", secs * 1e6)
    }
}

/// Format bytes as adaptive B/KB/MB.
pub fn fmt_bytes(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{:.2} MB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.2} KB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}
