// Known-bad: a wall-clock read inside pure verification code (analyzed
// under the verify.rs path). Expected: exactly one no-wall-clock-in-verify
// diagnostic.

fn freshness_of(ts: u64, rho: u64) -> bool {
    let now = Instant::now();
    now.elapsed().as_secs() < rho
}
