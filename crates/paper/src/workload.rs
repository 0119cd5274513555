//! Workload and data generators for the evaluation (Section 5.1):
//!
//! * [`uniform`] — the default relation: N uniformly generated records with
//!   dense integer keys, and selection queries with selectivity drawn from
//!   `[sf/2, 3sf/2]`.
//! * [`arrivals`] — Poisson transaction arrivals with an `Upd%` update mix.
//! * [`cardinality`] — query-cardinality samplers for the SigCache analysis
//!   (truncated-harmonic and uniform distributions of Section 4.1).
//! * [`tpce`] — the synthetic TPC-E-like `Security`/`Holding` tables of the
//!   join experiments (Section 5.5), with a controllable match ratio α.

use rand::Rng;

/// Uniform-relation generation and range-query workloads.
pub mod uniform {
    use super::*;

    /// Rows for a relation of `n` records with `num_attrs` attributes:
    /// attribute 0 (the indexed key) is `i * key_stride`, the rest are
    /// uniform random values.
    pub fn rows(n: usize, num_attrs: usize, key_stride: i64, rng: &mut impl Rng) -> Vec<Vec<i64>> {
        (0..n)
            .map(|i| {
                let mut attrs = Vec::with_capacity(num_attrs);
                attrs.push(i as i64 * key_stride);
                for _ in 1..num_attrs {
                    attrs.push(rng.gen_range(0..1_000_000));
                }
                attrs
            })
            .collect()
    }

    /// A range query with selectivity drawn uniformly from
    /// `[sf/2, 3sf/2]` over a dense key domain `[0, n*stride)`
    /// (Section 5.1's workload definition). Returns `(lo, hi)`.
    pub fn range_query(n: usize, key_stride: i64, sf: f64, rng: &mut impl Rng) -> (i64, i64) {
        let sel = rng.gen_range(0.5 * sf..=1.5 * sf);
        let span = ((n as f64 * sel).round() as usize).max(1);
        let start = rng.gen_range(0..=(n - span.min(n)));
        let lo = start as i64 * key_stride;
        let hi = (start + span - 1) as i64 * key_stride;
        (lo, hi)
    }
}

/// Poisson arrivals and the query/update transaction mix.
pub mod arrivals {
    use super::*;

    /// A transaction to submit at `at` (seconds since start).
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct Arrival {
        /// Arrival time in seconds.
        pub at: f64,
        /// `true` = data update forwarded from the DA, `false` = user query.
        pub is_update: bool,
    }

    /// Sample an exponential inter-arrival gap for rate `lambda` (per sec).
    pub fn exp_gap(lambda: f64, rng: &mut impl Rng) -> f64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        -u.ln() / lambda
    }

    /// A Poisson arrival stream of `duration` seconds at `rate` jobs/sec
    /// with `upd_pct` percent updates (Table 2's `ArrRate` and `Upd%`).
    pub fn poisson_stream(
        rate: f64,
        upd_pct: f64,
        duration: f64,
        rng: &mut impl Rng,
    ) -> Vec<Arrival> {
        let mut out = Vec::with_capacity((rate * duration * 1.1) as usize + 8);
        let mut t = 0.0;
        loop {
            t += exp_gap(rate, rng);
            if t >= duration {
                return out;
            }
            out.push(Arrival {
                at: t,
                is_update: rng.gen_bool(upd_pct / 100.0),
            });
        }
    }
}

/// Query-cardinality distributions and samplers (Section 4.1).
pub mod cardinality {
    use super::*;

    /// Inverse-CDF sampler over an arbitrary `P(q)` table (`probs[q-1]`).
    pub struct CardinalitySampler {
        cdf: Vec<f64>,
    }

    impl CardinalitySampler {
        /// Build from a probability table.
        pub fn new(probs: &[f64]) -> Self {
            let mut cdf = Vec::with_capacity(probs.len());
            let mut acc = 0.0;
            for p in probs {
                acc += p;
                cdf.push(acc);
            }
            CardinalitySampler { cdf }
        }

        /// Sample a cardinality `q in 1..=N`.
        pub fn sample(&self, rng: &mut impl Rng) -> usize {
            let u: f64 = rng.gen_range(0.0..*self.cdf.last().expect("nonempty"));
            self.cdf.partition_point(|&c| c < u) + 1
        }
    }

    /// Truncated harmonic `P(q) ∝ 1/q` (favours short queries).
    pub fn harmonic(n: usize) -> Vec<f64> {
        let h: f64 = (1..=n).map(|q| 1.0 / q as f64).sum();
        (1..=n).map(|q| 1.0 / (q as f64 * h)).collect()
    }

    /// Uniform `P(q) = 1/N`.
    pub fn uniform(n: usize) -> Vec<f64> {
        vec![1.0 / n as f64; n]
    }

    /// A random position range of cardinality `q` over `n` positions.
    pub fn range_of_cardinality(n: usize, q: usize, rng: &mut impl Rng) -> (usize, usize) {
        let q = q.clamp(1, n);
        let start = rng.gen_range(0..=(n - q));
        (start, start + q - 1)
    }
}

/// Synthetic TPC-E-like join tables (Section 5.5).
///
/// `R` stands in for `Security` (N_R = 6,850 records, I_A = 6,850 distinct
/// join values) and `S` for a `Holding` subset (N_S = 894,000 records over
/// I_B = 3,425 distinct values — a primary-key/foreign-key join where every
/// `S.B` exists in `R.A`). The paper controls the match ratio α by choosing
/// which R records fall in the selection; we lay `R` out so a prefix range
/// of the indexed attribute yields any requested α.
pub mod tpce {
    use super::*;

    /// Paper cardinality: `Security` rows.
    pub const N_R: usize = 6_850;
    /// Distinct `R.A` values.
    pub const I_A: usize = 6_850;
    /// `Holding` subset size.
    pub const N_S: usize = 894_000;
    /// Distinct `S.B` values.
    pub const I_B: usize = 3_425;

    /// Build `R` rows `(indexed position, A value)` such that within any
    /// prefix range (selection), a fraction `alpha` of records carry a
    /// *matched* A value (one that exists in `S.B`) and the rest are
    /// unmatched. Matched values are even ids, unmatched odd ids.
    pub fn r_rows(n_r: usize, i_b: usize, alpha: f64, rng: &mut impl Rng) -> Vec<Vec<i64>> {
        let mut matched_next = 0i64;
        let mut unmatched_next = 1i64;
        (0..n_r)
            .map(|i| {
                let matched = rng.gen_bool(alpha);
                let a = if matched {
                    let v = matched_next % (2 * i_b as i64);
                    matched_next += 2;
                    v
                } else {
                    let v = unmatched_next;
                    unmatched_next += 2;
                    v
                };
                vec![i as i64, a]
            })
            .collect()
    }

    /// Build `S` rows `(B value, payload)`: `n_s` records spread evenly
    /// over the `i_b` distinct even values.
    pub fn s_rows(n_s: usize, i_b: usize) -> Vec<Vec<i64>> {
        (0..n_s)
            .map(|i| {
                let b = ((i % i_b) as i64) * 2;
                vec![b, 1_000_000 + i as i64]
            })
            .collect()
    }

    /// Distinct matched values (the `S.B` domain).
    pub fn b_domain(i_b: usize) -> Vec<i64> {
        (0..i_b as i64).map(|v| v * 2).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn uniform_rows_have_dense_keys() {
        let rows = uniform::rows(100, 3, 10, &mut rng());
        assert_eq!(rows.len(), 100);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r[0], i as i64 * 10);
            assert_eq!(r.len(), 3);
        }
    }

    #[test]
    fn range_query_selectivity_within_bounds() {
        let mut r = rng();
        let n = 10_000;
        for _ in 0..200 {
            let (lo, hi) = uniform::range_query(n, 1, 0.01, &mut r);
            let span = (hi - lo + 1) as f64 / n as f64;
            assert!((0.004..=0.016).contains(&span), "span {span}");
            assert!(lo >= 0 && hi < n as i64);
        }
    }

    #[test]
    fn poisson_rate_approximately_right() {
        let mut r = rng();
        let stream = arrivals::poisson_stream(100.0, 10.0, 50.0, &mut r);
        let rate = stream.len() as f64 / 50.0;
        assert!((rate - 100.0).abs() < 10.0, "rate {rate}");
        let upd = stream.iter().filter(|a| a.is_update).count() as f64 / stream.len() as f64;
        assert!((upd - 0.10).abs() < 0.03, "upd fraction {upd}");
        assert!(stream.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn cardinality_sampler_follows_distribution() {
        let mut r = rng();
        let n = 1024;
        let sampler = cardinality::CardinalitySampler::new(&cardinality::harmonic(n));
        let samples: Vec<usize> = (0..20_000).map(|_| sampler.sample(&mut r)).collect();
        assert!(samples.iter().all(|&q| (1..=n).contains(&q)));
        // Harmonic favours small q: the median must be far below N/2.
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        assert!(median < n / 8, "median {median}");
    }

    #[test]
    fn uniform_cardinality_covers_range() {
        let mut r = rng();
        let n = 512;
        let sampler = cardinality::CardinalitySampler::new(&cardinality::uniform(n));
        let mean: f64 = (0..20_000)
            .map(|_| sampler.sample(&mut r) as f64)
            .sum::<f64>()
            / 20_000.0;
        assert!(
            (mean - n as f64 / 2.0).abs() < n as f64 * 0.05,
            "mean {mean}"
        );
    }

    #[test]
    fn range_of_cardinality_exact() {
        let mut r = rng();
        for q in [1usize, 7, 100] {
            let (lo, hi) = cardinality::range_of_cardinality(1000, q, &mut r);
            assert_eq!(hi - lo + 1, q);
            assert!(hi < 1000);
        }
    }

    #[test]
    fn tpce_alpha_controls_matches() {
        let mut r = rng();
        let b: std::collections::BTreeSet<i64> = tpce::b_domain(tpce::I_B).into_iter().collect();
        for alpha in [0.1, 0.5, 0.9] {
            let rows = tpce::r_rows(5000, tpce::I_B, alpha, &mut r);
            let matched = rows.iter().filter(|row| b.contains(&row[1])).count() as f64 / 5000.0;
            assert!(
                (matched - alpha).abs() < 0.05,
                "alpha {alpha} got {matched}"
            );
        }
    }

    #[test]
    fn tpce_s_has_exact_distinct_values() {
        let rows = tpce::s_rows(10_000, 100);
        let distinct: std::collections::BTreeSet<i64> = rows.iter().map(|r| r[0]).collect();
        assert_eq!(distinct.len(), 100);
        // PK-FK: every B value is in the matched (even) domain.
        assert!(distinct.iter().all(|v| v % 2 == 0));
    }
}
