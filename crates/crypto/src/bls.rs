//! BLS signatures over BN254 with aggregation — the paper's **Bilinear
//! Aggregate Signature (BAS)** scheme [Boneh-Lynn-Shacham / Boneh-Gentry-
//! Lynn-Shacham].
//!
//! * secret key `x ∈ Fr`, public key `X = x·g2 ∈ G2`
//! * `sign(m) = x·H(m) ∈ G1` with `H` hashing to the curve
//! * `verify(m, σ): e(σ, g2) == e(H(m), X)`
//! * aggregation is G1 addition — *any set of message-signature pairs can be
//!   combined in arbitrary order into a single signature* (Section 2.1), and
//!   components can also be **subtracted** ("adding the inverse", which
//!   Section 4.3's eager cache refresh relies on).
//! * `verify_aggregate([m_i], σ): e(σ, g2) == e(Σ H(m_i), X)` — sound for a
//!   single signer, which is exactly the paper's data-aggregator setting.
//!
//! Verification runs on the batched multi-pairing engine: both pairings of
//! the check are rewritten as the product `e(σ, g2)·e(-ΣH(m_i), X) == 1`,
//! evaluated with **one** Miller loop accumulation and **one** final
//! exponentiation. The generator's Miller-loop lines are precomputed once
//! per process and the public key's once per key ([`G2Prepared`]), shared
//! by every clone of the key — so steady-state verification never pays
//! G2 preparation again.
//!
//! What a check costs: the two-term optimal-ate Miller loop (2 × 88 line
//! folds under 65 squarings) and the decomposed final exponentiation are
//! about 0.75 ms together on the benchmark host (≈ 0.3 and 0.42 ms): 18.3 k
//! Fp products, 11.7 k Montgomery reductions and two inversions, one of
//! them the batched `1/y` of both G1 terms (a unit test pins the counts
//! per stage). Each message
//! adds one `hash_to_curve` (≈ 16 µs: about two SHA-256 candidates, a
//! Legendre symbol each, and one square root) and each claim after
//! the first a share of two interleaved 128-bit multi-scalar
//! multiplications. Signing is one `hash_to_curve` and one 254-bit G1
//! scalar multiplication and never touches the pairing.

use std::sync::{Arc, OnceLock};

use crate::bn254::pairing::{final_exponentiation, multi_miller_loop_jacobian, G2Prepared};
use crate::bn254::{Fp12, Fr, G1, G2};

/// The process-wide prepared G2 generator.
fn prepared_generator() -> &'static G2Prepared {
    static GEN: OnceLock<G2Prepared> = OnceLock::new();
    GEN.get_or_init(|| G2Prepared::new(&G2::generator()))
}

thread_local! {
    /// How many pairing checks this thread has run.
    static PAIRING_CHECKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many pairing checks (one Miller loop and one final exponentiation
/// each) the calling thread has run. It counts pairings, not time, so a
/// test can pin a verifier's work exactly: read it before and after.
// authdb-lint: allow(serving-surface): read by the exact pairing-count tests in `crates/core/tests/verifier.rs`
pub fn pairing_checks() -> usize {
    PAIRING_CHECKS.with(|n| n.get())
}

/// BLS private key.
#[derive(Clone)]
pub struct BlsPrivateKey {
    sk: Fr,
    pk: BlsPublicKey,
}

/// BLS public key: a G2 point plus its cached Miller-loop preparation
/// (built once at key construction, shared across clones via `Arc`).
#[derive(Clone)]
pub struct BlsPublicKey {
    point: G2,
    prepared: Arc<G2Prepared>,
}

impl std::fmt::Debug for BlsPublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The preparation is a pure function of the point; dumping its
        // 88-entry line table would drown logs and assertion output.
        f.debug_struct("BlsPublicKey")
            .field("point", &self.point)
            .finish_non_exhaustive()
    }
}

impl PartialEq for BlsPublicKey {
    fn eq(&self, other: &Self) -> bool {
        // The preparation is a pure function of the point.
        self.point == other.point
    }
}

impl Eq for BlsPublicKey {}

/// A BLS signature or aggregate thereof (a G1 point).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlsSignature(pub G1);

impl BlsPrivateKey {
    /// Generate a fresh key pair.
    pub fn generate(rng: &mut impl rand::Rng) -> Self {
        let sk = loop {
            let k = Fr::random(rng);
            if !k.is_zero() {
                break k;
            }
        };
        let pk = BlsPublicKey::new(G2::generator().mul_fr(&sk));
        BlsPrivateKey { sk, pk }
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> &BlsPublicKey {
        &self.pk
    }

    /// Sign a message: `x·H(m)`.
    pub fn sign(&self, msg: &[u8]) -> BlsSignature {
        BlsSignature(G1::hash_to_curve(msg).mul_fr(&self.sk))
    }
}

impl BlsPublicKey {
    /// Wrap a public-key point, precomputing its pairing lines.
    pub fn new(point: G2) -> Self {
        let prepared = Arc::new(G2Prepared::new(&point));
        BlsPublicKey { point, prepared }
    }

    /// The underlying G2 point.
    pub fn point(&self) -> &G2 {
        &self.point
    }

    /// The cached Miller-loop preparation of this key.
    #[cfg(test)]
    fn prepared(&self) -> &G2Prepared {
        &self.prepared
    }

    /// Verify an individual signature with a single multi-pairing:
    /// `e(σ, g2)·e(-H(m), X) == 1`.
    pub fn verify(&self, msg: &[u8], sig: &BlsSignature) -> bool {
        self.pairing_check(&sig.0, &G1::hash_to_curve(msg))
    }

    /// Verify an aggregate signature over `msgs` (single-signer condensed
    /// verification: one hash-sum and one multi-pairing regardless of
    /// batch size).
    pub fn verify_aggregate(&self, msgs: &[&[u8]], agg: &BlsSignature) -> bool {
        let mut hash_sum = G1::infinity();
        for m in msgs {
            hash_sum = hash_sum.add(&G1::hash_to_curve(m));
        }
        if hash_sum.is_infinity() {
            // Empty batch: only the identity aggregate verifies.
            return agg.0.is_infinity();
        }
        self.pairing_check(&agg.0, &hash_sum)
    }

    /// Verify many `(message set, aggregate)` claims in one shot via a
    /// random linear combination: with verifier-chosen coefficients `cᵢ`
    /// (the first pinned to 1) and per-claim hash sums `Hᵢ = Σ_m H(m)`,
    /// check `e(Σ cᵢσᵢ, g2) · e(−Σ cᵢHᵢ, X) == 1`. A batch of any size
    /// costs one two-term multi-Miller loop and one final exponentiation
    /// plus two 128-bit multi-scalar multiplications — every extra claim
    /// adds its wNAF additions to both, the doubling chains are shared —
    /// instead of one full pairing check per claim.
    ///
    /// Soundness: the coefficients are 128-bit and drawn *after* the
    /// server commits to its answers, so a batch containing any invalid
    /// claim passes with probability ≤ 2⁻¹²⁸ — but a `false` result does
    /// not say *which* claim is bad; re-verify individually to localize.
    pub fn verify_aggregate_batch(
        &self,
        claims: &[(&[Vec<u8>], &BlsSignature)],
        rng: &mut impl rand::Rng,
    ) -> bool {
        // Claim 0 keeps coefficient 1; every later claim draws its own.
        let mut first = (G1::infinity(), G1::infinity());
        let mut rest: Vec<(G1, G1, [u64; 2])> = Vec::new();
        for (i, (msgs, sig)) in claims.iter().enumerate() {
            let mut h = G1::infinity();
            for m in msgs.iter() {
                h = h.add(&G1::hash_to_curve(m));
            }
            if i == 0 {
                first = (sig.0, h);
            } else {
                rest.push((sig.0, h, [rng.gen::<u64>(), rng.gen::<u64>()]));
            }
        }
        // Σ cᵢσᵢ and Σ cᵢHᵢ, each under one shared doubling chain.
        let sigs: Vec<(G1, &[u64])> = rest.iter().map(|(s, _, c)| (*s, &c[..])).collect();
        let hashes: Vec<(G1, &[u64])> = rest.iter().map(|(_, h, c)| (*h, &c[..])).collect();
        let sig_acc = first.0.add(&G1::multi_mul_scalar(&sigs));
        let hash_acc = first.1.add(&G1::multi_mul_scalar(&hashes));
        if sig_acc.is_infinity() && hash_acc.is_infinity() {
            // All claims are empty-message/identity pairs (or the batch is
            // empty): nothing left to check.
            return true;
        }
        self.pairing_check(&sig_acc, &hash_acc)
    }

    /// The one pairing check every `verify*` ends in:
    /// `e(σ, g2)·e(−h, X) == 1`, as one two-term Miller loop and one final
    /// exponentiation.
    fn pairing_check(&self, sig: &G1, hash: &G1) -> bool {
        PAIRING_CHECKS.with(|n| n.set(n.get() + 1));
        final_exponentiation(&self.miller_loop(sig, hash)).is_one()
    }

    /// The Miller value of `e(σ, g2)·e(−h, X)`, before the final
    /// exponentiation.
    fn miller_loop(&self, sig: &G1, hash: &G1) -> Fp12 {
        let neg_hash = hash.neg();
        multi_miller_loop_jacobian(&[(sig, prepared_generator()), (&neg_hash, &self.prepared)])
    }
}

impl BlsSignature {
    /// The aggregate identity element.
    pub fn identity() -> Self {
        BlsSignature(G1::infinity())
    }

    /// Combine with another signature (order-insensitive).
    pub fn aggregate(&self, other: &Self) -> Self {
        BlsSignature(self.0.add(&other.0))
    }

    /// Remove a previously aggregated component.
    pub fn subtract(&self, other: &Self) -> Self {
        BlsSignature(self.0.sub(&other.0))
    }
}

/// Aggregate a batch of signatures.
pub fn aggregate(sigs: &[BlsSignature]) -> BlsSignature {
    sigs.iter()
        .fold(BlsSignature::identity(), |acc, s| acc.aggregate(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key() -> BlsPrivateKey {
        let mut rng = StdRng::seed_from_u64(101);
        BlsPrivateKey::generate(&mut rng)
    }

    #[test]
    fn sign_verify_round_trip() {
        let sk = key();
        let sig = sk.sign(b"quote: AAPL 182.52");
        assert!(sk.public_key().verify(b"quote: AAPL 182.52", &sig));
        assert!(!sk.public_key().verify(b"quote: AAPL 182.53", &sig));
    }

    #[test]
    fn wrong_key_rejects() {
        let sk1 = key();
        let mut rng = StdRng::seed_from_u64(202);
        let sk2 = BlsPrivateKey::generate(&mut rng);
        let sig = sk1.sign(b"msg");
        assert!(!sk2.public_key().verify(b"msg", &sig));
    }

    #[test]
    fn verify_matches_two_pairing_definition() {
        // The multi-pairing check must agree with the textbook equation
        // e(σ, g2) == e(H(m), X).
        use crate::bn254::pairing;
        let sk = key();
        let sig = sk.sign(b"definitional check");
        let lhs = pairing(&sig.0, &G2::generator());
        let rhs = pairing(
            &G1::hash_to_curve(b"definitional check"),
            sk.public_key().point(),
        );
        assert_eq!(lhs, rhs);
        assert!(sk.public_key().verify(b"definitional check", &sig));
    }

    #[test]
    fn cloned_key_shares_preparation() {
        let sk = key();
        let pk = sk.public_key().clone();
        assert!(std::ptr::eq(
            pk.prepared() as *const _,
            sk.public_key().prepared() as *const _
        ));
    }

    #[test]
    fn aggregate_verifies() {
        let sk = key();
        let msgs: Vec<Vec<u8>> = (0..5u32)
            .map(|i| format!("tuple {i}").into_bytes())
            .collect();
        let sigs: Vec<BlsSignature> = msgs.iter().map(|m| sk.sign(m)).collect();
        let agg = aggregate(&sigs);
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        assert!(sk.public_key().verify_aggregate(&refs, &agg));
    }

    #[test]
    fn aggregate_rejects_tampering() {
        let sk = key();
        let msgs = [&b"a"[..], b"b", b"c"];
        let sigs: Vec<BlsSignature> = msgs.iter().map(|m| sk.sign(m)).collect();
        let agg = aggregate(&sigs);
        assert!(!sk
            .public_key()
            .verify_aggregate(&[&b"a"[..], b"b", b"x"], &agg));
        assert!(!sk.public_key().verify_aggregate(&[&b"a"[..], b"b"], &agg));
    }

    #[test]
    fn aggregate_order_insensitive() {
        let sk = key();
        let m1 = b"first".as_slice();
        let m2 = b"second".as_slice();
        let s1 = sk.sign(m1);
        let s2 = sk.sign(m2);
        assert_eq!(s1.aggregate(&s2), s2.aggregate(&s1));
        assert!(sk
            .public_key()
            .verify_aggregate(&[m2, m1], &s1.aggregate(&s2)));
    }

    #[test]
    fn subtract_inverts_aggregate() {
        let sk = key();
        let s1 = sk.sign(b"one");
        let s2 = sk.sign(b"two");
        let agg = s1.aggregate(&s2);
        assert_eq!(agg.subtract(&s2), s1);
        // Eager cache refresh pattern: swap an old component for a new one.
        let s2new = sk.sign(b"two v2");
        let refreshed = agg.subtract(&s2).aggregate(&s2new);
        assert!(sk
            .public_key()
            .verify_aggregate(&[&b"one"[..], b"two v2"], &refreshed));
    }

    #[test]
    fn batch_verifies_honest_claims() {
        let mut rng = StdRng::seed_from_u64(77);
        let sk = key();
        let mut claims_data: Vec<(Vec<Vec<u8>>, BlsSignature)> = Vec::new();
        for i in 0..6u32 {
            let msgs: Vec<Vec<u8>> = (0..=i).map(|j| format!("m{i}/{j}").into_bytes()).collect();
            let sigs: Vec<BlsSignature> = msgs.iter().map(|m| sk.sign(m)).collect();
            claims_data.push((msgs, aggregate(&sigs)));
        }
        let claims: Vec<(&[Vec<u8>], &BlsSignature)> =
            claims_data.iter().map(|(m, s)| (m.as_slice(), s)).collect();
        // Six claims, one pairing check; an empty batch needs none.
        let before = pairing_checks();
        assert!(sk.public_key().verify_aggregate_batch(&claims, &mut rng));
        assert!(sk.public_key().verify_aggregate_batch(&[], &mut rng));
        assert_eq!(pairing_checks() - before, 1);
    }

    #[test]
    fn batch_rejects_single_bad_claim() {
        let mut rng = StdRng::seed_from_u64(78);
        let sk = key();
        let good_msgs: Vec<Vec<u8>> = vec![b"a".to_vec(), b"b".to_vec()];
        let good = aggregate(&[sk.sign(b"a"), sk.sign(b"b")]);
        let bad_msgs: Vec<Vec<u8>> = vec![b"c".to_vec(), b"TAMPERED".to_vec()];
        let bad = aggregate(&[sk.sign(b"c"), sk.sign(b"d")]);
        let claims: Vec<(&[Vec<u8>], &BlsSignature)> =
            vec![(good_msgs.as_slice(), &good), (bad_msgs.as_slice(), &bad)];
        assert!(!sk.public_key().verify_aggregate_batch(&claims, &mut rng));
        // Swapping two claims' aggregates must not cancel out either.
        let swapped: Vec<(&[Vec<u8>], &BlsSignature)> =
            vec![(good_msgs.as_slice(), &bad), (bad_msgs.as_slice(), &good)];
        assert!(!sk.public_key().verify_aggregate_batch(&swapped, &mut rng));
    }

    #[test]
    fn batch_rejects_nonidentity_on_empty_messages() {
        let mut rng = StdRng::seed_from_u64(79);
        let sk = key();
        let empty: Vec<Vec<u8>> = Vec::new();
        let forged = sk.sign(b"x");
        let claims: Vec<(&[Vec<u8>], &BlsSignature)> = vec![(empty.as_slice(), &forged)];
        assert!(!sk.public_key().verify_aggregate_batch(&claims, &mut rng));
        let ident = BlsSignature::identity();
        let claims: Vec<(&[Vec<u8>], &BlsSignature)> = vec![(empty.as_slice(), &ident)];
        assert!(sk.public_key().verify_aggregate_batch(&claims, &mut rng));
    }

    #[test]
    fn verify_field_operation_counts_are_pinned() {
        // The exact field work of one `verify`, stage by stage: a count
        // cannot drift with the host the way a clock does. A change to the
        // tower that moves these re-pins them and says why.
        use crate::bn254::fp::ops::{count, Counts};
        let sk = key();
        let pk = sk.public_key();
        let msg = b"counted";
        let sig = sk.sign(msg);
        // The first check prepares the generator's lines.
        assert!(pk.verify(msg, &sig));
        let (h2c, hash) = count(|| G1::hash_to_curve(msg));
        let (miller, f) = count(|| pk.miller_loop(&sig.0, &hash));
        let (final_exp, _) = count(|| final_exponentiation(&f));
        let (total, ok) = count(|| pk.verify(msg, &sig));
        assert!(ok);
        let counts = |mul, red, add, sub, wide, inv| Counts {
            mul,
            red,
            add,
            sub,
            wide,
            inv,
        };
        assert_eq!(h2c, counts(324, 324, 3, 0, 0, 0));
        assert_eq!(miller, counts(9_360, 4_368, 8_304, 3_216, 10_752, 1));
        assert_eq!(final_exp, counts(7_213, 4_812, 10_241, 3_892, 9_483, 1));
        assert_eq!(total, h2c + miller + final_exp);
    }

    #[test]
    fn empty_aggregate_is_identity_only() {
        let sk = key();
        assert!(sk
            .public_key()
            .verify_aggregate(&[], &BlsSignature::identity()));
        let nonidentity = sk.sign(b"x");
        assert!(!sk.public_key().verify_aggregate(&[], &nonidentity));
    }
}
