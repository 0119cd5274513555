//! RSA signatures with Condensed-RSA multiplicative aggregation.
//!
//! Condensed RSA (Mykletun/Narasimha/Tsudik, cited as \[23,24\] in the paper)
//! aggregates many signatures from the *same* signer into one value by
//! multiplying them modulo `n`; the verifier checks
//! `sigma^e == prod H(m_i) (mod n)`. The paper benchmarks 1024-bit Condensed
//! RSA against 160-bit BAS in Table 3. Here it is that baseline and nothing
//! more: no deployment signs with it, and only the Table 3 harness and the
//! crypto micro-benchmarks call this module.
//!
//! Hashing uses a full-domain construction: SHA-256 expanded with a counter
//! (MGF1-style) to one byte less than the modulus length, guaranteeing the
//! encoded value is below `n`.

use authdb_crypto::bigint::BigUint;
use authdb_crypto::sha256::Sha256;

use crate::bigint::{gen_prime, modexp, modinv, mul_mod, sub_mod, Montgomery};

/// RSA public key (modulus + public exponent).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
    modulus_bytes: usize,
}

/// RSA private key with CRT acceleration parameters.
#[derive(Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    d: BigUint,
    p: BigUint,
    q: BigUint,
    d_p: BigUint,
    d_q: BigUint,
    q_inv: BigUint,
}

/// An individual RSA signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsaSignature(pub BigUint);

/// A condensed (aggregated) RSA signature over a batch of messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CondensedSignature(pub BigUint);

impl RsaPublicKey {
    /// Full-domain hash of `msg` into `[0, n)`.
    fn fdh(&self, msg: &[u8]) -> BigUint {
        fdh_to_len(msg, self.modulus_bytes - 1).rem(&self.n)
    }

    /// Verify an individual signature.
    pub fn verify(&self, msg: &[u8], sig: &RsaSignature) -> bool {
        if sig.0 >= self.n {
            return false;
        }
        modexp(&sig.0, &self.e, &self.n) == self.fdh(msg)
    }

    /// Verify a condensed signature over `msgs` (order-insensitive).
    pub fn verify_condensed(&self, msgs: &[&[u8]], agg: &CondensedSignature) -> bool {
        if msgs.is_empty() {
            return agg.0.is_one();
        }
        let mont = Montgomery::new(&self.n);
        let mut expected = BigUint::one();
        for m in msgs {
            expected = mont.mul(&expected, &self.fdh(m));
        }
        modexp(&agg.0, &self.e, &self.n) == expected
    }
}

impl RsaPrivateKey {
    /// Generate a fresh key with a modulus of `bits` bits (e.g. 1024).
    ///
    /// # Panics
    /// Panics if `bits < 64`.
    pub fn generate(bits: usize, rng: &mut impl rand::Rng) -> Self {
        assert!(bits >= 64, "RSA modulus must be at least 64 bits");
        let e = BigUint::from_u64(65537);
        loop {
            let p = gen_prime(bits / 2, rng);
            let q = gen_prime(bits - bits / 2, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bits() != bits {
                continue;
            }
            let one = BigUint::one();
            let p1 = p.sub(&one);
            let q1 = q.sub(&one);
            let phi = p1.mul(&q1);
            let Some(d) = modinv(&e, &phi) else { continue };
            let d_p = d.rem(&p1);
            let d_q = d.rem(&q1);
            let Some(q_inv) = modinv(&q, &p) else {
                continue;
            };
            return RsaPrivateKey {
                public: RsaPublicKey {
                    modulus_bytes: bits.div_ceil(8),
                    n,
                    e,
                },
                d,
                p,
                q,
                d_p,
                d_q,
                q_inv,
            };
        }
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Sign `msg` (CRT-accelerated `H(m)^d mod n`).
    pub fn sign(&self, msg: &[u8]) -> RsaSignature {
        let h = self.public.fdh(msg);
        // CRT: m1 = h^dP mod p, m2 = h^dQ mod q,
        // sig = m2 + q * ((m1 - m2) * qInv mod p)
        let m1 = modexp(&h.rem(&self.p), &self.d_p, &self.p);
        let m2 = modexp(&h.rem(&self.q), &self.d_q, &self.q);
        let diff = sub_mod(&m1, &m2.rem(&self.p), &self.p);
        let h_crt = mul_mod(&diff, &self.q_inv, &self.p);
        let sig = m2.add(&self.q.mul(&h_crt));
        RsaSignature(sig)
    }

    /// Slow reference signing without CRT (used in tests).
    pub fn sign_no_crt(&self, msg: &[u8]) -> RsaSignature {
        let h = self.public.fdh(msg);
        RsaSignature(modexp(&h, &self.d, &self.public.n))
    }
}

/// Aggregate individual signatures into a condensed signature
/// (multiplication modulo `n`; associative and commutative). One plain
/// `mul_mod` per signature: a one-off product never amortizes the
/// Montgomery domain's conversions in and out.
pub fn condense(pk: &RsaPublicKey, sigs: &[RsaSignature]) -> CondensedSignature {
    CondensedSignature(
        sigs.iter()
            .fold(BigUint::one(), |acc, s| mul_mod(&acc, &s.0, &pk.n)),
    )
}

/// MGF1-style expansion of SHA-256 to `len` bytes.
fn fdh_to_len(msg: &[u8], len: usize) -> BigUint {
    let mut out = Vec::with_capacity(len + 32);
    let mut counter = 0u32;
    while out.len() < len {
        let mut h = Sha256::new();
        h.update(msg);
        h.update(&counter.to_be_bytes());
        out.extend_from_slice(&h.finalize());
        counter += 1;
    }
    out.truncate(len);
    BigUint::from_bytes_be(&out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key() -> RsaPrivateKey {
        let mut rng = StdRng::seed_from_u64(42);
        RsaPrivateKey::generate(512, &mut rng)
    }

    #[test]
    fn sign_verify_round_trip() {
        let sk = key();
        let sig = sk.sign(b"hello world");
        assert!(sk.public_key().verify(b"hello world", &sig));
        assert!(!sk.public_key().verify(b"hello worlds", &sig));
    }

    #[test]
    fn crt_matches_plain_signing() {
        let sk = key();
        for msg in [&b"a"[..], b"b", b"the quick brown fox"] {
            assert_eq!(sk.sign(msg), sk.sign_no_crt(msg));
        }
    }

    #[test]
    fn condensed_verifies() {
        let sk = key();
        let msgs: Vec<Vec<u8>> = (0..8u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let sigs: Vec<RsaSignature> = msgs.iter().map(|m| sk.sign(m)).collect();
        let agg = condense(sk.public_key(), &sigs);
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        assert!(sk.public_key().verify_condensed(&refs, &agg));
    }

    #[test]
    fn condensed_rejects_tampered_message() {
        let sk = key();
        let msgs = [&b"alpha"[..], b"beta", b"gamma"];
        let sigs: Vec<RsaSignature> = msgs.iter().map(|m| sk.sign(m)).collect();
        let agg = condense(sk.public_key(), &sigs);
        let tampered = [&b"alpha"[..], b"beta", b"gamme"];
        assert!(!sk.public_key().verify_condensed(&tampered, &agg));
    }

    #[test]
    fn condensed_rejects_dropped_message() {
        let sk = key();
        let msgs = [&b"alpha"[..], b"beta", b"gamma"];
        let sigs: Vec<RsaSignature> = msgs.iter().map(|m| sk.sign(m)).collect();
        let agg = condense(sk.public_key(), &sigs);
        assert!(!sk.public_key().verify_condensed(&msgs[..2], &agg));
    }

    #[test]
    fn condensed_is_order_insensitive() {
        let sk = key();
        let msgs = [&b"alpha"[..], b"beta", b"gamma"];
        let sigs: Vec<RsaSignature> = msgs.iter().map(|m| sk.sign(m)).collect();
        let agg = condense(sk.public_key(), &sigs);
        let shuffled = [&b"gamma"[..], b"alpha", b"beta"];
        assert!(sk.public_key().verify_condensed(&shuffled, &agg));
    }

    #[test]
    fn empty_condensed_is_one() {
        let sk = key();
        let agg = condense(sk.public_key(), &[]);
        assert!(sk.public_key().verify_condensed(&[], &agg));
    }
}
