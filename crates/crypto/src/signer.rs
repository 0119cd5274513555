//! Pluggable aggregate-signature abstraction consumed by the rest of the
//! workspace.
//!
//! Two schemes, one API:
//!
//! * [`SchemeKind::Bas`] — BLS over BN254, the paper's scheme of choice.
//! * [`SchemeKind::Mock`] — keyed SHA-256 with XOR aggregation. **Not a
//!   cryptographic signature** (anyone holding the key can forge); it exists
//!   so structural experiments over millions of records do not pay
//!   elliptic-curve costs. Never used for reported crypto timings, and its
//!   wire length is pinned to the paper's 20-byte (160-bit) signatures so
//!   index layouts match Section 3.2's arithmetic.
//!
//! Condensed RSA, the scheme the paper measures BAS against (Table 3), is
//! not a serving scheme: it lives in `authdb_paper::rsa` and only the
//! paper's benchmarks drive it.
//!
//! The signing side is [`Keypair`]; the query server and clients hold
//! [`PublicParams`], which can aggregate, subtract, and verify but not sign.
//!
//! For the BAS scheme, [`PublicParams`] carries the public key's cached
//! pairing preparation (`G2Prepared` line coefficients, shared via `Arc`):
//! cloning the params — e.g. handing them to the query server, a client
//! verifier, and a bench harness — shares one preparation, and every
//! `verify`/`verify_aggregate` call is a single multi-Miller-loop plus one
//! final exponentiation against the prepared key and generator — about
//! 1 ms on the benchmark host whatever the number of messages, which add
//! one hash-to-curve each, ≈ 16 µs (see [`crate::bls`] for the breakdown).
//! Reading a BAS signature off the wire is one square root, ≈ 8 µs: the
//! decoder checks canonicity on the bytes and inverts nothing.

use authdb_wire::{Reader, WireDecode, WireEncode, WireError};

use crate::bls::{BlsPrivateKey, BlsPublicKey, BlsSignature};
use crate::bn254::g1::G1_COMPRESSED_LEN;
use crate::bn254::G1;
use crate::sha256::Sha256;

/// Which aggregate signature scheme to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Bilinear Aggregate Signature (BLS over BN254).
    Bas,
    /// Fast non-cryptographic stand-in for structural experiments.
    Mock,
}

/// A signature (individual or aggregate) under any scheme.
#[derive(Clone, Debug, PartialEq)]
pub enum Signature {
    /// A G1 point.
    Bas(BlsSignature),
    /// 32-byte keyed-hash XOR accumulator.
    Mock([u8; 32]),
}

impl Signature {
    /// Scheme this signature belongs to.
    pub fn kind(&self) -> SchemeKind {
        match self {
            Signature::Bas(_) => SchemeKind::Bas,
            Signature::Mock(_) => SchemeKind::Mock,
        }
    }

    /// Serialized form (compressed G1 / raw bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            Signature::Bas(s) => s.0.to_compressed().to_vec(),
            Signature::Mock(b) => b.to_vec(),
        }
    }
}

/// Signing-side key material. Cloning shares no mutable state; a sharded
/// deployment clones one DA keypair into every shard's aggregator.
#[derive(Clone)]
pub struct Keypair {
    inner: KeypairInner,
}

#[derive(Clone)]
enum KeypairInner {
    Bas(BlsPrivateKey),
    Mock([u8; 32]),
}

/// Verification-side parameters (public key + scheme); cheap to clone and
/// share with the query server and clients. For BAS, clones share the
/// key's precomputed Miller-loop lines, so repeated query verification
/// never re-prepares the key.
#[derive(Clone)]
pub struct PublicParams {
    inner: PublicInner,
}

#[derive(Clone)]
enum PublicInner {
    Bas(BlsPublicKey),
    /// The mock "public key" is the shared secret — acceptable only because
    /// Mock is a performance stand-in, not a security mechanism.
    Mock([u8; 32]),
}

impl Keypair {
    /// Generate key material for `kind`.
    pub fn generate(kind: SchemeKind, rng: &mut impl rand::Rng) -> Self {
        let inner = match kind {
            SchemeKind::Bas => KeypairInner::Bas(BlsPrivateKey::generate(rng)),
            SchemeKind::Mock => {
                let mut key = [0u8; 32];
                rng.fill(&mut key);
                KeypairInner::Mock(key)
            }
        };
        Keypair { inner }
    }

    /// The scheme of this keypair.
    pub fn kind(&self) -> SchemeKind {
        match &self.inner {
            KeypairInner::Bas(_) => SchemeKind::Bas,
            KeypairInner::Mock(_) => SchemeKind::Mock,
        }
    }

    /// Sign a message.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        match &self.inner {
            KeypairInner::Bas(k) => Signature::Bas(k.sign(msg)),
            KeypairInner::Mock(key) => Signature::Mock(mock_sign(key, msg)),
        }
    }

    /// Verification-side parameters for distribution.
    pub fn public_params(&self) -> PublicParams {
        let inner = match &self.inner {
            KeypairInner::Bas(k) => PublicInner::Bas(k.public_key().clone()),
            KeypairInner::Mock(key) => PublicInner::Mock(*key),
        };
        PublicParams { inner }
    }
}

impl PublicParams {
    /// The scheme of these parameters.
    pub fn kind(&self) -> SchemeKind {
        match &self.inner {
            PublicInner::Bas(_) => SchemeKind::Bas,
            PublicInner::Mock(_) => SchemeKind::Mock,
        }
    }

    /// Bytes one signature occupies on the wire. BAS signatures are 33 bytes
    /// compressed (the paper's 160-bit curves would give 21); Mock pins the
    /// paper's 20-byte accounting.
    pub fn wire_len(&self) -> usize {
        match &self.inner {
            PublicInner::Bas(_) => 33,
            PublicInner::Mock(_) => 20,
        }
    }

    /// The aggregate identity element.
    pub fn identity(&self) -> Signature {
        match &self.inner {
            PublicInner::Bas(_) => Signature::Bas(BlsSignature::identity()),
            PublicInner::Mock(_) => Signature::Mock([0u8; 32]),
        }
    }

    /// Fold `sig` into `acc` (order-insensitive).
    ///
    /// # Panics
    /// Panics if the signatures belong to different schemes.
    pub fn aggregate(&self, acc: &Signature, sig: &Signature) -> Signature {
        match (&self.inner, acc, sig) {
            (PublicInner::Bas(_), Signature::Bas(a), Signature::Bas(s)) => {
                Signature::Bas(a.aggregate(s))
            }
            (PublicInner::Mock(_), Signature::Mock(a), Signature::Mock(s)) => {
                Signature::Mock(xor32(a, s))
            }
            _ => panic!("signature scheme mismatch in aggregate"),
        }
    }

    /// Aggregate a whole batch.
    pub fn aggregate_all<'a>(&self, sigs: impl IntoIterator<Item = &'a Signature>) -> Signature {
        sigs.into_iter()
            .fold(self.identity(), |acc, s| self.aggregate(&acc, s))
    }

    /// Remove a previously aggregated component (Section 4.3's eager cache
    /// refresh "adds the inverse of the old signature").
    ///
    /// # Panics
    /// Panics if the signatures belong to different schemes.
    pub fn subtract(&self, acc: &Signature, sig: &Signature) -> Signature {
        match (&self.inner, acc, sig) {
            (PublicInner::Bas(_), Signature::Bas(a), Signature::Bas(s)) => {
                Signature::Bas(a.subtract(s))
            }
            (PublicInner::Mock(_), Signature::Mock(a), Signature::Mock(s)) => {
                Signature::Mock(xor32(a, s))
            }
            _ => panic!("signature scheme mismatch in subtract"),
        }
    }

    /// Verify an individual signature.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        match (&self.inner, sig) {
            (PublicInner::Bas(pk), Signature::Bas(s)) => pk.verify(msg, s),
            (PublicInner::Mock(key), Signature::Mock(s)) => mock_sign(key, msg) == *s,
            _ => false,
        }
    }

    /// Verify a batch of `(message set, aggregate)` claims at once.
    ///
    /// Under BAS the whole batch folds into one random-linear-combination
    /// multi-pairing (see [`crate::bls::BlsPublicKey::verify_aggregate_batch`];
    /// coefficient randomness comes from `rng`), so a batch of any size
    /// pays a single Miller loop and final exponentiation. Mock checks
    /// claim by claim. A `false` result does not localize the failure —
    /// re-check claims individually for that.
    pub fn verify_aggregate_batch(
        &self,
        claims: &[(&[Vec<u8>], &Signature)],
        rng: &mut impl rand::Rng,
    ) -> bool {
        match &self.inner {
            PublicInner::Bas(pk) => {
                let mut bas: Vec<(&[Vec<u8>], &BlsSignature)> = Vec::with_capacity(claims.len());
                for (msgs, sig) in claims {
                    let Signature::Bas(s) = sig else {
                        return false;
                    };
                    bas.push((msgs, s));
                }
                pk.verify_aggregate_batch(&bas, rng)
            }
            _ => claims.iter().all(|(msgs, agg)| {
                let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
                self.verify_aggregate(&refs, agg)
            }),
        }
    }

    /// Verify an aggregate signature over a batch of messages.
    pub fn verify_aggregate(&self, msgs: &[&[u8]], agg: &Signature) -> bool {
        match (&self.inner, agg) {
            (PublicInner::Bas(pk), Signature::Bas(a)) => pk.verify_aggregate(msgs, a),
            (PublicInner::Mock(key), Signature::Mock(a)) => {
                let mut acc = [0u8; 32];
                for m in msgs {
                    acc = xor32(&acc, &mock_sign(key, m));
                }
                acc == *a
            }
            _ => false,
        }
    }
}

// -- wire codec -------------------------------------------------------------

/// Wire scheme tags (one byte, part of the canonical encoding). Tag 1 was
/// Condensed RSA's; it is retired, never reused, and decodes as `BadTag`.
const WIRE_TAG_BAS: u8 = 0;
const WIRE_TAG_MOCK: u8 = 2;

/// Canonical encoding: scheme tag, then the scheme's fixed form.
///
/// * BAS — the 33-byte canonical compressed G1 point;
/// * Mock — the raw 32-byte accumulator.
impl WireEncode for Signature {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Signature::Bas(s) => {
                out.push(WIRE_TAG_BAS);
                out.extend_from_slice(&s.0.to_compressed());
            }
            Signature::Mock(b) => {
                out.push(WIRE_TAG_MOCK);
                out.extend_from_slice(b);
            }
        }
    }
}

impl WireDecode for Signature {
    // tag + Mock's 32-byte accumulator is the shortest legal form.
    const MIN_WIRE_LEN: usize = 1 + 32;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            WIRE_TAG_BAS => {
                let bytes: [u8; G1_COMPRESSED_LEN] = r.array()?;
                let point = G1::from_compressed(&bytes).ok_or(WireError::InvalidPoint)?;
                Ok(Signature::Bas(BlsSignature(point)))
            }
            WIRE_TAG_MOCK => Ok(Signature::Mock(r.array()?)),
            tag => Err(WireError::BadTag {
                what: "signature scheme",
                tag,
            }),
        }
    }
}

fn mock_sign(key: &[u8; 32], msg: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(key);
    h.update(msg);
    h.finalize()
}

fn xor32(a: &[u8; 32], b: &[u8; 32]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for i in 0..32 {
        out[i] = a[i] ^ b[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn all_schemes() -> Vec<Keypair> {
        let mut rng = StdRng::seed_from_u64(303);
        vec![
            Keypair::generate(SchemeKind::Bas, &mut rng),
            Keypair::generate(SchemeKind::Mock, &mut rng),
        ]
    }

    #[test]
    fn sign_verify_all_schemes() {
        for kp in all_schemes() {
            let pp = kp.public_params();
            let sig = kp.sign(b"record 42");
            assert!(pp.verify(b"record 42", &sig), "{:?}", kp.kind());
            assert!(!pp.verify(b"record 43", &sig), "{:?}", kp.kind());
        }
    }

    #[test]
    fn aggregate_verify_all_schemes() {
        for kp in all_schemes() {
            let pp = kp.public_params();
            let msgs: Vec<Vec<u8>> = (0..4u32).map(|i| format!("m{i}").into_bytes()).collect();
            let sigs: Vec<Signature> = msgs.iter().map(|m| kp.sign(m)).collect();
            let agg = pp.aggregate_all(&sigs);
            let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
            assert!(pp.verify_aggregate(&refs, &agg), "{:?}", kp.kind());
            let bad: Vec<&[u8]> = refs[..3].to_vec();
            assert!(!pp.verify_aggregate(&bad, &agg), "{:?}", kp.kind());
        }
    }

    #[test]
    fn subtract_then_verify_all_schemes() {
        for kp in all_schemes() {
            let pp = kp.public_params();
            let s1 = kp.sign(b"keep");
            let s2 = kp.sign(b"drop");
            let agg = pp.aggregate(&pp.aggregate(&pp.identity(), &s1), &s2);
            let reduced = pp.subtract(&agg, &s2);
            assert!(pp.verify_aggregate(&[b"keep"], &reduced), "{:?}", kp.kind());
        }
    }

    #[test]
    fn batch_aggregate_verify_all_schemes() {
        let mut rng = StdRng::seed_from_u64(304);
        for kp in all_schemes() {
            let pp = kp.public_params();
            let mut data: Vec<(Vec<Vec<u8>>, Signature)> = Vec::new();
            for i in 0..4u32 {
                let msgs: Vec<Vec<u8>> = (0..3u32)
                    .map(|j| format!("b{i}.{j}").into_bytes())
                    .collect();
                let sigs: Vec<Signature> = msgs.iter().map(|m| kp.sign(m)).collect();
                data.push((msgs, pp.aggregate_all(&sigs)));
            }
            let claims: Vec<(&[Vec<u8>], &Signature)> =
                data.iter().map(|(m, s)| (m.as_slice(), s)).collect();
            assert!(
                pp.verify_aggregate_batch(&claims, &mut rng),
                "{:?}",
                kp.kind()
            );
            // Corrupt one message of one claim: the whole batch must fail.
            let mut bad = data.clone();
            bad[2].0[1] = b"corrupted".to_vec();
            let claims: Vec<(&[Vec<u8>], &Signature)> =
                bad.iter().map(|(m, s)| (m.as_slice(), s)).collect();
            assert!(
                !pp.verify_aggregate_batch(&claims, &mut rng),
                "{:?}",
                kp.kind()
            );
        }
    }

    #[test]
    fn wire_lengths() {
        for kp in all_schemes() {
            let pp = kp.public_params();
            match kp.kind() {
                SchemeKind::Bas => assert_eq!(pp.wire_len(), 33),
                SchemeKind::Mock => assert_eq!(pp.wire_len(), 20),
            }
        }
    }

    #[test]
    fn signature_bytes_nonempty() {
        for kp in all_schemes() {
            let sig = kp.sign(b"x");
            assert!(!sig.to_bytes().is_empty());
        }
    }

    #[test]
    fn signature_wire_round_trip_all_schemes() {
        for kp in all_schemes() {
            let sig = kp.sign(b"wire me");
            let enc = sig.encode();
            let dec = Signature::decode(&enc)
                .unwrap_or_else(|e| panic!("{:?} signature failed to decode: {e}", kp.kind()));
            assert_eq!(dec, sig, "{:?}", kp.kind());
            // Canonicality: re-encoding a decoded value is bit-identical.
            assert_eq!(dec.encode(), enc, "{:?}", kp.kind());
            // The aggregate identity round-trips too (infinity point /
            // zero accumulator).
            let id = kp.public_params().identity();
            let enc = id.encode();
            assert_eq!(Signature::decode(&enc).unwrap(), id);
        }
    }

    #[test]
    fn non_canonical_signature_encodings_rejected() {
        let mut rng = StdRng::seed_from_u64(305);
        let kp = Keypair::generate(SchemeKind::Bas, &mut rng);
        let enc = kp.sign(b"m").encode();

        // Unknown scheme tag.
        let mut bad = enc.clone();
        bad[0] = 9;
        assert!(matches!(
            Signature::decode(&bad),
            Err(WireError::BadTag { .. })
        ));

        // Infinity tag with a nonzero x tail: two encodings of one point.
        let mut bad = enc.clone();
        bad[1] = 0x00;
        assert_eq!(Signature::decode(&bad), Err(WireError::InvalidPoint));

        // x-coordinate >= p (all-ones): reduced, it would be a second
        // encoding of a smaller x, so it is rejected.
        let mut bad = enc.clone();
        for b in &mut bad[2..] {
            *b = 0xFF;
        }
        assert_eq!(Signature::decode(&bad), Err(WireError::InvalidPoint));

        // Truncation is an error, not a panic.
        assert_eq!(
            Signature::decode(&enc[..enc.len() - 1]),
            Err(WireError::Truncated)
        );

        // Tag 1 (Condensed RSA's) is retired: a plausible RSA body after
        // it — a length-prefixed 64-byte magnitude — is still a bad tag.
        let mut retired = vec![1];
        retired.extend_from_slice(&64u32.to_be_bytes());
        retired.extend_from_slice(&[0x5A; 64]);
        assert_eq!(
            Signature::decode(&retired),
            Err(WireError::BadTag {
                what: "signature scheme",
                tag: 1
            })
        );

        // A signature is at least 33 bytes, so a sequence count the
        // remaining bytes could hold at 5 B an element but not at 33 is
        // refused before anything is reserved or decoded.
        let mut seq = 10u32.to_be_bytes().to_vec();
        seq.extend_from_slice(&[0; 5 * 10]);
        assert_eq!(
            Vec::<Signature>::decode(&seq),
            Err(WireError::LengthOverflow {
                what: "sequence",
                declared: 10
            })
        );
    }
}
