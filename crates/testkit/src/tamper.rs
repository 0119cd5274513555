//! The wire-tamper arm of the adversary catalog.
//!
//! The in-process catalogs ([`crate::adversary`]) attack the *content*
//! of answers; these strategies attack the *bytes*. Each entry corrupts an
//! outgoing response frame the way a malicious server or a hostile network
//! element could, and pins the typed error the client stack must surface —
//! a [`WireError`] from the codec or a `VerifyError` from the verifier,
//! never a panic and never an allocation driven by attacker-declared
//! lengths.

use authdb_core::verify::VerifyError;
use authdb_wire::WireError;

/// One way to corrupt a response frame in flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireTamper {
    /// Flip one bit inside the frame's trailing signature field (the last
    /// field of the last attached summary, in the scripted scenarios). The
    /// frame still parses structurally; either the compressed point is no
    /// longer canonical/on-curve (decode rejects) or it decodes to a
    /// different group element (the signature check rejects).
    BitFlipSignature,
    /// Drop the frame's tail and shrink the length prefix to match — a
    /// truncated but internally consistent frame. Decoding runs out of
    /// input mid-payload.
    TruncateFrame,
    /// Rewrite the version byte to an unsupported value. Readers must
    /// refuse to reinterpret the payload under another grammar.
    VersionDowngrade,
    /// Rewrite the length prefix to `u32::MAX`. The reader must reject at
    /// the header, *before* allocating a body buffer.
    OversizedLength,
}

impl WireTamper {
    /// Every strategy, in catalog order.
    pub const CATALOG: [WireTamper; 4] = [
        WireTamper::BitFlipSignature,
        WireTamper::TruncateFrame,
        WireTamper::VersionDowngrade,
        WireTamper::OversizedLength,
    ];

    /// Short printable name.
    pub fn name(self) -> &'static str {
        match self {
            WireTamper::BitFlipSignature => "bitflip-signature",
            WireTamper::TruncateFrame => "truncate-frame",
            WireTamper::VersionDowngrade => "version-downgrade",
            WireTamper::OversizedLength => "oversized-length",
        }
    }

    /// Corrupt a complete frame (4-byte header + body) in place. Frames too
    /// small to host the corruption are left alone (the scripted scenarios
    /// never produce them).
    pub fn apply(self, frame: &mut Vec<u8>) {
        match self {
            WireTamper::BitFlipSignature => {
                // The scripted answers end with a signature field; flipping
                // a low-order bit of the penultimate byte lands inside its
                // x-coordinate (BAS) or accumulator (Mock).
                if frame.len() > 8 {
                    let idx = frame.len() - 2;
                    frame[idx] ^= 0x01;
                }
            }
            WireTamper::TruncateFrame => {
                if frame.len() > 16 {
                    frame.truncate(frame.len() - 8);
                    let body = (frame.len() - 4) as u32;
                    frame[..4].copy_from_slice(&body.to_be_bytes());
                }
            }
            WireTamper::VersionDowngrade => {
                if frame.len() > 4 {
                    frame[4] = 0;
                }
            }
            WireTamper::OversizedLength => {
                frame[..4].copy_from_slice(&u32::MAX.to_be_bytes());
            }
        }
    }

    /// Whether `err` is the codec-level rejection this strategy pins. The
    /// bit-flip strategy may instead survive decoding and die at the
    /// verifier (see [`WireTamper::expects_verify`]).
    pub fn expects_wire(self, err: &WireError) -> bool {
        match self {
            // A flipped x-coordinate bit either leaves the curve (rejected
            // here) or moves to another point (rejected by the verifier).
            WireTamper::BitFlipSignature => matches!(err, WireError::InvalidPoint),
            // Running out of input surfaces as Truncated when a fixed field
            // is cut short, or as LengthOverflow when a collection's count
            // guard sees the shortfall first — both are the same refusal.
            WireTamper::TruncateFrame => {
                matches!(err, WireError::Truncated | WireError::LengthOverflow { .. })
            }
            WireTamper::VersionDowngrade => {
                matches!(err, WireError::UnsupportedVersion { .. })
            }
            WireTamper::OversizedLength => matches!(err, WireError::FrameTooLarge { .. }),
        }
    }

    /// Whether `err` is the verifier's rejection this strategy pins when
    /// the tampered frame still decodes (only reachable for the bit-flip
    /// strategy: the flipped signature is structurally valid but verifies
    /// against nothing).
    pub fn expects_verify(self, err: &VerifyError) -> bool {
        match self {
            WireTamper::BitFlipSignature => matches!(
                err,
                VerifyError::BadSummarySignature { .. } | VerifyError::BadAggregate
            ),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use authdb_wire::{decode_frame, frame, DEFAULT_MAX_FRAME_LEN};

    #[test]
    fn catalog_names_are_unique() {
        let mut names: Vec<&str> = WireTamper::CATALOG.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WireTamper::CATALOG.len());
    }

    #[test]
    fn structural_tampers_surface_pinned_wire_errors() {
        let msg: Vec<u64> = (0..8).collect();
        for t in [
            WireTamper::TruncateFrame,
            WireTamper::VersionDowngrade,
            WireTamper::OversizedLength,
        ] {
            let mut f = frame(&msg);
            t.apply(&mut f);
            // Oversized length: check the header path exactly as a stream
            // reader would, without the body.
            let err = if t == WireTamper::OversizedLength {
                authdb_wire::frame_body_len(f[..4].try_into().unwrap(), DEFAULT_MAX_FRAME_LEN)
                    .expect_err("oversized prefix rejected")
            } else {
                decode_frame::<Vec<u64>>(&f, DEFAULT_MAX_FRAME_LEN)
                    .expect_err("tampered frame rejected")
            };
            assert!(t.expects_wire(&err), "{}: unexpected {err:?}", t.name());
        }
    }
}
