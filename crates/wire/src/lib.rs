#![forbid(unsafe_code)]
//! # authdb-wire — the canonical wire format
//!
//! Every proof-carrying type in this workspace serializes through the codec
//! defined here, and every signature downstream ultimately binds hashes of
//! bytes that travelled in this format — so the encoding must be
//! **canonical**: for every value `x`, `decode(encode(x)) == x`, and
//! re-encoding a decoded value is *bit-identical* to the bytes it was
//! decoded from. There is exactly one byte string per value. Decoders
//! enforce this by rejecting any non-canonical representation (an `Option`
//! presence byte other than 0/1, exposure chunks out of index order, a
//! compressed point the curve layer would not itself emit) instead of
//! normalizing it.
//!
//! Two disciplines in this crate are machine-enforced by `authdb-lint`
//! (see the rule reference in `crates/lint/src/lib.rs`): decode paths are
//! *panic-free* — adversarial bytes surface as [`WireError`], never as a
//! panic (`panic-free-decode`) — and length prefixes are written through
//! the checked `wire_u32`/[`put_count`] helpers rather than truncating
//! `as` casts (`checked-length-casts`). `cargo run -p authdb-lint --
//! --workspace` fails the build on a violation.
//!
//! ## Frame layout
//!
//! A message travels inside a *frame*:
//!
//! ```text
//! +----------------+-----------+------------------------+
//! | length: u32 BE | ver: u8   | payload (length-1 B)   |
//! +----------------+-----------+------------------------+
//! ```
//!
//! * `length` counts the version byte plus the payload, so a reader can
//!   fetch exactly `length` bytes after the 4-byte header.
//! * `ver` is the format-version byte, currently `FORMAT_VERSION` (5).
//!   Readers reject any other value with [`WireError::UnsupportedVersion`];
//!   version negotiation is deliberately *not* silent — a downgraded frame
//!   must surface, not be reinterpreted.
//! * A declared `length` above the reader's configured cap is rejected with
//!   [`WireError::FrameTooLarge`] **before any allocation** — an attacker
//!   cannot make a peer reserve memory by lying in the prefix.
//!
//! ## Payload encoding rules
//!
//! * Fixed-width integers are big-endian: `u8`, `u32`, `u64`, `i64`
//!   (two's complement).
//! * `Vec<T>` / byte strings: `u32` count followed by the elements. A
//!   decoder checks `count * min_element_size <= remaining bytes` before
//!   reserving capacity, so a forged count cannot drive an oversized
//!   allocation.
//! * `Option<T>`: one presence byte, `0x00` = absent, `0x01` = present;
//!   anything else is [`WireError::BadTag`].
//! * Enums: one tag byte per variant, then the variant's fields in order.
//! * Compressed elliptic-curve points use the crypto crate's fixed-width
//!   compressed form (tag byte `0x00` infinity / `0x02` even-y /
//!   `0x03` odd-y + big-endian x) and are decoded through the *canonical*
//!   path: an x-coordinate at or above the field modulus, a nonzero tail on
//!   an infinity encoding, or a not-on-curve x is [`WireError::InvalidPoint`].
//!
//! ## Versioning rules
//!
//! The version byte covers the whole payload grammar. Any change to an
//! existing type's encoding bumps `FORMAT_VERSION`; appending new
//! *message kinds* (new enum tags) is allowed within a version because
//! unknown tags already surface as typed [`WireError::BadTag`] errors.
//!
//! Version history: **2** — the projection answer gained a trailing
//! `checkpoint:opt` (the anchor for a summary run cut by compaction, as
//! `SelectionAnswer` already carried); every other encoding is bit-identical
//! to version 1. **3** — a `SummaryCheckpoint`'s `exposure` is no longer
//! `vec<u64>` but the committed form (`len, max, max_rid, root`, then the
//! opened chunks and their sibling digests); everything that carries no
//! summary checkpoint is bit-identical to version 2 but for this byte.
//! Within version 3, signature-scheme tag 1 (Condensed RSA, a
//! length-prefixed big integer no deployment ever minted) was retired: it
//! now decodes as [`WireError::BadTag`] and is never reused. That is no
//! bump — by the rules above only a change to a *surviving* encoding is, and
//! every BAS and Mock encoding is bit-identical — the same call as the
//! retirement of request tag 4 and response tag 5. **4** — `QsStats` lost
//! the hit and miss counters of the retired server-side aggregate cache:
//! six `u64`s, 48 bytes instead of 64; every other encoding is
//! bit-identical to version 3. Within version 4, request and response tags
//! 2 (projection) and 3 (the stats total) were retired the same way: no
//! bump. **5** — `UpdateMsg` lost its vector of per-attribute signatures
//! (a signing mode no deployment serves): 4 bytes less per update; every
//! other encoding is bit-identical to version 4. Query-error tags 0 (wrong
//! signing mode) and 2 (attribute out of schema) were retired with it and
//! are never reused.
//!
//! ## Failure discipline
//!
//! Decoding never panics and never over-allocates on attacker-controlled
//! bytes: every failure is a typed [`WireError`]. Trailing bytes after a
//! complete top-level value are an error ([`WireError::TrailingBytes`]) —
//! a frame is one message, not a stream.

use std::fmt;

/// Current wire-format version, carried in every frame.
const FORMAT_VERSION: u8 = 5;

/// Default cap on a frame's declared body length (version byte + payload).
/// Chosen far above any honest answer (a full-table selection of a million
/// records is tens of MB) while bounding what a lying length prefix can
/// make a peer allocate.
pub const DEFAULT_MAX_FRAME_LEN: usize = 64 << 20;

/// Why decoding failed. Every variant is reachable from hostile bytes and
/// none of them panics or allocates beyond the received input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the declared structure was complete.
    Truncated,
    /// A complete value was decoded but bytes remain in the frame.
    TrailingBytes {
        /// How many bytes were left over.
        remaining: usize,
    },
    /// An enum/option/scheme tag byte had no defined meaning.
    BadTag {
        /// Which structure was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// The frame's version byte is not one this reader speaks.
    UnsupportedVersion {
        /// The version the frame declared.
        got: u8,
        /// The version this reader requires.
        want: u8,
    },
    /// The frame header declared a body larger than the reader's cap.
    FrameTooLarge {
        /// Declared body length.
        declared: usize,
        /// The configured cap.
        max: usize,
    },
    /// A compressed curve point failed canonical decompression.
    InvalidPoint,
    /// A value was encoded in a legal-looking but non-canonical way
    /// (e.g. exposure chunks out of index order).
    NonCanonical {
        /// Which structure was being decoded.
        what: &'static str,
    },
    /// A collection declared more elements than the remaining bytes could
    /// possibly hold.
    LengthOverflow {
        /// Which structure was being decoded.
        what: &'static str,
        /// The declared element count.
        declared: usize,
    },
    /// An in-memory length does not fit the wire's `u32` length prefix, so
    /// the value cannot be encoded without truncation.
    Oversize {
        /// Which length was being encoded.
        what: &'static str,
        /// The unencodable length.
        len: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete value")
            }
            WireError::BadTag { what, tag } => write!(f, "bad tag {tag:#04x} decoding {what}"),
            WireError::UnsupportedVersion { got, want } => {
                write!(f, "unsupported wire version {got} (want {want})")
            }
            WireError::FrameTooLarge { declared, max } => {
                write!(f, "declared frame length {declared} exceeds cap {max}")
            }
            WireError::InvalidPoint => write!(f, "invalid or non-canonical curve point"),
            WireError::NonCanonical { what } => write!(f, "non-canonical encoding of {what}"),
            WireError::LengthOverflow { what, declared } => {
                write!(
                    f,
                    "{what} declares {declared} elements, more than the input holds"
                )
            }
            WireError::Oversize { what, len } => {
                write!(f, "{what} length {len} does not fit the u32 wire prefix")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A bounded cursor over untrusted bytes. All reads are checked; running
/// out of input is [`WireError::Truncated`], never a panic.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wrap `buf` for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Consume exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Consume a fixed-size array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Consume one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let [b] = self.array::<1>()?;
        Ok(b)
    }

    /// Consume a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// Consume a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// Consume a big-endian two's-complement `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_be_bytes(self.array()?))
    }

    /// Consume a `u32` element count for `what`, verifying the remaining
    /// input could hold at least `count * min_elem_len` bytes — the guard
    /// that makes `Vec::with_capacity(count)` safe against forged counts.
    pub fn seq_len(&mut self, what: &'static str, min_elem_len: usize) -> Result<usize, WireError> {
        let declared = self.u32()? as usize;
        let need = declared.checked_mul(min_elem_len.max(1));
        match need {
            Some(n) if n <= self.remaining() => Ok(declared),
            _ => Err(WireError::LengthOverflow { what, declared }),
        }
    }

    /// Consume a length-prefixed byte string.
    pub fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, WireError> {
        let n = self.seq_len(what, 1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Assert the input is fully consumed.
    fn finish(&self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                remaining: self.buf.len(),
            })
        }
    }
}

/// A type with a canonical byte encoding.
pub trait WireEncode {
    /// Append this value's canonical encoding to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// The canonical encoding as a fresh buffer.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }
}

/// A type decodable from its canonical encoding. Decoding is total over
/// arbitrary bytes: it returns a [`WireError`] rather than panicking, and
/// accepts exactly the byte strings [`WireEncode`] produces.
pub trait WireDecode: Sized {
    /// A lower bound on any value's encoded length, used to cap collection
    /// pre-allocation against forged counts. Keep it conservative (too low
    /// is safe, too high rejects honest input).
    const MIN_WIRE_LEN: usize = 1;

    /// Decode one value from the cursor.
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Decode a value that must consume the whole input.
    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode_from(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// Check that an in-memory length fits the wire's `u32` length prefix.
/// This is the one sanctioned route from `usize` to a wire count: a plain
/// `as u32` cast would silently wrap past 4 GiB and the decoder would then
/// misparse everything after the prefix.
fn wire_u32(what: &'static str, len: usize) -> Result<u32, WireError> {
    u32::try_from(len).map_err(|_| WireError::Oversize { what, len })
}

/// Append a `u32` length prefix for `len`.
///
/// # Panics
/// Panics if `len` exceeds `u32::MAX` — the value is unencodable, exactly
/// the documented contract of [`frame`], which gates with `wire_u32`
/// first.
pub fn put_count(out: &mut Vec<u8>, what: &'static str, len: usize) {
    let n = wire_u32(what, len).expect("collection length exceeds the u32 wire prefix");
    out.extend_from_slice(&n.to_be_bytes());
}

/// Append a length-prefixed byte string.
///
/// # Panics
/// Panics if `bytes.len()` exceeds `u32::MAX` (see [`put_count`]).
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_count(out, "byte string", bytes.len());
    out.extend_from_slice(bytes);
}

impl WireEncode for u32 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
}

impl WireDecode for u32 {
    const MIN_WIRE_LEN: usize = 4;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u32()
    }
}

impl WireEncode for u64 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
}

impl WireDecode for u64 {
    const MIN_WIRE_LEN: usize = 8;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

impl WireEncode for i64 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
}

impl WireDecode for i64 {
    const MIN_WIRE_LEN: usize = 8;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.i64()
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_count(out, "sequence", self.len());
        for item in self {
            item.encode_into(out);
        }
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    const MIN_WIRE_LEN: usize = 4;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.seq_len("sequence", T::MIN_WIRE_LEN)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode_from(r)?);
        }
        Ok(out)
    }
}

/// `Arc<T>` encodes exactly as `T`: sharing is a process-local detail the
/// wire never sees. Lets in-memory structures hold shared values (e.g. a
/// server's summary log attached to many answers) without a copy at the
/// encode boundary.
impl<T: WireEncode> WireEncode for std::sync::Arc<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (**self).encode_into(out);
    }
}

impl<T: WireDecode> WireDecode for std::sync::Arc<T> {
    const MIN_WIRE_LEN: usize = T::MIN_WIRE_LEN;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(std::sync::Arc::new(T::decode_from(r)?))
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_into(out);
            }
        }
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    const MIN_WIRE_LEN: usize = 1;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_from(r)?)),
            tag => Err(WireError::BadTag {
                what: "option presence byte",
                tag,
            }),
        }
    }
}

// -- framing ----------------------------------------------------------------

/// Encode `msg` into a complete frame: 4-byte length header, version byte,
/// payload.
///
/// # Panics
/// Panics if the body exceeds `u32::MAX` bytes (the length prefix would
/// wrap and desynchronize the stream). Writers that can legitimately
/// produce huge messages — a query server answering a full-table scan —
/// must use [`try_frame`] with their peer-facing cap instead.
pub fn frame<T: WireEncode>(msg: &T) -> Vec<u8> {
    try_frame(msg, u32::MAX as usize).expect("frame body exceeds u32::MAX")
}

/// Encode `msg` into a frame, refusing with [`WireError::FrameTooLarge`]
/// when the body (version byte + payload) exceeds `max` — the writer-side
/// mirror of [`frame_body_len`]'s reader cap, so an oversized honest answer
/// surfaces as a typed refusal instead of a frame every peer rejects (or,
/// past `u32::MAX`, a silently corrupt length prefix).
pub fn try_frame<T: WireEncode>(msg: &T, max: usize) -> Result<Vec<u8>, WireError> {
    let mut out = vec![0u8; 4];
    out.push(FORMAT_VERSION);
    msg.encode_into(&mut out);
    let body = out.len() - 4;
    let max = max.min(u32::MAX as usize);
    if body > max {
        return Err(WireError::FrameTooLarge {
            declared: body,
            max,
        });
    }
    let body = wire_u32("frame body", body)?;
    if let Some(header) = out.get_mut(..4) {
        header.copy_from_slice(&body.to_be_bytes());
    }
    Ok(out)
}

/// Validate a frame header against `max`, returning the body length
/// (version byte + payload) to read next. This is the pre-allocation gate:
/// callers must check the declared length here **before** reserving a
/// buffer for the body.
pub fn frame_body_len(header: [u8; 4], max: usize) -> Result<usize, WireError> {
    let declared = u32::from_be_bytes(header) as usize;
    if declared == 0 {
        return Err(WireError::Truncated);
    }
    if declared > max {
        return Err(WireError::FrameTooLarge { declared, max });
    }
    Ok(declared)
}

/// Decode a frame body (version byte + payload) into a message, checking
/// the version and rejecting trailing bytes.
pub fn deframe<T: WireDecode>(body: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(body);
    let got = r.u8()?;
    if got != FORMAT_VERSION {
        return Err(WireError::UnsupportedVersion {
            got,
            want: FORMAT_VERSION,
        });
    }
    let v = T::decode_from(&mut r)?;
    r.finish()?;
    Ok(v)
}

/// Decode a whole frame (header + body) from one in-memory buffer — the
/// socket-free path used by round-trip tests and tamper harnesses.
pub fn decode_frame<T: WireDecode>(bytes: &[u8], max: usize) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let header = r.array::<4>()?;
    let body_len = frame_body_len(header, max)?;
    let body = r.take(body_len)?;
    r.finish()?;
    deframe(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        for v in [0u64, 1, u64::MAX] {
            assert_eq!(u64::decode(&v.encode()).unwrap(), v);
        }
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            assert_eq!(i64::decode(&v.encode()).unwrap(), v);
        }
        let v: Vec<u64> = vec![1, 2, 3];
        assert_eq!(Vec::<u64>::decode(&v.encode()).unwrap(), v);
        let o: Option<i64> = Some(-7);
        assert_eq!(Option::<i64>::decode(&o.encode()).unwrap(), o);
        assert_eq!(Option::<i64>::decode(&None::<i64>.encode()).unwrap(), None);
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        assert_eq!(u64::decode(&[1, 2, 3]), Err(WireError::Truncated));
        let enc = vec![5i64, 6].encode();
        assert!(Vec::<i64>::decode(&enc[..enc.len() - 1]).is_err());
    }

    #[test]
    fn oversize_lengths_surface_a_typed_error() {
        // The checked route from usize to a u32 wire count: in range it is
        // exact, past u32::MAX it refuses with Oversize instead of wrapping.
        assert_eq!(wire_u32("n", 0), Ok(0));
        assert_eq!(wire_u32("n", u32::MAX as usize), Ok(u32::MAX));
        let too_big = u32::MAX as usize + 1;
        assert_eq!(
            wire_u32("sequence", too_big),
            Err(WireError::Oversize {
                what: "sequence",
                len: too_big
            })
        );
    }

    #[test]
    #[should_panic(expected = "u32 wire prefix")]
    fn put_count_panics_on_unencodable_length() {
        // The infallible encoders document this panic (same contract as
        // `frame`); the fallible path is `wire_u32` above.
        let mut out = Vec::new();
        put_count(&mut out, "sequence", u32::MAX as usize + 1);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut enc = 7u64.encode();
        enc.push(0);
        assert_eq!(
            u64::decode(&enc),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn option_presence_byte_is_canonical() {
        let mut enc = Some(3i64).encode();
        enc[0] = 2;
        assert!(matches!(
            Option::<i64>::decode(&enc),
            Err(WireError::BadTag { .. })
        ));
    }

    #[test]
    fn forged_count_cannot_drive_allocation() {
        // Claim u32::MAX elements with 4 bytes of payload.
        let mut enc = Vec::new();
        enc.extend_from_slice(&u32::MAX.to_be_bytes());
        enc.extend_from_slice(&[0; 4]);
        assert!(matches!(
            Vec::<u64>::decode(&enc),
            Err(WireError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn frames_round_trip() {
        let msg: Vec<u64> = vec![10, 20, 30];
        let f = frame(&msg);
        assert_eq!(
            decode_frame::<Vec<u64>>(&f, DEFAULT_MAX_FRAME_LEN).unwrap(),
            msg
        );
    }

    #[test]
    fn version_byte_checked() {
        let mut f = frame(&1u64);
        f[4] = 0; // downgrade
        assert_eq!(
            decode_frame::<u64>(&f, DEFAULT_MAX_FRAME_LEN),
            Err(WireError::UnsupportedVersion {
                got: 0,
                want: FORMAT_VERSION
            })
        );
    }

    #[test]
    fn try_frame_caps_the_writer_side() {
        let msg: Vec<u64> = (0..8).collect();
        let ok = try_frame(&msg, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(ok, frame(&msg));
        // A cap below the body size is a typed refusal, not a bad frame.
        assert!(matches!(
            try_frame(&msg, 8),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let mut f = frame(&1u64);
        f[..4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            frame_body_len(f[..4].try_into().unwrap(), DEFAULT_MAX_FRAME_LEN),
            Err(WireError::FrameTooLarge {
                declared: u32::MAX as usize,
                max: DEFAULT_MAX_FRAME_LEN
            })
        );
    }

    #[test]
    fn canonical_re_encoding_is_bit_identical() {
        let msg: Vec<Option<i64>> = vec![None, Some(-3), Some(i64::MAX)];
        let enc = msg.encode();
        let dec = Vec::<Option<i64>>::decode(&enc).unwrap();
        assert_eq!(dec.encode(), enc);
    }
}
