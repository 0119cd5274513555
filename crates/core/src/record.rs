//! Record model and signing messages.
//!
//! A relation `R` has schema `⟨rid, A1, ..., AM, ts⟩` (Section 3.1): a unique
//! record identifier, `M` integer attributes, and the last certification
//! timestamp. Records serialize to a fixed `RecLen` bytes (Table 2 default:
//! 512) so they slot into the heap file.
//!
//! Two message constructions feed the signature scheme:
//!
//! * **tuple hash** — `h(rid | M | A1 | ... | AM | ts)`, the content digest;
//! * **chained message** (Section 3.3) — binds the tuple hash, the record's
//!   own indexed-attribute value, and its left/right neighbours' values, so
//!   an aggregate over a contiguous run proves completeness.
//!
//! The §3.4 per-attribute message is `authdb_paper::projection`'s.

use authdb_crypto::sha256::{sha256, Digest};

/// Logical time (the DA's certification clock, in ticks).
pub type Tick = u64;

/// Sentinel used as the "left neighbour key" of the first record.
pub const KEY_NEG_INF: i64 = i64::MIN;
/// Sentinel used as the "right neighbour key" of the last record.
pub const KEY_POS_INF: i64 = i64::MAX;

/// Relation schema: attribute count and physical record length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Schema {
    /// Number of attributes `M`.
    pub num_attrs: usize,
    /// Physical record length in bytes (`RecLen`).
    pub record_len: usize,
    /// Which attribute is indexed (`Aind`).
    pub indexed_attr: usize,
}

impl Schema {
    /// A schema with `num_attrs` attributes in `record_len` bytes, indexing
    /// attribute 0.
    ///
    /// # Panics
    /// Panics if the attributes do not fit in `record_len`.
    pub fn new(num_attrs: usize, record_len: usize) -> Self {
        let needed = 16 + 8 * num_attrs;
        assert!(
            record_len >= needed,
            "record_len {record_len} too small for {num_attrs} attrs (need {needed})"
        );
        Schema {
            num_attrs,
            record_len,
            indexed_attr: 0,
        }
    }
}

/// A record `⟨rid, A1..AM, ts⟩`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Unique record identifier.
    pub rid: u64,
    /// Attribute values `A1..AM`.
    pub attrs: Vec<i64>,
    /// Last certification time.
    pub ts: Tick,
}

impl Record {
    /// The indexed attribute's value.
    pub fn key(&self, schema: &Schema) -> i64 {
        // authdb-lint: allow(panic-free-decode): the verifier rejects wire records whose arity disagrees with the schema (MalformedRecord) before key() is reached; the schema itself is local trusted config
        self.attrs[schema.indexed_attr]
    }

    /// Serialize to exactly `schema.record_len` bytes.
    ///
    /// # Panics
    /// Panics if the attribute count disagrees with the schema.
    pub fn to_bytes(&self, schema: &Schema) -> Vec<u8> {
        assert_eq!(self.attrs.len(), schema.num_attrs, "attribute count");
        let mut out = Vec::with_capacity(schema.record_len);
        out.extend_from_slice(&self.rid.to_be_bytes());
        out.extend_from_slice(&self.ts.to_be_bytes());
        for a in &self.attrs {
            out.extend_from_slice(&a.to_be_bytes());
        }
        out.resize(schema.record_len, 0);
        out
    }

    /// Parse from a serialized record.
    ///
    /// # Panics
    /// Panics if `bytes` is shorter than the schema requires.
    pub fn from_bytes(schema: &Schema, bytes: &[u8]) -> Self {
        let rid = u64::from_be_bytes(bytes[0..8].try_into().expect("8 bytes"));
        let ts = u64::from_be_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let attrs = (0..schema.num_attrs)
            .map(|i| {
                let off = 16 + i * 8;
                i64::from_be_bytes(bytes[off..off + 8].try_into().expect("8 bytes"))
            })
            .collect();
        Record { rid, attrs, ts }
    }

    /// The content digest `h(rid | M | A1..AM | ts)`.
    fn tuple_hash(&self) -> Digest {
        let mut msg = Vec::with_capacity(24 + 8 * self.attrs.len());
        msg.extend_from_slice(b"tuple:");
        msg.extend_from_slice(&self.rid.to_be_bytes());
        msg.extend_from_slice(&(self.attrs.len() as u32).to_be_bytes());
        for a in &self.attrs {
            msg.extend_from_slice(&a.to_be_bytes());
        }
        msg.extend_from_slice(&self.ts.to_be_bytes());
        sha256(&msg)
    }

    /// The chained signing message for this record given its neighbours'
    /// indexed-attribute values (Section 3.3). Self-contained verification
    /// needs only the tuple hash, the record's own key, and the two
    /// neighbour keys — which is exactly what boundary proofs ship.
    pub fn chain_message(&self, schema: &Schema, left_key: i64, right_key: i64) -> Vec<u8> {
        chain_message_from_parts(&self.tuple_hash(), self.key(schema), left_key, right_key)
    }
}

/// Build a chained message from its parts.
fn chain_message_from_parts(
    tuple_hash: &Digest,
    own_key: i64,
    left_key: i64,
    right_key: i64,
) -> Vec<u8> {
    let mut msg = Vec::with_capacity(64);
    msg.extend_from_slice(b"chain:");
    msg.extend_from_slice(tuple_hash);
    msg.extend_from_slice(&own_key.to_be_bytes());
    msg.extend_from_slice(&left_key.to_be_bytes());
    msg.extend_from_slice(&right_key.to_be_bytes());
    msg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(4, 512)
    }

    fn record() -> Record {
        Record {
            rid: 42,
            attrs: vec![100, -5, 7, 0],
            ts: 1000,
        }
    }

    #[test]
    fn serialization_round_trip() {
        let s = schema();
        let r = record();
        let bytes = r.to_bytes(&s);
        assert_eq!(bytes.len(), s.record_len);
        assert_eq!(Record::from_bytes(&s, &bytes), r);
    }

    #[test]
    fn negative_attrs_round_trip() {
        let s = Schema::new(2, 64);
        let r = Record {
            rid: 7,
            attrs: vec![i64::MIN, i64::MAX],
            ts: 0,
        };
        assert_eq!(Record::from_bytes(&s, &r.to_bytes(&s)), r);
    }

    #[test]
    fn tuple_hash_binds_every_field() {
        let base = record();
        let mut v1 = base.clone();
        v1.rid += 1;
        let mut v2 = base.clone();
        v2.ts += 1;
        let mut v3 = base.clone();
        v3.attrs[2] += 1;
        assert_ne!(base.tuple_hash(), v1.tuple_hash());
        assert_ne!(base.tuple_hash(), v2.tuple_hash());
        assert_ne!(base.tuple_hash(), v3.tuple_hash());
    }

    #[test]
    fn chain_message_binds_neighbours() {
        let s = schema();
        let r = record();
        let m1 = r.chain_message(&s, 50, 150);
        let m2 = r.chain_message(&s, 51, 150);
        let m3 = r.chain_message(&s, 50, 151);
        assert_ne!(m1, m2);
        assert_ne!(m1, m3);
    }

    #[test]
    fn chain_message_from_parts_matches() {
        let s = schema();
        let r = record();
        let direct = r.chain_message(&s, KEY_NEG_INF, 500);
        let parts = chain_message_from_parts(&r.tuple_hash(), r.key(&s), KEY_NEG_INF, 500);
        assert_eq!(direct, parts);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn schema_rejects_tiny_records() {
        Schema::new(100, 64);
    }
}
