//! Wire codecs for every proof-carrying type, plus the QS request/response
//! protocol.
//!
//! The encoding rules (framing, integer widths, collection and option
//! forms, canonicality discipline) are specified in the [`authdb_wire`]
//! crate docs; this module applies them to the concrete types. Two
//! properties carry the design:
//!
//! 1. **Canonical** — `decode(encode(x)) == x` for every value, and
//!    re-encoding a decoded value is bit-identical. Signatures bind hashes
//!    of messages rebuilt from these fields downstream, so one value must
//!    have exactly one byte form (`wire_roundtrip` property-tests this for
//!    every type here).
//! 2. **Total** — decoding attacker-controlled bytes returns a typed
//!    [`WireError`]; it never panics and never allocates beyond the
//!    received input. Schema-dependent shape checks the codec cannot make
//!    (attribute arity, attribute index bounds) are the verifier's job
//!    ([`crate::verify::VerifyError::MalformedRecord`]).
//!
//! Layouts (field order = struct order unless noted):
//!
//! | type | encoding |
//! |---|---|
//! | [`Record`] | `rid:u64, ts:u64, attrs:vec<i64>` |
//! | [`GapProof`] | `record, left:i64, right:i64, signature` |
//! | [`EmptyTableProof`] | `epoch:u64, shard:u64, ts:u64, signature` |
//! | [`UpdateSummary`] | `epoch:u64, shard:u64, seq:u64, period_start:u64, ts:u64, compressed:bytes, signature` |
//! | [`SummaryCheckpoint`] | `epoch:u64, shard:u64, through_seq:u64, through_ts:u64, exposure, signature` |
//! | [`Exposure`] | `len:u64, max:u64, max_rid:u64, root:[32]B, chunks:vec<(index:u64, entries:[u64; 16])>, siblings:vec<[32]B>` (decode re-checks that chunk indices strictly increase) |
//! | [`SelectionAnswer`] | `records:vec, agg, left:i64, right:i64, gap:opt, vacancy:opt, summaries:vec, checkpoint:opt` |
//! | [`ProjectedRow`] | `rid:u64, ts:u64, values:vec<(idx:u32, value:i64)>` |
//! | [`ProjectionAnswer`] | `rows:vec, agg, summaries:vec, checkpoint:opt` |
//! | [`UpdateMsg`] | `kind:u8, record, signature, attr_sigs:vec, old_key:opt<i64>, vacancy:opt` |
//! | [`ShardMap`] | `epoch:u64, splits:vec<i64>, signature` (decode re-checks the split and epoch invariants) |
//! | [`ShardedSelectionAnswer`] | `map, parts:vec<(shard:u64, answer)>` |
//! | [`EpochTransition`] | `epoch:u64, parent_hash:[32]B, map_hash:[32]B, ts:u64, signature` |
//! | [`EpochCheckpoint`] | `epoch:u64, map_hash:[32]B, transition_hash:[32]B, ts:u64, signature` |
//! | [`EpochBootstrap`] | `map, transition:opt, checkpoint:opt` |
//! | [`RebalancePlan`] | one tag byte (`0` split / `1` merge), then `shard:u64, at:i64` or `left:u64` |
//! | [`ShardHandoff`] | `shard:u64, records:vec, sigs:vec, vacancy:opt, baseline:summary` |
//! | [`ShardRebind`] | `shard:u64, summaries:vec, vacancy:opt, checkpoint:opt` |
//! | [`Rebalance`] | `plan, new_map, transition, handoffs:vec, rebound:vec, checkpoint` |
//! | [`QsStats`] | six `u64` counters |
//! | [`Request`] / [`Response`] | one tag byte, then the variant's fields |
//! | [`Request::Tagged`] / [`Response::Tagged`] | wrapper tag byte, `id:u64`, then exactly one *unwrapped* message (nesting is a typed `BadTag`, never recursion) |

use std::sync::Arc;

use authdb_wire::{put_bytes, put_count, Reader, WireDecode, WireEncode, WireError};

use authdb_crypto::signer::Signature;

use crate::da::{UpdateKind, UpdateMsg};
use crate::freshness::{
    EmptyTableProof, Exposure, SummaryCheckpoint, UpdateSummary, EXPOSURE_CHUNK,
};
use crate::qs::{GapProof, ProjectedRow, ProjectionAnswer, QsStats, QueryError, SelectionAnswer};
use crate::record::Record;
use crate::shard::{
    EpochBootstrap, EpochCheckpoint, EpochTransition, Rebalance, RebalancePlan, ShardAnswer,
    ShardHandoff, ShardMap, ShardRebind, ShardedSelectionAnswer,
};

// -- records and proofs -----------------------------------------------------

impl WireEncode for Record {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.rid.encode_into(out);
        self.ts.encode_into(out);
        self.attrs.encode_into(out);
    }
}

impl WireDecode for Record {
    const MIN_WIRE_LEN: usize = 20;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Record {
            rid: r.u64()?,
            ts: r.u64()?,
            attrs: Vec::<i64>::decode_from(r)?,
        })
    }
}

impl WireEncode for GapProof {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.record.encode_into(out);
        self.left_key.encode_into(out);
        self.right_key.encode_into(out);
        self.signature.encode_into(out);
    }
}

impl WireDecode for GapProof {
    const MIN_WIRE_LEN: usize = Record::MIN_WIRE_LEN + 16 + Signature::MIN_WIRE_LEN;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(GapProof {
            record: Record::decode_from(r)?,
            left_key: r.i64()?,
            right_key: r.i64()?,
            signature: Signature::decode_from(r)?,
        })
    }
}

impl WireEncode for EmptyTableProof {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.epoch.encode_into(out);
        self.shard.encode_into(out);
        self.ts.encode_into(out);
        self.signature.encode_into(out);
    }
}

impl WireDecode for EmptyTableProof {
    const MIN_WIRE_LEN: usize = 24 + Signature::MIN_WIRE_LEN;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(EmptyTableProof {
            epoch: r.u64()?,
            shard: r.u64()?,
            ts: r.u64()?,
            signature: Signature::decode_from(r)?,
        })
    }
}

impl WireEncode for UpdateSummary {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.epoch.encode_into(out);
        self.shard.encode_into(out);
        self.seq.encode_into(out);
        self.period_start.encode_into(out);
        self.ts.encode_into(out);
        put_bytes(out, &self.compressed);
        self.signature.encode_into(out);
    }
}

impl WireDecode for UpdateSummary {
    const MIN_WIRE_LEN: usize = 44 + Signature::MIN_WIRE_LEN;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(UpdateSummary {
            epoch: r.u64()?,
            shard: r.u64()?,
            seq: r.u64()?,
            period_start: r.u64()?,
            ts: r.u64()?,
            compressed: r.bytes("summary bitmap")?,
            signature: Signature::decode_from(r)?,
        })
    }
}

impl WireEncode for Exposure {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.len.encode_into(out);
        self.max.encode_into(out);
        self.max_rid.encode_into(out);
        out.extend_from_slice(&self.root);
        put_count(out, "exposure chunks", self.chunks.len());
        for (at, entries) in &self.chunks {
            at.encode_into(out);
            for e in entries {
                e.encode_into(out);
            }
        }
        put_count(out, "exposure siblings", self.siblings.len());
        for digest in &self.siblings {
            out.extend_from_slice(digest);
        }
    }
}

impl WireDecode for Exposure {
    const MIN_WIRE_LEN: usize = 24 + 32 + 4 + 4;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (len, max, max_rid, root) = (r.u64()?, r.u64()?, r.u64()?, r.array()?);
        let n = r.seq_len("exposure chunks", 8 + 8 * EXPOSURE_CHUNK)?;
        let mut chunks: Vec<(u64, [u64; EXPOSURE_CHUNK])> = Vec::with_capacity(n);
        for _ in 0..n {
            let at = r.u64()?;
            // One value, one byte form: an opening lists each chunk once,
            // in index order.
            if chunks.last().is_some_and(|&(prev, _)| prev >= at) {
                return Err(WireError::NonCanonical {
                    what: "exposure chunk order",
                });
            }
            let mut entries = [0; EXPOSURE_CHUNK];
            for e in &mut entries {
                *e = r.u64()?;
            }
            chunks.push((at, entries));
        }
        let n = r.seq_len("exposure siblings", 32)?;
        let mut siblings = Vec::with_capacity(n);
        for _ in 0..n {
            siblings.push(r.array()?);
        }
        Ok(Exposure {
            len,
            max,
            max_rid,
            root,
            chunks,
            siblings,
        })
    }
}

impl WireEncode for SummaryCheckpoint {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.epoch.encode_into(out);
        self.shard.encode_into(out);
        self.through_seq.encode_into(out);
        self.through_ts.encode_into(out);
        self.exposure.encode_into(out);
        self.signature.encode_into(out);
    }
}

impl WireDecode for SummaryCheckpoint {
    const MIN_WIRE_LEN: usize = 32 + Exposure::MIN_WIRE_LEN + Signature::MIN_WIRE_LEN;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SummaryCheckpoint {
            epoch: r.u64()?,
            shard: r.u64()?,
            through_seq: r.u64()?,
            through_ts: r.u64()?,
            exposure: Exposure::decode_from(r)?,
            signature: Signature::decode_from(r)?,
        })
    }
}

impl WireEncode for SelectionAnswer {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.records.encode_into(out);
        self.agg.encode_into(out);
        self.left_key.encode_into(out);
        self.right_key.encode_into(out);
        self.gap.encode_into(out);
        self.vacancy.encode_into(out);
        self.summaries.encode_into(out);
        self.checkpoint.encode_into(out);
    }
}

impl WireDecode for SelectionAnswer {
    const MIN_WIRE_LEN: usize = 4 + Signature::MIN_WIRE_LEN + 16 + 1 + 1 + 4 + 1;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SelectionAnswer {
            records: Vec::<Record>::decode_from(r)?,
            agg: Signature::decode_from(r)?,
            left_key: r.i64()?,
            right_key: r.i64()?,
            gap: Option::<GapProof>::decode_from(r)?,
            vacancy: Option::<EmptyTableProof>::decode_from(r)?,
            summaries: Vec::<Arc<UpdateSummary>>::decode_from(r)?,
            checkpoint: Option::<SummaryCheckpoint>::decode_from(r)?,
        })
    }
}

impl WireEncode for ProjectedRow {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.rid.encode_into(out);
        self.ts.encode_into(out);
        put_count(out, "projected-row values", self.values.len());
        for &(idx, value) in &self.values {
            // Attribute indexes are schema-bounded (far below u32::MAX);
            // the checked conversion keeps the invariant machine-visible.
            put_count(out, "attribute index", idx);
            value.encode_into(out);
        }
    }
}

impl WireDecode for ProjectedRow {
    const MIN_WIRE_LEN: usize = 20;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let rid = r.u64()?;
        let ts = r.u64()?;
        let n = r.seq_len("projected values", 12)?;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            let idx = r.u32()? as usize;
            let value = r.i64()?;
            values.push((idx, value));
        }
        Ok(ProjectedRow { rid, ts, values })
    }
}

impl WireEncode for ProjectionAnswer {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.rows.encode_into(out);
        self.agg.encode_into(out);
        self.summaries.encode_into(out);
        self.checkpoint.encode_into(out);
    }
}

impl WireDecode for ProjectionAnswer {
    const MIN_WIRE_LEN: usize = 9 + Signature::MIN_WIRE_LEN;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ProjectionAnswer {
            rows: Vec::<ProjectedRow>::decode_from(r)?,
            agg: Signature::decode_from(r)?,
            summaries: Vec::<Arc<UpdateSummary>>::decode_from(r)?,
            checkpoint: Option::<SummaryCheckpoint>::decode_from(r)?,
        })
    }
}

// -- update stream ----------------------------------------------------------

impl WireEncode for UpdateKind {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(match self {
            UpdateKind::Insert => 0,
            UpdateKind::Modify => 1,
            UpdateKind::Delete => 2,
            UpdateKind::Recertify => 3,
        });
    }
}

impl WireDecode for UpdateKind {
    const MIN_WIRE_LEN: usize = 1;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(UpdateKind::Insert),
            1 => Ok(UpdateKind::Modify),
            2 => Ok(UpdateKind::Delete),
            3 => Ok(UpdateKind::Recertify),
            tag => Err(WireError::BadTag {
                what: "update kind",
                tag,
            }),
        }
    }
}

impl WireEncode for UpdateMsg {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.kind.encode_into(out);
        self.record.encode_into(out);
        self.signature.encode_into(out);
        self.attr_sigs.encode_into(out);
        self.old_key.encode_into(out);
        self.vacancy.encode_into(out);
    }
}

impl WireDecode for UpdateMsg {
    const MIN_WIRE_LEN: usize = 1 + Record::MIN_WIRE_LEN + Signature::MIN_WIRE_LEN + 6;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(UpdateMsg {
            kind: UpdateKind::decode_from(r)?,
            record: Record::decode_from(r)?,
            signature: Signature::decode_from(r)?,
            attr_sigs: Vec::<Signature>::decode_from(r)?,
            old_key: Option::<i64>::decode_from(r)?,
            vacancy: Option::<EmptyTableProof>::decode_from(r)?,
        })
    }
}

// -- sharding ---------------------------------------------------------------

impl WireEncode for ShardMap {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.epoch().encode_into(out);
        put_count(out, "shard-map splits", self.splits().len());
        for s in self.splits() {
            s.encode_into(out);
        }
        self.signature().encode_into(out);
    }
}

impl WireDecode for ShardMap {
    const MIN_WIRE_LEN: usize = 12 + Signature::MIN_WIRE_LEN;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let epoch = r.u64()?;
        let splits = Vec::<i64>::decode_from(r)?;
        let signature = Signature::decode_from(r)?;
        // Honest encoders only produce maps `ShardMap::create` certified,
        // so rejecting malformed splits — or an epoch before
        // `GENESIS_EPOCH`, which the DA never signs — preserves canonicality
        // while keeping the partition invariants panic-free paths
        // downstream.
        ShardMap::from_parts(epoch, splits, signature).ok_or(WireError::NonCanonical {
            what: "shard map epoch/split keys",
        })
    }
}

impl WireEncode for EpochTransition {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.epoch.encode_into(out);
        out.extend_from_slice(&self.parent_hash);
        out.extend_from_slice(&self.map_hash);
        self.ts.encode_into(out);
        self.signature.encode_into(out);
    }
}

impl WireDecode for EpochTransition {
    const MIN_WIRE_LEN: usize = 80 + Signature::MIN_WIRE_LEN;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(EpochTransition {
            epoch: r.u64()?,
            parent_hash: r.array::<32>()?,
            map_hash: r.array::<32>()?,
            ts: r.u64()?,
            signature: Signature::decode_from(r)?,
        })
    }
}

impl WireEncode for EpochCheckpoint {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.epoch.encode_into(out);
        out.extend_from_slice(&self.map_hash);
        out.extend_from_slice(&self.transition_hash);
        self.ts.encode_into(out);
        self.signature.encode_into(out);
    }
}

impl WireDecode for EpochCheckpoint {
    const MIN_WIRE_LEN: usize = 80 + Signature::MIN_WIRE_LEN;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(EpochCheckpoint {
            epoch: r.u64()?,
            map_hash: r.array::<32>()?,
            transition_hash: r.array::<32>()?,
            ts: r.u64()?,
            signature: Signature::decode_from(r)?,
        })
    }
}

impl WireEncode for EpochBootstrap {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.map.encode_into(out);
        self.transition.encode_into(out);
        self.checkpoint.encode_into(out);
    }
}

impl WireDecode for EpochBootstrap {
    const MIN_WIRE_LEN: usize = ShardMap::MIN_WIRE_LEN + 2;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(EpochBootstrap {
            map: ShardMap::decode_from(r)?,
            transition: Option::<EpochTransition>::decode_from(r)?,
            checkpoint: Option::<EpochCheckpoint>::decode_from(r)?,
        })
    }
}

impl WireEncode for RebalancePlan {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            RebalancePlan::Split { shard, at } => {
                out.push(0);
                (shard as u64).encode_into(out);
                at.encode_into(out);
            }
            RebalancePlan::Merge { left } => {
                out.push(1);
                (left as u64).encode_into(out);
            }
        }
    }
}

impl WireDecode for RebalancePlan {
    const MIN_WIRE_LEN: usize = 9;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(RebalancePlan::Split {
                shard: decode_shard_index(r)?,
                at: r.i64()?,
            }),
            1 => Ok(RebalancePlan::Merge {
                left: decode_shard_index(r)?,
            }),
            tag => Err(WireError::BadTag {
                what: "rebalance plan",
                tag,
            }),
        }
    }
}

impl WireEncode for ShardHandoff {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (self.shard as u64).encode_into(out);
        self.records.encode_into(out);
        self.sigs.encode_into(out);
        self.vacancy.encode_into(out);
        self.baseline.encode_into(out);
    }
}

impl WireDecode for ShardHandoff {
    const MIN_WIRE_LEN: usize = 8 + 4 + 4 + 1 + UpdateSummary::MIN_WIRE_LEN;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ShardHandoff {
            shard: decode_shard_index(r)?,
            records: Vec::<Record>::decode_from(r)?,
            sigs: Vec::<Signature>::decode_from(r)?,
            vacancy: Option::<EmptyTableProof>::decode_from(r)?,
            baseline: UpdateSummary::decode_from(r)?,
        })
    }
}

impl WireEncode for ShardRebind {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (self.shard as u64).encode_into(out);
        self.summaries.encode_into(out);
        self.vacancy.encode_into(out);
        self.checkpoint.encode_into(out);
    }
}

impl WireDecode for ShardRebind {
    const MIN_WIRE_LEN: usize = 14;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ShardRebind {
            shard: decode_shard_index(r)?,
            summaries: Vec::<Arc<UpdateSummary>>::decode_from(r)?,
            vacancy: Option::<EmptyTableProof>::decode_from(r)?,
            checkpoint: Option::<SummaryCheckpoint>::decode_from(r)?,
        })
    }
}

impl WireEncode for Rebalance {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.plan.encode_into(out);
        self.new_map.encode_into(out);
        self.transition.encode_into(out);
        self.handoffs.encode_into(out);
        self.rebound.encode_into(out);
        self.checkpoint.encode_into(out);
    }
}

impl WireDecode for Rebalance {
    const MIN_WIRE_LEN: usize = RebalancePlan::MIN_WIRE_LEN
        + ShardMap::MIN_WIRE_LEN
        + EpochTransition::MIN_WIRE_LEN
        + 8
        + EpochCheckpoint::MIN_WIRE_LEN;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Rebalance {
            plan: RebalancePlan::decode_from(r)?,
            new_map: ShardMap::decode_from(r)?,
            transition: EpochTransition::decode_from(r)?,
            handoffs: Vec::<ShardHandoff>::decode_from(r)?,
            rebound: Vec::<ShardRebind>::decode_from(r)?,
            checkpoint: EpochCheckpoint::decode_from(r)?,
        })
    }
}

fn decode_shard_index(r: &mut Reader<'_>) -> Result<usize, WireError> {
    usize::try_from(r.u64()?).map_err(|_| WireError::NonCanonical {
        what: "shard index",
    })
}

impl WireEncode for ShardAnswer {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (self.shard as u64).encode_into(out);
        self.answer.encode_into(out);
    }
}

impl WireDecode for ShardAnswer {
    const MIN_WIRE_LEN: usize = 8 + SelectionAnswer::MIN_WIRE_LEN;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let shard = r.u64()?;
        let shard = usize::try_from(shard).map_err(|_| WireError::NonCanonical {
            what: "shard index",
        })?;
        Ok(ShardAnswer {
            shard,
            answer: SelectionAnswer::decode_from(r)?,
        })
    }
}

impl WireEncode for ShardedSelectionAnswer {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.map.encode_into(out);
        self.parts.encode_into(out);
    }
}

impl WireDecode for ShardedSelectionAnswer {
    const MIN_WIRE_LEN: usize = ShardMap::MIN_WIRE_LEN + 4;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ShardedSelectionAnswer {
            map: ShardMap::decode_from(r)?,
            parts: Vec::<ShardAnswer>::decode_from(r)?,
        })
    }
}

// -- diagnostics ------------------------------------------------------------

impl WireEncode for QsStats {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.agg_ops.encode_into(out);
        self.queries.encode_into(out);
        self.updates.encode_into(out);
        self.node_cache_hits.encode_into(out);
        self.node_cache_misses.encode_into(out);
        self.node_cache_evictions.encode_into(out);
    }
}

impl WireDecode for QsStats {
    const MIN_WIRE_LEN: usize = 48;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(QsStats {
            agg_ops: r.u64()?,
            queries: r.u64()?,
            updates: r.u64()?,
            node_cache_hits: r.u64()?,
            node_cache_misses: r.u64()?,
            node_cache_evictions: r.u64()?,
        })
    }
}

impl WireEncode for QueryError {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            QueryError::WrongSigningMode { required, actual } => {
                out.push(0);
                out.push(signing_mode_tag(*required));
                out.push(signing_mode_tag(*actual));
            }
            QueryError::Unsupported => out.push(1),
            QueryError::AttributeOutOfSchema { index } => {
                out.push(2);
                (*index as u64).encode_into(out);
            }
            QueryError::AnswerTooLarge => out.push(3),
            QueryError::BadRebalance => out.push(4),
            QueryError::UnknownShard { shard } => {
                out.push(5);
                shard.encode_into(out);
            }
        }
    }
}

impl WireDecode for QueryError {
    const MIN_WIRE_LEN: usize = 1;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(QueryError::WrongSigningMode {
                required: signing_mode_from_tag(r.u8()?)?,
                actual: signing_mode_from_tag(r.u8()?)?,
            }),
            1 => Ok(QueryError::Unsupported),
            2 => {
                let index = usize::try_from(r.u64()?).map_err(|_| WireError::NonCanonical {
                    what: "attribute index",
                })?;
                Ok(QueryError::AttributeOutOfSchema { index })
            }
            3 => Ok(QueryError::AnswerTooLarge),
            4 => Ok(QueryError::BadRebalance),
            5 => Ok(QueryError::UnknownShard { shard: r.u64()? }),
            tag => Err(WireError::BadTag {
                what: "query error",
                tag,
            }),
        }
    }
}

fn signing_mode_tag(mode: crate::da::SigningMode) -> u8 {
    match mode {
        crate::da::SigningMode::Chained => 0,
        crate::da::SigningMode::PerAttribute => 1,
    }
}

fn signing_mode_from_tag(tag: u8) -> Result<crate::da::SigningMode, WireError> {
    match tag {
        0 => Ok(crate::da::SigningMode::Chained),
        1 => Ok(crate::da::SigningMode::PerAttribute),
        tag => Err(WireError::BadTag {
            what: "signing mode",
            tag,
        }),
    }
}

// -- the QS network protocol ------------------------------------------------

/// A client request to a networked query server. One request frame yields
/// exactly one [`Response`] frame on the same connection.
///
/// **Retired tags** (never reused; both decode as [`WireError::BadTag`]):
/// request tag 4 and response tag 5 carried the from-genesis transition
/// chain, an answer that grew by one signed link per rebalance.
/// [`Request::Checkpoint`] is the one epoch catch-up.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Range selection `lo <= Aind <= hi`, answered with a sharded fan-out
    /// the client stitches via `Verifier::verify_sharded_selection`.
    Select {
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
    },
    /// Projection of `attrs` over the range, for
    /// `Verifier::verify_projection` under the client's pinned epoch. Only
    /// a one-shard deployment serves it; a multi-shard one refuses with
    /// `QueryError::Unsupported`.
    Project {
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
        /// Attribute indices to keep.
        attrs: Vec<u32>,
    },
    /// Aggregated proof-construction statistics.
    Stats,
    /// Apply a DA-certified rebalance package to the live server (the
    /// epoch-bump push a DA-side driver sends so a deployment re-partitions
    /// without a restart).
    Rebalance(Box<Rebalance>),
    /// One shard's answer for a sub-range — the per-shard request a fan-out
    /// client sends when it decomposes `[lo, hi]` itself (so each shard
    /// endpoint can fail independently and the query can degrade to a
    /// partial answer instead of dying with the slowest endpoint).
    SelectShard {
        /// The shard index under the client's pinned epoch.
        shard: u32,
        /// Lower bound (inclusive) of the shard's sub-range.
        lo: i64,
        /// Upper bound (inclusive) of the shard's sub-range.
        hi: i64,
    },
    /// Per-shard proof-construction counters in shard order — the load
    /// signal an auto-rebalance driver polls (the aggregated
    /// [`Request::Stats`] cannot tell a hot shard from a warm fleet).
    ShardStats,
    /// The latest certified epoch checkpoint bundle: the current map, its
    /// transition, and the epoch checkpoint hash-chained to it — everything
    /// a client needs to pin (`EpochView::from_bootstrap`) or catch up
    /// (`EpochView::observe`) an `EpochView` in O(1) signatures and O(1)
    /// bytes, whatever the epoch count.
    Checkpoint,
    /// A multiplexed request: the wrapped request plus a client-chosen
    /// correlation id echoed back on the response, so one connection can
    /// carry many requests in flight and match answers out of order.
    /// Wrappers do not nest — a tagged tagged request is refused
    /// (`QueryError::Unsupported`), never recursed into.
    Tagged {
        /// Client-chosen correlation id, echoed verbatim.
        id: u64,
        /// The request being multiplexed.
        inner: Box<Request>,
    },
}

impl WireEncode for Request {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping => out.push(0),
            Request::Select { lo, hi } => {
                out.push(1);
                lo.encode_into(out);
                hi.encode_into(out);
            }
            Request::Project { lo, hi, attrs } => {
                out.push(2);
                lo.encode_into(out);
                hi.encode_into(out);
                attrs.encode_into(out);
            }
            Request::Stats => out.push(3),
            Request::Rebalance(rb) => {
                out.push(5);
                rb.encode_into(out);
            }
            Request::SelectShard { shard, lo, hi } => {
                out.push(6);
                shard.encode_into(out);
                lo.encode_into(out);
                hi.encode_into(out);
            }
            Request::ShardStats => out.push(7),
            Request::Checkpoint => out.push(9),
            Request::Tagged { id, inner } => {
                out.push(8);
                id.encode_into(out);
                inner.encode_into(out);
            }
        }
    }
}

impl Request {
    /// Decode one non-wrapper request body given its already-read tag.
    /// The [`Request::Tagged`] wrapper is handled one level up and is a
    /// [`WireError::BadTag`] here, which is what makes nested wrappers a
    /// typed decode error instead of unbounded recursion on hostile bytes.
    fn decode_untagged(tag: u8, r: &mut Reader<'_>) -> Result<Self, WireError> {
        match tag {
            0 => Ok(Request::Ping),
            1 => Ok(Request::Select {
                lo: r.i64()?,
                hi: r.i64()?,
            }),
            2 => Ok(Request::Project {
                lo: r.i64()?,
                hi: r.i64()?,
                attrs: Vec::<u32>::decode_from(r)?,
            }),
            3 => Ok(Request::Stats),
            5 => Ok(Request::Rebalance(Box::new(Rebalance::decode_from(r)?))),
            6 => Ok(Request::SelectShard {
                shard: r.u32()?,
                lo: r.i64()?,
                hi: r.i64()?,
            }),
            7 => Ok(Request::ShardStats),
            9 => Ok(Request::Checkpoint),
            tag => Err(WireError::BadTag {
                what: "request",
                tag,
            }),
        }
    }
}

impl WireDecode for Request {
    const MIN_WIRE_LEN: usize = 1;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            8 => {
                let id = r.u64()?;
                let tag = r.u8()?;
                Ok(Request::Tagged {
                    id,
                    inner: Box::new(Request::decode_untagged(tag, r)?),
                })
            }
            tag => Request::decode_untagged(tag, r),
        }
    }
}

/// A networked query server's reply. The variants mirror [`Request`]
/// (retired tags included — see there); [`Response::Refused`] carries the server's own typed refusal (as opposed
/// to a verification failure, which is the client's verdict about the
/// payload).
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Liveness reply.
    Pong,
    /// A sharded selection answer.
    Selection(ShardedSelectionAnswer),
    /// A projection answer. Boxed like [`Response::ShardSelection`].
    Projection(Box<ProjectionAnswer>),
    /// Aggregated statistics.
    Stats(QsStats),
    /// The server refused to construct an answer.
    Refused(QueryError),
    /// A rebalance package was applied; the server now serves the new
    /// epoch.
    Rebalanced,
    /// One shard's selection answer (the reply to
    /// [`Request::SelectShard`]). Boxed: a full tile dwarfs every other
    /// variant, and responses spend their life behind this enum.
    ShardSelection(Box<SelectionAnswer>),
    /// Per-shard proof-construction counters in shard order (the reply to
    /// [`Request::ShardStats`]).
    ShardStats(Vec<QsStats>),
    /// The server shed this request under overload (admission queue full
    /// or the connection's write queue past its backpressure cap). Unlike
    /// [`Response::Refused`] this says nothing about the request itself —
    /// the client maps it to a retryable `NetError::Overloaded`.
    Busy,
    /// The latest certified bootstrap bundle (the reply to
    /// [`Request::Checkpoint`]). Boxed for the same reason as
    /// [`Response::ShardSelection`]: a map plus two certificates dwarfs the
    /// tag-only variants.
    Checkpoint(Box<EpochBootstrap>),
    /// A multiplexed response: the wrapped response plus the correlation
    /// id copied from the [`Request::Tagged`] it answers. Wrappers do not
    /// nest.
    Tagged {
        /// The correlation id of the request this answers.
        id: u64,
        /// The response being multiplexed.
        inner: Box<Response>,
    },
}

impl WireEncode for Response {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Pong => out.push(0),
            Response::Selection(a) => {
                out.push(1);
                a.encode_into(out);
            }
            Response::Projection(a) => {
                out.push(2);
                a.encode_into(out);
            }
            Response::Stats(s) => {
                out.push(3);
                s.encode_into(out);
            }
            Response::Refused(e) => {
                out.push(4);
                e.encode_into(out);
            }
            Response::Rebalanced => out.push(6),
            Response::ShardSelection(a) => {
                out.push(7);
                a.encode_into(out);
            }
            Response::ShardStats(s) => {
                out.push(8);
                s.encode_into(out);
            }
            Response::Busy => out.push(9),
            Response::Checkpoint(b) => {
                out.push(11);
                b.encode_into(out);
            }
            Response::Tagged { id, inner } => {
                out.push(10);
                id.encode_into(out);
                inner.encode_into(out);
            }
        }
    }
}

impl Response {
    /// Decode one non-wrapper response body given its already-read tag
    /// (the same no-nesting discipline as [`Request::decode_untagged`]).
    fn decode_untagged(tag: u8, r: &mut Reader<'_>) -> Result<Self, WireError> {
        match tag {
            0 => Ok(Response::Pong),
            1 => Ok(Response::Selection(ShardedSelectionAnswer::decode_from(r)?)),
            2 => Ok(Response::Projection(Box::new(
                ProjectionAnswer::decode_from(r)?,
            ))),
            3 => Ok(Response::Stats(QsStats::decode_from(r)?)),
            4 => Ok(Response::Refused(QueryError::decode_from(r)?)),
            6 => Ok(Response::Rebalanced),
            7 => Ok(Response::ShardSelection(Box::new(
                SelectionAnswer::decode_from(r)?,
            ))),
            8 => Ok(Response::ShardStats(Vec::<QsStats>::decode_from(r)?)),
            9 => Ok(Response::Busy),
            11 => Ok(Response::Checkpoint(Box::new(EpochBootstrap::decode_from(
                r,
            )?))),
            tag => Err(WireError::BadTag {
                what: "response",
                tag,
            }),
        }
    }
}

impl WireDecode for Response {
    const MIN_WIRE_LEN: usize = 1;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            10 => {
                let id = r.u64()?;
                let tag = r.u8()?;
                Ok(Response::Tagged {
                    id,
                    inner: Box::new(Response::decode_untagged(tag, r)?),
                })
            }
            tag => Response::decode_untagged(tag, r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::da::{DaConfig, SigningMode};
    use crate::qs::QsOptions;
    use crate::shard::{ShardedAggregator, ShardedQueryServer};
    use authdb_crypto::signer::SchemeKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(scheme: SchemeKind, mode: SigningMode) -> DaConfig {
        DaConfig {
            scheme,
            mode,
            ..DaConfig::small()
        }
    }

    /// A one-shard deployment of `n` records with keys `i·10`.
    fn one_shard(
        scheme: SchemeKind,
        mode: SigningMode,
        n: i64,
        seed: u64,
    ) -> (ShardedAggregator, ShardedQueryServer) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sa = ShardedAggregator::new(cfg(scheme, mode), vec![], &mut rng);
        let boots = sa.bootstrap((0..n).map(|i| vec![i * 10, i]).collect(), 2);
        let sqs = sa.replica(&boots, &QsOptions::default());
        (sa, sqs)
    }

    /// Round-trip plus the canonicality check every wire type must pass.
    fn assert_canonical<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(x: &T) {
        let enc = x.encode();
        let dec = T::decode(&enc).expect("canonical bytes decode");
        assert_eq!(&dec, x, "decode . encode = id");
        assert_eq!(dec.encode(), enc, "re-encoding is bit-identical");
    }

    #[test]
    fn selection_answers_round_trip_all_shapes() {
        for scheme in [SchemeKind::Mock, SchemeKind::Bas] {
            let (mut sa, sqs) = one_shard(scheme, SigningMode::Chained, 12, 17);
            sa.advance_clock(12);
            sqs.ingest(sa.maybe_publish_summaries());
            // Non-empty, gap-proof, and inverted shapes.
            for (lo, hi) in [(20, 70), (21, 29), (70, 20)] {
                assert_canonical(&sqs.select_shard(0, lo, hi).unwrap());
            }
        }
    }

    #[test]
    fn vacancy_answer_round_trips() {
        let (_, sqs) = one_shard(SchemeKind::Mock, SigningMode::Chained, 0, 18);
        let ans = sqs.select_shard(0, 0, 100).unwrap();
        assert!(ans.vacancy.is_some());
        assert_canonical(&ans);
    }

    #[test]
    fn projection_answer_round_trips() {
        let (mut sa, sqs) = one_shard(SchemeKind::Mock, SigningMode::PerAttribute, 10, 19);
        assert_canonical(&sqs.project(0, 80, &[0, 1]).unwrap());
        // With a summary run anchored at a checkpoint attached.
        for _ in 0..3 {
            sa.advance_clock(10);
            sqs.ingest(sa.maybe_publish_summaries());
        }
        let ckpt = sa.checkpoint_shard_summaries(0, 1).expect("compactable");
        sqs.apply_checkpoint(0, ckpt);
        let anchored = sqs.project(0, 80, &[0, 1]).unwrap();
        assert!(anchored.checkpoint.is_some() && !anchored.summaries.is_empty());
        assert_canonical(&anchored);
    }

    #[test]
    fn update_stream_round_trips() {
        let (mut sa, _) = one_shard(SchemeKind::Mock, SigningMode::Chained, 6, 20);
        sa.advance_clock(1);
        let mut msgs: Vec<UpdateMsg> = sa.insert(vec![35, 9]).1;
        let routed = |(_, m): (usize, UpdateMsg)| m;
        msgs.extend(
            sa.update_record(0, 2, vec![125, 0])
                .1
                .into_iter()
                .map(routed),
        ); // key move
        msgs.extend(sa.delete_record(0, 0).into_iter().map(routed));
        for m in &msgs {
            assert_canonical(m);
        }
        // Empty out the table so a delete carries a vacancy proof.
        for rid in 1..7u64 {
            for (_, m) in sa.delete_record(0, rid) {
                assert_canonical(&m);
            }
        }
    }

    #[test]
    fn sharded_answers_round_trip() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut sa = ShardedAggregator::new(
            cfg(SchemeKind::Mock, SigningMode::Chained),
            vec![100],
            &mut rng,
        );
        let boots = sa.bootstrap((0..20).map(|i| vec![i * 10, i]).collect(), 2);
        let sqs = sa.replica(&boots, &QsOptions::default());
        assert_canonical(sa.map());
        assert_canonical(&sqs.select_range(50, 150).unwrap());
    }

    #[test]
    fn protocol_messages_round_trip() {
        assert_canonical(&Request::Ping);
        assert_canonical(&Request::Select { lo: -5, hi: 900 });
        assert_canonical(&Request::Project {
            lo: 0,
            hi: 10,
            attrs: vec![0, 1],
        });
        assert_canonical(&Request::Stats);
        assert_canonical(&Response::Pong);
        let stats = QsStats {
            agg_ops: 1,
            queries: 2,
            updates: 3,
            node_cache_hits: 4,
            node_cache_misses: 5,
            node_cache_evictions: 6,
        };
        assert_eq!(stats.encode().len(), 48, "six u64 counters");
        assert_canonical(&Response::Stats(stats));
        assert_canonical(&Response::Refused(QueryError::WrongSigningMode {
            required: SigningMode::Chained,
            actual: SigningMode::PerAttribute,
        }));
        assert_canonical(&Response::Refused(QueryError::Unsupported));
        assert_canonical(&Response::Refused(QueryError::AttributeOutOfSchema {
            index: 9,
        }));
        assert_canonical(&Response::Refused(QueryError::AnswerTooLarge));
        assert_canonical(&Response::Refused(QueryError::BadRebalance));
        assert_canonical(&Response::Rebalanced);
        assert_canonical(&Request::ShardStats);
        assert_canonical(&Response::ShardStats(vec![
            QsStats::default(),
            QsStats {
                agg_ops: 9,
                queries: 8,
                updates: 7,
                node_cache_hits: 6,
                node_cache_misses: 5,
                node_cache_evictions: 4,
            },
        ]));
        assert_canonical(&Response::Busy);
        assert_canonical(&Request::Checkpoint);
        assert_canonical(&Request::Tagged {
            id: u64::MAX,
            inner: Box::new(Request::Select { lo: -5, hi: 900 }),
        });
        assert_canonical(&Response::Tagged {
            id: 3,
            inner: Box::new(Response::Busy),
        });
    }

    #[test]
    fn retired_epoch_tags_are_bad_tags() {
        // Request 4 / response 5 carried the from-genesis transition chain.
        // They stay unassigned: an old peer gets a typed refusal, and no
        // later message can be misread under the old grammar.
        assert!(matches!(
            Request::decode(&[4]),
            Err(WireError::BadTag {
                what: "request",
                tag: 4
            })
        ));
        assert!(matches!(
            Response::decode(&[5]),
            Err(WireError::BadTag {
                what: "response",
                tag: 5
            })
        ));
    }

    #[test]
    fn nested_tagged_wrappers_are_a_typed_decode_error() {
        // A wrapper inside a wrapper must surface as BadTag — recursing
        // would let 9 bytes of hostile input per level exhaust the stack.
        let nested_req = Request::Tagged {
            id: 1,
            inner: Box::new(Request::Tagged {
                id: 2,
                inner: Box::new(Request::Ping),
            }),
        }
        .encode();
        assert!(matches!(
            Request::decode(&nested_req),
            Err(WireError::BadTag {
                what: "request",
                tag: 8
            })
        ));
        let nested_resp = Response::Tagged {
            id: 1,
            inner: Box::new(Response::Tagged {
                id: 2,
                inner: Box::new(Response::Pong),
            }),
        }
        .encode();
        assert!(matches!(
            Response::decode(&nested_resp),
            Err(WireError::BadTag {
                what: "response",
                tag: 10
            })
        ));
        // Depth is irrelevant: a deep tower of wrappers dies at the same
        // typed error without touching the stack.
        let mut deep = Vec::new();
        for _ in 0..100_000 {
            deep.push(8u8);
            deep.extend_from_slice(&1u64.to_be_bytes());
        }
        deep.push(0);
        assert!(Request::decode(&deep).is_err());
    }

    #[test]
    fn rebalance_package_round_trips() {
        let mut rng = StdRng::seed_from_u64(25);
        let mut sa = ShardedAggregator::new(
            cfg(SchemeKind::Mock, SigningMode::Chained),
            vec![100],
            &mut rng,
        );
        sa.bootstrap((0..20).map(|i| vec![i * 10, i]).collect(), 2);
        sa.advance_clock(3);
        let rb = sa.rebalance(crate::shard::RebalancePlan::Split { shard: 1, at: 150 }, 2);
        assert_canonical(&rb.transition);
        assert_canonical(&rb.plan);
        assert_canonical(&rb);
        assert_canonical(&Request::Rebalance(Box::new(rb.clone())));
        // The epoch checkpoint minted with the package, and the bootstrap
        // bundle a fresh client fetches, round-trip too.
        assert_canonical(&rb.checkpoint);
        let boot = crate::shard::EpochBootstrap {
            map: rb.new_map.clone(),
            transition: Some(rb.transition.clone()),
            checkpoint: Some(rb.checkpoint.clone()),
        };
        assert_canonical(&boot);
        assert_canonical(&Response::Checkpoint(Box::new(boot)));
        // A merge package round-trips too (single handoff, two donors).
        let rb2 = sa.rebalance(crate::shard::RebalancePlan::Merge { left: 1 }, 2);
        assert_canonical(&rb2);
        assert_canonical(&crate::shard::RebalancePlan::Merge { left: 1 });
    }

    #[test]
    fn summary_checkpoint_round_trips() {
        for scheme in [SchemeKind::Mock, SchemeKind::Bas] {
            let (mut sa, _) = one_shard(scheme, SigningMode::Chained, 8, 26);
            for _ in 0..3 {
                sa.advance_clock(10);
                assert_eq!(sa.maybe_publish_summaries().len(), 1);
            }
            let ckpt = sa
                .checkpoint_shard_summaries(0, 1)
                .expect("prefix to compact");
            assert!(ckpt.exposure.len > 0, "recertified rids are exposed");
            assert_canonical(&ckpt);
        }
    }

    #[test]
    fn malformed_shard_map_rejected_not_panicking() {
        let mut rng = StdRng::seed_from_u64(22);
        let kp = authdb_crypto::signer::Keypair::generate(SchemeKind::Mock, &mut rng);
        let good = ShardMap::create(&kp, vec![10, 20]);
        let enc = good.encode();
        // Corrupt the second split so the splits are no longer increasing.
        let mut bad = enc.clone();
        // Layout: 8-byte epoch, 4-byte split count, then two i64s; flip the
        // sign bit of the second split's first byte.
        bad[8 + 4 + 8] = 0xFF;
        assert!(matches!(
            ShardMap::decode(&bad),
            Err(WireError::NonCanonical { .. })
        ));
    }

    #[test]
    fn epoch_zero_shard_map_rejected_on_decode() {
        // Epochs start at GENESIS_EPOCH: the DA never signs an epoch-0 map,
        // so from_parts and the codec must both refuse one.
        let mut rng = StdRng::seed_from_u64(23);
        let kp = authdb_crypto::signer::Keypair::generate(SchemeKind::Mock, &mut rng);
        let good = ShardMap::create(&kp, vec![10, 20]);
        assert_eq!(good.epoch(), crate::shard::GENESIS_EPOCH);
        assert!(
            ShardMap::from_parts(0, vec![10, 20], good.signature().clone()).is_none(),
            "from_parts must refuse epoch 0"
        );
        assert!(
            ShardMap::from_parts(1, vec![10, 20], good.signature().clone()).is_some(),
            "a genesis-epoch map reassembles"
        );
        let mut bad = good.encode();
        // Zero the 8 leading epoch bytes.
        for b in bad.iter_mut().take(8) {
            *b = 0;
        }
        assert!(matches!(
            ShardMap::decode(&bad),
            Err(WireError::NonCanonical { .. })
        ));
        // Decoded maps carry their epoch: round-trip an epoch-7 map.
        let later = ShardMap::create_at_epoch(&kp, vec![10, 20], 7);
        let dec = ShardMap::decode(&later.encode()).expect("decodes");
        assert_eq!(dec.epoch(), 7);
        assert_eq!(dec, later);
    }

    #[test]
    fn sharded_stats_aggregate_across_shards() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut sa = ShardedAggregator::new(
            cfg(SchemeKind::Mock, SigningMode::Chained),
            vec![100],
            &mut rng,
        );
        let boots = sa.bootstrap((0..20).map(|i| vec![i * 10, i]).collect(), 2);
        let sqs = sa.replica(&boots, &QsOptions::default());
        sqs.select_range(50, 150).unwrap(); // touches both shards
        sqs.select_range(0, 50).unwrap(); // shard 0 only
        let total = sqs.stats();
        assert_eq!(total.queries, 3, "2 fan-out parts + 1 single-shard");
        assert_eq!(
            total.queries,
            sqs.shard_stats().iter().map(|s| s.queries).sum::<u64>()
        );
        assert!(total.agg_ops > 0);
    }

    #[test]
    fn sharded_projection_requires_single_shard() {
        let mut rng = StdRng::seed_from_u64(24);
        let mut sa = ShardedAggregator::new(
            cfg(SchemeKind::Mock, SigningMode::PerAttribute),
            vec![100],
            &mut rng,
        );
        let boots = sa.bootstrap((0..10).map(|i| vec![i * 10, i]).collect(), 2);
        let sqs = sa.replica(&boots, &QsOptions::default());
        assert_eq!(
            sqs.project(0, 50, &[1]).unwrap_err(),
            QueryError::Unsupported
        );

        let mut sa = ShardedAggregator::new(
            cfg(SchemeKind::Mock, SigningMode::PerAttribute),
            Vec::new(),
            &mut rng,
        );
        let boots = sa.bootstrap((0..10).map(|i| vec![i * 10, i]).collect(), 2);
        let sqs = sa.replica(&boots, &QsOptions::default());
        assert_eq!(sqs.project(0, 50, &[1]).unwrap().rows.len(), 6);
    }
}
