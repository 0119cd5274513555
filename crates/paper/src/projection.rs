//! Authenticated projection `π_attrs(σ_{lo..hi}(R))` (Section 3.4).
//!
//! Per-attribute signing: the DA signs every attribute of every record
//! version on its own, over `h(rid | i | Ai | ts)`
//! ([`attribute_message`]). A projection ships only the requested
//! attributes of the matching records and one aggregate of their
//! signatures, so its VO is one signature however many attributes it
//! drops. Freshness is the selection's: the answer carries the DA's update
//! summaries since its oldest row, and the client judges every `(rid, ts)`
//! against them.
//!
//! The projection is an in-process, one-shard reproduction over the
//! serving crates' public APIs. A [`ProjectionPublisher`] keeps the
//! per-attribute signatures beside a one-shard chained
//! [`ShardedAggregator`], signs them with the DA's key, and re-signs every
//! record version the DA certifies; it answers projections from the DA's
//! own records and summary log, so there is no checkpoint and no second
//! epoch or shard for an answer to be bound to. No wire request carries a
//! projection.

use std::sync::Arc;

use authdb_core::da::{UpdateKind, UpdateMsg};
use authdb_core::freshness::{DecodedSummaries, Freshness, UpdateSummary};
use authdb_core::record::{Schema, Tick};
use authdb_core::shard::ShardedAggregator;
use authdb_core::verify::VerifyError;
use authdb_crypto::signer::{PublicParams, Signature};

/// The per-attribute signing message `h(rid | i | Ai | ts)` of attribute
/// `attr_idx` of a record version holding `value` there.
pub fn attribute_message(rid: u64, attr_idx: usize, value: i64, ts: Tick) -> Vec<u8> {
    let mut msg = Vec::with_capacity(40);
    msg.extend_from_slice(b"attr:");
    msg.extend_from_slice(&rid.to_be_bytes());
    msg.extend_from_slice(&(attr_idx as u32).to_be_bytes());
    msg.extend_from_slice(&value.to_be_bytes());
    msg.extend_from_slice(&ts.to_be_bytes());
    msg
}

/// One projected row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProjectedRow {
    /// Record identifier.
    pub rid: u64,
    /// Certification timestamp.
    pub ts: Tick,
    /// `(attribute index, value)` pairs for the projected attributes.
    pub values: Vec<(usize, i64)>,
}

/// An authenticated projection answer: one aggregate signature regardless
/// of how many attributes were dropped.
#[derive(Clone, Debug, PartialEq)]
pub struct ProjectionAnswer {
    /// Projected rows.
    pub rows: Vec<ProjectedRow>,
    /// Aggregate over the projected attributes' signatures.
    pub agg: Signature,
    /// Certified summaries published since the oldest projected row (the
    /// latest one always included), for the client's freshness check.
    pub summaries: Vec<Arc<UpdateSummary>>,
}

impl ProjectionAnswer {
    /// VO wire size: exactly one aggregate signature.
    pub fn vo_size(&self, pp: &PublicParams) -> usize {
        pp.wire_len()
    }
}

/// The per-attribute signer and the projection's server: a one-shard
/// aggregator plus every live record version's attribute signatures.
/// Route the relation's updates and summary publications through it, so
/// that each version the DA certifies gets its attribute signatures too.
pub struct ProjectionPublisher {
    /// The relation's one-shard aggregator: its records, clock and summaries.
    pub sa: ShardedAggregator,
    /// Attribute signatures by rid, empty for a deleted rid.
    sigs: Vec<Vec<Signature>>,
}

impl ProjectionPublisher {
    /// Sign every live record of a bootstrapped aggregator.
    ///
    /// # Panics
    /// Panics unless `sa` is a one-shard deployment.
    pub fn new(sa: ShardedAggregator) -> Self {
        assert_eq!(sa.map().shard_count(), 1, "projections are one-shard");
        let mut publisher = ProjectionPublisher {
            sa,
            sigs: Vec::new(),
        };
        for rid in 0..publisher.sa.shard(0).record_slots() {
            publisher.sign(rid);
        }
        publisher
    }

    /// (Re-)sign the current version of `rid`, or forget a deleted one.
    fn sign(&mut self, rid: u64) {
        let slot = rid as usize;
        if self.sigs.len() <= slot {
            self.sigs.resize(slot + 1, Vec::new());
        }
        self.sigs[slot] = match self.sa.shard(0).record(rid) {
            Some(rec) => (rec.attrs.iter().enumerate())
                .map(|(i, &a)| self.sa.sign_raw(&attribute_message(rid, i, a, rec.ts)))
                .collect(),
            None => Vec::new(),
        };
    }

    /// Re-sign every record version `msgs` certify.
    fn absorb<'m>(&mut self, msgs: impl IntoIterator<Item = &'m UpdateMsg>) {
        for m in msgs {
            match m.kind {
                UpdateKind::Delete => self.sigs[m.record.rid as usize].clear(),
                _ => self.sign(m.record.rid),
            }
        }
    }

    /// Insert a record.
    pub fn insert(&mut self, attrs: Vec<i64>) {
        let (_, msgs) = self.sa.insert(attrs);
        self.absorb(&msgs);
    }

    /// Give record `rid` new attribute values.
    pub fn update_record(&mut self, rid: u64, attrs: Vec<i64>) {
        let (_, msgs) = self.sa.update_record(0, rid, attrs);
        self.absorb(msgs.iter().map(|(_, m)| m));
    }

    /// Delete record `rid`.
    pub fn delete_record(&mut self, rid: u64) {
        let msgs = self.sa.delete_record(0, rid);
        self.absorb(msgs.iter().map(|(_, m)| m));
    }

    /// Publish the period summary if one is due, with its re-certifications.
    pub fn publish(&mut self) {
        for (_, _, recerts) in self.sa.maybe_publish_summaries() {
            self.absorb(&recerts);
        }
    }

    /// Answer `π_attrs(σ_{lo..hi}(R))`, or `None` when `attrs` names an
    /// attribute past the schema.
    pub fn project(&self, lo: i64, hi: i64, attrs: &[usize]) -> Option<ProjectionAnswer> {
        let pp = self.sa.public_params();
        let mut agg = pp.identity();
        let mut rows = Vec::new();
        for rec in self.sa.shard(0).query_range(lo, hi) {
            let mut values = Vec::with_capacity(attrs.len());
            for &i in attrs {
                values.push((i, *rec.attrs.get(i)?));
                agg = pp.aggregate(&agg, &self.sigs[rec.rid as usize][i]);
            }
            rows.push(ProjectedRow {
                rid: rec.rid,
                ts: rec.ts,
                values,
            });
        }
        let oldest = rows.iter().map(|r| r.ts).min().unwrap_or(0);
        let log = self.sa.shard(0).summary_log();
        let mut summaries: Vec<_> = log.iter().filter(|s| s.ts >= oldest).cloned().collect();
        if summaries.is_empty() {
            summaries.extend(log.last().cloned());
        }
        Some(ProjectionAnswer {
            rows,
            agg,
            summaries,
        })
    }
}

/// Verify a projection answer at local time `now`: every `(rid, attr,
/// value, ts)` quadruple must match the single aggregate, which also pins
/// each value to its record and attribute position, and every row's
/// version must be current by the attached summaries (publication period
/// `rho`).
///
/// Rejections, in order: an attribute index past `schema`
/// ([`VerifyError::MalformedRecord`]), a summary signature
/// ([`VerifyError::BadSummarySignature`]), the aggregate
/// ([`VerifyError::BadAggregate`]), then a row a summary exposes
/// ([`VerifyError::Stale`]) or the summaries cannot judge
/// ([`VerifyError::FreshnessIndeterminate`]).
pub fn verify_projection(
    pp: &PublicParams,
    schema: &Schema,
    rho: Tick,
    ans: &ProjectionAnswer,
    now: Tick,
) -> Result<(), VerifyError> {
    let mut messages = Vec::new();
    for row in &ans.rows {
        for &(idx, value) in &row.values {
            if idx >= schema.num_attrs {
                return Err(VerifyError::MalformedRecord { rid: row.rid });
            }
            messages.push(attribute_message(row.rid, idx, value, row.ts));
        }
    }
    if let Some(s) = ans.summaries.iter().find(|s| !s.verify(pp)) {
        return Err(VerifyError::BadSummarySignature { seq: s.seq });
    }
    let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
    if !pp.verify_aggregate(&refs, &ans.agg) {
        return Err(VerifyError::BadAggregate);
    }
    let decoded = DecodedSummaries::new(&ans.summaries);
    for row in &ans.rows {
        match decoded.check_freshness(row.rid, row.ts, rho, now, 0) {
            Freshness::FreshWithin(_) => {}
            Freshness::Stale { exposed_by } => {
                return Err(VerifyError::Stale {
                    rid: row.rid,
                    exposed_by,
                })
            }
            Freshness::Indeterminate => {
                return Err(VerifyError::FreshnessIndeterminate { rid: row.rid })
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use authdb_core::da::DaConfig;
    use authdb_crypto::signer::SchemeKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// 40 records `[i·10, i]` in one shard under `scheme`, the DA keyed
    /// from seed 1337.
    fn publisher(scheme: SchemeKind) -> ProjectionPublisher {
        let cfg = DaConfig {
            scheme,
            ..DaConfig::small()
        };
        let mut sa = ShardedAggregator::new(cfg, vec![], &mut StdRng::seed_from_u64(1337));
        sa.bootstrap((0..40).map(|i| vec![i * 10, i]).collect(), 2);
        ProjectionPublisher::new(sa)
    }

    fn verify(p: &ProjectionPublisher, ans: &ProjectionAnswer) -> Result<(), VerifyError> {
        let cfg = p.sa.config();
        let pp = p.sa.public_params();
        verify_projection(&pp, &cfg.schema, cfg.rho, ans, p.sa.now())
    }

    /// Summaries at t=12; at t=14 rid 23 takes `[230, 777]`; summaries at
    /// t=24 and t=34.
    fn run_timeline(p: &mut ProjectionPublisher) {
        p.sa.advance_clock(12);
        p.publish();
        p.sa.advance_clock(2);
        p.update_record(23, vec![230, 777]);
        for _ in 0..2 {
            p.sa.advance_clock(10);
            p.publish();
        }
    }

    #[test]
    fn attribute_messages_distinct_per_position() {
        // Same value in two positions must produce different messages
        // (prevents attribute swapping).
        assert_ne!(attribute_message(1, 0, 9, 5), attribute_message(1, 1, 9, 5));
    }

    #[test]
    fn per_attribute_signer_signs_every_attribute() {
        let p = publisher(SchemeKind::Mock);
        let pp = p.sa.public_params();
        for rid in 0..40 {
            let rec = p.sa.shard(0).record(rid).unwrap();
            assert_eq!(p.sigs[rid as usize].len(), 2);
            for (i, s) in p.sigs[rid as usize].iter().enumerate() {
                assert!(pp.verify(&attribute_message(rid, i, rec.attrs[i], rec.ts), s));
            }
        }
    }

    #[test]
    fn projection_carries_one_signature() {
        let p = publisher(SchemeKind::Mock);
        let pp = p.sa.public_params();
        let ans = p.project(0, 100, &[1]).unwrap();
        assert_eq!(ans.rows.len(), 11);
        assert!(ans.rows.iter().all(|r| r.values.len() == 1));
        assert_eq!(ans.vo_size(&pp), pp.wire_len());
        assert_eq!(verify(&p, &ans), Ok(()));
    }

    #[test]
    fn projection_rejects_swapped_values() {
        let p = publisher(SchemeKind::Mock);
        let mut ans = p.project(0, 200, &[0, 1]).unwrap();
        assert_eq!(verify(&p, &ans), Ok(()));
        // Messages bind rid and attribute position.
        let tmp = ans.rows[0].values[1];
        ans.rows[0].values[1] = ans.rows[1].values[1];
        ans.rows[1].values[1] = tmp;
        assert_eq!(verify(&p, &ans), Err(VerifyError::BadAggregate));
    }

    /// An attribute index past the schema is a refusal on the server and a
    /// typed error, not an index panic, in the verifier.
    #[test]
    fn out_of_schema_attribute_is_refused_and_rejected() {
        let p = publisher(SchemeKind::Mock);
        assert!(p.project(0, 50, &[2]).is_none());
        let mut ans = p.project(0, 50, &[1]).unwrap();
        ans.rows[2].values[0].0 = usize::MAX;
        let rid = ans.rows[2].rid;
        assert_eq!(verify(&p, &ans), Err(VerifyError::MalformedRecord { rid }));
    }

    /// The catalog's flipped projected value, under both schemes: the
    /// aggregate no longer covers it, while the honest answer verifies.
    #[test]
    fn forged_projection_value_is_a_bad_aggregate() {
        for scheme in [SchemeKind::Mock, SchemeKind::Bas] {
            let mut p = publisher(scheme);
            run_timeline(&mut p);
            let honest = p.project(100, 300, &[0, 1]).unwrap();
            assert_eq!(verify(&p, &honest), Ok(()), "{scheme:?}");
            let mut forged = honest;
            forged.rows[0].values[0].1 ^= 1;
            assert_eq!(
                verify(&p, &forged),
                Err(VerifyError::BadAggregate),
                "{scheme:?}"
            );
        }
    }

    /// The catalog's stale replay, under both schemes: the pre-update
    /// projection served with the current summaries is exposed by the
    /// summary marking rid 23.
    #[test]
    fn replayed_projection_is_stale() {
        for scheme in [SchemeKind::Mock, SchemeKind::Bas] {
            let mut p = publisher(scheme);
            let captured = p.project(100, 300, &[0, 1]).unwrap();
            run_timeline(&mut p);
            let honest = p.project(100, 300, &[0, 1]).unwrap();
            assert_eq!(verify(&p, &honest), Ok(()), "{scheme:?}");
            let replay = ProjectionAnswer {
                summaries: honest.summaries,
                ..captured
            };
            assert!(
                matches!(verify(&p, &replay), Err(VerifyError::Stale { rid: 23, .. })),
                "{scheme:?}"
            );
        }
    }

    #[test]
    fn tampered_summary_is_named() {
        let mut p = publisher(SchemeKind::Mock);
        run_timeline(&mut p);
        let mut ans = p.project(100, 300, &[1]).unwrap();
        let s = Arc::make_mut(ans.summaries.last_mut().unwrap());
        s.compressed.truncate(s.compressed.len() / 2);
        let seq = s.seq;
        assert_eq!(
            verify(&p, &ans),
            Err(VerifyError::BadSummarySignature { seq })
        );
    }
}
