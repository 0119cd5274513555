//! Every call into the system under test, and nothing else. When an entry
//! point is renamed, this is the one file of the benchmark that changes.
//!
//! Public functions used:
//!
//! * `authdb_core::shard::ShardedAggregator::{new, bootstrap, update_record,
//!   advance_clock, maybe_publish_summaries, checkpoint_shard_summaries,
//!   public_params, config, map, now, shard}` and
//!   `DataAggregator::query_range` (the traced run's reference answer);
//! * `authdb_core::shard::ShardedQueryServer::{from_bootstraps, select_range,
//!   apply, add_summary, apply_checkpoint, with_shard, stats}` and
//!   `QueryServer::{pool_stats, io_stats}`;
//! * `authdb_net::QsServer::{spawn, addr, with_server, shutdown}`,
//!   `authdb_net::QsClient::{connect, select_range, pipeline_select,
//!   bytes_received}`;
//! * `authdb_core::verify::{EpochView::genesis, Verifier::new,
//!   Verifier::verify_sharded_selection}`;
//! * `authdb_wire::{frame, decode_frame}` over `authdb_core::wire::{Request,
//!   Response}` and `authdb_core::da::UpdateMsg`;
//! * signing-message builders `Record::chain_message`, `GapProof::chain_msg`,
//!   `EmptyTableProof::message`, `UpdateSummary::message`,
//!   `SummaryCheckpoint::message`; `UpdateSummary::bitmap`,
//!   `SummaryCheckpoint::verify`, `authdb_filters::bitmap::compress`;
//! * `authdb_crypto::signer::{Keypair::generate, Keypair::sign,
//!   PublicParams::verify, PublicParams::verify_aggregate_batch}` and
//!   `authdb_crypto::bn254::{G1::hash_to_curve, G2::generator, G2Prepared,
//!   multi_miller_loop, final_exponentiation}`;
//! * `authdb_sim::cost::wire_model::sharded_selection_response`.
//!
//! Default `QsOptions` and `QsServerOptions`, no environment variables.

use std::hint::black_box;

use authdb_core::da::{DaConfig, SigningMode};
use authdb_core::freshness::{EmptyTableProof, SummaryCheckpoint};
use authdb_core::qs::{QsOptions, SelectionAnswer};
use authdb_core::record::{Record, Schema};
use authdb_core::shard::{ShardedAggregator, ShardedQueryServer, ShardedSelectionAnswer};
use authdb_core::verify::{EpochView, Verifier};
use authdb_core::wire::{Request, Response};
use authdb_crypto::bn254::{final_exponentiation, multi_miller_loop, Fp12, Fr, G2Prepared, G1, G2};
use authdb_crypto::signer::{Keypair, SchemeKind, Signature};
use authdb_filters::Bitmap;
use authdb_net::{QsClient, QsServer, QsServerOptions};
use authdb_sim::cost::wire_model;
use authdb_wire::{decode_frame, frame, DEFAULT_MAX_FRAME_LEN};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::workload::{Spec, Update, RHO};

pub use authdb_core::da::UpdateMsg;
pub use authdb_core::freshness::UpdateSummary;
pub use authdb_core::verify::VerifyError;
pub use authdb_net::NetError;

pub type Answer = ShardedSelectionAnswer;

const NUM_ATTRS: usize = 2;

fn schema() -> Schema {
    Schema::new(NUM_ATTRS, 64)
}

fn scheme(bas: bool) -> SchemeKind {
    if bas {
        SchemeKind::Bas
    } else {
        SchemeKind::Mock
    }
}

/// Monotone counters of the live server, summed over shards; the traced run
/// takes deltas around a network call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub agg_ops: u64,
    pub node_hits: u64,
    pub node_misses: u64,
    pub node_evictions: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub page_reads: u64,
    pub page_writes: u64,
}

impl Counters {
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            agg_ops: self.agg_ops - earlier.agg_ops,
            node_hits: self.node_hits - earlier.node_hits,
            node_misses: self.node_misses - earlier.node_misses,
            node_evictions: self.node_evictions - earlier.node_evictions,
            pool_hits: self.pool_hits - earlier.pool_hits,
            pool_misses: self.pool_misses - earlier.pool_misses,
            page_reads: self.page_reads - earlier.page_reads,
            page_writes: self.page_writes - earlier.page_writes,
        }
    }

    pub fn add(&mut self, d: &Counters) {
        self.agg_ops += d.agg_ops;
        self.node_hits += d.node_hits;
        self.node_misses += d.node_misses;
        self.node_evictions += d.node_evictions;
        self.pool_hits += d.pool_hits;
        self.pool_misses += d.pool_misses;
        self.page_reads += d.page_reads;
        self.page_writes += d.page_writes;
    }
}

/// The whole deployment in one process: DA, TCP query server (its event
/// loop is the only other thread), one connected client, the verifier and
/// its pinned epoch.
pub struct Sut {
    spec: Spec,
    sa: ShardedAggregator,
    server: QsServer,
    client: QsClient,
    verifier: Verifier,
    view: EpochView,
    rlc: StdRng,
}

impl Sut {
    /// What `setup_s` times: keygen, certify N records, build the query
    /// server, spawn it, connect, pin the genesis epoch.
    pub fn setup(spec: Spec, seed: u64) -> Sut {
        let cfg = DaConfig {
            schema: schema(),
            scheme: scheme(spec.bas),
            mode: SigningMode::Chained,
            rho: RHO,
            // Active renewal stays out of the picture: no run reaches it.
            rho_prime: 1 << 40,
            buffer_pages: 4096,
            fill: 2.0 / 3.0,
        };
        let mut keygen = StdRng::seed_from_u64(seed);
        let mut sa = ShardedAggregator::new(cfg, spec.splits(), &mut keygen);
        let jobs = std::thread::available_parallelism().map_or(1, |p| p.get());
        let boots = sa.bootstrap(spec.rows(), jobs);
        let pp = sa.public_params();
        let sqs = ShardedQueryServer::from_bootstraps(
            pp.clone(),
            sa.config(),
            sa.map().clone(),
            &boots,
            &QsOptions::default(),
        );
        let server = QsServer::spawn(sqs, QsServerOptions::default()).expect("bind loopback");
        let client = QsClient::connect(server.addr()).expect("connect to loopback server");
        let view = EpochView::genesis(sa.map(), &pp).expect("genesis map verifies");
        let verifier = Verifier::new(pp, sa.config().schema, sa.config().rho);
        Sut {
            spec,
            sa,
            server,
            client,
            verifier,
            view,
            rlc: StdRng::seed_from_u64(seed ^ 0x726c_635f_636f_6566),
        }
    }

    /// Stop the server's event loop and wait for it.
    pub fn shutdown(self) {
        drop(self.client);
        self.server.shutdown();
    }

    // -- the client link ------------------------------------------------

    pub fn select(&mut self, lo: i64, hi: i64) -> Result<Answer, NetError> {
        self.client.select_range(lo, hi)
    }

    pub fn pipeline(
        &mut self,
        ranges: &[(i64, i64)],
    ) -> Result<Vec<Result<Answer, NetError>>, NetError> {
        self.client.pipeline_select(ranges)
    }

    pub fn bytes_received(&self) -> u64 {
        self.client.bytes_received()
    }

    /// The unmodified stitched verifier, every check on, at the DA's clock.
    pub fn verify(&mut self, lo: i64, hi: i64, ans: &Answer) -> Result<usize, VerifyError> {
        let now = self.sa.now();
        self.verifier
            .verify_sharded_selection(lo, hi, ans, &self.view, now, true, &mut self.rlc)
            .map(|report| report.records)
    }

    // -- the DA → QS update path ----------------------------------------

    pub fn advance_clock(&mut self) {
        self.sa.advance_clock(1);
    }

    pub fn da_update(&mut self, u: &Update) -> Vec<(usize, UpdateMsg)> {
        self.sa.update_record(u.shard, u.rid, u.attrs.clone()).1
    }

    pub fn apply(&self, shard: usize, msg: &UpdateMsg) {
        self.server.with_server(|s| s.apply(shard, msg));
    }

    /// Summaries that are due, each with its shard and the re-certifications
    /// to disseminate with it.
    pub fn publish_due(&mut self) -> Vec<(usize, UpdateSummary, Vec<UpdateMsg>)> {
        self.sa.maybe_publish_summaries()
    }

    pub fn add_summary(&self, shard: usize, s: UpdateSummary) {
        self.server.with_server(|q| q.add_summary(shard, s));
    }

    pub fn da_checkpoint(&mut self, shard: usize, keep: usize) -> Option<SummaryCheckpoint> {
        self.sa.checkpoint_shard_summaries(shard, keep)
    }

    pub fn apply_checkpoint(&self, shard: usize, ckpt: SummaryCheckpoint) {
        self.server.with_server(|q| q.apply_checkpoint(shard, ckpt));
    }

    // -- what the traced run replays and reads --------------------------

    /// The same selection without the network, on the live server.
    pub fn select_in_process(&self, lo: i64, hi: i64) -> Answer {
        self.server
            .with_server(|s| s.select_range(lo, hi))
            .expect("chained mode answers selections")
    }

    /// The DA's own view of the range: the records a correct answer holds.
    pub fn da_records(&self, lo: i64, hi: i64) -> Vec<Record> {
        let mut out = Vec::new();
        for (shard, (sub_lo, sub_hi)) in self.sa.map().overlapping(lo, hi) {
            out.extend(self.sa.shard(shard).query_range(sub_lo, sub_hi));
        }
        out
    }

    pub fn counters(&self) -> Counters {
        self.server.with_server(|s| {
            let st = s.stats();
            let mut c = Counters {
                agg_ops: st.agg_ops,
                node_hits: st.node_cache_hits,
                node_misses: st.node_cache_misses,
                node_evictions: st.node_cache_evictions,
                ..Counters::default()
            };
            for shard in 0..self.spec.shards {
                let (pool, io) = s.with_shard(shard, |q| (q.pool_stats(), q.io_stats()));
                c.pool_hits += pool.hits;
                c.pool_misses += pool.misses;
                c.page_reads += io.reads;
                c.page_writes += io.writes;
            }
            c
        })
    }

    /// One signature check per signature the answer's shape requires, on
    /// the rebuilt signing messages: every attached summary, every attached
    /// checkpoint, and the one random-linear-combination fold of the parts'
    /// aggregates. Returns whether all of them held.
    pub fn replay_sig_checks(&mut self, ans: &Answer, shape: &AnswerShape) -> bool {
        let pp = self.verifier.public_params();
        let mut ok = true;
        for (msg, sig) in &shape.signed_singly {
            ok &= pp.verify(msg, sig);
        }
        let claims: Vec<(&[Vec<u8>], &Signature)> = shape
            .chain_msgs
            .iter()
            .zip(&ans.parts)
            .map(|(msgs, part)| {
                let a = &part.answer;
                let sig = match (&a.gap, &a.vacancy) {
                    (Some(g), _) => &g.signature,
                    (None, Some(v)) => &v.signature,
                    (None, None) => &a.agg,
                };
                (msgs.as_slice(), sig)
            })
            .collect();
        ok & pp.verify_aggregate_batch(&claims, &mut self.rlc)
    }

    pub fn checkpoint_verifies(&self, c: &SummaryCheckpoint) -> bool {
        c.verify(self.verifier.public_params())
    }

    /// `wire_model`'s prediction for the framed response carrying `ans`.
    pub fn predicted_response_bytes(&self, ans: &Answer) -> usize {
        let sig_len = ans.map.signature().to_bytes().len();
        let parts: Vec<wire_model::AnswerShape> = ans
            .parts
            .iter()
            .map(|p| wire_model::AnswerShape {
                records: p.answer.records.len(),
                gap: p.answer.gap.is_some(),
                vacancy: p.answer.vacancy.is_some(),
                summaries: p.answer.summaries.len(),
                summary_bitmap_bytes: p.answer.summaries.iter().map(|s| s.compressed.len()).sum(),
            })
            .collect();
        wire_model::sharded_selection_response(ans.map.splits().len(), &parts, NUM_ATTRS, sig_len)
    }
}

/// The signing messages an answer's verification hashes, rebuilt with the
/// public message builders, and the freshness payload it carries.
pub struct AnswerShape {
    /// Per part: the chained (or gap, or vacancy) messages behind its
    /// aggregate.
    pub chain_msgs: Vec<Vec<Vec<u8>>>,
    /// Summary and checkpoint messages, each with its own signature.
    pub signed_singly: Vec<(Vec<u8>, Signature)>,
    pub summaries: usize,
    pub summary_bytes: usize,
    pub checkpoint_bytes: usize,
    pub records: usize,
}

impl AnswerShape {
    pub fn of(ans: &Answer) -> AnswerShape {
        let schema = schema();
        let mut shape = AnswerShape {
            chain_msgs: Vec::new(),
            signed_singly: Vec::new(),
            summaries: 0,
            summary_bytes: 0,
            checkpoint_bytes: 0,
            records: 0,
        };
        for part in &ans.parts {
            let a: &SelectionAnswer = &part.answer;
            let msgs = if let Some(g) = &a.gap {
                vec![g.chain_msg(&schema)]
            } else if let Some(v) = &a.vacancy {
                vec![EmptyTableProof::message(v.epoch, v.shard, v.ts)]
            } else {
                let keys: Vec<i64> = a.records.iter().map(|r| r.key(&schema)).collect();
                a.records
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        let left = if i == 0 { a.left_key } else { keys[i - 1] };
                        let right = keys.get(i + 1).copied().unwrap_or(a.right_key);
                        r.chain_message(&schema, left, right)
                    })
                    .collect()
            };
            shape.chain_msgs.push(msgs);
            shape.records += a.records.len();
            for s in &a.summaries {
                let msg = UpdateSummary::message(
                    s.epoch,
                    s.shard,
                    s.seq,
                    s.period_start,
                    s.ts,
                    &s.compressed,
                );
                shape.summary_bytes += frame_len_of(&**s);
                shape.signed_singly.push((msg, s.signature.clone()));
                shape.summaries += 1;
            }
            if let Some(c) = &a.checkpoint {
                let msg = SummaryCheckpoint::message(
                    c.epoch,
                    c.shard,
                    c.through_seq,
                    c.through_ts,
                    &c.exposure,
                );
                shape.checkpoint_bytes += frame_len_of(c);
                shape.signed_singly.push((msg, c.signature.clone()));
            }
        }
        shape
    }

    /// Messages hashed to verify the answer.
    pub fn hashes(&self) -> usize {
        self.chain_msgs.iter().map(Vec::len).sum::<usize>() + self.signed_singly.len()
    }

    /// Signature checks verification performs: one per summary, one per
    /// checkpoint, one fold for all the parts' aggregates.
    pub fn sig_checks(&self) -> usize {
        self.signed_singly.len() + 1
    }
}

/// Encoded size of a wire value, without the 5-byte frame header.
fn frame_len_of<T: authdb_wire::WireEncode>(v: &T) -> usize {
    frame(v).len() - 5
}

/// Checkpoints attached to an answer, one per part at most.
pub fn checkpoints_of(ans: &Answer) -> impl Iterator<Item = &SummaryCheckpoint> {
    ans.parts
        .iter()
        .filter_map(|p| p.answer.checkpoint.as_ref())
}

/// Summaries attached to an answer, across parts.
pub fn summaries_of(ans: &Answer) -> impl Iterator<Item = &UpdateSummary> {
    ans.parts
        .iter()
        .flat_map(|p| p.answer.summaries.iter().map(|s| &**s))
}

pub fn decode_bitmap(s: &UpdateSummary) -> Bitmap {
    s.bitmap().expect("an honest summary's bitmap decodes")
}

pub fn compress_bitmap(b: &Bitmap) -> Vec<u8> {
    authdb_filters::bitmap::compress(b)
}

// -- wire framing ---------------------------------------------------------

pub fn encode_update(msg: &UpdateMsg) -> Vec<u8> {
    frame(msg)
}

pub fn decode_update(bytes: &[u8]) -> Option<UpdateMsg> {
    decode_frame(bytes, DEFAULT_MAX_FRAME_LEN).ok()
}

/// The frame a server writes for `ans`; `tag` is the pipelined request's id.
pub fn response_of(ans: Answer, tag: Option<u64>) -> Response {
    let inner = Response::Selection(ans);
    match tag {
        Some(id) => Response::Tagged {
            id,
            inner: Box::new(inner),
        },
        None => inner,
    }
}

pub fn encode_response(r: &Response) -> Vec<u8> {
    frame(r)
}

pub fn decode_response(bytes: &[u8]) -> Option<Response> {
    decode_frame(bytes, DEFAULT_MAX_FRAME_LEN).ok()
}

pub fn request_bytes(lo: i64, hi: i64, tag: Option<u64>) -> usize {
    let select = Request::Select { lo, hi };
    frame(&match tag {
        Some(id) => Request::Tagged {
            id,
            inner: Box::new(select),
        },
        None => select,
    })
    .len()
}

// -- crypto primitives ----------------------------------------------------

/// The BAS verification equation's parts, timed one by one: hash to G1, a
/// two-term Miller loop against the prepared generator and a prepared key,
/// the final exponentiation. The key is the probe's own — the loop's cost
/// does not depend on which G2 point was prepared.
pub struct PairingProbe {
    generator: G2Prepared,
    key: G2Prepared,
    signer: Keypair,
}

impl PairingProbe {
    pub fn new(bas: bool, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7061_6972);
        PairingProbe {
            generator: G2Prepared::new(&G2::generator()),
            key: G2Prepared::new(&G2::generator().mul_fr(&Fr::random(&mut rng))),
            signer: Keypair::generate(scheme(bas), &mut rng),
        }
    }

    pub fn hash_to_curve(&self, msg: &[u8]) -> G1 {
        G1::hash_to_curve(black_box(msg))
    }

    pub fn miller(&self, h: &G1) -> Fp12 {
        let p = h.to_affine();
        let q = h.neg().to_affine();
        multi_miller_loop(black_box(&[(&p, &self.generator), (&q, &self.key)]))
    }

    pub fn final_exp(&self, f: &Fp12) -> Fp12 {
        final_exponentiation(black_box(f))
    }

    /// One signature under the workload's scheme.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        self.signer.sign(black_box(msg))
    }
}
