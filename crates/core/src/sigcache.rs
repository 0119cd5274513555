//! SigCache: caching aggregate signatures (Section 4).
//!
//! A conceptual binary tree `T` sits over the `N` record signatures in
//! index order; node `T_{i,j}` is the aggregate of leaves
//! `[j·2^i, (j+1)·2^i)`. Only *chosen* nodes are materialized. The choice is
//! driven by the closed-form usage probabilities `ξ(T_{i,j} | q)` of
//! Section 4.1 (evaluated here in O(1) per node via prefix sums, so the
//! full analysis of a million-record tree takes milliseconds rather than
//! the naive O(N²)), the utility `u = P·(2^i - 1)`, and the greedy
//! Algorithm 1 with ancestor-savings adjustment.
//!
//! The runtime cache answers `aggregate_range` by dyadic decomposition,
//! counting every aggregation operation (the paper's ECC-addition cost
//! unit), and supports the **eager** and **lazy** refresh strategies of
//! Section 4.3 — both apply the same delta (`- old + new`), differing only
//! in *when*.
//!
//! This module is the Section 4 analysis and runtime model that `fig6`,
//! `fig10` and the `sigcache_tuning` example measure; it is not part of the
//! serving path, where [`QueryServer`](crate::qs::QueryServer) folds a
//! selection's signatures directly.

use std::collections::HashMap;

use authdb_crypto::signer::{PublicParams, Signature};

// ---------------------------------------------------------------------------
// Analysis (Section 4.1)
// ---------------------------------------------------------------------------

/// Query-cardinality distributions used in the paper's Figure 6.
pub mod distributions {
    /// Truncated harmonic: `P(q) = (1/q) / H_N` — favours short queries.
    pub fn harmonic(n: usize) -> Vec<f64> {
        let h: f64 = (1..=n).map(|q| 1.0 / q as f64).sum();
        (1..=n).map(|q| 1.0 / (q as f64 * h)).collect()
    }

    /// Uniform: `P(q) = 1/N`.
    pub fn uniform(n: usize) -> Vec<f64> {
        vec![1.0 / n as f64; n]
    }
}

/// Closed-form evaluation of node usage probabilities for a cardinality
/// distribution `P(q)`.
pub struct SigTreeAnalysis {
    n: usize,
    levels: usize,
    /// `w0[q] = Σ_{q'≤q} P(q')/(N-q'+1)` (index 0 = 0).
    w0: Vec<f64>,
    /// `w1[q] = Σ_{q'≤q} q'·P(q')/(N-q'+1)`.
    w1: Vec<f64>,
    total_cost: f64,
}

impl SigTreeAnalysis {
    /// Build for `probs[q-1] = P(q)`, `q = 1..=N`. `N` must be a power of
    /// two (the paper's simplifying assumption).
    ///
    /// # Panics
    /// Panics if `probs.len()` is not a power of two.
    pub fn new(probs: &[f64]) -> Self {
        let n = probs.len();
        assert!(n.is_power_of_two(), "N must be a power of two");
        let mut w0 = vec![0.0; n + 1];
        let mut w1 = vec![0.0; n + 1];
        let mut total_cost = 0.0;
        for q in 1..=n {
            let w = probs[q - 1] / (n - q + 1) as f64;
            w0[q] = w0[q - 1] + w;
            w1[q] = w1[q - 1] + q as f64 * w;
            total_cost += (q - 1) as f64 * probs[q - 1];
        }
        SigTreeAnalysis {
            n,
            levels: n.trailing_zeros() as usize,
            w0,
            w1,
            total_cost,
        }
    }

    /// Number of leaves.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Root level index (`log2 N`).
    pub fn root_level(&self) -> usize {
        self.levels
    }

    /// Expected per-query aggregation cost with an empty cache:
    /// `Σ (q-1)·P(q)` (line 6 of Algorithm 1).
    pub fn total_cost(&self) -> f64 {
        self.total_cost
    }

    fn w0_range(&self, a: usize, b: usize) -> f64 {
        if a > b || a > self.n {
            return 0.0;
        }
        let b = b.min(self.n);
        self.w0[b] - self.w0[a - 1]
    }

    fn w1_range(&self, a: usize, b: usize) -> f64 {
        if a > b || a > self.n {
            return 0.0;
        }
        let b = b.min(self.n);
        self.w1[b] - self.w1[a - 1]
    }

    /// `P(T_{i,j}) = Σ_q ξ(T_{i,j}|q)/(N-q+1) · P(q)` via the three ξ cases.
    pub fn p_node(&self, level: usize, j: usize) -> f64 {
        let s = 1usize << level;
        let last = self.n / s - 1;
        debug_assert!(j <= last, "node index out of range");
        let mut p = 0.0;

        // Case 2^i <= q < 2^{i+1}.
        let a = s;
        let b = (2 * s - 1).min(self.n);
        if a <= b {
            if j > 0 && j < last {
                // ξ = q - s + 1
                p += self.w1_range(a, b) - (s as f64 - 1.0) * self.w0_range(a, b);
            } else {
                // ξ = 1
                p += self.w0_range(a, b);
            }
        }

        // Case q >= 2^{i+1}.
        if 2 * s <= self.n {
            let c = if j % 2 == 1 {
                self.n - j * s
            } else {
                (j + 1) * s
            };
            // Full blocks: ξ = s for q in [2s, c].
            if c >= 2 * s {
                p += s as f64 * self.w0_range(2 * s, c);
            }
            // Partial: ξ = c + s - q for q in [max(2s, c+1), c+s-1].
            let pa = (2 * s).max(c + 1);
            let pb = c + s - 1;
            if pa <= pb {
                p += (c + s) as f64 * self.w0_range(pa, pb) - self.w1_range(pa, pb);
            }
        }
        p
    }

    /// Initial utility `u = P(T_{i,j}) · (2^i - 1)`.
    pub fn utility(&self, level: usize, j: usize) -> f64 {
        self.p_node(level, j) * ((1usize << level) as f64 - 1.0)
    }
}

/// A chosen cache node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId {
    /// Tree level (0 = leaves).
    pub level: usize,
    /// Position within the level.
    pub j: usize,
}

/// Result of Algorithm 1.
#[derive(Clone, Debug)]
pub struct CacheSelection {
    /// Chosen nodes in selection order (highest marginal benefit first).
    pub chosen: Vec<NodeId>,
    /// Expected per-query cost (aggregation ops) before any caching.
    pub base_cost: f64,
    /// Expected per-query cost after each successive addition.
    pub cost_curve: Vec<f64>,
}

/// Algorithm 1: greedily pick up to `max_nodes` aggregate signatures.
/// Candidates are evaluated in decreasing initial utility; caching a node
/// reduces its ancestors' savings (they can now be derived from it), and a
/// candidate that would *raise* the expected cost is discarded.
pub fn select_cache(analysis: &SigTreeAnalysis, max_nodes: usize) -> CacheSelection {
    let n = analysis.n();
    // Enumerate internal nodes (level >= 1; leaves have zero savings).
    let mut candidates: Vec<(f64, NodeId)> = Vec::new();
    for level in 1..=analysis.root_level() {
        let count = n >> level;
        for j in 0..count {
            let u = analysis.utility(level, j);
            if u > 0.0 {
                candidates.push((u, NodeId { level, j }));
            }
        }
    }
    candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite utilities"));

    let mut savings: HashMap<NodeId, f64> = HashMap::new();
    let saving_of = |savings: &HashMap<NodeId, f64>, id: NodeId| {
        *savings
            .get(&id)
            .unwrap_or(&(((1usize << id.level) as f64) - 1.0))
    };
    let mut cached: HashMap<NodeId, f64> = HashMap::new(); // node -> P
    let mut cached_utility = 0.0;
    let mut chosen = Vec::new();
    let mut cost_curve = Vec::new();
    let mut prev_cost = analysis.total_cost();

    for &(_, id) in &candidates {
        if chosen.len() >= max_nodes {
            break;
        }
        let s_id = saving_of(&savings, id);
        if s_id <= 0.0 {
            continue;
        }
        // Tentatively reduce ancestors' savings by s_id.
        let mut touched: Vec<(NodeId, f64)> = Vec::new();
        let mut anc = id;
        let mut delta_utility = 0.0;
        while anc.level < analysis.root_level() {
            anc = NodeId {
                level: anc.level + 1,
                j: anc.j / 2,
            };
            let old = saving_of(&savings, anc);
            touched.push((anc, old));
            let new = (old - s_id).max(0.0);
            if let Some(p_anc) = cached.get(&anc) {
                delta_utility += p_anc * (new - old);
            }
            savings.insert(anc, new);
        }
        let p_id = analysis.p_node(id.level, id.j);
        let candidate_utility = p_id * s_id;
        let curr_cost =
            analysis.total_cost() - (cached_utility + delta_utility + candidate_utility);
        if curr_cost > prev_cost {
            // Revert (Algorithm 1 lines 14-16).
            for (node, old) in touched {
                savings.insert(node, old);
            }
            continue;
        }
        cached.insert(id, p_id);
        cached_utility += delta_utility + candidate_utility;
        chosen.push(id);
        prev_cost = curr_cost;
        cost_curve.push(curr_cost);
    }
    CacheSelection {
        chosen,
        base_cost: analysis.total_cost(),
        cost_curve,
    }
}

// ---------------------------------------------------------------------------
// Runtime cache (Sections 4.2, 4.3)
// ---------------------------------------------------------------------------

/// When cached signatures are refreshed after invalidating updates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefreshStrategy {
    /// Apply the delta immediately, inside the update.
    Eager,
    /// Queue the delta; apply on the next query that needs the node.
    Lazy,
}

struct CachedNode {
    sig: Signature,
    /// Pending (old, new) leaf-signature deltas (lazy strategy).
    pending: Vec<(Signature, Signature)>,
}

/// Operation counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Aggregation operations during queries.
    pub query_ops: u64,
    /// Aggregation operations during update maintenance.
    pub update_ops: u64,
    /// Range queries that used at least one cached node.
    pub hits: u64,
    /// Range queries answered without any cached node.
    pub misses: u64,
}

/// The runtime aggregate-signature cache over `N` leaf signatures (padded
/// to a power of two; positions `>= len` are absent).
pub struct SigCache {
    pp: PublicParams,
    n: usize,
    strategy: RefreshStrategy,
    nodes: HashMap<NodeId, CachedNode>,
    stats: CacheStats,
}

impl SigCache {
    /// Build a cache holding `selection`'s nodes, computed from the current
    /// leaf signatures. `leaves[k]` is the signature of the record at index
    /// position `k`.
    pub fn build(
        pp: PublicParams,
        leaves: &[Signature],
        selection: &[NodeId],
        strategy: RefreshStrategy,
    ) -> Self {
        let n = leaves.len().next_power_of_two().max(1);
        let mut cache = SigCache {
            pp,
            n,
            strategy,
            nodes: HashMap::new(),
            stats: CacheStats::default(),
        };
        for &id in selection {
            let (lo, hi) = cache.node_range(id);
            let sig = cache.aggregate_leaves(leaves, lo, hi);
            cache.nodes.insert(
                id,
                CachedNode {
                    sig,
                    pending: Vec::new(),
                },
            );
        }
        cache.stats = CacheStats::default();
        cache
    }

    fn node_range(&self, id: NodeId) -> (usize, usize) {
        let s = 1usize << id.level;
        (id.j * s, (id.j + 1) * s - 1)
    }

    fn aggregate_leaves(&mut self, leaves: &[Signature], lo: usize, hi: usize) -> Signature {
        let mut acc = self.pp.identity();
        for sig in leaves.iter().take(hi + 1).skip(lo) {
            acc = self.pp.aggregate(&acc, sig);
            self.stats.query_ops += 1;
        }
        acc
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset counters.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Number of cached nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Approximate memory footprint: one signature per node.
    pub fn size_bytes(&self) -> usize {
        self.nodes.len() * self.pp.wire_len()
    }

    /// The aggregate signature over leaf positions `lo..=hi`, derived from
    /// cached nodes where possible and leaf signatures otherwise. Returns
    /// the signature and the number of aggregation ops it took.
    pub fn aggregate_range(
        &mut self,
        leaves: &[Signature],
        lo: usize,
        hi: usize,
    ) -> (Signature, u64) {
        let before = self.stats.query_ops;
        let mut acc = self.pp.identity();
        let mut used_cache = false;
        let root = NodeId {
            level: self.n.trailing_zeros() as usize,
            j: 0,
        };
        self.cover(
            leaves,
            root,
            lo,
            hi.min(leaves.len().saturating_sub(1)),
            &mut acc,
            &mut used_cache,
        );
        if used_cache {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        (acc, self.stats.query_ops - before)
    }

    fn cover(
        &mut self,
        leaves: &[Signature],
        node: NodeId,
        lo: usize,
        hi: usize,
        acc: &mut Signature,
        used_cache: &mut bool,
    ) {
        if lo > hi {
            return;
        }
        let (nlo, nhi) = self.node_range(node);
        if nhi < lo || nlo > hi {
            return;
        }
        if lo <= nlo && nhi <= hi {
            // Fully covered: use the cached aggregate if present.
            if self.nodes.contains_key(&node) {
                let sig = self.refresh_node(node);
                *acc = self.pp.aggregate(acc, &sig);
                self.stats.query_ops += 1;
                *used_cache = true;
                return;
            }
            if node.level == 0 {
                if nlo < leaves.len() {
                    *acc = self.pp.aggregate(acc, &leaves[nlo]);
                    self.stats.query_ops += 1;
                }
                return;
            }
        }
        if node.level == 0 {
            return;
        }
        let left = NodeId {
            level: node.level - 1,
            j: node.j * 2,
        };
        let right = NodeId {
            level: node.level - 1,
            j: node.j * 2 + 1,
        };
        self.cover(leaves, left, lo, hi, acc, used_cache);
        self.cover(leaves, right, lo, hi, acc, used_cache);
    }

    /// Bring a cached node up to date and return its signature: apply its
    /// pending deltas (lazy strategy).
    fn refresh_node(&mut self, id: NodeId) -> Signature {
        let node = self.nodes.get_mut(&id).expect("cached node");
        let pending = std::mem::take(&mut node.pending);
        let mut sig = node.sig.clone();
        let ops = pending.len() as u64 * 2;
        for (old, new) in pending {
            sig = self.pp.subtract(&sig, &old);
            sig = self.pp.aggregate(&sig, &new);
        }
        self.stats.query_ops += ops;
        let node = self.nodes.get_mut(&id).expect("cached node");
        node.sig = sig.clone();
        sig
    }

    /// Propagate a leaf-signature change at index `pos` (Section 4.3).
    /// Eager applies `- old + new` to every cached ancestor now; lazy
    /// queues the delta.
    pub fn on_update(&mut self, pos: usize, old: &Signature, new: &Signature) {
        let levels = self.n.trailing_zeros() as usize;
        for level in 1..=levels {
            let id = NodeId {
                level,
                j: pos >> level,
            };
            if let Some(node) = self.nodes.get_mut(&id) {
                match self.strategy {
                    RefreshStrategy::Eager => {
                        let mut sig = self.pp.subtract(&node.sig, old);
                        sig = self.pp.aggregate(&sig, new);
                        node.sig = sig;
                        self.stats.update_ops += 2;
                    }
                    RefreshStrategy::Lazy => {
                        node.pending.push((old.clone(), new.clone()));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use authdb_crypto::signer::{Keypair, SchemeKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // ---- analysis ----

    /// Brute-force ξ over all query ranges (ground truth).
    fn xi_brute(n: usize, level: usize, j: usize, q: usize) -> usize {
        // A query of cardinality q covers positions [a, a+q-1]; it uses
        // T_{level,j} iff the node's range is one of the blocks of the
        // canonical dyadic decomposition of the query range.
        let s = 1usize << level;
        let (nlo, nhi) = (j * s, (j + 1) * s - 1);
        let mut count = 0;
        for a in 0..=(n - q) {
            let b = a + q - 1;
            // Node fully inside query...
            if a <= nlo && nhi <= b {
                // ...and its parent is NOT fully inside (else the parent's
                // block would be used instead).
                let ps = s * 2;
                let pj = j / 2;
                let (plo, phi) = (pj * ps, (pj + 1) * ps - 1);
                let parent_inside = level < n.trailing_zeros() as usize && a <= plo && phi <= b;
                if !parent_inside {
                    count += 1;
                }
            }
        }
        count
    }

    #[test]
    fn xi_closed_forms_match_paper_examples() {
        // The running example: N = 16, q = 7 (Section 4.1).
        let n = 16;
        let q = 7;
        // T20 and T23: 1 query each; T21, T22: 4 queries.
        assert_eq!(xi_brute(n, 2, 0, q), 1);
        assert_eq!(xi_brute(n, 2, 3, q), 1);
        assert_eq!(xi_brute(n, 2, 1, q), 4);
        assert_eq!(xi_brute(n, 2, 2, q), 4);
        // T11, T13: 2 each; T15: 1; T17: 0.
        assert_eq!(xi_brute(n, 1, 1, q), 2);
        assert_eq!(xi_brute(n, 1, 3, q), 2);
        assert_eq!(xi_brute(n, 1, 5, q), 1);
        assert_eq!(xi_brute(n, 1, 7, q), 0);
        // Even j at level 1: T14, T16 → 2; T12 → 1; T10 → 0.
        assert_eq!(xi_brute(n, 1, 4, q), 2);
        assert_eq!(xi_brute(n, 1, 6, q), 2);
        assert_eq!(xi_brute(n, 1, 2, q), 1);
        assert_eq!(xi_brute(n, 1, 0, q), 0);
    }

    #[test]
    fn p_node_matches_brute_force() {
        let n = 64;
        for probs in [distributions::uniform(n), distributions::harmonic(n)] {
            let analysis = SigTreeAnalysis::new(&probs);
            for level in 1..=6 {
                let count = n >> level;
                for j in 0..count {
                    let closed = analysis.p_node(level, j);
                    let brute: f64 = (1..=n)
                        .map(|q| {
                            xi_brute(n, level, j, q) as f64 / (n - q + 1) as f64 * probs[q - 1]
                        })
                        .sum();
                    assert!(
                        (closed - brute).abs() < 1e-12,
                        "level {level} j {j}: closed {closed} vs brute {brute}"
                    );
                }
            }
        }
    }

    #[test]
    fn mirror_nodes_have_equal_probability() {
        let n = 256;
        let analysis = SigTreeAnalysis::new(&distributions::harmonic(n));
        for level in 1..=8 {
            let count = n >> level;
            for j in 0..count / 2 {
                let a = analysis.p_node(level, j);
                let b = analysis.p_node(level, count - 1 - j);
                assert!((a - b).abs() < 1e-12, "mirror mismatch at {level},{j}");
            }
        }
    }

    #[test]
    fn selection_picks_second_from_edge_nodes() {
        // Paper finding: "the most valuable aggregate signatures to cache
        // are the second node from the left and right edges of the
        // signature tree, starting from the third highest tree level".
        let n = 1 << 12; // 4096-leaf stand-in for the 2^20 experiment
        let analysis = SigTreeAnalysis::new(&distributions::uniform(n));
        let sel = select_cache(&analysis, 6);
        let third_highest = analysis.root_level() - 2;
        let count = n >> third_highest;
        let expected_pair = [
            NodeId {
                level: third_highest,
                j: 1,
            },
            NodeId {
                level: third_highest,
                j: count - 2,
            },
        ];
        assert!(
            expected_pair.iter().all(|e| sel.chosen.contains(e)),
            "expected {expected_pair:?} among {:?}",
            sel.chosen
        );
    }

    #[test]
    fn cost_curve_is_monotone_nonincreasing() {
        let n = 1 << 10;
        for probs in [distributions::uniform(n), distributions::harmonic(n)] {
            let analysis = SigTreeAnalysis::new(&probs);
            let sel = select_cache(&analysis, 32);
            let mut prev = sel.base_cost;
            for &c in &sel.cost_curve {
                assert!(c <= prev + 1e-9, "cost must not increase");
                prev = c;
            }
            // Meaningful reduction with a handful of nodes.
            assert!(sel.cost_curve.last().unwrap() < &(0.7 * sel.base_cost));
        }
    }

    // ---- runtime cache ----

    fn keypair() -> Keypair {
        let mut rng = StdRng::seed_from_u64(77);
        Keypair::generate(SchemeKind::Mock, &mut rng)
    }

    fn leaves(kp: &Keypair, n: usize) -> Vec<Signature> {
        (0..n)
            .map(|i| kp.sign(format!("leaf {i}").as_bytes()))
            .collect()
    }

    fn reference_aggregate(
        pp: &PublicParams,
        leaves: &[Signature],
        lo: usize,
        hi: usize,
    ) -> Signature {
        let mut acc = pp.identity();
        for sig in &leaves[lo..=hi] {
            acc = pp.aggregate(&acc, sig);
        }
        acc
    }

    #[test]
    fn aggregate_range_matches_reference() {
        let kp = keypair();
        let pp = kp.public_params();
        let ls = leaves(&kp, 64);
        let selection = [
            NodeId { level: 4, j: 1 },
            NodeId { level: 3, j: 3 },
            NodeId { level: 2, j: 9 },
        ];
        let mut cache = SigCache::build(pp.clone(), &ls, &selection, RefreshStrategy::Eager);
        for (lo, hi) in [(0, 63), (16, 31), (5, 50), (37, 42), (0, 0)] {
            let (sig, ops) = cache.aggregate_range(&ls, lo, hi);
            assert_eq!(
                sig,
                reference_aggregate(&pp, &ls, lo, hi),
                "range {lo}..{hi}"
            );
            assert!(ops >= 1);
        }
    }

    #[test]
    fn cached_nodes_reduce_ops() {
        let kp = keypair();
        let pp = kp.public_params();
        let ls = leaves(&kp, 256);
        let mut cold = SigCache::build(pp.clone(), &ls, &[], RefreshStrategy::Eager);
        let selection: Vec<NodeId> = (0..16).map(|j| NodeId { level: 4, j }).collect();
        let mut warm = SigCache::build(pp, &ls, &selection, RefreshStrategy::Eager);
        let (_, cold_ops) = cold.aggregate_range(&ls, 0, 255);
        let (_, warm_ops) = warm.aggregate_range(&ls, 0, 255);
        assert!(
            warm_ops * 4 < cold_ops,
            "warm {warm_ops} vs cold {cold_ops}"
        );
    }

    #[test]
    fn eager_update_keeps_aggregates_correct() {
        let kp = keypair();
        let pp = kp.public_params();
        let mut ls = leaves(&kp, 64);
        let selection = [NodeId { level: 5, j: 0 }, NodeId { level: 4, j: 2 }];
        let mut cache = SigCache::build(pp.clone(), &ls, &selection, RefreshStrategy::Eager);
        let old = ls[20].clone();
        let new = kp.sign(b"leaf 20 v2");
        ls[20] = new.clone();
        cache.on_update(20, &old, &new);
        assert!(cache.stats().update_ops > 0);
        let (sig, _) = cache.aggregate_range(&ls, 0, 63);
        assert_eq!(sig, reference_aggregate(&pp, &ls, 0, 63));
    }

    #[test]
    fn lazy_update_defers_work_until_query() {
        let kp = keypair();
        let pp = kp.public_params();
        let mut ls = leaves(&kp, 64);
        let selection = [NodeId { level: 5, j: 0 }];
        let mut cache = SigCache::build(pp.clone(), &ls, &selection, RefreshStrategy::Lazy);
        for round in 0..3 {
            let old = ls[10].clone();
            let new = kp.sign(format!("leaf 10 v{round}").as_bytes());
            ls[10] = new.clone();
            cache.on_update(10, &old, &new);
        }
        assert_eq!(cache.stats().update_ops, 0, "lazy defers all work");
        let (sig, ops) = cache.aggregate_range(&ls, 0, 40);
        assert_eq!(sig, reference_aggregate(&pp, &ls, 0, 40));
        assert!(ops >= 6, "deferred deltas applied at query time");
    }

    #[test]
    fn non_power_of_two_leaf_count() {
        let kp = keypair();
        let pp = kp.public_params();
        let ls = leaves(&kp, 100); // padded to 128
        let mut cache = SigCache::build(
            pp.clone(),
            &ls,
            &[NodeId { level: 5, j: 2 }],
            RefreshStrategy::Eager,
        );
        let (sig, _) = cache.aggregate_range(&ls, 90, 99);
        assert_eq!(sig, reference_aggregate(&pp, &ls, 90, 99));
        let (sig2, _) = cache.aggregate_range(&ls, 60, 95);
        assert_eq!(sig2, reference_aggregate(&pp, &ls, 60, 95));
    }
}
