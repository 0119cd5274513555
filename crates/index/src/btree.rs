//! Disk-based B+-tree with per-node annotations.
//!
//! One engine backs two flavours of index (Section 3.2):
//!
//! * the engines' **plain index** — leaf entries `⟨key, rid⟩` with no
//!   payload, plain internal nodes (annotation length 0). Figure 2 puts the
//!   signature `sn` in the leaf; the engines keep it decoded by rid instead,
//!   so a query never decompresses a G1 point;
//! * the **EMB− tree** — leaf entries carrying tuple digests and internal
//!   entries each carrying the child's digest, maintained bottom-up by an
//!   [`Annotator`].
//!
//! Layout: 4-KB pages, leaf entry = 8-byte key + 8-byte rid + fixed payload,
//! internal entry = 16-byte composite separator `(key, rid)` + 4-byte child
//! id + fixed annotation. Composite separators make descent exact even with
//! duplicate keys spanning leaves, so point operations never walk siblings.
//! Separators satisfy `sep_i ≤ min(subtree_i)` with child 0 as catch-all, so
//! neither deletions nor splits ever rewrite separators upward. Deletion
//! unlinks empty nodes but performs no rebalancing (the classic
//! lazy-deletion trade-off, cf. PostgreSQL nbtree).
//!
//! # Caching architecture
//!
//! Raw page bytes live in the shared [`BufferPool`]; decoding a page into a
//! [`Node`] (one `Vec` per entry payload) dominates query cost, so every
//! tree additionally keeps a **decoded-node cache**: an LRU map from
//! [`PageId`] to immutable `Arc<Node>`. Reads (`descend`, range scans, VO
//! construction) hit the cache first and share the same decoded node across
//! queries; only a miss touches the buffer pool and pays the decode.
//!
//! **Coherence.** Every mutation funnels through `write_node`, which
//! re-encodes the page *and* evicts its cache entry, so the next read
//! re-decodes fresh bytes. There is no other write path. Concurrent use is
//! safe because callers follow the workspace-wide discipline: writers take
//! a tree exclusively (`&mut self` methods; the sharded server orders them
//! through the shard's `RwLock`), while concurrent readers only ever run
//! against a tree no writer holds — a reader can observe the cache, but
//! never mid-mutation state, and invalidation happens-before any subsequent
//! reader lock acquisition. Snapshot readers therefore cannot see a stale
//! node: the `Arc` they hold is immutable, and the page-id slot is
//! invalidated before the writer releases the tree. Hit/miss/eviction
//! counters are exposed via [`BTree::cache_stats`] and surfaced per shard
//! through `QsStats`.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

use authdb_storage::lru::{LruList, Slot};
use authdb_storage::{BufferPool, PageId, PAGE_SIZE};

/// Default decoded-node cache capacity (nodes, not bytes). At the paper's
/// 4-KB pages a decoded node is a few KB, so this bounds the cache at a few
/// MB per tree while comfortably holding the whole hot path of a
/// 100k-entry index.
pub const DEFAULT_NODE_CACHE: usize = 1024;

/// Sentinel for "no page".
pub const NO_PAGE: PageId = PageId::MAX;

const HEADER_LEN: usize = 16;
const TAG_LEAF: u8 = 0;
const TAG_INTERNAL: u8 = 1;
const LEAF_FIXED: usize = 16; // key + rid
const INTERNAL_FIXED: usize = 20; // sep key + sep rid + child

/// Fixed sizes of the variable parts of entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeConfig {
    /// Bytes of payload per leaf entry (tuple digest; 0 = plain index).
    pub payload_len: usize,
    /// Bytes of annotation per internal entry (0 = plain B+-tree).
    pub ann_len: usize,
}

impl TreeConfig {
    /// Max leaf entries per page.
    pub fn leaf_cap(&self) -> usize {
        (PAGE_SIZE - HEADER_LEN) / (LEAF_FIXED + self.payload_len)
    }

    /// Max internal entries (children) per page.
    pub fn internal_cap(&self) -> usize {
        (PAGE_SIZE - HEADER_LEN) / (INTERNAL_FIXED + self.ann_len)
    }
}

/// Maintains node annotations (digests) as the tree changes.
pub trait Annotator: Send + Sync {
    /// Annotation of a leaf node from its entries (written into `out`,
    /// `ann_len` bytes). Not called when `ann_len == 0`.
    fn leaf_ann(&self, entries: &[LeafEntry], out: &mut [u8]);
    /// Annotation of an internal node from its children's annotations.
    fn node_ann(&self, child_anns: &[&[u8]], out: &mut [u8]);
}

/// Annotator for plain trees (`ann_len == 0`).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoAnnotation;

impl Annotator for NoAnnotation {
    fn leaf_ann(&self, _entries: &[LeafEntry], _out: &mut [u8]) {}
    fn node_ann(&self, _child_anns: &[&[u8]], _out: &mut [u8]) {}
}

/// A leaf entry `⟨key, rid, payload⟩`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeafEntry {
    /// Search key (the indexed attribute).
    pub key: i64,
    /// Record identifier in the heap file.
    pub rid: u64,
    /// Tuple digest (EMB−); empty in the engines' plain `⟨key, rid⟩` index.
    pub payload: Vec<u8>,
}

/// An internal entry `⟨separator, child, annotation⟩`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InternalEntry {
    /// Separator key: lower bound of the child's `(key, rid)` space.
    pub key: i64,
    /// Separator rid component.
    pub rid: u64,
    /// Child page.
    pub child: PageId,
    /// Child annotation (digest) when `ann_len > 0`.
    pub ann: Vec<u8>,
}

/// One borrowed entry surfaced by [`BTree::for_each_in_range`].
#[derive(Clone, Copy, Debug)]
pub enum RangeEvent<'a> {
    /// Greatest entry with `key < lo` (emitted first, at most once).
    LeftBoundary(&'a LeafEntry),
    /// An entry with `lo <= key <= hi`, in key order.
    Match(&'a LeafEntry),
    /// Smallest entry with `key > hi` (emitted last, at most once).
    RightBoundary(&'a LeafEntry),
}

/// Result of a range scan.
#[derive(Clone, Debug, Default)]
pub struct RangeScan {
    /// Entries with `lo <= key <= hi`, in key order.
    pub matches: Vec<LeafEntry>,
    /// Greatest entry with `key < lo` (completeness left boundary).
    pub left_boundary: Option<LeafEntry>,
    /// Smallest entry with `key > hi` (completeness right boundary).
    pub right_boundary: Option<LeafEntry>,
}

/// A disk-based B+-tree.
pub struct BTree<A: Annotator> {
    pool: BufferPool,
    config: TreeConfig,
    annotator: A,
    cache: NodeCache,
    root: PageId,
    height: usize, // 1 = root is a leaf
    len: u64,
}

// ---------------------------------------------------------------------------
// In-memory node codec
// ---------------------------------------------------------------------------

#[derive(Clone)]
pub(crate) struct Node {
    pub(crate) tag: u8,
    pub(crate) prev: PageId,
    pub(crate) next: PageId,
    pub(crate) leaf: Vec<LeafEntry>,
    pub(crate) internal: Vec<InternalEntry>,
}

impl Node {
    /// True iff this is a leaf node.
    pub(crate) fn is_leaf(&self) -> bool {
        self.tag == TAG_LEAF
    }

    fn new_leaf() -> Self {
        Node {
            tag: TAG_LEAF,
            prev: NO_PAGE,
            next: NO_PAGE,
            leaf: Vec::new(),
            internal: Vec::new(),
        }
    }

    fn new_internal() -> Self {
        Node {
            tag: TAG_INTERNAL,
            prev: NO_PAGE,
            next: NO_PAGE,
            leaf: Vec::new(),
            internal: Vec::new(),
        }
    }

    fn decode(buf: &[u8; PAGE_SIZE], config: &TreeConfig) -> Self {
        let tag = buf[0];
        let count = u16::from_le_bytes([buf[2], buf[3]]) as usize;
        let prev = PageId::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
        let next = PageId::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
        let mut node = if tag == TAG_LEAF {
            Node::new_leaf()
        } else {
            Node::new_internal()
        };
        node.prev = prev;
        node.next = next;
        let mut off = HEADER_LEN;
        if tag == TAG_LEAF {
            let step = LEAF_FIXED + config.payload_len;
            node.leaf.reserve(count);
            for _ in 0..count {
                let key = i64::from_le_bytes(buf[off..off + 8].try_into().expect("8"));
                let rid = u64::from_le_bytes(buf[off + 8..off + 16].try_into().expect("8"));
                let payload = buf[off + 16..off + step].to_vec();
                node.leaf.push(LeafEntry { key, rid, payload });
                off += step;
            }
        } else {
            let step = INTERNAL_FIXED + config.ann_len;
            node.internal.reserve(count);
            for _ in 0..count {
                let key = i64::from_le_bytes(buf[off..off + 8].try_into().expect("8"));
                let rid = u64::from_le_bytes(buf[off + 8..off + 16].try_into().expect("8"));
                let child = PageId::from_le_bytes(buf[off + 16..off + 20].try_into().expect("4"));
                let ann = buf[off + 20..off + step].to_vec();
                node.internal.push(InternalEntry {
                    key,
                    rid,
                    child,
                    ann,
                });
                off += step;
            }
        }
        node
    }

    fn encode(&self, buf: &mut [u8; PAGE_SIZE], config: &TreeConfig) {
        buf.fill(0);
        buf[0] = self.tag;
        let count = if self.tag == TAG_LEAF {
            self.leaf.len()
        } else {
            self.internal.len()
        };
        buf[2..4].copy_from_slice(&(count as u16).to_le_bytes());
        buf[4..8].copy_from_slice(&self.prev.to_le_bytes());
        buf[8..12].copy_from_slice(&self.next.to_le_bytes());
        let mut off = HEADER_LEN;
        if self.tag == TAG_LEAF {
            for e in &self.leaf {
                debug_assert_eq!(e.payload.len(), config.payload_len);
                buf[off..off + 8].copy_from_slice(&e.key.to_le_bytes());
                buf[off + 8..off + 16].copy_from_slice(&e.rid.to_le_bytes());
                buf[off + 16..off + 16 + config.payload_len].copy_from_slice(&e.payload);
                off += LEAF_FIXED + config.payload_len;
            }
        } else {
            for e in &self.internal {
                debug_assert_eq!(e.ann.len(), config.ann_len);
                buf[off..off + 8].copy_from_slice(&e.key.to_le_bytes());
                buf[off + 8..off + 16].copy_from_slice(&e.rid.to_le_bytes());
                buf[off + 16..off + 20].copy_from_slice(&e.child.to_le_bytes());
                buf[off + 20..off + 20 + config.ann_len].copy_from_slice(&e.ann);
                off += INTERNAL_FIXED + config.ann_len;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Decoded-node cache
// ---------------------------------------------------------------------------

/// Decoded-node cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeCacheStats {
    /// Reads served from a decoded `Arc<Node>` (no page access, no decode).
    pub hits: u64,
    /// Reads that had to decode page bytes.
    pub misses: u64,
    /// Decoded nodes dropped to stay within capacity.
    pub evictions: u64,
}

struct CacheInner {
    map: HashMap<PageId, (Arc<Node>, Slot)>,
    lru: LruList<PageId>,
    stats: NodeCacheStats,
}

/// LRU cache of immutable decoded nodes, layered over the buffer pool.
///
/// Interior-mutable (`Mutex`) because reads are `&self`; the lock is held
/// only around map/list bookkeeping plus — on a miss — the decode itself,
/// never across tree mutation.
struct NodeCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

impl NodeCache {
    fn new(capacity: usize) -> Self {
        NodeCache {
            capacity,
            inner: Mutex::new(CacheInner {
                map: HashMap::with_capacity(capacity.min(4096)),
                lru: LruList::new(),
                stats: NodeCacheStats::default(),
            }),
        }
    }

    /// Cached read: returns the shared decoded node, calling `decode` only
    /// on a miss. With capacity 0 the cache is disabled and every read
    /// decodes (still counted as a miss, so the counters stay meaningful).
    fn get_or_insert(&self, id: PageId, decode: impl FnOnce() -> Node) -> Arc<Node> {
        if self.capacity == 0 {
            self.inner.lock().stats.misses += 1;
            return Arc::new(decode());
        }
        let mut inner = self.inner.lock();
        if let Some((node, slot)) = inner.map.get(&id) {
            let node = Arc::clone(node);
            let slot = *slot;
            inner.lru.touch(slot);
            inner.stats.hits += 1;
            return node;
        }
        inner.stats.misses += 1;
        while inner.map.len() >= self.capacity {
            let victim = inner.lru.pop_back().expect("list tracks every entry");
            inner.map.remove(&victim);
            inner.stats.evictions += 1;
        }
        let node = Arc::new(decode());
        let slot = inner.lru.push_front(id);
        inner.map.insert(id, (Arc::clone(&node), slot));
        node
    }

    /// Non-admitting lookup for write paths: no stats, no LRU touch.
    fn peek(&self, id: PageId) -> Option<Arc<Node>> {
        let inner = self.inner.lock();
        inner.map.get(&id).map(|(node, _)| Arc::clone(node))
    }

    /// Drop the cached copy of `id` (the page was just rewritten).
    fn invalidate(&self, id: PageId) {
        let mut inner = self.inner.lock();
        if let Some((_, slot)) = inner.map.remove(&id) {
            inner.lru.remove(slot);
        }
    }

    fn stats(&self) -> NodeCacheStats {
        self.inner.lock().stats
    }

    fn reset_stats(&self) {
        self.inner.lock().stats = NodeCacheStats::default();
    }
}

// ---------------------------------------------------------------------------
// Tree implementation
// ---------------------------------------------------------------------------

impl<A: Annotator> BTree<A> {
    /// Create an empty tree with the default decoded-node cache
    /// ([`DEFAULT_NODE_CACHE`] nodes).
    ///
    /// # Panics
    /// Panics if the configuration cannot fit at least two entries per node.
    pub fn new(pool: BufferPool, config: TreeConfig, annotator: A) -> Self {
        Self::with_node_cache(pool, config, annotator, DEFAULT_NODE_CACHE)
    }

    /// Create an empty tree caching at most `cache_nodes` decoded nodes
    /// (`0` disables the cache — every read decodes page bytes).
    ///
    /// # Panics
    /// Panics if the configuration cannot fit at least two entries per node.
    pub fn with_node_cache(
        pool: BufferPool,
        config: TreeConfig,
        annotator: A,
        cache_nodes: usize,
    ) -> Self {
        assert!(config.leaf_cap() >= 2, "page too small for leaf entries");
        assert!(config.internal_cap() >= 2, "page too small for children");
        let root = pool.allocate();
        let tree = BTree {
            pool,
            config,
            annotator,
            cache: NodeCache::new(cache_nodes),
            root,
            height: 1,
            len: 0,
        };
        tree.write_node(root, &Node::new_leaf());
        tree
    }

    /// The tree's layout configuration.
    pub fn config(&self) -> &TreeConfig {
        &self.config
    }

    /// The buffer pool handle.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Root page id.
    pub fn root_id(&self) -> PageId {
        self.root
    }

    /// Number of levels (1 = the root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True iff the tree has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Decoded-node cache counters.
    pub fn cache_stats(&self) -> NodeCacheStats {
        self.cache.stats()
    }

    /// Reset the decoded-node cache counters (the cached nodes stay).
    pub fn reset_cache_stats(&self) {
        self.cache.reset_stats();
    }

    /// Pre-decode the whole tree into the decoded-node cache: a breadth-
    /// first walk from the root, leaves last so that when the tree exceeds
    /// the cache capacity it is interior levels — re-decoded cheapest —
    /// that get evicted. Reads go through the normal cached path, so the
    /// pass is idempotent and a no-op for already-cached nodes.
    pub fn warm_node_cache(&self) {
        let mut level = vec![self.root];
        for _ in 1..self.height {
            let mut next = Vec::new();
            for &id in &level {
                let node = self.read(id);
                next.extend(node.internal.iter().map(|e| e.child));
            }
            level = next;
        }
        for &id in &level {
            let _ = self.read(id);
        }
    }

    /// The root annotation (the EMB− root digest); empty when `ann_len == 0`.
    pub fn root_ann(&self) -> Vec<u8> {
        if self.config.ann_len == 0 {
            return Vec::new();
        }
        let node = self.read(self.root);
        let mut out = vec![0u8; self.config.ann_len];
        match node.tag {
            TAG_LEAF => self.annotator.leaf_ann(&node.leaf, &mut out),
            _ => {
                let anns: Vec<&[u8]> = node.internal.iter().map(|e| e.ann.as_slice()).collect();
                self.annotator.node_ann(&anns, &mut out);
            }
        }
        out
    }

    /// Cached read: shared immutable decoded node.
    pub(crate) fn read(&self, id: PageId) -> Arc<Node> {
        self.cache.get_or_insert(id, || {
            self.pool
                .with_page(id, |buf| Node::decode(buf, &self.config))
        })
    }

    /// Write-path read: an owned node the caller will mutate. Reuses a
    /// cached decode when present but never admits a new entry — the caller
    /// is about to rewrite (and thereby invalidate) this page anyway.
    fn read_owned(&self, id: PageId) -> Node {
        if let Some(node) = self.cache.peek(id) {
            return (*node).clone();
        }
        self.pool
            .with_page(id, |buf| Node::decode(buf, &self.config))
    }

    fn write_node(&self, id: PageId, node: &Node) {
        self.pool
            .with_page_mut(id, |buf| node.encode(buf, &self.config));
        self.cache.invalidate(id);
    }

    /// Route within an internal node: child whose `(key, rid)` space covers
    /// the probe, with child 0 as catch-all.
    fn route(entries: &[InternalEntry], key: i64, rid: u64) -> usize {
        entries
            .partition_point(|e| (e.key, e.rid) <= (key, rid))
            .saturating_sub(1)
    }

    /// Descend to the leaf that covers `(key, rid)`, recording
    /// `(page, child_idx)` for every internal node on the path.
    fn descend(&self, key: i64, rid: u64) -> (PageId, Vec<(PageId, usize)>) {
        let mut path = Vec::with_capacity(self.height);
        let mut current = self.root;
        loop {
            let node = self.read(current);
            if node.tag == TAG_LEAF {
                return (current, path);
            }
            let idx = Self::route(&node.internal, key, rid);
            path.push((current, idx));
            current = node.internal[idx].child;
        }
    }

    fn compute_leaf_ann(&self, node: &Node) -> Vec<u8> {
        let mut out = vec![0u8; self.config.ann_len];
        if self.config.ann_len > 0 {
            self.annotator.leaf_ann(&node.leaf, &mut out);
        }
        out
    }

    fn compute_internal_ann(&self, node: &Node) -> Vec<u8> {
        let mut out = vec![0u8; self.config.ann_len];
        if self.config.ann_len > 0 {
            let anns: Vec<&[u8]> = node.internal.iter().map(|e| e.ann.as_slice()).collect();
            self.annotator.node_ann(&anns, &mut out);
        }
        out
    }

    /// Recompute annotations from a modified child upward along `path`.
    fn propagate_ann(&mut self, path: &[(PageId, usize)], mut child_ann: Vec<u8>) {
        if self.config.ann_len == 0 {
            return;
        }
        for &(page, idx) in path.iter().rev() {
            let mut node = self.read_owned(page);
            node.internal[idx].ann = child_ann;
            self.write_node(page, &node);
            child_ann = self.compute_internal_ann(&node);
        }
    }

    /// Insert an entry. Duplicate keys are allowed; entries are ordered by
    /// `(key, rid)`. Inserting an existing `(key, rid)` adds a second copy;
    /// callers that need upsert semantics use [`BTree::update_payload`].
    ///
    /// # Panics
    /// Panics if the payload length does not match the configuration.
    pub fn insert(&mut self, key: i64, rid: u64, payload: Vec<u8>) {
        assert_eq!(payload.len(), self.config.payload_len, "payload length");
        let (leaf_id, path) = self.descend(key, rid);
        let mut leaf = self.read_owned(leaf_id);
        let pos = leaf.leaf.partition_point(|e| (e.key, e.rid) < (key, rid));
        leaf.leaf.insert(pos, LeafEntry { key, rid, payload });
        self.len += 1;

        if leaf.leaf.len() <= self.config.leaf_cap() {
            self.write_node(leaf_id, &leaf);
            let ann = self.compute_leaf_ann(&leaf);
            self.propagate_ann(&path, ann);
            return;
        }

        // Split the leaf.
        let mid = leaf.leaf.len() / 2;
        let right_entries = leaf.leaf.split_off(mid);
        let right_id = self.pool.allocate();
        let mut right = Node::new_leaf();
        right.leaf = right_entries;
        right.prev = leaf_id;
        right.next = leaf.next;
        if leaf.next != NO_PAGE {
            let mut after = self.read_owned(leaf.next);
            after.prev = right_id;
            self.write_node(leaf.next, &after);
        }
        leaf.next = right_id;
        let sep = (right.leaf[0].key, right.leaf[0].rid);
        self.write_node(leaf_id, &leaf);
        self.write_node(right_id, &right);
        let left_ann = self.compute_leaf_ann(&leaf);
        let right_ann = self.compute_leaf_ann(&right);
        self.insert_into_parent(path, leaf_id, left_ann, sep, right_id, right_ann);
    }

    /// After a child split, insert the new right sibling into the parent,
    /// splitting upward as necessary.
    fn insert_into_parent(
        &mut self,
        mut path: Vec<(PageId, usize)>,
        left_id: PageId,
        left_ann: Vec<u8>,
        sep: (i64, u64),
        right_id: PageId,
        right_ann: Vec<u8>,
    ) {
        let Some((parent_id, child_idx)) = path.pop() else {
            // The split node was the root: grow a new root.
            let new_root = self.pool.allocate();
            let mut root = Node::new_internal();
            root.internal.push(InternalEntry {
                key: i64::MIN,
                rid: 0,
                child: left_id,
                ann: left_ann,
            });
            root.internal.push(InternalEntry {
                key: sep.0,
                rid: sep.1,
                child: right_id,
                ann: right_ann,
            });
            self.write_node(new_root, &root);
            self.root = new_root;
            self.height += 1;
            return;
        };

        let mut parent = self.read_owned(parent_id);
        debug_assert_eq!(parent.internal[child_idx].child, left_id);
        parent.internal[child_idx].ann = left_ann;
        parent.internal.insert(
            child_idx + 1,
            InternalEntry {
                key: sep.0,
                rid: sep.1,
                child: right_id,
                ann: right_ann,
            },
        );

        if parent.internal.len() <= self.config.internal_cap() {
            self.write_node(parent_id, &parent);
            let ann = self.compute_internal_ann(&parent);
            self.propagate_ann(&path, ann);
            return;
        }

        // Split the internal node.
        let mid = parent.internal.len() / 2;
        let right_entries = parent.internal.split_off(mid);
        let new_right_id = self.pool.allocate();
        let mut new_right = Node::new_internal();
        new_right.internal = right_entries;
        let promote = (new_right.internal[0].key, new_right.internal[0].rid);
        self.write_node(parent_id, &parent);
        self.write_node(new_right_id, &new_right);
        let pl_ann = self.compute_internal_ann(&parent);
        let pr_ann = self.compute_internal_ann(&new_right);
        self.insert_into_parent(path, parent_id, pl_ann, promote, new_right_id, pr_ann);
    }

    /// Point lookup of the entry `(key, rid)`.
    pub fn get(&self, key: i64, rid: u64) -> Option<LeafEntry> {
        let (leaf_id, _) = self.descend(key, rid);
        let node = self.read(leaf_id);
        node.leaf
            .iter()
            .find(|e| e.key == key && e.rid == rid)
            .cloned()
    }

    /// Replace the payload of entry `(key, rid)`; returns false if absent.
    pub fn update_payload(&mut self, key: i64, rid: u64, payload: Vec<u8>) -> bool {
        assert_eq!(payload.len(), self.config.payload_len, "payload length");
        let (leaf_id, path) = self.descend(key, rid);
        let mut node = self.read_owned(leaf_id);
        let Some(e) = node.leaf.iter_mut().find(|e| e.key == key && e.rid == rid) else {
            return false;
        };
        e.payload = payload;
        let ann = self.compute_leaf_ann(&node);
        self.write_node(leaf_id, &node);
        self.propagate_ann(&path, ann);
        true
    }

    /// Delete entry `(key, rid)`; returns false if absent. Empty leaves are
    /// unlinked; no rebalancing is performed.
    pub fn delete(&mut self, key: i64, rid: u64) -> bool {
        let (leaf_id, path) = self.descend(key, rid);
        let mut node = self.read_owned(leaf_id);
        let Some(pos) = node.leaf.iter().position(|e| e.key == key && e.rid == rid) else {
            return false;
        };
        node.leaf.remove(pos);
        self.len -= 1;
        if node.leaf.is_empty() && !path.is_empty() {
            self.unlink_leaf(leaf_id, &node);
            self.write_node(leaf_id, &node);
            self.remove_child_entry(path);
        } else {
            let ann = self.compute_leaf_ann(&node);
            self.write_node(leaf_id, &node);
            self.propagate_ann(&path, ann);
        }
        true
    }

    fn unlink_leaf(&mut self, _id: PageId, node: &Node) {
        if node.prev != NO_PAGE {
            let mut p = self.read_owned(node.prev);
            p.next = node.next;
            self.write_node(node.prev, &p);
        }
        if node.next != NO_PAGE {
            let mut n = self.read_owned(node.next);
            n.prev = node.prev;
            self.write_node(node.next, &n);
        }
    }

    /// Remove the internal entry at the end of `path` (pointing at a
    /// now-empty child), recursively cleaning empty internal nodes and
    /// collapsing a single-child root.
    fn remove_child_entry(&mut self, mut path: Vec<(PageId, usize)>) {
        let Some((parent_id, idx)) = path.pop() else {
            return;
        };
        let mut parent = self.read_owned(parent_id);
        parent.internal.remove(idx);
        if parent.internal.is_empty() {
            self.write_node(parent_id, &parent);
            if path.is_empty() {
                // The root lost all children: reset to a single empty leaf.
                let leaf = self.pool.allocate();
                self.write_node(leaf, &Node::new_leaf());
                self.root = leaf;
                self.height = 1;
                return;
            }
            self.remove_child_entry(path);
            return;
        }
        self.write_node(parent_id, &parent);
        let ann = self.compute_internal_ann(&parent);
        self.propagate_ann(&path, ann);
        // Collapse a single-child root to keep the height honest.
        while self.height > 1 {
            let root = self.read(self.root);
            if root.tag == TAG_INTERNAL && root.internal.len() == 1 {
                self.root = root.internal[0].child;
                self.height -= 1;
            } else {
                break;
            }
        }
    }

    /// Range scan over `lo..=hi` with completeness boundaries.
    ///
    /// Convenience wrapper over [`BTree::for_each_in_range`] that clones
    /// every entry; proof-construction hot paths use the visitor directly
    /// and borrow.
    pub fn range(&self, lo: i64, hi: i64) -> RangeScan {
        let mut out = RangeScan::default();
        self.for_each_in_range(lo, hi, |ev| match ev {
            RangeEvent::LeftBoundary(e) => out.left_boundary = Some(e.clone()),
            RangeEvent::Match(e) => out.matches.push(e.clone()),
            RangeEvent::RightBoundary(e) => out.right_boundary = Some(e.clone()),
        });
        out
    }

    /// Zero-clone range scan over `lo..=hi`: the visitor is called with
    /// borrowed entries straight out of the shared decoded nodes, in leaf
    /// order — at most one [`RangeEvent::LeftBoundary`] (the greatest entry
    /// with `key < lo`), every [`RangeEvent::Match`], then at most one
    /// [`RangeEvent::RightBoundary`] (the smallest entry with `key > hi`).
    pub fn for_each_in_range(&self, lo: i64, hi: i64, mut f: impl FnMut(RangeEvent<'_>)) {
        if lo > hi || self.is_empty() {
            return;
        }
        let (leaf_id, _) = self.descend(lo, u64::MIN);
        let first = self.read(leaf_id);
        // Entries are (key, rid)-sorted, so everything below `lo` sits in
        // one prefix of the first leaf; the left boundary is the last entry
        // of that prefix, falling back to the previous leaf's last entry
        // (every entry there is strictly below (lo, 0)).
        let start = first.leaf.partition_point(|e| e.key < lo);
        if start > 0 {
            f(RangeEvent::LeftBoundary(&first.leaf[start - 1]));
        } else if first.prev != NO_PAGE {
            let prev = self.read(first.prev);
            if let Some(e) = prev.leaf.last() {
                f(RangeEvent::LeftBoundary(e));
            }
        }
        let mut node = first;
        let mut from = start;
        loop {
            for e in &node.leaf[from..] {
                if e.key <= hi {
                    f(RangeEvent::Match(e));
                } else {
                    f(RangeEvent::RightBoundary(e));
                    return;
                }
            }
            if node.next == NO_PAGE {
                return;
            }
            let next = node.next;
            node = self.read(next);
            from = 0;
        }
    }

    /// Full in-order scan of every entry (test/diagnostic helper).
    pub fn scan_all(&self) -> Vec<LeafEntry> {
        let mut out = Vec::with_capacity(self.len as usize);
        let mut current = self.leftmost_leaf();
        while current != NO_PAGE {
            let node = self.read(current);
            out.extend(node.leaf.iter().cloned());
            current = node.next;
        }
        out
    }

    /// Page id of the leftmost leaf.
    pub fn leftmost_leaf(&self) -> PageId {
        let mut current = self.root;
        loop {
            let node = self.read(current);
            if node.tag == TAG_LEAF {
                return current;
            }
            current = node.internal[0].child;
        }
    }

    /// Bulk-load from entries **sorted by (key, rid)**, filling nodes to
    /// `fill` of capacity (the paper assumes 2/3 average utilization).
    ///
    /// # Panics
    /// Panics if entries are unsorted, payload lengths mismatch, or the tree
    /// is not empty.
    pub fn bulk_load(&mut self, entries: &[LeafEntry], fill: f64) {
        assert!(self.is_empty(), "bulk_load requires an empty tree");
        assert!((0.1..=1.0).contains(&fill), "fill factor out of range");
        if entries.is_empty() {
            return;
        }
        assert!(
            entries
                .windows(2)
                .all(|w| (w[0].key, w[0].rid) <= (w[1].key, w[1].rid)),
            "entries must be sorted by (key, rid)"
        );
        let leaf_per = ((self.config.leaf_cap() as f64 * fill) as usize).max(1);
        let int_per = ((self.config.internal_cap() as f64 * fill) as usize).max(2);

        // Build leaf level.
        let mut level: Vec<(i64, u64, PageId, Vec<u8>)> = Vec::new();
        let mut prev_leaf: PageId = NO_PAGE;
        for chunk in entries.chunks(leaf_per) {
            assert_eq!(
                chunk[0].payload.len(),
                self.config.payload_len,
                "payload length"
            );
            let id = self.pool.allocate();
            let mut node = Node::new_leaf();
            node.leaf = chunk.to_vec();
            node.prev = prev_leaf;
            if prev_leaf != NO_PAGE {
                let mut p = self.read_owned(prev_leaf);
                p.next = id;
                self.write_node(prev_leaf, &p);
            }
            self.write_node(id, &node);
            let ann = self.compute_leaf_ann(&node);
            level.push((chunk[0].key, chunk[0].rid, id, ann));
            prev_leaf = id;
        }

        // Build internal levels.
        let mut height = 1;
        while level.len() > 1 {
            let mut next_level = Vec::with_capacity(level.len() / int_per + 1);
            for chunk in level.chunks(int_per) {
                let id = self.pool.allocate();
                let mut node = Node::new_internal();
                node.internal = chunk
                    .iter()
                    .map(|(k, r, c, a)| InternalEntry {
                        key: *k,
                        rid: *r,
                        child: *c,
                        ann: a.clone(),
                    })
                    .collect();
                self.write_node(id, &node);
                let ann = self.compute_internal_ann(&node);
                next_level.push((chunk[0].0, chunk[0].1, id, ann));
            }
            level = next_level;
            height += 1;
        }
        self.root = level[0].2;
        self.height = height;
        self.len = entries.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use authdb_storage::{BufferPool, Disk};
    use rand::rngs::StdRng;
    use rand::{seq::SliceRandom, Rng, SeedableRng};

    fn plain_tree(payload_len: usize) -> BTree<NoAnnotation> {
        let pool = BufferPool::new(Disk::new(), 256);
        BTree::new(
            pool,
            TreeConfig {
                payload_len,
                ann_len: 0,
            },
            NoAnnotation,
        )
    }

    fn payload(b: u8, len: usize) -> Vec<u8> {
        vec![b; len]
    }

    #[test]
    fn capacities_match_paper_scale() {
        // ASign with the paper's 20-byte signatures: (4096-16)/36 = 113 leaf
        // entries per page (paper: 146 with 4-byte keys/rids — same order).
        let c = TreeConfig {
            payload_len: 20,
            ann_len: 0,
        };
        assert_eq!(c.leaf_cap(), 113);
        assert_eq!(c.internal_cap(), 204);
        // The engines' payload-free `⟨key, rid⟩` leaves: (4096-16)/16 = 255.
        let plain = TreeConfig {
            payload_len: 0,
            ann_len: 0,
        };
        assert_eq!(plain.leaf_cap(), 255);
        // EMB− with 20-byte digests: internal fanout shrinks to 102 (paper:
        // 97) — the digest-per-child height penalty is reproduced.
        let emb = TreeConfig {
            payload_len: 20,
            ann_len: 20,
        };
        assert_eq!(emb.internal_cap(), 102);
    }

    #[test]
    fn insert_and_get() {
        let mut t = plain_tree(8);
        for i in 0..500i64 {
            t.insert(i * 2, i as u64, payload((i % 251) as u8, 8));
        }
        assert_eq!(t.len(), 500);
        for i in 0..500i64 {
            let e = t.get(i * 2, i as u64).expect("present");
            assert_eq!(e.payload[0], (i % 251) as u8);
        }
        assert!(t.get(1, 0).is_none());
        assert!(t.get(0, 999).is_none());
    }

    #[test]
    fn random_insert_order_stays_sorted() {
        let mut t = plain_tree(4);
        let mut keys: Vec<i64> = (0..2000).collect();
        let mut rng = StdRng::seed_from_u64(3);
        keys.shuffle(&mut rng);
        for &k in &keys {
            t.insert(k, k as u64, payload(0, 4));
        }
        let all = t.scan_all();
        assert_eq!(all.len(), 2000);
        assert!(all.windows(2).all(|w| w[0].key < w[1].key));
        assert!(t.height() >= 2, "2000 entries must split");
    }

    #[test]
    fn duplicate_keys_supported() {
        let mut t = plain_tree(4);
        for rid in 0..300u64 {
            t.insert(42, rid, payload(1, 4));
        }
        t.insert(41, 0, payload(2, 4));
        t.insert(43, 0, payload(3, 4));
        let scan = t.range(42, 42);
        assert_eq!(scan.matches.len(), 300);
        assert_eq!(scan.left_boundary.unwrap().key, 41);
        assert_eq!(scan.right_boundary.unwrap().key, 43);
        // Point ops on duplicates spanning several leaves.
        assert!(t.get(42, 0).is_some());
        assert!(t.get(42, 299).is_some());
        assert!(t.update_payload(42, 150, payload(9, 4)));
        assert_eq!(t.get(42, 150).unwrap().payload, payload(9, 4));
        assert!(t.delete(42, 0));
        assert!(t.get(42, 0).is_none());
    }

    #[test]
    fn range_with_boundaries() {
        let mut t = plain_tree(4);
        for i in 0..1000i64 {
            t.insert(i * 10, i as u64, payload(0, 4));
        }
        let scan = t.range(100, 200);
        let keys: Vec<i64> = scan.matches.iter().map(|e| e.key).collect();
        assert_eq!(keys, (10..=20).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(scan.left_boundary.unwrap().key, 90);
        assert_eq!(scan.right_boundary.unwrap().key, 210);
    }

    #[test]
    fn range_at_extremes_has_open_boundaries() {
        let mut t = plain_tree(4);
        for i in 0..100i64 {
            t.insert(i, i as u64, payload(0, 4));
        }
        let scan = t.range(0, 10);
        assert!(scan.left_boundary.is_none());
        assert_eq!(scan.right_boundary.unwrap().key, 11);
        let scan = t.range(90, 99);
        assert_eq!(scan.left_boundary.unwrap().key, 89);
        assert!(scan.right_boundary.is_none());
    }

    #[test]
    fn empty_range() {
        let mut t = plain_tree(4);
        for i in 0..100i64 {
            t.insert(i * 10, i as u64, payload(0, 4));
        }
        let scan = t.range(101, 105);
        assert!(scan.matches.is_empty());
        assert_eq!(scan.left_boundary.unwrap().key, 100);
        assert_eq!(scan.right_boundary.unwrap().key, 110);
    }

    #[test]
    fn update_payload_in_place() {
        let mut t = plain_tree(4);
        for i in 0..500i64 {
            t.insert(i, i as u64, payload(0, 4));
        }
        assert!(t.update_payload(250, 250, payload(9, 4)));
        assert_eq!(t.get(250, 250).unwrap().payload, payload(9, 4));
        assert!(!t.update_payload(250, 999, payload(9, 4)));
    }

    #[test]
    fn delete_entries() {
        let mut t = plain_tree(4);
        for i in 0..1000i64 {
            t.insert(i, i as u64, payload(0, 4));
        }
        for i in (0..1000i64).step_by(2) {
            assert!(t.delete(i, i as u64), "delete {i}");
        }
        assert_eq!(t.len(), 500);
        let all = t.scan_all();
        assert!(all.iter().all(|e| e.key % 2 == 1));
        assert!(!t.delete(0, 0), "double delete");
    }

    #[test]
    fn delete_everything_then_reinsert() {
        let mut t = plain_tree(4);
        for i in 0..300i64 {
            t.insert(i, i as u64, payload(0, 4));
        }
        for i in 0..300i64 {
            assert!(t.delete(i, i as u64));
        }
        assert!(t.is_empty());
        t.insert(7, 7, payload(7, 4));
        assert_eq!(t.scan_all().len(), 1);
    }

    #[test]
    fn bulk_load_matches_incremental() {
        let entries: Vec<LeafEntry> = (0..5000i64)
            .map(|i| LeafEntry {
                key: i,
                rid: i as u64,
                payload: payload((i % 256) as u8, 4),
            })
            .collect();
        let pool = BufferPool::new(Disk::new(), 1024);
        let mut bulk = BTree::new(
            pool,
            TreeConfig {
                payload_len: 4,
                ann_len: 0,
            },
            NoAnnotation,
        );
        bulk.bulk_load(&entries, 2.0 / 3.0);
        assert_eq!(bulk.len(), 5000);
        let all = bulk.scan_all();
        assert_eq!(all.len(), 5000);
        assert!(all.windows(2).all(|w| w[0].key < w[1].key));
        let scan = bulk.range(100, 110);
        assert_eq!(scan.matches.len(), 11);
        assert_eq!(scan.left_boundary.unwrap().key, 99);
        // Bulk-loaded trees accept further inserts.
        bulk.insert(2500, 99999, payload(5, 4));
        assert!(bulk.get(2500, 99999).is_some());
    }

    #[test]
    fn bulk_load_height_follows_fanout() {
        let entries: Vec<LeafEntry> = (0..50_000i64)
            .map(|i| LeafEntry {
                key: i,
                rid: i as u64,
                payload: payload(0, 20),
            })
            .collect();
        let pool = BufferPool::new(Disk::new(), 4096);
        let mut t = BTree::new(
            pool,
            TreeConfig {
                payload_len: 20,
                ann_len: 0,
            },
            NoAnnotation,
        );
        t.bulk_load(&entries, 2.0 / 3.0);
        let leaf_per = (113.0f64 * 2.0 / 3.0) as usize; // 75
        let leaves = 50_000usize.div_ceil(leaf_per); // 667
        let int_per = (204.0f64 * 2.0 / 3.0) as usize; // 136
        let internals = leaves.div_ceil(int_per); // 5
        let expected_height = if internals <= 1 { 2 } else { 3 };
        assert_eq!(t.height(), expected_height);
    }

    /// Random inserts/deletes/payload updates against a model map, both with
    /// a payload and at the engines' payload-free `⟨key, rid⟩` layout.
    #[test]
    fn mixed_workload_consistency() {
        for len in [8, 0] {
            let mut t = plain_tree(len);
            let mut rng = StdRng::seed_from_u64(77);
            let mut model: std::collections::BTreeMap<(i64, u64), Vec<u8>> =
                std::collections::BTreeMap::new();
            for step in 0..3000 {
                let op: u8 = rng.gen_range(0..10);
                let key = rng.gen_range(0..500i64);
                let rid = rng.gen_range(0..50u64);
                match op {
                    0..=5 => {
                        model.entry((key, rid)).or_insert_with(|| {
                            let p = payload((step % 256) as u8, len);
                            t.insert(key, rid, p.clone());
                            p
                        });
                    }
                    6..=7 => {
                        let existed = model.remove(&(key, rid)).is_some();
                        assert_eq!(t.delete(key, rid), existed, "len {len} step {step}");
                    }
                    _ => {
                        let p = payload((step % 256) as u8, len);
                        let existed = model.contains_key(&(key, rid));
                        assert_eq!(t.update_payload(key, rid, p.clone()), existed);
                        if existed {
                            model.insert((key, rid), p);
                        }
                    }
                }
            }
            let all = t.scan_all();
            assert_eq!(all.len(), model.len(), "len {len}");
            for (e, ((k, r), p)) in all.iter().zip(model.iter()) {
                assert_eq!((e.key, e.rid), (*k, *r));
                assert_eq!(&e.payload, p);
            }
        }
    }

    #[test]
    fn range_spanning_many_leaves_after_random_deletes() {
        let mut t = plain_tree(4);
        let mut rng = StdRng::seed_from_u64(99);
        for i in 0..5000i64 {
            t.insert(i, i as u64, payload(0, 4));
        }
        let mut alive: std::collections::BTreeSet<i64> = (0..5000).collect();
        for _ in 0..2500 {
            let k = rng.gen_range(0..5000i64);
            if alive.remove(&k) {
                assert!(t.delete(k, k as u64));
            }
        }
        let scan = t.range(1000, 4000);
        let expect: Vec<i64> = alive.range(1000..=4000).copied().collect();
        let got: Vec<i64> = scan.matches.iter().map(|e| e.key).collect();
        assert_eq!(got, expect);
        let expect_left = alive.range(..1000).next_back().copied();
        assert_eq!(scan.left_boundary.map(|e| e.key), expect_left);
        let expect_right = alive.range(4001..).next().copied();
        assert_eq!(scan.right_boundary.map(|e| e.key), expect_right);
    }
}
