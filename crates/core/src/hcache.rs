//! Shared hazard-verdict cache of the matcher.
//!
//! Hazard-containment checks (`hazards(cell) ⊆ hazards(cluster)`,
//! Theorem 3.2) dominate asynchronous matching time, and the same
//! (cell, binding, cluster) query recurs across overlapping clusters,
//! across cones, and across repeated `async_tmap` invocations. The
//! [`HazardCache`] memoizes those verdicts once, concurrently. The
//! matcher is its only client: the checkers decide their whole-cone
//! obligations afresh through `asyncmap_hazard::decide_containment`.
//!
//! * **Interned cluster expressions** — each distinct cluster function is
//!   hashed into a small integer id exactly once; lookups never clone an
//!   [`Expr`] (the previous per-matcher cache cloned both the candidate and
//!   the cluster expression into every key).
//! * **Packed bindings** — the candidate side of a verdict is fully
//!   determined by `(cell_index, pin→leaf binding)`, so the key stores the
//!   binding packed into a `u128` (8 bits per pin) instead of the
//!   instantiated candidate expression. On a cache hit the candidate is
//!   never even built.
//! * **Sharded locking** — verdicts live in a fixed array of
//!   `RwLock<HashMap>` shards selected by key hash, so concurrent cone
//!   workers rarely contend; hit/miss counters are relaxed atomics.
//!
//! The cache is shared through an [`Arc`]: every matcher created by one
//! mapping run uses one cache, and callers can keep a cache warm across
//! runs via `async_tmap_cached`. Keys embed the library's cell indices, so
//! a cache must only ever be used with one library; this is enforced by
//! fingerprinting the library on first attach.

use crate::fxhash::FxBuildHasher;
use asyncmap_bff::Expr;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Number of verdict shards; a power of two so shard selection is a mask.
const SHARDS: usize = 16;

/// Maximum pins a packed binding can hold (8 bits each in a `u128`, with
/// the top byte reserved for the binding length).
const MAX_PACKED_PINS: usize = 15;

/// A fully-resolved verdict key: which cell, bound how, against which
/// cluster function over how many leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct VerdictKey {
    cell_index: u32,
    /// Pin→leaf binding packed 8 bits per pin (pin order preserved).
    binding: u128,
    /// Interned id of the cluster expression.
    cluster: u32,
    nleaves: u32,
}

/// Concurrency-safe memo of hazard-containment verdicts, shared across
/// matchers, cones, and mapping runs over one library.
#[derive(Debug, Default)]
pub struct HazardCache {
    /// Cluster-expression interner: maps each distinct expression to a
    /// dense id. Lookup by `&Expr` is allocation-free; the expression is
    /// cloned only the first time it is seen.
    interner: RwLock<HashMap<Expr, u32, FxBuildHasher>>,
    shards: [RwLock<HashMap<VerdictKey, bool, FxBuildHasher>>; SHARDS],
    hits: AtomicUsize,
    misses: AtomicUsize,
    /// Fingerprint of the library the cache is bound to (name + cell
    /// count), set on first attach. Keys embed cell indices, so reusing a
    /// cache with a different library would silently mix verdicts.
    library: Mutex<Option<(String, usize)>>,
}

impl HazardCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        HazardCache::default()
    }

    /// Number of verdicts answered from the cache so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of verdicts that had to be computed (i.e. actual
    /// containment decisions through this cache).
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Binds the cache to a library, panicking if it was previously bound
    /// to a different one (verdict keys embed cell indices).
    pub(crate) fn bind_library(&self, name: &str, num_cells: usize) {
        let mut bound = self.library.lock().expect("hazard-cache lock poisoned");
        match &*bound {
            None => *bound = Some((name.to_owned(), num_cells)),
            Some((n, c)) => assert!(
                n == name && *c == num_cells,
                "hazard cache bound to library {n:?} ({c} cells) cannot be \
                 reused with library {name:?} ({num_cells} cells)"
            ),
        }
    }

    /// Interns `expr`, returning its dense id. Clones `expr` only on first
    /// encounter.
    pub(crate) fn intern(&self, expr: &Expr) -> u32 {
        if let Some(&id) = self
            .interner
            .read()
            .expect("hazard-cache lock poisoned")
            .get(expr)
        {
            return id;
        }
        let mut map = self.interner.write().expect("hazard-cache lock poisoned");
        let next = u32::try_from(map.len()).expect("interner overflow");
        *map.entry(expr.clone()).or_insert(next)
    }

    /// Builds a verdict key, or `None` when the binding cannot be packed
    /// (more than [`MAX_PACKED_PINS`] pins or a leaf index ≥ 256 — such
    /// queries bypass the cache).
    pub(crate) fn key(
        &self,
        cell_index: usize,
        pin_to_leaf: &[usize],
        cluster_id: u32,
        nleaves: usize,
    ) -> Option<VerdictKey> {
        if pin_to_leaf.len() > MAX_PACKED_PINS {
            return None;
        }
        let mut binding = 0u128;
        for (p, &leaf) in pin_to_leaf.iter().enumerate() {
            if leaf >= 256 {
                return None;
            }
            binding |= (leaf as u128) << (8 * p);
        }
        // Distinguish an empty binding from pin 0 → leaf 0 by the length.
        binding |= (pin_to_leaf.len() as u128) << (8 * MAX_PACKED_PINS);
        Some(VerdictKey {
            cell_index: u32::try_from(cell_index).ok()?,
            binding,
            cluster: cluster_id,
            nleaves: u32::try_from(nleaves).ok()?,
        })
    }

    /// Returns the cached verdict for `key`, or evaluates `compute`,
    /// records the result, and returns it. Counts a hit or a miss either
    /// way. Concurrent callers may race to compute the same verdict; both
    /// arrive at the same answer, so the duplicate insert is harmless.
    pub(crate) fn verdict(&self, key: VerdictKey, compute: impl FnOnce() -> bool) -> bool {
        let shard = &self.shards[shard_of(&key)];
        if let Some(&v) = shard.read().expect("hazard-cache lock poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        // Compute outside any lock: the containment decision can be
        // expensive.
        let v = compute();
        self.misses.fetch_add(1, Ordering::Relaxed);
        shard
            .write()
            .expect("hazard-cache lock poisoned")
            .insert(key, v);
        v
    }
}

/// Test-only handles for the `loom-tests` concurrency model test
/// (`crates/core/tests/loom_hcache.rs`). The cache's working API is
/// `pub(crate)` — the matcher is its only production client — so the model
/// test, an *integration* test, gets these thin feature-gated wrappers.
#[cfg(feature = "loom-tests")]
impl HazardCache {
    /// [`HazardCache::intern`] exposed for the model test.
    pub fn model_intern(&self, expr: &Expr) -> u32 {
        self.intern(expr)
    }

    /// Key construction + [`HazardCache::verdict`] exposed for the model
    /// test. Returns `None` when the binding cannot be packed into a key
    /// (such queries bypass the cache in production too).
    pub fn model_verdict(
        &self,
        cell_index: usize,
        pin_to_leaf: &[usize],
        cluster_id: u32,
        nleaves: usize,
        compute: impl FnOnce() -> bool,
    ) -> Option<bool> {
        let key = self.key(cell_index, pin_to_leaf, cluster_id, nleaves)?;
        Some(self.verdict(key, compute))
    }
}

fn shard_of(key: &VerdictKey) -> usize {
    hash_shard(key)
}

fn hash_shard<K: Hash>(key: &K) -> usize {
    (FxBuildHasher::default().hash_one(key) as usize) & (SHARDS - 1)
}

/// One memoized match: a cell entry plus its pin binding, packed one byte
/// per pin. Raw and class-level bindings map pins to positions of the
/// cluster's support; wide-level bindings map them to leaf indices.
pub(crate) type MemoBinding = (u32, [u8; 8]);

/// Sharded memo of Boolean-match results, keyed by the cluster's packed
/// truth table and, underneath that, by its P-class canonical form
/// ([`crate::truth::canon6`]).
///
/// Three levels:
///
/// * **raw** — `(n, truth)` → the matching cell entries *with* their pin
///   bindings. The binding search is a pure function of the projected
///   truth table, so an exact-table hit replays the stored bindings and
///   skips `permute_match6` entirely.
/// * **class** — `(n, canon, phase)` → the matching cell entry list. A
///   first-seen table that canonicalizes into a known class skips the
///   signature-bucket scan (the expensive part: most cells fail the
///   permutation search) and only re-runs `permute_match6` against the
///   few cells known to match, which pins the bindings to exactly what
///   the unmemoized search would have produced.
/// * **wide** — `(nleaves, 4-word table)` → pin → leaf-index bindings for
///   7–8 leaf clusters, whose tables do not pack into one word. Raw-level
///   only (no canonical form), but these clusters repeat just as heavily
///   across cones, so the exact-table hit rate carries the weight.
///
/// Entry lists keep library bucket order, so match lists — and therefore
/// cover selection — are bit-identical with the memo on or off. Hazard
/// filtering happens downstream of the memo and is never cached here.
/// A sharded hash map: the memo levels below key into one of [`SHARDS`]
/// independently locked maps to keep contention negligible under the
/// parallel cone-mapping engine.
type Sharded<K, V> = [RwLock<HashMap<K, V, FxBuildHasher>>; SHARDS];

#[derive(Debug)]
pub(crate) struct MatchMemo {
    raw: Sharded<(u8, u64), Arc<Vec<MemoBinding>>>,
    class: Sharded<(u8, u64, bool), Arc<Vec<u32>>>,
    wide: Sharded<(u8, [u64; 4]), Arc<Vec<MemoBinding>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl Default for MatchMemo {
    fn default() -> Self {
        MatchMemo {
            raw: std::array::from_fn(|_| RwLock::new(HashMap::default())),
            class: std::array::from_fn(|_| RwLock::new(HashMap::default())),
            wide: std::array::from_fn(|_| RwLock::new(HashMap::default())),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }
}

impl MatchMemo {
    pub(crate) fn new() -> Self {
        MatchMemo::default()
    }

    /// Lookups answered from either memo level.
    pub(crate) fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to a full signature-bucket scan.
    pub(crate) fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    pub(crate) fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Zeroes the hit/miss counters without touching the memoized match
    /// lists (resetting accounting must not change matching behavior).
    pub(crate) fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    pub(crate) fn raw_get(&self, n: usize, truth: u64) -> Option<Arc<Vec<MemoBinding>>> {
        let key = (n as u8, truth);
        self.raw[hash_shard(&key)]
            .read()
            .expect("match-memo lock poisoned")
            .get(&key)
            .cloned()
    }

    pub(crate) fn raw_put(&self, n: usize, truth: u64, bindings: Arc<Vec<MemoBinding>>) {
        let key = (n as u8, truth);
        self.raw[hash_shard(&key)]
            .write()
            .expect("match-memo lock poisoned")
            .insert(key, bindings);
    }

    pub(crate) fn class_get(&self, n: usize, canon: u64, phase: bool) -> Option<Arc<Vec<u32>>> {
        let key = (n as u8, canon, phase);
        self.class[hash_shard(&key)]
            .read()
            .expect("match-memo lock poisoned")
            .get(&key)
            .cloned()
    }

    pub(crate) fn class_put(&self, n: usize, canon: u64, phase: bool, cells: Arc<Vec<u32>>) {
        let key = (n as u8, canon, phase);
        self.class[hash_shard(&key)]
            .write()
            .expect("match-memo lock poisoned")
            .insert(key, cells);
    }

    pub(crate) fn wide_get(
        &self,
        nleaves: usize,
        words: [u64; 4],
    ) -> Option<Arc<Vec<MemoBinding>>> {
        let key = (nleaves as u8, words);
        self.wide[hash_shard(&key)]
            .read()
            .expect("match-memo lock poisoned")
            .get(&key)
            .cloned()
    }

    pub(crate) fn wide_put(
        &self,
        nleaves: usize,
        words: [u64; 4],
        bindings: Arc<Vec<MemoBinding>>,
    ) {
        let key = (nleaves as u8, words);
        self.wide[hash_shard(&key)]
            .write()
            .expect("match-memo lock poisoned")
            .insert(key, bindings);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::VarId;

    #[test]
    fn intern_is_stable_and_clone_free_on_rehit() {
        let cache = HazardCache::new();
        let a = Expr::Var(VarId(0)).not();
        let b = Expr::Var(VarId(1));
        let ia = cache.intern(&a);
        let ib = cache.intern(&b);
        assert_ne!(ia, ib);
        assert_eq!(cache.intern(&a), ia);
        assert_eq!(cache.intern(&b), ib);
    }

    #[test]
    fn verdict_computes_once_per_key() {
        let cache = HazardCache::new();
        let key = cache.key(3, &[1, 0, 2], 7, 3).unwrap();
        let mut evals = 0;
        for _ in 0..4 {
            let v = cache.verdict(key, || {
                evals += 1;
                true
            });
            assert!(v);
        }
        assert_eq!(evals, 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 3);
    }

    #[test]
    fn distinct_bindings_get_distinct_keys() {
        let cache = HazardCache::new();
        let k1 = cache.key(0, &[0, 1], 0, 2).unwrap();
        let k2 = cache.key(0, &[1, 0], 0, 2).unwrap();
        assert_ne!(k1, k2);
        // Empty binding differs from pin0→leaf0.
        let k3 = cache.key(0, &[], 0, 2).unwrap();
        let k4 = cache.key(0, &[0], 0, 2).unwrap();
        assert_ne!(k3, k4);
    }

    #[test]
    fn oversized_bindings_bypass_the_cache() {
        let cache = HazardCache::new();
        assert!(cache.key(0, &[0; 16], 0, 16).is_none());
        assert!(cache.key(0, &[300], 0, 301).is_none());
    }

    #[test]
    fn match_memo_levels_are_independent() {
        let memo = MatchMemo::new();
        assert!(memo.raw_get(2, 0b1000).is_none());
        assert!(memo.class_get(2, 0b1000, false).is_none());
        memo.raw_put(2, 0b1000, Arc::new(vec![(3, [1, 0, 0, 0, 0, 0, 0, 0])]));
        memo.class_put(2, 0b1000, false, Arc::new(vec![3]));
        assert_eq!(memo.raw_get(2, 0b1000).unwrap()[0].0, 3);
        assert_eq!(*memo.class_get(2, 0b1000, false).unwrap(), vec![3]);
        // Same table, different arity or phase: distinct entries.
        assert!(memo.raw_get(3, 0b1000).is_none());
        assert!(memo.class_get(2, 0b1000, true).is_none());
        memo.note_hit();
        memo.note_miss();
        memo.note_miss();
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.misses(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot be")]
    fn rebinding_to_another_library_panics() {
        let cache = HazardCache::new();
        cache.bind_library("A", 4);
        cache.bind_library("A", 4); // same library: fine
        cache.bind_library("B", 4);
    }
}
