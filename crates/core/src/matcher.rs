//! Boolean matching of clusters against library cells, with the
//! asynchronous hazard filter of §3.2.2.
//!
//! Matching is CERES-style Boolean (function-based, structure-blind):
//! a cell matches a cluster when some pin permutation makes their functions
//! equal. Candidates are pruned with cheap signatures (support size, onset
//! count, per-input cofactor sizes) before the permutation search.
//!
//! Because Boolean matching ignores structure, it can propose structurally
//! *worse* implementations (paper Figure 3): the asynchronous matcher
//! therefore accepts a hazardous cell only when
//! `hazards(cell) ⊆ hazards(cluster)` under the pin binding
//! ([`asyncmap_hazard::decide_containment`]).
//!
//! Every cluster reaches the matcher as one packed 4-word truth table (the
//! cut walk's, or [`Matcher::find_matches`]'s evaluation of a cluster
//! expression), and every match runs the same two stages: the memoized
//! Boolean match of the table, then the hazard filter.

use crate::cluster::{Cluster, ClusterLimits, CutCluster};
use crate::fxhash::FxBuildHasher;
use crate::hcache::{HazardCache, MatchMemo, MemoBinding};
use crate::profile::{self, MapPhase};
use crate::truth;
use asyncmap_bff::Expr;
use asyncmap_cube::{Bits, Phase, VarId};
use asyncmap_hazard::{decide_containment, Containment};
use asyncmap_library::Library;
use asyncmap_network::Network;
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Signature-index key: candidate cells and clusters can only match when
/// their support sizes, onset sizes, and (permutation-invariant) multisets
/// of per-input signatures all agree.
type SigKey = (usize, u32, Vec<u32>);

/// Precomputed matching data for one library cell.
#[derive(Debug, Clone)]
struct CellEntry {
    index: usize,
    ninputs: usize,
    truth: Bits,
    /// The first word of `truth`: the whole packed table when the cell has
    /// ≤ 6 inputs, for the word-level permutation search.
    truth6: u64,
    onset: u32,
    input_sigs: Vec<u32>,
    hazardous: bool,
}

/// A successful match: a cell plus the binding of cell pins to cluster
/// leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Match {
    /// Index of the cell in the library.
    pub cell_index: usize,
    /// `pin_to_leaf[p]` = index into the cluster's (support-reduced) leaf
    /// list bound to cell pin `p`.
    pub pin_to_leaf: Vec<usize>,
}

/// How the matcher treats hazardous cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HazardPolicy {
    /// Synchronous flow: structure is ignored (paper `tmap`).
    Ignore,
    /// Asynchronous flow: a hazardous cell must satisfy
    /// `hazards(cell) ⊆ hazards(cluster)` (paper `async_tmap`).
    SubsetCheck,
}

/// A snapshot of a matcher's counters, which accumulate over its
/// lifetime (see [`Matcher::counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatcherCounters {
    /// Hazard-containment checks performed.
    pub hazard_checks: usize,
    /// Matches rejected by the hazard filter.
    pub hazard_rejects: usize,
    /// Match-memo lookups served from the memo.
    pub npn_hits: usize,
    /// Match-memo lookups that fell through to the permutation search.
    pub npn_misses: usize,
}

/// The matcher: owns per-cell signatures, a signature index over the
/// library, and a (shareable) cache of hazard verdicts.
///
/// Matching is read-only: [`Matcher::find_matches`] takes `&self`, so one
/// matcher can serve many cone-covering threads concurrently. Counters are
/// relaxed atomics; (cell, binding, cluster) hazard verdicts are memoized
/// in an [`Arc`]-shared [`HazardCache`], whose only client is the matcher.
#[derive(Debug)]
pub struct Matcher<'lib> {
    library: &'lib Library,
    entries: Vec<CellEntry>,
    /// Cells bucketed by [`SigKey`] (sorted per-input signature multiset);
    /// each bucket keeps library order, so iterating a bucket visits cells
    /// in the same order the old linear scan did.
    sig_index: HashMap<SigKey, Vec<usize>, FxBuildHasher>,
    policy: HazardPolicy,
    cache: Arc<HazardCache>,
    hazard_checks: AtomicUsize,
    hazard_rejects: AtomicUsize,
    /// P-class match memo: the pre-hazard-filter match list per projected
    /// truth table and per canonical class, so structurally repeated
    /// clusters skip the permutation search entirely.
    memo: MatchMemo,
}

impl<'lib> Matcher<'lib> {
    /// Builds a matcher over `library` with its own private verdict cache.
    ///
    /// # Panics
    ///
    /// Panics if `policy` is [`HazardPolicy::SubsetCheck`] and the library
    /// has not been hazard-annotated.
    pub fn new(library: &'lib Library, policy: HazardPolicy) -> Self {
        Matcher::with_cache(library, policy, Arc::new(HazardCache::new()))
    }

    /// Builds a matcher over `library` sharing `cache` — verdicts computed
    /// by any matcher on the cache benefit all others (and later runs).
    ///
    /// # Panics
    ///
    /// Panics if `policy` is [`HazardPolicy::SubsetCheck`] and the library
    /// has not been hazard-annotated, or if `cache` was previously used
    /// with a different library.
    pub fn with_cache(
        library: &'lib Library,
        policy: HazardPolicy,
        cache: Arc<HazardCache>,
    ) -> Self {
        if policy == HazardPolicy::SubsetCheck {
            assert!(
                library.is_annotated(),
                "asynchronous matching requires an annotated library"
            );
        }
        cache.bind_library(library.name(), library.len());
        let entries: Vec<CellEntry> = library
            .cells()
            .iter()
            .enumerate()
            .map(|(index, cell)| {
                let truth = cell.truth_table();
                let ninputs = cell.num_inputs();
                CellEntry {
                    index,
                    ninputs,
                    onset: truth.count_ones(),
                    input_sigs: (0..ninputs)
                        .map(|v| input_signature_words(&truth, v))
                        .collect(),
                    truth6: truth.words()[0],
                    truth,
                    hazardous: if policy == HazardPolicy::SubsetCheck {
                        cell.is_hazardous()
                    } else {
                        false
                    },
                }
            })
            .collect();
        let mut sig_index: HashMap<SigKey, Vec<usize>, FxBuildHasher> = HashMap::default();
        for (e, entry) in entries.iter().enumerate() {
            sig_index
                .entry(sig_key(entry.ninputs, entry.onset, &entry.input_sigs))
                .or_default()
                .push(e);
        }
        Matcher {
            library,
            entries,
            sig_index,
            policy,
            cache,
            hazard_checks: AtomicUsize::new(0),
            hazard_rejects: AtomicUsize::new(0),
            memo: MatchMemo::new(),
        }
    }

    /// The library this matcher works over.
    pub fn library(&self) -> &'lib Library {
        self.library
    }

    /// The shared verdict cache.
    pub fn cache(&self) -> &Arc<HazardCache> {
        &self.cache
    }

    /// Snapshot of every counter: hazard-containment checks and rejects
    /// (counted before any cache lookup, so independent of cache warmth
    /// and thread count) and match-memo hits and misses. The counters
    /// accumulate over the matcher's lifetime, until
    /// [`Matcher::reset_counters`]; a mapping run's [`crate::MapStats`]
    /// are its own, whatever matcher it used.
    pub fn counters(&self) -> MatcherCounters {
        MatcherCounters {
            hazard_checks: self.hazard_checks.load(Ordering::Relaxed),
            hazard_rejects: self.hazard_rejects.load(Ordering::Relaxed),
            npn_hits: self.memo.hits(),
            npn_misses: self.memo.misses(),
        }
    }

    /// Zeroes every counter. Accounting only: the match memo's
    /// contents and the shared verdict cache are untouched, so subsequent
    /// match lists are bit-identical to what they would have been.
    pub fn reset_counters(&self) {
        self.hazard_checks.store(0, Ordering::Relaxed);
        self.hazard_rejects.store(0, Ordering::Relaxed);
        self.memo.reset_counters();
    }

    /// Finds all acceptable matches for `cluster` (paper
    /// `asyncmatchingroutine` when the policy is
    /// [`HazardPolicy::SubsetCheck`]).
    ///
    /// Returns matches over the cluster's *support*: leaves the cluster
    /// function does not depend on are not bound to any pin.
    ///
    /// The cluster's expression is evaluated into the same packed 4-word
    /// table the cut enumerator computes, and matched by the same two
    /// stages the mapper runs on every cut: the memoized Boolean match,
    /// then the hazard filter.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has more than [`ClusterLimits::MAX_LEAVES`]
    /// leaves.
    pub fn find_matches(&self, cluster: &Cluster) -> Vec<Match> {
        let nleaves = cluster.leaves.len();
        assert!(
            nleaves <= ClusterLimits::MAX_LEAVES,
            "a cluster has at most {} leaves, got {nleaves}",
            ClusterLimits::MAX_LEAVES
        );
        let words = truth::truth_table_words(&cluster.expr, ClusterLimits::MAX_LEAVES);
        let table = words
            .words()
            .try_into()
            .expect("an 8-variable table is 4 words");
        let mut out = Vec::new();
        let _t_match = profile::timer(MapPhase::Match);
        self.visit_matches(
            table,
            nleaves,
            || &cluster.expr,
            |cell_index, pin_to_leaf| {
                out.push(Match {
                    cell_index,
                    pin_to_leaf: pin_to_leaf.to_vec(),
                });
                ControlFlow::Continue(())
            },
        );
        out
    }

    /// [`Matcher::find_matches`] on an arena-backed [`CutCluster`], in
    /// visitor form: builds the cluster `Expr` only if a hazard check
    /// needs it. See [`Matcher::visit_matches`]. The caller times the
    /// match: the covering loops batch one [`MapPhase::Match`] lap over a
    /// gate's whole candidate scan.
    pub(crate) fn visit_cut(
        &self,
        cluster: &CutCluster,
        net: &Network,
        f: impl FnMut(usize, &[usize]) -> ControlFlow<()>,
    ) -> bool {
        self.visit_matches(cluster.table, cluster.leaves.len(), || cluster.expr(net), f)
    }

    /// The hazard filter of §3.2.2 over a cluster's memoized candidates
    /// ([`Matcher::candidates`]): calls `f(cell_index, pin_to_leaf)` for
    /// each acceptable match, in library-bucket order, until `f` breaks.
    /// The pin binding lives in a stack buffer, so visiting allocates
    /// nothing; `expr` is called only when a hazard check needs the
    /// cluster expression. Hazard checks run only for the candidates
    /// visited before a break. Returns whether the cluster had any
    /// candidate before the filter, i.e. whether it matches some cell
    /// functionally. Untimed: callers run it inside a
    /// [`MapPhase::Match`] timer, which excludes the nested
    /// [`MapPhase::HazardCheck`] laps.
    fn visit_matches<'e>(
        &self,
        table: [u64; 4],
        nleaves: usize,
        expr: impl Fn() -> &'e Expr,
        mut f: impl FnMut(usize, &[usize]) -> ControlFlow<()>,
    ) -> bool {
        let (bindings, leaf_of) = self.candidates(table, nleaves);
        // Interned lazily: only clusters that reach a hazard check pay it.
        let mut cluster_id: Option<u32> = None;
        for &(e, packed) in bindings.iter() {
            let entry = &self.entries[e as usize];
            let mut pins = [0usize; 8];
            for (pin, &v) in pins.iter_mut().zip(&packed[..entry.ninputs]) {
                *pin = leaf_of[v as usize];
            }
            let pin_to_leaf = &pins[..entry.ninputs];
            if self.checks_hazards(entry)
                && !self.hazard_verdict(entry.index, pin_to_leaf, nleaves, &expr, &mut cluster_id)
            {
                continue;
            }
            if f(entry.index, pin_to_leaf).is_break() {
                break;
            }
        }
        !bindings.is_empty()
    }

    /// The Boolean match of a packed cluster table (over `nleaves ≤ 8`
    /// leaves): the pre-hazard-filter candidates in library-bucket order,
    /// each a cell entry with its pin binding, plus the leaf index of each
    /// binding target. Up to 6 leaves the table is reduced to its support
    /// and looked up in the raw-truth memo level, then the canonical-class
    /// level (replaying the permutation search only on known-matching
    /// cells), then the full signature-bucket scan; bindings target
    /// support positions. Wider tables are looked up whole in the wide
    /// memo level before [`Matcher::scan_wide`]; bindings target leaves.
    fn candidates(&self, table: [u64; 4], nleaves: usize) -> (Arc<Vec<MemoBinding>>, [usize; 8]) {
        let memo = &self.memo;
        if nleaves > 6 {
            let list = if let Some(list) = memo.wide_get(nleaves, table) {
                memo.note_hit();
                list
            } else {
                memo.note_miss();
                let list = Arc::new(self.scan_wide(table, nleaves));
                memo.wide_put(nleaves, table, Arc::clone(&list));
                list
            };
            return (list, [0, 1, 2, 3, 4, 5, 6, 7]);
        }
        let full = table[0] & truth::full_mask(nleaves);
        let mut support = [0usize; 8];
        let mut n = 0;
        for v in 0..nleaves {
            if truth::depends6(full, nleaves, v) {
                support[n] = v;
                n += 1;
            }
        }
        if n == 0 {
            return (Arc::default(), support); // constant cluster: nothing to match
        }
        let t = truth::project6(full, &support[..n]);
        // The input signatures are needed only past the raw-truth level,
        // which answers nearly every lookup of a mapping run.
        let signatures = || -> [u32; 6] {
            std::array::from_fn(|v| {
                if v < n {
                    truth::input_signature6(t, n, v)
                } else {
                    0
                }
            })
        };
        if let Some(list) = memo.raw_get(n, t) {
            memo.note_hit();
            return (list, support);
        }
        let sigs = signatures();
        let sigs = &sigs[..n];
        let c = truth::canon6(t, n);
        let list = if let Some(cells) = memo.class_get(n, c.canon, c.phase) {
            memo.note_hit();
            let replay = cells.iter().map(|&e| {
                let entry = &self.entries[e as usize];
                let pin_to_local = permute_match6(entry.truth6, &entry.input_sigs, t, sigs, n)
                    .expect("P-class member must match every class instance");
                (e, pack_binding(&pin_to_local))
            });
            Arc::new(replay.collect())
        } else {
            memo.note_miss();
            let list: Vec<MemoBinding> = self.scan6(t, sigs, n);
            memo.class_put(
                n,
                c.canon,
                c.phase,
                Arc::new(list.iter().map(|b| b.0).collect()),
            );
            Arc::new(list)
        };
        memo.raw_put(n, t, Arc::clone(&list));
        (list, support)
    }

    /// Whether a candidate on `entry` must pass the hazard filter: the
    /// policy is [`HazardPolicy::SubsetCheck`] and the cell is hazardous.
    fn checks_hazards(&self, entry: &CellEntry) -> bool {
        self.policy == HazardPolicy::SubsetCheck && entry.hazardous
    }

    /// The hazard filter of §3.2.2 on one candidate: `true` iff
    /// `hazards(cell) ⊆ hazards(cluster)` under the pin binding, decided
    /// by [`decide_containment`], which is exact here (clusters have at
    /// most [`ClusterLimits::MAX_LEAVES`] leaves). The cluster expression is
    /// fetched (and interned into `cluster_id`) on first use; verdicts go
    /// through the shared cache. Counts the check, and the reject if there
    /// is one.
    fn hazard_verdict<'e>(
        &self,
        cell_index: usize,
        pin_to_leaf: &[usize],
        nleaves: usize,
        expr: impl FnOnce() -> &'e Expr,
        cluster_id: &mut Option<u32>,
    ) -> bool {
        self.hazard_checks.fetch_add(1, Ordering::Relaxed);
        let _t_hazard = profile::timer(MapPhase::HazardCheck);
        let expr = expr();
        let id = *cluster_id.get_or_insert_with(|| self.cache.intern(expr));
        let check = || {
            let candidate = instantiate(self.library.cells()[cell_index].bff(), pin_to_leaf);
            decide_containment(&candidate, expr, nleaves) == Containment::Holds
        };
        let ok = match self.cache.key(cell_index, pin_to_leaf, id, nleaves) {
            Some(key) => self.cache.verdict(key, check),
            // Unpackable binding (>15 pins): check without caching.
            None => check(),
        };
        if !ok {
            self.hazard_rejects.fetch_add(1, Ordering::Relaxed);
            profile::record_hazard_reject();
        }
        ok
    }

    /// Full signature-bucket permutation scan on a packed table over its
    /// `n ≤ 6` support variables: each matching cell entry with its pin →
    /// support-position binding, in library-bucket order.
    fn scan6(&self, t: u64, sigs: &[u32], n: usize) -> Vec<MemoBinding> {
        let Some(bucket) = self.sig_index.get(&sig_key(n, t.count_ones(), sigs)) else {
            return Vec::new();
        };
        let matches = bucket.iter().filter_map(|&e| {
            let entry = &self.entries[e];
            permute_match6(entry.truth6, &entry.input_sigs, t, sigs, n)
                .map(|pin_to_local| (e as u32, pack_binding(&pin_to_local)))
        });
        matches.collect()
    }

    /// Full signature-bucket scan for a 7–8 leaf table: support reduction,
    /// projection (back into one word and [`Matcher::scan6`] when the
    /// support shrinks to ≤ 6) and the permutation search. Returns pin →
    /// leaf-index bindings in library-bucket order.
    fn scan_wide(&self, words: [u64; 4], nleaves: usize) -> Vec<MemoBinding> {
        let full = Bits::from_words_fn(1 << nleaves, |i| words[i]);
        let support: Vec<usize> = (0..nleaves)
            .filter(|&v| depends_on_words(&full, v))
            .collect();
        let n = support.len();
        if n == 0 {
            return Vec::new(); // constant cluster: nothing to match
        }
        let to_leaves = |(e, packed): MemoBinding| {
            let mut leaves = [0u8; 8];
            for (leaf, &l) in leaves.iter_mut().zip(&packed[..n]) {
                *leaf = support[l as usize] as u8;
            }
            (e, leaves)
        };
        if n <= 6 {
            let t = project_to_u64(&full, &support);
            let sigs: Vec<u32> = (0..n).map(|v| truth::input_signature6(t, n, v)).collect();
            return self.scan6(t, &sigs, n).into_iter().map(to_leaves).collect();
        }
        let t = project(&full, &support);
        let sigs: Vec<u32> = (0..n).map(|v| input_signature_words(&t, v)).collect();
        let Some(bucket) = self.sig_index.get(&sig_key(n, t.count_ones(), &sigs)) else {
            return Vec::new();
        };
        let matches = bucket.iter().filter_map(|&e| {
            let entry = &self.entries[e];
            permute_match(&entry.truth, &entry.input_sigs, &t, &sigs, n)
                .map(|pin_to_local| to_leaves((e as u32, pack_binding(&pin_to_local))))
        });
        matches.collect()
    }
}

/// Builds the signature-index key for a function with `n` inputs, `onset`
/// onset minterms and per-input signatures `sigs` (sorted copy, so the key
/// is permutation-invariant).
fn sig_key(n: usize, onset: u32, sigs: &[u32]) -> SigKey {
    let mut sorted = sigs.to_vec();
    sorted.sort_unstable();
    (n, onset, sorted)
}

/// Packs a ≤8-pin binding into the fixed-size memo representation.
fn pack_binding(pin_to_local: &[usize]) -> [u8; 8] {
    let mut packed = [0u8; 8];
    for (p, &l) in pin_to_local.iter().enumerate() {
        packed[p] = l as u8;
    }
    packed
}

/// Rewrites a cell BFF into the cluster's variable space using the pin
/// binding.
pub fn instantiate(bff: &Expr, pin_to_leaf: &[usize]) -> Expr {
    bff.substitute(&|v: VarId| (VarId(pin_to_leaf[v.index()]), Phase::Pos))
}

/// Truth table of `expr` over `n` local variables (word-parallel blocked
/// evaluation, see [`crate::truth::truth_table_words`]).
pub fn truth_table_of(expr: &Expr, n: usize) -> Bits {
    truth::truth_table_words(expr, n)
}

/// Word-parallel dependence test for tables wider than one word (every
/// storage word is full because the table has ≥ 128 entries).
fn depends_on_words(truth: &Bits, v: usize) -> bool {
    let words = truth.words();
    if v < 6 {
        let shift = 1usize << v;
        words
            .iter()
            .any(|&w| ((w >> shift) ^ w) & !truth::MASKS[v] != 0)
    } else {
        let stride = 1usize << (v - 6);
        (0..words.len()).any(|i| i & stride == 0 && words[i] != words[i | stride])
    }
}

/// Projects a wide truth table (over > 6 variables) onto a support subset
/// of ≤ 6 variables, packing the result.
fn project_to_u64(truth: &Bits, support: &[usize]) -> u64 {
    let k = support.len();
    debug_assert!(k <= 6);
    let mut out = 0u64;
    for m in 0..(1usize << k) {
        let mut full = 0usize;
        for (i, &v) in support.iter().enumerate() {
            full |= ((m >> i) & 1) << v;
        }
        out |= u64::from(truth.get(full)) << m;
    }
    out
}

/// Projects a truth table onto a support subset (the function must not
/// depend on dropped variables).
fn project(truth: &Bits, support: &[usize]) -> Bits {
    let k = support.len();
    let mut out = Bits::new(1 << k);
    for m in 0..(1usize << k) {
        let mut full = 0usize;
        for (i, &v) in support.iter().enumerate() {
            if (m >> i) & 1 == 1 {
                full |= 1 << v;
            }
        }
        if truth.get(full) {
            out.set(m, true);
        }
    }
    out
}

/// Signature of input `v`: the number of onset minterms with `v = 1`
/// packed with the number with `v = 0` (permutation-invariant), counted a
/// word at a time. Bits past the table's end must be zero.
fn input_signature_words(truth: &Bits, v: usize) -> u32 {
    let words = truth.words();
    let mut with = 0u32;
    let mut without = 0u32;
    if v < 6 {
        for &w in words {
            with += (w & truth::MASKS[v]).count_ones();
            without += (w & !truth::MASKS[v]).count_ones();
        }
    } else {
        let stride = 1usize << (v - 6);
        for (i, &w) in words.iter().enumerate() {
            if i & stride != 0 {
                with += w.count_ones();
            } else {
                without += w.count_ones();
            }
        }
    }
    (with << 16) | without
}

/// Backtracking pin-permutation search on 7–8-variable tables: find
/// `pin_to_local` such that `cell(x_{σ(0)}, …) = cluster(x_0, …)`, pins
/// ascending, locals ascending.
fn permute_match(
    cell_truth: &Bits,
    cell_sigs: &[u32],
    cluster_truth: &Bits,
    cluster_sigs: &[u32],
    n: usize,
) -> Option<Vec<usize>> {
    let mut assignment: Vec<Option<usize>> = vec![None; n]; // pin -> local var
    let mut used = vec![false; n];
    if backtrack(
        cell_truth,
        cell_sigs,
        cluster_truth,
        cluster_sigs,
        n,
        0,
        &mut assignment,
        &mut used,
    ) {
        Some(
            assignment
                .into_iter()
                .map(|a| a.expect("complete"))
                .collect(),
        )
    } else {
        None
    }
}

#[allow(clippy::too_many_arguments)]
fn backtrack(
    cell_truth: &Bits,
    cell_sigs: &[u32],
    cluster_truth: &Bits,
    cluster_sigs: &[u32],
    n: usize,
    pin: usize,
    assignment: &mut Vec<Option<usize>>,
    used: &mut Vec<bool>,
) -> bool {
    if pin == n {
        return verify_permutation(cell_truth, cluster_truth, assignment, n);
    }
    for local in 0..n {
        if used[local] || cell_sigs[pin] != cluster_sigs[local] {
            continue;
        }
        assignment[pin] = Some(local);
        used[local] = true;
        if backtrack(
            cell_truth,
            cell_sigs,
            cluster_truth,
            cluster_sigs,
            n,
            pin + 1,
            assignment,
            used,
        ) {
            return true;
        }
        assignment[pin] = None;
        used[local] = false;
    }
    false
}

/// [`permute_match`] on packed `u64` truth tables (`n ≤ 6`), in the same
/// search order, so the first permutation found — and therefore the
/// returned binding — is the one a minterm-at-a-time search finds.
fn permute_match6(
    cell_truth: u64,
    cell_sigs: &[u32],
    cluster_truth: u64,
    cluster_sigs: &[u32],
    n: usize,
) -> Option<Vec<usize>> {
    let mut assignment = [usize::MAX; 6];
    let mut used = [false; 6];
    if backtrack6(
        cell_truth,
        cell_sigs,
        cluster_truth,
        cluster_sigs,
        n,
        0,
        &mut assignment,
        &mut used,
    ) {
        Some(assignment[..n].to_vec())
    } else {
        None
    }
}

#[allow(clippy::too_many_arguments)]
fn backtrack6(
    cell_truth: u64,
    cell_sigs: &[u32],
    cluster_truth: u64,
    cluster_sigs: &[u32],
    n: usize,
    pin: usize,
    assignment: &mut [usize; 6],
    used: &mut [bool; 6],
) -> bool {
    if pin == n {
        return verify_permutation6(cell_truth, cluster_truth, &assignment[..n], n);
    }
    for local in 0..n {
        if used[local] || cell_sigs[pin] != cluster_sigs[local] {
            continue;
        }
        assignment[pin] = local;
        used[local] = true;
        if backtrack6(
            cell_truth,
            cell_sigs,
            cluster_truth,
            cluster_sigs,
            n,
            pin + 1,
            assignment,
            used,
        ) {
            return true;
        }
        used[local] = false;
    }
    assignment[pin] = usize::MAX;
    false
}

/// Complete-assignment check: `cell(x_{σ(0)}, …) = cluster(x_0, …)`.
///
/// Reindexing the cell table by the assignment (`apply_perm6`, a
/// delta-swap network) gives exactly the table whose minterm `m` is
/// `cell[cell_m]` of the old per-minterm loop, so one word compare
/// replaces the `2^n`-iteration bit gather.
fn verify_permutation6(
    cell_truth: u64,
    cluster_truth: u64,
    assignment: &[usize],
    n: usize,
) -> bool {
    let mask = truth::full_mask(n);
    truth::apply_perm6(cell_truth & mask, assignment, n) == cluster_truth & mask
}

/// Complete-assignment check on 7–8-variable tables: permutes the cell
/// table with the 4-word delta-swap network and compares whole words.
fn verify_permutation(
    cell_truth: &Bits,
    cluster_truth: &Bits,
    assignment: &[Option<usize>],
    n: usize,
) -> bool {
    debug_assert!((7..=8).contains(&n));
    let mut perm = [0usize; 8];
    for (p, local) in assignment.iter().enumerate() {
        perm[p] = local.expect("complete assignment");
    }
    let mut cw = [0u64; 4];
    cw[..cell_truth.words().len()].copy_from_slice(cell_truth.words());
    let permuted = truth::apply_perm_wide(cw, &perm, n);
    permuted[..cluster_truth.words().len()] == *cluster_truth.words()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{enumerate_clusters, ClusterLimits};
    use asyncmap_cube::{Cover, VarTable};
    use asyncmap_library::builtin;
    use asyncmap_network::{async_tech_decomp, partition, EquationSet};
    use asyncmap_oracle::gen::{arb_cover, arb_expr, arb_wide_cover};
    use asyncmap_oracle::{
        depends_on, input_signature, permute_match_generic, truth_table_of_generic,
    };
    use proptest::prelude::*;

    impl Matcher<'_> {
        /// The matcher without memo or packed kernels: minterm-at-a-time
        /// truth table, dependence tests, signatures and permutation search
        /// from `asyncmap-oracle`, then the same hazard filter (and counter
        /// updates) as [`Matcher::find_matches`].
        fn find_matches_generic(&self, cluster: &Cluster) -> Vec<Match> {
            let nleaves = cluster.leaves.len();
            let full_truth = truth_table_of_generic(&cluster.expr, nleaves);
            let support: Vec<usize> = (0..nleaves)
                .filter(|&v| depends_on(&full_truth, nleaves, v))
                .collect();
            let n = support.len();
            let truth = project(&full_truth, &support);
            let sigs: Vec<u32> = (0..n).map(|v| input_signature(&truth, n, v)).collect();
            let bucket = match self.sig_index.get(&sig_key(n, truth.count_ones(), &sigs)) {
                Some(bucket) if n > 0 => bucket.as_slice(),
                _ => &[], // constant cluster, or no cell of its signature
            };
            let mut cluster_id: Option<u32> = None;
            let mut out = Vec::new();
            for &e in bucket {
                let entry = &self.entries[e];
                let Some(pin_to_local) = permute_match_generic(&entry.truth, &truth, n) else {
                    continue;
                };
                let pin_to_leaf: Vec<usize> = pin_to_local.iter().map(|&l| support[l]).collect();
                if self.checks_hazards(entry)
                    && !self.hazard_verdict(
                        entry.index,
                        &pin_to_leaf,
                        nleaves,
                        || &cluster.expr,
                        &mut cluster_id,
                    )
                {
                    continue;
                }
                out.push(Match {
                    cell_index: entry.index,
                    pin_to_leaf,
                });
            }
            out
        }
    }

    /// The cones of the single-output design `cover` (variables a, b, …),
    /// or nothing for a tautology.
    fn cones_of(cover: &Cover) -> Option<(Network, Vec<asyncmap_network::Cone>)> {
        if cover.is_tautology() {
            return None;
        }
        let names = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let vars = VarTable::from_names(names[..cover.nvars()].iter().copied());
        let net = async_tech_decomp(&EquationSet::new(
            vars,
            vec![("f".to_owned(), cover.clone())],
        ));
        let cones = partition(&net);
        Some((net, cones))
    }

    /// Matches every cluster of every cone twice through one matcher per
    /// library — the second pass replays the raw-truth, class and wide
    /// memo levels — and compares each list with the memo-free
    /// [`Matcher::find_matches_generic`]. Returns the number of clusters
    /// with more than six leaves.
    fn lists_equal_the_reference(
        cover: &Cover,
        libraries: [asyncmap_library::Library; 2],
    ) -> Result<usize, TestCaseError> {
        let Some((net, cones)) = cones_of(cover) else {
            return Ok(0);
        };
        let mut wide = 0;
        for mut lib in libraries {
            lib.annotate_hazards();
            let matcher = Matcher::new(&lib, HazardPolicy::SubsetCheck);
            for cone in &cones {
                let clusters = enumerate_clusters(&net, cone, &ClusterLimits::default());
                for pass in 0..2 {
                    for cluster in clusters.values().flatten() {
                        wide += usize::from(pass == 0 && cluster.leaves.len() > 6);
                        prop_assert_eq!(
                            matcher.find_matches(cluster),
                            matcher.find_matches_generic(cluster),
                            "match lists diverge in {} (pass {})",
                            lib.name(),
                            pass
                        );
                    }
                }
                prop_assert!(matcher.counters().npn_hits > 0, "no memo replay");
            }
        }
        Ok(wide)
    }

    /// On GDT and Actel under the hazard filter, with a 7–8-leaf cluster
    /// in every case.
    fn wide_case(cover: &Cover) -> Result<(), TestCaseError> {
        let wide = lists_equal_the_reference(cover, [builtin::gdt(), builtin::actel()])?;
        prop_assert!(
            cover.is_tautology() || wide > 0,
            "no 7–8-leaf cluster in {:?}",
            cover
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn match_lists_equal_the_reference(cover in arb_cover()) {
            // Actel's mux modules exercise the hazard-containment
            // verdicts; LSI9K covers the plain-gate bulk.
            lists_equal_the_reference(&cover, [builtin::lsi9k(), builtin::actel()])?;
        }

        #[test]
        fn dependence_and_signatures_agree(e in arb_expr(5)) {
            let n = 5;
            let table = truth_table_of_generic(&e, n);
            let packed = truth::truth6_of(&e, n);
            for v in 0..n {
                let dep = depends_on(&table, n, v);
                prop_assert_eq!(depends_on_words(&table, v), dep, "depends_on_words var {}", v);
                prop_assert_eq!(truth::depends6(packed, n, v), dep, "depends6 var {}", v);
                let sig = input_signature(&table, n, v);
                prop_assert_eq!(input_signature_words(&table, v), sig, "sig_words var {}", v);
                prop_assert_eq!(truth::input_signature6(packed, n, v), sig, "sig6 var {}", v);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn wide_match_lists_equal_the_reference(cover in arb_wide_cover()) {
            wide_case(&cover)?;
        }
    }

    proptest! {
        // The CI case count: run with `--ignored` in release mode.
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        #[ignore = "long; CI runs it in release mode"]
        fn wide_match_lists_equal_the_reference_at_ci_scale(cover in arb_wide_cover()) {
            wide_case(&cover)?;
        }
    }

    fn root_clusters(text: &str, names: &[&str]) -> (asyncmap_network::Network, Vec<Cluster>) {
        let vars = VarTable::from_names(names.iter().copied());
        let f = Cover::parse(text, &vars).unwrap();
        let eqs = EquationSet::new(vars, vec![("f".to_owned(), f)]);
        let net = async_tech_decomp(&eqs);
        let cones = partition(&net);
        let clusters = enumerate_clusters(&net, &cones[0], &ClusterLimits::default());
        let list = clusters[&cones[0].root].clone();
        (net, list)
    }

    #[test]
    fn nand_cluster_matches_nand_cell() {
        let mut lib = builtin::cmos3();
        lib.annotate_hazards();
        // f = (ab)' decomposes to INV(AND(a,b)); the 2-gate root cluster
        // must match NAND2.
        let (_, clusters) = root_clusters("a' + b'", &["a", "b"]);
        let matcher = Matcher::new(&lib, HazardPolicy::SubsetCheck);
        let mut matched_nand = false;
        for c in &clusters {
            for m in matcher.find_matches(c) {
                if lib.cells()[m.cell_index].name().starts_with("NAND2") {
                    matched_nand = true;
                }
            }
        }
        assert!(matched_nand);
    }

    #[test]
    fn permutation_binding_is_correct() {
        let mut lib = builtin::cmos3();
        lib.annotate_hazards();
        // f = a + b'c → OAI-ish structures; check every reported match
        // really computes the cluster function under its binding.
        let (_, clusters) = root_clusters("a + b'c", &["a", "b", "c"]);
        let matcher = Matcher::new(&lib, HazardPolicy::SubsetCheck);
        let mut total = 0;
        for c in &clusters {
            for m in matcher.find_matches(c) {
                total += 1;
                let cell = &lib.cells()[m.cell_index];
                let inst = instantiate(cell.bff(), &m.pin_to_leaf);
                let n = c.leaves.len();
                assert_eq!(
                    truth_table_of(&inst, n),
                    truth_table_of(&c.expr, n),
                    "bad binding for {}",
                    cell.name()
                );
            }
        }
        assert!(total > 0);
    }

    #[test]
    fn figure3_mux_rejected_for_hazard_free_cluster() {
        // The cluster computing ab + a'c *with the redundant consensus
        // cube bc* (hazard-free structure) must NOT be matched by the
        // hazardous two-cube MUX2 cell in async mode, but IS matched in
        // sync mode.
        let mut lib = builtin::cmos3();
        lib.annotate_hazards();
        let (_, clusters) = root_clusters("ab + a'c + bc", &["a", "b", "c"]);
        let full = clusters.iter().max_by_key(|c| c.num_gates).unwrap();

        let sync = Matcher::new(&lib, HazardPolicy::Ignore);
        let sync_names: Vec<&str> = sync
            .find_matches(full)
            .into_iter()
            .map(|m| lib.cells()[m.cell_index].name())
            .collect();
        assert!(sync_names.contains(&"MUX2"), "sync: {sync_names:?}");

        let async_m = Matcher::new(&lib, HazardPolicy::SubsetCheck);
        let async_names: Vec<&str> = async_m
            .find_matches(full)
            .into_iter()
            .map(|m| lib.cells()[m.cell_index].name())
            .collect();
        assert!(!async_names.contains(&"MUX2"), "async: {async_names:?}");
        assert!(async_m.counters().hazard_rejects > 0);
    }

    #[test]
    fn hazardous_cell_accepted_when_cluster_shares_hazards() {
        // The two-cube mux cluster (sa + s'b without consensus) has
        // exactly the MUX2 cell's hazards: the match must be accepted.
        let mut lib = builtin::cmos3();
        lib.annotate_hazards();
        let (_, clusters) = root_clusters("sa + s'b", &["s", "a", "b"]);
        let full = clusters.iter().max_by_key(|c| c.num_gates).unwrap();
        let matcher = Matcher::new(&lib, HazardPolicy::SubsetCheck);
        let names: Vec<&str> = matcher
            .find_matches(full)
            .into_iter()
            .map(|m| lib.cells()[m.cell_index].name())
            .collect();
        assert!(names.contains(&"MUX2"), "{names:?}");
    }

    #[test]
    fn constant_cluster_matches_nothing() {
        let mut lib = builtin::cmos3();
        lib.annotate_hazards();
        let matcher = Matcher::new(&lib, HazardPolicy::SubsetCheck);
        let mut vars = VarTable::new();
        let expr = Expr::parse("a + a'", &mut vars).unwrap();
        let cluster = Cluster {
            root: asyncmap_network::SignalId(0),
            leaves: vec![asyncmap_network::SignalId(0)],
            expr,
            num_gates: 1,
        };
        assert!(matcher.find_matches(&cluster).is_empty());
    }

    #[test]
    #[should_panic(expected = "requires an annotated library")]
    fn async_matcher_requires_annotation() {
        let lib = builtin::cmos3();
        let _ = Matcher::new(&lib, HazardPolicy::SubsetCheck);
    }
}
