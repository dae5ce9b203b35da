//! Cluster (cut) enumeration: the candidate subnetworks of a cone that the
//! matcher compares against library cells.
//!
//! A cluster rooted at gate `g` is the tree of base gates from `g` down to
//! a chosen *cut* of leaf signals. Because a cone is a tree of gates, a
//! cluster is uniquely identified by its leaf set, and enumeration is a
//! bounded product of the fanin cut sets. Bounds follow CERES: a maximum
//! gate depth (the paper's tables use "depth of 5") and a fixed maximum
//! leaf count, [`ClusterLimits::MAX_LEAVES`] (8): the widest built-in cell,
//! and the widest support on which the hazard filter's transition sweep
//! is exact.
//!
//! The enumerator is a bottom-up dynamic program in the k-feasible-cut
//! style: sorted leaf sets are interned in a per-cone [`LeafArena`] (set
//! equality is id equality), each gate's cut list is computed once from
//! its fanins' interned lists, and the cuts are materialized by a single
//! walk that produces each cut's packed 4-word truth table directly — the
//! cluster `Expr` is only built lazily, when a hazard check first needs
//! it. Covering materializes every gate's list; root qualification
//! ([`crate::qualify_cone_root`]) only the cone root's.
//! [`enumerate_clusters`] is its eager public view, with an `Expr` per
//! cluster, for tests.
//!
//! The lists follow the original per-root recursive enumerator's pipeline
//! order exactly (cross-product → lexicographic sort → dedup → trivial cut
//! first → truncation at 200 cuts per gate → depth filter); that
//! enumerator is kept as the reference in the development-only
//! `asyncmap-oracle` crate, and the differential tests require equal
//! cluster lists.
//!
//! Most of a wide cone's cross product is over-wide: on dean-ctrl about 98%
//! of the (a, b) pairs of fanin options have more than
//! [`ClusterLimits::MAX_LEAVES`] leaves in their union. Three screens, each
//! exact, drop them before anything is hashed:
//!
//! 1. **Size bound.** Each gate publishes its final cut ids for its users'
//!    cross products sorted by set size, with per-size offsets. Pairing a
//!    first-fanin option `a` with the cuts `b` of the second fanin, only
//!    the members of `a` that occur in some cut of the second fanin can be
//!    shared, so `|a ∪ b| ≥ |a| + |b| − ov(a)` with `ov(a)` the number of
//!    such members, and the scan reads only the prefix of cuts with
//!    `|b| ≤ MAX_LEAVES − |a| + ov(a)`. **Invariant:** every pair the
//!    bound skips has a union wider than the bound, whatever the cone's
//!    shape, so the cut lists are unchanged. The gate's own list (what
//!    truncation keeps and materialization walks) stays in lexicographic
//!    order; only the published copy for downstream scans is size-sorted.
//! 2. **Bloom bound.** `popcount(sig(a) | sig(b))` is a lower bound on
//!    `|a ∪ b|`, four candidates at a time.
//! 3. **Bounded merge.** The sorted merge aborts as soon as the union
//!    passes the bound.

use crate::truth::MASKS;
use asyncmap_bff::Expr;
use asyncmap_cube::{VarId, VarTable};
use asyncmap_network::{Cone, GateOp, Network, NodeKind, SignalId};
use std::cell::OnceCell;
use std::collections::HashMap;

/// A candidate subnetwork for matching.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The gate whose output the cluster computes.
    pub root: SignalId,
    /// Leaf signals, deduplicated in first-visit order.
    pub leaves: Vec<SignalId>,
    /// The cluster's structure over local variables (`leaves[i]` =
    /// variable `i`).
    pub expr: Expr,
    /// Number of gates the cluster covers.
    pub num_gates: usize,
}

/// Enumeration limits: the cluster depth bound. The leaf bound is the
/// fixed [`ClusterLimits::MAX_LEAVES`], so every cluster's truth table
/// packs into four words and every hazard verdict is an exact sweep; a
/// gate keeps at most 200 cuts (the trivial cut always among them).
#[derive(Debug, Clone, Copy)]
pub struct ClusterLimits {
    /// Maximum gate depth of a cluster (paper: 5).
    pub max_depth: usize,
}

impl ClusterLimits {
    /// Maximum number of distinct leaves of a cluster: the widest built-in
    /// cell, and [`asyncmap_hazard::EXHAUSTIVE_VAR_LIMIT`], the widest
    /// support the matcher's hazard sweep decides exactly.
    pub const MAX_LEAVES: usize = asyncmap_hazard::EXHAUSTIVE_VAR_LIMIT;
}

/// Cap on cuts kept per gate (guards pathological cones).
const MAX_CUTS_PER_GATE: usize = 200;

impl Default for ClusterLimits {
    fn default() -> Self {
        ClusterLimits { max_depth: 5 }
    }
}

/// Enumerates the clusters rooted at every gate of `cone`, keyed by root
/// signal.
///
/// Clusters come in a deterministic order (trivial cut first, then
/// lexicographic by sorted leaf set).
///
/// This is the eager view: it builds an `Expr` for every cut of every
/// gate. The mapper ([`crate::cover_cone_with`]) and root qualification
/// ([`crate::qualify_cone_root`]) match the cuts directly and build an
/// expression only when a hazard check needs one, so the only callers of
/// this function are tests and reference loops that feed
/// [`crate::Matcher::find_matches`].
pub fn enumerate_clusters(
    net: &Network,
    cone: &Cone,
    limits: &ClusterLimits,
) -> HashMap<SignalId, Vec<Cluster>> {
    let cuts = enumerate_cuts(net, cone, limits);
    cone.gates
        .iter()
        .map(|&g| {
            let list = cuts
                .clusters(g)
                .iter()
                .map(|c| Cluster {
                    root: c.root,
                    leaves: c.leaves.clone(),
                    expr: c.expr(net).clone(),
                    num_gates: c.num_gates,
                })
                .collect();
            (g, list)
        })
        .collect()
}

/// The cluster structure from `signal` down to the sorted `cut`, leaves
/// numbered in first-visit order, or `None` past the depth bound.
#[allow(clippy::too_many_arguments)]
fn walk(
    net: &Network,
    signal: SignalId,
    cut: &[SignalId],
    depth: usize,
    max_depth: usize,
    leaves: &mut Vec<SignalId>,
    num_gates: &mut usize,
) -> Option<Expr> {
    if depth > 0 && cut.binary_search(&signal).is_ok() {
        // Leaves are few (at most `MAX_LEAVES`), so a linear scan beats
        // a hash map for variable lookup.
        let v = match leaves.iter().position(|&s| s == signal) {
            Some(i) => VarId(i),
            None => {
                leaves.push(signal);
                VarId(leaves.len() - 1)
            }
        };
        return Some(Expr::Var(v));
    }
    if depth >= max_depth {
        return None;
    }
    let NodeKind::Gate { op, fanin } = net.node(signal) else {
        // Reached a primary input that is not in the cut: the cut is
        // malformed for this walk.
        unreachable!("walk hit a non-cut input signal");
    };
    *num_gates += 1;
    let mut args = Vec::with_capacity(fanin.len());
    for &f in fanin {
        args.push(walk(net, f, cut, depth + 1, max_depth, leaves, num_gates)?);
    }
    Some(match op {
        GateOp::And => Expr::and(args),
        GateOp::Or => Expr::or(args),
        GateOp::Inv => args.into_iter().next().expect("inverter fanin").not(),
        GateOp::Buf => args.into_iter().next().expect("buffer fanin"),
    })
}

impl Cluster {
    /// A local variable table naming the cluster leaves after their network
    /// signals.
    pub fn local_vars(&self, net: &Network) -> VarTable {
        VarTable::from_names(self.leaves.iter().map(|&s| net.name(s).to_string()))
    }
}

// ---------------------------------------------------------------------------
// Interned-cut dynamic program (the default enumerator).
// ---------------------------------------------------------------------------

/// Sentinel for an empty slot of the open-addressed intern table.
const EMPTY_SLOT: u32 = u32::MAX;

/// Per-cone interner of sorted leaf sets. Sets live concatenated in one
/// backing vector; an id is an index into the span table, so set equality
/// is id equality and every set is stored once per cone no matter how many
/// cross-product combinations produce it.
///
/// The arena is designed for reuse across cones (see [`EnumScratch`]):
/// [`LeafArena::reset`] clears the logical contents but keeps every
/// backing allocation, so in steady state interning allocates nothing.
/// The content-hash index is a flat open-addressed table (linear probing,
/// power-of-two capacity) rather than a `HashMap<u64, Vec<u32>>` — no
/// per-bucket `Vec`s to allocate, and resetting it is a single `fill`.
#[derive(Debug, Default)]
struct LeafArena {
    /// Concatenated sorted sets.
    data: Vec<SignalId>,
    /// id → (start, len) into `data`.
    spans: Vec<(u32, u32)>,
    /// id → one-word bloom signature (bit `s.index() & 63` per member):
    /// `sig(a) & !sig(b) != 0` proves `a ⊄ b` without touching the slices.
    sigs: Vec<u64>,
    /// Open-addressed intern table: set id per slot, [`EMPTY_SLOT`] when
    /// free. Capacity is a power of two.
    slots: Vec<u32>,
    /// Content hash of the set in the same slot (valid where `slots` is
    /// occupied); lets probes skip slice compares on hash mismatch.
    hashes: Vec<u64>,
    /// Number of occupied slots.
    live: usize,
}

impl LeafArena {
    /// Clears the arena for the next cone without releasing any capacity.
    fn reset(&mut self) {
        self.data.clear();
        self.spans.clear();
        self.sigs.clear();
        self.slots.fill(EMPTY_SLOT);
        self.live = 0;
    }

    fn hash_set(set: &[SignalId]) -> u64 {
        // Same multiply-rotate fold as the memo hasher; the table probes
        // from the low bits, which the xor-fold finisher keeps mixed.
        let mut h = set.len() as u64;
        for &s in set {
            h = crate::fxhash::mix(h, s.0 as u64);
        }
        crate::fxhash::finish(h)
    }

    /// Doubles (or initializes) the intern table and reinserts the live
    /// ids by their stored hashes.
    fn grow_table(&mut self, new_cap: usize) {
        debug_assert!(new_cap.is_power_of_two());
        let old: Vec<(u32, u64)> = self
            .slots
            .iter()
            .zip(&self.hashes)
            .filter(|&(&id, _)| id != EMPTY_SLOT)
            .map(|(&id, &h)| (id, h))
            .collect();
        self.slots.clear();
        self.slots.resize(new_cap, EMPTY_SLOT);
        self.hashes.clear();
        self.hashes.resize(new_cap, 0);
        let mask = new_cap - 1;
        for (id, h) in old {
            let mut i = h as usize & mask;
            while self.slots[i] != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
            self.slots[i] = id;
            self.hashes[i] = h;
        }
    }

    /// Interns a sorted, deduplicated set, returning its id (existing or
    /// new).
    fn intern(&mut self, set: &[SignalId]) -> u32 {
        debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "set must be sorted");
        let h = Self::hash_set(set);
        if self.slots.is_empty() {
            self.grow_table(256);
        }
        let mask = self.slots.len() - 1;
        let mut i = h as usize & mask;
        loop {
            let id = self.slots[i];
            if id == EMPTY_SLOT {
                break;
            }
            if self.hashes[i] == h && self.slice(id) == set {
                return id;
            }
            i = (i + 1) & mask;
        }
        let id = u32::try_from(self.spans.len()).expect("leaf-set arena overflow");
        let start = u32::try_from(self.data.len()).expect("leaf-set arena overflow");
        self.data.extend_from_slice(set);
        self.spans.push((start, set.len() as u32));
        self.sigs
            .push(set.iter().fold(0u64, |a, s| a | 1 << (s.index() & 63)));
        self.slots[i] = id;
        self.hashes[i] = h;
        self.live += 1;
        // Rehash at ~3/4 load to keep probe chains short.
        if (self.live + 1) * 4 > self.slots.len() * 3 {
            self.grow_table(self.slots.len() * 2);
        }
        id
    }

    fn slice(&self, id: u32) -> &[SignalId] {
        let (start, len) = self.spans[id as usize];
        &self.data[start as usize..(start + len) as usize]
    }

    fn len_of(&self, id: u32) -> usize {
        self.spans[id as usize].1 as usize
    }

    /// Sorted-merge union of two interned sets into `out` (cleared first),
    /// aborting with `false` as soon as the union exceeds `cap` elements.
    ///
    /// Callers prefilter with the bloom signatures first:
    /// `popcount(sig(a) | sig(b))` is a lower bound on the union size
    /// (collisions only shrink it), so most over-wide pairs are rejected
    /// in three word ops without touching the slices. This matters: in the
    /// benchmark cones ~98% of cross-product pairs blow the leaf bound,
    /// and hashing them into the arena first made the enumerator slower
    /// than the legacy one.
    fn merge_bounded(&self, a: u32, b: u32, cap: usize, out: &mut Vec<SignalId>) -> bool {
        let (xs, ys) = (self.slice(a), self.slice(b));
        if xs.len().max(ys.len()) > cap {
            return false;
        }
        out.clear();
        let (mut i, mut j) = (0, 0);
        while i < xs.len() && j < ys.len() {
            if out.len() >= cap {
                return false;
            }
            match xs[i].cmp(&ys[j]) {
                std::cmp::Ordering::Less => {
                    out.push(xs[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(ys[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(xs[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        if out.len() + (xs.len() - i) + (ys.len() - j) > cap {
            return false;
        }
        out.extend_from_slice(&xs[i..]);
        out.extend_from_slice(&ys[j..]);
        true
    }
}

/// A materialized cut: the matcher-facing view of one cluster, carrying
/// the packed truth table computed during the walk instead of an `Expr`.
/// The expression is built lazily — only a hazard check ever needs it.
#[derive(Debug)]
pub(crate) struct CutCluster {
    /// The gate whose output the cluster computes.
    pub(crate) root: SignalId,
    /// Leaf signals, deduplicated in first-visit order (identical to the
    /// legacy [`Cluster::leaves`] ordering, so pin bindings and instance
    /// inputs come out bit-identical).
    pub(crate) leaves: Vec<SignalId>,
    /// Number of gates the cluster covers.
    pub(crate) num_gates: usize,
    /// Packed truth table over `leaves` (`leaves[i]` = variable `i`) as a
    /// function of 8 variables: bit `m & 63` of word `m >> 6` is minterm
    /// `m`, and the bits beyond `2^nleaves` replicate the valid block.
    pub(crate) table: [u64; 4],
    max_depth: usize,
    expr: OnceCell<Expr>,
}

impl CutCluster {
    /// The cluster expression, built on first use by re-walking the cone
    /// (the walk revisits leaves in the same first-visit order).
    pub(crate) fn expr(&self, net: &Network) -> &Expr {
        self.expr.get_or_init(|| {
            let mut cut = self.leaves.clone();
            cut.sort();
            let mut leaves = Vec::new();
            let mut num_gates = 0usize;
            let expr = walk(
                net,
                self.root,
                &cut,
                0,
                self.max_depth,
                &mut leaves,
                &mut num_gates,
            )
            .expect("materialized cut re-walks within the depth bound");
            debug_assert_eq!(leaves, self.leaves);
            debug_assert_eq!(num_gates, self.num_gates);
            expr
        })
    }
}

/// The cut sets of one cone, enumerated bottom-up with interned leaf
/// sets. Storage is dense: one cluster list per cone
/// gate, aligned with the cone's (ascending) gate order — no per-cone hash
/// map.
#[derive(Debug)]
pub(crate) struct ConeCuts {
    /// The cone's gates, ascending (copied from [`Cone::gates`]).
    gates: Vec<SignalId>,
    /// Match-candidate clusters per gate, aligned with `gates`.
    lists: Vec<Vec<CutCluster>>,
    /// Number of gates whose cut list hit the per-gate cap of 200 cuts and
    /// lost cuts to truncation.
    pub(crate) truncations: usize,
}

impl ConeCuts {
    /// The match-candidate clusters rooted at `g`, trivial cut first.
    pub(crate) fn clusters(&self, g: SignalId) -> &[CutCluster] {
        let i = self
            .gates
            .binary_search(&g)
            .expect("signal is a gate of the enumerated cone");
        &self.lists[i]
    }

    /// The match-candidate clusters rooted at the cone's `k`-th gate (in
    /// ascending gate order), trivial cut first.
    pub(crate) fn list(&self, k: usize) -> &[CutCluster] {
        &self.lists[k]
    }
}

/// Dense cone-local gate index: the position of each gate in its cone's
/// (ascending) gate list, in stamped arrays indexed by signal id, so a
/// lookup is two loads instead of a binary search. Rebinding to the next
/// cone costs one write per gate; the arrays keep their capacity.
#[derive(Debug, Default)]
pub(crate) struct ConeIndex {
    /// `stamp[s] == generation` iff `s` is a gate of the bound cone.
    stamp: Vec<u32>,
    /// Position of `s` in the bound cone's gate list, valid where `stamp`
    /// matches.
    dense: Vec<u32>,
    generation: u32,
}

impl ConeIndex {
    /// Binds the index to a cone's gate list (ascending signal ids).
    pub(crate) fn bind(&mut self, gates: &[SignalId]) {
        // A fresh generation invalidates the previous cone; on (u32)
        // wraparound clear the stamps once.
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.fill(0);
            self.generation = 1;
        }
        let max_id = gates.last().map_or(0, |g| g.0 + 1);
        if self.stamp.len() < max_id {
            self.stamp.resize(max_id, 0);
            self.dense.resize(max_id, 0);
        }
        for (k, &g) in gates.iter().enumerate() {
            self.stamp[g.0] = self.generation;
            self.dense[g.0] = k as u32;
        }
    }

    /// The position of `s` in the bound cone's gate list, or `None` when
    /// `s` is not one of its gates.
    #[inline]
    pub(crate) fn get(&self, s: SignalId) -> Option<usize> {
        (self.stamp.get(s.0) == Some(&self.generation)).then(|| self.dense[s.0] as usize)
    }
}

/// One gate's published cut ids in the enumerator's CSR storage, sorted
/// by set size so that a cross-product scan reads only the prefix of the
/// sizes that can still fit (see [`cross_pairs`]).
#[derive(Debug, Clone, Copy, Default)]
struct CutRun {
    /// Offset of the gate's first id in `cut_data`.
    start: u32,
    /// `size_ends[s]`: the number of the gate's cuts with at most `s`
    /// leaves; `size_ends[MAX_LEAVES]` is the whole run.
    size_ends: [u8; ClusterLimits::MAX_LEAVES + 1],
}

// Per-gate run lengths are counted in `u8`.
const _: () = assert!(MAX_CUTS_PER_GATE <= u8::MAX as usize);

impl CutRun {
    /// The run's first `len` ids.
    fn ids<'d>(&self, cut_data: &'d [u32], len: u8) -> &'d [u32] {
        &cut_data[self.start as usize..self.start as usize + len as usize]
    }

    /// All of the run's ids.
    fn all<'d>(&self, cut_data: &'d [u32]) -> &'d [u32] {
        self.ids(cut_data, self.size_ends[ClusterLimits::MAX_LEAVES])
    }
}

/// Reusable per-thread working state of the cut enumerator. Every buffer
/// the per-cone dynamic program needs lives here and survives across
/// cones, so after the first few cones have sized them, enumeration runs
/// allocation-free — only the returned [`ConeCuts`] (the per-cone output)
/// is freshly allocated. Capacity-growth events are counted per cone and
/// surfaced through [`crate::profile`] / [`crate::MapStats`].
#[derive(Debug, Default)]
struct EnumScratch {
    arena: LeafArena,
    /// CSR storage of the per-gate post-truncation cut-id lists consumed
    /// by downstream cross-products: `cut_runs[k]` locates gate `k`'s ids
    /// in `cut_data`, where they are sorted by set size.
    cut_data: Vec<u32>,
    cut_runs: Vec<CutRun>,
    /// The current gate's cut ids while being built, sorted
    /// lexicographically and truncated.
    gate_buf: Vec<u32>,
    /// Per-signal-id marks of the members of the second fanin's cuts,
    /// for the size bound: `shared[s] == shared_gen` iff `s` is in some
    /// cut of the current gate's second fanin. One byte per signal; the
    /// marks are cleared once per 255 gates.
    shared: Vec<u8>,
    shared_gen: u8,
    /// Output buffer of [`LeafArena::merge_bounded`].
    merge: Vec<SignalId>,
    /// Sorted/deduped trivial-cut buffer.
    trivial_buf: Vec<SignalId>,
}

/// Capacity snapshot of every [`EnumScratch`] buffer, for counting
/// allocation (capacity-growth) events per cone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ScratchCaps {
    caps: [usize; 11],
}

impl EnumScratch {
    fn capacities(&self, index: &ConeIndex) -> ScratchCaps {
        ScratchCaps {
            caps: [
                self.arena.data.capacity(),
                self.arena.spans.capacity(),
                self.arena.sigs.capacity(),
                self.arena.slots.len(),
                index.stamp.capacity(),
                self.cut_data.capacity(),
                self.cut_runs.capacity(),
                self.gate_buf.capacity(),
                self.shared.capacity(),
                self.merge.capacity(),
                self.trivial_buf.capacity(),
            ],
        }
    }

    /// Number of buffers that grew since `before` — each one is at least
    /// one heap (re)allocation.
    fn growth_events(&self, index: &ConeIndex, before: &ScratchCaps) -> usize {
        let now = self.capacities(index);
        now.caps
            .iter()
            .zip(&before.caps)
            .filter(|(a, b)| a != b)
            .count()
    }
}

thread_local! {
    /// One [`EnumScratch`] per mapping thread: `enumerate_cuts` is called
    /// once per cone from the covering loop, and the scratch keeps its
    /// capacity across cones (and across designs within a process).
    static SCRATCH: std::cell::RefCell<EnumScratch> =
        std::cell::RefCell::new(EnumScratch::default());
    /// One [`ConeIndex`] per mapping thread, shared by the enumerator and
    /// the cover DP (see [`with_cone_index`]).
    static CONE_INDEX: std::cell::RefCell<ConeIndex> =
        std::cell::RefCell::new(ConeIndex::default());
}

/// Runs `f` with this thread's [`ConeIndex`] bound to `gates`. Not
/// re-entrant: `f` must not enumerate cuts or bind the index again.
pub(crate) fn with_cone_index<R>(gates: &[SignalId], f: impl FnOnce(&ConeIndex) -> R) -> R {
    CONE_INDEX.with(|index| {
        let mut index = index.borrow_mut();
        index.bind(gates);
        f(&index)
    })
}

/// Bottom-up cut enumeration over `cone`: one pass over the gates in
/// topological order, each gate's cut list built from its fanins' interned
/// lists (the exact legacy sets).
///
/// All working storage comes from the thread-local [`EnumScratch`], so in
/// steady state the dynamic program allocates only its output.
pub(crate) fn enumerate_cuts(net: &Network, cone: &Cone, limits: &ClusterLimits) -> ConeCuts {
    enumerate(net, cone, limits, Materialize::Every)
}

/// [`enumerate_cuts`] for a caller that reads only the cone root's list:
/// the dynamic program still builds every gate's interned cut-id list
/// (the root's cross-products consume them), but the materialization walk
/// runs at the root alone. Every other gate's list is empty.
pub(crate) fn enumerate_root_cuts(net: &Network, cone: &Cone, limits: &ClusterLimits) -> ConeCuts {
    enumerate(net, cone, limits, Materialize::Root)
}

fn enumerate(
    net: &Network,
    cone: &Cone,
    limits: &ClusterLimits,
    materialize: Materialize,
) -> ConeCuts {
    with_cone_index(&cone.gates, |index| {
        SCRATCH
            .with(|s| enumerate_cuts_in(&mut s.borrow_mut(), index, net, cone, limits, materialize))
    })
}

/// Which gates' match-candidate lists [`enumerate_cuts_in`] materializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Materialize {
    /// Every gate's (covering).
    Every,
    /// The cone root's only (root qualification).
    Root,
}

fn enumerate_cuts_in(
    scr: &mut EnumScratch,
    index: &ConeIndex,
    net: &Network,
    cone: &Cone,
    limits: &ClusterLimits,
    materialize: Materialize,
) -> ConeCuts {
    let caps_before = scr.capacities(index);
    scr.arena.reset();
    scr.cut_data.clear();
    scr.cut_runs.clear();
    // Every cut member precedes the cone's last gate.
    let max_id = cone.gates.last().map_or(0, |g| g.0 + 1);
    if scr.shared.len() < max_id {
        scr.shared.resize(max_id, 0);
    }
    // Disjoint field borrows for the main loop.
    let EnumScratch {
        arena,
        cut_data,
        cut_runs,
        gate_buf,
        shared,
        shared_gen,
        merge,
        trivial_buf,
    } = scr;
    // Sub-cut run of fanin `f`: its CSR run when `f` is a cone gate
    // (always already processed — `cone.gates` is topological), else
    // empty.
    let sub_run = |f: SignalId, cut_runs: &[CutRun], k: usize| -> CutRun {
        index.get(f).map_or(CutRun::default(), |d| {
            debug_assert!(d < k, "fanin gate follows its user in cone order");
            cut_runs[d]
        })
    };
    let mut lists: Vec<Vec<CutCluster>> = Vec::with_capacity(cone.gates.len());
    let mut truncations = 0usize;
    let mut screens = 0u64;
    for (k, &g) in cone.gates.iter().enumerate() {
        let NodeKind::Gate { fanin, .. } = net.node(g) else {
            unreachable!("cone gate is not a gate")
        };
        // Cross product of the fanin option lists (trivial leaf first,
        // then the fanin's own cuts), merging interned sets pairwise.
        // Arity is at most 2, so the product is two nested loops — no
        // recursion, no per-gate option vectors. Over-wide unions — the
        // bulk of the product in wide cones — are skipped by a size bound
        // or rejected by a bloom popcount bound or an early-aborting merge
        // before anything is hashed or interned.
        gate_buf.clear();
        let f0 = fanin[0];
        let s0 = arena.intern(&[f0]);
        let run0 = sub_run(f0, cut_runs, k);
        let options0 = std::iter::once(s0).chain(run0.all(cut_data).iter().copied());
        match fanin.len() {
            // Every cut has at most `MAX_LEAVES` leaves, so each option
            // of a single fanin is a cut of the gate.
            1 => gate_buf.extend(options0),
            2 => {
                let f1 = fanin[1];
                let s1 = arena.intern(&[f1]);
                let run1 = sub_run(f1, cut_runs, k);
                // Mark the members of the second fanin's cuts: only those
                // can be shared with a first-fanin option.
                *shared_gen = shared_gen.wrapping_add(1);
                if *shared_gen == 0 {
                    shared.fill(0);
                    *shared_gen = 1;
                }
                for &b in run1.all(cut_data) {
                    for &m in arena.slice(b) {
                        shared[m.0] = *shared_gen;
                    }
                }
                let is_shared = |m: SignalId| shared[m.0] == *shared_gen;
                for a in options0 {
                    let fit = fitting_size(arena.slice(a), is_shared);
                    let subs = run1.ids(cut_data, run1.size_ends[fit]);
                    screens += cross_pairs(arena, a, s1, subs, gate_buf, merge);
                }
            }
            n => unreachable!("base-gate arity {n}"),
        }
        // Legacy pipeline order: sort lexicographically by set content,
        // dedup (same content ⇒ same id), pull the trivial cut to the
        // front, truncate. Distinct ids have distinct contents, so an
        // unstable sort orders them exactly as a stable one.
        trivial_buf.clear();
        trivial_buf.extend_from_slice(fanin);
        trivial_buf.sort();
        trivial_buf.dedup();
        let trivial = arena.intern(trivial_buf);
        gate_buf.sort_unstable_by(|&a, &b| arena.slice(a).cmp(arena.slice(b)));
        gate_buf.dedup();
        gate_buf.retain(|&c| c != trivial);
        let cap = MAX_CUTS_PER_GATE - 1;
        if gate_buf.len() > cap {
            truncations += 1;
        }
        gate_buf.truncate(cap);
        gate_buf.insert(0, trivial);
        cut_runs.push(publish_by_size(arena, gate_buf, cut_data));
        if materialize == Materialize::Root && g != cone.root {
            lists.push(Vec::new());
            continue;
        }
        // Materialize in lexicographic order; the depth filter happens in
        // the walk.
        let mut list: Vec<CutCluster> = Vec::with_capacity(gate_buf.len());
        for &id in gate_buf.iter() {
            let mut leaves = Vec::with_capacity(arena.len_of(id));
            let mut num_gates = 0usize;
            let Some(table) = walk_truth(
                net,
                g,
                arena.slice(id),
                0,
                limits.max_depth,
                &mut leaves,
                &mut num_gates,
            ) else {
                continue;
            };
            list.push(CutCluster {
                root: g,
                leaves,
                num_gates,
                table,
                max_depth: limits.max_depth,
                expr: OnceCell::new(),
            });
        }
        lists.push(list);
    }
    let grown = scr.growth_events(index, &caps_before);
    crate::profile::record_enum_cone(screens, grown as u64);
    ConeCuts {
        gates: cone.gates.clone(),
        lists,
        truncations,
    }
}

/// Publishes a gate's final cut ids (`ids`, lexicographic) to the CSR
/// storage for downstream cross-products, counting-sorted by set size
/// (stable, so ids of one size keep their lexicographic order), and
/// returns the run with its size offsets.
fn publish_by_size(arena: &LeafArena, ids: &[u32], cut_data: &mut Vec<u32>) -> CutRun {
    let start = u32::try_from(cut_data.len()).expect("cut CSR overflow");
    // Histogram of sizes, then its running sum: `size_ends[s]` counts the
    // cuts of at most `s` leaves, and `next[s]` is where the next cut of
    // size `s` goes.
    let mut size_ends = [0u8; ClusterLimits::MAX_LEAVES + 1];
    for &id in ids {
        size_ends[arena.len_of(id)] += 1;
    }
    let mut next = [0u8; ClusterLimits::MAX_LEAVES + 1];
    let mut total = 0u8;
    for (end, slot) in size_ends.iter_mut().zip(&mut next) {
        *slot = total;
        total += *end;
        *end = total;
    }
    cut_data.resize(start as usize + ids.len(), 0);
    for &id in ids {
        let slot = &mut next[arena.len_of(id)];
        cut_data[start as usize + *slot as usize] = id;
        *slot += 1;
    }
    CutRun { start, size_ends }
}

/// The size bound of a cross-product scan: the largest size of a second
/// fanin's cut `b` whose union with the first-fanin option `a` can still
/// fit in [`ClusterLimits::MAX_LEAVES`] leaves. Only the members of `a`
/// that occur in some cut of the second fanin (`is_shared`) can be in
/// `b`, so with `ov(a)` their number, `|a ∪ b| ≥ |a| + |b| − ov(a)`, and
/// only `|b| ≤ MAX_LEAVES − |a| + ov(a)` can fit. The bound is exact: it
/// assumes nothing about the cone's shape.
fn fitting_size(a: &[SignalId], is_shared: impl Fn(SignalId) -> bool) -> usize {
    let ov = a.iter().filter(|&&m| is_shared(m)).count();
    (ClusterLimits::MAX_LEAVES + ov - a.len()).min(ClusterLimits::MAX_LEAVES)
}

/// Inner cross-product loop: pairs the accumulated set `a` with every
/// option of the second fanin — the trivial leaf `s1` first, then `subs`,
/// the prefix of its size-sorted cuts that [`fitting_size`] lets through
/// — pushing each in-bound union's interned id. Returns the number of
/// pairs screened.
///
/// The bloom popcount lower bound on the union size (distinct signals can
/// only collide in the bloom word, never split) rejects most remaining
/// over-wide pairs before the merge; the candidates are screened four at a
/// time so the filter runs word-parallel.
fn cross_pairs(
    arena: &mut LeafArena,
    a: u32,
    s1: u32,
    subs: &[u32],
    out: &mut Vec<u32>,
    merge: &mut Vec<SignalId>,
) -> u64 {
    let max_leaves = ClusterLimits::MAX_LEAVES;
    let sa = arena.sigs[a as usize];
    // The trivial second option first (legacy option order).
    let lb = (sa | arena.sigs[s1 as usize]).count_ones();
    if lb as usize <= max_leaves && arena.merge_bounded(a, s1, max_leaves, merge) {
        out.push(arena.intern(merge));
    }
    for chunk in subs.chunks(4) {
        // Gather the candidates' bloom words; padding lanes get all ones
        // (popcount 64, never under any real leaf bound).
        let sg: [u64; 4] =
            std::array::from_fn(|i| chunk.get(i).map_or(!0u64, |&c| arena.sigs[c as usize]));
        let counts = sg.map(|w| (sa | w).count_ones());
        for (i, &c) in chunk.iter().enumerate() {
            if counts[i] as usize > max_leaves {
                continue;
            }
            if !arena.merge_bounded(a, c, max_leaves, merge) {
                continue;
            }
            out.push(arena.intern(merge));
        }
    }
    subs.len() as u64
}

/// Leaf masks for the 4-word (256-minterm, 8-variable) packed tables:
/// variable `v` is true exactly on the minterms whose bit `v` is set. The
/// first six rows replicate the one-word [`MASKS`] patterns; variables 6
/// and 7 toggle at word granularity.
const WMASKS: [[u64; 4]; 8] = [
    [MASKS[0]; 4],
    [MASKS[1]; 4],
    [MASKS[2]; 4],
    [MASKS[3]; 4],
    [MASKS[4]; 4],
    [MASKS[5]; 4],
    [0, !0, 0, !0],
    [0, 0, !0, !0],
];

/// The materialization walk: identical traversal to [`walk`] (first-visit
/// leaf order, stop at the first cut member, depth bound), but computes
/// the packed 4-word truth table directly instead of building an `Expr`:
/// the 8-variable [`crate::truth::truth_table_words`] of the expression
/// the walk would build. Returns `None` when the depth bound is exceeded.
fn walk_truth(
    net: &Network,
    signal: SignalId,
    cut: &[SignalId],
    depth: usize,
    max_depth: usize,
    leaves: &mut Vec<SignalId>,
    num_gates: &mut usize,
) -> Option<[u64; 4]> {
    if depth > 0 && cut.binary_search(&signal).is_ok() {
        let v = match leaves.iter().position(|&s| s == signal) {
            Some(i) => i,
            None => {
                leaves.push(signal);
                leaves.len() - 1
            }
        };
        // A cut has at most `MAX_LEAVES` (8) members.
        return Some(WMASKS[v]);
    }
    if depth >= max_depth {
        return None;
    }
    let NodeKind::Gate { op, fanin } = net.node(signal) else {
        unreachable!("walk hit a non-cut input signal");
    };
    *num_gates += 1;
    let words = match op {
        GateOp::And => {
            let mut acc = [!0u64; 4];
            for &f in fanin {
                let w = walk_truth(net, f, cut, depth + 1, max_depth, leaves, num_gates)?;
                acc = and4(acc, w);
            }
            acc
        }
        GateOp::Or => {
            let mut acc = [0u64; 4];
            for &f in fanin {
                let w = walk_truth(net, f, cut, depth + 1, max_depth, leaves, num_gates)?;
                acc = or4(acc, w);
            }
            acc
        }
        GateOp::Inv => {
            let f = *fanin.first().expect("inverter fanin");
            not4(walk_truth(
                net,
                f,
                cut,
                depth + 1,
                max_depth,
                leaves,
                num_gates,
            )?)
        }
        GateOp::Buf => {
            let f = *fanin.first().expect("buffer fanin");
            walk_truth(net, f, cut, depth + 1, max_depth, leaves, num_gates)?
        }
    };
    Some(words)
}

// 4-word table combiners for the walk.

#[inline]
fn and4(a: [u64; 4], b: [u64; 4]) -> [u64; 4] {
    std::array::from_fn(|i| a[i] & b[i])
}

#[inline]
fn or4(a: [u64; 4], b: [u64; 4]) -> [u64; 4] {
    std::array::from_fn(|i| a[i] | b[i])
}

#[inline]
fn not4(a: [u64; 4]) -> [u64; 4] {
    a.map(|x| !x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::Cover;
    use asyncmap_network::{async_tech_decomp, partition, EquationSet};
    use std::collections::HashSet;

    fn cone_of(text: &str, names: &[&str]) -> (Network, Cone) {
        let vars = VarTable::from_names(names.iter().copied());
        let f = Cover::parse(text, &vars).unwrap();
        let eqs = EquationSet::new(vars, vec![("f".to_owned(), f)]);
        let net = async_tech_decomp(&eqs);
        let cones = partition(&net);
        assert_eq!(cones.len(), 1);
        let cone = cones[0].clone();
        (net, cone)
    }

    #[test]
    fn every_gate_has_its_trivial_cluster() {
        let (net, cone) = cone_of("ab + a'c", &["a", "b", "c"]);
        let clusters = enumerate_clusters(&net, &cone, &ClusterLimits::default());
        for g in &cone.gates {
            let list = &clusters[g];
            assert!(
                list.iter().any(|c| c.num_gates == 1),
                "gate {g} lacks its single-gate cluster"
            );
        }
    }

    #[test]
    fn root_cluster_can_cover_whole_cone() {
        let (net, cone) = cone_of("ab + a'c", &["a", "b", "c"]);
        let clusters = enumerate_clusters(&net, &cone, &ClusterLimits::default());
        let at_root = &clusters[&cone.root];
        let full = at_root
            .iter()
            .find(|c| c.num_gates == cone.num_gates())
            .expect("whole-cone cluster missing");
        // Function check: full cluster computes ab + a'c over its leaves.
        let local = full.local_vars(&net);
        let want = Cover::parse_tokens("a*b + a'*c", &local).unwrap();
        for m in 0..8usize {
            let bits = asyncmap_cube::Bits::from_index(3, m);
            assert_eq!(full.expr.eval(&bits), want.eval(&bits));
        }
    }

    #[test]
    fn depth_bound_limits_clusters() {
        let (net, cone) = cone_of("abcd + a'b'c'd'", &["a", "b", "c", "d"]);
        let tight = ClusterLimits { max_depth: 1 };
        let clusters = enumerate_clusters(&net, &cone, &tight);
        for list in clusters.values() {
            for c in list {
                assert_eq!(c.num_gates, 1, "depth-1 cluster covers one gate");
            }
        }
    }

    /// A cone over 15 inputs: its cuts reach the leaf bound, and one
    /// gate's list overflows the per-gate cap.
    fn wide_cone() -> (Network, Cone) {
        let names = [
            "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n", "o",
        ];
        cone_of("ab'c + def' + ghi + jk'l + mno'", &names)
    }

    #[test]
    fn leaf_limit_enforced() {
        let (net, cone) = wide_cone();
        let clusters = enumerate_clusters(&net, &cone, &ClusterLimits::default());
        let widest = clusters.values().flatten().map(|c| c.leaves.len()).max();
        assert_eq!(widest, Some(ClusterLimits::MAX_LEAVES));
    }

    #[test]
    fn repeated_input_is_one_leaf() {
        // f = ab + ab': input a feeds two AND gates inside the cone.
        let (net, cone) = cone_of("ab + ab'", &["a", "b"]);
        let clusters = enumerate_clusters(&net, &cone, &ClusterLimits::default());
        let at_root = &clusters[&cone.root];
        let full = at_root.iter().max_by_key(|c| c.num_gates).unwrap();
        // Leaves are a and b only (a deduplicated).
        assert!(full.leaves.len() <= 3); // a, b, and possibly the INV output
    }

    #[test]
    fn arena_interns_once_and_merges_bounded() {
        let mut arena = LeafArena::default();
        let s = |i: usize| SignalId(i);
        let a = arena.intern(&[s(1), s(3)]);
        let b = arena.intern(&[s(1), s(2), s(3)]);
        assert_eq!(arena.intern(&[s(1), s(3)]), a, "re-intern returns the id");
        // Bloom collisions (64 apart) still merge correctly.
        let c = arena.intern(&[s(65)]);
        let mut merged = Vec::new();
        assert!(arena.merge_bounded(a, c, 8, &mut merged));
        assert_eq!(merged, vec![s(1), s(3), s(65)]);
        // The bounded merge aborts as soon as the union exceeds the cap.
        assert!(!arena.merge_bounded(a, c, 2, &mut merged));
        assert!(
            arena.merge_bounded(a, b, 3, &mut merged),
            "union is a,b's 3"
        );
    }

    /// Root-only materialization gives the root exactly the list full
    /// materialization gives it, and nothing elsewhere.
    #[test]
    fn root_only_mode_materializes_the_same_root_list() {
        for (text, names) in [
            ("ab + a'c + bc", vec!["a", "b", "c"]),
            ("ab' + cd + a'd'", vec!["a", "b", "c", "d"]),
            ("ab + ab'", vec!["a", "b"]),
            ("abc + a'b'c'", vec!["a", "b", "c"]),
            (
                "ab + cd + ef + gh",
                vec!["a", "b", "c", "d", "e", "f", "g", "h"],
            ),
        ] {
            let (net, cone) = cone_of(text, &names);
            let limits = ClusterLimits::default();
            let full = enumerate_cuts(&net, &cone, &limits);
            let root_only = enumerate_root_cuts(&net, &cone, &limits);
            let view = |c: &CutCluster| (c.leaves.clone(), c.num_gates, c.table);
            let want: Vec<_> = full.clusters(cone.root).iter().map(view).collect();
            let got: Vec<_> = root_only.clusters(cone.root).iter().map(view).collect();
            assert_eq!(got, want, "{text}: root list differs");
            assert_eq!(root_only.truncations, full.truncations, "{text}");
            for &g in cone.gates.iter().filter(|&&g| g != cone.root) {
                assert!(
                    root_only.clusters(g).is_empty(),
                    "{text}: gate {g} materialized"
                );
            }
        }
    }

    #[test]
    fn truncation_events_are_counted() {
        let (net, cone) = cone_of("ab' + cd + a'd'", &["a", "b", "c", "d"]);
        let roomy = enumerate_cuts(&net, &cone, &ClusterLimits::default());
        assert_eq!(roomy.truncations, 0, "the cap is not hit here");
        let (net, cone) = wide_cone();
        let truncated = enumerate_cuts(&net, &cone, &ClusterLimits::default());
        assert!(truncated.truncations > 0, "the cap truncates some gate");
        for &g in &cone.gates {
            let list = truncated.clusters(g);
            assert!(list.len() <= MAX_CUTS_PER_GATE);
            assert_eq!(list[0].num_gates, 1, "trivial cut survives first");
        }
    }

    /// The cones of the seeded 16-input shared-leaf SOP design `seed`.
    fn shared_leaf_sop(seed: u64) -> Option<(Network, Vec<Cone>)> {
        let f = asyncmap_oracle::gen::shared_leaf_sop(seed)?;
        let vars = VarTable::from_names((0..16).map(|i| format!("x{i}")));
        let net = async_tech_decomp(&EquationSet::new(vars, vec![("f".to_owned(), f)]));
        let cones = partition(&net);
        Some((net, cones))
    }

    /// Every pair the size bound skips is over-wide, and the bound does
    /// skip pairs — also where the two fanins share leaves (`ov(a) > 0`).
    /// Reads the published runs the enumerator leaves in its scratch.
    #[test]
    fn size_bound_skips_only_over_wide_pairs() {
        let mut designs: Vec<(Network, Vec<Cone>)> = (0..6).filter_map(shared_leaf_sop).collect();
        let eqs = asyncmap_burst::benchmark("abcs");
        let net = async_tech_decomp(&eqs);
        let cones = partition(&net);
        designs.push((net, cones));
        let (mut skipped, mut skipped_with_overlap) = (0usize, 0usize);
        for (net, cones) in &designs {
            for cone in cones {
                let _ = enumerate_cuts(net, cone, &ClusterLimits::default());
                let index = CONE_INDEX.with(|i| std::mem::take(&mut *i.borrow_mut()));
                SCRATCH.with(|scr| {
                    let scr = scr.borrow();
                    let run_of = |f: SignalId| index.get(f).map(|d| scr.cut_runs[d]);
                    for &g in &cone.gates {
                        let NodeKind::Gate { fanin, .. } = net.node(g) else {
                            unreachable!()
                        };
                        let [f0, f1] = fanin[..] else { continue };
                        let Some(run1) = run_of(f1) else { continue };
                        let subs = run1.all(&scr.cut_data);
                        let sizes: Vec<usize> = subs.iter().map(|&b| scr.arena.len_of(b)).collect();
                        assert!(
                            sizes.windows(2).all(|w| w[0] <= w[1]),
                            "run not size-sorted"
                        );
                        let members: HashSet<SignalId> = subs
                            .iter()
                            .flat_map(|&b| scr.arena.slice(b).iter().copied())
                            .collect();
                        let mut options0 = vec![vec![f0]];
                        if let Some(run0) = run_of(f0) {
                            options0.extend(
                                run0.all(&scr.cut_data)
                                    .iter()
                                    .map(|&a| scr.arena.slice(a).to_vec()),
                            );
                        }
                        for a in &options0 {
                            let fit = fitting_size(a, |m| members.contains(&m));
                            let ov = a.iter().filter(|m| members.contains(m)).count();
                            for &b in &subs[run1.size_ends[fit] as usize..] {
                                let b_slice = scr.arena.slice(b);
                                let shared = a.iter().filter(|m| b_slice.contains(m)).count();
                                assert!(
                                    a.len() + b_slice.len() - shared > ClusterLimits::MAX_LEAVES,
                                    "skipped a fitting pair {a:?} + {:?}",
                                    scr.arena.slice(b)
                                );
                                skipped += 1;
                                skipped_with_overlap += usize::from(ov > 0);
                            }
                        }
                    }
                });
            }
        }
        assert!(
            skipped > 0 && skipped_with_overlap > 0,
            "{skipped} {skipped_with_overlap}"
        );
    }

    /// Asserts that every cut the walk keeps for a gate of `cone` under
    /// depth bound `max_depth` carries the table of its lazily built
    /// expression, and records each cut's width in `widths`. Returns the
    /// cone's truncation count.
    fn assert_cone_tables_match(
        net: &Network,
        cone: &Cone,
        max_depth: usize,
        what: &str,
        widths: &mut HashSet<usize>,
    ) -> usize {
        let cuts = enumerate_cuts(net, cone, &ClusterLimits { max_depth });
        for &g in &cone.gates {
            for c in cuts.clusters(g) {
                let want = crate::truth::truth_table_words(c.expr(net), 8);
                assert_eq!(
                    c.table,
                    want.words(),
                    "{what}: gate {g} (depth {max_depth}): walk table diverges"
                );
                widths.insert(c.leaves.len());
            }
        }
        cuts.truncations
    }

    /// The cones of the 11 Table 5 benchmarks, each with its name.
    fn benchmark_designs() -> Vec<(String, Network, Vec<Cone>)> {
        asyncmap_burst::all_benchmarks()
            .into_iter()
            .map(|(name, eqs)| {
                let net = async_tech_decomp(&eqs);
                let cones = partition(&net);
                (name.to_owned(), net, cones)
            })
            .collect()
    }

    /// The cones of the shared-leaf SOP designs with seeds `seeds`, each
    /// with a label.
    fn sop_designs(seeds: std::ops::Range<u64>) -> Vec<(String, Network, Vec<Cone>)> {
        seeds
            .filter_map(|seed| {
                let (net, cones) = shared_leaf_sop(seed)?;
                Some((format!("sop seed {seed}"), net, cones))
            })
            .collect()
    }

    /// The walk's 4-word tables equal the tables of the lazily built
    /// expressions at every width, 7–8 leaves included (the matcher's memo
    /// keys on these words, so any divergence would corrupt matching), on
    /// every cone of the 11 Table 5 benchmarks — dean-ctrl's truncated
    /// gates included — and of seeded shared-leaf SOP designs.
    #[test]
    fn cut_tables_match_lazy_expr() {
        let mut designs = Vec::new();
        for (text, names) in [
            ("ab + a'c + bc", vec!["a", "b", "c"]),
            (
                "ab + cd + ef + gh",
                vec!["a", "b", "c", "d", "e", "f", "g", "h"],
            ),
        ] {
            let (net, cone) = cone_of(text, &names);
            designs.push((text.to_owned(), net, vec![cone]));
        }
        designs.extend(benchmark_designs());
        designs.extend(sop_designs(0..6));
        let (mut widths, mut truncated) = (HashSet::new(), 0);
        for (what, net, cones) in &designs {
            for cone in cones {
                truncated += assert_cone_tables_match(net, cone, 5, what, &mut widths);
            }
        }
        assert!(widths.contains(&7) && widths.contains(&8), "{widths:?}");
        assert!(truncated > 0, "some benchmark gate hits the cut cap");
    }

    /// [`cut_tables_match_lazy_expr`] at a larger scale: every depth bound
    /// from 2 to 6 on the benchmarks and 96 seeded SOP designs. Run in
    /// release: `cargo test --release -p asyncmap-core --lib
    /// cut_tables_match_lazy_expr_at_ci_scale -- --ignored`.
    #[test]
    #[ignore]
    fn cut_tables_match_lazy_expr_at_ci_scale() {
        let mut widths = HashSet::new();
        let benchmarks = benchmark_designs();
        for max_depth in 2..=6 {
            for (what, net, cones) in &benchmarks {
                for cone in cones {
                    assert_cone_tables_match(net, cone, max_depth, what, &mut widths);
                }
            }
        }
        for (what, net, cones) in &sop_designs(0..96) {
            for cone in cones {
                assert_cone_tables_match(net, cone, 5, what, &mut widths);
            }
        }
        assert!(widths.contains(&7) && widths.contains(&8), "{widths:?}");
    }
}
