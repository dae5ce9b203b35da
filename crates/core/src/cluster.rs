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
//! Two enumerators live here:
//!
//! * the interned-cut enumerator (default) — a bottom-up dynamic program in
//!   the k-feasible-cut style: sorted leaf sets are interned in a per-cone
//!   [`LeafArena`] (set equality is id equality), each gate's cut list is
//!   computed once from its fanins' interned lists (over-wide unions —
//!   the bulk of the cross product in wide cones — are rejected by a
//!   one-word bloom popcount bound or an early-aborting merge before
//!   anything is hashed), and the cuts are materialized by a single walk
//!   that produces each cut's packed 4-word truth table directly — the
//!   cluster `Expr` is only built lazily, when a hazard check first needs
//!   it. Covering materializes every gate's list; root qualification
//!   ([`crate::qualify_cone_root`]) only the cone root's.
//!   [`enumerate_clusters`] is its eager public view, with an `Expr` per
//!   cluster, for tests.
//! * [`enumerate_clusters_legacy`] — the original per-root recursive
//!   enumerator, kept verbatim as the reference semantics for the
//!   equivalence proptests and the `kernels` bench's per-cone gate.
//!
//! The new enumerator reproduces the legacy pipeline order exactly
//! (cross-product → lexicographic sort → dedup → trivial cut first →
//! truncation at 200 cuts per gate → depth filter), so both yield equal
//! cluster lists and the mapped designs are bit-identical.

use crate::truth::MASKS;
use asyncmap_bff::Expr;
use asyncmap_cube::{VarId, VarTable};
use asyncmap_network::{Cone, GateOp, Network, NodeKind, SignalId};
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};

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
/// Uses the interned-cut enumerator. Clusters come in a deterministic
/// order (trivial cut first, then lexicographic by sorted leaf set), and
/// the lists equal [`enumerate_clusters_legacy`]'s.
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

/// The original recursive enumerator, kept as the reference semantics for
/// equivalence tests and the `kernels` bench's per-cone gate.
#[doc(hidden)]
pub fn enumerate_clusters_legacy(
    net: &Network,
    cone: &Cone,
    limits: &ClusterLimits,
) -> HashMap<SignalId, Vec<Cluster>> {
    let cone_gates: HashSet<SignalId> = cone.gates.iter().copied().collect();
    // cuts[g] = leaf sets of clusters rooted at g, each sorted.
    let mut cuts: HashMap<SignalId, Vec<Vec<SignalId>>> = HashMap::new();
    for &g in &cone.gates {
        // cone.gates is in topological (ascending id) order.
        let NodeKind::Gate { fanin, .. } = net.node(g) else {
            unreachable!("cone gate is not a gate")
        };
        let mut gate_cuts: Vec<Vec<SignalId>> = Vec::new();
        let fanin_options: Vec<Vec<Vec<SignalId>>> = fanin
            .iter()
            .map(|&f| {
                let mut options = vec![vec![f]]; // stop at the fanin signal
                if cone_gates.contains(&f) {
                    if let Some(sub) = cuts.get(&f) {
                        options.extend(sub.iter().cloned());
                    }
                }
                options
            })
            .collect();
        cross_product(&fanin_options, &mut gate_cuts);
        // The trivial cut (the gate's own fanin) must always survive the
        // cap: it guarantees every gate is coverable by a base cell.
        let mut trivial: Vec<SignalId> = fanin.to_vec();
        trivial.sort();
        trivial.dedup();
        gate_cuts.sort();
        gate_cuts.dedup();
        gate_cuts.retain(|c| *c != trivial);
        gate_cuts.truncate(MAX_CUTS_PER_GATE - 1);
        gate_cuts.insert(0, trivial);
        cuts.insert(g, gate_cuts);
    }
    // Materialize clusters and apply the depth bound.
    let mut out: HashMap<SignalId, Vec<Cluster>> = HashMap::new();
    for &g in &cone.gates {
        let mut clusters = Vec::new();
        for cut in &cuts[&g] {
            // Cuts are sorted and deduplicated, so membership is a binary
            // search — no per-cluster hash set.
            if let Some(cluster) = build_cluster(net, g, cut, limits) {
                clusters.push(cluster);
            }
        }
        out.insert(g, clusters);
    }
    out
}

fn cross_product(options: &[Vec<Vec<SignalId>>], out: &mut Vec<Vec<SignalId>>) {
    fn rec(
        options: &[Vec<Vec<SignalId>>],
        idx: usize,
        acc: &mut Vec<SignalId>,
        out: &mut Vec<Vec<SignalId>>,
    ) {
        if idx == options.len() {
            let mut cut = acc.clone();
            cut.sort();
            cut.dedup();
            if cut.len() <= ClusterLimits::MAX_LEAVES {
                out.push(cut);
            }
            return;
        }
        for choice in &options[idx] {
            let mark = acc.len();
            acc.extend(choice.iter().copied());
            rec(options, idx + 1, acc, out);
            acc.truncate(mark);
        }
    }
    let mut acc = Vec::new();
    rec(options, 0, &mut acc, out);
}

/// Builds the cluster for a given cut (sorted ascending), returning `None`
/// when the depth bound is exceeded.
fn build_cluster(
    net: &Network,
    root: SignalId,
    cut: &[SignalId],
    limits: &ClusterLimits,
) -> Option<Cluster> {
    let mut leaves: Vec<SignalId> = Vec::new();
    let mut num_gates = 0usize;
    let expr = walk(
        net,
        root,
        cut,
        0,
        limits.max_depth,
        &mut leaves,
        &mut num_gates,
    )?;
    Some(Cluster {
        root,
        leaves,
        expr,
        num_gates,
    })
}

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
        VarTable::from_names(self.leaves.iter().map(|&s| net.name(s).to_owned()))
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
    /// Cone-membership stamps, indexed by signal id: `stamp[s] == generation`
    /// iff `s` is a gate of the current cone.
    stamp: Vec<u32>,
    /// Dense gate index (position in the cone's gate list) per signal id,
    /// valid where `stamp` matches the current generation.
    dense: Vec<u32>,
    generation: u32,
    /// CSR storage of the per-gate post-truncation cut-id lists consumed
    /// by downstream cross-products: `cut_spans[k]` is the `(start, len)`
    /// of gate `k`'s ids in `cut_data`.
    cut_data: Vec<u32>,
    cut_spans: Vec<(u32, u32)>,
    /// The current gate's cut ids while being built, sorted and truncated.
    gate_buf: Vec<u32>,
    /// Output buffer of [`LeafArena::merge_bounded`].
    merge: Vec<SignalId>,
    /// Sorted/deduped trivial-cut buffer.
    trivial_buf: Vec<SignalId>,
}

/// Capacity snapshot of every [`EnumScratch`] buffer, for counting
/// allocation (capacity-growth) events per cone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ScratchCaps {
    caps: [usize; 10],
}

impl EnumScratch {
    fn capacities(&self) -> ScratchCaps {
        ScratchCaps {
            caps: [
                self.arena.data.capacity(),
                self.arena.spans.capacity(),
                self.arena.sigs.capacity(),
                self.arena.slots.len(),
                self.stamp.capacity(),
                self.cut_data.capacity(),
                self.cut_spans.capacity(),
                self.gate_buf.capacity(),
                self.merge.capacity(),
                self.trivial_buf.capacity(),
            ],
        }
    }

    /// Number of buffers that grew since `before` — each one is at least
    /// one heap (re)allocation.
    fn growth_events(&self, before: &ScratchCaps) -> usize {
        let now = self.capacities();
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
}

/// Bottom-up cut enumeration over `cone`: one pass over the gates in
/// topological order, each gate's cut list built from its fanins' interned
/// lists (the exact legacy sets).
///
/// All working storage comes from the thread-local [`EnumScratch`], so in
/// steady state the dynamic program allocates only its output.
pub(crate) fn enumerate_cuts(net: &Network, cone: &Cone, limits: &ClusterLimits) -> ConeCuts {
    SCRATCH.with(|s| enumerate_cuts_in(&mut s.borrow_mut(), net, cone, limits, Materialize::Every))
}

/// [`enumerate_cuts`] for a caller that reads only the cone root's list:
/// the dynamic program still builds every gate's interned cut-id list
/// (the root's cross-products consume them), but the materialization walk
/// runs at the root alone. Every other gate's list is empty.
pub(crate) fn enumerate_root_cuts(net: &Network, cone: &Cone, limits: &ClusterLimits) -> ConeCuts {
    SCRATCH.with(|s| enumerate_cuts_in(&mut s.borrow_mut(), net, cone, limits, Materialize::Root))
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
    net: &Network,
    cone: &Cone,
    limits: &ClusterLimits,
    materialize: Materialize,
) -> ConeCuts {
    let caps_before = scr.capacities();
    scr.arena.reset();
    scr.cut_data.clear();
    scr.cut_spans.clear();
    // Stamp the cone's gates with a fresh generation; on (u32) wraparound
    // clear the stamps once.
    scr.generation = scr.generation.wrapping_add(1);
    if scr.generation == 0 {
        scr.stamp.fill(0);
        scr.generation = 1;
    }
    let max_id = cone.gates.last().map_or(0, |g| g.0 + 1);
    if scr.stamp.len() < max_id {
        scr.stamp.resize(max_id, 0);
        scr.dense.resize(max_id, 0);
    }
    for (k, &g) in cone.gates.iter().enumerate() {
        scr.stamp[g.0] = scr.generation;
        scr.dense[g.0] = k as u32;
    }
    // Disjoint field borrows for the main loop.
    let EnumScratch {
        arena,
        stamp,
        dense,
        generation,
        cut_data,
        cut_spans,
        gate_buf,
        merge,
        trivial_buf,
    } = scr;
    let generation = *generation;
    // Sub-cut span of fanin `f`: its CSR range when `f` is a cone gate
    // (always already processed — `cone.gates` is topological), else empty.
    let sub_span = |f: SignalId, cut_spans: &[(u32, u32)], k: usize| -> (u32, u32) {
        if f.0 < stamp.len() && stamp[f.0] == generation {
            let d = dense[f.0] as usize;
            debug_assert!(d < k, "fanin gate follows its user in cone order");
            cut_spans[d]
        } else {
            (0, 0)
        }
    };
    let mut lists: Vec<Vec<CutCluster>> = Vec::with_capacity(cone.gates.len());
    let mut truncations = 0usize;
    for (k, &g) in cone.gates.iter().enumerate() {
        let NodeKind::Gate { fanin, .. } = net.node(g) else {
            unreachable!("cone gate is not a gate")
        };
        // Cross product of the fanin option lists (trivial leaf first,
        // then the fanin's own cuts), merging interned sets pairwise.
        // Arity is at most 2, so the product is two nested loops — no
        // recursion, no per-gate option vectors. Over-wide unions — the
        // bulk of the product in wide cones — are rejected by a bloom
        // popcount bound or an early-aborting merge before anything is
        // hashed or interned.
        gate_buf.clear();
        let f0 = fanin[0];
        let s0 = arena.intern(&[f0]);
        let (r0_start, r0_len) = sub_span(f0, cut_spans, k);
        match fanin.len() {
            1 => {
                for i in 0..=r0_len as usize {
                    let choice = if i == 0 {
                        s0
                    } else {
                        cut_data[r0_start as usize + i - 1]
                    };
                    if arena.len_of(choice) > ClusterLimits::MAX_LEAVES {
                        continue;
                    }
                    gate_buf.push(choice);
                }
            }
            2 => {
                let f1 = fanin[1];
                let s1 = arena.intern(&[f1]);
                let (r1_start, r1_len) = sub_span(f1, cut_spans, k);
                for i in 0..=r0_len as usize {
                    let a = if i == 0 {
                        s0
                    } else {
                        cut_data[r0_start as usize + i - 1]
                    };
                    if arena.len_of(a) > ClusterLimits::MAX_LEAVES {
                        continue;
                    }
                    cross_pairs(arena, a, s1, (r1_start, r1_len), cut_data, gate_buf, merge);
                }
            }
            n => unreachable!("base-gate arity {n}"),
        }
        // Legacy pipeline order: sort lexicographically by set content,
        // dedup (same content ⇒ same id), pull the trivial cut to the
        // front, truncate.
        trivial_buf.clear();
        trivial_buf.extend_from_slice(fanin);
        trivial_buf.sort();
        trivial_buf.dedup();
        let trivial = arena.intern(trivial_buf);
        gate_buf.sort_by(|&a, &b| arena.slice(a).cmp(arena.slice(b)));
        gate_buf.dedup();
        gate_buf.retain(|&c| c != trivial);
        let cap = MAX_CUTS_PER_GATE - 1;
        if gate_buf.len() > cap {
            truncations += 1;
        }
        gate_buf.truncate(cap);
        gate_buf.insert(0, trivial);
        // Publish the post-truncation ids for downstream cross-products.
        let start = u32::try_from(cut_data.len()).expect("cut CSR overflow");
        cut_data.extend_from_slice(gate_buf);
        cut_spans.push((start, gate_buf.len() as u32));
        if materialize == Materialize::Root && g != cone.root {
            lists.push(Vec::new());
            continue;
        }
        // Materialize; the depth filter happens in the walk.
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
    let grown = scr.growth_events(&caps_before);
    crate::profile::record_enum_cone(grown as u64);
    ConeCuts {
        gates: cone.gates.clone(),
        lists,
        truncations,
    }
}

/// Inner cross-product loop: pairs the accumulated set `a` with every
/// option of the second fanin (trivial leaf `s1` first, then the CSR span
/// `r1` of its own cuts), pushing each in-bound union's interned id.
///
/// The bloom popcount lower bound on the union size (distinct signals can
/// only collide in the bloom word, never split) rejects most over-wide
/// pairs before the merge; the sub-cut spans are screened four candidates
/// at a time so the filter runs word-parallel.
fn cross_pairs(
    arena: &mut LeafArena,
    a: u32,
    s1: u32,
    r1: (u32, u32),
    cut_data: &[u32],
    out: &mut Vec<u32>,
    merge: &mut Vec<SignalId>,
) {
    let max_leaves = ClusterLimits::MAX_LEAVES;
    let sa = arena.sigs[a as usize];
    // The trivial second option first (legacy option order).
    let lb = (sa | arena.sigs[s1 as usize]).count_ones();
    if lb as usize <= max_leaves && arena.merge_bounded(a, s1, max_leaves, merge) {
        out.push(arena.intern(merge));
    }
    let subs = &cut_data[r1.0 as usize..(r1.0 + r1.1) as usize];
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
            let mut bits = asyncmap_cube::Bits::new(3);
            for v in 0..3 {
                bits.set(v, (m >> v) & 1 == 1);
            }
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

    /// The interned-cut enumerator yields exactly the legacy clusters, in
    /// the legacy order.
    #[test]
    fn enumeration_equals_legacy() {
        for (text, names) in [
            ("ab + a'c + bc", vec!["a", "b", "c"]),
            ("ab' + cd + a'd'", vec!["a", "b", "c", "d"]),
            ("ab + ab'", vec!["a", "b"]),
        ] {
            let (net, cone) = cone_of(text, &names);
            let limits = ClusterLimits::default();
            let new = enumerate_clusters(&net, &cone, &limits);
            let legacy = enumerate_clusters_legacy(&net, &cone, &limits);
            for g in &cone.gates {
                let key = |c: &Cluster| (c.leaves.clone(), c.num_gates, format!("{:?}", c.expr));
                let new_keys: Vec<_> = new[g].iter().map(key).collect();
                let legacy_keys: Vec<_> = legacy[g].iter().map(key).collect();
                assert_eq!(new_keys, legacy_keys, "{text}: gate {g}");
            }
        }
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

    /// The walk's 4-word tables equal the tables of the lazily built
    /// expressions at every width, 7–8 leaves included (the matcher's memo
    /// keys on these words, so any divergence would corrupt matching).
    #[test]
    fn cut_tables_match_lazy_expr() {
        let mut widths = HashSet::new();
        for (text, names) in [
            ("ab + a'c + bc", vec!["a", "b", "c"]),
            (
                "ab + cd + ef + gh",
                vec!["a", "b", "c", "d", "e", "f", "g", "h"],
            ),
        ] {
            let (net, cone) = cone_of(text, &names);
            let cuts = enumerate_cuts(&net, &cone, &ClusterLimits::default());
            for &g in &cone.gates {
                for c in cuts.clusters(g) {
                    let want = crate::truth::truth_table_words(c.expr(&net), 8);
                    assert_eq!(c.table, want.words(), "{text}: walk table diverges");
                    widths.insert(c.leaves.len());
                }
            }
        }
        assert!(widths.contains(&7) && widths.contains(&8), "{widths:?}");
    }
}
