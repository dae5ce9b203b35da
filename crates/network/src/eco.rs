//! Incremental-remap (ECO) support: canonical cone shape keys and dirty
//! propagation over the partition DAG.
//!
//! A cone's cover is a pure function of its *local shape* — the operator
//! tree of its gates with leaves treated as opaque variables — together
//! with the library, limits and objective (all fixed per mapping session).
//! Which network signals happen to carry the leaves, and what logic sits
//! upstream, never enter the covering DP. [`ShapeKeyScratch::append_key`]
//! canonicalizes that local shape into an exact (collision-free) key: two
//! cones with equal keys are isomorphic under the positional correspondence
//! `gates[i] ↔ gates[i]`, `leaves[j] ↔ leaves[j]`, so a cover computed for
//! one translates verbatim to the other.
//!
//! [`PartitionDag`] captures the cone-level dependency structure (a cone
//! consumes another cone's root as a leaf). An edit's *blast radius* —
//! every cone downstream of a shape-changed one — is computed by
//! [`propagate_dirty`]; shape-keyed reuse makes remapping those cones
//! unnecessary for bit-identical results, but the radius is the honest
//! measure of how much of the design an edit could have disturbed.

use crate::{Cone, GateOp, Network, NodeKind, SignalId};
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// Canonical encoding of a cone's local structure. Exact, not a hash:
/// key equality *is* cone-shape isomorphism, so a reuse decision keyed on
/// it carries no collision risk.
///
/// Layout: `[num_leaves, num_gates]`, then per gate of `Cone::gates` (in
/// ascending signal order) the operator tag followed by one local
/// reference per fanin. A local reference encodes leaf position `i` as
/// `i << 1` and gate position `j` as `(j << 1) | 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConeShapeKey(Vec<u32>);

impl ConeShapeKey {
    /// Wraps raw encoded words (as produced by
    /// [`ShapeKeyScratch::append_key`]) back into a key.
    pub fn from_words(words: Vec<u32>) -> Self {
        ConeShapeKey(words)
    }

    /// The raw encoded words.
    pub fn as_slice(&self) -> &[u32] {
        &self.0
    }
}

// Hash as the word slice (explicitly, not derived) so a map keyed by
// `ConeShapeKey` can be probed with a borrowed `&[u32]` — e.g. a slice of
// a per-partition key arena — without allocating a key per lookup.
impl Hash for ConeShapeKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0[..].hash(state);
    }
}

impl Borrow<[u32]> for ConeShapeKey {
    fn borrow(&self) -> &[u32] {
        &self.0
    }
}

fn op_tag(op: GateOp) -> u32 {
    match op {
        GateOp::And => 0,
        GateOp::Or => 1,
        GateOp::Inv => 2,
        GateOp::Buf => 3,
    }
}

impl Cone {
    /// Decodes a local reference (see [`ConeShapeKey`]) back to a signal
    /// of this cone.
    ///
    /// # Panics
    ///
    /// Panics if the reference is out of range for the cone.
    pub fn resolve_local(&self, local: u32) -> SignalId {
        let idx = (local >> 1) as usize;
        if local & 1 == 1 {
            self.gates[idx]
        } else {
            self.leaves[idx]
        }
    }
}

/// Reusable scratch for shape-keying every cone of a partition without
/// per-cone allocation: local references resolve through two epoch-stamped
/// signal-indexed vectors instead of per-cone hash maps, and key words
/// append to a caller-owned arena. One scratch serves every cone of a
/// design; binding the next cone costs its own size, not the network's.
#[derive(Debug, Default)]
pub struct ShapeKeyScratch {
    local: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl ShapeKeyScratch {
    /// Creates an empty scratch; it grows to the network size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }

    /// Binds the scratch to `cone`, so that [`ShapeKeyScratch::local_ref`]
    /// resolves its leaves and gates. Returns `false`, leaving nothing
    /// bound, when a cone signal lies outside `net` or occurs twice among
    /// the cone's leaves and gates: such a cone has no positional
    /// encoding.
    pub fn bind(&mut self, net: &Network, cone: &Cone) -> bool {
        if self.local.len() < net.len() {
            self.local.resize(net.len(), 0);
            self.stamp.resize(net.len(), 0);
        }
        let epoch = self.next_epoch();
        let leaves = cone
            .leaves
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, (i as u32) << 1));
        let gates = cone
            .gates
            .iter()
            .enumerate()
            .map(|(j, &s)| (s, ((j as u32) << 1) | 1));
        for (s, local) in leaves.chain(gates) {
            if s.index() >= net.len() || self.stamp[s.index()] == epoch {
                self.next_epoch();
                return false;
            }
            self.local[s.index()] = local;
            self.stamp[s.index()] = epoch;
        }
        true
    }

    /// Local reference of `signal` in the bound cone: leaf position `i`
    /// encodes as `i << 1`, gate position `j` as `(j << 1) | 1`. `None`
    /// when the signal is neither a leaf nor a gate of the cone (signals
    /// outside the network included).
    pub fn local_ref(&self, signal: SignalId) -> Option<u32> {
        (self.stamp.get(signal.index()) == Some(&self.epoch)).then(|| self.local[signal.index()])
    }

    /// Binds the scratch to `cone` (see [`ShapeKeyScratch::bind`]),
    /// appends the cone's shape-key words (see [`ConeShapeKey`]) to `out`
    /// and returns the appended range. The cone stays bound, so callers
    /// can extend the key with further local references.
    ///
    /// The root needs no word of its own: it is always the cone's last
    /// gate in ascending-signal order (every other gate feeds it
    /// transitively and the network is topologically ordered). Returns
    /// `None`, with `out` unchanged, when the root is not the last gate,
    /// the cone cannot be bound, a cone gate is not a gate node, or a
    /// gate's fanin escapes the cone.
    pub fn append_key(
        &mut self,
        net: &Network,
        cone: &Cone,
        out: &mut Vec<u32>,
    ) -> Option<Range<usize>> {
        if cone.gates.last() != Some(&cone.root) || !self.bind(net, cone) {
            return None;
        }
        let start = out.len();
        out.reserve(2 + cone.gates.len() * 3);
        out.push(cone.leaves.len() as u32);
        out.push(cone.gates.len() as u32);
        for &g in &cone.gates {
            let NodeKind::Gate { op, fanin } = net.node(g) else {
                out.truncate(start);
                return None;
            };
            out.push(op_tag(*op));
            for &f in fanin {
                let Some(local) = self.local_ref(f) else {
                    out.truncate(start);
                    return None;
                };
                out.push(local);
            }
        }
        Some(start..out.len())
    }
}

/// Cone-level dependency DAG of one partition: an edge `p → c` when cone
/// `c` reads cone `p`'s root as a leaf.
#[derive(Debug, Clone)]
pub struct PartitionDag {
    /// `consumers[i]` — indices of the cones that consume cone `i`'s root.
    consumers: Vec<Vec<u32>>,
}

impl PartitionDag {
    /// Indices of the cones consuming cone `i`'s root.
    pub fn consumers(&self, i: usize) -> &[u32] {
        &self.consumers[i]
    }

    /// Number of cones.
    pub fn len(&self) -> usize {
        self.consumers.len()
    }

    /// `true` when the partition has no cones.
    pub fn is_empty(&self) -> bool {
        self.consumers.is_empty()
    }
}

/// Builds the [`PartitionDag`] of `cones` (as produced by
/// [`crate::partition`]; cone order is preserved).
pub fn build_partition_dag(cones: &[Cone]) -> PartitionDag {
    // Roots index densely into the network's signal space, so a flat
    // lookup table beats a hash map; `NONE` marks non-root signals.
    const NONE: u32 = u32::MAX;
    let max_signal = cones
        .iter()
        .flat_map(|c| c.leaves.iter().chain(std::iter::once(&c.root)))
        .map(|s| s.index())
        .max()
        .map_or(0, |m| m + 1);
    let mut root_cone = vec![NONE; max_signal];
    for (i, cone) in cones.iter().enumerate() {
        root_cone[cone.root.index()] = i as u32;
    }
    let mut consumers = vec![Vec::new(); cones.len()];
    for (i, cone) in cones.iter().enumerate() {
        for leaf in &cone.leaves {
            let p = root_cone[leaf.index()];
            if p != NONE {
                consumers[p as usize].push(i as u32);
            }
        }
    }
    PartitionDag { consumers }
}

/// Propagates dirtiness downstream: every cone reachable from a dirty cone
/// through consumer edges becomes dirty. `dirty` is updated in place.
///
/// # Panics
///
/// Panics if `dirty.len()` differs from the DAG's cone count.
pub fn propagate_dirty(dag: &PartitionDag, dirty: &mut [bool]) {
    assert_eq!(dirty.len(), dag.len(), "dirty mask / DAG size mismatch");
    let mut queue: Vec<u32> = (0..dirty.len() as u32)
        .filter(|&i| dirty[i as usize])
        .collect();
    while let Some(i) = queue.pop() {
        for &c in dag.consumers(i as usize) {
            if !dirty[c as usize] {
                dirty[c as usize] = true;
                queue.push(c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{async_tech_decomp, partition, EquationSet};
    use asyncmap_cube::{Cover, VarTable};

    /// One cone's key on a fresh scratch.
    fn cone_shape_key(net: &Network, cone: &Cone) -> ConeShapeKey {
        let mut words = Vec::new();
        ShapeKeyScratch::new()
            .append_key(net, cone, &mut words)
            .expect("partition cones are keyable");
        ConeShapeKey::from_words(words)
    }

    /// The documented encoding, position by linear search: the oracle the
    /// scratch keyer is checked against.
    fn reference_words(net: &Network, cone: &Cone) -> Vec<u32> {
        let local = |s: SignalId| match cone.leaves.iter().position(|&l| l == s) {
            Some(i) => (i as u32) << 1,
            None => ((cone.gates.iter().position(|&g| g == s).unwrap() as u32) << 1) | 1,
        };
        let mut words = vec![cone.leaves.len() as u32, cone.gates.len() as u32];
        for &g in &cone.gates {
            let NodeKind::Gate { op, fanin } = net.node(g) else {
                panic!("cone gate {g} is not a gate node");
            };
            words.push(op_tag(*op));
            words.extend(fanin.iter().map(|&f| local(f)));
        }
        words
    }

    fn eqs_of(pairs: &[(&str, &str)], names: &[&str]) -> EquationSet {
        let vars = VarTable::from_names(names.iter().copied());
        let equations = pairs
            .iter()
            .map(|(n, t)| ((*n).to_owned(), Cover::parse(t, &vars).unwrap()))
            .collect();
        EquationSet::new(vars, equations)
    }

    #[test]
    fn equal_shape_different_signals() {
        // f and g have identical structure over different outputs; the two
        // cones sit at different signal ranges but share one shape key.
        let eqs = eqs_of(&[("f", "ab + cd"), ("g", "ab + cd")], &["a", "b", "c", "d"]);
        let net = async_tech_decomp(&eqs);
        let cones = partition(&net);
        assert_eq!(cones.len(), 2);
        let k0 = cone_shape_key(&net, &cones[0]);
        let k1 = cone_shape_key(&net, &cones[1]);
        assert_eq!(k0, k1);
        assert_ne!(cones[0].root, cones[1].root);
    }

    #[test]
    fn different_shapes_differ() {
        let eqs = eqs_of(
            &[("f", "ab + cd"), ("g", "ab + c'd")],
            &["a", "b", "c", "d"],
        );
        let net = async_tech_decomp(&eqs);
        let cones = partition(&net);
        let keys: Vec<ConeShapeKey> = cones.iter().map(|c| cone_shape_key(&net, c)).collect();
        // g's cone contains an extra inverter, so its key must differ.
        assert_ne!(keys[0], keys[1]);
    }

    #[test]
    fn commuted_fanin_normalizes_positionally() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g1 = net.add_gate(GateOp::And, vec![a, b]);
        let g2 = net.add_gate(GateOp::And, vec![b, a]);
        net.mark_output("f", g1);
        net.mark_output("g", g2);
        let cones = partition(&net);
        let ka = cone_shape_key(&net, &cones[0]);
        let kb = cone_shape_key(&net, &cones[1]);
        // Both cones record their own leaves in first-visit order, so
        // AND(a,b) and AND(b,a) normalize to the same local shape — and
        // that is correct: the positional leaf correspondence maps a↔b,
        // under which the cones are isomorphic.
        assert_eq!(ka, kb);
    }

    #[test]
    fn local_refs_round_trip() {
        let eqs = eqs_of(&[("f", "ab + a'c + bc")], &["a", "b", "c"]);
        let net = async_tech_decomp(&eqs);
        let cones = partition(&net);
        let cone = &cones[0];
        let mut scratch = ShapeKeyScratch::new();
        assert!(scratch.bind(&net, cone));
        for &s in cone.leaves.iter().chain(&cone.gates) {
            let local = scratch.local_ref(s).unwrap();
            assert_eq!(cone.resolve_local(local), s);
        }
        assert_eq!(scratch.local_ref(SignalId(usize::MAX - 1)), None);
    }

    #[test]
    fn dag_edges_follow_shared_logic() {
        // f and g share the inverter of a → the inverter cone feeds both.
        let eqs = eqs_of(&[("f", "a'b"), ("g", "a'b'")], &["a", "b"]);
        let net = async_tech_decomp(&eqs);
        let cones = partition(&net);
        let dag = build_partition_dag(&cones);
        assert_eq!(dag.len(), cones.len());
        let inv_idx = (0..cones.len())
            .find(|&i| cones.iter().any(|c| c.leaves.contains(&cones[i].root)))
            .expect("shared cone");
        assert_eq!(dag.consumers(inv_idx).len(), 2);
    }

    #[test]
    fn dirty_propagates_downstream_only() {
        let eqs = eqs_of(&[("f", "a'b"), ("g", "a'b'")], &["a", "b"]);
        let net = async_tech_decomp(&eqs);
        let cones = partition(&net);
        let dag = build_partition_dag(&cones);
        let inv_idx = (0..cones.len())
            .find(|&i| cones.iter().any(|c| c.leaves.contains(&cones[i].root)))
            .unwrap();
        let mut dirty = vec![false; cones.len()];
        dirty[inv_idx] = true;
        propagate_dirty(&dag, &mut dirty);
        assert!(dirty.iter().all(|&d| d), "inverter feeds every other cone");
        // Marking a sink dirty reaches nothing else.
        let sink = (0..cones.len()).find(|&i| i != inv_idx).unwrap();
        let mut dirty = vec![false; cones.len()];
        dirty[sink] = true;
        propagate_dirty(&dag, &mut dirty);
        assert_eq!(dirty.iter().filter(|&&d| d).count(), 1);
    }

    #[test]
    fn shared_scratch_matches_the_reference_encoding() {
        let eqs = eqs_of(
            &[("f", "ab + a'c + bc"), ("g", "a'd + bc'd")],
            &["a", "b", "c", "d"],
        );
        let net = async_tech_decomp(&eqs);
        let cones = partition(&net);
        let mut scratch = ShapeKeyScratch::new();
        let mut arena = Vec::new();
        for cone in &cones {
            let range = scratch.append_key(&net, cone, &mut arena).unwrap();
            assert_eq!(arena[range], reference_words(&net, cone)[..]);
            // Slice probing must agree with key equality (Borrow contract).
            let key = cone_shape_key(&net, cone);
            let mut m = std::collections::HashMap::new();
            m.insert(key.clone(), 1u8);
            assert_eq!(m.get(key.as_slice()), Some(&1));
        }
    }

    #[test]
    fn malformed_cones_have_no_key() {
        let eqs = eqs_of(&[("f", "ab + a'c + bc")], &["a", "b", "c"]);
        let net = async_tech_decomp(&eqs);
        let cone = partition(&net).remove(0);
        let mut scratch = ShapeKeyScratch::new();
        let mut arena = vec![7];
        let mut escaping = cone.clone();
        escaping.leaves.pop();
        let mut repeated = cone.clone();
        repeated.leaves.push(cone.gates[0]);
        let mut outside = cone.clone();
        outside.leaves.push(SignalId(net.len() + 5));
        let mut inner_root = cone.clone();
        inner_root.root = cone.gates[0];
        for bad in [&escaping, &repeated, &outside, &inner_root] {
            assert_eq!(scratch.append_key(&net, bad, &mut arena), None);
            assert_eq!(arena, [7], "a refused key leaves the arena as it was");
        }
        // A refused bind leaves nothing resolvable behind.
        assert!(!scratch.bind(&net, &repeated));
        assert_eq!(scratch.local_ref(cone.root), None);
        assert!(scratch.append_key(&net, &cone, &mut arena).is_some());
    }

    #[test]
    fn shape_key_is_deterministic() {
        let eqs = eqs_of(&[("f", "ab + a'c + bc")], &["a", "b", "c"]);
        let net = async_tech_decomp(&eqs);
        let cones = partition(&net);
        let a = cone_shape_key(&net, &cones[0]);
        let b = cone_shape_key(&net, &cones[0]);
        assert_eq!(a, b);
        assert_eq!(a.as_slice()[0], cones[0].leaves.len() as u32);
        assert_eq!(a.as_slice()[1], cones[0].gates.len() as u32);
    }
}
