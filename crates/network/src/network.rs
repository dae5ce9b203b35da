//! The multi-level logic network: a DAG of primitive gates between primary
//! inputs and named outputs.

use asyncmap_cube::{Bits, VarId, VarTable};
use std::fmt;

/// Identifier of a signal (primary input or gate output) in a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub usize);

impl SignalId {
    /// Numeric index of the signal.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Primitive gate operators of the decomposed (subject) network — the base
/// functions of §3.1 plus inverters and buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateOp {
    /// 2-input AND.
    And,
    /// 2-input OR.
    Or,
    /// Inverter.
    Inv,
    /// Buffer (used for fanout repair after mapping).
    Buf,
}

impl GateOp {
    /// Number of inputs the operator takes.
    pub fn arity(self) -> usize {
        match self {
            GateOp::And | GateOp::Or => 2,
            GateOp::Inv | GateOp::Buf => 1,
        }
    }
}

/// Inline fanin storage of a gate node.
///
/// Every primitive operator has arity ≤ 2, so the fanin list lives inline
/// in the node instead of behind a heap `Vec` — one allocation per gate
/// saved, and node storage becomes a single flat arena (`Vec<NodeKind>`)
/// with no pointer chasing during traversal. Dereferences to `[SignalId]`,
/// so existing `fanin.iter()` / `fanin[k]` / `fanin.len()` call sites work
/// unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fanin {
    len: u8,
    sigs: [SignalId; 2],
}

impl Fanin {
    /// Builds a fanin list from a slice of at most two signals.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty or longer than two signals.
    pub fn from_slice(sigs: &[SignalId]) -> Self {
        assert!(
            (1..=2).contains(&sigs.len()),
            "fanin arity {} out of range",
            sigs.len()
        );
        let mut inline = [SignalId(0); 2];
        inline[..sigs.len()].copy_from_slice(sigs);
        Fanin {
            len: sigs.len() as u8,
            sigs: inline,
        }
    }

    /// The fanin signals as a slice.
    pub fn as_slice(&self) -> &[SignalId] {
        &self.sigs[..self.len as usize]
    }
}

impl std::ops::Deref for Fanin {
    type Target = [SignalId];
    fn deref(&self) -> &[SignalId] {
        self.as_slice()
    }
}

impl From<Vec<SignalId>> for Fanin {
    fn from(v: Vec<SignalId>) -> Self {
        Fanin::from_slice(&v)
    }
}

impl From<[SignalId; 1]> for Fanin {
    fn from(v: [SignalId; 1]) -> Self {
        Fanin::from_slice(&v)
    }
}

impl From<[SignalId; 2]> for Fanin {
    fn from(v: [SignalId; 2]) -> Self {
        Fanin::from_slice(&v)
    }
}

impl<'a> IntoIterator for &'a Fanin {
    type Item = &'a SignalId;
    type IntoIter = std::slice::Iter<'a, SignalId>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A node of the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// A primary input.
    Input,
    /// A primitive gate over previously defined signals.
    Gate {
        /// The operator.
        op: GateOp,
        /// Input signals (length = `op.arity()`), stored inline.
        fanin: Fanin,
    },
}

/// The name of a signal, derived from the network rather than stored:
/// formatting it (with [`fmt::Display`]) is the only time a gate name is
/// spelled out.
///
/// # Examples
///
/// ```
/// use asyncmap_network::{GateOp, Network, SignalName};
/// let mut net = Network::new();
/// let a = net.add_input("a");
/// let g = net.add_gate(GateOp::Inv, [a]);
/// assert_eq!(net.name(a), SignalName::Input("a"));
/// assert_eq!(net.name(g).to_string(), "_g1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalName<'a> {
    /// A primary input's own name.
    Input(&'a str),
    /// A gate output, named `_g{index}` after its signal index.
    Gate(usize),
}

impl fmt::Display for SignalName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignalName::Input(name) => f.write_str(name),
            SignalName::Gate(index) => write!(f, "_g{index}"),
        }
    }
}

/// `true` iff `name` has the form `_g<digits>` of a gate's
/// [`SignalName`], which no primary input may take: an input so named
/// would share its name with a gate.
pub fn is_reserved_gate_name(name: &str) -> bool {
    name.strip_prefix("_g")
        .is_some_and(|digits| !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()))
}

/// A combinational logic network of primitive gates.
///
/// Nodes are append-only and topologically ordered by construction (a gate
/// may only reference earlier signals), which keeps evaluation and
/// traversal linear. Only primary inputs carry stored names; a gate's
/// name is derived from its index ([`SignalName::Gate`]), so adding a gate
/// is a plain array append.
///
/// # Examples
///
/// ```
/// use asyncmap_network::{GateOp, Network};
/// let mut net = Network::new();
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let g = net.add_gate(GateOp::And, vec![a, b]);
/// net.mark_output("f", g);
/// assert_eq!(net.num_gates(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Network {
    /// Primary input names: variable `i` names `inputs[i]`.
    input_names: VarTable,
    nodes: Vec<NodeKind>,
    /// Primary inputs in creation order, so sorted by signal index.
    inputs: Vec<SignalId>,
    outputs: Vec<(String, SignalId)>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty network with room for `signals` signals.
    pub fn with_capacity(signals: usize) -> Self {
        Network {
            nodes: Vec::with_capacity(signals),
            ..Self::default()
        }
    }

    /// Adds a primary input named `name`.
    ///
    /// # Panics
    ///
    /// Panics if the name is already used or is a reserved gate name
    /// ([`is_reserved_gate_name`]).
    pub fn add_input(&mut self, name: &str) -> SignalId {
        assert!(
            self.input_names.lookup(name).is_none(),
            "duplicate signal name {name:?}"
        );
        assert!(
            !is_reserved_gate_name(name),
            "input name {name:?} is reserved for gates"
        );
        let id = SignalId(self.nodes.len());
        self.input_names.intern(name);
        self.nodes.push(NodeKind::Input);
        self.inputs.push(id);
        id
    }

    /// Adds a primitive gate, named after its index
    /// ([`SignalName::Gate`]).
    ///
    /// # Panics
    ///
    /// Panics if the fanin arity does not match the operator or references
    /// an undefined signal.
    pub fn add_gate(&mut self, op: GateOp, fanin: impl Into<Fanin>) -> SignalId {
        let fanin = fanin.into();
        assert_eq!(fanin.len(), op.arity(), "wrong fanin count for {op:?}");
        for f in &fanin {
            assert!(f.0 < self.nodes.len(), "undefined fanin signal {f}");
        }
        let id = SignalId(self.nodes.len());
        self.nodes.push(NodeKind::Gate { op, fanin });
        id
    }

    /// Declares `signal` to be the primary output `name`.
    pub fn mark_output(&mut self, name: &str, signal: SignalId) {
        self.outputs.push((name.to_owned(), signal));
    }

    /// The primary inputs, in creation order.
    pub fn inputs(&self) -> &[SignalId] {
        &self.inputs
    }

    /// The `(name, signal)` primary outputs, in declaration order.
    pub fn outputs(&self) -> &[(String, SignalId)] {
        &self.outputs
    }

    /// The node backing `signal`.
    pub fn node(&self, signal: SignalId) -> &NodeKind {
        &self.nodes[signal.0]
    }

    /// The name of `signal`: an input's own name, otherwise the gate name
    /// `_g{index}` (also for a signal outside the network). Allocates
    /// nothing.
    pub fn name(&self, signal: SignalId) -> SignalName<'_> {
        match self.nodes.get(signal.0) {
            Some(NodeKind::Input) => SignalName::Input(self.input_name(signal)),
            _ => SignalName::Gate(signal.0),
        }
    }

    /// The name of the primary input `signal`.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is not a primary input.
    pub fn input_name(&self, signal: SignalId) -> &str {
        let slot = self
            .inputs
            .binary_search(&signal)
            .unwrap_or_else(|_| panic!("signal {signal} is not a primary input"));
        self.input_names.name(VarId(slot))
    }

    /// Total number of signals (inputs + gates).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the network has no signals.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of gate nodes.
    pub fn num_gates(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, NodeKind::Gate { .. }))
            .count()
    }

    /// All signals in topological (creation) order.
    pub fn signals(&self) -> impl Iterator<Item = SignalId> {
        (0..self.nodes.len()).map(SignalId)
    }

    /// Number of gate nodes that read each signal (primary-output uses not
    /// included).
    pub fn fanout_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes.len()];
        for node in &self.nodes {
            if let NodeKind::Gate { fanin, .. } = node {
                for f in fanin {
                    counts[f.0] += 1;
                }
            }
        }
        counts
    }

    /// Evaluates every signal for the given primary-input assignment
    /// (`inputs[i]` is the value of the `i`-th primary input in creation
    /// order). Returns one value per signal.
    pub fn eval(&self, inputs: &Bits) -> Vec<bool> {
        debug_assert_eq!(inputs.len(), self.inputs.len());
        let mut values = vec![false; self.nodes.len()];
        let mut input_index = 0;
        for (i, node) in self.nodes.iter().enumerate() {
            values[i] = match node {
                NodeKind::Input => {
                    let v = inputs.get(input_index);
                    input_index += 1;
                    v
                }
                NodeKind::Gate { op, fanin } => {
                    let f = |k: usize| values[fanin[k].0];
                    match op {
                        GateOp::And => f(0) && f(1),
                        GateOp::Or => f(0) || f(1),
                        GateOp::Inv => !f(0),
                        GateOp::Buf => f(0),
                    }
                }
            };
        }
        values
    }

    /// Evaluates the named output for a primary-input assignment.
    ///
    /// # Panics
    ///
    /// Panics if no output has that name.
    pub fn eval_output(&self, name: &str, inputs: &Bits) -> bool {
        let (_, sig) = self
            .outputs
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no output named {name:?}"));
        self.eval(inputs)[sig.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_gate_net() -> Network {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let nb = net.add_gate(GateOp::Inv, vec![b]);
        let and1 = net.add_gate(GateOp::And, vec![a, nb]);
        let or1 = net.add_gate(GateOp::Or, vec![and1, c]);
        net.mark_output("f", or1);
        net
    }

    #[test]
    fn construction_and_counts() {
        let net = two_gate_net();
        assert_eq!(net.len(), 6);
        assert_eq!(net.num_gates(), 3);
        assert_eq!(net.inputs().len(), 3);
        assert_eq!(net.outputs().len(), 1);
    }

    #[test]
    fn eval_computes_function() {
        let net = two_gate_net();
        // f = a·b' + c
        for m in 0..8usize {
            let mut bits = Bits::new(3);
            for v in 0..3 {
                bits.set(v, (m >> v) & 1 == 1);
            }
            let (a, b, c) = (bits.get(0), bits.get(1), bits.get(2));
            assert_eq!(net.eval_output("f", &bits), (a && !b) || c);
        }
    }

    #[test]
    fn fanout_counts_gates_only() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let inv = net.add_gate(GateOp::Inv, vec![a]);
        let and1 = net.add_gate(GateOp::And, vec![a, inv]);
        let and2 = net.add_gate(GateOp::And, vec![inv, and1]);
        net.mark_output("f", and2);
        let counts = net.fanout_counts();
        assert_eq!(counts[a.0], 2);
        assert_eq!(counts[inv.0], 2);
        assert_eq!(counts[and1.0], 1);
        assert_eq!(counts[and2.0], 0);
    }

    #[test]
    #[should_panic(expected = "wrong fanin count")]
    fn arity_checked() {
        let mut net = Network::new();
        let a = net.add_input("a");
        net.add_gate(GateOp::And, vec![a]);
    }

    #[test]
    fn names_are_derived_from_the_signal() {
        let net = two_gate_net();
        let names: Vec<String> = net.signals().map(|s| net.name(s).to_string()).collect();
        assert_eq!(names, ["a", "b", "c", "_g3", "_g4", "_g5"]);
        assert_eq!(net.input_name(SignalId(2)), "c");
        assert_eq!(net.name(SignalId(99)), SignalName::Gate(99));
    }

    #[test]
    fn reserved_gate_names() {
        for name in ["_g0", "_g4", "_g123"] {
            assert!(is_reserved_gate_name(name), "{name}");
        }
        for name in ["_g", "_gx", "_g4a", "g4", "a_g4", "_G4", "_g-1"] {
            assert!(!is_reserved_gate_name(name), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "reserved for gates")]
    fn reserved_input_name_rejected() {
        let mut net = Network::new();
        net.add_input("_g4");
    }

    #[test]
    #[should_panic(expected = "duplicate signal name")]
    fn duplicate_input_rejected() {
        let mut net = Network::new();
        net.add_input("a");
        net.add_input("a");
    }
}
