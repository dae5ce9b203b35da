//! A small hash-consed reduced ordered binary decision diagram (ROBDD)
//! package.
//!
//! CERES-style technology mapping uses Boolean operations on canonical
//! function representations for matching and verification (Mailhot &
//! De Micheli). This crate provides exactly the operations the mapper and
//! the hazard analyses need:
//!
//! * canonical construction from covers ([`Manager::from_cover`]), so
//!   functional equivalence is pointer equality;
//! * the `ite`/apply family;
//! * satisfiability queries ([`Manager::any_sat`], [`Manager::sat_count`]),
//!   used by the single-input-change dynamic hazard analysis to decide
//!   whether a candidate hazard is sensitizable;
//! * structural queries (`support`, `restrict`, `eval`).
//!
//! The kernel is the classic one of Brace, Rudell & Bryant (DAC 1990):
//! nodes live in an arena, the unique table is open-addressed under a
//! multiplicative hash of `(var, lo, hi)`, and `and`/`or`/`xor`/`not`
//! share one direct-mapped computed table of at most 2^14 entries whose
//! collisions simply overwrite (a lost entry is recomputed, never wrong).
//! The diagram has no complement edges and uses the natural variable
//! order.
//!
//! Nodes are never garbage collected. A manager instead serves a sequence
//! of independent checks: [`Manager::clear`] drops every node in constant
//! time and keeps the tables' capacity, and [`with_thread_manager`] lends
//! each thread one such manager, so the equivalence checkers (audit's
//! proofs, `verify_function`, the s.i.c. analysis) allocate their tables
//! once per thread rather than once per proof.
//!
//! # Examples
//!
//! ```
//! use asyncmap_bdd::Manager;
//! use asyncmap_cube::{Cover, VarTable};
//!
//! let vars = VarTable::from_names(["a", "b", "c"]);
//! let mut mgr = Manager::new(vars.len());
//! let f = mgr.from_cover(&Cover::parse("ab + a'c", &vars)?);
//! let g = mgr.from_cover(&Cover::parse("ab + a'c + bc", &vars)?);
//! assert_eq!(f, g); // the consensus cube is redundant
//! assert_eq!(mgr.sat_count(f), 4);
//! # Ok::<(), asyncmap_cube::ParseSopError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use asyncmap_cube::{Bits, Cover, Cube, Phase, VarId};
use std::cell::RefCell;
use std::fmt;

/// Reference to a BDD node inside a [`Manager`].
///
/// Equality of `Ref`s obtained from the *same* manager (since its last
/// [`Manager::clear`]) is functional equality of the Boolean functions
/// they denote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ref(u32);

impl Ref {
    /// The constant-0 function.
    pub const ZERO: Ref = Ref(0);
    /// The constant-1 function.
    pub const ONE: Ref = Ref(1);

    /// `true` if this is one of the two terminal nodes.
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    var: u32,
    lo: Ref,
    hi: Ref,
}

/// The operations cached in the computed table, as their tag values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Not = 0,
    And = 1,
    Or = 2,
    Xor = 3,
}

/// Bits of a computed-table tag that hold the [`Op`]; the rest hold the
/// epoch.
const OP_BITS: u32 = 2;

/// Log2 of the computed table's largest entry count. The table is as
/// large as the unique table up to this cap, so a small check keeps a
/// small table, and no run of checks grows it further.
const COMPUTED_MAX_BITS: u32 = 14;

/// Unique-table slots of a fresh manager; the table doubles at 3/4 load.
const UNIQUE_INITIAL_SLOTS: usize = 1 << 10;

/// Epochs wrap here (the computed-table tag keeps [`OP_BITS`] for the
/// operation); a wrap wipes both tables once.
const EPOCH_LIMIT: u32 = u32::MAX >> OP_BITS;

/// Odd 64-bit multipliers of the hash (Fibonacci hashing and two
/// MurmurHash3 finalizer constants).
const K0: u64 = 0x9E37_79B9_7F4A_7C15;
const K1: u64 = 0xC2B2_AE3D_27D4_EB4F;
const K2: u64 = 0xFF51_AFD7_ED55_8CCD;

/// Multiplicative hash of three words; callers take its top bits.
fn hash3(a: u32, b: u32, c: u32) -> u64 {
    (u64::from(a).wrapping_mul(K0) ^ u64::from(b).wrapping_mul(K1) ^ u64::from(c)).wrapping_mul(K2)
}

/// A BDD manager: node arena, unique table and computed table, over a
/// variable count with the natural variable order.
///
/// Every table entry carries the manager's epoch; [`Manager::clear`]
/// advances it, which empties both tables without touching them.
pub struct Manager {
    nvars: usize,
    /// Node arena. Slots 0 and 1 are the terminals, whose `var` is
    /// `u32::MAX`, below every variable; every other node's children
    /// precede it.
    nodes: Vec<Node>,
    /// Open-addressed, linearly probed unique table. A slot holds
    /// `epoch << 32 | node index`; a slot of another epoch is empty.
    unique: Vec<u64>,
    /// Direct-mapped computed table of `[f, g, epoch << OP_BITS | op,
    /// result]`, allocated on first use and reallocated empty when the
    /// unique table outgrows it; a tag of another epoch is empty.
    computed: Vec<[u32; 4]>,
    epoch: u32,
}

impl fmt::Debug for Manager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Manager")
            .field("nvars", &self.nvars)
            .field("nodes", &self.nodes.len())
            .field("unique_slots", &self.unique.len())
            .finish()
    }
}

impl Default for Manager {
    fn default() -> Self {
        Manager::new(0)
    }
}

impl Manager {
    /// Creates a manager for functions of `nvars` variables.
    pub fn new(nvars: usize) -> Self {
        let terminal = |r| Node {
            var: u32::MAX,
            lo: r,
            hi: r,
        };
        Manager {
            nvars,
            nodes: vec![terminal(Ref::ZERO), terminal(Ref::ONE)],
            unique: vec![0; UNIQUE_INITIAL_SLOTS],
            computed: Vec::new(),
            epoch: 1,
        }
    }

    /// Drops every node and re-targets the manager to functions of `nvars`
    /// variables, keeping the capacity of its arena and tables. Every
    /// [`Ref`] obtained before is invalidated (the constants stay valid).
    pub fn clear(&mut self, nvars: usize) {
        self.nvars = nvars;
        self.nodes.truncate(2);
        self.epoch += 1;
        if self.epoch == EPOCH_LIMIT {
            self.unique.fill(0);
            self.computed.fill([0; 4]);
            self.epoch = 1;
        }
    }

    /// Number of variables the manager was created with.
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// Number of live nodes (including the two terminals).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn node(&self, r: Ref) -> Node {
        self.nodes[r.index()]
    }

    fn mk(&mut self, var: u32, lo: Ref, hi: Ref) -> Ref {
        if lo == hi {
            return lo;
        }
        let node = Node { var, lo, hi };
        let mask = self.unique.len() - 1;
        let shift = 64 - self.unique.len().trailing_zeros();
        let mut slot = (hash3(var, lo.0, hi.0) >> shift) as usize;
        loop {
            let entry = self.unique[slot];
            if (entry >> 32) as u32 != self.epoch {
                break;
            }
            let r = Ref(entry as u32);
            if self.node(r) == node {
                return r;
            }
            slot = (slot + 1) & mask;
        }
        let r = Ref(u32::try_from(self.nodes.len()).expect("BDD node count exceeds u32"));
        self.nodes.push(node);
        self.unique[slot] = u64::from(self.epoch) << 32 | u64::from(r.0);
        // Grow at 3/4 load (the terminals are not in the table).
        if 4 * (self.nodes.len() - 2) > 3 * self.unique.len() {
            self.grow_unique();
        }
        r
    }

    /// Doubles the unique table and re-inserts every node of this epoch.
    fn grow_unique(&mut self) {
        let slots = 2 * self.unique.len();
        self.unique.clear();
        self.unique.resize(slots, 0);
        let (mask, shift) = (slots - 1, 64 - slots.trailing_zeros());
        let stamp = u64::from(self.epoch) << 32;
        for (i, n) in self.nodes.iter().enumerate().skip(2) {
            let mut slot = (hash3(n.var, n.lo.0, n.hi.0) >> shift) as usize;
            while self.unique[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.unique[slot] = stamp | i as u64;
        }
        if self.computed.len() < slots.min(1 << COMPUTED_MAX_BITS) {
            self.computed = Vec::new();
        }
    }

    /// The computed-table slot of `(op, f, g)` and its tag, allocating
    /// the table first if it is empty.
    fn computed_slot(&mut self, op: Op, f: Ref, g: Ref) -> (usize, u32) {
        if self.computed.is_empty() {
            let entries = self.unique.len().min(1 << COMPUTED_MAX_BITS);
            self.computed = vec![[0; 4]; entries];
        }
        let tag = self.epoch << OP_BITS | op as u32;
        let shift = 64 - self.computed.len().trailing_zeros();
        ((hash3(f.0, g.0, tag) >> shift) as usize, tag)
    }

    fn lookup(&mut self, op: Op, f: Ref, g: Ref) -> Option<Ref> {
        let (slot, tag) = self.computed_slot(op, f, g);
        match self.computed[slot] {
            [ef, eg, et, r] if [ef, eg, et] == [f.0, g.0, tag] => Some(Ref(r)),
            _ => None,
        }
    }

    fn remember(&mut self, op: Op, f: Ref, g: Ref, r: Ref) {
        let (slot, tag) = self.computed_slot(op, f, g);
        self.computed[slot] = [f.0, g.0, tag, r.0];
    }

    /// `r`'s cofactors by `var`, which must not lie below `r`'s top
    /// variable (a terminal's `u32::MAX` matches no variable).
    fn cofactors(&self, r: Ref, var: u32) -> (Ref, Ref) {
        let n = self.node(r);
        if n.var == var {
            (n.lo, n.hi)
        } else {
            (r, r)
        }
    }

    /// The function of a single positive literal.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn var(&mut self, v: VarId) -> Ref {
        assert!(v.index() < self.nvars, "variable {v} out of range");
        self.mk(v.index() as u32, Ref::ZERO, Ref::ONE)
    }

    /// The function of a single literal with the given phase.
    pub fn literal(&mut self, v: VarId, phase: Phase) -> Ref {
        let f = self.var(v);
        if phase.is_pos() {
            f
        } else {
            self.not(f)
        }
    }

    /// Logical complement.
    pub fn not(&mut self, f: Ref) -> Ref {
        if f.is_const() {
            return Ref(1 - f.0);
        }
        if let Some(r) = self.lookup(Op::Not, f, Ref::ZERO) {
            return r;
        }
        let n = self.node(f);
        let lo = self.not(n.lo);
        let hi = self.not(n.hi);
        let r = self.mk(n.var, lo, hi);
        self.remember(Op::Not, f, Ref::ZERO, r);
        r
    }

    fn apply(&mut self, op: Op, f: Ref, g: Ref) -> Ref {
        match (op, f, g) {
            (Op::And, Ref::ZERO, _) | (Op::And, _, Ref::ZERO) => return Ref::ZERO,
            (Op::And, Ref::ONE, x) | (Op::And, x, Ref::ONE) => return x,
            (Op::Or, Ref::ONE, _) | (Op::Or, _, Ref::ONE) => return Ref::ONE,
            (Op::Or, Ref::ZERO, x) | (Op::Or, x, Ref::ZERO) => return x,
            (Op::Xor, Ref::ZERO, x) | (Op::Xor, x, Ref::ZERO) => return x,
            (Op::Xor, Ref::ONE, x) | (Op::Xor, x, Ref::ONE) => return self.not(x),
            _ => {}
        }
        if f == g {
            return if op == Op::Xor { Ref::ZERO } else { f };
        }
        // Commutative ops: normalize operand order for the cache.
        let (f, g) = if f <= g { (f, g) } else { (g, f) };
        if let Some(r) = self.lookup(op, f, g) {
            return r;
        }
        let var = self.node(f).var.min(self.node(g).var);
        let (flo, fhi) = self.cofactors(f, var);
        let (glo, ghi) = self.cofactors(g, var);
        let lo = self.apply(op, flo, glo);
        let hi = self.apply(op, fhi, ghi);
        let r = self.mk(var, lo, hi);
        self.remember(op, f, g, r);
        r
    }

    /// Conjunction.
    pub fn and(&mut self, f: Ref, g: Ref) -> Ref {
        self.apply(Op::And, f, g)
    }

    /// Disjunction.
    pub fn or(&mut self, f: Ref, g: Ref) -> Ref {
        self.apply(Op::Or, f, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Ref, g: Ref) -> Ref {
        self.apply(Op::Xor, f, g)
    }

    /// If-then-else: `f·g + f'·h`.
    pub fn ite(&mut self, f: Ref, g: Ref, h: Ref) -> Ref {
        let fg = self.and(f, g);
        let nf = self.not(f);
        let nfh = self.and(nf, h);
        self.or(fg, nfh)
    }

    /// `true` iff `f ⇒ g`.
    pub fn implies(&mut self, f: Ref, g: Ref) -> bool {
        let ng = self.not(g);
        self.and(f, ng) == Ref::ZERO
    }

    /// Builds the function of a single cube.
    pub fn from_cube(&mut self, cube: &Cube) -> Ref {
        let mut acc = Ref::ONE;
        // Build bottom-up (highest variable first) for linear work.
        let lits: Vec<(VarId, Phase)> = cube.literals().collect();
        for &(v, p) in lits.iter().rev() {
            let l = self.literal(v, p);
            acc = self.and(l, acc);
        }
        acc
    }

    /// Builds the function of an SOP cover.
    pub fn from_cover(&mut self, cover: &Cover) -> Ref {
        let mut acc = Ref::ZERO;
        for c in cover.cubes() {
            let cf = self.from_cube(c);
            acc = self.or(acc, cf);
        }
        acc
    }

    /// Restricts variable `v` to a constant.
    pub fn restrict(&mut self, f: Ref, v: VarId, value: bool) -> Ref {
        if f.is_const() {
            return f;
        }
        let n = self.node(f);
        let target = v.index() as u32;
        if n.var > target {
            return f;
        }
        if n.var == target {
            return if value { n.hi } else { n.lo };
        }
        let lo = self.restrict(n.lo, v, value);
        let hi = self.restrict(n.hi, v, value);
        self.mk(n.var, lo, hi)
    }

    /// Existential quantification over `v`.
    pub fn exists(&mut self, f: Ref, v: VarId) -> Ref {
        let f0 = self.restrict(f, v, false);
        let f1 = self.restrict(f, v, true);
        self.or(f0, f1)
    }

    /// Evaluates `f` at a full assignment.
    pub fn eval(&self, f: Ref, assignment: &Bits) -> bool {
        debug_assert_eq!(assignment.len(), self.nvars);
        let mut cur = f;
        while !cur.is_const() {
            let n = self.node(cur);
            cur = if assignment.get(n.var as usize) {
                n.hi
            } else {
                n.lo
            };
        }
        cur == Ref::ONE
    }

    /// Number of satisfying assignments over all `nvars` variables.
    pub fn sat_count(&self, f: Ref) -> u64 {
        // Per node: its count over the variables from its own onward.
        let mut memo: Vec<Option<u64>> = vec![None; f.index() + 1];
        self.sat_count_rec(f, &mut memo, 0)
    }

    fn sat_count_rec(&self, f: Ref, memo: &mut [Option<u64>], from_var: u32) -> u64 {
        // Count assignments of variables in [from_var, nvars).
        if f == Ref::ZERO {
            return 0;
        }
        if f == Ref::ONE {
            return 1u64 << (self.nvars as u32 - from_var);
        }
        let n = self.node(f);
        let below = match memo[f.index()] {
            Some(c) => c,
            None => {
                let lo = self.sat_count_rec(n.lo, memo, n.var + 1);
                let hi = self.sat_count_rec(n.hi, memo, n.var + 1);
                memo[f.index()] = Some(lo + hi);
                lo + hi
            }
        };
        below << (n.var - from_var)
    }

    /// Returns one satisfying assignment (variables off the satisfying path
    /// are set to 0), or `None` if `f` is unsatisfiable.
    pub fn any_sat(&self, f: Ref) -> Option<Bits> {
        if f == Ref::ZERO {
            return None;
        }
        let mut a = Bits::new(self.nvars);
        let mut cur = f;
        while !cur.is_const() {
            let n = self.node(cur);
            if n.hi != Ref::ZERO {
                a.set(n.var as usize, true);
                cur = n.hi;
            } else {
                cur = n.lo;
            }
        }
        Some(a)
    }

    /// Extracts the function as an SOP cover (one cube per 1-path of the
    /// diagram; the cubes are pairwise disjoint).
    pub fn to_cover(&self, f: Ref) -> Cover {
        let mut out = Cover::zero(self.nvars);
        let mut prefix: Vec<(VarId, Phase)> = Vec::new();
        self.paths_rec(f, &mut prefix, &mut out);
        out
    }

    fn paths_rec(&self, f: Ref, prefix: &mut Vec<(VarId, Phase)>, out: &mut Cover) {
        if f == Ref::ZERO {
            return;
        }
        if f == Ref::ONE {
            out.push(Cube::from_literals(self.nvars, prefix.iter().copied()));
            return;
        }
        let n = self.node(f);
        prefix.push((VarId(n.var as usize), Phase::Neg));
        self.paths_rec(n.lo, prefix, out);
        prefix.pop();
        prefix.push((VarId(n.var as usize), Phase::Pos));
        self.paths_rec(n.hi, prefix, out);
        prefix.pop();
    }

    /// The set of variables `f` actually depends on.
    pub fn support(&self, f: Ref) -> Vec<VarId> {
        let mut seen = vec![false; self.nvars];
        // Children precede their parents in the arena, so `f` bounds
        // every node it reaches.
        let mut visited = vec![false; f.index() + 1];
        let mut stack = vec![f];
        while let Some(r) = stack.pop() {
            if r.is_const() || visited[r.index()] {
                continue;
            }
            visited[r.index()] = true;
            let n = self.node(r);
            seen[n.var as usize] = true;
            stack.push(n.lo);
            stack.push(n.hi);
        }
        seen.iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(i, _)| VarId(i))
            .collect()
    }
}

/// Runs `f` on this thread's reusable manager, cleared for `nvars`
/// variables. The manager's tables outlive the call, so a checker that
/// proves many small equivalences allocates them once per thread. A call
/// that grew the unique table past its initial size frees the tables on
/// return instead, so one large proof does not hold its memory through
/// the rest of the run. A nested call (from inside `f`) gets a fresh
/// manager of its own.
pub fn with_thread_manager<R>(nvars: usize, f: impl FnOnce(&mut Manager) -> R) -> R {
    thread_local! {
        static MANAGER: RefCell<Manager> = RefCell::new(Manager::new(0));
    }
    MANAGER.with(|cell| match cell.try_borrow_mut() {
        Ok(mut mgr) => {
            mgr.clear(nvars);
            let result = f(&mut mgr);
            if mgr.unique.len() > UNIQUE_INITIAL_SLOTS {
                *mgr = Manager::new(0);
            }
            result
        }
        Err(_) => f(&mut Manager::new(nvars)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::VarTable;

    fn vars3() -> VarTable {
        VarTable::from_names(["a", "b", "c"])
    }

    fn build(text: &str, mgr: &mut Manager, vars: &VarTable) -> Ref {
        mgr.from_cover(&Cover::parse(text, vars).unwrap())
    }

    #[test]
    fn constants() {
        let mut m = Manager::new(2);
        assert_eq!(m.not(Ref::ZERO), Ref::ONE);
        assert_eq!(m.and(Ref::ONE, Ref::ZERO), Ref::ZERO);
        assert_eq!(m.or(Ref::ONE, Ref::ZERO), Ref::ONE);
        assert_eq!(m.xor(Ref::ONE, Ref::ONE), Ref::ZERO);
    }

    #[test]
    fn canonical_equality_detects_redundancy() {
        let vars = vars3();
        let mut m = Manager::new(3);
        let f = build("ab + a'c", &mut m, &vars);
        let g = build("ab + a'c + bc", &mut m, &vars);
        assert_eq!(f, g);
    }

    #[test]
    fn distinct_functions_differ() {
        let vars = vars3();
        let mut m = Manager::new(3);
        let f = build("ab", &mut m, &vars);
        let g = build("ab + c", &mut m, &vars);
        assert_ne!(f, g);
    }

    #[test]
    fn ite_and_implies() {
        let vars = vars3();
        let mut m = Manager::new(3);
        let a = m.var(VarId(0));
        let b = m.var(VarId(1));
        let c = m.var(VarId(2));
        let mux = m.ite(a, b, c); // ab + a'c
        let expect = build("ab + a'c", &mut m, &vars);
        assert_eq!(mux, expect);
        let ab = m.and(a, b);
        assert!(m.implies(ab, a));
        assert!(!m.implies(a, ab));
    }

    #[test]
    fn sat_count_and_any_sat() {
        let vars = vars3();
        let mut m = Manager::new(3);
        let f = build("ab + a'c", &mut m, &vars);
        assert_eq!(m.sat_count(f), 4); // ab: 2, a'c: 2, disjoint
        let a = m.any_sat(f).unwrap();
        assert!(m.eval(f, &a));
        assert!(m.any_sat(Ref::ZERO).is_none());
        assert_eq!(m.sat_count(Ref::ONE), 8);
    }

    #[test]
    fn restrict_and_exists() {
        let vars = vars3();
        let mut m = Manager::new(3);
        let f = build("ab + a'c", &mut m, &vars);
        let f_a1 = m.restrict(f, VarId(0), true);
        let b = m.var(VarId(1));
        assert_eq!(f_a1, b);
        let ex = m.exists(f, VarId(0));
        let b_or_c = build("b + c", &mut m, &vars);
        assert_eq!(ex, b_or_c);
    }

    #[test]
    fn support_reports_dependencies() {
        let vars = vars3();
        let mut m = Manager::new(3);
        let f = build("ab + a'b", &mut m, &vars); // = b
        assert_eq!(m.support(f), vec![VarId(1)]);
        let g = build("ab + c", &mut m, &vars);
        assert_eq!(g, g);
        assert_eq!(m.support(g), vec![VarId(0), VarId(1), VarId(2)]);
    }

    #[test]
    fn eval_walks_structure() {
        let vars = vars3();
        let mut m = Manager::new(3);
        let f = build("ab + a'c", &mut m, &vars);
        let mut a = Bits::new(3);
        a.set(0, true);
        a.set(1, true);
        assert!(m.eval(f, &a)); // a=1 b=1
        a.set(1, false);
        assert!(!m.eval(f, &a)); // a=1 b=0 c=0
    }

    #[test]
    fn not_is_involutive() {
        let vars = vars3();
        let mut m = Manager::new(3);
        let f = build("ab + a'c", &mut m, &vars);
        let nf = m.not(f);
        assert_ne!(f, nf);
        assert_eq!(m.not(nf), f);
        assert_eq!(m.sat_count(nf), 8 - 4);
    }

    #[test]
    fn xor_via_and_or_not() {
        let vars = vars3();
        let mut m = Manager::new(3);
        let f = build("ab", &mut m, &vars);
        let g = build("a'c", &mut m, &vars);
        let x = m.xor(f, g);
        let fg_or = m.or(f, g);
        let fg_and = m.and(f, g);
        let n_and = m.not(fg_and);
        let manual = m.and(fg_or, n_and);
        assert_eq!(x, manual);
    }

    #[test]
    fn to_cover_roundtrips() {
        let vars = vars3();
        let mut m = Manager::new(3);
        let f = build("ab + a'c + bc", &mut m, &vars);
        let cover = m.to_cover(f);
        let back = m.from_cover(&cover);
        assert_eq!(back, f);
        // Paths are pairwise disjoint.
        for (i, a) in cover.cubes().iter().enumerate() {
            for b in cover.cubes().iter().skip(i + 1) {
                assert!(a.intersect(b).is_none());
            }
        }
        assert!(m.to_cover(Ref::ZERO).is_empty());
        assert!(m.to_cover(Ref::ONE).cubes()[0].is_universe());
    }

    #[test]
    fn clear_wipes_both_tables_when_the_epoch_wraps() {
        let vars = vars3();
        let mut m = Manager::new(3);
        let f = build("ab + a'c", &mut m, &vars);
        // Entries stamped with epoch 1 would come back to life after the
        // wrap unless the tables are wiped.
        m.epoch = EPOCH_LIMIT - 1;
        m.clear(3);
        assert_eq!(m.epoch, 1);
        assert!(m.unique.iter().all(|&slot| slot == 0));
        assert!(m.computed.iter().all(|&entry| entry == [0; 4]));
        assert_eq!(build("ab + a'c", &mut m, &vars), f);
    }

    #[test]
    fn from_cube_of_universe_is_one() {
        let mut m = Manager::new(3);
        assert_eq!(m.from_cube(&Cube::universe(3)), Ref::ONE);
        assert_eq!(m.from_cover(&Cover::zero(3)), Ref::ZERO);
    }
}
