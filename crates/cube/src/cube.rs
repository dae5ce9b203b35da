//! Cubes (product terms) in the `USED`/`PHASE` bit-vector encoding of the
//! paper (§4.1.1, Figure 5).
//!
//! A cube over `n` variables is a pair of `n`-bit vectors:
//!
//! * `USED[i]` — variable `i` appears as a literal in the product;
//! * `PHASE[i]` — when used, `1` means the positive literal `xᵢ`, `0` the
//!   complemented literal `xᵢ'`.
//!
//! The invariant `PHASE ⊆ USED` (phase bits of unused variables are zero) is
//! maintained by every constructor; it is what makes the paper's one-line
//! consensus construction (`OR` the vectors, mask the conflict bit) correct.

use crate::{Bits, VarId};
use std::fmt;

/// The phase of a literal inside a cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The positive literal `x`.
    Pos,
    /// The complemented literal `x'`.
    Neg,
}

impl Phase {
    /// `true` for [`Phase::Pos`].
    pub fn is_pos(self) -> bool {
        matches!(self, Phase::Pos)
    }

    /// The opposite phase.
    pub fn flipped(self) -> Phase {
        match self {
            Phase::Pos => Phase::Neg,
            Phase::Neg => Phase::Pos,
        }
    }
}

/// A product term over a fixed variable space, stored as `USED`/`PHASE`
/// bit vectors (paper, Figure 5).
///
/// A `Cube` denotes the set of minterms consistent with its literals; the
/// cube with no literals is the universe. Contradictory products (containing
/// `x·x'`) are *not representable*: operations that would produce one return
/// `None` (see [`Cube::intersect`]). Contradictory products that arise from
/// flattening multi-level logic are handled at the path-expression layer in
/// `asyncmap-bff`, not here.
///
/// # Examples
///
/// ```
/// use asyncmap_cube::{Cube, VarTable};
/// let vars = VarTable::from_names(["w", "x", "y", "z"]);
/// let wxy = Cube::parse("w'xy", &vars).unwrap();
/// let all = Cube::universe(vars.len());
/// assert!(all.contains(&wxy));
/// assert_eq!(wxy.num_literals(), 3);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cube {
    used: Bits,
    phase: Bits,
}

impl Cube {
    /// The universe cube (no literals) over `nvars` variables.
    pub fn universe(nvars: usize) -> Self {
        Cube {
            used: Bits::new(nvars),
            phase: Bits::new(nvars),
        }
    }

    /// Builds a cube from `(variable, phase)` literal pairs.
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of range, or if the same variable
    /// appears with both phases (a contradictory product).
    pub fn from_literals<I>(nvars: usize, literals: I) -> Self
    where
        I: IntoIterator<Item = (VarId, Phase)>,
    {
        let mut c = Cube::universe(nvars);
        for (v, p) in literals {
            if c.used.get(v.index()) {
                assert_eq!(
                    c.phase.get(v.index()),
                    p.is_pos(),
                    "contradictory literal for {v} in Cube::from_literals"
                );
            }
            c.used.set(v.index(), true);
            c.phase.set(v.index(), p.is_pos());
        }
        c
    }

    /// Builds the minterm cube for an assignment over all `bits.len()`
    /// variables (every variable used, phase taken from `bits`).
    pub fn minterm(bits: &Bits) -> Self {
        Cube {
            used: Bits::ones(bits.len()),
            phase: bits.clone(),
        }
    }

    /// Builds a cube from raw `USED`/`PHASE` vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length or a phase bit is set for an
    /// unused variable (violating the representation invariant).
    pub fn from_bits(used: Bits, phase: Bits) -> Self {
        assert_eq!(used.len(), phase.len(), "USED/PHASE length mismatch");
        assert!(
            phase.is_subset(&used),
            "PHASE bit set for unused variable in Cube::from_bits"
        );
        Cube { used, phase }
    }

    /// Parses a product of single-letter literals such as `"w'xy z"`.
    ///
    /// Each alphabetic character names a variable of `vars`; a following `'`
    /// complements it. Whitespace and `*` are ignored. `"1"` denotes the
    /// universe cube.
    ///
    /// # Errors
    ///
    /// Returns an error if a character is not a known variable, or if a
    /// variable appears with both phases.
    pub fn parse(text: &str, vars: &crate::VarTable) -> Result<Self, crate::ParseSopError> {
        crate::parse::parse_cube_letters(text, vars)
    }

    /// The `USED` bit vector.
    pub fn used(&self) -> &Bits {
        &self.used
    }

    /// The `PHASE` bit vector.
    pub fn phase(&self) -> &Bits {
        &self.phase
    }

    /// Number of variables in the cube's space.
    pub fn nvars(&self) -> usize {
        self.used.len()
    }

    /// Number of literals in the product.
    pub fn num_literals(&self) -> u32 {
        self.used.count_ones()
    }

    /// `true` if the cube has no literals (denotes the whole space).
    pub fn is_universe(&self) -> bool {
        self.used.is_zero()
    }

    /// `true` if every variable is used (the cube is a single minterm).
    pub fn is_minterm(&self) -> bool {
        self.used.count_ones() as usize == self.nvars()
    }

    /// The phase of `v` in this cube, or `None` if `v` is unused.
    pub fn literal(&self, v: VarId) -> Option<Phase> {
        if self.used.get(v.index()) {
            Some(if self.phase.get(v.index()) {
                Phase::Pos
            } else {
                Phase::Neg
            })
        } else {
            None
        }
    }

    /// Iterator over the cube's literals as `(VarId, Phase)` pairs.
    pub fn literals(&self) -> impl Iterator<Item = (VarId, Phase)> + '_ {
        self.used.iter_ones().map(move |i| {
            (
                VarId(i),
                if self.phase.get(i) {
                    Phase::Pos
                } else {
                    Phase::Neg
                },
            )
        })
    }

    /// Set containment: `true` iff every minterm of `other` is in `self`
    /// (i.e. `self`'s literals are a subset of `other`'s, with equal phases).
    pub fn contains(&self, other: &Cube) -> bool {
        // Fused word walk: USED₁ ⊆ USED₂ and phases agree wherever USED₁.
        let (u1, p1) = (self.used.words(), self.phase.words());
        let (u2, p2) = (other.used.words(), other.phase.words());
        debug_assert_eq!(u1.len(), u2.len());
        (0..u1.len()).all(|i| u1[i] & !u2[i] == 0 && (p1[i] ^ p2[i]) & u1[i] == 0)
    }

    /// Number of conflicting variables: used in both cubes with opposite
    /// phases. This is the population count of the paper's `CONFLICTS`
    /// vector.
    pub fn distance(&self, other: &Cube) -> u32 {
        let (u1, p1) = (self.used.words(), self.phase.words());
        let (u2, p2) = (other.used.words(), other.phase.words());
        debug_assert_eq!(u1.len(), u2.len());
        (0..u1.len())
            .map(|i| ((u1[i] & u2[i]) & (p1[i] ^ p2[i])).count_ones())
            .sum()
    }

    /// The paper's `CONFLICTS` vector:
    /// `(USED₁ & USED₂) & (PHASE₁ ⊕ PHASE₂)`.
    pub fn conflicts(&self, other: &Cube) -> Bits {
        let (u1, p1) = (self.used.words(), self.phase.words());
        let (u2, p2) = (other.used.words(), other.phase.words());
        debug_assert_eq!(u1.len(), u2.len());
        Bits::from_words_fn(self.nvars(), |i| (u1[i] & u2[i]) & (p1[i] ^ p2[i]))
    }

    /// `true` if the cubes conflict in at least one variable (their
    /// intersection is empty). Equivalent to `distance(other) > 0` without
    /// building the `CONFLICTS` vector.
    pub fn conflicts_with(&self, other: &Cube) -> bool {
        let (u1, p1) = (self.used.words(), self.phase.words());
        let (u2, p2) = (other.used.words(), other.phase.words());
        debug_assert_eq!(u1.len(), u2.len());
        (0..u1.len()).any(|i| (u1[i] & u2[i]) & (p1[i] ^ p2[i]) != 0)
    }

    /// Intersection of two cubes, or `None` if they conflict (the
    /// intersection is empty).
    pub fn intersect(&self, other: &Cube) -> Option<Cube> {
        if self.conflicts_with(other) {
            return None;
        }
        Some(Cube {
            used: self.used.or(&other.used),
            phase: self.phase.or(&other.phase),
        })
    }

    /// The supercube (smallest cube containing both operands). For cube
    /// endpoints `α`, `β` this is the *transition space* `T[α, β]` of
    /// Definition 4.2.
    pub fn supercube(&self, other: &Cube) -> Cube {
        let (u1, p1) = (self.used.words(), self.phase.words());
        let (u2, p2) = (other.used.words(), other.phase.words());
        debug_assert_eq!(u1.len(), u2.len());
        let used = Bits::from_words_fn(self.nvars(), |i| (u1[i] & u2[i]) & !(p1[i] ^ p2[i]));
        let uw = used.words();
        let phase = Bits::from_words_fn(self.nvars(), |i| p1[i] & uw[i]);
        Cube { used, phase }
    }

    /// The consensus of two *adjacent* cubes (distance exactly 1): the OR of
    /// the two cubes with the conflicting literal masked out (paper,
    /// Figure 5). Returns `None` when the distance is not 1.
    ///
    /// For adjacent implicants the result is itself an implicant spanning the
    /// transition between them; uncovered consensus cubes identify static
    /// logic 1-hazards (§4.1.1).
    /// # Examples
    ///
    /// ```
    /// use asyncmap_cube::{Cube, VarTable};
    /// let vars = VarTable::from_names(["w", "x", "y", "z"]);
    /// let a = Cube::parse("w'xyz", &vars)?;
    /// let b = Cube::parse("wxyz", &vars)?;
    /// assert_eq!(a.adjacency(&b), Some(Cube::parse("xyz", &vars)?));
    /// # Ok::<(), asyncmap_cube::ParseSopError>(())
    /// ```
    pub fn adjacency(&self, other: &Cube) -> Option<Cube> {
        if self.distance(other) != 1 {
            return None;
        }
        let conflicts = self.conflicts(other);
        let (u1, p1) = (self.used.words(), self.phase.words());
        let (u2, p2) = (other.used.words(), other.phase.words());
        let cw = conflicts.words();
        Some(Cube {
            used: Bits::from_words_fn(self.nvars(), |i| (u1[i] | u2[i]) & !cw[i]),
            phase: Bits::from_words_fn(self.nvars(), |i| (p1[i] | p2[i]) & !cw[i]),
        })
    }

    /// The general consensus on variable `v`: the product of all literals of
    /// both cubes except `v`. Returns `None` when the cubes conflict in a
    /// variable other than `v`, or do not conflict in `v` at all.
    pub fn consensus(&self, other: &Cube, v: VarId) -> Option<Cube> {
        let conflicts = self.conflicts(other);
        if conflicts.count_ones() == 0 || !conflicts.get(v.index()) {
            return None;
        }
        let mut mask = Bits::new(self.nvars());
        mask.set(v.index(), true);
        if !conflicts.and_not(&mask).is_zero() {
            return None;
        }
        Some(Cube {
            used: self.used.or(&other.used).and_not(&mask),
            phase: self.phase.or(&other.phase).and_not(&mask),
        })
    }

    /// Removes variable `v` from the cube (widening it), returning the new
    /// cube. If `v` was unused, the cube is returned unchanged.
    pub fn without_var(&self, v: VarId) -> Cube {
        let mut c = self.clone();
        c.clear_var(v);
        c
    }

    /// Removes variable `v` from the cube in place (widening it). No-op if
    /// `v` was unused.
    pub fn clear_var(&mut self, v: VarId) {
        self.used.set(v.index(), false);
        self.phase.set(v.index(), false);
    }

    /// Cofactor with respect to every literal of `other` in one word-level
    /// pass: `None` if the cubes conflict (the cofactor is empty), otherwise
    /// `self` with all of `other`'s variables dropped. Equivalent to folding
    /// [`Cube::cofactor`] over `other.literals()`.
    pub fn cofactor_cube(&self, other: &Cube) -> Option<Cube> {
        if self.conflicts_with(other) {
            return None;
        }
        let (u1, p1) = (self.used.words(), self.phase.words());
        let u2 = other.used.words();
        Some(Cube {
            used: Bits::from_words_fn(self.nvars(), |i| u1[i] & !u2[i]),
            phase: Bits::from_words_fn(self.nvars(), |i| p1[i] & !u2[i]),
        })
    }

    /// Returns the cube with the phase of literal `v` complemented.
    ///
    /// Used by `findMicDynHaz2level` (§4.2.1) to walk to the subcubes
    /// adjacent to a cube intersection.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not used in the cube.
    pub fn with_var_flipped(&self, v: VarId) -> Cube {
        assert!(
            self.used.get(v.index()),
            "cannot flip unused variable {v} in cube"
        );
        let mut c = self.clone();
        c.phase.flip(v.index());
        c
    }

    /// Cofactor with respect to the literal `(v, phase)`. Returns `None` if
    /// the cube contains the opposite literal (the cofactor is empty);
    /// otherwise the cube with `v` dropped.
    pub fn cofactor(&self, v: VarId, phase: Phase) -> Option<Cube> {
        match self.literal(v) {
            Some(p) if p != phase => None,
            _ => Some(self.without_var(v)),
        }
    }

    /// Evaluates the cube at a full assignment (bit `i` of `assignment` is
    /// the value of variable `i`).
    pub fn eval(&self, assignment: &Bits) -> bool {
        debug_assert_eq!(assignment.len(), self.nvars());
        let (u, p, a) = (self.used.words(), self.phase.words(), assignment.words());
        (0..u.len()).all(|i| (p[i] ^ a[i]) & u[i] == 0)
    }

    /// Number of minterms the cube contains.
    pub fn num_minterms(&self) -> u64 {
        let free = self.nvars() as u32 - self.num_literals();
        1u64 << free.min(63)
    }

    /// Iterator over all minterm assignments contained in the cube.
    ///
    /// Intended for small cubes (exponential in the number of free
    /// variables); used by test oracles and transition-space enumeration.
    pub fn minterms(&self) -> Minterms {
        let free: Vec<usize> = (0..self.nvars()).filter(|&i| !self.used.get(i)).collect();
        Minterms {
            base: self.phase.clone(),
            free,
            next: 0,
            count: 1u64 << (self.nvars() as u32 - self.num_literals()).min(63),
        }
    }

    /// Renders the cube with variable names from `vars`, e.g. `"w'xy"`.
    /// The universe cube renders as `"1"`.
    pub fn display<'a>(&'a self, vars: &'a crate::VarTable) -> DisplayCube<'a> {
        DisplayCube { cube: self, vars }
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_universe() {
            return write!(f, "Cube(1)");
        }
        write!(f, "Cube(")?;
        for (v, p) in self.literals() {
            write!(f, "x{}{}", v.0, if p.is_pos() { "" } else { "'" })?;
        }
        write!(f, ")")
    }
}

/// Iterator over minterm assignments of a cube, produced by
/// [`Cube::minterms`].
#[derive(Debug)]
pub struct Minterms {
    base: Bits,
    free: Vec<usize>,
    next: u64,
    count: u64,
}

impl Iterator for Minterms {
    type Item = Bits;

    fn next(&mut self) -> Option<Bits> {
        if self.next >= self.count {
            return None;
        }
        let mut m = self.base.clone();
        for (bit, &var) in self.free.iter().enumerate() {
            m.set(var, (self.next >> bit) & 1 == 1);
        }
        self.next += 1;
        Some(m)
    }
}

/// Helper returned by [`Cube::display`].
#[derive(Debug)]
pub struct DisplayCube<'a> {
    cube: &'a Cube,
    vars: &'a crate::VarTable,
}

impl fmt::Display for DisplayCube<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cube.is_universe() {
            return write!(f, "1");
        }
        // Single-letter variables render in the paper's juxtaposition
        // style (`w'xz`); multi-character names need a separator.
        let juxtapose = self
            .cube
            .literals()
            .all(|(v, _)| self.vars.name(v).chars().count() == 1);
        for (i, (v, p)) in self.cube.literals().enumerate() {
            if i > 0 && !juxtapose {
                write!(f, "*")?;
            }
            write!(
                f,
                "{}{}",
                self.vars.name(v),
                if p.is_pos() { "" } else { "'" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarTable;

    fn wxyz() -> VarTable {
        VarTable::from_names(["w", "x", "y", "z"])
    }

    fn c(text: &str, vars: &VarTable) -> Cube {
        Cube::parse(text, vars).unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let vars = wxyz();
        let cube = c("w'xz", &vars);
        assert_eq!(cube.display(&vars).to_string(), "w'xz");
        assert_eq!(cube.num_literals(), 3);
        assert_eq!(cube.literal(vars.lookup("w").unwrap()), Some(Phase::Neg));
        assert_eq!(cube.literal(vars.lookup("y").unwrap()), None);
    }

    #[test]
    fn universe_contains_everything() {
        let vars = wxyz();
        let u = Cube::universe(4);
        assert!(u.is_universe());
        assert!(u.contains(&c("wxyz", &vars)));
        assert!(!c("w", &vars).contains(&u));
        assert_eq!(u.display(&vars).to_string(), "1");
    }

    #[test]
    fn containment_is_literal_subset() {
        let vars = wxyz();
        assert!(c("wx", &vars).contains(&c("wxy", &vars)));
        assert!(!c("wxy", &vars).contains(&c("wx", &vars)));
        assert!(!c("wx", &vars).contains(&c("w'xy", &vars)));
        assert!(c("wx", &vars).contains(&c("wx", &vars)));
    }

    #[test]
    fn conflicts_vector_matches_paper_formula() {
        // Paper Figure 5: cubes w'xyz and wxyz conflict exactly in w.
        let vars = wxyz();
        let a = c("w'xyz", &vars);
        let b = c("wxyz", &vars);
        let conf = a.conflicts(&b);
        assert_eq!(conf.iter_ones().collect::<Vec<_>>(), vec![0]);
        assert_eq!(a.distance(&b), 1);
    }

    #[test]
    fn adjacency_generates_consensus() {
        // Paper Figure 5: adjacency of w'xyz and wxyz is xyz.
        let vars = wxyz();
        let a = c("w'xyz", &vars);
        let b = c("wxyz", &vars);
        assert_eq!(a.adjacency(&b).unwrap(), c("xyz", &vars));
    }

    #[test]
    fn adjacency_requires_distance_one() {
        let vars = wxyz();
        assert!(c("wx", &vars).adjacency(&c("w'x'", &vars)).is_none());
        // Distance zero (overlapping cubes) also yields no adjacency.
        assert!(c("wx", &vars).adjacency(&c("xy", &vars)).is_none());
    }

    #[test]
    fn adjacency_keeps_unshared_literals() {
        // ab + a'c -> consensus bc.
        let vars = VarTable::from_names(["a", "b", "c"]);
        let ab = c("ab", &vars);
        let a_c = c("a'c", &vars);
        assert_eq!(ab.adjacency(&a_c).unwrap(), c("bc", &vars));
    }

    #[test]
    fn consensus_on_explicit_variable() {
        let vars = wxyz();
        let a = c("wx", &vars);
        let b = c("w'y", &vars);
        let w = vars.lookup("w").unwrap();
        assert_eq!(a.consensus(&b, w).unwrap(), c("xy", &vars));
        // Wrong variable: no consensus.
        assert!(a.consensus(&b, vars.lookup("x").unwrap()).is_none());
        // Two conflicts: no consensus.
        let d = c("w'x'", &vars);
        assert!(a.consensus(&d, w).is_none());
    }

    #[test]
    fn intersect_joins_literals() {
        let vars = wxyz();
        assert_eq!(
            c("wx", &vars).intersect(&c("yz'", &vars)).unwrap(),
            c("wxyz'", &vars)
        );
        assert!(c("wx", &vars).intersect(&c("w'y", &vars)).is_none());
    }

    #[test]
    fn supercube_is_transition_space() {
        let vars = wxyz();
        // T[w'x'yz, wxyz] spans w and x.
        let t = c("w'x'yz", &vars).supercube(&c("wxyz", &vars));
        assert_eq!(t, c("yz", &vars));
        assert!(t.contains(&c("w'xyz", &vars)));
    }

    #[test]
    fn supercube_of_equal_cubes_is_identity() {
        let vars = wxyz();
        let a = c("w'xz", &vars);
        assert_eq!(a.supercube(&a), a);
    }

    #[test]
    fn eval_checks_phase_agreement() {
        let vars = wxyz();
        let cube = c("w'xz", &vars);
        let mut a = Bits::new(4);
        a.set(1, true); // x = 1
        a.set(3, true); // z = 1
        assert!(cube.eval(&a)); // w=0 x=1 y=0 z=1
        a.set(0, true); // w = 1 violates w'
        assert!(!cube.eval(&a));
    }

    #[test]
    fn minterms_enumerates_cube() {
        let vars = wxyz();
        let cube = c("wx", &vars);
        let ms: Vec<Bits> = cube.minterms().collect();
        assert_eq!(ms.len(), 4);
        for m in &ms {
            assert!(cube.eval(m));
        }
        assert_eq!(cube.num_minterms(), 4);
    }

    #[test]
    fn flip_and_without_var() {
        let vars = wxyz();
        let cube = c("w'xz", &vars);
        let w = vars.lookup("w").unwrap();
        assert_eq!(cube.with_var_flipped(w), c("wxz", &vars));
        assert_eq!(cube.without_var(w), c("xz", &vars));
        let y = vars.lookup("y").unwrap();
        assert_eq!(cube.without_var(y), cube);
    }

    #[test]
    #[should_panic(expected = "cannot flip unused variable")]
    fn flip_unused_panics() {
        let vars = wxyz();
        c("xz", &vars).with_var_flipped(vars.lookup("w").unwrap());
    }

    #[test]
    fn cofactor_drops_or_empties() {
        let vars = wxyz();
        let cube = c("w'xz", &vars);
        let w = vars.lookup("w").unwrap();
        assert_eq!(cube.cofactor(w, Phase::Neg).unwrap(), c("xz", &vars));
        assert!(cube.cofactor(w, Phase::Pos).is_none());
        let y = vars.lookup("y").unwrap();
        assert_eq!(cube.cofactor(y, Phase::Pos).unwrap(), cube);
    }

    #[test]
    fn cofactor_cube_matches_literal_fold() {
        let vars = wxyz();
        let cube = c("w'xz", &vars);
        // Non-conflicting: drops the shared variables in one pass.
        assert_eq!(
            cube.cofactor_cube(&c("w'y", &vars)).unwrap(),
            c("xz", &vars)
        );
        // Conflicting: empty cofactor.
        assert!(cube.cofactor_cube(&c("w", &vars)).is_none());
        assert!(cube.conflicts_with(&c("w", &vars)));
        assert!(!cube.conflicts_with(&c("w'y", &vars)));
        // Universe cofactor is the identity.
        assert_eq!(cube.cofactor_cube(&Cube::universe(4)).unwrap(), cube);
    }

    #[test]
    fn minterm_constructor_uses_all_vars() {
        let mut bits = Bits::new(4);
        bits.set(2, true);
        let m = Cube::minterm(&bits);
        assert!(m.is_minterm());
        assert!(m.eval(&bits));
    }

    #[test]
    #[should_panic(expected = "PHASE bit set for unused variable")]
    fn from_bits_enforces_invariant() {
        let used = Bits::new(4);
        let mut phase = Bits::new(4);
        phase.set(1, true);
        Cube::from_bits(used, phase);
    }
}
