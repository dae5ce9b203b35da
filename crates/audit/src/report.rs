//! Audit findings and reports: the shared `asyncmap-report` machinery
//! (machine-readable `family.kind` codes, severity levels, info notes
//! that never make a report unclean) specialized with the audit's work
//! counters.

pub use asyncmap_report::{Finding, Severity};
use asyncmap_report::{Report, Totals};

/// What the audit examined, for report context.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditCounters {
    /// Decomposition rewrite steps replayed.
    pub rewrite_steps: usize,
    /// End-to-end equation certificates replayed.
    pub equations: usize,
    /// Partition cut certificates replayed.
    pub cut_points: usize,
    /// Cones re-walked against the partition trace.
    pub cones: usize,
    /// Flatten collapse traces replayed.
    pub flatten_traces: usize,
    /// Cones whose flatten replay was skipped (product count over the
    /// replay cap).
    pub flatten_skipped: usize,
    /// Hazard re-checks decided exactly by the exhaustive transition
    /// sweep (supports of at most `EXHAUSTIVE_VAR_LIMIT` variables).
    pub hazard_rechecks: usize,
    /// Hazard re-checks on supports too wide for the exact sweep, where
    /// only the flatten-equality / static-1 necessary condition ran.
    pub hazard_partial: usize,
    /// Functional-equivalence proofs discharged with packed truth tables.
    pub truth_proofs: usize,
    /// Functional-equivalence proofs discharged with the BDD fallback.
    pub bdd_proofs: usize,
    /// Burst-mode spec states checked.
    pub spec_states: usize,
    /// Burst-mode spec edges checked.
    pub spec_edges: usize,
    /// Rewrite steps whose equivalence/monotonicity obligations were
    /// discharged by an identical prior clean replay (cached audit only;
    /// counted inside [`AuditCounters::rewrite_steps`]).
    pub reused_steps: usize,
    /// Equation certificates likewise discharged by reuse (counted inside
    /// [`AuditCounters::equations`]).
    pub reused_equations: usize,
    /// Flatten collapses likewise discharged by reuse (counted inside
    /// [`AuditCounters::flatten_traces`]).
    pub reused_flattens: usize,
    /// Equations the audit ran through the decomposition front end: all
    /// of them on a whole-design audit, only those without a stored
    /// equation audit on a warm cached one.
    pub decomposed_equations: usize,
}

impl AuditCounters {
    /// Total certificates replayed (rewrite steps, equation certificates,
    /// cut points and flatten traces).
    pub fn num_certificates(&self) -> usize {
        self.rewrite_steps + self.equations + self.cut_points + self.flatten_traces
    }
}

impl asyncmap_report::Counters for AuditCounters {
    fn summarize(&self, totals: &Totals, out: &mut String) {
        out.push_str(&format!(
            "audit: {} finding(s) ({} error(s)), {} note(s) over {} rewrite step(s), \
             {} equation(s), {} cut point(s), {} flatten trace(s); \
             {} hazard re-check(s) ({} partial), {} truth / {} BDD equivalence proof(s)\n",
            totals.findings,
            totals.errors,
            totals.notes,
            self.rewrite_steps,
            self.equations,
            self.cut_points,
            self.flatten_traces,
            self.hazard_rechecks,
            self.hazard_partial,
            self.truth_proofs,
            self.bdd_proofs,
        ));
        let reused = self.reused_steps + self.reused_equations + self.reused_flattens;
        if reused > 0 {
            out.push_str(&format!(
                "audit: {} step(s), {} equation(s), {} flatten(s) reused from a prior clean replay\n",
                self.reused_steps, self.reused_equations, self.reused_flattens,
            ));
        }
    }

    fn absorb(&mut self, other: &Self) {
        self.rewrite_steps += other.rewrite_steps;
        self.equations += other.equations;
        self.cut_points += other.cut_points;
        self.cones += other.cones;
        self.flatten_traces += other.flatten_traces;
        self.flatten_skipped += other.flatten_skipped;
        self.hazard_rechecks += other.hazard_rechecks;
        self.hazard_partial += other.hazard_partial;
        self.truth_proofs += other.truth_proofs;
        self.bdd_proofs += other.bdd_proofs;
        self.spec_states += other.spec_states;
        self.spec_edges += other.spec_edges;
        self.reused_steps += other.reused_steps;
        self.reused_equations += other.reused_equations;
        self.reused_flattens += other.reused_flattens;
        self.decomposed_equations += other.decomposed_equations;
    }
}

/// The result of one audit run: the shared [`Report`] over
/// [`AuditCounters`].
pub type AuditReport = Report<AuditCounters>;
