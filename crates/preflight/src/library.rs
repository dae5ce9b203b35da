//! Library-side qualification: declared-vs-derived cross-checks, class
//! structure, hazard characterization and mapability coverage.

use crate::PreflightReport;
use asyncmap_bff::Expr;
use asyncmap_core::truth::{canon6, depends6, full_mask, truth6_of, Canon6};
use asyncmap_cube::{VarId, VarTable};
use asyncmap_genlib::{parse_sop, GenlibLibrary, PinPhase};
use asyncmap_library::{Cell, Library};
use asyncmap_report::Severity;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Class analysis and hazard characterization are skipped for cells wider
/// than this (the packed-table machinery covers ≤ 6 inputs; the paper's
/// libraries top out at 5).
const MAX_CLASS_INPUTS: usize = 6;

/// The realizability key of a cell or cluster function: support width
/// plus its P-class-with-phase. The matcher accepts a (cell, cluster)
/// pair iff the cluster's support-projected truth table equals the cell's
/// under some pin permutation — which holds iff these keys are equal.
type ClassKey = (usize, u64, bool);

fn class_key(truth: u64, n: usize) -> ClassKey {
    let Canon6 { canon, phase } = canon6(truth, n);
    (n, canon, phase)
}

/// `truth` restricted to `n` vars, with every variable in the support.
fn has_full_support(truth: u64, n: usize) -> bool {
    (0..n).all(|v| depends6(truth, n, v))
}

/// Checks a converted [`Library`]: vacuous pins, duplicate and dominated
/// cells, base-class coverage gaps, ≤4-input P-class coverage stats and
/// per-cell hazard characterization. A cell's stored hazard annotation is
/// read when present and derived otherwise, so an annotated and an
/// unannotated copy of a library get the same report.
pub fn preflight_library(library: &Library) -> PreflightReport {
    let mut report = PreflightReport::default();
    report.counters.cells = library.len();
    if library.is_empty() {
        report.push(
            Severity::Error,
            "library.empty",
            format!("library {}", library.name()),
            "library has no cells".into(),
        );
        return report;
    }

    // Pass 1: per-cell structure, collecting class keys of usable cells.
    // Ordered by key, so pass 2 emits its notes in the same order on every
    // call.
    let mut by_class: BTreeMap<ClassKey, Vec<usize>> = BTreeMap::new();
    for (i, cell) in library.cells().iter().enumerate() {
        let n = cell.num_inputs();
        if n > MAX_CLASS_INPUTS {
            report.push(
                Severity::Info,
                "library.wide-cell",
                format!("cell {}", cell.name()),
                format!("{n} inputs exceed the {MAX_CLASS_INPUTS}-input class analysis; skipped"),
            );
            continue;
        }
        let truth = truth6_of(cell.bff(), n);
        let vacuous: Vec<&str> = (0..n)
            .filter(|&v| !depends6(truth, n, v))
            .map(|v| cell.pins().name(VarId(v)))
            .collect();
        if !vacuous.is_empty() {
            report.push(
                Severity::Warning,
                "library.vacuous-pin",
                format!("cell {}", cell.name()),
                format!(
                    "function does not depend on pin(s) {}: clusters are \
                     support-projected, so this cell can never match",
                    vacuous.join(", ")
                ),
            );
            continue;
        }
        by_class.entry(class_key(truth, n)).or_default().push(i);

        // The load-time annotation when there is one (§3.2.1: once per
        // library element); an unannotated cell is characterized here.
        let derived;
        let hazards = match cell.hazards() {
            Some(stored) => stored,
            None => {
                derived = cell.compute_hazards();
                &derived
            }
        };
        if !hazards.is_hazard_free() {
            report.counters.hazardous_cells += 1;
            report.push(
                Severity::Info,
                "library.hazardous-cell",
                format!("cell {}", cell.name()),
                hazards.summary(),
            );
        }
    }

    // Pass 2: duplicates and dominated cells within each class.
    for members in by_class.values() {
        if members.len() < 2 {
            continue;
        }
        let names: Vec<&str> = members.iter().map(|&i| library.cells()[i].name()).collect();
        report.push(
            Severity::Info,
            "library.duplicate-cell",
            format!("cells {}", names.join(", ")),
            "same function up to pin permutation; the mapper keeps the cheapest".into(),
        );
        for &a in members {
            let ca = &library.cells()[a];
            for &b in members {
                if a == b {
                    continue;
                }
                let cb = &library.cells()[b];
                let no_worse = cb.area() <= ca.area() && cb.delay() <= ca.delay();
                let strictly = cb.area() < ca.area() || cb.delay() < ca.delay();
                if no_worse && strictly {
                    // Info, not warning: commercial libraries legitimately
                    // carry dominated drive variants for count/load realism.
                    report.push(
                        Severity::Info,
                        "library.dominated-cell",
                        format!("cell {}", ca.name()),
                        format!(
                            "same class as {} at no better area ({} vs {}) or delay \
                             ({} vs {}); it will never be selected",
                            cb.name(),
                            ca.area(),
                            cb.area(),
                            ca.delay(),
                            cb.delay()
                        ),
                    );
                    break;
                }
            }
        }
    }

    // Pass 3: base-class coverage. The hazard-preserving decomposition
    // emits only 2-input AND/OR gates, inverters and buffers, so these
    // four classes are what single-gate (trivial) clusters need.
    for (name, expr, n) in base_gates() {
        let key = class_key(truth6_of(&expr, n), n);
        if !by_class.contains_key(&key) {
            report.push(
                Severity::Warning,
                "library.coverage-gap",
                format!("library {}", library.name()),
                format!(
                    "no cell realizes the {name} class: any cone root whose \
                     sampled cuts all need it is unmappable"
                ),
            );
        }
    }

    // Pass 4: P-class coverage over all full-support functions of ≤ 4
    // inputs (cached; the 4-input sweep canonicalizes 65 536 tables once).
    for (k, classes) in all_classes_up_to_4().iter().enumerate() {
        let k = k + 1;
        let realized = classes
            .iter()
            .filter(|&&(canon, phase)| by_class.contains_key(&(k, canon, phase)))
            .count();
        report.push(
            Severity::Info,
            "library.coverage",
            format!("library {}", library.name()),
            format!(
                "{realized} of {} full-support {k}-input P-classes realizable",
                classes.len()
            ),
        );
    }

    report
}

/// The four gate kinds the hazard-preserving decomposition emits, as
/// (name, expression, arity).
fn base_gates() -> [(&'static str, Expr, usize); 4] {
    let gate = |text: &str| {
        let mut vars = VarTable::new();
        Expr::parse(text, &mut vars).expect("fixed text")
    };
    [
        ("buffer", gate("a"), 1),
        ("inverter", gate("a'"), 1),
        ("2-input AND", gate("a*b"), 2),
        ("2-input OR", gate("a + b"), 2),
    ]
}

/// `result[k-1]` = canonical `(canon, phase)` pairs of every full-support
/// function on exactly `k` inputs, for `k` in 1..=4.
fn all_classes_up_to_4() -> &'static [Vec<(u64, bool)>; 4] {
    static CLASSES: OnceLock<[Vec<(u64, bool)>; 4]> = OnceLock::new();
    CLASSES.get_or_init(|| {
        std::array::from_fn(|i| {
            let k = i + 1;
            let mut set: Vec<(u64, bool)> = (0..=full_mask(k))
                .filter(|&t| has_full_support(t, k))
                .map(|t| {
                    let c = canon6(t, k);
                    (c.canon, c.phase)
                })
                .collect();
            set.sort_unstable();
            set.dedup();
            set
        })
    })
}

/// Checks a parsed genlib library: declared-SOP-vs-derived-function and
/// declared-phase-vs-unateness cross-checks, skipped-statement notes,
/// then all [`preflight_library`] checks on the conversion. Returns the
/// converted [`Library`], hazard-annotated, so callers qualify and map the
/// same object without characterizing its cells again.
pub fn preflight_genlib(genlib: &GenlibLibrary) -> (PreflightReport, Library) {
    let mut report = PreflightReport::default();
    for skipped in &genlib.skipped {
        report.push(
            Severity::Info,
            "library.skipped-cell",
            format!("cell {}", skipped.name),
            format!("line {}: {} — not converted", skipped.line, skipped.reason),
        );
    }
    let mut library = genlib.to_library();
    library.annotate_hazards();
    for cell in &genlib.cells {
        let Some(converted) = library.cell(&cell.name) else {
            continue;
        };
        check_declared_function(cell, converted, &mut report);
        check_declared_phases(cell, &mut report);
    }
    let mut merged = preflight_library(&library);
    // Library checks first, cross-checks second; render order is sorted
    // anyway, but counters should reflect one pass over the cells.
    merged.merge(report);
    (merged, library)
}

/// Re-derives the cell function from the *declared* SOP text and compares
/// it against the converted cell's truth table. A disagreement means the
/// parsed structure was corrupted (or the parser miscompiled the
/// expression) — mapping with it would silently change logic.
fn check_declared_function(
    cell: &asyncmap_genlib::GenlibCell,
    converted: &Cell,
    report: &mut PreflightReport,
) {
    let n = converted.num_inputs();
    if n > MAX_CLASS_INPUTS {
        return;
    }
    let mut vars = VarTable::new();
    let reparsed = match parse_sop(&cell.sop, &mut vars) {
        Ok(expr) => expr,
        Err(e) => {
            report.push(
                Severity::Error,
                "library.function-mismatch",
                format!("cell {}", cell.name),
                format!("declared SOP `{}` no longer parses: {e}", cell.sop),
            );
            return;
        }
    };
    // Align the reparse's variable order with the cell's pin order.
    let mut pin_of: Vec<usize> = Vec::with_capacity(vars.len());
    for (_, name) in vars.iter() {
        match cell.pins.lookup(name) {
            Some(v) => pin_of.push(v.index()),
            None => {
                report.push(
                    Severity::Error,
                    "library.function-mismatch",
                    format!("cell {}", cell.name),
                    format!("declared SOP uses `{name}`, which is not a pin of the cell"),
                );
                return;
            }
        }
    }
    let declared = truth6_of(&asyncmap_core::instantiate(&reparsed, &pin_of), n);
    let derived = truth6_of(converted.bff(), n);
    if declared != derived {
        report.push(
            Severity::Error,
            "library.function-mismatch",
            format!("cell {}", cell.name),
            format!(
                "declared SOP `{}` disagrees with the cell's derived function \
                 (truth {declared:#x} vs {derived:#x} over {n} pin(s))",
                cell.sop
            ),
        );
    }
}

/// Checks each declared `PIN` phase against the unateness the function
/// actually has in that pin. An `INV` pin of a positive-unate input (or
/// any declared phase on a binate input) contradicts the declaration —
/// the same class of defect as a wrong SOP, hence the same finding code.
fn check_declared_phases(cell: &asyncmap_genlib::GenlibCell, report: &mut PreflightReport) {
    let n = cell.pins.len();
    if n > MAX_CLASS_INPUTS {
        return;
    }
    let truth = truth6_of(&cell.expr, n);
    for (v, attrs) in cell.pin_attrs.iter().enumerate() {
        let (mut pos_unate, mut neg_unate) = (true, true);
        for m in 0..1u64 << n {
            if m >> v & 1 == 1 {
                continue;
            }
            let f0 = truth >> m & 1;
            let f1 = truth >> (m | 1 << v) & 1;
            if f0 == 1 && f1 == 0 {
                pos_unate = false;
            }
            if f0 == 0 && f1 == 1 {
                neg_unate = false;
            }
        }
        let pin = cell.pins.name(asyncmap_cube::VarId(v));
        let contradiction = match attrs.phase {
            PinPhase::NonInv if !pos_unate => {
                Some("NONINV, but the function is not positive-unate")
            }
            PinPhase::Inv if !neg_unate => Some("INV, but the function is not negative-unate"),
            _ => None,
        };
        if let Some(why) = contradiction {
            report.push(
                Severity::Error,
                "library.function-mismatch",
                format!("cell {}", cell.name),
                format!("pin {pin} is declared {why} in it"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_genlib::parse_genlib;
    use asyncmap_library::builtin;

    #[test]
    fn builtin_libraries_have_no_errors() {
        for lib in builtin::all_libraries() {
            let report = preflight_library(&lib);
            assert_eq!(
                report.num_errors(),
                0,
                "{}: {}",
                lib.name(),
                report.render()
            );
            // Every builtin covers the four base classes: no gap warnings.
            assert!(
                !report
                    .findings
                    .iter()
                    .any(|f| f.code == "library.coverage-gap"),
                "{}: {}",
                lib.name(),
                report.render()
            );
        }
    }

    #[test]
    fn class_counts_match_known_values() {
        // Pure P-classes (permutation only — matching never complements):
        // 2 on one input (buffer, inverter), 8 on two (AND, OR, NAND,
        // NOR, XOR, XNOR, a·b', a+b'). Assert the cached sweep agrees
        // with an independent recount by brute-force pairwise equivalence.
        let classes = all_classes_up_to_4();
        assert_eq!(classes[0].len(), 2);
        assert_eq!(classes[1].len(), 8);
        for k in 1..=2 {
            let mut reps: Vec<u64> = Vec::new();
            'next: for t in 0..=full_mask(k) {
                if !has_full_support(t, k) {
                    continue;
                }
                for &r in &reps {
                    if same_class(t, r, k) {
                        continue 'next;
                    }
                }
                reps.push(t);
            }
            assert_eq!(classes[k - 1].len(), reps.len(), "k={k}");
        }
    }

    /// Brute-force permutation-only equivalence for tiny arity.
    fn same_class(a: u64, b: u64, n: usize) -> bool {
        let mut perms: Vec<Vec<usize>> = Vec::new();
        permute((0..n).collect(), &mut Vec::new(), &mut perms);
        perms
            .iter()
            .any(|p| asyncmap_core::truth::apply_perm6(a, p, n) == b)
    }

    fn permute(rest: Vec<usize>, acc: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rest.is_empty() {
            out.push(acc.clone());
        }
        for (i, &v) in rest.iter().enumerate() {
            let mut r = rest.clone();
            r.remove(i);
            acc.push(v);
            permute(r, acc, out);
            acc.pop();
        }
    }

    #[test]
    fn vacuous_pin_and_dominated_cell_are_flagged() {
        let mut lib = Library::new("t");
        lib.add(Cell::from_bff("GOOD", "a*b", 1.0));
        lib.add(Cell::from_bff("SLOW", "a*b", 9.0));
        let report = preflight_library(&lib);
        assert!(report
            .notes
            .iter()
            .any(|f| f.code == "library.dominated-cell" && f.path.contains("SLOW")));

        let mut lib2 = Library::new("t2");
        // `b` is mentioned as a pin but the function ignores it.
        lib2.add(Cell::new(
            "VAC",
            VarTable::from_names(["a", "b"]),
            Expr::Var(VarId(0)),
            1.0,
            1.0,
        ));
        let report2 = preflight_library(&lib2);
        assert!(report2
            .findings
            .iter()
            .any(|f| f.code == "library.vacuous-pin"));
    }

    #[test]
    fn empty_library_is_an_error() {
        assert_eq!(preflight_library(&Library::new("void")).num_errors(), 1);
    }

    const GOOD: &str = "
GATE INV 1 O=!a;    PIN a INV 1 999 1 0 1 0
GATE BUF 2 O=a;     PIN a NONINV 1 999 1 0 1 0
GATE AND2 3 O=a*b;  PIN * NONINV 1 999 1 0 1 0
GATE OR2 3 O=a+b;   PIN * NONINV 1 999 1 0 1 0
";

    #[test]
    fn clean_genlib_qualifies() {
        let gl = parse_genlib(GOOD, "good").unwrap();
        let (report, lib) = preflight_genlib(&gl);
        assert_eq!(report.num_errors(), 0, "{}", report.render());
        assert_eq!(lib.len(), 4);
    }

    #[test]
    fn perturbed_sop_is_a_function_mismatch() {
        // Qualification soundness: corrupt the declared SOP of a parsed
        // cell; the cross-check must catch the disagreement.
        let mut gl = parse_genlib(GOOD, "good").unwrap();
        gl.cells[2].sop = "a + b".into(); // was a*b
        let (report, _) = preflight_genlib(&gl);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "library.function-mismatch"
                && f.severity == Severity::Error
                && f.path.contains("AND2")));
    }

    #[test]
    fn contradictory_pin_phase_is_a_function_mismatch() {
        let gl = parse_genlib("GATE BADINV 1 O=!a; PIN a NONINV 1 999 1 0 1 0\n", "bad").unwrap();
        let (report, _) = preflight_genlib(&gl);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "library.function-mismatch" && f.path.contains("BADINV")));
    }

    #[test]
    fn contradictory_pin_phase_on_wider_cells_is_caught_too() {
        // Three pins, so the unateness sweep runs over 8 minterms of a
        // 256-bit-mask-wide table — a regression guard for the minterm
        // range (it is 2^n, not the truth-table bit mask).
        let gl = parse_genlib(
            "GATE BADNAND3 1 O=!(a*b*c); PIN * NONINV 1 999 1 0 1 0\n\
             GATE AND3 1 O=a*b*c; PIN * NONINV 1 999 1 0 1 0\n",
            "bad",
        )
        .unwrap();
        let (report, _) = preflight_genlib(&gl);
        let flagged: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.code == "library.function-mismatch")
            .collect();
        assert!(flagged.iter().all(|f| f.path.contains("BADNAND3")));
        assert_eq!(flagged.len(), 3, "{}", report.render());
    }

    #[test]
    fn dropping_the_inverter_class_is_a_coverage_gap() {
        let gl = parse_genlib(GOOD, "noinv").unwrap();
        let mut lib = Library::new("noinv");
        for c in &gl.cells {
            if c.name != "INV" {
                lib.add(Cell::new(
                    &c.name,
                    c.pins.clone(),
                    c.expr.clone(),
                    c.area,
                    1.0,
                ));
            }
        }
        let report = preflight_library(&lib);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "library.coverage-gap" && f.message.contains("inverter")));
    }
}
