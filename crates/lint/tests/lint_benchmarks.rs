//! The lint pass against real mapper output: zero findings on every
//! Table 5 benchmark mapped with hazard filtering on, and guaranteed
//! detection of deliberately corrupted bindings.
//!
//! The corruption tests re-derive their ground truth (is the injected
//! binding actually a violation?) with their own subnetwork walk, so the
//! "lint must flag it" assertion does not depend on any lint-crate
//! internals.

use asyncmap_bff::Expr;
use asyncmap_core::{async_tmap, mapped_cone_expr, truth, Instance, MapOptions, MappedDesign};
use asyncmap_cube::{Cover, VarId, VarTable};
use asyncmap_hazard::oracle::index_bits;
use asyncmap_hazard::{hazards_subset_exhaustive, wave_eval};
use asyncmap_library::{builtin, Cell, Library};
use asyncmap_lint::{binding_obligations, lint_mapped_design};
use asyncmap_network::{Cone, EquationSet, GateOp, Network, NodeKind, SignalId};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// The paper's Table 5 pairings: scsi and abcs map to LSI9K, pe-send-ifc
/// and dme to Actel.
#[allow(clippy::type_complexity)]
const BENCHES: [(&str, fn() -> Library); 4] = [
    ("scsi", builtin::lsi9k),
    ("abcs", builtin::lsi9k),
    ("pe-send-ifc", builtin::actel),
    ("dme", builtin::actel),
];

fn mapped_bench(idx: usize) -> (MappedDesign, Library) {
    let (name, lib_fn) = BENCHES[idx % BENCHES.len()];
    let mut lib = lib_fn();
    lib.annotate_hazards();
    let eqs = asyncmap_burst::benchmark(name);
    let opts = MapOptions {
        threads: 1,
        ..MapOptions::default()
    };
    let design = async_tmap(&eqs, &lib, &opts).expect("benchmark maps");
    (design, lib)
}

/// Test-local ground truth for one binding: the subnetwork expression under
/// `inst` over its reached cut space, built by an independent walk (cut at
/// the cone's leaves and the other instances' outputs).
fn subnet_of(
    net: &Network,
    cone: &Cone,
    instances: &[Instance],
    inst: &Instance,
) -> Option<(Expr, HashMap<SignalId, usize>)> {
    let mut cut: HashSet<SignalId> = cone.leaves.iter().copied().collect();
    cut.extend(
        instances
            .iter()
            .map(|i| i.output)
            .filter(|&o| o != inst.output),
    );
    let mut order: Vec<SignalId> = Vec::new();
    let mut var_of: HashMap<SignalId, usize> = HashMap::new();
    fn go(
        net: &Network,
        s: SignalId,
        root: SignalId,
        cut: &HashSet<SignalId>,
        order: &mut Vec<SignalId>,
        var_of: &mut HashMap<SignalId, usize>,
    ) -> Option<Expr> {
        if s != root && cut.contains(&s) {
            let v = *var_of.entry(s).or_insert_with(|| {
                order.push(s);
                order.len() - 1
            });
            return Some(Expr::Var(VarId(v)));
        }
        match net.node(s) {
            NodeKind::Input => None, // escaped the cone: not a valid walk
            NodeKind::Gate { op, fanin } => {
                let args: Vec<Expr> = fanin
                    .iter()
                    .map(|&f| go(net, f, root, cut, order, var_of))
                    .collect::<Option<_>>()?;
                Some(match op {
                    GateOp::And => Expr::and(args),
                    GateOp::Or => Expr::or(args),
                    GateOp::Inv => args.into_iter().next()?.not(),
                    GateOp::Buf => args.into_iter().next()?,
                })
            }
        }
    }
    let expr = go(net, inst.output, inst.output, &cut, &mut order, &mut var_of)?;
    Some((expr, var_of))
}

fn bind_cell(cell_bff: &Expr, inst: &Instance, var_of: &HashMap<SignalId, usize>) -> Option<Expr> {
    let args: Vec<Expr> = inst
        .inputs
        .iter()
        .map(|s| var_of.get(s).map(|&v| Expr::Var(VarId(v))))
        .collect::<Option<_>>()?;
    fn sub(bff: &Expr, args: &[Expr]) -> Expr {
        match bff {
            Expr::Const(b) => Expr::Const(*b),
            Expr::Var(v) => args[v.index()].clone(),
            Expr::Not(e) => sub(e, args).not(),
            Expr::And(es) => Expr::and(es.iter().map(|e| sub(e, args)).collect()),
            Expr::Or(es) => Expr::or(es.iter().map(|e| sub(e, args)).collect()),
        }
    }
    Some(sub(cell_bff, &args))
}

fn truth_eq(a: &Expr, b: &Expr, n: usize) -> bool {
    if n <= 6 {
        truth::truth6_of(a, n) == truth::truth6_of(b, n)
    } else {
        truth::truth_table_words(a, n) == truth::truth_table_words(b, n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every Table 5 benchmark, mapped with hazard filtering on, lints
    /// clean — the standing gate every future mapper change must keep.
    #[test]
    fn benchmarks_lint_clean(idx in 0usize..4) {
        let (design, lib) = mapped_bench(idx);
        let report = lint_mapped_design(&design, &lib);
        prop_assert!(
            report.is_clean(),
            "{} ({}): {}",
            BENCHES[idx].0,
            lib.name(),
            report.render()
        );
        prop_assert_eq!(report.counters.cones, design.cones.len());
        prop_assert_eq!(report.counters.function_checks, design.num_instances());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Swapping a random binding's cell for a random same-arity cell must
    /// be flagged whenever the replacement is actually wrong — wrong
    /// function, or hazards the covered subnetwork lacks (Theorem 3.2).
    /// Legal replacements (equivalent and hazard-contained) must stay
    /// clean: the lint may not cry wolf either.
    #[test]
    fn corrupted_binding_is_always_detected(idx in 0usize..4, seed in any::<u64>()) {
        let (mut design, lib) = mapped_bench(idx);
        let total: usize = design.num_instances();
        let mut k = (seed as usize) % total;
        let (ci, ii) = 'found: {
            for (ci, cover) in design.covers.iter().enumerate() {
                if k < cover.instances.len() {
                    break 'found (ci, k);
                }
                k -= cover.instances.len();
            }
            unreachable!("index within total instance count");
        };
        let arity = design.covers[ci].instances[ii].inputs.len();
        let same_arity: Vec<usize> = lib
            .cells()
            .iter()
            .enumerate()
            .filter(|(j, c)| {
                c.num_inputs() == arity && *j != design.covers[ci].instances[ii].cell_index
            })
            .map(|(j, _)| j)
            .collect();
        if same_arity.is_empty() {
            return Ok(()); // no same-arity alternative to inject
        }
        let new_cell = same_arity[(seed >> 32) as usize % same_arity.len()];

        // Ground truth before mutating: is the replacement legal?
        let cone = &design.cones[ci];
        let inst = &design.covers[ci].instances[ii];
        let (subnet, var_of) =
            subnet_of(&design.subject, cone, &design.covers[ci].instances, inst)
                .expect("mapper-produced binding walks cleanly");
        let n = var_of.len();
        let bound = bind_cell(lib.cells()[new_cell].bff(), inst, &var_of)
            .expect("same signals still bound");
        let legal = truth_eq(&bound, &subnet, n) && hazards_subset_exhaustive(&bound, &subnet, n);

        design.covers[ci].instances[ii].cell_index = new_cell;
        // Keep the area bookkeeping consistent with the swapped cell so the
        // function/hazard checks — not the area re-add — decide the verdict.
        design.covers[ci].area = design.covers[ci]
            .instances
            .iter()
            .map(|i| lib.cells()[i.cell_index].area())
            .sum();
        let buf_area = lib
            .cells()
            .iter()
            .filter(|c| c.name().starts_with("BUF"))
            .map(|c| c.area())
            .min_by(f64::total_cmp)
            .unwrap_or(0.0);
        design.area = design.covers.iter().map(|c| c.area).sum::<f64>()
            + design.stats.buffers as f64 * buf_area;
        let report = lint_mapped_design(&design, &lib);
        if legal {
            prop_assert!(
                report.is_clean(),
                "legal replacement by {} flagged: {}",
                lib.cells()[new_cell].name(),
                report.render()
            );
        } else {
            prop_assert!(
                !report.is_clean(),
                "violating replacement by {} on {} went undetected",
                lib.cells()[new_cell].name(),
                BENCHES[idx].0
            );
        }
    }
}

/// The canonical Theorem 3.2 corruption: a hazardous mux covering a
/// consensus-protected (hazard-free) cluster of the same function. The
/// function certificate passes — only the hazard re-check can catch it,
/// and it must.
#[test]
fn injected_mux_on_hazard_free_cluster_is_flagged() {
    let mut lib = builtin::cmos3();
    lib.annotate_hazards();
    let vars = VarTable::from_names(["s", "a", "b"]);
    let f = Cover::parse("sa + s'b + ab", &vars).unwrap();
    let eqs = EquationSet::new(vars, vec![("f".to_owned(), f)]);
    let opts = MapOptions {
        threads: 1,
        ..MapOptions::default()
    };
    let mut design = async_tmap(&eqs, &lib, &opts).expect("maps");
    assert!(lint_mapped_design(&design, &lib).is_clean());

    let (mux_index, mux) = lib
        .cells()
        .iter()
        .enumerate()
        .find(|(_, c)| c.name().starts_with("MUX2"))
        .expect("cmos3 has a mux");
    assert!(!mux.compute_hazards().is_hazard_free());

    // Bind the mux's pins to the primary inputs by name (its BFF is
    // s*a + s'*b over its own pin table).
    let net = &design.subject;
    let by_name: HashMap<&str, SignalId> = net
        .inputs()
        .iter()
        .map(|&s| (net.input_name(s), s))
        .collect();
    let pin_signals: Vec<SignalId> = mux.pins().iter().map(|(_, name)| by_name[name]).collect();

    // Replace the output cone's entire cover with the single mux: same
    // function (the consensus cube ab is redundant), strictly more
    // hazards than the protected structure.
    let root_cone = design
        .cones
        .iter()
        .position(|c| net.outputs().iter().any(|(_, s)| *s == c.root))
        .expect("output cone");
    let root = design.cones[root_cone].root;
    let inst_areas: f64 = mux.area();
    design.covers[root_cone].instances = vec![Instance {
        cell_index: mux_index,
        output: root,
        inputs: pin_signals,
    }];
    design.covers[root_cone].area = inst_areas;

    // Keep the total-area invariant intact so the only findings are the
    // hazard ones under test.
    design.area = design.covers.iter().map(|c| c.area).sum::<f64>();

    let report = lint_mapped_design(&design, &lib);
    assert!(!report.is_clean(), "mux injection went undetected");
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.code.starts_with("theorem32.")),
        "expected a theorem32 finding, got: {}",
        report.render()
    );

    // Both refutations name a burst on which the mux glitches and the
    // protected structure does not: the binding's over its cut signals,
    // the cone's over its leaves.
    let message = |code: &str| {
        let finding = report.findings.iter().find(|f| f.code == code);
        finding
            .unwrap_or_else(|| panic!("no {code} finding"))
            .message
            .clone()
    };
    let obligations = binding_obligations(&design, &lib);
    let [(candidate, reference, n)] = obligations.as_slice() else {
        panic!("one hazardous binding expected, got {}", obligations.len());
    };
    let binding = message("theorem32.containment-violation");
    assert_witness_escapes(&binding, candidate, reference, *n);
    let cone = &design.cones[root_cone];
    let mapped = mapped_cone_expr(cone, &design.covers[root_cone], &lib).unwrap();
    let original = cone.to_expr(&design.subject);
    let composed = message("theorem32.cone-containment");
    assert_witness_escapes(&composed, &mapped, &original, cone.leaves.len());
}

/// A nine-pin hazardous cell bound over nine cut signals is past the
/// exhaustive sweep: lint's verdict is the bounded fallback's. Over the
/// same hazardous structure it is a partial info note that leaves the
/// report clean; over a consensus-protected one, whose static-1
/// transition between `sa` and `s'b` the cell cannot hold, a refutation.
#[test]
fn wide_bindings_get_the_bounded_verdict() {
    let tail = "c + d + e + g + h + k";
    for (sop, code, says) in [
        (
            "sa + s'b + c + d + e + g + h + k",
            "theorem32.partial",
            "partial over 9 cut signals",
        ),
        (
            "sa + s'b + ab + c + d + e + g + h + k",
            "theorem32.containment-violation",
            "static-1 adjacency subset on flattened covers over 9 cut signals",
        ),
    ] {
        let mut lib = builtin::lsi9k();
        lib.add(Cell::from_bff("MUX9", &format!("s*a + s'*b + {tail}"), 1.0));
        lib.annotate_hazards();
        let vars = VarTable::from_names(["s", "a", "b", "c", "d", "e", "g", "h", "k"]);
        let f = Cover::parse(sop, &vars).unwrap();
        let eqs = EquationSet::new(vars, vec![("f".to_owned(), f)]);
        let opts = MapOptions {
            threads: 1,
            ..MapOptions::default()
        };
        let mut design = async_tmap(&eqs, &lib, &opts).expect("maps");
        assert!(lint_mapped_design(&design, &lib).is_clean());

        let (cell_index, cell) = lib
            .cells()
            .iter()
            .enumerate()
            .find(|(_, c)| c.name() == "MUX9")
            .expect("added cell");
        let net = &design.subject;
        let by_name: HashMap<&str, SignalId> = net
            .inputs()
            .iter()
            .map(|&s| (net.input_name(s), s))
            .collect();
        let inputs: Vec<SignalId> = cell.pins().iter().map(|(_, name)| by_name[name]).collect();
        let root_cone = design
            .cones
            .iter()
            .position(|c| net.outputs().iter().any(|(_, s)| *s == c.root))
            .expect("output cone");
        let output = design.cones[root_cone].root;
        design.covers[root_cone].instances = vec![Instance {
            cell_index,
            output,
            inputs,
        }];
        design.covers[root_cone].area = cell.area();
        design.area = design.covers.iter().map(|c| c.area).sum::<f64>();

        let report = lint_mapped_design(&design, &lib);
        let found = report
            .findings
            .iter()
            .chain(&report.notes)
            .find(|f| f.code == code);
        let found = found.unwrap_or_else(|| panic!("{sop}: no {code}: {}", report.render()));
        assert!(found.message.contains(says), "{}", found.message);
        assert_eq!(
            report.is_clean(),
            code == "theorem32.partial",
            "{}",
            report.render()
        );
    }
}

/// The `transition 0b… → 0b…` witness a refutation message ends in, as
/// assignment indices (bit `v` is variable `v`).
fn witness(message: &str) -> (usize, usize) {
    let (_, text) = message.split_once(": transition ").expect("a witness");
    let (from, to) = text.split_once(" → ").expect("from → to");
    let parse = |s: &str| {
        let digits = s.split_whitespace().next().unwrap_or_default();
        usize::from_str_radix(digits.trim_start_matches("0b"), 2).expect("binary assignment")
    };
    (parse(from), parse(to))
}

/// Replays `message`'s witness on `wave_eval`: `candidate` glitches on the
/// burst, `reference` does not.
fn assert_witness_escapes(message: &str, candidate: &Expr, reference: &Expr, n: usize) {
    let (from, to) = witness(message);
    let (from, to) = (index_bits(n, from), index_bits(n, to));
    assert!(wave_eval(candidate, &from, &to).hazard, "{message}");
    assert!(!wave_eval(reference, &from, &to).hazard, "{message}");
}

/// Cold lint re-derives cell hazards itself, once per cell structure and
/// never from the annotation: a MUX4 (not read-once, so not certified by
/// structure) injected over the all-primes 4:1 mux is flagged even when
/// the library handed to lint was never annotated.
#[test]
fn injected_mux4_is_flagged_by_cold_lint_without_annotation() {
    let mut lib = builtin::lsi9k();
    lib.annotate_hazards();
    let vars = VarTable::from_names(["t", "s", "a", "b", "c", "d"]);
    let f = Cover::parse(
        "t's'a + t'sb + ts'c + tsd + s'ac + sbd + t'ab + tcd + abcd",
        &vars,
    )
    .unwrap();
    let eqs = EquationSet::new(vars, vec![("f".to_owned(), f)]);
    let opts = MapOptions {
        threads: 1,
        ..MapOptions::default()
    };
    let mut design = async_tmap(&eqs, &lib, &opts).expect("maps");
    let unannotated = builtin::lsi9k();
    assert!(lint_mapped_design(&design, &unannotated).is_clean());

    let (mux_index, mux) = lib
        .cells()
        .iter()
        .enumerate()
        .find(|(_, c)| c.name() == "MUX4")
        .expect("lsi9k has MUX4");
    assert!(!mux.bff().is_read_once());
    let net = &design.subject;
    let by_name: HashMap<&str, SignalId> = net
        .inputs()
        .iter()
        .map(|&s| (net.input_name(s), s))
        .collect();
    let pin_signals: Vec<SignalId> = mux.pins().iter().map(|(_, name)| by_name[name]).collect();
    let root_cone = design
        .cones
        .iter()
        .position(|c| net.outputs().iter().any(|(_, s)| *s == c.root))
        .expect("output cone");
    let root = design.cones[root_cone].root;
    design.covers[root_cone].instances = vec![Instance {
        cell_index: mux_index,
        output: root,
        inputs: pin_signals,
    }];
    design.covers[root_cone].area = mux.area();
    design.area = design.covers.iter().map(|c| c.area).sum::<f64>();

    let report = lint_mapped_design(&design, &unannotated);
    assert!(report.counters.theorem32_checks > 0);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.code == "theorem32.containment-violation"),
        "expected a containment violation, got: {}",
        report.render()
    );
}

/// Structural corruptions — the non-hazard half of the checker.
#[test]
fn structural_corruptions_are_flagged() {
    let (design, lib) = mapped_bench(3); // dme on actel, the smallest
    let base = lint_mapped_design(&design, &lib);
    assert!(base.is_clean());

    // Drop an instance: its covered gates become uncovered.
    let (mut d, lib) = mapped_bench(3);
    let ci = d
        .covers
        .iter()
        .position(|c| c.instances.len() > 1)
        .expect("some multi-instance cover");
    let dropped = d.covers[ci].instances.pop().unwrap();
    let report = lint_mapped_design(&d, &lib);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.code.starts_with("coverage.")
                || f.code == "structure.undriven"
                || f.code == "structure.cover-area"),
        "dropping instance {:?} went undetected: {}",
        dropped.output,
        report.render()
    );

    // Misreport the area.
    let (mut d, lib) = mapped_bench(3);
    d.area += 42.0;
    let report = lint_mapped_design(&d, &lib);
    assert!(report
        .findings
        .iter()
        .any(|f| f.code == "structure.total-area"));

    // Re-route a pin to a signal outside the covered subnetwork.
    let (mut d, lib) = mapped_bench(3);
    let extra_input = *d.subject.inputs().last().unwrap();
    let ci = d
        .covers
        .iter()
        .position(|c| c.instances.iter().any(|i| !i.inputs.contains(&extra_input)))
        .expect("an instance not using the last input");
    let ii = d.covers[ci]
        .instances
        .iter()
        .position(|i| !i.inputs.contains(&extra_input))
        .unwrap();
    d.covers[ci].instances[ii].inputs[0] = extra_input;
    let report = lint_mapped_design(&d, &lib);
    assert!(
        !report.is_clean(),
        "pin re-route went undetected: {}",
        report.render()
    );
}

/// The mapper binds hazardous cells (muxes) where Theorem 3.2 allows it;
/// the re-verification pass must actually exercise those bindings.
#[test]
fn theorem32_rechecks_run_on_hazardous_bindings() {
    let mut lib = builtin::cmos3();
    lib.annotate_hazards();
    let vars = VarTable::from_names(["s", "a", "b"]);
    // The bare mux function, no consensus protection: the subnetwork has
    // the mux's hazards, so the mapper may (and does, on area) take MUX2.
    let f = Cover::parse("sa + s'b", &vars).unwrap();
    let eqs = EquationSet::new(vars, vec![("f".to_owned(), f)]);
    let opts = MapOptions {
        threads: 1,
        ..MapOptions::default()
    };
    let design = async_tmap(&eqs, &lib, &opts).expect("maps");
    let report = lint_mapped_design(&design, &lib);
    assert!(report.is_clean(), "{}", report.render());
    if design.covers.iter().any(|c| {
        c.instances
            .iter()
            .any(|i| !lib.cells()[i.cell_index].compute_hazards().is_hazard_free())
    }) {
        assert!(report.counters.theorem32_checks > 0);
    }
}

/// A warm cache must reuse every cone that linted perfectly quietly and
/// still produce an identical verdict — the reuse contract behind the
/// incremental (ECO) lint path.
#[test]
fn warm_cache_reuses_quiet_cones_and_keeps_the_verdict() {
    let (design, lib) = mapped_bench(0);
    let mut cache = asyncmap_lint::LintCache::new();
    let cold = asyncmap_lint::lint_mapped_design_cached(&design, &lib, &mut cache);
    assert!(cold.is_clean(), "{}", cold.render());
    let warm = asyncmap_lint::lint_mapped_design_cached(&design, &lib, &mut cache);
    assert!(warm.is_clean(), "{}", warm.render());
    assert_eq!(warm.findings.len(), cold.findings.len());
    // Notes are re-produced, never cached away: a noisy cone reruns.
    assert_eq!(warm.notes.len(), cold.notes.len());
    // The cold pass may already reuse within-run duplicates; the warm pass
    // reuses at least those plus every quiet cone seen in the cold pass.
    assert!(warm.counters.cones_reused > cold.counters.cones_reused);
    if cold.notes.is_empty() {
        assert_eq!(warm.counters.cones_reused, design.cones.len());
    }
    // The cached pass must also agree with the uncached entry point.
    let reference = lint_mapped_design(&design, &lib);
    assert_eq!(reference.findings.len(), warm.findings.len());
    assert_eq!(reference.notes.len(), warm.notes.len());
}

/// Corrupting a cover after the cache was warmed on the clean design must
/// still be flagged: the corrupted cone's key no longer matches any cached
/// clean pair, so its checks rerun in full.
#[test]
fn warm_cache_does_not_mask_a_corrupted_cover() {
    let (mut design, lib) = mapped_bench(0);
    let mut cache = asyncmap_lint::LintCache::new();
    let cold = asyncmap_lint::lint_mapped_design_cached(&design, &lib, &mut cache);
    assert!(cold.is_clean(), "{}", cold.render());
    // Drop a non-root instance from some multi-instance cover: its gates
    // become uncovered, a per-cone coverage violation.
    let ci = design
        .covers
        .iter()
        .position(|c| c.instances.len() >= 2)
        .expect("some cover uses two cells");
    design.covers[ci].instances.remove(0);
    let warm = asyncmap_lint::lint_mapped_design_cached(&design, &lib, &mut cache);
    assert!(
        !warm.is_clean(),
        "corrupted cover escaped the warm-cache lint"
    );
    // Every other cone is still eligible for reuse.
    assert!(warm.counters.cones_reused > 0);
}

/// Lints a corrupted copy of dme on Actel (`corrupt` edits the copy) and
/// asserts that `code` is among the findings.
fn assert_corruption_flags(code: &str, corrupt: impl FnOnce(&mut MappedDesign)) {
    let (mut design, lib) = mapped_bench(3);
    assert!(lint_mapped_design(&design, &lib).is_clean());
    corrupt(&mut design);
    let report = lint_mapped_design(&design, &lib);
    assert!(
        report.findings.iter().any(|f| f.code == code),
        "expected a {code} finding, got: {}",
        report.render()
    );
}

/// Index of a cone with at least two gates, and one of its non-root gates.
fn inner_gate(design: &MappedDesign) -> (usize, SignalId) {
    let ci = design
        .cones
        .iter()
        .position(|c| c.gates.len() >= 2)
        .expect("some cone has an inner gate");
    let cone = &design.cones[ci];
    let g = *cone.gates.iter().find(|&&g| g != cone.root).unwrap();
    (ci, g)
}

#[test]
fn duplicated_cone_is_flagged_as_duplicate_root() {
    assert_corruption_flags("partition.duplicate-root", |d| {
        d.cones.push(d.cones[0].clone());
        d.covers.push(d.covers[0].clone());
    });
}

#[test]
fn dropped_cone_is_flagged_as_missing_root() {
    assert_corruption_flags("partition.missing-root", |d| {
        d.cones.pop();
        d.covers.pop();
    });
}

#[test]
fn inner_gate_as_leaf_is_flagged_as_illegal_leaf() {
    assert_corruption_flags("partition.illegal-leaf", |d| {
        let (ci, g) = inner_gate(d);
        let other = (ci + 1) % d.cones.len();
        d.cones[other].leaves.push(g);
    });
}

#[test]
fn shared_gate_is_flagged_as_gate_in_two_cones() {
    assert_corruption_flags("partition.gate-in-two-cones", |d| {
        let (ci, g) = inner_gate(d);
        let other = (ci + 1) % d.cones.len();
        d.cones[other].gates.insert(0, g);
    });
}

#[test]
fn gate_dropped_from_its_cone_is_flagged_as_unassigned() {
    assert_corruption_flags("partition.gates-unassigned", |d| {
        let (ci, g) = inner_gate(d);
        d.cones[ci].gates.retain(|&s| s != g);
    });
}

#[test]
fn cone_rooted_inside_a_tree_is_flagged_as_illegal_boundary() {
    assert_corruption_flags("partition.illegal-boundary", |d| {
        let (ci, g) = inner_gate(d);
        d.cones[ci].root = g;
        d.covers[ci].root = g;
    });
}

#[test]
fn cover_with_a_foreign_root_is_flagged_as_root_mismatch() {
    assert_corruption_flags("structure.root-mismatch", |d| {
        d.covers[0].root = d.cones[1].root;
    });
}

#[test]
fn instance_in_two_covers_is_flagged_as_multiply_driven() {
    assert_corruption_flags("structure.multiply-driven", |d| {
        let copy = d.covers[0].instances[0].clone();
        d.covers[1].instances.push(copy);
    });
}

#[test]
fn pin_wired_to_a_consumer_cone_is_flagged_as_cycle() {
    assert_corruption_flags("structure.cycle", |d| {
        // A cone reading another cone's root; wiring the upstream root
        // instance to the consumer's root closes a loop across the two.
        let (consumer, producer) = d
            .cones
            .iter()
            .enumerate()
            .find_map(|(c, cone)| {
                let p = d.cones.iter().position(|p| cone.leaves.contains(&p.root))?;
                Some((c, p))
            })
            .expect("some cone reads another cone's root");
        let consumer_root = d.cones[consumer].root;
        let cover = &mut d.covers[producer];
        let root = cover.root;
        let inst = cover
            .instances
            .iter_mut()
            .find(|i| i.output == root)
            .expect("root instance");
        inst.inputs[0] = consumer_root;
    });
}

/// A pin wired to its own cover's root makes the binding graph cyclic
/// inside one cone; the per-cone composition must stop on it rather than
/// recurse forever.
#[test]
fn pin_wired_to_its_own_root_is_flagged_as_cycle() {
    assert_corruption_flags("structure.cycle", |d| {
        let cover = &mut d.covers[0];
        let root = cover.root;
        let inst = cover
            .instances
            .iter_mut()
            .find(|i| i.output == root)
            .expect("root instance");
        inst.inputs[0] = root;
    });
}

/// A cone root, leaf or gate or a binding past the end of the subject
/// network is a range finding, and the pass stops there rather than
/// index the network with it.
#[test]
fn signals_outside_the_network_are_flagged_as_out_of_range() {
    let corruptions: [fn(&mut MappedDesign, SignalId); 4] = [
        |d, s| d.cones[0].leaves.push(s),
        |d, s| d.cones[0].gates.push(s),
        |d, s| d.cones[0].root = s,
        |d, s| d.covers[0].instances[0].inputs[0] = s,
    ];
    for corrupt in corruptions {
        let (mut design, lib) = mapped_bench(3);
        let past = SignalId(design.subject.len() + 5);
        corrupt(&mut design, past);
        let report = lint_mapped_design(&design, &lib);
        assert!(
            !report.findings.is_empty()
                && report
                    .findings
                    .iter()
                    .all(|f| f.code == "structure.signal-out-of-range"),
            "{}",
            report.render()
        );
        assert!(binding_obligations(&design, &lib).is_empty());
    }
}

/// Lint's accepting Theorem 3.2 path on a real design: the BLIF fixture
/// `ctrl_like.blif` mapped to Actel binds one hazardous cell where the
/// covered subnetwork has its hazards, and lints clean with that binding
/// re-checked (`asyncmap map tests/fixtures/ctrl_like.blif actel --lint`).
#[test]
fn ctrl_like_blif_on_actel_lints_clean_with_a_theorem32_recheck() {
    let text = include_str!("../../../tests/fixtures/ctrl_like.blif");
    let netlist = asyncmap_blif::parse_blif(text, "ctrl_like").expect("fixture parses");
    let eqs = netlist
        .to_equations(&asyncmap_blif::CollapseLimits::default())
        .expect("fixture collapses");
    let mut lib = builtin::actel();
    lib.annotate_hazards();
    let design = async_tmap(&eqs, &lib, &MapOptions::default()).expect("maps");
    let report = lint_mapped_design(&design, &lib);
    assert!(report.is_clean(), "{}", report.render());
    assert!(report.counters.theorem32_checks >= 1, "{}", report.render());
}
