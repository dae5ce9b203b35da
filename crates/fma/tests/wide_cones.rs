//! Wide cones (more than `EXHAUSTIVE_VAR_LIMIT` leaves) take the bounded
//! fallback of `decide_containment`, whose replay cap bounds the *sum* of
//! the two sides' product estimates.

use asyncmap_core::{async_tmap, mapped_cone_expr, MapOptions};
use asyncmap_cube::{Cover, VarTable};
use asyncmap_fma::analyze_design;
use asyncmap_hazard::{
    decide_containment, product_estimate, Containment, PartialReason, EXHAUSTIVE_VAR_LIMIT,
    FLATTEN_REPLAY_CAP,
};
use asyncmap_library::builtin;
use asyncmap_network::EquationSet;

/// `a` times each of the first `count` five-literal cubes over `b..l`:
/// one single-output sum of `count` products over twelve variables.
fn wide_sop(count: usize) -> EquationSet {
    let names: Vec<String> = (b'a'..=b'l').map(|c| char::from(c).to_string()).collect();
    let vars = VarTable::from_names(names.iter().map(String::as_str));
    let cubes: Vec<String> = (0u32..1 << 11)
        .filter(|mask| mask.count_ones() == 4)
        .flat_map(|mask| (0u32..16).map(move |polarity| (mask, polarity)))
        .take(count)
        .map(|(mask, polarity)| {
            let mut cube = String::from("a");
            let chosen = (0..11).filter(|v| mask >> v & 1 == 1);
            for (k, v) in chosen.enumerate() {
                cube.push(char::from(b'b' + v as u8));
                if polarity >> k & 1 == 1 {
                    cube.push('\'');
                }
            }
            cube
        })
        .collect();
    let f = Cover::parse(&cubes.join(" + "), &vars).expect("valid cover");
    EquationSet::new(vars, vec![("f".to_owned(), f)])
}

/// A cone whose subject and mapped structures each stay within the
/// replay cap but together exceed it is counted partial, with no finding:
/// the cap applies to the pair, not to each side.
#[test]
fn cone_over_the_summed_replay_cap_is_partial() {
    let mut lib = builtin::lsi9k();
    lib.annotate_hazards();
    let design = async_tmap(&wide_sop(2100), &lib, &MapOptions::default()).unwrap();

    let wide: Vec<usize> = (0..design.cones.len())
        .filter(|&i| design.cones[i].leaves.len() > EXHAUSTIVE_VAR_LIMIT)
        .collect();
    assert_eq!(wide.len(), 1, "one wide cone");
    let index = wide[0];
    let cone = &design.cones[index];
    let (subject, _) = cone.to_expr(&design.subject);
    let mapped = mapped_cone_expr(&design.subject, cone, &design.covers[index], &lib);
    let (s, m) = (product_estimate(&subject), product_estimate(&mapped));
    assert!(
        s <= FLATTEN_REPLAY_CAP && m <= FLATTEN_REPLAY_CAP,
        "{s} / {m}"
    );
    assert!(s + m > FLATTEN_REPLAY_CAP, "{s} / {m}");
    assert_eq!(
        decide_containment(&mapped, &subject, cone.leaves.len()),
        Containment::Partial(PartialReason::OverReplayCap)
    );

    let report = analyze_design(&design, &lib);
    assert!(report.findings.is_empty(), "{}", report.render());
    assert_eq!(report.counters.containment_wide, 1);
    assert_eq!(report.counters.containment_partial, 1);
}
