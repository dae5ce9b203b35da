//! Hazard don't-care mapping — the paper's §6 future-work idea, realized:
//! in generalized fundamental mode the environment only ever applies the
//! *specified* input bursts, so hazards on unspecified transitions are
//! don't-cares. Exploiting them lets the mapper keep cheaper covers that
//! the blanket `hazards(cell) ⊆ hazards(subnetwork)` rule would reject.
//!
//! Strategy: cover each cone with the unconstrained (synchronous) matcher,
//! then *certify the cone against the transitions of interest only* —
//! projected through the subject network onto the cone's leaves. A cone
//! that fails certification is re-covered with the full asynchronous
//! hazard filter, which is always safe (Theorem 3.2).
//!
//! Soundness of the projection: cones are certified in topological order,
//! so during a specified burst every cone leaf either is a primary input
//! (changes per the burst) or the root of an already-certified cone
//! (changes monotonically, no extra transitions) — exactly the independent
//! single-transition-per-wire model under which the waveform oracle is
//! exact.

use crate::cover::{cover_cone, ConeCover, CoverError};
use crate::design::{assemble, mapped_cone_expr, MapStats, MappedDesign};
use crate::matcher::{HazardPolicy, Matcher};
use crate::tmap::MapOptions;
use asyncmap_cube::Bits;
use asyncmap_hazard::wave_eval;
use asyncmap_library::Library;
use asyncmap_network::{async_tech_decomp, partition, Cone, EquationSet, Network};

/// A transition of interest: a specified burst from one total state to
/// another, over the equation set's primary-input space.
pub type Transition = (Bits, Bits);

/// Maps `eqs` exploiting hazard don't-cares: only the given specified
/// transitions must remain hazard-free.
///
/// # Errors
///
/// Returns [`CoverError`] if some gate admits no match.
///
/// # Panics
///
/// Panics if `library` is not hazard-annotated or a transition's width
/// differs from the input count.
pub fn hdc_tmap(
    eqs: &EquationSet,
    library: &Library,
    options: &MapOptions,
    transitions: &[Transition],
) -> Result<MappedDesign, CoverError> {
    for (from, to) in transitions {
        assert_eq!(from.len(), eqs.inputs.len(), "transition width mismatch");
        assert_eq!(to.len(), eqs.inputs.len(), "transition width mismatch");
    }
    let subject = async_tech_decomp(eqs);
    let cones = partition(&subject);
    let relaxed = Matcher::new(library, HazardPolicy::Ignore);
    let strict = Matcher::new(library, HazardPolicy::SubsetCheck);
    let mut covers: Vec<ConeCover> = Vec::with_capacity(cones.len());
    let mut stats = MapStats::default();
    for cone in &cones {
        let candidate = cover_cone(&subject, cone, &relaxed, &options.limits)?;
        if cone_certified(&subject, cone, &candidate, library, transitions) {
            covers.push(candidate);
        } else {
            stats.hazard_rejects += 1; // cones that needed the strict path
            covers.push(cover_cone(&subject, cone, &strict, &options.limits)?);
        }
    }
    stats.hazard_checks = strict.counters().hazard_checks + cones.len() * transitions.len();
    Ok(assemble(
        library,
        subject,
        cones,
        covers,
        stats,
        options.add_buffers,
    ))
}

/// Certifies one cone cover against the projected transitions of interest:
/// wherever the original cone structure is clean, the mapped one must be.
pub fn cone_certified(
    net: &Network,
    cone: &Cone,
    cover: &ConeCover,
    library: &Library,
    transitions: &[Transition],
) -> bool {
    let (orig, _) = cone.to_expr(net);
    let mapped = mapped_cone_expr(net, cone, cover, library);
    for (from, to) in transitions {
        let values_from = net.eval(from);
        let values_to = net.eval(to);
        let mut leaf_from = Bits::new(cone.leaves.len());
        let mut leaf_to = Bits::new(cone.leaves.len());
        for (i, leaf) in cone.leaves.iter().enumerate() {
            leaf_from.set(i, values_from[leaf.index()]);
            leaf_to.set(i, values_to[leaf.index()]);
        }
        if leaf_from == leaf_to {
            continue; // the burst does not reach this cone
        }
        let w_orig = wave_eval(&orig, &leaf_from, &leaf_to);
        let w_mapped = wave_eval(&mapped, &leaf_from, &leaf_to);
        if w_mapped.hazard && !w_orig.hazard {
            return false;
        }
    }
    true
}

impl MappedDesign {
    /// Verifies the design against the transitions of interest: on every
    /// specified burst, each cone glitches no more than the original
    /// subject structure did.
    pub fn verify_hazards_on(&self, library: &Library, transitions: &[Transition]) -> bool {
        self.cones
            .iter()
            .zip(&self.covers)
            .all(|(cone, cover)| cone_certified(&self.subject, cone, cover, library, transitions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{async_tmap, tmap};
    use asyncmap_cube::{Cover, VarTable};
    use asyncmap_library::builtin;

    fn figure3_eqs() -> EquationSet {
        let vars = VarTable::from_names(["a", "b", "c"]);
        let f = Cover::parse("ab + a'c + bc", &vars).unwrap();
        EquationSet::new(vars, vec![("f".to_owned(), f)])
    }

    fn bits(m: usize) -> Bits {
        let mut b = Bits::new(3);
        for v in 0..3 {
            b.set(v, (m >> v) & 1 == 1);
        }
        b
    }

    #[test]
    fn no_transitions_means_sync_freedom() {
        let mut lib = builtin::cmos3();
        lib.annotate_hazards();
        let eqs = figure3_eqs();
        let hdc = hdc_tmap(&eqs, &lib, &MapOptions::default(), &[]).unwrap();
        let sync = tmap(&eqs, &lib, &MapOptions::default()).unwrap();
        // With nothing to protect, hdc may be as cheap as sync covering of
        // the (larger) async-decomposed subject.
        assert!(hdc.area <= sync.area + 16.0);
        assert!(hdc.verify_function(&lib));
    }

    #[test]
    fn protected_transition_forces_safety() {
        let mut lib = builtin::cmos3();
        lib.annotate_hazards();
        let eqs = figure3_eqs();
        // Protect exactly the Figure-3 transition: b=c=1, a changing.
        let toi = vec![(bits(0b110), bits(0b111))];
        let hdc = hdc_tmap(&eqs, &lib, &MapOptions::default(), &toi).unwrap();
        assert!(hdc.verify_function(&lib));
        assert!(hdc.verify_hazards_on(&lib, &toi));
    }

    #[test]
    fn hdc_never_exceeds_full_async_area() {
        let mut lib = builtin::lsi9k();
        lib.annotate_hazards();
        let eqs = asyncmap_burst::benchmark("dme-fast");
        let n = eqs.inputs.len();
        // Protect a couple of arbitrary single-input bursts.
        let mk = |m: usize| {
            let mut b = Bits::new(n);
            for v in 0..n {
                b.set(v, (m >> v) & 1 == 1);
            }
            b
        };
        let toi = vec![(mk(0), mk(1)), (mk(0b10), mk(0b11))];
        let asy = async_tmap(&eqs, &lib, &MapOptions::default()).unwrap();
        let hdc = hdc_tmap(&eqs, &lib, &MapOptions::default(), &toi).unwrap();
        assert!(hdc.area <= asy.area + 1e-9);
        assert!(hdc.verify_function(&lib));
        assert!(hdc.verify_hazards_on(&lib, &toi));
    }
}
