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

use crate::cover::{ConeCover, CoverError};
use crate::design::{mapped_cone_expr, MappedDesign};
use crate::hcache::HazardCache;
use crate::tmap::{map_run, Flow, MapOptions};
use asyncmap_cube::Bits;
use asyncmap_hazard::wave_eval;
use asyncmap_library::Library;
use asyncmap_network::{Cone, EquationSet, Network};
use std::sync::Arc;

/// A transition of interest: a specified burst from one total state to
/// another, over the equation set's primary-input space.
pub type Transition = (Bits, Bits);

/// Maps `eqs` exploiting hazard don't-cares: only the given specified
/// transitions must remain hazard-free.
///
/// Runs the common mapping pipeline (so it honours
/// [`MapOptions::threads`]) with its own verdict cache. In the returned
/// [`crate::MapStats`], `hazard_rejects` counts the cones that failed
/// certification and were re-covered with the hazard filter, and
/// `hazard_checks` counts one certification walk per cone and transition
/// plus the filter checks of those re-covers.
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
    let cache = Arc::new(HazardCache::new());
    map_run(eqs, library, options, Flow::Hdc(transitions), &cache, None).map(|run| run.design)
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
    let Ok(mapped) = mapped_cone_expr(cone, cover, library) else {
        return false;
    };
    let orig = cone.to_expr(net);
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
    fn thread_count_never_changes_hdc_mapping() {
        let mut lib = builtin::actel();
        lib.annotate_hazards();
        let (eqs, toi) = asyncmap_burst::benchmark_with_transitions("dme");
        let run = |threads| {
            let options = MapOptions {
                threads,
                ..MapOptions::default()
            };
            hdc_tmap(&eqs, &lib, &options, &toi).unwrap()
        };
        let (one, four) = (run(1), run(4));
        assert_eq!(format!("{:?}", one.covers), format!("{:?}", four.covers));
        assert_eq!(one.area.to_bits(), four.area.to_bits());
        assert_eq!(one.delay.to_bits(), four.delay.to_bits());
        // The counters that do not depend on which worker first meets a
        // verdict or memo key.
        let counts = |s: &crate::MapStats| {
            (
                s.hazard_checks,
                s.hazard_rejects,
                s.cache_hits + s.cache_misses,
                s.npn_hits + s.npn_misses,
                s.cut_truncations,
                s.cones,
                s.buffers,
                s.subject_gates,
            )
        };
        assert_eq!(counts(&one.stats), counts(&four.stats));
        assert!(one.stats.hazard_rejects > 0, "some cone is re-covered");
        assert!(one.stats.npn_hits + one.stats.npn_misses > 0);
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
