//! Per-cone hazard containment at the cone boundaries.
//!
//! A cone's leaves are primary inputs or other cones' roots, and the
//! generalized-fundamental-mode composition argument (paper Theorem
//! 3.2 / Lemma 4.5) only goes through when every cone adds no hazard over
//! its subject function: any monotone input burst the subject cone
//! handles glitch-free, the mapped cone must too. This module re-derives
//! that obligation from the finished design alone.
//!
//! Narrow cones (≤ [`asyncmap_hazard::EXHAUSTIVE_VAR_LIMIT`] leaves) get
//! the exhaustive waveform sweep, interned in the shared
//! [`HazardCache`] so repeated shapes — and re-analysis after an ECO
//! edit — pay once. Wider cones get a bounded-delay fallback ladder
//! instead of an exponential sweep:
//!
//! 1. structural equality (a 1:1 cover adds nothing);
//! 2. hazard-preserving flattening of both structures (product count
//!    permitting) and the exact static-1 containment condition on the
//!    flats — its failure is a real violation
//!    (`boundary.static1-escape`);
//! 3. otherwise the cone is counted as *partially* verified — a counter,
//!    not a finding, because an inconclusive bound is not evidence of a
//!    defect.

use asyncmap_bff::flatten;
use asyncmap_core::{cone_cover_words, mapped_cone_expr, CleanCones, HazardCache, MappedDesign};
use asyncmap_hazard::{
    hazards_subset_exhaustive, product_estimate, static1_subset, EXHAUSTIVE_VAR_LIMIT,
    FLATTEN_REPLAY_CAP,
};
use asyncmap_library::Library;
use asyncmap_report::Severity;

/// Outcome of one cone's boundary check, merged in partition order.
pub(crate) struct ConeOutcome {
    /// Findings to append: `(severity, code, path, message)`.
    pub findings: Vec<(Severity, &'static str, String, String)>,
    /// Exhaustive sweep ran.
    pub exact: bool,
    /// Wide-cone ladder ran.
    pub wide: bool,
    /// Ladder ended without a full verdict.
    pub partial: bool,
    /// Skipped — the cone's key was already known clean.
    pub reused: bool,
    /// Reuse key, present when the cone is self-contained and quiet.
    pub key: Option<Vec<u32>>,
}

/// Checks cone `index` of `design`, skipping it when its key is in
/// `known_clean`.
pub(crate) fn check_cone(
    design: &MappedDesign,
    library: &Library,
    hcache: &HazardCache,
    known_clean: &CleanCones,
    index: usize,
) -> ConeOutcome {
    let net = &design.subject;
    let cone = &design.cones[index];
    let cover = &design.covers[index];
    let mut out = ConeOutcome {
        findings: Vec::new(),
        exact: false,
        wide: false,
        partial: false,
        reused: false,
        key: cone_cover_words(net, cone, cover),
    };
    if let Some(key) = &out.key {
        if known_clean.keys.contains(key) {
            out.reused = true;
            return out;
        }
    }

    let n = cone.leaves.len();
    let path = net.name(cone.root).to_owned();
    let (subject, _) = cone.to_expr(net);
    let mapped = mapped_cone_expr(net, cone, cover, library);

    if n <= EXHAUSTIVE_VAR_LIMIT {
        out.exact = true;
        let contained = hcache.expr_verdict(&mapped, &subject, n, || {
            hazards_subset_exhaustive(&mapped, &subject, n)
        });
        if !contained {
            out.findings.push((
                Severity::Error,
                "boundary.containment",
                path,
                format!(
                    "mapped cone can glitch on an input burst its subject function \
                     handles clean ({n} leaves, exhaustive waveform sweep) — upstream \
                     monotone transitions no longer cover this cone's bursts"
                ),
            ));
        }
    } else {
        out.wide = true;
        if mapped != subject {
            if product_estimate(&mapped) <= FLATTEN_REPLAY_CAP
                && product_estimate(&subject) <= FLATTEN_REPLAY_CAP
            {
                let mflat = flatten(&mapped, n).cover;
                let sflat = flatten(&subject, n).cover;
                if static1_subset(&mflat, &sflat) {
                    // Static-1 behavior certified; the dynamic classes are
                    // covered by the mapper's per-match checks but not
                    // re-proved here.
                    out.partial = true;
                } else {
                    out.findings.push((
                        Severity::Error,
                        "boundary.static1-escape",
                        path,
                        format!(
                            "wide cone ({n} leaves): a static-1 transition of the subject \
                             function has no single covering product in the mapped \
                             structure's flattening — the cone can glitch while holding 1"
                        ),
                    ));
                }
            } else {
                out.partial = true;
            }
        }
    }

    if !out.findings.is_empty() {
        out.key = None;
    }
    out
}
