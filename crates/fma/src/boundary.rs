//! Per-cone hazard containment at the cone boundaries.
//!
//! A cone's leaves are primary inputs or other cones' roots, and the
//! generalized-fundamental-mode composition argument (paper Theorem
//! 3.2 / Lemma 4.5) only goes through when every cone adds no hazard over
//! its subject function: any monotone input burst the subject cone
//! handles glitch-free, the mapped cone must too. This module re-derives
//! that obligation from the finished design alone.
//!
//! Every cone's obligation is decided by
//! [`asyncmap_hazard::decide_containment`]: exactly, by the exhaustive
//! waveform sweep, up to [`EXHAUSTIVE_VAR_LIMIT`] leaves, where a
//! refutation is `boundary.containment` and names its escaping burst.
//! Wider cones get its bounded fallback instead of an exponential sweep:
//! a static-1 refutation on the flattened structures is a real violation
//! (`boundary.static1-escape`); any other inconclusive verdict counts the
//! cone as *partially* verified — a counter, not a finding, because an
//! inconclusive bound is not evidence of a defect.

use asyncmap_core::{cone_cover_words, mapped_cone_expr, CleanCones, MappedDesign};
use asyncmap_hazard::{decide_containment, transition_text, Containment, EXHAUSTIVE_VAR_LIMIT};
use asyncmap_library::Library;
use asyncmap_report::Severity;

/// Outcome of one cone's boundary check, merged in partition order.
pub(crate) struct ConeOutcome {
    /// Findings to append: `(severity, code, path, message)`.
    pub findings: Vec<(Severity, &'static str, String, String)>,
    /// Decided exactly: at most `EXHAUSTIVE_VAR_LIMIT` leaves. A cone
    /// neither exact nor reused took the wide-support fallback.
    pub exact: bool,
    /// Fallback ended without a full verdict.
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
    known_clean: &CleanCones,
    index: usize,
) -> ConeOutcome {
    let net = &design.subject;
    let cone = &design.cones[index];
    let cover = &design.covers[index];
    let mut out = ConeOutcome {
        findings: Vec::new(),
        exact: false,
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

    out.exact = n <= EXHAUSTIVE_VAR_LIMIT;
    match decide_containment(&mapped, &subject, n) {
        Containment::Holds => {}
        Containment::Partial(_) => out.partial = true,
        Containment::Refuted(Some(witness)) => out.findings.push((
            Severity::Error,
            "boundary.containment",
            path,
            format!(
                "mapped cone can glitch on an input burst its subject function \
                 handles clean ({n} leaves, exhaustive waveform sweep): transition {} \
                 — upstream monotone transitions no longer cover this cone's bursts",
                transition_text(witness, |i| i)
            ),
        )),
        Containment::Refuted(None) => out.findings.push((
            Severity::Error,
            "boundary.static1-escape",
            path,
            format!(
                "wide cone ({n} leaves): a static-1 transition of the subject \
                 function has no single covering product in the mapped \
                 structure's flattening — the cone can glitch while holding 1"
            ),
        )),
    }

    if !out.findings.is_empty() {
        out.key = None;
    }
    out
}
