//! One job of the verified flow, as a user runs it through the public
//! API: load → preflight → map → self-verify → lint → audit → fma, or the
//! reuse-aware ECO loop. Every call into a layer is wrapped in a span
//! named after the layer (see [`crate::workload::layer_of`]).

use crate::trace::Tracer;
use asyncmap::audit::{AuditCache, AuditReport};
use asyncmap::burst::BurstSpec;
use asyncmap::hazard::EXHAUSTIVE_VAR_LIMIT;
use asyncmap::lint::LintCache;
use asyncmap::mapper::{assemble, cover_cone_with, HazardCache, HazardPolicy, MapStats, Matcher};
use asyncmap::network::{async_tech_decomp, partition};
use asyncmap::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Work counters of one job, by per-layer metric name.
pub type Counts = BTreeMap<&'static str, f64>;

fn add(counts: &mut Counts, key: &'static str, value: usize) {
    *counts.entry(key).or_default() += value as f64;
}

/// One job's design, in the form the program receives it.
#[derive(Debug, Clone, Copy)]
pub enum Input<'a> {
    /// A burst-mode specification in `.bms` text.
    Bms(&'a str),
    /// A combinational BLIF netlist.
    Blif(&'a str),
    /// Equations already loaded during set-up.
    Equations(&'a EquationSet),
}

/// What one job produced. A job passes when `design` is `Ok`: the map
/// succeeded and every checker accepted it.
#[derive(Debug)]
pub struct Outcome {
    /// The checked design, or why the job failed.
    pub design: Result<MappedDesign, String>,
    /// Hazard obligations the checkers attempted.
    pub obligations: usize,
    /// Obligations skipped or answered only partially.
    pub undecided: usize,
    /// Per-layer work counters.
    pub counts: Counts,
}

impl Outcome {
    /// A failed job with no counters.
    pub fn failed(why: String) -> Self {
        Outcome {
            design: Err(why),
            obligations: 0,
            undecided: 0,
            counts: Counts::new(),
        }
    }

    fn new() -> Self {
        Self::failed(String::new())
    }
}

/// The repository's design fingerprint (area, delay, instances, hazard
/// rejects): equal fingerprints are what "the same mapped design" means
/// for the ECO and replay cross-checks.
pub type Fingerprint = (u64, u64, usize, usize);

/// The fingerprint of `design`.
pub fn fingerprint(design: &MappedDesign) -> Fingerprint {
    asyncmap::bench::design_fingerprint(design)
}

fn synthesize(text: &str) -> Result<(EquationSet, BurstSpec), String> {
    let spec = asyncmap::burst::parse_bms(text).map_err(|e| e.to_string())?;
    let flow = asyncmap::burst::expand(&spec).map_err(|e| e.to_string())?;
    let mut vars = VarTable::new();
    for n in &flow.var_names {
        vars.intern(n);
    }
    let equations = flow
        .functions
        .iter()
        .map(|f| {
            asyncmap::burst::hazard_free_cover(f)
                .map(|cover| (f.name.clone(), cover))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((EquationSet::new(vars, equations), spec))
}

fn load_blif(text: &str) -> Result<EquationSet, String> {
    let net = asyncmap::blif::parse_blif(text, "design").map_err(|e| e.to_string())?;
    net.to_equations(&asyncmap::blif::CollapseLimits::default())
        .map_err(|e| e.to_string())
}

/// `async_tmap` replayed stage by stage, so decomposition, partitioning,
/// covering and assembly each get their own span. Its result must be
/// fingerprint-identical to `async_tmap`'s.
fn staged_map(tr: &mut Tracer, eqs: &EquationSet, lib: &Library) -> Result<MappedDesign, String> {
    let options = MapOptions::default();
    let subject = tr.span("network.decompose", |_| async_tech_decomp(eqs));
    let cones = tr.span("network.partition", |_| partition(&subject));
    let cache = Arc::new(HazardCache::new());
    let matcher = tr.span("core.matcher", |_| {
        Matcher::with_cache(lib, HazardPolicy::SubsetCheck, Arc::clone(&cache))
    });
    let mut covers = Vec::with_capacity(cones.len());
    for cone in &cones {
        let cover = tr.span("core.cover", |_| {
            cover_cone_with(&subject, cone, &matcher, &options.limits, options.objective)
        });
        covers.push(cover.map_err(|e| e.to_string())?);
    }
    let m = matcher.counters();
    let stats = MapStats {
        hazard_checks: m.hazard_checks,
        hazard_rejects: m.hazard_rejects,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        npn_hits: m.npn_hits,
        npn_misses: m.npn_misses,
        cut_truncations: covers.iter().map(|c| c.cut_truncations).sum(),
        ..MapStats::default()
    };
    Ok(tr.span("core.assemble", |_| {
        assemble(lib, subject, cones, covers, stats, options.add_buffers)
    }))
}

fn record_map(c: &mut Counts, d: &MappedDesign) {
    let s = &d.stats;
    add(c, "network.cones", d.cones.len());
    add(c, "core.hazard_checks", s.hazard_checks);
    add(c, "core.hazard_rejects", s.hazard_rejects);
    add(c, "core.hcache_hits", s.cache_hits);
    add(c, "core.hcache_misses", s.cache_misses);
    add(c, "core.npn_hits", s.npn_hits);
    add(c, "core.npn_misses", s.npn_misses);
    add(c, "core.cut_truncations", s.cut_truncations);
}

fn record_lint(out: &mut Outcome, r: &asyncmap::lint::LintReport) {
    let k = &r.counters;
    out.obligations += k.cone_sweeps + k.cone_sweeps_skipped;
    out.undecided += k.cone_sweeps_skipped;
    add(&mut out.counts, "lint.cone_sweeps", k.cone_sweeps);
    add(&mut out.counts, "lint.cones", k.cones);
    add(&mut out.counts, "lint.cones_reused", k.cones_reused);
}

fn record_audit(out: &mut Outcome, r: &AuditReport) {
    let k = &r.counters;
    out.obligations += k.hazard_rechecks + k.hazard_partial;
    out.undecided += k.hazard_partial;
    add(&mut out.counts, "audit.hazard_rechecks", k.hazard_rechecks);
    add(&mut out.counts, "audit.hazard_partial", k.hazard_partial);
    add(&mut out.counts, "audit.certificates", k.num_certificates());
    let reused = k.reused_steps + k.reused_equations + k.reused_flattens;
    add(&mut out.counts, "audit.reused", reused);
}

fn record_fma(out: &mut Outcome, r: &FmaReport) {
    let k = &r.counters;
    out.obligations += k.containment_exact + k.containment_wide;
    out.undecided += k.containment_partial;
    add(&mut out.counts, "fma.exact_sweeps", k.containment_exact);
    add(&mut out.counts, "fma.wide", k.containment_wide);
    add(&mut out.counts, "fma.partial", k.containment_partial);
    add(&mut out.counts, "fma.race_points", k.race_points);
    add(&mut out.counts, "fma.cones", k.cones);
    add(&mut out.counts, "fma.cones_reused", k.cones_reused);
}

/// The cold verified flow on one design: load, preflight, map (staged
/// when tracing), function and hazard self-verification, lint, audit
/// (with the spec check when the input is a burst-mode spec) and the
/// fundamental-mode analyzer.
pub fn cold_job(tr: &mut Tracer, input: Input<'_>, lib: &Library) -> Outcome {
    let mut out = Outcome::new();
    out.design = cold_flow(tr, input, lib, &mut out);
    out
}

fn cold_flow(
    tr: &mut Tracer,
    input: Input<'_>,
    lib: &Library,
    out: &mut Outcome,
) -> Result<MappedDesign, String> {
    let loaded;
    let (eqs, spec) = match input {
        Input::Bms(text) => {
            let (eqs, spec) = tr.span("burst.synth", |_| synthesize(text))?;
            loaded = eqs;
            (&loaded, Some(spec))
        }
        Input::Blif(text) => {
            loaded = tr.span("blif.load", |_| load_blif(text))?;
            (&loaded, None)
        }
        Input::Equations(eqs) => (eqs, None),
    };

    let pre = tr.span("preflight", |_| asyncmap::preflight::preflight(eqs, lib));
    add(&mut out.counts, "preflight.clusters", pre.counters.clusters);
    if pre.num_errors() > 0 {
        return Err(format!("preflight errors:\n{}", pre.render()));
    }

    let design = if tr.enabled() {
        staged_map(tr, eqs, lib)?
    } else {
        async_tmap(eqs, lib, &MapOptions::default()).map_err(|e| e.to_string())?
    };
    record_map(&mut out.counts, &design);

    if !tr.span("core.verify_function", |_| design.verify_function(lib)) {
        return Err("mapped design is not equivalent to its subject network".into());
    }
    // verify_hazards passes cones wider than the exhaustive sweep without
    // checking them; count those from outside.
    let skipped = design
        .cones
        .iter()
        .filter(|c| c.leaves.len() > EXHAUSTIVE_VAR_LIMIT)
        .count();
    out.obligations += design.cones.len();
    out.undecided += skipped;
    add(&mut out.counts, "core.verify_cones_skipped", skipped);
    if !tr.span("core.verify_hazards", |_| design.verify_hazards(lib)) {
        return Err("mapped design gained hazards".into());
    }

    let lint = tr.span("lint", |_| lint_mapped_design(&design, lib));
    record_lint(out, &lint);
    if !lint.is_clean() {
        return Err(lint.render());
    }

    let audit = tr.span("audit", |_| {
        let mut report = match &spec {
            Some(spec) => asyncmap::audit::check_spec(spec),
            None => AuditReport::default(),
        };
        report.merge(asyncmap::audit::audit_equations(eqs));
        report
    });
    record_audit(out, &audit);
    if !audit.is_clean() {
        return Err(audit.render());
    }

    let fma = tr.span("fma", |_| match &spec {
        Some(spec) => analyze_design_with_spec(&design, lib, spec),
        None => analyze_design(&design, lib),
    });
    record_fma(out, &fma);
    if fma.num_errors() > 0 {
        return Err(fma.render());
    }
    Ok(design)
}

/// The reuse stores an ECO loop keeps between edits: the session's cover
/// store and the three checkers' clean-verdict caches.
pub struct EcoState<'lib> {
    session: EcoSession<'lib>,
    lint: LintCache,
    audit: AuditCache,
    fma: FmaCache,
}

impl<'lib> EcoState<'lib> {
    /// Base-maps `base` and verifies it cold, which warms every store.
    ///
    /// # Errors
    ///
    /// Returns the failing step's message when the base design does not
    /// map or a checker rejects it.
    pub fn warm(tr: &mut Tracer, lib: &'lib Library, base: &EquationSet) -> Result<Self, String> {
        let mut st = EcoState {
            session: EcoSession::new(lib, MapOptions::default()),
            lint: LintCache::new(),
            audit: AuditCache::new(),
            fma: FmaCache::new(),
        };
        st.check(tr, lib, base, &mut Outcome::new())?;
        Ok(st)
    }

    /// One edit: incremental remap plus the reuse-aware lint, audit and
    /// fundamental-mode analysis of the edited design.
    pub fn job(&mut self, tr: &mut Tracer, lib: &Library, eqs: &EquationSet) -> Outcome {
        let mut out = Outcome::new();
        out.design = self.check(tr, lib, eqs, &mut out);
        out
    }

    fn check(
        &mut self,
        tr: &mut Tracer,
        lib: &Library,
        eqs: &EquationSet,
        out: &mut Outcome,
    ) -> Result<MappedDesign, String> {
        let session = &mut self.session;
        let remap = tr
            .span("core.eco_remap", |_| session.map(eqs))
            .map_err(|e| e.to_string())?;
        let e = remap.eco;
        add(&mut out.counts, "core.eco_cones_remapped", e.cones_remapped);
        add(&mut out.counts, "core.eco_cones_reused", e.cones_reused);
        add(&mut out.counts, "core.eco_cones_total", e.cones_total);
        let design = remap.design;
        record_map(&mut out.counts, &design);

        let cache = &mut self.lint;
        let lint = tr.span("lint", |_| {
            asyncmap::lint::lint_mapped_design_cached(&design, lib, cache)
        });
        record_lint(out, &lint);
        if !lint.is_clean() {
            return Err(lint.render());
        }
        let cache = &mut self.audit;
        let audit = tr.span("audit", |_| {
            asyncmap::audit::audit_equations_cached(eqs, cache)
        });
        record_audit(out, &audit);
        if !audit.is_clean() {
            return Err(audit.render());
        }
        let cache = &mut self.fma;
        let fma = tr.span("fma", |_| {
            asyncmap::fma::analyze_design_cached(&design, lib, cache)
        });
        record_fma(out, &fma);
        if fma.num_errors() > 0 {
            return Err(fma.render());
        }
        Ok(design)
    }
}
