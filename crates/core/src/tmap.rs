//! Top-level mapping procedures: the paper's `tmap` (synchronous baseline)
//! and `async_tmap` (hazard-aware asynchronous mapper), plus the
//! designer-style `hand_map` baseline used by Table 3.

use crate::cluster::ClusterLimits;
use crate::cover::{cover_cone_with, hand_cover, ConeCover, CoverError};
use crate::design::{assemble, MapStats, MappedDesign};
use crate::hcache::HazardCache;
use crate::matcher::{HazardPolicy, Matcher};
use crate::profile::{self, MapPhase, PhaseTimes};
use asyncmap_library::Library;
use asyncmap_network::{
    async_tech_decomp, async_tech_decomp_traced, partition, partition_traced, sync_tech_decomp,
    Cone, DecompTrace, EquationSet, Network, PartitionTrace,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A post-map verification callback: inspects the finished design and
/// returns `Err` with a rendered report when it is unacceptable.
pub type PostMapHook = fn(&MappedDesign, &Library) -> Result<(), String>;

static POST_MAP_HOOK: OnceLock<PostMapHook> = OnceLock::new();

/// A pre-map qualification callback: statically qualifies the
/// (design, library) pair before any mapping work and returns `Err` with
/// a rendered report when the pair is disqualified (e.g. a guaranteed
/// cover failure).
pub type PreMapHook = fn(&EquationSet, &Library) -> Result<(), String>;

static PRE_MAP_HOOK: OnceLock<PreMapHook> = OnceLock::new();

/// Installs the process-wide pre-map qualification hook. The hook runs at
/// the top of every [`async_tmap`]/[`async_tmap_cached`] call when the
/// `ASYNCMAP_PREFLIGHT=1` environment variable is set; a failing hook
/// panics with the hook's report before any mapping work starts. The
/// first installation wins; later calls are ignored.
///
/// Mirrors [`set_post_map_hook`]: the core crate cannot depend on the
/// preflight crate (the qualification analyzer must be independent of the
/// mapper's code paths), so the facade installs it through this
/// indirection.
pub fn set_pre_map_hook(hook: PreMapHook) {
    let _ = PRE_MAP_HOOK.set(hook);
}

pub(crate) fn pre_map_check(eqs: &EquationSet, library: &Library) {
    if !std::env::var("ASYNCMAP_PREFLIGHT").is_ok_and(|v| v.trim() == "1") {
        return;
    }
    if let Some(hook) = PRE_MAP_HOOK.get() {
        if let Err(report) = hook(eqs, library) {
            panic!("ASYNCMAP_PREFLIGHT=1: pre-map qualification failed\n{report}");
        }
    }
}

/// A post-transform audit callback: replays the front end's certificate
/// trail (decomposition steps, partition cuts) against the subject
/// network and the source equations. Returns the number of certificates
/// checked, or `Err` with a rendered report when any certificate fails.
pub type PostTransformHook =
    fn(&EquationSet, &Network, &DecompTrace, &[Cone], &PartitionTrace) -> Result<usize, String>;

static POST_TRANSFORM_HOOK: OnceLock<PostTransformHook> = OnceLock::new();

/// Installs the process-wide transformation audit hook. The hook runs
/// after every successful [`async_tmap`]/[`async_tmap_cached`] call when
/// the `ASYNCMAP_AUDIT=1` environment variable is set; a failing hook
/// panics with the hook's report. The first installation wins; later
/// calls are ignored.
///
/// Mirrors [`set_post_map_hook`]: the core crate cannot depend on the
/// audit crate (the checker must share no code with the transformations
/// it certifies), so the facade installs the checker through this
/// indirection.
pub fn set_post_transform_hook(hook: PostTransformHook) {
    let _ = POST_TRANSFORM_HOOK.set(hook);
}

/// The audit hook to run, when `ASYNCMAP_AUDIT=1` and one is installed.
pub(crate) fn audit_hook() -> Option<PostTransformHook> {
    if !std::env::var("ASYNCMAP_AUDIT").is_ok_and(|v| v.trim() == "1") {
        return None;
    }
    POST_TRANSFORM_HOOK.get().copied()
}

/// Installs the process-wide post-map verification hook. The hook runs
/// after every successful [`async_tmap`]/[`async_tmap_cached`] call when
/// the `ASYNCMAP_LINT=1` environment variable is set; a failing hook
/// panics with the hook's report. The first installation wins; later
/// calls are ignored.
///
/// The core crate cannot depend on the lint crate (the lint pass must be
/// independent of the mapper's code paths), so the facade installs the
/// lint pass through this indirection.
pub fn set_post_map_hook(hook: PostMapHook) {
    let _ = POST_MAP_HOOK.set(hook);
}

pub(crate) fn post_map_check(design: &MappedDesign, library: &Library) {
    if !std::env::var("ASYNCMAP_LINT").is_ok_and(|v| v.trim() == "1") {
        return;
    }
    if let Some(hook) = POST_MAP_HOOK.get() {
        if let Err(report) = hook(design, library) {
            panic!("ASYNCMAP_LINT=1: post-map verification failed\n{report}");
        }
    }
}

/// A post-map fundamental-mode analysis callback: runs the whole-design
/// analyzer over the finished design and returns the number of cones it
/// analyzed, or `Err` with a rendered report when the design violates the
/// fundamental-mode operating assumption.
pub type PostAnalyzeHook = fn(&MappedDesign, &Library) -> Result<usize, String>;

static POST_ANALYZE_HOOK: OnceLock<PostAnalyzeHook> = OnceLock::new();

/// Installs the process-wide post-map fundamental-mode analysis hook. The
/// hook runs after every successful [`async_tmap`]/[`async_tmap_cached`]
/// (and ECO remap) when the `ASYNCMAP_FMA=1` environment variable is set;
/// a failing hook panics with the hook's report. The first installation
/// wins; later calls are ignored.
///
/// Mirrors [`set_post_map_hook`]: the core crate cannot depend on the
/// analyzer crate (the analysis must be independent of the mapper's code
/// paths), so the facade installs it through this indirection.
pub fn set_post_analyze_hook(hook: PostAnalyzeHook) {
    let _ = POST_ANALYZE_HOOK.set(hook);
}

pub(crate) fn post_analyze_check(design: &mut MappedDesign, library: &Library) {
    if !std::env::var("ASYNCMAP_FMA").is_ok_and(|v| v.trim() == "1") {
        return;
    }
    if let Some(hook) = POST_ANALYZE_HOOK.get() {
        let _t = profile::timer(MapPhase::Analyze);
        match hook(&*design, library) {
            Ok(cones) => design.stats.fma_cones = cones,
            Err(report) => panic!("ASYNCMAP_FMA=1: fundamental-mode analysis failed\n{report}"),
        }
    }
}

/// The covering objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Minimize total cell area (the paper's tables).
    #[default]
    Area,
    /// Minimize critical-path cell delay, breaking ties by area.
    Delay,
}

/// Options shared by the mapping procedures.
#[derive(Debug, Clone)]
pub struct MapOptions {
    /// Cluster enumeration limits (the paper's tables use depth 5).
    pub limits: ClusterLimits,
    /// Insert fanout buffers at multi-fanout cone roots (on for automatic
    /// mapping, off for the hand-mapped baseline — Table 3's note).
    pub add_buffers: bool,
    /// Covering objective (area by default, as in the paper).
    pub objective: Objective,
    /// Worker threads for cone covering: `0` = one per available core,
    /// `1` = sequential, `n` = exactly `n`. Cones are independent
    /// single-output trees, so any thread count produces a bit-identical
    /// mapped design. [`MapOptions::default`] reads the `ASYNCMAP_THREADS`
    /// environment variable, defaulting to `1`.
    pub threads: usize,
}

impl Default for MapOptions {
    fn default() -> Self {
        MapOptions {
            limits: ClusterLimits::default(),
            add_buffers: true,
            objective: Objective::Area,
            threads: threads_from_env(),
        }
    }
}

/// Reads the `ASYNCMAP_THREADS` override (`0` = all cores); absent or
/// unparsable means sequential.
fn threads_from_env() -> usize {
    std::env::var("ASYNCMAP_THREADS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(1)
}

/// Resolves the `threads` knob to a concrete worker count for `jobs` cones.
/// Workers beyond the machine's available parallelism only add scheduling
/// overhead (the covering loop never blocks), so the request is capped at
/// the core count.
fn effective_threads(threads: usize, jobs: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let requested = if threads == 0 {
        cores
    } else {
        threads.min(cores)
    };
    requested.min(jobs).max(1)
}

/// The worker count `ASYNCMAP_THREADS` asks for, resolved against the
/// machine: unset or unparsable is `1`, `0` is one per available core, and
/// any other value is capped at the core count. For the checking passes
/// that parallelize over cones without going through [`MapOptions`].
pub fn threads_from_env_capped() -> usize {
    effective_threads(threads_from_env(), usize::MAX)
}

/// The synchronous mapping procedure (paper §3.1 `tmap`):
/// simplifying decomposition, partitioning, Boolean matching and
/// minimum-area covering — no hazard awareness.
///
/// # Errors
///
/// Returns [`CoverError`] if some gate admits no match.
pub fn tmap(
    eqs: &EquationSet,
    library: &Library,
    options: &MapOptions,
) -> Result<MappedDesign, CoverError> {
    let phases_before = profile::snapshot();
    let subject = {
        let _t = profile::timer(MapPhase::Decompose);
        sync_tech_decomp(eqs)
    };
    run(
        subject,
        library,
        HazardPolicy::Ignore,
        options,
        false,
        phases_before,
    )
}

/// The asynchronous mapping procedure (paper §3.2 `async_tmap`):
/// hazard-preserving decomposition (`async_tech_decomp`), partitioning,
/// and matching in which a hazardous library element is accepted only when
/// its hazards are a subset of the subnetwork's.
///
/// # Errors
///
/// Returns [`CoverError`] if some gate admits no match.
///
/// # Panics
///
/// Panics if `library` has not been hazard-annotated
/// ([`Library::annotate_hazards`]).
pub fn async_tmap(
    eqs: &EquationSet,
    library: &Library,
    options: &MapOptions,
) -> Result<MappedDesign, CoverError> {
    async_tmap_cached(eqs, library, options, &Arc::new(HazardCache::new()))
}

/// [`async_tmap`] with an externally-owned hazard-verdict cache: verdicts
/// computed in one invocation are reused by every later invocation sharing
/// `cache`. The mapped design is identical to `async_tmap`'s — only the
/// [`MapStats::cache_hits`]/[`MapStats::cache_misses`] split (and the
/// running time) changes with cache warmth.
///
/// # Errors
///
/// Returns [`CoverError`] if some gate admits no match.
///
/// # Panics
///
/// Panics if `library` has not been hazard-annotated, or if `cache` was
/// previously used with a different library.
pub fn async_tmap_cached(
    eqs: &EquationSet,
    library: &Library,
    options: &MapOptions,
    cache: &Arc<HazardCache>,
) -> Result<MappedDesign, CoverError> {
    let phases_before = profile::snapshot();
    pre_map_check(eqs, library);
    let audit = audit_hook();
    let (subject, dtrace) = {
        let _t = profile::timer(MapPhase::Decompose);
        if audit.is_some() {
            let (net, trace) = async_tech_decomp_traced(eqs);
            (net, Some(trace))
        } else {
            (async_tech_decomp(eqs), None)
        }
    };
    let mut design = run_with_cache(
        subject,
        library,
        HazardPolicy::SubsetCheck,
        options,
        false,
        cache,
        phases_before,
    )?;
    if let (Some(hook), Some(dtrace)) = (audit, dtrace) {
        // Re-partitioning is deterministic and cheap relative to covering;
        // running it traced here keeps the mapping fast path untouched.
        let (cones, ptrace) = partition_traced(&design.subject);
        match hook(eqs, &design.subject, &dtrace, &cones, &ptrace) {
            Ok(certificates) => design.stats.audit_certificates = certificates,
            Err(report) => panic!("ASYNCMAP_AUDIT=1: transformation audit failed\n{report}"),
        }
    }
    Ok(design)
}

/// A "designer-style" structural mapping without hazard filtering: the
/// hand-mapped baseline of Table 3 (greedy biggest-cell-first cover on the
/// hazard-preserving decomposition, no fanout buffers).
///
/// # Errors
///
/// Returns [`CoverError`] if some gate admits no match.
pub fn hand_map(
    eqs: &EquationSet,
    library: &Library,
    options: &MapOptions,
) -> Result<MappedDesign, CoverError> {
    let phases_before = profile::snapshot();
    let subject = {
        let _t = profile::timer(MapPhase::Decompose);
        async_tech_decomp(eqs)
    };
    run(
        subject,
        library,
        HazardPolicy::Ignore,
        options,
        true,
        phases_before,
    )
}

fn run(
    subject: asyncmap_network::Network,
    library: &Library,
    policy: HazardPolicy,
    options: &MapOptions,
    greedy: bool,
    phases_before: PhaseTimes,
) -> Result<MappedDesign, CoverError> {
    run_with_cache(
        subject,
        library,
        policy,
        options,
        greedy,
        &Arc::new(HazardCache::new()),
        phases_before,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_with_cache(
    subject: asyncmap_network::Network,
    library: &Library,
    policy: HazardPolicy,
    options: &MapOptions,
    greedy: bool,
    cache: &Arc<HazardCache>,
    phases_before: PhaseTimes,
) -> Result<MappedDesign, CoverError> {
    let cones = {
        let _t = profile::timer(MapPhase::Partition);
        partition(&subject)
    };
    let matcher = Matcher::with_cache(library, policy, Arc::clone(cache));
    // Every counter in MapStats is per-run: matcher counters and process
    // phase timers are snapshot-deltas around this run, and the shared
    // cache's totals are differenced the same way.
    let matcher_before = matcher.counters();
    let hits_before = cache.hits();
    let misses_before = cache.misses();
    let alloc_before = profile::enum_alloc_snapshot();
    let threads = effective_threads(options.threads, cones.len());
    let cover_one = |cone| {
        if greedy {
            hand_cover(&subject, cone, &matcher, &options.limits)
        } else {
            cover_cone_with(&subject, cone, &matcher, &options.limits, options.objective)
        }
    };
    let covers = if threads <= 1 {
        let mut covers: Vec<ConeCover> = Vec::with_capacity(cones.len());
        for cone in &cones {
            covers.push(cover_one(cone)?);
        }
        covers
    } else {
        cover_parallel(&cones, threads, &cover_one)?
    };
    let phases = profile::snapshot().delta(&phases_before);
    profile::maybe_dump(&phases);
    let cut_truncations = covers.iter().map(|c| c.cut_truncations).sum();
    let counters = matcher.counters().delta(&matcher_before);
    let alloc = profile::enum_alloc_snapshot().delta(&alloc_before);
    profile::maybe_dump_counters(
        cut_truncations,
        counters.npn_hits,
        counters.npn_misses,
        &alloc,
    );
    let stats = MapStats {
        hazard_checks: counters.hazard_checks,
        hazard_rejects: counters.hazard_rejects,
        cache_hits: cache.hits() - hits_before,
        cache_misses: cache.misses() - misses_before,
        npn_hits: counters.npn_hits,
        npn_misses: counters.npn_misses,
        cut_truncations,
        enum_warm_cones: alloc.warm_cones as usize,
        enum_alloc_events: alloc.alloc_events as usize,
        phases,
        ..MapStats::default()
    };
    let add_buffers = options.add_buffers && !greedy;
    let mut design = assemble(library, subject, cones, covers, stats, add_buffers);
    // Opt-in post-map verification, only for the hazard-filtered flow: a
    // synchronous or hand-mapped design legitimately fails the Theorem 3.2
    // re-check (and the fundamental-mode analysis assumes it).
    if matches!(policy, HazardPolicy::SubsetCheck) && !greedy {
        post_map_check(&design, library);
        post_analyze_check(&mut design, library);
    }
    Ok(design)
}

/// Covers every cone on `threads` scoped workers pulling cone indices from
/// a shared atomic counter, then reassembles the results **in partition
/// order** — cones are disjoint single-output trees, so the assembled
/// design is bit-identical to the sequential one regardless of scheduling.
/// If any cone fails, the error reported is the one the sequential loop
/// would have hit first.
///
/// The only shared state is the lock-free work counter; each worker keeps
/// its `(index, result)` pairs locally and hands them back through its
/// join handle, so no thread ever blocks on another.
fn cover_parallel<'a>(
    cones: &'a [asyncmap_network::Cone],
    threads: usize,
    cover_one: &(dyn Fn(&'a asyncmap_network::Cone) -> Result<ConeCover, CoverError> + Sync),
) -> Result<Vec<ConeCover>, CoverError> {
    let next = AtomicUsize::new(0);
    let mut results: Vec<(usize, Result<ConeCover, CoverError>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, Result<ConeCover, CoverError>)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cone) = cones.get(i) else { break };
                        local.push((i, cover_one(cone)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("cone worker panicked"))
            .collect()
    });
    debug_assert_eq!(results.len(), cones.len());
    results.sort_by_key(|&(i, _)| i);
    // First error in partition order, exactly as the sequential loop.
    results.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::{Cover, VarTable};
    use asyncmap_library::builtin;

    fn figure3_eqs() -> EquationSet {
        let vars = VarTable::from_names(["a", "b", "c"]);
        let f = Cover::parse("ab + a'c + bc", &vars).unwrap();
        EquationSet::new(vars, vec![("f".to_owned(), f)])
    }

    #[test]
    fn sync_vs_async_on_figure3() {
        let mut lib = builtin::cmos3();
        lib.annotate_hazards();
        let eqs = figure3_eqs();
        let sync = tmap(&eqs, &lib, &MapOptions::default()).unwrap();
        let asy = async_tmap(&eqs, &lib, &MapOptions::default()).unwrap();
        // The sync mapper simplifies away bc and can use the hazardous mux:
        // smaller area, but it loses the hazard freedom.
        assert!(sync.area <= asy.area);
        assert!(asy.verify_function(&lib));
        assert!(asy.verify_hazards(&lib));
        // The async mapper performed (and possibly rejected) hazard checks.
        assert!(asy.stats.hazard_checks > 0);
        assert_eq!(sync.stats.hazard_checks, 0);
    }

    #[test]
    fn hand_map_no_smaller_than_async() {
        let mut lib = builtin::gdt();
        lib.annotate_hazards();
        let eqs = figure3_eqs();
        let hand = hand_map(&eqs, &lib, &MapOptions::default()).unwrap();
        let auto = async_tmap(&eqs, &lib, &MapOptions::default()).unwrap();
        assert!(hand.area + 1e-9 >= auto.area - auto.stats.buffers as f64 * 100.0);
        assert!(hand.verify_function(&lib));
    }

    #[test]
    fn multi_output_design_maps() {
        let vars = VarTable::from_names(["a", "b", "c", "d"]);
        let f = Cover::parse("ab + c'd", &vars).unwrap();
        let g = Cover::parse("a'b' + cd'", &vars).unwrap();
        let eqs = EquationSet::new(vars, vec![("f".to_owned(), f), ("g".to_owned(), g)]);
        let mut lib = builtin::lsi9k();
        lib.annotate_hazards();
        let design = async_tmap(&eqs, &lib, &MapOptions::default()).unwrap();
        assert!(design.verify_function(&lib));
        assert!(design.verify_hazards(&lib));
        assert_eq!(design.subject.outputs().len(), 2);
    }

    #[test]
    fn delay_objective_trades_area_for_speed() {
        let mut lib = builtin::lsi9k();
        lib.annotate_hazards();
        let eqs = asyncmap_burst::benchmark("dme");
        let area_opts = MapOptions::default();
        let delay_opts = MapOptions {
            objective: Objective::Delay,
            ..MapOptions::default()
        };
        let by_area = async_tmap(&eqs, &lib, &area_opts).unwrap();
        let by_delay = async_tmap(&eqs, &lib, &delay_opts).unwrap();
        assert!(by_delay.delay <= by_area.delay + 1e-9);
        assert!(by_delay.area + 1e-9 >= by_area.area);
        assert!(by_delay.verify_function(&lib));
        assert!(by_delay.verify_hazards(&lib));
    }

    #[test]
    fn actel_mapping_rejects_unsafe_modules() {
        let mut lib = builtin::actel();
        lib.annotate_hazards();
        let eqs = figure3_eqs();
        let design = async_tmap(&eqs, &lib, &MapOptions::default()).unwrap();
        assert!(design.verify_function(&lib));
        assert!(design.verify_hazards(&lib));
    }
}
