//! Top-level mapping procedures: the paper's `tmap` (synchronous baseline)
//! and `async_tmap` (hazard-aware asynchronous mapper), plus the
//! designer-style `hand_map` baseline used by Table 3.

use crate::cluster::ClusterLimits;
use crate::cover::{cover_cone_with, hand_cover, ConeCover, CoverError};
use crate::design::{assemble, MapStats, MappedDesign};
use crate::eco::{CoverStore, DirtyMarks, EcoOutcome, EcoStats};
use crate::hcache::HazardCache;
use crate::hdc::{cone_certified, Transition};
use crate::matcher::{HazardPolicy, Matcher};
use crate::profile::{self, HazardCounts, MapPhase, Tally};
use asyncmap_library::Library;
use asyncmap_network::{
    async_tech_decomp, partition, sync_tech_decomp, Cone, EquationSet, Network,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

/// Runs `f` on every index in `0..jobs` on up to `threads` scoped
/// workers and returns the results **in index order**, so the outcome is
/// the same at any thread count: the one worker pool of the mapper and the
/// fundamental-mode analyzer. Workers pull indices from one atomic counter
/// (a work queue, because per-index cost is skewed: on `scsi` the largest
/// of 41 cones is ~20% of covering time) and keep their results locally
/// until the scope joins, so none blocks another. Runs inline when
/// `threads <= 1` or `jobs <= 1`; re-raises the panic of any `f` call.
pub fn par_indexed<R: Send>(jobs: usize, threads: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    par_indexed_with(jobs, threads, || (), |_, i| f(i))
}

/// [`par_indexed`] with per-worker scratch: each worker (or the inline
/// run) makes one `S` by `init` and passes it to every `f` call it makes,
/// so scratch sized to the design is allocated once per worker, not once
/// per index.
pub fn par_indexed_with<S, R: Send>(
    jobs: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<R> {
    if threads <= 1 || jobs <= 1 {
        let mut scratch = init();
        return (0..jobs).map(|i| f(&mut scratch, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(jobs))
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = init();
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            break local;
                        }
                        local.push((i, f(&mut scratch, i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
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
    let cache = Arc::new(HazardCache::new());
    map_run(eqs, library, options, Flow::Sync, &cache, None).map(|run| run.design)
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
    map_run(eqs, library, options, Flow::Async, cache, None).map(|run| run.design)
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
    let cache = Arc::new(HazardCache::new());
    map_run(eqs, library, options, Flow::Hand, &cache, None).map(|run| run.design)
}

/// Which procedure a run follows. All of them share [`map_run`]'s pipeline
/// and differ only in the decomposition, the hazard filter on matching and
/// the cover selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow<'t> {
    /// [`tmap`]: simplifying decomposition, no hazard filter.
    Sync,
    /// [`async_tmap`] and [`crate::EcoSession::map`]: hazard-preserving
    /// decomposition, Theorem 3.2 filter.
    Async,
    /// [`hand_map`]: hazard-preserving decomposition, no filter, greedy
    /// cover, no fanout buffers.
    Hand,
    /// [`crate::hdc_tmap`]: hazard-preserving decomposition; each cone is
    /// covered without the hazard filter, certified against the given
    /// transitions ([`cone_certified`]) and, if that fails, re-covered
    /// with the filter.
    Hdc(&'t [Transition]),
}

/// The mapping pipeline: decompose → partition → cover → per-run stats →
/// assemble. With a cover `store` (an [`crate::EcoSession`]'s), the cover
/// stage covers only the first cone of each shape the store lacks, stores
/// it, and stitches every cone from the store; the returned
/// [`EcoStats`] describe that reuse (all zero without a store).
pub(crate) fn map_run(
    eqs: &EquationSet,
    library: &Library,
    options: &MapOptions,
    flow: Flow<'_>,
    cache: &Arc<HazardCache>,
    store: Option<&mut CoverStore>,
) -> Result<EcoOutcome, CoverError> {
    let mut meter = RunMeter::start(cache);
    let subject = {
        let _t = profile::timer(MapPhase::Decompose);
        match flow {
            Flow::Sync => sync_tech_decomp(eqs),
            Flow::Async | Flow::Hand | Flow::Hdc(_) => async_tech_decomp(eqs),
        }
    };
    let cones = {
        let _t = profile::timer(MapPhase::Partition);
        partition(&subject)
    };
    let policy = match flow {
        Flow::Async => HazardPolicy::SubsetCheck,
        Flow::Sync | Flow::Hand | Flow::Hdc(_) => HazardPolicy::Ignore,
    };
    let matcher = Matcher::with_cache(library, policy, Arc::clone(cache));
    let strict = matches!(flow, Flow::Hdc(_))
        .then(|| Matcher::with_cache(library, HazardPolicy::SubsetCheck, Arc::clone(cache)));
    let recovered = AtomicUsize::new(0);
    let cover_with = |cone, matcher| {
        cover_cone_with(&subject, cone, matcher, &options.limits, options.objective)
    };
    let cover_one = |cone| match flow {
        Flow::Sync | Flow::Async => cover_with(cone, &matcher),
        Flow::Hand => hand_cover(&subject, cone, &matcher, &options.limits),
        Flow::Hdc(transitions) => {
            let relaxed = cover_with(cone, &matcher)?;
            if cone_certified(&subject, cone, &relaxed, library, transitions) {
                return Ok(relaxed);
            }
            recovered.fetch_add(1, Ordering::Relaxed);
            cover_with(
                cone,
                strict.as_ref().expect("the hdc flow has a strict matcher"),
            )
        }
    };
    let (covers, mut hazard, eco) = match store {
        None => {
            let covered = meter.cover(cones.len(), options.threads, |i| cover_one(&cones[i]))?;
            let hazard = covered.iter().map(|c| c.1).sum();
            let covers = covered.into_iter().map(|c| c.0).collect();
            (covers, hazard, EcoStats::default())
        }
        Some(store) => {
            let marks = DirtyMarks::new(store, &subject, &cones);
            let covered = meter.cover(marks.misses.len(), options.threads, |k| {
                cover_one(&cones[marks.misses[k]])
            })?;
            marks.stitch(store, &subject, &cones, covered)
        }
    };
    if let Flow::Hdc(transitions) = flow {
        // The hdc flow's counts: the strict re-covers' filter checks plus
        // one certification walk per cone and transition; rejects count
        // the cones that failed certification.
        hazard = HazardCounts {
            checks: hazard.checks + cones.len() * transitions.len(),
            rejects: recovered.load(Ordering::Relaxed),
        };
    }
    let add_buffers = options.add_buffers && flow != Flow::Hand;
    let mut design = meter.finish(&matcher, hazard, subject, cones, covers, add_buffers);
    if let Some(strict) = &strict {
        let memo = strict.counters();
        design.stats.npn_hits += memo.npn_hits;
        design.stats.npn_misses += memo.npn_misses;
    }
    design.stats.cones_reused = eco.cones_reused;
    design.stats.cones_remapped = eco.cones_remapped;
    Ok(EcoOutcome { design, eco })
}

/// The counter baselines of one mapping run (the calling thread's tally,
/// the verdict cache's running totals) plus its cover jobs' tallies, so
/// every [`MapStats`] counter describes this run alone — however warm the
/// shared cache, and whatever other runs do on other threads.
struct RunMeter {
    tally: Tally,
    jobs: Tally,
    cache_hits: usize,
    cache_misses: usize,
}

impl RunMeter {
    fn start(cache: &HazardCache) -> Self {
        RunMeter {
            tally: profile::tally(),
            jobs: Tally::default(),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
        }
    }

    /// The cover stage: runs `cover_job` on `0..jobs` through
    /// [`par_indexed`] and returns each cover, in job order, with its own
    /// hazard-filter counts (or the first error in job order). Each job
    /// differences its thread's tally around its cone; the calling
    /// thread's share of the stage (jobs run inline) leaves the baseline,
    /// so nothing counts twice, and phase times are summed over workers.
    fn cover(
        &mut self,
        jobs: usize,
        threads: usize,
        cover_job: impl Fn(usize) -> Result<ConeCover, CoverError> + Sync,
    ) -> Result<Vec<(ConeCover, HazardCounts)>, CoverError> {
        let stage = profile::tally();
        let results = par_indexed(jobs, effective_threads(threads, jobs), |i| {
            let before = profile::tally();
            let cover = cover_job(i);
            (cover, profile::tally().delta(&before))
        });
        self.tally.add(&profile::tally().delta(&stage));
        results
            .into_iter()
            .map(|(cover, tally)| {
                self.jobs.add(&tally);
                let hazard = HazardCounts {
                    checks: tally.phases.count(MapPhase::HazardCheck) as usize,
                    rejects: tally.hazard_rejects as usize,
                };
                Ok((cover?, hazard))
            })
            .collect()
    }

    /// The stats-and-assemble stage. `matcher` is the run's own, so its
    /// memo counters are the run's; `hazard` sums every cone's counts.
    fn finish(
        self,
        matcher: &Matcher<'_>,
        hazard: HazardCounts,
        subject: Network,
        cones: Vec<Cone>,
        covers: Vec<ConeCover>,
        add_buffers: bool,
    ) -> MappedDesign {
        let mut run = profile::tally().delta(&self.tally);
        run.add(&self.jobs);
        let memo = matcher.counters();
        let cache = matcher.cache();
        let stats = MapStats {
            hazard_checks: hazard.checks,
            hazard_rejects: hazard.rejects,
            cache_hits: cache.hits() - self.cache_hits,
            cache_misses: cache.misses() - self.cache_misses,
            npn_hits: memo.npn_hits,
            npn_misses: memo.npn_misses,
            cut_truncations: covers.iter().map(|c| c.cut_truncations).sum(),
            enum_warm_cones: run.warm_cones as usize,
            enum_alloc_events: run.alloc_events as usize,
            enum_pair_screens: run.pair_screens as usize,
            phases: run.phases,
            ..MapStats::default()
        };
        assemble(
            matcher.library(),
            subject,
            cones,
            covers,
            stats,
            add_buffers,
        )
    }
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
    fn per_cone_hazard_sums_equal_the_matcher_counters() {
        // Actel's hazard-rich modules make the filter both check and
        // reject on dme-fast.
        let mut lib = builtin::actel();
        lib.annotate_hazards();
        let eqs = asyncmap_burst::benchmark("dme-fast");
        let subject = async_tech_decomp(&eqs);
        let matcher = Matcher::new(&lib, HazardPolicy::SubsetCheck);
        for cone in &partition(&subject) {
            cover_cone_with(
                &subject,
                cone,
                &matcher,
                &ClusterLimits::default(),
                Objective::Area,
            )
            .unwrap();
        }
        let counters = matcher.counters();
        assert!(counters.hazard_rejects > 0);
        for threads in [1, 4] {
            let options = MapOptions {
                threads,
                ..MapOptions::default()
            };
            let stats = async_tmap(&eqs, &lib, &options).unwrap().stats;
            assert_eq!(stats.hazard_checks, counters.hazard_checks);
            assert_eq!(stats.hazard_rejects, counters.hazard_rejects);
        }
    }

    #[test]
    fn par_indexed_returns_results_in_index_order() {
        for threads in [0, 1, 3, 8] {
            let squares = par_indexed(20, threads, |i| i * i);
            assert_eq!(squares, (0..20).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(par_indexed(0, 4, |i| i).is_empty());
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
