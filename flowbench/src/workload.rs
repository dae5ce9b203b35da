//! The three workloads, their seeded inputs, the timed closed loop and
//! the metrics computed from it.
//!
//! Every run is one process running one job at a time, with the
//! program's thread knobs at their defaults. A run executes whole passes
//! over a fixed, seeded job list, so the same seed always gives the same
//! jobs and the quality metrics (area, delay, shares) repeat exactly.

use crate::flow::{cold_job, fingerprint, Counts, EcoState, Fingerprint, Input, Outcome};
use crate::host::{steal_ticks, SpeedProbe};
use crate::stats;
use crate::trace::{self, Span, Tracer};
use asyncmap::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A seeded input set and the flow run over it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Table 5 controllers × the four built-in libraries, plus a BLIF
    /// control netlist × a genlib library and the built-ins: the paper's
    /// own traffic, cold flow with the burst-mode spec where one exists.
    CtrlSuite,
    /// Seeded flat multi-cone designs, cold flow without a spec: checker
    /// per-cone work dominates.
    GenFlow,
    /// A seeded large design, base-mapped and verified in set-up, then a
    /// sequence of cumulative single-cube edits through the reuse-aware
    /// ECO loop.
    EcoLoop,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [Workload::CtrlSuite, Workload::GenFlow, Workload::EcoLoop];

impl Workload {
    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CtrlSuite => "ctrl-suite",
            Workload::GenFlow => "gen-flow",
            Workload::EcoLoop => "eco-loop",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Set-ups measured in fresh processes before an untraced run, on top
    /// of the run's own. A cold set-up is a fraction of a second, most of
    /// it process-level lazy initialisation whose one-shot time moves by
    /// half between processes; eco-loop's set-up is seconds of real work
    /// and repeats in-process once per pass.
    pub fn fresh_setups(self) -> usize {
        match self {
            Workload::CtrlSuite | Workload::GenFlow => 8,
            Workload::EcoLoop => 0,
        }
    }

    /// Nominal seconds of one pass over the workload's jobs at
    /// [`Scale::FULL`]; `--seconds` is turned into whole passes.
    fn nominal_pass_s(self) -> u64 {
        match self {
            Workload::CtrlSuite | Workload::EcoLoop => 15,
            Workload::GenFlow => 10,
        }
    }
}

/// Input sizes. [`Scale::FULL`] is the benchmark; [`Scale::SMOKE`] is a
/// reduced size for tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Table 5 controllers taken, smallest first (at most 11).
    pub controllers: usize,
    /// Generated designs per gen-flow pass.
    pub gen_designs: usize,
    /// Target base gates of each gen-flow design.
    pub gen_gates: usize,
    /// Target base gates of the eco-loop design.
    pub eco_gates: usize,
    /// Edits per eco-loop pass.
    pub eco_edits: usize,
}

impl Scale {
    /// The benchmark's sizes: a pass takes 6–20 s of job time on a 2-vCPU
    /// x86-64 guest.
    pub const FULL: Scale = Scale {
        controllers: 11,
        gen_designs: 40,
        gen_gates: 250,
        eco_gates: 10_000,
        eco_edits: 60,
    };

    /// Sizes small enough for a debug-build test, with the 20 jobs a tail
    /// needs.
    pub const SMOKE: Scale = Scale {
        controllers: 4,
        gen_designs: 20,
        gen_gates: 150,
        eco_gates: 600,
        eco_edits: 20,
    };
}

/// A job's time is the fastest of its executions in a run, so every job
/// runs at least this often. On a shared host the same job's wall time
/// moves by up to a third between executions a few seconds apart, as
/// other tenants come and go; the fastest execution is what the job
/// itself costs.
const MIN_PASSES: usize = 2;

/// End-to-end metrics, as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("area", "area"),
    ("delay", "delay"),
    ("pass_share", "share"),
    ("undecided_share", "share"),
];

/// Per-layer metrics of the traced run, as `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("library.parse_s", "s"),
    ("library.annotate_s", "s"),
    ("burst.synth_s", "s"),
    ("blif.load_s", "s"),
    ("genlib.load_s", "s"),
    ("preflight.s", "s"),
    ("preflight.clusters", "count"),
    ("network.decompose_s", "s"),
    ("network.partition_s", "s"),
    ("network.cones", "count"),
    ("core.cover_s", "s"),
    ("core.assemble_s", "s"),
    ("core.hazard_checks", "count"),
    ("core.hazard_reject_rate", "ratio"),
    ("core.hcache_hit_rate", "ratio"),
    ("core.npn_hit_rate", "ratio"),
    ("core.cut_truncations", "count"),
    ("core.verify_function_s", "s"),
    ("core.verify_hazards_s", "s"),
    ("core.verify_cones_skipped", "count"),
    ("core.eco_remap_s", "s"),
    ("core.eco_cones_remapped", "count"),
    ("core.eco_reuse_rate", "ratio"),
    ("lint.s", "s"),
    ("lint.cone_sweeps", "count"),
    ("lint.cone_reuse_rate", "ratio"),
    ("audit.s", "s"),
    ("audit.hazard_rechecks", "count"),
    ("audit.partial_rate", "ratio"),
    ("audit.reuse_rate", "ratio"),
    ("fma.s", "s"),
    ("fma.exact_sweeps", "count"),
    ("fma.partial_rate", "ratio"),
    ("fma.race_points", "count"),
    ("fma.cone_reuse_rate", "ratio"),
    ("flow.check_over_map", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.span_coverage", "ratio"),
];

/// The time metric a span's self time is charged to.
pub fn layer_of(span: &str) -> Option<&'static str> {
    Some(match span {
        "library.parse" => "library.parse_s",
        "library.annotate" => "library.annotate_s",
        "burst.synth" => "burst.synth_s",
        "blif.load" => "blif.load_s",
        "genlib.load" => "genlib.load_s",
        "preflight" => "preflight.s",
        "network.decompose" => "network.decompose_s",
        "network.partition" => "network.partition_s",
        "core.matcher" | "core.cover" => "core.cover_s",
        "core.assemble" => "core.assemble_s",
        "core.verify_function" => "core.verify_function_s",
        "core.verify_hazards" => "core.verify_hazards_s",
        "core.eco_remap" => "core.eco_remap_s",
        "lint" => "lint.s",
        "audit" => "audit.s",
        "fma" => "fma.s",
        _ => return None,
    })
}

const MAP_LAYERS: [&str; 5] = [
    "network.decompose_s",
    "network.partition_s",
    "core.cover_s",
    "core.assemble_s",
    "core.eco_remap_s",
];
const CHECK_LAYERS: [&str; 5] = [
    "core.verify_function_s",
    "core.verify_hazards_s",
    "lint.s",
    "audit.s",
    "fma.s",
];

/// The benchmark's own copy of the repository's MCNC-style fixtures, so
/// its inputs cannot drift with the test suite.
const CTRL_BLIF: &str = include_str!("../inputs/ctrl_like.blif");
const MCNC_GENLIB: &str = include_str!("../inputs/mcnc_like.genlib");

/// The built-in libraries, loaded from their text form.
const LIBRARIES: [&str; 4] = ["lsi9k", "cmos3", "gdt", "actel"];

/// SplitMix64: the benchmark's own seeded stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

enum JobInput {
    Bms(String),
    Blif(String),
    Equations(EquationSet),
}

struct Job {
    input: JobInput,
    lib: usize,
}

/// Everything set-up hands the timed loop.
struct Prepared {
    libs: Vec<Library>,
    jobs: Vec<Job>,
    /// Eco-loop: the base design and its cumulative edits.
    eco: Option<(EquationSet, Vec<(String, Cover)>)>,
}

fn load_library(tr: &mut Tracer, text: &str) -> Result<Library, String> {
    let mut lib = tr
        .span("library.parse", |_| Library::parse(text))
        .map_err(|e| e.to_string())?;
    tr.span("library.annotate", |_| lib.annotate_hazards());
    Ok(lib)
}

fn builtin_text(name: &str) -> Result<String, String> {
    builtin::library(name)
        .map(|l| l.to_text())
        .ok_or_else(|| format!("no built-in library {name}"))
}

fn generated(tr: &mut Tracer, gates: usize, seed: u64) -> EquationSet {
    let spec = asyncmap::bench::GenSpec {
        target_gates: gates,
        inputs: 16,
        seed,
    };
    let text = tr.span("input.generate", |_| {
        asyncmap::bench::emit_design(&asyncmap::bench::generate(&spec))
    });
    tr.span("input.load", |_| asyncmap::bench::parse_design(&text))
}

/// Runs preflight on a library in set-up, so that preflight's
/// process-wide lazy initialisation happens there and not in the first
/// job.
fn warm_preflight(tr: &mut Tracer, lib: &Library) {
    tr.span("preflight.init", |_| {
        asyncmap::preflight::preflight_library(lib)
    });
}

/// One set-up's inputs.
fn prepare(w: Workload, seed: u64, scale: &Scale, tr: &mut Tracer) -> Result<Prepared, String> {
    let mut rng = SplitMix(seed);
    let lsi9k = builtin_text("lsi9k")?;
    match w {
        Workload::CtrlSuite => {
            let mut libs = Vec::new();
            for name in LIBRARIES {
                libs.push(load_library(tr, &builtin_text(name)?)?);
            }
            let mut genlib = tr
                .span("genlib.load", |_| {
                    asyncmap::genlib::parse_genlib(MCNC_GENLIB, "mcnc_like")
                })
                .map_err(|e| e.to_string())?
                .to_library();
            tr.span("library.annotate", |_| genlib.annotate_hazards());
            libs.push(genlib);

            let mut jobs = Vec::new();
            for def in asyncmap::burst::BENCHMARKS.iter().take(scale.controllers) {
                let text = tr
                    .span("input.generate", |_| {
                        asyncmap::burst::to_bms(&asyncmap::burst::benchmark_spec(def.name))
                    })
                    .map_err(|e| e.to_string())?;
                for lib in 0..LIBRARIES.len() {
                    jobs.push(Job {
                        input: JobInput::Bms(text.clone()),
                        lib,
                    });
                }
            }
            for lib in 0..libs.len() {
                jobs.push(Job {
                    input: JobInput::Blif(CTRL_BLIF.to_owned()),
                    lib,
                });
            }
            rng.shuffle(&mut jobs);
            warm_preflight(tr, &libs[0]);
            Ok(Prepared {
                libs,
                jobs,
                eco: None,
            })
        }
        Workload::GenFlow => {
            let libs = vec![load_library(tr, &lsi9k)?];
            let jobs = (0..scale.gen_designs)
                .map(|_| Job {
                    input: JobInput::Equations(generated(tr, scale.gen_gates, rng.next())),
                    lib: 0,
                })
                .collect();
            warm_preflight(tr, &libs[0]);
            Ok(Prepared {
                libs,
                jobs,
                eco: None,
            })
        }
        Workload::EcoLoop => {
            let libs = vec![load_library(tr, &lsi9k)?];
            let base = generated(tr, scale.eco_gates, rng.next());
            let edit_seed = rng.next();
            let edits = tr.span("input.generate", |_| {
                asyncmap::bench::generate_edits(&base, scale.eco_edits, edit_seed)
            });
            Ok(Prepared {
                libs,
                jobs: Vec::new(),
                eco: Some((base, edits)),
            })
        }
    }
}

/// Wall seconds of one whole set-up of workload `w`, as the first set-up
/// in a process pays it (process-level lazy initialisation included).
pub fn setup_seconds(w: Workload, seed: u64, scale: &Scale) -> Result<f64, String> {
    let mut tr = Tracer::new(false);
    let start = Instant::now();
    let p = prepare(w, seed, scale, &mut tr)?;
    if let Some((base, _)) = &p.eco {
        EcoState::warm(&mut tr, &p.libs[0], base)?;
    }
    Ok(start.elapsed().as_secs_f64())
}

/// Passes a run makes: `seconds` in whole nominal passes, at least
/// [`MIN_PASSES`].
fn passes_for(w: Workload, seconds: u64) -> usize {
    let by_time = usize::try_from(seconds / w.nominal_pass_s()).unwrap_or(usize::MAX);
    by_time.max(MIN_PASSES)
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// No job failed and every consistency check held.
    pub correct: bool,
    /// Job executions attempted (traced and untraced).
    pub attempted: usize,
    /// Job executions that failed.
    pub failed: usize,
    /// `(name, value)` of every metric the run reports, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable notes: failures, the tail percentile taken.
    pub notes: Vec<String>,
    /// The traced run's spans (empty when untraced).
    pub spans: Vec<Span>,
}

impl Report {
    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Marks the run incorrect, with the reason.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.notes.push(why);
    }

    /// The result line: one JSON object with the run's verdict and every
    /// metric with its unit.
    pub fn to_json(&self) -> String {
        let unit = |name: &str| {
            END_TO_END
                .iter()
                .chain(&PER_LAYER)
                .find(|(n, _)| *n == name)
                .map_or("", |&(_, u)| u)
        };
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                // JSON has no NaN; `run` has already failed such a report.
                let value = if value.is_finite() { value } else { 0.0 };
                format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    unit(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What set-up and the timed loop gather.
#[derive(Default)]
struct Tally {
    /// Wall time of each set-up.
    setups: Vec<f64>,
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
    /// Wall times of each job's passing untraced executions, by job.
    times: Vec<Vec<f64>>,
    /// Traced job wall times.
    traced_times: Vec<f64>,
    /// Area, delay and designs over the first pass's untraced jobs.
    area: f64,
    delay_sum: f64,
    designs: usize,
    obligations: usize,
    undecided: usize,
    /// Counters of the traced jobs.
    counts: Counts,
    traced_jobs: usize,
    /// The host's speed, sampled before every job execution.
    probe: SpeedProbe,
}

impl Tally {
    /// Books one execution of job `job` that took `dt` seconds.
    fn book(&mut self, job: usize, dt: f64, out: &Outcome, traced: bool, first_pass: bool) {
        self.attempted += 1;
        let design = match &out.design {
            Ok(d) => d,
            Err(why) => {
                self.failed += 1;
                if self.notes.len() < 5 {
                    self.notes.push(format!("job {job} failed: {why}"));
                }
                return;
            }
        };
        if traced {
            self.traced_times.push(dt);
            self.traced_jobs += 1;
            for (k, v) in &out.counts {
                *self.counts.entry(k).or_default() += v;
            }
            return;
        }
        if self.times.len() <= job {
            self.times.resize_with(job + 1, Vec::new);
        }
        self.times[job].push(dt);
        self.obligations += out.obligations;
        self.undecided += out.undecided;
        if first_pass {
            self.area += design.area;
            self.delay_sum += design.delay;
            self.designs += 1;
        }
    }


    /// Each job's time: the fastest of its passing untraced executions.
    fn job_times(&self) -> Vec<f64> {
        self.times
            .iter()
            .filter(|ts| !ts.is_empty())
            .map(|ts| ts.iter().copied().fold(f64::INFINITY, f64::min))
            .collect()
    }
}

/// Runs one job and returns its wall time; a panic inside the library
/// fails the job instead of the run.
fn timed(tr: &mut Tracer, traced: bool, f: impl FnOnce(&mut Tracer) -> Outcome) -> (f64, Outcome) {
    let mut off = Tracer::new(false);
    let tr = if traced { tr } else { &mut off };
    let t = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| tr.span("job", f)));
    let dt = t.elapsed().as_secs_f64();
    let out = out.unwrap_or_else(|panic| {
        tr.close_open_spans();
        let why = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default();
        Outcome::failed(format!("panicked: {why}"))
    });
    (dt, out)
}

fn run_cold(
    w: Workload,
    seed: u64,
    scale: &Scale,
    passes: usize,
    tr: &mut Tracer,
    t: &mut Tally,
) -> Result<(), String> {
    let start = Instant::now();
    let p = tr.span("setup", |tr| prepare(w, seed, scale, tr))?;
    t.setups.push(start.elapsed().as_secs_f64());
    let mut reference: Vec<Option<Fingerprint>> = vec![None; p.jobs.len()];
    for pass in 0..passes {
        for (i, job) in p.jobs.iter().enumerate() {
            let lib = &p.libs[job.lib];
            let input = match &job.input {
                JobInput::Bms(text) => Input::Bms(text),
                JobInput::Blif(text) => Input::Blif(text),
                JobInput::Equations(eqs) => Input::Equations(eqs),
            };
            // A traced run executes every job both ways, alternating which
            // goes first.
            let order: &[bool] = match (tr.enabled(), i % 2) {
                (false, _) => &[false],
                (true, 0) => &[false, true],
                (true, _) => &[true, false],
            };
            for &traced in order {
                t.probe.sample();
                tr.set_job(Some(t.attempted));
                let (dt, mut out) = timed(tr, traced, |tr| cold_job(tr, input, lib));
                tr.set_job(None);
                // Every execution of a job, traced (a staged replay) or
                // not, in any pass, must give the same design.
                if let Ok(design) = &out.design {
                    let fp = fingerprint(design);
                    match reference[i] {
                        None => reference[i] = Some(fp),
                        Some(r) if r != fp => {
                            out.design = Err("design differs between executions".into());
                        }
                        Some(_) => {}
                    }
                }
                t.book(i, dt, &out, traced, pass == 0);
            }
        }
    }
    Ok(())
}

fn run_eco(
    seed: u64,
    scale: &Scale,
    passes: usize,
    tr: &mut Tracer,
    t: &mut Tally,
) -> Result<(), String> {
    let mut reference: Vec<Option<Fingerprint>> = Vec::new();
    for pass in 0..passes {
        // Every pass sets up anew, so that it replays the same edits from
        // the same warmed stores.
        let start = Instant::now();
        let p = tr.span("setup", |tr| prepare(Workload::EcoLoop, seed, scale, tr))?;
        let lib = &p.libs[0];
        let (base, edits) = p.eco.as_ref().ok_or("eco-loop set-up made no edits")?;
        let mut state = tr.span("setup", |tr| EcoState::warm(tr, lib, base))?;
        t.setups.push(start.elapsed().as_secs_f64());
        reference.resize(edits.len(), None);
        let mut eqs = base.clone();
        for (k, edit) in edits.iter().enumerate() {
            eqs = asyncmap::bench::apply_edits(&eqs, std::slice::from_ref(edit));
            // A traced run alternates traced and untraced edits.
            let traced = tr.enabled() && k % 2 == 0;
            t.probe.sample();
            tr.set_job(Some(t.attempted));
            let (dt, mut out) = timed(tr, traced, |tr| state.job(tr, lib, &eqs));
            tr.set_job(None);
            // Outside the timed region: the stitched design must equal a
            // cold map of the same edited equations (checked on the first
            // pass), and every later pass must give that design again.
            if let Ok(design) = &out.design {
                let fp = fingerprint(design);
                let agrees = match reference[k] {
                    Some(r) => r == fp,
                    None => {
                        let cold = catch_unwind(AssertUnwindSafe(|| {
                            async_tmap(&eqs, lib, &MapOptions::default()).map(|d| fingerprint(&d))
                        }));
                        reference[k] = Some(fp);
                        matches!(cold, Ok(Ok(c)) if c == fp)
                    }
                };
                if !agrees {
                    out.design = Err("ECO design differs from a cold map".into());
                }
            }
            t.book(k, dt, &out, traced, pass == 0);
        }
    }
    Ok(())
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics from the traced run's spans and counters.
fn layer_metrics(spans: &[Span], t: &Tally, report: &mut Report) -> Vec<(&'static str, f64)> {
    let self_s = trace::self_times(spans);
    let coverage = trace::child_coverage(spans);
    let mut job_s = Counts::new();
    let mut setup_s = Counts::new();
    let mut min_coverage = 1.0f64;
    for ((s, &own), &cov) in spans.iter().zip(&self_s).zip(&coverage) {
        if s.name == "job" {
            min_coverage = min_coverage.min(cov);
        }
        if let Some(metric) = layer_of(s.name) {
            let bucket = if s.job.is_some() {
                &mut job_s
            } else {
                &mut setup_s
            };
            *bucket.entry(metric).or_default() += own;
        }
    }
    if min_coverage < 0.95 {
        report.fail(format!(
            "named spans cover only {:.1}% of a job's wall time",
            100.0 * min_coverage
        ));
    }
    let jobs = t.traced_jobs.max(1) as f64;
    let c = |k: &str| t.counts.get(k).copied().unwrap_or(0.0);
    let sum = |m: &Counts, keys: &[&str]| {
        keys.iter()
            .map(|k| m.get(k).copied().unwrap_or(0.0))
            .sum::<f64>()
    };
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let v = match name {
                "library.parse_s" | "library.annotate_s" | "genlib.load_s" => {
                    setup_s.get(name).copied().unwrap_or(0.0) / t.setups.len().max(1) as f64
                }
                "core.hazard_reject_rate" => {
                    ratio(c("core.hazard_rejects"), c("core.hazard_checks"))
                }
                "core.hcache_hit_rate" => ratio(
                    c("core.hcache_hits"),
                    c("core.hcache_hits") + c("core.hcache_misses"),
                ),
                "core.npn_hit_rate" => ratio(
                    c("core.npn_hits"),
                    c("core.npn_hits") + c("core.npn_misses"),
                ),
                "core.eco_reuse_rate" => {
                    ratio(c("core.eco_cones_reused"), c("core.eco_cones_total"))
                }
                "lint.cone_reuse_rate" => ratio(c("lint.cones_reused"), c("lint.cones")),
                "audit.partial_rate" => ratio(
                    c("audit.hazard_partial"),
                    c("audit.hazard_rechecks") + c("audit.hazard_partial"),
                ),
                "audit.reuse_rate" => ratio(c("audit.reused"), c("audit.certificates")),
                "fma.partial_rate" => {
                    ratio(c("fma.partial"), c("fma.exact_sweeps") + c("fma.wide"))
                }
                "fma.cone_reuse_rate" => ratio(c("fma.cones_reused"), c("fma.cones")),
                "flow.check_over_map" => {
                    ratio(sum(&job_s, &CHECK_LAYERS), sum(&job_s, &MAP_LAYERS))
                }
                "trace.overhead" => ratio(mean(&t.traced_times), mean(&t.times.concat())),
                "trace.span_coverage" => min_coverage,
                time if time.ends_with("_s") || time.ends_with(".s") => {
                    job_s.get(time).copied().unwrap_or(0.0) / jobs
                }
                count => c(count) / jobs,
            };
            (name, v)
        })
        .collect()
}

fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

/// End-to-end metrics from the untraced job times, scaled to the
/// reference host speed (see [`crate::host`]).
fn end_to_end(t: &Tally, report: &mut Report) -> Vec<(&'static str, f64)> {
    let wall = t.job_times();
    let runs = t.times.iter().map(Vec::len).min().unwrap_or(0);
    let tail = stats::tail(&wall);
    match tail {
        Some(tail) => report.notes.push(format!(
            "job_tail_s is p{} of {} jobs ({} beyond), each the fastest of {runs} or more executions",
            tail.percentile, tail.samples, tail.beyond
        )),
        None => report.fail(format!("too few jobs ({}) for a tail", wall.len())),
    }
    let rss = peak_rss_mb().unwrap_or_else(|| {
        report.fail("peak RSS unavailable (no /proc/self/status)".into());
        0.0
    });
    let setup_wall = stats::median(&t.setups);
    let scale = t.probe.scale();
    report.notes.push(format!(
        "host speed: the probe kernel's median was {:.2} ms over {} runs, so times are scaled by {:.4}; \
         unscaled: setup_s {setup_wall:.4}, job_p50_s {:.4}, jobs_per_s {:.4}",
        1e3 * t.probe.median_s(),
        t.probe.samples(),
        scale,
        stats::median(&wall),
        ratio(wall.len() as f64, wall.iter().sum()),
    ));
    let jobs: Vec<f64> = wall.iter().map(|s| s * scale).collect();
    let tail = tail.map(|tail| tail.value * scale);
    let attempted = t.attempted.max(1) as f64;
    END_TO_END
        .iter()
        .map(|&(name, _)| {
            let v = match name {
                "setup_s" => setup_wall * scale,
                "job_p50_s" => stats::median(&jobs),
                "job_tail_s" => tail.unwrap_or(0.0),
                "jobs_per_s" => ratio(jobs.len() as f64, jobs.iter().sum()),
                "peak_rss_mb" => rss,
                "area" => t.area,
                "delay" => ratio(t.delay_sum, t.designs as f64),
                "pass_share" => 1.0 - t.failed as f64 / attempted,
                "undecided_share" => ratio(t.undecided as f64, t.obligations as f64),
                other => unreachable!("no rule for metric {other}"),
            };
            (name, v)
        })
        .collect()
}

/// One run: set-up, then whole passes over the workload's jobs. An
/// untraced run reports the end-to-end metrics; a traced run executes
/// every job traced and untraced and reports the per-layer metrics.
/// `fresh_setups` are [`setup_seconds`] measured in other processes
/// before the run; `setup_s` is their median with the run's own.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: &Scale,
    fresh_setups: &[f64],
) -> Report {
    let mut report = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        notes: Vec::new(),
        spans: Vec::new(),
    };
    let mut tr = Tracer::new(trace);
    let passes = passes_for(w, seconds);
    let mut tally = Tally {
        setups: fresh_setups.to_vec(),
        ..Tally::default()
    };
    let steal_before = steal_ticks();
    let ran = match w {
        Workload::EcoLoop => run_eco(seed, scale, passes, &mut tr, &mut tally),
        _ => run_cold(w, seed, scale, passes, &mut tr, &mut tally),
    };
    if let Err(why) = ran {
        report.fail(format!("set-up failed: {why}"));
        return report;
    }
    if let (Some((s0, n0)), Some((s1, n1))) = (steal_before, steal_ticks()) {
        report.notes.push(format!(
            "the host stole {:.2}% of this guest's CPU time during the run",
            100.0 * ratio(s1.saturating_sub(s0) as f64, n1.saturating_sub(n0) as f64)
        ));
    }

    report.metrics = if trace {
        layer_metrics(tr.spans(), &tally, &mut report)
    } else {
        end_to_end(&tally, &mut report)
    };
    for (name, value) in report.metrics.clone() {
        if !value.is_finite() {
            report.fail(format!("{name} is not a number"));
        }
    }
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    if tally.failed > 0 {
        report.correct = false;
    }
    report.notes.append(&mut tally.notes);
    report.spans = tr.spans().to_vec();
    report
}
