//! Lightweight per-phase wall-clock profiler for the mapping pipeline.
//!
//! Each phase of a mapping run (decomposition, partitioning, cluster
//! enumeration, Boolean matching, hazard checking, cover selection)
//! accumulates elapsed nanoseconds and an invocation count into global
//! relaxed atomics. [`crate::MapStats::phases`] reports the delta across
//! one run; `ASYNCMAP_PROFILE=1` additionally dumps the breakdown to
//! stderr when the run finishes.
//!
//! The timers are always compiled in; an idle timer costs two
//! `Instant::now` calls and two relaxed atomic adds. Phases nest — a
//! matching call happens inside cover selection — so outer timers
//! [`PhaseTimer::pause`] around inner phases, keeping the per-phase totals
//! disjoint and summable.
//!
//! Totals are process-global: if several mapping runs execute
//! concurrently on different threads, each run's delta includes the
//! others' work during its window. Per-run attribution is only exact for
//! the (default) one-run-at-a-time usage.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A pipeline phase, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapPhase {
    /// Technology decomposition (`sync_tech_decomp` / `async_tech_decomp`).
    Decompose,
    /// Partitioning the subject network into single-output cones.
    Partition,
    /// Cluster enumeration per cone.
    ClusterEnum,
    /// Boolean matching (signatures + permutation search).
    Match,
    /// Hazard-containment checks of candidate matches.
    HazardCheck,
    /// Dynamic-programming cover selection (excluding matching time).
    CoverSelect,
    /// ECO remap: shape-keying every cone and classifying it reused/dirty
    /// (includes building the partition DAG and the blast-radius sweep).
    DirtyMark,
    /// ECO remap: translating stored covers onto the new network's
    /// signals.
    ReuseStitch,
    /// Whole-design fundamental-mode analysis (the `asyncmap-fma` pass,
    /// run standalone or through the `ASYNCMAP_FMA=1` hook).
    Analyze,
}

/// Number of phases in [`MapPhase`].
pub const NUM_PHASES: usize = 9;

/// Short stable names, indexed by `MapPhase as usize` (used in reports and
/// the benchmark JSON).
pub const PHASE_NAMES: [&str; NUM_PHASES] = [
    "decompose",
    "partition",
    "cluster_enum",
    "match",
    "hazard_check",
    "cover_select",
    "dirty_mark",
    "reuse_stitch",
    "analyze",
];

/// Accumulated per-phase wall-clock time and invocation counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    nanos: [u64; NUM_PHASES],
    counts: [u64; NUM_PHASES],
}

impl PhaseTimes {
    /// Phase-wise difference `self - earlier` (saturating), for the
    /// snapshot-before / snapshot-after accounting of one run.
    pub fn delta(&self, earlier: &PhaseTimes) -> PhaseTimes {
        let mut out = PhaseTimes::default();
        for i in 0..NUM_PHASES {
            out.nanos[i] = self.nanos[i].saturating_sub(earlier.nanos[i]);
            out.counts[i] = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        out
    }

    /// Seconds spent in `phase`.
    pub fn secs(&self, phase: MapPhase) -> f64 {
        self.nanos[phase as usize] as f64 * 1e-9
    }

    /// Number of timed invocations of `phase`.
    pub fn count(&self, phase: MapPhase) -> u64 {
        self.counts[phase as usize]
    }

    /// Sum of all phase times, in seconds. Phases are disjoint, so this is
    /// the profiled fraction of the run.
    pub fn total_secs(&self) -> f64 {
        self.nanos.iter().sum::<u64>() as f64 * 1e-9
    }

    /// `true` when nothing was recorded (profiler compiled out, or an
    /// unprofiled code path).
    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&c| c == 0) && self.nanos.iter().all(|&n| n == 0)
    }

    /// Iterates `(name, seconds, count)` per phase, in pipeline order.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, f64, u64)> + '_ {
        (0..NUM_PHASES).map(|i| (PHASE_NAMES[i], self.nanos[i] as f64 * 1e-9, self.counts[i]))
    }
}

/// Allocation accounting of the cut enumerator's reusable scratch (see
/// `cluster::EnumScratch`): how many cones were enumerated, how many of
/// them ran entirely out of pre-sized buffers, and how many buffer-growth
/// (heap allocation) events occurred in total. In steady state
/// `warm_cones` tracks `cones` and `alloc_events` stays flat.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnumAllocStats {
    /// Cones enumerated.
    pub cones: u64,
    /// Cones whose enumeration grew no scratch buffer (zero allocations
    /// beyond the returned cut lists).
    pub warm_cones: u64,
    /// Scratch-buffer capacity-growth events (each at least one heap
    /// allocation).
    pub alloc_events: u64,
}

impl EnumAllocStats {
    /// Component-wise difference `self - earlier` (saturating), for
    /// per-run accounting.
    pub fn delta(&self, earlier: &EnumAllocStats) -> EnumAllocStats {
        EnumAllocStats {
            cones: self.cones.saturating_sub(earlier.cones),
            warm_cones: self.warm_cones.saturating_sub(earlier.warm_cones),
            alloc_events: self.alloc_events.saturating_sub(earlier.alloc_events),
        }
    }
}

impl fmt::Display for PhaseTimes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, secs, count)) in self.entries().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "  {name:<13} {:>9.2} ms  ({count} calls)", secs * 1e3)?;
        }
        Ok(())
    }
}

// `[const { ... }; N]` array-repeat initialization of the atomics.
static NANOS: [AtomicU64; NUM_PHASES] = [const { AtomicU64::new(0) }; NUM_PHASES];
static COUNTS: [AtomicU64; NUM_PHASES] = [const { AtomicU64::new(0) }; NUM_PHASES];

/// Times one phase from construction to drop; [`PhaseTimer::pause`]
/// excludes nested phases from the lap.
#[derive(Debug)]
pub struct PhaseTimer {
    idx: usize,
    acc: u64,
    start: Option<Instant>,
}

impl PhaseTimer {
    /// Stops the clock (e.g. before handing off to an inner phase).
    pub fn pause(&mut self) {
        if let Some(s) = self.start.take() {
            self.acc += s.elapsed().as_nanos() as u64;
        }
    }

    /// Restarts the clock after a [`PhaseTimer::pause`].
    pub fn resume(&mut self) {
        if self.start.is_none() {
            self.start = Some(Instant::now());
        }
    }
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        self.pause();
        NANOS[self.idx].fetch_add(self.acc, Ordering::Relaxed);
        COUNTS[self.idx].fetch_add(1, Ordering::Relaxed);
    }
}

/// Starts timing `phase`; the lap is committed to the global totals when
/// the returned timer drops.
pub fn timer(phase: MapPhase) -> PhaseTimer {
    PhaseTimer {
        idx: phase as usize,
        acc: 0,
        start: Some(Instant::now()),
    }
}

/// Current global per-phase totals (all runs since process start).
pub fn snapshot() -> PhaseTimes {
    let mut out = PhaseTimes::default();
    for i in 0..NUM_PHASES {
        out.nanos[i] = NANOS[i].load(Ordering::Relaxed);
        out.counts[i] = COUNTS[i].load(Ordering::Relaxed);
    }
    out
}

static ENUM_CONES: AtomicU64 = AtomicU64::new(0);
static ENUM_WARM: AtomicU64 = AtomicU64::new(0);
static ENUM_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Records one enumerated cone and the number of scratch-buffer growth
/// events it incurred.
pub fn record_enum_cone(alloc_events: u64) {
    ENUM_CONES.fetch_add(1, Ordering::Relaxed);
    if alloc_events == 0 {
        ENUM_WARM.fetch_add(1, Ordering::Relaxed);
    } else {
        ENUM_ALLOCS.fetch_add(alloc_events, Ordering::Relaxed);
    }
}

/// Current global enumeration-allocation totals (all runs since process
/// start); difference two snapshots for per-run numbers.
pub fn enum_alloc_snapshot() -> EnumAllocStats {
    EnumAllocStats {
        cones: ENUM_CONES.load(Ordering::Relaxed),
        warm_cones: ENUM_WARM.load(Ordering::Relaxed),
        alloc_events: ENUM_ALLOCS.load(Ordering::Relaxed),
    }
}

/// `true` when the `ASYNCMAP_PROFILE` environment switch asks for
/// phase-time output (any nonempty value other than `0`).
pub fn dump_enabled() -> bool {
    std::env::var("ASYNCMAP_PROFILE").is_ok_and(|v| {
        let v = v.trim();
        !v.is_empty() && v != "0"
    })
}

/// Dumps `times` to stderr when `ASYNCMAP_PROFILE=1` is set.
pub fn maybe_dump(times: &PhaseTimes) {
    if dump_enabled() && !times.is_zero() {
        eprintln!(
            "asyncmap phase profile ({:.2} ms total):\n{times}",
            times.total_secs() * 1e3
        );
    }
}

/// Dumps the run's enumeration/matching counters to stderr when
/// `ASYNCMAP_PROFILE=1` is set: cut-list truncation events (silent pruning
/// that can cost cover quality), the NPN match-memo hit/miss split, and
/// the enumeration-scratch allocation accounting (warm cones allocate
/// nothing beyond their output).
pub fn maybe_dump_counters(
    cut_truncations: usize,
    npn_hits: usize,
    npn_misses: usize,
    alloc: &EnumAllocStats,
) {
    if !dump_enabled() {
        return;
    }
    let lookups = npn_hits + npn_misses;
    if lookups > 0 {
        eprintln!(
            "asyncmap npn memo: {npn_hits} hits / {lookups} lookups ({:.1}%)",
            npn_hits as f64 / lookups as f64 * 100.0
        );
    }
    if cut_truncations > 0 {
        eprintln!("asyncmap cut enumeration: {cut_truncations} gates hit max_cuts_per_gate");
    }
    if alloc.cones > 0 {
        eprintln!(
            "asyncmap enum scratch: {}/{} warm cones ({:.1}%), {} alloc events",
            alloc.warm_cones,
            alloc.cones,
            alloc.warm_cones as f64 / alloc.cones as f64 * 100.0,
            alloc.alloc_events
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_is_phase_wise() {
        let before = snapshot();
        {
            let mut t = timer(MapPhase::Match);
            t.pause();
            t.resume();
        }
        let d = snapshot().delta(&before);
        assert!(d.count(MapPhase::Match) >= 1);
        // Display renders one line per phase.
        assert_eq!(format!("{d}").lines().count(), NUM_PHASES);
    }

    #[test]
    fn zero_times_report_zero() {
        let z = PhaseTimes::default();
        assert!(z.is_zero());
        assert_eq!(z.total_secs(), 0.0);
        assert_eq!(z.entries().count(), NUM_PHASES);
    }
}
