//! Lightweight per-phase wall-clock profiler for the mapping pipeline.
//!
//! Each phase of a mapping run (decomposition, partitioning, cluster
//! enumeration, Boolean matching, hazard checking, cover selection)
//! accumulates elapsed nanoseconds and an invocation count into a
//! **thread-local** tally, next to the hazard filter's reject count and
//! the cut enumerator's scratch-allocation counts. A mapping run
//! differences its own thread's tally around the run, and every cone's
//! cover job differences the tally of the thread it ran on around that
//! cone, so [`crate::MapStats`] counts exactly the run's work even while
//! other runs execute concurrently on other threads, and the hazard
//! counts are per-cone sums.
//!
//! The timers are always compiled in; a timer costs two `Instant::now`
//! calls (40–48 ns each on a 2-vCPU x86-64 guest) and two thread-local
//! adds. Phases nest — matching happens inside cover selection, hazard
//! checks inside matching — and every timer's lap excludes the laps that
//! nested timers committed while it ran, so the per-phase totals stay
//! disjoint and sum to the timed part of the run. Hot phases are timed in
//! batches: the covering loops run one [`MapPhase::Match`] timer per
//! gate's candidate scan and count each cluster it matches as one call
//! ([`PhaseTimer::add_call`]), instead of reading the clock around every
//! cluster.

use std::cell::{Cell, RefCell};
use std::fmt;
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
}

/// Number of phases in [`MapPhase`].
pub const NUM_PHASES: usize = 8;

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
];

/// Accumulated per-phase wall-clock time and invocation counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    nanos: [u64; NUM_PHASES],
    counts: [u64; NUM_PHASES],
}

impl PhaseTimes {
    const ZERO: PhaseTimes = PhaseTimes {
        nanos: [0; NUM_PHASES],
        counts: [0; NUM_PHASES],
    };

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

    /// Phase-wise sum, for merging the tallies of several threads.
    fn add(&mut self, other: &PhaseTimes) {
        for i in 0..NUM_PHASES {
            self.nanos[i] += other.nanos[i];
            self.counts[i] += other.counts[i];
        }
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

    /// `true` when nothing was recorded (an unprofiled code path, or a
    /// default-constructed value).
    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&c| c == 0) && self.nanos.iter().all(|&n| n == 0)
    }

    /// Iterates `(name, seconds, count)` per phase, in pipeline order.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, f64, u64)> + '_ {
        (0..NUM_PHASES).map(|i| (PHASE_NAMES[i], self.nanos[i] as f64 * 1e-9, self.counts[i]))
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

/// Everything one thread has recorded: phase times, the matches the
/// hazard filter rejected, and the cut enumerator's work and allocation
/// accounting (see `cluster::EnumScratch`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    pub(crate) phases: PhaseTimes,
    /// Matches the hazard filter rejected (each one also a
    /// [`MapPhase::HazardCheck`] call).
    pub(crate) hazard_rejects: u64,
    /// Cones whose enumeration grew no scratch buffer.
    pub(crate) warm_cones: u64,
    /// Scratch-buffer capacity-growth events (each at least one heap
    /// allocation).
    pub(crate) alloc_events: u64,
    /// Pairs of a first-fanin option and a second-fanin cut that the cut
    /// enumerator screened with the bloom bound (the pairs its size bound
    /// left to test).
    pub(crate) pair_screens: u64,
}

impl Tally {
    const ZERO: Tally = Tally {
        phases: PhaseTimes::ZERO,
        hazard_rejects: 0,
        warm_cones: 0,
        alloc_events: 0,
        pair_screens: 0,
    };

    /// Component-wise `self - earlier` (saturating).
    pub(crate) fn delta(&self, earlier: &Tally) -> Tally {
        Tally {
            phases: self.phases.delta(&earlier.phases),
            hazard_rejects: self.hazard_rejects.saturating_sub(earlier.hazard_rejects),
            warm_cones: self.warm_cones.saturating_sub(earlier.warm_cones),
            alloc_events: self.alloc_events.saturating_sub(earlier.alloc_events),
            pair_screens: self.pair_screens.saturating_sub(earlier.pair_screens),
        }
    }

    /// Component-wise sum.
    pub(crate) fn add(&mut self, other: &Tally) {
        self.phases.add(&other.phases);
        self.hazard_rejects += other.hazard_rejects;
        self.warm_cones += other.warm_cones;
        self.alloc_events += other.alloc_events;
        self.pair_screens += other.pair_screens;
    }
}

/// Hazard-filter work of one cone's covering (or, summed, of a run):
/// containment checks and the matches they rejected, independent of
/// cache warmth and scheduling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct HazardCounts {
    pub(crate) checks: usize,
    pub(crate) rejects: usize,
}

impl std::iter::Sum for HazardCounts {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, c| HazardCounts {
            checks: a.checks + c.checks,
            rejects: a.rejects + c.rejects,
        })
    }
}

thread_local! {
    static TALLY: RefCell<Tally> = const { RefCell::new(Tally::ZERO) };
    /// Nanoseconds committed by every timer dropped on this thread so far
    /// (the sum of the tally's phase times); a timer differences it around
    /// its lap to exclude what nested timers committed.
    static COMMITTED: Cell<u64> = const { Cell::new(0) };
}

/// This thread's running tally (everything recorded on it since it
/// started); difference two reads for one run's share.
pub(crate) fn tally() -> Tally {
    TALLY.with(|t| *t.borrow())
}

/// Times one phase from construction to drop, minus the laps of timers
/// nested inside it. Timers must nest (drop in reverse order of
/// creation), as scoped guards do.
#[derive(Debug)]
pub struct PhaseTimer {
    idx: usize,
    calls: u64,
    committed_at_start: u64,
    start: Instant,
}

impl PhaseTimer {
    /// Counts one more call of the phase in this timer's lap (for a batch
    /// timer from [`batch_timer`]).
    #[inline]
    pub fn add_call(&mut self) {
        self.calls += 1;
    }
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed().as_nanos() as u64;
        // `try_with`: a timer dropped while the thread's locals are torn
        // down loses its lap rather than panicking inside `drop`.
        let _ = COMMITTED.try_with(|c| {
            let nested = c.get().saturating_sub(self.committed_at_start);
            let own = elapsed.saturating_sub(nested);
            c.set(c.get() + own);
            let _ = TALLY.try_with(|t| {
                let phases = &mut t.borrow_mut().phases;
                phases.nanos[self.idx] += own;
                phases.counts[self.idx] += self.calls;
            });
        });
    }
}

/// Starts timing one call of `phase`; the lap is committed to this
/// thread's tally when the returned timer drops.
pub fn timer(phase: MapPhase) -> PhaseTimer {
    let mut t = batch_timer(phase);
    t.calls = 1;
    t
}

/// Starts timing a batch of calls of `phase`, counted with
/// [`PhaseTimer::add_call`]: one lap (two clock reads) for the whole
/// batch, while the call count stays per call.
pub fn batch_timer(phase: MapPhase) -> PhaseTimer {
    PhaseTimer {
        idx: phase as usize,
        calls: 0,
        committed_at_start: COMMITTED.with(Cell::get),
        start: Instant::now(),
    }
}

/// This thread's per-phase totals (all timers dropped on it since it
/// started); difference two snapshots for the work in between.
pub fn snapshot() -> PhaseTimes {
    tally().phases
}

/// Records one match rejected by the hazard filter.
pub(crate) fn record_hazard_reject() {
    TALLY.with(|t| t.borrow_mut().hazard_rejects += 1);
}

/// Records one enumerated cone: the cross-product pairs it screened and
/// the number of scratch-buffer growth events it incurred.
pub(crate) fn record_enum_cone(pair_screens: u64, alloc_events: u64) {
    TALLY.with(|t| {
        let mut t = t.borrow_mut();
        t.pair_screens += pair_screens;
        if alloc_events == 0 {
            t.warm_cones += 1;
        } else {
            t.alloc_events += alloc_events;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_is_phase_wise() {
        let before = snapshot();
        drop(timer(MapPhase::Match));
        let d = snapshot().delta(&before);
        assert_eq!(d.count(MapPhase::Match), 1);
        // Display renders one line per phase.
        assert_eq!(format!("{d}").lines().count(), NUM_PHASES);
    }

    #[test]
    fn tallies_are_per_thread() {
        let before = tally();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _t = timer(MapPhase::Decompose);
                record_enum_cone(5, 3);
            });
        });
        // The other thread's timer and enumeration never reach this one.
        assert_eq!(tally(), before);
        let _ = timer(MapPhase::Decompose);
        record_enum_cone(7, 0);
        let d = tally().delta(&before);
        assert_eq!(d.phases.count(MapPhase::Decompose), 1);
        assert_eq!((d.warm_cones, d.alloc_events, d.pair_screens), (1, 0, 7));
    }

    /// A hazard check nested inside a batched match is excluded from the
    /// match lap, and both are excluded from an enclosing cover-select
    /// lap: the phase totals stay disjoint and sum to the wall time.
    #[test]
    fn nested_timers_stay_disjoint() {
        let ms = std::time::Duration::from_millis;
        let before = snapshot();
        let wall = Instant::now();
        {
            let _select = timer(MapPhase::CoverSelect);
            std::thread::sleep(ms(2));
            let mut batch = batch_timer(MapPhase::Match);
            for _ in 0..3 {
                batch.add_call();
                std::thread::sleep(ms(2));
                let _hazard = timer(MapPhase::HazardCheck);
                std::thread::sleep(ms(5));
            }
        }
        let wall = wall.elapsed().as_secs_f64();
        let d = snapshot().delta(&before);
        let (select, matched, hazard) = (
            d.secs(MapPhase::CoverSelect),
            d.secs(MapPhase::Match),
            d.secs(MapPhase::HazardCheck),
        );
        assert_eq!(d.count(MapPhase::Match), 3, "one call per add_call");
        assert_eq!(d.count(MapPhase::HazardCheck), 3);
        assert_eq!(d.count(MapPhase::CoverSelect), 1);
        assert!(hazard >= 0.015, "hazard {hazard}");
        assert!(matched >= 0.006, "match {matched}");
        assert!(select >= 0.002, "select {select}");
        // Counted twice anywhere, the sum would exceed the wall time by
        // at least one 5 ms hazard lap.
        assert!(select + matched + hazard <= wall, "{d} vs {wall}");
    }

    #[test]
    fn zero_times_report_zero() {
        let z = PhaseTimes::default();
        assert!(z.is_zero());
        assert_eq!(z.total_secs(), 0.0);
        assert_eq!(z.entries().count(), NUM_PHASES);
    }
}
