//! Shared helpers for the table-regeneration binaries and criterion
//! benches. Each `table<N>` binary regenerates the corresponding table of
//! the paper's evaluation section; `ablation` exercises the design choices
//! called out in DESIGN.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use asyncmap_core::{MappedDesign, PhaseTimes};
use asyncmap_library::{builtin, Library};
use std::time::{Duration, Instant};

pub mod edit;
pub mod gen;

pub use edit::{apply_edits, emit_edits, generate_edits, parse_edits};
pub use gen::{emit_design, generate, parse_design, GenSpec};

/// Summary of a mapped design used to assert two mapping configurations
/// produced bit-identical results (shared by the `speedup` and
/// `fingerprint` binaries and the CI divergence gate).
pub fn design_fingerprint(d: &MappedDesign) -> (u64, u64, usize, usize) {
    (
        d.area.to_bits(),
        d.delay.to_bits(),
        d.num_instances(),
        d.stats.hazard_rejects,
    )
}

/// The four evaluation libraries in the paper's order, unannotated.
pub fn libraries() -> Vec<Library> {
    builtin::all_libraries()
}

/// Untimed executions before sampling begins. Page faults on
/// freshly-mapped code, lazily-grown allocator arenas, and cold verdict
/// caches all land in the first couple of runs; without discarding them a
/// warm-cache configuration measured *after* its own cold baseline could
/// paradoxically report a median above it (the seed benchmarks showed
/// `pe-send-ifc/warm` at 0.88× sequential with a 100% cache hit rate —
/// pure first-sample noise).
pub const WARMUP_RUNS: usize = 2;

/// Median wall-clock time of `runs` executions of `f`, preceded by
/// [`WARMUP_RUNS`] untimed warm-up executions.
pub fn time_median<T>(runs: usize, mut f: impl FnMut() -> T) -> Duration {
    assert!(runs > 0);
    for _ in 0..WARMUP_RUNS {
        std::hint::black_box(f());
    }
    let mut samples: Vec<Duration> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Median wall-clock times of `runs` executions each of `a` and `b`,
/// sampled alternately so slow environment drift (thermal throttling, a
/// busy container) biases neither side, after [`WARMUP_RUNS`] untimed
/// warm-up executions of each.
pub fn time_median_pair<T, U>(
    runs: usize,
    mut a: impl FnMut() -> T,
    mut b: impl FnMut() -> U,
) -> (Duration, Duration) {
    assert!(runs > 0);
    for _ in 0..WARMUP_RUNS {
        std::hint::black_box(a());
        std::hint::black_box(b());
    }
    let mut sa: Vec<Duration> = Vec::with_capacity(runs);
    let mut sb: Vec<Duration> = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t = Instant::now();
        std::hint::black_box(a());
        sa.push(t.elapsed());
        let t = Instant::now();
        std::hint::black_box(b());
        sb.push(t.elapsed());
    }
    sa.sort();
    sb.sort();
    (sa[runs / 2], sb[runs / 2])
}

/// Detected host parallelism (`std::thread::available_parallelism`), `1`
/// when detection fails. Recorded in every [`BenchRecord`] so a report
/// measured on a small container can't masquerade as a scaling result.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Formats a duration with adaptive units (e.g. `"431.07µs"`, `"1.24s"`).
pub fn secs(d: Duration) -> String {
    format!("{d:.2?}")
}

/// Prints a table header followed by a rule line.
pub fn header(title: &str, columns: &str) {
    println!("\n=== {title} ===");
    println!("{columns}");
    println!("{}", "-".repeat(columns.len()));
}

/// One timed configuration of the `speedup` binary, serialized into the
/// machine-readable `BENCH_mapping.json` report.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Configuration name, e.g. `"scsi/seq"` or `"pe-send-ifc/warm"`.
    pub name: String,
    /// Median wall-clock time over the measured runs.
    pub median: Duration,
    /// Worker threads the configuration mapped with.
    pub threads: usize,
    /// Host parallelism ([`host_cpus`]) at measurement time. A record with
    /// `threads > host_cpus` timed an oversubscribed configuration, so its
    /// numbers say nothing about true parallel scaling — consumers (and
    /// the `speedup` binary itself) must not read a speedup out of it.
    pub host_cpus: usize,
    /// Fraction of hazard checks answered by the verdict cache; `None`
    /// (omitted from the JSON) when the run performed no hazard checks —
    /// a rate of a zero-lookup cache is meaningless, not zero.
    pub cache_hit_rate: Option<f64>,
    /// Fraction of match-memo lookups served from the NPN memo; `None`
    /// when the memo saw no lookups.
    pub npn_hit_rate: Option<f64>,
    /// Per-phase time breakdown of one representative run. For a
    /// parallel (`threads > 1`) record the phase times are summed over
    /// the cover workers, so they measure time spent per phase and can
    /// exceed the record's wall-clock median.
    pub phases: PhaseTimes,
    /// Sequential-over-this-configuration time ratio (>1 means this
    /// configuration is faster than the sequential baseline); `None` for
    /// baseline records.
    pub speedup_vs_seq: Option<f64>,
}

/// Serializes `records` as a JSON array (std-only writer; names are
/// escaped for quotes and backslashes, which covers every name the
/// binaries emit).
pub fn records_to_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let name: String = r
            .name
            .chars()
            .flat_map(|c| match c {
                '"' | '\\' => vec!['\\', c],
                _ => vec![c],
            })
            .collect();
        let mut extra = String::new();
        if !r.phases.is_zero() {
            extra.push_str(", \"phases\": {");
            let mut first = true;
            for (phase, secs, count) in r.phases.entries() {
                if count == 0 {
                    continue;
                }
                if !first {
                    extra.push_str(", ");
                }
                first = false;
                extra.push_str(&format!(
                    "\"{phase}\": {{\"seconds\": {secs:.9}, \"calls\": {count}}}"
                ));
            }
            extra.push('}');
        }
        if let Some(ratio) = r.speedup_vs_seq {
            extra.push_str(&format!(", \"speedup_vs_seq\": {ratio:.4}"));
        }
        let mut rates = String::new();
        if let Some(rate) = r.cache_hit_rate {
            rates.push_str(&format!(", \"cache_hit_rate\": {rate:.6}"));
        }
        if let Some(rate) = r.npn_hit_rate {
            rates.push_str(&format!(", \"npn_hit_rate\": {rate:.6}"));
        }
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"median_seconds\": {:.9}, \"threads\": {}, \"host_cpus\": {}{}{}}}{}\n",
            name,
            r.median.as_secs_f64(),
            r.threads,
            r.host_cpus,
            rates,
            extra,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

/// Writes `records` to `path` as JSON.
///
/// # Errors
///
/// Propagates the I/O error if the file cannot be written.
pub fn write_json(path: &str, records: &[BenchRecord]) -> std::io::Result<()> {
    std::fs::write(path, records_to_json(records) + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn libraries_are_the_table1_four() {
        let names: Vec<String> = libraries().iter().map(|l| l.name().to_owned()).collect();
        assert_eq!(names, ["LSI9K", "CMOS3", "GDT", "Actel"]);
    }

    #[test]
    fn time_median_is_monotone_in_work() {
        // black_box keeps the optimizer from collapsing the loop into a
        // closed form, which made "slow" occasionally time under "fast".
        let fast = time_median(5, || std::hint::black_box(1u64) + 1);
        let slow = time_median(5, || {
            let mut acc = 0u64;
            for i in 0..500_000u64 {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            acc
        });
        assert!(slow >= fast, "slow={slow:?} fast={fast:?}");
    }

    #[test]
    fn json_report_is_well_formed() {
        let records = vec![
            BenchRecord {
                name: "scsi/seq".into(),
                median: Duration::from_millis(1500),
                threads: 1,
                host_cpus: 8,
                cache_hit_rate: None,
                npn_hit_rate: Some(0.96),
                phases: PhaseTimes::default(),
                speedup_vs_seq: None,
            },
            BenchRecord {
                name: "scsi/par\"4\"".into(),
                median: Duration::from_micros(700),
                threads: 4,
                host_cpus: 8,
                cache_hit_rate: Some(0.25),
                npn_hit_rate: None,
                phases: PhaseTimes::default(),
                speedup_vs_seq: Some(2.14),
            },
        ];
        let json = records_to_json(&records);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"median_seconds\": 1.500000000"));
        assert!(json.contains("\"threads\": 4"));
        assert_eq!(json.matches("\"host_cpus\": 8").count(), 2);
        assert!(json.contains("\\\"4\\\""));
        assert!(json.contains("\"cache_hit_rate\": 0.250000"));
        assert!(json.contains("\"npn_hit_rate\": 0.960000"));
        // A run with no hazard checks omits the rate instead of reporting
        // a misleading 0.0 — exactly one record carries each rate here.
        assert_eq!(json.matches("\"cache_hit_rate\"").count(), 1);
        assert_eq!(json.matches("\"npn_hit_rate\"").count(), 1);
        assert!(json.contains("\"speedup_vs_seq\": 2.1400"));
        // Zero phase times are elided entirely.
        assert!(!json.contains("\"phases\""));
        assert_eq!(json.matches('{').count(), 2);
    }

    #[test]
    fn json_report_includes_recorded_phases() {
        // Record a real phase delta through the profiler so the breakdown
        // serializer sees nonzero data.
        let before = asyncmap_core::profile::snapshot();
        {
            let _t = asyncmap_core::profile::timer(asyncmap_core::MapPhase::Decompose);
            std::hint::black_box(0u64);
        }
        let phases = asyncmap_core::profile::snapshot().delta(&before);
        let records = vec![BenchRecord {
            name: "x".into(),
            median: Duration::from_millis(1),
            threads: 1,
            host_cpus: host_cpus(),
            cache_hit_rate: None,
            npn_hit_rate: None,
            phases,
            speedup_vs_seq: None,
        }];
        let json = records_to_json(&records);
        assert!(json.contains("\"phases\""), "{json}");
        assert!(json.contains("\"decompose\""), "{json}");
        assert!(json.contains("\"calls\": 1"), "{json}");
    }
}
