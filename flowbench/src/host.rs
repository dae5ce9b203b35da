//! The host's speed, measured alongside the jobs.
//!
//! On a shared host the wall time of one and the same job moves by a
//! third or more within minutes as other tenants come and go, and a phase can
//! last longer than a run. The guest sees almost no steal time for it: the
//! process is running, only slower. A fixed kernel of the benchmark's
//! own, run before every job, slows down in step with the jobs, so a
//! run's times are scaled by [`REFERENCE_S`] over the kernel's median
//! time in that run: they read as seconds on a host where the kernel
//! takes [`REFERENCE_S`]. The kernel is not the program's code, so no
//! change to the program can move it.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on a quiet 2-vCPU x86-64 guest.
pub const REFERENCE_S: f64 = 0.007;

/// Keys sorted per kernel run: 2.4 MB, like the program's working set.
const KEYS: usize = 300_000;
/// Slots of the kernel's random-access table.
const SLOTS: usize = 1 << 17;

/// Times the kernel; its buffers are allocated once, so the program's
/// heap cannot move it.
pub struct SpeedProbe {
    keys: Vec<u64>,
    table: Vec<u64>,
    samples: Vec<f64>,
}

impl Default for SpeedProbe {
    fn default() -> Self {
        SpeedProbe {
            keys: vec![0; KEYS],
            table: vec![0; SLOTS],
            samples: Vec::new(),
        }
    }
}

impl SpeedProbe {
    /// Runs the kernel once and records its wall time: fills the keys
    /// from a fixed stream, counts them into the table and sorts them.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for (i, key) in self.keys.iter_mut().enumerate() {
            x = (x ^ (x >> 13))
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i as u64);
            *key = x;
            let slot = (x % SLOTS as u64) as usize;
            self.table[slot] = self.table[slot].wrapping_add(1);
        }
        self.keys.sort_unstable();
        black_box((&self.keys, &self.table));
        self.samples.push(start.elapsed().as_secs_f64());
    }

    /// Kernel runs so far.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// The kernel's median time in this run.
    pub fn median_s(&self) -> f64 {
        median(&self.samples)
    }

    /// What a time measured in this run is multiplied by to read as
    /// seconds at the reference speed; 1 before any sample.
    pub fn scale(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            REFERENCE_S / self.median_s()
        }
    }
}

/// `(steal, total)` CPU clock ticks of this guest so far, from
/// `/proc/stat`.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_reference_over_median() {
        let mut p = SpeedProbe::default();
        assert_eq!(p.scale(), 1.0);
        p.sample();
        p.sample();
        p.sample();
        assert_eq!(p.samples(), 3);
        assert!(p.median_s() > 0.0);
        assert_eq!(p.scale(), REFERENCE_S / p.median_s());
    }
}
