//! Speed normalisation: what makes timings from a shared sandbox steady.
//!
//! The sandbox's two cores are shared with other tenants and their speed
//! moves by 20-40% in phases that last from seconds to minutes - longer
//! than a run, so no statistic within a run removes them. A fixed reference
//! kernel (strings, hashing, allocation, sorting: the instruction mix of
//! the system's hot paths) is therefore timed every [`EVERY`] between ops,
//! and every end-to-end latency is scaled by `NOMINAL_NS / kernel time` of
//! its one-second slice: timings read as if the machine ran at the speed at
//! which the kernel takes [`NOMINAL_NS`]. On a quiet machine the factor is
//! about 1. Probes on this sandbox: run-to-run quartile spread of
//! `hunt-catalog` 19% raw, 4-6% normalised; `query-events` 12% -> 4%.
//!
//! The kernel belongs to the benchmark and never changes with the system,
//! so parent and change are scaled by the same yardstick.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::harness::OpSample;
use crate::stats::median;

/// The kernel's time on this sandbox when it is quiet.
pub const NOMINAL_NS: f64 = 1_700_000.0;
/// At most one kernel sample per this much wall time (~3% of a run).
pub const EVERY: Duration = Duration::from_millis(50);
/// Width of the slices whose median kernel time scales the ops in them.
pub const SLICE_NS: u64 = 1_000_000_000;

/// The reference kernel: a few thousand path-like strings built, hashed
/// into a map of vectors, then sorted. About 1.7 ms.
pub fn kernel() -> usize {
    let mut map: HashMap<String, Vec<u32>> = HashMap::new();
    let mut x = 88_172_645_463_325_252u64;
    for i in 0..6000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = format!("/home/user{}/work/doc{}.txt", x % 15, (x >> 8) % 400);
        map.entry(key).or_default().push(i);
    }
    let mut keys: Vec<&String> = map.keys().collect();
    keys.sort();
    keys.iter().map(|k| map[*k].len()).sum::<usize>() + keys.len()
}

fn kernel_ns() -> u64 {
    let t = Instant::now();
    std::hint::black_box(kernel());
    t.elapsed().as_nanos() as u64
}

/// The kernel samples of one run.
#[derive(Debug)]
pub struct Calib {
    t0: Instant,
    last: Option<Instant>,
    /// `(offset from t0, kernel time)`, both ns.
    samples: Vec<(u64, u64)>,
}

impl Default for Calib {
    fn default() -> Self {
        Calib { t0: Instant::now(), last: None, samples: Vec::new() }
    }
}

impl Calib {
    /// Offset of now from the start of the run, in ns.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Call between ops: samples the kernel if the last sample is older
    /// than [`EVERY`].
    pub fn tick(&mut self) {
        if self.last.is_none_or(|l| l.elapsed() >= EVERY) {
            self.sample();
        }
    }

    fn sample(&mut self) -> u64 {
        let at = self.now_ns();
        let ns = kernel_ns();
        self.samples.push((at, ns));
        self.last = Some(Instant::now());
        ns
    }

    /// Samples the kernel `n` times now; the kernel times in ns.
    pub fn samples_now(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample() as f64).collect()
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Median kernel time over the whole run, in ns.
    pub fn median_ns(&self) -> f64 {
        median(&self.samples.iter().map(|s| s.1 as f64).collect::<Vec<_>>())
    }

    /// One factor per slice: `NOMINAL_NS` over the slice's median kernel
    /// time, or over the run's median where a slice has under 3 samples.
    pub fn slice_factors(&self) -> Vec<f64> {
        let n = self.samples.last().map_or(0, |s| s.0 / SLICE_NS) as usize + 1;
        let mut per_slice: Vec<Vec<f64>> = vec![Vec::new(); n];
        for &(at, ns) in &self.samples {
            per_slice[(at / SLICE_NS) as usize].push(ns as f64);
        }
        let whole = self.median_ns();
        per_slice
            .iter()
            .map(|s| NOMINAL_NS / if s.len() >= 3 { median(s) } else { whole.max(1.0) })
            .collect()
    }
}

/// Each op's latency with the part outside `Fs` calls scaled by the factor
/// of the slice the op started in.
pub fn normalised(ops: &[OpSample], calib: &Calib) -> Vec<f64> {
    let factors = calib.slice_factors();
    let last = factors.len() - 1;
    ops.iter()
        .map(|o| {
            let factor = factors[((o.at_ns / SLICE_NS) as usize).min(last)];
            o.ns.saturating_sub(o.io_ns) as f64 * factor + o.io_ns.min(o.ns) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
        assert!(kernel() > 6000);
    }

    #[test]
    fn slices_scale_their_own_ops() {
        let mut c = Calib::default();
        // Slice 0 runs at nominal speed, slice 1 at half speed; slice 2 has
        // too few samples and falls back to the run's median.
        let nominal = NOMINAL_NS as u64;
        for i in 0..4 {
            c.samples.push((i * 1000, nominal));
            c.samples.push((SLICE_NS + i * 1000, 2 * nominal));
        }
        c.samples.push((2 * SLICE_NS, 2 * nominal));
        let f = c.slice_factors();
        assert_eq!(f.len(), 3);
        assert!((f[0] - 1.0).abs() < 1e-9 && (f[1] - 0.5).abs() < 1e-9, "{f:?}");
        assert!((f[2] - 0.5).abs() < 1e-9, "{f:?}");
        let op = |at_ns, io_ns| OpSample { at_ns, ns: 1000, io_ns };
        let ops = [op(10, 0), op(SLICE_NS + 10, 0), op(9 * SLICE_NS, 0), op(SLICE_NS, 400)];
        // The last op spent 400 of its 1000 ns in I/O: only the rest scales.
        assert_eq!(normalised(&ops, &c), vec![1000.0, 500.0, 500.0, 700.0]);
    }

    #[test]
    fn tick_samples_at_most_every_interval() {
        let mut c = Calib::default();
        c.tick();
        c.tick();
        assert_eq!(c.samples(), 1);
        assert_eq!(c.samples_now(3).len(), 3);
        assert_eq!(c.samples(), 4);
    }
}
