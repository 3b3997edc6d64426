//! What every workload shares: the run configuration, the time budget, the
//! outcome record and the table of result digests learned at warm-up.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::calib::{Calib, NOMINAL_NS};
use crate::stats::{self, Permille};
use crate::trace::{OpSpans, Tracer};

/// A normal run makes its set-up at least this often (median reported), and
/// goes on until the repeats took [`SETUP_SECONDS`] or [`SETUP_REPEATS_MAX`]
/// are made: a set-up of tens of milliseconds needs more samples for a
/// steady median than one of half a second.
pub const SETUP_REPEATS_MIN: usize = 5;
pub const SETUP_REPEATS_MAX: usize = 25;
pub const SETUP_SECONDS: f64 = 1.0;
/// Share of `--seconds` a traced run spends in its measured loop, where
/// every round runs twice (facade ops untraced, and the same ops
/// decomposed under spans); the rest is left for the side passes.
pub const TRACED_LOOP_SHARE: f64 = 0.8;
/// Rounds (sessions) in `--check` mode.
pub const CHECK_ROUNDS: usize = 2;
/// Noise scale of every store in `--check` mode.
pub const CHECK_NOISE: f64 = 0.2;

#[derive(Clone, Debug)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny scale, at most [`CHECK_ROUNDS`] rounds, correctness only.
    pub check: bool,
    /// Test hook: flip one expectation after warm-up (a learned digest, a
    /// reference size), so the run must count failures and exit non-zero.
    pub corrupt: bool,
}

impl RunCfg {
    /// `normal` at full scale, [`CHECK_NOISE`] in `--check` mode.
    pub fn noise(&self, normal: f64) -> f64 {
        if self.check {
            CHECK_NOISE
        } else {
            normal
        }
    }

    /// The budget of the measured loop, started now.
    pub fn budget(&self) -> Budget {
        let share = if self.trace { TRACED_LOOP_SHARE } else { 1.0 };
        Budget {
            start: Instant::now(),
            limit: Duration::from_secs_f64(self.seconds * share),
            max_rounds: self.check.then_some(CHECK_ROUNDS),
        }
    }
}

/// Decides whether the measured loop starts another round: by wall time, or
/// by round count in `--check` mode. Always allows the first round.
pub struct Budget {
    start: Instant,
    limit: Duration,
    max_rounds: Option<usize>,
}

impl Budget {
    pub fn open(&self, rounds_done: usize) -> bool {
        rounds_done == 0
            || match self.max_rounds {
                Some(max) => rounds_done < max,
                None => self.start.elapsed() < self.limit,
            }
    }
}

/// The passes of round `round`, `true` for the traced (decomposed) one. A
/// traced run makes both passes over the same ops and swaps their order
/// every round, so neither kind always finds the caches warmed by the other.
pub fn passes(trace: bool, round: usize) -> &'static [bool] {
    match (trace, round % 2) {
        (false, _) => &[false],
        (true, 0) => &[false, true],
        (true, _) => &[true, false],
    }
}

/// Times a call, in nanoseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = std::hint::black_box(f());
    (r, t.elapsed().as_nanos() as u64)
}

/// One timed op, in ns: when it started (offset into the run), how long it
/// took, and how much of that was spent inside `Fs` calls (`stream-detect`
/// only). The I/O part is the VM's disk path, which does not follow the
/// cores' speed, so speed normalisation leaves it as measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpSample {
    pub at_ns: u64,
    pub ns: u64,
    pub io_ns: u64,
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Set-up times, speed-normalised (see [`crate::calib`]) and raw.
    pub setup_s: Vec<f64>,
    pub setup_raw_s: Vec<f64>,
    /// Every timed facade op (tracing off), and the reference-kernel
    /// samples taken between ops.
    pub ops: Vec<OpSample>,
    pub calib: Calib,
    /// Work units those ops completed, and what a unit is.
    pub units: f64,
    pub unit: &'static str,
    /// The tail percentile this workload reports as `op_tail_us`.
    pub tail_pct: Permille,
    pub inputs_digest: u64,
    /// Peak memory when the measured loop ended: set-up, warm-up and the
    /// loop, without the checks and side passes that follow it.
    pub peak_rss_mb: f64,
    /// Sizes and sample counts, printed in the header.
    pub facts: Vec<(String, String)>,
    /// Per-layer metrics of a traced run; a name not set reads 0.
    pub layer: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn new(unit: &'static str, tail_pct: Permille) -> Self {
        Outcome { unit, tail_pct, ..Default::default() }
    }

    /// Runs and times the set-up the measured loop works on.
    pub fn setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        // Scaled by the kernel's speed just before and just after.
        let mut kernel_ns = self.calib.samples_now(3);
        let t = Instant::now();
        let made = f();
        let s = t.elapsed().as_secs_f64();
        kernel_ns.extend(self.calib.samples_now(3));
        self.setup_raw_s.push(s);
        self.setup_s.push(s * NOMINAL_NS / stats::median(&kernel_ns));
        made
    }

    /// Repeats the set-up for a steady median, dropping what it makes. Call
    /// after [`Outcome::loop_done`] and after dropping the first set-up's
    /// result: the measured loop then runs in a process that set up once, as
    /// a user's does, and what repeated set-ups leave in the allocator (on
    /// `query-events` 110 or 141 MB of peak, by seed) stays out of
    /// `peak_rss_mb`. A traced run does not report `setup_s` and skips this.
    pub fn repeat_setup<T>(&mut self, cfg: &RunCfg, mut f: impl FnMut() -> T) {
        if cfg.check || cfg.trace {
            return;
        }
        let started = Instant::now();
        while self.setup_s.len() < SETUP_REPEATS_MIN
            || (self.setup_s.len() < SETUP_REPEATS_MAX
                && started.elapsed().as_secs_f64() < SETUP_SECONDS)
        {
            drop(self.setup(&mut f));
        }
    }

    /// Times one facade op that completes `units` of work.
    pub fn op<R>(&mut self, units: f64, f: impl FnOnce() -> R) -> R {
        self.calib.tick();
        let at_ns = self.calib.now_ns();
        let (r, ns) = timed(f);
        self.ops.push(OpSample { at_ns, ns, io_ns: 0 });
        self.units += units;
        r
    }

    /// Call when the measured loop ends.
    pub fn loop_done(&mut self) {
        self.peak_rss_mb = peak_rss_mb();
    }

    pub fn fact(&mut self, key: &str, value: impl std::fmt::Display) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// Counts one attempted op; `check` is `Err(why)` when it errored or
    /// its output was wrong.
    pub fn attempt(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }

    /// Sets the instrument's own quality numbers from the traced ops: time
    /// inside an op that no layer span accounts for, and the traced op
    /// median against the untraced one (raw: the two kinds of pass alternate
    /// and swap order every round, which cancels drift and warm-cache bias).
    pub fn set_bench_metrics(&mut self, ops: &[OpSpans]) {
        let wall: Vec<u64> = ops.iter().map(|o| o.wall_ns).collect();
        let unattributed: u64 = ops.iter().map(|o| o.unattributed_ns).sum();
        self.set("bench.ops", ops.len() as f64);
        self.set(
            "bench.unattributed_share",
            unattributed as f64 / wall.iter().sum::<u64>().max(1) as f64,
        );
        let traced = stats::median_u64(&wall);
        let untraced = stats::median_u64(&self.ops.iter().map(|o| o.ns).collect::<Vec<_>>());
        self.set("bench.trace_overhead_pct", (traced - untraced) / untraced.max(1.0) * 100.0);
    }
}

/// A time per op, in us, over rounds that each hold the same mix of ops:
/// the per-op mean within a round, then the median across rounds. A median
/// over single ops would report only the most common kind of op.
pub fn round_us(per_op_ns: &[u64], ops_per_round: usize) -> f64 {
    let means: Vec<f64> = per_op_ns
        .chunks_exact(ops_per_round.max(1))
        .map(|round| round.iter().sum::<u64>() as f64 / round.len() as f64)
        .collect();
    stats::median(&means) / 1e3
}

/// The traced ops of a run whose rounds hold `per_round` ops each.
pub struct LayerTimes {
    pub ops: Vec<OpSpans>,
    pub per_round: usize,
}

impl LayerTimes {
    pub fn new(tracer: &Tracer, per_round: usize) -> Self {
        LayerTimes { ops: crate::trace::breakdown(&tracer.spans()), per_round }
    }

    fn of(&self, f: impl Fn(&OpSpans) -> u64) -> f64 {
        round_us(&self.ops.iter().map(f).collect::<Vec<_>>(), self.per_round)
    }

    /// Self time of the spans named `name`; see [`round_us`].
    pub fn self_us(&self, name: &str) -> f64 {
        self.of(|o| o.self_ns.get(name).copied().unwrap_or(0))
    }

    /// Duration (children included) of the spans named `name`.
    pub fn dur_us(&self, name: &str) -> f64 {
        self.of(|o| o.dur_ns.get(name).copied().unwrap_or(0))
    }

    /// All self time of `name` over all ops, in ns.
    pub fn total_self_ns(&self, name: &str) -> u64 {
        self.ops.iter().map(|o| o.self_ns.get(name).copied().unwrap_or(0)).sum()
    }
}

/// Expected result digest per distinct op, learned in the untimed warm-up
/// round and held against every later op (and the traced phase).
#[derive(Default)]
pub struct Expected(BTreeMap<String, u64>);

impl Expected {
    pub fn learn(&mut self, key: &str, digest: u64) {
        self.0.insert(key.to_string(), digest);
    }

    pub fn check(&self, key: &str, digest: u64) -> Result<(), String> {
        match self.0.get(key) {
            Some(&want) if want == digest => Ok(()),
            Some(&want) => Err(format!("{key}: digest {digest:#x}, expected {want:#x}")),
            None => Err(format!("{key}: no expected digest")),
        }
    }

    /// The `--corrupt` hook: flips the first expected digest.
    pub fn corrupt_one(&mut self) {
        if let Some(v) = self.0.values_mut().next() {
            *v ^= 1;
        }
    }
}
