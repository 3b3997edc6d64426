//! Order statistics, run-to-run spread and the FNV digest.

/// A percentile in tenths of a percent, so that p99.5 has a name.
pub type Permille = u32;
pub const P50: Permille = 500;
pub const P90: Permille = 900;
pub const P99: Permille = 990;
pub const P99_5: Permille = 995;

/// Percentiles the benchmark reports, highest first.
pub const TAIL_LADDER: [Permille; 6] = [P99_5, P99, 950, P90, 750, P50];

/// `p99.5`, `p90`, ...
pub fn pct_name(p: Permille) -> String {
    match p % 10 {
        0 => format!("p{}", p / 10),
        tenth => format!("p{}.{tenth}", p / 10),
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile<T: Copy>(sorted: &[T], p: Permille) -> T {
    assert!(!sorted.is_empty() && (1..=1000).contains(&p));
    let rank = (sorted.len() * p as usize).div_ceil(1000);
    sorted[rank.max(1) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: Permille) -> usize {
    n - (n * p as usize).div_ceil(1000)
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it (the choosing-metrics rule); `None` under 20 samples.
pub fn highest_supported_percentile(n: usize) -> Option<Permille> {
    TAIL_LADDER.into_iter().find(|&p| samples_beyond(n, p) >= 10)
}

/// The tail percentile a run of `n` samples reports: the workload's own
/// (`wanted`), or the highest supported one when that is lower (the median
/// under 20 samples). A run cut short never reports a percentile its
/// sample count does not support.
pub fn supported_tail(n: usize, wanted: Permille) -> Permille {
    highest_supported_percentile(n).map_or(P50, |p| p.min(wanted))
}

pub fn sorted_f64(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values (mean of the middle pair for even counts);
/// 0 for no values, so an unexercised layer reads 0.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted_f64(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn median_u64(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method): needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted_f64(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// FNV-1a, 64 bit: the digest of inputs and of result rows.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A length-prefixed string, so `["ab","c"]` and `["a","bc"]` differ.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Order-insensitive digest of result rows (sorts a copy).
pub fn rows_digest(rows: &[Vec<String>]) -> u64 {
    let mut sorted: Vec<&Vec<String>> = rows.iter().collect();
    sorted.sort();
    let mut h = Fnv::default();
    h.u64(sorted.len() as u64);
    for row in sorted {
        h.u64(row.len() as u64);
        for cell in row {
            h.str(cell);
        }
    }
    h.0
}

/// SplitMix64: the benchmark's own seeded generator (op order, IOC draws).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, P50), 500);
        assert_eq!(percentile(&v, P99), 990);
        assert_eq!(percentile(&v, P99_5), 995);
        assert_eq!(percentile(&v, 1000), 1000);
        assert_eq!(percentile(&[7u64], P99), 7);
        assert_eq!(percentile(&[1u64, 2, 3], P50), 2);
        assert_eq!((pct_name(P99_5), pct_name(P90)), ("p99.5".to_string(), "p90".to_string()));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(samples_beyond(1000, P99), 10);
        assert_eq!(samples_beyond(2000, P99_5), 10);
        assert_eq!(highest_supported_percentile(2000), Some(P99_5));
        assert_eq!(highest_supported_percentile(1999), Some(P99));
        assert_eq!(highest_supported_percentile(1000), Some(P99));
        assert_eq!(highest_supported_percentile(999), Some(950));
        assert_eq!(highest_supported_percentile(200), Some(950));
        assert_eq!(highest_supported_percentile(199), Some(P90));
        assert_eq!(highest_supported_percentile(100), Some(P90));
        assert_eq!(highest_supported_percentile(99), Some(750));
        assert_eq!(highest_supported_percentile(40), Some(750));
        assert_eq!(highest_supported_percentile(20), Some(P50));
        assert_eq!(highest_supported_percentile(19), None);
        // A run reports its workload's percentile only with the samples for it.
        assert_eq!(supported_tail(3000, P99_5), P99_5);
        assert_eq!(supported_tail(3000, P99), P99);
        assert_eq!(supported_tail(1500, P99_5), P99);
        assert_eq!(supported_tail(600, P99), 950);
        assert_eq!(supported_tail(60, P90), 750);
        assert_eq!(supported_tail(6, P99), P50);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn digests_are_stable_and_order_insensitive() {
        let a = vec![vec!["x".to_string(), "y".to_string()], vec!["a".to_string()]];
        let b = vec![a[1].clone(), a[0].clone()];
        assert_eq!(rows_digest(&a), rows_digest(&b));
        assert_eq!(rows_digest(&a), 0x4287_dc37_c2a1_6d09, "{:#x}", rows_digest(&a));
        let split = vec![vec!["xy".to_string()], vec!["a".to_string()]];
        assert_ne!(rows_digest(&a), rows_digest(&split));
    }

    #[test]
    fn rng_is_seed_deterministic() {
        let seq = |s| {
            let mut r = Rng::new(s);
            let mut v: Vec<u32> = (0..20).collect();
            r.shuffle(&mut v);
            (v, r.next_u64())
        };
        assert_eq!(seq(7), seq(7));
        assert_ne!(seq(7), seq(8));
    }
}
