//! Order statistics, the stream digest, the seeded generator and host probes.

use std::time::Instant;

/// Nearest-rank percentile (`q` in `(0, 1]`) of an ascending-sorted slice:
/// the smallest sample with at least `q` of the samples at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    // The epsilon keeps a product such as 0.9 * 100 = 90.00000000000001 from
    // rounding up a rank.
    let rank = ((q * sorted.len() as f64 - 1e-9).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Whether `samples` supports reporting percentile `q`: at least ten samples
/// must lie beyond it, otherwise the tail is a handful of outliers.
pub fn percentile_supported(samples: usize, q: f64) -> bool {
    samples as f64 * (1.0 - q) + 1e-9 >= 10.0
}

/// A sample set summarized once: sorted, with percentile and support lookups.
#[derive(Debug, Clone)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile; 0 for an empty set (callers print the sample
    /// count beside every percentile, so an empty set is visible).
    pub fn percentile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            nearest_rank(&self.sorted, q)
        }
    }

    pub fn supports(&self, q: f64) -> bool {
        percentile_supported(self.sorted.len(), q)
    }
}

/// Median with the usual midpoint rule for even counts; 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the median —
/// the run-to-run spread `compare` and the README report.  Quartiles follow
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) so the
/// number matches what the PR driver computes.  `None` below two samples or
/// for a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let quartile = |i: usize| {
        // One-based rank i(n+1)/4, clamped into the sample, with the
        // remainder interpolating (or extrapolating) between neighbours.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    let mid = median(&sorted);
    (mid != 0.0).then(|| (quartile(3) - quartile(1)) / mid.abs())
}

/// FNV-1a over a sequence of words, used as the digest of all token streams:
/// an arithmetic-order change that alters any token changes the digest.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// SplitMix64: the benchmark's only source of randomness.  Workload
/// generators derive one generator per `(seed, stream, index)` so any
/// request can be regenerated on its own.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// A generator decorrelated from its siblings by two integer labels.
    pub fn derive(seed: u64, a: u64, b: u64) -> Self {
        let mut g = SplitMix64(
            seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f),
        );
        g.next_u64();
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from the inclusive range `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// `len` token ids below `vocab`.
    pub fn tokens(&mut self, len: usize, vocab: usize) -> Vec<usize> {
        (0..len).map(|_| self.range(0, vocab - 1)).collect()
    }
}

/// Monotonic nanoseconds since the clock was started; every span and token
/// timestamp of one run shares one origin.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Logical CPUs the host offers this process.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_covering_sample() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&samples, 0.5), 5.0);
        assert_eq!(nearest_rank(&samples, 0.9), 9.0);
        assert_eq!(nearest_rank(&samples, 0.91), 10.0);
        assert_eq!(nearest_rank(&samples, 1.0), 10.0);
        assert_eq!(nearest_rank(&[7.0], 0.5), 7.0);
        assert_eq!(nearest_rank(&samples, 0.01), 1.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(!percentile_supported(99, 0.9));
        assert!(percentile_supported(100, 0.9));
        assert!(!percentile_supported(199, 0.95));
        assert!(percentile_supported(200, 0.95));
        assert!(!percentile_supported(19, 0.5));
        assert!(percentile_supported(20, 0.5));
        let few = Samples::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(few.percentile(0.5), 2.0);
        assert!(!few.supports(0.5));
        assert_eq!(Samples::new(vec![]).percentile(0.9), 0.0);
    }

    #[test]
    fn median_and_spread_match_pythons_statistics_module() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&values).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let spread = quartile_spread(&[4.0, 1.0, 2.0]).unwrap();
        assert!((spread - 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
        assert_eq!(quartile_spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn digest_depends_on_every_word_and_their_order() {
        let digest = |words: &[u64]| {
            let mut fnv = Fnv::new();
            words.iter().for_each(|w| fnv.word(*w));
            fnv.hex()
        };
        assert_eq!(digest(&[1, 2, 3]), digest(&[1, 2, 3]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[1, 3, 2]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[1, 2, 4]));
        assert_eq!(digest(&[]).len(), 16);
    }

    #[test]
    fn generator_is_a_pure_function_of_its_labels() {
        let a = SplitMix64::derive(7, 1, 2).tokens(16, 512);
        assert_eq!(a, SplitMix64::derive(7, 1, 2).tokens(16, 512));
        assert_ne!(a, SplitMix64::derive(8, 1, 2).tokens(16, 512));
        assert_ne!(a, SplitMix64::derive(7, 2, 1).tokens(16, 512));
        assert!(a.iter().all(|&t| t < 512));
        let mut g = SplitMix64::new(3);
        assert!((0..200).all(|_| (4..=16).contains(&g.range(4, 16))));
    }
}
