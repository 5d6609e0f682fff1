//! Deterministic random-number utilities.
//!
//! Every stochastic component of the reproduction — surrogate weight
//! generation, synthetic workloads, retention-failure sampling — is seeded
//! explicitly so that experiments are exactly reproducible run-to-run.  This
//! module provides a thin layer over `rand_chacha::ChaCha12Rng` plus the
//! distributions the surrogate model and the workloads need (Gaussian and
//! Zipf-like heavy-tailed).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// The deterministic RNG used across the workspace.
pub type DetRng = ChaCha12Rng;

/// Derives a child RNG from a parent seed and a stream label, so that
/// independent components (e.g. per-layer weights) get decorrelated streams
/// while remaining reproducible.
pub fn substream(seed: u64, label: &str) -> DetRng {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in label.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    ChaCha12Rng::seed_from_u64(seed ^ hash)
}

/// Derives a child RNG from a parent seed and a pair of integer labels, for
/// components indexed by position rather than name — e.g. the retention
/// cells of one stored KV row.  Unlike [`substream`] this never allocates or
/// hashes bytes, so it is safe to call on hot paths.
///
/// The labels are mixed through a SplitMix64-style finalizer so that adjacent
/// `(a, b)` pairs produce decorrelated streams.
pub fn lane(seed: u64, a: u64, b: u64) -> DetRng {
    let mut z =
        seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    ChaCha12Rng::seed_from_u64(z)
}

/// Samples a standard normal value using the Box-Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f32 = rng.gen_range(f32::MIN_POSITIVE..1.0);
    let u2: f32 = rng.gen::<f32>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Samples a normal value with the given mean and standard deviation.
pub(crate) fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f32, std_dev: f32) -> f32 {
    mean + std_dev * standard_normal(rng)
}

/// Samples an index in `0..n` from a Zipf-like power-law distribution with
/// exponent `s`.  Smaller indices are more likely.
///
/// Used to build heavy-tailed token-importance structure in the synthetic
/// workloads: a few "heavy hitter" tokens dominate attention mass, mirroring
/// the empirical observation behind H2O and AERP.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn zipf_index<R: Rng + ?Sized>(rng: &mut R, n: usize, s: f32) -> usize {
    assert!(n > 0, "zipf support must be non-empty");
    // Inverse-CDF sampling over the (unnormalized) weights 1/(k+1)^s.
    let weights: Vec<f32> = (0..n).map(|k| 1.0 / ((k + 1) as f32).powf(s)).collect();
    let total: f32 = weights.iter().sum();
    let mut target = rng.gen::<f32>() * total;
    for (idx, w) in weights.iter().enumerate() {
        if target < *w {
            return idx;
        }
        target -= w;
    }
    n - 1
}

/// Fills a slice with i.i.d. normal values scaled for a fan-in of `fan_in`
/// (Xavier/Glorot-style initialization), producing well-conditioned surrogate
/// weight matrices.
pub fn fill_xavier<R: Rng + ?Sized>(rng: &mut R, out: &mut [f32], fan_in: usize) {
    let std_dev = (1.0 / fan_in.max(1) as f32).sqrt();
    for v in out.iter_mut() {
        *v = normal(rng, 0.0, std_dev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_reproducible() {
        let mut a = DetRng::seed_from_u64(42);
        let mut b = DetRng::seed_from_u64(42);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    /// Every token stream, fault statistic and `kbench` digest starts at one
    /// of these three constructors, so their first draws are pinned here: an
    /// edit to the generator or to the seed mixing fails this test in a second
    /// instead of a digest after a minute.  The values are those of the
    /// one-block scalar ChaCha12 the workspace shipped through PR 19.
    #[test]
    fn first_draws_of_each_constructor_are_pinned() {
        let first4 = |mut rng: DetRng| -> [u64; 4] { std::array::from_fn(|_| rng.gen()) };
        assert_eq!(
            first4(DetRng::seed_from_u64(7)),
            [
                0xe132_b3e7_0b1b_e1a8,
                0xf26f_73b1_9adb_ac83,
                0x576e_cace_9378_5085,
                0xb0b1_2934_3dac_15d7,
            ]
        );
        assert_eq!(
            first4(substream(7, "weights")),
            [
                0x9cb0_e0a9_1aa5_74d7,
                0xf81a_341d_6b45_77cf,
                0x8f5d_3c0d_8a1c_bc73,
                0x3a9f_d6fe_a2c6_a668,
            ]
        );
        assert_eq!(
            first4(lane(7, 3, 5)),
            [
                0x118d_6b5d_a738_235d,
                0xaab9_3799_f84e_4585,
                0xa89c_a84f_29a8_74e5,
                0x9e6a_ed30_6e21_d521,
            ]
        );
    }

    #[test]
    fn lanes_differ_by_label_and_are_reproducible() {
        let draw = |a: u64, b: u64| -> Vec<u64> {
            let mut rng = lane(42, a, b);
            (0..8).map(|_| rng.gen()).collect()
        };
        assert_eq!(draw(0, 0), draw(0, 0));
        assert_ne!(draw(0, 0), draw(0, 1));
        assert_ne!(draw(0, 1), draw(1, 0));
        assert_ne!(draw(1, 1), draw(0, 0));
    }

    #[test]
    fn substreams_differ_by_label() {
        let mut a = substream(42, "layer0");
        let mut b = substream(42, "layer1");
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn normal_moments_are_close() {
        let mut rng = DetRng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| normal(&mut rng, 2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!((mean - 2.0).abs() < 0.1);
        assert!((var - 9.0).abs() < 0.5);
    }

    #[test]
    fn zipf_prefers_small_indices() {
        let mut rng = DetRng::seed_from_u64(11);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[zipf_index(&mut rng, 10, 1.2)] += 1;
        }
        assert!(counts[0] > counts[5]);
        assert!(counts[1] > counts[9]);
    }

    #[test]
    fn zipf_stays_in_range() {
        let mut rng = DetRng::seed_from_u64(13);
        for _ in 0..1000 {
            assert!(zipf_index(&mut rng, 7, 0.8) < 7);
        }
    }

    #[test]
    fn xavier_scale_shrinks_with_fan_in() {
        let mut rng = DetRng::seed_from_u64(17);
        let mut small = vec![0.0; 4096];
        let mut large = vec![0.0; 4096];
        fill_xavier(&mut rng, &mut small, 16);
        fill_xavier(&mut rng, &mut large, 1024);
        let var = |v: &[f32]| v.iter().map(|x| x * x).sum::<f32>() / v.len() as f32;
        assert!(var(&small) > var(&large) * 10.0);
    }
}
