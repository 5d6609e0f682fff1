//! Non-linear operations used by transformer decoders.
//!
//! The Kelle accelerator's SFU (§5) implements softmax (with the online-max
//! trick from Softermax), activation functions and normalization via lookup
//! tables.  The functional model here uses exact math; the hardware model in
//! `kelle-arch` accounts for the SFU's latency/energy separately.

/// Numerically stable softmax, computed **in place** over a caller-owned
/// buffer.
///
/// This is the single softmax implementation of the workspace; [`softmax`]
/// is a thin allocating wrapper over it.  The hot
/// decode path calls it directly on a reusable scratch buffer so a decode
/// step performs no softmax-related heap allocation.
///
/// The formulation fixes the maximum first (one fold over the buffer) and
/// then fuses exponentiation with the running-sum accumulation in a single
/// in-place pass (the Softermax-style online sum, applied once the maximum is
/// known), followed by the normalizing division.  The operation order —
/// `max` fold, then `exp(x - max)` and sum accumulation in element order,
/// then `e / sum` — is the *reference ordering*: results are bitwise
/// reproducible across calls and identical to the historical two-pass
/// implementation.
///
/// Degenerate input (all `-inf` or NaN, so the exponent sum is zero or
/// non-finite) falls back to the uniform distribution.  Empty input is a
/// no-op.
pub fn softmax_into(values: &mut [f32]) {
    if values.is_empty() {
        return;
    }
    let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in values.iter_mut() {
        let e = (*v - max).exp();
        *v = e;
        sum += e;
    }
    if sum == 0.0 || !sum.is_finite() {
        // Degenerate input (all -inf or NaN): fall back to uniform.
        values.fill(1.0 / values.len() as f32);
        return;
    }
    for v in values.iter_mut() {
        *v /= sum;
    }
}

/// Numerically stable softmax over a slice.
///
/// Returns an empty vector for empty input.  Thin allocating wrapper over
/// [`softmax_into`].
///
/// # Example
///
/// ```rust
/// let p = kelle_tensor::ops::softmax(&[0.0, 0.0]);
/// assert!((p[0] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let mut out = logits.to_vec();
    softmax_into(&mut out);
    out
}

/// Sigmoid Linear Unit (a.k.a. swish), the gated-MLP activation used by the
/// Llama / Mistral family.
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// Root-mean-square normalization (RMSNorm) with a learned gain vector, into
/// a caller-owned buffer (cleared and refilled), so the decode hot path can
/// reuse its scratch allocation across steps.
///
/// # Panics
///
/// Panics if `x` and `gain` have different lengths.
pub fn rms_norm_into(x: &[f32], gain: &[f32], eps: f32, out: &mut Vec<f32>) {
    assert_eq!(
        x.len(),
        gain.len(),
        "rms_norm operands must be equal length"
    );
    out.clear();
    if x.is_empty() {
        return;
    }
    let ms = x.iter().map(|v| v * v).sum::<f32>() / x.len() as f32;
    let denom = (ms + eps).sqrt();
    out.extend(x.iter().zip(gain.iter()).map(|(v, g)| v / denom * g));
}

/// The angle table of one position for rotary position embedding (RoPE) of
/// `dim`-wide vectors: for each pair `i < dim / 2`, the `(sin, cos)` of
/// `position · theta^(-2i/dim)`, computed as `1 / theta^(2i/dim)` then
/// `position as f32 * freq` then `sin_cos`.
///
/// RoPE rotates consecutive element pairs `(x[2i], x[2i+1])` of a query or
/// key by these angles ([`rotate`]).  This is the positional-embedding flavour
/// used by the Llama family; it matters for the surrogate model because RoPE
/// makes attention scores position-sensitive, giving the recency structure
/// that StreamingLLM's "recent window" heuristic relies on.
///
/// The table depends on the position alone, never on the vector rotated, so
/// every head of a layer — queries and keys alike — can share one.
pub fn rope_angles(position: usize, dim: usize, theta: f32) -> impl Iterator<Item = (f32, f32)> {
    (0..dim / 2).map(move |i| {
        let freq = 1.0 / theta.powf(2.0 * i as f32 / dim as f32);
        let angle = position as f32 * freq;
        angle.sin_cos()
    })
}

/// Rotates the consecutive pairs `(x[2i], x[2i+1])` of `x` in place by the
/// angles of a [`rope_angles`] table: `(a, b) ↦ (a·cos − b·sin, a·sin +
/// b·cos)`.  An odd last element is left as it is.
///
/// # Panics
///
/// Panics if `angles` does not hold exactly one `(sin, cos)` per pair.
pub fn rotate(x: &mut [f32], angles: &[(f32, f32)]) {
    assert_eq!(angles.len(), x.len() / 2, "one angle per rotated pair");
    for (pair, &(sin, cos)) in x.chunks_exact_mut(2).zip(angles) {
        let (a, b) = (pair[0], pair[1]);
        pair[0] = a * cos - b * sin;
        pair[1] = a * sin + b * cos;
    }
}

/// Cross-entropy (natural log) between a one-hot target index and a
/// probability distribution, used by the perplexity-proxy metric.
///
/// Returns `+inf` if the probability of the target is zero.
///
/// # Panics
///
/// Panics if `target >= probs.len()`.
pub fn cross_entropy(probs: &[f32], target: usize) -> f32 {
    assert!(target < probs.len(), "target index out of range");
    let p = probs[target].max(f32::MIN_POSITIVE);
    -p.ln()
}

/// Kullback-Leibler divergence `KL(p || q)` between two distributions.
///
/// Entries where `p` is zero contribute nothing; entries where `q` is zero but
/// `p` is positive contribute a large finite penalty (clamped) so the metric
/// stays usable under heavy corruption.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn kl_divergence(p: &[f32], q: &[f32]) -> f32 {
    assert_eq!(
        p.len(),
        q.len(),
        "kl_divergence operands must be equal length"
    );
    let mut total = 0.0f32;
    for (&pi, &qi) in p.iter().zip(q.iter()) {
        if pi <= 0.0 {
            continue;
        }
        let qi = qi.max(1e-12);
        total += pi * (pi / qi).ln();
    }
    total.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0, 4.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[101.0, 102.0, 103.0]);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_empty_and_degenerate() {
        assert!(softmax(&[]).is_empty());
        let p = softmax(&[f32::NEG_INFINITY, f32::NEG_INFINITY]);
        assert!((p[0] - 0.5).abs() < 1e-6);
    }

    /// The genuinely streaming Softermax formulation (running maximum with
    /// rescaled sums, no second max pass), an independent test reference for
    /// the hardware-equivalence check of the consolidated kernel.
    fn softmax_streaming_reference(logits: &[f32]) -> Vec<f32> {
        if logits.is_empty() {
            return Vec::new();
        }
        let mut running_max = f32::NEG_INFINITY;
        let mut running_sum = 0.0f32;
        for &x in logits {
            if x > running_max {
                running_sum *= (running_max - x).exp();
                running_max = x;
            }
            running_sum += (x - running_max).exp();
        }
        if running_sum == 0.0 || !running_sum.is_finite() {
            return vec![1.0 / logits.len() as f32; logits.len()];
        }
        logits
            .iter()
            .map(|x| (x - running_max).exp() / running_sum)
            .collect()
    }

    #[test]
    fn online_softmax_matches_streaming_formulation() {
        // The SFU-equivalence property: the kernel agrees with the
        // independent running-rescale streaming realization.
        let logits = vec![0.3, -1.2, 4.5, 2.2, -0.7, 3.3, 9.9, -5.0, 9.8];
        let a = softmax(&logits);
        let b = softmax_streaming_reference(&logits);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_into_matches_allocating_wrapper_bitwise() {
        let logits = vec![0.3, -1.2, 4.5, 2.2, -0.7, 3.3, 88.0, -40.0];
        let wrapper = softmax(&logits);
        let mut in_place = logits.clone();
        softmax_into(&mut in_place);
        // The wrapper is a thin shim over the in-place kernel; results must be
        // bit-for-bit identical, not merely close.
        assert_eq!(
            wrapper.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            in_place.iter().map(|p| p.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn softmax_into_degenerate_and_empty() {
        let mut empty: [f32; 0] = [];
        softmax_into(&mut empty);
        let mut degenerate = [f32::NEG_INFINITY, f32::NEG_INFINITY];
        softmax_into(&mut degenerate);
        assert!((degenerate[0] - 0.5).abs() < 1e-6);
        assert!((degenerate[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn rms_norm_into_reuses_buffer() {
        let x = vec![3.0, 4.0];
        let gain = vec![1.0, 1.0];
        let mut buf = vec![9.0; 17];
        rms_norm_into(&x, &gain, 1e-6, &mut buf);
        let denom = (12.5f32 + 1e-6).sqrt();
        assert_eq!(buf, vec![3.0 / denom, 4.0 / denom]);
    }

    #[test]
    fn gelu_and_silu_basic_shape() {
        assert!(silu(0.0).abs() < 1e-6);
        assert!((silu(10.0) - 10.0).abs() < 1e-2);
    }

    #[test]
    fn rms_norm_unit_scale() {
        let x = vec![3.0, 4.0];
        let gain = vec![1.0, 1.0];
        let mut out = Vec::new();
        rms_norm_into(&x, &gain, 1e-6, &mut out);
        let ms = out.iter().map(|v| v * v).sum::<f32>() / 2.0;
        assert!((ms - 1.0).abs() < 1e-3);
    }

    #[test]
    fn rope_preserves_norm() {
        let mut x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let before: f32 = x.iter().map(|v| v * v).sum();
        let angles: Vec<(f32, f32)> = rope_angles(17, x.len(), 10_000.0).collect();
        rotate(&mut x, &angles);
        let after: f32 = x.iter().map(|v| v * v).sum();
        assert!((before - after).abs() < 1e-3);
    }

    #[test]
    fn rope_position_zero_is_identity() {
        let mut x = vec![0.5, -0.25, 1.5, 2.0];
        let orig = x.clone();
        let angles: Vec<(f32, f32)> = rope_angles(0, x.len(), 10_000.0).collect();
        rotate(&mut x, &angles);
        for (a, b) in x.iter().zip(orig.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    /// RoPE written out as one loop, angle and rotation per pair: the
    /// reference the table and the rotation are held to.
    fn rope_reference(x: &mut [f32], position: usize, theta: f32) {
        let d = x.len();
        let half = d / 2;
        for i in 0..half {
            let freq = 1.0 / theta.powf(2.0 * i as f32 / d as f32);
            let angle = position as f32 * freq;
            let (sin, cos) = angle.sin_cos();
            let a = x[2 * i];
            let b = x[2 * i + 1];
            x[2 * i] = a * cos - b * sin;
            x[2 * i + 1] = a * sin + b * cos;
        }
    }

    /// One table per position rotates every vector of that width exactly as
    /// the reference does; an odd last element stays as it was.
    #[test]
    fn table_rotation_matches_reference_rope_bitwise() {
        for dim in [2usize, 4, 8, 64, 128, 9] {
            for position in [0usize, 1, 63, 4_095, 1 << 20] {
                let angles: Vec<(f32, f32)> = rope_angles(position, dim, 10_000.0).collect();
                assert_eq!(angles.len(), dim / 2);
                for vector in 0..3 {
                    let x: Vec<f32> = (0..dim)
                        .map(|i| ((i + 7 * vector) as f32 * 0.61).sin() * 2.5)
                        .collect();
                    let mut expected = x.clone();
                    rope_reference(&mut expected, position, 10_000.0);
                    let mut tabled = x.clone();
                    rotate(&mut tabled, &angles);
                    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&tabled), bits(&expected), "dim {dim} pos {position}");
                    if dim % 2 == 1 {
                        assert_eq!(tabled[dim - 1].to_bits(), x[dim - 1].to_bits());
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one angle per rotated pair")]
    fn rotate_rejects_a_table_of_another_width() {
        let angles: Vec<(f32, f32)> = rope_angles(3, 8, 10_000.0).collect();
        rotate(&mut [0.0; 4], &angles);
    }

    #[test]
    fn kl_divergence_zero_for_identical() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!(kl_divergence(&p, &p) < 1e-6);
    }

    #[test]
    fn kl_divergence_positive_for_different() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let q = softmax(&[3.0, 2.0, 1.0]);
        assert!(kl_divergence(&p, &q) > 0.1);
    }

    #[test]
    fn cross_entropy_matches_log() {
        let probs = vec![0.25, 0.75];
        assert!((cross_entropy(&probs, 1) - 0.75f32.ln().abs()).abs() < 1e-6);
    }
}
