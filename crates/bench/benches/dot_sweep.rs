//! `bench_dot_sweep`: measurement-only sweep behind the
//! [`DOT_LANES`](kelle::tensor::DOT_LANES) constant.
//!
//! One axis, matching the rationale documented on `DOT_LANES` in
//! `crates/tensor/src/matrix.rs`: **accumulator width** — a local generic
//! re-implementation of the documented chunked accumulation ordering at
//! widths 1/2/4/8/16, over the surrogate's representative row lengths
//! (64–4096 elements), plus the library [`dot`] as the shipped-width
//! reference.  Width 1 serializes on FP-add latency; the sweep shows where
//! extra chains stop paying.
//!
//! This harness only measures: changing `DOT_LANES` itself is a
//! format-breaking change to the reference accumulation ordering (see the
//! constant's docs), so the tradeoff is re-measured here without touching it.

use criterion::{criterion_group, criterion_main, Criterion};
use kelle::tensor::dot;
use std::hint::black_box;

/// The documented reference ordering at a generic accumulator width `L`:
/// lane `j` sums the products at offset `j` of every `L`-wide chunk, the
/// remainder folds into lanes `0..rem`, and lanes reduce in index order.
/// (The library's `dot` additionally fixes a pairwise lane reduction at
/// `L = 4`; for a width *sweep* the in-order reduction is the comparable
/// choice, and the reduction tail it pays is part of what is measured.)
fn dot_width<const L: usize>(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; L];
    let chunks_a = a.chunks_exact(L);
    let chunks_b = b.chunks_exact(L);
    let rem_a = chunks_a.remainder();
    let rem_b = chunks_b.remainder();
    for (ca, cb) in chunks_a.zip(chunks_b) {
        for j in 0..L {
            acc[j] += ca[j] * cb[j];
        }
    }
    for (j, (x, y)) in rem_a.iter().zip(rem_b.iter()).enumerate() {
        acc[j] += x * y;
    }
    acc.iter().sum()
}

fn operand(len: usize, phase: f32) -> Vec<f32> {
    (0..len).map(|i| ((i as f32) * phase).sin() * 1.5).collect()
}

fn bench_accumulator_widths(c: &mut Criterion) {
    let mut group = c.benchmark_group("dot_sweep/width");
    // Row lengths spanning the surrogate shapes: head_dim, channels, a wide
    // FFN row and an LM-head row.
    for len in [64usize, 256, 1024, 4096] {
        let a = operand(len, 0.7);
        let b = operand(len, 1.3);
        group.bench_function(format!("lanes1/len{len}"), |bch| {
            bch.iter(|| dot_width::<1>(black_box(&a), black_box(&b)))
        });
        group.bench_function(format!("lanes2/len{len}"), |bch| {
            bch.iter(|| dot_width::<2>(black_box(&a), black_box(&b)))
        });
        group.bench_function(format!("lanes4/len{len}"), |bch| {
            bch.iter(|| dot_width::<4>(black_box(&a), black_box(&b)))
        });
        group.bench_function(format!("lanes8/len{len}"), |bch| {
            bch.iter(|| dot_width::<8>(black_box(&a), black_box(&b)))
        });
        group.bench_function(format!("lanes16/len{len}"), |bch| {
            bch.iter(|| dot_width::<16>(black_box(&a), black_box(&b)))
        });
        group.bench_function(format!("library/len{len}"), |bch| {
            bch.iter(|| dot(black_box(&a), black_box(&b)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_accumulator_widths
}
criterion_main!(benches);
