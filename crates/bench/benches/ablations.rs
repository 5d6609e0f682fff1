//! Criterion benches for the ablation studies of §8.3 and the design choices
//! called out in DESIGN.md: KV-budget sweep (Table 7), refresh-interval sweep
//! (Table 8), batch-size sweep (Table 9), recomputation (Fig. 15a/16a),
//! refresh-policy/scheduler ablation (Fig. 15b).

use criterion::{criterion_group, criterion_main, Criterion};
use kelle::arch::InferenceWorkload;
use kelle::experiment;
use kelle::model::ModelKind;
use std::hint::black_box;

fn bench_table_sweeps(c: &mut Criterion) {
    c.bench_function("table7_budget_sweep", |b| {
        b.iter(|| experiment::table7(black_box(ModelKind::Llama3_2_3b), &[2048, 5250, 8750]))
    });
    c.bench_function("table8_refresh_sweep", |b| {
        b.iter(|| {
            experiment::table8(
                black_box(ModelKind::Llama3_2_3b),
                InferenceWorkload::triviaqa(),
            )
        })
    });
    c.bench_function("table9_batch_sweep", |b| {
        b.iter(|| experiment::table9(black_box(ModelKind::Llama2_7b), &[16, 1]))
    });
}

fn bench_recompute_and_scheduler(c: &mut Criterion) {
    c.bench_function("fig15a_recompute_ablation", |b| {
        b.iter(|| experiment::figure15a(black_box(ModelKind::Llama3_2_3b)))
    });
    c.bench_function("fig15b_refresh_scheduler_ablation", |b| {
        b.iter(|| experiment::figure15b(black_box(ModelKind::Llama2_7b)))
    });
    c.bench_function("fig16a_roofline", |b| {
        b.iter(|| experiment::figure16a(black_box(ModelKind::Llama2_7b)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_table_sweeps, bench_recompute_and_scheduler
}
criterion_main!(benches);
