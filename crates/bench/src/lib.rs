//! # kelle-bench
//!
//! Benchmark harness for the Kelle reproduction:
//!
//! * `benches/` — criterion micro-benchmarks over the platform simulations,
//!   accuracy experiments and device models;
//! * `src/bin/tables.rs` / `src/bin/figures.rs` — regenerate every table and
//!   figure of the paper from the reproduction models;
//! * `src/bin/bench_decode.rs` — the decode-throughput comparison emitting
//!   `BENCH_decode.json`, built on [`decode_perf`];
//! * `src/bin/bench_prefix.rs` — the cross-session prefix-sharing sweep
//!   emitting `BENCH_prefix.json`, built on [`prefix_perf`];
//! * `src/bin/bench_serving.rs` — the threaded-serving worker-count sweep
//!   emitting `BENCH_serving.json`, built on [`serving_perf`];
//! * `src/bin/bench_tiering.rs` — the tiered-memory pressure sweep emitting
//!   `BENCH_tiering.json`, built on [`tiering_perf`];
//! * `src/bin/bench_chaos.rs` — the chaos-recovery sweep emitting
//!   `BENCH_chaos.json`, built on [`chaos_perf`];
//! * `src/bin/bench_trace.rs` — the fleet-scale trace replay and
//!   admission-policy shootout emitting `BENCH_trace.json`, built on
//!   [`trace_perf`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos_perf;
pub mod decode_perf;
pub mod prefix_perf;
pub mod serving_perf;
pub mod tiering_perf;
pub mod trace_perf;
