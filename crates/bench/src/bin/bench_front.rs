//! Front-end benchmark binary: serves the long-lived fleet through
//! `kelle::front` on the sticky-shard executor and the work-stealing pool
//! at every configured worker count *in the same run* (streams asserted
//! identical while being timed), prints a table, and emits the
//! `BENCH_front.json` artifact consumed by CI.
//!
//! Usage: `cargo run --release -p kelle-bench --bin bench_front -- \
//!     [--quick] [--out BENCH_front.json]`

use kelle_bench::front_perf::{self, FrontPerfConfig};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_front.json"));

    let config = if quick {
        FrontPerfConfig::quick()
    } else {
        FrontPerfConfig::full()
    };
    let fleet = &config.scenario.fleet;
    println!(
        "serving front-end on front_long_lived_fleet ({} sessions, system {}, user {}, decode {}){}",
        fleet.sessions,
        fleet.system_tokens,
        fleet.user_tokens,
        fleet.decode_len,
        if quick { " [quick]" } else { "" }
    );

    let report = front_perf::run(config);
    println!(
        "{:>8} {:>10} {:>12} {:>11} {:>14} {:>11} {:>10} {:>8}",
        "workers",
        "executor",
        "decode tok",
        "wall s",
        "decode tok/s",
        "crossings",
        "cross/tick",
        "migrated"
    );
    for row in &report.rows {
        println!(
            "{:>8} {:>10} {:>12} {:>11.4} {:>14.0} {:>11} {:>10.2} {:>8}",
            row.workers,
            row.executor,
            row.decode_tokens,
            row.wall_seconds,
            row.decode_tokens_per_sec,
            row.queue_crossings,
            row.crossings_per_tick,
            row.sessions_migrated,
        );
    }
    println!("(streams verified bit-identical on every row; sticky crossings/tick asserted");
    println!(" strictly below stealing at every worker count)");

    match report.write_json(&out) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(err) => {
            eprintln!("failed to write {}: {err}", out.display());
            std::process::exit(1);
        }
    }
}
