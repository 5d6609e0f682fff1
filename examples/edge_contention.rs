//! Shared eDRAM capacity arbitration: several tenants contend for one KV
//! budget, queueing behind admission control and spilling to DRAM when their
//! decode growth oversubscribes the device — while every tenant's token
//! stream stays byte-identical to uncontended serving.
//!
//! Run with `cargo run --example edge_contention`.

use kelle::{AdmissionPolicy, KelleEngine, SchedulerConfig, ServeOptions, ServeRequest};

fn main() {
    let engine = KelleEngine::builder().seed(11).build();

    // Five tenants with mixed prompt sizes and decode budgets.
    let requests: Vec<ServeRequest> = vec![
        ServeRequest::new(vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8], 6),
        ServeRequest::new(vec![2, 7, 1, 8, 2, 8, 1, 8], 8),
        ServeRequest::new(vec![6, 6, 6, 1, 2], 4),
        ServeRequest::new(vec![1, 61, 80, 33, 98, 11, 7, 4, 9, 2], 6),
        ServeRequest::new(vec![9, 9], 5),
    ];

    // Size the shared budget from the batch itself: the total full-scale KV
    // footprint every request would hold at completion.
    let total: u64 = requests
        .iter()
        .map(|r| engine.kv_footprint_bytes(r.prompt().len() + r.decode_len()))
        .sum();
    println!(
        "total final KV footprint of the batch: {:.1} MB (full hardware scale)",
        total as f64 / (1024.0 * 1024.0)
    );

    // Reference run: capacity holds everyone, nobody queues.
    let ample = engine
        .serve(
            requests.clone(),
            ServeOptions::new()
                .with_scheduler(SchedulerConfig::default().with_kv_capacity_bytes(total)),
        )
        .expect("no chaos configured, no worker can be lost");

    for (label, scale, admission) in [
        ("ample capacity, fcfs", 1.0, AdmissionPolicy::Fcfs),
        ("half capacity, fcfs", 0.5, AdmissionPolicy::Fcfs),
        (
            "half capacity, shortest-prompt-first",
            0.5,
            AdmissionPolicy::ShortestPromptFirst,
        ),
        (
            "half capacity, capacity-fit",
            0.5,
            AdmissionPolicy::CapacityFit,
        ),
    ] {
        let config = SchedulerConfig::default()
            .with_kv_capacity_bytes(((total as f64) * scale) as u64)
            .with_admission(admission);
        let batch = engine
            .serve(requests.clone(), ServeOptions::new().with_scheduler(config))
            .expect("no chaos configured, no worker can be lost");

        println!("\n=== {label} ===");
        println!(
            "peak residency {:6.1} MB | spill {:6.1} MB | queue ticks total {} / max {}",
            batch.contention.peak_residency_bytes as f64 / (1024.0 * 1024.0),
            batch.contention.spill_bytes as f64 / (1024.0 * 1024.0),
            batch.contention.total_queue_ticks,
            batch.contention.max_queue_ticks,
        );
        for (i, timing) in batch.contention.per_request.iter().enumerate() {
            println!(
                "  request {i}: queued {:>2} ticks, admitted t{:>2}, finished t{:>2}, \
                 granted {}, spill {:5.1} MB",
                timing.queue_ticks,
                timing.admitted_tick,
                timing.finished_tick,
                timing
                    .granted_bytes
                    .map(|b| format!("{:5.1} MB", b as f64 / (1024.0 * 1024.0)))
                    .unwrap_or_else(|| "whole eDRAM".to_string()),
                timing.spill_bytes as f64 / (1024.0 * 1024.0),
            );
        }
        println!(
            "energy {:8.1} J (ample: {:8.1} J)",
            batch.stats.hardware_energy_j, ample.stats.hardware_energy_j
        );

        // The equivalence guarantee: contention never changes tokens.
        for (a, b) in ample.outcomes.iter().zip(batch.outcomes.iter()) {
            assert_eq!(a.generated, b.generated);
        }
        println!("token streams identical to the uncontended run ✓");
    }
}
