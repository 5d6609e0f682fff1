//! Trace-engine acceptance suite: fleet-scale traces replayed through the
//! unified `KelleEngine::serve` entry point must be **deterministic** in
//! every observable the SLO benchmark reports:
//!
//! * token streams are bit-identical across admission policies and worker
//!   counts (arrival-tick admission never changes a token);
//! * the tick-denominated [`kelle::SloReport`] is bit-identical across
//!   worker counts for a fixed admission policy;
//! * a nested three-level prefix hierarchy published from **one** recording
//!   pass serves every intermediate boundary, and replaying against it is
//!   bit-identical to cold sessions for all five cache policies.
//!
//! The CI determinism gate runs this suite at explicit worker counts via
//! `KELLE_TEST_WORKERS` (comma-separated, default {1, 2, 4}).

use kelle::workloads::{PrefixHierarchy, SessionArchetype, Trace, TraceConfig, TraceEngine};
use kelle::{
    AdmissionPolicy, BatchOutcome, CachePolicy, KelleEngine, PrefixSharingConfig, SchedulerConfig,
    ServeOptions, ServeRequest, SloReport, SloSpec,
};

/// Worker counts under test: `KELLE_TEST_WORKERS` or {1, 2, 4} by default.
fn worker_counts() -> Vec<usize> {
    match std::env::var("KELLE_TEST_WORKERS") {
        Ok(raw) => raw
            .split(',')
            .map(|part| {
                part.trim()
                    .parse::<usize>()
                    .unwrap_or_else(|_| panic!("bad KELLE_TEST_WORKERS entry: {part:?}"))
            })
            .collect(),
        Err(_) => vec![1, 2, 4],
    }
}

/// A small but structurally complete fleet: Poisson arrivals, a mixed
/// archetype population with multi-turn conversations, and the three-level
/// prefix hierarchy.
fn fleet_trace() -> Trace {
    TraceEngine::new(
        TraceConfig::poisson(64, 0.25)
            .with_hierarchy(PrefixHierarchy::new(4, 2, 2).with_users(2, 2))
            .with_archetypes(vec![
                SessionArchetype::new("chat", 3, (1, 3)).with_decode_tokens((2, 3)),
                SessionArchetype::new("multi", 1, (1, 3))
                    .with_decode_tokens((2, 3))
                    .with_turns((2, 2), (2, 6)),
            ])
            .with_seed(41),
    )
    .generate()
}

fn engine_with_hierarchy(workers: usize, trace: &Trace) -> KelleEngine {
    let engine = KelleEngine::builder()
        .prefix_sharing(PrefixSharingConfig::enabled())
        .workers(workers)
        .seed(17)
        .build();
    for publication in &trace.publications {
        engine.publish_prefix_hierarchy(&publication.tokens, &publication.boundaries);
    }
    engine
}

/// Replays the trace with arrival-tick admission under a tight capacity.
fn replay(engine: &KelleEngine, trace: &Trace, admission: AdmissionPolicy) -> BatchOutcome {
    let requests: Vec<ServeRequest> = trace
        .requests
        .iter()
        .map(|r| {
            ServeRequest::builder(r.prompt.clone())
                .decode_len(r.decode_len)
                .arrival_tick(r.arrival_tick)
                .build()
        })
        .collect();
    let scheduler = SchedulerConfig::default()
        .with_kv_capacity_bytes(engine.kv_footprint_bytes(32))
        .with_admission(admission)
        .with_slo(SloSpec::new(25, 1.5));
    engine
        .serve(
            requests,
            ServeOptions::new().parallel().with_scheduler(scheduler),
        )
        .expect("no chaos configured, no worker can be lost")
}

#[test]
fn slo_report_is_bit_identical_across_worker_counts_for_every_policy() {
    let trace = fleet_trace();
    let mut reference_streams: Option<Vec<Vec<usize>>> = None;
    for admission in [
        AdmissionPolicy::Fcfs,
        AdmissionPolicy::ShortestPromptFirst,
        AdmissionPolicy::CapacityFit,
    ] {
        let mut reference_slo: Option<SloReport> = None;
        for workers in worker_counts() {
            let engine = engine_with_hierarchy(workers, &trace);
            let outcome = replay(&engine, &trace, admission);
            assert_eq!(outcome.slo.requests as usize, trace.requests.len());
            assert_eq!(outcome.slo.shed, 0, "nothing times out in this fleet");
            assert!(outcome.slo.total_tokens > 0);

            // Tokens never see the admission policy or the worker count.
            let streams: Vec<Vec<usize>> = outcome
                .outcomes
                .iter()
                .map(|o| o.generated.clone())
                .collect();
            match &reference_streams {
                None => reference_streams = Some(streams),
                Some(expected) => assert_eq!(
                    expected, &streams,
                    "{admission:?} at {workers} workers changed a token stream"
                ),
            }

            // Tick-denominated latencies never see the worker count.
            match &reference_slo {
                None => reference_slo = Some(outcome.slo.clone()),
                Some(expected) => assert_eq!(
                    expected, &outcome.slo,
                    "{admission:?} SLO report changed at {workers} workers"
                ),
            }
        }
    }
}

#[test]
fn queueing_under_tight_capacity_is_visible_in_the_slo_report() {
    let trace = fleet_trace();
    let engine = engine_with_hierarchy(1, &trace);
    let outcome = replay(&engine, &trace, AdmissionPolicy::Fcfs);
    // The capacity is tight enough that the fleet queues, and the queue
    // delay shows up in time-to-first-token.
    assert!(outcome.slo.queue.max > 0.0, "the fleet must contend");
    assert!(outcome.slo.ttft.p99 >= outcome.slo.queue.p99);
    assert!(outcome.slo.goodput_requests <= outcome.slo.completed);
    // Completion accounting is closed: every request completed or was shed.
    assert_eq!(
        outcome.slo.completed + outcome.slo.shed,
        outcome.slo.requests
    );
}

#[test]
fn one_recording_pass_publishes_every_intermediate_boundary() {
    let trace = fleet_trace();
    let engine = KelleEngine::builder()
        .prefix_sharing(PrefixSharingConfig::enabled())
        .seed(17)
        .build();

    // The first leaf publishes all three levels from one recording pass.
    let first = &trace.publications[0];
    assert_eq!(first.boundaries.len(), 3);
    assert_eq!(
        engine.publish_prefix_hierarchy(&first.tokens, &first.boundaries),
        3
    );
    // A sibling leaf under the same tool shares system + tool preamble:
    // only its user-history level is new.
    let sibling = &trace.publications[1];
    assert_eq!(sibling.tool, first.tool);
    assert_eq!(
        engine.publish_prefix_hierarchy(&sibling.tokens, &sibling.boundaries),
        1
    );
    // Republishing either is a no-op.
    assert_eq!(
        engine.publish_prefix_hierarchy(&first.tokens, &first.boundaries),
        0
    );

    // Every intermediate boundary now serves prefix hits: a prompt
    // extending level k reuses exactly the first k levels.
    for &boundary in &first.boundaries {
        let mut prompt = first.tokens[..boundary].to_vec();
        prompt.extend([7, 3, 9]);
        let outcome = engine
            .serve(vec![ServeRequest::new(prompt, 2)], ServeOptions::new())
            .expect("no chaos configured, no worker can be lost");
        assert_eq!(
            outcome.outcomes[0].prefix_hit_tokens, boundary,
            "a prompt extending the {boundary}-token level must reuse it"
        );
    }
}

#[test]
fn hierarchy_replay_is_bit_identical_to_cold_sessions_for_all_five_policies() {
    let trace = fleet_trace();
    for policy in CachePolicy::all() {
        let build = || {
            KelleEngine::builder()
                .prefix_sharing(PrefixSharingConfig::enabled())
                .policy(policy)
                .seed(17)
                .build()
        };
        let warm = build();
        let published: usize = trace
            .publications
            .iter()
            .map(|p| warm.publish_prefix_hierarchy(&p.tokens, &p.boundaries))
            .sum();
        // One system prompt + one preamble per tool + one history per leaf:
        // shared ancestors deduplicate across sibling leaves.
        assert_eq!(
            published,
            1 + 2 + trace.publications.len(),
            "{policy:?}: hierarchy levels published once each"
        );
        let cold = build();

        // One request per hierarchy leaf, each extending the full
        // three-level prefix.
        let requests: Vec<ServeRequest> = trace
            .publications
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut prompt = p.tokens.clone();
                prompt.extend([11 + i, 5, 2]);
                ServeRequest::new(prompt, 3)
            })
            .collect();
        let warm_outcome = warm
            .serve(requests.clone(), ServeOptions::new())
            .expect("no chaos configured, no worker can be lost");
        let cold_outcome = cold
            .serve(requests, ServeOptions::new())
            .expect("no chaos configured, no worker can be lost");

        let depth = trace.publications[0].tokens.len();
        for (i, (w, c)) in warm_outcome
            .outcomes
            .iter()
            .zip(cold_outcome.outcomes.iter())
            .enumerate()
        {
            assert_eq!(
                w.generated, c.generated,
                "{policy:?}: request {i} must decode identically warm and cold"
            );
            assert_eq!(
                w.prefix_hit_tokens, depth,
                "{policy:?}: request {i} must reuse the whole three-level prefix"
            );
            assert_eq!(
                c.prefix_hit_tokens, 0,
                "{policy:?}: cold engine has no store"
            );
        }
        assert_eq!(
            warm_outcome.prefix.hit_requests as usize,
            trace.publications.len()
        );
    }
}
