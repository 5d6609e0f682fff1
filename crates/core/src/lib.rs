//! # kelle
//!
//! Top-level crate of the Kelle reproduction: the public API that co-simulates
//! the **algorithm side** (the surrogate LLM with AERP/2DRP-managed KV caches,
//! from `kelle-model` / `kelle-edram`) and the **hardware
//! side** (the eDRAM-based edge accelerator and its baselines, from
//! `kelle-arch`), plus the experiment catalogue used to regenerate every table
//! and figure of the paper.
//!
//! ## Quick start
//!
//! Engines are configured through [`EngineBuilder`](engine::EngineBuilder) and serve through three
//! entry points of increasing generality: one-shot [`KelleEngine::serve_one`],
//! persistent [`Session`](session::Session)s whose KV cache survives across turns, and the
//! unified continuous-batching entry [`KelleEngine::serve`], whose
//! [`ServeOptions`] select capacity arbitration, parallel execution and
//! streaming on one call.
//!
//! ```rust
//! use kelle::{CachePolicy, KelleEngine, ServeOptions, ServeRequest};
//!
//! // Build a Kelle system: LLaMA2-7B-shaped model, AERP cache management,
//! // 2DRP refresh, evaluated on the Kelle+eDRAM platform.
//! let engine = KelleEngine::builder().policy(CachePolicy::Aerp).seed(7).build();
//!
//! // One-shot serving: functional result + hardware cost in one call.
//! let outcome = engine.serve_one(&[1, 2, 3, 4, 5, 6, 7, 8], 16);
//! assert_eq!(outcome.generated.len(), 16);
//! assert!(outcome.hardware.total_latency_s() > 0.0);
//!
//! // Multi-turn chat: the session keeps its KV cache, so the second turn
//! // pre-fills only its own two new tokens instead of the whole history.
//! let mut session = engine.open_session();
//! session.turn(&[1, 2, 3, 4], 8);
//! let second = session.turn(&[5, 6], 8);
//! assert_eq!(second.prefilled_tokens, 2);
//!
//! // Continuous batching: decode steps interleave round-robin across
//! // requests, streaming tokens as they are produced.
//! let requests = vec![
//!     ServeRequest::new(vec![7, 8, 9], 4),
//!     ServeRequest::builder(vec![10, 11]).decode_len(4).policy(CachePolicy::Full).build(),
//! ];
//! let mut sink = |request: usize, _token: usize| assert!(request < 2);
//! let batch = engine
//!     .serve(requests.clone(), ServeOptions::new().streaming(&mut sink))
//!     .expect("no chaos configured, no worker can be lost");
//! assert_eq!(batch.outcomes.len(), 2);
//! assert_eq!(batch.stats.tokens_generated, 8);
//!
//! // Shared-capacity arbitration: the same requests contend for one eDRAM
//! // budget — they may queue (admission control) and spill to DRAM (cost
//! // model), but their token streams never change.
//! use kelle::SchedulerConfig;
//! let capacity: u64 = requests
//!     .iter()
//!     .map(|r| engine.kv_footprint_bytes(r.prompt().len() + r.decode_len()))
//!     .sum();
//! let contended = engine
//!     .serve(
//!         requests,
//!         ServeOptions::new().with_scheduler(
//!             SchedulerConfig::default().with_kv_capacity_bytes(capacity / 2),
//!         ),
//!     )
//!     .expect("no chaos configured, no worker can be lost");
//! for (a, b) in batch.outcomes.iter().zip(contended.outcomes.iter()) {
//!     assert_eq!(a.generated, b.generated);
//! }
//! // Every batch carries a serving-quality report (TTFT/TPOT/queue-time
//! // percentiles in scheduler ticks, goodput under a configurable SLO).
//! assert_eq!(contended.slo.requests, 2);
//! ```
//!
//! The main entry points are:
//!
//! * [`KelleEngine`] / [`EngineBuilder`](engine::EngineBuilder) — configure and serve on a Kelle
//!   system, obtaining generated tokens, cache behaviour and hardware
//!   latency/energy;
//! * [`Session`](session::Session) / [`ServeRequest`] — multi-turn serving with KV-cache reuse
//!   and per-request policy and seed overrides;
//! * [`scheduler`] — the continuous-batching admission pipeline behind
//!   [`KelleEngine::serve`]: waiting queue, [`AdmissionPolicy`], arrival-tick
//!   release for trace replay, the shared
//!   [`CapacityLedger`](kelle_edram::CapacityLedger), the contention
//!   metrics of [`BatchOutcome`] and the [`SloReport`] graded against a
//!   configurable [`SloSpec`];
//! * [`parallel`] — the one executor, [`WorkerPool`]: every batch pins each
//!   session to one of its shards, where it lives from its admission
//!   prefill until it finishes, so only per-tick step results cross
//!   threads.  A plain [`KelleEngine::serve`] runs one shard on the calling
//!   thread; [`ServeOptions::parallel`] runs [`EngineBuilder::workers`](engine::EngineBuilder::workers) —
//!   the calling thread and `workers − 1` scoped threads — with
//!   bit-identical token streams, fault statistics and batch metrics for
//!   every worker count;
//! * [`front`] — the non-blocking serving front-end:
//!   [`KelleEngine::front`] opens submit/poll sessions with per-request
//!   [`TokenStream`]s, typed admission backpressure
//!   ([`SubmitError::QueueFull`](front::SubmitError::QueueFull)), stream-level pause/resume, first-class
//!   cancel/deadline/drain, on the same [`WorkerPool`] — bit-identical to
//!   the synchronous path;
//! * [`prefix`] — cross-session prefix KV sharing: publish a common system
//!   prompt once ([`KelleEngine::publish_prefix`]) and every session whose
//!   prompt starts with it replays the shared segment (bit-identical
//!   streams, prefill compute skipped, ledger bytes charged once);
//! * [`tier`] — the tiered KV memory hierarchy: eDRAM → DRAM → NVMe placement
//!   with watermark-credit eviction, driven by the scheduler as an accounting
//!   and migration-cost overlay
//!   ([`SchedulerConfig::with_tiering`](scheduler::SchedulerConfig::with_tiering))
//!   that leaves token streams bit-identical to an unlimited-eDRAM run;
//! * [`CachePolicy`] — the registry the one KV store is built from, for
//!   each of the paper's five cache policies;
//! * [`accuracy`] — the functional-fidelity experiments behind Tables 2–6 and
//!   Fig. 8;
//! * [`experiment`] — the hardware experiments behind Figs. 3, 13–16 and
//!   Tables 7–9.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accuracy;
pub(crate) mod chaos;
pub mod engine;
pub mod experiment;
pub mod front;
pub mod parallel;
pub mod prefix;
pub mod scheduler;
pub mod session;
pub mod tier;

pub use chaos::{ChaosConfig, ChaosMetrics, ServeError, ShedReason};
pub use engine::{EngineConfig, EngineStats, KelleEngine, ServeOptions, ServeOutcome};
pub use front::{FrontConfig, ServingFront, StreamPoll, TokenStream};
pub use kelle_model::fault::fault_injector_for_policy;
pub use kelle_model::CachePolicy;
pub use parallel::WorkerPool;
pub use prefix::{PrefixKey, PrefixSharingConfig, PrefixStore};
pub use scheduler::{
    AdmissionPolicy, BatchOutcome, BatchReport, BatchScheduler, PrefixBatchMetrics,
    SchedulerConfig, SloReport, SloSpec,
};
pub use session::ServeRequest;
pub use tier::TierConfig;

pub use kelle_arch as arch;
pub use kelle_edram as edram;
pub use kelle_model as model;
pub use kelle_model::cache;
pub use kelle_tensor as tensor;
pub use kelle_workloads as workloads;
