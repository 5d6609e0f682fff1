//! # kelle-workloads
//!
//! Synthetic workload and dataset generators standing in for the evaluation
//! suites of the Kelle paper (WikiText-2, PG19, PIQA, Lambada, ARC, TriviaQA,
//! Qasper, CNN/DailyMail, TruthfulQA, BBQ).
//!
//! The real datasets cannot be shipped here; what the experiments actually
//! need from them is (a) token streams with realistic length statistics and a
//! skewed token distribution, and (b) per-task reference scores for the FP16
//! baseline so that fidelity-proxy degradations can be reported on the same
//! scale as the paper's tables.  [`TaskKind`] provides the catalogue and
//! reference numbers; [`TokenStreamGenerator`] produces deterministic synthetic
//! prompts with attention-sink and heavy-hitter structure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod generator;
pub(crate) mod scenario;
pub(crate) mod task;
pub mod trace;

pub use generator::TokenStreamGenerator;
pub use scenario::SharedPromptScenario;
pub use task::{TaskKind, TaskMetric};
pub use trace::{PrefixHierarchy, SessionArchetype, Trace, TraceConfig, TraceEngine};
