//! # kelle-arch
//!
//! Analytical performance and energy model of the Kelle edge accelerator (§5)
//! and of the baseline platforms it is evaluated against (§8).
//!
//! The model is phase-level: for each pre-fill and decoding step it accounts
//! for
//!
//! * compute time/energy on the reconfigurable systolic array ([`systolic`])
//!   and the special-function unit ([`sfu`]),
//! * on-chip traffic to the weight SRAM and the KV memory (SRAM or banked
//!   eDRAM, [`memory`]),
//! * off-chip LPDDR4 traffic for weights and KV overflow,
//! * eDRAM refresh energy under the configured refresh policy and scheduler
//!   ([`kelle_edram`] + `scheduler`),
//! * the systolic evictor's cost/benefit (`evictor`),
//!
//! and rolls them up into a [`platform::PlatformReport`] with the same energy
//! breakdown categories the paper plots (Figs. 3c, 13, 15, 16).
//!
//! Absolute nanoseconds and joules come from the paper's own Table 1 / §8
//! constants, so ratios between platforms (speedup, energy efficiency) are the
//! quantities to compare against the paper; see `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub(crate) mod area;
pub(crate) mod comparators;
pub(crate) mod evictor;
pub mod memory;
pub mod platform;
pub(crate) mod roofline;
pub(crate) mod scheduler;
pub mod sfu;
pub mod systolic;
pub(crate) mod workload;

pub use area::{AreaBreakdown, PowerBreakdown};
pub use comparators::{Comparator, ComparatorKind};
pub use evictor::SystolicEvictor;
pub use memory::MemorySubsystem;
pub use platform::{CachePolicyKind, PhaseMetrics, Platform, PlatformKind, PlatformReport};
pub use roofline::{RooflineModel, RooflinePoint};
pub use scheduler::SchedulerKind;
pub use workload::InferenceWorkload;
