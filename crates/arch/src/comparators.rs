//! External accelerator comparators (Fig. 14).
//!
//! §8.2 compares Kelle against four systems that attack different parts of the
//! LLM serving pipeline:
//!
//! * **Jetson Orin** — an edge GPU running the model in FP8; the reference
//!   point of Fig. 14.
//! * **LLM.npu** — NPU offloading that accelerates the *pre-fill* stage by
//!   restructuring prompts/models; decode-stage KV traffic is untouched.
//! * **DynaX** — dynamic fine-grained structured sparsity (~90 % attention
//!   sparsity) that also mainly helps the compute-bound pre-fill stage.
//! * **COMET** — W4A4/KV4 quantization with high-performance mixed-precision
//!   kernels (configured here as W8 + 4-bit KV to match Kelle's storage
//!   budget, per §8.2), which shrinks KV traffic but has no dedicated KV
//!   management hardware.
//!
//! Each comparator is modelled as a set of first-order modifiers applied to
//! the same step-level traffic/compute accounting used for
//! [`Platform`](crate::Platform): an
//! effective memory bandwidth, a compute throughput, a pre-fill speedup
//! factor, a KV-bit width and an energy-per-byte/per-MAC scale.

use crate::platform::{EnergyBreakdown, PhaseMetrics, PlatformReport};
use crate::workload::InferenceWorkload;
use kelle_model::ModelConfig;

/// Which external accelerator is being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComparatorKind {
    /// NVIDIA Jetson Orin edge GPU (FP8).
    JetsonOrin,
    /// LLM.npu NPU-offloading system.
    LlmNpu,
    /// DynaX sparse-attention accelerator.
    DynaX,
    /// COMET mixed-precision (4-bit KV) GPU kernels.
    Comet,
}

impl ComparatorKind {
    /// All comparators in the order of Fig. 14.
    pub fn all() -> [ComparatorKind; 4] {
        [
            ComparatorKind::JetsonOrin,
            ComparatorKind::LlmNpu,
            ComparatorKind::DynaX,
            ComparatorKind::Comet,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ComparatorKind::JetsonOrin => "Jetson",
            ComparatorKind::LlmNpu => "LLM.npu",
            ComparatorKind::DynaX => "DynaX",
            ComparatorKind::Comet => "COMET",
        }
    }
}

/// First-order model of an external accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparator {
    /// Which system this models.
    pub(crate) kind: ComparatorKind,
    /// Effective memory bandwidth in bytes per second.
    pub(crate) bandwidth_bytes_per_s: f64,
    /// Effective compute throughput in MACs per second.
    pub(crate) compute_macs_per_s: f64,
    /// Multiplicative speedup applied to the pre-fill phase only.
    pub(crate) prefill_speedup: f64,
    /// Fraction of attention MACs that survive sparsification (1.0 = dense).
    pub(crate) attention_density: f64,
    /// Weight precision in bits.
    pub(crate) weight_bits: u32,
    /// KV-cache precision in bits.
    pub(crate) kv_bits: u32,
    /// Energy per byte of memory traffic in joules.
    pub(crate) energy_per_byte_j: f64,
    /// Energy per MAC in joules.
    pub(crate) energy_per_mac_j: f64,
    /// Idle/system power in watts.
    pub(crate) system_power_w: f64,
}

impl Comparator {
    /// Builds the model for one of the compared systems.
    pub fn preset(kind: ComparatorKind) -> Self {
        match kind {
            // Jetson Orin NX class: ~102 GB/s LPDDR5, ~50 INT8 TOPS dense
            // usable for GEMM, FP8 weights, 15-25 W module power.
            ComparatorKind::JetsonOrin => Comparator {
                kind,
                bandwidth_bytes_per_s: 102.0e9,
                compute_macs_per_s: 25.0e12,
                prefill_speedup: 1.0,
                attention_density: 1.0,
                weight_bits: 8,
                kv_bits: 16,
                energy_per_byte_j: 450.0e-12,
                energy_per_mac_j: 1.2e-12,
                system_power_w: 15.0,
            },
            // LLM.npu: NPU offloading cuts pre-fill latency substantially but
            // leaves decode-time KV traffic untouched.
            ComparatorKind::LlmNpu => Comparator {
                kind,
                bandwidth_bytes_per_s: 102.0e9,
                compute_macs_per_s: 20.0e12,
                prefill_speedup: 3.0,
                attention_density: 1.0,
                weight_bits: 8,
                kv_bits: 16,
                energy_per_byte_j: 400.0e-12,
                energy_per_mac_j: 0.9e-12,
                system_power_w: 12.0,
            },
            // DynaX: 90 % attention sparsity accelerates score computation;
            // decode remains bandwidth-limited by weights + KV.
            ComparatorKind::DynaX => Comparator {
                kind,
                bandwidth_bytes_per_s: 102.0e9,
                compute_macs_per_s: 20.0e12,
                prefill_speedup: 2.2,
                attention_density: 0.1,
                weight_bits: 8,
                kv_bits: 16,
                energy_per_byte_j: 400.0e-12,
                energy_per_mac_j: 0.9e-12,
                system_power_w: 12.0,
            },
            // COMET: 4-bit KV cache and efficient mixed-precision kernels on a
            // GPU-class memory system.
            ComparatorKind::Comet => Comparator {
                kind,
                bandwidth_bytes_per_s: 102.0e9,
                compute_macs_per_s: 22.0e12,
                prefill_speedup: 1.3,
                attention_density: 1.0,
                weight_bits: 8,
                kv_bits: 4,
                energy_per_byte_j: 400.0e-12,
                energy_per_mac_j: 0.8e-12,
                system_power_w: 12.0,
            },
        }
    }

    /// Simulates a workload on this comparator, producing a report comparable
    /// with [`crate::Platform::simulate`] output.
    pub fn simulate(&self, model: &ModelConfig, workload: &InferenceWorkload) -> PlatformReport {
        let prefill = self.simulate_prefill(model, workload);
        let decode = self.simulate_decode(model, workload);
        PlatformReport {
            platform: self.kind.name().to_string(),
            workload: workload.name,
            prefill,
            decode,
        }
    }

    fn phase(&self, macs: f64, bytes: f64, extra_latency_scale: f64) -> PhaseMetrics {
        let t_mem = bytes / self.bandwidth_bytes_per_s;
        let t_compute = macs / self.compute_macs_per_s;
        let latency = t_mem.max(t_compute) * extra_latency_scale;
        let energy = EnergyBreakdown {
            rsa_j: macs * self.energy_per_mac_j,
            sfu_j: 0.0,
            weight_buffer_j: 0.0,
            kv_buffer_j: 0.0,
            refresh_j: 0.0,
            dram_j: bytes * self.energy_per_byte_j,
            static_j: self.system_power_w * latency,
        };
        PhaseMetrics {
            latency_s: latency,
            energy,
        }
    }

    fn simulate_prefill(&self, model: &ModelConfig, workload: &InferenceWorkload) -> PhaseMetrics {
        let batch = workload.batch as f64;
        let macs = model.prefill_macs(workload.context_len) as f64
            * batch
            * self.attention_density.max(0.5);
        let weight_bytes = model.decoder_weight_params() as f64 * f64::from(self.weight_bits) / 8.0;
        let kv_bytes = model.kv_bytes_total(workload.context_len, self.kv_bits) as f64 * batch;
        self.phase(macs, weight_bytes + kv_bytes, 1.0 / self.prefill_speedup)
    }

    fn simulate_decode(&self, model: &ModelConfig, workload: &InferenceWorkload) -> PhaseMetrics {
        let batch = workload.batch as f64;
        let weight_bytes = model.decoder_weight_params() as f64 * f64::from(self.weight_bits) / 8.0;
        let mut total = PhaseMetrics::default();
        for step in 0..workload.decode_len {
            let seq_len = workload.context_len + step + 1;
            let kv_bytes = model.kv_bytes_total(seq_len, self.kv_bits) as f64 * batch;
            let macs = model.decode_macs(seq_len) as f64 * batch;
            let step_metrics = self.phase(macs, weight_bytes + kv_bytes, 1.0);
            total.latency_s += step_metrics.latency_s;
            total.energy = total.energy.merged(&step_metrics.energy);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kelle_model::ModelKind;

    fn model() -> ModelConfig {
        ModelConfig::for_kind(ModelKind::Llama2_7b)
    }

    #[test]
    fn prefill_optimizers_beat_jetson_on_prefill_only() {
        let m = model();
        let w = InferenceWorkload::long_input(8192, 128);
        let jetson = Comparator::preset(ComparatorKind::JetsonOrin).simulate(&m, &w);
        let npu = Comparator::preset(ComparatorKind::LlmNpu).simulate(&m, &w);
        assert!(npu.prefill.latency_s < jetson.prefill.latency_s);
    }

    #[test]
    fn comet_reduces_decode_traffic() {
        let m = model();
        let w = InferenceWorkload::pg19();
        let jetson = Comparator::preset(ComparatorKind::JetsonOrin).simulate(&m, &w);
        let comet = Comparator::preset(ComparatorKind::Comet).simulate(&m, &w);
        assert!(comet.decode.latency_s < jetson.decode.latency_s);
        assert!(comet.total_energy_j() < jetson.total_energy_j());
    }

    #[test]
    fn all_comparators_produce_reports() {
        let m = model();
        let w = InferenceWorkload::lambada();
        for kind in ComparatorKind::all() {
            let report = Comparator::preset(kind).simulate(&m, &w);
            assert!(report.total_latency_s() > 0.0, "{:?}", kind);
            assert!(report.total_energy_j() > 0.0, "{:?}", kind);
        }
    }

    #[test]
    fn names() {
        assert_eq!(ComparatorKind::JetsonOrin.name(), "Jetson");
        assert_eq!(ComparatorKind::Comet.name(), "COMET");
    }
}
