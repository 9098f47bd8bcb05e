//! Autoregressive decoder processing (paper §4.4).
//!
//! Decoding generates one token at a time, so every stage degenerates from
//! GEMM to GEMV: arithmetic intensity collapses and performance becomes
//! *memory-bound* — the weights and the growing K/V cache must stream from
//! DRAM for a single query row. The paper's point is that detection still
//! pays off in this regime: filtering the attention graph removes most of
//! the K/V-cache traffic, which is the part of decode bandwidth that grows
//! with context length.

use crate::energy;
use crate::{AccelConfig, EnergyBreakdown};
use dota_transformer::TransformerConfig;

/// Bytes per FX16 value streamed from DRAM.
const BYTES: u64 = 2;

/// DRAM-traffic cost of decode steps: the layer weights stream once per
/// step, and K/V-cache traffic scales with the cached connections the
/// step's attention actually touched. [`simulate_decode`] and the
/// serving layer's continuous-batching scheduler both price steps with
/// it; each supplies its own attended-connection counts.
#[derive(Debug, Clone)]
pub struct DecodeCost {
    /// Weight traffic of one step in bytes (all layers: QKV + output + FFN).
    pub weight_bytes: u64,
    /// DRAM bytes fetched per attended connection (one K and one V vector
    /// of `head_dim` FX16 values).
    pub kv_bytes_per_connection: u64,
    /// Sustained DRAM bandwidth in bytes per cycle (1 GHz clock).
    pub bw: f64,
}

impl DecodeCost {
    /// Builds the model for an accelerator configuration and model shape.
    pub fn new(accel: &AccelConfig, model: &TransformerConfig) -> Self {
        let d = model.d_model as u64;
        let d_ff = model.d_ff as u64;
        Self {
            weight_bytes: model.n_layers as u64 * (4 * d * d + 2 * d * d_ff) * BYTES,
            kv_bytes_per_connection: 2 * model.head_dim() as u64 * BYTES,
            bw: accel.dram_gbps,
        }
    }

    /// Cycles to stream the layer weights once (paid once per step,
    /// independent of how many sequences the step decodes).
    pub fn weight_cycles(&self) -> u64 {
        (self.weight_bytes as f64 / self.bw).ceil() as u64
    }

    /// Cycles to stream one sequence's K/V traffic for a step in which its
    /// attention touched `attended` cached connections (summed over all
    /// layers and heads).
    pub fn kv_cycles(&self, attended: u64) -> u64 {
        ((attended * self.kv_bytes_per_connection) as f64 / self.bw).ceil() as u64
    }

    /// Total cycles of one step: one weight stream plus every decoded
    /// sequence's K/V traffic.
    pub fn step_cycles(&self, attended: impl IntoIterator<Item = u64>) -> u64 {
        let mut cycles = self.weight_cycles();
        for a in attended {
            cycles += self.kv_cycles(a);
        }
        cycles
    }

    /// Rough dense per-token service-cycle estimate for one sequence in a
    /// batch of `occupancy`, attending over `context` cached positions:
    /// its share of the weight stream plus its own dense K/V traffic.
    pub fn per_token_estimate(
        &self,
        model: &TransformerConfig,
        occupancy: usize,
        context: usize,
    ) -> f64 {
        let connections = (model.n_layers * model.n_heads * context) as u64;
        self.weight_cycles() as f64 / occupancy.max(1) as f64
            + (connections * self.kv_bytes_per_connection) as f64 / self.bw
    }

    /// Converts cycles on the model clock to microseconds.
    pub fn cycles_to_us(cycles: u64) -> f64 {
        cycles as f64 / (energy::FREQ_GHZ * 1e3)
    }
}

/// Result of simulating one autoregressive generation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecodeReport {
    /// Total cycles for all generated tokens.
    pub cycles: u64,
    /// Cycles spent streaming weights (invariant per token).
    pub weight_stream_cycles: u64,
    /// Cycles spent streaming the K/V cache (grows with context).
    pub kv_stream_cycles: u64,
    /// Total energy breakdown.
    pub energy: EnergyBreakdown,
    /// Retention the attention stage executed at.
    pub retention: f64,
}

impl DecodeReport {
    /// Wall-clock seconds at the modeled frequency.
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / (energy::FREQ_GHZ * 1e9)
    }

    /// Mean latency per generated token, in microseconds.
    pub fn us_per_token(&self, tokens: usize) -> f64 {
        self.seconds() * 1e6 / tokens.max(1) as f64
    }
}

/// Simulates generating `gen_tokens` tokens after a `prompt_len`-token
/// prompt, keeping `retention` of K/V-cache attention connections per step.
///
/// Per token, the work is:
///
/// * weight streaming: all layer weights (QKV + output + FFN) read once —
///   decode is too small to amortize them on chip;
/// * GEMV compute: `8·d² + 2·d·d_ff`-ish MACs, always bandwidth-shadowed;
/// * K/V cache traffic: with detection, only `retention · context` cached
///   key/value vectors are fetched per head (plus the low-rank estimate's
///   own footprint); dense attention fetches all of them.
///
/// # Panics
///
/// Panics if `retention` is outside `(0, 1]` or `gen_tokens == 0`.
pub fn simulate_decode(
    cfg: &AccelConfig,
    model: &TransformerConfig,
    prompt_len: usize,
    gen_tokens: usize,
    retention: f64,
    sigma: f64,
) -> DecodeReport {
    let _prof = dota_prof::span("accel.simulate_decode");
    assert!(
        retention > 0.0 && retention <= 1.0,
        "retention {retention} out of range"
    );
    assert!(gen_tokens > 0, "must generate at least one token");
    let cost = DecodeCost::new(cfg, model);
    let d = model.d_model as u64;
    let d_ff = model.d_ff as u64;
    let hd = model.head_dim() as u64;
    let heads = model.n_heads as u64;
    let layers = model.n_layers as u64;

    let weight_stream_cycles = cost.weight_cycles() * gen_tokens as u64;
    let mut kv_stream_cycles = 0u64;
    let mut macs: u64 = 0;
    let mut detect_macs: u64 = 0;
    let mut kv_bytes_total: u64 = 0;

    for t in 0..gen_tokens {
        // The context before this step's token is appended.
        let context = (prompt_len + t) as u64;
        // K/V fetch: each layer/head touches `retention * context` cached
        // K and V vectors.
        let kept = ((retention * context as f64).ceil() as u64).max(1);
        let attended = layers * heads * kept;
        kv_bytes_total += attended * cost.kv_bytes_per_connection;
        kv_stream_cycles += cost.kv_cycles(attended);
        // Compute (always shadowed by memory in this regime, but counted
        // for energy).
        macs += layers * (4 * d * d + 2 * d * d_ff) + layers * heads * 2 * kept * hd;
        if sigma > 0.0 {
            let k_rank = ((hd as f64 * sigma).floor() as u64).max(1);
            detect_macs += layers * heads * (d * k_rank + 2 * k_rank * k_rank + context * k_rank);
        }
    }

    let cycles = weight_stream_cycles + kv_stream_cycles;
    let seconds = cycles as f64 / 1e9;
    let energy = EnergyBreakdown {
        rmmu_pj: macs as f64 * energy::mac_pj(dota_quant::Precision::Fx16)
            + detect_macs as f64 * energy::mac_pj(cfg.detect_precision),
        mfu_pj: 0.0,
        scheduler_pj: 0.0,
        accumulator_pj: 0.0,
        sram_pj: 0.0,
        dram_pj: (cost.weight_bytes * gen_tokens as u64 + kv_bytes_total) as f64
            * energy::DRAM_PJ_PER_BYTE,
        leakage_pj: energy::SRAM_LEAKAGE_MW * 1e-3 * seconds * 1e12,
    };

    if dota_trace::enabled() {
        dota_trace::count("decode.tokens", gen_tokens as u64);
        dota_trace::count("decode.cycles", cycles);
        dota_trace::count("decode.weight_stream_cycles", weight_stream_cycles);
        dota_trace::count("decode.kv_stream_cycles", kv_stream_cycles);
        dota_trace::count("decode.weight_bytes", cost.weight_bytes * gen_tokens as u64);
        dota_trace::count("decode.kv_bytes", kv_bytes_total);
        dota_trace::count("decode.macs_fx16", macs);
        dota_trace::count("decode.macs_detect", detect_macs);
    }

    DecodeReport {
        cycles,
        weight_stream_cycles,
        kv_stream_cycles,
        energy,
        retention,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpt2_small() -> TransformerConfig {
        TransformerConfig::gpt2(4096)
    }

    #[test]
    fn decode_is_memory_bound_and_detection_helps() {
        let cfg = AccelConfig::default();
        let model = gpt2_small();
        let dense = simulate_decode(&cfg, &model, 2048, 64, 1.0, 0.0);
        let sparse = simulate_decode(&cfg, &model, 2048, 64, 0.1, 0.2);
        // Detection removes most K/V traffic...
        assert!(
            sparse.kv_stream_cycles < dense.kv_stream_cycles / 5,
            "kv cycles {} vs {}",
            sparse.kv_stream_cycles,
            dense.kv_stream_cycles
        );
        // ...but weight streaming is unchanged (Amdahl in the memory domain).
        assert_eq!(sparse.weight_stream_cycles, dense.weight_stream_cycles);
        assert!(sparse.cycles < dense.cycles);
    }

    #[test]
    fn kv_traffic_grows_with_context() {
        let cfg = AccelConfig::default();
        let model = gpt2_small();
        let short = simulate_decode(&cfg, &model, 256, 32, 1.0, 0.0);
        let long = simulate_decode(&cfg, &model, 3500, 32, 1.0, 0.0);
        assert!(long.kv_stream_cycles > 5 * short.kv_stream_cycles);
        assert_eq!(long.weight_stream_cycles, short.weight_stream_cycles);
    }

    #[test]
    fn per_token_latency_reasonable() {
        // GPT-2-class decode on a 128 GB/s interface: weights ~170 MB per
        // token → ~1.3 ms/token; sparse attention barely adds to that.
        let cfg = AccelConfig::default();
        let rep = simulate_decode(&cfg, &gpt2_small(), 1024, 16, 0.1, 0.2);
        let us = rep.us_per_token(16);
        assert!(us > 100.0 && us < 10_000.0, "{us} us/token");
    }

    #[test]
    fn energy_accounts_dram_dominance() {
        let cfg = AccelConfig::default();
        let rep = simulate_decode(&cfg, &gpt2_small(), 2048, 8, 1.0, 0.0);
        assert!(
            rep.energy.dram_pj > rep.energy.rmmu_pj,
            "decode should be memory-energy dominated"
        );
    }

    #[test]
    #[should_panic(expected = "retention")]
    fn rejects_bad_retention() {
        let _ = simulate_decode(&AccelConfig::default(), &gpt2_small(), 10, 1, 0.0, 0.0);
    }

    /// `kv_stream_cycles` follows its closed form exactly: per generated
    /// token, each layer/head fetches `max(1, ceil(retention * context))`
    /// K and V vectors of `head_dim` FX16 values, rounded up to whole
    /// DRAM-bandwidth cycles per step. Serving prices its steps with the
    /// same [`DecodeCost`], so this is pinned, not approximated.
    #[test]
    fn kv_stream_cycles_match_closed_form() {
        let cfg = AccelConfig::default();
        let model = TransformerConfig::tiny_causal(64, 16);
        let (layers, heads, hd) = (
            model.n_layers as u64,
            model.n_heads as u64,
            model.head_dim() as u64,
        );
        let (prompt, gen) = (11usize, 7usize);
        for retention in [1.0, 0.5, 0.25, 0.125] {
            let rep = simulate_decode(&cfg, &model, prompt, gen, retention, 0.0);
            let mut expect_kv = 0u64;
            for t in 0..gen {
                let context = (prompt + t) as u64;
                let kept = ((retention * context as f64).ceil() as u64).max(1);
                let kv_bytes = layers * heads * kept * 2 * hd * 2;
                expect_kv += (kv_bytes as f64 / cfg.dram_gbps).ceil() as u64;
            }
            assert_eq!(
                rep.kv_stream_cycles, expect_kv,
                "retention {retention}: kv accounting drifted from closed form"
            );
        }
    }

    /// Weight streaming is exactly one full weight read per generated
    /// token, and total cycles decompose as weights + K/V with nothing
    /// hidden in between.
    #[test]
    fn cycles_decompose_into_weight_plus_kv() {
        let cfg = AccelConfig::default();
        for (model, prompt, gen) in [
            (TransformerConfig::tiny_causal(64, 16), 9usize, 5usize),
            (gpt2_small(), 1024, 16),
        ] {
            let d = model.d_model as u64;
            let weight_bytes = model.n_layers as u64 * (4 * d * d + 2 * d * model.d_ff as u64) * 2;
            let per_token = (weight_bytes as f64 / cfg.dram_gbps).ceil() as u64;
            for retention in [1.0, 0.25] {
                let rep = simulate_decode(&cfg, &model, prompt, gen, retention, 0.0);
                assert_eq!(rep.weight_stream_cycles, per_token * gen as u64);
                assert_eq!(rep.cycles, rep.weight_stream_cycles + rep.kv_stream_cycles);
            }
        }
    }

    /// K/V traffic scales (almost) linearly with retention: the ceil per
    /// step adds at most one kept vector, so at long context the ratio
    /// brackets the retention tightly and is monotone down the ladder.
    #[test]
    fn kv_cycles_scale_linearly_with_retention() {
        let cfg = AccelConfig::default();
        let model = gpt2_small();
        let dense = simulate_decode(&cfg, &model, 2048, 16, 1.0, 0.0);
        let mut prev = dense.kv_stream_cycles;
        for retention in [0.5, 0.25, 0.125] {
            let rep = simulate_decode(&cfg, &model, 2048, 16, retention, 0.0);
            let ratio = rep.kv_stream_cycles as f64 / dense.kv_stream_cycles as f64;
            assert!(
                (ratio - retention).abs() < 0.01,
                "retention {retention}: kv ratio {ratio}"
            );
            assert!(rep.kv_stream_cycles < prev, "ladder must be monotone");
            prev = rep.kv_stream_cycles;
        }
    }

    fn cost_setup() -> (DecodeCost, TransformerConfig) {
        let model = TransformerConfig::tiny_causal(48, 16);
        (DecodeCost::new(&AccelConfig::default(), &model), model)
    }

    #[test]
    fn weight_stream_is_paid_once_per_step() {
        let (cost, _) = cost_setup();
        let solo = cost.step_cycles([100]);
        let batch = cost.step_cycles([100, 100, 100, 100]);
        // Four members cost far less than four solo steps.
        assert!(batch < 4 * solo, "batch {batch} vs 4x solo {}", 4 * solo);
        assert_eq!(
            batch - cost.weight_cycles(),
            4 * (solo - cost.weight_cycles())
        );
    }

    #[test]
    fn kv_cycles_scale_with_attended_connections() {
        let (cost, _) = cost_setup();
        let sparse = cost.kv_cycles(50);
        let dense = cost.kv_cycles(400);
        assert!(dense >= 8 * sparse - 8, "{dense} vs {sparse}");
        assert_eq!(cost.kv_cycles(0), 0);
    }

    #[test]
    fn estimate_brackets_actual_dense_step_share() {
        let (cost, model) = cost_setup();
        let context = 24;
        let attended = (model.n_layers * model.n_heads * context) as u64;
        let occupancy = 8;
        let est = cost.per_token_estimate(&model, occupancy, context);
        let actual_share =
            cost.weight_cycles() as f64 / occupancy as f64 + cost.kv_cycles(attended) as f64;
        assert!((est - actual_share).abs() <= 1.0, "{est} vs {actual_share}");
    }

    #[test]
    fn cycles_to_us_uses_model_clock() {
        assert_eq!(DecodeCost::cycles_to_us(1000), 1.0);
    }
}
