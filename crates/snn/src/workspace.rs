//! Reusable simulation scratch: the [`SimWorkspace`] threaded through the
//! batched inference engine.
//!
//! One clock-driven SNN inference needs, per layer, a spike raster, a noisy
//! copy of it, a decoded activation vector, a dense output vector and — for
//! convolution layers — the unfolded input the direct convolution kernel
//! reads.  (Without noise the rasters are skipped: each layer is decoded
//! straight from the coding's per-symbol table.)  The original `SnnNetwork::simulate` allocated all of
//! these afresh on every call, which dominated the cost of the paper's
//! `(coding × noise level × sample)` sweep grids.  A `SimWorkspace` owns all
//! of those buffers once; the batched entry points
//! ([`crate::SnnNetwork::simulate_batch`] and friends) clear-and-refill them
//! per sample, so after the first (warm-up) sample the steady-state
//! allocation count per simulated sample is **zero** — verified by the
//! `alloc_regression` integration test.
//!
//! The workspace stores no results that influence later samples: every
//! buffer is fully overwritten before it is read, which is why a workspace
//! can be reused freely across samples, codings, noise models and even
//! differently-scaled networks without affecting the (bit-exact) results.
//!
//! ```
//! use nrsnn_snn::{CodingConfig, RateCoding, SimWorkspace, SnnLayer, SnnNetwork};
//! use nrsnn_snn::IdentityTransform;
//! use nrsnn_tensor::Tensor;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), nrsnn_snn::SnnError> {
//! let net = SnnNetwork::new(vec![SnnLayer::Linear {
//!     weights: Tensor::eye(2),
//!     bias: Tensor::zeros(&[2]),
//! }])?;
//! let cfg = CodingConfig::new(64, 1.0);
//! let mut ws = SimWorkspace::new();
//! let mut rng = StdRng::seed_from_u64(0);
//! let outcome = net.simulate_with(
//!     &[0.9, 0.1],
//!     &RateCoding::new(),
//!     &cfg,
//!     &IdentityTransform,
//!     &mut rng,
//!     &mut ws,
//! )?;
//! assert_eq!(outcome.predicted, 0);
//! assert_eq!(ws.logits().len(), 2);
//! # Ok(())
//! # }
//! ```

// nrsnn-lint: allow(forbidden-api) -- stage tracing needs a raw monotonic
// stamp and snn must stay obs-free (layering); serve converts these spans
// onto the obs epoch at ingest.
use std::time::Instant;

use crate::{CodingConfig, CodingScratch, SnnLayer, SnnNetwork, SpikeRaster};

/// The simulation phase a [`StageEvent`] attributes time to. This is the
/// engine's own vocabulary — deliberately independent of any observability
/// crate, so `nrsnn-snn` stays free of serving-layer dependencies; the
/// serving layer maps these onto its span taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimStage {
    /// Analog-to-spike conversion of a layer's input vector.
    Encode,
    /// Synaptic-noise corruption of a transmitted raster.
    Noise,
    /// Spike-to-analog PSC decode of a received raster.  Reads ~0 on the
    /// clean path (identity noise), where each layer's input is decoded
    /// inside the preceding [`SimStage::Encode`] call
    /// ([`crate::NeuralCoding::encode_decode_into`]) and no raster exists
    /// to decode.
    Decode,
    /// A layer's forward pass.
    Forward,
}

/// One timed phase of the most recent simulation, produced when stage
/// tracing is enabled via [`SimWorkspace::set_stage_tracing`].
///
/// Consecutive events tile the simulation: each event's `start` is the
/// previous event's `end`, so summing durations reconstructs the full
/// simulate time with no gaps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageEvent {
    /// Which phase the time was spent in.
    pub stage: SimStage,
    /// Layer index the phase belongs to (the initial input encode is
    /// layer 0).
    pub layer: u32,
    /// Phase start.
    pub start: Instant,
    /// Phase end.
    pub end: Instant,
    /// Always `false`: every layer has a single forward kernel.  Kept as a
    /// public field because external trace consumers (the `perfbench`
    /// harness) still read it.
    pub sparse: bool,
    /// For [`SimStage::Forward`]: the measured density (fraction of
    /// neurons that fired) of the raster the layer received; `0.0`
    /// otherwise.
    pub density: f32,
}

/// Scratch buffer for the convolution forward pass.
#[derive(Debug, Clone, Default)]
pub(crate) struct ConvScratch {
    /// Unfolded input, `(patch_len x out_positions)` row-major: row
    /// `(ci, ky, kx)` is the input shifted under that patch entry, with
    /// zeros in the padding (see [`nrsnn_tensor::conv2d_bias_slices`]).
    pub(crate) unfold: Vec<f32>,
}

/// Reusable per-inference scratch buffers for the batched simulation engine.
///
/// Create one per worker thread (or one per serial loop), then hand it to
/// [`SnnNetwork::simulate_with`] or [`SnnNetwork::simulate_batch`]; the
/// workspace grows to the largest network/window it has seen and never
/// shrinks, so steady-state simulation performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct SimWorkspace {
    /// One raster per layer: `rasters[i]` is the (clean) raster entering
    /// layer `i`.  Built only under noise: with an identity transform
    /// each layer is decoded from the coding's per-symbol table and this
    /// pool is never touched.  Keeping them per layer — instead of ping-ponging one
    /// buffer through widths that alternate every layer — is what lets the
    /// per-neuron spike buffers reach a fixed point after warm-up: a
    /// `Vec<Vec<u32>>` that shrank would drop its tail buffers and have to
    /// reallocate them on the next sample.
    pub(crate) rasters: Vec<SpikeRaster>,
    /// Per-layer noise-corrupted rasters actually received by each layer;
    /// untouched, like [`SimWorkspace::rasters`], when the transform
    /// reports itself as the identity.
    pub(crate) received: Vec<SpikeRaster>,
    /// PSC-decoded activations entering the current layer.
    pub(crate) decoded: Vec<f32>,
    /// Reusable decode scratch handed to
    /// [`crate::NeuralCoding::decode_into`] (e.g. TTAS tabulates its PSC
    /// kernel in here once per raster instead of exp-ing per spike).
    pub(crate) decode_scratch: Vec<f32>,
    /// Reusable SoA scratch handed to
    /// [`crate::NeuralCoding::encode_raster_into`] and
    /// [`crate::NeuralCoding::encode_decode_into`]: the lane-blocked
    /// encoders compute per-neuron counts/ratios/bit patterns in here 8
    /// lanes at a time, then either materialise the spike trains or, on
    /// the clean path, look each neuron up in the per-symbol decode table
    /// kept in here too.
    pub(crate) encode_scratch: CodingScratch,
    /// Measured input density (fraction of neurons that fired) of each
    /// layer's received raster in the most recent simulation.
    pub(crate) density_per_layer: Vec<f32>,
    /// Dense output of the current layer; after a simulation this holds the
    /// logits of the output layer.
    pub(crate) activation: Vec<f32>,
    /// Convolution scratch (empty for pure-MLP networks).
    pub(crate) conv: ConvScratch,
    /// Transmitted spike count per raster, input raster first.
    pub(crate) spikes_per_layer: Vec<usize>,
    /// Per-phase timing of the most recent simulation; only filled when
    /// `trace_enabled` is set, cleared at the start of every sample.
    pub(crate) stage_events: Vec<StageEvent>,
    /// Whether `simulate_core` should timestamp its phases. Off by
    /// default: the simulation sweep paths pay zero instrumentation cost.
    pub(crate) trace_enabled: bool,
}

impl SimWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        SimWorkspace::default()
    }

    /// Creates a workspace with capacity pre-reserved for simulating
    /// `network` under `cfg`, so even the first sample allocates (almost)
    /// nothing.
    pub fn for_network(network: &SnnNetwork, cfg: &CodingConfig) -> Self {
        let mut ws = SimWorkspace::new();
        let mut max_width = network.input_width();
        for layer in network.layers() {
            max_width = max_width.max(layer.output_width());
            if let SnnLayer::Conv { geometry, .. } = layer {
                let len = geometry.patch_len() * geometry.out_positions();
                ws.conv.unfold.reserve(len);
            }
        }
        ws.decoded.reserve(max_width);
        ws.activation.reserve(max_width);
        ws.decode_scratch.reserve(cfg.time_steps as usize);
        ws.encode_scratch.lanes.reserve(max_width);
        ws.encode_scratch.bits.reserve(max_width);
        ws.spikes_per_layer.reserve(network.num_layers());
        ws.density_per_layer.reserve(network.num_layers());
        // One raster pair per layer, sized for that layer's input width;
        // the per-train spike buffers still grow lazily on the first sample.
        for layer in network.layers() {
            ws.rasters
                .push(SpikeRaster::new(layer.input_width(), cfg.time_steps));
            ws.received
                .push(SpikeRaster::new(layer.input_width(), cfg.time_steps));
        }
        ws
    }

    /// Output-layer activations of the most recent simulation (the logits a
    /// [`crate::SimulationOutcome`] would carry).
    pub fn logits(&self) -> &[f32] {
        &self.activation
    }

    /// Transmitted spikes per raster (input raster first) of the most recent
    /// simulation.
    pub fn spikes_per_layer(&self) -> &[usize] {
        &self.spikes_per_layer
    }

    /// Measured input density per layer (input layer first) of the most
    /// recent simulation: the fraction of each received raster's neurons
    /// that fired at all.
    pub fn density_per_layer(&self) -> &[f32] {
        &self.density_per_layer
    }

    /// Enables or disables per-phase stage timing. When enabled, every
    /// simulation fills [`SimWorkspace::stage_events`] with one
    /// [`StageEvent`] per encode/noise/decode/forward phase. Tracing never
    /// touches the RNG stream, so results are bit-identical either way.
    pub fn set_stage_tracing(&mut self, enabled: bool) {
        self.trace_enabled = enabled;
        if enabled && self.stage_events.capacity() == 0 {
            // Enough for a deep network without a warm-up allocation:
            // at most 4 phases per layer.
            self.stage_events.reserve(64);
        }
    }

    /// Whether per-phase stage timing is enabled.
    pub fn stage_tracing(&self) -> bool {
        self.trace_enabled
    }

    /// Per-phase timing of the most recent simulation (empty unless
    /// tracing is enabled via [`SimWorkspace::set_stage_tracing`]).
    pub fn stage_events(&self) -> &[StageEvent] {
        &self.stage_events
    }
}

/// Compact per-sample result of the batched simulation path.
///
/// Unlike [`crate::SimulationOutcome`] this is `Copy` and carries no owned
/// buffers — the logits and per-layer spike counts of the *last* simulated
/// sample remain readable from the workspace via [`SimWorkspace::logits`]
/// and [`SimWorkspace::spikes_per_layer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Index of the winning output neuron.
    pub predicted: usize,
    /// Total number of transmitted spikes across all rasters (after noise).
    pub total_spikes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IdentityTransform, RateCoding};
    use nrsnn_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_network() -> SnnNetwork {
        SnnNetwork::new(vec![SnnLayer::Linear {
            weights: Tensor::from_vec(vec![1.0, -1.0, -1.0, 1.0], &[2, 2]).unwrap(),
            bias: Tensor::zeros(&[2]),
        }])
        .unwrap()
    }

    #[test]
    fn for_network_presizes_and_simulates() {
        let net = toy_network();
        let cfg = CodingConfig::new(32, 1.0);
        let mut ws = SimWorkspace::for_network(&net, &cfg);
        assert_eq!(ws.rasters.len(), 1);
        assert_eq!(ws.rasters[0].num_neurons(), 2);
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = net
            .simulate_with(
                &[0.2, 0.9],
                &RateCoding::new(),
                &cfg,
                &IdentityTransform,
                &mut rng,
                &mut ws,
            )
            .unwrap();
        assert_eq!(outcome.predicted, 1);
        assert_eq!(ws.spikes_per_layer().len(), 1);
        assert_eq!(ws.logits().len(), 2);
    }

    #[test]
    fn workspace_results_do_not_depend_on_prior_contents() {
        let net = toy_network();
        let cfg = CodingConfig::new(48, 1.0);
        let coding = RateCoding::new();
        let mut fresh = SimWorkspace::new();
        let mut reused = SimWorkspace::new();
        // Dirty the reused workspace with a different input first.
        let mut rng = StdRng::seed_from_u64(7);
        net.simulate_with(
            &[0.7, 0.7],
            &coding,
            &cfg,
            &IdentityTransform,
            &mut rng,
            &mut reused,
        )
        .unwrap();
        for input in [[0.9f32, 0.1], [0.3, 0.4]] {
            let mut rng_a = StdRng::seed_from_u64(3);
            let mut rng_b = StdRng::seed_from_u64(3);
            let a = net
                .simulate_with(
                    &input,
                    &coding,
                    &cfg,
                    &IdentityTransform,
                    &mut rng_a,
                    &mut fresh,
                )
                .unwrap();
            let b = net
                .simulate_with(
                    &input,
                    &coding,
                    &cfg,
                    &IdentityTransform,
                    &mut rng_b,
                    &mut reused,
                )
                .unwrap();
            assert_eq!(a, b);
            assert_eq!(fresh.logits(), reused.logits());
            assert_eq!(fresh.spikes_per_layer(), reused.spikes_per_layer());
        }
    }
}
