//! # nrsnn-snn
//!
//! The spiking-neural-network substrate of the NRSNN reproduction:
//!
//! * [`SpikeRaster`] — per-neuron spike trains over a fixed time window;
//! * the [`NeuralCoding`] trait with the five codings studied in the paper:
//!   [`RateCoding`], [`PhaseCoding`], [`BurstCoding`], [`TtfsCoding`] and the
//!   proposed [`TtasCoding`] (time-to-average-spike, built on a simplified
//!   integrate-and-fire-or-burst neuron);
//! * DNN-to-SNN conversion with data-based threshold balancing
//!   ([`ThresholdBalancer`], [`convert`]);
//! * a layer-sequential clock-driven simulator ([`SnnNetwork`]) that injects
//!   synaptic spike noise between layers through the [`SpikeTransform`] hook
//!   (implemented by `nrsnn-noise`).
//!
//! ## Simulation model
//!
//! The simulator is *layer-sequential*: each layer receives the (noisy)
//! spike raster emitted by the previous layer over the full `T`-step window,
//! integrates it through the coding's post-synaptic-current kernel, applies
//! the converted weights, and re-encodes the resulting activations as the
//! raster for the next layer.  This is the pipelined window-per-layer scheme
//! used by conversion approaches with temporal coding (phase coding and
//! T2FSNN assign per-layer time windows) and it preserves exactly the
//! phenomena the paper studies: how much information a deleted or jittered
//! spike destroys under each coding.  See `DESIGN.md` §5.
//!
//! ## Example
//!
//! ```
//! use nrsnn_snn::{CodingConfig, NeuralCoding, TtfsCoding};
//!
//! let cfg = CodingConfig::new(64, 1.0);
//! let coding = TtfsCoding::new();
//! let spikes = coding.encode(0.5, &cfg);
//! assert_eq!(spikes.len(), 1); // TTFS uses a single spike
//! let decoded = coding.decode(&spikes, &cfg);
//! assert!((decoded - 0.5).abs() < 0.1);
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod coding;
mod config;
mod conversion;
mod error;
mod network;
mod neuron;
mod spike;
mod workspace;

pub use coding::{
    BurstCoding, CodingKind, CodingScratch, NeuralCoding, PhaseCoding, RateCoding, TtasCoding,
    TtfsCoding,
};
pub use config::CodingConfig;
pub use conversion::{convert, ConversionConfig, ThresholdBalancer};
pub use error::SnnError;
pub use network::{
    EvaluationSummary, IdentityTransform, SimulationOutcome, SnnLayer, SnnNetwork, SpikeTransform,
};
pub use neuron::{IfNeuron, IfbNeuron, ResetKind};
pub use spike::SpikeRaster;
pub use workspace::{BatchOutcome, SimStage, SimWorkspace, StageEvent};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SnnError>;
