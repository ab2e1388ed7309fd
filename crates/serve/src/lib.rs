//! # nrsnn-serve
//!
//! The inference-serving subsystem of the NRSNN reproduction: a std-only,
//! long-lived service that accepts concurrent classification requests,
//! coalesces them into batched simulations on the allocation-free engine
//! from `nrsnn-snn`, and reports latency/throughput/spike metrics.
//!
//! The paper targets energy-efficient SNN *inference* on deployed
//! neuromorphic substrates; this crate supplies the request/response
//! machinery such a deployment needs around the simulator:
//!
//! * **[`ModelRegistry`]** — named, warm [`ServedModel`]s (converted
//!   network + coding + noise transform + weight scaling), loadable from
//!   binary `NRSM` [`ModelSpec`] files whose parameters reuse the
//!   `NetworkWeights` container from `nrsnn-dnn`;
//! * **dynamic batcher** — a bounded queue ([`ServeError::Busy`]
//!   backpressure, nothing dropped silently) drained by a
//!   [`nrsnn_runtime::WorkerPool`]; each worker owns one reusable
//!   `SimWorkspace` and turns the same-model requests it claims into one
//!   batched simulation call (see [`ServerConfig`] for the window/size
//!   policy);
//! * **front-ends** — the in-process [`Client`] and a
//!   [`std::net::TcpListener`] endpoint speaking newline-delimited JSON
//!   ([`protocol`]) or binary frames ([`binary`]), with graceful
//!   [`Server::shutdown`];
//! * **metrics** — [`ServerStats`] (requests served, batch-size histogram,
//!   p50/p99/p999 latency, per-stage latency, spikes per inference) via
//!   [`Client::stats`] or the wire-level `stats` request, aggregated from
//!   per-worker sharded sinks only at snapshot time;
//! * **tracing** — every reply carries a trace id resolving to a per-stage
//!   timeline ([`RequestTrace`]) in a preallocated flight recorder, fetched
//!   via [`Client::trace`] or the wire-level `trace` request (slow and
//!   failed requests are retained as outliers).
//!
//! ## Determinism contract
//!
//! A request is simulated with a fresh RNG seeded
//! `derive_seed(model.master_seed, request.seed)` — a pure function of the
//! model and the request.  The reply's logits are therefore **byte-identical**
//! to the offline single-threaded `SnnNetwork::simulate_with` path with the
//! same derived seed, regardless of batch companions, queue order or worker
//! count.
//!
//! ## Example
//!
//! ```
//! use nrsnn_serve::{ModelRegistry, NoiseSpec, ServedModel, Server, ServerConfig};
//! use nrsnn_snn::{CodingConfig, CodingKind, SnnLayer, SnnNetwork};
//! use nrsnn_tensor::Tensor;
//!
//! # fn main() -> Result<(), nrsnn_serve::ServeError> {
//! let network = SnnNetwork::new(vec![SnnLayer::Linear {
//!     weights: Tensor::eye(2),
//!     bias: Tensor::zeros(&[2]),
//! }])
//! .map_err(|e| nrsnn_serve::ServeError::Model(e.to_string()))?;
//! let mut registry = ModelRegistry::new();
//! registry.insert(ServedModel::new(
//!     "demo",
//!     network,
//!     CodingKind::Rate,
//!     CodingConfig::new(32, 1.0),
//!     NoiseSpec::Clean,
//!     1.0,
//!     0,
//! )?)?;
//!
//! let server = Server::start(registry, ServerConfig::default())?;
//! let client = server.client();
//! let reply = client.infer("demo", &[0.9, 0.1], 42)?;
//! assert_eq!(reply.predicted, 0);
//! assert_eq!(client.stats().requests_served, 1);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod batcher;
pub mod binary;
mod error;
mod metrics;
mod model;
pub mod protocol;
mod registry;
mod server;

pub use batcher::ServerConfig;
pub use error::ServeError;
pub use model::{build_noise, ModelSpec, ServedModel};
pub use nrsnn_wire::{LayerSpec, NoiseSpec};
pub use protocol::{
    InferenceReply, Request, RequestTrace, Response, ServerStats, StageLatency, TraceSpan,
};
pub use registry::ModelRegistry;
pub use server::{Client, Server, TcpClient, RETRY_BUDGET};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ServeError>;
