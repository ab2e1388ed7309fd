//! Model specifications and their warm, servable form.
//!
//! A [`ModelSpec`] is the description of one servable SNN that the binary
//! `NRSM` model file carries: the converted layer architecture, its
//! parameters (reusing the [`NetworkWeights`] container from `nrsnn-dnn`,
//! in the same weights-then-bias per-layer order), the neural coding, the
//! coding configuration, the deployment noise model and the weight-scaling
//! factor that was folded into the parameters.  [`ModelSpec::build`] turns
//! it into a [`ServedModel`]: the reconstructed [`SnnNetwork`] plus
//! ready-to-use coding and noise objects, kept warm by the registry for the
//! lifetime of the server.

use nrsnn_dnn::NetworkWeights;
use nrsnn_noise::{CompositeNoise, DeletionNoise, JitterNoise};
use nrsnn_snn::{
    CodingConfig, CodingKind, IdentityTransform, NeuralCoding, SnnLayer, SnnNetwork, SpikeTransform,
};
use nrsnn_tensor::{Conv2dGeometry, Pool2dGeometry, Tensor};
use nrsnn_wire::{LayerSpec, ModelRecord, NoiseSpec};

use crate::{Result, ServeError};

/// Builds the runtime transform a noise specification describes.
///
/// # Errors
/// Returns [`ServeError::Model`] for out-of-range parameters or nested
/// composites.
pub fn build_noise(spec: &NoiseSpec) -> Result<Box<dyn SpikeTransform>> {
    match spec {
        NoiseSpec::Clean => Ok(Box::new(IdentityTransform)),
        NoiseSpec::Deletion(p) => Ok(Box::new(DeletionNoise::new(*p)?)),
        NoiseSpec::Jitter(sigma) => Ok(Box::new(JitterNoise::new(*sigma)?)),
        NoiseSpec::Composite(stages) => {
            let mut chain = CompositeNoise::new();
            for stage in stages {
                chain = match stage {
                    NoiseSpec::Clean => chain,
                    NoiseSpec::Deletion(p) => chain.then(DeletionNoise::new(*p)?),
                    NoiseSpec::Jitter(sigma) => chain.then(JitterNoise::new(*sigma)?),
                    NoiseSpec::Composite(_) => {
                        return Err(ServeError::Model(
                            "composite noise stages must be primitive".to_string(),
                        ))
                    }
                };
            }
            Ok(Box::new(chain))
        }
    }
}

/// The description of one servable model (the content of an `NRSM` file).
///
/// The parameters in `weights` are the final (already weight-scaled)
/// converted-SNN tensors, in layer order with weights before bias —
/// exactly the order [`ModelSpec::from_network`] extracts them in.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Registry name clients address the model by.
    pub name: String,
    /// Neural coding used for every layer.
    pub coding: CodingKind,
    /// Simulation window length per layer.
    pub time_steps: u32,
    /// Encoding ceiling θ.
    pub threshold: f32,
    /// TTFS/TTAS PSC time constant as a fraction of the window.
    pub ttfs_tau_fraction: f32,
    /// The weight-scaling factor already folded into `weights` (recorded
    /// for reports; `1.0` means unscaled).
    pub scaling: f32,
    /// Noise transform injected into every transmitted raster.
    pub noise: NoiseSpec,
    /// Master seed mixed with each request's seed via
    /// [`nrsnn_runtime::derive_seed`].
    pub master_seed: u64,
    /// Layer architecture, input layer first.
    pub layers: Vec<LayerSpec>,
    /// Flat parameter list (see the struct docs for the order).
    pub weights: NetworkWeights,
}

impl ModelSpec {
    /// Captures an existing converted network as a servable specification.
    ///
    /// `scaling` records the factor already folded into the network's
    /// weights (use `1.0` for an unscaled conversion).
    pub fn from_network(
        name: impl Into<String>,
        network: &SnnNetwork,
        coding: CodingKind,
        config: &CodingConfig,
        noise: NoiseSpec,
        scaling: f32,
        master_seed: u64,
    ) -> ModelSpec {
        let mut params = Vec::new();
        let mut layers = Vec::with_capacity(network.num_layers());
        for layer in network.layers() {
            layers.push(LayerSpec::of_layer(layer));
            match layer {
                SnnLayer::Linear { weights, bias } | SnnLayer::Conv { weights, bias, .. } => {
                    params.push(weights.clone());
                    params.push(bias.clone());
                }
                SnnLayer::AvgPool { .. } => {}
            }
        }
        ModelSpec {
            name: name.into(),
            coding,
            time_steps: config.time_steps,
            threshold: config.threshold,
            ttfs_tau_fraction: config.ttfs_tau_fraction,
            scaling,
            noise,
            master_seed,
            layers,
            weights: NetworkWeights { params },
        }
    }

    /// The coding configuration this specification describes.
    pub fn coding_config(&self) -> CodingConfig {
        CodingConfig {
            time_steps: self.time_steps,
            threshold: self.threshold,
            ttfs_tau_fraction: self.ttfs_tau_fraction,
        }
    }

    /// Reconstructs the network and warms up the coding and noise objects.
    ///
    /// # Errors
    /// Returns [`ServeError::Model`] if the parameter list does not match
    /// the declared architecture, and propagates geometry/validation
    /// errors.
    pub fn build(&self) -> Result<ServedModel> {
        let expected: usize = self.layers.iter().map(LayerSpec::param_count).sum();
        if self.weights.params.len() != expected {
            return Err(ServeError::Model(format!(
                "model {:?} declares {} parameter tensors but carries {}",
                self.name,
                expected,
                self.weights.params.len()
            )));
        }
        let mut params = self.weights.params.iter();
        let mut take_pair = |what: &str, dims: &[usize]| -> Result<(Tensor, Tensor)> {
            // UNWRAP: infallible — the parameter count was checked against `expected` above.
            let weights = params.next().expect("count checked above").clone();
            // UNWRAP: infallible — same count check covers the bias tensor.
            let bias = params.next().expect("count checked above").clone();
            if weights.dims() != dims {
                return Err(ServeError::Model(format!(
                    "model {:?}: {what} weights have shape {:?}, expected {dims:?}",
                    self.name,
                    weights.dims()
                )));
            }
            if bias.dims() != [dims[0]] {
                return Err(ServeError::Model(format!(
                    "model {:?}: {what} bias has shape {:?}, expected [{}]",
                    self.name,
                    bias.dims(),
                    dims[0]
                )));
            }
            Ok((weights, bias))
        };

        let mut layers = Vec::with_capacity(self.layers.len());
        for spec in &self.layers {
            match *spec {
                LayerSpec::Linear { out, input } => {
                    let (weights, bias) = take_pair("linear", &[out, input])?;
                    layers.push(SnnLayer::Linear { weights, bias });
                }
                LayerSpec::Conv {
                    out_channels,
                    in_channels,
                    in_height,
                    in_width,
                    kernel,
                    stride,
                    padding,
                } => {
                    let geometry = Conv2dGeometry::new(
                        in_channels,
                        in_height,
                        in_width,
                        kernel,
                        stride,
                        padding,
                    )
                    .map_err(|e| ServeError::Model(e.to_string()))?;
                    let (weights, bias) = take_pair("conv", &[out_channels, geometry.patch_len()])?;
                    layers.push(SnnLayer::Conv {
                        weights,
                        bias,
                        geometry,
                    });
                }
                LayerSpec::AvgPool {
                    channels,
                    in_height,
                    in_width,
                    window,
                    stride,
                } => {
                    let geometry =
                        Pool2dGeometry::new(channels, in_height, in_width, window, stride)
                            .map_err(|e| ServeError::Model(e.to_string()))?;
                    layers.push(SnnLayer::AvgPool { geometry });
                }
            }
        }
        let network = SnnNetwork::new(layers).map_err(|e| ServeError::Model(e.to_string()))?;
        // A model file carrying a degenerate coding (e.g. TTAS with a
        // zero-length burst) is rejected here with a typed error instead of
        // being silently coerced into a different coding.
        self.coding
            .validate()
            .map_err(|e| ServeError::Model(e.to_string()))?;
        let config = self.coding_config();
        config
            .validate()
            .map_err(|e| ServeError::Model(e.to_string()))?;
        Ok(ServedModel {
            name: self.name.clone(),
            coding_kind: self.coding,
            coding: self.coding.build(),
            config,
            noise: build_noise(&self.noise)?,
            noise_spec: self.noise.clone(),
            scaling: self.scaling,
            master_seed: self.master_seed,
            network,
        })
    }

    /// Serializes the specification as a binary `nrsnn-wire` model file
    /// image (`NRSM` magic; see `nrsnn_wire::model` for the layout).  The
    /// image is bit-exact: weights travel as raw IEEE bits and the master
    /// seed as a full u64.
    ///
    /// # Errors
    /// Returns [`ServeError::Model`] for specs the format cannot carry
    /// (dimensions above `u32::MAX`, nested composite noise).
    pub fn to_binary(&self) -> Result<Vec<u8>> {
        let record = ModelRecord {
            name: self.name.clone(),
            coding: self.coding,
            time_steps: self.time_steps,
            threshold: self.threshold,
            ttfs_tau_fraction: self.ttfs_tau_fraction,
            scaling: self.scaling,
            noise: self.noise.clone(),
            master_seed: self.master_seed,
            layers: self.layers.clone(),
            weights: self.weights.clone(),
        };
        nrsnn_wire::encode_model(&record).map_err(|e| ServeError::Model(e.to_string()))
    }

    /// Parses a specification from a binary model file image.
    ///
    /// # Errors
    /// Returns [`ServeError::Model`] on any decode failure (bad magic,
    /// unsupported version, truncation, corrupt payload).
    pub fn from_binary(bytes: &[u8]) -> Result<ModelSpec> {
        let record =
            nrsnn_wire::decode_model(bytes).map_err(|e| ServeError::Model(e.to_string()))?;
        Ok(ModelSpec {
            name: record.name,
            coding: record.coding,
            time_steps: record.time_steps,
            threshold: record.threshold,
            ttfs_tau_fraction: record.ttfs_tau_fraction,
            scaling: record.scaling,
            noise: record.noise,
            master_seed: record.master_seed,
            layers: record.layers,
            weights: record.weights,
        })
    }
}

/// A model kept warm by the registry: the reconstructed network plus
/// ready-built coding and noise objects.
pub struct ServedModel {
    /// Registry name.
    pub name: String,
    /// The coding kind tag (for reports and stats).
    pub coding_kind: CodingKind,
    /// The warm coding object.
    pub coding: Box<dyn NeuralCoding>,
    /// Shared coding configuration.
    pub config: CodingConfig,
    /// The warm noise transform.
    pub noise: Box<dyn SpikeTransform>,
    /// The description of `noise`.
    pub noise_spec: NoiseSpec,
    /// Weight-scaling factor folded into the network.
    pub scaling: f32,
    /// Master seed mixed with each request's seed.
    pub master_seed: u64,
    /// The converted (and scaled) network.
    pub network: SnnNetwork,
}

impl ServedModel {
    /// Builds a served model directly from parts (the in-process
    /// equivalent of loading a [`ModelSpec`]).
    ///
    /// # Errors
    /// Propagates coding-kind and coding-configuration validation and noise
    /// construction — a degenerate coding (e.g. `Ttas(0)`) is a typed
    /// [`ServeError::Model`] at load time, never a silently coerced
    /// parameter serving live traffic.
    pub fn new(
        name: impl Into<String>,
        network: SnnNetwork,
        coding: CodingKind,
        config: CodingConfig,
        noise: NoiseSpec,
        scaling: f32,
        master_seed: u64,
    ) -> Result<ServedModel> {
        coding
            .validate()
            .map_err(|e| ServeError::Model(e.to_string()))?;
        config
            .validate()
            .map_err(|e| ServeError::Model(e.to_string()))?;
        Ok(ServedModel {
            name: name.into(),
            coding_kind: coding,
            coding: coding.build(),
            config,
            noise: build_noise(&noise)?,
            noise_spec: noise,
            scaling,
            master_seed,
            network,
        })
    }

    /// Input width a request for this model must carry.
    pub fn input_width(&self) -> usize {
        self.network.input_width()
    }

    /// Re-captures the model as a specification.
    pub fn to_spec(&self) -> ModelSpec {
        ModelSpec::from_network(
            self.name.clone(),
            &self.network,
            self.coding_kind,
            &self.config,
            self.noise_spec.clone(),
            self.scaling,
            self.master_seed,
        )
    }
}

impl std::fmt::Debug for ServedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServedModel")
            .field("name", &self.name)
            .field("coding", &self.coding_kind)
            .field("layers", &self.network.num_layers())
            .field("input_width", &self.network.input_width())
            .field("noise", &self.noise.describe())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_network() -> SnnNetwork {
        SnnNetwork::new(vec![
            SnnLayer::Linear {
                weights: Tensor::from_vec(vec![0.6, 0.4, 0.3, 0.7], &[2, 2]).unwrap(),
                bias: Tensor::from_vec(vec![0.05, -0.05], &[2]).unwrap(),
            },
            SnnLayer::Linear {
                weights: Tensor::from_vec(vec![1.0, -1.0, -1.0, 1.0], &[2, 2]).unwrap(),
                bias: Tensor::zeros(&[2]),
            },
        ])
        .unwrap()
    }

    fn toy_spec() -> ModelSpec {
        ModelSpec::from_network(
            "toy",
            &toy_network(),
            CodingKind::Ttas(5),
            &CodingConfig::new(64, 1.0),
            NoiseSpec::Deletion(0.3),
            1.0,
            2021,
        )
    }

    #[test]
    fn degenerate_coding_kind_is_rejected_at_load_time() {
        // In-process construction path.
        assert!(matches!(
            ServedModel::new(
                "bad",
                toy_network(),
                CodingKind::Ttas(0),
                CodingConfig::new(64, 1.0),
                NoiseSpec::Clean,
                1.0,
                7,
            ),
            Err(ServeError::Model(_))
        ));
        // Model-file loading path: the same degenerate kind embedded in an
        // otherwise valid spec must fail `build`, not serve coerced.
        let mut spec = toy_spec();
        spec.coding = CodingKind::Ttas(0);
        assert!(matches!(spec.build(), Err(ServeError::Model(_))));
    }

    #[test]
    fn built_model_simulates_identically_to_the_source_network() {
        let spec = toy_spec();
        let served = ModelSpec::from_binary(&spec.to_binary().unwrap())
            .unwrap()
            .build()
            .unwrap();
        let source = toy_network();
        let coding = CodingKind::Ttas(5).build();
        let cfg = CodingConfig::new(64, 1.0);
        let noise = DeletionNoise::new(0.3).unwrap();
        for seed in 0..4u64 {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let a = source
                .simulate(&[0.8, 0.3], coding.as_ref(), &cfg, &noise, &mut rng_a)
                .unwrap();
            let b = served
                .network
                .simulate(
                    &[0.8, 0.3],
                    served.coding.as_ref(),
                    &served.config,
                    served.noise.as_ref(),
                    &mut rng_b,
                )
                .unwrap();
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn build_rejects_mismatched_parameter_lists() {
        let mut spec = toy_spec();
        spec.weights.params.pop();
        assert!(matches!(spec.build(), Err(ServeError::Model(_))));

        let mut spec = toy_spec();
        spec.layers[0] = LayerSpec::Linear { out: 3, input: 2 };
        assert!(matches!(spec.build(), Err(ServeError::Model(_))));
    }

    #[test]
    fn noise_specs_build_their_transforms() {
        assert!(build_noise(&NoiseSpec::Clean).unwrap().is_identity());
        assert_eq!(
            build_noise(&NoiseSpec::Deletion(0.4)).unwrap().describe(),
            "deletion(p=0.4)"
        );
        assert!(build_noise(&NoiseSpec::Jitter(-1.0)).is_err());
        assert!(build_noise(&NoiseSpec::Deletion(1.5)).is_err());
        let composite =
            NoiseSpec::Composite(vec![NoiseSpec::Deletion(0.2), NoiseSpec::Jitter(1.0)]);
        assert!(build_noise(&composite).is_ok());
        let nested = NoiseSpec::Composite(vec![NoiseSpec::Composite(vec![])]);
        assert!(build_noise(&nested).is_err());
    }

    #[test]
    fn large_master_seeds_round_trip() {
        let mut spec = toy_spec();
        spec.master_seed = u64::MAX - 12345;
        let back = ModelSpec::from_binary(&spec.to_binary().unwrap()).unwrap();
        assert_eq!(back.master_seed, spec.master_seed);
    }

    #[test]
    fn coding_kinds_round_trip() {
        for kind in [
            CodingKind::Rate,
            CodingKind::Phase,
            CodingKind::Burst,
            CodingKind::Ttfs,
            CodingKind::Ttas(7),
        ] {
            let mut spec = toy_spec();
            spec.coding = kind;
            let back = ModelSpec::from_binary(&spec.to_binary().unwrap()).unwrap();
            assert_eq!(back.coding, kind);
        }
    }

    #[test]
    fn conv_and_pool_layers_round_trip() {
        let geometry = Conv2dGeometry::new(1, 8, 8, 3, 1, 1).unwrap();
        let conv = SnnLayer::Conv {
            weights: Tensor::ones(&[2, geometry.patch_len()]),
            bias: Tensor::zeros(&[2]),
            geometry,
        };
        let pool = SnnLayer::AvgPool {
            geometry: Pool2dGeometry::new(2, 8, 8, 2, 2).unwrap(),
        };
        let dense = SnnLayer::Linear {
            weights: Tensor::ones(&[3, 2 * 4 * 4]),
            bias: Tensor::zeros(&[3]),
        };
        let network = SnnNetwork::new(vec![conv, pool, dense]).unwrap();
        let spec = ModelSpec::from_network(
            "cnn",
            &network,
            CodingKind::Rate,
            &CodingConfig::new(32, 1.0),
            NoiseSpec::Clean,
            1.0,
            7,
        );
        let served = ModelSpec::from_binary(&spec.to_binary().unwrap())
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(served.network, network);
        assert_eq!(served.to_spec(), spec);
    }
}
