//! The model registry: named, warm, servable models.
//!
//! The registry is populated before the server starts and is immutable
//! afterwards, so the hot path reads it without locks.  Models enter it
//! either fully built ([`ModelRegistry::insert`]) or as [`ModelSpec`]s,
//! in memory ([`ModelRegistry::register_spec`]) or from binary `NRSM` model
//! files ([`ModelRegistry::load_binary`] / [`ModelRegistry::load_file`]).

use std::path::Path;
use std::sync::Arc;

use crate::{ModelSpec, Result, ServeError, ServedModel};

/// An ordered collection of uniquely named servable models.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: Vec<Arc<ServedModel>>,
}

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// Adds an already-built model.
    ///
    /// # Errors
    /// Returns [`ServeError::Model`] for a duplicate name.
    pub fn insert(&mut self, model: ServedModel) -> Result<()> {
        if self.index_of(&model.name).is_some() {
            return Err(ServeError::Model(format!(
                "duplicate model name {:?}",
                model.name
            )));
        }
        self.models.push(Arc::new(model));
        Ok(())
    }

    /// Builds and adds a model from its serializable specification.
    ///
    /// # Errors
    /// Propagates [`ModelSpec::build`] failures and duplicate names.
    pub fn register_spec(&mut self, spec: &ModelSpec) -> Result<()> {
        self.insert(spec.build()?)
    }

    /// Parses a binary (`NRSM`) model file image and registers it.
    ///
    /// # Errors
    /// Propagates decode, build and duplicate-name failures.
    pub fn load_binary(&mut self, bytes: &[u8]) -> Result<()> {
        self.register_spec(&ModelSpec::from_binary(bytes)?)
    }

    /// Reads a binary (`NRSM`) model file from disk and registers it.
    ///
    /// # Errors
    /// [`ServeError::Model`] for an unreadable file or one that is not a
    /// valid `NRSM` image; propagates build and duplicate-name failures.
    pub fn load_file<P: AsRef<Path>>(&mut self, path: P) -> Result<()> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| ServeError::Model(format!("read {}: {e}", path.as_ref().display())))?;
        self.load_binary(&bytes)
    }

    /// Index of the named model, if registered.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.models.iter().position(|m| m.name == name)
    }

    /// The named model, if registered.
    pub fn get(&self, name: &str) -> Option<&Arc<ServedModel>> {
        self.index_of(name).map(|i| &self.models[i])
    }

    /// The model at `index` (indices are stable once the server starts).
    pub fn model(&self, index: usize) -> &Arc<ServedModel> {
        &self.models[index]
    }

    /// Registered model names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.models.iter().map(|m| m.name.clone()).collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Returns `true` if no models are registered.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoiseSpec;
    use nrsnn_snn::{CodingConfig, CodingKind, SnnLayer, SnnNetwork};
    use nrsnn_tensor::Tensor;

    fn toy_model(name: &str) -> ServedModel {
        let network = SnnNetwork::new(vec![SnnLayer::Linear {
            weights: Tensor::eye(2),
            bias: Tensor::zeros(&[2]),
        }])
        .unwrap();
        ServedModel::new(
            name,
            network,
            CodingKind::Rate,
            CodingConfig::new(32, 1.0),
            NoiseSpec::Clean,
            1.0,
            0,
        )
        .unwrap()
    }

    #[test]
    fn insert_lookup_and_names() {
        let mut registry = ModelRegistry::new();
        assert!(registry.is_empty());
        registry.insert(toy_model("a")).unwrap();
        registry.insert(toy_model("b")).unwrap();
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.names(), vec!["a", "b"]);
        assert_eq!(registry.index_of("b"), Some(1));
        assert!(registry.get("a").is_some());
        assert!(registry.get("missing").is_none());
        assert_eq!(registry.model(1).name, "b");
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut registry = ModelRegistry::new();
        registry.insert(toy_model("a")).unwrap();
        assert!(matches!(
            registry.insert(toy_model("a")),
            Err(ServeError::Model(_))
        ));
    }

    #[test]
    fn loads_from_spec_and_nrsm_file() {
        let spec = toy_model("spec-model").to_spec();
        let mut registry = ModelRegistry::new();
        registry.register_spec(&spec).unwrap();
        assert!(registry.get("spec-model").is_some());

        let dir = std::env::temp_dir().join("nrsnn_serve_registry_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.nrsm");
        let mut on_disk = spec.clone();
        on_disk.name = "disk-model".to_string();
        std::fs::write(&path, on_disk.to_binary().unwrap()).unwrap();
        registry.load_file(&path).unwrap();
        assert!(registry.get("disk-model").is_some());

        // Anything but an NRSM image is a typed model error, JSON included.
        std::fs::write(&path, "{\"name\":\"json-model\"}").unwrap();
        assert!(matches!(
            registry.load_file(&path),
            Err(ServeError::Model(_))
        ));
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            registry.load_file(dir.join("missing.nrsm")),
            Err(ServeError::Model(_))
        ));
        assert_eq!(registry.len(), 2);
    }

    #[test]
    fn oversized_jitter_sigma_in_a_model_file_is_a_typed_error() {
        // σ sizes the jitter shift table, so a hostile model file must be
        // refused at load time rather than attempt an unbounded allocation.
        for noise in [
            NoiseSpec::Jitter(1e300),
            NoiseSpec::Composite(vec![NoiseSpec::Deletion(0.1), NoiseSpec::Jitter(1e300)]),
        ] {
            let mut spec = toy_model("huge-sigma").to_spec();
            spec.noise = noise;
            let binary = spec.to_binary().unwrap();
            let mut registry = ModelRegistry::new();
            match registry.load_binary(&binary) {
                Err(ServeError::Model(msg)) => assert!(msg.contains("sigma"), "{msg}"),
                other => panic!("expected a typed model error, got {other:?}"),
            }
            assert!(registry.is_empty());
        }
    }
}
