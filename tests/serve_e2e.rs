//! End-to-end acceptance test of the serving subsystem: a server on an
//! ephemeral TCP port serves ≥ 64 requests from ≥ 4 concurrent TCP clients
//! with zero dropped responses, and every reply's logits are bit-identical
//! to the single-threaded offline `SnnNetwork::simulate_with` path.
//!
//! The served model is a *trained* converted SNN (tiny MNIST-like MLP →
//! TTAS(5) + weight scaling under 50 % deletion — the paper's proposed
//! configuration), registered through the on-disk binary (`NRSM`) model
//! file path a deployment would use, and driven by a mix of JSON and
//! binary-framing TCP clients on the same port.

use std::sync::Arc;
use std::time::Duration;

use nrsnn::prelude::*;
use nrsnn_runtime::derive_seed;
use nrsnn_serve::{ModelRegistry, ModelSpec, NoiseSpec, Server, ServerConfig, TcpClient};
use rand::rngs::StdRng;
use rand::SeedableRng;

const MODEL: &str = "mnist-ttas5-ws";
const MASTER_SEED: u64 = 424_242;
const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 16; // 4 x 16 = 64 total

struct Fixture {
    network: SnnNetwork,
    cfg: CodingConfig,
    inputs: Vec<Vec<f32>>,
}

fn fixture() -> Fixture {
    let pipeline_config = PipelineConfig {
        dataset: DatasetSpec::mnist_like().with_samples(96, 48),
        model: ModelKind::Mlp,
        dropout: 0.1,
        epochs: 5,
        batch_size: 16,
        learning_rate: 2e-3,
        percentile: 99.9,
        seed: 13,
    };
    let pipeline = TrainedPipeline::build(&pipeline_config).expect("train pipeline");
    let scaling = WeightScaling::for_deletion_probability(0.5).expect("scaling");
    let network = pipeline.to_snn(&scaling).expect("convert");
    let cfg = pipeline.coding_config(CodingKind::Ttas(5), 64);
    let rows = pipeline.dataset().test.inputs.dims()[0];
    let total = CLIENTS * REQUESTS_PER_CLIENT;
    let inputs = (0..total)
        .map(|i| {
            pipeline
                .dataset()
                .test
                .inputs
                .row_slice(i % rows)
                .expect("row")
                .to_vec()
        })
        .collect();
    Fixture {
        network,
        cfg,
        inputs,
    }
}

/// Offline single-threaded reference for request `seed`.
fn offline_reference(f: &Fixture, input: &[f32], seed: u64) -> (usize, Vec<u32>) {
    let coding = CodingKind::Ttas(5).build();
    let noise = DeletionNoise::new(0.5).expect("noise");
    let mut ws = SimWorkspace::new();
    let mut rng = StdRng::seed_from_u64(derive_seed(MASTER_SEED, seed));
    let outcome = f
        .network
        .simulate_with(input, coding.as_ref(), &f.cfg, &noise, &mut rng, &mut ws)
        .expect("simulate");
    (
        outcome.predicted,
        ws.logits().iter().map(|l| l.to_bits()).collect(),
    )
}

#[test]
fn tcp_server_serves_64_concurrent_requests_bit_identically() {
    let f = Arc::new(fixture());

    let spec = ModelSpec::from_network(
        MODEL,
        &f.network,
        CodingKind::Ttas(5),
        &f.cfg,
        NoiseSpec::Deletion(0.5),
        2.0,
        MASTER_SEED,
    );
    // Register through the on-disk binary model path (write → decode →
    // build), after checking the model file round-trips: an equal spec that
    // re-encodes to the same bytes, so weights survive bit for bit.
    let binary_bytes = spec.to_binary().expect("encode binary model");
    let reloaded = ModelSpec::from_binary(&binary_bytes).expect("decode binary model");
    assert_eq!(reloaded, spec, "binary model round-trip");
    assert_eq!(
        reloaded.to_binary().expect("re-encode binary model"),
        binary_bytes,
        "binary model round-trip is bit-exact"
    );
    let model_path = std::env::temp_dir().join("nrsnn_serve_e2e_model.nrsm");
    std::fs::write(&model_path, &binary_bytes).expect("write model file");
    let mut registry = ModelRegistry::new();
    registry.load_file(&model_path).expect("load model");
    std::fs::remove_file(&model_path).ok();

    let mut server = Server::start(
        registry,
        ServerConfig {
            workers: 0, // auto: honours NRSNN_THREADS like the sweep engine
            max_batch: 8,
            batch_window: Duration::from_micros(200),
            queue_capacity: 256,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server
        .serve_tcp(("127.0.0.1", 0))
        .expect("bind ephemeral port");
    assert_ne!(addr.port(), 0);

    // >= 4 concurrent TCP clients, each issuing its share of the >= 64
    // requests over one connection.  Half speak JSON, half speak the binary
    // framing: the formats negotiate per connection and must interleave.
    let clients: Vec<_> = (0..CLIENTS)
        .map(|client_index| {
            let f = Arc::clone(&f);
            std::thread::spawn(move || {
                let mut client = if client_index % 2 == 0 {
                    TcpClient::connect(addr).expect("connect")
                } else {
                    TcpClient::connect_binary(addr).expect("connect binary")
                };
                client.ping().expect("ping");
                (0..REQUESTS_PER_CLIENT)
                    .map(|r| {
                        let index = client_index * REQUESTS_PER_CLIENT + r;
                        let reply = client
                            .infer_retrying(MODEL, &f.inputs[index], index as u64)
                            .expect("infer");
                        (index, reply)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    let mut total_replies = 0usize;
    for client in clients {
        for (index, reply) in client.join().expect("client thread") {
            total_replies += 1;
            assert_eq!(reply.model, MODEL);
            let (expected_predicted, expected_bits) =
                offline_reference(&f, &f.inputs[index], index as u64);
            assert_eq!(reply.predicted, expected_predicted, "request {index}");
            let bits: Vec<u32> = reply.logits.iter().map(|l| l.to_bits()).collect();
            assert_eq!(
                bits, expected_bits,
                "request {index}: served logits diverged from offline simulate_with"
            );
            assert!(
                reply.total_spikes > 0,
                "request {index} transmitted no spikes"
            );
        }
    }
    // Zero dropped responses: every request came back.
    assert_eq!(total_replies, CLIENTS * REQUESTS_PER_CLIENT);

    // The server agrees nothing was dropped and exposes its metrics.
    let mut probe = TcpClient::connect(addr).expect("connect probe");
    assert_eq!(probe.models().expect("models"), vec![MODEL.to_string()]);
    let stats = probe.stats().expect("stats");
    assert_eq!(
        stats.requests_served,
        (CLIENTS * REQUESTS_PER_CLIENT) as u64
    );
    assert_eq!(stats.failed, 0);
    assert_eq!(
        stats.requests_received,
        stats.requests_served + stats.rejected_busy
    );
    assert!(stats.batches > 0 && stats.batches <= stats.requests_served);
    assert!(stats.mean_batch_size >= 1.0);
    assert!(stats.p99_latency_us >= stats.p50_latency_us);
    assert!(stats.spikes_per_inference > 0.0);
    let histogram_total: u64 = stats.batch_size_histogram.iter().sum();
    assert_eq!(histogram_total, stats.batches);

    server.shutdown();

    // After graceful shutdown the port no longer accepts service.
    assert!(
        TcpClient::connect(addr).and_then(|mut c| c.ping()).is_err(),
        "server should be gone after shutdown"
    );
}
