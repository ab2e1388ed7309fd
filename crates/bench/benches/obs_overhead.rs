//! Observability overhead gate: the fully instrumented serving hot path
//! (per-stage spans, sharded metrics, flight-recorder push) must cost at
//! most **2 %** of serving throughput versus the same server with tracing
//! disabled, on the Fig. 7 workload (CIFAR-10-like pipeline, TTAS(5) with
//! weight scaling under 50 % spike deletion).
//!
//! Both configurations are equality-gated against the offline
//! request-at-a-time reference before any timing happens — observability
//! may never change a reply bit. Throughput is taken as the best of
//! several interleaved rounds per configuration so one scheduler hiccup
//! cannot fail (or pass) the gate.
//!
//! ```text
//! cargo bench -p nrsnn-bench --bench obs_overhead
//! ```

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nrsnn::prelude::*;
use nrsnn_bench::{bench_sweep_config, cifar10_pipeline, record_bench_summary};
use nrsnn_runtime::derive_seed;
use nrsnn_serve::{ModelRegistry, ModelSpec, NoiseSpec, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const MODEL: &str = "fig7-ttas5-ws";
const MASTER_SEED: u64 = 2021;
const REQUESTS: usize = 48;
const CLIENTS: usize = 4;
/// The hard budget: instrumented throughput must stay within 2 % of the
/// uninstrumented server.
const MAX_OVERHEAD_PCT: f64 = 2.0;

struct Workload {
    network: SnnNetwork,
    coding: Box<dyn NeuralCoding>,
    cfg: CodingConfig,
    noise: DeletionNoise,
    inputs: Vec<Vec<f32>>,
}

fn workload() -> Workload {
    let pipeline = cifar10_pipeline();
    let scaling = WeightScaling::for_deletion_probability(0.5).expect("ws");
    let kind = CodingKind::Ttas(5);
    let test_inputs = &pipeline.dataset().test.inputs;
    let rows = test_inputs.dims()[0];
    let inputs = (0..REQUESTS)
        .map(|i| test_inputs.row_slice(i % rows).expect("row").to_vec())
        .collect();
    Workload {
        network: pipeline.to_snn(&scaling).expect("convert"),
        coding: kind.build(),
        cfg: pipeline.coding_config(kind, bench_sweep_config().time_steps),
        noise: DeletionNoise::new(0.5).expect("noise"),
        inputs,
    }
}

fn registry(w: &Workload) -> ModelRegistry {
    let spec = ModelSpec::from_network(
        MODEL,
        &w.network,
        CodingKind::Ttas(5),
        &w.cfg,
        NoiseSpec::Deletion(0.5),
        2.0,
        MASTER_SEED,
    );
    let mut registry = ModelRegistry::new();
    registry.register_spec(&spec).expect("register model spec");
    registry
}

fn start_server(w: &Workload, tracing: bool) -> Server {
    Server::start(
        registry(w),
        ServerConfig {
            workers: 1,
            max_batch: 16,
            batch_window: Duration::ZERO,
            queue_capacity: 1024,
            tracing,
        },
    )
    .expect("start server")
}

/// Offline single-threaded reference, seeds derived exactly as the server
/// derives them.
fn offline_reference(w: &Workload) -> Vec<(usize, Vec<u32>)> {
    w.inputs
        .iter()
        .enumerate()
        .map(|(seed, input)| {
            let mut rng = StdRng::seed_from_u64(derive_seed(MASTER_SEED, seed as u64));
            let outcome = w
                .network
                .simulate(input, w.coding.as_ref(), &w.cfg, &w.noise, &mut rng)
                .expect("simulate");
            let bits = outcome.logits.iter().map(|l| l.to_bits()).collect();
            (outcome.predicted, bits)
        })
        .collect()
}

fn run_server_round(server: &Server, w: &Workload) -> Vec<(usize, usize, Vec<u32>)> {
    let threads: Vec<_> = (0..CLIENTS)
        .map(|client_index| {
            let client = server.client();
            let inputs: Vec<(usize, Vec<f32>)> = w
                .inputs
                .iter()
                .enumerate()
                .skip(client_index)
                .step_by(CLIENTS)
                .map(|(index, input)| (index, input.clone()))
                .collect();
            std::thread::spawn(move || {
                inputs
                    .into_iter()
                    .map(|(index, input)| {
                        let reply = client
                            .infer_retrying(MODEL, &input, index as u64)
                            .expect("serve");
                        let bits = reply.logits.iter().map(|l| l.to_bits()).collect();
                        (index, reply.predicted, bits)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    threads
        .into_iter()
        .flat_map(|t| t.join().expect("client thread"))
        .collect()
}

/// Asserts every served reply is bit-identical to the offline reference.
fn equality_gate(server: &Server, w: &Workload, reference: &[(usize, Vec<u32>)], label: &str) {
    let served = run_server_round(server, w);
    assert_eq!(served.len(), reference.len(), "{label}");
    for (index, predicted, bits) in &served {
        assert_eq!(*predicted, reference[*index].0, "{label} request {index}");
        assert_eq!(
            *bits, reference[*index].1,
            "{label} request {index}: logits diverged"
        );
    }
}

/// Best requests/s over `rounds` passes (best-of is robust to one-off
/// scheduler noise, which a 2 % gate cannot absorb).
fn best_rps(server: &Server, w: &Workload, rounds: usize) -> f64 {
    (0..rounds)
        .map(|_| {
            let start = Instant::now();
            black_box(run_server_round(server, w));
            REQUESTS as f64 / start.elapsed().as_secs_f64()
        })
        .fold(0.0, f64::max)
}

fn overhead_report(w: &Workload) -> (Server, Server) {
    let plain = start_server(w, false);
    let traced = start_server(w, true);

    let reference = offline_reference(w);
    equality_gate(&plain, w, &reference, "tracing off");
    equality_gate(&traced, w, &reference, "tracing on");

    // Warm both servers, then interleave measurement rounds so thermal /
    // scheduler drift hits both configurations equally.
    let rounds = 5;
    black_box(run_server_round(&plain, w));
    black_box(run_server_round(&traced, w));
    let mut plain_rps = 0.0f64;
    let mut traced_rps = 0.0f64;
    for _ in 0..rounds {
        plain_rps = plain_rps.max(best_rps(&plain, w, 1));
        traced_rps = traced_rps.max(best_rps(&traced, w, 1));
    }
    let overhead_pct = (1.0 - traced_rps / plain_rps) * 100.0;

    println!("\n==== Observability overhead (fig7 workload: TTAS(5)+WS, deletion p=0.5) ====");
    println!("{:<32}{:>14}", "configuration", "requests/s");
    println!("{:<32}{:>14.1}", "tracing off", plain_rps);
    println!("{:<32}{:>14.1}", "tracing on (full spans)", traced_rps);
    println!("instrumentation overhead: {overhead_pct:.2}% (budget {MAX_OVERHEAD_PCT:.1}%)");
    let stats = traced.stats();
    println!("per-stage latency of the instrumented server:");
    for stage in &stats.stage_latency_ns {
        println!(
            "  {:<16} p50 {:>9.1} us   p99 {:>9.1} us",
            stage.stage,
            stage.p50_ns as f64 / 1_000.0,
            stage.p99_ns as f64 / 1_000.0
        );
    }
    println!();

    record_bench_summary(
        "obs_overhead",
        &[
            ("untraced_rps", plain_rps),
            ("traced_rps", traced_rps),
            ("overhead_pct", overhead_pct),
            ("budget_pct", MAX_OVERHEAD_PCT),
        ],
    );
    assert!(
        overhead_pct <= MAX_OVERHEAD_PCT,
        "observability overhead {overhead_pct:.2}% exceeds the {MAX_OVERHEAD_PCT:.1}% budget \
         ({plain_rps:.1} -> {traced_rps:.1} requests/s)"
    );
    (plain, traced)
}

fn bench(c: &mut Criterion) {
    let w = workload();
    let (plain, traced) = overhead_report(&w);

    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);
    group.bench_function("tracing_off_48", |b| {
        b.iter(|| black_box(run_server_round(&plain, &w)))
    });
    group.bench_function("tracing_on_48", |b| {
        b.iter(|| black_box(run_server_round(&traced, &w)))
    });
    group.finish();
    plain.shutdown();
    traced.shutdown();
}

criterion_group!(benches, bench);
criterion_main!(benches);
