//! Concurrent-serving determinism: the same request with the same seed must
//! return **byte-identical** logits regardless of batch companions, queue
//! order, batching policy or worker count — and must equal the offline
//! single-threaded [`SnnNetwork::simulate_with`] path.
//!
//! The contract under test: request `r` against model `m` simulates with a
//! fresh `StdRng` seeded `derive_seed(m.master_seed, r.seed)`, a pure
//! function of `(model, request)`.

use std::sync::Arc;
use std::time::Duration;

use nrsnn_runtime::derive_seed;
use nrsnn_serve::{build_noise, ModelRegistry, NoiseSpec, ServedModel, Server, ServerConfig};
use nrsnn_snn::{CodingConfig, CodingKind, SimWorkspace, SnnLayer, SnnNetwork};
use nrsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

const MASTER_SEED: u64 = 0xD0C5_EED5;
const MODEL: &str = "det-toy";

/// A small 3-class, 4-input network with enough structure for noise to
/// matter.
fn toy_network() -> SnnNetwork {
    let l0 = SnnLayer::Linear {
        weights: Tensor::from_vec(
            vec![
                0.9, -0.2, 0.1, 0.3, //
                -0.1, 0.8, 0.2, -0.3, //
                0.2, 0.1, 0.7, 0.2, //
                0.3, -0.4, 0.1, 0.6, //
                0.1, 0.2, -0.2, 0.5, //
                -0.3, 0.5, 0.4, 0.1,
            ],
            &[6, 4],
        )
        .unwrap(),
        bias: Tensor::from_vec(vec![0.05, -0.05, 0.0, 0.1, -0.1, 0.02], &[6]).unwrap(),
    };
    let l1 = SnnLayer::Linear {
        weights: Tensor::from_vec(
            vec![
                0.6, -0.2, 0.3, 0.1, -0.4, 0.2, //
                -0.3, 0.7, -0.1, 0.4, 0.2, -0.2, //
                0.1, 0.2, 0.5, -0.3, 0.3, 0.4,
            ],
            &[3, 6],
        )
        .unwrap(),
        bias: Tensor::zeros(&[3]),
    };
    SnnNetwork::new(vec![l0, l1]).unwrap()
}

fn coding_config() -> CodingConfig {
    CodingConfig::new(48, 1.0)
}

fn registry() -> ModelRegistry {
    let mut registry = ModelRegistry::new();
    registry
        .insert(
            ServedModel::new(
                MODEL,
                toy_network(),
                CodingKind::Ttas(3),
                coding_config(),
                NoiseSpec::Deletion(0.35),
                1.0,
                MASTER_SEED,
            )
            .unwrap(),
        )
        .unwrap();
    registry
}

/// Deterministic pseudo-random request input for index `i`.
fn input_for(i: u64) -> Vec<f32> {
    (0..4)
        .map(|j| ((derive_seed(i, j) % 1000) as f32) / 1000.0)
        .collect()
}

/// The offline single-threaded reference: `simulate_with` under the serve
/// crate's seed derivation.
fn offline_logits(input: &[f32], request_seed: u64) -> (usize, Vec<u32>) {
    let network = toy_network();
    let coding = CodingKind::Ttas(3).build();
    let cfg = coding_config();
    let noise = build_noise(&NoiseSpec::Deletion(0.35)).unwrap();
    let mut ws = SimWorkspace::new();
    let mut rng = StdRng::seed_from_u64(derive_seed(MASTER_SEED, request_seed));
    let outcome = network
        .simulate_with(
            input,
            coding.as_ref(),
            &cfg,
            noise.as_ref(),
            &mut rng,
            &mut ws,
        )
        .unwrap();
    let bits = ws.logits().iter().map(|l| l.to_bits()).collect();
    (outcome.predicted, bits)
}

fn logits_bits(logits: &[f32]) -> Vec<u32> {
    logits.iter().map(|l| l.to_bits()).collect()
}

#[test]
fn every_reply_matches_the_offline_reference_for_every_serving_policy() {
    let requests: Vec<(u64, Vec<f32>)> = (0..24).map(|i| (1000 + i, input_for(i))).collect();
    let references: Vec<(usize, Vec<u32>)> = requests
        .iter()
        .map(|(seed, input)| offline_logits(input, *seed))
        .collect();

    // Worker count, batch cap and window all vary; none may change a bit.
    let policies = [
        (1usize, 1usize, Duration::ZERO),
        (1, 16, Duration::ZERO),
        (4, 4, Duration::ZERO),
        (4, 16, Duration::from_micros(500)),
        (0, 8, Duration::ZERO), // auto workers (honours NRSNN_THREADS)
    ];
    for (workers, max_batch, batch_window) in policies {
        let server = Server::start(
            registry(),
            ServerConfig {
                workers,
                max_batch,
                batch_window,
                queue_capacity: 1024,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let client = server.client();
        // Fan the identical request set out from four submitter threads so
        // arrival order and batch composition differ run to run.
        let requests = Arc::new(requests.clone());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let client = client.clone();
                let requests = Arc::clone(&requests);
                std::thread::spawn(move || {
                    let mut replies = Vec::new();
                    for (index, (seed, input)) in requests.iter().enumerate() {
                        // Each thread walks the list from a different side.
                        let (index, (seed, input)) = if t % 2 == 0 {
                            (index, (seed, input))
                        } else {
                            let r = requests.len() - 1 - index;
                            (r, (&requests[r].0, &requests[r].1))
                        };
                        let reply = client.infer_retrying(MODEL, input, *seed).unwrap();
                        replies.push((index, reply));
                    }
                    replies
                })
            })
            .collect();
        for thread in threads {
            for (index, reply) in thread.join().unwrap() {
                let (expected_predicted, expected_bits) = &references[index];
                assert_eq!(
                    reply.predicted, *expected_predicted,
                    "policy ({workers},{max_batch},{batch_window:?}) request {index}"
                );
                assert_eq!(
                    logits_bits(&reply.logits),
                    *expected_bits,
                    "policy ({workers},{max_batch},{batch_window:?}) request {index}"
                );
            }
        }
        let stats = server.stats();
        assert_eq!(stats.requests_served, 4 * requests.len() as u64);
        assert_eq!(stats.failed, 0);
        server.shutdown();
    }
}

#[test]
fn probe_request_is_invariant_to_its_batch_companions() {
    // The same probe repeated among *changing* companion requests: every
    // occurrence must produce the same bytes.
    let probe_seed = 77u64;
    let probe_input = input_for(999);
    let (expected_predicted, expected_bits) = offline_logits(&probe_input, probe_seed);

    let server = Server::start(
        registry(),
        ServerConfig {
            workers: 4,
            max_batch: 6,
            batch_window: Duration::from_micros(300),
            queue_capacity: 1024,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let client = server.client();

    let probe_replies: Vec<_> = (0..6)
        .map(|round| {
            // Fresh companions every round -> different batch compositions.
            let companions: Vec<_> = (0..8)
                .map(|i| {
                    let client = client.clone();
                    let seed = round * 100 + i;
                    let input = input_for(seed);
                    std::thread::spawn(move || client.infer_retrying(MODEL, &input, seed).unwrap())
                })
                .collect();
            let probe = client
                .infer_retrying(MODEL, &probe_input, probe_seed)
                .unwrap();
            for companion in companions {
                companion.join().unwrap();
            }
            probe
        })
        .collect();

    for (round, reply) in probe_replies.iter().enumerate() {
        assert_eq!(reply.predicted, expected_predicted, "round {round}");
        assert_eq!(logits_bits(&reply.logits), expected_bits, "round {round}");
    }
    server.shutdown();
}

#[test]
fn cross_format_matrix_is_bit_identical() {
    // The wire format is transport, not semantics: for every (workers,
    // max_batch) policy, the in-process client, a JSON TCP client and a
    // binary TCP client run *concurrently* against one server (so JSON and
    // binary connections interleave in the same queue) and every reply must
    // be bit-equal to the offline `simulate_with` reference.
    let requests: Vec<(u64, Vec<f32>)> = (0..16).map(|i| (2000 + i, input_for(40 + i))).collect();
    let references: Vec<(usize, Vec<u32>)> = requests
        .iter()
        .map(|(seed, input)| offline_logits(input, *seed))
        .collect();

    for (workers, max_batch) in [(1usize, 1usize), (1, 16), (4, 1), (4, 16)] {
        let mut server = Server::start(
            registry(),
            ServerConfig {
                workers,
                max_batch,
                batch_window: Duration::from_micros(200),
                queue_capacity: 1024,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.serve_tcp(("127.0.0.1", 0)).unwrap();
        let requests = Arc::new(requests.clone());

        enum Transport {
            InProcess,
            Json,
            Binary,
        }
        let threads: Vec<_> = [Transport::InProcess, Transport::Json, Transport::Binary]
            .into_iter()
            .map(|transport| {
                let requests = Arc::clone(&requests);
                let in_process = server.client();
                std::thread::spawn(move || {
                    let mut tcp = match transport {
                        Transport::InProcess => None,
                        Transport::Json => Some(nrsnn_serve::TcpClient::connect(addr).unwrap()),
                        Transport::Binary => {
                            Some(nrsnn_serve::TcpClient::connect_binary(addr).unwrap())
                        }
                    };
                    requests
                        .iter()
                        .enumerate()
                        .map(|(index, (seed, input))| {
                            let reply = match tcp.as_mut() {
                                None => in_process.infer_retrying(MODEL, input, *seed).unwrap(),
                                Some(client) => client.infer_retrying(MODEL, input, *seed).unwrap(),
                            };
                            (index, reply)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();

        for thread in threads {
            for (index, reply) in thread.join().unwrap() {
                let (expected_predicted, expected_bits) = &references[index];
                assert_eq!(
                    reply.predicted, *expected_predicted,
                    "policy ({workers},{max_batch}) request {index}"
                );
                assert_eq!(
                    logits_bits(&reply.logits),
                    *expected_bits,
                    "policy ({workers},{max_batch}) request {index}: \
                     reply depends on the wire format"
                );
            }
        }
        let stats = server.stats();
        assert_eq!(stats.requests_served, 3 * requests.len() as u64);
        assert_eq!(stats.failed, 0);
        server.shutdown();
    }
}

#[test]
fn observability_on_off_or_scraped_never_changes_reply_bits() {
    // The observability hard constraint: tracing enabled, tracing disabled,
    // and tracing enabled *while* stats and trace scrapes hammer the
    // metrics concurrently must all return byte-identical logits — the
    // clock and recorder never touch the per-request RNG stream.
    let requests: Vec<(u64, Vec<f32>)> = (0..16).map(|i| (3000 + i, input_for(60 + i))).collect();
    let references: Vec<(usize, Vec<u32>)> = requests
        .iter()
        .map(|(seed, input)| offline_logits(input, *seed))
        .collect();

    for (tracing, scrape) in [(false, false), (true, false), (true, true)] {
        let server = Server::start(
            registry(),
            ServerConfig {
                workers: 4,
                max_batch: 8,
                batch_window: Duration::from_micros(200),
                queue_capacity: 1024,
                tracing,
            },
        )
        .unwrap();
        let client = server.client();

        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let scraper = scrape.then(|| {
            let client = client.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut scrapes = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let _ = client.stats();
                    let _ = client.trace(32);
                    scrapes += 1;
                }
                scrapes
            })
        });

        let submitters: Vec<_> = (0..4)
            .map(|_| {
                let client = client.clone();
                let requests = Arc::new(requests.clone());
                std::thread::spawn(move || {
                    requests
                        .iter()
                        .enumerate()
                        .map(|(index, (seed, input))| {
                            (index, client.infer_retrying(MODEL, input, *seed).unwrap())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for thread in submitters {
            for (index, reply) in thread.join().unwrap() {
                let (expected_predicted, expected_bits) = &references[index];
                assert_eq!(
                    reply.predicted, *expected_predicted,
                    "tracing={tracing} scrape={scrape} request {index}"
                );
                assert_eq!(
                    logits_bits(&reply.logits),
                    *expected_bits,
                    "tracing={tracing} scrape={scrape} request {index}: \
                     observability changed the reply bits"
                );
                // Trace ids are observability metadata, not reply payload —
                // but they must reflect the config.
                if tracing {
                    assert_ne!(reply.trace_id, 0, "tracing on must assign trace ids");
                } else {
                    assert_eq!(reply.trace_id, 0, "tracing off must not assign trace ids");
                }
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(scraper) = scraper {
            assert!(scraper.join().unwrap() > 0, "scraper never ran");
        }
        if !tracing {
            assert!(
                client.trace(64).is_empty(),
                "tracing off must record no timelines"
            );
        }
        server.shutdown();
    }
}

#[test]
fn distinct_seeds_actually_change_the_noise_realisation() {
    // Sanity check that the determinism above is not vacuous: with 35 %
    // deletion, different request seeds must produce different logits for
    // the same input.
    let input = input_for(5);
    let a = offline_logits(&input, 1);
    let b = offline_logits(&input, 2);
    assert_ne!(a.1, b.1, "different seeds should differ somewhere");

    let server = Server::start(registry(), ServerConfig::default()).unwrap();
    let client = server.client();
    let reply_a = client.infer_retrying(MODEL, &input, 1).unwrap();
    let reply_b = client.infer_retrying(MODEL, &input, 2).unwrap();
    assert_eq!(logits_bits(&reply_a.logits), a.1);
    assert_eq!(logits_bits(&reply_b.logits), b.1);
    assert_ne!(logits_bits(&reply_a.logits), logits_bits(&reply_b.logits));
    server.shutdown();
}
