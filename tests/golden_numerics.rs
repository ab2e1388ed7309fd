//! Golden numerics: the simulator's output bits are pinned by a committed
//! fixture, `tests/golden/numerics.txt`.
//!
//! Every other bit-identity suite compares two paths with each other
//! (workspace vs reference, scalar vs AVX2, 1 vs 4 threads).  A change that
//! moves every path in lockstep passes those silently; this suite catches
//! it.  It simulates hand-built, seeded tiny MLP and CNN networks (no
//! training) under all five codings × {clean, deletion 0.5 + weight
//! scaling, jitter σ = 1.0, the composite of the two} × 3 seeds and, per
//! case, records a digest of
//! every logit bit, the transmitted spikes per layer and the argmax of each
//! sample.  The fixture is ISA- and thread-independent, so the default
//! (auto-detected) and `NRSNN_SIMD=scalar` CI legs check it on both
//! backends.
//!
//! If this test fails:
//!
//! 1. A failure *without* an intended numerical change means the simulator
//!    regressed: fix the code, do not re-bless.
//! 2. An intended change (a new summation order, a coding fix) is
//!    re-blessed with `NRSNN_NUMERICS_BLESS=1 cargo test --test
//!    golden_numerics`, and the fixture is committed together with a
//!    CHANGES.md entry naming the cause.

use std::fmt::Write as _;
use std::path::PathBuf;

use nrsnn_noise::{CompositeNoise, DeletionNoise, JitterNoise, WeightScaling};
use nrsnn_runtime::derive_seed;
use nrsnn_snn::{
    CodingConfig, CodingKind, IdentityTransform, SimWorkspace, SnnLayer, SnnNetwork, SpikeTransform,
};
use nrsnn_tensor::{uniform, Conv2dGeometry, Pool2dGeometry, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Samples simulated per case.
const SAMPLES: usize = 4;
/// Simulation window of every case: shorter than the 48/64-wide input
/// layers, so one-spike TTFS rasters land on both sides of the decode
/// tabulation switch.
const TIME_STEPS: u32 = 32;
/// The seeds each (network, coding, noise) case runs under; a seed drives
/// both the input samples and the per-sample noise streams.
const SEEDS: [u64; 3] = [1, 2, 3];

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/numerics.txt")
}

fn all_codings() -> [CodingKind; 5] {
    [
        CodingKind::Rate,
        CodingKind::Phase,
        CodingKind::Burst,
        CodingKind::Ttfs,
        CodingKind::Ttas(5),
    ]
}

/// Seeded weights `U(-scale/2, scale)`: mostly positive so activity
/// survives every layer, with enough negative weights that some neurons
/// go silent.
fn weights(rng: &mut StdRng, shape: &[usize], scale: f32) -> Tensor {
    uniform(rng, shape, -scale / 2.0, scale)
}

/// 48 → 24 → 6 → 10 fully connected network.  The 6-wide bottleneck keeps
/// its TTAS(5) raster (≤ 30 spikes) under the 32-step window, the wide
/// layers keep theirs above it.
fn mlp() -> SnnNetwork {
    let mut rng = StdRng::seed_from_u64(0x6d6c70);
    SnnNetwork::new(vec![
        SnnLayer::Linear {
            weights: weights(&mut rng, &[24, 48], 0.2),
            bias: weights(&mut rng, &[24], 0.05),
        },
        SnnLayer::Linear {
            weights: weights(&mut rng, &[6, 24], 0.3),
            bias: weights(&mut rng, &[6], 0.05),
        },
        SnnLayer::Linear {
            weights: weights(&mut rng, &[10, 6], 0.6),
            bias: Tensor::zeros(&[10]),
        },
    ])
    .expect("golden MLP widths chain")
}

/// 1×8×8 → conv(3ch, k3, s1, p1) → avgpool(2×2) → linear → 10 logits.
fn cnn() -> SnnNetwork {
    let mut rng = StdRng::seed_from_u64(0x636e6e);
    let conv = Conv2dGeometry::new(1, 8, 8, 3, 1, 1).expect("golden conv geometry");
    let pool = Pool2dGeometry::new(3, 8, 8, 2, 2).expect("golden pool geometry");
    SnnNetwork::new(vec![
        SnnLayer::Conv {
            weights: weights(&mut rng, &[3, conv.patch_len()], 0.5),
            bias: weights(&mut rng, &[3], 0.05),
            geometry: conv,
        },
        SnnLayer::AvgPool { geometry: pool },
        SnnLayer::Linear {
            weights: weights(&mut rng, &[10, pool.out_len()], 0.3),
            bias: Tensor::zeros(&[10]),
        },
    ])
    .expect("golden CNN widths chain")
}

/// `SAMPLES` seeded inputs in `[0, 1)`, a fifth of them exact zeros
/// (silent input neurons).
fn inputs(seed: u64, width: usize) -> Tensor {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x1a9));
    let mut t = uniform(&mut rng, &[SAMPLES, width], 0.0, 1.0);
    for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
        if i % 5 == 0 {
            *v = 0.0;
        }
    }
    t
}

/// FNV-1a over 32-bit words.
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One simulated golden case.
struct Case {
    kind: CodingKind,
    /// The fixture line pinning the case.
    line: String,
    /// Transmitted spikes of every raster of every sample.
    raster_spikes: Vec<usize>,
}

/// Simulates one case: `SAMPLES` seeded inputs through one workspace.
fn run_case(
    name: &str,
    network: &SnnNetwork,
    kind: CodingKind,
    noise_name: &str,
    noise: &dyn SpikeTransform,
    seed: u64,
) -> Case {
    let coding = kind.build();
    let cfg = CodingConfig::new(TIME_STEPS, kind.default_threshold());
    let inputs = inputs(seed, network.input_width());
    let mut ws = SimWorkspace::new();
    let mut logit_bits = Vec::new();
    let mut raster_spikes = Vec::new();
    let mut spikes = vec![0usize; network.num_layers()];
    let mut argmax = Vec::new();
    network
        .simulate_batch_each(
            &inputs,
            0..SAMPLES,
            coding.as_ref(),
            &cfg,
            noise,
            |sample| StdRng::seed_from_u64(derive_seed(seed, sample as u64)),
            &mut ws,
            |_, outcome, ws| {
                logit_bits.extend(ws.logits().iter().map(|v| v.to_bits()));
                raster_spikes.extend_from_slice(ws.spikes_per_layer());
                for (total, &n) in spikes.iter_mut().zip(ws.spikes_per_layer()) {
                    *total += n;
                }
                argmax.push(outcome.predicted.to_string());
            },
        )
        .expect("golden case simulates");
    let spikes: Vec<String> = spikes.iter().map(ToString::to_string).collect();
    let line = format!(
        "{name} {} {noise_name} seed={seed} logits={:016x} spikes={} argmax={}",
        kind.label(),
        fnv1a(logit_bits),
        spikes.join(","),
        argmax.join(","),
    );
    Case {
        kind,
        line,
        raster_spikes,
    }
}

/// Runs every (network, coding, noise, seed) case in fixture order.
fn run_all() -> Vec<Case> {
    let deletion_p = 0.5;
    let scaling = WeightScaling::for_deletion_probability(deletion_p).expect("valid p");
    let deletion = DeletionNoise::new(deletion_p).expect("valid p");
    let jitter = JitterNoise::new(1.0).expect("valid sigma");
    let composite = CompositeNoise::new()
        .then(DeletionNoise::new(deletion_p).expect("valid p"))
        .then(JitterNoise::new(1.0).expect("valid sigma"));
    let mut cases = Vec::new();
    for (name, clean) in [("mlp", mlp()), ("cnn", cnn())] {
        let mut scaled = clean.clone();
        scaling.apply(&mut scaled);
        let noises: [(&str, &SnnNetwork, &dyn SpikeTransform); 4] = [
            ("clean", &clean, &IdentityTransform),
            ("deletion0.5+ws", &scaled, &deletion),
            ("jitter1.0", &clean, &jitter),
            ("deletion0.5+ws>jitter1.0", &scaled, &composite),
        ];
        for kind in all_codings() {
            for &(noise_name, network, noise) in &noises {
                for seed in SEEDS {
                    cases.push(run_case(name, network, kind, noise_name, noise, seed));
                }
            }
        }
    }
    cases
}

/// Renders the whole fixture: one line per case.
fn render(cases: &[Case]) -> String {
    let mut out = String::new();
    for case in cases {
        writeln!(out, "{}", case.line).expect("writing to a String cannot fail");
    }
    out
}

#[test]
fn simulator_output_matches_the_committed_numerics_fixture() {
    let rendered = render(&run_all());
    let path = fixture_path();
    if std::env::var("NRSNN_NUMERICS_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("fixture has a parent dir"))
            .expect("create fixture dir");
        std::fs::write(&path, &rendered).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\n\
             generate with NRSNN_NUMERICS_BLESS=1 cargo test --test golden_numerics",
            path.display()
        )
    });
    let mismatches: Vec<String> = expected
        .lines()
        .zip(rendered.lines())
        .filter(|(e, r)| e != r)
        .map(|(e, r)| format!("  expected {e}\n  actual   {r}"))
        .collect();
    assert!(
        mismatches.is_empty() && expected.lines().count() == rendered.lines().count(),
        "simulator numerics drifted from the committed fixture \
         (see the re-bless procedure in tests/golden_numerics.rs):\n{}",
        mismatches.join("\n")
    );
}

/// The fixture must actually exercise what it claims to pin: every case
/// transmits spikes on every layer, and the TTFS/TTAS block decoders see
/// rasters on both sides of their `total_spikes > num_steps` tabulation
/// switch.
#[test]
fn golden_cases_cover_both_decode_tabulation_regimes() {
    let cases = run_all();
    let steps = TIME_STEPS as usize;
    for kind in [CodingKind::Ttfs, CodingKind::Ttas(5)] {
        let rasters: Vec<usize> = cases
            .iter()
            .filter(|c| c.kind == kind)
            .flat_map(|c| c.raster_spikes.iter().copied())
            .collect();
        assert!(
            rasters.iter().any(|&s| s > steps),
            "{}: no raster above the tabulation switch",
            kind.label()
        );
        assert!(
            rasters.iter().any(|&s| s > 0 && s <= steps),
            "{}: no raster below the tabulation switch",
            kind.label()
        );
    }
    for case in &cases {
        let spikes = case
            .line
            .split_whitespace()
            .find_map(|f| f.strip_prefix("spikes="))
            .expect("every line carries spikes=");
        assert!(
            spikes.split(',').all(|s| s != "0"),
            "case with a silent layer pins nothing: {}",
            case.line
        );
    }
}
