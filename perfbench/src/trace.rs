//! Per-layer aggregation of the simulator's public stage events
//! (`SimWorkspace::set_stage_tracing`), collected by the benchmark around
//! its own `simulate_with` calls.  Nothing here instruments the library.

use nrsnn_snn::{CodingKind, SimStage, SnnLayer, SnnNetwork, StageEvent};

use crate::report::Metrics;
use crate::stats::{conv_work, linear_work, pool_work, KernelWork};

/// Deepest network any workload runs (the CNN: conv, pool, conv, pool,
/// dense, dense).  Per-layer metrics are emitted for `L0..L{MAX_LAYERS-1}`;
/// a layer a workload's network does not have reads 0.
pub const MAX_LAYERS: usize = 6;

/// The codings every workload reports, in the paper's order.
pub const CODINGS: [CodingKind; 5] = [
    CodingKind::Rate,
    CodingKind::Phase,
    CodingKind::Burst,
    CodingKind::Ttfs,
    CodingKind::Ttas(5),
];

/// Metric-name suffix of a coding.
pub fn coding_key(coding: CodingKind) -> &'static str {
    match coding {
        CodingKind::Rate => "rate",
        CodingKind::Phase => "phase",
        CodingKind::Burst => "burst",
        CodingKind::Ttfs => "ttfs",
        CodingKind::Ttas(_) => "ttas5",
    }
}

/// Which noise model a grid cell applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoiseKind {
    Clean,
    Deletion,
    Jitter,
}

impl NoiseKind {
    pub fn label(self) -> &'static str {
        match self {
            NoiseKind::Clean => "clean",
            NoiseKind::Deletion => "deletion",
            NoiseKind::Jitter => "jitter",
        }
    }
}

const STAGES: [SimStage; 4] = [
    SimStage::Encode,
    SimStage::Noise,
    SimStage::Decode,
    SimStage::Forward,
];

fn stage_index(stage: SimStage) -> usize {
    match stage {
        SimStage::Encode => 0,
        SimStage::Noise => 1,
        SimStage::Decode => 2,
        SimStage::Forward => 3,
    }
}

fn stage_label(stage: SimStage) -> &'static str {
    match stage {
        SimStage::Encode => "encode",
        SimStage::Noise => "noise",
        SimStage::Decode => "decode",
        SimStage::Forward => "forward",
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct LayerTally {
    stage_ns: [u128; 4],
    forward_events: u64,
    sparse_events: u64,
    density_sum: f64,
    spikes_sum: u64,
    flops: f64,
    bytes: f64,
}

/// Stage time of one (coding, noise kind) group of cells.
#[derive(Debug, Clone)]
struct GroupTally {
    coding: CodingKind,
    kind: NoiseKind,
    samples: u64,
    stage_ns: [u128; 4],
}

/// Accumulates stage events of traced `simulate_with` calls.
#[derive(Debug, Clone, Default)]
pub struct StageTally {
    layers: [LayerTally; MAX_LAYERS],
    groups: Vec<GroupTally>,
    samples: u64,
    /// Sum of the stage events' durations.
    events_ns: u128,
    /// Sum of the enclosing `simulate_with` call durations.
    calls_ns: u128,
}

/// Work of layer `layer` of `network` at the measured input density.
fn kernel_work(layer: &SnnLayer, density: f64, sparse: bool) -> KernelWork {
    match layer {
        SnnLayer::Linear { weights, .. } => {
            linear_work(weights.dims()[0], weights.dims()[1], density, sparse)
        }
        SnnLayer::Conv {
            weights, geometry, ..
        } => conv_work(
            geometry.out_positions(),
            geometry.patch_len(),
            weights.dims()[0],
            density,
            sparse,
        ),
        SnnLayer::AvgPool { .. } => pool_work(layer.input_width(), layer.output_width()),
    }
}

impl StageTally {
    /// Adds one traced simulation: its stage `events`, the duration of the
    /// `simulate_with` call that produced them, and the per-layer spike
    /// counts it left in the workspace.
    pub fn record(
        &mut self,
        network: &SnnNetwork,
        coding: CodingKind,
        kind: NoiseKind,
        events: &[StageEvent],
        call_ns: u128,
        spikes_per_layer: &[usize],
    ) {
        self.samples += 1;
        self.calls_ns += call_ns;
        let group = match self
            .groups
            .iter()
            .position(|g| g.coding == coding && g.kind == kind)
        {
            Some(i) => i,
            None => {
                self.groups.push(GroupTally {
                    coding,
                    kind,
                    samples: 0,
                    stage_ns: [0; 4],
                });
                self.groups.len() - 1
            }
        };
        self.groups[group].samples += 1;
        for event in events {
            let ns = event.end.duration_since(event.start).as_nanos();
            let stage = stage_index(event.stage);
            self.events_ns += ns;
            self.groups[group].stage_ns[stage] += ns;
            let index = event.layer as usize;
            let Some(layer) = self.layers.get_mut(index) else {
                continue;
            };
            layer.stage_ns[stage] += ns;
            if event.stage == SimStage::Forward {
                layer.forward_events += 1;
                layer.sparse_events += u64::from(event.sparse);
                layer.density_sum += f64::from(event.density);
                if let Some(net_layer) = network.layers().get(index) {
                    let work = kernel_work(net_layer, f64::from(event.density), event.sparse);
                    layer.flops += work.flops;
                    layer.bytes += work.bytes;
                }
            }
        }
        for (layer, &spikes) in self.layers.iter_mut().zip(spikes_per_layer) {
            layer.spikes_sum += spikes as u64;
        }
    }

    /// Share of the timed `simulate_with` calls that the stage events tile.
    pub fn coverage(&self) -> f64 {
        if self.calls_ns == 0 {
            0.0
        } else {
            self.events_ns as f64 / self.calls_ns as f64
        }
    }

    fn per_sample_us(ns: u128, samples: u64) -> f64 {
        if samples == 0 {
            0.0
        } else {
            ns as f64 / samples as f64 / 1_000.0
        }
    }

    /// Noise time per sample over the cells of `kind` (0 without such
    /// cells).
    fn noise_us(&self, kind: NoiseKind) -> f64 {
        let (ns, samples) = self
            .groups
            .iter()
            .filter(|g| g.kind == kind)
            .fold((0u128, 0u64), |(ns, n), g| {
                (ns + g.stage_ns[1], n + g.samples)
            });
        Self::per_sample_us(ns, samples)
    }

    /// Noise share of stage time over the noisy cells of `coding`.
    fn noise_share(&self, coding: CodingKind) -> f64 {
        let (noise, total) = self
            .groups
            .iter()
            .filter(|g| g.coding == coding && g.kind != NoiseKind::Clean)
            .fold((0u128, 0u128), |(noise, total), g| {
                (
                    noise + g.stage_ns[1],
                    total + g.stage_ns.iter().sum::<u128>(),
                )
            });
        if total == 0 {
            0.0
        } else {
            noise as f64 / total as f64
        }
    }

    /// Pushes the snn/noise/tensor per-layer metrics.
    pub fn push_metrics(&self, metrics: &mut Metrics) {
        let n = self.samples;
        for (i, layer) in self.layers.iter().enumerate() {
            let events = layer.forward_events.max(1) as f64;
            metrics.push(
                &format!("snn.L{i}.encode_us"),
                Self::per_sample_us(layer.stage_ns[0], n),
                "us",
            );
            metrics.push(
                &format!("snn.L{i}.decode_us"),
                Self::per_sample_us(layer.stage_ns[2], n),
                "us",
            );
            metrics.push(
                &format!("snn.L{i}.density"),
                layer.density_sum / events,
                "ratio",
            );
            metrics.push(
                &format!("snn.L{i}.sparse_share"),
                layer.sparse_events as f64 / events,
                "ratio",
            );
            metrics.push(
                &format!("snn.L{i}.spikes"),
                layer.spikes_sum as f64 / n.max(1) as f64,
                "count",
            );
            let forward_s = layer.stage_ns[3] as f64 / 1e9;
            let (gflops, gbps) = if forward_s > 0.0 {
                (layer.flops / forward_s / 1e9, layer.bytes / forward_s / 1e9)
            } else {
                (0.0, 0.0)
            };
            metrics.push(
                &format!("tensor.L{i}.forward_us"),
                Self::per_sample_us(layer.stage_ns[3], n),
                "us",
            );
            metrics.push(&format!("tensor.L{i}.gflops"), gflops, "GFLOP/s");
            metrics.push(&format!("tensor.L{i}.gbps"), gbps, "GB/s");
        }
        metrics.push("snn.coverage", self.coverage(), "ratio");
        metrics.push(
            "noise.deletion_us",
            self.noise_us(NoiseKind::Deletion),
            "us",
        );
        metrics.push("noise.jitter_us", self.noise_us(NoiseKind::Jitter), "us");
        for coding in CODINGS {
            metrics.push(
                &format!("noise.share.{}", coding_key(coding)),
                self.noise_share(coding),
                "ratio",
            );
        }
    }

    /// Human-readable stage-share table, one row per (coding, noise kind).
    pub fn print_shares(&self) {
        say!(
            "stage shares of traced simulate time ({} samples; kernel ops and bytes are \
             computed from tensor sizes and measured density, not counted):",
            self.samples
        );
        let header: Vec<String> = STAGES
            .iter()
            .map(|&s| format!("{:>8}", stage_label(s)))
            .collect();
        say!(
            "  {:<10} {:<9} {} {:>12}",
            "coding",
            "noise",
            header.join(" "),
            "us/sample"
        );
        for g in &self.groups {
            let total = g.stage_ns.iter().sum::<u128>().max(1) as f64;
            let shares: Vec<String> = STAGES
                .iter()
                .map(|&s| {
                    format!(
                        "{:>7.1}%",
                        g.stage_ns[stage_index(s)] as f64 * 100.0 / total
                    )
                })
                .collect();
            say!(
                "  {:<10} {:<9} {} {:>12.1}",
                g.coding.label(),
                g.kind.label(),
                shares.join(" "),
                Self::per_sample_us(g.stage_ns.iter().sum(), g.samples)
            );
        }
    }
}
