//! Serving observability: sharded counters, log-linear latency histograms,
//! per-stage percentiles and the flight recorder.
//!
//! Every hot-path record lands in the recording worker's **own shard** —
//! `Relaxed` atomics for counters/histograms, an uncontended per-worker
//! mutex for the batch-size histogram and the flight recorder — so workers
//! never contend with each other on metrics. Shards are aggregated only in
//! [`Metrics::snapshot`], on the stats-scrape path. (The previous design
//! funnelled every request through one `Mutex<MetricsInner>`.)
//!
//! Latencies use the log-linear histograms of `nrsnn-obs`: reported
//! p50/p99/p999 are upper bounds within ~3% of the true order statistic
//! (the old octave buckets could overshoot by almost 2x); means stay exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
// nrsnn-lint: allow(forbidden-api) -- Instant anchors the process epoch
// exactly once, in MetricsEpoch::new; every later stamp derives from the
// obs MonotonicClock against that anchor.
use std::time::Instant;

use nrsnn_obs::{
    FlightRecorder, MonotonicClock, RecorderConfig, ShardedCounter, ShardedHistogram, Stage,
    TraceRecord,
};

use crate::protocol::{ServerStats, StageLatency};

/// Flight-recorder sizing: per worker, the last `RECENT_TRACES` request
/// timelines plus up to `OUTLIER_TRACES` retained slow/failed outliers.
const RECENT_TRACES: usize = 256;
const OUTLIER_TRACES: usize = 32;
/// A successful request at least this slow is retained as an outlier.
const SLOW_TRACE_NS: u64 = 100_000_000; // 100 ms

/// Sharded, thread-safe metrics sink of one server.
///
/// Shard layout: one shard per batcher worker (indices `0..workers`) plus
/// one extra *submit shard* (index `workers`) taken by the submission path
/// (received/busy counts under the queue lock) and the [`Drop`] safety net
/// of stranded requests — neither of which runs on a worker thread.
#[derive(Debug)]
pub(crate) struct Metrics {
    clock: MonotonicClock,
    tracing: bool,
    /// Next trace id to hand out; ids start at 1 so `0` can mean "tracing
    /// off" in replies.
    next_trace_id: AtomicU64,
    workers: usize,
    received: ShardedCounter,
    rejected_busy: ShardedCounter,
    failed: ShardedCounter,
    batches: ShardedCounter,
    total_spikes: ShardedCounter,
    /// End-to-end latency in µs; its count is the served-request count.
    latency_us: ShardedHistogram,
    /// Per-stage durations in ns, indexed by [`Stage::code`].
    stage_ns: Vec<ShardedHistogram>,
    /// Per-worker batch-size tallies (`tally[s]` = batches of size `s`);
    /// uncontended single-writer mutexes, merged and zero-head-trimmed at
    /// snapshot time.
    batch_sizes: Vec<Mutex<Vec<u64>>>,
    recorder: FlightRecorder,
}

impl Metrics {
    pub(crate) fn new(workers: usize, tracing: bool) -> Metrics {
        let workers = workers.max(1);
        let shards = workers + 1;
        Metrics {
            clock: MonotonicClock::new(),
            tracing,
            next_trace_id: AtomicU64::new(1),
            workers,
            received: ShardedCounter::new(shards),
            rejected_busy: ShardedCounter::new(shards),
            failed: ShardedCounter::new(shards),
            batches: ShardedCounter::new(shards),
            total_spikes: ShardedCounter::new(shards),
            latency_us: ShardedHistogram::new(shards),
            stage_ns: Stage::ALL
                .iter()
                .map(|_| ShardedHistogram::new(shards))
                .collect(),
            batch_sizes: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            recorder: FlightRecorder::new(RecorderConfig {
                shards: workers,
                recent_capacity: if tracing { RECENT_TRACES } else { 0 },
                outlier_capacity: if tracing { OUTLIER_TRACES } else { 0 },
                slow_threshold_ns: SLOW_TRACE_NS,
            }),
        }
    }

    /// The shard the submission path and drop safety net record into.
    fn submit_shard(&self) -> usize {
        self.workers
    }

    /// Whether per-request tracing (stage spans + flight recorder) is on.
    pub(crate) fn tracing(&self) -> bool {
        self.tracing
    }

    /// Hands out the next server-unique trace id (starting at 1).
    pub(crate) fn next_trace_id(&self) -> u64 {
        // ORDERING: Relaxed — fetch_add is already atomic, so ids are
        // unique; no other memory is published alongside the counter.
        self.next_trace_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Nanoseconds between the metrics epoch and `at` (saturating).
    pub(crate) fn ns_since_epoch(&self, at: Instant) -> u64 {
        self.clock.ns_since_epoch(at)
    }

    /// The flight recorder holding recent request timelines.
    pub(crate) fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Records one finished request timeline into the recording worker's
    /// recorder shard. Allocation-free after warm-up.
    pub(crate) fn record_trace(&self, worker: usize, trace: &TraceRecord) {
        self.recorder.record(worker, trace);
    }

    pub(crate) fn record_received(&self) {
        self.received.incr(self.submit_shard());
    }

    pub(crate) fn record_busy(&self) {
        self.rejected_busy.incr(self.submit_shard());
    }

    pub(crate) fn record_failed(&self, requests: u64) {
        self.failed.add(self.submit_shard(), requests);
    }

    pub(crate) fn record_batch(&self, worker: usize, size: usize) {
        self.batches.incr(worker);
        // UNWRAP: lock poisoning — a recorder panicked mid-tally; stats are already suspect.
        let mut tally = self.batch_sizes[worker].lock().expect("batch-size lock");
        if tally.len() <= size {
            tally.resize(size + 1, 0);
        }
        tally[size] += 1;
    }

    pub(crate) fn record_served(&self, worker: usize, latency_us: u64, spikes: u64) {
        self.latency_us.record(worker, latency_us);
        self.total_spikes.add(worker, spikes);
    }

    /// Records one stage span duration into the worker's per-stage
    /// histogram.
    pub(crate) fn record_stage(&self, worker: usize, stage: Stage, duration_ns: u64) {
        self.stage_ns[stage.code() as usize].record(worker, duration_ns);
    }

    pub(crate) fn snapshot(&self) -> ServerStats {
        // Aggregate the shards once, here on the scrape path — the record
        // paths above never see each other.
        let latency = self.latency_us.snapshot();
        // One shared zero-traffic guard for every served-derived statistic:
        // before any request is served, percentiles, means and ratios are
        // all well-defined zeros.
        let served = latency.count();
        let per_served = |total: u64| -> f64 {
            if served == 0 {
                0.0
            } else {
                total as f64 / served as f64
            }
        };

        // Merge the per-worker batch-size tallies, then trim the zero head
        // (sizes below the smallest executed batch — including the size-0
        // slot that can never occur) into `batch_size_offset`.  Invariant:
        // the trimmed histogram is empty, or its first and last entries are
        // both nonzero.
        let mut merged: Vec<u64> = Vec::new();
        for shard in &self.batch_sizes {
            // UNWRAP: lock poisoning — same batch-size-lock argument as `record_batch`.
            let tally = shard.lock().expect("batch-size lock");
            if tally.len() > merged.len() {
                merged.resize(tally.len(), 0);
            }
            for (size, &count) in tally.iter().enumerate() {
                merged[size] += count;
            }
        }
        let batched_requests: u64 = merged
            .iter()
            .enumerate()
            .map(|(size, &count)| size as u64 * count)
            .sum();
        let first_nonzero = merged.iter().position(|&c| c != 0);
        let (batch_size_offset, batch_size_histogram) = match first_nonzero {
            Some(first) => (first as u64, merged.split_off(first)),
            None => (0, Vec::new()),
        };

        let batches = self.batches.total();
        let stage_latency_ns = Stage::ALL
            .iter()
            .filter_map(|&stage| {
                let hist = self.stage_ns[stage.code() as usize].snapshot();
                if hist.count() == 0 {
                    return None;
                }
                Some(StageLatency {
                    stage: stage.as_str().to_string(),
                    p50_ns: hist.value_at_quantile(0.50),
                    p99_ns: hist.value_at_quantile(0.99),
                })
            })
            .collect();

        ServerStats {
            requests_received: self.received.total(),
            requests_served: served,
            rejected_busy: self.rejected_busy.total(),
            failed: self.failed.total(),
            batches,
            batch_size_histogram,
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                batched_requests as f64 / batches as f64
            },
            p50_latency_us: latency.value_at_quantile(0.50),
            p99_latency_us: latency.value_at_quantile(0.99),
            mean_latency_us: latency.mean(),
            total_spikes: self.total_spikes.total(),
            spikes_per_inference: per_served(self.total_spikes.total()),
            batch_size_offset,
            p999_latency_us: latency.value_at_quantile(0.999),
            stage_latency_ns,
        }
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new(1, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::JsonCodec;

    #[test]
    fn snapshot_reflects_recorded_traffic() {
        let m = Metrics::default();
        for _ in 0..10 {
            m.record_received();
        }
        m.record_batch(0, 4);
        m.record_batch(0, 6);
        for i in 0..10u64 {
            m.record_served(0, 100 + i, 50);
        }
        m.record_busy();
        let stats = m.snapshot();
        assert_eq!(stats.requests_received, 10);
        assert_eq!(stats.requests_served, 10);
        assert_eq!(stats.rejected_busy, 1);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.mean_batch_size, 5.0);
        // Zero head trimmed: sizes 0..=3 disappear into the offset.
        assert_eq!(stats.batch_size_offset, 4);
        assert_eq!(stats.batch_size_histogram, vec![1, 0, 1]);
        assert_eq!(stats.total_spikes, 500);
        assert_eq!(stats.spikes_per_inference, 50.0);
        // The log-linear buckets are exact to within 1/32 (~3%): latencies
        // of 100..110 µs report percentiles inside [100, 113], not the old
        // octave ceiling of 128.
        assert!(
            (100..=113).contains(&stats.p50_latency_us),
            "p50 {}",
            stats.p50_latency_us
        );
        assert!((100..=113).contains(&stats.p99_latency_us));
        assert!((100..=113).contains(&stats.p999_latency_us));
        assert!(stats.p50_latency_us <= stats.p99_latency_us);
        assert!(stats.p99_latency_us <= stats.p999_latency_us);
        assert!((stats.mean_latency_us - 104.5).abs() < 1e-9);
    }

    /// The shards really are independent sinks: traffic recorded through
    /// different worker shards (and the submit shard) aggregates to one
    /// coherent snapshot.
    #[test]
    fn shards_aggregate_only_at_snapshot() {
        let m = Metrics::new(3, true);
        m.record_received(); // submit shard
        m.record_batch(0, 1);
        m.record_batch(2, 3);
        m.record_served(0, 10, 5);
        m.record_served(1, 20, 5);
        m.record_served(2, 30, 5);
        m.record_failed(1);
        let stats = m.snapshot();
        assert_eq!(stats.requests_served, 3);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.total_spikes, 15);
        assert_eq!(stats.batch_size_offset, 1);
        assert_eq!(stats.batch_size_histogram, vec![1, 0, 1]);
        assert!((stats.mean_latency_us - 20.0).abs() < 1e-9);
    }

    #[test]
    fn mean_batch_size_counts_batched_requests_even_when_they_fail() {
        let m = Metrics::default();
        m.record_batch(0, 8); // all 8 requests of this batch later fail
        m.record_failed(8);
        m.record_batch(0, 4);
        for _ in 0..4 {
            m.record_served(0, 10, 1);
        }
        let stats = m.snapshot();
        assert_eq!(stats.mean_batch_size, 6.0); // (8 + 4) / 2, not 4 / 2
    }

    /// A stats request before any traffic must return well-defined zeros in
    /// **every** field — no phantom bucket ceilings from clamped ranks, no
    /// NaNs from zero denominators.
    #[test]
    fn empty_metrics_snapshot_is_all_zero() {
        let stats = Metrics::default().snapshot();
        assert_eq!(stats.requests_received, 0);
        assert_eq!(stats.requests_served, 0);
        assert_eq!(stats.rejected_busy, 0);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.batches, 0);
        assert!(stats.batch_size_histogram.is_empty());
        assert_eq!(stats.batch_size_offset, 0);
        assert_eq!(stats.mean_batch_size, 0.0);
        assert_eq!(stats.p50_latency_us, 0);
        assert_eq!(stats.p99_latency_us, 0);
        assert_eq!(stats.p999_latency_us, 0);
        assert_eq!(stats.mean_latency_us.to_bits(), 0.0f64.to_bits());
        assert_eq!(stats.total_spikes, 0);
        assert_eq!(stats.spikes_per_inference.to_bits(), 0.0f64.to_bits());
        assert!(stats.stage_latency_ns.is_empty());
    }

    /// Receiving (or bouncing) requests without serving any must still keep
    /// the served-derived statistics at zero: the percentile path and the
    /// mean path share one guard.
    #[test]
    fn received_but_unserved_traffic_keeps_served_statistics_zero() {
        let m = Metrics::default();
        m.record_received();
        m.record_received();
        m.record_busy();
        m.record_batch(0, 2);
        m.record_failed(2);
        let stats = m.snapshot();
        assert_eq!(stats.requests_received, 2);
        assert_eq!(stats.requests_served, 0);
        assert_eq!(stats.rejected_busy, 1);
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.p50_latency_us, 0);
        assert_eq!(stats.p99_latency_us, 0);
        assert_eq!(stats.p999_latency_us, 0);
        assert_eq!(stats.mean_latency_us, 0.0);
        assert_eq!(stats.spikes_per_inference, 0.0);
        // Batch statistics are batch-derived, not served-derived.
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.mean_batch_size, 2.0);
    }

    #[test]
    fn tail_percentiles_separate_the_outliers() {
        let m = Metrics::default();
        for _ in 0..99 {
            m.record_served(0, 10, 0);
        }
        m.record_served(0, 1_000_000, 0);
        let stats = m.snapshot();
        assert_eq!(stats.p50_latency_us, 10); // exact below 32
        assert!(stats.p99_latency_us <= 10);
        // The single 1-in-100 outlier shows up at p999 but not p99.
        assert!(stats.p999_latency_us >= 1_000_000);
        let m2 = Metrics::default();
        for _ in 0..50 {
            m2.record_served(0, 10, 0);
        }
        for _ in 0..50 {
            m2.record_served(0, 1_000_000, 0);
        }
        assert!(m2.snapshot().p99_latency_us >= 1_000_000);
    }

    /// The trimmed batch histogram invariant: empty, or first and last
    /// entries nonzero, with `batch_size_offset` mapping index 0 back to a
    /// real size.
    #[test]
    fn batch_histogram_trims_its_zero_head() {
        let m = Metrics::default();
        assert!(m.snapshot().batch_size_histogram.is_empty());
        m.record_batch(0, 7);
        m.record_batch(0, 9);
        let stats = m.snapshot();
        assert_eq!(stats.batch_size_offset, 7);
        assert_eq!(stats.batch_size_histogram, vec![1, 0, 1]);
        assert_ne!(*stats.batch_size_histogram.first().unwrap(), 0);
        assert_ne!(*stats.batch_size_histogram.last().unwrap(), 0);
        // Reconstructed sizes drive the mean: (7 + 9) / 2.
        assert_eq!(stats.mean_batch_size, 8.0);
        // A size-1 batch grows the head back down to offset 1 (size 0 can
        // never occur, so the offset never reaches 0 once traffic exists).
        m.record_batch(0, 1);
        let stats = m.snapshot();
        assert_eq!(stats.batch_size_offset, 1);
        assert_eq!(stats.batch_size_histogram.len(), 9);
    }

    #[test]
    fn stage_latencies_appear_per_recorded_stage() {
        let m = Metrics::new(2, true);
        for _ in 0..10 {
            m.record_stage(0, Stage::Encode, 1_000);
            m.record_stage(1, Stage::Simulate, 50_000);
        }
        m.record_stage(1, Stage::Simulate, 5_000_000);
        let stats = m.snapshot();
        assert_eq!(stats.stage_latency_ns.len(), 2);
        let encode = &stats.stage_latency_ns[0];
        assert_eq!(encode.stage, "encode");
        assert!(
            (1_000..=1_032).contains(&encode.p50_ns),
            "{}",
            encode.p50_ns
        );
        let simulate = &stats.stage_latency_ns[1];
        assert_eq!(simulate.stage, "simulate");
        assert!(simulate.p50_ns < 52_000);
        assert!(simulate.p99_ns >= 5_000_000);
    }

    #[test]
    fn trace_ids_are_unique_and_start_at_one() {
        let m = Metrics::default();
        assert!(m.tracing());
        assert_eq!(m.next_trace_id(), 1);
        assert_eq!(m.next_trace_id(), 2);
        let off = Metrics::new(1, false);
        assert!(!off.tracing());
    }

    #[test]
    fn stats_round_trip_through_json() {
        let m = Metrics::default();
        m.record_received();
        m.record_batch(0, 1);
        m.record_served(0, 250, 42);
        m.record_stage(0, Stage::QueueWait, 125_000);
        let stats = m.snapshot();
        let json = stats.to_json().to_string();
        let back = ServerStats::from_json(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(back, stats);
    }

    /// Backward compatibility: a pre-observability stats JSON (no offset,
    /// p999 or stage map) still decodes, with the new fields at their zero
    /// values.
    #[test]
    fn legacy_stats_json_still_decodes() {
        let legacy = r#"{
            "requests_received": 3, "requests_served": 2, "rejected_busy": 0,
            "failed": 1, "batches": 2, "batch_size_histogram": [0, 2],
            "mean_batch_size": 1.0, "p50_latency_us": 128,
            "p99_latency_us": 256, "mean_latency_us": 100.5,
            "total_spikes": 84, "spikes_per_inference": 42.0
        }"#;
        let stats = ServerStats::from_json(&serde_json::from_str(legacy).unwrap()).unwrap();
        assert_eq!(stats.requests_served, 2);
        assert_eq!(stats.batch_size_offset, 0);
        assert_eq!(stats.p999_latency_us, 0);
        assert!(stats.stage_latency_ns.is_empty());
    }
}
