//! The span taxonomy: every microsecond of a served request is attributed
//! to exactly one [`Stage`], and a request's full timeline is a
//! [`TraceRecord`] — a flat list of [`Span`]s that tile the interval from
//! enqueue to reply.

/// The pipeline stage a [`Span`] is attributed to. Stages are ordered the
/// way a request experiences them; per-layer stages (encode, noise, decode,
/// simulate) repeat once per network layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// From request admission to the worker sealing the batch it rides in.
    QueueWait,
    /// From batch seal to this request's own simulation starting: input
    /// flattening plus the simulation time of earlier batch companions.
    BatchAssembly,
    /// Analog-to-spike conversion of a layer's input vector.
    Encode,
    /// Synaptic-noise corruption of the transmitted raster.
    Noise,
    /// Spike-to-analog PSC decode of the received raster.
    Decode,
    /// The layer forward pass.
    Simulate,
    /// From simulation end to the reply being recorded: logits copy and
    /// response construction.
    ReplySerialize,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 7] = [
        Stage::QueueWait,
        Stage::BatchAssembly,
        Stage::Encode,
        Stage::Noise,
        Stage::Decode,
        Stage::Simulate,
        Stage::ReplySerialize,
    ];

    /// Stable single-byte code (the binary wire encoding).
    pub fn code(self) -> u8 {
        match self {
            Stage::QueueWait => 0,
            Stage::BatchAssembly => 1,
            Stage::Encode => 2,
            Stage::Noise => 3,
            Stage::Decode => 4,
            Stage::Simulate => 5,
            Stage::ReplySerialize => 6,
        }
    }

    /// Inverse of [`Stage::code`].
    pub fn from_code(code: u8) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.code() == code)
    }

    /// Stable snake_case name (the JSON wire encoding).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::BatchAssembly => "batch_assembly",
            Stage::Encode => "encode",
            Stage::Noise => "noise",
            Stage::Decode => "decode",
            Stage::Simulate => "simulate",
            Stage::ReplySerialize => "reply_serialize",
        }
    }

    /// Inverse of [`Stage::as_str`].
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.as_str() == name)
    }
}

/// Which matrix kernel a [`Stage::Simulate`] span took; `None` for stages
/// where the question does not apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// Not a kernel-dispatching stage.
    None,
    /// Dense forward: every column scanned.  The simulator's single
    /// forward kernel, so every `Simulate` span carries this tag.
    Dense,
    /// Sparse gather: only the active column set touched.  No longer
    /// produced by the simulator; the code stays reserved on the wire so
    /// recorded traces keep decoding.
    Sparse,
}

impl KernelPath {
    /// Stable single-byte code (the binary wire encoding).
    pub fn code(self) -> u8 {
        match self {
            KernelPath::None => 0,
            KernelPath::Dense => 1,
            KernelPath::Sparse => 2,
        }
    }

    /// Inverse of [`KernelPath::code`].
    pub fn from_code(code: u8) -> Option<KernelPath> {
        match code {
            0 => Some(KernelPath::None),
            1 => Some(KernelPath::Dense),
            2 => Some(KernelPath::Sparse),
            _ => None,
        }
    }

    /// Stable name for the JSON encoding; `None` when not applicable.
    pub fn as_str(self) -> Option<&'static str> {
        match self {
            KernelPath::None => None,
            KernelPath::Dense => Some("dense"),
            KernelPath::Sparse => Some("sparse"),
        }
    }
}

/// One timed interval of a request's life, attributed to a [`Stage`].
/// Timestamps are nanoseconds since the owning clock's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// What the time was spent on.
    pub stage: Stage,
    /// Network layer index for per-layer stages; `None` for request-level
    /// stages (queue wait, batch assembly, reply serialization).
    pub layer: Option<u32>,
    /// Span start, ns since epoch.
    pub start_ns: u64,
    /// Span end, ns since epoch (`>= start_ns`).
    pub end_ns: u64,
    /// Kernel taken by a simulate span; [`KernelPath::None`] otherwise.
    pub kernel: KernelPath,
    /// Measured density of the raster the layer received; `0.0` for
    /// non-simulate spans.
    pub density: f32,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The full recorded timeline of one request: identity, outcome, and the
/// spans that tile `start_ns..end_ns`.
///
/// `Default` produces an empty record whose `spans` buffer can be reused —
/// the flight recorder preallocates rings of these and refills them with
/// [`TraceRecord::copy_from`], which allocates nothing once the buffer has
/// grown to the workload's span count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceRecord {
    /// Server-unique request id (also carried in the reply).
    pub trace_id: u64,
    /// Model registry index (resolved to a name at the protocol edge).
    pub model: u32,
    /// The request's seed.
    pub seed: u64,
    /// Worker thread that served the request.
    pub worker: u32,
    /// Request admission time, ns since the metrics epoch.
    pub start_ns: u64,
    /// Reply completion time, ns since the metrics epoch.
    pub end_ns: u64,
    /// Whether the request produced a successful reply.
    pub ok: bool,
    /// Active SIMD backend name (`"scalar"` or `"avx2"`).
    pub backend: &'static str,
    /// The per-stage breakdown, in chronological order.
    pub spans: Vec<Span>,
    /// Spans discarded because the staging buffer hit its cap (0 in
    /// practice; nonzero flags a truncated timeline to consumers).
    pub dropped_spans: u32,
}

impl TraceRecord {
    /// End-to-end duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Overwrites `self` with `other`, reusing the span buffer: `clear` +
    /// `extend_from_slice`, so no allocation once capacity suffices. (The
    /// derived `clone_from` would reallocate the span `Vec` every call.)
    pub fn copy_from(&mut self, other: &TraceRecord) {
        self.trace_id = other.trace_id;
        self.model = other.model;
        self.seed = other.seed;
        self.worker = other.worker;
        self.start_ns = other.start_ns;
        self.end_ns = other.end_ns;
        self.ok = other.ok;
        self.backend = other.backend;
        self.spans.clear();
        self.spans.extend_from_slice(&other.spans);
        self.dropped_spans = other.dropped_spans;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_codes_and_names_round_trip() {
        for stage in Stage::ALL {
            assert_eq!(Stage::from_code(stage.code()), Some(stage));
            assert_eq!(Stage::from_name(stage.as_str()), Some(stage));
        }
        assert_eq!(Stage::from_code(7), None);
        assert_eq!(Stage::from_name("warp_drive"), None);
    }

    #[test]
    fn kernel_codes_round_trip() {
        for kernel in [KernelPath::None, KernelPath::Dense, KernelPath::Sparse] {
            assert_eq!(KernelPath::from_code(kernel.code()), Some(kernel));
        }
        assert_eq!(KernelPath::from_code(3), None);
        assert_eq!(KernelPath::Dense.as_str(), Some("dense"));
        assert_eq!(KernelPath::None.as_str(), None);
    }

    #[test]
    fn copy_from_reuses_the_span_buffer() {
        let source = TraceRecord {
            trace_id: 7,
            spans: vec![
                Span {
                    stage: Stage::QueueWait,
                    layer: None,
                    start_ns: 0,
                    end_ns: 10,
                    kernel: KernelPath::None,
                    density: 0.0,
                };
                4
            ],
            ..TraceRecord::default()
        };
        let mut slot = TraceRecord::default();
        slot.spans.reserve(4);
        let capacity = slot.spans.capacity();
        slot.copy_from(&source);
        assert_eq!(slot, source);
        assert_eq!(slot.spans.capacity(), capacity);
        assert_eq!(slot.spans[0].duration_ns(), 10);
    }
}
