//! Every serving-protocol message, defined once, with its binary codec:
//! length-prefixed versioned frames.
//!
//! ```text
//! frame   := magic:u8 (0xB5)  version:u8 (2)  payload_len:u32le  payload
//! payload := tag:u8  body
//!
//! tag  frame                body
//! 0x01 InferRequest         model:str  seed:u64  input_len:u32  input: f32 bits
//! 0x02 StatsRequest         (empty)
//! 0x03 ListModelsRequest    (empty)
//! 0x04 PingRequest          (empty)
//! 0x05 TraceRequest         last:u32
//! 0x11 InferReply           model:str  predicted:u64  logit_len:u32
//!                           logits: f32 bits  total_spikes:u64  latency_us:u64
//!                           trace_id:u64
//! 0x12 StatsReply           see `ServerStats::write`
//! 0x13 ModelsReply          count:u32  (name:str)*
//! 0x14 PongReply            (empty)
//! 0x15 ErrorReply           code:str  message:str
//! 0x16 TraceReply           count:u32  (trace: see `RequestTrace::write`)*
//! 0x21 Raster               see the `raster` module
//! ```
//!
//! The magic byte `0xB5` is deliberately distinct from `{` (`0x7B`), the
//! first byte of every JSON request — the TCP front-end sniffs the first
//! byte of a connection to pick the codec, so the two alphabets must not
//! overlap.  Payload lengths are validated against [`MAX_FRAME_LEN`]
//! before any buffer is sized from them.

use std::io::{Read, Write};

use nrsnn_snn::SpikeRaster;

use crate::raster::{read_raster, write_raster};
use crate::{ByteReader, ByteWriter, Result, WireError};

/// First byte of every binary frame.  Must never equal `b'{'` (0x7B): the
/// TCP front-end distinguishes binary from JSON by this byte alone.
pub const FRAME_MAGIC: u8 = 0xB5;

/// Wire format version this build encodes and accepts.
///
/// Version history:
/// * `1` — initial format.
/// * `2` — observability: `InferReply` gained a trailing `trace_id:u64`,
///   `StatsReply` gained `batch_size_offset`, `p999_latency_us` and the
///   per-stage latency table, and the `TraceRequest`/`TraceReply` frames
///   were added.
pub const WIRE_VERSION: u8 = 2;

/// Bytes in a frame header: magic + version + `u32` payload length.
pub const FRAME_HEADER_LEN: usize = 6;

/// Hard cap on a frame payload (16 MiB).  The largest legitimate payload —
/// an infer request for the MNIST-sized models served here — is a few KiB;
/// anything near the cap is hostile and is rejected before allocation.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

const _MAGIC_IS_NOT_JSON: () = assert!(FRAME_MAGIC != b'{');

/// Parsed frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Format version (currently always [`WIRE_VERSION`]).
    pub version: u8,
    /// Payload length in bytes, already validated against
    /// [`MAX_FRAME_LEN`].
    pub payload_len: u32,
}

impl FrameHeader {
    /// Parses and validates the [`FRAME_HEADER_LEN`] header bytes:
    /// magic first, then version, then the length cap.
    ///
    /// # Errors
    /// [`WireError::Truncated`], [`WireError::BadMagic`],
    /// [`WireError::UnsupportedVersion`] or [`WireError::FrameTooLarge`].
    pub fn parse(bytes: &[u8]) -> Result<FrameHeader> {
        if bytes.len() < FRAME_HEADER_LEN {
            return Err(WireError::Truncated {
                needed: FRAME_HEADER_LEN,
                have: bytes.len(),
            });
        }
        if bytes[0] != FRAME_MAGIC {
            return Err(WireError::BadMagic { found: bytes[0] });
        }
        if bytes[1] != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion { found: bytes[1] });
        }
        let payload_len = u32::from_le_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]);
        if payload_len > MAX_FRAME_LEN {
            return Err(WireError::FrameTooLarge {
                len: u64::from(payload_len),
                max: u64::from(MAX_FRAME_LEN),
            });
        }
        Ok(FrameHeader {
            version: bytes[1],
            payload_len,
        })
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Classify one input vector under the named model (`tag 0x01`).
    Infer {
        /// Registry name of the model.
        model: String,
        /// Request seed — full u64, values above 2^53 survive.  Together
        /// with the model's master seed it fully determines the noise
        /// realisation (the server mixes the two with `derive_seed`).
        seed: u64,
        /// Dense input vector (must match the model's input width).
        input: Vec<f32>,
    },
    /// Fetch the server's metrics snapshot (`tag 0x02`).
    Stats,
    /// List the registered model names (`tag 0x03`).
    ListModels,
    /// Liveness probe (`tag 0x04`).
    Ping,
    /// Fetch the most recent request timelines from the flight recorder
    /// (`tag 0x05`).
    Trace {
        /// Maximum number of recent timelines to return (retained outliers
        /// — failed or slow requests — ride along on top of this budget).
        /// Travels as a `u32`; larger values saturate.
        last: usize,
    },
}

/// The successful result of one inference request (`tag 0x11`).
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceReply {
    /// The model that served the request.
    pub model: String,
    /// Index of the winning output neuron.
    pub predicted: usize,
    /// Output-layer activations, bit-identical to the offline
    /// `simulate_with` path for the same `(master_seed, request seed)`.
    pub logits: Vec<f32>,
    /// Total spikes transmitted during the inference (after noise).
    pub total_spikes: usize,
    /// End-to-end latency observed by the server (queue + batch wait +
    /// simulation), in microseconds.
    pub latency_us: u64,
    /// Server-unique id of this request's recorded timeline; resolve it
    /// with a `trace` request.  `0` means tracing was disabled.  Like
    /// `latency_us`, this is observability metadata and not part of the
    /// deterministic reply contract.
    pub trace_id: u64,
}

/// p50/p99 of one pipeline stage, in nanoseconds (stage durations are
/// often sub-microsecond, so µs granularity would collapse them to zero).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageLatency {
    /// Stage name (`"queue_wait"`, `"encode"`, … — see the span taxonomy
    /// in docs/ARCHITECTURE.md).
    pub stage: String,
    /// Median stage duration (ns, log-linear upper bound within ~3%).
    pub p50_ns: u64,
    /// 99th-percentile stage duration (ns, same precision).
    pub p99_ns: u64,
}

/// A point-in-time snapshot of the server's counters, as returned by the
/// `stats` request (`tag 0x12`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerStats {
    /// Validly-addressed submits, whether admitted or rejected for
    /// backpressure: at quiescence
    /// `requests_received == requests_served + failed + rejected_busy`.
    pub requests_received: u64,
    /// Requests answered successfully.
    pub requests_served: u64,
    /// Requests rejected with a `busy` error (backpressure).
    pub rejected_busy: u64,
    /// Requests that failed after being queued.
    pub failed: u64,
    /// Batches executed.
    pub batches: u64,
    /// `batch_size_histogram[i]` = number of executed batches of size
    /// `batch_size_offset + i`.  The zero head below the smallest executed
    /// batch is trimmed at snapshot time: the histogram is either empty or
    /// has nonzero first and last entries.
    pub batch_size_histogram: Vec<u64>,
    /// Mean requests per executed batch.
    pub mean_batch_size: f64,
    /// Median end-to-end latency (µs; log-linear bucket upper bound,
    /// within ~3% of the true order statistic).
    pub p50_latency_us: u64,
    /// 99th-percentile end-to-end latency (µs, same precision).
    pub p99_latency_us: u64,
    /// Exact mean end-to-end latency in microseconds.
    pub mean_latency_us: f64,
    /// Total spikes transmitted across all served inferences.
    pub total_spikes: u64,
    /// Mean spikes per served inference.
    pub spikes_per_inference: f64,
    /// Batch size of `batch_size_histogram[0]` (0 when no batches ran).
    pub batch_size_offset: u64,
    /// 99.9th-percentile end-to-end latency (µs, same precision as p50).
    pub p999_latency_us: u64,
    /// Per-stage p50/p99 durations for every stage that recorded at least
    /// one span (empty when tracing is disabled or pre-traffic).
    pub stage_latency_ns: Vec<StageLatency>,
}

/// Sentinel for "no layer" in the encoded `layer` field of a
/// [`TraceSpan`].
const TRACE_NO_LAYER: u32 = u32::MAX;

/// One stage of a recorded request timeline.
///
/// `stage` and `kernel` are the taxonomy codes of `nrsnn-obs`: stages
/// `0..=6` are `queue_wait`, `batch_assembly`, `encode`, `noise`,
/// `decode`, `simulate`, `reply_serialize`; kernels `0..=2` are none,
/// `dense`, `sparse`.  A code outside those ranges names no stage or
/// kernel.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSpan {
    /// Stage code.
    pub stage: u8,
    /// Network layer the stage ran on, when the stage is per-layer.
    /// `Some(u32::MAX)` is reserved: it encodes as "no layer".
    pub layer: Option<u32>,
    /// Start of the span, nanoseconds since the server's monotonic epoch.
    pub start_ns: u64,
    /// End of the span, nanoseconds since the server's monotonic epoch.
    pub end_ns: u64,
    /// Kernel-path code of a `simulate` span (`1` dense from this server;
    /// `2` sparse is a reserved value), `0` for other stages.
    pub kernel: u8,
    /// Measured density of the raster the layer received (0 for stages
    /// where density is not meaningful).
    pub density: f32,
}

/// One request's full recorded timeline, as returned by a `trace` request.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestTrace {
    /// Server-unique id echoed in the request's inference reply.
    pub trace_id: u64,
    /// Name of the model that served the request.
    pub model: String,
    /// The request's seed.
    pub seed: u64,
    /// Index of the batcher worker that ran the request.
    pub worker: u32,
    /// Request admission time, nanoseconds since the server's monotonic
    /// epoch.
    pub start_ns: u64,
    /// Reply-ready time, nanoseconds since the server's monotonic epoch.
    pub end_ns: u64,
    /// Whether the request succeeded (failed requests are retained as
    /// outliers with an empty span list).
    pub ok: bool,
    /// SIMD backend active on the worker (`scalar` or `avx2`).
    pub backend: String,
    /// Per-stage breakdown tiling `start_ns..end_ns`.
    pub spans: Vec<TraceSpan>,
    /// Spans discarded because the preallocated span buffer was full
    /// (always 0 with the current fixed taxonomy).
    pub dropped_spans: u32,
}

impl RequestTrace {
    /// End-to-end duration of the request in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful inference (`tag 0x11`).
    Infer(InferenceReply),
    /// Metrics snapshot (`tag 0x12`).
    Stats(ServerStats),
    /// Registered model names (`tag 0x13`).
    Models(Vec<String>),
    /// Liveness answer (`tag 0x14`).
    Pong,
    /// Recent request timelines from the flight recorder, newest first
    /// (`tag 0x16`).
    Trace(Vec<RequestTrace>),
    /// Any failure, carrying the stable error code and a human-readable
    /// message (`tag 0x15`).
    Error {
        /// Stable machine-readable code (`"busy"`, `"unknown_model"`, …).
        code: String,
        /// Human-readable description.
        message: String,
    },
}

/// One binary frame: a request, a response, or a standalone spike raster
/// for shard-to-shard transport.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A client request (tags `0x01..=0x05`).
    Request(Request),
    /// A server response (tags `0x11..=0x16`).
    Response(Response),
    /// A standalone spike raster (`tag 0x21`).
    Raster(SpikeRaster),
}

const TAG_INFER_REQUEST: u8 = 0x01;
const TAG_STATS_REQUEST: u8 = 0x02;
const TAG_LIST_MODELS_REQUEST: u8 = 0x03;
const TAG_PING_REQUEST: u8 = 0x04;
const TAG_TRACE_REQUEST: u8 = 0x05;
const TAG_INFER_REPLY: u8 = 0x11;
const TAG_STATS_REPLY: u8 = 0x12;
const TAG_MODELS_REPLY: u8 = 0x13;
const TAG_PONG_REPLY: u8 = 0x14;
const TAG_ERROR_REPLY: u8 = 0x15;
const TAG_TRACE_REPLY: u8 = 0x16;
const TAG_RASTER: u8 = 0x21;

impl Frame {
    /// The payload tag byte of this frame type.
    pub fn tag(&self) -> u8 {
        match self {
            Frame::Request(request) => match request {
                Request::Infer { .. } => TAG_INFER_REQUEST,
                Request::Stats => TAG_STATS_REQUEST,
                Request::ListModels => TAG_LIST_MODELS_REQUEST,
                Request::Ping => TAG_PING_REQUEST,
                Request::Trace { .. } => TAG_TRACE_REQUEST,
            },
            Frame::Response(response) => match response {
                Response::Infer(_) => TAG_INFER_REPLY,
                Response::Stats(_) => TAG_STATS_REPLY,
                Response::Models(_) => TAG_MODELS_REPLY,
                Response::Pong => TAG_PONG_REPLY,
                Response::Error { .. } => TAG_ERROR_REPLY,
                Response::Trace(_) => TAG_TRACE_REPLY,
            },
            Frame::Raster(_) => TAG_RASTER,
        }
    }
}

fn get_usize(r: &mut ByteReader<'_>, what: &str) -> Result<usize> {
    let v = r.get_u64()?;
    usize::try_from(v)
        .map_err(|_| WireError::InvalidPayload(format!("{what} {v} does not fit usize")))
}

impl InferenceReply {
    fn write(&self, w: &mut ByteWriter) -> Result<()> {
        w.put_str(&self.model)?;
        w.put_u64(self.predicted as u64);
        w.put_f32s(&self.logits)?;
        w.put_u64(self.total_spikes as u64);
        w.put_u64(self.latency_us);
        w.put_u64(self.trace_id);
        Ok(())
    }

    fn read(r: &mut ByteReader<'_>) -> Result<InferenceReply> {
        Ok(InferenceReply {
            model: r.get_str()?,
            predicted: get_usize(r, "predicted index")?,
            logits: r.get_f32s()?,
            total_spikes: get_usize(r, "spike count")?,
            latency_us: r.get_u64()?,
            trace_id: r.get_u64()?,
        })
    }
}

impl ServerStats {
    fn write(&self, w: &mut ByteWriter) -> Result<()> {
        w.put_u64(self.requests_received);
        w.put_u64(self.requests_served);
        w.put_u64(self.rejected_busy);
        w.put_u64(self.failed);
        w.put_u64(self.batches);
        w.put_len(self.batch_size_histogram.len())?;
        for &bucket in &self.batch_size_histogram {
            w.put_u64(bucket);
        }
        w.put_f64(self.mean_batch_size);
        w.put_u64(self.p50_latency_us);
        w.put_u64(self.p99_latency_us);
        w.put_f64(self.mean_latency_us);
        w.put_u64(self.total_spikes);
        w.put_f64(self.spikes_per_inference);
        w.put_u64(self.batch_size_offset);
        w.put_u64(self.p999_latency_us);
        w.put_len(self.stage_latency_ns.len())?;
        for entry in &self.stage_latency_ns {
            w.put_str(&entry.stage)?;
            w.put_u64(entry.p50_ns);
            w.put_u64(entry.p99_ns);
        }
        Ok(())
    }

    fn read(r: &mut ByteReader<'_>) -> Result<ServerStats> {
        let requests_received = r.get_u64()?;
        let requests_served = r.get_u64()?;
        let rejected_busy = r.get_u64()?;
        let failed = r.get_u64()?;
        let batches = r.get_u64()?;
        let len = r.get_len(8)?;
        let mut batch_size_histogram = Vec::with_capacity(len);
        for _ in 0..len {
            batch_size_histogram.push(r.get_u64()?);
        }
        let mean_batch_size = r.get_f64()?;
        let p50_latency_us = r.get_u64()?;
        let p99_latency_us = r.get_u64()?;
        let mean_latency_us = r.get_f64()?;
        let total_spikes = r.get_u64()?;
        let spikes_per_inference = r.get_f64()?;
        let batch_size_offset = r.get_u64()?;
        let p999_latency_us = r.get_u64()?;
        // Each entry costs at least its stage-name length prefix plus
        // two u64 percentiles.
        let stage_len = r.get_len(20)?;
        let mut stage_latency_ns = Vec::with_capacity(stage_len);
        for _ in 0..stage_len {
            stage_latency_ns.push(StageLatency {
                stage: r.get_str()?,
                p50_ns: r.get_u64()?,
                p99_ns: r.get_u64()?,
            });
        }
        Ok(ServerStats {
            requests_received,
            requests_served,
            rejected_busy,
            failed,
            batches,
            batch_size_histogram,
            mean_batch_size,
            p50_latency_us,
            p99_latency_us,
            mean_latency_us,
            total_spikes,
            spikes_per_inference,
            batch_size_offset,
            p999_latency_us,
            stage_latency_ns,
        })
    }
}

impl RequestTrace {
    fn write(&self, w: &mut ByteWriter) -> Result<()> {
        w.put_u64(self.trace_id);
        w.put_str(&self.model)?;
        w.put_u64(self.seed);
        w.put_u32(self.worker);
        w.put_u64(self.start_ns);
        w.put_u64(self.end_ns);
        w.put_u8(u8::from(self.ok));
        w.put_str(&self.backend)?;
        w.put_u32(self.dropped_spans);
        w.put_len(self.spans.len())?;
        for span in &self.spans {
            w.put_u8(span.stage);
            w.put_u32(span.layer.unwrap_or(TRACE_NO_LAYER));
            w.put_u64(span.start_ns);
            w.put_u64(span.end_ns);
            w.put_u8(span.kernel);
            w.put_f32(span.density);
        }
        Ok(())
    }

    fn read(r: &mut ByteReader<'_>) -> Result<RequestTrace> {
        let trace_id = r.get_u64()?;
        let model = r.get_str()?;
        let seed = r.get_u64()?;
        let worker = r.get_u32()?;
        let start_ns = r.get_u64()?;
        let end_ns = r.get_u64()?;
        let ok = match r.get_u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(WireError::InvalidPayload(format!(
                    "trace ok flag must be 0 or 1, got {other}"
                )))
            }
        };
        let backend = r.get_str()?;
        let dropped_spans = r.get_u32()?;
        // Each span is 26 fixed bytes.
        let span_count = r.get_len(26)?;
        let mut spans = Vec::with_capacity(span_count);
        for _ in 0..span_count {
            let stage = r.get_u8()?;
            let layer = r.get_u32()?;
            spans.push(TraceSpan {
                stage,
                layer: (layer != TRACE_NO_LAYER).then_some(layer),
                start_ns: r.get_u64()?,
                end_ns: r.get_u64()?,
                kernel: r.get_u8()?,
                density: r.get_f32()?,
            });
        }
        Ok(RequestTrace {
            trace_id,
            model,
            seed,
            worker,
            start_ns,
            end_ns,
            ok,
            backend,
            spans,
            dropped_spans,
        })
    }
}

/// Encodes a frame payload (tag + body, no header).
///
/// # Errors
/// [`WireError::InvalidPayload`] if a length field overflows `u32` or a
/// raster exceeds its dimension cap.
pub fn encode_payload(frame: &Frame) -> Result<Vec<u8>> {
    let mut w = ByteWriter::with_capacity(64);
    w.put_u8(frame.tag());
    match frame {
        Frame::Request(request) => match request {
            Request::Infer { model, seed, input } => {
                w.put_str(model)?;
                w.put_u64(*seed);
                w.put_f32s(input)?;
            }
            Request::Stats | Request::ListModels | Request::Ping => {}
            Request::Trace { last } => w.put_u32(u32::try_from(*last).unwrap_or(u32::MAX)),
        },
        Frame::Response(response) => match response {
            Response::Infer(reply) => reply.write(&mut w)?,
            Response::Stats(stats) => stats.write(&mut w)?,
            Response::Models(names) => {
                w.put_len(names.len())?;
                for name in names {
                    w.put_str(name)?;
                }
            }
            Response::Pong => {}
            Response::Trace(traces) => {
                w.put_len(traces.len())?;
                for trace in traces {
                    trace.write(&mut w)?;
                }
            }
            Response::Error { code, message } => {
                w.put_str(code)?;
                w.put_str(message)?;
            }
        },
        Frame::Raster(raster) => write_raster(&mut w, raster)?,
    }
    Ok(w.into_bytes())
}

/// Decodes a frame payload (tag + body), requiring every byte to be
/// consumed.
///
/// # Errors
/// Any [`WireError`] except `BadMagic`/`FrameTooLarge` (those are header
/// properties).
pub fn decode_payload(payload: &[u8]) -> Result<Frame> {
    let mut r = ByteReader::new(payload);
    let tag = r.get_u8()?;
    let frame = match tag {
        TAG_INFER_REQUEST => Frame::Request(Request::Infer {
            model: r.get_str()?,
            seed: r.get_u64()?,
            input: r.get_f32s()?,
        }),
        TAG_STATS_REQUEST => Frame::Request(Request::Stats),
        TAG_LIST_MODELS_REQUEST => Frame::Request(Request::ListModels),
        TAG_PING_REQUEST => Frame::Request(Request::Ping),
        TAG_TRACE_REQUEST => Frame::Request(Request::Trace {
            last: r.get_u32()? as usize,
        }),
        TAG_INFER_REPLY => Frame::Response(Response::Infer(InferenceReply::read(&mut r)?)),
        TAG_STATS_REPLY => Frame::Response(Response::Stats(ServerStats::read(&mut r)?)),
        TAG_MODELS_REPLY => {
            // Each name costs at least its 4-byte length prefix.
            let len = r.get_len(4)?;
            let mut names = Vec::with_capacity(len);
            for _ in 0..len {
                names.push(r.get_str()?);
            }
            Frame::Response(Response::Models(names))
        }
        TAG_PONG_REPLY => Frame::Response(Response::Pong),
        TAG_ERROR_REPLY => Frame::Response(Response::Error {
            code: r.get_str()?,
            message: r.get_str()?,
        }),
        TAG_TRACE_REPLY => {
            // Each trace costs at least its fixed-width scalar fields.
            let count = r.get_len(45)?;
            let mut traces = Vec::with_capacity(count);
            for _ in 0..count {
                traces.push(RequestTrace::read(&mut r)?);
            }
            Frame::Response(Response::Trace(traces))
        }
        TAG_RASTER => Frame::Raster(read_raster(&mut r)?),
        other => return Err(WireError::UnknownTag { tag: other }),
    };
    r.expect_exhausted()?;
    Ok(frame)
}

/// Encodes a complete frame: header plus payload.
///
/// # Errors
/// [`WireError::InvalidPayload`] for overlong fields,
/// [`WireError::FrameTooLarge`] if the payload exceeds [`MAX_FRAME_LEN`].
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>> {
    let payload = encode_payload(frame)?;
    if payload.len() as u64 > u64::from(MAX_FRAME_LEN) {
        return Err(WireError::FrameTooLarge {
            len: payload.len() as u64,
            max: u64::from(MAX_FRAME_LEN),
        });
    }
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.push(FRAME_MAGIC);
    out.push(WIRE_VERSION);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Decodes exactly one frame from `bytes`, requiring every byte to be
/// consumed.
///
/// # Errors
/// Any [`WireError`]; trailing bytes after the frame are
/// [`WireError::TrailingBytes`].
pub fn decode_frame(bytes: &[u8]) -> Result<Frame> {
    let header = FrameHeader::parse(bytes)?;
    let rest = &bytes[FRAME_HEADER_LEN..];
    let payload_len = header.payload_len as usize;
    if rest.len() < payload_len {
        return Err(WireError::Truncated {
            needed: payload_len,
            have: rest.len(),
        });
    }
    if rest.len() > payload_len {
        return Err(WireError::TrailingBytes {
            count: rest.len() - payload_len,
        });
    }
    decode_payload(rest)
}

/// Writes one frame to a stream.
///
/// # Errors
/// Encoding errors as in [`encode_frame`]; I/O failures as
/// [`WireError::Io`].
pub fn write_frame<W: Write>(writer: &mut W, frame: &Frame) -> Result<()> {
    let bytes = encode_frame(frame)?;
    writer.write_all(&bytes)?;
    Ok(())
}

/// Reads one frame from a stream: the fixed-size header first, then
/// exactly the announced payload.  The payload buffer is sized only after
/// the header passes the [`MAX_FRAME_LEN`] check.
///
/// # Errors
/// Header/payload errors as in [`decode_frame`]; a stream that ends
/// mid-frame is [`WireError::Io`].
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Frame> {
    let mut header_bytes = [0u8; FRAME_HEADER_LEN];
    reader.read_exact(&mut header_bytes)?;
    let header = FrameHeader::parse(&header_bytes)?;
    let mut payload = vec![0u8; header.payload_len as usize];
    reader.read_exact(&mut payload)?;
    decode_payload(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        let mut raster = SpikeRaster::new(8, 96);
        raster.set_train(2, vec![0, 17, 95]);
        vec![
            Frame::Request(Request::Infer {
                model: "mnist-ttas".to_string(),
                seed: (1u64 << 60) + 7, // above 2^53
                input: vec![0.0, -0.0, 1.5e-42, f32::MAX],
            }),
            Frame::Request(Request::Stats),
            Frame::Request(Request::ListModels),
            Frame::Request(Request::Ping),
            Frame::Request(Request::Trace { last: 16 }),
            Frame::Response(Response::Infer(InferenceReply {
                model: "mnist-ttas".to_string(),
                predicted: 7,
                logits: vec![-0.0, 3.25, f32::MIN_POSITIVE / 4.0],
                total_spikes: 421,
                latency_us: 1_553,
                trace_id: (1u64 << 57) + 3,
            })),
            Frame::Response(Response::Stats(ServerStats {
                requests_received: 10,
                requests_served: 9,
                rejected_busy: 1,
                failed: 0,
                batches: 4,
                batch_size_histogram: vec![1, 0, 2, 1],
                mean_batch_size: 2.25,
                p50_latency_us: 900,
                p99_latency_us: 4_100,
                mean_latency_us: 1_250.5,
                total_spikes: 3_800,
                spikes_per_inference: 422.22,
                batch_size_offset: 2,
                p999_latency_us: 9_700,
                stage_latency_ns: vec![
                    StageLatency {
                        stage: "queue_wait".to_string(),
                        p50_ns: 12_000,
                        p99_ns: 88_000,
                    },
                    StageLatency {
                        stage: "simulate".to_string(),
                        p50_ns: 640_000,
                        p99_ns: 1_900_000,
                    },
                ],
            })),
            Frame::Response(Response::Trace(vec![RequestTrace {
                trace_id: 11,
                model: "mnist-ttas".to_string(),
                seed: (1u64 << 61) + 5,
                worker: 1,
                start_ns: 5_000,
                end_ns: 905_000,
                ok: true,
                backend: "sse2".to_string(),
                spans: vec![
                    TraceSpan {
                        stage: 0, // queue_wait
                        layer: None,
                        start_ns: 5_000,
                        end_ns: 45_000,
                        kernel: 0,
                        density: 0.0,
                    },
                    TraceSpan {
                        stage: 5, // simulate
                        layer: Some(1),
                        start_ns: 45_000,
                        end_ns: 905_000,
                        kernel: 2, // sparse
                        density: 0.0625,
                    },
                ],
                dropped_spans: 0,
            }])),
            Frame::Response(Response::Models(vec![
                "a".to_string(),
                "b-ttfs".to_string(),
            ])),
            Frame::Response(Response::Pong),
            Frame::Response(Response::Error {
                code: "unknown_model".to_string(),
                message: "no model named 'x'".to_string(),
            }),
            Frame::Raster(raster),
        ]
    }

    #[test]
    fn every_frame_type_round_trips() {
        for frame in sample_frames() {
            let bytes = encode_frame(&frame).unwrap();
            assert_eq!(bytes[0], FRAME_MAGIC);
            assert_eq!(bytes[1], WIRE_VERSION);
            let back = decode_frame(&bytes).unwrap();
            // Structural equality plus re-encoded bytes, so -0.0 vs 0.0
            // cannot hide behind PartialEq.
            assert_eq!(back, frame);
            assert_eq!(encode_frame(&back).unwrap(), bytes);
        }
    }

    #[test]
    fn oversized_trace_budgets_saturate_at_u32_max() {
        let frame = Frame::Request(Request::Trace {
            last: u64::MAX as usize,
        });
        let back = decode_frame(&encode_frame(&frame).unwrap()).unwrap();
        assert_eq!(
            back,
            Frame::Request(Request::Trace {
                last: u32::MAX as usize
            })
        );
    }

    #[test]
    fn streaming_helpers_match_the_buffer_codec() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for frame in &frames {
            write_frame(&mut stream, frame).unwrap();
        }
        let mut cursor = std::io::Cursor::new(stream);
        for frame in &frames {
            assert_eq!(&read_frame(&mut cursor).unwrap(), frame);
        }
    }

    #[test]
    fn header_errors_are_ordered_and_typed() {
        assert_eq!(
            FrameHeader::parse(&[FRAME_MAGIC]),
            Err(WireError::Truncated { needed: 6, have: 1 })
        );
        assert_eq!(
            FrameHeader::parse(&[b'{', 1, 0, 0, 0, 0]),
            Err(WireError::BadMagic { found: b'{' })
        );
        assert_eq!(
            FrameHeader::parse(&[FRAME_MAGIC, 99, 0, 0, 0, 0]),
            Err(WireError::UnsupportedVersion { found: 99 })
        );
        let mut oversized = [FRAME_MAGIC, WIRE_VERSION, 0, 0, 0, 0];
        oversized[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            FrameHeader::parse(&oversized),
            Err(WireError::FrameTooLarge {
                len: u64::from(u32::MAX),
                max: u64::from(MAX_FRAME_LEN),
            })
        );
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_rejected() {
        assert_eq!(
            decode_payload(&[0x7F]),
            Err(WireError::UnknownTag { tag: 0x7F })
        );
        let mut bytes = encode_frame(&Frame::Request(Request::Ping)).unwrap();
        bytes.push(0);
        assert_eq!(
            decode_frame(&bytes),
            Err(WireError::TrailingBytes { count: 1 })
        );
        // Payload longer than its body: the tag decodes, the extra byte
        // inside the announced payload is trailing.
        let mut w = ByteWriter::new();
        w.put_u8(FRAME_MAGIC);
        w.put_u8(WIRE_VERSION);
        w.put_u32(2);
        w.put_u8(TAG_PING_REQUEST);
        w.put_u8(0xEE);
        assert_eq!(
            decode_frame(w.as_slice()),
            Err(WireError::TrailingBytes { count: 1 })
        );
    }
}
