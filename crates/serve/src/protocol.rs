//! The newline-delimited JSON wire protocol of the TCP front-end.
//!
//! Every request and every response is one compact JSON object on one line,
//! discriminated by its `"type"` field:
//!
//! ```text
//! -> {"type":"infer","model":"fig7","seed":"42","input":[0.1,0.9]}
//! <- {"type":"infer","model":"fig7","predicted":1,"logits":[...],"total_spikes":512,"latency_us":830}
//! -> {"type":"stats"}
//! <- {"type":"stats","stats":{...}}
//! -> {"type":"list_models"}
//! <- {"type":"models","models":["fig7"]}
//! -> {"type":"ping"}
//! <- {"type":"pong"}
//! -> {"type":"trace","last":16}
//! <- {"type":"trace","traces":[{"trace_id":"7","spans":[...],...}]}
//! <- {"type":"error","code":"busy","message":"server busy: ..."}
//! ```
//!
//! The message types are defined once, in `nrsnn-wire`, next to their
//! binary codec; this module re-exports them and adds the JSON codec
//! ([`JsonCodec`]).  Trace spans carry `nrsnn-obs` taxonomy codes; the JSON
//! codec spells them as stage and kernel names.
//!
//! Seeds travel as **strings** (`"seed":"42"`): JSON numbers are IEEE
//! doubles, which would silently truncate seeds above 2^53 and break the
//! bit-exact determinism contract.  Numeric seeds are still accepted on
//! input when they are strictly below 2^53 (2^53 itself is rejected even
//! though it is representable, because 2^53 + 1 collides with it after
//! parsing and could not be told apart).

use nrsnn_obs::{KernelPath, Stage};
use serde::{DeError, Deserialize, Serialize, Value};

pub use nrsnn_wire::{
    InferenceReply, Request, RequestTrace, Response, ServerStats, StageLatency, TraceSpan,
};

use crate::ServeError;

/// Largest integer exactly representable as an IEEE double (2^53).
const MAX_EXACT_F64_INT: f64 = 9_007_199_254_740_992.0;

/// Taxonomy code stored for a stage or kernel name outside the `nrsnn-obs`
/// taxonomy (the same out-of-range code the binary wire carries).
const UNKNOWN_CODE: u8 = u8::MAX;

/// Encodes a seed for the wire (always a decimal string).
fn seed_to_value(seed: u64) -> Value {
    Value::String(seed.to_string())
}

/// Decodes a seed from either a decimal string or an exactly-representable
/// JSON number.
fn seed_from_value(value: &Value) -> std::result::Result<u64, DeError> {
    match value {
        Value::String(s) => s
            .trim()
            .parse::<u64>()
            .map_err(|_| DeError::new(format!("seed {s:?} is not a u64"))),
        Value::Number(n) => {
            if n.fract() == 0.0 && (0.0..MAX_EXACT_F64_INT).contains(n) {
                Ok(*n as u64)
            } else {
                Err(DeError::new(format!(
                    "numeric seed {n} is not an exactly-representable non-negative integer; \
                     send seeds as strings"
                )))
            }
        }
        other => Err(DeError::new(format!("expected seed, got {other:?}"))),
    }
}

/// The JSON half of a protocol message's codec.  (The serde traits cannot
/// be implemented here: neither they nor the message types belong to this
/// crate.)
pub trait JsonCodec: Sized {
    /// Converts the message into the JSON data model.
    fn to_json(&self) -> Value;

    /// Rebuilds the message from the JSON data model.
    ///
    /// # Errors
    /// Returns [`DeError`] when the value has the wrong shape.
    fn from_json(value: &Value) -> std::result::Result<Self, DeError>;
}

/// The field `key` of a `what` object.
fn get_field<'a>(
    value: &'a Value,
    what: &str,
    key: &str,
) -> std::result::Result<&'a Value, DeError> {
    value
        .get(key)
        .ok_or_else(|| DeError::new(format!("{what} missing field {key:?}")))
}

fn array_to_json<T: JsonCodec>(items: &[T]) -> Value {
    Value::Array(items.iter().map(T::to_json).collect())
}

fn array_from_json<T: JsonCodec>(value: &Value) -> std::result::Result<Vec<T>, DeError> {
    value
        .as_array()
        .ok_or_else(|| DeError::new(format!("expected array, got {value:?}")))?
        .iter()
        .map(T::from_json)
        .collect()
}

/// A JSON object with `fields`, in order.
fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.map(|(key, v)| (key.to_string(), v)).into())
}

/// A protocol message: its `"type"` discriminator, then `fields`.
fn typed_object<const N: usize>(type_name: &str, fields: [(&str, Value); N]) -> Value {
    let mut entries = Vec::with_capacity(N + 1);
    entries.push(("type".to_string(), type_name.to_value()));
    entries.extend(fields.map(|(key, v)| (key.to_string(), v)));
    Value::Object(entries)
}

impl JsonCodec for Request {
    fn to_json(&self) -> Value {
        match self {
            Request::Infer { model, seed, input } => typed_object(
                "infer",
                [
                    ("model", model.to_value()),
                    ("seed", seed_to_value(*seed)),
                    ("input", input.to_value()),
                ],
            ),
            Request::Stats => typed_object("stats", []),
            Request::ListModels => typed_object("list_models", []),
            Request::Ping => typed_object("ping", []),
            Request::Trace { last } => typed_object("trace", [("last", last.to_value())]),
        }
    }

    fn from_json(value: &Value) -> std::result::Result<Self, DeError> {
        let kind: String = value
            .get("type")
            .ok_or_else(|| DeError::new("request is missing \"type\""))
            .and_then(String::from_value)?;
        match kind.as_str() {
            "infer" => {
                let model = value
                    .get("model")
                    .ok_or_else(|| DeError::new("infer request is missing \"model\""))
                    .and_then(String::from_value)?;
                let seed = match value.get("seed") {
                    Some(v) => seed_from_value(v)?,
                    None => 0,
                };
                let input = value
                    .get("input")
                    .ok_or_else(|| DeError::new("infer request is missing \"input\""))
                    .and_then(Vec::<f32>::from_value)?;
                Ok(Request::Infer { model, seed, input })
            }
            "stats" => Ok(Request::Stats),
            "list_models" => Ok(Request::ListModels),
            "ping" => Ok(Request::Ping),
            "trace" => {
                let last = match value.get("last") {
                    Some(v) => usize::from_value(v)?,
                    None => 16,
                };
                Ok(Request::Trace { last })
            }
            other => Err(DeError::new(format!("unknown request type {other:?}"))),
        }
    }
}

impl JsonCodec for InferenceReply {
    fn to_json(&self) -> Value {
        typed_object(
            "infer",
            [
                ("model", self.model.to_value()),
                ("predicted", self.predicted.to_value()),
                ("logits", self.logits.to_value()),
                ("total_spikes", self.total_spikes.to_value()),
                ("latency_us", self.latency_us.to_value()),
                // Encoded like seeds: trace ids are u64 counters and must
                // not be rounded through an IEEE double.
                ("trace_id", seed_to_value(self.trace_id)),
            ],
        )
    }

    fn from_json(value: &Value) -> std::result::Result<Self, DeError> {
        let field = |key: &str| get_field(value, "infer reply", key);
        Ok(InferenceReply {
            model: String::from_value(field("model")?)?,
            predicted: usize::from_value(field("predicted")?)?,
            logits: Vec::<f32>::from_value(field("logits")?)?,
            total_spikes: usize::from_value(field("total_spikes")?)?,
            latency_us: u64::from_value(field("latency_us")?)?,
            // Absent in pre-observability replies: default to "no trace".
            trace_id: match value.get("trace_id") {
                Some(v) => seed_from_value(v)?,
                None => 0,
            },
        })
    }
}

impl JsonCodec for StageLatency {
    fn to_json(&self) -> Value {
        object([
            ("stage", self.stage.to_value()),
            ("p50_ns", self.p50_ns.to_value()),
            ("p99_ns", self.p99_ns.to_value()),
        ])
    }

    fn from_json(value: &Value) -> std::result::Result<Self, DeError> {
        let field = |key: &str| get_field(value, "stage latency", key);
        Ok(StageLatency {
            stage: String::from_value(field("stage")?)?,
            p50_ns: u64::from_value(field("p50_ns")?)?,
            p99_ns: u64::from_value(field("p99_ns")?)?,
        })
    }
}

impl JsonCodec for ServerStats {
    fn to_json(&self) -> Value {
        object([
            ("requests_received", self.requests_received.to_value()),
            ("requests_served", self.requests_served.to_value()),
            ("rejected_busy", self.rejected_busy.to_value()),
            ("failed", self.failed.to_value()),
            ("batches", self.batches.to_value()),
            ("batch_size_histogram", self.batch_size_histogram.to_value()),
            ("mean_batch_size", self.mean_batch_size.to_value()),
            ("p50_latency_us", self.p50_latency_us.to_value()),
            ("p99_latency_us", self.p99_latency_us.to_value()),
            ("mean_latency_us", self.mean_latency_us.to_value()),
            ("total_spikes", self.total_spikes.to_value()),
            ("spikes_per_inference", self.spikes_per_inference.to_value()),
            ("batch_size_offset", self.batch_size_offset.to_value()),
            ("p999_latency_us", self.p999_latency_us.to_value()),
            ("stage_latency_ns", array_to_json(&self.stage_latency_ns)),
        ])
    }

    fn from_json(value: &Value) -> std::result::Result<Self, DeError> {
        let field = |key: &str| get_field(value, "stats", key);
        Ok(ServerStats {
            requests_received: u64::from_value(field("requests_received")?)?,
            requests_served: u64::from_value(field("requests_served")?)?,
            rejected_busy: u64::from_value(field("rejected_busy")?)?,
            failed: u64::from_value(field("failed")?)?,
            batches: u64::from_value(field("batches")?)?,
            batch_size_histogram: Vec::<u64>::from_value(field("batch_size_histogram")?)?,
            mean_batch_size: f64::from_value(field("mean_batch_size")?)?,
            p50_latency_us: u64::from_value(field("p50_latency_us")?)?,
            p99_latency_us: u64::from_value(field("p99_latency_us")?)?,
            mean_latency_us: f64::from_value(field("mean_latency_us")?)?,
            total_spikes: u64::from_value(field("total_spikes")?)?,
            spikes_per_inference: f64::from_value(field("spikes_per_inference")?)?,
            // The three observability fields are additive (introduced after
            // the first stats consumers shipped): absent fields decode to
            // their zero values so older snapshots keep round-tripping.
            batch_size_offset: match value.get("batch_size_offset") {
                Some(v) => u64::from_value(v)?,
                None => 0,
            },
            p999_latency_us: match value.get("p999_latency_us") {
                Some(v) => u64::from_value(v)?,
                None => 0,
            },
            stage_latency_ns: match value.get("stage_latency_ns") {
                Some(v) => array_from_json(v)?,
                None => Vec::new(),
            },
        })
    }
}

impl JsonCodec for TraceSpan {
    /// Spells the stage and kernel codes as their `nrsnn-obs` names.  An
    /// out-of-taxonomy stage code becomes the empty name; an
    /// out-of-taxonomy kernel code is omitted like "no kernel".
    fn to_json(&self) -> Value {
        let stage = Stage::from_code(self.stage).map_or("", Stage::as_str);
        let mut fields = vec![
            ("stage".to_string(), stage.to_value()),
            ("start_ns".to_string(), seed_to_value(self.start_ns)),
            ("end_ns".to_string(), seed_to_value(self.end_ns)),
        ];
        if let Some(layer) = self.layer {
            fields.push(("layer".to_string(), layer.to_value()));
        }
        if let Some(kernel) = KernelPath::from_code(self.kernel).and_then(KernelPath::as_str) {
            fields.push(("kernel".to_string(), kernel.to_value()));
            fields.push(("density".to_string(), self.density.to_value()));
        }
        Value::Object(fields)
    }

    /// Maps names back to codes; a name outside the taxonomy is stored as
    /// [`u8::MAX`].
    fn from_json(value: &Value) -> std::result::Result<Self, DeError> {
        let field = |key: &str| get_field(value, "trace span", key);
        let stage = String::from_value(field("stage")?)?;
        let kernel = match value.get("kernel") {
            Some(v) => {
                let name = String::from_value(v)?;
                [KernelPath::Dense, KernelPath::Sparse]
                    .into_iter()
                    .find(|k| k.as_str() == Some(name.as_str()))
                    .map_or(UNKNOWN_CODE, KernelPath::code)
            }
            None => KernelPath::None.code(),
        };
        Ok(TraceSpan {
            stage: Stage::from_name(&stage).map_or(UNKNOWN_CODE, Stage::code),
            layer: match value.get("layer") {
                Some(v) => Some(u32::from_value(v)?),
                None => None,
            },
            start_ns: seed_from_value(field("start_ns")?)?,
            end_ns: seed_from_value(field("end_ns")?)?,
            kernel,
            density: match value.get("density") {
                Some(v) => f32::from_value(v)?,
                None => 0.0,
            },
        })
    }
}

impl JsonCodec for RequestTrace {
    fn to_json(&self) -> Value {
        object([
            ("trace_id", seed_to_value(self.trace_id)),
            ("model", self.model.to_value()),
            ("seed", seed_to_value(self.seed)),
            ("worker", self.worker.to_value()),
            ("start_ns", seed_to_value(self.start_ns)),
            ("end_ns", seed_to_value(self.end_ns)),
            ("ok", self.ok.to_value()),
            ("backend", self.backend.to_value()),
            ("spans", array_to_json(&self.spans)),
            ("dropped_spans", self.dropped_spans.to_value()),
        ])
    }

    fn from_json(value: &Value) -> std::result::Result<Self, DeError> {
        let field = |key: &str| get_field(value, "request trace", key);
        Ok(RequestTrace {
            trace_id: seed_from_value(field("trace_id")?)?,
            model: String::from_value(field("model")?)?,
            seed: seed_from_value(field("seed")?)?,
            worker: u32::from_value(field("worker")?)?,
            start_ns: seed_from_value(field("start_ns")?)?,
            end_ns: seed_from_value(field("end_ns")?)?,
            ok: bool::from_value(field("ok")?)?,
            backend: String::from_value(field("backend")?)?,
            spans: array_from_json(field("spans")?)?,
            dropped_spans: u32::from_value(field("dropped_spans")?)?,
        })
    }
}

impl JsonCodec for Response {
    fn to_json(&self) -> Value {
        match self {
            Response::Infer(reply) => reply.to_json(),
            Response::Stats(stats) => typed_object("stats", [("stats", stats.to_json())]),
            Response::Models(models) => typed_object("models", [("models", models.to_value())]),
            Response::Pong => typed_object("pong", []),
            Response::Trace(traces) => typed_object("trace", [("traces", array_to_json(traces))]),
            Response::Error { code, message } => typed_object(
                "error",
                [("code", code.to_value()), ("message", message.to_value())],
            ),
        }
    }

    fn from_json(value: &Value) -> std::result::Result<Self, DeError> {
        let kind: String = value
            .get("type")
            .ok_or_else(|| DeError::new("response is missing \"type\""))
            .and_then(String::from_value)?;
        match kind.as_str() {
            "infer" => Ok(Response::Infer(InferenceReply::from_json(value)?)),
            "stats" => Ok(Response::Stats(ServerStats::from_json(
                value
                    .get("stats")
                    .ok_or_else(|| DeError::new("stats response missing \"stats\""))?,
            )?)),
            "models" => Ok(Response::Models(
                value
                    .get("models")
                    .ok_or_else(|| DeError::new("models response missing \"models\""))
                    .and_then(Vec::<String>::from_value)?,
            )),
            "pong" => Ok(Response::Pong),
            "trace" => Ok(Response::Trace(array_from_json(
                value
                    .get("traces")
                    .ok_or_else(|| DeError::new("trace response missing \"traces\""))?,
            )?)),
            "error" => {
                let field = |key: &str| {
                    value
                        .get(key)
                        .ok_or_else(|| DeError::new(format!("error response missing {key:?}")))
                        .and_then(String::from_value)
                };
                Ok(Response::Error {
                    code: field("code")?,
                    message: field("message")?,
                })
            }
            other => Err(DeError::new(format!("unknown response type {other:?}"))),
        }
    }
}

/// Wraps a [`ServeError`] for the wire.
pub fn error_response(error: &ServeError) -> Response {
    Response::Error {
        code: error.code().to_string(),
        message: error.to_string(),
    }
}

/// Converts an error response back into a [`ServeError`] (best-effort: the
/// structured payload of the original error is not on the wire, so at most
/// the code survives — `"busy"` loses its capacity value, and
/// `"input_mismatch"` degrades to [`ServeError::InvalidRequest`] because its
/// model/width fields cannot be reconstructed from the message).  Any other
/// response passes through.
///
/// # Errors
/// The decoded [`ServeError`] of an error response.
pub fn into_result(response: Response) -> crate::Result<Response> {
    match response {
        Response::Error { code, message } => Err(match code.as_str() {
            "busy" => ServeError::Busy { capacity: 0 },
            "shutting_down" => ServeError::ShuttingDown,
            "unknown_model" => ServeError::UnknownModel(message),
            "input_mismatch" => ServeError::InvalidRequest(message),
            "model" => ServeError::Model(message),
            "simulation" => ServeError::Simulation(message),
            "internal" => ServeError::Internal(message),
            "io" => ServeError::Io(message),
            _ => ServeError::InvalidRequest(message),
        }),
        other => Ok(other),
    }
}

/// Serializes a request or response as one newline-terminated wire line.
pub fn encode_line<T: JsonCodec>(value: &T) -> String {
    let mut line = value.to_json().to_string();
    line.push('\n');
    line
}

/// Adapts a [`JsonCodec`] message to the shim's `Deserialize`, so a line
/// parses straight into the message without an intermediate copy of its
/// JSON tree.
struct Line<T>(T);

impl<T: JsonCodec> Deserialize for Line<T> {
    fn from_value(value: &Value) -> std::result::Result<Self, DeError> {
        T::from_json(value).map(Line)
    }
}

/// Parses one wire line into a message.
fn parse_line<T: JsonCodec>(line: &str) -> std::result::Result<T, serde_json::Error> {
    serde_json::from_str(line.trim()).map(|Line(message)| message)
}

/// Parses one wire line into a request.
///
/// # Errors
/// Returns [`ServeError::InvalidRequest`] on malformed JSON or schema
/// mismatch.
pub fn decode_request(line: &str) -> crate::Result<Request> {
    parse_line(line).map_err(|e| ServeError::InvalidRequest(e.to_string()))
}

/// Parses one wire line into a response.
///
/// # Errors
/// Returns [`ServeError::Io`] on malformed JSON or schema mismatch (a
/// malformed response means the transport, not the request, is broken).
pub fn decode_response(line: &str) -> crate::Result<Response> {
    parse_line(line).map_err(|e| ServeError::Io(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_request_round_trips_including_large_seeds() {
        let request = Request::Infer {
            model: "fig7".to_string(),
            seed: u64::MAX - 7,
            input: vec![0.25, -1.5, 0.0, 3.5e-8],
        };
        let line = encode_line(&request);
        assert!(line.ends_with('\n'));
        let back = decode_request(&line).unwrap();
        assert_eq!(back, request);
    }

    #[test]
    fn numeric_seeds_are_accepted_when_exact() {
        let back = decode_request(r#"{"type":"infer","model":"m","seed":42,"input":[1]}"#).unwrap();
        assert_eq!(
            back,
            Request::Infer {
                model: "m".to_string(),
                seed: 42,
                input: vec![1.0],
            }
        );
        // Fractional or negative numeric seeds are rejected, not truncated.
        assert!(decode_request(r#"{"type":"infer","model":"m","seed":1.5,"input":[1]}"#).is_err());
        assert!(decode_request(r#"{"type":"infer","model":"m","seed":-3,"input":[1]}"#).is_err());
    }

    #[test]
    fn missing_seed_defaults_to_zero() {
        let back = decode_request(r#"{"type":"infer","model":"m","input":[0.5]}"#).unwrap();
        assert!(matches!(back, Request::Infer { seed: 0, .. }));
    }

    #[test]
    fn control_requests_round_trip() {
        for request in [
            Request::Stats,
            Request::ListModels,
            Request::Ping,
            Request::Trace { last: 32 },
        ] {
            let back = decode_request(&encode_line(&request)).unwrap();
            assert_eq!(back, request);
        }
    }

    #[test]
    fn trace_request_last_defaults_when_absent() {
        let back = decode_request(r#"{"type":"trace"}"#).unwrap();
        assert_eq!(back, Request::Trace { last: 16 });
    }

    #[test]
    fn malformed_requests_are_invalid_request_errors() {
        assert!(matches!(
            decode_request("{not json"),
            Err(ServeError::InvalidRequest(_))
        ));
        assert!(matches!(
            decode_request(r#"{"type":"warp"}"#),
            Err(ServeError::InvalidRequest(_))
        ));
    }

    #[test]
    fn logits_survive_the_wire_bit_for_bit() {
        let logits = vec![
            0.1f32,
            -2.5e-7,
            f32::MIN_POSITIVE,
            123456.78,
            -0.000123,
            1.0 / 3.0,
        ];
        let reply = InferenceReply {
            model: "m".to_string(),
            predicted: 3,
            logits: logits.clone(),
            total_spikes: 99,
            latency_us: 1234,
            trace_id: u64::MAX - 3,
        };
        let back = decode_response(&encode_line(&Response::Infer(reply.clone()))).unwrap();
        let Response::Infer(reply) = back else {
            panic!("expected infer response");
        };
        assert_eq!(reply.logits.len(), logits.len());
        for (a, b) in reply.logits.iter().zip(&logits) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Trace ids survive the wire exactly even above 2^53.
        assert_eq!(reply.trace_id, u64::MAX - 3);
    }

    #[test]
    fn pre_observability_infer_replies_still_decode() {
        // Replies serialized before trace_id existed must keep decoding,
        // defaulting to "no trace".
        let line = r#"{"type":"infer","model":"m","predicted":1,"logits":[0.5],"total_spikes":9,"latency_us":77}"#;
        let Response::Infer(reply) = decode_response(line).unwrap() else {
            panic!("expected infer response");
        };
        assert_eq!(reply.trace_id, 0);
        assert_eq!(reply.latency_us, 77);
    }

    #[test]
    fn trace_responses_round_trip_with_full_span_detail() {
        let traces = vec![RequestTrace {
            trace_id: 42,
            model: "fig7".to_string(),
            seed: u64::MAX - 1,
            worker: 3,
            start_ns: 1_000,
            end_ns: 9_000,
            ok: true,
            backend: "sse2".to_string(),
            spans: vec![
                TraceSpan {
                    stage: Stage::QueueWait.code(),
                    layer: None,
                    start_ns: 1_000,
                    end_ns: 2_000,
                    kernel: KernelPath::None.code(),
                    density: 0.0,
                },
                TraceSpan {
                    stage: Stage::Simulate.code(),
                    layer: Some(1),
                    start_ns: 2_000,
                    end_ns: 9_000,
                    kernel: KernelPath::Sparse.code(),
                    density: 0.125,
                },
            ],
            dropped_spans: 0,
        }];
        let response = Response::Trace(traces);
        let back = decode_response(&encode_line(&response)).unwrap();
        assert_eq!(back, response);
    }

    #[test]
    fn error_responses_map_back_to_typed_errors() {
        let wire = encode_line(&error_response(&ServeError::Busy { capacity: 8 }));
        let back = into_result(decode_response(&wire).unwrap());
        assert!(matches!(back, Err(ServeError::Busy { .. })));
        let wire = encode_line(&error_response(&ServeError::ShuttingDown));
        assert!(matches!(
            into_result(decode_response(&wire).unwrap()),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn every_stage_and_kernel_name_survives_the_code_mapping() {
        for stage in Stage::ALL {
            for kernel in [KernelPath::None, KernelPath::Dense, KernelPath::Sparse] {
                let span = TraceSpan {
                    stage: stage.code(),
                    layer: Some(0),
                    start_ns: 0,
                    end_ns: 1,
                    kernel: kernel.code(),
                    density: if kernel == KernelPath::None { 0.0 } else { 0.5 },
                };
                let json = span.to_json();
                assert_eq!(
                    json.get("stage").and_then(Value::as_str),
                    Some(stage.as_str())
                );
                assert_eq!(json.get("kernel").and_then(Value::as_str), kernel.as_str());
                assert_eq!(TraceSpan::from_json(&json).unwrap(), span);
            }
        }
    }

    #[test]
    fn names_outside_the_taxonomy_decode_to_the_out_of_range_code() {
        let line = r#"{"stage":"warp","start_ns":"0","end_ns":"1","kernel":"gpu","density":0.5}"#;
        let span = TraceSpan::from_json(&serde_json::from_str(line).unwrap()).unwrap();
        assert_eq!((span.stage, span.kernel), (u8::MAX, u8::MAX));
        // ...and encode as the empty stage name with no kernel.
        let json = span.to_json();
        assert_eq!(json.get("stage").and_then(Value::as_str), Some(""));
        assert!(json.get("kernel").is_none());
    }

    #[test]
    fn pong_and_models_round_trip() {
        let back = decode_response(&encode_line(&Response::Pong)).unwrap();
        assert_eq!(back, Response::Pong);
        let models = Response::Models(vec!["a".to_string(), "b".to_string()]);
        assert_eq!(decode_response(&encode_line(&models)).unwrap(), models);
    }
}
