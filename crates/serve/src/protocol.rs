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
//! Seeds travel as **strings** (`"seed":"42"`): JSON numbers are IEEE
//! doubles, which would silently truncate seeds above 2^53 and break the
//! bit-exact determinism contract.  Numeric seeds are still accepted on
//! input when they are strictly below 2^53 (2^53 itself is rejected even
//! though it is representable, because 2^53 + 1 collides with it after
//! parsing and could not be told apart).

use serde::{DeError, Deserialize, Serialize, Value};

use crate::{ServeError, ServerStats};

/// Largest integer exactly representable as an IEEE double (2^53).
const MAX_EXACT_F64_INT: f64 = 9_007_199_254_740_992.0;

/// Encodes a seed for the wire (always a decimal string).
pub(crate) fn seed_to_value(seed: u64) -> Value {
    Value::String(seed.to_string())
}

/// Decodes a seed from either a decimal string or an exactly-representable
/// JSON number.
pub(crate) fn seed_from_value(value: &Value) -> std::result::Result<u64, DeError> {
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

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Classify one input vector under the named model.
    Infer {
        /// Registry name of the model.
        model: String,
        /// Request seed; together with the model's master seed it fully
        /// determines the noise realisation (see
        /// [`nrsnn_runtime::derive_seed`]).
        seed: u64,
        /// Dense input vector (must match the model's input width).
        input: Vec<f32>,
    },
    /// Fetch the server's metrics snapshot.
    Stats,
    /// List the registered model names.
    ListModels,
    /// Liveness probe.
    Ping,
    /// Fetch the most recent request timelines from the flight recorder.
    Trace {
        /// Maximum number of recent timelines to return (retained outliers
        /// — failed or slow requests — ride along on top of this budget).
        last: usize,
    },
}

impl Serialize for Request {
    fn to_value(&self) -> Value {
        match self {
            Request::Infer { model, seed, input } => Value::Object(vec![
                ("type".to_string(), "infer".to_value()),
                ("model".to_string(), model.to_value()),
                ("seed".to_string(), seed_to_value(*seed)),
                ("input".to_string(), input.to_value()),
            ]),
            Request::Stats => Value::Object(vec![("type".to_string(), "stats".to_value())]),
            Request::ListModels => {
                Value::Object(vec![("type".to_string(), "list_models".to_value())])
            }
            Request::Ping => Value::Object(vec![("type".to_string(), "ping".to_value())]),
            Request::Trace { last } => Value::Object(vec![
                ("type".to_string(), "trace".to_value()),
                ("last".to_string(), last.to_value()),
            ]),
        }
    }
}

impl Deserialize for Request {
    fn from_value(value: &Value) -> std::result::Result<Self, DeError> {
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

/// The successful result of one inference request.
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

impl Serialize for InferenceReply {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("type".to_string(), "infer".to_value()),
            ("model".to_string(), self.model.to_value()),
            ("predicted".to_string(), self.predicted.to_value()),
            ("logits".to_string(), self.logits.to_value()),
            ("total_spikes".to_string(), self.total_spikes.to_value()),
            ("latency_us".to_string(), self.latency_us.to_value()),
            // Encoded like seeds: trace ids are u64 counters and must not
            // be rounded through an IEEE double.
            ("trace_id".to_string(), seed_to_value(self.trace_id)),
        ])
    }
}

impl Deserialize for InferenceReply {
    fn from_value(value: &Value) -> std::result::Result<Self, DeError> {
        let field = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| DeError::new(format!("infer reply missing field {key:?}")))
        };
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

/// One stage of a recorded request timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Stage name (`queue_wait`, `batch_assembly`, `encode`, `noise`,
    /// `decode`, `simulate`, `reply_serialize`).
    pub stage: String,
    /// Network layer the stage ran on, when the stage is per-layer.
    pub layer: Option<u32>,
    /// Start of the span, nanoseconds since the server's monotonic epoch.
    pub start_ns: u64,
    /// End of the span, nanoseconds since the server's monotonic epoch.
    pub end_ns: u64,
    /// Kernel path tag of a `simulate` span: `"dense"` from this server
    /// (`"sparse"` is a reserved wire value).
    pub kernel: Option<String>,
    /// Measured density of the raster the layer received (0 for stages
    /// where density is not meaningful).
    pub density: f32,
}

impl Serialize for TraceSpan {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("stage".to_string(), self.stage.to_value()),
            ("start_ns".to_string(), seed_to_value(self.start_ns)),
            ("end_ns".to_string(), seed_to_value(self.end_ns)),
        ];
        if let Some(layer) = self.layer {
            fields.push(("layer".to_string(), layer.to_value()));
        }
        if let Some(kernel) = &self.kernel {
            fields.push(("kernel".to_string(), kernel.to_value()));
            fields.push(("density".to_string(), self.density.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for TraceSpan {
    fn from_value(value: &Value) -> std::result::Result<Self, DeError> {
        let field = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| DeError::new(format!("trace span missing field {key:?}")))
        };
        Ok(TraceSpan {
            stage: String::from_value(field("stage")?)?,
            layer: match value.get("layer") {
                Some(v) => Some(u32::from_value(v)?),
                None => None,
            },
            start_ns: seed_from_value(field("start_ns")?)?,
            end_ns: seed_from_value(field("end_ns")?)?,
            kernel: match value.get("kernel") {
                Some(v) => Some(String::from_value(v)?),
                None => None,
            },
            density: match value.get("density") {
                Some(v) => f32::from_value(v)?,
                None => 0.0,
            },
        })
    }
}

/// One request's full recorded timeline, as returned by a `trace` request.
#[derive(Debug, Clone, PartialEq)]
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

impl Serialize for RequestTrace {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("trace_id".to_string(), seed_to_value(self.trace_id)),
            ("model".to_string(), self.model.to_value()),
            ("seed".to_string(), seed_to_value(self.seed)),
            ("worker".to_string(), self.worker.to_value()),
            ("start_ns".to_string(), seed_to_value(self.start_ns)),
            ("end_ns".to_string(), seed_to_value(self.end_ns)),
            ("ok".to_string(), self.ok.to_value()),
            ("backend".to_string(), self.backend.to_value()),
            ("spans".to_string(), self.spans.to_value()),
            ("dropped_spans".to_string(), self.dropped_spans.to_value()),
        ])
    }
}

impl Deserialize for RequestTrace {
    fn from_value(value: &Value) -> std::result::Result<Self, DeError> {
        let field = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| DeError::new(format!("request trace missing field {key:?}")))
        };
        Ok(RequestTrace {
            trace_id: seed_from_value(field("trace_id")?)?,
            model: String::from_value(field("model")?)?,
            seed: seed_from_value(field("seed")?)?,
            worker: u32::from_value(field("worker")?)?,
            start_ns: seed_from_value(field("start_ns")?)?,
            end_ns: seed_from_value(field("end_ns")?)?,
            ok: bool::from_value(field("ok")?)?,
            backend: String::from_value(field("backend")?)?,
            spans: Vec::<TraceSpan>::from_value(field("spans")?)?,
            dropped_spans: u32::from_value(field("dropped_spans")?)?,
        })
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful inference.
    Infer(InferenceReply),
    /// Metrics snapshot.
    Stats(ServerStats),
    /// Registered model names.
    Models(Vec<String>),
    /// Liveness answer.
    Pong,
    /// Recent request timelines from the flight recorder, newest first.
    Trace(Vec<RequestTrace>),
    /// Any failure, carrying the stable error code and a human-readable
    /// message.
    Error {
        /// Stable machine-readable code (see [`ServeError::code`]).
        code: String,
        /// Human-readable description.
        message: String,
    },
}

impl Response {
    /// Wraps a [`ServeError`] for the wire.
    pub fn from_error(error: &ServeError) -> Response {
        Response::Error {
            code: error.code().to_string(),
            message: error.to_string(),
        }
    }

    /// Converts an error response back into a [`ServeError`] (best-effort:
    /// the structured payload of the original error is not on the wire, so
    /// at most the code survives — `"busy"` loses its capacity value, and
    /// `"input_mismatch"` degrades to [`ServeError::InvalidRequest`]
    /// because its model/width fields cannot be reconstructed from the
    /// message).
    pub fn into_result(self) -> std::result::Result<Response, ServeError> {
        match self {
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
}

impl Serialize for Response {
    fn to_value(&self) -> Value {
        match self {
            Response::Infer(reply) => reply.to_value(),
            Response::Stats(stats) => Value::Object(vec![
                ("type".to_string(), "stats".to_value()),
                ("stats".to_string(), stats.to_value()),
            ]),
            Response::Models(models) => Value::Object(vec![
                ("type".to_string(), "models".to_value()),
                ("models".to_string(), models.to_value()),
            ]),
            Response::Pong => Value::Object(vec![("type".to_string(), "pong".to_value())]),
            Response::Trace(traces) => Value::Object(vec![
                ("type".to_string(), "trace".to_value()),
                ("traces".to_string(), traces.to_value()),
            ]),
            Response::Error { code, message } => Value::Object(vec![
                ("type".to_string(), "error".to_value()),
                ("code".to_string(), code.to_value()),
                ("message".to_string(), message.to_value()),
            ]),
        }
    }
}

impl Deserialize for Response {
    fn from_value(value: &Value) -> std::result::Result<Self, DeError> {
        let kind: String = value
            .get("type")
            .ok_or_else(|| DeError::new("response is missing \"type\""))
            .and_then(String::from_value)?;
        match kind.as_str() {
            "infer" => Ok(Response::Infer(InferenceReply::from_value(value)?)),
            "stats" => Ok(Response::Stats(ServerStats::from_value(
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
            "trace" => Ok(Response::Trace(
                value
                    .get("traces")
                    .ok_or_else(|| DeError::new("trace response missing \"traces\""))
                    .and_then(Vec::<RequestTrace>::from_value)?,
            )),
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

/// Serializes a request or response as one newline-terminated wire line.
pub fn encode_line<T: Serialize>(value: &T) -> String {
    // UNWRAP: infallible — request/response types serialize to plain structs and enums the JSON shim always accepts.
    let mut line = serde_json::to_string(value).expect("shim serialization is infallible");
    line.push('\n');
    line
}

/// Parses one wire line into a request.
///
/// # Errors
/// Returns [`ServeError::InvalidRequest`] on malformed JSON or schema
/// mismatch.
pub fn decode_request(line: &str) -> crate::Result<Request> {
    serde_json::from_str(line.trim()).map_err(|e| ServeError::InvalidRequest(e.to_string()))
}

/// Parses one wire line into a response.
///
/// # Errors
/// Returns [`ServeError::Io`] on malformed JSON or schema mismatch (a
/// malformed response means the transport, not the request, is broken).
pub fn decode_response(line: &str) -> crate::Result<Response> {
    serde_json::from_str(line.trim()).map_err(|e| ServeError::Io(e.to_string()))
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
                    stage: "queue_wait".to_string(),
                    layer: None,
                    start_ns: 1_000,
                    end_ns: 2_000,
                    kernel: None,
                    density: 0.0,
                },
                TraceSpan {
                    stage: "simulate".to_string(),
                    layer: Some(1),
                    start_ns: 2_000,
                    end_ns: 9_000,
                    kernel: Some("sparse".to_string()),
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
        let wire = encode_line(&Response::from_error(&ServeError::Busy { capacity: 8 }));
        let back = decode_response(&wire).unwrap().into_result();
        assert!(matches!(back, Err(ServeError::Busy { .. })));
        let wire = encode_line(&Response::from_error(&ServeError::ShuttingDown));
        assert!(matches!(
            decode_response(&wire).unwrap().into_result(),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn pong_and_models_round_trip() {
        let back = decode_response(&encode_line(&Response::Pong)).unwrap();
        assert_eq!(back, Response::Pong);
        let models = Response::Models(vec!["a".to_string(), "b".to_string()]);
        assert_eq!(decode_response(&encode_line(&models)).unwrap(), models);
    }
}
