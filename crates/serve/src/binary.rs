//! The server's side of the binary wire: wrapping protocol messages into
//! `nrsnn-wire` frames and unwrapping them again.
//!
//! The messages themselves (and their byte layout) are defined in
//! `nrsnn-wire`; the only thing left to decide here is which direction a
//! frame may travel.  The determinism contract does not change: a reply is
//! a function of model, input and seed — never of the wire format that
//! carried it.

use nrsnn_wire::Frame;

use crate::protocol::{Request, Response};
use crate::ServeError;

/// Wraps a client request into its wire frame.
pub fn request_to_frame(request: &Request) -> Frame {
    Frame::Request(request.clone())
}

/// Unwraps a decoded wire frame into a client request.
///
/// # Errors
/// [`ServeError::InvalidRequest`] if the frame is not a request (the
/// server only accepts request frames on its listening side).
pub fn frame_to_request(frame: Frame) -> crate::Result<Request> {
    match frame {
        Frame::Request(request) => Ok(request),
        other => Err(ServeError::InvalidRequest(format!(
            "expected a request frame, got tag 0x{:02X}",
            other.tag()
        ))),
    }
}

/// Wraps a server response into its wire frame.
pub fn response_to_frame(response: &Response) -> Frame {
    Frame::Response(response.clone())
}

/// Unwraps a decoded wire frame into a server response.
///
/// # Errors
/// [`ServeError::Io`] if the frame is not a response (a malformed response
/// means the transport, not the request, is broken — as in
/// [`crate::protocol::decode_response`]).
pub fn frame_to_response(frame: Frame) -> crate::Result<Response> {
    match frame {
        Frame::Response(response) => Ok(response),
        other => Err(ServeError::Io(format!(
            "expected a reply frame, got tag 0x{:02X}",
            other.tag()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{
        decode_response, encode_line, InferenceReply, RequestTrace, ServerStats, StageLatency,
        TraceSpan,
    };
    use crate::{ModelSpec, NoiseSpec};
    use nrsnn_obs::{KernelPath, Stage};
    use nrsnn_snn::{CodingConfig, CodingKind, SnnLayer, SnnNetwork};
    use nrsnn_tensor::Tensor;
    use nrsnn_wire::{decode_frame, encode_frame};

    fn sample_spec() -> ModelSpec {
        let network = SnnNetwork::new(vec![SnnLayer::Linear {
            weights: Tensor::from_vec(vec![-0.0, 1.5e-42, f32::MAX, 0.25], &[2, 2]).unwrap(),
            bias: Tensor::zeros(&[2]),
        }])
        .unwrap();
        ModelSpec::from_network(
            "conv-demo",
            &network,
            CodingKind::Ttas(5),
            &CodingConfig::new(96, 1.0),
            NoiseSpec::Composite(vec![NoiseSpec::Deletion(0.35), NoiseSpec::Jitter(1.5)]),
            0.5,
            (1u64 << 60) + 99,
        )
    }

    fn binary_round_trip(response: &Response) -> Response {
        let bytes = encode_frame(&response_to_frame(response)).unwrap();
        frame_to_response(decode_frame(&bytes).unwrap()).unwrap()
    }

    #[test]
    fn requests_and_responses_round_trip_through_frames() {
        let requests = [
            Request::Infer {
                model: "m".to_string(),
                seed: u64::MAX - 1,
                input: vec![-0.0, 0.5],
            },
            Request::Stats,
            Request::ListModels,
            Request::Ping,
            Request::Trace { last: 8 },
        ];
        for request in requests {
            let bytes = encode_frame(&request_to_frame(&request)).unwrap();
            let back = frame_to_request(decode_frame(&bytes).unwrap()).unwrap();
            assert_eq!(back, request);
        }
        let responses = [
            Response::Infer(InferenceReply {
                model: "m".to_string(),
                predicted: 3,
                logits: vec![-0.0, f32::MIN_POSITIVE / 2.0],
                total_spikes: 77,
                latency_us: 901,
                trace_id: u64::MAX - 9,
            }),
            Response::Models(vec!["a".to_string()]),
            Response::Pong,
            Response::Trace(vec![RequestTrace {
                trace_id: 5,
                model: "m".to_string(),
                seed: u64::MAX - 2,
                worker: 1,
                start_ns: 100,
                end_ns: 9_100,
                ok: true,
                backend: "avx2".to_string(),
                spans: vec![
                    TraceSpan {
                        stage: Stage::QueueWait.code(),
                        layer: None,
                        start_ns: 100,
                        end_ns: 900,
                        kernel: KernelPath::None.code(),
                        density: 0.0,
                    },
                    TraceSpan {
                        stage: Stage::Simulate.code(),
                        layer: Some(2),
                        start_ns: 900,
                        end_ns: 9_100,
                        kernel: KernelPath::Dense.code(),
                        density: 0.75,
                    },
                ],
                dropped_spans: 0,
            }]),
            Response::Error {
                code: "busy".to_string(),
                message: "server busy".to_string(),
            },
        ];
        for response in responses {
            assert_eq!(binary_round_trip(&response), response);
        }
    }

    #[test]
    fn stats_with_every_field_set_survive_both_codecs() {
        let stats = Response::Stats(ServerStats {
            requests_received: 1,
            requests_served: 2,
            rejected_busy: 3,
            failed: 4,
            batches: 5,
            batch_size_histogram: vec![6, 7],
            mean_batch_size: 8.5,
            p50_latency_us: 9,
            p99_latency_us: 10,
            mean_latency_us: 11.25,
            total_spikes: 12,
            spikes_per_inference: 13.5,
            batch_size_offset: 14,
            p999_latency_us: 15,
            stage_latency_ns: vec![StageLatency {
                stage: "encode".to_string(),
                p50_ns: 16,
                p99_ns: 17,
            }],
        });
        assert_eq!(binary_round_trip(&stats), stats);
        assert_eq!(decode_response(&encode_line(&stats)).unwrap(), stats);
    }

    #[test]
    fn reply_frames_are_rejected_as_requests_and_vice_versa() {
        assert!(matches!(
            frame_to_request(Frame::Response(Response::Pong)),
            Err(ServeError::InvalidRequest(_))
        ));
        assert!(matches!(
            frame_to_response(Frame::Request(Request::Ping)),
            Err(ServeError::Io(_))
        ));
    }

    #[test]
    fn model_spec_round_trips_through_the_record() {
        let spec = sample_spec();
        let back = ModelSpec::from_binary(&spec.to_binary().unwrap()).unwrap();
        assert_eq!(back, spec);
        for (a, b) in back.weights.params.iter().zip(&spec.weights.params) {
            for (va, vb) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
    }
}
