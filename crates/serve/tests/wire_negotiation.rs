//! TCP front-end format negotiation and hostile-peer robustness.
//!
//! The server sniffs the first byte of each connection: the frame magic
//! selects the binary protocol, anything else falls back to line-delimited
//! JSON.  A malformed binary frame must be answered with a typed error
//! reply or a clean close — never a hang or a panic — and must not disturb
//! other connections.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use nrsnn_serve::{ModelRegistry, NoiseSpec, ServedModel, Server, ServerConfig, TcpClient};
use nrsnn_snn::{CodingConfig, CodingKind, SnnLayer, SnnNetwork};
use nrsnn_tensor::Tensor;
use nrsnn_wire::{encode_frame, read_frame, Frame, Request, Response, FRAME_MAGIC, WIRE_VERSION};

const MODEL: &str = "nego-toy";

fn start_server() -> (Server, std::net::SocketAddr) {
    let network = SnnNetwork::new(vec![SnnLayer::Linear {
        weights: Tensor::eye(3),
        bias: Tensor::zeros(&[3]),
    }])
    .unwrap();
    let mut registry = ModelRegistry::new();
    registry
        .insert(
            ServedModel::new(
                MODEL,
                network,
                CodingKind::Rate,
                CodingConfig::new(32, 1.0),
                NoiseSpec::Clean,
                1.0,
                7,
            )
            .unwrap(),
        )
        .unwrap();
    let mut server = Server::start(
        registry,
        ServerConfig {
            workers: 1,
            max_batch: 4,
            batch_window: Duration::ZERO,
            queue_capacity: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.serve_tcp(("127.0.0.1", 0)).unwrap();
    (server, addr)
}

fn raw_connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    // A hostile-peer test must itself never hang: bound every read.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// Reads frames until one is not busy/pressure related, so tests stay
/// robust if error policy ever adds throttling replies.
fn expect_error_frame(stream: &mut TcpStream) -> (String, String) {
    match read_frame(stream).expect("server should answer with a frame") {
        Frame::Response(Response::Error { code, message }) => (code, message),
        other => panic!("expected an error reply, got {other:?}"),
    }
}

#[test]
fn malformed_payload_gets_error_reply_and_connection_survives() {
    let (server, addr) = start_server();
    let mut stream = raw_connect(addr);

    // A syntactically valid header carrying a garbage payload: the framing
    // is still intact, so the server must answer and keep the connection.
    let mut bad = vec![FRAME_MAGIC, WIRE_VERSION];
    bad.extend_from_slice(&4u32.to_le_bytes());
    bad.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF]);
    stream.write_all(&bad).unwrap();
    let (code, _) = expect_error_frame(&mut stream);
    assert!(!code.is_empty());

    // The same connection still serves well-formed requests afterwards.
    stream
        .write_all(&encode_frame(&Frame::Request(Request::Ping)).unwrap())
        .unwrap();
    assert_eq!(
        read_frame(&mut stream).unwrap(),
        Frame::Response(Response::Pong)
    );
    stream
        .write_all(&encode_frame(&Frame::Request(Request::ListModels)).unwrap())
        .unwrap();
    assert_eq!(
        read_frame(&mut stream).unwrap(),
        Frame::Response(Response::Models(vec![MODEL.to_string()]))
    );
    server.shutdown();
}

#[test]
fn header_corruption_gets_error_then_clean_close() {
    let (server, addr) = start_server();

    // Unsupported version: framing is unrecoverable after this, so the
    // server sends one typed error and closes.
    let mut stream = raw_connect(addr);
    let mut bad = vec![FRAME_MAGIC, WIRE_VERSION + 1];
    bad.extend_from_slice(&1u32.to_le_bytes());
    bad.push(0x04);
    stream.write_all(&bad).unwrap();
    let (code, message) = expect_error_frame(&mut stream);
    assert_eq!(code, "invalid_request", "got {code}: {message}");
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0, "expected close");

    // Oversized length prefix: rejected against the documented cap without
    // allocating, then the connection closes cleanly.
    let mut stream = raw_connect(addr);
    let mut bad = vec![FRAME_MAGIC, WIRE_VERSION];
    bad.extend_from_slice(&u32::MAX.to_le_bytes());
    stream.write_all(&bad).unwrap();
    let (code, message) = expect_error_frame(&mut stream);
    assert_eq!(code, "invalid_request", "got {code}: {message}");
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0, "expected close");

    server.shutdown();
}

#[test]
fn hostile_connection_does_not_disturb_its_neighbours() {
    let (server, addr) = start_server();

    // A binary client and a JSON client do real work while a hostile peer
    // sends corruption; every honest request must still complete.
    let hostile = std::thread::spawn(move || {
        let mut stream = raw_connect(addr);
        let mut bad = vec![FRAME_MAGIC, WIRE_VERSION + 9];
        bad.extend_from_slice(&8u32.to_le_bytes());
        stream.write_all(&bad).ok();
        let _ = expect_error_frame(&mut stream);
    });

    let mut binary = TcpClient::connect_binary(addr).unwrap();
    let mut json = TcpClient::connect(addr).unwrap();
    assert!(binary.is_binary());
    assert!(!json.is_binary());
    for seed in 0..8u64 {
        let input = [0.5f32, 0.25, 1.0];
        let b = binary.infer_retrying(MODEL, &input, seed).unwrap();
        let j = json.infer_retrying(MODEL, &input, seed).unwrap();
        assert_eq!(b.predicted, j.predicted, "seed {seed}");
        let b_bits: Vec<u32> = b.logits.iter().map(|l| l.to_bits()).collect();
        let j_bits: Vec<u32> = j.logits.iter().map(|l| l.to_bits()).collect();
        assert_eq!(b_bits, j_bits, "seed {seed}: format changed the bits");
    }
    hostile.join().unwrap();
    server.shutdown();
}

#[test]
fn json_garbage_still_gets_a_json_error_line() {
    // A first byte that is not the magic selects the JSON path, where a
    // garbage line must yield a JSON error response, not a hang.
    let (server, addr) = start_server();
    let mut stream = raw_connect(addr);
    stream.write_all(b"this is not json\n").unwrap();
    let mut reply = String::new();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    std::io::BufRead::read_line(&mut reader, &mut reply).unwrap();
    assert!(
        reply.contains("error"),
        "expected a JSON error line, got {reply:?}"
    );
    server.shutdown();
}

#[test]
fn immediate_disconnect_is_harmless() {
    // Peers that connect and vanish before sending a byte (port scanners,
    // health checks) must not wedge the accept loop.
    let (server, addr) = start_server();
    for _ in 0..4 {
        drop(TcpStream::connect(addr).unwrap());
    }
    let mut client = TcpClient::connect_binary(addr).unwrap();
    client.ping().unwrap();
    server.shutdown();
}
