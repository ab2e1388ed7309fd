//! The server: worker lifecycle, the in-process [`Client`] and the TCP
//! front-end.
//!
//! ## Request lifecycle
//!
//! ```text
//! Client::infer / TCP line
//!   └─ submit: resolve model, validate width, bounded-queue admit
//!        ├─ queue full        -> ServeError::Busy (explicit rejection)
//!        └─ queued            -> batcher worker claims + coalesces
//!             └─ one simulate_batch_each per batch (warm SimWorkspace)
//!                  └─ per request: logits copied out, slot fulfilled,
//!                     metrics recorded
//! ```
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] is graceful: new submits are rejected with
//! [`ServeError::ShuttingDown`], already-queued requests are drained and
//! answered, TCP accept/connection threads are woken and joined, then the
//! worker pool is joined (propagating any worker panic).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use nrsnn_runtime::WorkerPool;
use nrsnn_wire::{Frame, FrameHeader, FRAME_HEADER_LEN, FRAME_MAGIC};

use crate::batcher::{worker_loop, ServerCore};
use crate::binary::{frame_to_request, frame_to_response, request_to_frame};
use crate::protocol::{
    decode_request, decode_response, encode_line, error_response, into_result, Request,
    RequestTrace, Response, TraceSpan,
};
use crate::{InferenceReply, ModelRegistry, Result, ServeError, ServerConfig, ServerStats};

/// How often a blocked TCP read re-checks the shutdown flag.
const TCP_POLL_INTERVAL: Duration = Duration::from_millis(50);

/// How long the `infer_retrying` helpers keep retrying a
/// [`ServeError::Busy`] rejection before giving up and returning it: a
/// saturated server surfaces as a typed error, never as an infinite spin.
pub const RETRY_BUDGET: Duration = Duration::from_secs(5);

/// Pause between backpressure retries in the `infer_retrying` helpers.
const RETRY_BACKOFF: Duration = Duration::from_micros(200);

/// The shared retry loop behind both `infer_retrying` helpers: re-attempts
/// while the error is retryable and the [`RETRY_BUDGET`] deadline has not
/// passed, then returns the last error.
fn retry_while_busy<F>(mut attempt: F) -> Result<InferenceReply>
where
    F: FnMut() -> Result<InferenceReply>,
{
    // nrsnn-lint: allow(forbidden-api) -- client-side retry deadline; never
    // observable in replies or metrics.
    let deadline = std::time::Instant::now() + RETRY_BUDGET;
    loop {
        match attempt() {
            // nrsnn-lint: allow(forbidden-api) -- same retry deadline check.
            Err(e) if e.is_retryable() && std::time::Instant::now() < deadline => {
                // nrsnn-lint: allow(forbidden-api) -- bounded client backoff
                // (RETRY_BACKOFF) between busy retries; no waiter to signal.
                std::thread::sleep(RETRY_BACKOFF);
            }
            other => return other,
        }
    }
}

/// A running inference server: the warm model registry, the dynamic
/// batcher's worker pool and any number of TCP front-ends.
pub struct Server {
    core: Arc<ServerCore>,
    workers: Option<WorkerPool>,
    front_ends: Vec<TcpFrontEnd>,
}

impl Server {
    /// Starts the batcher workers over a registry of warm models.
    ///
    /// # Errors
    /// Returns [`ServeError::Model`] for an empty registry,
    /// [`ServeError::InvalidRequest`] for an invalid configuration
    /// (including an unknown `NRSNN_SIMD` backend override in the
    /// environment — validated eagerly here so a typo surfaces as a typed
    /// startup error instead of a panic in the first worker to touch a
    /// kernel) and [`ServeError::Io`] if worker threads cannot be spawned.
    pub fn start(registry: ModelRegistry, config: ServerConfig) -> Result<Server> {
        config.validate()?;
        // Resolve the SIMD backend once, up front: workers then inherit the
        // cached dispatch and can never hit the lazy-init panic path.
        let backend = nrsnn_tensor::simd::resolve_env()
            .map_err(|e| ServeError::InvalidRequest(e.to_string()))?;
        nrsnn_tensor::simd::set_backend(backend);
        if registry.is_empty() {
            return Err(ServeError::Model(
                "cannot start a server with no registered models".to_string(),
            ));
        }
        let core = Arc::new(ServerCore::new(registry, config));
        let spawned = {
            let core = Arc::clone(&core);
            WorkerPool::spawn("nrsnn-serve", config.effective_workers(), move |worker| {
                worker_loop(&core, worker)
            })
        };
        let workers = match spawned {
            Ok(workers) => workers,
            Err(e) => {
                // A partial spawn failure detaches the workers that did
                // start; signal shutdown so they exit instead of parking on
                // the queue condvar (and pinning the registry) forever.
                core.begin_shutdown();
                return Err(e.into());
            }
        };
        Ok(Server {
            core,
            workers: Some(workers),
            front_ends: Vec::new(),
        })
    }

    /// An in-process client handle (cheap to clone, usable from any
    /// thread).
    pub fn client(&self) -> Client {
        Client {
            core: Arc::clone(&self.core),
        }
    }

    /// Binds a TCP listener speaking the newline-delimited JSON protocol
    /// and starts its accept thread; returns the bound address (use port
    /// `0` for an ephemeral port).
    ///
    /// # Errors
    /// Returns [`ServeError::Io`] if binding fails.
    pub fn serve_tcp<A: ToSocketAddrs>(&mut self, addr: A) -> Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let core = Arc::clone(&self.core);
            let stop = Arc::clone(&stop);
            let connections = Arc::clone(&connections);
            std::thread::Builder::new()
                .name(format!("nrsnn-serve-accept-{}", local_addr.port()))
                .spawn(move || {
                    for stream in listener.incoming() {
                        // ORDERING: SeqCst pairs with the SeqCst store in shutdown(); the
                        // flag is checked after waking, so a wake and a set flag can't
                        // reorder past each other and miss the stop.
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        match stream {
                            Ok(stream) => {
                                let core = Arc::clone(&core);
                                let stop = Arc::clone(&stop);
                                let handle = std::thread::spawn(move || {
                                    handle_connection(&core, &stop, stream);
                                });
                                // Reap finished connections as we go so a
                                // long-lived server does not accumulate one
                                // dead JoinHandle per connection ever served.
                                // UNWRAP: lock poisoning — a connection thread panicked mid-reap; propagate.
                                let mut list = connections.lock().expect("connection list");
                                list.retain(|h| !h.is_finished());
                                list.push(handle);
                            }
                            // accept() errors are transient (ECONNABORTED,
                            // fd exhaustion, …): killing the listener would
                            // leave the server running but unreachable.
                            // Back off briefly and keep accepting; only the
                            // stop flag ends the loop.
                            // nrsnn-lint: allow(forbidden-api) -- accept()
                            // backoff: there is no event to wait on, only
                            // the OS retrying; bounded by TCP_POLL_INTERVAL.
                            Err(_) => std::thread::sleep(TCP_POLL_INTERVAL),
                        }
                    }
                })?
        };
        self.front_ends.push(TcpFrontEnd {
            addr: local_addr,
            stop,
            accept: Some(accept),
            connections,
        });
        Ok(local_addr)
    }

    /// Addresses of the active TCP front-ends.
    pub fn tcp_addrs(&self) -> Vec<SocketAddr> {
        self.front_ends.iter().map(|f| f.addr).collect()
    }

    /// The current metrics snapshot.
    pub fn stats(&self) -> ServerStats {
        self.core.metrics.snapshot()
    }

    /// Number of requests currently waiting in the submission queue (not
    /// yet claimed by a batcher worker).
    pub fn queue_depth(&self) -> usize {
        self.core.queued()
    }

    /// Gracefully stops the server: rejects new requests, drains and
    /// answers everything already queued, then joins the front-end and
    /// worker threads.
    ///
    /// # Panics
    /// Re-raises the panic of a crashed worker (see
    /// [`WorkerPool::join`]).
    pub fn shutdown(mut self) {
        self.core.begin_shutdown();
        for front_end in std::mem::take(&mut self.front_ends) {
            front_end.stop();
        }
        if let Some(workers) = self.workers.take() {
            workers.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Best-effort signal so threads unblock if the server is dropped
        // without an explicit shutdown; handles not joined here.
        self.core.begin_shutdown();
        for front_end in &self.front_ends {
            front_end.signal();
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("models", &self.core.registry.names())
            .field("workers", &self.workers.as_ref().map(WorkerPool::threads))
            .field("tcp", &self.tcp_addrs())
            .finish()
    }
}

/// One bound TCP listener and its threads.
struct TcpFrontEnd {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl TcpFrontEnd {
    /// Raises the stop flag and pokes the listener awake.
    fn signal(&self) {
        // ORDERING: SeqCst pairs with the SeqCst loads in every worker and
        // listener loop; the strongest ordering keeps the stop protocol
        // obviously correct (shutdown is far off the hot path).
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in `incoming`; a throwaway connection
        // makes it re-check the flag.  A wildcard bind address
        // (0.0.0.0 / ::) is not connectable on every platform, so poke
        // through loopback instead.
        let mut target = self.addr;
        if target.ip().is_unspecified() {
            match target {
                SocketAddr::V4(_) => target.set_ip(std::net::Ipv4Addr::LOCALHOST.into()),
                SocketAddr::V6(_) => target.set_ip(std::net::Ipv6Addr::LOCALHOST.into()),
            }
        }
        let _ = TcpStream::connect(target);
    }

    /// Signals, then joins the accept thread and every connection thread.
    fn stop(mut self) {
        self.signal();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // UNWRAP: lock poisoning — joining threads after a panic has nothing left to save.
        let handles = std::mem::take(&mut *self.connections.lock().expect("connection list"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Writes the whole buffer, honouring the stream's write timeout: partial
/// progress is tracked across timeouts (so framing survives), and the stop
/// flag is re-checked on every timeout so a client that never drains its
/// socket cannot block shutdown forever.  Returns `false` when the
/// connection should be closed.
fn write_all_polling(writer: &mut TcpStream, bytes: &[u8], stop: &AtomicBool) -> bool {
    let mut written = 0;
    while written < bytes.len() {
        match writer.write(&bytes[written..]) {
            Ok(0) => return false,
            Ok(n) => written += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // ORDERING: SeqCst pairs with the SeqCst store in shutdown(); the
                // flag is checked after waking, so a wake and a set flag can't
                // reorder past each other and miss the stop.
                if stop.load(Ordering::SeqCst) {
                    return false;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// Serves one TCP connection until EOF, error or server shutdown.
///
/// The protocol is negotiated per connection by sniffing the first byte
/// without consuming it: [`FRAME_MAGIC`] selects the binary framing, and
/// anything else — in particular `{`, the first byte of every JSON
/// request — falls back to the newline-delimited JSON protocol.  A
/// connection never switches protocols after its first byte.
fn handle_connection(core: &ServerCore, stop: &AtomicBool, stream: TcpStream) {
    if stream.set_read_timeout(Some(TCP_POLL_INTERVAL)).is_err()
        || stream.set_write_timeout(Some(TCP_POLL_INTERVAL)).is_err()
    {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // Peek at the first byte: `fill_buf` does not consume, so whichever
    // protocol loop runs next still sees the byte.
    let first = loop {
        match reader.fill_buf() {
            Ok([]) => return, // closed before sending anything
            Ok(buf) => break buf[0],
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // ORDERING: SeqCst pairs with the SeqCst store in shutdown(); the
                // flag is checked after waking, so a wake and a set flag can't
                // reorder past each other and miss the stop.
                if stop.load(Ordering::SeqCst) || core.is_shutting_down() {
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    };
    if first == FRAME_MAGIC {
        handle_binary_connection(core, stop, &mut reader, &mut writer);
    } else {
        handle_json_connection(core, stop, &mut reader, &mut writer);
    }
}

/// The JSON loop: one request line in, one response line out.
fn handle_json_connection(
    core: &ServerCore,
    stop: &AtomicBool,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
) {
    // Lines are accumulated as raw bytes: unlike `read_line`, `read_until`
    // keeps everything already read in the buffer when the poll timeout
    // fires, even if the timeout split a multi-byte UTF-8 character.
    let mut line: Vec<u8> = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => return, // client closed
            Ok(_) => {
                let text = String::from_utf8_lossy(&line);
                if !text.trim().is_empty() {
                    let response = process_line(core, &text);
                    if !write_all_polling(writer, encode_line(&response).as_bytes(), stop) {
                        return;
                    }
                }
                line.clear();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Partial data stays in `line`; the next read appends the
                // rest of the request.
                // ORDERING: SeqCst pairs with the SeqCst store in shutdown(); the
                // flag is checked after waking, so a wake and a set flag can't
                // reorder past each other and miss the stop.
                if stop.load(Ordering::SeqCst) || core.is_shutting_down() {
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Outcome of a polling read of an exact number of bytes.
enum ReadFull {
    /// The buffer was filled.
    Filled,
    /// EOF before the buffer was filled (a clean close when it lands on a
    /// frame boundary, a truncated frame otherwise — the connection closes
    /// either way, since a gone peer cannot be answered).
    Eof,
    /// Shutdown was signalled or the stream failed.
    Aborted,
}

/// Fills `buf` completely from `reader`, honouring the stream's read
/// timeout: partial progress is kept across timeouts, and the stop flag is
/// re-checked on every timeout (the binary-framing counterpart of the JSON
/// loop's `read_until` handling).
fn read_full_polling(
    core: &ServerCore,
    stop: &AtomicBool,
    reader: &mut BufReader<TcpStream>,
    buf: &mut [u8],
) -> ReadFull {
    use std::io::Read;
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return ReadFull::Eof,
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // ORDERING: SeqCst pairs with the SeqCst store in shutdown(); the
                // flag is checked after waking, so a wake and a set flag can't
                // reorder past each other and miss the stop.
                if stop.load(Ordering::SeqCst) || core.is_shutting_down() {
                    return ReadFull::Aborted;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return ReadFull::Aborted,
        }
    }
    ReadFull::Filled
}

/// Sends one response as a binary frame; returns `false` when the
/// connection should be closed.
fn write_response_frame(writer: &mut TcpStream, stop: &AtomicBool, response: Response) -> bool {
    match nrsnn_wire::encode_frame(&Frame::Response(response)) {
        Ok(bytes) => write_all_polling(writer, &bytes, stop),
        Err(_) => false,
    }
}

/// The binary loop: one length-prefixed frame in, one frame out.
///
/// Malformed input is answered, never hung on and never panicked over:
/// a **header-level** fault (bad magic, unsupported version, oversized
/// length) means framing is lost and resynchronisation is impossible, so
/// the server sends one typed error frame and closes; a **payload-level**
/// fault (corrupt body, unknown tag, reply-typed frame) leaves the framing
/// intact, so the server answers with an error frame and keeps serving the
/// connection's subsequent requests.
fn handle_binary_connection(
    core: &ServerCore,
    stop: &AtomicBool,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
) {
    loop {
        let mut header_bytes = [0u8; FRAME_HEADER_LEN];
        match read_full_polling(core, stop, reader, &mut header_bytes) {
            ReadFull::Filled => {}
            // EOF between frames is a clean close; EOF inside a header is
            // a truncated frame, but with the peer gone there is nobody
            // left to answer.
            ReadFull::Eof | ReadFull::Aborted => return,
        }
        let header = match FrameHeader::parse(&header_bytes) {
            Ok(header) => header,
            Err(e) => {
                let error = ServeError::InvalidRequest(e.to_string());
                write_response_frame(writer, stop, error_response(&error));
                return;
            }
        };
        // The header passed the MAX_FRAME_LEN cap, so this allocation is
        // bounded regardless of what the peer announced.
        let mut payload = vec![0u8; header.payload_len as usize];
        match read_full_polling(core, stop, reader, &mut payload) {
            ReadFull::Filled => {}
            ReadFull::Eof | ReadFull::Aborted => return,
        }
        let response = match nrsnn_wire::decode_payload(&payload)
            .map_err(|e| ServeError::InvalidRequest(e.to_string()))
            .and_then(frame_to_request)
        {
            Ok(request) => process_request(core, request),
            Err(e) => error_response(&e),
        };
        if !write_response_frame(writer, stop, response) {
            return;
        }
    }
}

/// Decodes and executes one request line (the connection thread blocks
/// while its inference request is in flight — pipelining happens across
/// connections, batching across requests).
fn process_line(core: &ServerCore, line: &str) -> Response {
    match decode_request(line) {
        Err(e) => error_response(&e),
        Ok(request) => process_request(core, request),
    }
}

/// Executes one decoded request — shared by the JSON and binary loops, so
/// the reply is a function of the request alone, never of the wire format
/// that carried it.
fn process_request(core: &ServerCore, request: Request) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::Stats => Response::Stats(core.metrics.snapshot()),
        Request::ListModels => Response::Models(core.registry.names()),
        Request::Trace { last } => Response::Trace(fetch_traces(core, last)),
        Request::Infer { model, seed, input } => {
            match core
                .submit(&model, input, seed)
                .and_then(|slot| slot.wait())
            {
                Ok(reply) => Response::Infer(reply),
                Err(e) => error_response(&e),
            }
        }
    }
}

/// Drains the flight recorder into wire-shaped timelines, resolving model
/// indices back to registry names (shared by the in-process client and both
/// wire front-ends).
fn fetch_traces(core: &ServerCore, last: usize) -> Vec<RequestTrace> {
    let names = core.registry.names();
    core.metrics
        .recorder()
        .recent(last)
        .iter()
        .map(|record| RequestTrace {
            trace_id: record.trace_id,
            model: names
                .get(record.model as usize)
                .cloned()
                .unwrap_or_default(),
            seed: record.seed,
            worker: record.worker,
            start_ns: record.start_ns,
            end_ns: record.end_ns,
            ok: record.ok,
            backend: record.backend.to_string(),
            spans: record
                .spans
                .iter()
                .map(|span| TraceSpan {
                    stage: span.stage.code(),
                    layer: span.layer,
                    start_ns: span.start_ns,
                    end_ns: span.end_ns,
                    kernel: span.kernel.code(),
                    density: span.density,
                })
                .collect(),
            dropped_spans: record.dropped_spans,
        })
        .collect()
}

/// In-process client of a running [`Server`].
///
/// Requests submitted here enter the same bounded queue and dynamic
/// batcher as TCP requests, without serialization overhead.
#[derive(Clone)]
pub struct Client {
    core: Arc<ServerCore>,
}

impl Client {
    /// Classifies one input under the named model, blocking until the
    /// batcher answers.
    ///
    /// # Errors
    /// [`ServeError::Busy`] under backpressure (retryable),
    /// [`ServeError::UnknownModel`] / [`ServeError::InputMismatch`] for bad
    /// requests, [`ServeError::ShuttingDown`] during shutdown.
    pub fn infer(&self, model: &str, input: &[f32], seed: u64) -> Result<InferenceReply> {
        self.core.submit(model, input.to_vec(), seed)?.wait()
    }

    /// [`Client::infer`] that retries (with a tiny backoff) while the
    /// server reports backpressure, for up to [`RETRY_BUDGET`].
    ///
    /// # Errors
    /// Every non-retryable error immediately; the last
    /// [`ServeError::Busy`] once the retry budget is exhausted.
    pub fn infer_retrying(&self, model: &str, input: &[f32], seed: u64) -> Result<InferenceReply> {
        retry_while_busy(|| self.infer(model, input, seed))
    }

    /// The server's current metrics snapshot.
    pub fn stats(&self) -> ServerStats {
        self.core.metrics.snapshot()
    }

    /// Number of requests currently waiting in the submission queue.
    pub fn queue_depth(&self) -> usize {
        self.core.queued()
    }

    /// Registered model names.
    pub fn models(&self) -> Vec<String> {
        self.core.registry.names()
    }

    /// The last `last` request timelines from the flight recorder (newest
    /// first), plus any retained slow/failed outliers.  Empty when the
    /// server was started with tracing disabled.
    pub fn trace(&self, last: usize) -> Vec<RequestTrace> {
        fetch_traces(&self.core, last)
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("models", &self.core.registry.names())
            .finish()
    }
}

/// Blocking TCP client of the front-end (used by the load generator, the
/// end-to-end tests and as a reference implementation for clients in other
/// languages).  [`TcpClient::connect`] speaks the newline-delimited JSON
/// protocol; [`TcpClient::connect_binary`] speaks the `nrsnn-wire` binary
/// framing.  Replies are bit-identical either way — the format is
/// negotiated per connection by the first byte the client sends.
pub struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    binary: bool,
}

impl TcpClient {
    fn connect_with<A: ToSocketAddrs>(addr: A, binary: bool) -> Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(TcpClient {
            reader: BufReader::new(stream),
            writer,
            binary,
        })
    }

    /// Connects to a server's TCP front-end, speaking JSON.
    ///
    /// # Errors
    /// Returns [`ServeError::Io`] on connection failure.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<TcpClient> {
        TcpClient::connect_with(addr, false)
    }

    /// Connects to a server's TCP front-end, speaking the binary framing
    /// (the server switches on the magic first byte of the first frame).
    ///
    /// # Errors
    /// Returns [`ServeError::Io`] on connection failure.
    pub fn connect_binary<A: ToSocketAddrs>(addr: A) -> Result<TcpClient> {
        TcpClient::connect_with(addr, true)
    }

    /// Returns `true` if this client speaks the binary framing.
    pub fn is_binary(&self) -> bool {
        self.binary
    }

    /// Sends one request and reads the matching response (one JSON line or
    /// one binary frame, as negotiated at connect time).
    ///
    /// # Errors
    /// Returns [`ServeError::Io`] on transport failures or a malformed
    /// response.
    pub fn request(&mut self, request: &Request) -> Result<Response> {
        if self.binary {
            let bytes = nrsnn_wire::encode_frame(&request_to_frame(request))
                .map_err(|e| ServeError::Io(e.to_string()))?;
            self.writer.write_all(&bytes).map_err(ServeError::from)?;
            let frame = nrsnn_wire::read_frame(&mut self.reader)
                .map_err(|e| ServeError::Io(e.to_string()))?;
            return frame_to_response(frame);
        }
        self.writer
            .write_all(encode_line(request).as_bytes())
            .map_err(ServeError::from)?;
        let mut line = String::new();
        let read = self.reader.read_line(&mut line).map_err(ServeError::from)?;
        if read == 0 {
            return Err(ServeError::Io("server closed the connection".to_string()));
        }
        decode_response(&line)
    }

    /// Classifies one input under the named model.
    ///
    /// # Errors
    /// Transport failures as [`ServeError::Io`]; server-side failures as
    /// their decoded typed error (e.g. [`ServeError::Busy`]).
    pub fn infer(&mut self, model: &str, input: &[f32], seed: u64) -> Result<InferenceReply> {
        let response = self.request(&Request::Infer {
            model: model.to_string(),
            seed,
            input: input.to_vec(),
        })?;
        match into_result(response)? {
            Response::Infer(reply) => Ok(reply),
            other => Err(ServeError::Io(format!(
                "expected an infer response, got {other:?}"
            ))),
        }
    }

    /// [`TcpClient::infer`] that retries while the server reports
    /// backpressure, for up to [`RETRY_BUDGET`].
    ///
    /// # Errors
    /// Every non-retryable error immediately; the last
    /// [`ServeError::Busy`] once the retry budget is exhausted.
    pub fn infer_retrying(
        &mut self,
        model: &str,
        input: &[f32],
        seed: u64,
    ) -> Result<InferenceReply> {
        retry_while_busy(|| self.infer(model, input, seed))
    }

    /// Fetches the server's metrics snapshot.
    ///
    /// # Errors
    /// Transport failures as [`ServeError::Io`].
    pub fn stats(&mut self) -> Result<ServerStats> {
        match into_result(self.request(&Request::Stats)?)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(ServeError::Io(format!(
                "expected a stats response, got {other:?}"
            ))),
        }
    }

    /// Lists the registered model names.
    ///
    /// # Errors
    /// Transport failures as [`ServeError::Io`].
    pub fn models(&mut self) -> Result<Vec<String>> {
        match into_result(self.request(&Request::ListModels)?)? {
            Response::Models(models) => Ok(models),
            other => Err(ServeError::Io(format!(
                "expected a models response, got {other:?}"
            ))),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    /// Transport failures as [`ServeError::Io`].
    pub fn ping(&mut self) -> Result<()> {
        match into_result(self.request(&Request::Ping)?)? {
            Response::Pong => Ok(()),
            other => Err(ServeError::Io(format!("expected pong, got {other:?}"))),
        }
    }

    /// Fetches the last `last` request timelines from the server's flight
    /// recorder (newest first), plus any retained slow/failed outliers.
    ///
    /// # Errors
    /// Transport failures as [`ServeError::Io`].
    pub fn trace(&mut self, last: usize) -> Result<Vec<RequestTrace>> {
        match into_result(self.request(&Request::Trace { last })?)? {
            Response::Trace(traces) => Ok(traces),
            other => Err(ServeError::Io(format!(
                "expected a trace response, got {other:?}"
            ))),
        }
    }
}

impl std::fmt::Debug for TcpClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpClient")
            .field("binary", &self.binary)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoiseSpec, ServedModel};
    use nrsnn_snn::{CodingConfig, CodingKind, SnnLayer, SnnNetwork};
    use nrsnn_tensor::Tensor;

    fn toy_registry() -> ModelRegistry {
        let network = SnnNetwork::new(vec![SnnLayer::Linear {
            weights: Tensor::from_vec(vec![1.0, -1.0, -1.0, 1.0], &[2, 2]).unwrap(),
            bias: Tensor::zeros(&[2]),
        }])
        .unwrap();
        let mut registry = ModelRegistry::new();
        registry
            .insert(
                ServedModel::new(
                    "toy",
                    network,
                    CodingKind::Rate,
                    CodingConfig::new(32, 1.0),
                    NoiseSpec::Deletion(0.2),
                    1.0,
                    99,
                )
                .unwrap(),
            )
            .unwrap();
        registry
    }

    fn small_config() -> ServerConfig {
        ServerConfig {
            workers: 2,
            max_batch: 4,
            queue_capacity: 64,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn start_rejects_empty_registry_and_bad_config() {
        assert!(matches!(
            Server::start(ModelRegistry::new(), ServerConfig::default()),
            Err(ServeError::Model(_))
        ));
        assert!(Server::start(
            toy_registry(),
            ServerConfig {
                max_batch: 0,
                ..ServerConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn stats_request_before_any_traffic_returns_well_defined_zeros() {
        let server = Server::start(toy_registry(), small_config()).unwrap();
        let stats = server.client().stats();
        assert_eq!(stats.requests_received, 0);
        assert_eq!(stats.requests_served, 0);
        assert_eq!(stats.p50_latency_us, 0);
        assert_eq!(stats.p99_latency_us, 0);
        assert_eq!(stats.mean_latency_us, 0.0);
        assert_eq!(stats.mean_batch_size, 0.0);
        assert_eq!(stats.spikes_per_inference, 0.0);
        server.shutdown();
    }

    #[test]
    fn in_process_round_trip_and_stats() {
        let server = Server::start(toy_registry(), small_config()).unwrap();
        let client = server.client();
        assert_eq!(client.models(), vec!["toy"]);
        let reply = client.infer("toy", &[0.9, 0.1], 5).unwrap();
        assert_eq!(reply.model, "toy");
        assert_eq!(reply.predicted, 0);
        assert_eq!(reply.logits.len(), 2);
        let stats = client.stats();
        assert_eq!(stats.requests_served, 1);
        assert_eq!(stats.batches, 1);
        server.shutdown();
    }

    #[test]
    fn concurrent_in_process_clients_all_get_answers() {
        let server = Server::start(toy_registry(), small_config()).unwrap();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let client = server.client();
                std::thread::spawn(move || {
                    (0..8)
                        .map(|i| {
                            client
                                .infer_retrying("toy", &[0.2, 0.8], (t * 8 + i) as u64)
                                .unwrap()
                                .predicted
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for thread in threads {
            let predictions = thread.join().unwrap();
            assert_eq!(predictions.len(), 8);
        }
        let stats = server.stats();
        assert_eq!(stats.requests_served, 32);
        assert_eq!(stats.failed, 0);
        server.shutdown();
    }

    #[test]
    fn tcp_round_trip_on_ephemeral_port() {
        let mut server = Server::start(toy_registry(), small_config()).unwrap();
        let addr = server.serve_tcp(("127.0.0.1", 0)).unwrap();
        assert_eq!(server.tcp_addrs(), vec![addr]);
        let mut client = TcpClient::connect(addr).unwrap();
        client.ping().unwrap();
        assert_eq!(client.models().unwrap(), vec!["toy"]);
        let reply = client.infer("toy", &[0.1, 0.9], 3).unwrap();
        assert_eq!(reply.predicted, 1);
        let stats = client.stats().unwrap();
        assert_eq!(stats.requests_served, 1);
        server.shutdown();
    }

    #[test]
    fn tcp_errors_are_typed_on_the_client_side() {
        let mut server = Server::start(toy_registry(), small_config()).unwrap();
        let addr = server.serve_tcp(("127.0.0.1", 0)).unwrap();
        let mut client = TcpClient::connect(addr).unwrap();
        assert!(matches!(
            client.infer("missing", &[0.0, 0.0], 0),
            Err(ServeError::UnknownModel(_))
        ));
        assert!(matches!(
            client.infer("toy", &[0.0], 0),
            Err(ServeError::InvalidRequest(_))
        ));
        // A malformed line gets an error response, not a hangup.
        client.writer.write_all(b"{broken\n").unwrap();
        let mut line = String::new();
        client.reader.read_line(&mut line).unwrap();
        let response = decode_response(&line).unwrap();
        assert!(matches!(response, Response::Error { .. }));
        client.ping().unwrap();
        server.shutdown();
    }

    #[test]
    fn shutdown_answers_queued_requests_and_rejects_new_ones() {
        let server = Server::start(toy_registry(), small_config()).unwrap();
        let client = server.client();
        let reply = client.infer("toy", &[0.8, 0.2], 1).unwrap();
        assert_eq!(reply.predicted, 0);
        server.shutdown();
        // The client outlives the server; new submits are refused, not hung.
        assert!(matches!(
            client.infer("toy", &[0.8, 0.2], 2),
            Err(ServeError::ShuttingDown)
        ));
    }
}
