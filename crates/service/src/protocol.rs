//! Length-prefixed TCP protocol (version 4), sent in one write on a socket
//! with `TCP_NODELAY` set. A frame is:
//!
//! ```text
//! u32 big-endian body length | compact UTF-8 JSON head | NUL | binary tail
//! ```
//!
//! The NUL and the tail are present only when the document carries bulk
//! data; a frame without any is plain compact JSON, byte for byte what
//! version 3 sent. Bulk data is a `Json::Bytes` value: the head holds a
//! section reference `{"$bytes":[offset,length]}` in its place and the
//! bytes sit in the tail ([`encode_frame`] moves them there, [`decode_frame`]
//! restores them). Only the head is parsed as text; tail bytes are
//! copied as they are, with no text encoding. The references tile the
//! tail in document order, each starting where the last ended, so a
//! frame's decoded bulk data never exceeds its own size.
//!
//! Two members use it. An inline relation is one section holding its
//! binary `SKJR` block (the `datagen::io` format: 16-byte header, then
//! 8-byte little-endian tuples), so a tuple costs 8 bytes on the wire and
//! a request under the 64 MiB cap carries ≈ 8.4 M tuples across both
//! relations. A reply's per-key counts are one section of 12-byte records
//! (little-endian `u32` key, `u64` count) in ascending key order. A
//! section reference that is malformed, out of order or beyond the tail,
//! tail bytes no reference names, a truncated block, a tuple count that disagrees with the length, a wrong
//! magic, a ragged or unordered key-count section, the version-3 base64
//! string and the version-1 `[[key, payload], …]` array each get a typed
//! protocol error.
//!
//! A completed summary's `degradations` are rung objects, each tagged by
//! its `kind` (the `common::trace::Rung` codec); version 2 sent rung text.
//! An unknown kind or a missing field is a typed protocol error too.
//!
//! Ops (the `"op"` member of a request frame):
//!
//! * `"join"` (default) — a [`JoinRequest`]; answered with one
//!   [`JoinResponse`] frame once the join resolves.
//! * `"shard_join"` — a [`JoinRequest`] carrying a shard restriction: the
//!   cluster coordinator's per-shard task. Identical lifecycle to `"join"`,
//!   but the request must name its shard slice and the completed summary
//!   carries per-key counts and the shard trace so the coordinator can
//!   merge and diff-check the pieces.
//! * `"shard_status"` — answered with the shard's identity, protocol
//!   version, queue depth, and the full service snapshot; what the
//!   coordinator polls for liveness and accounting.
//! * `"metrics"` — answered with the service snapshot (metrics, governor,
//!   plan cache).
//! * `"ping"` — the hello/liveness probe. The reply always carries the
//!   server's `protocol_version`; a request that announces a different
//!   `protocol_version` is answered with `{"ok": false}` plus the server's
//!   version so the client can raise a typed
//!   [`ClientError::VersionMismatch`] instead of misparsing frames.
//!
//! Malformed frames get a `failed` response naming the parse error (id 0,
//! since no request was admitted) and the connection stays open: the
//! length prefix keeps the stream in step whatever the body holds. Only a
//! broken transport or an oversized length prefix closes the stream. A
//! connection dying mid-frame — in the middle of the 4-byte length prefix
//! or inside the payload — surfaces as a descriptive
//! `ErrorKind::UnexpectedEof` ("torn frame"), never a hang or a panic.
//!
//! [`Client`] reconnects: an op that fails with a connection-shaped error
//! (refused, reset, broken pipe, EOF mid-reply) transparently redials with
//! doubling backoff and retries, up to a bounded attempt count; exhaustion
//! surfaces as a typed [`ClientError::ConnectionLost`]. It counts the frame
//! bytes it sends and receives ([`Client::bytes_sent`],
//! [`Client::bytes_received`]).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use skewjoin::common::json::Json;

use crate::request::{JoinRequest, JoinResponse, Outcome};
use crate::service::JoinService;

/// Frames larger than this are refused — a corrupt length prefix must not
/// trigger a multi-gigabyte allocation.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Version of the frame protocol this build speaks. Carried in the
/// `ping` hello exchange; a mismatch is a typed
/// [`ClientError::VersionMismatch`], not a frame-parse failure.
pub const PROTOCOL_VERSION: u32 = 4;

/// Connection attempts a [`Client`] makes per op before reporting
/// [`ClientError::ConnectionLost`].
pub const DEFAULT_CLIENT_ATTEMPTS: u32 = 4;

/// Base backoff between client reconnection attempts; doubles per retry.
pub const DEFAULT_CLIENT_BACKOFF: Duration = Duration::from_millis(25);

/// Encodes one frame: the length prefix, the compact JSON head, and — when
/// the document holds [`Json::Bytes`] values — a NUL byte and the binary
/// tail those values' section references point into.
///
/// The bytes are copied once, from each value straight into the tail. A
/// document without binary values encodes exactly as in version 3.
pub fn encode_frame(json: &Json) -> io::Result<Vec<u8>> {
    let mut head = String::from("\0\0\0\0");
    let mut sections = Vec::new();
    json.write_split(&mut head, &mut sections);
    let mut frame = head.into_bytes();
    if !sections.is_empty() {
        frame.reserve_exact(1 + sections.iter().map(|s| s.len()).sum::<usize>());
        frame.push(0);
        for section in sections {
            frame.extend_from_slice(section);
        }
    }
    let len = u32::try_from(frame.len() - 4)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32 length"))?;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    frame[..4].copy_from_slice(&len.to_be_bytes());
    Ok(frame)
}

/// Writes one frame (see [`encode_frame`]).
///
/// Prefix, head and tail leave in one `write_all`: two writes on a socket
/// with Nagle's algorithm on stall the second behind the peer's delayed
/// ACK.
pub fn write_frame(w: &mut impl Write, json: &Json) -> io::Result<()> {
    w.write_all(&encode_frame(json)?)?;
    w.flush()
}

/// Reads one frame: the length prefix, then the body, then
/// [`decode_frame`] over it. A body that does not decode is
/// `ErrorKind::InvalidData`.
///
/// A clean EOF *between* frames surfaces as `ErrorKind::UnexpectedEof`
/// with a "connection closed between frames" message; a connection dying
/// *inside* a frame — mid-length-prefix or mid-payload — is also
/// `UnexpectedEof` but describes the torn frame, so callers (and logs) can
/// tell a peer's orderly close from a crash mid-send.
pub fn read_frame(r: &mut impl Read) -> io::Result<Json> {
    decode_frame(&read_frame_body(r)?).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Reads one frame's body: everything after the length prefix. Errors are
/// transport-level; once this returns, the stream sits at the next frame
/// whatever the body holds.
fn read_frame_body(r: &mut impl Read) -> io::Result<Vec<u8>> {
    // The length prefix is read incrementally: a peer can die after
    // sending 1–3 of the 4 bytes, and `read_exact` would erase that
    // distinction.
    let mut len_bytes = [0u8; 4];
    let mut filled = 0usize;
    while filled < len_bytes.len() {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed between frames",
                ));
            }
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!(
                        "torn frame: connection closed after {filled} of 4 length-prefix bytes"
                    ),
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("torn frame: connection closed inside a {len}-byte payload"),
            )
        } else {
            e
        }
    })?;
    Ok(body)
}

/// Decodes a frame body: the JSON head up to the first NUL byte (compact
/// JSON escapes every control character, so the head holds none), and the
/// binary tail after it, which the head's section references point into.
/// Only the head is checked for UTF-8.
pub fn decode_frame(body: &[u8]) -> Result<Json, String> {
    let (head, tail) = match body.iter().position(|&b| b == 0) {
        Some(at) => (&body[..at], Some(&body[at + 1..])),
        None => (body, None),
    };
    let head = std::str::from_utf8(head).map_err(|e| format!("non-UTF-8 frame: {e}"))?;
    match tail {
        Some(tail) => Json::parse_split(head, tail),
        None => Json::parse(head),
    }
    .map_err(|e| format!("bad frame JSON: {e}"))
}

/// A running TCP front end over a [`JoinService`].
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with `"127.0.0.1:0"` ephemeral binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept loop. Existing
    /// connections drain on their own (they are client-driven); the
    /// underlying service keeps running until its own `shutdown`.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if let Some(handle) = self.accept_thread.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Unblock the accept loop with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves `service` over it until
/// [`ServerHandle::stop`].
pub fn serve(service: Arc<JoinService>, addr: impl ToSocketAddrs) -> io::Result<ServerHandle> {
    serve_shard(service, addr, None)
}

/// [`serve`], with a cluster shard identity: `shard_status` and `ping`
/// replies name the slot, so a coordinator can confirm it dialed the shard
/// it meant to.
pub fn serve_shard(
    service: Arc<JoinService>,
    addr: impl ToSocketAddrs,
    shard: Option<u32>,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let accept_thread = std::thread::Builder::new()
        .name("skewjoind-accept".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let service = Arc::clone(&service);
                let _ = std::thread::Builder::new()
                    .name("skewjoind-conn".into())
                    .spawn(move || handle_connection(&service, stream, shard));
            }
        })?;
    Ok(ServerHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
    })
}

fn handle_connection(service: &JoinService, mut stream: TcpStream, shard: Option<u32>) {
    // Replies are single writes; nothing is gained by Nagle's coalescing.
    let _ = stream.set_nodelay(true);
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown-peer".into());
    loop {
        let body = match read_frame_body(&mut stream) {
            Ok(body) => body,
            // Clean close, torn frame, or broken transport: nothing left
            // to answer on this stream.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // An oversized length prefix: describe it, then close, since
                // the stream offset is lost.
                let _ = write_frame(&mut stream, &protocol_error(&e.to_string()));
                return;
            }
            Err(_) => return,
        };
        // The whole body was read, so the stream stays in step: a body that
        // does not decode is answered and the connection kept. The raw
        // body is freed before the join runs.
        let decoded = decode_frame(&body);
        drop(body);
        let reply = match decoded {
            Ok(frame) => answer(service, &frame, &peer, shard),
            Err(e) => protocol_error(&e),
        };
        if write_frame(&mut stream, &reply).is_err() {
            return;
        }
    }
}

/// The reply to one decoded request frame.
fn answer(service: &JoinService, frame: &Json, peer: &str, shard: Option<u32>) -> Json {
    let op = frame.get("op").and_then(Json::as_str).unwrap_or("join");
    match op {
        "ping" => ping_reply(frame, shard),
        "metrics" => service.snapshot(),
        "shard_status" => {
            let mut fields = vec![
                ("ok", Json::Bool(true)),
                (
                    "protocol_version",
                    Json::from_u64(u64::from(PROTOCOL_VERSION)),
                ),
                ("queue_depth", Json::from_u64(service.queue_depth() as u64)),
            ];
            if let Some(slot) = shard {
                fields.push(("shard", Json::from_u64(u64::from(slot))));
            }
            fields.push(("status", service.snapshot()));
            Json::obj(fields)
        }
        "join" | "shard_join" => match JoinRequest::from_json(frame, peer) {
            Ok(request) => {
                if op == "shard_join" && request.shard.is_none() {
                    protocol_error("shard_join requires a \"shard\" restriction")
                } else {
                    service.submit(request).wait().to_json()
                }
            }
            Err(msg) => protocol_error(&msg),
        },
        other => protocol_error(&format!("unknown op {other:?}")),
    }
}

/// The `ping` reply: liveness plus the version handshake. A hello that
/// announces a foreign protocol version gets `ok: false` and the server's
/// version, which the client turns into a typed mismatch error.
fn ping_reply(frame: &Json, shard: Option<u32>) -> Json {
    let announced = frame
        .get("protocol_version")
        .and_then(Json::as_u64)
        .map(|v| v as u32);
    let compatible = announced.is_none_or(|v| v == PROTOCOL_VERSION);
    let mut fields = vec![
        ("ok", Json::Bool(compatible)),
        (
            "protocol_version",
            Json::from_u64(u64::from(PROTOCOL_VERSION)),
        ),
    ];
    if let Some(slot) = shard {
        fields.push(("shard", Json::from_u64(u64::from(slot))));
    }
    if !compatible {
        fields.push((
            "error",
            Json::str(format!(
                "protocol version mismatch: client v{}, server v{PROTOCOL_VERSION}",
                announced.unwrap_or(0)
            )),
        ));
    }
    Json::obj(fields)
}

/// A `failed` response with id 0: the frame never became an admitted
/// request, so no service accounting applies.
fn protocol_error(msg: &str) -> Json {
    JoinResponse {
        id: 0,
        outcome: Outcome::Failed {
            error: format!("protocol error: {msg}"),
        },
    }
    .to_json()
}

/// Typed client-side failure of a protocol op.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed and every reconnection attempt was exhausted.
    ConnectionLost {
        /// Connection attempts made (including the first).
        attempts: u32,
        /// The last transport error observed.
        last: String,
    },
    /// The server speaks a different protocol version.
    VersionMismatch {
        /// The version this client announced.
        client: u32,
        /// The version the server reported.
        server: u32,
    },
    /// The transport is healthy but the conversation is not: a malformed
    /// reply, an oversized frame, or a server-side frame rejection.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::ConnectionLost { attempts, last } => {
                write!(f, "connection lost after {attempts} attempt(s): {last}")
            }
            ClientError::VersionMismatch { client, server } => {
                write!(
                    f,
                    "protocol version mismatch: client v{client}, server v{server}"
                )
            }
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Whether an I/O error is connection-shaped — worth a redial — rather
/// than a protocol-level failure that a fresh connection cannot fix.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::NotConnected
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::TimedOut
    )
}

/// A stream that counts the bytes read from and written to it.
struct Counted<'a, S> {
    inner: &'a mut S,
    written: u64,
    read: u64,
}

impl<S: Read> Read for Counted<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.read += n as u64;
        Ok(n)
    }
}

impl<S: Write> Write for Counted<'_, S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A blocking client for the frame protocol, with bounded
/// reconnect-with-backoff on connection-shaped failures.
///
/// Retrying an op after a connection loss re-sends the request on a fresh
/// connection. That is safe for every op here: `ping`, `metrics`, and
/// `shard_status` are read-only, and join results exist only in the
/// response — a re-sent join re-executes but cannot double-deliver, which
/// is exactly the property the cluster coordinator's task reassignment
/// leans on.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    attempts: u32,
    backoff: Duration,
    version: u32,
    bytes_sent: u64,
    bytes_received: u64,
}

impl Client {
    /// Connects to a running server and performs the version hello.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Self::connect_with(
            addr,
            PROTOCOL_VERSION,
            DEFAULT_CLIENT_ATTEMPTS,
            DEFAULT_CLIENT_BACKOFF,
        )
    }

    /// [`Client::connect`] with explicit retry policy and announced
    /// protocol version (tests use a foreign version to provoke the typed
    /// mismatch).
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        version: u32,
        attempts: u32,
        backoff: Duration,
    ) -> Result<Client, ClientError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| ClientError::Protocol(format!("unresolvable address: {e}")))?
            .next()
            .ok_or_else(|| ClientError::Protocol("address resolved to nothing".into()))?;
        let mut client = Client {
            addr,
            stream: None,
            attempts: attempts.max(1),
            backoff,
            version,
            bytes_sent: 0,
            bytes_received: 0,
        };
        client.hello()?;
        Ok(client)
    }

    /// The server address this client dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Frame bytes this client has written, length prefixes included,
    /// over every connection and attempt so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Frame bytes this client has read, length prefixes included.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Sends the version hello and checks the reply.
    fn hello(&mut self) -> Result<(), ClientError> {
        let reply = self.request(&Json::obj(vec![
            ("op", Json::str("ping")),
            ("protocol_version", Json::from_u64(u64::from(self.version))),
        ]))?;
        self.check_version(&reply)
    }

    /// Raises [`ClientError::VersionMismatch`] if the reply names a
    /// protocol version other than ours. Replies without a version (a
    /// pre-versioning server) pass; such a server reads relations as
    /// arrays, so its first inline join fails with a typed protocol error.
    fn check_version(&self, reply: &Json) -> Result<(), ClientError> {
        if let Some(server) = reply.get("protocol_version").and_then(Json::as_u64) {
            let server = server as u32;
            if server != self.version {
                return Err(ClientError::VersionMismatch {
                    client: self.version,
                    server,
                });
            }
        }
        Ok(())
    }

    /// One request/reply exchange with reconnect-with-backoff.
    fn request(&mut self, frame: &Json) -> Result<Json, ClientError> {
        let mut last: Option<io::Error> = None;
        for attempt in 0..self.attempts {
            if attempt > 0 {
                std::thread::sleep(self.backoff * (1 << (attempt - 1).min(8)));
            }
            match self.try_once(frame) {
                Ok(reply) => return Ok(reply),
                Err(e) if is_transient(&e) => {
                    // The stream offset is unknowable after a mid-frame
                    // failure; only a fresh connection is usable.
                    self.stream = None;
                    last = Some(e);
                }
                Err(e) => return Err(ClientError::Protocol(e.to_string())),
            }
        }
        Err(ClientError::ConnectionLost {
            attempts: self.attempts,
            last: last
                .map(|e| e.to_string())
                .unwrap_or_else(|| "unknown transport error".into()),
        })
    }

    fn try_once(&mut self, frame: &Json) -> io::Result<Json> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
        }
        let mut stream = Counted {
            inner: self.stream.as_mut().expect("stream just ensured"),
            written: 0,
            read: 0,
        };
        let reply = write_frame(&mut stream, frame).and_then(|()| read_frame(&mut stream));
        self.bytes_sent += stream.written;
        self.bytes_received += stream.read;
        reply
    }

    /// Submits a join and blocks for its response.
    pub fn join(&mut self, request: &JoinRequest) -> Result<JoinResponse, ClientError> {
        let reply = self.request(&request.to_json())?;
        JoinResponse::from_json(&reply)
            .map_err(|e| ClientError::Protocol(format!("bad response: {e}")))
    }

    /// Submits one shard task of a sharded join (a request carrying a
    /// shard restriction) and blocks for its response.
    pub fn shard_join(&mut self, request: &JoinRequest) -> Result<JoinResponse, ClientError> {
        let reply = self.request(&request.wire_json("shard_join"))?;
        JoinResponse::from_json(&reply)
            .map_err(|e| ClientError::Protocol(format!("bad response: {e}")))
    }

    /// Fetches the service snapshot.
    pub fn metrics(&mut self) -> Result<Json, ClientError> {
        self.request(&Json::obj(vec![("op", Json::str("metrics"))]))
    }

    /// Fetches the shard's identity, version, queue depth, and snapshot.
    pub fn shard_status(&mut self) -> Result<Json, ClientError> {
        self.request(&Json::obj(vec![("op", Json::str("shard_status"))]))
    }

    /// Liveness probe (also re-checks the protocol version).
    pub fn ping(&mut self) -> Result<bool, ClientError> {
        let reply = self.request(&Json::obj(vec![
            ("op", Json::str("ping")),
            ("protocol_version", Json::from_u64(u64::from(self.version))),
        ]))?;
        self.check_version(&reply)?;
        Ok(reply.get("ok").and_then(Json::as_bool).unwrap_or(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::AlgoChoice;
    use crate::service::ServiceConfig;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let json = Json::obj(vec![("op", Json::str("ping")), ("n", Json::from_u64(7))]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &json).unwrap();
        assert_eq!(
            u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize,
            buf.len() - 4
        );
        let back = read_frame(&mut Cursor::new(buf)).unwrap();
        assert_eq!(back.get("n").and_then(Json::as_u64), Some(7));
    }

    #[test]
    fn bulk_members_travel_in_the_binary_tail() {
        // No binary member: the body is the compact JSON, as in v3.
        let plain = Json::obj(vec![("op", Json::str("ping"))]);
        let frame = encode_frame(&plain).unwrap();
        assert_eq!(&frame[4..], plain.to_string().as_bytes());

        let doc = Json::obj(vec![
            ("a", Json::Bytes(vec![0, 1, 2])),
            ("b", Json::Bytes(vec![0xFF; 4])),
        ]);
        let frame = encode_frame(&doc).unwrap();
        let head = br#"{"a":{"$bytes":[0,3]},"b":{"$bytes":[3,4]}}"#;
        assert_eq!(&frame[4..4 + head.len()], head);
        assert_eq!(
            &frame[4 + head.len()..],
            [0, 0, 1, 2, 0xFF, 0xFF, 0xFF, 0xFF]
        );
        assert_eq!(read_frame(&mut Cursor::new(frame)).unwrap(), doc);

        // Only the head must be UTF-8.
        let err = decode_frame(b"{\"a\":\"\xFF\"}").unwrap_err();
        assert!(err.contains("non-UTF-8"), "{err}");
        let err = decode_frame(b"{\"a\":{\"$bytes\":[0,2]}}\0\xFF").unwrap_err();
        assert!(err.contains("beyond the 1-byte tail"), "{err}");
    }

    #[test]
    fn oversized_length_prefix_is_refused() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.extend_from_slice(b"junk");
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_an_eof_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_be_bytes());
        buf.extend_from_slice(b"short");
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("torn frame"), "{err}");
    }

    #[test]
    fn torn_length_prefix_is_a_described_eof() {
        // The peer died after 2 of the 4 length-prefix bytes.
        let err = read_frame(&mut Cursor::new(vec![0u8, 0u8])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            err.to_string().contains("2 of 4 length-prefix bytes"),
            "{err}"
        );
        // A clean close between frames is distinguishable.
        let err = read_frame(&mut Cursor::new(Vec::new())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("between frames"), "{err}");
    }

    fn tiny_server() -> (Arc<JoinService>, ServerHandle) {
        let mut cfg = ServiceConfig {
            workers: 2,
            queue_capacity: 16,
            ..ServiceConfig::default()
        };
        cfg.join_config.cpu.threads = 2;
        let service = JoinService::start(cfg);
        let handle = serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
        (service, handle)
    }

    #[test]
    fn tcp_round_trip_join_metrics_ping() {
        let (service, handle) = tiny_server();
        let mut client = Client::connect(handle.addr()).unwrap();
        assert!(client.ping().unwrap());

        let req = JoinRequest::generate("wire", AlgoChoice::parse("csh").unwrap(), 2048, 0.9, 3);
        let (sent, received) = (client.bytes_sent(), client.bytes_received());
        let resp = client.join(&req).unwrap();
        let request_frame = encode_frame(&req.to_json()).unwrap();
        assert_eq!(client.bytes_sent() - sent, request_frame.len() as u64);
        let reply_frame = encode_frame(&resp.to_json()).unwrap();
        assert_eq!(client.bytes_received() - received, reply_frame.len() as u64);
        match resp.outcome {
            Outcome::Completed(summary) => assert!(summary.result_count > 0),
            other => panic!("expected completion over TCP, got {other:?}"),
        }

        let snapshot = client.metrics().unwrap();
        assert!(snapshot.get("governor").is_some());
        drop(client);
        handle.stop();
        service.shutdown();
    }

    #[test]
    fn malformed_wire_request_gets_a_typed_error_frame() {
        let (service, handle) = tiny_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write_frame(
            &mut stream,
            &Json::obj(vec![
                ("op", Json::str("join")),
                ("algo", Json::str("bogus")),
            ]),
        )
        .unwrap();
        let reply = read_frame(&mut stream).unwrap();
        let resp = JoinResponse::from_json(&reply).unwrap();
        match resp.outcome {
            Outcome::Failed { error } => assert!(error.contains("bogus")),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        drop(stream);
        handle.stop();
        service.shutdown();
    }

    #[test]
    fn server_survives_torn_frames_from_clients() {
        let (service, handle) = tiny_server();

        // Client 1 dies mid-length-prefix.
        {
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            stream.write_all(&[0u8, 0u8]).unwrap();
        }
        // Client 2 promises 100 bytes and dies after 5.
        {
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            stream.write_all(&100u32.to_be_bytes()).unwrap();
            stream.write_all(b"short").unwrap();
        }

        // The server is still healthy: a fresh client completes a full
        // round trip.
        let mut client = Client::connect(handle.addr()).unwrap();
        assert!(client.ping().unwrap());
        drop(client);
        handle.stop();
        service.shutdown();
    }

    #[test]
    fn version_mismatch_is_typed() {
        let (service, handle) = tiny_server();
        let err = Client::connect_with(
            handle.addr(),
            PROTOCOL_VERSION + 1,
            2,
            Duration::from_millis(1),
        )
        .unwrap_err();
        match err {
            ClientError::VersionMismatch { client, server } => {
                assert_eq!(client, PROTOCOL_VERSION + 1);
                assert_eq!(server, PROTOCOL_VERSION);
            }
            other => panic!("expected a version mismatch, got {other}"),
        }
        handle.stop();
        service.shutdown();
    }

    #[test]
    fn shard_status_names_the_slot_and_version() {
        let mut cfg = ServiceConfig {
            workers: 1,
            queue_capacity: 4,
            ..ServiceConfig::default()
        };
        cfg.join_config.cpu.threads = 2;
        let service = JoinService::start(cfg);
        let handle = serve_shard(Arc::clone(&service), "127.0.0.1:0", Some(3)).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let status = client.shard_status().unwrap();
        assert_eq!(status.get("shard").and_then(Json::as_u64), Some(3));
        assert_eq!(
            status.get("protocol_version").and_then(Json::as_u64),
            Some(u64::from(PROTOCOL_VERSION))
        );
        assert!(status
            .get("status")
            .and_then(|s| s.get("governor"))
            .is_some());
        drop(client);
        handle.stop();
        service.shutdown();
    }

    #[test]
    fn client_reconnects_after_a_dropped_connection() {
        // A flaky server: the first connection is read then dropped
        // without a reply (the client sees EOF mid-exchange); the second
        // serves pings properly.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut dropped_one = false;
            for conn in listener.incoming() {
                let Ok(mut stream) = conn else { continue };
                if !dropped_one {
                    dropped_one = true;
                    let _ = read_frame(&mut stream);
                    continue; // drop without replying
                }
                while let Ok(_frame) = read_frame(&mut stream) {
                    let reply = Json::obj(vec![
                        ("ok", Json::Bool(true)),
                        (
                            "protocol_version",
                            Json::from_u64(u64::from(PROTOCOL_VERSION)),
                        ),
                    ]);
                    if write_frame(&mut stream, &reply).is_err() {
                        break;
                    }
                }
                break;
            }
        });

        // connect() performs the hello, which transparently survives the
        // dropped first connection.
        let mut client =
            Client::connect_with(addr, PROTOCOL_VERSION, 4, Duration::from_millis(1)).unwrap();
        assert!(client.ping().unwrap());
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn exhausted_retries_surface_connection_lost() {
        // Bind, learn the port, drop the listener: every dial is refused.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let err =
            Client::connect_with(addr, PROTOCOL_VERSION, 3, Duration::from_millis(1)).unwrap_err();
        match err {
            ClientError::ConnectionLost { attempts, last } => {
                assert_eq!(attempts, 3);
                assert!(!last.is_empty());
            }
            other => panic!("expected connection loss, got {other}"),
        }
    }
}
