//! Real byte-moving transport: length-prefixed frames over TCP or Unix
//! domain sockets, with a version-tagged handshake, per-connection
//! read/write timeouts, and bounded retry-with-backoff on connect.
//!
//! Everything else in this crate *simulates* the star network and charges
//! a [`crate::CommStats`] ledger; this module is where bytes actually
//! cross a kernel boundary. The distributed engine (`dsv-engine::remote`)
//! frames its protocol messages — delta rounds, checkpoint
//! [`crate::StateFrame`]s, boundary [`crate::ShardReport`]s — through
//! [`Conn::send`] / [`Conn::recv`], and every connection keeps a
//! [`WireStats`] tally of measured frames and bytes so simulated word
//! accounting can be compared against what the wire really carried.
//!
//! The framing is deliberately minimal: each frame is a little-endian
//! `u32` payload length followed by the payload (encoded with this
//! crate's [`crate::codec`]), handed to the kernel as **one** write, and
//! every TCP connection runs with `TCP_NODELAY` — a frame costs what the
//! socket costs, never a Nagle/delayed-ACK timer (`DESIGN.md` §8).
//! Length prefixes are validated against a per-connection cap before any
//! allocation, so a corrupted or hostile prefix cannot trigger an
//! out-of-memory abort. All failures — timeouts, peer death, oversized
//! frames, handshake version skew — surface as typed
//! [`TransportError`]s; nothing in this module panics on wire input.

use crate::codec::{CodecError, Dec, Enc};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Magic bytes opening a transport handshake frame.
pub const HANDSHAKE_MAGIC: [u8; 4] = *b"DSVH";

/// Current transport handshake version. Peers speaking a newer version
/// are rejected with [`TransportError::Codec`] /
/// [`CodecError::UnsupportedVersion`] before any protocol traffic flows.
pub const HANDSHAKE_VERSION: u16 = 1;

/// Per-connection frame size cap (64 MiB): far above any engine
/// round or checkpoint this workspace produces, far below an allocation
/// a corrupted length prefix could weaponize.
pub const DEFAULT_MAX_FRAME: usize = 64 << 20;

/// A transport operation that could not complete, as a typed error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// An OS-level I/O failure (connection refused, reset, broken pipe...).
    Io {
        /// The operation that failed.
        op: &'static str,
        /// The OS error category.
        kind: ErrorKind,
    },
    /// A read or write exceeded the connection's configured timeout.
    TimedOut {
        /// The operation that timed out.
        op: &'static str,
    },
    /// The peer closed the connection (EOF mid-frame or before one).
    Closed {
        /// The operation that observed the close.
        op: &'static str,
    },
    /// An incoming frame's length prefix exceeds the connection cap.
    FrameTooLarge {
        /// The advertised payload length.
        len: usize,
        /// The connection's cap.
        max: usize,
    },
    /// A handshake or payload failed to decode (bad magic, version skew,
    /// truncation, corruption).
    Codec(CodecError),
    /// Connecting failed even after the configured retries.
    ConnectFailed {
        /// Attempts made (1 + retries).
        attempts: u32,
        /// The last OS error category observed.
        kind: ErrorKind,
    },
    /// The endpoint string could not be parsed (see [`Endpoint::parse`]).
    BadEndpoint,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io { op, kind } => write!(fm, "{op}: i/o error ({kind:?})"),
            TransportError::TimedOut { op } => write!(fm, "{op}: timed out"),
            TransportError::Closed { op } => write!(fm, "{op}: connection closed by peer"),
            TransportError::FrameTooLarge { len, max } => {
                write!(
                    fm,
                    "incoming frame of {len} bytes exceeds the {max}-byte cap"
                )
            }
            TransportError::Codec(e) => write!(fm, "frame decode failed: {e}"),
            TransportError::ConnectFailed { attempts, kind } => {
                write!(fm, "connect failed after {attempts} attempts ({kind:?})")
            }
            TransportError::BadEndpoint => {
                write!(fm, "endpoint must be `tcp:<addr>:<port>` or `unix:<path>`")
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl From<CodecError> for TransportError {
    fn from(e: CodecError) -> Self {
        TransportError::Codec(e)
    }
}

/// Map an I/O error observed during `op` to the typed transport error,
/// folding the two timeout spellings (`WouldBlock` from Unix socket
/// timeouts, `TimedOut` from TCP) into [`TransportError::TimedOut`] and
/// EOF into [`TransportError::Closed`].
fn io_err(op: &'static str, e: std::io::Error) -> TransportError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => TransportError::TimedOut { op },
        ErrorKind::UnexpectedEof | ErrorKind::ConnectionReset | ErrorKind::BrokenPipe => {
            TransportError::Closed { op }
        }
        kind => TransportError::Io { op, kind },
    }
}

/// Where a transport peer listens: TCP loopback/interface address or a
/// Unix-domain socket path.
///
/// The string form (`tcp:<addr>:<port>` / `unix:<path>`, see
/// [`Endpoint::parse`] and `Display`) is how the coordinator hands the
/// rendezvous to spawned shard-server processes on their command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP socket address, e.g. `127.0.0.1:0` (0 = kernel-assigned).
    Tcp(String),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Endpoint {
    /// Parse the string form produced by `Display`.
    pub fn parse(s: &str) -> Result<Self, TransportError> {
        if let Some(addr) = s.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err(TransportError::BadEndpoint);
            }
            return Ok(Endpoint::Tcp(addr.to_string()));
        }
        #[cfg(unix)]
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(TransportError::BadEndpoint);
            }
            return Ok(Endpoint::Unix(PathBuf::from(path)));
        }
        Err(TransportError::BadEndpoint)
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(fm, "tcp:{addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(fm, "unix:{}", path.display()),
        }
    }
}

/// Measured traffic on one connection (or summed over many): frames and
/// bytes that actually crossed the socket, length prefixes included.
///
/// This is the "bytes on the wire" counterpart to the model-currency
/// ledgers ([`crate::CommStats`] counts words of charged protocol
/// traffic); comparing the two is exactly what a deployment needs to
/// validate the simulated accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Frames written to the socket.
    pub frames_sent: u64,
    /// Frames fully read from the socket.
    pub frames_received: u64,
    /// Bytes written (payloads + 4-byte length prefixes).
    pub bytes_sent: u64,
    /// Bytes read (payloads + 4-byte length prefixes).
    pub bytes_received: u64,
}

impl WireStats {
    /// An empty tally.
    pub fn new() -> Self {
        WireStats::default()
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: &WireStats) {
        self.frames_sent += other.frames_sent;
        self.frames_received += other.frames_received;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
    }
}

enum StreamImpl {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl StreamImpl {
    fn as_read_write(&mut self) -> &mut (dyn ReadWrite + '_) {
        match self {
            StreamImpl::Tcp(s) => s,
            #[cfg(unix)]
            StreamImpl::Unix(s) => s,
        }
    }
}

trait ReadWrite: Read + Write {}
impl<T: Read + Write> ReadWrite for T {}

/// Hand `prefix‖payload` to `w` as one frame: a single vectored write
/// when the sink takes it whole (nothing copied, nothing retained), the
/// same call again on whatever a short write left. A prefix written on
/// its own is a small segment the payload then queues behind — the
/// write-write-read pattern that waits out the peer's delayed ACK — so
/// the two are never separate writes. A sink that accepts nothing is
/// [`ErrorKind::WriteZero`], not a spin.
fn write_frame(
    w: &mut (impl Write + ?Sized),
    prefix: [u8; 4],
    payload: &[u8],
) -> std::io::Result<()> {
    let mut done = 0;
    while done < prefix.len() + payload.len() {
        let head = &prefix[done.min(prefix.len())..];
        let body = &payload[done.saturating_sub(prefix.len())..];
        match w.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => done += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One framed, timeout-guarded connection (either side).
pub struct Conn {
    stream: StreamImpl,
    stats: WireStats,
}

impl std::fmt::Debug for Conn {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fm.debug_struct("Conn").field("stats", &self.stats).finish()
    }
}

impl Conn {
    /// The one constructor [`connect`](Self::connect) and
    /// [`Listener::accept`] share. A TCP stream gets `TCP_NODELAY` here:
    /// frames are written whole, so Nagle has nothing to coalesce and can
    /// only hold a small frame back until the previous one is ACKed —
    /// which back-to-back round frames (the remote engine's send window)
    /// would wait for.
    fn new(stream: StreamImpl) -> Result<Self, TransportError> {
        if let StreamImpl::Tcp(s) = &stream {
            s.set_nodelay(true).map_err(|e| io_err("set nodelay", e))?;
        }
        Ok(Conn {
            stream,
            stats: WireStats::new(),
        })
    }

    /// Connect to `ep`, retrying up to `retries` extra times with a
    /// linearly growing backoff (`backoff`, `2·backoff`, ...) between
    /// attempts — the shard-server side of the rendezvous, which may race
    /// the coordinator's `bind`.
    pub fn connect(ep: &Endpoint, retries: u32, backoff: Duration) -> Result<Self, TransportError> {
        let attempts = retries.saturating_add(1);
        let mut last_kind = ErrorKind::Other;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(backoff.saturating_mul(attempt));
            }
            let connected = match ep {
                Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(StreamImpl::Tcp),
                #[cfg(unix)]
                Endpoint::Unix(path) => UnixStream::connect(path).map(StreamImpl::Unix),
            };
            match connected {
                Ok(stream) => return Conn::new(stream),
                Err(e) => last_kind = e.kind(),
            }
        }
        Err(TransportError::ConnectFailed {
            attempts,
            kind: last_kind,
        })
    }

    /// Set the read **and** write timeout for subsequent operations
    /// (`None` = block forever). A blocked `recv` past the deadline
    /// returns [`TransportError::TimedOut`] — the coordinator's dead- or
    /// stalled-worker detector.
    pub fn set_io_timeout(&self, timeout: Option<Duration>) -> Result<(), TransportError> {
        let set = |r: std::io::Result<()>| r.map_err(|e| io_err("set timeout", e));
        match &self.stream {
            StreamImpl::Tcp(s) => {
                set(s.set_read_timeout(timeout))?;
                set(s.set_write_timeout(timeout))
            }
            #[cfg(unix)]
            StreamImpl::Unix(s) => {
                set(s.set_read_timeout(timeout))?;
                set(s.set_write_timeout(timeout))
            }
        }
    }

    /// Measured traffic on this connection so far.
    pub fn stats(&self) -> &WireStats {
        &self.stats
    }

    /// Write one frame: `u32` little-endian payload length, then the
    /// payload, as one write, flushed.
    pub fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        let len = u32::try_from(payload.len()).map_err(|_| TransportError::FrameTooLarge {
            len: payload.len(),
            max: u32::MAX as usize,
        })?;
        let stream = self.stream.as_read_write();
        write_frame(stream, len.to_le_bytes(), payload)
            .and_then(|()| stream.flush())
            .map_err(|e| io_err("send frame", e))?;
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += 4 + payload.len() as u64;
        Ok(())
    }

    /// Read one frame's payload. The length prefix is validated against
    /// the connection cap before the payload buffer is allocated.
    pub fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        let mut head = [0u8; 4];
        self.stream
            .as_read_write()
            .read_exact(&mut head)
            .map_err(|e| io_err("recv frame header", e))?;
        let len = u32::from_le_bytes(head) as usize;
        if len > DEFAULT_MAX_FRAME {
            return Err(TransportError::FrameTooLarge {
                len,
                max: DEFAULT_MAX_FRAME,
            });
        }
        let mut payload = vec![0u8; len];
        self.stream
            .as_read_write()
            .read_exact(&mut payload)
            .map_err(|e| io_err("recv frame payload", e))?;
        self.stats.frames_received += 1;
        self.stats.bytes_received += 4 + len as u64;
        Ok(payload)
    }

    /// Shut down both directions without consuming the connection — the
    /// peer observes EOF on its next read. Used by fault injection to
    /// sever a link while the process on the far side stays alive.
    pub fn shutdown(&self) {
        match &self.stream {
            StreamImpl::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            StreamImpl::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

/// A bound listener awaiting shard-server connections.
pub struct Listener {
    inner: ListenerImpl,
    /// The (resolved) endpoint peers should connect to. For `tcp:...:0`
    /// binds this carries the kernel-assigned port.
    endpoint: Endpoint,
}

enum ListenerImpl {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl std::fmt::Debug for Listener {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fm.debug_struct("Listener")
            .field("endpoint", &self.endpoint)
            .finish()
    }
}

impl Listener {
    /// Bind to `ep`. A TCP endpoint with port 0 resolves to the assigned
    /// port (read it back via [`endpoint`](Self::endpoint)); a Unix
    /// endpoint removes a stale socket file left by a crashed process
    /// before binding.
    pub fn bind(ep: &Endpoint) -> Result<Self, TransportError> {
        match ep {
            Endpoint::Tcp(addr) => {
                let listener =
                    TcpListener::bind(addr.as_str()).map_err(|e| io_err("bind tcp", e))?;
                let local = listener.local_addr().map_err(|e| io_err("local addr", e))?;
                Ok(Listener {
                    inner: ListenerImpl::Tcp(listener),
                    endpoint: Endpoint::Tcp(local.to_string()),
                })
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                if path.exists() {
                    let _ = std::fs::remove_file(path);
                }
                let listener = UnixListener::bind(path).map_err(|e| io_err("bind unix", e))?;
                Ok(Listener {
                    inner: ListenerImpl::Unix(listener),
                    endpoint: Endpoint::Unix(path.clone()),
                })
            }
        }
    }

    /// The endpoint peers should connect to (ports resolved).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Accept one connection, waiting at most `timeout` (`None` = block
    /// forever). Polls in non-blocking mode so a worker that dies before
    /// connecting cannot wedge the coordinator.
    pub fn accept(&self, timeout: Option<Duration>) -> Result<Conn, TransportError> {
        let set_nonblocking = |on: bool| -> std::io::Result<()> {
            match &self.inner {
                ListenerImpl::Tcp(l) => l.set_nonblocking(on),
                #[cfg(unix)]
                ListenerImpl::Unix(l) => l.set_nonblocking(on),
            }
        };
        if timeout.is_none() {
            set_nonblocking(false).map_err(|e| io_err("accept", e))?;
        } else {
            set_nonblocking(true).map_err(|e| io_err("accept", e))?;
        }
        let deadline = timeout.map(|t| std::time::Instant::now() + t);
        loop {
            let accepted = match &self.inner {
                ListenerImpl::Tcp(l) => l.accept().map(|(s, _)| StreamImpl::Tcp(s)),
                #[cfg(unix)]
                ListenerImpl::Unix(l) => l.accept().map(|(s, _)| StreamImpl::Unix(s)),
            };
            match accepted {
                Ok(stream) => {
                    // Accepted sockets inherit non-blocking on some
                    // platforms; force blocking so frame reads honor the
                    // per-connection timeouts instead.
                    match &stream {
                        StreamImpl::Tcp(s) => {
                            s.set_nonblocking(false).map_err(|e| io_err("accept", e))?
                        }
                        #[cfg(unix)]
                        StreamImpl::Unix(s) => {
                            s.set_nonblocking(false).map_err(|e| io_err("accept", e))?
                        }
                    }
                    return Conn::new(stream);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if let Some(deadline) = deadline {
                        if std::time::Instant::now() >= deadline {
                            return Err(TransportError::TimedOut { op: "accept" });
                        }
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(io_err("accept", e)),
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Which side of the rendezvous a handshake frame announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The engine coordinator (accepts connections).
    Coordinator,
    /// A shard-server worker (initiates connections).
    Worker,
}

/// A decoded handshake announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The announcing side.
    pub role: Role,
    /// Worker slot (0 for the coordinator side).
    pub worker: u64,
    /// Spawn generation of the worker slot, so a respawned replacement
    /// is distinguishable from the process it replaces (0 for the
    /// coordinator side).
    pub generation: u64,
}

/// Encode a handshake frame payload.
pub fn hello_bytes(role: Role, worker: u64, generation: u64) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.magic(HANDSHAKE_MAGIC, HANDSHAKE_VERSION);
    enc.u8(match role {
        Role::Coordinator => 0,
        Role::Worker => 1,
    });
    enc.u64(worker);
    enc.u64(generation);
    enc.into_bytes()
}

/// Decode and validate a handshake frame payload. Bad magic, version
/// skew, truncation, and trailing bytes are all typed errors.
pub fn parse_hello(bytes: &[u8]) -> Result<Hello, TransportError> {
    let mut dec = Dec::new(bytes);
    dec.magic(HANDSHAKE_MAGIC, HANDSHAKE_VERSION)?;
    let role = match dec.u8()? {
        0 => Role::Coordinator,
        1 => Role::Worker,
        tag => {
            return Err(CodecError::BadTag {
                what: "handshake role",
                tag: tag as u64,
            }
            .into())
        }
    };
    let worker = dec.u64()?;
    let generation = dec.u64()?;
    dec.finish()?;
    Ok(Hello {
        role,
        worker,
        generation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tcp_pair() -> (Conn, Conn) {
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let ep = listener.endpoint().clone();
        let client = std::thread::spawn(move || Conn::connect(&ep, 3, Duration::from_millis(5)));
        let server = listener.accept(Some(Duration::from_secs(5))).unwrap();
        (server, client.join().unwrap().unwrap())
    }

    #[test]
    fn frames_round_trip_and_are_counted_over_tcp() {
        let (mut server, mut client) = tcp_pair();
        client.send(b"hello").unwrap();
        client.send(b"").unwrap();
        assert_eq!(server.recv().unwrap(), b"hello");
        assert_eq!(server.recv().unwrap(), b"");
        server.send(&[7u8; 1000]).unwrap();
        assert_eq!(client.recv().unwrap(), vec![7u8; 1000]);

        assert_eq!(client.stats().frames_sent, 2);
        assert_eq!(client.stats().bytes_sent, 4 + 5 + 4);
        assert_eq!(client.stats().frames_received, 1);
        assert_eq!(client.stats().bytes_received, 1004);
        assert_eq!(server.stats().frames_received, 2);
        assert_eq!(server.stats().bytes_received, 4 + 5 + 4);
    }

    fn nodelay(conn: &Conn) -> bool {
        match &conn.stream {
            StreamImpl::Tcp(s) => s.nodelay().unwrap(),
            #[cfg(unix)]
            StreamImpl::Unix(_) => panic!("not a TCP connection"),
        }
    }

    #[test]
    fn tcp_connections_set_nodelay_on_both_ends() {
        let (server, client) = tcp_pair();
        assert!(nodelay(&server), "accepted side");
        assert!(nodelay(&client), "connecting side");
    }

    /// Small frames both ways is the pattern a prefix-then-payload write
    /// on a Nagle socket stalls on: each frame waits out the peer's
    /// delayed ACK (~44 ms on Linux; 200 exchanges measured 17.5 s that
    /// way). With one write per frame and `TCP_NODELAY` they cost
    /// loopback round trips (tens of milliseconds in all), so the bound
    /// sits an order of magnitude from either side.
    #[test]
    fn small_frame_ping_pong_over_tcp_never_waits_on_a_timer() {
        const EXCHANGES: usize = 200;
        let (mut server, mut client) = tcp_pair();
        let echo = std::thread::spawn(move || {
            for _ in 0..EXCHANGES {
                let frame = server.recv().unwrap();
                server.send(&frame).unwrap();
            }
        });
        let started = std::time::Instant::now();
        for i in 0..EXCHANGES {
            let ping = [i as u8; 16];
            client.send(&ping).unwrap();
            assert_eq!(client.recv().unwrap(), ping);
        }
        let took = started.elapsed();
        echo.join().unwrap();
        assert!(
            took < Duration::from_secs(2),
            "{EXCHANGES} 16-byte ping-pongs took {took:?}"
        );
    }

    /// A sink that takes at most `cap` bytes per call, across the slices
    /// it is offered, and counts the calls.
    struct Trickle {
        cap: usize,
        got: Vec<u8>,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut room = self.cap;
            for buf in bufs {
                let n = room.min(buf.len());
                self.got.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(self.cap - room)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_is_one_write_and_finishes_any_short_write() {
        for len in [0usize, 1, 70_000] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let prefix = (len as u32).to_le_bytes();
            let want = [&prefix[..], &payload[..]].concat();
            for cap in [1usize, 3, 4, 5, 7, 4096, usize::MAX] {
                let mut sink = Trickle {
                    cap,
                    got: Vec::new(),
                    calls: 0,
                };
                write_frame(&mut sink, prefix, &payload).unwrap();
                assert_eq!(sink.got, want, "len {len}, {cap} bytes a call");
                assert_eq!(sink.calls, want.len().div_ceil(cap), "len {len}, cap {cap}");
            }
        }
    }

    #[test]
    fn a_sink_that_accepts_nothing_is_a_typed_error_not_a_spin() {
        let mut sink = Trickle {
            cap: 0,
            got: Vec::new(),
            calls: 0,
        };
        let err = write_frame(&mut sink, 3u32.to_le_bytes(), b"abc").unwrap_err();
        assert_eq!(sink.calls, 1);
        assert_eq!(
            io_err("send frame", err),
            TransportError::Io {
                op: "send frame",
                kind: ErrorKind::WriteZero
            }
        );
    }

    #[cfg(unix)]
    #[test]
    fn frames_round_trip_over_unix_sockets() {
        let path =
            std::env::temp_dir().join(format!("dsv-transport-test-{}.sock", std::process::id()));
        let listener = Listener::bind(&Endpoint::Unix(path.clone())).unwrap();
        let ep = listener.endpoint().clone();
        let client = std::thread::spawn(move || Conn::connect(&ep, 5, Duration::from_millis(5)));
        let mut server = listener.accept(Some(Duration::from_secs(5))).unwrap();
        let mut client = client.join().unwrap().unwrap();
        client.send(b"over unix").unwrap();
        assert_eq!(server.recv().unwrap(), b"over unix");
        drop(listener);
        assert!(!path.exists(), "listener drop removes the socket file");
    }

    #[test]
    fn recv_times_out_and_close_is_typed() {
        let (mut server, client) = tcp_pair();
        server
            .set_io_timeout(Some(Duration::from_millis(30)))
            .unwrap();
        assert_eq!(
            server.recv().unwrap_err(),
            TransportError::TimedOut {
                op: "recv frame header"
            }
        );
        drop(client);
        // After the peer is gone, the read observes EOF.
        assert!(matches!(
            server.recv().unwrap_err(),
            TransportError::Closed { .. } | TransportError::Io { .. }
        ));
    }

    #[test]
    fn severed_connection_reads_as_closed() {
        let (mut server, client) = tcp_pair();
        client.shutdown();
        assert!(matches!(
            server.recv().unwrap_err(),
            TransportError::Closed { .. }
        ));
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        let (mut server, mut client) = tcp_pair();
        // A bare length prefix one past the cap: no payload follows, so
        // only a check made before allocating can answer.
        let len = DEFAULT_MAX_FRAME + 1;
        let head = (len as u32).to_le_bytes();
        client.stream.as_read_write().write_all(&head).unwrap();
        assert_eq!(
            server.recv().unwrap_err(),
            TransportError::FrameTooLarge {
                len,
                max: DEFAULT_MAX_FRAME
            }
        );
    }

    #[test]
    fn connect_retries_are_bounded_and_typed() {
        // Nothing listens on this port (bind + drop to claim then free it).
        let ep = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            Endpoint::Tcp(l.local_addr().unwrap().to_string())
        };
        let err = Conn::connect(&ep, 2, Duration::from_millis(1)).unwrap_err();
        assert!(matches!(
            err,
            TransportError::ConnectFailed { attempts: 3, .. }
        ));
    }

    #[test]
    fn endpoint_strings_round_trip() {
        for s in ["tcp:127.0.0.1:4500", "unix:/tmp/x.sock"] {
            #[cfg(not(unix))]
            if s.starts_with("unix:") {
                continue;
            }
            let ep = Endpoint::parse(s).unwrap();
            assert_eq!(ep.to_string(), s);
        }
        for bad in ["", "tcp:", "unix:", "udp:127.0.0.1:1", "garbage"] {
            assert_eq!(
                Endpoint::parse(bad).unwrap_err(),
                TransportError::BadEndpoint
            );
        }
    }

    #[test]
    fn handshake_round_trips_and_rejects_skew() {
        let bytes = hello_bytes(Role::Worker, 3, 2);
        let hello = parse_hello(&bytes).unwrap();
        assert_eq!(
            hello,
            Hello {
                role: Role::Worker,
                worker: 3,
                generation: 2
            }
        );

        // Every truncation is a typed error.
        for cut in 0..bytes.len() {
            assert!(parse_hello(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Version skew is the specific version error.
        let mut future = bytes.clone();
        future[4] = (HANDSHAKE_VERSION + 1) as u8;
        assert_eq!(
            parse_hello(&future).unwrap_err(),
            TransportError::Codec(CodecError::UnsupportedVersion {
                found: HANDSHAKE_VERSION + 1,
                supported: HANDSHAKE_VERSION
            })
        );
        // Wrong magic, wrong role tag, trailing garbage: all typed.
        let mut alien = bytes.clone();
        alien[0] = b'X';
        assert!(matches!(
            parse_hello(&alien).unwrap_err(),
            TransportError::Codec(CodecError::BadMagic { .. })
        ));
        let mut bad_role = bytes.clone();
        bad_role[6] = 9;
        assert!(matches!(
            parse_hello(&bad_role).unwrap_err(),
            TransportError::Codec(CodecError::BadTag { .. })
        ));
        let mut trailing = bytes;
        trailing.push(0);
        assert!(matches!(
            parse_hello(&trailing).unwrap_err(),
            TransportError::Codec(CodecError::Trailing { left: 1 })
        ));
    }

    #[test]
    fn errors_display() {
        for e in [
            TransportError::Io {
                op: "x",
                kind: ErrorKind::Other,
            },
            TransportError::TimedOut { op: "x" },
            TransportError::Closed { op: "x" },
            TransportError::FrameTooLarge { len: 9, max: 8 },
            TransportError::Codec(CodecError::Eof),
            TransportError::ConnectFailed {
                attempts: 3,
                kind: ErrorKind::ConnectionRefused,
            },
            TransportError::BadEndpoint,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
