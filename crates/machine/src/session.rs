//! The session layer both NDJSON faces share: `saim-server`'s
//! [`Frontend`](crate::frontend::Frontend) and `saim-router`'s
//! [`Cluster`](crate::cluster::Cluster).
//!
//! A core (the frontend's hub, the router's core) implements
//! [`SessionCore`]; everything above it exists once. [`ClientHandle`] is
//! the in-process session. A TCP connection is exactly a `ClientHandle`
//! plus a writer thread that copies its responses onto the socket
//! ([`connection`]). [`Listeners`] runs the blocking accept loops and
//! stops them with a flag and a self-connect.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use crate::frontend::{FrameError, Request, Response, MAX_FRAME_BYTES, READ_TIMEOUT};
use crate::service::JobSpec;

/// What a session needs from the core it talks to.
pub(crate) trait SessionCore: Send + Sync + 'static {
    /// Registers a client whose responses go to `tx`; returns its id.
    fn register(&self, tx: mpsc::Sender<Response>) -> u64;

    /// Handles one parsed request. Immediate responses go on the client's
    /// channel, in order with its job outcomes.
    fn handle(&self, client: u64, request: Request);

    /// Answers a line that failed to parse with a typed rejection.
    fn reject(&self, client: u64, error: &FrameError);

    /// Removes a departed client.
    fn disconnect(&self, client: u64);

    /// The longest request line a TCP session accepts, and how long it may
    /// sit with half a line before it is kicked (the slow-loris guard).
    fn frame_limits(&self) -> (usize, Duration) {
        (MAX_FRAME_BYTES, READ_TIMEOUT)
    }
}

/// An in-process client session on a [`Frontend`] or a [`Cluster`]: the
/// socket-free face of the protocol, speaking the same
/// [`Request`]/[`Response`] values the TCP face serializes. A TCP session
/// is this handle plus a writer thread. Dropping it disconnects the
/// session.
///
/// [`Frontend`]: crate::frontend::Frontend
/// [`Cluster`]: crate::cluster::Cluster
pub struct ClientHandle {
    session: SessionSender,
    rx: mpsc::Receiver<Response>,
}

/// The send half of a session. Dropping it disconnects the session.
pub(crate) struct SessionSender {
    id: u64,
    core: Arc<dyn SessionCore>,
}

impl SessionSender {
    /// Handles one typed request on this session.
    pub(crate) fn send(&self, request: Request) {
        self.core.handle(self.id, request);
    }

    fn send_line(&self, line: &str) -> bool {
        if line.is_empty() {
            return true;
        }
        match Request::from_line(line) {
            Ok(request) => {
                self.send(request);
                true
            }
            Err(error) => {
                self.core.reject(self.id, &error);
                false
            }
        }
    }
}

impl Drop for SessionSender {
    fn drop(&mut self) {
        self.core.disconnect(self.id);
    }
}

impl ClientHandle {
    /// Registers a new session on `core`.
    pub(crate) fn open(core: Arc<dyn SessionCore>) -> Self {
        let (tx, rx) = mpsc::channel();
        let id = core.register(tx);
        ClientHandle {
            session: SessionSender { id, core },
            rx,
        }
    }

    /// This session's server-assigned client id.
    pub fn client_id(&self) -> u64 {
        self.session.id
    }

    /// Handles one raw request line exactly as the TCP reader does: a
    /// blank line is skipped, any other line is parsed strictly, and a
    /// rejected line earns a typed [`Response::Rejected`] on the stream.
    /// Returns whether the line was parseable.
    pub fn send_line(&self, line: &str) -> bool {
        self.session.send_line(line)
    }

    /// Sends one typed request.
    pub fn send(&self, request: Request) {
        self.session.send(request);
    }

    /// Convenience submit.
    pub fn submit(&self, spec: JobSpec, priority: u8, deadline_ms: Option<u64>) {
        self.send(Request::Submit {
            spec,
            priority,
            deadline_ms,
        });
    }

    /// Next response, blocking until one arrives. `None` after the core
    /// has gone away (fleet drained, router shut down).
    pub fn recv(&self) -> Option<Response> {
        self.rx.recv().ok()
    }

    /// Next response, waiting at most `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Response> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Next response if one is already waiting.
    pub fn try_recv(&self) -> Option<Response> {
        self.rx.try_recv().ok()
    }

    /// Splits the session so sending never waits on a thread blocked in a
    /// receive. The session stays connected until the sender drops.
    pub(crate) fn split(self) -> (SessionSender, mpsc::Receiver<Response>) {
        (self.session, self.rx)
    }
}

/// Reads one `\n`-terminated line of at most `limit` bytes. Distinguishes
/// a clean EOF (`Ok(None)`), a complete line, an oversized line, a timeout
/// with a partial line buffered (the slow-loris signature), and transport
/// errors.
pub(crate) fn read_line_capped<R: BufRead>(
    reader: &mut R,
    limit: usize,
) -> Result<Option<String>, ReadError> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if buf.is_empty() {
                    continue; // idle connection: keep waiting
                }
                return Err(ReadError::Stalled); // half a frame, then silence
            }
            Err(_) => return Err(ReadError::Transport),
        };
        if chunk.is_empty() {
            return if buf.is_empty() {
                Ok(None)
            } else {
                Err(ReadError::Transport) // EOF inside a frame: truncated
            };
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |i| i + 1);
        if buf.len() + take > limit + 1 {
            reader.consume(take);
            return Err(ReadError::Oversized);
        }
        buf.extend_from_slice(&chunk[..take]);
        reader.consume(take);
        if newline.is_some() {
            buf.pop(); // the newline
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            // valid UTF-8 (every well-formed frame) moves without a copy
            let line = String::from_utf8(buf)
                .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
            return Ok(Some(line));
        }
    }
}

pub(crate) enum ReadError {
    Oversized,
    Stalled,
    Transport,
}

/// One TCP session: an in-process session fed the socket's request lines
/// by this thread, while a writer thread copies its responses onto the
/// socket. Any exit path drops the session, which disconnects the client.
fn connection(core: Arc<dyn SessionCore>, stream: TcpStream) {
    let (limit, read_timeout) = core.frame_limits();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(read_timeout));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (session, responses) = ClientHandle::open(core).split();
    let writer = std::thread::spawn(move || {
        let mut out = BufWriter::new(write_half);
        for response in responses {
            if out
                .write_all(response.to_line().as_bytes())
                .and_then(|()| out.write_all(b"\n"))
                .and_then(|()| out.flush())
                .is_err()
            {
                return; // client stopped reading; the reader will notice too
            }
        }
    });
    let mut reader = BufReader::new(stream);
    loop {
        match read_line_capped(&mut reader, limit) {
            Ok(Some(line)) => {
                session.send_line(&line);
            }
            Err(ReadError::Oversized) => {
                // past the cap the line boundary itself is untrusted: send
                // the typed error and hang up rather than resynchronize
                session
                    .core
                    .reject(session.id, &FrameError::Oversized { limit });
                break;
            }
            Ok(None) | Err(ReadError::Stalled | ReadError::Transport) => break,
        }
    }
    // the disconnect drops the core's sender; the writer drains what was
    // already queued and exits
    drop(session);
    drop(reader);
    let _ = writer.join();
}

/// The accept loops of one core. Each loop blocks in `accept`;
/// [`Listeners::stop`] sets a flag and then connects to every listener so
/// each loop wakes, sees the flag, and returns.
#[derive(Default)]
pub(crate) struct Listeners {
    stopped: AtomicBool,
    /// Where each accept loop listens, for `stop`'s self-connects.
    addrs: Mutex<Vec<SocketAddr>>,
}

impl Listeners {
    /// Serves TCP sessions on `core` from `listener` on a background thread
    /// until [`Listeners::stop`].
    pub(crate) fn serve(
        self: &Arc<Self>,
        core: Arc<dyn SessionCore>,
        listener: TcpListener,
    ) -> std::thread::JoinHandle<()> {
        let mut addr = listener
            .local_addr()
            .expect("a bound listener has an address");
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        self.addrs
            .lock()
            .expect("listener lock is never poisoned")
            .push(addr);
        let listeners = Arc::clone(self);
        std::thread::spawn(move || {
            // a loop started after `stop` returns at once; one that `stop`
            // finds registered is woken by its self-connect
            let stopped = || listeners.stopped.load(Ordering::Acquire);
            while !stopped() {
                let Ok((stream, _)) = listener.accept() else {
                    return;
                };
                if !stopped() {
                    let core = Arc::clone(&core);
                    std::thread::spawn(move || connection(core, stream));
                }
            }
        })
    }

    /// Stops every accept loop; idempotent. Open sessions are not touched.
    pub(crate) fn stop(&self) {
        let addrs = {
            let mut addrs = self.addrs.lock().expect("listener lock is never poisoned");
            self.stopped.store(true, Ordering::Release);
            std::mem::take(&mut *addrs)
        };
        for addr in addrs {
            let _ = TcpStream::connect(addr);
        }
    }
}
