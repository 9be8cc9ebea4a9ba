//! Loopback-TCP transport backend: the same RPCs over a real wire.
//!
//! Each bound node owns a `127.0.0.1` listener and an accept thread;
//! every accepted connection gets a serving thread that decodes request
//! frames with [`FrameDecoder`] (byte boundaries are arbitrary on TCP)
//! and writes correlated response frames.
//!
//! The client side is **pipelined**: all traffic to one destination
//! shares a single connection. Writers interleave frames under a write
//! lock; a dedicated reader thread per connection demultiplexes the
//! response stream by correlation id ([`Demux`]), so any number of
//! worker threads keep RPCs in flight on the same link concurrently.
//! Frames are encoded into reusable thread-local scratch buffers and
//! written with `write_vectored` — the hot path allocates nothing.
//!
//! [`Transport::call`] still blocks its caller for the correlated
//! response (timeouts retry with a fresh correlation id; late replies
//! are dropped as stale). [`Transport::send`] is the one-way lane: the
//! frame is written and tracked in the destination's [`SendWindow`]
//! (bounded by [`RetryPolicy::ack_window`]), and the caller only
//! reconciles acks at [`Transport::flush`] time. Window slots hold the
//! encoded frame and survive connection churn, so a reconnect
//! retransmits exactly the bytes a dead socket swallowed.
//!
//! [`Transport::close_endpoint`] poisons a node: its listener stops
//! accepting, every served connection is shut down (peers blocked on a
//! reply get a reset, not a hang), the pipelined client connection to
//! it is killed, and its send window fails fast. The fail-fast
//! contract matches the in-memory backend.

use crate::demux::{Demux, SendWindow, WinPoll};
use crate::rpc::{Rpc, RpcReply};
use crate::wire::{FrameDecoder, HEADER_LEN};
use crate::{
    NetError, NetSnapshot, NetStats, RetryPolicy, RpcHandler, SendTicket, Transport,
};
use eclipse_ring::NodeId;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll interval for the accept loop: how quickly shutdown flags are
/// observed by listener threads.
const POLL: Duration = Duration::from_millis(10);

/// Read timeout for serving/reader threads. Shutdown normally breaks
/// these reads *directly* — `close_endpoint`/`Drop` call `shutdown()`
/// on every retained socket — so this poll is only a backstop for the
/// accept/close race where a connection misses the shutdown sweep.
/// Keeping it long matters for throughput: a cluster job holds ~2
/// threads per connection, and waking each one every few milliseconds
/// just to re-check a flag is measurable scheduler churn on small
/// hosts.
const IDLE_POLL: Duration = Duration::from_millis(500);

thread_local! {
    /// Reused per-thread frame scratch for the encode path.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Write half of a pipelined connection: the socket plus the coalesce
/// buffer for the one-way lane. Windowed frames queue here and go out
/// in one vectored write at the next drain point (a flush, a blocking
/// call on the same link, or the buffer growing past the drain
/// threshold) — a burst of small sends costs one syscall and wakes the
/// destination's serving thread once, not once per frame.
struct WriteHalf {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// One pipelined client connection to a destination, shared by every
/// thread talking to it.
struct PeerConn {
    /// Write half; frames are written whole under this lock.
    writer: Mutex<WriteHalf>,
    /// Correlation-id → waiting caller, settled by the reader thread.
    demux: Demux,
    /// Set when the reader observed EOF/error; the next user replaces
    /// the connection.
    dead: AtomicBool,
}

impl PeerConn {
    fn kill(&self) {
        self.dead.store(true, Ordering::Release);
        let _ = self.writer.lock().stream.shutdown(Shutdown::Both);
    }
}

#[derive(Default)]
struct TcpState {
    addrs: HashMap<u32, SocketAddr>,
    closed: HashSet<u32>,
    /// Per-endpoint shutdown flags (accept + serving threads watch
    /// these).
    flags: HashMap<u32, Arc<AtomicBool>>,
    /// Accepted connections per endpoint, retained (as clones) so
    /// `close_endpoint` can reset peers blocked on a reply.
    served: HashMap<u32, Arc<Mutex<Vec<TcpStream>>>>,
    /// The shared pipelined connection per destination.
    peers: HashMap<u32, Arc<PeerConn>>,
    /// Per-destination ack windows for the one-way lane. Deliberately
    /// *not* tied to a connection: slots outlive socket churn so flush
    /// can retransmit over a fresh connection.
    windows: HashMap<u32, Arc<SendWindow>>,
}

/// The loopback-TCP [`Transport`] backend. See the module docs.
pub struct TcpTransport {
    state: Arc<Mutex<TcpState>>,
    stats: Arc<NetStats>,
    policy: RetryPolicy,
    rpc_timeout: Duration,
    corr: AtomicU64,
    shutdown: Arc<AtomicBool>,
}

impl Default for TcpTransport {
    fn default() -> TcpTransport {
        TcpTransport::new()
    }
}

impl TcpTransport {
    pub fn new() -> TcpTransport {
        TcpTransport::with_policy(RetryPolicy::default())
    }

    pub fn with_policy(policy: RetryPolicy) -> TcpTransport {
        TcpTransport {
            state: Arc::new(Mutex::new(TcpState::default())),
            stats: Arc::new(NetStats::default()),
            policy,
            // Generous: loopback latency is microseconds, but debug
            // builds on loaded single-core machines schedule serving
            // threads late. Retries keep correctness either way.
            rpc_timeout: Duration::from_secs(2),
            corr: AtomicU64::new(1),
            shutdown: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The bound address of a node's listener (tests/diagnostics).
    pub fn addr_of(&self, node: NodeId) -> Option<SocketAddr> {
        self.state.lock().addrs.get(&node.0).copied()
    }

    fn window_of(&self, to: NodeId) -> Arc<SendWindow> {
        let mut st = self.state.lock();
        Arc::clone(
            st.windows
                .entry(to.0)
                .or_insert_with(|| Arc::new(SendWindow::new(self.policy.ack_window))),
        )
    }

    /// The live pipelined connection to `to`, establishing (and
    /// spawning its reader) if the previous one died.
    fn peer(&self, to: NodeId) -> Result<Arc<PeerConn>, NetError> {
        let addr = {
            let st = self.state.lock();
            if st.closed.contains(&to.0) {
                return Err(NetError::ConnectionClosed { to });
            }
            let Some(addr) = st.addrs.get(&to.0).copied() else {
                return Err(NetError::ConnectionClosed { to });
            };
            if let Some(p) = st.peers.get(&to.0) {
                if !p.dead.load(Ordering::Acquire) {
                    return Ok(Arc::clone(p));
                }
            }
            addr
        };
        // Connect outside the state lock; a slow handshake must not
        // stall traffic to other destinations.
        let stream = TcpStream::connect_timeout(&addr, self.rpc_timeout)
            .map_err(|_| NetError::ConnectionClosed { to })?;
        let _ = stream.set_nodelay(self.policy.nodelay);
        let read_half = stream.try_clone().map_err(|_| NetError::ConnectionClosed { to })?;
        let conn = Arc::new(PeerConn {
            writer: Mutex::new(WriteHalf { stream, buf: Vec::new() }),
            demux: Demux::new(),
            dead: AtomicBool::new(false),
        });
        {
            let mut st = self.state.lock();
            if st.closed.contains(&to.0) {
                conn.kill();
                return Err(NetError::ConnectionClosed { to });
            }
            match st.peers.get(&to.0) {
                // Lost a connect race to another thread: use theirs.
                Some(p) if !p.dead.load(Ordering::Acquire) => return Ok(Arc::clone(p)),
                _ => {
                    st.peers.insert(to.0, Arc::clone(&conn));
                }
            }
        }
        let window = self.window_of(to);
        let reader_conn = Arc::clone(&conn);
        let state = Arc::clone(&self.state);
        let global = Arc::clone(&self.shutdown);
        let read_buf = self.policy.read_buf_bytes.max(1024);
        std::thread::spawn(move || {
            reader_loop(read_half, reader_conn, window, state, global, to, read_buf);
        });
        Ok(conn)
    }

    /// Write one whole frame (header + body vectored) to `conn`,
    /// killing it on failure. Any coalesced one-way frames go out
    /// first — the socket carries whole frames in queue order.
    fn write_frame(&self, to: NodeId, conn: &PeerConn, frame: &[u8]) -> Result<(), NetError> {
        let mut w = conn.writer.lock();
        let res = if w.buf.is_empty() {
            write_all_vectored(&mut w.stream, frame)
        } else {
            // One syscall for backlog + frame; the reply to `frame`
            // cannot arrive before the backlog is on the wire anyway.
            w.buf.extend_from_slice(frame);
            let r = {
                let WriteHalf { stream, buf } = &mut *w;
                write_all_vectored(stream, buf)
            };
            w.buf.clear();
            r
        };
        drop(w);
        match res {
            Ok(()) => Ok(()),
            Err(_) => {
                conn.kill();
                self.dead_error(to)
            }
        }
    }

    /// Queue one windowed frame on `conn`'s coalesce buffer, draining
    /// with a single write once the buffer passes the server's read
    /// granularity.
    fn queue_frame(&self, to: NodeId, conn: &PeerConn, frame: &[u8]) -> Result<(), NetError> {
        let mut w = conn.writer.lock();
        w.buf.extend_from_slice(frame);
        if w.buf.len() < self.policy.read_buf_bytes.max(1024) {
            return Ok(());
        }
        let res = {
            let WriteHalf { stream, buf } = &mut *w;
            write_all_vectored(stream, buf)
        };
        w.buf.clear();
        drop(w);
        match res {
            Ok(()) => Ok(()),
            Err(_) => {
                conn.kill();
                self.dead_error(to)
            }
        }
    }

    /// Push `to`'s coalesced one-way frames onto the wire, if a live
    /// connection holds any. Never connects: an empty/absent peer has
    /// nothing to drain.
    fn drain_peer(&self, to: NodeId) {
        let conn = {
            let st = self.state.lock();
            st.peers.get(&to.0).cloned()
        };
        let Some(conn) = conn else { return };
        if conn.dead.load(Ordering::Acquire) {
            return;
        }
        let mut w = conn.writer.lock();
        if w.buf.is_empty() {
            return;
        }
        let res = {
            let WriteHalf { stream, buf } = &mut *w;
            write_all_vectored(stream, buf)
        };
        w.buf.clear();
        drop(w);
        if res.is_err() {
            // Window slots survive; flush retransmits on a fresh
            // connection.
            conn.kill();
        }
    }

    fn dead_error(&self, to: NodeId) -> Result<(), NetError> {
        if self.state.lock().closed.contains(&to.0) {
            Err(NetError::ConnectionClosed { to })
        } else {
            Err(NetError::Timeout { to })
        }
    }

    fn call_inner(
        &self,
        to: NodeId,
        rpc: &Rpc,
        frame: &mut [u8],
    ) -> Result<RpcReply, NetError> {
        let kind = rpc.kind();
        let mut last = NetError::Timeout { to };
        for attempt in 0..self.policy.max_attempts {
            if attempt > 0 {
                self.stats.rpc_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.policy.backoff(attempt));
            }
            // A fresh correlation id per attempt: a late reply to a
            // timed-out attempt settles nothing (dropped as stale)
            // instead of being mistaken for the retry's answer.
            let corr = self.corr.fetch_add(1, Ordering::Relaxed);
            frame[4..12].copy_from_slice(&corr.to_le_bytes());
            let conn = self.peer(to)?;
            conn.demux.register(corr);
            if let Err(e) = self.write_frame(to, &conn, frame) {
                conn.demux.cancel(corr);
                match e {
                    NetError::ConnectionClosed { .. } => return Err(e),
                    _ => {
                        self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                        last = e;
                        continue;
                    }
                }
            }
            if attempt > 0 {
                self.stats.count_retransmit(kind, frame.len() as u64);
            } else {
                self.stats.count_request(kind, frame.len() as u64);
            }
            match conn.demux.wait(corr, Instant::now() + self.rpc_timeout) {
                Some(Ok(reply)) => return Ok(reply),
                Some(Err(NetError::Timeout { .. })) | None => {
                    self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                    last = NetError::Timeout { to };
                }
                Some(Err(e)) => return Err(e),
            }
        }
        Err(last)
    }
}

fn write_all_vectored(stream: &mut TcpStream, frame: &[u8]) -> std::io::Result<()> {
    let (hdr, body) = frame.split_at(HEADER_LEN.min(frame.len()));
    let mut written = 0usize;
    while written < frame.len() {
        let n = if written < hdr.len() {
            stream.write_vectored(&[IoSlice::new(&hdr[written..]), IoSlice::new(body)])
        } else {
            stream.write(&body[written - hdr.len()..])
        };
        match n {
            Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero)),
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Map a one-way send's reply onto the window-slot result.
fn ack_result(reply: RpcReply) -> Result<(), NetError> {
    match reply {
        RpcReply::Error(msg) => Err(NetError::Remote(msg)),
        _ => Ok(()),
    }
}

/// Per-connection reader: pulls response frames off the socket and
/// settles them — callers first ([`Demux`]), then the destination's
/// [`SendWindow`] (one-way acks). On EOF/error the connection is dead:
/// every waiting caller is failed (closed endpoints fail fast, anything
/// else looks like silence), and window slots are left in place for
/// flush-driven retransmission over a fresh connection.
#[allow(clippy::too_many_arguments)]
fn reader_loop(
    mut stream: TcpStream,
    conn: Arc<PeerConn>,
    window: Arc<SendWindow>,
    state: Arc<Mutex<TcpState>>,
    global: Arc<AtomicBool>,
    to: NodeId,
    read_buf: usize,
) {
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; read_buf];
    let died = loop {
        if global.load(Ordering::Acquire) || conn.dead.load(Ordering::Acquire) {
            break true;
        }
        match stream.read(&mut buf) {
            Ok(0) => break true,
            Ok(n) => {
                dec.feed(&buf[..n]);
                loop {
                    match dec.next_frame() {
                        Ok(Some(frame)) => {
                            let corr = frame.corr;
                            let res = RpcReply::decode(&frame).map_err(NetError::Codec);
                            let claimed = conn.demux.settle(corr, res.clone());
                            if !claimed {
                                // Not a waiting call: a one-way ack, or
                                // stale. The window drops unknown corrs.
                                window.settle(corr, res.and_then(ack_result));
                            }
                        }
                        Ok(None) => break,
                        Err(_) => break,
                    }
                }
                if dec.next_frame().is_err() {
                    // Corrupt stream cannot be resynchronized.
                    break true;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break true,
        }
    };
    if died {
        conn.kill();
        let err = if state.lock().closed.contains(&to.0) {
            NetError::ConnectionClosed { to }
        } else {
            NetError::Timeout { to }
        };
        conn.demux.fail_all(&err);
        // Window slots survive: flush retransmits them on a new
        // connection (or fails them fast if the endpoint is closed).
        window.wake();
    }
}

impl Transport for TcpTransport {
    fn window_saturated(&self, to: NodeId) -> bool {
        let w = self.state.lock().windows.get(&to.0).cloned();
        w.is_some_and(|w| w.saturated())
    }

    fn bind(&self, node: NodeId, handler: RpcHandler) {
        // Re-binding an open endpoint closes the old one first.
        if self.state.lock().addrs.contains_key(&node.0) {
            self.close_endpoint(node);
        }
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
        listener.set_nonblocking(true).expect("nonblocking listener");
        let addr = listener.local_addr().expect("listener addr");
        let flag = Arc::new(AtomicBool::new(false));
        let served: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let mut st = self.state.lock();
            st.addrs.insert(node.0, addr);
            st.closed.remove(&node.0);
            st.flags.insert(node.0, Arc::clone(&flag));
            st.served.insert(node.0, Arc::clone(&served));
        }
        let global = Arc::clone(&self.shutdown);
        let stats = Arc::clone(&self.stats);
        let policy = self.policy;
        std::thread::spawn(move || {
            accept_loop(listener, handler, flag, global, served, stats, policy);
        });
    }

    fn call(&self, from: NodeId, to: NodeId, rpc: Rpc) -> Result<RpcReply, NetError> {
        let _ = from; // TCP addressing is by destination socket
        SCRATCH.with(|s| match s.try_borrow_mut() {
            Ok(mut buf) => {
                rpc.encode_into(0, &mut buf);
                self.call_inner(to, &rpc, &mut buf)
            }
            // A nested call from inside another call's scope (handler
            // relays) falls back to a fresh buffer.
            Err(_) => {
                let mut buf = Vec::new();
                rpc.encode_into(0, &mut buf);
                self.call_inner(to, &rpc, &mut buf)
            }
        })
    }

    fn send(&self, from: NodeId, to: NodeId, rpc: Rpc) -> Result<SendTicket, NetError> {
        let _ = from;
        let kind = rpc.kind();
        let corr = self.corr.fetch_add(1, Ordering::Relaxed);
        // The frame is kept whole for retransmission, so this lane pays
        // one owned allocation per send (amortized by coalescing).
        let frame = Arc::new(rpc.encode(corr));
        let window = self.window_of(to);
        let deadline = Instant::now() + self.rpc_timeout;
        if !window.try_admit(corr, Arc::clone(&frame), kind, deadline) {
            // Full window: our own coalesced-but-unwritten frames may
            // be exactly what the missing acks are waiting on. Push
            // them out, then park.
            self.drain_peer(to);
            window.admit(corr, Arc::clone(&frame), kind, deadline);
        }
        let ticket = SendTicket { to, id: corr };
        match self.peer(to) {
            Ok(conn) => {
                if self.queue_frame(to, &conn, &frame).is_ok() {
                    self.stats.count_request(kind, frame.len() as u64);
                } else {
                    // Leave the slot in flight: flush retransmits on a
                    // fresh connection.
                    window.bump(corr, Instant::now());
                }
                Ok(ticket)
            }
            Err(e) => {
                // Fail fast, and release the slot we just admitted.
                window.fail(corr, e.clone());
                let _ = window.poll(corr, Instant::now());
                Err(e)
            }
        }
    }

    fn flush(&self, tickets: &[SendTicket]) -> Result<(), NetError> {
        // Coalesced frames for these destinations must be on the wire
        // before anything can wait on their acks.
        let mut drained: Vec<u32> = Vec::new();
        for t in tickets {
            if !drained.contains(&t.to.0) {
                drained.push(t.to.0);
                self.drain_peer(t.to);
            }
        }
        let mut first_err: Option<NetError> = None;
        for t in tickets {
            let window = self.window_of(t.to);
            loop {
                match window.wait_settled(t.id, Instant::now() + self.rpc_timeout) {
                    WinPoll::Unknown | WinPoll::Done(Ok(())) => break,
                    WinPoll::Done(Err(e)) => {
                        first_err.get_or_insert(e);
                        break;
                    }
                    WinPoll::Pending { .. } => continue,
                    WinPoll::Expired { frame, kind, attempts } => {
                        self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                        if attempts >= self.policy.max_attempts {
                            window.fail(t.id, NetError::Timeout { to: t.to });
                            continue;
                        }
                        self.stats.rpc_retries.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(self.policy.backoff(attempts));
                        match self.peer(t.to) {
                            Ok(conn) => {
                                if self.write_frame(t.to, &conn, &frame).is_ok() {
                                    self.stats.count_retransmit(kind, frame.len() as u64);
                                    window.bump(t.id, Instant::now() + self.rpc_timeout);
                                } else {
                                    window.bump(t.id, Instant::now());
                                }
                            }
                            Err(e) => window.fail(t.id, e),
                        }
                    }
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    fn nudge(&self) {
        let targets: Vec<u32> = {
            let st = self.state.lock();
            st.peers
                .iter()
                .filter(|(_, p)| !p.dead.load(Ordering::Acquire))
                .map(|(&id, _)| id)
                .collect()
        };
        for id in targets {
            self.drain_peer(NodeId(id));
        }
    }

    fn close_endpoint(&self, node: NodeId) {
        let (flag, served, peer, window) = {
            let mut st = self.state.lock();
            st.closed.insert(node.0);
            (
                st.flags.remove(&node.0),
                st.served.remove(&node.0),
                st.peers.remove(&node.0),
                st.windows.get(&node.0).cloned(),
            )
        };
        if let Some(flag) = flag {
            flag.store(true, Ordering::Release);
        }
        // Reset peers blocked on a reply from this node.
        if let Some(served) = served {
            for conn in served.lock().drain(..) {
                let _ = conn.shutdown(Shutdown::Both);
            }
        }
        if let Some(peer) = peer {
            peer.kill();
            peer.demux.fail_all(&NetError::ConnectionClosed { to: node });
        }
        // One-way slots fail fast too: a flush after the crash must not
        // wait out retransmit budgets against a dead endpoint.
        if let Some(window) = window {
            window.fail_all(&NetError::ConnectionClosed { to: node });
        }
    }

    fn stats(&self) -> NetSnapshot {
        self.stats.snapshot()
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        let mut st = self.state.lock();
        for (_, served) in st.served.drain() {
            for conn in served.lock().drain(..) {
                let _ = conn.shutdown(Shutdown::Both);
            }
        }
        for (_, peer) in st.peers.drain() {
            peer.kill();
            peer.demux.fail_all(&NetError::Timeout { to: NodeId(u32::MAX) });
        }
        for (_, window) in st.windows.drain() {
            window.fail_all(&NetError::Timeout { to: NodeId(u32::MAX) });
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: TcpListener,
    handler: RpcHandler,
    flag: Arc<AtomicBool>,
    global: Arc<AtomicBool>,
    served: Arc<Mutex<Vec<TcpStream>>>,
    stats: Arc<NetStats>,
    policy: RetryPolicy,
) {
    loop {
        if flag.load(Ordering::Acquire) || global.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((conn, _)) => {
                let _ = conn.set_nodelay(policy.nodelay);
                if let Ok(clone) = conn.try_clone() {
                    served.lock().push(clone);
                }
                let handler = Arc::clone(&handler);
                let flag = Arc::clone(&flag);
                let global = Arc::clone(&global);
                let stats = Arc::clone(&stats);
                std::thread::spawn(move || {
                    serve_conn(conn, handler, flag, global, stats, policy.read_buf_bytes)
                });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => return,
        }
    }
}

/// Serve one accepted connection: decode request frames, run the
/// handler, write correlated responses. Exits on EOF, shutdown flags,
/// or a codec error (a byte stream with a corrupt frame cannot be
/// resynchronized). Pipelined requests on one connection are handled
/// in arrival order; responses go out in the same order.
fn serve_conn(
    mut conn: TcpStream,
    handler: RpcHandler,
    flag: Arc<AtomicBool>,
    global: Arc<AtomicBool>,
    stats: Arc<NetStats>,
    read_buf: usize,
) {
    let _ = conn.set_read_timeout(Some(IDLE_POLL));
    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; read_buf.max(1024)];
    let mut out = Vec::new();
    let mut batch = Vec::new();
    loop {
        if flag.load(Ordering::Acquire) || global.load(Ordering::Acquire) {
            let _ = conn.shutdown(Shutdown::Both);
            return;
        }
        match conn.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => {
                dec.feed(&buf[..n]);
                // Answer the whole burst with one write: pipelined
                // requests arrive many-per-read, and their (often tiny)
                // replies coalesce into a single syscall instead of one
                // per ack.
                batch.clear();
                loop {
                    let frame = match dec.next_frame() {
                        Ok(Some(f)) => f,
                        Ok(None) => break,
                        Err(_) => {
                            let _ = conn.shutdown(Shutdown::Both);
                            return;
                        }
                    };
                    let corr = frame.corr;
                    let reply = match Rpc::decode_owned(frame) {
                        Ok(rpc) => handler(rpc),
                        Err(e) => RpcReply::Error(format!("bad request: {e}")),
                    };
                    reply.encode_into(corr, &mut out);
                    stats.bytes_sent.fetch_add(out.len() as u64, Ordering::Relaxed);
                    batch.extend_from_slice(&out);
                }
                if !batch.is_empty() && write_all_vectored(&mut conn, &batch).is_err() {
                    return;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use eclipse_dhtfs::BlockId;
    use eclipse_util::HashKey;

    fn bid(i: u64) -> BlockId {
        BlockId { file: HashKey(7), index: i }
    }

    fn store_transport() -> Arc<TcpTransport> {
        let t = Arc::new(TcpTransport::new());
        for n in 0..3u32 {
            let blocks: Arc<Mutex<HashMap<BlockId, Bytes>>> =
                Arc::new(Mutex::new(HashMap::new()));
            t.bind(
                NodeId(n),
                Arc::new(move |rpc| match rpc {
                    Rpc::GetBlock { block } => {
                        RpcReply::Block(blocks.lock().get(&block).cloned())
                    }
                    Rpc::PutBlock { block, data } => {
                        blocks.lock().insert(block, data);
                        RpcReply::Ack
                    }
                    Rpc::Heartbeat { .. } => RpcReply::Ack,
                    Rpc::ShuffleRun { .. } | Rpc::CachePut { .. } => RpcReply::Ack,
                    _ => RpcReply::Error("unsupported".into()),
                }),
            );
        }
        t
    }

    #[test]
    fn put_then_get_over_real_tcp() {
        let t = store_transport();
        let payload = Bytes::from(vec![42u8; 100_000]);
        let r = t
            .call(NodeId(0), NodeId(1), Rpc::PutBlock { block: bid(1), data: payload.clone() })
            .unwrap();
        assert_eq!(r, RpcReply::Ack);
        let r = t.call(NodeId(2), NodeId(1), Rpc::GetBlock { block: bid(1) }).unwrap();
        assert_eq!(r, RpcReply::Block(Some(payload)));
        let r = t.call(NodeId(2), NodeId(1), Rpc::GetBlock { block: bid(9) }).unwrap();
        assert_eq!(r, RpcReply::Block(None));
        let s = t.stats();
        assert!(s.bytes_sent > 200_000, "two copies of the payload crossed the wire");
        assert_eq!(s.timeouts, 0);
    }

    #[test]
    fn one_shared_connection_per_destination() {
        let t = store_transport();
        for i in 0..20 {
            t.call(NodeId(0), NodeId(1), Rpc::GetBlock { block: bid(i) }).unwrap();
        }
        // Every call multiplexed over the single pipelined connection.
        assert_eq!(t.state.lock().peers.len(), 1);
    }

    #[test]
    fn concurrent_calls_share_one_pipelined_link() {
        let t = store_transport();
        let mut joins = Vec::new();
        for w in 0..8u64 {
            let t = Arc::clone(&t);
            joins.push(std::thread::spawn(move || {
                for i in 0..25u64 {
                    let payload = Bytes::from(vec![w as u8; 512]);
                    let block = bid(w * 1000 + i);
                    let r = t
                        .call(NodeId(0), NodeId(1), Rpc::PutBlock { block, data: payload.clone() })
                        .unwrap();
                    assert_eq!(r, RpcReply::Ack);
                    let r = t.call(NodeId(0), NodeId(1), Rpc::GetBlock { block }).unwrap();
                    assert_eq!(r, RpcReply::Block(Some(payload)));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(t.stats().timeouts, 0);
        assert_eq!(t.state.lock().peers.len(), 1, "all workers shared one link");
    }

    #[test]
    fn windowed_sends_flush_to_acks() {
        let t = store_transport();
        let mut tickets = Vec::new();
        for seq in 0..32u32 {
            let rpc = Rpc::ShuffleBatch {
                task: 1,
                attempt: 0,
                seq,
                epoch: 0,
                partition: 0,
                records: vec![("k".into(), "v".into())],
            };
            tickets.push(t.send(NodeId(0), NodeId(1), rpc).unwrap());
        }
        t.flush(&tickets).unwrap();
        let (shuffle_rpcs, shuffle_bytes) = t.stats().kind(crate::RpcKind::ShuffleBatch);
        assert_eq!(shuffle_rpcs, 32);
        assert!(shuffle_bytes > 0);
        // Re-flushing redeemed tickets is a no-op.
        t.flush(&tickets).unwrap();
    }

    #[test]
    fn send_to_closed_endpoint_fails_fast() {
        let t = store_transport();
        t.close_endpoint(NodeId(1));
        let started = Instant::now();
        let e = t
            .send(NodeId(0), NodeId(1), Rpc::CachePut {
                key: eclipse_cache::CacheKey::Input(HashKey(1)),
                data: Bytes::from_static(b"x"),
                ttl: None,
                tenant: 0,
                pin: false,
            })
            .unwrap_err();
        assert_eq!(e, NetError::ConnectionClosed { to: NodeId(1) });
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn close_endpoint_fails_pending_window_slots() {
        let t = store_transport();
        let ticket = t
            .send(NodeId(0), NodeId(1), Rpc::ShuffleBatch {
                task: 0,
                attempt: 0,
                seq: 0,
                epoch: 0,
                partition: 0,
                records: vec![],
            })
            .unwrap();
        t.close_endpoint(NodeId(1));
        // Whether the ack won the race or the close poisoned the slot,
        // flush must return promptly — never wait out retransmits.
        let started = Instant::now();
        let _ = t.flush(&[ticket]);
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn closed_endpoint_fails_fast() {
        let t = store_transport();
        t.close_endpoint(NodeId(2));
        let started = Instant::now();
        let e = t.call(NodeId(0), NodeId(2), Rpc::GetBlock { block: bid(0) }).unwrap_err();
        assert_eq!(e, NetError::ConnectionClosed { to: NodeId(2) });
        assert!(started.elapsed() < Duration::from_secs(1), "no retry loop on closed");
    }

    #[test]
    fn unbound_node_is_connection_closed() {
        let t = store_transport();
        let e = t.call(NodeId(0), NodeId(9), Rpc::GetBlock { block: bid(0) }).unwrap_err();
        assert_eq!(e, NetError::ConnectionClosed { to: NodeId(9) });
    }

    #[test]
    fn handlers_can_nest_calls() {
        // ReplicaSync-style relay: node 0's handler pushes to node 1.
        let t = Arc::new(TcpTransport::new());
        let relay = Arc::clone(&t);
        t.bind(
            NodeId(1),
            Arc::new(|rpc| match rpc {
                Rpc::PutBlock { .. } => RpcReply::Ack,
                _ => RpcReply::Error("unsupported".into()),
            }),
        );
        let weak = Arc::downgrade(&relay);
        drop(relay);
        t.bind(
            NodeId(0),
            Arc::new(move |rpc| match rpc {
                Rpc::ReplicaSync { block, to } => {
                    let Some(t) = weak.upgrade() else { return RpcReply::Missing };
                    match t.call(NodeId(0), to, Rpc::PutBlock {
                        block,
                        data: Bytes::from_static(b"relayed"),
                    }) {
                        Ok(_) => RpcReply::Synced { bytes: 7 },
                        Err(e) => RpcReply::Error(e.to_string()),
                    }
                }
                _ => RpcReply::Error("unsupported".into()),
            }),
        );
        let r = t
            .call(crate::CLIENT, NodeId(0), Rpc::ReplicaSync { block: bid(0), to: NodeId(1) })
            .unwrap();
        assert_eq!(r, RpcReply::Synced { bytes: 7 });
    }
}
