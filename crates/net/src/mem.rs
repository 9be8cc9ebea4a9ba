//! Deterministic in-memory transport backend — the chaos harness and
//! the test oracle for the wire protocol.
//!
//! Links are synchronous per-caller FIFO channels (a call completes
//! before the caller issues the next, so per-link ordering is inherent)
//! with four injectable fault classes:
//!
//! * **one-way partitions** — frames from `a` to `b` vanish; the caller
//!   observes silence (a timeout), exactly like a real network cut;
//! * **drops** — the next `n` frames on a link (or of one [`RpcKind`]
//!   anywhere) are lost in flight, exercising the retry path;
//! * **corruption** — the next `n` frames of one kind arrive cut short
//!   by a byte, exercising the receiver's codec rejection;
//! * **delays** — every frame on a link waits before delivery,
//!   modelling a slow or congested path. A delayed (blocked) call is
//!   woken immediately when the destination endpoint closes, so peers
//!   get a connection error instead of waiting out the delay.
//!
//! Every frame — even node-local ones — is encoded and decoded through
//! the real codec ([`Rpc::encode`]/[`Rpc::decode_owned`]), so a run over this
//! backend proves the byte-level protocol, not just the call graph:
//! it is the deterministic oracle the loopback-TCP suite compares
//! against.

use crate::rpc::{Rpc, RpcKind, RpcReply};
use crate::{
    NetError, NetSnapshot, NetStats, RetryPolicy, RpcHandler, SendTicket, Transport,
};
use eclipse_ring::NodeId;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

#[derive(Default)]
struct MemState {
    endpoints: HashMap<u32, RpcHandler>,
    closed: HashSet<u32>,
    /// Directed partitions: frames from `.0` to `.1` are silently lost.
    cut: HashSet<(u32, u32)>,
    /// Per-link delivery delay.
    delays: HashMap<(u32, u32), Duration>,
    /// Per-link drop tokens: the next `n` frames on the link vanish.
    drop_link: HashMap<(u32, u32), u32>,
    /// Per-kind drop tokens: the next `n` frames of this kind vanish,
    /// whatever link they travel.
    drop_kind: HashMap<RpcKind, u32>,
    /// Per-kind corruption tokens: the next `n` frames of this kind
    /// arrive with their body's last byte cut.
    corrupt_kind: HashMap<RpcKind, u32>,
}

/// Outcome of one delivery attempt.
enum Attempt {
    /// Hand the frame to the handler — cut short by a byte when a
    /// corruption token was consumed.
    Deliver(RpcHandler, bool),
    /// Endpoint closed or never bound — fail fast, no retry.
    Closed,
    /// Frame lost (drop token or partition) — retry after backoff.
    Lost,
}

/// One windowed one-way send awaiting [`Transport::flush`]. Delivery
/// is attempted inline at [`Transport::send`] time (in-memory links
/// have no propagation delay to overlap), so the slot usually holds a
/// settled result; a frame the fault machinery ate stays unsettled and
/// is retried — through the real codec again — at flush.
struct MemSlot {
    from: NodeId,
    to: NodeId,
    kind: RpcKind,
    frame: Vec<u8>,
    /// Transmissions so far (>= 1).
    attempts: u32,
    done: Option<Result<(), NetError>>,
}

/// The in-memory [`Transport`] backend. See the module docs.
pub struct MemTransport {
    state: Mutex<MemState>,
    /// Notified when an endpoint closes or faults heal, so blocked
    /// (delayed / partitioned) calls re-check their destination.
    wake: Condvar,
    stats: NetStats,
    policy: RetryPolicy,
    /// Silence window: how long a call waits for a reply that a
    /// partition is eating before declaring the attempt timed out.
    rpc_timeout: Duration,
    corr: AtomicU64,
    /// Outstanding one-way sends, keyed by ticket id. Because delivery
    /// is inline, the ack window never blocks here — the window
    /// semantics TCP enforces are trivially satisfied.
    sends: Mutex<HashMap<u64, MemSlot>>,
    /// Base seed for derived fault timing (see [`Self::seed_faults`]).
    /// 0 = unseeded; seeded delays then fall back to `rpc_timeout / 2`.
    fault_seed: AtomicU64,
}

/// SplitMix64 — the same mixer the workspace RNG uses for seed
/// expansion. Fault timing derives from it so a delay is a pure
/// function of (seed, link), never of the host's wall clock.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Default for MemTransport {
    fn default() -> MemTransport {
        MemTransport::new()
    }
}

impl MemTransport {
    pub fn new() -> MemTransport {
        MemTransport::with_policy(RetryPolicy::default())
    }

    pub fn with_policy(policy: RetryPolicy) -> MemTransport {
        MemTransport {
            state: Mutex::new(MemState::default()),
            wake: Condvar::new(),
            stats: NetStats::default(),
            policy,
            rpc_timeout: Duration::from_millis(2),
            corr: AtomicU64::new(1),
            sends: Mutex::new(HashMap::new()),
            fault_seed: AtomicU64::new(0),
        }
    }

    // ---- fault injection (the chaos API) ---------------------------

    /// Cut the directed link `from → to`: frames vanish, callers see
    /// timeouts. The reverse direction is unaffected.
    pub fn cut_one_way(&self, from: NodeId, to: NodeId) {
        self.state.lock().unwrap().cut.insert((from.0, to.0));
    }

    /// Heal one directed link.
    pub fn heal_link(&self, from: NodeId, to: NodeId) {
        self.state.lock().unwrap().cut.remove(&(from.0, to.0));
        self.wake.notify_all();
    }

    /// Heal every partition, delay, and pending drop.
    pub fn heal_all(&self) {
        let mut st = self.state.lock().unwrap();
        st.cut.clear();
        st.delays.clear();
        st.drop_link.clear();
        st.drop_kind.clear();
        drop(st);
        self.wake.notify_all();
    }

    /// Delay every frame on `from → to` by `delay` before delivery.
    pub fn delay_link(&self, from: NodeId, to: NodeId, delay: Duration) {
        self.state.lock().unwrap().delays.insert((from.0, to.0), delay);
    }

    /// Drop the next `n` frames on the directed link.
    pub fn drop_next_on_link(&self, from: NodeId, to: NodeId, n: u32) {
        *self.state.lock().unwrap().drop_link.entry((from.0, to.0)).or_insert(0) += n;
    }

    /// Drop the next `n` frames of `kind`, on any link.
    pub fn drop_rpcs(&self, kind: RpcKind, n: u32) {
        *self.state.lock().unwrap().drop_kind.entry(kind).or_insert(0) += n;
    }

    /// Deliver the next `n` frames of `kind`, on any link, with the last
    /// byte of their body cut (and the length prefix patched to match).
    /// Every message consumes its body exactly, so the receiver's codec
    /// rejects such a frame and the endpoint answers
    /// [`RpcReply::Error`]; a retransmission carries the intact frame.
    pub fn corrupt_rpcs(&self, kind: RpcKind, n: u32) {
        *self.state.lock().unwrap().corrupt_kind.entry(kind).or_insert(0) += n;
    }

    /// Seed the derived fault-timing source. After this,
    /// [`Self::delay_link_seeded`] installs link delays computed purely
    /// from `(seed, link, salt)` — the same seed yields the same delay
    /// schedule on any host, independent of core count or wall clock.
    pub fn seed_faults(&self, seed: u64) {
        self.fault_seed.store(seed, Ordering::Release);
    }

    /// Install a deterministic delay on `from → to` and return it.
    ///
    /// The duration is a pure function of the fault seed, the directed
    /// link, and `salt` (inject the same link twice in one schedule
    /// with different salts for different delays), drawn from
    /// `[rpc_timeout/4, rpc_timeout]`. Staying at or below the RPC
    /// silence window keeps a seeded delay strictly benign: it slows a
    /// link without ever masquerading as a partition, so the fault is
    /// replayable timing pressure rather than a host-speed-dependent
    /// outage. Unseeded transports get the midpoint (`rpc_timeout/2`).
    pub fn delay_link_seeded(&self, from: NodeId, to: NodeId, salt: u64) -> Duration {
        let quarter = self.rpc_timeout.as_micros().max(4) as u64 / 4;
        let seed = self.fault_seed.load(Ordering::Acquire);
        let micros = if seed == 0 {
            quarter * 2
        } else {
            let link = (from.0 as u64) << 32 | to.0 as u64;
            let z = splitmix64(seed ^ link.rotate_left(17) ^ salt);
            quarter + z % (3 * quarter + 1)
        };
        let delay = Duration::from_micros(micros);
        self.delay_link(from, to, delay);
        delay
    }

    /// The delay currently installed on `from → to`, if any.
    pub fn link_delay(&self, from: NodeId, to: NodeId) -> Option<Duration> {
        self.state.lock().unwrap().delays.get(&(from.0, to.0)).copied()
    }

    /// The silence window after which a partitioned call attempt is
    /// declared timed out (the unit seeded fault timing is scaled by).
    pub fn rpc_timeout(&self) -> Duration {
        self.rpc_timeout
    }

    /// Is the endpoint bound and open? (Diagnostics/tests.)
    pub fn endpoint_open(&self, node: NodeId) -> bool {
        let st = self.state.lock().unwrap();
        st.endpoints.contains_key(&node.0) && !st.closed.contains(&node.0)
    }

    // ---- delivery --------------------------------------------------

    /// One attempt: consult faults, wait out delays (interruptibly),
    /// and hand back the destination handler on success.
    fn attempt(&self, from: NodeId, to: NodeId, kind: RpcKind) -> Attempt {
        let mut st = self.state.lock().unwrap();
        if !st.endpoints.contains_key(&to.0) || st.closed.contains(&to.0) {
            return Attempt::Closed;
        }
        // Drop tokens consume frames that would otherwise be sent.
        if let Some(n) = st.drop_kind.get_mut(&kind) {
            if *n > 0 {
                *n -= 1;
                return Attempt::Lost;
            }
        }
        if let Some(n) = st.drop_link.get_mut(&(from.0, to.0)) {
            if *n > 0 {
                *n -= 1;
                return Attempt::Lost;
            }
        }
        // A partition is silence: wait out the RPC timeout unless the
        // link heals or the endpoint closes first.
        if st.cut.contains(&(from.0, to.0)) {
            let deadline = Instant::now() + self.rpc_timeout;
            loop {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Attempt::Lost;
                }
                st = self.wake.wait_timeout(st, left).unwrap().0;
                if st.closed.contains(&to.0) {
                    return Attempt::Closed;
                }
                if !st.cut.contains(&(from.0, to.0)) {
                    break;
                }
            }
        }
        // A delay holds the frame in flight; endpoint closure while the
        // frame is in flight kills it (the fail-fast guarantee peers
        // depend on to never hang on a dead node).
        if let Some(delay) = st.delays.get(&(from.0, to.0)).copied() {
            let deadline = Instant::now() + delay;
            loop {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                st = self.wake.wait_timeout(st, left).unwrap().0;
                if st.closed.contains(&to.0) {
                    return Attempt::Closed;
                }
                if !st.delays.contains_key(&(from.0, to.0)) {
                    break;
                }
            }
            if !st.endpoints.contains_key(&to.0) || st.closed.contains(&to.0) {
                return Attempt::Closed;
            }
        }
        let corrupt = match st.corrupt_kind.get_mut(&kind) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        };
        Attempt::Deliver(st.endpoints[&to.0].clone(), corrupt)
    }

    /// One one-way transmission: run the fault machinery and, on
    /// delivery, the full codec round-trip plus the handler.
    /// `Ok(None)` means the frame was lost (retry later).
    fn transmit_oneway(
        &self,
        from: NodeId,
        to: NodeId,
        kind: RpcKind,
        frame: &[u8],
        retrans: bool,
    ) -> Result<Option<Result<(), NetError>>, NetError> {
        if retrans {
            self.stats.count_retransmit(kind, frame.len() as u64);
        } else {
            self.stats.count_request(kind, frame.len() as u64);
        }
        match self.attempt(from, to, kind) {
            Attempt::Closed => Err(NetError::ConnectionClosed { to }),
            Attempt::Lost => {
                self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                Ok(None)
            }
            Attempt::Deliver(handler, corrupt) => {
                let decoded = crate::wire::decode_frame(&delivered(frame, corrupt))?;
                let corr = decoded.corr;
                let reply = serve(&handler, decoded);
                let reply_frame = reply.encode(corr);
                self.stats
                    .bytes_sent
                    .fetch_add(reply_frame.len() as u64, Ordering::Relaxed);
                let decoded = crate::wire::decode_frame(&reply_frame)?;
                let reply = RpcReply::decode(&decoded)?;
                Ok(Some(match reply {
                    RpcReply::Error(msg) => Err(NetError::Remote(msg)),
                    _ => Ok(()),
                }))
            }
        }
    }
}

/// The bytes that arrive for `frame`: the frame itself, or with
/// `corrupt` a copy whose body lost its last byte (length patched).
fn delivered(frame: &[u8], corrupt: bool) -> std::borrow::Cow<'_, [u8]> {
    let body = frame.len() - crate::wire::HEADER_LEN;
    if !corrupt || body == 0 {
        return std::borrow::Cow::Borrowed(frame);
    }
    let mut bad = frame[..frame.len() - 1].to_vec();
    bad[12..16].copy_from_slice(&(body as u32 - 1).to_le_bytes());
    std::borrow::Cow::Owned(bad)
}

/// The serving side of one delivered frame, as the TCP endpoint does
/// it: decode the request by value and run the handler, or answer a
/// body the codec rejects with [`RpcReply::Error`].
fn serve(handler: &RpcHandler, frame: crate::wire::Frame) -> RpcReply {
    match Rpc::decode_owned(frame) {
        Ok(rpc) => handler(rpc),
        Err(e) => RpcReply::Error(format!("bad request: {e}")),
    }
}

impl Transport for MemTransport {
    fn window_saturated(&self, to: NodeId) -> bool {
        // Delivery is inline, so a slot only stays unsettled when the
        // fault machinery ate its frame; ack_window of those toward one
        // destination is exactly TCP's full-window condition.
        let sends = self.sends.lock().unwrap();
        sends.values().filter(|s| s.to == to && s.done.is_none()).count()
            >= self.policy.ack_window
    }

    fn bind(&self, node: NodeId, handler: RpcHandler) {
        let mut st = self.state.lock().unwrap();
        st.endpoints.insert(node.0, handler);
        st.closed.remove(&node.0);
    }

    fn call(&self, from: NodeId, to: NodeId, rpc: Rpc) -> Result<RpcReply, NetError> {
        let corr = self.corr.fetch_add(1, Ordering::Relaxed);
        let kind = rpc.kind();
        // The real wire bytes, even in memory: this is the oracle.
        let frame = rpc.encode(corr);
        for attempt in 0..self.policy.max_attempts {
            if attempt > 0 {
                self.stats.rpc_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.policy.backoff(attempt));
                self.stats.count_retransmit(kind, frame.len() as u64);
            } else {
                self.stats.count_request(kind, frame.len() as u64);
            }
            match self.attempt(from, to, kind) {
                Attempt::Closed => return Err(NetError::ConnectionClosed { to }),
                Attempt::Lost => {
                    self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                Attempt::Deliver(handler, corrupt) => {
                    let decoded = crate::wire::decode_frame(&delivered(&frame, corrupt))?;
                    let reply = serve(&handler, decoded);
                    let reply_frame = reply.encode(corr);
                    self.stats
                        .bytes_sent
                        .fetch_add(reply_frame.len() as u64, Ordering::Relaxed);
                    let decoded = crate::wire::decode_frame(&reply_frame)?;
                    return Ok(RpcReply::decode(&decoded)?);
                }
            }
        }
        Err(NetError::Timeout { to })
    }

    fn send(&self, from: NodeId, to: NodeId, rpc: Rpc) -> Result<SendTicket, NetError> {
        let corr = self.corr.fetch_add(1, Ordering::Relaxed);
        let kind = rpc.kind();
        // The real wire bytes, even in memory: this is the oracle.
        let frame = rpc.encode(corr);
        // Closed destinations fail fast, exactly like `call`.
        let done = self.transmit_oneway(from, to, kind, &frame, false)?;
        self.sends
            .lock()
            .unwrap()
            .insert(corr, MemSlot { from, to, kind, frame, attempts: 1, done });
        Ok(SendTicket { to, id: corr })
    }

    fn flush(&self, tickets: &[SendTicket]) -> Result<(), NetError> {
        let mut first_err: Option<NetError> = None;
        for t in tickets {
            loop {
                // Take what we need under the lock, transmit outside it
                // (the fault machinery may block on delays/partitions).
                let retry = {
                    let mut sends = self.sends.lock().unwrap();
                    match sends.get_mut(&t.id) {
                        None => break, // already redeemed
                        Some(slot) => match &slot.done {
                            Some(res) => {
                                if let Err(e) = res {
                                    first_err.get_or_insert(e.clone());
                                }
                                sends.remove(&t.id);
                                break;
                            }
                            None => {
                                if slot.attempts >= self.policy.max_attempts {
                                    first_err
                                        .get_or_insert(NetError::Timeout { to: slot.to });
                                    sends.remove(&t.id);
                                    break;
                                }
                                slot.attempts += 1;
                                (
                                    slot.from,
                                    slot.to,
                                    slot.kind,
                                    slot.frame.clone(),
                                    slot.attempts,
                                )
                            }
                        },
                    }
                };
                let (from, to, kind, frame, attempts) = retry;
                self.stats.rpc_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.policy.backoff(attempts - 1));
                let outcome = self.transmit_oneway(from, to, kind, &frame, true);
                let mut sends = self.sends.lock().unwrap();
                if let Some(slot) = sends.get_mut(&t.id) {
                    match outcome {
                        Err(e) => slot.done = Some(Err(e)),
                        Ok(Some(res)) => slot.done = Some(res),
                        Ok(None) => {}
                    }
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    fn close_endpoint(&self, node: NodeId) {
        self.state.lock().unwrap().closed.insert(node.0);
        self.wake.notify_all();
    }

    fn stats(&self) -> NetSnapshot {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn echo_transport() -> Arc<MemTransport> {
        let t = Arc::new(MemTransport::new());
        for n in 0..4u32 {
            t.bind(
                NodeId(n),
                Arc::new(move |rpc| match rpc {
                    Rpc::Heartbeat { from, clock, .. } => {
                        RpcReply::Error(format!("pong {n} from {} at {clock}", from.0))
                    }
                    _ => RpcReply::Ack,
                }),
            );
        }
        t
    }

    fn hb(from: u32) -> Rpc {
        Rpc::Heartbeat { from: NodeId(from), clock: 9, task: u32::MAX, progress: 0 }
    }

    #[test]
    fn call_roundtrips_through_codec() {
        let t = echo_transport();
        let r = t.call(NodeId(0), NodeId(1), hb(0)).unwrap();
        assert_eq!(r, RpcReply::Error("pong 1 from 0 at 9".into()));
        let s = t.stats();
        assert_eq!(s.rpcs, 1);
        assert!(s.bytes_sent > 0);
        assert_eq!(s.timeouts, 0);
    }

    #[test]
    fn unbound_endpoint_fails_fast() {
        let t = echo_transport();
        let e = t.call(NodeId(0), NodeId(9), hb(0)).unwrap_err();
        assert_eq!(e, NetError::ConnectionClosed { to: NodeId(9) });
        assert_eq!(t.stats().rpc_retries, 0, "no retry on a closed endpoint");
    }

    #[test]
    fn one_way_partition_times_out_one_direction_only() {
        let t = echo_transport();
        t.cut_one_way(NodeId(0), NodeId(1));
        let e = t.call(NodeId(0), NodeId(1), hb(0)).unwrap_err();
        assert_eq!(e, NetError::Timeout { to: NodeId(1) });
        assert!(t.stats().timeouts >= 1);
        // Reverse direction still works.
        assert!(t.call(NodeId(1), NodeId(0), hb(1)).is_ok());
        t.heal_link(NodeId(0), NodeId(1));
        assert!(t.call(NodeId(0), NodeId(1), hb(0)).is_ok());
    }

    #[test]
    fn dropped_frame_is_retried_transparently() {
        let t = echo_transport();
        t.drop_next_on_link(NodeId(0), NodeId(2), 1);
        assert!(t.call(NodeId(0), NodeId(2), hb(0)).is_ok(), "retry absorbs the drop");
        let s = t.stats();
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.rpc_retries, 1);
    }

    #[test]
    fn kind_scoped_drops_hit_only_that_kind() {
        let t = echo_transport();
        t.drop_rpcs(RpcKind::Heartbeat, 1);
        assert!(t.call(NodeId(0), NodeId(1), Rpc::CacheGet {
            key: eclipse_cache::CacheKey::Input(eclipse_util::HashKey(1)),
        }).is_ok());
        assert_eq!(t.stats().timeouts, 0, "other kinds unaffected");
        assert!(t.call(NodeId(0), NodeId(1), hb(0)).is_ok());
        assert_eq!(t.stats().timeouts, 1, "the heartbeat ate the drop token");
    }

    #[test]
    fn close_wakes_delayed_call_with_connection_error() {
        let t = echo_transport();
        t.delay_link(NodeId(0), NodeId(3), Duration::from_secs(30));
        let t2 = Arc::clone(&t);
        let started = Instant::now();
        let h = std::thread::spawn(move || t2.call(NodeId(0), NodeId(3), hb(0)));
        std::thread::sleep(Duration::from_millis(30));
        t.close_endpoint(NodeId(3));
        let res = h.join().unwrap();
        assert_eq!(res.unwrap_err(), NetError::ConnectionClosed { to: NodeId(3) });
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "blocked call must not wait out the delay"
        );
    }

    fn batch(seq: u32) -> Rpc {
        Rpc::ShuffleBatch {
            task: 1,
            attempt: 0,
            seq,
            epoch: 0,
            partition: 0,
            records: vec![("k".into(), "1".into())],
        }
    }

    #[test]
    fn windowed_send_delivers_inline_and_flush_is_cheap() {
        let t = echo_transport();
        let t1 = t.send(NodeId(0), NodeId(1), batch(0)).unwrap();
        let t2 = t.send(NodeId(0), NodeId(1), batch(1)).unwrap();
        // Both delivered at send time; flush just redeems the slots.
        t.flush(&[t1, t2]).unwrap();
        let s = t.stats();
        assert_eq!(s.kind(RpcKind::ShuffleBatch).0, 2);
        assert_eq!(s.rpc_retries, 0);
        // Tickets are single-redemption; a second flush is a no-op.
        t.flush(&[t1, t2]).unwrap();
    }

    #[test]
    fn dropped_windowed_send_is_retried_at_flush() {
        let t = echo_transport();
        t.drop_rpcs(RpcKind::ShuffleBatch, 1);
        let ticket = t.send(NodeId(0), NodeId(1), batch(0)).unwrap();
        t.flush(&[ticket]).unwrap();
        let s = t.stats();
        assert_eq!(s.timeouts, 1, "first transmission was eaten");
        assert_eq!(s.rpc_retries, 1, "flush retransmitted");
        assert_eq!(s.kind(RpcKind::ShuffleBatch).0, 2, "frame crossed the wire twice");
    }

    #[test]
    fn partitioned_windowed_send_exhausts_budget_then_fails() {
        let t = echo_transport();
        t.cut_one_way(NodeId(0), NodeId(2));
        let ticket = t.send(NodeId(0), NodeId(2), batch(0)).unwrap();
        let e = t.flush(&[ticket]).unwrap_err();
        assert_eq!(e, NetError::Timeout { to: NodeId(2) });
        let s = t.stats();
        assert_eq!(s.rpc_retries as u32, t.policy.max_attempts - 1);
    }

    #[test]
    fn send_to_closed_endpoint_fails_fast() {
        let t = echo_transport();
        t.close_endpoint(NodeId(1));
        let e = t.send(NodeId(0), NodeId(1), batch(0)).unwrap_err();
        assert_eq!(e, NetError::ConnectionClosed { to: NodeId(1) });
    }

    #[test]
    fn remote_handler_error_surfaces_at_flush() {
        let t = echo_transport();
        // The echo handler answers Heartbeat with RpcReply::Error.
        let ticket = t.send(NodeId(0), NodeId(1), hb(0)).unwrap();
        let e = t.flush(&[ticket]).unwrap_err();
        assert!(matches!(e, NetError::Remote(_)));
    }

    #[test]
    fn rebind_reopens_endpoint() {
        let t = echo_transport();
        t.close_endpoint(NodeId(2));
        assert!(t.call(NodeId(0), NodeId(2), hb(0)).is_err());
        t.bind(NodeId(2), Arc::new(|_| RpcReply::Ack));
        assert_eq!(t.call(NodeId(0), NodeId(2), hb(0)).unwrap(), RpcReply::Ack);
    }

    /// One representative message per [`RpcKind`].
    fn sample_rpc(kind: RpcKind) -> Rpc {
        use eclipse_cache::CacheKey;
        use eclipse_dhtfs::BlockId;
        use eclipse_util::HashKey;
        let bid = BlockId { file: HashKey(0xFEED), index: 3 };
        match kind {
            RpcKind::GetBlock => Rpc::GetBlock { block: bid },
            RpcKind::PutBlock => Rpc::PutBlock { block: bid, data: b"abc".as_ref().into() },
            RpcKind::ReplicaSync => Rpc::ReplicaSync { block: bid, to: NodeId(2) },
            RpcKind::CacheGet => Rpc::CacheGet { key: CacheKey::Input(HashKey(7)) },
            RpcKind::CachePut => Rpc::CachePut {
                key: CacheKey::Input(HashKey(7)),
                data: b"xyz".as_ref().into(),
                ttl: None,
                tenant: 0,
                pin: false,
            },
            RpcKind::ShuffleBatch => batch(0),
            RpcKind::Heartbeat => {
                Rpc::Heartbeat { from: NodeId(0), clock: 1, task: u32::MAX, progress: 0 }
            }
            RpcKind::TaskAssign => Rpc::TaskAssign { task: 9, block: bid },
            RpcKind::RangeHandoff => Rpc::RangeHandoff {
                key: CacheKey::Input(HashKey(11)),
                data: b"hand".as_ref().into(),
            },
            RpcKind::BlockPull => Rpc::BlockPull { block: bid, from: NodeId(1) },
        }
    }

    const ALL_KINDS: [RpcKind; 10] = [
        RpcKind::GetBlock,
        RpcKind::PutBlock,
        RpcKind::ReplicaSync,
        RpcKind::CacheGet,
        RpcKind::CachePut,
        RpcKind::ShuffleBatch,
        RpcKind::Heartbeat,
        RpcKind::TaskAssign,
        RpcKind::RangeHandoff,
        RpcKind::BlockPull,
    ];

    /// `drop_rpcs(kind, 1)` must match exactly one frame of `kind` on
    /// the blocking-call path — for every kind, with every other kind
    /// passing untouched while the token is armed.
    #[test]
    fn drop_rpcs_matches_every_kind_on_call_path() {
        let ack = |t: &Arc<MemTransport>| {
            // Re-bind with a handler that always acks (the echo handler
            // answers Heartbeat with Error, which would mask the drop
            // accounting this test pins).
            for n in 0..4u32 {
                t.bind(NodeId(n), Arc::new(|_| RpcReply::Ack));
            }
        };
        for kind in ALL_KINDS {
            let t = echo_transport();
            ack(&t);
            t.drop_rpcs(kind, 1);
            // Every OTHER kind crosses untouched while the token is armed.
            for other in ALL_KINDS.into_iter().filter(|&o| o != kind) {
                t.call(NodeId(0), NodeId(1), sample_rpc(other)).unwrap();
            }
            assert_eq!(t.stats().timeouts, 0, "{kind:?}: token leaked onto another kind");
            // The matching kind eats the token (one timeout, one retry).
            t.call(NodeId(0), NodeId(1), sample_rpc(kind)).unwrap();
            let s = t.stats();
            assert_eq!(s.timeouts, 1, "{kind:?}: drop token never matched on call path");
            assert_eq!(s.rpc_retries, 1, "{kind:?}: retry must absorb the drop");
            // Token spent: the next frame of the kind is clean.
            t.call(NodeId(0), NodeId(1), sample_rpc(kind)).unwrap();
            assert_eq!(t.stats().timeouts, 1, "{kind:?}: token must be consumed");
        }
    }

    /// Same pinning for the windowed one-way lane: the send-time
    /// transmission eats the token and the flush retransmit lands.
    #[test]
    fn drop_rpcs_matches_every_kind_on_send_path() {
        for kind in ALL_KINDS {
            let t = echo_transport();
            for n in 0..4u32 {
                t.bind(NodeId(n), Arc::new(|_| RpcReply::Ack));
            }
            t.drop_rpcs(kind, 1);
            let ticket = t.send(NodeId(0), NodeId(1), sample_rpc(kind)).unwrap();
            t.flush(&[ticket]).unwrap();
            let s = t.stats();
            assert_eq!(s.timeouts, 1, "{kind:?}: drop token never matched on send path");
            assert_eq!(s.rpc_retries, 1, "{kind:?}: flush must retransmit");
            assert_eq!(s.kind(kind).0, 2, "{kind:?}: frame must cross the wire twice");
            assert!(s.kind_retrans(kind) > 0, "{kind:?}: second crossing is a retransmit");
        }
    }

    /// Seeded link delays are a pure function of (seed, link, salt):
    /// identical across transports and hosts, different per seed, and
    /// always inside `[rpc_timeout/4, rpc_timeout]` so a seeded delay
    /// can never fake a partition.
    #[test]
    fn seeded_delays_are_deterministic_and_bounded() {
        let a = echo_transport();
        let b = echo_transport();
        a.seed_faults(42);
        b.seed_faults(42);
        for (f, to) in [(0u32, 1u32), (1, 2), (2, 3), (3, 0)] {
            let da = a.delay_link_seeded(NodeId(f), NodeId(to), 7);
            let db = b.delay_link_seeded(NodeId(f), NodeId(to), 7);
            assert_eq!(da, db, "same seed, same link, same delay");
            assert_eq!(a.link_delay(NodeId(f), NodeId(to)), Some(da), "delay installed");
            assert!(da >= a.rpc_timeout() / 4 && da <= a.rpc_timeout());
        }
        // A different seed moves at least one link's delay.
        let c = echo_transport();
        c.seed_faults(43);
        let moved = [(0u32, 1u32), (1, 2), (2, 3), (3, 0)].into_iter().any(|(f, to)| {
            c.delay_link_seeded(NodeId(f), NodeId(to), 7)
                != a.link_delay(NodeId(f), NodeId(to)).unwrap()
        });
        assert!(moved, "seed must actually steer the timing");
        // Direction and salt are part of the key.
        let d1 = a.delay_link_seeded(NodeId(1), NodeId(0), 7);
        let d2 = a.delay_link_seeded(NodeId(1), NodeId(0), 8);
        assert!(d1 != a.link_delay(NodeId(0), NodeId(1)).unwrap() || d1 != d2);
        a.heal_all();
        assert_eq!(a.link_delay(NodeId(0), NodeId(1)), None);
    }
}
