//! # eclipse-net
//!
//! The transport plane: every inter-node interaction of the live
//! executor — DHT block reads/writes, replica sync, iCache/oCache
//! lookups, shuffle delivery, heartbeats, task assignment — travels as
//! a framed RPC over a pluggable [`Transport`].
//!
//! Two backends implement the same trait and speak the same wire codec:
//!
//! * [`MemTransport`] — deterministic in-memory links with injectable
//!   delay, drops, and one-way partitions. Every frame is still encoded
//!   and decoded through the real codec, so the in-memory backend is
//!   simultaneously the chaos harness *and* a byte-level oracle for the
//!   TCP path: whatever survives it has round-tripped the real wire
//!   format.
//! * [`TcpTransport`] — real loopback TCP: length-prefixed frames,
//!   per-peer connection pooling, request/response correlation ids,
//!   per-RPC timeouts with bounded retry and exponential backoff
//!   (mirroring the executor's task attempt ledger conventions).
//!
//! Retries make delivery *at-least-once*; receivers that cannot
//! tolerate duplicates deduplicate by the sequence numbers carried in
//! the messages ([`Rpc::ShuffleRun`]'s `(task, attempt, seq)`).

pub mod demux;
pub mod mem;
pub mod records;
pub mod rpc;
pub mod tcp;
pub mod wire;

pub use demux::Demux;
pub use mem::MemTransport;
pub use records::{
    key_prefix, merge_groups, merge_sorted_pairs, Groups, RecordRun, RunBuilder, Values,
};
pub use rpc::{Rpc, RpcKind, RpcReply};
pub use tcp::TcpTransport;
pub use wire::{CodecError, Dir, Frame, FrameDecoder};

use eclipse_ring::NodeId;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Node id used for driver/client-originated calls (upload, recovery
/// orchestration, map progress reports). Never a ring member.
pub const CLIENT: NodeId = NodeId(u32::MAX);

/// A transport-level failure, after the backend's own retry budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// No response within the per-RPC timeout on any attempt (includes
    /// one-way partitions, which are indistinguishable from silence).
    Timeout { to: NodeId },
    /// The peer's endpoint is closed or was never bound: connection
    /// refused / reset. Fails fast, no retry.
    ConnectionClosed { to: NodeId },
    /// The peer answered with garbage the codec rejected.
    Codec(CodecError),
    /// The peer's handler reported a failure.
    Remote(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Timeout { to } => write!(f, "rpc to node {} timed out", to.0),
            NetError::ConnectionClosed { to } => {
                write!(f, "connection to node {} closed", to.0)
            }
            NetError::Codec(e) => write!(f, "codec error: {e}"),
            NetError::Remote(msg) => write!(f, "remote error: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> NetError {
        NetError::Codec(e)
    }
}

/// Serving side of an endpoint: maps one decoded request to a reply.
/// Handlers may issue their own [`Transport::call`]s (e.g. `ReplicaSync`
/// pushes a `PutBlock` to the re-replication target).
pub type RpcHandler = Arc<dyn Fn(Rpc) -> RpcReply + Send + Sync>;

/// Retry/backoff budget for one logical RPC plus the link-tuning knobs
/// shared by both backends.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts (first try included). Mirrors the executor's
    /// bounded task-attempt ledger.
    pub max_attempts: u32,
    /// Backoff before retry `k` is `base << (k-1)`, capped at `cap`.
    pub backoff_base: Duration,
    pub backoff_cap: Duration,
    /// Max unacknowledged one-way sends ([`Transport::send`]) per
    /// destination before the sender blocks. Bounds both memory held for
    /// retransmission and the damage one dead peer can absorb.
    pub ack_window: usize,
    /// Disable Nagle's algorithm on every pooled TCP connection. Small
    /// control frames (heartbeats, acks) should not wait out a
    /// coalescing timer.
    pub nodelay: bool,
    /// Per-connection read buffer handed to the reader thread.
    pub read_buf_bytes: usize,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            backoff_base: Duration::from_micros(200),
            backoff_cap: Duration::from_millis(50),
            ack_window: 64,
            nodelay: true,
            read_buf_bytes: 64 * 1024,
        }
    }
}

impl RetryPolicy {
    /// Backoff to sleep before attempt `attempt` (0-based; attempt 0 has
    /// none).
    pub fn backoff(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let exp = self.backoff_base.saturating_mul(1u32 << (attempt - 1).min(16));
        exp.min(self.backoff_cap)
    }
}

/// Number of request kinds (`RpcKind` discriminants are 1..=KINDS).
pub const KINDS: usize = 10;

/// Cumulative transport counters (atomics: hot-path friendly). The
/// per-kind arrays attribute request traffic to its plane (shuffle vs
/// block vs cache vs control); reply bytes land in `bytes_sent` only.
#[derive(Debug, Default)]
pub struct NetStats {
    pub bytes_sent: AtomicU64,
    pub rpcs: AtomicU64,
    pub rpc_retries: AtomicU64,
    pub timeouts: AtomicU64,
    /// Bytes of `bytes_sent` that were retransmissions (second and later
    /// attempts of a call or windowed slot). `bytes_sent -
    /// retrans_bytes` is the first-send payload volume.
    pub retrans_bytes: AtomicU64,
    pub kind_rpcs: [AtomicU64; KINDS],
    pub kind_bytes: [AtomicU64; KINDS],
    /// Per-kind share of [`NetStats::retrans_bytes`].
    pub kind_retrans_bytes: [AtomicU64; KINDS],
}

/// A point-in-time copy of [`NetStats`], subtractable so callers can
/// attribute traffic to one job.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetSnapshot {
    pub bytes_sent: u64,
    pub rpcs: u64,
    pub rpc_retries: u64,
    pub timeouts: u64,
    pub retrans_bytes: u64,
    pub kind_rpcs: [u64; KINDS],
    pub kind_bytes: [u64; KINDS],
    pub kind_retrans_bytes: [u64; KINDS],
}

impl NetStats {
    /// Account one request frame of `bytes` wire bytes, attributed to
    /// its kind. Retransmissions count again: the bytes really crossed
    /// the wire twice.
    pub fn count_request(&self, kind: RpcKind, bytes: u64) {
        self.rpcs.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
        let i = kind as usize - 1;
        self.kind_rpcs[i].fetch_add(1, Ordering::Relaxed);
        self.kind_bytes[i].fetch_add(bytes, Ordering::Relaxed);
    }

    /// Account one *retransmitted* request frame: counted in the normal
    /// totals (the bytes crossed the wire again) and additionally in the
    /// retransmission split.
    pub fn count_retransmit(&self, kind: RpcKind, bytes: u64) {
        self.count_request(kind, bytes);
        self.retrans_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.kind_retrans_bytes[kind as usize - 1].fetch_add(bytes, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> NetSnapshot {
        let mut kind_rpcs = [0u64; KINDS];
        let mut kind_bytes = [0u64; KINDS];
        let mut kind_retrans_bytes = [0u64; KINDS];
        for i in 0..KINDS {
            kind_rpcs[i] = self.kind_rpcs[i].load(Ordering::Relaxed);
            kind_bytes[i] = self.kind_bytes[i].load(Ordering::Relaxed);
            kind_retrans_bytes[i] = self.kind_retrans_bytes[i].load(Ordering::Relaxed);
        }
        NetSnapshot {
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            rpcs: self.rpcs.load(Ordering::Relaxed),
            rpc_retries: self.rpc_retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            retrans_bytes: self.retrans_bytes.load(Ordering::Relaxed),
            kind_rpcs,
            kind_bytes,
            kind_retrans_bytes,
        }
    }
}

impl NetSnapshot {
    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: NetSnapshot) -> NetSnapshot {
        let mut kind_rpcs = [0u64; KINDS];
        let mut kind_bytes = [0u64; KINDS];
        let mut kind_retrans_bytes = [0u64; KINDS];
        for i in 0..KINDS {
            kind_rpcs[i] = self.kind_rpcs[i].saturating_sub(earlier.kind_rpcs[i]);
            kind_bytes[i] = self.kind_bytes[i].saturating_sub(earlier.kind_bytes[i]);
            kind_retrans_bytes[i] =
                self.kind_retrans_bytes[i].saturating_sub(earlier.kind_retrans_bytes[i]);
        }
        NetSnapshot {
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            rpcs: self.rpcs.saturating_sub(earlier.rpcs),
            rpc_retries: self.rpc_retries.saturating_sub(earlier.rpc_retries),
            timeouts: self.timeouts.saturating_sub(earlier.timeouts),
            retrans_bytes: self.retrans_bytes.saturating_sub(earlier.retrans_bytes),
            kind_rpcs,
            kind_bytes,
            kind_retrans_bytes,
        }
    }

    /// `(requests, request_bytes)` attributed to one kind.
    pub fn kind(&self, kind: RpcKind) -> (u64, u64) {
        let i = kind as usize - 1;
        (self.kind_rpcs[i], self.kind_bytes[i])
    }

    /// Retransmitted request bytes attributed to one kind.
    pub fn kind_retrans(&self, kind: RpcKind) -> u64 {
        self.kind_retrans_bytes[kind as usize - 1]
    }
}

/// Handle for one windowed one-way send, redeemed by
/// [`Transport::flush`]. Dropping a ticket without flushing leaks its
/// window slot until the transport reaps it on endpoint close — always
/// flush, even when the result is ignored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendTicket {
    pub to: NodeId,
    pub id: u64,
}

/// A pluggable node-to-node RPC fabric.
///
/// Implementations are synchronous request/response with internal
/// bounded retry; per-link FIFO ordering holds for calls issued from
/// one thread (a call completes before the next starts). The one-way
/// lane ([`Transport::send`]/[`Transport::flush`]) relaxes this:
/// windowed sends may be acknowledged, retried, and *delivered* out of
/// order, so receivers must tolerate reordering (shuffle dedup does).
pub trait Transport: Send + Sync {
    /// Register `node`'s serving handler, (re)opening its endpoint.
    fn bind(&self, node: NodeId, handler: RpcHandler);

    /// Issue one RPC and wait for the reply. Retries transparently on
    /// timeout up to the retry budget; fails fast with
    /// [`NetError::ConnectionClosed`] when the peer's endpoint is
    /// closed.
    fn call(&self, from: NodeId, to: NodeId, rpc: Rpc) -> Result<RpcReply, NetError>;

    /// Fire-and-track one-way lane for acknowledged but non-blocking
    /// delivery (`ShuffleBatch`, `CachePut`): enqueue the request
    /// without waiting for its round-trip. Blocks only when `to`'s ack
    /// window ([`RetryPolicy::ack_window`]) is full. The returned
    /// ticket MUST eventually be passed to [`Transport::flush`].
    fn send(&self, from: NodeId, to: NodeId, rpc: Rpc) -> Result<SendTicket, NetError>;

    /// Redeem tickets from [`Transport::send`]: wait until each is
    /// acknowledged (retrying within the retry budget) or failed. Ok
    /// means every ticket's request was delivered and acknowledged
    /// with a non-error reply. Each ticket's window slot is released
    /// regardless of outcome.
    fn flush(&self, tickets: &[SendTicket]) -> Result<(), NetError>;

    /// Hint that a batch of [`Transport::send`]s is complete: push any
    /// coalesced-but-unwritten frames onto the wire *without* waiting
    /// for acknowledgements. Callers that park tickets across other
    /// work (deferred flush) should nudge at the batch boundary so the
    /// acks travel while that work runs. Backends that transmit
    /// eagerly need no override.
    fn nudge(&self) {}

    /// True when `to`'s one-way ack window is fully occupied by live
    /// unacknowledged sends — the backpressure signal admission
    /// control couples to ([`RetryPolicy::ack_window`] slots, all in
    /// flight). Transports without a windowed lane never saturate.
    fn window_saturated(&self, to: NodeId) -> bool {
        let _ = to;
        false
    }

    /// Poison a node's endpoints: every in-flight call *to* it is woken
    /// with [`NetError::ConnectionClosed`], and future calls fail fast.
    /// Peers must never hang on a dead endpoint.
    fn close_endpoint(&self, node: NodeId);

    /// Cumulative counters.
    fn stats(&self) -> NetSnapshot;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_then_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(0), Duration::ZERO);
        assert_eq!(p.backoff(1), p.backoff_base);
        assert_eq!(p.backoff(2), p.backoff_base * 2);
        assert!(p.backoff(30) <= p.backoff_cap);
    }

    #[test]
    fn snapshot_delta() {
        let s = NetStats::default();
        s.rpcs.store(10, Ordering::Relaxed);
        let a = s.snapshot();
        s.rpcs.store(17, Ordering::Relaxed);
        s.bytes_sent.store(100, Ordering::Relaxed);
        let d = s.snapshot().since(a);
        assert_eq!(d.rpcs, 7);
        assert_eq!(d.bytes_sent, 100);
    }
}
