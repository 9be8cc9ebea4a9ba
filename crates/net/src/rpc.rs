//! The transport plane's RPC message set and its body codec.
//!
//! Ten request messages cover every inter-node interaction the live
//! executor performs (see DESIGN.md §8e for the full table):
//!
//! | message        | plane    | carries                                  |
//! |----------------|----------|------------------------------------------|
//! | `GetBlock`     | data     | block id                                 |
//! | `PutBlock`     | data     | block id + payload                       |
//! | `ReplicaSync`  | recovery | block id + re-replication target         |
//! | `CacheGet`     | cache    | cache key                                |
//! | `CachePut`     | cache    | cache key + payload + TTL                |
//! | `ShuffleBatch` | shuffle  | (task, attempt, seq) + sorted record run |
//! | `Heartbeat`    | control  | sender + logical clock                   |
//! | `TaskAssign`   | control  | task id + block id                       |
//! | `RangeHandoff` | elastic  | cache key + payload (re-homed entry)     |
//! | `BlockPull`    | elastic  | block id + source holder to pull from    |
//!
//! `ShuffleBatch` carries a per-attempt sequence number so receivers can
//! deduplicate at-least-once delivery (a retry after a lost *response*
//! would otherwise double-deliver the batch).
//!
//! The kind-6 (`ShuffleBatch`) body is five `u32`s (task, attempt, seq,
//! epoch, partition) followed by a sorted, front-coded [`RecordRun`].
//! The executor sends and receives it as [`Rpc::ShuffleRun`]: the
//! transports decode request frames by value ([`Rpc::decode_owned`]),
//! which decodes the run into its columns in one walk of the body,
//! validating it, then frees the frame body. [`Rpc::ShuffleBatch`] is
//! the same frame with owned pairs, which [`Rpc::decode`] still yields.

use crate::records::{common_prefix, RecordRun};
use crate::wire::{self, CodecError, Dir, Frame, Reader, Writer};
use bytes::Bytes;
use eclipse_cache::{CacheKey, OutputTag};
use eclipse_dhtfs::BlockId;
use eclipse_ring::NodeId;
use eclipse_util::HashKey;

/// Request message kinds (the `kind` byte of request frames).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RpcKind {
    GetBlock = 1,
    PutBlock = 2,
    ReplicaSync = 3,
    CacheGet = 4,
    CachePut = 5,
    ShuffleBatch = 6,
    Heartbeat = 7,
    TaskAssign = 8,
    RangeHandoff = 9,
    BlockPull = 10,
}

/// A request travelling node → node.
#[derive(Clone, Debug, PartialEq)]
pub enum Rpc {
    /// Read a block replica from the receiver's local store.
    GetBlock { block: BlockId },
    /// Write a block replica into the receiver's local store.
    PutBlock { block: BlockId, data: Bytes },
    /// Re-replication: the receiver (a surviving holder) pushes its copy
    /// of `block` to node `to`.
    ReplicaSync { block: BlockId, to: NodeId },
    /// iCache/oCache lookup on the receiver's shard.
    CacheGet { key: CacheKey },
    /// iCache/oCache insert on the receiver's shard, attributed to
    /// `tenant` for per-tenant quota accounting (0 = untagged). `pin`
    /// marks materialized epoch state the LRU must never evict.
    CachePut { key: CacheKey, data: Bytes, ttl: Option<f64>, tenant: u16, pin: bool },
    /// One shuffle batch: the complete output of `(task, attempt)` for
    /// `partition`, `seq`-numbered within the attempt for dedup.
    /// `epoch` scopes the batch to one wave of a continuous job (0 for
    /// batch jobs); receivers ack-drop batches from stale epochs.
    ShuffleBatch {
        task: u32,
        attempt: u32,
        seq: u32,
        epoch: u32,
        partition: u32,
        records: Vec<(String, String)>,
    },
    /// The executor's form of a shuffle batch: the same frame kind and
    /// body bytes as [`Rpc::ShuffleBatch`], with the records held as a
    /// key-sorted [`RecordRun`] instead of owned pairs.
    ShuffleRun { task: u32, attempt: u32, seq: u32, epoch: u32, partition: u32, run: RecordRun },
    /// Failure-detector ping, doubling as the map-progress carrier for
    /// speculative execution. `task == u32::MAX` is a pure liveness
    /// ping; otherwise `progress` is the sender's map progress for
    /// `task` in promille (0..=1000).
    Heartbeat { from: NodeId, clock: u64, task: u32, progress: u32 },
    /// Control plane: assign map task `task` (input block `block`) to
    /// the receiver.
    TaskAssign { task: u32, block: BlockId },
    /// Elastic membership: push one cache entry whose ring range was
    /// re-homed onto the receiver by a join or leave. Sent over the
    /// windowed one-way lane — a lost handoff is only a future miss.
    RangeHandoff { key: CacheKey, data: Bytes },
    /// Elastic membership: the receiver (the new ideal holder) pulls
    /// its missing replica of `block` from the holder `from` and
    /// stores it locally, answering `Synced` with the byte count.
    BlockPull { block: BlockId, from: NodeId },
}

/// A response travelling back.
#[derive(Clone, Debug, PartialEq)]
pub enum RpcReply {
    /// Generic success for messages with no payload to return.
    Ack,
    /// `GetBlock` result: the payload, or `None` when the receiver holds
    /// no copy.
    Block(Option<Bytes>),
    /// `CacheGet` result.
    CacheValue(Option<Bytes>),
    /// `ReplicaSync` succeeded; `bytes` were copied.
    Synced { bytes: u64 },
    /// `ReplicaSync` failed: the receiver holds no source copy.
    Missing,
    /// Handler-level failure, with a human-readable reason.
    Error(String),
}

impl Rpc {
    pub fn kind(&self) -> RpcKind {
        match self {
            Rpc::GetBlock { .. } => RpcKind::GetBlock,
            Rpc::PutBlock { .. } => RpcKind::PutBlock,
            Rpc::ReplicaSync { .. } => RpcKind::ReplicaSync,
            Rpc::CacheGet { .. } => RpcKind::CacheGet,
            Rpc::CachePut { .. } => RpcKind::CachePut,
            Rpc::ShuffleBatch { .. } | Rpc::ShuffleRun { .. } => RpcKind::ShuffleBatch,
            Rpc::Heartbeat { .. } => RpcKind::Heartbeat,
            Rpc::TaskAssign { .. } => RpcKind::TaskAssign,
            Rpc::RangeHandoff { .. } => RpcKind::RangeHandoff,
            Rpc::BlockPull { .. } => RpcKind::BlockPull,
        }
    }

    /// Serialize into a complete request frame (allocating). The hot
    /// paths use [`Rpc::encode_into`] with a reused scratch buffer.
    pub fn encode(&self, corr: u64) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(corr, &mut out);
        out
    }

    /// Serialize into `out` (cleared first): header and body are written
    /// in place, with no intermediate body buffer and no copy. In debug
    /// builds the finished frame is decoded and re-encoded to assert it
    /// round-trips to the very same bytes (a shuffle batch in the form
    /// it was sent in).
    pub fn encode_into(&self, corr: u64, out: &mut Vec<u8>) {
        self.encode_raw(corr, out);
        #[cfg(debug_assertions)]
        {
            let frame = wire::decode_frame(out).expect("encoded request frame must decode");
            let back = match self {
                Rpc::ShuffleBatch { .. } => Rpc::decode(&frame),
                _ => Rpc::decode_owned(frame),
            };
            let back = back.expect("encoded request body must decode");
            let mut again = Vec::new();
            back.encode_raw(corr, &mut again);
            debug_assert_eq!(&again, out, "request frame must round-trip to identical bytes");
        }
    }

    fn encode_raw(&self, corr: u64, out: &mut Vec<u8>) {
        let at = wire::begin_frame(out, Dir::Request, self.kind() as u8, corr);
        let mut w = Writer::new(out);
        match self {
            Rpc::GetBlock { block } => put_block_id(&mut w, *block),
            Rpc::PutBlock { block, data } => {
                put_block_id(&mut w, *block);
                w.bytes(data);
            }
            Rpc::ReplicaSync { block, to } => {
                put_block_id(&mut w, *block);
                w.u32(to.0);
            }
            Rpc::CacheGet { key } => put_cache_key(&mut w, key),
            Rpc::CachePut { key, data, ttl, tenant, pin } => {
                put_cache_key(&mut w, key);
                w.bytes(data);
                match ttl {
                    None => w.u8(0),
                    Some(t) => {
                        w.u8(1);
                        w.f64(*t);
                    }
                }
                w.u32(*tenant as u32);
                w.u8(u8::from(*pin));
            }
            Rpc::ShuffleBatch { task, attempt, seq, epoch, partition, records } => {
                w.u32(*task);
                w.u32(*attempt);
                w.u32(*seq);
                w.u32(*epoch);
                w.u32(*partition);
                // Shuffle records dominate wire bytes, so they get the
                // compact encoding: varint lengths, and keys front-coded
                // against their predecessor (combined spills arrive
                // sorted, so consecutive keys share long prefixes).
                w.varint(records.len() as u64);
                let mut prev: &[u8] = &[];
                for (k, v) in records {
                    let kb = k.as_bytes();
                    let shared = common_prefix(prev, kb);
                    w.varint(shared as u64);
                    w.vbytes(&kb[shared..]);
                    w.vbytes(v.as_bytes());
                    prev = kb;
                }
            }
            Rpc::ShuffleRun { task, attempt, seq, epoch, partition, run } => {
                w.u32(*task);
                w.u32(*attempt);
                w.u32(*seq);
                w.u32(*epoch);
                w.u32(*partition);
                run.encode(&mut w);
            }
            Rpc::Heartbeat { from, clock, task, progress } => {
                w.u32(from.0);
                w.u64(*clock);
                w.u32(*task);
                w.u32(*progress);
            }
            Rpc::TaskAssign { task, block } => {
                w.u32(*task);
                put_block_id(&mut w, *block);
            }
            Rpc::RangeHandoff { key, data } => {
                put_cache_key(&mut w, key);
                w.bytes(data);
            }
            Rpc::BlockPull { block, from } => {
                put_block_id(&mut w, *block);
                w.u32(from.0);
            }
        }
        wire::end_frame(out, at);
    }

    /// Decode a request, taking the frame by value: the transports'
    /// path. A kind-6 frame becomes [`Rpc::ShuffleRun`], whose run is
    /// decoded into columns in one walk of the body and validated here,
    /// freeing the frame body; every other kind decodes as
    /// [`Rpc::decode`].
    pub fn decode_owned(frame: Frame) -> Result<Rpc, CodecError> {
        if frame.dir != Dir::Request || frame.kind != RpcKind::ShuffleBatch as u8 {
            return Rpc::decode(&frame);
        }
        let mut r = Reader::new(&frame.body);
        let (task, attempt, seq) = (r.u32()?, r.u32()?, r.u32()?);
        let (epoch, partition) = (r.u32()?, r.u32()?);
        let at = r.position();
        let run = RecordRun::from_body(frame.body, at)?;
        Ok(Rpc::ShuffleRun { task, attempt, seq, epoch, partition, run })
    }

    /// Decode a request from a frame. Total: every malformed body maps
    /// to a [`CodecError`]. A kind-6 frame decodes as the owned
    /// [`Rpc::ShuffleBatch`], in any key order.
    pub fn decode(frame: &Frame) -> Result<Rpc, CodecError> {
        if frame.dir != Dir::Request {
            return Err(CodecError::BadKind { dir: frame.dir, kind: frame.kind });
        }
        let mut r = Reader::new(&frame.body);
        let rpc = match frame.kind {
            k if k == RpcKind::GetBlock as u8 => Rpc::GetBlock { block: get_block_id(&mut r)? },
            k if k == RpcKind::PutBlock as u8 => {
                let block = get_block_id(&mut r)?;
                let data = Bytes::copy_from_slice(r.bytes()?);
                Rpc::PutBlock { block, data }
            }
            k if k == RpcKind::ReplicaSync as u8 => {
                let block = get_block_id(&mut r)?;
                let to = NodeId(r.u32()?);
                Rpc::ReplicaSync { block, to }
            }
            k if k == RpcKind::CacheGet as u8 => Rpc::CacheGet { key: get_cache_key(&mut r)? },
            k if k == RpcKind::CachePut as u8 => {
                let key = get_cache_key(&mut r)?;
                let data = Bytes::copy_from_slice(r.bytes()?);
                let ttl = match r.u8()? {
                    0 => None,
                    1 => Some(r.f64()?),
                    t => return Err(CodecError::BadTag(t)),
                };
                let tenant =
                    u16::try_from(r.u32()?).map_err(|_| CodecError::FieldOverrun)?;
                let pin = match r.u8()? {
                    0 => false,
                    1 => true,
                    t => return Err(CodecError::BadTag(t)),
                };
                Rpc::CachePut { key, data, ttl, tenant, pin }
            }
            k if k == RpcKind::ShuffleBatch as u8 => {
                let task = r.u32()?;
                let attempt = r.u32()?;
                let seq = r.u32()?;
                let epoch = r.u32()?;
                let partition = r.u32()?;
                let n = usize::try_from(r.varint()?).map_err(|_| CodecError::FieldOverrun)?;
                // Cap pre-allocation: a corrupt count must not OOM.
                let mut records = Vec::with_capacity(n.min(64 * 1024));
                let mut prev: Vec<u8> = Vec::new();
                for _ in 0..n {
                    let shared = usize::try_from(r.varint()?)
                        .map_err(|_| CodecError::FieldOverrun)?;
                    if shared > prev.len() {
                        return Err(CodecError::FieldOverrun);
                    }
                    let suffix = r.vbytes()?;
                    prev.truncate(shared);
                    prev.extend_from_slice(suffix);
                    let key =
                        String::from_utf8(prev.clone()).map_err(|_| CodecError::BadUtf8)?;
                    let value = String::from_utf8(r.vbytes()?.to_vec())
                        .map_err(|_| CodecError::BadUtf8)?;
                    records.push((key, value));
                }
                Rpc::ShuffleBatch { task, attempt, seq, epoch, partition, records }
            }
            k if k == RpcKind::Heartbeat as u8 => {
                let from = NodeId(r.u32()?);
                let clock = r.u64()?;
                let task = r.u32()?;
                let progress = r.u32()?;
                Rpc::Heartbeat { from, clock, task, progress }
            }
            k if k == RpcKind::TaskAssign as u8 => {
                let task = r.u32()?;
                let block = get_block_id(&mut r)?;
                Rpc::TaskAssign { task, block }
            }
            k if k == RpcKind::RangeHandoff as u8 => {
                let key = get_cache_key(&mut r)?;
                let data = Bytes::copy_from_slice(r.bytes()?);
                Rpc::RangeHandoff { key, data }
            }
            k if k == RpcKind::BlockPull as u8 => {
                let block = get_block_id(&mut r)?;
                let from = NodeId(r.u32()?);
                Rpc::BlockPull { block, from }
            }
            kind => return Err(CodecError::BadKind { dir: frame.dir, kind }),
        };
        r.finish()?;
        Ok(rpc)
    }
}

/// Response message kinds (the `kind` byte of response frames).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum ReplyKind {
    Ack = 1,
    Block = 2,
    CacheValue = 3,
    Synced = 4,
    Missing = 5,
    Error = 6,
}

impl RpcReply {
    fn kind(&self) -> ReplyKind {
        match self {
            RpcReply::Ack => ReplyKind::Ack,
            RpcReply::Block(_) => ReplyKind::Block,
            RpcReply::CacheValue(_) => ReplyKind::CacheValue,
            RpcReply::Synced { .. } => ReplyKind::Synced,
            RpcReply::Missing => ReplyKind::Missing,
            RpcReply::Error(_) => ReplyKind::Error,
        }
    }

    /// Serialize into a complete response frame (allocating). The hot
    /// paths use [`RpcReply::encode_into`] with a reused scratch buffer.
    pub fn encode(&self, corr: u64) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(corr, &mut out);
        out
    }

    /// Serialize into `out` (cleared first), header and body in place.
    /// Debug builds assert the frame round-trips to identical bytes.
    pub fn encode_into(&self, corr: u64, out: &mut Vec<u8>) {
        self.encode_raw(corr, out);
        #[cfg(debug_assertions)]
        {
            let frame = wire::decode_frame(out).expect("encoded response frame must decode");
            let back = RpcReply::decode(&frame).expect("encoded response body must decode");
            let mut again = Vec::new();
            back.encode_raw(corr, &mut again);
            debug_assert_eq!(&again, out, "response frame must round-trip to identical bytes");
        }
    }

    fn encode_raw(&self, corr: u64, out: &mut Vec<u8>) {
        let at = wire::begin_frame(out, Dir::Response, self.kind() as u8, corr);
        let mut w = Writer::new(out);
        match self {
            RpcReply::Ack | RpcReply::Missing => {}
            RpcReply::Block(data) | RpcReply::CacheValue(data) => match data {
                None => w.u8(0),
                Some(d) => {
                    w.u8(1);
                    w.bytes(d);
                }
            },
            RpcReply::Synced { bytes } => w.u64(*bytes),
            RpcReply::Error(msg) => w.string(msg),
        }
        wire::end_frame(out, at);
    }

    /// Decode a response from a frame.
    pub fn decode(frame: &Frame) -> Result<RpcReply, CodecError> {
        if frame.dir != Dir::Response {
            return Err(CodecError::BadKind { dir: frame.dir, kind: frame.kind });
        }
        let mut r = Reader::new(&frame.body);
        let reply = match frame.kind {
            k if k == ReplyKind::Ack as u8 => RpcReply::Ack,
            k if k == ReplyKind::Missing as u8 => RpcReply::Missing,
            k if k == ReplyKind::Block as u8 => RpcReply::Block(get_opt_bytes(&mut r)?),
            k if k == ReplyKind::CacheValue as u8 => {
                RpcReply::CacheValue(get_opt_bytes(&mut r)?)
            }
            k if k == ReplyKind::Synced as u8 => RpcReply::Synced { bytes: r.u64()? },
            k if k == ReplyKind::Error as u8 => RpcReply::Error(r.string()?),
            kind => return Err(CodecError::BadKind { dir: frame.dir, kind }),
        };
        r.finish()?;
        Ok(reply)
    }
}

fn put_block_id(w: &mut Writer, id: BlockId) {
    w.u64(id.file.0);
    w.u64(id.index);
}

fn get_block_id(r: &mut Reader<'_>) -> Result<BlockId, CodecError> {
    let file = HashKey(r.u64()?);
    let index = r.u64()?;
    Ok(BlockId { file, index })
}

fn put_cache_key(w: &mut Writer, key: &CacheKey) {
    match key {
        CacheKey::Input(h) => {
            w.u8(0);
            w.u64(h.0);
        }
        CacheKey::Output(tag) => {
            w.u8(1);
            w.string(tag.app());
            w.string(tag.tag());
        }
    }
}

fn get_cache_key(r: &mut Reader<'_>) -> Result<CacheKey, CodecError> {
    match r.u8()? {
        0 => Ok(CacheKey::Input(HashKey(r.u64()?))),
        1 => {
            let app = r.string()?;
            let tag = r.string()?;
            Ok(CacheKey::Output(OutputTag::new(app, tag)))
        }
        t => Err(CodecError::BadTag(t)),
    }
}

fn get_opt_bytes(r: &mut Reader<'_>) -> Result<Option<Bytes>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(Bytes::copy_from_slice(r.bytes()?))),
        t => Err(CodecError::BadTag(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::decode_frame;

    fn roundtrip_rpc(rpc: Rpc) {
        let raw = rpc.encode(99);
        let frame = decode_frame(&raw).unwrap();
        assert_eq!(frame.corr, 99);
        assert_eq!(Rpc::decode(&frame).unwrap(), rpc);
    }

    fn roundtrip_reply(reply: RpcReply) {
        let raw = reply.encode(7);
        let frame = decode_frame(&raw).unwrap();
        assert_eq!(RpcReply::decode(&frame).unwrap(), reply);
    }

    fn bid(i: u64) -> BlockId {
        BlockId { file: HashKey(0xDEAD_BEEF), index: i }
    }

    #[test]
    fn every_request_roundtrips() {
        roundtrip_rpc(Rpc::GetBlock { block: bid(3) });
        roundtrip_rpc(Rpc::PutBlock { block: bid(1), data: Bytes::from(vec![1, 2, 3]) });
        roundtrip_rpc(Rpc::ReplicaSync { block: bid(2), to: NodeId(5) });
        roundtrip_rpc(Rpc::CacheGet { key: CacheKey::Input(HashKey(17)) });
        roundtrip_rpc(Rpc::CacheGet { key: CacheKey::Output(OutputTag::new("app", "t1")) });
        roundtrip_rpc(Rpc::CachePut {
            key: CacheKey::Input(HashKey(9)),
            data: Bytes::from(vec![0; 100]),
            ttl: Some(2.5),
            tenant: 0,
            pin: false,
        });
        roundtrip_rpc(Rpc::CachePut {
            key: CacheKey::Input(HashKey(10)),
            data: Bytes::new(),
            ttl: None,
            tenant: u16::MAX,
            pin: true,
        });
        roundtrip_rpc(Rpc::ShuffleBatch {
            task: 4,
            attempt: 1,
            seq: 2,
            epoch: 0,
            partition: 0,
            records: vec![("k".into(), "v".into()), ("".into(), "with space".into())],
        });
        roundtrip_rpc(Rpc::ShuffleBatch {
            task: 4,
            attempt: 0,
            seq: 0,
            epoch: u32::MAX,
            partition: 3,
            records: vec![],
        });
        roundtrip_rpc(Rpc::Heartbeat { from: NodeId(3), clock: u64::MAX, task: u32::MAX, progress: 0 });
        roundtrip_rpc(Rpc::Heartbeat { from: NodeId(3), clock: 0, task: 12, progress: 640 });
        roundtrip_rpc(Rpc::TaskAssign { task: 77, block: bid(0) });
        roundtrip_rpc(Rpc::RangeHandoff {
            key: CacheKey::Output(OutputTag::new("app", "t2")),
            data: Bytes::from(vec![7; 33]),
        });
        roundtrip_rpc(Rpc::RangeHandoff {
            key: CacheKey::Input(HashKey(21)),
            data: Bytes::new(),
        });
        roundtrip_rpc(Rpc::BlockPull { block: bid(6), from: NodeId(4) });
    }

    #[test]
    fn shuffle_run_shares_the_batch_frame() {
        let records: Vec<(String, String)> =
            vec![("".into(), "e".into()), ("ab".into(), "1".into()), ("abc".into(), "".into())];
        let run = RecordRun::from_pairs(&records);
        let as_run = Rpc::ShuffleRun { task: 4, attempt: 1, seq: 2, epoch: 3, partition: 5, run };
        let as_batch =
            Rpc::ShuffleBatch { task: 4, attempt: 1, seq: 2, epoch: 3, partition: 5, records };
        assert_eq!(as_run.kind(), RpcKind::ShuffleBatch);
        let raw = as_run.encode(11);
        assert_eq!(raw, as_batch.encode(11), "same body bytes");
        let frame = decode_frame(&raw).unwrap();
        assert_eq!(Rpc::decode(&frame).unwrap(), as_batch);
        assert_eq!(Rpc::decode_owned(frame).unwrap(), as_run);
        // Other kinds decode alike by value and by reference.
        let raw = Rpc::TaskAssign { task: 1, block: bid(2) }.encode(3);
        let frame = decode_frame(&raw).unwrap();
        assert_eq!(Rpc::decode_owned(frame.clone()).unwrap(), Rpc::decode(&frame).unwrap());
    }

    #[test]
    fn every_reply_roundtrips() {
        roundtrip_reply(RpcReply::Ack);
        roundtrip_reply(RpcReply::Block(None));
        roundtrip_reply(RpcReply::Block(Some(Bytes::from(vec![9; 64]))));
        roundtrip_reply(RpcReply::CacheValue(Some(Bytes::new())));
        roundtrip_reply(RpcReply::Synced { bytes: 1 << 40 });
        roundtrip_reply(RpcReply::Missing);
        roundtrip_reply(RpcReply::Error("source gone".into()));
    }

    #[test]
    fn request_reply_direction_enforced() {
        let raw = Rpc::GetBlock { block: bid(0) }.encode(1);
        let frame = decode_frame(&raw).unwrap();
        assert!(matches!(RpcReply::decode(&frame), Err(CodecError::BadKind { .. })));
        let raw = RpcReply::Ack.encode(1);
        let frame = decode_frame(&raw).unwrap();
        assert!(matches!(Rpc::decode(&frame), Err(CodecError::BadKind { .. })));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut raw =
            Rpc::Heartbeat { from: NodeId(0), clock: 1, task: u32::MAX, progress: 0 }.encode(1);
        // Grow the body by one byte and fix up the length prefix.
        raw.push(0xFF);
        let len = (raw.len() - wire::HEADER_LEN) as u32;
        raw[12..16].copy_from_slice(&len.to_le_bytes());
        let frame = decode_frame(&raw).unwrap();
        assert!(matches!(Rpc::decode(&frame), Err(CodecError::Trailing(1))));
    }
}
