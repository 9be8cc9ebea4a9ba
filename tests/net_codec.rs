//! Property suite for the transport plane's wire codec (satellite of
//! the PR 3 transport tentpole).
//!
//! Two families of properties:
//!
//! 1. **Round trip**: any sequence of RPC messages, encoded to frames,
//!    concatenated, and re-split at arbitrary byte boundaries, decodes
//!    through [`FrameDecoder`] to exactly the original messages with
//!    their correlation ids intact — TCP gives no message framing, so
//!    the streaming decoder must be boundary-blind.
//! 2. **Totality**: truncated, bit-flipped, or outright random input
//!    produces a typed [`CodecError`] (or a valid message, for lucky
//!    flips in payload bytes) — never a panic, never an out-of-range
//!    read, never an unbounded allocation from a corrupt length field.
//! 3. **Record runs**: a shuffle frame (kind 6) decodes two ways — as
//!    owned pairs ([`Rpc::decode`]) and, on the transports' by-value
//!    path ([`Rpc::decode_owned`]), as a validated sorted
//!    [`RecordRun`]. Both agree on every frame; a malformed run is a
//!    typed error, an endpoint answers it with [`RpcReply::Error`], and
//!    a job whose shuffle frame is corrupted re-executes the attempt.
//!    Each run property also runs on duplicate-heavy runs over a tiny
//!    key alphabet, where the codec's repeated-key paths do the work;
//!    [`merge_groups`] is checked against a stable sort-and-group, also
//!    on keys that share their first eight bytes; one duplicate-heavy
//!    frame is pinned byte for byte; and the columnar decoder agrees
//!    with the front-coded validator it replaced on every truncation and
//!    byte flip of a run's body.

use bytes::Bytes;
use eclipse_cache::{CacheKey, OutputTag};
use eclipse_core::net::wire::{self, CodecError, Dir, FrameDecoder, HEADER_LEN, MAX_BODY};
use eclipse_core::net::{
    merge_groups, Demux, RecordRun, Rpc, RpcKind, RpcReply, TcpTransport, Transport, CLIENT,
};
use eclipse_dhtfs::BlockId;
use eclipse_ring::NodeId;
use eclipse_util::HashKey;
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// A message of either direction, so one stream mixes requests and
/// responses the way a real duplex connection does.
#[derive(Clone, Debug, PartialEq)]
enum Msg {
    Req(Rpc),
    Reply(RpcReply),
}

impl Msg {
    fn encode(&self, corr: u64) -> Vec<u8> {
        match self {
            Msg::Req(r) => r.encode(corr),
            Msg::Reply(r) => r.encode(corr),
        }
    }
}

/// Arbitrary string including multi-byte UTF-8 (the shim's pattern
/// strategies are ASCII-only, so build from raw code points).
fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..0x11_0000, 0..12)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

fn arb_block() -> impl Strategy<Value = BlockId> {
    (0u64..=u64::MAX, 0u64..4096)
        .prop_map(|(f, i)| BlockId { file: HashKey(f), index: i })
}

fn arb_bytes() -> impl Strategy<Value = Bytes> {
    prop::collection::vec(0u8..=255, 0..200).prop_map(Bytes::from)
}

fn arb_cache_key() -> impl Strategy<Value = CacheKey> {
    prop_oneof![
        (0u64..=u64::MAX).prop_map(|h| CacheKey::Input(HashKey(h))),
        ("[a-z]{0,8}", "[a-z0-9]{0,8}")
            .prop_map(|(app, tag)| CacheKey::Output(OutputTag::new(app, tag))),
    ]
}

fn arb_rpc() -> impl Strategy<Value = Rpc> {
    prop_oneof![
        arb_block().prop_map(|block| Rpc::GetBlock { block }),
        (arb_block(), arb_bytes()).prop_map(|(block, data)| Rpc::PutBlock { block, data }),
        (arb_block(), 0u32..64)
            .prop_map(|(block, to)| Rpc::ReplicaSync { block, to: NodeId(to) }),
        arb_cache_key().prop_map(|key| Rpc::CacheGet { key }),
        (arb_cache_key(), arb_bytes(), prop_oneof![
            Just(None),
            (0.0f64..1e6).prop_map(Some),
        ], 0u16..=u16::MAX, any::<bool>())
        .prop_map(|(key, data, ttl, tenant, pin)| Rpc::CachePut { key, data, ttl, tenant, pin }),
        (
            (0u32..=u32::MAX, 0u32..8, 0u32..1000),
            (0u32..16, 0u32..32),
            prop::collection::vec((arb_string(), arb_string()), 0..10),
        )
            .prop_map(|((task, attempt, seq), (epoch, partition), records)| {
                Rpc::ShuffleBatch { task, attempt, seq, epoch, partition, records }
            }),
        (0u32..=u32::MAX, 0u64..=u64::MAX, 0u32..=u32::MAX, 0u32..=1000u32).prop_map(
            |(from, clock, task, progress)| Rpc::Heartbeat {
                from: NodeId(from),
                clock,
                task,
                progress,
            },
        ),
        (0u32..=u32::MAX, arb_block()).prop_map(|(task, block)| Rpc::TaskAssign { task, block }),
    ]
}

fn arb_reply() -> impl Strategy<Value = RpcReply> {
    prop_oneof![
        Just(RpcReply::Ack),
        Just(RpcReply::Missing),
        Just(RpcReply::Block(None)),
        arb_bytes().prop_map(|b| RpcReply::Block(Some(b))),
        Just(RpcReply::CacheValue(None)),
        arb_bytes().prop_map(|b| RpcReply::CacheValue(Some(b))),
        (0u64..=u64::MAX).prop_map(|bytes| RpcReply::Synced { bytes }),
        arb_string().prop_map(RpcReply::Error),
    ]
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![arb_rpc().prop_map(Msg::Req), arb_reply().prop_map(Msg::Reply)]
}

/// Decode one frame back into a [`Msg`] by direction.
fn decode_msg(frame: &wire::Frame) -> Result<Msg, CodecError> {
    match frame.dir {
        Dir::Request => Rpc::decode(frame).map(Msg::Req),
        Dir::Response => RpcReply::decode(frame).map(Msg::Reply),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any message stream survives encode → concatenate → arbitrary
    /// re-chunking → streaming decode, bit-for-bit, ids and all.
    #[test]
    fn stream_roundtrips_across_arbitrary_boundaries(
        msgs in prop::collection::vec((arb_msg(), 0u64..=u64::MAX), 1..8),
        chunks in prop::collection::vec(1usize..23, 1..40),
    ) {
        let mut stream = Vec::new();
        for (msg, corr) in &msgs {
            stream.extend_from_slice(&msg.encode(*corr));
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        let mut at = 0usize;
        let mut ci = 0usize;
        while at < stream.len() {
            let n = chunks[ci % chunks.len()].min(stream.len() - at);
            ci += 1;
            dec.feed(&stream[at..at + n]);
            at += n;
            while let Some(frame) = dec.next_frame().unwrap() {
                got.push((decode_msg(&frame).unwrap(), frame.corr));
            }
        }
        prop_assert_eq!(got, msgs);
        prop_assert_eq!(dec.pending(), 0, "no bytes may linger after the last frame");
    }

    /// Every strict prefix of a valid frame is `Truncated` under strict
    /// decode — for every cut point, not just lucky ones.
    #[test]
    fn every_truncation_is_typed(msg in arb_msg(), corr in 0u64..=u64::MAX) {
        let raw = msg.encode(corr);
        for cut in 0..raw.len() {
            prop_assert_eq!(
                wire::decode_frame(&raw[..cut]).unwrap_err(),
                CodecError::Truncated,
                "cut at {} of {}", cut, raw.len()
            );
        }
    }

    /// Flipping any single byte never panics: the result is either a
    /// typed error or a (different) well-formed message. Header flips
    /// get sharper assertions.
    #[test]
    fn single_byte_corruption_never_panics(
        msg in arb_msg(),
        corr in 0u64..=u64::MAX,
        pos_seed in 0usize..=usize::MAX,
        flip in 1u8..=255,
    ) {
        let mut raw = msg.encode(corr);
        let pos = pos_seed % raw.len();
        raw[pos] ^= flip;
        match wire::decode_frame(&raw) {
            Err(_) => {} // typed error: fine
            Ok(frame) => {
                // Frame header survived; body decode must still be total.
                let _ = decode_msg(&frame);
            }
        }
        // Sharper checks where the meaning of the byte is fixed:
        if pos < 2 {
            prop_assert!(
                matches!(wire::decode_frame(&raw), Err(CodecError::BadMagic(_))),
                "magic flip must be BadMagic"
            );
        }
        if pos == 2 && raw[2] > 1 {
            prop_assert!(
                matches!(wire::decode_frame(&raw), Err(CodecError::BadDir(_))),
                "direction byte {} must be BadDir", raw[2]
            );
        }
    }

    /// Random byte soup through the streaming decoder: never a panic,
    /// and after the first error the caller drops the connection (we
    /// just stop feeding).
    #[test]
    fn random_bytes_never_panic_the_streaming_decoder(
        soup in prop::collection::vec(0u8..=255, 0..400),
        chunks in prop::collection::vec(1usize..17, 1..20),
    ) {
        let mut dec = FrameDecoder::new();
        let mut at = 0usize;
        let mut ci = 0usize;
        'outer: while at < soup.len() {
            let n = chunks[ci % chunks.len()].min(soup.len() - at);
            ci += 1;
            dec.feed(&soup[at..at + n]);
            at += n;
            loop {
                match dec.next_frame() {
                    Ok(Some(frame)) => { let _ = decode_msg(&frame); }
                    Ok(None) => break,
                    Err(_) => break 'outer, // typed; connection would drop here
                }
            }
        }
    }

    /// Pipelined-wire-path property: one reader thread settles replies
    /// in arbitrary order across correlation ids, and every caller must
    /// receive exactly the reply bearing its own corr — no swap, no
    /// loss, no leftover slot.
    #[test]
    fn demux_routes_interleaved_replies_by_correlation_id(
        n in 1usize..16,
        seed in prop::collection::vec(0u64..=u64::MAX, 16),
    ) {
        let d = Demux::new();
        let corrs: Vec<u64> = (0..n).map(|i| 0x1000 + i as u64).collect();
        for &c in &corrs {
            d.register(c);
        }
        // Settle in a seed-derived permutation — the reorderings many
        // concurrent in-flight requests on one connection can produce.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (seed[i], i));
        for &i in &order {
            prop_assert!(
                d.settle(corrs[i], Ok(RpcReply::Synced { bytes: corrs[i] })),
                "a registered corr must claim its reply"
            );
        }
        // A reply for an unregistered corr is stale: dropped, never
        // misrouted to some other waiter.
        prop_assert!(!d.settle(0xdead_beef, Ok(RpcReply::Ack)));
        for &c in &corrs {
            let got = d.wait(c, Instant::now() + Duration::from_secs(1));
            prop_assert_eq!(got, Some(Ok(RpcReply::Synced { bytes: c })));
        }
        prop_assert_eq!(d.pending(), 0, "every slot must be redeemed");
    }

    /// A corrupt length prefix beyond [`MAX_BODY`] is rejected up front —
    /// the decoder must not buffer toward a bogus multi-gigabyte frame.
    #[test]
    fn oversize_length_rejected_before_buffering(
        msg in arb_msg(),
        over in (MAX_BODY as u64 + 1)..=(u32::MAX as u64),
    ) {
        let mut raw = msg.encode(1);
        raw[12..16].copy_from_slice(&(over as u32).to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.feed(&raw[..HEADER_LEN]);
        prop_assert_eq!(dec.next_frame().unwrap_err(), CodecError::Oversize(over));
    }
}

// ---- deterministic corruption probes (fixed malformed bodies) --------

/// Re-frame `body` as a request of `kind` so body-level corruption can
/// be aimed precisely.
fn frame_request(kind: u8, body: &[u8]) -> wire::Frame {
    let raw = wire::encode_frame(Dir::Request, kind, 7, body);
    wire::decode_frame(&raw).unwrap()
}

#[test]
fn corrupt_shuffle_record_count_is_overrun_not_oom() {
    let rpc = Rpc::ShuffleBatch {
        task: 1,
        attempt: 0,
        seq: 0,
        epoch: 0,
        partition: 0,
        records: vec![("k".into(), "v".into())],
    };
    let raw = rpc.encode(7);
    let frame = wire::decode_frame(&raw).unwrap();
    let mut body = frame.body.clone();
    // The record count sits after task/attempt/seq/epoch/partition
    // (5 × u32).
    body[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
    let bad = frame_request(frame.kind, &body);
    assert_eq!(Rpc::decode(&bad).unwrap_err(), CodecError::FieldOverrun);
}

#[test]
fn non_utf8_string_field_is_typed() {
    let rpc = Rpc::CacheGet { key: CacheKey::Output(OutputTag::new("app", "tag")) };
    let raw = rpc.encode(7);
    let frame = wire::decode_frame(&raw).unwrap();
    let mut body = frame.body.clone();
    // Body: tag byte (1) + len("app") prefix (4) + "app"; smash the 'a'
    // with a lone continuation byte.
    body[5] = 0xFF;
    let bad = frame_request(frame.kind, &body);
    assert_eq!(Rpc::decode(&bad).unwrap_err(), CodecError::BadUtf8);
}

#[test]
fn unknown_option_tag_is_typed() {
    let rpc = Rpc::CachePut {
        key: CacheKey::Input(HashKey(9)),
        data: Bytes::from_static(b"x"),
        ttl: None,
        tenant: 0,
        pin: false,
    };
    let raw = rpc.encode(7);
    let frame = wire::decode_frame(&raw).unwrap();
    let mut body = frame.body.clone();
    // The ttl option tag sits just before the trailing 4-byte tenant
    // field and 1-byte pin flag: only 0 and 1 mean anything.
    let tag_at = body.len() - 6;
    body[tag_at] = 9;
    let bad = frame_request(frame.kind, &body);
    assert_eq!(Rpc::decode(&bad).unwrap_err(), CodecError::BadTag(9));
}

#[test]
fn cache_put_tenant_overflow_is_typed() {
    // A tenant field above u16::MAX cannot come from our encoder; the
    // decoder rejects it rather than silently truncating.
    let rpc = Rpc::CachePut {
        key: CacheKey::Input(HashKey(9)),
        data: Bytes::from_static(b"x"),
        ttl: None,
        tenant: 0,
        pin: false,
    };
    let raw = rpc.encode(7);
    let frame = wire::decode_frame(&raw).unwrap();
    let mut body = frame.body.clone();
    // High byte of the little-endian tenant u32 (the pin flag is the
    // final byte).
    let hi = body.len() - 2;
    body[hi] = 0xFF;
    let bad = frame_request(frame.kind, &body);
    assert_eq!(Rpc::decode(&bad).unwrap_err(), CodecError::FieldOverrun);
}

#[test]
fn cache_put_pin_flag_tag_is_typed() {
    // The trailing pin flag is a 0/1 tag like ttl's: anything else is
    // a typed decode error, not a silent truthy cast.
    let rpc = Rpc::CachePut {
        key: CacheKey::Input(HashKey(9)),
        data: Bytes::from_static(b"x"),
        ttl: None,
        tenant: 0,
        pin: true,
    };
    let raw = rpc.encode(7);
    let frame = wire::decode_frame(&raw).unwrap();
    let mut body = frame.body.clone();
    let last = body.len() - 1;
    body[last] = 7;
    let bad = frame_request(frame.kind, &body);
    assert_eq!(Rpc::decode(&bad).unwrap_err(), CodecError::BadTag(7));
}

#[test]
fn unknown_kind_byte_is_typed_both_directions() {
    let f = frame_request(200, b"");
    assert!(matches!(Rpc::decode(&f), Err(CodecError::BadKind { .. })));
    let raw = wire::encode_frame(Dir::Response, 200, 7, b"");
    let f = wire::decode_frame(&raw).unwrap();
    assert!(matches!(RpcReply::decode(&f), Err(CodecError::BadKind { .. })));
}

/// A kind-6 body: the five header `u32`s, then a raw run section.
fn shuffle_body(run_section: &[u8]) -> Vec<u8> {
    let mut body = vec![0u8; 20];
    body.extend_from_slice(run_section);
    body
}

fn sorted(mut pairs: Vec<(String, String)>) -> Vec<(String, String)> {
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    pairs
}

/// Keys over a tiny alphabet, so runs repeat keys and share prefixes:
/// `""`, `"a"`, `"a\0"` (a NUL the spill sort's zero-padded prefix
/// cannot tell from the key's end), and `"é"`/`"ê"`, whose shared
/// prefix ends inside a code point.
fn arb_dup_key() -> impl Strategy<Value = String> {
    prop_oneof![Just(""), Just("a"), Just("a\0"), Just("é"), Just("ê")].prop_map(String::from)
}

/// Keys around the merge's 8-byte prefix: 7-, 8-, 9- and 16-byte keys
/// that share their first bytes, so only their lengths or the bytes
/// past the prefix order them (`"abcdefg"` and `"abcdefg\0"` have the
/// same zero-padded prefix), plus `"a"`/`"a\0"`.
fn arb_long_key() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("a"),
        Just("a\0"),
        Just("abcdefg"),
        Just("abcdefg\0"),
        Just("abcdefgh"),
        Just("abcdefgh\0"),
        Just("abcdefghi"),
        Just("abcdefghé"),
        Just("abcdefghabcdefgh"),
        Just("abcdefghabcdefgi"),
    ]
    .prop_map(String::from)
}

fn arb_value() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("1".to_string()),
        arb_string(),
        (128usize..300).prop_map(|n| "v".repeat(n)),
    ]
}

/// Duplicate-heavy records: tiny-alphabet keys, short values (some
/// empty, some past a one-byte length).
fn arb_dup_pairs(max: usize) -> impl Strategy<Value = Vec<(String, String)>> {
    prop::collection::vec((arb_dup_key(), arb_value()), 0..max)
}

/// Records over the long-key alphabet.
fn arb_long_pairs(max: usize) -> impl Strategy<Value = Vec<(String, String)>> {
    prop::collection::vec((arb_long_key(), arb_value()), 0..max)
}

/// Any sorted run round-trips: by value as the same run, by reference
/// as the same pairs in key order.
fn check_run_roundtrip(ids: (u32, u32, u32, u32, u32), pairs: &[(String, String)], corr: u64) {
    let (task, attempt, seq, epoch, partition) = ids;
    let run = RecordRun::from_pairs(pairs);
    let records = sorted(pairs.to_vec());
    assert_eq!(run.to_pairs(), records);
    let rpc = Rpc::ShuffleRun { task, attempt, seq, epoch, partition, run };
    let raw = rpc.encode(corr);
    let batch = Rpc::ShuffleBatch { task, attempt, seq, epoch, partition, records };
    assert_eq!(raw, batch.encode(corr), "a run's frame is the owned encoder's frame");
    let frame = wire::decode_frame(&raw).unwrap();
    assert_eq!(Rpc::decode(&frame).unwrap(), batch);
    assert_eq!(Rpc::decode_owned(frame).unwrap(), rpc);
}

/// Every kind-6 frame, in any key order: the run decoder yields exactly
/// the owned decoder's pairs, or rejects the frame as unsorted exactly
/// when its keys decrease.
fn check_decoders_agree(records: Vec<(String, String)>) {
    let rpc = Rpc::ShuffleBatch { task: 1, attempt: 0, seq: 0, epoch: 0, partition: 0, records };
    let frame = wire::decode_frame(&rpc.encode(5)).unwrap();
    let Rpc::ShuffleBatch { records, .. } = Rpc::decode(&frame).unwrap() else {
        panic!("kind 6 decodes as a batch by reference");
    };
    let ordered = records.windows(2).all(|w| w[0].0 <= w[1].0);
    match Rpc::decode_owned(frame) {
        Ok(Rpc::ShuffleRun { run, .. }) => {
            assert!(ordered);
            assert_eq!(run.to_pairs(), records);
        }
        Err(e) => {
            assert!(!ordered);
            assert_eq!(e, CodecError::Unsorted);
        }
        Ok(other) => panic!("kind 6 decoded as {other:?}"),
    }
}

/// Every truncation of a run body is a typed error, and a single-byte
/// corruption either fails typed or decodes — by value and by
/// reference to the same pairs.
fn check_run_truncation_and_corruption(pairs: &[(String, String)], at: usize, flip: u8) {
    let rpc = Rpc::ShuffleRun {
        task: 3,
        attempt: 1,
        seq: 2,
        epoch: 0,
        partition: 1,
        run: RecordRun::from_pairs(pairs),
    };
    let body = wire::decode_frame(&rpc.encode(9)).unwrap().body;
    for cut in 0..body.len() {
        assert!(Rpc::decode_owned(frame_request(6, &body[..cut])).is_err(), "cut {cut}");
    }
    let mut bad = body.clone();
    bad[at % body.len()] ^= flip;
    let owned = Rpc::decode(&frame_request(6, &bad));
    match Rpc::decode_owned(frame_request(6, &bad)) {
        Ok(Rpc::ShuffleRun { run, .. }) => match owned {
            Ok(Rpc::ShuffleBatch { records, .. }) => assert_eq!(run.to_pairs(), records),
            other => panic!("run decoded but owned form gave {other:?}"),
        },
        Ok(other) => panic!("kind 6 decoded as {other:?}"),
        Err(_) => {}
    }
}

/// `merge_groups` against the naive oracle: every run's records in run
/// order, stably sorted by key, cut into groups of equal keys.
fn check_merge_groups(runs: &[Vec<(String, String)>]) {
    let runs: Vec<RecordRun> = runs.iter().map(|p| RecordRun::from_pairs(p)).collect();
    let mut all: Vec<(String, String)> = runs.iter().flat_map(RecordRun::to_pairs).collect();
    all.sort_by(|a, b| a.0.cmp(&b.0));
    let mut want: Vec<(String, Vec<String>)> = Vec::new();
    for (k, v) in all {
        match want.last_mut() {
            Some((last, vs)) if *last == k => vs.push(v),
            _ => want.push((k, vec![v])),
        }
    }
    let mut got = Vec::new();
    merge_groups(&runs, |k, vs| {
        got.push((k.to_string(), vs.iter().map(|v| v.to_string()).collect()))
    });
    assert_eq!(got, want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sorted_runs_roundtrip_through_both_decoders(
        ids in ((0u32..=u32::MAX, 0u32..8, 0u32..1000), (0u32..16, 0u32..32)),
        pairs in prop::collection::vec((arb_string(), arb_string()), 0..24),
        corr in 0u64..=u64::MAX,
    ) {
        let ((task, attempt, seq), (epoch, partition)) = ids;
        check_run_roundtrip((task, attempt, seq, epoch, partition), &pairs, corr);
    }

    #[test]
    fn owned_and_run_decoders_agree_on_every_batch(
        records in prop::collection::vec((arb_string(), arb_string()), 0..16),
    ) {
        check_decoders_agree(records);
    }

    #[test]
    fn run_truncation_and_corruption_are_typed(
        pairs in prop::collection::vec((arb_string(), arb_string()), 0..12),
        at in 0usize..100_000,
        flip in 1u8..=255,
    ) {
        check_run_truncation_and_corruption(&pairs, at, flip);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The same three properties on duplicate-heavy runs, where most
    /// records repeat their predecessor's key.
    #[test]
    fn duplicate_key_runs_roundtrip_through_both_decoders(
        pairs in arb_dup_pairs(32),
        corr in 0u64..=u64::MAX,
    ) {
        check_run_roundtrip((7, 1, 2, 3, 4), &pairs, corr);
    }

    #[test]
    fn owned_and_run_decoders_agree_on_duplicate_key_batches(records in arb_dup_pairs(16)) {
        check_decoders_agree(records);
    }

    #[test]
    fn duplicate_key_run_truncation_and_corruption_are_typed(
        pairs in arb_dup_pairs(12),
        at in 0usize..100_000,
        flip in 1u8..=255,
    ) {
        check_run_truncation_and_corruption(&pairs, at, flip);
    }

    /// `merge_groups` equals a stable sort-and-group of its runs, on
    /// duplicate-heavy runs and on runs of arbitrary strings.
    #[test]
    fn merge_groups_equals_a_stable_sort_and_group(
        runs in prop::collection::vec(arb_dup_pairs(12), 0..12),
        wide in prop::collection::vec(
            prop::collection::vec((arb_string(), arb_string()), 0..6), 0..4),
        long in prop::collection::vec(arb_long_pairs(12), 0..6),
    ) {
        check_merge_groups(&runs);
        check_merge_groups(&wide);
        check_merge_groups(&long);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `RecordRun::from_body` decodes exactly what the front-coded
    /// validator it replaced accepts, and fails with that validator's
    /// error: on valid runs behind a header, and on every truncation
    /// and every byte flip of their bodies. These bodies are far too
    /// small to reach the key column's `MAX_BODY` cap, which the model
    /// does not have.
    #[test]
    fn from_body_agrees_with_the_front_coded_model(
        pairs in prop_oneof![
            arb_dup_pairs(12),
            arb_long_pairs(12),
            prop::collection::vec((arb_string(), arb_string()), 0..8),
        ],
        header in 0usize..4,
        flip in 1u8..=255,
    ) {
        let run = RecordRun::from_pairs(&pairs);
        let mut body = vec![0xa5; header];
        run.encode(&mut wire::Writer::new(&mut body));
        let agree = |body: &[u8]| {
            let got = RecordRun::from_body(body.to_vec(), header).map(|r| r.to_pairs());
            assert_eq!(got, model_from_body(body, header), "body {body:?}");
        };
        prop_assert_eq!(model_from_body(&body, header), Ok(run.to_pairs()));
        agree(&body);
        for cut in 0..body.len() {
            agree(&body[..cut]);
        }
        for i in 0..body.len() {
            for f in [flip, 0x01, 0x80, 0xff] {
                let mut bad = body.clone();
                bad[i] ^= f;
                agree(&bad);
            }
        }
    }
}

/// The run validator `RecordRun::from_body` replaced, kept as the
/// model: one pass over the front-coded section from byte `at`, holding
/// only the previous key. Returns the records, or the first error in
/// record order.
fn model_from_body(body: &[u8], at: usize) -> Result<Vec<(String, String)>, CodecError> {
    let rest = body.get(at..).ok_or(CodecError::FieldOverrun)?;
    let mut r = wire::Reader::new(rest);
    let len = usize::try_from(r.varint()?).map_err(|_| CodecError::FieldOverrun)?;
    let mut records = Vec::new();
    // The previous key, rebuilt in place record by record.
    let mut prev = Vec::new();
    for _ in 0..len {
        let shared = usize::try_from(r.varint()?).map_err(|_| CodecError::FieldOverrun)?;
        if shared > prev.len() {
            return Err(CodecError::FieldOverrun);
        }
        let suffix = r.vbytes()?;
        // A repeated key (the whole previous key shared, no suffix)
        // is as valid and as sorted as its predecessor.
        let mut sorted = true;
        if !(suffix.is_empty() && shared == prev.len()) {
            // The new key is `prev[..shared] + suffix`, so it sorts
            // below `prev` exactly when `suffix` sorts below the tail
            // it replaces.
            sorted = suffix >= &prev[shared..];
            // `prev` is UTF-8: only the bytes from the last character
            // boundary at or before `shared` need checking.
            let mut from = shared;
            while from > 0 && from < prev.len() && prev[from] & 0xc0 == 0x80 {
                from -= 1;
            }
            prev.truncate(shared);
            prev.extend_from_slice(suffix);
            std::str::from_utf8(&prev[from..]).map_err(|_| CodecError::BadUtf8)?;
        }
        let value = std::str::from_utf8(r.vbytes()?).map_err(|_| CodecError::BadUtf8)?;
        if !sorted {
            return Err(CodecError::Unsorted);
        }
        let key = String::from_utf8(prev.clone()).expect("checked above");
        records.push((key, value.to_string()));
    }
    r.finish()?;
    Ok(records)
}

/// The exact frame of a duplicate-heavy run, byte for byte: a repeated
/// key is `varint(len), 0, value`, a length past 127 takes two varint
/// bytes, and the `é`/`ê` neighbours share one byte of a code point.
#[test]
fn duplicate_heavy_run_frame_is_pinned() {
    let long = "v".repeat(130);
    let pairs = [
        ("ê", "2"),
        ("a", "1"),
        ("", "e"),
        ("ab", "x"),
        ("a", "2"),
        ("é", "1"),
        ("", "f"),
        ("ab", "y"),
        ("a", ""),
        ("ê", "3"),
        ("ê", long.as_str()),
    ];
    let run = RecordRun::from_pairs(&pairs);
    let mut section: Vec<u8> = vec![
        0x0b, // 11 records
        0x00, 0x00, 0x01, b'e', // ""   "e"
        0x00, 0x00, 0x01, b'f', // ""   "f"  (repeat of the empty key)
        0x00, 0x01, b'a', 0x01, b'1', // "a"  "1"
        0x01, 0x00, 0x01, b'2', // "a"  "2"  (repeat)
        0x01, 0x00, 0x00, // "a"  ""   (repeat, empty value)
        0x01, 0x01, b'b', 0x01, b'x', // "ab" "x"
        0x02, 0x00, 0x01, b'y', // "ab" "y"  (repeat)
        0x00, 0x02, 0xc3, 0xa9, 0x01, b'1', // "é"  "1"
        0x01, 0x01, 0xaa, 0x01, b'2', // "ê"  "2"  (shares 0xc3)
        0x02, 0x00, 0x01, b'3', // "ê"  "3"  (repeat)
        0x02, 0x00, 0x82, 0x01, // "ê"  130 × "v" (repeat)
    ];
    section.extend_from_slice(long.as_bytes());
    assert_eq!(run.len(), 11);
    let mut encoded = Vec::new();
    run.encode(&mut wire::Writer::new(&mut encoded));
    assert_eq!(encoded, section);
    let mut body = Vec::new();
    for id in [1u32, 2, 3, 4, 5] {
        body.extend_from_slice(&id.to_le_bytes());
    }
    body.extend_from_slice(&section);
    let frame = wire::encode_frame(Dir::Request, 6, 77, &body);
    let rpc = Rpc::ShuffleRun { task: 1, attempt: 2, seq: 3, epoch: 4, partition: 5, run };
    assert_eq!(rpc.encode(77), frame);
    let records = sorted(pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect());
    let batch = Rpc::ShuffleBatch { task: 1, attempt: 2, seq: 3, epoch: 4, partition: 5, records };
    assert_eq!(batch.encode(77), frame, "the owned encoder writes the same bytes");
    assert_eq!(Rpc::decode_owned(wire::decode_frame(&frame).unwrap()).unwrap(), rpc);
}

#[test]
fn run_validation_rejects_each_malformation() {
    let rec = |w: &mut wire::Writer, shared: u64, suffix: &[u8], value: &[u8]| {
        w.varint(shared);
        w.vbytes(suffix);
        w.vbytes(value);
    };
    let body = |records: &dyn Fn(&mut wire::Writer)| {
        let mut section = Vec::new();
        records(&mut wire::Writer::new(&mut section));
        frame_request(6, &shuffle_body(&section))
    };
    // Keys decrease: "b" then "a".
    let unsorted = body(&|w| {
        w.varint(2);
        rec(w, 0, b"b", b"1");
        rec(w, 0, b"a", b"1");
    });
    assert_eq!(Rpc::decode_owned(unsorted.clone()).unwrap_err(), CodecError::Unsorted);
    assert!(Rpc::decode(&unsorted).is_ok(), "the owned form takes any order");
    // Shared prefix longer than the previous key.
    let overlong = body(&|w| {
        w.varint(2);
        rec(w, 0, b"ab", b"");
        rec(w, 3, b"c", b"");
    });
    assert_eq!(Rpc::decode_owned(overlong).unwrap_err(), CodecError::FieldOverrun);
    // "é" then a key sharing only its lead byte: the reconstructed key
    // is not UTF-8 though each suffix alone is harmless.
    let split_char = body(&|w| {
        w.varint(2);
        rec(w, 0, "é".as_bytes(), b"");
        rec(w, 1, b"z", b"");
    });
    assert_eq!(Rpc::decode_owned(split_char).unwrap_err(), CodecError::BadUtf8);
    // The legal neighbour: "ê" shares that byte and completes a char.
    let legal = body(&|w| {
        w.varint(2);
        rec(w, 0, "é".as_bytes(), b"1");
        rec(w, 1, &"ê".as_bytes()[1..], b"2");
    });
    let Rpc::ShuffleRun { run, .. } = Rpc::decode_owned(legal).unwrap() else { panic!() };
    assert_eq!(run.to_pairs(), vec![("é".into(), "1".into()), ("ê".into(), "2".into())]);
    // A value that is not UTF-8.
    let bad_value = body(&|w| {
        w.varint(1);
        rec(w, 0, b"k", &[0xff]);
    });
    assert_eq!(Rpc::decode_owned(bad_value).unwrap_err(), CodecError::BadUtf8);
}

/// A malformed run reaching a node's endpoint over loopback TCP is
/// answered with `RpcReply::Error`, and the endpoint keeps serving.
#[test]
fn tcp_endpoint_answers_a_malformed_run_with_an_error() {
    use std::io::{Read, Write};
    let t = TcpTransport::new();
    let node = NodeId(1);
    t.bind(node, std::sync::Arc::new(|_| RpcReply::Ack));
    let mut sock = std::net::TcpStream::connect(t.addr_of(node).expect("bound")).unwrap();
    let mut section = Vec::new();
    let mut w = wire::Writer::new(&mut section);
    w.varint(2);
    for k in ["b", "a"] {
        w.varint(0);
        w.vbytes(k.as_bytes());
        w.vbytes(b"");
    }
    let good = Rpc::ShuffleRun {
        task: 0, attempt: 0, seq: 0, epoch: 0, partition: 0,
        run: RecordRun::from_pairs(&[("a", "1")]),
    };
    sock.write_all(&wire::encode_frame(Dir::Request, 6, 41, &shuffle_body(&section))).unwrap();
    sock.write_all(&good.encode(42)).unwrap();
    let mut dec = FrameDecoder::new();
    let mut replies = Vec::new();
    let mut buf = [0u8; 4096];
    while replies.len() < 2 {
        let n = sock.read(&mut buf).unwrap();
        assert!(n > 0, "endpoint hung up");
        dec.feed(&buf[..n]);
        while let Some(f) = dec.next_frame().unwrap() {
            replies.push((f.corr, RpcReply::decode(&f).unwrap()));
        }
    }
    assert_eq!(replies[0].0, 41);
    assert!(matches!(&replies[0].1, RpcReply::Error(m) if m.contains("not sorted")), "{replies:?}");
    assert_eq!(replies[1], (42, RpcReply::Ack));
}

/// Over the in-memory backend: a corrupted shuffle frame reaching a
/// live node's endpoint is an error reply, and inside a job it fails
/// the shipping attempt, which re-executes — the output is unchanged.
#[test]
fn corrupted_shuffle_frame_is_an_error_reply_and_the_attempt_reexecutes() {
    use eclipse_apps::InvertedIndex;
    use eclipse_core::{LiveCluster, LiveConfig, ReusePolicy};
    let data = eclipse_integration_tests::doc_corpus(200);
    let c = LiveCluster::new(LiveConfig::small().with_nodes(4).with_block_size(1024));
    c.upload("docs", "u", data.as_bytes());
    let mem = c.mem_net().expect("memory transport").clone();
    let node = c.ring().node_ids()[1];
    mem.corrupt_rpcs(RpcKind::ShuffleBatch, 1);
    let run = RecordRun::from_pairs(&[("k", "v")]);
    let probe = Rpc::ShuffleRun { task: 0, attempt: 0, seq: 0, epoch: 0, partition: 0, run };
    match mem.call(CLIENT, node, probe) {
        Ok(RpcReply::Error(m)) => assert!(m.contains("bad request"), "{m}"),
        other => panic!("expected an error reply, got {other:?}"),
    }
    let (clean, _) = c.run_job(&InvertedIndex, "docs", "u", 3, ReusePolicy::none());
    mem.corrupt_rpcs(RpcKind::ShuffleBatch, 2);
    let (out, stats) = c.run_job(&InvertedIndex, "docs", "u", 3, ReusePolicy::none());
    assert_eq!(out, clean, "a corrupted run must not change the output");
    assert!(stats.retries >= 1, "the corrupted attempt re-executes: {stats:?}");
}
