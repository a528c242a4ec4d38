//! Wire-protocol property tests: every frame type round-trips through
//! encode/decode, the cumulative ack included, and a corpus of corrupted
//! frames (truncations, bit flips — in the header too, which the CRC now
//! covers — bad CRC, bad magic, bad version, a version-1 frame, unknown
//! kinds, trailing bytes) always yields a typed [`WireError`] — never a
//! panic.

use nt_model::{Op, Value};
use nt_net::history::{HistoryDoc, NodeRec};
use nt_net::wire::{
    crc32, decode_batch_request, decode_batch_response, decode_frame, encode_batch_request,
    encode_batch_request_acked, encode_batch_response, encode_request, encode_request_acked,
    encode_response, parse_frame, parse_request, parse_response, BatchEntry, Request, Response,
    WireError, HEADER_LEN, KIND_BATCH_REQ, KIND_BATCH_RESP, VERSION,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![Just(Op::Read), any::<i64>().prop_map(Op::Write)]
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Ok),
        Just(Value::Nil),
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        prop::collection::vec(any::<i64>(), 0..5)
            .prop_map(|v| Value::IntSet(Box::new(v.into_iter().collect::<BTreeSet<i64>>()))),
        prop::collection::vec(any::<i64>(), 0..5).prop_map(|l| Value::IntList(Box::new(l))),
        prop::collection::vec((any::<i64>(), any::<i64>()), 0..5)
            .prop_map(|v| Value::IntMap(Box::new(v.into_iter().collect::<BTreeMap<i64, i64>>()))),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::BeginTop),
        any::<u32>().prop_map(|parent| Request::BeginChild { parent }),
        (any::<u32>(), any::<u32>(), arb_op()).prop_map(|(parent, obj, op)| Request::Access {
            parent,
            obj,
            op
        }),
        any::<u32>().prop_map(|tx| Request::Commit { tx }),
        any::<u32>().prop_map(|tx| Request::Abort { tx }),
        Just(Request::HistoryFetch),
        Just(Request::Ping),
        Just(Request::Shutdown),
        (
            prop::collection::vec(any::<u32>(), 0..6),
            prop::collection::vec(any::<u32>(), 0..6),
        )
            .prop_map(|(reads, writes)| Request::BeginTopDeclared { reads, writes }),
    ]
}

fn arb_doc() -> impl Strategy<Value = HistoryDoc> {
    // Structurally arbitrary (not necessarily a valid run — `into_run`
    // validation is separate); encode/decode must round-trip regardless.
    (
        0u32..8,
        prop::collection::vec((any::<u32>(), any::<bool>(), arb_op(), any::<u32>()), 0..6),
    )
        .prop_map(|(objects, nodes)| HistoryDoc {
            objects,
            nodes: nodes
                .into_iter()
                .map(|(parent, access, op, obj)| NodeRec {
                    parent,
                    op: access.then_some(op),
                    // Inner nodes carry no object on the wire; keep the
                    // in-memory form canonical so round-trips compare equal.
                    obj: if access { obj } else { 0 },
                })
                .collect(),
            actions: Vec::new(),
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        any::<u32>().prop_map(|tx| Response::Begun { tx }),
        arb_value().prop_map(|value| Response::AccessOk { value }),
        Just(Response::Committed),
        Just(Response::AbortOk),
        any::<u32>().prop_map(|victim| Response::Aborted { victim }),
        arb_doc().prop_map(Response::History),
        Just(Response::Pong),
        Just(Response::ShuttingDown),
        (any::<u16>(), any::<u16>()).prop_map(|(code, m)| Response::Error {
            code,
            msg: format!("err {m}")
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_roundtrip(seq in any::<u64>(), req in arb_request()) {
        let frame = encode_request(seq, &req).expect("rw requests encode");
        let (got_seq, got) = parse_request(&frame[4..]).expect("decodes");
        prop_assert_eq!(got_seq, seq);
        prop_assert_eq!(got, req);
    }

    #[test]
    fn responses_roundtrip(seq in any::<u64>(), resp in arb_response()) {
        let frame = encode_response(seq, &resp).expect("responses encode");
        let (got_seq, got) = parse_response(&frame[4..]).expect("decodes");
        prop_assert_eq!(got_seq, seq);
        prop_assert_eq!(got, resp);
    }

    /// Truncating a valid frame at any point yields a typed error, not a
    /// panic, and never a bogus success.
    #[test]
    fn truncations_never_panic(seq in any::<u64>(), req in arb_request()) {
        let frame = encode_request(seq, &req).expect("encodes");
        let payload = &frame[4..];
        for cut in 0..payload.len() {
            let r = parse_request(&payload[..cut]);
            prop_assert!(r.is_err(), "cut at {cut} decoded: {r:?}");
        }
    }

    /// Flipping any single byte of a frame is always detected: the CRC
    /// covers header and body alike, so no byte survives — not the seq,
    /// not the ack, not the kind.
    #[test]
    fn single_byte_corruption_is_detected(
        seq in any::<u64>(),
        req in arb_request(),
        at in any::<u16>(),
        xor in 1u8..=255,
    ) {
        let frame = encode_request(seq, &req).expect("encodes");
        let mut payload = frame[4..].to_vec();
        let i = at as usize % payload.len();
        payload[i] ^= xor;
        let r = parse_request(&payload);
        prop_assert!(r.is_err(), "byte {i} flipped and decoded: {r:?}");
    }

    /// The cumulative ack round-trips on single and batched requests, and
    /// a response carries none.
    #[test]
    fn acks_roundtrip(
        seq in any::<u64>(),
        acked_below in any::<u64>(),
        req in arb_request(),
        ops in prop::collection::vec((any::<u64>(), arb_request()), 1..6),
    ) {
        let frame = encode_request_acked(seq, acked_below, &req).expect("encodes");
        let f = decode_frame(&frame[4..]).expect("parses");
        prop_assert_eq!((f.kind, f.seq, f.acked_below), (req.kind(), seq, acked_below));
        prop_assert_eq!(Request::decode(f.kind, f.body).expect("decodes"), req.clone());

        let frame = encode_batch_request_acked(seq, acked_below, &ops).expect("encodes");
        let f = decode_frame(&frame[4..]).expect("parses");
        prop_assert_eq!((f.kind, f.seq, f.acked_below), (KIND_BATCH_REQ, seq, acked_below));
        prop_assert_eq!(decode_batch_request(f.body).expect("decodes"), ops);

        // The plain encoders ack nothing, and a reply acks nothing.
        let plain = encode_request(seq, &req).expect("encodes");
        prop_assert_eq!(decode_frame(&plain[4..]).expect("parses").acked_below, 0);
        let reply = encode_response(seq, &Response::Pong).expect("encodes");
        prop_assert_eq!(decode_frame(&reply[4..]).expect("parses").acked_below, 0);
    }

    /// Every single-bit flip in the CRC or the header — magic, version,
    /// kind, seq, ack — is caught as `BadCrc`, before any header field is
    /// trusted: a flipped seq or ack can no longer pass silently.
    #[test]
    fn header_bit_flips_are_caught_as_bad_crc(
        seq in any::<u64>(),
        acked_below in any::<u64>(),
        req in arb_request(),
    ) {
        let frame = encode_request_acked(seq, acked_below, &req).expect("encodes");
        for bit in 0..HEADER_LEN * 8 {
            let mut payload = frame[4..].to_vec();
            payload[bit / 8] ^= 1 << (bit % 8);
            let r = parse_frame(&payload);
            prop_assert!(
                matches!(r, Err(WireError::BadCrc { .. })),
                "bit {bit}: {r:?}"
            );
        }
    }

    /// A `BATCH` request frame round-trips: outer seq, per-op seqs, and
    /// every op's request survive encode/decode.
    #[test]
    fn batch_requests_roundtrip(
        seq in any::<u64>(),
        ops in prop::collection::vec((any::<u64>(), arb_request()), 1..8),
    ) {
        let frame = encode_batch_request(seq, &ops).expect("batch encodes");
        let (kind, got_seq, body) = parse_frame(&frame[4..]).expect("frame parses");
        prop_assert_eq!(kind, KIND_BATCH_REQ);
        prop_assert_eq!(got_seq, seq);
        let got = decode_batch_request(body).expect("batch decodes");
        prop_assert_eq!(got, ops);
    }

    /// A `BATCH` response frame round-trips: entries built from real
    /// encoded responses come back as the same `(seq, response)` pairs.
    #[test]
    fn batch_responses_roundtrip(
        seq in any::<u64>(),
        resps in prop::collection::vec((any::<u64>(), arb_response()), 0..8),
    ) {
        let entries: Vec<BatchEntry> = resps
            .iter()
            .map(|(op_seq, resp)| {
                let bytes = encode_response(*op_seq, resp).expect("response encodes");
                let (kind, _, body) = parse_frame(&bytes[4..]).expect("parses");
                BatchEntry { seq: *op_seq, kind, body: body.to_vec() }
            })
            .collect();
        let frame = encode_batch_response(seq, &entries);
        let (kind, got_seq, body) = parse_frame(&frame[4..]).expect("frame parses");
        prop_assert_eq!(kind, KIND_BATCH_RESP);
        prop_assert_eq!(got_seq, seq);
        let got = decode_batch_response(body).expect("batch decodes");
        prop_assert_eq!(got, resps);
    }

    /// Truncating a `BATCH` frame anywhere — including torn tails whose
    /// CRC was recomputed to *match* the truncated body, so only the
    /// entry structure can catch them — yields a typed error, never a
    /// panic and never a bogus success.
    #[test]
    fn batch_truncations_never_panic(
        seq in any::<u64>(),
        ops in prop::collection::vec((any::<u64>(), arb_request()), 1..6),
    ) {
        let frame = encode_batch_request(seq, &ops).expect("batch encodes");
        let payload = &frame[4..];
        // Raw truncation: the frame parser rejects (Truncated or BadCrc).
        for cut in 0..payload.len() {
            prop_assert!(parse_frame(&payload[..cut]).is_err(), "cut {cut} parsed");
        }
        // Torn tail with a *valid* CRC over the truncated body: the
        // entry cursor must reject, and must not read out of bounds.
        let body = &payload[HEADER_LEN..];
        for cut in 0..body.len() {
            let r = decode_batch_request(&body[..cut]);
            prop_assert!(r.is_err(), "torn body at {cut} decoded: {r:?}");
        }
    }

    /// Flipping one byte of a `BATCH` frame is always detected, the
    /// outer seq and the kind byte included.
    #[test]
    fn batch_single_byte_corruption_is_detected(
        seq in any::<u64>(),
        ops in prop::collection::vec((any::<u64>(), arb_request()), 1..6),
        at in any::<u16>(),
        xor in 1u8..=255,
    ) {
        let frame = encode_batch_request(seq, &ops).expect("batch encodes");
        let mut payload = frame[4..].to_vec();
        let i = at as usize % payload.len();
        payload[i] ^= xor;
        let r = parse_frame(&payload);
        prop_assert!(r.is_err(), "byte {i} flipped and parsed: {r:?}");
    }
}

#[test]
fn batch_corpus_yields_typed_errors() {
    use nt_net::wire::WireError;

    // Empty batches are rejected at both ends.
    assert!(matches!(
        encode_batch_request(1, &[]),
        Err(WireError::BadPayload(_))
    ));
    let empty = {
        let mut b = Vec::new();
        b.extend_from_slice(&0u32.to_le_bytes());
        b
    };
    assert!(matches!(
        decode_batch_request(&empty),
        Err(WireError::BadPayload(_))
    ));

    // A nested batch entry is rejected.
    let ops = vec![(7u64, Request::Ping)];
    let frame = encode_batch_request(9, &ops).expect("encodes");
    let (_, _, body) = parse_frame(&frame[4..]).expect("parses");
    let mut nested = body.to_vec();
    // Entry layout: count u32 | seq u64 | kind u8 | len u32 | body.
    nested[4 + 8] = KIND_BATCH_REQ;
    assert!(matches!(
        decode_batch_request(&nested),
        Err(WireError::BadPayload(_))
    ));

    // An entry declaring more body bytes than remain: Truncated.
    let mut overlong = body.to_vec();
    let len_at = 4 + 8 + 1;
    overlong[len_at..len_at + 4].copy_from_slice(&1000u32.to_le_bytes());
    assert!(matches!(
        decode_batch_request(&overlong),
        Err(WireError::Truncated)
    ));

    // Stray bytes after the last entry: Trailing.
    let mut trailing = body.to_vec();
    trailing.extend_from_slice(&[0xAB, 0xCD]);
    assert!(matches!(
        decode_batch_request(&trailing),
        Err(WireError::Trailing(2))
    ));
}

/// A frame after its length prefix, built by hand: `crc | magic | ver |
/// kind | seq | acked_below | body`, the CRC over everything after it.
fn handmade(ver: u8, kind: u8, seq: u64, body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&0x4E54u16.to_le_bytes());
    payload.push(ver);
    payload.push(kind);
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(&0u64.to_le_bytes());
    payload.extend_from_slice(body);
    let mut frame = crc32(&payload).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

/// Recompute a corrupted frame's CRC, so the check under test is the one
/// behind it.
fn reseal(frame: &mut [u8]) {
    let crc = crc32(&frame[4..]);
    frame[..4].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn corrupt_frame_corpus_yields_typed_errors() {
    let frame = encode_request(42, &Request::Commit { tx: 7 }).expect("encodes");
    let payload = frame[4..].to_vec();
    assert_eq!(payload, handmade(VERSION, 0x04, 42, &7u32.to_le_bytes()));

    // Bad magic, under a valid CRC.
    let mut bad = payload.clone();
    bad[4] = 0xAA;
    bad[5] = 0xBB;
    reseal(&mut bad);
    assert!(matches!(
        parse_request(&bad),
        Err(WireError::BadMagic(0xBBAA))
    ));

    // Bad version, under a valid CRC.
    let mut bad = payload.clone();
    bad[6] = 99;
    reseal(&mut bad);
    assert!(matches!(
        parse_request(&bad),
        Err(WireError::BadVersion(99))
    ));

    // Unknown kind, under a valid CRC.
    let mut bad = payload.clone();
    bad[7] = 0x7F;
    reseal(&mut bad);
    assert!(matches!(
        parse_request(&bad),
        Err(WireError::UnknownKind(0x7F))
    ));

    // Bad CRC: flip a body byte.
    let mut bad = payload.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0xFF;
    assert!(matches!(parse_request(&bad), Err(WireError::BadCrc { .. })));

    // Trailing bytes after a valid body: the declared CRC no longer
    // matches the longer payload.
    let mut bad = payload.clone();
    bad.extend_from_slice(&[0, 0, 0]);
    assert!(parse_request(&bad).is_err());

    // Shorter than a header.
    assert!(matches!(
        parse_request(&payload[..HEADER_LEN - 1]),
        Err(WireError::Truncated)
    ));

    // Empty.
    assert!(matches!(parse_request(&[]), Err(WireError::Truncated)));

    // A frame whose body decodes short (declared Commit but two tx bytes).
    assert!(matches!(
        parse_request(&handmade(VERSION, 0x04, 42, &[7, 0])),
        Err(WireError::Truncated)
    ));

    // Same but with extra body bytes beyond the structure: Trailing.
    assert!(matches!(
        parse_request(&handmade(VERSION, 0x04, 42, &[7, 0, 0, 0, 9, 9])),
        Err(WireError::Trailing(2))
    ));
}

/// A version-1 peer's frame — `magic | ver | kind | seq | crc | body`,
/// its CRC over the body only — is refused by version, not mistaken for
/// corruption.
#[test]
fn a_version_1_frame_is_refused_with_bad_version() {
    for (kind, body) in [(0x07u8, Vec::new()), (0x04, 7u32.to_le_bytes().to_vec())] {
        let mut v1 = Vec::new();
        v1.extend_from_slice(&0x4E54u16.to_le_bytes());
        v1.push(1);
        v1.push(kind);
        v1.extend_from_slice(&42u64.to_le_bytes());
        v1.extend_from_slice(&crc32(&body).to_le_bytes());
        v1.extend_from_slice(&body);
        assert_eq!(
            parse_frame(&v1),
            Err(WireError::BadVersion(1)),
            "kind {kind:#04x}"
        );
        assert_eq!(parse_request(&v1), Err(WireError::BadVersion(1)));
    }
}

#[test]
fn crc32_matches_reference_vectors() {
    // Standard IEEE CRC-32 check values.
    assert_eq!(crc32(b""), 0x0000_0000);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(
        crc32(b"The quick brown fox jumps over the lazy dog"),
        0x414F_A339
    );
}

#[test]
fn frame_layout_is_stable() {
    // Lock the on-wire layout: the WAL's `len | crc | payload` frame, the
    // payload little-endian magic "NT", version, kind, seq, acked_below,
    // body; `len` counts the payload, the CRC covers all of it.
    let frame = encode_request_acked(0x0102_0304_0506_0708, 0x1112_1314_1516_1718, &Request::Ping)
        .expect("encodes");
    assert_eq!(&frame[..4], &20u32.to_le_bytes()); // empty body
    assert_eq!(&frame[4..8], &crc32(&frame[8..]).to_le_bytes());
    assert_eq!(&frame[8..10], &0x4E54u16.to_le_bytes());
    assert_eq!(frame[10], 2);
    assert_eq!(frame[11], 0x07);
    assert_eq!(&frame[12..20], &0x0102_0304_0506_0708u64.to_le_bytes());
    assert_eq!(&frame[20..28], &0x1112_1314_1516_1718u64.to_le_bytes());
    assert_eq!(frame.len(), 4 + HEADER_LEN);
    let (_, seq, body) = parse_frame(&frame[4..]).expect("parses");
    assert_eq!(seq, 0x0102_0304_0506_0708);
    assert!(body.is_empty());
    // One framer: the WAL's decoder accepts the frame's length and CRC,
    // and stops only at the payload, which is a message, not a record.
    let wal = nt_store::record::decode_stream(&frame);
    assert_eq!(
        (wal.frames, wal.valid_len),
        (0, 0),
        "a wire payload is not a record"
    );
    assert!(matches!(
        wal.torn,
        Some(nt_store::record::WalError::BadTag { offset: 0, .. })
    ));
}
