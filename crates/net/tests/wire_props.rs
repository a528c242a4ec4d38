//! Wire-protocol property tests: every frame type round-trips through
//! encode/decode, and a corpus of corrupted frames (truncations, bit
//! flips, bad CRC, bad magic, bad version, unknown kinds, trailing
//! bytes) always yields a typed [`WireError`] — never a panic.

use nt_model::{Op, Value};
use nt_net::history::{HistoryDoc, NodeRec};
use nt_net::wire::{
    crc32, decode_batch_request, decode_batch_response, encode_batch_request,
    encode_batch_response, encode_request, encode_response, parse_frame, parse_request,
    parse_response, BatchEntry, Request, Response, HEADER_LEN, KIND_BATCH_REQ, KIND_BATCH_RESP,
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

    /// Flipping any single byte of a frame is always detected (CRC over
    /// the body, field validation over the header).
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
        // Two corruptions survive by design: the seq bytes (offsets
        // 4..12) only change the sequence number, and the kind byte
        // (offset 3, not covered by the body CRC) can flip between two
        // kinds that accept the same body — e.g. two empty-body ops —
        // decoding as a *different* request.
        if let Ok((got_seq, got)) = parse_request(&payload) {
            if i == 3 {
                prop_assert_eq!(got_seq, seq);
                prop_assert!(got != req, "kind flip decoded the same request");
            } else {
                prop_assert!((4..12).contains(&i));
                prop_assert!(got_seq != seq);
                prop_assert_eq!(got, req);
            }
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

    /// Flipping one byte of a `BATCH` frame is detected, except the two
    /// survivors every frame has by design: the outer seq bytes (change
    /// the batch id, ops intact) and the kind byte (reframes the same
    /// CRC-valid body under another kind — which must still decode or
    /// fail *typed*, never panic).
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
        match parse_frame(&payload) {
            Err(_) => {} // detected
            Ok((kind, got_seq, body)) => {
                if i == 3 {
                    // Kind byte isn't CRC-covered; the body no longer
                    // claims to be a batch. Decoding under the flipped
                    // kind must not panic.
                    prop_assert!(kind != KIND_BATCH_REQ);
                    let _ = parse_request(&payload);
                } else {
                    prop_assert!((4..12).contains(&i), "byte {i} survived");
                    prop_assert_eq!(kind, KIND_BATCH_REQ);
                    prop_assert!(got_seq != seq);
                    let got = decode_batch_request(body).expect("ops intact");
                    prop_assert_eq!(got, ops);
                }
            }
        }
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

#[test]
fn corrupt_frame_corpus_yields_typed_errors() {
    use nt_net::wire::WireError;
    let frame = encode_request(42, &Request::Commit { tx: 7 }).expect("encodes");
    let payload = frame[4..].to_vec();

    // Bad magic.
    let mut bad = payload.clone();
    bad[0] = 0xAA;
    bad[1] = 0xBB;
    assert!(matches!(
        parse_request(&bad),
        Err(WireError::BadMagic(0xBBAA))
    ));

    // Bad version.
    let mut bad = payload.clone();
    bad[2] = 99;
    assert!(matches!(
        parse_request(&bad),
        Err(WireError::BadVersion(99))
    ));

    // Unknown kind (header stays valid, body CRC still matches).
    let mut bad = payload.clone();
    bad[3] = 0x7F;
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
    // matches the longer body.
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

    // A frame whose body decodes short (declared Commit but no tx bytes):
    // rebuild with a valid CRC over a truncated body.
    let body: [u8; 2] = [7, 0];
    let mut handmade = Vec::new();
    handmade.extend_from_slice(&0x4E54u16.to_le_bytes());
    handmade.push(1); // version
    handmade.push(0x04); // Commit
    handmade.extend_from_slice(&42u64.to_le_bytes());
    handmade.extend_from_slice(&crc32(&body).to_le_bytes());
    handmade.extend_from_slice(&body);
    assert!(matches!(
        parse_request(&handmade),
        Err(WireError::Truncated)
    ));

    // Same but with extra body bytes beyond the structure: Trailing.
    let body: [u8; 6] = [7, 0, 0, 0, 9, 9];
    let mut handmade = Vec::new();
    handmade.extend_from_slice(&0x4E54u16.to_le_bytes());
    handmade.push(1);
    handmade.push(0x04);
    handmade.extend_from_slice(&42u64.to_le_bytes());
    handmade.extend_from_slice(&crc32(&body).to_le_bytes());
    handmade.extend_from_slice(&body);
    assert!(matches!(
        parse_request(&handmade),
        Err(WireError::Trailing(2))
    ));
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
    // Lock the on-wire layout: little-endian length, magic "NT", version,
    // kind, seq, crc, body.
    let frame = encode_request(0x0102_0304_0506_0708, &Request::Ping).expect("encodes");
    assert_eq!(&frame[..4], &16u32.to_le_bytes()); // empty body
    assert_eq!(&frame[4..6], &0x4E54u16.to_le_bytes());
    assert_eq!(frame[6], 1);
    assert_eq!(frame[7], 0x07);
    assert_eq!(&frame[8..16], &0x0102_0304_0506_0708u64.to_le_bytes());
    assert_eq!(&frame[16..20], &crc32(b"").to_le_bytes());
    assert_eq!(frame.len(), 20);
    let (_, seq, body) = parse_frame(&frame[4..]).expect("parses");
    assert_eq!(seq, 0x0102_0304_0506_0708);
    assert!(body.is_empty());
}
