//! Wire-protocol property tests: every frame type round-trips through
//! encode/decode, the cumulative ack included, and a corpus of corrupted
//! frames (truncations, bit flips — in the header too, which the CRC now
//! covers — bad CRC, bad magic, bad version, a version-1 frame, unknown
//! kinds, trailing bytes) always yields a typed [`WireError`] — never a
//! panic. The wire, the fetched history and the WAL write one alphabet
//! with one codec: the same symbol has the same bytes in all three, and
//! golden bytes pin a frame of every kind and a record of every kind.

use nt_model::{Action, ObjId, Op, TxId, Value};
use nt_net::history::{HistoryDoc, NodeRec};
use nt_net::wire::{
    crc32, decode_batch_request, decode_batch_response, decode_frame, encode_batch_request,
    encode_batch_request_acked, encode_batch_response, encode_request, encode_request_acked,
    encode_response, parse_frame, parse_request, parse_response, BatchEntry, Request, Response,
    WireError, HEADER_LEN, KIND_BATCH_REQ, KIND_BATCH_RESP, VERSION,
};
use nt_store::record::{FileKind, Record};
use proptest::prelude::*;

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![Just(Op::Read), any::<i64>().prop_map(Op::Write)]
}

/// The register alphabet: the only values the engine produces
/// (`LockTable::grant` answers `Ok` or `Int`) and the only ones either
/// format encodes.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Ok),
        Just(Value::Nil),
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
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
    ]
}

fn arb_doc() -> impl Strategy<Value = HistoryDoc> {
    // Structurally arbitrary (not necessarily a valid run — `into_run`
    // validation is separate); encode/decode must round-trip regardless.
    (
        0u32..8,
        prop::collection::vec((any::<u32>(), any::<bool>(), arb_op(), any::<u32>()), 0..6),
        prop::collection::vec(arb_action(), 0..10),
    )
        .prop_map(|(objects, nodes, actions)| HistoryDoc {
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
            actions,
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

    // Unknown kind, under a valid CRC: unassigned, or retired (0x09,
    // BEGIN_TOP_DECLARED).
    for kind in [0x7F, 0x09] {
        let mut bad = payload.clone();
        bad[7] = kind;
        reseal(&mut bad);
        assert_eq!(parse_request(&bad), Err(WireError::UnknownKind(kind)));
    }

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

// --- One codec: actions, cross-format bytes, golden bytes ----------------

fn arb_action() -> impl Strategy<Value = Action> {
    (0u8..9, any::<u32>(), any::<u32>(), arb_value()).prop_map(|(tag, t, x, v)| {
        let (t, x) = (TxId(t), ObjId(x));
        match tag {
            0 => Action::Create(t),
            1 => Action::RequestCreate(t),
            2 => Action::RequestCommit(t, v),
            3 => Action::Commit(t),
            4 => Action::Abort(t),
            5 => Action::ReportCommit(t, v),
            6 => Action::ReportAbort(t),
            7 => Action::InformCommit(x, t),
            _ => Action::InformAbort(x, t),
        }
    })
}

/// The body of the one frame in `frame`.
fn body_of(frame: &[u8]) -> Vec<u8> {
    parse_frame(&frame[4..]).expect("parses").2.to_vec()
}

/// `rec` encoded as a bare record: tag, then body.
fn record_bytes(rec: Record) -> Vec<u8> {
    let mut out = Vec::new();
    rec.encode_into(&mut out).expect("encodes");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The fetched history and the WAL write the same bytes for the same
    /// symbol: an action in a `HISTORY` body is the `Act` record after its
    /// stamp, a value in `ACCESS_OK` is an `Act`'s `REQUEST_COMMIT` value,
    /// and an op in `ACCESS` is a `TreeAdd`'s op.
    #[test]
    fn history_and_wal_encode_symbols_alike(
        action in arb_action(),
        value in arb_value(),
        op in arb_op(),
    ) {
        let doc = HistoryDoc { objects: 0, nodes: Vec::new(), actions: vec![action.clone()] };
        let history = body_of(&encode_response(1, &Response::History(doc)).expect("encodes"));
        // objects u32 | nodes u32 | actions u32 | action
        let act = record_bytes(Record::Act { stamp: 9, action });
        // tag u8 | stamp u64 | action
        prop_assert_eq!(&history[12..], &act[9..]);

        let reply = body_of(&encode_response(1, &Response::AccessOk { value: value.clone() })
            .expect("encodes"));
        let act = record_bytes(Record::Act {
            stamp: 9,
            action: Action::RequestCommit(TxId(3), value),
        });
        // tag u8 | stamp u64 | action tag u8 | tx u32 | value
        prop_assert_eq!(&reply[..], &act[14..]);

        let access = Request::Access { parent: 1, obj: 2, op: op.clone() };
        let request = body_of(&encode_request(1, &access).expect("encodes"));
        let add = record_bytes(Record::TreeAdd {
            t: TxId(3),
            parent: TxId(1),
            access: Some((ObjId(2), op)),
        });
        // parent u32 | obj u32 | op  vs  tag u8 | t u32 | parent u32 | flag u8 | obj u32 | op
        prop_assert_eq!(&request[8..], &add[14..]);
    }
}

/// One of each `Action` variant, the values drawn from the register
/// alphabet.
fn every_action() -> Vec<Action> {
    let (t, x) = (TxId(0x0A0B_0C0D), ObjId(0x0102_0304));
    vec![
        Action::Create(t),
        Action::RequestCreate(t),
        Action::RequestCommit(t, Value::Int(-3)),
        Action::Commit(t),
        Action::Abort(t),
        Action::ReportCommit(t, Value::Bool(true)),
        Action::ReportAbort(t),
        Action::InformCommit(x, t),
        Action::InformAbort(x, t),
    ]
}

/// One frame of every request and response kind and one record of every
/// WAL kind, in [`GOLDEN`]'s order.
fn golden_cases() -> Vec<Vec<u8>> {
    let (seq, ack) = (0x0102_0304_0506_0708, 0x1112_1314_1516_1718);
    let mut cases = Vec::new();
    let requests = [
        Request::BeginTop,
        Request::BeginChild {
            parent: 0x0A0B_0C0D,
        },
        Request::Access {
            parent: 5,
            obj: 6,
            op: Op::Read,
        },
        Request::Access {
            parent: 5,
            obj: 6,
            op: Op::Write(-2),
        },
        Request::Commit { tx: 7 },
        Request::Abort { tx: 8 },
        Request::HistoryFetch,
        Request::Ping,
        Request::Shutdown,
        Request::Stats,
        Request::Cert,
    ];
    for req in &requests {
        cases.push(encode_request_acked(seq, ack, req).expect("encodes"));
    }
    let ops = [
        (5, Request::Ping),
        (
            6,
            Request::Access {
                parent: 1,
                obj: 2,
                op: Op::Write(9),
            },
        ),
    ];
    cases.push(encode_batch_request_acked(seq, ack, &ops).expect("encodes"));
    let doc = HistoryDoc {
        objects: 2,
        nodes: vec![
            NodeRec {
                parent: 0,
                op: None,
                obj: 0,
            },
            NodeRec {
                parent: 1,
                op: Some(Op::Read),
                obj: 1,
            },
            NodeRec {
                parent: 1,
                op: Some(Op::Write(-7)),
                obj: 0,
            },
        ],
        actions: every_action(),
    };
    let responses = [
        Response::Begun { tx: 3 },
        Response::AccessOk { value: Value::Ok },
        Response::AccessOk { value: Value::Nil },
        Response::AccessOk {
            value: Value::Int(-5),
        },
        Response::AccessOk {
            value: Value::Bool(false),
        },
        Response::Committed,
        Response::AbortOk,
        Response::Aborted { victim: 4 },
        Response::History(doc),
        Response::Pong,
        Response::ShuttingDown,
        Response::Stats { json: "{}".into() },
        Response::Cert {
            json: "{\"ok\":true}".into(),
        },
        Response::Error {
            code: 9,
            msg: "acked".into(),
        },
    ];
    for resp in &responses {
        cases.push(encode_response(seq, resp).expect("encodes"));
    }
    let entries = [BatchEntry {
        seq: 5,
        kind: 0x87,
        body: Vec::new(),
    }];
    cases.push(encode_batch_response(seq, &entries));
    let mut records = vec![
        Record::Header {
            kind: FileKind::Wal,
            gen: 3,
            covers_stamp: 0,
        },
        Record::Header {
            kind: FileKind::Checkpoint,
            gen: 4,
            covers_stamp: 99,
        },
        Record::TreeAdd {
            t: TxId(1),
            parent: TxId::ROOT,
            access: None,
        },
        Record::TreeAdd {
            t: TxId(2),
            parent: TxId(1),
            access: Some((ObjId(7), Op::Read)),
        },
        Record::TreeAdd {
            t: TxId(3),
            parent: TxId(1),
            access: Some((ObjId(7), Op::Write(-9))),
        },
        Record::Cache {
            seq: (5 << 32) | 77,
            resp: vec![0xAB; 3],
        },
    ];
    for (i, action) in every_action().into_iter().enumerate() {
        records.push(Record::Act {
            stamp: 40 + i as u64,
            action,
        });
    }
    for rec in &records {
        cases.push(rec.encode_frame().expect("encodes"));
    }
    cases
}

/// [`golden_cases`] as encoded before the wire and the WAL shared one
/// codec. A changed byte here is a format change, not a refactor.
const GOLDEN: &[(&str, &str)] = &[
    ("BeginTop", "14000000032c63e8544e020108070605040302011817161514131211"),
    ("BeginChild", "18000000d70ee861544e0202080706050403020118171615141312110d0c0b0a"),
    ("Access/read", "1d000000656b89e1544e020308070605040302011817161514131211050000000600000000"),
    ("Access/write", "250000007ed624c7544e020308070605040302011817161514131211050000000600000001feffffffffffffff"),
    ("Commit", "18000000c42253f2544e02040807060504030201181716151413121107000000"),
    ("Abort", "180000000cb1ea35544e02050807060504030201181716151413121108000000"),
    ("HistoryFetch", "140000004850f1c8544e020608070605040302011817161514131211"),
    ("Ping", "140000000b9b574f544e020708070605040302011817161514131211"),
    ("Shutdown", "14000000dea8d589544e020808070605040302011817161514131211"),
    ("Stats", "140000001938e95d544e020a08070605040302011817161514131211"),
    ("Cert", "140000005af34fda544e020b08070605040302011817161514131211"),
    ("Batch", "4300000039df514d544e020c080706050403020118171615141312110200000005000000000000000700000000060000000000000003110000000100000002000000010900000000000000"),
    ("Begun", "18000000eeb7c63e544e02810807060504030201000000000000000003000000"),
    ("AccessOk/ok", "150000004299caa2544e02820807060504030201000000000000000000"),
    ("AccessOk/nil", "15000000d4a9cdd5544e02820807060504030201000000000000000001"),
    ("AccessOk/int", "1d0000003bfe8420544e02820807060504030201000000000000000002fbffffffffffffff"),
    ("AccessOk/bool", "160000006b565f61544e0282080706050403020100000000000000000300"),
    ("Committed", "14000000468b2425544e028308070605040302010000000000000000"),
    ("AbortOk", "140000000df7b605544e028408070605040302010000000000000000"),
    ("Aborted", "18000000ec8be8b1544e02850807060504030201000000000000000004000000"),
    ("History", "7f000000ef83406f544e02860807060504030201000000000000000002000000030000000000000000010000000101000000010000000200000000f9ffffffffffffff09000000000d0c0b0a010d0c0b0a020d0c0b0a02fdffffffffffffff030d0c0b0a040d0c0b0a050d0c0b0a0301060d0c0b0a07040302010d0c0b0a08040302010d0c0b0a"),
    ("Pong", "1400000089ac2c56544e028708070605040302010000000000000000"),
    ("ShuttingDown", "140000005c9fae90544e028808070605040302010000000000000000"),
    ("Stats/resp", "1a00000076d05e8b544e028a08070605040302010000000000000000020000007b7d"),
    ("Cert/resp", "230000003a897ff1544e028b080706050403020100000000000000000b0000007b226f6b223a747275657d"),
    ("Error", "1f000000415e1c81544e02890807060504030201000000000000000009000500000061636b6564"),
    ("BatchResp", "25000000e18466e7544e028c080706050403020100000000000000000100000005000000000000008700000000"),
    ("Header/wal", "120000005ecd81a1010003000000000000000000000000000000"),
    ("Header/checkpoint", "120000003059ba85010104000000000000006300000000000000"),
    ("TreeAdd/inner", "0a00000008ac04f002010000000000000000"),
    ("TreeAdd/read", "0f00000050128508020200000001000000010700000000"),
    ("TreeAdd/write", "17000000a1049829020300000001000000010700000001f7ffffffffffffff"),
    ("Cache", "10000000bf151a97044d0000000500000003000000ababab"),
    ("Act/Create", "0e000000e8d5f6bc032800000000000000000d0c0b0a"),
    ("Act/RequestCreate", "0e000000dd25005c032900000000000000010d0c0b0a"),
    ("Act/RequestCommit", "170000006bb137a4032a00000000000000020d0c0b0a02fdffffffffffffff"),
    ("Act/Commit", "0e000000f6c39c46032b00000000000000030d0c0b0a"),
    ("Act/Abort", "0e000000be19cf89032c00000000000000040d0c0b0a"),
    ("Act/ReportCommit", "10000000cf03521c032d00000000000000050d0c0b0a0301"),
    ("Act/ReportAbort", "0e00000095ff5393032e00000000000000060d0c0b0a"),
    ("Act/InformCommit", "1200000079f3863c032f0000000000000007040302010d0c0b0a"),
    ("Act/InformAbort", "120000000096ec3203300000000000000008040302010d0c0b0a"),
];

#[test]
fn golden_bytes_are_unchanged() {
    let cases = golden_cases();
    assert_eq!(cases.len(), GOLDEN.len());
    for (bytes, (name, want)) in cases.iter().zip(GOLDEN) {
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, *want, "{name}");
    }
}

/// The wire carries the register alphabet only: a set value is refused
/// on encode, and its old tag (4) is refused on decode.
#[test]
fn values_outside_the_register_alphabet_are_typed_errors() {
    let set = Value::IntSet(Box::new([1, 2].into_iter().collect()));
    assert!(matches!(
        encode_response(1, &Response::AccessOk { value: set }),
        Err(WireError::BadPayload(_))
    ));
    let tagged_set = handmade(VERSION, 0x82, 1, &[4, 1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0]);
    assert!(matches!(
        parse_response(&tagged_set),
        Err(WireError::BadPayload(_))
    ));
}

/// An access node whose op is outside the register alphabet is refused,
/// not sent as an inner node the client would rebuild differently.
#[test]
fn a_history_node_with_a_non_register_op_is_refused() {
    let doc = HistoryDoc {
        objects: 1,
        nodes: vec![
            NodeRec {
                parent: 0,
                op: None,
                obj: 0,
            },
            NodeRec {
                parent: 1,
                op: Some(Op::GetCount),
                obj: 0,
            },
        ],
        actions: Vec::new(),
    };
    assert!(matches!(
        encode_response(1, &Response::History(doc)),
        Err(WireError::BadPayload(_))
    ));
}
