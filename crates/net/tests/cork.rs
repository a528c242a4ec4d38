//! The client's cork: `Conn::send` and `Conn::send_batch` only encode,
//! and the bytes leave in one write when a `recv` has to wait, on
//! `Conn::flush`, or once 64 KiB are corked. A raw listener plays the
//! server, so what reached the socket, and when, is seen directly.

use nt_net::wire::{decode_frame, encode_response, CRC_LEN, DEFAULT_MAX_FRAME, MIN_PAYLOAD};
use nt_net::{Conn, ConnConfig, Request, Response};
use nt_reactor::FrameBuf;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// A client `Conn` and the server's end of its socket.
fn pair() -> (Conn, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let conn = Conn::connect(&addr, 1, ConnConfig::default()).expect("connect");
    let (server, _) = listener.accept().expect("accept");
    (conn, server)
}

/// Nothing has reached `server` after a pause long enough for a write to
/// land.
fn nothing_arrived(server: &mut TcpStream) -> bool {
    std::thread::sleep(Duration::from_millis(50));
    server.set_nonblocking(true).expect("nonblocking");
    let got = server.read(&mut [0u8; 64]);
    server.set_nonblocking(false).expect("blocking");
    matches!(got, Err(e) if e.kind() == ErrorKind::WouldBlock)
}

/// One `read` of `server`, split into frames: their seqs.
fn one_read(server: &mut TcpStream) -> Vec<u64> {
    server
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut fb = FrameBuf::new();
    let (n, _) = fb.read_from(server).expect("read");
    assert!(n > 0, "the flush reached the socket");
    let mut seqs = Vec::new();
    while let Some(frame) = fb
        .pop(MIN_PAYLOAD, DEFAULT_MAX_FRAME, CRC_LEN)
        .expect("a sound length")
    {
        seqs.push(decode_frame(frame).expect("a request frame").seq);
    }
    assert!(fb.is_empty(), "whole frames only");
    seqs
}

#[test]
fn sends_wait_in_the_cork_until_flush_then_leave_in_one_write() {
    let (mut conn, mut server) = pair();
    let mut sent: Vec<u64> = (0..5)
        .map(|_| conn.send(&Request::Ping).expect("send"))
        .collect();
    sent.extend(
        conn.send_batch(&[Request::Ping, Request::Ping])
            .expect("send batch"),
    );
    assert!(
        nothing_arrived(&mut server),
        "a send wrote before the flush"
    );
    conn.flush().expect("flush");
    let got = one_read(&mut server);
    // Five single frames, then the batch frame under its own outer seq.
    assert_eq!(got.len(), 6, "{got:?}");
    assert_eq!(got[..5], sent[..5]);
    assert_eq!(
        got[5],
        sent[5] - 1,
        "the batch's outer seq precedes its ops"
    );
    conn.flush().expect("an empty cork flushes nothing");
    assert!(nothing_arrived(&mut server));
}

#[test]
fn a_waiting_recv_opens_the_cork() {
    let (mut conn, mut server) = pair();
    let sent: Vec<u64> = (0..4)
        .map(|_| conn.send(&Request::Ping).expect("send"))
        .collect();
    assert!(nothing_arrived(&mut server));
    let first = sent[0];
    let client = std::thread::spawn(move || conn.recv(first));
    assert_eq!(one_read(&mut server), sent, "all four in one read");
    let pong = encode_response(first, &Response::Pong).expect("encode");
    server.write_all(&pong).expect("reply");
    assert_eq!(client.join().expect("client"), Ok(Response::Pong));
}

#[test]
fn a_cork_past_64_kib_leaves_without_a_recv() {
    let (mut conn, mut server) = pair();
    // A ping frame is 28 bytes: 2,341 of them pass 64 KiB.
    for _ in 0..2_400 {
        conn.send(&Request::Ping).expect("send");
    }
    assert!(!nothing_arrived(&mut server), "64 KiB stayed corked");
}
