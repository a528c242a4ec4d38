//! The server is one thread — the reactor's poll thread — and that is
//! asserted as an absolute number: the process's threads before `bind`,
//! plus one. Deadlock detection runs at the enqueue that closes the
//! cycle, victims are journaled and the drain deadline kept by the poll
//! thread. (Until PR 22 a detector, a monitor and a drain watchdog thread
//! stood beside it.) The count is not a function of the number of
//! connections: frames execute on the poll thread and a lock wait parks a
//! continuation, so there is nothing per connection to spawn. (At PR 10
//! every accepted connection cost an executor thread.) Nor is it a
//! function of `live_certify`: the thread that records an action steps
//! the certifier. (Until PR 16 it had a thread of its own.)
//!
//! One `#[test]` only: the count is the whole process's, and a sibling
//! test running beside it would move it.

#![cfg(target_os = "linux")]

use nested_sgt::net::{Conn, ConnConfig, NetServer, Request, Response, ServerConfig};

/// `Threads:` of `/proc/self/status`.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

fn open(addr: &str, id: u64) -> Conn {
    let mut c = Conn::connect(addr, id, ConnConfig::default()).expect("connect");
    // A completed round trip proves the server accepted and served it.
    assert!(matches!(c.request(&Request::Ping), Ok(Response::Pong)));
    c
}

#[test]
fn thread_count_is_the_same_with_1_and_32_connections_and_with_live_certify() {
    let before_bind = process_threads();
    let server = NetServer::bind(ServerConfig::default()).expect("bind");
    assert_eq!(
        process_threads(),
        before_bind,
        "the engine starts no thread"
    );
    let addr = server.local_addr().to_string();
    let handle = server.serve();
    let mut conns = vec![open(&addr, 1)];
    let with_one = process_threads();
    assert_eq!(
        with_one,
        before_bind + 1,
        "the poll thread and nothing else"
    );
    conns.extend((2..=32).map(|id| open(&addr, id)));
    // All 32 are live at once, each with work in flight on the server.
    for c in &mut conns {
        assert!(matches!(
            c.request(&Request::BeginTop),
            Ok(Response::Begun { .. })
        ));
    }
    let with_32 = process_threads();
    assert_eq!(
        with_one, with_32,
        "the server grew threads with its connection count"
    );
    drop(conns);
    // `wait` (the blocking `join`) starts no watchdog beside the drain.
    handle.wait();
    assert_eq!(process_threads(), before_bind, "the drain leaves nothing");

    let server = NetServer::bind(ServerConfig {
        live_certify: true,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.serve();
    let conn = open(&addr, 1);
    assert_eq!(
        process_threads(),
        with_one,
        "live certification changed the server's thread count"
    );
    drop(conn);
    handle.wait();
}
