#!/usr/bin/env bash
# The reactor's liveness argument (DESIGN §8j) is that nothing on the poll
# thread ever sleeps or waits on another thread, except the one
# `wait_durable` barrier per round. This gate greps the code that runs
# there — the reactor crate, nt-net's per-connection service and the
# protocol core it executes, the engine lock's grant and record path, the
# WAL and the certifier — for the calls that would break it. It also
# holds the other "stays gone" greps, by what they would do rather than by
# the names of deleted code: run.rs goes through the session API, and
# nothing starts a background thread — the server is the poll thread and
# nothing else.
set -euo pipefail
cd "$(dirname "$0")/.."

poll_thread=(crates/reactor/src/lib.rs crates/reactor/src/buf.rs
    crates/reactor/src/waker.rs crates/net/src/front_reactor.rs
    crates/net/src/server.rs crates/engine/src/locktable.rs
    crates/engine/src/recorder.rs crates/store/src/wal.rs crates/sgt/src/*.rs)
blocking='thread::sleep|Condvar|wait_timeout|wait_while|\.recv\(\)|recv_timeout|\.park\(|\.join\(\)'

# A file's non-test code: everything above its `#[cfg(test)]` module.
non_test() {
    awk -v f="$1" '/^#\[cfg\(test\)\]/ { exit } { print f ":" FNR ":" $0 }' "$1"
}

fail=0
# `ReactorHandle::join` / `ServerHandle::join` are the embedder's side of
# the thread, not the loop; nor is `LockTable::park` (its `resolved` condvar).
if grep -nE "$blocking" "${poll_thread[@]}" |
    grep -vE 'self\.((thread|reactor)\.)?join\(\)|locktable\.rs:[0-9]+:.*(resolved|self\.park\()'; then
    echo "check_poll_thread: a blocking call on the poll thread (above)" >&2
    fail=1
fi

# The blocking session entry point (`Session::access`) has a resumable
# twin; the service and the protocol core must use that (every step takes
# a wake handle). `Drainer::drain` only sets a flag and wakes the loop.
if grep -nE 'session\.access\(|\.drain\(\)' crates/net/src/front_reactor.rs \
    crates/net/src/server.rs | grep -v 'drainer\.drain()'; then
    echo "check_poll_thread: the server calls a blocking entry point (above)" >&2
    fail=1
fi

barriers=$(grep -c 'pay_durability(' crates/net/src/front_reactor.rs || true)
if [ "$barriers" -ne 1 ]; then
    echo "check_poll_thread: expected exactly one durability barrier call" \
        "site in front_reactor.rs (Service::flush), found $barriers" >&2
    fail=1
fi

# One execution core: `run_plan` drives sessions, and run.rs reaches
# engine state through the session API only.
if grep -nE 'LockTable::new|StatusTable::new|\.try_commit\(|\.mark_aborted\(|release_inherit|\.discard\(' \
    crates/engine/src/run.rs; then
    echo "check_poll_thread: run.rs touches engine state past the session API (above)" >&2
    fail=1
fi

# Zero background threads. Deadlock is detected at the enqueue that closes
# the cycle, victims are journaled and the drain deadline kept by the poll
# thread: nothing under the server's crates starts a thread except the
# reactor's own poll thread, the client-side load and crash drivers, the
# binaries, and `run_plan`'s scoped plan workers (`thread::scope`).
spawns=$(for f in $(find crates/{engine,net,store,sgt,reactor}/src -name '*.rs' \
    ! -path 'crates/net/src/bin/*' ! -name load.rs ! -name crashdrv.rs); do
    non_test "$f"
done | grep -E 'thread::spawn|thread::Builder' |
    grep -v '^crates/reactor/src/lib.rs:.*let thread = std::thread::spawn' || true)
if [ -n "$spawns" ]; then
    echo "$spawns"
    echo "check_poll_thread: a background thread is back (above)" >&2
    fail=1
fi
# ... and neither the engine's session code nor the server sleeps or polls.
if { non_test crates/engine/src/session.rs; non_test crates/net/src/server.rs; } |
    grep -E 'thread::sleep|recv_timeout|_PERIOD'; then
    echo "check_poll_thread: session.rs / server.rs sleeps or polls (above)" >&2
    fail=1
fi

[ "$fail" -eq 0 ] && echo "check_poll_thread: ok"
exit "$fail"
