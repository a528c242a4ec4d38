#!/usr/bin/env bash
# The reactor's liveness argument (DESIGN §8j) is that nothing on the poll
# thread ever sleeps or waits on another thread, except the one
# `wait_durable` barrier per round. This gate greps the code that runs
# there — the reactor crate and nt-net's per-connection service — for the
# calls that would break it, and checks that what the run-to-completion
# reactor replaced stays deleted.
set -euo pipefail
cd "$(dirname "$0")/.."

poll_thread=(crates/reactor/src/lib.rs crates/reactor/src/buf.rs
    crates/reactor/src/waker.rs crates/net/src/front_reactor.rs)
blocking='thread::sleep|Condvar|wait_timeout|wait_while|\.recv\(\)|recv_timeout|\.park\(|\.join\(\)'

fail=0
# `ReactorHandle::join` is the embedder's side of the thread, not the loop.
if grep -nE "$blocking" "${poll_thread[@]}" | grep -v 'self\.thread\.join()'; then
    echo "check_poll_thread: a blocking call on the poll thread (above)" >&2
    fail=1
fi

# The blocking session/certifier entry points have resumable twins; the
# service must use those (it passes a wake handle to every step).
if grep -nE 'session\.access\(|cert_json\(|\.drain\(\);' crates/net/src/front_reactor.rs; then
    echo "check_poll_thread: front_reactor.rs calls a blocking entry point" >&2
    fail=1
fi

barriers=$(grep -c 'pay_durability(' crates/net/src/front_reactor.rs || true)
if [ "$barriers" -ne 1 ]; then
    echo "check_poll_thread: expected exactly one durability barrier call" \
        "site in front_reactor.rs (Service::flush), found $barriers" >&2
    fail=1
fi

if grep -rnE 'fn worker_loop|WorkerMsg|conn_workers' crates/; then
    echo "check_poll_thread: the executor pool is back (above)" >&2
    fail=1
fi

[ "$fail" -eq 0 ] && echo "check_poll_thread: ok"
exit "$fail"
