#!/usr/bin/env bash
# The WAL appends by the round (DESIGN §8h): an append only stages, and the
# stage reaches the file as one extent — one `write(2)` — at the round
# barrier. This gate greps `crates/store/src` so a per-record write cannot
# creep back: in `wal.rs` the file is written in `write_stage` (once) and
# by the header writes of `open` / `reset_to_generation`, nowhere else; the
# only other write in the crate is `write_atomic`'s checkpoint temp file.
set -euo pipefail
cd "$(dirname "$0")/.."

writes='write_all|write_vectored|\.write\(|write!\(|writeln!\('

# `file:fn:line:text` for every write call in a file's non-test code
# (everything above its `#[cfg(test)]` module), with the enclosing fn.
writes_in() {
    awk -v f="$1" -v pat="$writes" '
        /^#\[cfg\(test\)\]/ { exit }
        match($0, /fn [a-z_0-9]+/) { name = substr($0, RSTART + 3, RLENGTH - 3) }
        $0 ~ pat && $0 !~ /^[[:space:]]*\/\// { print f ":" name ":" FNR ":" $0 }
    ' "$1"
}

fail=0
stray=$(for f in crates/store/src/*.rs; do writes_in "$f"; done |
    grep -vE '^crates/store/src/wal\.rs:(open|reset_to_generation|write_stage):' |
    grep -vE '^crates/store/src/lib\.rs:write_atomic:' |
    grep -vE '^crates/store/src/[a-z]+\.rs:fmt:' || true)
if [ -n "$stray" ]; then
    echo "$stray"
    echo "check_wal_writes: a write outside the stage-draining function (above)" >&2
    fail=1
fi

staged=$(writes_in crates/store/src/wal.rs | grep -c ':write_stage:' || true)
if [ "$staged" -ne 1 ]; then
    echo "check_wal_writes: expected exactly one write in Wal::write_stage, found $staged" >&2
    fail=1
fi

[ "$fail" -eq 0 ] && echo "check_wal_writes: ok"
exit "$fail"
