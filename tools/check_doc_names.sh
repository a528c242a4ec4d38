#!/usr/bin/env bash
# DESIGN.md and README.md state the present: every backticked identifier
# in them must name something in the code. A name counts as present when
# each of its `::` segments occurs as a word somewhere under crates/,
# tools/, benchmark/src, shims/ or .github/ — code, comments, manifests,
# CI — or in the root package (src/, tests/, examples/, Cargo.toml).
# What a deleted name meant belongs in CHANGES.md, not here.
#
# Only spans that look like one identifier are checked (`Foo`, `foo_bar`,
# `nt_net::load`, `Held::abort()`, `nt-serve`); prose, commands, flags,
# numbers and one-letter symbols (`H`, `T`) in backticks are not. Names
# from outside the workspace go in ALLOW.
#
# Usage: tools/check_doc_names.sh [file.md ...]   (default: DESIGN.md README.md)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
    set -- DESIGN.md README.md
fi

python3 - "$@" <<'EOF'
import os
import re
import sys

# Outside names: the standard library, the OS, other crates and tools.
ALLOW = {
    "BinaryHeap", "parking_lot", "malloc_stats", "tokio", "fdatasync",
    "EAGAIN", "epoll", "mio", "crossbeam", "criterion", "hdrhistogram",
    "fsync", "sched_yield", "glibc", "SIGKILL", "SIGTERM", "perf",
}
ROOTS = ["crates", "tools", "benchmark/src", "shims", ".github", "src", "tests", "examples"]
IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(-[A-Za-z0-9_]+)*(::[A-Za-z_][A-Za-z0-9_]*)*(\(\))?$")

words = set()

def read_words(path):
    with open(path, errors="ignore") as f:
        words.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*", f.read()))

read_words("Cargo.toml")
for root in ROOTS:
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "target"]
        for name in filenames:
            words.update((name, os.path.splitext(name)[0]))
            read_words(os.path.join(dirpath, name))
# A package `nested-sgt` is the crate `nested_sgt`.
words |= {w.replace("-", "_") for w in words if "-" in w}

missing = []
for doc in sys.argv[1:]:
    with open(doc) as f:
        text = f.read()
    # Fenced blocks are shown code and output, not names.
    text = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    for line in text.splitlines():
        for span in re.findall(r"`([^`\n]+)`", line):
            if len(span) == 1 or not IDENT.match(span):
                continue
            segments = span.removesuffix("()").split("::")
            if all(s in words or s in ALLOW for s in segments):
                continue
            missing.append(f"{doc}: `{span}` names nothing in {', '.join(ROOTS)}")

if missing:
    print("\n".join(sorted(set(missing))), file=sys.stderr)
    print(f"check_doc_names: {len(set(missing))} stale name(s)", file=sys.stderr)
    sys.exit(1)
print("check_doc_names: ok")
EOF
