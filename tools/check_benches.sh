#!/usr/bin/env bash
# Every BENCH_*.json artifact named in EXPERIMENTS.md must be committed
# at the repo root and must parse as JSON — a measured table in the docs
# with no backing artifact (or a corrupt one) fails CI. Below that: the
# engine sweep's percentile fields, and the retired benches' absence.
set -euo pipefail
cd "$(dirname "$0")/.."

mapfile -t benches < <(grep -o 'BENCH_[A-Za-z0-9_]*\.json' EXPERIMENTS.md | sort -u)
if [ "${#benches[@]}" -eq 0 ]; then
    echo "check_benches: EXPERIMENTS.md names no BENCH_*.json artifacts" >&2
    exit 1
fi

fail=0
for b in "${benches[@]}"; do
    if [ ! -f "$b" ]; then
        echo "check_benches: EXPERIMENTS.md names $b but it is not committed" >&2
        fail=1
        continue
    fi
    if ! python3 -m json.tool "$b" > /dev/null 2>&1; then
        echo "check_benches: $b is not valid JSON" >&2
        fail=1
        continue
    fi
    # Existing-but-untracked artifacts pass locally yet vanish in a
    # fresh checkout (a gitignore pattern can silently swallow them).
    if git rev-parse --is-inside-work-tree > /dev/null 2>&1 \
        && ! git ls-files --error-unmatch "$b" > /dev/null 2>&1; then
        echo "check_benches: $b exists but is not tracked by git (gitignored?)" >&2
        fail=1
        continue
    fi
    echo "check_benches: $b ok"
done

# The engine sweep reports tail latency, not just throughput: every row
# must carry p50/p95/p99 percentile fields (E18 discipline).
if python3 - <<'EOF'
import json
doc = json.load(open("BENCH_engine.json"))
rows = doc["rows"]
assert rows, "BENCH_engine.json: empty rows"
for row in rows:
    for q in ("p50", "p95", "p99"):
        assert f"top_us_{q}" in row, f"BENCH_engine.json: row missing top_us_{q}"
EOF
then
    echo "check_benches: BENCH_engine.json percentiles ok"
else
    echo "check_benches: BENCH_engine.json rows lack latency percentiles" >&2
    fail=1
fi

# Retired benches stay retired: the server-path sweeps (net, sgt, store)
# were single-run recordings whose questions the pinned benchmark
# (BENCHMARK.json) answers, and whose correctness checks are tier-1 tests
# (EXPERIMENTS.md E16, E19-E21). No source, artifact or .gitignore
# whitelist for them comes back.
for name in net sgt store; do
    if [ -n "$(find crates/bench -name "${name}_bench.rs")" ] || [ -e "BENCH_${name}.json" ] \
        || grep -q "BENCH_${name}\.json" .gitignore; then
        echo "check_benches: the retired ${name}_bench (or its artifact) is back" >&2
        fail=1
    fi
done
exit "$fail"
