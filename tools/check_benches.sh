#!/usr/bin/env bash
# Every BENCH_*.json artifact named in EXPERIMENTS.md must be committed
# at the repo root and must parse as JSON — a measured table in the docs
# with no backing artifact (or a corrupt one) fails CI.
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

# The engine and net sweeps report tail latency, not just throughput:
# every row must carry p50/p95/p99 percentile fields (E18 discipline).
check_percentiles() {
    local file=$1
    shift
    python3 - "$file" "$@" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rows = doc["rows"]
assert rows, f"{sys.argv[1]}: empty rows"
for prefix in sys.argv[2:]:
    for q in ("p50", "p95", "p99"):
        key = f"{prefix}_{q}"
        for row in rows:
            assert key in row, f"{sys.argv[1]}: row missing {key}"
EOF
}
for spec in "BENCH_engine.json top_us" "BENCH_net.json request_us top_us" \
    "BENCH_store.json request_us"; do
    # shellcheck disable=SC2086
    if check_percentiles $spec; then
        echo "check_benches: ${spec%% *} percentiles ok"
    else
        echo "check_benches: ${spec%% *} rows lack latency percentiles" >&2
        fail=1
    fi
done

# The durability sweep's whole point is the recovery gate: every cell
# must have certified both live and after a reopen of its directory.
if python3 - <<'EOF'
import json
doc = json.load(open("BENCH_store.json"))
for row in doc["rows"]:
    assert row["certified"], f"{row['mode']}: live run failed certification"
    assert row["reopen_certified"], f"{row['mode']}: recovery failed certification"
    assert row["reopen_history_len"] > 0, f"{row['mode']}: empty recovered history"
EOF
then
    echo "check_benches: BENCH_store.json recovery gate ok"
else
    echo "check_benches: BENCH_store.json rows failed the recovery gate" >&2
    fail=1
fi

# The live-certifier sweep (E20): every live cell must have certified
# ok with an advanced watermark, and the soak must show the watermark GC
# holding the resident graph far below the total work processed. The
# recording thread steps the certifier, so its whole cost lands in the
# throughput delta on every host: one limit. The cells are 64-top,
# ~7 ms runs whose overhead repeats within -12..+27 % (EXPERIMENTS.md
# E20); 40 % is above that noise and well below the parked-certifier
# figures (31-37 %, gated at 60 %) this gate used to admit.
if python3 - <<'EOF'
import json
doc = json.load(open("BENCH_sgt.json"))
limit = 40.0
for row in doc["rows"]:
    c = row["connections"]
    assert row["cert_ok"], f"{c} conns: live certifier reported a violation"
    assert row["watermark"] > 0, f"{c} conns: watermark never advanced"
    assert row["overhead_pct"] < limit, (
        f"{c} conns: {row['overhead_pct']:.1f}% overhead exceeds {limit}%")
soak = doc["soak"]
assert soak["watermark_end"] > soak["watermark_start"], \
    "soak: watermark never advanced"
assert soak["max_resident_nodes"] < soak["tops_total"], (
    f"soak: resident graph ({soak['max_resident_nodes']} nodes) grew to "
    f"the total top count ({soak['tops_total']}) — GC is not pruning")
EOF
then
    echo "check_benches: BENCH_sgt.json live-certify gate ok"
else
    echo "check_benches: BENCH_sgt.json failed the live-certify gate" >&2
    fail=1
fi

# The reactor sweep (E21): every cell — E16 rows, E21 batched rows, and
# the group-commit cell — must have certified over the wire, and the
# batched sweep must hold its throughput out to 64 connections. On a
# multi-core host the reactor should be flat-to-monotone (tput@64 >=
# tput@8); a single core has no parallelism to expose, so only a bounded
# decline is required there (see EXPERIMENTS.md E21). The batched
# group-commit cell must beat the unbatched fsync row of E19 on the
# same host (again with single-core slack for run-to-run noise).
if python3 - <<'EOF'
import json
doc = json.load(open("BENCH_net.json"))
cores = doc["host_cores"]
for row in doc["rows"] + doc["e21_rows"] + [doc["group_commit"]]:
    c = row["connections"]
    assert row["certified"], f"{c} conns: cell failed wire certification"
    assert row["committed_tops"] > 0, f"{c} conns: cell committed nothing"
    assert row["gave_up"] == 0, f"{c} conns: tops gave up"
by_conns = {r["connections"]: r for r in doc["e21_rows"]}
assert 8 in by_conns and 64 in by_conns, "E21 sweep missing endpoints"
t8 = by_conns[8]["throughput_tps"]
t64 = by_conns[64]["throughput_tps"]
floor = 1.0 if cores > 1 else 0.25
assert t64 >= t8 * floor, (
    f"E21: tput@64 ({t64:.0f} tps) fell below {floor:.2f}x tput@8 "
    f"({t8:.0f} tps) on a {cores}-core host")
store = json.load(open("BENCH_store.json"))
unbatched = next(r for r in store["rows"] if r["mode"] == "fsync")
gc = doc["group_commit"]["throughput_tps"]
margin = 1.0 if cores > 1 else 0.7
assert gc >= unbatched["throughput_tps"] * margin, (
    f"E21: batched group-commit ({gc:.0f} tps) did not beat the "
    f"unbatched fsync row ({unbatched['throughput_tps']:.0f} tps, "
    f"margin {margin:.2f} on {cores} cores)")
EOF
then
    echo "check_benches: BENCH_net.json reactor gate ok"
else
    echo "check_benches: BENCH_net.json failed the reactor gate" >&2
    fail=1
fi
exit "$fail"
