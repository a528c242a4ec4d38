#!/usr/bin/env bash
# Offline unused-dependency audit: every crate's [dependencies] entry
# must be referenced somewhere in that crate's sources (src/, tests/,
# benches/) as `crate_name::…`, `use crate_name`, or an attribute path.
# Workspace-internal and external deps are treated alike. This is a
# textual heuristic, not a resolver — but it catches the real failure
# mode (a dependency edge nobody imports), and it needs no network.
# A second rule keeps retired crates and their types retired.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
for manifest in crates/*/Cargo.toml; do
    crate_dir=$(dirname "$manifest")
    # Lines between [dependencies] and the next section header.
    deps=$(awk '/^\[dependencies\]/{on=1; next} /^\[/{on=0} on && NF {print $1}' "$manifest" \
        | sed 's/[=.].*//' | sort -u)
    for dep in $deps; do
        ident=${dep//-/_}
        if ! grep -rqE "\b${ident}(::|;| as )" "$crate_dir/src" \
            $( [ -d "$crate_dir/tests" ] && echo "$crate_dir/tests" ) \
            $( [ -d "$crate_dir/benches" ] && echo "$crate_dir/benches" ); then
            echo "check_deps: $manifest declares '$dep' but $crate_dir never references $ident" >&2
            fail=1
        fi
    done
done

# Retired crates stay retired: `nt-telemetry` was folded into `nt-obs`
# (PR 23). No workspace manifest, the workspace lock file, or source file
# may name it again, and the types it duplicated do not come back under
# another name. (`benchmark/Cargo.lock` is pinned with its stale entry;
# cargo prunes it in the working copy on every unlocked build.)
if grep -rnE 'nt[-_]telemetry' Cargo.toml Cargo.lock crates/*/Cargo.toml shims/*/Cargo.toml \
    crates/*/src crates/*/tests crates/*/benches shims src tests examples 2>/dev/null; then
    echo "check_deps: the retired nt-telemetry crate is named above" >&2
    fail=1
fi
if grep -rnE 'TelemetryHandle|PhaseHists|HIST_BOUNDS|fn kind_counter' crates/*/src; then
    echo "check_deps: a retired observability type is back (see above)" >&2
    fail=1
fi

if [ "$fail" -eq 0 ]; then
    echo "check_deps: all declared dependencies are referenced; retired crates stay retired"
fi
exit "$fail"
