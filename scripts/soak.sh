#!/bin/sh
# soak.sh — rerun the crash-torture tests many times and count failures.
#
#   SOAK=200 sh scripts/soak.sh
#
# Each torture test is deterministic per seed, but background jobs
# interleave differently on every run, so a rare lost-write bug shows up
# only as an occasional failure. The script runs each test SOAK times
# (default 200), prints how many runs failed, and exits non-zero on any
# failure.
set -u

GO=${GO:-go}
SOAK=${SOAK:-200}
repo=$(cd "$(dirname "$0")/.." && pwd)
cd "$repo" || exit 1

total=0
for spec in core:TestCrashTorture core:TestCrashTortureValueLog shard:TestShardTortureSeeds; do
    pkg=${spec%%:*}
    name=${spec#*:}
    out=$("$GO" test "./internal/$pkg" -run "^$name\$" -count="$SOAK" -v 2>&1)
    # Count passes, not failures: a run cut short by a panic or a
    # build error never prints its own FAIL line.
    passes=$(printf '%s\n' "$out" | grep -c "^--- PASS: $name ")
    fails=$((SOAK - passes))
    echo "soak: $name: $fails of $SOAK runs failed"
    # go test -v prints a failing run's fatal line just before its FAIL.
    printf '%s\n' "$out" | grep -B1 "^--- FAIL: $name " | grep -v '^--'
    total=$((total + fails))
done
[ "$total" -eq 0 ]
