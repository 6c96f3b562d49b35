#!/usr/bin/env bash
# The whole benchmark in one command:
#   benchmark/run.sh [--runs N] [--seed S] [--seconds T] [--workers W] [--tag NAME]
# Builds both feature legs, measures the five workloads end to end (each
# run in its own process, N runs per workload with seeds S..S+N-1), then
# takes the traced run of each workload (which takes the price list and an
# untraced reference first), folds everything into
# benchmark/out/BENCH_<tag>.json (tag defaults to the git revision) and
# prints every metric by name with its unit. Exits non-zero if any run
# failed a check.
set -uo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"

runs=1 seed=1 seconds=20 workers="" tag=""
while [ $# -gt 0 ]; do
    case "$1" in
        --runs) runs="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        --workers) workers="$2" ;;
        --tag) tag="$2" ;;
        *) echo "run.sh: unknown option $1" >&2; exit 2 ;;
    esac
    shift 2
done

cores="$(nproc)"
if [ -n "$workers" ] && [ "$workers" -gt "$cores" ]; then
    echo "run.sh: --workers $workers on a machine with $cores cores would measure oversubscription" >&2
    exit 2
fi
rev="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ "$rev" != unknown ] && [ -n "$(git -C "$here" status --porcelain 2>/dev/null)" ]; then
    rev="$rev-dirty"
fi
rustc="$(rustc --version)"
tag="${tag:-$rev}"

plain="$(bash "$here/build.sh" plain)" || exit 1
telemetry="$(bash "$here/build.sh" telemetry)" || exit 1
common=(--rev "$rev" --rustc "$rustc" ${workers:+--workers "$workers"})

mkdir -p "$out"
files=()
failed=0
workloads=(fib fanin_grain fanout_broadcast pipeline_stages await_chain)
for w in "${workloads[@]}"; do
    for ((r = 0; r < runs; r++)); do
        s=$((seed + r))
        f="$out/run_${w}_${s}.json"
        echo "== run $w seed $s" >&2
        "$plain" run --workload "$w" --seed "$s" --seconds "$seconds" --out "$f" "${common[@]}" \
            >/dev/null || failed=1
        files+=("$f")
    done
done
for w in "${workloads[@]}"; do
    f="$out/traced_${w}.json"
    echo "== trace $w" >&2
    "$telemetry" trace --workload "$w" --seed "$seed" --seconds "$seconds" --plain "$plain" \
        --outdir "$out" --out "$f" "${common[@]}" >/dev/null || failed=1
    files+=("$f")
done

"$plain" merge --out "$out/BENCH_${tag}.json" "${files[@]}" || failed=1
echo "run.sh: wrote $out/BENCH_${tag}.json" >&2
exit "$failed"
