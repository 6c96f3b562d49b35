#!/usr/bin/env bash
# The entry BENCHMARK.json names:
#   bash benchmark/bench.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Builds the feature legs it needs (build.sh), then runs the end-to-end
# measurement (--trace 0) or the traced one (--trace 1), whose last line of
# standard output is the result. Everything it writes stays under
# CARGO_TARGET_DIR (default benchmark/target) and benchmark/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

trace=0
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --trace) trace="${2:?--trace needs 0 or 1}"; shift 2 ;;
        *) pass+=("$1"); shift ;;
    esac
done

plain="$(bash "$here/build.sh" plain)"
case "$trace" in
    0) exec "$plain" run "${pass[@]}" ;;
    1) telemetry="$(bash "$here/build.sh" telemetry)"
       exec "$telemetry" trace --plain "$plain" --outdir "$here/out" "${pass[@]}" ;;
    *) echo "bench.sh: --trace takes 0 or 1" >&2; exit 2 ;;
esac
