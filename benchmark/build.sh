#!/usr/bin/env bash
# benchmark/build.sh <plain|telemetry>
# Builds one feature leg from source (a no-op once built) into
# $CARGO_TARGET_DIR/<leg> (default benchmark/target/<leg>) and prints the path
# of its `bench` binary. One target directory per leg: switching features in
# one directory would relink the binary on every switch.
#
# Every function of every crate starts on a 64-byte boundary. Where a small
# hot function falls relative to a cache line moves its speed, and any change
# anywhere in the program shifts the functions after it: two builds of this
# package that differed in an unrelated function put `work_efficiency` on `fib`
# at 0.0067 and 0.0083. Aligned, two such builds gave 0.00765 and 0.00756, so a
# later change is compared with its parent and not with the linker's layout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# The traced run starts the other leg's binary by this path.
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

case "${1:-}" in
    plain) features=() ;;
    telemetry) features=(--features telemetry) ;;
    *) echo "build.sh: takes plain or telemetry" >&2; exit 2 ;;
esac
RUSTFLAGS="${RUSTFLAGS:-} -C llvm-args=-align-all-functions=6" \
    cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" \
    --target-dir "$target/$1" ${features[@]+"${features[@]}"} >&2
echo "$target/$1/release/bench"
