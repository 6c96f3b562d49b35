#!/usr/bin/env bash
# ci/hotpath.sh [--check FILE [--base REV]]
#
# The hot path's fingerprint: builds the plain leg (telemetry compiled out)
# of the workspace's `harness` binary and prints, for each instance of the
# hot functions below, its size in bytes and a hash of its disassembly with
# every address masked — absolute addresses, `%rip` displacements and
# everything `objdump` puts after `#` (GOT slots and constant names move
# with any change anywhere in the binary). Branch targets inside a function
# stay as `<name+offset>`, so a reordered statement moves the hash even
# when the size does not. The first line is `rustc -V`: the fingerprint is
# a property of the source and the compiler. Source paths are remapped, so
# two checkouts at different paths print the same file.
#
# Without arguments it prints the fingerprint. With `--check FILE` it
# compares it with FILE (`docs/bench/HOTPATH.txt`): equal passes; on
# another `rustc` it skips with a notice; different fails, unless FILE
# itself differs from its copy at `--base REV` — a change that moved the
# hot path and recorded it.
#
# The build goes to target/hotpath (HOTPATH_TARGET overrides it), apart
# from every other build's flags.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${HOTPATH_TARGET:-$root/target/hotpath}"

check="" base=""
while [ $# -gt 0 ]; do
    case "$1" in
        --check) check="${2:?--check needs a file}"; shift 2 ;;
        --base) base="${2:-}"; shift 2 ;;
        *) echo "hotpath.sh: takes [--check FILE [--base REV]]" >&2; exit 2 ;;
    esac
done

# The functions, by demangled name: the executor and the spawn path, the
# counter and SNZI steps, the out-set's add, finish and slot claim (their
# exclusive instances inline into the future path below), a future's
# completion, the pool's push and run loop (the deque's push, pop and steal
# inline into them), and the recycler's two cold paths (its fast paths
# inline into every caller above).
functions=(
    'spdag::dag::execute_vertex'
    'spdag::dag::Ctx<C>::spawn'
    '<incounter::dyn_family::DynSnzi as incounter::CounterFamily>::increment_with'
    '<incounter::dyn_family::DynSnzi as incounter::CounterFamily>::decrement_with'
    'snzi::tree::SnziTree::arrive_with'
    'snzi::tree::SnziTree::depart_with'
    'snzi::node::node_arrive'
    'snzi::node::node_depart'
    'outset::tree::TreeOutsetObj::add'
    'outset::tree::TreeOutsetObj::finish'
    'outset::tree::TreeOutsetObj::claim_slot'
    'spdag::futures::sweep'
    'spdag::futures::sweep::{{closure}}'
    'spdag::vertex::Vertex<C>::build_completion_vertex'
    'sched::pool::WorkerCtx<T>::push'
    'sched::pool::WorkerCtx<T>::push_batch'
    'sched::pool::participate'
    'sched::recycle::refill'
    'sched::recycle::spill'
)

fingerprint() {
    RUSTFLAGS="--remap-path-prefix=$root=." cargo build --offline --release --quiet \
        --no-default-features -p dynsnzi-bench --bin harness --target-dir "$target" >&2
    local bin="$target/release/harness" syms
    syms="$(nm -C -S --defined-only "$bin")"
    rustc -V
    local name
    for name in "${functions[@]}"; do
        local found=0 addr size
        # `nm -S`: address, size, type, name.
        while read -r addr size _; do
            found=1
            local hash
            hash="$(objdump -d --no-show-raw-insn -C \
                    --start-address="0x$addr" --stop-address="$((0x$addr + 0x$size))" "$bin" |
                sed -n 's/^ *[0-9a-f]*:\t//p' |
                sed -E 's/ *#.*//; s/-?0x[0-9a-f]+\(%rip\)/RIP/g; s/\b[0-9a-f]+ </</g' |
                sha256sum | cut -c1-16)"
            printf '%6d %s %s\n' "$((0x$size))" "$hash" "$name"
        done < <(awk -v n="$name" '{ s = $0; sub(/^[^ ]+ [^ ]+ [^ ]+ /, "", s) } s == n' <<<"$syms" |
            sort -k2)
        [ "$found" = 1 ] || printf '%6s %s %s\n' - inlined "$name"
    done | sort -k3 -k1n -k2
}

if [ -z "$check" ]; then
    fingerprint
    exit 0
fi
want_rustc="$(head -n1 "$check")"
if [ "$(rustc -V)" != "$want_rustc" ]; then
    echo "::notice::hotpath.sh: $check was taken with '$want_rustc', this is '$(rustc -V)': skipped"
    exit 0
fi
now="$(mktemp)"
trap 'rm -f "$now"' EXIT
fingerprint >"$now"
if cmp -s "$check" "$now"; then
    echo "hotpath.sh: the hot path matches $check"
    exit 0
fi
diff -u "$check" "$now" || true
if [ -n "$base" ] && ! git -C "$root" diff --quiet "$base" HEAD -- "$check"; then
    echo "::notice::hotpath.sh: the hot path moved, and the change updated $check"
    exit 0
fi
echo "::error::hotpath.sh: the hot path moved; rerun ci/hotpath.sh > $check and say why" >&2
exit 1
