#!/bin/sh
# Dead-code census: which external frlfi:: functions does no shipped binary
# link?
#
# Configures a scratch build (build-census/ at the repository root) with
# -fno-inline -ffunction-sections -fdata-sections and links with
# -Wl,--gc-sections, so the linker drops every function section no
# reachable code references.
# It builds the paper benches (bench_fig*, bench_table*, bench_ablation*,
# bench_datatype*), the examples and frlbench, then compares the global
# frlfi:: text symbols of libfrlfi.a against the symbols left in those
# binaries, and prints "N of M frlfi:: functions unreached" plus the list.
#
# N is exact: -fno-inline keeps every called function out of line, so each
# function the binaries run leaves its own symbol behind (without it, a
# function inlined into all of its callers would count as unreached).
# The tests are deliberately not counted as users.
# The script only reports and always exits 0 once the build succeeds; CI's
# static-analysis job fails when N rises above the ceiling it pins.
#
# Usage: tools/census.sh   (from anywhere; takes no arguments)

set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/build-census"
jobs=$(nproc 2>/dev/null || echo 2)
flags="-fno-inline -ffunction-sections -fdata-sections"
link="-Wl,--gc-sections"

cmake -S "$root" -B "$build/all" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="$flags" -DCMAKE_EXE_LINKER_FLAGS="$link" \
  -DFRLFI_BUILD_TESTS=OFF >/dev/null
cmake --build "$build/all" -j "$jobs" >/dev/null
cmake -S "$root/frlbench" -B "$build/frlbench" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="$flags" -DCMAKE_EXE_LINKER_FLAGS="$link" >/dev/null
cmake --build "$build/frlbench" -j "$jobs" --target frlbench >/dev/null

# Demangled frlfi:: function names from `nm` lines of the given symbol
# types; target_clones variants ("[clone .avx2]") fold into their base.
functions() {
  awk -v types="$1" 'index(types, $2) && $3 ~ /^frlfi::/ {
      $1 = ""; $2 = ""; sub(/^  /, ""); sub(/ \[clone [^]]*\]$/, ""); print
    }' | sort -u
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

nm -C --defined-only "$build/all/libfrlfi.a" 2>/dev/null | functions Ti \
  >"$tmp/defined"
for bin in "$build"/all/bench_fig* "$build"/all/bench_table* \
           "$build"/all/bench_ablation* "$build"/all/bench_datatype* \
           "$build"/all/example_* "$build/frlbench/frlbench"; do
  nm -C --defined-only "$bin" | functions Tti
done | sort -u >"$tmp/reached"

comm -23 "$tmp/defined" "$tmp/reached" >"$tmp/unreached"
unreached=$(wc -l <"$tmp/unreached")
defined=$(wc -l <"$tmp/defined")
echo "$unreached of $defined frlfi:: functions unreached"
cat "$tmp/unreached"
