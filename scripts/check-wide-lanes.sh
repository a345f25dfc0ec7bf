#!/usr/bin/env bash
# Checks that a release binary's lane kernels run wide and unfused.
#
# Usage: scripts/check-wide-lanes.sh [BINARY]
#   BINARY defaults to target/release/bench_snapshot, which runs every
#   kernel `spnerf_voxel::lanes::wide` dispatches (build it first with
#   `cargo build --release -p spnerf-bench`).
#
# On an AVX host, `lanes::wide` runs a kernel inside its inner
# `#[target_feature(enable = "avx")]` function `avx`, one instance per
# kernel. Only code the compiler inlines into that instance is compiled
# for AVX: a kernel left out of line still computes the same bits, at
# baseline width, so no test notices. This script disassembles BINARY and
# fails (exit 1) when
#   * any fused multiply-add (vfmadd, vfmsub, vfnmadd, vfnmsub) appears:
#     the lane kernels must round twice, as their scalar oracles do;
#   * no instance of `lanes::wide::avx` is found; or
#   * an instance contains no packed ymm arithmetic: its kernel was not
#     inlined into the AVX clone.
# Needs objdump (GNU binutils) and an x86-64 BINARY with its symbol table.
set -euo pipefail

bin=${1:-target/release/bench_snapshot}
[ -f "$bin" ] || { echo "check-wide-lanes: no binary at $bin" >&2; exit 2; }
dis=$(mktemp)
trap 'rm -f "$dis"' EXIT
objdump -d --no-show-raw-insn -C "$bin" > "$dis"

status=0
fused=$(grep -cE $'\tvfn?m(add|sub)' "$dis" || true)
if [ "$fused" -ne 0 ]; then
  echo "check-wide-lanes: $fused fused multiply-add instruction(s) in $bin:"
  grep -E $'\tvfn?m(add|sub)' "$dis" | head -n 5
  status=1
fi

# Pass 1 maps each instance's address to the function that calls it;
# pass 2 counts packed ymm arithmetic inside each instance.
clone='spnerf_voxel::lanes::wide::avx'
awk -v clone="$clone" '
  function flush() {
    if (inside) {
      n++
      caller = (addr in callers) ? callers[addr] : "no direct caller"
      printf "  %s <%s> (from %s): %d packed ymm arithmetic instructions\n", addr, clone, caller, wide
      if (wide == 0) bad++
    }
    inside = 0
  }
  /^[0-9a-f]+ <.*>:$/ {
    fn = substr($0, index($0, "<") + 1); sub(/>:$/, "", fn)
    if (NR == FNR) { current = fn; next }
    flush()
    addr = $1; sub(/^0+/, "", addr)
    inside = (fn == clone); wide = 0
    next
  }
  NR == FNR {
    if (index($0, "<" clone ">") && $0 ~ /\t(call|jmp) /) {
      target = $0; sub(/.*\t(call|jmp) +/, "", target); sub(/ .*/, "", target)
      callers[target] = current
    }
    next
  }
  inside && $0 ~ /\tv(add|sub|mul|div|min|max)ps +.*%ymm/ { wide++ }
  END {
    flush()
    if (n == 0) { printf "check-wide-lanes: no instance of %s found\n", clone; exit 1 }
    if (bad > 0) { printf "check-wide-lanes: %d of %d instance(s) run at baseline width\n", bad, n; exit 1 }
    printf "check-wide-lanes: %d instance(s) of %s, all with ymm arithmetic\n", n, clone
  }
' "$dis" "$dis" || status=1

[ "$status" -eq 0 ] && echo "check-wide-lanes: no fused multiply-add in $bin"
exit "$status"
