#!/usr/bin/env bash
# Checks that this tree prints byte-identical deterministic output to
# another checkout, usually a clone of the parent commit. A refactor that
# claims "no output changes" runs it before it is merged.
#
#   scripts/same-outputs.sh <parent-checkout>
#
# Builds both trees in release (each into its own `target/`), then runs from
# each tree's root and diffs stdout, stderr and exit status of:
#   * the ten figure/table binaries at `--quick`;
#   * `fig9_temporal --quick --corpus`;
#   * `fig9_temporal` and `fig2_profiling` at `--quick --corpus --source
#     baked`, the deferred shader through the warp pass and the stills;
#   * `fig9_temporal` and `fig2_profiling` at `--quick --corpus --skip-mode
#     mip`, the runs that march through the occupancy pyramid;
#   * `spnerf_serve --quick --seed 7`;
#   * `spnerf_serve --quick --replay crates/serve/tests/data/smoke.trace`;
#   * the facade examples whose output is deterministic: `quickstart`,
#     `accelerator_sim`, `design_space` and `dram_traffic`.
# None of these prints wall-clock time, so any difference is a real one.
#
# Then it builds each tree's perfbench (`perfbench/`, its own workspace) and
# runs every workload for one second on seeds 1 and 20261016, each run from
# a fresh temporary directory, so no existing determinism ledger is read or
# touched. Every ledger key both sides wrote (the stills' view images, stats
# and accelerator digests, the orbit digests, the serve report digests) must
# hold the same value, and each run's `correct` and `failed` must match.
# This is the one cross-build check at the paper's fidelity (side 128, 128
# samples per ray).
#
# Exit status: 0 when every output matches, 1 on any difference, 2 on a
# usage or build error.
set -euo pipefail

if [ "$#" -ne 1 ] || [ ! -f "$1/Cargo.toml" ]; then
    echo "usage: $0 <parent-checkout>" >&2
    exit 2
fi
here="$(cd "$(dirname "$0")/.." && pwd)"
there="$(cd "$1" && pwd)"
if [ "$here" = "$there" ]; then
    echo "same-outputs: <parent-checkout> is this tree" >&2
    exit 2
fi

FIGURES="table1_platforms fig2_profiling fig6_memory_psnr fig7_sweeps fig8_formats
    fig8_speedup_energy fig9_area_power fig9_temporal table2_comparison ablation_preprocess"
EXAMPLES="quickstart accelerator_sim design_space dram_traffic"
WORKLOADS="paper-stills orbit-warp serve-churn"
SEEDS="1 20261016"

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# run NAME BIN ARGS...: records one run's stdout, stderr and exit status
# under $dir, running from the root of $tree (both set by the loop below).
run() {
    local name="$1" bin="$2"
    shift 2
    local status=0
    (cd "$tree" && "./target/release/$bin" "$@") >"$dir/$name.out" 2>"$dir/$name.err" || status=$?
    echo "$status" >"$dir/$name.status"
}

for side in parent change; do
    if [ "$side" = parent ]; then tree="$there"; else tree="$here"; fi
    dir="$out/$side"
    mkdir -p "$dir"
    echo "same-outputs: building $tree" >&2
    (cd "$tree" && cargo build --release -q --bins --examples --target-dir "$tree/target") || exit 2
    for bin in $FIGURES; do
        run "$bin" "$bin" --quick
    done
    run fig9_temporal-corpus fig9_temporal --quick --corpus
    run fig9_temporal-corpus-baked fig9_temporal --quick --corpus --source baked
    run fig2_profiling-corpus-baked fig2_profiling --quick --corpus --source baked
    run fig9_temporal-corpus-mip fig9_temporal --quick --corpus --skip-mode mip
    run fig2_profiling-corpus-mip fig2_profiling --quick --corpus --skip-mode mip
    run serve-seed7 spnerf_serve --quick --seed 7
    run serve-smoke-replay spnerf_serve --quick --replay crates/serve/tests/data/smoke.trace
    for example in $EXAMPLES; do
        run "example-$example" "examples/$example"
    done

    echo "same-outputs: building perfbench in $tree" >&2
    cargo build --release -q --offline --manifest-path "$tree/perfbench/Cargo.toml" || exit 2
    for workload in $WORKLOADS; do
        for seed in $SEEDS; do
            cwd="$(mktemp -d "$out/perfbench.XXXXXX")"
            (cd "$cwd" && "$tree/perfbench/target/release/perfbench" --workload "$workload" \
                --seed "$seed" --seconds 1 --trace 0) >"$cwd/stdout" 2>"$cwd/stderr" || {
                echo "same-outputs: perfbench $workload seed $seed failed in $tree" >&2
                cat "$cwd/stderr" >&2
                exit 2
            }
            # The run's check outcome is compared like any other output.
            tail -n 1 "$cwd/stdout" | grep -o '"correct": [a-z]*, "attempted": [0-9]*, "failed": [0-9]*' |
                sed 's/"attempted": [0-9]*, //' >"$dir/perfbench-$workload-seed$seed.checks" || true
            # Key every pin by its run, so equal keys of different seeds stay apart.
            cat "$cwd"/.bench_trace/ledger-*.tsv |
                sed "s|^|$workload/seed$seed:|" >>"$out/ledger-$side.tsv"
        done
    done
done

differ=0
for f in "$out/parent"/*; do
    name="$(basename "$f")"
    if ! diff -u --label "parent/$name" --label "change/$name" "$f" "$out/change/$name"; then
        differ=$((differ + 1))
    fi
done
total=$(find "$out/parent" -type f | wc -l)

# Ledger keys both sides pinned, with their two values.
export LC_ALL=C
join -t "$(printf '\t')" <(sort -t "$(printf '\t')" -k1,1 "$out/ledger-parent.tsv") \
    <(sort -t "$(printf '\t')" -k1,1 "$out/ledger-change.tsv") >"$out/ledger-shared.tsv"
shared=$(wc -l <"$out/ledger-shared.tsv")
ledger_differ=$(awk -F '\t' '$2 != $3 { print "ledger: " $1 ": parent " $2 ", change " $3 > "/dev/stderr"; n++ }
    END { print n + 0 }' "$out/ledger-shared.tsv")
if [ "$shared" -eq 0 ]; then
    echo "same-outputs: the perfbench runs share no ledger key, so nothing was compared" >&2
    exit 1
fi

if [ "$differ" -ne 0 ] || [ "$ledger_differ" -ne 0 ]; then
    echo "same-outputs: $differ of $total outputs and $ledger_differ of $shared shared" \
        "perfbench ledger keys differ" >&2
    exit 1
fi
echo "same-outputs: all $total outputs are byte-identical and all $shared shared perfbench" \
    "ledger keys are equal" >&2
