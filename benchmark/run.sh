#!/usr/bin/env bash
# The repo's benchmark: builds the xft-benchmark package, runs the workloads,
# checks their outputs, prints every metric by name with its unit.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
#
# Without --workload all four workloads run, each in a process of its own
# (peak RSS is per process). Each run ends with one JSON line in the schema
# BENCHMARK.json describes: the end-to-end metrics by default, the per-layer
# metrics with --trace (which also writes benchmark/out/trace-<workload>.jsonl).
# A failed correctness check prints which one and exits non-zero.
set -euo pipefail

# A relative CARGO_TARGET_DIR is relative to where the caller stands.
if [[ -n "${CARGO_TARGET_DIR:-}" && "${CARGO_TARGET_DIR}" != /* ]]; then
    export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
fi
cd "$(dirname "${BASH_SOURCE[0]}")/.."

workloads=(tcp_sat tcp_durable tcp_lone sim_geo_failover)
args=()
while (($#)); do
    case "$1" in
        --workload)
            workloads=("${2:?--workload needs a name}")
            shift 2
            ;;
        *)
            args+=("$1")
            shift
            ;;
    esac
done

# Temporary data dirs go even if a check fails or the run is interrupted.
trap 'rm -rf benchmark/out/data-*' EXIT

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/xft-benchmark"

# The whole process runs on one CPU, the first it is allowed on. On the small
# shared hosts this runs on, threads bouncing between two vCPUs cost ~25 % more
# CPU per op and make every TCP metric drift by +-20 % over minutes with the
# neighbours' load; on one CPU the same runs repeat within a few percent. (Run
# the binary directly for an unpinned measurement.)
pin=()
if command -v taskset >/dev/null 2>&1; then
    cpu="$(taskset -cp $$ | sed 's/.*: *//; s/[,-].*//')"
    pin=(taskset -c "$cpu")
else
    echo "benchmark/run.sh: taskset not found, running unpinned" >&2
fi

for workload in "${workloads[@]}"; do
    ${pin[@]+"${pin[@]}"} "$bin" --workload "$workload" --out benchmark/out ${args[@]+"${args[@]}"}
done
