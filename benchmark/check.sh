#!/usr/bin/env bash
# Gate for the benchmark package itself; the hook a CI script calls
# (`benchmark/check.sh`). Formatting, lints, the unit tests (medians and
# percentiles, the /proc thread-group parser, the op generator's determinism,
# the metric registry against BENCHMARK.json) and a smoke run of all four
# workloads, untraced and traced, with every check on.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
cargo fmt --manifest-path "$manifest" -- --check
cargo clippy --offline --release --all-targets --manifest-path "$manifest" -- -D warnings
cargo test --offline --release --quiet --manifest-path "$manifest"
"$here/run.sh" --smoke
"$here/run.sh" --smoke --trace
echo "benchmark/check.sh: ok"
