#!/usr/bin/env bash
# Build the benchmark (offline, release) and run one workload in one process:
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
#
# Workloads: sim-optimistic, sim-abort, thr-open, thr-durable. The last line
# of standard output is the result as one JSON object; everything cargo
# prints goes to standard error. Output files and durable logs go under
# benchmark/out/. Exits non-zero if the build or a correctness check fails.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/o2pc-benchmark" --out-dir "$here/out" "$@"
