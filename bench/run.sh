#!/usr/bin/env bash
# Build the benchmark and pass every argument on to it:
#
#   bench/run.sh                      every workload once, untraced then traced
#   bench/run.sh --sets 2             the whole benchmark twice over ten seeds per
#                                     workload; prints both medians and the gap per
#                                     (workload, end-to-end metric), fails when a gap
#                                     or a spread exceeds the metric's bound, and
#                                     records medians, spreads and digests in
#                                     bench/baseline.json
#   bench/run.sh --list               workloads and metrics, with their reasons
set -euo pipefail
exec cargo run --release --offline --quiet \
    --manifest-path "$(dirname "$0")/Cargo.toml" -- "$@"
