#!/usr/bin/env bash
# Builds `soc` (root workspace) and the benchmark (its own workspace),
# then runs the benchmark. Every argument goes to the benchmark:
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--repeat N] [--smoke]
#
# Without --workload all four workloads run. Cargo builds into
# $CARGO_TARGET_DIR (default: target/ at the repository root), the
# benchmark into <that>/benchmark, and span files land in
# <that>/benchmark/trace/. Standard output carries the report; its last
# line is the JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
  -p soc-cli --target-dir "$target" >&2
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" \
  --target-dir "$target/benchmark" >&2

exec "$target/benchmark/release/socbench" \
  --soc "$target/release/soc" --out "$target/benchmark" "$@"
