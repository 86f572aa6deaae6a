#!/usr/bin/env bash
# Builds the binaries under test (`bitgrep`, `bitgen-serve`) and the
# benchmark from source, then runs one benchmark run:
#
#   bash hostbench/run.sh --workload grep_sparse --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build output goes to
# $CARGO_TARGET_DIR (default: .bench_build); the last line of standard
# output is the run's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
  -p bitgen-serve --bin bitgrep --bin bitgen-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# Not `exec`: the benchmark reads the peak RSS of its own children, and
# a process replacing this shell would inherit the compilers' figures.
"$target/release/hostbench" --bin-dir "$target/release" "$@"
