#!/usr/bin/env bash
# The one command of the benchmark (see README.md next to this file).
#
#   benchmark/run.sh                      every workload, untraced then traced,
#                                         each in a fresh process -> out/results.json
#   benchmark/run.sh --smoke              the same at 1/16 size, every line tagged SMOKE
#   benchmark/run.sh --aa                 two whole sets of this build, compared by the bounds
#   benchmark/run.sh --compare A.json B.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         one run; the last line of stdout is its JSON result
#
# Options of a set: --seed N (default 2016; 1502 is the documented alternate),
# --seconds S (default 10), --reps N (untraced runs per workload, default 1).
#
# It builds the package first (offline, from the committed Cargo.lock), into
# $CARGO_TARGET_DIR when that is set and into benchmark/target otherwise. The
# working directory is left alone, so a relative CARGO_TARGET_DIR means what
# it means to cargo.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/dsv-benchmark"

mode=suite
args=()
for arg in "$@"; do
  case "$arg" in
    --aa) mode=aa ;;
    --compare) mode=compare ;;
    --workload) mode=run; args+=("$arg") ;;
    *) args+=("$arg") ;;
  esac
done
case "$mode" in
  run) exec "$bin" --out "$here/out" "${args[@]}" ;;
  compare) exec "$bin" compare ${args[@]+"${args[@]}"} ;;
  *) exec "$bin" "$mode" --out "$here/out" ${args[@]+"${args[@]}"} ;;
esac
