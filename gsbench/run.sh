#!/usr/bin/env bash
# Builds the benchmark from source and runs it; all arguments pass through.
# Run from anywhere inside a checkout:
#
#   bash gsbench/run.sh --workload suite-serial --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and run scratch files go under
# $CARGO_TARGET_DIR (default .bench_build) at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd gsbench && go build -o "$out/gsbench" .) >&2
exec "$out/gsbench" -root "$root" -out "$out" "$@"
