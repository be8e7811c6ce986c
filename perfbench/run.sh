#!/usr/bin/env bash
# Builds perfbench from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload zipf-rw --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --selftest
#
# Build output, the Go build cache and span files stay under the build
# directory ($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp" "$out/perfbench"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench/perfbench" .) >&2
exec "$out/perfbench/perfbench" --out "$out/perfbench" "$@"
