#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark from the repository root:
#   bash e2ebench/run.sh --workload train-ndsnn --seed 1 --seconds 60 --trace 0
#   bash e2ebench/run.sh compare <results-dir-A> <results-dir-B>
# Everything the build and the runs write stays under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
# Offline and self-contained: the module needs nothing beyond the standard
# library and the repository it replaces in from the parent directory.
export GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOENV=off
export GOPROXY=off GOSUMDB=off
bin="$build/e2ebench/e2ebench"
(cd "$root/e2ebench" && go build -buildvcs=false -o "$bin" .)
if [ "${1:-}" = compare ]; then
	exec "$bin" "$@"
fi
exec "$bin" --out "$build/e2ebench" "$@"
