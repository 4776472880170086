#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload paper6 --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# span files go under .bench_build there (or under $CARGO_TARGET_DIR when
# set), so a run writes nothing outside the checkout.
set -euo pipefail
command -v go >/dev/null 2>&1 || PATH=$PATH:/usr/local/go/bin # Go's default install
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp \
	XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOWORK=off GOPROXY=off
cd "$root/perfbench"
go build -o "$build/perfbench" . >&2
cd "$root"
exec "$build/perfbench" "$@"
