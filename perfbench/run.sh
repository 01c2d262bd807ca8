#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload scan-heavy --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build): the Go
# build cache, the binary, and each run's ledger, audit trail and
# access log.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR"

# The revision: git's when the tree is a checkout, else a hash of the
# Go sources the binary is built from.
commit="$(git rev-parse --short=12 HEAD 2>/dev/null)" || commit=""
if [ -z "$commit" ]; then
  commit="src-$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
    LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)"
fi

go -C perfbench build -trimpath -o "$build/perfbench" .
# Flush what the build wrote, so its writeback does not slow the fsyncs
# the run measures.
sync
exec "$build/perfbench" --workdir "$build/runs" --commit "$commit" "$@"
