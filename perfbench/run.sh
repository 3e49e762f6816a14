#!/usr/bin/env bash
# Builds the ssmp benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh compare old.jsonl new.jsonl
#
# Every build product, the Go build cache included, stays under the build
# directory ($CARGO_TARGET_DIR when set, .bench_build otherwise), so the
# benchmark reads and writes nothing outside the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/gotmp" "$build/config"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/gotmp
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -outdir "$build" "$@"
