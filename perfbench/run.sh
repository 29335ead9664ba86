#!/usr/bin/env bash
# Builds the benchmark and the shapleyd daemon from the sources of the
# checkout it runs in, then runs one workload. Run it from the repository
# root; every argument goes to the benchmark (see main.go):
#
#   bash perfbench/run.sh -workload explain-exact -seed 1 -seconds 10 -trace 0
#
# Binaries, the Go build cache and temporary files stay under .bench_build in
# the checkout, or under $CARGO_TARGET_DIR when that is set.
set -euo pipefail

root=$(pwd)
if [[ ! -f $root/go.mod || ! -d $root/cmd/shapleyd || ! -f $root/perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out = /* ]] || out=$root/$out
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOMODCACHE=$out/gomod GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go build -o "$out/bin/shapleyd" ./cmd/shapleyd
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -shapleyd "$out/bin/shapleyd" "$@"
