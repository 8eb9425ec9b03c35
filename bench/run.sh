#!/usr/bin/env bash
# Builds the benchmark and runs it with the arguments given. Run it from
# the root of a checkout: the binary, Go's build and module caches and
# everything else the toolchain writes land in ./.bench_build, so a run
# reads and writes nothing outside the checkout. Without go.mod above
# bench/ there is no program to build and the script fails before it
# starts anything.
set -euo pipefail
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod in $PWD: run from the root of a checkout that holds the program" >&2
	exit 1
fi
out="$PWD/.bench_build"
# With a fresh HOME the go command takes telemetry to be in "local" mode
# and starts a detached copy of itself to tidy its counter files, which
# outlives the build. The mode file turns that off.
mkdir -p "$out/home/.config/go/telemetry"
echo off >"$out/home/.config/go/telemetry/mode"
# Go derives its telemetry and config directories from HOME; the caches
# are named outright in case the caller's environment already names them.
env -u XDG_CACHE_HOME -u XDG_CONFIG_HOME -u GOFLAGS \
	HOME="$out/home" GOENV=off GOTOOLCHAIN=local \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	go build -buildvcs=false -o "$out/bench" ./bench
exec "$out/bench" "$@"
