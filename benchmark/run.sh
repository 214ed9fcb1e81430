#!/usr/bin/env bash
# Entry point the gate driver uses (BENCHMARK.json "command"): builds the
# benchmark from source into .bench_build/ at the root of the checkout, with
# Go's caches there too, then runs it in one-line mode. The driver's
# "--seconds N" and "--trace 0|1" are the benchmark's own -window and -traced.
# People can equally `go run ./benchmark ...` from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark: no go.mod beside benchmark/: not a checkout of the repository" >&2
	exit 2
fi
args=()
while [ $# -gt 0 ]; do
	case "$1" in
	--seconds)
		args+=(-window "$2s")
		shift 2
		;;
	--trace)
		if [ "$2" = 1 ]; then args+=(-traced); fi
		shift 2
		;;
	*)
		args+=("$1")
		shift
		;;
	esac
done
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
# XDG_CONFIG_HOME keeps the go command's own files (env, telemetry counters)
# inside the checkout as well.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -buildvcs=false -o "$build/aibbench" ./benchmark
exec "$build/aibbench" -dir "$build/run" -line "${args[@]}"
