#!/usr/bin/env bash
# The benchmark's one entry point.
#
#   bench/run.sh --workload W --seed S --seconds N --trace 0|1
#       one run, as BENCHMARK.json's command: builds the program from
#       source into .bench_build/ and executes it with these flags
#   bench/run.sh run   [SEED]   every workload, tracing off
#   bench/run.sh trace [SEED]   every workload, traced (per-layer metrics)
#   bench/run.sh noise [N [WORKLOAD...]]   the self-test: two sets of N
#       (default 10) seeds per workload, interleaved; fails if a metric's
#       spread or drift exceeds its bound in BENCHMARK.json
#   bench/run.sh test           vet and unit-test the benchmark itself
#
# run, trace and noise keep raw per-pass samples, span dumps and result
# lines under bench/out/ (git-ignored). Everything written lands inside
# the checkout: the Go build cache too (.bench_build/).
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomodcache"
export GOPATH="$root/.bench_build/gopath"
export GOFLAGS=-modcacherw GOTOOLCHAIN=local
bin="$root/.bench_build/bench"
out="$root/bench/out"
workloads=(batch_exec batch_train serve_hot serve_cold)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)

build() {
	mkdir -p "$root/.bench_build"
	(cd bench && go build -o "$bin" .)
}

# one SET WORKLOAD SEED TRACE: run once, keep the result line.
one() {
	mkdir -p "$out"
	local line
	line=$("$bin" --workload "$2" --seed "$3" --seconds "$seconds" --trace "$4" --out "$out" | tee /dev/stderr | tail -n 1)
	printf '{"set":"%s","workload":"%s","seed":%d,"result":%s}\n' "$1" "$2" "$3" "$line" >>"$out/results-$1.jsonl"
}

case "${1:-}" in
--*)
	build
	exec "$bin" "$@"
	;;
run | trace)
	build
	trace=0
	[ "$1" = trace ] && trace=1
	rm -f "$out/results-$1.jsonl"
	for w in "${workloads[@]}"; do
		one "$1" "$w" "${2:-1}" "$trace" 2>&1
	done
	;;
noise)
	build
	n=${2:-10}
	[ $# -gt 2 ] && workloads=("${@:3}")
	rm -f "$out/results-A.jsonl" "$out/results-B.jsonl"
	for seed in $(seq 1 "$n"); do
		for w in "${workloads[@]}"; do
			one A "$w" "$seed" 0 2>/dev/null
			one B "$w" "$seed" 0 2>/dev/null
		done
		echo "noise: seed $seed of $n done" >&2
	done
	exec "$bin" --report "$out/results-A.jsonl,$out/results-B.jsonl"
	;;
test)
	cd bench
	test -z "$(gofmt -l .)"
	go vet .
	go test -count=1 .
	;;
*)
	sed -n '2,16p' "${BASH_SOURCE[0]}" >&2
	exit 2
	;;
esac
