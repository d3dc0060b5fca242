#!/usr/bin/env sh
# Executor performance trajectory: run the short expression/executor
# benchmark subset and record it as BENCH_exec.json at the repo root.
#
# The subset pairs each compiled-path benchmark with its interpreted
# twin (exec.Options{Interpret: true}) so the JSON carries the ratio the
# PR gate checks: compiled ns/op must beat interpreted by >= 1.5x on the
# Q6 hot path while allocs/op stay at or below the interpreted figures.
#
#   scripts/bench.sh            # ~3 min, writes BENCH_exec.json + BENCH_stats.json
#                               #         + BENCH_plancache.json + BENCH_serve.json
#   scripts/bench.sh -benchtime 5x   # extra args go to `go test`
#
# Output schema (one object per benchmark line):
#   {"name": ..., "iterations": N, "ns_per_op": ..., "bytes_per_op": ...,
#    "allocs_per_op": ...}
# wrapped with go version + GOOS/GOARCH so figures from different
# machines are never compared blindly.
#
# The second half is the serving trajectory: boot cmd/qppserve (training
# in-process at SF 0.01), drive POST /predict with cmd/qppload at two
# concurrency levels, and record p50/p99/throughput per level as
# BENCH_serve.json (qppload's own output schema).
set -eu

cd "$(dirname "$0")/.."

out=BENCH_exec.json
tmp="$(mktemp)"
bindir="$(mktemp -d)"
serve_pid=""
cleanup() {
	rm -f "$tmp"
	rm -rf "$bindir"
	if [ -n "$serve_pid" ]; then
		kill "$serve_pid" 2>/dev/null || true
	fi
}
trap cleanup EXIT

# Full-query pairs (root package) + pure-expression pairs (internal/exec).
go test -run '^$' -bench 'BenchmarkExecutionQ6|BenchmarkExprCompiled|BenchmarkExprInterpreted' \
	-benchmem -benchtime=1s "$@" . | tee "$tmp"
go test -run '^$' -bench 'BenchmarkScalarEval|BenchmarkHashJoinBuildProbe|BenchmarkHashAggregate' \
	-benchmem -benchtime=1s "$@" ./internal/exec/ | tee -a "$tmp"
# Cold planning vs trace replay: the per-query optimization cost the
# plan cache amortizes (BENCH_plancache.json below holds the end-to-end
# serving view of the same trade).
go test -run '^$' -bench 'BenchmarkPlanSQL|BenchmarkPlanReplay' \
	-benchmem -benchtime=1s "$@" ./internal/opt/ | tee -a "$tmp"

# Convert `go test -bench` lines into JSON with awk (stdlib-only repo:
# no benchstat). A bench line looks like:
#   BenchmarkFoo/sub-8  123  456 ns/op  789 B/op  12 allocs/op
awk -v goversion="$(go version)" '
BEGIN {
	n = 0
}
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name) # strip -GOMAXPROCS suffix
	iters = $2
	ns = ""; bytes = ""; allocs = ""
	for (i = 3; i < NF; i++) {
		if ($(i + 1) == "ns/op") ns = $i
		if ($(i + 1) == "B/op") bytes = $i
		if ($(i + 1) == "allocs/op") allocs = $i
	}
	if (ns == "") next
	line = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns)
	if (bytes != "") line = line sprintf(", \"bytes_per_op\": %s", bytes)
	if (allocs != "") line = line sprintf(", \"allocs_per_op\": %s", allocs)
	line = line "}"
	lines[n++] = line
}
END {
	if (n == 0) {
		print "no benchmark lines parsed" > "/dev/stderr"
		exit 1
	}
	print "{"
	printf "  \"go\": \"%s\",\n", goversion
	print "  \"benchmarks\": ["
	for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n - 1 ? "," : "")
	print "  ]"
	print "}"
}
' "$tmp" > "$out"

printf '\nwrote %s (%s benchmark lines)\n' "$out" "$(grep -c '"name"' "$out")"

# --- ANALYZE statistics benchmark -------------------------------------
# One pass over lineitem at SF 0.1 (~600k rows) per path: the streaming
# sketch ANALYZE (production) vs the exact oracle (differential tests).
# The baseline block freezes the exact-path figures recorded the day the
# sketch path landed, so the sketch's memory/alloc advantage is always
# measured against the same denominator.
stats_out=BENCH_stats.json
stats_tmp="$(mktemp)"

go test -run '^$' -bench BenchmarkAnalyzeStats -benchmem -benchtime=1x \
	"$@" ./internal/tpch/ | tee "$stats_tmp"

awk -v goversion="$(go version)" '
BEGIN { n = 0 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	iters = $2
	ns = ""; bytes = ""; allocs = ""
	for (i = 3; i < NF; i++) {
		if ($(i + 1) == "ns/op") ns = $i
		if ($(i + 1) == "B/op") bytes = $i
		if ($(i + 1) == "allocs/op") allocs = $i
	}
	if (ns == "") next
	line = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns)
	if (bytes != "") line = line sprintf(", \"bytes_per_op\": %s", bytes)
	if (allocs != "") line = line sprintf(", \"allocs_per_op\": %s", allocs)
	line = line "}"
	lines[n++] = line
}
END {
	if (n == 0) {
		print "no stats benchmark lines parsed" > "/dev/stderr"
		exit 1
	}
	print "{"
	printf "  \"go\": \"%s\",\n", goversion
	# Frozen exact-ANALYZE reference (lineitem, SF 0.1, the day the
	# sketch path landed): ~3.1s, 247 MB, 8.1M allocs per pass.
	print "  \"baseline\": ["
	print "    {\"name\": \"BenchmarkAnalyzeStats/exact/lineitem\", \"iterations\": 1, \"ns_per_op\": 3123666067, \"bytes_per_op\": 247272304, \"allocs_per_op\": 8094467}"
	print "  ],"
	print "  \"benchmarks\": ["
	for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n - 1 ? "," : "")
	print "  ]"
	print "}"
}
' "$stats_tmp" > "$stats_out"
rm -f "$stats_tmp"

printf '\nwrote %s (%s benchmark lines)\n' "$stats_out" "$(grep -c '"name"' "$stats_out")"

# --- plan-cache benchmark ---------------------------------------------
# Per-request planning cost on the three serving paths (cold, exact-
# match hit, parametric rebind) plus the plan-quality differential for
# held-out parameter draws. The frozen no-cache baseline lives inside
# qppcachebench (frozenColdUS) and is embedded in the JSON; the command
# exits non-zero if any gate (>=10x hit speedup, >=90% win rate, zero
# divergence) fails.
go build -o "$bindir/qppcachebench" ./cmd/qppcachebench
"$bindir/qppcachebench" -out BENCH_plancache.json

printf '\nwrote BENCH_plancache.json (%s templates)\n' "$(grep -c '"template"' BENCH_plancache.json)"

# --- serving load benchmark -------------------------------------------
# qppload self-waits on /healthz, so no curl/sleep polling here; the
# server trains its snapshot in-process before it starts listening.
serve_out=BENCH_serve.json
serve_addr=127.0.0.1:18099

go build -o "$bindir/qppserve" ./cmd/qppserve
go build -o "$bindir/qppload" ./cmd/qppload

"$bindir/qppserve" -addr "$serve_addr" -sf 0.01 -per-template 10 -seed 42 &
serve_pid=$!

"$bindir/qppload" -addr "http://$serve_addr" -levels 2,8 -n 400 -seed 7 \
	-wait 180s -out "$serve_out"

kill "$serve_pid" 2>/dev/null || true
serve_pid=""

printf '\nwrote %s (%s concurrency levels)\n' "$serve_out" "$(grep -c '"concurrency"' "$serve_out")"
