#!/usr/bin/env sh
# CI gate, fail-fast, one banner per stage:
#
#   1. gofmt       — formatting drift (includes testdata fixtures)
#   2. go vet      — the toolchain's default analyzers
#   3. go build    — everything compiles
#   4. qpplint     — the repo's own invariants, six rules:
#                    `nondeterminism` (determinism taint), `maporder`,
#                    `hotalloc` (hot-path allocations), `floateq`,
#                    `errdrop`, `unusedignore`; writes the
#                    machine-readable report to LINT.json at the repo
#                    root and guards the analysis cost with
#                    BenchmarkAnalyzeRepo; see internal/analysis and
#                    DESIGN.md §7 (what each rule is the only catcher
#                    of) and §12
#   5. go test -race — the full suite under the race detector, then the
#                    training differential tests, the memo's
#                    once-per-key test, the shared online-cache test,
#                    the executor's arena-safety tests and internal/types
#                    (the one importer of "unsafe": checkptr is on under
#                    -race) three more times (-count=3); with the
#                    lock-analysis lint rules gone
#                    (DESIGN.md §7) this stage is what catches an
#                    unguarded access to a mutex-protected field
#   6. coverage    — statement coverage floor over the -short suite
#   7. fuzz smoke  — 5s of FuzzParse on the SQL grammar
#   8. serve smoke — 5s of FuzzPredictRequest on the qppserve /predict
#                    decode→plan→predict path
#   9. sketch smoke — 5s of FuzzSketch on the streaming-statistics
#                    sketches (insert-side invariants: monotone counts
#                    and bounds; see internal/sketch)
#  10. plancache smoke — 5s of FuzzCanonicalSignature on the plan-cache
#                    template signature (literal perturbation must never
#                    change a query's canonical key; see
#                    internal/plancache and DESIGN.md §15)
#  11. join-search smoke — 5s of FuzzJoinSearch on the optimizer's
#                    cost-only join search (seed → random join graph →
#                    merge sequence and built tree must equal those of
#                    the node-building reference search kept in
#                    internal/opt's tests; see DESIGN.md §17)
#  12. value smoke — 5s of FuzzValueRoundTrip on the 24-byte value
#                    layout (constructor → accessor, bit for bit; see
#                    internal/types)
#  13. SMO smoke   — 5s of FuzzSMOMatchesReference on the nu-SVR solver
#                    (bytes → seeded problem → every working pair, alpha,
#                    gradient and rho equal to those of the reference
#                    solver kept in internal/mlearn's tests; see DESIGN.md
#                    §6)
#  14. bench self-test — `bench/run.sh test`: gofmt, vet and the unit
#                    tests of the repo's benchmark (BENCHMARK.json), a
#                    nested module that stages 1-5 do not descend into
#
# The parallel execution layer (internal/parallel, workload builds, fold
# training, figure drivers) is only trusted because stage 5 passes clean;
# the replay determinism those tests check at runtime is what qpplint
# enforces statically in stage 4.
#
# Heavy determinism tests automatically shrink their workload under
# -race (see internal/experiments/race_on_test.go); pass any extra go
# test flags through, e.g.:
#
#	scripts/ci.sh -run TestParallelDeterminism
set -eu

cd "$(dirname "$0")/.."

banner() {
	printf '\n==> %s\n' "$1"
}

banner "gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "$unformatted"
	echo "gofmt: the files above need reformatting (gofmt -w .)"
	exit 1
fi

banner "go vet ./..."
go vet ./...

banner "go build ./..."
go build ./...

banner "qpplint ./... (six rules; report: LINT.json)"
# The JSON report is written even when findings fail the gate, so a red
# CI run still uploads the artifact explaining why.
go run ./cmd/qpplint -json ./... >LINT.json || {
	# Re-print the findings in human form for the console log.
	go run ./cmd/qpplint ./... || true
	exit 1
}

banner "qpplint cost guard (BenchmarkAnalyzeRepo)"
lint_bench=$(go test -run '^$' -bench BenchmarkAnalyzeRepo -benchtime 1x ./internal/analysis | awk '/^BenchmarkAnalyzeRepo/ {print $3}')
echo "full-repo analysis: ${lint_bench} ns/op"
# Anything past 10s means the fixpoint engine regressed (diverging
# summaries, quadratic blowup); the whole-repo pass runs in well under
# a second today.
awk -v ns="$lint_bench" 'BEGIN { exit !(ns+0 < 10000000000) }' || {
	echo "full-repo analysis exceeded the 10s budget"
	exit 1
}

banner "go test -race ./... $*"
go test -race ./... "$@"

# The training path promises bit-identical models however its requesters
# are scheduled (DESIGN.md §6): the differential tests against the
# pre-ISSUE-15 code and the pre-ISSUE-23 operator trainer and the
# once-per-key memo test run three more times,
# so a double training that only some interleavings produce cannot land.
# The online-cache test is the only place one OnlineCache is shared
# between goroutines.
banner "go test -race -short -count=3 (training differentials, memo once-per-key, shared online cache, arena safety, value layout)"
go test -race -short -count=3 -run 'TestSMOMatchesReferenceSolver' ./internal/mlearn
go test -race -short -count=3 -run 'TestEvalHybridMatchesReference|TestOperatorModelsMatchReferenceTrainer|TestTrainMemoTrainsOncePerKey|TestOnlineCacheConcurrentUse' ./internal/qpp
go test -race -short -count=3 -run 'TestTrainMemoDoesNotChangeFigures' ./internal/experiments
# Which pooled arena a Run gets differs from run to run under -race
# (sync.Pool.Put drops items at random), so one pass is weak evidence that
# recycled row memory is never observable.
go test -race -short -count=3 -run 'TestResultRowsSurviveArenaReuse|TestSubPlanReleaseIsInvisible' ./internal/exec
go test -race -short -count=3 ./internal/types

# The floor is set a safe margin under the measured total (78.7% at the
# time stage 6 was added) so flaky fractions of a percent don't fail CI,
# while a real regression — a new subsystem landing untested — does.
COVERAGE_FLOOR=70.0

banner "coverage (floor ${COVERAGE_FLOOR}%)"
profile=$(mktemp)
trap 'rm -f "$profile"' EXIT
go test -short -coverprofile="$profile" ./... >/dev/null
total=$(go tool cover -func="$profile" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
echo "total statement coverage: ${total}%"
awk -v t="$total" -v f="$COVERAGE_FLOOR" 'BEGIN { exit !(t+0 >= f+0) }' || {
	echo "coverage ${total}% fell below the ${COVERAGE_FLOOR}% floor"
	exit 1
}

banner "fuzz smoke (FuzzParse, 5s)"
go test -fuzz=FuzzParse -fuzztime=5s -run '^$' ./internal/sql

banner "serve fuzz smoke (FuzzPredictRequest, 5s)"
go test -fuzz=FuzzPredictRequest -fuzztime=5s -run '^$' ./internal/serve

banner "sketch fuzz smoke (FuzzSketch, 5s)"
go test -fuzz=FuzzSketch -fuzztime=5s -run '^$' ./internal/sketch

banner "plancache fuzz smoke (FuzzCanonicalSignature, 5s)"
go test -fuzz=FuzzCanonicalSignature -fuzztime=5s -run '^$' ./internal/plancache

banner "join-search fuzz smoke (FuzzJoinSearch, 5s)"
go test -fuzz=FuzzJoinSearch -fuzztime=5s -run '^$' ./internal/opt

banner "value fuzz smoke (FuzzValueRoundTrip, 5s)"
go test -fuzz=FuzzValueRoundTrip -fuzztime=5s -run '^$' ./internal/types

banner "SMO fuzz smoke (FuzzSMOMatchesReference, 5s)"
go test -fuzz=FuzzSMOMatchesReference -fuzztime=5s -run '^$' ./internal/mlearn

banner "bench self-test (bench/run.sh test)"
bash bench/run.sh test

banner "CI OK"
