# Development entry points. `make check` is the PR gate.

GO ?= go

.PHONY: check fmt vet build test race telemetry parallel bench bench-workers bench-baseline bench-warmstart bench-sparse bench-flight bench-sweep bench-sweep-baseline bench-milp bench-milp-baseline bench-serve bench-serve-baseline bench-alloc clean

## check: full PR gate — gofmt, vet, build, race-enabled tests, a doubled run of
## the telemetry suite (span/journal determinism under repetition), the
## concurrency-path determinism tests under the race detector, and the
## warm-start, basis-kernel, flight-recorder, scenario-sweep, MILP
## scaling, serving, and allocation regression gates.
check: fmt vet build race telemetry parallel bench-warmstart bench-sparse bench-flight bench-sweep bench-milp bench-serve bench-alloc

## fmt: fail if any Go file is not gofmt-formatted.
fmt:
	@files="$$(gofmt -l .)"; if [ -n "$$files" ]; then echo "gofmt needed:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

telemetry:
	$(GO) test -run TestTelemetry -count=2 ./...

## parallel: the determinism-under-race list, the one CI's race job runs —
## the worker-pool and worker-count-determinism tests, the telemetry suite,
## the flight recorder, and the batched sweep (whose par.Each workers write
## outcomes in place) under the race detector (short mode keeps the 118-bus
## sweep out of the gate).
PARALLEL_TESTS := TestEach|TestResolve|TestFindOptimalAttackDeterministicAcrossWorkers|TestGreedyAndRandomDeterministicAcrossWorkers|TestScreenParallel|TestRunTimeSeriesWorkers|TestTelemetry|TestFlightGate|TestServeConcurrentSameTopology|TestEvalMatchesOracle|TestEvalAllocBudget
PARALLEL_PKGS := ./internal/par/ ./internal/core/ ./internal/contingency/ ./internal/telemetry/ ./internal/serve/ ./internal/sweep/ .
parallel:
	$(GO) test -race -short -count=1 -run '$(PARALLEL_TESTS)' $(PARALLEL_PKGS)

## bench: the paper-experiment and substrate benchmarks.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' . ./internal/core/

## bench-workers: the Algorithm 1 worker-scaling benchmark (sequential vs
## parallel fan-out on case30/case118).
bench-workers:
	$(GO) test -bench=BenchmarkFindOptimalAttackWorkers -run '^$$' .

## bench-baseline: re-record the solver-work baseline (BENCH_solver.json)
## for the budgeted case9/30/57/118 attacks: node, pivot and warm-start
## counts, the basis kernels' FTRAN/BTRAN/refactorization counts, walls.
bench-baseline:
	BENCH_SOLVER=1 $(GO) test -run TestRecordSolverBaseline ./internal/core/

## bench-warmstart: the warm-started dual simplex regression gate —
## bit-identical attacks across worker counts and warm on/off on
## case9/30/57, the case9/30/57 pivot totals pinned to BENCH_solver.json,
## and the case118 budgeted pivot total pinned at ≥2× under an otherwise
## identical cold run, cross-checked against BENCH_solver.json.
bench-warmstart:
	$(GO) test -run 'TestWarmStart' -count=1 ./internal/core/

## bench-sparse: the basis-kernel regression gate — the size and density
## rule must put case9/30/57 on the dense LU kernel and case118's KKT
## relaxations on the sparse one, and the case118 budgeted attack's gain,
## pivots and FTRAN/BTRAN/refactorization work must match BENCH_solver.json.
## The kernels are differentially tested against each other and the
## tableau oracle in internal/lp (FuzzEngines, and TestRealKKTAgainstOracle
## on the real KKT relaxations).
bench-sparse:
	$(GO) test -run 'TestSparseGate' -count=1 ./internal/core/

## bench-flight: the flight-recorder gate — the budgeted attacks must be
## bit-identical with the recorder on and off, every solver layer must
## contribute events, and the case118 wall overhead is measured and logged
## (target ≤5%, asserted at a noise-tolerant 50% backstop).
bench-flight:
	$(GO) test -run 'TestFlightGate' -count=1 -v ./internal/core/

## bench-sweep: the batched scenario-sweep gate — recorded case118
## throughput must be ≥10,000 N−1-screened scenarios/s, the live run,
## scaled by a machine-speed reference timed around each sweep, is
## asserted at a noise-tolerant 50% of the recorded BENCH_sweep.json
## baseline (the strict ±25% band is benchdiff's, for recorded runs), and
## the batched outcomes must match the per-scenario oracle bit for bit.
bench-sweep:
	$(GO) test -run 'TestSweepGate' -count=1 -v .

## bench-sweep-baseline: re-record the scenario-sweep throughput baseline
## (BENCH_sweep.json) on case118.
bench-sweep-baseline:
	BENCH_SWEEP=1 $(GO) test -run TestRecordSweepBaseline .

## bench-milp: the MILP scaling gate — the default attack options must
## close case9/30/57 to proven optimality and reproduce the recorded
## gain/bound/gap and work counts of the budgeted case118 and grow300
## attacks bit-exactly (BENCH_milp.json), with the grow300 result
## identical across worker counts.
bench-milp:
	$(GO) test -run 'TestMILPGate' -count=1 -timeout 30m .

## bench-milp-baseline: re-record the MILP scaling baseline
## (BENCH_milp.json) across case9..grow300.
bench-milp-baseline:
	BENCH_MILP=1 $(GO) test -run TestRecordMILPBaseline -timeout 30m .

## bench-serve: the attack-as-a-service gate — the case118 warm repeat
## attack must make at most half the dispatch solves of the cold first
## request (its wall asserted live at a noise-tolerant backstop), served
## attacks must be bit-identical to the one-shot library path (including
## under the concurrent attack burst), deadline-cancelled requests must
## answer within 100ms of their deadline, Close must reclaim the worker
## pool with no goroutine leak, and the recorded allocation/attack-RPS
## fields must stay within the alloc gate's ceilings.
bench-serve:
	$(GO) test -run 'TestServeGate|TestServeEvaluateMissingDLRBoundsGate|TestAllocGate' -count=1 -timeout 20m -v . ./internal/core/

## bench-serve-baseline: re-record the serving-layer latency and allocation
## baseline (BENCH_serve.json) on case118.
bench-serve-baseline:
	BENCH_SERVE=1 $(GO) test -run TestRecordServeBaseline -timeout 30m ./internal/core/

## bench-alloc: the allocation regression gate — the zero-allocation pins on
## the solver hot kernels (CSR·dense batch, blocked GEMM, FTRAN/BTRAN, warm
## workspace re-solve, steady-state bordered-KKT QP re-solve, hot case118
## dispatch re-solve, via testing.AllocsPerRun and -benchmem discipline),
## the workspace identity gate (attacks across worker counts after a dirtied
## workspace pool, bit-identical to a fresh process), the absolute
## per-node allocation ceilings, live and against the recorded
## BENCH_serve.json figure, and the objects and bytes one cold budgeted
## case57 attack (the dive) may allocate.
bench-alloc:
	$(GO) test -run 'TestMulDenseIntoZeroAlloc|TestLUSolveZeroAlloc|TestMulBlockedIntoZeroAlloc|TestFTRANBTRANZeroAlloc|TestWarmResolveZeroAlloc|TestSchurKKTCacheZeroAlloc|TestHotResolveZeroAlloc' -count=1 -v ./internal/sparse/ ./internal/mat/ ./internal/lp/ ./internal/qp/ ./internal/dispatch/
	$(GO) test -run 'TestWorkspaceIdentityGate|TestAllocGate|TestDiveAllocBudget' -count=1 -timeout 20m -v ./internal/core/

clean:
	$(GO) clean ./...
