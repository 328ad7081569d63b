# Build / test / benchmark entry points for the SPARCS reproduction.

GO ?= go
DATE := $(shell date +%Y%m%d)

.PHONY: all build test vet bench bench-smoke bench-lp bench-gate race chaos loadtest stress stress-short

all: vet build test

build:
	$(GO) build ./...

# vet also checks the faultinject-tagged build, whose files (the armed
# fault points and the chaos suites) an untagged vet never sees, vets and
# compiles the sparcsbench load generator, whose own go.mod keeps it out
# of the root ./... patterns, and fails when gofmt would rewrite any file.
vet:
	$(GO) vet ./...
	$(GO) vet -tags faultinject ./...
	cd sparcsbench && $(GO) vet ./... && $(GO) build -o /dev/null .
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# bench runs the full benchmark suite with a pinned iteration count and
# archives the machine-readable result as BENCH_<date>.json, so the perf
# trajectory accumulates in-tree. BENCHTIME is pinned to a fixed Nx count
# (never a duration): the deterministic search metrics (B&B-nodes,
# nodes-pruned-combinatorial, lp-solves-skipped, pivots/op) need identical
# iteration counts run over run to be comparable at all. Every benchmark
# runs five times so benchgate can reduce each metric to a median and a
# min–max spread: one 3x sample cannot tell a scheduling hiccup from a
# regression. The repetitions are whole passes of the suite, each its own
# process, rather than one -count run: consecutive repetitions in one
# process share its state and miss most of the variance between runs
# (BenchmarkCoSimBatch2048 spread 7% over five in one process, while six
# processes ranged 3.8–8.8 ms).
BENCHTIME ?= 3x
BENCHRUN = for i in 1 2 3 4 5; do \
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) -count 1 -benchmem -json . || exit 1; done
bench:
	$(BENCHRUN) > BENCH_$(DATE).json
	@echo wrote BENCH_$(DATE).json

# bench-smoke is the quick CI variant: the headline DCT solve, which closes
# at the root, the chain9 portfolio solve under the row model, which pivots
# through about a hundred nodes and reports the warm-start counters, and
# chain9 under the default formulation, where the pattern master races the
# row search (ns/op and allocs/op only). It also runs sparcsd's cache-hit
# path in-process (BenchmarkService_Hit: /v1/batch calls of renamed copies
# of a cached working set), which fails unless every item is a cache hit,
# so a hit path that silently falls through to fresh solves breaks CI.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkILP_(DCTPartitioning|Chain9|Chain9Default)$$' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkService_Hit$$' -benchtime 20x -benchmem ./internal/service/

# bench-lp runs the simplex-kernel micro-benches: a dense and a hyper-sparse
# FTRAN against the live LU factor (both must be 0 allocs/op; the sparse one
# additionally asserts >= 90% of singleton solves stay under the density
# gate), the reinversion of a slack-heavy basis (must be 0 allocs/op), and
# the warm-start bound-fix/unfix repair loop (reports pivots,
# refactorizations, bound flips, and sparse vs dense basis solves per op and
# asserts >= 95% of solves stay on the warm path). The iteration count is
# pinned: BenchmarkLP_Warm cycles its fixes through i % nVars, so its
# per-op counters depend on b.N (pivots/op read 117.5 at 139 iterations and
# 109.7 at 165).
bench-lp:
	$(GO) test -run '^$$' -bench 'BenchmarkLP_(FTRAN|SparseFTRAN|Refactor|Warm)' -benchtime 150x -count 1 -benchmem ./internal/lp/

# bench-gate runs the suite fresh and fails when the median of a gated
# metric (allocs/op, B&B-nodes, pivots/op, refactorizations/op,
# bound-flips/op, nodes/sec, and ns/op where both runs name the same CPU
# and both spreads are tighter than the threshold) regresses >20% against
# the newest committed BENCH_*.json baseline. ns/op is gated only against
# a baseline recorded on the same kind of CPU as the gate's machine.
bench-gate:
	$(BENCHRUN) > /tmp/bench-current.json
	$(GO) run ./cmd/benchgate -old $$(ls BENCH_*.json | sort | tail -1) -new /tmp/bench-current.json

# race runs the packages with concurrent code under the race detector:
# service (the scheduler and its worker pool, the cache and singleflight,
# the traced solve path and the flight recorder), obs (the trace recorder
# shared by a solve's goroutines), ilp (the search a race's two goroutines
# each run, and its context stops), and tempart (the formulation race: the
# pattern-master rival beside the row search, its cancel and join, and the
# spans both record). tempart runs -short under race: the sequential
# brute-force property tests and portfolio yardsticks add minutes of race
# overhead but no concurrency coverage; the race and cancellation tests
# still run.
race:
	$(GO) test -race -count=1 ./internal/service/... ./internal/obs/... ./internal/ilp/...
	$(GO) test -race -count=1 -short ./internal/tempart/...

# chaos builds with the faultinject registry compiled in and runs the whole
# internal tree — the tagged chaos suites (service + lp) arm the fault
# points, and every untagged test re-runs against the chaos build to prove
# the hooks change nothing until armed. Race detector on: the registry is
# shared by the service's workers and a race's rival, and the recovery
# paths are exactly where concurrency bugs would hide.
# tempart runs -short for the same reason as the race lane.
chaos:
	$(GO) test -tags faultinject -race -count=1 $$($(GO) list ./internal/... | grep -v /tempart)
	$(GO) test -tags faultinject -race -count=1 -short ./internal/tempart/...

# loadtest is the smoke load test: ~100 concurrent requests against an
# in-process sparcsd server, asserting a >= 0.9 cache/singleflight hit rate.
loadtest:
	$(GO) test -race -count=1 -run TestLoadSmoke -v ./internal/service/

# stress runs the committed hard-instance portfolio end to end (packing
# infeasibility under node budgets, chained near-capacity instances, FIR
# shapes) with a wall-clock budget — the durable yardstick for pruning and
# cutting-plane work. See internal/tempart/testdata/portfolio/.
stress:
	$(GO) test -run '^$$' -bench BenchmarkHardPortfolio -benchtime 1x -count 1 -timeout 10m ./internal/tempart/

# stress-short is the CI slice of the stress lane: pack12 — the canonical
# near-capacity packing proof — must close within its manifest node budget
# on every push, plus the branch-and-price portfolio slice: the
# mixed-cardinality instance (pack2638) and the 102-task chain-of-blocks
# instance (chainblocks102) must both close to proven optimality through
# the pattern master. The full portfolio stays in the manual 10-minute lane.
stress-short:
	$(GO) test -run 'TestHardPortfolio/(pack12|pack2638-patterns|chainblocks102-patterns)|TestPatternMixedCardinality2638' -count=1 -v ./internal/tempart/
