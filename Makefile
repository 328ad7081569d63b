# Build / test / benchmark entry points for the SPARCS reproduction.

GO ?= go
DATE := $(shell date +%Y%m%d)

.PHONY: all build test vet bench bench-smoke bench-lp bench-gate race chaos loadtest stress stress-short

all: vet build test

build:
	$(GO) build ./...

# vet also checks the faultinject-tagged build, whose files (the armed
# fault points and the chaos suites) an untagged vet never sees.
vet:
	$(GO) vet ./...
	$(GO) vet -tags faultinject ./...

test:
	$(GO) test ./...

# bench runs the full benchmark suite with a pinned iteration count and
# archives the machine-readable result as BENCH_<date>.json, so the perf
# trajectory accumulates in-tree. BENCHTIME is pinned to a fixed Nx count
# (never a duration): the deterministic search metrics (B&B-nodes,
# nodes-pruned-combinatorial, lp-solves-skipped, pivots/op) need identical
# iteration counts run over run to be comparable at all, and the 3x floor
# averages the wall-clock numbers over three solves so a single scheduling
# hiccup cannot swing ns/op past the bench-gate's 20% tolerance the way the
# old single-iteration runs could.
BENCHTIME ?= 3x
bench:
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) -count 1 -benchmem -json . > BENCH_$(DATE).json
	@echo wrote BENCH_$(DATE).json

# bench-smoke is the quick CI variant: the headline DCT solve, which closes
# at the root, the chain9 portfolio solve under the row model, which pivots
# through about a hundred nodes and reports the warm-start counters, and
# chain9 under the default formulation, where the pattern master races the
# row search (ns/op and allocs/op only).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkILP_(DCTPartitioning|Chain9|Chain9Default)$$' -benchtime 1x -benchmem .

# bench-lp runs the simplex-kernel micro-benches: a dense and a hyper-sparse
# FTRAN against the live LU factor (both must be 0 allocs/op; the sparse one
# additionally asserts >= 90% of singleton solves stay under the density
# gate), the reinversion of a slack-heavy basis (must be 0 allocs/op), and
# the warm-start bound-fix/unfix repair loop (reports pivots,
# refactorizations, bound flips, and sparse vs dense basis solves per op and
# asserts >= 95% of solves stay on the warm path).
bench-lp:
	$(GO) test -run '^$$' -bench 'BenchmarkLP_(FTRAN|SparseFTRAN|Refactor|Warm)' -count 1 -benchmem ./internal/lp/

# bench-gate runs the suite fresh and fails when a gated metric (allocs/op,
# B&B-nodes, pivots/op, refactorizations/op, bound-flips/op, nodes/sec)
# regresses >20% against the newest committed BENCH_*.json baseline.
bench-gate:
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) -count 1 -benchmem -json . > /tmp/bench-current.json
	$(GO) run ./cmd/benchgate -old $$(ls BENCH_*.json | sort | tail -1) -new /tmp/bench-current.json

# race runs the concurrency-heavy packages under the race detector:
# service (scheduler/cache, including the traced solve path and the flight
# recorder), obs (the shared trace recorder written by concurrent search
# workers), ilp (parallel search + shared cut pool), and tempart
# (separators and trace spans invoked from concurrent workers).
# tempart runs -short under race: the sequential brute-force property
# tests and portfolio yardsticks add minutes of race overhead but no
# concurrency coverage; the worker-equivalence and cancellation tests that
# exercise the separators and the cut pool concurrently still run.
race:
	$(GO) test -race -count=1 ./internal/service/... ./internal/obs/... ./internal/ilp/...
	$(GO) test -race -count=1 -short ./internal/tempart/...

# chaos builds with the faultinject registry compiled in and runs the whole
# internal tree — the tagged chaos suites (service + lp) arm the fault
# points, and every untagged test re-runs against the chaos build to prove
# the hooks change nothing until armed. Race detector on: the registry and
# the recovery paths are exactly where concurrency bugs would hide.
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
