// Package faultinject is the chaos-testing seam for sparcsd: a registry of
// named fault points compiled in only under the `faultinject` build tag.
//
// Production builds (no tag) compile every hook down to a constant-false
// branch — Fire is a tiny leaf function returning false, so the solver hot
// paths keep their allocation-free, branch-predicted profile and the bench
// gate sees no change. Chaos builds (`go test -tags faultinject ...`, `make
// chaos`) get the real registry: tests arm a point for its next N triggers,
// run traffic, and assert the service keeps serving correct results, the
// metrics stay consistent, and the cache is never poisoned.
//
// The fault points and where they hook:
//
//	lu-refactor-fail   internal/lp: a basis reinversion reports singular —
//	                   maybeRefactor keeps the old factor; a rejected
//	                   Forrest–Tomlin update falls back to a cold solve.
//	worker-panic       internal/service: the ilp engine panics on a
//	                   worker goroutine; the recover() ladder must convert
//	                   it into a failed job with the stack captured.
//	slow-solve         internal/service: the ilp engine stalls for the armed
//	                   delay before solving, forcing deadline expiry
//	                   deterministically.
//	cache-verify-fail  internal/service: a cache hit fails its feasibility
//	                   re-verification, forcing the remap-fallback fresh
//	                   solve.
//	lp-sparse-fallback internal/lp: the hyper-sparse FTRAN/BTRAN symbolic
//	                   pass reports over-threshold fill, forcing the dense
//	                   fallback path the density gate normally reserves
//	                   for near-dense results.
package faultinject

import "time"

// Named fault points. Arm takes any string, but hooks in the tree only
// consult these.
const (
	LURefactorFail      = "lu-refactor-fail"
	WorkerPanic         = "worker-panic"
	SlowSolve           = "slow-solve"
	CacheVerifyFail     = "cache-verify-fail"
	SparseSolveFallback = "lp-sparse-fallback"
)

// DefaultDelay is the stall applied by delay-style points (slow-solve) when
// armed without an explicit duration.
const DefaultDelay = 150 * time.Millisecond
