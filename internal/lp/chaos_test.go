//go:build faultinject

// Kernel-level chaos: the LU and sparse-solve fault points fire directly
// against the simplex solver's handled recovery paths — a failed
// reinversion keeps the current factor, a forced dense fallback replaces
// the hyper-sparse solve — and the optimum must come out identical either
// way.

package lp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/faultinject"
)

// chaosLP builds a reproducible feasible LP with a few dozen pivots' worth
// of structure (enough for warm-start replays to be non-trivial).
func chaosLP(seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	n := 12
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.SetObj(j, float64(rng.Intn(9)-4))
		p.SetBounds(j, 0, float64(3+rng.Intn(8)))
	}
	for i := 0; i < 8; i++ {
		coeffs := map[int]float64{}
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 0 {
				coeffs[j] = float64(rng.Intn(7) - 3)
			}
		}
		if len(coeffs) == 0 {
			coeffs[i%n] = 1
		}
		p.AddRow(LE, coeffs, float64(5+rng.Intn(20)))
	}
	return p
}

// TestChaosSparseFallbackEquivalence: with the sparse-solve fault armed
// permanently, every FTRAN/BTRAN is forced onto the dense fallback
// (sparseMax reports 0), and a full solve plus a warm bound-tightening
// replay must reproduce the un-faulted run exactly — the hyper-sparse path
// is an optimization, never a semantic fork. The fired counter proves the
// gate actually routed solves away.
func TestChaosSparseFallbackEquivalence(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	for seed := int64(1); seed <= 3; seed++ {
		// Large enough (m=30 >= luSparseMinDim) that the sparse path
		// genuinely engages when the fault is disarmed.
		p := benchProblem(60, 30, 6, seed)
		ref := NewSolver(p)
		faulted := NewSolver(p)
		want, err := ref.Solve()
		if err != nil {
			t.Fatalf("seed %d: clean solve: %v", seed, err)
		}
		faultinject.Arm(faultinject.SparseSolveFallback, -1)
		got, err := faulted.Solve()
		faultinject.Disarm(faultinject.SparseSolveFallback)
		if err != nil {
			t.Fatalf("seed %d: faulted solve: %v", seed, err)
		}
		if got.Status != want.Status ||
			(got.Status == Optimal && math.Abs(got.Obj-want.Obj) > 1e-6) {
			t.Fatalf("seed %d: dense-forced solve diverged: (%v, %g) vs (%v, %g)",
				seed, got.Status, got.Obj, want.Status, want.Obj)
		}
		if faulted.Stats.SparseFTRANs != 0 || faulted.Stats.SparseBTRANs != 0 {
			t.Fatalf("seed %d: sparse solves recorded (%d/%d) while the fallback fault was armed",
				seed, faulted.Stats.SparseFTRANs, faulted.Stats.SparseBTRANs)
		}
		// Warm replay: bound tightening drives the FT-update / sparse
		// re-entry paths on both solvers.
		for j := 0; j < faulted.NumVars(); j += 5 {
			ref.SetVarBounds(j, 1, 1)
			faulted.SetVarBounds(j, 1, 1)
			want, err = ref.Solve()
			if err != nil {
				t.Fatalf("seed %d: clean warm re-solve: %v", seed, err)
			}
			faultinject.Arm(faultinject.SparseSolveFallback, -1)
			got, err = faulted.Solve()
			faultinject.Disarm(faultinject.SparseSolveFallback)
			if err != nil {
				t.Fatalf("seed %d: faulted warm re-solve: %v", seed, err)
			}
			if got.Status != want.Status ||
				(got.Status == Optimal && math.Abs(got.Obj-want.Obj) > 1e-6) {
				t.Fatalf("seed %d: warm re-solve diverged: (%v, %g) vs (%v, %g)",
					seed, got.Status, got.Obj, want.Status, want.Obj)
			}
		}
	}
	if faultinject.Fired(faultinject.SparseSolveFallback) == 0 {
		t.Fatal("sparse-fallback fault point never fired; hook is dead")
	}
}

// TestChaosRefactorFailureKeepsSolving: with every reinversion attempt
// failing, maybeRefactor keeps the current (still valid) factor and the
// solver's answers do not change across a warm re-solve sequence.
func TestChaosRefactorFailureKeepsSolving(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	for seed := int64(1); seed <= 5; seed++ {
		p := chaosLP(seed)
		ref := NewSolver(p)
		faulted := NewSolver(p)
		faultinject.Disarm(faultinject.LURefactorFail)
		want, err := ref.Solve()
		if err != nil || want.Status != Optimal {
			t.Fatalf("seed %d: clean solve (%v, %v)", seed, want.Status, err)
		}
		faultinject.Arm(faultinject.LURefactorFail, -1)
		got, err := faulted.Solve()
		if err != nil {
			t.Fatalf("seed %d: faulted solve: %v", seed, err)
		}
		if got.Status != Optimal || math.Abs(got.Obj-want.Obj) > 1e-6 {
			t.Fatalf("seed %d: faulted solve diverged: (%v, %g) vs %g",
				seed, got.Status, got.Obj, want.Obj)
		}
		// Warm re-solves after bound tightening (the branching pattern that
		// drives Forrest-Tomlin updates and eventually reinversions).
		for j := 0; j < faulted.NumVars(); j += 3 {
			lo, hi := faulted.Bounds(j)
			faulted.SetVarBounds(j, lo, math.Max(lo, hi-1))
			ref.SetVarBounds(j, lo, math.Max(lo, hi-1))
			got, err = faulted.Solve()
			if err != nil {
				t.Fatalf("seed %d: faulted warm re-solve: %v", seed, err)
			}
			faultinject.Disarm(faultinject.LURefactorFail)
			want, err = ref.Solve()
			faultinject.Arm(faultinject.LURefactorFail, -1)
			if err != nil {
				t.Fatalf("seed %d: clean warm re-solve: %v", seed, err)
			}
			if got.Status != want.Status ||
				(got.Status == Optimal && math.Abs(got.Obj-want.Obj) > 1e-6) {
				t.Fatalf("seed %d: re-solve diverged: (%v, %g) vs (%v, %g)",
					seed, got.Status, got.Obj, want.Status, want.Obj)
			}
		}
	}
}
