package lp

import (
	"math"
	"math/rand"
	"testing"
)

// checkScratchClean asserts the between-solves invariant the sparse paths
// promise: every mark array is all-false and the sparse workspace zs is
// all-zero. A leaked mark or stale zs entry poisons the NEXT solve's
// symbolic pass, so every property trial re-checks it.
func checkScratchClean(t *testing.T, f *luFactor) {
	t.Helper()
	for i := 0; i < f.m; i++ {
		if f.markR[i] || f.markS[i] || f.markV[i] {
			t.Fatalf("mark leaked at %d (R=%v S=%v V=%v)", i, f.markR[i], f.markS[i], f.markV[i])
		}
		if f.zs[i] != 0 {
			t.Fatalf("zs leaked at %d: %g", i, f.zs[i])
		}
	}
}

// sparseRHS builds a right-hand side with exactly nnz random nonzeros and
// returns it with its index list.
func sparseRHS(rng *rand.Rand, m, nnz int) ([]float64, []int32) {
	v := make([]float64, m)
	idx := make([]int32, 0, nnz)
	for len(idx) < nnz {
		i := rng.Intn(m)
		if v[i] != 0 {
			continue
		}
		v[i] = rng.NormFloat64()
		idx = append(idx, int32(i))
	}
	return v, idx
}

// checkSparseSolve runs one ftranSparse or btranSparse against the dense
// reference on the same factor and asserts: identical values everywhere, a
// sparse result that is zero outside its returned index list, and clean
// scratch afterwards. Returns whether the solve stayed sparse.
func checkSparseSolve(t *testing.T, f *luFactor, v []float64, idx []int32, btran bool, tol float64) bool {
	t.Helper()
	want := append([]float64(nil), v...)
	if btran {
		f.btran(want)
	} else {
		f.ftran(want)
	}
	got := append([]float64(nil), v...)
	var nz []int32
	var ok bool
	if btran {
		nz, ok = f.btranSparse(got, idx)
	} else {
		nz, ok = f.ftranSparse(got, idx)
	}
	checkScratchClean(t, f)
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol*(1+math.Abs(want[i])) {
			t.Fatalf("btran=%v nnz=%d sparse=%v: position %d got %g want %g",
				btran, len(idx), ok, i, got[i], want[i])
		}
	}
	if ok {
		on := make(map[int32]bool, len(nz))
		for _, q := range nz {
			on[q] = true
		}
		for i := range got {
			if got[i] != 0 && !on[int32(i)] {
				t.Fatalf("btran=%v: nonzero %d missing from sparse index list", btran, i)
			}
		}
	}
	return ok
}

// TestSparseSolveVsDense is the core equivalence property: across random
// factors of varying size and density, and right-hand sides from singleton
// to one-third dense, ftranSparse/btranSparse must agree with the dense
// ftran/btran to rounding — whether the solve stays on the sparse path or
// crosses the density gate mid-stage and finishes dense.
func TestSparseSolveVsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		m := 8 + rng.Intn(40) // always >= luSparseMinDim
		density := []float64{0.05, 0.12, 0.3}[trial%3]
		cols := randCols(rng, m, m, density)
		basis := rng.Perm(m)
		s := luTestSolver(t, cols, basis)
		if !s.factorizeBasis(s.lu) {
			continue
		}
		for _, nnz := range []int{1, 2, 1 + m/8, 1 + m/3} {
			v, idx := sparseRHS(rng, m, nnz)
			checkSparseSolve(t, s.lu, v, idx, false, 1e-8)
			v, idx = sparseRHS(rng, m, nnz)
			checkSparseSolve(t, s.lu, v, idx, true, 1e-8)
		}
	}
}

// TestSparseSolveAfterUpdate replays the TestLUUpdateVsRefactor pivot loop
// — basis changes applied via Forrest-Tomlin ftUpdate, never refactorized —
// and re-checks the sparse/dense equivalence after every update while the F
// file and the lT transpose graph grow. The sparse BTRAN's Fᵀ reverse scan
// and the update-spike stash are only exercised on factors with a non-empty
// F file, which fresh factorizations never have.
func TestSparseSolveAfterUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		m := 10 + rng.Intn(20)
		n := 2 * m
		cols := randCols(rng, n, m, 0.25)
		basis := rng.Perm(n)[:m]
		s := luTestSolver(t, cols, basis)
		if !s.factorizeBasis(s.lu) {
			continue
		}
		for step := 0; step < 12; step++ {
			// Pick a replacement column that keeps the basis nonsingular.
			r := rng.Intn(m)
			enter := -1
			for probe := 0; probe < 20; probe++ {
				j := rng.Intn(n)
				if s.status[j] == basic {
					continue
				}
				col, _ := s.ftranCol(j) // stashes the spike for ftUpdate
				if math.Abs(col[r]) > 1e-6 {
					enter = j
					break
				}
			}
			if enter < 0 {
				break
			}
			leave := s.basis[r]
			if _, ok := s.lu.ftUpdate(r); !ok {
				break
			}
			s.status[leave] = atLower
			s.basis[r] = enter
			s.status[enter] = basic
			for _, nnz := range []int{1, 1 + m/6} {
				v, idx := sparseRHS(rng, m, nnz)
				checkSparseSolve(t, s.lu, v, idx, false, 1e-6)
				v, idx = sparseRHS(rng, m, nnz)
				checkSparseSolve(t, s.lu, v, idx, true, 1e-6)
			}
		}
	}
}

// TestSparseSolveFallbackBoundary pins the density-gate contract on both
// sides: a seed list longer than sparseMax must take the dense path
// immediately (ok=false) with a correct dense result, and a dense factor
// (identity-free random at 0.9 density) must fall back mid-stage from a
// singleton seed without corrupting the result or the scratch invariants.
func TestSparseSolveFallbackBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := 30
	cols := randCols(rng, m, m, 0.15)
	s := luTestSolver(t, cols, rng.Perm(m))
	if !s.factorizeBasis(s.lu) {
		t.Fatal("factorization failed")
	}
	maxN := s.lu.sparseMax()
	if maxN <= 0 || maxN >= m {
		t.Fatalf("unexpected sparseMax %d for m=%d", maxN, m)
	}
	// One past the gate: must decline the sparse path up front.
	v, idx := sparseRHS(rng, m, maxN+1)
	if ok := checkSparseSolve(t, s.lu, v, idx, false, 1e-8); ok {
		t.Fatal("ftranSparse accepted a seed list past the density gate")
	}
	v, idx = sparseRHS(rng, m, maxN+1)
	if ok := checkSparseSolve(t, s.lu, v, idx, true, 1e-8); ok {
		t.Fatal("btranSparse accepted a seed list past the density gate")
	}
	// At the gate: allowed on the sparse path (it may still abort
	// mid-stage on predicted fill; equivalence is what matters).
	v, idx = sparseRHS(rng, m, maxN)
	checkSparseSolve(t, s.lu, v, idx, false, 1e-8)
	// Dense factor: singleton seeds whose reachable set outgrows the gate
	// mid-stage exercise every abort path.
	dense := randCols(rng, m, m, 0.9)
	sd := luTestSolver(t, dense, rng.Perm(m))
	if !sd.factorizeBasis(sd.lu) {
		t.Fatal("dense factorization failed")
	}
	sparse := 0
	for r := 0; r < m; r++ {
		v, idx = sparseRHS(rng, m, 1)
		if checkSparseSolve(t, sd.lu, v, idx, false, 1e-8) {
			sparse++
		}
		v, idx = sparseRHS(rng, m, 1)
		checkSparseSolve(t, sd.lu, v, idx, true, 1e-8)
	}
	if sparse == m {
		t.Fatal("every singleton on a dense factor stayed sparse; the gate is not engaging")
	}
}
