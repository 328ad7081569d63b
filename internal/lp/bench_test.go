package lp

import (
	"math/rand"
	"testing"
)

// benchProblem builds a deterministic sparse covering LP:
//
//	min Σ c_j x_j   s.t.   Σ_{j∈S_i} a_ij x_j ≥ b_i,   0 ≤ x ≤ 1
//
// with rowLen random nonzeros per row. The shape mirrors the tempart
// relaxations (unit-box variables, short GE rows) at a size where the LU
// factor is genuinely sparse.
func benchProblem(nVars, nRows, rowLen int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem(nVars)
	for j := 0; j < nVars; j++ {
		p.SetBounds(j, 0, 1)
		p.SetObj(j, 1+rng.Float64())
	}
	p.Reserve(nRows, nRows*rowLen)
	cols := make([]int, 0, rowLen)
	vals := make([]float64, 0, rowLen)
	seen := make(map[int]bool, rowLen)
	for i := 0; i < nRows; i++ {
		cols, vals = cols[:0], vals[:0]
		for k := range seen {
			delete(seen, k)
		}
		for len(cols) < rowLen {
			j := rng.Intn(nVars)
			if seen[j] {
				continue
			}
			seen[j] = true
			cols = append(cols, j)
			vals = append(vals, 1+rng.Float64())
		}
		p.AddRowCols(GE, cols, vals, float64(rowLen)/4)
	}
	return p
}

// BenchmarkLP_FTRAN times one sparse forward solve B⁻¹v against the live LU
// factor of an optimal basis — the innermost kernel of every pricing step and
// ratio test. The loop must not allocate: ftran works in place on the caller's
// vector and the factor's depth-first stack is retained across calls.
func BenchmarkLP_FTRAN(b *testing.B) {
	p := benchProblem(240, 120, 8, 1)
	s := NewSolver(p)
	if _, err := s.Solve(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	rhs := make([]float64, s.m)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	work := make([]float64, s.m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, rhs)
		s.lu.ftran(work)
	}
	b.StopTimer()
	b.ReportMetric(float64(s.lu.fNNZ()), "factor-nnz")
}

// benchProblemBanded builds the same covering shape as benchProblem but
// with banded rows: row i covers rowLen consecutive variables starting at
// i·(nVars/nRows). Hyper-sparsity is a property of local structure — a
// random covering basis has a mostly dense inverse (a singleton FTRAN
// reaches most of the factor graph), while the banded one mirrors the
// precedence/adjacency rows of the temporal-partitioning relaxations,
// where B⁻¹ columns stay short. The sparse-path benchmarks use this shape;
// the warm-start and pricing benchmarks keep the adversarial random one.
func benchProblemBanded(nVars, nRows, rowLen int) *Problem {
	p := NewProblem(nVars)
	for j := 0; j < nVars; j++ {
		p.SetBounds(j, 0, 1)
		p.SetObj(j, 1+float64(j%7)/7)
	}
	p.Reserve(nRows, nRows*rowLen)
	cols := make([]int, rowLen)
	vals := make([]float64, rowLen)
	stride := nVars / nRows
	for i := 0; i < nRows; i++ {
		for k := 0; k < rowLen; k++ {
			cols[k] = (i*stride + k) % nVars
			vals[k] = 1 + float64((i+k)%5)/5
		}
		p.AddRowCols(GE, cols, vals, float64(rowLen)/4)
	}
	return p
}

// BenchmarkLP_SparseFTRAN times the hyper-sparse forward solve on a
// singleton right-hand side (a unit pricing column) against the live LU
// factor — the case the symbolic-reachability path exists for. The loop must
// not allocate (the DFS stacks, mark arrays, and nonzero lists are factor
// scratch retained across calls) and at this size at least 90% of the
// singleton solves must stay under the density gate.
func BenchmarkLP_SparseFTRAN(b *testing.B) {
	p := benchProblemBanded(480, 240, 6)
	s := NewSolver(p)
	if _, err := s.Solve(); err != nil {
		b.Fatal(err)
	}
	m := s.m
	work := make([]float64, m)
	idx := make([]int32, 1)
	var hits, total int
	solve := func(r int32) {
		idx[0] = r
		work[r] = 1
		nz, ok := s.lu.ftranSparse(work, idx)
		total++
		if ok {
			hits++
			for _, q := range nz {
				work[q] = 0
			}
			return
		}
		for i := range work {
			work[i] = 0
		}
	}
	// Warm every seed once so the retained scratch reaches steady-state
	// capacity, then pin the zero-allocation contract before timing.
	for r := 0; r < m; r++ {
		solve(int32(r))
	}
	if allocs := testing.AllocsPerRun(200, func() { solve(int32(total % m)) }); allocs > 0 {
		b.Fatalf("sparse FTRAN allocated %.1f times per solve", allocs)
	}
	hits, total = 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve(int32(i % m))
	}
	b.StopTimer()
	frac := float64(hits) / float64(total)
	if frac < 0.9 {
		b.Fatalf("sparse-hit fraction %.3f < 0.9 (%d of %d fell back dense)", frac, total-hits, total)
	}
	b.ReportMetric(frac, "sparse-hit-fraction")
}

// BenchmarkLP_Warm measures the warm-start repair path the branch-and-bound
// search lives on: fix one variable to 1 (the branching move; always feasible
// for a covering LP), dual-repair to the new optimum, unfix, and repair back.
// Reported counters are per benchmark op (= two Solve calls). The dual repair
// is allowed to stall onto the cold path on occasional degenerate fixings (a
// deliberate budget in dual()), but the warm path must carry ≥95% of solves.
func BenchmarkLP_Warm(b *testing.B) {
	const nVars = 240
	p := benchProblem(nVars, 120, 8, 1)
	s := NewSolver(p)
	if _, err := s.Solve(); err != nil {
		b.Fatal(err)
	}
	base := s.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % nVars
		s.SetVarBounds(j, 1, 1)
		if _, err := s.Solve(); err != nil {
			b.Fatal(err)
		}
		s.SetVarBounds(j, 0, 1)
		if _, err := s.Solve(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	d := s.Stats.Delta(base)
	n := float64(b.N)
	if float64(d.ColdSolves) > 0.05*float64(d.Solves) {
		b.Fatalf("%d of %d solves fell off the warm path", d.ColdSolves, d.Solves)
	}
	b.ReportMetric(float64(d.WarmSolves)/float64(d.Solves), "warm-fraction")
	b.ReportMetric(float64(d.Pivots)/n, "pivots/op")
	b.ReportMetric(float64(d.Refactorizations)/n, "refactorizations/op")
	b.ReportMetric(float64(d.BoundFlips)/n, "bound-flips/op")
	b.ReportMetric(float64(d.SparseFTRANs+d.SparseBTRANs)/n, "sparse-solves/op")
	b.ReportMetric(float64(d.DenseFallbacks)/n, "dense-fallbacks/op")
}

// BenchmarkLP_Refactor times one reinversion of a slack-heavy basis, the
// shape branch-and-cut leaves behind: the optimal basis of the covering
// LP plus 360 loose cut rows whose slacks stay basic, so about 80% of the
// basis columns are unit slacks. The loop must not allocate (the sort
// buckets, the non-empty-eta list and the L/U arenas are factor scratch
// retained across reinversions).
func BenchmarkLP_Refactor(b *testing.B) {
	p := benchProblem(240, 120, 8, 1)
	s := NewSolver(p)
	if _, err := s.Solve(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	cuts := make([]CutRow, 360)
	for i := range cuts {
		for k := 0; k < 4; k++ {
			cuts[i].Cols = append(cuts[i].Cols, rng.Intn(240))
			cuts[i].Vals = append(cuts[i].Vals, 1)
		}
		cuts[i].Kind, cuts[i].RHS = LE, 10
	}
	if err := s.AddRows(cuts); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Solve(); err != nil {
		b.Fatal(err)
	}
	slacks := 0
	for _, j := range s.basis {
		if j >= s.nStruct {
			slacks++
		}
	}
	refactor := func() {
		if !s.factorizeBasis(s.luSpare) {
			b.Fatal("reinversion of an optimal basis failed")
		}
	}
	refactor()
	if allocs := testing.AllocsPerRun(20, refactor); allocs > 0 {
		b.Fatalf("reinversion allocated %.1f times", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refactor()
	}
	b.StopTimer()
	b.ReportMetric(float64(slacks)/float64(s.m), "slack-fraction")
	b.ReportMetric(float64(s.luSpare.baseNNZ), "factor-nnz")
}
