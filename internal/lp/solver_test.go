package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomBoundedLP builds a random LP with finite variable bounds around a
// known feasible point, so the instance is never trivially infeasible at the
// root. Returns the problem and the seed point.
func randomBoundedLP(rng *rand.Rand) (*Problem, []float64) {
	n := 2 + rng.Intn(8)
	m := 1 + rng.Intn(10)
	p := NewProblem(n)
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		x0[j] = float64(rng.Intn(5))
		p.SetObj(j, float64(rng.Intn(11)-5))
		p.SetBounds(j, 0, float64(5+rng.Intn(10)))
	}
	for i := 0; i < m; i++ {
		coeffs := map[int]float64{}
		lhs := 0.0
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 0 {
				c := float64(rng.Intn(9) - 4)
				if c != 0 {
					coeffs[j] = c
					lhs += c * x0[j]
				}
			}
		}
		kind := RowKind(rng.Intn(3))
		rhs := lhs
		switch kind {
		case LE:
			rhs = lhs + float64(rng.Intn(4))
		case GE:
			rhs = lhs - float64(rng.Intn(4))
		}
		p.AddRow(kind, coeffs, rhs)
	}
	return p, x0
}

// mutateBounds applies a random B&B-like bound change to the solver:
// fix a variable to an integer in range, tighten one side, or restore the
// problem's original bounds.
func mutateBounds(rng *rand.Rand, p *Problem, s *Solver) {
	j := rng.Intn(p.NumVars())
	plo, phi := p.Bounds(j)
	switch rng.Intn(4) {
	case 0: // fix to a value in the original range
		v := plo + math.Floor(rng.Float64()*(phi-plo))
		s.SetVarBounds(j, v, v)
	case 1: // tighten lower
		lo, hi := s.Bounds(j)
		nlo := lo + math.Floor(rng.Float64()*3)
		if nlo > hi {
			nlo = hi
		}
		s.SetVarBounds(j, nlo, hi)
	case 2: // tighten upper
		lo, hi := s.Bounds(j)
		nhi := hi - math.Floor(rng.Float64()*3)
		if nhi < lo {
			nhi = lo
		}
		s.SetVarBounds(j, lo, nhi)
	case 3: // restore original
		s.SetVarBounds(j, plo, phi)
	}
}

// coldReference solves the same instance with a fresh one-shot solve under
// the warm solver's current bounds.
func coldReference(t *testing.T, p *Problem, s *Solver) *Solution {
	t.Helper()
	q := p.Clone()
	for j := 0; j < p.NumVars(); j++ {
		lo, hi := s.Bounds(j)
		q.SetBounds(j, lo, hi)
	}
	ref, err := Solve(q)
	if err != nil {
		t.Fatalf("cold reference solve: %v", err)
	}
	return ref
}

// TestWarmMatchesColdProperty is the solver-equivalence property test: a
// warm-started Solver subjected to a random sequence of bound changes must
// report the same status and objective (within 1e-6) as a from-scratch cold
// solve at every step. The last four seeds swap in the sparse covering LP
// of the LP benches, whose 0-1 fix/unfix repairs are the B&B workload.
func TestWarmMatchesColdProperty(t *testing.T) {
	for seed := int64(0); seed < 124; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, _ := randomBoundedLP(rng)
		if seed >= 120 {
			p = benchProblem(80, 40, 5, seed-119)
		}
		s := NewSolver(p)
		for step := 0; step < 12; step++ {
			if step > 0 {
				mutateBounds(rng, p, s)
			}
			got, err := s.Solve()
			if err != nil {
				t.Fatalf("seed %d step %d: warm solve error: %v", seed, step, err)
			}
			ref := coldReference(t, p, s)
			if got.Status != ref.Status {
				t.Fatalf("seed %d step %d: warm status %v, cold %v", seed, step, got.Status, ref.Status)
			}
			if got.Status != Optimal {
				continue
			}
			if math.Abs(got.Obj-ref.Obj) > 1e-6 {
				t.Fatalf("seed %d step %d: warm obj %g, cold %g", seed, step, got.Obj, ref.Obj)
			}
			// The warm solution must itself be feasible for the bounds.
			for j := 0; j < p.NumVars(); j++ {
				lo, hi := s.Bounds(j)
				if got.X[j] < lo-1e-6 || got.X[j] > hi+1e-6 {
					t.Fatalf("seed %d step %d: x[%d]=%g outside [%g,%g]", seed, step, j, got.X[j], lo, hi)
				}
			}
			if !p.RowsSatisfied(got.X, 1e-6) {
				t.Fatalf("seed %d step %d: warm solution violates rows", seed, step)
			}
		}
	}
}

// TestSolverStatsWarmPath checks that repeated bound-change solves actually
// take the warm path rather than silently rebuilding every time.
func TestSolverStatsWarmPath(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p, _ := randomBoundedLP(rng)
	s := NewSolver(p)
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mutateBounds(rng, p, s)
		if _, err := s.Solve(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats.Solves != 21 {
		t.Fatalf("Stats.Solves = %d, want 21", s.Stats.Solves)
	}
	if s.Stats.WarmSolves == 0 {
		t.Error("no solve took the warm path")
	}
	if s.Stats.ColdSolves == s.Stats.Solves {
		t.Error("every solve was cold; warm start is not engaging")
	}
}

// TestSolverInfeasibleThenFeasible: a warm solver must recover when bounds
// make the model infeasible and are then relaxed again.
func TestSolverInfeasibleThenFeasible(t *testing.T) {
	p := NewProblem(2)
	p.SetObj(0, 1)
	p.SetObj(1, 1)
	p.AddRow(GE, map[int]float64{0: 1, 1: 1}, 4)
	p.SetBounds(0, 0, 3)
	p.SetBounds(1, 0, 3)
	s := NewSolver(p)
	sol, err := s.Solve()
	if err != nil || sol.Status != Optimal || math.Abs(sol.Obj-4) > 1e-9 {
		t.Fatalf("initial solve: %v %+v", err, sol)
	}
	// x0 + x1 >= 4 with both fixed to 1 is infeasible.
	s.SetVarBounds(0, 1, 1)
	s.SetVarBounds(1, 1, 1)
	sol, err = s.Solve()
	if err != nil || sol.Status != Infeasible {
		t.Fatalf("fixed solve: err=%v status=%v, want infeasible", err, sol.Status)
	}
	s.SetVarBounds(0, 0, 3)
	s.SetVarBounds(1, 0, 3)
	sol, err = s.Solve()
	if err != nil || sol.Status != Optimal || math.Abs(sol.Obj-4) > 1e-9 {
		t.Fatalf("relaxed solve: %v %+v", err, sol)
	}
}

func BenchmarkWarmResolve(b *testing.B) {
	// The B&B access pattern: one model, per-iteration bound fix + resolve.
	rng := rand.New(rand.NewSource(7))
	n := 40
	p := NewProblem(n)
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		x0[j] = float64(rng.Intn(4))
		p.SetObj(j, float64(rng.Intn(11)-5))
		p.SetBounds(j, 0, 10)
	}
	for i := 0; i < 30; i++ {
		coeffs := map[int]float64{}
		lhs := 0.0
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				c := float64(rng.Intn(7) - 3)
				coeffs[j] = c
				lhs += c * x0[j]
			}
		}
		p.AddRow(LE, coeffs, lhs+2)
	}
	s := NewSolver(p)
	if _, err := s.Solve(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % n
		s.SetVarBounds(j, 1, 1)
		if _, err := s.Solve(); err != nil {
			b.Fatal(err)
		}
		s.SetVarBounds(j, 0, 10)
	}
}
