package lp

import (
	"math"
	"math/rand"
	"testing"
)

// freshWithRows builds a fresh problem equal to p plus the given cut rows
// and solves it cold — the reference answer for dynamic-row tests.
func freshWithRows(p *Problem, cuts []CutRow) *Solution {
	q := NewProblem(p.n)
	copy(q.obj, p.obj)
	copy(q.lower, p.lower)
	copy(q.upper, p.upper)
	q.rows = append(q.rows, p.rows...)
	for _, c := range cuts {
		m := map[int]float64{}
		for k, j := range c.Cols {
			m[j] += c.Vals[k]
		}
		q.AddRow(c.Kind, m, c.RHS)
	}
	sol, err := Solve(q)
	if err != nil {
		panic(err)
	}
	return sol
}

func TestAddRowsWarmMatchesCold(t *testing.T) {
	// max x+y (min -x-y) s.t. x+2y <= 4, 3x+y <= 6, x,y in [0,3].
	p := NewProblem(2)
	p.SetObj(0, -1)
	p.SetObj(1, -1)
	p.SetBounds(0, 0, 3)
	p.SetBounds(1, 0, 3)
	p.AddRow(LE, map[int]float64{0: 1, 1: 2}, 4)
	p.AddRow(LE, map[int]float64{0: 3, 1: 1}, 6)

	s := NewSolver(p)
	first, err := s.Solve()
	if err != nil || first.Status != Optimal {
		t.Fatalf("base solve: %v %v", first, err)
	}

	cut := CutRow{Kind: LE, Cols: []int{0, 1}, Vals: []float64{1, 1}, RHS: 2}
	if err := s.AddRows([]CutRow{cut}); err != nil {
		t.Fatal(err)
	}
	if !s.valid {
		t.Fatal("AddRows dropped the warm basis")
	}
	got, err := s.Solve()
	if err != nil || got.Status != Optimal {
		t.Fatalf("post-cut solve: %v %v", got, err)
	}
	want := freshWithRows(p, []CutRow{cut})
	if math.Abs(got.Obj-want.Obj) > 1e-7 {
		t.Fatalf("obj %g after AddRows, fresh solve gives %g", got.Obj, want.Obj)
	}
	if s.Stats.ColdSolves != 1 {
		t.Fatalf("post-cut solve went cold (%+v), want dual-simplex warm re-entry", s.Stats)
	}
	if s.Stats.RowsAdded != 1 || s.m != 3 || s.AddedRows() != 1 || s.mBase != 2 {
		t.Fatalf("row accounting: stats=%+v rows=%d added=%d base=%d", s.Stats, s.m, s.AddedRows(), s.mBase)
	}
}

func TestAddRowsKinds(t *testing.T) {
	// min x+y s.t. x+y >= 1; then force x = y (EQ) and x >= 0.4 (GE).
	p := NewProblem(2)
	p.SetObj(0, 1)
	p.SetObj(1, 1)
	p.SetBounds(0, 0, 10)
	p.SetBounds(1, 0, 10)
	p.AddRow(GE, map[int]float64{0: 1, 1: 1}, 1)
	s := NewSolver(p)
	if sol, err := s.Solve(); err != nil || sol.Status != Optimal {
		t.Fatalf("base: %v %v", sol, err)
	}
	cuts := []CutRow{
		{Kind: EQ, Cols: []int{0, 1}, Vals: []float64{1, -1}, RHS: 0},
		{Kind: GE, Cols: []int{0}, Vals: []float64{1}, RHS: 0.4},
	}
	if err := s.AddRows(cuts); err != nil {
		t.Fatal(err)
	}
	got, err := s.Solve()
	if err != nil || got.Status != Optimal {
		t.Fatalf("post: %v %v", got, err)
	}
	want := freshWithRows(p, cuts)
	if math.Abs(got.Obj-want.Obj) > 1e-7 {
		t.Fatalf("obj %g, want %g", got.Obj, want.Obj)
	}
	if math.Abs(got.X[0]-got.X[1]) > 1e-7 || got.X[0] < 0.4-1e-7 {
		t.Fatalf("x=%v violates added rows", got.X)
	}
}

func TestAddRowsInfeasibleCut(t *testing.T) {
	p := NewProblem(1)
	p.SetObj(0, 1)
	p.SetBounds(0, 0, 1)
	p.AddRow(LE, map[int]float64{0: 1}, 1)
	s := NewSolver(p)
	if sol, _ := s.Solve(); sol.Status != Optimal {
		t.Fatalf("base status %v", sol.Status)
	}
	if err := s.AddRows([]CutRow{{Kind: GE, Cols: []int{0}, Vals: []float64{1}, RHS: 2}}); err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want Infeasible (x<=1 vs x>=2)", sol.Status)
	}
}

func TestDropAddedRowsRestoresBase(t *testing.T) {
	p := NewProblem(2)
	p.SetObj(0, -1)
	p.SetObj(1, -1)
	p.SetBounds(0, 0, 2)
	p.SetBounds(1, 0, 2)
	p.AddRow(LE, map[int]float64{0: 1, 1: 1}, 3)
	s := NewSolver(p)
	base, err := s.Solve()
	if err != nil || base.Status != Optimal {
		t.Fatalf("base: %v %v", base, err)
	}
	// The next Solve overwrites the Solver's Solution: keep the value.
	baseObj := base.Obj
	if err := s.AddRows([]CutRow{{Kind: LE, Cols: []int{0, 1}, Vals: []float64{1, 1}, RHS: 1}}); err != nil {
		t.Fatal(err)
	}
	cutSol, err := s.Solve()
	if err != nil || cutSol.Status != Optimal || math.Abs(cutSol.Obj-(-1)) > 1e-7 {
		t.Fatalf("cut solve: %v %v", cutSol, err)
	}
	s.DropAddedRows()
	if s.AddedRows() != 0 || s.m != 1 {
		t.Fatalf("rows after drop: %d/%d", s.AddedRows(), s.m)
	}
	again, err := s.Solve()
	if err != nil || again.Status != Optimal {
		t.Fatalf("post-drop: %v %v", again, err)
	}
	if math.Abs(again.Obj-baseObj) > 1e-7 {
		t.Fatalf("post-drop obj %g, want base %g", again.Obj, baseObj)
	}
}

func TestAddRowsBeforeFirstSolve(t *testing.T) {
	p := NewProblem(2)
	p.SetObj(0, -1)
	p.SetBounds(0, 0, 5)
	p.SetBounds(1, 0, 5)
	p.AddRow(LE, map[int]float64{0: 1, 1: 1}, 6)
	s := NewSolver(p)
	cut := CutRow{Kind: LE, Cols: []int{0}, Vals: []float64{1}, RHS: 2}
	if err := s.AddRows([]CutRow{cut}); err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("%v %v", sol, err)
	}
	if math.Abs(sol.Obj-(-2)) > 1e-7 {
		t.Fatalf("obj %g, want -2", sol.Obj)
	}
}

func TestAddRowsValidation(t *testing.T) {
	p := NewProblem(2)
	p.AddRow(LE, map[int]float64{0: 1}, 1)
	s := NewSolver(p)
	if err := s.AddRows([]CutRow{{Kind: LE, Cols: []int{5}, Vals: []float64{1}, RHS: 1}}); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	if err := s.AddRows([]CutRow{{Kind: LE, Cols: []int{0}, Vals: []float64{math.NaN()}, RHS: 1}}); err == nil {
		t.Fatal("NaN coefficient accepted")
	}
	if err := s.AddRows([]CutRow{{Kind: LE, Cols: []int{0, 1}, Vals: []float64{1}, RHS: 1}}); err == nil {
		t.Fatal("mismatched cols/vals accepted")
	}
	if s.m != 1 || s.AddedRows() != 0 {
		t.Fatalf("failed AddRows mutated the solver: rows=%d added=%d", s.m, s.AddedRows())
	}
}

func TestAddRowsMergesDuplicateCols(t *testing.T) {
	p := NewProblem(1)
	p.SetObj(0, -1)
	p.SetBounds(0, 0, 10)
	p.AddRow(LE, map[int]float64{0: 1}, 10)
	s := NewSolver(p)
	if sol, _ := s.Solve(); sol.Status != Optimal {
		t.Fatal("base")
	}
	// 0.5x + 0.5x <= 3  =>  x <= 3.
	if err := s.AddRows([]CutRow{{Kind: LE, Cols: []int{0, 0}, Vals: []float64{0.5, 0.5}, RHS: 3}}); err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve()
	if err != nil || sol.Status != Optimal || math.Abs(sol.Obj-(-3)) > 1e-7 {
		t.Fatalf("%v %v, want obj -3", sol, err)
	}
}

func TestAddRowsWithRedundantRowBasis(t *testing.T) {
	// A duplicated EQ row leaves a basic artificial in the optimal basis
	// (redundant row); AddRows must remap the shifted artificial block.
	p := NewProblem(2)
	p.SetObj(0, 1)
	p.SetObj(1, 2)
	p.SetBounds(0, 0, 10)
	p.SetBounds(1, 0, 10)
	p.AddRow(EQ, map[int]float64{0: 1, 1: 1}, 4)
	p.AddRow(EQ, map[int]float64{0: 1, 1: 1}, 4) // redundant copy
	s := NewSolver(p)
	base, err := s.Solve()
	if err != nil || base.Status != Optimal {
		t.Fatalf("base: %v %v", base, err)
	}
	cut := CutRow{Kind: GE, Cols: []int{1}, Vals: []float64{1}, RHS: 1}
	if err := s.AddRows([]CutRow{cut}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Solve()
	if err != nil || got.Status != Optimal {
		t.Fatalf("post: %v %v", got, err)
	}
	want := freshWithRows(p, []CutRow{cut})
	if math.Abs(got.Obj-want.Obj) > 1e-7 {
		t.Fatalf("obj %g, want %g", got.Obj, want.Obj)
	}
}

// TestAddRowsRandomizedEquivalence cross-checks the dynamic-row path
// against fresh cold solves on random LPs with random appended rows, in
// several increments so cuts stack on top of cuts.
func TestAddRowsRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(5)
		mr := 1 + rng.Intn(4)
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			p.SetObj(j, float64(rng.Intn(11)-5))
			p.SetBounds(j, 0, float64(1+rng.Intn(8)))
		}
		for i := 0; i < mr; i++ {
			row := map[int]float64{}
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.6 {
					row[j] = float64(rng.Intn(7) - 3)
				}
			}
			if len(row) == 0 {
				row[rng.Intn(n)] = 1
			}
			p.AddRow(LE, row, float64(rng.Intn(12)))
		}
		s := NewSolver(p)
		if _, err := s.Solve(); err != nil {
			t.Fatalf("trial %d base: %v", trial, err)
		}
		var cuts []CutRow
		for inc := 0; inc < 3; inc++ {
			batch := 1 + rng.Intn(2)
			add := make([]CutRow, 0, batch)
			for b := 0; b < batch; b++ {
				c := CutRow{Kind: LE, RHS: float64(rng.Intn(10) + 1)}
				if rng.Intn(4) == 0 {
					c.Kind = GE
					c.RHS = float64(rng.Intn(3))
				}
				for j := 0; j < n; j++ {
					if rng.Float64() < 0.5 {
						c.Cols = append(c.Cols, j)
						c.Vals = append(c.Vals, float64(rng.Intn(5)-1))
					}
				}
				if len(c.Cols) == 0 {
					c.Cols = []int{rng.Intn(n)}
					c.Vals = []float64{1}
				}
				add = append(add, c)
			}
			if err := s.AddRows(add); err != nil {
				t.Fatalf("trial %d inc %d: %v", trial, inc, err)
			}
			cuts = append(cuts, add...)
			got, err := s.Solve()
			if err != nil {
				t.Fatalf("trial %d inc %d solve: %v", trial, inc, err)
			}
			want := freshWithRows(p, cuts)
			if got.Status != want.Status {
				t.Fatalf("trial %d inc %d: status %v, fresh %v", trial, inc, got.Status, want.Status)
			}
			if got.Status == Optimal && math.Abs(got.Obj-want.Obj) > 1e-6 {
				t.Fatalf("trial %d inc %d: obj %g, fresh %g", trial, inc, got.Obj, want.Obj)
			}
		}
	}
}
