package lp

import (
	"math"
	"testing"
)

// cgProblem builds the cutting-stock-style restricted master the AddCols
// tests share: minimize x0 + x1 subject to
//
//	cover0: x0       >= 1
//	cover1:      x1  >= 1
//
// with x in [0, 10]. The optimum is x = (1, 1), obj 2.
func cgProblem() *Problem {
	p := NewProblem(2)
	p.SetObj(0, 1)
	p.SetObj(1, 1)
	p.SetBounds(0, 0, 10)
	p.SetBounds(1, 0, 10)
	p.AddRow(GE, map[int]float64{0: 1}, 1)
	p.AddRow(GE, map[int]float64{1: 1}, 1)
	return p
}

// TestAddColsWarmEntry is the column-generation happy path: solve, append
// a column that dominates both base columns, and check the re-solve warm
// starts and prices the newcomer in.
func TestAddColsWarmEntry(t *testing.T) {
	s := NewSolver(cgProblem())
	sol, err := s.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("base solve: %v %v", sol, err)
	}
	if math.Abs(sol.Obj-2) > 1e-9 {
		t.Fatalf("base obj = %v, want 2", sol.Obj)
	}
	// A "pattern" covering both rows at cost 1.5: reduced cost
	// 1.5 - y0 - y1 = -0.5 at the current duals (y = (1,1)).
	y := s.RowDuals(nil)
	if y == nil || math.Abs(y[0]-1) > 1e-9 || math.Abs(y[1]-1) > 1e-9 {
		t.Fatalf("duals = %v, want [1 1]", y)
	}
	if err := s.AddCols([]NewCol{{Obj: 1.5, Lo: 0, Hi: 10, Rows: []int{0, 1}, Vals: []float64{1, 1}}}); err != nil {
		t.Fatalf("AddCols: %v", err)
	}
	if s.NumVars() != 3 || s.NumBaseVars() != 2 || s.AddedCols() != 1 {
		t.Fatalf("counts: NumVars=%d NumBaseVars=%d AddedCols=%d", s.NumVars(), s.NumBaseVars(), s.AddedCols())
	}
	if !s.valid {
		t.Fatal("AddCols invalidated the basis")
	}
	warmBefore := s.Stats.WarmSolves
	sol, err = s.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("re-solve: %v %v", sol, err)
	}
	if s.Stats.WarmSolves != warmBefore+1 {
		t.Fatalf("re-solve was not warm (WarmSolves %d -> %d)", warmBefore, s.Stats.WarmSolves)
	}
	if math.Abs(sol.Obj-1.5) > 1e-9 {
		t.Fatalf("obj after pricing = %v, want 1.5", sol.Obj)
	}
	if math.Abs(sol.X[2]-1) > 1e-9 {
		t.Fatalf("new column value = %v, want 1", sol.X[2])
	}
	if s.Stats.ColsAdded != 1 {
		t.Fatalf("Stats.ColsAdded = %d, want 1", s.Stats.ColsAdded)
	}
}

// TestAddColsColdWithFixedLowerBound drives the column-branching path: an
// appended column fixed to 1 (lo=hi=1) must be honored by a cold build,
// whose row residuals have to see the appended column's resting value.
func TestAddColsColdWithFixedLowerBound(t *testing.T) {
	s := NewSolver(cgProblem())
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if err := s.AddCols([]NewCol{{Obj: 1.5, Lo: 0, Hi: 1, Rows: []int{0, 1}, Vals: []float64{1, 1}}}); err != nil {
		t.Fatal(err)
	}
	s.SetVarBounds(2, 1, 1) // branch: pattern fixed into the selection
	s.Invalidate()          // force the cold path
	sol, err := s.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold solve: %v %v", sol, err)
	}
	if math.Abs(sol.Obj-1.5) > 1e-9 || math.Abs(sol.X[2]-1) > 1e-9 {
		t.Fatalf("cold solve with fixed appended column: obj=%v x=%v, want obj 1.5, x2=1", sol.Obj, sol.X)
	}
	// And the opposite branch: forbidden (hi=0) must push the LP back to
	// the base optimum.
	s.SetVarBounds(2, 0, 0)
	sol, err = s.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("forbidden branch: %v %v", sol, err)
	}
	if math.Abs(sol.Obj-2) > 1e-9 {
		t.Fatalf("forbidden branch obj = %v, want 2", sol.Obj)
	}
}

// TestAddColsThenAddRows interleaves column and row growth: a no-good row
// referencing an appended column must constrain it.
func TestAddColsThenAddRows(t *testing.T) {
	s := NewSolver(cgProblem())
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if err := s.AddCols([]NewCol{{Obj: 1.5, Lo: 0, Hi: 10, Rows: []int{0, 1}, Vals: []float64{1, 1}}}); err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve()
	if err != nil || math.Abs(sol.Obj-1.5) > 1e-9 {
		t.Fatalf("pre-cut solve: %v %v", sol, err)
	}
	// No-good: the appended column may not be used (x2 <= 0), as the
	// branch-and-price no-good path does for refuted selections.
	if err := s.AddRows([]CutRow{{Kind: LE, Cols: []int{2}, Vals: []float64{1}, RHS: 0}}); err != nil {
		t.Fatalf("AddRows over appended column: %v", err)
	}
	sol, err = s.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("post-cut solve: %v %v", sol, err)
	}
	if math.Abs(sol.Obj-2) > 1e-9 || math.Abs(sol.X[2]) > 1e-9 {
		t.Fatalf("no-good row ignored: obj=%v x=%v", sol.Obj, sol.X)
	}
	// Now grow a column after the row: it must be rejected if it targets
	// the added row, accepted over base rows, and the added row must keep
	// holding (it has no support in the new column by construction).
	if err := s.AddCols([]NewCol{{Obj: 1, Lo: 0, Hi: 1, Rows: []int{2}, Vals: []float64{1}}}); err == nil {
		t.Fatal("AddCols accepted an added-row reference")
	}
	if err := s.AddCols([]NewCol{{Obj: 0.5, Lo: 0, Hi: 10, Rows: []int{1}, Vals: []float64{1}}}); err != nil {
		t.Fatal(err)
	}
	sol, err = s.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("second growth solve: %v %v", sol, err)
	}
	if math.Abs(sol.Obj-1.5) > 1e-9 {
		t.Fatalf("obj = %v, want 1.5 (x0=1 + cheap cover of row 1)", sol.Obj)
	}
	// Drop the cuts: appended columns survive, the no-good does not.
	s.DropAddedRows()
	sol, err = s.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("post-drop solve: %v %v", sol, err)
	}
	if math.Abs(sol.Obj-1.5) > 1e-9 {
		t.Fatalf("post-drop obj = %v, want 1.5 (pattern column usable again)", sol.Obj)
	}
}

// TestAddColsValidation checks the whole-batch rejection contract.
func TestAddColsValidation(t *testing.T) {
	s := NewSolver(cgProblem())
	bad := []struct {
		name string
		col  NewCol
	}{
		{"len mismatch", NewCol{Hi: 1, Rows: []int{0}, Vals: nil}},
		{"neg inf lo", NewCol{Lo: math.Inf(-1), Hi: 1}},
		{"empty bounds", NewCol{Lo: 2, Hi: 1}},
		{"nan obj", NewCol{Obj: math.NaN(), Hi: 1}},
		{"row out of range", NewCol{Hi: 1, Rows: []int{5}, Vals: []float64{1}}},
		{"inf coeff", NewCol{Hi: 1, Rows: []int{0}, Vals: []float64{math.Inf(1)}}},
	}
	for _, tc := range bad {
		if err := s.AddCols([]NewCol{tc.col}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if s.NumVars() != 2 || s.AddedCols() != 0 {
		t.Fatalf("rejected batches mutated the solver: NumVars=%d AddedCols=%d", s.NumVars(), s.AddedCols())
	}
	// A batch with one bad column must reject the good one too.
	if err := s.AddCols([]NewCol{
		{Obj: 1, Hi: 1, Rows: []int{0}, Vals: []float64{1}},
		{Obj: 1, Hi: 1, Rows: []int{-1}, Vals: []float64{1}},
	}); err == nil {
		t.Fatal("batch with a bad column accepted")
	}
	if s.AddedCols() != 0 {
		t.Fatal("partial batch applied")
	}
}

// TestAddColsDupRowsMerged: duplicate row indices in one column merge.
func TestAddColsDupRowsMerged(t *testing.T) {
	s := NewSolver(cgProblem())
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	// 0.5 + 0.5 in row 0 merges to coefficient 1.
	if err := s.AddCols([]NewCol{{Obj: 0.25, Lo: 0, Hi: 10, Rows: []int{0, 0}, Vals: []float64{0.5, 0.5}}}); err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v %v", sol, err)
	}
	// x2=1 covers row 0 at cost 0.25; row 1 still needs x1=1.
	if math.Abs(sol.Obj-1.25) > 1e-9 || math.Abs(sol.X[2]-1) > 1e-9 {
		t.Fatalf("obj=%v x=%v, want obj 1.25 with x2=1", sol.Obj, sol.X)
	}
}

// TestAddColsAccumulate covers the stats plumbing for the new counter.
func TestAddColsAccumulate(t *testing.T) {
	a := SolverStats{ColsAdded: 3}
	b := SolverStats{ColsAdded: 2}
	a.Accumulate(b)
	if a.ColsAdded != 5 {
		t.Fatalf("Accumulate: %d", a.ColsAdded)
	}
	if d := a.Delta(b); d.ColsAdded != 3 {
		t.Fatalf("Delta: %d", d.ColsAdded)
	}
}
