// Package lp implements a bounded-variable simplex solver for linear
// programs, built around a reusable, warm-startable Solver object.
//
// The package has two layers:
//
//   - Problem is the model: sparse constraint rows (AddRow takes a
//     map[int]float64 and only nonzero coefficients are stored), a linear
//     minimization objective, and per-variable bounds.
//   - Solver is the engine: it factorizes the model once, owns a working
//     copy of the variable bounds (SetVarBounds), and re-solves after bound
//     changes by warm starting from the previous basis — a dual-simplex
//     repair followed by a primal cleanup — falling back to a from-scratch
//     two-phase primal solve only when the warm start stalls.
//
// This split exists for the branch-and-bound layer in internal/ilp: a B&B
// node only tightens variable bounds, so each node costs a handful of
// SetVarBounds calls plus a few dual pivots instead of a problem copy and a
// full two-phase solve. The one-shot Solve function remains for callers
// without bound churn.
//
// The solver targets the moderately sized models produced by the temporal
// partitioning ILP of internal/tempart (a few hundred variables and rows).
// It supports minimization objectives, <=, >= and == rows, per-variable
// lower and upper bounds (so 0-1 variables fixed by branch-and-bound do not
// require extra constraint rows), and infeasibility and unboundedness
// detection. Degeneracy is handled by switching from Dantzig pricing to
// Bland's rule after a stall is detected, which guarantees termination.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// RowKind classifies a linear constraint row.
type RowKind int

const (
	// LE is a "<= rhs" row.
	LE RowKind = iota
	// GE is a ">= rhs" row.
	GE
	// EQ is an "== rhs" row.
	EQ
)

func (k RowKind) String() string {
	switch k {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return fmt.Sprintf("RowKind(%d)", int(k))
}

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraint system has no feasible point.
	Infeasible
	// Unbounded means the objective is unbounded below on the feasible set.
	Unbounded
	// IterLimit means the iteration safety limit was exceeded, or the
	// Solver's stop callback fired (Solver.SetStop).
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Inf is the bound value representing "no bound".
var Inf = math.Inf(1)

const (
	eps      = 1e-9 // general numeric tolerance
	pivotEps = 1e-7 // minimum acceptable pivot magnitude
)

// row is one stored constraint.
type row struct {
	kind   RowKind
	coeffs []coeff
	rhs    float64
}

type coeff struct {
	j int
	v float64
}

// Problem is a linear program in the form
//
//	minimize    c . x
//	subject to  A x (<=|==|>=) b
//	            lower <= x <= upper
//
// The zero value is not usable; construct with NewProblem.
type Problem struct {
	n     int
	obj   []float64
	lower []float64
	upper []float64
	rows  []row
	// arena is the shared backing storage for coefficients of rows added
	// via AddRowCols: each such row's coeffs slice is a view into it, so a
	// model built row-by-row costs one arena allocation instead of one per
	// row. Growing the arena reallocates its backing but leaves existing
	// views valid (they keep the old array alive); rows never append
	// through their views.
	arena []coeff
}

// NewProblem returns a problem with n structural variables, zero objective,
// and default bounds [0, +Inf) for every variable.
func NewProblem(n int) *Problem {
	p := &Problem{
		n:     n,
		obj:   make([]float64, n),
		lower: make([]float64, n),
		upper: make([]float64, n),
	}
	for j := range p.upper {
		p.upper[j] = Inf
	}
	return p
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return p.n }

// AddVar appends a new structural variable with zero objective and default
// bounds [0, +Inf), returning its index. Variables may only be added before
// rows that reference them, but adding variables after unrelated rows is
// safe.
func (p *Problem) AddVar() int {
	p.obj = append(p.obj, 0)
	p.lower = append(p.lower, 0)
	p.upper = append(p.upper, Inf)
	p.n++
	return p.n - 1
}

// EvalRow computes the left-hand-side value of row i at point x.
func (p *Problem) EvalRow(i int, x []float64) float64 {
	lhs := 0.0
	for _, c := range p.rows[i].coeffs {
		lhs += c.v * x[c.j]
	}
	return lhs
}

// RowsSatisfied reports whether x satisfies every constraint row within tol.
// Variable bounds are not checked here.
func (p *Problem) RowsSatisfied(x []float64, tol float64) bool {
	for i, r := range p.rows {
		lhs := p.EvalRow(i, x)
		switch r.kind {
		case LE:
			if lhs > r.rhs+tol {
				return false
			}
		case GE:
			if lhs < r.rhs-tol {
				return false
			}
		case EQ:
			if math.Abs(lhs-r.rhs) > tol {
				return false
			}
		}
	}
	return true
}

// SetObj sets the objective coefficient of variable j.
func (p *Problem) SetObj(j int, c float64) {
	p.obj[j] = c
}

// Obj returns the objective coefficient of variable j.
func (p *Problem) Obj(j int) float64 { return p.obj[j] }

// SetBounds sets the lower and upper bound of variable j.
// Use lp.Inf (or math.Inf(1)) for an unbounded upper bound.
func (p *Problem) SetBounds(j int, lo, hi float64) {
	p.lower[j] = lo
	p.upper[j] = hi
}

// Bounds returns the bounds of variable j.
func (p *Problem) Bounds(j int) (lo, hi float64) {
	return p.lower[j], p.upper[j]
}

// AddRow appends a constraint row. coeffs maps variable index to
// coefficient; zero-valued entries are dropped. It returns the row index.
func (p *Problem) AddRow(kind RowKind, coeffs map[int]float64, rhs float64) int {
	r := row{kind: kind, rhs: rhs}
	for j, v := range coeffs {
		if j < 0 || j >= p.n {
			panic(fmt.Sprintf("lp: AddRow: variable index %d out of range [0,%d)", j, p.n))
		}
		if v != 0 {
			r.coeffs = append(r.coeffs, coeff{j, v})
		}
	}
	p.rows = append(p.rows, r)
	return len(p.rows) - 1
}

// Reserve preallocates capacity for about nRows more rows carrying nCoeffs
// total nonzero coefficients (added via AddRowCols). Purely an optimization:
// a model builder that knows its size gets single-allocation row storage.
func (p *Problem) Reserve(nRows, nCoeffs int) {
	if need := len(p.rows) + nRows; need > cap(p.rows) {
		rows := make([]row, len(p.rows), need)
		copy(rows, p.rows)
		p.rows = rows
	}
	if need := len(p.arena) + nCoeffs; need > cap(p.arena) {
		arena := make([]coeff, len(p.arena), need)
		copy(arena, p.arena)
		p.arena = arena
	}
}

// AddRowCols appends a constraint row given parallel column-index and
// coefficient slices (the allocation-light alternative to AddRow's map:
// coefficients land in a shared arena). Zero coefficients are dropped and
// duplicate column indices are merged by summation. The input slices are
// not retained. It returns the row index.
func (p *Problem) AddRowCols(kind RowKind, cols []int, vals []float64, rhs float64) int {
	if len(cols) != len(vals) {
		panic(fmt.Sprintf("lp: AddRowCols: %d cols but %d vals", len(cols), len(vals)))
	}
	start := len(p.arena)
	sorted := true
	for k, j := range cols {
		if j < 0 || j >= p.n {
			panic(fmt.Sprintf("lp: AddRowCols: variable index %d out of range [0,%d)", j, p.n))
		}
		if v := vals[k]; v != 0 {
			if n := len(p.arena); sorted && n > start && p.arena[n-1].j >= j {
				sorted = false
			}
			p.arena = append(p.arena, coeff{j, v})
		}
	}
	seg := p.arena[start:]
	if !sorted {
		// Duplicate merging needs column order; cut rows are short, so an
		// in-place insertion sort beats any allocating alternative.
		for i := 1; i < len(seg); i++ {
			c := seg[i]
			k := i - 1
			for k >= 0 && seg[k].j > c.j {
				seg[k+1] = seg[k]
				k--
			}
			seg[k+1] = c
		}
	}
	// Merge duplicates in place (the solver's column loader overwrites
	// rather than sums repeated entries, so rows must be duplicate-free).
	w := 0
	for i := 0; i < len(seg); {
		c := seg[i]
		for i++; i < len(seg) && seg[i].j == c.j; i++ {
			c.v += seg[i].v
		}
		seg[w] = c
		w++
	}
	p.arena = p.arena[:start+w]
	p.rows = append(p.rows, row{kind: kind, rhs: rhs, coeffs: p.arena[start : start+w]})
	return len(p.rows) - 1
}

// Clone returns a copy of the problem with independent objective and
// bounds; row data is shared structurally (rows are immutable once added).
// The branch-and-bound layer no longer copies problems per node — it edits
// bounds on a single Solver — so Clone exists for callers that want to
// derive model variants (and for reference solves in tests).
func (p *Problem) Clone() *Problem {
	q := &Problem{
		n:     p.n,
		obj:   append([]float64(nil), p.obj...),
		lower: append([]float64(nil), p.lower...),
		upper: append([]float64(nil), p.upper...),
		rows:  p.rows, // rows are immutable once added
	}
	return q
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status Status
	// X holds the value of each structural variable (valid when Status is
	// Optimal).
	X []float64
	// Obj is the objective value c.X (valid when Status is Optimal).
	Obj float64
	// Iterations is the total number of simplex pivots performed.
	Iterations int
}

// variable status markers for nonbasic variables.
type varStatus int8

const (
	atLower varStatus = iota
	atUpper
	basic
)

// ErrBadBounds is returned when some variable has lower bound > upper bound.
var ErrBadBounds = errors.New("lp: variable lower bound exceeds upper bound")

// Solve minimizes the problem and returns the solution. The error is non-nil
// only for malformed inputs (e.g. inverted bounds); infeasibility and
// unboundedness are reported through Solution.Status.
//
// Solve is the one-shot convenience API: it builds a fresh Solver, solves
// cold, and discards the solver state. Callers that re-solve after bound
// changes (branch and bound) should hold a Solver and use its warm-start
// path instead.
func Solve(p *Problem) (*Solution, error) {
	return NewSolver(p).Solve()
}
