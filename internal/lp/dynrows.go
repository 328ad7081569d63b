package lp

import (
	"fmt"
	"math"
)

// This file implements dynamic row growth on a live Solver — the primitive
// the cutting-plane layer in internal/ilp is built on. A branch-and-bound
// node that separates a violated valid inequality calls AddRows and
// re-solves; because the appended row enters with its own slack basic, the
// existing basis stays a basis of the extended system and the re-solve is a
// dual-simplex repair from the current point (the new slack is the only
// infeasible basic variable) instead of a cold two-phase rebuild.
//
// Added rows are solver-local: the shared Problem is never modified, so
// integer-feasibility checks keep using the Problem's rows — added rows
// are cutting planes, i.e. redundant for every integral
// feasible point, which is exactly why a buggy (invalid) cut can cost
// correctness of *pruning* but can never smuggle an infeasible incumbent
// through the ilp layer's row checks.

// CutRow is one constraint row appended to a live Solver by AddRows.
// Cols/Vals hold the nonzero coefficients over structural variables.
type CutRow struct {
	Kind RowKind
	Cols []int
	Vals []float64
	RHS  float64
}

// Eval returns the left-hand-side value of the row at point x.
func (r *CutRow) Eval(x []float64) float64 {
	lhs := 0.0
	for k, j := range r.Cols {
		lhs += r.Vals[k] * x[j]
	}
	return lhs
}

// Satisfied reports whether x satisfies the row within tol.
func (r *CutRow) Satisfied(x []float64, tol float64) bool {
	lhs := r.Eval(x)
	switch r.Kind {
	case LE:
		return lhs <= r.RHS+tol
	case GE:
		return lhs >= r.RHS-tol
	default:
		return math.Abs(lhs-r.RHS) <= tol
	}
}

// Violation returns how much x violates the row (0 when satisfied). For LE
// rows it is lhs-rhs, for GE rows rhs-lhs, for EQ rows |lhs-rhs|.
func (r *CutRow) Violation(x []float64) float64 {
	lhs := r.Eval(x)
	var v float64
	switch r.Kind {
	case LE:
		v = lhs - r.RHS
	case GE:
		v = r.RHS - lhs
	default:
		v = math.Abs(lhs - r.RHS)
	}
	if v < 0 {
		return 0
	}
	return v
}

// addedRow is the internal storage of one dynamically added row.
type addedRow struct {
	kind RowKind
	rhs  float64
	cols []int32
	vals []float64
}

// extEntry is one nonzero of a structural column inside an added row.
type extEntry struct {
	i int32 // row index (>= mBase)
	v float64
}

// Rows returns the current total row count (base rows + added rows).
func (s *Solver) Rows() int { return s.m }

// BaseRows returns the number of rows captured from the Problem.
func (s *Solver) BaseRows() int { return s.mBase }

// AddedRows returns the number of dynamically added rows.
func (s *Solver) AddedRows() int { return len(s.added) }

// AddedRowsSatisfied reports whether x satisfies every dynamically added
// row within tol (the added-row counterpart of Problem.RowsSatisfied, used
// by the ilp drift guard).
func (s *Solver) AddedRowsSatisfied(x []float64, tol float64) bool {
	for ai := range s.added {
		r := &s.added[ai]
		lhs := 0.0
		for k, j := range r.cols {
			lhs += r.vals[k] * x[j]
		}
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

// AddRows appends constraint rows to the live solver. The rows reference
// structural variables only; duplicate column indices are merged and zero
// coefficients dropped. When the solver holds a valid basis the rows enter
// with their slacks basic — the old basis columns plus the new unit slacks
// form a block-triangular, provably nonsingular basis of the extended
// system — so the factorization is rebuilt once (the same reinversion the
// fill-in trigger performs periodically anyway) and the next Solve warm
// starts with the dual simplex from the current point, where the only
// primal infeasibilities are the slacks of the violated new rows. Without a
// valid basis the rows are only recorded and the next Solve builds cold.
//
// Row storage is carved from a per-solver append-only arena whose backing
// DropAddedRows keeps, so the ilp layer's drop/re-add cut cycles do O(1)
// allocations (none at all once the arena reaches its high-water mark).
func (s *Solver) AddRows(rows []CutRow) error {
	if len(rows) == 0 {
		return nil
	}
	// Row growth extends the engine arrays, so the engine must exist first
	// (NewSolver defers its construction until a solve or a row addition).
	s.ensureBuilt()
	// Validation pass: reject the whole batch before any state mutates.
	for ri := range rows {
		r := &rows[ri]
		if len(r.Cols) != len(r.Vals) {
			return fmt.Errorf("lp: AddRows: row %d has %d cols but %d vals", ri, len(r.Cols), len(r.Vals))
		}
		for k, j := range r.Cols {
			if j < 0 || j >= s.nStruct {
				return fmt.Errorf("lp: AddRows: row %d references variable %d out of range [0,%d)", ri, j, s.nStruct)
			}
			if v := r.Vals[k]; math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("lp: AddRows: row %d has non-finite coefficient on variable %d", ri, j)
			}
		}
	}

	wasValid := s.valid
	mOld := s.m
	k := len(rows)
	s.m += k
	s.nTotal = s.nStruct + 2*s.m
	s.maxIter = 2000 + 200*(s.m+s.nTotal)
	s.Stats.RowsAdded += k

	// Per-row arrays grow by k (zeroed; capacity reused when available).
	s.rhs = growZero(s.rhs, k)
	s.artUsed = growZero(s.artUsed, k)
	s.artSign = growZero(s.artSign, k)
	s.basis = growZero(s.basis, k)
	s.xb = growZero(s.xb, k)
	s.alpha = growZero(s.alpha, k)
	s.y = growZero(s.y, k)
	s.rho = growZero(s.rho, k)
	s.flipCol = growZero(s.flipCol, k)
	s.rowMark = growZero(s.rowMark, k)
	s.dualW = growZero(s.dualW, k)

	// Per-column arrays grow by 2k; the artificial block shifts up by k.
	// Artificial columns carry no state between solves (a valid basis never
	// contains one, and the cold build reinitializes them), so the whole
	// region is simply reset at its new position. The pricing scratch d/dw
	// is rebuilt at every primal entry and only needs the length.
	s.lo = growZero(s.lo, 2*k)
	s.hi = growZero(s.hi, 2*k)
	s.status = growZero(s.status, 2*k)
	s.cost = growZero(s.cost, 2*k)
	s.d = growZero(s.d, 2*k)
	s.dw = growZero(s.dw, 2*k)
	for i := 0; i < s.m; i++ {
		ac := s.nStruct + s.m + i
		s.lo[ac], s.hi[ac] = 0, 0
		s.status[ac] = atLower
		s.cost[ac] = 0
	}
	if s.costPhase == 1 {
		// The phase-1 cost row indexed the old artificial block; force a
		// rebuild on the next solve.
		s.costPhase = 0
		s.objCols = s.objCols[:0]
	}

	if s.extCols == nil {
		s.extCols = make([][]extEntry, s.nStruct)
	}
	for ri := range rows {
		cr := &rows[ri]
		i := mOld + ri
		// Reuse the trimmed element when the slice previously reached this
		// length (the cols/vals views are re-carved from the arena below).
		if cap(s.added) > len(s.added) {
			s.added = s.added[:len(s.added)+1]
		} else {
			s.added = append(s.added, addedRow{})
		}
		r := &s.added[len(s.added)-1]
		r.kind, r.rhs = cr.Kind, cr.RHS
		// Carve the row's storage out of the per-solver arena: the row
		// keeps a capped view, so later arena appends cannot stomp it, and
		// DropAddedRows reclaims everything with one truncation. A growth
		// past the arena's capacity moves the backing array, but existing
		// rows keep valid views of the old one until the next drop.
		base := len(s.cutCols)
		for ci, j := range cr.Cols {
			if v := cr.Vals[ci]; v != 0 {
				s.cutCols = append(s.cutCols, int32(j))
				s.cutVals = append(s.cutVals, v)
			}
		}
		end := len(s.cutCols)
		r.cols = s.cutCols[base:end:end]
		r.vals = s.cutVals[base:end:end]
		mergeDupCols(r)

		s.rhs[i] = r.rhs
		s.artSign[i] = 1
		sc := s.nStruct + i
		s.cost[sc] = 0
		switch r.kind {
		case LE:
			s.lo[sc], s.hi[sc] = 0, Inf
			s.status[sc] = atLower
		case GE:
			s.lo[sc], s.hi[sc] = math.Inf(-1), 0
			s.status[sc] = atUpper
		case EQ:
			s.lo[sc], s.hi[sc] = 0, 0
			s.status[sc] = atLower
		}
		for ci, j := range r.cols {
			s.extCols[j] = append(s.extCols[j], extEntry{i: int32(i), v: r.vals[ci]})
		}
	}

	if !wasValid {
		return nil
	}
	// A valid basis may keep an artificial basic at 0 (redundant row after
	// a cold solve). The artificial block just shifted up by k, so remap
	// those basis references and restore their basic status (the region
	// reset above marked every artificial nonbasic).
	firstArtOld := s.nStruct + mOld
	for i := 0; i < mOld; i++ {
		if jb := s.basis[i]; jb >= firstArtOld {
			s.basis[i] = jb + k
			s.status[jb+k] = basic
		}
	}
	// Keep the warm basis: the new slacks enter the basis in their own
	// rows, then one reinversion rebuilds the factorization over the
	// extended column data. Dual feasibility is preserved — the new slacks
	// cost 0 and carry zero dual prices, so every old reduced cost is
	// unchanged — and the next Solve repairs primal feasibility with the
	// dual simplex.
	for i := mOld; i < s.m; i++ {
		sc := s.nStruct + i
		s.basis[i] = sc
		s.status[sc] = basic
	}
	if !s.refactor() {
		// Cannot happen for a nonsingular old basis (the extended basis is
		// block triangular with a unit diagonal block), but a numerically
		// borderline old factorization may fail threshold pivoting; fall
		// back to a cold rebuild on the next solve.
		s.valid = false
		return nil
	}
	s.computeB()
	return nil
}

// growZero extends s by k zeroed elements, reusing capacity when available
// (append with a fresh make would allocate the k-element temporary even
// when the target has room).
func growZero[T any](s []T, k int) []T {
	var zero T
	n := len(s)
	if cap(s) >= n+k {
		s = s[:n+k]
		for i := n; i < n+k; i++ {
			s[i] = zero
		}
		return s
	}
	return append(s, make([]T, k)...)
}

// mergeDupCols sorts a row's coefficients by column and merges duplicates,
// in place (cut rows are short; insertion sort, no allocation).
func mergeDupCols(r *addedRow) {
	cols, vals := r.cols, r.vals
	if len(cols) < 2 {
		return
	}
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		j := i - 1
		for j >= 0 && cols[j] > c {
			cols[j+1], vals[j+1] = cols[j], vals[j]
			j--
		}
		cols[j+1], vals[j+1] = c, v
	}
	w := 0
	for i := 0; i < len(cols); {
		c, v := cols[i], vals[i]
		for i++; i < len(cols) && cols[i] == c; i++ {
			v += vals[i]
		}
		cols[w], vals[w] = c, v
		w++
	}
	r.cols, r.vals = cols[:w], vals[:w]
}

// DropAddedRows removes every dynamically added row, returning the solver
// to the Problem's base row set. The basis is invalidated (a basis of the
// extended system is not generally a basis of the truncated one), so the
// next Solve rebuilds cold. The ilp layer uses this when the cut pool
// compacts or a node-local cut set changes; both are rare enough that one
// cold solve is cheaper than bookkeeping an incremental removal.
func (s *Solver) DropAddedRows() {
	if len(s.added) == 0 {
		return
	}
	s.m = s.mBase
	s.nTotal = s.nStruct + 2*s.m
	s.maxIter = 2000 + 200*(s.m+s.nTotal)
	// Truncations keep every backing array (the cut-row arena and the
	// per-column extension lists included) so the next AddRows cycle
	// reuses them instead of reallocating.
	s.added = s.added[:0]
	s.cutCols = s.cutCols[:0]
	s.cutVals = s.cutVals[:0]
	for j := range s.extCols {
		s.extCols[j] = s.extCols[j][:0]
	}

	s.rhs = s.rhs[:s.m]
	s.artUsed = s.artUsed[:s.m]
	s.artSign = s.artSign[:s.m]
	s.basis = s.basis[:s.m]
	s.xb = s.xb[:s.m]
	s.alpha = s.alpha[:s.m]
	s.y = s.y[:s.m]
	s.rho = s.rho[:s.m]
	s.flipCol = s.flipCol[:s.m]
	s.rowMark = s.rowMark[:s.m]
	s.dualW = s.dualW[:s.m]
	// The sparse-pattern lists may reference truncated rows; mark every
	// sparse-capable vector dense-dirty so the next load does a full clear.
	s.alphaDense, s.rhoDense, s.flipDense = true, true, true
	s.alphaNZ = s.alphaNZ[:0]
	s.rhoNZ = s.rhoNZ[:0]
	s.flipNZ = s.flipNZ[:0]

	s.lo = s.lo[:s.nTotal]
	s.hi = s.hi[:s.nTotal]
	s.status = s.status[:s.nTotal]
	s.cost = s.cost[:s.nTotal]
	s.d = s.d[:s.nTotal]
	s.dw = s.dw[:s.nTotal]
	for i := 0; i < s.m; i++ {
		ac := s.nStruct + s.m + i
		s.lo[ac], s.hi[ac] = 0, 0
		s.status[ac] = atLower
		s.cost[ac] = 0
	}
	if s.costPhase == 1 {
		s.costPhase = 0
		s.objCols = s.objCols[:0]
	}
	// The factorization is for the extended system; a basis of that system
	// is not generally a basis of the truncated one, so the next Solve must
	// rebuild (build() refactorizes at the new dimension).
	s.factorAge = 0
	s.valid = false
}
