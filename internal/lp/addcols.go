package lp

import (
	"fmt"
	"math"
)

// This file implements dynamic column growth on a live Solver — the
// primitive the branch-and-price layer in internal/ilp is built on. A
// restricted master that prices out a negative-reduced-cost pattern calls
// AddCols and re-solves; the appended column enters nonbasic at its lower
// bound, so the current basis stays a basis of the extended system, the
// factorization is untouched, and the next Solve warm starts — the primal
// cleanup prices the new column in exactly like any other nonbasic column
// with a favorable reduced cost.
//
// Appended columns are solver-local (the shared Problem is never modified)
// and may reference BASE rows only. That asymmetry is deliberate: an added
// row's coefficient list is complete for every column that existed when the
// row was added, and a column appended later never needs support in it —
// the row-oriented passes (AddedRowsSatisfied, the cold build's residuals,
// DropAddedRows) therefore stay correct without filtering. Rows added
// *after* a column may reference it (AddRows validates against the live
// nStruct), which is how branch-and-price attaches no-good rows to
// generated pattern columns.

// NewCol is one structural column appended to a live Solver by AddCols.
// Rows/Vals hold the nonzero coefficients over BASE rows (rows captured
// from the Problem at NewSolver time); referencing a dynamically added row
// is an error. Lo must be finite (free columns must be split by the
// caller, as in Problem).
type NewCol struct {
	Obj  float64
	Lo   float64
	Hi   float64
	Rows []int
	Vals []float64
}

// colEntry is one nonzero of a dynamically added column in a base row.
type colEntry struct {
	i int32 // base row index (< mBase)
	v float64
}

// AddCols appends structural columns to the live solver. Each column may
// carry nonzeros in base rows only; duplicate row indices are merged and
// zero coefficients dropped. The columns enter nonbasic at their lower
// bound, so a valid basis — and its factorization — survives unchanged and
// the next Solve warm starts: computeB re-derives the basic values (a
// nonzero lower bound shifts the RHS), the dual repair sees no new
// infeasibility from a column resting on a bound, and the primal cleanup
// prices the newcomers in. That makes AddCols + Solve a column-generation
// iteration at the cost of a few pivots instead of a cold rebuild.
func (s *Solver) AddCols(cols []NewCol) error {
	if len(cols) == 0 {
		return nil
	}
	// Column growth extends the engine arrays and the CSC split point, so
	// the engine must exist first.
	s.ensureBuilt()
	// Validation pass: reject the whole batch before any state mutates.
	for ci := range cols {
		c := &cols[ci]
		if len(c.Rows) != len(c.Vals) {
			return fmt.Errorf("lp: AddCols: column %d has %d rows but %d vals", ci, len(c.Rows), len(c.Vals))
		}
		if math.IsNaN(c.Lo) || math.IsInf(c.Lo, -1) {
			return fmt.Errorf("lp: AddCols: column %d has a NaN or -Inf lower bound; free columns must be split by the caller: %w", ci, ErrBadBounds)
		}
		if math.IsNaN(c.Hi) || c.Lo > c.Hi {
			return fmt.Errorf("lp: AddCols: column %d has empty bounds [%g,%g]: %w", ci, c.Lo, c.Hi, ErrBadBounds)
		}
		if math.IsNaN(c.Obj) || math.IsInf(c.Obj, 0) {
			return fmt.Errorf("lp: AddCols: column %d has a non-finite objective coefficient", ci)
		}
		for k, i := range c.Rows {
			if i < 0 || i >= s.mBase {
				return fmt.Errorf("lp: AddCols: column %d references row %d out of base range [0,%d)", ci, i, s.mBase)
			}
			if v := c.Vals[k]; math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("lp: AddCols: column %d has a non-finite coefficient in row %d", ci, i)
			}
		}
	}

	k := len(cols)
	nOld := s.nStruct
	span := 2 * s.m // the slack + artificial block that shifts up by k
	s.nStruct += k
	s.nTotal += k
	s.maxIter = 2000 + 200*(s.m+s.nTotal)
	s.Stats.ColsAdded += k

	// Per-column arrays grow by k and the slack/artificial block shifts up
	// (Go's copy has memmove semantics, so the overlapping shift is safe).
	// The cost row needs no shift: slacks and artificials cost 0 in phase 2,
	// and a phase-1 cost row indexes the artificial block by position, so it
	// is rebuilt instead (same policy as AddRows). The pricing scratch d/dw
	// is rebuilt at every primal entry and only needs the length.
	s.lo = growZero(s.lo, k)
	s.hi = growZero(s.hi, k)
	s.status = growZero(s.status, k)
	s.cost = growZero(s.cost, k)
	s.d = growZero(s.d, k)
	s.dw = growZero(s.dw, k)
	copy(s.lo[nOld+k:nOld+k+span], s.lo[nOld:nOld+span])
	copy(s.hi[nOld+k:nOld+k+span], s.hi[nOld:nOld+span])
	copy(s.status[nOld+k:nOld+k+span], s.status[nOld:nOld+span])
	if s.costPhase == 1 {
		s.costPhase = 0
		s.objCols = s.objCols[:0]
	}
	if s.extCols != nil {
		s.extCols = growZero(s.extCols, k)
	}

	for ci := range cols {
		c := &cols[ci]
		j := nOld + ci
		s.lo[j], s.hi[j] = c.Lo, c.Hi
		s.status[j] = atLower
		s.extObj = append(s.extObj, c.Obj)
		var entries []colEntry
		for ri, i := range c.Rows {
			if v := c.Vals[ri]; v != 0 {
				entries = append(entries, colEntry{i: int32(i), v: v})
			}
		}
		entries = mergeDupColEntries(entries)
		s.newCols = append(s.newCols, entries)
		if s.costPhase == 2 {
			s.cost[j] = c.Obj
			if c.Obj != 0 {
				s.objCols = append(s.objCols, int32(j))
			}
		}
	}

	// Basis slots referencing slacks or artificials shifted up by k; the
	// structural references (all < nOld) and the factorization itself are
	// untouched — the basis matrix did not change, only the numbering of
	// columns outside it.
	for i := range s.basis {
		if s.basis[i] >= nOld {
			s.basis[i] += k
		}
	}
	return nil
}

// RowDuals appends the current dual prices y (one per row, base rows
// first) to dst under the phase-2 objective and returns it. It requires a
// valid optimal basis from the preceding Solve and returns nil otherwise.
// The caller prices a candidate column A_j with cost c_j as
// c_j - y·A_j — the reduced cost it would enter the solver with.
func (s *Solver) RowDuals(dst []float64) []float64 {
	if !s.valid || !s.built {
		return nil
	}
	s.setPhase2Cost()
	s.computeY()
	return append(dst[:0], s.y[:s.m]...)
}

// mergeDupColEntries sorts a column's entries by row and merges duplicates
// in place (generated columns are short; insertion sort, no allocation).
func mergeDupColEntries(es []colEntry) []colEntry {
	if len(es) < 2 {
		return es
	}
	for i := 1; i < len(es); i++ {
		e := es[i]
		j := i - 1
		for j >= 0 && es[j].i > e.i {
			es[j+1] = es[j]
			j--
		}
		es[j+1] = e
	}
	w := 0
	for i := 0; i < len(es); {
		e := es[i]
		for i++; i < len(es) && es[i].i == e.i; i++ {
			e.v += es[i].v
		}
		es[w] = e
		w++
	}
	return es[:w]
}
