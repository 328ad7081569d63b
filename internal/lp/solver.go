package lp

import (
	"fmt"
	"math"

	"slices"

	"repro/internal/faultinject"
)

// Solver is a reusable bounded-variable simplex solver bound to one Problem.
//
// It is a *revised* simplex: the constraint matrix is stored once in sparse
// column-major (CSC) form and the basis inverse is represented as a sparse
// LU factorization B = L·F·U maintained by Forrest–Tomlin updates (see
// lu.go). Every quantity the simplex needs — basic-variable values, dual
// prices, a pivot column, a pivot row — is computed on demand with sparse
// FTRAN/BTRAN passes over the factor instead of being carried in a dense
// m×n tableau. Unlike a product-form eta file, the Forrest–Tomlin update
// keeps FTRAN/BTRAN cost proportional to the factor's fill instead of the
// number of pivots since reinversion, so refactorization is triggered by
// fill-in and stability (see maybeRefactor), not a fixed pivot count.
//
// Pricing is devex: the primal simplex keeps incrementally updated reduced
// costs and devex reference weights and picks the entering column with the
// best weighted violation (with an exact re-price before declaring
// optimality, and a Bland fallback under stalling); the dual simplex
// weights row violations the same way. The dual ratio test is long-step
// (bound-flipping): box-bounded nonbasic columns whose breakpoint is passed
// flip to their opposite bound — absorbing infeasibility without consuming
// a pivot — and a single combined FTRAN updates the basic values for all
// flips of an iteration.
//
// The basis of the previous solve is kept so that subsequent solves after
// bound changes warm start with the dual simplex instead of a from-scratch
// two-phase solve. This is the core primitive of the branch-and-bound layer
// in internal/ilp: a B&B node is a handful of SetVarBounds calls followed
// by Solve, not a problem copy.
//
// Contract:
//
//   - Rows and objective coefficients are captured at NewSolver time; the
//     Problem's rows and objective must not change afterwards (bounds may —
//     that is the point). Changing the objective would silently invalidate
//     the dual feasibility the warm start relies on. The *Solver* can still
//     grow rows on the fly: AddRows appends solver-local rows (cutting
//     planes) without touching the shared Problem, keeping the current
//     basis so the next Solve re-enters through the dual simplex (see
//     dynrows.go).
//   - Solve returns a Solution whose X slice is freshly allocated and safe
//     to retain — unless SetReuseSolution(true) put the Solver in
//     shared-buffer mode, where the Solution and its X are valid only until
//     the next solve on this Solver (the allocation-free hot-path mode the
//     branch-and-bound layer uses).
//   - A Solver is not safe for concurrent use; create one per goroutine
//     (they share the Problem's immutable row storage).
type Solver struct {
	p           *Problem
	m           int // constraint rows (mBase + dynamically added rows)
	mBase       int // rows captured from the Problem at NewSolver time
	nStruct     int // structural variables (nStructBase + dynamically added columns)
	nStructBase int // structural columns captured from the Problem at NewSolver time
	nTotal      int // structural + m slacks + m artificial slots

	// Dynamically added rows (AddRows): row-major storage plus a
	// per-structural-column extension index so the CSC accessors see the
	// extra nonzeros without rewriting the base CSC arrays. added rows are
	// solver-local — the shared Problem is never touched, so concurrent
	// Solvers over one Problem can hold different cut sets.
	added   []addedRow
	extCols [][]extEntry // extCols[j]: entries of structural column j in added rows
	// Cut-row arena: one append-only backing store for every added row's
	// cols/vals, truncated (capacity kept) by DropAddedRows, so a full
	// drop/re-add separation cycle costs O(1) allocations once the
	// high-water mark is reached.
	cutCols []int32
	cutVals []float64

	// Dynamically added columns (AddCols): column-major side storage, one
	// entry list per appended column over BASE rows only (added rows see
	// appended columns through extCols exactly like base columns), plus the
	// appended objective coefficients. Like added rows, appended columns are
	// solver-local — the shared Problem is never touched. This is the
	// column-generation primitive the branch-and-price layer is built on.
	newCols [][]colEntry // newCols[j-nStructBase]: base-row entries of appended column j
	extObj  []float64    // extObj[j-nStructBase]: objective coefficient of appended column j

	// Working bounds of every column. Structural bounds are seeded from the
	// Problem and mutated by SetVarBounds; slack bounds encode the row kind;
	// artificial bounds are opened only during cold phase 1.
	lo, hi []float64

	// CSC storage of the structural and slack columns (fixed at NewSolver).
	// Column j's nonzeros are colRow/colVal[colPtr[j]:colPtr[j+1]].
	// Artificial columns are implicit unit columns: column nStruct+m+i has
	// the single entry artSign[i] at row i.
	colPtr []int32
	colRow []int32
	colVal []float64
	rhs    []float64

	artUsed []bool    // per row: artificial column in use (cold build)
	artSign []float64 // per row: ±1 entry of the artificial column

	basis   []int       // m, column basic in each row slot
	status  []varStatus // nTotal
	xb      []float64   // basic-variable value per row slot
	cost    []float64   // active cost row (phase-dependent)
	objCols []int32     // columns with nonzero active cost (objective scan)

	// lu is the current basis factorization; refactor() rebuilds into
	// luSpare and swaps, so a singular reinversion never destroys a usable
	// factor. factorAge mirrors lu.updates (Forrest–Tomlin updates since
	// the last reinversion) for the dual-infeasibility verification.
	lu        *luFactor
	luSpare   *luFactor
	factorAge int

	// Scratch (allocated once; alpha/y/rho/flip are length m, d/dw
	// length nTotal).
	alpha   []float64 // FTRAN pivot column
	y       []float64 // BTRAN dual prices
	rho     []float64 // BTRAN unit row
	flipCol []float64 // combined bound-flip column (dual long step)
	d       []float64 // incremental reduced costs (primal devex pricing)
	dw      []float64 // devex reference weights per column (primal)
	dualW   []float64 // devex reference weights per row slot (dual)
	bp      []dualBP  // dual ratio-test breakpoints

	// Hyper-sparse bookkeeping: each sparse-capable scratch vector carries
	// a zero-outside-pattern invariant so the next sparse load clears only
	// its tracked nonzeros. A dense flag marks the vector dirty everywhere
	// (set whenever a dense path wrote it), costing one O(m) clear before
	// it re-enters the sparse regime. The index lists are solver-owned
	// copies — the lists the factor returns alias its scratch and are
	// clobbered by the next solve.
	alphaNZ    []int32
	rhoNZ      []int32
	flipNZ     []int32
	alphaDense bool
	rhoDense   bool
	flipDense  bool
	colIdx     []int32  // sparse column-load index scratch
	unitIdx    [1]int32 // unit-vector seed for btranUnit
	rowMark    []bool   // dedup marks for the combined flip column

	built     bool // engine state materialized (ensureBuilt)
	valid     bool // basis + factorization reusable for a warm start
	costPhase int  // 0 unset, 1 phase-1 cost row, 2 phase-2 (true objective)
	iter      int  // pivots in the current solve
	maxIter   int

	// Shared-solution mode (SetReuseSolution): finish() fills these instead
	// of allocating.
	reuseSol bool
	sol      Solution
	solX     []float64

	// Stats accumulates solver activity across the Solver's lifetime.
	Stats SolverStats
}

// SolverStats counts solver activity since NewSolver.
type SolverStats struct {
	Solves           int // total Solve calls
	WarmSolves       int // solves served by the warm-start path
	ColdSolves       int // solves that (re)built the basis from scratch
	Pivots           int // total simplex pivots (primal + dual)
	DualPivots       int // pivots spent in the dual-simplex repair
	RowsAdded        int // constraint rows appended to the live solver (AddRows)
	ColsAdded        int // structural columns appended to the live solver (AddCols)
	Refactorizations int // basis reinversions (cold builds, fill/stability triggers)
	BoundFlips       int // dual long-step bound flips (infeasibility absorbed without a pivot)
	UpdateNNZ        int // cumulative Forrest–Tomlin update-file nonzeros appended
	SparseFTRANs     int // FTRANs completed on the hyper-sparse path
	SparseBTRANs     int // BTRANs completed on the hyper-sparse path
	DenseFallbacks   int // index-carrying solves that crossed the density threshold
}

// Delta returns the field-wise difference s - base: the activity between
// two snapshots of a live Solver's Stats. This is how span-scoped
// observability (trace counters, per-phase benchmarks) isolates one
// search's pivots from the Solver's lifetime totals.
func (s SolverStats) Delta(base SolverStats) SolverStats {
	return SolverStats{
		Solves:           s.Solves - base.Solves,
		WarmSolves:       s.WarmSolves - base.WarmSolves,
		ColdSolves:       s.ColdSolves - base.ColdSolves,
		Pivots:           s.Pivots - base.Pivots,
		DualPivots:       s.DualPivots - base.DualPivots,
		RowsAdded:        s.RowsAdded - base.RowsAdded,
		ColsAdded:        s.ColsAdded - base.ColsAdded,
		Refactorizations: s.Refactorizations - base.Refactorizations,
		BoundFlips:       s.BoundFlips - base.BoundFlips,
		UpdateNNZ:        s.UpdateNNZ - base.UpdateNNZ,
		SparseFTRANs:     s.SparseFTRANs - base.SparseFTRANs,
		SparseBTRANs:     s.SparseBTRANs - base.SparseBTRANs,
		DenseFallbacks:   s.DenseFallbacks - base.DenseFallbacks,
	}
}

// Accumulate adds t into s field-wise (aggregating per-worker solver
// stats into a search total).
func (s *SolverStats) Accumulate(t SolverStats) {
	s.Solves += t.Solves
	s.WarmSolves += t.WarmSolves
	s.ColdSolves += t.ColdSolves
	s.Pivots += t.Pivots
	s.DualPivots += t.DualPivots
	s.RowsAdded += t.RowsAdded
	s.ColsAdded += t.ColsAdded
	s.Refactorizations += t.Refactorizations
	s.BoundFlips += t.BoundFlips
	s.UpdateNNZ += t.UpdateNNZ
	s.SparseFTRANs += t.SparseFTRANs
	s.SparseBTRANs += t.SparseBTRANs
	s.DenseFallbacks += t.DenseFallbacks
}

// dualBP is one dual ratio-test breakpoint: nonbasic column j would change
// reduced-cost sign at dual step |d_j/alpha_j|.
type dualBP struct {
	j     int32
	alpha float64
	ratio float64
}

// feasTol is the primal feasibility tolerance used by the warm-start path.
const feasTol = 1e-7

// ---- construction ----

// NewSolver builds a reusable solver for p. The Problem's rows and objective
// are captured by reference and must not be modified afterwards; variable
// bounds are copied and owned by the Solver (see SetVarBounds).
func NewSolver(p *Problem) *Solver {
	m := len(p.rows)
	n := p.n
	nTotal := n + 2*m
	s := &Solver{
		p:           p,
		m:           m,
		mBase:       m,
		nStruct:     n,
		nStructBase: n,
		nTotal:      nTotal,
		lo:          make([]float64, nTotal),
		hi:          make([]float64, nTotal),
		maxIter:     2000 + 200*(m+nTotal),
	}
	for j := 0; j < n; j++ {
		s.lo[j] = p.lower[j]
		s.hi[j] = p.upper[j]
	}
	for i, r := range p.rows {
		sc := n + i
		switch r.kind {
		case LE:
			s.lo[sc], s.hi[sc] = 0, Inf
		case GE:
			s.lo[sc], s.hi[sc] = math.Inf(-1), 0
		case EQ:
			s.lo[sc], s.hi[sc] = 0, 0
		}
	}
	// Artificial slots stay pinned at [0,0] until a cold build opens them.
	// Everything else — the CSC matrix, the LU workspace, the pricing and
	// ratio-test scratch — materializes lazily on the first solve
	// (ensureBuilt): a branch-and-bound search whose root is fathomed
	// combinatorially never solves an LP, and must not pay for one.
	return s
}

// ensureBuilt materializes the solver engine on first use: CSC assembly of
// the structural and slack columns, the LU workspace, and the iteration
// scratch. NewSolver defers this so that bound bookkeeping (Bounds /
// SetVarBounds, the only state branch-and-bound needs before its first LP
// solve) stays cheap. The float64 scratch shares one backing allocation;
// the pieces are capped (three-index slices) so a later growth path
// (AddRows) reallocates a piece instead of stomping its neighbour.
func (s *Solver) ensureBuilt() {
	if s.built {
		return
	}
	s.built = true
	// The CSC covers exactly the Problem's columns: AddRows and AddCols both
	// force the build before mutating, so nStruct == nStructBase here.
	m, n, nTotal := s.m, s.nStructBase, s.nTotal
	buf := make([]float64, 8*m+3*nTotal)
	grab := func(k int) []float64 {
		p := buf[:k:k]
		buf = buf[k:]
		return p
	}
	s.rhs = grab(m)
	s.artSign = grab(m)
	s.xb = grab(m)
	s.alpha = grab(m)
	s.y = grab(m)
	s.rho = grab(m)
	s.flipCol = grab(m)
	s.dualW = grab(m)
	s.cost = grab(nTotal)
	s.d = grab(nTotal)
	s.dw = grab(nTotal)
	s.rowMark = make([]bool, m)
	s.artUsed = make([]bool, m)
	s.basis = make([]int, m)
	s.status = make([]varStatus, nTotal)
	s.lu = &luFactor{}
	s.luSpare = &luFactor{}
	s.lu.init(m)
	// CSC assembly: structural columns from the sparse rows, then one unit
	// slack column per row.
	nnz := m
	for _, r := range s.p.rows {
		nnz += len(r.coeffs)
	}
	s.colPtr = make([]int32, n+m+1)
	s.colRow = make([]int32, nnz)
	s.colVal = make([]float64, nnz)
	for _, r := range s.p.rows {
		for _, c := range r.coeffs {
			s.colPtr[c.j+1]++
		}
	}
	for i := 0; i < m; i++ {
		s.colPtr[n+i+1] = 1
	}
	for j := 0; j < n+m; j++ {
		s.colPtr[j+1] += s.colPtr[j]
	}
	fill := make([]int32, n+m)
	copy(fill, s.colPtr[:n+m])
	for i, r := range s.p.rows {
		s.rhs[i] = r.rhs
		for _, c := range r.coeffs {
			k := fill[c.j]
			s.colRow[k] = int32(i)
			s.colVal[k] = c.v
			fill[c.j]++
		}
		k := fill[n+i]
		s.colRow[k] = int32(i)
		s.colVal[k] = 1
		fill[n+i]++
	}
}

// NumVars returns the number of structural variables.
func (s *Solver) NumVars() int { return s.nStruct }

// Bounds returns the Solver's current bounds of structural variable j.
func (s *Solver) Bounds(j int) (lo, hi float64) { return s.lo[j], s.hi[j] }

// SetVarBounds updates the working bounds of structural variable j. The
// change takes effect at the next Solve; the basis factorization is
// unaffected (bounds do not enter the constraint matrix), which is what
// makes per-node bound fixing cheap.
func (s *Solver) SetVarBounds(j int, lo, hi float64) {
	if j < 0 || j >= s.nStruct {
		panic(fmt.Sprintf("lp: SetVarBounds: variable index %d out of range [0,%d)", j, s.nStruct))
	}
	s.lo[j] = lo
	s.hi[j] = hi
}

// Invalidate drops the warm-start state, forcing the next Solve to rebuild
// from scratch.
func (s *Solver) Invalidate() { s.valid = false }

// SetReuseSolution switches the Solver into shared-buffer mode: Solve
// returns a Solution owned by the Solver whose X slice is valid only until
// the next solve. The branch-and-bound hot path uses this to keep node
// re-solves allocation-free; callers that retain a result must copy it.
func (s *Solver) SetReuseSolution(on bool) { s.reuseSol = on }

// Solve minimizes the captured objective under the current bounds. When the
// Solver holds a dual-feasible basis from a previous solve it warm starts
// (dual simplex repair followed by a primal cleanup); otherwise, or when the
// warm start stalls, it falls back to the cold two-phase primal solve.
func (s *Solver) Solve() (*Solution, error) {
	if sol, err, done := s.precheck(); done {
		return sol, err
	}
	s.ensureBuilt()
	s.Stats.Solves++
	s.iter = 0
	if s.valid {
		if sol, ok := s.solveWarm(); ok {
			return sol, nil
		}
	}
	return s.solveCold()
}

// precheck validates bounds; done=true short-circuits the solve.
func (s *Solver) precheck() (*Solution, error, bool) {
	if len(s.p.rows) != s.mBase || s.p.n != s.nStructBase {
		return nil, fmt.Errorf("lp: problem shape changed after NewSolver (rows %d->%d, vars %d->%d)",
			s.mBase, len(s.p.rows), s.nStructBase, s.p.n), true
	}
	for j := 0; j < s.nStruct; j++ {
		if s.lo[j] > s.hi[j]+eps {
			return s.statusResult(Infeasible), nil, true
		}
		if math.IsInf(s.lo[j], -1) {
			return nil, fmt.Errorf("lp: variable %d has -Inf lower bound; free variables must be split by the caller: %w", j, ErrBadBounds), true
		}
	}
	return nil, nil, false
}

// val returns the current value of nonbasic column j (its resting bound).
func (s *Solver) val(j int) float64 {
	if s.status[j] == atUpper {
		return s.hi[j]
	}
	return s.lo[j]
}

// movable reports whether column j has a nonzero feasible range.
func (s *Solver) movable(j int) bool { return s.hi[j]-s.lo[j] > eps }

// colDot returns column j's dot product with the dense row vector v.
func (s *Solver) colDot(j int, v []float64) float64 {
	switch {
	case j < s.nStructBase:
		sum := 0.0
		for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
			sum += s.colVal[k] * v[s.colRow[k]]
		}
		if s.extCols != nil {
			for _, e := range s.extCols[j] {
				sum += e.v * v[e.i]
			}
		}
		return sum
	case j < s.nStruct:
		// Appended column (AddCols): base-row entries in the side storage,
		// added-row entries through extCols like any structural column.
		sum := 0.0
		for _, e := range s.newCols[j-s.nStructBase] {
			sum += e.v * v[e.i]
		}
		if s.extCols != nil {
			for _, e := range s.extCols[j] {
				sum += e.v * v[e.i]
			}
		}
		return sum
	case j < s.nStruct+s.m:
		// Slack: implicit unit column (base slacks are unit columns in the
		// CSC too, but their CSC index is pinned to nStructBase and would be
		// stale after AddCols — the implicit form is always right).
		return v[j-s.nStruct]
	default:
		i := j - s.nStruct - s.m
		return s.artSign[i] * v[i]
	}
}

// loadCol writes column j densely into v (v is fully overwritten).
func (s *Solver) loadCol(j int, v []float64) {
	for i := range v {
		v[i] = 0
	}
	switch {
	case j < s.nStructBase:
		for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
			v[s.colRow[k]] = s.colVal[k]
		}
		if s.extCols != nil {
			for _, e := range s.extCols[j] {
				v[e.i] = e.v
			}
		}
	case j < s.nStruct:
		for _, e := range s.newCols[j-s.nStructBase] {
			v[e.i] = e.v
		}
		if s.extCols != nil {
			for _, e := range s.extCols[j] {
				v[e.i] = e.v
			}
		}
	case j < s.nStruct+s.m:
		v[j-s.nStruct] = 1
	default:
		i := j - s.nStruct - s.m
		v[i] = s.artSign[i]
	}
}

// colAxpy adds t times column j into the dense row vector v.
func (s *Solver) colAxpy(j int, t float64, v []float64) {
	switch {
	case j < s.nStructBase:
		for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
			v[s.colRow[k]] += s.colVal[k] * t
		}
		if s.extCols != nil {
			for _, e := range s.extCols[j] {
				v[e.i] += e.v * t
			}
		}
	case j < s.nStruct:
		for _, e := range s.newCols[j-s.nStructBase] {
			v[e.i] += e.v * t
		}
		if s.extCols != nil {
			for _, e := range s.extCols[j] {
				v[e.i] += e.v * t
			}
		}
	case j < s.nStruct+s.m:
		v[j-s.nStruct] += t
	default:
		i := j - s.nStruct - s.m
		v[i] += s.artSign[i] * t
	}
}

// ftranCol computes alpha = B⁻¹ A_j into the alpha scratch via the
// hyper-sparse path (columns are sparse by construction; the density
// threshold decides per solve). The returned index list is non-nil when
// the result is sparse — alpha is then zero outside it — and nil when the
// solve fell back to the dense path. The spike F⁻¹L⁻¹A_j is stashed
// inside the factor for a following ftUpdate either way.
func (s *Solver) ftranCol(j int) ([]float64, []int32) {
	if s.alphaDense {
		for i := range s.alpha {
			s.alpha[i] = 0
		}
		s.alphaDense = false
	} else {
		for _, i := range s.alphaNZ {
			s.alpha[i] = 0
		}
	}
	s.colIdx = s.loadColSparse(j, s.alpha, s.colIdx[:0])
	nz, ok := s.lu.ftranSparse(s.alpha, s.colIdx)
	if ok {
		s.Stats.SparseFTRANs++
		s.alphaNZ = append(s.alphaNZ[:0], nz...)
		return s.alpha, s.alphaNZ
	}
	s.Stats.DenseFallbacks++
	s.alphaDense = true
	s.alphaNZ = s.alphaNZ[:0]
	return s.alpha, nil
}

// loadColSparse scatters column j into v (v must be zero beforehand) and
// appends the touched row indices to idx. Within one column the CSC rows
// and the added-row extension rows are disjoint, so no dedup is needed.
func (s *Solver) loadColSparse(j int, v []float64, idx []int32) []int32 {
	switch {
	case j < s.nStructBase:
		for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
			r := s.colRow[k]
			v[r] = s.colVal[k]
			idx = append(idx, r)
		}
		if s.extCols != nil {
			for _, e := range s.extCols[j] {
				v[e.i] = e.v
				idx = append(idx, e.i)
			}
		}
	case j < s.nStruct:
		for _, e := range s.newCols[j-s.nStructBase] {
			v[e.i] = e.v
			idx = append(idx, e.i)
		}
		if s.extCols != nil {
			for _, e := range s.extCols[j] {
				v[e.i] = e.v
				idx = append(idx, e.i)
			}
		}
	case j < s.nStruct+s.m:
		r := int32(j - s.nStruct)
		v[r] = 1
		idx = append(idx, r)
	default:
		i := int32(j - s.nStruct - s.m)
		v[i] = s.artSign[i]
		idx = append(idx, i)
	}
	return idx
}

// btranUnit computes rho = BTRAN(e_r) — the pivot row of slot r — via the
// hyper-sparse path, falling back to a dense solve past the density gate.
func (s *Solver) btranUnit(r int) []float64 {
	if s.rhoDense {
		for i := range s.rho {
			s.rho[i] = 0
		}
		s.rhoDense = false
	} else {
		for _, i := range s.rhoNZ {
			s.rho[i] = 0
		}
	}
	s.rho[r] = 1
	s.unitIdx[0] = int32(r)
	nz, ok := s.lu.btranSparse(s.rho, s.unitIdx[:])
	if ok {
		s.Stats.SparseBTRANs++
		s.rhoNZ = append(s.rhoNZ[:0], nz...)
		return s.rho
	}
	s.Stats.DenseFallbacks++
	s.rhoDense = true
	s.rhoNZ = s.rhoNZ[:0]
	return s.rho
}

// computeY prices the basis: y = BTRAN(cost_B), the dual prices under the
// active cost row.
func (s *Solver) computeY() {
	for i := 0; i < s.m; i++ {
		s.y[i] = s.cost[s.basis[i]]
	}
	s.lu.btran(s.y)
}

// reducedCost returns d_j = cost_j - y·A_j (computeY must be current).
func (s *Solver) reducedCost(j int) float64 {
	return s.cost[j] - s.colDot(j, s.y)
}

// computeB derives the basic-variable values for the current bounds:
// xb = B⁻¹ (rhs - Σ over nonbasic columns of A_j · val(j)).
func (s *Solver) computeB() {
	r := s.alpha
	s.alphaDense = true // alpha doubles as the dense RHS accumulator here
	copy(r, s.rhs)
	for j := 0; j < s.nStruct+s.m; j++ {
		if s.status[j] == basic {
			continue
		}
		v := s.val(j)
		if v == 0 {
			continue
		}
		switch {
		case j < s.nStructBase:
			for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
				r[s.colRow[k]] -= s.colVal[k] * v
			}
			if s.extCols != nil {
				for _, e := range s.extCols[j] {
					r[e.i] -= e.v * v
				}
			}
		case j < s.nStruct:
			for _, e := range s.newCols[j-s.nStructBase] {
				r[e.i] -= e.v * v
			}
			if s.extCols != nil {
				for _, e := range s.extCols[j] {
					r[e.i] -= e.v * v
				}
			}
		default:
			r[j-s.nStruct] -= v // slack: implicit unit column
		}
	}
	// Nonbasic artificials rest at 0 and contribute nothing.
	s.lu.ftran(r)
	copy(s.xb, r)
}

// refactor rebuilds the LU factorization from the original column data for
// the current basis (reinversion). It factorizes into the spare buffer and
// swaps on success, so a numerically singular basis (returns false) leaves
// the existing factor untouched. Basis slots are NOT permuted.
func (s *Solver) refactor() bool {
	if !s.factorizeBasis(s.luSpare) {
		return false
	}
	s.lu, s.luSpare = s.luSpare, s.lu
	s.factorAge = 0
	s.Stats.Refactorizations++
	return true
}

func (s *Solver) colNNZ(j int) int {
	switch {
	case j < s.nStructBase:
		n := int(s.colPtr[j+1] - s.colPtr[j])
		if s.extCols != nil {
			n += len(s.extCols[j])
		}
		return n
	case j < s.nStruct:
		n := len(s.newCols[j-s.nStructBase])
		if s.extCols != nil {
			n += len(s.extCols[j])
		}
		return n
	default:
		return 1 // slack or artificial: unit column
	}
}

// soleEntry returns the row and value of a column with exactly one stored
// nonzero (colNNZ(j) == 1).
func (s *Solver) soleEntry(j int) (int, float64) {
	switch {
	case j < s.nStructBase:
		if k := s.colPtr[j]; k < s.colPtr[j+1] {
			return int(s.colRow[k]), s.colVal[k]
		}
		e := s.extCols[j][0]
		return int(e.i), e.v
	case j < s.nStruct:
		if c := s.newCols[j-s.nStructBase]; len(c) > 0 {
			return int(c[0].i), c[0].v
		}
		e := s.extCols[j][0]
		return int(e.i), e.v
	case j < s.nStruct+s.m:
		return j - s.nStruct, 1
	default:
		i := j - s.nStruct - s.m
		return i, s.artSign[i]
	}
}

// maybeRefactor reinverts when the update file has outgrown the base
// factorization — past roughly 150% of the factored nonzeros the F file
// costs more per FTRAN/BTRAN than a fresh factor would — or after
// luMaxUpdates updates as a roundoff backstop. A (rare) singular
// reinversion is ignored: the current factor stays valid and the next
// attempt happens after the following pivot.
func (s *Solver) maybeRefactor() {
	f := s.lu
	if f.updates < luMaxUpdates && f.fNNZ() <= f.baseNNZ+f.baseNNZ/2+32 {
		return
	}
	if faultinject.Fire(faultinject.LURefactorFail) {
		return // injected singular reinversion: keep the current factor
	}
	if s.refactor() {
		s.computeB()
	}
}

// pivotUpdate applies the basis change at slot r with the entering column's
// spike (stashed by the preceding ftranCol) to the factorization. When the
// Forrest–Tomlin update is rejected for stability the basis is reinverted
// instead; returns false only when that reinversion is singular — the
// factor is then unusable and the caller must abandon the solve.
func (s *Solver) pivotUpdate(r int) bool {
	added, ok := s.lu.ftUpdate(r)
	s.Stats.UpdateNNZ += added
	if ok {
		s.factorAge = s.lu.updates
		s.maybeRefactor()
		return true
	}
	if !s.refactor() {
		s.valid = false
		return false
	}
	s.computeB()
	return true
}

// ---- warm path ----

// solveWarm repairs the existing basis for the current bounds with the dual
// simplex and then reoptimizes with the primal. ok=false means the caller
// should fall back to a cold solve.
// solveWarm does not reset s.iter: when it bails, the pivots it spent are
// handed to the cold fallback so Stats.Pivots and Solution.Iterations keep
// counting all work done for the node.
func (s *Solver) solveWarm() (*Solution, bool) {
	// Bound edits may have stranded a nonbasic variable on a bound that is
	// now infinite; move it to the finite side.
	for j := 0; j < s.nTotal; j++ {
		switch s.status[j] {
		case atLower:
			if math.IsInf(s.lo[j], -1) {
				s.status[j] = atUpper
			}
		case atUpper:
			if math.IsInf(s.hi[j], 1) {
				s.status[j] = atLower
			}
		}
	}
	s.computeB()
	st := s.dual()
	if st == IterLimit {
		s.valid = false
		return nil, false
	}
	if st == Infeasible {
		// The dual() loop has already re-derived this verdict from a fresh
		// reinversion of the original column data (see the verify step
		// there), so it is safe to let it prune a whole B&B subtree.
		s.Stats.WarmSolves++
		s.Stats.Pivots += s.iter
		// The basis is still dual feasible: keep it for the next solve.
		sol := s.statusResult(Infeasible)
		sol.Iterations = s.iter
		return sol, true
	}
	// Primal cleanup: usually zero pivots, but it restores dual feasibility
	// if the repair left any reduced-cost sign off.
	s.setPhase2Cost()
	pst := s.primal()
	if pst == IterLimit || pst == Unbounded {
		// Unbounded cannot legitimately appear after a bounded parent solve;
		// treat both as numerical trouble and rebuild.
		s.valid = false
		return nil, false
	}
	s.Stats.WarmSolves++
	s.Stats.Pivots += s.iter
	return s.finish(), true
}

// dual runs the bounded-variable dual simplex until the basis is primal
// feasible (returns Optimal), proven infeasible, or the repair budget is
// exhausted (IterLimit; the caller then rebuilds cold). It assumes the basis
// is dual feasible, which holds for any basis that was primal optimal under
// the same (immutable) objective.
//
// The leaving row is chosen by dual devex (violation² over a reference
// weight, updated for free from the FTRAN'd entering column) and the ratio
// test is long-step: box-bounded columns whose breakpoint is passed flip to
// their opposite bound instead of limiting the step, each flip absorbing
// |alpha|·range of the leaving row's infeasibility without a pivot.
func (s *Solver) dual() Status {
	s.setPhase2Cost()
	dw := s.dualW
	for i := 0; i < s.m; i++ {
		dw[i] = 1
	}
	// Degenerate assignment-style models can make the dual repair thrash on
	// zero-progress pivots; past this budget a cold rebuild is cheaper.
	budget := s.iter + 60 + s.m/6
	for {
		if s.iter >= budget {
			return IterLimit
		}
		// Leaving row: the worst devex-weighted bound violation.
		r, below := -1, false
		worst, rScore := 0.0, 0.0
		for i := 0; i < s.m; i++ {
			jb := s.basis[i]
			if v := s.lo[jb] - s.xb[i]; v > feasTol {
				if sc := v * v / dw[i]; r < 0 || sc > rScore {
					worst, r, below, rScore = v, i, true, sc
				}
			}
			if v := s.xb[i] - s.hi[jb]; v > feasTol {
				if sc := v * v / dw[i]; r < 0 || sc > rScore {
					worst, r, below, rScore = v, i, false, sc
				}
			}
		}
		if r < 0 {
			return Optimal // primal feasible
		}
		// Dual ratio test over the pivot row ρ = BTRAN(e_r), restricted to
		// columns that can move the leaving variable back toward its
		// violated bound. Every eligible column is a breakpoint at
		// |d_j/alpha_j|; walking them in ratio order, box-bounded columns
		// whose whole range still leaves the row infeasible are flipped
		// (recorded, applied below) and the first column that cannot flip
		// enters the basis.
		s.computeY()
		rho := s.btranUnit(r)
		bp := s.bp[:0]
		for j := 0; j < s.nStruct+s.m; j++ {
			if s.status[j] == basic || !s.movable(j) {
				continue
			}
			alpha := s.colDot(j, rho)
			var ok bool
			if below { // xb[r] must increase
				ok = (s.status[j] == atLower && alpha < -pivotEps) ||
					(s.status[j] == atUpper && alpha > pivotEps)
			} else { // xb[r] must decrease
				ok = (s.status[j] == atLower && alpha > pivotEps) ||
					(s.status[j] == atUpper && alpha < -pivotEps)
			}
			if !ok {
				continue
			}
			bp = append(bp, dualBP{
				j:     int32(j),
				alpha: alpha,
				ratio: math.Abs(s.reducedCost(j) / alpha),
			})
		}
		s.bp = bp
		enter := -1
		nFlips := 0
		if len(bp) > 0 {
			slices.SortFunc(bp, func(a, b dualBP) int {
				if a.ratio != b.ratio {
					if a.ratio < b.ratio {
						return -1
					}
					return 1
				}
				return int(a.j) - int(b.j)
			})
			remain := worst
			for k := range bp {
				j := int(bp[k].j)
				rng := s.hi[j] - s.lo[j]
				if !math.IsInf(rng, 1) {
					if absorb := math.Abs(bp[k].alpha) * rng; remain-absorb > feasTol {
						remain -= absorb
						nFlips = k + 1
						continue
					}
				}
				enter = j
				break
			}
		}
		if enter < 0 {
			// No column can repair the violated row (even after flipping
			// every box-bounded candidate): primal infeasible. An
			// infeasibility verdict prunes a whole B&B subtree, so it is
			// only trusted when derived from a factorization with zero
			// incremental updates on top (factorAge == 0); otherwise
			// reinvert from the original column data and re-derive. Every
			// pivot resets the requirement, so a verdict reached after
			// post-reinversion pivots is re-verified again; the pivot
			// budget bounds the loop. The recorded flips are NOT applied —
			// they do not change the LP's feasibility.
			if s.factorAge > 0 {
				if !s.refactor() {
					return IterLimit
				}
				s.computeB()
				continue
			}
			return Infeasible
		}
		if nFlips > 0 {
			s.applyFlips(bp[:nFlips])
		}
		var target float64
		var leaveStatus varStatus
		if below {
			target, leaveStatus = s.lo[s.basis[r]], atLower
		} else {
			target, leaveStatus = s.hi[s.basis[r]], atUpper
		}
		col, colNZ := s.ftranCol(enter)
		if math.Abs(col[r]) <= pivotEps {
			// The FTRAN'd pivot disagrees with the BTRAN'd row: numerical
			// trouble, rebuild cold.
			return IterLimit
		}
		t := (s.xb[r] - target) / col[r]
		enterVal := s.val(enter) + t
		if t != 0 {
			if colNZ != nil {
				for _, ii := range colNZ {
					if a := col[ii]; a != 0 {
						s.xb[ii] -= a * t
					}
				}
			} else {
				for i := 0; i < s.m; i++ {
					if a := col[i]; a != 0 {
						s.xb[i] -= a * t
					}
				}
			}
		}
		// Devex row-weight update from the FTRAN'd entering column: the
		// max-rule approximation, no extra solves.
		ar := col[r]
		wr := dw[r]
		devexRow := func(i int) {
			if a := col[i]; a != 0 {
				q := a / ar
				if g := q * q * wr; g > dw[i] {
					dw[i] = g
				}
			}
		}
		if colNZ != nil {
			for _, ii := range colNZ {
				if int(ii) != r {
					devexRow(int(ii))
				}
			}
		} else {
			for i := 0; i < s.m; i++ {
				if i != r {
					devexRow(i)
				}
			}
		}
		if g := wr / (ar * ar); g > 1 {
			dw[r] = g
		} else {
			dw[r] = 1
		}
		out := s.basis[r]
		s.status[out] = leaveStatus
		s.status[enter] = basic
		s.basis[r] = enter
		s.xb[r] = enterVal
		s.iter++
		s.Stats.DualPivots++
		if !s.pivotUpdate(r) {
			return IterLimit
		}
	}
}

// applyFlips toggles each recorded breakpoint column to its opposite bound
// and updates the basic values with one combined FTRAN: xb -= B⁻¹·Σ δ_j A_j.
// The combined column is accumulated sparsely (a dual re-entry typically
// flips a handful of columns) and solved on the hyper-sparse path.
func (s *Solver) applyFlips(flips []dualBP) {
	fc := s.flipCol
	if s.flipDense {
		for i := range fc {
			fc[i] = 0
		}
		s.flipDense = false
	} else {
		for _, i := range s.flipNZ {
			fc[i] = 0
		}
	}
	idx := s.flipNZ[:0]
	for k := range flips {
		j := int(flips[k].j)
		rng := s.hi[j] - s.lo[j]
		var delta float64
		if s.status[j] == atLower {
			s.status[j] = atUpper
			delta = rng
		} else {
			s.status[j] = atLower
			delta = -rng
		}
		idx = s.colAxpySparse(j, delta, fc, idx)
	}
	for _, i := range idx {
		s.rowMark[i] = false
	}
	s.flipNZ = idx
	nz, ok := s.lu.ftranSparse(fc, idx)
	if ok {
		s.Stats.SparseFTRANs++
		s.flipNZ = append(s.flipNZ[:0], nz...)
		for _, i := range s.flipNZ {
			if v := fc[i]; v != 0 {
				s.xb[i] -= v
			}
		}
	} else {
		s.Stats.DenseFallbacks++
		s.flipDense = true
		s.flipNZ = s.flipNZ[:0]
		for i := 0; i < s.m; i++ {
			if v := fc[i]; v != 0 {
				s.xb[i] -= v
			}
		}
	}
	s.Stats.BoundFlips += len(flips)
}

// colAxpySparse is colAxpy with pattern tracking: rows newly touched by
// column j are appended to nz, deduplicated through the rowMark scratch
// (the caller clears the marks via the returned list).
func (s *Solver) colAxpySparse(j int, t float64, v []float64, nz []int32) []int32 {
	switch {
	case j < s.nStructBase:
		for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
			i := s.colRow[k]
			if !s.rowMark[i] {
				s.rowMark[i] = true
				nz = append(nz, i)
			}
			v[i] += s.colVal[k] * t
		}
		if s.extCols != nil {
			for _, e := range s.extCols[j] {
				if !s.rowMark[e.i] {
					s.rowMark[e.i] = true
					nz = append(nz, e.i)
				}
				v[e.i] += e.v * t
			}
		}
	case j < s.nStruct:
		for _, e := range s.newCols[j-s.nStructBase] {
			if !s.rowMark[e.i] {
				s.rowMark[e.i] = true
				nz = append(nz, e.i)
			}
			v[e.i] += e.v * t
		}
		if s.extCols != nil {
			for _, e := range s.extCols[j] {
				if !s.rowMark[e.i] {
					s.rowMark[e.i] = true
					nz = append(nz, e.i)
				}
				v[e.i] += e.v * t
			}
		}
	case j < s.nStruct+s.m:
		i := int32(j - s.nStruct)
		if !s.rowMark[i] {
			s.rowMark[i] = true
			nz = append(nz, i)
		}
		v[i] += t
	default:
		i := int32(j - s.nStruct - s.m)
		if !s.rowMark[i] {
			s.rowMark[i] = true
			nz = append(nz, i)
		}
		v[i] += s.artSign[i] * t
	}
	return nz
}

// ---- cold path ----

// solveCold rebuilds the basis from scratch (all-slack where feasible,
// artificials elsewhere) and runs the two-phase primal simplex.
func (s *Solver) solveCold() (*Solution, error) {
	s.Stats.ColdSolves++
	s.valid = false
	nArt := s.build()

	if nArt > 0 {
		s.setPhase1Cost()
		st := s.primal()
		if st == IterLimit {
			s.Stats.Pivots += s.iter
			return s.iterResult(IterLimit), nil
		}
		if s.objective() > 1e-6 {
			s.Stats.Pivots += s.iter
			return s.iterResult(Infeasible), nil
		}
		s.driveOutArtificials()
		// Artificials may never re-enter.
		for i := 0; i < s.m; i++ {
			ac := s.nStruct + s.m + i
			s.lo[ac], s.hi[ac] = 0, 0
			if s.status[ac] != basic {
				s.status[ac] = atLower
			}
		}
	}

	s.setPhase2Cost()
	st := s.primal()
	s.Stats.Pivots += s.iter
	if st == Unbounded {
		return s.iterResult(Unbounded), nil
	}
	if st == IterLimit {
		return s.iterResult(IterLimit), nil
	}
	return s.finish(), nil
}

// build (re)constructs the initial basis for the current bounds: structural
// variables rest at their lower bound, each row is covered by its slack
// where the resulting residual is feasible, and an artificial column (±1
// unit) is opened elsewhere. It returns the number of artificials opened.
func (s *Solver) build() int {
	for j := 0; j < s.nStruct; j++ {
		s.status[j] = atLower
	}
	// Residual per row at the all-lower resting point. The Problem's rows
	// and the added rows carry their own coefficient lists, but appended
	// columns (AddCols) exist only in column-major side storage, so their
	// lower-bound contribution to the base rows is folded in afterwards.
	resid := s.y // scratch: computeY rebuilds y from scratch every time
	for i, r := range s.p.rows {
		v := r.rhs
		for _, c := range r.coeffs {
			v -= c.v * s.lo[c.j]
		}
		resid[i] = v
	}
	for ai := range s.added {
		r := &s.added[ai]
		v := r.rhs
		for k, j := range r.cols {
			v -= r.vals[k] * s.lo[j]
		}
		resid[s.mBase+ai] = v
	}
	for cj := range s.newCols {
		if v := s.lo[s.nStructBase+cj]; v != 0 {
			for _, e := range s.newCols[cj] {
				resid[e.i] -= e.v * v
			}
		}
	}
	nArt := 0
	cover := func(i int, kind RowKind, resid float64) {
		sc := s.nStruct + i
		ac := s.nStruct + s.m + i
		s.lo[ac], s.hi[ac] = 0, 0
		s.status[ac] = atLower
		s.artUsed[i] = false
		s.artSign[i] = 1
		slackOK := false
		switch kind {
		case LE:
			slackOK = resid >= 0
			s.status[sc] = atLower // resting value 0 when not basic
		case GE:
			slackOK = resid <= 0
			s.status[sc] = atUpper // resting value 0
		case EQ:
			s.status[sc] = atLower
		}
		if slackOK {
			s.basis[i] = sc
			s.status[sc] = basic
			return
		}
		// Open the artificial for this row, signed so its basic value is
		// nonnegative.
		s.artUsed[i] = true
		nArt++
		s.hi[ac] = Inf
		if resid < 0 {
			s.artSign[i] = -1
		}
		s.basis[i] = ac
		s.status[ac] = basic
	}
	for i, r := range s.p.rows {
		cover(i, r.kind, resid[i])
	}
	for ai := range s.added {
		cover(s.mBase+ai, s.added[ai].kind, resid[s.mBase+ai])
	}
	// The slack/artificial cover is diagonal (±1 per row), so this
	// factorization cannot fail.
	s.refactor()
	s.computeB()
	return nArt
}

// ---- shared simplex machinery ----

func (s *Solver) setPhase1Cost() {
	for j := range s.cost {
		s.cost[j] = 0
	}
	s.objCols = s.objCols[:0]
	for i := 0; i < s.m; i++ {
		if s.artUsed[i] {
			ac := s.nStruct + s.m + i
			s.cost[ac] = 1
			s.objCols = append(s.objCols, int32(ac))
		}
	}
	s.costPhase = 1
}

func (s *Solver) setPhase2Cost() {
	if s.costPhase == 2 {
		return // cost row already holds the (immutable) objective
	}
	for j := range s.cost {
		s.cost[j] = 0
	}
	s.objCols = s.objCols[:0]
	for j := 0; j < s.nStruct; j++ {
		if c := s.structObj(j); c != 0 {
			s.cost[j] = c
			s.objCols = append(s.objCols, int32(j))
		}
	}
	s.costPhase = 2
}

// structObj returns the phase-2 objective coefficient of structural column
// j, whether it came from the Problem or from AddCols.
func (s *Solver) structObj(j int) float64 {
	if j < s.nStructBase {
		return s.p.obj[j]
	}
	return s.extObj[j-s.nStructBase]
}

// objective returns the current value of the active cost row.
func (s *Solver) objective() float64 {
	z := 0.0
	for i := 0; i < s.m; i++ {
		z += s.cost[s.basis[i]] * s.xb[i]
	}
	for _, jc := range s.objCols {
		j := int(jc)
		if s.status[j] != basic {
			z += s.cost[j] * s.val(j)
		}
	}
	return z
}

// priceRefresh recomputes every reduced cost exactly (one BTRAN plus one
// sparse pass over the columns) and reports whether any eligible entering
// candidate exists. It anchors the incrementally maintained d vector: the
// primal loop calls it on entry and before accepting optimality, so drift
// in the cheap per-pivot updates can never produce a wrong final verdict.
func (s *Solver) priceRefresh() bool {
	s.computeY()
	any := false
	for j := 0; j < s.nTotal; j++ {
		if s.status[j] == basic {
			s.d[j] = 0
			continue
		}
		dj := s.cost[j] - s.colDot(j, s.y)
		s.d[j] = dj
		if !s.movable(j) {
			continue
		}
		if (s.status[j] == atLower && dj < -eps) || (s.status[j] == atUpper && dj > eps) {
			any = true
		}
	}
	return any
}

// primal runs bounded-variable primal simplex pivots under the active cost
// row until optimal, unbounded, or the iteration limit. Pricing is devex:
// reduced costs are maintained incrementally from the pivot row (the same
// BTRAN pass that updates the reference weights), re-anchored exactly by
// priceRefresh before optimality is accepted; persistent stalling falls
// back to Bland's rule on exact reduced costs.
func (s *Solver) primal() Status {
	if !s.priceRefresh() {
		return Optimal
	}
	for j := range s.dw {
		s.dw[j] = 1
	}
	stall := 0
	lastObj := math.Inf(1)
	for {
		if s.iter >= s.maxIter {
			return IterLimit
		}
		useBland := stall > 50
		enter := -1
		if useBland {
			// Bland's rule needs exact reduced-cost signs for its
			// termination guarantee.
			s.priceRefresh()
			for j := 0; j < s.nTotal; j++ {
				if s.status[j] == basic || !s.movable(j) {
					continue
				}
				if (s.status[j] == atLower && s.d[j] < -eps) ||
					(s.status[j] == atUpper && s.d[j] > eps) {
					enter = j
					break
				}
			}
			if enter < 0 {
				return Optimal
			}
		} else {
			best := 0.0
			for j := 0; j < s.nTotal; j++ {
				if s.status[j] == basic || !s.movable(j) {
					continue
				}
				var viol float64
				if s.status[j] == atLower {
					viol = -s.d[j]
				} else {
					viol = s.d[j]
				}
				if viol <= eps {
					continue
				}
				if sc := viol * viol / s.dw[j]; sc > best {
					best = sc
					enter = j
				}
			}
			if enter < 0 {
				// The incremental d sees no candidate: re-price exactly
				// before declaring optimality.
				if !s.priceRefresh() {
					return Optimal
				}
				continue
			}
		}

		// Entering variable moves up from its lower bound or down from its
		// upper bound; basic values change by -alpha[i]*dir*delta.
		dir := 1.0
		if s.status[enter] == atUpper {
			dir = -1.0
		}
		col, colNZ := s.ftranCol(enter)

		leave := -1
		leaveBound := atLower
		limit := s.hi[enter] - s.lo[enter] // bound-flip distance (may be Inf)
		ratioVisit := func(i int) {
			aie := col[i] * dir
			jb := s.basis[i]
			if aie > pivotEps {
				// Basic variable decreases toward its lower bound.
				if math.IsInf(s.lo[jb], -1) {
					return
				}
				ratio := (s.xb[i] - s.lo[jb]) / aie
				if ratio < -eps {
					ratio = 0
				}
				if ratio < limit-eps || (ratio < limit+eps && (leave < 0 || jb < s.basis[leave])) {
					limit = ratio
					leave = i
					leaveBound = atLower
				}
			} else if aie < -pivotEps {
				// Basic variable increases toward its upper bound.
				if math.IsInf(s.hi[jb], 1) {
					return
				}
				ratio := (s.hi[jb] - s.xb[i]) / (-aie)
				if ratio < -eps {
					ratio = 0
				}
				if ratio < limit-eps || (ratio < limit+eps && (leave < 0 || jb < s.basis[leave])) {
					limit = ratio
					leave = i
					leaveBound = atUpper
				}
			}
		}
		if colNZ != nil {
			for _, ii := range colNZ {
				ratioVisit(int(ii))
			}
		} else {
			for i := 0; i < s.m; i++ {
				ratioVisit(i)
			}
		}

		if math.IsInf(limit, 1) {
			return Unbounded
		}

		s.iter++
		if leave < 0 {
			// Bound flip: no basis change, reduced costs unchanged.
			if limit != 0 {
				if colNZ != nil {
					for _, ii := range colNZ {
						if a := col[ii]; a != 0 {
							s.xb[ii] -= a * dir * limit
						}
					}
				} else {
					for i := 0; i < s.m; i++ {
						if a := col[i]; a != 0 {
							s.xb[i] -= a * dir * limit
						}
					}
				}
			}
			if s.status[enter] == atLower {
				s.status[enter] = atUpper
			} else {
				s.status[enter] = atLower
			}
		} else {
			enterVal := s.val(enter) + dir*limit
			if limit != 0 {
				if colNZ != nil {
					for _, ii := range colNZ {
						if a := col[ii]; a != 0 {
							s.xb[ii] -= a * dir * limit
						}
					}
				} else {
					for i := 0; i < s.m; i++ {
						if a := col[i]; a != 0 {
							s.xb[i] -= a * dir * limit
						}
					}
				}
			}
			// Update reduced costs and devex weights from the pivot row
			// before the basis mutates: d'_j = d_j - (d_q/α_rq)·α_rj.
			arq := col[leave]
			pr := s.d[enter] / arq
			gq := s.dw[enter]
			rho := s.btranUnit(leave)
			for j := 0; j < s.nTotal; j++ {
				if s.status[j] == basic || j == enter {
					continue
				}
				a := s.colDot(j, rho)
				if a == 0 {
					continue
				}
				s.d[j] -= pr * a
				q := a / arq
				if g := q * q * gq; g > s.dw[j] {
					s.dw[j] = g
				}
			}
			out := s.basis[leave]
			s.d[out] = -pr
			if g := gq / (arq * arq); g > 1 {
				s.dw[out] = g
			} else {
				s.dw[out] = 1
			}
			s.d[enter] = 0
			s.status[out] = leaveBound
			s.status[enter] = basic
			s.basis[leave] = enter
			s.xb[leave] = enterVal
			if !s.pivotUpdate(leave) {
				return IterLimit
			}
		}

		obj := s.objective()
		if obj < lastObj-1e-12 {
			stall = 0
			lastObj = obj
		} else {
			stall++
		}
	}
}

// driveOutArtificials pivots basic artificials (at value 0 after a
// successful phase 1) out of the basis where possible. Rows whose artificial
// cannot leave are redundant and keep it basic at 0.
func (s *Solver) driveOutArtificials() {
	firstArt := s.nStruct + s.m
	for i := 0; i < s.m; i++ {
		if s.basis[i] < firstArt {
			continue
		}
		rho := s.btranUnit(i)
		piv := -1
		for j := 0; j < firstArt; j++ {
			if s.status[j] == basic {
				continue
			}
			if math.Abs(s.colDot(j, rho)) > pivotEps {
				piv = j
				break
			}
		}
		if piv < 0 {
			continue
		}
		// Degenerate pivot: the entering variable keeps its resting value.
		col, _ := s.ftranCol(piv)
		if math.Abs(col[i]) <= pivotEps {
			continue
		}
		out := s.basis[i]
		outStatus := s.status[out]
		s.status[out] = atLower
		enterVal := s.val(piv) // resting value, read before piv turns basic
		pivStatus := s.status[piv]
		s.status[piv] = basic
		s.basis[i] = piv
		oldXb := s.xb[i]
		s.xb[i] = enterVal
		if !s.pivotUpdate(i) {
			// Reinversion of the new basis failed: undo the swap and leave
			// the artificial basic in this redundant row.
			s.status[piv] = pivStatus
			s.status[out] = outStatus
			s.basis[i] = out
			s.xb[i] = oldXb
			if !s.refactor() {
				s.valid = false
				return
			}
			s.computeB()
		}
	}
}

// statusResult returns a Solution carrying only a status, honoring the
// shared-buffer mode.
func (s *Solver) statusResult(st Status) *Solution {
	if s.reuseSol {
		s.sol = Solution{Status: st}
		return &s.sol
	}
	return &Solution{Status: st}
}

// iterResult is statusResult plus the iteration count.
func (s *Solver) iterResult(st Status) *Solution {
	sol := s.statusResult(st)
	sol.Iterations = s.iter
	return sol
}

// finish marks the factorization reusable and extracts the solution.
func (s *Solver) finish() *Solution {
	s.valid = true
	var sol *Solution
	var x []float64
	if s.reuseSol {
		sol = &s.sol
		if cap(s.solX) < s.nStruct {
			s.solX = make([]float64, s.nStruct)
		}
		x = s.solX[:s.nStruct]
	} else {
		sol = &Solution{}
		x = make([]float64, s.nStruct)
	}
	for j := 0; j < s.nStruct; j++ {
		x[j] = s.val(j)
	}
	for i := 0; i < s.m; i++ {
		if jb := s.basis[i]; jb < s.nStruct {
			x[jb] = s.xb[i]
		}
	}
	obj := 0.0
	for j := 0; j < s.nStruct; j++ {
		obj += s.structObj(j) * x[j]
	}
	*sol = Solution{Status: Optimal, X: x, Obj: obj, Iterations: s.iter}
	return sol
}
