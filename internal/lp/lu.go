package lp

import "math"

// This file implements the basis factorization behind the revised simplex:
// a sparse LU decomposition B = L·F·U maintained across pivots by
// Forrest–Tomlin updates.
//
//   - L is the unit-lower-triangular factor produced at factorization time,
//     stored as a sequence of column etas in elimination order. It is fixed
//     between refactorizations.
//   - U is the upper-triangular factor, stored *doubly*: by pivot row
//     (urows) for the FTRAN back-substitution and the update's row
//     elimination, and by column (ucols) for the BTRAN forward pass.
//     "Triangular" is with respect to the elimination order (pos/order),
//     not the literal row indices: slot s pivots on row prow[s], and
//     urows[s] only holds entries at slots with a higher position.
//   - F is the Forrest–Tomlin update file: a sequence of elementary row
//     transforms (target, source, multiplier) appended by each basis
//     change. FTRAN applies them forward after L; BTRAN applies their
//     transposes in reverse before Lᵀ.
//
// A Forrest–Tomlin update replacing the column in basis slot s works on U
// only: delete slot s's row and column, move s to the last elimination
// position, insert the spike F⁻¹L⁻¹a as its new column, and eliminate the
// leftover row entries with row transforms that go to the F file. No other
// U row changes, which is what keeps the update O(row nnz) and FTRAN/BTRAN
// cost bounded by L+U+F fill instead of growing with every pivot the way a
// product-form eta file does. When the new diagonal comes out unstable the
// update reports failure and the solver refactorizes from the column data.
//
// Path exactness: no shortcut in this kernel may move a pivot. The simplex
// above breaks ratio-test ties on computed values, and visits the entries
// of a sparse result in its index-list order, so a faster reinversion must
// build the factor the plain dense elimination would, bit for bit, and a
// solve must keep both its values and its sparse-or-dense outcome. A
// gather-form stage computes each result entry as one dot product in a
// fixed entry order, so visit order does not matter: FTRAN's U
// back-substitution and every BTRAN stage (Uᵀ, Fᵀ, Lᵀ) give the same
// values dense or sparse (up to the sign of a zero). A scatter-form stage
// adds each pivot's multiple into the entries below it, so visit order
// sets the rounding: FTRAN's L pass runs the etas in elimination order
// when dense and in DFS topological order when sparse, and the two can
// differ in the last bit. The sparse FTRAN therefore always keeps its
// L-stage DFS (lusparse.go).
//
// Index spaces: FTRAN maps a row-space vector (a column of A) to a
// slot-space vector (coefficients per basis position); BTRAN maps
// slot-space (costs of the basic variables) to row-space (dual prices).
// The solver's basis[] array is never permuted by a refactorization — the
// factor keeps its own slot↔pivot-row maps — so xb, Basis snapshots, and
// the B&B layer's bookkeeping all stay slot-stable.

// uent is one off-diagonal nonzero of U, seen from a row (slot = column
// owner) or from a column (slot = row owner).
type uent struct {
	slot int32
	val  float64
}

const (
	// luPivotThreshold is the threshold-pivoting relative tolerance: a row
	// is pivot-eligible when its magnitude is within this factor of the
	// column's largest. Among eligible rows the factorization picks the one
	// with the fewest remaining nonzeros (Markowitz-style fill control).
	luPivotThreshold = 0.1
	// luDropTol discards roundoff-level entries when storing L, U, or F.
	luDropTol = 1e-12
	// luUpdateStabTol rejects a Forrest–Tomlin update whose new diagonal is
	// smaller than this fraction of the largest spike entry: the caller
	// refactorizes instead of carrying an unstable pivot forward.
	luUpdateStabTol = 1e-8
	// luMaxUpdates is a hard backstop on updates between refactorizations;
	// the fill-based trigger in maybeRefactor normally fires first.
	luMaxUpdates = 128
	// luSparseDensity caps the hyper-sparse solve: when the symbolic pass
	// predicts more than this fraction of m nonzero positions the solve
	// falls back to the dense path, so the worst case costs one aborted
	// DFS on top of the dense solve it would have run anyway.
	luSparseDensity = 0.3
	// luSparseMinDim disables the sparse path on tiny factors where the
	// symbolic bookkeeping costs more than the dense clear it avoids.
	luSparseMinDim = 8
)

// luFactor is one basis factorization plus its update file.
type luFactor struct {
	m int

	// L: column etas (unit diagonal; stored values are already divided by
	// the pivot) in elimination order, arena-backed. Most etas are empty
	// (every slack pivots without fill); lNZ lists the ones with entries,
	// in elimination order, so the dense passes skip the rest.
	lR   []int32
	lPtr []int32
	lIdx []int32
	lVal []float64
	lNZ  []int32

	// U by basis slot.
	upiv    []float64 // diagonal of slot s (at row prow[s])
	urows   [][]uent  // row prow[s]: entries {slot t, U[prow[s], t]}
	ucols   [][]uent  // column s: entries {slot t, U[prow[t], s]}
	prow    []int32   // slot -> pivot row
	rowSlot []int32   // pivot row -> slot
	pos     []int32   // slot -> elimination position
	order   []int32   // elimination position -> slot
	unnz    int       // off-diagonal U entries

	// F: Forrest–Tomlin row transforms, applied FTRAN-forward as
	// v[tgt] -= val·v[src].
	fSrc []int32
	fTgt []int32
	fVal []float64

	updates int // FT updates since factorize
	baseNNZ int // L+U nonzeros (incl. diagonals) at factorize time

	// Scratch.
	spike    []float64 // row-space spike F⁻¹L⁻¹a stashed by the last ftran
	z        []float64 // dense solve workspace
	rs       []float64 // update: spike-row accumulator by slot
	queued   []bool    // update: slot already in the elimination heap
	heap     []int32   // update: min-heap of slots by elimination position
	keys     []int32   // factorize: remaining nonzeros per row
	buckets  []int32   // factorize: counting-sort buckets by column nonzeros
	assigned []bool    // factorize: rows already pivoted

	// Hyper-sparse solve machinery (lusparse.go). lEta maps each row to
	// the L eta that pivoted it; ltPtr/ltRow is the transposed L graph
	// (row -> rows whose eta scatters into it), rebuilt per factorize and
	// untouched by Forrest–Tomlin updates (which never modify L). The
	// spike nonzero list lets a sparse ftran keep the dense spike
	// invariant ftUpdate relies on without an O(m) clear per solve.
	lEta  []int32
	ltPtr []int32
	ltRow []int32

	zs      []float64 // sparse solve workspace; all-zero between solves
	markR   []bool    // symbolic: row-space nonzero pattern
	markS   []bool    // symbolic: slot-space nonzero pattern
	markV   []bool    // symbolic: visited set for the Lᵀ DFS
	nzRows  []int32   // row-space pattern list (post-order)
	nzRows2 []int32   // btran Lᵀ pattern list (post-order)
	nzSlots []int32   // slot-space pattern list (post-order)
	stkNode []int32   // DFS stack: nodes
	stkEdge []int32   // DFS stack: per-node edge cursor

	spikeDense bool    // spike may be nonzero anywhere (dense stash)
	spikeNZ    []int32 // nonzero rows of the last sparse spike stash
}

// init (re)sizes the factor for dimension m and clears all stored data.
func (f *luFactor) init(m int) {
	f.m = m
	f.lR = f.lR[:0]
	if len(f.lPtr) == 0 {
		f.lPtr = append(f.lPtr, 0)
	}
	f.lPtr = f.lPtr[:1]
	f.lIdx = f.lIdx[:0]
	f.lVal = f.lVal[:0]
	f.lNZ = f.lNZ[:0]
	f.fSrc, f.fTgt, f.fVal = f.fSrc[:0], f.fTgt[:0], f.fVal[:0]
	f.updates = 0
	f.unnz = 0

	grow := func(v []float64) []float64 {
		if cap(v) < m {
			return make([]float64, m)
		}
		return v[:m]
	}
	growI := func(v []int32) []int32 {
		if cap(v) < m {
			return make([]int32, m)
		}
		return v[:m]
	}
	f.upiv = grow(f.upiv)
	f.prow = growI(f.prow)
	f.rowSlot = growI(f.rowSlot)
	f.pos = growI(f.pos)
	f.order = growI(f.order)
	f.keys = growI(f.keys)
	f.lEta = growI(f.lEta)
	f.spike = grow(f.spike)
	f.z = grow(f.z)
	f.rs = grow(f.rs)
	// The sparse workspace and pattern marks carry an all-clear invariant
	// between solves; grow() does not zero reused capacity, so they are
	// reset explicitly here.
	f.zs = grow(f.zs)
	for i := range f.zs {
		f.zs[i] = 0
	}
	growB := func(v []bool) []bool {
		if cap(v) < m {
			return make([]bool, m)
		}
		v = v[:m]
		for i := range v {
			v[i] = false
		}
		return v
	}
	f.markR = growB(f.markR)
	f.markS = growB(f.markS)
	f.markV = growB(f.markV)
	f.nzRows = f.nzRows[:0]
	f.nzRows2 = f.nzRows2[:0]
	f.nzSlots = f.nzSlots[:0]
	f.stkNode = f.stkNode[:0]
	f.stkEdge = f.stkEdge[:0]
	f.ltPtr = f.ltPtr[:0]
	f.ltRow = f.ltRow[:0]
	f.spikeDense = true
	f.spikeNZ = f.spikeNZ[:0]
	if cap(f.queued) < m {
		f.queued = make([]bool, m)
	} else {
		f.queued = f.queued[:m]
		for i := range f.queued {
			f.queued[i] = false
		}
	}
	if cap(f.assigned) < m {
		f.assigned = make([]bool, m)
	} else {
		f.assigned = f.assigned[:m]
	}
	f.heap = f.heap[:0]
	if cap(f.urows) < m {
		urows := make([][]uent, m)
		copy(urows, f.urows)
		f.urows = urows
		ucols := make([][]uent, m)
		copy(ucols, f.ucols)
		f.ucols = ucols
	} else {
		f.urows = f.urows[:m]
		f.ucols = f.ucols[:m]
	}
	for i := 0; i < m; i++ {
		f.urows[i] = f.urows[i][:0]
		f.ucols[i] = f.ucols[i][:0]
		f.rs[i] = 0
	}
}

// fNNZ returns the size of the update file.
func (f *luFactor) fNNZ() int { return len(f.fVal) }

// ftran solves B x = v in place. Input v is in row space; output is in slot
// space. The intermediate spike F⁻¹L⁻¹v is stashed for a following
// Forrest–Tomlin update.
func (f *luFactor) ftran(v []float64) {
	// L pass, empty etas skipped.
	for _, k := range f.lNZ {
		t := v[f.lR[k]]
		if t == 0 {
			continue
		}
		for q := f.lPtr[k]; q < f.lPtr[k+1]; q++ {
			v[f.lIdx[q]] -= f.lVal[q] * t
		}
	}
	// F pass (forward, append order).
	for k := range f.fVal {
		if t := v[f.fSrc[k]]; t != 0 {
			v[f.fTgt[k]] -= f.fVal[k] * t
		}
	}
	copy(f.spike, v)
	f.spikeDense = true
	f.uSolve(v)
	copy(v, f.z)
}

// uSolve runs FTRAN's U back-substitution, highest elimination position
// first, from the post-L/F intermediate v into the slot-indexed z; v is
// left untouched.
func (f *luFactor) uSolve(v []float64) {
	z := f.z
	for k := f.m - 1; k >= 0; k-- {
		s := f.order[k]
		t := v[f.prow[s]]
		for _, e := range f.urows[s] {
			t -= e.val * z[e.slot]
		}
		z[s] = t / f.upiv[s]
	}
}

// btran solves yᵀB = c in place. Input v is in slot space (one coefficient
// per basis position); output is in row space (dual prices).
func (f *luFactor) btran(v []float64) {
	// Uᵀ forward pass, lowest elimination position first. z is indexed by
	// pivot row.
	z := f.z
	for k := 0; k < f.m; k++ {
		s := f.order[k]
		t := v[s]
		for _, e := range f.ucols[s] {
			t -= e.val * z[f.prow[e.slot]]
		}
		z[f.prow[s]] = t / f.upiv[s]
	}
	// Fᵀ pass (reverse append order).
	for k := len(f.fVal) - 1; k >= 0; k-- {
		if t := z[f.fTgt[k]]; t != 0 {
			z[f.fSrc[k]] -= f.fVal[k] * t
		}
	}
	f.ltSolve(z)
	copy(v, z)
}

// ltSolve applies the Lᵀ pass (reverse eta order, unit diagonal, empty
// etas skipped) to the row-space z.
func (f *luFactor) ltSolve(z []float64) {
	for e := len(f.lNZ) - 1; e >= 0; e-- {
		k := f.lNZ[e]
		r := f.lR[k]
		t := z[r]
		for q := f.lPtr[k]; q < f.lPtr[k+1]; q++ {
			t -= f.lVal[q] * z[f.lIdx[q]]
		}
		z[r] = t
	}
}

// factorizeBasis builds f from the solver's current basis columns. Columns
// are installed thinnest-first; within a column the pivot row is chosen
// among entries within luPivotThreshold of the largest by fewest remaining
// row nonzeros (approximate Markowitz with threshold partial pivoting).
// Returns false — leaving f unusable — when the basis is numerically
// singular; the caller must keep using its previous factor or rebuild.
//
// Slack-heavy bases are the common case (most rows keep their slack basic),
// so the cost is kept proportional to the non-singleton part: singleton
// columns pivot in O(1) and the elimination walks only the non-empty etas.
// Both shortcuts build exactly the factor the plain dense elimination would.
func (s *Solver) factorizeBasis(f *luFactor) bool {
	m := s.m
	f.init(m)
	// Remaining-nonzeros-per-row counts for the Markowitz tiebreak, from
	// the sparse column data (fill-in is not counted: "Markowitz-lite").
	// pos doubles as the per-slot column size until the pivot loop
	// overwrites it with the elimination position.
	rc := f.keys
	for i := range rc {
		rc[i] = 0
	}
	maxNNZ := 0
	for slot := 0; slot < m; slot++ {
		j := s.basis[slot]
		switch {
		case j < s.nStructBase:
			for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
				rc[s.colRow[k]]++
			}
			if s.extCols != nil {
				for _, e := range s.extCols[j] {
					rc[e.i]++
				}
			}
		case j < s.nStruct:
			for _, e := range s.newCols[j-s.nStructBase] {
				rc[e.i]++
			}
			if s.extCols != nil {
				for _, e := range s.extCols[j] {
					rc[e.i]++
				}
			}
		case j < s.nStruct+s.m:
			rc[j-s.nStruct]++ // slack: unit column
		default:
			rc[j-s.nStruct-s.m]++
		}
		n := s.colNNZ(j)
		f.pos[slot] = int32(n)
		if n > maxNNZ {
			maxNNZ = n
		}
	}
	// Install thin columns first to limit fill: a stable counting sort by
	// column size, ties in slot order.
	if cap(f.buckets) < maxNNZ+2 {
		f.buckets = make([]int32, maxNNZ+2, max(maxNNZ, m)+2)
	}
	cnt := f.buckets[:maxNNZ+2]
	for i := range cnt {
		cnt[i] = 0
	}
	for slot := 0; slot < m; slot++ {
		cnt[f.pos[slot]+1]++
	}
	for n := 1; n < len(cnt); n++ {
		cnt[n] += cnt[n-1]
	}
	ord := f.order
	for slot := 0; slot < m; slot++ {
		n := f.pos[slot]
		ord[cnt[n]] = int32(slot)
		cnt[n]++
	}

	assigned := f.assigned
	for i := range assigned {
		assigned[i] = false
	}
	x := s.alpha
	s.alphaDense = true // dense column loads below dirty the sparse scratch
	for k := 0; k < m; k++ {
		slot := int(ord[k])
		j := s.basis[slot]
		if len(f.lNZ) == 0 && s.colNNZ(j) == 1 {
			// A singleton column while every L eta is still empty: the
			// elimination leaves it untouched, so it pivots on its one
			// entry with no U entries and an empty eta, or the basis is
			// singular (its row is taken, or the entry is below pivotEps;
			// NaN fails like it does in the dense scan).
			i, a := s.soleEntry(j)
			if assigned[i] || !(math.Abs(a) > pivotEps) {
				return false
			}
			f.setPivot(slot, k, i, a)
			f.lR = append(f.lR, int32(i))
			f.lPtr = append(f.lPtr, int32(len(f.lIdx)))
			continue
		}
		s.loadCol(j, x)
		// Eliminate with the non-empty L columns built so far.
		for _, e := range f.lNZ {
			t := x[f.lR[e]]
			if t == 0 {
				continue
			}
			for q := f.lPtr[e]; q < f.lPtr[e+1]; q++ {
				x[f.lIdx[q]] -= f.lVal[q] * t
			}
		}
		// Threshold pivoting with a Markowitz row-count tiebreak.
		maxAbs := 0.0
		for i := 0; i < m; i++ {
			if assigned[i] {
				continue
			}
			if a := math.Abs(x[i]); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs <= pivotEps {
			return false
		}
		thresh := luPivotThreshold * maxAbs
		best, bestCount, bestAbs := -1, int32(math.MaxInt32), 0.0
		for i := 0; i < m; i++ {
			if assigned[i] {
				continue
			}
			a := math.Abs(x[i])
			if a < thresh || a <= pivotEps {
				continue
			}
			if rc[i] < bestCount || (rc[i] == bestCount && a > bestAbs) {
				best, bestCount, bestAbs = i, rc[i], a
			}
		}
		piv := x[best]
		f.setPivot(slot, k, best, piv)
		// Store U entries (already-pivoted rows) and the L eta (the rest).
		for i := 0; i < m; i++ {
			v := x[i]
			if i == best || (v < luDropTol && v > -luDropTol) {
				continue
			}
			if assigned[i] {
				t := f.rowSlot[i]
				f.urows[t] = append(f.urows[t], uent{slot: int32(slot), val: v})
				f.ucols[slot] = append(f.ucols[slot], uent{slot: t, val: v})
				f.unnz++
				continue
			}
			f.lIdx = append(f.lIdx, int32(i))
			f.lVal = append(f.lVal, v/piv)
		}
		if int(f.lPtr[k]) < len(f.lIdx) {
			f.lNZ = append(f.lNZ, int32(k))
		}
		f.lR = append(f.lR, int32(best))
		f.lPtr = append(f.lPtr, int32(len(f.lIdx)))
	}
	f.baseNNZ = m + f.unnz + len(f.lVal)
	f.buildLTranspose()
	return true
}

// setPivot records that basis slot slot pivots on row row with diagonal
// piv at elimination position k.
func (f *luFactor) setPivot(slot, k, row int, piv float64) {
	f.upiv[slot] = piv
	f.prow[slot] = int32(row)
	f.rowSlot[row] = int32(slot)
	f.pos[slot] = int32(k)
	f.order[k] = int32(slot) // ord aliases f.order; position k is final
	f.assigned[row] = true
}

// buildLTranspose derives the row-indexed views of L that the hyper-sparse
// solves need: lEta (row -> the eta that pivoted it) and the transposed
// scatter graph ltPtr/ltRow (row -> rows whose eta writes into it), the
// adjacency the BTRAN Lᵀ symbolic pass walks. L is frozen between
// refactorizations (Forrest–Tomlin updates touch U and F only), so one
// counting-sort pass per factorize keeps both views current.
func (f *luFactor) buildLTranspose() {
	m := f.m
	for k := range f.lR {
		f.lEta[f.lR[k]] = int32(k)
	}
	if cap(f.ltPtr) < m+1 {
		f.ltPtr = make([]int32, m+1)
	} else {
		f.ltPtr = f.ltPtr[:m+1]
		for i := range f.ltPtr {
			f.ltPtr[i] = 0
		}
	}
	nnz := len(f.lIdx)
	if cap(f.ltRow) < nnz {
		f.ltRow = make([]int32, nnz)
	} else {
		f.ltRow = f.ltRow[:nnz]
	}
	for _, r := range f.lIdx {
		f.ltPtr[r+1]++
	}
	for i := 0; i < m; i++ {
		f.ltPtr[i+1] += f.ltPtr[i]
	}
	// Fill using ltPtr as a moving cursor, then restore it by shifting.
	for k := range f.lR {
		src := f.lR[k]
		for q := f.lPtr[k]; q < f.lPtr[k+1]; q++ {
			r := f.lIdx[q]
			f.ltRow[f.ltPtr[r]] = src
			f.ltPtr[r]++
		}
	}
	for i := m; i > 0; i-- {
		f.ltPtr[i] = f.ltPtr[i-1]
	}
	f.ltPtr[0] = 0
}

// ftUpdate replaces the column of basis slot s with the one whose spike
// F⁻¹L⁻¹a was stashed by the immediately preceding ftran, applying a
// Forrest–Tomlin update to U and appending the elimination's row transforms
// to the F file. It returns the number of F entries appended and ok=false
// when the new diagonal fails the stability test — the factor is then
// inconsistent and the caller MUST refactorize before the next solve.
func (f *luFactor) ftUpdate(s int) (added int, ok bool) {
	r := int(f.prow[s])
	p := int(f.pos[s])

	// Delete column s from U.
	for _, e := range f.ucols[s] {
		removeUEnt(&f.urows[e.slot], int32(s))
	}
	f.unnz -= len(f.ucols[s])
	f.ucols[s] = f.ucols[s][:0]
	// Delete row prow[s]: scatter it into the slot-indexed accumulator for
	// the elimination below, and drop the transposed entries.
	rs := f.rs
	for _, e := range f.urows[s] {
		removeUEnt(&f.ucols[e.slot], int32(s))
		rs[e.slot] = e.val
		f.heapPush(e.slot)
	}
	f.unnz -= len(f.urows[s])
	f.urows[s] = f.urows[s][:0]

	// Move slot s to the last elimination position.
	for k := p + 1; k < f.m; k++ {
		f.order[k-1] = f.order[k]
		f.pos[f.order[k-1]]--
	}
	f.order[f.m-1] = int32(s)
	f.pos[s] = int32(f.m - 1)

	// Insert the spike as the new column s, tracking its largest entry for
	// the stability test.
	diag := f.spike[r]
	maxAbs := math.Abs(diag)
	for i := 0; i < f.m; i++ {
		v := f.spike[i]
		if i == r || (v < luDropTol && v > -luDropTol) {
			continue
		}
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
		t := f.rowSlot[i]
		f.urows[t] = append(f.urows[t], uent{slot: int32(s), val: v})
		f.ucols[s] = append(f.ucols[s], uent{slot: t, val: v})
		f.unnz++
	}

	// Eliminate the leftover row entries in elimination order, appending
	// one row transform per eliminated entry. Fill-in lands back in rs and
	// is eliminated in turn (heap keeps position order).
	for len(f.heap) > 0 {
		j := int(f.heapPop())
		mu := rs[j] / f.upiv[j]
		rs[j] = 0
		if mu < luDropTol && mu > -luDropTol {
			continue
		}
		f.fSrc = append(f.fSrc, f.prow[j])
		f.fTgt = append(f.fTgt, int32(r))
		f.fVal = append(f.fVal, mu)
		added++
		for _, e := range f.urows[j] {
			if int(e.slot) == s {
				diag -= mu * e.val
				continue
			}
			rs[e.slot] -= mu * e.val
			f.heapPush(e.slot)
		}
	}

	f.updates++
	if a := math.Abs(diag); a <= pivotEps || a < luUpdateStabTol*maxAbs {
		return added, false
	}
	f.upiv[s] = diag
	return added, true
}

// removeUEnt swap-deletes the entry with the given slot from a U row/column.
func removeUEnt(ents *[]uent, slot int32) {
	e := *ents
	for k := range e {
		if e[k].slot == slot {
			last := len(e) - 1
			e[k] = e[last]
			*ents = e[:last]
			return
		}
	}
}

// heapPush queues slot j for elimination, ordered by elimination position.
func (f *luFactor) heapPush(j int32) {
	if f.queued[j] {
		return
	}
	f.queued[j] = true
	f.heap = append(f.heap, j)
	k := len(f.heap) - 1
	for k > 0 {
		par := (k - 1) / 2
		if f.pos[f.heap[par]] <= f.pos[f.heap[k]] {
			break
		}
		f.heap[par], f.heap[k] = f.heap[k], f.heap[par]
		k = par
	}
}

func (f *luFactor) heapPop() int32 {
	top := f.heap[0]
	f.queued[top] = false
	last := len(f.heap) - 1
	f.heap[0] = f.heap[last]
	f.heap = f.heap[:last]
	k := 0
	for {
		l, rr := 2*k+1, 2*k+2
		small := k
		if l < len(f.heap) && f.pos[f.heap[l]] < f.pos[f.heap[small]] {
			small = l
		}
		if rr < len(f.heap) && f.pos[f.heap[rr]] < f.pos[f.heap[small]] {
			small = rr
		}
		if small == k {
			break
		}
		f.heap[k], f.heap[small] = f.heap[small], f.heap[k]
		k = small
	}
	return top
}
