package lp

import "repro/internal/faultinject"

// Hyper-sparse FTRAN/BTRAN: nonzero-tracked variants of the dense solves in
// lu.go for right-hand sides that carry an index list (a structural column,
// a unit pricing row, a handful of bound-flip deltas). A depth-first
// symbolic pass over the factor graph discovers the reachable nonzero set
// first; the numeric pass then touches only those positions, so a solve
// whose result stays sparse costs O(result fill) instead of the dense
// path's O(m) clear/scatter/gather per stage.
//
// The factor graph has one dependency edge per stored nonzero:
//
//	FTRAN  L: row lR[k] scatters into its eta's lIdx rows;
//	       F: fSrc -> fTgt in append order (scanned, not DFS'd — the file
//	          is short by construction, maybeRefactor bounds it);
//	       U: slot s feeds the lower-position slots in ucols[s].
//	BTRAN  U: slot s feeds the higher-position slots in urows[s];
//	       F: fTgt -> fSrc in reverse append order;
//	       Lᵀ: row r feeds the rows whose eta contains it (ltRow).
//
// DFS post-order gives a topological order of each stage's reachable set
// (for every dependency edge u→v, v finishes before u), so the numeric
// passes walk the discovered list backwards and every value is final
// before it is read. When the discovered set outgrows luSparseDensity·m
// the solve finishes on the dense path from the current stage — the
// symbolic work is wasted but bounded, so worst-case cost is unchanged.
//
// Path exactness (see lu.go): the gather-form stages (FTRAN U; BTRAN Uᵀ,
// Fᵀ, Lᵀ) give the same values whichever path finishes them, so a
// fallback from one of them changes no bit. The FTRAN L stage is
// scatter-form: its sparse pass applies the etas in DFS topological order
// and can round differently from the dense pass, so the sparse/dense
// decision itself must not change for a given factor and right-hand side.
//
// Invariants: the caller's vector must be zero outside its index list; on
// a sparse return (ok=true) it is zero outside the returned list, which
// aliases factor scratch and is valid until the next solve. zs and the
// mark arrays are all-clear between solves; every path below restores
// that before returning. On a dense fallback (ok=false) the routine has
// already produced the dense result in v and the pattern is unknown.

// DFS graph modes for symbolic().
const (
	graphLF = iota // FTRAN L: rows, eta scatter edges
	graphUF        // FTRAN U: slots via ucols, seeds are rows (rowSlot)
	graphUB        // BTRAN U: slots via urows
	graphLB        // BTRAN Lᵀ: rows via ltRow, seeds are slots (prow)
)

// symbolic runs the depth-first reachability pass for one solve stage:
// every node reachable from seeds through the mode's edges is marked in
// mark and appended to out in DFS post-order. It aborts once the set
// exceeds max, clearing every mark it set and returning ok=false with the
// out list it was given (the caller's prior marks are untouched).
//
// For graphLB the seeds are already marked (they are the F-stage pattern),
// so a separate visited array distinguishes "traversed" from "nonzero";
// for the other modes mark doubles as the visited set.
func (f *luFactor) symbolic(mode int, seeds []int32, mark []bool, out []int32, max int) ([]int32, bool) {
	base := len(out)
	nodes, edges := f.stkNode[:0], f.stkEdge[:0]
	for _, sd := range seeds {
		root := sd
		if mode == graphUF {
			root = f.rowSlot[sd]
		}
		if mark[root] {
			continue
		}
		mark[root] = true
		nodes = append(nodes, root)
		edges = append(edges, 0)
		for len(nodes) > 0 {
			top := len(nodes) - 1
			n := nodes[top]
			e := edges[top]
			var child int32 = -1
			switch mode {
			case graphLF:
				k := f.lEta[n]
				if q := f.lPtr[k] + e; q < f.lPtr[k+1] {
					child = f.lIdx[q]
				}
			case graphUF:
				if int(e) < len(f.ucols[n]) {
					child = f.ucols[n][e].slot
				}
			case graphUB:
				if int(e) < len(f.urows[n]) {
					child = f.urows[n][e].slot
				}
			case graphLB:
				if q := f.ltPtr[n] + e; q < f.ltPtr[n+1] {
					child = f.ltRow[q]
				}
			}
			if child >= 0 {
				edges[top] = e + 1
				if !mark[child] {
					mark[child] = true
					nodes = append(nodes, child)
					edges = append(edges, 0)
				}
				continue
			}
			out = append(out, n)
			nodes = nodes[:top]
			edges = edges[:top]
			if len(out)-base > max {
				for _, r := range out[base:] {
					mark[r] = false
				}
				for _, r := range nodes {
					mark[r] = false
				}
				f.stkNode, f.stkEdge = nodes[:0], edges[:0]
				return out[:base], false
			}
		}
	}
	f.stkNode, f.stkEdge = nodes[:0], edges[:0]
	return out, true
}

// sparseMax returns the symbolic abort threshold, or 0 when the sparse
// path is disabled for this factor (tiny dimension, or a chaos test armed
// the fallback shot). Every sparse solve calls it first, so an armed
// fallback fault forces the whole solve dense.
func (f *luFactor) sparseMax() int {
	if f.m < luSparseMinDim || faultinject.Fire(faultinject.SparseSolveFallback) {
		return 0
	}
	return int(luSparseDensity * float64(f.m))
}

// stashSpikeSparse records the intermediate F⁻¹L⁻¹v (held in v at the rows
// positions) as the update spike, preserving the dense-correctness
// invariant ftUpdate reads: previous nonzeros are cleared by list when the
// last stash was sparse, densely once after a dense one.
func (f *luFactor) stashSpikeSparse(v []float64, rows []int32) {
	if f.spikeDense {
		for i := range f.spike {
			f.spike[i] = 0
		}
		f.spikeDense = false
	} else {
		for _, r := range f.spikeNZ {
			f.spike[r] = 0
		}
	}
	f.spikeNZ = append(f.spikeNZ[:0], rows...)
	for _, r := range rows {
		f.spike[r] = v[r]
	}
}

// ftranSparse solves B x = v for a v that is zero outside idx (row space).
// On ok=true the solution occupies exactly the returned slot-space index
// list (valid until the next solve on this factor) and v is zero
// elsewhere; on ok=false the predicted fill crossed the density threshold
// and the solve was finished densely. The update spike is stashed either
// way, so a following ftUpdate sees the same state as after a dense ftran.
func (f *luFactor) ftranSparse(v []float64, idx []int32) ([]int32, bool) {
	max := f.sparseMax()
	if len(idx) > max {
		f.ftran(v)
		return nil, false
	}
	rows, ok := f.symbolic(graphLF, idx, f.markR, f.nzRows[:0], max)
	f.nzRows = rows
	if !ok {
		f.ftran(v)
		return nil, false
	}
	// Numeric L pass in topological (reverse post-) order.
	for k := len(rows) - 1; k >= 0; k-- {
		r := rows[k]
		t := v[r]
		if t == 0 {
			continue
		}
		e := f.lEta[r]
		for q := f.lPtr[e]; q < f.lPtr[e+1]; q++ {
			v[f.lIdx[q]] -= f.lVal[q] * t
		}
	}
	// F pass, symbolic and numeric in one forward scan. The pattern grows
	// monotonically in append order and a row outside it holds zero, so
	// this applies exactly the transforms the dense pass would.
	for k := range f.fVal {
		src, tgt := f.fSrc[k], f.fTgt[k]
		if !f.markR[src] {
			continue
		}
		if !f.markR[tgt] {
			f.markR[tgt] = true
			rows = append(rows, tgt)
		}
		if t := v[src]; t != 0 {
			v[tgt] -= f.fVal[k] * t
		}
	}
	f.nzRows = rows
	if len(rows) > max {
		for _, r := range rows {
			f.markR[r] = false
		}
		// L and F are applied; finish with the dense U tail.
		copy(f.spike, v)
		f.spikeDense = true
		f.uSolve(v)
		copy(v, f.z)
		return nil, false
	}
	f.stashSpikeSparse(v, rows)
	slots, ok := f.symbolic(graphUF, rows, f.markS, f.nzSlots[:0], max)
	f.nzSlots = slots
	if !ok {
		for _, r := range rows {
			f.markR[r] = false
		}
		f.uSolve(v)
		copy(v, f.z)
		return nil, false
	}
	// Numeric U back-substitution in topological order: urows entries sit
	// at higher elimination positions, finalized earlier by this walk.
	zs := f.zs
	for k := len(slots) - 1; k >= 0; k-- {
		s := slots[k]
		t := v[f.prow[s]]
		for _, e := range f.urows[s] {
			t -= e.val * zs[e.slot]
		}
		zs[s] = t / f.upiv[s]
	}
	// Gather: clear the row-space intermediate, emit the slot-space result,
	// restore the zs/mark invariants.
	for _, r := range rows {
		v[r] = 0
		f.markR[r] = false
	}
	for _, s := range slots {
		v[s] = zs[s]
		zs[s] = 0
		f.markS[s] = false
	}
	return slots, true
}

// btranSparse solves yᵀB = v for a v that is zero outside idx (slot
// space). On ok=true the row-space solution occupies exactly the returned
// index list and v is zero elsewhere; on ok=false the solve was finished
// densely past the threshold stage.
func (f *luFactor) btranSparse(v []float64, idx []int32) ([]int32, bool) {
	max := f.sparseMax()
	if len(idx) > max {
		f.btran(v)
		return nil, false
	}
	slots, ok := f.symbolic(graphUB, idx, f.markS, f.nzSlots[:0], max)
	f.nzSlots = slots
	if !ok {
		f.btran(v)
		return nil, false
	}
	// Numeric Uᵀ forward pass in topological order; zs is indexed by pivot
	// row, ucols entries sit at lower positions, finalized earlier.
	zs := f.zs
	for k := len(slots) - 1; k >= 0; k-- {
		s := slots[k]
		t := v[s]
		for _, e := range f.ucols[s] {
			t -= e.val * zs[f.prow[e.slot]]
		}
		zs[f.prow[s]] = t / f.upiv[s]
	}
	// Row-space pattern of z: the pivot rows of the discovered slots.
	rows := f.nzRows[:0]
	for _, s := range slots {
		r := f.prow[s]
		f.markR[r] = true
		rows = append(rows, r)
	}
	// Fᵀ pass, symbolic and numeric in one scan in reverse append order
	// (the same argument as FTRAN's F pass).
	for k := len(f.fVal) - 1; k >= 0; k-- {
		tgt, src := f.fTgt[k], f.fSrc[k]
		if !f.markR[tgt] {
			continue
		}
		if !f.markR[src] {
			f.markR[src] = true
			rows = append(rows, src)
		}
		if t := zs[tgt]; t != 0 {
			zs[src] -= f.fVal[k] * t
		}
	}
	f.nzRows = rows
	if len(rows) > max {
		f.btranDenseTail(v, rows, slots)
		return nil, false
	}
	// Lᵀ stage. The seeds are the (already markR-marked) F-stage rows, so
	// the DFS tracks visits in markV; the discovered superset rows2 is the
	// final pattern.
	rows2, ok := f.symbolic(graphLB, rows, f.markV, f.nzRows2[:0], max)
	f.nzRows2 = rows2
	if !ok {
		f.btranDenseTail(v, rows, slots)
		return nil, false
	}
	for k := len(rows2) - 1; k >= 0; k-- {
		r := rows2[k]
		e := f.lEta[r]
		t := zs[r]
		for q := f.lPtr[e]; q < f.lPtr[e+1]; q++ {
			t -= f.lVal[q] * zs[f.lIdx[q]]
		}
		zs[r] = t
	}
	// Gather and restore invariants. Seeds are cleared from v first: a seed
	// slot that is not also a result row must end zero.
	for _, s := range idx {
		v[s] = 0
	}
	for _, r := range rows {
		f.markR[r] = false
	}
	for _, s := range slots {
		f.markS[s] = false
	}
	for _, r := range rows2 {
		v[r] = zs[r]
		zs[r] = 0
		f.markV[r] = false
	}
	return rows2, true
}

// btranDenseTail finishes a btran densely after the sparse Uᵀ and Fᵀ
// stages: scatter the zs intermediate into the dense workspace, run the
// Lᵀ pass, and clear every sparse mark. v is fully overwritten with the
// dense result.
func (f *luFactor) btranDenseTail(v []float64, rows, slots []int32) {
	z := f.z
	for i := range z {
		z[i] = 0
	}
	for _, r := range rows {
		z[r] = f.zs[r]
		f.zs[r] = 0
		f.markR[r] = false
	}
	for _, s := range slots {
		f.markS[s] = false
	}
	f.ltSolve(z)
	copy(v, z)
}
