package ilp

import (
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/lp"
)

// This file is the cutting-plane side of the branch-and-bound solver: the
// cut pool that deduplicates and ages the rows Options.Separate returns
// and compacts when full. The search's solver applies the pool as a prefix
// of its added rows, so a cut separated at one node reaches every node
// solved after it.
//
// Validity contract: every cut must be satisfied by EVERY integral
// feasible solution of the problem, whichever node it was separated at —
// a cut derived from a node's branching fixes is not valid. Cuts are
// allowed — encouraged — to cut off fractional LP points; that is their
// job. A separator that violates the contract makes the search wrongly
// prune subtrees (like an overclaiming NodeBound), but it can never
// produce an infeasible incumbent: candidate incumbents are verified
// against the original Problem rows only, never against cuts.

// cutViolationTol is the minimum violation for a returned cut to be kept:
// cuts the current point (nearly) satisfies would not move the LP.
const cutViolationTol = 1e-6

// cutTightTol decides whether an applied cut is binding at a node optimum,
// which is what feeds the pool's activity aging.
const cutTightTol = 1e-7

// maxPoolCuts bounds the cut pool. Past the bound the pool evicts
// its least active half.
const maxPoolCuts = 512

// cutPool is the store of cuts, kept as parallel slices so the
// search's solver can append rows[applied:] in place. The solver applies
// the pool as a monotone prefix; when the pool exceeds its bound it
// compacts to the most active half and bumps its generation, telling the
// solver to drop its added rows and re-apply the whole pool.
type cutPool struct {
	max      int
	gen      int
	rows     []lp.CutRow
	hashes   []uint64       // normalized row hash of rows[i]
	activity []float64      // tight-at-optimum count of rows[i] since admission
	index    map[uint64]int // normalized row hash -> index in rows
}

// newCutPool returns an empty pool bounded at max cuts (maxPoolCuts when
// max is not positive).
func newCutPool(max int) *cutPool {
	if max <= 0 {
		max = maxPoolCuts
	}
	return &cutPool{max: max, index: make(map[uint64]int)}
}

// add admits a cut unless an equivalent row (same normalized hash) is
// already pooled. It returns whether the cut was admitted. A full pool
// compacts BEFORE the append, so the freshly separated cut — which is
// violated somewhere right now — always survives its own admission
// instead of being evicted as the least-active entry.
func (cp *cutPool) add(row lp.CutRow) bool {
	h := normalizedRowHash(row)
	if _, dup := cp.index[h]; dup {
		return false
	}
	if len(cp.rows) >= cp.max {
		cp.compact()
	}
	cp.index[h] = len(cp.rows)
	cp.rows = append(cp.rows, row)
	cp.hashes = append(cp.hashes, h)
	cp.activity = append(cp.activity, 0)
	return true
}

// snapshot copies the active cut rows (validity tests).
func (cp *cutPool) snapshot() []lp.CutRow {
	return append([]lp.CutRow(nil), cp.rows...)
}

// compact evicts the least active half of the pool and bumps the
// generation. Hashes of evicted cuts leave the index, so a separator that
// finds the same violation again may re-admit the cut.
func (cp *cutPool) compact() {
	keep := cp.max / 2
	if keep < 1 {
		keep = 1
	}
	order := make([]int, len(cp.rows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return cp.activity[order[a]] > cp.activity[order[b]]
	})
	rows := make([]lp.CutRow, keep, cp.max)
	hashes := make([]uint64, keep, cp.max)
	cp.index = make(map[uint64]int, keep)
	for i, k := range order[:keep] {
		rows[i], hashes[i] = cp.rows[k], cp.hashes[k]
		cp.index[hashes[i]] = i
	}
	cp.rows, cp.hashes = rows, hashes
	// Fresh epoch: every survivor earns its slot again.
	cp.activity = make([]float64, keep, cp.max)
	cp.gen++
}

// normalizedRowHash maps equivalent cut rows to one hash: coefficients are
// sorted by column and merged, GE rows are negated into LE form, and the
// whole row is scaled so the largest |coefficient| is 1 before the rounded
// values are hashed. Scaled duplicates (2x+2y <= 2 vs x+y <= 1) and
// reordered duplicates therefore collide, which is what the pool dedup
// wants.
func normalizedRowHash(r lp.CutRow) uint64 {
	type pair struct {
		j int
		v float64
	}
	ps := make([]pair, 0, len(r.Cols))
	for k, j := range r.Cols {
		ps = append(ps, pair{j, r.Vals[k]})
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].j < ps[b].j })
	merged := ps[:0]
	for _, p := range ps {
		if n := len(merged); n > 0 && merged[n-1].j == p.j {
			merged[n-1].v += p.v
			continue
		}
		merged = append(merged, p)
	}
	sign := 1.0
	kind := r.Kind
	if kind == lp.GE {
		sign, kind = -1, lp.LE
	}
	maxAbs := 0.0
	for _, p := range merged {
		if a := math.Abs(p.v); a > maxAbs {
			maxAbs = a
		}
	}
	scale := sign
	if maxAbs > 0 {
		scale = sign / maxAbs
	}
	h := fnv.New64a()
	var buf [8]byte
	wu := func(u uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	wf := func(v float64) { wu(uint64(int64(math.Round(v * 1e9)))) }
	wu(uint64(kind))
	for _, p := range merged {
		wu(uint64(p.j))
		wf(p.v * scale)
	}
	wf(r.RHS * scale)
	return h.Sum64()
}

// validCut screens a separator-returned cut before it may touch a solver.
func validCut(nVars int, c *lp.CutRow) bool {
	if len(c.Cols) != len(c.Vals) || len(c.Cols) == 0 {
		return false
	}
	if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
		return false
	}
	for k, j := range c.Cols {
		if j < 0 || j >= nVars {
			return false
		}
		if v := c.Vals[k]; math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
