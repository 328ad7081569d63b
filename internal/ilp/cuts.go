package ilp

import (
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/lp"
)

// This file is the cutting-plane side of the branch-and-bound solver: the
// Cut type returned by Options.Separate, and the cut pool that
// deduplicates, ages and distributes cuts across the search tree.
//
// Validity contract: a Global cut must be satisfied by EVERY integral
// feasible solution of the problem; a non-global (node-local) cut must be
// satisfied by every integral feasible solution inside the emitting node's
// bound box. Cuts are allowed — encouraged — to cut off fractional LP
// points; that is their job. A separator that violates the contract makes
// the search wrongly prune subtrees (like an overclaiming NodeBound), but
// it can never produce an infeasible incumbent: candidate incumbents are
// verified against the original Problem rows only, never against cuts.

// Cut is one violated valid inequality produced by an Options.Separate
// callback.
type Cut struct {
	lp.CutRow
	// Global marks the cut valid for the whole problem. Global cuts enter
	// the pool and reach every later node; non-global cuts apply
	// to the emitting node and are inherited by its descendants only.
	Global bool
	// Name tags the originating separator (logging only).
	Name string
}

// cutViolationTol is the minimum violation for a returned cut to be kept:
// cuts the current point (nearly) satisfies would not move the LP.
const cutViolationTol = 1e-6

// cutTightTol decides whether an applied cut is binding at a node optimum,
// which is what feeds the pool's activity aging.
const cutTightTol = 1e-7

// poolCut is one active cut in the pool.
type poolCut struct {
	row      lp.CutRow
	hash     uint64
	activity float64 // tight-at-optimum count since admission
}

// cutPool is the store of global cuts. The search's solver applies its
// cuts as a monotone prefix (fetch); when the pool exceeds its bound it
// compacts to the most active half and bumps its generation, telling the
// solver to drop its added rows and re-apply.
type cutPool struct {
	max   int
	gen   int
	cuts  []poolCut
	index map[uint64]int // normalized row hash -> index in cuts
}

func newCutPool(max int) *cutPool {
	if max <= 0 {
		max = 512
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
	if len(cp.cuts) >= cp.max {
		cp.compact()
	}
	cp.index[h] = len(cp.cuts)
	cp.cuts = append(cp.cuts, poolCut{row: row, hash: h})
	return true
}

// fetch returns the active cuts beyond position from, plus the current
// generation and total count. A generation change means the caller's
// applied prefix is stale: it must drop its added rows and re-fetch from 0.
func (cp *cutPool) fetch(from, gen int) (rows []lp.CutRow, hashes []uint64, newGen, total int) {
	if gen != cp.gen {
		return nil, nil, cp.gen, len(cp.cuts)
	}
	if from > len(cp.cuts) {
		from = len(cp.cuts)
	}
	for i := from; i < len(cp.cuts); i++ {
		rows = append(rows, cp.cuts[i].row)
		hashes = append(hashes, cp.cuts[i].hash)
	}
	return rows, hashes, cp.gen, len(cp.cuts)
}

// touch credits the cuts (by hash) that were binding at a node optimum.
func (cp *cutPool) touch(tight []uint64) {
	for _, h := range tight {
		if i, ok := cp.index[h]; ok {
			cp.cuts[i].activity++
		}
	}
}

// size reports the current pool population (tests).
func (cp *cutPool) size() int {
	return len(cp.cuts)
}

// snapshot copies the active cut rows (validity tests).
func (cp *cutPool) snapshot() []lp.CutRow {
	rows := make([]lp.CutRow, len(cp.cuts))
	for i := range cp.cuts {
		rows[i] = cp.cuts[i].row
	}
	return rows
}

// compact evicts the least active half of the pool and bumps the
// generation. Hashes of evicted cuts leave the index, so a separator that
// finds the same violation again may re-admit the cut.
func (cp *cutPool) compact() {
	keep := cp.max / 2
	if keep < 1 {
		keep = 1
	}
	sort.SliceStable(cp.cuts, func(a, b int) bool {
		return cp.cuts[a].activity > cp.cuts[b].activity
	})
	cp.cuts = cp.cuts[:keep]
	cp.index = make(map[uint64]int, keep)
	for i := range cp.cuts {
		cp.cuts[i].activity = 0 // fresh epoch: earn the slot again
		cp.index[cp.cuts[i].hash] = i
	}
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
func validCut(nVars int, c *Cut) bool {
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
