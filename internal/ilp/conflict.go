package ilp

import (
	"repro/internal/lp"
	"repro/internal/obs"
)

// This file is the conflict-learning side of the branch-and-bound solver:
// when a subtree is fathomed *infeasible* — its bound box is empty, the
// caller's combinatorial NodeBound proves no feasible point exists in it,
// or its LP relaxation is infeasible — the box is a certificate that no
// integral feasible solution matches the node's fixed 0-1 assignments. The
// certificate is encoded as a no-good cut
//
//	Σ_{j∈F1} y_j − Σ_{j∈F0} y_j ≤ |F1| − 1
//
// over the fixes F1 = {j fixed to 1}, F0 = {j fixed to 0}: any point
// matching every fix would land in the proven-empty box, so at least one
// fix must be violated. The cut is globally valid (it is derived from the
// root bounds plus the fixes alone, never from the incumbent) and enters
// the cut pool, where deduplication, activity aging and compaction already
// exist — so a subtree that proves one packing arrangement impossible
// spares every other subtree the symmetric re-proof.
//
// Only infeasibility fathoming learns: a node pruned because its bound
// cannot beat the incumbent may still contain feasible (just not better)
// points, and a no-good from it would wrongly cut them off.

// maxNoGoodSize caps the fix count of an emitted no-good: a conflict over
// a long fix path constrains almost nothing and only burns pool slots.
const maxNoGoodSize = 24

// maxMinimizeFixes bounds how large a fix set the greedy-deletion
// minimizer will even attempt: each deletion trial is a NodeBound probe,
// so a very deep fathom would pay quadratic work with little hope of
// shrinking below maxNoGoodSize anyway.
const maxMinimizeFixes = 4 * maxNoGoodSize

// conflictFixes reduces a node's fix list to its 0-1 conflict set. It
// returns ok=false when the box is not exactly representable as binary
// fixes (a fix on a continuous variable, a non-0/1 bound, or a
// contradictory pair) — learning from such a node could overclaim.
// Repeated fixes of one variable are merged (they intersect to the same
// 0/1 value or the box is contradictory).
func (st *searchState) conflictFixes(fixes []fix) (f1, f0 []int, ok bool) {
	val := make(map[int]float64, len(fixes))
	for _, f := range fixes {
		if !st.isInt[f.j] || st.rootLo[f.j] != 0 || st.rootHi[f.j] != 1 {
			return nil, nil, false
		}
		var v float64
		switch {
		case f.lo >= 1-intTol: // fixed to 1
			v = 1
		case f.hi <= intTol: // fixed to 0
			v = 0
		default:
			return nil, nil, false
		}
		if prev, seen := val[f.j]; seen {
			if prev != v {
				return nil, nil, false // contradictory box: nothing to learn
			}
			continue
		}
		val[f.j] = v
	}
	// Deterministic order (fix application order, deduplicated): the
	// minimization below and the emitted row must not depend on map
	// iteration, or node counts would vary run to run.
	seen := make(map[int]bool, len(val))
	for _, f := range fixes {
		if seen[f.j] {
			continue
		}
		seen[f.j] = true
		if val[f.j] == 1 {
			f1 = append(f1, f.j)
		} else {
			f0 = append(f0, f.j)
		}
	}
	return f1, f0, len(f1)+len(f0) > 0
}

// conflictProbe is the reusable minimization workspace: one fix map
// mutated between NodeBound queries, so each deletion trial costs a map
// delete/restore instead of rebuilding slices and closures.
type conflictProbe struct {
	st  *searchState
	set map[int]float64
}

func (cp *conflictProbe) bounds(j int) (float64, float64) {
	if v, fixed := cp.set[j]; fixed {
		return v, v
	}
	return cp.st.rootLo[j], cp.st.rootHi[j]
}

// infeasible reports whether the bound still proves the current fix set's
// box empty, via the probe variant when the caller supplies one (so
// telemetry-counting NodeBound implementations are not inflated by
// minimization traffic).
func (cp *conflictProbe) infeasible() bool {
	nb := cp.st.opt.NodeBoundProbe
	if nb == nil {
		nb = cp.st.opt.NodeBound
	}
	_, feasible := nb(cp.bounds)
	return !feasible
}

// minimize greedily deletes fixes while the bound keeps proving
// infeasibility: first every 0-fix at once (for packing conflicts the
// tasks fixed *into* partitions are what overflows), then one fix at a
// time, oldest first, so the most recent (usually decisive) branching
// survives. It returns the surviving fix sets.
func (cp *conflictProbe) minimize(f1, f0 []int) ([]int, []int) {
	if len(f0) > 0 {
		for _, j := range f0 {
			delete(cp.set, j)
		}
		if cp.infeasible() {
			f0 = f0[:0]
		} else {
			for _, j := range f0 {
				cp.set[j] = 0
			}
		}
	}
	drop := func(fs []int, v float64) []int {
		kept := fs[:0]
		for _, j := range fs {
			if len(cp.set) == 1 {
				kept = append(kept, j)
				continue
			}
			delete(cp.set, j)
			if cp.infeasible() {
				continue
			}
			cp.set[j] = v
			kept = append(kept, j)
		}
		return kept
	}
	return drop(f1, 1), drop(f0, 0)
}

// learnConflict derives a no-good cut from an infeasibility-fathomed node
// and admits it to the cut pool. fromNodeBound marks fathoms proved by
// Options.NodeBound, which enables conflict minimization (conflictProbe):
// the bound callback is cheap and LP-free, so the fix set is shrunk by
// re-querying it on subsets. LP-proved fathoms keep the full fix set; the
// pool dedup absorbs repeats. Fix sets too large to plausibly minimize
// below maxNoGoodSize are dropped up front rather than paying the probe
// cost for a cut that would be discarded anyway. An admitted cut is
// counted in ConflictCuts and on the trace.
func (st *searchState) learnConflict(nd *node, fromNodeBound bool) {
	// The root has no fixes to learn from; every other node learns.
	if st.pool == nil || nd.depth == 0 {
		return
	}
	f1, f0, ok := st.conflictFixes(nd.fixes)
	if !ok {
		return
	}
	n := len(f1) + len(f0)
	switch {
	case !fromNodeBound && n > maxNoGoodSize:
		return
	case fromNodeBound && n > maxMinimizeFixes:
		return
	case fromNodeBound && st.opt.NodeBound != nil:
		cp := conflictProbe{st: st, set: make(map[int]float64, n)}
		for _, j := range f1 {
			cp.set[j] = 1
		}
		for _, j := range f0 {
			cp.set[j] = 0
		}
		f1, f0 = cp.minimize(f1, f0)
	}
	if n = len(f1) + len(f0); n == 0 || n > maxNoGoodSize {
		return
	}
	row := lp.CutRow{Kind: lp.LE, RHS: float64(len(f1) - 1)}
	for _, j := range f1 {
		row.Cols = append(row.Cols, j)
		row.Vals = append(row.Vals, 1)
	}
	for _, j := range f0 {
		row.Cols = append(row.Cols, j)
		row.Vals = append(row.Vals, -1)
	}
	if st.pool.add(row) {
		st.conflictCuts++
		st.opt.Trace.Counter(obs.CounterConflicts, 1)
	}
}
