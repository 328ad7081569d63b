package ilp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

// conflictProblem builds a miniature bin-assignment ILP shaped like the
// tempart models: binary y[i][b] with uniqueness rows Σ_b y[i][b] = 1 and
// capacity rows Σ_i w[i]·y[i][b] ≤ cap, minimizing Σ cost[b]·y[i][b]
// (placing items in later bins costs more, so packings are non-trivial).
// Near-capacity weights make infeasible subtrees common — the regime
// conflict learning exists for.
type conflictProblem struct {
	items, bins int
	w           []int
	cap         int
	prob        *Problem
	yv          func(i, b int) int
}

func newConflictProblem(rng *rand.Rand, items, bins, cap int) *conflictProblem {
	ap := &conflictProblem{items: items, bins: bins, cap: cap}
	ap.w = make([]int, items)
	for i := range ap.w {
		ap.w[i] = cap/3 + 1 + rng.Intn(cap/4)
	}
	n := items * bins
	p := lp.NewProblem(n)
	ap.yv = func(i, b int) int { return i*bins + b }
	ints := make([]int, 0, n)
	var sos [][]int
	for i := 0; i < items; i++ {
		grp := make([]int, 0, bins)
		row := map[int]float64{}
		for b := 0; b < bins; b++ {
			j := ap.yv(i, b)
			p.SetBounds(j, 0, 1)
			p.SetObj(j, float64(1+b))
			ints = append(ints, j)
			grp = append(grp, j)
			row[j] = 1
		}
		p.AddRow(lp.EQ, row, 1)
		sos = append(sos, grp)
	}
	for b := 0; b < bins; b++ {
		row := map[int]float64{}
		for i := 0; i < items; i++ {
			row[ap.yv(i, b)] = float64(ap.w[i])
		}
		p.AddRow(lp.LE, row, float64(cap))
	}
	ap.prob = &Problem{LP: p, Integers: ints, SOS1: sos}
	return ap
}

// nodeBound is a tempart-style combinatorial screen: certain infeasibility
// when a bin's fixed items overflow or an item has no bin left; otherwise
// the trivial bound.
func (ap *conflictProblem) nodeBound(bounds func(j int) (lo, hi float64)) (float64, bool) {
	for b := 0; b < ap.bins; b++ {
		used := 0
		for i := 0; i < ap.items; i++ {
			if lo, _ := bounds(ap.yv(i, b)); lo > 0.5 {
				used += ap.w[i]
			}
		}
		if used > ap.cap {
			return 0, false
		}
	}
	for i := 0; i < ap.items; i++ {
		any := false
		for b := 0; b < ap.bins; b++ {
			if _, hi := bounds(ap.yv(i, b)); hi > 0.5 {
				any = true
				break
			}
		}
		if !any {
			return 0, false
		}
	}
	return 0, true
}

// forEachFeasiblePacking enumerates every integral feasible point.
func (ap *conflictProblem) forEachFeasiblePacking(fn func(x []float64)) {
	assign := make([]int, ap.items)
	used := make([]int, ap.bins)
	var rec func(i int)
	rec = func(i int) {
		if i == ap.items {
			x := make([]float64, ap.items*ap.bins)
			for it, b := range assign {
				x[ap.yv(it, b)] = 1
			}
			fn(x)
			return
		}
		for b := 0; b < ap.bins; b++ {
			if used[b]+ap.w[i] > ap.cap {
				continue
			}
			used[b] += ap.w[i]
			assign[i] = b
			rec(i + 1)
			used[b] -= ap.w[i]
		}
	}
	rec(0)
}

// TestConflictCutsNeverExcludeFeasibleSolutions is the no-good validity
// property test: every cut the search pools — the learned conflicts plus
// anything a separator admitted — must be satisfied by every integral
// feasible solution, verified by brute force on random near-capacity
// assignment instances. A violation means a no-good overclaimed and the
// search could prune the true optimum.
func TestConflictCutsNeverExcludeFeasibleSolutions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sawConflicts := false
	for trial := 0; trial < 30; trial++ {
		ap := newConflictProblem(rng, 4+rng.Intn(3), 2+rng.Intn(2), 100)
		var pooled []lp.CutRow
		opt := Options{
			Separate:        func(pt *SeparationPoint) []Cut { return nil },
			NodeBound:       ap.nodeBound,
			testCapturePool: func(rows []lp.CutRow) { pooled = rows },
		}
		sol, err := Solve(ap.prob, opt)
		if err != nil {
			t.Fatal(err)
		}
		if sol.ConflictCuts > 0 {
			sawConflicts = true
		}
		plain, err := Solve(ap.prob, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Status != sol.Status {
			t.Fatalf("trial %d: conflict-learning search status %v, plain %v", trial, sol.Status, plain.Status)
		}
		if plain.Status == Optimal && math.Abs(plain.Obj-sol.Obj) > 1e-6 {
			t.Fatalf("trial %d: conflict-learning optimum %g, plain %g", trial, sol.Obj, plain.Obj)
		}
		if len(pooled) == 0 {
			continue
		}
		feasibles := 0
		ap.forEachFeasiblePacking(func(x []float64) {
			feasibles++
			for ci := range pooled {
				if !pooled[ci].Satisfied(x, 1e-6) {
					t.Fatalf("trial %d: pooled cut %+v violated by feasible assignment %v",
						trial, pooled[ci], x)
				}
			}
		})
		if plain.Status == Infeasible && feasibles > 0 {
			t.Fatalf("trial %d: search claims infeasible but brute force found %d packings", trial, feasibles)
		}
	}
	if !sawConflicts {
		t.Fatal("no trial learned a conflict cut; the property test exercised nothing")
	}
}
