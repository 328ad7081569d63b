package ilp

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/lp"
)

func TestNormalizedRowHashDedups(t *testing.T) {
	a := lp.CutRow{Kind: lp.LE, Cols: []int{2, 0}, Vals: []float64{1, 2}, RHS: 3}
	b := lp.CutRow{Kind: lp.LE, Cols: []int{0, 2}, Vals: []float64{4, 2}, RHS: 6} // 2x scaled, reordered
	c := lp.CutRow{Kind: lp.GE, Cols: []int{0, 2}, Vals: []float64{-2, -1}, RHS: -3}
	d := lp.CutRow{Kind: lp.LE, Cols: []int{0, 2}, Vals: []float64{2, 1}, RHS: 4} // different rhs
	if normalizedRowHash(a) != normalizedRowHash(b) {
		t.Error("scaled/reordered row hashed differently")
	}
	if normalizedRowHash(a) != normalizedRowHash(c) {
		t.Error("negated GE form hashed differently")
	}
	if normalizedRowHash(a) == normalizedRowHash(d) {
		t.Error("distinct rhs collided")
	}
	pool := newCutPool(0)
	if !pool.add(a) {
		t.Fatal("first add rejected")
	}
	if pool.add(b) || pool.add(c) {
		t.Error("pool admitted an equivalent duplicate")
	}
	if !pool.add(d) {
		t.Error("pool rejected a distinct cut")
	}
	if pool.size() != 2 {
		t.Errorf("pool size %d, want 2", pool.size())
	}
}

func TestCutPoolCompaction(t *testing.T) {
	pool := newCutPool(4)
	for i := 0; i < 4; i++ {
		pool.add(lp.CutRow{Kind: lp.LE, Cols: []int{i}, Vals: []float64{1}, RHS: float64(i)})
	}
	_, hashes, gen0, _ := pool.fetch(0, 0)
	pool.touch([]uint64{hashes[3]}) // only the last cut is active
	pool.add(lp.CutRow{Kind: lp.LE, Cols: []int{9}, Vals: []float64{1}, RHS: 9})
	rows, _, gen1, total := pool.fetch(0, gen0)
	if gen1 == gen0 {
		t.Fatal("overflow did not bump the generation")
	}
	if rows != nil {
		t.Fatal("stale-generation fetch must return no rows")
	}
	rows, _, _, total = pool.fetch(0, gen1)
	if total > 3 || len(rows) != total {
		t.Fatalf("compaction kept %d cuts, want <= max/2 survivors + the new admission", total)
	}
	// The active cut survived compaction, and the admission that triggered
	// it was not evicted.
	foundActive, foundNew := false, false
	for _, r := range rows {
		if len(r.Cols) == 1 && r.Cols[0] == 3 {
			foundActive = true
		}
		if len(r.Cols) == 1 && r.Cols[0] == 9 {
			foundNew = true
		}
	}
	if !foundActive {
		t.Error("compaction evicted the most active cut")
	}
	if !foundNew {
		t.Error("compaction evicted the cut whose admission triggered it")
	}
}

// knapsackProblem builds max Σ c_j x_j (as a minimization) over binaries
// subject to LE knapsack rows.
func knapsackProblem(obj []float64, rows [][]int, caps []int) *Problem {
	n := len(obj)
	p := lp.NewProblem(n)
	ints := make([]int, n)
	for j := 0; j < n; j++ {
		p.SetObj(j, -obj[j])
		p.SetBounds(j, 0, 1)
		ints[j] = j
	}
	for ri, w := range rows {
		row := map[int]float64{}
		for j, wj := range w {
			if wj != 0 {
				row[j] = float64(wj)
			}
		}
		p.AddRow(lp.LE, row, float64(caps[ri]))
	}
	return &Problem{LP: p, Integers: ints}
}

// coverSeparator returns extended-cover cuts for the given knapsack rows —
// the canonical valid-inequality family for 0-1 knapsacks, used here to
// exercise the branch-and-cut plumbing end to end.
func coverSeparator(rows [][]int, caps []int, global bool) func(pt *SeparationPoint) []Cut {
	return func(pt *SeparationPoint) []Cut {
		var cuts []Cut
		for ri, w := range rows {
			type it struct {
				j, w int
				x    float64
			}
			var items []it
			for j, wj := range w {
				if wj > 0 {
					items = append(items, it{j, wj, pt.X[j]})
				}
			}
			sort.Slice(items, func(a, b int) bool { return items[a].x > items[b].x })
			sum, mass := 0, 0.0
			var cover []it
			for _, c := range items {
				cover = append(cover, c)
				sum += c.w
				mass += c.x
				if sum > caps[ri] {
					break
				}
			}
			if sum <= caps[ri] || mass <= float64(len(cover)-1)+1e-6 {
				continue
			}
			cut := Cut{Global: global, Name: "cover"}
			cut.Kind = lp.LE
			cut.RHS = float64(len(cover) - 1)
			for _, c := range cover {
				cut.Cols = append(cut.Cols, c.j)
				cut.Vals = append(cut.Vals, 1)
			}
			cuts = append(cuts, cut)
		}
		return cuts
	}
}

func TestSeparationMatchesPlainSearch(t *testing.T) {
	// A knapsack whose LP relaxation is badly fractional: equal profits,
	// near-capacity weights.
	obj := []float64{10, 10, 10, 10, 10, 10}
	rows := [][]int{{34, 35, 36, 34, 35, 36}}
	caps := []int{100}
	plain, err := Solve(knapsackProblem(obj, rows, caps), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cutOpt := Options{Separate: coverSeparator(rows, caps, true)}
	cut, err := Solve(knapsackProblem(obj, rows, caps), cutOpt)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Status != Optimal || cut.Status != Optimal {
		t.Fatalf("status plain=%v cut=%v", plain.Status, cut.Status)
	}
	if math.Abs(plain.Obj-cut.Obj) > 1e-6 {
		t.Fatalf("cut search changed the optimum: %g vs %g", cut.Obj, plain.Obj)
	}
	if cut.CutsAdded == 0 || cut.SeparationRounds == 0 {
		t.Fatalf("no separation happened: %+v", cut)
	}
	if cut.Nodes > plain.Nodes {
		t.Errorf("cuts grew the tree: %d nodes vs %d plain", cut.Nodes, plain.Nodes)
	}
}

func TestNodeLocalCuts(t *testing.T) {
	// The same search with the separator emitting node-local cuts: the
	// optimum must be unchanged and the local-cut drop/re-add path must
	// hold up (locals are inherited by descendants only).
	obj := []float64{10, 10, 10, 10, 10, 10}
	rows := [][]int{{34, 35, 36, 34, 35, 36}}
	caps := []int{100}
	plain, err := Solve(knapsackProblem(obj, rows, caps), Options{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := Solve(knapsackProblem(obj, rows, caps),
		Options{Separate: coverSeparator(rows, caps, false)})
	if err != nil {
		t.Fatal(err)
	}
	if local.Status != Optimal || math.Abs(local.Obj-plain.Obj) > 1e-6 {
		t.Fatalf("local-cut search: %v obj=%g, want optimal obj=%g", local.Status, local.Obj, plain.Obj)
	}
	if local.CutsAdded == 0 {
		t.Fatal("no local cuts were admitted")
	}
}

func TestSeparationPoolOverflowDuringSearch(t *testing.T) {
	// A tiny MaxCuts forces mid-search compaction (generation bumps and
	// solver rebuilds); the answer must not change.
	rng := rand.New(rand.NewSource(3))
	n := 10
	obj := make([]float64, n)
	w := make([]int, n)
	for j := 0; j < n; j++ {
		obj[j] = float64(5 + rng.Intn(10))
		w[j] = 30 + rng.Intn(12)
	}
	rows := [][]int{w}
	caps := []int{95}
	plain, err := Solve(knapsackProblem(obj, rows, caps), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cut, err := Solve(knapsackProblem(obj, rows, caps),
		Options{Separate: coverSeparator(rows, caps, true), MaxCuts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cut.Status != Optimal || math.Abs(cut.Obj-plain.Obj) > 1e-6 {
		t.Fatalf("overflowing pool changed the answer: %v obj=%g, want %g", cut.Status, cut.Obj, plain.Obj)
	}
}

// TestLocalCutsSurvivePoolCompaction pins the bindCuts recovery path: with
// a tiny pool forcing mid-search generation bumps AND a separator emitting
// node-local cuts, every drop triggered by a compaction must re-establish
// the node's inherited local set before the LP re-solves. The optimum must
// match the plain search.
func TestLocalCutsSurvivePoolCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 10
	obj := make([]float64, n)
	w := make([]int, n)
	for j := 0; j < n; j++ {
		obj[j] = float64(5 + rng.Intn(10))
		w[j] = 30 + rng.Intn(12)
	}
	rows := [][]int{w}
	caps := []int{95}
	globalSep := coverSeparator(rows, caps, true)
	localSep := coverSeparator(rows, caps, false)
	mixed := func(pt *SeparationPoint) []Cut {
		return append(globalSep(pt), localSep(pt)...)
	}
	plain, err := Solve(knapsackProblem(obj, rows, caps), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cut, err := Solve(knapsackProblem(obj, rows, caps), Options{Separate: mixed, MaxCuts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cut.Status != Optimal || math.Abs(cut.Obj-plain.Obj) > 1e-6 {
		t.Fatalf("%v obj=%g, want optimal obj=%g", cut.Status, cut.Obj, plain.Obj)
	}
	if cut.CutsAdded == 0 {
		t.Fatal("no cuts admitted")
	}
}
