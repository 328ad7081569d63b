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
	if len(pool.rows) != 2 {
		t.Errorf("pool size %d, want 2", len(pool.rows))
	}
}

func TestCutPoolCompaction(t *testing.T) {
	pool := newCutPool(4)
	for i := 0; i < 4; i++ {
		pool.add(lp.CutRow{Kind: lp.LE, Cols: []int{i}, Vals: []float64{1}, RHS: float64(i)})
	}
	gen0 := pool.gen
	pool.activity[3]++ // only the last cut is active
	if !pool.add(lp.CutRow{Kind: lp.LE, Cols: []int{9}, Vals: []float64{1}, RHS: 9}) {
		t.Fatal("the overflowing admission was rejected")
	}
	if pool.gen == gen0 {
		t.Fatal("overflow did not bump the generation")
	}
	if n := len(pool.rows); n != 3 || len(pool.hashes) != n || len(pool.activity) != n || len(pool.index) != n {
		t.Fatalf("compaction left rows/hashes/activity/index = %d/%d/%d/%d, want max/2 survivors + the new admission = 3",
			len(pool.rows), len(pool.hashes), len(pool.activity), len(pool.index))
	}
	// The active cut survived compaction, first (most active), and the
	// admission that triggered it was not evicted.
	if c := pool.rows[0].Cols; len(c) != 1 || c[0] != 3 {
		t.Errorf("compaction evicted the most active cut: rows %v", pool.rows)
	}
	if c := pool.rows[2].Cols; len(c) != 1 || c[0] != 9 {
		t.Errorf("compaction evicted the cut whose admission triggered it: rows %v", pool.rows)
	}
	// Survivors start a fresh activity epoch, and the index points at
	// their new positions.
	for i, h := range pool.hashes {
		if pool.activity[i] != 0 {
			t.Errorf("cut %d kept activity %g across compaction", i, pool.activity[i])
		}
		if pool.index[h] != i || normalizedRowHash(pool.rows[i]) != h {
			t.Errorf("cut %d: index or hash out of step after compaction", i)
		}
	}
	// An evicted cut's hash left the index: it may be admitted again.
	if !pool.add(lp.CutRow{Kind: lp.LE, Cols: []int{1}, Vals: []float64{1}, RHS: 1}) {
		t.Error("an evicted cut could not be re-admitted")
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
func coverSeparator(rows [][]int, caps []int) func(x []float64) []lp.CutRow {
	return func(x []float64) []lp.CutRow {
		var cuts []lp.CutRow
		for ri, w := range rows {
			type it struct {
				j, w int
				x    float64
			}
			var items []it
			for j, wj := range w {
				if wj > 0 {
					items = append(items, it{j, wj, x[j]})
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
			cut := lp.CutRow{Kind: lp.LE, RHS: float64(len(cover) - 1)}
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
	cutOpt := Options{Separate: coverSeparator(rows, caps)}
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

func TestSeparationPoolOverflowDuringSearch(t *testing.T) {
	// A tiny pool bound forces mid-search compaction (generation bumps and
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
		Options{Separate: coverSeparator(rows, caps), testMaxCuts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cut.Status != Optimal || math.Abs(cut.Obj-plain.Obj) > 1e-6 {
		t.Fatalf("overflowing pool changed the answer: %v obj=%g, want %g", cut.Status, cut.Obj, plain.Obj)
	}
}
