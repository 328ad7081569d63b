package ilp

import (
	"context"
	"math"
	"testing"
	"time"
)

// binPackPricer builds an exact (brute-force) pricing oracle for a toy
// bin-packing master: columns are subsets of items fitting the capacity,
// unit cost each, so SolveBP minimizes the bin count. Exhaustive subset
// enumeration keeps the oracle trivially correct — exactly what a driver
// test wants.
func binPackPricer(sizes []int, capacity int) BPPricer {
	n := len(sizes)
	return func(lambda []float64, mu float64, same, differ [][2]int, forbidden map[string]bool) ([]BPColumn, bool) {
		var out []BPColumn
	mask:
		for mask := 1; mask < 1<<n; mask++ {
			w := 0
			for t := 0; t < n; t++ {
				if mask&(1<<t) != 0 {
					w += sizes[t]
				}
			}
			if w > capacity {
				continue
			}
			for _, ab := range same {
				ina, inb := mask&(1<<ab[0]) != 0, mask&(1<<ab[1]) != 0
				if ina != inb {
					continue mask
				}
			}
			for _, ab := range differ {
				if mask&(1<<ab[0]) != 0 && mask&(1<<ab[1]) != 0 {
					continue mask
				}
			}
			var items []int
			for t := 0; t < n; t++ {
				if mask&(1<<t) != 0 {
					items = append(items, t)
				}
			}
			if forbidden[BPKey(items)] {
				continue
			}
			rc := 1.0 - mu
			for _, t := range items {
				rc -= lambda[t]
			}
			if rc < -1e-9 {
				out = append(out, BPColumn{Items: items, Cost: 1})
				if len(out) >= 25 {
					break
				}
			}
		}
		return out, false
	}
}

func singletonSeeds(n int) []BPColumn {
	seeds := make([]BPColumn, n)
	for t := 0; t < n; t++ {
		seeds[t] = BPColumn{Items: []int{t}, Cost: 1}
	}
	return seeds
}

func binPackOpts(sizes []int, capacity, count int) BPOptions {
	return BPOptions{
		NumItems:   len(sizes),
		Count:      count,
		ArtCost:    4*float64(count) + 16,
		MaxFeasObj: float64(count),
		Seeds:      singletonSeeds(len(sizes)),
		Pricer:     binPackPricer(sizes, capacity),
		ObjInteger: true,
		MaxNodes:   5000,
	}
}

// checkCover verifies a selection is an exact cover with every bin fitting.
func checkCover(t *testing.T, sel [][]int, sizes []int, capacity int) {
	t.Helper()
	covered := make([]int, len(sizes))
	for _, items := range sel {
		w := 0
		for _, it := range items {
			covered[it]++
			w += sizes[it]
		}
		if w > capacity {
			t.Fatalf("bin %v overflows: %d > %d", items, w, capacity)
		}
	}
	for it, c := range covered {
		if c != 1 {
			t.Fatalf("item %d covered %d times", it, c)
		}
	}
}

// TestSolveBPBinPackingMixed is the mini mixed-cardinality instance: six
// 26-unit and six 38-unit items on 100-unit bins. Two 38s fill a bin past
// the point where a 26 fits, so the optimum mixes cardinalities: 5 bins
// (e.g. one (38,38), four of the rest), while the area bound says 4.
func TestSolveBPBinPackingMixed(t *testing.T) {
	sizes := []int{26, 26, 26, 26, 26, 26, 38, 38, 38, 38, 38, 38}
	sol, err := SolveBP(binPackOpts(sizes, 100, 12))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v, want Optimal (%+v)", sol.Status, sol)
	}
	if math.Abs(sol.Obj-5) > 1e-9 {
		t.Fatalf("obj = %v, want 5 bins", sol.Obj)
	}
	if !sol.BoundTrusted || math.Abs(sol.Bound-sol.Obj) > 1e-9 {
		t.Fatalf("bound %v trusted=%v, want closed proof at 5", sol.Bound, sol.BoundTrusted)
	}
	checkCover(t, sol.Columns, sizes, 100)
	if sol.ColumnsGenerated <= len(sizes) {
		t.Fatalf("pricing generated no columns beyond the seeds (%d)", sol.ColumnsGenerated)
	}
}

// TestSolveBPFractionalRoot forces branching: three items of size 2 on
// 4-unit bins — the LP root packs three half-pairs for a bound of 1.5,
// the integer optimum is 2 — and checks Ryan–Foster closes it.
func TestSolveBPFractionalRoot(t *testing.T) {
	sizes := []int{2, 2, 2}
	sol, err := SolveBP(binPackOpts(sizes, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Obj-2) > 1e-9 {
		t.Fatalf("got %v obj=%v, want Optimal 2", sol.Status, sol.Obj)
	}
	if sol.Nodes < 3 {
		t.Fatalf("solved in %d nodes; the root is fractional, branching was expected", sol.Nodes)
	}
	checkCover(t, sol.Columns, sizes, 4)
}

// TestSolveBPCheckSelectionNoGood rejects any selection using the {0,1}
// pair column, as the tempart acyclicity vet would a cyclic selection: the
// driver must cut it off with a no-good and land on the 2-bin answer.
func TestSolveBPCheckSelectionNoGood(t *testing.T) {
	sizes := []int{2, 2}
	opts := binPackOpts(sizes, 4, 2)
	opts.CheckSelection = func(sel [][]int) bool {
		for _, items := range sel {
			if len(items) == 2 {
				return false
			}
		}
		return true
	}
	sol, err := SolveBP(opts)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Obj-2) > 1e-9 {
		t.Fatalf("got %v obj=%v, want Optimal 2 (pair column refuted)", sol.Status, sol.Obj)
	}
	for _, items := range sol.Columns {
		if len(items) == 2 {
			t.Fatalf("refuted column selected: %v", sol.Columns)
		}
	}
}

// TestSolveBPInfeasible: two items that cannot share a bin under a
// one-bin budget have no solution, and the exhausted search must say so
// with a trusted verdict.
func TestSolveBPInfeasible(t *testing.T) {
	sizes := []int{3, 3}
	sol, err := SolveBP(binPackOpts(sizes, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible || !sol.BoundTrusted {
		t.Fatalf("got %v trusted=%v, want trusted Infeasible", sol.Status, sol.BoundTrusted)
	}
}

// TestSolveBPSeedsOnly: a nil pricer restricts the search to the seeds.
func TestSolveBPSeedsOnly(t *testing.T) {
	opts := binPackOpts([]int{1, 1, 1}, 4, 3)
	opts.Pricer = nil
	sol, err := SolveBP(opts)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Obj-3) > 1e-9 {
		t.Fatalf("got %v obj=%v, want Optimal 3 (singleton seeds only)", sol.Status, sol.Obj)
	}
}

// TestSolveBPDeadline: an already-expired context deadline yields Timeout
// without touching a node.
func TestSolveBPDeadline(t *testing.T) {
	opts := binPackOpts([]int{2, 2, 2}, 4, 3)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	opts.Context = ctx
	sol, err := SolveBP(opts)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Timeout {
		t.Fatalf("status %v, want Timeout", sol.Status)
	}
}

// TestSolveBPNodeLimit: MaxNodes 1 on the fractional instance cannot close
// the proof and must report Limit with the (trusted) root bound. When the
// deadline has passed by the time the budget trips (the root's converging
// pricing round sleeps past it), the stop is a deadline stop: Timeout.
func TestSolveBPNodeLimit(t *testing.T) {
	for _, pastDeadline := range []bool{false, true} {
		opts := binPackOpts([]int{2, 2, 2}, 4, 3)
		opts.MaxNodes = 1
		want := Limit
		if pastDeadline {
			want = Timeout
			dl := time.Now().Add(30 * time.Millisecond)
			ctx, cancel := context.WithDeadline(context.Background(), dl)
			defer cancel()
			opts.Context = ctx
			price := opts.Pricer
			opts.Pricer = func(lambda []float64, mu float64, same, differ [][2]int, forbidden map[string]bool) ([]BPColumn, bool) {
				cols, inexact := price(lambda, mu, same, differ, forbidden)
				if len(cols) == 0 {
					time.Sleep(time.Until(dl) + time.Millisecond)
				}
				return cols, inexact
			}
		}
		sol, err := SolveBP(opts)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != want || sol.Columns != nil {
			t.Fatalf("past deadline %v: status %v (columns %v), want %v without an incumbent",
				pastDeadline, sol.Status, sol.Columns, want)
		}
		if !sol.BoundTrusted || math.Abs(sol.Bound-1.5) > 1e-6 {
			t.Fatalf("past deadline %v: root bound %v trusted=%v, want trusted 1.5",
				pastDeadline, sol.Bound, sol.BoundTrusted)
		}
	}
}
