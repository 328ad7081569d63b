package tempart

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/dfg"
	"repro/internal/lp"
)

// TestCriticalPathNeverExceedsLPBound is presolve property (a): on random
// DAGs, the combinatorial latency bound (N·CT + critical path) never
// exceeds the true LP relaxation bound (N·CT + LP optimum of the raw model
// without the presolve cut), at every N the relax loop could probe. This is
// what makes the critical path safe to use for fathoming before the LP has
// run: it can only under-claim.
func TestCriticalPathNeverExceedsLPBound(t *testing.T) {
	b := board(100, 1024, 1000)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		if g.Validate() != nil {
			return true
		}
		paths, err := g.Paths(0)
		if err != nil {
			return true
		}
		pre := newPresolve(g, b)
		pre.paths = paths
		n0 := MinPartitions(g, b)
		if n0 == 0 {
			return true
		}
		for n := n0; n <= n0+2; n++ {
			m := buildModel(Input{Graph: g, Board: b}, pre, n, false)
			sol, err := lp.Solve(m.prob)
			if err != nil || sol.Status != lp.Optimal {
				continue // infeasible/degenerate relaxations prove nothing here
			}
			if pre.critical > sol.Obj+1e-6 {
				t.Logf("seed %d N=%d: critical path %g exceeds LP bound %g", seed, n, pre.critical, sol.Obj)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPresolveBoundsNeverExceedIntegerOptimum pins the soundness property
// the LP-free fathoming actually relies on: every bound the presolve can
// hand to ilp.Options.NodeBound — critical path, layer-cake area×delay
// bound, and the root node bound itself — is a valid lower bound on the
// brute-force optimal Σ d_p, and the area-packing bound never exceeds the
// true minimum feasible partition count. (The layer-cake bound uses
// integrality, so it may legitimately exceed the LP bound — that is its
// whole point — but it must never exceed the integer optimum, or the
// search would prune the true solution.)
func TestPresolveBoundsNeverExceedIntegerOptimum(t *testing.T) {
	b := board(100, 50, 1000)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		paths, err := g.Paths(0)
		if err != nil {
			return true
		}
		bestN, bestLat := bruteForce(g, b, paths, 4)
		if bestN == 0 {
			return true // infeasible instance
		}
		pre := newPresolve(g, b)
		pre.paths = paths
		if n0 := MinPartitions(g, b); n0 > bestN {
			t.Logf("seed %d: MinPartitions %d exceeds true minimum %d", seed, n0, bestN)
			return false
		}
		if pn := pre.packingNeed(); pn > bestN {
			t.Logf("seed %d: packing dual bound %d exceeds true minimum %d", seed, pn, bestN)
			return false
		}
		sumD := bestLat - float64(bestN)*b.FPGA.ReconfigTime
		if pre.critical > sumD+1e-6 {
			t.Logf("seed %d: critical %g exceeds optimal Σd %g", seed, pre.critical, sumD)
			return false
		}
		if pre.areaDelay > sumD+1e-6 {
			t.Logf("seed %d: areaDelay %g exceeds optimal Σd %g", seed, pre.areaDelay, sumD)
			return false
		}
		// Root node bound over the untouched box.
		m := buildModel(Input{Graph: g, Board: b}, pre, bestN, true)
		nb := pre.nodeBoundFunc(bestN, m.yv, new(int))
		bnd, feasible := nb(m.prob.Bounds)
		if !feasible {
			t.Logf("seed %d: root box declared infeasible despite optimum N=%d", seed, bestN)
			return false
		}
		if bnd > sumD+1e-6 {
			t.Logf("seed %d: root node bound %g exceeds optimal Σd %g", seed, bnd, sumD)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// cloneGraph builds a random DAG and then clones a few tasks into
// interchangeable groups (same type, costs, and neighbourhoods), so the
// symmetry-breaking rows have something to bite on.
func cloneGraph(seed int64) *dfg.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := dfg.New(fmt.Sprintf("clone%d", seed))
	base := 2 + rng.Intn(3)
	for i := 0; i < base; i++ {
		g.MustAddTask(dfg.Task{
			Name:      fmt.Sprintf("b%d", i),
			Resources: 20 + 10*rng.Intn(4),
			Delay:     float64(50 * (1 + rng.Intn(4))),
		})
	}
	// A clone family hanging off task 0: identical costs and neighbours.
	fam := 2 + rng.Intn(3)
	res := 20 + 10*rng.Intn(3)
	delay := float64(50 * (1 + rng.Intn(3)))
	for i := 0; i < fam; i++ {
		id := g.MustAddTask(dfg.Task{
			Name: fmt.Sprintf("c%d", i), Type: "C",
			Resources: res, Delay: delay,
		})
		_ = g.AddEdgeByID(0, id, 1)
	}
	return g
}

// TestSymmetryBreakingPreservesOptimum is presolve property (b): the
// symmetry-broken and unbroken models must reach identical optima (N and
// latency) on the package fixtures and on random graphs with
// interchangeable clone families.
func TestSymmetryBreakingPreservesOptimum(t *testing.T) {
	if testing.Short() {
		t.Skip("sequential model-equivalence sweep; skipped under -short (the race lane)")
	}
	type fixture struct {
		name  string
		g     *dfg.Graph
		board arch.Board
	}
	fixtures := []fixture{
		{"pairs", parallelPairsGraph(), board(100, 1024, 500)},
		{"wide-clones", cloneGraph(1), board(100, 1024, 1000)},
	}
	for seed := int64(0); seed < 12; seed++ {
		fixtures = append(fixtures, fixture{
			fmt.Sprintf("clone%d", seed), cloneGraph(seed), board(100, 1024, 1000),
		})
		fixtures = append(fixtures, fixture{
			fmt.Sprintf("rand%d", seed), randomDAG(seed, 7), board(100, 1024, 1000),
		})
	}
	// Multi-resource fixture: BRAM-capped clones.
	mrg := dfg.New("mr")
	for i := 0; i < 5; i++ {
		mrg.MustAddTask(dfg.Task{
			Name: string(rune('a' + i)), Type: "M", Resources: 100, Delay: 10,
			Extra: map[string]int{"BRAM": 2},
		})
	}
	fixtures = append(fixtures, fixture{"multires", mrg, multiResBoard()})

	for _, fx := range fixtures {
		sym, err := Solve(context.Background(), Input{Graph: fx.g, Board: fx.board})
		if err != nil {
			t.Fatalf("%s (sym): %v", fx.name, err)
		}
		nosym, err := Solve(context.Background(), Input{Graph: fx.g, Board: fx.board, NoSymmetryBreaking: true})
		if err != nil {
			t.Fatalf("%s (nosym): %v", fx.name, err)
		}
		if sym.N != nosym.N || math.Abs(sym.Latency-nosym.Latency) > 1e-6 {
			t.Errorf("%s: symmetry-broken N=%d lat=%g, unbroken N=%d lat=%g",
				fx.name, sym.N, sym.Latency, nosym.N, nosym.Latency)
		}
		if !sym.Optimal || !nosym.Optimal {
			t.Errorf("%s: optimality lost (sym=%v nosym=%v)", fx.name, sym.Optimal, nosym.Optimal)
		}
		if err := CheckFeasible(fx.g, fx.board, sym.Assign, sym.N); err != nil {
			t.Errorf("%s: symmetry-broken assignment infeasible: %v", fx.name, err)
		}
	}
}

// TestGreedyClampNeverSkipsTheOptimum: the relax loop's greedy-feasibility
// clamp (dominated-N rejection) must never change the answer. Solve always
// applies the clamp, so the reference is clamp-free by construction: brute
// force over every assignment, which would expose a maxFeasibleN that
// over-claims (clamping maxN below the true minimum feasible N).
func TestGreedyClampNeverSkipsTheOptimum(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g := randomDAG(200+seed, 6)
		b := board(100, 1024, 1000)
		paths, err := g.Paths(0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		wantN, wantLat := bruteForce(g, b, paths, 6)
		got, err := Solve(context.Background(), Input{Graph: g, Board: b, MaxPartitions: 6})
		if wantN == 0 {
			if err == nil {
				t.Errorf("seed %d: solver found N=%d where brute force proves infeasibility", seed, got.N)
			}
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got.N != wantN || math.Abs(got.Latency-wantLat) > 1e-6 {
			t.Errorf("seed %d: clamped solve N=%d lat=%g, brute force N=%d lat=%g",
				seed, got.N, got.Latency, wantN, wantLat)
		}
	}
}

// TestPackingNeedNeverExceedsBinOptimum is the L2/cardinality soundness
// property: on random item sets, the bin-packing dual bound packingNeedDim
// never exceeds the true minimum bin count (found by exhaustive search),
// and is never below the area ratio it generalizes. An overclaim here
// would make the relax loop skip a feasible partition count.
func TestPackingNeedNeverExceedsBinOptimum(t *testing.T) {
	minBins := func(items []int, cap int) int {
		for bins := 1; ; bins++ {
			if packingFeasibleExact(items, cap, bins) {
				return bins
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		cap := 50 + rng.Intn(100)
		n := 1 + rng.Intn(8)
		items := make([]int, n)
		area := 0
		for i := range items {
			items[i] = 1 + rng.Intn(cap)
			area += items[i]
		}
		opt := minBins(items, cap)
		need := packingNeedDim(items, cap)
		if need > opt {
			t.Fatalf("trial %d: packingNeedDim(%v, %d) = %d exceeds true minimum %d",
				trial, items, cap, need, opt)
		}
		if areaNeed := (area + cap - 1) / cap; need < areaNeed {
			t.Fatalf("trial %d: packingNeedDim(%v, %d) = %d undercuts the area bound %d",
				trial, items, cap, need, areaNeed)
		}
	}
}

// packingFeasibleExact is an exhaustive (budget-free) bin-packing check
// for the tiny item counts of the property tests.
func packingFeasibleExact(items []int, cap, bins int) bool {
	load := make([]int, bins)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(items) {
			return true
		}
		for b := 0; b < bins; b++ {
			if load[b]+items[i] > cap {
				continue
			}
			load[b] += items[i]
			if rec(i + 1) {
				return true
			}
			load[b] -= items[i]
			if load[b] == 0 {
				break // identical empty bins are symmetric
			}
		}
		return false
	}
	return rec(0)
}

// TestNodeBoundNeverFathomsCompletableBoxes pins the residual-packing
// screen (and every other infeasibility check in the node bound) against
// brute force: for every feasible assignment and every prefix of its
// fixes, the node bound must declare the box feasible — a completion
// provably exists — and its bound must not exceed the completion's Σd.
func TestNodeBoundNeverFathomsCompletableBoxes(t *testing.T) {
	if testing.Short() {
		t.Skip("sequential brute-force enumeration; skipped under -short (the race lane)")
	}
	for seed := int64(0); seed < 25; seed++ {
		g := randomDAG(300+seed, 6)
		b := board(100, 1024, 1000)
		paths, err := g.Paths(0)
		if err != nil {
			continue
		}
		pre := newPresolve(g, b)
		pre.paths = paths
		n0 := MinPartitions(g, b)
		if n0 == 0 {
			continue
		}
		for N := n0; N <= n0+1 && N <= 4; N++ {
			m := buildModel(Input{Graph: g, Board: b}, pre, N, true)
			nb := pre.nodeBoundFunc(N, m.yv, new(int))
			forEachFeasible(g, b, N, func(assign []int) {
				d := pathSumDelays(g, assign, N, paths)
				sumD := 0.0
				for _, v := range d {
					sumD += v
				}
				for k := 0; k <= len(assign); k++ {
					bounds := func(j int) (float64, float64) {
						lo, hi := m.prob.Bounds(j)
						for t := 0; t < k; t++ {
							for p := 0; p < N; p++ {
								if j != m.yv(t, p) {
									continue
								}
								if assign[t] == p {
									return 1, 1
								}
								return 0, 0
							}
						}
						return lo, hi
					}
					bnd, feasible := nb(bounds)
					if !feasible {
						t.Fatalf("seed %d N=%d: node bound fathomed a box completable by %v (prefix %d)",
							seed, N, assign, k)
					}
					if bnd > sumD+1e-6 {
						t.Fatalf("seed %d N=%d: node bound %g exceeds completion Σd %g (assign %v, prefix %d)",
							seed, N, bnd, sumD, assign, k)
					}
				}
			})
		}
	}
}
