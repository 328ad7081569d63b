package tempart

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/dfg"
	"repro/internal/ilp"
	"repro/internal/lp"
)

// fullPoint completes an integral assignment into a full model variable
// vector: one-hot y, the implied w crossings, and the evaluated (minimal
// feasible) partition delays from the path-sum reference. Cuts must hold
// for every such point.
func fullPoint(g *dfg.Graph, m *tpModel, N int, assign []int, paths [][]int) []float64 {
	x := make([]float64, m.nVars)
	for t, p := range assign {
		x[m.yv(t, p)] = 1
	}
	if m.needMem {
		for ei, e := range g.Edges() {
			for b := 0; b < N-1; b++ {
				if assign[e.From] <= b && assign[e.To] > b {
					x[m.wv(b, ei)] = 1
				}
			}
		}
	}
	for p, d := range pathSumDelays(g, assign, N, paths) {
		x[m.dv(p)] = d
	}
	return x
}

// cutSatisfied checks a modelCut at x.
func cutSatisfied(c *modelCut, x []float64) bool {
	return c.Satisfied(x, 1e-6)
}

// forEachFeasible enumerates every feasible assignment of g at N.
func forEachFeasible(g *dfg.Graph, b arch.Board, N int, fn func(assign []int)) {
	nT := g.NumTasks()
	assign := make([]int, nT)
	var rec func(i int)
	rec = func(i int) {
		if i == nT {
			if CheckFeasible(g, b, assign, N) == nil {
				fn(assign)
			}
			return
		}
		for p := 0; p < N; p++ {
			assign[i] = p
			rec(i + 1)
		}
	}
	rec(0)
}

// randomFractionalPoint builds a model point with per-task partition
// weights summing to 1 (uniqueness-feasible, order-oblivious) and random
// delays — the kind of input the separators see mid-search. Separators
// must produce valid cuts for ANY input point: the point only guides cut
// selection, never validity.
func randomFractionalPoint(rng *rand.Rand, g *dfg.Graph, m *tpModel, N int) []float64 {
	x := make([]float64, m.nVars)
	for t := 0; t < g.NumTasks(); t++ {
		sum := 0.0
		w := make([]float64, N)
		for p := 0; p < N; p++ {
			w[p] = rng.Float64()
			sum += w[p]
		}
		for p := 0; p < N; p++ {
			x[m.yv(t, p)] = w[p] / sum
		}
	}
	maxD := 0.0
	for t := 0; t < g.NumTasks(); t++ {
		maxD += g.Task(t).Delay
	}
	for p := 0; p < N; p++ {
		x[m.dv(p)] = rng.Float64() * maxD / 2
	}
	return x
}

// TestCutsNeverExcludeFeasibleSolutions is the cut-validity property test:
// every cut the presolve (root cuts) or any separator family generates is
// satisfied by every integral feasible solution of the instance, verified
// by brute-force enumeration on random small DAGs. A violation here means
// the search could prune the true optimum.
func TestCutsNeverExcludeFeasibleSolutions(t *testing.T) {
	if testing.Short() {
		t.Skip("sequential brute-force enumeration; skipped under -short (the race lane)")
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(seed, 5+rng.Intn(2))
		b := board(100, 1024, 1000)
		if seed%3 == 0 {
			b = board(100, 8, 1000) // small memory: exercise the w layout
		}
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
		for N := n0; N <= n0+2 && N <= 4; N++ {
			m := buildModel(Input{Graph: g, Board: b}, pre, N, true)
			// Every integer column sits in exactly one SOS1 group, so the
			// search never branches on a single variable.
			inGroups := make(map[int]int)
			for _, grp := range m.ilp.SOS1 {
				for _, j := range grp {
					inGroups[j]++
				}
			}
			for _, j := range m.ilp.Integers {
				if inGroups[j] != 1 {
					t.Fatalf("seed %d N=%d: integer column %d is in %d SOS1 groups, want 1", seed, N, j, inGroups[j])
				}
			}
			sep := newSeparator(pre, g, N, m.yv, m.dv)

			// Gather cuts: the build-time root cuts, plus separator output
			// on several fractional points (random ones and the LP
			// relaxation optimum).
			var cuts []modelCut
			cuts = append(cuts, rootCuts(pre, N, m.yv, m.dv, true)...)
			points := make([][]float64, 0, 5)
			for i := 0; i < 3; i++ {
				points = append(points, randomFractionalPoint(rng, g, m, N))
			}
			if sol, err := lp.Solve(m.prob); err == nil && sol.Status == lp.Optimal {
				points = append(points, sol.X)
			}
			for _, x := range points {
				for _, c := range sep.candidates(x) {
					cuts = append(cuts, c.mc)
				}
			}
			if len(cuts) == 0 {
				continue
			}
			forEachFeasible(g, b, N, func(assign []int) {
				x := fullPoint(g, m, N, assign, paths)
				for ci := range cuts {
					if !cutSatisfied(&cuts[ci], x) {
						t.Fatalf("seed %d N=%d: cut %q (rhs=%g) violated by feasible assignment %v (lhs=%g)",
							seed, N, cuts[ci].name, cuts[ci].RHS, assign, cuts[ci].Eval(x))
					}
				}
			})
		}
	}
}

// TestCutsPreserveOptimum: branch-and-cut and the plain search must reach
// identical optima (N, latency, optimality) on random instances, the
// interchangeable-clone fixtures, and the multi-resource fixture.
func TestCutsPreserveOptimum(t *testing.T) {
	type fixture struct {
		name  string
		g     *dfg.Graph
		board arch.Board
	}
	var fixtures []fixture
	for seed := int64(0); seed < 10; seed++ {
		fixtures = append(fixtures,
			fixture{fmt.Sprintf("rand%d", seed), randomDAG(seed, 7), board(100, 1024, 1000)},
			fixture{fmt.Sprintf("clone%d", seed), cloneGraph(seed), board(100, 1024, 1000)},
		)
	}
	mrg := dfg.New("mr")
	for i := 0; i < 5; i++ {
		mrg.MustAddTask(dfg.Task{
			Name: string(rune('a' + i)), Type: "M", Resources: 100, Delay: 10,
			Extra: map[string]int{"BRAM": 2},
		})
	}
	fixtures = append(fixtures, fixture{"multires", mrg, multiResBoard()})

	for _, fx := range fixtures {
		plain, err := Solve(context.Background(), Input{Graph: fx.g, Board: fx.board, testNoCuts: true})
		if err != nil {
			t.Fatalf("%s (nocuts): %v", fx.name, err)
		}
		cut, err := Solve(context.Background(), Input{Graph: fx.g, Board: fx.board})
		if err != nil {
			t.Fatalf("%s (cuts): %v", fx.name, err)
		}
		if cut.N != plain.N || math.Abs(cut.Latency-plain.Latency) > 1e-6 {
			t.Errorf("%s: cut search N=%d lat=%g, plain N=%d lat=%g",
				fx.name, cut.N, cut.Latency, plain.N, plain.Latency)
		}
		if cut.Optimal != plain.Optimal {
			t.Errorf("%s: optimality cut=%v plain=%v", fx.name, cut.Optimal, plain.Optimal)
		}
		if err := CheckFeasible(fx.g, fx.board, cut.Assign, cut.N); err != nil {
			t.Errorf("%s: cut-search assignment infeasible: %v", fx.name, err)
		}
	}
}

// firBankGraph is the FIR-bank-shaped instance of the headline bench with
// the synthesis estimates pinned as constants (8 channels of
// fir -> dec -> eng; 2800 CLBs total on a 1600-CLB board, so N=2 with the
// decimators forced to split across the boundary).
func firBankGraph(channels int) *dfg.Graph {
	g := dfg.New(fmt.Sprintf("firbank%d", channels))
	for c := 0; c < channels; c++ {
		fn := fmt.Sprintf("fir%d", c)
		dn := fmt.Sprintf("dec%d", c)
		en := fmt.Sprintf("eng%d", c)
		g.MustAddTask(dfg.Task{Name: fn, Type: "fir", Resources: 140, Delay: 1140, ReadEnv: 4})
		g.MustAddTask(dfg.Task{Name: dn, Type: "dec", Resources: 100, Delay: 420})
		g.MustAddTask(dfg.Task{Name: en, Type: "eng", Resources: 110, Delay: 800, WriteEnv: 1})
		g.MustAddEdge(fn, dn, 4)
		g.MustAddEdge(dn, en, 2)
	}
	return g
}

// TestBoundaryCutsCloseFIRBankRoot pins the headline win of the cut
// engine: the boundary chain-area cuts lift the N=2 root bound of the
// FIR bank to the integer optimum (critical path 2360 < optimum 2780),
// so the search that took 38 nodes closes at the root, with the optimum
// unchanged.
func TestBoundaryCutsCloseFIRBankRoot(t *testing.T) {
	g := firBankGraph(8)
	b := board(1600, 64*1024, 1e8)
	p, err := Solve(context.Background(), Input{Graph: g, Board: b})
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 2 || !p.Optimal {
		t.Fatalf("N=%d optimal=%v, want 2/true", p.N, p.Optimal)
	}
	sumD := p.Latency - float64(p.N)*b.FPGA.ReconfigTime
	if math.Abs(sumD-2780) > 1e-6 {
		t.Fatalf("optimal Σd = %g, want 2780 (1140+420 | 420+800)", sumD)
	}
	if p.Stats.Nodes > 2 {
		t.Errorf("FIR bank explored %d nodes; boundary cuts should close the root (PR 3 baseline: 38)", p.Stats.Nodes)
	}
	// The ablation without boundary/aggregate root cuts must agree on the
	// optimum (they are valid inequalities, not model changes).
	pre := newPresolve(g, b)
	if pre.paths, err = g.Paths(0); err != nil {
		t.Fatal(err)
	}
	m := buildModel(Input{Graph: g, Board: b}, pre, 2, false)
	sol, err := ilp.Solve(m.ilp, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != ilp.Optimal || math.Abs(sol.Obj-2780) > 1e-6 {
		t.Fatalf("raw model optimum %v/%g, want optimal/2780", sol.Status, sol.Obj)
	}
}

// TestBoundaryChainFloorSound brute-forces the boundary chain-area floors:
// for every feasible assignment, the prefix/suffix delay sums must reach
// the claimed floors.
func TestBoundaryChainFloorSound(t *testing.T) {
	if testing.Short() {
		t.Skip("sequential brute-force enumeration; skipped under -short (the race lane)")
	}
	for seed := int64(0); seed < 30; seed++ {
		g := randomDAG(seed, 6)
		b := board(100, 1024, 1000)
		paths, err := g.Paths(0)
		if err != nil {
			continue
		}
		pre := newPresolve(g, b)
		n0 := MinPartitions(g, b)
		for N := n0; N <= n0+1 && N >= 2; N++ {
			for p := 1; p < N; p++ {
				preFloor := pre.boundaryChainFloor(N, p, false)
				sufFloor := pre.boundaryChainFloor(N, p, true)
				forEachFeasible(g, b, N, func(assign []int) {
					d := pathSumDelays(g, assign, N, paths)
					preSum, sufSum := 0.0, 0.0
					for q := 0; q < N; q++ {
						if q < p {
							preSum += d[q]
						} else {
							sufSum += d[q]
						}
					}
					if preSum < preFloor-1e-6 || sufSum < sufFloor-1e-6 {
						t.Fatalf("seed %d N=%d p=%d: floors (%g,%g) exceed feasible sums (%g,%g) for %v",
							seed, N, p, preFloor, sufFloor, preSum, sufSum, assign)
					}
				})
			}
		}
	}
}
