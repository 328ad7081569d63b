package tempart

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/dfg"
	"repro/internal/hls"
	"repro/internal/jpeg"
)

// pathSumDelays is the Fig. 4 delay model by its definition, the reference
// EvaluateDelays is held to: d_p is the largest left-to-right sum of D(t)
// over partition p's tasks along one enumerated root-to-leaf path.
func pathSumDelays(g *dfg.Graph, assign []int, N int, paths [][]int) []float64 {
	d := make([]float64, N)
	for _, path := range paths {
		for p := range d {
			sum := 0.0
			for _, t := range path {
				if assign[t] == p {
					sum += g.Task(t).Delay
				}
			}
			d[p] = max(d[p], sum)
		}
	}
	return d
}

// maxPathSum is the critical path by its definition: the largest sum of
// D(t) along one enumerated root-to-leaf path.
func maxPathSum(g *dfg.Graph, paths [][]int) float64 {
	all := make([]int, g.NumTasks())
	return pathSumDelays(g, all, 1, paths)[0]
}

// equalDelays reports whether two delay vectors are identical under ==.
func equalDelays(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// delayDAG builds a random DAG whose edges follow a random permutation of
// the task indices, with fractional delays spread over eight decades (so
// the sums round) and a few isolated tasks appended.
func delayDAG(rng *rand.Rand) *dfg.Graph {
	g := dfg.New("delays")
	n := 1 + rng.Intn(12)
	isolated := rng.Intn(4)
	for i := 0; i < n+isolated; i++ {
		d := 0.0
		if rng.Intn(8) != 0 {
			d = rng.Float64() * math.Pow(10, float64(rng.Intn(8)-3))
		}
		g.MustAddTask(dfg.Task{Name: fmt.Sprintf("t%d", i), Resources: 1, Delay: d})
	}
	perm := rng.Perm(n)
	density := 0.1 + 0.5*rng.Float64()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				_ = g.AddEdgeByID(perm[i], perm[j], 1)
			}
		}
	}
	return g
}

// TestEvaluateDelaysMatchesPathSum holds the longest-chain DP to the
// path-sum definition with == (no tolerance): on random DAGs with isolated
// tasks under random assignments, temporal order not required, and on
// every portfolio fixture and the DCT under the solver's own assignment.
func TestEvaluateDelaysMatchesPathSum(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 400; i++ {
		g := delayDAG(rng)
		paths, err := g.Paths(0)
		if err != nil {
			t.Fatal(err)
		}
		N := 1 + rng.Intn(4)
		for k := 0; k < 4; k++ {
			assign := make([]int, g.NumTasks())
			for t := range assign {
				assign[t] = rng.Intn(N)
			}
			if got, want := EvaluateDelays(g, assign, N), pathSumDelays(g, assign, N, paths); !equalDelays(got, want) {
				t.Fatalf("graph %d, assign %v: EvaluateDelays %v, path sums %v", i, assign, got, want)
			}
		}
	}

	dct, err := jpeg.BuildDCTGraph(hls.XC4000Library(), hls.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	ins := map[string]Input{"dct": {Graph: dct, Board: arch.PaperXC4044Board()}}
	for _, e := range loadPortfolio(t) {
		name := e.File
		if _, seen := ins[name]; seen {
			continue
		}
		in := entryInput(&e)
		if !e.Quick {
			// The pinned model's search is stress-lane long; the default
			// race answers the same instance in milliseconds.
			in.Formulation = ""
		}
		ins[name] = in
	}
	for name, in := range ins {
		p, err := Solve(context.Background(), in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		paths, err := in.Graph.Paths(0)
		if err != nil {
			t.Fatal(err)
		}
		want := pathSumDelays(in.Graph, p.Assign, p.N, paths)
		if !equalDelays(p.Delays, want) || !equalDelays(EvaluateDelays(in.Graph, p.Assign, p.N), want) {
			t.Errorf("%s: solver delays %v, path sums %v", name, p.Delays, want)
		}
	}
}

// TestPresolveCriticalPath pins the presolve's critical path on the
// diamond a -> {b, c} -> d: a(100) -> b(200) -> d(50) = 350 beats
// a -> c -> d = 300.
func TestPresolveCriticalPath(t *testing.T) {
	g := dfg.New("diamond")
	g.MustAddTask(dfg.Task{Name: "a", Resources: 10, Delay: 100})
	g.MustAddTask(dfg.Task{Name: "b", Resources: 20, Delay: 200})
	g.MustAddTask(dfg.Task{Name: "c", Resources: 30, Delay: 150})
	g.MustAddTask(dfg.Task{Name: "d", Resources: 40, Delay: 50})
	g.MustAddEdge("a", "b", 4)
	g.MustAddEdge("a", "c", 4)
	g.MustAddEdge("b", "d", 2)
	g.MustAddEdge("c", "d", 2)
	if c := newPresolve(g, board(100, 1024, 1000)).critical; c != 350 {
		t.Errorf("critical = %g, want 350", c)
	}
}

// TestPresolveCriticalMatchesPathSum: the presolve's critical path (the
// largest ancestor chain) equals the largest enumerated path sum under ==.
func TestPresolveCriticalMatchesPathSum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := board(100, 1024, 1000)
	for i := 0; i < 300; i++ {
		g := delayDAG(rng)
		paths, err := g.Paths(0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := newPresolve(g, b).critical, maxPathSum(g, paths); got != want {
			t.Fatalf("graph %d: critical %g, max path sum %g", i, got, want)
		}
	}
}

// ladderGraph chains k diamonds top -> {l, r} -> bottom, each bottom the
// next top: 3k+1 tasks and 2^k root-to-leaf paths.
func ladderGraph(k int) *dfg.Graph {
	g := dfg.New(fmt.Sprintf("ladder%d", k))
	top := g.MustAddTask(dfg.Task{Name: "v0", Resources: 20, Delay: 10})
	for i := 0; i < k; i++ {
		l := g.MustAddTask(dfg.Task{Name: fmt.Sprintf("l%d", i), Resources: 20, Delay: 30})
		r := g.MustAddTask(dfg.Task{Name: fmt.Sprintf("r%d", i), Resources: 20, Delay: 20})
		bot := g.MustAddTask(dfg.Task{Name: fmt.Sprintf("v%d", i+1), Resources: 20, Delay: 10})
		for _, e := range [][2]int{{top, l}, {top, r}, {l, bot}, {r, bot}} {
			_ = g.AddEdgeByID(e[0], e[1], 1)
		}
		top = bot
	}
	return g
}

// TestPathDenseGraphs: past MaxPaths the ILP has no Eq. 7 rows to build
// and says so with dfg.ErrTooManyPaths, while the list partitioner, which
// lists no path, still answers.
func TestPathDenseGraphs(t *testing.T) {
	g := ladderGraph(16)
	if n := g.CountPaths(0); n != 1<<16 {
		t.Fatalf("ladder has %d paths, want %d", n, 1<<16)
	}
	b := arch.SmallTestBoard()
	if _, err := Solve(context.Background(), Input{Graph: g, Board: b}); !errors.Is(err, dfg.ErrTooManyPaths) {
		t.Errorf("Solve: err = %v, want dfg.ErrTooManyPaths", err)
	}
	p, err := ListPartition(g, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFeasible(g, b, p.Assign, p.N); err != nil {
		t.Error(err)
	}
	paths, err := g.Paths(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := pathSumDelays(g, p.Assign, p.N, paths); !equalDelays(p.Delays, want) {
		t.Errorf("list delays %v, path sums %v", p.Delays, want)
	}
}
