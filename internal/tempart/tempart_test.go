package tempart

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/dfg"
)

func board(clbs, memWords int, ct float64) arch.Board {
	b := arch.SmallTestBoard()
	b.FPGA.CLBs = clbs
	b.Memory.Words = memWords
	b.FPGA.ReconfigTime = ct
	return b
}

func TestMinPartitions(t *testing.T) {
	g := dfg.New("g")
	g.MustAddTask(dfg.Task{Name: "a", Resources: 60})
	g.MustAddTask(dfg.Task{Name: "b", Resources: 50})
	b := board(100, 1024, 0)
	if n := MinPartitions(g, b); n != 2 {
		t.Errorf("MinPartitions = %d, want 2", n)
	}
	if n := MinPartitions(dfg.New("empty"), b); n != 0 {
		t.Errorf("MinPartitions(empty) = %d, want 0", n)
	}
}

func TestSingleTask(t *testing.T) {
	g := dfg.New("g")
	g.MustAddTask(dfg.Task{Name: "a", Resources: 10, Delay: 100})
	p, err := Solve(context.Background(), Input{Graph: g, Board: board(100, 1024, 1000)})
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 1 || p.Assign[0] != 0 {
		t.Errorf("N=%d assign=%v, want single partition", p.N, p.Assign)
	}
	if p.Latency != 1000+100 {
		t.Errorf("latency = %g, want 1100", p.Latency)
	}
	if !p.Optimal {
		t.Error("trivial instance not proven optimal")
	}
}

func TestTaskTooLarge(t *testing.T) {
	g := dfg.New("g")
	g.MustAddTask(dfg.Task{Name: "a", Resources: 200, Delay: 10})
	_, err := Solve(context.Background(), Input{Graph: g, Board: board(100, 1024, 0)})
	if !errors.Is(err, ErrTaskTooLarge) {
		t.Errorf("err = %v, want ErrTaskTooLarge", err)
	}
}

func TestTwoPartitionsForcedByResources(t *testing.T) {
	g := dfg.New("g")
	g.MustAddTask(dfg.Task{Name: "a", Resources: 80, Delay: 100})
	g.MustAddTask(dfg.Task{Name: "b", Resources: 80, Delay: 200})
	g.MustAddEdge("a", "b", 4)
	p, err := Solve(context.Background(), Input{Graph: g, Board: board(100, 1024, 500)})
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 2 {
		t.Fatalf("N = %d, want 2", p.N)
	}
	if p.Assign[0] != 0 || p.Assign[1] != 1 {
		t.Errorf("assign = %v, want [0 1] (temporal order)", p.Assign)
	}
	if p.Latency != 2*500+100+200 {
		t.Errorf("latency = %g, want 1300", p.Latency)
	}
}

// TestFig4DelayModel reproduces the paper's Fig. 4: partition delay is the
// maximum in-partition path delay (350/400/150 -> 400 ns; second partition
// 300 ns).
func TestFig4DelayModel(t *testing.T) {
	g := dfg.New("fig4")
	g.MustAddTask(dfg.Task{Name: "a", Resources: 1, Delay: 100})
	g.MustAddTask(dfg.Task{Name: "b", Resources: 1, Delay: 250})
	g.MustAddTask(dfg.Task{Name: "c", Resources: 1, Delay: 400})
	g.MustAddTask(dfg.Task{Name: "d", Resources: 1, Delay: 150})
	g.MustAddTask(dfg.Task{Name: "e", Resources: 1, Delay: 300})
	g.MustAddEdge("a", "b", 1)
	g.MustAddEdge("b", "e", 1)
	g.MustAddEdge("c", "e", 1)
	g.MustAddEdge("d", "e", 1)
	paths, err := g.Paths(0)
	if err != nil {
		t.Fatal(err)
	}
	assign := []int{0, 0, 0, 0, 1} // a,b,c,d in partition 1; e in partition 2
	d := EvaluateDelays(g, assign, 2, paths)
	if d[0] != 400 {
		t.Errorf("d_1 = %g, want 400 (max of 350, 400, 150)", d[0])
	}
	if d[1] != 300 {
		t.Errorf("d_2 = %g, want 300", d[1])
	}
}

func TestMemoryConstraintForcesPlacement(t *testing.T) {
	// a -> b with 10 words, a -> c with 1 word; capacity fits only one of
	// {b,c} with a. With memory 5 words, the cut a|{b,c} (11 words) and
	// any cut separating a from b (10 words) are infeasible; only cutting
	// the a->c edge (1 word) works, so b must join a's partition.
	g := dfg.New("mem")
	g.MustAddTask(dfg.Task{Name: "a", Resources: 50, Delay: 10})
	g.MustAddTask(dfg.Task{Name: "b", Resources: 50, Delay: 10})
	g.MustAddTask(dfg.Task{Name: "c", Resources: 60, Delay: 10})
	g.MustAddEdge("a", "b", 10)
	g.MustAddEdge("a", "c", 1)
	p, err := Solve(context.Background(), Input{Graph: g, Board: board(100, 5, 100)})
	if err != nil {
		t.Fatal(err)
	}
	if p.Assign[0] != p.Assign[1] {
		t.Errorf("assign = %v: a and b split across a 10-word edge with 5-word memory", p.Assign)
	}
	if p.Assign[2] == p.Assign[0] {
		t.Errorf("assign = %v: c cannot share a partition with a+b (110 CLBs)", p.Assign)
	}
	if err := CheckFeasible(g, board(100, 5, 100), p.Assign, p.N); err != nil {
		t.Error(err)
	}
}

func TestChainOptimalLatency(t *testing.T) {
	// Chain of 4 equal tasks (30 CLBs, 100 ns), FPGA 100 CLBs, CT 1 us.
	// Lower bound N0 = ceil(120/100) = 2; feasible at 2 (3+1 or 2+2).
	// Latency = 2 us + 400 ns regardless of the split; check optimum.
	g := dfg.New("chain")
	names := []string{"a", "b", "c", "d"}
	for _, n := range names {
		g.MustAddTask(dfg.Task{Name: n, Resources: 30, Delay: 100})
	}
	for i := 0; i+1 < len(names); i++ {
		g.MustAddEdge(names[i], names[i+1], 1)
	}
	b := board(100, 1024, 1000)
	p, err := Solve(context.Background(), Input{Graph: g, Board: b})
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 2 {
		t.Fatalf("N = %d, want 2", p.N)
	}
	if p.Latency != 2*1000+400 {
		t.Errorf("latency = %g, want 2400", p.Latency)
	}
	if err := CheckFeasible(g, b, p.Assign, p.N); err != nil {
		t.Error(err)
	}
}

// TestILPBeatsOrMatchesGreedyEverywhere: the ILP latency is never worse
// than the greedy warm start (with and without symmetry breaking).
func TestILPNotWorseThanGreedy(t *testing.T) {
	g := parallelPairsGraph()
	b := board(100, 1024, 500)
	for _, noSym := range []bool{true, false} {
		p, err := Solve(context.Background(), Input{Graph: g, Board: b, NoSymmetryBreaking: noSym})
		if err != nil {
			t.Fatalf("noSym=%v: %v", noSym, err)
		}
		ga, gn := greedyAssign(g, b, false)
		paths, _ := g.Paths(0)
		gd := EvaluateDelays(g, ga, gn, paths)
		gl := Latency(b, gd)
		if gn == p.N && p.Latency > gl+1e-9 {
			t.Errorf("noSym=%v: ILP latency %g worse than greedy %g", noSym, p.Latency, gl)
		}
	}
}

// parallelPairsGraph builds the structure where greedy list packing is
// suboptimal: fast tasks and slow tasks mixed in one partition extend its
// critical path (the paper's T1/T2 effect, in miniature).
func parallelPairsGraph() *dfg.Graph {
	g := dfg.New("pairs")
	// 4 fast producers (40 CLBs, 100 ns) -> 4 slow consumers (40 CLBs, 400 ns).
	for i := 0; i < 4; i++ {
		g.MustAddTask(dfg.Task{Name: fast(i), Type: "F", Resources: 40, Delay: 100})
	}
	for i := 0; i < 4; i++ {
		g.MustAddTask(dfg.Task{Name: slow(i), Type: "S", Resources: 40, Delay: 400})
		g.MustAddEdge(fast(i), slow(i), 1)
	}
	return g
}

func fast(i int) string { return string(rune('a' + i)) }
func slow(i int) string { return string(rune('w' + i)) }

// TestBruteForceOptimality compares the ILP against exhaustive enumeration
// on random small graphs: at the minimum feasible N, the ILP latency must
// equal the brute-force optimum.
func TestBruteForceOptimality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		b := board(100, 50, 1000)
		p, err := Solve(context.Background(), Input{Graph: g, Board: b, MaxPartitions: 4})
		paths, perr := g.Paths(0)
		if perr != nil {
			return false
		}
		bestN, bestLat := bruteForce(g, b, paths, 4)
		if err != nil {
			return bestN == 0 // solver failed iff brute force found nothing
		}
		if bestN == 0 {
			return false
		}
		if p.N != bestN {
			return false
		}
		if err := CheckFeasible(g, b, p.Assign, p.N); err != nil {
			return false
		}
		return math.Abs(p.Latency-bestLat) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func randomGraph(rng *rand.Rand) *dfg.Graph {
	g := dfg.New("rand")
	n := 3 + rng.Intn(4)
	for i := 0; i < n; i++ {
		g.MustAddTask(dfg.Task{
			Name:      string(rune('a' + i)),
			Resources: 20 + rng.Intn(60),
			Delay:     float64(50 * (1 + rng.Intn(6))),
		})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(3) == 0 {
				_ = g.AddEdgeByID(i, j, 1+rng.Intn(20))
			}
		}
	}
	return g
}

// bruteForce finds the minimum feasible N (up to maxN) and the optimal
// latency at that N by enumerating every assignment.
func bruteForce(g *dfg.Graph, b arch.Board, paths [][]int, maxN int) (int, float64) {
	nT := g.NumTasks()
	for N := MinPartitions(g, b); N <= maxN; N++ {
		if N == 0 {
			return 0, 0
		}
		best := math.Inf(1)
		assign := make([]int, nT)
		var rec func(i int)
		rec = func(i int) {
			if i == nT {
				if CheckFeasible(g, b, assign, N) == nil {
					d := EvaluateDelays(g, assign, N, paths)
					if l := Latency(b, d); l < best {
						best = l
					}
				}
				return
			}
			for p := 0; p < N; p++ {
				assign[i] = p
				rec(i + 1)
			}
		}
		rec(0)
		if !math.IsInf(best, 1) {
			return N, best
		}
	}
	return 0, 0
}

func TestCheckFeasibleRejectsBadAssignments(t *testing.T) {
	g := dfg.New("g")
	g.MustAddTask(dfg.Task{Name: "a", Resources: 60, Delay: 10})
	g.MustAddTask(dfg.Task{Name: "b", Resources: 60, Delay: 10})
	g.MustAddEdge("a", "b", 200)
	b := board(100, 100, 0)
	if err := CheckFeasible(g, b, []int{0, 0}, 1); err == nil {
		t.Error("resource violation accepted")
	}
	if err := CheckFeasible(g, b, []int{1, 0}, 2); err == nil {
		t.Error("temporal order violation accepted")
	}
	if err := CheckFeasible(g, b, []int{0, 1}, 2); err == nil {
		t.Error("memory violation accepted (200 words > 100)")
	}
	if err := CheckFeasible(g, b, []int{0}, 1); err == nil {
		t.Error("short assignment accepted")
	}
	if err := CheckFeasible(g, b, []int{0, 5}, 2); err == nil {
		t.Error("out-of-range partition accepted")
	}
}

func TestEmptyGraph(t *testing.T) {
	p, err := Solve(context.Background(), Input{Graph: dfg.New("empty"), Board: board(100, 100, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 0 {
		t.Errorf("N = %d, want 0", p.N)
	}
}

// randomDAG builds a random layered task graph that needs several
// partitions under the given board.
func randomDAG(seed int64, tasks int) *dfg.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := dfg.New(fmt.Sprintf("rand%d", seed))
	for i := 0; i < tasks; i++ {
		g.MustAddTask(dfg.Task{
			Name:      fmt.Sprintf("t%d", i),
			Resources: 20 + rng.Intn(50),
			Delay:     float64(10 + rng.Intn(90)),
			ReadEnv:   rng.Intn(3),
			WriteEnv:  rng.Intn(3),
		})
	}
	for i := 0; i < tasks; i++ {
		for j := i + 1; j < tasks; j++ {
			if rng.Intn(4) == 0 {
				_ = g.AddEdgeByID(i, j, 1+rng.Intn(4))
			}
		}
	}
	return g
}

// TestWarmStartEngages asserts the B&B actually reuses solver state: on a
// multi-node search the warm-solve count must dominate the cold rebuilds.
func TestWarmStartEngages(t *testing.T) {
	g := randomDAG(3, 8)
	p, err := Solve(context.Background(), Input{Graph: g, Board: board(100, 1024, 500), DisableWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats.Solver
	if st.Solves < 2 {
		t.Skipf("search solved in %d nodes; nothing to warm start", st.Solves)
	}
	if st.WarmSolves == 0 {
		t.Errorf("no warm solves across %d node LPs (stats %+v)", st.Solves, st)
	}
}

// TestProbePanicReachesCaller: a panic inside a relax-N probe surfaces on
// Solve's own goroutine, where a caller's recover — the service's
// solver-panic guard — can catch it.
func TestProbePanicReachesCaller(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want the probe's panic", r)
		}
	}()
	Solve(context.Background(), Input{Graph: randomDAG(0, 7), Board: board(100, 1024, 500),
		testProbe: func() { panic("boom") }})
}
