package tempart

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dfg"
)

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

// TestSpeculativeNMatchesSequential: a relax-N window of 3 must return the
// same partition count, latency, and optimality flag as the default
// one-probe window on a spread of random instances.
func TestSpeculativeNMatchesSequential(t *testing.T) {
	b := board(100, 1024, 500)
	for seed := int64(0); seed < 8; seed++ {
		g := randomDAG(seed, 7)
		seq, err := Solve(context.Background(), Input{Graph: g, Board: b})
		if err != nil {
			t.Fatalf("seed %d sequential: %v", seed, err)
		}
		spec, err := Solve(context.Background(), Input{Graph: g, Board: b, SpeculateN: 3})
		if err != nil {
			t.Fatalf("seed %d speculative: %v", seed, err)
		}
		if spec.N != seq.N {
			t.Fatalf("seed %d: speculative N=%d, sequential N=%d", seed, spec.N, seq.N)
		}
		if math.Abs(spec.Latency-seq.Latency) > 1e-6 {
			t.Fatalf("seed %d: speculative latency %g, sequential %g", seed, spec.Latency, seq.Latency)
		}
		if spec.Optimal != seq.Optimal {
			t.Fatalf("seed %d: speculative optimal=%v, sequential=%v", seed, spec.Optimal, seq.Optimal)
		}
		if spec.Stats.RelaxSteps != seq.Stats.RelaxSteps {
			t.Fatalf("seed %d: relax steps %d vs %d", seed, spec.Stats.RelaxSteps, seq.Stats.RelaxSteps)
		}
	}
}

// TestWorkersMatchSequentialPartitioning: multi-worker B&B must find the
// same optimal latency as the sequential search on the tempart models.
func TestWorkersMatchSequentialPartitioning(t *testing.T) {
	b := board(100, 1024, 500)
	for seed := int64(0); seed < 6; seed++ {
		g := randomDAG(100+seed, 7)
		seq, err := Solve(context.Background(), Input{Graph: g, Board: b})
		if err != nil {
			t.Fatalf("seed %d sequential: %v", seed, err)
		}
		par, err := Solve(context.Background(), Input{Graph: g, Board: b, Workers: 3})
		if err != nil {
			t.Fatalf("seed %d parallel: %v", seed, err)
		}
		if par.N != seq.N || math.Abs(par.Latency-seq.Latency) > 1e-6 {
			t.Fatalf("seed %d: parallel N=%d latency=%g, sequential N=%d latency=%g",
				seed, par.N, par.Latency, seq.N, seq.Latency)
		}
		if err := CheckFeasible(g, b, par.Assign, par.N); err != nil {
			t.Fatalf("seed %d: parallel assignment infeasible: %v", seed, err)
		}
	}
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

// TestProbePanicReachesCaller: a panic inside a relax-N probe goroutine
// surfaces on Solve's own goroutine at every window size, where a caller's
// recover — the service's solver-panic guard — can catch it, instead of
// killing the process from the probe goroutine.
func TestProbePanicReachesCaller(t *testing.T) {
	b := board(100, 1024, 500)
	for _, window := range []int{1, 3} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("window %d: recovered %v, want the probe's panic", window, r)
				}
			}()
			Solve(context.Background(), Input{Graph: randomDAG(0, 7), Board: b, SpeculateN: window,
				testProbe: func() { panic("boom") }})
		}()
	}
}
