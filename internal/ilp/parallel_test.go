package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/lp"
)

// randomKnapsack builds a reproducible knapsack instance.
func randomKnapsack(seed int64, n int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	values := make([]float64, n)
	weights := make([]float64, n)
	tot := 0.0
	for i := range values {
		values[i] = float64(1 + rng.Intn(40))
		weights[i] = float64(1 + rng.Intn(15))
		tot += weights[i]
	}
	return knapsack(values, weights, math.Floor(tot/2.5))
}

// TestWorkersMatchSequentialKnapsack: the parallel search must find the same
// optimal objective as the sequential search on random knapsacks.
func TestWorkersMatchSequentialKnapsack(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		seq, err := Solve(randomKnapsack(seed, 12), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			par, err := Solve(randomKnapsack(seed, 12), Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if par.Status != seq.Status {
				t.Fatalf("seed %d workers %d: status %v, sequential %v", seed, workers, par.Status, seq.Status)
			}
			if seq.Status == Optimal && math.Abs(par.Obj-seq.Obj) > 1e-5 {
				t.Fatalf("seed %d workers %d: obj %g, sequential %g", seed, workers, par.Obj, seq.Obj)
			}
		}
	}
}

// TestWorkersMatchSequentialAssignment runs the same comparison on the
// SOS1-structured generalized assignment instances (the shape of the
// temporal partitioning models).
func TestWorkersMatchSequentialAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		plain, sos := assignmentProblem(rng, 6, 3)
		seq, err := Solve(sos, Options{})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Solve(plain, Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		// plain (no SOS1) with workers vs sos sequential: both must reach
		// the same optimum.
		if seq.Status != Optimal || par.Status != Optimal {
			t.Fatalf("trial %d: status %v / %v", trial, seq.Status, par.Status)
		}
		if math.Abs(par.Obj-seq.Obj) > 1e-5 {
			t.Fatalf("trial %d: parallel obj %g, sequential %g", trial, par.Obj, seq.Obj)
		}
	}
}

// TestWorkersInfeasible: the parallel search must prove infeasibility too.
func TestWorkersInfeasible(t *testing.T) {
	P := &Problem{LP: lp.NewProblem(1)}
	P.LP.SetBounds(0, 0, 5)
	P.Integers = []int{0}
	P.LP.AddRow(lp.EQ, map[int]float64{0: 2}, 3)
	s, err := Solve(P, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
}

// TestStopChannelAborts: cancelling Options.Context must end the search
// promptly with a Limit-like partial result instead of running to
// completion.
func TestStopChannelAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // pre-cancelled: the search may only process the root
	P := randomKnapsack(7, 22)
	start := time.Now()
	s, err := Solve(P, Options{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status == Optimal && s.Nodes > 1 {
		t.Errorf("stopped search explored %d nodes and claimed optimal", s.Nodes)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancel had no effect")
	}
}

// TestDroppedNodesDegradeStatus exercises the IterLimit bookkeeping: when
// nodes are discarded, the solution's bound must be flagged untrusted, the
// dropped nodes' parent bounds must still enter the reported Bound, and the
// search must not claim Optimal or Infeasible.
func TestDroppedNodesDegradeStatus(t *testing.T) {
	opt := Options{MaxNodes: defaultMaxNodes}
	st := &searchState{opt: &opt, incObj: math.Inf(1), droppedBound: math.Inf(1)}
	st.rootSolved = true
	st.rootBound = 1
	// Simulate one explored incumbent and one dropped node with bound 2.
	st.incumbent = []float64{1}
	st.incObj = 5
	st.dropped = 1
	st.droppedBound = 2
	sol := st.finish()
	if sol.BoundTrusted {
		t.Error("BoundTrusted = true with dropped nodes")
	}
	if sol.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", sol.Dropped)
	}
	if sol.Status == Optimal {
		t.Error("claimed Optimal despite dropped nodes")
	}
	if sol.Bound != 2 {
		t.Errorf("Bound = %g, want 2 (the dropped node's parent bound)", sol.Bound)
	}

	// Without an incumbent a dropped node must degrade Infeasible to Limit.
	st2 := &searchState{opt: &opt, incObj: math.Inf(1), droppedBound: math.Inf(1)}
	st2.rootSolved = true
	st2.rootBound = 1
	st2.dropped = 2
	st2.droppedBound = 1
	sol2 := st2.finish()
	if sol2.Status != Limit {
		t.Errorf("status = %v, want limit (dropped nodes, no incumbent)", sol2.Status)
	}
	if sol2.BoundTrusted {
		t.Error("BoundTrusted = true with dropped nodes and no incumbent")
	}
}

func BenchmarkKnapsack15Workers4(b *testing.B) {
	P := randomKnapsack(5, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(P, Options{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
