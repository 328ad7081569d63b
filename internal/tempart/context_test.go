package tempart

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/dfg"
)

// hardInput builds an instance whose B&B search runs far longer than the
// test timeout when not cancelled. Sizes alternate 26/38 CLBs on a 100-CLB
// board: three 26s or (26,26,38) share a partition but two 38s exclude
// everything else, a mixed-cardinality regime where every proof engine
// bound is strictly loose — the area bound and the CG cardinality dual
// bound both say 8 partitions, yet the true minimum is 9: with a bins of
// (38,38), b of (38,26,26), c of (26,26,26) — the only non-dominated
// patterns — covering the twelve 38s needs 2a+b ≥ 12 and the twelve 26s
// need 2b+3c ≥ 12, so a+b+c ≥ (12−b)/2 + b + (12−2b)/3 = 10 − b/6 ≥ 9
// (b ≤ 6 from the 26s), and at N=9 the layer-cake
// and CG-delay floors sit at 800 while the integral optimum is 900. Proving
// either side is an exponential enumeration that no incumbent, cut family
// or packing bound shortcuts. (The earlier 34/35/36
// variant died to the CG cardinality engine: uniform near-capacity sizes
// make the cardinality bound exact.) Symmetry breaking and the warm start
// are disabled on top to keep the tree maximal, and the row model is
// pinned: the pattern master proves the instance in milliseconds, so the
// default race would close it before any cancel or deadline lands.
func hardInput(nTasks int) Input {
	g := dfg.New("hard")
	for i := 0; i < nTasks; i++ {
		r := 26
		if i%2 == 1 {
			r = 38
		}
		g.MustAddTask(dfg.Task{
			Name: fmt.Sprintf("t%02d", i), Type: "T",
			Resources: r, Delay: 100, ReadEnv: 1, WriteEnv: 1,
		})
	}
	b := arch.SmallTestBoard() // 100 CLBs
	return Input{Graph: g, Board: b, NoSymmetryBreaking: true, DisableWarmStart: true,
		Formulation: FormulationRows}
}

func TestSolveContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := Solve(ctx, hardInput(24))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled solve returned %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("pre-cancelled solve took %v", el)
	}
}

func TestSolveContextCancelStopsSearch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := Solve(ctx, hardInput(24))
		done <- err
	}()
	time.Sleep(150 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled solve returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("solve did not observe cancellation (running %v)", time.Since(start))
	}
}

// TestSolveContextCompletesUncancelled pins that a live cancellable
// context (a request's, which also labels the profile) does not perturb
// results: same optimum and search as the uncancellable batch context.
//
// The row model is pinned: node counts are one model's search, and under
// the default this instance races, so they would depend on the winner.
func TestSolveContextCompletesUncancelled(t *testing.T) {
	in := Input{Graph: randomDAG(3, 10), Board: arch.SmallTestBoard(), Formulation: FormulationRows}
	want, err := Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := Solve(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != want.N || got.Latency != want.Latency || got.Stats.Nodes != want.Stats.Nodes {
		t.Fatalf("ctx solve diverged: N=%d lat=%g nodes=%d vs N=%d lat=%g nodes=%d",
			got.N, got.Latency, got.Stats.Nodes, want.N, want.Latency, want.Stats.Nodes)
	}
}
